//! The metric registry: every reported name with its unit, and for each
//! per-layer metric the end-to-end metric it should move and the workloads
//! where it should and should not move it. `BENCHMARK.json` mirrors this
//! table; a test keeps the two in step.

pub const WORKLOADS: [&str; 3] = ["batch_ragged", "batch_wide", "serve_tcp"];

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
}

pub const END_TO_END: [EndToEnd; 5] = [
    EndToEnd { name: "samples_per_sec", unit: "1/s", better: "higher" },
    EndToEnd { name: "latency_p50_ms", unit: "ms", better: "lower" },
    EndToEnd { name: "latency_p90_ms", unit: "ms", better: "lower" },
    EndToEnd { name: "setup_s", unit: "s", better: "lower" },
    EndToEnd { name: "peak_rss_mb", unit: "MB", better: "lower" },
];

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// End-to-end metrics a change in this one should move.
    pub moves: &'static [&'static str],
    /// Workloads where it should move them.
    pub on: &'static [&'static str],
    /// Workloads where the prediction is no change.
    pub no_change_on: &'static [&'static str],
}

const BATCH: &[&str] = &["batch_ragged", "batch_wide"];
const RAGGED: &[&str] = &["batch_ragged"];
const WIDE: &[&str] = &["batch_wide"];
const SERVE: &[&str] = &["serve_tcp"];
const NONE: &[&str] = &[];
const RATE: &[&str] = &["samples_per_sec"];
const P50: &[&str] = &["latency_p50_ms"];
const P90: &[&str] = &["latency_p90_ms"];

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    moves: &'static [&'static str],
    on: &'static [&'static str],
    no_change_on: &'static [&'static str],
) -> PerLayer {
    PerLayer { name, unit, better, moves, on, no_change_on }
}

/// Deterministic funnel counts: they move only when the output changes.
const FUNNEL_MOVES: &[&str] = &["samples_per_sec"];

pub const PER_LAYER: [PerLayer; 30] = [
    layer("tabular.context_build_ms", "ms", "lower", RATE, WIDE, RAGGED),
    layer("templates.feasible_set_us", "us", "lower", RATE, RAGGED, WIDE),
    layer("program.instantiate_us", "us", "lower", RATE, RAGGED, NONE),
    layer("program.instantiate_calls", "count", "lower", RATE, RAGGED, NONE),
    layer("exec.execute_us", "us", "lower", RATE, BATCH, NONE),
    layer("exec.execute_calls", "count", "lower", RATE, BATCH, NONE),
    layer("nlgen.nl_gen_us", "us", "lower", RATE, RAGGED, WIDE),
    layer("nlgen.nl_gen_calls", "count", "lower", RATE, RAGGED, WIDE),
    layer(
        "textops.table_to_text_us",
        "us",
        "lower",
        &["samples_per_sec", "peak_rss_mb"],
        WIDE,
        NONE,
    ),
    layer("textops.text_to_table_us", "us", "lower", RATE, RAGGED, WIDE),
    layer("pipeline.untimed_share", "ratio", "lower", RATE, BATCH, NONE),
    layer("pipeline.attempted", "count", "lower", FUNNEL_MOVES, NONE, &WORKLOADS),
    layer("pipeline.accepted", "count", "higher", FUNNEL_MOVES, NONE, &WORKLOADS),
    layer("pipeline.prefiltered", "count", "higher", FUNNEL_MOVES, NONE, &WORKLOADS),
    layer("pipeline.acceptance_rate", "ratio", "higher", FUNNEL_MOVES, NONE, &WORKLOADS),
    layer("pipeline.discards", "count", "lower", FUNNEL_MOVES, NONE, &WORKLOADS),
    layer(
        "pipeline.allocs_per_sample",
        "count",
        "lower",
        &["samples_per_sec", "peak_rss_mb"],
        BATCH,
        NONE,
    ),
    layer("serve.queue_wait_p50_ms", "ms", "lower", P90, SERVE, BATCH),
    layer("serve.queue_wait_p90_ms", "ms", "lower", P90, SERVE, BATCH),
    layer(
        "serve.service_p50_ms",
        "ms",
        "lower",
        &["latency_p50_ms", "samples_per_sec"],
        SERVE,
        BATCH,
    ),
    layer("serve.wire_p50_ms", "ms", "lower", P50, SERVE, BATCH),
    layer("serve.client_encode_ms", "ms", "lower", P50, SERVE, BATCH),
    layer("serve.client_decode_ms", "ms", "lower", P50, SERVE, BATCH),
    layer(
        "serve.request_bytes",
        "B",
        "lower",
        &["latency_p50_ms", "samples_per_sec"],
        SERVE,
        BATCH,
    ),
    layer(
        "serve.response_bytes",
        "B",
        "lower",
        &["latency_p50_ms", "samples_per_sec"],
        SERVE,
        BATCH,
    ),
    layer("serve.rejections", "count", "lower", P90, SERVE, NONE),
    layer("serve.errors", "count", "lower", P90, SERVE, NONE),
    layer("serve.pool_hit_rate", "ratio", "higher", P90, SERVE, NONE),
    layer("serve.stolen_share", "ratio", "lower", P90, SERVE, NONE),
    layer("trace.overhead_share", "ratio", "lower", NONE, NONE, NONE),
];

/// Unit of a registered metric.
pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .map(|m| (m.name, m.unit))
        .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
        .find(|(n, _)| *n == name)
        .map(|(_, u)| u)
}

/// `[A-Za-z0-9_.-]+`, starting with a letter or digit, at most 64 long.
pub fn is_valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    matches!(chars.next(), Some(c) if c.is_ascii_alphanumeric())
        && name.len() <= 64
        && name.chars().all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::Value;

    fn all_names() -> Vec<&'static str> {
        let mut names: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
        names.extend(PER_LAYER.iter().map(|m| m.name));
        names.extend(WORKLOADS);
        names
    }

    #[test]
    fn every_name_is_valid_and_used_once() {
        let names = all_names();
        for n in &names {
            assert!(is_valid_name(n), "bad name {n}");
        }
        let mut sorted = names.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), names.len(), "a name is used twice");
        assert!(!is_valid_name(".x") && !is_valid_name("a b") && !is_valid_name(""));
    }

    #[test]
    fn every_per_layer_metric_maps_to_end_to_end_metrics_and_workloads() {
        let e2e: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
        for m in &PER_LAYER {
            for target in m.moves {
                assert!(e2e.contains(target), "{} moves unknown {target}", m.name);
            }
            for w in m.on.iter().chain(m.no_change_on) {
                assert!(WORKLOADS.contains(w), "{} names unknown workload {w}", m.name);
            }
            assert!(!m.on.iter().any(|w| m.no_change_on.contains(w)), "{} contradicts", m.name);
            // Only the overhead estimate and the exact funnel counts move
            // nothing on a workload of their own.
            if m.name != "trace.overhead_share" && !m.name.starts_with("pipeline.") {
                assert!(!m.moves.is_empty() && !m.on.is_empty(), "{} maps nowhere", m.name);
            }
        }
    }

    fn field<'a>(v: &'a Value, key: &str) -> &'a Value {
        match v {
            Value::Obj(fields) => &fields.iter().find(|(k, _)| k == key).expect(key).1,
            _ => panic!("not an object"),
        }
    }

    fn str_of(v: &Value) -> &str {
        match v {
            Value::Str(s) => s,
            _ => panic!("not a string"),
        }
    }

    #[test]
    fn benchmark_json_mirrors_the_registry() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let doc = serde_json::parse_value(&text).expect("BENCHMARK.json parses");
        let listed = |key: &str| -> Vec<(String, String, String)> {
            match field(&doc, key) {
                Value::Arr(items) => items
                    .iter()
                    .map(|m| {
                        (
                            str_of(field(m, "name")).to_string(),
                            str_of(field(m, "unit")).to_string(),
                            str_of(field(m, "better")).to_string(),
                        )
                    })
                    .collect(),
                _ => panic!("{key} is not a list"),
            }
        };
        let want =
            |it: &mut dyn Iterator<Item = (&str, &str, &str)>| -> Vec<(String, String, String)> {
                it.map(|(n, u, b)| (n.to_string(), u.to_string(), b.to_string())).collect()
            };
        assert_eq!(
            listed("end_to_end"),
            want(&mut END_TO_END.iter().map(|m| (m.name, m.unit, m.better)))
        );
        assert_eq!(
            listed("per_layer"),
            want(&mut PER_LAYER.iter().map(|m| (m.name, m.unit, m.better)))
        );
        let workloads: Vec<String> = match field(&doc, "workloads") {
            Value::Arr(items) => {
                items.iter().map(|w| str_of(field(w, "name")).to_string()).collect()
            }
            _ => panic!("workloads is not a list"),
        };
        assert_eq!(workloads, WORKLOADS);
    }
}
