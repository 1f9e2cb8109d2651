//! `perfbench`: the repository benchmark. Three seeded workloads drive
//! `uctr`'s public API (the batch `UctrPipeline` and the `uctr-served`
//! daemon over TCP), check every output, and report end-to-end metrics,
//! or, in a separate traced run, per-layer metrics. See `README.md`.

pub mod alloc;
pub mod batch;
pub mod host;
pub mod inputs;
pub mod ledger;
pub mod metrics;
pub mod serve;
pub mod stats;
pub mod trace;

use ledger::Ledger;
use stats::{beyond, nearest_rank};

/// Latencies a percentile must have beyond it to be reported.
pub const MIN_BEYOND_P90: usize = 10;

/// Timed operations of one measured window.
#[derive(Default, Debug)]
pub struct Timed {
    /// Latencies, scaled to the reference host speed where a probe ran.
    pub latencies_ms: Vec<f64>,
    /// Seconds the rate is taken over, scaled like the latencies.
    pub secs: f64,
    /// The same seconds unscaled.
    pub raw_secs: f64,
    pub samples: u64,
    pub attempted: u64,
    pub failed: u64,
}

impl Timed {
    /// Books one call of `secs` wall seconds, scaled by `scale`.
    pub fn book(&mut self, secs: f64, scale: f64, samples: u64, ok: bool) {
        self.latencies_ms.push(secs * scale * 1e3);
        self.secs += secs * scale;
        self.raw_secs += secs;
        self.samples += samples;
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    /// Accepted samples per (scaled) second.
    pub fn rate(&self) -> f64 {
        self.samples as f64 / self.secs.max(1e-9)
    }

    /// Accepted samples per unscaled wall second.
    pub fn raw_rate(&self) -> f64 {
        self.samples as f64 / self.raw_secs.max(1e-9)
    }
}

/// Everything one run reports.
#[derive(Default, Debug)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(&'static str, f64)>,
    /// Diagnostics printed before the result line.
    pub notes: Vec<String>,
    /// Set when the run cannot report a result.
    pub error: Option<String>,
}

impl Outcome {
    pub fn metric(&mut self, name: &'static str, value: f64) {
        self.metrics.push((name, value));
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    pub fn fail(&mut self, why: String) {
        self.error.get_or_insert(why);
    }

    pub fn absorb(&mut self, t: &Timed) {
        self.attempted += t.attempted;
        self.failed += t.failed;
        self.note(format!("operations: {} attempted, {} failed", t.attempted, t.failed));
    }

    /// `latency_p50_ms` and `latency_p90_ms` over `t`, with their counts.
    /// Fails the run when too few latencies lie beyond the p90.
    pub fn latency(&mut self, t: &Timed) {
        let mut sorted = t.latencies_ms.clone();
        sorted.sort_by(f64::total_cmp);
        let (p50, p90) = (nearest_rank(&sorted, 0.5), nearest_rank(&sorted, 0.9));
        let tail = beyond(&sorted, 0.9);
        self.note(format!("latency: {} samples, {tail} beyond the p90", sorted.len()));
        if tail < MIN_BEYOND_P90 {
            self.fail(format!(
                "only {tail} of {} latencies lie beyond the p90 (need {MIN_BEYOND_P90})",
                sorted.len()
            ));
        }
        self.metric("latency_p50_ms", p50.unwrap_or(0.0));
        self.metric("latency_p90_ms", p90.unwrap_or(0.0));
    }

    pub fn ledger(&mut self, ledger: &Ledger) {
        self.metrics.extend(ledger.metrics());
        let shares: Vec<String> =
            ledger.shares().iter().map(|(n, s)| format!("{n} {:.1}%", s * 100.0)).collect();
        self.note(format!("layer shares of generation wall time: {}", shares.join(", ")));
    }

    /// The serving layer is bypassed by the batch workloads.
    pub fn serve_layers_absent(&mut self) {
        for m in metrics::PER_LAYER.iter().filter(|m| m.name.starts_with("serve.")) {
            self.metric(m.name, 0.0);
        }
    }

    pub fn note_host(&mut self, before: host::CpuTimes) {
        self.note(format!(
            "host: nproc {}, {} cpus online, steal share {:.4} over the run",
            host::nproc(),
            host::cpus_online().map_or("?".to_string(), |n| n.to_string()),
            host::steal_share(before, host::cpu_times()),
        ));
    }

    /// Checks the metric set against the registry for this mode.
    pub fn check_names(&mut self, traced: bool) {
        let want: Vec<&str> = if traced {
            metrics::PER_LAYER.iter().map(|m| m.name).collect()
        } else {
            metrics::END_TO_END.iter().map(|m| m.name).collect()
        };
        let mut got: Vec<&str> = self.metrics.iter().map(|m| m.0).collect();
        got.sort_unstable();
        let mut sorted_want = want.clone();
        sorted_want.sort_unstable();
        if got != sorted_want {
            self.fail(format!("metric set {got:?} differs from the registry {sorted_want:?}"));
        }
        if let Some((name, v)) = self.metrics.iter().find(|(_, v)| !v.is_finite()) {
            self.fail(format!("metric {name} is not finite: {v}"));
        }
        if !traced {
            if let Some((name, _)) = self.metrics.iter().find(|(_, v)| *v <= 0.0) {
                self.fail(format!("end-to-end metric {name} is not positive"));
            }
        }
        // Report in registry order.
        self.metrics.sort_by_key(|(n, _)| want.iter().position(|w| w == n));
    }

    /// The result line: one JSON object.
    pub fn result_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, v)| {
                let unit = metrics::unit_of(name).unwrap_or("count");
                format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_is_json_with_the_four_keys() {
        let mut o = Outcome { attempted: 3, failed: 1, ..Outcome::default() };
        o.metric("setup_s", 0.00125);
        let v = serde_json::parse_value(&o.result_json()).expect("valid JSON");
        let serde_json::Value::Obj(fields) = v else { panic!("not an object") };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(fields[0].1, serde_json::Value::Bool(false));
        assert!(o.result_json().contains("\"setup_s\": {\"value\": 0.00125, \"unit\": \"s\"}"));
    }

    #[test]
    fn latency_fails_the_run_with_a_thin_tail() {
        let mut o = Outcome::default();
        o.latency(&Timed { latencies_ms: (1..=50).map(f64::from).collect(), ..Timed::default() });
        assert!(o.error.is_some());
        let mut o = Outcome::default();
        o.latency(&Timed { latencies_ms: (1..=100).map(f64::from).collect(), ..Timed::default() });
        assert!(o.error.is_none());
        assert_eq!(o.metrics, [("latency_p50_ms", 50.0), ("latency_p90_ms", 90.0)]);
    }
}
