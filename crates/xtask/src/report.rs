//! Machine-readable (JSON) and job-summary (markdown) report emitters.

use serde::Value;

use crate::lint::LintOutcome;
use crate::ratchet::Diff;
use crate::rules::ALL_RULES;

/// Ratchet comparison outcome carried into the report.
pub struct RatchetStatus {
    pub path: String,
    pub regressions: Vec<Diff>,
    pub stale: Vec<Diff>,
}

/// Builds the full JSON report (stable key order).
pub fn json_report(outcome: &LintOutcome, ratchet: Option<&RatchetStatus>) -> String {
    let rules = Value::Obj(
        ALL_RULES
            .iter()
            .map(|r| {
                (
                    r.id.name().to_string(),
                    Value::Obj(vec![
                        ("severity".to_string(), Value::Str(r.severity.name().to_string())),
                        ("summary".to_string(), Value::Str(r.summary.to_string())),
                    ]),
                )
            })
            .collect(),
    );
    let counts = Value::Obj(
        outcome
            .counts
            .iter()
            .map(|(krate, per_rule)| {
                (
                    krate.clone(),
                    Value::Obj(
                        per_rule.iter().map(|(rule, &n)| (rule.clone(), Value::Int(n))).collect(),
                    ),
                )
            })
            .collect(),
    );
    let violations = Value::Arr(
        outcome
            .violations
            .iter()
            .map(|v| {
                let mut fields = vec![
                    ("rule".to_string(), Value::Str(v.rule.name().to_string())),
                    ("severity".to_string(), Value::Str(v.severity.name().to_string())),
                    ("crate".to_string(), Value::Str(v.krate.clone())),
                    ("path".to_string(), Value::Str(v.path.clone())),
                    ("line".to_string(), Value::Int(v.line as i64)),
                    ("col".to_string(), Value::Int(v.col as i64)),
                    ("matched".to_string(), Value::Str(v.matched.clone())),
                    ("in_test".to_string(), Value::Bool(v.in_test)),
                    ("excerpt".to_string(), Value::Str(v.excerpt.clone())),
                ];
                if let Some(just) = &v.allowlisted {
                    fields.push(("allowlisted".to_string(), Value::Bool(true)));
                    fields.push(("justification".to_string(), Value::Str(just.clone())));
                }
                Value::Obj(fields)
            })
            .collect(),
    );
    let mut root = vec![
        ("tool".to_string(), Value::Str("xtask lint".to_string())),
        ("schema_version".to_string(), Value::Int(1)),
        ("rules".to_string(), rules),
        ("counts".to_string(), counts),
        ("active_violations".to_string(), Value::Int(outcome.active_total())),
        ("allowlisted_violations".to_string(), Value::Int(outcome.allowlisted_total())),
        ("violations".to_string(), violations),
    ];
    if let Some(status) = ratchet {
        root.push((
            "ratchet".to_string(),
            Value::Obj(vec![
                ("path".to_string(), Value::Str(status.path.clone())),
                (
                    "status".to_string(),
                    Value::Str(
                        if !status.regressions.is_empty() {
                            "regressions"
                        } else if !status.stale.is_empty() {
                            "stale"
                        } else {
                            "ok"
                        }
                        .to_string(),
                    ),
                ),
                ("regressions".to_string(), diffs_json(&status.regressions)),
                ("stale".to_string(), diffs_json(&status.stale)),
            ]),
        ));
    }
    let mut text =
        serde_json::to_string_pretty(&Value::Obj(root)).expect("report JSON always renders");
    text.push('\n');
    text
}

fn diffs_json(diffs: &[Diff]) -> Value {
    Value::Arr(
        diffs
            .iter()
            .map(|d| {
                Value::Obj(vec![
                    ("crate".to_string(), Value::Str(d.krate.clone())),
                    ("rule".to_string(), Value::Str(d.rule.clone())),
                    ("recorded".to_string(), Value::Int(d.recorded)),
                    ("current".to_string(), Value::Int(d.current)),
                ])
            })
            .collect(),
    )
}

/// Renders the per-crate rule-count table for `$GITHUB_STEP_SUMMARY`.
pub fn markdown_summary(outcome: &LintOutcome, ratchet: Option<&RatchetStatus>) -> String {
    let rule_names: Vec<&str> = ALL_RULES.iter().map(|r| r.id.name()).collect();
    let mut md = String::from("## xtask lint — determinism & panic-discipline audit\n\n");
    md.push_str("| crate |");
    for r in &rule_names {
        md.push_str(&format!(" {r} |"));
    }
    md.push_str(" total |\n|---|");
    for _ in &rule_names {
        md.push_str("---:|");
    }
    md.push_str("---:|\n");
    for (krate, per_rule) in &outcome.counts {
        let total: i64 = per_rule.values().sum();
        md.push_str(&format!("| `{krate}` |"));
        for r in &rule_names {
            md.push_str(&format!(" {} |", per_rule.get(*r).copied().unwrap_or(0)));
        }
        md.push_str(&format!(" {total} |\n"));
    }
    md.push_str(&format!(
        "\n{} active violation(s), {} allowlisted.\n",
        outcome.active_total(),
        outcome.allowlisted_total()
    ));
    if let Some(status) = ratchet {
        if status.regressions.is_empty() && status.stale.is_empty() {
            md.push_str(&format!("\nRatchet `{}`: **ok** — counts match exactly.\n", status.path));
        } else {
            md.push_str(&format!("\nRatchet `{}`: **FAILED**\n\n", status.path));
            for d in &status.regressions {
                md.push_str(&format!(
                    "- regression: `{}`/{} rose {} → {}\n",
                    d.krate, d.rule, d.recorded, d.current
                ));
            }
            for d in &status.stale {
                md.push_str(&format!(
                    "- stale: `{}`/{} fell {} → {} (re-run with --write-ratchet)\n",
                    d.krate, d.rule, d.recorded, d.current
                ));
            }
        }
    }
    md
}
