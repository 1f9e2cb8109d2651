//! The per-layer ledger of the traced run.
//!
//! A generation call is spanned from the outside and its report's
//! `instantiate` / `execute` / `nl_gen` timers are read back. The layers
//! the report does not time are timed here by calling their public
//! functions on the same inputs, outside the generation span, as often as
//! the pipeline calls them per input: `ExecContext::new` and
//! `TemplateBank::feasible_set` once per non-degenerate input (plus one
//! feasible set per expanded table), `textops::text_to_table` once per
//! paragraph, and `textops::table_to_text` on split-eligible rows. The
//! untimed share is the generation wall time none of these cover; the
//! `table_to_text` total is an estimate (mean cost times accepted split
//! samples), so the share is one too.

use crate::alloc;
use crate::trace::Tracer;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;
use tabular::ExecContext;
use uctr::{PipelineReport, Sample, TableWithContext, TemplateBank};

/// Attempts per table per source in the stock configs: the most split
/// attempts the pipeline makes per input.
const SPLIT_ROWS_PER_INPUT: usize = 8;

#[derive(Default, Clone, Debug)]
pub struct Ledger {
    pub passes: u64,
    pub gen_ns: u64,
    pub samples: u64,
    pub allocs: u64,
    pub ctx: (u64, u64),
    pub feasible: (u64, u64),
    pub table_to_text: (u64, u64),
    pub text_to_table: (u64, u64),
    pub split_accepted: u64,
    pub instantiate: (u64, u64),
    pub execute: (u64, u64),
    pub nl_gen: (u64, u64),
    pub funnel: Funnel,
}

/// Deterministic per-pass funnel counts, summed over a pass's calls.
#[derive(Default, Clone, Debug, PartialEq)]
pub struct Funnel {
    pub attempted: u64,
    pub accepted: u64,
    pub prefiltered: u64,
    pub discards: u64,
}

impl Funnel {
    pub fn add(&mut self, r: &PipelineReport) {
        self.attempted += r.attempted();
        self.accepted += r.accepted();
        self.prefiltered += r.prefiltered();
        self.discards += r.kinds.iter().flat_map(|k| &k.discards).map(|d| d.count).sum::<u64>();
    }
}

fn timer(r: &PipelineReport, name: &str) -> (u64, u64) {
    r.timing(name).map_or((0, 0), |t| (t.total_ns, t.count))
}

fn add(acc: &mut (u64, u64), (ns, n): (u64, u64)) {
    acc.0 += ns;
    acc.1 += n;
}

fn mean(acc: (u64, u64)) -> f64 {
    if acc.1 == 0 {
        0.0
    } else {
        acc.0 as f64 / acc.1 as f64
    }
}

impl Ledger {
    /// Runs one generation call under a span and books its report;
    /// returns the call's output and wall time in ns.
    pub fn generate(
        &mut self,
        tracer: &mut Tracer,
        id: u64,
        parent: Option<usize>,
        run: impl FnOnce() -> (Vec<Sample>, PipelineReport),
    ) -> ((Vec<Sample>, PipelineReport), u64) {
        let span = tracer.open("generate", id, parent);
        // Count inside the span: the tracer's own pushes are not the call's.
        let allocs_before = alloc::count();
        let (samples, report) = run();
        self.allocs += alloc::count() - allocs_before;
        let ns = tracer.close(span);
        self.gen_ns += ns;
        self.samples += samples.len() as u64;
        add(&mut self.instantiate, timer(&report, "instantiate"));
        add(&mut self.execute, timer(&report, "execute"));
        add(&mut self.nl_gen, timer(&report, "nl_gen"));
        self.split_accepted += report
            .sources
            .iter()
            .filter(|s| s.source == "table_split")
            .map(|s| s.accepted)
            .sum::<u64>();
        ((samples, report), ns)
    }

    /// Times the layers the report does not cover, once per call the
    /// pipeline makes on `inputs`.
    pub fn direct_calls(
        &mut self,
        tracer: &mut Tracer,
        id: u64,
        parent: Option<usize>,
        bank: &TemplateBank,
        inputs: &[TableWithContext],
    ) {
        let mut rng = StdRng::seed_from_u64(id);
        for input in inputs {
            let table = &input.table;
            if table.n_rows() == 0 || table.n_cols() == 0 {
                continue;
            }
            let (ctx, ns) =
                tracer.span("tabular.context_build", id, parent, || ExecContext::new(table));
            add(&mut self.ctx, (ns, 1));
            let (_, ns) = tracer.span("templates.feasible_set", id, parent, || {
                black_box(bank.feasible_set(&ctx));
            });
            add(&mut self.feasible, (ns, 1));
            if let Some(paragraph) = &input.paragraph {
                let (expanded, ns) = tracer.span("textops.text_to_table", id, parent, || {
                    textops::text_to_table(table, paragraph)
                });
                add(&mut self.text_to_table, (ns, 1));
                if let Some(e) = expanded {
                    let ectx = ctx.with_row_appended(table, &e.expanded);
                    let (_, ns) = tracer.span("templates.feasible_set", id, parent, || {
                        black_box(bank.feasible_set(&ectx));
                    });
                    add(&mut self.feasible, (ns, 1));
                }
            }
            // The split source needs three rows; it verbalizes one
            // highlighted row per attempt.
            if table.n_rows() >= 3 {
                for k in 0..SPLIT_ROWS_PER_INPUT {
                    let row = k * table.n_rows() / SPLIT_ROWS_PER_INPUT;
                    let (_, ns) = tracer.span("textops.table_to_text", id, parent, || {
                        black_box(textops::table_to_text(table, row, &mut rng));
                    });
                    add(&mut self.table_to_text, (ns, 1));
                }
            }
        }
    }

    /// Estimated wall time of each timed layer per pass, in ns.
    fn layer_totals(&self) -> [(&'static str, f64); 7] {
        let per_pass = |total: u64| total as f64 / self.passes.max(1) as f64;
        [
            ("context_build", per_pass(self.ctx.0)),
            ("feasible_set", per_pass(self.feasible.0)),
            ("instantiate", per_pass(self.instantiate.0)),
            ("execute", per_pass(self.execute.0)),
            ("nl_gen", per_pass(self.nl_gen.0)),
            (
                "table_to_text",
                mean(self.table_to_text) * self.split_accepted as f64 / self.passes.max(1) as f64,
            ),
            ("text_to_table", per_pass(self.text_to_table.0)),
        ]
    }

    /// Each timed layer's share of generation wall time, then the untimed rest.
    pub fn shares(&self) -> Vec<(&'static str, f64)> {
        let wall = self.gen_ns as f64 / self.passes.max(1) as f64;
        let mut out: Vec<(&'static str, f64)> =
            self.layer_totals().iter().map(|&(n, ns)| (n, ns / wall.max(1.0))).collect();
        let covered: f64 = out.iter().map(|(_, s)| s).sum();
        out.push(("untimed", 1.0 - covered));
        out
    }

    pub fn metrics(&self) -> Vec<(&'static str, f64)> {
        let passes = self.passes.max(1) as f64;
        let per_pass = |n: u64| n as f64 / passes;
        let f = &self.funnel;
        vec![
            ("tabular.context_build_ms", mean(self.ctx) / 1e6),
            ("templates.feasible_set_us", mean(self.feasible) / 1e3),
            ("program.instantiate_us", mean(self.instantiate) / 1e3),
            ("program.instantiate_calls", per_pass(self.instantiate.1)),
            ("exec.execute_us", mean(self.execute) / 1e3),
            ("exec.execute_calls", per_pass(self.execute.1)),
            ("nlgen.nl_gen_us", mean(self.nl_gen) / 1e3),
            ("nlgen.nl_gen_calls", per_pass(self.nl_gen.1)),
            ("textops.table_to_text_us", mean(self.table_to_text) / 1e3),
            ("textops.text_to_table_us", mean(self.text_to_table) / 1e3),
            ("pipeline.untimed_share", self.shares().last().map_or(0.0, |s| s.1)),
            ("pipeline.attempted", f.attempted as f64),
            ("pipeline.accepted", f.accepted as f64),
            ("pipeline.prefiltered", f.prefiltered as f64),
            (
                "pipeline.acceptance_rate",
                if f.attempted == 0 { 0.0 } else { f.accepted as f64 / f.attempted as f64 },
            ),
            ("pipeline.discards", f.discards as f64),
            ("pipeline.allocs_per_sample", self.allocs as f64 / self.samples.max(1) as f64),
        ]
    }
}
