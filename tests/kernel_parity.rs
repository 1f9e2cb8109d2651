//! Executor parity property tests.
//!
//! Each DSL has one executor: the context-plus-scratch path
//! (`try_instantiate_with` and `execute_with` / `evaluate_with` /
//! `evaluate_truth_with`, which read `ExecContext` caches and
//! `KernelScratch` buffers). This suite pins three contracts on every
//! builtin and mined template over the kernel zoo (`support/zoo.rs`) —
//! non-finite spellings and mixed-type columns (the cached numeric parse
//! must classify cells exactly like `Value::as_number`), filters that keep
//! zero rows, all-null columns, duplicate keys (tie handling in argmax/nth
//! kernels), 1-row tables, and a table whose cells sit on the edges of
//! `Value::loosely_equals` — across 32 RNG seeds per (template, table)
//! pair:
//!
//! * **SQL against the reference interpreter.** Compiled SQL must return
//!   exactly what the per-cell interpreter in `support/sql_reference.rs`
//!   returns, on every instantiated statement. The same loose-equality
//!   cells, at 2.4k rows, drive the compiled dedups (DISTINCT, GROUP BY,
//!   `SELECT DISTINCT`) against the interpreter.
//! * **Warm scratch against fresh scratch.** Instantiating (and executing)
//!   with one scratch reused across every template and seed on a table
//!   must give what a fresh scratch and a freshly built context give, and
//!   consume the same RNG draws: a buffer that leaks state between calls
//!   would break the pipeline's golden digests.
//! * **Arg kernels against the stable sort.** `argmax_pairs` /
//!   `argmin_pairs` / `nth_arg_keys`, which the logical-form evaluator
//!   uses on all-number columns, must pick the row the stable
//!   `Value`-keyed sort picks on every other column.
//!
//! `LooseIndex` is also checked against the pairwise scan it replaces.

// Integration-test helpers run outside #[cfg(test)], so the clippy.toml test exemption does not reach them.
#![allow(clippy::unwrap_used)]

mod support {
    pub mod sql_reference;
    pub mod zoo;
}

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use support::sql_reference;
use support::zoo::{kernel_zoo, loose_cell, loose_table};
use tabular::{kernels, ExecContext, LooseIndex, Table, Value};
use uctr::{AnyTemplate, TemplateBank};

const SEEDS: u64 = 32;

/// Debug renderings compare NaN-safe ("NaN" == "NaN") and cover every field
/// of the output, mirroring how the golden digests hash samples.
fn dbg<T: std::fmt::Debug>(v: &T) -> String {
    format!("{v:?}")
}

/// Scratch buffers reused across every template and seed on one table.
#[derive(Default)]
struct Warm {
    sql: sqlexec::SqlScratch,
    lf: logicforms::LfScratch,
    ae: arithexpr::AeScratch,
}

fn check_sql(
    t: &sqlexec::SqlTemplate,
    table: &Table,
    ctx: &ExecContext,
    seed: u64,
    warm: &mut Warm,
) {
    let mut fresh_rng = StdRng::seed_from_u64(seed);
    let mut warm_rng = StdRng::seed_from_u64(seed);
    let fresh = t.try_instantiate_with(
        table,
        &ExecContext::new(table),
        &mut fresh_rng,
        &mut sqlexec::SqlScratch::default(),
    );
    let reused = t.try_instantiate_with(table, ctx, &mut warm_rng, &mut warm.sql);
    let sig = t.signature();
    assert_eq!(
        fresh_rng.gen::<u64>(),
        warm_rng.gen::<u64>(),
        "sql `{sig}` on `{}` seed {seed}: RNG draw streams diverged",
        table.title
    );
    assert_eq!(
        dbg(&fresh),
        dbg(&reused),
        "sql `{sig}` on `{}` seed {seed}: instantiation diverged",
        table.title
    );
    if let Ok(stmt) = fresh {
        let reference = sql_reference::execute(&stmt, table);
        let compiled = sqlexec::execute_with(&stmt, table, &mut warm.sql.kern);
        assert_eq!(
            dbg(&reference),
            dbg(&compiled),
            "sql `{sig}` on `{}` seed {seed}: execution diverged for `{stmt}`",
            table.title
        );
    }
}

fn check_logic(
    t: &logicforms::LfTemplate,
    table: &Table,
    ctx: &ExecContext,
    seed: u64,
    warm: &mut Warm,
) {
    let sig = t.signature();
    for desired in [false, true] {
        let mut fresh_rng = StdRng::seed_from_u64(seed);
        let mut warm_rng = StdRng::seed_from_u64(seed);
        let fresh = t.try_instantiate_with(
            table,
            &ExecContext::new(table),
            &mut fresh_rng,
            desired,
            &mut logicforms::LfScratch::default(),
        );
        let reused = t.try_instantiate_with(table, ctx, &mut warm_rng, desired, &mut warm.lf);
        assert_eq!(
            fresh_rng.gen::<u64>(),
            warm_rng.gen::<u64>(),
            "logic `{sig}` on `{}` seed {seed}: RNG draw streams diverged",
            table.title
        );
        assert_eq!(
            dbg(&fresh),
            dbg(&reused),
            "logic `{sig}` on `{}` seed {seed}: instantiation diverged",
            table.title
        );
        if let Ok(claim) = fresh {
            let fresh_out = logicforms::evaluate(&claim.expr, table);
            let warm_out = logicforms::evaluate_with(&claim.expr, table, ctx, &mut warm.lf.kern);
            assert_eq!(
                dbg(&fresh_out),
                dbg(&warm_out),
                "logic `{sig}` on `{}` seed {seed}: evaluation diverged for `{}`",
                table.title,
                claim.expr
            );
            let fresh_truth = logicforms::evaluate_truth(&claim.expr, table);
            let warm_truth =
                logicforms::evaluate_truth_with(&claim.expr, table, ctx, &mut warm.lf.kern);
            assert_eq!(
                dbg(&fresh_truth),
                dbg(&warm_truth),
                "logic `{sig}` on `{}` seed {seed}: truth diverged for `{}`",
                table.title,
                claim.expr
            );
        }
    }
}

fn check_arith(
    t: &arithexpr::AeTemplate,
    table: &Table,
    ctx: &ExecContext,
    seed: u64,
    warm: &mut Warm,
) {
    let mut fresh_rng = StdRng::seed_from_u64(seed);
    let mut warm_rng = StdRng::seed_from_u64(seed);
    // Arithmetic instantiation executes internally, so this one comparison
    // covers both the sampling and the execution buffers.
    let fresh = t.try_instantiate_with(
        table,
        &ExecContext::new(table),
        &mut fresh_rng,
        &mut arithexpr::AeScratch::default(),
    );
    let reused = t.try_instantiate_with(table, ctx, &mut warm_rng, &mut warm.ae);
    let sig = t.signature();
    assert_eq!(
        fresh_rng.gen::<u64>(),
        warm_rng.gen::<u64>(),
        "arith `{sig}` on `{}` seed {seed}: RNG draw streams diverged",
        table.title
    );
    assert_eq!(
        dbg(&fresh),
        dbg(&reused),
        "arith `{sig}` on `{}` seed {seed}: instantiation diverged",
        table.title
    );
    if let Ok(inst) = fresh {
        let fresh_out = arithexpr::execute(&inst.program, table);
        let warm_out = arithexpr::execute_with(&inst.program, table, ctx, &mut warm.ae.kern);
        assert_eq!(
            dbg(&fresh_out),
            dbg(&warm_out),
            "arith `{sig}` on `{}` seed {seed}: re-execution diverged for `{}`",
            table.title,
            inst.program
        );
    }
}

fn sweep(bank: &TemplateBank, tables: &[Table], seeds: u64) {
    for table in tables {
        let ctx = ExecContext::new(table);
        let mut warm = Warm::default();
        for any in bank.templates() {
            for seed in 0..seeds {
                let seed = seed * 6151 + 29;
                match any {
                    AnyTemplate::Sql(t) => check_sql(t, table, &ctx, seed, &mut warm),
                    AnyTemplate::Logic(t) => check_logic(t, table, &ctx, seed, &mut warm),
                    AnyTemplate::Arith(t) => check_arith(t, table, &ctx, seed, &mut warm),
                }
            }
        }
    }
}

#[test]
fn builtin_templates_kernel_scalar_parity() {
    sweep(&TemplateBank::builtin(), &kernel_zoo(), SEEDS);
}

#[test]
fn mined_templates_kernel_scalar_parity() {
    sweep(&uctr::mined_bank(uctr::mining::SYNTHETIC_SEED), &kernel_zoo(), SEEDS);
}

/// Statements that reach every first-occurrence dedup of the compiled SQL
/// path: DISTINCT aggregates, GROUP BY keys and `SELECT DISTINCT` rows. No
/// bank template uses the last two, so the sweep above cannot reach them.
const DEDUP_SQL: &[&str] = &[
    "select count ( distinct [key] ) from w",
    "select sum ( distinct [key] ) from w",
    "select avg ( distinct [pts] ) from w",
    "select min ( distinct [key] ) from w",
    "select max ( distinct [key] ) from w",
    "select count ( distinct [key] ) from w where [pts] > 3",
    "select count ( distinct [key] ) from w order by [pts] desc limit 20",
    "select distinct [key] from w",
    "select distinct [grp] from w",
    "select distinct [key] , [grp] from w",
    "select distinct [key] from w order by [key] desc limit 50",
    "select [key] , count ( * ) from w group by [key]",
    "select [key] , sum ( [pts] ) from w group by [key]",
    "select [grp] , count ( distinct [key] ) from w group by [grp]",
    "select [grp] , max ( [key] ) from w group by [grp] limit 2",
];

fn check_dedup_sql(table: &Table) {
    let mut kern = tabular::KernelScratch::default();
    for sql in DEDUP_SQL {
        let stmt = sqlexec::parse(sql).unwrap();
        let reference = sql_reference::execute(&stmt, table);
        let compiled = sqlexec::execute_with(&stmt, table, &mut kern);
        assert_eq!(dbg(&reference), dbg(&compiled), "`{sql}` on `{}` diverged", table.title);
    }
}

#[test]
fn compiled_dedup_matches_interpreter() {
    for table in kernel_zoo().iter().filter(|t| t.column_index("key").is_some()) {
        check_dedup_sql(table);
    }
    let wide = loose_table(2400, 11);
    assert!(wide.distinct(1).len() > 1000, "the key column must be mostly distinct");
    check_dedup_sql(&wide);
}

/// The reference the index replaces: first kept value that loosely equals.
fn pairwise_class(kept: &[&Value], v: &Value) -> Option<usize> {
    kept.iter().position(|k| k.loosely_equals(v))
}

#[test]
fn loose_index_matches_pairwise_scan() {
    let mut rng = StdRng::seed_from_u64(0x1005e);
    for case in 0..64 {
        let n = rng.gen_range(1..300);
        let values: Vec<Value> = (0..n)
            .map(|i| match rng.gen_range(0..4) {
                // Raw epsilon-scale jitter around a few centres, on top of
                // the parsed adversarial spellings.
                0 => {
                    let centre: f64 = [0.0, 1.0, 100.0, 1e6, -3.5][rng.gen_range(0..5)];
                    let jitter = rng.gen_range(-3..=3) as f64 * 4e-7;
                    Value::Number(centre + jitter * centre.abs().max(1.0))
                }
                _ => Value::parse(&loose_cell(&mut rng, i, 40)),
            })
            .collect();
        let mut index = LooseIndex::default();
        let mut kept: Vec<&Value> = Vec::new();
        for v in &values {
            let expected = pairwise_class(&kept, v);
            let (class, fresh) = index.insert(v);
            assert_eq!(fresh, expected.is_none(), "case {case}: insert {v:?}");
            assert_eq!(class, expected.unwrap_or(kept.len()), "case {case}: class of {v:?}");
            if fresh {
                kept.push(v);
            }
        }
    }
}

/// The row at 1-based position `n` of a stable `Value`-keyed sort of the
/// non-null cells: the logical-form evaluator's rule for `argmax`,
/// `argmin` and `nth_arg*` on columns that are not all numbers.
fn stable_sort_pick(cells: &[Value], n: usize, descending: bool) -> Option<usize> {
    let mut keyed: Vec<(&Value, usize)> =
        cells.iter().enumerate().filter(|(_, v)| !v.is_null()).map(|(ri, v)| (v, ri)).collect();
    keyed.sort_by(|a, b| if descending { b.0.cmp(a.0) } else { a.0.cmp(b.0) });
    keyed.get(n.checked_sub(1)?).map(|&(_, ri)| ri)
}

/// The evaluator's pick for one arg-superlative form over column `x`.
fn evaluated_pick(form: &str, table: &Table, ctx: &ExecContext) -> Option<usize> {
    let expr = logicforms::parse(form).unwrap();
    let mut kern = tabular::KernelScratch::default();
    match logicforms::evaluate_with(&expr, table, ctx, &mut kern) {
        Ok(out) => match out.value {
            logicforms::LfValue::Row(r) => Some(r),
            other => panic!("`{form}` gave {other:?}"),
        },
        Err(logicforms::LfError::Empty { .. }) => None,
        Err(e) => panic!("`{form}` failed: {e}"),
    }
}

#[test]
fn arg_kernels_match_stable_value_sort() {
    // NaN cannot be compared with the stable sort (`Value::cmp` calls it
    // equal to every number, which is not an order), and no cell holds it:
    // the zoo's non-finite spellings have no numeric reading at all.
    for spelling in ["NaN", "nan", "inf", "-inf"] {
        assert_eq!(Value::parse(spelling).as_number(), None, "`{spelling}` must stay non-numeric");
    }
    let mut rng = StdRng::seed_from_u64(0xA46);
    let mut keys = Vec::new();
    for case in 0..400 {
        let rows = rng.gen_range(1..24);
        // Readings on a coarse grid (many ties), both zeros, nulls, and the
        // infinities `f64` parses `inf` / `-inf` to.
        let spellings: Vec<&str> = (0..rows)
            .map(|_| {
                ["", "0", "-0", "1.5", "-1.5", "2", "2", "-3", "inf", "-inf"][rng.gen_range(0..10)]
            })
            .collect();
        let readings: Vec<Value> = spellings
            .iter()
            .map(|s| if s.is_empty() { Value::Null } else { Value::Number(s.parse().unwrap()) })
            .collect();
        let pairs =
            || readings.iter().enumerate().filter_map(|(ri, v)| v.as_number().map(|n| (ri, n)));
        assert_eq!(
            kernels::argmax_pairs(pairs()),
            stable_sort_pick(&readings, 1, true),
            "case {case}: argmax over {spellings:?}"
        );
        assert_eq!(
            kernels::argmin_pairs(pairs()),
            stable_sort_pick(&readings, 1, false),
            "case {case}: argmin over {spellings:?}"
        );
        for n in 0..=rows + 1 {
            for descending in [true, false] {
                keys.clear();
                keys.extend(pairs().map(|(ri, v)| (v, ri)));
                assert_eq!(
                    kernels::nth_arg_keys(&mut keys, n, descending),
                    stable_sort_pick(&readings, n, descending),
                    "case {case}: nth_arg n={n} descending={descending} over {spellings:?}"
                );
            }
        }

        // The same column as table cells (finite spellings only: the
        // infinities do not parse to numbers) through the evaluator, whose
        // all-number dispatch takes the kernels.
        let mut grid = vec![vec!["x"]];
        grid.extend(spellings.iter().map(|s| vec![if s.contains("inf") { "" } else { *s }]));
        let table = Table::from_strings("arg", &grid).unwrap();
        let ctx = ExecContext::new(&table);
        let cells = table.column_values(0);
        assert_eq!(ctx.all_number(0), cells.iter().any(|v| !v.is_null()), "case {case}");
        for (form, n, descending) in [
            ("argmax { all_rows ; x }".to_string(), 1, true),
            ("argmin { all_rows ; x }".to_string(), 1, false),
            (format!("nth_argmax {{ all_rows ; x ; {} }}", 1 + case % 3), 1 + case % 3, true),
            (format!("nth_argmin {{ all_rows ; x ; {} }}", 1 + case % 3), 1 + case % 3, false),
        ] {
            assert_eq!(
                evaluated_pick(&form, &table, &ctx),
                stable_sort_pick(&cells, n, descending),
                "case {case}: `{form}` over {spellings:?}"
            );
        }
    }
}
