//! Kernel / scalar parity property test.
//!
//! The compiled columnar paths (`try_instantiate_in_with` + the
//! `execute_in_with` / `evaluate_in` executors, which read `ExecContext`
//! caches and `KernelScratch` buffers) must be *result-identical* to the
//! per-cell reference interpreters (`try_instantiate` / `execute` /
//! `evaluate` with no context). This sweep pins that contract for every
//! builtin and mined template over a zoo built to stress the kernels where
//! they diverge first — non-finite and mixed-type columns (the cached
//! numeric parse must classify cells exactly like `Value::as_number`),
//! filters that keep zero rows, all-null columns, duplicate keys (tie
//! handling in argmax/nth kernels), 1-row tables, and a table whose cells
//! sit on the edges of `Value::loosely_equals` — across 32 RNG seeds per
//! (template, table) pair. The same loose-equality cells, at 2.4k rows,
//! drive the compiled SQL dedups (DISTINCT, GROUP BY, `SELECT DISTINCT`)
//! against the interpreter, and `LooseIndex` against the pairwise scan it
//! replaces.
//!
//! Both halves of each pair run from identically seeded RNGs, and after
//! the pair the streams must still coincide: the kernel path may not
//! consume a different number of draws than the scalar path even when both
//! fail (the pipeline's golden digests depend on draw-for-draw equality).

// Integration-test helpers run outside #[cfg(test)], so the clippy.toml test exemption does not reach them.
#![allow(clippy::unwrap_used)]

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tabular::{ExecContext, LooseIndex, Table, Value};
use uctr::{AnyTemplate, TemplateBank};

const SEEDS: u64 = 32;

/// Tables chosen to hit kernel edge cases, not to look like real data.
fn kernel_zoo() -> Vec<Table> {
    let grids: Vec<Vec<Vec<&str>>> = vec![
        // 1-row table: every "nth", "only", ordering and aggregate kernel
        // runs at its lower size bound.
        vec![vec!["name", "score", "rank"], vec!["Solo", "42", "1"]],
        // Mixed-type column: `score` holds numbers, text, and a null; the
        // kernel's cached parse and the interpreter's per-cell
        // `Value::as_number` must skip exactly the same cells.
        vec![
            vec!["name", "score", "note"],
            vec!["Ada", "10", "fast"],
            vec!["Bel", "n/a", "slow"],
            vec!["Cyd", "30.5", "steady"],
            vec!["Dee", "", "quiet"],
            vec!["Eli", "-7", "loud"],
        ],
        // Non-finite spellings: `nan`/`inf` do not survive `Value::parse`'s
        // is_finite filter, so the column is text to the type system even
        // though every cell *looks* numeric to a float parser.
        vec![
            vec!["name", "weird", "ok"],
            vec!["P", "NaN", "1"],
            vec!["Q", "inf", "2"],
            vec!["R", "-inf", "3"],
            vec!["S", "nan", "4"],
        ],
        // All-null numeric column and a constant column: aggregates over
        // empty gathers, and equality filters that keep everything or
        // nothing.
        vec![
            vec!["name", "empty", "constant"],
            vec!["A", "", "5"],
            vec!["B", "", "5"],
            vec!["C", "", "5"],
            vec!["D", "", "5"],
        ],
        // Duplicate keys: argmax/argmin/nth tie-breaking must pick the same
        // row on both paths.
        vec![
            vec!["name", "pts", "group"],
            vec!["T1", "9", "red"],
            vec!["T2", "9", "blue"],
            vec!["T3", "9", "red"],
            vec!["T4", "2", "blue"],
            vec!["T5", "2", "red"],
        ],
        // Dates mixed with plain numbers across columns; negative and
        // fractional values for comparison kernels.
        vec![
            vec!["name", "when", "delta"],
            vec!["U", "2001-03-04", "-1.5"],
            vec!["V", "1999-12-31", "0"],
            vec!["W", "2020-06-15", "2.25"],
            vec!["X", "2010-01-01", "-0.75"],
        ],
    ];
    let mut tables: Vec<Table> = grids
        .into_iter()
        .enumerate()
        .map(|(i, grid)| Table::from_strings(format!("kzoo {i}"), &grid).unwrap())
        .collect();
    tables.push(loose_table(48, 7));
    tables
}

/// Cell spellings whose values sit on the edges of `Value::loosely_equals`:
/// epsilon-close numbers (including non-transitive chains around 1e6),
/// `0` next to `-0`, case variants of one text, adjacent dates, bools next
/// to `0`/`1`, and nulls. Numbers and texts draw from `0..spread`, so a
/// small spread makes near-duplicates common.
fn loose_cell(rng: &mut StdRng, i: usize, spread: usize) -> String {
    let k = rng.gen_range(0..spread);
    match i % 9 {
        0 => format!("{k}"),
        1 => format!("{k}.0000004"),
        2 => ["0", "-0", "0.0000001", "-0.0000005"][rng.gen_range(0..4)].to_string(),
        3 => match rng.gen_range(0..4) {
            0 => format!("Item{k}"),
            1 => format!("ITEM{k}"),
            2 => format!("item{k}"),
            _ => ["Oslo", "oslo", "OSLO", "Lima"][rng.gen_range(0..4)].to_string(),
        },
        4 => format!("2021-{:02}-{:02}", rng.gen_range(1..3), rng.gen_range(1..29)),
        5 => ["yes", "no", "TRUE", "false"][rng.gen_range(0..4)].to_string(),
        6 => ["1", "0", "1.0000001", "-1"][rng.gen_range(0..4)].to_string(),
        7 => format!("{}{}", 1_000_000 + k, ["", ".5", ".9"][rng.gen_range(0..3)]),
        _ => ["", "n/a"][rng.gen_range(0..2)].to_string(),
    }
}

/// A `rows`-row table whose `key` column is built from [`loose_cell`]; at
/// 2k+ rows it holds over a thousand loosely distinct values.
fn loose_table(rows: usize, seed: u64) -> Table {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut grid: Vec<Vec<String>> =
        vec![vec!["name".into(), "key".into(), "grp".into(), "pts".into()]];
    for i in 0..rows {
        let grp = ["a", "A", "b", "0", "-0"][rng.gen_range(0..5)].to_string();
        let pts = format!("{}", rng.gen_range(0..40) as f64 * 0.25);
        grid.push(vec![format!("r{i}"), loose_cell(&mut rng, i, 2 * rows), grp, pts]);
    }
    let borrowed: Vec<Vec<&str>> =
        grid.iter().map(|r| r.iter().map(String::as_str).collect()).collect();
    Table::from_strings(format!("loose {rows}"), &borrowed).unwrap()
}

/// Debug renderings compare NaN-safe ("NaN" == "NaN") and cover every field
/// of the output, mirroring how the golden digests hash samples.
fn dbg<T: std::fmt::Debug>(v: &T) -> String {
    format!("{v:?}")
}

fn check_sql(t: &sqlexec::SqlTemplate, table: &Table, ctx: &ExecContext, seed: u64) {
    let mut scalar_rng = StdRng::seed_from_u64(seed);
    let mut kernel_rng = StdRng::seed_from_u64(seed);
    let mut scratch = sqlexec::SqlScratch::default();
    let scalar = t.try_instantiate(table, &mut scalar_rng);
    let kernel = t.try_instantiate_in_with(table, ctx, &mut kernel_rng, &mut scratch);
    let sig = t.signature();
    assert_eq!(
        scalar_rng.gen::<u64>(),
        kernel_rng.gen::<u64>(),
        "sql `{sig}` on `{}` seed {seed}: RNG draw streams diverged",
        table.title
    );
    assert_eq!(
        dbg(&scalar),
        dbg(&kernel),
        "sql `{sig}` on `{}` seed {seed}: instantiation diverged",
        table.title
    );
    if let Ok(stmt) = scalar {
        let scalar_out = sqlexec::execute(&stmt, table);
        let kernel_out = sqlexec::execute_in_with(&stmt, table, ctx, &mut scratch.kern);
        assert_eq!(
            dbg(&scalar_out),
            dbg(&kernel_out),
            "sql `{sig}` on `{}` seed {seed}: execution diverged for `{stmt}`",
            table.title
        );
    }
}

fn check_logic(t: &logicforms::LfTemplate, table: &Table, ctx: &ExecContext, seed: u64) {
    let mut scratch = logicforms::LfScratch::default();
    let sig = t.signature();
    for desired in [false, true] {
        let mut scalar_rng = StdRng::seed_from_u64(seed);
        let mut kernel_rng = StdRng::seed_from_u64(seed);
        let scalar = t.try_instantiate(table, &mut scalar_rng, desired);
        let kernel = t.try_instantiate_in_with(table, ctx, &mut kernel_rng, desired, &mut scratch);
        assert_eq!(
            scalar_rng.gen::<u64>(),
            kernel_rng.gen::<u64>(),
            "logic `{sig}` on `{}` seed {seed}: RNG draw streams diverged",
            table.title
        );
        assert_eq!(
            dbg(&scalar),
            dbg(&kernel),
            "logic `{sig}` on `{}` seed {seed}: instantiation diverged",
            table.title
        );
        if let Ok(claim) = scalar {
            let scalar_out = logicforms::evaluate(&claim.expr, table);
            let kernel_out = logicforms::evaluate_in(&claim.expr, table, ctx);
            assert_eq!(
                dbg(&scalar_out),
                dbg(&kernel_out),
                "logic `{sig}` on `{}` seed {seed}: evaluation diverged for `{}`",
                table.title,
                claim.expr
            );
            let scalar_truth = logicforms::evaluate_truth(&claim.expr, table);
            let kernel_truth = logicforms::evaluate_truth_in(&claim.expr, table, ctx);
            assert_eq!(
                dbg(&scalar_truth),
                dbg(&kernel_truth),
                "logic `{sig}` on `{}` seed {seed}: truth diverged for `{}`",
                table.title,
                claim.expr
            );
        }
    }
}

fn check_arith(t: &arithexpr::AeTemplate, table: &Table, ctx: &ExecContext, seed: u64) {
    let mut scalar_rng = StdRng::seed_from_u64(seed);
    let mut kernel_rng = StdRng::seed_from_u64(seed);
    let mut scratch = arithexpr::AeScratch::default();
    // Arithmetic instantiation executes internally, so this one comparison
    // covers both the sampling and the execution kernels.
    let scalar = t.try_instantiate(table, &mut scalar_rng);
    let kernel = t.try_instantiate_in_with(table, ctx, &mut kernel_rng, &mut scratch);
    let sig = t.signature();
    assert_eq!(
        scalar_rng.gen::<u64>(),
        kernel_rng.gen::<u64>(),
        "arith `{sig}` on `{}` seed {seed}: RNG draw streams diverged",
        table.title
    );
    assert_eq!(
        dbg(&scalar),
        dbg(&kernel),
        "arith `{sig}` on `{}` seed {seed}: instantiation diverged",
        table.title
    );
    if let Ok(inst) = scalar {
        let scalar_out = arithexpr::execute(&inst.program, table);
        let kernel_out = arithexpr::execute_in(&inst.program, table, ctx);
        assert_eq!(
            dbg(&scalar_out),
            dbg(&kernel_out),
            "arith `{sig}` on `{}` seed {seed}: re-execution diverged for `{}`",
            table.title,
            inst.program
        );
    }
}

fn sweep(bank: &TemplateBank, tables: &[Table], seeds: u64) {
    for table in tables {
        let ctx = ExecContext::new(table);
        for any in bank.templates() {
            for seed in 0..seeds {
                let seed = seed * 6151 + 29;
                match any {
                    AnyTemplate::Sql(t) => check_sql(t, table, &ctx, seed),
                    AnyTemplate::Logic(t) => check_logic(t, table, &ctx, seed),
                    AnyTemplate::Arith(t) => check_arith(t, table, &ctx, seed),
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
    let ctx = ExecContext::new(table);
    let mut kern = tabular::KernelScratch::default();
    for sql in DEDUP_SQL {
        let stmt = sqlexec::parse(sql).unwrap();
        let scalar = sqlexec::execute(&stmt, table);
        let kernel = sqlexec::execute_in_with(&stmt, table, &ctx, &mut kern);
        assert_eq!(dbg(&scalar), dbg(&kernel), "`{sql}` on `{}` diverged", table.title);
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
