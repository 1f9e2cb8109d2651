//! Adversarial tables shared by the executor parity and context suites.
//!
//! [`kernel_zoo`] holds small tables built to hit executor edge cases
//! rather than to look like real data; [`loose_table`] builds tables whose
//! key column sits on the edges of `Value::loosely_equals` at any size.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tabular::Table;

/// Tables chosen to hit kernel edge cases, not to look like real data.
pub fn kernel_zoo() -> Vec<Table> {
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
pub fn loose_cell(rng: &mut StdRng, i: usize, spread: usize) -> String {
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
pub fn loose_table(rows: usize, seed: u64) -> Table {
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
