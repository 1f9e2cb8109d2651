//! ExecContext equivalence suite.
//!
//! The three executors read table facts only through the per-table
//! [`ExecContext`] caches (column value pools, numeric cell grids and
//! pairs, addressable cells, row names, the text pool, the type census).
//! These tests pin every cache to the naive table scan it stands for, on
//! random tables and on the kernel zoo: a cache that drifted from its scan
//! would change sampled values (hence RNG draws) and results, and the
//! pipeline's fixed-seed byte-identity depends on both.

// Integration-test helpers run outside #[cfg(test)], so the clippy.toml test exemption does not reach them.
#![allow(clippy::unwrap_used)]

mod support {
    pub mod zoo;
}

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use support::zoo::kernel_zoo;
use tabular::{ColumnType, ExecContext, Table, Value};

/// A randomized mixed-type table: text name/category columns, numeric
/// columns, and random null holes ("-" parses to null).
fn random_table(rng: &mut StdRng, rows: usize) -> Table {
    let header = ["name", "score", "tier", "load", "note"];
    let mut grid: Vec<Vec<String>> = vec![header.iter().map(|s| s.to_string()).collect()];
    let tiers = ["gold", "silver", "bronze", "iron"];
    let notes = ["fresh", "stale", "Fresh", "-"];
    for i in 0..rows {
        let name = if rng.gen_bool(0.1) { "-".to_string() } else { format!("ent{i}") };
        let score =
            if rng.gen_bool(0.15) { "-".to_string() } else { rng.gen_range(0..500).to_string() };
        let tier = tiers[rng.gen_range(0..tiers.len())].to_string();
        let load = if rng.gen_bool(0.15) {
            "-".to_string()
        } else {
            format!("{:.1}", rng.gen_range(0.0..90.0))
        };
        let note = notes[rng.gen_range(0..notes.len())].to_string();
        grid.push(vec![name, score, tier, load, note]);
    }
    let borrowed: Vec<Vec<&str>> =
        grid.iter().map(|r| r.iter().map(String::as_str).collect()).collect();
    Table::from_strings("random", &borrowed).unwrap()
}

/// Asserts every cache the executors read equals the naive table scan it
/// stands for.
fn assert_caches_match_naive_scans(table: &Table) {
    let what = &table.title;
    let ctx = ExecContext::new(table);
    assert_eq!(ctx.n_rows(), table.n_rows(), "{what}");
    assert_eq!(ctx.n_cols(), table.n_cols(), "{what}");
    for ci in 0..table.n_cols() {
        let cells = table.column_values(ci);
        let non_null: Vec<Value> = cells.iter().filter(|v| !v.is_null()).cloned().collect();
        assert_eq!(ctx.non_null_values(ci), non_null.as_slice(), "{what}: non-null pool of {ci}");
        let pairs: Vec<(usize, f64)> = (0..table.n_rows())
            .filter_map(|ri| cell_number(table, ri, ci).map(|n| (ri, n)))
            .collect();
        assert_eq!(ctx.numeric_pairs(ci), pairs.as_slice(), "{what}: numeric pairs of {ci}");
        let all_number =
            !non_null.is_empty() && non_null.iter().all(|v| matches!(v, Value::Number(_)));
        assert_eq!(ctx.all_number(ci), all_number, "{what}: all_number of {ci}");
        for ri in 0..table.n_rows() {
            assert_eq!(
                ctx.number_at(ri, ci),
                cell_number(table, ri, ci),
                "{what}: numeric grid at ({ri}, {ci})"
            );
        }
    }
    for ty in [ColumnType::Number, ColumnType::Date, ColumnType::Bool, ColumnType::Text] {
        let typed = table.schema().columns_of_type(ty);
        assert_eq!(ctx.column_type_count(ty), typed.len(), "{what}: census of {ty}");
        if ty == ColumnType::Number {
            assert_eq!(ctx.numeric_columns(), typed.as_slice(), "{what}: numeric columns");
        }
    }
    // Row names: the first text column (else column 0) names each row.
    let name_col =
        table.schema().columns().iter().position(|c| c.ty == ColumnType::Text).unwrap_or(0);
    assert_eq!(ctx.row_name_column(), name_col, "{what}: row-name column");
    let mut addressable = Vec::new();
    for ri in 0..table.n_rows() {
        let name = table.cell(ri, name_col);
        assert_eq!(
            ctx.name_lower(ri),
            name.map(|v| v.to_string().to_ascii_lowercase()).as_deref(),
            "{what}: lowercase name of row {ri}"
        );
        if name.is_some_and(|v| !v.is_null()) {
            for ci in (0..table.n_cols()).filter(|&ci| ci != name_col) {
                if cell_number(table, ri, ci).is_some() {
                    addressable.push((ri, ci));
                }
            }
        }
    }
    assert_eq!(ctx.addressable_cells(), addressable.as_slice(), "{what}: addressable cells");
    assert_eq!(ctx.text_pool(), naive_text_pool(table).as_slice(), "{what}: text pool");
}

fn cell_number(table: &Table, ri: usize, ci: usize) -> Option<f64> {
    table.cell(ri, ci).and_then(Value::as_number)
}

/// Distinct text cells (exact equality) in row-major first-occurrence
/// order.
fn naive_text_pool(table: &Table) -> Vec<String> {
    let mut pool: Vec<String> = Vec::new();
    for v in table.rows().iter().flat_map(|r| r.iter()) {
        if let Value::Text(t) = v {
            if !pool.contains(t) {
                pool.push(t.clone());
            }
        }
    }
    pool
}

#[test]
fn context_caches_match_naive_scans_on_random_tables() {
    let mut meta = StdRng::seed_from_u64(0xCAFE);
    for _ in 0..25 {
        let rows = 1 + meta.gen_range(0..40);
        assert_caches_match_naive_scans(&random_table(&mut meta, rows));
    }
    for table in kernel_zoo() {
        assert_caches_match_naive_scans(&table);
    }
}

#[test]
fn text_pool_matches_naive_scan_on_many_distinct_case_variants() {
    let mut rng = StdRng::seed_from_u64(0x7E47);
    let header = ["a", "b", "c"];
    let mut grid: Vec<Vec<String>> = vec![header.iter().map(|s| s.to_string()).collect()];
    for _ in 0..1500 {
        let row = (0..header.len())
            .map(|_| {
                let k = rng.gen_range(0..1200);
                match rng.gen_range(0..5) {
                    0 => format!("city{k}"),
                    1 => format!("CITY{k}"),
                    2 => format!("City{k}"),
                    3 => format!("{k}"),
                    _ => "-".to_string(),
                }
            })
            .collect();
        grid.push(row);
    }
    let borrowed: Vec<Vec<&str>> =
        grid.iter().map(|r| r.iter().map(String::as_str).collect()).collect();
    let table = Table::from_strings("many", &borrowed).unwrap();
    // The naive first-occurrence scan under exact string equality: case
    // variants are distinct pool entries.
    let naive = naive_text_pool(&table);
    assert!(naive.len() > 1500, "the pool must be large: {}", naive.len());
    let ctx = ExecContext::new(&table);
    assert_eq!(ctx.text_pool(), naive.as_slice());
    // The single-row append keeps the same pool as a fresh scan.
    let last = table.n_rows() - 1;
    let head = table.select_rows(&(0..last).collect::<Vec<_>>());
    let head_ctx = ExecContext::new(&head);
    assert_eq!(head_ctx.with_row_appended(&head, &table), ctx);
}
