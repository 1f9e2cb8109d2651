//! Row-sharing contract of [`Table`].
//!
//! Table rows are immutable shared slices ([`Row`]): every table derived
//! from another by taking a subset of its rows (the Table-To-Text split,
//! Text-To-Table's clone-and-append, `concat_rows`, `Clone`) points at the
//! parent's rows instead of copying their cells. These tests pin the
//! sharing itself (`Arc::ptr_eq` per row), equality with a deep-copied
//! reference, and that `Debug` and JSON render exactly as they did when a
//! row was a `Vec<Value>` (golden digests hash `Debug`; the daemon's wire
//! format is the JSON).

// Integration-test helpers run outside #[cfg(test)], so the clippy.toml test exemption does not reach them.
#![allow(clippy::unwrap_used)]

use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;
use tabular::{ColumnType, Date, Row, Table, TableBuilder, Value};

fn departments() -> Table {
    Table::from_strings(
        "Departments",
        &[
            vec!["department", "total deputies", "budget"],
            vec!["Commerce", "18", "500"],
            vec!["Defense", "42", "9000"],
            vec!["Treasury", "30", "3000"],
            vec!["Energy", "12", "700"],
        ],
    )
    .unwrap()
}

/// Nulls, dates, bools, a negative zero, a large number and non-ASCII text
/// with an escaped quote.
fn mixed() -> Table {
    TableBuilder::new("Städte — 東京")
        .column("name", ColumnType::Text)
        .column("opened", ColumnType::Date)
        .column("open", ColumnType::Bool)
        .column("pop", ColumnType::Number)
        .row(vec![
            Value::text("Zürich \"Hbf\""),
            Value::Date(Date::new(1847, 8, 9).unwrap()),
            Value::Bool(true),
            Value::Number(1.5),
        ])
        .row(vec![Value::text("東京"), Value::Null, Value::Bool(false), Value::Number(-0.0)])
        .row(vec![
            Value::Null,
            Value::Date(Date::new(2020, 2, 29).unwrap()),
            Value::Null,
            Value::Number(1e21),
        ])
        .build()
        .unwrap()
}

/// The same table with every row copied into fresh storage.
fn deep_copy(table: &Table, rows: impl Iterator<Item = usize>) -> Table {
    let rows = rows.map(|r| table.rows()[r].to_vec()).collect();
    Table::new(table.title.clone(), table.schema().clone(), rows).unwrap()
}

fn assert_shares(derived: &Table, parent: &Table, parent_rows: &[usize]) {
    assert_eq!(derived.n_rows(), parent_rows.len());
    for (k, &r) in parent_rows.iter().enumerate() {
        assert!(
            Arc::ptr_eq(&derived.rows()[k], &parent.rows()[r]),
            "row {k} of the derived table must be parent row {r}, shared"
        );
    }
}

#[test]
fn table_to_text_sub_table_shares_the_input_rows() {
    let table = departments();
    for highlight in 0..table.n_rows() {
        let mut rng = StdRng::seed_from_u64(highlight as u64);
        let split = textops::table_to_text(&table, highlight, &mut rng).unwrap();
        let kept: Vec<usize> = (0..table.n_rows()).filter(|&r| r != highlight).collect();
        assert_shares(&split.sub_table, &table, &kept);
        let reference = deep_copy(&table, kept.iter().copied());
        assert!(!Arc::ptr_eq(&reference.rows()[0], &table.rows()[kept[0]]));
        assert_eq!(split.sub_table, reference);
        assert_eq!(format!("{:?}", split.sub_table), format!("{reference:?}"));
    }
}

#[test]
fn text_to_table_expansion_shares_the_input_rows() {
    let table = departments();
    let out = textops::text_to_table(&table, "Labor has a total deputies of 9 and a budget of 80.")
        .unwrap();
    let old: Vec<usize> = (0..table.n_rows()).collect();
    assert_eq!(out.expanded.n_rows(), table.n_rows() + 1);
    for (k, &r) in old.iter().enumerate() {
        assert!(Arc::ptr_eq(&out.expanded.rows()[k], &table.rows()[r]), "row {k}");
    }
}

#[test]
fn concat_rows_and_clone_share_rows() {
    let (a, b) = (departments(), departments().select_rows(&[3, 1]));
    let joined = a.concat_rows(&b).unwrap();
    assert_eq!(joined.n_rows(), a.n_rows() + b.n_rows());
    for k in 0..a.n_rows() {
        assert!(Arc::ptr_eq(&joined.rows()[k], &a.rows()[k]), "row {k} from the left table");
    }
    for k in 0..b.n_rows() {
        let j = a.n_rows() + k;
        assert!(Arc::ptr_eq(&joined.rows()[j], &b.rows()[k]), "row {j} from the right table");
    }
    let mut reference = deep_copy(&a, 0..a.n_rows());
    for r in [3, 1] {
        reference.push_row(a.rows()[r].to_vec()).unwrap();
    }
    assert_eq!(joined, reference);

    let cloned = a.clone();
    assert_shares(&cloned, &a, &(0..a.n_rows()).collect::<Vec<_>>());
    let sorted = a.sort_by_column(1, true);
    assert_eq!(sorted, deep_copy(&a, [1, 2, 0, 3].into_iter()));
    assert_shares(&sorted, &a, &[1, 2, 0, 3]);
    let filtered = a.filter_rows(|r| r[1].as_number().is_some_and(|n| n > 20.0));
    assert_shares(&filtered, &a, &[1, 2]);
}

const MIXED_DEBUG: &str = r#"Table { title: "Städte — 東京", schema: Schema { columns: [Column { name: "name", ty: Text }, Column { name: "opened", ty: Date }, Column { name: "open", ty: Bool }, Column { name: "pop", ty: Number }] }, rows: [[Text("Zürich \"Hbf\""), Date(Date { year: 1847, month: 8, day: 9 }), Bool(true), Number(1.5)], [Text("東京"), Null, Bool(false), Number(-0.0)], [Null, Date(Date { year: 2020, month: 2, day: 29 }), Null, Number(1e21)]] }"#;

const MIXED_JSON: &str = r#"{"title":"Städte — 東京","schema":{"columns":[{"name":"name","ty":"Text"},{"name":"opened","ty":"Date"},{"name":"open","ty":"Bool"},{"name":"pop","ty":"Number"}]},"rows":[[{"Text":"Zürich \"Hbf\""},{"Date":{"year":1847,"month":8,"day":9}},{"Bool":true},{"Number":1.5}],[{"Text":"東京"},"Null",{"Bool":false},{"Number":-0.0}],["Null",{"Date":{"year":2020,"month":2,"day":29}},"Null",{"Number":1e21}]]}"#;

const ROW_JSON: &str = r#"[{"Text":"Zürich \"Hbf\""},{"Date":{"year":1847,"month":8,"day":9}},{"Bool":true},{"Number":1.5}]"#;

#[test]
fn debug_and_json_match_the_vec_row_encoding() {
    // Pinned from the encoding of the `Vec<Vec<Value>>` row representation.
    let t = mixed();
    assert_eq!(format!("{t:?}"), MIXED_DEBUG);
    assert_eq!(serde_json::to_string(&t).unwrap(), MIXED_JSON);
    let back: Table = serde_json::from_str(MIXED_JSON).unwrap();
    assert_eq!(format!("{back:?}"), MIXED_DEBUG);
    // A shared sub-table renders like a copied one.
    let sub = t.select_rows(&[0, 1, 2]);
    assert_eq!(format!("{sub:?}"), MIXED_DEBUG);
    assert_eq!(serde_json::to_string(&sub).unwrap(), MIXED_JSON);
}

#[test]
fn row_serde_round_trip() {
    let row: Row = mixed().rows()[0].clone();
    let json = serde_json::to_string(&row).unwrap();
    assert_eq!(json, ROW_JSON);
    assert_eq!(json, serde_json::to_string(&row.to_vec()).unwrap());
    let back: Row = serde_json::from_str(&json).unwrap();
    assert_eq!(back, row);
    let empty: Row = serde_json::from_str("[]").unwrap();
    assert!(empty.is_empty());
    // A bad cell fails the whole row, like `Vec<Value>` does.
    let bad = r#"[{"Number":1.0},{"Nope":2}]"#;
    assert!(serde_json::from_str::<Row>(bad).is_err());
    assert!(serde_json::from_str::<Vec<Value>>(bad).is_err());
    assert!(serde_json::from_str::<Row>(r#"{"Number":1.0}"#).is_err());
}
