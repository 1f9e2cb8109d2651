//! The relational table type used across the workspace.
//!
//! A [`Table`] is a titled, schema-typed grid of [`Value`]s stored row-major.
//! It provides the row/column/projection operations that the program
//! executors, the Table-To-Text / Text-To-Table operators, and the reasoning
//! models all build on.

use crate::dedup::LooseIndex;
use crate::schema::{infer_column_type, Column, ColumnType, Schema};
use crate::value::Value;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::sync::Arc;

/// One table row: an immutable, shared slice of cells. Tables that take a
/// subset of another table's rows (split, filter, sort, concatenation,
/// `Clone`) point at the same rows, so a copy costs one reference-count
/// bump per row. `Debug` and JSON render a row exactly like `Vec<Value>`.
pub type Row = Arc<[Value]>;

/// Errors produced by table construction and manipulation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TableError {
    /// A row had a different arity than the schema.
    RowArity { expected: usize, got: usize },
    /// A referenced column does not exist.
    UnknownColumn(String),
    /// A referenced row index is out of bounds.
    RowOutOfBounds(usize),
}

impl fmt::Display for TableError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TableError::RowArity { expected, got } => {
                write!(f, "row has {got} cells but schema has {expected} columns")
            }
            TableError::UnknownColumn(name) => write!(f, "unknown column: {name}"),
            TableError::RowOutOfBounds(i) => write!(f, "row index {i} out of bounds"),
        }
    }
}

impl std::error::Error for TableError {}

/// A relational table: title, typed schema, and rows of values. Rows are
/// [`Row`]s shared with every table derived from this one; a row is never
/// mutated in place, only added or removed.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Table {
    /// Human-readable caption/title (e.g. the Wikipedia page section).
    pub title: String,
    schema: Schema,
    rows: Vec<Row>,
}

impl Default for Table {
    /// The empty table: no columns, no rows, an empty title.
    fn default() -> Table {
        Table { title: String::new(), schema: Schema::default(), rows: vec![] }
    }
}

impl Table {
    /// Creates a table from a schema and rows, checking arity.
    pub fn new(
        title: impl Into<String>,
        schema: Schema,
        rows: Vec<Vec<Value>>,
    ) -> Result<Table, TableError> {
        let n = schema.len();
        for row in &rows {
            if row.len() != n {
                return Err(TableError::RowArity { expected: n, got: row.len() });
            }
        }
        Ok(Table { title: title.into(), schema, rows: rows.into_iter().map(Row::from).collect() })
    }

    /// Builds a table from raw string cells, inferring each column's type.
    /// The first row of `grid` is the header.
    pub fn from_strings(title: impl Into<String>, grid: &[Vec<&str>]) -> Result<Table, TableError> {
        let Some((header, body)) = grid.split_first() else {
            return Ok(Table { title: title.into(), schema: Schema::default(), rows: vec![] });
        };
        let rows: Vec<Row> =
            body.iter().map(|r| r.iter().map(|c| Value::parse(c)).collect()).collect();
        let ncols = header.len();
        for row in &rows {
            if row.len() != ncols {
                return Err(TableError::RowArity { expected: ncols, got: row.len() });
            }
        }
        let mut cols = Vec::with_capacity(ncols);
        for (i, name) in header.iter().enumerate() {
            cols.push(Column::new(*name, infer_column_type(rows.iter().map(|r| &r[i]))));
        }
        Ok(Table { title: title.into(), schema: Schema::new(cols), rows })
    }

    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    pub fn rows(&self) -> &[Row] {
        &self.rows
    }

    pub fn n_rows(&self) -> usize {
        self.rows.len()
    }

    pub fn n_cols(&self) -> usize {
        self.schema.len()
    }

    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Returns the cell at (row, col) if in bounds.
    pub fn cell(&self, row: usize, col: usize) -> Option<&Value> {
        self.rows.get(row).and_then(|r| r.get(col))
    }

    /// Returns a row by index.
    pub fn row(&self, idx: usize) -> Option<&[Value]> {
        self.rows.get(idx).map(|r| &r[..])
    }

    /// Returns an owned copy of one column's values.
    pub fn column_values(&self, col: usize) -> Vec<Value> {
        self.rows.iter().filter_map(|r| r.get(col).cloned()).collect()
    }

    /// Column header name by index.
    pub fn column_name(&self, col: usize) -> Option<&str> {
        self.schema.column(col).map(|c| c.name.as_str())
    }

    /// Case-insensitive column index lookup.
    pub fn column_index(&self, name: &str) -> Option<usize> {
        self.schema.index_of(name)
    }

    /// Appends a row, checking arity.
    pub fn push_row(&mut self, row: Vec<Value>) -> Result<(), TableError> {
        if row.len() != self.schema.len() {
            return Err(TableError::RowArity { expected: self.schema.len(), got: row.len() });
        }
        self.rows.push(row.into());
        Ok(())
    }

    /// Removes and returns the row at `idx`.
    pub fn remove_row(&mut self, idx: usize) -> Result<Vec<Value>, TableError> {
        if idx >= self.rows.len() {
            return Err(TableError::RowOutOfBounds(idx));
        }
        Ok(self.rows.remove(idx).to_vec())
    }

    /// A new table containing only the rows whose indexes are in `keep`
    /// (order preserved, duplicates allowed). The rows are shared, not
    /// copied.
    pub fn select_rows(&self, keep: &[usize]) -> Table {
        let rows = keep.iter().filter_map(|&i| self.rows.get(i).cloned()).collect();
        Table { title: self.title.clone(), schema: self.schema.clone(), rows }
    }

    /// A new table with rows satisfying `pred` (shared, not copied).
    pub fn filter_rows(&self, mut pred: impl FnMut(&[Value]) -> bool) -> Table {
        let rows = self.rows.iter().filter(|r| pred(r)).cloned().collect();
        Table { title: self.title.clone(), schema: self.schema.clone(), rows }
    }

    /// Projects onto a subset of columns (by index, order preserved).
    pub fn project(&self, cols: &[usize]) -> Table {
        let schema =
            Schema::new(cols.iter().filter_map(|&c| self.schema.column(c).cloned()).collect());
        let rows = self
            .rows
            .iter()
            .map(|r| cols.iter().filter_map(|&c| r.get(c).cloned()).collect())
            .collect();
        Table { title: self.title.clone(), schema, rows }
    }

    /// Stable-sorts rows by a column; `descending` flips the order.
    /// Null cells always sort last regardless of direction, matching SQL
    /// `ORDER BY ... NULLS LAST` semantics that the paper's templates assume.
    /// The sorted table shares its rows with `self`.
    pub fn sort_by_column(&self, col: usize, descending: bool) -> Table {
        let mut rows = self.rows.clone();
        rows.sort_by(|a, b| {
            let (x, y) = (&a[col], &b[col]);
            match (x.is_null(), y.is_null()) {
                (true, true) => std::cmp::Ordering::Equal,
                (true, false) => std::cmp::Ordering::Greater,
                (false, true) => std::cmp::Ordering::Less,
                (false, false) => {
                    if descending {
                        y.cmp(x)
                    } else {
                        x.cmp(y)
                    }
                }
            }
        });
        Table { title: self.title.clone(), schema: self.schema.clone(), rows }
    }

    /// Index of the row with the maximum value in `col` (nulls skipped).
    pub fn argmax(&self, col: usize) -> Option<usize> {
        self.rows
            .iter()
            .enumerate()
            .filter(|(_, r)| !r[col].is_null())
            .max_by(|(_, a), (_, b)| a[col].cmp(&b[col]))
            .map(|(i, _)| i)
    }

    /// Index of the row with the minimum value in `col` (nulls skipped).
    pub fn argmin(&self, col: usize) -> Option<usize> {
        self.rows
            .iter()
            .enumerate()
            .filter(|(_, r)| !r[col].is_null())
            .min_by(|(_, a), (_, b)| a[col].cmp(&b[col]))
            .map(|(i, _)| i)
    }

    /// Sum of the numeric values in `col` (non-numeric cells skipped).
    /// Returns `None` if the column has no numeric cell.
    pub fn sum(&self, col: usize) -> Option<f64> {
        let nums: Vec<f64> = self.numeric_column(col);
        if nums.is_empty() {
            None
        } else {
            Some(nums.iter().sum())
        }
    }

    /// Mean of the numeric values in `col`.
    pub fn avg(&self, col: usize) -> Option<f64> {
        let nums: Vec<f64> = self.numeric_column(col);
        if nums.is_empty() {
            None
        } else {
            Some(nums.iter().sum::<f64>() / nums.len() as f64)
        }
    }

    /// Maximum numeric value in `col`.
    pub fn max(&self, col: usize) -> Option<f64> {
        self.numeric_column(col).into_iter().fold(None, |acc, x| {
            Some(match acc {
                None => x,
                Some(m) => m.max(x),
            })
        })
    }

    /// Minimum numeric value in `col`.
    pub fn min(&self, col: usize) -> Option<f64> {
        self.numeric_column(col).into_iter().fold(None, |acc, x| {
            Some(match acc {
                None => x,
                Some(m) => m.min(x),
            })
        })
    }

    fn numeric_column(&self, col: usize) -> Vec<f64> {
        self.rows.iter().filter_map(|r| r.get(col).and_then(Value::as_number)).collect()
    }

    /// Distinct values of a column, in first-occurrence order. Two values
    /// are duplicates when [`Value::loosely_equals`] says so; the
    /// membership test is a [`LooseIndex`], exact and `O(log n)`.
    pub fn distinct(&self, col: usize) -> Vec<Value> {
        let mut seen = LooseIndex::default();
        let mut out = Vec::new();
        for row in &self.rows {
            let v = &row[col];
            if !v.is_null() && seen.insert(v).1 {
                out.push(v.clone());
            }
        }
        out
    }

    /// Vertically concatenates another table with an identical schema
    /// (column names compared case-insensitively). This is the integration
    /// step of the Text-To-Table operator (paper §IV-A). Both tables' rows
    /// are shared, not copied.
    pub fn concat_rows(&self, other: &Table) -> Result<Table, TableError> {
        if other.schema.len() != self.schema.len() {
            return Err(TableError::RowArity {
                expected: self.schema.len(),
                got: other.schema.len(),
            });
        }
        for (a, b) in self.schema.columns().iter().zip(other.schema.columns()) {
            if !a.name.eq_ignore_ascii_case(&b.name) {
                return Err(TableError::UnknownColumn(b.name.clone()));
            }
        }
        let mut rows = self.rows.clone();
        rows.extend(other.rows.iter().cloned());
        Ok(Table { title: self.title.clone(), schema: self.schema.clone(), rows })
    }

    /// Re-infers every column's type from the current values. Needed after
    /// bulk edits (e.g. table expansion may append rows of a new type mix).
    pub fn reinfer_types(&mut self) {
        let mut cols = Vec::with_capacity(self.schema.len());
        for (i, c) in self.schema.columns().iter().enumerate() {
            cols.push(Column::new(
                c.name.clone(),
                infer_column_type(self.rows.iter().map(|r| &r[i])),
            ));
        }
        self.schema = Schema::new(cols);
    }

    /// Linearizes the table to a token-friendly string:
    /// `title | col: v ; col: v [ROW] ...` — the serialization the reasoning
    /// models consume (paper cites linearization methods \[24\], \[18\]).
    pub fn linearize(&self) -> String {
        use std::fmt::Write;
        let mut out = String::with_capacity(64 * (self.rows.len() + 1));
        out.push_str(&self.title);
        for row in &self.rows {
            out.push_str(" [ROW]");
            for (i, v) in row.iter().enumerate() {
                if v.is_null() {
                    continue;
                }
                out.push(' ');
                out.push_str(self.column_name(i).unwrap_or(""));
                out.push_str(": ");
                // Render the cell straight into the buffer — `Display` is
                // the same rendering `to_string` produced, minus the
                // intermediate allocation per cell.
                let _ = write!(out, "{v}");
                out.push(';');
            }
        }
        out
    }
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "# {}", self.title)?;
        let names: Vec<&str> = self.schema.columns().iter().map(|c| c.name.as_str()).collect();
        writeln!(f, "| {} |", names.join(" | "))?;
        for row in &self.rows {
            let cells: Vec<String> = row.iter().map(|v| v.to_string()).collect();
            writeln!(f, "| {} |", cells.join(" | "))?;
        }
        Ok(())
    }
}

/// Convenience builder for tests and examples.
#[derive(Debug, Default)]
pub struct TableBuilder {
    title: String,
    columns: Vec<Column>,
    rows: Vec<Vec<Value>>,
}

impl TableBuilder {
    pub fn new(title: impl Into<String>) -> TableBuilder {
        TableBuilder { title: title.into(), ..Default::default() }
    }

    pub fn column(mut self, name: impl Into<String>, ty: ColumnType) -> TableBuilder {
        self.columns.push(Column::new(name, ty));
        self
    }

    pub fn row(mut self, cells: Vec<Value>) -> TableBuilder {
        self.rows.push(cells);
        self
    }

    /// Row of raw strings, parsed with type sniffing.
    pub fn row_str(mut self, cells: &[&str]) -> TableBuilder {
        self.rows.push(cells.iter().map(|c| Value::parse(c)).collect());
        self
    }

    pub fn build(self) -> Result<Table, TableError> {
        Table::new(self.title, Schema::new(self.columns), self.rows)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Table {
        Table::from_strings(
            "Departments",
            &[
                vec!["department", "total deputies", "founded"],
                vec!["Commerce", "18", "1913-03-04"],
                vec!["Defense", "42", "1947-09-18"],
                vec!["Treasury", "30", "1789-09-02"],
            ],
        )
        .unwrap_or_else(|e| panic!("test table: {e:?}"))
    }

    fn column_type(t: &Table, c: usize) -> ColumnType {
        t.schema().column(c).unwrap_or_else(|| panic!("column {c}")).ty
    }

    #[test]
    fn from_strings_infers_types() {
        let t = sample();
        assert_eq!(column_type(&t, 0), ColumnType::Text);
        assert_eq!(column_type(&t, 1), ColumnType::Number);
        assert_eq!(column_type(&t, 2), ColumnType::Date);
    }

    #[test]
    fn arity_checked() {
        let err = Table::from_strings("t", &[vec!["a", "b"], vec!["1"]]).unwrap_err();
        assert_eq!(err, TableError::RowArity { expected: 2, got: 1 });
    }

    #[test]
    fn argmax_argmin() {
        let t = sample();
        assert_eq!(t.argmax(1), Some(1)); // Defense: 42
        assert_eq!(t.argmin(1), Some(0)); // Commerce: 18
    }

    #[test]
    fn aggregates() {
        let t = sample();
        assert_eq!(t.sum(1), Some(90.0));
        assert_eq!(t.avg(1), Some(30.0));
        assert_eq!(t.max(1), Some(42.0));
        assert_eq!(t.min(1), Some(18.0));
    }

    #[test]
    fn aggregates_on_text_column_are_none() {
        let t = sample();
        assert_eq!(t.sum(0), None);
        assert_eq!(t.avg(0), None);
    }

    #[test]
    fn sort_with_nulls_last() {
        let t = Table::from_strings("t", &[vec!["x"], vec!["5"], vec![""], vec!["1"], vec!["3"]])
            .unwrap_or_else(|e| panic!("test table: {e:?}"));
        let asc = t.sort_by_column(0, false);
        let vals: Vec<String> = asc.rows().iter().map(|r| r[0].to_string()).collect();
        assert_eq!(vals, vec!["1", "3", "5", ""]);
        let desc = t.sort_by_column(0, true);
        let vals: Vec<String> = desc.rows().iter().map(|r| r[0].to_string()).collect();
        assert_eq!(vals, vec!["5", "3", "1", ""]);
    }

    #[test]
    fn project_and_select() {
        let t = sample();
        let p = t.project(&[1]);
        assert_eq!(p.n_cols(), 1);
        assert_eq!(p.column_name(0), Some("total deputies"));
        let s = t.select_rows(&[2, 0]);
        assert_eq!(s.n_rows(), 2);
        let c = s.cell(0, 0).unwrap_or_else(|| panic!("cell 0,0"));
        assert_eq!(c.to_string(), "Treasury");
    }

    #[test]
    fn filter_rows_predicate() {
        let t = sample();
        let big = t.filter_rows(|r| r[1].as_number().is_some_and(|n| n > 20.0));
        assert_eq!(big.n_rows(), 2);
    }

    #[test]
    fn distinct_dedups_loosely() {
        let t = Table::from_strings(
            "t",
            &[vec!["c"], vec!["Apple"], vec!["apple"], vec!["Pear"], vec![""]],
        )
        .unwrap_or_else(|e| panic!("test table: {e:?}"));
        assert_eq!(t.distinct(0).len(), 2);
    }

    #[test]
    fn distinct_matches_pairwise_scan() {
        // Adversarial mix for the windowed accelerator: epsilon-close
        // numbers, case variants, bools, adjacent dates (near-equal
        // ordinals but distinct dates), and nulls.
        let cells = [
            "5",
            "5.0000001",
            "5.1",
            "yes",
            "true",
            "Apple",
            "APPLE",
            "apple pie",
            "2020-03-01",
            "2020-03-02",
            "2020-03-01",
            "",
            "0",
            "no",
            "-5",
            "5",
            "1000000",
            "1000000.5",
            "1000001",
            "0.0000001",
            "0",
        ];
        let mut grid = vec![vec!["c"]];
        grid.extend(cells.iter().map(|c| vec![*c]));
        let t = Table::from_strings("t", &grid).unwrap_or_else(|e| panic!("test table: {e:?}"));
        // Reference: the original quadratic first-occurrence scan.
        let mut naive: Vec<Value> = Vec::new();
        for row in t.rows() {
            let v = &row[0];
            if !v.is_null() && !naive.iter().any(|s| s.loosely_equals(v)) {
                naive.push(v.clone());
            }
        }
        assert_eq!(t.distinct(0), naive);
    }

    #[test]
    fn concat_requires_matching_schema() {
        let a = sample();
        let b = sample();
        let joined = a.concat_rows(&b).unwrap_or_else(|e| panic!("concat: {e:?}"));
        assert_eq!(joined.n_rows(), 6);
        let mismatched = a.project(&[0, 1]);
        assert!(a.concat_rows(&mismatched).is_err());
    }

    #[test]
    fn linearize_contains_headers_and_values() {
        let t = sample();
        let lin = t.linearize();
        assert!(lin.contains("Departments"));
        assert!(lin.contains("[ROW]"));
        assert!(lin.contains("department: Commerce;"));
        assert!(lin.contains("total deputies: 42;"));
    }

    #[test]
    fn linearize_skips_nulls() {
        let t = Table::from_strings("t", &[vec!["a", "b"], vec!["x", ""], vec!["", "2"]])
            .unwrap_or_else(|e| panic!("test table: {e:?}"));
        let lin = t.linearize();
        assert!(lin.contains("a: x;"));
        assert!(!lin.contains("b: ;"), "{lin}");
        assert!(lin.contains("b: 2;"));
    }

    #[test]
    fn select_rows_allows_duplicates_and_ignores_oob() {
        let t = sample();
        let s = t.select_rows(&[0, 0, 99]);
        assert_eq!(s.n_rows(), 2);
        assert_eq!(s.row(0), s.row(1));
    }

    #[test]
    fn builder_roundtrip() {
        let t = TableBuilder::new("b")
            .column("name", ColumnType::Text)
            .column("score", ColumnType::Number)
            .row_str(&["x", "1"])
            .row_str(&["y", "2"])
            .build()
            .unwrap_or_else(|e| panic!("build: {e:?}"));
        assert_eq!(t.n_rows(), 2);
        assert_eq!(t.cell(1, 1), Some(&Value::Number(2.0)));
    }

    #[test]
    fn reinfer_types_after_edit() {
        let mut t = Table::from_strings("t", &[vec!["v"], vec!["hello"]])
            .unwrap_or_else(|e| panic!("test table: {e:?}"));
        assert_eq!(column_type(&t, 0), ColumnType::Text);
        t.remove_row(0).unwrap_or_else(|e| panic!("remove_row: {e:?}"));
        t.push_row(vec![Value::Number(1.0)]).unwrap_or_else(|e| panic!("push_row: {e:?}"));
        t.push_row(vec![Value::Number(2.0)]).unwrap_or_else(|e| panic!("push_row: {e:?}"));
        t.reinfer_types();
        assert_eq!(column_type(&t, 0), ColumnType::Number);
    }
}
