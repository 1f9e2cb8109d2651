//! Seeded workload inputs.
//!
//! Every generator takes the benchmark's `--seed` and nothing else: the
//! same seed yields byte-identical inputs and different seeds yield
//! different cells. The tables' structure (shapes, which cells repeat,
//! which are null, how values order) comes from a fixed stream, and the
//! seed maps it through an isomorphism: it rotates the name and group
//! vocabularies and shifts every number by a constant. Equalities, orders
//! and nulls are the same under every seed, so the pipeline draws the same
//! programs and does the same work whatever the seed. Without that, one
//! program drawn more or less swings a run: on the wide tables a quadratic
//! `count ( distinct )` costs up to a second, a third of a pass.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tabular::Table;
use uctr::serve::{GenRequest, RequestSpec, WireTable};
use uctr::TableWithContext;

const NAMES: &[&str] = &[
    "Alder", "Birch", "Cedar", "Dahlia", "Elm", "Fern", "Ginkgo", "Hazel", "Iris", "Juniper",
    "Laurel", "Maple", "Nettle", "Oak", "Poplar", "Quince", "Rowan", "Sage", "Tulip", "Umber",
    "Violet", "Willow", "Yarrow", "Zinnia",
];
const GROUPS: &[&str] =
    &["north", "south", "east", "west", "central", "coastal", "alpine", "plains"];

/// Scale of the `batch_ragged` zoo: 18 inputs per unit, so 72 inputs.
pub const RAGGED_SCALE: usize = 4;

/// Tables per `serve_tcp` request.
const TABLES_PER_REQUEST: usize = 2;

/// The structure stream plus the seed's isomorphism.
struct Gen {
    rng: StdRng,
    names: usize,
    groups: usize,
    shift: i64,
}

impl Gen {
    fn new(seed: u64, stream: u64) -> Gen {
        Gen {
            rng: StdRng::seed_from_u64(stream),
            names: (seed % NAMES.len() as u64) as usize,
            groups: (seed / NAMES.len() as u64 % GROUPS.len() as u64) as usize,
            shift: (seed % 97) as i64,
        }
    }

    fn entity(&mut self, row: usize) -> String {
        let k = (self.rng.gen_range(0..NAMES.len()) + self.names) % NAMES.len();
        format!("{} {row}", NAMES[k])
    }

    fn group(&mut self) -> String {
        GROUPS[(self.rng.gen_range(0..GROUPS.len()) + self.groups) % GROUPS.len()].to_string()
    }

    fn number(&mut self, range: std::ops::Range<i64>) -> String {
        (self.rng.gen_range(range) + self.shift).to_string()
    }

    /// A number, or an empty (null) cell one time in `one_in`.
    fn number_or_null(&mut self, range: std::ops::Range<i64>, one_in: u32) -> String {
        if self.rng.gen_range(0..one_in) == 0 {
            String::new()
        } else {
            self.number(range)
        }
    }
}

fn grid_table(title: &str, grid: &[Vec<String>]) -> Table {
    let borrowed: Vec<Vec<&str>> =
        grid.iter().map(|r| r.iter().map(String::as_str).collect()).collect();
    Table::from_strings(title, &borrowed).unwrap_or_else(|e| panic!("input table {title}: {e}"))
}

/// Entity, low-cardinality group, and three numeric columns, one of which
/// has sprinkled nulls.
fn stats_table(g: &mut Gen, title: &str, rows: usize) -> Table {
    let mut grid: Vec<Vec<String>> =
        vec![vec!["name".into(), "region".into(), "score".into(), "games".into(), "margin".into()]];
    for r in 0..rows {
        grid.push(vec![
            g.entity(r),
            g.group(),
            g.number(10..95),
            g.number_or_null(1..40, 12),
            g.number(-20..60),
        ]);
    }
    grid_table(title, &grid)
}

/// Small table with a paragraph that describes an entity not in the table,
/// so Text-To-Table expansion succeeds on it.
fn expandable_table(g: &mut Gen, title: &str, rows: usize) -> TableWithContext {
    let mut grid: Vec<Vec<String>> = vec![vec!["name".into(), "points".into(), "wins".into()]];
    for r in 0..rows {
        grid.push(vec![g.entity(r), g.number(20..90), g.number(0..30)]);
    }
    let paragraph = format!(
        "The season ran long. Newcomer {} has a points of {} and a wins of {}. Attendance rose.",
        g.number(100..999),
        g.number(20..90),
        g.number(0..30),
    );
    TableWithContext {
        table: grid_table(title, &grid).into(),
        paragraph: Some(paragraph),
        topic: "zoo-expand".into(),
    }
}

/// The ragged zoo: per unit of `scale`, 2 degenerate, 6 tiny (3-5 rows),
/// 2 big (160 and 224 rows), 4 split-heavy (24-40 rows) and 4
/// paragraph-expandable (8-12 rows) inputs, in that order.
pub fn ragged(seed: u64, scale: usize) -> Vec<TableWithContext> {
    let scale = scale.max(1);
    let mut g = Gen::new(seed, 0x2003);
    let mut out = Vec::with_capacity(18 * scale);
    for k in 0..2 * scale {
        let t = if k % 2 == 0 {
            grid_table(&format!("empty {k}"), &[vec!["a".into(), "b".into()]])
        } else {
            grid_table(&format!("void {k}"), &[])
        };
        out.push(TableWithContext::bare(t));
    }
    for k in 0..6 * scale {
        out.push(TableWithContext::bare(stats_table(&mut g, &format!("tiny {k}"), 3 + k % 3)));
    }
    for k in 0..2 * scale {
        let rows = 160 + 64 * (k % 2);
        out.push(TableWithContext::bare(stats_table(&mut g, &format!("big {k}"), rows)));
    }
    for k in 0..4 * scale {
        let rows = 24 + 4 * (k % 5);
        out.push(TableWithContext::bare(stats_table(&mut g, &format!("split {k}"), rows)));
    }
    for k in 0..4 * scale {
        out.push(expandable_table(&mut g, &format!("expand {k}"), 8 + k % 5));
    }
    out
}

/// The stress shape: a 10k-row table with 14 columns and a 12k-row table
/// with 18 columns (entity, group, then numeric metrics with nulls).
pub fn wide(seed: u64) -> Vec<TableWithContext> {
    let mut g = Gen::new(seed, 0x57E5);
    (0..2)
        .map(|k| {
            let rows = 10_000 + 2_000 * k;
            let numeric_cols = 12 + 4 * k;
            let mut header: Vec<String> = vec!["name".into(), "region".into()];
            header.extend((0..numeric_cols).map(|c| format!("metric {c}")));
            let mut grid: Vec<Vec<String>> = Vec::with_capacity(rows + 1);
            grid.push(header);
            for r in 0..rows {
                let mut row: Vec<String> = Vec::with_capacity(numeric_cols + 2);
                row.push(g.entity(r));
                row.push(g.group());
                for _ in 0..numeric_cols {
                    row.push(g.number_or_null(-500..9500, 16));
                }
                grid.push(row);
            }
            TableWithContext::bare(grid_table(&format!("stress {k}"), &grid))
        })
        .collect()
}

/// The `serve_tcp` request rotation: a scale-1 ragged zoo cut into batches
/// of [`TABLES_PER_REQUEST`] tables, each batch asked once as `qa` and once
/// as `verification`. The batch count (9) is odd, so walking the rotation
/// alternates the task while every (batch, task) pair appears once. Request
/// seeds derive from the workload seed; the `id` is the rotation slot.
pub fn serve_rotation(seed: u64) -> Vec<GenRequest> {
    let wire: Vec<WireTable> = ragged(seed, 1).iter().map(WireTable::from_input).collect();
    let batches: Vec<Vec<WireTable>> =
        wire.chunks(TABLES_PER_REQUEST).map(<[WireTable]>::to_vec).collect();
    let mut rng = StdRng::seed_from_u64(seed ^ 0xC11E);
    (0..2 * batches.len())
        .map(|slot| {
            // The wire codec carries integers as i64: keep seeds well inside.
            let request_seed = rng.gen_range(0..1u64 << 32);
            let spec = if slot % 2 == 0 {
                RequestSpec::qa(request_seed)
            } else {
                RequestSpec::verification(request_seed)
            };
            GenRequest::generate(slot as u64, spec, batches[slot % batches.len()].clone())
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fingerprint(inputs: &[TableWithContext]) -> String {
        inputs.iter().map(|i| format!("{:?}|{:?}\n", i.table, i.paragraph)).collect()
    }

    #[test]
    fn ragged_is_deterministic_per_seed_and_differs_across_seeds() {
        let a = ragged(7, RAGGED_SCALE);
        assert_eq!(a.len(), 72);
        assert_eq!(fingerprint(&a), fingerprint(&ragged(7, RAGGED_SCALE)));
        assert_ne!(fingerprint(&a), fingerprint(&ragged(8, RAGGED_SCALE)));
        assert!(a.iter().any(|t| t.table.n_rows() == 224), "the big tables are missing");
        assert_eq!(a.iter().filter(|t| t.paragraph.is_some()).count(), 16);
    }

    #[test]
    fn ragged_shape_does_not_depend_on_the_seed() {
        let shape = |seed| -> Vec<(usize, usize)> {
            ragged(seed, 2).iter().map(|t| (t.table.n_rows(), t.table.n_cols())).collect()
        };
        assert_eq!(shape(1), shape(2));
    }

    #[test]
    fn seeds_keep_nulls_and_orders() {
        let (a, b) = (ragged(1, 1), ragged(2, 1));
        for (x, y) in a.iter().zip(&b) {
            for c in 0..x.table.n_cols() {
                let col = |t: &Table| -> Vec<Option<String>> {
                    (0..t.n_rows()).map(|r| t.cell(r, c).map(|v| v.to_string())).collect()
                };
                let (cx, cy) = (col(&x.table), col(&y.table));
                for i in 0..cx.len() {
                    assert_eq!(cx[i].as_deref() == Some(""), cy[i].as_deref() == Some(""));
                    for j in 0..cx.len() {
                        assert_eq!(cx[i] == cx[j], cy[i] == cy[j], "equality pattern moved");
                    }
                }
            }
        }
    }

    #[test]
    fn wide_is_deterministic_per_seed_and_differs_across_seeds() {
        let a = wide(3);
        assert_eq!(
            a.iter().map(|t| (t.table.n_rows(), t.table.n_cols())).collect::<Vec<_>>(),
            [(10_000, 14), (12_000, 18)]
        );
        assert!(a.iter().zip(wide(3)).all(|(x, y)| x.table == y.table));
        assert!(a.iter().zip(wide(4)).any(|(x, y)| x.table != y.table));
    }

    #[test]
    fn rotation_alternates_tasks_and_covers_every_batch_twice() {
        let r = serve_rotation(11);
        assert_eq!(r.len(), 18);
        assert_eq!(r, serve_rotation(11));
        assert_ne!(r, serve_rotation(12));
        for (slot, pair) in r.windows(2).enumerate() {
            assert_ne!(pair[0].spec.task, pair[1].spec.task, "slot {slot} repeats its task");
        }
        for batch in 0..9 {
            let tasks: Vec<&str> = r
                .iter()
                .filter(|q| q.tables == r[batch].tables)
                .map(|q| q.spec.task.as_str())
                .collect();
            assert_eq!(tasks.len(), 2);
            assert_ne!(tasks[0], tasks[1]);
        }
        assert!(r.iter().any(|q| q.tables.iter().any(|t| t.rows.len() > 160)));
    }
}
