//! Abstract interpretation of SQL templates over the `tabular::absdom`
//! lattices.
//!
//! [`interpret`] evaluates a template's WHERE clause per-row over Kleene
//! logic and tracks the cardinality of the surviving row set, joined over
//! all hole assignments and tables: a column placeholder denotes "any cell
//! of some column" (possibly null), a `valN` placeholder "some non-null
//! cell of its paired column" — and, because SQL value holes are keyed by
//! index (one sampled `Value` substituted at every occurrence), repeated
//! `valN` denote the *same* value, unlike logical forms.
//!
//! The executor's exact comparison semantics drive the transfer functions
//! (the compiled condition evaluator in `crate::exec`): a null on either side is `false`; `=` /
//! `!=` use `loosely_equals` (near-equality collapse ⇒ no always-distinct
//! conviction inside the tolerance band); `<` / `>` / `<=` / `>=` use
//! `compare_lt`, which is *plain* `<` after numeric coercion, so strict
//! interval separation decides them — but only when both sides always
//! carry numeric readings (text operands fall into the `Value` total
//! order, which the pass does not model).
//!
//! Convictions:
//!
//! * **A001** — constant output: every bare-column select item is
//!   `=`-pinned to a literal/value placeholder on the top-level `and`
//!   spine of WHERE (each emitted cell then loosely equals a constant
//!   already fixed by the query text), or the WHERE clause is statically
//!   always false (the row set is provably empty).
//! * **A002** — a dead `and`/`or` branch: one side's truth is statically
//!   constant.
//! * **A003** — a vacuous atom: both sides are the same expression
//!   (`c1 = c1` can only test nullness) or both are literals (decidable
//!   without reading any row).

use crate::ast::{AggFunc, CmpOp, ColumnRef, Cond, Expr, SelectItem, SelectStmt};
use crate::template::SqlTemplate;
use tabular::absdom::{AbsSummary, Card, Interval, Kleene};
use tabular::{nearly_equal, TemplateIssue, Value};

/// The abstract layer [`crate::analysis::analyze`] merges into its
/// `TemplateAnalysis`.
#[derive(Debug, Clone, PartialEq)]
pub struct AbsResult {
    pub summary: AbsSummary,
    pub degeneracies: Vec<TemplateIssue>,
    pub survival: f64,
}

/// Abstract scalar: interval of possible `Value::as_number` readings, plus
/// whether a non-numeric non-null value (text) or a null is possible.
#[derive(Debug, Clone, Copy, PartialEq)]
struct AbsScalar {
    num: Interval,
    non_num: bool,
    can_null: bool,
}

impl AbsScalar {
    /// Any cell of any column, nulls included.
    const CELL: AbsScalar = AbsScalar { num: Interval::FINITE, non_num: true, can_null: true };
    /// A sampled value placeholder: drawn from its paired column's
    /// non-null values.
    const SAMPLED: AbsScalar = AbsScalar { num: Interval::FINITE, non_num: true, can_null: false };

    fn of_literal(v: &Value) -> AbsScalar {
        AbsScalar {
            num: v.as_number().map(Interval::point).unwrap_or(Interval::EMPTY),
            non_num: !v.is_null() && v.as_number().is_none(),
            can_null: v.is_null(),
        }
    }

    /// Both sides always coerce to numbers (so `compare_lt` takes the
    /// numeric branch) — nulls are fine, they short-circuit to `false`.
    fn numeric_only(self) -> bool {
        !self.non_num
    }
}

fn abs_expr(e: &Expr) -> AbsScalar {
    match e {
        Expr::Column(_) => AbsScalar::CELL,
        Expr::Literal(v) => AbsScalar::of_literal(v),
        Expr::ValuePlaceholder(_) => AbsScalar::SAMPLED,
        Expr::Binary { op, lhs, rhs } => {
            let a = abs_expr(lhs);
            let b = abs_expr(rhs);
            // A non-numeric operand makes the whole expression Null; a
            // finite pair computes IEEE arithmetic whose non-finite
            // results Value::number also turns into Null.
            use crate::ast::ArithOp;
            let raw = match op {
                ArithOp::Add => a.num.add(b.num),
                ArithOp::Sub => a.num.sub(b.num),
                ArithOp::Mul => a.num.mul(b.num),
                ArithOp::Div => a.num.div(b.num),
            };
            let num = if raw.is_empty() {
                Interval::EMPTY
            } else {
                Interval { lo: raw.lo.max(f64::MIN), hi: raw.hi.min(f64::MAX) }
            };
            let overflow = !raw.is_empty() && (raw.lo < f64::MIN || raw.hi > f64::MAX);
            AbsScalar {
                num,
                non_num: false,
                can_null: a.can_null
                    || b.can_null
                    || a.non_num
                    || b.non_num
                    || a.num.is_empty()
                    || b.num.is_empty()
                    || overflow,
            }
        }
    }
}

/// Can `loosely_equals` hold for some pair? Boundary-pair check is
/// exhaustive: `nearly_equal`'s relative tolerance grows strictly slower
/// than the gap.
fn maybe_loose_equal(a: AbsScalar, b: AbsScalar) -> bool {
    if a.non_num || b.non_num {
        return true;
    }
    let (x, y) = (a.num, b.num);
    if x.is_empty() || y.is_empty() {
        return false;
    }
    if x.hi < y.lo {
        nearly_equal(x.hi, y.lo)
    } else if y.hi < x.lo {
        nearly_equal(y.hi, x.lo)
    } else {
        true
    }
}

/// `compare_lt(a, b)` (plain `<` after numeric coercion) decided by the
/// intervals, when both sides are numeric-or-null.
fn lt_kleene(a: AbsScalar, b: AbsScalar) -> Kleene {
    if !(a.numeric_only() && b.numeric_only()) {
        // Text falls into the Value total order; not modeled.
        return Kleene::Unknown;
    }
    if a.num.is_empty() || b.num.is_empty() {
        // One side is always null; the atom never reaches compare_lt.
        return Kleene::Unknown;
    }
    if a.num.hi < b.num.lo {
        Kleene::True
    } else if a.num.lo >= b.num.hi {
        Kleene::False
    } else {
        Kleene::Unknown
    }
}

/// Whether the two expressions provably evaluate to the same `Value` on
/// every row: syntactic identity suffices (columns read the same cell,
/// value placeholders are index-keyed, literals are constants; binary
/// arithmetic is deterministic).
fn same_expr(a: &Expr, b: &Expr) -> bool {
    a == b
}

/// The per-row Kleene truth of one comparison atom.
fn atom_kleene(op: CmpOp, lhs: &Expr, rhs: &Expr) -> Kleene {
    let a = abs_expr(lhs);
    let b = abs_expr(rhs);
    let may_null = a.can_null || b.can_null;
    if same_expr(lhs, rhs) {
        // x op x: non-null rows are an exact tie (loosely_equals is
        // reflexive, compare_lt(x, x) is false); null rows are false.
        return match op {
            CmpOp::Eq | CmpOp::LtEq | CmpOp::GtEq => {
                if may_null {
                    Kleene::Unknown
                } else {
                    Kleene::True
                }
            }
            CmpOp::NotEq | CmpOp::Lt | CmpOp::Gt => Kleene::False,
        };
    }
    if let (Expr::Literal(x), Expr::Literal(y)) = (lhs, rhs) {
        // Fully concrete: replay the executor's comparison.
        if x.is_null() || y.is_null() {
            return Kleene::False;
        }
        let lt = |p: &Value, q: &Value| match (p.as_number(), q.as_number()) {
            (Some(m), Some(n)) => m < n,
            _ => p < q,
        };
        return Kleene::from_bool(match op {
            CmpOp::Eq => x.loosely_equals(y),
            CmpOp::NotEq => !x.loosely_equals(y),
            CmpOp::Lt => lt(x, y),
            CmpOp::Gt => lt(y, x),
            CmpOp::LtEq => !lt(y, x),
            CmpOp::GtEq => !lt(x, y),
        });
    }
    match op {
        CmpOp::Eq => {
            if !maybe_loose_equal(a, b) {
                Kleene::False
            } else {
                Kleene::Unknown
            }
        }
        CmpOp::NotEq => {
            if !maybe_loose_equal(a, b) && !may_null && a.numeric_only() && b.numeric_only() {
                Kleene::True
            } else {
                Kleene::Unknown
            }
        }
        CmpOp::Lt => null_guard(lt_kleene(a, b), may_null),
        CmpOp::Gt => null_guard(lt_kleene(b, a), may_null),
        CmpOp::LtEq => null_guard(lt_kleene(b, a).not(), may_null),
        CmpOp::GtEq => null_guard(lt_kleene(a, b).not(), may_null),
    }
}

/// Nulls compare false, so a possible null demotes a constant-True verdict
/// to Unknown (constant-False survives: false either way).
fn null_guard(k: Kleene, may_null: bool) -> Kleene {
    if k == Kleene::True && may_null {
        Kleene::Unknown
    } else {
        k
    }
}

/// The per-row truth of a condition tree, flagging vacuous atoms (A003)
/// and dead branches (A002) along the way.
fn cond_kleene(c: &Cond, path: &str, degeneracies: &mut Vec<TemplateIssue>) -> Kleene {
    match c {
        Cond::Compare { op, lhs, rhs } => {
            if same_expr(lhs, rhs) {
                degeneracies.push(TemplateIssue::new(
                    "A003",
                    path.to_string(),
                    format!(
                        "atom `{lhs} {op} {rhs}` compares an expression with itself; it can \
                         only test for nulls"
                    ),
                ));
            } else if matches!((lhs, rhs), (Expr::Literal(_), Expr::Literal(_))) {
                degeneracies.push(TemplateIssue::new(
                    "A003",
                    path.to_string(),
                    format!("atom `{lhs} {op} {rhs}` compares two literals; no row is read"),
                ));
            }
            atom_kleene(*op, lhs, rhs)
        }
        Cond::And(x, y) | Cond::Or(x, y) => {
            let is_and = matches!(c, Cond::And(..));
            let name = if is_and { "and" } else { "or" };
            let a = cond_kleene(x, &format!("{path}.{name}[0]"), degeneracies);
            let b = cond_kleene(y, &format!("{path}.{name}[1]"), degeneracies);
            for (slot, k) in [(0usize, a), (1usize, b)] {
                if k.is_constant() {
                    degeneracies.push(TemplateIssue::new(
                        "A002",
                        format!("{path}.{name}[{slot}]"),
                        format!("`{name}` branch is statically always {k}; the branch is dead"),
                    ));
                }
            }
            if is_and {
                a.and(b)
            } else {
                a.or(b)
            }
        }
    }
}

/// The atoms on the top-level `and` spine of the WHERE clause: the
/// conjuncts that constrain *every* surviving row.
fn and_spine<'s>(c: &'s Cond, out: &mut Vec<&'s Cond>) {
    match c {
        Cond::And(a, b) => {
            and_spine(a, out);
            and_spine(b, out);
        }
        other => out.push(other),
    }
}

/// Whether the column is `=`-pinned to a constant (literal or sampled
/// value placeholder) by some spine conjunct.
fn pinned(col: &ColumnRef, spine: &[&Cond]) -> bool {
    spine.iter().any(|c| {
        let Cond::Compare { op: CmpOp::Eq, lhs, rhs } = c else { return false };
        let is_const = |e: &Expr| matches!(e, Expr::Literal(_) | Expr::ValuePlaceholder(_));
        matches!(lhs, Expr::Column(c2) if c2 == col) && is_const(rhs)
            || matches!(rhs, Expr::Column(c2) if c2 == col) && is_const(lhs)
    })
}

/// Funnel-survival estimate from the statement's construct inventory.
fn survival_of(stmt: &SelectStmt, where_truth: Kleene) -> f64 {
    let mut s = 0.95;
    if let Some(w) = &stmt.where_clause {
        fn atoms(c: &Cond) -> usize {
            match c {
                Cond::Compare { .. } => 1,
                Cond::And(a, b) | Cond::Or(a, b) => atoms(a) + atoms(b),
            }
        }
        // Each filtering atom risks an EmptyResult discard.
        s *= 0.93f64.powi(atoms(w) as i32);
    }
    for item in &stmt.items {
        if let SelectItem::Aggregate { func: AggFunc::Sum | AggFunc::Avg, .. } = item {
            // Sum/Avg over zero numeric cells answer Null (EmptyAnswer).
            s *= 0.95;
        }
    }
    if where_truth == Kleene::False {
        // Provably empty row set: only COUNT-style answers survive.
        s = 0.02;
    }
    s.clamp(0.0, 1.0)
}

/// Abstractly interprets a (well-formed) template. See the module docs.
pub fn interpret(template: &SqlTemplate) -> AbsResult {
    let stmt = template.stmt();
    let mut degeneracies = Vec::new();

    let where_truth = match &stmt.where_clause {
        Some(c) => cond_kleene(c, "where", &mut degeneracies),
        None => Kleene::True,
    };

    // Row-set cardinality: any subset of an arbitrary table survives a
    // filter; a constant-false WHERE keeps nothing.
    let mut rows = if where_truth == Kleene::False { Card::EMPTY_ONLY } else { Card::ANY };
    if stmt.limit == Some(1) {
        rows = rows.limit_one();
    }

    if where_truth == Kleene::False {
        degeneracies.push(TemplateIssue::new(
            "A001",
            "where",
            "where clause is statically always false; the result set is provably empty",
        ));
    }

    // Constant-output conviction: every bare-column select item reads a
    // column that a top-level `and` conjunct pins with `=` to a constant.
    if let Some(w) = &stmt.where_clause {
        let mut spine = Vec::new();
        and_spine(w, &mut spine);
        let bare: Vec<&ColumnRef> = stmt
            .items
            .iter()
            .filter_map(|i| match i {
                SelectItem::Expr(Expr::Column(c)) => Some(c),
                _ => None,
            })
            .collect();
        if !bare.is_empty()
            && bare.len() == stmt.items.len()
            && bare.iter().all(|c| pinned(c, &spine))
        {
            degeneracies.push(TemplateIssue::new(
                "A001",
                "select",
                "every output column is =-pinned to a query constant; each emitted cell \
                 loosely equals a value already fixed by the query text",
            ));
        }
    }

    // The numeric readings of emitted cells: Values are never non-finite
    // (parse/number constructors), so FINITE encloses every answer; a
    // lone COUNT(*) answers the row count exactly.
    let value = match stmt.items.as_slice() {
        [SelectItem::Aggregate { func: AggFunc::Count, arg: None, .. }] => rows.count_interval(),
        _ => Interval::FINITE,
    };

    let summary = AbsSummary {
        value,
        // SQL programs answer with cells, not truth values.
        truth: Kleene::Never,
        rows,
    };
    AbsResult { summary, degeneracies, survival: survival_of(stmt, where_truth) }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(text: &str) -> SqlTemplate {
        SqlTemplate::parse(text).unwrap_or_else(|e| panic!("template {text:?}: {e}"))
    }

    fn run(text: &str) -> AbsResult {
        interpret(&parse(text))
    }

    #[test]
    fn healthy_templates_have_no_convictions() {
        for t in [
            "select c1 from w where c2_number > val1",
            "select c1 from w where c2_number > val1 and c3_date = val2",
            "select count ( * ) from w where c1 = val1",
            "select c1 from w order by c2_number desc limit 1",
            "select sum ( c1_number ) from w where c2 = val1",
        ] {
            let r = run(t);
            assert!(r.degeneracies.is_empty(), "{t}: {:?}", r.degeneracies);
            assert!(r.survival > 0.0 && r.survival <= 1.0, "{t}: {}", r.survival);
        }
    }

    #[test]
    fn echo_select_is_constant_output() {
        for t in [
            "select c1_number from w where c1_number = val1",
            "select c1_date from w where c1_date = val1 order by c1_date desc limit 1",
            "select c1_number from w where c1_number = val1 order by c2_number asc limit 1",
        ] {
            let r = run(t);
            assert!(
                r.degeneracies.iter().any(|d| d.code == "A001" && d.locus == "select"),
                "{t}: {:?}",
                r.degeneracies
            );
        }
    }

    #[test]
    fn non_echo_selects_are_not_convicted() {
        // The emitted column differs from the pinned one.
        let r = run("select c1 from w where c2 = val1");
        assert!(r.degeneracies.is_empty(), "{:?}", r.degeneracies);
        // Ordered comparison does not pin.
        let o = run("select c1_number from w where c1_number > val1");
        assert!(o.degeneracies.is_empty(), "{:?}", o.degeneracies);
        // An Or-spine does not pin either.
        let or = run("select c1 from w where ( c1 = val1 or c2 = val2 )");
        assert!(!or.degeneracies.iter().any(|d| d.code == "A001"), "{:?}", or.degeneracies);
        // Aggregates are not echoes.
        let agg = run("select count ( * ) from w where c1 = val1");
        assert!(agg.degeneracies.is_empty(), "{:?}", agg.degeneracies);
    }

    #[test]
    fn self_comparison_atom_is_vacuous() {
        let r = run("select c1 from w where c2 = c2");
        assert!(r.degeneracies.iter().any(|d| d.code == "A003"), "{:?}", r.degeneracies);
        // x = x is NOT always-true (nulls compare false), so no A001.
        assert!(!r.degeneracies.iter().any(|d| d.code == "A001"), "{:?}", r.degeneracies);
    }

    #[test]
    fn self_inequality_atom_is_always_false() {
        let r = run("select c1 from w where c2 != c2");
        assert!(r.degeneracies.iter().any(|d| d.code == "A003"));
        assert!(r.degeneracies.iter().any(|d| d.code == "A001" && d.locus == "where"));
        assert!(r.summary.rows.is_always_empty());
        assert!(r.survival < 0.1);
    }

    #[test]
    fn literal_atoms_are_vacuous_and_decide_branches() {
        let r = run("select c1 from w where ( 1 = 1 or c2 = val1 )");
        assert!(r.degeneracies.iter().any(|d| d.code == "A003"), "{:?}", r.degeneracies);
        assert!(r.degeneracies.iter().any(|d| d.code == "A002"), "{:?}", r.degeneracies);
        // or(true, _) keeps every row: not empty, no A001.
        assert!(!r.degeneracies.iter().any(|d| d.code == "A001"));

        let dead = run("select c1 from w where 1 = 2 and c2 = val1");
        assert!(dead.degeneracies.iter().any(|d| d.code == "A002"));
        assert!(dead.degeneracies.iter().any(|d| d.code == "A001" && d.locus == "where"));
        assert!(dead.summary.rows.is_always_empty());
    }

    #[test]
    fn count_star_reads_the_cardinality_lattice() {
        let all = run("select count ( * ) from w");
        assert_eq!(all.summary.value, Interval::new(0.0, f64::INFINITY));
        let none = run("select count ( * ) from w where c1 != c1");
        assert_eq!(none.summary.value, Interval::point(0.0));
    }

    #[test]
    fn limit_one_truncates_cardinality() {
        let r = run("select c1 from w order by c2_number desc limit 1");
        assert!(!r.summary.rows.can_many);
        assert!(r.summary.rows.can_one);
    }

    #[test]
    fn survival_orders_construct_risk() {
        let light = run("select c1 from w order by c2_number desc limit 1").survival;
        let filtered = run("select c1 from w where c2 = val1").survival;
        let heavy = run("select c1 from w where c2 = val1 and c3_number > val2").survival;
        assert!(light > filtered && filtered > heavy, "{light} {filtered} {heavy}");
    }
}
