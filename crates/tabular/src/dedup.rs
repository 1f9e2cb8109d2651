//! First-occurrence dedup under [`Value::loosely_equals`].
//!
//! Program executors dedup values the way a pairwise scan would: a value
//! is a duplicate when it loosely equals one already kept, and it belongs
//! to the *first* kept value it loosely equals. Done naively that is one
//! `loosely_equals` per kept value, quadratic in the distinct values of a
//! column. [`LooseIndex`] answers the same question in `O(log n)`:
//!
//! - `Text` only ever loosely equals `Text`, case-insensitively, which is
//!   an equivalence relation; a hash map keyed by the ASCII-lowercased text
//!   decides it outright.
//! - Every other non-null variant has a numeric reading
//!   ([`Value::as_number`]), and two values can only loosely equal when
//!   their readings are within a relative epsilon. Those values live in an
//!   ordered map keyed by their reading; a lookup scans the epsilon window
//!   and confirms each candidate with `loosely_equals` itself. The relation
//!   is not transitive (two kept values may both match a third; distinct
//!   `Date`s may have nearly equal ordinals), so the confirmation and the
//!   smallest-index rule keep the answer identical to the pairwise scan.
//! - `Null` loosely equals only `Null`.
//!
//! Readings that break the window argument are handled exactly too: `NaN`
//! loosely equals nothing (itself included), and an infinite reading is
//! within "epsilon" of every other non-`NaN` reading. `Value::Number` is a
//! public variant and a SQL literal of 309+ digits lexes to infinity, so
//! neither is ruled out by construction.

use crate::value::Value;
use rustc_hash::FxHashMap;
use std::collections::BTreeMap;
use std::hash::{Hash, Hasher};

/// A first-occurrence index of values under [`Value::loosely_equals`].
///
/// Each inserted value either opens a new class (numbered `0, 1, …` in
/// insertion order) or joins the lowest-numbered class whose first value
/// it loosely equals — exactly what a pairwise scan over the kept values
/// returns. The index borrows the values it keeps.
#[derive(Debug, Default)]
pub struct LooseIndex<'a> {
    len: usize,
    null: Option<usize>,
    texts: FxHashMap<Folded<'a>, usize>,
    /// Non-`NaN` numeric readings; the class number breaks key ties.
    nums: BTreeMap<(u64, usize), &'a Value>,
    /// How many keys in `nums` are infinite.
    infinite: usize,
}

impl<'a> LooseIndex<'a> {
    /// The class of the first kept value that `v` loosely equals, if any.
    fn find(&self, v: &Value) -> Option<usize> {
        match v {
            Value::Null => self.null,
            Value::Text(t) => self.texts.get(&Folded(t)).copied(),
            _ => v.as_number().and_then(|n| self.find_numeric(v, n)),
        }
    }

    /// Finds `v`'s class, opening a new one when no kept value loosely
    /// equals it. Returns the class and whether it is new.
    pub fn insert(&mut self, v: &'a Value) -> (usize, bool) {
        if let Some(class) = self.find(v) {
            return (class, false);
        }
        let class = self.len;
        self.len += 1;
        match v {
            Value::Null => self.null = Some(class),
            Value::Text(t) => {
                self.texts.insert(Folded(t), class);
            }
            _ => {
                if let Some(n) = v.as_number().filter(|n| !n.is_nan()) {
                    self.nums.insert((num_key(n), class), v);
                    if n.is_infinite() {
                        self.infinite += 1;
                    }
                }
            }
        }
        (class, true)
    }

    fn find_numeric(&self, v: &Value, n: f64) -> Option<usize> {
        if n.is_nan() {
            return None;
        }
        if n.is_infinite() {
            return self.first_match(self.nums.iter(), v);
        }
        // `nearly_equal(a, b)` bounds |a - b| by 1e-6 * max(|a|, |b|, 1),
        // so every match lies inside this slightly widened window.
        let w = 2e-6 * n.abs().max(1.0) + f64::EPSILON;
        let window = self.nums.range((num_key(n - w), 0)..=(num_key(n + w), usize::MAX));
        let found = self.first_match(window, v);
        if self.infinite == 0 {
            return found;
        }
        let low = self.nums.range(..=(num_key(f64::NEG_INFINITY), usize::MAX));
        let high = self.nums.range((num_key(f64::INFINITY), 0)..);
        [found, self.first_match(low, v), self.first_match(high, v)].into_iter().flatten().min()
    }

    /// Lowest class among `candidates` whose kept value loosely equals `v`.
    fn first_match<'m>(
        &self,
        candidates: impl Iterator<Item = (&'m (u64, usize), &'m &'a Value)>,
        v: &Value,
    ) -> Option<usize>
    where
        'a: 'm,
    {
        candidates.filter(|(_, kept)| kept.loosely_equals(v)).map(|(&(_, class), _)| class).min()
    }
}

/// A text keyed by its ASCII-lowercased form, without allocating it.
#[derive(Debug, Clone, Copy)]
struct Folded<'a>(&'a str);

impl PartialEq for Folded<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.0.eq_ignore_ascii_case(other.0)
    }
}

impl Eq for Folded<'_> {}

impl Hash for Folded<'_> {
    fn hash<H: Hasher>(&self, state: &mut H) {
        for chunk in self.0.as_bytes().chunks(8) {
            let mut word = [0u8; 8];
            for (w, b) in word.iter_mut().zip(chunk) {
                *w = b.to_ascii_lowercase();
            }
            state.write_u64(u64::from_le_bytes(word));
        }
        state.write_usize(self.0.len());
    }
}

/// Maps an `f64` to a `u64` that sorts in the IEEE total order, the order
/// of `f64::total_cmp` (`-0.0` just below `0.0`; both fall in every window
/// around zero).
fn num_key(n: f64) -> u64 {
    let bits = n.to_bits();
    if bits >> 63 == 1 {
        !bits
    } else {
        bits | 1 << 63
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Date;

    /// The reference: first kept value that loosely equals `v`.
    fn pairwise(kept: &[&Value], v: &Value) -> Option<usize> {
        kept.iter().position(|k| k.loosely_equals(v))
    }

    fn assert_matches_pairwise(values: &[Value]) {
        let mut index = LooseIndex::default();
        let mut kept: Vec<&Value> = Vec::new();
        for v in values {
            let expected = pairwise(&kept, v);
            let (class, fresh) = index.insert(v);
            match expected {
                Some(c) => assert_eq!((class, fresh), (c, false), "insert {v:?} after {kept:?}"),
                None => {
                    assert_eq!((class, fresh), (kept.len(), true), "insert {v:?} after {kept:?}");
                    kept.push(v);
                }
            }
        }
    }

    fn date(y: i32, m: u8, d: u8) -> Value {
        Value::Date(Date::new(y, m, d).unwrap_or_else(|| panic!("date {y}-{m}-{d}")))
    }

    #[test]
    fn num_key_follows_total_order() {
        let xs = [f64::NEG_INFINITY, -1e300, -2.5, -1e-300, -0.0, 0.0, 1e-300, 3.0, f64::INFINITY];
        for pair in xs.windows(2) {
            assert!(num_key(pair[0]) < num_key(pair[1]), "{pair:?}");
        }
    }

    #[test]
    fn edge_cases_match_pairwise_scan() {
        let values = vec![
            Value::Number(5.0),
            Value::Number(5.000_000_1),
            Value::Number(5.1),
            Value::Number(0.0),
            Value::Number(-0.0),
            Value::Bool(false),
            Value::Bool(true),
            Value::Number(1.000_000_5),
            Value::text("Apple"),
            Value::text("APPLE"),
            Value::text("apple pie"),
            date(2020, 3, 1),
            date(2020, 3, 2),
            date(2020, 3, 1),
            Value::Number(date(2020, 3, 2).as_number().unwrap_or(0.0)),
            Value::Null,
            Value::Null,
            Value::Number(1e6),
            Value::Number(1e6 + 0.5),
            Value::Number(1e6 + 1.0),
            // Non-transitive chain: the middle value matches both ends.
            Value::Number(100.0),
            Value::Number(100.000_15),
            Value::Number(100.000_08),
        ];
        assert_matches_pairwise(&values);
    }

    #[test]
    fn non_finite_readings_match_pairwise_scan() {
        let values = vec![
            Value::Number(f64::NAN),
            Value::Number(f64::NAN),
            Value::Number(f64::INFINITY),
            Value::Number(3.0),
            Value::Number(f64::NEG_INFINITY),
            Value::text("x"),
            Value::Number(f64::INFINITY),
            Value::Bool(true),
        ];
        assert_matches_pairwise(&values);
        // An infinity kept first swallows every later numeric reading.
        let values = vec![
            Value::Number(f64::NEG_INFINITY),
            Value::Number(7.0),
            Value::Number(-1e300),
            date(1999, 1, 1),
            Value::Number(f64::NAN),
        ];
        assert_matches_pairwise(&values);
    }
}
