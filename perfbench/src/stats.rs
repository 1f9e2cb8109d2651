//! Order statistics and the output digest.

/// Nearest-rank percentile: the smallest value with at least `q` of the
/// sample at or below it. `sorted` must be ascending; `None` when empty.
pub fn nearest_rank(sorted: &[f64], q: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = ((q.clamp(0.0, 1.0) * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    Some(sorted[rank - 1])
}

/// How many values lie strictly beyond the nearest-rank `q` percentile.
pub fn beyond(sorted: &[f64], q: f64) -> usize {
    match nearest_rank(sorted, q) {
        Some(p) => sorted.iter().filter(|&&v| v > p).count(),
        None => 0,
    }
}

/// Median of an unsorted sample (mean of the middle two for even sizes).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// FNV-1a 64-bit over everything written into it. `write!(d, "{samples:?}")`
/// hashes the same bytes as the golden-digest tests without building the
/// string.
pub struct Fnv1a(pub u64);

impl Default for Fnv1a {
    fn default() -> Fnv1a {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }
}

impl std::fmt::Write for Fnv1a {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        for &b in s.as_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
        Ok(())
    }
}

/// Digest of a value's `Debug` rendering.
pub fn debug_digest(value: &impl std::fmt::Debug) -> u64 {
    use std::fmt::Write;
    let mut d = Fnv1a::default();
    // Writing into the hasher cannot fail.
    let _ = write!(d, "{value:?}");
    d.0
}

/// Digest of samples: each sample's `Debug` fields, with its evidence
/// table replaced by the table's own digest. Samples share their input
/// table, so each distinct table is rendered once, not once per sample
/// (a 12k-row table renders to megabytes).
pub fn samples_digest(samples: &[uctr::Sample]) -> u64 {
    use std::fmt::Write;
    let mut tables: std::collections::BTreeMap<*const tabular::Table, u64> = Default::default();
    let mut d = Fnv1a::default();
    for s in samples {
        let table = *tables.entry(&*s.table as *const _).or_insert_with(|| debug_digest(&*s.table));
        let _ = write!(
            d,
            "{table:016x}|{:?}|{:?}|{:?}|{:?}|{:?}|{:?}|{:?};",
            s.context, s.text, s.label, s.evidence, s.program, s.answer_kind, s.topic
        );
    }
    d.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_matches_the_definition() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(nearest_rank(&v, 0.5), Some(5.0));
        assert_eq!(nearest_rank(&v, 0.9), Some(9.0));
        assert_eq!(nearest_rank(&v, 0.91), Some(10.0));
        assert_eq!(nearest_rank(&v, 0.0), Some(1.0));
        assert_eq!(nearest_rank(&v, 1.0), Some(10.0));
        assert_eq!(nearest_rank(&[3.0], 0.9), Some(3.0));
        assert_eq!(nearest_rank(&[], 0.5), None);
        let h: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(nearest_rank(&h, 0.9), Some(90.0));
        assert_eq!(beyond(&h, 0.9), 10);
        assert_eq!(beyond(&v, 0.9), 1);
    }

    #[test]
    fn median_handles_odd_even_and_unsorted() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn fnv1a_matches_known_vectors() {
        use std::fmt::Write;
        let mut d = Fnv1a::default();
        d.write_str("").unwrap();
        assert_eq!(d.0, 0xcbf2_9ce4_8422_2325);
        let mut d = Fnv1a::default();
        d.write_str("a").unwrap();
        assert_eq!(d.0, 0xaf63_dc4c_8601_ec8c);
        assert_eq!(debug_digest(&"ab"), {
            let mut d = Fnv1a::default();
            d.write_str("\"ab\"").unwrap();
            d.0
        });
    }
}
