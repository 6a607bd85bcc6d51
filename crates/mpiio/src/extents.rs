//! A sorted, coalescing set of byte extents.
//!
//! Used by the two-phase collective implementation to track which parts of
//! an aggregator's file domain were actually filled (so holes are not
//! written), and reused by TCIO for its level-2 segment validity tracking.

/// Sorted, non-overlapping, coalesced `(offset, len)` runs.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ExtentSet {
    runs: Vec<(u64, u64)>,
}

impl ExtentSet {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn is_empty(&self) -> bool {
        self.runs.is_empty()
    }

    /// Number of distinct runs.
    pub fn len(&self) -> usize {
        self.runs.len()
    }

    /// Total bytes covered.
    pub fn covered(&self) -> u64 {
        self.runs.iter().map(|&(_, l)| l).sum()
    }

    pub fn runs(&self) -> &[(u64, u64)] {
        &self.runs
    }

    /// Smallest offset covered, if any.
    pub fn min(&self) -> Option<u64> {
        self.runs.first().map(|&(o, _)| o)
    }

    /// One past the largest offset covered, if any.
    pub fn max(&self) -> Option<u64> {
        self.runs.last().map(|&(o, l)| o + l)
    }

    /// Insert `[off, off+len)`, merging with overlapping/adjacent runs.
    pub fn insert(&mut self, off: u64, len: u64) {
        if len == 0 {
            return;
        }
        let end = off + len;
        // The first run the range reaches (every run before it ends short
        // of `off`); candidates for merging start here.
        let at = self.runs.partition_point(|&(o, l)| o + l < off);
        // What an ascending piece list does: append past every run, or
        // grow the one run it touches — both in place.
        let next_apart = self.runs.get(at + 1).is_none_or(|&(o, _)| o > end);
        match self.runs.get_mut(at) {
            None => self.runs.push((off, len)),
            Some(run) if run.0 <= end && next_apart => {
                let start = run.0.min(off);
                *run = (start, end.max(run.0 + run.1) - start);
            }
            Some(_) => self.merge(at, off, end),
        }
    }

    /// [`ExtentSet::insert`] in general: replace the runs from `at` on that
    /// `[off, end)` touches — none, one or many — with their union.
    fn merge(&mut self, at: usize, off: u64, end: u64) {
        let (mut upto, mut new_off, mut new_end) = (at, off, end);
        while upto < self.runs.len() && self.runs[upto].0 <= end {
            new_off = new_off.min(self.runs[upto].0);
            new_end = new_end.max(self.runs[upto].0 + self.runs[upto].1);
            upto += 1;
        }
        let union = std::iter::once((new_off, new_end - new_off));
        self.runs.splice(at..upto, union);
    }

    /// Does the set fully cover `[off, off+len)`?
    pub fn contains(&self, off: u64, len: u64) -> bool {
        if len == 0 {
            return true;
        }
        let idx = self.runs.partition_point(|&(o, l)| o + l <= off);
        match self.runs.get(idx) {
            Some(&(o, l)) => o <= off && off + len <= o + l,
            None => false,
        }
    }

    /// Remove everything (reuse without reallocating).
    pub fn clear(&mut self) {
        self.runs.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_disjoint_keeps_sorted() {
        let mut s = ExtentSet::new();
        s.insert(10, 5);
        s.insert(0, 5);
        s.insert(20, 5);
        assert_eq!(s.runs(), &[(0, 5), (10, 5), (20, 5)]);
        assert_eq!(s.covered(), 15);
        assert_eq!(s.min(), Some(0));
        assert_eq!(s.max(), Some(25));
    }

    #[test]
    fn adjacent_runs_coalesce() {
        let mut s = ExtentSet::new();
        s.insert(0, 5);
        s.insert(5, 5);
        assert_eq!(s.runs(), &[(0, 10)]);
    }

    #[test]
    fn overlapping_runs_merge() {
        let mut s = ExtentSet::new();
        s.insert(0, 10);
        s.insert(5, 10);
        assert_eq!(s.runs(), &[(0, 15)]);
    }

    #[test]
    fn bridging_insert_merges_many() {
        let mut s = ExtentSet::new();
        s.insert(0, 2);
        s.insert(4, 2);
        s.insert(8, 2);
        s.insert(1, 8);
        assert_eq!(s.runs(), &[(0, 10)]);
    }

    #[test]
    fn zero_length_is_noop() {
        let mut s = ExtentSet::new();
        s.insert(5, 0);
        assert!(s.is_empty());
        assert!(s.contains(5, 0));
    }

    #[test]
    fn contains_checks_full_coverage() {
        let mut s = ExtentSet::new();
        s.insert(0, 10);
        s.insert(20, 10);
        assert!(s.contains(0, 10));
        assert!(s.contains(2, 5));
        assert!(!s.contains(5, 10));
        assert!(!s.contains(15, 2));
        assert!(s.contains(25, 5));
        assert!(!s.contains(25, 6));
    }

    /// The in-place cases of `insert` leave what the general merge would:
    /// random inserts — ascending piece lists from interleaved sources
    /// among them — into one set through `insert`, into another through
    /// `merge` alone.
    #[test]
    fn in_place_inserts_match_the_general_merge() {
        use rand::{RngExt, SeedableRng};
        let mut grown = 0;
        for seed in 0..200u64 {
            let mut rng = rand::rngs::StdRng::seed_from_u64(0xe47 ^ seed);
            let mut pick = |lo: u64, hi: u64| lo + rng.next_u64() % (hi - lo);
            let (mut fast, mut general) = (ExtentSet::new(), ExtentSet::new());
            let (sources, block, scattered) = (pick(1, 6), pick(1, 9), pick(0, 2) == 0);
            for src in 0..sources {
                for i in 0..pick(1, 40) {
                    let (off, len) = match scattered {
                        true => (pick(0, 400), pick(0, 30)),
                        false => ((i * sources + src) * block + pick(0, 2), block),
                    };
                    let before = fast.len();
                    fast.insert(off, len);
                    // Only growing exactly one run keeps the count.
                    grown += (fast.len() == before && len > 0) as usize;
                    if len > 0 {
                        let at = general.runs.partition_point(|&(o, l)| o + l < off);
                        general.merge(at, off, off + len);
                    }
                    assert_eq!(fast, general, "seed {seed}: insert ({off}, {len})");
                }
            }
        }
        assert!(grown > 1000, "only {grown} inserts grew a run in place");
    }

    #[test]
    fn clear_resets() {
        let mut s = ExtentSet::new();
        s.insert(0, 5);
        s.clear();
        assert!(s.is_empty());
        assert_eq!(s.covered(), 0);
    }
}
