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
        // Find insertion point: first run whose end >= off (candidates for
        // merging start here).
        let start_idx = self.runs.partition_point(|&(o, l)| o + l < off);
        let mut merge_end = start_idx;
        let mut new_off = off;
        let mut new_end = end;
        while merge_end < self.runs.len() && self.runs[merge_end].0 <= end {
            new_off = new_off.min(self.runs[merge_end].0);
            new_end = new_end.max(self.runs[merge_end].0 + self.runs[merge_end].1);
            merge_end += 1;
        }
        self.runs.splice(
            start_idx..merge_end,
            std::iter::once((new_off, new_end - new_off)),
        );
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

    #[test]
    fn clear_resets() {
        let mut s = ExtentSet::new();
        s.insert(0, 5);
        s.clear();
        assert!(s.is_empty());
        assert_eq!(s.covered(), 0);
    }
}
