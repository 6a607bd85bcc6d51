//! Two ledgers of which bytes a range of the file holds.
//!
//! [`ExtentSet`] is sparse: sorted, coalesced runs, for coverage with no
//! bound on its span — TCIO's level-1 hull and level-2 segment validity.
//! `Cover` is dense: one bit per byte of a two-phase round's window, for
//! which bytes an aggregator's collective buffer was filled with (so holes
//! are not written), which bytes its sources asked to read, and what a
//! request-aggregation leader merges for it. A window's bytes are already
//! one dense buffer, so its bitmap costs an eighth of memory already
//! committed, and marking a piece is O(1) however many runs the window has.

use crate::error::{IoError, Result};

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

/// The covered bytes of one window `[ws, we)`, one bit per byte.
pub(crate) struct Cover {
    ws: u64,
    we: u64,
    words: Vec<u64>,
    /// Covered bytes below each word, and below the end: built by the
    /// first `Cover::rank` after the last insert.
    below: Vec<u64>,
}

impl Cover {
    pub(crate) fn new(ws: u64, we: u64) -> Self {
        Cover {
            ws,
            we,
            words: vec![0; (we - ws).div_ceil(64) as usize],
            below: Vec::new(),
        }
    }

    /// Cover `[off, off+len)`. A range that does not lie inside the window
    /// — even an empty one — is a usage error, so a byte offset of a range
    /// the window took is always an index into the window's buffer.
    pub(crate) fn insert(&mut self, off: u64, len: u64) -> Result<()> {
        let (ws, we) = (self.ws, self.we);
        let Some(end) = off.checked_add(len).filter(|&end| ws <= off && end <= we) else {
            return Err(IoError::Usage(format!(
                "extent of {len} bytes at {off} outside window [{ws}, {we})"
            )));
        };
        if len == 0 {
            return Ok(());
        }
        self.below.clear();
        let (lo, hi) = (off - ws, end - ws - 1);
        let (first, last) = ((lo / 64) as usize, (hi / 64) as usize);
        let (head, tail) = (!0u64 << (lo % 64), !0u64 >> (63 - hi % 64));
        if first == last {
            self.words[first] |= head & tail;
        } else {
            self.words[first] |= head;
            self.words[first + 1..last].fill(!0);
            self.words[last] |= tail;
        }
        Ok(())
    }

    /// The maximal covered `(offset, len)` runs, ascending.
    pub(crate) fn runs(&self) -> impl Iterator<Item = (u64, u64)> + Clone + '_ {
        let bits = self.we - self.ws;
        let mut at = 0;
        std::iter::from_fn(move || {
            let start = self.next_bit(at, true)?;
            at = self.next_bit(start, false).unwrap_or(bits);
            Some((self.ws + start, at - start))
        })
    }

    /// The first bit at or past `from` that is `set`, if any. The bits past
    /// the window in the last word are clear, so a run ending there ends
    /// at the window's end.
    fn next_bit(&self, from: u64, set: bool) -> Option<u64> {
        let flip = if set { 0 } else { !0 };
        let mut w = (from / 64) as usize;
        let mut word = (self.words.get(w)? ^ flip) & (!0u64 << (from % 64));
        while word == 0 {
            w += 1;
            word = self.words.get(w)? ^ flip;
        }
        Some(w as u64 * 64 + word.trailing_zeros() as u64)
    }

    /// The covered bytes below `off`, for `off` in `[ws, we]`: where byte
    /// `off` sits in a buffer of just the covered bytes.
    pub(crate) fn rank(&mut self, off: u64) -> u64 {
        if self.below.is_empty() {
            self.below.reserve_exact(self.words.len() + 1);
            self.below.push(0);
            let mut sum = 0;
            for w in &self.words {
                sum += w.count_ones() as u64;
                self.below.push(sum);
            }
        }
        let bit = off - self.ws;
        let (w, b) = ((bit / 64) as usize, bit % 64);
        let partial = self.words.get(w).map_or(0, |&word| word & ((1 << b) - 1));
        self.below[w] + partial.count_ones() as u64
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

    /// A window's bitmap against the run list and a boolean model: windows
    /// of 1, 63, 64 and 65 bytes and of random lengths off a multiple of
    /// 64, each at a random non-zero start; pieces empty, overlapping,
    /// adjacent to the one before, straddling a word boundary, and touching
    /// `ws` and `we − 1`. The runs must be `ExtentSet`'s, and `rank` a count
    /// over the model at every offset of the window and at `we` — also when
    /// asked between inserts.
    #[test]
    fn cover_matches_extent_set_and_a_boolean_model() {
        use rand::{RngExt, SeedableRng};
        for seed in 0..500u64 {
            let mut rng = rand::rngs::StdRng::seed_from_u64(0xc07e ^ seed);
            let mut pick = |lo: u64, hi: u64| lo + rng.next_u64() % (hi - lo);
            let len = match seed % 5 {
                0 => 1,
                1 => 63,
                2 => 64,
                3 => 65,
                _ => pick(1, 12) * 64 + pick(1, 64),
            };
            let ws = pick(1, 1 << 40);
            let we = ws + len;
            let mut cover = Cover::new(ws, we);
            let (mut set, mut model) = (ExtentSet::new(), vec![false; len as usize]);
            let mut last_end = ws;
            for _ in 0..pick(1, 24) {
                let (off, n) = match pick(0, 6) {
                    0 => (pick(ws, we + 1), 0),
                    1 => (ws, pick(1, len + 1)),
                    2 => {
                        let n = pick(1, len + 1);
                        (we - n, n)
                    }
                    3 if len > 64 => {
                        let boundary = 64 * pick(1, (len - 1) / 64 + 1);
                        let off = ws + boundary - pick(1, boundary.min(20) + 1);
                        (off, pick(ws + boundary - off + 1, we - off + 1))
                    }
                    4 if last_end < we => (last_end, pick(1, (we - last_end).min(30) + 1)),
                    _ => {
                        let off = pick(ws, we);
                        (off, pick(1, (we - off).min(40) + 1))
                    }
                };
                cover.insert(off, n).unwrap();
                set.insert(off, n);
                model[(off - ws) as usize..(off + n - ws) as usize].fill(true);
                last_end = off + n;
                assert_eq!(cover.runs().collect::<Vec<_>>(), set.runs(), "seed {seed}");
                if pick(0, 4) == 0 {
                    let all = model.iter().filter(|&&b| b).count() as u64;
                    assert_eq!(cover.rank(we), all, "seed {seed}: rank between inserts");
                }
            }
            let mut below = 0;
            for off in ws..=we {
                assert_eq!(cover.rank(off), below, "seed {seed}: rank({off})");
                below += model.get((off - ws) as usize).is_some_and(|&b| b) as u64;
            }
        }
    }

    #[test]
    fn cover_refuses_ranges_outside_its_window() {
        let mut cover = Cover::new(100, 200);
        for (off, len) in [(99, 1), (99, 0), (199, 2), (201, 0), (150, u64::MAX)] {
            assert!(
                matches!(cover.insert(off, len), Err(IoError::Usage(_))),
                "({off}, {len})"
            );
        }
        cover.insert(200, 0).unwrap();
        cover.insert(100, 100).unwrap();
        assert_eq!(cover.runs().collect::<Vec<_>>(), [(100, 100)]);
        assert_eq!(cover.rank(200), 100);
    }
}
