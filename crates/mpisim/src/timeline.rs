//! Busy-interval timelines with gap backfill.
//!
//! Resources in the cost model (NIC ports, RMA lock tokens, OSTs, client
//! links) serialize work in *virtual* time. A naive `busy_until` scalar is
//! order-sensitive. The event core *schedules* ranks in clock order — the
//! runnable rank with the smallest virtual clock goes next — but a running
//! rank *books* ahead of its clock: between two yields it reserves every
//! stripe of a large write, every hop of a gathered put, at instants well
//! past the clock it was scheduled at. The rank scheduled after it has an
//! earlier clock than those bookings, so its requests are *earlier* in
//! virtual time than reservations already made; behind a scalar it would
//! queue after the last of them, serializing ranks that a real machine
//! interleaves. A [`Timeline`] keeps the actual busy intervals and lets a
//! reservation backfill the earliest gap that fits, so the outcome depends
//! on when work is due in virtual time, not on which rank booked first.

/// A set of disjoint busy intervals on the virtual-time axis.
#[derive(Debug, Default)]
pub struct Timeline {
    /// Sorted, non-overlapping `(start, end)` busy intervals.
    busy: Vec<(f64, f64)>,
    /// No reservation may start before this (set when old intervals are
    /// pruned; bounds memory on very long runs).
    floor: f64,
}

impl Timeline {
    /// Prune threshold: a timeline keeps at most this many intervals;
    /// older history is pruned and late stragglers are clamped to the
    /// pruned horizon.
    const MAX_INTERVALS: usize = 4096;

    pub fn new() -> Self {
        Self::default()
    }

    /// Reserve `dur` seconds starting no earlier than `earliest`, taking
    /// the first gap that fits. Returns the granted start time.
    pub fn reserve(&mut self, earliest: f64, dur: f64) -> f64 {
        let earliest = earliest.max(self.floor);
        if dur <= 0.0 {
            return self.next_free_at(earliest);
        }
        if self.busy.len() >= Self::MAX_INTERVALS {
            // Drop the oldest half; nothing may book before the horizon.
            let half = self.busy.len() / 2;
            self.floor = self.busy[half - 1].1;
            self.busy.drain(..half);
        }
        let earliest = earliest.max(self.floor);
        // Find the first interval that could constrain us: binary search
        // for the first busy interval ending after `earliest`.
        let mut idx = self.busy.partition_point(|&(_, e)| e <= earliest);
        let mut start = earliest;
        while idx < self.busy.len() {
            let (bs, be) = self.busy[idx];
            if start + dur <= bs {
                break; // fits in the gap before interval idx
            }
            start = start.max(be);
            idx += 1;
        }
        self.insert_at(idx, start, start + dur);
        start
    }

    /// The earliest instant ≥ `t` that is not inside a busy interval.
    pub fn next_free_at(&self, t: f64) -> f64 {
        let idx = self.busy.partition_point(|&(_, e)| e <= t);
        match self.busy.get(idx) {
            Some(&(bs, be)) if bs <= t => be,
            _ => t,
        }
    }

    /// End of the last busy interval (the earliest instant after which the
    /// resource is idle forever, given today's bookings). The burst-buffer
    /// drain model uses this to find when staged data has fully reached
    /// the backing store.
    pub fn horizon(&self) -> f64 {
        self.busy.last().map(|&(_, e)| e).unwrap_or(self.floor)
    }

    /// Total reserved time (diagnostics).
    pub fn total_busy(&self) -> f64 {
        self.busy.iter().map(|&(s, e)| e - s).sum()
    }

    /// Number of disjoint busy intervals (diagnostics).
    pub fn segments(&self) -> usize {
        self.busy.len()
    }

    /// Gaps shorter than this merge away: they are far below the smallest
    /// modeled cost (α ≈ 2 µs) so no reservation could use them, and
    /// coalescing keeps the interval vector small under steady load.
    const MERGE_SLACK: f64 = 1.0e-7;

    fn insert_at(&mut self, idx: usize, start: f64, end: f64) {
        // Coalesce with neighbours when (nearly) adjacent to keep the
        // vector short (the common case: FIFO appends).
        let touches_prev = idx > 0 && start - self.busy[idx - 1].1 < Self::MERGE_SLACK;
        let touches_next = idx < self.busy.len() && self.busy[idx].0 - end < Self::MERGE_SLACK;
        match (touches_prev, touches_next) {
            (true, true) => {
                self.busy[idx - 1].1 = self.busy[idx].1;
                self.busy.remove(idx);
            }
            (true, false) => self.busy[idx - 1].1 = end,
            (false, true) => self.busy[idx].0 = start,
            (false, false) => self.busy.insert(idx, (start, end)),
        }
        debug_assert!(
            self.busy.windows(2).all(|w| w[0].1 <= w[1].0),
            "timeline intervals must stay sorted and disjoint"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_timeline_grants_immediately() {
        let mut t = Timeline::new();
        assert_eq!(t.reserve(5.0, 1.0), 5.0);
        assert_eq!(t.total_busy(), 1.0);
    }

    #[test]
    fn fifo_appends_coalesce() {
        let mut t = Timeline::new();
        assert_eq!(t.reserve(0.0, 1.0), 0.0);
        assert_eq!(t.reserve(0.0, 1.0), 1.0);
        assert_eq!(t.reserve(0.0, 1.0), 2.0);
        assert_eq!(t.segments(), 1);
        assert_eq!(t.total_busy(), 3.0);
    }

    #[test]
    fn backfills_gaps_left_by_early_runner() {
        // Thread A (running first in real time) books short slots spread
        // over virtual time; thread B's early request must land in the
        // first gap, not after A's last slot.
        let mut t = Timeline::new();
        for i in 0..10 {
            t.reserve(i as f64, 0.1); // busy [i, i+0.1)
        }
        let start = t.reserve(0.0, 0.5);
        assert!(
            (start - 0.1).abs() < 1e-12,
            "expected backfill at 0.1, got {start}"
        );
    }

    #[test]
    fn respects_earliest_inside_gap() {
        let mut t = Timeline::new();
        t.reserve(0.0, 1.0); // [0,1)
        t.reserve(5.0, 1.0); // [5,6)
        assert_eq!(t.reserve(2.0, 1.0), 2.0);
        // Remaining gaps are [1,2) and [3,5): neither fits 2.5 seconds, so
        // the request lands after the last interval.
        assert_eq!(t.reserve(0.0, 2.5), 6.0);
    }

    #[test]
    fn too_small_gaps_are_skipped() {
        let mut t = Timeline::new();
        t.reserve(0.0, 1.0); // [0,1)
        t.reserve(1.5, 1.0); // [1.5,2.5)
                             // 0.5 gap at [1,1.5): a 0.4 fits, a 0.6 does not.
        assert_eq!(t.reserve(0.0, 0.4), 1.0);
        let s = t.reserve(0.0, 0.6);
        assert!(s >= 2.5, "0.6 must not fit before 2.5, got {s}");
    }

    #[test]
    fn zero_duration_reports_next_free_without_booking() {
        let mut t = Timeline::new();
        t.reserve(0.0, 2.0);
        let n = t.segments();
        assert_eq!(t.reserve(1.0, 0.0), 2.0);
        assert_eq!(t.reserve(3.0, 0.0), 3.0);
        assert_eq!(t.segments(), n);
    }

    #[test]
    fn order_insensitive_total_completion() {
        // Booking the same demand in two different real-time orders must
        // give the same last-completion time.
        let demands: Vec<(f64, f64)> = (0..50).map(|i| ((i % 7) as f64 * 0.3, 0.25)).collect();
        let run = |order: &[usize]| {
            let mut t = Timeline::new();
            let mut last: f64 = 0.0;
            for &i in order {
                let (e, d) = demands[i];
                let s = t.reserve(e, d);
                last = last.max(s + d);
            }
            (last, t.total_busy())
        };
        let fwd: Vec<usize> = (0..50).collect();
        let rev: Vec<usize> = (0..50).rev().collect();
        let (l1, b1) = run(&fwd);
        let (l2, b2) = run(&rev);
        assert!((b1 - b2).abs() < 1e-9);
        assert!(
            (l1 - l2).abs() < 0.3 + 1e-9,
            "completion should be scheduling-insensitive: {l1} vs {l2}"
        );
    }

    #[test]
    fn next_free_at_inside_and_outside_busy() {
        let mut t = Timeline::new();
        t.reserve(1.0, 2.0); // [1,3)
        assert_eq!(t.next_free_at(0.0), 0.0);
        assert_eq!(t.next_free_at(1.5), 3.0);
        assert_eq!(t.next_free_at(3.0), 3.0);
    }
}

#[cfg(test)]
mod prune_tests {
    use super::*;

    #[test]
    fn capacity_limit_prunes_and_clamps() {
        let mut t = Timeline::new();
        // Create many scattered (non-coalescing) intervals.
        for i in 0..Timeline::MAX_INTERVALS + 40 {
            t.reserve(i as f64 * 2.0, 0.5);
        }
        let bound = Timeline::MAX_INTERVALS + 1;
        assert!(t.segments() <= bound, "pruning must bound the vector");
        // A straggler far in the past is clamped to the horizon, not lost.
        let s = t.reserve(0.0, 0.1);
        assert!(s > 0.5, "pre-horizon request must be clamped forward");
    }
}
