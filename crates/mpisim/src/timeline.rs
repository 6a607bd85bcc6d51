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
//! reservation backfill the earliest gap that fits, so a request waits for
//! the work due around it in virtual time, not for everything booked before
//! it. First fit is still not order-free: busy time is conserved in any
//! order, but a request that fits no gap lands behind whatever booked first
//! (`tests/property_model.rs` pins what does hold), so it is the event
//! core's deterministic booking order that makes a result repeatable.
//!
//! Bookings cluster: a resource's next booking usually lands at or next
//! to its previous one, most often past the last interval. The store is
//! therefore the crate's gap buffer (`gap::GapBuffer`), whose gap sits
//! where the last booking that added an interval landed (one that merges
//! into a neighbour leaves it in place), and the search gallops out from
//! there: a booking `d` intervals from the gap costs O(log d) probes to
//! find and, if it adds an interval, a `d`-interval move to insert,
//! whatever the store's length.

use crate::gap::GapBuffer;
use std::sync::atomic::{AtomicU64, Ordering};

/// The prune-and-clamp cliff of one simulation: how often any of its
/// timelines dropped its older half (`prunes`), and how many requests were
/// then moved up to a pruned horizon (`clamped`). Every timeline booked
/// from one of its ranks counts here, whoever owns it; a booking outside
/// every simulation counts nowhere.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Cliff {
    pub prunes: u64,
    pub clamped: u64,
}

/// A running simulation's [`Cliff`], shared by every thread that books.
/// `Relaxed` suffices: the counts publish no other data, and the driver
/// reads them once every rank has finished.
#[derive(Debug, Default)]
pub(crate) struct CliffTally {
    prunes: AtomicU64,
    clamped: AtomicU64,
}

impl CliffTally {
    pub(crate) fn total(&self) -> Cliff {
        Cliff {
            prunes: self.prunes.load(Ordering::Relaxed),
            clamped: self.clamped.load(Ordering::Relaxed),
        }
    }

    /// Add one to the running simulation's `which` count.
    fn count(which: fn(&CliffTally) -> &AtomicU64) {
        crate::runtime::with_cliff_tally(|t| {
            which(t).fetch_add(1, Ordering::Relaxed);
        });
    }
}

/// A set of disjoint busy intervals on the virtual-time axis.
#[derive(Debug, Default)]
pub struct Timeline {
    /// Sorted, non-overlapping `(start, end)` busy intervals. An empty
    /// timeline allocates nothing.
    busy: GapBuffer<(f64, f64)>,
    /// No reservation may start before this (set when old intervals are
    /// pruned; bounds memory on very long runs). Each prune, and each
    /// request raised to it, is counted in the running simulation's
    /// [`Cliff`].
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
        // A NaN or infinite interval would break the sort order every
        // search relies on; cost constants are validated where they enter.
        debug_assert!(
            earliest.is_finite() && dur.is_finite(),
            "reserve({earliest}, {dur}): times must be finite"
        );
        if dur <= 0.0 {
            let earliest = self.clamp(earliest);
            return self.next_free_at(earliest);
        }
        if self.busy.len() >= Self::MAX_INTERVALS {
            // Drop the oldest half; nothing may book before the horizon.
            let half = self.busy.len() / 2;
            self.floor = self.busy.get(half - 1).1;
            self.busy.drop_first(half);
            CliffTally::count(|t| &t.prunes);
        }
        let earliest = self.clamp(earliest);
        // Find the first interval that could constrain us: the first busy
        // interval ending after `earliest`.
        let mut idx = self.first_ending_after(earliest);
        let mut start = earliest;
        while let Some((bs, be)) = self.busy.nth(idx) {
            if start + dur <= bs {
                break; // fits in the gap before interval idx
            }
            start = start.max(be);
            idx += 1;
        }
        self.insert_at(idx, start, start + dur);
        start
    }

    /// `earliest`, or the pruned horizon if that is later (and counted).
    fn clamp(&self, earliest: f64) -> f64 {
        if earliest < self.floor {
            CliffTally::count(|t| &t.clamped);
        }
        earliest.max(self.floor)
    }

    /// The earliest instant ≥ `t` that is not inside a busy interval.
    pub fn next_free_at(&self, t: f64) -> f64 {
        match self.busy.nth(self.first_ending_after(t)) {
            Some((bs, be)) if bs <= t => be,
            _ => t,
        }
    }

    /// End of the last busy interval (the earliest instant after which the
    /// resource is idle forever, given today's bookings). Only tests read
    /// it: the oracle comparisons below and `tests/property_model.rs`.
    pub fn horizon(&self) -> f64 {
        self.busy.last().map_or(self.floor, |(_, end)| end)
    }

    /// Total reserved time (diagnostics).
    pub fn total_busy(&self) -> f64 {
        // Summed in time order, so the rounding does not depend on where
        // the gap happens to be.
        self.busy.iter().map(|&(s, e)| e - s).sum()
    }

    /// Number of disjoint busy intervals (diagnostics).
    pub fn segments(&self) -> usize {
        self.busy.len()
    }

    /// Drop every booking and the pruned horizon: the resource is idle
    /// from time 0 on, as on a new timeline.
    pub fn clear(&mut self) {
        self.busy = GapBuffer::default();
        self.floor = 0.0;
    }

    /// Gaps shorter than this merge away: they are far below the smallest
    /// modeled cost (α ≈ 2 µs) so no reservation could use them, and
    /// coalescing keeps the interval store small under steady load.
    const MERGE_SLACK: f64 = 1.0e-7;

    /// Index of the first interval ending after `t`, galloping out from
    /// where the last booking that did not merge into a neighbour landed.
    fn first_ending_after(&self, t: f64) -> usize {
        self.busy.gallop(|(_, end)| end <= t)
    }

    fn insert_at(&mut self, idx: usize, start: f64, end: f64) {
        // Coalesce with neighbours when (nearly) adjacent to keep the
        // store short (the common case: FIFO appends).
        let n = self.busy.len();
        let touches_prev = idx > 0 && start - self.busy.get(idx - 1).1 < Self::MERGE_SLACK;
        let touches_next = idx < n && self.busy.get(idx).0 - end < Self::MERGE_SLACK;
        match (touches_prev, touches_next) {
            (true, true) => {
                let next = self.busy.remove(idx);
                self.busy.get_mut(idx - 1).1 = next.1;
            }
            (true, false) => self.busy.get_mut(idx - 1).1 = end,
            (false, true) => self.busy.get_mut(idx).0 = start,
            (false, false) => self.busy.insert(idx, (start, end)),
        }
        // Only the neighbours of `idx` can have changed.
        debug_assert!(
            (idx.saturating_sub(1).max(1)..(idx + 2).min(self.busy.len())).all(|i| self
                .busy
                .get(i - 1)
                .1
                <= self.busy.get(i).0),
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

    /// `f`'s result on the one rank of a simulation, and the simulation's
    /// cliff: what the timelines `f` booked gave up to their prune.
    pub(super) fn in_a_run<T: Send>(f: impl Fn() -> T + Sync) -> (T, Cliff) {
        let mut rep = crate::run(1, crate::SimConfig::default(), |_| Ok(f())).unwrap();
        (rep.results.pop().unwrap(), rep.cliff)
    }

    fn cliff(prunes: u64, clamped: u64) -> Cliff {
        Cliff { prunes, clamped }
    }

    /// Many scattered (non-coalescing) intervals: one prune.
    fn filled() -> Timeline {
        let mut t = Timeline::new();
        for i in 0..Timeline::MAX_INTERVALS + 40 {
            t.reserve(i as f64 * 2.0, 0.5);
        }
        t
    }

    #[test]
    fn capacity_limit_prunes_and_clamps() {
        let (segments, counted) = in_a_run(|| filled().segments());
        let bound = Timeline::MAX_INTERVALS + 1;
        assert!(segments <= bound, "pruning must bound the store");
        assert_eq!(counted, cliff(1, 0));
        // A straggler far in the past is clamped to the horizon, not lost.
        let (s, counted) = in_a_run(|| filled().reserve(0.0, 0.1));
        assert!(s > 0.5, "pre-horizon request must be clamped forward");
        assert_eq!(counted, cliff(1, 1));
    }

    /// The tally belongs to the simulation: each run counts only its own
    /// bookings, and a booking outside every run counts nowhere.
    #[test]
    fn each_simulation_counts_its_own_cliff_and_no_run_counts_none() {
        let mut outside = filled();
        outside.reserve(0.0, 0.1);
        let (_, first) = in_a_run(|| filled().reserve(0.0, 0.1));
        let (_, second) = in_a_run(|| filled().segments());
        assert_eq!((first, second), (cliff(1, 1), cliff(1, 0)));
    }
}

/// The `Vec`-backed store the gap buffer replaced, kept as the oracle: the
/// two must grant the same bits for any stream of requests.
#[cfg(test)]
mod reference {
    #[derive(Debug, Default)]
    pub struct VecTimeline {
        pub busy: Vec<(f64, f64)>,
        pub floor: f64,
        pub prunes: u64,
        pub clamped: u64,
    }

    impl VecTimeline {
        const MAX_INTERVALS: usize = super::Timeline::MAX_INTERVALS;
        const MERGE_SLACK: f64 = super::Timeline::MERGE_SLACK;

        pub fn reserve(&mut self, earliest: f64, dur: f64) -> f64 {
            let asked = earliest;
            let earliest = earliest.max(self.floor);
            if dur <= 0.0 {
                self.clamped += u64::from(asked < self.floor);
                return self.next_free_at(earliest);
            }
            if self.busy.len() >= Self::MAX_INTERVALS {
                let half = self.busy.len() / 2;
                self.floor = self.busy[half - 1].1;
                self.busy.drain(..half);
                self.prunes += 1;
            }
            self.clamped += u64::from(asked < self.floor);
            let earliest = earliest.max(self.floor);
            let mut idx = self.busy.partition_point(|&(_, e)| e <= earliest);
            let mut start = earliest;
            while idx < self.busy.len() {
                let (bs, be) = self.busy[idx];
                if start + dur <= bs {
                    break;
                }
                start = start.max(be);
                idx += 1;
            }
            self.insert_at(idx, start, start + dur);
            start
        }

        pub fn next_free_at(&self, t: f64) -> f64 {
            let idx = self.busy.partition_point(|&(_, e)| e <= t);
            match self.busy.get(idx) {
                Some(&(bs, be)) if bs <= t => be,
                _ => t,
            }
        }

        pub fn horizon(&self) -> f64 {
            self.busy.last().map(|&(_, e)| e).unwrap_or(self.floor)
        }

        pub fn total_busy(&self) -> f64 {
            self.busy.iter().map(|&(s, e)| e - s).sum()
        }

        fn insert_at(&mut self, idx: usize, start: f64, end: f64) {
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
        }
    }
}

#[cfg(test)]
mod oracle_tests {
    use super::prune_tests::in_a_run;
    use super::reference::VecTimeline;
    use super::*;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    fn intervals(t: &Timeline) -> Vec<(f64, f64)> {
        t.busy.iter().copied().collect()
    }

    /// One seeded request stream into both stores; every granted start and,
    /// every 64 requests, every read-only answer must agree to the bit, and
    /// the simulation counts the cliff the `Vec` counted.
    fn drive(seed: u64) {
        let (old, counted) = in_a_run(|| drive_both(seed));
        assert_eq!(
            counted,
            Cliff {
                prunes: old.prunes,
                clamped: old.clamped
            }
        );
        assert!(old.prunes >= 1, "seed {seed} never pruned");
        assert!(old.clamped >= 1, "seed {seed} never clamped a request");
    }

    /// `drive`'s request stream; returns the `Vec`.
    fn drive_both(seed: u64) -> VecTimeline {
        let mut rng = StdRng::seed_from_u64(seed);
        let (mut new, mut old) = (Timeline::new(), VecTimeline::default());
        let mut coalesced_both = 0;
        for step in 0..40_000 {
            let front = old.horizon();
            let below_front = old.floor + rng.random::<f64>() * (front - old.floor);
            let dur = match rng.next_u64() % 8 {
                0 => 0.0,
                1 => Timeline::MERGE_SLACK * rng.random::<f64>(),
                _ => 1.0e-6 * (1 + rng.next_u64() % 8) as f64,
            };
            let (earliest, dur) = match rng.next_u64() % 16 {
                // FIFO appends: due now, lands at (and coalesces with) the front.
                0..=2 => (front, dur),
                // A gap ahead of the front.
                3..=7 => (front + 1.0e-6 * (1.0 + 31.0 * rng.random::<f64>()), dur),
                // Backfills anywhere below the front.
                8..=12 => (below_front, dur),
                // Due at the very beginning: clamped once anything is pruned.
                13 => (0.0, dur),
                // Exactly fill the gap after a random interval, if it has one.
                _ => {
                    let i = rng.next_u64() as usize % old.busy.len().max(1);
                    match (old.busy.get(i), old.busy.get(i + 1)) {
                        (Some(&(_, e)), Some(&(s, _))) => (e, s - e),
                        _ => (front, dur),
                    }
                }
            };
            let before = old.busy.len();
            let (a, b) = (new.reserve(earliest, dur), old.reserve(earliest, dur));
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "seed {seed} step {step}: {a} vs {b}"
            );
            coalesced_both += usize::from(old.busy.len() + 1 == before);
            // The galloping search against the plain one, from wherever
            // the booking left the gap.
            let t = match rng.next_u64() % 4 {
                0 => old.floor - rng.random::<f64>(),
                1 => old.horizon() + rng.random::<f64>(),
                2 => {
                    let i = rng.next_u64() as usize % old.busy.len().max(1);
                    old.busy.get(i).map_or(old.floor, |&(_, e)| e)
                }
                _ => old.floor + rng.random::<f64>() * (old.horizon() - old.floor),
            };
            assert_eq!(
                new.first_ending_after(t),
                old.busy.partition_point(|&(_, e)| e <= t),
                "seed {seed} step {step}: search for {t}"
            );
            if step % 64 == 0 {
                assert_eq!(intervals(&new), old.busy, "seed {seed} step {step}");
                assert_eq!(new.horizon().to_bits(), old.horizon().to_bits());
                assert_eq!(new.total_busy().to_bits(), old.total_busy().to_bits());
                let t = below_front;
                assert_eq!(new.next_free_at(t).to_bits(), old.next_free_at(t).to_bits());
            }
        }
        assert!(
            coalesced_both >= 1,
            "seed {seed} never joined two neighbours"
        );
        old
    }

    #[test]
    fn gap_buffer_grants_the_same_bits_as_the_vec() {
        for seed in 0..6 {
            drive(0x71E_11E ^ seed);
        }
    }

    /// Bookings near the previous one are cheap wherever they are: an
    /// ascending sweep of backfills through a long timeline moves a few
    /// intervals each (plus one pass per prune), where the `Vec` shifted
    /// everything above each of them.
    #[test]
    fn an_ascending_sweep_of_backfills_moves_o_sweep_intervals() {
        const LEN: usize = 4000;
        const SWEEP: usize = 2000;
        let (moved, counted) = in_a_run(|| {
            let mut t = Timeline::new();
            for i in 0..LEN {
                t.reserve(i as f64 * 2.0, 0.5); // busy [2i, 2i + 0.5)
            }
            t.busy.moved = 0;
            for i in 0..SWEEP {
                t.reserve(i as f64 * 2.0 + 1.0, 0.5); // into the gap after interval i
            }
            t.busy.moved
        });
        assert!(counted.prunes >= 1, "the sweep crosses MAX_INTERVALS");
        assert!(
            moved <= 2 * SWEEP + Timeline::MAX_INTERVALS,
            "{moved} intervals moved for {SWEEP} nearby backfills"
        );
    }

    /// Finding where a booking goes costs its distance from the gap, not
    /// the store's length: FIFO appends (which merge and leave the gap at
    /// the tail) and an ascending sweep of nearby backfills (each of which
    /// moves it) through 4 000 intervals, crossing a prune, read a few
    /// intervals each, where a binary search from the root read ~12.
    #[test]
    fn bookings_near_the_previous_one_probe_a_few_intervals() {
        const LEN: usize = 4000;
        const APPENDS: usize = 2000;
        const SWEEP: usize = 2000;
        let (probes, counted) = in_a_run(|| {
            let mut t = Timeline::new();
            for i in 0..LEN {
                t.reserve(i as f64 * 2.0, 0.5); // busy [2i, 2i + 0.5)
            }
            t.busy.probes.set(0);
            for _ in 0..APPENDS {
                let front = t.horizon();
                t.reserve(front, 0.5);
            }
            for i in 0..SWEEP {
                t.reserve(i as f64 * 2.0 + 1.0, 0.5); // into the gap after interval i
            }
            t.busy.probes.get()
        });
        assert!(counted.prunes >= 1, "the sweep crosses MAX_INTERVALS");
        let per_booking = probes as f64 / (APPENDS + SWEEP) as f64;
        assert!(
            per_booking <= 4.0,
            "{per_booking:.2} probes per booking near the previous one"
        );
    }
}
