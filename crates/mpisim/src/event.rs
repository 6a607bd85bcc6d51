//! Deterministic scheduler for the event-driven backend.
//!
//! Every rank is a fiber (see [`crate::fiber`]); the [`EventCore`] decides
//! which one runs next. A blocked rank parks itself with its current
//! virtual clock; whoever unblocks it (a message arrival, a rendezvous
//! completion, an abort) wakes it, which enqueues it on a ready heap
//! keyed by `(virtual clock, rank)`. The driver always pops the minimum,
//! so the schedule at equal virtual times is a pure function of rank —
//! the tie-break the bit-identity guarantee rests on.
//!
//! Correctness notes:
//!
//! * **No lost wakeups.** Everything runs on one OS thread. A rank
//!   re-checks its predicate (message matched? rendezvous generation
//!   advanced? abort raised?) and only then parks; nothing can fire
//!   between the check and the park because nothing else is running.
//!   Wakes therefore only ever target a fully-parked rank.
//! * **At most one heap entry per rank.** `wake` transitions
//!   `Parked → Ready` and pushes exactly one key; waking a `Ready`,
//!   `Running`, or `Done` rank is a no-op. The heap never holds stale
//!   entries, so `pop_next` needs no lazy-deletion pass.

use parking_lot::Mutex;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

#[derive(Clone, Copy, Debug, PartialEq)]
enum TaskState {
    /// Enqueued on the ready heap, waiting for the driver.
    Ready,
    /// Currently executing on the driver thread.
    Running,
    /// Blocked at the given virtual time until somebody wakes it.
    Parked(f64),
    /// Rank body returned; never scheduled again.
    Done,
}

/// Heap key: earliest virtual clock first, then lowest rank. `total_cmp`
/// gives a total order on the clock (no NaNs arise, but the ordering must
/// not be able to panic either way).
#[derive(Clone, Copy, Debug)]
struct ReadyKey {
    clock: f64,
    rank: usize,
}

impl PartialEq for ReadyKey {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == std::cmp::Ordering::Equal
    }
}
impl Eq for ReadyKey {}
impl PartialOrd for ReadyKey {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for ReadyKey {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.clock
            .total_cmp(&other.clock)
            .then(self.rank.cmp(&other.rank))
    }
}

struct CoreInner {
    state: Vec<TaskState>,
    ready: BinaryHeap<Reverse<ReadyKey>>,
    /// Ranks not yet `Done`.
    live: usize,
}

impl CoreInner {
    fn wake(&mut self, rank: usize) {
        if let TaskState::Parked(clock) = self.state[rank] {
            self.state[rank] = TaskState::Ready;
            self.ready.push(Reverse(ReadyKey { clock, rank }));
        }
    }
}

/// The lock rule: no rank holds a host lock (a `parking_lot` guard) across
/// virtual time, that is, across a park or a clock funnel
/// (`Rank::set_clock_as`, `Rank::advance_as`). Another rank may run, or in
/// a lookahead scheme the rank may yield, at either; a guard held there
/// deadlocks the first rank that wants it. Debug builds check the rule
/// there and fail the rank loudly, naming it; release builds check
/// nothing.
#[inline]
pub(crate) fn assert_no_host_lock(at: &str) {
    debug_assert!(
        parking_lot::live_guards() == 0,
        "no host lock across virtual time: {} parking_lot guard(s) live at {at}; \
         drop every guard before a `&mut Rank` call",
        parking_lot::live_guards()
    );
}

pub(crate) struct EventCore {
    inner: Mutex<CoreInner>,
}

impl EventCore {
    /// All ranks start ready at virtual time zero, so the first scheduling
    /// round is plain rank order.
    pub(crate) fn new(nprocs: usize) -> EventCore {
        let mut ready = BinaryHeap::with_capacity(nprocs);
        for rank in 0..nprocs {
            ready.push(Reverse(ReadyKey { clock: 0.0, rank }));
        }
        EventCore {
            inner: Mutex::new(CoreInner {
                state: vec![TaskState::Ready; nprocs],
                ready,
                live: nprocs,
            }),
        }
    }

    /// Pop the next rank to run (min clock, then min rank) and mark it
    /// running. `None` means the heap is empty — simulation finished, or a
    /// deadlock the driver must break.
    pub(crate) fn pop_next(&self) -> Option<usize> {
        let mut g = self.inner.lock();
        let Reverse(key) = g.ready.pop()?;
        debug_assert_eq!(
            g.state[key.rank],
            TaskState::Ready,
            "heap entry for a non-ready rank"
        );
        g.state[key.rank] = TaskState::Running;
        Some(key.rank)
    }

    /// Called by the running rank just before it suspends: record the
    /// clock it blocked at so a wake re-enqueues it at the right key, then
    /// switch back to the driver. Returns once the rank is resumed.
    pub(crate) fn park(&self, rank: usize, clock: f64) {
        assert_no_host_lock("a park");
        {
            let mut g = self.inner.lock();
            debug_assert_eq!(
                g.state[rank],
                TaskState::Running,
                "park by a non-running rank"
            );
            g.state[rank] = TaskState::Parked(clock);
        }
        crate::fiber::park_current();
    }

    /// Make a parked rank runnable again. No-op for ready/running/done
    /// ranks — their predicate re-check will observe whatever changed.
    pub(crate) fn wake(&self, rank: usize) {
        self.wake_each(&[rank]);
    }

    /// [`EventCore::wake`] for each of `ranks` (a completed rendezvous
    /// wakes its communicator's members and nobody else).
    pub(crate) fn wake_each(&self, ranks: &[usize]) {
        let mut g = self.inner.lock();
        for &rank in ranks {
            g.wake(rank);
        }
    }

    /// Wake every parked rank (abort, rank death).
    pub(crate) fn wake_all(&self) {
        let mut g = self.inner.lock();
        for rank in 0..g.state.len() {
            g.wake(rank);
        }
    }

    /// Retire a rank whose body has returned.
    pub(crate) fn mark_done(&self, rank: usize) {
        let mut g = self.inner.lock();
        debug_assert_eq!(
            g.state[rank],
            TaskState::Running,
            "done by a non-running rank"
        );
        g.state[rank] = TaskState::Done;
        g.live -= 1;
    }

    /// Ranks whose bodies have not yet returned; used by the driver to
    /// tell "all finished" from "deadlock" when the heap runs dry.
    pub(crate) fn live_count(&self) -> usize {
        self.inner.lock().live
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Drain the heap by hand (no fibers involved) to pin the tie-break.
    #[test]
    fn pop_order_is_clock_then_rank() {
        let core = EventCore::new(4);
        // Initial round: pure rank order at clock 0.
        for want in 0..4 {
            assert_eq!(core.pop_next(), Some(want));
        }
        assert_eq!(core.pop_next(), None);
        // Park at assorted clocks, including an exact tie between 3 and 1.
        for (rank, clock) in [(0usize, 5.0f64), (1, 2.0), (2, 9.0), (3, 2.0)] {
            let mut g = core.inner.lock();
            g.state[rank] = TaskState::Parked(clock);
        }
        core.wake_all();
        let order: Vec<usize> = std::iter::from_fn(|| core.pop_next()).collect();
        assert_eq!(
            order,
            vec![1, 3, 0, 2],
            "clock asc, rank breaks the 2.0 tie"
        );
    }

    #[test]
    fn wake_each_wakes_the_named_ranks_only() {
        let core = EventCore::new(4);
        while core.pop_next().is_some() {}
        for rank in 0..4 {
            core.inner.lock().state[rank] = TaskState::Parked(rank as f64);
        }
        core.wake_each(&[3, 1]);
        let order: Vec<usize> = std::iter::from_fn(|| core.pop_next()).collect();
        assert_eq!(order, vec![1, 3], "bystanders 0 and 2 stay parked");
    }

    #[test]
    fn wake_is_a_noop_unless_parked() {
        let core = EventCore::new(2);
        assert_eq!(core.pop_next(), Some(0));
        core.wake(0); // running: ignored
        core.wake(1); // ready: ignored — no duplicate heap entry
        core.mark_done(0);
        core.wake(0); // done: ignored
        assert_eq!(core.pop_next(), Some(1));
        assert_eq!(core.pop_next(), None, "no duplicates were enqueued");
        assert_eq!(core.live_count(), 1);
    }
}
