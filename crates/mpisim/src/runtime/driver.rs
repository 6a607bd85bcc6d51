//! The driver: spawn every rank as a task on the chosen substrate, resume
//! them in `(virtual clock, rank)` order until all bodies return, and
//! assemble the [`SimReport`].

use super::{Backend, Rank, Shared, SimConfig};
use crate::error::{MpiError, Result, SimError};
use crate::fiber::{Substrate, Task};
use crate::metrics::RankMetrics;
use crate::net::FabricStatsSnapshot;
use crate::stats::RankStats;
use crate::timeline::{Cliff, CliffTally};
use crate::trace::{PhaseTotals, RankTrace, Tracer};
use std::cell::RefCell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Where simulation ids come from: every [`run`] draws the next one.
static NEXT_SIMULATION: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// The simulation whose rank this thread is running.
    static SIMULATION: RefCell<Option<Arc<Shared>>> = const { RefCell::new(None) };
}

pub(super) fn next_simulation() -> u64 {
    NEXT_SIMULATION.fetch_add(1, Ordering::Relaxed)
}

/// The id of the simulation whose rank is running on this thread, on
/// either substrate; `None` outside every [`run`]. Each `run` has a fresh
/// id, so state that outlives one simulation can tell when the next one
/// begins: a file system keeps its bytes across simulations but starts
/// its timelines afresh.
pub fn simulation() -> Option<u64> {
    SIMULATION.with_borrow(|s| s.as_ref().map(|s| s.id))
}

/// Apply `f` to the cliff tally of the simulation whose rank is running on
/// this thread; outside every [`run`], do nothing.
pub(crate) fn with_cliff_tally(f: impl FnOnce(&CliffTally)) {
    SIMULATION.with_borrow(|s| {
        if let Some(s) = s {
            f(&s.cliff);
        }
    });
}

/// Puts back the calling thread's simulation when [`run`] returns or
/// unwinds: on the event substrate the ranks ran on this thread.
struct RestoreSimulation(Option<Arc<Shared>>);

impl Drop for RestoreSimulation {
    fn drop(&mut self) {
        SIMULATION.set(self.0.take());
    }
}

/// Result of a completed simulation.
#[derive(Debug)]
pub struct SimReport<T> {
    /// Per-rank return values.
    pub results: Vec<T>,
    /// Per-rank final virtual clocks.
    pub clocks: Vec<f64>,
    /// Maximum final clock.
    pub makespan: f64,
    /// Per-rank statistics.
    pub stats: Vec<RankStats>,
    /// Fabric-wide counters.
    pub fabric: FabricStatsSnapshot,
    /// Per-rank traces: phase totals always, spans when `SimConfig::trace`.
    pub traces: Vec<RankTrace>,
    /// Merged per-rank metric histograms (empty unless `SimConfig::metrics`).
    pub metrics: RankMetrics,
    /// The prune-and-clamp cliff of every timeline the run booked.
    pub cliff: Cliff,
}

/// Merge `parts` into one, in order.
fn merged<'a, A: Default + 'a>(parts: impl Iterator<Item = &'a A>, merge: fn(&mut A, &A)) -> A {
    parts.fold(A::default(), |mut acc, p| {
        merge(&mut acc, p);
        acc
    })
}

impl<T> SimReport<T> {
    /// Sum/merge of all per-rank stats.
    pub fn aggregate_stats(&self) -> RankStats {
        merged(self.stats.iter(), RankStats::merge)
    }

    /// Sum/merge of the stats of a subset of ranks — the tenant-scoped
    /// view used by the multi-tenant facility (out-of-range ranks are
    /// ignored so callers can pass speculative groupings).
    pub fn stats_for(&self, ranks: &[usize]) -> RankStats {
        merged(
            ranks.iter().filter_map(|&r| self.stats.get(r)),
            RankStats::merge,
        )
    }

    /// Merged phase totals of a subset of ranks (tenant-scoped clock
    /// attribution: compute/exchange/io/sync seconds summed over the
    /// group's members).
    pub fn phase_totals_for(&self, ranks: &[usize]) -> PhaseTotals {
        let totals = ranks.iter().filter_map(|&r| self.traces.get(r));
        merged(totals.map(|t| &t.totals), PhaseTotals::merge)
    }
}

/// Per-rank outcome of one simulated body.
enum Outcome<T> {
    Ok(T),
    Err(MpiError),
    /// The rank crash-stopped (injected fault) and its body propagated
    /// the error unhandled. Not an abort: survivors keep running.
    Crashed,
    Panic(String),
}

/// Everything a finished rank hands back to the report assembler.
type PerRank<T> = (f64, RankStats, RankTrace, RankMetrics, Outcome<T>);

/// Run one rank's body to completion — on either backend — and collect
/// its report contribution. Panics are caught here; fatal errors raise
/// the global abort so blocked peers drain.
fn execute_rank<T, F>(i: usize, shared: &Arc<Shared>, body: &F) -> PerRank<T>
where
    F: Fn(&mut Rank) -> Result<T> + Sync,
{
    SIMULATION.set(Some(Arc::clone(shared)));
    let mut rank = Rank::new(i, Arc::clone(shared));
    let out = catch_unwind(AssertUnwindSafe(|| body(&mut rank)));
    let outcome = match out {
        Ok(Ok(v)) => Outcome::Ok(v),
        // An unhandled own-crash is not an abort: the rank is already
        // marked dead, collectives shrink around it, and the survivors
        // run to completion.
        Ok(Err(MpiError::RankCrashed { rank })) if rank == i => Outcome::Crashed,
        Ok(Err(e)) => {
            shared.raise_abort();
            Outcome::Err(e)
        }
        Err(p) => {
            shared.raise_abort();
            let msg = p
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| p.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "opaque panic payload".to_string());
            Outcome::Panic(msg)
        }
    };
    // The memory high-water mark only grows, so one read at the end is
    // the rank's peak.
    rank.stats.mem_peak = rank.mem.peak();
    let trace = std::mem::replace(&mut rank.tracer, Tracer::new(i, false)).finish();
    let metrics = std::mem::take(&mut rank.metrics);
    (rank.clock, rank.stats, trace, metrics, outcome)
}

/// Event loop: every rank is a resumable task on the chosen substrate;
/// one driver loop resumes them in deterministic `(virtual clock, rank)`
/// order until all bodies return. Both backends go through here, so the
/// schedule — and every schedule-dependent observable — is identical by
/// construction; only the suspension mechanism differs.
fn run_event<T, F>(
    nprocs: usize,
    shared: &Arc<Shared>,
    substrate: Substrate,
    body: &F,
) -> std::result::Result<Vec<PerRank<T>>, SimError>
where
    T: Send,
    F: Fn(&mut Rank) -> Result<T> + Sync,
{
    /// Raw pointer allowed to cross into a fiber closure. Sound because
    /// the driver runs at most one fiber at a time and finishes (or
    /// leaks) every fiber before the pointee goes out of scope.
    struct SendPtr<T>(*mut T);
    unsafe impl<T> Send for SendPtr<T> {}

    /// Erase the closure's borrow lifetimes so it can live in a task.
    ///
    /// # Safety
    /// The caller must not let the closure (or the task holding it) be
    /// invoked after the borrows expire. `run_event` upholds this by
    /// driving every task to completion — or leaking it, never running
    /// it again — before `slots` and `body` leave scope. (A leaked
    /// `Substrate::Thread` worker parks forever on its own `Arc`'d
    /// channel and never touches the forged borrows again.)
    unsafe fn forge_static<'a>(f: Box<dyn FnOnce() + Send + 'a>) -> crate::fiber::FiberFn {
        unsafe { std::mem::transmute(f) }
    }

    let core = Arc::clone(&shared.core);
    let mut slots: Vec<Option<PerRank<T>>> = (0..nprocs).map(|_| None).collect();
    // On a refused stack the tasks spawned so far are dropped unstarted,
    // before `slots`, and hand their stacks back.
    let mut fibers = slots
        .iter_mut()
        .enumerate()
        .map(|(i, slot)| {
            let shared = Arc::clone(shared);
            let slot = SendPtr(slot as *mut Option<PerRank<T>>);
            let closure = move || {
                // Capture the whole SendPtr wrapper, not just its field —
                // precise capture would otherwise grab the bare
                // (non-Send) pointer.
                let slot = slot;
                let out = execute_rank(i, &shared, body);
                // Exclusive: only this fiber ever touches its slot.
                unsafe { *slot.0 = Some(out) };
            };
            let f = unsafe { forge_static(Box::new(closure)) };
            Task::spawn(substrate, f)
        })
        .collect::<std::result::Result<Vec<Task>, String>>()
        .map_err(|e| {
            SimError::Config(format!(
                "cannot give {nprocs} ranks a fiber stack each: {e}"
            ))
        })?;

    loop {
        match core.pop_next() {
            Some(rank) => {
                if fibers[rank].resume() {
                    core.mark_done(rank);
                }
            }
            None => {
                let live = core.live_count();
                if live == 0 {
                    break;
                }
                if shared.abort.load(Ordering::SeqCst) {
                    // The abort already woke every parked rank and each
                    // one re-parked anyway: unrecoverably stuck. Leak the
                    // suspended tasks (their stacks cannot be unwound)
                    // and fail loudly instead of hanging forever.
                    drop(fibers);
                    panic!(
                        "mpisim event core: {live} rank(s) still blocked after abort \
                         (simulated communication deadlock)"
                    );
                }
                // Ready heap dry with live ranks: a simulated deadlock
                // (e.g. a receive whose sender already returned). Raise
                // the abort so every blocking loop drains with
                // `MpiError::Aborted` instead of hanging.
                shared.raise_abort();
            }
        }
    }
    drop(fibers);
    // Invariant: the driver loop above ends only once every fiber has
    // finished, and a fiber's last act is to fill its slot.
    Ok(slots
        .into_iter()
        .map(|s| s.expect("rank fiber finished without reporting"))
        .collect())
}

/// Entry point: run `body` on `nprocs` simulated ranks.
pub fn run<T, F>(
    nprocs: usize,
    cfg: SimConfig,
    body: F,
) -> std::result::Result<SimReport<T>, SimError>
where
    T: Send,
    F: Fn(&mut Rank) -> Result<T> + Sync,
{
    if nprocs == 0 {
        return Err(SimError::Config("need at least one rank, got 0".into()));
    }
    cfg.net.validate().map_err(SimError::Config)?;
    let backend = cfg.backend.resolve().map_err(SimError::Config)?;
    let shared = Arc::new(Shared::new(nprocs, &cfg));
    if let Some(engine) = &cfg.chaos {
        engine
            .check_world(nprocs, shared.fabric.ports())
            .map_err(SimError::Config)?;
    }
    let substrate = match backend {
        Backend::Thread => Substrate::Thread,
        Backend::Event | Backend::Auto => Substrate::Native,
    };
    let per_rank = {
        let _outer = RestoreSimulation(SIMULATION.with_borrow(Option::clone));
        run_event(nprocs, &shared, substrate, &body)?
    };

    // Prefer a root-cause error (not Aborted) from the lowest rank. An
    // unhandled crash dominates its own knock-on effects (peers failing
    // with `PeerCrashed` on the dead rank) but not unrelated errors.
    let crashed_rank = per_rank
        .iter()
        .position(|(_, _, _, _, o)| matches!(o, Outcome::Crashed));
    let mut first_abort: Option<SimError> = None;
    for (i, (_, _, _, _, outcome)) in per_rank.iter().enumerate() {
        match outcome {
            Outcome::Err(MpiError::Aborted) => {
                first_abort.get_or_insert(SimError::RankFailed {
                    rank: i,
                    error: MpiError::Aborted,
                });
            }
            Outcome::Err(MpiError::PeerCrashed { rank }) if Some(*rank) == crashed_rank => {
                // Knock-on failure from the crash; folded into the
                // `CollectiveAborted` report below.
            }
            Outcome::Err(e) => {
                return Err(SimError::RankFailed {
                    rank: i,
                    error: e.clone(),
                })
            }
            Outcome::Panic(m) => {
                return Err(SimError::RankPanicked {
                    rank: i,
                    message: m.clone(),
                })
            }
            Outcome::Ok(_) | Outcome::Crashed => {}
        }
    }
    if let Some(crashed_rank) = crashed_rank {
        return Err(SimError::CollectiveAborted { crashed_rank });
    }
    if let Some(e) = first_abort {
        return Err(e);
    }

    let mut results = Vec::with_capacity(nprocs);
    let mut clocks = Vec::with_capacity(nprocs);
    let mut stats = Vec::with_capacity(nprocs);
    let mut traces = Vec::with_capacity(nprocs);
    let mut metrics = RankMetrics::default();
    for (clock, st, trace, m, outcome) in per_rank {
        clocks.push(clock);
        stats.push(st);
        traces.push(trace);
        metrics.merge(&m);
        match outcome {
            Outcome::Ok(v) => results.push(v),
            _ => unreachable!("errors handled above"),
        }
    }
    let makespan = clocks.iter().cloned().fold(0.0, f64::max);
    Ok(SimReport {
        results,
        clocks,
        makespan,
        stats,
        fabric: shared.fabric.stats(),
        traces,
        metrics,
        cliff: shared.cliff.total(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::Phase;

    fn cfg() -> SimConfig {
        SimConfig::default()
    }

    #[test]
    fn ranks_have_identity() {
        let rep = run(4, cfg(), |rk| Ok((rk.rank(), rk.nprocs()))).unwrap();
        for (i, &(r, n)) in rep.results.iter().enumerate() {
            assert_eq!(r, i);
            assert_eq!(n, 4);
        }
    }

    #[test]
    fn memory_budget_failure_aborts_cleanly() {
        let mut c = cfg();
        c.mem_budget = Some(100);
        let err = run(2, c, |rk| {
            if rk.rank() == 0 {
                let _g = rk.alloc(200)?; // exceeds budget
                Ok(())
            } else {
                // Rank 1 would block forever in the barrier without abort.
                rk.barrier()?;
                Ok(())
            }
        })
        .unwrap_err();
        match err {
            SimError::RankFailed { rank, error } => {
                assert_eq!(rank, 0);
                assert!(matches!(error, MpiError::OutOfMemory { .. }));
            }
            other => panic!("unexpected: {other}"),
        }
    }

    #[test]
    fn panic_in_rank_is_reported_and_releases_peers() {
        let err = run(2, cfg(), |rk| {
            if rk.rank() == 0 {
                panic!("deliberate test panic");
            }
            rk.barrier()?;
            Ok(())
        })
        .unwrap_err();
        match err {
            SimError::RankPanicked { rank, message } => {
                assert_eq!(rank, 0);
                assert!(message.contains("deliberate"));
            }
            other => panic!("unexpected: {other}"),
        }
    }

    /// Every rank of a run, on either substrate, sees that run's id; the
    /// next run has another, and the caller's thread is outside both.
    #[test]
    fn each_run_is_a_simulation_of_its_own_on_every_rank_thread() {
        assert_eq!(simulation(), None);
        for backend in [Backend::Event, Backend::Thread] {
            let ids = || {
                let c = SimConfig { backend, ..cfg() };
                run(4, c, |_| Ok(simulation())).unwrap().results
            };
            let (a, b) = (ids(), ids());
            assert!(a[0].is_some() && a.iter().all(|&id| id == a[0]), "{a:?}");
            assert!(b.iter().all(|&id| id == b[0]) && b[0] != a[0], "{b:?}");
            assert_eq!(simulation(), None, "{backend:?}: the caller's id is back");
        }
    }

    /// The lock rule fails loudly: a rank that holds a host lock across a
    /// clock funnel panics, and the message names the rule. The same body
    /// with the guard dropped first runs. On both substrates.
    #[cfg(debug_assertions)]
    #[test]
    fn a_guard_held_across_virtual_time_fails_the_rank_naming_the_rule() {
        let lock = parking_lot::Mutex::new(0u64);
        for backend in [Backend::Event, Backend::Thread] {
            let c = SimConfig { backend, ..cfg() };
            let err = run(2, c.clone(), |rk| {
                let mut held = lock.lock();
                rk.advance(1e-6);
                *held += 1;
                Ok(())
            })
            .unwrap_err();
            match err {
                SimError::RankPanicked { rank, message } => {
                    assert_eq!(rank, 0, "{backend:?}");
                    assert!(
                        message.contains("no host lock across virtual time")
                            && message.contains("1 parking_lot guard(s) live at a clock funnel"),
                        "{backend:?}: {message}"
                    );
                }
                other => panic!("{backend:?}: unexpected: {other}"),
            }
            let rep = run(2, c, |rk| {
                *lock.lock() += 1;
                rk.advance(1e-6);
                Ok(())
            })
            .unwrap();
            assert_eq!(rep.clocks, vec![1e-6; 2], "{backend:?}");
        }
    }

    #[test]
    fn phase_totals_sum_to_final_clock() {
        let c = SimConfig {
            trace: true,
            ..cfg()
        };
        let rep = run(4, c, |rk| {
            rk.advance(0.001 * (rk.rank() + 1) as f64);
            if rk.rank() == 0 {
                rk.send(1, 7, &[1; 256])?;
            } else if rk.rank() == 1 {
                rk.recv(Some(0), Some(7))?;
            }
            rk.barrier()?;
            let _ = rk.allgather(&[rk.rank() as u8])?;
            rk.with_phase(Phase::Io, |rk| rk.advance(0.002));
            rk.charge_memcpy(1 << 20);
            Ok(())
        })
        .unwrap();
        for (r, tr) in rep.traces.iter().enumerate() {
            assert!(
                (tr.totals.total() - rep.clocks[r]).abs() < 1e-9,
                "rank {r}: phase totals {} != clock {}",
                tr.totals.total(),
                rep.clocks[r]
            );
            assert!(tr.totals.get(Phase::Io) >= 0.002 - 1e-12, "rank {r}");
            assert!(tr.totals.get(Phase::Sync) > 0.0, "rank {r}");
            assert!(!tr.spans.is_empty(), "rank {r} recorded spans");
        }
    }

    #[test]
    fn tracing_disabled_keeps_totals_but_no_spans() {
        let rep = run(2, cfg(), |rk| {
            rk.advance(0.5);
            rk.barrier()?;
            Ok(())
        })
        .unwrap();
        for (r, tr) in rep.traces.iter().enumerate() {
            assert!(tr.spans.is_empty(), "no spans without SimConfig::trace");
            assert!(
                (tr.totals.total() - rep.clocks[r]).abs() < 1e-9,
                "totals still conserve when spans are off"
            );
        }
    }

    #[test]
    fn setup_errors_are_config_errors_before_any_rank_runs() {
        match run(0, cfg(), |_| Ok(())) {
            Err(SimError::Config(m)) => assert!(m.contains("at least one rank"), "{m}"),
            other => panic!("unexpected: {other:?}"),
        }
        assert_eq!(Backend::from_env(None), Ok(Backend::Event));
        assert_eq!(Backend::from_env(Some("event")), Ok(Backend::Event));
        assert_eq!(Backend::from_env(Some("thread")), Ok(Backend::Thread));
        for bad in ["bogus", "", "Thread", "event "] {
            let m = Backend::from_env(Some(bad)).unwrap_err();
            assert!(m.contains(&format!("got {bad:?}")), "{m}");
        }
    }

    /// The asm substrate's stack pool, seen through its `#[cfg(test)]`
    /// counters.
    #[cfg(all(target_arch = "x86_64", target_os = "linux"))]
    mod pooled {
        use super::*;

        #[test]
        fn a_refused_stack_is_a_config_error_and_the_spawned_fibers_go_back() {
            use crate::fiber::{pool_counts, set_map_budget};
            use std::sync::atomic::AtomicUsize;
            let ran = AtomicUsize::new(0);
            let body = |_: &mut Rank| {
                ran.fetch_add(1, Ordering::SeqCst);
                Ok(())
            };
            let event = || SimConfig {
                backend: Backend::Event,
                ..cfg()
            };
            set_map_budget(Some(3));
            let err = run(5, event(), body).unwrap_err();
            set_map_budget(None);
            match err {
                SimError::Config(m) => assert!(
                    m.contains("cannot give 5 ranks a fiber stack each: mmap of a"),
                    "{m}"
                ),
                other => panic!("unexpected: {other}"),
            }
            assert_eq!(ran.load(Ordering::SeqCst), 0, "no rank ran");
            let c = pool_counts();
            assert_eq!((c.maps, c.pooled, c.in_use), (3, 3, 0), "{c:?}");
            run(5, event(), body).unwrap();
            assert_eq!(ran.load(Ordering::SeqCst), 5);
            assert_eq!(pool_counts().maps, 5, "two more maps, three stacks reused");
        }

        /// What a traced run shows: clocks and makespan as f64 bits, stats,
        /// the Chrome trace and the results.
        type Observed = (Vec<u64>, u64, Vec<RankStats>, String, Vec<u64>);

        fn observe(rep: SimReport<u64>) -> Observed {
            let clocks = rep.clocks.iter().map(|c| c.to_bits()).collect();
            let trace = crate::trace::chrome_trace_json(&rep.traces);
            (
                clocks,
                rep.makespan.to_bits(),
                rep.stats,
                trace,
                rep.results,
            )
        }

        /// A ring exchange, a barrier, an allgather and a call chain deep
        /// enough that the next run on this stack starts over the bytes
        /// this one left. Records the base of the fiber stack it runs on
        /// (none on the thread substrate).
        fn ring(rk: &mut Rank, bases: &parking_lot::Mutex<Vec<usize>>) -> Result<u64> {
            fn depth(n: u64) -> u64 {
                let pad = std::hint::black_box([n as u8; 256]);
                if n == 0 {
                    0
                } else {
                    depth(n - 1) + u64::from(pad[n as usize % 256])
                }
            }
            bases.lock().extend(crate::fiber::current_stack());
            let (me, n) = (rk.rank(), rk.nprocs());
            rk.advance(1e-4 * (me % 3) as f64);
            rk.send((me + 1) % n, 1, &[me as u8; 64])?;
            let got = rk.recv(Some((me + n - 1) % n), Some(1))?;
            rk.barrier()?;
            let all = rk.allgather(&got.data[..1 + me % 4])?;
            Ok(depth(40) + all.iter().map(|p| p.len() as u64).sum::<u64>())
        }

        #[test]
        fn pooled_stacks_leave_every_report_bit_identical() {
            use crate::fiber::pool_counts;
            use parking_lot::Mutex;
            const N: usize = 16;
            const STUCK: [usize; 2] = [1, 3];
            let traced = |backend, bases: &Mutex<Vec<usize>>| {
                let c = SimConfig {
                    trace: true,
                    backend,
                    ..cfg()
                };
                observe(run(N, c, |rk| ring(rk, bases)).unwrap())
            };
            // (maps, pooled, in use, peak); the pool never holds more stacks
            // than were in use at once.
            let counts = || {
                let c = pool_counts();
                assert!(c.pooled + c.in_use <= c.peak, "{c:?}");
                (c.maps, c.pooled, c.in_use, c.peak)
            };
            assert_eq!(
                counts(),
                (0, 0, 0, 0),
                "each test thread starts with no pool"
            );

            let cold_bases = Mutex::new(Vec::new());
            let cold = traced(Backend::Event, &cold_bases);
            assert_eq!(counts(), (N, N, 0, N));

            let warm_bases = Mutex::new(Vec::new());
            assert_eq!(traced(Backend::Event, &warm_bases), cold, "warm run");
            assert_eq!(counts(), (N, N, 0, N), "the warm run maps no stack");
            assert_eq!(*warm_bases.lock(), *cold_bases.lock(), "rank i, stack i");

            // Two ranks park for good and ignore the abort: the driver gives
            // up and leaks their suspended fibers, stacks included.
            let stuck_bases = Mutex::new(Vec::new());
            let event = SimConfig {
                backend: Backend::Event,
                ..cfg()
            };
            let deadlock = std::panic::catch_unwind(AssertUnwindSafe(|| {
                run(N, event, |rk| {
                    if STUCK.contains(&rk.rank()) {
                        stuck_bases.lock().extend(crate::fiber::current_stack());
                        loop {
                            rk.shared.core.park(rk.id, rk.clock);
                        }
                    }
                    Ok(())
                })
            }));
            assert!(deadlock.is_err(), "the deadlock path panics");
            assert_eq!(counts(), (N, N - 2, 2, N));

            let after_bases = Mutex::new(Vec::new());
            assert_eq!(traced(Backend::Event, &after_bases), cold, "after a leak");
            assert_eq!(
                counts(),
                (N + 2, N, 2, N + 2),
                "two maps replace the leaked"
            );
            let stuck = stuck_bases.lock();
            assert_eq!(stuck.len(), 2);
            assert!(
                after_bases.lock().iter().all(|b| !stuck.contains(b)),
                "a leaked stack was handed out again"
            );

            let none = Mutex::new(Vec::new());
            assert_eq!(traced(Backend::Thread, &none), cold, "thread substrate");
            assert!(none.lock().is_empty());
        }
    }
}
