//! The simulation runtime: simulated MPI ranks over a shared fabric, and
//! the [`Rank`] handle through which rank code performs communication,
//! RMA, collectives, and simulated memory allocation.
//!
//! All ranks execute under one deterministic virtual-time event loop
//! (`(clock, rank)` order — see the `event` module). Two interchangeable
//! substrates carry the rank call stacks (see [`Backend`]): the default
//! **event** backend uses cooperative asm fibers on the driver thread,
//! which scales past 16k ranks; the **thread** backend parks one OS
//! thread per rank and hands the baton through the same scheduler. Both
//! produce bit-identical reports on every workload by construction.
//!
//! Virtual time: every rank owns a clock (`f64` seconds). Local work
//! advances it directly; messaging reconciles clocks through arrival
//! timestamps; collectives reconcile through the rendezvous maximum. The
//! *makespan* of a simulation is the maximum final clock.
//!
//! Observability: every clock mutation goes through `Rank::set_clock_as`
//! (or the helpers that call it), which attributes the elapsed delta to a
//! [`Phase`] on the rank's tracer. Runtime operations self-classify —
//! point-to-point, all-to-all and RMA time is `Exchange`, rendezvous
//! collectives are `Sync` — while layers above tag their file-system waits
//! with [`Rank::with_phase`]. The per-phase totals therefore sum to the
//! final clock by construction. When `SimConfig::trace` is set, each
//! operation additionally records a [`Span`](crate::trace::Span) with byte
//! counts and cross-rank dependency edges, collected into
//! [`SimReport::traces`].
//!
//! The runtime is split by concern: `p2p` (sends, receives and the
//! mailbox wait), `coll` (the rendezvous collectives and the payload
//! decoders), `alltoall` (the two personalized all-to-alls and the
//! node-leader election), `rma` (windows and lock epochs) and `driver`
//! (the event loop, `run` and [`SimReport`]). This file holds the
//! configuration, the shared simulation state, the [`Rank`] handle and its
//! clock funnels, the chaos checkpoint, and the tracing and I/O hooks.

mod alltoall;
mod coll;
mod driver;
mod p2p;
mod rma;

pub use coll::ReduceOp;
pub(crate) use driver::with_cliff_tally;
pub use driver::{run, simulation, SimReport};

use crate::comm::{CommShared, Flavor};
use crate::error::{MpiError, Result};
use crate::event::EventCore;
use crate::mem::{MemGuard, MemState, MemTracker};
use crate::net::{Fabric, NetConfig};
use crate::p2p::{Mailbox, Tag};
use crate::stats::RankStats;
use crate::timeline::CliffTally;
use crate::trace::{Phase, Tracer};
use parking_lot::Mutex;
use std::any::Any;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// Reserved tag space for internal operations (user tags must stay below).
const TAG_INTERNAL_BASE: Tag = Tag::MAX - 15;
const TAG_ALLTOALLV: Tag = TAG_INTERNAL_BASE;
const TAG_GROUP_A2A: Tag = TAG_INTERNAL_BASE + 1;

static WORLD: Flavor = Flavor {
    barrier: "barrier",
    allgather: "allgather",
    burst: "alltoallv_burst",
    burst_tag: TAG_ALLTOALLV,
    world: true,
};
static GROUP: Flavor = Flavor {
    barrier: "barrier_in",
    allgather: "allgather_in",
    burst: "alltoallv_burst_in",
    burst_tag: TAG_GROUP_A2A,
    world: false,
};

/// Which execution substrate runs the simulated ranks. Both backends are
/// driven by the same deterministic virtual-time event loop, so they are
/// bit-identical in every observable output (results, clocks, stats,
/// traces, metrics, recovered bytes); they differ only in what carries a
/// rank's call stack, and hence in wall-clock cost and scalability.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Backend {
    /// Resolve from the `MPISIM_BACKEND` environment variable (`thread`
    /// or `event`); defaults to [`Backend::Event`] when unset. Explicitly
    /// configured backends are never overridden by the environment.
    #[default]
    Auto,
    /// Legacy substrate: one OS thread per rank, each parked until the
    /// event loop hands it the baton. Simple, portable, debuggable with
    /// plain thread tooling — but context switches through the kernel,
    /// so it is impractical beyond a few thousand ranks.
    Thread,
    /// Fiber substrate: every rank is a cooperative asm fiber resumed on
    /// the driver thread. User-space switches and lazily committed stacks:
    /// 16k+ ranks on one machine.
    Event,
}

impl Backend {
    fn resolve(self) -> std::result::Result<Backend, String> {
        match self {
            Backend::Auto => Backend::from_env(env_var("MPISIM_BACKEND")?.as_deref()),
            explicit => Ok(explicit),
        }
    }

    /// The backend a raw `MPISIM_BACKEND` value names (`None` when unset).
    fn from_env(v: Option<&str>) -> std::result::Result<Backend, String> {
        match v {
            None | Some("event") => Ok(Backend::Event),
            Some("thread") => Ok(Backend::Thread),
            Some(v) => Err(format!(
                "MPISIM_BACKEND must be 'thread' or 'event', got {v:?}"
            )),
        }
    }
}

/// An environment variable's value, `None` when unset; one that is not
/// UTF-8 is refused by name rather than read as unset.
fn env_var(name: &str) -> std::result::Result<Option<String>, String> {
    match std::env::var(name) {
        Ok(v) => Ok(Some(v)),
        Err(std::env::VarError::NotPresent) => Ok(None),
        Err(std::env::VarError::NotUnicode(v)) => Err(format!("{name}={v:?} is not UTF-8")),
    }
}

/// Whole-simulation configuration.
#[derive(Debug, Clone, Default)]
pub struct SimConfig {
    pub net: NetConfig,
    /// Execution engine (see [`Backend`]). `Auto` honours the
    /// `MPISIM_BACKEND` environment variable and otherwise picks the
    /// event core.
    pub backend: Backend, // setting: differential tests pin each substrate explicitly
    /// Simulated memory budget per rank in bytes (`None` = unlimited).
    pub mem_budget: Option<u64>,
    /// Record per-operation trace spans (phase totals are always kept).
    /// Costs nothing when `false`.
    pub trace: bool,
    /// Collect per-rank metric histograms (message sizes, retry counts,
    /// buffer hit ratios) for the [`crate::metrics`] registry. Like
    /// `trace`, costs nothing when `false`: every observation site is a
    /// single branch on a plain bool.
    pub metrics: bool,
    /// Fault-injection engine (`None` = healthy machine, zero cost).
    /// Runtime operations poll it for rank-stall windows and compute
    /// slowdowns; the fabric polls it for message delays and
    /// connection-cache flushes.
    pub chaos: Option<Arc<chaos::ChaosEngine>>,
    /// Node topology (`None` = flat machine). A trivial topology (one rank
    /// per node) is guaranteed bit-identical to `None` — see
    /// [`crate::topology`].
    pub topology: Option<crate::topology::Topology>,
}

/// Where a shared object sits in the registry: under the world rendezvous
/// generation that created it, or under the per-rank sequence number of
/// the [`Rank::replicated`] call that asked for it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Slot {
    Collective(u64),
    Replica(u64),
}

/// A shared object, the key it was built under and the number of ranks
/// that fetched it (entries are pruned once every rank holds one). The
/// object is its builder's whole `Result<Arc<T>, E>`, so a failed build
/// hands every rank the same error.
struct RegistryEntry {
    key: u64,
    object: Box<dyn Any + Send + Sync>,
    fetched: usize,
}

pub(crate) struct Shared {
    nprocs: usize,
    pub(crate) fabric: Fabric,
    mailboxes: Vec<Mailbox>,
    /// The communicator of all ranks; every [`Rank::world`] is a handle
    /// onto this one instance.
    world: Arc<CommShared>,
    mem: Vec<Arc<MemState>>,
    /// Shared objects: collectively created ones and replicated tables.
    registry: Mutex<HashMap<Slot, RegistryEntry>>,
    abort: AtomicBool,
    trace: bool,
    metrics: bool,
    chaos: Option<Arc<chaos::ChaosEngine>>,
    /// Per-rank crash-stop flags. A rank marks itself dead at the
    /// chaos checkpoint where it first observes its injected crash; peers
    /// consult the flag so blocking operations on a dead rank fail with a
    /// typed error instead of hanging.
    dead: Vec<AtomicBool>,
    /// The virtual-time scheduler driving every rank task (on either
    /// substrate). Every unblocking event (mailbox push, rendezvous
    /// completion, abort, rank death) must wake the affected parked
    /// tasks here.
    core: Arc<EventCore>,
    /// This simulation's id, fresh per [`run`]; see [`simulation`].
    id: u64,
    /// What every timeline booked from one of this simulation's ranks gave
    /// up to its prune; see [`Timeline`](crate::timeline::Timeline).
    cliff: CliffTally,
}

impl Shared {
    fn new(nprocs: usize, cfg: &SimConfig) -> Self {
        let fabric = Fabric::new_full(
            nprocs,
            cfg.net.clone(),
            cfg.chaos.clone(),
            cfg.topology.clone(),
        );
        let world = CommShared::new((0..nprocs).collect(), &WORLD);
        Shared {
            nprocs,
            fabric,
            mailboxes: (0..nprocs).map(|_| Mailbox::default()).collect(),
            world: Arc::new(world),
            mem: (0..nprocs)
                .map(|_| Arc::new(MemState::new(cfg.mem_budget)))
                .collect(),
            registry: Mutex::new(HashMap::new()),
            abort: AtomicBool::new(false),
            trace: cfg.trace,
            metrics: cfg.metrics,
            chaos: cfg.chaos.clone(),
            dead: (0..nprocs).map(|_| AtomicBool::new(false)).collect(),
            core: Arc::new(EventCore::new(nprocs)),
            id: driver::next_simulation(),
            cliff: CliffTally::default(),
        }
    }

    /// A message was deposited in `dst`'s mailbox: wake it if it is a
    /// parked task.
    fn notify_recv(&self, dst: usize) {
        self.core.wake(dst);
    }

    fn raise_abort(&self) {
        self.abort.store(true, Ordering::SeqCst);
        self.core.wake_all();
    }

    /// Record that `rank` crash-stopped: set its dead flag, release any
    /// receiver blocked on it, and shrink the world rendezvous so
    /// collectives complete over the survivors. Unlike `raise_abort` the
    /// simulation keeps running — only this rank is gone.
    fn mark_dead(&self, rank: usize) {
        self.dead[rank].store(true, Ordering::SeqCst);
        self.world.rendezvous.mark_dead(rank);
        // The death may have completed a rendezvous generation or freed a
        // receiver blocked on this rank; let every parked task re-check
        // its predicate.
        self.core.wake_all();
    }
}

/// A deferred-completion I/O handle — the event-core primitive behind
/// pipelined collective I/O. The storage layer applies bytes at submission
/// time and returns the virtual completion instant; a pipelined caller
/// holds that instant in one of these instead of syncing its clock, keeps
/// working (e.g. runs the next round's exchange), and settles the clock
/// later through [`Rank::io_complete`]. Because bytes land at submission
/// and per-OST service is serialized on the storage timelines, deferring
/// the *clock* sync never changes file contents — only how much of the
/// service time hides behind other work.
#[derive(Debug, Clone)]
pub struct DeferredIo {
    /// Span name recorded at completion (pipeline-tagged by convention,
    /// e.g. `"ocio_io_pipe"`).
    pub name: &'static str,
    /// Virtual time the I/O was submitted.
    pub submitted: f64,
    /// Virtual completion instant returned by the storage layer.
    pub done: f64,
    /// Bytes moved, for span accounting.
    pub bytes: u64,
}

/// Per-rank handle passed to the simulation body. Not `Send`: it belongs to
/// its rank thread.
pub struct Rank {
    id: usize,
    nprocs: usize,
    clock: f64,
    shared: Arc<Shared>,
    mem: MemTracker,
    /// State of the deterministic per-rank noise sequence.
    noise_seq: u64,
    /// Public, rank-local statistics (also collected into the report).
    pub stats: RankStats,
    /// Optional metric histograms (gated on `SimConfig::metrics`); I/O
    /// layers record into it directly, like `stats`.
    pub metrics: crate::metrics::RankMetrics,
    /// Clock-attribution and span-recording state.
    tracer: Tracer,
    /// Sticky crash-stop flag: set when this rank first observes its own
    /// injected crash; every runtime operation afterwards returns
    /// [`MpiError::RankCrashed`].
    crashed: bool,
    /// How many [`Rank::replicated`] calls this rank has made: the next
    /// one's registry slot.
    replicas: u64,
}

impl Rank {
    fn new(id: usize, shared: Arc<Shared>) -> Self {
        let mem = MemTracker {
            rank: id,
            state: Arc::clone(&shared.mem[id]),
        };
        let trace = shared.trace;
        let metrics = shared.metrics;
        Rank {
            id,
            nprocs: shared.nprocs,
            clock: 0.0,
            shared,
            mem,
            noise_seq: 0x9E37_79B9_7F4A_7C15 ^ (id as u64),
            stats: RankStats::default(),
            metrics: crate::metrics::RankMetrics::new(metrics),
            tracer: Tracer::new(id, trace),
            crashed: false,
            replicas: 0,
        }
    }

    // ---- identity & time ----

    pub fn rank(&self) -> usize {
        self.id
    }

    pub fn nprocs(&self) -> usize {
        self.nprocs
    }

    /// Current virtual time in seconds.
    pub fn now(&self) -> f64 {
        self.clock
    }

    /// Advance the local clock by `seconds`, attributed to the active
    /// phase (compute unless inside [`Rank::with_phase`]). Local work is
    /// stretched by any active chaos rank-slowdown window.
    pub fn advance(&mut self, seconds: f64) {
        debug_assert!(seconds >= 0.0, "time cannot run backwards");
        let seconds = match &self.shared.chaos {
            Some(e) => seconds * e.rank_slowdown(self.id, self.clock),
            None => seconds,
        };
        let phase = self.tracer.current_phase();
        self.advance_as(seconds, phase);
    }

    /// Move the clock forward to at least `t` (no-op if already past),
    /// attributed to the active phase.
    pub fn sync_to(&mut self, t: f64) {
        let phase = self.tracer.current_phase();
        self.set_clock_as(t, phase);
    }

    /// Charge a local memory copy of `bytes`, attributed to the active
    /// phase.
    pub fn charge_memcpy(&mut self, bytes: u64) {
        let dt = bytes as f64 * self.shared.fabric.config().memcpy_byte_time;
        let phase = self.tracer.current_phase();
        self.advance_as(dt, phase);
    }

    /// The single funnel for "jump the clock to `t`": attributes the
    /// positive delta to `phase`. Jumps backwards are clamped to no-ops —
    /// the virtual clock is monotone.
    fn set_clock_as(&mut self, t: f64, phase: Phase) {
        crate::event::assert_no_host_lock("a clock funnel");
        if t > self.clock {
            self.tracer.attribute(phase, t - self.clock);
            self.clock = t;
        }
    }

    /// The single funnel for "advance the clock by `dt`" with an explicit
    /// phase attribution.
    fn advance_as(&mut self, dt: f64, phase: Phase) {
        crate::event::assert_no_host_lock("a clock funnel");
        if dt > 0.0 {
            self.tracer.attribute(phase, dt);
            self.clock += dt;
        }
    }

    // ---- fault injection ----

    /// The fault-injection engine attached to this simulation, if any.
    /// Layers above (mpiio/tcio) use it for straggler queries and the
    /// retry policy.
    pub fn chaos(&self) -> Option<&Arc<chaos::ChaosEngine>> {
        self.shared.chaos.as_ref()
    }

    /// Fault checkpoint: called at the entry of every runtime operation
    /// (p2p, collectives, RMA epochs), which is where a descheduled or
    /// failed process would actually be caught.
    ///
    /// Crash-stop: if the fault plan crashes this rank at or before the
    /// current virtual time, the rank marks itself dead (releasing peers
    /// blocked on it) and returns the sticky [`MpiError::RankCrashed`] —
    /// from then on every operation fails with it; the rank never comes
    /// back.
    ///
    /// Stall: if the rank sits inside an injected stall window *right
    /// now*, park it until the window lifts. The wait is attributed to
    /// `Compute` (the rank is not communicating — it is simply not
    /// running) and recorded as a `chaos_stall` span. A crash instant that
    /// falls inside the stall window fires when the stall lifts.
    fn chaos_checkpoint(&mut self) -> Result<()> {
        if self.crashed {
            return Err(MpiError::RankCrashed { rank: self.id });
        }
        let Some(engine) = self.shared.chaos.as_deref() else {
            return Ok(());
        };
        // Ask the (borrowed) engine everything before acting on any of it:
        // a stall lifts at `until`, which is where the clock will then be.
        let start = self.clock;
        let stall = if engine.crashed(self.id, start) {
            None
        } else {
            engine.rank_stall_until(self.id, start)
        };
        let crashed = engine.crashed(self.id, stall.unwrap_or(start));
        if let Some(until) = stall {
            self.set_clock_as(until, Phase::Compute);
            self.stats.chaos_stalls += 1;
            self.tracer
                .record("chaos_stall", Phase::Compute, start, self.clock, 0, None);
        }
        if crashed {
            self.crashed = true;
            self.stats.rank_crashes += 1;
            self.tracer.record(
                "rank_crash",
                Phase::Compute,
                self.clock,
                self.clock,
                0,
                None,
            );
            self.shared.mark_dead(self.id);
            return Err(MpiError::RankCrashed { rank: self.id });
        }
        Ok(())
    }

    // ---- tracing ----

    /// Run `f` with clock time attributed to `phase` by default. Runtime
    /// operations that know better still self-classify (p2p and RMA time
    /// stays `Exchange`, rendezvous collectives stay `Sync`); everything
    /// else — `advance`, `sync_to`, `charge_memcpy` — lands in `phase`.
    /// Nests; the innermost phase wins.
    pub fn with_phase<R>(&mut self, phase: Phase, f: impl FnOnce(&mut Self) -> R) -> R {
        self.tracer.push_phase(phase);
        let out = f(self);
        self.tracer.pop_phase();
        out
    }

    /// Record a span covering `[start, now]` for an instrumentation site
    /// (e.g. an I/O layer marking a collective-buffer write). No-op unless
    /// tracing is enabled.
    pub fn trace_mark(&mut self, name: &'static str, phase: Phase, start: f64, bytes: u64) {
        let end = self.clock;
        self.tracer.record(name, phase, start, end, bytes, None);
    }

    /// Settle a [`DeferredIo`] handle: record its `Phase::Io` span over
    /// the true service interval `[submitted, done]`, account the portion
    /// that elapsed while this rank was doing other work (the pipelining
    /// win) in [`RankStats::io_overlap`], and sync the clock to the
    /// completion instant — only the residual, non-hidden wait lands in
    /// the `Io` phase totals, so conservation still holds.
    pub fn io_complete(&mut self, h: DeferredIo) {
        let end = h.done.max(h.submitted);
        let hidden = (end.min(self.clock) - h.submitted).max(0.0);
        self.stats.io_overlap += hidden;
        self.tracer
            .record(h.name, Phase::Io, h.submitted, end, h.bytes, None);
        self.set_clock_as(end, Phase::Io);
    }

    pub fn net_config(&self) -> &NetConfig {
        self.shared.fabric.config()
    }

    /// The active (non-trivial) node topology, if any. Cheap to clone
    /// (`Arc`-backed); a trivial `ppn = 1` topology reads back as `None`.
    pub fn topology(&self) -> Option<crate::topology::Topology> {
        self.shared.fabric.topology().cloned()
    }

    /// Convenience: register a simulated allocation.
    pub fn alloc(&self, bytes: u64) -> Result<MemGuard> {
        self.mem.alloc(bytes)
    }

    fn check_abort(&self) -> Result<()> {
        if self.shared.abort.load(Ordering::SeqCst) {
            Err(MpiError::Aborted)
        } else {
            Ok(())
        }
    }

    fn check_rank(&self, r: usize) -> Result<()> {
        if r >= self.nprocs {
            Err(MpiError::InvalidRank {
                rank: r,
                nprocs: self.nprocs,
            })
        } else {
            Ok(())
        }
    }
}
