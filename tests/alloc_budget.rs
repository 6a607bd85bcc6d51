//! What a simulated rank really costs the process, counted by the
//! allocator instead of read off the host: bytes requested and the live
//! peak are functions of the code alone, so the budgets below hold on any
//! machine (no RSS, fault or wall-clock figure enters tier-1).
//!
//! One `#[test]` only: nothing else may allocate beside the measured
//! regions. Fiber stacks are `mmap`ed by `mpisim::fiber` directly and are
//! the one per-rank cost this cannot see. `-- --nocapture` prints the
//! bytes-per-rank table DESIGN.md ("Modelled vs. real memory") quotes,
//! with each region's allocation count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};
use std::sync::Arc;
use tcio::{TcioConfig, TcioFile, TcioMode};
use workloads::art::{self, ArtConfig, ArtMethod};
use workloads::synthetic::{self, SynthParams};

/// Bytes asked of the allocator (a `realloc` counts its growth).
static REQUESTED: AtomicUsize = AtomicUsize::new(0);
/// Calls that handed out a block: `alloc`, `alloc_zeroed` and `realloc`.
static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);
static LIVE: AtomicUsize = AtomicUsize::new(0);
static LIVE_PEAK: AtomicUsize = AtomicUsize::new(0);

struct Counting;

fn grew(bytes: usize) {
    REQUESTED.fetch_add(bytes, Relaxed);
    let live = LIVE.fetch_add(bytes, Relaxed) + bytes;
    LIVE_PEAK.fetch_max(live, Relaxed);
}

// SAFETY: every call is forwarded unchanged to `System`; the counters are
// side effects that never touch the memory handed out.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Relaxed);
        grew(layout.size());
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Relaxed);
        grew(layout.size());
        System.alloc_zeroed(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Relaxed);
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Relaxed);
        match new_size.checked_sub(layout.size()) {
            Some(growth) => grew(growth),
            None => drop(LIVE.fetch_sub(layout.size() - new_size, Relaxed)),
        }
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// Allocator traffic of one measured region.
#[derive(Debug, Clone, Copy)]
struct Cost {
    requested: usize,
    /// Blocks handed out (a `realloc` counts as one).
    allocations: usize,
    /// Highest live byte count reached, above the level at entry.
    live_peak: usize,
}

fn measure(f: impl FnOnce()) -> Cost {
    let (requested, live) = (REQUESTED.load(Relaxed), LIVE.load(Relaxed));
    let allocations = ALLOCATIONS.load(Relaxed);
    LIVE_PEAK.store(live, Relaxed);
    f();
    Cost {
        requested: REQUESTED.load(Relaxed) - requested,
        allocations: ALLOCATIONS.load(Relaxed) - allocations,
        live_peak: LIVE_PEAK.load(Relaxed) - live,
    }
}

fn sim() -> mpisim::SimConfig {
    mpisim::SimConfig {
        backend: mpisim::Backend::Event,
        ..Default::default()
    }
}

const ART_RANKS: usize = 256;
/// The same shape at four times the ranks: what a rank costs must not grow
/// with the rank count.
const ART_RANKS_LARGE: usize = 1024;
const SYNTH_RANKS: usize = 128;
const OCIO_RANKS: usize = 64;

/// `synth_tcio_roundtrip`'s `requested` at 7846fa5, the last commit whose
/// opens allocated both segment-sized buffers eagerly. Every level-2 byte
/// of that run holds data, so first touch can save nothing there and must
/// not cost more than the slack below.
const SYNTH_REQUESTED_AT_7846FA5: usize = 62_860_674;

/// Most allocations `synth_tcio_roundtrip` may make: about twice what it
/// makes (slack for std's growth policy), and well under one per flush,
/// fetch or epoch.
const SYNTH_ALLOCATIONS: usize = 20_000;

/// simbench's `art_scale` shape at `ranks`: one segment of ~3 small trees
/// per rank, so rank count, not bytes, is what it costs.
fn art_cfg(ranks: usize) -> ArtConfig {
    ArtConfig {
        num_segments: ranks,
        mu: 3.0,
        sigma: 1.0,
        seed: 7,
        ..ArtConfig::default()
    }
}

/// One dump + restart cycle at `ranks` on a fresh file system:
/// `[dump, restart]`.
fn art_cycle(ranks: usize) -> [Cost; 2] {
    type Phase = fn(
        &mut mpisim::Rank,
        &Arc<pfs::Pfs>,
        &ArtConfig,
        ArtMethod,
        &str,
    ) -> workloads::Result<synthetic::RunMetrics>;
    let cfg = art_cfg(ranks);
    let fs = pfs::Pfs::new(ranks, pfs::PfsConfig::default()).unwrap();
    [art::dump as Phase, art::restart].map(|phase| {
        measure(|| {
            let rep = mpisim::run(ranks, sim(), |rk| {
                Ok(phase(rk, &fs, &cfg, ArtMethod::Tcio, "/art")?.bytes)
            })
            .unwrap();
            assert!(rep.results.iter().all(|&b| b > 0), "every rank moved data");
        })
    })
}

/// Collective open + close of a default-configured (1 MiB segment) handle
/// that moves nothing.
fn idle_open(fs: &Arc<pfs::Pfs>, mode: TcioMode) -> Cost {
    measure(|| {
        mpisim::run(ART_RANKS, sim(), |rk| {
            let cfg = TcioConfig::for_file_size(0, rk.nprocs());
            TcioFile::open(rk, fs, "/idle", mode, cfg)?.close(rk)?;
            Ok(())
        })
        .unwrap();
    })
}

/// Table-I arrays through TCIO and back where the file fills every
/// level-2 segment exactly: 128 ranks × 1024 × (4 + 8) B = 384 × 4 KiB.
fn synth_tcio_roundtrip() -> Cost {
    let p = SynthParams::with_types("i,d", 1024, 1).unwrap();
    let tcfg = TcioConfig::for_file_size_with_segment(p.file_size(SYNTH_RANKS), SYNTH_RANKS, 4096);
    assert_eq!(
        tcfg.l2_bytes() * SYNTH_RANKS as u64,
        p.file_size(SYNTH_RANKS)
    );
    let fs = pfs::Pfs::new(SYNTH_RANKS, pfs::PfsConfig::default()).unwrap();
    measure(|| {
        mpisim::run(SYNTH_RANKS, sim(), |rk| {
            synthetic::write_tcio(rk, &fs, &p, "/synth", Some(tcfg.clone()))?;
            synthetic::read_tcio(rk, &fs, &p, "/synth", Some(tcfg.clone()))?;
            Ok(())
        })
        .unwrap();
    })
}

/// Program 2 — the Table-I arrays through a derived-datatype file view and
/// one collective call — written, then read back: `[write, read]`.
fn synth_ocio_cycle(p: &SynthParams) -> [Cost; 2] {
    type Phase = fn(
        &mut mpisim::Rank,
        &Arc<pfs::Pfs>,
        &SynthParams,
        &str,
        &mpiio::CollectiveConfig,
    ) -> workloads::Result<synthetic::RunMetrics>;
    let fs = pfs::Pfs::new(OCIO_RANKS, pfs::PfsConfig::default()).unwrap();
    let ccfg = mpiio::CollectiveConfig::default();
    [synthetic::write_ocio as Phase, synthetic::read_ocio].map(|phase| {
        measure(|| {
            mpisim::run(OCIO_RANKS, sim(), |rk| {
                phase(rk, &fs, p, "/ocio", &ccfg)?;
                Ok(())
            })
            .unwrap();
        })
    })
}

fn within(a: usize, b: usize, frac: f64) -> bool {
    a.abs_diff(b) as f64 <= frac * a.max(b) as f64
}

#[test]
fn real_allocation_follows_touched_bytes() {
    let runtime = measure(|| drop(mpisim::run(ART_RANKS, sim(), |_| Ok(())).unwrap()));
    let fs = pfs::Pfs::new(ART_RANKS, pfs::PfsConfig::default()).unwrap();
    let idle_write = idle_open(&fs, TcioMode::Write);
    let idle_read = idle_open(&fs, TcioMode::Read);
    let plan = measure(|| drop(art::plan(&art_cfg(ART_RANKS))));
    let first = art_cycle(ART_RANKS);
    let second = art_cycle(ART_RANKS);
    let large = art_cycle(ART_RANKS_LARGE);
    let synth = synth_tcio_roundtrip();
    let ocio_params = SynthParams::with_types("i,d", 4096, 1).unwrap();
    let ocio = synth_ocio_cycle(&ocio_params);

    println!(
        "bytes per rank, requested / live peak, and allocations in the whole region \
         ({ART_RANKS} ranks; fiber stacks not counted)"
    );
    let row = |name: &str, c: Cost, ranks: usize| {
        println!(
            "  {name:<44} {:>9} / {:>9} {:>9}",
            c.requested / ranks,
            c.live_peak / ranks,
            c.allocations
        );
    };
    row("mpisim::run, empty body", runtime, ART_RANKS);
    row(
        "+ TcioFile open + close, write mode, idle",
        idle_write,
        ART_RANKS,
    );
    row(
        "+ TcioFile open + close, read mode, idle",
        idle_read,
        ART_RANKS,
    );
    row("ART dump, whole run", first[0], ART_RANKS);
    row("ART restart, whole run", first[1], ART_RANKS);
    row("  of which art::plan, per call", plan, 1);
    row("ART dump, second cycle", second[0], ART_RANKS);
    row("ART restart, second cycle", second[1], ART_RANKS);
    println!("ART at {ART_RANKS_LARGE} ranks:");
    row("ART dump, whole run", large[0], ART_RANKS_LARGE);
    row("ART restart, whole run", large[1], ART_RANKS_LARGE);
    println!("synth TCIO write + read-back, {SYNTH_RANKS} ranks, every level-2 byte used:");
    row("whole run", synth, SYNTH_RANKS);
    println!("  requested in total: {}", synth.requested);
    let ocio_data = ocio_params.bytes_per_rank() as usize;
    println!("synth OCIO (Program 2), {OCIO_RANKS} ranks, {ocio_data} B of data per rank:");
    row("write_ocio, whole run", ocio[0], OCIO_RANKS);
    row("read_ocio, whole run", ocio[1], OCIO_RANKS);

    // (a) A cycle costs what its ranks touch, not two segment-sized buffers
    // per open (4 MiB per rank over the two opens at 7846fa5).
    for cycle in [first, second] {
        let per_rank = (cycle[0].requested + cycle[1].requested) / ART_RANKS;
        assert!(per_rank < 256 << 10, "{per_rank} B per rank and cycle");
    }
    // (b) ... and not what an earlier cycle left behind.
    for (a, b) in first.iter().zip(&second) {
        assert!(within(a.requested, b.requested, 0.02), "{a:?} vs {b:?}");
        assert!(within(a.live_peak, b.live_peak, 0.02), "{a:?} vs {b:?}");
    }
    // (c) A handle that moves nothing allocates no buffer.
    let per_rank = idle_read.requested / ART_RANKS;
    assert!(
        per_rank < 16 << 10,
        "idle read-mode open: {per_rank} B per rank"
    );
    // (d) Where every buffer byte is used, laziness is (nearly) free.
    let budget = SYNTH_REQUESTED_AT_7846FA5 + SYNTH_REQUESTED_AT_7846FA5 / 20;
    assert!(synth.requested <= budget, "{} > {budget}", synth.requested);
    // (e) A TCIO epoch, fetch and flush allocates nothing: the run's
    // ~49k flushes, ~49k fetches and ~98k epochs made 370 401 allocations
    // when each allocated its ledger, parts and groups; what is left is
    // per open and per segment, and a heap allocation back in any one of
    // them fails this.
    assert!(
        synth.allocations <= SYNTH_ALLOCATIONS,
        "{} allocations > {SYNTH_ALLOCATIONS}",
        synth.allocations
    );
    // (f) A collective costs a small multiple of the data it moves, not of
    // the blocks its file view has: the type map is strided runs from
    // `commit` to the exchange, never a list of extents (55× requested and
    // 11× live per data byte when it was one, four times over).
    for (cost, what) in ocio.iter().zip(["write_ocio", "read_ocio"]) {
        let (requested, live) = (cost.requested / OCIO_RANKS, cost.live_peak / OCIO_RANKS);
        assert!(
            requested <= 20 * ocio_data,
            "{what}: {requested} B requested per rank to move {ocio_data} B"
        );
        assert!(
            live <= 8 * ocio_data,
            "{what}: {live} B live per rank to move {ocio_data} B"
        );
    }
    // (g) A rank costs the same at four times the ranks: the tables every
    // rank needs are built once per simulation, not once per rank (each
    // rank building its own made the 1024-rank cycle 2.0× the 256-rank
    // one, per rank).
    let per_rank =
        |c: [Cost; 2], ranks: usize| (c[0].requested + c[1].requested) as f64 / ranks as f64;
    let growth = per_rank(large, ART_RANKS_LARGE) / per_rank(first, ART_RANKS);
    assert!(
        growth <= 1.1,
        "a rank requests {growth:.2}x at {ART_RANKS_LARGE} ranks"
    );
}
