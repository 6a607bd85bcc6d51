//! The six named workloads. Each [`run`] is one rep: it builds its inputs
//! from the seed, drives the stack through its public APIs, checks the
//! bytes that landed on the simulated file system, and returns what the
//! stack counted. Host time is sampled only around the `mpisim::run` /
//! `run_facility` calls, so set-up, verification and export stay out of
//! the measured region.

use crate::host::{Fnv1a, HostDelta, HostSample};
use crate::inputs::{self, Calib};
use facility::{FacilityConfig, QosMode};
use insight::{Analyzer, Category};
use mpiio::CollectiveConfig;
use mpisim::{Rank, RankStats, Registry, SimConfig, SimReport, Topology};
use pfs::{HealthConfig, Pfs};
use std::sync::{Arc, OnceLock};
use tcio::TcioConfig;
use workloads::art::{self, ArtConfig, ArtMethod};
use workloads::synthetic::{self, RunMetrics, SynthParams};
use workloads::WlError;

/// The workloads, in the order every report lists them, each with the
/// reason it exists: the layer it stresses and what it bypasses.
pub const WORKLOADS: [(&str, &str); 6] = [
    (
        "synth_tcio",
        "The paper's headline path: Table-I interleaved arrays through TCIO at 128 ranks; \
         tcio L1/L2 buffering and mpisim RMA do nearly all the work, mpiio none",
    ),
    (
        "synth_ocio",
        "The paper's baseline: Table-I arrays through one-round two-phase collective I/O at 256 \
         ranks; mpiio piece exchange and mpisim p2p/alltoallv dominate, tcio is bypassed",
    ),
    (
        "synth_ocio_piped",
        "Same mpiio layer used differently: 16 aggregators, 8 pipelined rounds, request \
         aggregation over a 16x16 node topology instead of the flat burst",
    ),
    (
        "synth_indep",
        "synth_tcio's arrays as 8.4 M independent 4- and 8-byte requests at 128 ranks: pfs locks, \
         timelines and cost model do the work; bypasses every exchange-side optimisation",
    ),
    (
        "art_scale",
        "ART dump and restart through TCIO at 1792 ranks moving only 3 MB: rank count, not \
         bytes, so fibers, park/wake, allgather fan-in and memory management dominate",
    ),
    (
        "fleet_gray",
        "Open loop: 8 tenants, 22 ranks, Poisson arrivals at 80 Hz, fair-share QoS, a flaky OST \
         and the health layer on; the only workload running pfs qos/health and the facility",
    ),
];

pub fn names() -> impl Iterator<Item = &'static str> {
    WORKLOADS.iter().map(|(name, _)| *name)
}

/// Seed the pinned output hashes belong to.
pub const DEFAULT_SEED: u64 = 12;

/// FNV-1a-64 (see [`Fnv1a`]) of every file a workload writes, in path
/// order, where the benchmark pins it: at [`DEFAULT_SEED`], and for
/// `fleet_gray` at every seed (its file contents depend on tenant and job,
/// not on when jobs arrive). `synth_tcio` and `synth_indep` write the same
/// bytes by different routes, as do the two OCIO workloads, so each pair
/// shares one value.
fn pinned_hash(name: &str, seed: u64) -> Option<u64> {
    match name {
        "fleet_gray" => Some(0x4917_4a76_dac0_db45),
        _ if seed != DEFAULT_SEED => None,
        "synth_tcio" | "synth_indep" => Some(0x0100_8fb7_62e5_ce82),
        "synth_ocio" | "synth_ocio_piped" => Some(0xfae3_66ab_59d4_e4df),
        "art_scale" => Some(0x6b42_5903_492a_9fe5),
        _ => None,
    }
}

/// Internal name of the `probe-scale` cell: `art_scale`'s cycle at 4096
/// ranks. Not in [`WORKLOADS`]: it is printed, never gated.
pub const PROBE: &str = "art_probe";

/// No timed (untraced) rep may have a larger resident set, in MB: above
/// ~1 GB this class of VM takes first-touch page faults erratically (see
/// README.md, "RSS ceiling"). A rep above the ceiling fails.
pub const RSS_CEILING_MB: f64 = 700.0;

/// 1792 ranks peak at 616 MB; 2048 at 711 MB, over the ceiling.
const ART_RANKS: usize = 1792;
const PROBE_RANKS: usize = 4096;
const EXPORT_RANKS: usize = 8;
/// Facility runs per rep. The first two in a process take the same
/// faults to 0.2 % every time; from the third on, resident set and faults
/// of a run differ by up to a factor of two between processes given the
/// same inputs, and eight runs per rep spread `minor_faults` by 20 %.
const FLEET_RUNS: u64 = 2;
const FLEET_JOBS: usize = 32;
const FLEET_RATE_HZ: f64 = 80.0;
/// A multiple of 8, so chunking does not change the word-folded hash.
const HASH_CHUNK: usize = 1 << 20;

/// Host time the benchmark spent in each of its own phases, summed over
/// cycles. The phases tile a rep; what they leave over is the rep's self
/// time.
#[derive(Debug, Default)]
pub struct PhaseLog(Vec<(&'static str, HostDelta)>);

impl PhaseLog {
    pub fn add(&mut self, name: &'static str, d: HostDelta) {
        match self.0.iter_mut().find(|(n, _)| *n == name) {
            Some((_, acc)) => acc.add(d),
            None => self.0.push((name, d)),
        }
    }

    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let t0 = HostSample::now();
        let out = f();
        self.add(name, HostSample::now().since(&t0));
        out
    }

    pub fn get(&self, name: &str) -> HostDelta {
        self.0
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, d)| *d)
            .unwrap_or_default()
    }
}

/// Exact counts the stack reported, summed over a rep's cycles.
#[derive(Debug, Default)]
pub struct Counts {
    pub stats: RankStats,
    pub intra_bytes: u64,
    pub inter_bytes: u64,
    pub pfs: pfs::PfsStatsSnapshot,
    pub hedges: u64,
    pub hedge_wins: u64,
    pub breaker_opens: u64,
    pub degraded_writes: u64,
    pub throttle_wait_s: f64,
    pub burst_absorbed_bytes: u64,
    /// Virtual seconds from scheduled arrival to finish, one per job.
    pub job_latencies: Vec<f64>,
}

impl Counts {
    fn add_sim<T>(&mut self, rep: &SimReport<T>) {
        self.stats.merge(&rep.aggregate_stats());
        self.intra_bytes += rep.fabric.intra_bytes;
        self.inter_bytes += rep.fabric.inter_bytes;
    }

    fn add_pfs(&mut self, fs: &Pfs) {
        let s = fs.stats.snapshot();
        self.pfs.read_rpcs += s.read_rpcs;
        self.pfs.write_rpcs += s.write_rpcs;
        self.pfs.lock_transfers += s.lock_transfers;
        self.pfs.transient_errors += s.transient_errors;
    }

    /// Everything the simulator did that costs host time, as one number:
    /// the denominator of `host.ns_per_sim_op`.
    pub fn sim_ops(&self) -> u64 {
        let s = &self.stats;
        s.msgs_sent + s.collectives + s.rma_epochs + s.puts + s.gets + s.io_reads + s.io_writes
    }
}

/// What only the traced rep can see: spans, hit ratios and the
/// virtual-time critical path, summed over the rep's `mpisim::run` calls.
#[derive(Debug, Default)]
pub struct Traced {
    pub spans: u64,
    pub l1_hits: u64,
    pub l1_misses: u64,
    pub l2_hits: u64,
    pub l2_misses: u64,
    pub path: [f64; Category::ALL.len()],
    /// Σ |makespan − Σ segments|: the path analysis lost this much time.
    pub residual_s: f64,
    pub truncated: bool,
    pub io_busy_s: f64,
    pub io_overlapped_s: f64,
    /// Makespan-weighted mean of the per-run path imbalance.
    pub imbalance_weighted: f64,
    pub analyzed_makespan_s: f64,
    pub export_s: f64,
    pub analyze_s: f64,
}

impl Traced {
    /// Export and analyse one traced run the way a user of the
    /// observability layer would: Chrome trace plus registry JSON, then
    /// the critical path and the overlap report. The Chrome trace covers
    /// the first [`EXPORT_RANKS`] ranks, which is what a viewer can open:
    /// all 6.7 M spans of `synth_tcio` make a 1.2 GB string and 50 s of
    /// page faults.
    fn add_sim<T>(&mut self, rep: &SimReport<T>, fs: &Pfs, topo: Option<&Topology>) {
        self.spans += rep.traces.iter().map(|t| t.spans.len() as u64).sum::<u64>();
        self.l1_hits += rep.metrics.l1_hits;
        self.l1_misses += rep.metrics.l1_misses;
        self.l2_hits += rep.metrics.l2_hits;
        self.l2_misses += rep.metrics.l2_misses;

        let t0 = std::time::Instant::now();
        let exported = &rep.traces[..rep.traces.len().min(EXPORT_RANKS)];
        let chrome = mpisim::chrome_trace_json(exported);
        let mut reg = Registry::new();
        reg.export_sim_report(rep);
        fs.export_metrics(&mut reg);
        std::hint::black_box((chrome.len(), reg.to_json().len()));
        self.export_s += t0.elapsed().as_secs_f64();

        let t0 = std::time::Instant::now();
        let analyzer = Analyzer::new(&rep.traces);
        let analyzer = match topo {
            Some(t) => analyzer.with_topology(t),
            None => analyzer,
        };
        let cp = analyzer.critical_path();
        let overlap = analyzer.overlap_report();
        self.analyze_s += t0.elapsed().as_secs_f64();

        let b = cp.breakdown();
        for (slot, c) in self.path.iter_mut().zip(Category::ALL) {
            *slot += b.get(c);
        }
        self.residual_s += cp.residual().abs();
        self.truncated |= cp.truncated;
        self.io_busy_s += overlap.io_busy;
        self.io_overlapped_s += overlap.overlapped;
        self.imbalance_weighted += cp.imbalance() * cp.makespan;
        self.analyzed_makespan_s += cp.makespan;
    }
}

/// One rep of one workload.
#[derive(Debug, Default)]
pub struct Rep {
    /// Host cost of the measured region.
    pub region: HostDelta,
    /// `VmHWM` when the last measured region ended. Verification reads
    /// files through one 1 MiB buffer, so between the regions of a rep it
    /// adds nothing to the peak.
    pub peak_rss_mb: f64,
    /// Start of the first measured region, for `setup_s`.
    pub first_run_at: Option<HostSample>,
    pub phases: PhaseLog,
    /// One attempt per rank-phase (write, verified read-back) or per
    /// facility job.
    pub attempted: u64,
    pub failed: u64,
    /// Application bytes written plus read back.
    pub app_bytes: u64,
    pub virt_makespan_s: f64,
    /// Paper-equivalent bytes and virtual seconds of the write and the
    /// read/restart phases.
    pub write_virt_bytes: f64,
    pub write_virt_s: f64,
    pub read_virt_bytes: f64,
    pub read_virt_s: f64,
    pub counts: Counts,
    pub file_hash: Fnv1a,
    pub traced: Option<Traced>,
}

impl Rep {
    /// `process_start` opens the first set-up span: process start-up and
    /// the calibration cell belong to set-up.
    fn new(traced: bool, process_start: &HostSample) -> Rep {
        let mut rep = Rep {
            traced: traced.then(Traced::default),
            ..Rep::default()
        };
        rep.phases
            .add("setup", HostSample::now().since(process_start));
        rep
    }

    /// Run `f` — one `mpisim::run` or `run_facility` — inside the measured
    /// region. Returns its result, when it started and what it cost.
    fn measured<R>(&mut self, f: impl FnOnce() -> R) -> (R, HostSample, HostDelta) {
        let t0 = HostSample::now();
        self.first_run_at.get_or_insert(t0);
        let out = f();
        let d = HostSample::now().since(&t0);
        self.region.add(d);
        self.peak_rss_mb = crate::host::peak_rss_mb();
        (out, t0, d)
    }

    fn fail(&mut self, attempts: u64, what: &str, err: &dyn std::fmt::Display) {
        eprintln!("simbench: {what} failed: {err}");
        self.attempted += attempts;
        self.failed += attempts;
    }

    /// Hash every file of `fs` into the rep's output hash, in path order.
    /// `Pfs::read_bytes` copies without virtual-time cost or RPC
    /// accounting, like `Pfs::snapshot_file`, but into a buffer of ours:
    /// `fleet_gray` leaves 390 MB of files per run, and a whole-file copy
    /// would set the rep's peak resident set.
    fn hash_files(&mut self, fs: &Pfs) {
        self.phases.time("verify", || {
            let mut buf = vec![0u8; HASH_CHUNK];
            for path in fs.list() {
                let id = fs.open(&path).expect("listed file opens");
                let len = fs.len(id).expect("open file has a length");
                let mut offset = 0;
                while offset < len {
                    let n = (len - offset).min(HASH_CHUNK as u64) as usize;
                    fs.read_bytes(id, offset, &mut buf[..n])
                        .expect("read inside the file");
                    self.file_hash.update(&buf[..n]);
                    offset += n as u64;
                }
            }
        });
    }

    pub fn virt_write_mbs(&self) -> f64 {
        rate_mbs(self.write_virt_bytes, self.write_virt_s)
    }

    pub fn virt_read_mbs(&self) -> f64 {
        rate_mbs(self.read_virt_bytes, self.read_virt_s)
    }
}

fn rate_mbs(bytes: f64, secs: f64) -> f64 {
    if secs > 0.0 {
        bytes / 1.0e6 / secs
    } else {
        0.0
    }
}

/// Run one rep of workload `name` in a process that started at
/// `process_start`. `traced` turns `SimConfig::trace` and
/// `SimConfig::metrics` on and fills [`Rep::traced`].
pub fn run(name: &str, seed: u64, traced: bool, process_start: &HostSample) -> Rep {
    let mut rep = Rep::new(traced, process_start);
    match name {
        "synth_tcio" => synth(&mut rep, Synth::Tcio, seed),
        "synth_ocio" => synth(&mut rep, Synth::Ocio, seed),
        "synth_ocio_piped" => synth(&mut rep, Synth::OcioPiped, seed),
        "synth_indep" => synth(&mut rep, Synth::Indep, seed),
        "art_scale" => art_scale(&mut rep, seed, ART_RANKS),
        PROBE => art_scale(&mut rep, seed, PROBE_RANKS),
        "fleet_gray" => fleet_gray(&mut rep, seed),
        other => panic!("unknown workload {other:?}"),
    }
    if !traced && name != PROBE && rep.peak_rss_mb > RSS_CEILING_MB {
        eprintln!(
            "simbench: {name}: peak resident set {:.0} MB is above the {RSS_CEILING_MB} MB ceiling",
            rep.peak_rss_mb
        );
        rep.failed = rep.attempted;
    }
    let hash = rep.file_hash.finish();
    if let Some(pinned) = pinned_hash(name, seed).filter(|p| *p != hash && rep.failed == 0) {
        eprintln!("simbench: {name}: file bytes hash to {hash:#018x}, pinned {pinned:#018x}");
        rep.failed = rep.attempted;
    }
    rep
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Synth {
    Tcio,
    Ocio,
    OcioPiped,
    Indep,
}

/// Table-I interleaved arrays `"i,d"`, SIZE_access = 1: write then
/// verified read-back inside one simulation.
fn synth(rep: &mut Rep, kind: Synth, seed: u64) {
    let traced = rep.traced.is_some();
    let setup = HostSample::now();
    let calib = Calib::paper(256);
    let nprocs = match kind {
        Synth::Tcio | Synth::Indep => 128,
        Synth::Ocio | Synth::OcioPiped => 256,
    };
    // The seed shifts the arrays against segment and stripe boundaries;
    // the work stays within 1 %. The OCIO pair runs shorter arrays. At
    // 16384 + 8k elements its piece vectors have just doubled their
    // capacity, which puts the resident set at 708 MB, over the ceiling,
    // and makes it jump by 4-6 % from one seed to the next. And the
    // pipelined read's virtual throughput is a sawtooth in the length,
    // with a period of 1024 elements and a 5 % drop right after each
    // multiple; 15104 + 8k stays on the flat part (1 % from end to end).
    let base = match kind {
        Synth::Tcio | Synth::Indep => 16384,
        Synth::Ocio | Synth::OcioPiped => 15104,
    };
    let len = base + 8 * (seed % 17) as usize;
    let p = SynthParams::with_types("i,d", len, 1).expect("valid Table-I parameters");
    let file_size = p.file_size(nprocs);
    let topo = (kind == Synth::OcioPiped).then(|| Topology::blocked(nprocs, 16));
    let sim = SimConfig {
        trace: traced,
        metrics: traced,
        topology: topo.clone(),
        ..calib.sim_config()
    };
    let ccfg = match kind {
        Synth::OcioPiped => CollectiveConfig {
            cb_nodes: Some(16),
            cb_buffer: Some(file_size / 16 / 8),
            req_agg: true,
            pipeline: true,
            ..CollectiveConfig::default()
        },
        _ => CollectiveConfig::default(),
    };
    let tcfg = TcioConfig::for_file_size_with_segment(file_size, nprocs, calib.segment_size());
    let fs = Pfs::new(nprocs, calib.pfs.clone()).expect("pfs config");
    if traced {
        fs.enable_latency_metrics();
    }
    rep.phases.add("setup", HostSample::now().since(&setup));

    // Every rank leaves the write phase through a barrier, so the moment
    // rank 0 gets there splits the run's host time into write and read.
    let write_done = OnceLock::new();
    let (result, started, run) = rep.measured(|| {
        mpisim::run(nprocs, sim, |rk| {
            let w = match kind {
                Synth::Tcio => synthetic::write_tcio(rk, &fs, &p, "/synth", Some(tcfg.clone())),
                Synth::Ocio | Synth::OcioPiped => {
                    synthetic::write_ocio(rk, &fs, &p, "/synth", &ccfg)
                }
                Synth::Indep => synthetic::write_vanilla(rk, &fs, &p, "/synth"),
            }
            .map_err(WlError::into_mpi)?;
            if rk.rank() == 0 {
                write_done.get_or_init(HostSample::now);
            }
            let r = match kind {
                Synth::Tcio => synthetic::read_tcio(rk, &fs, &p, "/synth", Some(tcfg.clone())),
                Synth::Ocio | Synth::OcioPiped => {
                    synthetic::read_ocio(rk, &fs, &p, "/synth", &ccfg)
                }
                Synth::Indep => synthetic::read_vanilla(rk, &fs, &p, "/synth"),
            }
            .map_err(WlError::into_mpi)?;
            Ok((w.elapsed, r.elapsed))
        })
    });
    let write = write_done.get().map_or(run, |m| m.since(&started));
    rep.phases.add("write", write);
    rep.phases.add("read", run.minus(write));

    let attempts = 2 * nprocs as u64;
    let report = match result {
        Ok(report) => report,
        Err(e) => return rep.fail(attempts, "synthetic run", &e),
    };
    rep.attempted += attempts;
    let (w, r) = report.results[0];
    let virt_bytes = calib.virtual_bytes(file_size) as f64;
    rep.app_bytes += 2 * file_size;
    rep.virt_makespan_s += report.makespan;
    rep.write_virt_bytes += virt_bytes;
    rep.write_virt_s += w;
    rep.read_virt_bytes += virt_bytes;
    rep.read_virt_s += r;
    rep.counts.add_sim(&report);
    rep.counts.add_pfs(&fs);
    rep.hash_files(&fs);
    let stored = fs.open("/synth").and_then(|id| fs.len(id)).unwrap_or(0);
    if stored != file_size {
        eprintln!("simbench: /synth holds {stored} bytes, expected {file_size}");
        rep.failed = rep.attempted;
    }
    if let Some(t) = rep.traced.as_mut() {
        rep.phases
            .time("export", || t.add_sim(&report, &fs, topo.as_ref()));
    }
}

/// ART dump, then restart, through TCIO: two simulations on one fresh
/// `Pfs`. The file is a few MB, so rank count, not bytes, is what this
/// costs: fiber stacks, park/wake, allgather fan-in and — with one 1 MiB
/// level-2 window per rank — memory management.
///
/// One cycle per rep, because a second cycle in the same process is a
/// different workload: once the first has freed its windows, glibc has
/// raised its mmap threshold, every later window is carved from the
/// recycled heap and zeroed by hand, and the resident set grows sixfold
/// (see README.md, "RSS ceiling").
fn art_scale(rep: &mut Rep, seed: u64, ranks: usize) {
    let traced = rep.traced.is_some();
    let setup = HostSample::now();
    let calib = Calib::paper(1);
    let cfg = ArtConfig {
        num_segments: ranks,
        mu: 3.0,
        sigma: 1.0,
        seed,
        ..ArtConfig::default()
    };
    let sim = SimConfig {
        trace: traced,
        metrics: traced,
        ..calib.sim_config()
    };
    let fs = Pfs::new(ranks, calib.pfs.clone()).expect("pfs config");
    if traced {
        fs.enable_latency_metrics();
    }
    rep.phases.add("setup", HostSample::now().since(&setup));

    let phases: [(&'static str, ArtPhase); 2] = [("write", art::dump), ("read", art::restart)];
    for (name, body) in phases {
        let (result, _, cost) = rep.measured(|| {
            mpisim::run(ranks, sim.clone(), |rk| {
                body(rk, &fs, &cfg, ArtMethod::Tcio, "/art").map_err(WlError::into_mpi)
            })
        });
        rep.phases.add(name, cost);
        let report = match result {
            Ok(report) => report,
            Err(e) => {
                // A failed dump leaves nothing to restart from.
                let left = if name == "write" { 2 } else { 1 };
                return rep.fail(left * ranks as u64, name, &e);
            }
        };
        rep.attempted += ranks as u64;
        rep.virt_makespan_s += report.makespan;
        rep.counts.add_sim(&report);
        let bytes: u64 = report.results.iter().map(|m| m.bytes).sum();
        let secs = report.results[0].elapsed;
        rep.app_bytes += bytes;
        if name == "write" {
            rep.write_virt_bytes += bytes as f64;
            rep.write_virt_s += secs;
        } else {
            rep.read_virt_bytes += bytes as f64;
            rep.read_virt_s += secs;
        }
        if let Some(t) = rep.traced.as_mut() {
            rep.phases.time("export", || t.add_sim(&report, &fs, None));
        }
    }
    rep.counts.add_pfs(&fs);
    rep.hash_files(&fs);
}

type ArtPhase =
    fn(&mut Rank, &Arc<Pfs>, &ArtConfig, ArtMethod, &str) -> workloads::Result<RunMetrics>;

/// The eight-tenant fleet under a flaky OST with the defense layer on:
/// [`FLEET_RUNS`] facility runs with consecutive seeds. Open loop: jobs arrive on
/// a Poisson schedule whether or not earlier ones have finished.
fn fleet_gray(rep: &mut Rep, seed: u64) {
    let traced = rep.traced.is_some();
    for run in 0..FLEET_RUNS {
        let setup = HostSample::now();
        let mut plan =
            chaos::FaultPlan::parse(inputs::FLAKY_OST_PLAN).expect("the flaky-OST plan parses");
        plan.seed = seed + run;
        let cfg = FacilityConfig {
            tenants: inputs::fleet(FLEET_JOBS, FLEET_RATE_HZ),
            qos: QosMode::FairShare,
            seed: seed + run,
            chaos: Some(plan.build().expect("valid fault plan")),
            metrics: traced,
            health: Some(HealthConfig {
                min_samples: 4,
                hedge_min_samples: 16,
                ..HealthConfig::default()
            }),
            ..FacilityConfig::default()
        };
        let jobs: u64 = cfg.tenants.iter().map(|t| t.jobs as u64).sum();
        rep.phases.add("setup", HostSample::now().since(&setup));

        // Write and read-back interleave inside one facility run; the
        // whole run is charged to the write phase.
        let (result, _, cost) = rep.measured(|| facility::run_facility(&cfg));
        rep.phases.add("write", cost);
        let report = match result {
            Ok(report) => report,
            Err(e) => {
                rep.fail(jobs, "facility run", &e);
                continue;
            }
        };
        rep.attempted += jobs;
        rep.failed += jobs.saturating_sub(report.jobs.len() as u64);
        rep.virt_makespan_s += report.makespan;
        for job in &report.jobs {
            rep.app_bytes += job.bytes_written + job.bytes_read;
            rep.write_virt_bytes += job.bytes_written as f64;
            rep.read_virt_bytes += job.bytes_read as f64;
            rep.counts.job_latencies.push(job.latency());
        }
        // Fleet throughput is bytes over the run's makespan, both ways.
        rep.write_virt_s += report.makespan;
        rep.read_virt_s += report.makespan;
        rep.counts.stats.merge(&report.stats);
        rep.counts.add_pfs(&report.fs);
        if let Some(h) = &report.health {
            rep.counts.hedges += h.hedges_issued;
            rep.counts.hedge_wins += h.hedge_wins;
            rep.counts.breaker_opens += h.breaker_opens;
            rep.counts.degraded_writes += h.degraded_writes;
        }
        for t in &report.tenants {
            rep.counts.throttle_wait_s += t.usage.map_or(0.0, |u| u.throttle_wait);
            rep.counts.burst_absorbed_bytes += t.burst.map_or(0, |b| b.staged_bytes);
        }
        if let (Some(t), Some(reg)) = (rep.traced.as_mut(), &report.registry) {
            // `run_facility` builds its own `SimConfig` and keeps the rank
            // traces, so a traced fleet run has metrics but no spans.
            let hit = |name| reg.counter(name).unwrap_or(0);
            t.l1_hits += hit("tcio_l1_hits_total");
            t.l1_misses += hit("tcio_l1_misses_total");
            t.l2_hits += hit("tcio_l2_hits_total");
            t.l2_misses += hit("tcio_l2_misses_total");
            let t0 = std::time::Instant::now();
            std::hint::black_box(reg.to_json().len());
            let dt = t0.elapsed().as_secs_f64();
            t.export_s += dt;
            rep.phases.add(
                "export",
                HostDelta {
                    wall_s: dt,
                    ..HostDelta::default()
                },
            );
        }
        rep.hash_files(&report.fs);
        // The run's files (~390 MB) are freed here, before the next run.
        rep.phases.time("verify", || drop(report));
    }
}
