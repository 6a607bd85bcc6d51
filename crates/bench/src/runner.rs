//! Shared runners and helpers the experiments are built from.

use crate::calib::Calib;
use crate::report::Json;
use chaos::ChaosEngine;
use mpiio::CollectiveConfig;
use mpisim::{MpiError, Rank, Registry, SimConfig, SimError, SimReport, Topology};
use pfs::Pfs;
use std::sync::Arc;
use tcio::TcioConfig;
use workloads::art::{ArtConfig, ArtMethod};
use workloads::synthetic::{self, Configs, Direction, Method, SynthParams};
use workloads::WlError;

/// Report a bad command line (or an unreadable input file) and exit 2.
pub fn die(msg: impl std::fmt::Display) -> ! {
    eprintln!("{msg}");
    std::process::exit(2)
}

/// Read and parse a fault-plan TOML named on the command line.
pub fn load_plan(path: &str) -> chaos::FaultPlan {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| die(format!("cannot read fault plan {path}: {e}")));
    chaos::FaultPlan::parse(&text).unwrap_or_else(|e| die(format!("bad fault plan {path}: {e}")))
}

/// The Table II `"i,d"` arrays at a scale point. `len_virtual` is the
/// paper's LEN_array; the real array length is divided by the
/// calibration's scale factor and kept a multiple of SIZE_access.
pub fn synth_params(calib: &Calib, len_virtual: usize, size_access: usize) -> SynthParams {
    let len_real = (len_virtual as u64 / calib.scale_inv).max(1) as usize;
    let len_real = len_real.div_ceil(size_access) * size_access;
    SynthParams::with_types("i,d", len_real, size_access).expect("valid params")
}

/// TCIO's config for `p` at the calibration's segment size.
pub fn tcio_config(calib: &Calib, p: &SynthParams, nprocs: usize) -> TcioConfig {
    TcioConfig::for_file_size_with_segment(p.file_size(nprocs), nprocs, calib.segment_size)
}

/// One simulated job: `nprocs` ranks on the calibration's machine and a
/// fresh file system. Every experiment builds its `SimConfig` and its
/// `Pfs` here, flips the switches it needs and hands [`Job::run`] a rank
/// body.
pub struct Job {
    pub nprocs: usize,
    /// The calibration's network, no memory budget, everything else off.
    pub sim: SimConfig,
    pub fs: Arc<Pfs>,
}

impl Job {
    pub fn new(calib: &Calib, nprocs: usize) -> Job {
        Job {
            nprocs,
            sim: calib.sim_config_unbudgeted(),
            // Invariant: `Calib::paper` only ever scales a valid default.
            fs: Pfs::new(nprocs, calib.pfs.clone()).expect("the calibration's PFS config is valid"),
        }
    }

    /// Place the ranks on nodes of `ppn` consecutive ranks (`ppn = 1` is
    /// the trivial topology, bit-identical to none).
    pub fn on_nodes(&mut self, ppn: usize) -> &mut Job {
        self.sim.topology = Some(Topology::blocked(self.nprocs, ppn));
        self
    }

    /// Record per-operation spans (critical path, overlap, Chrome trace).
    pub fn traced(&mut self) -> &mut Job {
        self.sim.trace = true;
        self
    }

    /// Collect the registry's histograms: per-rank metrics and the file
    /// system's request latencies.
    pub fn metered(&mut self) -> &mut Job {
        self.sim.metrics = true;
        self.fs.enable_latency_metrics();
        self
    }

    /// Attach a fault plan to both the runtime (stalls, slowdowns, message
    /// faults) and the file system (OST faults, lock storms).
    pub fn under(&mut self, engine: Option<Arc<ChaosEngine>>) -> &mut Job {
        if let Some(e) = &engine {
            let attached = self.fs.attach_chaos(Arc::clone(e));
            attached.unwrap_or_else(|e| die(format!("fault plan does not fit the PFS: {e}")));
        }
        self.sim.chaos = engine;
        self
    }

    /// Run `body` on every rank. A second `run` continues on the same
    /// file system (ART's restart after its dump).
    pub fn run<T: Send>(
        &self,
        body: impl Fn(&mut Rank, &Arc<Pfs>) -> Result<T, MpiError> + Sync,
    ) -> Result<SimReport<T>, SimError> {
        mpisim::run(self.nprocs, self.sim.clone(), |rk| body(rk, &self.fs))
    }

    /// Everything the finished run counted, under the registry's canonical
    /// names: rank stats, fabric and file-system counters, histograms.
    pub fn export<T>(&self, rep: &SimReport<T>) -> Registry {
        let mut reg = Registry::new();
        reg.export_sim_report(rep);
        self.fs.export_metrics(&mut reg);
        reg
    }
}

/// A registry export as two objects keyed by canonical name: every
/// counter, and each histogram's count and sum.
pub fn registry_json(reg: &Registry) -> (Json, Json) {
    let mut counters = Json::obj();
    for (k, v) in reg.counters() {
        counters.set(k, Json::num(v as f64));
    }
    let mut hists = Json::obj();
    for (k, h) in reg.hists() {
        hists.set(
            k,
            Json::obj()
                .with("count", Json::num(h.count() as f64))
                .with("sum", Json::num(h.sum() as f64)),
        );
    }
    (counters, hists)
}

/// One cell of an experiment: the Table II arrays dumped and then
/// restarted (the pattern of the paper's runs) through `method` on `job`.
pub struct Cell {
    pub job: Job,
    pub p: SynthParams,
    pub method: Method,
    /// Sized for the file at the calibration's segment size.
    pub tcio: TcioConfig,
    /// ROMIO's defaults: unchunked, every rank aggregates, flat exchange.
    pub ocio: CollectiveConfig,
}

/// What a [`Cell`] measured.
pub struct CellRun {
    /// Each phase's makespan: the slowest rank's virtual seconds between
    /// the phase's own barriers.
    pub write_s: f64,
    pub read_s: f64,
    /// Per-rank phase times; `None` for a rank the fault plan crash-stopped.
    pub rep: SimReport<Option<(f64, f64)>>,
}

impl Cell {
    pub fn new(calib: &Calib, nprocs: usize, p: SynthParams, method: Method) -> Cell {
        Cell {
            job: Job::new(calib, nprocs),
            tcio: tcio_config(calib, &p, nprocs),
            ocio: CollectiveConfig::default(),
            p,
            method,
        }
    }

    /// Write then read inside one simulation, so both phases share one
    /// consistent set of resource timelines.
    pub fn run(&self) -> Result<CellRun, SimError> {
        let cfgs = Configs {
            tcio: Some(self.tcio.clone()),
            ocio: self.ocio.clone(),
        };
        let (p, method) = (&self.p, self.method);
        let rep = self.job.run(|rk, fs| {
            let dump_restart = |rk: &mut Rank| -> Result<(f64, f64), WlError> {
                let w = synthetic::run(Direction::Write, method, rk, fs, p, "/synth", &cfgs)?;
                let r = synthetic::run(Direction::Read, method, rk, fs, p, "/synth", &cfgs)?;
                Ok((w.elapsed, r.elapsed))
            };
            match dump_restart(rk).map_err(MpiError::from) {
                Ok(phases) => Ok(Some(phases)),
                // TCIO callers are fault-tolerant: a rank crash-stopped by
                // the plan catches its own typed failure and drops out
                // while the survivors finish the dump (including the buddy
                // recovery drain) and verify the restart. OCIO and vanilla
                // have no recovery story — the crash propagates.
                Err(MpiError::RankCrashed { rank })
                    if method == Method::Tcio && rank == rk.rank() =>
                {
                    Ok(None)
                }
                Err(e) => Err(e),
            }
        })?;
        let phases = rep.results.iter().flatten();
        let (write_s, read_s) =
            phases.fold((0.0f64, 0.0f64), |(w, r), &(rw, rr)| (w.max(rw), r.max(rr)));
        Ok(CellRun {
            write_s,
            read_s,
            rep,
        })
    }
}

/// Table II workload at a given scale point: the write and read phases in
/// paper-equivalent MB/s, or `None` when the run died with a simulated
/// out-of-memory (Fig. 6/7's OCIO@48GB).
///
/// `len_virtual` is the paper's LEN_array; the real array length is divided
/// by the calibration's scale factor. When `enforce_budget` is set, ranks
/// run under the scaled Lonestar memory budget, so over-consuming
/// implementations fail with a simulated OOM instead of producing a number.
pub fn run_synth(
    calib: &Calib,
    nprocs: usize,
    len_virtual: usize,
    size_access: usize,
    method: Method,
    enforce_budget: bool,
) -> Option<(f64, f64)> {
    let p = synth_params(calib, len_virtual, size_access);
    let bytes_real = p.file_size(nprocs);
    let mut cell = Cell::new(calib, nprocs, p, method);
    if enforce_budget {
        cell.job.sim.mem_budget = Some(calib.mem_budget());
    }
    match cell.run() {
        Ok(run) => Some((
            calib.throughput_mbs(bytes_real, run.write_s),
            calib.throughput_mbs(bytes_real, run.read_s),
        )),
        Err(SimError::RankFailed {
            error: MpiError::OutOfMemory { .. },
            ..
        }) => None,
        Err(other) => panic!("experiment failed unexpectedly: {other}"),
    }
}

/// A [`run_synth`] phase as a table cell.
pub fn mbs_or_oom(throughput: Option<f64>) -> String {
    throughput.map_or("FAIL(OOM)".to_string(), crate::report::mbs)
}

/// Interleaved-arrays write with tracing enabled: returns the simulation
/// report (including per-rank `RankTrace`s) and the job it ran, whose file
/// system holds the per-OST rows and whose [`Job::export`] is the run's
/// registry.
///
/// This is the workload behind `diag_trace` and the observability
/// acceptance tests: every rank writes its slice of an `"i,d"` interleaved
/// pair of arrays through `method`, with the virtual clocks attributed to
/// phases as they advance, under the fault plan when one is given.
pub fn run_traced_synth(
    calib: &Calib,
    nprocs: usize,
    len_virtual: usize,
    size_access: usize,
    method: Method,
    engine: Option<Arc<ChaosEngine>>,
) -> (SimReport<f64>, Job) {
    let p = synth_params(calib, len_virtual, size_access);
    let mut job = Job::new(calib, nprocs);
    job.traced().under(engine);
    let run = job.run(|rk, fs| {
        let t0 = rk.now();
        let cfgs = Configs::default();
        let run = synthetic::run(Direction::Write, method, rk, fs, &p, "/trace.dat", &cfgs);
        match run.map_err(MpiError::from) {
            Ok(m) => Ok(m.elapsed),
            // Fault-tolerant body: a rank crash-stopped by the plan stops
            // here with the virtual time it survived; the other ranks
            // finish the dump (TCIO: including the buddy recovery drain).
            Err(MpiError::RankCrashed { rank }) if rank == rk.rank() => Ok(rk.now() - t0),
            Err(e) => Err(e),
        }
    });
    (run.expect("traced run"), job)
}

/// ART dump + restart at `nprocs`: returns (write MB/s, read MB/s, bytes).
pub fn run_art(
    calib: &Calib,
    nprocs: usize,
    cfg: &ArtConfig,
    method: ArtMethod,
) -> (f64, f64, u64) {
    assert_eq!(calib.scale_inv, 1, "ART runs unscaled; reduce mu instead");
    let job = Job::new(calib, nprocs);
    let dump = job.run(|rk, fs| Ok(workloads::art::dump(rk, fs, cfg, method, "/art")?));
    let wrep = dump.expect("art dump");
    let bytes: u64 = wrep.results.iter().map(|m| m.bytes).sum();
    let write_mbs = bytes as f64 / 1.0e6 / wrep.results[0].elapsed;
    let restart = job.run(|rk, fs| Ok(workloads::art::restart(rk, fs, cfg, method, "/art")?));
    let read_mbs = bytes as f64 / 1.0e6 / restart.expect("art restart").results[0].elapsed;
    (write_mbs, read_mbs, bytes)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn synth_runner_produces_throughput() {
        let calib = Calib::paper(1024);
        let (w, r) = run_synth(&calib, 4, 1 << 14, 1, Method::Tcio, false).unwrap();
        assert!(w > 0.0 && r > 0.0);
    }

    #[test]
    fn traced_synth_phase_sums_match_clocks() {
        // The diag_trace acceptance criterion: for every method, each rank's
        // exchange/IO/sync/compute attribution sums to its elapsed virtual
        // time, and the run yields spans plus per-OST rows.
        let calib = Calib::unscaled();
        for method in [Method::Ocio, Method::Tcio, Method::Vanilla] {
            let (rep, job) = run_traced_synth(&calib, 4, 1 << 12, 1, method, None);
            assert!(!job.fs.ost_report().is_empty());
            assert!(job.export(&rep).counter("pfs_write_rpcs_total") > Some(0));
            assert_eq!(rep.traces.len(), 4);
            for (r, tr) in rep.traces.iter().enumerate() {
                assert!(
                    (tr.totals.total() - rep.clocks[r]).abs() <= 1e-9,
                    "{method:?} rank {r}: phases {} vs clock {}",
                    tr.totals.total(),
                    rep.clocks[r]
                );
                assert!(!tr.spans.is_empty());
            }
            let json = mpisim::chrome_trace_json(&rep.traces);
            assert!(json.starts_with("{\"traceEvents\":["));
        }
    }

    #[test]
    fn art_runner_produces_throughput() {
        let calib = Calib::unscaled();
        let cfg = ArtConfig {
            num_segments: 8,
            mu: 4.0,
            sigma: 1.0,
            ..ArtConfig::default()
        };
        let (w, r, bytes) = run_art(&calib, 2, &cfg, ArtMethod::Tcio);
        assert!(w > 0.0 && r > 0.0 && bytes > 0);
    }
}
