//! Shared runners and helpers the experiments are built from.

use crate::calib::Calib;
use mpiio::CollectiveConfig;
use mpisim::{MpiError, Rank, SimError};
use pfs::Pfs;
use std::sync::Arc;
use tcio::TcioConfig;
use workloads::art::{ArtConfig, ArtMethod};
use workloads::synthetic::{self, Configs, Direction, Method, SynthParams};

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

/// One rank's dump-then-restart of the arrays through `method` (the
/// pattern of the paper's runs): returns each phase's elapsed virtual
/// seconds, timed between its own barriers.
pub fn dump_restart(
    rk: &mut Rank,
    fs: &Arc<Pfs>,
    p: &SynthParams,
    path: &str,
    method: Method,
    tcfg: &TcioConfig,
    ccfg: &CollectiveConfig,
) -> Result<(f64, f64), MpiError> {
    let cfgs = Configs {
        tcio: Some(tcfg.clone()),
        ocio: ccfg.clone(),
    };
    let w = synthetic::run(Direction::Write, method, rk, fs, p, path, &cfgs)?;
    let r = synthetic::run(Direction::Read, method, rk, fs, p, path, &cfgs)?;
    Ok((w.elapsed, r.elapsed))
}

/// Per-phase makespans: the slowest rank's write and read seconds.
pub fn slowest(results: impl Iterator<Item = (f64, f64)>) -> (f64, f64) {
    results.fold((0.0, 0.0), |(w, r), (rw, rr)| (w.max(rw), r.max(rr)))
}

/// Result of one (method, scale-point) synthetic run.
#[derive(Debug, Clone, Copy)]
pub enum Outcome {
    /// Paper-equivalent MB/s.
    Throughput(f64),
    /// The run died with a simulated out-of-memory (Fig. 6/7's OCIO@48GB).
    Oom,
}

impl Outcome {
    pub fn cell(&self) -> String {
        match self {
            Outcome::Throughput(t) => crate::report::mbs(*t),
            Outcome::Oom => "FAIL(OOM)".to_string(),
        }
    }

    pub fn throughput(&self) -> Option<f64> {
        match self {
            Outcome::Throughput(t) => Some(*t),
            Outcome::Oom => None,
        }
    }
}

fn classify(err: SimError) -> Outcome {
    match err {
        SimError::RankFailed {
            error: MpiError::OutOfMemory { .. },
            ..
        } => Outcome::Oom,
        other => panic!("experiment failed unexpectedly: {other}"),
    }
}

/// Table II workload at a given scale point: returns (write, read) outcomes.
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
) -> (Outcome, Outcome) {
    let p = synth_params(calib, len_virtual, size_access);
    let sim = if enforce_budget {
        calib.sim_config()
    } else {
        calib.sim_config_unbudgeted()
    };
    let fs = Pfs::new(nprocs, calib.pfs.clone()).expect("pfs config");
    let bytes_real = p.file_size(nprocs);
    let tcfg = tcio_config(calib, &p, nprocs);
    // Write then read inside one simulation, so both phases share one
    // consistent set of resource timelines.
    let run = mpisim::run(nprocs, sim, move |rk| {
        dump_restart(
            rk,
            &fs,
            &p,
            "/synth",
            method,
            &tcfg,
            &CollectiveConfig::default(),
        )
    });
    match run {
        Ok(rep) => {
            let (w, r) = rep.results[0];
            (
                Outcome::Throughput(calib.throughput_mbs(bytes_real, w)),
                Outcome::Throughput(calib.throughput_mbs(bytes_real, r)),
            )
        }
        Err(e) => {
            let o = classify(e);
            (o, Outcome::Oom)
        }
    }
}

/// Interleaved-arrays write with tracing enabled: returns the simulation
/// report (including per-rank `RankTrace`s) and the per-OST metric rows.
///
/// This is the workload behind `diag_trace` and the observability
/// acceptance tests: every rank writes its slice of an `"i,d"` interleaved
/// pair of arrays through `method`, with the virtual clocks attributed to
/// phases as they advance. A fault plan, when given, is attached to both
/// the runtime (stalls, slowdowns, message faults) and the file system
/// (OST faults, lock storms).
pub fn run_traced_synth(
    calib: &Calib,
    nprocs: usize,
    len_virtual: usize,
    size_access: usize,
    method: Method,
    engine: Option<Arc<chaos::ChaosEngine>>,
) -> (mpisim::SimReport<f64>, Vec<mpisim::OstRow>) {
    let p = synth_params(calib, len_virtual, size_access);
    let sim = mpisim::SimConfig {
        trace: true,
        chaos: engine.clone(),
        ..calib.sim_config_unbudgeted()
    };
    let fs = Pfs::new(nprocs, calib.pfs.clone()).expect("pfs config");
    if let Some(e) = engine {
        fs.attach_chaos(e).expect("fault plan fits the PFS layout");
    }
    let fs2 = Arc::clone(&fs);
    let rep = mpisim::run(nprocs, sim, move |rk| {
        let t0 = rk.now();
        let cfgs = Configs::default();
        let run = synthetic::run(Direction::Write, method, rk, &fs2, &p, "/trace.dat", &cfgs);
        match run.map_err(MpiError::from) {
            Ok(m) => Ok(m.elapsed),
            // Fault-tolerant body: a rank crash-stopped by the plan stops
            // here with the virtual time it survived; the other ranks
            // finish the dump (TCIO: including the buddy recovery drain).
            Err(MpiError::RankCrashed { rank }) if rank == rk.rank() => Ok(rk.now() - t0),
            Err(e) => Err(e),
        }
    })
    .expect("traced run");
    let osts = fs.ost_report();
    (rep, osts)
}

/// ART dump + restart at `nprocs`: returns (write MB/s, read MB/s, bytes).
pub fn run_art(
    calib: &Calib,
    nprocs: usize,
    cfg: &ArtConfig,
    method: ArtMethod,
) -> (f64, f64, u64) {
    assert_eq!(calib.scale_inv, 1, "ART runs unscaled; reduce mu instead");
    let fs = Pfs::new(nprocs, calib.pfs.clone()).expect("pfs config");
    let sim = calib.sim_config_unbudgeted();
    let fs_w = Arc::clone(&fs);
    let cfg_w = cfg.clone();
    let wrep = mpisim::run(nprocs, sim.clone(), move |rk| {
        Ok(workloads::art::dump(rk, &fs_w, &cfg_w, method, "/art")?)
    })
    .expect("art dump");
    let bytes: u64 = wrep.results.iter().map(|m| m.bytes).sum();
    let write_mbs = bytes as f64 / 1.0e6 / wrep.results[0].elapsed;

    let fs_r = Arc::clone(&fs);
    let cfg_r = cfg.clone();
    let rrep = mpisim::run(nprocs, sim, move |rk| {
        Ok(workloads::art::restart(rk, &fs_r, &cfg_r, method, "/art")?)
    })
    .expect("art restart");
    let read_mbs = bytes as f64 / 1.0e6 / rrep.results[0].elapsed;
    (write_mbs, read_mbs, bytes)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn synth_runner_produces_throughput() {
        let calib = Calib::paper(1024);
        let (w, r) = run_synth(&calib, 4, 1 << 14, 1, Method::Tcio, false);
        assert!(w.throughput().unwrap() > 0.0);
        assert!(r.throughput().unwrap() > 0.0);
    }

    #[test]
    fn traced_synth_phase_sums_match_clocks() {
        // The diag_trace acceptance criterion: for every method, each rank's
        // exchange/IO/sync/compute attribution sums to its elapsed virtual
        // time, and the run yields spans plus per-OST rows.
        let calib = Calib::unscaled();
        for method in [Method::Ocio, Method::Tcio, Method::Vanilla] {
            let (rep, osts) = run_traced_synth(&calib, 4, 1 << 12, 1, method, None);
            assert!(!osts.is_empty());
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
