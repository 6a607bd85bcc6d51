//! Canonical virtual-time perf summary (`perf_report`): critical-path
//! breakdowns (via the `insight` analyzer) and the full registry export
//! for the Table-I interleaved-arrays workload and the ART dump, each at
//! 16 and 64 ranks. `bench gate` diffs it exactly against
//! `bench_results/BENCH_baseline.json`.
//!
//! Nothing here reads a wall clock: what a run costs the host is
//! measured by simbench under `benchmark/`, and only there.

use crate::registry::Args;
use crate::runner::{dump_restart, synth_params, tcio_config};
use crate::{Calib, Json};
use insight::{Analyzer, Category};
use mpisim::{Registry, SimConfig, SimReport};
use pfs::Pfs;
use std::sync::Arc;
use workloads::art::{self, ArtConfig, ArtMethod};
use workloads::synthetic::Method;

fn traced_sim(calib: &Calib) -> SimConfig {
    SimConfig {
        trace: true,
        metrics: true,
        ..calib.sim_config_unbudgeted()
    }
}

fn export(rep: &SimReport<f64>, fs: &Pfs) -> Registry {
    let mut reg = Registry::new();
    reg.export_sim_report(rep);
    fs.export_metrics(&mut reg);
    reg
}

/// Table-I/II interleaved-arrays dump-then-restart through TCIO, with
/// tracing and metrics on. Returns the report and the exported registry.
fn run_synth_perf(nprocs: usize, len: usize) -> (SimReport<f64>, Registry) {
    let calib = Calib::unscaled();
    let p = synth_params(&calib, len, 1);
    let fs = Pfs::new(nprocs, calib.pfs.clone()).expect("pfs config");
    fs.enable_latency_metrics();
    let tcfg = tcio_config(&calib, &p, nprocs);
    let fs2 = Arc::clone(&fs);
    let rep = mpisim::run(nprocs, traced_sim(&calib), move |rk| {
        let ccfg = mpiio::CollectiveConfig::default();
        dump_restart(rk, &fs2, &p, "/perf", Method::Tcio, &tcfg, &ccfg).map(|(w, r)| w + r)
    })
    .expect("perf synth run");
    let reg = export(&rep, &fs);
    (rep, reg)
}

/// ART dump through TCIO with tracing and metrics on, sized for CI.
fn run_art_perf(nprocs: usize) -> (SimReport<f64>, Registry) {
    let calib = Calib::unscaled();
    let cfg = ArtConfig {
        num_segments: 4 * nprocs,
        mu: 8.0,
        sigma: 2.0,
        ..ArtConfig::default()
    };
    let fs = Pfs::new(nprocs, calib.pfs.clone()).expect("pfs config");
    fs.enable_latency_metrics();
    let fs2 = Arc::clone(&fs);
    let rep = mpisim::run(nprocs, traced_sim(&calib), move |rk| {
        Ok(art::dump(rk, &fs2, &cfg, ArtMethod::Tcio, "/art")?.elapsed)
    })
    .expect("perf art run");
    let reg = export(&rep, &fs);
    (rep, reg)
}

/// One workload's summary entry: makespan, critical-path breakdown,
/// path imbalance, cache hit ratios, and the full registry export.
fn workload_entry(label: &str, rep: &SimReport<f64>, reg: &Registry) -> Json {
    let cp = Analyzer::new(&rep.traces).critical_path();
    assert!(
        !cp.truncated && cp.residual().abs() <= 1e-6 * cp.makespan.max(1.0),
        "{label}: critical path lost time (residual {})",
        cp.residual()
    );
    eprintln!("== {label} ==\n{}", cp.render());
    let b = cp.breakdown();
    let mut path = Json::obj();
    for c in Category::ALL {
        path.set(c.as_str(), Json::num(b.get(c)));
    }
    path.set("total", Json::num(b.total()));
    let mut entry = Json::obj()
        .with("makespan", Json::num(rep.makespan))
        .with("imbalance", Json::num(cp.imbalance()))
        .with("path", path);
    let ratio = |hits: Option<u64>, misses: Option<u64>| -> Option<f64> {
        let (h, m) = (hits? as f64, misses? as f64);
        (h + m > 0.0).then_some(h / (h + m))
    };
    if let Some(r) = ratio(
        reg.counter("tcio_l1_hits_total"),
        reg.counter("tcio_l1_misses_total"),
    ) {
        entry.set("l1_hit_ratio", Json::num(r));
    }
    if let Some(r) = ratio(
        reg.counter("tcio_l2_hits_total"),
        reg.counter("tcio_l2_misses_total"),
    ) {
        entry.set("l2_hit_ratio", Json::num(r));
    }
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
    entry.with("counters", counters).with("hists", hists)
}

pub fn run(args: &Args) -> Json {
    let len = args.usize("len");
    let mut workloads = Json::obj();
    for n in args.ints("ranks") {
        let (rep, reg) = run_synth_perf(n, len);
        let label = format!("synth_p{n}");
        workloads.set(&label, workload_entry(&label, &rep, &reg));
        let (rep, reg) = run_art_perf(n);
        let label = format!("art_p{n}");
        workloads.set(&label, workload_entry(&label, &rep, &reg));
    }
    Json::obj().with("workloads", workloads)
}

/// Conservation, as the document states it: every workload's critical
/// path accounts for its whole makespan.
pub fn claims(result: &Json) -> Result<(), String> {
    let Some(Json::Obj(workloads)) = result.get("workloads") else {
        return Err("no workloads in the document".into());
    };
    for (name, w) in workloads {
        let makespan = w.get("makespan").and_then(Json::as_f64);
        let total = w.get("path").and_then(|p| p.get("total")?.as_f64());
        match (makespan, total) {
            (Some(m), Some(t)) if (m - t).abs() <= 1e-6 * m.max(1.0) => {}
            _ => {
                return Err(format!(
                    "{name}: path.total {total:?} vs makespan {makespan:?}"
                ))
            }
        }
    }
    Ok(())
}
