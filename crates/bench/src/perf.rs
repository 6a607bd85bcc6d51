//! Canonical virtual-time perf summary (`perf_report`): critical-path
//! breakdowns (via the `insight` analyzer) and the full registry export
//! for the Table-I interleaved-arrays workload and the ART dump, each at
//! 16 and 64 ranks. `bench gate` diffs it exactly against
//! `bench_results/BENCH_baseline.json`.
//!
//! Nothing here reads a wall clock: what a run costs the host is
//! measured by simbench under `benchmark/`, and only there.

use crate::registry::Args;
use crate::runner::{registry_json, synth_params, Cell, Job};
use crate::{Calib, Json};
use insight::{Analyzer, Category};
use mpisim::{Registry, SimReport};
use workloads::art::{self, ArtConfig, ArtMethod};
use workloads::synthetic::Method;

/// Table-I/II interleaved-arrays dump-then-restart through TCIO, with
/// tracing and metrics on.
fn synth_entry(label: &str, nprocs: usize, len: usize) -> Json {
    let calib = Calib::unscaled();
    let mut cell = Cell::new(&calib, nprocs, synth_params(&calib, len, 1), Method::Tcio);
    cell.job.traced().metered();
    let rep = cell.run().expect("perf synth run").rep;
    workload_entry(label, &rep, &cell.job.export(&rep))
}

/// ART dump through TCIO with tracing and metrics on, sized for CI.
fn art_entry(label: &str, nprocs: usize) -> Json {
    let cfg = ArtConfig {
        num_segments: 4 * nprocs,
        mu: 8.0,
        sigma: 2.0,
        ..ArtConfig::default()
    };
    let mut job = Job::new(&Calib::unscaled(), nprocs);
    job.traced().metered();
    let dump = job.run(|rk, fs| Ok(art::dump(rk, fs, &cfg, ArtMethod::Tcio, "/art")?.elapsed));
    let rep = dump.expect("perf art run");
    workload_entry(label, &rep, &job.export(&rep))
}

/// One workload's summary entry: makespan, critical-path breakdown,
/// path imbalance, cache hit ratios, and the full registry export.
fn workload_entry<T>(label: &str, rep: &SimReport<T>, reg: &Registry) -> Json {
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
    for level in ["l1", "l2"] {
        let n = |what| {
            reg.counter(&format!("tcio_{level}_{what}_total"))
                .unwrap_or(0) as f64
        };
        let (hits, misses) = (n("hits"), n("misses"));
        if hits + misses > 0.0 {
            entry.set(
                &format!("{level}_hit_ratio"),
                Json::num(hits / (hits + misses)),
            );
        }
    }
    let (counters, hists) = registry_json(reg);
    entry.with("counters", counters).with("hists", hists)
}

pub fn run(args: &Args) -> Json {
    let len = args.usize("len");
    let mut workloads = Json::obj();
    for n in args.ints("ranks") {
        let label = format!("synth_p{n}");
        workloads.set(&label, synth_entry(&label, n, len));
        let label = format!("art_p{n}");
        workloads.set(&label, art_entry(&label, n));
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
