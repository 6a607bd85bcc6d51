//! The diagnostic: where one traced run's virtual time goes, not a paper
//! figure. It prints what it measured and returns the same numbers as a
//! document (`--json <path>` writes it).

use crate::registry::Args;
use crate::runner::{die, load_plan, registry_json, run_traced_synth};
use crate::{Calib, Json};
use insight::{Analyzer, Category};
use mpisim::{chrome_trace_json, Phase, TraceReport};
use workloads::synthetic::Method;

/// Run the interleaved-arrays workload with tracing on, print the
/// per-phase breakdown, the per-OST histogram, the critical path and the
/// registry's counters, and export a Chrome `trace_event` JSON per method
/// (load it at chrome://tracing or ui.perfetto.dev).
///
/// With `--fault-plan plans/ost_outage.toml` the same workload runs under
/// a deterministic fault plan; injected faults and retries show up as
/// `chaos_stall` / `io_retry` spans in the exported trace.
pub fn trace(args: &Args) -> Json {
    let nprocs = args.usize("procs");
    let len = args.usize("len");
    let size_access = args.usize("size-access");
    let out = args.text("out");
    let engine = match args.text("fault-plan") {
        "" => None,
        path => Some(
            load_plan(path)
                .build()
                .unwrap_or_else(|e| die(format!("bad fault plan {path}: {e}"))),
        ),
    };
    let calib = Calib::paper(args.int("scale"));

    let mut by_method = Json::obj();
    for label in args.words("methods") {
        let method = match label {
            "tcio" => Method::Tcio,
            "ocio" => Method::Ocio,
            _ => Method::Vanilla,
        };
        let (rep, job) = run_traced_synth(&calib, nprocs, len, size_access, method, engine.clone());
        let report = TraceReport::new(&rep.traces).with_osts(job.fs.ost_report());

        println!("== {label}: interleaved arrays, {nprocs} ranks, LEN {len} ==");
        print!("{}", report.render());

        // Conservation check: each rank's phase attribution must account
        // for its entire elapsed virtual time.
        let worst = rep
            .traces
            .iter()
            .enumerate()
            .map(|(r, t)| (t.totals.total() - rep.clocks[r]).abs())
            .fold(0.0f64, f64::max);
        let spans: usize = rep.traces.iter().map(|t| t.spans.len()).sum();
        println!(
            "makespan {:.6}s | phase-sum residual {:.2e}s | spans {} | Io imbalance {:.2}",
            rep.makespan,
            worst,
            spans,
            report.imbalance(Phase::Io)
        );
        assert!(worst <= 1e-9, "phase attribution leaked virtual time");
        if engine.is_some() {
            let retries: u64 = rep.stats.iter().map(|s| s.io_retries).sum();
            let stalls: u64 = rep.stats.iter().map(|s| s.chaos_stalls).sum();
            println!("fault plan: {retries} io retries, {stalls} stall windows absorbed");
        }

        // Critical-path attribution of the same trace (what the makespan
        // is actually spent on, not what ranks were busy with).
        let cp = Analyzer::new(&rep.traces).critical_path();
        println!("critical path:\n{}", cp.render());

        // Everything the run counted, under the registry's names.
        let reg = job.export(&rep);
        println!("counters:");
        for (name, n) in reg.counters().filter(|&(_, n)| n > 0) {
            println!("  {name:<36} {n}");
        }
        let (counters, _) = registry_json(&reg);

        let path = format!("{out}_{label}.json");
        std::fs::write(&path, chrome_trace_json(&rep.traces)).expect("write trace json");
        println!("chrome trace -> {path}\n");

        let b = cp.breakdown();
        let mut cp_json = Json::obj();
        for c in Category::ALL {
            cp_json.set(c.as_str(), Json::num(b.get(c)));
        }
        by_method.set(
            label,
            Json::obj()
                .with("makespan", Json::num(rep.makespan))
                .with("spans", Json::num(spans as f64))
                .with("phase_residual_s", Json::num(worst))
                .with("io_imbalance", Json::num(report.imbalance(Phase::Io)))
                .with("critical_path", cp_json)
                .with("path_imbalance", Json::num(cp.imbalance()))
                .with("counters", counters)
                .with("chrome_trace", Json::str(&path)),
        );
    }
    Json::obj()
        .with("bench", Json::str("diag_trace"))
        .with("procs", Json::num(nprocs as f64))
        .with("methods", by_method)
}
