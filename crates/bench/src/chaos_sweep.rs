//! Fault-intensity sweep (`chaos_sweep`): run the Table II
//! dump-then-restart workload under a fault plan scaled from inert
//! (intensity 0) to full strength (intensity 1), for TCIO and OCIO, and
//! report the slowdown curves plus resilience counters.
//!
//! Without `--plan` a built-in mixed plan is used (OST brownout + outage,
//! message delay, one straggler rank, elevated request overhead).
//!
//! A second sweep then adds a crash-stop of `--crash-rank` at virtual time
//! `--crash-at` to the same plan: TCIO's durability epochs recover the
//! dead rank's level-2 segments and the run completes (with the recovery
//! cost visible in the slowdown and `segments_recovered`); OCIO has no
//! recovery and reports `"completed": false`. Pass `--crash-rank -1` to
//! skip the crash sweep.

use crate::registry::Args;
use crate::runner::{die, load_plan, synth_params, Cell};
use crate::{Calib, Json};
use chaos::{Effect, Fault, FaultPlan};
use mpisim::SimError;
use std::sync::Arc;
use workloads::synthetic::{Method, SynthParams};
use workloads::WlError;

/// The built-in full-intensity plan: one fault from every family that the
/// synthetic workload exercises, windowed so outages lift well before the
/// retry budget runs out.
fn builtin_plan() -> FaultPlan {
    FaultPlan::new(0xC0FFEE)
        .with(
            Effect::OstSlowdown {
                ost: 0,
                factor: 4.0,
            }
            .during(0.0, 1e9),
        )
        // Outage on OST 0: stripe 0 of the first file always lands there,
        // so the plan bites even when a small file spans a single stripe.
        .with(Effect::OstOutage { ost: 0 }.during(0.0, 0.05))
        .with(Effect::RequestOverhead { extra: 100.0e-6 }.during(0.0, 1e9))
        .with(Effect::MessageDelay { delay: 50.0e-6 }.during(0.0, 1e9))
        .with(Effect::RankStall { rank: 1 }.during(0.0, 0.02))
}

/// One dump-then-restart run under a fault plan: per-phase elapsed times
/// and the resilience counters aggregated across ranks.
struct ChaosRun {
    /// Write-phase elapsed virtual seconds (max across ranks). `NaN` when
    /// the run did not complete.
    write_s: f64,
    /// Read-phase elapsed virtual seconds.
    read_s: f64,
    /// Total transient-fault retries across all ranks.
    io_retries: u64,
    /// Total fault-plan stall windows absorbed across all ranks.
    chaos_stalls: u64,
    /// Transient refusals issued by the file system.
    transient_errors: u64,
    /// Did the dump-then-restart finish with verified data? TCIO's
    /// durability epochs survive a crashed rank; OCIO under the same plan
    /// aborts (or fails restart verification) and reports `false`.
    completed: bool,
    /// Injected crash-stops that fired, across all ranks.
    rank_crashes: u64,
    /// Level-2 segments the buddy recovery drain reconstructed.
    segments_recovered: u64,
}

fn run_synth_chaos(
    calib: &Calib,
    nprocs: usize,
    p: &SynthParams,
    method: Method,
    engine: Arc<chaos::ChaosEngine>,
) -> ChaosRun {
    let planned_crashes = (0..nprocs).filter(|&r| engine.crash_ahead(r)).count() as u64;
    let mut cell = Cell::new(calib, nprocs, p.clone(), method);
    cell.job.under(Some(engine));
    let run = cell.run();
    let transient_errors = cell.job.fs.stats.snapshot().transient_errors;
    // A run the crash undid reports no times and no per-rank counters:
    // the report died with it.
    let (write_s, read_s, agg) = match run {
        Ok(run) => (run.write_s, run.read_s, Some(run.rep.aggregate_stats())),
        Err(e) if undone_by_a_crash(&e) => (f64::NAN, f64::NAN, None),
        Err(other) => panic!("experiment failed unexpectedly: {other}"),
    };
    let agg = agg.as_ref();
    ChaosRun {
        write_s,
        read_s,
        io_retries: agg.map_or(0, |s| s.io_retries),
        chaos_stalls: agg.map_or(0, |s| s.chaos_stalls),
        transient_errors,
        completed: agg.is_some(),
        rank_crashes: agg.map_or(planned_crashes, |s| s.rank_crashes),
        segments_recovered: agg.map_or(0, |s| s.segments_recovered),
    }
}

/// A crashed rank tore an unprotected collective down, or the restart's
/// verification caught the data hole the crash left: the plan was
/// survivable only for an implementation with durability epochs.
fn undone_by_a_crash(e: &SimError) -> bool {
    match e {
        SimError::CollectiveAborted { .. } => true,
        SimError::RankFailed { error, .. } => {
            matches!(error.layer(), Some(WlError::Mismatch(_)))
        }
        SimError::RankPanicked { .. } | SimError::Config(_) => false,
    }
}

/// Run the intensity sweep for one plan and return the points array.
/// `label` prefixes the progress lines.
fn sweep(
    plan: &FaultPlan,
    label: &str,
    calib: &Calib,
    nprocs: usize,
    p: &SynthParams,
    points: usize,
) -> Json {
    let methods = [(Method::Tcio, "tcio"), (Method::Ocio, "ocio")];
    let mut baselines = [0.0f64; 2];
    let mut out = Vec::new();
    for pt in 0..points {
        let k = pt as f64 / (points - 1) as f64;
        let engine = plan
            .scaled(k)
            .build()
            .unwrap_or_else(|e| die(format!("fault plan rejected at intensity {k}: {e}")));
        let mut point = Json::obj().with("intensity", Json::num(k));
        for (m, (method, name)) in methods.iter().enumerate() {
            let r = run_synth_chaos(calib, nprocs, p, *method, engine.clone());
            let total = r.write_s + r.read_s;
            if pt == 0 {
                baselines[m] = total;
            }
            let slowdown = total / baselines[m];
            eprintln!(
                "{label}intensity {k:.2} {name}: write {:.4}s read {:.4}s slowdown {:.3}x \
                 retries {} stalls {} transients {} crashes {} recovered {}{}",
                r.write_s,
                r.read_s,
                slowdown,
                r.io_retries,
                r.chaos_stalls,
                r.transient_errors,
                r.rank_crashes,
                r.segments_recovered,
                if r.completed { "" } else { " [ABORTED]" },
            );
            point.set(
                name,
                Json::obj()
                    .with("completed", Json::Bool(r.completed))
                    .with("write_s", Json::num(r.write_s))
                    .with("read_s", Json::num(r.read_s))
                    .with("slowdown", Json::num(slowdown))
                    .with("io_retries", Json::num(r.io_retries as f64))
                    .with("chaos_stalls", Json::num(r.chaos_stalls as f64))
                    .with("transient_errors", Json::num(r.transient_errors as f64))
                    .with("rank_crashes", Json::num(r.rank_crashes as f64))
                    .with("segments_recovered", Json::num(r.segments_recovered as f64)),
            );
        }
        out.push(point);
    }
    Json::Arr(out)
}

pub fn run(args: &Args) -> Json {
    let nprocs = args.usize("procs");
    let points = args.usize("points").max(2);
    let calib = Calib::paper(args.int("scale"));
    let p = synth_params(&calib, args.usize("len"), args.usize("size-access"));
    let plan = match args.text("plan") {
        "" => builtin_plan(),
        path => load_plan(path),
    };
    let mut doc = Json::obj().with("points", sweep(&plan, "", &calib, nprocs, &p, points));

    // Crash sweep: the same plan with one rank crash-stopped mid-dump.
    // TCIO recovers (durability epochs); OCIO aborts. Rank 0 is the
    // default victim because it serves round-robin slot 0: the dump's
    // first windows live in its level-2 segment, so its death leaves
    // acknowledged bytes that only the buddy replica can still produce.
    if args.text("crash-rank") != "-1" {
        let rank = match args.text("crash-rank").parse::<usize>() {
            Ok(rank) if rank < nprocs => rank,
            _ => die(format!(
                "--crash-rank expects -1 or a rank below --procs {nprocs}, got {:?}",
                args.text("crash-rank")
            )),
        };
        let at = args.float("crash-at");
        let crash_plan = plan.clone().with(Fault::RankCrash { rank, at });
        let points = sweep(&crash_plan, "crash ", &calib, nprocs, &p, points);
        doc.set(
            "crash",
            Json::obj()
                .with("rank", Json::num(rank as f64))
                .with("at", Json::num(at))
                .with("points", points),
        );
    }
    doc
}

/// At full intensity the crash-stop is survivable for TCIO — the buddy
/// drain reconstructs at least one level-2 segment and the restart
/// verifies — and for nothing else: OCIO under the same plan aborts.
pub fn claims(result: &Json) -> Result<(), String> {
    let last = result
        .get("crash")
        .and_then(|c| c.get("points"))
        .and_then(|p| p.as_arr()?.last())
        .ok_or("no crash sweep in the document")?;
    let cell = |m: &str, k: &str| last.get(m).and_then(|c| c.get(k)).cloned();
    if cell("tcio", "completed") != Some(Json::Bool(true)) {
        return Err("TCIO must survive the crash".into());
    }
    if !cell("tcio", "segments_recovered").is_some_and(|n| n.as_f64() >= Some(1.0)) {
        return Err("the recovery drain must reconstruct at least one segment".into());
    }
    if cell("ocio", "completed") != Some(Json::Bool(false)) {
        return Err("OCIO has no recovery story and must abort".into());
    }
    Ok(())
}
