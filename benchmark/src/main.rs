//! simbench — the repo's benchmark.
//!
//! ```text
//! simbench [--workload NAME] [--seed N] [--seconds S]
//!     every workload (or one): timed reps, one traced rep and the layer
//!     cells; prints every metric and writes benchmark/out/simbench.json
//! simbench --workload NAME --seed N --seconds S --trace 0|1
//!     one workload the way BENCHMARK.json's driver runs it: the last line
//!     of stdout is one JSON object (end-to-end metrics for --trace 0,
//!     per-layer metrics for --trace 1)
//! simbench --check-repeat [--seed N] [--seconds S]
//!     the whole set twice; fails unless exact metrics repeat bit for bit
//!     and host medians agree within their bounds; a host metric whose
//!     reps spread wider than its bound is reported as unresolved
//! simbench probe-scale [--seed N]
//!     ART through TCIO at 4096 ranks, three reps: the sys-time explanation
//! simbench manifest
//!     prints BENCHMARK.json as the metric catalog defines it
//! ```
//!
//! Every rep runs in its own child process (this binary, `child ...`),
//! one after another, so peak RSS and fault counts belong to one rep and
//! nothing shares the machine with the rep being timed.

mod catalog;
mod cells;
mod host;
mod inputs;
mod json;
mod report;
mod suite;

use catalog::{Kind, Src, END_TO_END, PER_LAYER, PHASES, RUN_SECONDS};
use host::{HostSample, Summary};
use report::{Line, WorkloadResult};
use std::collections::BTreeMap;
use std::process::{Command, ExitCode, Stdio};

/// `--key value` arguments after the positional ones.
struct Args {
    positional: Vec<String>,
    options: BTreeMap<String, String>,
}

impl Args {
    fn parse() -> Result<Args, String> {
        let mut positional = Vec::new();
        let mut options = BTreeMap::new();
        let mut it = std::env::args().skip(1);
        while let Some(arg) = it.next() {
            match arg.strip_prefix("--") {
                Some("check-repeat") => {
                    options.insert("check-repeat".to_string(), "1".to_string());
                }
                Some(key @ ("workload" | "seed" | "seconds" | "trace" | "traced")) => {
                    let value = it.next().ok_or(format!("--{key} needs a value"))?;
                    options.insert(key.to_string(), value);
                }
                Some(key) => return Err(format!("unknown option --{key}")),
                None => positional.push(arg),
            }
        }
        Ok(Args {
            positional,
            options,
        })
    }

    fn get<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.options.get(key) {
            Some(v) => v.parse().map_err(|_| format!("--{key}: cannot read {v:?}")),
            None => Ok(default),
        }
    }

    fn workloads(&self) -> Result<Vec<&'static str>, String> {
        match self.options.get("workload") {
            None => Ok(suite::names().collect()),
            Some(w) => suite::names()
                .find(|n| n == w)
                .map(|n| vec![n])
                .ok_or(format!(
                    "unknown workload {w:?}; known: {:?}",
                    suite::names().collect::<Vec<_>>()
                )),
        }
    }
}

fn main() -> ExitCode {
    let start = HostSample::now();
    match run(start) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("simbench: {e}");
            ExitCode::from(2)
        }
    }
}

fn run(start: HostSample) -> Result<bool, String> {
    let args = Args::parse()?;
    let seed: u64 = args.get("seed", suite::DEFAULT_SEED)?;
    match args.positional.first().map(String::as_str) {
        Some("child") => {
            child(&args, start, seed);
            Ok(true)
        }
        Some("probe-scale") => probe_scale(seed),
        Some("manifest") => {
            print!("{}", report::manifest_json());
            Ok(true)
        }
        Some(other) => Err(format!("unknown subcommand {other:?}")),
        None if args.options.contains_key("check-repeat") => {
            check_repeat(seed, args.get("seconds", RUN_SECONDS as f64)?)
        }
        None => match args.options.get("trace").map(String::as_str) {
            Some("0") => driver(&args, seed, false),
            Some("1") => driver(&args, seed, true),
            Some(other) => Err(format!("--trace takes 0 or 1, not {other:?}")),
            None => full(&args, seed),
        },
    }
}

// ---------------------------------------------------------------------
// Children: one rep, or the layer cells, per process.
// ---------------------------------------------------------------------

fn child(args: &Args, start: HostSample, seed: u64) {
    let what = args.positional.get(1).map(String::as_str);
    let mut probe = cells::SpeedProbe::new();
    let probe_before = probe.run();
    cells::calibration_ping_pong();
    match what {
        Some("cells") => {
            for c in cells::run_all() {
                Line::cell(&c).print();
            }
        }
        Some("rep") => {
            let workload = &args.options["workload"];
            let traced = args.options.get("traced").is_some_and(|t| t == "1");
            let rep = suite::run(workload, seed, traced, &start);
            let end = HostSample::now();
            let probe_s = (probe_before + probe.run()) / 2.0;
            for line in rep_lines(&rep, &start, &end, probe_s) {
                line.print();
            }
        }
        other => panic!("child: unknown kind {other:?}"),
    }
}

/// Seconds the speed probe takes on the machine the benchmark was written
/// on when nothing else disturbs it. The host-time metrics are scaled to
/// it: they read in seconds of that machine.
const REFERENCE_PROBE_S: f64 = 0.2;

/// Everything one rep reports, as lines for the parent. The rep ran from
/// `start`, when the process began, to `end`; `probe_s` is the mean of the
/// speed probe's readings before and after the workload.
fn rep_lines(rep: &suite::Rep, start: &HostSample, end: &HostSample, probe_s: f64) -> Vec<Line> {
    let mut out = Vec::new();
    let mut put = |name: &str, unit: &str, value: f64| out.push(Line::value(name, unit, value));
    let region = rep.region;
    let c = &rep.counts;

    // The machine's speed drifts by tens of percent over minutes, and the
    // probe drifts with it: scaled by the probe, a time says what the
    // program costs, not when it ran (README.md, "Scaled host time").
    let scale = REFERENCE_PROBE_S / probe_s;
    let setup_s = rep.first_run_at.map_or(0.0, |t| t.since(start).wall_s);
    put("setup_s", "s", setup_s * scale);
    put("wall_s", "s", region.wall_s * scale);
    put("cpu_user_s", "s", region.user_s * scale);
    put(
        "app_mb_per_s",
        "MB/s",
        rep.app_bytes as f64 / 1.0e6 / (region.wall_s * scale),
    );
    put("host.probe_s", "s", probe_s);
    put("host.setup_raw_s", "s", setup_s);
    put("host.wall_raw_s", "s", region.wall_s);
    put("host.cpu_user_raw_s", "s", region.user_s);
    put("peak_rss_mb", "MB", rep.peak_rss_mb);
    put("minor_faults", "count", region.minflt as f64);
    put("virt_makespan_s", "virt_s", rep.virt_makespan_s);
    put("virt_write_mbs", "virt_MB/s", rep.virt_write_mbs());
    put("virt_read_mbs", "virt_MB/s", rep.virt_read_mbs());
    put("attempted", "count", rep.attempted as f64);
    put("failed", "count", rep.failed as f64);

    put("host.cpu_sys_s", "s", region.sys_s);
    put(
        "host.ns_per_sim_op",
        "ns",
        region.wall_s * 1.0e9 / c.sim_ops().max(1) as f64,
    );
    let s = &c.stats;
    for (name, unit, v) in [
        ("mpisim.msgs", "count", s.msgs_sent),
        ("mpisim.msg_bytes", "bytes", s.bytes_sent),
        ("mpisim.collectives", "count", s.collectives),
        ("mpisim.intra_bytes", "bytes", c.intra_bytes),
        ("mpisim.inter_bytes", "bytes", c.inter_bytes),
        ("mpisim.puts", "count", s.puts),
        ("mpisim.gets", "count", s.gets),
        ("mpisim.rma_epochs", "count", s.rma_epochs),
        ("mpisim.sim_ops", "count", c.sim_ops()),
        ("mpisim.mem_peak_bytes", "bytes", s.mem_peak),
        ("pfs.write_rpcs", "count", c.pfs.write_rpcs),
        ("pfs.read_rpcs", "count", c.pfs.read_rpcs),
        ("pfs.lock_transfers", "count", c.pfs.lock_transfers),
        ("pfs.transient_errors", "count", c.pfs.transient_errors),
        ("pfs.health.hedges", "count", c.hedges),
        ("pfs.health.hedge_wins", "count", c.hedge_wins),
        ("pfs.health.breaker_opens", "count", c.breaker_opens),
        ("pfs.health.degraded_writes", "count", c.degraded_writes),
        ("mpiio.io_retries", "count", s.io_retries),
        ("facility.jobs", "count", c.job_latencies.len() as u64),
        (
            "facility.burst_absorbed_bytes",
            "bytes",
            c.burst_absorbed_bytes,
        ),
    ] {
        put(name, unit, v as f64);
    }
    put("pfs.qos.throttle_wait_s", "virt_s", c.throttle_wait_s);
    put("mpiio.io_overlap_s", "virt_s", s.io_overlap);
    let mut lat = c.job_latencies.clone();
    lat.sort_by(f64::total_cmp);
    let pct = |q: f64| match lat.len() {
        0 => 0.0,
        n => lat[((n as f64 * q).ceil() as usize).clamp(1, n) - 1],
    };
    put("facility.job_p50_s", "virt_s", pct(0.50));
    put("facility.job_p99_s", "virt_s", pct(0.99));

    if let Some(t) = &rep.traced {
        let ratio = |hits: u64, misses: u64| match hits + misses {
            0 => 0.0,
            n => hits as f64 / n as f64,
        };
        put("mpisim.trace.spans", "count", t.spans as f64);
        put("mpisim.trace.export_s", "s", t.export_s);
        put("mpisim.trace.rss_mb", "MB", host::peak_rss_mb());
        put("tcio.l1_hit_ratio", "ratio", ratio(t.l1_hits, t.l1_misses));
        put("tcio.l2_hit_ratio", "ratio", ratio(t.l2_hits, t.l2_misses));
        for (cat, secs) in insight::Category::ALL.iter().zip(t.path) {
            put(&format!("virt.path.{}_s", cat.as_str()), "virt_s", secs);
        }
        put("virt.path.residual_s", "virt_s", t.residual_s);
        let frac = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
        put(
            "virt.overlap_frac",
            "ratio",
            frac(t.io_overlapped_s, t.io_busy_s),
        );
        put(
            "virt.imbalance",
            "ratio",
            frac(t.imbalance_weighted, t.analyzed_makespan_s),
        );
        put("insight.analyze_s", "s", t.analyze_s);
        put(
            "path_truncated",
            "count",
            if t.truncated { 1.0 } else { 0.0 },
        );

        // The phases tile the rep from process start; what they do not
        // cover is the benchmark's own bookkeeping.
        let total = end.since(start).wall_s;
        let mut covered = 0.0;
        for phase in PHASES {
            let d = rep.phases.get(phase);
            covered += d.wall_s;
            put(&format!("phase.{phase}_s"), "s", d.wall_s);
            put(&format!("phase.{phase}_user_s"), "s", d.user_s);
            put(&format!("phase.{phase}_sys_s"), "s", d.sys_s);
            put(&format!("phase.{phase}_minflt"), "count", d.minflt as f64);
        }
        put(
            "phase.self_frac",
            "ratio",
            (total - covered).max(0.0) / total,
        );
    }
    out.push(Line::text(
        "file_hash",
        "hex",
        format!("{:016x}", rep.file_hash.finish()),
    ));
    out
}

// ---------------------------------------------------------------------
// Parent: run children one after another and reduce what they print.
// ---------------------------------------------------------------------

/// Run `simbench child <args>` to completion and parse its lines.
fn spawn(args: &[&str]) -> Result<Vec<Line>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out = Command::new(exe)
        .arg("child")
        .args(args)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn child: {e}"))?;
    if !out.status.success() {
        return Err(format!("child {args:?} ended with {}", out.status));
    }
    String::from_utf8_lossy(&out.stdout)
        .lines()
        .map(Line::parse)
        .collect()
}

fn spawn_rep(workload: &str, seed: u64, traced: bool) -> Result<Vec<Line>, String> {
    let seed = seed.to_string();
    spawn(&[
        "rep",
        "--workload",
        workload,
        "--seed",
        &seed,
        "--traced",
        if traced { "1" } else { "0" },
    ])
}

/// How much to run for one workload.
#[derive(Clone, Copy)]
struct Plan {
    /// Timed reps: at least this many, and until their measured regions
    /// add up to `seconds`.
    min_reps: usize,
    seconds: f64,
    traced: bool,
}

const MAX_REPS: usize = 16;
/// Fewest timed reps of a full run and of a driver run. The driver's is
/// lower because 4 + 22 x 6 of its runs must fit the contract's time cap.
const FULL_MIN_REPS: usize = 5;
const DRIVER_MIN_REPS: usize = 3;
/// The results file of a full run, relative to the repo root.
const RESULTS_FILE: &str = "benchmark/out/simbench.json";

fn find<'a>(lines: &'a [Line], name: &str) -> Result<&'a Line, String> {
    lines
        .iter()
        .find(|l| l.name == name)
        .ok_or(format!("child did not report {name}"))
}

/// Run one workload's reps and reduce them. `cells` feeds the per-layer
/// table of a traced plan.
fn run_workload(
    name: &'static str,
    seed: u64,
    plan: Plan,
    cells: &[Line],
) -> Result<WorkloadResult, String> {
    let mut reps: Vec<Vec<Line>> = Vec::new();
    let mut measured = 0.0;
    while reps.len() < plan.min_reps || (measured < plan.seconds && reps.len() < MAX_REPS) {
        let lines = spawn_rep(name, seed, false)?;
        measured += find(&lines, "host.wall_raw_s")?.num()?;
        reps.push(lines);
    }

    let mut res = WorkloadResult::new(name, seed);
    // Equal text means equal bits (see `Line`).
    let same_text = |name: &str| -> Result<bool, String> {
        let first = &find(&reps[0], name)?.text;
        Ok(reps
            .iter()
            .all(|r| find(r, name).is_ok_and(|l| &l.text == first)))
    };
    // A value reported once per rep: the median for host metrics; exact
    // metrics must agree across reps or the run is not deterministic.
    let reduce = |name: &str, kind: Kind| -> Result<(Summary, bool), String> {
        let values: Vec<f64> = reps
            .iter()
            .map(|r| find(r, name)?.num())
            .collect::<Result<_, _>>()?;
        let same = kind == Kind::Host || same_text(name)?;
        if !same {
            eprintln!("simbench: {name} differs between reps of one seed: {values:?}");
        }
        Ok((Summary::of(&values), same))
    };
    for def in END_TO_END {
        let (summary, same) = reduce(def.name, def.kind)?;
        res.deterministic &= same;
        res.end_to_end.push((*def, summary));
    }
    for name in ["attempted", "failed", "file_hash"] {
        res.deterministic &= same_text(name)?;
    }
    for r in &reps {
        res.attempted += find(r, "attempted")?.num()? as u64;
        res.failed += find(r, "failed")?.num()? as u64;
    }
    res.file_hash = find(&reps[0], "file_hash")?.text.clone();

    // Counts and host readings of the timed reps are per-layer metrics of
    // every plan; the cells and the traced rep's only of a traced one.
    let traced = if plan.traced {
        let mut traced = spawn_rep(name, seed, true)?;
        res.attempted += find(&traced, "attempted")?.num()? as u64;
        res.failed += find(&traced, "failed")?.num()? as u64;
        if find(&traced, "path_truncated")?.num()? != 0.0 {
            eprintln!("simbench: {name}: critical path walk was cut short");
            res.failed = res.attempted;
        }
        // The path segments must tile the makespan: nothing left over
        // beyond floating-point noise.
        let residual = find(&traced, "virt.path.residual_s")?.num()?;
        if residual > 1.0e-9 * res.end_to_end_median("virt_makespan_s") {
            eprintln!("simbench: {name}: critical path lost {residual} virtual seconds");
            res.failed = res.attempted;
        }
        // The one per-layer metric that needs both kinds of rep.
        let overhead = find(&traced, "wall_s")?.num()? / res.end_to_end_median("wall_s") - 1.0;
        traced.push(Line::value("mpisim.trace.overhead_frac", "ratio", overhead));
        Some(traced)
    } else {
        None
    };
    for def in PER_LAYER {
        let summary = match (def.src, &traced) {
            (Src::Rep, _) => {
                let (summary, same) = reduce(def.name, def.kind)?;
                res.deterministic &= same;
                summary
            }
            (Src::Cell, Some(_)) => find(cells, def.name)?.summary()?,
            (Src::Traced, Some(traced)) => find(traced, def.name)?.summary()?,
            (Src::Cell | Src::Traced, None) => continue,
        };
        res.per_layer.push((*def, summary));
    }
    Ok(res)
}

/// `BENCHMARK.json`'s driver: one workload, one JSON line.
fn driver(args: &Args, seed: u64, traced: bool) -> Result<bool, String> {
    let [name] = args.workloads()?[..] else {
        return Err("--trace needs --workload".into());
    };
    let plan = if traced {
        Plan {
            min_reps: 1,
            seconds: 0.0,
            traced: true,
        }
    } else {
        Plan {
            min_reps: DRIVER_MIN_REPS,
            seconds: args.get("seconds", RUN_SECONDS as f64)?,
            traced: false,
        }
    };
    let cells = if traced {
        spawn(&["cells"])?
    } else {
        Vec::new()
    };
    let res = run_workload(name, seed, plan, &cells)?;
    eprint!("{}", res.render());
    println!("{}", res.driver_json(traced));
    Ok(res.correct())
}

/// Every workload (or one): timed reps, a traced rep, the layer cells.
fn full(args: &Args, seed: u64) -> Result<bool, String> {
    let plan = Plan {
        min_reps: FULL_MIN_REPS,
        seconds: args.get("seconds", RUN_SECONDS as f64)?,
        traced: true,
    };
    let cells = spawn(&["cells"])?;
    let results = args
        .workloads()?
        .into_iter()
        .map(|w| {
            eprintln!("simbench: running {w}");
            run_workload(w, seed, plan, &cells)
        })
        .collect::<Result<Vec<_>, _>>()?;
    for res in &results {
        print!("{}", res.render());
    }
    println!("{}", report::render_cells(&cells));
    let ok = results.iter().all(WorkloadResult::correct) && same_bytes_check(&results);
    let out = std::path::Path::new(RESULTS_FILE);
    let dir = out.parent().expect("the results file is in a directory");
    std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    std::fs::write(out, report::results_json(seed, &results, &cells))
        .map_err(|e| format!("write {RESULTS_FILE}: {e}"))?;
    println!("results written to {RESULTS_FILE}");
    println!("{}", if ok { "PASS" } else { "FAIL" });
    Ok(ok)
}

/// `synth_tcio` and `synth_indep` write the same arrays at the same rank
/// count by different routes (as do the two OCIO workloads): their files
/// must hash alike for every seed, not only the pinned one.
fn same_bytes_check(results: &[WorkloadResult]) -> bool {
    let hash = |name: &str| {
        results
            .iter()
            .find(|r| r.name == name)
            .map(|r| &r.file_hash)
    };
    let mut ok = true;
    for (a, b) in [
        ("synth_tcio", "synth_indep"),
        ("synth_ocio", "synth_ocio_piped"),
    ] {
        if let (Some(ha), Some(hb)) = (hash(a), hash(b)) {
            if ha != hb {
                eprintln!("simbench: {a} wrote {ha}, {b} wrote {hb}: the files differ");
                ok = false;
            }
        }
    }
    ok
}

/// Run the whole set twice and compare.
fn check_repeat(seed: u64, seconds: f64) -> Result<bool, String> {
    let plan = Plan {
        min_reps: FULL_MIN_REPS,
        seconds,
        traced: true,
    };
    let cells = [spawn(&["cells"])?, spawn(&["cells"])?];
    let (mut first, mut second) = (Vec::new(), Vec::new());
    // The two sets take turns workload by workload: the machine's speed
    // drifts over minutes, and a drift must reach both sets alike.
    for w in suite::names() {
        eprintln!("simbench: running {w}, twice");
        first.push(run_workload(w, seed, plan, &cells[0])?);
        second.push(run_workload(w, seed, plan, &cells[1])?);
    }
    let mut ok = same_bytes_check(&first) && same_bytes_check(&second);
    let mut unresolved = 0;
    println!(
        "{:<18} {:<28} {:>14} {:>14} {:>9} {:>9} {:>7}  verdict",
        "workload", "metric", "first", "second", "diff", "spread", "bound"
    );
    for (a, b) in first.iter().zip(&second) {
        ok &= a.correct() && b.correct();
        // Attempts scale with the number of reps, which `--seconds` lets
        // vary; failures and the output hash may not.
        if a.file_hash != b.file_hash || a.failed != b.failed {
            println!("{:<18} output hash or failure counts differ", a.name);
            ok = false;
        }
        let first = a.end_to_end.iter().chain(&a.per_layer);
        let second = b.end_to_end.iter().chain(&b.per_layer);
        for ((def, x), (_, y)) in first.zip(second) {
            let diff = if x.median == 0.0 {
                (y.median - x.median).abs()
            } else {
                (y.median - x.median).abs() / x.median.abs()
            };
            // Reps that spread wider than the bound cannot show that two
            // medians agree within it, nor that they do not.
            let spread = x.spread().max(y.spread());
            let verdict = match (def.kind, def.bound) {
                (Kind::Exact, _) if x.median.to_bits() == y.median.to_bits() => "same",
                (Kind::Exact, _) => "DIFFERS",
                (Kind::Host, Some(bound)) if spread > bound => "unresolved",
                (Kind::Host, Some(bound)) if diff <= bound => "ok",
                (Kind::Host, Some(_)) => "OUTSIDE",
                (Kind::Host, None) => "-",
            };
            ok &= !matches!(verdict, "DIFFERS" | "OUTSIDE");
            unresolved += usize::from(verdict == "unresolved");
            println!(
                "{:<18} {:<28} {:>14.6} {:>14.6} {:>8.2}% {:>8.2}% {:>7}  {verdict}",
                a.name,
                def.name,
                x.median,
                y.median,
                diff * 100.0,
                spread * 100.0,
                match (def.kind, def.bound) {
                    (Kind::Exact, _) => "exact".to_string(),
                    (Kind::Host, Some(b)) => format!("{:.0}%", b * 100.0),
                    (Kind::Host, None) => "-".to_string(),
                },
            );
        }
    }
    println!(
        "{}, {unresolved} host metrics unresolved",
        if ok { "PASS" } else { "FAIL" }
    );
    Ok(ok)
}

/// The ROADMAP's scale cell: ART through TCIO at 4096 ranks. Above ~1 GB
/// of resident set this class of VM takes first-touch faults erratically,
/// so the cell is printed, not gated.
fn probe_scale(seed: u64) -> Result<bool, String> {
    let cells = spawn(&["cells"])?;
    let fault_ns = find(&cells, "host.page_fault_ns")?.num()?;
    println!("host.page_fault_ns = {fault_ns:.0} (first touch of 256 MiB)");
    println!(
        "{:>4} {:>9} {:>9} {:>9} {:>12} {:>10} {:>22}",
        "rep", "wall_s", "user_s", "sys_s", "minor_faults", "rss_mb", "faults*page_fault_ns_s"
    );
    let mut ok = true;
    for rep in 0..3 {
        let lines = spawn_rep(suite::PROBE, seed, false)?;
        let get = |name: &str| find(&lines, name).and_then(Line::num);
        ok &= get("failed")? == 0.0;
        println!(
            "{:>4} {:>9.3} {:>9.3} {:>9.3} {:>12.0} {:>10.1} {:>22.3}",
            rep,
            get("host.wall_raw_s")?,
            get("host.cpu_user_raw_s")?,
            get("host.cpu_sys_s")?,
            get("minor_faults")?,
            get("peak_rss_mb")?,
            get("minor_faults")? * fault_ns * 1.0e-9,
        );
    }
    Ok(ok)
}
