//! Diagnostics: calibration aids, not paper figures. Each prints what it
//! measured and returns the same numbers as a document (`--json <path>`
//! writes it).

use crate::registry::Args;
use crate::runner::{
    die, load_plan, registry_json, run_traced_synth, synth_params, tcio_config, Job,
};
use crate::{Calib, Json};
use insight::{Analyzer, Category};
use mpisim::{chrome_trace_json, Phase, TraceReport};
use tcio::{TcioFile, TcioMode};
use workloads::synthetic::{self, Configs, Direction, Method};

/// Cost of one pairwise-exchange all-to-all vs process count, isolating
/// the collective-wall noise term.
pub fn a2a(args: &Args) -> Json {
    let scale = args.int("scale");
    let calib = Calib::paper(scale);
    let per_rank_real = (args.int("bytes") / scale).max(1) as usize;
    let mut points = Vec::new();
    for p in args.ints("procs") {
        let msg = per_rank_real / p;
        let run = Job::new(&calib, p).run(|rk, _fs| {
            rk.barrier()?;
            let t0 = rk.now();
            let data: Vec<Vec<u8>> = (0..rk.nprocs()).map(|_| vec![0u8; msg]).collect();
            rk.alltoallv(data)?;
            rk.barrier()?;
            Ok(rk.now() - t0)
        });
        let t = run.expect("run").results[0];
        let ms_round = t / (p - 1) as f64 * 1e3;
        println!("P={p}: alltoallv of {per_rank_real}B/rank → {t:.3}s ({ms_round:.2} ms/round)");
        points.push(
            Json::obj()
                .with("procs", Json::num(p as f64))
                .with("bytes_per_rank", Json::num(per_rank_real as f64))
                .with("elapsed_s", Json::num(t))
                .with("ms_per_round", Json::num(ms_round)),
        );
    }
    Json::obj()
        .with("bench", Json::str("diag_a2a"))
        .with("points", Json::Arr(points))
}

/// Virtual-time breakdown of one synthetic run per method and phase; used
/// to calibrate the cost model (EXPERIMENTS.md documents the constants).
pub fn breakdown(args: &Args) -> Json {
    let nprocs = args.usize("procs");
    let calib = Calib::paper(args.int("scale"));
    let p = synth_params(&calib, args.usize("len"), 1);
    let len_real = p.accesses();
    let bytes_real = p.file_size(nprocs);
    println!(
        "P={nprocs}, LEN_real={len_real}, file_real={} B (virtual {}), segment_real={} B",
        bytes_real,
        calib.fmt_virtual(bytes_real),
        calib.segment_size
    );

    let cfgs = Configs {
        tcio: Some(tcio_config(&calib, &p, nprocs)),
        ..Default::default()
    };
    let mut runs = Vec::new();
    for method in [Method::Tcio, Method::Ocio] {
        for phase in ["write", "read"] {
            // Always write first (so reads have data); time only `phase`.
            let job = Job::new(&calib, nprocs);
            let run = job.run(|rk, fs| {
                let w = synthetic::run(Direction::Write, method, rk, fs, &p, "/d", &cfgs)?;
                if phase == "write" {
                    return Ok(w.elapsed);
                }
                let r = synthetic::run(Direction::Read, method, rk, fs, &p, "/d", &cfgs)?;
                Ok(r.elapsed)
            });
            let rep = run.expect("run");
            let elapsed = rep.results[0];
            let tput = calib.throughput_mbs(bytes_real, elapsed);
            let reg = job.export(&rep);
            println!(
                "\n{} {phase}: {elapsed:.3}s virtual → {tput:.0} MB/s (paper-equivalent)",
                method.label(),
            );
            for (name, n) in reg.counters().filter(|&(_, n)| n > 0) {
                println!("  {name:<36} {n}");
            }
            let (counters, hists) = registry_json(&reg);
            runs.push(
                Json::obj()
                    .with("method", Json::str(method.label()))
                    .with("phase", Json::str(phase))
                    .with("elapsed_s", Json::num(elapsed))
                    .with("throughput_mbs", Json::num(tput))
                    .with("counters", counters)
                    .with("hists", hists),
            );
        }
    }
    Json::obj()
        .with("bench", Json::str("diag_breakdown"))
        .with("procs", Json::num(nprocs as f64))
        .with("len_real", Json::num(len_real as f64))
        .with("file_real_bytes", Json::num(bytes_real as f64))
        .with("runs", Json::Arr(runs))
}

/// Phase timestamps inside one TCIO write, to locate where virtual time
/// accumulates.
pub fn phase(args: &Args) -> Json {
    let nprocs = args.usize("procs");
    let calib = Calib::paper(args.int("scale"));
    let p = synth_params(&calib, args.usize("len"), 1);
    let (len, block) = (p.accesses(), p.block_size());
    let tcfg = tcio_config(&calib, &p, nprocs);

    let run = Job::new(&calib, nprocs).run(|rk, fs| {
        rk.barrier()?;
        let t0 = rk.now();
        let mut f = TcioFile::open(rk, fs, "/p", TcioMode::Write, tcfg.clone())?;
        let t_open = rk.now();
        let data = vec![rk.rank() as u8; block];
        for i in 0..len {
            let off = ((i * rk.nprocs() + rk.rank()) * block) as u64;
            f.write_at(rk, off, &data)?;
        }
        let t_loop = rk.now();
        let stats = f.close(rk)?;
        let t_close = rk.now();
        Ok((
            t_open - t0,
            t_loop - t_open,
            t_close - t_loop,
            stats.flushes,
        ))
    });
    let rep = run.expect("run");
    let (open, mut lp, mut close, mut flushes) = (rep.results[0].0, 0.0f64, 0.0f64, 0u64);
    let mut lp_min = f64::MAX;
    for &(_, l, c, fl) in &rep.results {
        lp = lp.max(l);
        lp_min = lp_min.min(l);
        close = close.max(c);
        flushes = flushes.max(fl);
    }
    println!(
        "open {open:.4}s | write-loop max {lp:.4}s (min {lp_min:.4}s) | close {close:.4}s | flushes/rank {flushes}"
    );
    println!(
        "per-flush cost (loop/flushes): {:.1} us",
        lp / flushes as f64 * 1e6
    );
    Json::obj()
        .with("bench", Json::str("diag_phase"))
        .with("procs", Json::num(nprocs as f64))
        .with("open_s", Json::num(open))
        .with("loop_max_s", Json::num(lp))
        .with("loop_min_s", Json::num(lp_min))
        .with("close_s", Json::num(close))
        .with("flushes_per_rank", Json::num(flushes as f64))
        .with("per_flush_us", Json::num(lp / flushes as f64 * 1e6))
}

/// Clock progression through a TCIO lazy-read loop.
pub fn read(args: &Args) -> Json {
    let nprocs = args.usize("procs");
    let calib = Calib::paper(args.int("scale"));
    let p = synth_params(&calib, args.usize("len"), 1);
    let tcfg = tcio_config(&calib, &p, nprocs);

    let run = Job::new(&calib, nprocs).run(|rk, fs| {
        synthetic::write_tcio(rk, fs, &p, "/r", Some(tcfg.clone()))?;
        rk.barrier()?;
        let t0 = rk.now();
        let block = p.block_size();
        let me = rk.rank();
        let n = p.accesses();
        let mut buf = vec![0u8; n * block];
        let mut marks = Vec::new();
        let mut f = TcioFile::open(rk, fs, "/r", TcioMode::Read, tcfg.clone())?;
        let t_open = rk.now();
        let mut rest = buf.as_mut_slice();
        for i in 0..n {
            let off = ((i * rk.nprocs() + me) * block) as u64;
            let (piece, tail) = rest.split_at_mut(block);
            rest = tail;
            f.read_at(rk, off, piece)?;
            if me == 0 && (i < 16 || i % (n / 8).max(1) == 0) {
                marks.push((i, rk.now() - t_open));
            }
        }
        let t_loop = rk.now();
        f.fetch(rk)?;
        let t_fetch = rk.now();
        let stats = f.close(rk)?;
        let t_close = rk.now();
        if me == 0 {
            eprintln!("rank0 marks (access, loop seconds): {marks:?}");
            eprintln!(
                "rank0: open {:.4}s loop {:.4}s fetch {:.4}s close {:.4}s | loads {} reqs {}",
                t_open - t0,
                t_loop - t_open,
                t_fetch - t_loop,
                t_close - t_fetch,
                stats.loads,
                stats.read_requests
            );
        }
        Ok((t_loop - t_open, stats.loads))
    });
    let rep = run.expect("run");
    let max_loop = rep.results.iter().map(|r| r.0).fold(0.0f64, f64::max);
    let min_loop = rep.results.iter().map(|r| r.0).fold(f64::MAX, f64::min);
    let loads: u64 = rep.results.iter().map(|r| r.1).sum();
    println!("read loop max {max_loop:.4}s min {min_loop:.4}s | total loads {loads}");
    Json::obj()
        .with("bench", Json::str("diag_read"))
        .with("procs", Json::num(nprocs as f64))
        .with("loop_max_s", Json::num(max_loop))
        .with("loop_min_s", Json::num(min_loop))
        .with("total_loads", Json::num(loads as f64))
        .with(
            "per_rank_loop_s",
            Json::Arr(rep.results.iter().map(|r| Json::num(r.0)).collect()),
        )
}

/// Run the interleaved-arrays workload with tracing on, print the
/// per-phase breakdown and per-OST histogram, and export a Chrome
/// `trace_event` JSON per method (load it at chrome://tracing or
/// ui.perfetto.dev).
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
        let (rep, osts) =
            run_traced_synth(&calib, nprocs, len, size_access, method, engine.clone());
        let report = TraceReport::new(&rep.traces).with_osts(osts);

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
                .with("chrome_trace", Json::str(&path)),
        );
    }
    Json::obj()
        .with("bench", Json::str("diag_trace"))
        .with("procs", Json::num(nprocs as f64))
        .with("methods", by_method)
}
