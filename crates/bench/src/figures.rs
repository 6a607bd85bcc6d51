//! The paper's figures and tables: Fig. 5, Figs. 6–7, Figs. 9–10,
//! Table III, and the sensitivity analysis behind the Fig. 5 ordering.
//! Each prints the figure's data as a table and returns it as a document
//! (`--json <path>` writes it; a run leaves no other file behind).

use crate::registry::Args;
use crate::runner::{mbs_or_oom, run_art, run_synth, tcio_config, Job};
use crate::{fmt_bytes, mbs, sparkline, Calib, Json, Table};
use workloads::art::{ArtConfig, ArtMethod};
use workloads::synthetic::{self, Configs, Direction, Method, SynthParams};

const VS_OCIO: [&str; 4] = ["TCIO write", "OCIO write", "TCIO read", "OCIO read"];

/// Both collective methods at one scale point, in [`VS_OCIO`] order;
/// `None` is a run that died of a simulated out-of-memory.
fn tcio_vs_ocio(
    calib: &Calib,
    nprocs: usize,
    len: usize,
    size_access: usize,
    budget: bool,
) -> [Option<f64>; 4] {
    let t = run_synth(calib, nprocs, len, size_access, Method::Tcio, budget);
    let o = run_synth(calib, nprocs, len, size_access, Method::Ocio, budget);
    [
        t.map(|t| t.0),
        o.map(|o| o.0),
        t.map(|t| t.1),
        o.map(|o| o.1),
    ]
}

/// Figure 5: synthetic-benchmark throughput vs number of processes.
///
/// Table II configuration: two arrays (int, double) of LEN = 4M elements
/// per process, SIZE_access = 1, P swept 64 → 1024 (weak scaling in data).
/// The paper's findings this reproduces:
///
/// * writes: OCIO wins at small scale (≤256), TCIO wins at ≥512 — the
///   all-to-all exchange burst and per-pair connection growth catch up
///   with OCIO;
/// * reads: TCIO wins throughout and the gap widens with scale.
pub fn fig5_scale(args: &Args) -> Json {
    let scale = args.int("scale");
    let len_virtual = args.usize("len");
    let size_access = args.usize("size-access");
    let calib = Calib::paper(scale);

    println!(
        "Fig. 5 — synthetic benchmark, LEN={len_virtual} elements/proc (scaled 1/{scale}), SIZE_access={size_access}"
    );
    println!("(throughputs in paper-equivalent MB/s)\n");

    let mut table = Table::new([&["procs"][..], &VS_OCIO].concat());
    let mut series: [Vec<f64>; 4] = Default::default();
    for p in args.ints("procs") {
        let row = tcio_vs_ocio(&calib, p, len_virtual, size_access, false);
        for (k, o) in row.iter().enumerate() {
            series[k].push(o.unwrap_or(0.0));
        }
        let [tw, ow, tr, or] = row.map(mbs_or_oom);
        eprintln!("  P={p}: TCIO w={tw} o-w={ow} r={tr} o-r={or}");
        table.row(vec![p.to_string(), tw, ow, tr, or]);
    }
    table.print();
    println!(
        "
shape:  TCIO write {}   OCIO write {}   TCIO read {}   OCIO read {}",
        sparkline(&series[0]),
        sparkline(&series[1]),
        sparkline(&series[2]),
        sparkline(&series[3])
    );
    let doc = table.to_json();
    println!("\nexpected shape: OCIO ahead on writes at small P; TCIO ahead at large P; TCIO ahead on all reads");
    doc
}

/// Figures 6 and 7: throughput vs file size at a fixed 64 processes.
///
/// Table II configuration with LEN swept 1M → 64M elements per process,
/// i.e. file sizes 768 MB → 48 GB. Ranks run under the Lonestar memory
/// budget (24 GB/node ÷ 12 cores = 2 GB/process, scaled with the data):
/// at 48 GB, OCIO must combine 0.75 GB in the application buffer *and*
/// hold a 0.75 GB collective buffer on top of the 0.75 GB arrays — over
/// budget, so the run fails with a simulated out-of-memory, exactly the
/// missing OCIO bar of the paper's Figs. 6/7. TCIO needs only its level-2
/// share plus one 1 MB level-1 buffer and survives.
pub fn fig6_7_filesize(args: &Args) -> Json {
    let scale = args.int("scale");
    let nprocs = args.usize("procs");
    let calib = Calib::paper(scale);

    println!("Figs. 6/7 — file-size sweep at P={nprocs} (scaled 1/{scale}), Lonestar memory budget enforced\n");
    let mut table = Table::new([&["file size"][..], &VS_OCIO].concat());
    // LEN_array = 1M, 4M, 16M, 64M → file sizes 768MB, 3GB, 12GB, 48GB.
    for len in args.ints("lens") {
        let file_virtual = fmt_bytes((len as u64) * 12 * nprocs as u64);
        let [tw, ow, tr, or] = tcio_vs_ocio(&calib, nprocs, len, 1, true).map(mbs_or_oom);
        eprintln!("  {file_virtual}: TCIO w={tw} OCIO w={ow} TCIO r={tr} OCIO r={or}");
        table.row(vec![file_virtual, tw, ow, tr, or]);
    }
    table.print();
    let doc = table.to_json();
    println!("\nexpected shape: OCIO fails with OOM at 48GB on both write and read; TCIO completes everywhere");
    doc
}

/// Figures 9 and 10: the ART cosmology application, TCIO vs vanilla
/// (independent) MPI-IO, strong scaling 64 → 1024 processes.
///
/// The snapshot writes every refinement tree as a self-describing record
/// of many small arrays (Fig. 8); vanilla MPI-IO turns each little array
/// into its own file-system request and collapses (the paper reports TCIO
/// up to 100× faster, with vanilla runs ≥512 procs aborted after 90
/// minutes). TCIO's own curve rises with scale and then dips once the
/// aggregate demand saturates the OST set — the centralized-file-system
/// ceiling the paper discusses.
///
/// ART runs **unscaled** (the byte-scale trick cannot shrink generated
/// tree records); laptop feasibility comes from a reduced mean segment
/// length instead (`--mu`, default 128 vs the paper's 2048 — same segment
/// structure, fewer trees; both methods shrink identically, so the ratio
/// is preserved).
pub fn fig9_10_art(args: &Args) -> Json {
    let mu = args.int("mu") as f64;
    let segments = args.usize("segments");
    let vanilla_max_p = args.usize("vanilla-max-p");
    let calib = Calib::unscaled();
    let cfg = ArtConfig {
        num_segments: segments,
        mu,
        sigma: mu / 16.0,
        ..ArtConfig::default()
    };

    println!(
        "Figs. 9/10 — ART checkpoint dump/restart, {segments} segments, mean {mu} trees/segment (paper: 2048)\n"
    );
    let mut table = Table::new(vec![
        "procs",
        "TCIO write",
        "MPI-IO write",
        "+buf write",
        "TCIO read",
        "MPI-IO read",
        "+buf read",
        "speedup(w)",
        "speedup(r)",
    ]);
    for p in args.ints("procs") {
        let (tw, tr, bytes) = run_art(&calib, p, &cfg, ArtMethod::Tcio);
        let (vw, vr, sw, sr) = if p <= vanilla_max_p {
            let (vw, vr, _) = run_art(&calib, p, &cfg, ArtMethod::Vanilla);
            let (sw, sr, _) = run_art(&calib, p, &cfg, ArtMethod::VanillaBuffered);
            (Some(vw), Some(vr), Some(sw), Some(sr))
        } else {
            (None, None, None, None) // the paper's ">90 minutes, aborted" points
        };
        let cell = |x: Option<f64>| x.map(mbs).unwrap_or_else(|| "DNF".into());
        let speed = |t: f64, v: Option<f64>| {
            v.map(|v| format!("{:.0}x", t / v))
                .unwrap_or_else(|| "-".into())
        };
        table.row(vec![
            p.to_string(),
            mbs(tw),
            cell(vw),
            cell(sw),
            mbs(tr),
            cell(vr),
            cell(sr),
            speed(tw, vw),
            speed(tr, vr),
        ]);
        eprintln!(
            "  P={p}: {} B snapshot, TCIO w={} r={}, MPI-IO w={} r={}, buffered w={} r={}",
            bytes,
            mbs(tw),
            mbs(tr),
            cell(vw),
            cell(vr),
            cell(sw),
            cell(sr)
        );
    }
    table.print();
    let doc = table.to_json();
    println!("\nexpected shape: TCIO 1-2 orders of magnitude above vanilla MPI-IO; TCIO rises then dips as the OST set saturates");
    doc
}

/// The synthetic-benchmark source, for honest line counting.
const SYNTH_SRC: &str = include_str!("../../workloads/src/synthetic.rs");

/// Count the non-blank, non-comment source lines between the
/// `[NAME-begin]` and `[NAME-end]` markers in the workload module — the
/// I/O-essential code of the paper's Program 2 / Program 3 renderings.
fn fn_loc(name: &str) -> usize {
    let begin = format!("[{name}-begin]");
    let end = format!("[{name}-end]");
    let start = SYNTH_SRC
        .find(&begin)
        .unwrap_or_else(|| panic!("{begin} marker not found"));
    let stop = SYNTH_SRC[start..]
        .find(&end)
        .map(|o| start + o)
        .unwrap_or_else(|| panic!("{end} marker not found"));
    SYNTH_SRC[start..stop]
        .lines()
        .skip(1) // the begin-marker line itself
        .filter(|l| {
            let t = l.trim();
            !t.is_empty() && !t.starts_with("//")
        })
        .count()
}

fn peak_multiple(method: Method, nprocs: usize, p: &SynthParams, calib: &Calib) -> f64 {
    let cfgs = Configs {
        tcio: Some(tcio_config(calib, p, nprocs)),
        ..Default::default()
    };
    let write = Job::new(calib, nprocs).run(|rk, fs| {
        Ok(synthetic::run(
            Direction::Write,
            method,
            rk,
            fs,
            p,
            "/m",
            &cfgs,
        )?)
    });
    let peak = write.expect("run").stats.iter().map(|s| s.mem_peak).max();
    peak.unwrap_or(0) as f64 / p.bytes_per_rank() as f64
}

/// Table III + the Programs 2/3 comparison: programming effort, memory
/// efficiency, and the qualitative differences between OCIO and TCIO.
///
/// * **Lines of code** are counted from the actual benchmark
///   implementations in `workloads::synthetic` (the Rust renderings of the
///   paper's Program 2 and Program 3 — the latter the one loop TCIO and
///   vanilla MPI-IO share), excluding comments and blank lines.
/// * **Memory efficiency** is measured: the peak simulated memory per
///   process of each method on the same workload, reported as a multiple
///   of the per-process dataset (the paper's §V.B.2b accounting: OCIO ≈ 3×
///   the data — arrays + combine buffer + collective buffer; TCIO ≈ 2× +
///   one segment).
pub fn table3_effort(_args: &Args) -> Json {
    let calib = Calib::paper(64);
    let p = SynthParams::with_types("i,d", 1 << 16, 1).unwrap();
    let nprocs = 8;

    let ocio_loc = fn_loc("program2");
    let tcio_loc = fn_loc("program3");
    let ocio_peak = peak_multiple(Method::Ocio, nprocs, &p, &calib);
    let tcio_peak = peak_multiple(Method::Tcio, nprocs, &p, &calib);

    println!("Table III — comparison between OCIO and TCIO (measured where possible)\n");
    let mut t = Table::new(vec!["property", "OCIO", "TCIO"]);
    t.row(vec!["application-level buffer", "yes", "no"]);
    t.row(vec!["file view / derived datatypes", "yes", "no"]);
    t.row(vec![
        "benchmark writer LoC (measured)".to_string(),
        ocio_loc.to_string(),
        tcio_loc.to_string(),
    ]);
    t.row(vec![
        "peak memory / per-proc data (measured)".to_string(),
        format!("{ocio_peak:.2}x"),
        format!("{tcio_peak:.2}x"),
    ]);
    t.row(vec![
        "restriction",
        "patterns expressible as MPI datatypes",
        "any POSIX-like pattern",
    ]);
    t.print();
    let doc = t.to_json();
    println!(
        "\nexpected shape: OCIO needs more code ({ocio_loc} vs {tcio_loc} LoC) and more memory ({ocio_peak:.1}x vs {tcio_peak:.1}x the dataset)"
    );
    assert!(ocio_loc > tcio_loc, "Table III LoC claim must hold");
    assert!(ocio_peak > tcio_peak, "Table III memory claim must hold");
    doc
}

fn ratio_at(calib: &Calib, p: usize, len: usize) -> f64 {
    match tcio_vs_ocio(calib, p, len, 1, false) {
        [Some(t), Some(o), ..] if t > 0.0 => o / t,
        _ => f64::NAN,
    }
}

/// Sensitivity analysis: how the Fig. 5 endpoints respond to the two
/// calibration constants that carry the paper's story —
///
/// * `match_overhead` (the burst/unexpected-queue cost that degrades
///   OCIO's exchange quadratically with P),
/// * `rma_lock_cost` (TCIO's per-epoch one-sided overhead).
///
/// `noise_mean` is not swept, and the calibration leaves it at 0: only the
/// pairwise [`mpisim::Rank::alltoallv`] samples it, and neither Fig. 5
/// method calls that — OCIO bursts through `alltoallv_burst_in`, TCIO
/// moves data one-sided.
///
/// For each constant we sweep ×0, ×0.5, ×1, ×2 around the calibrated value
/// and report the OCIO/TCIO write ratio at the smallest and largest scale
/// points. A robust reproduction should keep its *ordering* (OCIO ≥ TCIO at
/// small P, TCIO > OCIO at large P) across moderate perturbations.
pub fn sensitivity(args: &Args) -> Json {
    let scale = args.int("scale");
    let small = args.usize("small");
    let large = args.usize("large");
    let len = args.usize("len");
    let base = Calib::paper(scale);

    println!(
        "Sensitivity of the Fig. 5 write ordering (OCIO/TCIO ratio; >1 = OCIO ahead)\n\
         calibrated: match_overhead={:.0}us rma_lock={:.0}us\n",
        base.net.match_overhead * 1e6,
        base.net.rma_lock_cost * 1e6,
    );

    let mut t = Table::new(vec![
        "constant",
        "multiplier",
        &format!("OCIO/TCIO @P={small}"),
        &format!("OCIO/TCIO @P={large}"),
    ]);
    type Knob = (&'static str, fn(&mut Calib, f64));
    let knobs: [Knob; 2] = [
        ("match_overhead", |c, m| c.net.match_overhead *= m),
        ("rma_lock_cost", |c, m| c.net.rma_lock_cost *= m),
    ];
    for (name, apply) in knobs {
        for mult in [0.0, 0.5, 1.0, 2.0] {
            let mut c = Calib::paper(scale);
            apply(&mut c, mult);
            let rs = ratio_at(&c, small, len);
            let rl = ratio_at(&c, large, len);
            t.row(vec![
                name.to_string(),
                format!("x{mult}"),
                format!("{rs:.2}"),
                format!("{rl:.2}"),
            ]);
            eprintln!("  {name} x{mult}: small {rs:.2}, large {rl:.2}");
        }
    }
    t.print();
    let doc = t.to_json();
    println!("\nexpected shape: the large-P ratio drops below 1 as match_overhead grows; the small-P ratio is insensitive");
    doc
}
