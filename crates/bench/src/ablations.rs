//! The single-table ablations of §IV.A and §V.B: TCIO's segment size and
//! design choices, OCIO's collective-buffering hints, and the access-size
//! sweep. Each prints a table and returns it as a document.

use crate::registry::Args;
use crate::runner::{mbs_or_oom, run_synth, synth_params, Cell, Job};
use crate::{fmt_bytes, mbs, Calib, Json, Table};
use mpiio::CollectiveConfig;
use tcio::{ReadMode, SyncMode, TcioConfig};
use workloads::synthetic::{self, Method, SynthParams};

/// The options the four synthetic ablations share.
fn setup(args: &Args) -> (Calib, usize, SynthParams) {
    let calib = Calib::paper(args.int("scale"));
    let p = synth_params(&calib, args.usize("len"), 1);
    (calib, args.usize("procs"), p)
}

/// Ablation: TCIO's level-2 segment size vs the file-system lock
/// granularity.
///
/// §IV.A argues the segment size should equal the stripe (lock) size:
/// smaller segments make processes fight over locked regions; (much)
/// larger segments skew the level-2 load balance and lose write
/// parallelism. This sweep measures TCIO write throughput and the number
/// of PFS lock transfers for segment sizes from stripe/8 to 256×stripe.
pub fn segment_size(args: &Args) -> Json {
    let (calib, nprocs, p) = setup(args);
    let stripe = calib.pfs.stripe_size;
    let bytes_real = p.file_size(nprocs);

    println!(
        "Ablation — TCIO segment size vs lock granularity (stripe = {stripe} real bytes, P={nprocs})\n"
    );
    let mut t = Table::new(vec!["segment/stripe", "write MB/s", "lock transfers"]);
    // Sweep from sub-stripe (lock ping-pong regime) through the stripe
    // (§IV.A's recommendation) into very large segments, where the
    // round-robin level-2 distribution loses its load balance because
    // fewer ranks than P own any segment at all.
    for factor_num in [1u64, 2, 4, 8, 16, 64, 128, 512, 2048] {
        let seg = (stripe * factor_num / 8).max(1);
        let job = Job::new(&calib, nprocs);
        let tcfg = TcioConfig::for_file_size_with_segment(bytes_real, nprocs, seg);
        let write =
            job.run(|rk, fs| Ok(synthetic::write_tcio(rk, fs, &p, "/a", Some(tcfg.clone()))?));
        let tput = calib.throughput_mbs(bytes_real, write.expect("run").results[0].elapsed);
        let locks = job.fs.stats.snapshot().lock_transfers;
        let label = if factor_num >= 8 {
            format!("{}x", factor_num / 8)
        } else {
            format!("1/{}", 8 / factor_num)
        };
        t.row(vec![label, mbs(tput), locks.to_string()]);
    }
    t.print();
    let doc = t.to_json();
    println!("\nexpected shape: sub-stripe segments suffer lock transfers; throughput peaks near segment = stripe");
    doc
}

/// Ablation: the §IV.A design choices inside TCIO.
///
/// * **level-1 combining** (`use_l1`): with it, each window flush is one
///   gathered put (the `MPI_Type_indexed` trick); without it, every block
///   is its own lock/put/unlock epoch — "a large number of network
///   connections, which would in turn degrade the performance".
/// * **lock/unlock vs fence**: `MPI_Win_fence` is collective, forcing all
///   ranks to synchronize on every flush epoch (only even runnable on
///   symmetric workloads like this one).
/// * **lazy vs eager reads**: lazy loading coalesces the reads of a window
///   into one gathered get.
pub fn modes(args: &Args) -> Json {
    let (calib, nprocs, p) = setup(args);
    let bytes = p.file_size(nprocs);

    println!("Ablation — TCIO design choices (P={nprocs}, synthetic workload)\n");
    let mut t = Table::new(vec!["variant", "write MB/s", "read MB/s"]);
    type Variant = (&'static str, fn(&mut TcioConfig));
    let variants: [Variant; 4] = [
        ("default (L1 + lock/unlock + lazy)", |_| {}),
        ("no level-1 combining", |c| c.use_l1 = false),
        ("fence synchronization", |c| c.sync = SyncMode::Fence),
        ("eager reads", |c| c.read_mode = ReadMode::Eager),
    ];
    for (name, mutate) in variants {
        let mut cell = Cell::new(&calib, nprocs, p.clone(), Method::Tcio);
        mutate(&mut cell.tcio);
        let run = cell.run().expect("variant run");
        let (w, r) = (
            calib.throughput_mbs(bytes, run.write_s),
            calib.throughput_mbs(bytes, run.read_s),
        );
        t.row(vec![name.to_string(), mbs(w), mbs(r)]);
        eprintln!("  {name}: w={} r={}", mbs(w), mbs(r));
    }
    t.print();
    let doc = t.to_json();
    println!("\nexpected shape: the default wins; no-L1 collapses on writes; fence pays collective synchronization; eager reads lose coalescing");
    doc
}

/// One OCIO write under `ccfg`: paper-equivalent MB/s and the largest
/// per-rank memory peak, in paper-equivalent bytes.
fn run_cfg(calib: &Calib, nprocs: usize, p: &SynthParams, ccfg: &CollectiveConfig) -> (f64, u64) {
    let write =
        Job::new(calib, nprocs).run(|rk, fs| Ok(synthetic::write_ocio(rk, fs, p, "/cb", ccfg)?));
    let rep = write.expect("run");
    let peak = rep.stats.iter().map(|s| s.mem_peak).max().unwrap_or(0);
    (
        calib.throughput_mbs(p.file_size(nprocs), rep.results[0].elapsed),
        calib.virtual_bytes(peak),
    )
}

/// Ablation: OCIO (two-phase) tuning hints — collective-buffer chunking
/// and aggregator count.
///
/// The paper's memory accounting implies ROMIO buffered each aggregator's
/// whole file domain at once (`cb_buffer = None` here), which is what blows
/// up at 48 GB. ROMIO's real hint set allows a bounded `cb_buffer_size`
/// (multi-round exchange) and fewer aggregators (`cb_nodes`); this sweep
/// shows the throughput/memory trade-off those hints buy.
pub fn cb(args: &Args) -> Json {
    let (calib, nprocs, p) = setup(args);

    println!("Ablation — OCIO collective-buffering hints (P={nprocs})\n");
    let mut t = Table::new(vec!["hints", "write MB/s", "peak mem/proc (virtual)"]);
    let stripe_virtual = calib.pfs.stripe_size; // already scaled
    let configs: Vec<(String, CollectiveConfig)> = vec![
        (
            "unchunked, all aggregators (paper)".into(),
            CollectiveConfig::default(),
        ),
        (
            "cb_buffer = 4 stripes".into(),
            CollectiveConfig {
                cb_buffer: Some(4 * stripe_virtual),
                ..Default::default()
            },
        ),
        (
            "cb_buffer = 1 stripe".into(),
            CollectiveConfig {
                cb_buffer: Some(stripe_virtual),
                ..Default::default()
            },
        ),
        (
            format!("cb_nodes = {}", nprocs / 2),
            CollectiveConfig {
                cb_nodes: Some(nprocs / 2),
                ..Default::default()
            },
        ),
        (
            format!("cb_nodes = {}", nprocs / 4),
            CollectiveConfig {
                cb_nodes: Some((nprocs / 4).max(1)),
                ..Default::default()
            },
        ),
        (
            "stripe-aligned domains".into(),
            CollectiveConfig {
                align: Some(stripe_virtual),
                ..Default::default()
            },
        ),
    ];
    for (name, ccfg) in &configs {
        let (w, peak) = run_cfg(&calib, nprocs, &p, ccfg);
        t.row(vec![name.clone(), mbs(w), fmt_bytes(peak)]);
        eprintln!("  {name}: w={} peak={}", mbs(w), fmt_bytes(peak));
    }
    t.print();
    let doc = t.to_json();
    println!(
        "\nexpected shape: chunking caps memory at the cost of extra exchange rounds; fewer \
         aggregators concentrate memory and serialize the I/O phase."
    );
    doc
}

/// Ablation: access size (Table I's `SIZE_access`).
///
/// §V.B: "Collective I/O improves parallel I/O performance by aggregating
/// large numbers of small and noncontiguous accesses into large fewer
/// ones. Hence, the improvement of collective I/O for large I/O accesses
/// is not evident." The paper fixes SIZE_access = 1 (the worst case for
/// uncoordinated I/O); this sweep varies it and reports all three methods.
/// The expected shape: vanilla MPI-IO closes the gap as accesses grow
/// (fixed per-request costs amortize), while TCIO and OCIO stay at the
/// file-system ceiling throughout.
pub fn access_size(args: &Args) -> Json {
    let nprocs = args.usize("procs");
    let len_virtual = args.usize("len");
    let calib = Calib::paper(args.int("scale"));

    println!(
        "Ablation — SIZE_access sweep (P={nprocs}, LEN={len_virtual} elements/proc)\n\
         (block size per access = 12·SIZE_access bytes virtual)\n"
    );
    let mut t = Table::new(vec!["SIZE_access", "TCIO w", "OCIO w", "MPI-IO w"]);
    for size_access in [1usize, 16, 256, 4096, 65536] {
        let mut cells = vec![size_access.to_string()];
        for method in [Method::Tcio, Method::Ocio, Method::Vanilla] {
            let run = run_synth(&calib, nprocs, len_virtual, size_access, method, false);
            cells.push(mbs_or_oom(run.map(|(w, _r)| w)));
        }
        eprintln!("  SIZE_access={size_access}: {:?}", &cells[1..]);
        t.row(cells);
    }
    t.print();
    let doc = t.to_json();
    println!("\nexpected shape: vanilla MPI-IO catches up as accesses grow; the collective methods sit at the ceiling throughout");
    doc
}
