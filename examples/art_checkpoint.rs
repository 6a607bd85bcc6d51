//! The cosmology use case (§V.C): checkpoint and restart of an ART-style
//! adaptive-refinement simulation — the workload where OCIO *cannot* be
//! used and TCIO shines.
//!
//! Each process owns variable-length segments of root cells; every root
//! cell carries a fully-threaded refinement tree whose shape changed
//! during the run. A snapshot serializes each tree as a self-describing
//! record of many small arrays of different types and sizes (Fig. 8) — a
//! pattern no single MPI derived datatype can describe, so the MPI-IO
//! collective machinery is out of reach and the realistic baseline is
//! independent I/O.
//!
//! The example dumps a snapshot with TCIO and with vanilla MPI-IO,
//! restarts (reads + verifies) from both, and prints the speedups.
//!
//! Run with: `cargo run --release --example art_checkpoint`

use std::sync::Arc;
use workloads::art::{self, ArtConfig, ArtMethod, FttConfig};

fn main() {
    let nprocs = 8;
    let cfg = ArtConfig {
        num_segments: 64,
        mu: 24.0,
        sigma: 4.0,
        seed: 5,
        ftt: FttConfig {
            max_depth: 4,
            refine_prob: 0.25,
            num_vars: 2,
        },
    };
    let plan = art::plan(&cfg);
    println!(
        "ART checkpoint: {} segments, {} root cells total, {} procs",
        cfg.num_segments, plan.total_cells, nprocs
    );
    println!("{:-<60}", "");

    let mut results = Vec::new();
    for method in [ArtMethod::Tcio, ArtMethod::Vanilla] {
        let fs = pfs::Pfs::new(nprocs, pfs::PfsConfig::default()).expect("pfs");
        let fs_d = Arc::clone(&fs);
        let cfg_d = cfg.clone();
        let dump = mpisim::run(nprocs, mpisim::SimConfig::default(), move |rk| {
            Ok(art::dump(rk, &fs_d, &cfg_d, method, "/snapshot.art")?)
        })
        .expect("dump");
        let bytes: u64 = dump.results.iter().map(|m| m.bytes).sum();

        let fs_r = Arc::clone(&fs);
        let cfg_r = cfg.clone();
        let restart = mpisim::run(nprocs, mpisim::SimConfig::default(), move |rk| {
            // `restart` re-reads every record and verifies it byte-for-byte
            // against the generator.
            Ok(art::restart(rk, &fs_r, &cfg_r, method, "/snapshot.art")?)
        })
        .expect("restart");

        let w = dump.results[0].elapsed;
        let r = restart.results[0].elapsed;
        println!(
            "{:>7}: snapshot {:>9} B | dump {:>9.3} ms ({:>7.1} MB/s) | restart {:>9.3} ms ({:>7.1} MB/s)",
            method.label(),
            bytes,
            w * 1e3,
            bytes as f64 / 1e6 / w,
            r * 1e3,
            bytes as f64 / 1e6 / r,
        );
        results.push((w, r));
    }
    println!("{:-<60}", "");
    let (tcio, vanilla) = (&results[0], &results[1]);
    println!(
        "TCIO speedup: {:.1}x on dump, {:.1}x on restart (both restarts verified byte-exact)",
        vanilla.0 / tcio.0,
        vanilla.1 / tcio.1
    );
    println!(
        "(tiny demo problem — the speedup here is inflated; the calibrated Fig. 9/10 numbers \
         come from `cargo run -p bench -- fig9_10_art`)"
    );
}
