//! A FLASH-style AMR checkpoint (the paper's reference [9]) written three
//! ways.
//!
//! FLASH keeps each AMR block padded with guard cells; the checkpoint
//! stores only the interiors, block-interleaved across processes. With
//! plain collective MPI-IO this forces the classic dance: extract every
//! interior through a subarray datatype into a combine buffer, build a
//! file view, issue one collective call. With TCIO the application just
//! writes each interior row where it belongs.
//!
//! Run with: `cargo run --release --example flash_checkpoint`

use std::sync::Arc;
use workloads::flash::{self, FlashParams};
use workloads::synthetic::Method;

fn main() {
    let nprocs = 8;
    let p = FlashParams {
        nxb: 8,
        guards: 4,
        blocks_per_rank: 16,
        num_vars: 4,
    };
    println!(
        "FLASH-style checkpoint: {} procs × {} blocks × {} vars, {}³ interiors in {}³ padded blocks",
        nprocs, p.blocks_per_rank, p.num_vars, p.nxb, p.padded()
    );
    println!(
        "checkpoint size {} B (in-memory state {} B/proc, {:.0}% of it guard cells)\n",
        p.file_size(nprocs),
        p.blocks_per_rank * p.num_vars * p.padded_var_bytes(),
        100.0 * (1.0 - p.interior_var_bytes() as f64 / p.padded_var_bytes() as f64)
    );

    let mut reference: Option<Vec<u8>> = None;
    for method in [Method::Ocio, Method::Tcio, Method::Vanilla] {
        let fs = pfs::Pfs::new(nprocs, pfs::PfsConfig::default()).expect("pfs");
        let fs2 = Arc::clone(&fs);
        let rep = mpisim::run(nprocs, mpisim::SimConfig::default(), move |rk| {
            let w = flash::checkpoint(rk, &fs2, &p, method, "/chk")?;
            // Every method's checkpoint is read back and verified interior
            // by interior (guard cells are NaN-poisoned in memory, so any
            // leak would be caught).
            flash::verify_checkpoint(rk, &fs2, &p, "/chk")?;
            Ok(w.elapsed)
        })
        .expect("run");
        let elapsed = rep.results[0];
        println!(
            "{:>7}: {:>9.3} ms virtual, {:>8.1} MB/s",
            method.label(),
            elapsed * 1e3,
            p.file_size(nprocs) as f64 / 1e6 / elapsed
        );
        let fid = fs.open("/chk").expect("exists");
        let bytes = fs.snapshot_file(fid).expect("snapshot");
        match &reference {
            None => reference = Some(bytes),
            Some(r) => assert_eq!(r, &bytes, "{} wrote a different checkpoint", method.label()),
        }
    }
    println!("\nall three checkpoints byte-identical; interiors verified, no guard-cell leaks");
}
