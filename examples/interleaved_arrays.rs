//! The paper's running example (Fig. 2 / Programs 2 & 3): an application
//! computing on two in-memory arrays — one `int`, one `double` — that must
//! interleave them into a single shared file in round-robin block order.
//!
//! This example runs the *same logical output* three ways and shows what
//! each costs the programmer and the machine:
//!
//! 1. **OCIO (Program 2)** — combine both arrays into an application-level
//!    buffer, build `etype`/`filetype` derived datatypes, set the file
//!    view, and issue one collective write.
//! 2. **TCIO (Program 3)** — just compute each block's offset and call
//!    `write_at`; the library aggregates transparently.
//! 3. **Vanilla MPI-IO** — the same POSIX-like loop without any collective
//!    optimization, for contrast.
//!
//! All three produce byte-identical files; the example prints the virtual
//! time and per-process peak memory of each.
//!
//! Run with: `cargo run --example interleaved_arrays`

use std::sync::Arc;
use workloads::synthetic::{self, Configs, Direction, Method, SynthParams};

fn run(method: Method, nprocs: usize, p: &SynthParams) -> (f64, u64, Vec<u8>) {
    let fs = pfs::Pfs::new(nprocs, pfs::PfsConfig::default()).expect("pfs");
    let fs2 = Arc::clone(&fs);
    let p2 = p.clone();
    let report = mpisim::run(nprocs, mpisim::SimConfig::default(), move |rk| {
        let cfgs = Configs::default();
        let path = "/interleaved.dat";
        let metrics = synthetic::run(Direction::Write, method, rk, &fs2, &p2, path, &cfgs)?;
        Ok(metrics)
    })
    .expect("run");
    let elapsed = report.results[0].elapsed;
    let peak = report.stats.iter().map(|s| s.mem_peak).max().unwrap();
    let fid = fs.open("/interleaved.dat").expect("file exists");
    let bytes = fs.snapshot_file(fid).expect("snapshot");
    (elapsed, peak, bytes)
}

fn main() {
    let nprocs = 8;
    // LEN = 64K elements per array, SIZE_access = 1: each rank issues
    // 128K noncontiguous writes of 4 or 8 bytes.
    let p = SynthParams::with_types("i,d", 1 << 16, 1).expect("params");
    println!(
        "interleaved arrays: {} procs × 2 arrays × {} elements ({} B blocks, {} file)",
        nprocs,
        p.len_array,
        p.block_size(),
        p.file_size(nprocs)
    );
    println!("{:-<64}", "");

    let mut reference: Option<Vec<u8>> = None;
    for method in [Method::Ocio, Method::Tcio, Method::Vanilla] {
        let (elapsed, peak, bytes) = run(method, nprocs, &p);
        let tput = p.file_size(nprocs) as f64 / 1e6 / elapsed;
        println!(
            "{:>7}: {:>9.3} ms virtual, {:>8.1} MB/s, peak {:>7} B/proc",
            method.label(),
            elapsed * 1e3,
            tput,
            peak
        );
        match &reference {
            None => reference = Some(bytes),
            Some(r) => assert_eq!(r, &bytes, "{} produced a different file!", method.label()),
        }
    }
    println!("{:-<64}", "");
    println!("all three methods produced byte-identical files");
    println!(
        "note the programming-effort difference: workloads::synthetic::write_ocio \
         needs the combine buffer + 2 datatypes + a file view; write_tcio is a plain loop \
         (run `cargo run -p bench -- table3_effort` for the measured LoC comparison)"
    );
}
