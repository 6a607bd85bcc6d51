//! Quickstart: the TCIO API in its simplest form.
//!
//! Four simulated MPI ranks write an interleaved shared file through
//! POSIX-like TCIO calls — no application-level buffers, no derived
//! datatypes, no file views — then read it back lazily and verify.
//!
//! Run with: `cargo run --example quickstart`

use std::sync::Arc;
use tcio::{TcioConfig, TcioFile, TcioMode};

fn main() {
    const NPROCS: usize = 4;
    const BLOCK: usize = 1024; // bytes per block
    const BLOCKS_PER_RANK: usize = 16;

    // The simulated parallel file system (Lustre-like: 1 MB stripes over
    // 30 OSTs) shared by all ranks.
    let fs = pfs::Pfs::new(NPROCS, pfs::PfsConfig::default()).expect("pfs");
    let file_size = (NPROCS * BLOCKS_PER_RANK * BLOCK) as u64;

    // --- Write phase -----------------------------------------------------
    let fs_w = Arc::clone(&fs);
    let report = mpisim::run(NPROCS, mpisim::SimConfig::default(), move |rk| {
        let cfg = TcioConfig::for_file_size(file_size, rk.nprocs());
        let mut f = TcioFile::open(rk, &fs_w, "/quickstart.dat", TcioMode::Write, cfg)?;
        // The classic collective-I/O-friendly pattern: each rank owns every
        // P-th block of the file (small noncontiguous interleaved writes).
        let payload = vec![rk.rank() as u8 + 1; BLOCK];
        for i in 0..BLOCKS_PER_RANK {
            let offset = ((i * rk.nprocs() + rk.rank()) * BLOCK) as u64;
            f.write_at(rk, offset, &payload)?;
        }
        let stats = f.close(rk)?;
        Ok(stats)
    })
    .expect("write phase");
    println!(
        "write phase: {:.3} ms virtual time, {} level-1 flushes across ranks",
        report.makespan * 1e3,
        report.results.iter().map(|s| s.flushes).sum::<u64>()
    );

    // --- Read phase (lazy) -----------------------------------------------
    let fs_r = Arc::clone(&fs);
    let report = mpisim::run(NPROCS, mpisim::SimConfig::default(), move |rk| {
        let cfg = TcioConfig::for_file_size(file_size, rk.nprocs());
        let mut buf = vec![0u8; BLOCK * BLOCKS_PER_RANK];
        {
            let mut f = TcioFile::open(rk, &fs_r, "/quickstart.dat", TcioMode::Read, cfg)?;
            // Lazy reads: these calls only record (offset, destination)…
            let mut rest = buf.as_mut_slice();
            for i in 0..BLOCKS_PER_RANK {
                let offset = ((i * rk.nprocs() + rk.rank()) * BLOCK) as u64;
                let (piece, tail) = rest.split_at_mut(BLOCK);
                rest = tail;
                f.read_at(rk, offset, piece)?;
            }
            // …and the data actually moves here.
            f.fetch(rk)?;
            f.close(rk)?;
        }
        // Verify: every byte must be this rank's marker.
        let marker = rk.rank() as u8 + 1;
        assert!(
            buf.iter().all(|&b| b == marker),
            "rank {} read back foreign data",
            rk.rank()
        );
        Ok(buf.len())
    })
    .expect("read phase");
    println!(
        "read phase:  {:.3} ms virtual time, {} bytes verified per rank",
        report.makespan * 1e3,
        report.results[0]
    );
    println!("quickstart OK");
}
