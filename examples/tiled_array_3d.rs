//! A 3-D domain decomposition writing a shared file — the access pattern
//! from the paper's introduction (Fig. 1): SCEC-style slabs and S3D-style
//! cubes mapped onto a one-dimensional file in x,y,z order.
//!
//! With a cube decomposition, every process owns one row per (y, z) pair
//! of its box: many small strided file blocks, interleaved with every
//! other process — exactly where collective aggregation pays off. The
//! example writes the same 3-D field both ways through TCIO, reads a slab
//! back, and verifies.
//!
//! Run with: `cargo run --example tiled_array_3d`

use std::sync::Arc;
use tcio::{TcioConfig, TcioFile, TcioMode};
use workloads::decomp::{cube_extents, slab_extents, Grid3};

/// Deterministic cell payload so readers can verify writers.
fn cell_bytes(offset: u64, len: usize) -> Vec<u8> {
    (0..len as u64)
        .map(|i| (((offset + i).wrapping_mul(0x9E37_79B9)) >> 24) as u8)
        .collect()
}

fn main() {
    // An 32×16×16 grid of 64-byte cells → an 8 MiB shared file.
    let grid = Grid3 {
        nx: 32,
        ny: 16,
        nz: 16,
        cell_bytes: 64,
    };
    let nprocs = 8; // 2×2×2 cubes
    let fs = pfs::Pfs::new(nprocs, pfs::PfsConfig::default()).expect("pfs");
    println!(
        "3-D field: {}x{}x{} cells x {} B = {} B file, {} procs",
        grid.nx,
        grid.ny,
        grid.nz,
        grid.cell_bytes,
        grid.file_size(),
        nprocs
    );

    // --- Write with the S3D-style cube decomposition ---------------------
    let fs_w = Arc::clone(&fs);
    let report = mpisim::run(nprocs, mpisim::SimConfig::default(), move |rk| {
        let cfg = TcioConfig::for_file_size(grid.file_size(), rk.nprocs());
        let mut f = TcioFile::open(rk, &fs_w, "/field.dat", TcioMode::Write, cfg)?;
        let extents = cube_extents(grid, rk.rank(), 2, 2, 2);
        let nruns = extents.len();
        for (off, len) in extents {
            f.write_at(rk, off, &cell_bytes(off, len as usize))?;
        }
        let stats = f.close(rk)?;
        Ok((nruns, stats.flushes))
    })
    .expect("cube write");
    let (nruns, flushes) = report.results[0];
    println!(
        "cube write: each rank wrote {nruns} strided rows; TCIO coalesced them into {flushes} level-1 flushes ({:.3} ms virtual)",
        report.makespan * 1e3
    );

    // --- Read back with the SCEC-style slab decomposition ----------------
    // Different decomposition on read: each rank now owns whole z-planes,
    // which map to one contiguous file extent.
    let fs_r = Arc::clone(&fs);
    let report = mpisim::run(nprocs, mpisim::SimConfig::default(), move |rk| {
        let cfg = TcioConfig::for_file_size(grid.file_size(), rk.nprocs());
        let extents = slab_extents(grid, rk.rank(), rk.nprocs());
        let total: u64 = extents.iter().map(|&(_, l)| l).sum();
        let mut buf = vec![0u8; total as usize];
        {
            let mut f = TcioFile::open(rk, &fs_r, "/field.dat", TcioMode::Read, cfg)?;
            let mut rest = buf.as_mut_slice();
            for &(off, len) in &extents {
                let (piece, tail) = rest.split_at_mut(len as usize);
                rest = tail;
                f.read_at(rk, off, piece)?;
            }
            f.fetch(rk)?;
            f.close(rk)?;
        }
        // Verify against the writer's generator.
        let mut cursor = 0usize;
        for &(off, len) in &extents {
            let expect = cell_bytes(off, len as usize);
            assert_eq!(
                &buf[cursor..cursor + len as usize],
                expect.as_slice(),
                "slab read mismatch at file offset {off}"
            );
            cursor += len as usize;
        }
        Ok(total)
    })
    .expect("slab read");
    println!(
        "slab read: {} B per rank verified against the cube writers ({:.3} ms virtual)",
        report.results[0],
        report.makespan * 1e3
    );
    println!("tiled_array_3d OK — cube-written data is slab-readable byte-for-byte");
}
