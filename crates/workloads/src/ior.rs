//! An IOR-style parameterized I/O kernel.
//!
//! The paper's §I cites IOR (and the FLASH I/O benchmark) as examples of
//! applications that must maintain application-level buffers to use
//! collective I/O \[10\]. This module provides the classic IOR access
//! geometry — `segments × blocks × transfers` against a shared file, in
//! *segmented* or *strided* ordering — runnable over TCIO, OCIO, or
//! independent MPI-IO, with byte-exact verification. It doubles as a
//! second, independent pattern generator for stress-testing the stack
//! beyond the paper's own benchmark.
//!
//! File geometry (IOR conventions):
//!
//! * **Segmented**: the file is `segments` repetitions of `P` consecutive
//!   per-rank blocks — rank r's data in segment s is one contiguous block
//!   at `(s·P + r) · block_size`.
//! * **Strided**: each block is itself split into `transfers` that
//!   interleave across ranks — transfer t of rank r in segment s lives at
//!   `s·P·B + t·P·X + r·X` (X = transfer size), the Fig. 1 pattern.

use crate::error::{Result, WlError};
use crate::synthetic::{timed, Method, RunMetrics};
use mpiio::PositionedFile;
use mpisim::Rank;
use pfs::Pfs;
use std::sync::Arc;
use tcio::{TcioConfig, TcioFile, TcioMode};

/// IOR-style geometry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IorParams {
    /// Independent repetitions of the whole per-rank pattern.
    pub segments: usize,
    /// Bytes each rank contributes per segment.
    pub block_size: u64,
    /// Bytes per I/O call; must divide `block_size`.
    pub transfer_size: u64,
    /// Strided (interleaved transfers) or segmented (contiguous blocks).
    pub strided: bool,
}

impl IorParams {
    pub fn validate(&self) -> Result<()> {
        if self.segments == 0 || self.block_size == 0 || self.transfer_size == 0 {
            return Err(WlError::Config("IOR sizes must be positive".into()));
        }
        if !self.block_size.is_multiple_of(self.transfer_size) {
            return Err(WlError::Config(format!(
                "transfer size {} must divide block size {}",
                self.transfer_size, self.block_size
            )));
        }
        Ok(())
    }

    pub fn transfers_per_block(&self) -> u64 {
        self.block_size / self.transfer_size
    }

    pub fn bytes_per_rank(&self) -> u64 {
        self.segments as u64 * self.block_size
    }

    pub fn file_size(&self, nprocs: usize) -> u64 {
        self.bytes_per_rank() * nprocs as u64
    }

    /// File offset of transfer `t` of segment `s` for `rank` of `nprocs`.
    pub fn offset(&self, rank: usize, nprocs: usize, s: usize, t: u64) -> u64 {
        let (b, x) = (self.block_size, self.transfer_size);
        let p = nprocs as u64;
        let r = rank as u64;
        if self.strided {
            s as u64 * p * b + t * p * x + r * x
        } else {
            (s as u64 * p + r) * b + t * x
        }
    }
}

/// Deterministic transfer content.
fn fill(rank: usize, s: usize, t: u64, len: usize) -> Vec<u8> {
    (0..len as u64)
        .map(|i| {
            ((rank as u64)
                .wrapping_mul(0x9E37_79B9)
                .wrapping_add((s as u64) << 32)
                .wrapping_add(t << 16)
                .wrapping_add(i)
                .wrapping_mul(0xFF51_AFD7_ED55_8CCD)
                >> 56) as u8
        })
        .collect()
}

/// The POSIX-like write loop: one positioned write per transfer, through
/// whichever handle `open` makes.
fn write_transfers<'b, F: PositionedFile<'b>>(
    rk: &mut Rank,
    p: &IorParams,
    open: impl FnOnce(&mut Rank) -> Result<F, F::Error>,
) -> Result<(), F::Error> {
    let (me, nprocs) = (rk.rank(), rk.nprocs());
    let mut f = open(rk)?;
    for s in 0..p.segments {
        for t in 0..p.transfers_per_block() {
            let data = fill(me, s, t, p.transfer_size as usize);
            f.write_at(rk, p.offset(me, nprocs, s, t), &data)?;
        }
    }
    f.close(rk)?;
    Ok(())
}

/// The POSIX-like read loop: one positioned read per transfer, back to
/// back into `arena` (a lazy handle fills it by `close`).
fn read_transfers<'b, F: PositionedFile<'b>>(
    rk: &mut Rank,
    p: &IorParams,
    arena: &'b mut [u8],
    open: impl FnOnce(&mut Rank) -> Result<F, F::Error>,
) -> Result<(), F::Error> {
    let (me, nprocs) = (rk.rank(), rk.nprocs());
    let mut f = open(rk)?;
    let mut rest = arena;
    for s in 0..p.segments {
        for t in 0..p.transfers_per_block() {
            let (piece, tail) = rest.split_at_mut(p.transfer_size as usize);
            rest = tail;
            f.read_at(rk, p.offset(me, nprocs, s, t), piece)?;
        }
    }
    f.close(rk)?;
    Ok(())
}

/// Write the IOR pattern with the chosen method.
pub fn write(
    rank: &mut Rank,
    pfs: &Arc<Pfs>,
    p: &IorParams,
    method: Method,
    path: &str,
) -> Result<RunMetrics> {
    p.validate()?;
    let (me, nprocs) = (rank.rank(), rank.nprocs());
    let _mem = rank.alloc(p.bytes_per_rank())?;
    let (metrics, ()) = timed(rank, p.bytes_per_rank(), |rk| {
        match method {
            Method::Tcio => write_transfers(rk, p, |rk| {
                let tcfg = TcioConfig::for_file_size(p.file_size(nprocs), nprocs);
                TcioFile::open(rk, pfs, path, TcioMode::Write, tcfg)
            })?,
            Method::Vanilla => write_transfers(rk, p, |rk| {
                mpiio::File::open(rk, pfs, path, mpiio::Mode::WriteOnly)
            })?,
            Method::Ocio => {
                // One collective call per segment: each rank contributes
                // its whole block (IOR's collective mode).
                let mut f = mpiio::File::open(rk, pfs, path, mpiio::Mode::WriteOnly)?;
                let ccfg = mpiio::CollectiveConfig::default();
                for s in 0..p.segments {
                    // Combine the segment's transfers into one buffer.
                    let mut buffer = Vec::with_capacity(p.block_size as usize);
                    for t in 0..p.transfers_per_block() {
                        buffer.extend_from_slice(&fill(me, s, t, p.transfer_size as usize));
                    }
                    rk.charge_memcpy(buffer.len() as u64);
                    if p.strided {
                        // View: transfers of X bytes strided P apart.
                        let etype = mpisim::Datatype::contiguous(
                            p.transfer_size as usize,
                            mpisim::Datatype::named(mpisim::Named::Byte),
                        )
                        .commit();
                        let ftype = mpisim::Datatype::vector(
                            p.transfers_per_block() as usize,
                            1,
                            nprocs as isize,
                            etype.datatype().clone(),
                        )
                        .commit();
                        let disp = p.offset(me, nprocs, s, 0);
                        f.set_view(rk, disp, &etype, &ftype)?;
                        mpiio::write_all_at(rk, &mut f, 0, &buffer, &ccfg)?;
                    } else {
                        // Segmented blocks are contiguous: identity view.
                        let et = mpisim::Datatype::named(mpisim::Named::Byte).commit();
                        let ft = mpisim::Datatype::contiguous(
                            1,
                            mpisim::Datatype::named(mpisim::Named::Byte),
                        )
                        .commit();
                        f.set_view(rk, 0, &et, &ft)?;
                        mpiio::write_all_at(
                            rk,
                            &mut f,
                            p.offset(me, nprocs, s, 0),
                            &buffer,
                            &ccfg,
                        )?;
                    }
                }
                f.close(rk)?;
            }
        }
        Ok(())
    })?;
    Ok(metrics)
}

/// Read the IOR pattern back with the chosen method and verify.
pub fn read(
    rank: &mut Rank,
    pfs: &Arc<Pfs>,
    p: &IorParams,
    method: Method,
    path: &str,
) -> Result<RunMetrics> {
    p.validate()?;
    let (me, nprocs) = (rank.rank(), rank.nprocs());
    let x = p.transfer_size as usize;
    let total = p.bytes_per_rank() as usize;
    let _mem = rank.alloc(total as u64)?;
    let mut arena = vec![0u8; total];
    let (metrics, ()) = timed(rank, p.bytes_per_rank(), |rk| {
        match method {
            Method::Tcio => read_transfers(rk, p, &mut arena, |rk| {
                let tcfg = TcioConfig::for_file_size(p.file_size(nprocs), nprocs);
                TcioFile::open(rk, pfs, path, TcioMode::Read, tcfg)
            })?,
            // (OCIO's read path is exercised by the synthetic benchmark;
            // independent reads suffice for IOR here.)
            Method::Vanilla | Method::Ocio => read_transfers(rk, p, &mut arena, |rk| {
                mpiio::File::open(rk, pfs, path, mpiio::Mode::ReadOnly)
            })?,
        }
        Ok(())
    })?;
    // Verify every transfer.
    let mut pos = 0usize;
    for s in 0..p.segments {
        for t in 0..p.transfers_per_block() {
            let expect = fill(me, s, t, x);
            if arena[pos..pos + x] != expect[..] {
                return Err(WlError::Mismatch(format!(
                    "IOR rank {me} segment {s} transfer {t} differs"
                )));
            }
            pos += x;
        }
    }
    Ok(metrics)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpisim::SimConfig;
    use pfs::PfsConfig;

    fn params(strided: bool) -> IorParams {
        IorParams {
            segments: 3,
            block_size: 256,
            transfer_size: 64,
            strided,
        }
    }

    #[test]
    fn geometry_validates() {
        assert!(params(true).validate().is_ok());
        let mut p = params(true);
        p.transfer_size = 100;
        assert!(p.validate().is_err());
        p = params(false);
        p.segments = 0;
        assert!(p.validate().is_err());
    }

    #[test]
    fn offsets_partition_the_file() {
        for strided in [false, true] {
            let p = params(strided);
            let nprocs = 4;
            let mut seen = vec![false; p.file_size(nprocs) as usize / 64];
            for r in 0..nprocs {
                for s in 0..p.segments {
                    for t in 0..p.transfers_per_block() {
                        let off = p.offset(r, nprocs, s, t);
                        assert_eq!(off % 64, 0);
                        let slot = (off / 64) as usize;
                        assert!(!seen[slot], "overlap at {off} (strided={strided})");
                        seen[slot] = true;
                    }
                }
            }
            assert!(seen.iter().all(|&b| b), "holes (strided={strided})");
        }
    }

    #[test]
    fn strided_transfers_interleave() {
        let p = params(true);
        // Consecutive transfers of one rank must be P transfers apart.
        let a = p.offset(1, 4, 0, 0);
        let b = p.offset(1, 4, 0, 1);
        assert_eq!(b - a, 4 * 64);
        // Adjacent ranks are X apart.
        assert_eq!(p.offset(2, 4, 0, 0) - p.offset(1, 4, 0, 0), 64);
    }

    fn roundtrip(method: Method, strided: bool) {
        let p = params(strided);
        let fs = Pfs::new(3, PfsConfig::default()).unwrap();
        let fs2 = Arc::clone(&fs);
        let p2 = p.clone();
        mpisim::run(3, SimConfig::default(), move |rk| {
            write(rk, &fs2, &p2, method, "/ior")?;
            read(rk, &fs2, &p2, method, "/ior")?;
            Ok(())
        })
        .unwrap();
        let fid = fs.open("/ior").unwrap();
        assert_eq!(fs.len(fid).unwrap(), p.file_size(3));
    }

    #[test]
    fn tcio_strided_roundtrip() {
        roundtrip(Method::Tcio, true);
    }

    #[test]
    fn tcio_segmented_roundtrip() {
        roundtrip(Method::Tcio, false);
    }

    #[test]
    fn ocio_strided_roundtrip() {
        roundtrip(Method::Ocio, true);
    }

    #[test]
    fn ocio_segmented_roundtrip() {
        roundtrip(Method::Ocio, false);
    }

    #[test]
    fn vanilla_strided_roundtrip() {
        roundtrip(Method::Vanilla, true);
    }

    #[test]
    fn all_methods_write_identical_ior_files() {
        for strided in [false, true] {
            let p = params(strided);
            let mut snaps = Vec::new();
            for method in [Method::Tcio, Method::Ocio, Method::Vanilla] {
                let fs = Pfs::new(2, PfsConfig::default()).unwrap();
                let fs2 = Arc::clone(&fs);
                let p2 = p.clone();
                mpisim::run(2, SimConfig::default(), move |rk| {
                    write(rk, &fs2, &p2, method, "/i")?;
                    Ok(())
                })
                .unwrap();
                let fid = fs.open("/i").unwrap();
                snaps.push(fs.snapshot_file(fid).unwrap());
            }
            assert_eq!(snaps[0], snaps[1], "TCIO vs OCIO (strided={strided})");
            assert_eq!(snaps[1], snaps[2], "OCIO vs vanilla (strided={strided})");
        }
    }
}
