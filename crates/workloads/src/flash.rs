//! A FLASH-I/O-style checkpoint kernel.
//!
//! The paper's §I cites the FLASH I/O benchmark \[9\] as the canonical
//! example of an application that must copy data into an application-level
//! buffer before a collective write: FLASH keeps each AMR block as an
//! `(nx+2g) × (ny+2g) × (nz+2g)` array *including guard cells*, but the
//! checkpoint stores only the interior — so the interiors of every block
//! and variable must be extracted (a strided memory pattern) and laid out
//! block-contiguously in the file.
//!
//! Three paths are provided:
//!
//! * **TCIO** — Program-3 style: write each interior row directly with
//!   `write_at`; the library aggregates (no combine buffer, no datatypes);
//! * **OCIO** — extract interiors into a combine buffer using a *subarray
//!   datatype* pack (the honest FLASH recipe), then one collective write;
//! * **vanilla** — one independent write per interior row.
//!
//! All produce byte-identical files, verified on read-back.

use crate::error::{Result, WlError};
use crate::synthetic::{timed, Method, RunMetrics};
use mpiio::PositionedFile;
use mpisim::{Datatype, Named, Order, Rank};
use pfs::Pfs;
use std::sync::Arc;
use tcio::{TcioConfig, TcioFile, TcioMode};

/// FLASH-like block geometry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlashParams {
    /// Interior cells per side (blocks are cubes).
    pub nxb: usize,
    /// Guard-cell layers on each side.
    pub guards: usize,
    /// AMR blocks per process.
    pub blocks_per_rank: usize,
    /// Checkpointed variables per cell.
    pub num_vars: usize,
}

impl FlashParams {
    pub fn validate(&self) -> Result<()> {
        if self.nxb == 0 || self.blocks_per_rank == 0 || self.num_vars == 0 {
            return Err(WlError::Config("FLASH sizes must be positive".into()));
        }
        Ok(())
    }

    /// Cells per side including guards.
    pub fn padded(&self) -> usize {
        self.nxb + 2 * self.guards
    }

    /// Bytes of one in-memory (padded) variable of one block (f64 cells).
    pub fn padded_var_bytes(&self) -> usize {
        self.padded().pow(3) * 8
    }

    /// Bytes of one interior (checkpointed) variable of one block.
    pub fn interior_var_bytes(&self) -> usize {
        self.nxb.pow(3) * 8
    }

    /// Checkpoint bytes per rank.
    pub fn bytes_per_rank(&self) -> u64 {
        (self.blocks_per_rank * self.num_vars * self.interior_var_bytes()) as u64
    }

    pub fn file_size(&self, nprocs: usize) -> u64 {
        self.bytes_per_rank() * nprocs as u64
    }

    /// File offset of `(block b of rank r, var v)`: blocks are laid out
    /// round-robin across ranks (block-major, the collective-I/O-friendly
    /// interleaving), variables consecutive within a block record.
    pub fn var_offset(&self, rank: usize, nprocs: usize, b: usize, v: usize) -> u64 {
        let record = (self.num_vars * self.interior_var_bytes()) as u64;
        ((b * nprocs + rank) as u64) * record + (v * self.interior_var_bytes()) as u64
    }

    /// The subarray datatype selecting a padded block's interior.
    pub fn interior_subarray(&self) -> Datatype {
        let n = self.padded();
        Datatype::subarray(
            vec![n, n, n],
            vec![self.nxb, self.nxb, self.nxb],
            vec![self.guards, self.guards, self.guards],
            Order::C,
            Datatype::named(Named::Double),
        )
        // padded() = nxb + 2 * guards, so start + subsize <= size on every axis.
        .expect("interior fits inside the padded block")
    }
}

/// Deterministic cell value (only interiors are checked; guards get NaN
/// poison so any accidental inclusion is caught).
fn cell(rank: usize, b: usize, v: usize, idx: usize) -> f64 {
    let h = (rank as u64)
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(((b as u64) << 40) ^ ((v as u64) << 32) ^ idx as u64)
        .wrapping_mul(0xFF51_AFD7_ED55_8CCD);
    (h >> 11) as f64 / (1u64 << 53) as f64
}

/// Build one padded in-memory variable, guards poisoned.
fn padded_var(p: &FlashParams, rank: usize, b: usize, v: usize) -> Vec<u8> {
    let n = p.padded();
    let g = p.guards;
    let mut out = Vec::with_capacity(p.padded_var_bytes());
    let mut interior_idx = 0usize;
    for z in 0..n {
        for y in 0..n {
            for x in 0..n {
                let inside = (g..g + p.nxb).contains(&x)
                    && (g..g + p.nxb).contains(&y)
                    && (g..g + p.nxb).contains(&z);
                let val = if inside {
                    let v = cell(rank, b, v, interior_idx);
                    interior_idx += 1;
                    v
                } else {
                    f64::NAN // guard poison
                };
                out.extend_from_slice(&val.to_le_bytes());
            }
        }
    }
    out
}

/// The expected interior bytes of `(rank, block, var)` in file order.
fn interior_bytes(p: &FlashParams, rank: usize, b: usize, v: usize) -> Vec<u8> {
    let mut out = Vec::with_capacity(p.interior_var_bytes());
    for idx in 0..p.nxb.pow(3) {
        out.extend_from_slice(&cell(rank, b, v, idx).to_le_bytes());
    }
    out
}

/// The POSIX-like checkpoint loop: write each interior row directly — no
/// combine buffer, no datatypes — through whichever handle `open` makes.
fn write_interior_rows<'b, F: PositionedFile<'b>>(
    rk: &mut Rank,
    p: &FlashParams,
    open: impl FnOnce(&mut Rank) -> Result<F, F::Error>,
) -> Result<(), F::Error> {
    let (me, nprocs) = (rk.rank(), rk.nprocs());
    let mut f = open(rk)?;
    let n = p.padded();
    let row = p.nxb * 8;
    for b in 0..p.blocks_per_rank {
        for v in 0..p.num_vars {
            let var = padded_var(p, me, b, v);
            let mut file_off = p.var_offset(me, nprocs, b, v);
            for z in p.guards..p.guards + p.nxb {
                for y in p.guards..p.guards + p.nxb {
                    let at = ((z * n + y) * n + p.guards) * 8;
                    f.write_at(rk, file_off, &var[at..at + row])?;
                    file_off += row as u64;
                }
            }
        }
    }
    f.close(rk)?;
    Ok(())
}

/// Checkpoint with the chosen method.
pub fn checkpoint(
    rank: &mut Rank,
    pfs: &Arc<Pfs>,
    p: &FlashParams,
    method: Method,
    path: &str,
) -> Result<RunMetrics> {
    p.validate()?;
    let (me, nprocs) = (rank.rank(), rank.nprocs());
    // In-memory state: padded blocks × vars (accounted).
    let _mem = rank.alloc((p.blocks_per_rank * p.num_vars * p.padded_var_bytes()) as u64)?;
    let (metrics, ()) = timed(rank, p.bytes_per_rank(), |rk| {
        match method {
            Method::Tcio => write_interior_rows(rk, p, |rk| {
                let tcfg = TcioConfig::for_file_size(p.file_size(nprocs), nprocs);
                TcioFile::open(rk, pfs, path, TcioMode::Write, tcfg)
            })?,
            Method::Vanilla => write_interior_rows(rk, p, |rk| {
                mpiio::File::open(rk, pfs, path, mpiio::Mode::WriteOnly)
            })?,
            Method::Ocio => {
                // The FLASH recipe: pack interiors via the subarray type
                // into a combine buffer, then one collective write of the
                // rank's whole contribution.
                let sub = p.interior_subarray().commit();
                let _combine = rk.alloc(p.bytes_per_rank())?;
                let mut buffer = Vec::with_capacity(p.bytes_per_rank() as usize);
                for b in 0..p.blocks_per_rank {
                    for v in 0..p.num_vars {
                        let var = padded_var(p, me, b, v);
                        buffer.extend_from_slice(&sub.pack(&var, 1).map_err(WlError::Mpi)?);
                    }
                }
                rk.charge_memcpy(buffer.len() as u64);
                let mut f = mpiio::File::open(rk, pfs, path, mpiio::Mode::WriteOnly)?;
                // View: one record per block, strided across ranks.
                let record = p.num_vars * p.interior_var_bytes();
                let etype = Datatype::contiguous(record, Datatype::named(Named::Byte)).commit();
                let ftype = Datatype::vector(
                    p.blocks_per_rank,
                    1,
                    nprocs as isize,
                    etype.datatype().clone(),
                )
                .commit();
                f.set_view(rk, (me * record) as u64, &etype, &ftype)?;
                mpiio::write_all_at(rk, &mut f, 0, &buffer, &mpiio::CollectiveConfig::default())?;
                f.close(rk)?;
            }
        }
        Ok(())
    })?;
    Ok(metrics)
}

/// Read the checkpoint back (TCIO lazy reads) and verify the interiors.
pub fn verify_checkpoint(
    rank: &mut Rank,
    pfs: &Arc<Pfs>,
    p: &FlashParams,
    path: &str,
) -> Result<RunMetrics> {
    p.validate()?;
    let nprocs = rank.nprocs();
    let me = rank.rank();
    let var_bytes = p.interior_var_bytes();
    let total = p.bytes_per_rank() as usize;
    let _mem = rank.alloc(total as u64)?;
    let mut arena = vec![0u8; total];
    let (metrics, ()) = timed(rank, p.bytes_per_rank(), |rk| {
        let cfg = TcioConfig::for_file_size(p.file_size(nprocs), nprocs);
        let mut f = TcioFile::open(rk, pfs, path, TcioMode::Read, cfg)?;
        let mut rest = arena.as_mut_slice();
        for b in 0..p.blocks_per_rank {
            for v in 0..p.num_vars {
                let (dst, tail) = rest.split_at_mut(var_bytes);
                rest = tail;
                f.read_at(rk, p.var_offset(me, nprocs, b, v), dst)?;
            }
        }
        f.close(rk)?;
        Ok(())
    })?;
    let mut pos = 0usize;
    for b in 0..p.blocks_per_rank {
        for v in 0..p.num_vars {
            let expect = interior_bytes(p, me, b, v);
            if arena[pos..pos + var_bytes] != expect[..] {
                return Err(WlError::Mismatch(format!(
                    "FLASH rank {me} block {b} var {v} interior differs"
                )));
            }
            pos += var_bytes;
        }
    }
    Ok(metrics)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpisim::SimConfig;
    use pfs::PfsConfig;

    fn params() -> FlashParams {
        FlashParams {
            nxb: 4,
            guards: 2,
            blocks_per_rank: 3,
            num_vars: 2,
        }
    }

    #[test]
    fn geometry() {
        let p = params();
        assert_eq!(p.padded(), 8);
        assert_eq!(p.interior_var_bytes(), 64 * 8);
        assert_eq!(p.padded_var_bytes(), 512 * 8);
        assert_eq!(p.bytes_per_rank(), 3 * 2 * 512);
        // Interiors are a subarray of size nxb³ doubles.
        let sub = p.interior_subarray();
        assert_eq!(sub.size(), p.interior_var_bytes());
        assert_eq!(sub.extent(), p.padded_var_bytes());
    }

    #[test]
    fn var_offsets_partition_the_file() {
        let p = params();
        let nprocs = 3;
        let total = p.file_size(nprocs);
        let var = p.interior_var_bytes() as u64;
        let mut seen = vec![false; (total / var) as usize];
        for r in 0..nprocs {
            for b in 0..p.blocks_per_rank {
                for v in 0..p.num_vars {
                    let off = p.var_offset(r, nprocs, b, v);
                    assert_eq!(off % var, 0);
                    let slot = (off / var) as usize;
                    assert!(!seen[slot], "overlap at {off}");
                    seen[slot] = true;
                }
            }
        }
        assert!(seen.iter().all(|&b| b));
    }

    #[test]
    fn guard_cells_are_poisoned_and_interiors_deterministic() {
        let p = params();
        let var = padded_var(&p, 0, 0, 0);
        // A corner guard cell must be NaN.
        let corner = f64::from_le_bytes(var[0..8].try_into().unwrap());
        assert!(corner.is_nan());
        // The first interior cell matches the generator.
        let n = p.padded();
        let first_interior = ((p.guards * n + p.guards) * n + p.guards) * 8;
        let got = f64::from_le_bytes(var[first_interior..first_interior + 8].try_into().unwrap());
        assert_eq!(got, cell(0, 0, 0, 0));
    }

    fn run_checkpoint(method: Method) -> Vec<u8> {
        let p = params();
        let fs = Pfs::new(3, PfsConfig::default()).unwrap();
        let fs2 = Arc::clone(&fs);
        mpisim::run(3, SimConfig::default(), move |rk| {
            checkpoint(rk, &fs2, &p, method, "/flash")?;
            verify_checkpoint(rk, &fs2, &p, "/flash")?;
            Ok(())
        })
        .unwrap();
        let fid = fs.open("/flash").unwrap();
        fs.snapshot_file(fid).unwrap()
    }

    #[test]
    fn tcio_checkpoint_roundtrips() {
        let bytes = run_checkpoint(Method::Tcio);
        assert_eq!(bytes.len() as u64, params().file_size(3));
        // No guard poison leaked into the checkpoint.
        for chunk in bytes.chunks_exact(8) {
            assert!(!f64::from_le_bytes(chunk.try_into().unwrap()).is_nan());
        }
    }

    #[test]
    fn ocio_checkpoint_roundtrips() {
        run_checkpoint(Method::Ocio);
    }

    #[test]
    fn vanilla_checkpoint_roundtrips() {
        run_checkpoint(Method::Vanilla);
    }

    #[test]
    fn all_methods_produce_identical_checkpoints() {
        let a = run_checkpoint(Method::Tcio);
        let b = run_checkpoint(Method::Ocio);
        let c = run_checkpoint(Method::Vanilla);
        assert_eq!(a, b, "TCIO vs OCIO");
        assert_eq!(b, c, "OCIO vs vanilla");
    }
}
