//! Tenant job bodies: the three I/O styles a facility serves at once.
//!
//! Every job writes (and optionally reads back) one interleaved file of
//! `group_size × bytes_per_rank` bytes: global block `i` (of `access`
//! bytes, at offset `i × access`) belongs to group rank `i % g` — the
//! canonical strided layout of the paper's workloads. The styles differ
//! only in *how* those blocks reach the file system:
//!
//! * [`Style::Independent`] — every rank issues its own strided writes
//!   directly: many small requests, the overhead-bound path.
//! * [`Style::Ocio`] — classic two-phase collective I/O in rounds: a
//!   windowed exchange redistributes blocks to per-round aggregators,
//!   each round closed by a barrier (the collective-wall path).
//! * [`Style::Tcio`] — TCIO-like: ranks buffer everything locally, one
//!   exchange redistributes to contiguous per-rank segments, one large
//!   write each.
//!
//! All collectives run inside the job's communicator (a [`Comm`] over the
//! tenant's ranks, or the world for a single-tenant facility), so
//! many jobs from different tenants advance concurrently in one
//! simulation against one shared file system.
//!
//! File bytes are a pure function of `(tenant, job, offset)` — see
//! [`pattern_byte`] — so any rank can verify any byte it reads back and
//! cross-tenant bleed is detectable by construction.

use crate::burst::BurstBuffer;
use crate::FacilityError;
use mpiio::client::{settle, submit, Direction};
use mpisim::{Comm, Phase, Rank};
use pfs::{FileId, Pfs};

/// How a tenant's jobs perform their I/O.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Style {
    Independent,
    Ocio,
    Tcio,
}

/// One job's shape. `bytes_per_rank` must be a positive multiple of
/// `access` (validated at facility level).
#[derive(Debug, Clone)]
pub struct JobSpec {
    pub file: String,
    pub style: Style,
    pub bytes_per_rank: u64,
    pub access: u64,
    /// Read the rank's own blocks back after the write and verify them.
    pub read_back: bool,
}

/// What one rank contributed to a finished job.
#[derive(Debug, Clone, Copy, Default)]
pub struct JobOutcome {
    pub bytes_written: u64,
    pub bytes_read: u64,
}

/// The deterministic content byte at `off` of `(tenant, job)`'s file.
pub fn pattern_byte(tenant: u32, job: u32, off: u64) -> u8 {
    let mut z =
        (off ^ ((tenant as u64) << 40) ^ ((job as u64) << 24)).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z ^= z >> 29;
    z = z.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    (z >> 56) as u8
}

fn fill_pattern(buf: &mut [u8], tenant: u32, job: u32, base: u64) {
    for (k, b) in buf.iter_mut().enumerate() {
        *b = pattern_byte(tenant, job, base + k as u64);
    }
}

/// Write `data` at `offset`, through the tenant's burst buffer when it
/// has one — one client request either way, waited out under `Phase::Io`.
fn write_span(
    rank: &mut Rank,
    fs: &Pfs,
    bb: Option<&BurstBuffer>,
    id: FileId,
    offset: u64,
    data: &[u8],
) -> Result<(), FacilityError> {
    let write = |rk: &mut Rank, off, _, _| match bb {
        Some(bb) => bb.write_through(fs, id, rk.rank(), off, data, rk.now()),
        None => fs.write_at(id, rk.rank(), off, data, rk.now()),
    };
    let run = [(offset, data.len() as u64)];
    let io = submit(rank, Direction::Write, None, run, write)?;
    rank.with_phase(Phase::Io, |rk| settle(rk, io));
    Ok(())
}

fn read_span(
    rank: &mut Rank,
    fs: &Pfs,
    bb: Option<&BurstBuffer>,
    id: FileId,
    offset: u64,
    buf: &mut [u8],
) -> Result<(), FacilityError> {
    // Burst-buffer reads serve staged bytes at the buffer's own speed, so
    // only direct file-system reads can hedge.
    let run = [(offset, buf.len() as u64)];
    let read = |rk: &mut Rank, off, _, _| match bb {
        Some(bb) => bb.read(fs, id, rk.rank(), off, buf, rk.now()),
        None => fs.read_at_hedged(id, rk.rank(), off, buf, rk.now()),
    };
    let io = submit(rank, Direction::Read, None, run, read)?;
    rank.with_phase(Phase::Io, |rk| settle(rk, io));
    Ok(())
}

/// Run one job on this rank. Collective across the communicator: every
/// member must call with the same spec.
pub fn run_job(
    rank: &mut Rank,
    comm: &Comm,
    fs: &Pfs,
    bb: Option<&BurstBuffer>,
    tenant: u32,
    job: u32,
    spec: &JobSpec,
) -> Result<JobOutcome, FacilityError> {
    let g = comm.size();
    let gr = comm.group_rank();
    let nblocks = (spec.bytes_per_rank / spec.access) as usize;

    // Group leader creates the file; everyone else opens after the
    // barrier publishes it.
    if gr == 0 {
        match fs.create(&spec.file) {
            Ok(_) | Err(pfs::PfsError::AlreadyExists(_)) => {}
            Err(e) => return Err(e.into()),
        }
    }
    rank.barrier_in(comm)?;
    let id = fs.open(&spec.file)?;

    let mut out = JobOutcome::default();
    match spec.style {
        Style::Independent => {
            let mut block = vec![0u8; spec.access as usize];
            for b in 0..nblocks {
                let i = (b * g + gr) as u64;
                let off = i * spec.access;
                fill_pattern(&mut block, tenant, job, off);
                write_span(rank, fs, bb, id, off, &block)?;
                out.bytes_written += spec.access;
            }
        }
        Style::Tcio => {
            out.bytes_written +=
                exchange_rounds(rank, comm, fs, bb, id, tenant, job, spec, nblocks)?;
        }
        Style::Ocio => {
            out.bytes_written += exchange_rounds(
                rank,
                comm,
                fs,
                bb,
                id,
                tenant,
                job,
                spec,
                ocio_window(nblocks),
            )?;
        }
    }
    rank.barrier_in(comm)?;

    if spec.read_back {
        // The hedge token bucket is per read phase, mirroring the
        // per-collective reset the mpiio read paths perform.
        fs.hedge_scope_begin(rank.rank());
        let mut block = vec![0u8; spec.access as usize];
        for b in 0..nblocks {
            let i = (b * g + gr) as u64;
            let off = i * spec.access;
            read_span(rank, fs, bb, id, off, &mut block)?;
            for (k, &byte) in block.iter().enumerate() {
                let want = pattern_byte(tenant, job, off + k as u64);
                if byte != want {
                    return Err(FacilityError::Mismatch(format!(
                        "tenant {tenant} job {job} file {} byte {}: got {byte:#x}, want {want:#x}",
                        spec.file,
                        off + k as u64,
                    )));
                }
            }
            out.bytes_read += spec.access;
        }
        rank.barrier_in(comm)?;
    }
    Ok(out)
}

/// OCIO exchanges in bounded windows (collective rounds); TCIO passes
/// `nblocks` for a single whole-file round.
fn ocio_window(nblocks: usize) -> usize {
    (nblocks / 4).max(1)
}

/// The two-phase core shared by the Ocio and Tcio styles: in each round,
/// redistribute `window` blocks per rank so each rank holds a contiguous
/// slice of the round's region, then write that slice in one request.
/// Returns the bytes this rank wrote. With `window == nblocks` this is a
/// single exchange and one `bytes_per_rank`-sized write per rank (the
/// TCIO shape); smaller windows add per-round barriers (the OCIO shape).
#[allow(clippy::too_many_arguments)]
fn exchange_rounds(
    rank: &mut Rank,
    comm: &Comm,
    fs: &Pfs,
    bb: Option<&BurstBuffer>,
    id: FileId,
    tenant: u32,
    job: u32,
    spec: &JobSpec,
    window: usize,
) -> Result<u64, FacilityError> {
    let g = comm.size();
    let gr = comm.group_rank();
    let nblocks = (spec.bytes_per_rank / spec.access) as usize;
    let acc = spec.access as usize;
    let mut written = 0u64;
    let mut round_start = 0usize;
    while round_start < nblocks {
        let w = window.min(nblocks - round_start);
        let region_base = (round_start * g) as u64 * spec.access;
        // Distribution phase: my blocks j ∈ [round_start, round_start+w)
        // live at global index i = j·g + gr; the round's region is
        // re-sliced into g contiguous chunks of w blocks each, chunk d
        // going to group rank d.
        let mut data: Vec<Vec<u8>> = (0..g).map(|_| Vec::new()).collect();
        let mut block = vec![0u8; acc];
        for j in round_start..round_start + w {
            let i = (j * g + gr) as u64;
            let off = i * spec.access;
            fill_pattern(&mut block, tenant, job, off);
            let rel = j * g + gr - round_start * g;
            let dst = rel / w;
            data[dst].extend_from_slice(&block);
            rank.charge_memcpy(spec.access);
        }
        let mut recvd = rank.alltoallv_burst_in(comm, data)?;
        // Collection phase: assemble my contiguous slice of the region.
        // Slice d covers rel ∈ [d·w, (d+1)·w); block rel came from group
        // rank (rel + round_start·g) % g... i.e. source i % g, and each
        // source's blocks arrive in increasing global order.
        let mut cursors = vec![0usize; g];
        let mut seg = vec![0u8; w * acc];
        for (slot, rel) in (gr * w..(gr + 1) * w).enumerate() {
            let i = round_start * g + rel;
            let src = i % g;
            let c = cursors[src];
            seg[slot * acc..(slot + 1) * acc].copy_from_slice(&recvd[src][c..c + acc]);
            cursors[src] = c + acc;
        }
        for (src, v) in recvd.iter_mut().enumerate() {
            debug_assert_eq!(cursors[src], v.len(), "exchange must be fully consumed");
            v.clear();
        }
        let my_off = region_base + (gr * w) as u64 * spec.access;
        write_span(rank, fs, bb, id, my_off, &seg)?;
        written += seg.len() as u64;
        round_start += w;
        // OCIO's rounds are collectively synchronized; the single TCIO
        // round ends the loop so the barrier costs nothing extra there.
        if round_start < nblocks {
            rank.barrier_in(comm)?;
        }
    }
    Ok(written)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pattern_is_deterministic_and_scoped() {
        assert_eq!(pattern_byte(1, 2, 99), pattern_byte(1, 2, 99));
        // Different tenants/jobs/offsets decorrelate (spot checks).
        assert_ne!(pattern_byte(1, 2, 99), pattern_byte(2, 2, 99));
        assert_ne!(pattern_byte(1, 2, 99), pattern_byte(1, 3, 99));
        assert_ne!(pattern_byte(1, 2, 99), pattern_byte(1, 2, 100));
    }

    #[test]
    fn ocio_window_quarters_and_floors() {
        assert_eq!(ocio_window(16), 4);
        assert_eq!(ocio_window(3), 1);
        assert_eq!(ocio_window(1), 1);
    }
}
