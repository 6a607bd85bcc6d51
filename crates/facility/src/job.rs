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
use mpisim::{Comm, MpiError, Phase, Rank};
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

/// Multiplier of the pattern's first mixing step.
const C1: u64 = 0x9E37_79B9_7F4A_7C15;
/// Multiplier of the pattern's second mixing step.
const C2: u64 = 0xBF58_476D_1CE4_E5B9;
/// Offsets below this bound are unique within one `(tenant, job)` file, and
/// no bit of the key lies below it (see [`pattern_byte`]).
pub const PATTERN_RUN: u64 = 1 << 24;
/// Jobs per tenant below this bound have distinct patterns.
pub const PATTERN_JOBS: u64 = 1 << 16;

/// The `(tenant, job)` key of a file's pattern: the tenant in bits 40..64,
/// the job in bits 24..56, nothing below bit 24.
fn pattern_key(tenant: u32, job: u32) -> u64 {
    ((tenant as u64) << 40) ^ ((job as u64) << 24)
}

/// The last steps of [`pattern_byte`], from `(off ^ key)·C1`.
#[inline(always)]
fn pattern_mix(z: u64) -> u8 {
    ((z ^ (z >> 29)).wrapping_mul(C2) >> 56) as u8
}

/// The deterministic content byte at `off` of `(tenant, job)`'s file —
/// the definition [`fill_pattern`] streams and the tests check it against.
///
/// The hash input `off ^ key` is distinct for every `(tenant, job, off)`
/// only while `off < 2^24` ([`PATTERN_RUN`]), `job < 2^16`
/// ([`PATTERN_JOBS`]) and `tenant < 2^24`, the three fields then tiling the
/// 64 bits. Past a bound the fields overlap and two files hash the same
/// inputs: job 0 at offset 16 MiB reads as job 1 at offset 0.
/// `FacilityConfig::validate` refuses a tenant whose file or job count
/// crosses a bound, so within a facility no file carries another file's
/// pattern and a byte landing in the wrong file is caught.
pub fn pattern_byte(tenant: u32, job: u32, off: u64) -> u8 {
    pattern_mix((off ^ pattern_key(tenant, job)).wrapping_mul(C1))
}

/// Fill `buf` with the pattern of `(tenant, job)`'s file from offset `base`:
/// byte `k` is `pattern_byte(tenant, job, base + k)`.
///
/// The key has no bit below 24, so inside a [`PATTERN_RUN`]-aligned run of
/// offsets `off ^ key` counts up by one per byte and `(off ^ key)·C1` grows
/// by `C1`: each run starts from one product and steps it by addition, in
/// eight independent lanes, leaving one multiply per byte.
pub fn fill_pattern(buf: &mut [u8], tenant: u32, job: u32, base: u64) {
    let key = pattern_key(tenant, job);
    let (mut off, mut rest) = (base, buf);
    while !rest.is_empty() {
        let left = PATTERN_RUN - (off & (PATTERN_RUN - 1));
        let (run, tail) = rest.split_at_mut(left.min(rest.len() as u64) as usize);
        fill_run(run, (off ^ key).wrapping_mul(C1));
        off += run.len() as u64;
        rest = tail;
    }
}

/// Byte `k` of `run` is `pattern_mix(z + k·C1)`.
fn fill_run(run: &mut [u8], z: u64) {
    let mut lanes: [u64; 8] = std::array::from_fn(|k| z.wrapping_add(C1.wrapping_mul(k as u64)));
    let step = C1.wrapping_mul(8);
    let mut chunks = run.chunks_exact_mut(8);
    for chunk in &mut chunks {
        for (b, lane) in chunk.iter_mut().zip(&mut lanes) {
            *b = pattern_mix(*lane);
            *lane = lane.wrapping_add(step);
        }
    }
    for (b, &lane) in chunks.into_remainder().iter_mut().zip(&lanes) {
        *b = pattern_mix(lane);
    }
}

/// Check one read-back block `got`, read at `off` of `file`, against the
/// pattern, filling `want` (the same length) with the expected bytes. Whole
/// blocks are compared; only a mismatch scans for its first bad byte.
fn check_block(
    got: &[u8],
    want: &mut [u8],
    tenant: u32,
    job: u32,
    file: &str,
    off: u64,
) -> Result<(), FacilityError> {
    fill_pattern(want, tenant, job, off);
    if got == want {
        return Ok(());
    }
    let (k, (byte, want)) = got
        .iter()
        .zip(want.iter())
        .enumerate()
        .find(|(_, (a, b))| a != b)
        .expect("unequal blocks of one length differ somewhere");
    Err(FacilityError::Mismatch(format!(
        "tenant {tenant} job {job} file {file} byte {}: got {byte:#x}, want {want:#x}",
        off + k as u64,
    )))
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
        let mut want = vec![0u8; spec.access as usize];
        for b in 0..nblocks {
            let i = (b * g + gr) as u64;
            let off = i * spec.access;
            read_span(rank, fs, bb, id, off, &mut block)?;
            check_block(&block, &mut want, tenant, job, &spec.file, off)?;
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
        let recvd = rank.alltoallv_burst_in(comm, data)?;
        // Collection phase: assemble my contiguous slice of the region.
        // Slice d covers rel ∈ [d·w, (d+1)·w); block rel came from group
        // rank (rel + round_start·g) % g... i.e. source i % g, and each
        // source's blocks arrive in increasing global order.
        let first = round_start * g + gr * w;
        check_payloads(comm, &recvd, first..first + w, acc)?;
        let mut cursors = vec![0usize; g];
        let mut seg = vec![0u8; w * acc];
        for (slot, i) in (first..first + w).enumerate() {
            let src = i % g;
            let c = cursors[src];
            seg[slot * acc..(slot + 1) * acc].copy_from_slice(&recvd[src][c..c + acc]);
            cursors[src] = c + acc;
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

/// Check that every source delivered exactly the `acc`-byte blocks of
/// `slice` (global block indices, block `i` from group rank `i % g`) before
/// they are collected. On the world communicator a crash-stopped peer's
/// payload comes back empty (the world's shrink semantics): that is
/// `PeerCrashed` on the peer. Any other payload of the wrong length is a
/// collective mismatch.
fn check_payloads(
    comm: &Comm,
    recvd: &[Vec<u8>],
    slice: std::ops::Range<usize>,
    acc: usize,
) -> Result<(), MpiError> {
    let g = comm.size();
    let mut need = vec![0usize; g];
    for i in slice {
        need[i % g] += acc;
    }
    for (src, (v, &n)) in recvd.iter().zip(&need).enumerate() {
        if v.len() == n {
            continue;
        }
        return Err(if v.is_empty() && comm.is_world() {
            MpiError::PeerCrashed {
                rank: comm.world_rank(src),
            }
        } else {
            MpiError::CollectiveMismatch("an exchange payload is not the blocks it owes")
        });
    }
    Ok(())
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

    fn pattern_oracle(tenant: u32, job: u32, base: u64, len: usize) -> Vec<u8> {
        (base..base + len as u64)
            .map(|off| pattern_byte(tenant, job, off))
            .collect()
    }

    #[test]
    fn fill_pattern_is_pattern_byte_byte_for_byte() {
        use rand::{RngExt, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(0x00FA_77E2);
        let mut cases = Vec::new();
        // Every short length, at aligned and unaligned bases and up against
        // a run boundary.
        for len in 0..=17 {
            for base in [0, 1, 7, 13, PATTERN_RUN - 9, PATTERN_RUN - 1] {
                cases.push((3, 5, base, len));
            }
        }
        // Runs that cross one, and two, 2^24 boundaries.
        for len in [2, 9, 64, 1000] {
            cases.push((2, 9, PATTERN_RUN - 5, len));
            cases.push((2, 9, 7 * PATTERN_RUN - 1, len));
        }
        cases.push((1, 1, PATTERN_RUN - 3, PATTERN_RUN as usize + 11));
        // Seeded random tenants, jobs and bases, some against a boundary.
        for _ in 0..300 {
            let tenant = rng.random::<u32>();
            let job = rng.random::<u32>();
            let mut base = rng.random::<u64>() >> 8;
            if rng.random::<bool>() {
                base = (base | (PATTERN_RUN - 1)) - rng.random::<u64>() % 40;
            }
            let len = (rng.random::<u64>() % 3000) as usize;
            cases.push((tenant, job, base, len));
        }
        for (tenant, job, base, len) in cases {
            let mut buf = vec![0xAAu8; len];
            fill_pattern(&mut buf, tenant, job, base);
            assert_eq!(
                buf,
                pattern_oracle(tenant, job, base, len),
                "tenant {tenant} job {job} base {base} len {len}"
            );
        }
    }

    #[test]
    fn the_pattern_is_unique_inside_its_bounds_and_shared_past_them() {
        // Past the offset bound a file reads as the next job's file.
        assert_eq!(
            pattern_oracle(0, 0, PATTERN_RUN, 64),
            pattern_oracle(0, 1, 0, 64)
        );
        // Inside the bounds the three fields tile the 64 bits without
        // overlap: their largest values XOR to all ones.
        let (tenant_max, job_max) = ((1u32 << 24) - 1, (PATTERN_JOBS - 1) as u32);
        let last = PATTERN_RUN - 1;
        assert_eq!(last ^ pattern_key(tenant_max, job_max), u64::MAX);
        assert_eq!(last & pattern_key(tenant_max, job_max), 0);
        assert_eq!(pattern_key(tenant_max, 0) & pattern_key(0, job_max), 0);
    }

    fn mismatch(tenant: u32, job: u32, off: u64, got: u8, want: u8) -> FacilityError {
        FacilityError::Mismatch(format!(
            "tenant {tenant} job {job} file /f byte {off}: got {got:#x}, want {want:#x}"
        ))
    }

    #[test]
    fn a_flipped_byte_is_named_by_its_offset_and_values() {
        let (tenant, job, base, len) = (4, 6, 3 << 16, 4096);
        let mut want = vec![0u8; len];
        let good = pattern_oracle(tenant, job, base, len);
        assert_eq!(
            check_block(&good, &mut want, tenant, job, "/f", base),
            Ok(())
        );
        for k in [0, len / 2, len - 1] {
            let mut got = good.clone();
            got[k] ^= 0x5A;
            assert_eq!(
                check_block(&got, &mut want, tenant, job, "/f", base),
                Err(mismatch(tenant, job, base + k as u64, got[k], good[k])),
                "flipped byte {k}"
            );
        }
    }

    #[test]
    fn ocio_window_quarters_and_floors() {
        assert_eq!(ocio_window(16), 4);
        assert_eq!(ocio_window(3), 1);
        assert_eq!(ocio_window(1), 1);
    }
}
