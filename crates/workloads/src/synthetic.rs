//! The synthetic benchmark of §V.B — Table I parameters, and the three
//! implementations compared in the paper:
//!
//! * [`write_ocio`]/[`read_ocio`] — **Program 2**: combine the arrays into
//!   an application-level buffer, build derived datatypes, set the file
//!   view, and issue a single collective MPI-IO call;
//! * [`write_tcio`]/[`read_tcio`] — **Program 3**: POSIX-like TCIO calls,
//!   one per array element group, no buffers, no datatypes, no view;
//! * [`write_vanilla`]/[`read_vanilla`] — plain independent MPI-IO, one
//!   request per noncontiguous block: the *same function* as Program 3
//!   (`write_arrays`/`read_arrays`, generic over [`PositionedFile`]),
//!   handed the other handle. That is what "transparent" means.
//!
//! Every process holds `NUM_array` in-memory arrays (types from
//! `TYPE_array`) of `LEN_array` elements, and the file interleaves
//! fixed-size blocks round-robin across processes: block `b` belongs to
//! rank `b mod P`, and within a block the arrays' elements are laid out
//! consecutively (`SIZE_access` elements of array 0, then of array 1, …).
//!
//! All three implementations produce byte-identical files, which the read
//! drivers verify against the deterministic data generator.

use crate::error::{Result, WlError};
pub use mpiio::client::Direction;
use mpiio::PositionedFile;
use mpisim::{Datatype, MemGuard, Named, Rank};
use pfs::Pfs;
use std::sync::Arc;
use tcio::{TcioConfig, TcioFile, TcioMode};

/// Which I/O implementation to run (Table I's `method`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Method {
    /// Original collective I/O (ROMIO-style two-phase) — Program 2.
    Ocio,
    /// Transparent collective I/O — Program 3.
    Tcio,
    /// Independent MPI-IO, one request per block.
    Vanilla,
}

impl Method {
    pub fn label(self) -> &'static str {
        match self {
            Method::Ocio => "OCIO",
            Method::Tcio => "TCIO",
            Method::Vanilla => "MPI-IO",
        }
    }
}

/// Table I configuration (minus `method`, which is passed separately).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SynthParams {
    /// Element size of each array (`NUM_array` = `type_sizes.len()`,
    /// `TYPE_array` parsed via [`SynthParams::with_types`]).
    pub type_sizes: Vec<usize>,
    /// Elements per array (`LEN_array`).
    pub len_array: usize,
    /// Elements per I/O access (`SIZE_access`).
    pub size_access: usize,
}

impl SynthParams {
    /// Build from a Table-I style type string, e.g. `"i,d"`.
    pub fn with_types(types: &str, len_array: usize, size_access: usize) -> Result<SynthParams> {
        let mut type_sizes = Vec::new();
        for part in types.split(',') {
            let part = part.trim();
            let mut chars = part.chars();
            let (Some(c), None) = (chars.next(), chars.next()) else {
                return Err(WlError::Config(format!("bad type code {part:?}")));
            };
            let named = Named::from_code(c)
                .ok_or_else(|| WlError::Config(format!("unknown type code {c:?}")))?;
            type_sizes.push(named.size());
        }
        let p = SynthParams {
            type_sizes,
            len_array,
            size_access,
        };
        p.validate()?;
        Ok(p)
    }

    pub fn validate(&self) -> Result<()> {
        if self.type_sizes.is_empty() {
            return Err(WlError::Config("need at least one array".into()));
        }
        if self.size_access == 0 || self.len_array == 0 {
            return Err(WlError::Config(
                "len_array and size_access must be positive".into(),
            ));
        }
        if !self.len_array.is_multiple_of(self.size_access) {
            return Err(WlError::Config(format!(
                "LEN_array {} must be a multiple of SIZE_access {}",
                self.len_array, self.size_access
            )));
        }
        Ok(())
    }

    /// Bytes of one interleaved file block: `(Σ type sizes) × SIZE_access`.
    pub fn block_size(&self) -> usize {
        self.type_sizes.iter().sum::<usize>() * self.size_access
    }

    /// Number of I/O access rounds per rank.
    pub fn accesses(&self) -> usize {
        self.len_array / self.size_access
    }

    /// Bytes each rank contributes.
    pub fn bytes_per_rank(&self) -> u64 {
        (self.type_sizes.iter().sum::<usize>() * self.len_array) as u64
    }

    /// Total file size across `nprocs` ranks.
    pub fn file_size(&self, nprocs: usize) -> u64 {
        self.bytes_per_rank() * nprocs as u64
    }
}

/// Multiplier of the content hash's final product.
const CONTENT_MUL: u64 = 0xFF51_AFD7_ED55_8CCD;

/// The start of array `j` of `rank` in the content hash's sum.
fn content_seed(rank: usize, array: usize) -> u64 {
    (rank as u64)
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add((array as u64).wrapping_mul(0xC2B2_AE3D_27D4_EB4F))
}

/// Deterministic content byte for array `j` of `rank` at byte index `i` —
/// the definition `fill_content` streams and the tests check it against.
#[inline]
pub fn content_byte(rank: usize, array: usize, i: usize) -> u8 {
    let x = content_seed(rank, array).wrapping_add(i as u64);
    (x.wrapping_mul(CONTENT_MUL) >> 56) as u8
}

/// Fill `buf` with array `array` of `rank` from byte index `base`: byte `k`
/// is `content_byte(rank, array, base + k)`. The hashed product
/// `(seed + i)·CONTENT_MUL` grows by `CONTENT_MUL` per byte (mod 2^64), so
/// eight independent lanes step it by addition and no byte multiplies.
fn fill_content(buf: &mut [u8], rank: usize, array: usize, base: usize) {
    let z = content_seed(rank, array)
        .wrapping_add(base as u64)
        .wrapping_mul(CONTENT_MUL);
    let mut lanes: [u64; 8] =
        std::array::from_fn(|k| z.wrapping_add(CONTENT_MUL.wrapping_mul(k as u64)));
    let step = CONTENT_MUL.wrapping_mul(8);
    let mut chunks = buf.chunks_exact_mut(8);
    for chunk in &mut chunks {
        for (b, lane) in chunk.iter_mut().zip(&mut lanes) {
            *b = (*lane >> 56) as u8;
            *lane = lane.wrapping_add(step);
        }
    }
    for (b, &lane) in chunks.into_remainder().iter_mut().zip(&lanes) {
        *b = (lane >> 56) as u8;
    }
}

/// Bytes [`verify_arrays`] generates and compares at a time, on the stack:
/// small, so that a rank's fiber stack touches no page it had not already
/// touched (a 4 KiB chunk cost every rank a page fault).
const VERIFY_CHUNK: usize = 512;

/// The rank's in-memory arrays, registered against the simulated memory
/// budget (they are part of the application's footprint in the Fig. 6/7
/// accounting).
pub struct Arrays {
    pub data: Vec<Vec<u8>>,
    _mem: MemGuard,
}

/// Generate the arrays with their deterministic content.
pub fn gen_arrays(rank: &mut Rank, p: &SynthParams) -> Result<Arrays> {
    let mem = rank.alloc(p.bytes_per_rank())?;
    let me = rank.rank();
    let data = p
        .type_sizes
        .iter()
        .enumerate()
        .map(|(j, &ts)| {
            let mut arr = vec![0u8; p.len_array * ts];
            fill_content(&mut arr, me, j, 0);
            arr
        })
        .collect();
    Ok(Arrays { data, _mem: mem })
}

/// Allocate zeroed arrays of the right shapes (read targets).
pub fn zeroed_arrays(rank: &mut Rank, p: &SynthParams) -> Result<Arrays> {
    let mem = rank.alloc(p.bytes_per_rank())?;
    let data = p
        .type_sizes
        .iter()
        .map(|&ts| vec![0u8; p.len_array * ts])
        .collect();
    Ok(Arrays { data, _mem: mem })
}

/// Compare arrays against the generator.
pub fn verify_arrays(rank: usize, p: &SynthParams, arrays: &Arrays) -> Result<()> {
    for (j, arr) in arrays.data.iter().enumerate() {
        let ts = p.type_sizes[j];
        if arr.len() != p.len_array * ts {
            return Err(WlError::Mismatch(format!(
                "array {j}: length {} != {}",
                arr.len(),
                p.len_array * ts
            )));
        }
        let mut want = [0u8; VERIFY_CHUNK];
        for (c, got) in arr.chunks(VERIFY_CHUNK).enumerate() {
            let base = c * VERIFY_CHUNK;
            let want = &mut want[..got.len()];
            fill_content(want, rank, j, base);
            if got == want {
                continue;
            }
            let (k, (b, expect)) = got
                .iter()
                .zip(want.iter())
                .enumerate()
                .find(|(_, (a, b))| a != b)
                .expect("unequal chunks of one length differ somewhere");
            return Err(WlError::Mismatch(format!(
                "rank {rank} array {j} byte {}: got {b:#x}, expected {expect:#x}",
                base + k
            )));
        }
    }
    Ok(())
}

/// Outcome of one workload run on one rank.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunMetrics {
    /// Bytes this rank moved.
    pub bytes: u64,
    /// Virtual seconds between the pre- and post-I/O barriers.
    pub elapsed: f64,
}

/// Run `f` between two barriers and report the rank's bytes and the
/// virtual time the phase took (identical across ranks thanks to the
/// barriers). Shared by the synthetic and ART drivers.
pub fn timed<T>(
    rank: &mut Rank,
    bytes: u64,
    f: impl FnOnce(&mut Rank) -> Result<T>,
) -> Result<(RunMetrics, T)> {
    rank.barrier()?;
    let t0 = rank.now();
    let out = f(rank)?;
    rank.barrier()?;
    Ok((
        RunMetrics {
            bytes,
            elapsed: rank.now() - t0,
        },
        out,
    ))
}

/// What every write phase shares: validate, generate the arrays, and time
/// `phase` between barriers.
fn generate_and_time(
    rank: &mut Rank,
    p: &SynthParams,
    phase: impl FnOnce(&mut Rank, &Arrays) -> Result<()>,
) -> Result<RunMetrics> {
    p.validate()?;
    let arrays = gen_arrays(rank, p)?;
    let (metrics, ()) = timed(rank, p.bytes_per_rank(), |rk| phase(rk, &arrays))?;
    Ok(metrics)
}

/// What every read phase shares: validate, zeroed targets, time `phase`
/// between barriers, then verify what it read against the generator.
fn time_and_verify(
    rank: &mut Rank,
    p: &SynthParams,
    phase: impl FnOnce(&mut Rank, &mut Arrays) -> Result<()>,
) -> Result<RunMetrics> {
    p.validate()?;
    let mut arrays = zeroed_arrays(rank, p)?;
    let (metrics, ()) = timed(rank, p.bytes_per_rank(), |rk| phase(rk, &mut arrays))?;
    verify_arrays(rank.rank(), p, &arrays)?;
    Ok(metrics)
}

// ----------------------------------------------------------------------
// Program 3: the POSIX-like access loop, for TCIO and vanilla MPI-IO alike
// ----------------------------------------------------------------------

/// Program 3: open, plain positioned writes — one per array per access; no
/// application buffer, no datatypes, no file view — close. Which handle
/// `open` makes decides whether the calls are aggregated (TCIO) or each
/// becomes its own file-system request (independent MPI-IO).
fn write_arrays<'b, F: PositionedFile<'b>>(
    rk: &mut Rank,
    p: &SynthParams,
    arrays: &Arrays,
    open: impl FnOnce(&mut Rank) -> Result<F, F::Error>,
) -> Result<(), F::Error> {
    let (nprocs, me, bs) = (rk.nprocs() as u64, rk.rank() as u64, p.block_size() as u64);
    // [program3-begin] — the I/O-essential lines of the paper's Program 3,
    // counted by `bench table3_effort`; `open(rk)` stands for the one-line
    // open expression of either caller.
    let mut f = open(rk)?;
    for a in 0..p.accesses() {
        // Program 3 line 3a: pos = rank·bs + access·bs·P
        let mut pos = me * bs + a as u64 * bs * nprocs;
        for (j, arr) in arrays.data.iter().enumerate() {
            let ts = p.type_sizes[j];
            let start = a * p.size_access * ts;
            let end = start + p.size_access * ts;
            f.write_at(rk, pos, &arr[start..end])?;
            pos += (ts * p.size_access) as u64;
        }
    }
    f.close(rk)?;
    // [program3-end]
    Ok(())
}

/// The read half of Program 3: positioned reads straight into the arrays
/// (a lazy handle fills them by `close`).
fn read_arrays<'b, F: PositionedFile<'b>>(
    rk: &mut Rank,
    p: &SynthParams,
    arrays: &'b mut Arrays,
    open: impl FnOnce(&mut Rank) -> Result<F, F::Error>,
) -> Result<(), F::Error> {
    let (nprocs, me, bs) = (rk.nprocs() as u64, rk.rank() as u64, p.block_size() as u64);
    let mut f = open(rk)?;
    // Hand out disjoint mutable sub-slices of each array, front to back.
    let mut cursors: Vec<&mut [u8]> = arrays.data.iter_mut().map(|a| a.as_mut_slice()).collect();
    for a in 0..p.accesses() {
        let mut pos = me * bs + a as u64 * bs * nprocs;
        for (j, ts) in p.type_sizes.iter().enumerate() {
            let take = p.size_access * ts;
            let (piece, rest) = std::mem::take(&mut cursors[j]).split_at_mut(take);
            cursors[j] = rest;
            f.read_at(rk, pos, piece)?;
            pos += take as u64;
        }
    }
    f.close(rk)?;
    Ok(())
}

/// Program 3 through TCIO.
pub fn write_tcio(
    rank: &mut Rank,
    pfs: &Arc<Pfs>,
    p: &SynthParams,
    path: &str,
    cfg: Option<TcioConfig>,
) -> Result<RunMetrics> {
    generate_and_time(rank, p, |rk, arrays| {
        let sized = || TcioConfig::for_file_size(p.file_size(rk.nprocs()), rk.nprocs());
        let cfg = cfg.unwrap_or_else(sized);
        let open = |rk: &mut Rank| TcioFile::open(rk, pfs, path, TcioMode::Write, cfg);
        Ok(write_arrays(rk, p, arrays, open)?)
    })
}

/// The TCIO read path: lazy positioned reads into the arrays, resolved at
/// close, then verification.
pub fn read_tcio(
    rank: &mut Rank,
    pfs: &Arc<Pfs>,
    p: &SynthParams,
    path: &str,
    cfg: Option<TcioConfig>,
) -> Result<RunMetrics> {
    time_and_verify(rank, p, |rk, arrays| {
        let sized = || TcioConfig::for_file_size(p.file_size(rk.nprocs()), rk.nprocs());
        let cfg = cfg.unwrap_or_else(sized);
        let open = |rk: &mut Rank| TcioFile::open(rk, pfs, path, TcioMode::Read, cfg);
        Ok(read_arrays(rk, p, arrays, open)?)
    })
}

/// Program 3 through independent MPI-IO: the same calls, every positioned
/// write its own file-system request.
pub fn write_vanilla(
    rank: &mut Rank,
    pfs: &Arc<Pfs>,
    p: &SynthParams,
    path: &str,
) -> Result<RunMetrics> {
    generate_and_time(rank, p, |rk, arrays| {
        let open = |rk: &mut Rank| mpiio::File::open(rk, pfs, path, mpiio::Mode::WriteOnly);
        Ok(write_arrays(rk, p, arrays, open)?)
    })
}

/// Independent MPI-IO reads, with verification.
pub fn read_vanilla(
    rank: &mut Rank,
    pfs: &Arc<Pfs>,
    p: &SynthParams,
    path: &str,
) -> Result<RunMetrics> {
    time_and_verify(rank, p, |rk, arrays| {
        let open = |rk: &mut Rank| mpiio::File::open(rk, pfs, path, mpiio::Mode::ReadOnly);
        Ok(read_arrays(rk, p, arrays, open)?)
    })
}

// ----------------------------------------------------------------------
// Program 2: OCIO
// ----------------------------------------------------------------------

/// Build the OCIO file view for this benchmark: etype = one block of
/// contiguous bytes, filetype = vector striding over `nprocs` blocks.
fn ocio_view(p: &SynthParams, nprocs: usize) -> (mpisim::Committed, mpisim::Committed) {
    let etype = Datatype::contiguous(p.block_size(), Datatype::named(Named::Byte));
    let ftype = Datatype::vector(p.accesses(), 1, nprocs as isize, etype.clone());
    (etype.commit(), ftype.commit())
}

/// The OCIO write path (Program 2): combine the arrays into an
/// application-level buffer (steps 1–2), set the file view (steps 4–10),
/// one collective write (step 11).
pub fn write_ocio(
    rank: &mut Rank,
    pfs: &Arc<Pfs>,
    p: &SynthParams,
    path: &str,
    ccfg: &mpiio::CollectiveConfig,
) -> Result<RunMetrics> {
    generate_and_time(rank, p, |rk, arrays| {
        let (me, nprocs) = (rk.rank() as u64, rk.nprocs());
        // [program2-begin] — the I/O-essential lines of the paper's
        // Program 2, counted by `bench table3_effort`.
        // Steps 1–2: the application-level combine buffer (an extra copy of
        // the whole per-rank dataset — the memory cost OCIO imposes).
        let _combine_mem = rk.alloc(p.bytes_per_rank())?;
        let mut buffer = Vec::with_capacity(p.bytes_per_rank() as usize);
        for a in 0..p.accesses() {
            for (j, arr) in arrays.data.iter().enumerate() {
                let ts = p.type_sizes[j];
                let start = a * p.size_access * ts;
                buffer.extend_from_slice(&arr[start..start + p.size_access * ts]);
            }
        }
        rk.charge_memcpy(buffer.len() as u64);
        // Steps 3–10: open, build the derived datatypes, set the view.
        let mut f = mpiio::File::open(rk, pfs, path, mpiio::Mode::WriteOnly)?;
        let etype = Datatype::contiguous(p.block_size(), Datatype::named(Named::Byte)).commit();
        let ftype =
            Datatype::vector(p.accesses(), 1, nprocs as isize, etype.datatype().clone()).commit();
        f.set_view(rk, me * p.block_size() as u64, &etype, &ftype)?;
        // Step 11: a single collective write.
        mpiio::write_all_at(rk, &mut f, 0, &buffer, ccfg)?;
        f.close(rk)?;
        // [program2-end]
        Ok(())
    })
}

/// The OCIO read path: collective read into the combine buffer, then
/// scatter back into the arrays and verify.
pub fn read_ocio(
    rank: &mut Rank,
    pfs: &Arc<Pfs>,
    p: &SynthParams,
    path: &str,
    ccfg: &mpiio::CollectiveConfig,
) -> Result<RunMetrics> {
    time_and_verify(rank, p, |rk, arrays| {
        let (me, nprocs) = (rk.rank() as u64, rk.nprocs());
        let _combine_mem = rk.alloc(p.bytes_per_rank())?;
        let mut buffer = vec![0u8; p.bytes_per_rank() as usize];
        let mut f = mpiio::File::open(rk, pfs, path, mpiio::Mode::ReadOnly)?;
        let (etype, ftype) = ocio_view(p, nprocs);
        f.set_view(rk, me * p.block_size() as u64, &etype, &ftype)?;
        mpiio::read_all_at(rk, &mut f, 0, &mut buffer, ccfg)?;
        // Scatter the combine buffer back into the arrays.
        let mut cursor = 0usize;
        for a in 0..p.accesses() {
            for (j, arr) in arrays.data.iter_mut().enumerate() {
                let ts = p.type_sizes[j];
                let start = a * p.size_access * ts;
                let take = p.size_access * ts;
                arr[start..start + take].copy_from_slice(&buffer[cursor..cursor + take]);
                cursor += take;
            }
        }
        rk.charge_memcpy(cursor as u64);
        f.close(rk)?;
        Ok(())
    })
}

// ----------------------------------------------------------------------
// By method
// ----------------------------------------------------------------------

/// What the configurable methods run under. The default is the config-less
/// run: TCIO sized for the file it makes, ROMIO's default collective.
#[derive(Debug, Clone, Default)]
pub struct Configs {
    pub tcio: Option<TcioConfig>,
    pub ocio: mpiio::CollectiveConfig,
}

/// One phase of the benchmark through `method` — the one place a
/// [`Method`] becomes a call.
pub fn run(
    phase: Direction,
    method: Method,
    rank: &mut Rank,
    pfs: &Arc<Pfs>,
    p: &SynthParams,
    path: &str,
    cfgs: &Configs,
) -> Result<RunMetrics> {
    match (phase, method) {
        (Direction::Write, Method::Ocio) => write_ocio(rank, pfs, p, path, &cfgs.ocio),
        (Direction::Write, Method::Tcio) => write_tcio(rank, pfs, p, path, cfgs.tcio.clone()),
        (Direction::Write, Method::Vanilla) => write_vanilla(rank, pfs, p, path),
        (Direction::Read, Method::Ocio) => read_ocio(rank, pfs, p, path, &cfgs.ocio),
        (Direction::Read, Method::Tcio) => read_tcio(rank, pfs, p, path, cfgs.tcio.clone()),
        (Direction::Read, Method::Vanilla) => read_vanilla(rank, pfs, p, path),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpisim::SimConfig;
    use pfs::PfsConfig;

    fn params() -> SynthParams {
        SynthParams::with_types("i,d", 24, 2).unwrap()
    }

    #[test]
    fn table1_parsing() {
        let p = SynthParams::with_types("i,d", 8, 1).unwrap();
        assert_eq!(p.type_sizes, vec![4, 8]);
        assert_eq!(p.block_size(), 12);
        assert_eq!(p.accesses(), 8);
        assert_eq!(p.bytes_per_rank(), 96);
        assert_eq!(p.file_size(4), 384);
        assert!(SynthParams::with_types("x", 8, 1).is_err());
        assert!(
            SynthParams::with_types("i", 7, 2).is_err(),
            "LEN % SIZE != 0"
        );
        assert!(SynthParams::with_types("", 8, 1).is_err());
    }

    #[test]
    fn size_access_scales_block() {
        let p = SynthParams::with_types("c,s,f", 16, 4).unwrap();
        assert_eq!(p.type_sizes, vec![1, 2, 4]);
        assert_eq!(p.block_size(), 7 * 4);
        assert_eq!(p.accesses(), 4);
    }

    fn run_write_then_read(method: Method, nprocs: usize) {
        let p = params();
        let fs = Pfs::new(nprocs, PfsConfig::default()).unwrap();
        let fs2 = Arc::clone(&fs);
        let p2 = p.clone();
        let cfgs = Configs::default();
        let rep = mpisim::run(nprocs, SimConfig::default(), move |rk| {
            let w = run(Direction::Write, method, rk, &fs2, &p2, "/synth", &cfgs)?;
            let r = run(Direction::Read, method, rk, &fs2, &p2, "/synth", &cfgs)?;
            Ok((w, r))
        })
        .unwrap();
        for (w, r) in &rep.results {
            assert_eq!(w.bytes, p.bytes_per_rank());
            assert!(w.elapsed > 0.0);
            assert_eq!(r.bytes, p.bytes_per_rank());
            assert!(r.elapsed > 0.0);
        }
        // The file must be the canonical interleaving regardless of method.
        let fid = fs.open("/synth").unwrap();
        let bytes = fs.snapshot_file(fid).unwrap();
        assert_eq!(bytes.len() as u64, p.file_size(nprocs));
    }

    #[test]
    fn tcio_write_read_verifies() {
        run_write_then_read(Method::Tcio, 4);
    }

    #[test]
    fn ocio_write_read_verifies() {
        run_write_then_read(Method::Ocio, 4);
    }

    #[test]
    fn vanilla_write_read_verifies() {
        run_write_then_read(Method::Vanilla, 4);
    }

    #[test]
    fn all_methods_produce_identical_files() {
        let p = params();
        let mut snapshots = Vec::new();
        for method in [Method::Ocio, Method::Tcio, Method::Vanilla] {
            let fs = Pfs::new(3, PfsConfig::default()).unwrap();
            let fs2 = Arc::clone(&fs);
            let p2 = p.clone();
            let cfgs = Configs::default();
            mpisim::run(3, SimConfig::default(), move |rk| {
                run(Direction::Write, method, rk, &fs2, &p2, "/f", &cfgs)?;
                Ok(())
            })
            .unwrap();
            let fid = fs.open("/f").unwrap();
            snapshots.push(fs.snapshot_file(fid).unwrap());
        }
        assert_eq!(snapshots[0], snapshots[1], "OCIO vs TCIO");
        assert_eq!(snapshots[1], snapshots[2], "TCIO vs vanilla");
    }

    #[test]
    fn cross_method_read_back() {
        // Write with OCIO, read with TCIO: the formats must interoperate.
        let p = params();
        let fs = Pfs::new(2, PfsConfig::default()).unwrap();
        let fs2 = Arc::clone(&fs);
        let p2 = p.clone();
        let cfgs = Configs::default();
        mpisim::run(2, SimConfig::default(), move |rk| {
            run(Direction::Write, Method::Ocio, rk, &fs2, &p2, "/x", &cfgs)?;
            run(Direction::Read, Method::Tcio, rk, &fs2, &p2, "/x", &cfgs)?;
            run(Direction::Read, Method::Vanilla, rk, &fs2, &p2, "/x", &cfgs)?;
            Ok(())
        })
        .unwrap();
    }

    #[test]
    fn fill_content_is_content_byte_byte_for_byte() {
        use rand::{RngExt, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(0x00C0_17E7);
        let mut cases = Vec::new();
        for len in 0..=17 {
            for base in [0, 1, 5, 8, 4093] {
                cases.push((2, 1, base, len));
            }
        }
        for _ in 0..300 {
            let rank = (rng.random::<u64>() % 100_000) as usize;
            let array = (rng.random::<u64>() % 8) as usize;
            let base = (rng.random::<u64>() >> 20) as usize;
            let len = (rng.random::<u64>() % 3000) as usize;
            cases.push((rank, array, base, len));
        }
        for (rank, array, base, len) in cases {
            let mut buf = vec![0xAAu8; len];
            fill_content(&mut buf, rank, array, base);
            let want: Vec<u8> = (base..base + len)
                .map(|i| content_byte(rank, array, i))
                .collect();
            assert_eq!(buf, want, "rank {rank} array {array} base {base} len {len}");
        }
    }

    #[test]
    fn verify_names_a_flipped_byte_past_the_first_chunk() {
        // Array 1 holds 2048 doubles: 16 KiB, many compare chunks.
        let p = SynthParams::with_types("i,d", 2048, 2).unwrap();
        let rep = mpisim::run(1, SimConfig::default(), move |rk| {
            let mut arrays = gen_arrays(rk, &p)?;
            verify_arrays(0, &p, &arrays)?;
            let mut errors = Vec::new();
            for i in [VERIFY_CHUNK + 5, 2048 * 8 - 1] {
                arrays.data[1][i] ^= 0x5A;
                errors.push((i, arrays.data[1][i], verify_arrays(0, &p, &arrays)));
                arrays.data[1][i] ^= 0x5A;
            }
            Ok(errors)
        })
        .unwrap();
        for (i, got, err) in rep.results.into_iter().next().unwrap() {
            let expect = content_byte(0, 1, i);
            assert_eq!(
                err,
                Err(WlError::Mismatch(format!(
                    "rank 0 array 1 byte {i}: got {got:#x}, expected {expect:#x}"
                )))
            );
        }
    }

    #[test]
    fn content_generator_is_rank_and_array_sensitive() {
        let a: Vec<u8> = (0..64).map(|i| content_byte(0, 0, i)).collect();
        let b: Vec<u8> = (0..64).map(|i| content_byte(1, 0, i)).collect();
        let c: Vec<u8> = (0..64).map(|i| content_byte(0, 1, i)).collect();
        assert_ne!(a, b);
        assert_ne!(a, c);
        // And deterministic.
        let a2: Vec<u8> = (0..64).map(|i| content_byte(0, 0, i)).collect();
        assert_eq!(a, a2);
    }
}
