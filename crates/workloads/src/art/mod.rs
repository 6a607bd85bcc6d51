//! The ART cosmology application driver (§V.C).
//!
//! ART assigns variable-length *segments* of root cells to processes
//! round-robin (segment `s` → rank `s mod P`); segment lengths follow
//! N(2048, 128²) with seed 5 (Table IV). At checkpoint time every process
//! serializes each of its trees as a self-describing record
//! ([`ftt::FttTree`]) into a single shared file, segments in global order —
//! so processes write many variable-size noncontiguous byte ranges in an
//! interleaving fashion, and no single derived datatype can describe the
//! pattern. The paper dumps with TCIO vs vanilla (independent) MPI-IO and
//! then restarts from the snapshot (Figs. 9 and 10).
//!
//! Offsets are agreed the way the real code does it: each rank sizes its
//! own segments locally, the per-segment byte counts are allgathered, and
//! the global layout is their prefix sum. The tables every rank would
//! compute identically — the segment lengths and the byte offsets — are
//! built once per simulation and shared ([`Rank::replicated`]), so a rank
//! costs the host O(its own segments), not O(all segments).

pub mod ftt;

pub use ftt::{FttConfig, FttTree, FTT_MAGIC};

use crate::error::{Result, WlError};
use crate::synthetic::{timed, RunMetrics};
use crate::Normal;
use mpiio::PositionedFile;
use mpisim::{MpiError, Rank};
use pfs::Pfs;
use std::hash::Hash;
use std::sync::Arc;
use tcio::{TcioConfig, TcioFile, TcioMode};

/// ART experiment configuration. Defaults follow Table IV.
#[derive(Debug, Clone, PartialEq)]
pub struct ArtConfig {
    /// Number of root-cell segments (Table IV: 1024).
    pub num_segments: usize,
    /// Mean segment length in root cells (Table IV: 2048).
    pub mu: f64,
    /// Standard deviation (Table IV: 128).
    pub sigma: f64,
    /// RNG seed (Table IV: 5).
    pub seed: u64,
    /// Tree-shape generation parameters.
    pub ftt: FttConfig,
}

impl Default for ArtConfig {
    fn default() -> Self {
        ArtConfig {
            num_segments: 1024,
            mu: 2048.0,
            sigma: 128.0,
            seed: 5,
            ftt: FttConfig::default(),
        }
    }
}

impl ArtConfig {
    /// A proportionally smaller problem (for laptop-scale reproduction):
    /// scales the cell count by `frac` while keeping the segment/process
    /// structure. See EXPERIMENTS.md.
    pub fn scaled(frac: f64) -> ArtConfig {
        let base = ArtConfig::default();
        ArtConfig {
            mu: (base.mu * frac).max(4.0),
            sigma: (base.sigma * frac).max(1.0),
            ..base
        }
    }

    /// Refuse parameters the sampler cannot turn into segment lengths: a
    /// non-finite or negative `mu` or `sigma`, or one whose samples could
    /// exceed `u32::MAX` cells (the length cast would saturate, and the run
    /// would hang generating that many trees). Refuse a tree shape
    /// [`FttTree::generate`] cannot count: a `refine_prob` outside [0, 1]
    /// (NaN would silently mean "never refine"), or a `max_depth` past
    /// [`FttConfig::MAX_DEPTH`].
    pub fn validate(&self) -> Result<()> {
        let ftt = &self.ftt;
        if !(0.0..=1.0).contains(&ftt.refine_prob) {
            return Err(WlError::Config(format!(
                "FTT refine_prob must be in [0, 1], got {}",
                ftt.refine_prob
            )));
        }
        if ftt.max_depth > FttConfig::MAX_DEPTH {
            return Err(WlError::Config(format!(
                "FTT max_depth {} is past {}: a fully refined level would not fit in u32",
                ftt.max_depth,
                FttConfig::MAX_DEPTH
            )));
        }
        for (name, v) in [("mu", self.mu), ("sigma", self.sigma)] {
            if !v.is_finite() || v < 0.0 {
                return Err(WlError::Config(format!(
                    "ART {name} must be finite and non-negative, got {v}"
                )));
            }
        }
        let longest = self.mu + Normal::MAX_ABS_Z * self.sigma;
        if longest.round() > u32::MAX as f64 {
            return Err(WlError::Config(format!(
                "ART segments of up to {longest} cells do not fit in u32"
            )));
        }
        Ok(())
    }

    /// A [`Rank::replicated`] key for `table`, over every field a table
    /// depends on.
    fn key(&self, table: &'static str) -> impl Hash {
        let ftt = &self.ftt;
        let shape = (ftt.max_depth, ftt.refine_prob.to_bits(), ftt.num_vars);
        let lengths = (self.mu.to_bits(), self.sigma.to_bits(), self.seed);
        (table, self.num_segments, lengths, shape)
    }
}

/// Which I/O path to exercise.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArtMethod {
    Tcio,
    Vanilla,
    /// Independent MPI-IO with application-level per-tree buffering: each
    /// record is assembled in a temporary buffer and written with one call
    /// — per-process coalescing without cross-process aggregation, the
    /// halfway house between the baselines (and the manual buffer
    /// management TCIO exists to eliminate).
    VanillaBuffered,
}

impl ArtMethod {
    pub fn label(self) -> &'static str {
        match self {
            ArtMethod::Tcio => "TCIO",
            ArtMethod::Vanilla => "MPI-IO",
            ArtMethod::VanillaBuffered => "MPI-IO+buf",
        }
    }
}

/// The global cell layout derived from the segment lengths.
#[derive(Debug, Clone)]
pub struct ArtPlan {
    pub seg_lens: Vec<u32>,
    /// First global root-cell id of each segment.
    pub seg_cell_start: Vec<u64>,
    pub total_cells: u64,
}

/// Table IV's segment lengths (identical on every rank) and the cell
/// layout they give. [`dump`] and [`restart`] build it once per simulation.
pub fn plan(cfg: &ArtConfig) -> ArtPlan {
    let seg_lens = Normal::new(cfg.mu, cfg.sigma, cfg.seed).sample_lengths(cfg.num_segments);
    let mut seg_cell_start = Vec::with_capacity(seg_lens.len());
    let mut acc = 0u64;
    for &l in &seg_lens {
        seg_cell_start.push(acc);
        acc += l as u64;
    }
    ArtPlan {
        seg_lens,
        seg_cell_start,
        total_cells: acc,
    }
}

/// Segments owned by `rank` (round-robin).
pub fn my_segments(plan: &ArtPlan, rank: usize, nprocs: usize) -> Vec<usize> {
    (rank..plan.seg_lens.len()).step_by(nprocs).collect()
}

/// Generate the trees of one segment.
fn segment_trees(plan: &ArtPlan, seg: usize, ftt: &FttConfig) -> Vec<FttTree> {
    let start = plan.seg_cell_start[seg];
    (0..plan.seg_lens[seg] as u64)
        .map(|i| FttTree::generate(start + i, ftt))
        .collect()
}

/// This rank's trees keyed by their segment index.
type MyTrees = Vec<(usize, Vec<FttTree>)>;

/// One restart read: `(file offset, length)`.
type Piece = (u64, usize);

/// The snapshot's byte layout: the same on every rank, built once.
#[derive(Debug, PartialEq)]
struct Offsets {
    /// Byte offset of every segment in the file.
    seg_off: Vec<u64>,
    /// Snapshot size (all segments) — sizes TCIO's level-2 buffer.
    total: u64,
}

impl Offsets {
    /// Prefix-sum the allgathered per-segment sizes: rank r's slot holds
    /// segments r, r+P, r+2P, … in that order, 8 bytes each. A
    /// crash-stopped rank's slot is empty and its segments read as 0 bytes;
    /// a slot of any other wrong length (a peer that entered another
    /// allgather here) is a typed error, never a guess.
    fn decode(plan: &ArtPlan, cfg: &ArtConfig, gathered: &[Vec<u8>]) -> Result<Offsets> {
        let nsegs = plan.seg_lens.len();
        let mut seg_off = vec![0u64; nsegs];
        for (r, slot) in gathered.iter().enumerate() {
            let segs = (r..nsegs).step_by(gathered.len());
            if slot.is_empty() {
                continue;
            }
            if slot.len() != 8 * segs.len() {
                return Err(MpiError::CollectiveMismatch(
                    "an ART size slot is not 8 bytes per segment of its rank",
                )
                .into());
            }
            for (s, bytes) in segs.zip(slot.chunks_exact(8)) {
                seg_off[s] = u64::from_le_bytes(bytes.try_into().expect("an 8-byte chunk"));
            }
        }
        let mut acc = 0u64;
        for off in &mut seg_off {
            let bytes = std::mem::replace(off, acc);
            acc = acc.checked_add(bytes).ok_or(MpiError::CollectiveMismatch(
                "ART segment sizes overflow a file offset",
            ))?;
        }
        Ok(Offsets {
            total: total_bytes(&seg_off, plan, cfg),
            seg_off,
        })
    }
}

/// The snapshot as one rank sees it.
struct Layout {
    offsets: Arc<Offsets>,
    my_trees: MyTrees,
    my_bytes: u64,
}

/// Agree the global segment byte offsets: each rank sizes its own
/// segments, the counts are allgathered, and one prefix sum serves every
/// rank. The plan and the offsets are each built once per simulation.
fn layout(rank: &mut Rank, cfg: &ArtConfig) -> Result<Layout> {
    cfg.validate()?;
    let shared_plan = rank.replicated(cfg.key("plan"), || Ok::<_, WlError>(plan(cfg)))?;
    let mine = my_segments(&shared_plan, rank.rank(), rank.nprocs());
    let mut my_trees = Vec::with_capacity(mine.len());
    let mut my_sizes = Vec::with_capacity(mine.len());
    for &s in &mine {
        let trees = segment_trees(&shared_plan, s, &cfg.ftt);
        let bytes: u64 = trees.iter().map(|t| t.record_size(cfg.ftt.num_vars)).sum();
        my_sizes.push(bytes);
        my_trees.push((s, trees));
    }
    let payload: Vec<u8> = my_sizes.iter().flat_map(|b| b.to_le_bytes()).collect();
    let gathered = rank.allgather(&payload)?;
    let offsets = rank.replicated(cfg.key("offsets"), || {
        Offsets::decode(&shared_plan, cfg, &gathered)
    })?;
    Ok(Layout {
        offsets,
        my_trees,
        my_bytes: my_sizes.iter().sum(),
    })
}

/// Total snapshot size (all segments).
fn total_bytes(seg_off: &[u64], plan: &ArtPlan, cfg: &ArtConfig) -> u64 {
    // seg_off is a prefix sum; total = last offset + last segment's bytes.
    match seg_off.last() {
        None => 0,
        Some(&last_off) => {
            let last_seg = seg_off.len() - 1;
            let last_bytes: u64 = segment_trees(plan, last_seg, &cfg.ftt)
                .iter()
                .map(|t| t.record_size(cfg.ftt.num_vars))
                .sum();
            last_off + last_bytes
        }
    }
}

/// The POSIX-like dump loop, through whichever handle `open` makes: every
/// tree's record as the sequence of small positioned writes the real
/// application performs — header, then per level the structure flags and
/// each variable array.
fn write_trees<'b, F: PositionedFile<'b>>(
    rk: &mut Rank,
    my_trees: &[(usize, Vec<FttTree>)],
    seg_off: &[u64],
    num_vars: usize,
    open: impl FnOnce(&mut Rank) -> Result<F, F::Error>,
) -> Result<(), F::Error> {
    let mut f = open(rk)?;
    for (seg, trees) in my_trees {
        let mut cursor = seg_off[*seg];
        let mut put = |rk: &mut Rank, data: Vec<u8>| -> Result<(), F::Error> {
            f.write_at(rk, cursor, &data)?;
            cursor += data.len() as u64;
            Ok(())
        };
        for tree in trees {
            put(rk, tree.header())?;
            for l in 0..tree.levels() {
                put(rk, tree.flags_bytes(l))?;
                for v in 0..num_vars {
                    put(rk, tree.var_bytes(l, v))?;
                }
            }
        }
    }
    f.close(rk)?;
    Ok(())
}

/// The POSIX-like restart loop: one positioned read per piece, back to back
/// into `arena` (a lazy handle fills it by `close`).
fn read_pieces_into<'b, F: PositionedFile<'b>>(
    rk: &mut Rank,
    pieces: &[Piece],
    arena: &'b mut [u8],
    open: impl FnOnce(&mut Rank) -> Result<F, F::Error>,
) -> Result<(), F::Error> {
    let mut f = open(rk)?;
    let mut rest = arena;
    for &(off, len) in pieces {
        let (dst, tail) = rest.split_at_mut(len);
        rest = tail;
        f.read_at(rk, off, dst)?;
    }
    f.close(rk)?;
    Ok(())
}

/// Checkpoint dump (Fig. 9's workload).
pub fn dump(
    rank: &mut Rank,
    pfs: &Arc<Pfs>,
    cfg: &ArtConfig,
    method: ArtMethod,
    path: &str,
) -> Result<RunMetrics> {
    let lay = layout(rank, cfg)?;
    let seg_off = &lay.offsets.seg_off;
    let vars = cfg.ftt.num_vars;
    let (metrics, ()) = timed(rank, lay.my_bytes, |rk| {
        match method {
            ArtMethod::Tcio => write_trees(rk, &lay.my_trees, seg_off, vars, |rk| {
                let tcfg = TcioConfig::for_file_size(lay.offsets.total, rk.nprocs());
                TcioFile::open(rk, pfs, path, TcioMode::Write, tcfg)
            })?,
            ArtMethod::Vanilla => write_trees(rk, &lay.my_trees, seg_off, vars, |rk| {
                mpiio::File::open(rk, pfs, path, mpiio::Mode::WriteOnly)
            })?,
            ArtMethod::VanillaBuffered => {
                let mut f = mpiio::File::open(rk, pfs, path, mpiio::Mode::WriteOnly)?;
                for (seg, trees) in &lay.my_trees {
                    let mut cursor = seg_off[*seg];
                    for t in trees {
                        // Manual per-record combine buffer: the programming
                        // effort TCIO's level-1 buffer makes unnecessary.
                        let rec = t.record(vars);
                        rk.charge_memcpy(rec.len() as u64);
                        f.write_at(rk, cursor, &rec)?;
                        cursor += rec.len() as u64;
                    }
                }
                f.close(rk)?;
            }
        }
        Ok(())
    })?;
    Ok(metrics)
}

/// The ascending `(file offset, length)` list of this rank's restart
/// reads, mirroring the write pattern (header, flags, vars per level).
fn read_pieces(my_trees: &[(usize, Vec<FttTree>)], seg_off: &[u64], vars: usize) -> Vec<Piece> {
    let mut pieces = Vec::new();
    for (seg, trees) in my_trees {
        let mut cursor = seg_off[*seg];
        let mut piece = |len: u64| {
            pieces.push((cursor, len as usize));
            cursor += len;
        };
        for t in trees {
            piece(t.header_size());
            for l in 0..t.levels() {
                piece(t.flags_size(l));
                (0..vars).for_each(|_| piece(t.var_size(l)));
            }
        }
    }
    pieces
}

/// Verify a contiguous arena of read-back pieces against the generators.
fn verify_arena(my_trees: &[(usize, Vec<FttTree>)], vars: usize, arena: &[u8]) -> Result<()> {
    let mut pos = 0usize;
    for (seg, trees) in my_trees {
        for t in trees {
            let expect = t.record(vars);
            let got = &arena[pos..pos + expect.len()];
            if got != expect.as_slice() {
                let byte = got.iter().zip(&expect).position(|(a, b)| a != b);
                return Err(WlError::Mismatch(format!(
                    "segment {seg} tree {} differs at record byte {byte:?}",
                    t.cell_id
                )));
            }
            pos += expect.len();
        }
    }
    Ok(())
}

/// Restart: read the snapshot back and verify it (Fig. 10's workload).
pub fn restart(
    rank: &mut Rank,
    pfs: &Arc<Pfs>,
    cfg: &ArtConfig,
    method: ArtMethod,
    path: &str,
) -> Result<RunMetrics> {
    let lay = layout(rank, cfg)?;
    let seg_off = &lay.offsets.seg_off;
    let vars = cfg.ftt.num_vars;
    let pieces = read_pieces(&lay.my_trees, seg_off, vars);
    let _arena_mem = rank.alloc(lay.my_bytes)?;
    let mut arena = vec![0u8; lay.my_bytes as usize];
    let (metrics, ()) = timed(rank, lay.my_bytes, |rk| {
        match method {
            ArtMethod::Tcio => read_pieces_into(rk, &pieces, &mut arena, |rk| {
                let tcfg = TcioConfig::for_file_size(lay.offsets.total, rk.nprocs());
                TcioFile::open(rk, pfs, path, TcioMode::Read, tcfg)
            })?,
            ArtMethod::Vanilla => read_pieces_into(rk, &pieces, &mut arena, |rk| {
                mpiio::File::open(rk, pfs, path, mpiio::Mode::ReadOnly)
            })?,
            ArtMethod::VanillaBuffered => {
                // One read per record instead of one per array.
                let mut f = mpiio::File::open(rk, pfs, path, mpiio::Mode::ReadOnly)?;
                let mut rest = arena.as_mut_slice();
                for (seg, trees) in &lay.my_trees {
                    let mut cursor = seg_off[*seg];
                    for t in trees {
                        let len = t.record_size(vars) as usize;
                        let (dst, tail) = rest.split_at_mut(len);
                        rest = tail;
                        f.read_at(rk, cursor, dst)?;
                        cursor += len as u64;
                    }
                }
                f.close(rk)?;
            }
        }
        Ok(())
    })?;
    verify_arena(&lay.my_trees, vars, &arena)?;
    Ok(metrics)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpisim::SimConfig;
    use pfs::PfsConfig;

    fn tiny_cfg() -> ArtConfig {
        ArtConfig {
            num_segments: 8,
            mu: 6.0,
            sigma: 2.0,
            seed: 5,
            ftt: FttConfig {
                max_depth: 3,
                refine_prob: 0.3,
                num_vars: 2,
            },
        }
    }

    /// `(seg_off, total, my_bytes)` as the per-rank oracle computes them.
    type Oracle = (Vec<u64>, u64, u64);

    /// The layout as every rank computed it before the tables were shared:
    /// its own plan, every slot decoded by it, its own prefix sum. The
    /// oracle the shared layout must equal.
    fn layout_per_rank(rank: &mut Rank, cfg: &ArtConfig) -> Result<Oracle> {
        let plan = &plan(cfg);
        let nprocs = rank.nprocs();
        let mine = my_segments(plan, rank.rank(), nprocs);
        let my_sizes: Vec<u64> = mine
            .iter()
            .map(|&s| {
                let trees = segment_trees(plan, s, &cfg.ftt);
                trees.iter().map(|t| t.record_size(cfg.ftt.num_vars)).sum()
            })
            .collect();
        let payload: Vec<u8> = my_sizes.iter().flat_map(|b| b.to_le_bytes()).collect();
        let gathered = rank.allgather(&payload)?;
        let nsegs = plan.seg_lens.len();
        let mut seg_bytes = vec![0u64; nsegs];
        for (r, buf) in gathered.iter().enumerate() {
            let mut sizes = mpisim::wire::Cursor::new(buf);
            for s in (r..nsegs).step_by(nprocs) {
                seg_bytes[s] = sizes.u64().unwrap_or(0);
            }
        }
        let mut seg_off = Vec::with_capacity(nsegs);
        let mut acc = 0u64;
        for &b in &seg_bytes {
            seg_off.push(acc);
            acc += b;
        }
        let total = total_bytes(&seg_off, plan, cfg);
        Ok((seg_off, total, my_sizes.iter().sum()))
    }

    /// Every rank's shared layout next to the per-rank oracle's, computed
    /// in the same run; `None` for a rank the plan crash-stops.
    fn both_layouts(
        cfg: &ArtConfig,
        nprocs: usize,
        chaos: Option<Arc<chaos::ChaosEngine>>,
    ) -> Vec<Option<(Arc<Offsets>, u64, Oracle)>> {
        let sim = SimConfig {
            chaos,
            ..SimConfig::default()
        };
        mpisim::run(nprocs, sim, |rk| {
            let me = rk.rank();
            let lay = match layout(rk, cfg) {
                Err(WlError::Mpi(MpiError::RankCrashed { rank })) if rank == me => return Ok(None),
                lay => lay?,
            };
            let oracle = layout_per_rank(rk, cfg)?;
            Ok(Some((lay.offsets, lay.my_bytes, oracle)))
        })
        .unwrap()
        .results
    }

    #[test]
    fn the_shared_layout_equals_the_per_rank_oracle() {
        for seed in 0..8u64 {
            let cfg = ArtConfig {
                num_segments: 1 + (seed as usize * 7) % 23,
                mu: 2.0 + seed as f64,
                sigma: 1.0 + (seed % 3) as f64,
                seed,
                ..tiny_cfg()
            };
            let nprocs = 1 + seed as usize % 6;
            for (r, got) in both_layouts(&cfg, nprocs, None).into_iter().enumerate() {
                let (offsets, my_bytes, (seg_off, total, my)) = got.expect("no crash planned");
                assert_eq!(*offsets, Offsets { seg_off, total }, "seed {seed} rank {r}");
                assert_eq!(my_bytes, my, "seed {seed} rank {r}");
            }
        }
    }

    #[test]
    fn the_shared_layout_equals_the_oracle_around_a_crashed_rank() {
        let crash = chaos::FaultPlan::new(3)
            .with(chaos::Fault::RankCrash { rank: 1, at: 0.0 })
            .build()
            .unwrap();
        let got = both_layouts(&tiny_cfg(), 4, Some(crash));
        assert!(got[1].is_none(), "rank 1 crashed in the allgather");
        for (r, got) in got.into_iter().enumerate().filter(|&(r, _)| r != 1) {
            let (offsets, my_bytes, (seg_off, total, my)) = got.unwrap();
            // The dead rank's segments 1 and 5 read as zero bytes.
            assert_eq!(offsets.seg_off[1], offsets.seg_off[2], "rank {r}");
            assert_eq!(*offsets, Offsets { seg_off, total }, "rank {r}");
            assert_eq!(my_bytes, my, "rank {r}");
        }
    }

    #[test]
    fn a_malformed_size_slot_fails_every_rank_typed() {
        // Rank 2 enters another allgather where the layout's belongs; its
        // two segments need 16 bytes.
        for bad in [vec![1u8, 2, 3], vec![7; 8], vec![7; 24]] {
            let fs = Pfs::new(4, PfsConfig::default()).unwrap();
            let rep = mpisim::run(4, SimConfig::default(), |rk| {
                if rk.rank() == 2 {
                    rk.allgather(&bad)?;
                    return Ok(None);
                }
                Ok(dump(rk, &fs, &tiny_cfg(), ArtMethod::Tcio, "/bad").err())
            })
            .unwrap();
            for r in [0, 1, 3] {
                let err = &rep.results[r];
                assert!(
                    matches!(err, Some(WlError::Mpi(MpiError::CollectiveMismatch(_)))),
                    "{} bytes, rank {r}: {err:?}",
                    bad.len()
                );
            }
        }
    }

    #[test]
    fn bad_configs_are_refused_before_any_sampling() {
        let bad = [
            (f64::INFINITY, 1.0),
            (f64::NAN, 1.0),
            (-1.0, 1.0),
            (4.0, f64::NAN),
            (4.0, -0.5),
            (1e12, 1.0),
            (4.2e9, 1e7),
        ];
        let lengths = bad.map(|(mu, sigma)| ArtConfig {
            mu,
            sigma,
            ..tiny_cfg()
        });
        // A tree shape whose top level overflows u32 at full refinement, or
        // a refine_prob that is not a probability.
        let shapes = [(11, 1.0), (64, 0.25), (4, f64::NAN), (4, -0.1), (4, 1.5)];
        let shapes = shapes.map(|(max_depth, refine_prob)| ArtConfig {
            ftt: FttConfig {
                max_depth,
                refine_prob,
                ..tiny_cfg().ftt
            },
            ..tiny_cfg()
        });
        for cfg in lengths.iter().chain(&shapes) {
            let (mu, sigma, ftt) = (cfg.mu, cfg.sigma, &cfg.ftt);
            assert!(
                matches!(cfg.validate(), Err(WlError::Config(_))),
                "{mu} {sigma} {ftt:?}"
            );
            let fs = Pfs::new(2, PfsConfig::default()).unwrap();
            let rep = mpisim::run(2, SimConfig::default(), |rk| {
                let d = dump(rk, &fs, cfg, ArtMethod::Tcio, "/c").err();
                let r = restart(rk, &fs, cfg, ArtMethod::Tcio, "/c").err();
                Ok((d, r))
            })
            .unwrap();
            for (d, r) in rep.results {
                assert!(matches!(d, Some(WlError::Config(_))), "{mu} {sigma}: {d:?}");
                assert!(matches!(r, Some(WlError::Config(_))), "{mu} {sigma}: {r:?}");
            }
        }
        let deepest = ArtConfig {
            ftt: FttConfig {
                max_depth: FttConfig::MAX_DEPTH,
                refine_prob: 1.0,
                ..tiny_cfg().ftt
            },
            ..tiny_cfg()
        };
        for good in [
            tiny_cfg(),
            ArtConfig::default(),
            ArtConfig::scaled(0.01),
            deepest,
        ] {
            assert_eq!(good.validate(), Ok(()));
        }
    }

    #[test]
    fn table4_defaults() {
        let c = ArtConfig::default();
        assert_eq!(c.num_segments, 1024);
        assert_eq!(c.mu, 2048.0);
        assert_eq!(c.sigma, 128.0);
        assert_eq!(c.seed, 5);
    }

    #[test]
    fn plan_is_consistent() {
        let c = tiny_cfg();
        let p = plan(&c);
        assert_eq!(p.seg_lens.len(), 8);
        assert_eq!(p.seg_cell_start[0], 0);
        for s in 1..8 {
            assert_eq!(
                p.seg_cell_start[s],
                p.seg_cell_start[s - 1] + p.seg_lens[s - 1] as u64
            );
        }
        assert_eq!(
            p.total_cells,
            p.seg_lens.iter().map(|&l| l as u64).sum::<u64>()
        );
    }

    #[test]
    fn round_robin_assignment_partitions_segments() {
        let c = tiny_cfg();
        let p = plan(&c);
        let mut seen = [false; 8];
        for r in 0..3 {
            for s in my_segments(&p, r, 3) {
                assert!(!seen[s], "segment {s} assigned twice");
                seen[s] = true;
                assert_eq!(s % 3, r);
            }
        }
        assert!(seen.iter().all(|&x| x));
    }

    fn dump_restart(method: ArtMethod, nprocs: usize) {
        let c = tiny_cfg();
        let fs = Pfs::new(nprocs, PfsConfig::default()).unwrap();
        let fs2 = Arc::clone(&fs);
        let c2 = c.clone();
        let rep = mpisim::run(nprocs, SimConfig::default(), move |rk| {
            let w = dump(rk, &fs2, &c2, method, "/art")?;
            let r = restart(rk, &fs2, &c2, method, "/art")?;
            Ok((w, r))
        })
        .unwrap();
        let total_w: u64 = rep.results.iter().map(|(w, _)| w.bytes).sum();
        let fid = fs.open("/art").unwrap();
        assert_eq!(
            fs.len(fid).unwrap(),
            total_w,
            "file size == sum of rank bytes"
        );
    }

    #[test]
    fn tcio_dump_restart_verifies() {
        dump_restart(ArtMethod::Tcio, 4);
    }

    #[test]
    fn vanilla_dump_restart_verifies() {
        dump_restart(ArtMethod::Vanilla, 4);
    }

    #[test]
    fn uneven_rank_to_segment_ratio() {
        // More ranks than busy segments (some ranks idle) must still work.
        let mut c = tiny_cfg();
        c.num_segments = 3;
        let fs = Pfs::new(6, PfsConfig::default()).unwrap();
        let fs2 = Arc::clone(&fs);
        let c2 = c.clone();
        mpisim::run(6, SimConfig::default(), move |rk| {
            dump(rk, &fs2, &c2, ArtMethod::Tcio, "/a")?;
            restart(rk, &fs2, &c2, ArtMethod::Tcio, "/a")?;
            Ok(())
        })
        .unwrap();
    }

    #[test]
    fn both_methods_produce_identical_snapshots() {
        let c = tiny_cfg();
        let mut snaps = Vec::new();
        for method in [ArtMethod::Tcio, ArtMethod::Vanilla] {
            let fs = Pfs::new(2, PfsConfig::default()).unwrap();
            let fs2 = Arc::clone(&fs);
            let c2 = c.clone();
            mpisim::run(2, SimConfig::default(), move |rk| {
                dump(rk, &fs2, &c2, method, "/s")?;
                Ok(())
            })
            .unwrap();
            let fid = fs.open("/s").unwrap();
            snaps.push(fs.snapshot_file(fid).unwrap());
        }
        assert_eq!(snaps[0], snaps[1]);
    }

    #[test]
    fn snapshot_is_parseable_as_records() {
        // Walk the file from byte 0, parsing records back to back.
        let c = tiny_cfg();
        let fs = Pfs::new(2, PfsConfig::default()).unwrap();
        let fs2 = Arc::clone(&fs);
        let c2 = c.clone();
        mpisim::run(2, SimConfig::default(), move |rk| {
            dump(rk, &fs2, &c2, ArtMethod::Tcio, "/walk")?;
            Ok(())
        })
        .unwrap();
        let fid = fs.open("/walk").unwrap();
        let bytes = fs.snapshot_file(fid).unwrap();
        let p = plan(&c);
        let mut pos = 0usize;
        let mut records = 0u64;
        while pos < bytes.len() {
            let (tree, consumed) =
                FttTree::parse_header(&bytes[pos..]).expect("valid record header");
            pos += consumed;
            for l in 0..tree.levels() {
                pos += tree.flags_size(l) as usize;
                pos += c.ftt.num_vars * tree.var_size(l) as usize;
            }
            records += 1;
        }
        assert_eq!(pos, bytes.len());
        assert_eq!(records, p.total_cells, "one record per root cell");
    }
}
