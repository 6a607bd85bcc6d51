//! Fully-threaded-tree (FTT) refinement trees and their on-disk records.
//!
//! ART (Adaptive Refinement Tree) is a cell-based AMR cosmology code: the
//! 3-D volume is divided into uniform *root cells*, and cells needing
//! higher resolution refine into 8 children, recursively, forming octrees
//! whose shape changes during the run (§V.C). A snapshot stores each tree
//! as a **self-describing record** (Fig. 8): the tree-structure information
//! followed by one small array per (level, variable) pair — the paper's
//! example tree with 2 variables, depth 6, and level populations
//! {1,2,4,8,16,32} serializes into 129 little arrays of different types and
//! sizes. This is precisely the access pattern a single MPI derived
//! datatype cannot describe, which is why OCIO is impractical for ART and
//! TCIO is not.
//!
//! Tree shapes and cell data are generated deterministically from the cell
//! id, so writers and verifying readers agree without communication.

use mpisim::wire::Cursor;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Magic number leading every tree record.
pub const FTT_MAGIC: u32 = 0x4654_5431; // "FTT1"

/// Parameters of tree generation.
#[derive(Debug, Clone, PartialEq)]
pub struct FttConfig {
    /// Maximum refinement depth (root level = 0).
    pub max_depth: usize, // setting: ART's shape and validation tests vary it
    /// Probability that a cell refines into 8 children.
    pub refine_prob: f64, // setting: ART's shape and validation tests vary it
    /// Physics variables stored per cell (the paper's example uses 2).
    pub num_vars: usize,
}

impl FttConfig {
    /// The deepest tree whose levels fit the `u32` cell counts of the
    /// record header even when every cell refines: 8^10 = 2^30 cells.
    pub const MAX_DEPTH: usize = 10;
}

impl Default for FttConfig {
    fn default() -> Self {
        FttConfig {
            max_depth: 4,
            refine_prob: 0.25,
            num_vars: 2,
        }
    }
}

/// The shape of one refinement tree: cells per level.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FttTree {
    pub cell_id: u64,
    pub ncells: Vec<u32>,
}

fn mix(cell_id: u64) -> u64 {
    cell_id
        .wrapping_mul(0xFF51_AFD7_ED55_8CCD)
        .rotate_left(31)
        .wrapping_mul(0xC4CE_B9FE_1A85_EC53)
}

impl FttTree {
    /// Generate the tree rooted at `cell_id`. Deterministic in
    /// `(cell_id, cfg)`.
    pub fn generate(cell_id: u64, cfg: &FttConfig) -> FttTree {
        let mut rng = StdRng::seed_from_u64(mix(cell_id));
        let mut ncells = vec![1u32];
        let mut parents = 1u32;
        for _ in 1..=cfg.max_depth {
            let mut refined = 0u32;
            for _ in 0..parents {
                if rng.random::<f64>() < cfg.refine_prob {
                    refined += 1;
                }
            }
            if refined == 0 {
                break;
            }
            parents = refined * 8;
            ncells.push(parents);
        }
        FttTree { cell_id, ncells }
    }

    pub fn levels(&self) -> usize {
        self.ncells.len()
    }

    /// Header bytes: magic, cell id, level count, per-level populations.
    pub fn header(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.header_size() as usize);
        out.extend_from_slice(&FTT_MAGIC.to_le_bytes());
        out.extend_from_slice(&self.cell_id.to_le_bytes());
        out.extend_from_slice(&(self.ncells.len() as u32).to_le_bytes());
        for &n in &self.ncells {
            out.extend_from_slice(&n.to_le_bytes());
        }
        out
    }

    pub fn header_size(&self) -> u64 {
        4 + 8 + 4 + 4 * self.ncells.len() as u64
    }

    /// Bytes of the structure-flag array at `level`.
    pub fn flags_size(&self, level: usize) -> u64 {
        self.ncells[level] as u64
    }

    /// Bytes of one variable array at `level`.
    pub fn var_size(&self, level: usize) -> u64 {
        8 * self.ncells[level] as u64
    }

    /// Total record size (header + per level: flags then `num_vars`
    /// variable arrays).
    pub fn record_size(&self, num_vars: usize) -> u64 {
        self.header_size()
            + (0..self.levels())
                .map(|l| self.flags_size(l) + num_vars as u64 * self.var_size(l))
                .sum::<u64>()
    }

    /// Deterministic refinement flag for cell `idx` at `level`.
    pub fn flag(&self, level: usize, idx: u32) -> u8 {
        (mix(self.cell_id ^ ((level as u64) << 32) ^ idx as u64) >> 56) as u8
    }

    /// Deterministic variable value for `(level, var, idx)`.
    pub fn var(&self, level: usize, var: usize, idx: u32) -> f64 {
        let h = mix(self
            .cell_id
            .wrapping_add(((level as u64) << 48) | ((var as u64) << 40) | idx as u64));
        // Map to a well-behaved float in [0, 1).
        (h >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Flag array bytes at `level`.
    pub fn flags_bytes(&self, level: usize) -> Vec<u8> {
        (0..self.ncells[level])
            .map(|i| self.flag(level, i))
            .collect()
    }

    /// Variable array bytes at `(level, var)`.
    pub fn var_bytes(&self, level: usize, var: usize) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.var_size(level) as usize);
        for i in 0..self.ncells[level] {
            out.extend_from_slice(&self.var(level, var, i).to_le_bytes());
        }
        out
    }

    /// The full serialized record (verification oracle).
    pub fn record(&self, num_vars: usize) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.record_size(num_vars) as usize);
        out.extend_from_slice(&self.header());
        for l in 0..self.levels() {
            out.extend_from_slice(&self.flags_bytes(l));
            for v in 0..num_vars {
                out.extend_from_slice(&self.var_bytes(l, v));
            }
        }
        out
    }

    /// Parse a header back; returns `(tree-shape, bytes consumed)`.
    pub fn parse_header(bytes: &[u8]) -> Option<(FttTree, usize)> {
        let mut cur = Cursor::new(bytes);
        if cur.u32().ok()? != FTT_MAGIC as usize {
            return None;
        }
        let cell_id = cur.u64().ok()?;
        let nlevels = cur.u32().ok()?;
        let ncells = (0..nlevels)
            .map(|_| cur.u32().map(|n| n as u32))
            .collect::<Result<_, _>>()
            .ok()?;
        Some((FttTree { cell_id, ncells }, 16 + 4 * nlevels))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> FttConfig {
        FttConfig::default()
    }

    #[test]
    fn generation_is_deterministic() {
        let a = FttTree::generate(42, &cfg());
        let b = FttTree::generate(42, &cfg());
        assert_eq!(a, b);
    }

    #[test]
    fn different_cells_give_different_trees() {
        let shapes: std::collections::HashSet<Vec<u32>> = (0..200)
            .map(|c| FttTree::generate(c, &cfg()).ncells)
            .collect();
        assert!(shapes.len() > 1, "trees must vary in shape");
    }

    #[test]
    fn level_populations_are_multiples_of_eight() {
        for c in 0..100 {
            let t = FttTree::generate(c, &cfg());
            assert_eq!(t.ncells[0], 1);
            for &n in &t.ncells[1..] {
                assert!(n > 0 && n % 8 == 0, "level population {n}");
            }
            assert!(t.levels() <= cfg().max_depth + 1);
        }
    }

    #[test]
    fn record_size_matches_serialization() {
        for c in [0u64, 7, 99, 12345] {
            let t = FttTree::generate(c, &cfg());
            let rec = t.record(2);
            assert_eq!(rec.len() as u64, t.record_size(2));
        }
    }

    #[test]
    fn header_roundtrips() {
        let t = FttTree::generate(77, &cfg());
        let h = t.header();
        let (parsed, consumed) = FttTree::parse_header(&h).unwrap();
        assert_eq!(parsed, t);
        assert_eq!(consumed as u64, t.header_size());
    }

    #[test]
    fn parse_rejects_bad_magic_and_truncation() {
        let t = FttTree::generate(1, &cfg());
        let mut h = t.header();
        assert!(FttTree::parse_header(&h[..8]).is_none());
        h[0] ^= 0xFF;
        assert!(FttTree::parse_header(&h).is_none());
    }

    #[test]
    fn data_generators_are_stable_and_distinct() {
        let t = FttTree::generate(5, &cfg());
        assert_eq!(t.flags_bytes(0), t.flags_bytes(0));
        if t.levels() > 1 {
            assert_ne!(t.var_bytes(0, 0), t.var_bytes(0, 1));
        }
        let v = t.var(0, 0, 0);
        assert!((0.0..1.0).contains(&v));
    }

    #[test]
    fn zero_refine_prob_gives_root_only() {
        let c = FttConfig {
            refine_prob: 0.0,
            ..cfg()
        };
        let t = FttTree::generate(9, &c);
        assert_eq!(t.ncells, vec![1]);
        assert_eq!(t.record_size(2), t.header_size() + 1 + 16);
    }

    #[test]
    fn certain_refinement_fills_all_levels() {
        let c = FttConfig {
            refine_prob: 1.0,
            max_depth: 3,
            num_vars: 1,
        };
        let t = FttTree::generate(3, &c);
        assert_eq!(t.ncells, vec![1, 8, 64, 512]);
    }
}
