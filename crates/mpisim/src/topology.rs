//! Node topology: which ranks share a physical node.
//!
//! The simulated cluster models a Lonestar-like machine — multi-core nodes
//! on a fat-tree — where communication between two ranks on the *same*
//! node goes through shared memory (cheap α/β, no NIC, no connection
//! setup), while off-node traffic crosses the node's single NIC (so
//! co-located ranks serialize on one link). A [`Topology`] describes the
//! ranks→nodes mapping; [`crate::net::Fabric`] consults it to pick the
//! intra- or inter-node cost model per transfer.
//!
//! ## Zero-cost-off guarantee
//!
//! A *trivial* topology — every node holds exactly one rank (`ppn = 1`) —
//! is indistinguishable from no topology at all: every pair of distinct
//! ranks is off-node, and each "node NIC" serves exactly one rank, so the
//! cost model degenerates to the flat one. The fabric (and every
//! node-aware policy above it) therefore treats a trivial topology exactly
//! like `None`, which the zero-cost-off tests in `tests/observability.rs`
//! pin down to bit-identical clocks, bytes, and counters.

use std::sync::Arc;

/// Immutable ranks→nodes mapping, cheap to clone (`Arc`-backed).
#[derive(Debug, Clone)]
pub struct Topology {
    inner: Arc<TopoInner>,
}

#[derive(Debug)]
struct TopoInner {
    /// `node_of[rank]` = node index (dense, `0..num_nodes`).
    node_of: Vec<usize>,
    /// `nodes[n]` = ranks on node `n`, ascending.
    nodes: Vec<Vec<usize>>,
    /// Max ranks per node.
    ppn: usize,
    /// True iff every node holds exactly one rank.
    trivial: bool,
}

impl Topology {
    /// Blocked placement: ranks `[n·ppn, (n+1)·ppn)` share node `n` — the
    /// default `mpirun` fill order. `ppn = 0` is treated as 1.
    pub fn blocked(nprocs: usize, ppn: usize) -> Topology {
        let ppn = ppn.max(1);
        Topology::from_map((0..nprocs).map(|r| r / ppn).collect())
    }

    /// Arbitrary placement from an explicit per-rank node id. Node ids are
    /// compacted to dense indices in order of first appearance.
    pub fn from_map(raw: Vec<usize>) -> Topology {
        let mut dense: Vec<usize> = Vec::with_capacity(raw.len());
        let mut seen: Vec<usize> = Vec::new();
        for &id in &raw {
            let n = match seen.iter().position(|&s| s == id) {
                Some(n) => n,
                None => {
                    seen.push(id);
                    seen.len() - 1
                }
            };
            dense.push(n);
        }
        let mut nodes: Vec<Vec<usize>> = vec![Vec::new(); seen.len()];
        for (rank, &n) in dense.iter().enumerate() {
            nodes[n].push(rank);
        }
        let ppn = nodes.iter().map(Vec::len).max().unwrap_or(1);
        let trivial = nodes.iter().all(|m| m.len() == 1);
        Topology {
            inner: Arc::new(TopoInner {
                node_of: dense,
                nodes,
                ppn,
                trivial,
            }),
        }
    }

    /// Number of ranks covered by the mapping.
    pub fn nprocs(&self) -> usize {
        self.inner.node_of.len()
    }

    /// Node index of `rank`.
    pub fn node_of(&self, rank: usize) -> usize {
        self.inner.node_of[rank]
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.inner.nodes.len()
    }

    /// Ranks on node `node`, ascending.
    pub fn ranks_on_node(&self, node: usize) -> &[usize] {
        &self.inner.nodes[node]
    }

    /// Max ranks per node.
    pub fn ppn(&self) -> usize {
        self.inner.ppn
    }

    /// True iff every node holds exactly one rank — the implicit topology
    /// of a run with no `Topology` configured. Trivial topologies must
    /// behave bit-identically to `None` everywhere (see module docs).
    pub fn is_trivial(&self) -> bool {
        self.inner.trivial
    }

    /// Do `a` and `b` share a node?
    pub fn colocated(&self, a: usize, b: usize) -> bool {
        self.inner.node_of[a] == self.inner.node_of[b]
    }

    /// All ranks in node-major interleaved order: every node's first
    /// member, then every node's second member, and so on. Consecutive
    /// positions land on *different* nodes, so policies that assign work
    /// round-robin along this order (aggregator placement, L2 segment
    /// owners) spread load one-per-node before doubling up on any NIC.
    pub fn interleaved_order(&self) -> Vec<usize> {
        let mut order = Vec::with_capacity(self.nprocs());
        for depth in 0..self.ppn() {
            for members in &self.inner.nodes {
                if let Some(&r) = members.get(depth) {
                    order.push(r);
                }
            }
        }
        order
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn blocked_fills_nodes_in_order() {
        let t = Topology::blocked(8, 4);
        assert_eq!(t.nprocs(), 8);
        assert_eq!(t.num_nodes(), 2);
        assert_eq!(t.ppn(), 4);
        assert_eq!(t.ranks_on_node(0), &[0, 1, 2, 3]);
        assert_eq!(t.ranks_on_node(1), &[4, 5, 6, 7]);
        assert_eq!(t.node_of(5), 1);
        assert!(t.colocated(4, 7));
        assert!(!t.colocated(3, 4));
        assert!(!t.is_trivial());
    }

    #[test]
    fn blocked_handles_ragged_last_node() {
        let t = Topology::blocked(6, 4);
        assert_eq!(t.num_nodes(), 2);
        assert_eq!(t.ranks_on_node(1), &[4, 5]);
        assert_eq!(t.ppn(), 4);
    }

    #[test]
    fn ppn_one_is_trivial() {
        let t = Topology::blocked(4, 1);
        assert!(t.is_trivial());
        assert_eq!(t.num_nodes(), 4);
        assert_eq!(t.ppn(), 1);
        for r in 0..4 {
            assert_eq!(t.node_of(r), r);
        }
    }

    #[test]
    fn from_map_compacts_sparse_ids() {
        let t = Topology::from_map(vec![7, 7, 3, 3, 9]);
        assert_eq!(t.num_nodes(), 3);
        assert_eq!(t.ranks_on_node(0), &[0, 1]);
        assert_eq!(t.ranks_on_node(1), &[2, 3]);
        assert_eq!(t.ranks_on_node(2), &[4]);
        assert_eq!(t.ppn(), 2);
        assert!(!t.is_trivial());
    }

    #[test]
    fn zero_ppn_treated_as_one() {
        let t = Topology::blocked(3, 0);
        assert!(t.is_trivial());
    }

    #[test]
    fn interleaved_order_alternates_nodes() {
        let t = Topology::blocked(6, 3);
        assert_eq!(t.interleaved_order(), vec![0, 3, 1, 4, 2, 5]);
        // Ragged: node 1 runs out after its second member.
        let t = Topology::blocked(5, 3);
        assert_eq!(t.interleaved_order(), vec![0, 3, 1, 4, 2]);
        // Trivial topology → identity.
        let t = Topology::blocked(4, 1);
        assert_eq!(t.interleaved_order(), vec![0, 1, 2, 3]);
    }
}
