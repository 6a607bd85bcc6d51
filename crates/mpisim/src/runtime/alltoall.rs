//! Personalized all-to-all exchanges: the pairwise rounds, ROMIO's eager
//! burst, and the two-level exchange through elected node leaders. All
//! three share one frame (see [`Rank::all_to_all`]).

use super::{Rank, TAG_ALLTOALLV, TAG_HIER_DOWN, TAG_HIER_LOCAL, TAG_HIER_UP, TAG_HIER_XNODE};
use crate::comm::{Comm, NodeLayout};
use crate::error::{MpiError, Result};
use crate::p2p::Request;
use crate::trace::Phase;
use crate::wire::{push_frame, push_u32, Cursor};
use std::collections::BTreeMap;

const BURST_LEN: MpiError =
    MpiError::CollectiveMismatch("alltoallv payload vector length != communicator size");

/// A two-level exchange frame id, which must name one of `g` members.
fn member(i: usize, g: usize) -> Result<usize> {
    if i < g {
        Ok(i)
    } else {
        Err(MpiError::CollectiveMismatch(
            "two-level exchange frame names no member",
        ))
    }
}

impl Rank {
    /// The frame every all-to-all shares: one payload per member of a
    /// `g`-member group, or a typed error; member `me`'s own payload kept
    /// in place; then `exchange` moves the others, filling in what arrives,
    /// and the sends it returns are completed before one `name` span covers
    /// the whole exchange.
    fn all_to_all(
        &mut self,
        name: &'static str,
        g: usize,
        me: usize,
        mut data: Vec<Vec<u8>>,
        exchange: impl FnOnce(&mut Self, Vec<Vec<u8>>, &mut [Vec<u8>]) -> Result<Vec<Request>>,
    ) -> Result<Vec<Vec<u8>>> {
        if data.len() != g {
            return Err(BURST_LEN);
        }
        let start = self.clock;
        let total: u64 = data.iter().map(|v| v.len() as u64).sum();
        let mut out: Vec<Vec<u8>> = (0..g).map(|_| Vec::new()).collect();
        out[me] = std::mem::take(&mut data[me]);
        let sends = exchange(self, data, &mut out)?;
        self.waitall(sends);
        self.tracer
            .record(name, Phase::Exchange, start, self.clock, total, None);
        Ok(out)
    }

    /// Deterministic pseudo-random system-noise sample (exponential with
    /// mean `noise_mean`), advancing this rank's noise sequence.
    fn noise_sample(&mut self) -> f64 {
        let mean = self.shared.fabric.config().noise_mean;
        if mean <= 0.0 {
            return 0.0;
        }
        self.noise_seq = self
            .noise_seq
            .wrapping_mul(0x5851_F42D_4C95_7F2D)
            .wrapping_add(self.id as u64 * 2 + 1);
        let u = ((self.noise_seq >> 11) as f64 / (1u64 << 53) as f64).max(1e-12);
        -mean * u.ln()
    }

    /// Personalized all-to-all, implemented as the classic **pairwise
    /// exchange**: `P − 1` rounds in which rank `i` sends to `(i + k) % P`
    /// and receives from `(i − k) % P`. The rounds synchronize pairwise, so
    /// per-round system noise
    /// ([`NetConfig::noise_mean`](crate::NetConfig::noise_mean), sampled
    /// here and nowhere else) compounds transitively across the machine —
    /// the "collective wall". The two-phase collective does not use this
    /// exchange (it bursts through [`Rank::alltoallv_burst_in`]); simbench's
    /// `alltoallv_pair_ns` cell measures it. `data[d]` is the payload for
    /// rank `d`; returns payloads indexed by source.
    pub fn alltoallv(&mut self, data: Vec<Vec<u8>>) -> Result<Vec<Vec<u8>>> {
        let (me, n) = (self.id, self.nprocs);
        self.all_to_all("alltoallv", n, me, data, |rk, mut data, out| {
            let mut sends = Vec::with_capacity(n.saturating_sub(1));
            for k in 1..n {
                let dst = (me + k) % n;
                let src = (me + n - k) % n;
                // Per-round software jitter (scheduling, progress engine).
                let noise = rk.noise_sample();
                rk.advance_as(noise, Phase::Exchange);
                sends.push(rk.isend(dst, TAG_ALLTOALLV, std::mem::take(&mut data[dst]))?);
                out[src] = rk.recv(Some(src), Some(TAG_ALLTOALLV))?.data;
            }
            Ok(sends)
        })
    }

    /// Personalized all-to-all the way ROMIO's two-phase exchange does it
    /// (Coloma et al., Cluster'06, the paper's \[22\]): post everything at
    /// once — "first issues MPI_Irecv to receive data from all processes,
    /// then issues MPI_Isend to send data to all processes, and then waits
    /// until all communication complete". The eager burst piles up deep
    /// pending queues at every rank, so matching costs grow quadratically
    /// with the communicator's size (see
    /// [`NetConfig::match_overhead`](crate::NetConfig::match_overhead)) —
    /// the "heavy traffic bursting" behaviour the paper blames for OCIO's
    /// collapse at scale. `data[i]` is the payload for member `i`; returns
    /// payloads indexed by source member.
    pub fn alltoallv_burst_in(&mut self, comm: &Comm, data: Vec<Vec<u8>>) -> Result<Vec<Vec<u8>>> {
        let (g, mi, flavor) = (comm.size(), comm.group_rank(), comm.flavor());
        self.all_to_all(flavor.burst, g, mi, data, |rk, mut data, out| {
            let mut sends = Vec::with_capacity(g.saturating_sub(1));
            for k in 1..g {
                let dst = (mi + k) % g;
                sends.push(rk.isend(
                    comm.world_rank(dst),
                    flavor.burst_tag,
                    std::mem::take(&mut data[dst]),
                )?);
            }
            for k in 1..g {
                let src = (mi + g - k) % g;
                let from = comm.world_rank(src);
                match rk.recv(Some(from), Some(flavor.burst_tag)) {
                    Ok(r) => out[src] = r.data,
                    // Shrunk-world semantics, matching the world's
                    // rendezvous collectives: a crash-stopped peer
                    // contributes an empty payload (anything it sent
                    // *before* crashing is still delivered, so the shrink
                    // is deterministic in virtual time). A group does not
                    // shrink.
                    Err(MpiError::PeerCrashed { rank }) if flavor.world && rank == from => {}
                    Err(e) => return Err(e),
                }
            }
            Ok(sends)
        })
    }

    /// Two-level all-to-all for hierarchical machines (Kang et al.,
    /// *Improving MPI Collective I/O Performance With Intra-node Request
    /// Aggregation*): members on a node first combine their off-node
    /// payloads at a node leader over the cheap intra-node links, only
    /// leaders shuffle across nodes (one message per node pair instead of
    /// one per rank pair), and leaders scatter the received data back to
    /// their peers. On-node payloads travel directly over shared memory.
    /// Falls back to [`Rank::alltoallv_burst_in`] when no (non-trivial)
    /// topology is configured. Same contract as the flat exchange, so the
    /// two are always byte-identical.
    pub fn alltoallv_burst_hier_in(
        &mut self,
        comm: &Comm,
        data: Vec<Vec<u8>>,
    ) -> Result<Vec<Vec<u8>>> {
        // Checked before the election's barrier, not only in the frame.
        if data.len() != comm.size() {
            return Err(BURST_LEN);
        }
        let Some(layout) = comm.nodes() else {
            return self.alltoallv_burst_in(comm, data);
        };
        let leaders = self.elect(comm, layout)?;
        self.all_to_all(
            "alltoallv_hier",
            comm.size(),
            comm.group_rank(),
            data,
            |rk, data, out| rk.hier_exchange(comm, layout, &leaders, data, out),
        )
    }

    /// Barrier over `comm`, then the node-leader election of the two-level
    /// exchanges: the elected leader (member index) of every node the
    /// communicator touches, nodes ascending — for the world, indexed by
    /// the topology's node index. `None`, without synchronizing, on a flat
    /// machine.
    ///
    /// The election is chaos-aware: each node takes its lowest member that
    /// is not inside or ahead of an injected stall window or crash; if all
    /// are, the default (lowest) is kept. All members compute the same
    /// result without messages — their clocks agree after the barrier and
    /// the fault plan is a pure function of `(rank, time)`. A non-default
    /// election bumps
    /// [`RankStats::leader_fallbacks`](crate::RankStats::leader_fallbacks) on
    /// the elected rank.
    pub fn elect_node_leaders_in(&mut self, comm: &Comm) -> Result<Option<Vec<usize>>> {
        comm.nodes().map(|l| self.elect(comm, l)).transpose()
    }

    fn elect(&mut self, comm: &Comm, layout: &NodeLayout) -> Result<Vec<usize>> {
        self.barrier_in(comm)?;
        let now = self.clock;
        let healthy = |&j: &usize| match &self.shared.chaos {
            Some(e) => {
                let w = comm.world_rank(j);
                !e.stall_ahead(w, now) && !e.crash_ahead(w)
            }
            None => true,
        };
        let leaders: Vec<usize> = layout
            .nodes
            .iter()
            .map(|idxs| idxs.iter().copied().find(healthy).unwrap_or(idxs[0]))
            .collect();
        let mi = comm.group_rank();
        let my_node = layout.node_of[mi];
        if mi == leaders[my_node] && mi != layout.nodes[my_node][0] {
            self.stats.leader_fallbacks += 1;
        }
        Ok(leaders)
    }

    /// The two-level exchange proper, inside the all-to-all frame. `data`
    /// is indexed by member; `leaders[n]` leads node `n` of `layout`. The
    /// election's barrier has already synchronized the members' clocks.
    fn hier_exchange(
        &mut self,
        comm: &Comm,
        layout: &NodeLayout,
        leaders: &[usize],
        mut data: Vec<Vec<u8>>,
        out: &mut [Vec<u8>],
    ) -> Result<Vec<Request>> {
        let g = comm.size();
        let mi = comm.group_rank();
        let my_node = layout.node_of[mi];
        // The other members on my node, ascending.
        let peers: Vec<usize> = layout.nodes[my_node]
            .iter()
            .copied()
            .filter(|&j| j != mi)
            .collect();
        let my_leader = leaders[my_node];
        let mut sends = Vec::new();

        // On-node payloads go directly: the links are shared memory, so
        // funnelling them through the leader would only add copies.
        for &j in &peers {
            sends.push(self.isend(
                comm.world_rank(j),
                TAG_HIER_LOCAL,
                std::mem::take(&mut data[j]),
            )?);
        }

        if mi != my_leader {
            // Combine all off-node payloads into one up-blob for the
            // leader: (dst, len, bytes)*.
            let mut up = Vec::new();
            for (j, payload) in data.iter().enumerate() {
                if layout.node_of[j] != my_node && !payload.is_empty() {
                    push_frame(&mut up, j, payload)?;
                }
            }
            sends.push(self.isend(comm.world_rank(my_leader), TAG_HIER_UP, up)?);
            // The leader's scatter carries everything off-node sent to me:
            // (src, len, bytes)*.
            let down = self.recv(Some(comm.world_rank(my_leader)), Some(TAG_HIER_DOWN))?;
            let mut frames = Cursor::new(&down.data);
            while !frames.is_empty() {
                let (src, bytes) = frames.frame()?;
                out[member(src, g)?] = bytes.to_vec();
            }
        } else {
            // Bucket off-node payloads per destination node: mine first,
            // then each peer's up-blob. Entries: (src, dst, len, bytes)*.
            let n = layout.nodes.len();
            let mut cross: Vec<Vec<u8>> = vec![Vec::new(); n];
            for (j, payload) in data.iter().enumerate() {
                let node = layout.node_of[j];
                if node != my_node && !payload.is_empty() {
                    push_u32(&mut cross[node], mi as u64)?;
                    push_frame(&mut cross[node], j, payload)?;
                }
            }
            for &p in &peers {
                let up = self.recv(Some(comm.world_rank(p)), Some(TAG_HIER_UP))?;
                let mut frames = Cursor::new(&up.data);
                while !frames.is_empty() {
                    let (dst, bytes) = frames.frame()?;
                    let blob = &mut cross[layout.node_of[member(dst, g)?]];
                    push_u32(blob, p as u64)?;
                    push_frame(blob, dst, bytes)?;
                }
            }
            // Inter-node shuffle between leaders, ring-ordered like the
            // flat burst. Every pair exchanges exactly one message (empty
            // allowed) so receives can match on (src, tag).
            for k in 1..n {
                let node = (my_node + k) % n;
                let blob = std::mem::take(&mut cross[node]);
                sends.push(self.isend(comm.world_rank(leaders[node]), TAG_HIER_XNODE, blob)?);
            }
            let mut down: BTreeMap<usize, Vec<u8>> = BTreeMap::new();
            for k in 1..n {
                let node = (my_node + n - k) % n;
                let x = self.recv(Some(comm.world_rank(leaders[node])), Some(TAG_HIER_XNODE))?;
                let mut frames = Cursor::new(&x.data);
                while !frames.is_empty() {
                    let src = member(frames.u32()?, g)?;
                    let (dst, bytes) = frames.frame()?;
                    if member(dst, g)? == mi {
                        out[src] = bytes.to_vec();
                    } else {
                        push_frame(down.entry(dst).or_default(), src, bytes)?;
                    }
                }
            }
            for &p in &peers {
                sends.push(self.isend(
                    comm.world_rank(p),
                    TAG_HIER_DOWN,
                    down.remove(&p).unwrap_or_default(),
                )?);
            }
        }

        for &j in &peers {
            let r = self.recv(Some(comm.world_rank(j)), Some(TAG_HIER_LOCAL))?;
            out[j] = r.data;
        }
        Ok(sends)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::{run, SimConfig};
    use crate::topology::Topology;

    fn cfg() -> SimConfig {
        SimConfig::default()
    }

    #[test]
    fn alltoallv_personalizes() {
        let rep = run(3, cfg(), |rk| {
            let me = rk.rank() as u8;
            let data: Vec<Vec<u8>> = (0..3).map(|d| vec![me, d as u8]).collect();
            rk.alltoallv(data)
        })
        .unwrap();
        for (me, received) in rep.results.iter().enumerate() {
            for (src, msg) in received.iter().enumerate() {
                assert_eq!(msg, &vec![src as u8, me as u8]);
            }
        }
    }

    #[test]
    fn two_level_frame_ids_must_name_a_member() {
        assert_eq!(member(5, 6), Ok(5));
        assert!(matches!(member(5, 5), Err(MpiError::CollectiveMismatch(_))));
    }

    #[test]
    fn group_alltoall_personalizes_within_group() {
        let rep = run(4, cfg(), |rk| {
            let comm = rk.split((rk.rank() % 2) as u64)?;
            let me = comm.group_rank() as u8;
            let data: Vec<Vec<u8>> = (0..comm.size()).map(|d| vec![me, d as u8]).collect();
            rk.alltoallv_burst_in(&comm, data)
        })
        .unwrap();
        for (r, received) in rep.results.iter().enumerate() {
            assert_eq!(received.len(), 2);
            let my_grank = (r / 2) as u8;
            for (src, msg) in received.iter().enumerate() {
                assert_eq!(msg, &vec![src as u8, my_grank], "rank {r} from {src}");
            }
        }
    }

    #[test]
    fn singleton_groups_work() {
        let rep = run(3, cfg(), |rk| {
            let comm = rk.split(rk.rank() as u64)?; // everyone alone
            rk.barrier_in(&comm)?;
            let s = rk.allreduce_u64_in(&comm, 7, crate::ReduceOp::Sum)?;
            let a2a = rk.alltoallv_burst_in(&comm, vec![vec![9]])?;
            Ok((comm.size(), s, a2a))
        })
        .unwrap();
        for (size, s, a2a) in rep.results {
            assert_eq!(size, 1);
            assert_eq!(s, 7);
            assert_eq!(a2a, vec![vec![9]]);
        }
    }

    /// The two-level exchange must return exactly what the flat burst
    /// returns, for every (nprocs, ppn) shape, including ragged nodes.
    #[test]
    fn hier_alltoall_matches_flat_burst_bytes() {
        for (nprocs, ppn) in [(4, 2), (6, 4), (8, 4), (5, 5), (7, 3)] {
            let topo_cfg = SimConfig {
                topology: Some(Topology::blocked(nprocs, ppn)),
                ..Default::default()
            };
            let mk_data = |me: usize, n: usize| -> Vec<Vec<u8>> {
                (0..n)
                    .map(|d| {
                        // Ragged, per-pair-unique payloads; some empty.
                        if (me + d).is_multiple_of(3) {
                            Vec::new()
                        } else {
                            (0..(me * 7 + d * 3 + 1))
                                .map(|i| (me * 31 + d * 17 + i) as u8)
                                .collect()
                        }
                    })
                    .collect()
            };
            let hier = run(nprocs, topo_cfg, |rk| {
                let data = mk_data(rk.rank(), rk.nprocs());
                rk.alltoallv_burst_hier_in(&rk.world(), data)
            })
            .unwrap();
            let flat = run(nprocs, cfg(), |rk| {
                let data = mk_data(rk.rank(), rk.nprocs());
                rk.alltoallv_burst_in(&rk.world(), data)
            })
            .unwrap();
            assert_eq!(hier.results, flat.results, "nprocs={nprocs} ppn={ppn}");
        }
    }

    #[test]
    fn hier_alltoall_in_groups_matches_flat() {
        let topo_cfg = SimConfig {
            topology: Some(Topology::blocked(8, 4)),
            ..Default::default()
        };
        let body = |hier: bool| {
            move |rk: &mut Rank| {
                let comm = rk.split((rk.rank() % 2) as u64)?;
                let me = comm.group_rank() as u8;
                let data: Vec<Vec<u8>> = (0..comm.size())
                    .map(|d| vec![me, d as u8, me.wrapping_mul(d as u8)])
                    .collect();
                if hier {
                    rk.alltoallv_burst_hier_in(&comm, data)
                } else {
                    rk.alltoallv_burst_in(&comm, data)
                }
            }
        };
        let hier = run(8, topo_cfg.clone(), body(true)).unwrap();
        let flat = run(8, topo_cfg, body(false)).unwrap();
        assert_eq!(hier.results, flat.results);
    }

    #[test]
    fn hier_alltoall_without_topology_is_the_flat_burst() {
        // Fallback: identical clocks, not just identical bytes.
        let body = |hier: bool| {
            move |rk: &mut Rank| {
                let data: Vec<Vec<u8>> = (0..rk.nprocs()).map(|d| vec![d as u8; 64]).collect();
                let out = if hier {
                    rk.alltoallv_burst_hier_in(&rk.world(), data)?
                } else {
                    rk.alltoallv_burst_in(&rk.world(), data)?
                };
                Ok((out, rk.now()))
            }
        };
        let a = run(4, cfg(), body(true)).unwrap();
        let b = run(4, cfg(), body(false)).unwrap();
        assert_eq!(a.results, b.results);
        assert_eq!(a.clocks, b.clocks);
    }

    #[test]
    fn hier_leaders_cut_off_node_message_count() {
        // 8 ranks, 2 nodes of 4: the flat burst sends 4·4 = 16 off-node
        // messages; the two-level exchange sends exactly one per leader
        // pair plus 3 up-blobs and 3 down-blobs per node = 2 + 12,
        // but the real win is fewer *inter-node* messages.
        let data_of =
            |rk: &Rank| -> Vec<Vec<u8>> { (0..rk.nprocs()).map(|d| vec![d as u8; 128]).collect() };
        let topo = || SimConfig {
            topology: Some(Topology::blocked(8, 4)),
            ..Default::default()
        };
        let hier = run(8, topo(), move |rk| {
            let d = data_of(rk);
            rk.alltoallv_burst_hier_in(&rk.world(), d)
        })
        .unwrap();
        let flat = run(8, topo(), move |rk| {
            let d = data_of(rk);
            rk.alltoallv_burst_in(&rk.world(), d)
        })
        .unwrap();
        assert!(
            hier.fabric.inter_messages < flat.fabric.inter_messages,
            "hier {} >= flat {}",
            hier.fabric.inter_messages,
            flat.fabric.inter_messages
        );
        assert_eq!(hier.fabric.inter_messages, 2, "one blob per leader pair");
    }
}
