//! Personalized all-to-all exchanges: the pairwise rounds and ROMIO's eager
//! burst, which share one frame (see [`Rank::all_to_all`]), and the
//! node-leader election of intra-node request aggregation.

use super::{Rank, TAG_ALLTOALLV};
use crate::comm::Comm;
use crate::error::{MpiError, Result};
use crate::p2p::Request;
use crate::trace::Phase;

const BURST_LEN: MpiError =
    MpiError::CollectiveMismatch("alltoallv payload vector length != communicator size");

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

    /// Barrier, then the node-leader election of intra-node request
    /// aggregation: the elected leader (world rank) of every node, by the
    /// topology's node index. `None`, without synchronizing, on a flat
    /// machine.
    ///
    /// The election is chaos-aware: each node takes its lowest rank that
    /// is not inside or ahead of an injected stall window or crash; if all
    /// are, the default (lowest) is kept. All ranks compute the same
    /// result without messages — their clocks agree after the barrier and
    /// the fault plan is a pure function of `(rank, time)`. A non-default
    /// election bumps
    /// [`RankStats::leader_fallbacks`](crate::RankStats::leader_fallbacks) on
    /// the elected rank.
    pub fn elect_node_leaders(&mut self) -> Result<Option<Vec<usize>>> {
        let Some(topo) = self.topology() else {
            return Ok(None);
        };
        self.barrier()?;
        let now = self.clock;
        let healthy = |&w: &usize| match &self.shared.chaos {
            Some(e) => !e.stall_ahead(w, now) && !e.crash_ahead(w),
            None => true,
        };
        let leaders: Vec<usize> = (0..topo.num_nodes())
            .map(|node| topo.ranks_on_node(node))
            .map(|ranks| ranks.iter().copied().find(healthy).unwrap_or(ranks[0]))
            .collect();
        let me = self.id;
        if leaders.contains(&me) && topo.ranks_on_node(topo.node_of(me))[0] != me {
            self.stats.leader_fallbacks += 1;
        }
        Ok(Some(leaders))
    }
}

#[cfg(test)]
mod tests {
    use crate::runtime::{run, SimConfig};

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
}
