//! Network cost model for the simulated fabric.
//!
//! The model is LogGP-flavoured and captures the three effects the paper's
//! argument rests on (§V.B.2a):
//!
//! 1. **Per-message latency and bandwidth** — `T = α + size·β` for an
//!    uncontended transfer.
//! 2. **NIC serialization** — each rank has one transmit and one receive
//!    "port"; concurrent transfers through the same port queue behind each
//!    other in virtual time. This makes the all-to-all exchange of the
//!    original collective I/O (OCIO) serialize `P` incoming messages at
//!    every rank, whereas TCIO's one-at-a-time one-sided transfers do not.
//! 3. **Connection setup** — each rank keeps an LRU cache of established
//!    connections; misses pay a setup cost.
//!
//! The cost of a synchronized burst is not a fabric term: the receiver
//! pays it in matching (`NetConfig::match_overhead`). A transfer's cost
//! depends only on its own size, its connection and its NIC ports, never
//! on how many other transfers are in flight, so the fabric keeps no
//! record of them.
//!
//! All bookkeeping is in *virtual seconds*, and reservations are made in the
//! deterministic order the event core runs the ranks in.

use crate::timeline::Timeline;
use parking_lot::Mutex;
use std::sync::Arc;

/// One-way message latency (α), in seconds.
pub(crate) const LATENCY: f64 = 2.0e-6;
/// CPU overhead to post a send.
pub(crate) const SEND_OVERHEAD: f64 = 0.5e-6;
/// CPU overhead to complete a receive.
pub(crate) const RECV_OVERHEAD: f64 = 0.5e-6;
/// Cost of (re-)establishing a connection to a peer on an LRU miss
/// (queue-pair setup).
const CONN_SETUP: f64 = 60.0e-6;
/// Per-rank LRU connection-cache capacity.
const CONN_CACHE: usize = 64;
/// One-way latency between two ranks on the *same node* (shared-memory
/// transport) when a [`Topology`](crate::Topology) is configured.
const INTRA_LATENCY: f64 = 0.3e-6;

/// The calibrated constants of the network model: what
/// `bench::Calib::paper` scales or sets. All times are seconds, all
/// bandwidth terms are seconds-per-byte. The model's fixed constants
/// (latency, send and receive overheads, connection setup and cache,
/// intra-node latency) are named constants of this module.
#[derive(Debug, Clone)]
pub struct NetConfig {
    /// Per-byte transfer time on a link (β). `1.0 / bytes_per_second`.
    pub byte_time: f64,
    /// Cost to acquire or release a remote RMA window lock (one-way control
    /// message handshake, charged twice per epoch).
    pub rma_lock_cost: f64,
    /// Local memory-copy time per byte (used for packing/unpacking).
    pub memcpy_byte_time: f64,
    /// Fixed per-extent overhead (bytes) added to gathered RMA messages to
    /// account for the offset/length headers of an indexed datatype.
    pub gather_header_bytes: usize,
    /// Mean of the per-round system-noise term of the pairwise
    /// all-to-all, [`crate::Rank::alltoallv`] — its only sampler. On a
    /// production machine, OS jitter and competing jobs delay each round
    /// by a random amount, and because the rounds synchronize pairwise the
    /// delays compound transitively — the "collective wall" (Yu & Vetter,
    /// ICPP'08) the paper's §II discusses. The two-phase exchange's
    /// bursts, request aggregation's sends and every one-sided transfer
    /// take no noise, so no figure or workload path samples it. `0.0`
    /// disables the term (unit tests); the benchmark calibration sets it.
    pub noise_mean: f64,
    /// CPU cost of one I/O-library API call (offset arithmetic, handle
    /// bookkeeping). Charged by the I/O layers per `write_at`/`read_at`;
    /// dominant when applications issue millions of tiny accesses (the
    /// ART pattern of §V.C).
    pub api_call_overhead: f64,
    /// Per-byte time for intra-node transfers (memory-bus bandwidth, no
    /// NIC). Unused without a topology.
    pub intra_byte_time: f64,
    /// Per-queued-message matching cost charged when a receive completes:
    /// an eager burst (ROMIO's "Irecv from all, Isend to all" exchange)
    /// piles up an unexpected-message queue that the MPI progress engine
    /// must search and manage, so receiving from a queue of depth `q`
    /// costs an extra `q × match_overhead`. This is the "heavy traffic
    /// bursting" cost the paper holds against OCIO (§V.B.2a) and is
    /// quadratic in P for an all-to-all burst; TCIO's one-sided transfers
    /// never build such queues.
    pub match_overhead: f64,
}

impl Default for NetConfig {
    /// Defaults loosely calibrated to a QDR InfiniBand fat-tree of the
    /// Lonestar era: ~3 GB/s per-link bandwidth (with the constants above:
    /// ~2 µs latency and expensive connection establishment).
    fn default() -> Self {
        NetConfig {
            byte_time: 1.0 / 3.0e9,
            rma_lock_cost: 2.0e-6,
            memcpy_byte_time: 1.0 / 6.0e9,
            gather_header_bytes: 16,
            noise_mean: 0.0,
            intra_byte_time: 1.0 / 8.0e9,
            api_call_overhead: 0.3e-6,
            match_overhead: 50.0e-9,
        }
    }
}

impl NetConfig {
    /// Reject a configuration the cost model cannot run (checked by
    /// [`crate::run`] before any rank starts): a time or per-byte constant
    /// that is NaN, infinite or negative. The error names the field.
    pub fn validate(&self) -> Result<(), String> {
        // Every constant below becomes part of a clock or of a duration on
        // a NIC or lock timeline; a NaN, infinite or negative one would
        // corrupt the order those keep.
        for (name, cost) in [
            ("byte_time", self.byte_time),
            ("rma_lock_cost", self.rma_lock_cost),
            ("memcpy_byte_time", self.memcpy_byte_time),
            ("noise_mean", self.noise_mean),
            ("api_call_overhead", self.api_call_overhead),
            ("intra_byte_time", self.intra_byte_time),
            ("match_overhead", self.match_overhead),
        ] {
            if !(cost.is_finite() && cost >= 0.0) {
                return Err(format!(
                    "{name} must be finite and non-negative, got {cost}"
                ));
            }
        }
        Ok(())
    }
}

/// Outcome of scheduling one transfer through the fabric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Transfer {
    /// Virtual time at which the last byte is available at the destination.
    pub arrival: f64,
    /// Virtual time at which the sender's CPU/NIC is free again.
    pub sender_done: f64,
}

/// Aggregate fabric statistics (monotonic counters), as of
/// [`Fabric::stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FabricStatsSnapshot {
    pub messages: u64,
    pub bytes: u64,
    pub conn_misses: u64,
    /// Transfers that stayed on a node (loopback, or co-located ranks
    /// under a non-trivial topology).
    pub intra_messages: u64,
    pub intra_bytes: u64,
    /// Transfers that crossed a NIC.
    pub inter_messages: u64,
    pub inter_bytes: u64,
}

/// A tiny LRU set of peer ranks: a contiguous array, least recently used
/// first. Membership is one pass over the whole array with no early exit,
/// which the compiler turns into a few wide compares, so a miss (the
/// common case when a rank cycles through more peers than the cache holds)
/// costs that pass and a shift of the array.
#[derive(Debug)]
struct LruSet {
    cap: usize,
    peers: Vec<u32>,
    /// Last chaos connection-flush generation this cache has seen; when the
    /// engine reports a newer one, the cache cold-starts.
    flush_gen: u64,
}

impl LruSet {
    fn new(cap: usize) -> Self {
        LruSet {
            cap,
            peers: Vec::with_capacity(cap),
            flush_gen: 0,
        }
    }

    /// Forget every connection if the chaos engine's flush generation
    /// `gen` is newer than the last one this cache saw.
    fn observe_flush(&mut self, gen: u64) {
        if gen > self.flush_gen {
            self.peers.clear();
            self.flush_gen = gen;
        }
    }

    /// Returns true on a hit; always leaves `peer` as most-recently-used.
    fn touch(&mut self, peer: usize) -> bool {
        if self.cap == 0 {
            return false;
        }
        let peer = u32::try_from(peer).expect("rank numbers fit in u32");
        let hit = self.peers.iter().fold(false, |hit, &p| hit | (p == peer));
        if hit {
            self.peers.retain(|&p| p != peer);
        } else if self.peers.len() == self.cap {
            self.peers.remove(0);
        }
        self.peers.push(peer);
        hit
    }
}

/// The shared fabric: NIC reservations and connection caches.
///
/// Everything that changes after construction is one plain `State`
/// behind one mutex; every public method locks once. The event core runs
/// one rank at a time, so the lock is never contended — it is a real
/// `Mutex` because that is what keeps the fabric `Sync` without `unsafe`
/// on the OS-thread substrate.
pub struct Fabric {
    cfg: NetConfig,
    /// Node topology, kept only when non-trivial (a trivial topology is
    /// bit-identical to none — see [`crate::topology`]). When present,
    /// off-node traffic serializes on per-*node* NIC timelines and
    /// co-located ranks use the intra-node cost model.
    topology: Option<crate::topology::Topology>,
    /// Fault-injection engine (message-delay spikes, connection flushes).
    chaos: Option<Arc<chaos::ChaosEngine>>,
    state: Mutex<State>,
}

fn assert_send_sync<T: Send + Sync>() {}
/// The fabric is shared by OS threads on the thread substrate; that must
/// follow from the fields (one real lock), never from an `unsafe impl`.
const _: fn() = assert_send_sync::<Fabric>;

struct State {
    /// NIC port timelines, indexed by [`Fabric::port`]: one pair per node
    /// under an active topology, else one pair per rank.
    tx: Vec<Timeline>,
    rx: Vec<Timeline>,
    /// Per-rank connection caches.
    conns: Vec<LruSet>,
    stats: FabricStatsSnapshot,
}

impl Fabric {
    pub fn new(nprocs: usize, cfg: NetConfig) -> Self {
        Fabric::new_full(nprocs, cfg, None, None)
    }

    pub fn new_full(
        nprocs: usize,
        cfg: NetConfig,
        chaos: Option<Arc<chaos::ChaosEngine>>,
        topology: Option<crate::topology::Topology>,
    ) -> Self {
        // A trivial topology (ppn = 1) must be indistinguishable from none.
        let topology = topology.filter(|t| !t.is_trivial());
        let ports = topology.as_ref().map_or(nprocs, |t| t.num_nodes());
        Fabric {
            state: Mutex::new(State {
                tx: (0..ports).map(|_| Timeline::new()).collect(),
                rx: (0..ports).map(|_| Timeline::new()).collect(),
                conns: (0..nprocs).map(|_| LruSet::new(CONN_CACHE)).collect(),
                stats: FabricStatsSnapshot::default(),
            }),
            chaos,
            topology,
            cfg,
        }
    }

    pub fn config(&self) -> &NetConfig {
        &self.cfg
    }

    /// The active (non-trivial) topology, if any.
    pub fn topology(&self) -> Option<&crate::topology::Topology> {
        self.topology.as_ref()
    }

    /// Message counters so far.
    pub fn stats(&self) -> FabricStatsSnapshot {
        self.state.lock().stats
    }

    /// Does a `src → dst` transfer stay on one node? (Loopback always
    /// does; otherwise only co-located ranks under an active topology.)
    pub fn is_intra(&self, src: usize, dst: usize) -> bool {
        src == dst
            || self
                .topology
                .as_ref()
                .is_some_and(|t| t.colocated(src, dst))
    }

    /// Number of NIC port pairs: nodes under an active topology, else
    /// ranks.
    pub(crate) fn ports(&self) -> usize {
        self.state.lock().tx.len()
    }

    /// Index of `rank`'s NIC port pair: its node under an active
    /// topology, else the rank itself. Also the index fault plans name
    /// link endpoints by.
    fn port(&self, rank: usize) -> usize {
        match &self.topology {
            Some(t) => t.node_of(rank),
            None => rank,
        }
    }

    /// Schedule a `bytes`-sized transfer from `src` to `dst` whose send side
    /// becomes ready at virtual time `start`. Returns the arrival time at
    /// the destination and the time the sender is free.
    ///
    /// `src == dst` models a local loopback: only memcpy cost, no NIC.
    /// Under an active topology, distinct co-located ranks use the
    /// shared-memory cost model (`INTRA_LATENCY`/`intra_byte_time`, no
    /// connection setup, no NIC serialization), and off-node transfers
    /// serialize on the *node* NIC ports.
    pub fn transfer(&self, src: usize, dst: usize, bytes: usize, start: f64) -> Transfer {
        let mut guard = self.state.lock();
        let st = &mut *guard;
        st.stats.messages += 1;
        st.stats.bytes += bytes as u64;
        let intra = self.is_intra(src, dst);
        if intra {
            st.stats.intra_messages += 1;
            st.stats.intra_bytes += bytes as u64;
        } else {
            st.stats.inter_messages += 1;
            st.stats.inter_bytes += bytes as u64;
        }

        if src == dst {
            let done = start + SEND_OVERHEAD + bytes as f64 * self.cfg.memcpy_byte_time;
            return Transfer {
                arrival: done,
                sender_done: done,
            };
        }

        if intra {
            let sender_done = start + SEND_OVERHEAD + bytes as f64 * self.cfg.intra_byte_time;
            return Transfer {
                arrival: sender_done + INTRA_LATENCY,
                sender_done,
            };
        }

        let cache = &mut st.conns[src];
        if let Some(engine) = &self.chaos {
            cache.observe_flush(engine.conn_flush_generation(start));
        }
        let conn = if cache.touch(dst) {
            0.0
        } else {
            st.stats.conn_misses += 1;
            CONN_SETUP
        };

        let ready = start + SEND_OVERHEAD + conn;

        let mut dur = bytes as f64 * self.cfg.byte_time;

        // Gray failure: a degraded link lane between these two nodes
        // stretches the transfer. Evaluated at `ready` (the instant the
        // transfer could start) so the factor does not depend on the port
        // reservation it is about to influence. Without a topology every
        // rank is its own node, so the plan's node indices are rank indices.
        let (src_port, dst_port) = (self.port(src), self.port(dst));
        if let Some(engine) = &self.chaos {
            if engine.any_link_degrade() {
                dur *= engine.link_factor(src_port, dst_port, ready);
            }
        }

        let tx_start = st.tx[src_port].reserve(ready, dur);
        // Injected in-network delay: evaluated at the transmit instant, paid
        // on the wire between the two NICs (the sender is not held up).
        let delay = match &self.chaos {
            Some(engine) => engine.message_delay(tx_start),
            None => 0.0,
        };
        let rx_start = st.rx[dst_port].reserve(tx_start + LATENCY + delay, dur);
        Transfer {
            arrival: rx_start + dur,
            sender_done: tx_start + dur,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::VecDeque;

    fn fabric(n: usize) -> Fabric {
        Fabric::new(n, NetConfig::default())
    }

    #[test]
    fn uncontended_transfer_costs_latency_plus_bandwidth() {
        let f = fabric(2);
        let cfg = f.config().clone();
        // First message pays connection setup; send a warm-up first.
        f.transfer(0, 1, 1, 0.0);
        let t = f.transfer(0, 1, 3000, 1.0);
        let expect = 1.0 + SEND_OVERHEAD + LATENCY + 3000.0 * cfg.byte_time;
        assert!(
            (t.arrival - expect).abs() < 1e-12,
            "arrival {} != {}",
            t.arrival,
            expect
        );
        assert!(t.sender_done < t.arrival);
    }

    #[test]
    fn first_contact_pays_connection_setup() {
        let f = fabric(2);
        let cold = f.transfer(0, 1, 1000, 0.0);
        let warm = f.transfer(0, 1, 1000, cold.sender_done + 1.0);
        let cold_cost = cold.arrival;
        let warm_cost = warm.arrival - (cold.sender_done + 1.0);
        assert!(
            (cold_cost - warm_cost - CONN_SETUP).abs() < 1e-9,
            "cold {cold_cost} vs warm {warm_cost}"
        );
    }

    #[test]
    fn incast_serializes_at_receiver() {
        let f = fabric(9);
        let cfg = f.config().clone();
        let bytes = 1 << 20;
        let dur = bytes as f64 * cfg.byte_time;
        let mut last = 0.0f64;
        for src in 0..8 {
            let t = f.transfer(src, 8, bytes, 0.0);
            last = last.max(t.arrival);
        }
        // Eight senders into one receiver must take at least 8 transfer
        // durations at the receive port.
        assert!(last >= 8.0 * dur, "last arrival {last} < {}", 8.0 * dur);
    }

    #[test]
    fn disjoint_pairs_do_not_serialize() {
        let f = fabric(16);
        let cfg = f.config().clone();
        let bytes = 1 << 20;
        let dur = bytes as f64 * cfg.byte_time;
        let mut last = 0.0f64;
        for i in 0..8 {
            let t = f.transfer(i, 8 + i, bytes, 0.0);
            last = last.max(t.arrival);
        }
        // Pairwise-disjoint transfers complete in ~one duration.
        assert!(last < 2.0 * dur + 1e-3, "last arrival {last}");
    }

    #[test]
    fn lru_evicts_oldest_peer() {
        let mut lru = LruSet::new(2);
        assert!(!lru.touch(1));
        assert!(!lru.touch(2));
        assert!(lru.touch(1)); // hit, 1 becomes MRU
        assert!(!lru.touch(3)); // evicts 2
        assert!(!lru.touch(2)); // miss again
    }

    /// The `VecDeque` LRU the contiguous array replaced, kept as the
    /// oracle.
    struct DequeLru {
        cap: usize,
        entries: VecDeque<usize>,
        flush_gen: u64,
    }

    impl DequeLru {
        fn touch(&mut self, peer: usize) -> bool {
            if self.cap == 0 {
                return false;
            }
            if let Some(pos) = self.entries.iter().position(|&p| p == peer) {
                self.entries.remove(pos);
                self.entries.push_back(peer);
                return true;
            }
            if self.entries.len() == self.cap {
                self.entries.pop_front();
            }
            self.entries.push_back(peer);
            false
        }
    }

    #[test]
    fn lru_set_hits_and_evicts_what_the_deque_did() {
        use rand::{rngs::StdRng, RngExt, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0x14B);
        let mut hits = 0;
        for cap in [0, 1, 2, 64, 65] {
            for peers in [1, 2, 3, 63, 64, 65, 66, 128, 300] {
                let mut new = LruSet::new(cap);
                let mut old = DequeLru {
                    cap,
                    entries: VecDeque::new(),
                    flush_gen: 0,
                };
                let mut gen = 0;
                for step in 0..4000 {
                    // A connection flush part-way (and a stale generation,
                    // which must change nothing, just after it).
                    if step == 2000 || step == 2001 {
                        gen = if step == 2000 { 3 } else { 2 };
                        new.observe_flush(gen);
                        if gen > old.flush_gen {
                            old.entries.clear();
                            old.flush_gen = gen;
                        }
                    }
                    // Mostly a cycle through the peers, sometimes any one.
                    let peer = match rng.next_u64() % 4 {
                        0 => rng.next_u64() as usize % peers,
                        _ => step % peers,
                    };
                    let hit = new.touch(peer);
                    assert_eq!(hit, old.touch(peer), "cap {cap} peers {peers} step {step}");
                    hits += usize::from(hit);
                    let order = new.peers.iter().map(|&p| p as usize);
                    assert!(order.eq(old.entries.iter().copied()));
                }
                assert_eq!(new.flush_gen, gen.max(3));
            }
        }
        assert!(hits > 0);
    }

    /// Every time and per-byte constant must be finite and non-negative,
    /// and `run` refuses one that is not before any rank starts, naming it.
    #[test]
    fn bad_net_constants_are_refused_by_name() {
        type Field = fn(&mut NetConfig) -> &mut f64;
        let fields: [(&str, Field); 7] = [
            ("byte_time", |c| &mut c.byte_time),
            ("rma_lock_cost", |c| &mut c.rma_lock_cost),
            ("memcpy_byte_time", |c| &mut c.memcpy_byte_time),
            ("noise_mean", |c| &mut c.noise_mean),
            ("api_call_overhead", |c| &mut c.api_call_overhead),
            ("intra_byte_time", |c| &mut c.intra_byte_time),
            ("match_overhead", |c| &mut c.match_overhead),
        ];
        NetConfig::default().validate().unwrap();
        for (name, field) in fields {
            let with = |v: f64| {
                let mut net = NetConfig::default();
                *field(&mut net) = v;
                crate::SimConfig {
                    net,
                    ..Default::default()
                }
            };
            assert!(with(0.0).net.validate().is_ok(), "{name} = 0");
            for v in [f64::NAN, f64::INFINITY, -1.0e-9] {
                // A send, its receive and a barrier: what the unchecked
                // constants let run with skewed clocks, or panic in.
                let err = crate::run(2, with(v), |rk| {
                    if rk.rank() == 0 {
                        rk.send(1, 0, &[1, 2, 3])?;
                    } else {
                        rk.recv(Some(0), Some(0))?;
                    }
                    rk.barrier()
                })
                .err();
                assert!(
                    matches!(&err, Some(crate::SimError::Config(m)) if m.contains(name)),
                    "{name} = {v}: {err:?}"
                );
            }
        }
    }

    #[test]
    fn zero_capacity_lru_always_misses() {
        let mut lru = LruSet::new(0);
        assert!(!lru.touch(1));
        assert!(!lru.touch(1));
    }

    #[test]
    fn loopback_is_memcpy_only() {
        let f = fabric(2);
        let cfg = f.config().clone();
        let t = f.transfer(1, 1, 1 << 20, 5.0);
        let expect = 5.0 + SEND_OVERHEAD + (1 << 20) as f64 * cfg.memcpy_byte_time;
        assert!((t.arrival - expect).abs() < 1e-12);
        assert_eq!(t.arrival, t.sender_done);
    }

    /// A burst of equal transfers on disjoint pairs, all starting at one
    /// instant: no two share a NIC port, so each costs what the first does,
    /// however many are in flight beside it.
    #[test]
    fn a_transfer_costs_the_same_however_many_are_in_flight() {
        const PAIRS: usize = 96;
        let f = fabric(2 * PAIRS);
        let bytes = 1 << 16;
        let first = f.transfer(0, 1, bytes, 100.0);
        for i in 1..PAIRS {
            let t = f.transfer(2 * i, 2 * i + 1, bytes, 100.0);
            assert_eq!(t, first, "pair {i}");
        }
        assert_eq!(f.stats().inter_messages, PAIRS as u64);
    }

    #[test]
    fn link_degrade_stretches_only_the_named_direction() {
        let plan = chaos::FaultPlan::new(1).with(
            chaos::Effect::LinkDegrade {
                src: 0,
                dst: 1,
                factor: 4.0,
            }
            .during(0.0, 1e9),
        );
        let f = Fabric::new_full(4, NetConfig::default(), Some(plan.build().unwrap()), None);
        let h = fabric(4);
        let bytes = 1 << 20;
        // Warm connections on both fabrics so setup doesn't pollute timing.
        for fab in [&f, &h] {
            fab.transfer(0, 1, 1, 0.0);
            fab.transfer(1, 0, 1, 0.0);
            fab.transfer(2, 3, 1, 0.0);
        }
        let degraded = f.transfer(0, 1, bytes, 1.0);
        let healthy = h.transfer(0, 1, bytes, 1.0);
        let wire = bytes as f64 * f.config().byte_time;
        let slow = degraded.arrival - healthy.arrival;
        assert!(
            (slow - 3.0 * wire).abs() < 1e-9,
            "factor 4 adds 3 wire times, got {slow} vs {}",
            3.0 * wire
        );
        // The reverse direction and unrelated pairs are unaffected.
        let rev_f = f.transfer(1, 0, bytes, 100.0);
        let rev_h = h.transfer(1, 0, bytes, 100.0);
        assert!((rev_f.arrival - rev_h.arrival).abs() < 1e-12, "asymmetric");
        let oth_f = f.transfer(2, 3, bytes, 200.0);
        let oth_h = h.transfer(2, 3, bytes, 200.0);
        assert!((oth_f.arrival - oth_h.arrival).abs() < 1e-12);
    }

    #[test]
    fn stats_accumulate() {
        let f = fabric(4);
        f.transfer(0, 1, 100, 0.0);
        f.transfer(2, 3, 50, 0.0);
        let s = f.stats();
        assert_eq!(s.messages, 2);
        assert_eq!(s.bytes, 150);
        assert_eq!(s.inter_messages, 2);
        assert_eq!(s.inter_bytes, 150);
        assert_eq!(s.intra_messages, 0);
    }

    #[test]
    fn trivial_topology_is_identical_to_none() {
        let flat = fabric(4);
        let topo = Fabric::new_full(
            4,
            NetConfig::default(),
            None,
            Some(crate::topology::Topology::blocked(4, 1)),
        );
        assert!(topo.topology().is_none(), "ppn=1 must be dropped");
        for (src, dst, bytes, start) in [
            (0, 1, 1000, 0.0),
            (1, 1, 64, 0.5),
            (2, 3, 4096, 1.0),
            (0, 1, 9, 2.0),
        ] {
            let a = flat.transfer(src, dst, bytes, start);
            let b = topo.transfer(src, dst, bytes, start);
            assert_eq!(a, b, "{src}->{dst}");
        }
        assert_eq!(flat.stats(), topo.stats());
    }

    #[test]
    fn intra_node_transfer_skips_nic_and_connection_setup() {
        let f = Fabric::new_full(
            4,
            NetConfig::default(),
            None,
            Some(crate::topology::Topology::blocked(4, 2)),
        );
        let cfg = f.config().clone();
        let t = f.transfer(0, 1, 1 << 20, 3.0);
        let expect_done = 3.0 + SEND_OVERHEAD + (1 << 20) as f64 * cfg.intra_byte_time;
        assert!((t.sender_done - expect_done).abs() < 1e-12);
        assert!((t.arrival - (expect_done + INTRA_LATENCY)).abs() < 1e-12);
        let s = f.stats();
        assert_eq!(s.conn_misses, 0, "shared memory needs no connection");
        assert_eq!(s.intra_messages, 1);
        assert_eq!(s.intra_bytes, 1 << 20);
        assert_eq!(s.inter_messages, 0);
    }

    #[test]
    fn colocated_ranks_serialize_on_the_node_nic() {
        // Node 0 = {0, 1}, node 1 = {2, 3}. Both off-node transfers share
        // one tx NIC and one rx NIC, so they queue; without a topology the
        // pairs are disjoint and overlap freely.
        let bytes = 1 << 20;
        let dur = bytes as f64 * NetConfig::default().byte_time;
        let topo = Fabric::new_full(
            4,
            NetConfig::default(),
            None,
            Some(crate::topology::Topology::blocked(4, 2)),
        );
        let mut last_topo = 0.0f64;
        for (src, dst) in [(0, 2), (1, 3)] {
            last_topo = last_topo.max(topo.transfer(src, dst, bytes, 0.0).arrival);
        }
        let flat = fabric(4);
        let mut last_flat = 0.0f64;
        for (src, dst) in [(0, 2), (1, 3)] {
            last_flat = last_flat.max(flat.transfer(src, dst, bytes, 0.0).arrival);
        }
        assert!(
            last_topo >= last_flat + dur * 0.9,
            "{last_topo} vs {last_flat}"
        );
        let s = topo.stats();
        assert_eq!(s.inter_messages, 2);
        assert_eq!(s.intra_messages, 0);
    }
}
