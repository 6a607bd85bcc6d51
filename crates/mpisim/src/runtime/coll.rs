//! Rendezvous collectives: barrier, allgather, allreduce, split and
//! collectively created shared objects, the replicated read-only tables
//! that cost no rendezvous at all, and the checked decoders for the
//! payloads peers deposit.

use super::{Rank, RegistryEntry, Slot, GROUP};
use crate::collectives::{Deposit, RvResult};
use crate::comm::{Comm, SplitRegistry};
use crate::error::{MpiError, Result};
use crate::net::LATENCY;
use crate::trace::Phase;
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// Reduction operators for the typed allreduce helpers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReduceOp {
    Min,
    Max,
    Sum,
}

impl ReduceOp {
    fn u64(self, a: u64, b: u64) -> u64 {
        match self {
            ReduceOp::Min => a.min(b),
            ReduceOp::Max => a.max(b),
            ReduceOp::Sum => a + b,
        }
    }
}

// Decoding a peer's collective payload. Ranks that entered *different*
// collectives meet in the same rendezvous, so any length can arrive: every
// read is checked and a misfit is a typed error, never a slice panic.

const NO_SURVIVOR: MpiError = MpiError::CollectiveMismatch("no live rank contributed a value");

/// One rank's 8-byte scalar contribution.
fn le8(b: &[u8]) -> Result<[u8; 8]> {
    b.try_into()
        .map_err(|_| MpiError::CollectiveMismatch("expected one 8-byte value per rank"))
}

/// One rank's `u64`, or `dead` for a crash-stopped rank's empty slot.
pub(super) fn slot_or(b: &[u8], dead: u64) -> Result<u64> {
    if b.is_empty() {
        Ok(dead)
    } else {
        le8(b).map(u64::from_le_bytes)
    }
}

/// Fold the live ranks' `u64`s (crash-stopped ranks' slots are empty);
/// `None` when there is none.
fn reduce_slots(slots: &[Vec<u8>], f: impl Fn(u64, u64) -> u64) -> Result<Option<u64>> {
    let mut acc = None;
    for b in slots.iter().filter(|b| !b.is_empty()) {
        let v = u64::from_le_bytes(le8(b)?);
        acc = Some(acc.map_or(v, |a| f(a, v)));
    }
    Ok(acc)
}

// Each collective is written once, over a [`Comm`]; the world-named methods
// delegate to `self.world()`.
impl Rank {
    /// The communicator of all ranks, indexed by world rank.
    pub fn world(&self) -> Comm {
        Comm {
            shared: Arc::clone(&self.shared.world),
            my_index: self.id,
        }
    }

    /// Enter `comm`'s rendezvous. The completer wakes the other members
    /// (nobody else is waiting on it); waiters park and poll their
    /// generation on wake, checking the generation before abort so a
    /// completed collective is delivered even when the simulation is being
    /// torn down.
    fn enter_rendezvous(&self, comm: &Comm, payload: Vec<u8>) -> Option<RvResult> {
        let rdv = comm.rendezvous();
        match rdv.deposit(comm.group_rank(), payload, self.clock) {
            Deposit::Complete(rv) => {
                self.shared.core.wake_each(comm.members());
                Some(rv)
            }
            Deposit::Waiting { gen } => loop {
                if let Some(rv) = rdv.poll(gen) {
                    return Some(rv);
                }
                if self.shared.abort.load(Ordering::SeqCst) {
                    return None;
                }
                self.shared.core.park(self.id, self.clock);
            },
        }
    }

    /// The rendezvous entry of every collective. The straggler comes back
    /// as a world rank — the one place group ranks are mapped.
    fn rendezvous_in(&mut self, comm: &Comm, payload: Vec<u8>) -> Result<RvResult> {
        self.chaos_checkpoint()?;
        let entry_t = self.clock;
        let mut rv = self
            .enter_rendezvous(comm, payload)
            .ok_or(MpiError::Aborted)?;
        rv.straggler = rv.straggler.map(|i| comm.world_rank(i));
        self.stats.collectives += 1;
        self.stats.collective_wait += (rv.max_t - entry_t).max(0.0);
        Ok(rv)
    }

    /// Record a rendezvous-collective span: `ready` is the reconciled
    /// entry clock (`rv.max_t`) and the straggler the world rank whose late
    /// arrival set it — the causal edge the critical-path walker follows.
    fn record_sync(&mut self, name: &'static str, start: f64, bytes: u64, rv: &RvResult) {
        self.tracer.record_full(
            name,
            Phase::Sync,
            start,
            self.clock,
            bytes,
            None,
            rv.max_t,
            rv.straggler,
        );
    }

    /// The barrier engine, also behind the collectives that are a barrier
    /// carrying a small payload (window and shared-object creation): all
    /// members' clocks advance to `max + 2·α·⌈log₂ size⌉`.
    pub(super) fn sync_in(
        &mut self,
        comm: &Comm,
        name: &'static str,
        payload: Vec<u8>,
        bytes: u64,
    ) -> Result<RvResult> {
        let start = self.clock;
        let rv = self.rendezvous_in(comm, payload)?;
        self.set_clock_as(rv.max_t + 2.0 * LATENCY * comm.log2() as f64, Phase::Sync);
        self.record_sync(name, start, bytes, &rv);
        Ok(rv)
    }

    /// Barrier over `comm`.
    pub fn barrier_in(&mut self, comm: &Comm) -> Result<()> {
        let name = comm.flavor().barrier;
        self.sync_in(comm, name, Vec::new(), 0).map(drop)
    }

    /// Barrier over all ranks.
    pub fn barrier(&mut self) -> Result<()> {
        self.barrier_in(&self.world())
    }

    /// The allgather engine: rendezvous, cost model, span. Every caller,
    /// typed helper or [`Rank::allgather_in`], reads the one shared
    /// [`RvResult::payloads`] `Arc`: nobody gets a per-rank copy of the
    /// payload vector, which is O(P²) allocations across the job.
    fn allgather_rv_in(&mut self, comm: &Comm, payload: &[u8]) -> Result<RvResult> {
        let start = self.clock;
        let rv = self.rendezvous_in(comm, payload.to_vec())?;
        let cfg = self.shared.fabric.config();
        let foreign = rv.total_bytes - payload.len();
        self.set_clock_as(
            rv.max_t + LATENCY * comm.log2() as f64 + foreign as f64 * cfg.byte_time,
            Phase::Sync,
        );
        self.record_sync(comm.flavor().allgather, start, rv.total_bytes as u64, &rv);
        Ok(rv)
    }

    /// Gather one byte payload from every member of `comm`, delivered to
    /// all (indexed by group rank) as one read-only vector the members
    /// share.
    pub fn allgather_in(&mut self, comm: &Comm, payload: &[u8]) -> Result<Arc<Vec<Vec<u8>>>> {
        Ok(self.allgather_rv_in(comm, payload)?.payloads)
    }

    /// Gather one byte payload from every rank, delivered to all.
    pub fn allgather(&mut self, payload: &[u8]) -> Result<Arc<Vec<Vec<u8>>>> {
        self.allgather_in(&self.world(), payload)
    }

    /// Allgather of one `u64` per rank. Live ranks always contribute 8
    /// bytes, so an empty slot can only belong to a crash-stopped rank;
    /// it reads back as `u64::MAX`.
    pub fn allgather_u64(&mut self, value: u64) -> Result<Vec<u64>> {
        let rv = self.allgather_rv_in(&self.world(), &value.to_le_bytes())?;
        rv.payloads.iter().map(|b| slot_or(b, u64::MAX)).collect()
    }

    /// Allreduce of one `u64` over `comm`. Crash-stopped ranks' (empty)
    /// slots are excluded from the reduction — the collective re-forms
    /// over the survivors.
    pub fn allreduce_u64_in(&mut self, comm: &Comm, value: u64, op: ReduceOp) -> Result<u64> {
        let rv = self.allgather_rv_in(comm, &value.to_le_bytes())?;
        reduce_slots(&rv.payloads, |a, b| op.u64(a, b))?.ok_or(NO_SURVIVOR)
    }

    /// `MPI_Comm_split`: collectively partition the world by `color`.
    /// Every rank receives a [`Comm`] over the ranks that passed the same
    /// color (ordered by world rank).
    pub fn split(&mut self, color: u64) -> Result<Comm> {
        let colors = self.allgather_u64(color)?;
        let members: Vec<usize> = colors
            .iter()
            .enumerate()
            .filter(|&(_, &c)| c == color)
            .map(|(r, _)| r)
            .collect();
        let registry: Arc<SplitRegistry> = self.shared_state(SplitRegistry::default)?;
        Comm::build(members, self.id, &registry, color, &GROUP)
    }

    /// Collectively create (or fetch) a shared object. The closure runs on
    /// exactly one rank; all ranks receive the same `Arc`. Used for
    /// cross-rank side structures (e.g., TCIO's segment metadata).
    pub fn shared_state<T: Send + Sync + 'static>(
        &mut self,
        init: impl FnOnce() -> T,
    ) -> Result<Arc<T>> {
        let rv = self.sync_in(&self.world(), "shared_state", Vec::new(), 0)?;
        self.collective_object(rv.gen, || Ok(init()))
    }

    /// The object every rank of world collective `gen` shares: built by
    /// whichever rank asks first, handed to the rest — or the error the
    /// build returned, to every rank.
    pub(super) fn collective_object<T: Send + Sync + 'static>(
        &self,
        gen: u64,
        init: impl FnOnce() -> Result<T>,
    ) -> Result<Arc<T>> {
        self.shared_object(Slot::Collective(gen), 0, init)
    }

    /// One read-only object for every rank, at no virtual cost. The n-th
    /// call on each rank shares what the first rank to make it built with
    /// `init`, or the error `init` returned. It is host memory and host
    /// time only: no rendezvous, no clock movement, no span and no
    /// [`RankStats`](crate::stats::RankStats) field, so a table every rank
    /// would compute identically from identical inputs is built once per
    /// simulation instead of once per rank, and the run is bit-identical
    /// with or without the sharing. `key` names what is built (hash what
    /// the table depends on); an n-th call that names another key or type
    /// than the first fails with [`MpiError::CollectiveMismatch`]. `init`
    /// runs under the registry lock and must not share another object. The
    /// object is dropped once every rank has fetched it, and with the run
    /// at the latest.
    pub fn replicated<T, E>(
        &mut self,
        key: impl Hash,
        init: impl FnOnce() -> std::result::Result<T, E>,
    ) -> std::result::Result<Arc<T>, E>
    where
        T: Send + Sync + 'static,
        E: From<MpiError> + Clone + Send + Sync + 'static,
    {
        let mut hasher = DefaultHasher::new();
        key.hash(&mut hasher);
        let slot = Slot::Replica(self.replicas);
        self.replicas += 1;
        self.shared_object(slot, hasher.finish(), init)
    }

    /// Fetch the object in `slot`, built by `init` if this rank asks
    /// first.
    fn shared_object<T, E>(
        &self,
        slot: Slot,
        key: u64,
        init: impl FnOnce() -> std::result::Result<T, E>,
    ) -> std::result::Result<Arc<T>, E>
    where
        T: Send + Sync + 'static,
        E: From<MpiError> + Clone + Send + Sync + 'static,
    {
        let mut reg = self.shared.registry.lock();
        let entry = reg.entry(slot).or_insert_with(|| RegistryEntry {
            key,
            object: Box::new(init().map(Arc::new)),
            fetched: 0,
        });
        entry.fetched += 1;
        let object = match entry
            .object
            .downcast_ref::<std::result::Result<Arc<T>, E>>()
        {
            _ if entry.key != key => Err(E::from(MpiError::CollectiveMismatch(
                "shared object key mismatch across ranks",
            ))),
            Some(Ok(object)) => Ok(Arc::clone(object)),
            Some(Err(e)) => Err(e.clone()),
            None => Err(E::from(MpiError::CollectiveMismatch(
                "collective object type mismatch across ranks",
            ))),
        };
        if entry.fetched == self.nprocs {
            reg.remove(&slot);
        }
        object
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::SimError;
    use crate::runtime::{run, Backend, SimConfig, SimReport};

    fn cfg() -> SimConfig {
        SimConfig::default()
    }

    #[test]
    fn barrier_reconciles_clocks() {
        let rep = run(4, cfg(), |rk| {
            rk.advance(rk.rank() as f64); // rank i is i seconds "late"
            rk.barrier()?;
            Ok(rk.now())
        })
        .unwrap();
        let t0 = rep.results[0];
        assert!(t0 >= 3.0);
        for &t in &rep.results {
            assert!(
                (t - t0).abs() < 1e-12,
                "all ranks leave the barrier together"
            );
        }
    }

    #[test]
    fn allgather_collects_in_rank_order() {
        let rep = run(3, cfg(), |rk| {
            let all = rk.allgather(&[rk.rank() as u8 * 10])?;
            Ok(all)
        })
        .unwrap();
        for all in rep.results {
            assert_eq!(*all, vec![vec![0], vec![10], vec![20]]);
        }
    }

    #[test]
    fn allreduce_ops() {
        let rep = run(4, cfg(), |rk| {
            let min = rk.allreduce_u64_in(&rk.world(), rk.rank() as u64 + 5, ReduceOp::Min)?;
            let max = rk.allreduce_u64_in(&rk.world(), rk.rank() as u64 + 5, ReduceOp::Max)?;
            let sum = rk.allreduce_u64_in(&rk.world(), rk.rank() as u64 + 5, ReduceOp::Sum)?;
            Ok((min, max, sum))
        })
        .unwrap();
        for &(min, max, sum) in &rep.results {
            assert_eq!(min, 5);
            assert_eq!(max, 8);
            assert_eq!(sum, 5 + 6 + 7 + 8);
        }
    }

    #[test]
    fn shared_state_runs_init_once() {
        use std::sync::atomic::AtomicUsize;
        static INITS: AtomicUsize = AtomicUsize::new(0);
        let rep = run(4, cfg(), |rk| {
            let shared: Arc<Vec<u8>> = rk.shared_state(|| {
                INITS.fetch_add(1, Ordering::SeqCst);
                vec![1, 2, 3]
            })?;
            Ok(shared.len())
        })
        .unwrap();
        assert_eq!(INITS.load(Ordering::SeqCst), 1);
        assert!(rep.results.iter().all(|&l| l == 3));
    }

    fn on_both_backends() -> [SimConfig; 2] {
        [Backend::Thread, Backend::Event].map(|backend| SimConfig {
            backend,
            trace: true,
            metrics: true,
            ..cfg()
        })
    }

    #[test]
    fn replicated_builds_once_per_simulation_and_costs_nothing() {
        use std::sync::atomic::AtomicUsize;
        static BUILDS: AtomicUsize = AtomicUsize::new(0);
        // Ranks drift apart, meet in collectives and share three tables in
        // between; the same body without the tables is the reference.
        let body = |share: bool| {
            move |rk: &mut Rank| {
                rk.advance(1e-3 * rk.rank() as f64);
                for round in 0..3u64 {
                    rk.allreduce_u64_in(&rk.world(), round, ReduceOp::Sum)?;
                    if share {
                        let table: Arc<Vec<u64>> = rk.replicated(("table", round), || {
                            BUILDS.fetch_add(1, Ordering::SeqCst);
                            Ok::<_, MpiError>(vec![round; 64])
                        })?;
                        assert_eq!(table[rk.rank()], round);
                    }
                    rk.advance(1e-4);
                }
                rk.barrier()
            }
        };
        for sim in on_both_backends() {
            BUILDS.store(0, Ordering::SeqCst);
            let shared = run(4, sim.clone(), body(true)).unwrap();
            assert_eq!(BUILDS.load(Ordering::SeqCst), 3, "one build per call site");
            let plain = run(4, sim, body(false)).unwrap();
            let bits = |r: &SimReport<()>| r.clocks.iter().map(|c| c.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&shared), bits(&plain), "clocks");
            assert_eq!(shared.stats, plain.stats, "RankStats");
            assert_eq!(
                format!("{:?}", shared.traces),
                format!("{:?}", plain.traces),
                "spans and phase totals"
            );
        }
    }

    #[test]
    fn replicated_refuses_a_key_or_type_mismatch_and_shares_a_failed_build() {
        for sim in on_both_backends() {
            let rep = run(3, sim, |rk| {
                let built = |v: u32| move || Ok::<_, MpiError>(v);
                // Rank 0 runs first and builds every object.
                let key = if rk.rank() == 2 { "other" } else { "table" };
                let by_key = rk.replicated(key, built(1)).map(drop);
                let by_type = if rk.rank() == 1 {
                    rk.replicated("t", || Ok::<_, MpiError>(1u64)).map(drop)
                } else {
                    rk.replicated("t", built(1)).map(drop)
                };
                let failed = rk.replicated("f", || {
                    Err::<u32, _>(MpiError::CollectiveMismatch("built wrong"))
                });
                Ok((by_key, by_type, failed.map(drop)))
            })
            .unwrap();
            let [r0, r1, r2] = [0, 1, 2].map(|r| rep.results[r].clone());
            assert_eq!((r0.0, r0.1), (Ok(()), Ok(())));
            assert!(is_mismatch(r1.1) && r1.0.is_ok());
            assert!(is_mismatch(r2.0) && r2.1.is_ok());
            for (_, _, failed) in &rep.results {
                assert_eq!(failed, &Err(MpiError::CollectiveMismatch("built wrong")));
            }
        }
    }

    #[test]
    fn large_scale_smoke_256_ranks() {
        let rep = run(256, cfg(), |rk| {
            let sum = rk.allreduce_u64_in(&rk.world(), rk.rank() as u64, ReduceOp::Sum)?;
            rk.barrier()?;
            Ok(sum)
        })
        .unwrap();
        let expect: u64 = (0..256).sum();
        assert!(rep.results.iter().all(|&s| s == expect));
    }

    fn is_mismatch<T>(r: Result<T>) -> bool {
        matches!(r, Err(MpiError::CollectiveMismatch(_)))
    }

    #[test]
    fn scalar_slots_reject_every_width_but_eight() {
        assert_eq!(
            le8(&[7, 0, 0, 0, 0, 0, 0, 0]).map(u64::from_le_bytes),
            Ok(7)
        );
        for len in [0usize, 1, 7, 9, 16] {
            assert!(is_mismatch(le8(&vec![0xAB; len])), "len {len}");
        }
        assert_eq!(slot_or(&[], 42), Ok(42), "empty slot = crash-stopped rank");
        assert!(is_mismatch(slot_or(&[1], 42)));
        let sum = |slots: &[Vec<u8>]| reduce_slots(slots, |a, b| a + b);
        let three = 3u64.to_le_bytes().to_vec();
        assert_eq!(sum(&[three.clone(), vec![], three.clone()]), Ok(Some(6)));
        assert_eq!(sum(&[vec![], vec![]]), Ok(None), "no survivor, no value");
        assert!(is_mismatch(sum(&[three, vec![1, 2, 3]])));
    }

    #[test]
    fn mismatched_collectives_fail_typed_instead_of_panicking() {
        // Rank 0's one-byte allgather meets rank 1's u64 allreduce.
        let err = run(2, cfg(), |rk| {
            if rk.rank() == 0 {
                rk.allgather(&[1]).map(drop)
            } else {
                rk.allreduce_u64_in(&rk.world(), 5, ReduceOp::Sum).map(drop)
            }
        })
        .unwrap_err();
        assert!(matches!(
            err,
            SimError::RankFailed {
                rank: 1,
                error: MpiError::CollectiveMismatch(_)
            }
        ));
    }

    #[test]
    fn split_partitions_by_color() {
        let rep = run(6, cfg(), |rk| {
            let comm = rk.split((rk.rank() % 2) as u64)?;
            Ok((comm.size(), comm.group_rank(), comm.members().to_vec()))
        })
        .unwrap();
        for (r, (size, grank, members)) in rep.results.iter().enumerate() {
            assert_eq!(*size, 3);
            let expect: Vec<usize> = (0..6).filter(|x| x % 2 == r % 2).collect();
            assert_eq!(members, &expect);
            assert_eq!(members[*grank], r);
        }
    }

    #[test]
    fn group_barriers_leave_a_parked_bystander_to_its_message() {
        // Ranks 0 and 1 barrier among themselves while rank 2 sits parked
        // in a receive; completing those barriers wakes only their members,
        // and the bystander still gets the message sent afterwards.
        let rep = run(3, cfg(), |rk| {
            let comm = rk.split((rk.rank() / 2) as u64)?;
            if rk.rank() == 2 {
                return Ok(rk.recv(Some(0), Some(9))?.data);
            }
            for _ in 0..3 {
                rk.advance(1.0);
                rk.barrier_in(&comm)?;
            }
            if rk.rank() == 0 {
                rk.send(2, 9, &[42])?;
            }
            Ok(Vec::new())
        })
        .unwrap();
        assert_eq!(rep.results[2], vec![42]);
        assert!(rep.clocks[2] > 3.0, "the message left after three barriers");
    }

    #[test]
    fn group_collectives_are_scoped() {
        let rep = run(6, cfg(), |rk| {
            let comm = rk.split((rk.rank() / 3) as u64)?;
            rk.barrier_in(&comm)?;
            let sum = rk.allreduce_u64_in(&comm, rk.rank() as u64, ReduceOp::Sum)?;
            let gathered = rk.allgather_in(&comm, &[rk.rank() as u8])?;
            Ok((sum, gathered))
        })
        .unwrap();
        // Group 0 = {0,1,2} (sum 3), group 1 = {3,4,5} (sum 12).
        for (r, (sum, gathered)) in rep.results.iter().enumerate() {
            let expect_sum = if r < 3 { 3 } else { 12 };
            assert_eq!(*sum, expect_sum, "rank {r}");
            let expect: Vec<Vec<u8>> = if r < 3 {
                vec![vec![0], vec![1], vec![2]]
            } else {
                vec![vec![3], vec![4], vec![5]]
            };
            assert_eq!(**gathered, expect);
        }
    }

    #[test]
    fn repeated_group_collectives_do_not_mix_generations() {
        let rep = run(4, cfg(), |rk| {
            let comm = rk.split((rk.rank() % 2) as u64)?;
            let mut sums = Vec::new();
            for round in 0..20u64 {
                sums.push(rk.allreduce_u64_in(&comm, round + rk.rank() as u64, ReduceOp::Sum)?);
            }
            Ok(sums)
        })
        .unwrap();
        for (r, sums) in rep.results.iter().enumerate() {
            for (round, &s) in sums.iter().enumerate() {
                let peers: u64 = if r % 2 == 0 { 2 } else { 1 + 3 };
                assert_eq!(s, 2 * round as u64 + peers, "rank {r} round {round}");
            }
        }
    }
}
