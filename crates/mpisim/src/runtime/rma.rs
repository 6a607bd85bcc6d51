//! One-sided communication: window creation, passive-target lock epochs
//! and the cost ledger they settle at unlock, and the named barrier behind
//! fences.

use super::coll::slot_or;
use super::Rank;
use crate::error::{MpiError, Result};
use crate::net::{LATENCY, SEND_OVERHEAD};
use crate::rma::{Epoch, LockKind, WinShared, Window};
use crate::trace::Phase;

impl Rank {
    /// Collectively create a window exposing `local_size` bytes on this
    /// rank. The bytes count against this rank's simulated memory budget.
    pub fn win_create(&mut self, local_size: usize) -> Result<Window> {
        let mem = self.alloc(local_size as u64)?;
        let size = local_size as u64;
        let rv = self.sync_in(&self.world(), "win_create", size.to_le_bytes().into(), size)?;
        // The first rank here decodes the P sizes for all of them, and a
        // malformed slot fails every rank alike. A crash-stopped rank
        // exposes no window memory.
        let shared_win = self.collective_object(rv.gen, || {
            let size_of = |b: &Vec<u8>| slot_or(b, 0).map(|v| v as usize);
            let sizes = rv.payloads.iter().map(size_of).collect::<Result<_>>()?;
            Ok(WinShared::new(sizes))
        })?;
        Ok(Window {
            shared: shared_win,
            owner: self.id,
            _mem: Some(mem),
        })
    }

    /// Open a passive-target lock epoch on `target`.
    pub fn win_lock<'w>(
        &mut self,
        win: &'w Window,
        target: usize,
        kind: LockKind,
    ) -> Result<Epoch<'w>> {
        self.check_abort()?;
        self.check_rank(target)?;
        self.chaos_checkpoint()?;
        // Lock request handshake.
        self.advance_as(self.shared.fabric.config().rma_lock_cost, Phase::Exchange);
        Ok(Epoch::new(win, target, kind))
    }

    /// Close an epoch: settle its cost ledger. Exclusive epochs serialize
    /// against each other per target in virtual time (booking the target's
    /// lock-token timeline for the epoch's intrinsic duration); shared
    /// epochs skip the token and only contend at the NIC ports.
    pub fn win_unlock(&mut self, ep: Epoch<'_>) -> Result<()> {
        self.check_abort()?;
        self.chaos_checkpoint()?;
        let cfg = self.shared.fabric.config();
        let me = self.id;
        let epoch_start = self.clock;
        let target = ep.target;
        // A gathered transfer's wire size: its bytes plus one header per
        // part.
        let wire = |(bytes, parts): (usize, usize)| bytes + parts * cfg.gather_header_bytes;
        // Intrinsic (uncontended) duration of the epoch's transfers; used
        // to book the exclusive-lock token before the NIC-level costs are
        // resolved.
        let mut intrinsic = 0.0;
        for m in ep.put_msgs.iter() {
            intrinsic += SEND_OVERHEAD + LATENCY + wire(m) as f64 * cfg.byte_time;
        }
        for m in ep.get_msgs.iter() {
            intrinsic += 2.0 * LATENCY + SEND_OVERHEAD + wire(m) as f64 * cfg.byte_time;
        }
        let start = match ep.kind {
            LockKind::Exclusive => ep.win.shared.tokens[target]
                .lock()
                .reserve(self.clock, intrinsic),
            LockKind::Shared => self.clock,
        };
        if start > epoch_start {
            // The exclusive token was held by an earlier epoch: the gap is
            // pure lock wait, recorded as its own span so the critical-path
            // analyzer can attribute it separately from the transfers.
            self.tracer.record(
                "rma_lock_wait",
                Phase::Exchange,
                epoch_start,
                start,
                0,
                None,
            );
        }
        let mut now = start;
        let mut moved = 0u64;
        for m in ep.put_msgs.iter() {
            let tr = self.shared.fabric.transfer(me, target, wire(m), now);
            now = tr.arrival;
            self.stats.puts += 1;
            self.stats.put_bytes += m.0 as u64;
            moved += m.0 as u64;
        }
        for m in ep.get_msgs.iter() {
            // Get is a round trip: request, then data target → origin.
            let tr = self
                .shared
                .fabric
                .transfer(target, me, wire(m), now + LATENCY);
            now = tr.arrival;
            self.stats.gets += 1;
            self.stats.get_bytes += m.0 as u64;
            moved += m.0 as u64;
        }
        self.stats.rma_epochs += 1;
        self.set_clock_as(now + cfg.rma_lock_cost, Phase::Exchange);
        self.tracer.record_full(
            "rma_epoch",
            Phase::Exchange,
            epoch_start,
            self.clock,
            moved,
            None,
            start,
            None,
        );
        Ok(())
    }

    /// A barrier that says which one it is, for callers whose collectives
    /// are only legal in lockstep: every member deposits `kind`, and a
    /// member that finds a peer under another name fails with
    /// [`MpiError::CollectiveMismatch`] instead of pairing with it. A peer
    /// inside a plain [`Rank::barrier`] and a crash-stopped rank name
    /// nothing. Costs exactly a barrier.
    pub fn barrier_named(&mut self, kind: u8) -> Result<()> {
        let world = self.world();
        let rv = self.sync_in(&world, world.flavor().barrier, vec![kind], 0)?;
        if rv.payloads.iter().any(|p| !p.is_empty() && p[..] != [kind]) {
            return Err(MpiError::CollectiveMismatch(
                "a peer reached a different collective",
            ));
        }
        Ok(())
    }

    /// Fence synchronization (collective; provided for the sync-mode
    /// ablation — the paper rejects fences because they would force all
    /// ranks to synchronize on every access epoch). A rank that fences
    /// while a peer is in another named collective gets a
    /// [`MpiError::CollectiveMismatch`].
    pub fn win_fence(&mut self, _win: &Window) -> Result<()> {
        self.barrier_named(b'F')
    }
}

#[cfg(test)]
mod tests {
    use crate::error::{MpiError, SimError};
    use crate::rma::LockKind;
    use crate::runtime::{run, Backend, SimConfig};

    fn cfg() -> SimConfig {
        SimConfig::default()
    }

    #[test]
    fn rma_put_get_through_window() {
        let rep = run(2, cfg(), |rk| {
            let win = rk.win_create(8)?;
            if rk.rank() == 0 {
                let mut ep = rk.win_lock(&win, 1, LockKind::Exclusive)?;
                ep.put(0, &[7, 8, 9])?;
                rk.win_unlock(ep)?;
            }
            rk.barrier()?;
            let mut out = [0u8; 3];
            if rk.rank() == 1 {
                win.with_local(|r| out.copy_from_slice(&r[0..3]));
            } else {
                let mut ep = rk.win_lock(&win, 1, LockKind::Shared)?;
                ep.get(0, &mut out)?;
                rk.win_unlock(ep)?;
            }
            Ok(out.to_vec())
        })
        .unwrap();
        assert_eq!(rep.results[0], vec![7, 8, 9]);
        assert_eq!(rep.results[1], vec![7, 8, 9]);
        let agg = rep.aggregate_stats();
        assert_eq!(agg.puts, 1);
        assert_eq!(agg.gets, 1);
        assert_eq!(agg.rma_epochs, 2);
    }

    #[test]
    fn exclusive_epochs_serialize_in_virtual_time() {
        // Many ranks put to rank 0's window under exclusive locks; the
        // resulting makespan must be at least the sum of transfer times.
        let n = 8;
        let bytes = 1 << 20;
        let rep = run(n, cfg(), move |rk| {
            let win = rk.win_create(if rk.rank() == 0 { bytes } else { 0 })?;
            if rk.rank() != 0 {
                let data = vec![rk.rank() as u8; 1024];
                let mut ep = rk.win_lock(&win, 0, LockKind::Exclusive)?;
                ep.put(rk.rank() * 1024, &data)?;
                rk.win_unlock(ep)?;
            }
            rk.barrier()?;
            Ok(rk.now())
        })
        .unwrap();
        // Correctness: all regions got written (checked via makespan > 0 and
        // absence of panic; byte content checked in rma module tests).
        assert!(rep.makespan > 0.0);
        assert_eq!(rep.aggregate_stats().puts, (n - 1) as u64);
    }

    #[test]
    fn a_malformed_window_slot_fails_every_creating_rank() {
        for backend in [Backend::Thread, Backend::Event] {
            let rep = run(4, SimConfig { backend, ..cfg() }, |rk| {
                if rk.rank() == 3 {
                    // A 3-byte slot where an 8-byte window size belongs.
                    rk.allgather(&[1, 2, 3])?;
                    return Ok(None);
                }
                Ok(rk.win_create(64).err())
            })
            .unwrap();
            for (r, err) in rep.results[..3].iter().enumerate() {
                assert!(
                    matches!(err, Some(MpiError::CollectiveMismatch(_))),
                    "{backend:?} rank {r}: {err:?}"
                );
            }
        }
    }

    #[test]
    fn window_counts_against_memory_budget() {
        let mut c = cfg();
        c.mem_budget = Some(1024);
        let err = run(2, c, |rk| {
            let _w = rk.win_create(2048)?;
            Ok(())
        })
        .unwrap_err();
        assert!(matches!(
            err,
            SimError::RankFailed {
                error: MpiError::OutOfMemory { .. },
                ..
            }
        ));
    }
}
