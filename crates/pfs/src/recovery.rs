//! Recovery: the integrity scrub that repairs corrupt stripes from their
//! replicas, and the rebuild that migrates degraded-mode relocations back
//! to their home OSTs.

use super::{stripe_checksum, Breaker, Pfs, PfsError, RebuildReport, Result, State};
use std::sync::atomic::Ordering;

/// Outcome of one [`Pfs::scrub`] pass over every recorded stripe checksum.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScrubReport {
    /// Stripes with a recorded checksum that were re-verified.
    pub stripes_scanned: u64,
    /// Stripes whose stored bytes no longer matched their checksum.
    pub mismatches: u64,
    /// Mismatched stripes restored from an intact replica.
    pub repaired: u64,
}

impl Pfs {
    /// Full-system integrity scrub: recompute every recorded stripe
    /// checksum, count mismatches, and repair each corrupt stripe from its
    /// replica when one exists *and* the replica itself still matches the
    /// recorded sum. Detects 100% of injected corruptions by construction
    /// (sums are sealed over true content before the corruption flips a
    /// byte) and never flags a clean stripe.
    pub fn scrub(&self) -> ScrubReport {
        let mut report = ScrubReport::default();
        for c in &mut self.state.lock().files {
            let mut stripes: Vec<u64> = c.sums.keys().copied().collect();
            stripes.sort_unstable();
            for stripe in stripes {
                report.stripes_scanned += 1;
                let sum = c.sums[&stripe];
                let span = c.stripe_span(stripe, self.cfg.stripe_size);
                if stripe_checksum(&c.bytes[span.clone()]) == sum {
                    continue;
                }
                report.mismatches += 1;
                let Some(good) = c
                    .replicas
                    .get(&stripe)
                    .filter(|r| stripe_checksum(r) == sum)
                else {
                    continue;
                };
                // Bytes past the replica's recorded length are file
                // growth since the seal, which only zero-fills.
                let (lo, hi) = (span.start, span.end);
                let end = (lo + good.len()).min(hi);
                c.bytes[lo..end].copy_from_slice(&good[..end - lo]);
                c.bytes[end..hi].fill(0);
                report.repaired += 1;
                self.stats.scrub_repairs.fetch_add(1, Ordering::Relaxed);
            }
        }
        report
    }

    /// Background rebuild pass: migrate every relocated extent back to its
    /// home OST. Each migration charges one read at the holder plus one
    /// write at the home on the real OST timelines (no client link leg —
    /// rebuild is server-side traffic). A `HalfOpen` home is migrated too:
    /// the rebuild write *is* the probe, and its observed service ratio
    /// decides whether the breaker re-closes or re-trips. Extents whose
    /// home is still `Open` stay relocated, and extents whose stored
    /// bytes fail their checksum are left for [`Pfs::scrub`] to repair
    /// first. Returns how far the pass got; callers loop until
    /// `remaining == 0`.
    pub fn rebuild(&self, now: f64) -> Result<RebuildReport> {
        let mut guard = self.state.lock();
        guard.enter_simulation();
        let State {
            files,
            osts,
            chaos,
            health,
            ..
        } = &mut *guard;
        let Some(h) = health else {
            return Err(PfsError::Config(
                "rebuild requires an attached health layer (enable_health)".into(),
            ));
        };
        let engine = chaos.as_deref();
        let mut report = RebuildReport {
            completed_at: now,
            ..RebuildReport::default()
        };
        for (file_no, stripe, holder) in h.reloc_entries() {
            report.scanned += 1;
            let file = files
                .get(file_no as usize)
                .ok_or(PfsError::InvalidFile(file_no))?;
            let home = self.ost_for(file.ost_base, stripe);
            if matches!(h.breaker(home, now), Breaker::Open { .. }) {
                report.remaining += 1;
                continue;
            }
            // Empty when nothing is stored under this stripe any more: the
            // mapping is then dropped without moving bytes.
            let span = file.stripe_span(stripe, self.cfg.stripe_size);
            let len = span.len() as u64;
            // Integrity first: migrating a corrupt extent would spread the
            // damage. Leave it for scrub's replica repair and retry on the
            // next pass.
            if self.verify_stripes(file, span.start as u64, len).is_err() {
                report.remaining += 1;
                continue;
            }
            if len > 0 {
                // Read the extent off its holder...
                let r_slow = osts[holder].slowdown_at(holder, now, engine);
                let r_dur = self.service_time(len, self.cfg.ost_read_bw, r_slow);
                let r_fin = osts[holder].serve(now, now, r_dur);
                osts[holder].metrics.bytes_read += len;
                h.observe(holder, r_slow, r_fin - now, r_fin);
                // ...and write it home. For a half-open home this write is
                // the probe: the observation below re-closes or re-trips
                // the breaker.
                let w_slow = osts[home].slowdown_at(home, r_fin, engine);
                let w_dur = self.service_time(len, self.cfg.ost_write_bw, w_slow);
                let w_fin = osts[home].serve(r_fin, r_fin, w_dur);
                osts[home].metrics.bytes_written += len;
                h.observe(home, w_slow, w_fin - r_fin, w_fin);
                report.completed_at = report.completed_at.max(w_fin);
            }
            h.reloc_clear(file_no, stripe, len);
            report.rebuilt_extents += 1;
            report.rebuilt_bytes += len;
        }
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{HealthConfig, PfsConfig};
    use std::sync::Arc;

    #[test]
    fn scrub_repairs_from_intact_replicas() {
        let cfg = PfsConfig {
            stripe_size: 128,
            stripe_count: 4,
            num_osts: 4,
            stripe_replicas: true,
            ..Default::default()
        };
        let p = Pfs::new(1, cfg).unwrap();
        let id = p.create("/f").unwrap();
        // Moderate rate: some stripes corrupt on the primary only, so
        // their replicas remain the repair source.
        let engine = chaos::FaultPlan::new(41)
            .with(chaos::Effect::SilentCorruption { rate: 0.4 }.during(0.0, 0.5))
            .build()
            .unwrap();
        p.attach_chaos(engine).unwrap();
        let data: Vec<u8> = (0..4096u32).map(|i| (i % 251) as u8 + 1).collect();
        p.write_at(id, 0, 0, &data, 0.0).unwrap();
        let first = p.scrub();
        assert!(first.mismatches >= 1, "seed 41 must corrupt something");
        assert!(first.repaired >= 1, "some replica must have survived");
        assert_eq!(p.stats.snapshot().scrub_repairs, first.repaired);
        // A second pass sees only the stripes whose replica was also hit.
        let second = p.scrub();
        assert_eq!(second.mismatches, first.mismatches - first.repaired);
        assert_eq!(second.repaired, 0, "nothing left to repair from");
        // Repaired stripes read back their true content.
        if second.mismatches == 0 {
            let mut buf = vec![0u8; 4096];
            p.read_at(id, 0, 0, &mut buf, 1.0).unwrap();
            assert_eq!(buf, data);
        }
    }

    /// OST `ost` runs `factor`× slow continuously until `until`.
    fn flaky_engine(ost: usize, factor: f64, until: f64) -> Arc<chaos::ChaosEngine> {
        chaos::FaultPlan::new(7)
            .with(
                chaos::Effect::FlakyOst {
                    ost,
                    factor,
                    period: 0.01,
                    duty: 1.0,
                }
                .during(0.0, until),
            )
            .build()
            .unwrap()
    }

    fn gray_cfg() -> PfsConfig {
        PfsConfig {
            stripe_size: 128,
            stripe_count: 4,
            num_osts: 4,
            ..Default::default()
        }
    }

    #[test]
    fn sustained_slowdown_trips_breaker_and_writes_route_around() {
        let p = Pfs::new(1, gray_cfg()).unwrap();
        p.attach_chaos(flaky_engine(0, 10.0, 100.0)).unwrap();
        p.enable_health(HealthConfig {
            min_samples: 4,
            open_secs: 50.0,
            ..Default::default()
        })
        .unwrap();
        let id = p.create("/f").unwrap();
        let data = [7u8; 128];
        let mut t = 0.0;
        for _ in 0..8 {
            // Stripe 0 lives on OST 0, the flaky one.
            t = p.write_at(id, 0, 0, &data, t).unwrap();
        }
        let s = p.health_report().unwrap();
        assert!(
            s.breaker_opens >= 1,
            "a sustained 10x slowdown must trip the breaker: {s:?}"
        );
        assert!(matches!(s.osts[0].state, Breaker::Open { .. }));
        assert!(s.degraded_writes >= 1 && s.degraded_bytes >= 128);
        assert_eq!(s.relocated_live, 1, "stripe 0 must be relocated");
        // Reads of the relocated extent are served by its holder and still
        // return the authoritative bytes.
        let mut buf = [0u8; 128];
        p.read_at(id, 0, 0, &mut buf, t).unwrap();
        assert_eq!(buf, data);
    }

    #[test]
    fn rebuild_migrates_relocated_extents_home_bit_identical() {
        let p = Pfs::new(1, gray_cfg()).unwrap();
        p.attach_chaos(flaky_engine(0, 10.0, 0.5)).unwrap();
        p.enable_health(HealthConfig {
            min_samples: 4,
            ..Default::default()
        })
        .unwrap();
        // Fault-free twin: same writes, no chaos, no health.
        let q = Pfs::new(1, gray_cfg()).unwrap();
        let id = p.create("/f").unwrap();
        let qid = q.create("/f").unwrap();
        // Checkpoint-style rounds across 8 stripes (stripes 0 and 4 live on
        // the flaky OST 0) until the breaker trips and relocates them.
        let data: Vec<u8> = (0..1024u32).map(|i| (i % 239) as u8 + 1).collect();
        let mut t = 0.0;
        for _ in 0..8 {
            t = p.write_at(id, 0, 0, &data, t).unwrap();
            q.write_at(qid, 0, 0, &data, t).unwrap();
        }
        let s = p.health_report().unwrap();
        assert!(s.relocated_live >= 1, "flaky stripes must relocate: {s:?}");
        // The fault window has closed; a write to a fresh OST-0 stripe is
        // the half-open probe that re-closes the breaker.
        let probe_t = 1.0_f64.max(t);
        let tail = [9u8; 128];
        p.write_at(id, 0, 1024, &tail, probe_t).unwrap();
        q.write_at(qid, 0, 1024, &tail, probe_t).unwrap();
        assert!(matches!(
            p.health_report().unwrap().osts[0].state,
            Breaker::Closed
        ));
        // Rebuild drains the relocation map in one pass.
        let rep = p.rebuild(probe_t + 1.0).unwrap();
        assert_eq!(rep.remaining, 0, "closed home must accept every extent");
        assert!(rep.rebuilt_extents >= 1);
        assert!(rep.completed_at > probe_t + 1.0, "migration costs time");
        let s = p.health_report().unwrap();
        assert_eq!(s.relocated_live, 0);
        assert_eq!(s.rebuilt_extents, rep.rebuilt_extents);
        // Post-rebuild content is bit-identical to the fault-free twin.
        assert_eq!(p.snapshot_file(id).unwrap(), q.snapshot_file(qid).unwrap());
        let mut buf = vec![0u8; 1152];
        p.read_at(id, 0, 0, &mut buf, probe_t + 2.0).unwrap();
        assert_eq!(&buf[..1024], &data[..]);
        assert_eq!(&buf[1024..], &tail[..]);
    }

    #[test]
    fn hedged_read_beats_plain_read_when_home_is_quarantined() {
        // Twin instances with identical chaos + health + write history; one
        // reads plain, the other hedged.
        let mk = || {
            let p = Pfs::new(1, gray_cfg()).unwrap();
            p.attach_chaos(flaky_engine(0, 10.0, 100.0)).unwrap();
            p.enable_health(HealthConfig {
                min_samples: 4,
                open_secs: 50.0,
                ..Default::default()
            })
            .unwrap();
            let id = p.create("/f").unwrap();
            // Stripe 0 is written once, pre-trip, and stays home on OST 0.
            let mut t = p.write_at(id, 0, 0, &[1u8; 128], 0.0).unwrap();
            // Writes to stripe 4 (also OST 0) trip the breaker; stripe 0
            // itself stays un-relocated so reads still target the sick home.
            for _ in 0..8 {
                t = p.write_at(id, 0, 512, &[2u8; 128], t).unwrap();
            }
            assert!(matches!(
                p.health_report().unwrap().osts[0].state,
                Breaker::Open { .. }
            ));
            (p, id, t)
        };
        let (plain, pid, t0) = mk();
        let (hedged, hid, t1) = mk();
        assert_eq!(t0, t1, "twins must share history");
        let mut a = [0u8; 128];
        let mut b = [0u8; 128];
        hedged.hedge_scope_begin(0);
        let t_plain = plain.read_at(pid, 0, 0, &mut a, t0).unwrap();
        let t_hedged = hedged.read_at_hedged(hid, 0, 0, &mut b, t0).unwrap();
        assert_eq!(a, b);
        assert!(
            t_hedged < t_plain,
            "hedge at a healthy buddy must beat the 10x-slow home: {t_hedged} vs {t_plain}"
        );
        let s = hedged.health_report().unwrap();
        assert_eq!(s.hedges_issued, 1);
        assert_eq!(s.hedge_wins, 1);
        assert_eq!(s.hedge_waste, 0);
        assert_eq!(plain.health_report().unwrap().hedges_issued, 0);
    }

    #[test]
    fn health_attached_but_healthy_is_bit_identical_to_health_off() {
        let run = |health: bool| {
            let p = Pfs::new(2, gray_cfg()).unwrap();
            if health {
                p.enable_health(HealthConfig::default()).unwrap();
                p.hedge_scope_begin(0);
            }
            let id = p.create("/f").unwrap();
            let data: Vec<u8> = (0..2048u32).map(|i| (i * 31 % 251) as u8).collect();
            let t = p.write_at(id, 0, 0, &data, 0.0).unwrap();
            let mut buf = vec![0u8; 2048];
            // Hedged entry point too: below hedge_min_samples it must be a
            // pure pass-through.
            let t = if health {
                p.read_at_hedged(id, 1, 0, &mut buf, t).unwrap()
            } else {
                p.read_at(id, 1, 0, &mut buf, t).unwrap()
            };
            let t = p.write_rmw(id, 0, 512, 64, &mut |b| b.fill(3), t).unwrap();
            (t, buf, p.snapshot_file(id).unwrap(), p)
        };
        let (t_off, buf_off, snap_off, _) = run(false);
        let (t_on, buf_on, snap_on, p_on) = run(true);
        assert_eq!(
            t_off.to_bits(),
            t_on.to_bits(),
            "virtual times must match exactly"
        );
        assert_eq!(buf_off, buf_on);
        assert_eq!(snap_off, snap_on);
        let s = p_on.health_report().unwrap();
        assert_eq!(s.breaker_opens, 0);
        assert_eq!(s.hedges_issued, 0);
        assert_eq!(s.degraded_writes, 0);
        assert!(s.osts.iter().all(|o| matches!(o.state, Breaker::Closed)));
    }

    #[test]
    fn rebuild_defers_while_home_breaker_is_open() {
        let p = Pfs::new(1, gray_cfg()).unwrap();
        p.attach_chaos(flaky_engine(0, 10.0, 100.0)).unwrap();
        p.enable_health(HealthConfig {
            min_samples: 4,
            open_secs: 50.0,
            ..Default::default()
        })
        .unwrap();
        let id = p.create("/f").unwrap();
        let mut t = 0.0;
        for _ in 0..8 {
            t = p.write_at(id, 0, 0, &[5u8; 128], t).unwrap();
        }
        assert!(p.health_report().unwrap().relocated_live >= 1);
        let rep = p.rebuild(t).unwrap();
        assert_eq!(rep.rebuilt_extents, 0, "open home must defer rebuild");
        assert_eq!(rep.remaining, p.health_report().unwrap().relocated_live);
        // Without a health layer, rebuild is a typed error.
        let bare = Pfs::new(1, gray_cfg()).unwrap();
        assert!(matches!(bare.rebuild(0.0), Err(PfsError::Config(_))));
    }
}
