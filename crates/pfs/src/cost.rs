//! The cost model: what a request costs in virtual time, and where it
//! waits. A request is cut into stripe- and `max_rpc`-bounded pieces; each
//! piece passes one shared prologue (counters, tenant billing, the stripe
//! lock, request overhead), then streams over its client's link and is
//! serviced on its OST's timeline — a write's payload before service, a
//! read's after. QoS admission and pacing, health routing and hedging,
//! and chaos slowdowns attach here.

use super::{FileId, LockMode, Ost, Pfs, PfsError, Result, State};
use mpisim::metrics::Hist;
use std::sync::atomic::{AtomicU64, Ordering};

/// Client-side cost per RPC (request marshalling, metadata).
const REQUEST_OVERHEAD: f64 = 60.0e-6;
/// Cost of migrating an extent lock between clients (revocation,
/// re-grant); this is what punishes interleaved small writes from many
/// clients into the same stripe.
const LOCK_TRANSFER: f64 = 600.0e-6;

impl Ost {
    /// Total service-time multiplier at virtual time `t`: the manually-set
    /// degradation times any chaos slowdown window.
    pub(super) fn slowdown_at(
        &self,
        ost: usize,
        t: f64,
        engine: Option<&chaos::ChaosEngine>,
    ) -> f64 {
        match engine {
            Some(e) => self.slowdown * e.ost_factor(ost, t),
            None => self.slowdown,
        }
    }

    /// Book `dur` seconds of service, eligible from `eligible`, for a
    /// piece that reached this OST at `arrive`. Gap backfill keeps the
    /// outcome independent of which rank booked first (see
    /// `mpisim::timeline`). Returns the finish time.
    pub(super) fn serve(&mut self, arrive: f64, eligible: f64, dur: f64) -> f64 {
        let start = self.busy.reserve(eligible, dur);
        self.metrics.requests += 1;
        self.metrics.busy += dur;
        self.metrics.queue_wait += (start - arrive).max(0.0);
        start + dur
    }
}

/// Record one RPC's service latency if the histogram is on.
fn observe_latency(hist: &mut Option<Hist>, secs: f64) {
    if let Some(h) = hist {
        h.observe((secs.max(0.0) * 1e9) as u64);
    }
}

/// One RPC piece after its prologue.
struct Rpc {
    stripe: u64,
    /// The stripe's home OST (health routing may serve it elsewhere).
    home: usize,
    /// The stripe lock moved: another client held it, or a storm revoked
    /// it.
    transfer: bool,
    lock_cost: f64,
    /// When the client has marshalled the request.
    sent: f64,
}

impl Pfs {
    /// Degrade (or heal) an OST: subsequent service on it takes
    /// `factor` × the healthy time. `factor = 1.0` restores health.
    pub fn set_ost_slowdown(&self, ost: usize, factor: f64) -> Result<()> {
        let mut st = self.state.lock();
        let slot = st
            .osts
            .get_mut(ost)
            .ok_or_else(|| PfsError::Config(format!("no OST {ost}")))?;
        if factor < 1.0 || !factor.is_finite() {
            return Err(PfsError::Config(format!("bad slowdown factor {factor}")));
        }
        slot.slowdown = factor;
        Ok(())
    }

    /// Home OST of `stripe` in a file whose stripe 0 lives on `ost_base`.
    pub(super) fn ost_for(&self, ost_base: usize, stripe: u64) -> usize {
        (ost_base + (stripe as usize % self.cfg.stripe_count)) % self.cfg.num_osts
    }

    /// Split `[offset, offset+len)` into RPC pieces, in file order:
    /// stripe-bounded and `max_rpc`-bounded. Total for any input: a range
    /// running past `u64::MAX` is clipped there.
    pub(super) fn rpc_pieces(&self, offset: u64, len: u64) -> impl Iterator<Item = (u64, u64)> {
        let (stripe_size, max_rpc) = (self.cfg.stripe_size, self.cfg.max_rpc);
        let mut pos = offset;
        let end = offset.saturating_add(len);
        std::iter::from_fn(move || {
            if pos >= end {
                return None;
            }
            let stripe_end = (pos / stripe_size + 1).saturating_mul(stripe_size);
            let piece_end = end.min(stripe_end).min(pos.saturating_add(max_rpc));
            let piece = (pos, piece_end - pos);
            pos = piece_end;
            Some(piece)
        })
    }

    /// Service time of a `len`-byte piece at `bw` bytes/s on an OST running
    /// `slowdown`× slow.
    pub(super) fn service_time(&self, len: u64, bw: f64, slowdown: f64) -> f64 {
        (self.cfg.ost_service + len as f64 / bw) * slowdown
    }

    /// The prologue every RPC piece shares, either way its bytes flow:
    /// count it, bill it to its tenant, take its stripe lock (a revocation
    /// storm forces a revoke + re-grant even for the current holder), and
    /// marshal the request. A small piece landing in an open gateway batch
    /// window pays the coalesced overhead instead of the full per-RPC cost.
    /// What sets a write's pieces apart from a read's is data: the lock
    /// `mode` they take and the `rpcs` and `bytes` counters they bump.
    fn rpc_prologue(
        &self,
        st: &mut State,
        id: FileId,
        client: usize,
        (pos, len): (u64, u64),
        client_t: f64,
        (mode, rpcs, bytes): (LockMode, &AtomicU64, &AtomicU64),
    ) -> Rpc {
        rpcs.fetch_add(1, Ordering::Relaxed);
        bytes.fetch_add(len, Ordering::Relaxed);
        if let Some(q) = &mut st.qos {
            q.note_io(client, mode == LockMode::Write, len);
        }
        let stripe = pos / self.cfg.stripe_size;
        let acquired = st.locks.acquire(id.0, stripe, client, mode);
        let engine = st.chaos.as_deref();
        let storm = engine.is_some_and(|e| e.lock_storm_for(client, client_t));
        let transfer = acquired || storm;
        let lock_cost = if transfer {
            self.stats.lock_transfers.fetch_add(1, Ordering::Relaxed);
            LOCK_TRANSFER
        } else {
            0.0
        };
        let extra_overhead = engine.map_or(0.0, |e| e.extra_request_overhead(client_t));
        let base_overhead = match &mut st.qos {
            Some(q) => q.rpc_overhead(client, len, client_t, REQUEST_OVERHEAD),
            None => REQUEST_OVERHEAD,
        };
        Rpc {
            stripe,
            home: self.ost_for(st.files[id.0 as usize].ost_base, stripe),
            transfer,
            lock_cost,
            sent: client_t + base_overhead + extra_overhead,
        }
    }

    /// Virtual-time cost of writing `[offset, offset+len)` (no data moved).
    pub(super) fn write_cost(
        &self,
        st: &mut State,
        id: FileId,
        client: usize,
        offset: u64,
        len: u64,
        now: f64,
    ) -> f64 {
        let stats = &self.stats;
        let leg = (LockMode::Write, &stats.write_rpcs, &stats.bytes_written);
        let mut done = now;
        // Token-bucket admission: a metered tenant's request waits at the
        // gateway until its bucket covers the payload.
        let mut client_t = match &mut st.qos {
            Some(q) => q.admit(client, len, now),
            None => now,
        };
        for piece in self.rpc_pieces(offset, len) {
            let len = piece.1;
            let rpc = self.rpc_prologue(st, id, client, piece, client_t, leg);
            // The client streams the payload once the request is out.
            let link_dur = len as f64 * self.cfg.client_byte_time;
            let send_start = st.clients[client].reserve(rpc.sent, link_dur);
            let arrive = send_start + link_dur + rpc.lock_cost;
            // OST services the piece. Under a fair-share discipline a
            // contended tenant's piece becomes eligible only at its paced
            // slot; the gap it leaves is backfilled by competing tenants
            // via the timeline. With a health layer, an open breaker
            // quarantines the home OST and the piece lands on its
            // relocation target instead.
            let ost = match &mut st.health {
                Some(h) => h.route_write(id.0, rpc.stripe, rpc.home, len, arrive),
                None => rpc.home,
            };
            let slowdown = st.osts[ost].slowdown_at(ost, arrive, st.chaos.as_deref());
            let service_dur = self.service_time(len, self.cfg.ost_write_bw, slowdown);
            let eligible = match &mut st.qos {
                Some(q) => q.ost_eligible(ost, client, arrive, service_dur),
                None => arrive,
            };
            let piece_done = st.osts[ost].serve(arrive, eligible, service_dur);
            st.osts[ost].metrics.bytes_written += len;
            st.osts[ost].metrics.lock_transfers += rpc.transfer as u64;
            if let Some(h) = &mut st.health {
                // The service ratio (actual ÷ healthy service time) is
                // exactly the compound slowdown factor — what a real
                // client measures against its calibrated expectation.
                h.observe(ost, slowdown, piece_done - client_t, piece_done);
            }
            observe_latency(&mut st.latency, piece_done - client_t);
            done = done.max(piece_done);
            // The client can pipeline the next piece once its link is free.
            client_t = send_start + link_dur;
        }
        done
    }

    /// Virtual-time cost of reading `[offset, offset+len)` (no data moved).
    ///
    /// With `hedge` set and a health layer attached, each piece may fire a
    /// speculative duplicate at a closed-breaker buddy OST once its
    /// projected wait exceeds the adaptive deadline (see
    /// `Health::hedge_quote`). First service to finish wins and is the one
    /// whose response streams back over the client link; the loser's
    /// in-flight OST service is sunk cost but its response is never
    /// streamed (loser cancellation).
    #[allow(clippy::too_many_arguments)]
    pub(super) fn read_cost(
        &self,
        st: &mut State,
        id: FileId,
        client: usize,
        offset: u64,
        len: u64,
        now: f64,
        hedge: bool,
    ) -> f64 {
        let stats = &self.stats;
        let leg = (LockMode::Read, &stats.read_rpcs, &stats.bytes_read);
        let mut done = now;
        let mut client_t = match &mut st.qos {
            Some(q) => q.admit(client, len, now),
            None => now,
        };
        for piece in self.rpc_pieces(offset, len) {
            let len = piece.1;
            let rpc = self.rpc_prologue(st, id, client, piece, client_t, leg);
            let wait_start = rpc.sent + rpc.lock_cost;
            // Reads of relocated extents are served by their holder OST.
            let ost = match &st.health {
                Some(h) => h.route_read(id.0, rpc.stripe, rpc.home),
                None => rpc.home,
            };
            let engine = st.chaos.as_deref();
            let slowdown = st.osts[ost].slowdown_at(ost, wait_start, engine);
            let service_dur = self.service_time(len, self.cfg.ost_read_bw, slowdown);
            let eligible = match &mut st.qos {
                Some(q) => q.ost_eligible(ost, client, wait_start, service_dur),
                None => wait_start,
            };
            let primary_fin = st.osts[ost].serve(wait_start, eligible, service_dur);
            st.osts[ost].metrics.bytes_read += len;
            st.osts[ost].metrics.lock_transfers += rpc.transfer as u64;
            let mut svc_fin = primary_fin;
            if let Some(h) = &mut st.health {
                h.observe(ost, slowdown, primary_fin - wait_start, primary_fin);
                let quote = hedge.then(|| h.hedge_quote(ost, client, wait_start, primary_fin));
                if let Some(q) = quote.flatten() {
                    let buddy = &mut st.osts[q.buddy];
                    let b_slow = buddy.slowdown_at(q.buddy, q.fire, engine);
                    let b_dur = self.service_time(len, self.cfg.ost_read_bw, b_slow);
                    let b_fin = buddy.serve(q.fire, q.fire, b_dur);
                    buddy.metrics.bytes_read += len;
                    h.observe(q.buddy, b_slow, b_fin - wait_start, b_fin);
                    let win = b_fin < primary_fin;
                    h.hedge_outcome(win);
                    if win {
                        svc_fin = b_fin;
                    }
                }
            }
            // The winning response streams back over the client link.
            let link_dur = len as f64 * self.cfg.client_byte_time;
            let resp_start = st.clients[client].reserve(svc_fin, link_dur);
            let piece_done = resp_start + link_dur;
            observe_latency(&mut st.latency, piece_done - client_t);
            done = done.max(piece_done);
            client_t = rpc.sent;
        }
        done
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::qos::{Discipline, QosConfig};
    use crate::PfsConfig;
    use std::sync::Arc;

    fn fs(nclients: usize) -> Arc<Pfs> {
        Pfs::new(nclients, PfsConfig::default()).unwrap()
    }

    /// One OST, one stripe: all contention lands in one place.
    fn hot_fs(nclients: usize) -> Arc<Pfs> {
        let cfg = PfsConfig {
            num_osts: 1,
            stripe_count: 1,
            ..Default::default()
        };
        Pfs::new(nclients, cfg).unwrap()
    }

    #[test]
    fn ost_queue_wait_appears_under_contention() {
        // Many clients hammer the same stripe range: with a single OST
        // servicing serially, queue wait must accumulate.
        let p = hot_fs(8);
        let id = p.create("/hot").unwrap();
        let chunk = vec![1u8; 65536];
        for c in 0..8 {
            p.write_at(id, c, (c as u64) * 65536, &chunk, 0.0).unwrap();
        }
        let rows = p.ost_report();
        assert_eq!(rows.len(), 1);
        assert!(rows[0].queue_wait > 0.0, "concurrent arrivals must queue");
        assert!(rows[0].busy > 0.0);
    }

    #[test]
    fn rpc_pieces_respect_stripes_and_max_rpc() {
        let cfg = PfsConfig {
            stripe_size: 100,
            max_rpc: 250,
            stripe_count: 2,
            num_osts: 2,
            ..Default::default()
        };
        let p = Pfs::new(1, cfg).unwrap();
        // Crossing two stripe boundaries.
        let pieces: Vec<_> = p.rpc_pieces(50, 200).collect();
        assert_eq!(pieces, vec![(50, 50), (100, 100), (200, 50)]);
        let pieces: Vec<_> = p.rpc_pieces(0, 100).collect();
        assert_eq!(pieces, vec![(0, 100)]);
        // Total too: a range ending past u64::MAX neither wraps nor loops.
        assert_eq!(
            p.rpc_pieces(u64::MAX - 3, 8).collect::<Vec<_>>(),
            vec![(u64::MAX - 3, 3)]
        );
    }

    #[test]
    fn max_rpc_splits_within_a_stripe() {
        let cfg = PfsConfig {
            stripe_size: 1000,
            max_rpc: 300,
            stripe_count: 1,
            num_osts: 1,
            ..Default::default()
        };
        let p = Pfs::new(1, cfg).unwrap();
        let pieces: Vec<_> = p.rpc_pieces(0, 1000).collect();
        assert_eq!(pieces, vec![(0, 300), (300, 300), (600, 300), (900, 100)]);
    }

    #[test]
    fn small_writes_dominated_by_overhead() {
        let p = fs(2);
        let id = p.create("/f").unwrap();
        let cfg = p.config().clone();
        let mut t = 0.0;
        for i in 0..100u64 {
            t = p.write_at(id, 0, i * 8, &[0u8; 8], t).unwrap();
        }
        assert!(t >= 100.0 * (REQUEST_OVERHEAD + cfg.ost_service) * 0.9);
    }

    #[test]
    fn large_write_approaches_ost_bandwidth() {
        let p = fs(1);
        let id = p.create("/f").unwrap();
        let cfg = p.config().clone();
        let bytes = 8 << 20; // 8 MiB across 8 stripes
        let data = vec![0u8; bytes];
        let t = p.write_at(id, 0, 0, &data, 0.0).unwrap();
        // Eight 1 MiB pieces on distinct OSTs, pipelined over the client
        // link: must beat serial single-OST time.
        let serial = bytes as f64 / cfg.ost_write_bw;
        assert!(
            t < serial,
            "striping must parallelize: {t} vs serial {serial}"
        );
        // But no faster than the client link can push the data.
        assert!(t >= bytes as f64 * cfg.client_byte_time);
    }

    #[test]
    fn interleaved_writers_pay_lock_transfers() {
        let p = fs(2);
        let id = p.create("/f").unwrap();
        let mut t = 0.0;
        for i in 0..10u64 {
            let client = (i % 2) as usize;
            t = p.write_at(id, client, (i % 4) * 16, &[1u8; 16], t).unwrap();
        }
        assert!(
            p.stats.snapshot().lock_transfers >= 8,
            "alternating writers in one stripe must ping-pong the lock"
        );
    }

    #[test]
    fn disjoint_stripe_writers_do_not_conflict() {
        let p = fs(2);
        let id = p.create("/f").unwrap();
        let s = p.config().stripe_size;
        p.write_at(id, 0, 0, &[1u8; 16], 0.0).unwrap();
        p.write_at(id, 1, s, &[2u8; 16], 0.0).unwrap();
        p.write_at(id, 0, 0, &[3u8; 16], 0.0).unwrap();
        p.write_at(id, 1, s, &[4u8; 16], 0.0).unwrap();
        assert_eq!(p.stats.snapshot().lock_transfers, 0);
    }

    #[test]
    fn aggregate_bandwidth_capped_by_osts() {
        let cfg = PfsConfig {
            num_osts: 4,
            stripe_count: 4,
            ..Default::default()
        };
        let p = Pfs::new(16, cfg.clone()).unwrap();
        let id = p.create("/f").unwrap();
        let per_client = 4u64 << 20;
        let data = vec![0u8; per_client as usize];
        let mut done = 0.0f64;
        for c in 0..16usize {
            let t = p
                .write_at(id, c, c as u64 * per_client, &data, 0.0)
                .unwrap();
            done = done.max(t);
        }
        let floor = (16.0 * per_client as f64) / (4.0 * cfg.ost_write_bw);
        assert!(done >= floor * 0.9, "done {done} vs floor {floor}");
    }

    #[test]
    fn reads_are_faster_than_writes() {
        let p = fs(1);
        let id = p.create("/f").unwrap();
        let data = vec![1u8; 4 << 20];
        let w_done = p.write_at(id, 0, 0, &data, 0.0).unwrap();
        let mut buf = vec![0u8; 4 << 20];
        let r_start = w_done;
        let r_done = p.read_at(id, 0, 0, &mut buf, r_start).unwrap();
        assert!(r_done - r_start < w_done, "read bw exceeds write bw");
    }

    #[test]
    fn stats_count_rpcs_and_bytes() {
        let p = fs(1);
        let id = p.create("/f").unwrap();
        p.write_at(id, 0, 0, &[0u8; 100], 0.0).unwrap();
        let mut buf = [0u8; 50];
        p.read_at(id, 0, 0, &mut buf, 0.0).unwrap();
        let s = p.stats.snapshot();
        assert_eq!(s.write_rpcs, 1);
        assert_eq!(s.bytes_written, 100);
        assert_eq!(s.read_rpcs, 1);
        assert_eq!(s.bytes_read, 50);
    }

    #[test]
    fn degraded_ost_slows_its_stripes_only() {
        let cfg = PfsConfig {
            num_osts: 2,
            stripe_count: 2,
            stripe_size: 1 << 20,
            ..Default::default()
        };
        let p = Pfs::new(1, cfg).unwrap();
        let id = p.create("/f").unwrap();
        let data = vec![0u8; 1 << 20];
        // Healthy baseline: one stripe on each OST.
        let t0 = p.write_at(id, 0, 0, &data, 0.0).unwrap();
        let t1 = p.write_at(id, 0, 1 << 20, &data, t0).unwrap();
        let healthy0 = t0;
        let healthy1 = t1 - t0;
        // Degrade OST 1 (stripe 1) by 10x.
        p.set_ost_slowdown(1, 10.0).unwrap();
        let t2 = p.write_at(id, 0, 0, &data, t1).unwrap(); // stripe 0, OST 0
        let t3 = p.write_at(id, 0, 1 << 20, &data, t2).unwrap(); // stripe 1, OST 1
        assert!((t2 - t1) < 2.0 * healthy0, "healthy OST unaffected");
        assert!(
            (t3 - t2) > 5.0 * healthy1,
            "degraded OST must be much slower: {} vs {}",
            t3 - t2,
            healthy1
        );
        // Heal and verify recovery.
        p.set_ost_slowdown(1, 1.0).unwrap();
        let t4 = p.write_at(id, 0, 1 << 20, &data, t3).unwrap();
        assert!((t4 - t3) < 2.0 * healthy1);
    }

    #[test]
    fn slowdown_validation() {
        let p = fs(1);
        assert!(p.set_ost_slowdown(999, 2.0).is_err());
        assert!(p.set_ost_slowdown(0, 0.5).is_err());
        assert!(p.set_ost_slowdown(0, f64::INFINITY).is_err());
    }

    #[test]
    fn chaos_slowdown_composes_with_manual_degradation() {
        let p = hot_fs(1);
        let id = p.create("/f").unwrap();
        let data = vec![0u8; 1 << 20];
        let healthy = p.write_at(id, 0, 0, &data, 0.0).unwrap();
        let engine = chaos::FaultPlan::new(1)
            .with(
                chaos::Effect::OstSlowdown {
                    ost: 0,
                    factor: 4.0,
                }
                .during(0.0, 1e9),
            )
            .build()
            .unwrap();
        p.attach_chaos(engine).unwrap();
        let t0 = 100.0;
        let slowed = p.write_at(id, 0, 0, &data, t0).unwrap() - t0;
        assert!(
            slowed > 2.0 * healthy,
            "4x window must slow service: {slowed} vs {healthy}"
        );
    }

    #[test]
    fn chaos_lock_storm_forces_transfers_for_sole_writer() {
        let p = fs(1);
        let id = p.create("/f").unwrap();
        let mut t = 0.0;
        for _ in 0..4 {
            t = p.write_at(id, 0, 0, &[1u8; 16], t).unwrap();
        }
        assert_eq!(
            p.stats.snapshot().lock_transfers,
            0,
            "sole writer never conflicts when healthy"
        );
        let engine = chaos::FaultPlan::new(1)
            .with(chaos::Effect::LockStorm { clients: None }.during(0.0, 1e9))
            .build()
            .unwrap();
        p.attach_chaos(engine).unwrap();
        for _ in 0..4 {
            t = p.write_at(id, 0, 0, &[1u8; 16], t).unwrap();
        }
        assert_eq!(
            p.stats.snapshot().lock_transfers,
            4,
            "storm revokes even the holder's lock"
        );
    }

    #[test]
    fn chaos_request_overhead_brownout_slows_small_writes() {
        let p = fs(1);
        let id = p.create("/f").unwrap();
        let healthy = p.write_at(id, 0, 0, &[1u8; 8], 0.0).unwrap();
        let engine = chaos::FaultPlan::new(1)
            .with(
                chaos::Effect::RequestOverhead {
                    extra: 10.0 * healthy,
                }
                .during(50.0, 1e9),
            )
            .build()
            .unwrap();
        p.attach_chaos(engine).unwrap();
        let t0 = 100.0;
        let browned = p.write_at(id, 0, 0, &[1u8; 8], t0).unwrap() - t0;
        assert!(browned > 5.0 * healthy, "{browned} vs {healthy}");
    }

    #[test]
    fn inert_engine_changes_no_costs() {
        let p = fs(2);
        let id = p.create("/f").unwrap();
        let data = vec![3u8; 3 << 20];
        let t_healthy = p.write_at(id, 0, 0, &data, 0.0).unwrap();
        let q = fs(2);
        q.attach_chaos(chaos::ChaosEngine::none()).unwrap();
        let qid = q.create("/f").unwrap();
        let t_inert = q.write_at(qid, 0, 0, &data, 0.0).unwrap();
        assert_eq!(t_healthy, t_inert, "empty plan must be zero-cost");
        assert_eq!(p.snapshot_file(id).unwrap(), q.snapshot_file(qid).unwrap());
    }

    #[test]
    fn fair_share_bounds_victim_wait_under_a_storm() {
        // Tenant 0 (client 0) floods the lone OST with 32 MB of
        // back-to-back large writes before tenant 1 ever shows up. Under
        // FIFO the victim's small request queues behind the whole booked
        // flood; under fair share the storm exhausts its burst allowance
        // after a couple of pieces and its remaining reservations are
        // spaced at its share, so the victim's piece backfills one of the
        // gaps even though it arrives after the storm booked everything.
        let run = |discipline: Discipline| -> f64 {
            let p = hot_fs(2);
            p.enable_qos(
                QosConfig {
                    discipline,
                    ..Default::default()
                },
                vec![0, 1],
            )
            .unwrap();
            let id = p.create("/f").unwrap();
            let chunk = vec![7u8; 1 << 20];
            for i in 0..32u64 {
                p.write_at(id, 0, i << 20, &chunk, 0.0).unwrap();
            }
            // The victim's small write lands mid-storm.
            p.write_at(id, 1, 40 << 20, &[1u8; 4096], 0.001).unwrap() - 0.001
        };
        let fifo = run(Discipline::Fifo);
        let fair = run(Discipline::FairShare);
        assert!(
            fair < fifo / 4.0,
            "fair share must shield the victim: fair={fair:.4}s fifo={fifo:.4}s"
        );
    }

    #[test]
    fn qos_off_and_single_tenant_fair_share_cost_identically() {
        // Work conservation: with no competing tenant the fair-share
        // discipline never paces, so completion times match the direct
        // path bit for bit.
        let run = |with_qos: bool| -> Vec<f64> {
            let p = hot_fs(2);
            if with_qos {
                p.enable_qos(QosConfig::default(), vec![0, 0]).unwrap();
            }
            let id = p.create("/f").unwrap();
            let chunk = vec![5u8; 300_000];
            let mut out = Vec::new();
            for i in 0..6u64 {
                out.push(
                    p.write_at(id, (i % 2) as usize, i * 300_000, &chunk, 0.0)
                        .unwrap(),
                );
            }
            let mut buf = vec![0u8; 100_000];
            out.push(p.read_at(id, 1, 0, &mut buf, out[5]).unwrap());
            out
        };
        let off = run(false);
        let on = run(true);
        for (a, b) in off.iter().zip(&on) {
            assert_eq!(a.to_bits(), b.to_bits(), "direct {a} vs qos-on {b}");
        }
    }

    #[test]
    fn token_bucket_slows_a_metered_tenant_only() {
        let p = hot_fs(2);
        p.enable_qos(
            QosConfig {
                // Tenant 0 capped at 1 MB/s with a 64 KB burst.
                token_buckets: vec![Some((1.0e6, 65536.0)), None],
                ..Default::default()
            },
            vec![0, 1],
        )
        .unwrap();
        let id = p.create("/f").unwrap();
        let data = vec![9u8; 1 << 20];
        let metered = p.write_at(id, 0, 0, &data, 0.0).unwrap();
        let free = p.write_at(id, 1, 1 << 20, &data, 0.0).unwrap();
        // ~1 MB at 1 MB/s ⇒ close to a second of admission wait.
        assert!(metered > 0.9, "metered tenant finished at {metered}");
        assert!(free < 0.5, "unmetered tenant dragged to {free}");
        assert!(p.tenant_report()[0].throttle_wait > 0.9);
    }

    #[test]
    fn gateway_batching_coalesces_small_write_overheads() {
        let run = |window: f64| -> f64 {
            // Metadata-heavy regime: per-request overhead dominates OST
            // service, which is exactly where gateway batching pays.
            let cfg = PfsConfig {
                num_osts: 1,
                stripe_count: 1,
                ost_service: 1.0e-5,
                ..Default::default()
            };
            let p = Pfs::new(1, cfg).unwrap();
            p.enable_qos(
                QosConfig {
                    batch_window: window,
                    ..Default::default()
                },
                vec![0],
            )
            .unwrap();
            let id = p.create("/f").unwrap();
            let mut t = 0.0;
            for i in 0..200u64 {
                t = p.write_at(id, 0, i * 64, &[0u8; 64], t).unwrap();
            }
            t
        };
        let unbatched = run(0.0);
        let batched = run(5.0e-3);
        assert!(
            batched < unbatched * 0.6,
            "batching must absorb per-RPC overhead: {batched} vs {unbatched}"
        );
    }

    #[test]
    fn drain_clients_beyond_the_map_bill_to_tenant_zero() {
        let p = hot_fs(3);
        p.enable_qos(QosConfig::default(), vec![0, 1]).unwrap();
        let id = p.create("/f").unwrap();
        p.write_at(id, 2, 0, &[1u8; 128], 0.0).unwrap();
        assert_eq!(p.tenant_report()[0].bytes_written, 128);
    }
}
