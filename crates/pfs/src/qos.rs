//! Multi-tenant QoS in front of the OSTs.
//!
//! A shared facility runs many unrelated jobs against one file system. The
//! defense against a pathological tenant has three stages, all modeled in
//! virtual time and all **zero-cost when no QoS layer is attached** (the
//! hot paths in [`crate::Pfs`] only consult this module through an
//! `Option` that is `None` by default):
//!
//! 1. **Token-bucket admission** per tenant at the gateway: a tenant's
//!    aggregate byte rate into the storage network is capped at `rate`
//!    bytes/s with a `burst` allowance; excess requests wait before the
//!    request overhead is even paid.
//! 2. **Gateway request batching**: small requests (≤ `BATCH_THRESHOLD`
//!    bytes) from one tenant arriving within `batch_window` seconds
//!    coalesce — the window opener pays the full per-RPC overhead, the
//!    followers pay only `BATCHED_OVERHEAD`. This is what keeps a
//!    metadata-heavy tenant from melting the request path.
//! 3. **Weighted fair sharing of each OST** ([`Discipline::FairShare`]):
//!    share-paced booking with a burst allowance. The cost model books
//!    OST service at *request* time and bookings are immutable, so a
//!    flooding tenant would otherwise reserve the entire timeline before
//!    its victims ever show up — no after-the-fact scheduler can help a
//!    request that arrives behind a wall of existing reservations. Fair
//!    share therefore caps the booking itself: each (OST, tenant) virtual
//!    clock advances by `service × Σweights / weight` per piece, and a
//!    piece becomes eligible no earlier than `vclock − fair_allowance`.
//!    Inside the allowance a tenant bursts at full speed; beyond it, its
//!    reservations are spaced out to its weighted share, and the gaps
//!    between them are exactly where competing tenants' requests land
//!    (the timeline reservation is first-fit). That backfill is the
//!    isolation mechanism. The deliberate trade-off: a tenant that
//!    out-runs its share is paced even while the other tenants are
//!    momentarily idle — the facility reserves their headroom, like a
//!    strict rate guarantee — because with immutable bookings, capacity
//!    not reserved now cannot be reclaimed for a victim later. A
//!    single-tenant facility has nothing to reserve and is never paced
//!    (bit-identical to no QoS at all).
//!
//! [`Discipline::Fifo`] keeps the tagging, admission, and batching but
//! serves OSTs in plain arrival order — the ablation baseline that the
//! isolation experiments beat.

/// Only requests of at most this many bytes coalesce.
const BATCH_THRESHOLD: u64 = 4096;
/// Per-RPC overhead paid by coalesced followers (the window opener pays
/// the full per-RPC request overhead).
const BATCHED_OVERHEAD: f64 = 5.0e-6;

/// OST queue discipline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Discipline {
    /// Arrival order (today's behaviour): no pacing, a burst occupies the
    /// OST timeline contiguously and later arrivals queue behind it.
    Fifo,
    /// Weighted fair sharing via per-tenant virtual clocks (see module
    /// docs).
    FairShare,
}

/// QoS layer configuration. `weights`/`token_buckets` are indexed by
/// tenant id; missing entries default to weight 1.0 and no admission cap.
#[derive(Debug, Clone)]
pub struct QosConfig {
    pub discipline: Discipline,
    /// Per-tenant fair-share weights (> 0).
    pub weights: Vec<f64>,
    /// Per-tenant `(rate bytes/s, burst bytes)` admission caps.
    pub token_buckets: Vec<Option<(f64, f64)>>,
    /// Gateway coalescing window in seconds (0 disables batching).
    pub batch_window: f64,
    /// Burst allowance of the fair-share pacer: how many seconds of
    /// share-charged service a tenant may book ahead on one OST before
    /// its pieces are paced to its weighted share.
    pub fair_allowance: f64, // setting: the pfs fingerprint's QoS cell sets it
}

impl Default for QosConfig {
    fn default() -> Self {
        QosConfig {
            discipline: Discipline::FairShare,
            weights: Vec::new(),
            token_buckets: Vec::new(),
            batch_window: 0.0,
            fair_allowance: 5.0e-3,
        }
    }
}

impl QosConfig {
    pub fn validate(&self) -> Result<(), String> {
        for &w in &self.weights {
            if !w.is_finite() || w <= 0.0 {
                return Err(format!("bad fair-share weight {w}"));
            }
        }
        for tb in self.token_buckets.iter().flatten() {
            let (rate, burst) = *tb;
            if !rate.is_finite() || rate <= 0.0 || !burst.is_finite() || burst < 0.0 {
                return Err(format!("bad token bucket ({rate}, {burst})"));
            }
        }
        if !self.batch_window.is_finite() || self.batch_window < 0.0 {
            return Err(format!("bad batch window {}", self.batch_window));
        }
        if !self.fair_allowance.is_finite() || self.fair_allowance < 0.0 {
            return Err(format!("bad fair allowance {}", self.fair_allowance));
        }
        Ok(())
    }
}

/// Per-tenant usage and QoS-intervention accounting (virtual time).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct TenantUsage {
    pub tenant: usize,
    pub read_rpcs: u64,
    pub write_rpcs: u64,
    pub bytes_read: u64,
    pub bytes_written: u64,
    /// Seconds requests waited at the token-bucket gate.
    pub throttle_wait: f64,
    /// Seconds of fair-share pacing applied at OSTs.
    pub fair_delay: f64,
    /// RPCs that coalesced into an open gateway batch window.
    pub batched_rpcs: u64,
}

#[derive(Debug, Clone, Default)]
struct TenantState {
    /// Token bucket: available bytes and the virtual instant they were
    /// last updated.
    tokens: f64,
    stamp: f64,
    /// End of the currently open gateway batch window.
    window_end: f64,
    usage: TenantUsage,
}

/// The attached QoS layer (see module docs). One per [`crate::Pfs`],
/// owned by its state and reached under its one lock.
#[derive(Debug)]
pub(crate) struct Qos {
    cfg: QosConfig,
    total_weight: f64,
    tenant_of_client: Vec<u32>,
    tenants: Vec<TenantState>,
    /// Fair-share state: one share-charged virtual clock per (OST, tenant).
    vclock: Vec<Vec<f64>>,
}

impl Qos {
    pub(crate) fn new(
        cfg: QosConfig,
        tenant_of_client: Vec<u32>,
        num_osts: usize,
    ) -> Result<Qos, String> {
        cfg.validate()?;
        let ntenants = tenant_of_client
            .iter()
            .map(|&t| t as usize + 1)
            .max()
            .unwrap_or(1)
            .max(cfg.weights.len())
            .max(cfg.token_buckets.len());
        let mut tenants = vec![TenantState::default(); ntenants];
        for (t, st) in tenants.iter_mut().enumerate() {
            st.usage.tenant = t;
        }
        let total_weight = (0..ntenants)
            .map(|t| cfg.weights.get(t).copied().unwrap_or(1.0))
            .sum();
        let mut q = Qos {
            vclock: vec![vec![0.0; ntenants]; num_osts],
            tenants,
            total_weight,
            tenant_of_client,
            cfg,
        };
        q.restart();
        Ok(q)
    }

    /// Put every virtual instant back to 0, for a simulation whose clocks
    /// start there: buckets start full (a fresh tenant may burst
    /// immediately), no batch window is open, and the fair-share clocks
    /// restart. Usage counts persist.
    pub(crate) fn restart(&mut self) {
        for (t, st) in self.tenants.iter_mut().enumerate() {
            st.tokens = match self.cfg.token_buckets.get(t) {
                Some(&Some((_, burst))) => burst,
                _ => 0.0,
            };
            st.stamp = 0.0;
            st.window_end = 0.0;
        }
        for clocks in &mut self.vclock {
            clocks.fill(0.0);
        }
    }

    /// Tenant owning `client`; unmapped clients (e.g. internal drain
    /// agents) belong to tenant 0.
    fn tenant_of(&self, client: usize) -> usize {
        self.tenant_of_client
            .get(client)
            .map(|&t| t as usize)
            .unwrap_or(0)
    }

    fn weight(&self, tenant: usize) -> f64 {
        self.cfg.weights.get(tenant).copied().unwrap_or(1.0)
    }

    /// Token-bucket admission of a `bytes`-sized request arriving at
    /// `now`: returns the instant the request may proceed.
    pub(crate) fn admit(&mut self, client: usize, bytes: u64, now: f64) -> f64 {
        let tenant = self.tenant_of(client);
        let Some(&Some((rate, burst))) = self.cfg.token_buckets.get(tenant) else {
            return now;
        };
        let st = &mut self.tenants[tenant];
        // Never refill into the past: a request whose virtual arrival
        // precedes the bucket's stamp (ranks call in at skewed clocks)
        // joins at the stamp instead of minting tokens twice.
        let t0 = now.max(st.stamp);
        if t0 > st.stamp {
            st.tokens = burst.min(st.tokens + (t0 - st.stamp) * rate);
            st.stamp = t0;
        }
        let need = bytes as f64;
        let admitted = if st.tokens >= need {
            st.tokens -= need;
            t0
        } else {
            let wait = (need - st.tokens) / rate;
            st.tokens = 0.0;
            st.stamp = t0 + wait;
            t0 + wait
        };
        st.usage.throttle_wait += admitted - now;
        admitted
    }

    /// Per-RPC gateway overhead after coalescing: small requests landing
    /// inside an open batch window pay `BATCHED_OVERHEAD` instead of
    /// `base`.
    pub(crate) fn rpc_overhead(&mut self, client: usize, len: u64, t: f64, base: f64) -> f64 {
        if self.cfg.batch_window <= 0.0 || len > BATCH_THRESHOLD {
            return base;
        }
        let tenant = self.tenant_of(client);
        let st = &mut self.tenants[tenant];
        if t < st.window_end {
            st.usage.batched_rpcs += 1;
            BATCHED_OVERHEAD
        } else {
            st.window_end = t + self.cfg.batch_window;
            base
        }
    }

    /// Earliest instant a piece of service length `dur` from `client`,
    /// arriving at the OST at `arrive`, may start service under the
    /// configured discipline. Also advances the tenant's virtual clock.
    pub(crate) fn ost_eligible(&mut self, ost: usize, client: usize, arrive: f64, dur: f64) -> f64 {
        if self.cfg.discipline != Discipline::FairShare || self.tenants.len() <= 1 {
            // FIFO, or nobody to protect: bookings are never perturbed
            // (single-tenant fair share is bit-identical to no QoS).
            return arrive;
        }
        let tenant = self.tenant_of(client);
        // Idle catch-up: a tenant that booked less than real time has
        // passed restarts its clock at the present — unused share is not
        // banked.
        let vc = self.vclock[ost][tenant].max(arrive);
        // Inside the allowance the piece books immediately; beyond it,
        // eligibility trails the share-charged clock, spacing this
        // tenant's reservations to `weight / Σweights` of the OST and
        // leaving first-fit gaps for everyone else to backfill.
        let start = arrive.max(vc - self.cfg.fair_allowance);
        self.vclock[ost][tenant] = vc + dur * (self.total_weight / self.weight(tenant));
        if start > arrive {
            self.tenants[tenant].usage.fair_delay += start - arrive;
        }
        start
    }

    /// Per-piece usage accounting.
    pub(crate) fn note_io(&mut self, client: usize, is_write: bool, bytes: u64) {
        let tenant = self.tenant_of(client);
        let u = &mut self.tenants[tenant].usage;
        if is_write {
            u.write_rpcs += 1;
            u.bytes_written += bytes;
        } else {
            u.read_rpcs += 1;
            u.bytes_read += bytes;
        }
    }

    /// Per-tenant usage snapshot, ascending tenant order.
    pub(crate) fn usage(&self) -> Vec<TenantUsage> {
        self.tenants.iter().map(|s| s.usage).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn qos(cfg: QosConfig, map: Vec<u32>) -> Qos {
        Qos::new(cfg, map, 2).unwrap()
    }

    #[test]
    fn config_validation() {
        assert!(QosConfig::default().validate().is_ok());
        let bad = QosConfig {
            weights: vec![0.0],
            ..Default::default()
        };
        assert!(bad.validate().is_err());
        let bad = QosConfig {
            token_buckets: vec![Some((-1.0, 0.0))],
            ..Default::default()
        };
        assert!(bad.validate().is_err());
        let bad = QosConfig {
            batch_window: f64::NAN,
            ..Default::default()
        };
        assert!(bad.validate().is_err());
    }

    #[test]
    fn token_bucket_paces_to_rate() {
        let cfg = QosConfig {
            token_buckets: vec![Some((1000.0, 500.0))],
            ..Default::default()
        };
        let mut q = qos(cfg, vec![0]);
        // The burst passes immediately...
        assert_eq!(q.admit(0, 500, 0.0), 0.0);
        // ...then a 1000-byte request must wait a full second.
        let t = q.admit(0, 1000, 0.0);
        assert!((t - 1.0).abs() < 1e-12, "admitted at {t}");
        // Tokens accumulate while the tenant is idle, capped at burst.
        let t2 = q.admit(0, 400, 10.0);
        assert_eq!(t2, 10.0);
        let u = q.usage();
        assert!(u[0].throttle_wait > 0.99);
    }

    #[test]
    fn admission_never_refills_into_the_past() {
        let cfg = QosConfig {
            token_buckets: vec![Some((1000.0, 100.0))],
            ..Default::default()
        };
        let mut q = qos(cfg, vec![0, 0]);
        let t = q.admit(0, 100, 5.0); // drains the bucket at t=5
        assert_eq!(t, 5.0);
        // A straggler arriving "earlier" cannot mint tokens: it queues at
        // the bucket's stamp.
        let t2 = q.admit(1, 100, 1.0);
        assert!(t2 >= 5.0, "straggler admitted at {t2}");
    }

    #[test]
    fn unmetered_tenant_passes_untouched() {
        let mut q = qos(QosConfig::default(), vec![0]);
        assert_eq!(q.admit(0, 1 << 30, 3.0), 3.0);
        assert_eq!(q.usage()[0].throttle_wait, 0.0);
    }

    #[test]
    fn batching_coalesces_small_requests_within_the_window() {
        let cfg = QosConfig {
            batch_window: 1.0e-3,
            ..Default::default()
        };
        let mut q = qos(cfg, vec![0]);
        let base = 60.0e-6;
        // Window opener pays full freight.
        assert_eq!(q.rpc_overhead(0, 100, 0.0, base), base);
        // Followers inside the window coalesce.
        assert_eq!(q.rpc_overhead(0, 100, 0.5e-3, base), BATCHED_OVERHEAD);
        assert_eq!(q.rpc_overhead(0, 100, 0.9e-3, base), BATCHED_OVERHEAD);
        // Past the window a new opener pays again.
        assert_eq!(q.rpc_overhead(0, 100, 2.0e-3, base), base);
        // Large requests never coalesce.
        assert_eq!(q.rpc_overhead(0, BATCH_THRESHOLD + 1, 0.5e-3, base), base);
        assert_eq!(q.usage()[0].batched_rpcs, 2);
    }

    #[test]
    fn fair_share_paces_only_beyond_the_allowance() {
        let cfg = QosConfig {
            discipline: Discipline::FairShare,
            fair_allowance: 0.15,
            ..Default::default()
        };
        let mut q = qos(cfg.clone(), vec![0, 1]);
        let d = 0.1; // equal weights, two tenants: clock charges 2×d per piece
                     // A tenant issuing slower than its share never touches the
                     // allowance: the clock catches up to real time between pieces.
        assert_eq!(q.ost_eligible(0, 0, 0.0, d), 0.0);
        assert_eq!(q.ost_eligible(0, 0, 0.3, d), 0.3);
        // A burst runs free inside the allowance, then its eligibility
        // trails the clock: reservations spaced at share rate (2×d),
        // leaving first-fit gaps for the other tenant to backfill.
        let e1 = q.ost_eligible(0, 1, 0.0, d);
        let e2 = q.ost_eligible(0, 1, 0.0, d);
        let e3 = q.ost_eligible(0, 1, 0.0, d);
        assert_eq!(e1, 0.0);
        assert!(e2 > 0.0, "second piece exceeds the allowance");
        assert!((e3 - e2 - 2.0 * d).abs() < 1e-12, "paced to share rate");
        assert!(q.usage()[1].fair_delay > 0.0);
        // A different OST has its own clock.
        assert_eq!(q.ost_eligible(1, 1, 0.0, d), 0.0);
        // A single-tenant facility has nobody to protect: never paced.
        let mut lone = qos(cfg, vec![0]);
        for _ in 0..10 {
            assert_eq!(lone.ost_eligible(0, 0, 0.0, d), 0.0);
        }
        assert_eq!(lone.usage()[0].fair_delay, 0.0);
    }

    #[test]
    fn fifo_never_paces() {
        let cfg = QosConfig {
            discipline: Discipline::Fifo,
            fair_allowance: 0.0,
            ..Default::default()
        };
        let mut q = qos(cfg, vec![0, 1]);
        q.ost_eligible(0, 1, 0.0, 0.5);
        for _ in 0..10 {
            assert_eq!(q.ost_eligible(0, 0, 0.0, 0.5), 0.0);
        }
        assert_eq!(q.usage()[0].fair_delay, 0.0);
    }

    #[test]
    fn usage_accounts_per_tenant() {
        let mut q = qos(QosConfig::default(), vec![0, 1, 1]);
        q.note_io(0, true, 100);
        q.note_io(1, false, 50);
        q.note_io(2, true, 25);
        let u = q.usage();
        assert_eq!(u.len(), 2);
        assert_eq!((u[0].write_rpcs, u[0].bytes_written), (1, 100));
        assert_eq!((u[1].read_rpcs, u[1].bytes_read), (1, 50));
        assert_eq!((u[1].write_rpcs, u[1].bytes_written), (1, 25));
        // Clients beyond the map land in tenant 0, not out of bounds.
        q.note_io(99, true, 1);
        assert_eq!(q.usage()[0].write_rpcs, 2);
    }
}
