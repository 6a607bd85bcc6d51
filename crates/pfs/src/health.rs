//! # health — per-OST gray-failure tracking, circuit breakers, and hedging
//!
//! Crash-stop recovery (PR 4) handles OSTs that *die*; this module handles
//! OSTs that *lie* — the fail-slow server that still answers, just 50×
//! late, poisoning every collective round striped across it. Three
//! mechanisms, all driven by observations the cost model already makes:
//!
//! * **EWMA health tracking** — every serviced piece reports its *service
//!   ratio* (actual service time ÷ healthy service time for that piece
//!   size; exactly what a real client computes from its own latency
//!   measurements) plus its client-perceived latency, folded into a
//!   per-OST EWMA and a per-OST log2 latency histogram.
//! * **Three-state circuit breaker** per OST
//!   (`Closed → Open → HalfOpen → …`): the breaker opens when the EWMA
//!   ratio exceeds `OPEN_FACTOR` (after a minimum sample
//!   count) or when transient errors burst within
//!   `ERR_WINDOW`. While `Open`, *new writes route around*
//!   the quarantined OST via a relocation map (degraded-mode striping).
//!   After [`HealthConfig::open_secs`] the breaker half-opens: the next
//!   request through is the probe, and its observed ratio decides
//!   `Closed` (healthy again) or re-`Open`.
//! * **Adaptive hedged reads** — a read piece whose projected wait exceeds
//!   the live `HEDGE_QUANTILE` of the *healthy-OST*
//!   latency histograms (sick OSTs are excluded so their inflated tails
//!   cannot stretch the deadline; an `Open`/`HalfOpen` home hedges
//!   immediately) fires a speculative duplicate at a closed-breaker buddy
//!   OST. First service to finish wins; the loser's in-flight service is
//!   sunk cost but its response is never streamed (loser cancellation).
//!   A per-client token bucket (`HEDGE_BUDGET` earned per
//!   piece, reset to `HEDGE_BURST` at each collective via
//!   [`crate::Pfs::hedge_scope_begin`]) bounds hedge volume, and a hedge
//!   is never aimed at an OST whose breaker is not `Closed` — hedges
//!   cannot storm an already-sick server.
//!
//! Everything here is bookkeeping over deterministic virtual-time
//! observations: plain `&mut self` state owned by the file system and
//! reached under its one lock, so runs are bit-identical across repeats
//! and backends. When no health layer is attached every hook in the cost
//! model is one `None` check, as with chaos and QoS.

use std::collections::HashMap;

use mpisim::metrics::Hist;

/// EWMA smoothing for the per-OST service ratio (weight of the newest
/// sample).
const EWMA_ALPHA: f64 = 0.25;
/// EWMA service ratio at which the breaker opens. A healthy OST's ratio is
/// exactly 1.0, so any value > 1 keeps fault-free runs breaker-quiet.
const OPEN_FACTOR: f64 = 4.0;
/// Transient errors within [`ERR_WINDOW`] that open the breaker.
const ERR_THRESHOLD: usize = 3;
/// Sliding window (virtual seconds) for the error burst detector.
const ERR_WINDOW: f64 = 0.05;
/// Latency quantile of the healthy-OST histograms used as the hedge
/// deadline.
const HEDGE_QUANTILE: f64 = 0.95;
/// Hedge-budget tokens earned per hedge-eligible read piece.
const HEDGE_BUDGET: f64 = 0.25;
/// Token-bucket cap, and the per-collective allowance restored by
/// [`crate::Pfs::hedge_scope_begin`].
const HEDGE_BURST: f64 = 8.0;

/// Tuning knobs for the gray-failure defense layer: what a caller sizes
/// to its request counts. The defaults are sized for the simulated
/// testbed's sub-millisecond service times; the layer's fixed constants
/// are named constants of this module.
#[derive(Debug, Clone)]
pub struct HealthConfig {
    /// Samples an OST must accumulate before its EWMA can open the
    /// breaker (cold-start guard).
    pub min_samples: u64,
    /// Quarantine length: an `Open` breaker half-opens this many virtual
    /// seconds after it tripped.
    pub open_secs: f64,
    /// Healthy-histogram depth required before deadline hedging arms
    /// (an `Open`/`HalfOpen` home still hedges immediately).
    pub hedge_min_samples: u64,
}

impl Default for HealthConfig {
    fn default() -> Self {
        HealthConfig {
            min_samples: 8,
            open_secs: 0.02,
            hedge_min_samples: 32,
        }
    }
}

impl HealthConfig {
    pub fn validate(&self) -> Result<(), String> {
        if !(self.open_secs.is_finite() && self.open_secs > 0.0) {
            return Err(format!("open_secs {} must be > 0", self.open_secs));
        }
        Ok(())
    }
}

/// Circuit-breaker state of one OST.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Breaker {
    /// Healthy: requests flow normally.
    Closed,
    /// Quarantined until the stored instant: new writes route around, the
    /// home is a hedge-immediately read target, and it cannot be a hedge
    /// buddy.
    Open { until: f64 },
    /// Quarantine expired: the next request through is the probe whose
    /// observed ratio decides `Closed` or re-`Open`.
    HalfOpen,
}

impl Breaker {
    pub fn as_str(&self) -> &'static str {
        match self {
            Breaker::Closed => "closed",
            Breaker::Open { .. } => "open",
            Breaker::HalfOpen => "half_open",
        }
    }
}

/// Mutable tracking state of one OST.
#[derive(Debug)]
struct OstHealth {
    state: Breaker,
    /// EWMA of the service ratio (actual ÷ healthy service time).
    ewma: f64,
    samples: u64,
    /// Recent transient-error instants inside the sliding window.
    err_times: Vec<f64>,
    /// Times this OST's breaker tripped open.
    opens: u64,
    /// Client-perceived piece latency histogram (ns, log2 buckets).
    lat: Hist,
}

impl OstHealth {
    fn new() -> OstHealth {
        OstHealth {
            state: Breaker::Closed,
            ewma: 1.0,
            samples: 0,
            err_times: Vec::new(),
            opens: 0,
            lat: Hist::default(),
        }
    }

    /// Lazily advance `Open → HalfOpen` when the quarantine has expired,
    /// then report the state.
    fn breaker(&mut self, now: f64) -> Breaker {
        if let Breaker::Open { until } = self.state {
            if now >= until {
                self.state = Breaker::HalfOpen;
            }
        }
        self.state
    }

    fn trip(&mut self, until: f64) {
        self.state = Breaker::Open { until };
        self.opens += 1;
    }
}

/// One row of [`HealthSnapshot::osts`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OstHealthRow {
    pub ost: usize,
    pub state: Breaker,
    pub ewma: f64,
    pub samples: u64,
    pub opens: u64,
    pub errors: u64,
}

/// Monotonic counters + per-OST rows, for metrics export and the benches.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct HealthSnapshot {
    pub hedges_issued: u64,
    pub hedge_wins: u64,
    pub hedge_waste: u64,
    pub breaker_opens: u64,
    pub probes: u64,
    pub degraded_writes: u64,
    pub degraded_bytes: u64,
    pub rebuilt_extents: u64,
    pub rebuilt_bytes: u64,
    /// Relocation-map entries currently live (awaiting rebuild).
    pub relocated_live: u64,
    pub osts: Vec<OstHealthRow>,
}

/// Outcome of one [`crate::Pfs::rebuild`] pass.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RebuildReport {
    /// Relocation entries examined.
    pub scanned: u64,
    /// Extents migrated home (their breakers were closed).
    pub rebuilt_extents: u64,
    pub rebuilt_bytes: u64,
    /// Entries left in place (home breaker still not closed).
    pub remaining: u64,
    /// Virtual completion time of the last migration (`now` if none ran).
    pub completed_at: f64,
}

/// A hedge decision handed back to the cost model: book a duplicate
/// service on `buddy`, fired at `fire` (virtual seconds).
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct HedgeQuote {
    pub buddy: usize,
    pub fire: f64,
}

/// The attached gray-failure defense layer of one [`crate::Pfs`].
#[derive(Debug)]
pub(crate) struct Health {
    cfg: HealthConfig,
    osts: Vec<OstHealth>,
    /// Degraded-mode striping: `(file, stripe) → holder OST` for extents
    /// written while their home OST's breaker was open. Cost-plane only —
    /// file bytes live in one authoritative buffer, which is what makes
    /// post-rebuild read-back bit-identical by construction.
    reloc: HashMap<(u32, u64), usize>,
    /// Per-client hedge token buckets.
    budgets: HashMap<usize, f64>,
    hedges_issued: u64,
    hedge_wins: u64,
    hedge_waste: u64,
    probes: u64,
    degraded_writes: u64,
    degraded_bytes: u64,
    rebuilt_extents: u64,
    rebuilt_bytes: u64,
}

impl Health {
    pub(crate) fn new(cfg: HealthConfig, num_osts: usize) -> Result<Health, String> {
        cfg.validate()?;
        Ok(Health {
            cfg,
            osts: (0..num_osts).map(|_| OstHealth::new()).collect(),
            reloc: HashMap::new(),
            budgets: HashMap::new(),
            hedges_issued: 0,
            hedge_wins: 0,
            hedge_waste: 0,
            probes: 0,
            degraded_writes: 0,
            degraded_bytes: 0,
            rebuilt_extents: 0,
            rebuilt_bytes: 0,
        })
    }

    /// Forget every virtual instant, for a simulation whose clocks start
    /// at 0: the error windows empty, and an open breaker's quarantine,
    /// timed on the old clocks, counts as expired, so it half-opens and the
    /// next request probes it. EWMAs, latency histograms, counters and the
    /// relocation map persist.
    pub(crate) fn restart(&mut self) {
        for h in &mut self.osts {
            h.err_times.clear();
            if let Breaker::Open { .. } = h.state {
                h.state = Breaker::HalfOpen;
            }
        }
    }

    /// Breaker state of `ost` at `now` (an expired quarantine half-opens
    /// here). All state transitions are driven by request arrivals, never
    /// by wall clock — pure virtual time.
    pub(crate) fn breaker(&mut self, ost: usize, now: f64) -> Breaker {
        self.osts[ost].breaker(now)
    }

    /// Fold one serviced piece into the OST's health: `ratio` is the
    /// measured service ratio (1.0 = healthy), `latency` the
    /// client-perceived piece latency. Drives all breaker transitions that
    /// depend on observations.
    pub(crate) fn observe(&mut self, ost: usize, ratio: f64, latency: f64, now: f64) {
        let cfg = &self.cfg;
        let h = &mut self.osts[ost];
        h.ewma += EWMA_ALPHA * (ratio - h.ewma);
        h.samples += 1;
        h.lat.observe((latency.max(0.0) * 1e9) as u64);
        match h.state {
            Breaker::Closed => {
                if h.samples >= cfg.min_samples && h.ewma > OPEN_FACTOR {
                    h.trip(now + cfg.open_secs);
                }
            }
            Breaker::HalfOpen => {
                // This observation is the probe result.
                self.probes += 1;
                if ratio <= OPEN_FACTOR {
                    h.state = Breaker::Closed;
                    // Restart the EWMA from the probe so stale sickness
                    // does not instantly re-trip on the next sample.
                    h.ewma = ratio;
                    h.err_times.clear();
                } else {
                    h.trip(now + cfg.open_secs);
                }
            }
            Breaker::Open { .. } => {
                // Residual traffic (reads of unrelocated extents) keeps
                // feeding the EWMA but cannot transition an open breaker;
                // reopening happens via the half-open probe.
            }
        }
    }

    /// Record a transient error (injected outage) on `ost`. A burst inside
    /// the sliding window trips a closed breaker; a half-open breaker
    /// re-opens on a single error (the probe failed).
    pub(crate) fn observe_error(&mut self, ost: usize, now: f64) {
        let cfg = &self.cfg;
        let h = &mut self.osts[ost];
        h.err_times.retain(|&t| now - t < ERR_WINDOW);
        h.err_times.push(now);
        match h.breaker(now) {
            Breaker::Closed => {
                if h.err_times.len() >= ERR_THRESHOLD {
                    h.trip(now + cfg.open_secs);
                }
            }
            Breaker::HalfOpen => h.trip(now + cfg.open_secs),
            Breaker::Open { .. } => {}
        }
    }

    /// Where does a *read* of `(file, stripe)` go? The relocation holder
    /// if the extent was written degraded, else its home OST.
    pub(crate) fn route_read(&self, file: u32, stripe: u64, home: usize) -> usize {
        *self.reloc.get(&(file, stripe)).unwrap_or(&home)
    }

    /// The nearest OST after `home` (wrapping) whose breaker is `Closed`.
    fn closed_buddy(&mut self, home: usize, now: f64) -> Option<usize> {
        let n = self.osts.len();
        (1..n)
            .map(|d| (home + d) % n)
            .find(|&o| matches!(self.osts[o].breaker(now), Breaker::Closed))
    }

    /// Where does a *write* of `(file, stripe)` go? Relocated extents
    /// stick to their holder (that is where their cost-plane locality
    /// lives until rebuild). Otherwise an `Open` home quarantines the
    /// write onto the nearest closed-breaker OST and records the
    /// relocation; a `HalfOpen` home lets the write through as the probe.
    pub(crate) fn route_write(
        &mut self,
        file: u32,
        stripe: u64,
        home: usize,
        bytes: u64,
        now: f64,
    ) -> usize {
        if let Some(&holder) = self.reloc.get(&(file, stripe)) {
            return holder;
        }
        match self.breaker(home, now) {
            Breaker::Closed | Breaker::HalfOpen => home,
            Breaker::Open { .. } => match self.closed_buddy(home, now) {
                Some(target) => {
                    self.reloc.insert((file, stripe), target);
                    self.degraded_writes += 1;
                    self.degraded_bytes += bytes;
                    target
                }
                None => home,
            },
        }
    }

    /// Restore `client`'s hedge allowance; the I/O layers call this (via
    /// [`crate::Pfs::hedge_scope_begin`]) at each collective-read entry,
    /// making the budget per-collective.
    pub(crate) fn scope_begin(&mut self, client: usize) {
        self.budgets.insert(client, HEDGE_BURST);
    }

    /// Decide whether to hedge a read piece served by `home`, whose
    /// primary service is projected to finish at `primary_fin`, for a
    /// client that started waiting at `wait_start`.
    ///
    /// Deadline math: a `Closed` home uses the `HEDGE_QUANTILE` of the merged latency histograms
    /// of all closed-breaker OSTs (the healthy population — a sick home
    /// must not stretch its own deadline); an `Open`/`HalfOpen` home is
    /// known-sick and hedges immediately (deadline 0). No hedge fires if
    /// the primary beats the deadline, if no closed-breaker buddy exists,
    /// or if the client's token bucket is dry.
    pub(crate) fn hedge_quote(
        &mut self,
        home: usize,
        client: usize,
        wait_start: f64,
        primary_fin: f64,
    ) -> Option<HedgeQuote> {
        let deadline = match self.breaker(home, wait_start) {
            Breaker::Open { .. } | Breaker::HalfOpen => 0.0,
            Breaker::Closed => {
                // The home's own history counts too: pre-sickness samples
                // are healthy evidence, and excluding them would leave a
                // single-OST system deadline-less.
                let mut merged = Hist::default();
                for h in &self.osts {
                    if matches!(h.state, Breaker::Closed) {
                        merged.merge(&h.lat);
                    }
                }
                if merged.count() < self.cfg.hedge_min_samples {
                    return None;
                }
                merged.quantile(HEDGE_QUANTILE) as f64 / 1e9
            }
        };
        // Earn per-piece budget, capped at the burst allowance.
        let b = self.budgets.entry(client).or_insert(HEDGE_BURST);
        *b = (*b + HEDGE_BUDGET).min(HEDGE_BURST);
        let fire = wait_start + deadline;
        if primary_fin <= fire {
            // The primary response will beat the deadline: the duplicate
            // is never sent (virtual-time omniscience stands in for the
            // cancel-on-response a real client performs).
            return None;
        }
        // A hedge must aim at a healthy OST — never storm a sick one.
        let buddy = self.closed_buddy(home, wait_start)?;
        // The `entry` call above inserted it and nothing removes buckets.
        let b = self.budgets.get_mut(&client).expect("bucket earned above");
        if *b < 1.0 {
            return None;
        }
        *b -= 1.0;
        self.hedges_issued += 1;
        Some(HedgeQuote { buddy, fire })
    }

    /// Report which service won the race after a hedge was booked.
    pub(crate) fn hedge_outcome(&mut self, win: bool) {
        if win {
            self.hedge_wins += 1;
        } else {
            self.hedge_waste += 1;
        }
    }

    /// Relocation entries in deterministic (file, stripe) order.
    pub(crate) fn reloc_entries(&self) -> Vec<(u32, u64, usize)> {
        let mut v: Vec<(u32, u64, usize)> =
            self.reloc.iter().map(|(&(f, s), &o)| (f, s, o)).collect();
        v.sort_unstable();
        v
    }

    /// Drop a relocation entry after its extent migrated home.
    pub(crate) fn reloc_clear(&mut self, file: u32, stripe: u64, bytes: u64) {
        self.reloc.remove(&(file, stripe));
        self.rebuilt_extents += 1;
        self.rebuilt_bytes += bytes;
    }

    pub(crate) fn snapshot(&self) -> HealthSnapshot {
        HealthSnapshot {
            hedges_issued: self.hedges_issued,
            hedge_wins: self.hedge_wins,
            hedge_waste: self.hedge_waste,
            breaker_opens: self.osts.iter().map(|h| h.opens).sum(),
            probes: self.probes,
            degraded_writes: self.degraded_writes,
            degraded_bytes: self.degraded_bytes,
            rebuilt_extents: self.rebuilt_extents,
            rebuilt_bytes: self.rebuilt_bytes,
            relocated_live: self.reloc.len() as u64,
            osts: self
                .osts
                .iter()
                .enumerate()
                .map(|(i, h)| OstHealthRow {
                    ost: i,
                    state: h.state,
                    ewma: h.ewma,
                    samples: h.samples,
                    opens: h.opens,
                    errors: h.err_times.len() as u64,
                })
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn health(n: usize) -> Health {
        Health::new(HealthConfig::default(), n).unwrap()
    }

    #[test]
    fn healthy_observations_never_trip() {
        let mut h = health(4);
        for i in 0..1000 {
            h.observe(1, 1.0, 500e-6, i as f64 * 1e-3);
        }
        assert_eq!(h.breaker(1, 1.0), Breaker::Closed);
        assert_eq!(h.snapshot().breaker_opens, 0);
        assert_eq!(h.route_write(0, 7, 1, 100, 1.0), 1, "routes home");
        assert_eq!(h.route_read(0, 7, 1), 1);
    }

    #[test]
    fn ewma_trips_after_min_samples_and_probe_closes() {
        let cfg = HealthConfig::default();
        let mut h = health(4);
        let mut t = 0.0;
        // Sick ratios: the breaker must not trip before min_samples.
        for i in 0..cfg.min_samples * 2 {
            h.observe(2, 50.0, 5e-3, t);
            if i + 1 < cfg.min_samples {
                assert_eq!(h.breaker(2, t), Breaker::Closed, "sample {i}");
            }
            t += 1e-3;
        }
        let state = h.breaker(2, t);
        assert!(matches!(state, Breaker::Open { .. }), "{state:?}");
        assert_eq!(h.snapshot().breaker_opens, 1);
        // Quarantine expires → half-open; a healthy probe closes it.
        t += cfg.open_secs;
        assert_eq!(h.breaker(2, t), Breaker::HalfOpen);
        h.observe(2, 1.0, 500e-6, t);
        assert_eq!(h.breaker(2, t), Breaker::Closed);
        assert_eq!(h.snapshot().probes, 1);
        // A sick probe re-opens instead.
        for _ in 0..cfg.min_samples * 2 {
            h.observe(2, 50.0, 5e-3, t);
            t += 1e-3;
        }
        assert!(matches!(h.breaker(2, t), Breaker::Open { .. }));
        t += cfg.open_secs;
        assert_eq!(h.breaker(2, t), Breaker::HalfOpen);
        h.observe(2, 50.0, 5e-3, t);
        assert!(matches!(h.breaker(2, t), Breaker::Open { .. }));
        assert_eq!(h.snapshot().breaker_opens, 3);
    }

    #[test]
    fn error_burst_trips_immediately() {
        let mut h = health(4);
        h.observe_error(0, 0.010);
        h.observe_error(0, 0.020);
        assert_eq!(h.breaker(0, 0.020), Breaker::Closed, "below threshold");
        h.observe_error(0, 0.030);
        assert!(matches!(h.breaker(0, 0.030), Breaker::Open { .. }));
        // Spread-out errors never accumulate past the window.
        let mut h2 = health(4);
        for i in 0..10 {
            h2.observe_error(1, i as f64); // 1 s apart >> 50 ms window
        }
        assert_eq!(h2.breaker(1, 10.0), Breaker::Closed);
    }

    #[test]
    fn a_restart_half_opens_and_forgets_the_error_window() {
        let mut h = health(4);
        for t in [0.010, 0.020, 0.030] {
            h.observe_error(0, t);
        }
        h.observe_error(1, 0.010);
        h.observe_error(1, 0.020);
        assert!(matches!(h.breaker(0, 0.030), Breaker::Open { .. }));
        h.restart();
        assert_eq!(h.breaker(0, 0.0), Breaker::HalfOpen, "next request probes");
        // OST 1's two errors were on the old clocks: a third now is one.
        h.observe_error(1, 0.0);
        assert_eq!(h.breaker(1, 0.0), Breaker::Closed);
        assert_eq!(h.snapshot().breaker_opens, 1, "counters persist");
    }

    #[test]
    fn open_breaker_relocates_writes_and_rebuild_clears() {
        let mut h = health(4);
        let mut t = 0.0;
        for _ in 0..20 {
            h.observe(1, 50.0, 5e-3, t);
            t += 1e-3;
        }
        assert!(matches!(h.breaker(1, t), Breaker::Open { .. }));
        // New write to a stripe homed on OST 1 → relocated to OST 2.
        assert_eq!(h.route_write(5, 9, 1, 4096, t), 2);
        assert_eq!(h.route_read(5, 9, 1), 2, "reads follow the holder");
        // The same stripe stays on its holder even after more writes.
        assert_eq!(h.route_write(5, 9, 1, 4096, t), 2);
        let snap = h.snapshot();
        assert_eq!(snap.degraded_writes, 1, "relocation recorded once");
        assert_eq!(snap.degraded_bytes, 4096);
        assert_eq!(snap.relocated_live, 1);
        assert_eq!(h.reloc_entries(), vec![(5, 9, 2)]);
        h.reloc_clear(5, 9, 4096);
        assert_eq!(h.route_read(5, 9, 1), 1, "home again after rebuild");
        let snap = h.snapshot();
        assert_eq!(snap.rebuilt_extents, 1);
        assert_eq!(snap.relocated_live, 0);
    }

    #[test]
    fn hedge_quote_respects_deadline_buddies_and_budget() {
        let cfg = HealthConfig {
            hedge_min_samples: 4,
            ..HealthConfig::default()
        };
        let mut h = Health::new(cfg, 4).unwrap();
        // Seed all OSTs with 1 ms latencies → p95 deadline ≈ the 1–2 ms
        // bucket bound.
        for ost in 0..4 {
            for i in 0..50 {
                h.observe(ost, 1.0, 1e-3, i as f64 * 1e-3);
            }
        }
        // Primary projected to finish well inside the deadline: no hedge.
        assert_eq!(h.hedge_quote(0, 0, 10.0, 10.0 + 1e-3), None);
        // Primary projected far past the deadline: hedge at the quantile.
        let q = h.hedge_quote(0, 0, 10.0, 10.0 + 1.0).expect("should hedge");
        assert_eq!(q.buddy, 1, "nearest closed-breaker buddy");
        assert!(q.fire > 10.0 && q.fire < 10.0 + 0.1, "fire {}", q.fire);
        // Budget: every quote earns `HEDGE_BUDGET` = 0.25, capped at
        // `HEDGE_BURST` = 8, and every hedge spends one token. The bucket
        // holds 8 − 1 after the hedge above, then 0.75 less after each
        // hedge: nine more fit, and the quote after them finds 0.5.
        let mut t = 20.0;
        while h.hedge_quote(0, 0, t, t + 1.0).is_some() {
            t += 10.0;
        }
        assert_eq!(h.snapshot().hedges_issued, 10, "budget dry");
        // A new collective scope restores the allowance.
        h.scope_begin(0);
        assert!(h.hedge_quote(0, 0, t, t + 1.0).is_some());
        h.hedge_outcome(true);
        h.hedge_outcome(false);
        let snap = h.snapshot();
        assert_eq!(snap.hedge_wins, 1);
        assert_eq!(snap.hedge_waste, 1);
    }

    #[test]
    fn hedge_never_targets_a_sick_buddy() {
        let cfg = HealthConfig {
            hedge_min_samples: 1,
            ..HealthConfig::default()
        };
        let mut h = Health::new(cfg, 3).unwrap();
        let mut t = 0.0;
        for ost in 0..3 {
            for _ in 0..4 {
                h.observe(ost, 1.0, 1e-3, t);
                t += 1e-3;
            }
        }
        // Sicken OST 1 (the would-be nearest buddy of OST 0).
        for _ in 0..20 {
            h.observe(1, 50.0, 5e-3, t);
            t += 1e-3;
        }
        assert!(matches!(h.breaker(1, t), Breaker::Open { .. }));
        let q = h.hedge_quote(0, 0, t, t + 1.0).expect("should hedge");
        assert_eq!(q.buddy, 2, "skips the open-breaker OST");
        // With every other OST sick there is no buddy → no hedge.
        for _ in 0..20 {
            h.observe(2, 50.0, 5e-3, t);
            t += 1e-3;
        }
        assert!(matches!(h.breaker(2, t), Breaker::Open { .. }));
        assert_eq!(h.hedge_quote(0, 0, t, t + 1.0), None);
    }

    #[test]
    fn open_home_hedges_immediately() {
        let cfg = HealthConfig {
            hedge_min_samples: u64::MAX, // deadline hedging can never arm
            ..HealthConfig::default()
        };
        let mut h = Health::new(cfg, 3).unwrap();
        let mut t = 0.0;
        for _ in 0..20 {
            h.observe(0, 50.0, 5e-3, t);
            t += 1e-3;
        }
        assert!(matches!(h.breaker(0, t), Breaker::Open { .. }));
        // Even with no histogram depth, a sick home fires at deadline 0.
        let q = h.hedge_quote(0, 0, t, t + 1.0).expect("sick home hedges");
        assert_eq!(q.fire, t);
        assert_eq!(q.buddy, 1);
    }

    #[test]
    fn bad_configs_rejected() {
        let bad = HealthConfig {
            open_secs: 0.0,
            ..HealthConfig::default()
        };
        assert!(Health::new(bad, 2).is_err());
    }
}
