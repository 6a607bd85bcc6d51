//! # chaos — deterministic fault injection for the simulation stack
//!
//! The paper evaluates TCIO on a healthy Lustre/InfiniBand testbed; this
//! crate lets the simulator study the same algorithms when the testbed
//! *misbehaves* — slow or dead OSTs, lock-revocation storms, message-delay
//! spikes, connection-cache flushes, and straggling ranks — all triggered
//! in **virtual time**, so every run with the same seed and the same
//! [`FaultPlan`] is bit-identical.
//!
//! The crate sits below `mpisim`/`pfs` in the dependency graph and knows
//! nothing about them: it compiles a declarative plan into a
//! [`ChaosEngine`], a set of pure virtual-time queries that the consumers
//! poll at their cost-model decision points:
//!
//! * `pfs` asks for per-OST service factors, outage windows (surfaced as
//!   `PfsError::Transient`), elevated per-request overhead, and whether a
//!   revocation storm is active;
//! * `mpisim`'s fabric asks for per-message delay spikes and
//!   connection-cache flush generations; the runtime asks for per-rank
//!   stall windows and compute slowdowns;
//! * `mpiio`/`tcio` ask which ranks are stalled (straggler aggregators) and
//!   read the [`RetryPolicy`] that budgets their exponential backoff.
//!
//! A fault is an [`Effect`] — a magnitude and a target — acting over a
//! [`Window`] `[from, until)` of virtual time, or one of two instants:
//! [`Fault::ConnFlush`] and [`Fault::RankCrash`] (a crash-stop is
//! *permanent*). The window is checked, tested, emptied and scaled in one
//! place, so an effect carries no time of its own. Because the queries are
//! pure functions of virtual time, no wall-clock state leaks into a
//! simulation: determinism is by construction, which is what makes chaos
//! runs usable as regression tests.
//!
//! Plans come from the [`FaultPlan`] builder API or from a TOML-subset
//! text format (see [`FaultPlan::parse`]).

#![forbid(unsafe_code)]

mod plan;

pub use plan::PlanError;

use std::ops::RangeInclusive;
use std::sync::Arc;

/// When a windowed fault acts: the half-open virtual-time interval
/// `[from, until)`, built by [`Effect::during`]. Its bounds are private:
/// this is the only code that compares an instant against them.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Window {
    from: f64,
    until: f64,
}

impl Window {
    fn check(self) -> Result<(), String> {
        if !(self.from.is_finite() && self.until.is_finite())
            || self.from < 0.0
            || self.until < self.from
        {
            return Err(format!("bad fault window [{}, {})", self.from, self.until));
        }
        Ok(())
    }

    /// Does the window hold instant `t`?
    fn contains(self, t: f64) -> bool {
        self.from <= t && t < self.until
    }

    /// Does the window hold no instant at all?
    fn is_empty(self) -> bool {
        self.until <= self.from
    }

    /// Does the window hold an instant at or after `t`?
    fn reaches(self, t: f64) -> bool {
        !self.is_empty() && t < self.until
    }

    /// The window shortened to `k` of its length, from the same start.
    fn scaled(self, k: f64) -> Window {
        Window {
            from: self.from,
            until: self.from + (self.until - self.from) * k,
        }
    }
}

/// What a windowed fault does while its window holds: a target and a
/// magnitude. Slowdown factors are `≥ 1` and compose multiplicatively with
/// others covering the same instant; additive magnitudes sum.
#[derive(Debug, Clone, PartialEq)]
pub enum Effect {
    /// OST `ost` serves requests `factor`× slower.
    OstSlowdown { ost: usize, factor: f64 },
    /// OST `ost` refuses service: accesses touching it fail with a
    /// transient error carrying `retry_after` = the window's end.
    OstOutage { ost: usize },
    /// Every file-system RPC pays `extra` additional request overhead
    /// (metadata-server brownout).
    RequestOverhead { extra: f64 },
    /// Extent-lock revocation storm: every lock acquisition by a client in
    /// `clients` (inclusive world ranks; `None` = every client) behaves as
    /// a conflicting transfer (revoke + re-grant), even from the current
    /// holder. A range lets a facility plan hammer one tenant while the
    /// others' lock traffic stays healthy.
    LockStorm {
        clients: Option<RangeInclusive<usize>>,
    },
    /// Every fabric message transmitted arrives an extra `delay` seconds
    /// late (switch congestion / route flap).
    MessageDelay { delay: f64 },
    /// Rank `rank` is descheduled: the first runtime operation it attempts
    /// inside the window stalls until the window ends.
    RankStall { rank: usize },
    /// Rank `rank`'s local work runs `factor`× slower.
    RankSlowdown { rank: usize, factor: f64 },
    /// Silent data corruption: each PFS stripe write is corrupted *after*
    /// its checksum is recorded with probability `rate` (decided
    /// deterministically per write site via [`ChaosEngine::unit_hash`]).
    /// The stored bytes then disagree with the stored checksum — exactly
    /// the failure end-to-end verification exists to catch.
    SilentCorruption { rate: f64 },
    /// Gray failure: OST `ost` is *flaky* — it cycles between healthy
    /// service and `factor`× tail-latency spikes. Each `period`-second
    /// cycle contains one spike covering a `duty` fraction of the cycle,
    /// with the spike's phase within the cycle drawn deterministically per
    /// cycle from the plan seed. Unlike [`Effect::OstSlowdown`] the
    /// degradation is intermittent, which is what defeats naive threshold
    /// detectors and motivates EWMA health tracking + hedging.
    FlakyOst {
        ost: usize,
        factor: f64,
        period: f64,
        duty: f64,
    },
    /// Gray failure: the fabric path from node `src` to node `dst` loses
    /// bandwidth — transfers in that direction take `factor`× longer.
    /// Asymmetric by design (the reverse path is unaffected unless a second
    /// fault names it), modeling a degraded link lane / failing optic.
    LinkDegrade { src: usize, dst: usize, factor: f64 },
}

impl Effect {
    /// This effect acting over `[from, until)`.
    pub fn during(self, from: f64, until: f64) -> Fault {
        Fault::During {
            effect: self,
            window: Window { from, until },
        }
    }

    fn check(&self) -> Result<(), String> {
        let need = |what: &str, x: f64, ok: bool, rule: &str| {
            if x.is_finite() && ok {
                Ok(())
            } else {
                Err(format!("{what} {x} must be {rule}"))
            }
        };
        let factor = |f: f64| need("slowdown factor", f, f >= 1.0, "≥ 1");
        let unit = |what, x: f64| need(what, x, (0.0..=1.0).contains(&x), "in [0, 1]");
        match *self {
            Effect::OstOutage { .. } | Effect::RankStall { .. } => Ok(()),
            Effect::OstSlowdown { factor: f, .. }
            | Effect::RankSlowdown { factor: f, .. }
            | Effect::LinkDegrade { factor: f, .. } => factor(f),
            Effect::RequestOverhead { extra: x } | Effect::MessageDelay { delay: x } => {
                need("added time", x, x >= 0.0, "≥ 0")
            }
            Effect::SilentCorruption { rate } => unit("corruption rate", rate),
            Effect::LockStorm { ref clients } => match clients {
                Some(c) if c.is_empty() => Err(format!("bad client range {c:?}")),
                _ => Ok(()),
            },
            Effect::FlakyOst {
                factor: f,
                period,
                duty,
                ..
            } => {
                factor(f)?;
                need("flaky period", period, period > 0.0, "> 0")?;
                unit("flaky duty", duty)
            }
        }
    }

    /// The effect with its magnitude shrunk linearly toward "no fault" by
    /// `k ∈ [0, 1]`: factors toward 1, additive magnitudes and the flaky
    /// duty toward 0.
    fn scaled(&self, k: f64) -> Effect {
        let toward_one = |f: &mut f64| *f = 1.0 + (*f - 1.0) * k;
        let mut e = self.clone();
        match &mut e {
            Effect::OstSlowdown { factor, .. }
            | Effect::RankSlowdown { factor, .. }
            | Effect::LinkDegrade { factor, .. } => toward_one(factor),
            Effect::RequestOverhead { extra: x }
            | Effect::MessageDelay { delay: x }
            | Effect::SilentCorruption { rate: x } => *x *= k,
            Effect::FlakyOst { factor, duty, .. } => {
                toward_one(factor);
                *duty *= k;
            }
            Effect::OstOutage { .. } | Effect::RankStall { .. } | Effect::LockStorm { .. } => {}
        }
        e
    }
}

/// One injected fault. All times are virtual seconds.
#[derive(Debug, Clone, PartialEq)]
pub enum Fault {
    /// `effect` acts at every instant `window` holds. Build one with
    /// [`Effect::during`].
    During { effect: Effect, window: Window },
    /// All connection caches are invalidated at instant `at`: the first
    /// transfer of each source rank after `at` pays connection setup again.
    ConnFlush { at: f64 },
    /// Crash-stop: rank `rank` permanently fails at instant `at`. Its first
    /// runtime operation at or after `at` raises a typed error, and every
    /// later one does too — the rank never recovers.
    RankCrash { rank: usize, at: f64 },
}

impl Fault {
    fn check(&self) -> Result<(), String> {
        match self {
            Fault::During { effect, window } => window.check().and_then(|()| effect.check()),
            Fault::ConnFlush { at } | Fault::RankCrash { at, .. } => {
                if at.is_finite() && *at >= 0.0 {
                    Ok(())
                } else {
                    Err(format!("bad fault instant {at}"))
                }
            }
        }
    }

    /// The last instant the fault can act at: its window's end, or its
    /// instant.
    pub fn end(&self) -> f64 {
        match self {
            Fault::During { window, .. } => window.until,
            Fault::ConnFlush { at } | Fault::RankCrash { at, .. } => *at,
        }
    }
}

/// Retry budget for consumers that turn transient faults into
/// retry-with-exponential-backoff (`mpiio`, `tcio`). Backoff is paid in
/// *virtual* time, so a retry storm shows up in the makespan, not in
/// wall-clock test duration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Total attempts (first try included). `1` disables retries.
    pub max_attempts: u32,
    /// Backoff before the second attempt; doubles per attempt.
    pub base_backoff: f64,
    /// Cap on a single backoff wait.
    pub max_backoff: f64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 6,
            base_backoff: 1.0e-3,
            max_backoff: 0.25,
        }
    }
}

impl RetryPolicy {
    /// The backoff wait after failed attempt number `attempt` (1-based).
    pub fn backoff(&self, attempt: u32) -> f64 {
        let exp = attempt.saturating_sub(1).min(32);
        (self.base_backoff * (1u64 << exp) as f64).min(self.max_backoff)
    }
}

/// A declarative fault plan: a seed, a retry policy, and a list of faults.
/// Build with the fluent API or parse with [`FaultPlan::parse`]; compile
/// into an engine with [`FaultPlan::build`].
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    pub seed: u64,
    pub retry: RetryPolicy,
    pub faults: Vec<Fault>,
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan::new(0)
    }
}

impl FaultPlan {
    pub fn new(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            retry: RetryPolicy::default(),
            faults: Vec::new(),
        }
    }

    /// Append a fault (builder style).
    pub fn with(mut self, fault: Fault) -> FaultPlan {
        self.faults.push(fault);
        self
    }

    /// A plan with every fault's intensity scaled by `k ∈ [0, 1]`: windows
    /// shrink from their start and magnitudes toward "no fault" (`k = 0` ⇒
    /// all windows empty ⇒ behaviourally fault-free). The two instants
    /// cannot shrink, so they are dropped entirely at `k = 0` to honor the
    /// fault-free contract. Used by the sweeps to trace slowdown curves.
    pub fn scaled(&self, k: f64) -> FaultPlan {
        let faults = self.faults.iter().filter_map(|f| match f {
            Fault::During { effect, window } => Some(Fault::During {
                effect: effect.scaled(k),
                window: window.scaled(k),
            }),
            instant => (k > 0.0).then(|| instant.clone()),
        });
        FaultPlan {
            seed: self.seed,
            retry: self.retry,
            faults: faults.collect(),
        }
    }

    /// Validate and compile into an engine.
    pub fn build(self) -> Result<Arc<ChaosEngine>, PlanError> {
        for f in &self.faults {
            f.check().map_err(PlanError::Invalid)?;
        }
        let mut conn_flushes: Vec<f64> = self
            .faults
            .iter()
            .filter_map(|f| match f {
                Fault::ConnFlush { at } => Some(*at),
                _ => None,
            })
            .collect();
        conn_flushes.sort_by(f64::total_cmp);
        Ok(Arc::new(ChaosEngine {
            plan: self,
            conn_flushes,
        }))
    }
}

/// SplitMix64 — the deterministic seed scrambler used to derive per-site
/// pseudo-random decisions from `(plan seed, site key)` without any shared
/// mutable state.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The compiled plan: immutable, shared via `Arc` by every layer of one
/// simulation. All queries are pure functions of virtual time; the ones
/// asked at a given instant visit the effects whose window holds it, in
/// plan order, and allocate nothing.
#[derive(Debug)]
pub struct ChaosEngine {
    plan: FaultPlan,
    /// Sorted instants of connection-cache flushes.
    conn_flushes: Vec<f64>,
}

impl ChaosEngine {
    /// Convenience: an engine that injects nothing.
    pub fn none() -> Arc<ChaosEngine> {
        // Invariant: `build` only rejects faults, and this plan has none.
        FaultPlan::new(0).build().expect("empty plan is valid")
    }

    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    pub fn retry(&self) -> RetryPolicy {
        self.plan.retry
    }

    /// Every windowed effect with its window, in plan order.
    fn windowed(&self) -> impl Iterator<Item = (&Effect, Window)> {
        self.plan.faults.iter().filter_map(|f| match f {
            Fault::During { effect, window } => Some((effect, *window)),
            _ => None,
        })
    }

    /// The effects acting at `t` with their windows, in plan order.
    fn acting(&self, t: f64) -> impl Iterator<Item = (&Effect, Window)> {
        self.windowed().filter(move |(_, w)| w.contains(t))
    }

    /// The ranks the `rank_*` faults name.
    fn ranks(&self) -> impl Iterator<Item = usize> + '_ {
        self.plan.faults.iter().filter_map(|f| match f {
            Fault::During {
                effect: Effect::RankStall { rank } | Effect::RankSlowdown { rank, .. },
                ..
            }
            | Fault::RankCrash { rank, .. } => Some(*rank),
            _ => None,
        })
    }

    /// True when no fault can ever act: every fault has an empty window
    /// (a plan scaled to zero).
    pub fn is_inert(&self) -> bool {
        self.plan
            .faults
            .iter()
            .all(|f| matches!(f, Fault::During { window, .. } if window.is_empty()))
    }

    /// Largest OST index named by any fault (attach-time bounds check).
    pub fn max_ost(&self) -> Option<usize> {
        self.windowed()
            .filter_map(|(e, _)| match *e {
                Effect::OstSlowdown { ost, .. }
                | Effect::OstOutage { ost }
                | Effect::FlakyOst { ost, .. } => Some(ost),
                _ => None,
            })
            .max()
    }

    /// Largest rank index named by any fault, lock-storm client ranges
    /// included.
    pub fn max_rank(&self) -> Option<usize> {
        let storms = self.windowed().filter_map(|(e, _)| match e {
            Effect::LockStorm { clients } => clients.as_ref().map(|c| *c.end()),
            _ => None,
        });
        self.ranks().chain(storms).max()
    }

    /// Refuse a plan naming a rank or a fabric port a run of `nprocs` ranks
    /// over `ports` NIC ports does not have: such a fault would inject
    /// nothing, silently. Lock-storm client ranges are not checked — a
    /// facility plan names tenants of its largest fleet.
    pub fn check_world(&self, nprocs: usize, ports: usize) -> Result<(), String> {
        if let Some(rank) = self.ranks().find(|&r| r >= nprocs) {
            return Err(format!(
                "fault plan names rank {rank}, but the run has {nprocs} ranks"
            ));
        }
        for (e, _) in self.windowed() {
            if let Effect::LinkDegrade { src, dst, .. } = *e {
                if src.max(dst) >= ports {
                    return Err(format!(
                        "fault plan degrades link {src} -> {dst}, but the fabric has {ports} ports"
                    ));
                }
            }
        }
        Ok(())
    }

    /// A deterministic pseudo-random `f64` in `[0, 1)` derived from the
    /// plan seed and a caller-chosen site key. Equal inputs give equal
    /// outputs across runs — the only "randomness" chaos ever uses.
    pub fn unit_hash(&self, site: u64) -> f64 {
        (splitmix64(self.plan.seed ^ site) >> 11) as f64 / (1u64 << 53) as f64
    }

    // ---- pfs-facing queries ----

    /// Multiplicative service-time factor for `ost` at instant `t`.
    /// Folds both steady [`Effect::OstSlowdown`] windows and the spike
    /// phases of [`Effect::FlakyOst`] cycles, so consumers need a single
    /// call site for all service-degradation families.
    pub fn ost_factor(&self, ost: usize, t: f64) -> f64 {
        self.acting(t)
            .filter_map(|(e, w)| match *e {
                Effect::OstSlowdown { ost: o, factor } if o == ost => Some(factor),
                Effect::FlakyOst {
                    ost: o,
                    factor,
                    period,
                    duty,
                } if o == ost && self.flaky_spike(o, period, duty, t - w.from) => Some(factor),
                _ => None,
            })
            .product()
    }

    /// Is the flaky spike of the cycle `since` seconds into the window
    /// active? Each cycle `c = ⌊since/period⌋` holds one spike of length
    /// `duty × period` whose start phase is drawn deterministically from
    /// `unit_hash(site(ost, c))` — intermittence without shared state.
    fn flaky_spike(&self, ost: usize, period: f64, duty: f64, since: f64) -> bool {
        if duty <= 0.0 {
            return false;
        }
        if duty >= 1.0 {
            return true;
        }
        let cycle = (since / period).floor();
        let frac = since / period - cycle;
        let site = 0x464c_414b_594f_0000u64 ^ ((ost as u64) << 24) ^ (cycle as u64);
        let start = self.unit_hash(site) * (1.0 - duty);
        frac >= start && frac < start + duty
    }

    /// If `ost` is in outage at `t`, the instant the outage lifts.
    pub fn ost_outage_until(&self, ost: usize, t: f64) -> Option<f64> {
        self.acting(t)
            .filter_map(|(e, w)| {
                matches!(*e, Effect::OstOutage { ost: o } if o == ost).then_some(w.until)
            })
            .reduce(f64::max)
    }

    /// Extra per-RPC request overhead at `t`.
    pub fn extra_request_overhead(&self, t: f64) -> f64 {
        self.acting(t)
            .filter_map(|(e, _)| match *e {
                Effect::RequestOverhead { extra } => Some(extra),
                _ => None,
            })
            .sum()
    }

    /// Is a lock storm affecting `client` in force at `t`? A storm without
    /// a client range hits everyone.
    pub fn lock_storm_for(&self, client: usize, t: f64) -> bool {
        self.acting(t).any(|(e, _)| match e {
            Effect::LockStorm { clients } => clients.as_ref().is_none_or(|c| c.contains(&client)),
            _ => false,
        })
    }

    // ---- fabric-facing queries ----

    /// Extra in-network delay for a message transmitted at `t`.
    pub fn message_delay(&self, t: f64) -> f64 {
        self.acting(t)
            .filter_map(|(e, _)| match *e {
                Effect::MessageDelay { delay } => Some(delay),
                _ => None,
            })
            .sum()
    }

    /// Multiplicative transfer-duration factor for a fabric message from
    /// node `src` to node `dst` transmitted at `t`. Asymmetric: only
    /// faults naming exactly this ordered pair apply. `1.0` when healthy.
    pub fn link_factor(&self, src: usize, dst: usize, t: f64) -> f64 {
        self.acting(t)
            .filter_map(|(e, _)| match *e {
                Effect::LinkDegrade {
                    src: s,
                    dst: d,
                    factor,
                } if (s, d) == (src, dst) => Some(factor),
                _ => None,
            })
            .product()
    }

    /// Does the plan contain any [`Effect::LinkDegrade`] at all? Fast-path
    /// gate so the fabric skips the per-transfer query on healthy plans.
    pub fn any_link_degrade(&self) -> bool {
        self.windowed()
            .any(|(e, _)| matches!(e, Effect::LinkDegrade { .. }))
    }

    /// Number of connection-cache flush instants at or before `t`. A source
    /// whose remembered generation is smaller must cold-start its
    /// connection cache.
    pub fn conn_flush_generation(&self, t: f64) -> u64 {
        self.conn_flushes.partition_point(|&at| at <= t) as u64
    }

    // ---- runtime-facing queries ----

    /// If `rank` is inside a stall window at `t`, the instant it wakes.
    pub fn rank_stall_until(&self, rank: usize, t: f64) -> Option<f64> {
        self.acting(t)
            .filter_map(|(e, w)| {
                matches!(*e, Effect::RankStall { rank: r } if r == rank).then_some(w.until)
            })
            .reduce(f64::max)
    }

    /// Is `rank` stalled at `t` or scheduled to stall later? The planning
    /// query behind graceful degradation: when the I/O layers pick
    /// aggregators at time `t`, a rank with a stall window still ahead is a
    /// known straggler and gets routed around. Because all ranks leave the
    /// agreement collective with *identical* clocks, evaluating this at
    /// `now()` right after an allreduce yields the same answer everywhere —
    /// no extra communication needed.
    pub fn stall_ahead(&self, rank: usize, t: f64) -> bool {
        self.windowed()
            .any(|(e, w)| matches!(*e, Effect::RankStall { rank: r } if r == rank) && w.reaches(t))
    }

    /// The instant `rank` crash-stops, if the plan ever kills it (the
    /// earliest, when several crashes name the same rank).
    pub fn crash_at(&self, rank: usize) -> Option<f64> {
        self.plan
            .faults
            .iter()
            .filter_map(|f| match *f {
                Fault::RankCrash { rank: r, at } if r == rank => Some(at),
                _ => None,
            })
            .reduce(f64::min)
    }

    /// Has `rank` crash-stopped at or before `t`? Crash-stops are permanent,
    /// so this is monotone in `t`. Because it is a pure function of the
    /// plan, survivors evaluating it at *identical* clocks (right after any
    /// symmetric collective) agree on the dead set with no extra
    /// communication — the survivor-agreement primitive.
    pub fn crashed(&self, rank: usize, t: f64) -> bool {
        self.crash_at(rank).is_some_and(|at| at <= t)
    }

    /// Is `rank` doomed — crashed already or scheduled to crash later?
    /// The planning query behind proactive re-election: layers that place
    /// long-lived responsibilities (aggregators, L2 segment owners) route
    /// around ranks the plan will kill, mirroring [`ChaosEngine::stall_ahead`].
    pub fn crash_ahead(&self, rank: usize) -> bool {
        self.crash_at(rank).is_some()
    }

    /// Does the plan contain any crash-stop at all? The fast-path gate for
    /// durability bookkeeping (buddy replication, recovery metadata): when
    /// `false`, consumers skip it entirely, keeping fault-free runs
    /// bit-identical to runs with no engine attached.
    pub fn any_crash(&self) -> bool {
        self.plan
            .faults
            .iter()
            .any(|f| matches!(f, Fault::RankCrash { .. }))
    }

    /// Does the plan contain any silent-corruption fault at all? The
    /// fast-path gate for integrity bookkeeping (per-stripe checksums,
    /// replicas): sealing and verifying hashes every touched stripe, so a
    /// plan that cannot corrupt must not pay for it — wall-clock zero-cost
    /// off, mirroring [`ChaosEngine::any_crash`].
    pub fn any_corruption(&self) -> bool {
        self.windowed()
            .any(|(e, _)| matches!(e, Effect::SilentCorruption { .. }))
    }

    /// Combined silent-corruption probability at `t` (sum of active
    /// windows, clamped to 1).
    pub fn corruption_rate(&self, t: f64) -> f64 {
        let r: f64 = self
            .acting(t)
            .filter_map(|(e, _)| match *e {
                Effect::SilentCorruption { rate } => Some(rate),
                _ => None,
            })
            .sum();
        r.min(1.0)
    }

    /// Should the write identified by `site` be silently corrupted at `t`?
    /// Deterministic: a pure function of `(site, t)` via
    /// [`ChaosEngine::unit_hash`]. Outside every corruption window the
    /// answer is always `false` — zero false positives at intensity 0.
    pub fn corrupts(&self, site: u64, t: f64) -> bool {
        let rate = self.corruption_rate(t);
        rate > 0.0 && self.unit_hash(site) < rate
    }

    /// Multiplicative local-work slowdown of `rank` at `t`.
    pub fn rank_slowdown(&self, rank: usize, t: f64) -> f64 {
        self.acting(t)
            .filter_map(|(e, _)| match *e {
                Effect::RankSlowdown { rank: r, factor } if r == rank => Some(factor),
                _ => None,
            })
            .product()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn engine(faults: impl IntoIterator<Item = Fault>) -> Arc<ChaosEngine> {
        plan(faults).build().unwrap()
    }

    fn plan(faults: impl IntoIterator<Item = Fault>) -> FaultPlan {
        faults.into_iter().fold(FaultPlan::new(1), FaultPlan::with)
    }

    fn rejected(fault: Fault) -> bool {
        plan([fault]).build().is_err()
    }

    #[test]
    fn empty_plan_is_inert_and_identity() {
        let e = ChaosEngine::none();
        assert!(e.is_inert());
        assert_eq!(e.ost_factor(0, 1.0), 1.0);
        assert_eq!(e.ost_outage_until(0, 1.0), None);
        assert_eq!(e.extra_request_overhead(1.0), 0.0);
        assert!(!e.lock_storm_for(0, 1.0));
        assert_eq!(e.message_delay(1.0), 0.0);
        assert_eq!(e.conn_flush_generation(f64::MAX), 0);
        assert_eq!(e.rank_stall_until(3, 1.0), None);
        assert_eq!(e.rank_slowdown(3, 1.0), 1.0);
    }

    #[test]
    fn windows_are_half_open() {
        let e = engine([Effect::OstSlowdown {
            ost: 2,
            factor: 4.0,
        }
        .during(1.0, 2.0)]);
        assert_eq!(e.ost_factor(2, 0.999), 1.0);
        assert_eq!(e.ost_factor(2, 1.0), 4.0);
        assert_eq!(e.ost_factor(2, 1.999), 4.0);
        assert_eq!(e.ost_factor(2, 2.0), 1.0);
        assert_eq!(e.ost_factor(0, 1.5), 1.0, "other OSTs unaffected");
        let w = Window {
            from: 1.0,
            until: 2.0,
        };
        assert!(w.reaches(1.999) && !w.reaches(2.0) && !w.is_empty());
        assert!(w.scaled(0.0).is_empty() && !w.scaled(0.0).reaches(0.0));
    }

    #[test]
    fn overlapping_slowdowns_compose() {
        let e = engine([
            Effect::OstSlowdown {
                ost: 0,
                factor: 2.0,
            }
            .during(0.0, 10.0),
            Effect::OstSlowdown {
                ost: 0,
                factor: 3.0,
            }
            .during(5.0, 10.0),
        ]);
        assert_eq!(e.ost_factor(0, 1.0), 2.0);
        assert_eq!(e.ost_factor(0, 6.0), 6.0);
    }

    #[test]
    fn outage_reports_lift_time() {
        let e = engine([
            Effect::OstOutage { ost: 1 }.during(0.5, 1.5),
            Effect::OstOutage { ost: 1 }.during(1.0, 2.0),
        ]);
        assert_eq!(e.ost_outage_until(1, 0.4), None);
        assert_eq!(e.ost_outage_until(1, 0.6), Some(1.5));
        assert_eq!(
            e.ost_outage_until(1, 1.2),
            Some(2.0),
            "overlap: latest lift"
        );
        assert_eq!(e.ost_outage_until(0, 1.2), None);
    }

    #[test]
    fn conn_flush_generations_count_instants() {
        let e = engine([Fault::ConnFlush { at: 3.0 }, Fault::ConnFlush { at: 1.0 }]);
        assert!(!e.is_inert());
        assert_eq!(e.conn_flush_generation(0.5), 0);
        assert_eq!(e.conn_flush_generation(1.0), 1);
        assert_eq!(e.conn_flush_generation(2.0), 1);
        assert_eq!(e.conn_flush_generation(3.5), 2);
    }

    #[test]
    fn stall_and_slowdown_per_rank() {
        let e = engine([
            Effect::RankStall { rank: 2 }.during(1.0, 4.0),
            Effect::RankSlowdown {
                rank: 1,
                factor: 8.0,
            }
            .during(0.0, 2.0),
        ]);
        assert_eq!(e.rank_stall_until(2, 2.0), Some(4.0));
        assert_eq!(e.rank_stall_until(2, 4.0), None, "the window is half-open");
        assert_eq!(e.rank_stall_until(0, 2.0), None);
        assert!(e.stall_ahead(2, 0.0) && e.stall_ahead(2, 3.9) && !e.stall_ahead(2, 4.0));
        assert_eq!(e.rank_slowdown(1, 1.0), 8.0);
        assert_eq!(e.rank_slowdown(1, 3.0), 1.0);
        assert_eq!(e.max_rank(), Some(2));
    }

    #[test]
    fn scaled_to_zero_is_inert() {
        let plan = plan([
            Effect::OstOutage { ost: 0 }.during(1.0, 2.0),
            Effect::MessageDelay { delay: 1e-3 }.during(0.0, 5.0),
            Effect::LockStorm { clients: None }.during(0.0, 1.0),
        ]);
        let zero = plan.scaled(0.0).build().unwrap();
        assert!(zero.is_inert());
        let half = plan.scaled(0.5).build().unwrap();
        assert_eq!(half.ost_outage_until(0, 1.25), Some(1.5));
        assert_eq!(half.message_delay(1.0), 0.5e-3);
        let full = plan.scaled(1.0).build().unwrap();
        assert_eq!(full.plan(), &plan);
    }

    #[test]
    fn invalid_plans_rejected() {
        assert!(rejected(
            Effect::OstSlowdown {
                ost: 0,
                factor: 0.5
            }
            .during(0.0, 1.0)
        ));
        assert!(rejected(Effect::OstOutage { ost: 0 }.during(2.0, 1.0)));
        assert!(rejected(Effect::OstOutage { ost: 0 }.during(-1.0, 1.0)));
        assert!(rejected(
            Effect::OstOutage { ost: 0 }.during(0.0, f64::INFINITY)
        ));
        assert!(rejected(
            Effect::MessageDelay { delay: f64::NAN }.during(0.0, 1.0)
        ));
        assert!(rejected(
            Effect::RequestOverhead { extra: -1e-3 }.during(0.0, 1.0)
        ));
    }

    #[test]
    fn backoff_doubles_and_caps() {
        let p = RetryPolicy {
            max_attempts: 5,
            base_backoff: 1.0,
            max_backoff: 5.0,
        };
        assert_eq!(p.backoff(1), 1.0);
        assert_eq!(p.backoff(2), 2.0);
        assert_eq!(p.backoff(3), 4.0);
        assert_eq!(p.backoff(4), 5.0, "capped");
    }

    #[test]
    fn backoff_is_finite_and_capped_at_huge_attempt_counts() {
        let p = RetryPolicy::default();
        // attempt = 1000 would naively shift by 999 bits; the exponent cap
        // must keep the wait finite and bounded by max_backoff.
        let w = p.backoff(1000);
        assert!(w.is_finite());
        assert_eq!(w, p.max_backoff);
        assert_eq!(p.backoff(u32::MAX), p.max_backoff);
        // A policy with an enormous cap still must not overflow the shift.
        let wild = RetryPolicy {
            max_attempts: u32::MAX,
            base_backoff: 1.0,
            max_backoff: f64::MAX,
        };
        assert!(wild.backoff(1000).is_finite());
    }

    #[test]
    fn crash_is_permanent_and_earliest_wins() {
        let e = engine([
            Fault::RankCrash { rank: 2, at: 3.0 },
            Fault::RankCrash { rank: 2, at: 1.5 },
        ]);
        assert!(!e.is_inert());
        assert!(e.any_crash());
        assert_eq!(e.crash_at(2), Some(1.5));
        assert_eq!(e.crash_at(0), None);
        assert!(!e.crashed(2, 1.0));
        assert!(e.crashed(2, 1.5), "crash instant is inclusive");
        assert!(e.crashed(2, 100.0), "crash-stops never heal");
        assert!(e.crash_ahead(2));
        assert!(!e.crash_ahead(0));
        assert_eq!(e.max_rank(), Some(2));
    }

    #[test]
    fn crash_dropped_at_zero_intensity() {
        let plan = plan([
            Fault::RankCrash { rank: 1, at: 0.5 },
            Effect::SilentCorruption { rate: 0.8 }.during(0.0, 2.0),
        ]);
        let zero = plan.scaled(0.0).build().unwrap();
        assert!(zero.is_inert());
        assert!(!zero.any_crash());
        assert_eq!(zero.corruption_rate(1.0), 0.0);
        let half = plan.scaled(0.5).build().unwrap();
        assert_eq!(half.crash_at(1), Some(0.5), "instants keep their time");
        assert!((half.corruption_rate(0.5) - 0.4).abs() < 1e-12);
    }

    #[test]
    fn corruption_is_windowed_and_deterministic() {
        let e = FaultPlan::new(11)
            .with(Effect::SilentCorruption { rate: 0.5 }.during(1.0, 2.0))
            .build()
            .unwrap();
        assert_eq!(e.corruption_rate(0.5), 0.0);
        assert_eq!(e.corruption_rate(1.0), 0.5);
        assert_eq!(e.corruption_rate(2.0), 0.0, "half-open window");
        // Outside the window nothing corrupts, whatever the site.
        for site in 0..64 {
            assert!(!e.corrupts(site, 0.5));
        }
        // Inside the window the decision is a pure function of the site.
        for site in 0..64 {
            assert_eq!(e.corrupts(site, 1.5), e.corrupts(site, 1.5));
            assert_eq!(e.corrupts(site, 1.5), e.unit_hash(site) < 0.5);
        }
        // rate = 1 corrupts everything inside the window.
        let all = engine([Effect::SilentCorruption { rate: 1.0 }.during(0.0, 1.0)]);
        for site in 0..64 {
            assert!(all.corrupts(site, 0.5));
        }
    }

    #[test]
    fn crash_and_corruption_plans_validate() {
        assert!(rejected(Fault::RankCrash {
            rank: 0,
            at: f64::NAN
        }));
        assert!(rejected(Fault::RankCrash { rank: 0, at: -1.0 }));
        assert!(rejected(Fault::ConnFlush { at: f64::INFINITY }));
        assert!(rejected(
            Effect::SilentCorruption { rate: 1.5 }.during(0.0, 1.0)
        ));
        assert!(rejected(
            Effect::SilentCorruption { rate: -0.1 }.during(0.0, 1.0)
        ));
    }

    #[test]
    fn client_lock_storm_scopes_to_its_range() {
        let e = engine([Effect::LockStorm {
            clients: Some(4..=7),
        }
        .during(1.0, 2.0)]);
        assert!(e.lock_storm_for(4, 1.5));
        assert!(e.lock_storm_for(7, 1.5));
        assert!(!e.lock_storm_for(3, 1.5), "below the range");
        assert!(!e.lock_storm_for(8, 1.5), "above the range");
        assert!(!e.lock_storm_for(5, 2.0), "window is half-open");
        assert_eq!(e.max_rank(), Some(7), "the range counts as a rank");
        assert_eq!(e.check_world(2, 2), Ok(()), "but is not bounds-checked");
        // A storm without a range hits every client.
        let g = engine([Effect::LockStorm { clients: None }.during(0.0, 1.0)]);
        assert!(g.lock_storm_for(123, 0.5));
        // Bad ranges are rejected at build time.
        #[allow(clippy::reversed_empty_ranges)]
        let backwards = Some(5..=4);
        assert!(rejected(
            Effect::LockStorm { clients: backwards }.during(0.0, 1.0)
        ));
    }

    #[test]
    fn check_world_refuses_ranks_and_ports_the_run_lacks() {
        let e = engine([
            Effect::RankStall { rank: 1 }.during(0.0, 1.0),
            Fault::RankCrash { rank: 3, at: 0.5 },
            Effect::LinkDegrade {
                src: 0,
                dst: 5,
                factor: 2.0,
            }
            .during(0.0, 1.0),
        ]);
        assert_eq!(e.check_world(4, 6), Ok(()));
        let short = e.check_world(3, 6).unwrap_err();
        assert!(short.contains("rank 3"), "{short}");
        let narrow = e.check_world(4, 5).unwrap_err();
        assert!(narrow.contains("link 0 -> 5"), "{narrow}");
    }

    #[test]
    fn flaky_ost_spikes_within_duty_cycle() {
        let flaky = |duty: f64| Effect::FlakyOst {
            ost: 1,
            factor: 16.0,
            period: 0.1,
            duty,
        };
        let e = FaultPlan::new(3)
            .with(flaky(0.4).during(0.0, 10.0))
            .build()
            .unwrap();
        assert!(!e.is_inert());
        assert_eq!(e.max_ost(), Some(1));
        // Other OSTs and out-of-window instants are healthy.
        assert_eq!(e.ost_factor(0, 1.0), 1.0);
        assert_eq!(e.ost_factor(1, 10.0), 1.0);
        // Sampling one cycle densely: the spike covers ~duty of it, at
        // factor 16, and the query is a pure function of time.
        let mut spiked = 0;
        let n = 1000;
        for i in 0..n {
            let t = 0.2 + 0.1 * i as f64 / n as f64;
            let f = e.ost_factor(1, t);
            assert!(f == 1.0 || f == 16.0);
            assert_eq!(f, e.ost_factor(1, t), "pure function of t");
            if f == 16.0 {
                spiked += 1;
            }
        }
        let frac = spiked as f64 / n as f64;
        assert!(
            (frac - 0.4).abs() < 0.05,
            "spike fraction {frac} should track duty 0.4"
        );
        // duty = 1 degenerates to a steady slowdown; duty = 0 never spikes.
        let solid = engine([flaky(1.0).during(0.0, 5.0)]);
        assert_eq!(solid.ost_factor(1, 2.5), 16.0);
        let idle = engine([flaky(0.0).during(0.0, 5.0)]);
        assert_eq!(idle.ost_factor(1, 2.5), 1.0);
    }

    #[test]
    fn flaky_ost_scales_and_validates() {
        let flaky = |factor, period, duty| Effect::FlakyOst {
            ost: 0,
            factor,
            period,
            duty,
        };
        let plan = plan([flaky(9.0, 0.5, 0.8).during(0.0, 4.0)]);
        assert!(plan.scaled(0.0).build().unwrap().is_inert());
        assert_eq!(
            plan.scaled(0.5).faults,
            [flaky(5.0, 0.5, 0.4).during(0.0, 2.0)]
        );
        for bad in [
            flaky(0.5, 1.0, 0.5),
            flaky(2.0, 0.0, 0.5),
            flaky(2.0, 1.0, 1.5),
        ] {
            assert!(rejected(bad.during(0.0, 1.0)));
        }
    }

    #[test]
    fn link_degrade_is_asymmetric_and_windowed() {
        let link = |factor| Effect::LinkDegrade {
            src: 0,
            dst: 2,
            factor,
        };
        let e = engine([link(3.0).during(1.0, 2.0), link(2.0).during(1.5, 2.5)]);
        assert!(!e.is_inert());
        assert!(e.any_link_degrade());
        assert_eq!(e.link_factor(0, 2, 0.5), 1.0, "before the window");
        assert_eq!(e.link_factor(0, 2, 1.2), 3.0);
        assert_eq!(e.link_factor(0, 2, 1.7), 6.0, "overlaps compose");
        assert_eq!(e.link_factor(0, 2, 2.2), 2.0);
        assert_eq!(e.link_factor(2, 0, 1.2), 1.0, "reverse path healthy");
        assert_eq!(e.link_factor(1, 2, 1.2), 1.0, "other pairs healthy");
        assert!(!ChaosEngine::none().any_link_degrade());
        // Scaling shrinks both factor and window.
        let half = plan([link(3.0).during(1.0, 2.0)])
            .scaled(0.5)
            .build()
            .unwrap();
        assert_eq!(half.link_factor(0, 2, 1.25), 2.0);
        assert_eq!(half.link_factor(0, 2, 1.75), 1.0);
        // factor < 1 rejected.
        assert!(rejected(link(0.9).during(0.0, 1.0)));
    }

    #[test]
    fn unit_hash_is_deterministic_and_site_sensitive() {
        let a = FaultPlan::new(42).build().unwrap();
        let b = FaultPlan::new(42).build().unwrap();
        assert_eq!(a.unit_hash(7), b.unit_hash(7));
        assert_ne!(a.unit_hash(7), a.unit_hash(8));
        let c = FaultPlan::new(43).build().unwrap();
        assert_ne!(a.unit_hash(7), c.unit_hash(7));
        assert!((0.0..1.0).contains(&a.unit_hash(7)));
    }
}
