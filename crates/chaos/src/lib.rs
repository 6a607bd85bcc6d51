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
//! Faults are *windows* `[from, until)` on the virtual-time axis (except
//! [`Fault::ConnFlush`] and [`Fault::RankCrash`], which are instants —
//! and a crash-stop is *permanent*). Because the queries are pure
//! functions of virtual time, no wall-clock state leaks into a simulation:
//! determinism is by construction, which is what makes chaos runs usable
//! as regression tests.
//!
//! Plans come from the [`FaultPlan`] builder API or from a TOML-subset
//! text format (see [`FaultPlan::parse`]).

#![forbid(unsafe_code)]

mod plan;

pub use plan::PlanError;

use std::sync::Arc;

/// One injected fault. All times are virtual seconds; all windows are
/// half-open `[from, until)`.
#[derive(Debug, Clone, PartialEq)]
pub enum Fault {
    /// OST `ost` serves requests `factor`× slower inside the window
    /// (`factor ≥ 1`). Composes multiplicatively with other slowdowns
    /// covering the same instant.
    OstSlowdown {
        ost: usize,
        factor: f64,
        from: f64,
        until: f64,
    },
    /// OST `ost` refuses service inside the window: accesses touching it
    /// fail with a transient error carrying `retry_after = until`.
    OstOutage { ost: usize, from: f64, until: f64 },
    /// Every file-system RPC pays `extra` additional request overhead
    /// inside the window (metadata-server brownout).
    RequestOverhead { extra: f64, from: f64, until: f64 },
    /// Extent-lock revocation storm: every lock acquisition inside the
    /// window behaves as a conflicting transfer (revoke + re-grant), even
    /// from the current holder.
    LockStorm { from: f64, until: f64 },
    /// A lock storm scoped to the clients in `[lo, hi]` (inclusive world
    /// ranks). This is the tenant-targeted variant: a facility fault plan
    /// can hammer one tenant's rank range while the other tenants' lock
    /// traffic stays healthy, which is what the isolation experiments
    /// need.
    ClientLockStorm {
        lo: usize,
        hi: usize,
        from: f64,
        until: f64,
    },
    /// Every fabric message transmitted inside the window arrives an extra
    /// `delay` seconds late (switch congestion / route flap).
    MessageDelay { delay: f64, from: f64, until: f64 },
    /// All connection caches are invalidated at instant `at`: the first
    /// transfer of each source rank after `at` pays connection setup again.
    ConnFlush { at: f64 },
    /// Rank `rank` is descheduled for the window: the first runtime
    /// operation it attempts inside `[from, until)` stalls until `until`.
    RankStall { rank: usize, from: f64, until: f64 },
    /// Rank `rank`'s local work runs `factor`× slower inside the window.
    RankSlowdown {
        rank: usize,
        factor: f64,
        from: f64,
        until: f64,
    },
    /// Crash-stop: rank `rank` permanently fails at instant `at`. Its first
    /// runtime operation at or after `at` raises a typed error, and every
    /// later one does too — the rank never recovers. Like
    /// [`Fault::ConnFlush`] this is an instant, not a window.
    RankCrash { rank: usize, at: f64 },
    /// Silent data corruption: inside the window, each PFS stripe write is
    /// corrupted *after* its checksum is recorded with probability `rate`
    /// (decided deterministically per write site via [`ChaosEngine::unit_hash`]).
    /// The stored bytes then disagree with the stored checksum — exactly
    /// the failure end-to-end verification exists to catch.
    SilentCorruption { rate: f64, from: f64, until: f64 },
    /// Gray failure: OST `ost` is *flaky* inside the window — it cycles
    /// between healthy service and `factor`× tail-latency spikes. Each
    /// `period`-second cycle contains one spike covering a `duty` fraction
    /// of the cycle, with the spike's phase within the cycle drawn
    /// deterministically per cycle from the plan seed. Unlike
    /// [`Fault::OstSlowdown`] the degradation is intermittent, which is
    /// what defeats naive threshold detectors and motivates EWMA health
    /// tracking + hedging.
    FlakyOst {
        ost: usize,
        factor: f64,
        period: f64,
        duty: f64,
        from: f64,
        until: f64,
    },
    /// Gray failure: the fabric path from node `src` to node `dst` loses
    /// bandwidth inside the window — transfers in that direction take
    /// `factor`× longer. Asymmetric by design (the reverse path is
    /// unaffected unless a second fault names it), modeling a degraded
    /// link lane / failing optic.
    LinkDegrade {
        src: usize,
        dst: usize,
        factor: f64,
        from: f64,
        until: f64,
    },
}

impl Fault {
    fn validate(&self) -> Result<(), String> {
        let check_window = |from: f64, until: f64| {
            if !(from.is_finite() && until.is_finite()) || from < 0.0 || until < from {
                Err(format!("bad fault window [{from}, {until})"))
            } else {
                Ok(())
            }
        };
        let check_factor = |factor: f64| {
            if !factor.is_finite() || factor < 1.0 {
                Err(format!("slowdown factor {factor} must be ≥ 1"))
            } else {
                Ok(())
            }
        };
        match *self {
            Fault::OstSlowdown {
                factor,
                from,
                until,
                ..
            } => {
                check_window(from, until)?;
                check_factor(factor)
            }
            Fault::OstOutage { from, until, .. } => check_window(from, until),
            Fault::RequestOverhead { extra, from, until } => {
                check_window(from, until)?;
                if !extra.is_finite() || extra < 0.0 {
                    return Err(format!("bad extra overhead {extra}"));
                }
                Ok(())
            }
            Fault::LockStorm { from, until } => check_window(from, until),
            Fault::ClientLockStorm {
                lo,
                hi,
                from,
                until,
            } => {
                check_window(from, until)?;
                if lo > hi {
                    return Err(format!("bad client range [{lo}, {hi}]"));
                }
                Ok(())
            }
            Fault::MessageDelay { delay, from, until } => {
                check_window(from, until)?;
                if !delay.is_finite() || delay < 0.0 {
                    return Err(format!("bad message delay {delay}"));
                }
                Ok(())
            }
            Fault::ConnFlush { at } => {
                if !at.is_finite() || at < 0.0 {
                    return Err(format!("bad flush instant {at}"));
                }
                Ok(())
            }
            Fault::RankStall { from, until, .. } => check_window(from, until),
            Fault::RankSlowdown {
                factor,
                from,
                until,
                ..
            } => {
                check_window(from, until)?;
                check_factor(factor)
            }
            Fault::RankCrash { at, .. } => {
                if !at.is_finite() || at < 0.0 {
                    return Err(format!("bad crash instant {at}"));
                }
                Ok(())
            }
            Fault::SilentCorruption { rate, from, until } => {
                check_window(from, until)?;
                if !rate.is_finite() || !(0.0..=1.0).contains(&rate) {
                    return Err(format!("corruption rate {rate} must be in [0, 1]"));
                }
                Ok(())
            }
            Fault::FlakyOst {
                factor,
                period,
                duty,
                from,
                until,
                ..
            } => {
                check_window(from, until)?;
                check_factor(factor)?;
                if !period.is_finite() || period <= 0.0 {
                    return Err(format!("flaky period {period} must be > 0"));
                }
                if !duty.is_finite() || !(0.0..=1.0).contains(&duty) {
                    return Err(format!("flaky duty {duty} must be in [0, 1]"));
                }
                Ok(())
            }
            Fault::LinkDegrade {
                factor,
                from,
                until,
                ..
            } => {
                check_window(from, until)?;
                check_factor(factor)
            }
        }
    }

    /// Scale the fault's *intensity* by `k ∈ [0, 1]`: window lengths and
    /// magnitudes shrink linearly toward "no fault". Used by the sweep
    /// binary to trace slowdown curves.
    fn scaled(&self, k: f64) -> Fault {
        let w = |from: f64, until: f64| (from, from + (until - from) * k);
        let f = |factor: f64| 1.0 + (factor - 1.0) * k;
        match *self {
            Fault::OstSlowdown {
                ost,
                factor,
                from,
                until,
            } => {
                let (from, until) = w(from, until);
                Fault::OstSlowdown {
                    ost,
                    factor: f(factor),
                    from,
                    until,
                }
            }
            Fault::OstOutage { ost, from, until } => {
                let (from, until) = w(from, until);
                Fault::OstOutage { ost, from, until }
            }
            Fault::RequestOverhead { extra, from, until } => {
                let (from, until) = w(from, until);
                Fault::RequestOverhead {
                    extra: extra * k,
                    from,
                    until,
                }
            }
            Fault::LockStorm { from, until } => {
                let (from, until) = w(from, until);
                Fault::LockStorm { from, until }
            }
            Fault::ClientLockStorm {
                lo,
                hi,
                from,
                until,
            } => {
                let (from, until) = w(from, until);
                Fault::ClientLockStorm {
                    lo,
                    hi,
                    from,
                    until,
                }
            }
            Fault::MessageDelay { delay, from, until } => {
                let (from, until) = w(from, until);
                Fault::MessageDelay {
                    delay: delay * k,
                    from,
                    until,
                }
            }
            Fault::ConnFlush { at } => Fault::ConnFlush { at },
            Fault::RankStall { rank, from, until } => {
                let (from, until) = w(from, until);
                Fault::RankStall { rank, from, until }
            }
            Fault::RankSlowdown {
                rank,
                factor,
                from,
                until,
            } => {
                let (from, until) = w(from, until);
                Fault::RankSlowdown {
                    rank,
                    factor: f(factor),
                    from,
                    until,
                }
            }
            // An instant cannot shrink; `FaultPlan::scaled` drops it at k = 0.
            Fault::RankCrash { rank, at } => Fault::RankCrash { rank, at },
            Fault::SilentCorruption { rate, from, until } => {
                let (from, until) = w(from, until);
                Fault::SilentCorruption {
                    rate: rate * k,
                    from,
                    until,
                }
            }
            Fault::FlakyOst {
                ost,
                factor,
                period,
                duty,
                from,
                until,
            } => {
                let (from, until) = w(from, until);
                Fault::FlakyOst {
                    ost,
                    factor: f(factor),
                    period,
                    duty: duty * k,
                    from,
                    until,
                }
            }
            Fault::LinkDegrade {
                src,
                dst,
                factor,
                from,
                until,
            } => {
                let (from, until) = w(from, until);
                Fault::LinkDegrade {
                    src,
                    dst,
                    factor: f(factor),
                    from,
                    until,
                }
            }
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

    /// A plan with every fault's intensity scaled by `k ∈ [0, 1]`
    /// (`k = 0` ⇒ all windows empty ⇒ behaviourally fault-free).
    /// `ConnFlush` and `RankCrash` are instants, not windows: they cannot
    /// shrink, so they are dropped entirely at `k = 0` to honor the
    /// fault-free contract.
    pub fn scaled(&self, k: f64) -> FaultPlan {
        FaultPlan {
            seed: self.seed,
            retry: self.retry,
            faults: self
                .faults
                .iter()
                .filter(|f| {
                    k > 0.0 || !matches!(f, Fault::ConnFlush { .. } | Fault::RankCrash { .. })
                })
                .map(|f| f.scaled(k))
                .collect(),
        }
    }

    /// Validate and compile into an engine.
    pub fn build(self) -> Result<Arc<ChaosEngine>, PlanError> {
        for f in &self.faults {
            f.validate().map_err(PlanError::Invalid)?;
        }
        Ok(Arc::new(ChaosEngine::compile(self)))
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
/// simulation. All queries are pure functions of virtual time.
#[derive(Debug)]
pub struct ChaosEngine {
    plan: FaultPlan,
    /// Sorted instants of connection-cache flushes.
    conn_flushes: Vec<f64>,
    /// Largest OST index any fault names (for attach-time validation).
    max_ost: Option<usize>,
    /// Largest rank index any fault names.
    max_rank: Option<usize>,
}

impl ChaosEngine {
    fn compile(plan: FaultPlan) -> ChaosEngine {
        let mut conn_flushes: Vec<f64> = plan
            .faults
            .iter()
            .filter_map(|f| match f {
                Fault::ConnFlush { at } => Some(*at),
                _ => None,
            })
            .collect();
        conn_flushes.sort_by(f64::total_cmp);
        let max_ost = plan
            .faults
            .iter()
            .filter_map(|f| match f {
                Fault::OstSlowdown { ost, .. }
                | Fault::OstOutage { ost, .. }
                | Fault::FlakyOst { ost, .. } => Some(*ost),
                _ => None,
            })
            .max();
        let max_rank = plan
            .faults
            .iter()
            .filter_map(|f| match f {
                Fault::RankStall { rank, .. }
                | Fault::RankSlowdown { rank, .. }
                | Fault::RankCrash { rank, .. } => Some(*rank),
                Fault::ClientLockStorm { hi, .. } => Some(*hi),
                _ => None,
            })
            .max();
        ChaosEngine {
            plan,
            conn_flushes,
            max_ost,
            max_rank,
        }
    }

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

    /// True when no fault can ever trigger (plans scaled to zero still
    /// carry zero-length windows, which never contain any instant).
    pub fn is_inert(&self) -> bool {
        self.plan.faults.iter().all(|f| match *f {
            Fault::ConnFlush { .. } | Fault::RankCrash { .. } => false,
            Fault::SilentCorruption { rate, from, until } => until <= from || rate <= 0.0,
            Fault::FlakyOst {
                factor,
                duty,
                from,
                until,
                ..
            } => until <= from || duty <= 0.0 || factor <= 1.0,
            Fault::LinkDegrade {
                factor,
                from,
                until,
                ..
            } => until <= from || factor <= 1.0,
            Fault::OstSlowdown { from, until, .. }
            | Fault::OstOutage { from, until, .. }
            | Fault::RequestOverhead { from, until, .. }
            | Fault::LockStorm { from, until }
            | Fault::ClientLockStorm { from, until, .. }
            | Fault::MessageDelay { from, until, .. }
            | Fault::RankStall { from, until, .. }
            | Fault::RankSlowdown { from, until, .. } => until <= from,
        })
    }

    /// Largest OST index named by any fault (attach-time bounds check).
    pub fn max_ost(&self) -> Option<usize> {
        self.max_ost
    }

    /// Largest rank index named by any fault.
    pub fn max_rank(&self) -> Option<usize> {
        self.max_rank
    }

    /// A deterministic pseudo-random `f64` in `[0, 1)` derived from the
    /// plan seed and a caller-chosen site key. Equal inputs give equal
    /// outputs across runs — the only "randomness" chaos ever uses.
    pub fn unit_hash(&self, site: u64) -> f64 {
        (splitmix64(self.plan.seed ^ site) >> 11) as f64 / (1u64 << 53) as f64
    }

    // ---- pfs-facing queries ----

    /// Multiplicative service-time factor for `ost` at instant `t`.
    /// Folds both steady [`Fault::OstSlowdown`] windows and the spike
    /// phases of [`Fault::FlakyOst`] cycles, so consumers need a single
    /// call site for all service-degradation families.
    pub fn ost_factor(&self, ost: usize, t: f64) -> f64 {
        let mut f = 1.0;
        for fault in &self.plan.faults {
            match *fault {
                Fault::OstSlowdown {
                    ost: o,
                    factor,
                    from,
                    until,
                } if o == ost && from <= t && t < until => {
                    f *= factor;
                }
                Fault::FlakyOst {
                    ost: o,
                    factor,
                    period,
                    duty,
                    from,
                    until,
                } if o == ost
                    && from <= t
                    && t < until
                    && self.flaky_spike(o, period, duty, from, t) =>
                {
                    f *= factor;
                }
                _ => {}
            }
        }
        f
    }

    /// Is the flaky spike of the cycle containing `t` active? Each cycle
    /// `c = ⌊(t − from)/period⌋` holds one spike of length `duty × period`
    /// whose start phase is drawn deterministically from
    /// `unit_hash(site(ost, c))` — intermittence without shared state.
    fn flaky_spike(&self, ost: usize, period: f64, duty: f64, from: f64, t: f64) -> bool {
        if duty <= 0.0 {
            return false;
        }
        if duty >= 1.0 {
            return true;
        }
        let cycle = ((t - from) / period).floor();
        let frac = (t - from) / period - cycle;
        let site = 0x464c_414b_594f_0000u64 ^ ((ost as u64) << 24) ^ (cycle as u64);
        let start = self.unit_hash(site) * (1.0 - duty);
        frac >= start && frac < start + duty
    }

    /// If `ost` is in outage at `t`, the instant the outage lifts.
    pub fn ost_outage_until(&self, ost: usize, t: f64) -> Option<f64> {
        self.plan
            .faults
            .iter()
            .filter_map(|f| match *f {
                Fault::OstOutage {
                    ost: o,
                    from,
                    until,
                } if o == ost && from <= t && t < until => Some(until),
                _ => None,
            })
            .fold(None, |acc, u| Some(acc.map_or(u, |a: f64| a.max(u))))
    }

    /// Extra per-RPC request overhead at `t`.
    pub fn extra_request_overhead(&self, t: f64) -> f64 {
        self.plan
            .faults
            .iter()
            .map(|f| match *f {
                Fault::RequestOverhead { extra, from, until } if from <= t && t < until => extra,
                _ => 0.0,
            })
            .sum()
    }

    /// Is a lock-revocation storm active at `t`?
    pub fn lock_storm(&self, t: f64) -> bool {
        self.plan
            .faults
            .iter()
            .any(|f| matches!(*f, Fault::LockStorm { from, until } if from <= t && t < until))
    }

    /// Is a lock storm affecting `client` in force at `t`? Global storms
    /// hit everyone; [`Fault::ClientLockStorm`] only hits its rank range.
    pub fn lock_storm_for(&self, client: usize, t: f64) -> bool {
        self.plan.faults.iter().any(|f| match *f {
            Fault::LockStorm { from, until } => from <= t && t < until,
            Fault::ClientLockStorm {
                lo,
                hi,
                from,
                until,
            } => lo <= client && client <= hi && from <= t && t < until,
            _ => false,
        })
    }

    // ---- fabric-facing queries ----

    /// Extra in-network delay for a message transmitted at `t`.
    pub fn message_delay(&self, t: f64) -> f64 {
        self.plan
            .faults
            .iter()
            .map(|f| match *f {
                Fault::MessageDelay { delay, from, until } if from <= t && t < until => delay,
                _ => 0.0,
            })
            .sum()
    }

    /// Multiplicative transfer-duration factor for a fabric message from
    /// node `src` to node `dst` transmitted at `t`. Asymmetric: only
    /// faults naming exactly this ordered pair apply. `1.0` when healthy.
    pub fn link_factor(&self, src: usize, dst: usize, t: f64) -> f64 {
        let mut f = 1.0;
        for fault in &self.plan.faults {
            if let Fault::LinkDegrade {
                src: s,
                dst: d,
                factor,
                from,
                until,
            } = *fault
            {
                if s == src && d == dst && from <= t && t < until {
                    f *= factor;
                }
            }
        }
        f
    }

    /// Does the plan contain any [`Fault::LinkDegrade`] at all? Fast-path
    /// gate so the fabric skips the per-transfer query on healthy plans.
    pub fn any_link_degrade(&self) -> bool {
        self.plan
            .faults
            .iter()
            .any(|f| matches!(f, Fault::LinkDegrade { .. }))
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
        self.plan
            .faults
            .iter()
            .filter_map(|f| match *f {
                Fault::RankStall {
                    rank: r,
                    from,
                    until,
                } if r == rank && from <= t && t < until => Some(until),
                _ => None,
            })
            .fold(None, |acc, u| Some(acc.map_or(u, |a: f64| a.max(u))))
    }

    /// Is `rank` stalled at `t` or scheduled to stall later? The planning
    /// query behind graceful degradation: when the I/O layers pick
    /// aggregators at time `t`, a rank with a stall window still ahead is a
    /// known straggler and gets routed around. Because all ranks leave the
    /// agreement collective with *identical* clocks, evaluating this at
    /// `now()` right after an allreduce yields the same answer everywhere —
    /// no extra communication needed.
    pub fn stall_ahead(&self, rank: usize, t: f64) -> bool {
        self.plan.faults.iter().any(|f| {
            matches!(*f, Fault::RankStall { rank: r, from, until } if r == rank && until > t && from < until)
        })
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
            .fold(None, |acc, at| Some(acc.map_or(at, |a: f64| a.min(at))))
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
        self.plan
            .faults
            .iter()
            .any(|f| matches!(f, Fault::SilentCorruption { .. }))
    }

    /// Combined silent-corruption probability at `t` (sum of active
    /// windows, clamped to 1).
    pub fn corruption_rate(&self, t: f64) -> f64 {
        let r: f64 = self
            .plan
            .faults
            .iter()
            .map(|f| match *f {
                Fault::SilentCorruption { rate, from, until } if from <= t && t < until => rate,
                _ => 0.0,
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
        let mut f = 1.0;
        for fault in &self.plan.faults {
            if let Fault::RankSlowdown {
                rank: r,
                factor,
                from,
                until,
            } = *fault
            {
                if r == rank && from <= t && t < until {
                    f *= factor;
                }
            }
        }
        f
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_plan_is_inert_and_identity() {
        let e = ChaosEngine::none();
        assert!(e.is_inert());
        assert_eq!(e.ost_factor(0, 1.0), 1.0);
        assert_eq!(e.ost_outage_until(0, 1.0), None);
        assert_eq!(e.extra_request_overhead(1.0), 0.0);
        assert!(!e.lock_storm(1.0));
        assert_eq!(e.message_delay(1.0), 0.0);
        assert_eq!(e.conn_flush_generation(f64::MAX), 0);
        assert_eq!(e.rank_stall_until(3, 1.0), None);
        assert_eq!(e.rank_slowdown(3, 1.0), 1.0);
    }

    #[test]
    fn windows_are_half_open() {
        let e = FaultPlan::new(1)
            .with(Fault::OstSlowdown {
                ost: 2,
                factor: 4.0,
                from: 1.0,
                until: 2.0,
            })
            .build()
            .unwrap();
        assert_eq!(e.ost_factor(2, 0.999), 1.0);
        assert_eq!(e.ost_factor(2, 1.0), 4.0);
        assert_eq!(e.ost_factor(2, 1.999), 4.0);
        assert_eq!(e.ost_factor(2, 2.0), 1.0);
        assert_eq!(e.ost_factor(0, 1.5), 1.0, "other OSTs unaffected");
    }

    #[test]
    fn overlapping_slowdowns_compose() {
        let e = FaultPlan::new(1)
            .with(Fault::OstSlowdown {
                ost: 0,
                factor: 2.0,
                from: 0.0,
                until: 10.0,
            })
            .with(Fault::OstSlowdown {
                ost: 0,
                factor: 3.0,
                from: 5.0,
                until: 10.0,
            })
            .build()
            .unwrap();
        assert_eq!(e.ost_factor(0, 1.0), 2.0);
        assert_eq!(e.ost_factor(0, 6.0), 6.0);
    }

    #[test]
    fn outage_reports_lift_time() {
        let e = FaultPlan::new(1)
            .with(Fault::OstOutage {
                ost: 1,
                from: 0.5,
                until: 1.5,
            })
            .with(Fault::OstOutage {
                ost: 1,
                from: 1.0,
                until: 2.0,
            })
            .build()
            .unwrap();
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
        let e = FaultPlan::new(1)
            .with(Fault::ConnFlush { at: 1.0 })
            .with(Fault::ConnFlush { at: 3.0 })
            .build()
            .unwrap();
        assert!(!e.is_inert());
        assert_eq!(e.conn_flush_generation(0.5), 0);
        assert_eq!(e.conn_flush_generation(1.0), 1);
        assert_eq!(e.conn_flush_generation(2.0), 1);
        assert_eq!(e.conn_flush_generation(3.5), 2);
    }

    #[test]
    fn stall_and_slowdown_per_rank() {
        let e = FaultPlan::new(1)
            .with(Fault::RankStall {
                rank: 2,
                from: 1.0,
                until: 4.0,
            })
            .with(Fault::RankSlowdown {
                rank: 1,
                factor: 8.0,
                from: 0.0,
                until: 2.0,
            })
            .build()
            .unwrap();
        assert_eq!(e.rank_stall_until(2, 2.0), Some(4.0));
        assert_eq!(e.rank_stall_until(2, 4.0), None, "the window is half-open");
        assert_eq!(e.rank_stall_until(0, 2.0), None);
        assert_eq!(e.rank_slowdown(1, 1.0), 8.0);
        assert_eq!(e.rank_slowdown(1, 3.0), 1.0);
        assert_eq!(e.max_rank(), Some(2));
    }

    #[test]
    fn scaled_to_zero_is_inert() {
        let plan = FaultPlan::new(7)
            .with(Fault::OstOutage {
                ost: 0,
                from: 1.0,
                until: 2.0,
            })
            .with(Fault::MessageDelay {
                delay: 1e-3,
                from: 0.0,
                until: 5.0,
            })
            .with(Fault::LockStorm {
                from: 0.0,
                until: 1.0,
            });
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
        assert!(FaultPlan::new(0)
            .with(Fault::OstSlowdown {
                ost: 0,
                factor: 0.5,
                from: 0.0,
                until: 1.0,
            })
            .build()
            .is_err());
        assert!(FaultPlan::new(0)
            .with(Fault::OstOutage {
                ost: 0,
                from: 2.0,
                until: 1.0,
            })
            .build()
            .is_err());
        assert!(FaultPlan::new(0)
            .with(Fault::MessageDelay {
                delay: f64::NAN,
                from: 0.0,
                until: 1.0,
            })
            .build()
            .is_err());
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
        let e = FaultPlan::new(9)
            .with(Fault::RankCrash { rank: 2, at: 3.0 })
            .with(Fault::RankCrash { rank: 2, at: 1.5 })
            .build()
            .unwrap();
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
        let plan = FaultPlan::new(9)
            .with(Fault::RankCrash { rank: 1, at: 0.5 })
            .with(Fault::SilentCorruption {
                rate: 0.8,
                from: 0.0,
                until: 2.0,
            });
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
            .with(Fault::SilentCorruption {
                rate: 0.5,
                from: 1.0,
                until: 2.0,
            })
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
        let all = FaultPlan::new(11)
            .with(Fault::SilentCorruption {
                rate: 1.0,
                from: 0.0,
                until: 1.0,
            })
            .build()
            .unwrap();
        for site in 0..64 {
            assert!(all.corrupts(site, 0.5));
        }
    }

    #[test]
    fn crash_and_corruption_plans_validate() {
        assert!(FaultPlan::new(0)
            .with(Fault::RankCrash {
                rank: 0,
                at: f64::NAN,
            })
            .build()
            .is_err());
        assert!(FaultPlan::new(0)
            .with(Fault::RankCrash { rank: 0, at: -1.0 })
            .build()
            .is_err());
        assert!(FaultPlan::new(0)
            .with(Fault::SilentCorruption {
                rate: 1.5,
                from: 0.0,
                until: 1.0,
            })
            .build()
            .is_err());
        assert!(FaultPlan::new(0)
            .with(Fault::SilentCorruption {
                rate: -0.1,
                from: 0.0,
                until: 1.0,
            })
            .build()
            .is_err());
    }

    #[test]
    fn client_lock_storm_scopes_to_its_range() {
        let e = FaultPlan::new(0)
            .with(Fault::ClientLockStorm {
                lo: 4,
                hi: 7,
                from: 1.0,
                until: 2.0,
            })
            .build()
            .unwrap();
        assert!(!e.lock_storm(1.5), "scoped storm is not a global storm");
        assert!(e.lock_storm_for(4, 1.5));
        assert!(e.lock_storm_for(7, 1.5));
        assert!(!e.lock_storm_for(3, 1.5), "below the range");
        assert!(!e.lock_storm_for(8, 1.5), "above the range");
        assert!(!e.lock_storm_for(5, 2.0), "window is half-open");
        assert_eq!(e.max_rank(), Some(7), "range feeds the bounds check");
        // A global storm hits every client through the scoped query too.
        let g = FaultPlan::new(0)
            .with(Fault::LockStorm {
                from: 0.0,
                until: 1.0,
            })
            .build()
            .unwrap();
        assert!(g.lock_storm_for(123, 0.5));
        // Bad ranges are rejected at build time.
        assert!(FaultPlan::new(0)
            .with(Fault::ClientLockStorm {
                lo: 5,
                hi: 4,
                from: 0.0,
                until: 1.0,
            })
            .build()
            .is_err());
    }

    #[test]
    fn flaky_ost_spikes_within_duty_cycle() {
        let e = FaultPlan::new(3)
            .with(Fault::FlakyOst {
                ost: 1,
                factor: 16.0,
                period: 0.1,
                duty: 0.4,
                from: 0.0,
                until: 10.0,
            })
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
        // duty = 1 degenerates to a steady slowdown; duty = 0 is inert.
        let solid = FaultPlan::new(3)
            .with(Fault::FlakyOst {
                ost: 0,
                factor: 2.0,
                period: 1.0,
                duty: 1.0,
                from: 0.0,
                until: 5.0,
            })
            .build()
            .unwrap();
        assert_eq!(solid.ost_factor(0, 2.5), 2.0);
        let idle = FaultPlan::new(3)
            .with(Fault::FlakyOst {
                ost: 0,
                factor: 2.0,
                period: 1.0,
                duty: 0.0,
                from: 0.0,
                until: 5.0,
            })
            .build()
            .unwrap();
        assert!(idle.is_inert());
        assert_eq!(idle.ost_factor(0, 2.5), 1.0);
    }

    #[test]
    fn flaky_ost_scales_and_validates() {
        let plan = FaultPlan::new(3).with(Fault::FlakyOst {
            ost: 0,
            factor: 9.0,
            period: 0.5,
            duty: 0.8,
            from: 0.0,
            until: 4.0,
        });
        let zero = plan.scaled(0.0).build().unwrap();
        assert!(zero.is_inert());
        let half = plan.scaled(0.5).build().unwrap();
        match half.plan().faults[0] {
            Fault::FlakyOst {
                factor,
                duty,
                until,
                ..
            } => {
                assert_eq!(factor, 5.0);
                assert_eq!(duty, 0.4);
                assert_eq!(until, 2.0);
            }
            _ => unreachable!(),
        }
        for bad in [
            Fault::FlakyOst {
                ost: 0,
                factor: 0.5,
                period: 1.0,
                duty: 0.5,
                from: 0.0,
                until: 1.0,
            },
            Fault::FlakyOst {
                ost: 0,
                factor: 2.0,
                period: 0.0,
                duty: 0.5,
                from: 0.0,
                until: 1.0,
            },
            Fault::FlakyOst {
                ost: 0,
                factor: 2.0,
                period: 1.0,
                duty: 1.5,
                from: 0.0,
                until: 1.0,
            },
        ] {
            assert!(FaultPlan::new(0).with(bad).build().is_err());
        }
    }

    #[test]
    fn link_degrade_is_asymmetric_and_windowed() {
        let e = FaultPlan::new(5)
            .with(Fault::LinkDegrade {
                src: 0,
                dst: 2,
                factor: 3.0,
                from: 1.0,
                until: 2.0,
            })
            .with(Fault::LinkDegrade {
                src: 0,
                dst: 2,
                factor: 2.0,
                from: 1.5,
                until: 2.5,
            })
            .build()
            .unwrap();
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
        let half = FaultPlan::new(5)
            .with(Fault::LinkDegrade {
                src: 0,
                dst: 2,
                factor: 3.0,
                from: 1.0,
                until: 2.0,
            })
            .scaled(0.5)
            .build()
            .unwrap();
        assert_eq!(half.link_factor(0, 2, 1.25), 2.0);
        assert_eq!(half.link_factor(0, 2, 1.75), 1.0);
        // factor < 1 rejected.
        assert!(FaultPlan::new(0)
            .with(Fault::LinkDegrade {
                src: 0,
                dst: 1,
                factor: 0.9,
                from: 0.0,
                until: 1.0,
            })
            .build()
            .is_err());
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
