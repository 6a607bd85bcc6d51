//! Retry-with-exponential-backoff for transient file-system faults.
//!
//! When a fault plan puts an OST into outage, `pfs` refuses accesses with
//! [`pfs::PfsError::Transient`] instead of failing the job. This module is
//! the single policy point that turns those refusals into bounded retries:
//! the rank backs off in *virtual* time (so retry storms are visible in
//! the makespan and the trace, not hidden in wall clock), waits at least
//! until the fault's own `retry_after` hint, and gives up after the
//! [`chaos::RetryPolicy`] budget is exhausted. Every wait is attributed to
//! the I/O phase and recorded as an `io_retry` span, keeping the PR-1
//! conservation invariant intact.

use crate::error::{IoError, Result};
use mpisim::{Phase, Rank};

/// Run a pfs operation, retrying transient failures with exponential
/// backoff in virtual time. `op` is re-invoked with the rank so each
/// attempt reads a fresh `rank.now()`. The policy comes from the attached
/// chaos engine (or defaults when a transient error appears without one).
pub fn pfs_retry<T>(rank: &mut Rank, mut op: impl FnMut(&mut Rank) -> pfs::Result<T>) -> Result<T> {
    let mut attempt = 1u32;
    loop {
        match op(rank) {
            Ok(v) => {
                if attempt > 1 {
                    rank.metrics.observe_retry_attempts(attempt as u64);
                }
                return Ok(v);
            }
            Err(e @ pfs::PfsError::Transient { retry_after, .. }) => {
                let policy = rank
                    .chaos()
                    .map(|engine| engine.retry())
                    .unwrap_or_default();
                if attempt >= policy.max_attempts {
                    return Err(IoError::Fs(e));
                }
                let start = rank.now();
                let wake = retry_after.max(rank.now() + policy.backoff(attempt));
                rank.with_phase(Phase::Io, |rk| rk.sync_to(wake));
                rank.stats.io_retries += 1;
                rank.trace_mark("io_retry", Phase::Io, start, 0);
                attempt += 1;
            }
            Err(e) => return Err(IoError::Fs(e)),
        }
    }
}

/// Which PFS read call a window read or segment load goes through — the
/// one place `hedged_reads` (of `CollectiveConfig` and tcio's config) is
/// turned into a call. Hedging is a no-op unless the PFS has a health
/// layer attached.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReadRoute {
    Plain,
    Hedged,
}

impl ReadRoute {
    pub fn new(hedged_reads: bool) -> ReadRoute {
        if hedged_reads {
            ReadRoute::Hedged
        } else {
            ReadRoute::Plain
        }
    }

    /// Reset `client`'s hedge budget at the start of a read phase.
    pub fn begin_scope(self, pfs: &pfs::Pfs, client: usize) {
        if self == ReadRoute::Hedged {
            pfs.hedge_scope_begin(client);
        }
    }

    /// One read attempt — the body of a [`pfs_retry`] closure.
    pub fn read_at(
        self,
        pfs: &pfs::Pfs,
        fid: pfs::FileId,
        client: usize,
        off: u64,
        dst: &mut [u8],
        now: f64,
    ) -> pfs::Result<f64> {
        match self {
            ReadRoute::Plain => pfs.read_at(fid, client, off, dst, now),
            ReadRoute::Hedged => pfs.read_at_hedged(fid, client, off, dst, now),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpisim::SimConfig;
    use pfs::{Pfs, PfsConfig};
    use std::sync::Arc;

    #[test]
    fn retries_until_outage_lifts_and_counts() {
        let engine = chaos::FaultPlan::new(3)
            .with(chaos::Fault::OstOutage {
                ost: 0,
                from: 0.0,
                until: 0.5,
            })
            .build()
            .unwrap();
        let fs = Pfs::new(
            1,
            PfsConfig {
                num_osts: 1,
                stripe_count: 1,
                ..Default::default()
            },
        )
        .unwrap();
        fs.attach_chaos(Arc::clone(&engine)).unwrap();
        let fid = fs.create("/f").unwrap();
        let cfg = SimConfig {
            chaos: Some(engine),
            ..Default::default()
        };
        let fs2 = Arc::clone(&fs);
        let rep = mpisim::run(1, cfg, move |rk| {
            let t = pfs_retry(rk, |rk| fs2.write_at(fid, 0, 0, &[7u8; 16], rk.now()))
                .map_err(|e| mpisim::MpiError::InvalidDatatype(e.to_string()))?;
            rk.with_phase(Phase::Io, |rk| rk.sync_to(t));
            Ok(rk.stats.io_retries)
        })
        .unwrap();
        assert!(rep.results[0] >= 1, "at least one retry happened");
        assert!(rep.makespan >= 0.5, "backoff waits for the outage to lift");
        assert_eq!(fs.snapshot_file(fid).unwrap(), vec![7u8; 16]);
    }

    #[test]
    fn budget_exhaustion_surfaces_the_transient_error() {
        // Chained outage windows: each `retry_after` hint lands inside the
        // next window, so the helper must give up with the typed error
        // once the attempt budget is spent, not loop forever.
        let mut plan = chaos::FaultPlan::new(3).with_retry(chaos::RetryPolicy {
            max_attempts: 3,
            base_backoff: 1e-3,
            max_backoff: 1e-2,
        });
        for k in 0..8 {
            plan = plan.with(chaos::Fault::OstOutage {
                ost: 0,
                from: k as f64,
                until: (k + 1) as f64,
            });
        }
        let engine = plan.build().unwrap();
        let fs = Pfs::new(
            1,
            PfsConfig {
                num_osts: 1,
                stripe_count: 1,
                ..Default::default()
            },
        )
        .unwrap();
        fs.attach_chaos(Arc::clone(&engine)).unwrap();
        let fid = fs.create("/f").unwrap();
        let cfg = SimConfig {
            chaos: Some(engine),
            ..Default::default()
        };
        let fs2 = Arc::clone(&fs);
        let rep = mpisim::run(1, cfg, move |rk| {
            let out = pfs_retry(rk, |rk| fs2.write_at(fid, 0, 0, &[7u8; 16], rk.now()));
            Ok(matches!(
                out,
                Err(IoError::Fs(pfs::PfsError::Transient { .. }))
            ))
        })
        .unwrap();
        assert!(rep.results[0]);
    }
}
