//! The PFS client: the one door every file-system request of the stack
//! goes through.
//!
//! ROMIO sends independent, sieved and two-phase accesses alike through one
//! ADIO device layer; this module is that layer here. [`submit`] issues a
//! request — one [`pfs`] call per run — under the retry policy, counts it in
//! [`mpisim::RankStats`] and returns its completion as a [`DeferredIo`];
//! [`settle`] charges that completion to the rank's clock (the pipelined
//! write round loop defers it through [`Rank::io_complete`] instead). What
//! callers differ in is an argument or closure state: direction, span name,
//! which client the request is charged to, which instant an attempt is
//! priced at, file system or burst buffer.
//!
//! ## Retries
//!
//! When a fault plan puts an OST into outage, `pfs` refuses accesses with
//! [`pfs::PfsError::Transient`] instead of failing the job. `submit` turns
//! those refusals into bounded retries: the rank backs off in *virtual*
//! time (so retry storms are visible in the makespan and the trace, not
//! hidden in wall clock), waits at least until the fault's own
//! `retry_after` hint, and gives up after the [`chaos::RetryPolicy`] budget
//! is exhausted. Every wait is attributed to the I/O phase and recorded as
//! an `io_retry` span, keeping the PR-1 conservation invariant intact.

use crate::error::{IoError, Result};
use mpisim::{DeferredIo, Phase, Rank};

/// Which way a request moves bytes, and so which `RankStats` counters it
/// bumps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    Read,
    Write,
}

/// Issue one client request: `op(rank, off, len, pos)` once per `(off,
/// len)` run, where `pos` is the bytes of the runs before it — the run's
/// place in a caller buffer that holds them back to back. `op` is
/// re-invoked on a transient refusal, so it reads a fresh `rank.now()` per
/// attempt. The storage layer moves the bytes at submission; the latest
/// completion instant stays outstanding in the returned handle, named
/// `span` (`None`: a handle [`settle`] lands without a span).
///
/// Inlined into its callers: independent I/O issues one request per 4- or
/// 8-byte access, and an out-of-line call costs a measurable share of it.
#[inline]
pub fn submit(
    rank: &mut Rank,
    direction: Direction,
    span: Option<&'static str>,
    runs: impl IntoIterator<Item = (u64, u64)>,
    mut op: impl FnMut(&mut Rank, u64, u64, u64) -> pfs::Result<f64>,
) -> Result<DeferredIo> {
    let submitted = rank.now();
    let (mut done, mut bytes) = (submitted, 0u64);
    for (off, len) in runs {
        done = done.max(pfs_retry(rank, |rk| op(rk, off, len, bytes))?);
        bytes += len;
        match direction {
            Direction::Read => {
                rank.stats.io_reads += 1;
                rank.stats.io_read_bytes += len;
            }
            Direction::Write => {
                rank.stats.io_writes += 1;
                rank.stats.io_write_bytes += len;
            }
        }
    }
    Ok(DeferredIo {
        name: span.unwrap_or_default(),
        submitted,
        done,
        bytes,
    })
}

/// Land a completion on the clock by waiting it out. A named handle waits
/// under `Phase::Io` and marks its span over `[submitted, now]`; an unnamed
/// one is a plain `sync_to` in whatever phase the caller is in.
#[inline]
pub fn settle(rank: &mut Rank, io: DeferredIo) {
    if io.name.is_empty() {
        rank.sync_to(io.done);
    } else {
        rank.with_phase(Phase::Io, |rk| rk.sync_to(io.done));
        rank.trace_mark(io.name, Phase::Io, io.submitted, io.bytes);
    }
}

/// Run a pfs operation, retrying transient failures with exponential
/// backoff in virtual time. The policy comes from the attached chaos
/// engine (or defaults when a transient error appears without one).
fn pfs_retry(rank: &mut Rank, mut op: impl FnMut(&mut Rank) -> pfs::Result<f64>) -> Result<f64> {
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

#[cfg(test)]
mod tests {
    use super::*;
    use mpisim::SimConfig;
    use pfs::{Pfs, PfsConfig};
    use std::sync::Arc;

    #[test]
    fn retries_until_outage_lifts_and_counts() {
        let engine = chaos::FaultPlan::new(3)
            .with(chaos::Effect::OstOutage { ost: 0 }.during(0.0, 0.5))
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
            let io = submit(
                rk,
                Direction::Write,
                Some("w"),
                [(0, 16)],
                |rk, off, _, _| fs2.write_at(fid, 0, off, &[7u8; 16], rk.now()),
            )?;
            settle(rk, io);
            Ok(rk.stats.clone())
        })
        .unwrap();
        let stats = &rep.results[0];
        assert!(stats.io_retries >= 1, "at least one retry happened");
        assert_eq!((stats.io_writes, stats.io_write_bytes), (1, 16));
        assert!(rep.makespan >= 0.5, "backoff waits for the outage to lift");
        assert_eq!(fs.snapshot_file(fid).unwrap(), vec![7u8; 16]);
    }

    #[test]
    fn budget_exhaustion_surfaces_the_transient_error() {
        // Chained outage windows: each `retry_after` hint lands inside the
        // next window, so the helper must give up with the typed error
        // once the attempt budget is spent, not loop forever.
        let mut plan = chaos::FaultPlan::new(3);
        plan.retry = chaos::RetryPolicy {
            max_attempts: 3,
            base_backoff: 1e-3,
            max_backoff: 1e-2,
        };
        for k in 0..8 {
            plan = plan.with(chaos::Effect::OstOutage { ost: 0 }.during(k as f64, (k + 1) as f64));
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
