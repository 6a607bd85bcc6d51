//! The PFS client: the one door every file-system request of the stack
//! goes through.
//!
//! ROMIO sends independent, sieved and two-phase accesses alike through one
//! ADIO device layer; this module is that layer here. [`submit`] issues a
//! request — one [`pfs`] call per run — under the retry policy, counts it in
//! [`mpisim::RankStats`] and returns its completion as a [`DeferredIo`];
//! [`settle`] (or a [`DeferredQueue`], for pipelined callers) charges that
//! completion to the rank's clock. What callers differ in is an argument
//! or closure state: direction, span name, which client the request is
//! charged to, which instant an attempt is priced at, file system or burst
//! buffer.
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
use mpisim::{DeferredIo, MemGuard, Phase, Rank};
use std::collections::VecDeque;

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

/// Pipeline depth of every round loop: double buffering, matching the two
/// collective buffers an aggregator holds in flight.
const PIPELINE_DEPTH: usize = 2;

/// Deferred completions of in-flight rounds, oldest first — the pipelined
/// alternative to [`settle`]: handles land through [`Rank::io_complete`],
/// which credits the service time hidden behind other work. A collective
/// buffer's memory guard rides along with its handle, so the buffer stays
/// charged against the rank's budget until its round is settled.
#[derive(Default)]
pub struct DeferredQueue(VecDeque<(DeferredIo, MemGuard)>);

impl DeferredQueue {
    /// Double buffering: settle the oldest handles until one more fits
    /// within the pipeline depth. Call before opening the next round.
    pub fn make_room(&mut self, rank: &mut Rank) {
        while self.0.len() >= PIPELINE_DEPTH {
            let Some((io, _guard)) = self.0.pop_front() else {
                break;
            };
            rank.io_complete(io);
        }
    }

    /// Keep a submitted I/O's completion outstanding. The storage layer
    /// applied the bytes at submission; only the clock sync is deferred.
    pub fn push(&mut self, io: DeferredIo, guard: MemGuard) {
        self.0.push_back((io, guard));
    }

    /// Settle everything. Call before the closing barrier so the rank's
    /// clock covers its own I/O completions.
    pub fn drain(&mut self, rank: &mut Rank) {
        for (io, _guard) in self.0.drain(..) {
            rank.io_complete(io);
        }
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
