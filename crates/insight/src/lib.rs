//! # insight — critical-path analysis over virtual-time traces
//!
//! The tracing layer (PR 1) records *what each rank did*; this crate answers
//! *why the job took as long as it did*. It reconstructs the causal
//! dependency graph from a [`RankTrace`] set — point-to-point send/recv
//! edges, rendezvous-collective straggler edges, and RMA lock-token waits —
//! and walks it backward from the makespan to extract the **critical path**:
//! a chain of segments, one rank at a time, whose durations tile the whole
//! interval `[0, makespan]`.
//!
//! Two structural invariants hold **by construction** and are asserted by
//! the property suite:
//!
//! 1. **Conservation** — the emitted segments are contiguous in time and sum
//!    to the makespan (residual is floating-point noise only).
//! 2. **Causal connection** — consecutive segments either share a rank, or
//!    are joined by a recorded message edge or straggler jump.
//!
//! The walk operates on a *flattened* view of each rank's timeline: nested
//! spans (e.g. an `io_retry` inside an `indep_write`) are split into
//! innermost-wins leaf intervals so every instant of a rank's clock is
//! attributed to exactly one operation (or a gap = local compute). Each
//! span's [`Span::ready`] field — the virtual time its *external* dependency
//! was satisfied — tells the walker where to cut: time after `ready` is the
//! operation's own cost, time before it belongs to whoever we were waiting
//! on, so the path hops to the sender (via [`Span::dep`]) or to the
//! collective's straggler (via [`Span::straggler`]).
//!
//! Path time is attributed to seven categories (compute, intra-node comm,
//! inter-node comm, OST service, lock wait, retry/backoff, recovery) keyed
//! off the span instrumentation labels, mirroring the cost taxonomy of the
//! TCIO paper's evaluation.

#![forbid(unsafe_code)]

use std::collections::BTreeMap;
use std::fmt::Write as _;

use mpisim::{Phase, RankTrace, Span, Topology};

/// Where a slice of critical-path time went. Finer than [`Phase`]: the
/// comm phases split by locality, and the I/O phase splits out the
/// resilience machinery (retries, recovery) and RMA lock waits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Category {
    /// Local work: gaps between spans, buffer packing, injected stalls.
    Compute,
    /// Data movement between ranks on the same node.
    IntraComm,
    /// Data movement between ranks on different nodes (also the default
    /// when no topology is attached — a flat machine is all "inter").
    InterComm,
    /// Waiting on the simulated file system (OST service + queueing).
    OstService,
    /// Waiting for an exclusive RMA lock token held by another epoch.
    LockWait,
    /// Backoff waits caused by transient fault retries.
    RetryBackoff,
    /// Crash-recovery work: segment recovery, replication, degraded reads.
    Recovery,
}

impl Category {
    /// All categories, in display order.
    pub const ALL: [Category; 7] = [
        Category::Compute,
        Category::IntraComm,
        Category::InterComm,
        Category::OstService,
        Category::LockWait,
        Category::RetryBackoff,
        Category::Recovery,
    ];

    pub fn as_str(self) -> &'static str {
        match self {
            Category::Compute => "compute",
            Category::IntraComm => "intra_comm",
            Category::InterComm => "inter_comm",
            Category::OstService => "ost_service",
            Category::LockWait => "lock_wait",
            Category::RetryBackoff => "retry_backoff",
            Category::Recovery => "recovery",
        }
    }

    /// Position in [`Category::ALL`], which lists the variants in
    /// declaration order.
    fn index(self) -> usize {
        self as usize
    }
}

impl std::fmt::Display for Category {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.pad(self.as_str())
    }
}

/// How a path segment connects to the *chronologically next* segment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Link {
    /// Same rank, contiguous in time.
    Seq,
    /// A message edge: this segment ends where the matching receive's
    /// transit (or wait) begins on the destination rank.
    Message { src: usize, dst: usize },
    /// A straggler edge: this segment is the tail of the late rank's
    /// pre-collective work; the next segment is the collective cost paid
    /// by the rank that was kept waiting.
    Straggler { rank: usize },
    /// Chronologically last segment of the path.
    End,
}

/// One hop of the critical path: a contiguous slice of one rank's virtual
/// time, attributed to a [`Category`].
#[derive(Debug, Clone)]
pub struct PathSegment {
    pub rank: usize,
    pub start: f64,
    pub end: f64,
    pub category: Category,
    /// Instrumentation label of the owning span; `"gap"` for unattributed
    /// local time, `"transit"` for on-the-wire message time.
    pub name: &'static str,
    /// Connection to the chronologically next segment.
    pub link_to_next: Link,
}

impl PathSegment {
    pub fn dur(&self) -> f64 {
        self.end - self.start
    }
}

/// Per-category accumulated critical-path seconds.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Breakdown {
    secs: [f64; 7],
}

impl Breakdown {
    pub fn add(&mut self, cat: Category, dt: f64) {
        self.secs[cat.index()] += dt;
    }

    pub fn get(&self, cat: Category) -> f64 {
        self.secs[cat.index()]
    }

    pub fn total(&self) -> f64 {
        self.secs.iter().sum()
    }

    /// Fraction of the path in one category (0.0 when the path is empty).
    pub fn fraction(&self, cat: Category) -> f64 {
        let t = self.total();
        if t <= 0.0 {
            0.0
        } else {
            self.get(cat) / t
        }
    }
}

/// Inter-comm/OST-service overlap achieved by pipelined collective I/O
/// (see [`Analyzer::overlap_report`]). All quantities are summed over
/// ranks, in virtual seconds.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct OverlapReport {
    /// Total OST-service span coverage (per-rank interval union).
    pub io_busy: f64,
    /// Portion of `io_busy` that coincided with exchange spans on the
    /// same rank — service time hidden behind communication.
    pub overlapped: f64,
}

impl OverlapReport {
    /// `overlapped / io_busy`; 0.0 when there was no I/O at all. Exactly
    /// 0.0 for flat two-phase, > 0 when the round pipeline overlaps.
    pub fn fraction(&self) -> f64 {
        if self.io_busy <= 0.0 {
            0.0
        } else {
            self.overlapped / self.io_busy
        }
    }
}

/// Union of (possibly overlapping, unsorted) closed intervals, as a
/// sorted list of disjoint intervals. Empty/inverted inputs are dropped.
fn interval_union(iv: impl Iterator<Item = (f64, f64)>) -> Vec<(f64, f64)> {
    let mut v: Vec<(f64, f64)> = iv.filter(|&(a, b)| b > a).collect();
    v.sort_by(|x, y| x.0.total_cmp(&y.0).then(x.1.total_cmp(&y.1)));
    let mut out: Vec<(f64, f64)> = Vec::with_capacity(v.len());
    for (a, b) in v {
        match out.last_mut() {
            Some(last) if a <= last.1 => last.1 = last.1.max(b),
            _ => out.push((a, b)),
        }
    }
    out
}

/// Total length of the intersection of two disjoint sorted interval lists.
fn intersection_len(a: &[(f64, f64)], b: &[(f64, f64)]) -> f64 {
    let (mut i, mut j, mut total) = (0usize, 0usize, 0.0f64);
    while i < a.len() && j < b.len() {
        let lo = a[i].0.max(b[j].0);
        let hi = a[i].1.min(b[j].1);
        if hi > lo {
            total += hi - lo;
        }
        if a[i].1 <= b[j].1 {
            i += 1;
        } else {
            j += 1;
        }
    }
    total
}

/// One rank's share of the critical path.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RankShare {
    pub rank: usize,
    /// Virtual seconds of path time spent on this rank.
    pub secs: f64,
    /// Number of path segments on this rank.
    pub segments: usize,
    /// How many times the path entered this rank via a straggler edge —
    /// i.e. how often this rank's late arrival gated a collective.
    pub straggler_hits: u64,
}

/// The extracted critical path of one simulation run.
#[derive(Debug, Clone)]
pub struct CriticalPath {
    /// Segments in chronological order, tiling `[0, makespan]`.
    pub segments: Vec<PathSegment>,
    pub makespan: f64,
    /// Number of ranks in the traced job.
    pub nranks: usize,
    /// True when the backward walk hit its iteration cap and bailed out
    /// (never expected for well-formed traces; checked by tests).
    pub truncated: bool,
}

impl CriticalPath {
    /// Per-category attribution of path time.
    pub fn breakdown(&self) -> Breakdown {
        let mut b = Breakdown::default();
        for s in &self.segments {
            b.add(s.category, s.dur());
        }
        b
    }

    /// `makespan - sum(segment durations)`: floating-point noise for a
    /// well-formed trace (the conservation invariant).
    pub fn residual(&self) -> f64 {
        self.makespan - self.segments.iter().map(|s| s.dur()).sum::<f64>()
    }

    /// Per-rank path shares, sorted by descending path time (ties broken
    /// toward the lower rank so the ranking is deterministic).
    pub fn rank_shares(&self) -> Vec<RankShare> {
        let mut by_rank: BTreeMap<usize, RankShare> = BTreeMap::new();
        for (i, s) in self.segments.iter().enumerate() {
            let e = by_rank.entry(s.rank).or_insert(RankShare {
                rank: s.rank,
                secs: 0.0,
                segments: 0,
                straggler_hits: 0,
            });
            e.secs += s.dur();
            e.segments += 1;
            // A straggler edge points from the late rank's last pre-entry
            // segment to the waiting rank's collective-cost segment; the
            // *earlier* segment sits on the straggler, so credit its rank.
            if i + 1 < self.segments.len() {
                if let Link::Straggler { .. } = s.link_to_next {
                    e.straggler_hits += 1;
                }
            }
        }
        let mut shares: Vec<RankShare> = by_rank.into_values().collect();
        shares.sort_by(|a, b| {
            b.secs
                .partial_cmp(&a.secs)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.rank.cmp(&b.rank))
        });
        shares
    }

    /// Path concentration: the top rank's share of path time times the
    /// number of ranks (1.0 = the path visits every rank equally; `nranks`
    /// = a single rank owns the whole path).
    pub fn imbalance(&self) -> f64 {
        if self.makespan <= 0.0 || self.nranks == 0 {
            return 0.0;
        }
        let top = self
            .rank_shares()
            .first()
            .map(|s| s.secs)
            .unwrap_or_default();
        top / self.makespan * self.nranks as f64
    }

    /// Human-readable report: category table plus the top rank shares.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "critical path: {:.4} ms over {} segments (residual {:+.3e})",
            self.makespan * 1e3,
            self.segments.len(),
            self.residual()
        );
        let b = self.breakdown();
        let _ = writeln!(out, "{:<14} {:>12} {:>8}", "category", "ms", "share");
        for c in Category::ALL {
            if b.get(c) > 0.0 {
                let _ = writeln!(
                    out,
                    "{:<14} {:>12.4} {:>7.1}%",
                    c.as_str(),
                    b.get(c) * 1e3,
                    b.fraction(c) * 100.0
                );
            }
        }
        let shares = self.rank_shares();
        let _ = writeln!(out, "top ranks on path (of {}):", self.nranks);
        for s in shares.iter().take(5) {
            let _ = writeln!(
                out,
                "  rank {:<4} {:>10.4} ms in {:>4} segments, {} straggler hits",
                s.rank,
                s.secs * 1e3,
                s.segments,
                s.straggler_hits
            );
        }
        out
    }
}

/// A leaf interval of one rank's flattened timeline: `span` indexes into
/// that rank's span vector, `None` marks an instrumentation gap.
#[derive(Debug, Clone, Copy)]
struct Leaf {
    start: f64,
    end: f64,
    span: Option<u32>,
}

/// Split possibly-nested spans into innermost-wins leaf intervals tiling
/// `[0, horizon]`. Spans are recorded at completion, so children precede
/// parents in program order — the sort by `(start asc, end desc)` restores
/// outer-before-inner, and the stack sweep carves children out of parents.
fn flatten(spans: &[Span], horizon: f64) -> Vec<Leaf> {
    // Invariant: a span id packs its per-rank sequence number into 32
    // bits, so one rank never records more spans than a `u32` counts.
    let count = u32::try_from(spans.len()).expect("span sequence numbers are 32-bit");
    let mut order: Vec<u32> = (0..count)
        .filter(|&i| spans[i as usize].end > spans[i as usize].start)
        .collect();
    order.sort_by(|&a, &b| {
        let (sa, sb) = (&spans[a as usize], &spans[b as usize]);
        sa.start
            .partial_cmp(&sb.start)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(
                sb.end
                    .partial_cmp(&sa.end)
                    .unwrap_or(std::cmp::Ordering::Equal),
            )
            .then(sa.id.cmp(&sb.id))
    });
    let mut leaves: Vec<Leaf> = Vec::with_capacity(order.len() * 2 + 1);
    let mut stack: Vec<u32> = Vec::new();
    let mut cursor = 0.0f64;
    let sweep_to = |target: f64, stack: &mut Vec<u32>, leaves: &mut Vec<Leaf>, cursor: &mut f64| {
        while *cursor < target {
            while let Some(&top) = stack.last() {
                if spans[top as usize].end <= *cursor {
                    stack.pop();
                } else {
                    break;
                }
            }
            let top = stack.last().copied();
            let upper = match top {
                Some(t) => spans[t as usize].end.min(target),
                None => target,
            };
            if upper > *cursor {
                leaves.push(Leaf {
                    start: *cursor,
                    end: upper,
                    span: top,
                });
            }
            *cursor = upper;
        }
    };
    for &i in &order {
        let s = &spans[i as usize];
        sweep_to(s.start.min(horizon), &mut stack, &mut leaves, &mut cursor);
        while let Some(&top) = stack.last() {
            if spans[top as usize].end <= s.start {
                stack.pop();
            } else {
                break;
            }
        }
        stack.push(i);
        cursor = cursor.max(s.start);
    }
    sweep_to(horizon, &mut stack, &mut leaves, &mut cursor);
    leaves
}

/// Critical-path analyzer over one simulation's traces. Construct with
/// [`Analyzer::new`], optionally attach the run's [`Topology`] for
/// intra/inter-node comm classification, then call
/// [`Analyzer::critical_path`].
pub struct Analyzer<'a> {
    traces: &'a [RankTrace],
    topo: Option<&'a Topology>,
    /// Per-rank analysis horizon: final clock (max span end guards against
    /// float drift in the phase-total sum).
    horizons: Vec<f64>,
    leaves: Vec<Vec<Leaf>>,
}

impl<'a> Analyzer<'a> {
    pub fn new(traces: &'a [RankTrace]) -> Analyzer<'a> {
        let horizons: Vec<f64> = traces
            .iter()
            .map(|t| {
                t.spans
                    .iter()
                    .map(|s| s.end)
                    .fold(t.totals.total(), f64::max)
            })
            .collect();
        let leaves = traces
            .iter()
            .zip(&horizons)
            .map(|(t, &h)| flatten(&t.spans, h))
            .collect();
        Analyzer {
            traces,
            topo: None,
            horizons,
            leaves,
        }
    }

    /// Attach the run's topology so comm segments split intra/inter-node.
    pub fn with_topology(mut self, topo: &'a Topology) -> Analyzer<'a> {
        self.topo = Some(topo);
        self
    }

    /// The job's makespan: the maximum per-rank horizon.
    pub fn makespan(&self) -> f64 {
        self.horizons.iter().copied().fold(0.0, f64::max)
    }

    /// Pipelining effectiveness: how much OST service time ran *while the
    /// same rank was also inside an exchange span*. Flat two-phase
    /// serializes the two (exchange, then I/O, then the next exchange), so
    /// its overlap is exactly zero; the pipelined round loop submits round
    /// k's I/O, runs round k+1's exchange, and settles the completion
    /// afterwards, so its `Io` spans cover the exchange in wall-clock
    /// terms. Computed per rank as |union(Io spans) ∩ union(Exchange
    /// spans)|, then summed — unions, not sums, so overlapping I/O spans
    /// (double-buffer depth 2) are not double counted.
    pub fn overlap_report(&self) -> OverlapReport {
        let mut io_busy = 0.0;
        let mut overlapped = 0.0;
        for t in self.traces {
            let io = interval_union(
                t.spans
                    .iter()
                    .filter(|s| s.phase == Phase::Io)
                    .map(|s| (s.start, s.end)),
            );
            let exch = interval_union(
                t.spans
                    .iter()
                    .filter(|s| s.phase == Phase::Exchange)
                    .map(|s| (s.start, s.end)),
            );
            io_busy += io.iter().map(|&(a, b)| b - a).sum::<f64>();
            overlapped += intersection_len(&io, &exch);
        }
        OverlapReport {
            io_busy,
            overlapped,
        }
    }

    /// Resolve a span id (`rank << 32 | seq`) to the span it names. Span
    /// sequence numbers are dense, so `seq` indexes the rank's span vector.
    fn span_by_id(&self, id: u64) -> Option<&Span> {
        let rank = (id >> 32) as usize;
        let seq = (id & u32::MAX as u64) as usize;
        let s = self.traces.get(rank)?.spans.get(seq)?;
        (s.id == id).then_some(s)
    }

    /// The leaf interval of `rank` covering `(t - ε, t]`.
    fn leaf_at(&self, rank: usize, t: f64) -> Option<Leaf> {
        let leaves = self.leaves.get(rank)?;
        let i = leaves.partition_point(|l| l.end < t);
        leaves.get(i).copied().filter(|l| l.start < t)
    }

    fn comm_category(&self, rank: usize, peer: Option<usize>, name: &str) -> Category {
        if name.ends_with("_intra") {
            return Category::IntraComm;
        }
        if name.ends_with("_inter") {
            return Category::InterComm;
        }
        match (self.topo, peer) {
            (Some(topo), Some(p)) if topo.colocated(rank, p) => Category::IntraComm,
            _ => Category::InterComm,
        }
    }

    /// Map a span to its path category. Resilience labels win over phase;
    /// comm spans classify by locality when the peer is known.
    fn categorize(&self, s: &Span) -> Category {
        match s.name {
            "rma_lock_wait" => Category::LockWait,
            "io_retry" => Category::RetryBackoff,
            "tcio_recover" | "tcio_replicate" | "tcio_read_fallback" => Category::Recovery,
            _ => match s.phase {
                Phase::Io => Category::OstService,
                Phase::Compute => Category::Compute,
                Phase::Exchange | Phase::Sync => {
                    let peer = s.dep.map(|d| (d >> 32) as usize);
                    self.comm_category(s.rank, peer, s.name)
                }
            },
        }
    }

    /// Walk backward from the makespan, emitting segments until virtual
    /// time zero. See the module docs for the cut/jump rules.
    pub fn critical_path(&self) -> CriticalPath {
        let nranks = self.traces.len();
        let makespan = self.makespan();
        let mut segments: Vec<PathSegment> = Vec::new();
        if nranks == 0 || makespan <= 0.0 {
            return CriticalPath {
                segments,
                makespan: makespan.max(0.0),
                nranks,
                truncated: false,
            };
        }
        // Start on the rank that finished last (lowest rank on ties).
        // Invariant: `nranks > 0` past the early return, so `max_by` has a
        // candidate.
        let mut rank = (0..nranks)
            .max_by(|&a, &b| {
                self.horizons[a]
                    .partial_cmp(&self.horizons[b])
                    .unwrap_or(std::cmp::Ordering::Equal)
                    .then(b.cmp(&a))
            })
            .expect("at least one rank");
        let mut t = makespan;
        let eps = makespan * 1e-12;
        // `pending` is the link the *next emitted* (earlier) segment uses to
        // reach the one emitted before it.
        let mut pending = Link::End;
        let emit = |segments: &mut Vec<PathSegment>,
                    rank: usize,
                    start: f64,
                    end: f64,
                    category: Category,
                    name: &'static str,
                    pending: &mut Link| {
            if end > start {
                segments.push(PathSegment {
                    rank,
                    start,
                    end,
                    category,
                    name,
                    link_to_next: *pending,
                });
                *pending = Link::Seq;
            }
        };
        let total_spans: usize = self.traces.iter().map(|t| t.spans.len()).sum();
        let cap = total_spans * 8 + nranks * 64 + 1024;
        let mut truncated = false;
        for step in 0..=cap {
            if t <= eps {
                t = 0.0;
                break;
            }
            if step == cap {
                truncated = true;
                break;
            }
            let Some(leaf) = self.leaf_at(rank, t) else {
                truncated = true;
                break;
            };
            let a = leaf.start;
            let Some(si) = leaf.span else {
                emit(
                    &mut segments,
                    rank,
                    a,
                    t,
                    Category::Compute,
                    "gap",
                    &mut pending,
                );
                t = a;
                continue;
            };
            let s = &self.traces[rank].spans[si as usize];
            let cat = self.categorize(s);
            if s.ready <= a {
                // Dependency satisfied before this interval: all local.
                emit(&mut segments, rank, a, t, cat, s.name, &mut pending);
                t = a;
                continue;
            }
            let cut = s.ready.min(t);
            emit(&mut segments, rank, cut, t, cat, s.name, &mut pending);
            t = cut;
            if let Some(sender) = s.dep.and_then(|d| self.span_by_id(d)) {
                // Message edge: wire time between the send's completion and
                // the arrival is a transit segment on the receiver, then
                // the path continues on the sender.
                let (src, dst) = (sender.rank, rank);
                let transit_cat = self.comm_category(dst, Some(src), "transit");
                let handoff = sender.end.min(t);
                emit(
                    &mut segments,
                    rank,
                    handoff,
                    t,
                    transit_cat,
                    "transit",
                    &mut pending,
                );
                pending = Link::Message { src, dst };
                rank = src;
                t = handoff;
            } else if let Some(w) = s.straggler.filter(|&w| w != rank && w < nranks) {
                // Straggler edge: the collective's reconciled clock was set
                // by rank `w`; the path continues on its timeline at the
                // moment it (finally) entered.
                pending = Link::Straggler { rank: w };
                rank = w;
            } else {
                // No recorded causal edge (e.g. a wait whose cause was not
                // instrumented): attribute the wait to the span itself.
                emit(&mut segments, rank, a, cut, cat, s.name, &mut pending);
                t = a;
            }
        }
        if t > 0.0 {
            // Bail-out: keep conservation by closing the path with one
            // unattributed segment (flagged via `truncated`).
            segments.push(PathSegment {
                rank,
                start: 0.0,
                end: t,
                category: Category::Compute,
                name: "truncated",
                link_to_next: pending,
            });
        }
        segments.reverse();
        CriticalPath {
            segments,
            makespan,
            nranks,
            truncated,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(rank: usize, seq: u32, name: &'static str, phase: Phase, start: f64, end: f64) -> Span {
        Span {
            id: ((rank as u64) << 32) | seq as u64,
            rank,
            name,
            phase,
            start,
            end,
            bytes: 0,
            dep: None,
            ready: start,
            straggler: None,
        }
    }

    fn trace(rank: usize, clock: f64, spans: Vec<Span>) -> RankTrace {
        let mut t = RankTrace {
            rank,
            spans,
            ..Default::default()
        };
        t.totals.add(Phase::Compute, clock);
        t
    }

    fn assert_conserved(cp: &CriticalPath) {
        assert!(!cp.truncated, "walk must not hit the iteration cap");
        assert!(
            cp.residual().abs() <= 1e-9 * cp.makespan.max(1.0),
            "residual {} vs makespan {}",
            cp.residual(),
            cp.makespan
        );
        for w in cp.segments.windows(2) {
            assert!(
                (w[0].end - w[1].start).abs() <= 1e-9,
                "segments must be contiguous: {:?} -> {:?}",
                w[0],
                w[1]
            );
            if let Link::Seq = w[0].link_to_next {
                assert_eq!(w[0].rank, w[1].rank, "Seq link must stay on one rank");
            }
        }
    }

    #[test]
    fn single_rank_path_is_its_own_timeline() {
        let tr = trace(0, 3.0, vec![span(0, 0, "indep_write", Phase::Io, 1.0, 2.0)]);
        let cp = Analyzer::new(std::slice::from_ref(&tr)).critical_path();
        assert_conserved(&cp);
        assert_eq!(cp.segments.len(), 3);
        let b = cp.breakdown();
        assert!((b.get(Category::OstService) - 1.0).abs() < 1e-12);
        assert!((b.get(Category::Compute) - 2.0).abs() < 1e-12);
        assert!((cp.imbalance() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn message_edge_jumps_to_the_sender() {
        // rank 0 sends [0.5, 2.0]; rank 1 blocks in recv [1.0, 4.0] with the
        // message arriving at 3.0, then computes until its clock 5.0.
        let send = span(0, 0, "send", Phase::Exchange, 0.5, 2.0);
        let mut recv = span(1, 0, "recv", Phase::Exchange, 1.0, 4.0);
        recv.dep = Some(send.id);
        recv.ready = 3.0;
        let traces = vec![trace(0, 2.5, vec![send]), trace(1, 5.0, vec![recv])];
        let cp = Analyzer::new(&traces).critical_path();
        assert_conserved(&cp);
        // Chronological: gap[0,0.5]@0, send[0.5,2]@0, transit[2,3]@1,
        // recv-tail[3,4]@1, gap[4,5]@1.
        let names: Vec<&str> = cp.segments.iter().map(|s| s.name).collect();
        assert_eq!(names, vec!["gap", "send", "transit", "recv", "gap"]);
        assert_eq!(
            cp.segments[1].link_to_next,
            Link::Message { src: 0, dst: 1 }
        );
        let b = cp.breakdown();
        assert!((b.get(Category::InterComm) - 3.5).abs() < 1e-12);
        assert!((b.get(Category::Compute) - 1.5).abs() < 1e-12);
        // Without a topology all comm is inter-node.
        assert_eq!(b.get(Category::IntraComm), 0.0);
    }

    #[test]
    fn straggler_edge_jumps_to_the_late_rank() {
        // rank 1 computes until 2.0 and enters a barrier last; rank 0
        // entered at 0.5 and waited. Both leave at 2.2.
        let mut b0 = span(0, 0, "barrier", Phase::Sync, 0.5, 2.2);
        b0.ready = 2.0;
        b0.straggler = Some(1);
        let work = span(1, 0, "chaos_stall", Phase::Compute, 0.0, 2.0);
        let mut b1 = span(1, 1, "barrier", Phase::Sync, 2.0, 2.2);
        b1.ready = 2.0;
        b1.straggler = Some(1);
        let traces = vec![trace(0, 2.2, vec![b0]), trace(1, 2.2, vec![work, b1])];
        let cp = Analyzer::new(&traces).critical_path();
        assert_conserved(&cp);
        // The path charges [0,2] to the straggler's local work, then the
        // collective cost [2,2.2] to whichever rank it started from.
        assert_eq!(cp.segments[0].rank, 1);
        assert_eq!(cp.segments[0].name, "chaos_stall");
        assert_eq!(cp.segments[0].link_to_next, Link::Straggler { rank: 1 });
        let shares = cp.rank_shares();
        assert_eq!(shares[0].rank, 1);
        assert_eq!(shares[0].straggler_hits, 1);
        let b = cp.breakdown();
        assert!((b.get(Category::Compute) - 2.0).abs() < 1e-12);
        assert!((b.get(Category::InterComm) - 0.2).abs() < 1e-12);
    }

    #[test]
    fn nested_spans_flatten_innermost_wins() {
        // A retry recorded inside an indep_write: children are recorded
        // before parents (completion order), flatten must restore nesting.
        let child = span(0, 0, "io_retry", Phase::Io, 2.0, 4.0);
        let parent = span(0, 1, "indep_write", Phase::Io, 0.0, 10.0);
        let tr = trace(0, 10.0, vec![child, parent]);
        let cp = Analyzer::new(std::slice::from_ref(&tr)).critical_path();
        assert_conserved(&cp);
        let b = cp.breakdown();
        assert!((b.get(Category::RetryBackoff) - 2.0).abs() < 1e-12);
        assert!((b.get(Category::OstService) - 8.0).abs() < 1e-12);
    }

    #[test]
    fn lock_wait_is_carved_out_of_the_epoch() {
        let wait = span(0, 0, "rma_lock_wait", Phase::Exchange, 1.0, 3.0);
        let mut epoch = span(0, 1, "rma_epoch", Phase::Exchange, 1.0, 5.0);
        epoch.ready = 3.0;
        let tr = trace(0, 5.0, vec![wait, epoch]);
        let cp = Analyzer::new(std::slice::from_ref(&tr)).critical_path();
        assert_conserved(&cp);
        let b = cp.breakdown();
        assert!((b.get(Category::LockWait) - 2.0).abs() < 1e-12);
        assert!((b.get(Category::InterComm) - 2.0).abs() < 1e-12);
        assert!((b.get(Category::Compute) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn topology_splits_comm_by_locality() {
        let send = span(0, 0, "send_intra", Phase::Exchange, 0.0, 1.0);
        let mut recv = span(1, 0, "recv", Phase::Exchange, 0.0, 2.0);
        recv.dep = Some(send.id);
        recv.ready = 1.5;
        let traces = vec![trace(0, 1.0, vec![send]), trace(1, 2.0, vec![recv])];
        let topo = Topology::blocked(2, 2); // both ranks on one node
        let cp = Analyzer::new(&traces).with_topology(&topo).critical_path();
        assert_conserved(&cp);
        let b = cp.breakdown();
        assert!((b.get(Category::IntraComm) - 2.0).abs() < 1e-12);
        assert_eq!(b.get(Category::InterComm), 0.0);
    }

    #[test]
    fn recovery_and_fallback_labels_map_to_recovery() {
        let tr = trace(
            0,
            3.0,
            vec![
                span(0, 0, "tcio_recover", Phase::Io, 0.0, 1.0),
                span(0, 1, "tcio_replicate", Phase::Exchange, 1.0, 2.0),
                span(0, 2, "tcio_read_fallback", Phase::Io, 2.0, 3.0),
            ],
        );
        let cp = Analyzer::new(std::slice::from_ref(&tr)).critical_path();
        assert_conserved(&cp);
        assert!((cp.breakdown().get(Category::Recovery) - 3.0).abs() < 1e-12);
    }

    #[test]
    fn end_to_end_conservation_on_a_real_run() {
        let cfg = mpisim::SimConfig {
            trace: true,
            ..Default::default()
        };
        let rep = mpisim::run(4, cfg, |rk| {
            let me = rk.rank();
            let n = rk.nprocs();
            rk.advance(1e-4 * (me + 1) as f64);
            let data = vec![me as u8; 1 << 12];
            rk.send((me + 1) % n, 7, &data)?;
            let r = rk.recv(Some((me + n - 1) % n), Some(7))?;
            assert_eq!(r.data.len(), 1 << 12);
            rk.barrier()?;
            let msgs: Vec<Vec<u8>> = (0..n).map(|p| vec![p as u8; 512 * (me + 1)]).collect();
            rk.alltoallv(msgs)?;
            rk.barrier()?;
            Ok(())
        })
        .unwrap();
        let cp = Analyzer::new(&rep.traces).critical_path();
        assert_conserved(&cp);
        assert!((cp.makespan - rep.makespan).abs() <= 1e-9 * rep.makespan);
        assert!(cp.breakdown().get(Category::InterComm) > 0.0);
        // Rank 3 computes longest before the first barrier, so it must
        // appear on the path.
        assert!(cp.rank_shares().iter().any(|s| s.rank == 3));
    }

    #[test]
    fn empty_traces_yield_an_empty_path() {
        let cp = Analyzer::new(&[]).critical_path();
        assert!(cp.segments.is_empty());
        assert_eq!(cp.makespan, 0.0);
        assert_eq!(cp.imbalance(), 0.0);
    }
}
