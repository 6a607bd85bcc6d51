//! Structured virtual-time tracing: phase accounting, spans, aggregation,
//! and a Chrome `trace_event` exporter.
//!
//! Every mutation of a rank's virtual clock flows through the rank's
//! `Tracer`, which attributes the elapsed delta to exactly one [`Phase`].
//! Runtime operations self-classify (point-to-point and RMA time is
//! [`Phase::Exchange`], rendezvous collectives are [`Phase::Sync`]); I/O
//! layers wrap their file-system waits in [`Phase::Io`]; everything else
//! lands in [`Phase::Compute`]. Because the deltas partition the clock, the
//! per-phase totals of a rank sum to its final clock **by construction** —
//! the conservation law the observability tests assert to within floating
//! point rounding.
//!
//! Phase totals are always collected (a handful of adds per operation).
//! [`Span`] recording — one interval per operation, with byte counts and
//! cross-rank dependency edges — is gated on `SimConfig::trace` and costs
//! nothing when disabled. Span ids embed the rank, and each rank's spans
//! are appended in program order, so a trace of a deterministic workload is
//! itself deterministic and can be golden-tested.

use std::fmt::Write as _;

/// What a slice of virtual time was spent on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Phase {
    /// Local work: compute, buffer packing, api overheads.
    Compute,
    /// Data movement between ranks: point-to-point, all-to-all, RMA.
    Exchange,
    /// Waiting on the (simulated) file system.
    Io,
    /// Collective synchronization: barriers, rendezvous waits, allgathers.
    Sync,
}

impl Phase {
    /// All phases, in display order.
    pub const ALL: [Phase; 4] = [Phase::Compute, Phase::Exchange, Phase::Io, Phase::Sync];

    pub fn as_str(self) -> &'static str {
        match self {
            Phase::Compute => "compute",
            Phase::Exchange => "exchange",
            Phase::Io => "io",
            Phase::Sync => "sync",
        }
    }

    fn index(self) -> usize {
        match self {
            Phase::Compute => 0,
            Phase::Exchange => 1,
            Phase::Io => 2,
            Phase::Sync => 3,
        }
    }
}

impl std::fmt::Display for Phase {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.pad(self.as_str())
    }
}

/// Per-phase accumulated virtual seconds for one rank.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PhaseTotals {
    secs: [f64; 4],
}

impl PhaseTotals {
    pub fn add(&mut self, phase: Phase, dt: f64) {
        self.secs[phase.index()] += dt;
    }

    pub fn get(&self, phase: Phase) -> f64 {
        self.secs[phase.index()]
    }

    /// Sum over all phases — equals the rank's final clock when every
    /// clock mutation was attributed (the conservation invariant).
    pub fn total(&self) -> f64 {
        self.secs.iter().sum()
    }

    pub fn merge(&mut self, other: &PhaseTotals) {
        for (a, b) in self.secs.iter_mut().zip(other.secs) {
            *a += b;
        }
    }
}

/// One traced operation: a closed interval of one rank's virtual time.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Unique id: `rank << 32 | per-rank sequence` (deterministic).
    pub id: u64,
    pub rank: usize,
    /// Operation name (static instrumentation label, e.g. `"recv"`).
    pub name: &'static str,
    pub phase: Phase,
    /// Virtual start/end times in seconds.
    pub start: f64,
    pub end: f64,
    /// Payload bytes the operation moved (0 when not applicable).
    pub bytes: u64,
    /// For receives: the span id of the matching send on the source rank —
    /// the cross-rank dependency edge.
    pub dep: Option<u64>,
    /// Virtual time at which the operation's *external* dependency was
    /// satisfied: message arrival for receives, the straggler's entry clock
    /// for rendezvous collectives, token availability for exclusive RMA
    /// epochs. Equals `start` for purely local operations. Always within
    /// `[start, end]` (clamped) so critical-path cuts stay inside the span.
    pub ready: f64,
    /// For rendezvous collectives: the rank whose late arrival set the
    /// reconciled clock (`max_t`) — the causal predecessor the critical
    /// path jumps to. Ties break to the lowest rank, independent of thread
    /// arrival order, so traces stay deterministic.
    pub straggler: Option<usize>,
}

/// Everything one rank's tracer collected.
#[derive(Debug, Clone, Default)]
pub struct RankTrace {
    pub rank: usize,
    pub totals: PhaseTotals,
    /// Recorded spans in program order (empty unless `SimConfig::trace`).
    pub spans: Vec<Span>,
}

/// Per-rank clock-attribution state. Owned by `Rank`; all methods are a few
/// arithmetic ops so tracing-off costs are negligible.
#[derive(Debug)]
pub(crate) struct Tracer {
    rank: usize,
    enabled: bool,
    totals: PhaseTotals,
    stack: Vec<Phase>,
    spans: Vec<Span>,
    next_seq: u32,
}

impl Tracer {
    pub(crate) fn new(rank: usize, enabled: bool) -> Tracer {
        Tracer {
            rank,
            enabled,
            totals: PhaseTotals::default(),
            stack: Vec::new(),
            spans: Vec::new(),
            next_seq: 0,
        }
    }

    /// Innermost active phase (Compute when no override is in effect).
    pub(crate) fn current_phase(&self) -> Phase {
        self.stack.last().copied().unwrap_or(Phase::Compute)
    }

    pub(crate) fn attribute(&mut self, phase: Phase, dt: f64) {
        self.totals.add(phase, dt);
    }

    pub(crate) fn push_phase(&mut self, phase: Phase) {
        self.stack.push(phase);
    }

    pub(crate) fn pop_phase(&mut self) {
        self.stack.pop();
    }

    /// Record a span if tracing is enabled; returns its id for dependency
    /// stamping. Local operations only: `ready == start`, no straggler.
    pub(crate) fn record(
        &mut self,
        name: &'static str,
        phase: Phase,
        start: f64,
        end: f64,
        bytes: u64,
        dep: Option<u64>,
    ) -> Option<u64> {
        self.record_full(name, phase, start, end, bytes, dep, start, None)
    }

    /// Record a span carrying full causal metadata (`ready` time and
    /// straggler rank). `ready` is clamped into `[start, end]`.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn record_full(
        &mut self,
        name: &'static str,
        phase: Phase,
        start: f64,
        end: f64,
        bytes: u64,
        dep: Option<u64>,
        ready: f64,
        straggler: Option<usize>,
    ) -> Option<u64> {
        if !self.enabled {
            return None;
        }
        let id = ((self.rank as u64) << 32) | self.next_seq as u64;
        self.next_seq += 1;
        self.spans.push(Span {
            id,
            rank: self.rank,
            name,
            phase,
            start,
            end,
            bytes,
            dep,
            ready: ready.clamp(start, end),
            straggler,
        });
        Some(id)
    }

    pub(crate) fn finish(self) -> RankTrace {
        RankTrace {
            rank: self.rank,
            totals: self.totals,
            spans: self.spans,
        }
    }
}

/// One OST's accumulated service metrics (produced by the `pfs` crate).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct OstRow {
    pub ost: usize,
    /// RPCs (read + write pieces) this OST serviced.
    pub requests: u64,
    pub bytes_read: u64,
    pub bytes_written: u64,
    /// Virtual seconds spent servicing requests.
    pub busy: f64,
    /// Virtual seconds requests spent queued before service began.
    pub queue_wait: f64,
    /// Lock transfers paid by requests that landed on this OST.
    pub lock_transfers: u64,
}

/// Aggregated view of a simulation's traces: per-phase breakdown,
/// cross-rank imbalance, and (optionally) per-OST service histograms.
#[derive(Debug, Clone, Default)]
pub struct TraceReport {
    /// Per-rank phase totals, indexed by rank.
    pub per_rank: Vec<PhaseTotals>,
    /// Per-OST rows (empty unless attached with [`TraceReport::with_osts`]).
    pub osts: Vec<OstRow>,
}

impl TraceReport {
    pub fn new(traces: &[RankTrace]) -> TraceReport {
        TraceReport {
            per_rank: traces.iter().map(|t| t.totals).collect(),
            osts: Vec::new(),
        }
    }

    /// Attach per-OST metrics (from `Pfs::ost_report`).
    pub fn with_osts(mut self, osts: Vec<OstRow>) -> TraceReport {
        self.osts = osts;
        self
    }

    /// Sum of one phase across all ranks.
    pub fn phase_sum(&self, phase: Phase) -> f64 {
        self.per_rank.iter().map(|t| t.get(phase)).sum()
    }

    /// Maximum of one phase across ranks.
    pub fn phase_max(&self, phase: Phase) -> f64 {
        self.per_rank
            .iter()
            .map(|t| t.get(phase))
            .fold(0.0, f64::max)
    }

    /// Cross-rank imbalance of a phase: `max / mean` (1.0 = perfectly
    /// balanced; 0.0 when the phase never occurred).
    pub fn imbalance(&self, phase: Phase) -> f64 {
        if self.per_rank.is_empty() {
            return 0.0;
        }
        let mean = self.phase_sum(phase) / self.per_rank.len() as f64;
        if mean <= 0.0 {
            return 0.0;
        }
        self.phase_max(phase) / mean
    }

    /// Human-readable breakdown: a per-phase table (totals, max,
    /// imbalance) followed by a per-OST histogram when OST rows are
    /// attached.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<10} {:>12} {:>12} {:>10}",
            "phase", "sum (ms)", "max (ms)", "imbalance"
        );
        for p in Phase::ALL {
            let _ = writeln!(
                out,
                "{:<10} {:>12.4} {:>12.4} {:>10.3}",
                p.as_str(),
                self.phase_sum(p) * 1e3,
                self.phase_max(p) * 1e3,
                self.imbalance(p)
            );
        }
        if !self.osts.is_empty() {
            let peak = self
                .osts
                .iter()
                .map(|o| o.busy)
                .fold(0.0, f64::max)
                .max(1e-30);
            let _ = writeln!(
                out,
                "\n{:<5} {:>8} {:>12} {:>12} {:>10} {:>10}  busy",
                "ost", "reqs", "rd bytes", "wr bytes", "busy ms", "wait ms"
            );
            for o in &self.osts {
                let bar = "#".repeat(((o.busy / peak) * 20.0).round() as usize);
                let _ = writeln!(
                    out,
                    "{:<5} {:>8} {:>12} {:>12} {:>10.4} {:>10.4}  {bar}",
                    o.ost,
                    o.requests,
                    o.bytes_read,
                    o.bytes_written,
                    o.busy * 1e3,
                    o.queue_wait * 1e3
                );
            }
        }
        out
    }
}

/// Serialize spans as Chrome `trace_event` JSON (the format `chrome://
/// tracing` and Perfetto load). Complete events (`ph: "X"`), microsecond
/// timestamps with fixed 3-decimal formatting, `tid` = rank. The output is
/// byte-deterministic for a deterministic trace: spans are ordered by
/// `(start, rank, id)` with a stable sort.
pub fn chrome_trace_json(traces: &[RankTrace]) -> String {
    let mut spans: Vec<&Span> = traces.iter().flat_map(|t| t.spans.iter()).collect();
    spans.sort_by(|a, b| {
        a.start
            .partial_cmp(&b.start)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.rank.cmp(&b.rank))
            .then(a.id.cmp(&b.id))
    });
    let mut out = String::from("{\"traceEvents\":[\n");
    for (i, s) in spans.iter().enumerate() {
        let _ = write!(
            out,
            "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\
             \"pid\":0,\"tid\":{},\"args\":{{\"bytes\":{},\"id\":{}",
            s.name,
            s.phase.as_str(),
            s.start * 1e6,
            (s.end - s.start) * 1e6,
            s.rank,
            s.bytes,
            s.id
        );
        if let Some(dep) = s.dep {
            let _ = write!(out, ",\"dep\":{dep}");
        }
        out.push_str("}}");
        if i + 1 < spans.len() {
            out.push(',');
        }
        out.push('\n');
    }
    out.push_str("],\"displayTimeUnit\":\"ms\"}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_partition_and_merge() {
        let mut t = PhaseTotals::default();
        t.add(Phase::Compute, 1.0);
        t.add(Phase::Io, 2.0);
        t.add(Phase::Io, 0.5);
        assert_eq!(t.get(Phase::Io), 2.5);
        assert_eq!(t.get(Phase::Exchange), 0.0);
        assert!((t.total() - 3.5).abs() < 1e-15);
        let mut u = PhaseTotals::default();
        u.add(Phase::Sync, 4.0);
        u.merge(&t);
        assert!((u.total() - 7.5).abs() < 1e-15);
    }

    #[test]
    fn tracer_phase_stack_nests() {
        let mut tr = Tracer::new(0, false);
        assert_eq!(tr.current_phase(), Phase::Compute);
        tr.push_phase(Phase::Io);
        assert_eq!(tr.current_phase(), Phase::Io);
        tr.push_phase(Phase::Exchange);
        assert_eq!(tr.current_phase(), Phase::Exchange);
        tr.pop_phase();
        assert_eq!(tr.current_phase(), Phase::Io);
        tr.pop_phase();
        assert_eq!(tr.current_phase(), Phase::Compute);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut tr = Tracer::new(3, false);
        assert_eq!(tr.record("x", Phase::Io, 0.0, 1.0, 8, None), None);
        assert!(tr.finish().spans.is_empty());
    }

    #[test]
    fn span_ids_embed_rank_and_sequence() {
        let mut tr = Tracer::new(2, true);
        let a = tr.record("a", Phase::Compute, 0.0, 1.0, 0, None).unwrap();
        let b = tr
            .record("b", Phase::Compute, 1.0, 2.0, 0, Some(a))
            .unwrap();
        assert_eq!(a, 2 << 32);
        assert_eq!(b, (2 << 32) | 1);
        let trace = tr.finish();
        assert_eq!(trace.spans[1].dep, Some(a));
    }

    #[test]
    fn report_aggregates_and_measures_imbalance() {
        let mut a = RankTrace {
            rank: 0,
            ..Default::default()
        };
        a.totals.add(Phase::Io, 1.0);
        let mut b = RankTrace {
            rank: 1,
            ..Default::default()
        };
        b.totals.add(Phase::Io, 3.0);
        let rep = TraceReport::new(&[a, b]);
        assert!((rep.phase_sum(Phase::Io) - 4.0).abs() < 1e-15);
        assert!((rep.phase_max(Phase::Io) - 3.0).abs() < 1e-15);
        assert!((rep.imbalance(Phase::Io) - 1.5).abs() < 1e-12);
        assert_eq!(rep.imbalance(Phase::Sync), 0.0);
        assert!(rep.render().contains("io"));
    }

    #[test]
    fn chrome_json_is_deterministic_and_sorted() {
        let mut tr0 = Tracer::new(0, true);
        tr0.record("late", Phase::Sync, 2.0, 3.0, 0, None);
        let mut tr1 = Tracer::new(1, true);
        let dep = tr1
            .record("early", Phase::Exchange, 0.5, 1.0, 64, None)
            .unwrap();
        tr1.record("mid", Phase::Io, 1.0, 2.0, 128, Some(dep));
        let traces = vec![tr0.finish(), tr1.finish()];
        let a = chrome_trace_json(&traces);
        let b = chrome_trace_json(&traces);
        assert_eq!(a, b);
        let early = a.find("early").unwrap();
        let mid = a.find("mid").unwrap();
        let late = a.find("late").unwrap();
        assert!(early < mid && mid < late, "events must be time-ordered");
        assert!(a.contains("\"dep\":4294967296"));
        assert!(a.contains("\"displayTimeUnit\":\"ms\""));
    }
}
