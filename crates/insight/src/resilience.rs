//! Gray-failure defense attribution: turn a [`pfs::HealthSnapshot`] into
//! the answers an operator asks after a degraded run — *did hedging pay
//! for itself?*, *how long were breakers open?*, *how many bytes are
//! still displaced?* — in the same render-a-table idiom as the
//! critical-path report.
//!
//! The critical path explains *where the time went*; this report explains
//! *what the defense layer did about it*. The two compose: a run whose
//! path is dominated by `ost_service` but whose hedge win rate is high
//! tells you the defenses are working at capacity, while the same path
//! with zero hedges issued means the deadline never armed (histograms too
//! cold, or the budget too tight).

use std::fmt::Write as _;

use pfs::HealthSnapshot;

/// Derived view over the raw health counters.
#[derive(Debug, Clone, PartialEq)]
pub struct ResilienceReport {
    /// The raw counters the report was derived from.
    pub snapshot: HealthSnapshot,
}

impl ResilienceReport {
    pub fn new(snapshot: HealthSnapshot) -> ResilienceReport {
        ResilienceReport { snapshot }
    }

    /// Fraction of issued hedges whose duplicate beat the primary.
    /// `None` when no hedge was ever issued (nothing to rate).
    pub fn hedge_win_rate(&self) -> Option<f64> {
        let s = &self.snapshot;
        if s.hedges_issued == 0 {
            None
        } else {
            Some(s.hedge_wins as f64 / s.hedges_issued as f64)
        }
    }

    /// Has every relocated extent been migrated back home?
    pub fn converged(&self) -> bool {
        self.snapshot.relocated_live == 0
    }

    /// Human-readable summary table.
    pub fn render(&self) -> String {
        let s = &self.snapshot;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "gray-failure defense: {} breaker opens, {} probes, {} hedges issued",
            s.breaker_opens, s.probes, s.hedges_issued
        );
        match self.hedge_win_rate() {
            Some(w) => {
                let _ = writeln!(
                    out,
                    "  hedges: {} wins / {} waste ({:.1}% win rate)",
                    s.hedge_wins,
                    s.hedge_waste,
                    w * 100.0
                );
            }
            None => {
                let _ = writeln!(out, "  hedges: none issued");
            }
        }
        let _ = writeln!(
            out,
            "  degraded writes: {} ({} bytes routed around open breakers)",
            s.degraded_writes, s.degraded_bytes
        );
        let _ = writeln!(
            out,
            "  rebuild: {} extents / {} bytes migrated home, {} still relocated{}",
            s.rebuilt_extents,
            s.rebuilt_bytes,
            s.relocated_live,
            if self.converged() { " (converged)" } else { "" }
        );
        let _ = writeln!(
            out,
            "{:<6} {:>10} {:>10} {:>8} {:>7} {:>7}",
            "ost", "state", "ewma", "samples", "opens", "errors"
        );
        for o in &s.osts {
            let _ = writeln!(
                out,
                "{:<6} {:>10} {:>10.3} {:>8} {:>7} {:>7}",
                o.ost,
                o.state.as_str(),
                o.ewma,
                o.samples,
                o.opens,
                o.errors
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pfs::{Breaker, OstHealthRow};

    fn snap() -> HealthSnapshot {
        HealthSnapshot {
            hedges_issued: 8,
            hedge_wins: 6,
            hedge_waste: 2,
            breaker_opens: 1,
            probes: 2,
            degraded_writes: 4,
            degraded_bytes: 4096,
            rebuilt_extents: 3,
            rebuilt_bytes: 3072,
            relocated_live: 1,
            osts: vec![
                OstHealthRow {
                    ost: 0,
                    state: Breaker::Open { until: 1.0 },
                    ewma: 9.5,
                    samples: 20,
                    opens: 1,
                    errors: 0,
                },
                OstHealthRow {
                    ost: 1,
                    state: Breaker::Closed,
                    ewma: 1.0,
                    samples: 20,
                    opens: 0,
                    errors: 0,
                },
            ],
        }
    }

    #[test]
    fn rates_and_convergence() {
        let r = ResilienceReport::new(snap());
        assert_eq!(r.hedge_win_rate(), Some(0.75));
        assert!(!r.converged());
        let done = ResilienceReport::new(HealthSnapshot {
            relocated_live: 0,
            ..snap()
        });
        assert!(done.converged());
    }

    #[test]
    fn empty_snapshot_has_no_rates() {
        let r = ResilienceReport::new(HealthSnapshot::default());
        assert_eq!(r.hedge_win_rate(), None);
        assert!(r.converged());
    }

    #[test]
    fn render_names_the_state_and_counters() {
        let text = ResilienceReport::new(snap()).render();
        assert!(text.contains("1 breaker opens"));
        assert!(text.contains("75.0% win rate"));
        assert!(text.contains("open"));
        assert!(text.contains("closed"));
        assert!(text.contains("1 still relocated"));
    }
}
