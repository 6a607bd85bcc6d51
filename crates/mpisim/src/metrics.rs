//! Workspace-wide metrics: named counters and fixed-bucket histograms.
//!
//! Two layers:
//!
//! * [`RankMetrics`] — per-rank observation state, owned by `Rank` next to
//!   `RankStats` and gated on `SimConfig::metrics`. Every observation site
//!   is a single branch on a plain bool, so the off state costs nothing
//!   (the same contract as `SimConfig::trace` and the chaos engine).
//!   Layers above `mpisim` (mpiio retries, tcio buffer hits) record into
//!   it directly through the public field on `Rank`.
//! * [`Registry`] — a post-run collection of canonically named counters
//!   and histograms, filled from the existing stats structs
//!   (`RankStats`, `FabricStatsSnapshot`, and the pfs snapshot via its
//!   own `export_metrics` impl). Exported as JSON; iteration order is
//!   `BTreeMap` order, so the export is deterministic.
//!
//! Canonical naming: `<layer>_<field>[_total]` in `snake_case` —
//! `mpisim_rank_crashes_total`, `pfs_transient_errors_total`,
//! `tcio_l1_hits_total`. Names are the only keys: there is no alias
//! table, so a lookup is one `BTreeMap` probe.

use crate::stats::RankStats;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Number of power-of-two histogram buckets (`u64` value range).
pub const HIST_BUCKETS: usize = 64;

/// Fixed-bucket histogram over `u64` values with power-of-two bucket
/// boundaries: bucket `i` counts values `v` with `floor(log2(max(v,1))) ==
/// i`, i.e. `v` in `[2^i, 2^(i+1))` (bucket 0 also takes `v == 0`).
/// Merging and export need no bucket negotiation — every histogram in the
/// workspace shares the same 64 buckets.
#[derive(Clone)]
pub struct Hist {
    buckets: [u64; HIST_BUCKETS],
    count: u64,
    sum: u64,
}

impl Default for Hist {
    fn default() -> Self {
        Hist {
            buckets: [0; HIST_BUCKETS],
            count: 0,
            sum: 0,
        }
    }
}

impl std::fmt::Debug for Hist {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Hist")
            .field("count", &self.count)
            .field("sum", &self.sum)
            .finish()
    }
}

impl Hist {
    /// Bucket index for a value: `floor(log2(max(v, 1)))`.
    pub fn bucket_index(v: u64) -> usize {
        (u64::BITS - 1 - (v | 1).leading_zeros()) as usize
    }

    /// Inclusive upper bound of bucket `i` (`2^(i+1) - 1`).
    pub fn bucket_bound(i: usize) -> u64 {
        if i + 1 >= 64 {
            u64::MAX
        } else {
            (1u64 << (i + 1)) - 1
        }
    }

    pub fn observe(&mut self, v: u64) {
        self.buckets[Self::bucket_index(v)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
    }

    pub fn count(&self) -> u64 {
        self.count
    }

    pub fn sum(&self) -> u64 {
        self.sum
    }

    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    pub fn merge(&mut self, other: &Hist) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets) {
            *a += b;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
    }

    /// Value at quantile `q` (0 ≤ q ≤ 1), resolved to the inclusive upper
    /// bound of the bucket holding the `⌈q·count⌉`-th smallest observation.
    /// Bucket resolution is a factor of 2, which is enough for the latency
    /// tables the benchmark harness reports (p50/p95/p99 across decades).
    /// Empty histograms report 0.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut cum = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            cum += c;
            if cum >= target {
                return Self::bucket_bound(i);
            }
        }
        Self::bucket_bound(HIST_BUCKETS - 1)
    }

    /// Median (see [`Hist::quantile`]).
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// 95th percentile (see [`Hist::quantile`]).
    pub fn p95(&self) -> u64 {
        self.quantile(0.95)
    }

    /// 99th percentile (see [`Hist::quantile`]).
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }

    /// Non-empty buckets as `(inclusive_upper_bound, count)`, ascending.
    pub fn nonzero_buckets(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (Self::bucket_bound(i), c))
    }
}

/// Per-rank metric observation state. All mutators are no-ops when the
/// registry is disabled (`SimConfig::metrics == false`). The timeline
/// cliff is not a rank's: it is the simulation's, in
/// [`SimReport::cliff`](crate::SimReport::cliff).
#[derive(Debug, Clone, Default)]
pub struct RankMetrics {
    enabled: bool,
    /// Payload sizes of every p2p send (`mpisim_msg_bytes`).
    pub msg_bytes: Hist,
    /// Attempts used per retried PFS operation (`mpiio_retry_attempts`);
    /// observed once per operation that needed more than one attempt.
    pub retry_attempts: Hist,
    /// TCIO level-1 buffer hits/misses on the write path (`tcio_l1_*`).
    pub l1_hits: u64,
    pub l1_misses: u64,
    /// TCIO level-2 (segment window) hits/misses on the read path.
    pub l2_hits: u64,
    pub l2_misses: u64,
}

impl RankMetrics {
    pub fn new(enabled: bool) -> RankMetrics {
        RankMetrics {
            enabled,
            ..Default::default()
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    pub fn observe_msg_bytes(&mut self, bytes: u64) {
        if self.enabled {
            self.msg_bytes.observe(bytes);
        }
    }

    pub fn observe_retry_attempts(&mut self, attempts: u64) {
        if self.enabled {
            self.retry_attempts.observe(attempts);
        }
    }

    pub fn hit_l1(&mut self) {
        if self.enabled {
            self.l1_hits += 1;
        }
    }

    pub fn miss_l1(&mut self) {
        if self.enabled {
            self.l1_misses += 1;
        }
    }

    pub fn hit_l2(&mut self) {
        if self.enabled {
            self.l2_hits += 1;
        }
    }

    pub fn miss_l2(&mut self) {
        if self.enabled {
            self.l2_misses += 1;
        }
    }

    /// Nothing was observed (true in particular whenever disabled).
    pub fn is_empty(&self) -> bool {
        self.msg_bytes.is_empty()
            && self.retry_attempts.is_empty()
            && self.l1_hits == 0
            && self.l1_misses == 0
            && self.l2_hits == 0
            && self.l2_misses == 0
    }

    pub fn merge(&mut self, other: &RankMetrics) {
        self.enabled |= other.enabled;
        self.msg_bytes.merge(&other.msg_bytes);
        self.retry_attempts.merge(&other.retry_attempts);
        self.l1_hits += other.l1_hits;
        self.l1_misses += other.l1_misses;
        self.l2_hits += other.l2_hits;
        self.l2_misses += other.l2_misses;
    }

    /// Export under canonical names.
    pub fn export(&self, reg: &mut Registry) {
        if !self.msg_bytes.is_empty() {
            reg.insert_hist("mpisim_msg_bytes", self.msg_bytes.clone());
        }
        if !self.retry_attempts.is_empty() {
            reg.insert_hist("mpiio_retry_attempts", self.retry_attempts.clone());
        }
        reg.add_counter("tcio_l1_hits_total", self.l1_hits);
        reg.add_counter("tcio_l1_misses_total", self.l1_misses);
        reg.add_counter("tcio_l2_hits_total", self.l2_hits);
        reg.add_counter("tcio_l2_misses_total", self.l2_misses);
    }
}

/// A deterministic collection of named counters and histograms.
#[derive(Debug, Clone, Default)]
pub struct Registry {
    counters: BTreeMap<String, u64>,
    hists: BTreeMap<String, Hist>,
}

impl Registry {
    pub fn new() -> Registry {
        Registry::default()
    }

    pub fn set_counter(&mut self, name: &str, value: u64) {
        self.counters.insert(name.to_string(), value);
    }

    pub fn add_counter(&mut self, name: &str, value: u64) {
        *self.counters.entry(name.to_string()).or_insert(0) += value;
    }

    pub fn insert_hist(&mut self, name: &str, hist: Hist) {
        match self.hists.entry(name.to_string()) {
            std::collections::btree_map::Entry::Occupied(mut e) => e.get_mut().merge(&hist),
            std::collections::btree_map::Entry::Vacant(e) => {
                e.insert(hist);
            }
        }
    }

    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters.get(name).copied()
    }

    pub fn hist(&self, name: &str) -> Option<&Hist> {
        self.hists.get(name)
    }

    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counters.iter().map(|(k, &v)| (k.as_str(), v))
    }

    pub fn hists(&self) -> impl Iterator<Item = (&str, &Hist)> {
        self.hists.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Export aggregated `mpisim` rank statistics under canonical names.
    pub fn export_rank_stats(&mut self, agg: &RankStats) {
        self.add_counter("mpisim_msgs_sent_total", agg.msgs_sent);
        self.add_counter("mpisim_bytes_sent_total", agg.bytes_sent);
        self.add_counter("mpisim_msgs_recvd_total", agg.msgs_recvd);
        self.add_counter("mpisim_bytes_recvd_total", agg.bytes_recvd);
        self.add_counter("mpisim_collectives_total", agg.collectives);
        self.add_counter("mpisim_rma_epochs_total", agg.rma_epochs);
        self.add_counter("mpisim_puts_total", agg.puts);
        self.add_counter("mpisim_put_bytes_total", agg.put_bytes);
        self.add_counter("mpisim_gets_total", agg.gets);
        self.add_counter("mpisim_get_bytes_total", agg.get_bytes);
        self.add_counter("mpisim_io_reads_total", agg.io_reads);
        self.add_counter("mpisim_io_read_bytes_total", agg.io_read_bytes);
        self.add_counter("mpisim_io_writes_total", agg.io_writes);
        self.add_counter("mpisim_io_write_bytes_total", agg.io_write_bytes);
        let peak = self.counters.get("mpisim_mem_peak_bytes").copied();
        self.set_counter("mpisim_mem_peak_bytes", peak.unwrap_or(0).max(agg.mem_peak));
        self.add_counter(
            "mpisim_collective_wait_ns_total",
            (agg.collective_wait.max(0.0) * 1e9) as u64,
        );
        self.add_counter(
            "mpisim_io_overlap_ns_total",
            (agg.io_overlap.max(0.0) * 1e9) as u64,
        );
        self.add_counter("mpisim_io_retries_total", agg.io_retries);
        self.add_counter("mpisim_chaos_stalls_total", agg.chaos_stalls);
        self.add_counter("mpisim_leader_fallbacks_total", agg.leader_fallbacks);
        self.add_counter("mpisim_rank_crashes_total", agg.rank_crashes);
        self.add_counter("mpisim_segments_recovered_total", agg.segments_recovered);
    }

    /// Export fabric-wide message counters.
    pub fn export_fabric(&mut self, snap: &crate::net::FabricStatsSnapshot) {
        self.add_counter("fabric_messages_total", snap.messages);
        self.add_counter("fabric_bytes_total", snap.bytes);
        self.add_counter("fabric_conn_misses_total", snap.conn_misses);
        self.add_counter("fabric_intra_messages_total", snap.intra_messages);
        self.add_counter("fabric_intra_bytes_total", snap.intra_bytes);
        self.add_counter("fabric_inter_messages_total", snap.inter_messages);
        self.add_counter("fabric_inter_bytes_total", snap.inter_bytes);
    }

    /// Export everything a finished simulation knows: aggregated rank
    /// stats, fabric counters, the merged per-rank histograms, and the
    /// timeline cliff of every resource the run booked (NIC ports, lock
    /// tokens, OSTs, client links, burst-buffer ports).
    pub fn export_sim_report<T>(&mut self, rep: &crate::runtime::SimReport<T>) {
        self.export_rank_stats(&rep.aggregate_stats());
        self.export_fabric(&rep.fabric);
        rep.metrics.export(self);
        // A cliff that never fired adds no keys: the export of a run too
        // short to prune is what it was before these counters existed.
        for (name, n) in [
            ("timeline_prunes_total", rep.cliff.prunes),
            ("timeline_clamped_total", rep.cliff.clamped),
        ] {
            if n > 0 {
                self.add_counter(name, n);
            }
        }
    }

    /// Deterministic JSON rendering:
    /// `{"counters":{...},"hists":{name:{"count":..,"sum":..,"buckets":[[le,n],..]}}}`.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"counters\":{");
        for (i, (k, v)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{k}\":{v}");
        }
        out.push_str("},\"hists\":{");
        for (i, (k, h)) in self.hists.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\"{k}\":{{\"count\":{},\"sum\":{},\"p50\":{},\"p95\":{},\"p99\":{},\"buckets\":[",
                h.count,
                h.sum,
                h.p50(),
                h.p95(),
                h.p99()
            );
            for (j, (le, n)) in h.nonzero_buckets().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                let _ = write!(out, "[{le},{n}]");
            }
            out.push_str("]}");
        }
        out.push_str("}}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hist_buckets_are_log2() {
        assert_eq!(Hist::bucket_index(0), 0);
        assert_eq!(Hist::bucket_index(1), 0);
        assert_eq!(Hist::bucket_index(2), 1);
        assert_eq!(Hist::bucket_index(3), 1);
        assert_eq!(Hist::bucket_index(4), 2);
        assert_eq!(Hist::bucket_index(1023), 9);
        assert_eq!(Hist::bucket_index(1024), 10);
        assert_eq!(Hist::bucket_index(u64::MAX), 63);
        assert_eq!(Hist::bucket_bound(0), 1);
        assert_eq!(Hist::bucket_bound(9), 1023);
        assert_eq!(Hist::bucket_bound(63), u64::MAX);
    }

    #[test]
    fn hist_observe_and_merge() {
        let mut a = Hist::default();
        a.observe(1);
        a.observe(100);
        a.observe(100);
        let mut b = Hist::default();
        b.observe(1_000_000);
        a.merge(&b);
        assert_eq!(a.count(), 4);
        assert_eq!(a.sum(), 1_000_201);
        let buckets: Vec<_> = a.nonzero_buckets().collect();
        assert_eq!(buckets, vec![(1, 1), (127, 2), (1048575, 1)]);
    }

    #[test]
    fn disabled_rank_metrics_observe_nothing() {
        let mut m = RankMetrics::new(false);
        m.observe_msg_bytes(4096);
        m.observe_retry_attempts(3);
        m.hit_l1();
        m.miss_l2();
        assert!(m.is_empty());
    }

    #[test]
    fn json_is_deterministic() {
        let mut reg = Registry::new();
        reg.set_counter("b_metric_total", 2);
        reg.set_counter("a_metric_total", 1);
        let mut h = Hist::default();
        h.observe(3);
        h.observe(700);
        reg.insert_hist("lat_ns", h);
        let j = reg.to_json();
        assert_eq!(j, reg.to_json());
        // BTreeMap ordering: a before b.
        assert!(j.find("a_metric_total").unwrap() < j.find("b_metric_total").unwrap());
        assert!(j.contains(
            "\"lat_ns\":{\"count\":2,\"sum\":703,\"p50\":3,\"p95\":1023,\"p99\":1023,\"buckets\":[[3,1],[1023,1]]}"
        ));
    }

    #[test]
    fn quantiles_walk_cumulative_buckets() {
        let mut h = Hist::default();
        assert_eq!(h.p50(), 0, "empty histogram reports 0");
        assert_eq!(h.p99(), 0);
        // 90 observations in [2,3], 9 in [1024,2047], 1 huge.
        for _ in 0..90 {
            h.observe(2);
        }
        for _ in 0..9 {
            h.observe(1500);
        }
        h.observe(1 << 30);
        assert_eq!(h.count(), 100);
        assert_eq!(h.p50(), 3, "median sits in the [2,3] bucket");
        assert_eq!(h.p95(), 2047, "p95 lands in the [1024,2047] bucket");
        assert_eq!(h.quantile(0.99), 2047, "rank 99 of 100 is the last 1500");
        assert_eq!(h.quantile(1.0), (1u64 << 31) - 1, "max bucket bound");
        assert_eq!(h.quantile(0.0), 3, "q=0 clamps to the first observation");
    }

    #[test]
    fn quantile_of_single_observation() {
        let mut h = Hist::default();
        h.observe(700);
        for q in [0.0, 0.5, 0.99, 1.0] {
            assert_eq!(h.quantile(q), 1023);
        }
    }

    #[test]
    fn rank_stats_export_uses_canonical_scheme() {
        let agg = RankStats {
            rank_crashes: 1,
            segments_recovered: 5,
            msgs_sent: 7,
            ..Default::default()
        };
        let mut reg = Registry::new();
        reg.export_rank_stats(&agg);
        assert_eq!(reg.counter("mpisim_rank_crashes_total"), Some(1));
        assert_eq!(reg.counter("mpisim_segments_recovered_total"), Some(5));
        assert_eq!(reg.counter("mpisim_msgs_sent_total"), Some(7));
    }
}
