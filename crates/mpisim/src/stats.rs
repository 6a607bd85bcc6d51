//! Per-rank statistics counters.

/// Monotonic counters owned by a single rank thread (no synchronization
/// needed; the runtime collects them after join).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RankStats {
    pub msgs_sent: u64,
    pub bytes_sent: u64,
    pub msgs_recvd: u64,
    pub bytes_recvd: u64,
    pub collectives: u64,
    pub rma_epochs: u64,
    pub puts: u64,
    pub put_bytes: u64,
    pub gets: u64,
    pub get_bytes: u64,
    pub io_reads: u64,
    pub io_read_bytes: u64,
    pub io_writes: u64,
    pub io_write_bytes: u64,
    /// Peak simulated memory in use (bytes), including window allocations.
    pub mem_peak: u64,
    /// Virtual time spent blocked in collectives (arrival → release).
    pub collective_wait: f64,
    /// Virtual seconds of deferred (pipelined) I/O service that elapsed
    /// while this rank was doing other work — exchange rounds, barriers —
    /// instead of blocking on the completion. 0 for non-pipelined paths.
    pub io_overlap: f64,
    /// I/O operations retried after a transient fault (chaos injection).
    pub io_retries: u64,
    /// Injected rank-stall windows this rank actually hit.
    pub chaos_stalls: u64,
    /// Times this rank was elected node leader for request aggregation
    /// because the default (lowest) leader was stalled by a fault plan.
    pub leader_fallbacks: u64,
    /// Crash-stop faults this rank hit (0 or 1 — crashes are permanent).
    pub rank_crashes: u64,
    /// L2 segments this rank reconstructed from a buddy replica and
    /// drained on behalf of a crashed owner.
    pub segments_recovered: u64,
}

impl RankStats {
    /// Element-wise sum, used when aggregating a report.
    pub fn merge(&mut self, other: &RankStats) {
        self.msgs_sent += other.msgs_sent;
        self.bytes_sent += other.bytes_sent;
        self.msgs_recvd += other.msgs_recvd;
        self.bytes_recvd += other.bytes_recvd;
        self.collectives += other.collectives;
        self.rma_epochs += other.rma_epochs;
        self.puts += other.puts;
        self.put_bytes += other.put_bytes;
        self.gets += other.gets;
        self.get_bytes += other.get_bytes;
        self.io_reads += other.io_reads;
        self.io_read_bytes += other.io_read_bytes;
        self.io_writes += other.io_writes;
        self.io_write_bytes += other.io_write_bytes;
        self.mem_peak = self.mem_peak.max(other.mem_peak);
        self.collective_wait += other.collective_wait;
        self.io_overlap += other.io_overlap;
        self.io_retries += other.io_retries;
        self.chaos_stalls += other.chaos_stalls;
        self.leader_fallbacks += other.leader_fallbacks;
        self.rank_crashes += other.rank_crashes;
        self.segments_recovered += other.segments_recovered;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_sums_counters_and_maxes_peak() {
        let mut a = RankStats {
            msgs_sent: 1,
            bytes_sent: 10,
            mem_peak: 100,
            ..Default::default()
        };
        let b = RankStats {
            msgs_sent: 2,
            bytes_sent: 5,
            mem_peak: 50,
            io_writes: 3,
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.msgs_sent, 3);
        assert_eq!(a.bytes_sent, 15);
        assert_eq!(a.mem_peak, 100);
        assert_eq!(a.io_writes, 3);
    }
}
