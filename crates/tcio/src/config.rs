//! TCIO configuration.
//!
//! Per §IV.B: "To use TCIO, a user needs to specify the segment size and
//! the number of segments per process." The remaining knobs are the
//! ablation switches described in `DESIGN.md` — each one disables one of
//! the design decisions of §IV.A so the benches can measure its
//! contribution.

/// How flushed level-1 data reaches remote level-2 segments.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SyncMode {
    /// Passive-target `MPI_Win_lock`/`MPI_Win_unlock` epochs — the paper's
    /// choice, because it lets every process perform its I/O accesses
    /// independently.
    LockUnlock,
    /// `MPI_Win_fence` — the "simplest approach" §IV.A rejects: it is a
    /// collective, so it is only legal when all ranks flush in lockstep
    /// (true for the symmetric synthetic benchmark at stripe-sized
    /// segments, false for ART). A rank that flushes out of step with its
    /// peers gets a `TcioError::Usage`. Kept for the ablation bench.
    Fence,
}

/// How read data is materialized.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReadMode {
    /// Lazy loading (§IV.A): `read`/`read_at` only record the request;
    /// data moves at `fetch` time (or when the read window departs),
    /// coalesced into gathered one-sided gets.
    Lazy,
    /// Eager: every read call fetches immediately (ablation).
    Eager,
}

/// TCIO tuning parameters.
#[derive(Debug, Clone)]
pub struct TcioConfig {
    /// Level-2 segment size in bytes. §IV.A sets this to the lock
    /// granularity (stripe size) of the underlying file system; the
    /// `ablation_segment_size` bench sweeps it.
    pub segment_size: u64,
    /// Segments per process; `segment_size × num_segments × nprocs` bounds
    /// the file size an open handle can address.
    pub num_segments: usize,
    /// Combine small writes in a level-1 buffer and ship one gathered
    /// message per window (`true`, the paper) or put every block
    /// individually (`false`, ablation of the `MPI_Type_indexed` trick).
    pub use_l1: bool,
    /// One-sided synchronization flavour.
    pub sync: SyncMode,
    /// Read materialization strategy.
    pub read_mode: ReadMode,
}

impl Default for TcioConfig {
    fn default() -> Self {
        TcioConfig {
            segment_size: 1 << 20, // the testbed's 1 MB stripe size
            num_segments: 64,
            use_l1: true,
            sync: SyncMode::LockUnlock,
            read_mode: ReadMode::Lazy,
        }
    }
}

impl TcioConfig {
    /// Size `num_segments` so a file of `file_size` bytes fits when opened
    /// across `nprocs` processes.
    pub fn for_file_size(file_size: u64, nprocs: usize) -> TcioConfig {
        let mut cfg = TcioConfig::default();
        cfg.num_segments = crate::segment::SegmentMap::new(cfg.segment_size, nprocs)
            .segments_for(file_size)
            .max(1);
        cfg
    }

    /// Same, with an explicit segment size.
    pub fn for_file_size_with_segment(
        file_size: u64,
        nprocs: usize,
        segment_size: u64,
    ) -> TcioConfig {
        TcioConfig {
            segment_size,
            num_segments: crate::segment::SegmentMap::new(segment_size, nprocs)
                .segments_for(file_size)
                .max(1),
            ..TcioConfig::default()
        }
    }

    /// Bytes of level-2 buffer this configuration allocates per process.
    pub fn l2_bytes(&self) -> u64 {
        self.segment_size * self.num_segments as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_testbed_stripe() {
        let c = TcioConfig::default();
        assert_eq!(c.segment_size, 1 << 20);
        assert_eq!(c.sync, SyncMode::LockUnlock);
        assert_eq!(c.read_mode, ReadMode::Lazy);
        assert!(c.use_l1);
    }

    #[test]
    fn for_file_size_covers_the_file() {
        let c = TcioConfig::for_file_size(10 << 20, 4);
        assert!(c.l2_bytes() * 4 >= 10 << 20);
        // And is not wildly oversized (at most one extra segment per rank).
        assert!(c.l2_bytes() * 4 <= (10u64 << 20) + 4 * c.segment_size);
    }

    #[test]
    fn empty_file_still_gets_one_segment() {
        let c = TcioConfig::for_file_size(0, 4);
        assert_eq!(c.num_segments, 1);
    }

    #[test]
    fn custom_segment_size() {
        let c = TcioConfig::for_file_size_with_segment(1000, 2, 100);
        assert_eq!(c.segment_size, 100);
        assert_eq!(c.num_segments, 5);
    }
}
