//! The file system's monotonic counters and their registry export.

use std::sync::atomic::{AtomicU64, Ordering};

/// Monotonic system-wide counters.
#[derive(Debug, Default)]
pub struct PfsStats {
    pub read_rpcs: AtomicU64,
    pub write_rpcs: AtomicU64,
    pub bytes_read: AtomicU64,
    pub bytes_written: AtomicU64,
    pub lock_transfers: AtomicU64,
    /// Accesses rejected with [`PfsError::Transient`](crate::PfsError::Transient)
    /// (OST outages).
    pub transient_errors: AtomicU64,
    /// Reads rejected with
    /// [`PfsError::ChecksumMismatch`](crate::PfsError::ChecksumMismatch).
    pub checksum_failures: AtomicU64,
    /// Corrupt stripes restored from their replica by
    /// [`Pfs::scrub`](crate::Pfs::scrub).
    pub scrub_repairs: AtomicU64,
    /// Silent corruptions injected by the fault plan (ground truth the
    /// detection counters are judged against).
    pub silent_corruptions: AtomicU64,
}

/// Snapshot of [`PfsStats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PfsStatsSnapshot {
    pub read_rpcs: u64,
    pub write_rpcs: u64,
    pub bytes_read: u64,
    pub bytes_written: u64,
    pub lock_transfers: u64,
    pub transient_errors: u64,
    pub checksum_failures: u64,
    pub scrub_repairs: u64,
    pub silent_corruptions: u64,
}

impl PfsStatsSnapshot {
    /// Export under the canonical `pfs_*` registry names.
    pub fn export_metrics(&self, reg: &mut mpisim::metrics::Registry) {
        reg.add_counter("pfs_read_rpcs_total", self.read_rpcs);
        reg.add_counter("pfs_write_rpcs_total", self.write_rpcs);
        reg.add_counter("pfs_bytes_read_total", self.bytes_read);
        reg.add_counter("pfs_bytes_written_total", self.bytes_written);
        reg.add_counter("pfs_lock_transfers_total", self.lock_transfers);
        reg.add_counter("pfs_transient_errors_total", self.transient_errors);
        reg.add_counter("pfs_checksum_failures_total", self.checksum_failures);
        reg.add_counter("pfs_scrub_repairs_total", self.scrub_repairs);
        reg.add_counter("pfs_silent_corruptions_total", self.silent_corruptions);
    }
}

impl PfsStats {
    pub fn snapshot(&self) -> PfsStatsSnapshot {
        PfsStatsSnapshot {
            read_rpcs: self.read_rpcs.load(Ordering::Relaxed),
            write_rpcs: self.write_rpcs.load(Ordering::Relaxed),
            bytes_read: self.bytes_read.load(Ordering::Relaxed),
            bytes_written: self.bytes_written.load(Ordering::Relaxed),
            lock_transfers: self.lock_transfers.load(Ordering::Relaxed),
            transient_errors: self.transient_errors.load(Ordering::Relaxed),
            checksum_failures: self.checksum_failures.load(Ordering::Relaxed),
            scrub_repairs: self.scrub_repairs.load(Ordering::Relaxed),
            silent_corruptions: self.silent_corruptions.load(Ordering::Relaxed),
        }
    }
}
