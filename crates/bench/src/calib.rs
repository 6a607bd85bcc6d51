//! Calibration: the cost-model constants used for every figure, and the
//! byte-scale transform that lets Lonestar-sized experiments run on a
//! laptop.
//!
//! ## The byte-scale trick
//!
//! The paper's experiments move up to 48 GB through 64–1024 processes. We
//! cannot hold that in memory, but we *can* preserve every structural
//! quantity — number of blocks, windows, flushes, messages, RPCs, lock
//! acquisitions — by dividing all **sizes** (array lengths, segment size,
//! stripe size, RPC ceiling, memory budget) by a factor `k` while
//! multiplying all **per-byte costs** (link β, memcpy, OST bandwidth,
//! client link) by the same `k`. Every bandwidth term then charges
//! `real_bytes × kβ = virtual_bytes × β`, identical to the unscaled run,
//! and every fixed per-operation overhead is hit exactly as often. Reported
//! throughput divides *virtual* bytes by virtual time.
//!
//! The ART experiments (Figs. 9/10) cannot use the trick — their record
//! sizes come from generated tree shapes — so they run unscaled with a
//! reduced cell count instead (see `fig9_10_art`).

use mpisim::{NetConfig, SimConfig};
use pfs::PfsConfig;

/// The calibration used throughout EXPERIMENTS.md.
#[derive(Debug, Clone)]
pub struct Calib {
    /// The size divisor `k` (1 = unscaled).
    pub scale_inv: u64,
    pub net: NetConfig,
    pub pfs: PfsConfig,
    /// TCIO level-2 segment size (the scaled 1 MB stripe).
    pub segment_size: u64,
    /// Per-process memory budget in *virtual* bytes (Lonestar: 24 GB/node
    /// ÷ 12 cores = 2 GB per process).
    pub mem_budget_virtual: u64,
}

/// Lonestar-like virtual memory budget per process.
pub const LONESTAR_MEM_PER_PROC: u64 = 2 << 30;

impl Calib {
    /// The paper's testbed constants, scaled by `1/scale_inv`.
    ///
    /// Calibration targets (production Lonestar, shared with other jobs):
    /// aggregate write bandwidth saturating around ~1.2 GB/s and reads
    /// around ~7 GB/s (the ceilings of Figs. 5–7), and passive-target RMA
    /// epochs costing tens of microseconds (MVAPICH-era lock/unlock).
    pub fn paper(scale_inv: u64) -> Calib {
        assert!(scale_inv >= 1);
        let k = scale_inv as f64;
        let mut net = NetConfig::default();
        net.byte_time *= k;
        net.intra_byte_time *= k;
        net.memcpy_byte_time *= k;
        // The gathered-message header is metadata *bytes*, so it scales
        // with the data (otherwise header cost would inflate k-fold).
        net.gather_header_bytes = ((net.gather_header_bytes as u64).div_ceil(scale_inv)) as usize;
        net.rma_lock_cost = 25.0e-6;
        net.match_overhead = 30.0e-6;
        net.api_call_overhead = 2.0e-6;
        let mut fs = PfsConfig::default();
        fs.stripe_size = (fs.stripe_size / scale_inv).max(1);
        fs.max_rpc = (fs.max_rpc / scale_inv).max(1);
        fs.ost_write_bw = 40.0e6 / k;
        fs.ost_read_bw = 80.0e6 / k;
        fs.ost_service = 100.0e-6;
        fs.client_byte_time *= k;
        Calib {
            scale_inv,
            segment_size: fs.stripe_size,
            net,
            pfs: fs,
            mem_budget_virtual: LONESTAR_MEM_PER_PROC,
        }
    }

    /// Unscaled calibration (used by the ART experiments).
    pub fn unscaled() -> Calib {
        Calib::paper(1)
    }

    /// The per-process memory budget in real (scaled) bytes.
    pub fn mem_budget(&self) -> u64 {
        self.mem_budget_virtual / self.scale_inv
    }

    /// Simulation config on the calibrated network, without memory
    /// enforcement.
    pub fn sim_config_unbudgeted(&self) -> SimConfig {
        SimConfig {
            net: self.net.clone(),
            ..Default::default()
        }
    }

    /// Convert a real (scaled) byte count back to paper-equivalent bytes.
    pub fn virtual_bytes(&self, real: u64) -> u64 {
        real * self.scale_inv
    }

    /// Paper-equivalent MB/s from real bytes over virtual seconds.
    pub fn throughput_mbs(&self, real_bytes: u64, seconds: f64) -> f64 {
        if seconds <= 0.0 {
            return 0.0;
        }
        self.virtual_bytes(real_bytes) as f64 / 1.0e6 / seconds
    }
}

/// Format a byte count the way the paper labels its x-axes (768MB, 48GB…).
pub fn fmt_bytes(b: u64) -> String {
    const KB: u64 = 1 << 10;
    const MB: u64 = 1 << 20;
    const GB: u64 = 1 << 30;
    if b >= GB && b.is_multiple_of(GB) {
        format!("{}GB", b / GB)
    } else if b >= MB {
        format!("{}MB", b / MB)
    } else if b >= KB {
        format!("{}KB", b / KB)
    } else {
        format!("{b}B")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaling_preserves_bandwidth_terms() {
        let base = Calib::paper(1);
        let scaled = Calib::paper(256);
        // A transfer of N virtual bytes costs the same in both calibrations:
        // N·β == (N/256)·(256β).
        let n_virtual = 1u64 << 20;
        let unscaled_cost = n_virtual as f64 * base.net.byte_time;
        let scaled_cost = (n_virtual / 256) as f64 * scaled.net.byte_time;
        assert!((unscaled_cost - scaled_cost).abs() < 1e-12);
        // Same for OST service of one stripe.
        let t1 = base.pfs.stripe_size as f64 / base.pfs.ost_write_bw;
        let t2 = scaled.pfs.stripe_size as f64 / scaled.pfs.ost_write_bw;
        assert!((t1 - t2).abs() / t1 < 1e-9);
    }

    #[test]
    fn scaled_sizes_divide() {
        let c = Calib::paper(256);
        assert_eq!(c.pfs.stripe_size, (1 << 20) / 256);
        assert_eq!(c.segment_size, c.pfs.stripe_size);
        assert_eq!(c.mem_budget(), (2 << 30) / 256);
    }

    #[test]
    fn throughput_reports_virtual_bytes() {
        let c = Calib::paper(4);
        // 1 real MB in 1 s = 4 virtual MB/s.
        let t = c.throughput_mbs(1_000_000, 1.0);
        assert!((t - 4.0).abs() < 1e-9);
    }

    #[test]
    fn fmt_bytes_matches_paper_labels() {
        assert_eq!(fmt_bytes(768 << 20), "768MB");
        assert_eq!(fmt_bytes(48 << 30), "48GB");
        assert_eq!(fmt_bytes(3 << 30), "3GB");
        assert_eq!(fmt_bytes(512), "512B");
        assert_eq!(fmt_bytes(4 << 10), "4KB");
    }
}
