//! The inputs that define the workloads and that the library does not
//! own: the cost-model calibration, the tenant table of `fleet_gray` and
//! its fault plan. They started as copies of `bench::Calib::paper`,
//! `bench::tenant::fleet` and `plans/flaky_ost.toml`; they live here so
//! that a change to `crates/bench` or `plans/` neither moves a workload nor
//! breaks the benchmark's build. `BENCHMARK.json` freezes this directory.

use facility::{Style, TenantSpec};
use mpisim::{NetConfig, SimConfig};
use pfs::PfsConfig;

/// The paper's testbed constants with every size divided by `scale_inv`
/// and every per-byte cost multiplied by it, so that a scaled run makes
/// the same number of blocks, messages, RPCs and lock acquisitions as the
/// paper-sized one and charges the same virtual time for them.
pub struct Calib {
    scale_inv: u64,
    pub net: NetConfig,
    pub pfs: PfsConfig,
}

impl Calib {
    pub fn paper(scale_inv: u64) -> Calib {
        let k = scale_inv as f64;
        let mut net = NetConfig::default();
        net.byte_time *= k;
        net.intra_byte_time *= k;
        net.memcpy_byte_time *= k;
        // The gathered-message header is metadata bytes: it scales with
        // the data.
        net.gather_header_bytes = (net.gather_header_bytes as u64).div_ceil(scale_inv) as usize;
        net.rma_lock_cost = 25.0e-6;
        net.noise_mean = 1.5e-3;
        net.match_overhead = 30.0e-6;
        net.api_call_overhead = 2.0e-6;
        let mut pfs = PfsConfig::default();
        pfs.stripe_size = (pfs.stripe_size / scale_inv).max(1);
        pfs.max_rpc = (pfs.max_rpc / scale_inv).max(1);
        pfs.ost_write_bw = 40.0e6 / k;
        pfs.ost_read_bw = 80.0e6 / k;
        pfs.ost_service = 100.0e-6;
        pfs.client_byte_time *= k;
        Calib {
            scale_inv,
            net,
            pfs,
        }
    }

    /// TCIO's level-2 segment: the scaled 1 MB stripe.
    pub fn segment_size(&self) -> u64 {
        self.pfs.stripe_size
    }

    /// No memory budget: the benchmark measures what a run allocates, it
    /// does not cap it.
    pub fn sim_config(&self) -> SimConfig {
        SimConfig {
            net: self.net.clone(),
            mem_budget: None,
            ..SimConfig::default()
        }
    }

    /// Paper-equivalent bytes of a scaled byte count.
    pub fn virtual_bytes(&self, real: u64) -> u64 {
        real * self.scale_inv
    }
}

/// The eight-tenant fleet (22 ranks): a burst-buffered checkpointer, a
/// small-request storm, a latency-sensitive interactive tenant, collective
/// analytics, a token-metered ingest feed, scratch, archive and viz. Each
/// tenant submits `jobs` jobs at an open-loop Poisson rate of `rate_hz`.
pub fn fleet(jobs: usize, rate_hz: f64) -> Vec<TenantSpec> {
    let tenant = |name: &str, ranks: usize, style: Style, bytes_per_rank: u64, access: u64| {
        let mut t = TenantSpec::new(name, ranks);
        t.style = style;
        t.bytes_per_rank = bytes_per_rank;
        t.access = access;
        t.jobs = jobs;
        t.arrival_rate = rate_hz;
        t
    };
    let mut ckpt = tenant("ckpt", 4, Style::Tcio, 1 << 20, 64 << 10);
    ckpt.weight = 2.0;
    ckpt.burst_buffer = true;
    let storm = tenant("storm", 4, Style::Independent, 512 << 10, 16 << 10);
    let mut interactive = tenant("interactive", 2, Style::Independent, 128 << 10, 16 << 10);
    interactive.weight = 2.0;
    interactive.read_back = true;
    let analytics = tenant("analytics", 4, Style::Ocio, 512 << 10, 64 << 10);
    let mut ingest = tenant("ingest", 2, Style::Tcio, 512 << 10, 64 << 10);
    ingest.token_bucket = Some((150.0e6, (1u64 << 20) as f64));
    let scratch = tenant("scratch", 2, Style::Independent, 256 << 10, 32 << 10);
    let archive = tenant("archive", 2, Style::Ocio, 1 << 20, 128 << 10);
    let mut viz = tenant("viz", 2, Style::Tcio, 256 << 10, 64 << 10);
    viz.read_back = true;
    vec![
        ckpt,
        storm,
        interactive,
        analytics,
        ingest,
        scratch,
        archive,
        viz,
    ]
}

/// Gray failure: OST 0 is flaky. For the first three virtual seconds it
/// spends 80 % of every 5 ms cycle serving 20 times slower. It never
/// fail-stops, so nothing retries and no crash detector fires; only the
/// health layer's latency tracking sees it. `fleet_gray` overrides the
/// seed.
pub const FLAKY_OST_PLAN: &str = r#"
seed = 23

[[fault]]
kind = "flaky_ost"
ost = 0
factor = 20.0
period = 0.005
duty = 0.8
from = 0.0
until = 3.0
"#;
