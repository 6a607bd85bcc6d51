//! # pfs — a simulated Lustre-like parallel file system
//!
//! Stands in for the Lustre deployment of the paper's testbed (Lonestar:
//! 30 OSTs, 1 MB stripes). Files hold **real bytes** in memory so that
//! everything written through MPI-IO or TCIO can be read back and verified;
//! *costs* are modeled in virtual time and returned to the caller, which
//! folds them into the simulated rank clocks.
//!
//! The cost model captures the storage-side effects the paper's evaluation
//! depends on:
//!
//! * **per-RPC overhead** — every `read_at`/`write_at` call costs a fixed
//!   request overhead plus a fixed OST service time per stripe-piece, which
//!   is what makes the vanilla-MPI-IO ART runs (thousands of tiny writes)
//!   up to ~100× slower than aggregated I/O (Fig. 9/10);
//! * **per-OST bandwidth with busy-until serialization** — aggregate
//!   bandwidth is capped by the OST set, producing the rise-then-dip
//!   strong-scaling curve of Fig. 9/10;
//! * **stripe-granularity extent locks** — conflicting writers to the same
//!   stripe pay lock-transfer costs (see [`locks`]), which is why TCIO
//!   aligns its level-2 segments with the stripe size (§IV.A).
//!
//! All mutable state of one file system — namespace, file bytes, OST and
//! client timelines, the lock table, the attached chaos/QoS/health layers —
//! is one plain `State` behind one mutex: every public method locks once
//! and works on `&mut State`. The event core runs one rank at a time, so
//! the lock is never contended; it is a real `Mutex` (not a single-runner
//! cell) because that is what keeps `Arc<Pfs>: Sync` sound without
//! `unsafe` on the OS-thread substrate.
//!
//! The crate is split along the same seams: `namespace` (create, open,
//! delete, truncate, stat), `data` (the entry every costed request passes,
//! and the bytes it lands or copies out), `cost` (RPC pieces, locks, OST
//! service, QoS pacing, health routing and hedging), `recovery` (scrub and
//! rebuild) and `stats`. This file holds the errors, the shared state,
//! construction, the attach points of the optional layers, and the
//! reports.

#![forbid(unsafe_code)]

pub mod config;
mod cost;
mod data;
pub mod health;
pub mod locks;
mod namespace;
pub mod qos;
mod recovery;
mod stats;

pub use config::PfsConfig;
pub use health::{Breaker, HealthConfig, HealthSnapshot, OstHealthRow, RebuildReport};
pub use locks::{LockManager, LockMode};
pub use qos::{Discipline, QosConfig, TenantUsage};
pub use recovery::ScrubReport;
pub use stats::{PfsStats, PfsStatsSnapshot};

use health::Health;
use mpisim::metrics::Hist;
use mpisim::timeline::Timeline;
use parking_lot::Mutex;
use qos::Qos;
use std::collections::HashMap;
use std::fmt;
use std::ops::Range;
use std::sync::Arc;

/// Identifies an open file.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FileId(u32);

/// Errors from file-system operations.
#[derive(Debug, Clone, PartialEq)]
pub enum PfsError {
    NotFound(String),
    AlreadyExists(String),
    InvalidFile(u32),
    ReadPastEof {
        offset: u64,
        len: u64,
        file_len: u64,
    },
    /// A write whose `[offset, offset + len)` does not fit the address
    /// range a file can have, or a truncate to such a length (`offset` 0).
    /// Refused before any byte is touched.
    OffsetOverflow {
        offset: u64,
        len: u64,
    },
    Config(String),
    /// An OST the access touches is in a (injected) transient outage.
    /// Retrying at or after `retry_after` virtual seconds can succeed; the
    /// upper layers turn this into bounded exponential backoff.
    Transient {
        ost: usize,
        retry_after: f64,
    },
    /// A stripe's stored bytes no longer match the checksum recorded when
    /// they were written: silent corruption, detected before a single
    /// wrong byte reaches the caller. Not transient — retrying re-reads
    /// the same bad bytes; recovery goes through [`Pfs::scrub`].
    ChecksumMismatch {
        stripe: u64,
        ost: usize,
    },
}

impl fmt::Display for PfsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PfsError::NotFound(p) => write!(f, "no such file: {p}"),
            PfsError::AlreadyExists(p) => write!(f, "file exists: {p}"),
            PfsError::InvalidFile(id) => write!(f, "invalid file id {id}"),
            PfsError::ReadPastEof {
                offset,
                len,
                file_len,
            } => write!(
                f,
                "read [{offset}, {}) past end of file ({file_len} bytes)",
                offset.saturating_add(*len)
            ),
            PfsError::OffsetOverflow { offset, len } => write!(
                f,
                "write of {len} bytes at offset {offset} exceeds the largest file offset"
            ),
            PfsError::Config(msg) => write!(f, "bad pfs config: {msg}"),
            PfsError::Transient { ost, retry_after } => write!(
                f,
                "transient failure on OST {ost}; retry after t={retry_after}"
            ),
            PfsError::ChecksumMismatch { stripe, ost } => write!(
                f,
                "checksum mismatch on stripe {stripe} (OST {ost}): stored bytes are corrupt"
            ),
        }
    }
}

impl std::error::Error for PfsError {}

/// A file-system failure leaving a rank body; it holds no `MpiError`.
impl From<PfsError> for mpisim::MpiError {
    fn from(e: PfsError) -> Self {
        mpisim::MpiError::Layer(mpisim::LayerError::new(e))
    }
}

pub type Result<T> = std::result::Result<T, PfsError>;

/// One file: its bytes plus the integrity metadata kept alongside them.
#[derive(Debug, Default)]
struct File {
    /// First OST of this file's round-robin stripe placement.
    ost_base: usize,
    bytes: Vec<u8>,
    /// Per-stripe checksum, recorded on every write that touches the
    /// stripe and verified on every read. See [`stripe_checksum`] for the
    /// zero-extension invariant that keeps file growth from invalidating
    /// stored sums.
    sums: HashMap<u64, u64>,
    /// Per-stripe replica of the last written content
    /// ([`PfsConfig::stripe_replicas`]); the repair source for
    /// [`Pfs::scrub`]. Independently corruptible from the primary copy.
    replicas: HashMap<u64, Vec<u8>>,
}

impl File {
    /// Where `stripe`'s bytes sit in [`File::bytes`]: empty when the file
    /// ends before the stripe starts.
    fn stripe_span(&self, stripe: u64, stripe_size: u64) -> Range<usize> {
        let hi = (((stripe + 1) * stripe_size) as usize).min(self.bytes.len());
        ((stripe * stripe_size) as usize).min(hi)..hi
    }

    /// Record `stripe`'s checksum over its stored bytes, and, with
    /// `replica`, a copy of them. Returns where those bytes sit.
    fn seal_stripe(&mut self, stripe: u64, stripe_size: u64, replica: bool) -> Range<usize> {
        let span = self.stripe_span(stripe, stripe_size);
        self.sums
            .insert(stripe, stripe_checksum(&self.bytes[span.clone()]));
        if replica {
            self.replicas
                .insert(stripe, self.bytes[span.clone()].to_vec());
        }
        span
    }
}

/// End of `[offset, offset + len)` as an index into a file's bytes; `None`
/// when the sum overflows or no buffer could be that long.
fn span_end(offset: u64, len: u64) -> Option<usize> {
    let end = offset.checked_add(len)?;
    usize::try_from(end)
        .ok()
        .filter(|&end| end <= isize::MAX as usize)
}

/// FNV-1a over the stripe's content with trailing zeros stripped. The
/// stripping gives the *zero-extension invariant*: growing the file (which
/// zero-fills earlier stripes' tails) or reading a hole never changes a
/// stripe's checksum, so sums only need recomputing on actual writes.
fn stripe_checksum(slice: &[u8]) -> u64 {
    let trimmed = match slice.iter().rposition(|&b| b != 0) {
        Some(i) => &slice[..=i],
        None => &[],
    };
    let mut h = 0xcbf29ce484222325u64;
    for &b in trimmed {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// The simulated file system. One instance is shared (via `Arc`) by all
/// simulated ranks; `client` arguments identify the accessing rank so the
/// model can serialize per-client links and attribute lock ownership.
pub struct Pfs {
    cfg: PfsConfig,
    state: Mutex<State>,
    pub stats: PfsStats,
}

fn assert_send_sync<T: Send + Sync>() {}
/// `Arc<Pfs>` crosses OS threads on the thread substrate; that must follow
/// from the fields (one real lock), never from an `unsafe impl`.
const _: fn() = assert_send_sync::<Pfs>;

/// Everything about a [`Pfs`] that changes after construction.
struct State {
    namespace: HashMap<String, FileId>,
    /// Indexed by `FileId`; a deleted file keeps its (emptied) slot so ids
    /// stay stable.
    files: Vec<File>,
    osts: Vec<Ost>,
    /// Per-client link timelines.
    clients: Vec<Timeline>,
    locks: LockManager,
    next_ost_base: usize,
    /// Fault-injection engine (outages, slow OSTs, lock storms, overhead
    /// brownouts). `None` = healthy storage.
    chaos: Option<Arc<chaos::ChaosEngine>>,
    /// Multi-tenant QoS layer (admission, gateway batching, OST queue
    /// discipline). `None` = single-tenant direct path: the cost-model
    /// arithmetic is bit-identical with and without the hooks.
    qos: Option<Qos>,
    /// Gray-failure defense layer (EWMA health tracking, per-OST circuit
    /// breakers, degraded-mode relocation, hedged reads). `None` = no
    /// tracking — and even when attached, a healthy cluster's cost
    /// arithmetic is bit-identical because every observed service ratio is
    /// exactly 1.0 and no breaker can open.
    health: Option<Health>,
    /// Per-RPC service-latency histogram (ns of virtual time); `None`
    /// until [`Pfs::enable_latency_metrics`].
    latency: Option<Hist>,
    /// The simulation ([`mpisim::simulation`]) whose clocks the time state
    /// above is on: the OST and client timelines, the QoS buckets and the
    /// health windows.
    simulation: Option<u64>,
}

/// One object storage target.
#[derive(Debug)]
struct Ost {
    busy: Timeline,
    /// Service-time multiplier (1.0 = healthy). Degraded OSTs are the
    /// classic production-Lustre failure mode: one slow server drags every
    /// striped file. Set through [`Pfs::set_ost_slowdown`] by the
    /// failure-injection tests and the straggler experiments.
    slowdown: f64,
    /// Service accounting surfaced through [`Pfs::ost_report`].
    metrics: OstMetrics,
}

/// Accumulated service metrics of one OST (virtual time).
#[derive(Debug, Clone, Copy, Default)]
struct OstMetrics {
    requests: u64,
    bytes_read: u64,
    bytes_written: u64,
    busy: f64,
    queue_wait: f64,
    lock_transfers: u64,
}

impl State {
    fn file(&self, id: FileId) -> Result<&File> {
        self.files
            .get(id.0 as usize)
            .ok_or(PfsError::InvalidFile(id.0))
    }

    /// Called by every request that books time. Each simulation starts
    /// its clocks at 0, so the time state belongs to one simulation: the
    /// first booking from a new one finds the timelines empty, the QoS
    /// buckets full and the health windows clear (a restart does not queue
    /// behind the dump that wrote its file). File bytes, the namespace,
    /// lock ownership and health's relocation map persist. A call made
    /// outside every simulation books on the state as it is.
    fn enter_simulation(&mut self) {
        let sim = mpisim::simulation();
        if sim.is_none() || sim == self.simulation {
            return;
        }
        self.simulation = sim;
        for timeline in self
            .osts
            .iter_mut()
            .map(|o| &mut o.busy)
            .chain(&mut self.clients)
        {
            timeline.clear();
        }
        if let Some(q) = &mut self.qos {
            q.restart();
        }
        if let Some(h) = &mut self.health {
            h.restart();
        }
    }
}

impl Pfs {
    /// Create a file system serving `nclients` simulated clients.
    pub fn new(nclients: usize, cfg: PfsConfig) -> Result<Arc<Pfs>> {
        cfg.validate().map_err(PfsError::Config)?;
        let state = State {
            namespace: HashMap::new(),
            files: Vec::new(),
            osts: (0..cfg.num_osts)
                .map(|_| Ost {
                    busy: Timeline::new(),
                    slowdown: 1.0,
                    metrics: OstMetrics::default(),
                })
                .collect(),
            clients: (0..nclients).map(|_| Timeline::new()).collect(),
            locks: LockManager::new(),
            next_ost_base: 0,
            chaos: None,
            qos: None,
            health: None,
            latency: None,
            simulation: None,
        };
        Ok(Arc::new(Pfs {
            cfg,
            state: Mutex::new(state),
            stats: PfsStats::default(),
        }))
    }

    /// Attach a fault-injection engine. Rejects plans naming OSTs this file
    /// system does not have with a typed config error at attach time, so
    /// the cost model never indexes an OST that does not exist.
    pub fn attach_chaos(&self, engine: Arc<chaos::ChaosEngine>) -> Result<()> {
        if let Some(max) = engine.max_ost() {
            if max >= self.cfg.num_osts {
                return Err(PfsError::Config(format!(
                    "fault plan names OST {max}, but only {} OSTs exist",
                    self.cfg.num_osts
                )));
            }
        }
        self.state.lock().chaos = Some(engine);
        Ok(())
    }

    /// Attach a multi-tenant QoS layer: `tenant_of_client[c]` tags client
    /// `c`'s requests with its tenant; `cfg` sets admission caps, gateway
    /// batching, and the OST queue discipline. Clients beyond the map
    /// (e.g. internal drain agents) bill to tenant 0. Without this call
    /// every QoS hook in the cost model is a `None` check and the
    /// virtual-time arithmetic is exactly the single-tenant code path.
    pub fn enable_qos(&self, cfg: qos::QosConfig, tenant_of_client: Vec<u32>) -> Result<()> {
        let q = Qos::new(cfg, tenant_of_client, self.cfg.num_osts).map_err(PfsError::Config)?;
        self.state.lock().qos = Some(q);
        Ok(())
    }

    /// Attach the gray-failure defense layer: per-OST EWMA health
    /// tracking, three-state circuit breakers, degraded-mode write
    /// relocation, and (for callers that opt in via
    /// [`Pfs::read_at_hedged`]) adaptive hedged reads. Without this call
    /// every health hook in the cost model is a `None` check.
    pub fn enable_health(&self, cfg: health::HealthConfig) -> Result<()> {
        let h = Health::new(cfg, self.cfg.num_osts).map_err(PfsError::Config)?;
        self.state.lock().health = Some(h);
        Ok(())
    }

    /// Health counters + per-OST breaker rows; `None` when no health
    /// layer is attached.
    pub fn health_report(&self) -> Option<health::HealthSnapshot> {
        self.state.lock().health.as_ref().map(Health::snapshot)
    }

    /// Restore `client`'s hedge allowance for a new collective; see
    /// `Health::scope_begin`. No-op without a health layer.
    pub fn hedge_scope_begin(&self, client: usize) {
        if let Some(h) = &mut self.state.lock().health {
            h.scope_begin(client);
        }
    }

    /// Per-tenant usage/intervention rows, ascending tenant order. Empty
    /// when no QoS layer is attached.
    pub fn tenant_report(&self) -> Vec<qos::TenantUsage> {
        self.state
            .lock()
            .qos
            .as_ref()
            .map(Qos::usage)
            .unwrap_or_default()
    }

    pub fn config(&self) -> &PfsConfig {
        &self.cfg
    }

    /// Current contents of the per-RPC latency histogram (empty unless
    /// [`Pfs::enable_latency_metrics`] was called): the percentile source
    /// for the resilience benches.
    pub fn latency_snapshot(&self) -> Hist {
        self.state.lock().latency.clone().unwrap_or_default()
    }

    /// Turn on the per-RPC service-latency histogram (log2 buckets over
    /// nanoseconds of virtual time). Off by default.
    pub fn enable_latency_metrics(&self) {
        self.state.lock().latency.get_or_insert_with(Hist::default);
    }

    /// Export this file system's counters (and the latency histogram when
    /// enabled and non-empty) into a metrics registry. The prune-and-clamp
    /// cliff of its OST and client-link timelines is the simulation's that
    /// booked them, exported with its report
    /// ([`Registry::export_sim_report`](mpisim::Registry::export_sim_report)).
    pub fn export_metrics(&self, reg: &mut mpisim::metrics::Registry) {
        self.stats.snapshot().export_metrics(reg);
        let lat = self.latency_snapshot();
        if !lat.is_empty() {
            reg.insert_hist("pfs_request_latency_ns", lat);
        }
        // Per-tenant attribution, only when a QoS layer is attached.
        for u in self.tenant_report() {
            let p = format!("pfs_tenant{}", u.tenant);
            reg.add_counter(&format!("{p}_read_rpcs_total"), u.read_rpcs);
            reg.add_counter(&format!("{p}_write_rpcs_total"), u.write_rpcs);
            reg.add_counter(&format!("{p}_bytes_read_total"), u.bytes_read);
            reg.add_counter(&format!("{p}_bytes_written_total"), u.bytes_written);
            reg.add_counter(&format!("{p}_batched_rpcs_total"), u.batched_rpcs);
            reg.add_counter(
                &format!("{p}_throttle_wait_ns_total"),
                (u.throttle_wait.max(0.0) * 1e9) as u64,
            );
            reg.add_counter(
                &format!("{p}_fair_delay_ns_total"),
                (u.fair_delay.max(0.0) * 1e9) as u64,
            );
        }
        // Gray-failure defense counters, only when a health layer is
        // attached — no health, no keys, so metrics exports stay
        // bit-identical for unconfigured runs.
        if let Some(s) = self.health_report() {
            reg.add_counter("pfs_hedges_issued_total", s.hedges_issued);
            reg.add_counter("pfs_hedge_wins_total", s.hedge_wins);
            reg.add_counter("pfs_hedge_waste_total", s.hedge_waste);
            reg.add_counter("pfs_breaker_opens_total", s.breaker_opens);
            reg.add_counter("pfs_breaker_probes_total", s.probes);
            reg.add_counter("pfs_degraded_writes_total", s.degraded_writes);
            reg.add_counter("pfs_degraded_bytes_total", s.degraded_bytes);
            reg.add_counter("pfs_rebuilt_extents_total", s.rebuilt_extents);
            reg.add_counter("pfs_rebuilt_bytes_total", s.rebuilt_bytes);
            reg.add_counter("pfs_relocated_live", s.relocated_live);
        }
    }

    /// Per-OST service histogram for the observability layer: requests,
    /// bytes, accumulated busy time, queue wait, and lock transfers, one
    /// row per OST in index order.
    pub fn ost_report(&self) -> Vec<mpisim::trace::OstRow> {
        let st = self.state.lock();
        st.osts
            .iter()
            .enumerate()
            .map(|(ost, o)| mpisim::trace::OstRow {
                ost,
                requests: o.metrics.requests,
                bytes_read: o.metrics.bytes_read,
                bytes_written: o.metrics.bytes_written,
                busy: o.metrics.busy,
                queue_wait: o.metrics.queue_wait,
                lock_transfers: o.metrics.lock_transfers,
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ost_report_accounts_requests_and_bytes() {
        let p = Pfs::new(2, PfsConfig::default()).unwrap();
        let id = p.create("/f").unwrap();
        let data = vec![5u8; 4096];
        let t = p.write_at(id, 0, 0, &data, 0.0).unwrap();
        let mut buf = vec![0u8; 1024];
        p.read_at(id, 1, 0, &mut buf, t).unwrap();
        let rows = p.ost_report();
        assert_eq!(rows.len(), p.config().num_osts);
        for (i, r) in rows.iter().enumerate() {
            assert_eq!(r.ost, i);
        }
        let written: u64 = rows.iter().map(|r| r.bytes_written).sum();
        let read: u64 = rows.iter().map(|r| r.bytes_read).sum();
        assert_eq!(written, 4096, "every written byte lands on some OST");
        assert_eq!(read, 1024);
        assert_eq!(written, p.stats.snapshot().bytes_written);
        let reqs: u64 = rows.iter().map(|r| r.requests).sum();
        let snap = p.stats.snapshot();
        assert_eq!(reqs, snap.read_rpcs + snap.write_rpcs);
        assert!(rows.iter().map(|r| r.busy).sum::<f64>() > 0.0);
    }

    /// Time state belongs to one simulation: the same request in a second
    /// simulation finds empty timelines and a full token bucket, while a
    /// call outside every simulation books on what is there. Bytes stay.
    #[test]
    fn each_simulation_starts_the_clocks_afresh_and_keeps_the_bytes() {
        let p = Pfs::new(1, PfsConfig::default()).unwrap();
        let qos = QosConfig {
            token_buckets: vec![Some((1.0e6, 4096.0))],
            ..QosConfig::default()
        };
        p.enable_qos(qos, vec![0]).unwrap();
        let id = p.create("/f").unwrap();
        let write = |byte: u8| p.write_at(id, 0, 0, &[byte; 8192], 0.0).unwrap();
        let in_a_simulation = |byte: u8| {
            let rep = mpisim::run(1, mpisim::SimConfig::default(), |_| Ok(write(byte)));
            rep.unwrap().results[0]
        };
        let first = in_a_simulation(1);
        let outside = write(2);
        assert!(
            outside > first,
            "outside a simulation: queued, {outside} vs {first}"
        );
        assert_eq!(in_a_simulation(3).to_bits(), first.to_bits());
        assert_eq!(in_a_simulation(4).to_bits(), first.to_bits());
        assert_eq!(p.snapshot_file(id).unwrap(), vec![4u8; 8192]);
        assert_eq!(p.stats.snapshot().bytes_written, 4 * 8192);
    }

    #[test]
    fn attach_chaos_validates_ost_indices() {
        let cfg = PfsConfig {
            num_osts: 2,
            stripe_count: 2,
            ..Default::default()
        };
        let p = Pfs::new(1, cfg).unwrap();
        let bad = chaos::FaultPlan::new(1)
            .with(chaos::Effect::OstOutage { ost: 7 }.during(0.0, 1.0))
            .build()
            .unwrap();
        assert!(matches!(p.attach_chaos(bad), Err(PfsError::Config(_))));
        assert!(
            p.state.lock().chaos.is_none(),
            "failed attach leaves no engine"
        );
        let ok = chaos::FaultPlan::new(1)
            .with(chaos::Effect::OstOutage { ost: 1 }.during(0.0, 1.0))
            .build()
            .unwrap();
        p.attach_chaos(ok).unwrap();
        assert!(p.state.lock().chaos.is_some());
    }

    #[test]
    fn tenant_report_attributes_bytes_per_tenant() {
        let cfg = PfsConfig {
            num_osts: 1,
            stripe_count: 1,
            ..Default::default()
        };
        let p = Pfs::new(4, cfg).unwrap();
        p.enable_qos(QosConfig::default(), vec![0, 0, 1, 1])
            .unwrap();
        let id = p.create("/f").unwrap();
        p.write_at(id, 0, 0, &[1u8; 1000], 0.0).unwrap();
        p.write_at(id, 3, 1000, &[2u8; 500], 0.0).unwrap();
        let mut buf = vec![0u8; 200];
        p.read_at(id, 2, 0, &mut buf, 1.0).unwrap();
        let rep = p.tenant_report();
        assert_eq!(rep.len(), 2);
        assert_eq!(rep[0].bytes_written, 1000);
        assert_eq!(rep[1].bytes_written, 500);
        assert_eq!(rep[1].bytes_read, 200);
        assert_eq!(rep[0].bytes_read, 0);
        // Conservation against the global counters.
        let snap = p.stats.snapshot();
        assert_eq!(
            rep[0].bytes_written + rep[1].bytes_written,
            snap.bytes_written
        );
        // And the registry carries per-tenant rows.
        let mut reg = mpisim::metrics::Registry::new();
        p.export_metrics(&mut reg);
        assert_eq!(reg.counter("pfs_tenant1_bytes_written_total"), Some(500));
    }
}
