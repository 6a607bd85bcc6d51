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

#![forbid(unsafe_code)]

pub mod config;
pub mod health;
pub mod locks;
pub mod qos;

pub use config::PfsConfig;
pub use health::{Breaker, HealthConfig, HealthSnapshot, OstHealthRow, RebuildReport};
pub use locks::{LockManager, LockMode};
pub use qos::{Discipline, QosConfig, TenantUsage};

use health::Health;
use mpisim::metrics::Hist;
use mpisim::timeline::Timeline;
use parking_lot::Mutex;
use qos::Qos;
use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
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
    /// range a file can have. Refused before any byte is touched.
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

impl PfsError {
    /// Is this error worth retrying (after its backoff hint)?
    pub fn is_transient(&self) -> bool {
        matches!(self, PfsError::Transient { .. })
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

/// Deterministic per-(file, stripe, instant) site for the corruption
/// coin-flip: virtual time is deterministic, so the same run corrupts the
/// same stripes at the same writes every time.
fn corruption_site(file: u32, stripe: u64, now: f64) -> u64 {
    (file as u64)
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(stripe.rotate_left(17))
        ^ now.to_bits()
}

/// Salt distinguishing the replica copy's corruption coin-flip from the
/// primary's: the two copies fail independently.
const REPLICA_SALT: u64 = 0x5DEE_CE66_D1CE_5EED;
/// Salt for choosing *which* byte of a corrupted stripe flips.
const FLIP_SALT: u64 = 0x0B10_CF11_D0DD_BA11;

/// Monotonic system-wide counters.
#[derive(Debug, Default)]
pub struct PfsStats {
    pub read_rpcs: AtomicU64,
    pub write_rpcs: AtomicU64,
    pub bytes_read: AtomicU64,
    pub bytes_written: AtomicU64,
    pub lock_transfers: AtomicU64,
    /// Accesses rejected with [`PfsError::Transient`] (OST outages).
    pub transient_errors: AtomicU64,
    /// Reads rejected with [`PfsError::ChecksumMismatch`].
    pub checksum_failures: AtomicU64,
    /// Corrupt stripes restored from their replica by [`Pfs::scrub`].
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

impl Ost {
    /// Total service-time multiplier at virtual time `t`: the manually-set
    /// degradation times any chaos slowdown window.
    fn slowdown_at(&self, ost: usize, t: f64, engine: Option<&chaos::ChaosEngine>) -> f64 {
        match engine {
            Some(e) => self.slowdown * e.ost_factor(ost, t),
            None => self.slowdown,
        }
    }

    /// Book `dur` seconds of service, eligible from `eligible`, for a
    /// piece that reached this OST at `arrive`. Gap backfill keeps the
    /// outcome independent of which rank booked first (see
    /// `mpisim::timeline`). Returns the finish time.
    fn serve(&mut self, arrive: f64, eligible: f64, dur: f64) -> f64 {
        let start = self.busy.reserve(eligible, dur);
        self.metrics.requests += 1;
        self.metrics.busy += dur;
        self.metrics.queue_wait += (start - arrive).max(0.0);
        start + dur
    }
}

/// Outcome of one [`Pfs::scrub`] pass over every recorded stripe checksum.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScrubReport {
    /// Stripes with a recorded checksum that were re-verified.
    pub stripes_scanned: u64,
    /// Stripes whose stored bytes no longer matched their checksum.
    pub mismatches: u64,
    /// Mismatched stripes restored from an intact replica.
    pub repaired: u64,
}

/// Metadata snapshot of one file (`stat`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FileStat {
    pub len: u64,
    pub stripe_size: u64,
    pub stripe_count: usize,
    /// OST index of stripe 0.
    pub ost_base: usize,
}

impl State {
    fn file(&self, id: FileId) -> Result<&File> {
        self.files
            .get(id.0 as usize)
            .ok_or(PfsError::InvalidFile(id.0))
    }
}

/// Record one RPC's service latency if the histogram is on.
fn observe_latency(hist: &mut Option<Hist>, secs: f64) {
    if let Some(h) = hist {
        h.observe((secs.max(0.0) * 1e9) as u64);
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

    /// Create a new empty file. Fails if the path exists.
    pub fn create(&self, path: &str) -> Result<FileId> {
        self.create_in(&mut self.state.lock(), path)
    }

    fn create_in(&self, st: &mut State, path: &str) -> Result<FileId> {
        if st.namespace.contains_key(path) {
            return Err(PfsError::AlreadyExists(path.to_string()));
        }
        let id = FileId(st.files.len() as u32);
        st.files.push(File {
            ost_base: st.next_ost_base,
            ..File::default()
        });
        st.next_ost_base = (st.next_ost_base + self.cfg.stripe_count) % self.cfg.num_osts;
        st.namespace.insert(path.to_string(), id);
        Ok(id)
    }

    /// Open an existing file.
    pub fn open(&self, path: &str) -> Result<FileId> {
        self.state
            .lock()
            .namespace
            .get(path)
            .copied()
            .ok_or_else(|| PfsError::NotFound(path.to_string()))
    }

    /// Open, creating if absent (idempotent; used by collective opens where
    /// every rank tries to create the shared file).
    pub fn open_or_create(&self, path: &str) -> Result<FileId> {
        let mut guard = self.state.lock();
        let st = &mut *guard;
        match st.namespace.get(path) {
            Some(&id) => Ok(id),
            None => self.create_in(st, path),
        }
    }

    /// Remove a file and its lock state.
    pub fn delete(&self, path: &str) -> Result<()> {
        let mut guard = self.state.lock();
        let st = &mut *guard;
        let id = st
            .namespace
            .remove(path)
            .ok_or_else(|| PfsError::NotFound(path.to_string()))?;
        st.locks.forget_file(id.0);
        // The file-id slot stays reserved (ids are stable); drop the bytes
        // so memory is reclaimed.
        if let Some(f) = st.files.get_mut(id.0 as usize) {
            *f = File {
                ost_base: f.ost_base,
                ..File::default()
            };
        }
        Ok(())
    }

    pub fn exists(&self, path: &str) -> bool {
        self.state.lock().namespace.contains_key(path)
    }

    /// Current length of the file in bytes.
    pub fn len(&self, id: FileId) -> Result<u64> {
        Ok(self.state.lock().file(id)?.bytes.len() as u64)
    }

    /// Set the file length (zero-filling on growth). Growth never touches
    /// stored checksums (zero-extension invariant); shrinking drops sums
    /// past the new end and re-seals the now-shorter boundary stripe.
    pub fn truncate(&self, id: FileId, len: u64) -> Result<()> {
        let mut st = self.state.lock();
        let c = st
            .files
            .get_mut(id.0 as usize)
            .ok_or(PfsError::InvalidFile(id.0))?;
        let shrink = (len as usize) < c.bytes.len();
        c.bytes.resize(len as usize, 0);
        if shrink {
            let s = self.cfg.stripe_size;
            let keep = len.div_ceil(s);
            c.sums.retain(|&k, _| k < keep);
            c.replicas.retain(|&k, _| k < keep);
            if len > 0 {
                let b = (len - 1) / s;
                if c.sums.contains_key(&b) {
                    let lo = (b * s) as usize;
                    let sum = stripe_checksum(&c.bytes[lo..]);
                    c.sums.insert(b, sum);
                    if c.replicas.contains_key(&b) {
                        let copy = c.bytes[lo..].to_vec();
                        c.replicas.insert(b, copy);
                    }
                }
            }
        }
        Ok(())
    }

    /// Degrade (or heal) an OST: subsequent service on it takes
    /// `factor` × the healthy time. `factor = 1.0` restores health.
    pub fn set_ost_slowdown(&self, ost: usize, factor: f64) -> Result<()> {
        let mut st = self.state.lock();
        let slot = st
            .osts
            .get_mut(ost)
            .ok_or_else(|| PfsError::Config(format!("no OST {ost}")))?;
        if factor < 1.0 || !factor.is_finite() {
            return Err(PfsError::Config(format!("bad slowdown factor {factor}")));
        }
        slot.slowdown = factor;
        Ok(())
    }

    /// If any OST under `[offset, offset+len)` is in an injected outage at
    /// `now`, fail with [`PfsError::Transient`] carrying the lift time.
    ///
    /// Health-aware: relocated extents are checked at their *holder* OST,
    /// each outage hit feeds the breaker's error-burst detector, and a
    /// `write` whose target breaker is already `Open` passes — the cost
    /// model will route it around the quarantined OST, which is the whole
    /// point of degraded-mode striping (reads must still fail: their
    /// bytes' cost locality is on the sick OST).
    fn outage_check(
        &self,
        st: &mut State,
        id: FileId,
        offset: u64,
        len: u64,
        now: f64,
        write: bool,
    ) -> Result<()> {
        let Some(engine) = st.chaos.as_deref() else {
            return Ok(());
        };
        let ost_base = st.files[id.0 as usize].ost_base;
        for (pos, _) in self.rpc_pieces(offset, len) {
            let stripe = pos / self.cfg.stripe_size;
            let home = self.ost_for(ost_base, stripe);
            let ost = match &st.health {
                Some(h) => h.route_read(id.0, stripe, home),
                None => home,
            };
            if let Some(until) = engine.ost_outage_until(ost, now) {
                if let Some(h) = &mut st.health {
                    h.observe_error(ost, now);
                    if write && matches!(h.breaker(ost, now), Breaker::Open { .. }) {
                        continue;
                    }
                }
                self.stats.transient_errors.fetch_add(1, Ordering::Relaxed);
                return Err(PfsError::Transient {
                    ost,
                    retry_after: until,
                });
            }
        }
        Ok(())
    }

    /// File metadata.
    pub fn stat(&self, id: FileId) -> Result<FileStat> {
        let st = self.state.lock();
        let f = st.file(id)?;
        Ok(FileStat {
            len: f.bytes.len() as u64,
            stripe_size: self.cfg.stripe_size,
            stripe_count: self.cfg.stripe_count,
            ost_base: f.ost_base,
        })
    }

    /// Sorted listing of the namespace.
    pub fn list(&self) -> Vec<String> {
        let mut names: Vec<String> = self.state.lock().namespace.keys().cloned().collect();
        names.sort();
        names
    }

    /// Home OST of `stripe` in a file whose stripe 0 lives on `ost_base`.
    fn ost_for(&self, ost_base: usize, stripe: u64) -> usize {
        (ost_base + (stripe as usize % self.cfg.stripe_count)) % self.cfg.num_osts
    }

    /// Split `[offset, offset+len)` into RPC pieces, in file order:
    /// stripe-bounded and `max_rpc`-bounded. Total for any input: a range
    /// running past `u64::MAX` is clipped there.
    fn rpc_pieces(&self, offset: u64, len: u64) -> impl Iterator<Item = (u64, u64)> {
        let (stripe_size, max_rpc) = (self.cfg.stripe_size, self.cfg.max_rpc);
        let mut pos = offset;
        let end = offset.saturating_add(len);
        std::iter::from_fn(move || {
            if pos >= end {
                return None;
            }
            let stripe_end = (pos / stripe_size + 1).saturating_mul(stripe_size);
            let piece_end = end.min(stripe_end).min(pos.saturating_add(max_rpc));
            let piece = (pos, piece_end - pos);
            pos = piece_end;
            Some(piece)
        })
    }

    /// Write `data` at `offset` on behalf of `client`, starting at virtual
    /// time `now`. Returns the completion time.
    pub fn write_at(
        &self,
        id: FileId,
        client: usize,
        offset: u64,
        data: &[u8],
        now: f64,
    ) -> Result<f64> {
        if data.is_empty() {
            return Ok(now);
        }
        let len = data.len() as u64;
        let mut guard = self.state.lock();
        let st = &mut *guard;
        st.file(id)?;
        let end = span_end(offset, len).ok_or(PfsError::OffsetOverflow { offset, len })?;
        // Fail before touching any bytes: a refused write must leave the
        // file exactly as it was so the caller can retry wholesale.
        self.outage_check(st, id, offset, len, now, true)?;
        // Apply the bytes (correctness path), then seal the touched
        // stripes' checksums.
        let f = &mut st.files[id.0 as usize];
        if f.bytes.len() < end {
            f.bytes.resize(end, 0);
        }
        f.bytes[offset as usize..end].copy_from_slice(data);
        self.seal_stripes(st, id, offset, len, now);
        Ok(self.write_cost(st, id, client, offset, len, now))
    }

    /// Record checksums (and, if configured, replicas) for every stripe a
    /// write of `[offset, offset+len)` touched, then roll the fault plan's
    /// silent-corruption dice per touched stripe and copy. Checksums are
    /// computed over the *true* content first, so a flipped byte in either
    /// copy is detectable afterwards. Costs no virtual time (checksumming
    /// rides along the existing per-RPC overheads).
    fn seal_stripes(&self, st: &mut State, id: FileId, offset: u64, len: u64, now: f64) {
        debug_assert!(len > 0);
        // Sealing (and hence verification) hashes every touched stripe, so
        // only pay for it when the attached plan can actually corrupt.
        // Without recorded sums, `verify_stripes` and `scrub` are no-ops
        // over empty maps.
        let Some(e) = st.chaos.as_deref().filter(|e| e.any_corruption()) else {
            return;
        };
        let c = &mut st.files[id.0 as usize];
        let s = self.cfg.stripe_size;
        let want_replicas = self.cfg.stripe_replicas;
        for stripe in (offset / s)..=((offset + len - 1) / s) {
            let lo = (stripe * s) as usize;
            let hi = (((stripe + 1) * s) as usize).min(c.bytes.len());
            if lo >= hi {
                continue;
            }
            let sum = stripe_checksum(&c.bytes[lo..hi]);
            c.sums.insert(stripe, sum);
            if want_replicas {
                let copy = c.bytes[lo..hi].to_vec();
                c.replicas.insert(stripe, copy);
            }
            let site = corruption_site(id.0, stripe, now);
            if e.corrupts(site, now) {
                self.stats
                    .silent_corruptions
                    .fetch_add(1, Ordering::Relaxed);
                let pos = (e.unit_hash(site ^ FLIP_SALT) * (hi - lo) as f64) as usize;
                c.bytes[lo + pos.min(hi - lo - 1)] ^= 0xA5;
            }
            if want_replicas && e.corrupts(site ^ REPLICA_SALT, now) {
                self.stats
                    .silent_corruptions
                    .fetch_add(1, Ordering::Relaxed);
                // `want_replicas` inserted this stripe's copy a few lines up.
                let rep = c.replicas.get_mut(&stripe).expect("replica just stored");
                let pos =
                    (e.unit_hash(site ^ REPLICA_SALT ^ FLIP_SALT) * rep.len() as f64) as usize;
                let last = rep.len() - 1;
                rep[pos.min(last)] ^= 0xA5;
            }
        }
    }

    /// Verify every touched stripe that has a recorded checksum; the first
    /// mismatch fails typed before any byte reaches the caller. Stripes
    /// never sealed (no recorded sum) pass — there is nothing to verify
    /// them against.
    fn verify_stripes(&self, c: &File, offset: u64, len: u64) -> Result<()> {
        if len == 0 {
            return Ok(());
        }
        let s = self.cfg.stripe_size;
        for stripe in (offset / s)..=((offset + len - 1) / s) {
            let Some(&sum) = c.sums.get(&stripe) else {
                continue;
            };
            let lo = (stripe * s) as usize;
            let hi = (((stripe + 1) * s) as usize).min(c.bytes.len());
            let actual = if lo >= hi {
                stripe_checksum(&[])
            } else {
                stripe_checksum(&c.bytes[lo..hi])
            };
            if actual != sum {
                self.stats.checksum_failures.fetch_add(1, Ordering::Relaxed);
                return Err(PfsError::ChecksumMismatch {
                    stripe,
                    ost: self.ost_for(c.ost_base, stripe),
                });
            }
        }
        Ok(())
    }

    /// The data half of every read: bounds-check `[offset, offset +
    /// buf.len())` against the file, verify the touched stripes, copy out.
    fn copy_out(&self, c: &File, offset: u64, buf: &mut [u8]) -> Result<()> {
        let len = buf.len() as u64;
        let end = span_end(offset, len)
            .filter(|&end| end <= c.bytes.len())
            .ok_or(PfsError::ReadPastEof {
                offset,
                len,
                file_len: c.bytes.len() as u64,
            })?;
        self.verify_stripes(c, offset, len)?;
        buf.copy_from_slice(&c.bytes[offset as usize..end]);
        Ok(())
    }

    /// Full-system integrity scrub: recompute every recorded stripe
    /// checksum, count mismatches, and repair each corrupt stripe from its
    /// replica when one exists *and* the replica itself still matches the
    /// recorded sum. Detects 100% of injected corruptions by construction
    /// (sums are sealed over true content before the corruption flips a
    /// byte) and never flags a clean stripe.
    pub fn scrub(&self) -> ScrubReport {
        let mut report = ScrubReport::default();
        for c in &mut self.state.lock().files {
            let mut stripes: Vec<u64> = c.sums.keys().copied().collect();
            stripes.sort_unstable();
            for stripe in stripes {
                report.stripes_scanned += 1;
                let sum = c.sums[&stripe];
                let lo = (stripe * self.cfg.stripe_size) as usize;
                let hi = (((stripe + 1) * self.cfg.stripe_size) as usize).min(c.bytes.len());
                let actual = if lo >= hi {
                    stripe_checksum(&[])
                } else {
                    stripe_checksum(&c.bytes[lo..hi])
                };
                if actual == sum {
                    continue;
                }
                report.mismatches += 1;
                let Some(good) = c
                    .replicas
                    .get(&stripe)
                    .filter(|r| stripe_checksum(r) == sum)
                else {
                    continue;
                };
                // Bytes past the replica's recorded length are file
                // growth since the seal, which only zero-fills.
                let end = (lo + good.len()).min(hi);
                c.bytes[lo..end].copy_from_slice(&good[..end - lo]);
                c.bytes[end..hi].fill(0);
                report.repaired += 1;
                self.stats.scrub_repairs.fetch_add(1, Ordering::Relaxed);
            }
        }
        report
    }

    /// Background rebuild pass: migrate every relocated extent back to its
    /// home OST. Each migration charges one read at the holder plus one
    /// write at the home on the real OST timelines (no client link leg —
    /// rebuild is server-side traffic). A `HalfOpen` home is migrated too:
    /// the rebuild write *is* the probe, and its observed service ratio
    /// decides whether the breaker re-closes or re-trips. Extents whose
    /// home is still `Open` stay relocated, and extents whose stored
    /// bytes fail their checksum are left for [`Pfs::scrub`] to repair
    /// first. Returns how far the pass got; callers loop until
    /// `remaining == 0`.
    pub fn rebuild(&self, now: f64) -> Result<RebuildReport> {
        let mut guard = self.state.lock();
        let State {
            files,
            osts,
            chaos,
            health,
            ..
        } = &mut *guard;
        let Some(h) = health else {
            return Err(PfsError::Config(
                "rebuild requires an attached health layer (enable_health)".into(),
            ));
        };
        let engine = chaos.as_deref();
        let mut report = RebuildReport {
            completed_at: now,
            ..RebuildReport::default()
        };
        for (file_no, stripe, holder) in h.reloc_entries() {
            report.scanned += 1;
            let file = files
                .get(file_no as usize)
                .ok_or(PfsError::InvalidFile(file_no))?;
            let home = self.ost_for(file.ost_base, stripe);
            if matches!(h.breaker(home, now), Breaker::Open { .. }) {
                report.remaining += 1;
                continue;
            }
            let lo = stripe * self.cfg.stripe_size;
            // Zero when nothing is stored under this stripe any more: the
            // mapping is then dropped without moving bytes.
            let len = self
                .cfg
                .stripe_size
                .min((file.bytes.len() as u64).saturating_sub(lo));
            // Integrity first: migrating a corrupt extent would spread the
            // damage. Leave it for scrub's replica repair and retry on the
            // next pass.
            if self.verify_stripes(file, lo, len).is_err() {
                report.remaining += 1;
                continue;
            }
            if len > 0 {
                // Read the extent off its holder...
                let r_slow = osts[holder].slowdown_at(holder, now, engine);
                let r_dur = (self.cfg.ost_service + len as f64 / self.cfg.ost_read_bw) * r_slow;
                let r_fin = osts[holder].serve(now, now, r_dur);
                osts[holder].metrics.bytes_read += len;
                h.observe(holder, r_slow, r_fin - now, r_fin);
                // ...and write it home. For a half-open home this write is
                // the probe: the observation below re-closes or re-trips
                // the breaker.
                let w_slow = osts[home].slowdown_at(home, r_fin, engine);
                let w_dur = (self.cfg.ost_service + len as f64 / self.cfg.ost_write_bw) * w_slow;
                let w_fin = osts[home].serve(r_fin, r_fin, w_dur);
                osts[home].metrics.bytes_written += len;
                h.observe(home, w_slow, w_fin - r_fin, w_fin);
                report.completed_at = report.completed_at.max(w_fin);
            }
            h.reloc_clear(file_no, stripe, len);
            report.rebuilt_extents += 1;
            report.rebuilt_bytes += len;
        }
        Ok(report)
    }

    /// Atomic read-modify-write of `[offset, offset+len)`: the span is
    /// presented to `patch` under the file system's lock, so no other
    /// writer can interleave between the read and the write-back (and
    /// `patch` must not call back into this file system). This is the
    /// primitive behind write-mode *data sieving*, which on a real system
    /// holds a file lock across the RMW for exactly this reason. Costs one
    /// read pass plus one write pass over the span.
    pub fn write_rmw(
        &self,
        id: FileId,
        client: usize,
        offset: u64,
        len: u64,
        patch: &mut dyn FnMut(&mut [u8]),
        now: f64,
    ) -> Result<f64> {
        if len == 0 {
            return Ok(now);
        }
        let mut guard = self.state.lock();
        let st = &mut *guard;
        st.file(id)?;
        let end = span_end(offset, len).ok_or(PfsError::OffsetOverflow { offset, len })?;
        self.outage_check(st, id, offset, len, now, true)?;
        let c = &mut st.files[id.0 as usize];
        let readable = (c.bytes.len() as u64).saturating_sub(offset).min(len);
        if c.bytes.len() < end {
            c.bytes.resize(end, 0);
        }
        // The read half of the RMW must not fold corrupt bytes back
        // into the file — and re-sealing after the patch would bless
        // them. Verify before patching.
        self.verify_stripes(c, offset, len)?;
        patch(&mut c.bytes[offset as usize..end]);
        self.seal_stripes(st, id, offset, len, now);
        let t = self.read_cost(st, id, client, offset, readable, now, false);
        Ok(self.write_cost(st, id, client, offset, len, t))
    }

    /// Virtual-time cost of writing `[offset, offset+len)` (no data moved).
    fn write_cost(
        &self,
        st: &mut State,
        id: FileId,
        client: usize,
        offset: u64,
        len: u64,
        now: f64,
    ) -> f64 {
        let ost_base = st.files[id.0 as usize].ost_base;
        let engine = st.chaos.as_deref();
        let mut done = now;
        // Token-bucket admission: a metered tenant's request waits at the
        // gateway until its bucket covers the payload.
        let mut client_t = match &mut st.qos {
            Some(q) => q.admit(client, len, now),
            None => now,
        };
        for (pos, len) in self.rpc_pieces(offset, len) {
            self.stats.write_rpcs.fetch_add(1, Ordering::Relaxed);
            self.stats.bytes_written.fetch_add(len, Ordering::Relaxed);
            if let Some(q) = &mut st.qos {
                q.note_io(client, true, len);
            }
            let stripe = pos / self.cfg.stripe_size;
            let acquired = st.locks.acquire(id.0, stripe, client, LockMode::Write);
            // A revocation storm forces a revoke + re-grant even for the
            // current holder.
            let storm = engine.is_some_and(|e| e.lock_storm_for(client, client_t));
            let transfer = acquired || storm;
            let lock_cost = if transfer {
                self.stats.lock_transfers.fetch_add(1, Ordering::Relaxed);
                self.cfg.lock_transfer
            } else {
                0.0
            };
            // Client marshals the request and streams the payload. Small
            // pieces landing in an open gateway batch window pay the
            // coalesced overhead instead of the full per-RPC cost.
            let extra_overhead = engine.map_or(0.0, |e| e.extra_request_overhead(client_t));
            let base_overhead = match &mut st.qos {
                Some(q) => q.rpc_overhead(client, len, client_t, self.cfg.request_overhead),
                None => self.cfg.request_overhead,
            };
            let link_dur = len as f64 * self.cfg.client_byte_time;
            let send_start =
                st.clients[client].reserve(client_t + base_overhead + extra_overhead, link_dur);
            let arrive = send_start + link_dur + lock_cost;
            // OST services the piece (degraded OSTs run slower). Under a
            // fair-share discipline a contended tenant's piece becomes
            // eligible only at its paced slot; the gap it leaves is
            // backfilled by competing tenants via the timeline. With a
            // health layer, an open breaker quarantines the home OST and
            // the piece lands on its relocation target instead.
            let home = self.ost_for(ost_base, stripe);
            let ost = match &mut st.health {
                Some(h) => h.route_write(id.0, stripe, home, len, arrive),
                None => home,
            };
            let slowdown = st.osts[ost].slowdown_at(ost, arrive, engine);
            let service_dur =
                (self.cfg.ost_service + len as f64 / self.cfg.ost_write_bw) * slowdown;
            let eligible = match &mut st.qos {
                Some(q) => q.ost_eligible(ost, client, arrive, service_dur),
                None => arrive,
            };
            let piece_done = st.osts[ost].serve(arrive, eligible, service_dur);
            st.osts[ost].metrics.bytes_written += len;
            st.osts[ost].metrics.lock_transfers += transfer as u64;
            if let Some(h) = &mut st.health {
                // The service ratio (actual ÷ healthy service time) is
                // exactly the compound slowdown factor — what a real
                // client measures against its calibrated expectation.
                h.observe(ost, slowdown, piece_done - client_t, piece_done);
            }
            observe_latency(&mut st.latency, piece_done - client_t);
            done = done.max(piece_done);
            // The client can pipeline the next piece once its link is free.
            client_t = send_start + link_dur;
        }
        done
    }

    /// Read into `buf` from `offset` on behalf of `client`, starting at
    /// virtual time `now`. Returns the completion time. Reading past EOF is
    /// an error; holes within the file read as zeros.
    pub fn read_at(
        &self,
        id: FileId,
        client: usize,
        offset: u64,
        buf: &mut [u8],
        now: f64,
    ) -> Result<f64> {
        self.read(id, client, offset, buf, now, false)
    }

    /// Like [`Pfs::read_at`], but with adaptive hedging enabled when a
    /// health layer is attached (see [`Pfs::enable_health`]). Without a
    /// health layer this is bit-identical to `read_at`. Callers opt in per
    /// read so the default path stays byte-for-byte unchanged.
    pub fn read_at_hedged(
        &self,
        id: FileId,
        client: usize,
        offset: u64,
        buf: &mut [u8],
        now: f64,
    ) -> Result<f64> {
        self.read(id, client, offset, buf, now, true)
    }

    fn read(
        &self,
        id: FileId,
        client: usize,
        offset: u64,
        buf: &mut [u8],
        now: f64,
        hedge: bool,
    ) -> Result<f64> {
        if buf.is_empty() {
            return Ok(now);
        }
        let len = buf.len() as u64;
        let mut guard = self.state.lock();
        let st = &mut *guard;
        st.file(id)?;
        self.outage_check(st, id, offset, len, now, false)?;
        self.copy_out(&st.files[id.0 as usize], offset, buf)?;
        Ok(self.read_cost(st, id, client, offset, len, now, hedge))
    }

    /// Copy `[offset, offset+len)` into `buf` with **no virtual-time
    /// cost** and no RPC accounting: the data path for reads whose cost is
    /// modeled elsewhere (a burst-buffer hit serves staged bytes at the
    /// buffer's speed, but the authoritative content lives here). Same EOF
    /// and integrity checks as [`Pfs::read_at`].
    pub fn read_bytes(&self, id: FileId, offset: u64, buf: &mut [u8]) -> Result<()> {
        if buf.is_empty() {
            return Ok(());
        }
        self.copy_out(self.state.lock().file(id)?, offset, buf)
    }

    /// Virtual-time cost of reading `[offset, offset+len)` (no data moved).
    ///
    /// With `hedge` set and a health layer attached, each piece may fire a
    /// speculative duplicate at a closed-breaker buddy OST once its
    /// projected wait exceeds the adaptive deadline (see
    /// `Health::hedge_quote`). First service to finish wins and is the one
    /// whose response streams back over the client link; the loser's
    /// in-flight OST service is sunk cost but its response is never
    /// streamed (loser cancellation).
    #[allow(clippy::too_many_arguments)]
    fn read_cost(
        &self,
        st: &mut State,
        id: FileId,
        client: usize,
        offset: u64,
        len: u64,
        now: f64,
        hedge: bool,
    ) -> f64 {
        let ost_base = st.files[id.0 as usize].ost_base;
        let engine = st.chaos.as_deref();
        let mut done = now;
        let mut client_t = match &mut st.qos {
            Some(q) => q.admit(client, len, now),
            None => now,
        };
        for (pos, len) in self.rpc_pieces(offset, len) {
            self.stats.read_rpcs.fetch_add(1, Ordering::Relaxed);
            self.stats.bytes_read.fetch_add(len, Ordering::Relaxed);
            if let Some(q) = &mut st.qos {
                q.note_io(client, false, len);
            }
            let stripe = pos / self.cfg.stripe_size;
            let acquired = st.locks.acquire(id.0, stripe, client, LockMode::Read);
            let storm = engine.is_some_and(|e| e.lock_storm_for(client, client_t));
            let transfer = acquired || storm;
            let lock_cost = if transfer {
                self.stats.lock_transfers.fetch_add(1, Ordering::Relaxed);
                self.cfg.lock_transfer
            } else {
                0.0
            };
            let extra_overhead = engine.map_or(0.0, |e| e.extra_request_overhead(client_t));
            let base_overhead = match &mut st.qos {
                Some(q) => q.rpc_overhead(client, len, client_t, self.cfg.request_overhead),
                None => self.cfg.request_overhead,
            };
            let req_sent = client_t + base_overhead + extra_overhead;
            let wait_start = req_sent + lock_cost;
            // Reads of relocated extents are served by their holder OST.
            let home = self.ost_for(ost_base, stripe);
            let ost = match &st.health {
                Some(h) => h.route_read(id.0, stripe, home),
                None => home,
            };
            let slowdown = st.osts[ost].slowdown_at(ost, wait_start, engine);
            let service_dur = (self.cfg.ost_service + len as f64 / self.cfg.ost_read_bw) * slowdown;
            let eligible = match &mut st.qos {
                Some(q) => q.ost_eligible(ost, client, wait_start, service_dur),
                None => wait_start,
            };
            let primary_fin = st.osts[ost].serve(wait_start, eligible, service_dur);
            st.osts[ost].metrics.bytes_read += len;
            st.osts[ost].metrics.lock_transfers += transfer as u64;
            let mut svc_fin = primary_fin;
            if let Some(h) = &mut st.health {
                h.observe(ost, slowdown, primary_fin - wait_start, primary_fin);
                let quote = hedge.then(|| h.hedge_quote(ost, client, wait_start, primary_fin));
                if let Some(q) = quote.flatten() {
                    let buddy = &mut st.osts[q.buddy];
                    let b_slow = buddy.slowdown_at(q.buddy, q.fire, engine);
                    let b_dur = (self.cfg.ost_service + len as f64 / self.cfg.ost_read_bw) * b_slow;
                    let b_fin = buddy.serve(q.fire, q.fire, b_dur);
                    buddy.metrics.bytes_read += len;
                    h.observe(q.buddy, b_slow, b_fin - wait_start, b_fin);
                    let win = b_fin < primary_fin;
                    h.hedge_outcome(win);
                    if win {
                        svc_fin = b_fin;
                    }
                }
            }
            // The winning response streams back over the client link.
            let link_dur = len as f64 * self.cfg.client_byte_time;
            let resp_start = st.clients[client].reserve(svc_fin, link_dur);
            let piece_done = resp_start + link_dur;
            observe_latency(&mut st.latency, piece_done - client_t);
            done = done.max(piece_done);
            client_t = req_sent;
        }
        done
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
    /// enabled and non-empty) into a metrics registry.
    pub fn export_metrics(&self, reg: &mut mpisim::metrics::Registry) {
        self.stats.snapshot().export_metrics(reg);
        let lat = self.latency_snapshot();
        if !lat.is_empty() {
            reg.insert_hist("pfs_request_latency_ns", lat);
        }
        // The Timeline cliff on the OST and client-link timelines. Nothing
        // fired means no keys, so a run too short to prune exports what it
        // did before the counters existed (mpisim's half does the same).
        let (prunes, clamped) = {
            let st = self.state.lock();
            (st.osts.iter().map(|o| &o.busy).chain(&st.clients))
                .fold((0, 0), |(p, c), t| (p + t.prunes(), c + t.clamped()))
        };
        for (name, n) in [
            ("timeline_prunes_total", prunes),
            ("timeline_clamped_total", clamped),
        ] {
            if n > 0 {
                reg.add_counter(name, n);
            }
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

    /// Convenience for verification in tests and examples: a full copy of
    /// the file's bytes (no cost).
    pub fn snapshot_file(&self, id: FileId) -> Result<Vec<u8>> {
        Ok(self.state.lock().file(id)?.bytes.clone())
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

    fn fs(nclients: usize) -> Arc<Pfs> {
        Pfs::new(nclients, PfsConfig::default()).unwrap()
    }

    #[test]
    fn create_open_delete_namespace() {
        let p = fs(1);
        let id = p.create("/a").unwrap();
        assert_eq!(p.open("/a").unwrap(), id);
        assert!(matches!(p.create("/a"), Err(PfsError::AlreadyExists(_))));
        assert!(p.exists("/a"));
        p.delete("/a").unwrap();
        assert!(!p.exists("/a"));
        assert!(matches!(p.open("/a"), Err(PfsError::NotFound(_))));
    }

    #[test]
    fn open_or_create_is_idempotent() {
        let p = fs(1);
        let a = p.open_or_create("/x").unwrap();
        let b = p.open_or_create("/x").unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn write_read_roundtrip() {
        let p = fs(1);
        let id = p.create("/f").unwrap();
        let data: Vec<u8> = (0..255).collect();
        let t = p.write_at(id, 0, 10, &data, 0.0).unwrap();
        assert!(t > 0.0);
        assert_eq!(p.len(id).unwrap(), 265);
        let mut buf = vec![0u8; 255];
        let t2 = p.read_at(id, 0, 10, &mut buf, t).unwrap();
        assert!(t2 > t);
        assert_eq!(buf, data);
    }

    #[test]
    fn ost_report_accounts_requests_and_bytes() {
        let p = fs(2);
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

    #[test]
    fn ost_queue_wait_appears_under_contention() {
        // Many clients hammer the same stripe range: with a single OST
        // servicing serially, queue wait must accumulate.
        let cfg = PfsConfig {
            num_osts: 1,
            stripe_count: 1,
            ..Default::default()
        };
        let p = Pfs::new(8, cfg).unwrap();
        let id = p.create("/hot").unwrap();
        let chunk = vec![1u8; 65536];
        for c in 0..8 {
            p.write_at(id, c, (c as u64) * 65536, &chunk, 0.0).unwrap();
        }
        let rows = p.ost_report();
        assert_eq!(rows.len(), 1);
        assert!(rows[0].queue_wait > 0.0, "concurrent arrivals must queue");
        assert!(rows[0].busy > 0.0);
    }

    #[test]
    fn holes_read_as_zero() {
        let p = fs(1);
        let id = p.create("/f").unwrap();
        p.write_at(id, 0, 100, &[7], 0.0).unwrap();
        let mut buf = vec![9u8; 50];
        p.read_at(id, 0, 0, &mut buf, 0.0).unwrap();
        assert!(buf.iter().all(|&b| b == 0));
    }

    #[test]
    fn read_past_eof_is_error() {
        let p = fs(1);
        let id = p.create("/f").unwrap();
        p.write_at(id, 0, 0, &[1, 2, 3], 0.0).unwrap();
        let mut buf = vec![0u8; 4];
        assert!(matches!(
            p.read_at(id, 0, 0, &mut buf, 0.0),
            Err(PfsError::ReadPastEof { .. })
        ));
    }

    #[test]
    fn far_offsets_are_typed_errors_on_every_entry_point() {
        // `offset + len` wraps u64 in the first two rows and is merely
        // larger than any buffer in the third.
        for (offset, len) in [(u64::MAX - 3, 8usize), (u64::MAX, 1), (1 << 63, 8)] {
            let p = fs(1);
            let id = p.create("/f").unwrap();
            p.write_at(id, 0, 0, &[7u8; 16], 0.0).unwrap();
            let mut buf = vec![0u8; len];
            let reads = [
                p.read_at(id, 0, offset, &mut buf, 0.0).err(),
                p.read_at_hedged(id, 0, offset, &mut buf, 0.0).err(),
                p.read_bytes(id, offset, &mut buf).err(),
            ];
            for e in reads {
                let want = PfsError::ReadPastEof {
                    offset,
                    len: len as u64,
                    file_len: 16,
                };
                assert_eq!(e, Some(want), "read at {offset}+{len}");
                assert!(e.unwrap().to_string().contains("past end of file"));
            }
            let writes = [
                p.write_at(id, 0, offset, &buf, 0.0).err(),
                p.write_rmw(id, 0, offset, len as u64, &mut |b| b.fill(1), 0.0)
                    .err(),
            ];
            for e in writes {
                let want = PfsError::OffsetOverflow {
                    offset,
                    len: len as u64,
                };
                assert_eq!(e, Some(want), "write at {offset}+{len}");
            }
            assert_eq!(
                p.snapshot_file(id).unwrap(),
                vec![7u8; 16],
                "file untouched"
            );
            assert_eq!(
                p.stats.snapshot().write_rpcs,
                1,
                "no refused request is costed"
            );
        }
        // The piece splitter is total too: a range ending at u64::MAX
        // neither wraps nor loops.
        let p = fs(1);
        assert_eq!(
            p.rpc_pieces(u64::MAX - 3, 8).collect::<Vec<_>>(),
            vec![(u64::MAX - 3, 3)]
        );
    }

    #[test]
    fn truncate_grows_and_shrinks() {
        let p = fs(1);
        let id = p.create("/f").unwrap();
        p.truncate(id, 100).unwrap();
        assert_eq!(p.len(id).unwrap(), 100);
        p.truncate(id, 10).unwrap();
        assert_eq!(p.len(id).unwrap(), 10);
    }

    #[test]
    fn truncate_keeps_lock_owners() {
        // TCIO's write open truncates to 0; the stripe's last writer
        // still holds its lock, so another client rewriting it pays.
        let p = fs(2);
        let id = p.create("/f").unwrap();
        let t = p.write_at(id, 0, 0, &[1u8; 16], 0.0).unwrap();
        p.truncate(id, 0).unwrap();
        p.write_at(id, 1, 0, &[2u8; 16], t).unwrap();
        assert_eq!(p.stats.snapshot().lock_transfers, 1);
    }

    #[test]
    fn rpc_pieces_respect_stripes_and_max_rpc() {
        let cfg = PfsConfig {
            stripe_size: 100,
            max_rpc: 250,
            stripe_count: 2,
            num_osts: 2,
            ..Default::default()
        };
        let p = Pfs::new(1, cfg).unwrap();
        // Crossing two stripe boundaries.
        let pieces: Vec<_> = p.rpc_pieces(50, 200).collect();
        assert_eq!(pieces, vec![(50, 50), (100, 100), (200, 50)]);
        let pieces: Vec<_> = p.rpc_pieces(0, 100).collect();
        assert_eq!(pieces, vec![(0, 100)]);
    }

    #[test]
    fn max_rpc_splits_within_a_stripe() {
        let cfg = PfsConfig {
            stripe_size: 1000,
            max_rpc: 300,
            stripe_count: 1,
            num_osts: 1,
            ..Default::default()
        };
        let p = Pfs::new(1, cfg).unwrap();
        let pieces: Vec<_> = p.rpc_pieces(0, 1000).collect();
        assert_eq!(pieces, vec![(0, 300), (300, 300), (600, 300), (900, 100)]);
    }

    #[test]
    fn small_writes_dominated_by_overhead() {
        let p = fs(2);
        let id = p.create("/f").unwrap();
        let cfg = p.config().clone();
        let mut t = 0.0;
        for i in 0..100u64 {
            t = p.write_at(id, 0, i * 8, &[0u8; 8], t).unwrap();
        }
        assert!(t >= 100.0 * (cfg.request_overhead + cfg.ost_service) * 0.9);
    }

    #[test]
    fn large_write_approaches_ost_bandwidth() {
        let p = fs(1);
        let id = p.create("/f").unwrap();
        let cfg = p.config().clone();
        let bytes = 8 << 20; // 8 MiB across 8 stripes
        let data = vec![0u8; bytes];
        let t = p.write_at(id, 0, 0, &data, 0.0).unwrap();
        // Eight 1 MiB pieces on distinct OSTs, pipelined over the client
        // link: must beat serial single-OST time.
        let serial = bytes as f64 / cfg.ost_write_bw;
        assert!(
            t < serial,
            "striping must parallelize: {t} vs serial {serial}"
        );
        // But no faster than the client link can push the data.
        assert!(t >= bytes as f64 * cfg.client_byte_time);
    }

    #[test]
    fn interleaved_writers_pay_lock_transfers() {
        let p = fs(2);
        let id = p.create("/f").unwrap();
        let mut t = 0.0;
        for i in 0..10u64 {
            let client = (i % 2) as usize;
            t = p.write_at(id, client, (i % 4) * 16, &[1u8; 16], t).unwrap();
        }
        assert!(
            p.stats.snapshot().lock_transfers >= 8,
            "alternating writers in one stripe must ping-pong the lock"
        );
    }

    #[test]
    fn disjoint_stripe_writers_do_not_conflict() {
        let p = fs(2);
        let id = p.create("/f").unwrap();
        let s = p.config().stripe_size;
        p.write_at(id, 0, 0, &[1u8; 16], 0.0).unwrap();
        p.write_at(id, 1, s, &[2u8; 16], 0.0).unwrap();
        p.write_at(id, 0, 0, &[3u8; 16], 0.0).unwrap();
        p.write_at(id, 1, s, &[4u8; 16], 0.0).unwrap();
        assert_eq!(p.stats.snapshot().lock_transfers, 0);
    }

    #[test]
    fn aggregate_bandwidth_capped_by_osts() {
        let cfg = PfsConfig {
            num_osts: 4,
            stripe_count: 4,
            ..Default::default()
        };
        let p = Pfs::new(16, cfg.clone()).unwrap();
        let id = p.create("/f").unwrap();
        let per_client = 4u64 << 20;
        let data = vec![0u8; per_client as usize];
        let mut done = 0.0f64;
        for c in 0..16usize {
            let t = p
                .write_at(id, c, c as u64 * per_client, &data, 0.0)
                .unwrap();
            done = done.max(t);
        }
        let floor = (16.0 * per_client as f64) / (4.0 * cfg.ost_write_bw);
        assert!(done >= floor * 0.9, "done {done} vs floor {floor}");
    }

    #[test]
    fn reads_are_faster_than_writes() {
        let p = fs(1);
        let id = p.create("/f").unwrap();
        let data = vec![1u8; 4 << 20];
        let w_done = p.write_at(id, 0, 0, &data, 0.0).unwrap();
        let mut buf = vec![0u8; 4 << 20];
        let r_start = w_done;
        let r_done = p.read_at(id, 0, 0, &mut buf, r_start).unwrap();
        assert!(r_done - r_start < w_done, "read bw exceeds write bw");
    }

    #[test]
    fn stats_count_rpcs_and_bytes() {
        let p = fs(1);
        let id = p.create("/f").unwrap();
        p.write_at(id, 0, 0, &[0u8; 100], 0.0).unwrap();
        let mut buf = [0u8; 50];
        p.read_at(id, 0, 0, &mut buf, 0.0).unwrap();
        let s = p.stats.snapshot();
        assert_eq!(s.write_rpcs, 1);
        assert_eq!(s.bytes_written, 100);
        assert_eq!(s.read_rpcs, 1);
        assert_eq!(s.bytes_read, 50);
    }

    #[test]
    fn empty_ops_are_free() {
        let p = fs(1);
        let id = p.create("/f").unwrap();
        assert_eq!(p.write_at(id, 0, 0, &[], 5.0).unwrap(), 5.0);
        let mut empty: [u8; 0] = [];
        assert_eq!(p.read_at(id, 0, 0, &mut empty, 5.0).unwrap(), 5.0);
    }

    #[test]
    fn invalid_file_id_rejected() {
        let p = fs(1);
        assert!(matches!(p.len(FileId(99)), Err(PfsError::InvalidFile(99))));
    }
}

#[cfg(test)]
mod failure_tests {
    use super::*;

    #[test]
    fn degraded_ost_slows_its_stripes_only() {
        let cfg = PfsConfig {
            num_osts: 2,
            stripe_count: 2,
            stripe_size: 1 << 20,
            ..Default::default()
        };
        let p = Pfs::new(1, cfg).unwrap();
        let id = p.create("/f").unwrap();
        let data = vec![0u8; 1 << 20];
        // Healthy baseline: one stripe on each OST.
        let t0 = p.write_at(id, 0, 0, &data, 0.0).unwrap();
        let t1 = p.write_at(id, 0, 1 << 20, &data, t0).unwrap();
        let healthy0 = t0;
        let healthy1 = t1 - t0;
        // Degrade OST 1 (stripe 1) by 10x.
        p.set_ost_slowdown(1, 10.0).unwrap();
        let t2 = p.write_at(id, 0, 0, &data, t1).unwrap(); // stripe 0, OST 0
        let t3 = p.write_at(id, 0, 1 << 20, &data, t2).unwrap(); // stripe 1, OST 1
        assert!((t2 - t1) < 2.0 * healthy0, "healthy OST unaffected");
        assert!(
            (t3 - t2) > 5.0 * healthy1,
            "degraded OST must be much slower: {} vs {}",
            t3 - t2,
            healthy1
        );
        // Heal and verify recovery.
        p.set_ost_slowdown(1, 1.0).unwrap();
        let t4 = p.write_at(id, 0, 1 << 20, &data, t3).unwrap();
        assert!((t4 - t3) < 2.0 * healthy1);
    }

    #[test]
    fn slowdown_validation() {
        let p = Pfs::new(1, PfsConfig::default()).unwrap();
        assert!(p.set_ost_slowdown(999, 2.0).is_err());
        assert!(p.set_ost_slowdown(0, 0.5).is_err());
        assert!(p.set_ost_slowdown(0, f64::INFINITY).is_err());
    }

    #[test]
    fn chaos_outage_is_transient_and_leaves_bytes_untouched() {
        let cfg = PfsConfig {
            num_osts: 2,
            stripe_count: 2,
            stripe_size: 1 << 20,
            ..Default::default()
        };
        let p = Pfs::new(1, cfg).unwrap();
        let id = p.create("/f").unwrap();
        p.write_at(id, 0, 0, &[9u8; 64], 0.0).unwrap();
        let engine = chaos::FaultPlan::new(1)
            .with(chaos::Fault::OstOutage {
                ost: 0,
                from: 0.0,
                until: 2.0,
            })
            .build()
            .unwrap();
        p.attach_chaos(engine).unwrap();
        // Stripe 0 lives on OST 0: refused during the outage window.
        let err = p.write_at(id, 0, 0, &[1u8; 64], 1.0).unwrap_err();
        assert_eq!(
            err,
            PfsError::Transient {
                ost: 0,
                retry_after: 2.0
            }
        );
        assert!(err.is_transient());
        assert_eq!(
            p.snapshot_file(id).unwrap(),
            vec![9u8; 64],
            "refused write must not mutate the file"
        );
        let mut buf = [0u8; 4];
        assert!(p.read_at(id, 0, 0, &mut buf, 1.5).is_err());
        // The window obeys retry_after: the same access succeeds at t=2.
        p.write_at(id, 0, 0, &[1u8; 64], 2.0).unwrap();
        // Stripe 1 (OST 1) is unaffected throughout.
        p.write_at(id, 0, 1 << 20, &[2u8; 8], 1.0).unwrap();
        assert_eq!(p.stats.snapshot().transient_errors, 2);
    }

    #[test]
    fn chaos_slowdown_composes_with_manual_degradation() {
        let cfg = PfsConfig {
            num_osts: 1,
            stripe_count: 1,
            ..Default::default()
        };
        let p = Pfs::new(1, cfg).unwrap();
        let id = p.create("/f").unwrap();
        let data = vec![0u8; 1 << 20];
        let healthy = p.write_at(id, 0, 0, &data, 0.0).unwrap();
        let engine = chaos::FaultPlan::new(1)
            .with(chaos::Fault::OstSlowdown {
                ost: 0,
                factor: 4.0,
                from: 0.0,
                until: 1e9,
            })
            .build()
            .unwrap();
        p.attach_chaos(engine).unwrap();
        let t0 = 100.0;
        let slowed = p.write_at(id, 0, 0, &data, t0).unwrap() - t0;
        assert!(
            slowed > 2.0 * healthy,
            "4x window must slow service: {slowed} vs {healthy}"
        );
    }

    #[test]
    fn chaos_lock_storm_forces_transfers_for_sole_writer() {
        let p = Pfs::new(1, PfsConfig::default()).unwrap();
        let id = p.create("/f").unwrap();
        let mut t = 0.0;
        for _ in 0..4 {
            t = p.write_at(id, 0, 0, &[1u8; 16], t).unwrap();
        }
        assert_eq!(
            p.stats.snapshot().lock_transfers,
            0,
            "sole writer never conflicts when healthy"
        );
        let engine = chaos::FaultPlan::new(1)
            .with(chaos::Fault::LockStorm {
                from: 0.0,
                until: 1e9,
            })
            .build()
            .unwrap();
        p.attach_chaos(engine).unwrap();
        for _ in 0..4 {
            t = p.write_at(id, 0, 0, &[1u8; 16], t).unwrap();
        }
        assert_eq!(
            p.stats.snapshot().lock_transfers,
            4,
            "storm revokes even the holder's lock"
        );
    }

    #[test]
    fn chaos_request_overhead_brownout_slows_small_writes() {
        let p = Pfs::new(1, PfsConfig::default()).unwrap();
        let id = p.create("/f").unwrap();
        let healthy = p.write_at(id, 0, 0, &[1u8; 8], 0.0).unwrap();
        let engine = chaos::FaultPlan::new(1)
            .with(chaos::Fault::RequestOverhead {
                extra: 10.0 * healthy,
                from: 50.0,
                until: 1e9,
            })
            .build()
            .unwrap();
        p.attach_chaos(engine).unwrap();
        let t0 = 100.0;
        let browned = p.write_at(id, 0, 0, &[1u8; 8], t0).unwrap() - t0;
        assert!(browned > 5.0 * healthy, "{browned} vs {healthy}");
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
            .with(chaos::Fault::OstOutage {
                ost: 7,
                from: 0.0,
                until: 1.0,
            })
            .build()
            .unwrap();
        assert!(matches!(p.attach_chaos(bad), Err(PfsError::Config(_))));
        assert!(
            p.state.lock().chaos.is_none(),
            "failed attach leaves no engine"
        );
        let ok = chaos::FaultPlan::new(1)
            .with(chaos::Fault::OstOutage {
                ost: 1,
                from: 0.0,
                until: 1.0,
            })
            .build()
            .unwrap();
        p.attach_chaos(ok).unwrap();
        assert!(p.state.lock().chaos.is_some());
    }

    #[test]
    fn inert_engine_changes_no_costs() {
        let p = Pfs::new(2, PfsConfig::default()).unwrap();
        let id = p.create("/f").unwrap();
        let data = vec![3u8; 3 << 20];
        let t_healthy = p.write_at(id, 0, 0, &data, 0.0).unwrap();
        let q = Pfs::new(2, PfsConfig::default()).unwrap();
        q.attach_chaos(chaos::ChaosEngine::none()).unwrap();
        let qid = q.create("/f").unwrap();
        let t_inert = q.write_at(qid, 0, 0, &data, 0.0).unwrap();
        assert_eq!(t_healthy, t_inert, "empty plan must be zero-cost");
        assert_eq!(p.snapshot_file(id).unwrap(), q.snapshot_file(qid).unwrap());
    }

    fn corruption_engine(rate: f64, until: f64) -> Arc<chaos::ChaosEngine> {
        chaos::FaultPlan::new(41)
            .with(chaos::Fault::SilentCorruption {
                rate,
                from: 0.0,
                until,
            })
            .build()
            .unwrap()
    }

    #[test]
    fn corrupted_stripe_reads_fail_typed_and_never_return_wrong_bytes() {
        let cfg = PfsConfig {
            stripe_size: 256,
            stripe_count: 2,
            num_osts: 2,
            ..Default::default()
        };
        let p = Pfs::new(1, cfg).unwrap();
        let id = p.create("/f").unwrap();
        p.attach_chaos(corruption_engine(1.0, 0.5)).unwrap();
        // rate=1 inside the window: every written stripe is corrupted.
        let data = vec![7u8; 1024]; // 4 stripes
        p.write_at(id, 0, 0, &data, 0.0).unwrap();
        let snap = p.stats.snapshot();
        assert_eq!(snap.silent_corruptions, 4);
        let mut buf = vec![0u8; 1024];
        let err = p.read_at(id, 0, 0, &mut buf, 1.0).unwrap_err();
        assert!(matches!(err, PfsError::ChecksumMismatch { .. }));
        assert!(!err.is_transient(), "corruption is not retryable");
        assert!(
            buf.iter().all(|&b| b == 0),
            "no corrupt byte may reach the caller"
        );
        assert!(p.stats.snapshot().checksum_failures >= 1);
        // Scrub detects every injected corruption; without replicas it
        // cannot repair any of them.
        let rep = p.scrub();
        assert_eq!(rep.stripes_scanned, 4);
        assert_eq!(rep.mismatches, 4, "scrub must detect 100% of corruptions");
        assert_eq!(rep.repaired, 0);
    }

    #[test]
    fn scrub_repairs_from_intact_replicas() {
        let cfg = PfsConfig {
            stripe_size: 128,
            stripe_count: 4,
            num_osts: 4,
            stripe_replicas: true,
            ..Default::default()
        };
        let p = Pfs::new(1, cfg).unwrap();
        let id = p.create("/f").unwrap();
        // Moderate rate: some stripes corrupt on the primary only, so
        // their replicas remain the repair source.
        p.attach_chaos(corruption_engine(0.4, 0.5)).unwrap();
        let data: Vec<u8> = (0..4096u32).map(|i| (i % 251) as u8 + 1).collect();
        p.write_at(id, 0, 0, &data, 0.0).unwrap();
        let first = p.scrub();
        assert!(first.mismatches >= 1, "seed 41 must corrupt something");
        assert!(first.repaired >= 1, "some replica must have survived");
        assert_eq!(p.stats.snapshot().scrub_repairs, first.repaired);
        // A second pass sees only the stripes whose replica was also hit.
        let second = p.scrub();
        assert_eq!(second.mismatches, first.mismatches - first.repaired);
        assert_eq!(second.repaired, 0, "nothing left to repair from");
        // Repaired stripes read back their true content.
        if second.mismatches == 0 {
            let mut buf = vec![0u8; 4096];
            p.read_at(id, 0, 0, &mut buf, 1.0).unwrap();
            assert_eq!(buf, data);
        }
    }

    #[test]
    fn intensity_zero_has_no_false_positives() {
        let p = Pfs::new(1, PfsConfig::default()).unwrap();
        let id = p.create("/f").unwrap();
        let plan = chaos::FaultPlan::new(41).with(chaos::Fault::SilentCorruption {
            rate: 0.8,
            from: 0.0,
            until: 1e9,
        });
        p.attach_chaos(plan.scaled(0.0).build().unwrap()).unwrap();
        let data = vec![9u8; 3 << 20];
        let t = p.write_at(id, 0, 0, &data, 0.0).unwrap();
        let mut buf = vec![0u8; 3 << 20];
        p.read_at(id, 0, 0, &mut buf, t).unwrap();
        assert_eq!(buf, data);
        let rep = p.scrub();
        assert_eq!(rep.mismatches, 0, "clean stripes must never be flagged");
        let snap = p.stats.snapshot();
        assert_eq!(snap.silent_corruptions, 0);
        assert_eq!(snap.checksum_failures, 0);
    }

    #[test]
    fn checksums_survive_growth_holes_and_truncate() {
        let cfg = PfsConfig {
            stripe_size: 100,
            stripe_count: 2,
            num_osts: 2,
            ..Default::default()
        };
        let p = Pfs::new(1, cfg).unwrap();
        let id = p.create("/f").unwrap();
        // A corruption window far in the future arms the integrity
        // bookkeeping (sums are only recorded under plans that can
        // corrupt) without ever flipping a byte in this test.
        let armed = chaos::FaultPlan::new(41)
            .with(chaos::Fault::SilentCorruption {
                rate: 1.0,
                from: 1e8,
                until: 1e9,
            })
            .build()
            .unwrap();
        p.attach_chaos(armed).unwrap();
        p.write_at(id, 0, 10, &[5u8; 20], 0.0).unwrap();
        // Growth through a later write zero-fills stripe 0's tail: its
        // stored sum must still verify.
        p.write_at(id, 0, 350, &[6u8; 10], 0.0).unwrap();
        let mut buf = vec![0u8; 360];
        p.read_at(id, 0, 0, &mut buf, 1.0).unwrap();
        assert_eq!(&buf[10..30], &[5u8; 20]);
        // Shrink into stripe 3, then into stripe 0's written run.
        p.truncate(id, 355).unwrap();
        p.truncate(id, 15).unwrap();
        let mut buf = vec![0u8; 15];
        p.read_at(id, 0, 0, &mut buf, 1.0).unwrap();
        assert_eq!(&buf[10..], &[5u8; 5]);
        assert_eq!(p.scrub().mismatches, 0);
    }

    #[test]
    fn rmw_refuses_to_patch_a_corrupt_stripe() {
        let cfg = PfsConfig {
            stripe_size: 64,
            stripe_count: 1,
            num_osts: 1,
            ..Default::default()
        };
        let p = Pfs::new(1, cfg).unwrap();
        let id = p.create("/f").unwrap();
        p.attach_chaos(corruption_engine(1.0, 0.5)).unwrap();
        p.write_at(id, 0, 0, &[3u8; 64], 0.0).unwrap();
        // Past the corruption window: the RMW's read half must detect the
        // stale corruption instead of blessing it with a fresh seal.
        let err = p
            .write_rmw(id, 0, 8, 4, &mut |span| span.fill(1), 1.0)
            .unwrap_err();
        assert!(matches!(err, PfsError::ChecksumMismatch { .. }));
    }

    #[test]
    fn stat_and_list() {
        let p = Pfs::new(1, PfsConfig::default()).unwrap();
        let id = p.create("/b").unwrap();
        p.create("/a").unwrap();
        p.write_at(id, 0, 0, &[1, 2, 3], 0.0).unwrap();
        let st = p.stat(id).unwrap();
        assert_eq!(st.len, 3);
        assert_eq!(st.stripe_size, 1 << 20);
        assert_eq!(st.stripe_count, 30);
        assert_eq!(p.list(), vec!["/a".to_string(), "/b".to_string()]);
    }
}

#[cfg(test)]
mod qos_integration {
    use super::*;
    use crate::qos::{Discipline, QosConfig};

    /// One OST, one stripe: all contention lands in one place.
    fn hot_fs(nclients: usize) -> Arc<Pfs> {
        let cfg = PfsConfig {
            num_osts: 1,
            stripe_count: 1,
            ..Default::default()
        };
        Pfs::new(nclients, cfg).unwrap()
    }

    #[test]
    fn tenant_report_attributes_bytes_per_tenant() {
        let p = hot_fs(4);
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

    #[test]
    fn fair_share_bounds_victim_wait_under_a_storm() {
        // Tenant 0 (client 0) floods the lone OST with 32 MB of
        // back-to-back large writes before tenant 1 ever shows up. Under
        // FIFO the victim's small request queues behind the whole booked
        // flood; under fair share the storm exhausts its burst allowance
        // after a couple of pieces and its remaining reservations are
        // spaced at its share, so the victim's piece backfills one of the
        // gaps even though it arrives after the storm booked everything.
        let run = |discipline: Discipline| -> f64 {
            let p = hot_fs(2);
            p.enable_qos(
                QosConfig {
                    discipline,
                    ..Default::default()
                },
                vec![0, 1],
            )
            .unwrap();
            let id = p.create("/f").unwrap();
            let chunk = vec![7u8; 1 << 20];
            for i in 0..32u64 {
                p.write_at(id, 0, i << 20, &chunk, 0.0).unwrap();
            }
            // The victim's small write lands mid-storm.
            p.write_at(id, 1, 40 << 20, &[1u8; 4096], 0.001).unwrap() - 0.001
        };
        let fifo = run(Discipline::Fifo);
        let fair = run(Discipline::FairShare);
        assert!(
            fair < fifo / 4.0,
            "fair share must shield the victim: fair={fair:.4}s fifo={fifo:.4}s"
        );
    }

    #[test]
    fn qos_off_and_single_tenant_fair_share_cost_identically() {
        // Work conservation: with no competing tenant the fair-share
        // discipline never paces, so completion times match the direct
        // path bit for bit.
        let run = |with_qos: bool| -> Vec<f64> {
            let p = hot_fs(2);
            if with_qos {
                p.enable_qos(QosConfig::default(), vec![0, 0]).unwrap();
            }
            let id = p.create("/f").unwrap();
            let chunk = vec![5u8; 300_000];
            let mut out = Vec::new();
            for i in 0..6u64 {
                out.push(
                    p.write_at(id, (i % 2) as usize, i * 300_000, &chunk, 0.0)
                        .unwrap(),
                );
            }
            let mut buf = vec![0u8; 100_000];
            out.push(p.read_at(id, 1, 0, &mut buf, out[5]).unwrap());
            out
        };
        let off = run(false);
        let on = run(true);
        for (a, b) in off.iter().zip(&on) {
            assert_eq!(a.to_bits(), b.to_bits(), "direct {a} vs qos-on {b}");
        }
    }

    #[test]
    fn token_bucket_slows_a_metered_tenant_only() {
        let p = hot_fs(2);
        p.enable_qos(
            QosConfig {
                // Tenant 0 capped at 1 MB/s with a 64 KB burst.
                token_buckets: vec![Some((1.0e6, 65536.0)), None],
                ..Default::default()
            },
            vec![0, 1],
        )
        .unwrap();
        let id = p.create("/f").unwrap();
        let data = vec![9u8; 1 << 20];
        let metered = p.write_at(id, 0, 0, &data, 0.0).unwrap();
        let free = p.write_at(id, 1, 1 << 20, &data, 0.0).unwrap();
        // ~1 MB at 1 MB/s ⇒ close to a second of admission wait.
        assert!(metered > 0.9, "metered tenant finished at {metered}");
        assert!(free < 0.5, "unmetered tenant dragged to {free}");
        assert!(p.tenant_report()[0].throttle_wait > 0.9);
    }

    #[test]
    fn gateway_batching_coalesces_small_write_overheads() {
        let run = |window: f64| -> f64 {
            // Metadata-heavy regime: per-request overhead dominates OST
            // service, which is exactly where gateway batching pays.
            let cfg = PfsConfig {
                num_osts: 1,
                stripe_count: 1,
                ost_service: 1.0e-5,
                ..Default::default()
            };
            let p = Pfs::new(1, cfg).unwrap();
            p.enable_qos(
                QosConfig {
                    batch_window: window,
                    batch_threshold: 4096,
                    batched_overhead: 1.0e-6,
                    ..Default::default()
                },
                vec![0],
            )
            .unwrap();
            let id = p.create("/f").unwrap();
            let mut t = 0.0;
            for i in 0..200u64 {
                t = p.write_at(id, 0, i * 64, &[0u8; 64], t).unwrap();
            }
            t
        };
        let unbatched = run(0.0);
        let batched = run(5.0e-3);
        assert!(
            batched < unbatched * 0.6,
            "batching must absorb per-RPC overhead: {batched} vs {unbatched}"
        );
    }

    #[test]
    fn drain_clients_beyond_the_map_bill_to_tenant_zero() {
        let p = hot_fs(3);
        p.enable_qos(QosConfig::default(), vec![0, 1]).unwrap();
        let id = p.create("/f").unwrap();
        p.write_at(id, 2, 0, &[1u8; 128], 0.0).unwrap();
        assert_eq!(p.tenant_report()[0].bytes_written, 128);
    }

    #[test]
    fn read_bytes_serves_data_with_integrity_but_no_cost() {
        let p = hot_fs(1);
        let id = p.create("/f").unwrap();
        p.write_at(id, 0, 0, b"staged data", 0.0).unwrap();
        let rpcs_before = p.stats.snapshot().read_rpcs;
        let mut buf = vec![0u8; 6];
        p.read_bytes(id, 0, &mut buf).unwrap();
        assert_eq!(&buf, b"staged");
        assert_eq!(p.stats.snapshot().read_rpcs, rpcs_before);
        let mut long = vec![0u8; 64];
        assert!(matches!(
            p.read_bytes(id, 0, &mut long),
            Err(PfsError::ReadPastEof { .. })
        ));
    }

    /// OST `ost` runs `factor`× slow continuously until `until`.
    fn flaky_engine(ost: usize, factor: f64, until: f64) -> Arc<chaos::ChaosEngine> {
        chaos::FaultPlan::new(7)
            .with(chaos::Fault::FlakyOst {
                ost,
                factor,
                period: 0.01,
                duty: 1.0,
                from: 0.0,
                until,
            })
            .build()
            .unwrap()
    }

    fn gray_cfg() -> PfsConfig {
        PfsConfig {
            stripe_size: 128,
            stripe_count: 4,
            num_osts: 4,
            ..Default::default()
        }
    }

    #[test]
    fn sustained_slowdown_trips_breaker_and_writes_route_around() {
        let p = Pfs::new(1, gray_cfg()).unwrap();
        p.attach_chaos(flaky_engine(0, 10.0, 100.0)).unwrap();
        p.enable_health(HealthConfig {
            min_samples: 4,
            open_secs: 50.0,
            ..Default::default()
        })
        .unwrap();
        let id = p.create("/f").unwrap();
        let data = [7u8; 128];
        let mut t = 0.0;
        for _ in 0..8 {
            // Stripe 0 lives on OST 0, the flaky one.
            t = p.write_at(id, 0, 0, &data, t).unwrap();
        }
        let s = p.health_report().unwrap();
        assert!(
            s.breaker_opens >= 1,
            "a sustained 10x slowdown must trip the breaker: {s:?}"
        );
        assert!(matches!(s.osts[0].state, Breaker::Open { .. }));
        assert!(s.degraded_writes >= 1 && s.degraded_bytes >= 128);
        assert_eq!(s.relocated_live, 1, "stripe 0 must be relocated");
        // Reads of the relocated extent are served by its holder and still
        // return the authoritative bytes.
        let mut buf = [0u8; 128];
        p.read_at(id, 0, 0, &mut buf, t).unwrap();
        assert_eq!(buf, data);
    }

    #[test]
    fn rebuild_migrates_relocated_extents_home_bit_identical() {
        let p = Pfs::new(1, gray_cfg()).unwrap();
        p.attach_chaos(flaky_engine(0, 10.0, 0.5)).unwrap();
        p.enable_health(HealthConfig {
            min_samples: 4,
            ..Default::default()
        })
        .unwrap();
        // Fault-free twin: same writes, no chaos, no health.
        let q = Pfs::new(1, gray_cfg()).unwrap();
        let id = p.create("/f").unwrap();
        let qid = q.create("/f").unwrap();
        // Checkpoint-style rounds across 8 stripes (stripes 0 and 4 live on
        // the flaky OST 0) until the breaker trips and relocates them.
        let data: Vec<u8> = (0..1024u32).map(|i| (i % 239) as u8 + 1).collect();
        let mut t = 0.0;
        for _ in 0..8 {
            t = p.write_at(id, 0, 0, &data, t).unwrap();
            q.write_at(qid, 0, 0, &data, t).unwrap();
        }
        let s = p.health_report().unwrap();
        assert!(s.relocated_live >= 1, "flaky stripes must relocate: {s:?}");
        // The fault window has closed; a write to a fresh OST-0 stripe is
        // the half-open probe that re-closes the breaker.
        let probe_t = 1.0_f64.max(t);
        let tail = [9u8; 128];
        p.write_at(id, 0, 1024, &tail, probe_t).unwrap();
        q.write_at(qid, 0, 1024, &tail, probe_t).unwrap();
        assert!(matches!(
            p.health_report().unwrap().osts[0].state,
            Breaker::Closed
        ));
        // Rebuild drains the relocation map in one pass.
        let rep = p.rebuild(probe_t + 1.0).unwrap();
        assert_eq!(rep.remaining, 0, "closed home must accept every extent");
        assert!(rep.rebuilt_extents >= 1);
        assert!(rep.completed_at > probe_t + 1.0, "migration costs time");
        let s = p.health_report().unwrap();
        assert_eq!(s.relocated_live, 0);
        assert_eq!(s.rebuilt_extents, rep.rebuilt_extents);
        // Post-rebuild content is bit-identical to the fault-free twin.
        assert_eq!(p.snapshot_file(id).unwrap(), q.snapshot_file(qid).unwrap());
        let mut buf = vec![0u8; 1152];
        p.read_at(id, 0, 0, &mut buf, probe_t + 2.0).unwrap();
        assert_eq!(&buf[..1024], &data[..]);
        assert_eq!(&buf[1024..], &tail[..]);
    }

    #[test]
    fn hedged_read_beats_plain_read_when_home_is_quarantined() {
        // Twin instances with identical chaos + health + write history; one
        // reads plain, the other hedged.
        let mk = || {
            let p = Pfs::new(1, gray_cfg()).unwrap();
            p.attach_chaos(flaky_engine(0, 10.0, 100.0)).unwrap();
            p.enable_health(HealthConfig {
                min_samples: 4,
                open_secs: 50.0,
                ..Default::default()
            })
            .unwrap();
            let id = p.create("/f").unwrap();
            // Stripe 0 is written once, pre-trip, and stays home on OST 0.
            let mut t = p.write_at(id, 0, 0, &[1u8; 128], 0.0).unwrap();
            // Writes to stripe 4 (also OST 0) trip the breaker; stripe 0
            // itself stays un-relocated so reads still target the sick home.
            for _ in 0..8 {
                t = p.write_at(id, 0, 512, &[2u8; 128], t).unwrap();
            }
            assert!(matches!(
                p.health_report().unwrap().osts[0].state,
                Breaker::Open { .. }
            ));
            (p, id, t)
        };
        let (plain, pid, t0) = mk();
        let (hedged, hid, t1) = mk();
        assert_eq!(t0, t1, "twins must share history");
        let mut a = [0u8; 128];
        let mut b = [0u8; 128];
        hedged.hedge_scope_begin(0);
        let t_plain = plain.read_at(pid, 0, 0, &mut a, t0).unwrap();
        let t_hedged = hedged.read_at_hedged(hid, 0, 0, &mut b, t0).unwrap();
        assert_eq!(a, b);
        assert!(
            t_hedged < t_plain,
            "hedge at a healthy buddy must beat the 10x-slow home: {t_hedged} vs {t_plain}"
        );
        let s = hedged.health_report().unwrap();
        assert_eq!(s.hedges_issued, 1);
        assert_eq!(s.hedge_wins, 1);
        assert_eq!(s.hedge_waste, 0);
        assert_eq!(plain.health_report().unwrap().hedges_issued, 0);
    }

    #[test]
    fn health_attached_but_healthy_is_bit_identical_to_health_off() {
        let run = |health: bool| {
            let p = Pfs::new(2, gray_cfg()).unwrap();
            if health {
                p.enable_health(HealthConfig::default()).unwrap();
                p.hedge_scope_begin(0);
            }
            let id = p.create("/f").unwrap();
            let data: Vec<u8> = (0..2048u32).map(|i| (i * 31 % 251) as u8).collect();
            let t = p.write_at(id, 0, 0, &data, 0.0).unwrap();
            let mut buf = vec![0u8; 2048];
            // Hedged entry point too: below hedge_min_samples it must be a
            // pure pass-through.
            let t = if health {
                p.read_at_hedged(id, 1, 0, &mut buf, t).unwrap()
            } else {
                p.read_at(id, 1, 0, &mut buf, t).unwrap()
            };
            let t = p.write_rmw(id, 0, 512, 64, &mut |b| b.fill(3), t).unwrap();
            (t, buf, p.snapshot_file(id).unwrap(), p)
        };
        let (t_off, buf_off, snap_off, _) = run(false);
        let (t_on, buf_on, snap_on, p_on) = run(true);
        assert_eq!(
            t_off.to_bits(),
            t_on.to_bits(),
            "virtual times must match exactly"
        );
        assert_eq!(buf_off, buf_on);
        assert_eq!(snap_off, snap_on);
        let s = p_on.health_report().unwrap();
        assert_eq!(s.breaker_opens, 0);
        assert_eq!(s.hedges_issued, 0);
        assert_eq!(s.degraded_writes, 0);
        assert!(s.osts.iter().all(|o| matches!(o.state, Breaker::Closed)));
    }

    #[test]
    fn rebuild_defers_while_home_breaker_is_open() {
        let p = Pfs::new(1, gray_cfg()).unwrap();
        p.attach_chaos(flaky_engine(0, 10.0, 100.0)).unwrap();
        p.enable_health(HealthConfig {
            min_samples: 4,
            open_secs: 50.0,
            ..Default::default()
        })
        .unwrap();
        let id = p.create("/f").unwrap();
        let mut t = 0.0;
        for _ in 0..8 {
            t = p.write_at(id, 0, 0, &[5u8; 128], t).unwrap();
        }
        assert!(p.health_report().unwrap().relocated_live >= 1);
        let rep = p.rebuild(t).unwrap();
        assert_eq!(rep.rebuilt_extents, 0, "open home must defer rebuild");
        assert_eq!(rep.remaining, p.health_report().unwrap().relocated_live);
        // Without a health layer, rebuild is a typed error.
        let bare = Pfs::new(1, gray_cfg()).unwrap();
        assert!(matches!(bare.rebuild(0.0), Err(PfsError::Config(_))));
    }
}
