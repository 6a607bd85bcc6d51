//! The facility orchestrator: many tenants, one simulation, one PFS.
//!
//! [`run_facility`] assembles the whole service from one config: it
//! sizes a shared [`pfs::Pfs`] (tenant ranks plus burst-buffer drain
//! agents), attaches the QoS layer and fault plan, precomputes every
//! tenant's seeded arrival schedule, and runs all tenants' ranks in a
//! single [`mpisim::run`] on whichever backend the caller's environment
//! picks. The QoS and burst-buffer state is shared mutable state keyed by
//! call order; both substrates resume ranks one at a time in the same
//! deterministic `(virtual clock, rank)` order, so that order — and hence
//! the whole report — is a pure function of the config on either.
//!
//! Each tenant's ranks form a contiguous block of the world and split
//! into a tenant communicator; a single-tenant facility skips the split
//! and runs on the world communicator so its cost structure is
//! bit-identical to a direct `mpisim::run` of the same job (the
//! zero-cost-off contract, pinned in `tests/facility.rs`).

use crate::arrivals;
use crate::burst::{BurstBuffer, BurstConfig, BurstStats};
use crate::job::{self, JobSpec, Style};
use crate::FacilityError;
use mpisim::metrics::{Hist, Registry};
use mpisim::trace::PhaseTotals;
use mpisim::{Phase, Rank, RankStats, SimConfig};
use parking_lot::Mutex;
use pfs::qos::{Discipline, QosConfig};
use pfs::{Pfs, PfsConfig, TenantUsage};
use std::collections::HashMap;
use std::sync::Arc;

/// Facility-wide OST queue discipline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum QosMode {
    /// No QoS layer at all: requests take the exact pre-facility cost
    /// path (bit-identical arithmetic).
    Off,
    /// Tagging, admission, and batching — but OSTs serve in plain
    /// arrival order. The ablation baseline.
    Fifo,
    /// Weighted fair sharing of each OST across tenants.
    #[default]
    FairShare,
}

/// One tenant: a rank group with a workload shape and a QoS identity.
#[derive(Debug, Clone)]
pub struct TenantSpec {
    pub name: String,
    pub ranks: usize,
    pub style: Style,
    /// Fair-share weight (> 0).
    pub weight: f64,
    /// Jobs this tenant submits.
    pub jobs: usize,
    pub bytes_per_rank: u64,
    /// Access granularity; must divide `bytes_per_rank`.
    pub access: u64,
    /// Open-loop Poisson arrival rate in jobs/s (0 = all jobs at t=0).
    pub arrival_rate: f64,
    /// Read every written block back and verify the pattern.
    pub read_back: bool,
    /// Stage writes through a dedicated burst buffer.
    pub burst_buffer: bool,
    /// Token-bucket admission `(rate bytes/s, burst bytes)`.
    pub token_bucket: Option<(f64, f64)>,
}

impl TenantSpec {
    /// A tenant with sane defaults: TCIO-style, weight 1, one job of
    /// 1 MiB per rank in 64 KiB blocks, no metering, no burst buffer.
    pub fn new(name: &str, ranks: usize) -> TenantSpec {
        TenantSpec {
            name: name.to_string(),
            ranks,
            style: Style::Tcio,
            weight: 1.0,
            jobs: 1,
            bytes_per_rank: 1 << 20,
            access: 64 << 10,
            arrival_rate: 0.0,
            read_back: false,
            burst_buffer: false,
            token_bucket: None,
        }
    }
}

/// Whole-facility configuration.
#[derive(Debug, Clone)]
pub struct FacilityConfig {
    pub tenants: Vec<TenantSpec>,
    pub qos: QosMode,
    /// Seed for every arrival schedule.
    pub seed: u64,
    pub pfs: PfsConfig,
    /// Burst-buffer sizing, shared by every buffered tenant.
    pub burst: BurstConfig,
    /// Gateway batching window in seconds (0 = no batching).
    pub batch_window: f64,
    pub chaos: Option<Arc<chaos::ChaosEngine>>,
    /// Collect per-rank metric histograms and build a [`Registry`].
    pub metrics: bool,
    /// Attach the gray-failure defense layer to the shared file system
    /// (per-OST health tracking, circuit breakers, degraded-mode write
    /// relocation) and serve job read-back through hedged reads. `None`
    /// (the default) leaves the facility bit-identical to a defenseless
    /// run.
    pub health: Option<pfs::HealthConfig>,
}

impl Default for FacilityConfig {
    fn default() -> Self {
        FacilityConfig {
            tenants: Vec::new(),
            qos: QosMode::FairShare,
            seed: 0x5EED_F0CC,
            pfs: PfsConfig::default(),
            burst: BurstConfig::default(),
            batch_window: 0.0,
            chaos: None,
            metrics: false,
            health: None,
        }
    }
}

impl FacilityConfig {
    pub fn validate(&self) -> Result<(), FacilityError> {
        if self.tenants.is_empty() {
            return Err(FacilityError::Config("no tenants".into()));
        }
        for t in &self.tenants {
            if t.ranks == 0 {
                return Err(FacilityError::Config(format!(
                    "tenant {} has 0 ranks",
                    t.name
                )));
            }
            if t.jobs == 0 {
                return Err(FacilityError::Config(format!(
                    "tenant {} has 0 jobs",
                    t.name
                )));
            }
            if t.access == 0 || t.bytes_per_rank == 0 || t.bytes_per_rank % t.access != 0 {
                return Err(FacilityError::Config(format!(
                    "tenant {}: bytes_per_rank {} must be a positive multiple of access {}",
                    t.name, t.bytes_per_rank, t.access
                )));
            }
            // Past these bounds two files' patterns overlap (see
            // `job::pattern_byte`), and a misplaced byte could verify.
            let file_bytes = (t.ranks as u64).checked_mul(t.bytes_per_rank);
            if file_bytes.is_none_or(|b| b > job::PATTERN_RUN) {
                return Err(FacilityError::Config(format!(
                    "tenant {}: a file of {} ranks x {} bytes passes the pattern's {} unique offsets",
                    t.name,
                    t.ranks,
                    t.bytes_per_rank,
                    job::PATTERN_RUN
                )));
            }
            if t.jobs as u64 > job::PATTERN_JOBS {
                return Err(FacilityError::Config(format!(
                    "tenant {}: {} jobs pass the pattern's {} unique jobs",
                    t.name,
                    t.jobs,
                    job::PATTERN_JOBS
                )));
            }
            if !t.weight.is_finite() || t.weight <= 0.0 {
                return Err(FacilityError::Config(format!(
                    "tenant {}: bad weight {}",
                    t.name, t.weight
                )));
            }
            if !t.arrival_rate.is_finite() || t.arrival_rate < 0.0 {
                return Err(FacilityError::Config(format!(
                    "tenant {}: bad arrival rate {}",
                    t.name, t.arrival_rate
                )));
            }
        }
        self.burst.validate().map_err(FacilityError::Config)?;
        Ok(())
    }
}

/// One completed job in the facility log (group-level record).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JobRecord {
    pub tenant: usize,
    pub job: usize,
    /// Scheduled (open-loop) arrival instant.
    pub arrival: f64,
    /// Instant the whole group finished the job.
    pub finish: f64,
    pub bytes_written: u64,
    pub bytes_read: u64,
}

impl JobRecord {
    /// Queue wait + service, the tenant-visible job latency.
    pub fn latency(&self) -> f64 {
        (self.finish - self.arrival).max(0.0)
    }
}

/// One tenant's slice of the facility report.
#[derive(Debug, Clone)]
pub struct TenantOutcome {
    pub name: String,
    pub tenant: usize,
    /// World ranks of this tenant's group.
    pub ranks: Vec<usize>,
    pub jobs: usize,
    pub bytes_written: u64,
    pub bytes_read: u64,
    pub first_arrival: f64,
    pub last_finish: f64,
    /// Aggregate write throughput over the tenant's active span, MB/s.
    pub throughput_mbs: f64,
    /// Job-latency histogram in nanoseconds (p50/p95/p99 via [`Hist`]).
    pub latency: Hist,
    /// Per-tenant PFS usage (present when QoS is on).
    pub usage: Option<TenantUsage>,
    /// Burst-buffer accounting (present when the tenant staged).
    pub burst: Option<BurstStats>,
    /// Merged runtime stats of the tenant's ranks.
    pub stats: RankStats,
    /// Merged compute/exchange/io/sync clock attribution.
    pub phases: PhaseTotals,
}

impl TenantOutcome {
    pub fn p50_ns(&self) -> u64 {
        self.latency.p50()
    }
    pub fn p95_ns(&self) -> u64 {
        self.latency.p95()
    }
    pub fn p99_ns(&self) -> u64 {
        self.latency.p99()
    }
}

/// Outcome of one facility run.
pub struct FacilityReport {
    pub makespan: f64,
    pub tenants: Vec<TenantOutcome>,
    /// Every job, sorted by (tenant, job).
    pub jobs: Vec<JobRecord>,
    /// Facility-wide merged rank stats.
    pub stats: RankStats,
    /// Metrics registry (present when `FacilityConfig::metrics`).
    pub registry: Option<Registry>,
    /// Gray-failure defense counters (present when
    /// `FacilityConfig::health` attached the layer).
    pub health: Option<pfs::HealthSnapshot>,
    /// The shared file system the run wrote to, for post-hoc inspection
    /// (byte-identity and cross-tenant bleed checks in `tests/`).
    pub fs: Arc<Pfs>,
}

impl FacilityReport {
    pub fn total_bytes_written(&self) -> u64 {
        self.tenants.iter().map(|t| t.bytes_written).sum()
    }
}

/// Run the whole facility. Deterministic: the report is a pure function
/// of `cfg`.
pub fn run_facility(cfg: &FacilityConfig) -> Result<FacilityReport, FacilityError> {
    cfg.validate()?;
    let nranks: usize = cfg.tenants.iter().map(|t| t.ranks).sum();
    let ntenants = cfg.tenants.len();
    let single = ntenants == 1;

    // Contiguous rank blocks per tenant, then one drain client per
    // buffered tenant at the tail of the client space.
    let mut tenant_of_client: Vec<u32> = Vec::with_capacity(nranks);
    for (t, spec) in cfg.tenants.iter().enumerate() {
        tenant_of_client.extend(std::iter::repeat_n(t as u32, spec.ranks));
    }
    let mut drain_of_tenant: HashMap<usize, usize> = HashMap::new();
    for (t, spec) in cfg.tenants.iter().enumerate() {
        if spec.burst_buffer {
            drain_of_tenant.insert(t, tenant_of_client.len());
            tenant_of_client.push(t as u32);
        }
    }
    let nclients = tenant_of_client.len();

    let fs = Pfs::new(nclients, cfg.pfs.clone())?;
    if let Some(engine) = &cfg.chaos {
        fs.attach_chaos(Arc::clone(engine))?;
    }
    match cfg.qos {
        QosMode::Off => {}
        mode => {
            let qcfg = QosConfig {
                discipline: if mode == QosMode::Fifo {
                    Discipline::Fifo
                } else {
                    Discipline::FairShare
                },
                weights: cfg.tenants.iter().map(|t| t.weight).collect(),
                token_buckets: cfg.tenants.iter().map(|t| t.token_bucket).collect(),
                batch_window: cfg.batch_window,
                ..QosConfig::default()
            };
            fs.enable_qos(qcfg, tenant_of_client.clone())?;
        }
    }
    if let Some(hcfg) = &cfg.health {
        fs.enable_health(hcfg.clone())?;
    }

    let arrivals: Arc<Vec<Vec<f64>>> = Arc::new(
        cfg.tenants
            .iter()
            .enumerate()
            .map(|(t, spec)| arrivals::schedule(cfg.seed, t, spec.arrival_rate, spec.jobs))
            .collect(),
    );
    let mut buffers: HashMap<usize, Arc<BurstBuffer>> = HashMap::new();
    for (&t, &client) in &drain_of_tenant {
        buffers.insert(
            t,
            Arc::new(BurstBuffer::new(cfg.burst, client).map_err(FacilityError::Config)?),
        );
    }
    let buffers = Arc::new(buffers);
    let tenants = Arc::new(cfg.tenants.clone());
    let tenant_of_rank: Arc<Vec<u32>> = Arc::new(tenant_of_client[..nranks].to_vec());

    let sim = SimConfig {
        chaos: cfg.chaos.clone(),
        metrics: cfg.metrics,
        ..SimConfig::default()
    };
    let fs_body = Arc::clone(&fs);
    let buffers_body = Arc::clone(&buffers);
    let rep = mpisim::run(nranks, sim, move |rank: &mut Rank| {
        let log = rank.shared_state(|| Mutex::new(Vec::<JobRecord>::new()))?;
        let t = tenant_of_rank[rank.rank()] as usize;
        // A single tenant runs in the world itself — no `split` call, so
        // the run stays bit-identical to a direct `mpisim::run` of the same
        // body (the zero-cost-off contract).
        let comm = if single {
            rank.world()
        } else {
            rank.split(t as u64)?
        };
        let spec = &tenants[t];
        let bb = buffers_body.get(&t).map(|b| b.as_ref());
        for j in 0..spec.jobs {
            let arrival = arrivals[t][j];
            if rank.now() < arrival {
                rank.with_phase(Phase::Sync, |rk| rk.sync_to(arrival));
            }
            rank.barrier_in(&comm)?;
            let jspec = JobSpec {
                file: format!("/tenant{t}/job{j}.dat"),
                style: spec.style,
                bytes_per_rank: spec.bytes_per_rank,
                access: spec.access,
                read_back: spec.read_back,
            };
            job::run_job(rank, &comm, &fs_body, bb, t as u32, j as u32, &jspec)?;
            // run_job ends with a group barrier, so every member's clock
            // agrees on the finish instant; the leader records the job.
            if comm.group_rank() == 0 {
                let total = spec.bytes_per_rank * spec.ranks as u64;
                log.lock().push(JobRecord {
                    tenant: t,
                    job: j,
                    arrival,
                    finish: rank.now(),
                    bytes_written: total,
                    bytes_read: if spec.read_back { total } else { 0 },
                });
            }
        }
        Ok(log)
    })
    .map_err(FacilityError::Sim)?;

    // Assemble the report outside the simulation.
    let mut jobs: Vec<JobRecord> = rep.results[0].lock().clone();
    jobs.sort_by_key(|r| (r.tenant, r.job));

    let usage = fs.tenant_report();
    let mut outcomes = Vec::with_capacity(ntenants);
    let mut base = 0usize;
    for (t, spec) in cfg.tenants.iter().enumerate() {
        let ranks: Vec<usize> = (base..base + spec.ranks).collect();
        base += spec.ranks;
        let mine: Vec<&JobRecord> = jobs.iter().filter(|r| r.tenant == t).collect();
        let mut latency = Hist::default();
        let mut bytes_written = 0;
        let mut bytes_read = 0;
        let mut first_arrival = f64::INFINITY;
        let mut last_finish: f64 = 0.0;
        for r in &mine {
            latency.observe((r.latency() * 1e9) as u64);
            bytes_written += r.bytes_written;
            bytes_read += r.bytes_read;
            first_arrival = first_arrival.min(r.arrival);
            last_finish = last_finish.max(r.finish);
        }
        let span = last_finish - first_arrival;
        let throughput_mbs = if span > 0.0 {
            bytes_written as f64 / span / 1.0e6
        } else {
            0.0
        };
        outcomes.push(TenantOutcome {
            name: spec.name.clone(),
            tenant: t,
            jobs: mine.len(),
            bytes_written,
            bytes_read,
            first_arrival: if first_arrival.is_finite() {
                first_arrival
            } else {
                0.0
            },
            last_finish,
            throughput_mbs,
            latency,
            usage: usage.get(t).copied(),
            burst: buffers.get(&t).map(|b| b.stats()),
            stats: rep.stats_for(&ranks),
            phases: rep.phase_totals_for(&ranks),
            ranks,
        });
    }

    let registry = if cfg.metrics {
        let mut reg = Registry::new();
        reg.export_sim_report(&rep);
        fs.export_metrics(&mut reg);
        for o in &outcomes {
            let p = format!("facility_tenant{}", o.tenant);
            reg.add_counter(&format!("{p}_jobs_total"), o.jobs as u64);
            reg.add_counter(&format!("{p}_bytes_written_total"), o.bytes_written);
            reg.add_counter(&format!("{p}_bytes_read_total"), o.bytes_read);
            if !o.latency.is_empty() {
                reg.insert_hist(&format!("{p}_job_latency_ns"), o.latency.clone());
            }
        }
        Some(reg)
    } else {
        None
    };

    Ok(FacilityReport {
        makespan: rep.makespan,
        tenants: outcomes,
        jobs,
        stats: rep.aggregate_stats(),
        registry,
        health: fs.health_report(),
        fs,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_validation_rejects_bad_tenants() {
        let empty = FacilityConfig::default();
        assert!(empty.validate().is_err(), "no tenants");
        let mut one_bad = FacilityConfig::default();
        let mut t = TenantSpec::new("a", 2);
        t.access = 3000; // does not divide 1 MiB
        one_bad.tenants.push(t);
        assert!(one_bad.validate().is_err());
        let mut zero_jobs = FacilityConfig::default();
        let mut t = TenantSpec::new("a", 2);
        t.jobs = 0;
        zero_jobs.tenants.push(t);
        assert!(zero_jobs.validate().is_err());
    }

    #[test]
    fn smoke_two_tenants_share_one_pfs() {
        let mut cfg = FacilityConfig::default();
        let mut a = TenantSpec::new("batch", 4);
        a.style = Style::Tcio;
        a.jobs = 2;
        a.bytes_per_rank = 256 << 10;
        a.read_back = true;
        let mut b = TenantSpec::new("interactive", 2);
        b.style = Style::Independent;
        b.bytes_per_rank = 64 << 10;
        b.access = 16 << 10;
        cfg.tenants = vec![a, b];
        let rep = run_facility(&cfg).unwrap();
        assert_eq!(rep.tenants.len(), 2);
        assert_eq!(rep.jobs.len(), 3);
        // Byte conservation per tenant.
        assert_eq!(rep.tenants[0].bytes_written, 2 * 4 * (256 << 10));
        assert_eq!(rep.tenants[0].bytes_read, rep.tenants[0].bytes_written);
        assert_eq!(rep.tenants[1].bytes_written, 2 * (64 << 10));
        // QoS attribution matches the job ledger.
        let u0 = rep.tenants[0].usage.unwrap();
        assert_eq!(u0.bytes_written, rep.tenants[0].bytes_written);
        assert!(rep.makespan > 0.0);
        assert_eq!(rep.tenants[0].ranks, vec![0, 1, 2, 3]);
        assert_eq!(rep.tenants[1].ranks, vec![4, 5]);
    }

    #[test]
    fn burst_buffer_tenant_stages_and_drains() {
        let mut cfg = FacilityConfig::default();
        let mut t = TenantSpec::new("ckpt", 2);
        t.burst_buffer = true;
        t.style = Style::Tcio;
        t.read_back = true;
        cfg.tenants = vec![t, TenantSpec::new("other", 2)];
        let rep = run_facility(&cfg).unwrap();
        let bb = rep.tenants[0].burst.unwrap();
        assert!(bb.staged_writes > 0, "writes went through the buffer");
        assert!(rep.tenants[1].burst.is_none());
        // Drain traffic billed to the owning tenant, not tenant "other".
        let u1 = rep.tenants[1].usage.unwrap();
        assert_eq!(u1.bytes_written, rep.tenants[1].bytes_written);
    }

    #[test]
    fn metrics_registry_carries_per_tenant_rows() {
        let cfg = FacilityConfig {
            metrics: true,
            tenants: vec![TenantSpec::new("a", 2), TenantSpec::new("b", 2)],
            ..FacilityConfig::default()
        };
        let rep = run_facility(&cfg).unwrap();
        let reg = rep.registry.unwrap();
        assert_eq!(reg.counter("facility_tenant0_jobs_total"), Some(1));
        assert_eq!(
            reg.counter("facility_tenant1_bytes_written_total"),
            Some(2 << 20)
        );
    }
}
