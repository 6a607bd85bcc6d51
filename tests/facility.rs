//! Facility-level integration tests: the multi-tenant service's three
//! contracts, pinned end to end.
//!
//! * **Zero cost when off** — a single-tenant facility with QoS off is
//!   bit-identical (makespan bits, every stat counter, every file byte)
//!   to a direct `mpisim::run` of the same job body against a bare PFS.
//!   The facility abstraction may not perturb the cost model it wraps.
//! * **Seeded determinism** — across many seeds, a facility run is a
//!   pure function of its config: arrival schedules, per-tenant byte
//!   totals, and virtual clocks reproduce exactly, bytes are conserved,
//!   and no tenant's file ever contains another tenant's pattern.
//! * **QoS isolation** — under `plans/tenant_storm.toml` (a lock storm
//!   pinned to the storm tenant's client range), weighted fair sharing
//!   keeps the victims' job latency inside a fixed tolerance band of
//!   the storm-free run, while FIFO demonstrably blows through it.
//! * **Typed failure** — a crash-stopped peer fails a run with a typed
//!   error at every instant, and a tenant past the content pattern's
//!   uniqueness bounds is refused before it runs.
//! * **Pinned bits** — a small two-tenant report (makespan bits, job
//!   records, metrics registry, file hashes) is pinned in
//!   `tests/golden/facility_fingerprint.txt`; under
//!   `MPISIM_BACKEND=thread` the same file checks the thread substrate.

use bench::perfgate::{check_golden, fnv1a};
use facility::{
    job, run_facility, FacilityConfig, FacilityError, JobSpec, QosMode, Style, TenantSpec,
};
use mpisim::{SimConfig, SimError};
use std::fmt::Write as _;
use std::sync::Arc;

// ---------------------------------------------------------------------
// Zero cost when off
// ---------------------------------------------------------------------

#[test]
fn qos_off_single_tenant_is_bit_identical_to_a_direct_run() {
    const RANKS: usize = 4;
    const JOBS: usize = 2;
    const BPR: u64 = 256 << 10;
    const ACCESS: u64 = 64 << 10;

    let mut t = TenantSpec::new("solo", RANKS);
    t.style = Style::Tcio;
    t.jobs = JOBS;
    t.bytes_per_rank = BPR;
    t.access = ACCESS;
    t.read_back = true;
    let cfg = FacilityConfig {
        tenants: vec![t],
        qos: QosMode::Off,
        ..FacilityConfig::default()
    };
    let fac = run_facility(&cfg).unwrap();

    // The same jobs, hand-rolled on a bare simulator + PFS: no facility,
    // no QoS hooks, no burst buffer. The body mirrors the orchestrator's
    // single-tenant path exactly (shared_state rendezvous, world
    // communicator, per-job barrier) so any cost the facility added
    // would surface as a bit difference.
    let fs = pfs::Pfs::new(RANKS, pfs::PfsConfig::default()).unwrap();
    let fs2 = Arc::clone(&fs);
    let rep = mpisim::run(RANKS, SimConfig::default(), move |rk| {
        let _log = rk.shared_state(|| ())?;
        let comm = rk.world();
        for j in 0..JOBS {
            rk.barrier_in(&comm)?;
            let spec = JobSpec {
                file: format!("/tenant0/job{j}.dat"),
                style: Style::Tcio,
                bytes_per_rank: BPR,
                access: ACCESS,
                read_back: true,
            };
            job::run_job(rk, &comm, &fs2, None, 0, j as u32, &spec)?;
        }
        Ok(())
    })
    .unwrap();

    assert_eq!(
        fac.makespan.to_bits(),
        rep.makespan.to_bits(),
        "facility makespan {} != direct makespan {}",
        fac.makespan,
        rep.makespan
    );
    assert_eq!(fac.stats, rep.aggregate_stats(), "stat counters diverged");
    for j in 0..JOBS {
        let name = format!("/tenant0/job{j}.dat");
        let fid = fac.fs.open(&name).unwrap();
        let did = fs.open(&name).unwrap();
        assert_eq!(
            fac.fs.snapshot_file(fid).unwrap(),
            fs.snapshot_file(did).unwrap(),
            "file bytes diverged for {name}"
        );
    }
}

// ---------------------------------------------------------------------
// Seeded determinism
// ---------------------------------------------------------------------

fn small_mixed_cfg(seed: u64) -> FacilityConfig {
    let mut a = TenantSpec::new("a", 2);
    a.style = Style::Tcio;
    a.jobs = 2;
    a.bytes_per_rank = 64 << 10;
    a.access = 16 << 10;
    a.arrival_rate = 200.0;
    let mut b = TenantSpec::new("b", 2);
    b.style = Style::Independent;
    b.jobs = 2;
    b.bytes_per_rank = 32 << 10;
    b.access = 8 << 10;
    b.arrival_rate = 200.0;
    b.read_back = true;
    let mut c = TenantSpec::new("c", 2);
    c.style = Style::Ocio;
    c.jobs = 1;
    c.bytes_per_rank = 64 << 10;
    c.access = 16 << 10;
    c.burst_buffer = true;
    FacilityConfig {
        tenants: vec![a, b, c],
        seed,
        ..FacilityConfig::default()
    }
}

#[test]
fn facility_runs_are_pure_functions_of_the_seed() {
    for round in 0..25u64 {
        let seed = 0xDE7E_0000 + round;
        let cfg = small_mixed_cfg(seed);
        let x = run_facility(&cfg).unwrap();
        let y = run_facility(&cfg).unwrap();

        // Identical virtual clocks and job logs, bit for bit.
        assert_eq!(x.makespan.to_bits(), y.makespan.to_bits(), "seed {seed}");
        assert_eq!(x.jobs.len(), y.jobs.len());
        for (jx, jy) in x.jobs.iter().zip(&y.jobs) {
            assert_eq!(jx.arrival.to_bits(), jy.arrival.to_bits(), "seed {seed}");
            assert_eq!(jx.finish.to_bits(), jy.finish.to_bits(), "seed {seed}");
        }
        assert_eq!(x.stats, y.stats, "seed {seed}");

        // Byte conservation: the ledger, the QoS attribution, and the
        // spec all agree on what each tenant wrote.
        for (t, spec) in cfg.tenants.iter().enumerate() {
            let expect = spec.bytes_per_rank * spec.ranks as u64 * spec.jobs as u64;
            assert_eq!(x.tenants[t].bytes_written, expect, "seed {seed} tenant {t}");
            let usage = x.tenants[t].usage.expect("qos on");
            assert_eq!(usage.bytes_written, expect, "seed {seed} tenant {t}");
        }

        // No cross-tenant bleed: every byte of every file is the owning
        // (tenant, job) pattern — any write landing in the wrong file
        // would leave a foreign pattern behind.
        for (t, spec) in cfg.tenants.iter().enumerate() {
            for j in 0..spec.jobs {
                let name = format!("/tenant{t}/job{j}.dat");
                let fid = x.fs.open(&name).unwrap();
                let bytes = x.fs.snapshot_file(fid).unwrap();
                assert_eq!(bytes.len() as u64, spec.bytes_per_rank * spec.ranks as u64);
                for (off, &byte) in bytes.iter().enumerate() {
                    let want = job::pattern_byte(t as u32, j as u32, off as u64);
                    assert_eq!(byte, want, "seed {seed} {name} byte {off} bled");
                }
            }
        }

        // Arrival schedules come from the seed alone.
        let again = facility::arrivals::schedule(seed, 0, 200.0, 2);
        let logged: Vec<f64> = x
            .jobs
            .iter()
            .filter(|r| r.tenant == 0)
            .map(|r| r.arrival)
            .collect();
        assert_eq!(again, logged, "seed {seed}");
    }
}

// ---------------------------------------------------------------------
// QoS isolation under the tenant storm plan
// ---------------------------------------------------------------------

/// The storm fleet: ranks 0-3 and 8-9 are well-behaved victims (weight
/// 2 — the entitled production tenants), ranks 4-7 are the storm tenant
/// `plans/tenant_storm.toml` targets (its `client_lock_storm` range is
/// [4, 7]). `heavy` switches the storm between a token background load
/// (the baseline) and a sustained small-piece convoy; everything else —
/// the victims' specs, their seeded arrival schedules, and the fault
/// plan — is identical in both variants, so any change in victim
/// latency between them is pure cross-tenant queueing interference.
fn storm_cfg(mode: QosMode, heavy: bool, plan: Arc<chaos::ChaosEngine>) -> FacilityConfig {
    let mut victim_a = TenantSpec::new("victim_a", 4);
    victim_a.style = Style::Tcio;
    victim_a.weight = 2.0;
    victim_a.jobs = 3;
    victim_a.bytes_per_rank = 256 << 10;
    victim_a.access = 64 << 10;
    victim_a.arrival_rate = 100.0;
    let mut storm = TenantSpec::new("storm", 4);
    storm.style = Style::Independent;
    storm.access = 16 << 10;
    if heavy {
        storm.jobs = 6;
        storm.bytes_per_rank = 1 << 20;
    } else {
        storm.jobs = 1;
        storm.bytes_per_rank = 16 << 10;
    }
    let mut victim_b = TenantSpec::new("victim_b", 2);
    victim_b.style = Style::Independent;
    victim_b.weight = 2.0;
    victim_b.jobs = 3;
    victim_b.bytes_per_rank = 64 << 10;
    victim_b.access = 16 << 10;
    victim_b.arrival_rate = 100.0;
    FacilityConfig {
        tenants: vec![victim_a, storm, victim_b],
        qos: mode,
        chaos: Some(plan),
        ..FacilityConfig::default()
    }
}

fn storm_engine() -> Arc<chaos::ChaosEngine> {
    let text = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/plans/tenant_storm.toml"
    ))
    .expect("committed storm plan");
    chaos::FaultPlan::parse(&text)
        .expect("storm plan parses")
        .build()
        .expect("storm plan validates")
}

/// Worst job latency across both victim tenants, in seconds.
fn victim_worst_latency(rep: &facility::FacilityReport) -> f64 {
    rep.jobs
        .iter()
        .filter(|r| r.tenant != 1)
        .map(|r| r.latency())
        .fold(0.0, f64::max)
}

#[test]
fn fair_share_bounds_victims_under_the_storm_plan_and_fifo_does_not() {
    // The inflation band the facility promises its victims: under fair
    // share, turning the storm tenant from a token background load into
    // a sustained convoy may not stretch the worst victim job latency
    // to more than BAND x its light-storm value. FIFO has no such
    // promise, and the same convoy pushes it well past the band — that
    // gap is the headline isolation result, so both halves are asserted
    // (a model change that "fixes" FIFO would silently erase the reason
    // fair share exists).
    const BAND: f64 = 2.0;

    let engine = storm_engine();
    let quiet_fair = victim_worst_latency(
        &run_facility(&storm_cfg(QosMode::FairShare, false, Arc::clone(&engine))).unwrap(),
    );
    let quiet_fifo = victim_worst_latency(
        &run_facility(&storm_cfg(QosMode::Fifo, false, Arc::clone(&engine))).unwrap(),
    );
    let storm_fair = victim_worst_latency(
        &run_facility(&storm_cfg(QosMode::FairShare, true, Arc::clone(&engine))).unwrap(),
    );
    let storm_fifo =
        victim_worst_latency(&run_facility(&storm_cfg(QosMode::Fifo, true, engine)).unwrap());

    assert!(
        storm_fair <= BAND * quiet_fair,
        "fair share failed its isolation band: storm {storm_fair:.5}s vs quiet {quiet_fair:.5}s"
    );
    assert!(
        storm_fifo > BAND * quiet_fifo,
        "FIFO unexpectedly held the band (storm {storm_fifo:.5}s vs quiet {quiet_fifo:.5}s): \
         the ablation no longer demonstrates anything"
    );
    assert!(
        storm_fair < storm_fifo,
        "fair share should beat FIFO under the storm: {storm_fair:.5}s vs {storm_fifo:.5}s"
    );
}

// ---------------------------------------------------------------------
// Whole-fleet smoke: the eight-tenant bench fleet end to end
// ---------------------------------------------------------------------

#[test]
fn the_standard_eight_tenant_fleet_runs_clean() {
    let cfg = FacilityConfig {
        tenants: bench::tenant::fleet(1, 50.0),
        metrics: true,
        ..FacilityConfig::default()
    };
    let rep = run_facility(&cfg).unwrap();
    assert_eq!(rep.tenants.len(), 8);
    assert!(rep.makespan > 0.0);
    let total: u64 = cfg
        .tenants
        .iter()
        .map(|t| t.bytes_per_rank * t.ranks as u64 * t.jobs as u64)
        .sum();
    assert_eq!(rep.total_bytes_written(), total);
    // Per-tenant attribution is complete: QoS usage rows for everyone,
    // burst stats for the staging tenant, registry rows for the scrape.
    assert!(rep.tenants.iter().all(|t| t.usage.is_some()));
    assert!(rep.tenants.iter().any(|t| t.burst.is_some()));
    let reg = rep.registry.as_ref().unwrap();
    for t in 0..8 {
        assert!(
            reg.counter(&format!("facility_tenant{t}_jobs_total"))
                .is_some(),
            "missing registry row for tenant {t}"
        );
    }
}

// ---------------------------------------------------------------------
// Gray-failure defense integration
// ---------------------------------------------------------------------

#[test]
fn health_layer_attached_but_healthy_facility_is_bit_identical() {
    // The defense stack obeys the same zero-cost-off contract as QoS:
    // attaching it to a healthy facility (no chaos) must not move the
    // makespan, any stat counter, or any job record — and every defense
    // counter must stay at zero.
    let bare = run_facility(&small_mixed_cfg(7)).unwrap();
    let defended = run_facility(&FacilityConfig {
        health: Some(pfs::HealthConfig::default()),
        ..small_mixed_cfg(7)
    })
    .unwrap();
    assert_eq!(
        bare.makespan.to_bits(),
        defended.makespan.to_bits(),
        "healthy defense layer perturbed the facility makespan"
    );
    assert_eq!(bare.stats, defended.stats, "stat counters diverged");
    assert_eq!(bare.jobs, defended.jobs, "job records diverged");
    assert!(bare.health.is_none(), "bare run must carry no snapshot");
    let h = defended.health.expect("defended run carries a snapshot");
    assert_eq!(
        (
            h.hedges_issued,
            h.breaker_opens,
            h.degraded_writes,
            h.probes
        ),
        (0, 0, 0, 0),
        "healthy facility must leave every defense counter at zero: {h:?}"
    );
}

#[test]
fn defended_facility_survives_a_flaky_ost_with_verified_read_back() {
    // A flaky OST inside the facility: breakers open, writes relocate,
    // and every tenant's read-back still verifies byte-for-byte (the
    // pattern check lives inside run_job, so a wrong byte fails the
    // run). The per-tenant makespan damage stays bounded relative to
    // the undefended facility under the same plan.
    let plan = chaos::FaultPlan::new(47).with(
        chaos::Effect::FlakyOst {
            ost: 0,
            factor: 20.0,
            period: 2e-3,
            duty: 0.8,
        }
        .during(0.0, 10.0),
    );
    let cfg_for = |health: Option<pfs::HealthConfig>| {
        let mut t = TenantSpec::new("solo", 4);
        t.jobs = 2;
        t.bytes_per_rank = 256 << 10;
        t.access = 16 << 10;
        t.read_back = true;
        FacilityConfig {
            tenants: vec![t],
            qos: QosMode::Off,
            pfs: pfs::PfsConfig {
                num_osts: 4,
                stripe_count: 4,
                stripe_size: 16 << 10,
                ..Default::default()
            },
            chaos: Some(plan.clone().build().unwrap()),
            health,
            ..FacilityConfig::default()
        }
    };
    let undefended = run_facility(&cfg_for(None)).unwrap();
    let defended = run_facility(&cfg_for(Some(pfs::HealthConfig {
        min_samples: 4,
        hedge_min_samples: 16,
        ..Default::default()
    })))
    .unwrap();
    let h = defended.health.expect("defended run carries a snapshot");
    assert!(
        h.breaker_opens >= 1,
        "a 20x flaky OST must trip its breaker: {h:?}"
    );
    assert!(
        h.degraded_writes >= 1,
        "writes must relocate around the open breaker: {h:?}"
    );
    assert!(
        defended.makespan < undefended.makespan,
        "defenses must beat the undefended facility under the flaky OST: \
         defended {} vs undefended {}",
        defended.makespan,
        undefended.makespan
    );
}

// ---------------------------------------------------------------------
// A crash-stopped peer on the world communicator
// ---------------------------------------------------------------------

#[test]
fn a_crashed_world_peer_fails_the_run_typed_never_by_a_panic() {
    // A single tenant runs on the world communicator, whose burst hands a
    // crash-stopped peer's payload back empty. Sweep the crash of rank 1
    // over the whole run, both exchange styles: a survivor that finds a
    // payload short must fail typed, never panic slicing it.
    let mut typed = 0;
    for style in [Style::Tcio, Style::Ocio] {
        for tenth_ms in 1..60u32 {
            let at = f64::from(tenth_ms) * 1e-4;
            let plan = chaos::FaultPlan::new(1)
                .with(chaos::Fault::RankCrash { rank: 1, at })
                .build()
                .unwrap();
            let mut t = TenantSpec::new("solo", 4);
            t.style = style;
            t.jobs = 2;
            t.bytes_per_rank = 256 << 10;
            let cfg = FacilityConfig {
                tenants: vec![t],
                chaos: Some(plan),
                ..FacilityConfig::default()
            };
            match run_facility(&cfg) {
                Err(FacilityError::Sim(SimError::RankPanicked { rank, message })) => {
                    panic!("{style:?}, rank 1 crashed at {at}: rank {rank} panicked: {message}")
                }
                Err(_) => typed += 1,
                Ok(_) => {}
            }
        }
    }
    assert!(typed > 0, "no crash instant fell inside a job");
}

// ---------------------------------------------------------------------
// The pattern's uniqueness bounds
// ---------------------------------------------------------------------

fn refused(t: TenantSpec) -> String {
    let cfg = FacilityConfig {
        tenants: vec![TenantSpec::new("ok", 2), t],
        ..FacilityConfig::default()
    };
    match cfg.validate() {
        Err(FacilityError::Config(msg)) => msg,
        other => panic!("expected a config error, got {other:?}"),
    }
}

#[test]
fn a_file_past_the_patterns_unique_offsets_is_refused() {
    // 16 MiB is the last file size whose every offset has its own pattern
    // byte: 4 ranks x 4 MiB passes, one access more is refused.
    let mut t = TenantSpec::new("wide", 4);
    t.bytes_per_rank = 4 << 20;
    let ok = FacilityConfig {
        tenants: vec![t.clone()],
        ..FacilityConfig::default()
    };
    assert_eq!(ok.validate(), Ok(()));
    t.bytes_per_rank += t.access;
    assert!(refused(t).contains("unique offsets"));
}

#[test]
fn jobs_past_the_patterns_unique_jobs_are_refused() {
    let mut t = TenantSpec::new("busy", 1);
    t.jobs = 1 << 16;
    let ok = FacilityConfig {
        tenants: vec![t.clone()],
        ..FacilityConfig::default()
    };
    assert_eq!(ok.validate(), Ok(()));
    t.jobs += 1;
    assert!(refused(t).contains("unique jobs"));
}

// ---------------------------------------------------------------------
// Pinned bits
// ---------------------------------------------------------------------

/// Two tenants under fair-share QoS with the health layer attached and
/// metrics on: a burst-buffered TCIO tenant and an OCIO one, both reading
/// their files back, arriving open loop.
fn fingerprint_cfg() -> FacilityConfig {
    let mut bb = TenantSpec::new("bb", 2);
    bb.jobs = 2;
    bb.bytes_per_rank = 64 << 10;
    bb.access = 16 << 10;
    bb.arrival_rate = 200.0;
    bb.read_back = true;
    bb.burst_buffer = true;
    let mut coll = TenantSpec::new("coll", 2);
    coll.style = Style::Ocio;
    coll.jobs = 2;
    coll.bytes_per_rank = 32 << 10;
    coll.access = 8 << 10;
    coll.arrival_rate = 200.0;
    coll.read_back = true;
    FacilityConfig {
        tenants: vec![bb, coll],
        qos: QosMode::FairShare,
        metrics: true,
        health: Some(pfs::HealthConfig::default()),
        seed: 0xF1_4E5E,
        ..FacilityConfig::default()
    }
}

/// The report's bits: makespan, every job record with its file's length
/// and hash, the burst buffer's counters and the metrics registry.
#[test]
fn a_two_tenant_facility_matches_its_golden_fingerprint() {
    let rep = run_facility(&fingerprint_cfg()).unwrap();
    assert_eq!(rep.jobs.len(), 4);
    assert!(rep.tenants[0].burst.is_some_and(|b| b.staged_writes > 0));
    let mut out = String::new();
    writeln!(out, "makespan {:016x}", rep.makespan.to_bits()).unwrap();
    for r in &rep.jobs {
        writeln!(
            out,
            "job {}/{} arrival {:016x} finish {:016x} written {} read {}",
            r.tenant,
            r.job,
            r.arrival.to_bits(),
            r.finish.to_bits(),
            r.bytes_written,
            r.bytes_read
        )
        .unwrap();
        let name = format!("/tenant{}/job{}.dat", r.tenant, r.job);
        let bytes = rep.fs.snapshot_file(rep.fs.open(&name).unwrap()).unwrap();
        writeln!(out, "file {name} {} {:016x}", bytes.len(), fnv1a(&bytes)).unwrap();
    }
    for (t, outcome) in rep.tenants.iter().enumerate() {
        if let Some(bb) = outcome.burst {
            writeln!(out, "burst {t} {bb:?}").unwrap();
        }
    }
    writeln!(out, "registry {}", rep.registry.unwrap().to_json()).unwrap();
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/golden/facility_fingerprint.txt"
    );
    check_golden(path, &out).unwrap_or_else(|why| panic!("{why}"));
}
