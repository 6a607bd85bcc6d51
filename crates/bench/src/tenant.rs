//! Multi-tenant facility sweep cells: a fixed eight-tenant fleet run at
//! an offered arrival rate under one QoS discipline (`tenant_sweep`).
//!
//! The fleet mixes every workload style the facility serves — a
//! burst-buffered checkpointer, a small-request storm, a latency-
//! sensitive interactive tenant, collective analytics, a token-metered
//! ingest feed — so one sweep point exercises tagging, admission,
//! batching, fair sharing, and the burst-buffer drain path at once.
//! Everything runs on the serial event core, so a cell is a pure
//! function of `(jobs, rate, mode, seed)` and the committed
//! `bench_results/tenant_sweep.json` baseline is regenerated and diffed
//! exactly by `bench gate`.
//!
//! Rates are open-loop Poisson job-arrival rates in jobs/s per tenant
//! (0 = every job lands at t=0, the maximum-contention point).

use crate::registry::Args;
use crate::report::{mbs, Json, Table};
use facility::{run_facility, FacilityConfig, FacilityReport, QosMode, Style, TenantSpec};

fn tenant(
    name: &str,
    ranks: usize,
    style: Style,
    bytes_per_rank: u64,
    access: u64,
    jobs: usize,
    rate_hz: f64,
) -> TenantSpec {
    let mut t = TenantSpec::new(name, ranks);
    t.style = style;
    t.bytes_per_rank = bytes_per_rank;
    t.access = access;
    t.jobs = jobs;
    t.arrival_rate = rate_hz;
    t
}

/// The standard eight-tenant fleet (22 ranks). Each tenant submits
/// `jobs` jobs at an open-loop Poisson rate of `rate_hz` jobs/s
/// (0 = everything lands at t=0, the maximum-contention point).
pub fn fleet(jobs: usize, rate_hz: f64) -> Vec<TenantSpec> {
    let mut ckpt = tenant("ckpt", 4, Style::Tcio, 1 << 20, 64 << 10, jobs, rate_hz);
    ckpt.weight = 2.0;
    ckpt.burst_buffer = true;
    let storm = tenant(
        "storm",
        4,
        Style::Independent,
        512 << 10,
        16 << 10,
        jobs,
        rate_hz,
    );
    let mut interactive = tenant(
        "interactive",
        2,
        Style::Independent,
        128 << 10,
        16 << 10,
        jobs,
        rate_hz,
    );
    interactive.weight = 2.0;
    interactive.read_back = true;
    let analytics = tenant(
        "analytics",
        4,
        Style::Ocio,
        512 << 10,
        64 << 10,
        jobs,
        rate_hz,
    );
    let mut ingest = tenant("ingest", 2, Style::Tcio, 512 << 10, 64 << 10, jobs, rate_hz);
    ingest.token_bucket = Some((150.0e6, (1u64 << 20) as f64));
    let scratch = tenant(
        "scratch",
        2,
        Style::Independent,
        256 << 10,
        32 << 10,
        jobs,
        rate_hz,
    );
    let archive = tenant("archive", 2, Style::Ocio, 1 << 20, 128 << 10, jobs, rate_hz);
    let mut viz = tenant("viz", 2, Style::Tcio, 256 << 10, 64 << 10, jobs, rate_hz);
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

/// Total world size of [`fleet`].
pub fn fleet_ranks(jobs: usize) -> usize {
    fleet(jobs, 0.0).iter().map(|t| t.ranks).sum()
}

pub fn mode_label(mode: QosMode) -> &'static str {
    match mode {
        QosMode::Off => "off",
        QosMode::Fifo => "fifo",
        QosMode::FairShare => "fair",
    }
}

fn parse_mode(s: &str) -> QosMode {
    match s {
        "off" => QosMode::Off,
        "fifo" => QosMode::Fifo,
        "fair" => QosMode::FairShare,
        other => unreachable!("--qos admits off|fifo|fair, got {other:?}"),
    }
}

/// Run one sweep cell: the standard fleet at `rate_hz` under `mode`.
pub fn run_point(
    jobs: usize,
    rate_hz: f64,
    mode: QosMode,
    batch_window: f64,
    seed: u64,
) -> FacilityReport {
    let cfg = FacilityConfig {
        tenants: fleet(jobs, rate_hz),
        qos: mode,
        seed,
        batch_window,
        ..FacilityConfig::default()
    };
    run_facility(&cfg).expect("facility sweep cell")
}

/// Flatten one report to its document cell: makespan, aggregate
/// throughput, and per-tenant rate→{throughput, p50/p95/p99}.
pub fn report_to_json(rep: &FacilityReport) -> Json {
    let aggregate_mbs = if rep.makespan > 0.0 {
        rep.total_bytes_written() as f64 / rep.makespan / 1.0e6
    } else {
        0.0
    };
    let mut tenants = Json::obj();
    for t in &rep.tenants {
        tenants.set(
            &t.name,
            Json::obj()
                .with("jobs", Json::num(t.jobs as f64))
                .with("throughput_mbs", Json::num(t.throughput_mbs))
                .with("p50_ms", Json::num(t.p50_ns() as f64 / 1.0e6))
                .with("p95_ms", Json::num(t.p95_ns() as f64 / 1.0e6))
                .with("p99_ms", Json::num(t.p99_ns() as f64 / 1.0e6)),
        );
    }
    Json::obj()
        .with("makespan_s", Json::num(rep.makespan))
        .with("aggregate_mbs", Json::num(aggregate_mbs))
        .with("tenants", tenants)
}

/// `tenant_sweep`: one document entry per rate, one cell per QoS mode,
/// with each cell's per-tenant table on stdout.
pub fn run(args: &Args) -> Json {
    let jobs = args.usize("jobs").max(1);
    let seed = args.int("seed");
    let modes: Vec<QosMode> = args.words("qos").map(parse_mode).collect();
    eprintln!(
        "tenant_sweep: {} tenants / {} ranks, {jobs} job(s) per tenant, seed {seed:#x}",
        fleet(jobs, 0.0).len(),
        fleet_ranks(jobs),
    );
    let mut points = Vec::new();
    for rate in args.ints("rates") {
        let mut point = Json::obj().with("rate_hz", Json::num(rate as f64));
        for &mode in &modes {
            let rep = run_point(jobs, rate as f64, mode, 0.0, seed);
            let agg = rep.total_bytes_written() as f64 / rep.makespan / 1.0e6;
            println!(
                "== rate {rate}/s  qos {}  makespan {:.3}s  aggregate {} MB/s",
                mode_label(mode),
                rep.makespan,
                mbs(agg),
            );
            let mut table = Table::new(vec![
                "tenant", "jobs", "thr MB/s", "p50 ms", "p95 ms", "p99 ms",
            ]);
            for t in &rep.tenants {
                table.row(vec![
                    t.name.clone(),
                    t.jobs.to_string(),
                    mbs(t.throughput_mbs),
                    format!("{:.3}", t.p50_ns() as f64 / 1.0e6),
                    format!("{:.3}", t.p95_ns() as f64 / 1.0e6),
                    format!("{:.3}", t.p99_ns() as f64 / 1.0e6),
                ]);
            }
            table.print();
            point.set(mode_label(mode), report_to_json(&rep));
        }
        points.push(point);
    }
    Json::obj()
        .with("tenants", Json::num(fleet(jobs, 0.0).len() as f64))
        .with("ranks", Json::num(fleet_ranks(jobs) as f64))
        .with("jobs_per_tenant", Json::num(jobs as f64))
        .with("seed", Json::num(seed as f64))
        .with("points", Json::Arr(points))
}

/// Coverage: the committed sweep spans the three offered rates under both
/// scheduled disciplines, and every cell reports every fleet tenant's
/// throughput and latency percentiles.
pub fn claims(result: &Json) -> Result<(), String> {
    let points = result.get("points").and_then(Json::as_arr).unwrap_or(&[]);
    for rate in [10.0, 80.0, 640.0] {
        let point = points
            .iter()
            .find(|p| p.get("rate_hz").and_then(Json::as_f64) == Some(rate))
            .ok_or_else(|| format!("no point at {rate} jobs/s"))?;
        for mode in ["fair", "fifo"] {
            let tenants = point.get(mode).and_then(|c| c.get("tenants"));
            for spec in fleet(1, 0.0) {
                for leaf in ["throughput_mbs", "p50_ms", "p95_ms", "p99_ms"] {
                    let v = tenants.and_then(|t| t.get(&spec.name)?.get(leaf)?.as_f64());
                    if v.is_none() {
                        return Err(format!("rate {rate} {mode}: {} has no {leaf}", spec.name));
                    }
                }
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fleet_is_eight_mixed_tenants() {
        let f = fleet(2, 10.0);
        assert_eq!(f.len(), 8);
        assert!(f.iter().any(|t| t.style == Style::Independent));
        assert!(f.iter().any(|t| t.style == Style::Ocio));
        assert!(f.iter().any(|t| t.style == Style::Tcio));
        assert!(f.iter().any(|t| t.burst_buffer));
        assert!(f.iter().any(|t| t.token_bucket.is_some()));
        assert!(f.iter().all(|t| t.jobs == 2));
        assert!(f.iter().all(|t| (t.arrival_rate - 10.0).abs() < 1e-12));
    }

    #[test]
    fn cell_json_carries_per_tenant_percentiles() {
        let rep = run_point(1, 0.0, QosMode::FairShare, 0.0, 7);
        let j = report_to_json(&rep);
        let ckpt = j.get("tenants").unwrap().get("ckpt").unwrap();
        assert!(ckpt.get("throughput_mbs").unwrap().as_f64().unwrap() > 0.0);
        assert!(ckpt.get("p99_ms").unwrap().as_f64().unwrap() > 0.0);
        assert!(j.get("aggregate_mbs").unwrap().as_f64().unwrap() > 0.0);
    }

    #[test]
    fn cells_are_deterministic() {
        let a = report_to_json(&run_point(1, 25.0, QosMode::Fifo, 0.0, 7));
        let b = report_to_json(&run_point(1, 25.0, QosMode::Fifo, 0.0, 7));
        assert_eq!(a.render(), b.render());
    }
}
