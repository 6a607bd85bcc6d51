//! Every metric the benchmark reports, by name, with its unit, its
//! direction and where it comes from. `BENCHMARK.json` lists the same
//! names; `main` refuses to print a result that is missing one.

/// How a metric behaves when the same code runs twice.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Kind {
    /// Host time, memory or faults: machine-dependent, reported as a
    /// median over reps.
    Host,
    /// Virtual time or a count made by the stack: the same seed must give
    /// the same value bit for bit.
    Exact,
}

/// Where a metric comes from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Src {
    /// A layer cell.
    Cell,
    /// A count or host reading from the untraced reps.
    Rep,
    /// The traced rep.
    Traced,
}

#[derive(Debug, Clone, Copy)]
pub struct Def {
    pub name: &'static str,
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    /// End-to-end metrics only: the share of the parent's median by which
    /// the metric may worsen before it is a regression.
    pub bound: Option<f64>,
    pub src: Src,
    pub kind: Kind,
}

const fn def(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    src: Src,
    kind: Kind,
) -> Def {
    Def {
        name,
        unit,
        better,
        bound: None,
        src,
        kind,
    }
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    bound: f64,
    kind: Kind,
) -> Def {
    Def {
        bound: Some(bound),
        ..def(name, unit, better, Src::Rep, kind)
    }
}

/// How long one driver run measures: `BENCHMARK.json`'s `run_seconds`, and
/// the default of `--seconds`.
pub const RUN_SECONDS: u32 = 10;

/// End-to-end metrics, reported for every workload from untraced reps.
/// The four times are scaled by the speed probe (see `main::rep_lines`);
/// their raw readings are per-layer metrics.
///
/// A bound is three times the widest spread measured (interquartile range
/// over median of ten driver runs with ten seeds, twice; README.md,
/// "`--check-repeat` and the bounds"; `results/spread_12.txt`), rounded
/// up, or the contract's cap of 25 % where that is lower, which is the
/// case for the four times. The virtual metrics are bit-exact for one
/// seed; their bound covers what the seed moves (stripe and segment
/// alignment, ART segment lengths, fleet arrival times).
pub const END_TO_END: &[Def] = &[
    e2e("setup_s", "s", "lower", 0.25, Kind::Host),
    e2e("wall_s", "s", "lower", 0.25, Kind::Host),
    e2e("cpu_user_s", "s", "lower", 0.25, Kind::Host),
    e2e("app_mb_per_s", "MB/s", "higher", 0.25, Kind::Host),
    e2e("peak_rss_mb", "MB", "lower", 0.05, Kind::Host),
    e2e("minor_faults", "count", "lower", 0.10, Kind::Host),
    e2e("virt_makespan_s", "virt_s", "lower", 0.035, Kind::Exact),
    e2e("virt_write_mbs", "virt_MB/s", "higher", 0.05, Kind::Exact),
    e2e("virt_read_mbs", "virt_MB/s", "higher", 0.05, Kind::Exact),
];

const fn cell(name: &'static str, unit: &'static str, better: &'static str) -> Def {
    def(name, unit, better, Src::Cell, Kind::Host)
}

const fn count(name: &'static str, unit: &'static str, better: &'static str) -> Def {
    def(name, unit, better, Src::Rep, Kind::Exact)
}

const fn traced(name: &'static str, unit: &'static str, better: &'static str, kind: Kind) -> Def {
    def(name, unit, better, Src::Traced, kind)
}

const fn host_rep(name: &'static str, unit: &'static str) -> Def {
    def(name, unit, "lower", Src::Rep, Kind::Host)
}

/// Per-layer metrics, grouped by layer in the order of `README.md`.
pub const PER_LAYER: &[Def] = &[
    // host
    cell("host.memcpy_gbs", "GB/s", "higher"),
    cell("host.page_fault_ns", "ns", "lower"),
    host_rep("host.probe_s", "s"),
    host_rep("host.setup_raw_s", "s"),
    host_rep("host.wall_raw_s", "s"),
    host_rep("host.cpu_user_raw_s", "s"),
    host_rep("host.cpu_sys_s", "s"),
    host_rep("host.ns_per_sim_op", "ns"),
    // mpisim: fibers and the event core
    cell("mpisim.spawn_ns_per_rank", "ns", "lower"),
    cell("mpisim.spawn_minflt_per_rank", "count", "lower"),
    cell("mpisim.switch_ns", "ns", "lower"),
    // mpisim: p2p, net, collectives
    cell("mpisim.p2p_msg_ns", "ns", "lower"),
    cell("mpisim.alltoallv_pair_ns", "ns", "lower"),
    count("mpisim.msgs", "count", "lower"),
    count("mpisim.msg_bytes", "bytes", "lower"),
    count("mpisim.collectives", "count", "lower"),
    count("mpisim.intra_bytes", "bytes", "higher"),
    count("mpisim.inter_bytes", "bytes", "lower"),
    // mpisim: rma
    cell("mpisim.rma_epoch_ns", "ns", "lower"),
    count("mpisim.puts", "count", "lower"),
    count("mpisim.gets", "count", "lower"),
    count("mpisim.rma_epochs", "count", "lower"),
    // mpisim: timeline, datatype
    cell("mpisim.timeline_reserve_ns", "ns", "lower"),
    cell("mpisim.timeline_backfill_ns", "ns", "lower"),
    cell("mpisim.datatype_pack_ns", "ns", "lower"),
    cell("mpisim.datatype_commit_ns", "ns", "lower"),
    cell("mpisim.datatype_commit_indexed_ns", "ns", "lower"),
    // mpisim: all
    count("mpisim.sim_ops", "count", "lower"),
    count("mpisim.mem_peak_bytes", "bytes", "lower"),
    // mpisim: trace and metrics
    traced("mpisim.trace.overhead_frac", "ratio", "lower", Kind::Host),
    traced("mpisim.trace.spans", "count", "lower", Kind::Exact),
    traced("mpisim.trace.export_s", "s", "lower", Kind::Host),
    traced("mpisim.trace.rss_mb", "MB", "lower", Kind::Host),
    // pfs
    cell("pfs.write_small_ns", "ns", "lower"),
    cell("pfs.read_small_ns", "ns", "lower"),
    cell("pfs.write_1mb_gbs", "GB/s", "higher"),
    cell("pfs.read_1mb_gbs", "GB/s", "higher"),
    cell("pfs.lock_acquire_ns", "ns", "lower"),
    count("pfs.write_rpcs", "count", "lower"),
    count("pfs.read_rpcs", "count", "lower"),
    count("pfs.lock_transfers", "count", "lower"),
    count("pfs.transient_errors", "count", "lower"),
    // pfs: health, qos
    cell("pfs.health.hedged_read_ns", "ns", "lower"),
    count("pfs.health.hedges", "count", "lower"),
    count("pfs.health.hedge_wins", "count", "higher"),
    count("pfs.health.breaker_opens", "count", "lower"),
    count("pfs.health.degraded_writes", "count", "lower"),
    count("pfs.qos.throttle_wait_s", "virt_s", "lower"),
    // mpiio
    cell("mpiio.extent_insert_ns", "ns", "lower"),
    cell("mpiio.extent_merge_ns", "ns", "lower"),
    cell("mpiio.view_map_range_ns", "ns", "lower"),
    cell("mpiio.sieve_decision_ns", "ns", "lower"),
    count("mpiio.io_retries", "count", "lower"),
    count("mpiio.io_overlap_s", "virt_s", "higher"),
    // tcio
    cell("tcio.locate_ns", "ns", "lower"),
    cell("tcio.write_call_ns", "ns", "lower"),
    cell("tcio.read_call_ns", "ns", "lower"),
    traced("tcio.l1_hit_ratio", "ratio", "higher", Kind::Exact),
    traced("tcio.l2_hit_ratio", "ratio", "higher", Kind::Exact),
    // workloads
    cell("workloads.ftt_generate_ns", "ns", "lower"),
    cell("workloads.ftt_record_ns", "ns", "lower"),
    cell("workloads.normal_lengths_ns", "ns", "lower"),
    cell("workloads.gen_arrays_gbs", "GB/s", "higher"),
    // facility
    count("facility.jobs", "count", "higher"),
    count("facility.job_p50_s", "virt_s", "lower"),
    count("facility.job_p99_s", "virt_s", "lower"),
    count("facility.burst_absorbed_bytes", "bytes", "higher"),
    // insight: where virtual time went
    traced("virt.path.compute_s", "virt_s", "lower", Kind::Exact),
    traced("virt.path.intra_comm_s", "virt_s", "lower", Kind::Exact),
    traced("virt.path.inter_comm_s", "virt_s", "lower", Kind::Exact),
    traced("virt.path.ost_service_s", "virt_s", "lower", Kind::Exact),
    traced("virt.path.lock_wait_s", "virt_s", "lower", Kind::Exact),
    traced("virt.path.retry_backoff_s", "virt_s", "lower", Kind::Exact),
    traced("virt.path.recovery_s", "virt_s", "lower", Kind::Exact),
    traced("virt.path.residual_s", "virt_s", "lower", Kind::Exact),
    traced("virt.overlap_frac", "ratio", "higher", Kind::Exact),
    traced("virt.imbalance", "ratio", "lower", Kind::Exact),
    traced("insight.analyze_s", "s", "lower", Kind::Host),
    // the benchmark's own phases, from the traced rep
    traced("phase.setup_s", "s", "lower", Kind::Host),
    traced("phase.setup_user_s", "s", "lower", Kind::Host),
    traced("phase.setup_sys_s", "s", "lower", Kind::Host),
    traced("phase.setup_minflt", "count", "lower", Kind::Host),
    traced("phase.write_s", "s", "lower", Kind::Host),
    traced("phase.write_user_s", "s", "lower", Kind::Host),
    traced("phase.write_sys_s", "s", "lower", Kind::Host),
    traced("phase.write_minflt", "count", "lower", Kind::Host),
    traced("phase.read_s", "s", "lower", Kind::Host),
    traced("phase.read_user_s", "s", "lower", Kind::Host),
    traced("phase.read_sys_s", "s", "lower", Kind::Host),
    traced("phase.read_minflt", "count", "lower", Kind::Host),
    traced("phase.verify_s", "s", "lower", Kind::Host),
    traced("phase.verify_user_s", "s", "lower", Kind::Host),
    traced("phase.verify_sys_s", "s", "lower", Kind::Host),
    traced("phase.verify_minflt", "count", "lower", Kind::Host),
    traced("phase.export_s", "s", "lower", Kind::Host),
    traced("phase.export_user_s", "s", "lower", Kind::Host),
    traced("phase.export_sys_s", "s", "lower", Kind::Host),
    traced("phase.export_minflt", "count", "lower", Kind::Host),
    traced("phase.self_frac", "ratio", "lower", Kind::Host),
];

/// Phases of a rep, in the order they first happen.
pub const PHASES: [&str; 5] = ["setup", "write", "read", "verify", "export"];
