//! Virtual-time fingerprint of every two-phase round loop.
//!
//! The five collective entry points (`write_all_at`, `read_all_at`,
//! `write_all_view_based`, `read_all_view_based`, `write_all_partitioned`)
//! are crossed with {flat, `cb_buffer`-chunked, chunked + `pipeline`} ×
//! {no topology, 4×4 topology + `intra_agg`, 4×4 topology + `req_agg`} ×
//! {fault-free, `plans/ost_slowdown.toml`}; a few extra cells cover hedged
//! window reads and tcio's level-2 drain. Every cell records the makespan
//! and every rank's final clock as raw `f64` bits, the per-rank
//! `RankStats`, an FNV-1a hash of the bytes that landed (the PFS file for
//! writes, the read-back buffers for reads) and the multiset of span
//! names — everything a refactor of the round loops could disturb.
//!
//! Regenerate with: `BLESS=1 cargo test --test rounds_fingerprint`

use mpiio::{CollectiveConfig, File, IoError, Mode};
use mpisim::{Datatype, Named, SimConfig, Topology};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Arc;
use workloads::synthetic::{self, SynthParams};
use workloads::WlError;

const NPROCS: usize = 16;
const PPN: usize = 4;
const BLOCK: usize = 64;
const BLOCKS_PER_RANK: usize = 24;
/// Six aggregators: topology-aware placement ([0, 4, 8, 12, 1, 5]) and the
/// blind even spread ([0, 2, 5, 8, 10, 13]) differ, and the 4 KiB domains
/// split into five `cb_buffer` rounds.
const CB_NODES: usize = 6;
const CB_BUFFER: u64 = 1000;

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn to_mpi(e: IoError) -> mpisim::MpiError {
    match e {
        IoError::Mpi(m) => m,
        other => mpisim::MpiError::InvalidDatatype(other.to_string()),
    }
}

/// What rank `r` holds at stream position `i` (and so what the file holds
/// at the position the interleaved view maps it to).
fn pattern(r: usize, i: usize) -> u8 {
    (r * 31 + i * 7 + i / BLOCK) as u8
}

fn rank_data(r: usize) -> Vec<u8> {
    (0..BLOCK * BLOCKS_PER_RANK)
        .map(|i| pattern(r, i))
        .collect()
}

/// The whole file under the Fig. 2 interleaving: block `b` belongs to rank
/// `b % NPROCS`.
fn file_image() -> Vec<u8> {
    let mut out = vec![0u8; NPROCS * BLOCK * BLOCKS_PER_RANK];
    for r in 0..NPROCS {
        let data = rank_data(r);
        for k in 0..BLOCKS_PER_RANK {
            let at = (k * NPROCS + r) * BLOCK;
            out[at..at + BLOCK].copy_from_slice(&data[k * BLOCK..(k + 1) * BLOCK]);
        }
    }
    out
}

#[derive(Clone, Copy)]
enum Entry {
    WriteAll,
    ReadAll,
    WriteViewBased,
    ReadViewBased,
    WritePartitioned,
}

impl Entry {
    const ALL: [Entry; 5] = [
        Entry::WriteAll,
        Entry::ReadAll,
        Entry::WriteViewBased,
        Entry::ReadViewBased,
        Entry::WritePartitioned,
    ];

    fn label(self) -> &'static str {
        match self {
            Entry::WriteAll => "write_all_at",
            Entry::ReadAll => "read_all_at",
            Entry::WriteViewBased => "write_all_view_based",
            Entry::ReadViewBased => "read_all_view_based",
            Entry::WritePartitioned => "write_all_partitioned",
        }
    }

    fn reads(self) -> bool {
        matches!(self, Entry::ReadAll | Entry::ReadViewBased)
    }
}

#[derive(Clone, Copy)]
enum Plan {
    None,
    OstSlowdown,
    /// A flaky OST with the pfs health layer attached (hedged cells only).
    FlakyDefended,
}

impl Plan {
    fn label(self) -> &'static str {
        match self {
            Plan::None => "none",
            Plan::OstSlowdown => "ost_slowdown",
            Plan::FlakyDefended => "flaky_defended",
        }
    }

    fn engine(self) -> Option<Arc<chaos::ChaosEngine>> {
        match self {
            Plan::None => None,
            Plan::OstSlowdown => {
                let text = std::fs::read_to_string(concat!(
                    env!("CARGO_MANIFEST_DIR"),
                    "/plans/ost_slowdown.toml"
                ))
                .unwrap();
                Some(chaos::FaultPlan::parse(&text).unwrap().build().unwrap())
            }
            Plan::FlakyDefended => Some(
                chaos::FaultPlan::new(41)
                    .with(chaos::Fault::FlakyOst {
                        ost: 0,
                        factor: 16.0,
                        period: 1e-3,
                        duty: 0.7,
                        from: 0.0,
                        until: 0.05,
                    })
                    .build()
                    .unwrap(),
            ),
        }
    }
}

/// Small stripes over four OSTs so the 24 KiB file touches every target
/// and the plan's slowed OSTs 0 and 1 see a share of each window.
fn new_fs(plan: Plan) -> (Arc<pfs::Pfs>, Option<Arc<chaos::ChaosEngine>>) {
    let fs = pfs::Pfs::new(
        NPROCS,
        pfs::PfsConfig {
            num_osts: 4,
            stripe_count: 4,
            stripe_size: 1024,
            ..Default::default()
        },
    )
    .unwrap();
    let engine = plan.engine();
    if let Some(e) = &engine {
        fs.attach_chaos(Arc::clone(e)).unwrap();
    }
    if matches!(plan, Plan::FlakyDefended) {
        fs.enable_health(pfs::HealthConfig {
            min_samples: 2,
            hedge_min_samples: 8,
            open_secs: 2e-3,
            ..Default::default()
        })
        .unwrap();
    }
    (fs, engine)
}

fn sim_config(topology: bool, engine: Option<Arc<chaos::ChaosEngine>>) -> SimConfig {
    SimConfig {
        trace: true,
        chaos: engine,
        topology: topology.then(|| Topology::blocked(NPROCS, PPN)),
        ..Default::default()
    }
}

/// Render one finished cell. `landed` is the hash of the bytes the cell
/// moved (file contents or read-back buffers).
fn render<T>(out: &mut String, name: &str, rep: &mpisim::SimReport<T>, landed: u64) {
    writeln!(out, "[{name}]").unwrap();
    writeln!(out, "makespan {:016x}", rep.makespan.to_bits()).unwrap();
    let clocks: Vec<String> = rep
        .clocks
        .iter()
        .map(|c| format!("{:016x}", c.to_bits()))
        .collect();
    writeln!(out, "clocks {}", clocks.join(" ")).unwrap();
    // f64's Debug output round-trips, so the rendered stats pin the bits
    // of `collective_wait` and `io_overlap` too.
    let per_rank: String = rep.stats.iter().map(|s| format!("{s:?}\n")).collect();
    writeln!(out, "stats_fnv {:016x}", fnv1a(per_rank.as_bytes())).unwrap();
    writeln!(out, "stats_sum {:?}", rep.aggregate_stats()).unwrap();
    writeln!(out, "bytes_fnv {landed:016x}").unwrap();
    let mut spans: BTreeMap<&'static str, usize> = BTreeMap::new();
    for t in &rep.traces {
        for s in &t.spans {
            *spans.entry(s.name).or_default() += 1;
        }
    }
    let spans: Vec<String> = spans.iter().map(|(n, c)| format!("{n}={c}")).collect();
    writeln!(out, "spans {}", spans.join(" ")).unwrap();
}

/// Run one collective cell and append its fingerprint.
fn collective_cell(
    out: &mut String,
    entry: Entry,
    name: &str,
    cfg: CollectiveConfig,
    topology: bool,
    plan: Plan,
) {
    let (fs, engine) = new_fs(plan);
    let image = file_image();
    if entry.reads() {
        let fid = fs.create("/fp").unwrap();
        fs.write_at(fid, 0, 0, &image, 0.0).unwrap();
    }
    let fs2 = Arc::clone(&fs);
    let rep = mpisim::run(NPROCS, sim_config(topology, engine), move |rk| {
        let mode = if entry.reads() {
            Mode::ReadOnly
        } else {
            Mode::WriteOnly
        };
        let mut f = File::open(rk, &fs2, "/fp", mode).map_err(to_mpi)?;
        let etype = Datatype::contiguous(BLOCK, Datatype::named(Named::Byte)).commit();
        let ftype = Datatype::vector(
            BLOCKS_PER_RANK,
            1,
            NPROCS as isize,
            etype.datatype().clone(),
        )
        .commit();
        f.set_view(rk, (rk.rank() * BLOCK) as u64, &etype, &ftype)
            .map_err(to_mpi)?;
        let data = rank_data(rk.rank());
        let mut back = vec![0u8; data.len()];
        match entry {
            Entry::WriteAll => mpiio::write_all_at(rk, &mut f, 0, &data, &cfg),
            Entry::ReadAll => mpiio::read_all_at(rk, &mut f, 0, &mut back, &cfg),
            Entry::WriteViewBased => {
                let views = mpiio::register_views(rk, &f).map_err(to_mpi)?;
                mpiio::write_all_view_based(rk, &mut f, &views, 0, &data, &cfg)
            }
            Entry::ReadViewBased => {
                let views = mpiio::register_views(rk, &f).map_err(to_mpi)?;
                mpiio::read_all_view_based(rk, &mut f, &views, 0, &mut back, &cfg)
            }
            Entry::WritePartitioned => {
                // Two groups of eight, each straddling two nodes.
                let comm = rk.split((rk.rank() / 8) as u64)?;
                mpiio::write_all_partitioned(rk, &mut f, &comm, 0, &data, &cfg)
            }
        }
        .map_err(to_mpi)?;
        f.close(rk).map_err(to_mpi)?;
        Ok(back)
    })
    .unwrap();
    let landed = if entry.reads() {
        for (r, back) in rep.results.iter().enumerate() {
            assert_eq!(back, &rank_data(r), "{name}: rank {r} read foreign bytes");
        }
        fnv1a(&rep.results.concat())
    } else {
        let bytes = fs.snapshot_file(fs.open("/fp").unwrap()).unwrap();
        assert_eq!(bytes, image, "{name}: file bytes are wrong");
        fnv1a(&bytes)
    };
    render(out, name, &rep, landed);
}

/// tcio write + read-back through the level-2 drain and segment loads.
fn tcio_cell(out: &mut String, name: &str, pipeline_drain: bool, hedged_reads: bool, plan: Plan) {
    let (fs, engine) = new_fs(plan);
    let p = SynthParams::with_types("i,d", 64, 2).unwrap();
    let fs2 = Arc::clone(&fs);
    let p2 = p.clone();
    let rep = mpisim::run(NPROCS, sim_config(true, engine), move |rk| {
        let cfg = tcio::TcioConfig {
            pipeline_drain,
            hedged_reads,
            ..tcio::TcioConfig::for_file_size_with_segment(p2.file_size(NPROCS), NPROCS, 512)
        };
        synthetic::write_tcio(rk, &fs2, &p2, "/fp", Some(cfg.clone()))
            .map_err(WlError::into_mpi)?;
        synthetic::read_tcio(rk, &fs2, &p2, "/fp", Some(cfg)).map_err(WlError::into_mpi)?;
        Ok(())
    })
    .unwrap();
    let bytes = fs.snapshot_file(fs.open("/fp").unwrap()).unwrap();
    assert_eq!(bytes.len() as u64, p.file_size(NPROCS));
    render(out, name, &rep, fnv1a(&bytes));
}

fn fingerprint() -> String {
    let mut out = String::new();
    for entry in Entry::ALL {
        for (chunk, cb_buffer, pipeline) in [
            ("flat", None, false),
            ("chunked", Some(CB_BUFFER), false),
            ("chunked+pipeline", Some(CB_BUFFER), true),
        ] {
            for (topo, topology, intra_agg, req_agg) in [
                ("none", false, false, false),
                ("4x4+intra_agg", true, true, false),
                ("4x4+req_agg", true, false, true),
            ] {
                for plan in [Plan::None, Plan::OstSlowdown] {
                    let name = format!(
                        "{} chunk={chunk} topo={topo} plan={}",
                        entry.label(),
                        plan.label()
                    );
                    let cfg = CollectiveConfig {
                        cb_nodes: Some(CB_NODES),
                        cb_buffer,
                        intra_agg,
                        req_agg,
                        pipeline,
                        ..Default::default()
                    };
                    collective_cell(&mut out, entry, &name, cfg, topology, plan);
                }
            }
        }
    }
    // Hedged window reads under a flaky OST with the health layer on.
    for entry in [Entry::ReadAll, Entry::ReadViewBased] {
        for pipeline in [false, true] {
            let name = format!(
                "{} chunk=chunked{} topo=4x4+req_agg plan=flaky_defended hedged",
                entry.label(),
                if pipeline { "+pipeline" } else { "" }
            );
            let cfg = CollectiveConfig {
                cb_nodes: Some(CB_NODES),
                cb_buffer: Some(CB_BUFFER),
                req_agg: true,
                pipeline,
                hedged_reads: true,
                ..Default::default()
            };
            collective_cell(&mut out, entry, &name, cfg, true, Plan::FlakyDefended);
        }
    }
    // The fourth round loop: tcio's level-2 drain (and its hedged loads).
    for (pipeline_drain, hedged, plan) in [
        (false, false, Plan::None),
        (true, false, Plan::None),
        (false, false, Plan::OstSlowdown),
        (true, false, Plan::OstSlowdown),
        (false, true, Plan::FlakyDefended),
        (true, true, Plan::FlakyDefended),
    ] {
        let name = format!(
            "tcio drain={} plan={}{}",
            if pipeline_drain { "pipelined" } else { "flat" },
            plan.label(),
            if hedged { " hedged" } else { "" }
        );
        tcio_cell(&mut out, &name, pipeline_drain, hedged, plan);
    }
    out
}

#[test]
fn round_loops_match_golden_fingerprint() {
    let got = fingerprint();
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/golden/rounds_fingerprint.txt"
    );
    if std::env::var_os("BLESS").is_some() {
        std::fs::write(path, &got).unwrap();
    }
    let expected = std::fs::read_to_string(path).expect("golden file missing; run with BLESS=1");
    // Name the first diverging line (and its cell) instead of dumping two
    // 600-line strings.
    let mut cell = "";
    for (n, (g, e)) in got.lines().zip(expected.lines()).enumerate() {
        if e.starts_with('[') {
            cell = e;
        }
        assert_eq!(g, e, "line {} diverged in cell {cell}", n + 1);
    }
    assert_eq!(
        got.lines().count(),
        expected.lines().count(),
        "fingerprint and golden file differ in length"
    );
}

#[test]
fn fingerprint_is_deterministic_and_pipelining_is_visible() {
    // The golden comparison is only meaningful if the fingerprint is a
    // pure function of the code, and only sensitive if the knobs it
    // crosses actually change what it records.
    let cfg = |pipeline| CollectiveConfig {
        cb_nodes: Some(CB_NODES),
        cb_buffer: Some(CB_BUFFER),
        pipeline,
        ..Default::default()
    };
    let run = |pipeline| {
        let mut s = String::new();
        collective_cell(
            &mut s,
            Entry::WriteAll,
            "probe",
            cfg(pipeline),
            false,
            Plan::OstSlowdown,
        );
        s
    };
    assert_eq!(run(true), run(true));
    let (flat, piped) = (run(false), run(true));
    assert_ne!(flat, piped);
    assert!(flat.contains("ocio_io=") && !flat.contains("ocio_io_pipe="));
    assert!(piped.contains("ocio_io_pipe="));
}
