//! Virtual-time fingerprint of every two-phase round loop.
//!
//! The five collective entry points (`write_all_at`, `read_all_at`,
//! `write_all_view_based`, `read_all_view_based`, `write_all_partitioned`)
//! are crossed with {flat, `cb_buffer`-chunked, chunked + `pipeline`} ×
//! {no topology, 4×4 topology + `intra_agg`, 4×4 topology + `req_agg`} ×
//! {fault-free, `plans/ost_slowdown.toml`}; a few extra cells cover hedged
//! window reads and tcio's level-2 drain. A second block pins every other
//! path that issues file-system requests: independent `write_at`/`read_at`
//! (plain and sieved), tcio's `use_l1 = false` and eager-read ablations,
//! retried drains and segment loads under `plans/ost_outage.toml`, the
//! fence ablation, the level-1 fallback around a stalled segment owner, and
//! crash recovery followed by reads of the dead owner's segments. Every cell records the makespan
//! and every rank's final clock as raw `f64` bits, the per-rank
//! `RankStats`, an FNV-1a hash of the bytes that landed (the PFS file for
//! writes, the read-back buffers for reads) and the multiset of span
//! names — everything a refactor of the round loops could disturb.
//!
//! A failure names the first diverging line and its cell;
//! `scripts/repin.sh` re-pins it after an intentional cost-model change.

use bench::perfgate::{check_golden, fnv1a};
use mpiio::{CollectiveConfig, File, Mode, SieveConfig};
use mpisim::{Datatype, MpiError, Named, SimConfig, SimError, Topology};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Arc;
use tcio::{ReadMode, SyncMode, TcioConfig, TcioError, TcioFile, TcioMode};
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
/// The level-2 segment owner the stall and crash plans single out.
const STRAGGLER: usize = 5;
/// Later than any cell's write phase, earlier than `CRASH_AT + 1`.
const CRASH_AT: f64 = 0.5;

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
    /// A transient outage on OST 0: the only plan here that makes the
    /// retry-with-backoff path run.
    OstOutage,
    /// A flaky OST with the pfs health layer attached (hedged cells only).
    FlakyDefended,
    /// Rank `STRAGGLER` has a stall window far ahead of the run: it never
    /// stalls, but writers route around its level-2 segments.
    OwnerStall,
    /// Rank `STRAGGLER` crash-stops at `CRASH_AT`.
    OwnerCrash,
}

impl Plan {
    fn label(self) -> &'static str {
        match self {
            Plan::None => "none",
            Plan::OstSlowdown => "ost_slowdown",
            Plan::OstOutage => "ost_outage",
            Plan::FlakyDefended => "flaky_defended",
            Plan::OwnerStall => "owner_stall",
            Plan::OwnerCrash => "owner_crash",
        }
    }

    fn file(name: &str) -> Option<Arc<chaos::ChaosEngine>> {
        let path = format!("{}/plans/{name}.toml", env!("CARGO_MANIFEST_DIR"));
        let text = std::fs::read_to_string(path).unwrap();
        Some(chaos::FaultPlan::parse(&text).unwrap().build().unwrap())
    }

    fn fault(seed: u64, fault: chaos::Fault) -> Option<Arc<chaos::ChaosEngine>> {
        Some(chaos::FaultPlan::new(seed).with(fault).build().unwrap())
    }

    fn engine(self) -> Option<Arc<chaos::ChaosEngine>> {
        match self {
            Plan::None => None,
            Plan::OstSlowdown => Plan::file("ost_slowdown"),
            Plan::OstOutage => Plan::file("ost_outage"),
            Plan::FlakyDefended => Plan::fault(
                41,
                chaos::Effect::FlakyOst {
                    ost: 0,
                    factor: 16.0,
                    period: 1e-3,
                    duty: 0.7,
                }
                .during(0.0, 0.05),
            ),
            Plan::OwnerStall => Plan::fault(
                43,
                chaos::Effect::RankStall { rank: STRAGGLER }.during(10.0, 11.0),
            ),
            Plan::OwnerCrash => Plan::fault(
                47,
                chaos::Fault::RankCrash {
                    rank: STRAGGLER,
                    at: CRASH_AT,
                },
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
    let spans = span_counts(rep);
    let spans: Vec<String> = spans.iter().map(|(n, c)| format!("{n}={c}")).collect();
    writeln!(out, "spans {}", spans.join(" ")).unwrap();
}

/// Install the Fig. 2 view: this rank's blocks, every `NPROCS`-th.
fn set_interleaved_view(rk: &mut mpisim::Rank, f: &mut File) -> Result<(), MpiError> {
    let etype = Datatype::contiguous(BLOCK, Datatype::named(Named::Byte)).commit();
    let ftype = Datatype::vector(
        BLOCKS_PER_RANK,
        1,
        NPROCS as isize,
        etype.datatype().clone(),
    )
    .commit();
    Ok(f.set_view(rk, (rk.rank() * BLOCK) as u64, &etype, &ftype)?)
}

/// How often each span name occurs in a finished cell.
fn span_counts<T>(rep: &mpisim::SimReport<T>) -> BTreeMap<&'static str, usize> {
    let mut spans = BTreeMap::new();
    for t in &rep.traces {
        for s in &t.spans {
            *spans.entry(s.name).or_default() += 1;
        }
    }
    spans
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
        let mut f = File::open(rk, &fs2, "/fp", mode)?;
        set_interleaved_view(rk, &mut f)?;
        let data = rank_data(rk.rank());
        let mut back = vec![0u8; data.len()];
        match entry {
            Entry::WriteAll => mpiio::write_all_at(rk, &mut f, 0, &data, &cfg),
            Entry::ReadAll => mpiio::read_all_at(rk, &mut f, 0, &mut back, &cfg),
            Entry::WriteViewBased => {
                let views = mpiio::register_views(rk, &f)?;
                mpiio::write_all_view_based(rk, &mut f, &views, 0, &data, &cfg)
            }
            Entry::ReadViewBased => {
                let views = mpiio::register_views(rk, &f)?;
                mpiio::read_all_view_based(rk, &mut f, &views, 0, &mut back, &cfg)
            }
            Entry::WritePartitioned => {
                // Two groups of eight, each straddling two nodes.
                let comm = rk.split((rk.rank() / 8) as u64)?;
                mpiio::write_all_partitioned(rk, &mut f, &comm, 0, &data, &cfg)
            }
        }?;
        f.close(rk)?;
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

/// tcio write + read-back through the level-2 drain and segment loads,
/// with `knobs` applied to the sized-to-fit configuration.
fn tcio_cell(out: &mut String, name: &str, plan: Plan, knobs: impl Fn(&mut TcioConfig) + Sync) {
    let (fs, engine) = new_fs(plan);
    let p = SynthParams::with_types("i,d", 64, 2).unwrap();
    let fs2 = Arc::clone(&fs);
    let p2 = p.clone();
    let rep = mpisim::run(NPROCS, sim_config(true, engine), move |rk| {
        let mut cfg = TcioConfig::for_file_size_with_segment(p2.file_size(NPROCS), NPROCS, 512);
        knobs(&mut cfg);
        synthetic::write_tcio(rk, &fs2, &p2, "/fp", Some(cfg.clone()))?;
        synthetic::read_tcio(rk, &fs2, &p2, "/fp", Some(cfg))?;
        Ok(())
    })
    .unwrap();
    let bytes = fs.snapshot_file(fs.open("/fp").unwrap()).unwrap();
    assert_eq!(bytes.len() as u64, p.file_size(NPROCS));
    render(out, name, &rep, fnv1a(&bytes));
}

/// Independent `write_at` then `read_at` through the interleaved view: one
/// request per extent, or one sieved request pair per call.
fn indep_cell(out: &mut String, name: &str, sieve: bool, plan: Plan) {
    let (fs, engine) = new_fs(plan);
    let fs2 = Arc::clone(&fs);
    let rep = mpisim::run(NPROCS, sim_config(false, engine), move |rk| {
        let mut f = File::open(rk, &fs2, "/fp", Mode::ReadWrite)?;
        set_interleaved_view(rk, &mut f)?;
        f.set_sieving(sieve.then_some(SieveConfig {
            buffer_size: 1 << 20,
            min_extents: 2,
            min_density: 0.0,
        }));
        let data = rank_data(rk.rank());
        f.write_at(rk, 0, &data)?;
        rk.barrier()?;
        let mut back = vec![0u8; data.len()];
        f.read_at(rk, 0, &mut back)?;
        f.close(rk)?;
        Ok(back)
    })
    .unwrap();
    let bytes = fs.snapshot_file(fs.open("/fp").unwrap()).unwrap();
    assert_eq!(bytes, file_image(), "{name}: file bytes are wrong");
    for (r, back) in rep.results.iter().enumerate() {
        assert_eq!(back, &rank_data(r), "{name}: rank {r} read foreign bytes");
    }
    let spans = span_counts(&rep);
    let (write, read) = if sieve {
        ("sieve_rmw", "sieve_read")
    } else {
        ("indep_write", "indep_read")
    };
    assert_eq!((spans[write], spans[read]), (NPROCS, NPROCS), "{name}");
    if matches!(plan, Plan::OstOutage) {
        assert!(
            spans["io_retry"] > 0,
            "{name}: the outage must force retries"
        );
    }
    render(
        out,
        name,
        &rep,
        fnv1a(&[bytes, rep.results.concat()].concat()),
    );
}

/// Segment loads whose first, open-time-priced attempt lands inside the
/// outage and is retried at the backed-off clock (a write phase in the same
/// run would outlast the outage first).
fn tcio_load_retry_cell(out: &mut String, name: &str, read_mode: ReadMode) {
    // Populate the file before the plan can refuse the write.
    let (fs, _) = new_fs(Plan::None);
    let fid = fs.create("/fp").unwrap();
    fs.write_at(fid, 0, 0, &file_image(), 0.0).unwrap();
    let engine = Plan::OstOutage.engine();
    fs.attach_chaos(Arc::clone(engine.as_ref().unwrap()))
        .unwrap();
    let fs2 = Arc::clone(&fs);
    let rep = mpisim::run(NPROCS, sim_config(true, engine), move |rk| {
        let cfg = TcioConfig {
            read_mode,
            ..TcioConfig::for_file_size_with_segment(file_image().len() as u64, NPROCS, 512)
        };
        let mut back = vec![0u8; BLOCK * BLOCKS_PER_RANK];
        let mut f = TcioFile::open(rk, &fs2, "/fp", TcioMode::Read, cfg)?;
        for (k, piece) in back.chunks_mut(BLOCK).enumerate() {
            let off = ((k * NPROCS + rk.rank()) * BLOCK) as u64;
            f.read_at(rk, off, piece)?;
        }
        f.close(rk)?;
        Ok(back)
    })
    .unwrap();
    for (r, back) in rep.results.iter().enumerate() {
        assert_eq!(back, &rank_data(r), "{name}: rank {r} read foreign bytes");
    }
    let spans = span_counts(&rep);
    assert!(spans["io_retry"] > 0, "{name}: no load was retried");
    render(out, name, &rep, fnv1a(&rep.results.concat()));
}

/// A tcio dump of the Fig. 2 image — one block per window visit, so every
/// rank flushes in lockstep and `SyncMode::Fence` is legal — then a
/// read-back by whoever is still alive, with `knobs` applied to the
/// sized-to-fit configuration.
///
/// `OwnerStall`: writers bypass `STRAGGLER`'s segments (level-1 fallback).
/// `OwnerCrash`: every byte is acknowledged by a collective flush, the owner
/// dies inside `close`, its buddy drains the replica, and the survivors'
/// re-open sees a zero-byte window for the dead rank, so reads of its
/// segments fall back to the file system.
fn tcio_image_cell(out: &mut String, name: &str, plan: Plan, knobs: fn(&mut TcioConfig)) {
    let (fs, engine) = new_fs(plan);
    let crash = matches!(plan, Plan::OwnerCrash);
    let fs2 = Arc::clone(&fs);
    let rep = mpisim::run(NPROCS, sim_config(true, engine), move |rk| {
        let me = rk.rank();
        let mut cfg =
            TcioConfig::for_file_size_with_segment(file_image().len() as u64, NPROCS, 512);
        knobs(&mut cfg);
        let offset = |k: usize| ((k * NPROCS + me) * BLOCK) as u64;
        let mut f = TcioFile::open(rk, &fs2, "/fp", TcioMode::Write, cfg.clone())?;
        for (k, block) in rank_data(me).chunks(BLOCK).enumerate() {
            f.write_at(rk, offset(k), block)?;
        }
        f.flush(rk)?;
        if crash {
            // Past the crash instant, so the failure fires inside close.
            rk.advance(1.0);
        }
        let stats = match f.close(rk) {
            Ok(stats) => stats,
            // Fault-tolerant caller: the victim's own close fails typed.
            Err(TcioError::Mpi(MpiError::RankCrashed { rank })) if crash && rank == me => {
                return Ok((Vec::new(), 0));
            }
            Err(e) => return Err(e.into()),
        };
        let mut back = vec![0u8; BLOCK * BLOCKS_PER_RANK];
        let mut g = TcioFile::open(rk, &fs2, "/fp", TcioMode::Read, cfg)?;
        for (k, piece) in back.chunks_mut(BLOCK).enumerate() {
            g.read_at(rk, offset(k), piece)?;
        }
        g.close(rk)?;
        Ok((back, stats.l1_fallbacks))
    })
    .unwrap();
    let bytes = fs.snapshot_file(fs.open("/fp").unwrap()).unwrap();
    assert_eq!(bytes, file_image(), "{name}: file bytes are wrong");
    for (r, (back, _)) in rep.results.iter().enumerate() {
        if !(crash && r == STRAGGLER) {
            assert_eq!(back, &rank_data(r), "{name}: rank {r} read foreign bytes");
        }
    }
    let spans = span_counts(&rep);
    let fallbacks: u64 = rep.results.iter().map(|&(_, n)| n).sum();
    match plan {
        Plan::OwnerCrash => {
            assert_eq!(rep.stats[STRAGGLER].rank_crashes, 1, "{name}");
            for span in ["tcio_recover", "tcio_read_fallback"] {
                assert!(spans.contains_key(span), "{name}: no {span} span");
            }
        }
        Plan::OwnerStall => {
            assert!(fallbacks > 0, "{name}: nobody took the level-1 fallback");
            assert_eq!(spans["tcio_l1_fallback"] as u64, fallbacks, "{name}");
        }
        _ => assert_eq!(fallbacks, 0, "{name}"),
    }
    let back: Vec<u8> = rep.results.iter().flat_map(|(b, _)| b.clone()).collect();
    render(out, name, &rep, fnv1a(&[bytes, back].concat()));
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
                ..Default::default()
            };
            collective_cell(&mut out, entry, &name, cfg, true, Plan::FlakyDefended);
        }
    }
    // The fourth round loop: tcio's level-2 drain (and, with the health
    // layer on, its hedged loads).
    for plan in [Plan::None, Plan::OstSlowdown, Plan::FlakyDefended] {
        for pipeline_drain in [false, true] {
            let name = format!(
                "tcio drain={} plan={}{}",
                if pipeline_drain { "pipelined" } else { "flat" },
                plan.label(),
                if matches!(plan, Plan::FlakyDefended) {
                    " hedged"
                } else {
                    ""
                }
            );
            tcio_cell(&mut out, &name, plan, |c| c.pipeline_drain = pipeline_drain);
        }
    }
    // Everything else that issues file-system requests.
    for sieve in [false, true] {
        for plan in [Plan::None, Plan::OstOutage] {
            let name = format!(
                "indep sieve={} plan={}",
                if sieve { "on" } else { "off" },
                plan.label()
            );
            indep_cell(&mut out, &name, sieve, plan);
        }
    }
    tcio_cell(&mut out, "tcio use_l1=false plan=none", Plan::None, |c| {
        c.use_l1 = false
    });
    tcio_cell(&mut out, "tcio read=eager plan=none", Plan::None, |c| {
        c.read_mode = ReadMode::Eager
    });
    for pipeline_drain in [false, true] {
        let name = format!(
            "tcio drain={} plan=ost_outage",
            if pipeline_drain { "pipelined" } else { "flat" }
        );
        tcio_cell(&mut out, &name, Plan::OstOutage, |c| {
            c.pipeline_drain = pipeline_drain
        });
    }
    for (label, read_mode) in [("lazy", ReadMode::Lazy), ("eager", ReadMode::Eager)] {
        let name = format!("tcio load read={label} plan=ost_outage");
        tcio_load_retry_cell(&mut out, &name, read_mode);
    }
    type Knobs = fn(&mut TcioConfig);
    let image_cells: [(&str, Plan, Knobs); 5] = [
        ("sync=fence", Plan::None, |c| c.sync = SyncMode::Fence),
        ("sync=fence use_l1=false", Plan::None, |c| {
            c.sync = SyncMode::Fence;
            c.use_l1 = false;
        }),
        ("default", Plan::OwnerStall, |_| {}),
        ("default", Plan::OwnerCrash, |_| {}),
        ("use_l1=false", Plan::OwnerCrash, |c| c.use_l1 = false),
    ];
    for (knobs_label, plan, knobs) in image_cells {
        let name = format!("tcio image {knobs_label} plan={}", plan.label());
        tcio_image_cell(&mut out, &name, plan, knobs);
    }
    out
}

#[test]
fn round_loops_match_golden_fingerprint() {
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/golden/rounds_fingerprint.txt"
    );
    check_golden(path, &fingerprint()).unwrap_or_else(|why| panic!("{why}"));
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

/// `SyncMode::Fence` is only legal for callers that flush in lockstep (the
/// image cells above). The synthetic workload at 512-byte segments without
/// level 1, or at 256-byte segments with it, is not one: some ranks reach
/// `close` while others still fence. That used to pair a fence with a
/// peer's `close` barrier — a flush mis-ordered against the drain, caught
/// only by the restart's verification — and is a typed usage error now,
/// on every rank, before any byte is misplaced.
#[test]
fn fence_outside_lockstep_is_a_typed_usage_error() {
    for (segment, use_l1) in [(512, false), (256, true)] {
        let (fs, engine) = new_fs(Plan::None);
        let p = SynthParams::with_types("i,d", 64, 2).unwrap();
        let run = mpisim::run(NPROCS, sim_config(false, engine), move |rk| {
            let mut cfg =
                TcioConfig::for_file_size_with_segment(p.file_size(NPROCS), NPROCS, segment);
            cfg.sync = SyncMode::Fence;
            cfg.use_l1 = use_l1;
            Ok(synthetic::write_tcio(rk, &fs, &p, "/fp", Some(cfg))?)
        });
        match run {
            Err(SimError::RankFailed { error, .. }) => match error.layer::<WlError>() {
                Some(WlError::Tcio(TcioError::Usage(why))) if why.contains("lockstep") => {}
                other => panic!("segment {segment}: expected a usage error, got {other:?}"),
            },
            other => panic!("segment {segment}: {:?}", other.map(|rep| rep.makespan)),
        }
    }
}
