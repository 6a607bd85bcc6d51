//! Verification-first tests for the tracing/metrics layer: conservation of
//! virtual time and bytes, well-formed span structure, and a golden-file
//! check of the Chrome trace exporter.
//!
//! The contract under test: every advance of a rank's virtual clock is
//! attributed to exactly one phase (compute/exchange/io/sync), so the
//! per-phase totals partition the elapsed time; and every byte a write
//! span claims is a byte that landed in the simulated PFS.

use bench::perfgate::check_golden;
use std::sync::Arc;
use workloads::synthetic::{self, Configs, Direction, Method, SynthParams};

/// Span names that account for bytes written to the PFS (one per write
/// path: collective aggregator, independent, data-sieving RMW, TCIO
/// drain — plus the pipelined twins each path records when its deferred
/// round/segment handles are in play).
const WRITE_SITES: [&str; 8] = [
    "ocio_io",
    "indep_write",
    "sieve_rmw",
    "tcio_drain",
    "ocio_io_pipe",
    "vb_io_pipe",
    "par_io_pipe",
    "tcio_drain_pipe",
];

fn traced_write(
    method: Method,
    nprocs: usize,
    p: &SynthParams,
) -> (mpisim::SimReport<()>, Arc<pfs::Pfs>) {
    traced_write_topo(method, nprocs, p, None)
}

fn traced_write_topo(
    method: Method,
    nprocs: usize,
    p: &SynthParams,
    topology: Option<mpisim::Topology>,
) -> (mpisim::SimReport<()>, Arc<pfs::Pfs>) {
    let fs = pfs::Pfs::new(nprocs, pfs::PfsConfig::default()).unwrap();
    let sim = mpisim::SimConfig {
        trace: true,
        topology,
        ..Default::default()
    };
    let fs2 = Arc::clone(&fs);
    let p2 = p.clone();
    let rep = mpisim::run(nprocs, sim, move |rk| {
        let cfgs = Configs::default();
        synthetic::run(Direction::Write, method, rk, &fs2, &p2, "/obs", &cfgs)?;
        Ok(())
    })
    .unwrap();
    (rep, fs)
}

#[test]
fn phase_durations_sum_to_elapsed_virtual_time() {
    // The acceptance criterion: per rank, compute + exchange + io + sync
    // must equal the final clock to within 1e-9 virtual seconds, for every
    // I/O method on the interleaved-arrays workload.
    let p = SynthParams::with_types("i,d", 256, 2).unwrap();
    for method in [Method::Ocio, Method::Tcio, Method::Vanilla] {
        let (rep, _) = traced_write(method, 4, &p);
        for (r, tr) in rep.traces.iter().enumerate() {
            let residual = (tr.totals.total() - rep.clocks[r]).abs();
            assert!(
                residual <= 1e-9,
                "{method:?} rank {r}: phase sum {} vs clock {} (residual {residual:e})",
                tr.totals.total(),
                rep.clocks[r]
            );
        }
        // The same invariant must hold with recording off (phase totals are
        // always-on; spans are the optional part).
        let fs = pfs::Pfs::new(4, pfs::PfsConfig::default()).unwrap();
        let p2 = p.clone();
        let rep_off = mpisim::run(4, mpisim::SimConfig::default(), move |rk| {
            let cfgs = Configs::default();
            synthetic::run(Direction::Write, method, rk, &fs, &p2, "/obs", &cfgs)?;
            Ok(())
        })
        .unwrap();
        for (r, tr) in rep_off.traces.iter().enumerate() {
            assert!((tr.totals.total() - rep_off.clocks[r]).abs() <= 1e-9);
            assert!(tr.spans.is_empty(), "spans must not be recorded when off");
        }
    }
}

#[test]
fn traced_write_bytes_equal_pfs_bytes_landed() {
    // Bytes conservation: the sum of bytes claimed by write-site spans
    // equals the bytes the simulated PFS actually accepted.
    let p = SynthParams::with_types("i,d", 384, 4).unwrap();
    for method in [Method::Ocio, Method::Tcio, Method::Vanilla] {
        let (rep, fs) = traced_write(method, 4, &p);
        let claimed: u64 = rep
            .traces
            .iter()
            .flat_map(|t| &t.spans)
            .filter(|s| WRITE_SITES.contains(&s.name))
            .map(|s| s.bytes)
            .sum();
        let landed = fs.stats.snapshot().bytes_written;
        assert_eq!(
            claimed, landed,
            "{method:?}: spans claim {claimed} B written, PFS landed {landed} B"
        );
        assert!(claimed > 0, "{method:?} must have written something");
    }
}

#[test]
fn spans_are_well_formed_and_dependencies_resolve() {
    let p = SynthParams::with_types("i,d", 128, 2).unwrap();
    let (rep, _) = traced_write(Method::Tcio, 4, &p);
    let mut all_ids = std::collections::HashSet::new();
    for tr in &rep.traces {
        assert!(!tr.spans.is_empty());
        for s in &tr.spans {
            assert!(s.end >= s.start, "span {} runs backwards", s.name);
            assert!(s.start >= 0.0 && s.end <= rep.clocks[s.rank] + 1e-12);
            assert!(all_ids.insert(s.id), "duplicate span id {}", s.id);
            assert_eq!((s.id >> 32) as usize, s.rank, "id must embed the rank");
        }
    }
    // Every dependency edge must point at a recorded span on some rank,
    // and a receive cannot complete before its matching send completed.
    // The TCIO exchange is one-sided, so matched edges come from a ring of
    // explicit sends layered on top of the workload.
    let nprocs = 4;
    let sim = mpisim::SimConfig {
        trace: true,
        ..Default::default()
    };
    let rep = mpisim::run(nprocs, sim, |rk| {
        let n = rk.nprocs();
        let me = rk.rank();
        rk.send((me + 1) % n, 7, &[me as u8; 1024])?;
        rk.recv(Some((me + n - 1) % n), Some(7))?;
        rk.barrier()?;
        Ok(())
    })
    .unwrap();
    let by_id: std::collections::HashMap<u64, &mpisim::Span> = rep
        .traces
        .iter()
        .flat_map(|t| &t.spans)
        .map(|s| (s.id, s))
        .collect();
    let mut edges = 0usize;
    for s in rep.traces.iter().flat_map(|t| &t.spans) {
        if let Some(dep) = s.dep {
            let src = by_id.get(&dep).expect("dangling dependency edge");
            assert!(src.end <= s.end + 1e-12, "effect precedes cause");
            assert_ne!(src.rank, s.rank, "ring edges must cross ranks");
            edges += 1;
        }
    }
    assert_eq!(edges, nprocs, "one recv edge per rank in the ring");
}

/// Owner-local, OST-disjoint dump on 4 ranks: rank `r` writes exactly
/// stripe `r`, so no shared timeline (NIC port, rx port, OST) ever sees
/// two racing reservations and every virtual clock is
/// scheduler-independent — the precondition for comparing clocks across
/// two separate runs bit-for-bit.
fn disjoint_write_run(
    method: Method,
    topology: Option<mpisim::Topology>,
) -> (Vec<f64>, mpisim::FabricStatsSnapshot, Vec<u8>) {
    let nprocs = 4;
    let seg: u64 = 1 << 12;
    let pcfg = pfs::PfsConfig {
        stripe_size: seg,
        stripe_count: 4,
        num_osts: 4,
        ..Default::default()
    };
    let fs = pfs::Pfs::new(nprocs, pcfg).unwrap();
    let sim = mpisim::SimConfig {
        topology,
        ..Default::default()
    };
    let fs2 = Arc::clone(&fs);
    let rep = mpisim::run(nprocs, sim, move |rk| {
        let off = rk.rank() as u64 * seg;
        let data = vec![rk.rank() as u8 + 1; seg as usize];
        match method {
            Method::Tcio => {
                let cfg = tcio::TcioConfig {
                    segment_size: seg,
                    num_segments: 1,
                    ..Default::default()
                };
                let mut f = tcio::TcioFile::open(rk, &fs2, "/zco", tcio::TcioMode::Write, cfg)?;
                f.write_at(rk, off, &data)?;
                f.close(rk)?;
            }
            Method::Ocio => {
                let mut f = mpiio::File::open(rk, &fs2, "/zco", mpiio::Mode::WriteOnly)?;
                mpiio::write_all_at(rk, &mut f, off, &data, &mpiio::CollectiveConfig::default())?;
                f.close(rk)?;
            }
            _ => {
                let mut f = mpiio::File::open(rk, &fs2, "/zco", mpiio::Mode::WriteOnly)?;
                f.write_at(rk, off, &data)?;
                f.close(rk)?;
            }
        }
        Ok(())
    })
    .unwrap();
    let fid = fs.open("/zco").unwrap();
    (rep.clocks, rep.fabric, fs.snapshot_file(fid).unwrap())
}

#[test]
fn trivial_topology_is_bit_identical_to_no_topology() {
    // Zero-cost-off: placing every rank on its own node (`ppn = 1`) must
    // leave the simulation indistinguishable from one with no topology at
    // all — same file bytes, same fabric counters, and the same virtual
    // clock on every rank, to the bit, for all three write stacks.
    for method in [Method::Tcio, Method::Ocio, Method::Vanilla] {
        let (c0, f0, b0) = disjoint_write_run(method, None);
        let (c1, f1, b1) = disjoint_write_run(method, Some(mpisim::Topology::blocked(4, 1)));
        assert_eq!(b0, b1, "{method:?}: ppn=1 topology changed file bytes");
        assert_eq!(c0, c1, "{method:?}: ppn=1 topology changed rank clocks");
        assert_eq!(f0, f1, "{method:?}: ppn=1 topology changed fabric stats");
        assert_eq!(
            f1.intra_bytes + f1.inter_bytes,
            f1.bytes,
            "{method:?}: byte-level split must partition total fabric bytes"
        );
    }
}

#[test]
fn fabric_level_split_partitions_messages_and_bytes() {
    // Conservation of the new per-level counters: every transfer is
    // classified intra xor inter, so the splits must sum to the fabric
    // totals exactly — with co-located ranks and without.
    let p = SynthParams::with_types("i,d", 384, 4).unwrap();
    for topology in [None, Some(mpisim::Topology::blocked(4, 2))] {
        for method in [Method::Ocio, Method::Tcio, Method::Vanilla] {
            let (rep, fs) = traced_write_topo(method, 4, &p, topology.clone());
            let f = rep.fabric;
            assert_eq!(
                f.intra_messages + f.inter_messages,
                f.messages,
                "{method:?} topo={:?}: message split leaks",
                topology.is_some()
            );
            assert_eq!(
                f.intra_bytes + f.inter_bytes,
                f.bytes,
                "{method:?} topo={:?}: byte split leaks",
                topology.is_some()
            );
            // The bytes-landed conservation of the seed suite must keep
            // holding when a topology reroutes transfers through node NICs.
            let claimed: u64 = rep
                .traces
                .iter()
                .flat_map(|t| &t.spans)
                .filter(|s| WRITE_SITES.contains(&s.name))
                .map(|s| s.bytes)
                .sum();
            assert_eq!(claimed, fs.stats.snapshot().bytes_written);
        }
    }
    // With co-located ranks the two-level exchange must actually shift
    // traffic onto the intra-node links.
    let fs = pfs::Pfs::new(4, pfs::PfsConfig::default()).unwrap();
    let sim = mpisim::SimConfig {
        topology: Some(mpisim::Topology::blocked(4, 2)),
        ..Default::default()
    };
    let fs2 = Arc::clone(&fs);
    let p2 = p.clone();
    let rep = mpisim::run(4, sim, move |rk| {
        let ccfg = mpiio::CollectiveConfig {
            intra_agg: true,
            ..Default::default()
        };
        synthetic::write_ocio(rk, &fs2, &p2, "/obs", &ccfg)?;
        Ok(())
    })
    .unwrap();
    assert!(
        rep.fabric.intra_bytes > 0,
        "two-level exchange on a 2-rank node must move intra-node bytes"
    );
    assert_eq!(
        rep.fabric.intra_bytes + rep.fabric.inter_bytes,
        rep.fabric.bytes
    );
}

#[test]
fn chrome_trace_matches_golden_file() {
    // One rank, fixed workload: the trace is exactly deterministic, so the
    // exported JSON must be byte-identical to the committed golden file.
    let p = SynthParams::with_types("i,d", 16, 2).unwrap();
    let (rep, _) = traced_write(Method::Tcio, 1, &p);
    let json = mpisim::chrome_trace_json(&rep.traces);
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/golden/chrome_trace.json"
    );
    check_golden(path, &json).unwrap_or_else(|why| panic!("{why}"));
    // Sanity-check the envelope without relying on a JSON parser.
    assert!(json.starts_with("{\"traceEvents\":["));
    assert!(json.trim_end().ends_with("\"displayTimeUnit\":\"ms\"}"));
    assert!(json.contains("\"ph\":\"X\""));
}

#[test]
fn chrome_trace_stays_well_formed_across_a_rank_crash() {
    // The committed crash plan: rank 0 fails permanently at t = 3 ms,
    // mid write phase. The exported Chrome trace must remain parseable,
    // every event well-formed, and — the attribution contract — no span
    // may be charged to the crashed rank after its crash instant.
    let text = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/plans/rank_crash.toml"
    ))
    .unwrap();
    let engine = chaos::FaultPlan::parse(&text).unwrap().build().unwrap();

    let nprocs = 4;
    let block = 16usize;
    let fs = pfs::Pfs::new(nprocs, pfs::PfsConfig::default()).unwrap();
    fs.attach_chaos(Arc::clone(&engine)).unwrap();
    let sim = mpisim::SimConfig {
        trace: true,
        chaos: Some(Arc::clone(&engine)),
        ..Default::default()
    };
    let fs2 = Arc::clone(&fs);
    let rep = mpisim::run(nprocs, sim, move |rk| {
        let cfg = tcio::TcioConfig {
            segment_size: 64,
            num_segments: 4,
            ..Default::default()
        };
        let me = rk.rank();
        let mut f = tcio::TcioFile::open(rk, &fs2, "/crash_trace", tcio::TcioMode::Write, cfg)?;
        let data = vec![me as u8 + 1; block];
        for i in 0..6 {
            let off = ((i * rk.nprocs() + me) * block) as u64;
            f.write_at(rk, off, &data)?;
        }
        f.flush(rk)?;
        // Move past the crash instant so the failure fires inside close.
        rk.advance(1.0);
        match f.close(rk) {
            Ok(_) => Ok(()),
            Err(tcio::TcioError::Mpi(mpisim::MpiError::RankCrashed { rank })) if rank == me => {
                Ok(())
            }
            Err(e) => Err(e.into()),
        }
    })
    .unwrap();
    assert_eq!(rep.stats[0].rank_crashes, 1, "the plan must fire on rank 0");

    // The crash instant, as recorded: the (zero-width) rank_crash span.
    let crash_span = rep.traces[0]
        .spans
        .iter()
        .find(|s| s.name == "rank_crash")
        .expect("crashed rank must carry a rank_crash span");
    let t_crash = crash_span.end;

    // No span may be attributed to the dead rank after the crash: spans
    // are recorded at completion, and a crashed rank completes nothing.
    for s in &rep.traces[0].spans {
        assert!(
            s.start <= t_crash + 1e-12,
            "span {:?} starts at {} on rank 0, after the crash at {t_crash}",
            s.name,
            s.start
        );
    }
    // Its clock froze at the crash; survivors ran on past it.
    assert!(rep.clocks[0] <= t_crash + 1e-9);
    assert!(rep.clocks.iter().skip(1).all(|&c| c > t_crash));

    // The exported trace parses as JSON and every event is well-formed.
    let trace = mpisim::chrome_trace_json(&rep.traces);
    let doc = bench::Json::parse(&trace).expect("chrome trace must be valid JSON");
    assert_eq!(
        doc.get("displayTimeUnit").and_then(|j| j.as_str()),
        Some("ms")
    );
    let events = doc
        .get("traceEvents")
        .and_then(|j| j.as_arr())
        .expect("traceEvents array");
    assert!(!events.is_empty());
    let mut prev_ts = f64::MIN;
    let mut ids = std::collections::BTreeSet::new();
    for ev in events {
        assert_eq!(ev.get("ph").and_then(|j| j.as_str()), Some("X"));
        assert!(ev.get("name").and_then(|j| j.as_str()).is_some());
        let ts = ev.get("ts").and_then(|j| j.as_f64()).expect("numeric ts");
        let dur = ev.get("dur").and_then(|j| j.as_f64()).expect("numeric dur");
        let tid = ev.get("tid").and_then(|j| j.as_f64()).expect("numeric tid");
        assert!(ts.is_finite() && dur.is_finite() && dur >= 0.0);
        assert!((tid as usize) < nprocs, "tid {tid} out of range");
        assert!(ts >= prev_ts, "events must be sorted by start time");
        prev_ts = ts;
        let id = ev
            .get("args")
            .and_then(|a| a.get("id"))
            .and_then(|j| j.as_f64())
            .expect("span id") as u64;
        assert!(ids.insert(id), "span id {id} duplicated");
        if tid as usize == 0 {
            assert!(
                ts <= t_crash * 1e6 + 1e-3,
                "event at {ts}us charged to crashed rank 0 after crash at {}us",
                t_crash * 1e6
            );
        }
    }
}

/// Chunked collective write (several rounds per aggregator), flat or
/// pipelined, with request aggregation on a 2-ranks-per-node topology.
fn pipelined_conservation_run(pipeline: bool) -> (mpisim::SimReport<()>, Arc<pfs::Pfs>) {
    let nprocs = 4;
    let fs = pfs::Pfs::new(nprocs, pfs::PfsConfig::default()).unwrap();
    let sim = mpisim::SimConfig {
        trace: true,
        topology: Some(mpisim::Topology::blocked(nprocs, 2)),
        ..Default::default()
    };
    let fs2 = Arc::clone(&fs);
    let rep = mpisim::run(nprocs, sim, move |rk| {
        let ccfg = mpiio::CollectiveConfig {
            cb_buffer: Some(256),
            req_agg: true,
            pipeline,
            ..Default::default()
        };
        let p = SynthParams::with_types("i,d", 256, 2).unwrap();
        synthetic::write_ocio(rk, &fs2, &p, "/pipe_obs", &ccfg)?;
        Ok(())
    })
    .unwrap();
    (rep, fs)
}

#[test]
fn pipelined_rounds_conserve_time_bytes_and_report_overlap() {
    // The overlap-conservation contract for the round pipeline: deferring
    // I/O completions must not lose or double-count virtual time (the
    // critical path still tiles [0, makespan] with zero residual), must
    // not leak bytes (write-site spans still equal PFS bytes landed), and
    // must show up in the insight overlap report — a strictly positive
    // exchange/service overlap fraction, where the flat run reports
    // exactly zero.
    let (flat, flat_fs) = pipelined_conservation_run(false);
    let (piped, piped_fs) = pipelined_conservation_run(true);

    for (rep, fs, label) in [(&flat, &flat_fs, "flat"), (&piped, &piped_fs, "pipelined")] {
        // Per-rank phase totals still partition the clock.
        for (r, tr) in rep.traces.iter().enumerate() {
            assert!(
                (tr.totals.total() - rep.clocks[r]).abs() <= 1e-9,
                "{label} rank {r}: phase sum {} vs clock {}",
                tr.totals.total(),
                rep.clocks[r]
            );
        }
        // Critical path tiles the makespan with zero residual.
        let cp = insight::Analyzer::new(&rep.traces).critical_path();
        assert!(!cp.truncated, "{label}: path walker truncated");
        assert!(
            cp.residual().abs() <= 1e-9 * rep.makespan.max(1.0),
            "{label}: path breakdown loses {}s of the makespan",
            cp.residual()
        );
        // Bytes conservation through the (possibly pipelined) write sites.
        let claimed: u64 = rep
            .traces
            .iter()
            .flat_map(|t| &t.spans)
            .filter(|s| WRITE_SITES.contains(&s.name))
            .map(|s| s.bytes)
            .sum();
        assert_eq!(
            claimed,
            fs.stats.snapshot().bytes_written,
            "{label}: write-site spans disagree with PFS bytes landed"
        );
        assert!(claimed > 0, "{label}: nothing was written");
    }

    // Same file bytes either way — the pipeline is a pure timing feature.
    let bytes = |fs: &Arc<pfs::Pfs>| {
        let fid = fs.open("/pipe_obs").unwrap();
        fs.snapshot_file(fid).unwrap()
    };
    assert_eq!(bytes(&flat_fs), bytes(&piped_fs), "pipeline changed bytes");

    // Overlap attribution: flat is exactly zero; pipelined is positive.
    let flat_ov = insight::Analyzer::new(&flat.traces).overlap_report();
    let piped_ov = insight::Analyzer::new(&piped.traces).overlap_report();
    assert_eq!(
        flat_ov.fraction(),
        0.0,
        "flat rounds are serialized — no exchange/service overlap"
    );
    assert!(
        piped_ov.fraction() > 0.0,
        "pipelined rounds must hide OST service behind exchange \
         (io_busy {} overlapped {})",
        piped_ov.io_busy,
        piped_ov.overlapped
    );
    // And the pipelined spans really are the deferred twins.
    assert!(
        piped
            .traces
            .iter()
            .flat_map(|t| &t.spans)
            .any(|s| s.name == "ocio_io_pipe"),
        "pipelined run must record deferred-round write spans"
    );
}

#[test]
fn metrics_off_is_bit_identical_and_collects_nothing() {
    // Zero-cost-off for the metrics registry, guarded like the chaos
    // checks: the same owner-local deterministic workload with
    // `metrics: false` vs `true` must produce bit-identical virtual
    // clocks and file bytes, and the off-run must collect no histogram
    // observations (counters still flow from the always-on stats).
    fn run(metrics: bool) -> (Vec<f64>, f64, Vec<u8>, mpisim::Registry) {
        let nprocs = 4;
        let seg: u64 = 1 << 12;
        let pcfg = pfs::PfsConfig {
            stripe_size: seg,
            stripe_count: 4,
            num_osts: 4,
            ..Default::default()
        };
        let fs = pfs::Pfs::new(nprocs, pcfg).unwrap();
        let sim = mpisim::SimConfig {
            metrics,
            ..Default::default()
        };
        let fs2 = Arc::clone(&fs);
        let rep = mpisim::run(nprocs, sim, move |rk| {
            let cfg = tcio::TcioConfig {
                segment_size: seg,
                num_segments: 1,
                ..Default::default()
            };
            let mut f = tcio::TcioFile::open(rk, &fs2, "/zc", tcio::TcioMode::Write, cfg)?;
            let data = vec![rk.rank() as u8 + 1; seg as usize];
            f.write_at(rk, rk.rank() as u64 * seg, &data)?;
            f.close(rk)?;
            // Deterministic ring exchange: gives the message-size
            // histogram something to observe when the gate is on.
            let right = (rk.rank() + 1) % rk.nprocs();
            rk.send(right, 7, &[0u8; 1024])?;
            rk.recv(Some((rk.rank() + rk.nprocs() - 1) % rk.nprocs()), Some(7))?;
            Ok(())
        })
        .unwrap();
        let fid = fs.open("/zc").unwrap();
        let bytes = fs.snapshot_file(fid).unwrap();
        let mut reg = mpisim::Registry::new();
        reg.export_sim_report(&rep);
        (rep.clocks, rep.makespan, bytes, reg)
    }

    let (c0, m0, b0, reg_off) = run(false);
    let (c1, m1, b1, reg_on) = run(true);
    assert_eq!(c0, c1, "metrics collection perturbed virtual clocks");
    assert_eq!(m0, m1, "metrics collection perturbed the makespan");
    assert_eq!(b0, b1, "metrics collection perturbed file bytes");
    assert!(
        reg_off.hists().all(|(_, h)| h.is_empty()),
        "metrics-off run must not record histogram observations"
    );
    assert!(
        reg_on.hists().any(|(_, h)| !h.is_empty()),
        "metrics-on run must populate at least one histogram"
    );
    // The always-on stats/fabric counters are identical either way (the
    // tcio_l1/l2 hit counters live in the gated RankMetrics, so they are
    // legitimately zero when off and excluded here).
    let stats_only = |reg: &mpisim::Registry| -> Vec<(String, u64)> {
        reg.counters()
            .filter(|(k, _)| k.starts_with("mpisim_") || k.starts_with("fabric_"))
            .map(|(k, v)| (k.into(), v))
            .collect()
    };
    assert_eq!(
        stats_only(&reg_off),
        stats_only(&reg_on),
        "stats-derived counters must not depend on the metrics gate"
    );
}

#[test]
fn health_layer_attached_but_healthy_is_bit_identical_and_quiet() {
    // Zero-cost-off for the gray-failure defenses: attaching the health
    // layer (breakers + degraded routing + hedged reads) to a *healthy*
    // system must not move a single virtual timestamp — same clocks,
    // makespan, file bytes, and Chrome trace as the bare run. The only
    // permitted delta is the defense counter keys in the metrics export,
    // and every one of them must read zero.
    fn run(defended: bool) -> (Vec<f64>, f64, Vec<u8>, String, mpisim::Registry) {
        let nprocs = 4;
        let seg: u64 = 1 << 12;
        let pcfg = pfs::PfsConfig {
            stripe_size: seg,
            stripe_count: 4,
            num_osts: 4,
            ..Default::default()
        };
        let fs = pfs::Pfs::new(nprocs, pcfg).unwrap();
        if defended {
            fs.enable_health(pfs::HealthConfig::default()).unwrap();
        }
        let sim = mpisim::SimConfig {
            trace: true,
            ..Default::default()
        };
        let fs2 = Arc::clone(&fs);
        let rep = mpisim::run(nprocs, sim, move |rk| {
            let cfg = tcio::TcioConfig {
                segment_size: seg,
                num_segments: 1,
                ..Default::default()
            };
            let data = vec![rk.rank() as u8 + 1; seg as usize];
            {
                let mut f =
                    tcio::TcioFile::open(rk, &fs2, "/hz", tcio::TcioMode::Write, cfg.clone())?;
                f.write_at(rk, rk.rank() as u64 * seg, &data)?;
                f.close(rk)?;
            }
            let mut f = tcio::TcioFile::open(rk, &fs2, "/hz", tcio::TcioMode::Read, cfg)?;
            let mut buf = vec![0u8; seg as usize];
            f.read_at(rk, rk.rank() as u64 * seg, &mut buf)?;
            f.fetch(rk)?;
            f.close(rk)?;
            assert_eq!(buf, data, "read-back mismatch");
            Ok(())
        })
        .unwrap();
        let fid = fs.open("/hz").unwrap();
        let bytes = fs.snapshot_file(fid).unwrap();
        let mut reg = mpisim::Registry::new();
        reg.export_sim_report(&rep);
        fs.export_metrics(&mut reg);
        (
            rep.clocks,
            rep.makespan,
            bytes,
            mpisim::chrome_trace_json(&rep.traces),
            reg,
        )
    }

    let (c0, m0, b0, t0, reg_off) = run(false);
    let (c1, m1, b1, t1, reg_on) = run(true);
    assert_eq!(c0, c1, "healthy defense layer perturbed virtual clocks");
    assert_eq!(m0, m1, "healthy defense layer perturbed the makespan");
    assert_eq!(b0, b1, "healthy defense layer perturbed file bytes");
    assert_eq!(t0, t1, "healthy defense layer perturbed the Chrome trace");
    // The defense keys exist only on the defended run, and all read zero.
    let defense_keys = [
        "pfs_hedges_issued_total",
        "pfs_hedge_wins_total",
        "pfs_hedge_waste_total",
        "pfs_breaker_opens_total",
        "pfs_breaker_probes_total",
        "pfs_degraded_writes_total",
        "pfs_degraded_bytes_total",
        "pfs_rebuilt_extents_total",
        "pfs_rebuilt_bytes_total",
        "pfs_relocated_live",
    ];
    type Counters = Vec<(String, u64)>;
    let split = |reg: &mpisim::Registry| -> (Counters, Counters) {
        reg.counters()
            .map(|(k, v)| (k.to_string(), v))
            .partition(|(k, _)| defense_keys.contains(&k.as_str()))
    };
    let (def_off, rest_off) = split(&reg_off);
    let (def_on, rest_on) = split(&reg_on);
    assert!(def_off.is_empty(), "bare run must not export defense keys");
    assert_eq!(
        def_on.len(),
        defense_keys.len(),
        "defended run exports every defense counter"
    );
    for (k, v) in &def_on {
        assert_eq!(*v, 0, "healthy run must leave {k} at zero");
    }
    assert_eq!(
        rest_off, rest_on,
        "non-defense metrics must not depend on the health layer"
    );
}

/// `(timeline_prunes_total, timeline_clamped_total)` of Table-I arrays of
/// `len` elements written and read back through TCIO by 8 ranks over
/// 512-byte level-2 segments, tracing off. An absent key reads as zero.
fn timeline_cliff(len: usize) -> (u64, u64) {
    let nprocs = 8;
    let p = workloads::synthetic::SynthParams::with_types("i,d", len, 1).unwrap();
    let tcfg = tcio::TcioConfig::for_file_size_with_segment(p.file_size(nprocs), nprocs, 512);
    let fs = pfs::Pfs::new(nprocs, pfs::PfsConfig::default()).unwrap();
    let sim = mpisim::SimConfig {
        metrics: true,
        ..Default::default()
    };
    let rep = mpisim::run(nprocs, sim, |rk| {
        workloads::synthetic::write_tcio(rk, &fs, &p, "/cliff", Some(tcfg.clone()))?;
        workloads::synthetic::read_tcio(rk, &fs, &p, "/cliff", Some(tcfg.clone()))?;
        Ok(())
    })
    .unwrap();
    let mut reg = mpisim::Registry::new();
    reg.export_sim_report(&rep);
    fs.export_metrics(&mut reg);
    let read = |name: &str| reg.counter(name).unwrap_or(0);
    (
        read("timeline_prunes_total"),
        read("timeline_clamped_total"),
    )
}

/// The Timeline cliff is counted, not hidden: a cell long enough to fill
/// a timeline reports how often the older half was dropped and how many
/// requests were then moved up to the pruned horizon; a short cell reports
/// neither (so no committed export gains a key).
#[test]
fn timeline_cliff_is_counted_on_a_long_cell_and_silent_on_a_short_one() {
    assert_eq!(timeline_cliff(256), (0, 0));
    let (prunes, clamped) = timeline_cliff(16384);
    assert!(
        prunes > 0 && clamped > 0,
        "{prunes} prunes, {clamped} clamped"
    );
}
