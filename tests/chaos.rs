//! Integration tests for the deterministic fault-injection subsystem:
//! zero-cost-off, lock-storm correctness, bit-exact determinism, and the
//! end-to-end TCIO/OCIO resilience criteria.

use std::sync::Arc;
use tcio::{TcioConfig, TcioFile, TcioMode};

/// A fault plan touching every family the interleaved workload exercises.
fn mixed_plan() -> chaos::FaultPlan {
    chaos::FaultPlan::new(7)
        .with(
            chaos::Effect::OstSlowdown {
                ost: 0,
                factor: 3.0,
            }
            .during(0.0, 1e9),
        )
        .with(chaos::Effect::OstOutage { ost: 2 }.during(0.0, 0.01))
        .with(chaos::Effect::RequestOverhead { extra: 80.0e-6 }.during(0.0, 1e9))
        .with(chaos::Effect::MessageDelay { delay: 30.0e-6 }.during(0.0, 1e9))
        .with(chaos::Effect::RankStall { rank: 1 }.during(0.0, 0.004))
        .with(
            chaos::Effect::RankSlowdown {
                rank: 3,
                factor: 1.5,
            }
            .during(0.0, 1e9),
        )
        .with(chaos::Fault::ConnFlush { at: 0.002 })
        .with(chaos::Effect::LockStorm { clients: None }.during(0.0, 0.001))
}

/// [`mixed_plan`] plus the crash-stop and silent-corruption families.
/// Used only *scaled to zero* by the zero-cost-off test: adding a live
/// crash to `mixed_plan` itself would change what the full-intensity
/// determinism test measures.
fn extended_plan() -> chaos::FaultPlan {
    mixed_plan()
        .with(chaos::Fault::RankCrash { rank: 1, at: 0.003 })
        .with(chaos::Effect::SilentCorruption { rate: 0.3 }.during(0.0, 0.05))
}

/// Owner-local, OST-disjoint TCIO dump + restart: rank r's data lives in
/// its own level-2 segment and on its own OST, so virtual times do not
/// depend on host thread scheduling. Returns (clocks, makespan, retries,
/// stalls, bytes).
fn deterministic_tcio_run(
    engine: Option<Arc<chaos::ChaosEngine>>,
    trace: bool,
) -> (Vec<f64>, f64, u64, u64, Vec<u8>) {
    let nprocs = 4;
    let seg: u64 = 1 << 16;
    let pcfg = pfs::PfsConfig {
        stripe_size: seg,
        stripe_count: 4,
        num_osts: 4,
        ..Default::default()
    };
    let fs = pfs::Pfs::new(nprocs, pcfg).unwrap();
    if let Some(e) = &engine {
        fs.attach_chaos(Arc::clone(e)).unwrap();
    }
    let sim = mpisim::SimConfig {
        trace,
        chaos: engine,
        ..Default::default()
    };
    let fs2 = Arc::clone(&fs);
    let rep = mpisim::run(nprocs, sim, move |rk| {
        let cfg = TcioConfig {
            segment_size: seg,
            num_segments: 1,
            ..Default::default()
        };
        let mut f = TcioFile::open(rk, &fs2, "/det", TcioMode::Write, cfg.clone())?;
        // Rank r writes exactly its own window [r*seg, (r+1)*seg).
        let data = vec![rk.rank() as u8 + 1; seg as usize];
        f.write_at(rk, rk.rank() as u64 * seg, &data)?;
        f.close(rk)?;
        let mut g = TcioFile::open(rk, &fs2, "/det", TcioMode::Read, cfg)?;
        let mut back = vec![0u8; seg as usize];
        g.read_at(rk, rk.rank() as u64 * seg, &mut back)?;
        g.fetch(rk)?;
        g.close(rk)?;
        Ok(back)
    })
    .unwrap();
    for (r, back) in rep.results.iter().enumerate() {
        assert!(
            back.iter().all(|&b| b == r as u8 + 1),
            "rank {r} read bad data"
        );
    }
    let fid = fs.open("/det").unwrap();
    let bytes = fs.snapshot_file(fid).unwrap();
    let retries: u64 = rep.stats.iter().map(|s| s.io_retries).sum();
    let stalls: u64 = rep.stats.iter().map(|s| s.chaos_stalls).sum();
    (rep.clocks, rep.makespan, retries, stalls, bytes)
}

/// The pipelined + request-aggregated collective write/read (chunked
/// rounds, deferred round I/O, intra-node request merge) under an
/// optional fault engine. Returns (makespan, file bytes).
fn pipelined_collective_run(engine: Option<Arc<chaos::ChaosEngine>>) -> (f64, Vec<u8>) {
    let nprocs = 8;
    let block = 4096usize;
    let pcfg = pfs::PfsConfig {
        stripe_size: 4096,
        stripe_count: 4,
        num_osts: 4,
        ..Default::default()
    };
    let fs = pfs::Pfs::new(nprocs, pcfg).unwrap();
    if let Some(e) = &engine {
        fs.attach_chaos(Arc::clone(e)).unwrap();
    }
    let sim = mpisim::SimConfig {
        topology: Some(mpisim::Topology::blocked(nprocs, 4)),
        chaos: engine,
        ..Default::default()
    };
    let fs2 = Arc::clone(&fs);
    let rep = mpisim::run(nprocs, sim, move |rk| {
        let ccfg = mpiio::CollectiveConfig {
            cb_buffer: Some(1024), // several rounds per aggregator
            req_agg: true,
            pipeline: true,
            ..Default::default()
        };
        let mut f = mpiio::File::open(rk, &fs2, "/pchaos", mpiio::Mode::WriteOnly)?;
        let data = vec![rk.rank() as u8 + 1; block];
        mpiio::write_all_at(rk, &mut f, (rk.rank() * block) as u64, &data, &ccfg)?;
        f.close(rk)?;
        let mut g = mpiio::File::open(rk, &fs2, "/pchaos", mpiio::Mode::ReadOnly)?;
        let mut back = vec![0u8; block];
        mpiio::read_all_at(rk, &mut g, (rk.rank() * block) as u64, &mut back, &ccfg)?;
        g.close(rk)?;
        assert!(
            back.iter().all(|&b| b == rk.rank() as u8 + 1),
            "rank {} read bad data",
            rk.rank()
        );
        Ok(())
    })
    .unwrap();
    let fid = fs.open("/pchaos").unwrap();
    (rep.makespan, fs.snapshot_file(fid).unwrap())
}

#[test]
fn pipelined_collective_survives_ost_slowdown_and_lock_storm() {
    // Regression for the deferred-completion path under the committed
    // brownout plan (`plans/ost_slowdown.toml`) and a lock-storm: the
    // pipelined round loop must terminate (no deadlock on in-flight
    // handles whose service windows got stretched), land every byte, and
    // each fault family must cost virtual time over the fault-free run.
    let (base_mk, want) = pipelined_collective_run(None);
    assert!(!want.is_empty());

    let text = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/plans/ost_slowdown.toml"
    ))
    .unwrap();
    let slowdown = chaos::FaultPlan::parse(&text).unwrap().build().unwrap();
    let (slow_mk, slow_bytes) = pipelined_collective_run(Some(slowdown));
    assert_eq!(slow_bytes, want, "brownout changed file bytes");
    assert!(
        slow_mk > base_mk,
        "a 6x OST brownout must cost virtual time: {slow_mk} vs {base_mk}"
    );

    let text = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/plans/lock_storm.toml"
    ))
    .unwrap();
    let storm = chaos::FaultPlan::parse(&text).unwrap().build().unwrap();
    let (storm_mk, storm_bytes) = pipelined_collective_run(Some(storm));
    assert_eq!(storm_bytes, want, "lock storm changed file bytes");
    assert!(
        storm_mk > base_mk,
        "a revocation storm must cost virtual time: {storm_mk} vs {base_mk}"
    );

    // Zero-cost-off for the pipelined path: an inert engine (the full
    // extended plan scaled to zero) must leave makespan and bytes
    // bit-identical to no engine at all.
    let inert = extended_plan().scaled(0.0).build().unwrap();
    assert!(inert.is_inert());
    let (inert_mk, inert_bytes) = pipelined_collective_run(Some(inert));
    assert_eq!(inert_bytes, want, "inert engine changed file bytes");
    assert_eq!(inert_mk, base_mk, "inert engine changed the makespan");
}

#[test]
fn faults_disabled_is_bit_identical_to_no_engine() {
    // Zero-cost-off: attaching an engine whose plan was scaled to zero —
    // including the crash-stop and silent-corruption families — must leave
    // both the data and every virtual clock bit-identical to a run with no
    // engine at all (in particular, no durability replication may be set
    // up when no crash is planned).
    let inert = extended_plan().scaled(0.0).build().unwrap();
    assert!(inert.is_inert());
    let (c0, m0, r0, s0, b0) = deterministic_tcio_run(None, false);
    let (c1, m1, r1, s1, b1) = deterministic_tcio_run(Some(inert), false);
    assert_eq!(b0, b1, "inert engine changed file bytes");
    assert_eq!(c0, c1, "inert engine changed rank clocks");
    assert_eq!(m0, m1, "inert engine changed makespan");
    assert_eq!((r0, s0), (0, 0));
    assert_eq!((r1, s1), (0, 0), "inert engine injected faults");
}

#[test]
fn same_seed_same_plan_is_deterministic_across_runs() {
    // Same seed + same plan => identical virtual-time totals, identical
    // fault/retry counts, and identical read-back bytes across 3 runs.
    let mut outcomes = Vec::new();
    for _ in 0..3 {
        let engine = mixed_plan().build().unwrap();
        outcomes.push(deterministic_tcio_run(Some(engine), false));
    }
    let (c, m, r, s, b) = &outcomes[0];
    assert!(*s >= 1, "the stall window must have been absorbed");
    for (i, (ci, mi, ri, si, bi)) in outcomes.iter().enumerate().skip(1) {
        assert_eq!(c, ci, "run {i}: clocks diverged");
        assert_eq!(m, mi, "run {i}: makespan diverged");
        assert_eq!((r, s), (ri, si), "run {i}: fault counters diverged");
        assert_eq!(b, bi, "run {i}: bytes diverged");
    }
}

#[test]
fn lock_storm_ping_pong_keeps_unaligned_writers_correct() {
    // Revocation storm: every request is treated as a lock migration while
    // an outage forces transient retries — unaligned concurrent writers
    // into shared stripes must still land byte-correct, and the storm must
    // cost virtual time.
    let nprocs = 4;
    let block = 1000usize; // unaligned vs the 4096-byte stripes below
    let mut makespans = Vec::new();
    for storm in [false, true] {
        let pcfg = pfs::PfsConfig {
            stripe_size: 4096,
            stripe_count: 1,
            num_osts: 1,
            ..Default::default()
        };
        let fs = pfs::Pfs::new(nprocs, pcfg).unwrap();
        let engine = if storm {
            let e = chaos::FaultPlan::new(11)
                .with(chaos::Effect::LockStorm { clients: None }.during(0.0, 1e9))
                .with(chaos::Effect::OstOutage { ost: 0 }.during(0.0, 0.002))
                .build()
                .unwrap();
            fs.attach_chaos(Arc::clone(&e)).unwrap();
            Some(e)
        } else {
            None
        };
        let sim = mpisim::SimConfig {
            chaos: engine,
            ..Default::default()
        };
        let fs2 = Arc::clone(&fs);
        let rep = mpisim::run(nprocs, sim, move |rk| {
            let mut f = mpiio::File::open(rk, &fs2, "/storm", mpiio::Mode::WriteOnly)?;
            let data = vec![rk.rank() as u8 + 1; block];
            f.write_at(rk, (rk.rank() * block) as u64, &data)?;
            f.close(rk)?;
            Ok(rk.stats.io_retries)
        })
        .unwrap();
        if storm {
            let retries: u64 = rep.results.iter().sum();
            assert!(retries >= 1, "the outage must have forced retries");
        }
        makespans.push(rep.makespan);
        let fid = fs.open("/storm").unwrap();
        let bytes = fs.snapshot_file(fid).unwrap();
        assert_eq!(bytes.len(), nprocs * block);
        for r in 0..nprocs {
            assert!(
                bytes[r * block..(r + 1) * block]
                    .iter()
                    .all(|&b| b == r as u8 + 1),
                "storm={storm}: rank {r}'s block corrupted"
            );
        }
    }
    assert!(
        makespans[1] > makespans[0],
        "a revocation storm must cost virtual time: {} vs {}",
        makespans[1],
        makespans[0]
    );
}

#[test]
fn stalled_node_leader_falls_back_and_two_level_write_completes() {
    // Fault × topology interaction: rank 0 is the default leader of node 0
    // under blocked(8, 4), but a stall window opens just ahead of the
    // request-aggregation exchange. The chaos-aware election must route
    // around it (bumping `leader_fallbacks` on the stand-in), and the
    // collective write must still land every byte.
    let nprocs = 8;
    let block = 2048usize;
    let engine = chaos::FaultPlan::new(31)
        .with(chaos::Effect::RankStall { rank: 0 }.during(1.0e-3, 0.05))
        .build()
        .unwrap();
    let fs = pfs::Pfs::new(nprocs, pfs::PfsConfig::default()).unwrap();
    fs.attach_chaos(Arc::clone(&engine)).unwrap();
    let sim = mpisim::SimConfig {
        topology: Some(mpisim::Topology::blocked(nprocs, 4)),
        chaos: Some(engine),
        ..Default::default()
    };
    let fs2 = Arc::clone(&fs);
    let rep = mpisim::run(nprocs, sim, move |rk| {
        let mut f = mpiio::File::open(rk, &fs2, "/lead", mpiio::Mode::WriteOnly)?;
        let ccfg = mpiio::CollectiveConfig {
            req_agg: true,
            ..Default::default()
        };
        let data = vec![rk.rank() as u8 + 1; block];
        mpiio::write_all_at(rk, &mut f, (rk.rank() * block) as u64, &data, &ccfg)?;
        f.close(rk)?;
        Ok(())
    })
    .unwrap();
    let fallbacks: u64 = rep.stats.iter().map(|s| s.leader_fallbacks).sum();
    assert!(
        fallbacks >= 1,
        "the stalled default leader must have been displaced at least once"
    );
    assert_eq!(
        rep.stats[0].leader_fallbacks, 0,
        "the stalled rank itself must not have led"
    );
    let fid = fs.open("/lead").unwrap();
    let bytes = fs.snapshot_file(fid).unwrap();
    assert_eq!(bytes.len(), nprocs * block);
    for r in 0..nprocs {
        assert!(
            bytes[r * block..(r + 1) * block]
                .iter()
                .all(|&b| b == r as u8 + 1),
            "rank {r}'s block corrupted under a stalled leader"
        );
    }
}

/// OST outage + message delay + a stalled rank; both collective stacks
/// must complete with correct read-back, injected-fault spans in the
/// trace, and the conservation invariant intact.
#[test]
fn tcio_and_ocio_survive_outage_and_message_delay_end_to_end() {
    let nprocs = 4;
    let block = 4096usize;
    for method in ["tcio", "ocio"] {
        let pcfg = pfs::PfsConfig {
            stripe_size: 1 << 16,
            stripe_count: 4,
            num_osts: 4,
            ..Default::default()
        };
        let fs = pfs::Pfs::new(nprocs, pcfg).unwrap();
        let engine = chaos::FaultPlan::new(23)
            .with(chaos::Effect::OstOutage { ost: 0 }.during(0.0, 0.05))
            .with(chaos::Effect::MessageDelay { delay: 20.0e-6 }.during(0.0, 1e9))
            .with(chaos::Effect::RankStall { rank: 1 }.during(0.0, 0.003))
            .build()
            .unwrap();
        fs.attach_chaos(Arc::clone(&engine)).unwrap();
        let sim = mpisim::SimConfig {
            trace: true,
            chaos: Some(engine),
            ..Default::default()
        };
        let fs2 = Arc::clone(&fs);
        let rep = mpisim::run(nprocs, sim, move |rk| {
            let data = vec![rk.rank() as u8 + 1; block];
            let off = (rk.rank() * block) as u64;
            match method {
                "tcio" => {
                    let cfg = TcioConfig {
                        segment_size: 1 << 14,
                        num_segments: 4,
                        ..Default::default()
                    };
                    let mut f = TcioFile::open(rk, &fs2, "/e2e", TcioMode::Write, cfg.clone())?;
                    f.write_at(rk, off, &data)?;
                    f.close(rk)?;
                    let mut g = TcioFile::open(rk, &fs2, "/e2e", TcioMode::Read, cfg)?;
                    let mut back = vec![0u8; block];
                    g.read_at(rk, off, &mut back)?;
                    g.fetch(rk)?;
                    g.close(rk)?;
                    Ok(back)
                }
                _ => {
                    let mut f = mpiio::File::open(rk, &fs2, "/e2e", mpiio::Mode::ReadWrite)?;
                    let ccfg = mpiio::CollectiveConfig::default();
                    mpiio::write_all_at(rk, &mut f, off, &data, &ccfg)?;
                    let mut back = vec![0u8; block];
                    mpiio::read_all_at(rk, &mut f, off, &mut back, &ccfg)?;
                    f.close(rk)?;
                    Ok(back)
                }
            }
        })
        .unwrap();
        // Correct read-back on every rank, and on disk.
        for (r, back) in rep.results.iter().enumerate() {
            assert!(
                back.iter().all(|&b| b == r as u8 + 1),
                "{method}: rank {r} read bad data under faults"
            );
        }
        let fid = fs.open("/e2e").unwrap();
        let bytes = fs.snapshot_file(fid).unwrap();
        for r in 0..nprocs {
            assert!(
                bytes[r * block..(r + 1) * block]
                    .iter()
                    .all(|&b| b == r as u8 + 1),
                "{method}: rank {r}'s block corrupted on disk"
            );
        }
        // The injected faults are visible as spans, and conservation holds.
        let span_names: Vec<&str> = rep
            .traces
            .iter()
            .flat_map(|t| t.spans.iter().map(|s| s.name))
            .collect();
        assert!(
            span_names.contains(&"io_retry"),
            "{method}: outage retries must appear in the trace"
        );
        assert!(
            span_names.contains(&"chaos_stall"),
            "{method}: the stall window must appear in the trace"
        );
        for (r, t) in rep.traces.iter().enumerate() {
            assert!(
                (t.totals.total() - rep.clocks[r]).abs() <= 1e-9,
                "{method}: rank {r} leaked virtual time under faults"
            );
        }
        let retries: u64 = rep.stats.iter().map(|s| s.io_retries).sum();
        assert!(retries >= 1, "{method}: the outage must force retries");
        assert!(
            rep.makespan >= 0.05,
            "{method}: retries must wait out the outage in virtual time"
        );
    }
}

/// Interleaved 4-rank TCIO dump where rank 1 crash-stops (when `engine`
/// says so) after all its writes were acknowledged by a collective flush
/// but before the close-time drain. Returns the on-disk bytes and the
/// per-rank stats.
fn crash_recovery_workload(
    engine: Option<Arc<chaos::ChaosEngine>>,
) -> (Vec<u8>, Vec<mpisim::RankStats>) {
    let nprocs = 4;
    let block = 16usize;
    let blocks_per_rank = 6usize;
    let fs = pfs::Pfs::new(nprocs, pfs::PfsConfig::default()).unwrap();
    if let Some(e) = &engine {
        fs.attach_chaos(Arc::clone(e)).unwrap();
    }
    let sim = mpisim::SimConfig {
        trace: true,
        chaos: engine,
        ..Default::default()
    };
    let fs2 = Arc::clone(&fs);
    let rep = mpisim::run(nprocs, sim, move |rk| {
        let cfg = TcioConfig {
            segment_size: 64,
            num_segments: 4,
            ..Default::default()
        };
        let mut f = TcioFile::open(rk, &fs2, "/cr", TcioMode::Write, cfg)?;
        let me = rk.rank();
        let data = vec![me as u8 + 1; block];
        for i in 0..blocks_per_rank {
            let off = ((i * nprocs + me) * block) as u64;
            f.write_at(rk, off, &data)?;
        }
        // Collective flush: every byte above is now *acknowledged* — parked
        // in its level-2 segment and (under a crash plan) mirrored to the
        // owner's buddy. The durability guarantee covers exactly these.
        f.flush(rk)?;
        // Move past the crash instant so the failure fires inside close.
        rk.advance(1.0);
        match f.close(rk) {
            Ok(_) => Ok(()),
            // Fault-tolerant caller: the crashed rank's own close fails
            // with the typed error; survivors finish the close (including
            // the buddy's recovery drain) without it.
            Err(tcio::TcioError::Mpi(mpisim::MpiError::RankCrashed { rank })) if rank == me => {
                Ok(())
            }
            Err(e) => Err(e.into()),
        }
    })
    .unwrap();
    let fid = fs.open("/cr").unwrap();
    (fs.snapshot_file(fid).unwrap(), rep.stats)
}

#[test]
fn crashed_owner_recovery_is_bit_identical_to_fault_free() {
    // Golden run: no faults at all.
    let (golden, base_stats) = crash_recovery_workload(None);
    assert!(base_stats.iter().all(|s| s.rank_crashes == 0));
    assert!(base_stats.iter().all(|s| s.segments_recovered == 0));

    // Crash run: rank 1 (a level-2 segment owner) dies at t = 0.5, after
    // the collective flush acknowledged every byte but before it could
    // drain its segments. Its buddy must reconstruct them from the replica
    // window and drain them instead — bit-identically.
    let engine = chaos::FaultPlan::new(55)
        .with(chaos::Fault::RankCrash { rank: 1, at: 0.5 })
        .build()
        .unwrap();
    let (bytes, stats) = crash_recovery_workload(Some(engine));
    assert_eq!(
        bytes, golden,
        "recovered file must be bit-identical to the fault-free run"
    );
    let crashes: u64 = stats.iter().map(|s| s.rank_crashes).sum();
    assert_eq!(crashes, 1, "exactly rank 1 must have crash-stopped");
    assert_eq!(stats[1].rank_crashes, 1);
    let recovered: u64 = stats.iter().map(|s| s.segments_recovered).sum();
    assert!(
        recovered >= 1,
        "the buddy must have recovered at least one segment"
    );
    assert_eq!(
        stats[1].segments_recovered, 0,
        "the dead rank cannot have drained anything"
    );

    // End-to-end read-back of the recovered file in a fresh, fault-free
    // simulation: every rank sees its own blocks intact.
    let nprocs = 4;
    let fs = pfs::Pfs::new(nprocs, pfs::PfsConfig::default()).unwrap();
    let fid = fs.open_or_create("/cr").unwrap();
    for (i, chunk) in bytes.chunks(4096).enumerate() {
        fs.write_at(fid, 0, i as u64 * 4096, chunk, 0.0).unwrap();
    }
    let fs2 = Arc::clone(&fs);
    let rep = mpisim::run(nprocs, mpisim::SimConfig::default(), move |rk| {
        let cfg = TcioConfig {
            segment_size: 64,
            num_segments: 4,
            ..Default::default()
        };
        let mut g = TcioFile::open(rk, &fs2, "/cr", TcioMode::Read, cfg)?;
        let mut back = vec![0u8; 16];
        g.read_at(rk, (rk.rank() * 16) as u64, &mut back)?;
        g.fetch(rk)?;
        g.close(rk)?;
        Ok(back)
    })
    .unwrap();
    for (r, back) in rep.results.iter().enumerate() {
        assert!(
            back.iter().all(|&b| b == r as u8 + 1),
            "rank {r} read bad data from the recovered file"
        );
    }
}

#[test]
fn collectives_with_a_crashed_rank_terminate_with_typed_errors() {
    // The acceptance bar: every collective involving a crashed rank must
    // terminate in finite time with a typed error or a shrunk
    // communicator — never hang. Bound the whole thing by wall-clock.
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        // Run A — fault-tolerant body: rank 1 catches its own crash;
        // survivors shrink every collective around the hole and agree on
        // the member list without extra communication.
        let engine = chaos::FaultPlan::new(9)
            .with(chaos::Fault::RankCrash { rank: 1, at: 1e-6 })
            .build()
            .unwrap();
        let sim = mpisim::SimConfig {
            chaos: Some(engine),
            ..Default::default()
        };
        let shrunk = mpisim::run(4, sim, |rk| {
            let me = rk.rank();
            rk.advance(1.0); // everyone is past the crash instant
            let gathered = match rk.allgather(&[me as u8 + 1]) {
                Ok(g) => g,
                Err(mpisim::MpiError::RankCrashed { rank }) if rank == me => {
                    return Ok((Vec::new(), Vec::new(), false));
                }
                Err(e) => return Err(e),
            };
            // Survivor agreement needs no message beyond a barrier: everyone
            // leaves it with the same clock, and `crashed(r, t)` is a pure
            // function of the shared plan.
            rk.barrier()?;
            let (plan, t) = (rk.chaos().expect("engine attached"), rk.now());
            let survivors: Vec<usize> = (0..4).filter(|&r| !plan.crashed(r, t)).collect();
            // Point-to-point with the dead rank fails typed, not hangs.
            let p2p_typed = matches!(
                rk.recv(Some(1), Some(77)),
                Err(mpisim::MpiError::PeerCrashed { rank: 1 })
            );
            let lens = gathered.iter().map(|v| v.len()).collect();
            Ok((lens, survivors, p2p_typed))
        });

        // Run B — oblivious body: the unhandled crash tears the collective
        // down into a typed simulation error instead of a hang.
        let engine = chaos::FaultPlan::new(9)
            .with(chaos::Fault::RankCrash { rank: 2, at: 1e-6 })
            .build()
            .unwrap();
        let sim = mpisim::SimConfig {
            chaos: Some(engine),
            ..Default::default()
        };
        let aborted = mpisim::run(4, sim, |rk| {
            rk.advance(1.0);
            rk.barrier()?;
            rk.allreduce_u64_in(&rk.world(), 1, mpisim::ReduceOp::Sum)
        });
        let _ = tx.send((shrunk, aborted));
    });

    let (shrunk, aborted) = rx
        .recv_timeout(std::time::Duration::from_secs(120))
        .expect("a collective involving a crashed rank hung");

    let rep = shrunk.expect("fault-tolerant survivors must complete");
    for (r, (lens, survivors, p2p_typed)) in rep.results.iter().enumerate() {
        if r == 1 {
            assert!(lens.is_empty(), "the crashed rank returned its sentinel");
            continue;
        }
        assert_eq!(
            lens,
            &vec![1, 0, 1, 1],
            "rank {r}: the dead rank's allgather slot must be empty"
        );
        assert_eq!(survivors, &vec![0, 2, 3], "rank {r}: survivor agreement");
        assert!(p2p_typed, "rank {r}: recv from the dead rank must be typed");
    }
    assert_eq!(rep.stats[1].rank_crashes, 1);

    match aborted {
        Err(mpisim::SimError::CollectiveAborted { crashed_rank: 2 }) => {}
        other => panic!("expected CollectiveAborted for rank 2, got {other:?}"),
    }
}

#[test]
fn a_crash_inside_a_group_collective_aborts_typed_on_both_backends() {
    // A group does not shrink around a dead member: its peers stay parked
    // in the group rendezvous until the run, out of runnable ranks, aborts
    // them — a typed error naming the crashed rank, never a hang. The
    // other group is untouched and finishes. Bound by wall-clock.
    for backend in [mpisim::Backend::Event, mpisim::Backend::Thread] {
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let engine = chaos::FaultPlan::new(9)
                .with(chaos::Fault::RankCrash { rank: 4, at: 0.5 })
                .build()
                .unwrap();
            let sim = mpisim::SimConfig {
                backend,
                chaos: Some(engine),
                ..Default::default()
            };
            let out = mpisim::run(6, sim, |rk| {
                let comm = rk.split((rk.rank() / 3) as u64)?; // before the crash
                rk.advance(1.0); // everyone is past the crash instant
                rk.barrier_in(&comm)?;
                rk.allreduce_u64_in(&comm, 1, mpisim::ReduceOp::Sum)
            });
            let _ = tx.send(out.map(|rep| rep.results));
        });
        let out = rx
            .recv_timeout(std::time::Duration::from_secs(120))
            .expect("a group collective with a crashed member hung");
        match out {
            Err(mpisim::SimError::CollectiveAborted { crashed_rank: 4 }) => {}
            other => panic!("{backend:?}: expected CollectiveAborted for rank 4, got {other:?}"),
        }
    }
}

#[test]
fn a_plan_naming_a_rank_or_link_the_run_lacks_is_refused_before_any_rank_runs() {
    // A fault aimed past the run's ranks or fabric ports would inject
    // nothing, silently; the run must refuse it up front with a typed
    // error, and run no rank body. Lock-storm client ranges stay
    // unchecked: a facility plan names tenants of its largest fleet.
    let run = |nprocs: usize, topology: Option<mpisim::Topology>, text: &str| {
        let engine = chaos::FaultPlan::parse(text).unwrap().build().unwrap();
        let sim = mpisim::SimConfig {
            chaos: Some(engine),
            topology,
            ..Default::default()
        };
        let ran = std::sync::atomic::AtomicUsize::new(0);
        let out = mpisim::run(nprocs, sim, |rk| {
            ran.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            rk.barrier()
        });
        (out.map(|rep| rep.makespan), ran.into_inner())
    };
    let stall_and_crash = "[[fault]]\nkind = \"rank_stall\"\nrank = 9\nfrom = 0.0\nuntil = 1.0\n\
                           [[fault]]\nkind = \"rank_crash\"\nrank = 7\nat = 0.5";
    let (out, ran) = run(2, None, stall_and_crash);
    match out {
        Err(mpisim::SimError::Config(msg)) => assert!(msg.contains("rank 9"), "{msg}"),
        other => panic!("expected a config refusal, got {other:?}"),
    }
    assert_eq!(ran, 0, "no rank may start");
    let slow = |rank| {
        format!("[[fault]]\nkind = \"rank_slowdown\"\nrank = {rank}\nfactor = 2.0\nfrom = 0.0\nuntil = 1.0")
    };
    assert!(matches!(
        run(4, None, &slow(4)).0,
        Err(mpisim::SimError::Config(_))
    ));
    assert!(run(4, None, &slow(3)).0.is_ok());
    // Link endpoints are fabric ports: ranks on a flat machine, nodes
    // under a topology.
    let link = |dst| {
        format!("[[fault]]\nkind = \"link_degrade\"\nsrc = 0\ndst = {dst}\nfactor = 2.0\nfrom = 0.0\nuntil = 1.0")
    };
    assert!(run(4, None, &link(3)).0.is_ok());
    assert!(matches!(
        run(4, None, &link(4)).0,
        Err(mpisim::SimError::Config(_))
    ));
    let two_nodes = || Some(mpisim::Topology::blocked(8, 4));
    assert!(run(8, two_nodes(), &link(1)).0.is_ok());
    assert!(matches!(
        run(8, two_nodes(), &link(3)).0,
        Err(mpisim::SimError::Config(_))
    ));
    let storm = "[[fault]]\nkind = \"client_lock_storm\"\nclient_lo = 4\nclient_hi = 7\nfrom = 0.0\nuntil = 1.0";
    assert!(run(2, None, storm).0.is_ok());
}
