//! Cross-backend differential harness: the event core and the legacy
//! thread-per-rank backend must be **bit-identical** in every observable
//! output — makespan and per-rank clocks (compared as raw `f64` bits),
//! per-rank stats, fabric counters, file bytes on the PFS, the Chrome
//! trace, the metrics-registry export, and the critical-path attribution.
//!
//! The matrix covers the paper's Table-I methods (TCIO, OCIO, independent)
//! crossed with node topology and benign (non-crashing) chaos, plus the
//! ART checkpoint workload, a 50-seed run-twice determinism property on
//! the event backend, and the typed panic-in-rank error on both backends.

use std::sync::Arc;
use workloads::art::{self, ArtConfig, ArtMethod, FttConfig};
use workloads::synthetic::{self, Configs, Direction, Method, SynthParams};

use mpisim::Backend;

/// Every observable output of one finished simulation. Floats are stored
/// as raw bits so comparison is exact, not approximate.
#[derive(Debug, PartialEq)]
struct Fingerprint {
    makespan: u64,
    clocks: Vec<u64>,
    stats: Vec<mpisim::RankStats>,
    fabric: mpisim::FabricStatsSnapshot,
    /// Per-rank results, Debug-rendered with floats pre-converted to bits.
    results: String,
    chrome_trace: String,
    metrics_json: String,
    critical_path: String,
    /// `(path, full file contents)` for every output file.
    files: Vec<(String, Vec<u8>)>,
}

/// Field-by-field equality so a divergence names the observable that
/// broke instead of dumping two whole structs.
fn assert_fp_eq(a: &Fingerprint, b: &Fingerprint, ctx: &str) {
    assert_eq!(a.makespan, b.makespan, "{ctx}: makespan");
    assert_eq!(a.clocks, b.clocks, "{ctx}: clocks");
    assert_eq!(a.stats, b.stats, "{ctx}: stats");
    assert_eq!(a.fabric, b.fabric, "{ctx}: fabric counters");
    assert_eq!(a.results, b.results, "{ctx}: per-rank results");
    assert_eq!(a.files, b.files, "{ctx}: file bytes");
    assert_eq!(a.chrome_trace, b.chrome_trace, "{ctx}: chrome trace");
    assert_eq!(a.metrics_json, b.metrics_json, "{ctx}: metrics export");
    assert_eq!(a.critical_path, b.critical_path, "{ctx}: critical path");
}

fn fingerprint<T: std::fmt::Debug>(
    rep: &mpisim::SimReport<T>,
    fs: &Arc<pfs::Pfs>,
    paths: &[&str],
) -> Fingerprint {
    let mut reg = mpisim::Registry::new();
    reg.export_sim_report(rep);
    Fingerprint {
        makespan: rep.makespan.to_bits(),
        clocks: rep.clocks.iter().map(|c| c.to_bits()).collect(),
        stats: rep.stats.clone(),
        fabric: rep.fabric,
        results: format!("{:?}", rep.results),
        chrome_trace: mpisim::chrome_trace_json(&rep.traces),
        metrics_json: reg.to_json(),
        critical_path: insight::Analyzer::new(&rep.traces).critical_path().render(),
        files: paths
            .iter()
            .map(|p| {
                let fid = fs.open(p).expect("output file missing");
                (p.to_string(), fs.snapshot_file(fid).unwrap())
            })
            .collect(),
    }
}

/// A fault plan touching every *benign* family (no crash-stop, no silent
/// corruption — those tests live in `tests/chaos.rs`; here every rank must
/// finish so the two backends produce complete, comparable reports).
fn benign_plan(seed: u64) -> chaos::FaultPlan {
    chaos::FaultPlan::new(seed)
        .with(
            chaos::Effect::OstSlowdown {
                ost: 0,
                factor: 2.5,
            }
            .during(0.0, 1e9),
        )
        .with(chaos::Effect::RequestOverhead { extra: 40.0e-6 }.during(0.0, 1e9))
        .with(chaos::Effect::MessageDelay { delay: 20.0e-6 }.during(0.0, 1e9))
        .with(chaos::Effect::RankStall { rank: 1 }.during(0.0, 0.002))
        .with(
            chaos::Effect::RankSlowdown {
                rank: 2,
                factor: 1.3,
            }
            .during(0.0, 1e9),
        )
        .with(chaos::Fault::ConnFlush { at: 0.001 })
        .with(chaos::Effect::LockStorm { clients: None }.during(0.0, 0.0005))
}

fn sim_config(
    backend: Backend,
    topo: Option<mpisim::Topology>,
    chaos_seed: Option<u64>,
) -> (mpisim::SimConfig, Option<Arc<chaos::ChaosEngine>>) {
    let engine = chaos_seed.map(|s| benign_plan(s).build().unwrap());
    let cfg = mpisim::SimConfig {
        backend,
        trace: true,
        metrics: true,
        chaos: engine.clone(),
        topology: topo,
        ..Default::default()
    };
    (cfg, engine)
}

/// Run the Table-I synthetic workload (interleaved-array write + read)
/// under one backend and capture the full fingerprint.
fn run_synth(
    backend: Backend,
    method: Method,
    topo: bool,
    chaos_seed: Option<u64>,
    params: &SynthParams,
) -> Fingerprint {
    let nprocs = 8;
    let pcfg = pfs::PfsConfig {
        num_osts: 4,
        stripe_count: 4,
        ..Default::default()
    };
    let fs = pfs::Pfs::new(nprocs, pcfg).unwrap();
    let topo = topo.then(|| mpisim::Topology::blocked(nprocs, 4));
    let (sim, engine) = sim_config(backend, topo, chaos_seed);
    if let Some(e) = &engine {
        fs.attach_chaos(Arc::clone(e)).unwrap();
    }
    let fs2 = Arc::clone(&fs);
    let p2 = params.clone();
    let rep = mpisim::run(nprocs, sim, move |rk| {
        let cfgs = Configs::default();
        let w = synthetic::run(Direction::Write, method, rk, &fs2, &p2, "/w", &cfgs)?;
        let r = synthetic::run(Direction::Read, method, rk, &fs2, &p2, "/w", &cfgs)?;
        Ok((w.bytes, w.elapsed.to_bits(), r.elapsed.to_bits()))
    })
    .unwrap();
    fingerprint(&rep, &fs, &["/w"])
}

#[test]
fn synthetic_matrix_is_bit_identical_across_backends() {
    let params = SynthParams::with_types("i,d", 512, 2).unwrap();
    // Run every cell before judging, so one divergence doesn't hide the
    // shape of the problem across the rest of the matrix.
    let mut failures = Vec::new();
    for method in [Method::Tcio, Method::Ocio, Method::Vanilla] {
        for topo in [false, true] {
            for chaos_seed in [None, Some(11)] {
                let thread = run_synth(Backend::Thread, method, topo, chaos_seed, &params);
                let event = run_synth(Backend::Event, method, topo, chaos_seed, &params);
                let ctx = format!("method {method:?}, topology {topo}, chaos {chaos_seed:?}");
                let r = std::panic::catch_unwind(|| assert_fp_eq(&thread, &event, &ctx));
                if let Err(p) = r {
                    let msg = p
                        .downcast_ref::<String>()
                        .map(|s| s.lines().next().unwrap_or("").to_string())
                        .unwrap_or_else(|| "non-string panic".into());
                    failures.push(format!("{ctx}: {msg}"));
                }
            }
        }
    }
    assert!(
        failures.is_empty(),
        "diverging cells:\n{}",
        failures.join("\n")
    );
}

/// The pipelined + request-aggregated collective cell: chunked rounds
/// (small `cb_buffer`), deferred round I/O, and the semantic intra-node
/// request merge, on a 2-node topology — the deepest configuration of
/// the two-phase path. Deferred completions reorder clock updates, so
/// this cell guards exactly the machinery the plain `Method::Ocio` cell
/// never touches.
fn run_pipelined_reqagg(backend: Backend, chaos_seed: Option<u64>) -> Fingerprint {
    let nprocs = 8;
    let pcfg = pfs::PfsConfig {
        num_osts: 4,
        stripe_count: 4,
        ..Default::default()
    };
    let fs = pfs::Pfs::new(nprocs, pcfg).unwrap();
    let (sim, engine) = sim_config(
        backend,
        Some(mpisim::Topology::blocked(nprocs, 4)),
        chaos_seed,
    );
    if let Some(e) = &engine {
        fs.attach_chaos(Arc::clone(e)).unwrap();
    }
    let params = SynthParams::with_types("i,d", 512, 2).unwrap();
    let fs2 = Arc::clone(&fs);
    let rep = mpisim::run(nprocs, sim, move |rk| {
        let ccfg = mpiio::CollectiveConfig {
            cb_buffer: Some(512),
            req_agg: true,
            pipeline: true,
            ..Default::default()
        };
        let w = synthetic::write_ocio(rk, &fs2, &params, "/pr", &ccfg)?;
        let r = synthetic::read_ocio(rk, &fs2, &params, "/pr", &ccfg)?;
        Ok((w.bytes, w.elapsed.to_bits(), r.elapsed.to_bits()))
    })
    .unwrap();
    fingerprint(&rep, &fs, &["/pr"])
}

#[test]
fn pipelined_reqagg_is_bit_identical_across_backends() {
    for chaos_seed in [None, Some(11)] {
        let thread = run_pipelined_reqagg(Backend::Thread, chaos_seed);
        let event = run_pipelined_reqagg(Backend::Event, chaos_seed);
        assert_fp_eq(
            &thread,
            &event,
            &format!("pipelined+req-agg, chaos {chaos_seed:?}"),
        );
    }
}

fn run_art(backend: Backend, method: ArtMethod) -> Fingerprint {
    let nprocs = 8;
    let cfg = ArtConfig {
        num_segments: 16,
        mu: 12.0,
        sigma: 2.0,
        seed: 5,
        ftt: FttConfig::default(),
    };
    let fs = pfs::Pfs::new(nprocs, pfs::PfsConfig::default()).unwrap();
    let (sim, engine) = sim_config(backend, Some(mpisim::Topology::blocked(nprocs, 4)), Some(3));
    if let Some(e) = &engine {
        fs.attach_chaos(Arc::clone(e)).unwrap();
    }
    let fs2 = Arc::clone(&fs);
    let rep = mpisim::run(nprocs, sim, move |rk| {
        let w = art::dump(rk, &fs2, &cfg, method, "/a")?;
        let r = art::restart(rk, &fs2, &cfg, method, "/a")?;
        Ok((w.bytes, w.elapsed.to_bits(), r.elapsed.to_bits()))
    })
    .unwrap();
    fingerprint(&rep, &fs, &["/a"])
}

#[test]
fn art_checkpoint_is_bit_identical_across_backends() {
    for method in [ArtMethod::Tcio, ArtMethod::VanillaBuffered] {
        let thread = run_art(Backend::Thread, method);
        let event = run_art(Backend::Event, method);
        assert_fp_eq(&thread, &event, &format!("ART {method:?}"));
    }
}

/// A `Pfs` keeps bytes across simulations, not time: ART's restart, run as
/// a second simulation on the file system its dump wrote, gets the clock
/// bits a restart gets on a fresh file system holding the same bytes, on
/// both substrates. Lock ownership persists by design, so both file
/// systems first take the snapshot from one client no rank is, outside
/// any simulation (which books on the timelines as they are).
#[test]
fn a_restart_on_the_dumped_pfs_is_priced_as_on_a_fresh_one() {
    let nprocs = 8;
    let mover = nprocs;
    let cfg = ArtConfig {
        num_segments: 16,
        mu: 12.0,
        sigma: 2.0,
        seed: 5,
        ftt: FttConfig::default(),
    };
    let topo = || Some(mpisim::Topology::blocked(nprocs, 4));
    let restart = |fs: &Arc<pfs::Pfs>, backend, method| {
        let (sim, _) = sim_config(backend, topo(), None);
        let rep = mpisim::run(nprocs, sim, |rk| {
            Ok(art::restart(rk, fs, &cfg, method, "/a")?.elapsed.to_bits())
        });
        fingerprint(&rep.unwrap(), fs, &["/a"])
    };
    for backend in [Backend::Event, Backend::Thread] {
        for method in [ArtMethod::Tcio, ArtMethod::Vanilla] {
            let dumped = pfs::Pfs::new(nprocs + 1, pfs::PfsConfig::default()).unwrap();
            let (sim, _) = sim_config(backend, topo(), None);
            mpisim::run(nprocs, sim, |rk| {
                Ok(art::dump(rk, &dumped, &cfg, method, "/a")?.bytes)
            })
            .unwrap();
            let fresh = pfs::Pfs::new(nprocs + 1, pfs::PfsConfig::default()).unwrap();
            for path in dumped.list() {
                let bytes = dumped.snapshot_file(dumped.open(&path).unwrap()).unwrap();
                for fs in [&dumped, &fresh] {
                    let id = fs.open_or_create(&path).unwrap();
                    fs.write_at(id, mover, 0, &bytes, 0.0).unwrap();
                }
            }
            assert_fp_eq(
                &restart(&dumped, backend, method),
                &restart(&fresh, backend, method),
                &format!("{backend:?} {method:?} restart, dumped vs fresh"),
            );
        }
    }
}

#[test]
fn event_backend_is_deterministic_across_50_seeds() {
    // Same seed ⇒ byte-identical everything, including the trace report
    // and the metrics-registry export, across repeated runs. The workload
    // shape and fault windows both vary with the seed so the property is
    // not an artifact of one fixed schedule.
    for seed in 0..50u64 {
        let method = [Method::Tcio, Method::Ocio, Method::Vanilla][(seed % 3) as usize];
        let len = 128 + (seed % 7) as usize * 64;
        // Divisors of 64, so any len above is a multiple of size_access.
        let size_access = [1, 2, 4][(seed % 3) as usize];
        let params = SynthParams::with_types("i,d", len, size_access).unwrap();
        let chaos_seed = (seed % 2 == 0).then_some(seed);
        let a = run_synth(Backend::Event, method, seed % 2 == 1, chaos_seed, &params);
        let b = run_synth(Backend::Event, method, seed % 2 == 1, chaos_seed, &params);
        assert_fp_eq(&a, &b, &format!("event backend run-twice, seed {seed}"));
    }
}

#[test]
fn thread_backend_is_deterministic_across_seeds() {
    // The OS-thread substrate runs under the same event loop, so it must
    // be exactly as deterministic as the fiber core — run-to-run, not
    // just run-vs-event. Fewer seeds than the event property: each cell
    // here costs real thread spawns.
    for seed in 0..6u64 {
        let method = [Method::Tcio, Method::Ocio, Method::Vanilla][(seed % 3) as usize];
        let params = SynthParams::with_types("i,d", 256, 2).unwrap();
        let chaos_seed = (seed % 2 == 0).then_some(seed);
        let a = run_synth(Backend::Thread, method, seed % 2 == 1, chaos_seed, &params);
        let b = run_synth(Backend::Thread, method, seed % 2 == 1, chaos_seed, &params);
        assert_fp_eq(&a, &b, &format!("thread backend run-twice, seed {seed}"));
    }
}

#[test]
fn rank_panic_surfaces_as_typed_error_on_both_backends() {
    // A panicking rank must abort the simulation with a *typed* error
    // carrying the rank id and message — never a hang, never a poisoned
    // join panic — and identically on both backends.
    let mut rendered = Vec::new();
    for backend in [Backend::Thread, Backend::Event] {
        let sim = mpisim::SimConfig {
            backend,
            ..Default::default()
        };
        let err = mpisim::run(4, sim, move |rk| {
            if rk.rank() == 2 {
                panic!("boom: injected test panic");
            }
            rk.barrier()?; // unblocked by the abort, not a hang
            Ok(())
        })
        .unwrap_err();
        match &err {
            mpisim::SimError::RankPanicked { rank, message } => {
                assert_eq!(*rank, 2, "{backend:?}: wrong rank blamed");
                assert!(
                    message.contains("boom: injected test panic"),
                    "{backend:?}: panic payload lost: {message:?}"
                );
            }
            other => panic!("{backend:?}: expected RankPanicked, got {other:?}"),
        }
        rendered.push(format!("{err}"));
    }
    assert_eq!(
        rendered[0], rendered[1],
        "error text diverged across backends"
    );
}

/// The gray-failure defended cell: a flaky OST trips its circuit breaker
/// mid-run, so writes relocate to healthy OSTs, reads hedge, and a
/// post-run rebuild migrates the displaced extents home. Every stage of
/// that machinery books virtual time, so the whole defended run — plus
/// the defense counters themselves — must be bit-identical across
/// backends.
fn run_degraded(backend: Backend) -> (Fingerprint, pfs::HealthSnapshot) {
    let nprocs = 8;
    let horizon = 0.05;
    let plan = chaos::FaultPlan::new(41).with(
        chaos::Effect::FlakyOst {
            ost: 0,
            factor: 16.0,
            period: 1e-3,
            duty: 0.7,
        }
        .during(0.0, horizon),
    );
    let engine = plan.build().unwrap();
    // Small stripes so the ~48 KiB synthetic file spreads across all four
    // OSTs and the flaky one sees enough traffic to trip its breaker.
    let pcfg = pfs::PfsConfig {
        num_osts: 4,
        stripe_count: 4,
        stripe_size: 4 << 10,
        ..Default::default()
    };
    let fs = pfs::Pfs::new(nprocs, pcfg).unwrap();
    fs.attach_chaos(Arc::clone(&engine)).unwrap();
    fs.enable_health(pfs::HealthConfig {
        min_samples: 2,
        hedge_min_samples: 8,
        open_secs: 2e-3,
    })
    .unwrap();
    let sim = mpisim::SimConfig {
        backend,
        trace: true,
        metrics: true,
        chaos: Some(engine),
        topology: Some(mpisim::Topology::blocked(nprocs, 4)),
        ..Default::default()
    };
    let params = SynthParams::with_types("i,d", 512, 2).unwrap();
    let fs2 = Arc::clone(&fs);
    let rep = mpisim::run(nprocs, sim, move |rk| {
        let cfg = tcio::TcioConfig::for_file_size_with_segment(
            params.file_size(rk.nprocs()),
            rk.nprocs(),
            4 << 10,
        );
        let w = synthetic::write_tcio(rk, &fs2, &params, "/gf", Some(cfg.clone()))?;
        let r = synthetic::read_tcio(rk, &fs2, &params, "/gf", Some(cfg))?;
        Ok((w.bytes, w.elapsed.to_bits(), r.elapsed.to_bits()))
    })
    .unwrap();
    // Rebuild after the fault horizon so the probe writes land on a
    // healthy OST and the relocation map drains.
    let mut now = rep.makespan.max(horizon);
    for _ in 0..8 {
        if fs.health_report().is_none_or(|s| s.relocated_live == 0) {
            break;
        }
        let r = fs.rebuild(now).unwrap();
        now = r.completed_at.max(now) + 2e-3;
        if r.remaining == 0 {
            break;
        }
    }
    let fp = fingerprint(&rep, &fs, &["/gf"]);
    (fp, fs.health_report().unwrap())
}

#[test]
fn degraded_mode_defense_is_bit_identical_across_backends() {
    let (thread, th) = run_degraded(Backend::Thread);
    let (event, eh) = run_degraded(Backend::Event);
    assert_fp_eq(&thread, &event, "degraded-mode defended run");
    assert_eq!(th, eh, "defense counters diverged across backends");
    // The cell is only a guard if the defenses actually fired.
    assert!(
        th.breaker_opens >= 1,
        "flaky OST never tripped its breaker: {th:?}"
    );
    assert!(
        th.degraded_writes >= 1,
        "no write was relocated around the open breaker: {th:?}"
    );
    assert_eq!(th.relocated_live, 0, "rebuild must converge: {th:?}");
}
