//! Integration tests for failure injection, optimization interplay, and
//! moderate-scale behaviour across the whole stack.

use std::sync::Arc;
use tcio::{TcioConfig, TcioFile, TcioMode};
use workloads::synthetic::{self, SynthParams};

#[test]
fn degraded_ost_slows_the_whole_collective_job() {
    // Inject a 20× slowdown on one OST: every method's makespan must grow,
    // and the data must still verify.
    let nprocs = 8;
    let p = SynthParams::with_types("i,d", 4096, 1).unwrap();
    let mut times = Vec::new();
    for degrade in [false, true] {
        let cfg = pfs::PfsConfig {
            num_osts: 4,
            stripe_count: 4,
            ..Default::default()
        };
        let fs = pfs::Pfs::new(nprocs, cfg).unwrap();
        if degrade {
            fs.set_ost_slowdown(0, 20.0).unwrap();
        }
        let fs2 = Arc::clone(&fs);
        let p2 = p.clone();
        let rep = mpisim::run(nprocs, mpisim::SimConfig::default(), move |rk| {
            let w = synthetic::write_tcio(rk, &fs2, &p2, "/deg", None)?;
            synthetic::read_tcio(rk, &fs2, &p2, "/deg", None)?;
            Ok(w.elapsed)
        })
        .unwrap();
        times.push(rep.results[0]);
    }
    assert!(
        times[1] > 1.5 * times[0],
        "a degraded OST must slow the job: healthy {} vs degraded {}",
        times[0],
        times[1]
    );
}

#[test]
fn sieving_speeds_up_strided_independent_io_without_changing_bytes() {
    // Each rank writes SEGMENTS blocks of BLOCK bytes, each block cut into
    // TRANSFER-byte pieces that interleave across the ranks.
    const SEGMENTS: u64 = 2;
    const BLOCK: u64 = 4096;
    const TRANSFER: u64 = 256;
    let nprocs = 4;
    let mut elapsed = Vec::new();
    let mut snaps = Vec::new();
    for sieve in [false, true] {
        let fs = pfs::Pfs::new(nprocs, pfs::PfsConfig::default()).unwrap();
        let fs2 = Arc::clone(&fs);
        let rep = mpisim::run(nprocs, mpisim::SimConfig::default(), move |rk| {
            // Hand-rolled vanilla write so we can toggle sieving.
            rk.barrier()?;
            let t0 = rk.now();
            let mut f = mpiio::File::open(rk, &fs2, "/s", mpiio::Mode::WriteOnly)?;
            if sieve {
                f.set_sieving(Some(mpiio::SieveConfig {
                    min_density: 0.0,
                    ..Default::default()
                }));
            }
            // Set a strided view so each write_at maps to many extents.
            let etype = mpisim::Datatype::contiguous(
                TRANSFER as usize,
                mpisim::Datatype::named(mpisim::Named::Byte),
            )
            .commit();
            // The classic resized-filetype idiom: a vector's extent stops at
            // its last block, so it must be resized to the full segment
            // stride (P × block) or consecutive tiles under-stride and the
            // ranks' extents collide.
            let ftype = mpisim::Datatype::resized(
                0,
                (BLOCK * rk.nprocs() as u64) as usize,
                mpisim::Datatype::vector(
                    (BLOCK / TRANSFER) as usize,
                    1,
                    rk.nprocs() as isize,
                    etype.datatype().clone(),
                ),
            )
            .commit();
            f.set_view(rk, rk.rank() as u64 * TRANSFER, &etype, &ftype)?;
            let data = vec![rk.rank() as u8 + 1; BLOCK as usize];
            for s in 0..SEGMENTS {
                f.write_at(rk, s * BLOCK, &data)?;
            }
            rk.barrier()?;
            Ok(rk.now() - t0)
        })
        .unwrap();
        elapsed.push(rep.results[0]);
        let fid = fs.open("/s").unwrap();
        snaps.push(fs.snapshot_file(fid).unwrap());
    }
    assert_eq!(snaps[0], snaps[1], "sieving must not change file contents");
    assert!(
        elapsed[1] < elapsed[0],
        "sieving must be faster on dense strided writes: {} vs {}",
        elapsed[1],
        elapsed[0]
    );
}

#[test]
fn tcio_beats_vanilla_on_strided_pattern() {
    // SIZE_access = 1 over an int and a double: every call writes 4 or 8
    // bytes, interleaved across the ranks.
    let nprocs = 8;
    let p = SynthParams::with_types("i,d", 1024, 1).unwrap();
    let fs = pfs::Pfs::new(nprocs, pfs::PfsConfig::default()).unwrap();
    let fs2 = Arc::clone(&fs);
    let rep = mpisim::run(nprocs, mpisim::SimConfig::default(), move |rk| {
        let t = synthetic::write_tcio(rk, &fs2, &p, "/t", None)?;
        let v = synthetic::write_vanilla(rk, &fs2, &p, "/v")?;
        Ok((t.elapsed, v.elapsed))
    })
    .unwrap();
    let (t, v) = rep.results[0];
    assert!(
        v > 5.0 * t,
        "4- and 8-byte strided writes: vanilla {v}s must be far slower than TCIO {t}s"
    );
}

#[test]
fn art_buffered_vanilla_sits_between_baselines() {
    use workloads::art::{self, ArtConfig, ArtMethod, FttConfig};
    let cfg = ArtConfig {
        num_segments: 16,
        mu: 12.0,
        sigma: 2.0,
        seed: 5,
        ftt: FttConfig::default(),
    };
    let nprocs = 4;
    let mut elapsed = Vec::new();
    for method in [
        ArtMethod::Tcio,
        ArtMethod::VanillaBuffered,
        ArtMethod::Vanilla,
    ] {
        let fs = pfs::Pfs::new(nprocs, pfs::PfsConfig::default()).unwrap();
        let fs2 = Arc::clone(&fs);
        let cfg2 = cfg.clone();
        let rep = mpisim::run(nprocs, mpisim::SimConfig::default(), move |rk| {
            let w = art::dump(rk, &fs2, &cfg2, method, "/a")?;
            art::restart(rk, &fs2, &cfg2, method, "/a")?;
            Ok(w.elapsed)
        })
        .unwrap();
        elapsed.push(rep.results[0]);
    }
    let (tcio, sieved, vanilla) = (elapsed[0], elapsed[1], elapsed[2]);
    assert!(
        sieved < vanilla,
        "per-tree buffering must beat plain vanilla: {sieved} vs {vanilla}"
    );
    assert!(
        tcio < sieved,
        "TCIO must beat per-process buffering: {tcio} vs {sieved}"
    );
}

#[test]
fn tcio_scales_to_128_ranks_with_verification() {
    let nprocs = 128;
    let fs = pfs::Pfs::new(nprocs, pfs::PfsConfig::default()).unwrap();
    let fs2 = Arc::clone(&fs);
    let block = 64usize;
    let rep = mpisim::run(nprocs, mpisim::SimConfig::default(), move |rk| {
        let file_size = (nprocs * 4 * block) as u64;
        let cfg = TcioConfig::for_file_size_with_segment(file_size, rk.nprocs(), 512);
        let mut f = TcioFile::open(rk, &fs2, "/scale", TcioMode::Write, cfg.clone())?;
        for i in 0..4usize {
            let off = ((i * nprocs + rk.rank()) * block) as u64;
            f.write_at(rk, off, &vec![(rk.rank() % 251) as u8 + 1; block])?;
        }
        f.close(rk)?;
        // Read a peer's block back and verify.
        let peer = (rk.rank() + 1) % nprocs;
        let mut buf = vec![0u8; block];
        {
            let mut g = TcioFile::open(rk, &fs2, "/scale", TcioMode::Read, cfg)?;
            g.read_at(rk, (peer * block) as u64, &mut buf)?;
            g.close(rk)?;
        }
        let expect = (peer % 251) as u8 + 1;
        assert!(buf.iter().all(|&b| b == expect), "peer block corrupted");
        Ok(())
    })
    .unwrap();
    assert_eq!(rep.results.len(), nprocs);
}

/// One ART dump/restart cycle at `nprocs` ranks on the event core.
/// Correctness only: what this shape may allocate is pinned, host-
/// independently, by `tests/alloc_budget.rs`; what it costs a given host
/// in seconds and resident bytes is simbench's to measure (`art_scale`,
/// `probe-scale`) and the nightly job's to log, not tier-1's to assert.
fn art_scale_run(nprocs: usize) {
    use workloads::art::{self, ArtConfig, ArtMethod, FttConfig};
    // One segment per rank, ~3 small trees each: the point is rank count
    // (fiber scheduling, allgather fan-in, aggregator traffic), not bytes.
    let cfg = ArtConfig {
        num_segments: nprocs,
        mu: 3.0,
        sigma: 1.0,
        seed: 7,
        ftt: FttConfig::default(),
    };
    let fs = pfs::Pfs::new(nprocs, pfs::PfsConfig::default()).unwrap();
    let fs2 = Arc::clone(&fs);
    let sim = mpisim::SimConfig {
        // Explicit: this is a scale test of the event core. The thread
        // substrate would need one parked OS thread per rank, which is
        // exactly the scaling wall the event core exists to remove.
        backend: mpisim::Backend::Event,
        ..Default::default()
    };
    let rep = mpisim::run(nprocs, sim, move |rk| {
        let w = art::dump(rk, &fs2, &cfg, ArtMethod::Tcio, "/big")?;
        let r = art::restart(rk, &fs2, &cfg, ArtMethod::Tcio, "/big")?;
        assert_eq!(w.bytes, r.bytes, "restart must recover every dumped byte");
        Ok(w.bytes)
    })
    .unwrap();
    assert_eq!(rep.results.len(), nprocs);
    assert!(rep.results.iter().all(|&b| b > 0), "every rank wrote data");
    assert!(rep.makespan > 0.0);
}

#[test]
fn art_scales_to_4096_ranks_and_restarts_every_byte() {
    art_scale_run(4096);
}

/// Nightly-only (see .github/workflows): the 16k-rank target from the
/// roadmap. Run with `cargo test --release -- --ignored art_scales_to_16k`.
#[test]
#[ignore = "16k ranks: minutes in debug — nightly CI runs it in release"]
fn art_scales_to_16k_ranks_and_restarts_every_byte() {
    art_scale_run(16384);
}

#[test]
fn memory_budget_interacts_with_sieving() {
    // A sieved write needs a span buffer; with a budget too small for the
    // span, the simulated allocation fails cleanly instead of corrupting.
    let fs = pfs::Pfs::new(1, pfs::PfsConfig::default()).unwrap();
    let sim = mpisim::SimConfig {
        mem_budget: Some(256),
        ..Default::default()
    };
    let err = mpisim::run(1, sim, move |rk| {
        let mut f = mpiio::File::open(rk, &fs, "/b", mpiio::Mode::WriteOnly)?;
        f.set_sieving(Some(mpiio::SieveConfig {
            buffer_size: 1 << 20,
            min_extents: 2,
            min_density: 0.0,
        }));
        let etype =
            mpisim::Datatype::contiguous(64, mpisim::Datatype::named(mpisim::Named::Byte)).commit();
        let ftype = mpisim::Datatype::vector(8, 1, 4, etype.datatype().clone()).commit();
        f.set_view(rk, 0, &etype, &ftype)?;
        // Span = 8 blocks × 4 stride × 64 B ≈ 1.8 KiB > 256 B budget.
        f.write_at(rk, 0, &[1u8; 512])?;
        Ok(())
    })
    .unwrap_err();
    assert!(
        matches!(
            err,
            mpisim::SimError::RankFailed {
                error: mpisim::MpiError::OutOfMemory { .. },
                ..
            }
        ),
        "expected OOM from the sieve buffer, got {err:?}"
    );
}

/// Nightly-only (see .github/workflows): the gray-failure soak. A
/// 20x flaky OST harasses a 1024-rank TCIO dump-then-restart; the
/// defense stack (breakers + degraded-mode relocation + hedged reads +
/// post-run rebuild) must keep the run complete, the tail bounded
/// relative to the fault-free defended run, and the relocation map fully
/// drained. Run with `cargo test --release -- --ignored gray_failure_soak`.
#[test]
#[ignore = "1024-rank gray-failure soak: minutes in debug — nightly CI runs it in release"]
fn gray_failure_soak_bounds_the_tail_and_rebuilds_at_1024_ranks() {
    use bench::resilience::{plan_horizon, run_cell, sweep_calib};
    let calib = sweep_calib(1024);
    let plan = chaos::FaultPlan::new(23).with(
        chaos::Effect::FlakyOst {
            ost: 0,
            factor: 20.0,
            period: 0.005,
            duty: 0.8,
        }
        .during(0.0, 30.0),
    );
    let engine = plan.clone().build().unwrap();
    let quiet = run_cell(&calib, 1024, 1 << 21, 1, None, true, 0.0);
    let loud = run_cell(
        &calib,
        1024,
        1 << 21,
        1,
        Some(engine),
        true,
        plan_horizon(&plan),
    );
    assert!(quiet.completed && loud.completed, "soak must finish");
    let h = loud
        .health
        .as_ref()
        .expect("defended arm carries a snapshot");
    assert!(
        h.breaker_opens >= 1 && h.degraded_writes >= 1,
        "the soak must actually provoke the defenses: {h:?}"
    );
    assert_eq!(
        loud.relocated_after_rebuild, 0,
        "rebuild must fully drain the relocation map: {h:?}"
    );
    let makespan_ratio = (loud.write_s + loud.read_s) / (quiet.write_s + quiet.read_s);
    assert!(
        makespan_ratio <= 3.0,
        "defended makespan blew up {makespan_ratio:.2}x under the flaky OST"
    );
    let p999_ratio = loud.p999_ns / quiet.p999_ns;
    assert!(
        p999_ratio <= 4.0,
        "defended p999 blew up {p999_ratio:.2}x under the flaky OST"
    );
}
