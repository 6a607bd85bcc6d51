//! End-to-end integration tests spanning all crates: the full stack
//! (mpisim → pfs → mpiio → tcio → workloads) exercised the way the paper's
//! experiments use it.

use std::sync::Arc;
use tcio::{PositionedFile, TcioConfig, TcioFile, TcioMode};
use workloads::art::{self, ArtConfig, ArtMethod, FttConfig};
use workloads::synthetic::{self, Configs, Direction, Method, SynthParams};
use workloads::WlError;

fn small_art() -> ArtConfig {
    ArtConfig {
        num_segments: 16,
        mu: 8.0,
        sigma: 2.0,
        seed: 5,
        ftt: FttConfig {
            max_depth: 3,
            refine_prob: 0.3,
            num_vars: 2,
        },
    }
}

#[test]
fn synthetic_all_methods_all_scales_identical_files() {
    let p = SynthParams::with_types("i,d", 48, 4).unwrap();
    for nprocs in [1, 2, 3, 8] {
        let mut reference: Option<Vec<u8>> = None;
        for method in [Method::Ocio, Method::Tcio, Method::Vanilla] {
            let fs = pfs::Pfs::new(nprocs, pfs::PfsConfig::default()).unwrap();
            let fs2 = Arc::clone(&fs);
            let p2 = p.clone();
            mpisim::run(nprocs, mpisim::SimConfig::default(), move |rk| {
                let cfgs = Configs::default();
                synthetic::run(Direction::Write, method, rk, &fs2, &p2, "/f", &cfgs)?;
                Ok(())
            })
            .unwrap();
            let fid = fs.open("/f").unwrap();
            let bytes = fs.snapshot_file(fid).unwrap();
            match &reference {
                None => reference = Some(bytes),
                Some(r) => assert_eq!(
                    r,
                    &bytes,
                    "{} differs from OCIO at P={nprocs}",
                    method.label()
                ),
            }
        }
    }
}

#[test]
fn every_reader_reads_every_writer() {
    // 3 writers × 3 readers — all nine combinations must verify.
    let p = SynthParams::with_types("i,d", 24, 2).unwrap();
    let nprocs = 4;
    for writer in [Method::Ocio, Method::Tcio, Method::Vanilla] {
        let fs = pfs::Pfs::new(nprocs, pfs::PfsConfig::default()).unwrap();
        let fs2 = Arc::clone(&fs);
        let p2 = p.clone();
        mpisim::run(nprocs, mpisim::SimConfig::default(), move |rk| {
            let cfgs = Configs::default();
            synthetic::run(Direction::Write, writer, rk, &fs2, &p2, "/rw", &cfgs)?;
            for reader in [Method::Ocio, Method::Tcio, Method::Vanilla] {
                synthetic::run(Direction::Read, reader, rk, &fs2, &p2, "/rw", &cfgs)?;
            }
            Ok(())
        })
        .unwrap();
    }
}

#[test]
fn art_snapshots_interoperate_between_methods() {
    let cfg = small_art();
    let fs = pfs::Pfs::new(4, pfs::PfsConfig::default()).unwrap();
    let fs2 = Arc::clone(&fs);
    let cfg2 = cfg.clone();
    mpisim::run(4, mpisim::SimConfig::default(), move |rk| {
        // Dump with vanilla, restart with TCIO, then the reverse.
        art::dump(rk, &fs2, &cfg2, ArtMethod::Vanilla, "/a")?;
        art::restart(rk, &fs2, &cfg2, ArtMethod::Tcio, "/a")?;
        art::dump(rk, &fs2, &cfg2, ArtMethod::Tcio, "/b")?;
        art::restart(rk, &fs2, &cfg2, ArtMethod::Vanilla, "/b")?;
        Ok(())
    })
    .unwrap();
}

#[test]
fn art_checkpoint_byte_identical_across_methods() {
    // The ART dump is seeded, so whichever I/O path carries it — TCIO,
    // per-record independent writes, or per-tree buffered writes — the
    // bytes that land in the PFS must be identical.
    let cfg = small_art();
    for nprocs in [2, 4] {
        let mut reference: Option<Vec<u8>> = None;
        for method in [
            ArtMethod::Tcio,
            ArtMethod::Vanilla,
            ArtMethod::VanillaBuffered,
        ] {
            let fs = pfs::Pfs::new(nprocs, pfs::PfsConfig::default()).unwrap();
            let fs2 = Arc::clone(&fs);
            let cfg2 = cfg.clone();
            mpisim::run(nprocs, mpisim::SimConfig::default(), move |rk| {
                art::dump(rk, &fs2, &cfg2, method, "/ck")?;
                Ok(())
            })
            .unwrap();
            let fid = fs.open("/ck").unwrap();
            let bytes = fs.snapshot_file(fid).unwrap();
            match &reference {
                None => reference = Some(bytes),
                Some(r) => assert_eq!(r, &bytes, "{method:?} differs from TCIO at P={nprocs}"),
            }
        }
    }
}

#[test]
fn ocio_oom_experiment_matches_fig6() {
    // The Fig. 6 mechanism in miniature: a budget that fits TCIO's
    // footprint (arrays + level-2 share + one segment) but not OCIO's
    // (arrays + combine buffer + collective buffer).
    let nprocs = 4;
    let p = SynthParams::with_types("i,d", 4096, 1).unwrap();
    let per_rank = p.bytes_per_rank(); // 48 KiB
    let seg = 1024u64;
    let budget = per_rank * 5 / 2; // 2.5× data: TCIO fits (~2x+seg), OCIO (3x) doesn't

    let run = |method: Method| {
        let fs = pfs::Pfs::new(nprocs, pfs::PfsConfig::default()).unwrap();
        let p2 = p.clone();
        let sim = mpisim::SimConfig {
            mem_budget: Some(budget),
            ..Default::default()
        };
        mpisim::run(nprocs, sim, move |rk| {
            match method {
                Method::Tcio => {
                    let cfg = TcioConfig::for_file_size_with_segment(
                        p2.file_size(rk.nprocs()),
                        rk.nprocs(),
                        seg,
                    );
                    synthetic::write_tcio(rk, &fs, &p2, "/oom", Some(cfg))
                }
                Method::Ocio => {
                    synthetic::write_ocio(rk, &fs, &p2, "/oom", &mpiio::CollectiveConfig::default())
                }
                Method::Vanilla => unreachable!(),
            }?;
            Ok(())
        })
    };

    assert!(run(Method::Tcio).is_ok(), "TCIO must fit in the budget");
    match run(Method::Ocio) {
        Err(mpisim::SimError::RankFailed { error, .. }) => {
            assert!(
                matches!(error, mpisim::MpiError::OutOfMemory { .. }),
                "OCIO must die of OOM, got {error}"
            );
        }
        other => panic!("OCIO should have failed with OOM, got {other:?}"),
    }
}

#[test]
fn tcio_handles_single_rank_world() {
    let fs = pfs::Pfs::new(1, pfs::PfsConfig::default()).unwrap();
    let fs2 = Arc::clone(&fs);
    mpisim::run(1, mpisim::SimConfig::default(), move |rk| {
        let cfg = TcioConfig::for_file_size(4096, 1);
        let mut f = TcioFile::open(rk, &fs2, "/solo", TcioMode::Write, cfg.clone())?;
        for i in 0..64u64 {
            f.write_at(rk, i * 64, &[i as u8; 64])?;
        }
        f.close(rk)?;
        Ok(())
    })
    .unwrap();
    let fid = fs.open("/solo").unwrap();
    let bytes = fs.snapshot_file(fid).unwrap();
    assert_eq!(bytes.len(), 4096);
    for i in 0..64 {
        assert!(bytes[i * 64..(i + 1) * 64].iter().all(|&b| b == i as u8));
    }
}

#[test]
fn moderate_scale_64_ranks_end_to_end() {
    // A smoke run at the paper's smallest scale point.
    let nprocs = 64;
    let p = SynthParams::with_types("i,d", 128, 1).unwrap();
    let fs = pfs::Pfs::new(nprocs, pfs::PfsConfig::default()).unwrap();
    let fs2 = Arc::clone(&fs);
    let p2 = p.clone();
    let rep = mpisim::run(nprocs, mpisim::SimConfig::default(), move |rk| {
        let w = synthetic::write_tcio(rk, &fs2, &p2, "/big", None)?;
        let r = synthetic::read_tcio(rk, &fs2, &p2, "/big", None)?;
        Ok((w.elapsed, r.elapsed))
    })
    .unwrap();
    assert!(rep.results.iter().all(|&(w, r)| w > 0.0 && r > 0.0));
    let agg = rep.aggregate_stats();
    assert!(agg.puts > 0, "one-sided puts must have occurred");
    assert!(agg.gets > 0, "one-sided gets must have occurred");
}

#[test]
fn virtual_time_orders_methods_sensibly() {
    // On the interleaved small-block workload, both collective methods
    // must beat the per-block independent baseline by a wide margin.
    let nprocs = 8;
    let p = SynthParams::with_types("i,d", 4096, 1).unwrap();
    let mut elapsed = Vec::new();
    for method in [Method::Tcio, Method::Ocio, Method::Vanilla] {
        let fs = pfs::Pfs::new(nprocs, pfs::PfsConfig::default()).unwrap();
        let p2 = p.clone();
        let rep = mpisim::run(nprocs, mpisim::SimConfig::default(), move |rk| {
            let cfgs = Configs::default();
            let w = synthetic::run(Direction::Write, method, rk, &fs, &p2, "/t", &cfgs)?;
            Ok(w)
        })
        .unwrap();
        elapsed.push(rep.results[0].elapsed);
    }
    let (tcio, ocio, vanilla) = (elapsed[0], elapsed[1], elapsed[2]);
    assert!(
        vanilla > 10.0 * tcio,
        "vanilla ({vanilla}s) must be much slower than TCIO ({tcio}s)"
    );
    assert!(
        vanilla > 10.0 * ocio,
        "vanilla ({vanilla}s) must be much slower than OCIO ({ocio}s)"
    );
}

/// Offsets near `u64::MAX` used to wrap (release) or panic (debug) inside
/// `TcioFile::{write_at, read_at, seek}` and `mpiio::File::seek`; every
/// entry point must refuse them with a typed usage error and leave the
/// handle's length and cursor alone.
#[test]
fn far_offsets_are_typed_errors_at_every_entry_point() {
    const FAR: u64 = u64::MAX - 3;
    let fs = pfs::Pfs::new(1, pfs::PfsConfig::default()).unwrap();
    let fs2 = Arc::clone(&fs);
    let rep = mpisim::run(1, mpisim::SimConfig::default(), move |rk| {
        let cfg = TcioConfig {
            segment_size: 64,
            num_segments: 4,
            ..Default::default()
        };
        // (entry point, refused with a usage error, (len, cursor) before, after)
        type Row = (&'static str, bool, (u64, u64), (u64, u64));
        let mut rows: Vec<Row> = Vec::new();
        let usage = |r: tcio::Result<()>| matches!(r, Err(tcio::TcioError::Usage(_)));

        let mut w = TcioFile::open(rk, &fs2, "/far", TcioMode::Write, cfg.clone())?;
        w.write(rk, &[1u8; 8])?;
        let state = (w.end()?, w.position());
        assert_eq!(state, (8, 8));
        let refused = usage(w.write_at(rk, FAR, &[7u8; 8]));
        rows.push(("tcio write_at", refused, state, (w.end()?, w.position())));
        for (name, off, whence) in [
            ("tcio seek cur", i64::MAX, tcio::Whence::Cur),
            ("tcio seek end", i64::MAX, tcio::Whence::End),
            ("tcio seek back", i64::MIN, tcio::Whence::Cur),
        ] {
            let refused = usage(w.seek(off, whence));
            rows.push((name, refused, state, (w.end()?, w.position())));
        }
        w.close(rk)?;

        let mut back = [0u8; 8];
        let mut r = TcioFile::open(rk, &fs2, "/far", TcioMode::Read, cfg)?;
        let state = (r.end()?, r.position());
        let refused = usage(r.read_at(rk, FAR, &mut back));
        rows.push(("tcio read_at", refused, state, (r.end()?, r.position())));
        r.close(rk)?;

        let mut f = mpiio::File::open(rk, &fs2, "/far", mpiio::Mode::ReadWrite)?;
        f.seek(8, mpiio::Whence::Set)?;
        for (name, off, whence) in [
            ("mpiio seek cur", i64::MAX, mpiio::Whence::Cur),
            ("mpiio seek end", i64::MAX, mpiio::Whence::End),
        ] {
            let refused = matches!(f.seek(off, whence), Err(mpiio::IoError::Usage(_)));
            rows.push((name, refused, (8, 8), (8, f.position())));
        }
        // The largest legal cursor is still reachable.
        f.seek(i64::MAX, mpiio::Whence::Set)?;
        assert_eq!(f.position(), i64::MAX as u64);
        Ok(rows)
    })
    .unwrap();
    for (name, refused, before, after) in &rep.results[0] {
        assert!(refused, "{name}: not refused with a usage error");
        assert_eq!(before, after, "{name}: moved the length or the cursor");
    }
    assert_eq!(fs.len(fs.open("/far").unwrap()).unwrap(), 8);
}

type Body = Box<dyn Fn(&mut mpisim::Rank, &Arc<pfs::Pfs>) -> mpisim::Result<()> + Sync>;
type Verdict = Box<dyn Fn(&mpisim::SimError) -> bool>;

/// The failure is a failed rank carrying exactly this layer error.
fn layer<E: std::error::Error + PartialEq + 'static>(want: E) -> Verdict {
    Box::new(move |failure| match failure {
        mpisim::SimError::RankFailed { error, .. } => error.layer::<E>() == Some(&want),
        _ => false,
    })
}

/// One failure per layer, raised inside a rank body that uses nothing but
/// `?`: each reaches `SimError` as the value its layer returned, and a
/// runtime error nested under a layer comes back out as itself, so `run`
/// triages it like one from a native MPI call.
#[test]
fn a_failure_keeps_its_type_from_its_layer_to_sim_error() {
    use mpisim::{MpiError, SimConfig, SimError};
    let tiny = |num_segments| TcioConfig {
        segment_size: 64,
        num_segments,
        ..Default::default()
    };
    let crash = chaos::FaultPlan::new(55).with(chaos::Fault::RankCrash { rank: 1, at: 0.5 });
    const NPROCS: usize = 4;
    let table: Vec<(&str, SimConfig, Body, Verdict)> = vec![
        (
            "pfs: open a missing path",
            SimConfig::default(),
            Box::new(|_, fs| Ok(fs.open("/missing").map(drop)?)),
            layer(pfs::PfsError::NotFound("/missing".into())),
        ),
        (
            "mpiio: write through a read-only file",
            SimConfig::default(),
            Box::new(|rk, fs| {
                mpiio::File::open(rk, fs, "/ro", mpiio::Mode::WriteOnly)?.close(rk)?;
                let mut f = mpiio::File::open(rk, fs, "/ro", mpiio::Mode::ReadOnly)?;
                Ok(f.write_at(rk, 0, &[1])?)
            }),
            layer(mpiio::IoError::Usage("file is not open for writing".into())),
        ),
        (
            // Window 4 is segment 1 of a 4-rank run; one is configured.
            "tcio: num_segments too small",
            SimConfig::default(),
            Box::new(move |rk, fs| {
                let mut f = TcioFile::open(rk, fs, "/small", TcioMode::Write, tiny(1))?;
                Ok(f.write_at(rk, 64 * 4, &[1])?)
            }),
            layer(tcio::TcioError::SegmentOverflow {
                offset: 256,
                needed_segments: 2,
                configured_segments: 1,
            }),
        ),
        (
            "workloads: invalid SynthParams",
            SimConfig::default(),
            Box::new(|_, _| Ok(SynthParams::with_types("i,d", 48, 0).map(drop)?)),
            layer(WlError::Config(
                "len_array and size_access must be positive".into(),
            )),
        ),
        (
            // Fig. 6's detection path.
            "an out-of-memory raised under mpiio is MpiError::OutOfMemory",
            SimConfig {
                mem_budget: Some(64),
                ..Default::default()
            },
            Box::new(|rk, fs| {
                let mut f = mpiio::File::open(rk, fs, "/oom", mpiio::Mode::WriteOnly)?;
                let cfg = mpiio::CollectiveConfig::default();
                Ok(mpiio::write_all_at(rk, &mut f, 0, &[7u8; 512], &cfg)?)
            }),
            Box::new(|failure| match failure {
                SimError::RankFailed { error, .. } => matches!(error, MpiError::OutOfMemory { .. }),
                _ => false,
            }),
        ),
        (
            "a doomed rank's own crash leaving TcioFile::close is a crash-stop",
            SimConfig {
                chaos: Some(crash.build().unwrap()),
                ..Default::default()
            },
            Box::new(move |rk, fs| {
                let mut f = TcioFile::open(rk, fs, "/cr", TcioMode::Write, tiny(4))?;
                f.write_at(rk, rk.rank() as u64 * 16, &[rk.rank() as u8; 16])?;
                f.flush(rk)?;
                rk.advance(1.0);
                Ok(f.close(rk).map(drop)?)
            }),
            Box::new(|failure| *failure == SimError::CollectiveAborted { crashed_rank: 1 }),
        ),
    ];
    for (name, sim, body, expected) in table {
        let fs = pfs::Pfs::new(NPROCS, pfs::PfsConfig::default()).unwrap();
        if let Some(engine) = &sim.chaos {
            fs.attach_chaos(Arc::clone(engine)).unwrap();
        }
        let failure = mpisim::run(NPROCS, sim, |rk| body(rk, &fs)).expect_err(name);
        assert!(expected(&failure), "{name}: got {failure:?}");
    }
}
