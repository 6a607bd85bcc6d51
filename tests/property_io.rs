//! Property-style tests on the core I/O invariants, driven by a seeded
//! deterministic generator (the build environment is offline, so these are
//! hand-rolled rather than proptest-based — every case is reproducible from
//! its seed printed in the assertion message):
//!
//! * any set of disjoint positioned TCIO writes produces the same file as
//!   a reference byte-array model, regardless of segment size, process
//!   count, and write order;
//! * lazy TCIO reads return exactly the bytes of the file model;
//! * the two-phase collective write equals the model too;
//! * datatype pack→unpack is the identity on the type's footprint;
//! * the file view maps ranges exactly like a naive per-byte walk;
//! * the text parsers (fault plans, bench documents) are total on
//!   mutated input.

use bench::perfgate::{check_golden, fnv1a};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::collections::BTreeMap;
use std::sync::Arc;
use tcio::{TcioConfig, TcioFile, TcioMode};

fn pick(rng: &mut StdRng, lo: u64, hi: u64) -> u64 {
    lo + rng.next_u64() % (hi - lo)
}

/// A write plan: per rank, a list of disjoint (offset, data) blocks.
/// Generated so that blocks never overlap across ranks either.
#[derive(Debug, Clone)]
struct Plan {
    nprocs: usize,
    segment: u64,
    /// (rank, offset, len, fill)
    blocks: Vec<(usize, u64, usize, u8)>,
}

/// Mirror of the seed suite's proptest strategy: slot the file into fixed
/// 32-byte cells; each cell is owned by at most one block, which guarantees
/// global disjointness while still exercising arbitrary offsets/strides.
fn random_plan(seed: u64) -> Plan {
    let mut rng = StdRng::seed_from_u64(seed);
    let nprocs = pick(&mut rng, 2, 5) as usize;
    let segment = pick(&mut rng, 8, 100);
    let ncells = pick(&mut rng, 1, 40) as usize;
    let mut used: BTreeMap<usize, ()> = BTreeMap::new();
    let mut blocks = Vec::new();
    for i in 0..ncells {
        let cell = pick(&mut rng, 0, 64) as usize;
        let span = pick(&mut rng, 1, 3) as usize;
        // Skip blocks that would overlap already-claimed cells.
        if (cell..cell + span).any(|c| used.contains_key(&c)) {
            continue;
        }
        for c in cell..cell + span {
            used.insert(c, ());
        }
        let rank = i % nprocs;
        let off = cell as u64 * 32;
        let len = span * 32 - (i % 7).min(span * 32 - 1); // ragged ends
        blocks.push((rank, off, len, (i % 251) as u8 + 1));
    }
    Plan {
        nprocs,
        segment,
        blocks,
    }
}

impl Plan {
    /// One past the last byte any block covers.
    fn end(&self) -> u64 {
        let ends = self.blocks.iter().map(|&(_, o, l, _)| o + l as u64);
        ends.max().unwrap_or(0)
    }

    /// TCIO sized for this plan's file and segment.
    fn tcio_config(&self) -> TcioConfig {
        TcioConfig::for_file_size_with_segment(self.end().max(1), self.nprocs, self.segment)
    }

    /// Write the calling rank's blocks through TCIO. Returns the layer's
    /// own `Result`: a rank body takes it with `?`.
    fn write_tcio(
        &self,
        rk: &mut mpisim::Rank,
        fs: &Arc<pfs::Pfs>,
        path: &str,
        cfg: TcioConfig,
    ) -> tcio::Result<()> {
        let mut f = TcioFile::open(rk, fs, path, TcioMode::Write, cfg)?;
        for &(rank, off, len, fill) in &self.blocks {
            if rank == rk.rank() {
                f.write_at(rk, off, &block_data(len, fill))?;
            }
        }
        f.close(rk)?;
        Ok(())
    }

    /// Write every block with one two-phase collective call per block:
    /// ranks that do not own the block contribute an empty request.
    fn write_ocio(
        &self,
        rk: &mut mpisim::Rank,
        fs: &Arc<pfs::Pfs>,
        path: &str,
        ccfg: &mpiio::CollectiveConfig,
    ) -> mpiio::Result<()> {
        let mut f = mpiio::File::open(rk, fs, path, mpiio::Mode::WriteOnly)?;
        for &(rank, off, len, fill) in &self.blocks {
            let (o, data) = if rank == rk.rank() {
                (off, block_data(len, fill))
            } else {
                (0, Vec::new())
            };
            mpiio::write_all_at(rk, &mut f, o, &data, ccfg)?;
        }
        f.close(rk)
    }

    /// Lazily read the calling rank's blocks back through TCIO, as
    /// `(offset, bytes)` in plan order.
    fn read_tcio(
        &self,
        rk: &mut mpisim::Rank,
        fs: &Arc<pfs::Pfs>,
        path: &str,
        cfg: TcioConfig,
    ) -> tcio::Result<Vec<(u64, Vec<u8>)>> {
        let mine = self.blocks.iter().filter(|&&(r, _, _, _)| r == rk.rank());
        let mut bufs: Vec<_> = mine
            .map(|&(_, off, len, _)| (off, vec![0u8; len]))
            .collect();
        let mut f = TcioFile::open(rk, fs, path, TcioMode::Read, cfg)?;
        for (off, buf) in bufs.iter_mut() {
            f.read_at(rk, *off, buf)?;
        }
        f.fetch(rk)?;
        f.close(rk)?;
        Ok(bufs)
    }
}

/// Apply the plan to a plain byte-array model.
fn model_file(plan: &Plan) -> Vec<u8> {
    let mut file = vec![0u8; plan.end() as usize];
    for &(_, off, len, fill) in &plan.blocks {
        for i in 0..len {
            file[off as usize + i] = fill.wrapping_add(i as u8);
        }
    }
    file
}

fn block_data(len: usize, fill: u8) -> Vec<u8> {
    (0..len).map(|i| fill.wrapping_add(i as u8)).collect()
}

fn run_tcio_plan(plan: &Plan) -> Vec<u8> {
    let fs = pfs::Pfs::new(plan.nprocs, pfs::PfsConfig::default()).unwrap();
    mpisim::run(plan.nprocs, mpisim::SimConfig::default(), |rk| {
        Ok(plan.write_tcio(rk, &fs, "/prop", plan.tcio_config())?)
    })
    .unwrap();
    let fid = fs.open("/prop").unwrap();
    fs.snapshot_file(fid).unwrap()
}

/// Run the plan through one of the four write stacks under a node
/// topology and return the resulting PFS file contents.
fn run_plan_variant(plan: &Plan, ppn: usize, variant: &'static str) -> Vec<u8> {
    let fs = pfs::Pfs::new(plan.nprocs, pfs::PfsConfig::default()).unwrap();
    let sim = mpisim::SimConfig {
        topology: Some(mpisim::Topology::blocked(plan.nprocs, ppn)),
        ..Default::default()
    };
    let fs2 = Arc::clone(&fs);
    let plan2 = plan.clone();
    mpisim::run(plan.nprocs, sim, move |rk| {
        match variant {
            "tcio" => plan2.write_tcio(rk, &fs2, "/diff", plan2.tcio_config())?,
            "indep" => {
                let mut f = mpiio::File::open(rk, &fs2, "/diff", mpiio::Mode::WriteOnly)?;
                for &(rank, off, len, fill) in &plan2.blocks {
                    if rank == rk.rank() {
                        f.write_at(rk, off, &block_data(len, fill))?;
                    }
                }
                f.close(rk)?;
            }
            _ => {
                let ccfg = mpiio::CollectiveConfig {
                    req_agg: variant == "ocio_req_agg",
                    ..Default::default()
                };
                plan2.write_ocio(rk, &fs2, "/diff", &ccfg)?;
            }
        }
        Ok(())
    })
    .unwrap();
    let fid = fs.open("/diff").unwrap();
    fs.snapshot_file(fid).unwrap()
}

/// Run the plan through one (method, req_agg, pipeline) ablation cell
/// under a node topology: write every block collectively (or through
/// TCIO), then read every block back collectively, and return the PFS
/// bytes plus the read-back bytes (concatenated in block order).
fn run_plan_ablation(
    plan: &Plan,
    ppn: usize,
    method: &'static str,
    req_agg: bool,
    pipeline: bool,
) -> (Vec<u8>, Vec<u8>) {
    let fs = pfs::Pfs::new(plan.nprocs, pfs::PfsConfig::default()).unwrap();
    let sim = mpisim::SimConfig {
        topology: Some(mpisim::Topology::blocked(plan.nprocs, ppn)),
        ..Default::default()
    };
    let fs2 = Arc::clone(&fs);
    let plan2 = plan.clone();
    let reads = mpisim::run(plan.nprocs, sim, move |rk| {
        // Small collective buffer so multi-block plans take several
        // rounds — otherwise the pipeline axis would never engage.
        let ccfg = mpiio::CollectiveConfig {
            cb_buffer: Some(64),
            req_agg,
            pipeline,
            ..Default::default()
        };
        match method {
            "tcio" => plan2.write_tcio(rk, &fs2, "/abl", plan2.tcio_config())?,
            _ => plan2.write_ocio(rk, &fs2, "/abl", &ccfg)?,
        }
        // Read-back through the collective read path under the same
        // ablation config; every rank re-reads its own blocks.
        let mut f = mpiio::File::open(rk, &fs2, "/abl", mpiio::Mode::ReadOnly)?;
        let mut mine = Vec::new();
        for &(rank, off, len, _) in &plan2.blocks {
            let (o, mut buf) = if rank == rk.rank() {
                (off, vec![0u8; len])
            } else {
                (0, Vec::new())
            };
            mpiio::read_all_at(rk, &mut f, o, &mut buf, &ccfg)?;
            mine.extend_from_slice(&buf);
        }
        f.close(rk)?;
        Ok(mine)
    })
    .unwrap();
    let fid = fs.open("/abl").unwrap();
    let bytes = fs.snapshot_file(fid).unwrap();
    // Stitch the per-rank read-backs into block order.
    let mut cursors = vec![0usize; plan.nprocs];
    let mut readback = Vec::new();
    for &(rank, _, len, _) in &plan.blocks {
        let c = cursors[rank];
        readback.extend_from_slice(&reads.results[rank][c..c + len]);
        cursors[rank] = c + len;
    }
    (bytes, readback)
}

#[test]
fn ablation_matrix_is_byte_identical_across_random_plans() {
    // The tentpole differential property: for ~50 seeded plans and a
    // seeded node placement, every combination of the two ablation knobs
    // — request aggregation and the round pipeline — must produce PFS
    // bytes identical to the flat run (and to the byte-array model), and
    // the collective read-back under the same knobs must return exactly
    // the bytes each rank wrote. The knobs are pure virtual-time
    // features; any byte drift is a merging or pipelining bug.
    for seed in 400..450u64 {
        let plan = random_plan(seed);
        if plan.blocks.is_empty() {
            continue;
        }
        let mut rng = StdRng::seed_from_u64(seed ^ 0xAB1A);
        let ppn = pick(&mut rng, 1, plan.nprocs as u64 + 1) as usize;
        let want = model_file(&plan);
        let want_readback: Vec<u8> = plan
            .blocks
            .iter()
            .flat_map(|&(_, _, len, fill)| block_data(len, fill))
            .collect();
        for method in ["tcio", "ocio"] {
            for (req_agg, pipeline) in [(false, false), (true, false), (false, true), (true, true)]
            {
                let (bytes, readback) = run_plan_ablation(&plan, ppn, method, req_agg, pipeline);
                assert_eq!(
                    bytes, want,
                    "seed {seed} ppn {ppn} {method} req_agg={req_agg} \
                     pipeline={pipeline}: file bytes diverged: {plan:?}"
                );
                assert_eq!(
                    readback, want_readback,
                    "seed {seed} ppn {ppn} {method} req_agg={req_agg} \
                     pipeline={pipeline}: read-back diverged: {plan:?}"
                );
            }
        }
    }
}

#[test]
fn all_write_stacks_agree_under_random_topologies() {
    // Differential suite for the node-aware paths: for each seeded plan
    // and a seeded node placement, TCIO (node-aware L2 owner order), flat
    // two-phase, two-phase with intra-node request aggregation, and plain
    // independent writes must all produce byte-identical PFS contents —
    // equal to the byte-array model. Topology and request aggregation are
    // pure cost-model features; any byte drift is a routing bug.
    for seed in 300..350u64 {
        let plan = random_plan(seed);
        if plan.blocks.is_empty() {
            continue;
        }
        let mut rng = StdRng::seed_from_u64(seed ^ 0x7090);
        let ppn = pick(&mut rng, 1, plan.nprocs as u64 + 1) as usize;
        let want = model_file(&plan);
        for variant in ["tcio", "ocio", "ocio_req_agg", "indep"] {
            let got = run_plan_variant(&plan, ppn, variant);
            assert_eq!(got, want, "seed {seed} ppn {ppn} {variant}: {plan:?}");
        }
    }
}

#[test]
fn tcio_writes_match_byte_model() {
    for seed in 0..32u64 {
        let plan = random_plan(seed);
        if plan.blocks.is_empty() {
            continue;
        }
        let got = run_tcio_plan(&plan);
        let want = model_file(&plan);
        assert_eq!(got, want, "seed {seed}: {plan:?}");
    }
}

#[test]
fn tcio_lazy_reads_return_model_bytes() {
    for seed in 100..124u64 {
        let plan = random_plan(seed);
        if plan.blocks.is_empty() {
            continue;
        }
        let fs = pfs::Pfs::new(plan.nprocs, pfs::PfsConfig::default()).unwrap();
        let model = model_file(&plan);
        {
            let fid = fs.create("/prop").unwrap();
            fs.write_at(fid, 0, 0, &model, 0.0).unwrap();
        }
        mpisim::run(plan.nprocs, mpisim::SimConfig::default(), |rk| {
            for (off, got) in plan.read_tcio(rk, &fs, "/prop", plan.tcio_config())? {
                let want = &model[off as usize..off as usize + got.len()];
                assert_eq!(got.as_slice(), want, "read mismatch at offset {off}");
            }
            Ok(())
        })
        .unwrap();
    }
}

#[test]
fn collective_write_matches_byte_model() {
    for seed in 200..224u64 {
        let plan = random_plan(seed);
        if plan.blocks.is_empty() {
            continue;
        }
        let fs = pfs::Pfs::new(plan.nprocs, pfs::PfsConfig::default()).unwrap();
        mpisim::run(plan.nprocs, mpisim::SimConfig::default(), |rk| {
            Ok(plan.write_ocio(rk, &fs, "/coll", &Default::default())?)
        })
        .unwrap();
        let fid = fs.open("/coll").unwrap();
        assert_eq!(
            fs.snapshot_file(fid).unwrap(),
            model_file(&plan),
            "seed {seed}: {plan:?}"
        );
    }
}

#[test]
fn datatype_pack_unpack_identity() {
    // Exhaustive over the seed suite's parameter ranges.
    for count in 1usize..5 {
        for blocklen in 1usize..4 {
            for stride in 1isize..6 {
                for instances in 1usize..3 {
                    if stride < blocklen as isize {
                        continue;
                    }
                    let t = mpisim::Datatype::vector(
                        count,
                        blocklen,
                        stride,
                        mpisim::Datatype::named(mpisim::Named::Int),
                    )
                    .commit();
                    let footprint = t.extent() * instances;
                    let src: Vec<u8> = (0..footprint).map(|i| (i % 251) as u8).collect();
                    let packed = t.pack(&src, instances).unwrap();
                    assert_eq!(packed.len(), t.size() * instances);
                    let mut dst = vec![0u8; footprint];
                    t.unpack(&packed, &mut dst, instances).unwrap();
                    // Every byte in the type map must round-trip; gaps stay 0.
                    for inst in 0..instances {
                        let base = inst * t.extent();
                        for (off, len) in t.extents() {
                            let at = base + off as usize;
                            assert_eq!(
                                &dst[at..at + len],
                                &src[at..at + len],
                                "count={count} blocklen={blocklen} stride={stride}"
                            );
                        }
                    }
                }
            }
        }
    }
}

#[test]
fn file_view_matches_naive_walk() {
    for seed in 0..128u64 {
        let mut rng = StdRng::seed_from_u64(0x71E3 ^ seed);
        let nblocks = pick(&mut rng, 1, 6) as usize;
        let blockbytes = pick(&mut rng, 1, 16) as usize;
        let nprocs = pick(&mut rng, 1, 5) as usize;
        let rank = pick(&mut rng, 0, nprocs as u64) as usize;
        let pos = pick(&mut rng, 0, 64);
        let len = pick(&mut rng, 0, 96);

        let etype =
            mpisim::Datatype::contiguous(blockbytes, mpisim::Datatype::named(mpisim::Named::Byte))
                .commit();
        let ftype = mpisim::Datatype::vector(nblocks, 1, nprocs as isize, etype.datatype().clone())
            .commit();
        let disp = (rank * blockbytes) as u64;
        let view = mpiio::FileView::new(disp, &etype, &ftype).unwrap();
        let tile_data = (nblocks * blockbytes) as u64;
        if len > 0 && pos + len > 4 * tile_data {
            continue;
        }

        // Naive oracle: walk the stream byte by byte.
        let byte_at = |stream: u64| -> u64 {
            let tile = stream / tile_data;
            let within = stream % tile_data;
            let block = within / blockbytes as u64;
            let inblock = within % blockbytes as u64;
            disp + tile * (ftype.extent() as u64) + block * (blockbytes * nprocs) as u64 + inblock
        };
        let mut expected: Vec<u64> = (pos..pos + len).map(byte_at).collect();
        let got = view.map_range(pos, len);
        // Flatten the mapped extents back into byte offsets.
        let mut flat = Vec::new();
        for (o, l) in got.iter() {
            for i in 0..*l {
                flat.push(o + i);
            }
        }
        expected.sort_unstable();
        flat.sort_unstable();
        assert_eq!(flat, expected, "seed {seed}");
    }
}

#[test]
fn extent_set_matches_boolean_model() {
    for seed in 0..128u64 {
        let mut rng = StdRng::seed_from_u64(0xE47E ^ seed);
        let nops = pick(&mut rng, 1, 60) as usize;
        let ops: Vec<(u64, u64)> = (0..nops)
            .map(|_| (pick(&mut rng, 0, 200), pick(&mut rng, 1, 40)))
            .collect();
        let mut set = mpiio::ExtentSet::new();
        let mut model = vec![false; 256];
        for &(off, len) in &ops {
            set.insert(off, len);
            for i in off..(off + len).min(256) {
                model[i as usize] = true;
            }
        }
        // Coverage must match the model byte for byte.
        let covered: u64 = model.iter().filter(|&&b| b).count() as u64;
        assert_eq!(set.covered(), covered, "seed {seed}");
        // Runs must be maximal (no two adjacent runs).
        let runs = set.runs();
        for w in runs.windows(2) {
            assert!(w[0].0 + w[0].1 < w[1].0, "runs {w:?} not coalesced");
        }
        // Spot-check contains() against the model.
        for probe in [0u64, 13, 55, 128, 199] {
            assert_eq!(set.contains(probe, 1), model[probe as usize], "seed {seed}");
        }
    }
}

/// A random fault plan drawing from every family, including the
/// crash-stop and silent-corruption ones.
fn random_fault_plan(seed: u64) -> chaos::FaultPlan {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut plan = chaos::FaultPlan::new(pick(&mut rng, 1, 1 << 20));
    for _ in 0..pick(&mut rng, 1, 9) {
        let from = pick(&mut rng, 0, 1000) as f64 * 1e-4;
        let until = from + pick(&mut rng, 1, 1000) as f64 * 1e-4;
        let rank = pick(&mut rng, 0, 4) as usize;
        let ost = pick(&mut rng, 0, 4) as usize;
        let factor = 1.0 + pick(&mut rng, 0, 40) as f64 / 10.0;
        let fault = match pick(&mut rng, 0, 10) {
            0 => chaos::Effect::OstSlowdown { ost, factor }.during(from, until),
            1 => chaos::Effect::OstOutage { ost }.during(from, until),
            2 => chaos::Effect::RequestOverhead {
                extra: pick(&mut rng, 0, 500) as f64 * 1e-6,
            }
            .during(from, until),
            3 => chaos::Effect::LockStorm { clients: None }.during(from, until),
            4 => chaos::Effect::MessageDelay {
                delay: pick(&mut rng, 0, 200) as f64 * 1e-6,
            }
            .during(from, until),
            5 => chaos::Fault::ConnFlush { at: from },
            6 => chaos::Effect::RankStall { rank }.during(from, until),
            7 => chaos::Effect::RankSlowdown { rank, factor }.during(from, until),
            8 => chaos::Fault::RankCrash { rank, at: from },
            _ => chaos::Effect::SilentCorruption {
                rate: pick(&mut rng, 0, 101) as f64 / 100.0,
            }
            .during(from, until),
        };
        plan = plan.with(fault);
    }
    plan
}

/// Evaluate every chaos query over a seeded grid of `(rank, ost, client,
/// link, site, t)` points and fold the answers into one fingerprint vector.
/// The grid spans every rank, OST, client and link endpoint a committed
/// plan or [`random_fault_plan`] names, and the instants past their
/// windows. A sum is recorded plus `0.0`: the sign of a zero sum is no
/// query's contract, since every consumer adds it to a clock.
fn chaos_fingerprint(e: &chaos::ChaosEngine, seed: u64) -> Vec<u64> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xC4A0_5F1E);
    let sum = |x: f64| (x + 0.0).to_bits();
    let index = |i: Option<usize>| i.map_or(u64::MAX, |i| i as u64);
    let retry = e.retry();
    let mut out = vec![
        e.is_inert() as u64,
        index(e.max_ost()),
        index(e.max_rank()),
        e.any_link_degrade() as u64,
        e.any_crash() as u64,
        e.any_corruption() as u64,
        retry.max_attempts as u64,
    ];
    out.extend((1..=8).map(|attempt| retry.backoff(attempt).to_bits()));
    for _ in 0..200 {
        let r = pick(&mut rng, 0, 4) as usize;
        let ost = pick(&mut rng, 0, 4) as usize;
        let t = pick(&mut rng, 0, 2500) as f64 * 1e-4;
        let site = rng.next_u64();
        let client = pick(&mut rng, 0, 9) as usize;
        let (src, dst) = (pick(&mut rng, 0, 4) as usize, pick(&mut rng, 0, 4) as usize);
        out.push(e.ost_factor(ost, t).to_bits());
        out.push(e.ost_outage_until(ost, t).map_or(0, f64::to_bits));
        out.push(sum(e.extra_request_overhead(t)));
        out.push(e.lock_storm_for(client, t) as u64);
        out.push(sum(e.message_delay(t)));
        out.push(e.link_factor(src, dst, t).to_bits());
        out.push(e.conn_flush_generation(t));
        out.push(e.rank_stall_until(r, t).map_or(0, f64::to_bits));
        out.push(e.stall_ahead(r, t) as u64);
        out.push(e.rank_slowdown(r, t).to_bits());
        out.push(e.crash_at(r).map_or(0, f64::to_bits));
        out.push(e.crashed(r, t) as u64);
        out.push(e.crash_ahead(r) as u64);
        out.push(sum(e.corruption_rate(t)));
        out.push(e.corrupts(site, t) as u64);
        out.push(e.unit_hash(site).to_bits());
    }
    out
}

/// Every committed plan and every [`random_fault_plan`], each as written
/// and scaled to `k ∈ {0, 0.5, 1}`, through [`chaos_fingerprint`]: one line
/// per plan.
#[test]
fn chaos_queries_match_golden_fingerprint() {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("plans");
    let mut files: Vec<_> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|f| f.unwrap().path())
        .filter(|p| p.extension().is_some_and(|e| e == "toml"))
        .collect();
    files.sort();
    let mut plans: Vec<(String, chaos::FaultPlan)> = files
        .iter()
        .map(|p| {
            let text = std::fs::read_to_string(p).unwrap();
            let name = p.file_name().unwrap().to_string_lossy();
            (
                format!("plans/{name}"),
                chaos::FaultPlan::parse(&text).unwrap(),
            )
        })
        .collect();
    plans.extend((0..50u64).map(|seed| (format!("random {seed}"), random_fault_plan(seed))));
    let fnv = |words: Vec<u64>| {
        fnv1a(
            &words
                .iter()
                .flat_map(|w| w.to_le_bytes())
                .collect::<Vec<_>>(),
        )
    };
    let mut got = String::new();
    for (i, (label, plan)) in plans.iter().enumerate() {
        let grid =
            |p: &chaos::FaultPlan| fnv(chaos_fingerprint(&p.clone().build().unwrap(), i as u64));
        got += &format!(
            "{label} plan={:016x} k0={:016x} k0.5={:016x} k1={:016x}\n",
            grid(plan),
            grid(&plan.scaled(0.0)),
            grid(&plan.scaled(0.5)),
            grid(&plan.scaled(1.0)),
        );
    }
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/golden/chaos_fingerprint.txt"
    );
    check_golden(path, &got).unwrap_or_else(|why| panic!("{why}"));
}

#[test]
fn chaos_queries_are_pure_functions_of_site_and_time() {
    // The whole failure-agreement design (survivor lists, buddy election,
    // recovery responsibility) rests on every rank being able to evaluate
    // the fault plan independently and get the same answer. So for 50
    // random plans spanning all ten fault families: re-asking, rebuilding
    // the plan from its seed, and asking concurrently from racing threads
    // must all produce bit-identical answers.
    for seed in 0..50u64 {
        let engine = random_fault_plan(seed).build().unwrap();
        let base = chaos_fingerprint(&engine, seed);
        assert_eq!(
            base,
            chaos_fingerprint(&engine, seed),
            "seed {seed}: repeated evaluation diverged"
        );
        let rebuilt = random_fault_plan(seed).build().unwrap();
        assert_eq!(
            base,
            chaos_fingerprint(&rebuilt, seed),
            "seed {seed}: rebuilt engine diverged"
        );
        let threads: Vec<_> = (0..4)
            .map(|_| {
                let e = Arc::clone(&engine);
                std::thread::spawn(move || chaos_fingerprint(&e, seed))
            })
            .collect();
        for h in threads {
            assert_eq!(
                base,
                h.join().unwrap(),
                "seed {seed}: concurrent evaluation diverged"
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Critical-path conservation property
// ---------------------------------------------------------------------------

/// A fault plan drawn only from the non-fatal families: every one perturbs
/// virtual timing (the thing the critical path must still conserve) without
/// aborting the run or corrupting data. Ranks stay inside the run's
/// `nprocs`: a plan naming a rank the run lacks is refused.
fn benign_fault_plan(seed: u64, nprocs: usize) -> chaos::FaultPlan {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xBE9F);
    let mut plan = chaos::FaultPlan::new(pick(&mut rng, 1, 1 << 20));
    for _ in 0..pick(&mut rng, 1, 5) {
        let from = pick(&mut rng, 0, 100) as f64 * 1e-4;
        let rank = pick(&mut rng, 0, 4) as usize % nprocs;
        let ost = pick(&mut rng, 0, 4) as usize;
        let fault = match pick(&mut rng, 0, 6) {
            0 => chaos::Effect::OstSlowdown {
                ost,
                factor: 1.0 + pick(&mut rng, 0, 30) as f64 / 10.0,
            }
            .during(from, from + 0.05),
            // Short outage: well inside the retry budget.
            1 => chaos::Effect::OstOutage { ost }.during(from, from + 0.005),
            2 => chaos::Effect::RequestOverhead {
                extra: pick(&mut rng, 0, 300) as f64 * 1e-6,
            }
            .during(from, from + 0.05),
            3 => chaos::Effect::MessageDelay {
                delay: pick(&mut rng, 0, 100) as f64 * 1e-6,
            }
            .during(from, from + 0.05),
            4 => chaos::Effect::RankStall { rank }.during(from, from + 0.003),
            _ => chaos::Effect::RankSlowdown {
                rank,
                factor: 1.0 + pick(&mut rng, 0, 20) as f64 / 10.0,
            }
            .during(from, from + 0.05),
        };
        plan = plan.with(fault);
    }
    plan
}

/// Structural invariants of one computed critical path.
fn assert_path_conserved(seed: u64, cp: &insight::CriticalPath, makespan: f64) {
    assert!(!cp.truncated, "seed {seed}: walker hit its iteration cap");
    assert!(
        (cp.makespan - makespan).abs() <= 1e-9 * makespan.max(1.0),
        "seed {seed}: analyzer makespan {} vs report {makespan}",
        cp.makespan
    );
    assert!(
        cp.residual().abs() <= 1e-9 * makespan.max(1.0),
        "seed {seed}: path breakdown loses {}s of the makespan",
        cp.residual()
    );
    // Segments tile [0, makespan] without gaps or overlap, and every
    // same-rank (Seq) hop really stays on one rank.
    let segs = &cp.segments;
    assert!(!segs.is_empty(), "seed {seed}: empty path on a real run");
    assert!(segs[0].start.abs() <= 1e-9);
    assert!((segs[segs.len() - 1].end - cp.makespan).abs() <= 1e-9 * makespan.max(1.0));
    for w in segs.windows(2) {
        assert!(
            (w[0].end - w[1].start).abs() <= 1e-9 * makespan.max(1.0),
            "seed {seed}: gap between path segments at {}",
            w[0].end
        );
        if matches!(w[0].link_to_next, insight::Link::Seq) {
            assert_eq!(
                w[0].rank, w[1].rank,
                "seed {seed}: Seq link crosses ranks at {}",
                w[0].end
            );
        }
    }
}

#[test]
fn critical_path_conservation_over_random_runs() {
    // ≥25 seeded configurations across {Table-I synth, ART} × {flat,
    // blocked topology} × {fault-free, benign chaos}: the critical path
    // must tile the makespan exactly (no lost or double-counted virtual
    // time) and stay causally connected, whatever the run shape.
    for seed in 0..28u64 {
        let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9).wrapping_add(51));
        let nprocs = pick(&mut rng, 2, 9) as usize;
        let topo = (seed % 3 == 0).then(|| {
            let ppn = [1, 2, 4][(seed as usize / 3) % 3];
            mpisim::Topology::blocked(nprocs, ppn)
        });
        let engine = (seed % 3 == 1).then(|| benign_fault_plan(seed, nprocs).build().unwrap());

        let fs = pfs::Pfs::new(nprocs, pfs::PfsConfig::default()).unwrap();
        if let Some(e) = &engine {
            fs.attach_chaos(Arc::clone(e)).unwrap();
        }
        let sim = mpisim::SimConfig {
            trace: true,
            topology: topo.clone(),
            chaos: engine,
            ..Default::default()
        };
        let fs2 = Arc::clone(&fs);
        let use_art = seed % 2 == 1;
        let len = pick(&mut rng, 32, 129) as usize;
        let rep = mpisim::run(nprocs, sim, move |rk| {
            if use_art {
                let cfg = workloads::art::ArtConfig {
                    num_segments: 2 * rk.nprocs(),
                    mu: 6.0,
                    sigma: 1.0,
                    ..workloads::art::ArtConfig::default()
                };
                workloads::art::dump(rk, &fs2, &cfg, workloads::art::ArtMethod::Tcio, "/cp_art")?;
            } else {
                let p = workloads::synthetic::SynthParams::with_types("i,d", len, 1)
                    .expect("valid params");
                workloads::synthetic::write_tcio(rk, &fs2, &p, "/cp_synth", None)?;
                workloads::synthetic::read_tcio(rk, &fs2, &p, "/cp_synth", None)?;
            }
            Ok(())
        })
        .unwrap_or_else(|e| panic!("seed {seed}: run failed: {e:?}"));

        let mut an = insight::Analyzer::new(&rep.traces);
        if let Some(t) = &topo {
            an = an.with_topology(t);
        }
        let cp = an.critical_path();
        assert_path_conserved(seed, &cp, rep.makespan);
    }
}

/// Everything observable from one defended run: authoritative file bytes,
/// makespan and per-rank clocks as raw bits, and the defense counters.
type DefendedRun = (Vec<u8>, u64, Vec<u64>, pfs::HealthSnapshot);

/// Run the plan's writes, then read every block back through the full
/// defense stack — health tracking, circuit breakers, degraded-mode
/// relocation, hedged TCIO reads, and a post-run rebuild — under a
/// seeded flaky-OST + degraded-link fault plan.
fn run_defended_gray(plan: &Plan, seed: u64) -> DefendedRun {
    // Both gray-failure families, windows closed well before the rebuild.
    let horizon = 0.05;
    let fplan = chaos::FaultPlan::new(seed)
        .with(
            chaos::Effect::FlakyOst {
                ost: (seed % 4) as usize,
                factor: 16.0,
                period: 1e-3,
                duty: 0.7,
            }
            .during(0.0, horizon),
        )
        .with(
            chaos::Effect::LinkDegrade {
                src: (seed as usize + 1) % plan.nprocs,
                dst: seed as usize % plan.nprocs,
                factor: 3.0,
            }
            .during(0.0, horizon / 2.0),
        );
    let engine = fplan.build().unwrap();
    // Tiny stripes so even a ~1 KiB plan file spreads across all OSTs and
    // the flaky one sees enough traffic to trip its breaker.
    let pcfg = pfs::PfsConfig {
        stripe_size: 64,
        stripe_count: 4,
        num_osts: 4,
        ..Default::default()
    };
    let fs = pfs::Pfs::new(plan.nprocs, pcfg).unwrap();
    fs.attach_chaos(Arc::clone(&engine)).unwrap();
    fs.enable_health(pfs::HealthConfig {
        min_samples: 2,
        hedge_min_samples: 8,
        open_secs: 2e-3,
    })
    .unwrap();
    let sim = mpisim::SimConfig {
        chaos: Some(engine),
        ..Default::default()
    };
    let fs2 = Arc::clone(&fs);
    let plan2 = plan.clone();
    let model = model_file(plan);
    let model2 = model.clone();
    let rep = mpisim::run(plan.nprocs, sim, move |rk| {
        let cfg = plan2.tcio_config();
        plan2.write_tcio(rk, &fs2, "/gray", cfg.clone())?;
        // Read every block back hedged and verify against the model: the
        // defenses may reroute cost-plane traffic but never the bytes.
        for (off, got) in plan2.read_tcio(rk, &fs2, "/gray", cfg)? {
            let want = &model2[off as usize..off as usize + got.len()];
            assert_eq!(got.as_slice(), want, "hedged read mismatch at offset {off}");
        }
        Ok(())
    })
    .unwrap();
    // Post-run rebuild after the fault horizon: drain the relocation map.
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
    let fid = fs.open("/gray").unwrap();
    let bytes = fs.snapshot_file(fid).unwrap();
    assert_eq!(
        bytes, model,
        "seed {seed}: defended bytes diverge from model"
    );
    (
        bytes,
        rep.makespan.to_bits(),
        rep.clocks.iter().map(|c| c.to_bits()).collect(),
        fs.health_report().unwrap(),
    )
}

#[test]
fn defended_gray_failure_runs_are_deterministic_across_50_seeds() {
    // Run-twice determinism with the whole defense stack live: same seed
    // ⇒ bit-identical makespan, clocks, bytes, and defense counters,
    // while the read-back inside each run stays byte-exact despite
    // breakers, relocation, hedging, and rebuild all firing across the
    // seed population.
    let mut opens = 0u64;
    let mut hedges = 0u64;
    let mut relocs = 0u64;
    for seed in 600..650u64 {
        let plan = random_plan(seed);
        if plan.blocks.is_empty() {
            continue;
        }
        let a = run_defended_gray(&plan, seed);
        let b = run_defended_gray(&plan, seed);
        assert_eq!(a.1, b.1, "seed {seed}: makespan diverged across runs");
        assert_eq!(a.2, b.2, "seed {seed}: clocks diverged across runs");
        assert_eq!(a.0, b.0, "seed {seed}: file bytes diverged across runs");
        assert_eq!(a.3, b.3, "seed {seed}: defense counters diverged");
        assert_eq!(
            a.3.relocated_live, 0,
            "seed {seed}: rebuild did not converge: {:?}",
            a.3
        );
        opens += a.3.breaker_opens;
        hedges += a.3.hedges_issued;
        relocs += a.3.degraded_writes;
    }
    // The property is vacuous if the plans never provoke the defenses.
    assert!(opens > 0, "no breaker ever opened across 50 seeds");
    assert!(relocs > 0, "no write was ever relocated across 50 seeds");
    let _ = hedges; // hedging is exercised separately; tiny plans may not fire it
}

/// ROADMAP 2b, the text half of the mutate-and-decode loop (the binary
/// codecs are fuzzed inside `mpiio`): every committed fault plan and every
/// committed bench document is corrupted — truncated, spliced with
/// structural characters, digits swapped for huge exponents — and parsed.
/// The parsers return a typed error or a value, never panic, and what
/// they build is bounded by the input: a plan has at most one fault per
/// line, a document at most one leaf per byte.
#[test]
fn text_parsers_are_total_on_mutated_inputs() {
    const SPLICE: &[&str] = &[
        "[[", "]]", "[", "{", "\"", "\\u", "=", ",", "1e999", "-", "\n", "é",
    ];
    fn mutate(seed: &str, rng: &mut StdRng) -> String {
        let mut m: Vec<char> = seed.chars().collect();
        for _ in 0..pick(rng, 1, 4) {
            let at = pick(rng, 0, m.len() as u64 + 1) as usize;
            match pick(rng, 0, 3) {
                0 => m.truncate(at),
                1 => {
                    let piece = SPLICE[pick(rng, 0, SPLICE.len() as u64) as usize];
                    m.splice(at..at, piece.chars());
                }
                _ if at < m.len() => drop(m.remove(at)),
                _ => {}
            }
        }
        m.into_iter().collect()
    }
    fn committed(dir: &str, ext: &str) -> Vec<String> {
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(dir);
        let files = std::fs::read_dir(&dir).expect("committed directory");
        let paths = files.map(|f| f.expect("dir entry").path());
        let texts = paths.filter(|p| p.extension().is_some_and(|e| e == ext));
        texts
            .map(|p| std::fs::read_to_string(p).expect("readable"))
            .collect()
    }
    let mut rng = StdRng::seed_from_u64(0x2b);
    let plans = committed("plans", "toml");
    assert!(plans.len() >= 11, "one plan per fault family");
    for seed in &plans {
        chaos::FaultPlan::parse(seed).expect("committed plans parse");
        for _ in 0..300 {
            let m = mutate(seed, &mut rng);
            if let Ok(plan) = chaos::FaultPlan::parse(&m) {
                assert!(plan.faults.len() <= m.lines().count(), "{m}");
            }
        }
    }
    // A document's skeleton has every construct the full grid repeats:
    // keep the first element of each array and six keys of each object.
    fn skeleton(j: &bench::Json) -> bench::Json {
        use bench::Json::{Arr, Obj};
        match j {
            Arr(items) => Arr(items.iter().take(1).map(skeleton).collect()),
            Obj(pairs) => {
                let kept = pairs.iter().take(6);
                Obj(kept.map(|(k, v)| (k.clone(), skeleton(v))).collect())
            }
            leaf => leaf.clone(),
        }
    }
    let docs = committed("bench_results", "json");
    assert_eq!(docs.len(), 5, "the five gated baselines");
    let mut survived = 0;
    for text in &docs {
        let seed = skeleton(&bench::Json::parse(text).expect("committed documents parse"));
        for _ in 0..300 {
            let m = mutate(&seed.render(), &mut rng);
            if let Ok(doc) = bench::Json::parse(&m) {
                survived += 1;
                assert!(doc.leaves().len() <= m.len(), "{m}");
                assert_eq!(bench::Json::parse(&doc.render()), Ok(doc));
            }
        }
    }
    assert!(
        survived > 50,
        "mutations that still parse exercise the value path"
    );
}
