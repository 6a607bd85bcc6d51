//! Layer cells: timed calls into each layer's public functions, one
//! number per cell. Every case of `crates/bench/benches/micro.rs` is here
//! under its layer's name, next to the cells only this benchmark has
//! (fiber spawn and switch, p2p, alltoallv, RMA epochs, PFS reads, TCIO
//! calls, the array generator and the two host normalisers).
//!
//! A cell runs one warm-up batch and then [`BATCHES`] timed batches of a
//! stated number of operations; its value is the median batch. The
//! calibration cell runs first in every process of the benchmark and is
//! what `setup_s` mostly times: the speed probe, then a ping-pong through
//! the event core.

use crate::host::{HostSample, Summary};
use mpisim::SimConfig;
use std::hint::black_box;
use std::time::Instant;

/// Timed batches per cell.
pub const BATCHES: usize = 5;

/// One cell's result: per-batch values reduced to median, min, max and n,
/// with the number of operations one batch performed.
#[derive(Debug, Clone)]
pub struct Cell {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: Summary,
    pub ops: u64,
}

fn secs(f: impl FnOnce()) -> f64 {
    let t0 = Instant::now();
    f();
    t0.elapsed().as_secs_f64()
}

#[derive(Default)]
pub struct Cells(pub Vec<Cell>);

impl Cells {
    /// One warm-up batch, then [`BATCHES`] timed ones. `batch` performs
    /// `ops` operations and returns the cell's value for that batch, in
    /// `unit`.
    fn cell(
        &mut self,
        name: &'static str,
        unit: &'static str,
        ops: u64,
        mut batch: impl FnMut() -> f64,
    ) -> Summary {
        batch();
        let values: Vec<f64> = (0..BATCHES).map(|_| batch()).collect();
        let value = Summary::of(&values);
        self.0.push(Cell {
            name,
            unit,
            value,
            ops,
        });
        value
    }

    /// `batch` returns the seconds its `ops` operations took.
    fn ns_per_op(
        &mut self,
        name: &'static str,
        ops: u64,
        mut batch: impl FnMut() -> f64,
    ) -> Summary {
        self.cell(name, "ns", ops, || batch() * 1.0e9 / ops as f64)
    }

    /// `batch` returns the seconds it took to move `bytes` bytes.
    fn gb_per_s(&mut self, name: &'static str, bytes: u64, mut batch: impl FnMut() -> f64) {
        self.cell(name, "GB/s", bytes, || bytes as f64 / 1.0e9 / batch());
    }
}

/// The host-only half of the calibration cell: 2 GiB of memcpy through
/// two 8 MiB buffers (twice the L2, so small enough to leave
/// `peak_rss_mb` to the workload). It calls nothing under `crates/`, so no
/// change there can move it: its time says how fast the machine is in the
/// seconds a rep runs, and the host-time metrics are scaled by it.
///
/// The owner keeps the buffers until the process has taken its last
/// reading: freeing one makes glibc raise its mmap threshold, and the
/// measured region would then run under a different allocator policy than
/// a user's run does.
pub struct SpeedProbe {
    src: Vec<u8>,
    dst: Vec<u8>,
}

const PROBE_BUF: usize = 8 << 20;
const PROBE_COPIES: usize = 256;
const CALIB_ROUND_TRIPS: u64 = 25_000;

impl SpeedProbe {
    pub fn new() -> SpeedProbe {
        SpeedProbe {
            src: vec![1u8; PROBE_BUF],
            dst: vec![0u8; PROBE_BUF],
        }
    }

    /// Seconds the fixed copies take now.
    pub fn run(&mut self) -> f64 {
        secs(|| {
            for _ in 0..PROBE_COPIES {
                self.dst.copy_from_slice(black_box(&self.src));
                black_box(&mut self.dst);
            }
        })
    }
}

/// The other half of the calibration cell: 50 k messages of two-rank
/// ping-pong through the event core. It is kept to a quarter of the
/// cell's time: from one process to the next it varies by ±20 %, twice as
/// much as the copy.
pub fn calibration_ping_pong() {
    ping_pong(CALIB_ROUND_TRIPS);
}

/// Two ranks bounce an 8-byte message `round_trips` times; returns the
/// seconds rank 0 spent in the loop.
fn ping_pong(round_trips: u64) -> f64 {
    let rep = mpisim::run(2, SimConfig::default(), |rk| {
        let peer = 1 - rk.rank();
        let t0 = Instant::now();
        for i in 0..round_trips {
            if rk.rank() == 0 {
                rk.send(peer, i, &[0u8; 8])?;
                rk.recv(Some(peer), Some(i))?;
            } else {
                rk.recv(Some(peer), Some(i))?;
                rk.send(peer, i, &[0u8; 8])?;
            }
        }
        Ok(t0.elapsed().as_secs_f64())
    })
    .expect("ping-pong run");
    rep.results[0]
}

/// Run every layer cell.
pub fn run_all() -> Vec<Cell> {
    let mut c = Cells::default();
    host(&mut c);
    mpisim_sched(&mut c);
    mpisim_comm(&mut c);
    mpisim_model(&mut c);
    pfs_cells(&mut c);
    mpiio_cells(&mut c);
    tcio_cells(&mut c);
    workload_cells(&mut c);
    c.0
}

fn host(c: &mut Cells) {
    // 256 MiB: the last-level cache of this class of machine is 260 MiB
    // shared by the whole host, of which a two-core guest sees a sliver.
    const N: usize = 256 << 20;
    {
        let src = vec![1u8; N];
        let mut dst = vec![0u8; N];
        c.gb_per_s("host.memcpy_gbs", N as u64, || {
            secs(|| {
                dst.copy_from_slice(black_box(&src));
                black_box(&mut dst);
            })
        });
    }
    // First touch of a fresh 256 MiB mapping, per minor fault taken.
    c.cell("host.page_fault_ns", "ns", (N / 4096) as u64, || {
        let mut buf = vec![0u8; N];
        let before = HostSample::now();
        let t = secs(|| {
            for page in buf.chunks_mut(4096) {
                page[0] = 1;
            }
            black_box(&mut buf);
        });
        let faults = HostSample::now().since(&before).minflt.max(1);
        t * 1.0e9 / faults as f64
    });
}

const SCHED_RANKS: usize = 2048;
const STORM_ROUNDS: usize = 10;

fn mpisim_sched(c: &mut Cells) {
    let spawn_only = || {
        mpisim::run(SCHED_RANKS, SimConfig::default(), |_| Ok(())).expect("spawn run");
    };
    let spawn = c.ns_per_op("mpisim.spawn_ns_per_rank", SCHED_RANKS as u64, || {
        secs(spawn_only)
    });
    c.cell(
        "mpisim.spawn_minflt_per_rank",
        "count",
        SCHED_RANKS as u64,
        || {
            let before = HostSample::now();
            spawn_only();
            HostSample::now().since(&before).minflt as f64 / SCHED_RANKS as f64
        },
    );
    // Ring sendrecv plus a barrier per round: every operation blocks, so
    // what is left after the spawn cost is park, wake and switch.
    let spawn_s = spawn.median * 1.0e-9 * SCHED_RANKS as f64;
    let ops = (SCHED_RANKS * STORM_ROUNDS) as u64;
    c.cell("mpisim.switch_ns", "ns", ops, || {
        let storm_s = secs(|| {
            mpisim::run(SCHED_RANKS, SimConfig::default(), |rk| {
                for r in 0..STORM_ROUNDS as u64 {
                    let to = (rk.rank() + 1) % rk.nprocs();
                    let from = (rk.rank() + rk.nprocs() - 1) % rk.nprocs();
                    rk.send(to, r, &[0u8; 8])?;
                    rk.recv(Some(from), Some(r))?;
                    rk.barrier()?;
                }
                Ok(())
            })
            .expect("storm run");
        });
        (storm_s - spawn_s) * 1.0e9 / ops as f64
    });
}

fn mpisim_comm(c: &mut Cells) {
    const ROUND_TRIPS: u64 = 20_000;
    c.ns_per_op("mpisim.p2p_msg_ns", 2 * ROUND_TRIPS, || {
        ping_pong(ROUND_TRIPS)
    });

    const A2A_RANKS: usize = 256;
    c.ns_per_op(
        "mpisim.alltoallv_pair_ns",
        (A2A_RANKS * A2A_RANKS) as u64,
        || {
            mpisim::run(A2A_RANKS, SimConfig::default(), |rk| {
                let data = vec![vec![0u8; 64]; rk.nprocs()];
                rk.barrier()?;
                let t0 = Instant::now();
                black_box(rk.alltoallv(data)?);
                rk.barrier()?;
                Ok(t0.elapsed().as_secs_f64())
            })
            .expect("alltoallv run")
            .results[0]
        },
    );

    const RMA_RANKS: usize = 16;
    const EPOCHS: u64 = 2_000;
    c.ns_per_op("mpisim.rma_epoch_ns", RMA_RANKS as u64 * EPOCHS, || {
        mpisim::run(RMA_RANKS, SimConfig::default(), |rk| {
            let win = rk.win_create(4096)?;
            let target = (rk.rank() + 1) % rk.nprocs();
            rk.barrier()?;
            let t0 = Instant::now();
            for i in 0..EPOCHS as usize {
                let mut ep = rk.win_lock(&win, target, mpisim::LockKind::Exclusive)?;
                ep.put((i % 64) * 64, &[7u8; 64])?;
                rk.win_unlock(ep)?;
            }
            rk.barrier()?;
            Ok(t0.elapsed().as_secs_f64())
        })
        .expect("rma run")
        .results[0]
    });
}

fn mpisim_model(c: &mut Cells) {
    use mpisim::timeline::Timeline;
    use mpisim::{Datatype, Named};
    const REPEAT: u64 = 20;
    c.ns_per_op("mpisim.timeline_reserve_ns", REPEAT * 1024, || {
        secs(|| {
            for _ in 0..REPEAT {
                let mut t = Timeline::new();
                for _ in 0..1024 {
                    t.reserve(0.0, 1.0e-6);
                }
                black_box(t.segments());
            }
        })
    });
    // Scattered bookings, then reservations that must find a gap between
    // them; only the second half is counted.
    c.ns_per_op("mpisim.timeline_backfill_ns", REPEAT * 1024, || {
        let mut total = 0.0;
        for _ in 0..REPEAT {
            let mut t = Timeline::new();
            for i in 0..1024 {
                t.reserve(i as f64 * 1.0e-3, 1.0e-6);
            }
            total += secs(|| {
                for i in 0..1024 {
                    black_box(t.reserve((i % 7) as f64 * 1.0e-4, 5.0e-7));
                }
            });
        }
        total
    });

    let etype = Datatype::contiguous(12, Datatype::named(Named::Byte));
    c.ns_per_op("mpisim.datatype_commit_ns", 200, || {
        secs(|| {
            for _ in 0..200 {
                black_box(Datatype::vector(1024, 1, 64, etype.clone()).commit());
            }
        })
    });
    let lens: Vec<usize> = (0..256).map(|i| 1 + i % 7).collect();
    let displs: Vec<isize> = (0..256).map(|i| i * 16).collect();
    c.ns_per_op("mpisim.datatype_commit_indexed_ns", 500, || {
        secs(|| {
            for _ in 0..500 {
                let t =
                    Datatype::indexed(lens.clone(), displs.clone(), Datatype::named(Named::Byte));
                black_box(t.expect("valid indexed type").commit());
            }
        })
    });
    let t = Datatype::vector(1024, 1, 2, Datatype::named(Named::Int)).commit();
    let src = vec![7u8; t.extent()];
    c.ns_per_op("mpisim.datatype_pack_ns", 2_000, || {
        secs(|| {
            for _ in 0..2_000 {
                black_box(t.pack(&src, 1).expect("pack"));
            }
        })
    });
}

fn pfs_cells(c: &mut Cells) {
    use pfs::{HealthConfig, LockManager, LockMode, Pfs, PfsConfig};
    const SMALL_OPS: u64 = 50_000;
    let small = |fs: &Pfs, id, write: bool, hedged: bool| {
        let mut t = 0.0;
        let mut off = 0u64;
        let mut buf = [0u8; 64];
        secs(|| {
            for _ in 0..SMALL_OPS {
                off = (off + 64) % (1 << 16);
                t = if write {
                    fs.write_at(id, 0, off, &buf, t)
                } else if hedged {
                    fs.read_at_hedged(id, 0, off, &mut buf, t)
                } else {
                    fs.read_at(id, 0, off, &mut buf, t)
                }
                .expect("small request");
            }
            black_box(t);
        })
    };
    {
        let fs = Pfs::new(1, PfsConfig::default()).expect("pfs config");
        let id = fs.create("/small").expect("create");
        fs.write_at(id, 0, 0, &vec![0u8; (1 << 16) + 64], 0.0)
            .expect("fill");
        c.ns_per_op("pfs.write_small_ns", SMALL_OPS, || {
            small(&fs, id, true, false)
        });
        c.ns_per_op("pfs.read_small_ns", SMALL_OPS, || {
            small(&fs, id, false, false)
        });
    }
    {
        // Same reads with the health layer attached and every OST healthy:
        // the cost of the defense when there is nothing to defend against.
        let fs = Pfs::new(1, PfsConfig::default()).expect("pfs config");
        fs.enable_health(HealthConfig::default())
            .expect("health config");
        let id = fs.create("/small").expect("create");
        fs.write_at(id, 0, 0, &vec![0u8; (1 << 16) + 64], 0.0)
            .expect("fill");
        c.ns_per_op("pfs.health.hedged_read_ns", SMALL_OPS, || {
            small(&fs, id, false, true)
        });
    }
    {
        const MB: usize = 1 << 20;
        const WRITES: u64 = 64;
        let fs = Pfs::new(1, PfsConfig::default()).expect("pfs config");
        let id = fs.create("/striped").expect("create");
        let mut data = vec![0u8; MB];
        let mut t = 0.0;
        c.gb_per_s("pfs.write_1mb_gbs", WRITES * MB as u64, || {
            secs(|| {
                for _ in 0..WRITES {
                    t = fs.write_at(id, 0, 0, &data, t).expect("1 MiB write");
                }
            })
        });
        c.gb_per_s("pfs.read_1mb_gbs", WRITES * MB as u64, || {
            secs(|| {
                for _ in 0..WRITES {
                    t = fs.read_at(id, 0, 0, &mut data, t).expect("1 MiB read");
                }
            })
        });
    }
    const ACQUIRES: u64 = 100 * 1024;
    c.ns_per_op("pfs.lock_acquire_ns", ACQUIRES, || {
        secs(|| {
            for _ in 0..100 {
                let mut lm = LockManager::new();
                for i in 0..1024u64 {
                    black_box(lm.acquire(1, i % 8, (i % 3) as usize, LockMode::Write));
                }
            }
        })
    });
}

fn mpiio_cells(c: &mut Cells) {
    use mpiio::{ExtentSet, FileView, SieveConfig};
    use mpisim::{Datatype, Named};
    c.ns_per_op("mpiio.extent_insert_ns", 50 * 1024, || {
        secs(|| {
            for _ in 0..50 {
                let mut s = ExtentSet::new();
                for i in 0..1024u64 {
                    s.insert(i * 16, 16);
                }
                black_box(s);
            }
        })
    });
    c.ns_per_op("mpiio.extent_merge_ns", 50 * 1024, || {
        secs(|| {
            for _ in 0..50 {
                let mut s = ExtentSet::new();
                for i in 0..512u64 {
                    s.insert(i * 32, 8);
                }
                for i in 0..512u64 {
                    s.insert(i * 32 + 8, 24);
                }
                black_box(s.len());
            }
        })
    });
    let etype = Datatype::contiguous(12, Datatype::named(Named::Byte)).commit();
    let ftype = Datatype::vector(4096, 1, 64, etype.datatype().clone()).commit();
    let view = FileView::new(0, &etype, &ftype).expect("view");
    c.ns_per_op("mpiio.view_map_range_ns", 10_000, || {
        let mut pos = 0u64;
        secs(|| {
            for _ in 0..10_000 {
                pos = (pos + 12 * 64) % (12 * 4096 - 12 * 64);
                black_box(view.map_range(pos, 12 * 64));
            }
        })
    });
    let extents: Vec<(u64, u64)> = (0..256).map(|i| (i * 32, 16)).collect();
    let cfg = SieveConfig::default();
    c.ns_per_op("mpiio.sieve_decision_ns", 100_000, || {
        secs(|| {
            for _ in 0..100_000 {
                black_box(cfg.should_sieve(black_box(&extents)));
            }
        })
    });
}

fn tcio_cells(c: &mut Cells) {
    use pfs::{Pfs, PfsConfig};
    use tcio::{SegmentMap, TcioConfig, TcioFile, TcioMode};
    let map = SegmentMap::new(1 << 20, 1024);
    c.ns_per_op("tcio.locate_ns", 1_000_000, || {
        let mut off = 0u64;
        secs(|| {
            for _ in 0..1_000_000 {
                off = off.wrapping_add(0x9E37_79B9) & ((1 << 40) - 1);
                black_box(map.locate(off));
            }
        })
    });

    // One rank, one file, sequential 8-byte calls: the per-call cost of
    // the POSIX-like interface with level-1 combining doing its job.
    const CALLS: u64 = 100_000;
    let fs = Pfs::new(1, PfsConfig::default()).expect("pfs config");
    let call_loop = |mode: TcioMode| {
        mpisim::run(1, SimConfig::default(), |rk| {
            let tcfg = TcioConfig::for_file_size(8 * CALLS, 1);
            let mut buf = vec![0u8; 8 * CALLS as usize];
            let timed = || -> tcio::Result<f64> {
                let mut f = TcioFile::open(rk, &fs, "/calls", mode, tcfg)?;
                let t0 = Instant::now();
                if mode == TcioMode::Write {
                    for i in 0..CALLS {
                        f.write_at(rk, 8 * i, &i.to_le_bytes())?;
                    }
                } else {
                    for (i, piece) in buf.chunks_mut(8).enumerate() {
                        f.read_at(rk, 8 * i as u64, piece)?;
                    }
                    f.fetch(rk)?;
                }
                let t = t0.elapsed().as_secs_f64();
                f.close(rk)?;
                Ok(t)
            };
            timed().map_err(|e| workloads::WlError::from(e).into_mpi())
        })
        .expect("tcio call run")
        .results[0]
    };
    c.ns_per_op("tcio.write_call_ns", CALLS, || call_loop(TcioMode::Write));
    c.ns_per_op("tcio.read_call_ns", CALLS, || call_loop(TcioMode::Read));
}

fn workload_cells(c: &mut Cells) {
    use workloads::art::{FttConfig, FttTree};
    use workloads::synthetic::{gen_arrays, SynthParams};
    use workloads::Normal;
    let cfg = FttConfig::default();
    let mut id = 0u64;
    c.ns_per_op("workloads.ftt_generate_ns", 2_000, || {
        secs(|| {
            for _ in 0..2_000 {
                id += 1;
                black_box(FttTree::generate(id, &cfg));
            }
        })
    });
    let tree = FttTree::generate(42, &cfg);
    c.ns_per_op("workloads.ftt_record_ns", 2_000, || {
        secs(|| {
            for _ in 0..2_000 {
                black_box(tree.record(2));
            }
        })
    });
    c.ns_per_op("workloads.normal_lengths_ns", 200, || {
        secs(|| {
            for _ in 0..200 {
                black_box(Normal::new(2048.0, 128.0, 5).sample_lengths(1024));
            }
        })
    });
    let p = SynthParams::with_types("i,d", 1 << 20, 1).expect("valid parameters");
    c.gb_per_s("workloads.gen_arrays_gbs", p.bytes_per_rank(), || {
        mpisim::run(1, SimConfig::default(), |rk| {
            let t0 = Instant::now();
            black_box(gen_arrays(rk, &p).map_err(workloads::WlError::into_mpi)?);
            Ok(t0.elapsed().as_secs_f64())
        })
        .expect("gen_arrays run")
        .results[0]
    });
}
