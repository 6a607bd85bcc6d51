//! The two-phase round engine behind `write_all_at` and `read_all_at`.
//!
//! ROMIO's two-phase algorithm (§III.A): agree on the aggregate file
//! domain, split it across aggregators, and per round — one `cb_buffer`
//! window per aggregator — exchange per-destination offset–length lists,
//! assemble the window in a memory-accounted collective buffer and move its
//! extent runs to or from the file system through the [`client`] door.
//! `write_rounds` and `read_rounds` own that loop, including the depth-2
//! deferred completions of `CollectiveConfig::pipeline`. The caller hands
//! in only the closure that encodes this rank's share of a window, which
//! `FileView::stream_interval` makes one slice of the caller's buffer; the
//! aggregator decodes it with [`crate::collective`]'s list codec.

use crate::client::{self, Direction};
use crate::collective::{decode_requests, place_pieces, CollectiveConfig};
use crate::error::{IoError, Result};
use crate::extents::Cover;
use crate::file::File;
use crate::reqagg::{self, ReadSession};
use mpisim::{Comm, DeferredIo, MemGuard, Rank, ReduceOp};
use std::collections::VecDeque;

/// The data-exchange strategy, resolved once per collective.
#[derive(Clone, Copy, PartialEq)]
enum Exchange {
    /// The flat all-to-all burst.
    Flat,
    /// Node leaders decode and merge the lists — see [`crate::reqagg`].
    ReqAgg,
}

impl Exchange {
    /// `req_agg` over a topology; without one there are no node leaders
    /// and the knob falls back to the flat burst.
    fn resolve(rank: &Rank, cfg: &CollectiveConfig) -> Exchange {
        if cfg.req_agg && rank.topology().is_some() {
            Exchange::ReqAgg
        } else {
            Exchange::Flat
        }
    }
}

/// The span a window's file-system I/O is named by.
fn io_span(direction: Direction, pipelined: bool) -> &'static str {
    match (direction, pipelined) {
        (Direction::Write, false) => "ocio_io",
        (Direction::Write, true) => "ocio_io_pipe",
        (Direction::Read, false) => "ocio_read",
        (Direction::Read, true) => "ocio_read_pipe",
    }
}

/// What one collective call agreed on: the file-domain geometry, who
/// aggregates, how payloads travel and how completions reach the clock.
pub(crate) struct Plan {
    world: Comm,
    exch: Exchange,
    gmin: u64,
    gmax: u64,
    dsize: u64,
    round_size: u64,
    pub(crate) rounds: u64,
    /// The world rank serving each aggregator index.
    pub(crate) agg_ranks: Vec<usize>,
    /// The aggregator index this rank serves, if any.
    my_agg: Option<usize>,
    /// Whether this call pipelines its rounds.
    pipelined: bool,
    /// The span a window's I/O is submitted under.
    io_span: &'static str,
}

impl Plan {
    /// Agree on the aggregate domain — the union of everyone's `hull`, the
    /// file range `[start, end)` its request spans — and split it across
    /// aggregators. `None` — after the closing barrier — when nobody has
    /// anything to move.
    pub(crate) fn agree(
        rank: &mut Rank,
        cfg: &CollectiveConfig,
        direction: Direction,
        hull: Option<(u64, u64)>,
    ) -> Result<Option<Plan>> {
        let exch = Exchange::resolve(rank, cfg);
        let world = rank.world();
        let (local_min, local_max) = hull.unwrap_or((u64::MAX, 0));
        let gmin = rank.allreduce_u64_in(&world, local_min, ReduceOp::Min)?;
        let gmax = rank.allreduce_u64_in(&world, local_max, ReduceOp::Max)?;
        if gmin >= gmax {
            rank.barrier()?;
            return Ok(None);
        }
        let n = rank.nprocs();
        let naggs = cfg.cb_nodes.unwrap_or(n).clamp(1, n);
        let mut agg_ranks: Vec<usize> = match rank.topology() {
            // Node-aware placement: interleave nodes so the first
            // `num_nodes` aggregators land one per node — aggregator NICs
            // are the bottleneck of the I/O phase, so doubling up on a node
            // before every node has one wastes links.
            Some(topo) => {
                let mut order = topo.interleaved_order();
                order.truncate(naggs);
                order
            }
            // Topology-blind: the classic evenly-spread ROMIO mapping.
            None => (0..naggs).map(|i| i * n / naggs).collect(),
        };
        // Graceful degradation: drop aggregators with a stall window still
        // ahead or a crash-stop coming — an aggregator that dies mid-drain
        // takes every rank's staged data with it. The allreduces above are
        // symmetric, so all ranks get here with *identical* clocks and the
        // pure-function stall/crash queries yield the same shrunk set
        // everywhere without extra communication. If every candidate is a
        // straggler, keep the original set (someone has to do the I/O).
        if let Some(engine) = rank.chaos() {
            let t = rank.now();
            let healthy = |&r: &usize| !engine.stall_ahead(r, t) && !engine.crash_ahead(r);
            let shrunk: Vec<usize> = agg_ranks.iter().copied().filter(healthy).collect();
            if !shrunk.is_empty() {
                agg_ranks = shrunk;
            }
        }
        let mut dsize = (gmax - gmin).div_ceil(agg_ranks.len() as u64);
        if let Some(a) = cfg.align.filter(|&a| a > 0) {
            dsize = dsize.div_ceil(a) * a;
        }
        let round_size = cfg.cb_buffer.unwrap_or(dsize).max(1).min(dsize);
        Ok(Some(Plan {
            world,
            exch,
            gmin,
            gmax,
            dsize,
            round_size,
            rounds: dsize.div_ceil(round_size),
            my_agg: agg_ranks.iter().position(|&r| r == rank.rank()),
            agg_ranks,
            pipelined: cfg.pipeline,
            io_span: io_span(direction, cfg.pipeline),
        }))
    }

    /// Aggregator i's window `[start, end)` for round r (empty once the
    /// round runs past the end of its domain).
    fn window(&self, i: usize, r: u64) -> (u64, u64) {
        let ds = (self.gmin + i as u64 * self.dsize).min(self.gmax);
        let de = (ds + self.dsize).min(self.gmax);
        let ws = ds + r * self.round_size;
        (ws.min(de), (ws + self.round_size).min(de))
    }

    /// `(aggregator rank, window)` for every non-empty window of round r.
    pub(crate) fn windows(&self, r: u64) -> impl Iterator<Item = (usize, u64, u64)> + '_ {
        let non_empty = move |(i, &a): (usize, &usize)| {
            let (ws, we) = self.window(i, r);
            (ws < we).then_some((a, ws, we))
        };
        self.agg_ranks.iter().enumerate().filter_map(non_empty)
    }

    /// This rank's window in round r, when it aggregates a non-empty one.
    fn my_window(&self, r: u64) -> Option<(u64, u64)> {
        let w = self.window(self.my_agg?, r);
        (w.0 < w.1).then_some(w)
    }

    /// The flat all-to-all burst over the world.
    fn burst(&self, rank: &mut Rank, data: Vec<Vec<u8>>) -> Result<Vec<Vec<u8>>> {
        Ok(rank.alltoallv_burst_in(&self.world, data)?)
    }
}

/// Pipeline depth of the write round loop: double buffering, matching the
/// two collective buffers an aggregator holds in flight.
const PIPELINE_DEPTH: usize = 2;

/// Deferred completions of in-flight rounds, oldest first — the pipelined
/// alternative to [`client::settle`]: handles land through
/// [`Rank::io_complete`], which credits the service time hidden behind
/// other work. A collective buffer's memory guard rides along with its
/// handle, so the buffer stays charged against the rank's budget until its
/// round is settled.
#[derive(Default)]
struct DeferredQueue(VecDeque<(DeferredIo, MemGuard)>);

impl DeferredQueue {
    /// Double buffering: settle the oldest handles until one more fits
    /// within the pipeline depth. Call before opening the next round.
    fn make_room(&mut self, rank: &mut Rank) {
        while self.0.len() >= PIPELINE_DEPTH {
            let Some((io, _guard)) = self.0.pop_front() else {
                break;
            };
            rank.io_complete(io);
        }
    }

    /// Keep a submitted I/O's completion outstanding. The storage layer
    /// applied the bytes at submission; only the clock sync is deferred.
    fn push(&mut self, io: DeferredIo, guard: MemGuard) {
        self.0.push_back((io, guard));
    }

    /// Settle everything. Call before the closing barrier so the rank's
    /// clock covers its own I/O completions.
    fn drain(&mut self, rank: &mut Rank) {
        for (io, _guard) in self.0.drain(..) {
            rank.io_complete(io);
        }
    }
}

/// The collective write loop. `build(ws, we)` encodes this rank's piece
/// list for the aggregator owning window `[ws, we)` (empty = nothing to
/// send); the aggregator places each incoming list with
/// [`place_pieces`], which refuses an extent outside the window before a
/// byte moves.
pub(crate) fn write_rounds(
    rank: &mut Rank,
    file: &File,
    cfg: &CollectiveConfig,
    hull: Option<(u64, u64)>,
    mut build: impl FnMut(u64, u64) -> Result<Vec<u8>>,
) -> Result<()> {
    if !file.mode().writable() {
        return Err(IoError::Usage("file is not open for writing".into()));
    }
    let Some(plan) = Plan::agree(rank, cfg, Direction::Write, hull)? else {
        return Ok(());
    };
    let (pfs, fid) = (file.pfs(), file.file_id());
    let mut inflight = DeferredQueue::default();
    for r in 0..plan.rounds {
        inflight.make_room(rank);
        let mut payloads: Vec<Vec<u8>> = vec![Vec::new(); rank.nprocs()];
        for (a, ws, we) in plan.windows(r) {
            payloads[a] = build(ws, we)?;
        }
        // Data exchange phase.
        let exchanged = match plan.exch {
            Exchange::ReqAgg => {
                let windows: Vec<_> = plan.windows(r).collect();
                reqagg::exchange_pieces(rank, &plan.agg_ranks, &windows, payloads)?
            }
            Exchange::Flat => plan.burst(rank, payloads)?,
        };
        // I/O phase (aggregators only): assemble the window in the
        // collective buffer, then write only the runs that were touched.
        let Some((ws, we)) = plan.my_window(r) else {
            continue;
        };
        let cb = rank.alloc(we - ws)?;
        let mut buf = vec![0u8; (we - ws) as usize];
        let mut dirty = Cover::new(ws, we);
        for payload in exchanged.iter().filter(|p| !p.is_empty()) {
            place_pieces(rank, payload, ws, &mut buf, &mut dirty)?;
        }
        let runs = dirty.runs();
        let write = |rk: &mut Rank, off, len: u64, _| {
            let at = (off - ws) as usize;
            pfs.write_at(fid, rk.rank(), off, &buf[at..at + len as usize], rk.now())
        };
        let io = client::submit(rank, Direction::Write, Some(plan.io_span), runs, write)?;
        if plan.pipelined {
            // Round r+1's exchange overlaps the OST service.
            inflight.push(io, cb);
        } else {
            drop(cb);
            client::settle(rank, io);
        }
    }
    inflight.drain(rank);
    Ok(rank.barrier()?)
}

/// One round's request phase: the incoming requests, the request-aggregation
/// session to answer through, and per asked aggregator the `(buf_cursor,
/// len)` slot of the caller's buffer its reply fills.
type Asked = (
    Vec<Vec<u8>>,
    Option<ReadSession>,
    Vec<(usize, (usize, usize))>,
);

/// An aggregator's submitted window read.
struct WindowRead {
    ws: u64,
    wbuf: Vec<u8>,
    /// The bytes each source asked for: its reply's length.
    totals: Vec<u64>,
    io: DeferredIo,
    _cb: MemGuard,
}

/// Read the union of what the sources asked of window `[ws, we)`, summing
/// each source's total on the way. Every extent asked is checked against
/// the window here, before the read and the reply gather index the window
/// buffer with it.
fn read_window(
    rank: &mut Rank,
    plan: &Plan,
    file: &File,
    (ws, we): (u64, u64),
    incoming: &[Vec<u8>],
) -> Result<Option<WindowRead>> {
    let mut wanted = Cover::new(ws, we);
    let mut totals = vec![0; incoming.len()];
    for (src, payload) in incoming.iter().enumerate() {
        for (o, l) in decode_requests(payload)? {
            wanted.insert(o, l)?;
            totals[src] += l;
        }
    }
    if wanted.runs().next().is_none() {
        return Ok(None);
    }
    let cb = rank.alloc(we - ws)?;
    let mut wbuf = vec![0u8; (we - ws) as usize];
    let (pfs, fid) = (file.pfs(), file.file_id());
    pfs.hedge_scope_begin(rank.rank());
    let runs = wanted.runs();
    let read = |rk: &mut Rank, off, len: u64, _| {
        let dst = &mut wbuf[(off - ws) as usize..][..len as usize];
        pfs.read_at_hedged(fid, rk.rank(), off, dst, rk.now())
    };
    let io = client::submit(rank, Direction::Read, Some(plan.io_span), runs, read)?;
    Ok(Some(WindowRead {
        ws,
        wbuf,
        totals,
        io,
        _cb: cb,
    }))
}

/// The collective read loop. `request(ws, we)` encodes the request list of
/// what this rank needs from window `[ws, we)` plus the one `(buf_cursor,
/// len)` slot of `buf` the reply will fill — views are monotone, so a
/// window's share of a request is contiguous in the stream (`None` =
/// nothing).
///
/// Serialized, a round is request exchange → window read → reply
/// exchange. Pipelined, the aggregator leaves the read's completion
/// outstanding, runs round r+1's *request* exchange while the OSTs
/// service it, and only then settles the read and answers round r.
pub(crate) fn read_rounds(
    rank: &mut Rank,
    file: &File,
    cfg: &CollectiveConfig,
    hull: Option<(u64, u64)>,
    buf: &mut [u8],
    mut request: impl FnMut(u64, u64) -> Result<Option<(Vec<u8>, (usize, usize))>>,
) -> Result<()> {
    if !file.mode().readable() {
        return Err(IoError::Usage("file is not open for reading".into()));
    }
    let Some(plan) = Plan::agree(rank, cfg, Direction::Read, hull)? else {
        return Ok(());
    };
    let mut ask = |rank: &mut Rank, r: u64| -> Result<Asked> {
        let mut requests: Vec<Vec<u8>> = vec![Vec::new(); rank.nprocs()];
        let mut fills = Vec::new();
        for (a, ws, we) in plan.windows(r) {
            if let Some((msg, slot)) = request(ws, we)? {
                requests[a] = msg;
                fills.push((a, slot));
            }
        }
        let (incoming, session) = match plan.exch {
            Exchange::ReqAgg => {
                let windows: Vec<_> = plan.windows(r).collect();
                let (inc, s) =
                    reqagg::exchange_requests(rank, &plan.agg_ranks, &windows, requests)?;
                (inc, Some(s))
            }
            Exchange::Flat => (plan.burst(rank, requests)?, None),
        };
        Ok((incoming, session, fills))
    };
    let mut prefetched: Option<Asked> = None;
    for r in 0..plan.rounds {
        let (incoming, session, fills) = match prefetched.take() {
            Some(asked) => asked,
            None => ask(rank, r)?,
        };
        let window = match plan.my_window(r) {
            Some(w) => read_window(rank, &plan, file, w, &incoming)?,
            None => None,
        };
        if plan.pipelined && r + 1 < plan.rounds {
            prefetched = Some(ask(rank, r + 1)?);
        }
        // Settle the read, then slice each source's extents out of the
        // window buffer in the order it asked for them, into a reply of the
        // length `read_window` summed.
        let mut responses: Vec<Vec<u8>> = vec![Vec::new(); rank.nprocs()];
        if let Some(w) = window {
            if plan.pipelined {
                rank.io_complete(w.io);
            } else {
                client::settle(rank, w.io);
            }
            for (src, payload) in incoming.iter().enumerate() {
                if payload.is_empty() {
                    continue;
                }
                let total = w.totals[src];
                let mut resp = Vec::with_capacity(total as usize);
                for (off, len) in decode_requests(payload)? {
                    let at = (off - w.ws) as usize;
                    resp.extend_from_slice(&w.wbuf[at..at + len as usize]);
                }
                rank.charge_memcpy(total);
                responses[src] = resp;
            }
        }
        let answers = match session {
            Some(s) => reqagg::exchange_responses(rank, s, responses)?,
            None => plan.burst(rank, responses)?,
        };
        for (a, (cursor, len)) in fills {
            if answers[a].len() != len {
                return Err(IoError::Usage("read reply length mismatch".into()));
            }
            buf[cursor..cursor + len].copy_from_slice(&answers[a]);
        }
    }
    Ok(rank.barrier()?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collective::encode_requests;
    use crate::collective::tests::encode_pieces;
    use crate::file::Mode;
    use mpisim::{SimConfig, SimError};
    use pfs::{Pfs, PfsConfig};

    /// A payload can decode cleanly and still name an extent outside the
    /// window it was sent for — from a bad peer. The aggregator refuses it with a typed usage error before a
    /// byte of it moves; it used to panic the rank. Two ranks aggregate
    /// `[0, 100)` and `[100, 200)`, and each forges, for the first window,
    /// an extent ending at `we + 1` and, for the second, one starting below
    /// `ws` — written, and asked for.
    #[test]
    fn an_extent_outside_its_window_is_a_usage_error_not_a_panic() {
        let forged = |ws: u64, we: u64| if ws == 0 { (we - 4, 5) } else { (ws - 1, 4) };
        for write in [true, false] {
            let fs = Pfs::new(2, PfsConfig::default()).unwrap();
            let err = mpisim::run(2, SimConfig::default(), |rk| {
                let f = File::open(rk, &fs, "/forged", Mode::ReadWrite)?;
                let lo = rk.rank() as u64 * 100;
                let (cfg, hull) = (CollectiveConfig::default(), Some((lo, lo + 100)));
                if write {
                    let build = |ws, we| {
                        let (off, len) = forged(ws, we);
                        encode_pieces([(off, &[7u8; 8][..len as usize])])
                    };
                    write_rounds(rk, &f, &cfg, hull, build)?;
                } else {
                    let request = |ws, we| {
                        let (off, len) = forged(ws, we);
                        Ok(Some((encode_requests([(off, len)])?, (0, len as usize))))
                    };
                    let mut buf = [0u8; 8];
                    read_rounds(rk, &f, &cfg, hull, &mut buf, request)?;
                }
                Ok(())
            })
            .unwrap_err();
            let SimError::RankFailed { error, .. } = &err else {
                panic!("write={write}: {err}");
            };
            let Some(IoError::Usage(msg)) = error.layer::<IoError>() else {
                panic!("write={write}: {error}");
            };
            assert!(msg.contains("outside window"), "write={write}: {msg}");
        }
    }

    /// A larger collective buffer never means more rounds, and an unset
    /// one, or one at least the domain size, means exactly one: a seeded
    /// grid of hulls (some ranks with none), aggregator counts, alignments
    /// and ascending `cb_buffer` values — around the domain size too —
    /// agreed by four ranks.
    #[test]
    fn a_larger_cb_buffer_never_means_more_rounds() {
        use rand::{RngExt, SeedableRng};
        const NPROCS: usize = 4;
        mpisim::run(NPROCS, SimConfig::default(), |rk| {
            let mut multi = 0;
            for seed in 0..64u64 {
                // Every rank draws the same grid, and takes its own hull.
                let mut rng = rand::rngs::StdRng::seed_from_u64(0x40c ^ seed);
                let mut pick = |lo: u64, hi: u64| lo + rng.next_u64() % (hi - lo);
                let hulls: Vec<_> = (0..NPROCS)
                    .map(|_| (pick(0, 1 << 20), pick(0, 1 << 16), pick(0, 4)))
                    .map(|(start, len, empty)| (empty > 0).then_some((start, start + len + 1)))
                    .collect();
                let hull = hulls[rk.rank()];
                let cb_nodes = Some(pick(1, NPROCS as u64 + 1) as usize);
                let align = (pick(0, 2) == 1).then(|| pick(1, 4096));
                let agree = |rk: &mut Rank, cb_buffer| {
                    let cfg = CollectiveConfig {
                        cb_nodes,
                        cb_buffer,
                        align,
                        ..Default::default()
                    };
                    Plan::agree(rk, &cfg, Direction::Write, hull)
                        .map(|p| p.map(|p| (p.rounds, p.dsize)))
                };
                let Some((rounds, dsize)) = agree(rk, None)? else {
                    continue;
                };
                assert_eq!(rounds, 1, "seed {seed}: an unset buffer");
                let mut buffers: Vec<u64> = (0..8).map(|_| pick(1, 2 * dsize + 2)).collect();
                buffers.extend(
                    [1, dsize - 1, dsize, dsize + 1]
                        .into_iter()
                        .filter(|&b| b > 0),
                );
                buffers.sort_unstable();
                let mut fewest = u64::MAX;
                for cb in buffers {
                    let (rounds, _) = agree(rk, Some(cb))?.unwrap();
                    assert!(rounds <= fewest, "seed {seed}: {rounds} rounds at {cb}");
                    if cb >= dsize {
                        assert_eq!(rounds, 1, "seed {seed}: {cb} bytes of a {dsize} domain");
                    }
                    fewest = rounds;
                    multi += (rounds > 1) as usize;
                }
            }
            assert!(multi > 100, "only {multi} multi-round plans");
            Ok(())
        })
        .unwrap();
    }
}
