//! The two-phase round engine: the one loop behind every collective path.
//!
//! ROMIO's two-phase algorithm (§III.A) is the same skeleton whichever
//! wire format rides it: agree on the aggregate file domain, split it
//! across aggregators, and per round — one `cb_buffer` window per
//! aggregator — exchange per-destination payloads, assemble the window in
//! a memory-accounted collective buffer and move its extent runs to or
//! from the file system through the [`client`] door. `write_rounds` and
//! `read_rounds` own that skeleton, including the depth-2 deferred
//! completions of `CollectiveConfig::pipeline`. A caller supplies only
//! what is its own: a `Path` (communicator, whether `req_agg` merges
//! semantically, span names) and the closures that speak its wire format
//! — each handed a window and answering with this rank's share of it, which
//! `FileView::stream_interval` makes one slice of the caller's buffer.

use crate::client::{self, DeferredQueue, Direction};
use crate::collective::CollectiveConfig;
use crate::error::{IoError, Result};
use crate::extents::Cover;
use crate::file::File;
use crate::reqagg::{self, ReadSession};
use mpisim::{Comm, DeferredIo, MemGuard, Rank, ReduceOp};

/// What one collective path is, as values: everything the five callers
/// differ in outside their wire formats.
pub(crate) struct Path<'a> {
    /// The communicator the collective runs over. Payload vectors and
    /// aggregator ranks live in its rank space.
    pub(crate) comm: &'a Comm,
    /// `req_agg` merges offset–length lists at node leaders on this path
    /// (its payloads are piece/request lists); otherwise `req_agg` means
    /// the opaque two-level exchange, like `intra_agg`.
    pub(crate) merges: bool,
    /// Span of a serialized round's I/O, as [`client::settle`] takes it:
    /// `None` waits in the caller's phase and marks nothing.
    pub(crate) flat_span: Option<&'static str>,
    /// Deferred-handle span under `CollectiveConfig::pipeline`; `None` for
    /// a path that has nothing to overlap and ignores the knob.
    pub(crate) pipe_span: Option<&'static str>,
}

/// The data-exchange strategy, resolved once per collective.
#[derive(Clone, Copy, PartialEq)]
enum Exchange {
    /// The flat all-to-all burst.
    Flat,
    /// Node leaders forward members' payloads opaquely (Kang et al.).
    TwoLevel,
    /// Node leaders decode and merge the lists — see [`crate::reqagg`].
    ReqAgg,
}

impl Exchange {
    fn resolve(rank: &Rank, cfg: &CollectiveConfig, merges: bool) -> Exchange {
        // Without a topology there are no node leaders: both knobs fall
        // back to the flat burst.
        if !(cfg.intra_agg || cfg.req_agg) || rank.topology().is_none() {
            Exchange::Flat
        } else if cfg.req_agg && merges {
            Exchange::ReqAgg
        } else {
            Exchange::TwoLevel
        }
    }
}

/// What one collective call agreed on: the file-domain geometry, who
/// aggregates, how payloads travel and how completions reach the clock.
pub(crate) struct Plan<'a> {
    path: &'a Path<'a>,
    exch: Exchange,
    gmin: u64,
    gmax: u64,
    dsize: u64,
    round_size: u64,
    pub(crate) rounds: u64,
    /// The rank (in the communicator's rank space) serving each aggregator
    /// index.
    pub(crate) agg_ranks: Vec<usize>,
    /// The aggregator index this rank serves, if any.
    my_agg: Option<usize>,
    /// The deferred-handle span when this call pipelines its rounds.
    pipe_span: Option<&'static str>,
}

impl<'a> Plan<'a> {
    /// Agree on the aggregate domain — the union of everyone's `hull`, the
    /// file range `[start, end)` its request spans — and split it across
    /// aggregators. `None` — after the closing barrier — when nobody has
    /// anything to move.
    pub(crate) fn agree(
        rank: &mut Rank,
        cfg: &CollectiveConfig,
        path: &'a Path<'a>,
        hull: Option<(u64, u64)>,
    ) -> Result<Option<Plan<'a>>> {
        let comm = path.comm;
        let (local_min, local_max) = hull.unwrap_or((u64::MAX, 0));
        let gmin = rank.allreduce_u64_in(comm, local_min, ReduceOp::Min)?;
        let gmax = rank.allreduce_u64_in(comm, local_max, ReduceOp::Max)?;
        if gmin >= gmax {
            rank.barrier_in(comm)?;
            return Ok(None);
        }
        let (me, n) = (comm.group_rank(), comm.size());
        let naggs = cfg.cb_nodes.unwrap_or(n).clamp(1, n);
        let mut agg_ranks: Vec<usize> = match rank.topology().filter(|_| comm.is_world()) {
            // Node-aware placement: interleave nodes so the first
            // `num_nodes` aggregators land one per node — aggregator NICs
            // are the bottleneck of the I/O phase, so doubling up on a node
            // before every node has one wastes links.
            Some(topo) => {
                let mut order = topo.interleaved_order();
                order.truncate(naggs);
                order
            }
            // Topology-blind (and every group, whatever the topology): the
            // classic evenly-spread ROMIO mapping.
            None => (0..naggs).map(|i| i * n / naggs).collect(),
        };
        // Graceful degradation (world only): drop aggregators with a stall
        // window still ahead or a crash-stop coming — an aggregator that
        // dies mid-drain takes every rank's staged data with it. The
        // allreduces above are symmetric, so all ranks get here with
        // *identical* clocks and the pure-function stall/crash queries
        // yield the same shrunk set everywhere without extra communication.
        // If every candidate is a straggler, keep the original set (someone
        // has to do the I/O).
        if let Some(engine) = rank.chaos().filter(|_| comm.is_world()) {
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
            path,
            exch: Exchange::resolve(rank, cfg, path.merges),
            gmin,
            gmax,
            dsize,
            round_size,
            rounds: dsize.div_ceil(round_size),
            my_agg: agg_ranks.iter().position(|&r| r == me),
            agg_ranks,
            pipe_span: path.pipe_span.filter(|_| cfg.pipeline),
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

    /// The all-to-all burst, flat or leader-forwarded.
    fn burst(&self, rank: &mut Rank, data: Vec<Vec<u8>>) -> Result<Vec<Vec<u8>>> {
        let comm = self.path.comm;
        Ok(match self.exch {
            Exchange::TwoLevel => rank.alltoallv_burst_hier_in(comm, data)?,
            _ => rank.alltoallv_burst_in(comm, data)?,
        })
    }

    /// The span a window's I/O is submitted under.
    fn io_span(&self) -> Option<&'static str> {
        self.pipe_span.or(self.path.flat_span)
    }
}

/// The collective write loop. `build(ws, we)` encodes this rank's payload
/// for the aggregator owning window `[ws, we)` (empty = nothing to send);
/// `place(rank, src, payload, ws, buf, dirty)` marks what one incoming
/// payload touches in `dirty` — which refuses an extent outside the window
/// before a byte moves — then copies it into the window buffer and charges
/// the copy.
pub(crate) fn write_rounds(
    rank: &mut Rank,
    file: &File,
    cfg: &CollectiveConfig,
    path: &Path<'_>,
    hull: Option<(u64, u64)>,
    mut build: impl FnMut(u64, u64) -> Result<Vec<u8>>,
    mut place: impl FnMut(&mut Rank, usize, &[u8], u64, &mut [u8], &mut Cover) -> Result<()>,
) -> Result<()> {
    if !file.mode().writable() {
        return Err(IoError::Usage("file is not open for writing".into()));
    }
    let Some(plan) = Plan::agree(rank, cfg, path, hull)? else {
        return Ok(());
    };
    let (pfs, fid) = (file.pfs(), file.file_id());
    let mut inflight = DeferredQueue::default();
    for r in 0..plan.rounds {
        inflight.make_room(rank);
        let mut payloads: Vec<Vec<u8>> = vec![Vec::new(); path.comm.size()];
        for (a, ws, we) in plan.windows(r) {
            payloads[a] = build(ws, we)?;
        }
        // Data exchange phase.
        let exchanged = match plan.exch {
            Exchange::ReqAgg => {
                let windows: Vec<_> = plan.windows(r).collect();
                reqagg::exchange_pieces(rank, &plan.agg_ranks, &windows, payloads)?
            }
            _ => plan.burst(rank, payloads)?,
        };
        // I/O phase (aggregators only): assemble the window in the
        // collective buffer, then write only the runs that were touched.
        let Some((ws, we)) = plan.my_window(r) else {
            continue;
        };
        let cb = rank.alloc(we - ws)?;
        let mut buf = vec![0u8; (we - ws) as usize];
        let mut dirty = Cover::new(ws, we);
        for (src, payload) in exchanged.iter().enumerate() {
            if !payload.is_empty() {
                place(rank, src, payload, ws, &mut buf, &mut dirty)?;
            }
        }
        let runs = dirty.runs();
        let write = |rk: &mut Rank, off, len: u64, _| {
            let at = (off - ws) as usize;
            pfs.write_at(fid, rk.rank(), off, &buf[at..at + len as usize], rk.now())
        };
        let io = client::submit(rank, Direction::Write, plan.io_span(), runs, write)?;
        if plan.pipe_span.is_some() {
            // Round r+1's exchange overlaps the OST service.
            inflight.push(io, Some(cb));
        } else {
            drop(cb);
            client::settle(rank, io);
        }
    }
    inflight.drain(rank);
    Ok(rank.barrier_in(plan.path.comm)?)
}

/// How an aggregator reads a source's request payload: the wire format of
/// a read path's phase 1.
pub(crate) trait Requests {
    /// The file extents `src` wants of this aggregator's window, in reply
    /// order.
    fn wanted<'p>(
        &'p self,
        src: usize,
        payload: &'p [u8],
    ) -> Result<impl Iterator<Item = (u64, u64)> + Clone + 'p>;
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
    plan: &Plan<'_>,
    file: &File,
    (ws, we): (u64, u64),
    incoming: &[Vec<u8>],
    codec: &impl Requests,
) -> Result<Option<WindowRead>> {
    let mut wanted = Cover::new(ws, we);
    let mut totals = vec![0; incoming.len()];
    for (src, payload) in incoming.iter().enumerate() {
        if !payload.is_empty() {
            for (o, l) in codec.wanted(src, payload)? {
                wanted.insert(o, l)?;
                totals[src] += l;
            }
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
    let io = client::submit(rank, Direction::Read, plan.io_span(), runs, read)?;
    Ok(Some(WindowRead {
        ws,
        wbuf,
        totals,
        io,
        _cb: cb,
    }))
}

/// The collective read loop. `request(ws, we)` encodes what this rank
/// needs from window `[ws, we)` plus the one `(buf_cursor, len)` slot of
/// `buf` the reply will fill — views are monotone, so a window's share of a
/// request is contiguous in the stream (`None` = nothing); `codec` reads
/// an incoming request back into the file extents its source wants.
///
/// Serialized, a round is request exchange → window read → reply
/// exchange. Pipelined, the aggregator leaves the read's completion
/// outstanding, runs round r+1's *request* exchange while the OSTs
/// service it, and only then settles the read and answers round r.
#[allow(clippy::too_many_arguments)]
pub(crate) fn read_rounds(
    rank: &mut Rank,
    file: &File,
    cfg: &CollectiveConfig,
    path: &Path<'_>,
    hull: Option<(u64, u64)>,
    buf: &mut [u8],
    mut request: impl FnMut(u64, u64) -> Result<Option<(Vec<u8>, (usize, usize))>>,
    codec: &impl Requests,
) -> Result<()> {
    if !file.mode().readable() {
        return Err(IoError::Usage("file is not open for reading".into()));
    }
    let Some(plan) = Plan::agree(rank, cfg, path, hull)? else {
        return Ok(());
    };
    let mut ask = |rank: &mut Rank, r: u64| -> Result<Asked> {
        let mut requests: Vec<Vec<u8>> = vec![Vec::new(); path.comm.size()];
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
            _ => (plan.burst(rank, requests)?, None),
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
            Some(w) => read_window(rank, &plan, file, w, &incoming, codec)?,
            None => None,
        };
        if plan.pipe_span.is_some() && r + 1 < plan.rounds {
            prefetched = Some(ask(rank, r + 1)?);
        }
        // Settle the read, then slice each source's extents out of the
        // window buffer in the order it asked for them, into a reply of the
        // length `read_window` summed.
        let mut responses: Vec<Vec<u8>> = vec![Vec::new(); path.comm.size()];
        if let Some(w) = window {
            if plan.pipe_span.is_some() {
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
                for (off, len) in codec.wanted(src, payload)? {
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
    Ok(rank.barrier_in(plan.path.comm)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collective::tests::encode_pieces;
    use crate::collective::{encode_requests, place_pieces, OffsetLists};
    use crate::file::Mode;
    use mpisim::{SimConfig, SimError};
    use pfs::{Pfs, PfsConfig};

    /// A payload can decode cleanly and still name an extent outside the
    /// window it was sent for — from a bad peer, or a mismatched registered
    /// view. The aggregator refuses it with a typed usage error before a
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
                let world = rk.world();
                let path = Path {
                    comm: &world,
                    merges: true,
                    flat_span: None,
                    pipe_span: None,
                };
                let lo = rk.rank() as u64 * 100;
                let (cfg, hull) = (CollectiveConfig::default(), Some((lo, lo + 100)));
                if write {
                    let build = |ws, we| {
                        let (off, len) = forged(ws, we);
                        encode_pieces([(off, &[7u8; 8][..len as usize])])
                    };
                    write_rounds(rk, &f, &cfg, &path, hull, build, place_pieces)?;
                } else {
                    let request = |ws, we| {
                        let (off, len) = forged(ws, we);
                        Ok(Some((encode_requests([(off, len)])?, (0, len as usize))))
                    };
                    let mut buf = [0u8; 8];
                    read_rounds(rk, &f, &cfg, &path, hull, &mut buf, request, &OffsetLists)?;
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
            let world = rk.world();
            let path = Path {
                comm: &world,
                merges: true,
                flat_span: None,
                pipe_span: None,
            };
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
                    Plan::agree(rk, &cfg, &path, hull).map(|p| p.map(|p| (p.rounds, p.dsize)))
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
