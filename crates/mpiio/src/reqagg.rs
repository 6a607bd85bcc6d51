//! Intra-node request aggregation for two-phase collective I/O.
//!
//! A node leader relaying its members' piece lists opaquely would leave an
//! aggregator parsing one list per source rank. This module implements the
//! full form from the paper's lineage (Kang et al.): the leader **decodes**
//! its members' offset–length lists, merges them per destination
//! aggregator — resolving overlaps by member order and coalescing adjacent
//! extents — and ships *one merged list per (node, aggregator) pair*. The
//! aggregator then parses `O(nodes)` lists instead of `O(ranks)`, and the
//! inter-node wire carries one header per merged extent instead of one per
//! member extent.
//!
//! Wire protocol (writes, `exchange_pieces`):
//!
//! 1. every rank sends its piece lists for *on-node* aggregators directly
//!    (shared-memory links; `TAG_RA_LOCAL`, one message per on-node
//!    aggregator, empty allowed so receives match on `(src, tag)`);
//! 2. non-leader members pack their *off-node* lists into one up-blob for
//!    the node leader — `(agg u32, len u32, bytes)*` (`TAG_RA_UP`);
//! 3. the leader decodes member lists per off-node aggregator in ascending
//!    member order (later members overwrite on overlap — the same
//!    index-order the flat burst applies), coalesces adjacent extents, and
//!    sends exactly one merged list to each off-node aggregator
//!    (`TAG_RA_XNODE`, empty allowed). The merge is a `Cover` of the
//!    aggregator's window for the round: every member piece is marked, then
//!    copied to its `Cover::rank` in one buffer of just the covered bytes,
//!    and the cover's runs are the merged extents, that buffer their data.
//!
//! An aggregator therefore receives: direct lists from its node peers, and
//! one merged list from every other node's leader — surfaced in the
//! rank-indexed `Vec<Vec<u8>>` the two-phase code already consumes, with
//! the merged list sitting at the *leader's* rank index.
//!
//! Reads run the same shape twice: `exchange_requests` merges request
//! lists uphill (the leader unions them in a transient `Cover` of the
//! window, sends its runs, and remembers those runs and each member's
//! original list in a `ReadSession`), then `exchange_responses` routes the
//! aggregator's run-ordered response bytes back down, the leader slicing
//! each member's requested extents out of the merged runs with one cursor
//! walking forward over them, as a member's requests ascend (`TAG_RA_DOWN`
//! down-blob: `(agg u32, len u32, bytes)*`).
//!
//! A leader's cover spans the destination aggregator's window, so a member
//! extent outside it is an `IoError::Usage` at the leader, as it is at the
//! aggregator.
//!
//! Ordering semantics: concurrent collective writes to the *same* file
//! byte are undefined in MPI-IO. Within a node the merge preserves the
//! flat burst's rank-order overwrite; across nodes the aggregator applies
//! node-merged lists in leader-rank order, which coincides with the flat
//! order for the default blocked topologies. Disjoint writes — the defined
//! case — are bit-identical to the flat burst, which is what the
//! differential suite pins.

use crate::collective::{decode_pieces, decode_requests, encode_list, encode_requests};
use crate::error::{IoError, Result};
use crate::extents::Cover;
use mpisim::wire::{push_frame, Cursor};
use mpisim::{MpiError, Phase, Rank, Tag};
use std::collections::BTreeMap;

// User-level tags (must stay below mpisim's internal tag range). The
// 0x5241.. prefix is "RA" in ASCII, picked to stay clear of the small
// integers workloads use.
const TAG_RA_LOCAL: Tag = 0x5241_0001;
const TAG_RA_UP: Tag = 0x5241_0002;
const TAG_RA_XNODE: Tag = 0x5241_0003;
const TAG_RA_RESP_LOCAL: Tag = 0x5241_0004;
const TAG_RA_RESP_X: Tag = 0x5241_0005;
const TAG_RA_DOWN: Tag = 0x5241_0006;

/// Receive from a fixed `(src, tag)`, treating a crashed peer as an empty
/// message — the same graceful-degradation contract as the flat burst.
fn recv_or_empty(rank: &mut Rank, src: usize, tag: Tag) -> Result<Vec<u8>> {
    match rank.recv(Some(src), Some(tag)) {
        Ok(r) => Ok(r.data),
        Err(MpiError::PeerCrashed { rank: r }) if r == src => Ok(Vec::new()),
        Err(e) => Err(e.into()),
    }
}

/// Roles for one aggregated exchange: node membership, the elected node
/// leaders (`Rank::elect_node_leaders`, chaos-aware), and the
/// aggregator set split into on-node and off-node.
struct RaPlan {
    me: usize,
    my_node: usize,
    /// World ranks on my node, ascending (includes me).
    my_peers: Vec<usize>,
    my_leader: usize,
    /// Leader world rank of every node, by node index.
    leader_of: Vec<usize>,
    agg_ranks: Vec<usize>,
    /// Aggregators sharing my node, excluding me.
    on_node_aggs: Vec<usize>,
    /// Aggregators on other nodes (merged lists go through leaders).
    off_node_aggs: Vec<usize>,
}

impl RaPlan {
    fn i_am_agg(&self) -> bool {
        self.agg_ranks.contains(&self.me)
    }

    /// The other ranks on my node, ascending.
    fn peers(&self) -> impl Iterator<Item = usize> + '_ {
        self.my_peers.iter().copied().filter(|&p| p != self.me)
    }

    /// Every other node's leader, in node order.
    fn remote_leaders(&self) -> impl Iterator<Item = usize> + '_ {
        let others = move |(node, &l): (usize, &usize)| (node != self.my_node).then_some(l);
        self.leader_of.iter().enumerate().filter_map(others)
    }
}

/// Synchronize and elect, over the world.
fn make_plan(rank: &mut Rank, agg_ranks: &[usize]) -> Result<RaPlan> {
    let leaders = rank.elect_node_leaders()?;
    let (Some(topo), Some(leader_of)) = (rank.topology(), leaders) else {
        return Err(IoError::Usage(
            "request aggregation needs a topology".into(),
        ));
    };
    let me = rank.rank();
    let my_node = topo.node_of(me);
    let others = agg_ranks.iter().copied().filter(|&a| a != me);
    let (on_node_aggs, off_node_aggs) = others.partition(|&a| topo.node_of(a) == my_node);
    Ok(RaPlan {
        me,
        my_node,
        my_peers: topo.ranks_on_node(my_node).to_vec(),
        my_leader: leader_of[my_node],
        leader_of,
        agg_ranks: agg_ranks.to_vec(),
        on_node_aggs,
        off_node_aggs,
    })
}

/// The uphill leg both directions share. `payloads` is indexed by world
/// rank (non-empty only at aggregator ranks); the result is indexed by
/// source rank like the flat burst, with each node's merged off-node list
/// at its leader's index. `windows` is the round's `(agg, ws, we)` for
/// every aggregator with a non-empty window. `merge(rank, (agg, ws, we),
/// lists)` is the leader's one decision: fold its members' lists for an
/// off-node aggregator's window (keyed by member rank, so ascending) into
/// the single list that crosses the wire.
fn uphill(
    rank: &mut Rank,
    plan: &RaPlan,
    windows: &[(usize, u64, u64)],
    mut payloads: Vec<Vec<u8>>,
    span: &'static str,
    mut merge: impl FnMut(&mut Rank, (usize, u64, u64), BTreeMap<usize, Vec<u8>>) -> Result<Vec<u8>>,
) -> Result<Vec<Vec<u8>>> {
    let start = rank.now();
    let total: u64 = payloads.iter().map(|p| p.len() as u64).sum();
    let me = plan.me;
    let mut out: Vec<Vec<u8>> = vec![Vec::new(); payloads.len()];
    if plan.i_am_agg() {
        out[me] = std::mem::take(&mut payloads[me]);
    }
    let mut sends = Vec::new();
    // On-node lists go directly over the shared-memory links.
    for &a in &plan.on_node_aggs {
        let p = std::mem::take(&mut payloads[a]);
        sends.push(rank.isend(a, TAG_RA_LOCAL, p)?);
    }
    if me != plan.my_leader {
        let mut up = Vec::new();
        for &a in &plan.off_node_aggs {
            let p = std::mem::take(&mut payloads[a]);
            if !p.is_empty() {
                push_frame(&mut up, a, &p)?;
            }
        }
        sends.push(rank.isend(plan.my_leader, TAG_RA_UP, up)?);
    } else {
        let mut contrib: BTreeMap<usize, BTreeMap<usize, Vec<u8>>> = BTreeMap::new();
        for &a in &plan.off_node_aggs {
            let p = std::mem::take(&mut payloads[a]);
            if !p.is_empty() {
                contrib.entry(a).or_default().insert(me, p);
            }
        }
        for p in plan.peers() {
            let up = recv_or_empty(rank, p, TAG_RA_UP)?;
            let mut frames = Cursor::new(&up);
            while !frames.is_empty() {
                let (a, list) = frames.frame()?;
                contrib.entry(a).or_default().insert(p, list.to_vec());
            }
        }
        for &a in &plan.off_node_aggs {
            let merged = match contrib.remove(&a) {
                Some(lists) => {
                    let window = windows.iter().find(|w| w.0 == a).ok_or_else(|| {
                        IoError::Usage(format!("a list for aggregator {a}, which has no window"))
                    })?;
                    merge(rank, *window, lists)?
                }
                None => Vec::new(),
            };
            sends.push(rank.isend(a, TAG_RA_XNODE, merged)?);
        }
    }
    if plan.i_am_agg() {
        for p in plan.peers() {
            out[p] = recv_or_empty(rank, p, TAG_RA_LOCAL)?;
        }
        for l in plan.remote_leaders() {
            out[l] = recv_or_empty(rank, l, TAG_RA_XNODE)?;
        }
    }
    rank.waitall(sends);
    rank.trace_mark(span, Phase::Exchange, start, total);
    Ok(out)
}

/// The write-side aggregated exchange: the leader applies its members'
/// piece lists in ascending rank order (later members overwrite on
/// overlap) and coalesces adjacent extents.
pub(crate) fn exchange_pieces(
    rank: &mut Rank,
    agg_ranks: &[usize],
    windows: &[(usize, u64, u64)],
    payloads: Vec<Vec<u8>>,
) -> Result<Vec<Vec<u8>>> {
    let plan = make_plan(rank, agg_ranks)?;
    let merge = |rank: &mut Rank, (_, ws, we), lists: BTreeMap<usize, Vec<u8>>| {
        let (merged, moved) = merge_pieces(ws, we, lists.values())?;
        rank.charge_memcpy(moved);
        Ok(merged)
    };
    uphill(rank, &plan, windows, payloads, "reqagg_pieces", merge)
}

/// A leader's merge of its members' piece lists for window `[ws, we)`, in
/// member order: the merged list, and the piece bytes it copied. Every
/// piece is marked first; the cover's runs then head the list, and each
/// piece is copied to its rank among the covered bytes that follow — a
/// later member's bytes over an earlier one's.
fn merge_pieces<'b>(
    ws: u64,
    we: u64,
    blobs: impl Iterator<Item = &'b Vec<u8>>,
) -> Result<(Vec<u8>, u64)> {
    let lists = blobs
        .map(|b| decode_pieces(b))
        .collect::<Result<Vec<_>>>()?;
    let mut cover = Cover::new(ws, we);
    for (off, bytes) in lists.iter().cloned().flatten() {
        cover.insert(off, bytes.len() as u64)?;
    }
    let covered = cover.rank(we);
    let mut merged = encode_list(cover.runs(), covered)?;
    let head = merged.len();
    merged.resize(head + covered as usize, 0);
    let mut moved = 0;
    for (off, bytes) in lists.into_iter().flatten() {
        let at = head + cover.rank(off) as usize;
        merged[at..at + bytes.len()].copy_from_slice(bytes);
        moved += bytes.len() as u64;
    }
    Ok((merged, moved))
}

/// State carried from the request leg to the response leg of an
/// aggregated collective read round.
pub(crate) struct ReadSession {
    plan: RaPlan,
    /// Leader only: agg rank → the merged, sorted, coalesced runs sent to
    /// that aggregator (the order its response bytes come back in).
    merged: BTreeMap<usize, Vec<(u64, u64)>>,
    /// Leader only: agg rank → member rank → that member's original
    /// request list (the slice order its scatter plan expects).
    member_reqs: BTreeMap<usize, BTreeMap<usize, Vec<(u64, u64)>>>,
}

/// The read-side request leg: the leader unions its members' offset–length
/// request lists. Returns the rank-indexed incoming requests (for
/// aggregators) plus the [`ReadSession`] the response leg needs.
pub(crate) fn exchange_requests(
    rank: &mut Rank,
    agg_ranks: &[usize],
    windows: &[(usize, u64, u64)],
    requests: Vec<Vec<u8>>,
) -> Result<(Vec<Vec<u8>>, ReadSession)> {
    let plan = make_plan(rank, agg_ranks)?;
    let mut merged = BTreeMap::new();
    let mut member_reqs = BTreeMap::new();
    let union_of = |_: &mut Rank, (agg, ws, we), lists: BTreeMap<usize, Vec<u8>>| {
        let mut union = Cover::new(ws, we);
        let mut by_member = BTreeMap::new();
        for (member, blob) in lists {
            let reqs: Vec<_> = decode_requests(&blob)?.collect();
            for &(o, l) in &reqs {
                union.insert(o, l)?;
            }
            by_member.insert(member, reqs);
        }
        let runs: Vec<_> = union.runs().collect();
        let enc = encode_requests(runs.iter().copied())?;
        merged.insert(agg, runs);
        member_reqs.insert(agg, by_member);
        Ok(enc)
    };
    let out = uphill(rank, &plan, windows, requests, "reqagg_reads", union_of)?;
    let session = ReadSession {
        plan,
        merged,
        member_reqs,
    };
    Ok((out, session))
}

/// Slice one member's requested extents out of a merged run-ordered
/// response blob. Each request lies wholly inside one merged run (the
/// union covers it contiguously), and a member's requests ascend, so one
/// cursor walks forward over the runs — run `i` starts `at` bytes into
/// the blob; a request below the cursor restarts it from the first run.
/// An empty request names no run: it is skipped.
fn slice_member(runs: &[(u64, u64)], blob: &[u8], reqs: &[(u64, u64)]) -> Vec<u8> {
    let total: u64 = reqs.iter().map(|&(_, l)| l).sum();
    let mut out = Vec::with_capacity(total as usize);
    let (mut i, mut at) = (0, 0);
    for &(off, len) in reqs.iter().filter(|&&(_, len)| len > 0) {
        if runs.get(i).is_none_or(|&(o, _)| off < o) {
            (i, at) = (0, 0);
        }
        while let Some(&(_, l)) = runs.get(i).filter(|&&(o, l)| o + l <= off) {
            (i, at) = (i + 1, at + l);
        }
        let (o, l) = runs[i];
        debug_assert!(off >= o && off + len <= o + l, "request outside merged run");
        let from = (at + off - o) as usize;
        // A crashed aggregator yields an empty blob; leave zeros rather
        // than slicing past the end (mirrors the flat burst's contract).
        match blob.get(from..from + len as usize) {
            Some(bytes) => out.extend_from_slice(bytes),
            None => out.resize(out.len() + len as usize, 0),
        }
    }
    out
}

/// The read-side response leg: aggregators answer each source's request
/// list in order; leaders fan the merged responses back out to members.
/// Returns response bytes indexed by *aggregator* rank, in this rank's
/// original request order — exactly what the flat burst's scatter expects.
pub(crate) fn exchange_responses(
    rank: &mut Rank,
    session: ReadSession,
    mut responses: Vec<Vec<u8>>,
) -> Result<Vec<Vec<u8>>> {
    let ReadSession {
        plan,
        merged,
        member_reqs,
    } = session;
    let start = rank.now();
    let total: u64 = responses.iter().map(|p| p.len() as u64).sum();
    let me = plan.me;
    let mut answers: Vec<Vec<u8>> = vec![Vec::new(); responses.len()];
    let mut sends = Vec::new();
    if plan.i_am_agg() {
        answers[me] = std::mem::take(&mut responses[me]);
        // Answer node peers directly, and every other node's leader with
        // the merged-run-ordered bytes. One message per destination, empty
        // allowed, so receives match on (src, tag).
        for p in plan.peers() {
            let r = std::mem::take(&mut responses[p]);
            sends.push(rank.isend(p, TAG_RA_RESP_LOCAL, r)?);
        }
        for l in plan.remote_leaders() {
            let r = std::mem::take(&mut responses[l]);
            sends.push(rank.isend(l, TAG_RA_RESP_X, r)?);
        }
    }
    for &a in &plan.on_node_aggs {
        answers[a] = recv_or_empty(rank, a, TAG_RA_RESP_LOCAL)?;
    }
    if me == plan.my_leader {
        // Collect merged responses, then deal each member its slices.
        let mut down: BTreeMap<usize, Vec<u8>> = BTreeMap::new();
        let mut moved = 0u64;
        for &a in &plan.off_node_aggs {
            let blob = recv_or_empty(rank, a, TAG_RA_RESP_X)?;
            let Some(runs) = merged.get(&a) else {
                continue;
            };
            if let Some(lists) = member_reqs.get(&a) {
                for (&m, reqs) in lists {
                    let bytes = slice_member(runs, &blob, reqs);
                    moved += bytes.len() as u64;
                    if m == me {
                        answers[a] = bytes;
                    } else {
                        push_frame(down.entry(m).or_default(), a, &bytes)?;
                    }
                }
            }
        }
        rank.charge_memcpy(moved);
        for m in plan.peers() {
            let blob = down.remove(&m).unwrap_or_default();
            sends.push(rank.isend(m, TAG_RA_DOWN, blob)?);
        }
    } else {
        let down = recv_or_empty(rank, plan.my_leader, TAG_RA_DOWN)?;
        let mut frames = Cursor::new(&down);
        while !frames.is_empty() {
            let (a, bytes) = frames.frame()?;
            let slot = answers.get_mut(a);
            *slot.ok_or_else(|| {
                IoError::Usage(format!("response for rank {a} of {me}'s world"))
            })? = bytes.to_vec();
        }
    }
    rank.waitall(sends);
    rank.trace_mark("reqagg_resp", Phase::Exchange, start, total);
    Ok(answers)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collective::tests::encode_pieces;
    use crate::extents::ExtentSet;

    /// Disjoint byte runs keyed by file offset, with later inserts overwriting
    /// earlier bytes on overlap — the merge buffer a node leader built per
    /// destination aggregator before [`merge_pieces`], kept as its oracle.
    #[derive(Default)]
    struct PieceMap {
        runs: BTreeMap<u64, Vec<u8>>,
    }

    impl PieceMap {
        fn insert(&mut self, off: u64, data: &[u8]) {
            if data.is_empty() {
                return;
            }
            let end = off + data.len() as u64;
            // The common case — members of a node interleave without overlap,
            // each piece continuing a run an earlier member left: grow that
            // run in place. `coalesced` would have joined the two anyway.
            if let Some((&s, below)) = self.runs.range_mut(..end).next_back() {
                if s + below.len() as u64 == off {
                    return below.extend_from_slice(data);
                }
            }
            // Runs are disjoint, so walking down from the last run starting
            // before `end` stops at the first non-overlapping one.
            let overlapping: Vec<u64> = self
                .runs
                .range(..end)
                .rev()
                .take_while(|(&s, v)| s + v.len() as u64 > off)
                .map(|(&s, _)| s)
                .collect();
            for s in overlapping {
                let Some(v) = self.runs.remove(&s) else {
                    continue;
                };
                let e = s + v.len() as u64;
                if s < off {
                    self.runs.insert(s, v[..(off - s) as usize].to_vec());
                }
                if e > end {
                    self.runs.insert(end, v[(end - s) as usize..].to_vec());
                }
            }
            self.runs.insert(off, data.to_vec());
        }

        /// Sorted `(off, bytes)` pieces with adjacent runs coalesced into one
        /// extent — the aggregation win: one wire header per merged extent.
        fn coalesced(self) -> Vec<(u64, Vec<u8>)> {
            let mut out: Vec<(u64, Vec<u8>)> = Vec::new();
            for (off, bytes) in self.runs {
                match out.last_mut() {
                    Some((o, b)) if *o + b.len() as u64 == off => b.extend_from_slice(&bytes),
                    _ => out.push((off, bytes)),
                }
            }
            out
        }

        fn encode(self) -> Result<Vec<u8>> {
            let pieces = self.coalesced();
            encode_pieces(pieces.iter().map(|(o, b)| (*o, b.as_slice())))
        }
    }

    /// [`slice_member`] before the cursor — a binary search per request
    /// over the merged runs' prefix sums — kept as its oracle.
    fn slice_member_by_prefix(
        runs: &[(u64, u64)],
        prefix: &[u64],
        blob: &[u8],
        reqs: &[(u64, u64)],
    ) -> Vec<u8> {
        let total: u64 = reqs.iter().map(|&(_, l)| l).sum();
        let mut out = Vec::with_capacity(total as usize);
        for &(off, len) in reqs {
            let idx = runs.partition_point(|&(o, _)| o <= off) - 1;
            let (ro, rl) = runs[idx];
            debug_assert!(
                off >= ro && off + len <= ro + rl,
                "request outside merged run"
            );
            let at = (prefix[idx] + (off - ro)) as usize;
            if at + len as usize <= blob.len() {
                out.extend_from_slice(&blob[at..at + len as usize]);
            } else {
                out.resize(out.len() + len as usize, 0);
            }
        }
        out
    }

    fn pieces(map: PieceMap) -> Vec<(u64, Vec<u8>)> {
        map.coalesced()
    }

    #[test]
    fn piecemap_coalesces_adjacent_extents() {
        let mut m = PieceMap::default();
        m.insert(10, &[1, 2]);
        m.insert(12, &[3, 4]);
        m.insert(20, &[9]);
        assert_eq!(pieces(m), vec![(10, vec![1, 2, 3, 4]), (20, vec![9])]);
    }

    #[test]
    fn piecemap_later_insert_overwrites_overlap() {
        let mut m = PieceMap::default();
        m.insert(0, &[1, 1, 1, 1]);
        m.insert(1, &[2, 2]);
        assert_eq!(pieces(m), vec![(0, vec![1, 2, 2, 1])]);
    }

    #[test]
    fn piecemap_insert_spanning_many_runs() {
        let mut m = PieceMap::default();
        m.insert(0, &[1, 1]);
        m.insert(4, &[2, 2]);
        m.insert(8, &[3, 3]);
        m.insert(1, &[7; 8]);
        assert_eq!(pieces(m), vec![(0, vec![1, 7, 7, 7, 7, 7, 7, 7, 7, 3])]);
    }

    #[test]
    fn piecemap_splits_surrounding_run() {
        let mut m = PieceMap::default();
        m.insert(0, &[5; 10]);
        m.insert(3, &[8, 8]);
        // One coalesced extent, bytes overwritten in the middle.
        let got = pieces(m);
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].0, 0);
        assert_eq!(got[0].1, vec![5, 5, 5, 8, 8, 5, 5, 5, 5, 5]);
    }

    #[test]
    fn piecemap_adjacent_inserts_grow_runs_in_place() {
        // Four members of a node, three strides each, member by member:
        // every piece of members 1..3 continues the run the member before
        // it left, so the map holds one run per stride throughout.
        let mut m = PieceMap::default();
        for member in 0..4u8 {
            for stride in 0..3u64 {
                m.insert(stride * 100 + member as u64 * 2, &[member; 2]);
                let strides_seen = if member == 0 { stride + 1 } else { 3 };
                assert_eq!(m.runs.len() as u64, strides_seen);
            }
        }
        // An overlapping insert still goes the slow way: it splits the run
        // it lands in and its bytes win.
        m.insert(101, &[9; 4]);
        assert_eq!(m.runs.len(), 5);
        assert_eq!(
            pieces(m),
            vec![
                (0, vec![0, 0, 1, 1, 2, 2, 3, 3]),
                (100, vec![0, 9, 9, 9, 9, 2, 3, 3]),
                (200, vec![0, 0, 1, 1, 2, 2, 3, 3]),
            ]
        );
    }

    #[test]
    fn piecemap_empty_insert_is_noop() {
        let mut m = PieceMap::default();
        m.insert(5, &[]);
        assert!(pieces(m).is_empty());
    }

    #[test]
    fn slice_member_walks_one_cursor_over_the_runs() {
        // Merged runs [10,14) and [20,23); blob holds their bytes back to
        // back. A member that asked for (12,2) and (20,3) gets exactly
        // those bytes in request order; one asking below the cursor again
        // restarts it.
        let runs = [(10u64, 4u64), (20, 3)];
        let blob = [10, 11, 12, 13, 20, 21, 22];
        let got = slice_member(&runs, &blob, &[(12, 2), (20, 3)]);
        assert_eq!(got, [12, 13, 20, 21, 22]);
        let got = slice_member(&runs, &blob, &[(21, 2), (10, 1), (13, 0), (13, 1)]);
        assert_eq!(got, [21, 22, 10, 13]);
        let prefix = [0, 4];
        let old = slice_member_by_prefix(&runs, &prefix, &blob, &[(12, 2), (20, 3)]);
        assert_eq!(old, [12, 13, 20, 21, 22]);
    }

    #[test]
    fn slice_member_zero_fills_on_short_blob() {
        let runs = [(0u64, 4u64)];
        assert_eq!(slice_member(&runs, &[], &[(0, 4)]), [0, 0, 0, 0]);
        assert_eq!(slice_member_by_prefix(&runs, &[0], &[], &[(0, 4)]), [0; 4]);
    }

    /// Both leader merges against the code they replaced, over 500 seeded
    /// merges of 1–8 members' ascending lists into a window at a random
    /// start: members interleaving block by block like Program 2's ranks
    /// on a node, or scattered over the window overlapping earlier ones,
    /// with zero-length pieces among them. The write merge must encode the
    /// very bytes `PieceMap` did; the read union must be `ExtentSet`'s
    /// runs, and every member's slice of a random response to them — or
    /// of the empty one a crashed aggregator leaves — what the prefix-sum
    /// search sliced.
    #[test]
    fn leader_merges_match_the_piece_map_and_prefix_sum_oracles() {
        use rand::{RngExt, SeedableRng};
        for seed in 0..500u64 {
            let mut rng = rand::rngs::StdRng::seed_from_u64(0x1ead ^ seed);
            let mut pick = |lo: u64, hi: u64| lo + rng.next_u64() % (hi - lo);
            let (members, block) = (pick(1, 9), pick(1, 16));
            let ws = pick(0, 3) * pick(1, 1 << 30);
            let we = ws + members * block * pick(1, 12) + pick(0, 70);
            let scattered = pick(0, 2) == 0;
            let mut lists: Vec<Vec<(u64, u64)>> = Vec::new();
            for m in 0..members {
                let (mut list, mut end) = (Vec::new(), ws);
                loop {
                    // A zero-length piece where the last one ended: inside a
                    // run of the union, so the prefix-sum oracle takes it.
                    let (off, len) = match (scattered, pick(0, 8)) {
                        (_, 0) if !list.is_empty() => (end, 0),
                        (true, _) => (end + pick(0, 2) * pick(0, 40), pick(1, 30)),
                        (false, _) => {
                            let next = (end - ws).div_ceil(members * block);
                            (ws + (next * members + m) * block, block)
                        }
                    };
                    if off + len > we {
                        break;
                    }
                    list.push((off, len));
                    end = off + len;
                }
                lists.push(list);
            }
            let data =
                |m: usize, i: usize, len: u64| vec![(m * 31 + i * 7) as u8 | 1; len as usize];
            let blobs: Vec<Vec<u8>> = (lists.iter().enumerate())
                .map(|(m, list)| {
                    let owned: Vec<_> = (list.iter().enumerate())
                        .map(|(i, &(off, len))| (off, data(m, i, len)))
                        .collect();
                    encode_pieces(owned.iter().map(|(o, d)| (*o, &d[..]))).unwrap()
                })
                .collect();
            let (merged, moved) = merge_pieces(ws, we, blobs.iter()).unwrap();
            let mut map = PieceMap::default();
            for blob in &blobs {
                for (off, bytes) in decode_pieces(blob).unwrap() {
                    map.insert(off, bytes);
                }
            }
            assert_eq!(merged, map.encode().unwrap(), "seed {seed}: merged list");
            let all: u64 = lists.iter().flatten().map(|&(_, l)| l).sum();
            assert_eq!(moved, all, "seed {seed}: bytes moved");

            let (mut union, mut set) = (Cover::new(ws, we), ExtentSet::new());
            for &(off, len) in lists.iter().flatten() {
                union.insert(off, len).unwrap();
                set.insert(off, len);
            }
            let runs: Vec<_> = union.runs().collect();
            assert_eq!(runs, set.runs(), "seed {seed}: union");
            let prefix: Vec<u64> = (runs.iter())
                .scan(0, |acc, &(_, l)| Some(std::mem::replace(acc, *acc + l)))
                .collect();
            let covered = set.covered() as usize;
            let answer: Vec<u8> = (0..covered).map(|_| pick(0, 256) as u8).collect();
            for blob in [&answer[..], &[]] {
                for reqs in &lists {
                    assert_eq!(
                        slice_member(&runs, blob, reqs),
                        slice_member_by_prefix(&runs, &prefix, blob, reqs),
                        "seed {seed}: a member's slice of {} bytes",
                        blob.len()
                    );
                }
            }
        }
    }
}
