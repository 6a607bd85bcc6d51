//! The TCIO file handle — Program 1's API (`tcio_open`, `tcio_write`,
//! `tcio_write_at`, `tcio_read`, `tcio_read_at`, `tcio_seek`, `tcio_flush`,
//! `tcio_fetch`, `tcio_close`) as a safe Rust type.
//!
//! ## Write path (§IV.A, Fig. 4)
//!
//! Each process owns one **level-1 buffer**: a segment-sized combine buffer
//! aligned with one segment-sized window of the file (charged to the rank's
//! memory budget in full; the process holds only the hull of the bytes the
//! current window has buffered — see `L1`). POSIX-like writes
//! land in it as long as they fall inside the current window; when a write
//! departs the window (or on `flush`/`close`), the buffered blocks are
//! shipped to the owning rank's **level-2 segment** as a *single* gathered
//! one-sided put (the `MPI_Type_indexed` coalescing) under an
//! `MPI_Win_lock`/`unlock` epoch. At `close`, a barrier synchronizes all
//! ranks and each rank drains its own level-2 segments to the file system
//! with large contiguous writes.
//!
//! Past the level-1 copy, each movement is one function: `put_l2` (runs
//! into a level-2 segment and its replica), `write_out` (runs of a buffer
//! to the file system) and `fill_l2` (a rank's segments from the file
//! system into its window); the last two go through [`mpiio::client`] like
//! every request of the stack.
//!
//! ## Read path
//!
//! The read-mode `open` is the delegated read: each rank reads its own
//! level-2 segments from the file system straight into its window, segment
//! `k` of every owner in round `k`, and records when each load completes.
//! Reads are **lazy**: `read`/`read_at` only record `(offset, destination)`;
//! the data moves at `fetch` time (or when the read window departs): the
//! reader waits for its segment's load, then takes one gathered one-sided
//! get under a shared lock.

use crate::config::{ReadMode, SyncMode, TcioConfig};
use crate::error::{Result, TcioError};
use crate::segment::SegmentMap;
use mpiio::client::{self, Direction};
use mpiio::ExtentSet;
use mpisim::{DeferredIo, LockKind, MemGuard, MpiError, Phase, Rank, Window};
use parking_lot::Mutex;
use pfs::{FileId, Pfs};
use std::sync::Arc;

/// Open mode. TCIO handles are single-direction, matching the paper's
/// usage (checkpoint dump, then restart read).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TcioMode {
    /// Create (or truncate) the file for writing.
    Write,
    /// Read an existing file.
    Read,
}

/// The POSIX-like surface [`TcioFile`] implements, and `tcio_seek`'s
/// `whence`.
pub use mpiio::{PositionedFile, Whence};

/// Per-handle statistics (rank-local).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TcioStats {
    /// Level-1 → level-2 flushes performed.
    pub flushes: u64,
    /// Times the level-1 buffer re-aligned to a new window.
    pub window_switches: u64,
    /// Segments this rank loaded from the file system (read-mode open).
    pub loads: u64,
    /// Bytes that passed through the level-1 buffer.
    pub bytes_buffered: u64,
    /// Read requests recorded (lazy) or served (eager).
    pub read_requests: u64,
    /// Blocks split across a segment boundary (spills, §IV.A).
    pub spills: u64,
    /// Level-1 flushes that bypassed level-2 because the segment owner
    /// was stalled by a fault plan (graceful degradation).
    pub l1_fallbacks: u64,
}

/// Shared per-segment bookkeeping, co-located with the level-2 window.
#[derive(Debug, Default)]
struct SegMeta {
    /// Which bytes of the segment hold real data (segment-relative).
    valid: ExtentSet,
    /// Read path: when the open's load of this segment completes; `None`
    /// while its owner has not loaded it.
    ready: Option<f64>,
}

/// Every rank's segments, `rank × num_segments + segment`, shared by all
/// ranks of one open. One lock, held only to read or update an entry:
/// never across a `&mut Rank` call (see `mpisim`'s lock rule).
type SharedMeta = Mutex<Vec<SegMeta>>;

/// Where [`TcioFile::write_out`] reads the bytes it writes: a buffer of
/// this rank, or this rank's own region of a window from a displacement
/// on. A window region is locked per attempt, inside the file-system call,
/// not across the request.
#[derive(Clone, Copy)]
enum Src<'s> {
    Buf(&'s [u8]),
    Local(&'s Window, usize),
}

/// Buddy-replication state for durability epochs. Built only when the
/// attached fault plan contains a crash instant (`any_crash`) on a
/// multi-rank write handle — the inert fast path allocates nothing.
///
/// Every level-1 flush mirrors its gathered put into the *buddy*'s replica
/// window, so a segment owner's crash loses no acknowledged byte: at close
/// the buddy reconstructs the dead owner's dirty runs from its local
/// replica region and drains them to the file system. The buddy of rank
/// `r` is the next non-doomed rank after `r` in the segment map's slot
/// ring — a pure function of the (shared) fault plan and topology, so all
/// ranks agree without communication.
struct Durability {
    /// rank → will the fault plan crash-stop it at some point?
    doomed: Vec<bool>,
    /// rank → the rank holding its replica.
    buddy: Vec<usize>,
    /// rank → the ranks it covers, ascending; a rank's index in its
    /// buddy's list positions its replica inside the replica window.
    covered: Vec<Vec<usize>>,
    /// Replica window: rank `b` exposes `covered[b].len()` level-2 images.
    rwin: Window,
}

impl Durability {
    /// Where `owner`'s level-2 image starts inside the replica window of
    /// `buddy[owner]`.
    fn replica_base(&self, owner: usize, l2_bytes: u64) -> usize {
        let idx = self.covered[self.buddy[owner]]
            .iter()
            .position(|&r| r == owner)
            // `open` builds `covered` by pushing every r onto covered[buddy[r]].
            .expect("owner is covered by its buddy");
        idx * l2_bytes as usize
    }
}

/// Level-1 buffer state. The model's buffer is one segment; `buf` is the
/// part of it the current window has used: the hull of `extents`.
#[derive(Default)]
struct L1 {
    /// File offset of the window the buffer is aligned with.
    window_start: Option<u64>,
    /// Window-relative offset of `buf[0]`.
    base: usize,
    /// Empty after every flush, its capacity kept for the next window.
    buf: Vec<u8>,
    /// Valid bytes, window-relative.
    extents: ExtentSet,
}

impl L1 {
    /// Copy `chunk` in at window-relative `rel`, growing the hull to cover
    /// it. Upward growth is amortised; a write below `base` extends to the
    /// window start at once, so a descending writer shifts the buffer once
    /// per window, not once per write.
    fn place(&mut self, rel: usize, chunk: &[u8]) {
        if self.buf.is_empty() {
            self.base = rel;
        } else if rel < self.base {
            self.buf.splice(0..0, std::iter::repeat_n(0, self.base));
            self.base = 0;
        }
        let at = rel - self.base;
        if at + chunk.len() > self.buf.len() {
            self.buf.resize(at + chunk.len(), 0);
        }
        self.buf[at..at + chunk.len()].copy_from_slice(chunk);
        self.extents.insert(rel as u64, chunk.len() as u64);
    }

    /// The buffered bytes of the window-relative run `(o, l)`.
    fn run(&self, o: u64, l: u64) -> &[u8] {
        &self.buf[o as usize - self.base..][..l as usize]
    }

    fn clear(&mut self) {
        self.buf.clear();
        self.extents.clear();
        self.window_start = None;
    }
}

/// `parts`, emptied, at any lifetime: a borrowing buffer's allocation
/// outlives the borrows it held. Collecting an empty vector's own
/// iterator reuses its allocation, and the map never runs.
fn emptied<'b>(mut parts: Vec<(usize, &[u8])>) -> Vec<(usize, &'b [u8])> {
    parts.clear();
    parts.into_iter().map(|_| unreachable!()).collect()
}

/// The collectives a file issues between `open` and the end of `close`.
#[derive(Debug, Clone, Copy)]
enum Collective {
    /// `MPI_Win_fence` around a level-2 put (`SyncMode::Fence` only).
    Fence,
    /// One of `close`'s two barriers.
    Close,
}

/// An open TCIO file on one rank.
///
/// The lifetime `'a` is the lifetime of the destination buffers handed to
/// lazy reads: they stay mutably borrowed until `fetch`/`close` fills them,
/// which is exactly the contract `tcio_read`'s deferred loading imposes on
/// C callers (the paper stores raw addresses; we store checked borrows).
pub struct TcioFile<'a> {
    pfs: Arc<Pfs>,
    fid: FileId,
    path: String,
    mode: TcioMode,
    cfg: TcioConfig,
    map: SegmentMap,
    win: Window,
    dur: Option<Durability>,
    meta: Arc<SharedMeta>,
    _l1_mem: Option<MemGuard>,
    l1: L1,
    /// Lazy reads not yet served, `(file offset, destination)`, all in
    /// `read_window`.
    pending_reads: Vec<(u64, &'a mut [u8])>,
    read_window: Option<u64>,
    /// `fetch`'s gathered-get parts, empty between fetches and kept for
    /// its capacity.
    get_parts: Vec<(usize, &'a mut [u8])>,
    /// `flush_l1`'s put parts, likewise. They borrow the level-1 buffer
    /// only while a flush runs, so the empty vector is kept at `'static`.
    flush_parts: Vec<(usize, &'static [u8])>,
    /// Cursor for `write`/`read` (the POSIX-style sequential calls).
    pos: u64,
    file_len: u64,
    pub stats: TcioStats,
}

impl std::fmt::Debug for TcioFile<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TcioFile")
            .field("path", &self.path)
            .field("mode", &self.mode)
            .field("pos", &self.pos)
            .field("pending_reads", &self.pending_reads.len())
            .finish_non_exhaustive()
    }
}

impl<'a> TcioFile<'a> {
    /// Collective open (`tcio_open`). All ranks call with identical
    /// arguments.
    pub fn open(
        rank: &mut Rank,
        pfs: &Arc<Pfs>,
        path: &str,
        mode: TcioMode,
        cfg: TcioConfig,
    ) -> Result<TcioFile<'a>> {
        if cfg.segment_size == 0 || cfg.num_segments == 0 {
            return Err(TcioError::Usage(
                "segment_size and num_segments must be positive".into(),
            ));
        }
        // Node-aware owner placement: with a non-trivial topology,
        // consecutive round-robin slots are served one-per-node
        // (interleaved order) so a burst of L1 flushes to consecutive
        // windows spreads across node NICs instead of serializing on one
        // node's link. Without a topology this is the paper's identity
        // mapping, bit-for-bit.
        let map = match rank.topology() {
            Some(topo) => SegmentMap::with_owner_order(cfg.segment_size, topo.interleaved_order()),
            None => SegmentMap::new(cfg.segment_size, rank.nprocs()),
        };
        let (fid, file_len) = match mode {
            TcioMode::Write => {
                let fid = pfs.open_or_create(path)?;
                pfs.truncate(fid, 0)?;
                (fid, 0)
            }
            TcioMode::Read => {
                let fid = pfs.open(path)?;
                (fid, pfs.len(fid)?)
            }
        };
        // Level-2 window: num_segments × segment_size bytes per rank.
        let win = rank.win_create((cfg.l2_bytes()) as usize)?;
        // Durability epochs: with a crash instant somewhere in the fault
        // plan, every rank also exposes a replica window sized for the
        // owners it buddies for. The predicate is a pure function of the
        // shared engine, so the collective `win_create` stays symmetric;
        // without a crash (or single-rank) this allocates nothing and
        // adds zero bookkeeping.
        let dur = match rank.chaos() {
            Some(e) if mode == TcioMode::Write && e.any_crash() && rank.nprocs() > 1 => {
                let n = rank.nprocs();
                let doomed: Vec<bool> = (0..n).map(|r| e.crash_ahead(r)).collect();
                let buddy: Vec<usize> = (0..n)
                    .map(|r| {
                        let s = map.slot_of_owner(r);
                        (1..n)
                            .map(|k| map.owner_of_slot((s + k) % n))
                            .find(|&c| !doomed[c])
                            // Every other rank doomed: best effort, the
                            // next slot (recovery is then impossible).
                            .unwrap_or_else(|| map.owner_of_slot((s + 1) % n))
                    })
                    .collect();
                let mut covered: Vec<Vec<usize>> = vec![Vec::new(); n];
                for (r, &b) in buddy.iter().enumerate() {
                    covered[b].push(r);
                }
                let rwin = rank.win_create(covered[rank.rank()].len() * cfg.l2_bytes() as usize)?;
                Some(Durability {
                    doomed,
                    buddy,
                    covered,
                    rwin,
                })
            }
            _ => None,
        };
        let segs = rank.nprocs() * cfg.num_segments;
        let meta = rank.shared_state(move || {
            Mutex::new((0..segs).map(|_| SegMeta::default()).collect::<Vec<_>>())
        })?;
        // Level-1 buffer: one segment, accounted at every open (the model's
        // footprint) and allocated by the first write to need it.
        let l1_mem = rank.alloc(cfg.segment_size)?;
        let mut file = TcioFile {
            pfs: Arc::clone(pfs),
            fid,
            path: path.to_string(),
            mode,
            map,
            win,
            dur,
            meta,
            _l1_mem: Some(l1_mem),
            l1: L1::default(),
            pending_reads: Vec::new(),
            read_window: None,
            get_parts: Vec::new(),
            flush_parts: Vec::new(),
            pos: 0,
            file_len,
            stats: TcioStats::default(),
            cfg,
        };
        if mode == TcioMode::Read {
            file.fill_l2(rank)?;
        }
        rank.barrier()?;
        Ok(file)
    }

    /// The read-mode open's delegated read: submit the file-system reads
    /// of this rank's level-2 segments, straight into its window, each at
    /// this rank's clock and charged to its own client, and record each
    /// completion as the segment's `ready`. Segment `k` of every owner goes
    /// in round `k`, with a barrier between rounds, so the file system sees
    /// the loads in file order, as P clients issuing their k-th read
    /// together would send them. Rounds past the file's end, or past the
    /// level-2 capacity (`read_at` refuses those reads), are skipped.
    fn fill_l2(&mut self, rank: &mut Rank) -> Result<()> {
        let (s, me) = (self.cfg.segment_size, rank.rank());
        let per_round = s * rank.nprocs() as u64;
        let rounds = (self.file_len.div_ceil(per_round) as usize).min(self.cfg.num_segments);
        let (pfs, fid, win) = (&self.pfs, self.fid, &self.win);
        for segment in 0..rounds {
            if segment > 0 {
                rank.barrier()?;
            }
            let file_off = self.map.file_offset(me, segment);
            let len = s.min(self.file_len.saturating_sub(file_off));
            if len == 0 {
                continue;
            }
            let disp = (segment as u64 * s) as usize;
            pfs.hedge_scope_begin(me);
            let read = |rk: &mut Rank, off: u64, len: u64, _| {
                let now = rk.now();
                win.with_local(|region| {
                    let buf = &mut region[disp..disp + len as usize];
                    pfs.read_at_hedged(fid, me, off, buf, now)
                })
            };
            let io = client::submit(rank, Direction::Read, None, [(file_off, len)], read)?;
            self.meta.lock()[self.seg(me, segment)].ready = Some(io.done);
            self.stats.loads += 1;
        }
        Ok(())
    }

    /// `(owner, segment)`'s entry in the shared segment table.
    fn seg(&self, owner: usize, segment: usize) -> usize {
        owner * self.cfg.num_segments + segment
    }

    fn locate_checked(&self, offset: u64) -> Result<crate::segment::Location> {
        let loc = self.map.locate(offset);
        if loc.segment >= self.cfg.num_segments {
            return Err(TcioError::SegmentOverflow {
                offset,
                needed_segments: loc.segment + 1,
                configured_segments: self.cfg.num_segments,
            });
        }
        Ok(loc)
    }

    // ---- write path ----

    /// `tcio_write_at`: buffer `data` for file offset `offset`.
    pub fn write_at(&mut self, rank: &mut Rank, offset: u64, data: &[u8]) -> Result<()> {
        if self.mode != TcioMode::Write {
            return Err(TcioError::Usage("file is not open for writing".into()));
        }
        let Some(end) = offset.checked_add(data.len() as u64) else {
            return Err(TcioError::Usage(format!(
                "write of {} bytes at offset {offset} exceeds the largest file offset",
                data.len()
            )));
        };
        rank.advance(rank.net_config().api_call_overhead);
        if data.is_empty() {
            return Ok(());
        }
        let s = self.cfg.segment_size;
        // Inside the window the level-1 buffer is open on: that window was
        // located and validated when the buffer opened on it.
        if let Some(window) = self
            .l1
            .window_start
            .filter(|&w| offset >= w && end - w <= s)
        {
            rank.metrics.hit_l1();
            self.fill_l1(rank, (offset - window) as usize, data);
            self.file_len = self.file_len.max(end);
            return Ok(());
        }
        let mut off = offset;
        let mut cursor = 0usize;
        let crosses = self.map.window_start(offset) != self.map.window_start(end - 1);
        if crosses {
            self.stats.spills += 1; // block subdivided across segments (§IV.A)
        }
        while off < end {
            let window = self.map.window_start(off);
            // Validate the level-2 capacity up front so the caller gets the
            // error at the faulty write, not at a later flush.
            self.locate_checked(window)?;
            let chunk_end = end.min(window + s);
            let chunk = &data[cursor..cursor + (chunk_end - off) as usize];
            if self.cfg.use_l1 {
                self.buffer_chunk(rank, window, off, chunk)?;
            } else {
                self.direct_put(rank, off, chunk)?;
            }
            cursor += chunk.len();
            off = chunk_end;
        }
        self.file_len = self.file_len.max(end);
        Ok(())
    }

    /// Place one within-window chunk in the level-1 buffer, flushing first
    /// if the buffer is aligned elsewhere.
    fn buffer_chunk(&mut self, rank: &mut Rank, window: u64, off: u64, chunk: &[u8]) -> Result<()> {
        if self.l1.window_start != Some(window) {
            rank.metrics.miss_l1();
            self.flush_l1(rank)?;
            self.l1.window_start = Some(window);
            self.stats.window_switches += 1;
        } else {
            rank.metrics.hit_l1();
        }
        self.fill_l1(rank, (off - window) as usize, chunk);
        Ok(())
    }

    /// Copy `chunk` into the level-1 buffer at window-relative `rel`.
    fn fill_l1(&mut self, rank: &mut Rank, rel: usize, chunk: &[u8]) {
        let t0 = rank.now();
        self.l1.place(rel, chunk);
        rank.charge_memcpy(chunk.len() as u64);
        self.stats.bytes_buffered += chunk.len() as u64;
        rank.trace_mark("tcio_l1_fill", Phase::Compute, t0, chunk.len() as u64);
    }

    /// Ablation path (`use_l1 = false`): one epoch + one put per block.
    fn direct_put(&mut self, rank: &mut Rank, off: u64, chunk: &[u8]) -> Result<()> {
        let loc = self.locate_checked(off)?;
        let disp = (loc.segment as u64 * self.cfg.segment_size + loc.disp) as usize;
        self.put_l2(rank, loc.owner, loc.segment, &[(disp, chunk)], None)
    }

    /// §IV's second movement, and the one way bytes enter level 2: put
    /// `parts` — `(window displacement, bytes)`, all inside `owner`'s
    /// `segment` — as one gathered message under an exclusive epoch, and
    /// record them as valid. `replica_span` names the span the mirror put
    /// is marked with, if any.
    fn put_l2(
        &self,
        rank: &mut Rank,
        owner: usize,
        segment: usize,
        parts: &[(usize, &[u8])],
        replica_span: Option<&'static str>,
    ) -> Result<()> {
        self.lockstep(rank, Collective::Fence)?;
        // Durability: mirror the gathered put into the owner's buddy
        // *before* the primary, so a flush interrupted between the two
        // loses only unacknowledged bytes (the caller never saw this
        // flush return).
        if let Some(dur) = &self.dur {
            let t_rep = rank.now();
            let base = dur.replica_base(owner, self.cfg.l2_bytes());
            let rparts: Vec<(usize, &[u8])> = parts.iter().map(|&(d, s)| (base + d, s)).collect();
            let mut ep = rank.win_lock(&dur.rwin, dur.buddy[owner], LockKind::Exclusive)?;
            ep.put_gathered(&rparts)?;
            rank.win_unlock(ep)?;
            if let Some(name) = replica_span {
                let bytes = parts.iter().map(|(_, s)| s.len() as u64).sum();
                rank.trace_mark(name, Phase::Exchange, t_rep, bytes);
            }
        }
        // An owner that crash-stopped before this open exposes a zero-byte
        // window; its primary copy is unreachable. The replica put above
        // already made the bytes durable (a crash before open implies the
        // plan has a crash, so `dur` is Some), and the meta insert below
        // lets the buddy's recovery drain find them.
        if self.win.size_of(owner) > 0 {
            let mut ep = rank.win_lock(&self.win, owner, LockKind::Exclusive)?;
            ep.put_gathered(parts)?;
            rank.win_unlock(ep)?;
        }
        self.lockstep(rank, Collective::Fence)?;
        let seg_base = segment as u64 * self.cfg.segment_size;
        let valid = &mut self.meta.lock()[self.seg(owner, segment)].valid;
        for &(d, s) in parts {
            valid.insert(d as u64 - seg_base, s.len() as u64);
        }
        Ok(())
    }

    /// One of this file's collectives. Under `SyncMode::Fence` every flush
    /// is one, so the mode is only legal when all ranks flush in lockstep:
    /// there each collective names itself, and a rank whose fence would
    /// pair with a peer's `close` (or the reverse) fails typed instead of
    /// mis-ordering the flush or hanging. Otherwise a fence is no
    /// collective at all and `close` synchronizes on plain barriers.
    fn lockstep(&self, rank: &mut Rank, what: Collective) -> Result<()> {
        match (self.cfg.sync, what) {
            (SyncMode::LockUnlock, Collective::Fence) => Ok(()),
            (SyncMode::LockUnlock, Collective::Close) => Ok(rank.barrier()?),
            (SyncMode::Fence, Collective::Fence) => rank.win_fence(&self.win),
            (SyncMode::Fence, Collective::Close) => rank.barrier_named(b'C'),
        }
        .map_err(|e| match e {
            MpiError::CollectiveMismatch(_) => TcioError::Usage(format!(
                "SyncMode::Fence needs every rank to flush in lockstep: rank {} reached a \
                 {what:?} collective while a peer was in another",
                rank.rank()
            )),
            e => e.into(),
        })
    }

    /// §IV's third movement: write `runs` of `src` — offsets relative
    /// to `src` and to `file_base` alike — to the file system as one
    /// client request of this rank. The caller settles the handle.
    fn write_out(
        &self,
        rank: &mut Rank,
        src: Src<'_>,
        runs: &[(u64, u64)],
        file_base: u64,
        span: &'static str,
    ) -> Result<DeferredIo> {
        let (pfs, fid, me) = (&self.pfs, self.fid, rank.rank());
        let runs = runs.iter().map(|&(o, l)| (file_base + o, l));
        let write = |rk: &mut Rank, off: u64, len: u64, _| {
            let (at, now) = ((off - file_base) as usize, rk.now());
            let write = |from: &[u8]| pfs.write_at(fid, me, off, &from[at..at + len as usize], now);
            match src {
                Src::Buf(buf) => write(buf),
                Src::Local(win, disp) => win.with_local(|region| write(&region[disp..])),
            }
        };
        let io = client::submit(rank, Direction::Write, Some(span), runs, write)?;
        Ok(io)
    }

    /// Drain the level-1 buffer into its level-2 segment as one gathered
    /// one-sided put.
    fn flush_l1(&mut self, rank: &mut Rank) -> Result<()> {
        let Some(window) = self.l1.window_start else {
            return Ok(());
        };
        let loc = self.locate_checked(window)?;
        debug_assert_eq!(loc.disp, 0);
        let runs = self.l1.extents.runs();
        // Graceful degradation: if the fault plan has the segment owner
        // stalled (now or ahead), parking the window in its level-2 buffer
        // would strand the bytes behind the straggler's drain at close.
        // Ship them straight to the file system instead, leaving the
        // owner's segment untouched so close does not re-drain them.
        if loc.owner != rank.rank()
            && rank
                .chaos()
                .is_some_and(|e| e.stall_ahead(loc.owner, rank.now()))
        {
            let base = self.l1.base as u64;
            let runs: Vec<_> = runs.iter().map(|&(o, l)| (o - base, l)).collect();
            let src = Src::Buf(&self.l1.buf);
            let io = self.write_out(rank, src, &runs, window + base, "tcio_l1_fallback")?;
            client::settle(rank, io);
            self.stats.l1_fallbacks += 1;
        } else {
            let t0 = rank.now();
            let seg_base = loc.segment as u64 * self.cfg.segment_size;
            let part = |&(o, l): &(u64, u64)| ((seg_base + o) as usize, self.l1.run(o, l));
            let mut parts: Vec<(usize, &[u8])> = std::mem::take(&mut self.flush_parts);
            parts.extend(runs.iter().map(part));
            let put = self.put_l2(rank, loc.owner, loc.segment, &parts, Some("tcio_replicate"));
            self.flush_parts = emptied(parts);
            put?;
            let flushed = runs.iter().map(|&(_, l)| l).sum();
            rank.trace_mark("tcio_flush", Phase::Exchange, t0, flushed);
        }
        self.stats.flushes += 1;
        self.l1.clear();
        Ok(())
    }

    /// `tcio_flush`: collective — drain every rank's level-1 buffer (write
    /// mode) or resolve its pending lazy reads (read mode), then
    /// synchronize (the paper's implementation issues `MPI_Barrier`).
    pub fn flush(&mut self, rank: &mut Rank) -> Result<()> {
        match self.mode {
            TcioMode::Write => self.flush_l1(rank)?,
            TcioMode::Read => self.fetch(rank)?,
        }
        Ok(rank.barrier()?)
    }

    // ---- read path ----

    /// `tcio_read_at`: record a read of `buf.len()` bytes at `offset`.
    /// With [`ReadMode::Lazy`] the data arrives at the next `fetch` (or
    /// window departure); with [`ReadMode::Eager`] it arrives before the
    /// call returns.
    pub fn read_at(&mut self, rank: &mut Rank, offset: u64, buf: &'a mut [u8]) -> Result<()> {
        if self.mode != TcioMode::Read {
            return Err(TcioError::Usage("file is not open for reading".into()));
        }
        rank.advance(rank.net_config().api_call_overhead);
        if buf.is_empty() {
            return Ok(());
        }
        let len = buf.len() as u64;
        if offset
            .checked_add(len)
            .is_none_or(|end| end > self.file_len)
        {
            return Err(TcioError::Usage(format!(
                "read [{offset}, {}) past end of file ({} bytes)",
                offset.saturating_add(len),
                self.file_len
            )));
        }
        let s = self.cfg.segment_size;
        // Inside the window the pending reads are in: nothing to split,
        // locate or resolve first.
        if self
            .read_window
            .is_some_and(|w| offset >= w && offset + len - w <= s)
        {
            self.stats.read_requests += 1;
            self.pending_reads.push((offset, buf));
            if self.cfg.read_mode == ReadMode::Eager {
                self.fetch(rank)?;
            }
            return Ok(());
        }
        // The last byte's segment is the read's highest: refuse a read past
        // the level-2 capacity here, before anything is recorded, not at
        // the fetch that would serve it.
        self.locate_checked(self.map.window_start(offset + len - 1))?;
        self.stats.read_requests += 1;
        // Split at segment-window boundaries so each pending entry lives in
        // exactly one segment.
        let mut off = offset;
        let mut rest = buf;
        while !rest.is_empty() {
            let window = self.map.window_start(off);
            let take = ((window + s - off) as usize).min(rest.len());
            let (piece, tail) = rest.split_at_mut(take);
            rest = tail;
            // Window-departure rule: resolve older requests first.
            if self.read_window != Some(window) {
                self.fetch(rank)?;
                self.read_window = Some(window);
            }
            self.pending_reads.push((off, piece));
            if self.cfg.read_mode == ReadMode::Eager {
                self.fetch(rank)?;
            }
            off += take as u64;
        }
        Ok(())
    }

    /// Serve `parts` from `(owner, segment)`: wait under `Phase::Io` for
    /// the open's load of the segment to complete, then take one gathered
    /// get under a shared lock.
    fn get_l2(
        &self,
        rank: &mut Rank,
        owner: usize,
        segment: usize,
        parts: &mut [(usize, &mut [u8])],
    ) -> Result<()> {
        // An owner that crash-stopped before it loaded the segment (before
        // this open, or inside it) never recorded the load, and its level-2
        // cache does not hold the bytes. Serve the parts straight from the
        // file system instead — no caching, every reader pays the I/O, but
        // the data flows.
        let ready = self.meta.lock()[self.seg(owner, segment)].ready;
        let Some(ready) = ready else {
            rank.metrics.miss_l2();
            let t0 = rank.now();
            // One sieved read covering the whole group (the span between
            // the extreme parts is in-file: every part end was validated
            // against the file length), at this rank's clock and charged
            // to its own client, then scatter into the buffers. The memory
            // guard keeps the temporary charged to this rank.
            let lo = parts.iter().map(|p| p.0).min().unwrap_or(0);
            let hi = parts.iter().map(|(d, b)| d + b.len()).max().unwrap_or(0);
            let seg_base = segment as u64 * self.cfg.segment_size;
            let file_off = self.map.file_offset(owner, segment) + (lo as u64 - seg_base);
            let len = (hi - lo) as u64;
            let _tmp_mem = rank.alloc(len)?;
            let mut tmp = vec![0u8; hi - lo];
            let (pfs, fid, me) = (&self.pfs, self.fid, rank.rank());
            pfs.hedge_scope_begin(me);
            let read =
                |rk: &mut Rank, off, _, _| pfs.read_at_hedged(fid, me, off, &mut tmp, rk.now());
            let io = client::submit(rank, Direction::Read, None, [(file_off, len)], read)?;
            rank.with_phase(Phase::Io, |rk| client::settle(rk, io));
            let mut bytes = 0u64;
            for (disp, buf) in parts.iter_mut() {
                buf.copy_from_slice(&tmp[*disp - lo..][..buf.len()]);
                bytes += buf.len() as u64;
            }
            rank.charge_memcpy(bytes);
            rank.trace_mark("tcio_read_fallback", Phase::Io, t0, bytes);
            return Ok(());
        };
        rank.metrics.hit_l2();
        if ready > rank.now() {
            let t0 = rank.now();
            rank.with_phase(Phase::Io, |rk| rk.sync_to(ready));
            rank.trace_mark("tcio_load", Phase::Io, t0, 0);
        }
        let mut ep = rank.win_lock(&self.win, owner, LockKind::Shared)?;
        ep.get_gathered(parts)?;
        rank.win_unlock(ep)?;
        Ok(())
    }

    /// `tcio_fetch`: resolve all recorded lazy reads.
    ///
    /// `read_at` resolves its pending reads whenever it leaves their
    /// window, so they all lie in `read_window`: one `(owner, segment)`,
    /// served by one gathered get in push order.
    pub fn fetch(&mut self, rank: &mut Rank) -> Result<()> {
        if self.pending_reads.is_empty() {
            return Ok(());
        }
        // Invariant: `read_at` sets the window before it pushes a read,
        // and only this function, which empties both, clears it.
        let window = self
            .read_window
            .take()
            .expect("pending reads have a window");
        let loc = self.map.locate(window);
        debug_assert!(
            loc.segment < self.cfg.num_segments,
            "read_at validated the window"
        );
        let seg_base = loc.segment as u64 * self.cfg.segment_size;
        let s = self.cfg.segment_size;
        let mut parts = std::mem::take(&mut self.get_parts);
        parts.extend(self.pending_reads.drain(..).map(|(off, buf)| {
            debug_assert!(off >= window && off + buf.len() as u64 - window <= s);
            ((seg_base + off - window) as usize, buf)
        }));
        let served = self.get_l2(rank, loc.owner, loc.segment, &mut parts);
        parts.clear();
        self.get_parts = parts;
        served
    }

    // ---- close ----

    /// `tcio_close`: collective. Write mode: barrier, then each rank drains
    /// its populated level-2 segments to the file system with large
    /// contiguous writes. Read mode: resolves outstanding lazy reads.
    ///
    /// Under a crash fault plan (durability epochs active), a doomed rank
    /// never drains — its buddy reconstructs every dirty segment from the
    /// replica window and drains it instead, so the file ends up
    /// bit-identical to the fault-free run for all acknowledged bytes.
    pub fn close(mut self, rank: &mut Rank) -> Result<TcioStats> {
        match self.mode {
            TcioMode::Write => {
                self.flush_l1(rank)?;
                self.lockstep(rank, Collective::Close)?;
                let doomed = self.dur.as_ref().is_some_and(|d| d.doomed[rank.rank()]);
                if !doomed {
                    self.drain_l2(rank)?;
                    self.recover_l2(rank)?;
                }
            }
            TcioMode::Read => self.fetch(rank)?,
        }
        self.lockstep(rank, Collective::Close)?;
        Ok(self.stats)
    }

    /// Drain this rank's populated level-2 segments: every segment's writes
    /// are submitted at the drain's start, and the whole drain is one wait
    /// and one span.
    fn drain_l2(&mut self, rank: &mut Rank) -> Result<()> {
        let me = rank.rank();
        let t0 = rank.now();
        let mut whole = DeferredIo {
            name: "tcio_drain",
            submitted: t0,
            done: t0,
            bytes: 0,
        };
        for seg in 0..self.cfg.num_segments {
            // Drained once: only this rank drains its own segments.
            let valid = std::mem::take(&mut self.meta.lock()[self.seg(me, seg)].valid);
            let runs = valid.runs();
            if runs.is_empty() {
                continue;
            }
            let file_base = self.map.file_offset(me, seg);
            let src = Src::Local(&self.win, seg * self.cfg.segment_size as usize);
            let io = self.write_out(rank, src, runs, file_base, "tcio_drain")?;
            whole.done = whole.done.max(io.done);
            whole.bytes += io.bytes;
        }
        client::settle(rank, whole);
        Ok(())
    }

    /// Recovery drain: for every doomed rank this rank buddies for,
    /// reconstruct its dirty segments from the local replica region and
    /// write them to the file system. The dead owner's primary copy is
    /// quarantined (zeroed) first — its memory died with the process, and
    /// poisoning it proves the recovered bytes can only have come from the
    /// replica.
    fn recover_l2(&mut self, rank: &mut Rank) -> Result<()> {
        let Some(dur) = &self.dur else {
            return Ok(());
        };
        let me = rank.rank();
        for &d in dur.covered[me].iter().filter(|&&d| dur.doomed[d]) {
            let image = dur.replica_base(d, self.cfg.l2_bytes());
            for seg in 0..self.cfg.num_segments {
                // Recovered once: `d` has one buddy, and a doomed rank
                // never drains.
                let valid = std::mem::take(&mut self.meta.lock()[self.seg(d, seg)].valid);
                let runs = valid.runs();
                if runs.is_empty() {
                    continue;
                }
                let t0 = rank.now();
                let seg_base = seg * self.cfg.segment_size as usize;
                // A rank that died before the open has a zero-byte window:
                // nothing to quarantine, its primary copy never existed.
                if self.win.size_of(d) > 0 {
                    let maxlen = runs.iter().map(|&(_, l)| l).max().unwrap_or(0);
                    let zeros = vec![0u8; maxlen as usize];
                    let mut ep = rank.win_lock(&self.win, d, LockKind::Exclusive)?;
                    for &(o, l) in runs {
                        ep.put(seg_base + o as usize, &zeros[..l as usize])?;
                    }
                    rank.win_unlock(ep)?;
                }
                let file_base = self.map.file_offset(d, seg);
                let src = Src::Local(&dur.rwin, image + seg_base);
                let mut io = self.write_out(rank, src, runs, file_base, "tcio_recover")?;
                // The span covers the quarantine as well as the writes.
                io.submitted = t0;
                client::settle(rank, io);
                rank.stats.segments_recovered += 1;
            }
        }
        Ok(())
    }
}

/// Program 1's `tcio_seek`, cursor `tcio_write`/`tcio_read` and datatype
/// arguments are the provided methods TCIO shares with independent MPI-IO.
impl<'a> PositionedFile<'a> for TcioFile<'a> {
    type Error = TcioError;

    fn write_at(&mut self, rank: &mut Rank, offset: u64, data: &[u8]) -> Result<()> {
        TcioFile::write_at(self, rank, offset, data)
    }

    fn read_at(&mut self, rank: &mut Rank, offset: u64, buf: &'a mut [u8]) -> Result<()> {
        TcioFile::read_at(self, rank, offset, buf)
    }

    fn close(self, rank: &mut Rank) -> Result<()> {
        TcioFile::close(self, rank).map(drop)
    }

    fn position(&self) -> u64 {
        self.pos
    }

    fn set_position(&mut self, pos: u64) {
        self.pos = pos;
    }

    /// The file length visible to reads (what writes have reached so far).
    fn end(&self) -> Result<u64> {
        Ok(self.file_len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpisim::SimConfig;
    use pfs::PfsConfig;

    fn small_cfg(nsegs: usize) -> TcioConfig {
        TcioConfig {
            segment_size: 64,
            num_segments: nsegs,
            ..Default::default()
        }
    }

    fn write_interleaved(
        nprocs: usize,
        blocks_per_rank: usize,
        block: usize,
        cfg: TcioConfig,
    ) -> (Arc<Pfs>, Vec<TcioStats>) {
        // Block b of the file belongs to rank b % P, filled with (r+1).
        let fs = Pfs::new(nprocs, PfsConfig::default()).unwrap();
        let fs2 = Arc::clone(&fs);
        let rep = mpisim::run(nprocs, SimConfig::default(), move |rk| {
            let mut f = TcioFile::open(rk, &fs2, "/t", TcioMode::Write, cfg.clone())?;
            let me = rk.rank();
            let data = vec![me as u8 + 1; block];
            for i in 0..blocks_per_rank {
                let off = ((i * rk.nprocs() + me) * block) as u64;
                f.write_at(rk, off, &data)?;
            }
            Ok(f.close(rk)?)
        })
        .unwrap();
        (fs, rep.results)
    }

    fn check_interleaved(fs: &Arc<Pfs>, nprocs: usize, blocks_per_rank: usize, block: usize) {
        let fid = fs.open("/t").unwrap();
        let bytes = fs.snapshot_file(fid).unwrap();
        assert!(bytes.len() >= nprocs * blocks_per_rank * block);
        for b in 0..nprocs * blocks_per_rank {
            let expect = (b % nprocs) as u8 + 1;
            assert!(
                bytes[b * block..(b + 1) * block]
                    .iter()
                    .all(|&x| x == expect),
                "block {b} corrupted"
            );
        }
    }

    #[test]
    fn interleaved_write_roundtrip() {
        let (fs, stats) = write_interleaved(4, 8, 16, small_cfg(8));
        check_interleaved(&fs, 4, 8, 16);
        // Each rank visited several windows, so flushes must have happened
        // before close.
        assert!(stats.iter().all(|s| s.flushes >= 1));
        assert!(stats.iter().all(|s| s.bytes_buffered == 8 * 16));
    }

    #[test]
    fn node_aware_owner_order_is_byte_identical() {
        // Same interleaved workload as above, but on 2- and 4-rank nodes:
        // the permuted L2 owner placement must not change a single file
        // byte, only who buffers what.
        let (flat_fs, _) = write_interleaved(8, 6, 16, small_cfg(8));
        let fid = flat_fs.open("/t").unwrap();
        let flat = flat_fs.snapshot_file(fid).unwrap();
        for ppn in [2usize, 4] {
            let fs = Pfs::new(8, PfsConfig::default()).unwrap();
            let fs2 = Arc::clone(&fs);
            let cfg = small_cfg(8);
            let sim = SimConfig {
                topology: Some(mpisim::Topology::blocked(8, ppn)),
                ..Default::default()
            };
            mpisim::run(8, sim, move |rk| {
                let mut f = TcioFile::open(rk, &fs2, "/t", TcioMode::Write, cfg.clone())?;
                let me = rk.rank();
                let data = vec![me as u8 + 1; 16];
                for i in 0..6 {
                    let off = ((i * rk.nprocs() + me) * 16) as u64;
                    f.write_at(rk, off, &data)?;
                }
                Ok(f.close(rk)?)
            })
            .unwrap();
            let fid = fs.open("/t").unwrap();
            assert_eq!(fs.snapshot_file(fid).unwrap(), flat, "ppn={ppn} diverged");
        }
    }

    #[test]
    fn single_rank_write() {
        let (fs, _) = write_interleaved(1, 10, 32, small_cfg(8));
        check_interleaved(&fs, 1, 10, 32);
    }

    #[test]
    fn blocks_spanning_segments_spill() {
        // Segment size 64, blocks of 100 bytes: every block spans windows.
        let (fs, stats) = write_interleaved(2, 4, 100, small_cfg(16));
        check_interleaved(&fs, 2, 4, 100);
        assert!(stats.iter().all(|s| s.spills >= 1));
    }

    #[test]
    fn block_larger_than_two_segments() {
        let (fs, _) = write_interleaved(2, 2, 200, small_cfg(16));
        check_interleaved(&fs, 2, 2, 200);
    }

    #[test]
    fn no_l1_ablation_still_correct() {
        let mut cfg = small_cfg(8);
        cfg.use_l1 = false;
        let (fs, stats) = write_interleaved(4, 8, 16, cfg);
        check_interleaved(&fs, 4, 8, 16);
        assert!(stats.iter().all(|s| s.flushes == 0), "no L1 → no flushes");
    }

    #[test]
    fn fence_sync_ablation_symmetric_workload() {
        let mut cfg = small_cfg(8);
        cfg.sync = SyncMode::Fence;
        let (fs, _) = write_interleaved(4, 8, 16, cfg);
        check_interleaved(&fs, 4, 8, 16);
    }

    #[test]
    fn segment_overflow_is_reported() {
        let fs = Pfs::new(2, PfsConfig::default()).unwrap();
        let fs2 = Arc::clone(&fs);
        mpisim::run(2, SimConfig::default(), move |rk| {
            let mut f = TcioFile::open(rk, &fs2, "/o", TcioMode::Write, small_cfg(1))?;
            // Window index 4 → segment 2 on a 2-proc run, but only 1
            // segment is configured.
            let refused = f.write_at(rk, 64 * 4, &[1]);
            assert!(
                matches!(refused, Err(TcioError::SegmentOverflow { .. })),
                "expected overflow, got {refused:?}"
            );
            Ok(())
        })
        .unwrap();
    }

    #[test]
    fn a_read_past_the_level_2_capacity_fails_at_the_read() {
        let fs = Pfs::new(2, PfsConfig::default()).unwrap();
        let fs2 = Arc::clone(&fs);
        mpisim::run(2, SimConfig::default(), move |rk| {
            // 400 bytes are windows 0..=6, and window 6 is segment 3 of
            // its owner: four segments hold the file.
            let mut f = TcioFile::open(rk, &fs2, "/cap", TcioMode::Write, small_cfg(4))?;
            if rk.rank() == 0 {
                f.write_at(rk, 0, &[5u8; 400])?;
            }
            f.close(rk)?;
            // A reader with one segment cannot serve window 3 (segment 1).
            let mut buf = [0u8; 8];
            let mut g = TcioFile::open(rk, &fs2, "/cap", TcioMode::Read, small_cfg(1))?;
            let refused = g.read_at(rk, 192, &mut buf);
            assert!(
                matches!(
                    refused,
                    Err(TcioError::SegmentOverflow {
                        offset: 192,
                        needed_segments: 2,
                        configured_segments: 1
                    })
                ),
                "expected overflow at the read, got {refused:?}"
            );
            // Nothing was recorded, so nothing is left to fail at close.
            let stats = g.close(rk)?;
            assert_eq!(stats.read_requests, 0);
            Ok(())
        })
        .unwrap();
    }

    #[test]
    fn lazy_read_roundtrip_with_fetch() {
        let nprocs = 4;
        let (fs, _) = write_interleaved(nprocs, 8, 16, small_cfg(8));
        let fs2 = Arc::clone(&fs);
        let rep = mpisim::run(nprocs, SimConfig::default(), move |rk| {
            let mut f = TcioFile::open(rk, &fs2, "/t", TcioMode::Read, small_cfg(8))?;
            let me = rk.rank();
            let mut bufs: Vec<Vec<u8>> = vec![vec![0u8; 16]; 8];
            {
                let mut iter = bufs.iter_mut();
                for i in 0..8 {
                    let off = ((i * nprocs + me) * 16) as u64;
                    let buf = iter.next().unwrap();
                    f.read_at(rk, off, buf)?;
                }
            }
            f.fetch(rk)?;
            f.close(rk)?;
            Ok(bufs)
        })
        .unwrap();
        for (r, bufs) in rep.results.iter().enumerate() {
            for buf in bufs {
                assert!(
                    buf.iter().all(|&b| b == r as u8 + 1),
                    "rank {r} read bad data"
                );
            }
        }
    }

    #[test]
    fn lazy_reads_resolved_by_close_without_explicit_fetch() {
        let nprocs = 2;
        let (fs, _) = write_interleaved(nprocs, 4, 16, small_cfg(8));
        let fs2 = Arc::clone(&fs);
        let rep = mpisim::run(nprocs, SimConfig::default(), move |rk| {
            let mut f = TcioFile::open(rk, &fs2, "/t", TcioMode::Read, small_cfg(8))?;
            let mut buf = vec![0u8; 16];
            let off = (rk.rank() * 16) as u64;
            f.read_at(rk, off, &mut buf)?;
            f.close(rk)?;
            Ok(buf)
        })
        .unwrap();
        for (r, buf) in rep.results.iter().enumerate() {
            assert!(buf.iter().all(|&b| b == r as u8 + 1));
        }
    }

    #[test]
    fn eager_read_ablation() {
        let nprocs = 2;
        let (fs, _) = write_interleaved(nprocs, 4, 16, small_cfg(8));
        let fs2 = Arc::clone(&fs);
        let rep = mpisim::run(nprocs, SimConfig::default(), move |rk| {
            let mut cfg = small_cfg(8);
            cfg.read_mode = ReadMode::Eager;
            let mut f = TcioFile::open(rk, &fs2, "/t", TcioMode::Read, cfg)?;
            let mut buf = vec![0u8; 16];
            let off = ((4 + rk.rank()) * 16) as u64 % 128;
            f.read_at(rk, off, &mut buf)?;
            // Eager: data is already there; closing ends the borrow so the
            // buffer can be inspected without an explicit fetch.
            f.close(rk)?;
            let first = buf[0];
            Ok((buf, first))
        })
        .unwrap();
        for (buf, first) in rep.results {
            assert_ne!(first, 0, "eager read must fill before returning");
            assert!(buf.iter().all(|&b| b == first));
        }
    }

    #[test]
    fn read_past_eof_rejected() {
        let fs = Pfs::new(1, PfsConfig::default()).unwrap();
        let fs2 = Arc::clone(&fs);
        mpisim::run(1, SimConfig::default(), move |rk| {
            let mut f = TcioFile::open(rk, &fs2, "/eof", TcioMode::Write, small_cfg(4))?;
            f.write(rk, &[1, 2, 3])?;
            f.close(rk)?;
            let mut g = TcioFile::open(rk, &fs2, "/eof", TcioMode::Read, small_cfg(4))?;
            let mut buf = vec![0u8; 4];
            assert!(matches!(
                g.read_at(rk, 0, &mut buf),
                Err(TcioError::Usage(_))
            ));
            g.close(rk)?;
            Ok(())
        })
        .unwrap();
    }

    #[test]
    fn wrong_mode_operations_rejected() {
        let fs = Pfs::new(1, PfsConfig::default()).unwrap();
        let fs2 = Arc::clone(&fs);
        mpisim::run(1, SimConfig::default(), move |rk| {
            let mut f = TcioFile::open(rk, &fs2, "/m", TcioMode::Write, small_cfg(4))?;
            f.write(rk, &[1])?;
            // Reading a write-mode handle is a usage error. The destination
            // buffer lives as long as the handle, which the API requires.
            let mut probe = [0u8; 1];
            match f.read_at(rk, 0, &mut probe) {
                Err(TcioError::Usage(_)) => {}
                other => panic!("expected usage error, got {other:?}"),
            }
            f.close(rk)?;
            Ok(())
        })
        .unwrap();
    }

    #[test]
    fn overlapping_writes_last_writer_wins_within_rank() {
        let fs = Pfs::new(1, PfsConfig::default()).unwrap();
        let fs2 = Arc::clone(&fs);
        mpisim::run(1, SimConfig::default(), move |rk| {
            let mut f = TcioFile::open(rk, &fs2, "/ow", TcioMode::Write, small_cfg(4))?;
            f.write_at(rk, 0, &[1; 10])?;
            f.write_at(rk, 5, &[2; 10])?;
            f.close(rk)?;
            Ok(())
        })
        .unwrap();
        let fid = fs.open("/ow").unwrap();
        let bytes = fs.snapshot_file(fid).unwrap();
        assert_eq!(&bytes[0..5], &[1; 5]);
        assert_eq!(&bytes[5..15], &[2; 10]);
    }

    #[test]
    fn sparse_file_close_only_writes_valid_runs() {
        let fs = Pfs::new(2, PfsConfig::default()).unwrap();
        let fs2 = Arc::clone(&fs);
        mpisim::run(2, SimConfig::default(), move |rk| {
            let mut f = TcioFile::open(rk, &fs2, "/sp", TcioMode::Write, small_cfg(8))?;
            // Only rank 0 writes, and only 8 bytes far into the file.
            if rk.rank() == 0 {
                f.write_at(rk, 300, &[7u8; 8])?;
            }
            f.close(rk)?;
            Ok(())
        })
        .unwrap();
        let fid = fs.open("/sp").unwrap();
        let bytes = fs.snapshot_file(fid).unwrap();
        assert_eq!(bytes.len(), 308);
        assert!(bytes[..300].iter().all(|&b| b == 0));
        assert!(bytes[300..].iter().all(|&b| b == 7));
    }

    #[test]
    fn stats_track_flushes_and_loads() {
        let (fs, stats) = write_interleaved(2, 8, 16, small_cfg(8));
        // Each rank writes 8 blocks of 16 B = two 64 B windows worth of its
        // own data spread over 4 windows... window switches > 1.
        assert!(stats.iter().all(|s| s.window_switches >= 1));
        let fs2 = Arc::clone(&fs);
        let rep = mpisim::run(2, SimConfig::default(), move |rk| {
            let mut f = TcioFile::open(rk, &fs2, "/t", TcioMode::Read, small_cfg(8))?;
            let mut buf = vec![0u8; 16];
            f.read_at(rk, (rk.rank() * 16) as u64, &mut buf)?;
            f.fetch(rk)?;
            let stats = f.close(rk)?;
            Ok(stats)
        })
        .unwrap();
        // 256 bytes are four windows: each owner loaded its two at the open.
        assert!(rep.results.iter().all(|s| s.loads == 2));
        assert!(rep.results.iter().all(|s| s.read_requests == 1));
    }

    /// The bytes of a file written straight to the file system.
    fn content(len: usize) -> Vec<u8> {
        (0..len).map(|i| (i % 251) as u8).collect()
    }

    /// A fresh file system holding `content(len)` at `path`.
    fn on_disk(nprocs: usize, path: &str, len: usize) -> Arc<Pfs> {
        let fs = Pfs::new(nprocs, PfsConfig::default()).unwrap();
        let fid = fs.create(path).unwrap();
        fs.write_at(fid, 0, 0, &content(len), 0.0).unwrap();
        fs
    }

    #[test]
    fn no_rank_gets_a_segment_before_its_load_completes() {
        const SEG: u64 = 1 << 20;
        let nprocs = 3;
        for backend in [mpisim::Backend::Event, mpisim::Backend::Thread] {
            let fs = on_disk(nprocs, "/c", nprocs * SEG as usize);
            // One whole segment on one OST: no load can complete sooner.
            let load = SEG as f64 / fs.config().ost_read_bw;
            let sim = SimConfig {
                backend,
                ..Default::default()
            };
            let rep = mpisim::run(nprocs, sim, |rk| {
                let cfg = TcioConfig {
                    segment_size: SEG,
                    num_segments: 1,
                    ..Default::default()
                };
                let before = rk.now();
                let mut buf = [0u8; 8];
                let mut f = TcioFile::open(rk, &fs, "/c", TcioMode::Read, cfg)?;
                // Every rank reads 8 bytes of rank 0's segment 0.
                f.read_at(rk, 8 * rk.rank() as u64, &mut buf)?;
                f.fetch(rk)?;
                let after = rk.now();
                f.close(rk)?;
                Ok((before, after, buf))
            })
            .unwrap();
            for (r, &(before, after, buf)) in rep.results.iter().enumerate() {
                assert!(
                    after >= before + load,
                    "{backend:?}: rank {r} got its bytes at {after}, before a load from {before} \
                     could complete ({load} s)"
                );
                assert_eq!(
                    buf[..],
                    content(8 * r + 8)[8 * r..],
                    "{backend:?}: rank {r}"
                );
            }
        }
    }

    #[test]
    fn a_segment_its_owner_died_before_loading_is_read_from_the_file_system() {
        // Rank 1 crash-stops inside the read-mode open, after it exposed
        // its window and before it loaded a segment.
        let (nprocs, len) = (3, 292);
        let fs = on_disk(nprocs, "/d", len);
        let crash = chaos::Fault::RankCrash { rank: 1, at: 1e-6 };
        let sim = SimConfig {
            chaos: Some(chaos::FaultPlan::new(1).with(crash).build().unwrap()),
            ..Default::default()
        };
        let rep = mpisim::run(nprocs, sim, |rk| {
            let mut back = vec![0u8; len];
            let mut f = match TcioFile::open(rk, &fs, "/d", TcioMode::Read, small_cfg(4)) {
                Err(TcioError::Mpi(MpiError::RankCrashed { rank: 1 })) => return Ok(None),
                opened => opened?,
            };
            assert_eq!(f.win.size_of(1), 256, "rank 1 died inside the open");
            f.read_at(rk, 0, &mut back)?;
            f.close(rk)?;
            Ok(Some(back))
        })
        .unwrap();
        assert_eq!(rep.results[1], None);
        for r in [0, 2] {
            assert_eq!(
                rep.results[r].as_deref(),
                Some(&content(len)[..]),
                "rank {r}"
            );
        }
    }

    #[test]
    fn owners_load_their_segments_at_the_open() {
        // Three ranks over 64-byte segments, 292 bytes: two rounds. Round 0
        // is segment 0 of every owner; round 1 is 64 bytes of rank 0's
        // segment 1 and 36 of rank 1's, and rank 2's is past the end.
        let (nprocs, len) = (3, 292);
        let fs = on_disk(nprocs, "/o", len);
        let rep = mpisim::run(nprocs, SimConfig::default(), |rk| {
            let mut back = vec![0u8; len];
            let mut f = TcioFile::open(rk, &fs, "/o", TcioMode::Read, small_cfg(4))?;
            let loads = f.stats.loads;
            f.read_at(rk, 0, &mut back)?;
            f.close(rk)?;
            Ok((loads, back))
        })
        .unwrap();
        for (r, (loads, back)) in rep.results.iter().enumerate() {
            let own = [2, 2, 1][r];
            assert_eq!(*loads, own, "rank {r}: loads when the open returned");
            assert_eq!(rep.stats[r].io_reads, own, "rank {r}: file-system reads");
            assert_eq!(*back, content(len), "rank {r}");
        }
    }

    #[test]
    fn l1_hull_starts_at_the_first_write_and_extends_back() {
        let mut l1 = L1::default();
        l1.place(40, &[1; 4]);
        assert_eq!((l1.base, l1.buf.len()), (40, 4), "no byte below the write");
        l1.place(50, &[2; 6]);
        assert_eq!((l1.base, l1.buf.len()), (40, 16));
        assert_eq!(l1.extents.runs(), &[(40, 4), (50, 6)]);
        assert_eq!((l1.run(40, 4), l1.run(50, 6)), (&[1; 4][..], &[2; 6][..]));
    }

    #[test]
    fn l1_hull_extends_front_to_the_window_start_once() {
        let mut l1 = L1::default();
        l1.place(40, &[1; 4]);
        l1.place(30, &[2; 4]);
        assert_eq!((l1.base, l1.buf.len()), (0, 44), "straight to the start");
        l1.place(10, &[3; 4]);
        assert_eq!((l1.base, l1.buf.len()), (0, 44), "descending is free now");
        for (o, fill) in [(40, 1), (30, 2), (10, 3)] {
            assert_eq!(l1.run(o, 4), &[fill; 4]);
        }
    }

    #[test]
    fn l1_overwrite_inside_the_hull_moves_nothing() {
        let mut l1 = L1::default();
        l1.place(8, &[1; 16]);
        l1.place(12, &[2; 4]);
        assert_eq!((l1.base, l1.buf.len()), (8, 16));
        assert_eq!(l1.extents.runs(), &[(8, 16)]);
        let mut expect = [1u8; 16];
        expect[4..8].fill(2);
        assert_eq!(l1.run(8, 16), &expect);
        // A flush empties the hull and keeps its allocation.
        let capacity = l1.buf.capacity();
        l1.clear();
        assert!(l1.buf.is_empty() && l1.extents.runs().is_empty());
        assert_eq!(l1.buf.capacity(), capacity);
        l1.place(60, &[3; 4]);
        assert_eq!((l1.base, l1.buf.len()), (60, 4));
    }

    /// How the bytes of one property-test case travel.
    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Route {
        L1,
        NoL1,
        /// A stalled owner: flushes to its windows take the level-1 fallback.
        Stalled(usize),
    }

    /// The plain flat model of one writer: the file as one byte vector and
    /// the stats `write_at` + `close` should report for it.
    fn flat_reference(
        ops: &[(u64, Vec<u8>)],
        map: &SegmentMap,
        writer: usize,
        route: Route,
    ) -> (Vec<u8>, TcioStats) {
        let mut image = Vec::new();
        let mut stats = TcioStats::default();
        let mut current = None;
        let flush = |stats: &mut TcioStats, window: u64| {
            stats.flushes += 1;
            let owner = map.locate(window).owner;
            if route == Route::Stalled(owner) && owner != writer {
                stats.l1_fallbacks += 1;
            }
        };
        for (off, data) in ops {
            let (off, end) = (*off as usize, *off as usize + data.len());
            image.resize(image.len().max(end), 0);
            image[off..end].copy_from_slice(data);
            let windows = (off as u64..end as u64).map(|o| map.window_start(o));
            let mut visited: Vec<u64> = windows.collect();
            visited.dedup();
            stats.spills += (visited.len() > 1) as u64;
            if route == Route::NoL1 {
                continue;
            }
            stats.bytes_buffered += data.len() as u64;
            for window in visited {
                if current != Some(window) {
                    if let Some(old) = current.replace(window) {
                        flush(&mut stats, old);
                    }
                    stats.window_switches += 1;
                }
            }
        }
        if let Some(last) = current {
            flush(&mut stats, last);
        }
        (image, stats)
    }

    #[test]
    fn hull_buffer_lands_what_a_flat_reference_lands() {
        use rand::rngs::StdRng;
        use rand::{RngExt, SeedableRng};
        const NPROCS: usize = 3;
        const CAPACITY: u64 = 64 * 4 * NPROCS as u64;
        let mut fallbacks = 0;
        let mut straddled = [0; 3];
        for seed in 0..60u64 {
            let mut rng = StdRng::seed_from_u64(0x4011 ^ seed);
            let mut pick = |lo: u64, hi: u64| lo + rng.random::<u64>() % (hi - lo);
            // Up to 100 bytes: some fit a 64-byte window, some straddle two
            // or three; random offsets overlap each other freely.
            let mut ops: Vec<(u64, Vec<u8>)> = (0..pick(1, 40))
                .map(|i| {
                    let len = pick(1, 101);
                    let fill = (seed * 40 + i) as u8 | 1;
                    (pick(0, CAPACITY - len + 1), vec![fill; len as usize])
                })
                .collect();
            match seed % 3 {
                0 => ops.sort_by_key(|op| op.0),
                1 => ops.sort_by_key(|op| std::cmp::Reverse(op.0)),
                _ => {}
            }
            let writer = pick(0, NPROCS as u64) as usize;
            let route = match seed % 4 {
                0 => Route::NoL1,
                1 => Route::Stalled((writer + 1) % NPROCS),
                _ => Route::L1,
            };
            let cfg = TcioConfig {
                use_l1: route != Route::NoL1,
                ..small_cfg(4)
            };
            let map = SegmentMap::new(cfg.segment_size, NPROCS);
            let (image, expect) = flat_reference(&ops, &map, writer, route);
            fallbacks += expect.l1_fallbacks;
            // Each rank's random reads: `(offset, len, fetch after it)`.
            // Up to 129 bytes, so some straddle two or three windows.
            let reads: Vec<Vec<(u64, usize, bool)>> = (0..NPROCS)
                .map(|_| {
                    (0..pick(1, 30))
                        .map(|_| {
                            let off = pick(0, image.len() as u64);
                            let most = 129.min(image.len() as u64 - off);
                            let len = pick(1, most + 1) as usize;
                            (off, len, pick(0, 5) == 0)
                        })
                        .collect()
                })
                .collect();
            for &(off, len, _) in reads.iter().flatten() {
                let end = off + len as u64 - 1;
                let windows =
                    (map.window_start(end) - map.window_start(off)) / map.segment_size + 1;
                straddled[windows as usize - 1] += 1;
            }
            let read_mode = match seed % 5 {
                2 => ReadMode::Eager,
                _ => ReadMode::Lazy,
            };

            let chaos = match route {
                Route::Stalled(rank) => {
                    let (from, until) = (10.0, 11.0);
                    let stall = chaos::Effect::RankStall { rank }.during(from, until);
                    Some(chaos::FaultPlan::new(seed).with(stall).build().unwrap())
                }
                _ => None,
            };
            let sim = SimConfig {
                chaos,
                ..Default::default()
            };
            let fs = Pfs::new(NPROCS, PfsConfig::default()).unwrap();
            let rep = mpisim::run(NPROCS, sim, |rk| {
                let mut f = TcioFile::open(rk, &fs, "/p", TcioMode::Write, cfg.clone())?;
                if rk.rank() == writer {
                    for (off, data) in &ops {
                        f.write_at(rk, *off, data)?;
                    }
                }
                let stats = f.close(rk)?;
                // Read everything back in 50-byte pieces, then this rank's
                // random reads, some followed by an explicit fetch in the
                // middle of a window.
                let mine = &reads[rk.rank()];
                let mut back = vec![0xEEu8; image.len()];
                let mut got: Vec<Vec<u8>> =
                    mine.iter().map(|&(_, len, _)| vec![0xEE; len]).collect();
                let read_cfg = TcioConfig {
                    read_mode,
                    ..cfg.clone()
                };
                let mut g = TcioFile::open(rk, &fs, "/p", TcioMode::Read, read_cfg)?;
                for (i, piece) in back.chunks_mut(50).enumerate() {
                    g.read_at(rk, i as u64 * 50, piece)?;
                }
                for (&(off, _, fetch), buf) in mine.iter().zip(got.iter_mut()) {
                    g.read_at(rk, off, buf)?;
                    if fetch {
                        g.fetch(rk)?;
                    }
                }
                let read_stats = g.close(rk)?;
                Ok((stats, back, got, read_stats))
            })
            .unwrap();
            let landed = fs.snapshot_file(fs.open("/p").unwrap()).unwrap();
            assert_eq!(landed, image, "seed {seed} ({route:?}): file bytes");
            // Every rank reads every window once through the 50-byte
            // pieces, and each window's owner loaded its segment at the
            // open.
            let windows = map.window_start(image.len() as u64 - 1) / map.segment_size + 1;
            let mut loads = 0;
            for (r, (stats, back, got, read_stats)) in rep.results.iter().enumerate() {
                let expect = if r == writer {
                    expect
                } else {
                    TcioStats::default()
                };
                assert_eq!(*stats, expect, "seed {seed} ({route:?}): rank {r}");
                assert_eq!(*back, image, "seed {seed} ({route:?}): rank {r} read");
                for (&(off, len, _), got) in reads[r].iter().zip(got) {
                    let want = &image[off as usize..][..len];
                    assert_eq!(got, want, "seed {seed} ({read_mode:?}): rank {r} at {off}");
                }
                let requests = back.chunks(50).count() + reads[r].len();
                let only_reads = TcioStats {
                    read_requests: requests as u64,
                    loads: read_stats.loads,
                    ..TcioStats::default()
                };
                assert_eq!(*read_stats, only_reads, "seed {seed}: rank {r} read stats");
                loads += read_stats.loads;
            }
            assert_eq!(loads, windows, "seed {seed}: segments loaded");
        }
        assert!(fallbacks > 0, "no case took the level-1 fallback");
        assert!(
            straddled.iter().all(|&n| n > 0),
            "reads within one, two and three windows: {straddled:?}"
        );
    }
}
