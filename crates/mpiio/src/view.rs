//! File views: mapping a rank's linear I/O stream onto noncontiguous file
//! regions.
//!
//! `MPI_File_set_view(handle, disp, etype, filetype, …)` is the mechanism
//! OCIO forces on applications (§III): the *filetype* tiles the file from
//! `disp` onward, and the bytes a rank reads/writes land in the holes the
//! filetype describes. A view shares the committed filetype's strided runs
//! and walks `(stream position, length)` ranges over them as an iterator
//! of absolute file extents — a binary search to the run, a division
//! inside it, then O(1) per extent and no list of them anywhere.

use crate::error::{IoError, Result};
use mpisim::{Committed, Run};
use std::sync::Arc;

/// A resolved file view for one rank.
#[derive(Debug, Clone)]
pub struct FileView {
    /// Absolute displacement (bytes) where the tiling starts.
    disp: u64,
    /// The type map of one filetype tile, shared with the committed
    /// filetype: non-negative offsets, blocks ascending without overlap
    /// (MPI requires monotone file views) and spanning at most `tile_extent`.
    runs: Arc<[Run]>,
    /// Cumulative stream offset at the start of each run (same length as
    /// `runs`); `prefix[i]` = bytes of data before run `i`.
    prefix: Vec<u64>,
    /// Distance between consecutive tiles in the file.
    tile_extent: u64,
    /// Bytes of data per tile.
    tile_size: u64,
    /// Fast path: the view is the identity (contiguous bytes from `disp`).
    identity: bool,
    /// Extents yielded by walks of this view, for the complexity test.
    #[cfg(test)]
    pub(crate) steps: Arc<std::sync::atomic::AtomicU64>,
}

/// Check what every view promises of its tile — blocks at non-negative
/// offsets, ascending without overlap, spanning no more than `tile_extent`
/// — and sum the data before each run. Returns the prefix sums and the
/// tile's data size.
fn check_tile(runs: &[Run], tile_extent: u64) -> Result<(Vec<u64>, u64)> {
    let too_big = || IoError::Usage("filetype does not fit the offset range".into());
    let mut prefix = Vec::with_capacity(runs.len());
    let (mut size, mut end) = (0u64, 0i128);
    for r in runs {
        if r.len == 0 || r.count == 0 {
            return Err(IoError::Usage("filetype holds an empty block".into()));
        }
        if r.off < 0 {
            return Err(IoError::Usage(
                "file views cannot contain negative displacements".into(),
            ));
        }
        if (r.off as i128) < end || (r.count > 1 && r.stride < r.len as isize) {
            return Err(IoError::Usage(
                "filetype extents must be monotonically increasing".into(),
            ));
        }
        end = r.off as i128 + r.stride as i128 * (r.count as i128 - 1) + r.len as i128;
        prefix.push(size);
        let bytes = (r.len as u64).checked_mul(r.count as u64);
        size = bytes
            .and_then(|b| size.checked_add(b))
            .ok_or_else(too_big)?;
    }
    // Tile k+1 starts `tile_extent` past tile k: its first block must not
    // begin before tile k's last one ends.
    let first = runs.first().map_or(0, |r| r.off as i128);
    if end - first > tile_extent as i128 {
        return Err(IoError::Usage(format!(
            "filetype blocks span {} bytes, more than its extent {tile_extent}: \
             consecutive tiles would overlap",
            end - first
        )));
    }
    Ok((prefix, size))
}

impl FileView {
    /// The default view: contiguous bytes starting at offset 0.
    pub fn contiguous() -> FileView {
        FileView {
            disp: 0,
            runs: Arc::new([]),
            prefix: Vec::new(),
            tile_extent: 0,
            tile_size: 0,
            identity: true,
            #[cfg(test)]
            steps: Arc::default(),
        }
    }

    /// Build a view from a committed filetype. The `etype` is accepted for
    /// API fidelity (offsets are expressed in bytes here, so only its size
    /// participates in validation).
    pub fn new(disp: u64, etype: &Committed, filetype: &Committed) -> Result<FileView> {
        if etype.size() == 0 {
            return Err(IoError::Usage("etype must have nonzero size".into()));
        }
        if filetype.size() == 0 {
            return Err(IoError::Usage("filetype must have nonzero size".into()));
        }
        if !filetype.size().is_multiple_of(etype.size()) {
            return Err(IoError::Usage(format!(
                "filetype size {} is not a multiple of etype size {}",
                filetype.size(),
                etype.size()
            )));
        }
        let runs = Arc::clone(filetype.runs());
        let tile_extent = filetype.extent() as u64;
        // A nonzero size within the extent: the extent is nonzero too.
        let (prefix, tile_size) = check_tile(&runs, tile_extent)?;
        // An identity view (one extent at 0 covering the whole extent) gets
        // the fast path.
        let identity = disp == 0 && filetype.is_contiguous() && tile_size == tile_extent;
        Ok(FileView {
            disp,
            runs,
            prefix,
            tile_extent,
            tile_size,
            identity,
            #[cfg(test)]
            steps: Arc::default(),
        })
    }

    pub fn is_identity(&self) -> bool {
        self.identity
    }

    /// Bytes of data per tile (0 for the identity view).
    pub fn tile_size(&self) -> u64 {
        self.tile_size
    }

    /// The absolute file extents of the stream range `[pos, pos+len)`,
    /// merged where adjacent and ascending by file offset, in O(1) space.
    pub fn extents(&self, pos: u64, len: u64) -> ViewExtents<'_> {
        let mut walk = ViewExtents {
            view: self,
            remaining: len,
            tile_base: self.disp,
            run: 0,
            cur: NO_RUN,
            block: 0,
            start: self.disp,
            skip: pos,
        };
        if !self.identity && len > 0 {
            debug_assert!(self.tile_size > 0);
            let in_tile = pos % self.tile_size;
            walk.tile_base += pos / self.tile_size * self.tile_extent;
            // The run covering `in_tile`, by binary search on the prefix
            // sums; the block inside it, by division.
            walk.run = self.prefix.partition_point(|&p| p <= in_tile) - 1;
            walk.cur = self.runs[walk.run];
            let in_run = in_tile - self.prefix[walk.run];
            let block_len = walk.cur.len as u64;
            (walk.block, walk.skip) = (in_run / block_len, in_run % block_len);
            walk.start = walk.tile_base + walk.cur.block(walk.block as usize).0 as u64;
        }
        walk
    }

    /// [`FileView::extents`], collected.
    pub fn map_range(&self, pos: u64, len: u64) -> Vec<(u64, u64)> {
        let walk = self.extents(pos, len);
        let mut out = Vec::with_capacity(walk.size_hint().0);
        out.extend(walk);
        out
    }

    /// The file range `[start, end)` that the stream range `[pos, pos+len)`
    /// spans: where its first extent starts and its last one ends. `None`
    /// for an empty range.
    pub fn hull(&self, pos: u64, len: u64) -> Option<(u64, u64)> {
        let (start, _) = self.extents(pos, len).next()?;
        let (last, _) = self.extents(pos + len - 1, 1).next()?;
        Some((start, last + 1))
    }

    /// Total bytes of data available in `[0, stream_len)` given a file of
    /// `file_len` bytes — i.e., the stream position corresponding to EOF:
    /// the stream bytes the view maps below `file_len`. Used to validate
    /// reads; 0 when the file is shorter than `disp`. A search over the
    /// runs and a division inside one.
    pub fn stream_len_for_file(&self, file_len: u64) -> u64 {
        let span = file_len.saturating_sub(self.disp);
        if self.identity || span == 0 {
            return span;
        }
        // Tiles sit `tile_extent` apart and a tile's blocks span at most
        // that from its *first* block, which a lower bound (`resized`, a
        // positive first displacement) puts past the tile's origin: split
        // the span there, and take every offset relative to that block.
        let first = self.runs[0].off as u64;
        let Some(span) = span.checked_sub(first) else {
            return 0;
        };
        let (full_tiles, rem) = (span / self.tile_extent, span % self.tile_extent);
        // Data of the last, partial tile below `rem`: the runs wholly below
        // it (they ascend), then of the one run `rem` may cut its whole
        // blocks below it and the part of the one block it may cut.
        let below = self.runs.partition_point(|r| r.off as u64 - first < rem);
        let partial = below.checked_sub(1).map_or(0, |i| {
            let r = &self.runs[i];
            let (len, stride) = (r.len as u64, r.stride as u64);
            let into = rem - (r.off as u64 - first);
            let whole = match r.count {
                1 => 0,
                count => (into / stride).min(count as u64 - 1),
            };
            self.prefix[i] + whole * len + (into - whole * stride).min(len)
        });
        full_tiles * self.tile_size + partial
    }

    /// The part `[lo, hi)` of the stream range `[offset, offset + len)`
    /// that the view maps into the file window `[ws, we)` — one contiguous
    /// interval, because views are monotone. Every collective path cuts a
    /// request into its windows' shares with this.
    pub fn stream_interval(&self, offset: u64, len: u64, ws: u64, we: u64) -> Option<(u64, u64)> {
        let lo = self.stream_len_for_file(ws).max(offset);
        let hi = self.stream_len_for_file(we).min(offset + len);
        (lo < hi).then_some((lo, hi))
    }
}

/// The walk behind [`FileView::extents`]: a position in the tiling and the
/// stream bytes still to map.
#[derive(Debug, Clone)]
pub struct ViewExtents<'a> {
    view: &'a FileView,
    /// Stream bytes not yet mapped.
    remaining: u64,
    /// File offset of the current tile's origin.
    tile_base: u64,
    /// The current block: `block` of `cur`, which is `view.runs[run]`…
    run: usize,
    cur: Run,
    block: u64,
    /// …where in the file it starts, and the bytes of it already behind
    /// the walk. Under the identity view, `disp` and the stream position.
    start: u64,
    skip: u64,
}

/// What [`ViewExtents::cur`] holds under the identity view, which has no runs.
const NO_RUN: Run = Run {
    off: 0,
    len: 0,
    stride: 0,
    count: 0,
};

impl ViewExtents<'_> {
    /// Step to the start of the next block of the tiling.
    fn next_block(&mut self) {
        self.skip = 0;
        self.block += 1;
        if self.block < self.cur.count as u64 {
            self.start += self.cur.stride as u64;
            return;
        }
        self.block = 0;
        self.run += 1;
        if self.run == self.view.runs.len() {
            self.run = 0;
            self.tile_base += self.view.tile_extent;
        }
        self.cur = self.view.runs[self.run];
        self.start = self.tile_base + self.cur.off as u64;
    }
}

impl Iterator for ViewExtents<'_> {
    type Item = (u64, u64);

    #[inline]
    fn next(&mut self) -> Option<(u64, u64)> {
        #[cfg(test)]
        (self.view.steps).fetch_add(
            (self.remaining > 0) as u64,
            std::sync::atomic::Ordering::Relaxed,
        );
        // A whole block with more of its run to follow — all but a few
        // steps of a strided request: nothing to cut, nothing to merge.
        let whole = self.cur.len as u64;
        if self.skip == 0 && self.remaining >= whole && self.block + 1 < self.cur.count as u64 {
            let off = self.start;
            self.start += self.cur.stride as u64;
            self.block += 1;
            self.remaining -= whole;
            return Some((off, whole));
        }
        if self.remaining == 0 {
            return None;
        }
        let off = self.start + self.skip;
        if self.view.identity {
            return Some((off, std::mem::take(&mut self.remaining)));
        }
        let mut len = 0;
        loop {
            let take = (self.cur.len as u64 - self.skip).min(self.remaining);
            len += take;
            self.remaining -= take;
            self.skip += take;
            if self.skip < self.cur.len as u64 {
                break; // cut short: the range ends inside this block
            }
            self.next_block();
            // Blocks of one run never touch; the last of a run or tile and
            // the first of the next may.
            if self.block != 0 || self.remaining == 0 || self.start != off + len {
                break;
            }
        }
        Some((off, len))
    }

    /// The blocks of the current run the range still reaches (they never
    /// touch each other). When the range ends inside this run — every
    /// strided request — that is exactly the extents left, so encoding or
    /// collecting the range walks it once and allocates once; otherwise it
    /// is a lower bound.
    fn size_hint(&self) -> (usize, Option<usize>) {
        if self.remaining == 0 || self.view.identity {
            let all = (self.remaining > 0) as usize;
            return (all, Some(all));
        }
        let reached = (self.skip + self.remaining).div_ceil(self.cur.len as u64);
        let ahead = self.cur.count as u64 - self.block;
        if reached <= ahead {
            (reached as usize, Some(reached as usize))
        } else {
            (ahead as usize, None)
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use mpisim::{Datatype, Named};

    fn paper_view(rank: u64, nprocs: usize, len_array: usize) -> FileView {
        // The paper's Fig. 2 view: etype = 12 contiguous bytes (int+double),
        // filetype = vector(LEN, 1, P) of etypes, disp = rank * 12.
        let etype = Datatype::contiguous(12, Datatype::named(Named::Byte)).commit();
        let ftype =
            Datatype::vector(len_array, 1, nprocs as isize, etype.datatype().clone()).commit();
        FileView::new(rank * 12, &etype, &ftype).unwrap()
    }

    #[test]
    fn identity_view_maps_directly() {
        let v = FileView::contiguous();
        assert!(v.is_identity());
        assert_eq!(v.map_range(100, 50), vec![(100, 50)]);
        assert_eq!(v.map_range(0, 0), Vec::<(u64, u64)>::new());
    }

    #[test]
    fn paper_example_rank0() {
        let v = paper_view(0, 2, 3);
        // Rank 0 writes 36 bytes → blocks at 0, 24, 48.
        assert_eq!(v.map_range(0, 36), vec![(0, 12), (24, 12), (48, 12)]);
    }

    #[test]
    fn paper_example_rank1_displacement() {
        let v = paper_view(1, 2, 3);
        assert_eq!(v.map_range(0, 36), vec![(12, 12), (36, 12), (60, 12)]);
    }

    #[test]
    fn partial_block_access() {
        let v = paper_view(0, 2, 3);
        // 6 bytes starting at stream position 9: tail of block 0, head of
        // block 1.
        assert_eq!(v.map_range(9, 6), vec![(9, 3), (24, 3)]);
    }

    #[test]
    fn access_beyond_one_filetype_tile_wraps() {
        let v = paper_view(0, 2, 2); // tile: blocks at 0 and 24, extent 48...
                                     // tile data = 24 bytes; byte 24 of the stream is block 0 of tile 1.
        let tile_extent = v.tile_extent;
        assert_eq!(v.map_range(24, 12), vec![(tile_extent, 12)]);
    }

    #[test]
    fn adjacent_extents_merge() {
        // filetype with two adjacent runs: (0,4) and (4,4) — map_range must
        // emit one merged extent.
        let ft = Datatype::indexed(vec![4, 4], vec![0, 4], Datatype::named(Named::Byte))
            .unwrap()
            .commit();
        let et = Datatype::named(Named::Byte).commit();
        let v = FileView::new(0, &et, &ft).unwrap();
        assert_eq!(v.map_range(0, 8), vec![(0, 8)]);
    }

    #[test]
    fn non_monotone_filetype_rejected() {
        let ft = Datatype::indexed(vec![1, 1], vec![4, 0], Datatype::named(Named::Byte))
            .unwrap()
            .commit();
        let et = Datatype::named(Named::Byte).commit();
        assert!(FileView::new(0, &et, &ft).is_err());
    }

    #[test]
    fn filetype_not_multiple_of_etype_rejected() {
        let et = Datatype::named(Named::Double).commit(); // 8 bytes
        let ft = Datatype::contiguous(3, Datatype::named(Named::Byte)).commit(); // 3 bytes
        assert!(FileView::new(0, &et, &ft).is_err());
    }

    #[test]
    fn stream_len_for_file_counts_visible_bytes() {
        let v = paper_view(0, 2, 2); // blocks (0,12),(24,12); extent 36?
                                     // extent of vector(2,1,2) of 12-byte etype = 12*(2+1)=36.
        assert_eq!(v.stream_len_for_file(0), 0);
        assert_eq!(v.stream_len_for_file(6), 6);
        assert_eq!(v.stream_len_for_file(12), 12);
        assert_eq!(v.stream_len_for_file(24), 12);
        assert_eq!(v.stream_len_for_file(30), 18);
        assert_eq!(v.stream_len_for_file(36), 24);
        assert_eq!(v.stream_len_for_file(48), 36);
    }

    #[test]
    fn identity_stream_len_respects_disp() {
        let et = Datatype::named(Named::Byte).commit();
        let ft = Datatype::contiguous(1, Datatype::named(Named::Byte)).commit();
        let v = FileView::new(100, &et, &ft).unwrap();
        // Not the fast-path identity (disp != 0), but semantically linear.
        assert_eq!(v.map_range(0, 10), vec![(100, 10)]);
        assert_eq!(v.stream_len_for_file(100), 0);
        assert_eq!(v.stream_len_for_file(110), 10);
    }

    #[test]
    fn large_positions_do_not_overflow() {
        let v = paper_view(0, 1024, 1 << 20);
        let far = (1u64 << 20) * 12 - 12;
        let got = v.map_range(far, 12);
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].1, 12);
    }

    /// The view as it used to be held — the tile expanded to one entry and
    /// one prefix sum per block — with the old `map_range`, and `stream_len_for_file` as a count over that `map_range`: the
    /// oracle the strided walk and the window arithmetic are checked
    /// against.
    struct Expanded {
        disp: u64,
        tile: Vec<(u64, u64)>,
        prefix: Vec<u64>,
        tile_extent: u64,
        tile_size: u64,
        identity: bool,
    }

    impl Expanded {
        fn of(view: &FileView) -> Expanded {
            let blocks = view.runs.iter().flat_map(Run::blocks);
            let tile: Vec<(u64, u64)> = blocks.map(|(o, l)| (o as u64, l as u64)).collect();
            let mut acc = 0;
            let prefix = tile.iter().map(|&(_, l)| (acc, acc += l).0).collect();
            Expanded {
                disp: view.disp,
                tile,
                prefix,
                tile_extent: view.tile_extent,
                tile_size: acc,
                identity: view.identity,
            }
        }

        fn map_range(&self, pos: u64, len: u64) -> Vec<(u64, u64)> {
            if len == 0 {
                return Vec::new();
            }
            if self.identity {
                return vec![(self.disp + pos, len)];
            }
            let mut out: Vec<(u64, u64)> = Vec::new();
            let mut remaining = len;
            let mut tile_idx = pos / self.tile_size;
            let mut in_tile = pos % self.tile_size;
            let mut entry = match self.prefix.binary_search(&in_tile) {
                Ok(i) => i,
                Err(i) => i - 1,
            };
            while remaining > 0 {
                let (e_off, e_len) = self.tile[entry];
                let skip = in_tile - self.prefix[entry];
                let avail = e_len - skip;
                let take = avail.min(remaining);
                let file_off = self.disp + tile_idx * self.tile_extent + e_off + skip;
                match out.last_mut() {
                    Some(last) if last.0 + last.1 == file_off => last.1 += take,
                    _ => out.push((file_off, take)),
                }
                remaining -= take;
                in_tile += take;
                if in_tile == self.tile_size {
                    tile_idx += 1;
                    in_tile = 0;
                    entry = 0;
                } else if take == avail {
                    entry += 1;
                }
            }
            out
        }

        /// The stream bytes mapped below `file_len`, counted over the
        /// extents of every tile that starts at or below it.
        fn stream_len_for_file(&self, file_len: u64) -> u64 {
            if self.identity {
                return file_len.saturating_sub(self.disp);
            }
            let tiles = file_len / self.tile_extent + 1;
            bytes_below(self.map_range(0, tiles * self.tile_size), file_len)
        }
    }

    /// The bytes of `extents` that lie below file offset `eof`.
    pub(crate) fn bytes_below(extents: impl IntoIterator<Item = (u64, u64)>, eof: u64) -> u64 {
        let below = extents.into_iter().map(|(o, l)| eof.clamp(o, o + l) - o);
        below.sum()
    }

    /// What a window's share of a request must be, by a scan from the
    /// request's first extent: the parts of `extents` inside `[ws, we)` as
    /// `(file_off, buf_cursor, len)`.
    fn rescan(extents: &[(u64, u64)], ws: u64, we: u64) -> Vec<(u64, usize, usize)> {
        let mut stream_pos = 0u64;
        let mut parts = Vec::new();
        for &(eoff, elen) in extents {
            let (s, e) = (eoff.max(ws), (eoff + elen).min(we));
            if s < e {
                parts.push((s, (stream_pos + (s - eoff)) as usize, (e - s) as usize));
            }
            stream_pos += elen;
        }
        parts
    }

    /// The share [`FileView::stream_interval`] finds, walked with its
    /// buffer cursors.
    fn share(view: &FileView, pos: u64, len: u64, ws: u64, we: u64) -> Vec<(u64, usize, usize)> {
        let Some((lo, hi)) = view.stream_interval(pos, len, ws, we) else {
            return Vec::new();
        };
        let mut cursor = (lo - pos) as usize;
        let with_cursor = |(off, len): (u64, u64)| {
            cursor += len as usize;
            (off, cursor - len as usize, len as usize)
        };
        view.extents(lo, hi - lo).map(with_cursor).collect()
    }

    /// A random monotone filetype: every constructor that can make one,
    /// nested, with blocks that touch, tiles that touch and tiles padded
    /// past their last block.
    pub(crate) fn random_filetype(rng: &mut rand::rngs::StdRng, depth: u32) -> Datatype {
        use rand::RngExt;
        let mut pick = |lo: u64, hi: u64| (lo + rng.next_u64() % (hi - lo)) as usize;
        if depth == 0 {
            let named = [Named::Byte, Named::Int, Named::Double];
            return Datatype::contiguous(pick(1, 9), Datatype::named(named[pick(0, 3)]));
        }
        let kind = pick(0, 5);
        let (count, blocklen, gap) = (pick(1, 7), pick(1, 4), pick(0, 4));
        let n = pick(1, 4);
        let lens: Vec<usize> = (0..n).map(|_| pick(1, 4)).collect();
        let gaps: Vec<usize> = (0..n).map(|_| pick(0, 3)).collect();
        let sizes: Vec<usize> = (0..n).map(|_| pick(1, 5)).collect();
        let subsizes: Vec<usize> = sizes.iter().map(|&s| pick(1, s as u64 + 1)).collect();
        let starts = sizes.iter().zip(&subsizes);
        let starts: Vec<usize> = starts
            .map(|(&s, &sub)| pick(0, (s - sub) as u64 + 1))
            .collect();
        let order = [mpisim::Order::C, mpisim::Order::Fortran][pick(0, 2)];
        let child = random_filetype(rng, depth - 1);
        match kind {
            0 => Datatype::contiguous(count, child),
            1 => Datatype::vector(count, blocklen, (blocklen + gap) as isize, child),
            2 => {
                // Ascending blocks, `gaps[i]` children apart.
                let mut at = 0;
                let displs = lens.iter().zip(&gaps).map(|(&l, &g)| {
                    at += g;
                    ((at as isize), at += l).0
                });
                let displs = displs.collect();
                Datatype::indexed(lens, displs, child).unwrap()
            }
            3 => Datatype::subarray(sizes, subsizes, starts, order, child).unwrap(),
            _ => Datatype::resized(0, child.extent() + gap, child),
        }
    }

    #[test]
    fn strided_walk_matches_the_expanded_oracle_on_random_views() {
        use rand::{RngExt, SeedableRng};
        let (mut strided, mut lower_bounds) = (0, 0);
        for seed in 0..1500u64 {
            let mut rng = rand::rngs::StdRng::seed_from_u64(0x71e3 ^ seed);
            let ftype = random_filetype(&mut rng, 2).commit();
            let etype = Datatype::named(Named::Byte).commit();
            let mut pick = |lo: u64, hi: u64| lo + rng.next_u64() % (hi - lo);
            let disp = pick(0, 3) * pick(0, 100);
            let view = FileView::new(disp, &etype, &ftype).unwrap();
            let old = Expanded::of(&view);
            strided += view.runs.iter().filter(|r| r.count > 1).count();
            assert_eq!(view.tile_size, old.tile_size, "seed {seed}");
            for _ in 0..24 {
                let pos = pick(0, 3 * view.tile_size);
                let len = pick(0, 3 * view.tile_size) * pick(0, 4).min(1);
                let want = old.map_range(pos, len);
                let got: Vec<_> = view.extents(pos, len).collect();
                assert_eq!(got, want, "seed {seed}: [{pos}, +{len}) of {ftype:?}");
                let hull = want.first().zip(want.last()).map(|(f, l)| (f.0, l.0 + l.1));
                assert_eq!(view.hull(pos, len), hull, "seed {seed}: [{pos}, +{len})");
                let eof = pick(0, disp + 3 * view.tile_extent + 2);
                let visible = view.stream_len_for_file(eof);
                assert_eq!(visible, old.stream_len_for_file(eof), "seed {seed}: {eof}");
                // A window — empty, inside a block, a few tiles wide or the
                // whole file: its share of the request, found by arithmetic,
                // is what a scan of the whole request clips to it.
                let everything = disp + 8 * view.tile_extent;
                let (ws, we) = match pick(0, 4) {
                    0 => (eof, eof),
                    1 => (eof, eof + pick(1, 4)),
                    2 => (eof, eof + pick(1, 3 * view.tile_extent + 1)),
                    _ => (0, everything),
                };
                let scanned = rescan(&want, ws, we);
                assert_eq!(
                    share(&view, pos, len, ws, we),
                    scanned,
                    "seed {seed}: [{pos}, +{len}) in [{ws}, {we}) of {ftype:?}"
                );
                lower_bounds += (view.runs[0].off > 0 && !scanned.is_empty()) as usize;
            }
        }
        assert!(strided > 500, "only {strided} strided runs were generated");
        assert!(
            lower_bounds > 500,
            "only {lower_bounds} shares of a tile with a lower bound"
        );
    }

    /// A tile's blocks are counted from its first one, wherever a lower
    /// bound puts it: the three filetypes `stream_len_for_file` used to
    /// count past `file_len` for, against a count over the extents.
    #[test]
    fn stream_len_for_file_honours_a_lower_bound() {
        let byte = || Datatype::named(Named::Byte);
        let at_8 = || Datatype::indexed(vec![4], vec![8], byte()).unwrap();
        let two = Datatype::indexed(vec![2, 3], vec![5, 9], byte()).unwrap();
        for ftype in [at_8(), Datatype::resized(0, 8, at_8()), two] {
            let view = FileView::new(3, &byte().commit(), &ftype.commit()).unwrap();
            for eof in 0..80 {
                let want = bytes_below(view.extents(0, 80), eof);
                assert_eq!(view.stream_len_for_file(eof), want, "{ftype:?} below {eof}");
            }
        }
    }

    /// A view costs its runs, not its blocks: 2^32 blocks are one run, and
    /// a range near the end of the tile is a search and a division away.
    #[test]
    fn a_view_cannot_be_linear_in_its_blocks() {
        let etype = Datatype::contiguous(12, Datatype::named(Named::Byte)).commit();
        let blocks = 1u64 << 32;
        let ftype = Datatype::vector(blocks as usize, 1, 256, etype.datatype().clone()).commit();
        let view = FileView::new(36, &etype, &ftype).unwrap();
        assert_eq!((view.runs.len(), view.prefix.len()), (1, 1));
        // 24 bytes straddling the last two blocks: the second half of one,
        // then the last block and — touching it — the first half of the
        // next tile's first.
        let last = 36 + (blocks - 1) * 3072;
        let got = view.map_range((blocks - 2) * 12 + 6, 24);
        assert_eq!(got, [(last - 3072 + 6, 6), (last, 18)]);
        assert_eq!(
            view.map_range((blocks - 2) * 12, 24),
            [(last - 3072, 12), (last, 12)]
        );
        assert_eq!(36 + view.tile_extent, last + 12);
        assert_eq!(view.stream_len_for_file(last + 5), (blocks - 1) * 12 + 5);
    }

    /// A tile must fit its extent, or consecutive tiles overlap.
    #[test]
    fn overlapping_tiles_are_rejected() {
        let byte = || Datatype::named(Named::Byte);
        let etype = byte().commit();
        for extent in [0, 4, 7] {
            let ftype = Datatype::resized(0, extent, Datatype::contiguous(8, byte())).commit();
            let err = FileView::new(0, &etype, &ftype);
            assert!(matches!(err, Err(IoError::Usage(_))), "extent {extent}");
        }
        let fits = Datatype::resized(0, 8, Datatype::contiguous(8, byte())).commit();
        let view = FileView::new(0, &etype, &fits).unwrap();
        assert_eq!(view.map_range(0, 24), [(0, 24)]);
    }
}
