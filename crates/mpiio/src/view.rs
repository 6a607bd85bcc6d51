//! File views: mapping a rank's linear I/O stream onto noncontiguous file
//! regions.
//!
//! `MPI_File_set_view(handle, disp, etype, filetype, …)` is the mechanism
//! OCIO forces on applications (§III): the *filetype* tiles the file from
//! `disp` onward, and the bytes a rank reads/writes land in the holes the
//! filetype describes. This module flattens a committed filetype once and
//! then maps `(stream position, length)` ranges to absolute file extents in
//! O(extents) time.

use crate::error::{IoError, Result};
use mpisim::wire::{push_u32, Cursor};
use mpisim::Committed;

/// A resolved file view for one rank.
#[derive(Debug, Clone)]
pub struct FileView {
    /// Absolute displacement (bytes) where the tiling starts.
    disp: u64,
    /// Data extents of one filetype tile: `(offset-in-tile, len)`, in
    /// type-map order (monotone for file views, which MPI requires).
    tile: Vec<(u64, u64)>,
    /// Cumulative stream offset at the start of each tile entry (same
    /// length as `tile`); `prefix[i]` = bytes of data before entry `i`.
    prefix: Vec<u64>,
    /// Distance between consecutive tiles in the file.
    tile_extent: u64,
    /// Bytes of data per tile.
    tile_size: u64,
    /// Fast path: the view is the identity (contiguous bytes from `disp`).
    identity: bool,
}

impl FileView {
    /// The default view: contiguous bytes starting at offset 0.
    pub fn contiguous() -> FileView {
        FileView {
            disp: 0,
            tile: Vec::new(),
            prefix: Vec::new(),
            tile_extent: 0,
            tile_size: 0,
            identity: true,
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
        let mut tile = Vec::with_capacity(filetype.extents().len());
        let mut prefix = Vec::with_capacity(filetype.extents().len());
        let mut acc = 0u64;
        let mut last_end: Option<u64> = None;
        for &(off, len) in filetype.extents() {
            if off < 0 {
                return Err(IoError::Usage(
                    "file views cannot contain negative displacements".into(),
                ));
            }
            let off = off as u64;
            if let Some(end) = last_end {
                if off < end {
                    return Err(IoError::Usage(
                        "filetype extents must be monotonically increasing".into(),
                    ));
                }
            }
            last_end = Some(off + len as u64);
            tile.push((off, len as u64));
            prefix.push(acc);
            acc += len as u64;
        }
        // An identity view (one extent at 0 covering the whole extent) gets
        // the fast path.
        let identity = disp == 0
            && tile.len() == 1
            && tile[0].0 == 0
            && tile[0].1 as usize == filetype.extent();
        Ok(FileView {
            disp,
            tile,
            prefix,
            tile_extent: filetype.extent() as u64,
            tile_size: acc,
            identity,
        })
    }

    pub fn is_identity(&self) -> bool {
        self.identity
    }

    /// Bytes of data per tile (0 for the identity view).
    pub fn tile_size(&self) -> u64 {
        self.tile_size
    }

    /// Map a stream range `[pos, pos+len)` to absolute file extents,
    /// merged where adjacent. The result is sorted by file offset.
    pub fn map_range(&self, pos: u64, len: u64) -> Vec<(u64, u64)> {
        if len == 0 {
            return Vec::new();
        }
        if self.identity {
            return vec![(self.disp + pos, len)];
        }
        debug_assert!(self.tile_size > 0);
        let mut out: Vec<(u64, u64)> = Vec::new();
        let mut remaining = len;
        let mut tile_idx = pos / self.tile_size;
        let mut in_tile = pos % self.tile_size;
        // Find the first entry covering `in_tile` by binary search on the
        // prefix sums.
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

    /// Serialize for transmission (view-based collective I/O registers
    /// every rank's view at the aggregators once, instead of shipping
    /// per-call offset lists). Fails, rather than truncating, on a view
    /// with more tile entries than the 32-bit count field can carry.
    pub fn serialize(&self) -> Result<Vec<u8>> {
        let mut out = Vec::with_capacity(21 + self.tile.len() * 16);
        out.extend_from_slice(&self.disp.to_le_bytes());
        out.extend_from_slice(&self.tile_extent.to_le_bytes());
        out.push(self.identity as u8);
        push_u32(&mut out, self.tile.len() as u64)?;
        for &(o, l) in &self.tile {
            out.extend_from_slice(&o.to_le_bytes());
            out.extend_from_slice(&l.to_le_bytes());
        }
        Ok(out)
    }

    /// Inverse of [`FileView::serialize`], total on arbitrary bytes: the
    /// entry count must account for the buffer exactly before anything is
    /// allocated for it, and the entries must satisfy what
    /// [`FileView::new`] guarantees — monotone extents whose sizes sum
    /// without overflow, to a nonzero tile unless the view is the
    /// identity.
    pub fn deserialize(buf: &[u8]) -> Result<FileView> {
        let bad = || IoError::Usage("malformed serialized view".into());
        let mut cur = Cursor::new(buf);
        let disp = cur.u64()?;
        let tile_extent = cur.u64()?;
        let identity = cur.take(1)?[0] != 0;
        let n = cur.u32()?;
        let mut entries = Cursor::new(cur.take(n.checked_mul(16).ok_or_else(bad)?)?);
        if !cur.is_empty() {
            return Err(bad());
        }
        let mut tile = Vec::with_capacity(n);
        let mut prefix = Vec::with_capacity(n);
        let (mut acc, mut last_end) = (0u64, 0u64);
        for _ in 0..n {
            let (o, l) = (entries.u64()?, entries.u64()?);
            if o < last_end {
                return Err(bad());
            }
            last_end = o.checked_add(l).ok_or_else(bad)?;
            tile.push((o, l));
            prefix.push(acc);
            acc = acc.checked_add(l).ok_or_else(bad)?;
        }
        if acc == 0 && !identity {
            return Err(bad());
        }
        Ok(FileView {
            disp,
            tile,
            prefix,
            tile_extent,
            tile_size: acc,
            identity,
        })
    }

    /// Total bytes of data available in `[0, stream_len)` given a file of
    /// `file_len` bytes — i.e., the stream position corresponding to EOF.
    /// Used to validate reads. Returns `None` when the view never reaches
    /// `file_len` (file shorter than `disp`).
    pub fn stream_len_for_file(&self, file_len: u64) -> u64 {
        if self.identity {
            return file_len.saturating_sub(self.disp);
        }
        if file_len <= self.disp {
            return 0;
        }
        let span = file_len - self.disp;
        let full_tiles = span / self.tile_extent.max(1);
        let rem = span - full_tiles * self.tile_extent;
        let mut bytes = full_tiles * self.tile_size;
        for (i, &(off, len)) in self.tile.iter().enumerate() {
            let _ = i;
            if off + len <= rem {
                bytes += len;
            } else if off < rem {
                bytes += rem - off;
            }
        }
        bytes
    }
}

#[cfg(test)]
mod tests {
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
}
