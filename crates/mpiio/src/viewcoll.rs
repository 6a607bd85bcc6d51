//! View-based collective I/O (Blas, Isaila, Singh & Carretero,
//! CCGRID'08 — the paper's related work \[16\]).
//!
//! The two-phase exchange ships an *offset/length list alongside every
//! data piece* on every collective call. View-based collective I/O
//! registers each rank's **file view** at the aggregators once, at
//! view-declaration time; a collective write then sends only
//! `(stream position, raw bytes)` per aggregator — the aggregator
//! reconstructs the file placement from the stored view. This reduces
//! per-call metadata ("the cost of data scatter-gather operations and
//! file metadata transfer") at the price of keeping P views per
//! aggregator.
//!
//! A key property makes the sender side cheap: file views are monotone, so
//! the set of a rank's stream bytes that lands inside an aggregator's file
//! domain is a *single contiguous stream interval* — one header per
//! aggregator, regardless of how fragmented the file extents are.

use crate::collective::CollectiveConfig;
use crate::error::{IoError, Result};
use crate::extents::ExtentSet;
use crate::file::File;
use crate::rounds::{read_rounds, write_rounds, Path, Requests};
use crate::view::FileView;
use mpisim::wire::Cursor;
use mpisim::Rank;

/// The views of all ranks, registered collectively.
#[derive(Debug)]
pub struct RegisteredViews {
    views: Vec<FileView>,
}

impl RegisteredViews {
    /// The calling rank's own view.
    fn mine(&self, rank: &Rank) -> Result<&FileView> {
        if self.views.len() != rank.nprocs() {
            return Err(IoError::Usage(
                "registered views do not match the communicator".into(),
            ));
        }
        Ok(&self.views[rank.rank()])
    }
}

/// Collectively register every rank's current view (call after
/// `set_view`; re-call if views change). This is the one-time metadata
/// exchange that per-call offset lists are traded against.
pub fn register_views(rank: &mut Rank, file: &File) -> Result<RegisteredViews> {
    let gathered = rank.allgather(&file.view().serialize()?)?;
    let views = gathered
        .iter()
        .map(|b| FileView::deserialize(b))
        .collect::<Result<Vec<_>>>()?;
    Ok(RegisteredViews { views })
}

/// The part `[lo, hi)` of the stream range `[offset, offset + len)` that
/// `view` maps into the file window `[ws, we)` — one contiguous interval,
/// because views are monotone.
fn stream_interval(view: &FileView, offset: u64, len: u64, ws: u64, we: u64) -> Option<(u64, u64)> {
    let lo = view.stream_len_for_file(ws).max(offset);
    let hi = view.stream_len_for_file(we).min(offset + len);
    (lo < hi).then_some((lo, hi))
}

/// The 16-byte `(stream position, length)` header, with room for `data`
/// bytes to follow.
fn interval_header(lo: u64, len: u64, data: usize) -> Vec<u8> {
    let mut msg = Vec::with_capacity(16 + data);
    msg.extend_from_slice(&lo.to_le_bytes());
    msg.extend_from_slice(&len.to_le_bytes());
    msg
}

/// Split a non-empty payload into `(stream position, length, rest)`.
fn parse_interval(payload: &[u8]) -> Result<(u64, u64, &[u8])> {
    let mut header = Cursor::new(payload);
    let (lo, len) = (header.u64()?, header.u64()?);
    // Both header words were there, so the payload has 16 bytes to skip.
    Ok((lo, len, &payload[16..]))
}

/// View-based collective write: all ranks call, each with its own data at
/// a view-stream `offset`. Functionally identical to
/// [`crate::write_all_at`]; the exchange carries one 16-byte header per
/// (rank, aggregator) pair instead of one 12-byte header per file extent.
pub fn write_all_view_based(
    rank: &mut Rank,
    file: &mut File,
    views: &RegisteredViews,
    offset: u64,
    data: &[u8],
    cfg: &CollectiveConfig,
) -> Result<()> {
    let world = rank.world();
    let path = Path {
        comm: &world,
        merges: false,
        flat_span: None,
        pipe_span: Some("vb_io_pipe"),
    };
    let view = views.mine(rank)?;
    let hull = view.hull(offset, data.len() as u64);
    // Sender side: one contiguous stream interval per aggregator.
    let build = |ws, we| {
        let Some((lo, hi)) = stream_interval(view, offset, data.len() as u64, ws, we) else {
            return Ok(Vec::new());
        };
        let mut msg = interval_header(lo, hi - lo, (hi - lo) as usize);
        msg.extend_from_slice(&data[(lo - offset) as usize..(hi - offset) as usize]);
        Ok(msg)
    };
    // Aggregator side: reconstruct placement from the stored views.
    let place =
        |rank: &mut Rank, src: usize, payload: &[u8], ws, buf: &mut [u8], dirty: &mut ExtentSet| {
            let (stream_lo, len, bytes) = parse_interval(payload)?;
            if bytes.len() as u64 != len {
                return Err(IoError::Usage("view-based payload length mismatch".into()));
            }
            let mut cursor = 0usize;
            for (foff, flen) in views.views[src].extents(stream_lo, len) {
                let at = (foff - ws) as usize;
                buf[at..at + flen as usize].copy_from_slice(&bytes[cursor..cursor + flen as usize]);
                cursor += flen as usize;
                dirty.insert(foff, flen);
            }
            rank.charge_memcpy(len);
            Ok(())
        };
    write_rounds(rank, file, cfg, &path, hull, build, place)
}

/// View-based collective read: the registered views replace the entire
/// request-exchange phase of the two-phase read — each rank sends only a
/// 16-byte `(stream position, length)` header per aggregator, and the
/// aggregator derives both what to read from the file and how to slice the
/// responses from the stored views.
///
/// `CollectiveConfig::pipeline` is a no-op here (the path's `pipe_span` is
/// `None`): the read has no separate request exchange to prefetch (the
/// 16-byte headers *are* the request phase), so there is no round k+1
/// traffic to overlap with round k's OST service without reordering the
/// response exchange the scatter depends on. The classic
/// [`crate::read_all_at`] path pipelines reads.
pub fn read_all_view_based(
    rank: &mut Rank,
    file: &mut File,
    views: &RegisteredViews,
    offset: u64,
    buf: &mut [u8],
    cfg: &CollectiveConfig,
) -> Result<()> {
    let world = rank.world();
    let path = Path {
        comm: &world,
        merges: false,
        flat_span: None,
        pipe_span: None,
    };
    let view = views.mine(rank)?;
    let want = buf.len() as u64;
    // Phase 1: a 16-byte interval header per aggregator; its reply fills
    // the one matching slot of `buf`. Phase 2 is [`Requests`] on the
    // registered views.
    let request = |ws, we| {
        Ok(match stream_interval(view, offset, want, ws, we) {
            Some((lo, hi)) => (
                interval_header(lo, hi - lo, 0),
                Some(((lo - offset) as usize, (hi - lo) as usize)).into_iter(),
            ),
            None => (Vec::new(), None.into_iter()),
        })
    };
    let hull = view.hull(offset, want);
    read_rounds(rank, file, cfg, &path, hull, buf, request, views)
}

/// The aggregator derives the file runs a source wants from its registered
/// view and the 16-byte interval header it sent.
impl Requests for RegisteredViews {
    fn wanted<'p>(
        &'p self,
        src: usize,
        payload: &'p [u8],
    ) -> Result<impl Iterator<Item = (u64, u64)> + Clone + 'p> {
        match parse_interval(payload)? {
            (lo, len, []) => Ok(self.views[src].extents(lo, len)),
            _ => Err(IoError::Usage("malformed view-based request".into())),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::file::Mode;
    use mpisim::{Datatype, Named, SimConfig};
    use pfs::{Pfs, PfsConfig};
    use std::sync::Arc;

    fn write_both_ways(
        nprocs: usize,
        len_array: usize,
        cfg: CollectiveConfig,
    ) -> (Vec<u8>, Vec<u8>) {
        // The Fig. 2 interleaved pattern, written once with classic
        // two-phase and once view-based; files must be identical.
        let mut snaps = Vec::new();
        for view_based in [false, true] {
            let fs = Pfs::new(nprocs, PfsConfig::default()).unwrap();
            let fs2 = Arc::clone(&fs);
            let cfg = cfg.clone();
            mpisim::run(nprocs, SimConfig::default(), move |rk| {
                let mut f = File::open(rk, &fs2, "/vb", Mode::WriteOnly)?;
                let etype = Datatype::contiguous(12, Datatype::named(Named::Byte)).commit();
                let ftype =
                    Datatype::vector(len_array, 1, nprocs as isize, etype.datatype().clone())
                        .commit();
                f.set_view(rk, rk.rank() as u64 * 12, &etype, &ftype)?;
                let data = vec![rk.rank() as u8 + 1; 12 * len_array];
                if view_based {
                    let views = register_views(rk, &f)?;
                    write_all_view_based(rk, &mut f, &views, 0, &data, &cfg)?;
                } else {
                    crate::collective::write_all_at(rk, &mut f, 0, &data, &cfg)?;
                }
                f.close(rk)?;
                Ok(())
            })
            .unwrap();
            let fid = fs.open("/vb").unwrap();
            snaps.push(fs.snapshot_file(fid).unwrap());
        }
        let b = snaps.pop().unwrap();
        let a = snaps.pop().unwrap();
        (a, b)
    }

    #[test]
    fn view_based_matches_two_phase() {
        let (two_phase, view_based) = write_both_ways(4, 8, CollectiveConfig::default());
        assert_eq!(two_phase, view_based);
    }

    #[test]
    fn view_based_matches_with_fewer_aggregators_and_rounds() {
        let cfg = CollectiveConfig {
            cb_nodes: Some(2),
            cb_buffer: Some(64),
            ..Default::default()
        };
        let (two_phase, view_based) = write_both_ways(3, 5, cfg);
        assert_eq!(two_phase, view_based);
    }

    #[test]
    fn view_based_pipelined_rounds_match_two_phase() {
        let cfg = CollectiveConfig {
            cb_nodes: Some(2),
            cb_buffer: Some(64),
            pipeline: true,
            ..Default::default()
        };
        let (two_phase, view_based) = write_both_ways(3, 5, cfg);
        assert_eq!(two_phase, view_based);
    }

    #[test]
    fn view_based_two_level_matches_with_topology() {
        let (two_phase, _) = write_both_ways(4, 8, CollectiveConfig::default());
        let cfg = CollectiveConfig {
            intra_agg: true,
            ..Default::default()
        };
        let nprocs = 4;
        let len_array = 8;
        let fs = Pfs::new(nprocs, PfsConfig::default()).unwrap();
        let fs2 = Arc::clone(&fs);
        let sim = SimConfig {
            topology: Some(mpisim::Topology::blocked(nprocs, 2)),
            ..Default::default()
        };
        mpisim::run(nprocs, sim, move |rk| {
            let mut f = File::open(rk, &fs2, "/vb2", Mode::WriteOnly)?;
            let etype = Datatype::contiguous(12, Datatype::named(Named::Byte)).commit();
            let ftype =
                Datatype::vector(len_array, 1, nprocs as isize, etype.datatype().clone()).commit();
            f.set_view(rk, rk.rank() as u64 * 12, &etype, &ftype)?;
            let data = vec![rk.rank() as u8 + 1; 12 * len_array];
            let views = register_views(rk, &f)?;
            write_all_view_based(rk, &mut f, &views, 0, &data, &cfg)?;
            f.close(rk)?;
            Ok(())
        })
        .unwrap();
        let fid = fs.open("/vb2").unwrap();
        assert_eq!(fs.snapshot_file(fid).unwrap(), two_phase);
    }

    #[test]
    fn view_based_moves_less_metadata() {
        // Count fabric bytes: the view-based exchange must ship fewer
        // total bytes (no per-extent headers) for a fragmented pattern.
        let nprocs = 4;
        let len_array = 64; // 64 extents of 12 B per rank per aggregator
        let mut fabric_bytes = Vec::new();
        for view_based in [false, true] {
            let fs = Pfs::new(nprocs, PfsConfig::default()).unwrap();
            let rep = mpisim::run(nprocs, SimConfig::default(), move |rk| {
                let mut f = File::open(rk, &fs, "/m", Mode::WriteOnly)?;
                let etype = Datatype::contiguous(12, Datatype::named(Named::Byte)).commit();
                let ftype =
                    Datatype::vector(len_array, 1, nprocs as isize, etype.datatype().clone())
                        .commit();
                f.set_view(rk, rk.rank() as u64 * 12, &etype, &ftype)?;
                let data = vec![1u8; 12 * len_array];
                if view_based {
                    let views = register_views(rk, &f)?;
                    write_all_view_based(
                        rk,
                        &mut f,
                        &views,
                        0,
                        &data,
                        &CollectiveConfig::default(),
                    )?;
                } else {
                    crate::collective::write_all_at(
                        rk,
                        &mut f,
                        0,
                        &data,
                        &CollectiveConfig::default(),
                    )?;
                }
                f.close(rk)?;
                Ok(())
            })
            .unwrap();
            fabric_bytes.push(rep.fabric.bytes);
        }
        assert!(
            fabric_bytes[1] < fabric_bytes[0],
            "view-based ({}) must ship fewer bytes than two-phase ({})",
            fabric_bytes[1],
            fabric_bytes[0]
        );
    }

    #[test]
    fn empty_ranks_participate() {
        let fs = Pfs::new(3, PfsConfig::default()).unwrap();
        let fs2 = Arc::clone(&fs);
        mpisim::run(3, SimConfig::default(), move |rk| {
            let mut f = File::open(rk, &fs2, "/e", Mode::WriteOnly)?;
            let views = register_views(rk, &f)?;
            let data = if rk.rank() == 0 {
                vec![7u8; 24]
            } else {
                Vec::new()
            };
            write_all_view_based(rk, &mut f, &views, 0, &data, &CollectiveConfig::default())?;
            Ok(())
        })
        .unwrap();
        let fid = fs.open("/e").unwrap();
        assert_eq!(fs.snapshot_file(fid).unwrap(), vec![7u8; 24]);
    }

    #[test]
    fn view_based_read_roundtrips() {
        let nprocs = 4;
        let len_array = 8;
        // Write with classic two-phase, read back view-based.
        let fs = Pfs::new(nprocs, PfsConfig::default()).unwrap();
        let fs2 = Arc::clone(&fs);
        let rep = mpisim::run(nprocs, SimConfig::default(), move |rk| {
            let mut f = File::open(rk, &fs2, "/vbr", Mode::ReadWrite)?;
            let etype = Datatype::contiguous(12, Datatype::named(Named::Byte)).commit();
            let ftype =
                Datatype::vector(len_array, 1, nprocs as isize, etype.datatype().clone()).commit();
            f.set_view(rk, rk.rank() as u64 * 12, &etype, &ftype)?;
            let data = vec![rk.rank() as u8 + 1; 12 * len_array];
            crate::collective::write_all_at(rk, &mut f, 0, &data, &CollectiveConfig::default())?;
            let views = register_views(rk, &f)?;
            let mut back = vec![0u8; 12 * len_array];
            read_all_view_based(
                rk,
                &mut f,
                &views,
                0,
                &mut back,
                &CollectiveConfig::default(),
            )?;
            Ok(back)
        })
        .unwrap();
        for (r, back) in rep.results.iter().enumerate() {
            assert!(
                back.iter().all(|&b| b == r as u8 + 1),
                "rank {r} read bad data"
            );
        }
    }

    #[test]
    fn view_based_read_partial_range() {
        // Read only a middle slice of the stream through the view.
        let nprocs = 2;
        let fs = Pfs::new(nprocs, PfsConfig::default()).unwrap();
        let fs2 = Arc::clone(&fs);
        let rep = mpisim::run(nprocs, SimConfig::default(), move |rk| {
            let mut f = File::open(rk, &fs2, "/vbp", Mode::ReadWrite)?;
            let etype = Datatype::contiguous(8, Datatype::named(Named::Byte)).commit();
            let ftype = Datatype::vector(6, 1, 2, etype.datatype().clone()).commit();
            f.set_view(rk, rk.rank() as u64 * 8, &etype, &ftype)?;
            let data: Vec<u8> = (0..48).map(|i| (rk.rank() * 100 + i) as u8).collect();
            crate::collective::write_all_at(rk, &mut f, 0, &data, &CollectiveConfig::default())?;
            let views = register_views(rk, &f)?;
            let mut slice = vec![0u8; 16];
            read_all_view_based(
                rk,
                &mut f,
                &views,
                10,
                &mut slice,
                &CollectiveConfig::default(),
            )?;
            let expect: Vec<u8> = (10..26).map(|i| (rk.rank() * 100 + i) as u8).collect();
            assert_eq!(slice, expect, "rank {}", rk.rank());
            Ok(())
        });
        rep.unwrap();
    }

    #[test]
    fn serialized_views_roundtrip() {
        let etype = Datatype::contiguous(12, Datatype::named(Named::Byte)).commit();
        let ftype = Datatype::vector(5, 1, 3, etype.datatype().clone()).commit();
        let v = FileView::new(24, &etype, &ftype).unwrap();
        let w = FileView::deserialize(&v.serialize().unwrap()).unwrap();
        for (pos, len) in [(0u64, 60u64), (7, 13), (59, 1)] {
            assert_eq!(v.map_range(pos, len), w.map_range(pos, len));
        }
        assert!(FileView::deserialize(&[1, 2, 3]).is_err());
    }
}
