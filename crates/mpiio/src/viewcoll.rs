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
use crate::extents::Cover;
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
        let Some((lo, hi)) = view.stream_interval(offset, data.len() as u64, ws, we) else {
            return Ok(Vec::new());
        };
        let mut msg = interval_header(lo, hi - lo, (hi - lo) as usize);
        msg.extend_from_slice(&data[(lo - offset) as usize..(hi - offset) as usize]);
        Ok(msg)
    };
    // Aggregator side: reconstruct placement from the stored views.
    let place =
        |rank: &mut Rank, src: usize, payload: &[u8], ws, buf: &mut [u8], dirty: &mut Cover| {
            let (stream_lo, len, bytes) = parse_interval(payload)?;
            if bytes.len() as u64 != len {
                return Err(IoError::Usage("view-based payload length mismatch".into()));
            }
            let mut cursor = 0usize;
            for (foff, flen) in views.views[src].extents(stream_lo, len) {
                dirty.insert(foff, flen)?;
                let at = (foff - ws) as usize;
                buf[at..at + flen as usize].copy_from_slice(&bytes[cursor..cursor + flen as usize]);
                cursor += flen as usize;
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
        let share = view.stream_interval(offset, want, ws, we);
        Ok(share.map(|(lo, hi)| {
            let slot = ((lo - offset) as usize, (hi - lo) as usize);
            (interval_header(lo, hi - lo, 0), slot)
        }))
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
    use crate::file::{Mode, PositionedFile};
    use mpisim::{Datatype, Named, SimConfig};
    use pfs::{Pfs, PfsConfig};
    use std::sync::Arc;

    /// The differential between the piece-list and the view-based
    /// collectives: rank r sets `ftype` as its view at `disp = r · stride`
    /// and writes `asks[r] = (stream offset, length)` of its own bytes —
    /// once through each write path, each time read back through both read
    /// paths. The two files and all four read-backs must agree; returns
    /// the file. `File::end` is checked on the way, against a count over
    /// the view's extents.
    fn both_ways(
        ftype: &Datatype,
        stride: u64,
        asks: &[(u64, usize)],
        cfg: &CollectiveConfig,
        topology: Option<mpisim::Topology>,
    ) -> Vec<u8> {
        let nprocs = asks.len();
        let etype = Datatype::named(Named::Byte).commit();
        let ftype = ftype.commit();
        let files = [false, true].map(|view_based| {
            let fs = Pfs::new(nprocs, PfsConfig::default()).unwrap();
            let sim = SimConfig {
                topology: topology.clone(),
                ..Default::default()
            };
            mpisim::run(nprocs, sim, |rk| {
                let me = rk.rank();
                let mut f = File::open(rk, &fs, "/vb", Mode::ReadWrite)?;
                f.set_view(rk, me as u64 * stride, &etype, &ftype)?;
                let (offset, len) = asks[me];
                let data: Vec<u8> = (0..len).map(|i| (me * 37 + i) as u8).collect();
                let views = register_views(rk, &f)?;
                if view_based {
                    write_all_view_based(rk, &mut f, &views, offset, &data, cfg)?;
                } else {
                    crate::collective::write_all_at(rk, &mut f, offset, &data, cfg)?;
                }
                let (mut pieces, mut viewed) = (vec![0u8; len], vec![0u8; len]);
                crate::collective::read_all_at(rk, &mut f, offset, &mut pieces, cfg)?;
                read_all_view_based(rk, &mut f, &views, offset, &mut viewed, cfg)?;
                assert_eq!(
                    pieces, data,
                    "rank {me}: piece-list read, view_based={view_based}"
                );
                assert_eq!(
                    viewed, data,
                    "rank {me}: view-based read, view_based={view_based}"
                );
                // A stream of `eof` bytes reaches past byte `eof` of the file.
                let eof = fs.len(f.file_id())?;
                let below = crate::view::tests::bytes_below(f.view().extents(0, eof), eof);
                assert_eq!(f.end()?, below, "rank {me}: end of a {eof}-byte file");
                f.close(rk)?;
                Ok(())
            })
            .unwrap();
            fs.snapshot_file(fs.open("/vb").unwrap()).unwrap()
        });
        let [two_phase, view_based] = files;
        assert_eq!(
            two_phase, view_based,
            "the two write paths left different files"
        );
        two_phase
    }

    /// The Fig. 2 interleaved pattern: `len_array` 12-byte blocks per rank,
    /// dealt round-robin.
    fn fig2(
        nprocs: usize,
        len_array: usize,
        cfg: &CollectiveConfig,
        topology: Option<mpisim::Topology>,
    ) -> Vec<u8> {
        let block = Datatype::contiguous(12, Datatype::named(Named::Byte));
        let ftype = Datatype::vector(len_array, 1, nprocs as isize, block);
        let asks = vec![(0, 12 * len_array); nprocs];
        both_ways(&ftype, 12, &asks, cfg, topology)
    }

    #[test]
    fn view_based_matches_two_phase() {
        let file = fig2(4, 8, &CollectiveConfig::default(), None);
        assert_eq!(file.len(), 4 * 8 * 12);
    }

    #[test]
    fn view_based_matches_with_fewer_aggregators_and_rounds() {
        let cfg = CollectiveConfig {
            cb_nodes: Some(2),
            cb_buffer: Some(64),
            ..Default::default()
        };
        fig2(3, 5, &cfg, None);
    }

    #[test]
    fn view_based_pipelined_rounds_match_two_phase() {
        let cfg = CollectiveConfig {
            cb_nodes: Some(2),
            cb_buffer: Some(64),
            pipeline: true,
            ..Default::default()
        };
        fig2(3, 5, &cfg, None);
    }

    #[test]
    fn view_based_two_level_matches_with_topology() {
        let flat = fig2(4, 8, &CollectiveConfig::default(), None);
        let cfg = CollectiveConfig {
            intra_agg: true,
            ..Default::default()
        };
        let topology = Some(mpisim::Topology::blocked(4, 2));
        assert_eq!(fig2(4, 8, &cfg, topology), flat);
    }

    /// A filetype whose first block sits past its tile's origin:
    /// `stream_len_for_file` used to count from the origin, and the
    /// view-based write panicked placing a piece past its window where the
    /// piece-list write was right.
    #[test]
    fn a_lower_bound_moves_no_window() {
        let byte = Datatype::named(Named::Byte);
        let at_8 = Datatype::indexed(vec![4], vec![8], byte).unwrap();
        let cfg = CollectiveConfig {
            cb_nodes: Some(2),
            cb_buffer: Some(16),
            ..Default::default()
        };
        let file = both_ways(&Datatype::resized(0, 8, at_8), 4, &[(0, 16); 2], &cfg, None);
        // Rank r's block k is bytes `8 + 8k + 4r ..+ 4` of the file.
        let expect = |at: usize| match at.checked_sub(8) {
            Some(i) => ((i / 4 % 2) * 37 + i / 8 * 4 + i % 4) as u8,
            None => 0,
        };
        assert_eq!(file, (0..40).map(expect).collect::<Vec<u8>>());
    }

    /// Both paths, the same bytes, over random filetype trees — tiled
    /// between the ranks so no two write the same byte — random requests
    /// starting mid-block (a quarter of them empty) and random hints:
    /// aggregator count, window size, pipelining, request aggregation over
    /// a topology. Small windows leave most sources no share of most of
    /// them: that is the empty payload, on every path.
    #[test]
    fn both_paths_agree_on_random_views_and_hints() {
        use rand::{RngExt, SeedableRng};
        for seed in 0..64u64 {
            let mut rng = rand::rngs::StdRng::seed_from_u64(0xb07 ^ seed);
            let tile = crate::view::tests::random_filetype(&mut rng, 2);
            let mut pick = |lo: u64, hi: u64| lo + rng.next_u64() % (hi - lo);
            let nprocs = pick(1, 7);
            let (size, extent) = (tile.size() as u64, tile.extent() as u64);
            let ftype = Datatype::resized(0, (nprocs * extent) as usize, tile);
            let asks: Vec<(u64, usize)> = (0..nprocs)
                .map(|_| {
                    (
                        pick(0, 2 * size),
                        (pick(0, 3 * size) * pick(0, 4).min(1)) as usize,
                    )
                })
                .collect();
            let req_agg = pick(0, 2) == 0;
            let cfg = CollectiveConfig {
                cb_nodes: (pick(0, 2) == 0).then(|| pick(1, nprocs + 1) as usize),
                // From a sliver of one round-robin tile to a few of them.
                cb_buffer: (pick(0, 3) > 0)
                    .then(|| pick(1 + nprocs * extent / 32, 2 * nprocs * extent)),
                pipeline: pick(0, 2) == 0,
                req_agg,
                ..Default::default()
            };
            let topology =
                req_agg.then(|| mpisim::Topology::blocked(nprocs as usize, pick(1, 4) as usize));
            both_ways(&ftype, extent, &asks, &cfg, topology);
        }
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
