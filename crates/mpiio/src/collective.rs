//! Two-phase collective I/O — the paper's OCIO baseline, as implemented by
//! ROMIO (§III.A).
//!
//! `write_all_at`:
//!
//! 1. every rank resolves its view into file extents and the communicator
//!    agrees on the aggregate file domain `[min, max)` (allreduce);
//! 2. the domain is split evenly across the aggregators;
//! 3. **data exchange phase**: every rank sends each aggregator the pieces
//!    of its request that fall inside that aggregator's domain — an
//!    all-to-all burst of Isend/Irecv traffic (this is the traffic pattern
//!    the paper blames for OCIO's collapse at scale);
//! 4. **I/O phase**: each aggregator assembles its domain in a *collective
//!    buffer* (counted against the rank's simulated memory budget — the
//!    source of the Fig. 6/7 out-of-memory failure) and issues large
//!    contiguous file-system writes.
//!
//! `read_all_at` runs the phases in reverse, with an extra request-exchange
//! round so aggregators know what to read.
//!
//! The round loop itself is [`crate::rounds`]; this module owns the knobs
//! and the wire format: offset–length piece and request lists.
//!
//! `cb_buffer = None` reproduces the paper's observed behaviour (the whole
//! domain is buffered at once — their memory accounting in §V.B.2b implies
//! an unchunked exchange). `cb_buffer = Some(bytes)` enables ROMIO-style
//! multi-round chunking and is exercised by the ablation benches.

use crate::error::{IoError, Result};
use crate::extents::Cover;
use crate::file::File;
use crate::rounds::{read_rounds, write_rounds};
use mpisim::wire::Malformed;
use mpisim::Rank;

/// Tuning knobs of the two-phase implementation (ROMIO hints).
#[derive(Debug, Clone, Default)]
pub struct CollectiveConfig {
    /// Number of aggregator ranks (`cb_nodes`); `None` = all ranks.
    pub cb_nodes: Option<usize>,
    /// Collective buffer size per aggregator; `None` = unchunked (whole
    /// domain in one round — the paper's behaviour).
    pub cb_buffer: Option<u64>,
    /// Round file-domain boundaries up to this alignment (e.g. the PFS
    /// stripe size, per Liao & Choudhary's lock-boundary partitioning).
    pub align: Option<u64>,
    /// Intra-node *request* aggregation (Kang et al.): node leaders decode
    /// their members' offset–length lists, merge them per aggregator with
    /// adjacent-extent coalescing, and ship one merged list per
    /// (node, aggregator) pair — see [`crate::reqagg`]. Falls back to the
    /// flat burst without a topology.
    pub req_agg: bool,
    /// Pipelined (double-buffered) rounds: an aggregator submits round
    /// k's file I/O, *keeps the completion as a deferred handle*, and
    /// runs round k+1's exchange while the OSTs service round k —
    /// settling the handle only when both collective buffers are in
    /// flight (depth 2) or the round loop ends. File bytes are identical
    /// to the serialized path (the storage layer applies data at
    /// submission); only the clock attribution changes. Combine with
    /// `cb_buffer` — a single unchunked round has nothing to overlap.
    pub pipeline: bool,
}

/// The list both payload kinds start with: a count, then one
/// `(file_off u64, len u32)` entry per item. One walk writes each entry as
/// one 12-byte array and the count is patched into the header after it, so
/// the header is always the walk's own count. `data` reserves room for the
/// items' bytes to follow: the payload is allocated once, at its final
/// size, from the list's size hint — a list whose hint is not exact (an
/// irregular view, a `Cover`'s runs) is counted first. An empty list is the
/// empty payload — the exchange's "nothing for you".
pub(crate) fn encode_list(
    list: impl Iterator<Item = (u64, u64)> + Clone,
    data: u64,
) -> Result<Vec<u8>> {
    let n = match list.size_hint() {
        (lo, Some(hi)) if lo == hi => lo,
        _ => list.clone().count(),
    };
    if n == 0 {
        return Ok(Vec::new());
    }
    let mut out = Vec::with_capacity(4 + n * 12 + data as usize);
    out.extend_from_slice(&[0; 4]);
    for (off, len) in list {
        let len = u32::try_from(len).map_err(|_| Malformed::Overflow(len))?;
        let mut entry = [0; 12];
        entry[..8].copy_from_slice(&off.to_le_bytes());
        entry[8..].copy_from_slice(&len.to_le_bytes());
        out.extend_from_slice(&entry);
    }
    let walked = (out.len() - 4) / 12;
    debug_assert_eq!(walked, n, "an exact size hint the walk did not keep");
    let count = u32::try_from(walked).map_err(|_| Malformed::Overflow(walked as u64))?;
    out[..4].copy_from_slice(&count.to_le_bytes());
    Ok(out)
}

/// Split a payload into its `(file_off, len)` entries (none, for the empty
/// payload) and the bytes past them. The count is checked against the
/// buffer before anything is read through it; the entries are then
/// 12-byte arrays (`chunks_exact(12)` with the width in the type), each
/// read as two fixed-width little-endian loads.
#[allow(clippy::type_complexity)]
fn decode_list(buf: &[u8]) -> Result<(impl Iterator<Item = (u64, u64)> + Clone + '_, &[u8])> {
    let (n, rest) = match buf.split_first_chunk() {
        Some((n, rest)) => (u32::from_le_bytes(*n) as usize, rest),
        None if buf.is_empty() => (0, buf),
        None => return Err(Malformed::Truncated.into()),
    };
    let (entries, rest) = (n.checked_mul(12))
        .and_then(|len| rest.split_at_checked(len))
        .ok_or(Malformed::Truncated)?;
    let entry = |&[o0, o1, o2, o3, o4, o5, o6, o7, l0, l1, l2, l3]: &[u8; 12]| {
        let off = u64::from_le_bytes([o0, o1, o2, o3, o4, o5, o6, o7]);
        (off, u32::from_le_bytes([l0, l1, l2, l3]) as u64)
    };
    Ok((entries.as_chunks().0.iter().map(entry), rest))
}

/// Decode a piece list into `(off, payload)` views into `buf`. The lengths
/// are checked against the buffer first, so the iterator cannot fail.
pub(crate) fn decode_pieces(buf: &[u8]) -> Result<impl Iterator<Item = (u64, &[u8])> + Clone> {
    let (meta, mut data) = decode_list(buf)?;
    let total = meta
        .clone()
        .try_fold(0usize, |sum, (_, len)| sum.checked_add(len as usize));
    if total.is_none_or(|total| total > data.len()) {
        return Err(Malformed::Truncated.into());
    }
    Ok(meta.map(move |(off, len)| {
        let (piece, rest) = data.split_at(len as usize);
        data = rest;
        (off, piece)
    }))
}

/// Serialize a request list `(file_off, len)*` (reads, phase 1).
pub(crate) fn encode_requests(
    reqs: impl IntoIterator<Item = (u64, u64), IntoIter: Clone>,
) -> Result<Vec<u8>> {
    encode_list(reqs.into_iter(), 0)
}

/// Decode a request list: the file extents a source wants of an
/// aggregator's window, in the order its reply carries them.
pub(crate) fn decode_requests(buf: &[u8]) -> Result<impl Iterator<Item = (u64, u64)> + Clone + '_> {
    let (reqs, rest) = decode_list(buf)?;
    if !rest.is_empty() {
        return Err(IoError::Usage("malformed request payload".into()));
    }
    Ok(reqs)
}

/// An aggregator's placement of one source's piece list: each piece into
/// window `ws`'s buffer, marked dirty first — which refuses one outside the
/// window.
pub(crate) fn place_pieces(
    rank: &mut Rank,
    payload: &[u8],
    ws: u64,
    buf: &mut [u8],
    dirty: &mut Cover,
) -> Result<()> {
    for (off, bytes) in decode_pieces(payload)? {
        dirty.insert(off, bytes.len() as u64)?;
        let at = (off - ws) as usize;
        buf[at..at + bytes.len()].copy_from_slice(bytes);
        rank.charge_memcpy(bytes.len() as u64);
    }
    Ok(())
}

/// Collective write: all ranks must call, each with its own (possibly
/// empty) data at a view-stream `offset`. Every rank sends each aggregator
/// the pieces of its request that fall inside that aggregator's window.
pub fn write_all_at(
    rank: &mut Rank,
    file: &mut File,
    offset: u64,
    data: &[u8],
    cfg: &CollectiveConfig,
) -> Result<()> {
    let (view, len) = (file.view(), data.len() as u64);
    // A window's share of the request is one stream interval: its extents
    // head the payload, its bytes follow as one slice.
    let build = |ws, we| {
        let Some((lo, hi)) = view.stream_interval(offset, len, ws, we) else {
            return Ok(Vec::new());
        };
        let mut out = encode_list(view.extents(lo, hi - lo), hi - lo)?;
        out.extend_from_slice(&data[(lo - offset) as usize..(hi - offset) as usize]);
        Ok(out)
    };
    let hull = view.hull(offset, len);
    write_rounds(rank, file, cfg, hull, build)
}

/// Collective read: all ranks must call, each filling its own (possibly
/// empty) buffer from a view-stream `offset`. Phase 1 sends each
/// aggregator the extents needed from its window; phase 2 returns their
/// bytes in request order.
pub fn read_all_at(
    rank: &mut Rank,
    file: &mut File,
    offset: u64,
    buf: &mut [u8],
    cfg: &CollectiveConfig,
) -> Result<()> {
    let (view, len) = (file.view(), buf.len() as u64);
    // The reply to a window's request fills the one slot of `buf` its
    // stream interval is.
    let request = |ws, we| {
        let Some((lo, hi)) = view.stream_interval(offset, len, ws, we) else {
            return Ok(None);
        };
        let slot = ((lo - offset) as usize, (hi - lo) as usize);
        Ok(Some((encode_requests(view.extents(lo, hi - lo))?, slot)))
    };
    let hull = view.hull(offset, len);
    read_rounds(rank, file, cfg, hull, buf, request)
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::client::Direction;
    use crate::file::{File, Mode, PositionedFile};
    use crate::rounds::Plan;
    use crate::view::tests::{bytes_below, random_filetype};
    use mpisim::wire::{push_frame, push_u32, Cursor};
    use mpisim::{Datatype, Named, SimConfig};
    use pfs::{Pfs, PfsConfig};
    use std::sync::Arc;

    /// Serialize a piece list `(file_off, payload)*`. Senders write theirs
    /// with [`encode_list`] and one slice of data; this is the tests' encoder.
    pub(crate) fn encode_pieces<'d>(
        pieces: impl IntoIterator<Item = (u64, &'d [u8]), IntoIter: Clone>,
    ) -> Result<Vec<u8>> {
        let pieces = pieces.into_iter();
        let lens = pieces.clone().map(|(off, d)| (off, d.len() as u64));
        let mut out = encode_list(lens.clone(), lens.map(|(_, l)| l).sum())?;
        for (_, d) in pieces {
            out.extend_from_slice(d);
        }
        Ok(out)
    }

    #[test]
    fn codec_roundtrip() {
        let a = [1u8, 2, 3];
        let b = [9u8];
        let pieces = [(10, &a[..]), (99, &b[..])];
        let enc = encode_pieces(pieces).unwrap();
        let dec: Vec<_> = decode_pieces(&enc).unwrap().collect();
        assert_eq!(dec, pieces);

        let reqs = [(5u64, 7u64), (100, 1)];
        let enc = encode_requests(reqs).unwrap();
        assert_eq!(decode_requests(&enc).unwrap().collect::<Vec<_>>(), reqs);

        // The empty list and the empty payload are the same thing.
        assert!(encode_pieces([]).unwrap().is_empty());
        assert!(encode_requests([]).unwrap().is_empty());
        assert_eq!(decode_pieces(&[]).unwrap().count(), 0);
        assert_eq!(decode_requests(&[]).unwrap().count(), 0);
    }

    #[test]
    fn decoders_are_total_on_malformed_payloads() {
        let usage = |r: Result<()>| matches!(r, Err(IoError::Usage(_)));
        let pieces = |buf: &[u8]| decode_pieces(buf).map(drop);
        let requests = |buf: &[u8]| decode_requests(buf).map(drop);
        // Truncated header.
        assert!(usage(pieces(&[1, 2])));
        assert!(usage(requests(&[0, 0])));
        // A count the buffer cannot hold is rejected before it is
        // allocated for (0xffff_ffff entries would be 64 GiB of metadata).
        assert!(usage(pieces(&[0xff; 4])));
        assert!(usage(requests(&[0xff; 4])));
        let mut short = 2u32.to_le_bytes().to_vec();
        short.extend_from_slice(&[0u8; 12]); // two entries promised, one present
        assert!(usage(pieces(&short)));
        assert!(usage(requests(&short)));
        // A piece length running past the end of the buffer.
        let mut long = encode_pieces([(0, &[7u8; 4][..])]).unwrap();
        long.truncate(long.len() - 1);
        assert!(usage(pieces(&long)));
        long[12..16].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(usage(pieces(&long)));
        // Trailing bytes after a request list.
        let mut trailing = encode_requests([(0, 1)]).unwrap();
        trailing.push(0);
        assert!(usage(requests(&trailing)));
    }

    #[test]
    fn encoders_reject_lengths_the_wire_format_cannot_carry() {
        // A >= 4 GiB extent used to be truncated by `as u32`.
        let too_long = u32::MAX as u64 + 1;
        assert!(matches!(
            encode_requests([(0, too_long)]),
            Err(IoError::Usage(_))
        ));
        assert!(encode_requests([(u64::MAX, u32::MAX as u64)]).is_ok());
    }

    /// The encoder [`encode_list`] replaced, kept as its oracle: a count
    /// pass, then a write pass, and `with_data` reserving the sum of the
    /// lengths.
    fn encode_list_two_pass(
        list: impl Iterator<Item = (u64, u64)> + Clone,
        with_data: bool,
    ) -> Result<Vec<u8>> {
        let (n, bytes) = list
            .clone()
            .fold((0usize, 0u64), |(n, bytes), (_, len)| (n + 1, bytes + len));
        if n == 0 {
            return Ok(Vec::new());
        }
        let data = if with_data { bytes as usize } else { 0 };
        let mut out = Vec::with_capacity(4 + n * 12 + data);
        push_u32(&mut out, n as u64)?;
        for (off, len) in list {
            out.extend_from_slice(&off.to_le_bytes());
            push_u32(&mut out, len)?;
        }
        Ok(out)
    }

    /// The decoder [`decode_list`] replaced, kept as its oracle: each entry
    /// read through a `Cursor`.
    #[allow(clippy::type_complexity)]
    fn decode_list_by_cursor(
        buf: &[u8],
    ) -> Result<(impl Iterator<Item = (u64, u64)> + Clone + '_, &[u8])> {
        let mut cur = Cursor::new(buf);
        let n = if buf.is_empty() { 0 } else { cur.u32()? };
        let entries = cur.take(n.checked_mul(12).ok_or(Malformed::Truncated)?)?;
        let entry = |e: &[u8]| {
            let mut e = Cursor::new(e);
            let whole = "a 12-byte entry holds both fields";
            (e.u64().expect(whole), e.u32().expect(whole) as u64)
        };
        Ok((entries.chunks_exact(12).map(entry), cur.rest()))
    }

    /// Encode `list` with and without data, as a piece list's sender and a
    /// request list's do, by [`encode_list`] and by its two-pass oracle:
    /// the same bytes or the same error, no more capacity than the oracle
    /// gave, and both decoders reading back the list. Returns whether the
    /// list's size hint was exact (the one-walk case).
    fn assert_encodes_as_the_oracle(
        list: impl Iterator<Item = (u64, u64)> + Clone,
        what: &str,
    ) -> bool {
        let data: u64 = list.clone().map(|(_, l)| l).sum();
        for with_data in [false, true] {
            let new = encode_list(list.clone(), if with_data { data } else { 0 });
            let old = encode_list_two_pass(list.clone(), with_data);
            assert_eq!(new, old, "{what}, with_data={with_data}");
            let (Ok(new), Ok(old)) = (new, old) else {
                continue;
            };
            assert!(new.capacity() <= old.capacity(), "{what}: over-reserved");
            let (entries, rest) = decode_list(&new).unwrap();
            assert!(
                entries.eq(list.clone()) && rest.is_empty(),
                "{what}: read back"
            );
            let (entries, rest) = decode_list_by_cursor(&new).unwrap();
            assert!(
                entries.eq(list.clone()) && rest.is_empty(),
                "{what}: oracle read back"
            );
        }
        matches!(list.size_hint(), (lo, Some(hi)) if lo == hi)
    }

    /// A monotone struct filetype: random children at ascending byte
    /// displacements, each past the blocks before it (a child's blocks
    /// start at its lower bound).
    fn random_struct(rng: &mut rand::rngs::StdRng) -> Datatype {
        use rand::RngExt;
        let n = 1 + rng.next_u64() as usize % 3;
        let (mut lens, mut displs, mut children) = (Vec::new(), Vec::new(), Vec::new());
        let mut at = rng.next_u64() as usize % 5;
        for _ in 0..n {
            let child = random_filetype(rng, 1);
            let len = 1 + rng.next_u64() as usize % 3;
            displs.push(at as isize);
            at += child.lb() as usize + len * child.extent() + rng.next_u64() as usize % 7;
            lens.push(len);
            children.push(child);
        }
        Datatype::structured(lens, displs, children).unwrap()
    }

    /// The one-walk encoder against the two-pass one over 600 seeded views
    /// — vector, indexed, subarray, resized and struct filetypes under a
    /// displacement, and the identity view — each walked over ranges that
    /// cross tiles, empty ranges and the window shares a collective sends;
    /// then a length past the 32-bit field. Both the exact-hint walk and
    /// the counted one must be exercised.
    #[test]
    fn the_one_walk_encoder_writes_the_two_pass_bytes_on_random_views() {
        use rand::{RngExt, SeedableRng};
        let etype = Datatype::named(Named::Byte).commit();
        let (mut exact, mut counted) = (0, 0);
        for seed in 0..600u64 {
            let mut rng = rand::rngs::StdRng::seed_from_u64(0xc0de ^ seed);
            let ftype = match rng.next_u64() % 6 {
                0 => None,
                1 => Some(random_struct(&mut rng)),
                _ => Some(random_filetype(&mut rng, 2)),
            };
            let mut pick = |lo: u64, hi: u64| lo + rng.next_u64() % (hi - lo);
            let view = match &ftype {
                None => crate::FileView::contiguous(),
                Some(t) => {
                    let disp = pick(0, 3) * pick(0, 100);
                    crate::FileView::new(disp, &etype, &t.commit()).unwrap()
                }
            };
            let tile = view.tile_size().max(64);
            let (fs, fe) = view.hull(0, 4 * tile).unwrap();
            for _ in 0..16 {
                let pos = pick(0, 3 * tile);
                let len = pick(0, 3 * tile) * pick(0, 4).min(1);
                let what = format!("seed {seed}: [{pos}, +{len}) of {ftype:?}");
                if assert_encodes_as_the_oracle(view.extents(pos, len), &what) {
                    exact += 1;
                } else {
                    counted += 1;
                }
                // A window's share of the range, as a collective cuts it.
                let ws = pick(fs.saturating_sub(8), fe);
                let we = ws + pick(1, fe - fs + 2);
                if let Some((lo, hi)) = view.stream_interval(pos, len, ws, we) {
                    let what = format!("{what} in [{ws}, {we})");
                    assert_encodes_as_the_oracle(view.extents(lo, hi - lo), &what);
                }
            }
        }
        assert!(exact > 1000, "only {exact} ranges walked once");
        assert!(counted > 1000, "only {counted} ranges counted first");
        // A length past the 32-bit field fails both encoders alike, with or
        // without the 4 GiB of data room (reserved, never touched): one
        // identity extent, and a block of a strided view.
        let identity = crate::FileView::contiguous();
        let past = u32::MAX as u64 + 1;
        assert_encodes_as_the_oracle(identity.extents(7, past), "identity");
        let block = Datatype::contiguous(past as usize + 2, Datatype::named(Named::Byte));
        let ftype = Datatype::vector(3, 1, 2, block).commit();
        let strided = crate::FileView::new(5, &etype, &ftype).unwrap();
        assert!(assert_encodes_as_the_oracle(
            strided.extents(1, past),
            "a long block"
        ));
    }

    /// Corrupt a valid encoding: truncate, extend, plant an all-ones
    /// length field, or flip a bit — one to three times.
    fn mutate(seed: &[u8], rng: &mut rand::rngs::StdRng) -> Vec<u8> {
        use rand::RngExt;
        let mut m = seed.to_vec();
        for _ in 0..1 + rng.next_u64() % 3 {
            let at = (rng.next_u64() % (m.len() as u64 + 1)) as usize;
            match rng.next_u64() % 4 {
                0 => m.truncate(at),
                1 => m.extend_from_slice(&rng.next_u64().to_le_bytes()[..1 + at % 8]),
                2 if at + 4 <= m.len() => m[at..at + 4].fill(0xff),
                _ if at < m.len() => m[at] ^= 1 << (rng.next_u64() % 8),
                _ => {}
            }
        }
        m
    }

    /// The seeded mutate-and-decode loop over every wire format of the
    /// crate — piece lists, request lists and request-aggregation frames:
    /// a corrupted payload decodes to a typed error or a
    /// value, never a panic, and a decoded list never has more entries
    /// than the input has bytes to describe them. The list decoder yields
    /// what its `Cursor` oracle yields, and fails exactly where it fails.
    #[test]
    fn every_decoder_is_total_on_mutated_payloads() {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(0x2b);
        let a = [7u8; 40];
        let pieces = encode_pieces([(0, &a[..8]), (64, &a[..]), (1 << 40, &a[..1])]).unwrap();
        let requests = encode_requests([(0, 8), (64, 40), (1 << 40, u32::MAX as u64)]).unwrap();
        let mut frames = Vec::new();
        push_frame(&mut frames, 3, &pieces).unwrap();
        push_frame(&mut frames, 0, &[]).unwrap();
        push_frame(&mut frames, 17, &requests).unwrap();
        for seed in [pieces, requests, frames] {
            for _ in 0..4000 {
                let m = mutate(&seed, &mut rng);
                if let Ok(list) = decode_pieces(&m) {
                    let data: usize = list.clone().map(|(_, d)| d.len()).sum();
                    assert!(4 + 12 * list.count() + data <= m.len().max(4));
                }
                if let Ok(list) = decode_requests(&m) {
                    assert!(4 + 12 * list.count() <= m.len().max(4));
                }
                match (decode_list(&m), decode_list_by_cursor(&m)) {
                    (Ok((new, new_rest)), Ok((old, old_rest))) => {
                        assert!(new.eq(old) && new_rest == old_rest);
                    }
                    (new, old) => assert_eq!(new.err(), old.err()),
                }
                let mut cur = Cursor::new(&m);
                while !cur.is_empty() && cur.frame().is_ok() {}
            }
        }
    }

    fn run_interleaved(
        nprocs: usize,
        len_array: usize,
        cfg: CollectiveConfig,
    ) -> (Arc<Pfs>, Vec<u8>) {
        run_interleaved_sim(nprocs, len_array, cfg, SimConfig::default())
    }

    fn run_interleaved_sim(
        nprocs: usize,
        len_array: usize,
        cfg: CollectiveConfig,
        sim: SimConfig,
    ) -> (Arc<Pfs>, Vec<u8>) {
        // The paper's Fig. 2 pattern: block b of the file belongs to rank
        // b % P; rank r writes blocks of 12 bytes filled with (r+1).
        let fs = Pfs::new(nprocs, PfsConfig::default()).unwrap();
        let fs2 = Arc::clone(&fs);
        mpisim::run(nprocs, sim, move |rk| {
            let mut f = File::open(rk, &fs2, "/c", Mode::WriteOnly)?;
            let etype = Datatype::contiguous(12, Datatype::named(Named::Byte)).commit();
            let ftype =
                Datatype::vector(len_array, 1, nprocs as isize, etype.datatype().clone()).commit();
            f.set_view(rk, rk.rank() as u64 * 12, &etype, &ftype)?;
            let data = vec![rk.rank() as u8 + 1; 12 * len_array];
            write_all_at(rk, &mut f, 0, &data, &cfg)?;
            f.close(rk)?;
            Ok(())
        })
        .unwrap();
        let fid = fs.open("/c").unwrap();
        let bytes = fs.snapshot_file(fid).unwrap();
        (fs, bytes)
    }

    fn check_interleaved(bytes: &[u8], nprocs: usize, len_array: usize) {
        assert_eq!(bytes.len(), 12 * nprocs * len_array);
        for block in 0..nprocs * len_array {
            let expect = (block % nprocs) as u8 + 1;
            assert!(
                bytes[block * 12..(block + 1) * 12]
                    .iter()
                    .all(|&b| b == expect),
                "block {block} corrupted"
            );
        }
    }

    #[test]
    fn write_all_produces_interleaved_file() {
        let (_, bytes) = run_interleaved(4, 8, CollectiveConfig::default());
        check_interleaved(&bytes, 4, 8);
    }

    #[test]
    fn write_all_with_fewer_aggregators() {
        let cfg = CollectiveConfig {
            cb_nodes: Some(2),
            ..Default::default()
        };
        let (_, bytes) = run_interleaved(4, 8, cfg);
        check_interleaved(&bytes, 4, 8);
    }

    #[test]
    fn write_all_chunked_rounds() {
        let cfg = CollectiveConfig {
            cb_buffer: Some(64), // tiny rounds force multi-round exchange
            ..Default::default()
        };
        let (_, bytes) = run_interleaved(4, 8, cfg);
        check_interleaved(&bytes, 4, 8);
    }

    #[test]
    fn write_all_stripe_aligned_domains() {
        let cfg = CollectiveConfig {
            align: Some(1 << 20),
            ..Default::default()
        };
        let (_, bytes) = run_interleaved(4, 8, cfg);
        check_interleaved(&bytes, 4, 8);
    }

    fn run_interleaved_report(
        nprocs: usize,
        len_array: usize,
        cfg: CollectiveConfig,
        sim: SimConfig,
    ) -> (Vec<u8>, mpisim::SimReport<()>) {
        let fs = Pfs::new(nprocs, PfsConfig::default()).unwrap();
        let fs2 = Arc::clone(&fs);
        let rep = mpisim::run(nprocs, sim, move |rk| {
            let mut f = File::open(rk, &fs2, "/c", Mode::WriteOnly)?;
            let etype = Datatype::contiguous(12, Datatype::named(Named::Byte)).commit();
            let ftype =
                Datatype::vector(len_array, 1, nprocs as isize, etype.datatype().clone()).commit();
            f.set_view(rk, rk.rank() as u64 * 12, &etype, &ftype)?;
            let data = vec![rk.rank() as u8 + 1; 12 * len_array];
            write_all_at(rk, &mut f, 0, &data, &cfg)?;
            f.close(rk)?;
            Ok(())
        })
        .unwrap();
        let fid = fs.open("/c").unwrap();
        (fs.snapshot_file(fid).unwrap(), rep)
    }

    #[test]
    fn pipelined_chunked_write_is_byte_identical_and_overlaps() {
        let flat = run_interleaved(
            4,
            8,
            CollectiveConfig {
                cb_buffer: Some(64),
                ..Default::default()
            },
        )
        .1;
        let cfg = CollectiveConfig {
            cb_buffer: Some(64),
            pipeline: true,
            ..Default::default()
        };
        let (bytes, rep) = run_interleaved_report(4, 8, cfg, SimConfig::default());
        assert_eq!(bytes, flat, "pipelining changed the file contents");
        let hidden = rep.aggregate_stats().io_overlap;
        assert!(
            hidden > 0.0,
            "multi-round pipelined write hid no I/O time (io_overlap={hidden})"
        );
    }

    #[test]
    fn pipelined_single_round_still_correct() {
        // Nothing to overlap (one round), but the drain path must still
        // settle the lone deferred handle.
        let cfg = CollectiveConfig {
            pipeline: true,
            ..Default::default()
        };
        let (_, bytes) = run_interleaved(4, 8, cfg);
        check_interleaved(&bytes, 4, 8);
    }

    #[test]
    fn pipelined_read_roundtrips() {
        let nprocs = 4;
        let len_array = 8;
        let (fs, _) = run_interleaved(nprocs, len_array, CollectiveConfig::default());
        let fs2 = Arc::clone(&fs);
        let cfg = CollectiveConfig {
            cb_buffer: Some(64),
            pipeline: true,
            ..Default::default()
        };
        let rep = mpisim::run(nprocs, SimConfig::default(), move |rk| {
            let mut f = File::open(rk, &fs2, "/c", Mode::ReadOnly)?;
            let etype = Datatype::contiguous(12, Datatype::named(Named::Byte)).commit();
            let ftype =
                Datatype::vector(len_array, 1, nprocs as isize, etype.datatype().clone()).commit();
            f.set_view(rk, rk.rank() as u64 * 12, &etype, &ftype)?;
            let mut buf = vec![0u8; 12 * len_array];
            read_all_at(rk, &mut f, 0, &mut buf, &cfg)?;
            Ok(buf)
        })
        .unwrap();
        for (r, buf) in rep.results.iter().enumerate() {
            assert!(
                buf.iter().all(|&b| b == r as u8 + 1),
                "rank {r} read back foreign data under pipelining"
            );
        }
        assert!(rep.aggregate_stats().io_overlap > 0.0);
    }

    #[test]
    fn req_agg_write_is_byte_identical() {
        let flat = run_interleaved(8, 6, CollectiveConfig::default()).1;
        for ppn in [2, 4] {
            let sim = SimConfig {
                topology: Some(mpisim::Topology::blocked(8, ppn)),
                ..Default::default()
            };
            let cfg = CollectiveConfig {
                req_agg: true,
                cb_nodes: Some(2),
                ..Default::default()
            };
            let (_, bytes) = run_interleaved_sim(8, 6, cfg, sim);
            assert_eq!(
                bytes, flat,
                "ppn={ppn} req-agg diverged from the flat burst"
            );
        }
    }

    #[test]
    fn req_agg_pipelined_chunked_write_is_byte_identical() {
        let flat = run_interleaved(
            8,
            6,
            CollectiveConfig {
                cb_buffer: Some(96),
                ..Default::default()
            },
        )
        .1;
        let sim = SimConfig {
            topology: Some(mpisim::Topology::blocked(8, 4)),
            ..Default::default()
        };
        let cfg = CollectiveConfig {
            cb_buffer: Some(96),
            req_agg: true,
            pipeline: true,
            ..Default::default()
        };
        let (_, bytes) = run_interleaved_sim(8, 6, cfg, sim);
        assert_eq!(
            bytes, flat,
            "req-agg + pipeline diverged from the flat burst"
        );
    }

    #[test]
    fn req_agg_read_roundtrips() {
        let nprocs = 8;
        let len_array = 6;
        let (fs, _) = run_interleaved(nprocs, len_array, CollectiveConfig::default());
        for (pipeline, cb_buffer) in [(false, None), (false, Some(96)), (true, Some(96))] {
            let fs2 = Arc::clone(&fs);
            let sim = SimConfig {
                topology: Some(mpisim::Topology::blocked(8, 4)),
                ..Default::default()
            };
            let cfg = CollectiveConfig {
                cb_nodes: Some(2),
                cb_buffer,
                req_agg: true,
                pipeline,
                ..Default::default()
            };
            let rep = mpisim::run(nprocs, sim, move |rk| {
                let mut f = File::open(rk, &fs2, "/c", Mode::ReadOnly)?;
                let etype = Datatype::contiguous(12, Datatype::named(Named::Byte)).commit();
                let ftype =
                    Datatype::vector(len_array, 1, nprocs as isize, etype.datatype().clone())
                        .commit();
                f.set_view(rk, rk.rank() as u64 * 12, &etype, &ftype)?;
                let mut buf = vec![0u8; 12 * len_array];
                read_all_at(rk, &mut f, 0, &mut buf, &cfg)?;
                Ok(buf)
            })
            .unwrap();
            for (r, buf) in rep.results.iter().enumerate() {
                assert!(
                    buf.iter().all(|&b| b == r as u8 + 1),
                    "rank {r} read foreign data (pipeline={pipeline}, cb={cb_buffer:?})"
                );
            }
        }
    }

    #[test]
    fn req_agg_intra_node_overwrite_keeps_rank_order() {
        // Ranks 0 and 1 share a node and both write offset 0; MPI leaves
        // overlap order undefined, but our merge mirrors the flat burst's
        // rank-index order: the higher rank's bytes win.
        for req_agg in [false, true] {
            let fs = Pfs::new(4, PfsConfig::default()).unwrap();
            let fs2 = Arc::clone(&fs);
            let sim = SimConfig {
                topology: Some(mpisim::Topology::blocked(4, 2)),
                ..Default::default()
            };
            let cfg = CollectiveConfig {
                req_agg,
                cb_nodes: Some(1),
                ..Default::default()
            };
            mpisim::run(4, sim, move |rk| {
                let mut f = File::open(rk, &fs2, "/ow", Mode::WriteOnly)?;
                let data = if rk.rank() < 2 {
                    vec![rk.rank() as u8 + 1; 8]
                } else {
                    Vec::new()
                };
                write_all_at(rk, &mut f, 0, &data, &cfg)?;
                Ok(())
            })
            .unwrap();
            let fid = fs.open("/ow").unwrap();
            let bytes = fs.snapshot_file(fid).unwrap();
            assert!(
                bytes.iter().all(|&b| b == 2),
                "req_agg={req_agg}: expected rank 1's bytes to win, got {bytes:?}"
            );
        }
    }

    #[test]
    fn req_agg_without_topology_falls_back_to_flat() {
        let cfg = CollectiveConfig {
            req_agg: true,
            cb_nodes: Some(2),
            ..Default::default()
        };
        let (_, bytes) = run_interleaved(4, 8, cfg);
        check_interleaved(&bytes, 4, 8);
    }

    /// A multi-round collective costs a rank one walk of its request, not
    /// one per round: Program 2's one-run view through 8 rounds × 16
    /// aggregators, windows cutting blocks, walks between `blocks` and
    /// `blocks + windows + 2` extents per rank and phase — `encode_list`'s
    /// one walk per window (each window's share ends inside the run, so
    /// its size hint is exact and nothing is counted first), plus a cut
    /// block per window edge and the two ends `hull` looks up.
    #[test]
    fn a_round_walks_its_windows_pieces_not_the_whole_request() {
        use std::sync::atomic::Ordering::Relaxed;
        const BLOCKS: usize = 15_104;
        const NPROCS: usize = 16;
        let cfg = CollectiveConfig {
            cb_nodes: Some(NPROCS),
            cb_buffer: Some(22_660), // an eighth of a 181 248-byte domain, and 4 bytes
            ..Default::default()
        };
        let windows = 8 * NPROCS as u64;
        let fs = Pfs::new(NPROCS, PfsConfig::default()).unwrap();
        mpisim::run(NPROCS, SimConfig::default(), move |rk| {
            let mut f = File::open(rk, &fs, "/steps", Mode::ReadWrite)?;
            let etype = Datatype::contiguous(12, Datatype::named(Named::Byte)).commit();
            let ftype =
                Datatype::vector(BLOCKS, 1, NPROCS as isize, etype.datatype().clone()).commit();
            f.set_view(rk, rk.rank() as u64 * 12, &etype, &ftype)?;
            let data = vec![rk.rank() as u8 + 1; 12 * BLOCKS];
            let mut back = vec![0u8; data.len()];
            let steps = |f: &File| f.view().steps.load(Relaxed);
            let before = steps(&f);
            write_all_at(rk, &mut f, 0, &data, &cfg)?;
            let written = steps(&f);
            read_all_at(rk, &mut f, 0, &mut back, &cfg)?;
            assert_eq!(back, data);
            for (phase, took) in [("write", written - before), ("read", steps(&f) - written)] {
                let bound = BLOCKS as u64 + windows + 2;
                assert!(
                    took <= bound,
                    "{phase}: {took} extents walked, over {bound}"
                );
                assert!(took >= BLOCKS as u64, "{phase}: only {took} extents walked");
            }
            Ok(())
        })
        .unwrap();
    }

    #[test]
    fn aggregators_spread_one_per_node_first() {
        let sim = SimConfig {
            topology: Some(mpisim::Topology::blocked(8, 4)),
            ..Default::default()
        };
        let rep = mpisim::run(8, sim, move |rk| {
            let cfg = CollectiveConfig {
                cb_nodes: Some(3),
                ..Default::default()
            };
            let r = rk.rank() as u64;
            let hull = Some((r * 10, r * 10 + 10));
            let plan = Plan::agree(rk, &cfg, Direction::Write, hull)?.unwrap();
            Ok(plan.agg_ranks)
        })
        .unwrap();
        for aggs in &rep.results {
            // Nodes {0..4} and {4..8}: leaders 0 and 4 first, then the
            // second member of node 0 — never two on one node while
            // another node is empty (blind mapping would pick [0, 2, 5]).
            assert_eq!(aggs, &vec![0, 4, 1]);
        }
    }

    #[test]
    fn read_all_roundtrips() {
        let nprocs = 4;
        let len_array = 8;
        let (fs, _) = run_interleaved(nprocs, len_array, CollectiveConfig::default());
        let fs2 = Arc::clone(&fs);
        let rep = mpisim::run(nprocs, SimConfig::default(), move |rk| {
            let mut f = File::open(rk, &fs2, "/c", Mode::ReadOnly)?;
            let etype = Datatype::contiguous(12, Datatype::named(Named::Byte)).commit();
            let ftype =
                Datatype::vector(len_array, 1, nprocs as isize, etype.datatype().clone()).commit();
            f.set_view(rk, rk.rank() as u64 * 12, &etype, &ftype)?;
            let mut buf = vec![0u8; 12 * len_array];
            read_all_at(rk, &mut f, 0, &mut buf, &CollectiveConfig::default())?;
            Ok(buf)
        })
        .unwrap();
        for (r, buf) in rep.results.iter().enumerate() {
            assert!(
                buf.iter().all(|&b| b == r as u8 + 1),
                "rank {r} read back foreign data"
            );
        }
    }

    #[test]
    fn read_all_chunked_roundtrips() {
        let nprocs = 3;
        let len_array = 5;
        let (fs, _) = run_interleaved(nprocs, len_array, CollectiveConfig::default());
        let fs2 = Arc::clone(&fs);
        let cfg = CollectiveConfig {
            cb_buffer: Some(40),
            cb_nodes: Some(2),
            ..Default::default()
        };
        let rep = mpisim::run(nprocs, SimConfig::default(), move |rk| {
            let mut f = File::open(rk, &fs2, "/c", Mode::ReadOnly)?;
            let etype = Datatype::contiguous(12, Datatype::named(Named::Byte)).commit();
            let ftype =
                Datatype::vector(len_array, 1, nprocs as isize, etype.datatype().clone()).commit();
            f.set_view(rk, rk.rank() as u64 * 12, &etype, &ftype)?;
            let mut buf = vec![0u8; 12 * len_array];
            read_all_at(rk, &mut f, 0, &mut buf, &cfg)?;
            Ok(buf)
        })
        .unwrap();
        for (r, buf) in rep.results.iter().enumerate() {
            assert!(buf.iter().all(|&b| b == r as u8 + 1));
        }
    }

    #[test]
    fn empty_participants_are_fine() {
        // Ranks 2..4 contribute nothing but still participate.
        let fs = Pfs::new(4, PfsConfig::default()).unwrap();
        let fs2 = Arc::clone(&fs);
        mpisim::run(4, SimConfig::default(), move |rk| {
            let mut f = File::open(rk, &fs2, "/e", Mode::WriteOnly)?;
            let data = if rk.rank() < 2 {
                vec![rk.rank() as u8 + 1; 8]
            } else {
                Vec::new()
            };
            write_all_at(
                rk,
                &mut f,
                rk.rank() as u64 * 8,
                &data,
                &CollectiveConfig::default(),
            )?;
            f.close(rk)?;
            Ok(())
        })
        .unwrap();
        let fid = fs.open("/e").unwrap();
        let bytes = fs.snapshot_file(fid).unwrap();
        assert_eq!(bytes.len(), 16);
        assert!(bytes[0..8].iter().all(|&b| b == 1));
        assert!(bytes[8..16].iter().all(|&b| b == 2));
    }

    #[test]
    fn all_empty_collective_is_a_noop() {
        let fs = Pfs::new(2, PfsConfig::default()).unwrap();
        let fs2 = Arc::clone(&fs);
        mpisim::run(2, SimConfig::default(), move |rk| {
            let mut f = File::open(rk, &fs2, "/n", Mode::WriteOnly)?;
            write_all_at(rk, &mut f, 0, &[], &CollectiveConfig::default())?;
            Ok(())
        })
        .unwrap();
        let fid = fs.open("/n").unwrap();
        assert_eq!(fs.len(fid).unwrap(), 0);
    }

    #[test]
    fn aggregator_buffer_is_memory_accounted() {
        // With a tight memory budget, the unchunked collective must fail
        // with a simulated OOM — the mechanism behind Fig. 6/7's missing
        // OCIO point at 48 GB.
        let fs = Pfs::new(2, PfsConfig::default()).unwrap();
        let fs2 = Arc::clone(&fs);
        let sim = SimConfig {
            mem_budget: Some(100), // bytes; domain buffer will exceed this
            ..Default::default()
        };
        let err = mpisim::run(2, sim, move |rk| {
            let mut f = File::open(rk, &fs2, "/oom", Mode::WriteOnly)?;
            let data = vec![7u8; 200];
            write_all_at(
                rk,
                &mut f,
                rk.rank() as u64 * 200,
                &data,
                &CollectiveConfig::default(),
            )?;
            Ok(())
        })
        .unwrap_err();
        match err {
            mpisim::SimError::RankFailed { error, .. } => {
                assert!(matches!(error, mpisim::MpiError::OutOfMemory { .. }))
            }
            other => panic!("expected OOM, got {other}"),
        }
    }

    #[test]
    fn chunked_mode_fits_in_tight_memory() {
        // Same workload as above, but cb_buffer-chunked exchange stays
        // within budget — the ablation claim.
        let fs = Pfs::new(2, PfsConfig::default()).unwrap();
        let fs2 = Arc::clone(&fs);
        let sim = SimConfig {
            mem_budget: Some(100),
            ..Default::default()
        };
        let cfg = CollectiveConfig {
            cb_buffer: Some(64),
            ..Default::default()
        };
        mpisim::run(2, sim, move |rk| {
            let mut f = File::open(rk, &fs2, "/fit", Mode::WriteOnly)?;
            let data = vec![7u8; 200];
            write_all_at(rk, &mut f, rk.rank() as u64 * 200, &data, &cfg)?;
            Ok(())
        })
        .unwrap();
        let fid = fs.open("/fit").unwrap();
        assert_eq!(fs.len(fid).unwrap(), 400);
        assert!(fs.snapshot_file(fid).unwrap().iter().all(|&b| b == 7));
    }

    #[test]
    fn sparse_domains_do_not_write_holes() {
        // Two ranks write 8 bytes each, 1000 bytes apart; the aggregator
        // buffers must not flush untouched gap bytes over existing data.
        let fs = Pfs::new(2, PfsConfig::default()).unwrap();
        let fid = fs.create("/sparse").unwrap();
        // Pre-fill the gap with sentinel bytes.
        fs.write_at(fid, 0, 0, &vec![0xAAu8; 1008], 0.0).unwrap();
        let fs2 = Arc::clone(&fs);
        mpisim::run(2, SimConfig::default(), move |rk| {
            let mut f = File::open(rk, &fs2, "/sparse", Mode::ReadWrite)?;
            let data = vec![rk.rank() as u8 + 1; 8];
            write_all_at(
                rk,
                &mut f,
                rk.rank() as u64 * 1000,
                &data,
                &CollectiveConfig::default(),
            )?;
            Ok(())
        })
        .unwrap();
        let bytes = fs.snapshot_file(fid).unwrap();
        assert!(bytes[0..8].iter().all(|&b| b == 1));
        assert!(bytes[8..1000].iter().all(|&b| b == 0xAA), "gap clobbered");
        assert!(bytes[1000..1008].iter().all(|&b| b == 2));
    }

    /// Independent I/O is the collective's oracle: rank r sets `ftype` as
    /// its view at `disp = r · stride` (or keeps the default view, for
    /// `None`) and writes `asks[r] = (stream offset, length)` of its own
    /// bytes, then reads the same range back — once with `write_all_at` /
    /// `read_all_at` under `cfg` and `topology`, once with independent
    /// `File::write_at` / `read_at`, which share no code with the round
    /// engine past the view. The two files must be byte-identical and every
    /// read-back the bytes written; `File::end` is checked on the way,
    /// against a count over the view's extents. Returns the file.
    fn against_independent(
        ftype: Option<&Datatype>,
        stride: u64,
        asks: &[(u64, usize)],
        cfg: &CollectiveConfig,
        topology: Option<mpisim::Topology>,
    ) -> Vec<u8> {
        let nprocs = asks.len();
        let etype = Datatype::named(Named::Byte).commit();
        let ftype = ftype.map(Datatype::commit);
        let files = [true, false].map(|collective| {
            let fs = Pfs::new(nprocs, PfsConfig::default()).unwrap();
            let sim = SimConfig {
                topology: topology.clone(),
                ..Default::default()
            };
            let rep = mpisim::run(nprocs, sim, |rk| {
                let me = rk.rank();
                let mut f = File::open(rk, &fs, "/oracle", Mode::ReadWrite)?;
                if let Some(ftype) = &ftype {
                    f.set_view(rk, me as u64 * stride, &etype, ftype)?;
                }
                let (offset, len) = asks[me];
                let data: Vec<u8> = (0..len).map(|i| (me * 37 + i) as u8).collect();
                let mut back = vec![0u8; len];
                if collective {
                    write_all_at(rk, &mut f, offset, &data, cfg)?;
                    read_all_at(rk, &mut f, offset, &mut back, cfg)?;
                } else {
                    f.write_at(rk, offset, &data)?;
                    rk.barrier()?;
                    f.read_at(rk, offset, &mut back)?;
                }
                assert_eq!(back, data, "rank {me}: read back, collective={collective}");
                // A stream of `eof` bytes reaches past byte `eof` of the file.
                let eof = fs.len(f.file_id())?;
                let below = bytes_below(f.view().extents(0, eof), eof);
                assert_eq!(f.end()?, below, "rank {me}: end of a {eof}-byte file");
                f.close(rk)?;
                Ok(back)
            })
            .unwrap();
            let file = fs.snapshot_file(fs.open("/oracle").unwrap()).unwrap();
            (file, rep.results)
        });
        let [(collective, read_collective), (independent, read_independent)] = files;
        assert_eq!(collective, independent, "the collective left another file");
        assert_eq!(read_collective, read_independent, "the read-backs differ");
        collective
    }

    /// The Fig. 2 interleaved pattern — `len_array` 12-byte blocks per rank,
    /// dealt round-robin — against independent I/O under every exchange:
    /// the flat burst, fewer aggregators over several rounds, pipelined
    /// rounds, and request aggregation over a topology.
    #[test]
    fn fig2_matches_independent_io_under_every_exchange() {
        let chunked = CollectiveConfig {
            cb_nodes: Some(2),
            cb_buffer: Some(64),
            ..Default::default()
        };
        let cases = [
            (4, 8, CollectiveConfig::default(), None),
            (3, 5, chunked.clone(), None),
            (
                3,
                5,
                CollectiveConfig {
                    pipeline: true,
                    ..chunked.clone()
                },
                None,
            ),
            (
                4,
                8,
                CollectiveConfig {
                    req_agg: true,
                    ..chunked
                },
                Some(2),
            ),
        ];
        for (nprocs, len_array, cfg, ppn) in cases {
            let block = Datatype::contiguous(12, Datatype::named(Named::Byte));
            let ftype = Datatype::vector(len_array, 1, nprocs as isize, block);
            let asks = vec![(0, 12 * len_array); nprocs];
            let topology = ppn.map(|ppn| mpisim::Topology::blocked(nprocs, ppn));
            let file = against_independent(Some(&ftype), 12, &asks, &cfg, topology);
            assert_eq!(file.len(), nprocs * len_array * 12, "{cfg:?}");
        }
    }

    /// A filetype whose first block sits past its tile's origin:
    /// `stream_len_for_file` used to count from the origin, which misplaced
    /// a window's share of the request.
    #[test]
    fn a_lower_bound_moves_no_window() {
        let byte = Datatype::named(Named::Byte);
        let at_8 = Datatype::indexed(vec![4], vec![8], byte).unwrap();
        let cfg = CollectiveConfig {
            cb_nodes: Some(2),
            cb_buffer: Some(16),
            ..Default::default()
        };
        let ftype = Datatype::resized(0, 8, at_8);
        let file = against_independent(Some(&ftype), 4, &[(0, 16); 2], &cfg, None);
        // Rank r's block k is bytes `8 + 8k + 4r ..+ 4` of the file.
        let expect = |at: usize| match at.checked_sub(8) {
            Some(i) => ((i / 4 % 2) * 37 + i / 8 * 4 + i % 4) as u8,
            None => 0,
        };
        assert_eq!(file, (0..40).map(expect).collect::<Vec<u8>>());
    }

    /// The collective and independent I/O, the same bytes, over random
    /// filetype trees — tiled between the ranks so no two write the same
    /// byte — random requests starting mid-block (a quarter of them empty)
    /// and random hints: aggregator count, window size, pipelining, request
    /// aggregation over a topology. Small windows leave most sources no
    /// share of most of them: that is the empty payload, on every exchange.
    #[test]
    fn the_collective_matches_independent_io_on_random_views_and_hints() {
        use rand::{RngExt, SeedableRng};
        for seed in 0..64u64 {
            let mut rng = rand::rngs::StdRng::seed_from_u64(0xb07 ^ seed);
            let tile = random_filetype(&mut rng, 2);
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
            against_independent(Some(&ftype), extent, &asks, &cfg, topology);
        }
    }

    /// Ranks with nothing to write still take part: rank 0 writes 24 bytes
    /// through the default view, the other two nothing.
    #[test]
    fn empty_ranks_participate() {
        let file = against_independent(
            None,
            0,
            &[(0, 24), (0, 0), (0, 0)],
            &Default::default(),
            None,
        );
        assert_eq!(file, (0..24).collect::<Vec<u8>>());
    }

    /// A read of a middle slice of the stream, collective and independent,
    /// after a collective write of the whole of it.
    #[test]
    fn a_partial_range_reads_back() {
        let nprocs = 2;
        let fs = Pfs::new(nprocs, PfsConfig::default()).unwrap();
        mpisim::run(nprocs, SimConfig::default(), |rk| {
            let me = rk.rank();
            let mut f = File::open(rk, &fs, "/partial", Mode::ReadWrite)?;
            let etype = Datatype::contiguous(8, Datatype::named(Named::Byte)).commit();
            let ftype = Datatype::vector(6, 1, 2, etype.datatype().clone()).commit();
            f.set_view(rk, me as u64 * 8, &etype, &ftype)?;
            let data: Vec<u8> = (0..48).map(|i| (me * 100 + i) as u8).collect();
            write_all_at(rk, &mut f, 0, &data, &CollectiveConfig::default())?;
            let (mut collective, mut independent) = (vec![0u8; 16], vec![0u8; 16]);
            read_all_at(rk, &mut f, 10, &mut collective, &Default::default())?;
            f.read_at(rk, 10, &mut independent)?;
            assert_eq!(collective, &data[10..26], "rank {me}: collective");
            assert_eq!(independent, &data[10..26], "rank {me}: independent");
            Ok(())
        })
        .unwrap();
    }
}
