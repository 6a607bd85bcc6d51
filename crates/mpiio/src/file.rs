//! The MPI-IO file handle: collective open/close, file views, seeking, and
//! *independent* (non-collective) data access.
//!
//! Independent `read_at`/`write_at` is the "vanilla MPI-IO" baseline of the
//! paper's §V.C: each call resolves the view and issues one file-system
//! request per mapped extent, with no cross-process coordination — exactly
//! the behaviour that collapses when an application emits thousands of tiny
//! noncontiguous accesses.

use crate::client::{self, Direction};
use crate::error::{IoError, Result};
use crate::sieve::{gather_into_span, scatter_from_span, SieveConfig};
use crate::view::{FileView, ViewExtents};
use mpisim::{Committed, Rank};
use pfs::{FileId, Pfs};
use std::sync::Arc;

/// Open mode (subset of `MPI_MODE_*`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Read-only; the file must exist.
    ReadOnly,
    /// Create (or truncate) for writing.
    WriteOnly,
    /// Read and write; created if absent.
    ReadWrite,
}

impl Mode {
    pub fn readable(self) -> bool {
        !matches!(self, Mode::WriteOnly)
    }

    pub fn writable(self) -> bool {
        !matches!(self, Mode::ReadOnly)
    }
}

/// Seek origin (subset of `MPI_SEEK_*`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Whence {
    Set,
    Cur,
    End,
}

/// The POSIX-like file surface an application's "level 0" access code is
/// written against. [`File`] (independent MPI-IO) and `tcio::TcioFile` both
/// implement it — the paper's *transparent* as a type: code generic over it
/// gets collective-I/O behaviour by opening the other handle.
///
/// `'buf` is how long a read destination stays borrowed: a lazy handle
/// fills it as late as `close`, an eager one (any `'buf`) at once.
pub trait PositionedFile<'buf>: Sized {
    /// The handle's error type; a misuse the provided methods catch is an
    /// [`IoError::Usage`] converted into it.
    type Error: From<IoError>;

    /// Write `data` at `offset`.
    fn write_at(&mut self, rank: &mut Rank, offset: u64, data: &[u8]) -> Result<(), Self::Error>;

    /// Read `buf.len()` bytes at `offset` into `buf`.
    fn read_at(
        &mut self,
        rank: &mut Rank,
        offset: u64,
        buf: &'buf mut [u8],
    ) -> Result<(), Self::Error>;

    /// Collective close; every destination handed to a read is filled.
    fn close(self, rank: &mut Rank) -> Result<(), Self::Error>;

    /// The cursor `seek` moves and the cursor `write`/`read` advance.
    fn position(&self) -> u64;

    fn set_position(&mut self, pos: u64);

    /// Where [`Whence::End`] is.
    fn end(&self) -> Result<u64, Self::Error>;

    /// Move the cursor. Positions are `MPI_Offset`s: non-negative `i64`s.
    fn seek(&mut self, offset: i64, whence: Whence) -> Result<(), Self::Error> {
        let base = match whence {
            Whence::Set => 0,
            Whence::Cur => self.position(),
            Whence::End => self.end()?,
        };
        let target = i64::try_from(base).ok().and_then(|b| b.checked_add(offset));
        let pos = target.and_then(|t| u64::try_from(t).ok()).ok_or_else(|| {
            IoError::Usage(format!(
                "seek by {offset} from {base} leaves the offset range"
            ))
        })?;
        self.set_position(pos);
        Ok(())
    }

    /// Write at the cursor and advance it.
    fn write(&mut self, rank: &mut Rank, data: &[u8]) -> Result<(), Self::Error> {
        let pos = self.position();
        self.write_at(rank, pos, data)?;
        self.set_position(pos + data.len() as u64);
        Ok(())
    }

    /// Read at the cursor and advance it.
    fn read(&mut self, rank: &mut Rank, buf: &'buf mut [u8]) -> Result<(), Self::Error> {
        let (pos, len) = (self.position(), buf.len() as u64);
        self.read_at(rank, pos, buf)?;
        self.set_position(pos + len);
        Ok(())
    }

    /// Typed write: `count` instances of `dtype` laid out in `memory`,
    /// packed (charging memcpy time) unless they already are the stream.
    fn write_typed_at(
        &mut self,
        rank: &mut Rank,
        offset: u64,
        memory: &[u8],
        dtype: &Committed,
        count: usize,
    ) -> Result<(), Self::Error> {
        if let Some(bytes) = contiguous_len(dtype, count, memory.len())? {
            return self.write_at(rank, offset, &memory[..bytes]);
        }
        let packed = dtype.pack(memory, count).map_err(IoError::from)?;
        rank.charge_memcpy(packed.len() as u64);
        self.write_at(rank, offset, &packed)
    }

    /// Typed read into `count` instances of `dtype` laid out in `memory`.
    /// Strided memory is read block by block, each block of the type map
    /// its own destination (a lazy handle has no later moment to unpack
    /// in), so the blocks must ascend through `memory` without overlap.
    fn read_typed_at(
        &mut self,
        rank: &mut Rank,
        offset: u64,
        memory: &'buf mut [u8],
        dtype: &Committed,
        count: usize,
    ) -> Result<(), Self::Error> {
        if let Some(bytes) = contiguous_len(dtype, count, memory.len())? {
            return self.read_at(rank, offset, &mut memory[..bytes]);
        }
        // Carve every block out of `memory` front to back before reading
        // any: `rest` is what no block has been carved from yet, and starts
        // `carved` bytes in.
        let (mut rest, mut carved, mut pieces) = (memory, 0usize, Vec::new());
        for i in 0..count {
            for (off, len) in dtype.extents() {
                let skip = || {
                    let start = i.checked_mul(dtype.extent())?.checked_add_signed(off)?;
                    let skip = start.checked_sub(carved)?;
                    (skip <= rest.len().checked_sub(len)?).then_some(skip)
                };
                let Some(skip) = skip() else {
                    return Err(IoError::Usage(format!(
                        "typed read: block ({off}, {len}) of instance {i} leaves the buffer \
                         or lies behind an earlier block"
                    ))
                    .into());
                };
                let (piece, tail) = std::mem::take(&mut rest)[skip..].split_at_mut(len);
                (rest, carved) = (tail, carved + skip + len);
                pieces.push(piece);
            }
        }
        let mut at = offset;
        for piece in pieces {
            let len = piece.len() as u64;
            self.read_at(rank, at, piece)?;
            at += len;
        }
        Ok(())
    }
}

/// The typed wrappers' fast path: `Some(bytes)` when `count` instances of
/// `dtype` are the first `bytes` of a buffer of `have` bytes (the buffer
/// already is the stream), `None` when the memory is strided.
fn contiguous_len(dtype: &Committed, count: usize, have: usize) -> Result<Option<usize>> {
    let size = dtype.size();
    let cannot_hold = || {
        let what = format!("{have} bytes cannot hold {count} instances of a {size}-byte datatype");
        IoError::Usage(what)
    };
    let bytes = size.checked_mul(count).ok_or_else(cannot_hold)?;
    if !dtype.is_contiguous() || (count > 1 && dtype.extent() != size) {
        return Ok(None); // strided: `pack`, or the carve, checks the bounds
    }
    if bytes > have {
        return Err(cannot_hold());
    }
    Ok(Some(bytes))
}

/// An open MPI-IO file on one rank.
pub struct File {
    pfs: Arc<Pfs>,
    fid: FileId,
    view: FileView,
    /// Individual file pointer, in *view stream* bytes.
    pos: u64,
    mode: Mode,
    /// Data-sieving policy for independent noncontiguous access (ROMIO's
    /// `ind_*_buffer_size` hints); `None` = one request per extent.
    sieve: Option<SieveConfig>,
}

impl std::fmt::Debug for File {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("File")
            .field("fid", &self.fid)
            .field("pos", &self.pos)
            .field("mode", &self.mode)
            .field("identity_view", &self.view.is_identity())
            .finish_non_exhaustive()
    }
}

impl File {
    /// Collective open. All ranks must call with the same path and mode.
    pub fn open(rank: &mut Rank, pfs: &Arc<Pfs>, path: &str, mode: Mode) -> Result<File> {
        // Rank 0 resolves/creates the file; the barrier both synchronizes
        // (MPI_File_open is collective) and orders the namespace operation.
        let fid = match mode {
            Mode::ReadOnly => {
                rank.barrier()?;
                pfs.open(path)?
            }
            Mode::WriteOnly | Mode::ReadWrite => {
                let fid = pfs.open_or_create(path)?;
                rank.barrier()?;
                fid
            }
        };
        Ok(File {
            pfs: Arc::clone(pfs),
            fid,
            view: FileView::contiguous(),
            pos: 0,
            mode,
            sieve: None,
        })
    }

    pub fn mode(&self) -> Mode {
        self.mode
    }

    pub fn file_id(&self) -> FileId {
        self.fid
    }

    pub fn pfs(&self) -> &Arc<Pfs> {
        &self.pfs
    }

    pub fn view(&self) -> &FileView {
        &self.view
    }

    /// Install a file view (collective, resets the file pointer) — the
    /// `MPI_File_set_view` step the paper's Program 2 must perform.
    pub fn set_view(
        &mut self,
        rank: &mut Rank,
        disp: u64,
        etype: &Committed,
        filetype: &Committed,
    ) -> Result<()> {
        let view = FileView::new(disp, etype, filetype)?;
        rank.barrier()?;
        self.view = view;
        self.pos = 0;
        Ok(())
    }

    fn check_writable(&self) -> Result<()> {
        if !self.mode.writable() {
            return Err(IoError::Usage("file is not open for writing".into()));
        }
        Ok(())
    }

    fn check_readable(&self) -> Result<()> {
        if !self.mode.readable() {
            return Err(IoError::Usage("file is not open for reading".into()));
        }
        Ok(())
    }

    /// Enable (or disable) data sieving for independent noncontiguous
    /// access — the optimization of the paper's reference \[7\]
    /// ("Data Sieving and Collective I/O in ROMIO").
    pub fn set_sieving(&mut self, cfg: Option<SieveConfig>) {
        self.sieve = cfg;
    }

    /// Independent write of raw bytes at a view-stream offset: one file
    /// system request per mapped extent, or a sieved read-modify-write of
    /// the spanning range when the sieving policy applies.
    pub fn write_at(&mut self, rank: &mut Rank, offset: u64, data: &[u8]) -> Result<()> {
        self.check_writable()?;
        rank.advance(rank.net_config().api_call_overhead);
        let extents = self.view.extents(offset, data.len() as u64);
        if let Some(span) = self.sieve.and_then(|cfg| cfg.sieve_span(extents.clone())) {
            return self.write_sieved(rank, span, extents, data);
        }
        let (pfs, fid) = (&self.pfs, self.fid);
        let write = |rk: &mut Rank, off, len: u64, pos: u64| {
            let src = &data[pos as usize..][..len as usize];
            pfs.write_at(fid, rk.rank(), off, src, rk.now())
        };
        let io = client::submit(rank, Direction::Write, Some("indep_write"), extents, write)?;
        client::settle(rank, io);
        Ok(())
    }

    /// Sieved write: an *atomic* read-modify-write of the extents'
    /// spanning range as one large request pair. Atomicity comes from
    /// [`pfs::Pfs::write_rmw`], standing in for the whole-span file lock a
    /// real data-sieving implementation must hold — without it, concurrent
    /// writers whose spans overlap would resurrect stale gap bytes.
    fn write_sieved(
        &self,
        rank: &mut Rank,
        (start, span_len): (u64, u64),
        extents: ViewExtents<'_>,
        data: &[u8],
    ) -> Result<()> {
        let _mem = rank.alloc(span_len)?;
        let (pfs, fid) = (&self.pfs, self.fid);
        let rmw = |rk: &mut Rank, off, len, _| {
            let gather = &mut |span: &mut [u8]| gather_into_span(off, span, extents.clone(), data);
            pfs.write_rmw(fid, rk.rank(), off, len, gather, rk.now())
        };
        let run = [(start, span_len)];
        let io = client::submit(rank, Direction::Write, Some("sieve_rmw"), run, rmw)?;
        // The read half of the pair: a request, but its bytes never reach
        // this rank (the door counted the write half).
        rank.stats.io_reads += 1; // door: sieve-rmw
        rank.charge_memcpy(data.len() as u64);
        client::settle(rank, io);
        Ok(())
    }

    /// Independent read of raw bytes at a view-stream offset, sieving the
    /// spanning range when the policy applies.
    pub fn read_at(&mut self, rank: &mut Rank, offset: u64, buf: &mut [u8]) -> Result<()> {
        self.check_readable()?;
        rank.advance(rank.net_config().api_call_overhead);
        let extents = self.view.extents(offset, buf.len() as u64);
        if let Some(span) = self.sieve.and_then(|cfg| cfg.sieve_span(extents.clone())) {
            return self.read_sieved(rank, span, extents, buf);
        }
        let (pfs, fid) = (&self.pfs, self.fid);
        let read = |rk: &mut Rank, off, len: u64, pos: u64| {
            let dst = &mut buf[pos as usize..][..len as usize];
            pfs.read_at(fid, rk.rank(), off, dst, rk.now())
        };
        let io = client::submit(rank, Direction::Read, Some("indep_read"), extents, read)?;
        client::settle(rank, io);
        Ok(())
    }

    /// Sieved read: one large request for the spanning range, then pick
    /// the wanted bytes out of it.
    fn read_sieved(
        &self,
        rank: &mut Rank,
        (start, span_len): (u64, u64),
        extents: ViewExtents<'_>,
        buf: &mut [u8],
    ) -> Result<()> {
        let _mem = rank.alloc(span_len)?;
        let mut sieve = vec![0u8; span_len as usize];
        let (pfs, fid) = (&self.pfs, self.fid);
        let read =
            |rk: &mut Rank, off, _, _| pfs.read_at(fid, rk.rank(), off, &mut sieve, rk.now());
        let run = [(start, span_len)];
        let io = client::submit(rank, Direction::Read, Some("sieve_read"), run, read)?;
        scatter_from_span(start, &sieve, extents, buf);
        rank.charge_memcpy(buf.len() as u64);
        client::settle(rank, io);
        Ok(())
    }

    /// Collective close (barrier; the simulated PFS needs no flush).
    pub fn close(self, rank: &mut Rank) -> Result<()> {
        rank.barrier()?;
        Ok(())
    }
}

/// Independent MPI-IO under the POSIX-like surface: every call is its own
/// file-system request, served before it returns.
impl<'buf> PositionedFile<'buf> for File {
    type Error = IoError;

    fn write_at(&mut self, rank: &mut Rank, offset: u64, data: &[u8]) -> Result<()> {
        File::write_at(self, rank, offset, data)
    }

    fn read_at(&mut self, rank: &mut Rank, offset: u64, buf: &'buf mut [u8]) -> Result<()> {
        File::read_at(self, rank, offset, buf)
    }

    fn close(self, rank: &mut Rank) -> Result<()> {
        File::close(self, rank)
    }

    /// In *view stream* bytes.
    fn position(&self) -> u64 {
        self.pos
    }

    fn set_position(&mut self, pos: u64) {
        self.pos = pos;
    }

    fn end(&self) -> Result<u64> {
        Ok(self.view.stream_len_for_file(self.pfs.len(self.fid)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpisim::{Datatype, Named, SimConfig};
    use pfs::PfsConfig;

    fn with_world<T: Send>(
        n: usize,
        f: impl Fn(&mut Rank, &Arc<Pfs>) -> Result<T> + Sync,
    ) -> Vec<T> {
        let fs = Pfs::new(n, PfsConfig::default()).unwrap();
        let rep = mpisim::run(n, SimConfig::default(), |rk| Ok(f(rk, &fs)?)).unwrap();
        rep.results
    }

    #[test]
    fn open_write_read_close_roundtrip() {
        with_world(2, |rk, fs| {
            let mut f = File::open(rk, fs, "/data", Mode::ReadWrite)?;
            let me = rk.rank() as u8;
            f.write_at(rk, rk.rank() as u64 * 4, &[me; 4])?;
            rk.barrier()?;
            let mut buf = [0u8; 8];
            f.read_at(rk, 0, &mut buf)?;
            assert_eq!(&buf[0..4], &[0, 0, 0, 0]);
            assert_eq!(&buf[4..8], &[1, 1, 1, 1]);
            f.close(rk)?;
            Ok(())
        });
    }

    #[test]
    fn open_missing_readonly_fails() {
        let fs = Pfs::new(1, PfsConfig::default()).unwrap();
        let err = mpisim::run(1, SimConfig::default(), |rk| {
            match File::open(rk, &fs, "/missing", Mode::ReadOnly) {
                Err(IoError::Fs(pfs::PfsError::NotFound(_))) => Ok(()),
                other => panic!("expected NotFound, got {other:?}"),
            }
        });
        assert!(err.is_ok());
    }

    #[test]
    fn mode_enforcement() {
        with_world(1, |rk, fs| {
            let mut f = File::open(rk, fs, "/w", Mode::WriteOnly)?;
            let mut buf = [0u8; 1];
            assert!(matches!(f.read_at(rk, 0, &mut buf), Err(IoError::Usage(_))));
            f.write_at(rk, 0, &[1])?;
            let mut g = File::open(rk, fs, "/w", Mode::ReadOnly)?;
            assert!(matches!(g.write_at(rk, 0, &[1]), Err(IoError::Usage(_))));
            g.read_at(rk, 0, &mut buf)?;
            assert_eq!(buf[0], 1);
            Ok(())
        });
    }

    #[test]
    fn view_routes_interleaved_writes() {
        // Two ranks, the paper's Fig. 2 layout via independent writes.
        let fs = Pfs::new(2, PfsConfig::default()).unwrap();
        let fs2 = Arc::clone(&fs);
        mpisim::run(2, SimConfig::default(), move |rk| {
            let mut f = File::open(rk, &fs2, "/v", Mode::WriteOnly)?;
            let etype = Datatype::contiguous(12, Datatype::named(Named::Byte)).commit();
            let ftype = Datatype::vector(3, 1, 2, etype.datatype().clone()).commit();
            f.set_view(rk, rk.rank() as u64 * 12, &etype, &ftype)?;
            let me = rk.rank() as u8 + 1;
            f.write_at(rk, 0, &[me; 36])?;
            rk.barrier()?;
            Ok(())
        })
        .unwrap();
        let fid = fs.open("/v").unwrap();
        let bytes = fs.snapshot_file(fid).unwrap();
        assert_eq!(bytes.len(), 72);
        for block in 0..6 {
            let expect = (block % 2) as u8 + 1;
            assert!(
                bytes[block * 12..(block + 1) * 12]
                    .iter()
                    .all(|&b| b == expect),
                "block {block} should belong to rank {}",
                expect - 1
            );
        }
    }

    #[test]
    fn sieved_write_preserves_gap_bytes() {
        // Interleaved view: the rank's extents have gaps owned by others;
        // the sieved read-modify-write must not clobber them.
        let fs = Pfs::new(1, PfsConfig::default()).unwrap();
        let fid = fs.create("/sv").unwrap();
        fs.write_at(fid, 0, 0, &[0xAAu8; 96], 0.0).unwrap();
        let fs2 = Arc::clone(&fs);
        mpisim::run(1, SimConfig::default(), move |rk| {
            let mut f = File::open(rk, &fs2, "/sv", Mode::ReadWrite)?;
            let etype = Datatype::contiguous(8, Datatype::named(Named::Byte)).commit();
            // Blocks of 8 bytes, every other one (stride 2).
            let ftype = Datatype::vector(6, 1, 2, etype.datatype().clone()).commit();
            f.set_view(rk, 0, &etype, &ftype)?;
            f.set_sieving(Some(crate::sieve::SieveConfig {
                buffer_size: 1 << 20,
                min_extents: 2,
                min_density: 0.0,
            }));
            f.write_at(rk, 0, &[0x55u8; 48])?;
            // One read RPC + one write RPC for the whole span.
            assert_eq!(rk.stats.io_writes, 1, "sieving must coalesce writes");
            Ok(())
        })
        .unwrap();
        let bytes = fs.snapshot_file(fid).unwrap();
        for block in 0..12 {
            let expect = if block % 2 == 0 { 0x55 } else { 0xAA };
            assert!(
                bytes[block * 8..(block + 1) * 8]
                    .iter()
                    .all(|&b| b == expect),
                "block {block} corrupted"
            );
        }
    }

    #[test]
    fn sieved_read_matches_unsieved() {
        let fs = Pfs::new(1, PfsConfig::default()).unwrap();
        let fid = fs.create("/sr").unwrap();
        let data: Vec<u8> = (0..96u8).collect();
        fs.write_at(fid, 0, 0, &data, 0.0).unwrap();
        let fs2 = Arc::clone(&fs);
        mpisim::run(1, SimConfig::default(), move |rk| {
            let mut f = File::open(rk, &fs2, "/sr", Mode::ReadOnly)?;
            let etype = Datatype::contiguous(8, Datatype::named(Named::Byte)).commit();
            let ftype = Datatype::vector(6, 1, 2, etype.datatype().clone()).commit();
            f.set_view(rk, 0, &etype, &ftype)?;
            let mut plain = vec![0u8; 48];
            f.read_at(rk, 0, &mut plain)?;
            let rpcs_unsieved = rk.stats.io_reads;
            f.set_sieving(Some(crate::sieve::SieveConfig {
                buffer_size: 1 << 20,
                min_extents: 2,
                min_density: 0.0,
            }));
            let mut sieved = vec![0u8; 48];
            f.read_at(rk, 0, &mut sieved)?;
            let rpcs_sieved = rk.stats.io_reads - rpcs_unsieved;
            assert_eq!(plain, sieved, "sieving must not change data");
            assert!(rpcs_sieved < rpcs_unsieved, "sieving must reduce requests");
            Ok(())
        })
        .unwrap();
    }

    #[test]
    fn independent_io_advances_virtual_time() {
        let times = with_world(1, |rk, fs| {
            let mut f = File::open(rk, fs, "/time", Mode::WriteOnly)?;
            let t0 = rk.now();
            f.write_at(rk, 0, &vec![0u8; 1 << 20])?;
            Ok(rk.now() - t0)
        });
        assert!(times[0] > 0.0);
    }
}
