//! The provided methods of `mpiio::PositionedFile` — `seek`, the cursor
//! `write`/`read`, the typed wrappers — checked by one generic body per
//! behaviour, run against both handles that implement the surface:
//! independent `mpiio::File` (eager, read-write) and `tcio::TcioFile`
//! (lazy reads, one direction per open).

use mpiio::{IoError, PositionedFile, Whence};
use mpisim::{Datatype, MpiError, Named, Rank, SimConfig};
use pfs::{Pfs, PfsConfig};
use std::sync::Arc;
use tcio::{TcioConfig, TcioError, TcioFile, TcioMode};

/// What a generic body needs beyond the surface itself: a way to open the
/// handle, and to recognise its usage error.
trait Handle<'b>: PositionedFile<'b> {
    fn open(rk: &mut Rank, fs: &Arc<Pfs>, path: &str, write: bool) -> Result<Self, Self::Error>;
    fn is_usage(e: &Self::Error) -> bool;
}

impl<'b> Handle<'b> for mpiio::File {
    fn open(rk: &mut Rank, fs: &Arc<Pfs>, path: &str, _write: bool) -> mpiio::Result<Self> {
        mpiio::File::open(rk, fs, path, mpiio::Mode::ReadWrite)
    }

    fn is_usage(e: &IoError) -> bool {
        matches!(e, IoError::Usage(_))
    }
}

impl<'b> Handle<'b> for TcioFile<'b> {
    fn open(rk: &mut Rank, fs: &Arc<Pfs>, path: &str, write: bool) -> tcio::Result<Self> {
        let mode = if write {
            TcioMode::Write
        } else {
            TcioMode::Read
        };
        let cfg = TcioConfig {
            segment_size: 64,
            num_segments: 4,
            ..Default::default()
        };
        TcioFile::open(rk, fs, path, mode, cfg)
    }

    fn is_usage(e: &TcioError) -> bool {
        matches!(e, TcioError::Usage(_))
    }
}

/// Run `$body::<H>(rk, fs, &mut dst)` on one rank for both handles, with a
/// fresh `$dst` each, and return the two filled destinations. (The
/// destinations live outside the body: a lazy handle borrows them for as
/// long as it exists.)
macro_rules! on_both_handles {
    ($body:ident, $dst:expr) => {{
        let one = |tcio: bool| {
            let fs = Pfs::new(1, PfsConfig::default()).unwrap();
            let rep = mpisim::run(1, SimConfig::default(), |rk| {
                let mut dst = $dst;
                if tcio {
                    $body::<TcioFile>(rk, &fs, &mut dst)?;
                } else {
                    $body::<mpiio::File>(rk, &fs, &mut dst)?;
                }
                Ok(dst)
            });
            rep.unwrap().results.remove(0)
        };
        [("mpiio::File", one(false)), ("TcioFile", one(true))]
    }};
}

fn cursor_body<'b, H: Handle<'b>>(
    rk: &mut Rank,
    fs: &Arc<Pfs>,
    back: &'b mut [u8; 6],
) -> mpisim::Result<()>
where
    MpiError: From<H::Error>,
{
    let mut f = H::open(rk, fs, "/cursor", true)?;
    f.write(rk, &[1, 2, 3])?;
    f.write(rk, &[4, 5])?;
    assert_eq!(
        f.position(),
        5,
        "two cursor writes advance by their lengths"
    );
    f.seek(1, Whence::Set)?;
    f.write(rk, &[9])?;
    assert_eq!(f.position(), 2);
    f.seek(2, Whence::Cur)?;
    assert_eq!(f.position(), 4);
    f.seek(-1, Whence::End)?;
    assert_eq!(f.position(), 4, "the end is the 5 bytes written so far");
    // A seek that would leave the offset range is a usage error and moves
    // nothing.
    for (off, whence) in [
        (-10, Whence::Set),
        (i64::MAX, Whence::Cur),
        (i64::MIN, Whence::End),
    ] {
        let refused = f.seek(off, whence).unwrap_err();
        assert!(H::is_usage(&refused), "seek({off}, {whence:?})");
        assert_eq!(f.position(), 4);
    }
    f.close(rk)?;

    let mut g = H::open(rk, fs, "/cursor", false)?;
    let (head, tail) = back.split_at_mut(5);
    g.read(rk, head)?;
    assert_eq!(g.position(), 5, "a cursor read advances by its length");
    g.seek(-2, Whence::End)?;
    g.read(rk, tail)?;
    assert_eq!(g.position(), 4);
    // `close` resolves a lazy handle's pending reads: no explicit fetch.
    g.close(rk)?;
    Ok(())
}

#[test]
fn cursor_write_read_and_seek_agree_on_both_handles() {
    for (handle, back) in on_both_handles!(cursor_body, [0u8; 6]) {
        assert_eq!(back, [1, 9, 3, 4, 5, 4], "{handle}");
    }
}

/// Every other int of a 32-byte memory.
fn every_other_int() -> mpisim::Committed {
    Datatype::vector(4, 1, 2, Datatype::named(Named::Int)).commit()
}

/// One int per 8 bytes: a single run per instance, but instances are not
/// back to back, so two of them are not the stream.
fn padded_int() -> mpisim::Committed {
    Datatype::resized(0, 8, Datatype::named(Named::Int)).commit()
}

fn typed_body<'b, H: Handle<'b>>(
    rk: &mut Rank,
    fs: &Arc<Pfs>,
    back: &'b mut [Vec<u8>; 3],
) -> mpisim::Result<()>
where
    MpiError: From<H::Error>,
{
    let memory: Vec<u8> = (0..32u8).collect();
    let mut f = H::open(rk, fs, "/typed", true)?;
    f.write_typed_at(rk, 0, &memory, &every_other_int(), 1)?;
    f.write_typed_at(rk, 16, &memory, &padded_int(), 2)?;
    // A contiguous type takes the fast path: the buffer's prefix is the stream.
    let ints = Datatype::named(Named::Int).commit();
    f.write_typed_at(rk, 24, &memory, &ints, 2)?;
    f.close(rk)?;

    let mut g = H::open(rk, fs, "/typed", false)?;
    let [stream, strided, padded] = back;
    g.read_at(rk, 0, stream)?;
    g.read_typed_at(rk, 0, strided, &every_other_int(), 1)?;
    g.read_typed_at(rk, 16, padded, &padded_int(), 2)?;
    g.close(rk)?;
    Ok(())
}

#[test]
fn typed_access_packs_and_scatters_strided_memory_on_both_handles() {
    let dst = || [vec![0u8; 32], vec![0xEE; 32], vec![0xEE; 16]];
    for (handle, [stream, strided, padded]) in on_both_handles!(typed_body, dst()) {
        // Ints 0, 2, 4, 6; then two padded ints; then two plain ints.
        let expect: Vec<u8> = [0..4u8, 8..12, 16..20, 24..28, 0..4, 8..12, 0..8]
            .into_iter()
            .flatten()
            .collect();
        assert_eq!(stream, expect, "{handle}: packed stream");
        // Read back through the same types: the selected ints return to
        // their places, the gaps keep their fill.
        for (i, chunk) in strided.chunks(4).enumerate() {
            let want: Vec<u8> = match i % 2 {
                0 => (4 * i as u8..4 * i as u8 + 4).collect(),
                _ => vec![0xEE; 4],
            };
            assert_eq!(chunk, want, "{handle}: strided int {i}");
        }
        let want: Vec<u8> = [0..4u8, 8..12]
            .into_iter()
            .flat_map(|ints| ints.chain([0xEE; 4]))
            .collect();
        assert_eq!(padded, want, "{handle}: padded ints");
    }
}

/// A buffer shorter than `count` instances, or a `count` whose byte length
/// wraps, is a typed error under a contiguous and a strided datatype alike.
/// (The contiguous fast path used to slice unchecked and panic.)
fn short_buffer_body<'b, H: Handle<'b>>(
    rk: &mut Rank,
    fs: &Arc<Pfs>,
    dst: &'b mut [[u8; 12]; 4],
) -> mpisim::Result<()>
where
    MpiError: From<H::Error>,
{
    let ints = Datatype::named(Named::Int).commit();
    let strided = every_other_int();
    let short = [7u8; 12];
    let mut f = H::open(rk, fs, "/short", true)?;
    for (dtype, count) in [(&ints, 4), (&ints, usize::MAX), (&strided, usize::MAX)] {
        let refused = f.write_typed_at(rk, 0, &short, dtype, count).unwrap_err();
        assert!(H::is_usage(&refused), "write of {count}: {:?}", dtype);
    }
    // The strided path reports the same mistake as `pack`'s own typed
    // error, which leaves the layer as the runtime error it is.
    // (A count far past the buffer, but short of wrapping, fails at its first
    // out-of-range block too, not in the allocator.)
    for count in [1, usize::MAX / 64] {
        let refused = f
            .write_typed_at(rk, 0, &short, &strided, count)
            .unwrap_err();
        let expect = strided.pack(&short, count).unwrap_err();
        assert_eq!(MpiError::from(refused), expect, "strided write of {count}");
    }
    // What does fit is still written.
    f.write_typed_at(rk, 0, &short, &ints, 3)?;
    f.write_at(rk, 12, &[7u8; 20])?;
    f.close(rk)?;

    let mut g = H::open(rk, fs, "/short", false)?;
    let [a, b, c, d] = dst;
    let cases = [(a, &ints, 4), (b, &ints, usize::MAX), (c, &strided, 1)];
    for (buf, dtype, count) in cases {
        let refused = g.read_typed_at(rk, 0, buf, dtype, count).unwrap_err();
        assert!(H::is_usage(&refused), "read of {count}: {:?}", dtype);
    }
    g.read_typed_at(rk, 0, d, &ints, 3)?;
    g.close(rk)?;
    Ok(())
}

#[test]
fn typed_access_refuses_short_buffers_and_wild_counts_on_both_handles() {
    for (handle, [a, b, c, d]) in on_both_handles!(short_buffer_body, [[0u8; 12]; 4]) {
        assert_eq!([a, b, c], [[0u8; 12]; 3], "{handle}: a refused read wrote");
        assert_eq!(d, [7u8; 12], "{handle}");
    }
}
