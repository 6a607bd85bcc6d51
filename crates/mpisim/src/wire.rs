//! The wire format every exchange blob of the stack shares: little-endian
//! `u32`/`u64` fields and `(id u32, len u32, bytes)` frames, written by
//! [`push_u32`] and [`push_frame`] and read back through a [`Cursor`].
//!
//! Ranks that entered *different* collectives meet in the same rendezvous,
//! so any bytes can arrive: every read either yields bytes that are really
//! there or [`Malformed`] — nothing is sliced, added or allocated on the
//! strength of a length field alone, and no value is silently truncated
//! into a field it does not fit.

use crate::error::MpiError;

/// What the codec refuses. Each layer converts it into its own typed error.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Malformed {
    /// The payload ends before a field it announces.
    Truncated,
    /// A value that does not fit the `u32` field it was to be written to.
    Overflow(u64),
}

impl From<Malformed> for MpiError {
    fn from(e: Malformed) -> MpiError {
        MpiError::CollectiveMismatch(match e {
            Malformed::Truncated => "collective payload truncated",
            Malformed::Overflow(_) => "exchange field exceeds u32",
        })
    }
}

/// Append a `u32` field.
pub fn push_u32(buf: &mut Vec<u8>, v: u64) -> Result<(), Malformed> {
    let v = u32::try_from(v).map_err(|_| Malformed::Overflow(v))?;
    buf.extend_from_slice(&v.to_le_bytes());
    Ok(())
}

/// Append one `(id, len, bytes)` frame — [`Cursor::frame`]'s inverse.
pub fn push_frame(buf: &mut Vec<u8>, id: usize, bytes: &[u8]) -> Result<(), Malformed> {
    push_u32(buf, id as u64)?;
    push_u32(buf, bytes.len() as u64)?;
    buf.extend_from_slice(bytes);
    Ok(())
}

/// Checked reader over a received payload.
pub struct Cursor<'a>(&'a [u8]);

impl<'a> Cursor<'a> {
    pub fn new(buf: &'a [u8]) -> Self {
        Cursor(buf)
    }

    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// The next `n` bytes.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], Malformed> {
        let (head, rest) = self.0.split_at_checked(n).ok_or(Malformed::Truncated)?;
        self.0 = rest;
        Ok(head)
    }

    /// Everything not yet read.
    pub fn rest(self) -> &'a [u8] {
        self.0
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N], Malformed> {
        let (head, rest) = self.0.split_first_chunk().ok_or(Malformed::Truncated)?;
        self.0 = rest;
        Ok(*head)
    }

    pub fn u32(&mut self) -> Result<usize, Malformed> {
        self.array().map(|b| u32::from_le_bytes(b) as usize)
    }

    pub fn u64(&mut self) -> Result<u64, Malformed> {
        self.array().map(u64::from_le_bytes)
    }

    /// One `(id, len, bytes)` frame.
    pub fn frame(&mut self) -> Result<(usize, &'a [u8]), Malformed> {
        let id = self.u32()?;
        let len = self.u32()?;
        Ok((id, self.take(len)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_cursor_is_total_on_short_and_garbage_input() {
        assert_eq!(Cursor::new(&[1, 2, 3]).u32(), Err(Malformed::Truncated));
        assert_eq!(Cursor::new(&[0; 7]).u64(), Err(Malformed::Truncated));
        assert_eq!(Cursor::new(&[0; 4]).take(5), Err(Malformed::Truncated));
        assert!(Cursor::new(&[]).is_empty());
        let mut buf = Vec::new();
        push_frame(&mut buf, 5, &[9, 9]).unwrap();
        assert_eq!(Cursor::new(&buf).frame(), Ok((5, &[9u8, 9][..])));
        // A length past the buffer.
        let short = &buf[..buf.len() - 1];
        assert_eq!(Cursor::new(short).frame(), Err(Malformed::Truncated));
        let mut liar = Vec::new();
        push_u32(&mut liar, 0).unwrap();
        push_u32(&mut liar, u32::MAX as u64).unwrap();
        assert_eq!(Cursor::new(&liar).frame(), Err(Malformed::Truncated));
        // Every prefix of a valid two-frame blob either parses or fails
        // typed; none panics.
        push_frame(&mut buf, 1, &[]).unwrap();
        for cut in 0..=buf.len() {
            let mut w = Cursor::new(&buf[..cut]);
            while !w.is_empty() && w.frame().is_ok() {}
        }
    }

    #[test]
    fn wire_fields_never_truncate_silently() {
        let mut buf = Vec::new();
        let big = u32::MAX as u64 + 1;
        assert_eq!(push_u32(&mut buf, big), Err(Malformed::Overflow(big)));
        assert!(buf.is_empty());
        assert!(matches!(
            MpiError::from(Malformed::Overflow(big)),
            MpiError::CollectiveMismatch(_)
        ));
    }
}
