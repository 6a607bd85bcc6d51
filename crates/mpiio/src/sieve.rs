//! Data sieving (Thakur, Gropp & Lusk — the paper's reference \[7\]).
//!
//! When a single process's request maps to many small noncontiguous file
//! extents, ROMIO's *data sieving* reads the whole spanning range into a
//! buffer with one large request and picks the wanted pieces out of it
//! ("sieves"), instead of issuing one request per extent. Writes are a
//! read-modify-write: read the span, patch the extents, write the span
//! back — which is also why concurrent write sieving needs the file-system
//! locks the paper's §II discusses.
//!
//! This module implements the sieving decision and data movement for the
//! independent I/O path of [`crate::File`]. It is an *independent*
//! optimization, orthogonal to (and historically the companion of)
//! two-phase collective I/O.

use std::borrow::Borrow;

/// Sieving policy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SieveConfig {
    /// Maximum spanning range to buffer (ROMIO's `ind_rd_buffer_size` /
    /// `ind_wr_buffer_size`).
    pub buffer_size: u64, // setting: the sieving tests and golden cells set it
    /// Minimum number of extents before sieving is worthwhile.
    pub min_extents: usize, // setting: the sieving tests and golden cells set it
    /// Only sieve when wanted bytes are at least this fraction of the span
    /// (sieving a nearly-empty span wastes bandwidth on unwanted data).
    pub min_density: f64, // setting: the sieving tests and golden cells set it
}

impl Default for SieveConfig {
    fn default() -> Self {
        SieveConfig {
            buffer_size: 4 << 20,
            min_extents: 4,
            min_density: 0.25,
        }
    }
}

impl SieveConfig {
    /// Should this extent list be sieved? `extents` must be sorted.
    pub fn should_sieve<E: Borrow<(u64, u64)>>(
        &self,
        extents: impl IntoIterator<Item = E>,
    ) -> bool {
        self.sieve_span(extents).is_some()
    }

    /// The spanning range `(start, len)` of a sorted extent list, when the
    /// policy says to sieve it — one pass over the extents.
    pub fn sieve_span<E: Borrow<(u64, u64)>>(
        &self,
        extents: impl IntoIterator<Item = E>,
    ) -> Option<(u64, u64)> {
        let mut extents = extents.into_iter().map(|e| *e.borrow());
        let (start, first) = extents.next()?;
        let (n, end, wanted) = extents.fold((1, start + first, first), |(n, _, wanted), (o, l)| {
            (n + 1, o + l, wanted + l)
        });
        let span = end - start;
        let sieve = n >= self.min_extents
            && span <= self.buffer_size
            && wanted as f64 >= span as f64 * self.min_density;
        sieve.then_some((start, span))
    }
}

/// Scatter `extents`-worth of bytes from a span buffer into `dst`
/// (read sieving, user side).
pub fn scatter_from_span(
    span_start: u64,
    span: &[u8],
    extents: impl IntoIterator<Item = (u64, u64)>,
    dst: &mut [u8],
) {
    let mut cursor = 0usize;
    for (off, len) in extents {
        let at = (off - span_start) as usize;
        dst[cursor..cursor + len as usize].copy_from_slice(&span[at..at + len as usize]);
        cursor += len as usize;
    }
    debug_assert_eq!(cursor, dst.len());
}

/// Patch `extents`-worth of bytes from `src` into a span buffer
/// (write sieving, modify step).
pub fn gather_into_span(
    span_start: u64,
    span: &mut [u8],
    extents: impl IntoIterator<Item = (u64, u64)>,
    src: &[u8],
) {
    let mut cursor = 0usize;
    for (off, len) in extents {
        let at = (off - span_start) as usize;
        span[at..at + len as usize].copy_from_slice(&src[cursor..cursor + len as usize]);
        cursor += len as usize;
    }
    debug_assert_eq!(cursor, src.len());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sieving_decision_thresholds() {
        let cfg = SieveConfig {
            buffer_size: 100,
            min_extents: 3,
            min_density: 0.5,
        };
        // Too few extents.
        assert!(!cfg.should_sieve([(0, 10), (20, 10)]));
        // Dense enough: 30 wanted of span 50.
        assert!(cfg.should_sieve([(0, 10), (20, 10), (40, 10)]));
        // Span too large.
        assert!(!cfg.should_sieve([(0, 10), (50, 10), (200, 10)]));
        // Too sparse: 30 wanted of span 90.
        assert!(!cfg.should_sieve([(0, 10), (40, 10), (80, 10)]));
    }

    #[test]
    fn span_computation() {
        let always = SieveConfig {
            buffer_size: u64::MAX,
            min_extents: 0,
            min_density: 0.0,
        };
        assert_eq!(always.sieve_span([(10, 5), (30, 10)]), Some((10, 30)));
        assert_eq!(always.sieve_span([(7, 3)]), Some((7, 3)));
        assert_eq!(always.sieve_span([(0u64, 0u64); 0]), None);
    }

    #[test]
    fn scatter_and_gather_are_inverse() {
        let extents = [(10u64, 3u64), (20, 2), (25, 4)];
        let mut span = vec![0xAAu8; 20]; // covers [10, 30)
        let src: Vec<u8> = (1..=9).collect();
        gather_into_span(10, &mut span, extents, &src);
        // Untouched gap bytes keep the sentinel.
        assert_eq!(span[3], 0xAA);
        assert_eq!(span[13], 0xAA);
        let mut dst = vec![0u8; 9];
        scatter_from_span(10, &span, extents, &mut dst);
        assert_eq!(dst, src);
    }
}
