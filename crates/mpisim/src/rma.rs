//! One-sided communication (MPI-2 RMA): windows, passive-target lock
//! epochs, puts and gets.
//!
//! TCIO cannot use two-sided communication because its processes issue I/O
//! calls independently — there is no matching receive to post (§IV.A). It
//! therefore moves data with `MPI_Put`/`MPI_Get` inside
//! `MPI_Win_lock`/`MPI_Win_unlock` epochs, and coalesces the scattered
//! blocks of one flush into a *single* message using an indexed datatype.
//! This module reproduces those semantics:
//!
//! * a window exposes one byte region per rank, shared across the
//!   simulation (data movement is real);
//! * `lock(target, Exclusive)` epochs serialize against each other per
//!   target in virtual time; `Shared` epochs only order against exclusive
//!   ones;
//! * `put_gathered`/`get_gathered` apply many `(displacement, bytes)` parts
//!   as one message whose size includes a per-part header overhead, exactly
//!   the `MPI_Type_indexed` trick the paper describes.
//!
//! Byte payloads are applied eagerly under a per-region mutex (so memory
//! stays consistent regardless of thread scheduling); *costs* are charged at
//! unlock time by the runtime.

use crate::error::{MpiError, Result};
use parking_lot::Mutex;

/// Lock kind for a passive-target epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LockKind {
    /// Serializes with all other epochs on the same target.
    Exclusive,
    /// Concurrent with other shared epochs; ordered against exclusive ones.
    Shared,
}

/// Shared state of a window across all ranks. The per-target `tokens`
/// timelines serialize exclusive lock epochs in virtual time (with gap
/// backfill so real thread scheduling doesn't skew the result); shared
/// epochs do not book the token — they only contend at the NIC ports.
#[derive(Debug)]
pub(crate) struct WinShared {
    pub regions: Vec<Mutex<Vec<u8>>>,
    pub tokens: Vec<Mutex<crate::timeline::Timeline>>,
    pub sizes: Vec<usize>,
}

impl WinShared {
    pub(crate) fn new(sizes: Vec<usize>) -> Self {
        WinShared {
            regions: sizes.iter().map(|&s| Mutex::new(vec![0u8; s])).collect(),
            tokens: sizes
                .iter()
                .map(|_| Mutex::new(crate::timeline::Timeline::new()))
                .collect(),
            sizes,
        }
    }
}

/// A window handle owned by one rank. Created collectively via
/// [`crate::Rank::win_create`]; the local region's bytes count against the
/// rank's simulated memory budget for as long as the handle lives.
#[derive(Debug)]
pub struct Window {
    pub(crate) shared: std::sync::Arc<WinShared>,
    pub(crate) owner: usize,
    /// Keeps the simulated allocation alive.
    pub(crate) _mem: Option<crate::mem::MemGuard>,
}

impl Window {
    /// Size in bytes of `rank`'s region.
    pub fn size_of(&self, rank: usize) -> usize {
        self.shared.sizes[rank]
    }

    /// Access this rank's own region directly (e.g., the owner draining its
    /// level-2 segments to the file system). No network cost is implied;
    /// callers should charge memcpy time as appropriate.
    pub fn with_local<R>(&self, f: impl FnOnce(&mut [u8]) -> R) -> R {
        let mut region = self.shared.regions[self.owner].lock();
        f(&mut region)
    }

    fn check_bounds(&self, target: usize, disp: usize, len: usize) -> Result<()> {
        let window_len = self.shared.sizes[target];
        if disp.checked_add(len).is_none_or(|end| end > window_len) {
            return Err(MpiError::WindowOutOfBounds {
                target,
                offset: disp,
                len,
                window_len,
            });
        }
        Ok(())
    }
}

/// An open passive-target epoch. Ops apply data immediately; the accumulated
/// cost ledger is settled by [`crate::Rank::win_unlock`].
#[derive(Debug)]
pub struct Epoch<'w> {
    pub(crate) win: &'w Window,
    pub(crate) target: usize,
    pub(crate) kind: LockKind,
    /// (bytes, parts) of each put message, in issue order.
    pub(crate) put_msgs: Vec<(usize, usize)>,
    /// (bytes, parts) of each get message, in issue order.
    pub(crate) get_msgs: Vec<(usize, usize)>,
}

impl<'w> Epoch<'w> {
    pub(crate) fn new(win: &'w Window, target: usize, kind: LockKind) -> Self {
        Epoch {
            win,
            target,
            kind,
            put_msgs: Vec::new(),
            get_msgs: Vec::new(),
        }
    }

    /// One-sided put of a single contiguous block.
    pub fn put(&mut self, disp: usize, data: &[u8]) -> Result<()> {
        self.put_parts(&[(disp, data)])
    }

    /// One-sided put of many scattered blocks as a single message
    /// (the `MPI_Type_indexed` coalescing of §IV.A).
    pub fn put_gathered(&mut self, parts: &[(usize, &[u8])]) -> Result<()> {
        self.put_parts(parts)
    }

    fn put_parts(&mut self, parts: &[(usize, &[u8])]) -> Result<()> {
        if parts.is_empty() {
            return Ok(());
        }
        for &(disp, data) in parts {
            self.win.check_bounds(self.target, disp, data.len())?;
        }
        let mut region = self.win.shared.regions[self.target].lock();
        let mut bytes = 0usize;
        for &(disp, data) in parts {
            region[disp..disp + data.len()].copy_from_slice(data);
            bytes += data.len();
        }
        self.put_msgs.push((bytes, parts.len()));
        Ok(())
    }

    /// One-sided get of a single contiguous block.
    pub fn get(&mut self, disp: usize, buf: &mut [u8]) -> Result<()> {
        self.win.check_bounds(self.target, disp, buf.len())?;
        let region = self.win.shared.regions[self.target].lock();
        buf.copy_from_slice(&region[disp..disp + buf.len()]);
        self.get_msgs.push((buf.len(), 1));
        Ok(())
    }

    /// One-sided get of many scattered blocks as a single message.
    pub fn get_gathered(&mut self, parts: &mut [(usize, &mut [u8])]) -> Result<()> {
        if parts.is_empty() {
            return Ok(());
        }
        for (disp, buf) in parts.iter() {
            self.win.check_bounds(self.target, *disp, buf.len())?;
        }
        let region = self.win.shared.regions[self.target].lock();
        let mut bytes = 0usize;
        for (disp, buf) in parts.iter_mut() {
            buf.copy_from_slice(&region[*disp..*disp + buf.len()]);
            bytes += buf.len();
        }
        self.get_msgs.push((bytes, parts.len()));
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn window(sizes: Vec<usize>, owner: usize) -> Window {
        Window {
            shared: Arc::new(WinShared::new(sizes)),
            owner,
            _mem: None,
        }
    }

    #[test]
    fn put_then_get_roundtrip() {
        let w = window(vec![16, 16], 0);
        let mut ep = Epoch::new(&w, 1, LockKind::Exclusive);
        ep.put(4, &[1, 2, 3]).unwrap();
        let mut buf = [0u8; 3];
        ep.get(4, &mut buf).unwrap();
        assert_eq!(buf, [1, 2, 3]);
        assert_eq!(ep.put_msgs, vec![(3, 1)]);
        assert_eq!(ep.get_msgs, vec![(3, 1)]);
    }

    #[test]
    fn gathered_put_is_one_message() {
        let w = window(vec![32], 0);
        let mut ep = Epoch::new(&w, 0, LockKind::Exclusive);
        ep.put_gathered(&[(0, &[1, 1][..]), (10, &[2][..]), (20, &[3, 3, 3][..])])
            .unwrap();
        assert_eq!(ep.put_msgs, vec![(6, 3)]);
        w.with_local(|r| {
            assert_eq!(&r[0..2], &[1, 1]);
            assert_eq!(r[10], 2);
            assert_eq!(&r[20..23], &[3, 3, 3]);
        });
    }

    #[test]
    fn gathered_get_scatters_into_buffers() {
        let w = window(vec![8], 0);
        w.with_local(|r| r.copy_from_slice(&[0, 1, 2, 3, 4, 5, 6, 7]));
        let mut ep = Epoch::new(&w, 0, LockKind::Shared);
        let mut a = [0u8; 2];
        let mut b = [0u8; 3];
        ep.get_gathered(&mut [(1, &mut a[..]), (5, &mut b[..])])
            .unwrap();
        assert_eq!(a, [1, 2]);
        assert_eq!(b, [5, 6, 7]);
        assert_eq!(ep.get_msgs, vec![(5, 2)]);
    }

    #[test]
    fn out_of_bounds_put_rejected_without_partial_write() {
        let w = window(vec![8], 0);
        let mut ep = Epoch::new(&w, 0, LockKind::Exclusive);
        let err = ep
            .put_gathered(&[(0, &[9][..]), (7, &[9, 9][..])])
            .unwrap_err();
        assert!(matches!(err, MpiError::WindowOutOfBounds { .. }));
        // The valid first part must not have been applied either.
        w.with_local(|r| assert_eq!(r[0], 0));
    }

    #[test]
    fn out_of_bounds_get_rejected() {
        let w = window(vec![4], 0);
        let mut ep = Epoch::new(&w, 0, LockKind::Shared);
        let mut buf = [0u8; 8];
        assert!(ep.get(0, &mut buf).is_err());
    }

    #[test]
    fn empty_gathered_ops_are_free() {
        let w = window(vec![4], 0);
        let mut ep = Epoch::new(&w, 0, LockKind::Exclusive);
        ep.put_gathered(&[]).unwrap();
        ep.get_gathered(&mut []).unwrap();
        assert!(ep.put_msgs.is_empty());
        assert!(ep.get_msgs.is_empty());
    }

    #[test]
    fn disp_overflow_does_not_panic() {
        let w = window(vec![4], 0);
        let mut ep = Epoch::new(&w, 0, LockKind::Exclusive);
        assert!(ep.put(usize::MAX, &[1]).is_err());
    }
}
