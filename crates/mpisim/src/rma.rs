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
//!
//! A region's *modelled* bytes are charged to its owner's memory budget at
//! `win_create`; its *real* bytes are allocated on first touch (a put or
//! [`Window::with_local`]). A region nobody wrote reads as zeros, which is
//! what never-written `calloc`ed window memory returns, and costs nothing.

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
    /// One byte region per rank, either unbacked (empty) or all of its
    /// `sizes[rank]` bytes: see [`backed`] and [`read_region`].
    pub regions: Vec<Mutex<Vec<u8>>>,
    pub tokens: Vec<Mutex<crate::timeline::Timeline>>,
    pub sizes: Vec<usize>,
}

impl WinShared {
    pub(crate) fn new(sizes: Vec<usize>) -> Self {
        WinShared {
            regions: sizes.iter().map(|_| Mutex::default()).collect(),
            tokens: sizes
                .iter()
                .map(|_| Mutex::new(crate::timeline::Timeline::new()))
                .collect(),
            sizes,
        }
    }
}

/// First touch: back `region` with its `size` zeroed bytes unless a
/// previous touch already has.
fn backed(region: &mut Vec<u8>, size: usize) -> &mut [u8] {
    if region.len() != size {
        *region = vec![0u8; size];
    }
    region
}

/// Copy the bytes at `disp` out of `region` (bounds already checked); a
/// region still unbacked reads as zeros and stays unbacked.
fn read_region(region: &[u8], disp: usize, buf: &mut [u8]) {
    if region.is_empty() {
        buf.fill(0);
    } else {
        buf.copy_from_slice(&region[disp..disp + buf.len()]);
    }
}

/// A window handle owned by one rank. Created collectively via
/// [`crate::Rank::win_create`]; the local region's bytes count against the
/// rank's simulated memory budget for as long as the handle lives, whether
/// or not a put ever makes the process allocate them.
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
    /// callers should charge memcpy time as appropriate. `f` always sees
    /// all `size_of(owner)` bytes: an untouched region is backed here.
    pub fn with_local<R>(&self, f: impl FnOnce(&mut [u8]) -> R) -> R {
        let mut region = self.shared.regions[self.owner].lock();
        f(backed(&mut region, self.shared.sizes[self.owner]))
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

/// The `(bytes, parts)` of each message one direction of an epoch sent,
/// in issue order. The first is held inline and only the rest spill to the
/// heap, so an epoch of one put or one get (every TCIO flush and fetch)
/// allocates nothing.
#[derive(Debug, Default)]
pub(crate) struct Ledger {
    first: Option<(usize, usize)>,
    rest: Vec<(usize, usize)>,
}

impl Ledger {
    fn push(&mut self, msg: (usize, usize)) {
        match self.first {
            None => self.first = Some(msg),
            Some(_) => self.rest.push(msg),
        }
    }

    /// The messages in issue order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        self.first.into_iter().chain(self.rest.iter().copied())
    }
}

/// An open passive-target epoch. Ops apply data immediately; the accumulated
/// cost ledger is settled by [`crate::Rank::win_unlock`].
#[derive(Debug)]
pub struct Epoch<'w> {
    pub(crate) win: &'w Window,
    pub(crate) target: usize,
    pub(crate) kind: LockKind,
    pub(crate) put_msgs: Ledger,
    pub(crate) get_msgs: Ledger,
}

impl<'w> Epoch<'w> {
    pub(crate) fn new(win: &'w Window, target: usize, kind: LockKind) -> Self {
        Epoch {
            win,
            target,
            kind,
            put_msgs: Ledger::default(),
            get_msgs: Ledger::default(),
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
        let region = backed(&mut region, self.win.shared.sizes[self.target]);
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
        read_region(&region, disp, buf);
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
            read_region(&region, *disp, buf);
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

    fn msgs(ledger: &Ledger) -> Vec<(usize, usize)> {
        ledger.iter().collect()
    }

    /// Bytes the process really holds for `rank`'s region.
    fn backing(w: &Window, rank: usize) -> usize {
        w.shared.regions[rank].lock().len()
    }

    #[test]
    fn gets_from_a_never_written_region_read_zeros_and_leave_it_unbacked() {
        let w = window(vec![16, 16], 0);
        let mut ep = Epoch::new(&w, 1, LockKind::Shared);
        let mut buf = [7u8; 5];
        ep.get(11, &mut buf).unwrap();
        assert_eq!(buf, [0; 5]);
        let (mut a, mut b) = ([7u8; 2], [7u8; 3]);
        ep.get_gathered(&mut [(0, &mut a[..]), (13, &mut b[..])])
            .unwrap();
        assert_eq!((a, b), ([0; 2], [0; 3]));
        assert_eq!(msgs(&ep.get_msgs), vec![(5, 1), (5, 2)]);
        assert_eq!(backing(&w, 1), 0);
    }

    #[test]
    fn first_put_backs_the_whole_target_region_and_no_other() {
        let w = window(vec![16, 16, 16], 0);
        let mut ep = Epoch::new(&w, 1, LockKind::Exclusive);
        ep.put(14, &[1, 2]).unwrap();
        let mut buf = [7u8; 16];
        ep.get(0, &mut buf).unwrap();
        assert_eq!(buf[..14], [0; 14]);
        assert_eq!(buf[14..], [1, 2]);
        assert_eq!([backing(&w, 0), backing(&w, 1), backing(&w, 2)], [0, 16, 0]);
    }

    #[test]
    fn out_of_bounds_put_on_an_unbacked_region_allocates_nothing() {
        let w = window(vec![8], 0);
        let mut ep = Epoch::new(&w, 0, LockKind::Exclusive);
        let err = ep
            .put_gathered(&[(0, &[9][..]), (7, &[9, 9][..])])
            .unwrap_err();
        assert!(matches!(err, MpiError::WindowOutOfBounds { .. }));
        assert!(msgs(&ep.put_msgs).is_empty());
        assert_eq!(backing(&w, 0), 0);
    }

    #[test]
    fn with_local_on_an_unbacked_region_sees_size_zeros() {
        let w = window(vec![4, 12], 1);
        w.with_local(|r| assert_eq!(r, [0u8; 12]));
        assert_eq!(backing(&w, 1), 12);
    }

    #[test]
    fn zero_size_region_stays_zero_size() {
        // What a crash-stopped rank exposes: nothing to back, every
        // non-empty access out of bounds.
        let w = window(vec![0, 8], 0);
        w.with_local(|r| assert!(r.is_empty()));
        let mut ep = Epoch::new(&w, 0, LockKind::Exclusive);
        assert!(ep.put(0, &[1]).is_err());
        assert!(ep.get(0, &mut [0u8; 1]).is_err());
        ep.put(0, &[]).unwrap();
        ep.get(0, &mut []).unwrap();
        assert_eq!((w.size_of(0), backing(&w, 0)), (0, 0));
    }

    #[test]
    fn put_then_get_roundtrip() {
        let w = window(vec![16, 16], 0);
        let mut ep = Epoch::new(&w, 1, LockKind::Exclusive);
        ep.put(4, &[1, 2, 3]).unwrap();
        let mut buf = [0u8; 3];
        ep.get(4, &mut buf).unwrap();
        assert_eq!(buf, [1, 2, 3]);
        assert_eq!(msgs(&ep.put_msgs), vec![(3, 1)]);
        assert_eq!(msgs(&ep.get_msgs), vec![(3, 1)]);
    }

    #[test]
    fn a_one_message_ledger_stays_inline_and_more_keep_issue_order() {
        let w = window(vec![16], 0);
        let mut ep = Epoch::new(&w, 0, LockKind::Exclusive);
        ep.put(0, &[1]).unwrap();
        ep.get(0, &mut [0u8; 2]).unwrap();
        let spilled = |ep: &Epoch| (ep.put_msgs.rest.capacity(), ep.get_msgs.rest.capacity());
        assert_eq!(
            spilled(&ep),
            (0, 0),
            "one message each way allocates nothing"
        );
        ep.put(4, &[2, 2, 2]).unwrap();
        ep.put_gathered(&[(8, &[3][..]), (12, &[4, 4][..])])
            .unwrap();
        assert_eq!(msgs(&ep.put_msgs), vec![(1, 1), (3, 1), (3, 2)]);
        assert_eq!(msgs(&ep.get_msgs), vec![(2, 1)]);
    }

    #[test]
    fn gathered_put_is_one_message() {
        let w = window(vec![32], 0);
        let mut ep = Epoch::new(&w, 0, LockKind::Exclusive);
        ep.put_gathered(&[(0, &[1, 1][..]), (10, &[2][..]), (20, &[3, 3, 3][..])])
            .unwrap();
        assert_eq!(msgs(&ep.put_msgs), vec![(6, 3)]);
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
        assert_eq!(msgs(&ep.get_msgs), vec![(5, 2)]);
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
        assert!(msgs(&ep.put_msgs).is_empty());
        assert!(msgs(&ep.get_msgs).is_empty());
    }

    #[test]
    fn disp_overflow_does_not_panic() {
        let w = window(vec![4], 0);
        let mut ep = Epoch::new(&w, 0, LockKind::Exclusive);
        assert!(ep.put(usize::MAX, &[1]).is_err());
    }
}
