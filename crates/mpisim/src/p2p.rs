//! Point-to-point messaging: mailboxes, matching, and nonblocking requests.
//!
//! Messages are eagerly transferred: the sender schedules the transfer on
//! the fabric at send time and deposits an envelope carrying the *virtual
//! arrival time* in the destination mailbox. A receive completes at
//! `max(receive-post time, arrival time)`, which is exactly the
//! sender/receiver clock reconciliation used by trace-driven network
//! simulators such as LogGOPSim.
//!
//! Matching follows MPI: by `(source, tag)` with wildcards, and
//! non-overtaking between a given pair (enforced with per-envelope sequence
//! numbers).

use parking_lot::Mutex;

/// Message tag. Wildcards are expressed with `Option` at the receive side.
pub type Tag = u64;

#[derive(Debug)]
pub(crate) struct Envelope {
    pub src: usize,
    pub tag: Tag,
    pub data: Vec<u8>,
    pub arrival: f64,
    pub seq: u64,
    /// Trace span id of the send that produced this message (when tracing).
    pub span: Option<u64>,
}

/// One rank's incoming-message queue. Nothing blocks here: a receiver
/// that finds no match parks in the event core, and the sender's push is
/// followed by a wake of the destination rank (see `runtime/p2p.rs`).
#[derive(Debug, Default)]
pub(crate) struct Mailbox {
    inner: Mutex<MailboxInner>,
}

#[derive(Debug, Default)]
struct MailboxInner {
    queue: Vec<Envelope>,
    next_seq: u64,
}

/// A completed receive.
#[derive(Debug)]
pub struct Received {
    pub data: Vec<u8>,
    pub src: usize,
    pub tag: Tag,
    /// Virtual arrival time of the message at this rank.
    pub arrival: f64,
    /// Depth of the pending-message queue at match time (drives the
    /// unexpected-queue matching cost; see `NetConfig::match_overhead`).
    pub queue_depth: usize,
    /// Trace span id of the matching send on the source rank (the
    /// cross-rank dependency edge; `None` when tracing is disabled).
    pub send_span: Option<u64>,
}

impl Mailbox {
    pub(crate) fn push(
        &self,
        src: usize,
        tag: Tag,
        data: Vec<u8>,
        arrival: f64,
        span: Option<u64>,
    ) {
        let mut inner = self.inner.lock();
        let seq = inner.next_seq;
        inner.next_seq += 1;
        inner.queue.push(Envelope {
            src,
            tag,
            data,
            arrival,
            seq,
            span,
        });
    }

    /// Try to claim the best matching envelope without blocking. The
    /// runtime's event loop calls this directly: try, then park until a
    /// push wakes the rank for a re-check.
    pub(crate) fn try_match(&self, src: Option<usize>, tag: Option<Tag>) -> Option<Received> {
        let mut inner = self.inner.lock();
        let best = inner
            .queue
            .iter()
            .enumerate()
            .filter(|(_, e)| src.is_none_or(|s| e.src == s) && tag.is_none_or(|t| e.tag == t))
            .min_by(|(_, a), (_, b)| {
                a.arrival
                    .partial_cmp(&b.arrival)
                    .unwrap_or(std::cmp::Ordering::Equal)
                    .then(a.seq.cmp(&b.seq))
            })
            .map(|(i, _)| i);
        let depth = inner.queue.len();
        best.map(|i| {
            let e = inner.queue.swap_remove(i);
            Received {
                data: e.data,
                src: e.src,
                tag: e.tag,
                arrival: e.arrival,
                queue_depth: depth,
                send_span: e.span,
            }
        })
    }
}

/// Handle for a posted isend, completed via `Rank::wait` /
/// `Rank::waitall`: the sender side completes at `done`.
#[derive(Debug)]
pub struct Request {
    pub(crate) done: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_between_pair_by_arrival() {
        let mb = Mailbox::default();
        mb.push(0, 7, vec![1], 2.0, None);
        mb.push(0, 7, vec![2], 1.0, None);
        // Earlier arrival wins even if pushed later.
        let r = mb.try_match(Some(0), Some(7)).unwrap();
        assert_eq!(r.data, vec![2]);
        assert_eq!(r.queue_depth, 2, "depth counted before the claim");
        let r = mb.try_match(Some(0), Some(7)).unwrap();
        assert_eq!(r.data, vec![1]);
        assert!(mb.try_match(Some(0), Some(7)).is_none(), "queue drained");
    }

    #[test]
    fn equal_arrival_ties_break_by_sequence() {
        let mb = Mailbox::default();
        mb.push(0, 7, vec![1], 1.0, None);
        mb.push(0, 7, vec![2], 1.0, None);
        let r = mb.try_match(Some(0), Some(7)).unwrap();
        assert_eq!(r.data, vec![1], "non-overtaking order must hold");
    }

    #[test]
    fn wildcard_source_and_tag() {
        let mb = Mailbox::default();
        mb.push(3, 9, vec![42], 1.0, None);
        let r = mb.try_match(None, None).unwrap();
        assert_eq!(r.src, 3);
        assert_eq!(r.tag, 9);
        assert!((r.arrival - 1.0).abs() < f64::EPSILON);
    }

    #[test]
    fn tag_filtering_skips_nonmatching() {
        let mb = Mailbox::default();
        mb.push(0, 1, vec![1], 0.5, None);
        mb.push(0, 2, vec![2], 1.0, None);
        let r = mb.try_match(Some(0), Some(2)).unwrap();
        assert_eq!(r.data, vec![2]);
        assert!(mb.try_match(Some(1), None).is_none(), "no such source");
        assert_eq!(mb.try_match(None, Some(1)).unwrap().data, vec![1]);
    }
}
