//! Point-to-point: blocking and nonblocking sends and receives, and the
//! mailbox wait every receive parks in.

use super::{Rank, TAG_INTERNAL_BASE};
use crate::error::{MpiError, Result};
use crate::net::{RECV_OVERHEAD, SEND_OVERHEAD};
use crate::p2p::{Received, Request, Tag};
use crate::trace::Phase;
use std::sync::atomic::Ordering;

impl Rank {
    /// Span name for a p2p send, tagged with the topology level when a
    /// non-trivial topology is active (span names must be `&'static str`).
    fn send_span_name(&self, base: &'static str, dst: usize) -> &'static str {
        if self.shared.fabric.topology().is_none() {
            return base;
        }
        match (base, self.shared.fabric.is_intra(self.id, dst)) {
            ("send", true) => "send_intra",
            ("send", false) => "send_inter",
            ("isend", true) => "isend_intra",
            ("isend", false) => "isend_inter",
            _ => base,
        }
    }

    /// Blocking (buffered) send: returns once the local NIC has pushed the
    /// message.
    pub fn send(&mut self, dst: usize, tag: Tag, data: &[u8]) -> Result<()> {
        self.check_abort()?;
        self.check_rank(dst)?;
        self.chaos_checkpoint()?;
        debug_assert!(tag < TAG_INTERNAL_BASE, "tag collides with internal range");
        let start = self.clock;
        let tr = self
            .shared
            .fabric
            .transfer(self.id, dst, data.len(), self.clock);
        self.set_clock_as(tr.sender_done, Phase::Exchange);
        let span = self.tracer.record(
            self.send_span_name("send", dst),
            Phase::Exchange,
            start,
            self.clock,
            data.len() as u64,
            None,
        );
        self.shared.mailboxes[dst].push(self.id, tag, data.to_vec(), tr.arrival, span);
        self.shared.notify_recv(dst);
        self.stats.msgs_sent += 1;
        self.stats.bytes_sent += data.len() as u64;
        self.metrics.observe_msg_bytes(data.len() as u64);
        Ok(())
    }

    /// Nonblocking send; complete with [`Rank::wait`]. An owned buffer is
    /// moved into the message, a borrowed one copied.
    pub fn isend(&mut self, dst: usize, tag: Tag, data: impl Into<Vec<u8>>) -> Result<Request> {
        let data = data.into();
        self.check_abort()?;
        self.check_rank(dst)?;
        self.chaos_checkpoint()?;
        let start = self.clock;
        let tr = self
            .shared
            .fabric
            .transfer(self.id, dst, data.len(), self.clock);
        self.advance_as(SEND_OVERHEAD, Phase::Exchange);
        let span = self.tracer.record(
            self.send_span_name("isend", dst),
            Phase::Exchange,
            start,
            self.clock,
            data.len() as u64,
            None,
        );
        self.stats.msgs_sent += 1;
        self.stats.bytes_sent += data.len() as u64;
        self.metrics.observe_msg_bytes(data.len() as u64);
        self.shared.mailboxes[dst].push(self.id, tag, data, tr.arrival, span);
        self.shared.notify_recv(dst);
        Ok(Request {
            done: tr.sender_done,
        })
    }

    /// Blocking receive. `None` arguments are wildcards.
    pub fn recv(&mut self, src: Option<usize>, tag: Option<Tag>) -> Result<Received> {
        if let Some(s) = src {
            self.check_rank(s)?;
        }
        self.chaos_checkpoint()?;
        let start = self.clock;
        // When the receive names a specific source, watch its crash flag:
        // a receive posted on a dead rank (with no pre-crash message
        // pending) fails typed instead of hanging forever. Wildcard
        // receives cannot know which sender they wait for and rely on the
        // abort path.
        let r = self.blocking_recv(src, tag)?;
        let cfg = self.shared.fabric.config();
        // Completion: reconcile with the arrival, pay the receive overhead,
        // and pay the unexpected-queue matching cost for every message that
        // was pending when this one matched.
        let done =
            self.clock.max(r.arrival) + RECV_OVERHEAD + r.queue_depth as f64 * cfg.match_overhead;
        self.set_clock_as(done, Phase::Exchange);
        self.tracer.record_full(
            "recv",
            Phase::Exchange,
            start,
            self.clock,
            r.data.len() as u64,
            r.send_span,
            r.arrival,
            None,
        );
        self.stats.msgs_recvd += 1;
        self.stats.bytes_recvd += r.data.len() as u64;
        Ok(r)
    }

    /// Complete a send request: the clock moves to when its sender side
    /// is done.
    pub fn wait(&mut self, req: Request) {
        self.set_clock_as(req.done, Phase::Exchange);
    }

    /// Complete a batch of requests, in order.
    pub fn waitall(&mut self, reqs: Vec<Request>) {
        for req in reqs {
            self.wait(req);
        }
    }

    /// A blocking receive against this rank's mailbox. Predicates are
    /// checked in the order match, abort, dead source — so a message the
    /// source sent before crashing is still delivered — and then the task
    /// parks; a mailbox push, abort, or rank death wakes it for the
    /// re-check. One-at-a-time execution makes the check-then-park
    /// sequence atomic — no lost wakeups.
    fn blocking_recv(&self, src: Option<usize>, tag: Option<Tag>) -> Result<Received> {
        let mailbox = &self.shared.mailboxes[self.id];
        loop {
            if let Some(r) = mailbox.try_match(src, tag) {
                return Ok(r);
            }
            if self.shared.abort.load(Ordering::SeqCst) {
                return Err(MpiError::Aborted);
            }
            if let Some(rank) = src.filter(|&s| self.shared.dead[s].load(Ordering::SeqCst)) {
                return Err(MpiError::PeerCrashed { rank });
            }
            self.shared.core.park(self.id, self.clock);
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::error::{MpiError, SimError};
    use crate::runtime::{run, SimConfig};

    fn cfg() -> SimConfig {
        SimConfig::default()
    }

    #[test]
    fn send_recv_moves_real_bytes_and_time() {
        let rep = run(2, cfg(), |rk| {
            if rk.rank() == 0 {
                rk.send(1, 7, &[10, 20, 30])?;
                Ok(Vec::new())
            } else {
                let r = rk.recv(Some(0), Some(7))?;
                assert!(rk.now() > 0.0, "receive must advance virtual time");
                Ok(r.data)
            }
        })
        .unwrap();
        assert_eq!(rep.results[1], vec![10, 20, 30]);
        assert!(rep.makespan > 0.0);
        assert_eq!(rep.aggregate_stats().msgs_sent, 1);
        assert_eq!(rep.aggregate_stats().bytes_recvd, 3);
    }

    #[test]
    fn receive_from_a_crashed_rank_delivers_what_it_sent_first() {
        let engine = chaos::FaultPlan::new(3)
            .with(chaos::Fault::RankCrash { rank: 1, at: 0.5 })
            .build()
            .unwrap();
        let sim = SimConfig {
            chaos: Some(engine),
            ..cfg()
        };
        let rep = run(2, sim, |rk| {
            if rk.rank() == 1 {
                rk.send(0, 1, &[5])?;
                rk.advance(1.0); // past the crash instant
                let crashed = rk.send(0, 1, &[6]);
                assert_eq!(crashed, Err(MpiError::RankCrashed { rank: 1 }));
                return Ok(Vec::new());
            }
            // The message sent before the crash is still delivered; after
            // it nothing more will ever come, and the receive fails typed
            // instead of parking forever.
            let first = rk.recv(Some(1), Some(1))?.data;
            let second = rk.recv(Some(1), Some(1));
            assert_eq!(second.err(), Some(MpiError::PeerCrashed { rank: 1 }));
            Ok(first)
        })
        .unwrap();
        assert_eq!(rep.results[0], vec![5]);
    }

    #[test]
    fn isend_waitall() {
        let rep = run(2, cfg(), |rk| {
            if rk.rank() == 0 {
                let r1 = rk.isend(1, 1, [1])?;
                let r2 = rk.isend(1, 2, [2, 2])?;
                rk.waitall(vec![r1, r2]);
                Ok(0u64)
            } else {
                let x = rk.recv(Some(0), Some(2))?.data.len() as u64;
                let y = rk.recv(Some(0), Some(1))?.data.len() as u64;
                Ok(x * 10 + y)
            }
        })
        .unwrap();
        assert_eq!(rep.results[1], 21);
    }

    #[test]
    fn invalid_rank_rejected() {
        let err = run(2, cfg(), |rk| {
            if rk.rank() == 0 {
                rk.send(5, 0, &[1])?;
            } else {
                rk.barrier()?;
            }
            Ok(())
        })
        .unwrap_err();
        assert!(matches!(
            err,
            SimError::RankFailed {
                error: MpiError::InvalidRank { .. },
                ..
            }
        ));
    }

    #[test]
    fn recv_span_carries_send_dependency() {
        let c = SimConfig {
            trace: true,
            ..cfg()
        };
        let rep = run(2, c, |rk| {
            if rk.rank() == 0 {
                rk.send(1, 9, &[7; 64])?;
            } else {
                rk.recv(Some(0), Some(9))?;
            }
            Ok(())
        })
        .unwrap();
        let send = rep.traces[0]
            .spans
            .iter()
            .find(|s| s.name == "send")
            .expect("send span");
        let recv = rep.traces[1]
            .spans
            .iter()
            .find(|s| s.name == "recv")
            .expect("recv span");
        assert_eq!(
            recv.dep,
            Some(send.id),
            "dependency edge links recv to send"
        );
        assert_eq!(send.bytes, 64);
        assert_eq!(recv.bytes, 64);
        assert!(recv.end >= send.start, "causality in virtual time");
    }
}
