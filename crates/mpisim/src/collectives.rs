//! The rendezvous primitive backing collective operations.
//!
//! All members of a communicator ([`crate::Comm`]) deposit a payload and
//! their current virtual clock; the last arrival publishes the full payload
//! set and the maximum clock, and every participant leaves with both. Cost
//! formulas (tree depth × latency, bandwidth terms) are applied by the
//! callers in `runtime/coll.rs` on top of the reconciled clock.
//!
//! Each completed rendezvous has a unique, monotonically increasing
//! *generation*, which doubles as a collectively-agreed identifier (used to
//! key window creation and shared-state registries).

use parking_lot::Mutex;
use std::sync::Arc;

/// Nothing blocks here: a depositor that is not the last parks in the
/// event core and polls its generation when woken (see `runtime/coll.rs`).
#[derive(Debug)]
pub(crate) struct Rendezvous {
    inner: Mutex<RvState>,
}

#[derive(Debug)]
struct RvState {
    gen: u64,
    arrived: usize,
    slots: Vec<Option<Vec<u8>>>,
    max_t: f64,
    /// Rank that set `max_t` (lowest rank on ties — arrival-order
    /// independent, so deterministic across runs); `None` until the
    /// generation's first deposit.
    straggler: Option<usize>,
    /// The most recently completed generation, as published.
    done: Option<RvResult>,
    /// Ranks that crash-stopped: they will never arrive again, so a
    /// generation completes when every *surviving* rank has deposited.
    /// Dead ranks' slots publish as empty payloads.
    dead: Vec<bool>,
    /// How many of `dead` are set.
    dead_count: usize,
}

impl RvState {
    /// Every surviving rank has arrived (and at least one survivor exists).
    /// A rank dies only by its own hand, never while parked here, so a dead
    /// rank's slot is empty and the arrivals are all survivors.
    fn complete(&self) -> bool {
        let filled_or_dead = self
            .slots
            .iter()
            .zip(&self.dead)
            .filter(|(s, d)| s.is_some() || **d);
        debug_assert_eq!(filled_or_dead.count(), self.arrived + self.dead_count);
        self.arrived > 0 && self.arrived + self.dead_count == self.slots.len()
    }
}

/// Outcome of a completed rendezvous.
#[derive(Debug, Clone)]
pub(crate) struct RvResult {
    /// Payloads indexed by rank.
    pub payloads: Arc<Vec<Vec<u8>>>,
    /// Sum of the payload lengths.
    pub total_bytes: usize,
    /// Maximum clock among participants at entry.
    pub max_t: f64,
    /// The participant whose entry clock equals `max_t` — the straggler
    /// everyone else waited on, lowest rank on ties. In this rendezvous'
    /// own numbering here; `Rank::rendezvous_in` maps it to a world rank
    /// before any caller reads it.
    pub straggler: Option<usize>,
    /// Unique id of this collective (generation number).
    pub gen: u64,
}

impl Rendezvous {
    pub(crate) fn new(n: usize) -> Self {
        Rendezvous {
            inner: Mutex::new(RvState {
                gen: 0,
                arrived: 0,
                slots: vec![None; n],
                max_t: f64::NEG_INFINITY,
                straggler: None,
                done: None,
                dead: vec![false; n],
                dead_count: 0,
            }),
        }
    }

    /// Publish the in-flight generation: dead ranks' slots become empty
    /// payloads and the next generation opens.
    fn publish(st: &mut RvState) -> RvResult {
        let my_gen = st.gen;
        let payloads: Vec<Vec<u8>> = st
            .slots
            .iter_mut()
            .map(|s| s.take().unwrap_or_default())
            .collect();
        let done = RvResult {
            total_bytes: payloads.iter().map(Vec::len).sum(),
            payloads: Arc::new(payloads),
            max_t: st.max_t,
            straggler: st.straggler.take(),
            gen: my_gen,
        };
        st.done = Some(done.clone());
        st.gen = my_gen + 1;
        st.arrived = 0;
        st.max_t = f64::NEG_INFINITY;
        done
    }

    /// Record that `rank` crash-stopped. It will never enter again; if the
    /// in-flight generation was only waiting on it, the generation
    /// completes now on behalf of the survivors. (Only the world's
    /// rendezvous is told — a crash while peers wait in a group's
    /// collective is resolved by the abort path, not by shrinking.)
    pub(crate) fn mark_dead(&self, rank: usize) {
        let mut st = self.inner.lock();
        if st.dead[rank] {
            return;
        }
        st.dead[rank] = true;
        st.dead_count += 1;
        if st.complete() {
            Self::publish(&mut st);
        }
    }

    /// Deposit `payload` at virtual time `t` without blocking. The last
    /// surviving arrival gets the published result back immediately;
    /// everyone else gets the generation to [`Rendezvous::poll`] for.
    /// This is the primitive the runtime's event loop blocks on (deposit,
    /// then poll/park until the generation advances).
    pub(crate) fn deposit(&self, me: usize, payload: Vec<u8>, t: f64) -> Deposit {
        let mut st = self.inner.lock();
        let my_gen = st.gen;
        debug_assert!(
            st.slots[me].is_none(),
            "rank {me} double-entered a collective"
        );
        st.slots[me] = Some(payload);
        st.arrived += 1;
        if t > st.max_t || (t == st.max_t && st.straggler.is_none_or(|r| me < r)) {
            st.max_t = t;
            st.straggler = Some(me);
        }
        if st.complete() {
            // Last (surviving) arrival: publish and open the next generation.
            Deposit::Complete(Self::publish(&mut st))
        } else {
            Deposit::Waiting { gen: my_gen }
        }
    }

    /// Check whether the generation a deposit joined has been published.
    /// A generation's result cannot be overwritten before every depositor
    /// of that generation has polled it: generation `g+1` only completes
    /// once all survivors deposit again, and a rank deposits again only
    /// after collecting its `g` result (a rank turns dead only by its own
    /// hand, at a chaos checkpoint, never while parked here).
    pub(crate) fn poll(&self, my_gen: u64) -> Option<RvResult> {
        let st = self.inner.lock();
        let done = st.done.as_ref().filter(|_| st.gen > my_gen)?;
        debug_assert_eq!(done.gen, my_gen);
        Some(done.clone())
    }
}

/// Outcome of a non-blocking [`Rendezvous::deposit`].
pub(crate) enum Deposit {
    /// This deposit was the last one: the generation published and the
    /// result is in hand. In the event backend the completer must wake
    /// the parked participants.
    Complete(RvResult),
    /// Others are still pending; poll with this generation after waking.
    Waiting { gen: u64 },
}

/// `ceil(log2(n))`, with `log2ceil(1) == 0`.
pub fn log2ceil(n: usize) -> u32 {
    if n <= 1 {
        0
    } else {
        usize::BITS - (n - 1).leading_zeros()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deposit for `ranks` in the order given; everyone but the last must
    /// be told to wait on the same generation, and the last completes it.
    fn run_generation(rv: &Rendezvous, entries: &[(usize, Vec<u8>, f64)]) -> RvResult {
        let (last, waiters) = entries.split_last().unwrap();
        let mut gens = Vec::new();
        for (me, payload, t) in waiters {
            match rv.deposit(*me, payload.clone(), *t) {
                Deposit::Waiting { gen } => {
                    assert!(rv.poll(gen).is_none(), "not published yet");
                    gens.push(gen);
                }
                Deposit::Complete(_) => panic!("rank {me} completed early"),
            }
        }
        let (me, payload, t) = last;
        let Deposit::Complete(done) = rv.deposit(*me, payload.clone(), *t) else {
            panic!("last arrival must complete the generation");
        };
        for gen in gens {
            assert_eq!(gen, done.gen);
            let seen = rv.poll(gen).expect("published for every waiter");
            assert_eq!(seen.payloads, done.payloads);
            assert_eq!((seen.max_t, seen.straggler), (done.max_t, done.straggler));
        }
        done
    }

    #[test]
    fn log2ceil_values() {
        assert_eq!(log2ceil(1), 0);
        assert_eq!(log2ceil(2), 1);
        assert_eq!(log2ceil(3), 2);
        assert_eq!(log2ceil(4), 2);
        assert_eq!(log2ceil(5), 3);
        assert_eq!(log2ceil(1024), 10);
    }

    #[test]
    fn rendezvous_gathers_payloads_and_max_time() {
        let rv = Rendezvous::new(4);
        // Arrival order is not rank order.
        let entries: Vec<_> = [2usize, 0, 3, 1]
            .iter()
            .map(|&me| (me, vec![me as u8], me as f64))
            .collect();
        let r = run_generation(&rv, &entries);
        assert_eq!(r.max_t, 3.0);
        assert_eq!(r.straggler, Some(3));
        assert_eq!(r.gen, 0);
        for (i, p) in r.payloads.iter().enumerate() {
            assert_eq!(p, &vec![i as u8]);
        }
    }

    #[test]
    fn straggler_ties_break_to_lowest_rank() {
        // All ranks enter with the same clock; the straggler must be rank 0
        // whatever the arrival order.
        for order in [[0usize, 1, 2, 3], [3, 2, 1, 0], [2, 0, 3, 1], [1, 3, 0, 2]] {
            let rv = Rendezvous::new(4);
            let entries: Vec<_> = order.iter().map(|&me| (me, Vec::new(), 7.5)).collect();
            let r = run_generation(&rv, &entries);
            assert_eq!(r.straggler, Some(0), "order {order:?}");
            assert_eq!(r.max_t, 7.5);
        }
    }

    #[test]
    fn consecutive_generations_do_not_mix() {
        let rv = Rendezvous::new(2);
        for round in 0..50u8 {
            // Alternate who arrives first.
            let (a, b) = if round % 2 == 0 { (0, 1) } else { (1, 0) };
            let r = run_generation(
                &rv,
                &[
                    (a, vec![round, a as u8], round as f64),
                    (b, vec![round, b as u8], round as f64),
                ],
            );
            assert_eq!(r.gen, round as u64);
            assert_eq!(*r.payloads, vec![vec![round, 0], vec![round, 1]]);
        }
    }

    #[test]
    fn dead_rank_releases_survivors_with_empty_slot() {
        let rv = Rendezvous::new(3);
        let mut gens = Vec::new();
        for me in 0..2usize {
            match rv.deposit(me, vec![me as u8 + 1], me as f64) {
                Deposit::Waiting { gen } => gens.push(gen),
                Deposit::Complete(_) => panic!("rank 2 has not arrived"),
            }
        }
        // Rank 2 dies instead of arriving: the generation completes for
        // the survivors, with an empty payload in the dead slot.
        rv.mark_dead(2);
        for gen in gens {
            let r = rv.poll(gen).expect("death completed the generation");
            assert_eq!(r.max_t, 1.0, "max over survivors only");
            assert_eq!(*r.payloads, vec![vec![1], vec![2], vec![]]);
        }
        // Later generations keep completing without the dead rank.
        let r = run_generation(&rv, &[(1, vec![9], 5.0), (0, vec![8], 4.0)]);
        assert_eq!(r.gen, 1);
        assert_eq!(r.max_t, 5.0);
        assert_eq!(*r.payloads, vec![vec![8], vec![9], vec![]]);
    }

    #[test]
    fn dead_before_anyone_arrives_still_completes() {
        let rv = Rendezvous::new(2);
        rv.mark_dead(1);
        // Marking twice changes nothing.
        rv.mark_dead(1);
        // A singleton "collective" among the survivors completes inline.
        let r = run_generation(&rv, &[(0, vec![7], 2.0)]);
        assert_eq!(*r.payloads, vec![vec![7], vec![]]);
        assert_eq!(r.max_t, 2.0);
    }
}
