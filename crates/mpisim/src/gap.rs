//! The sorted store behind a [`Timeline`](crate::timeline::Timeline): a
//! gap buffer over a ring, searched by galloping out from the gap.
//!
//! A timeline's busy intervals are sorted values that are edited where
//! they were last edited: a resource's next booking usually lands at or
//! next to its previous one. So the store keeps a gap at the last edit:
//! the `gap` elements below it sit at the back of a deque and the rest at
//! its front. Inserting or removing at the gap is a push or a pop, and
//! moving the gap is a rotation of the elements it passes, taken the short
//! way round the ring (so from one end of the order to the other is free).
//! A search gallops out from the gap. An edit `d` elements from the last
//! one costs O(log d) probes and a `d`-element move, whatever the store's
//! length.

use std::collections::VecDeque;

/// Values in ascending order (by whatever order the caller keeps), with
/// the insertion point at the last edit.
#[derive(Debug)]
pub(crate) struct GapBuffer<T> {
    ring: VecDeque<T>,
    /// Number of elements below the gap: the back `gap` slots of `ring`.
    gap: usize,
    /// Elements rotated across the gap, for the locality tests.
    #[cfg(test)]
    pub(crate) moved: usize,
    /// Elements read by [`GapBuffer::gallop`], for the locality tests.
    #[cfg(test)]
    pub(crate) probes: std::cell::Cell<usize>,
}

impl<T> Default for GapBuffer<T> {
    /// Empty, and allocating nothing.
    fn default() -> Self {
        GapBuffer {
            ring: VecDeque::new(),
            gap: 0,
            #[cfg(test)]
            moved: 0,
            #[cfg(test)]
            probes: Default::default(),
        }
    }
}

impl<T: Copy> GapBuffer<T> {
    pub(crate) fn len(&self) -> usize {
        self.ring.len()
    }

    /// Position in `ring` of the `i`-th element in order.
    fn slot(&self, i: usize) -> usize {
        if i < self.gap {
            self.ring.len() - self.gap + i
        } else {
            i - self.gap
        }
    }

    /// The `i`-th element in order; `i` must be below [`GapBuffer::len`].
    pub(crate) fn get(&self, i: usize) -> T {
        self.ring[self.slot(i)]
    }

    pub(crate) fn get_mut(&mut self, i: usize) -> &mut T {
        let at = self.slot(i);
        &mut self.ring[at]
    }

    /// The `i`-th element in order, if there are that many.
    pub(crate) fn nth(&self, i: usize) -> Option<T> {
        (i < self.len()).then(|| self.get(i))
    }

    pub(crate) fn last(&self) -> Option<T> {
        self.nth(self.len().wrapping_sub(1))
    }

    /// Every element, in order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = &T> {
        let above = self.ring.len() - self.gap;
        self.ring.range(above..).chain(self.ring.range(..above))
    }

    /// Index of the first element for which `below` is false, where
    /// `below` is true on a prefix of the order. Gallops out from the gap
    /// (±1, ±2, ±4, …), then binary-searches the bracket: an answer `d`
    /// elements from the gap costs O(log d) probes.
    pub(crate) fn gallop(&self, below: impl Fn(T) -> bool) -> usize {
        let probe = |i: usize| {
            #[cfg(test)]
            self.probes.set(self.probes.get() + 1);
            below(self.get(i))
        };
        let n = self.len();
        let g = self.gap;
        let (mut lo, mut hi) = (0, n);
        if g < n && probe(g) {
            lo = g + 1;
            let mut step = 1;
            while g + step < n {
                if !probe(g + step) {
                    hi = g + step;
                    break;
                }
                lo = g + step + 1;
                step *= 2;
            }
        } else {
            hi = g;
            let mut step = 1;
            while step <= g {
                if probe(g - step) {
                    lo = g - step + 1;
                    break;
                }
                hi = g - step;
                step *= 2;
            }
        }
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if probe(mid) {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        lo
    }

    /// Put the gap before element `idx`.
    fn move_gap(&mut self, idx: usize) {
        if idx > self.gap {
            self.ring.rotate_left(idx - self.gap);
        } else {
            self.ring.rotate_right(self.gap - idx);
        }
        #[cfg(test)]
        {
            let k = idx.abs_diff(self.gap);
            self.moved += k.min(self.ring.len() - k);
        }
        self.gap = idx;
    }

    /// Make `v` the `idx`-th element; the gap ends up just above it.
    pub(crate) fn insert(&mut self, idx: usize, v: T) {
        self.move_gap(idx);
        self.ring.push_back(v);
        self.gap += 1;
    }

    /// Take out the `idx`-th element, which exists; the gap ends up where
    /// it was.
    pub(crate) fn remove(&mut self, idx: usize) -> T {
        self.move_gap(idx);
        // Invariant: with the gap before element idx, that element is the
        // ring's front, and the caller says it exists.
        self.ring.pop_front().expect("element idx exists")
    }

    /// Drop the first `n` elements in order.
    pub(crate) fn drop_first(&mut self, n: usize) {
        self.move_gap(n);
        self.ring.truncate(self.ring.len() - n);
        self.gap = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    /// Random inserts, removals, gallops and front drops against a sorted
    /// `Vec`: the same elements in the same order after every step.
    #[test]
    fn a_gap_buffer_is_a_sorted_vec() {
        let mut rng = StdRng::seed_from_u64(0x6A9);
        let (mut gap, mut vec) = (GapBuffer::<u32>::default(), Vec::<u32>::new());
        for step in 0..20_000 {
            let v = (rng.next_u64() % 500) as u32;
            match rng.next_u64() % 8 {
                0..=3 => {
                    let at = gap.gallop(|x| x <= v);
                    assert_eq!(at, vec.partition_point(|&x| x <= v), "step {step}");
                    gap.insert(at, v);
                    vec.insert(at, v);
                }
                4..=5 if !vec.is_empty() => {
                    let at = rng.next_u64() as usize % vec.len();
                    assert_eq!(gap.remove(at), vec.remove(at), "step {step}");
                }
                6 if step % 97 == 0 => {
                    let n = rng.next_u64() as usize % (vec.len() + 1);
                    gap.drop_first(n);
                    vec.drain(..n);
                }
                _ => {
                    let at = gap.gallop(|x| x < v);
                    assert_eq!(at, vec.partition_point(|&x| x < v), "step {step}");
                }
            }
            assert_eq!(gap.len(), vec.len());
            assert_eq!(gap.last(), vec.last().copied());
            if step % 50 == 0 {
                assert!(gap.iter().copied().eq(vec.iter().copied()), "step {step}");
                assert!((0..vec.len() + 1).all(|i| gap.nth(i) == vec.get(i).copied()));
            }
        }
    }
}
