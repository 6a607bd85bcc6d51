//! Property-style tests on the substrate invariants: datatype flattening
//! against naive oracles, timeline scheduling laws, and TCIO's segment map.
//! Cases are generated from fixed seeds (or enumerated exhaustively), so
//! every failure is reproducible from the seed in its assertion message.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

fn pick(rng: &mut StdRng, lo: u64, hi: u64) -> u64 {
    lo + rng.next_u64() % (hi - lo)
}

/// A subarray type's extents must equal a naive triple-loop walk of the
/// selected region, in both orderings.
#[test]
fn subarray_matches_naive_walk() {
    // Orderings only differ with two or more dimensions.
    let mut fortran_multi_dim = 0;
    for seed in 0..128u64 {
        let mut rng = StdRng::seed_from_u64(0x5ABA ^ seed);
        let ndims = pick(&mut rng, 1, 4) as usize;
        let sizes: Vec<usize> = (0..ndims).map(|_| pick(&mut rng, 1, 6) as usize).collect();
        let mut starts = Vec::new();
        let mut subsizes = Vec::new();
        for &n in &sizes {
            let start = pick(&mut rng, 0, 100) as usize % n;
            let sub = 1 + pick(&mut rng, 0, 100) as usize % (n - start);
            starts.push(start);
            subsizes.push(sub);
        }
        let fortran = rng.random::<bool>();
        fortran_multi_dim += (fortran && ndims > 1) as usize;
        let order = if fortran {
            mpisim::Order::Fortran
        } else {
            mpisim::Order::C
        };
        let t = mpisim::Datatype::subarray(
            sizes.clone(),
            subsizes.clone(),
            starts.clone(),
            order,
            mpisim::Datatype::named(mpisim::Named::Byte),
        )
        .unwrap();
        let c = t.commit();
        // Naive oracle: mark every selected element.
        let total: usize = sizes.iter().product();
        let mut want = vec![false; total];
        let n = sizes.len();
        let mut strides = vec![1usize; n];
        if fortran {
            for d in 1..n {
                strides[d] = strides[d - 1] * sizes[d - 1];
            }
        } else {
            for d in (0..n.saturating_sub(1)).rev() {
                strides[d] = strides[d + 1] * sizes[d + 1];
            }
        }
        let mut idx = vec![0usize; n];
        loop {
            let mut at = 0usize;
            for d in 0..n {
                at += (starts[d] + idx[d]) * strides[d];
            }
            want[at] = true;
            let mut done = true;
            for d in 0..n {
                idx[d] += 1;
                if idx[d] < subsizes[d] {
                    done = false;
                    break;
                }
                idx[d] = 0;
            }
            if done {
                break;
            }
        }
        let mut got = vec![false; total];
        for (off, len) in c.extents() {
            for i in 0..len {
                got[off as usize + i] = true;
            }
        }
        assert_eq!(got, want, "seed {seed}: sizes {sizes:?} starts {starts:?}");
        assert_eq!(c.size(), subsizes.iter().product::<usize>());
    }
    assert!(
        fortran_multi_dim >= 20,
        "only {fortran_multi_dim} multi-dimensional Fortran-order cases"
    );
}

/// Timeline laws: grants never precede `earliest`, never overlap, and
/// total busy time is conserved.
#[test]
fn timeline_grants_are_legal() {
    for seed in 0..128u64 {
        let mut rng = StdRng::seed_from_u64(0x71ED ^ seed);
        let nops = pick(&mut rng, 1, 80) as usize;
        let mut t = mpisim::timeline::Timeline::new();
        let mut grants: Vec<(f64, f64)> = Vec::new();
        let mut total = 0.0f64;
        for _ in 0..nops {
            let earliest = pick(&mut rng, 0, 1000) as f64 * 1e-4;
            let dur = pick(&mut rng, 1, 50) as f64 * 1e-4;
            let start = t.reserve(earliest, dur);
            assert!(
                start >= earliest - 1e-12,
                "seed {seed}: grant {start} before earliest {earliest}"
            );
            grants.push((start, start + dur));
            total += dur;
        }
        grants.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
        for w in grants.windows(2) {
            assert!(
                w[0].1 <= w[1].0 + 1e-9,
                "seed {seed}: grants overlap: {:?} vs {:?}",
                w[0],
                w[1]
            );
        }
        assert!((t.total_busy() - total).abs() < 1e-9, "seed {seed}");
    }
}

/// Order independence of a [`Timeline`](mpisim::timeline::Timeline), and
/// where it stops. One seeded multiset of `(earliest, dur)` is booked in
/// several orders (sorted by `earliest`, reversed, shuffled); times are
/// multiples of 2⁻¹⁰ s so that every sum below is exact.
///
/// * **Busy time is conserved in any order**, to the bit, whatever the mix
///   of durations.
/// * **Slot-aligned bookings are order-free.** When every request has the
///   same `dur` and is due on a multiple of it, each takes the first free
///   slot at or after its due slot, and the *set* of slots taken does not
///   depend on the order (swap two consecutive bookings `a`, `b` with
///   `a` due first: either `a`'s slot lies before `b` is due and the two do
///   not interact, or both compete for the same first free slot `g` and
///   the next one `g'`, and between them take exactly `{g, g'}` either
///   way). So the granted starts, as a multiset, and the last completion
///   are identical — not merely within one `dur`.
/// * **Last completion is order-free up to the span of the due times**,
///   whatever the durations. A booking that starts after the latest due
///   instant `D` starts at the end of another interval, so no gap ever
///   opens past `D`: in any order the last completion lies between
///   `min due + work` and `D + work`.
/// * **Within one `dur`** is what that becomes for equal durations whose
///   lost slivers are small. The `unaligned` family is the demand of
///   `order_insensitive_total_completion` in `mpisim::timeline`, seeded:
///   one `dur`, due on seven multiples of a `step` that `dur` does not
///   divide. A request that books ahead of earlier-due ones strands a
///   sliver of a few `step − dur` in front of its due instant; with six
///   later instants and `6 × (step − dur) ≤ dur` the orders end within one
///   `dur` of each other. With wider slivers they do not (a `step` half
///   way to `2 dur` ends several `dur` apart), which is the next point.
/// * **First-fit backfill is *not* order-free otherwise.** A request that
///   fits no gap — a long one among short ones, or any request facing
///   slivers shorter than itself — lands behind whatever was booked before
///   it: shorts due at 0, 3, 6, … leave gaps of 2, so a request of 3 due at
///   0 runs at once when it books first and after the last short when it
///   books last. Every such sliver is lost to it, so no bound in terms of
///   one `dur` holds across orders in general; the event core's
///   `(clock, rank)` schedule is what keeps a simulation's own booking
///   order, and with it the result, deterministic.
#[test]
fn timeline_order_independence_and_its_limit() {
    use mpisim::timeline::Timeline;
    const UNIT: f64 = 1.0 / 1024.0;
    /// Book `demand` in `order`; returns (sorted granted starts, busy
    /// time, last completion), all as bits.
    fn book(demand: &[(f64, f64)], order: &[usize]) -> (Vec<u64>, u64, u64) {
        let mut t = Timeline::new();
        let mut starts: Vec<u64> = order
            .iter()
            .map(|&i| t.reserve(demand[i].0, demand[i].1).to_bits())
            .collect();
        starts.sort_unstable();
        (starts, t.total_busy().to_bits(), t.horizon().to_bits())
    }
    for seed in 0..32u64 {
        let mut rng = StdRng::seed_from_u64(0x0DE2 ^ seed);
        let n = pick(&mut rng, 2, 200) as usize;
        // Each family is generated in `earliest` order, so the identity
        // permutation is "sorted" for all three.
        let by_due = |mut demand: Vec<(f64, f64)>| {
            demand.sort_by(|a, b| a.0.total_cmp(&b.0));
            demand
        };
        let units = pick(&mut rng, 6, 13);
        let dur = units as f64 * UNIT;
        let aligned = by_due(
            (0..n)
                .map(|_| (pick(&mut rng, 0, 150) as f64 * dur, dur))
                .collect(),
        );
        // `dur` is at least six units, so six slivers of `step - dur` fit
        // in one `dur`.
        let step = dur + UNIT;
        let unaligned = by_due(
            (0..n)
                .map(|_| (pick(&mut rng, 0, 7) as f64 * step, dur))
                .collect(),
        );
        let mixed = by_due(
            (0..n)
                .map(|_| {
                    let due = pick(&mut rng, 0, 1000) as f64 * UNIT;
                    (due, pick(&mut rng, 1, 40) as f64 * UNIT)
                })
                .collect(),
        );
        let sorted: Vec<usize> = (0..n).collect();
        let mut orders = vec![sorted.clone(), sorted.iter().rev().copied().collect()];
        for _ in 0..3 {
            let mut shuffled = sorted.clone();
            for i in (1..n).rev() {
                shuffled.swap(i, pick(&mut rng, 0, i as u64 + 1) as usize);
            }
            orders.push(shuffled);
        }
        let want_aligned = book(&aligned, &orders[0]);
        let want_unaligned = book(&unaligned, &orders[0]);
        let want_mixed = book(&mixed, &orders[0]);
        let work: f64 = mixed.iter().map(|&(_, d)| d).sum();
        assert_eq!(want_mixed.1, work.to_bits(), "seed {seed}");
        let due_span = mixed[n - 1].0 - mixed[0].0;
        for order in &orders[1..] {
            assert_eq!(
                book(&aligned, order),
                want_aligned,
                "seed {seed}: {order:?}"
            );
            let got = book(&unaligned, order);
            assert_eq!(got.1, want_unaligned.1, "seed {seed}: {order:?}");
            let apart = (f64::from_bits(got.2) - f64::from_bits(want_unaligned.2)).abs();
            assert!(apart <= dur, "seed {seed}: {apart} > {dur}: {order:?}");
            let got = book(&mixed, order);
            assert_eq!(got.1, want_mixed.1, "seed {seed}: {order:?}");
            let apart = (f64::from_bits(got.2) - f64::from_bits(want_mixed.2)).abs();
            assert!(apart <= due_span, "seed {seed}: {apart} > {due_span}");
        }
    }

    // The limit, pinned: the same multiset, long request first or last.
    let shorts = (0..10).map(|i| (3.0 * i as f64, 1.0));
    let demand: Vec<(f64, f64)> = shorts.chain([(0.0, 3.0)]).collect();
    let long_last: Vec<usize> = (0..demand.len()).collect();
    let long_first: Vec<usize> = long_last.iter().rev().copied().collect();
    let (last, first) = (book(&demand, &long_last), book(&demand, &long_first));
    assert_eq!(last.1, first.1, "busy time is conserved");
    assert_eq!(
        f64::from_bits(last.2),
        31.0,
        "behind the last short: 28 + 3"
    );
    assert_eq!(
        f64::from_bits(first.2),
        28.0,
        "shorts due under it slide into the gaps"
    );
}

/// TCIO segment mapping: locate() and file_offset() are mutually inverse,
/// and every offset's window start is owner-aligned.
#[test]
fn segment_map_inverse_roundtrip() {
    for seed in 0..256u64 {
        let mut rng = StdRng::seed_from_u64(0x5E63 ^ seed);
        let s = 1u64 << pick(&mut rng, 4, 16);
        let nprocs = pick(&mut rng, 1, 80) as usize;
        let offset = pick(&mut rng, 0, 1_000_000_000);
        let m = tcio::SegmentMap::new(s, nprocs);
        let loc = m.locate(offset);
        assert!(loc.owner < nprocs, "seed {seed}");
        assert!(loc.disp < s, "seed {seed}");
        let back = m.file_offset(loc.owner, loc.segment) + loc.disp;
        assert_eq!(back, offset, "seed {seed}");
        let w = m.window_start(offset);
        assert_eq!(w % s, 0, "seed {seed}");
        assert_eq!(m.locate(w).owner, loc.owner, "seed {seed}");
        assert_eq!(m.locate(w).segment, loc.segment, "seed {seed}");
    }
}
