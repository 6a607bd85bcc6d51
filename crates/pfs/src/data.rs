//! The data path: the entry every costed request passes, writes and
//! read-modify-writes that land bytes and seal their stripes, reads that
//! verify and copy them out, and the outage check that refuses a request
//! before any of that.

use super::{span_end, stripe_checksum, Breaker, File, FileId, Pfs, PfsError, Result, State};
use parking_lot::MutexGuard;
use std::sync::atomic::Ordering;

/// Deterministic per-(file, stripe, instant) site for the corruption
/// coin-flip: virtual time is deterministic, so the same run corrupts the
/// same stripes at the same writes every time.
fn corruption_site(file: u32, stripe: u64, now: f64) -> u64 {
    (file as u64)
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(stripe.rotate_left(17))
        ^ now.to_bits()
}

/// Salt distinguishing the replica copy's corruption coin-flip from the
/// primary's: the two copies fail independently.
const REPLICA_SALT: u64 = 0x5DEE_CE66_D1CE_5EED;
/// Salt for choosing *which* byte of a corrupted stripe flips.
const FLIP_SALT: u64 = 0x0B10_CF11_D0DD_BA11;

impl Pfs {
    /// The entry of every costed request. An empty one costs nothing
    /// (`None`). Otherwise, in order: the lock, the file and client checks,
    /// the span's `bound` (a write's must fit a file), and the outage
    /// check. A request refused here leaves the file exactly as it was, so
    /// the caller can retry it wholesale, and counts no RPC.
    ///
    /// The outage check: if any OST under `[offset, offset+len)` is in an
    /// injected outage at `now`, fail with [`PfsError::Transient`] carrying
    /// the lift time. It is health-aware: relocated extents are checked at
    /// their *holder* OST, each outage hit feeds the breaker's error-burst
    /// detector, and a `write` whose target breaker is already `Open`
    /// passes — the cost model will route it around the quarantined OST,
    /// which is the whole point of degraded-mode striping (reads must still
    /// fail: their bytes' cost locality is on the sick OST).
    #[allow(clippy::too_many_arguments)]
    fn enter<B>(
        &self,
        id: FileId,
        client: usize,
        offset: u64,
        len: u64,
        now: f64,
        write: bool,
        bound: Result<B>,
    ) -> Result<Option<(MutexGuard<'_, State>, B)>> {
        if len == 0 {
            return Ok(None);
        }
        let mut guard = self.state.lock();
        let st = &mut *guard;
        st.file(id)?;
        st.enter_simulation();
        st.clients
            .get(client)
            .ok_or_else(|| PfsError::Config(format!("no client {client}")))?;
        let bound = bound?;
        if let Some(engine) = st.chaos.as_deref() {
            let ost_base = st.files[id.0 as usize].ost_base;
            for (pos, _) in self.rpc_pieces(offset, len) {
                let stripe = pos / self.cfg.stripe_size;
                let home = self.ost_for(ost_base, stripe);
                let ost = match &st.health {
                    Some(h) => h.route_read(id.0, stripe, home),
                    None => home,
                };
                if let Some(until) = engine.ost_outage_until(ost, now) {
                    if let Some(h) = &mut st.health {
                        h.observe_error(ost, now);
                        if write && matches!(h.breaker(ost, now), Breaker::Open { .. }) {
                            continue;
                        }
                    }
                    self.stats.transient_errors.fetch_add(1, Ordering::Relaxed);
                    return Err(PfsError::Transient {
                        ost,
                        retry_after: until,
                    });
                }
            }
        }
        Ok(Some((guard, bound)))
    }

    /// Write `data` at `offset` on behalf of `client`, starting at virtual
    /// time `now`. Returns the completion time.
    pub fn write_at(
        &self,
        id: FileId,
        client: usize,
        offset: u64,
        data: &[u8],
        now: f64,
    ) -> Result<f64> {
        let len = data.len() as u64;
        let bound = span_end(offset, len).ok_or(PfsError::OffsetOverflow { offset, len });
        let Some((mut guard, end)) = self.enter(id, client, offset, len, now, true, bound)? else {
            return Ok(now);
        };
        let st = &mut *guard;
        // Apply the bytes (correctness path), then seal the touched
        // stripes' checksums.
        let f = &mut st.files[id.0 as usize];
        if f.bytes.len() < end {
            f.bytes.resize(end, 0);
        }
        f.bytes[offset as usize..end].copy_from_slice(data);
        self.seal_stripes(st, id, offset, len, now);
        Ok(self.write_cost(st, id, client, offset, len, now))
    }

    /// Atomic read-modify-write of `[offset, offset+len)`: the span is
    /// presented to `patch` under the file system's lock, so no other
    /// writer can interleave between the read and the write-back (and
    /// `patch` must not call back into this file system). This is the
    /// primitive behind write-mode *data sieving*, which on a real system
    /// holds a file lock across the RMW for exactly this reason. Costs one
    /// read pass plus one write pass over the span.
    pub fn write_rmw(
        &self,
        id: FileId,
        client: usize,
        offset: u64,
        len: u64,
        patch: &mut dyn FnMut(&mut [u8]),
        now: f64,
    ) -> Result<f64> {
        let bound = span_end(offset, len).ok_or(PfsError::OffsetOverflow { offset, len });
        let Some((mut guard, end)) = self.enter(id, client, offset, len, now, true, bound)? else {
            return Ok(now);
        };
        let st = &mut *guard;
        let c = &mut st.files[id.0 as usize];
        let readable = (c.bytes.len() as u64).saturating_sub(offset).min(len);
        if c.bytes.len() < end {
            c.bytes.resize(end, 0);
        }
        // The read half of the RMW must not fold corrupt bytes back
        // into the file — and re-sealing after the patch would bless
        // them. Verify before patching.
        self.verify_stripes(c, offset, len)?;
        patch(&mut c.bytes[offset as usize..end]);
        self.seal_stripes(st, id, offset, len, now);
        let t = self.read_cost(st, id, client, offset, readable, now, false);
        Ok(self.write_cost(st, id, client, offset, len, t))
    }

    /// Record checksums (and, if configured, replicas) for every stripe a
    /// write of `[offset, offset+len)` touched, then roll the fault plan's
    /// silent-corruption dice per touched stripe and copy. Checksums are
    /// computed over the *true* content first, so a flipped byte in either
    /// copy is detectable afterwards. Costs no virtual time (checksumming
    /// rides along the existing per-RPC overheads).
    fn seal_stripes(&self, st: &mut State, id: FileId, offset: u64, len: u64, now: f64) {
        debug_assert!(len > 0);
        // Sealing (and hence verification) hashes every touched stripe, so
        // only pay for it when the attached plan can actually corrupt.
        // Without recorded sums, `verify_stripes` and `scrub` are no-ops
        // over empty maps.
        let Some(e) = st.chaos.as_deref().filter(|e| e.any_corruption()) else {
            return;
        };
        // One copy's coin-flip at `site`: a hit flips one byte of it.
        let flip = |copy: &mut [u8], site: u64| {
            if e.corrupts(site, now) {
                self.stats
                    .silent_corruptions
                    .fetch_add(1, Ordering::Relaxed);
                let pos = (e.unit_hash(site ^ FLIP_SALT) * copy.len() as f64) as usize;
                copy[pos.min(copy.len() - 1)] ^= 0xA5;
            }
        };
        let c = &mut st.files[id.0 as usize];
        let s = self.cfg.stripe_size;
        let want_replicas = self.cfg.stripe_replicas;
        for stripe in (offset / s)..=((offset + len - 1) / s) {
            if c.stripe_span(stripe, s).is_empty() {
                continue;
            }
            let span = c.seal_stripe(stripe, s, want_replicas);
            let site = corruption_site(id.0, stripe, now);
            flip(&mut c.bytes[span], site);
            if want_replicas {
                // `seal_stripe` stored it just above.
                let rep = c.replicas.get_mut(&stripe).expect("replica just stored");
                flip(rep, site ^ REPLICA_SALT);
            }
        }
    }

    /// Verify every touched stripe that has a recorded checksum; the first
    /// mismatch fails typed before any byte reaches the caller. Stripes
    /// never sealed (no recorded sum) pass — there is nothing to verify
    /// them against.
    pub(super) fn verify_stripes(&self, c: &File, offset: u64, len: u64) -> Result<()> {
        if len == 0 {
            return Ok(());
        }
        let s = self.cfg.stripe_size;
        for stripe in (offset / s)..=((offset + len - 1) / s) {
            let Some(&sum) = c.sums.get(&stripe) else {
                continue;
            };
            if stripe_checksum(&c.bytes[c.stripe_span(stripe, s)]) != sum {
                self.stats.checksum_failures.fetch_add(1, Ordering::Relaxed);
                return Err(PfsError::ChecksumMismatch {
                    stripe,
                    ost: self.ost_for(c.ost_base, stripe),
                });
            }
        }
        Ok(())
    }

    /// The data half of every read: bounds-check `[offset, offset +
    /// buf.len())` against the file, verify the touched stripes, copy out.
    fn copy_out(&self, c: &File, offset: u64, buf: &mut [u8]) -> Result<()> {
        let len = buf.len() as u64;
        let end = span_end(offset, len)
            .filter(|&end| end <= c.bytes.len())
            .ok_or(PfsError::ReadPastEof {
                offset,
                len,
                file_len: c.bytes.len() as u64,
            })?;
        self.verify_stripes(c, offset, len)?;
        buf.copy_from_slice(&c.bytes[offset as usize..end]);
        Ok(())
    }

    /// Read into `buf` from `offset` on behalf of `client`, starting at
    /// virtual time `now`. Returns the completion time. Reading past EOF is
    /// an error; holes within the file read as zeros.
    pub fn read_at(
        &self,
        id: FileId,
        client: usize,
        offset: u64,
        buf: &mut [u8],
        now: f64,
    ) -> Result<f64> {
        self.read(id, client, offset, buf, now, false)
    }

    /// Like [`Pfs::read_at`], but with adaptive hedging enabled when a
    /// health layer is attached (see [`Pfs::enable_health`]). Without a
    /// health layer this is bit-identical to `read_at`, so the collective
    /// window reads, TCIO's segment loads and the facility's read-back
    /// always come through here.
    pub fn read_at_hedged(
        &self,
        id: FileId,
        client: usize,
        offset: u64,
        buf: &mut [u8],
        now: f64,
    ) -> Result<f64> {
        self.read(id, client, offset, buf, now, true)
    }

    fn read(
        &self,
        id: FileId,
        client: usize,
        offset: u64,
        buf: &mut [u8],
        now: f64,
        hedge: bool,
    ) -> Result<f64> {
        let len = buf.len() as u64;
        let Some((mut st, ())) = self.enter(id, client, offset, len, now, false, Ok(()))? else {
            return Ok(now);
        };
        self.copy_out(&st.files[id.0 as usize], offset, buf)?;
        Ok(self.read_cost(&mut st, id, client, offset, len, now, hedge))
    }

    /// Copy `[offset, offset+len)` into `buf` with **no virtual-time
    /// cost** and no RPC accounting: the data path for reads whose cost is
    /// modeled elsewhere (a burst-buffer hit serves staged bytes at the
    /// buffer's speed, but the authoritative content lives here). Same EOF
    /// and integrity checks as [`Pfs::read_at`].
    pub fn read_bytes(&self, id: FileId, offset: u64, buf: &mut [u8]) -> Result<()> {
        if buf.is_empty() {
            return Ok(());
        }
        self.copy_out(self.state.lock().file(id)?, offset, buf)
    }

    /// Convenience for verification in tests and examples: a full copy of
    /// the file's bytes (no cost).
    pub fn snapshot_file(&self, id: FileId) -> Result<Vec<u8>> {
        Ok(self.state.lock().file(id)?.bytes.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PfsConfig;
    use std::sync::Arc;

    fn fs(nclients: usize) -> Arc<Pfs> {
        Pfs::new(nclients, PfsConfig::default()).unwrap()
    }

    #[test]
    fn write_read_roundtrip() {
        let p = fs(1);
        let id = p.create("/f").unwrap();
        let data: Vec<u8> = (0..255).collect();
        let t = p.write_at(id, 0, 10, &data, 0.0).unwrap();
        assert!(t > 0.0);
        assert_eq!(p.len(id).unwrap(), 265);
        let mut buf = vec![0u8; 255];
        let t2 = p.read_at(id, 0, 10, &mut buf, t).unwrap();
        assert!(t2 > t);
        assert_eq!(buf, data);
    }

    #[test]
    fn holes_read_as_zero() {
        let p = fs(1);
        let id = p.create("/f").unwrap();
        p.write_at(id, 0, 100, &[7], 0.0).unwrap();
        let mut buf = vec![9u8; 50];
        p.read_at(id, 0, 0, &mut buf, 0.0).unwrap();
        assert!(buf.iter().all(|&b| b == 0));
    }

    #[test]
    fn read_past_eof_is_error() {
        let p = fs(1);
        let id = p.create("/f").unwrap();
        p.write_at(id, 0, 0, &[1, 2, 3], 0.0).unwrap();
        let mut buf = vec![0u8; 4];
        assert!(matches!(
            p.read_at(id, 0, 0, &mut buf, 0.0),
            Err(PfsError::ReadPastEof { .. })
        ));
    }

    #[test]
    fn far_offsets_are_typed_errors_on_every_entry_point() {
        // `offset + len` wraps u64 in the first two rows and is merely
        // larger than any buffer in the third.
        for (offset, len) in [(u64::MAX - 3, 8usize), (u64::MAX, 1), (1 << 63, 8)] {
            let p = fs(1);
            let id = p.create("/f").unwrap();
            p.write_at(id, 0, 0, &[7u8; 16], 0.0).unwrap();
            let mut buf = vec![0u8; len];
            let reads = [
                p.read_at(id, 0, offset, &mut buf, 0.0).err(),
                p.read_at_hedged(id, 0, offset, &mut buf, 0.0).err(),
                p.read_bytes(id, offset, &mut buf).err(),
            ];
            for e in reads {
                let want = PfsError::ReadPastEof {
                    offset,
                    len: len as u64,
                    file_len: 16,
                };
                assert_eq!(e, Some(want), "read at {offset}+{len}");
                assert!(e.unwrap().to_string().contains("past end of file"));
            }
            let writes = [
                p.write_at(id, 0, offset, &buf, 0.0).err(),
                p.write_rmw(id, 0, offset, len as u64, &mut |b| b.fill(1), 0.0)
                    .err(),
            ];
            for e in writes {
                let want = PfsError::OffsetOverflow {
                    offset,
                    len: len as u64,
                };
                assert_eq!(e, Some(want), "write at {offset}+{len}");
            }
            // A length no file can have: the end of these spans.
            let want = PfsError::OffsetOverflow {
                offset: 0,
                len: offset,
            };
            assert_eq!(p.truncate(id, offset).err(), Some(want), "truncate");
            assert_eq!(
                p.snapshot_file(id).unwrap(),
                vec![7u8; 16],
                "file untouched"
            );
            assert_eq!(
                p.stats.snapshot().write_rpcs,
                1,
                "no refused request is costed"
            );
        }
    }

    #[test]
    fn a_client_the_file_system_does_not_serve_is_refused_before_its_bytes() {
        let p = fs(1);
        let id = p.create("/f").unwrap();
        p.write_at(id, 0, 0, &[7u8; 16], 0.0).unwrap();
        let before = p.stats.snapshot();
        let mut buf = [0u8; 8];
        let refused = [
            ("write_at", p.write_at(id, 1, 0, &[1u8; 8], 0.0)),
            ("read_at", p.read_at(id, 1, 0, &mut buf, 0.0)),
            ("read_at_hedged", p.read_at_hedged(id, 1, 0, &mut buf, 0.0)),
            (
                "write_rmw",
                p.write_rmw(id, 1, 0, 8, &mut |b| b.fill(1), 0.0),
            ),
        ];
        for (entry, r) in refused {
            assert_eq!(r, Err(PfsError::Config("no client 1".into())), "{entry}");
        }
        assert_eq!(
            p.snapshot_file(id).unwrap(),
            vec![7u8; 16],
            "file untouched"
        );
        assert_eq!(p.stats.snapshot(), before, "no RPC counted");
        assert_eq!(buf, [0u8; 8], "no byte read");
    }

    #[test]
    fn empty_ops_are_free() {
        let p = fs(1);
        let id = p.create("/f").unwrap();
        assert_eq!(p.write_at(id, 0, 0, &[], 5.0).unwrap(), 5.0);
        let mut empty: [u8; 0] = [];
        assert_eq!(p.read_at(id, 0, 0, &mut empty, 5.0).unwrap(), 5.0);
    }

    #[test]
    fn read_bytes_serves_data_with_integrity_but_no_cost() {
        let p = fs(1);
        let id = p.create("/f").unwrap();
        p.write_at(id, 0, 0, b"staged data", 0.0).unwrap();
        let rpcs_before = p.stats.snapshot().read_rpcs;
        let mut buf = vec![0u8; 6];
        p.read_bytes(id, 0, &mut buf).unwrap();
        assert_eq!(&buf, b"staged");
        assert_eq!(p.stats.snapshot().read_rpcs, rpcs_before);
        let mut long = vec![0u8; 64];
        assert!(matches!(
            p.read_bytes(id, 0, &mut long),
            Err(PfsError::ReadPastEof { .. })
        ));
    }

    #[test]
    fn hedged_read_without_a_health_layer_is_read_at() {
        // Twin file systems under a flaky OST, one read plainly and one
        // through the hedged entry point, agree on every completion bit,
        // every byte and every counter: without a health layer hedging
        // is off, so callers need no flag of their own.
        let twin = || {
            let cfg = PfsConfig {
                num_osts: 4,
                stripe_count: 4,
                stripe_size: 64,
                ..Default::default()
            };
            let p = Pfs::new(3, cfg).unwrap();
            let flaky = chaos::Effect::FlakyOst {
                ost: 1,
                factor: 20.0,
                period: 0.005,
                duty: 0.8,
            };
            let plan = chaos::FaultPlan::new(23).with(flaky.during(0.0, 3.0));
            p.attach_chaos(plan.build().unwrap()).unwrap();
            let id = p.create("/f").unwrap();
            let data: Vec<u8> = (0..1024u32).map(|i| (i * 7) as u8).collect();
            p.write_at(id, 0, 0, &data, 0.0).unwrap();
            (p, id)
        };
        let ((plain, a), (hedged, b)) = (twin(), twin());
        let mut t = 0.0;
        for i in 0..64u64 {
            let (client, off, len) = ((i % 3) as usize, (i * 37) % 900, 1 + (i * 13) % 120);
            let (mut x, mut y) = (vec![0u8; len as usize], vec![0u8; len as usize]);
            hedged.hedge_scope_begin(client);
            let done = plain.read_at(a, client, off, &mut x, t).unwrap();
            let hedged_done = hedged.read_at_hedged(b, client, off, &mut y, t).unwrap();
            assert_eq!(done.to_bits(), hedged_done.to_bits(), "read {i}");
            assert_eq!(x, y, "read {i}");
            t = done.min(t + 1e-4);
        }
        assert_eq!(plain.stats.snapshot(), hedged.stats.snapshot());
    }

    #[test]
    fn chaos_outage_is_transient_and_leaves_bytes_untouched() {
        let cfg = PfsConfig {
            num_osts: 2,
            stripe_count: 2,
            stripe_size: 1 << 20,
            ..Default::default()
        };
        let p = Pfs::new(1, cfg).unwrap();
        let id = p.create("/f").unwrap();
        p.write_at(id, 0, 0, &[9u8; 64], 0.0).unwrap();
        let engine = chaos::FaultPlan::new(1)
            .with(chaos::Effect::OstOutage { ost: 0 }.during(0.0, 2.0))
            .build()
            .unwrap();
        p.attach_chaos(engine).unwrap();
        // Stripe 0 lives on OST 0: refused during the outage window.
        let err = p.write_at(id, 0, 0, &[1u8; 64], 1.0).unwrap_err();
        assert_eq!(
            err,
            PfsError::Transient {
                ost: 0,
                retry_after: 2.0
            }
        );
        assert_eq!(
            p.snapshot_file(id).unwrap(),
            vec![9u8; 64],
            "refused write must not mutate the file"
        );
        let mut buf = [0u8; 4];
        assert!(p.read_at(id, 0, 0, &mut buf, 1.5).is_err());
        // The window obeys retry_after: the same access succeeds at t=2.
        p.write_at(id, 0, 0, &[1u8; 64], 2.0).unwrap();
        // Stripe 1 (OST 1) is unaffected throughout.
        p.write_at(id, 0, 1 << 20, &[2u8; 8], 1.0).unwrap();
        assert_eq!(p.stats.snapshot().transient_errors, 2);
    }

    fn corruption_engine(rate: f64, until: f64) -> Arc<chaos::ChaosEngine> {
        chaos::FaultPlan::new(41)
            .with(chaos::Effect::SilentCorruption { rate }.during(0.0, until))
            .build()
            .unwrap()
    }

    #[test]
    fn corrupted_stripe_reads_fail_typed_and_never_return_wrong_bytes() {
        let cfg = PfsConfig {
            stripe_size: 256,
            stripe_count: 2,
            num_osts: 2,
            ..Default::default()
        };
        let p = Pfs::new(1, cfg).unwrap();
        let id = p.create("/f").unwrap();
        p.attach_chaos(corruption_engine(1.0, 0.5)).unwrap();
        // rate=1 inside the window: every written stripe is corrupted.
        let data = vec![7u8; 1024]; // 4 stripes
        p.write_at(id, 0, 0, &data, 0.0).unwrap();
        let snap = p.stats.snapshot();
        assert_eq!(snap.silent_corruptions, 4);
        let mut buf = vec![0u8; 1024];
        let err = p.read_at(id, 0, 0, &mut buf, 1.0).unwrap_err();
        assert!(matches!(err, PfsError::ChecksumMismatch { .. }));
        assert!(
            buf.iter().all(|&b| b == 0),
            "no corrupt byte may reach the caller"
        );
        assert!(p.stats.snapshot().checksum_failures >= 1);
        // Scrub detects every injected corruption; without replicas it
        // cannot repair any of them.
        let rep = p.scrub();
        assert_eq!(rep.stripes_scanned, 4);
        assert_eq!(rep.mismatches, 4, "scrub must detect 100% of corruptions");
        assert_eq!(rep.repaired, 0);
    }

    #[test]
    fn intensity_zero_has_no_false_positives() {
        let p = fs(1);
        let id = p.create("/f").unwrap();
        let plan = chaos::FaultPlan::new(41)
            .with(chaos::Effect::SilentCorruption { rate: 0.8 }.during(0.0, 1e9));
        p.attach_chaos(plan.scaled(0.0).build().unwrap()).unwrap();
        let data = vec![9u8; 3 << 20];
        let t = p.write_at(id, 0, 0, &data, 0.0).unwrap();
        let mut buf = vec![0u8; 3 << 20];
        p.read_at(id, 0, 0, &mut buf, t).unwrap();
        assert_eq!(buf, data);
        let rep = p.scrub();
        assert_eq!(rep.mismatches, 0, "clean stripes must never be flagged");
        let snap = p.stats.snapshot();
        assert_eq!(snap.silent_corruptions, 0);
        assert_eq!(snap.checksum_failures, 0);
    }

    #[test]
    fn checksums_survive_growth_holes_and_truncate() {
        let cfg = PfsConfig {
            stripe_size: 100,
            stripe_count: 2,
            num_osts: 2,
            ..Default::default()
        };
        let p = Pfs::new(1, cfg).unwrap();
        let id = p.create("/f").unwrap();
        // A corruption window far in the future arms the integrity
        // bookkeeping (sums are only recorded under plans that can
        // corrupt) without ever flipping a byte in this test.
        let armed = chaos::FaultPlan::new(41)
            .with(chaos::Effect::SilentCorruption { rate: 1.0 }.during(1e8, 1e9))
            .build()
            .unwrap();
        p.attach_chaos(armed).unwrap();
        p.write_at(id, 0, 10, &[5u8; 20], 0.0).unwrap();
        // Growth through a later write zero-fills stripe 0's tail: its
        // stored sum must still verify.
        p.write_at(id, 0, 350, &[6u8; 10], 0.0).unwrap();
        let mut buf = vec![0u8; 360];
        p.read_at(id, 0, 0, &mut buf, 1.0).unwrap();
        assert_eq!(&buf[10..30], &[5u8; 20]);
        // Shrink into stripe 3, then into stripe 0's written run.
        p.truncate(id, 355).unwrap();
        p.truncate(id, 15).unwrap();
        let mut buf = vec![0u8; 15];
        p.read_at(id, 0, 0, &mut buf, 1.0).unwrap();
        assert_eq!(&buf[10..], &[5u8; 5]);
        assert_eq!(p.scrub().mismatches, 0);
    }

    #[test]
    fn rmw_refuses_to_patch_a_corrupt_stripe() {
        let cfg = PfsConfig {
            stripe_size: 64,
            stripe_count: 1,
            num_osts: 1,
            ..Default::default()
        };
        let p = Pfs::new(1, cfg).unwrap();
        let id = p.create("/f").unwrap();
        p.attach_chaos(corruption_engine(1.0, 0.5)).unwrap();
        p.write_at(id, 0, 0, &[3u8; 64], 0.0).unwrap();
        // Past the corruption window: the RMW's read half must detect the
        // stale corruption instead of blessing it with a fresh seal.
        let err = p
            .write_rmw(id, 0, 8, 4, &mut |span| span.fill(1), 1.0)
            .unwrap_err();
        assert!(matches!(err, PfsError::ChecksumMismatch { .. }));
    }
}
