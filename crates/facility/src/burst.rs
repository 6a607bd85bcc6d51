//! Burst-buffer gateway tier: absorb fast, drain behind the scenes.
//!
//! Write-heavy tenants (checkpoint storms) are acknowledged at the burst
//! buffer's absorb bandwidth and continue computing while a drain agent
//! pushes the staged bytes to the PFS through the normal cost model —
//! the drain traffic still pays request overheads, occupies OST
//! timelines, and is tagged with the owning tenant for QoS accounting
//! (each buffer gets a dedicated PFS client id mapped to its tenant).
//!
//! The model keeps the facility honest in three ways:
//!
//! * **Capacity backpressure**: staged bytes occupy the buffer until
//!   their drain completes (in virtual time). A write that does not fit
//!   waits for enough in-flight drains to finish — a full buffer
//!   degrades toward PFS speed instead of absorbing for free.
//! * **Real drains**: the authoritative bytes land in the [`pfs::Pfs`]
//!   through `write_at` with all its costs; nothing is "teleported".
//! * **Read-your-writes**: reads fully covered by staged extents are
//!   served at buffer speed (the bytes come from the PFS store, which
//!   the drain has already made current, via the costless
//!   [`pfs::Pfs::read_bytes`] path); anything else takes the full PFS
//!   read path.

use mpiio::ExtentSet;
use mpisim::timeline::Timeline;
use parking_lot::Mutex;
use pfs::{FileId, Pfs};
use std::collections::HashMap;

/// Ingest bandwidth in bytes/s (the fast tier: NVMe-class).
const ABSORB_BW: f64 = 2.0e9;
/// Fixed per-operation overhead at the buffer.
const OP_OVERHEAD: f64 = 5.0e-6;

/// Burst-buffer sizing.
#[derive(Debug, Clone, Copy)]
pub struct BurstConfig {
    /// Staging capacity in bytes.
    pub capacity: u64, // setting: tests shrink it to force backpressure and bypass
}

impl Default for BurstConfig {
    fn default() -> Self {
        BurstConfig {
            capacity: 256 << 20,
        }
    }
}

impl BurstConfig {
    pub fn validate(&self) -> Result<(), String> {
        if self.capacity == 0 {
            return Err("zero burst-buffer capacity".into());
        }
        Ok(())
    }
}

/// Accumulated burst-buffer accounting (virtual time).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct BurstStats {
    /// Writes absorbed by the buffer.
    pub staged_writes: u64,
    pub staged_bytes: u64,
    /// Writes too large for the buffer, passed straight to the PFS.
    pub bypasses: u64,
    /// Reads fully served from staged extents.
    pub read_hits: u64,
    pub read_misses: u64,
    pub bytes_hit: u64,
    /// Writes that had to wait for in-flight drains to free capacity.
    pub capacity_waits: u64,
    pub capacity_wait_secs: f64,
    /// High-water mark of staged-and-undrained bytes.
    pub peak_occupancy: u64,
}

/// Everything a buffer keeps, behind its one lock.
#[derive(Debug, Default)]
struct BbState {
    /// The fast tier's ingest port: absorbs and read hits queue on it.
    absorb: Timeline,
    /// In-flight drains: `(drain completion, bytes)`; bytes occupy the
    /// buffer until then.
    inflight: Vec<(f64, u64)>,
    occupancy: u64,
    /// Staged extents per file, coalesced as they are staged; a read they
    /// contain is served at buffer speed.
    staged: HashMap<FileId, ExtentSet>,
    stats: BurstStats,
}

/// One tenant's burst buffer in front of a shared [`Pfs`].
#[derive(Debug)]
pub struct BurstBuffer {
    cfg: BurstConfig,
    /// PFS client id the drain traffic bills to (map it to the owning
    /// tenant in the QoS client map).
    drain_client: usize,
    state: Mutex<BbState>,
}

impl BurstBuffer {
    pub fn new(cfg: BurstConfig, drain_client: usize) -> Result<BurstBuffer, String> {
        cfg.validate()?;
        Ok(BurstBuffer {
            cfg,
            drain_client,
            state: Mutex::new(BbState::default()),
        })
    }

    pub fn config(&self) -> &BurstConfig {
        &self.cfg
    }

    pub fn drain_client(&self) -> usize {
        self.drain_client
    }

    /// Write through the buffer: absorb at buffer speed, return the
    /// *acknowledge* time (the writer continues then), and drain the
    /// bytes to the PFS as the drain agent. Writes larger than the whole
    /// buffer bypass it.
    pub fn write_through(
        &self,
        fs: &Pfs,
        id: FileId,
        client: usize,
        offset: u64,
        data: &[u8],
        now: f64,
    ) -> pfs::Result<f64> {
        let len = data.len() as u64;
        if len == 0 {
            return Ok(now);
        }
        let mut st = self.state.lock();
        if len > self.cfg.capacity {
            st.stats.bypasses += 1;
            return fs.write_at(id, client, offset, data, now);
        }
        // Capacity backpressure: wait (in virtual time) until in-flight
        // drains have freed enough room.
        let mut t0 = now + OP_OVERHEAD;
        st.release_until(t0);
        if st.occupancy + len > self.cfg.capacity {
            st.inflight.sort_by(|a, b| a.0.total_cmp(&b.0));
            while st.occupancy + len > self.cfg.capacity {
                let (done, freed) = st.inflight.remove(0);
                st.occupancy -= freed;
                t0 = t0.max(done);
            }
            st.stats.capacity_waits += 1;
            st.stats.capacity_wait_secs += t0 - (now + OP_OVERHEAD);
        }
        // Absorb at buffer speed; the writer is released at `ack`.
        let dur = len as f64 / ABSORB_BW;
        let ack = st.absorb.reserve(t0, dur) + dur;
        // Drain to the PFS as the drain agent, paying full storage cost.
        let drain_done = fs.write_at(id, self.drain_client, offset, data, ack)?;
        st.occupancy += len;
        st.inflight.push((drain_done, len));
        st.staged.entry(id).or_default().insert(offset, len);
        st.stats.staged_writes += 1;
        st.stats.staged_bytes += len;
        st.stats.peak_occupancy = st.stats.peak_occupancy.max(st.occupancy);
        Ok(ack)
    }

    /// Read `[offset, offset+buf.len())`: served at buffer speed when the
    /// span is fully covered by staged extents, else the full PFS path.
    pub fn read(
        &self,
        fs: &Pfs,
        id: FileId,
        client: usize,
        offset: u64,
        buf: &mut [u8],
        now: f64,
    ) -> pfs::Result<f64> {
        let len = buf.len() as u64;
        if len == 0 {
            return Ok(now);
        }
        let mut st = self.state.lock();
        let hit = st.staged.get(&id).is_some_and(|s| s.contains(offset, len));
        if !hit {
            st.stats.read_misses += 1;
            return fs.read_at(id, client, offset, buf, now);
        }
        st.stats.read_hits += 1;
        st.stats.bytes_hit += len;
        fs.read_bytes(id, offset, buf)?;
        let dur = len as f64 / ABSORB_BW;
        Ok(st.absorb.reserve(now + OP_OVERHEAD, dur) + dur)
    }

    pub fn stats(&self) -> BurstStats {
        self.state.lock().stats
    }
}

impl BbState {
    fn release_until(&mut self, t: f64) {
        let mut freed = 0u64;
        self.inflight.retain(|&(done, bytes)| {
            if done <= t {
                freed += bytes;
                false
            } else {
                true
            }
        });
        self.occupancy -= freed;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pfs::PfsConfig;
    use std::sync::Arc;

    fn fs() -> Arc<Pfs> {
        let cfg = PfsConfig {
            num_osts: 2,
            stripe_count: 2,
            ..Default::default()
        };
        Pfs::new(4, cfg).unwrap()
    }

    #[test]
    fn staging_acks_faster_than_the_direct_path() {
        let p = fs();
        let id = p.create("/ckpt").unwrap();
        let bb = BurstBuffer::new(BurstConfig::default(), 3).unwrap();
        let data = vec![7u8; 4 << 20];
        let ack = bb.write_through(&p, id, 0, 0, &data, 0.0).unwrap();
        let direct = p.write_at(id, 1, 8 << 20, &data, 0.0).unwrap();
        assert!(
            ack < direct / 2.0,
            "absorb ack {ack} should beat direct write {direct}"
        );
        // The drain put real bytes in the file.
        assert_eq!(&p.snapshot_file(id).unwrap()[..data.len()], &data[..]);
        assert_eq!(bb.stats().staged_writes, 1);
    }

    #[test]
    fn capacity_backpressure_waits_for_drains() {
        let p = fs();
        let id = p.create("/f").unwrap();
        let cfg = BurstConfig { capacity: 1 << 20 };
        let bb = BurstBuffer::new(cfg, 3).unwrap();
        let chunk = vec![1u8; 1 << 20];
        let a1 = bb.write_through(&p, id, 0, 0, &chunk, 0.0).unwrap();
        // The second megabyte cannot stage until the first drain frees
        // the buffer — its ack is dominated by PFS drain speed.
        let a2 = bb.write_through(&p, id, 0, 1 << 20, &chunk, a1).unwrap();
        let st = bb.stats();
        assert_eq!(st.capacity_waits, 1);
        assert!(st.capacity_wait_secs > 0.0);
        assert!(a2 > a1 + 2.0e-3, "backpressured ack {a2} vs first {a1}");
        assert!(st.peak_occupancy <= 1 << 20);
    }

    #[test]
    fn oversize_writes_bypass_the_buffer() {
        let p = fs();
        let id = p.create("/f").unwrap();
        let cfg = BurstConfig { capacity: 1024 };
        let bb = BurstBuffer::new(cfg, 3).unwrap();
        let big = vec![2u8; 4096];
        let t = bb.write_through(&p, id, 0, 0, &big, 0.0).unwrap();
        let st = bb.stats();
        assert_eq!(st.bypasses, 1);
        assert_eq!(st.staged_writes, 0);
        assert!(t > 0.0);
    }

    #[test]
    fn reads_hit_staged_extents_and_miss_elsewhere() {
        let p = fs();
        let id = p.create("/f").unwrap();
        let bb = BurstBuffer::new(BurstConfig::default(), 3).unwrap();
        bb.write_through(&p, id, 0, 0, &[5u8; 8192], 0.0).unwrap();
        p.write_at(id, 1, 8192, &[6u8; 8192], 0.0).unwrap();
        let mut buf = vec![0u8; 4096];
        let hit = bb.read(&p, id, 0, 2048, &mut buf, 1.0).unwrap();
        assert!(buf.iter().all(|&b| b == 5));
        // A staged hit is far faster than the PFS read path.
        let miss = bb.read(&p, id, 0, 8192, &mut buf, 1.0).unwrap();
        assert!(buf.iter().all(|&b| b == 6));
        assert!(hit - 1.0 < (miss - 1.0) / 2.0, "hit {hit} vs miss {miss}");
        let st = bb.stats();
        assert_eq!((st.read_hits, st.read_misses), (1, 1));
        assert_eq!(st.bytes_hit, 4096);
    }

    #[test]
    fn adjacent_staged_extents_merge_for_coverage() {
        let p = fs();
        let id = p.create("/f").unwrap();
        let bb = BurstBuffer::new(BurstConfig::default(), 3).unwrap();
        bb.write_through(&p, id, 0, 0, &[1u8; 100], 0.0).unwrap();
        bb.write_through(&p, id, 0, 100, &[2u8; 100], 0.0).unwrap();
        let mut buf = vec![0u8; 150];
        bb.read(&p, id, 0, 25, &mut buf, 1.0).unwrap();
        assert_eq!(bb.stats().read_hits, 1, "span crossing both extents hits");
    }

    /// The absorb port's timeline prunes and clamps like every other, and
    /// the simulation that booked it counts both: more read hits than a
    /// timeline keeps intervals (4096), each one booking only the port,
    /// then one hit due before the pruned horizon.
    #[test]
    fn the_absorb_ports_cliff_is_counted() {
        let p = fs();
        let id = p.create("/f").unwrap();
        let bb = BurstBuffer::new(BurstConfig::default(), 3).unwrap();
        let rep = mpisim::run(1, mpisim::SimConfig::default(), |_| {
            bb.write_through(&p, id, 0, 0, &[1u8; 64], 0.0).unwrap();
            let mut buf = [0u8; 8];
            for i in 0..4096 + 16 {
                bb.read(&p, id, 0, 0, &mut buf, 1.0 + i as f64 * 1e-3)
                    .unwrap();
            }
            bb.read(&p, id, 0, 0, &mut buf, 0.0).unwrap();
            Ok(bb.stats().read_hits)
        })
        .unwrap();
        assert_eq!(rep.results, [4096 + 17]);
        let mut reg = mpisim::Registry::new();
        reg.export_sim_report(&rep);
        assert!(reg.counter("timeline_prunes_total") >= Some(1));
        assert!(reg.counter("timeline_clamped_total") >= Some(1));
    }
}
