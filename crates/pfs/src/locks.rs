//! Extent-lock manager.
//!
//! Lustre servers maintain data consistency with distributed extent locks
//! granted at stripe granularity. When a client touches a stripe whose lock
//! is held in a conflicting mode by other clients, the lock must be revoked
//! and re-granted — an expensive round trip. The paper's §IV.A keys TCIO's
//! segment size to this lock granularity; §II (Liao & Choudhary) is the
//! background. This manager tracks ownership per `(file, stripe)` and
//! reports whether each access required a transfer, so the cost model can
//! charge it and so the benches can count ping-pongs.

/// Access mode for a stripe lock.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LockMode {
    Read,
    Write,
}

/// One stripe's lock. A set of readers is only ever asked "is it exactly
/// this client?", so it is kept as that answer: `Read(Some(c))` while `c`
/// is the only reader, `Read(None)` once a second one joins.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
enum LockState {
    #[default]
    Free,
    Read(Option<usize>),
    Write(usize),
}

/// Tracks extent locks for all files: one 16-byte slot per stripe, in a
/// vector per file indexed by stripe, so an RPC's lock decision is two
/// indexings. A file's vector grows to the highest stripe accessed and is
/// never dropped: truncating a file keeps its lock owners, so a rewrite
/// after a truncate still contends for the stripe it lands in.
#[derive(Debug, Default)]
pub struct LockManager {
    /// Indexed by file id, then by stripe.
    files: Vec<Vec<LockState>>,
}

impl LockManager {
    pub fn new() -> Self {
        Self::default()
    }

    /// Acquire the lock on `(file, stripe)` for `client` in `mode`.
    /// Returns `true` when the acquisition required a lock transfer
    /// (revocation of a conflicting holder).
    pub fn acquire(&mut self, file: u32, stripe: u64, client: usize, mode: LockMode) -> bool {
        let slot = self.slot(file, stripe);
        let (next, transfer) = match (*slot, mode) {
            (LockState::Free, LockMode::Read) => (LockState::Read(Some(client)), false),
            (LockState::Free, LockMode::Write) => (LockState::Write(client), false),
            (LockState::Read(only), LockMode::Read) => {
                (LockState::Read(only.filter(|&c| c == client)), false)
            }
            // Upgrading is free only if this client is the sole reader.
            (LockState::Read(only), LockMode::Write) => {
                (LockState::Write(client), only != Some(client))
            }
            (LockState::Write(owner), LockMode::Write) => {
                (LockState::Write(client), owner != client)
            }
            (LockState::Write(owner), LockMode::Read) => {
                (LockState::Read(Some(client)), owner != client)
            }
        };
        *slot = next;
        transfer
    }

    /// The slot of `(file, stripe)`, growing the tables to reach it.
    fn slot(&mut self, file: u32, stripe: u64) -> &mut LockState {
        let (file, stripe) = (file as usize, stripe as usize);
        if file >= self.files.len() {
            self.files.resize_with(file + 1, Vec::new);
        }
        let stripes = &mut self.files[file];
        if stripe >= stripes.len() {
            stripes.resize(stripe + 1, LockState::Free);
        }
        &mut stripes[stripe]
    }

    /// Number of stripes currently tracked (for tests/diagnostics).
    pub fn tracked(&self) -> usize {
        self.files
            .iter()
            .flatten()
            .filter(|&&s| s != LockState::Free)
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_acquire_is_free() {
        let mut lm = LockManager::new();
        assert!(!lm.acquire(1, 0, 0, LockMode::Write));
        assert!(!lm.acquire(1, 1, 0, LockMode::Read));
    }

    #[test]
    fn same_client_rewrite_is_free() {
        let mut lm = LockManager::new();
        lm.acquire(1, 0, 0, LockMode::Write);
        assert!(!lm.acquire(1, 0, 0, LockMode::Write));
    }

    #[test]
    fn write_ping_pong_costs_every_switch() {
        let mut lm = LockManager::new();
        lm.acquire(1, 0, 0, LockMode::Write);
        assert!(lm.acquire(1, 0, 1, LockMode::Write));
        assert!(lm.acquire(1, 0, 0, LockMode::Write));
        assert!(lm.acquire(1, 0, 1, LockMode::Write));
    }

    #[test]
    fn concurrent_readers_share() {
        let mut lm = LockManager::new();
        assert!(!lm.acquire(1, 0, 0, LockMode::Read));
        assert!(!lm.acquire(1, 0, 1, LockMode::Read));
        assert!(!lm.acquire(1, 0, 2, LockMode::Read));
    }

    #[test]
    fn sole_reader_upgrades_free_others_pay() {
        let mut lm = LockManager::new();
        lm.acquire(1, 0, 0, LockMode::Read);
        assert!(!lm.acquire(1, 0, 0, LockMode::Write), "sole-reader upgrade");
        let mut lm = LockManager::new();
        lm.acquire(1, 0, 0, LockMode::Read);
        lm.acquire(1, 0, 1, LockMode::Read);
        assert!(
            lm.acquire(1, 0, 0, LockMode::Write),
            "shared upgrade revokes"
        );
    }

    #[test]
    fn read_after_foreign_write_pays() {
        let mut lm = LockManager::new();
        lm.acquire(1, 0, 0, LockMode::Write);
        assert!(lm.acquire(1, 0, 1, LockMode::Read));
        // And a subsequent reader is free again.
        assert!(!lm.acquire(1, 0, 1, LockMode::Read));
    }

    #[test]
    fn files_are_independent() {
        let mut lm = LockManager::new();
        lm.acquire(1, 0, 0, LockMode::Write);
        assert!(!lm.acquire(2, 0, 1, LockMode::Write));
    }

    #[test]
    fn a_stripe_lock_is_sixteen_bytes() {
        assert_eq!(std::mem::size_of::<LockState>(), 16);
    }
}

/// The hash-table manager the slot vectors replaced, kept as the oracle:
/// the two must make the same transfer decision for any access stream.
#[cfg(test)]
mod reference {
    use super::LockMode;
    use std::collections::{HashMap, HashSet};

    enum LockState {
        Read(HashSet<usize>),
        Write(usize),
    }

    #[derive(Default)]
    pub struct HashLockManager {
        table: HashMap<(u32, u64), LockState>,
    }

    impl HashLockManager {
        pub fn acquire(&mut self, file: u32, stripe: u64, client: usize, mode: LockMode) -> bool {
            let key = (file, stripe);
            let (next, transfer) = match (self.table.get_mut(&key), mode) {
                (None, LockMode::Read) => (LockState::Read(HashSet::from([client])), false),
                (None, LockMode::Write) => (LockState::Write(client), false),
                (Some(LockState::Read(holders)), LockMode::Read) => {
                    holders.insert(client);
                    return false;
                }
                (Some(LockState::Read(holders)), LockMode::Write) => {
                    let sole = holders.len() == 1 && holders.contains(&client);
                    (LockState::Write(client), !sole)
                }
                (Some(LockState::Write(owner)), LockMode::Write) => {
                    (LockState::Write(client), *owner != client)
                }
                (Some(LockState::Write(owner)), LockMode::Read) => {
                    (LockState::Read(HashSet::from([client])), *owner != client)
                }
            };
            self.table.insert(key, next);
            transfer
        }

        pub fn tracked(&self) -> usize {
            self.table.len()
        }
    }
}

#[cfg(test)]
mod oracle_tests {
    use super::reference::HashLockManager;
    use super::*;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    /// Seeded acquires over 3 files × 64 stripes × 8 clients in both
    /// modes: every transfer decision and every `tracked()` count must
    /// match the hash-table manager's.
    #[test]
    fn slot_vectors_decide_every_transfer_like_the_hash_table() {
        let mut rng = StdRng::seed_from_u64(0x10C_5107);
        let (mut new, mut old) = (LockManager::new(), HashLockManager::default());
        let mut transfers = [0usize; 2];
        for step in 0..20_000 {
            let file = (rng.next_u64() % 3) as u32;
            // Few clients per stripe most of the time, so sole-reader
            // upgrades happen as well as shared ones.
            let stripe = rng.next_u64() % 64;
            let client = if rng.next_u64() % 4 == 0 {
                (rng.next_u64() % 8) as usize
            } else {
                (stripe % 8) as usize
            };
            let mode = if rng.random::<bool>() {
                LockMode::Read
            } else {
                LockMode::Write
            };
            let (a, b) = (
                new.acquire(file, stripe, client, mode),
                old.acquire(file, stripe, client, mode),
            );
            assert_eq!(
                a, b,
                "step {step}: {mode:?} of ({file}, {stripe}) by {client}"
            );
            transfers[usize::from(a)] += 1;
            if step % 64 == 0 {
                assert_eq!(new.tracked(), old.tracked(), "step {step}");
            }
        }
        assert_eq!(new.tracked(), old.tracked());
        assert!(
            transfers.iter().all(|&n| n > 1000),
            "both outcomes must be common: {transfers:?}"
        );
    }
}
