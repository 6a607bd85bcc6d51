//! The namespace and per-file metadata: create, open, length, truncate
//! and list.

use super::{span_end, File, FileId, Pfs, PfsError, Result, State};

impl Pfs {
    /// Create a new empty file. Fails if the path exists.
    pub fn create(&self, path: &str) -> Result<FileId> {
        self.create_in(&mut self.state.lock(), path)
    }

    fn create_in(&self, st: &mut State, path: &str) -> Result<FileId> {
        if st.namespace.contains_key(path) {
            return Err(PfsError::AlreadyExists(path.to_string()));
        }
        let id = FileId(st.files.len() as u32);
        st.files.push(File {
            ost_base: st.next_ost_base,
            ..File::default()
        });
        st.next_ost_base = (st.next_ost_base + self.cfg.stripe_count) % self.cfg.num_osts;
        st.namespace.insert(path.to_string(), id);
        Ok(id)
    }

    /// Open an existing file.
    pub fn open(&self, path: &str) -> Result<FileId> {
        self.state
            .lock()
            .namespace
            .get(path)
            .copied()
            .ok_or_else(|| PfsError::NotFound(path.to_string()))
    }

    /// Open, creating if absent (idempotent; used by collective opens where
    /// every rank tries to create the shared file).
    pub fn open_or_create(&self, path: &str) -> Result<FileId> {
        let mut guard = self.state.lock();
        let st = &mut *guard;
        match st.namespace.get(path) {
            Some(&id) => Ok(id),
            None => self.create_in(st, path),
        }
    }

    /// Current length of the file in bytes.
    pub fn len(&self, id: FileId) -> Result<u64> {
        Ok(self.state.lock().file(id)?.bytes.len() as u64)
    }

    /// Set the file length (zero-filling on growth). Growth never touches
    /// stored checksums (zero-extension invariant); shrinking drops sums
    /// past the new end and re-seals the now-shorter boundary stripe. A
    /// length no file can have is [`PfsError::OffsetOverflow`], refused
    /// before the file changes, like a write that would end there.
    pub fn truncate(&self, id: FileId, len: u64) -> Result<()> {
        let mut st = self.state.lock();
        let c = st
            .files
            .get_mut(id.0 as usize)
            .ok_or(PfsError::InvalidFile(id.0))?;
        let new_len = span_end(0, len).ok_or(PfsError::OffsetOverflow { offset: 0, len })?;
        let shrink = new_len < c.bytes.len();
        c.bytes.resize(new_len, 0);
        if shrink {
            let s = self.cfg.stripe_size;
            let keep = len.div_ceil(s);
            c.sums.retain(|&k, _| k < keep);
            c.replicas.retain(|&k, _| k < keep);
            if len > 0 {
                let b = (len - 1) / s;
                if c.sums.contains_key(&b) {
                    let replica = c.replicas.contains_key(&b);
                    c.seal_stripe(b, s, replica);
                }
            }
        }
        Ok(())
    }

    /// Sorted listing of the namespace.
    pub fn list(&self) -> Vec<String> {
        let mut names: Vec<String> = self.state.lock().namespace.keys().cloned().collect();
        names.sort();
        names
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
    fn create_and_open_namespace() {
        let p = fs(1);
        assert!(matches!(p.open("/a"), Err(PfsError::NotFound(_))));
        let id = p.create("/a").unwrap();
        assert_eq!(p.open("/a").unwrap(), id);
        assert!(matches!(p.create("/a"), Err(PfsError::AlreadyExists(_))));
    }

    #[test]
    fn open_or_create_is_idempotent() {
        let p = fs(1);
        let a = p.open_or_create("/x").unwrap();
        let b = p.open_or_create("/x").unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn truncate_grows_and_shrinks() {
        let p = fs(1);
        let id = p.create("/f").unwrap();
        p.truncate(id, 100).unwrap();
        assert_eq!(p.len(id).unwrap(), 100);
        p.truncate(id, 10).unwrap();
        assert_eq!(p.len(id).unwrap(), 10);
    }

    #[test]
    fn truncate_keeps_lock_owners() {
        // TCIO's write open truncates to 0; the stripe's last writer
        // still holds its lock, so another client rewriting it pays.
        let p = fs(2);
        let id = p.create("/f").unwrap();
        let t = p.write_at(id, 0, 0, &[1u8; 16], 0.0).unwrap();
        p.truncate(id, 0).unwrap();
        p.write_at(id, 1, 0, &[2u8; 16], t).unwrap();
        assert_eq!(p.stats.snapshot().lock_transfers, 1);
    }

    #[test]
    fn len_and_list() {
        let p = fs(1);
        let id = p.create("/b").unwrap();
        p.create("/a").unwrap();
        p.write_at(id, 0, 0, &[1, 2, 3], 0.0).unwrap();
        assert_eq!(p.len(id).unwrap(), 3);
        assert_eq!(p.list(), vec!["/a".to_string(), "/b".to_string()]);
    }

    #[test]
    fn invalid_file_id_rejected() {
        let p = fs(1);
        assert!(matches!(p.len(FileId(99)), Err(PfsError::InvalidFile(99))));
    }
}
