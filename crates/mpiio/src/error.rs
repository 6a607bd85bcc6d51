//! Error type unifying runtime and file-system failures.

use std::fmt;

/// Errors surfaced by MPI-IO operations.
#[derive(Debug, Clone, PartialEq)]
pub enum IoError {
    /// Propagated from the simulated MPI runtime (including simulated OOM,
    /// which is how the Fig. 6/7 OCIO failure manifests).
    Mpi(mpisim::MpiError),
    /// Propagated from the simulated parallel file system.
    Fs(pfs::PfsError),
    /// API misuse (bad mode, invalid view, …).
    Usage(String),
}

impl fmt::Display for IoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IoError::Mpi(e) => write!(f, "mpi: {e}"),
            IoError::Fs(e) => write!(f, "pfs: {e}"),
            IoError::Usage(msg) => write!(f, "usage: {msg}"),
        }
    }
}

impl std::error::Error for IoError {}

impl From<mpisim::MpiError> for IoError {
    fn from(e: mpisim::MpiError) -> Self {
        IoError::Mpi(e)
    }
}

impl From<pfs::PfsError> for IoError {
    fn from(e: pfs::PfsError) -> Self {
        IoError::Fs(e)
    }
}

impl From<mpisim::wire::Malformed> for IoError {
    fn from(e: mpisim::wire::Malformed) -> Self {
        IoError::Usage(match e {
            mpisim::wire::Malformed::Truncated => "malformed exchange payload".into(),
            mpisim::wire::Malformed::Overflow(v) => format!("{v} overflows a 32-bit wire field"),
        })
    }
}

pub type Result<T> = std::result::Result<T, IoError>;

impl IoError {
    /// True when the failure is a simulated out-of-memory condition.
    pub fn is_oom(&self) -> bool {
        matches!(self, IoError::Mpi(mpisim::MpiError::OutOfMemory { .. }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_and_display() {
        let e: IoError = mpisim::MpiError::Aborted.into();
        assert!(e.to_string().contains("abort"));
        let e: IoError = pfs::PfsError::NotFound("/x".into()).into();
        assert!(e.to_string().contains("/x"));
        assert!(!e.is_oom());
        let e: IoError = mpisim::MpiError::OutOfMemory {
            rank: 0,
            requested: 1,
            used: 0,
            budget: 0,
        }
        .into();
        assert!(e.is_oom());
    }
}
