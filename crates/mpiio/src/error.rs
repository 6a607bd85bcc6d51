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

/// An MPI-IO failure leaving a rank body: a runtime error it carries comes
/// back out as itself, anything else keeps its type as a layer error.
impl From<IoError> for mpisim::MpiError {
    fn from(e: IoError) -> Self {
        match e {
            IoError::Mpi(m) => m,
            other => mpisim::MpiError::Layer(mpisim::LayerError::new(other)),
        }
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

pub type Result<T, E = IoError> = std::result::Result<T, E>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_and_display() {
        let e: IoError = mpisim::MpiError::Aborted.into();
        assert!(e.to_string().contains("abort"));
        let e: IoError = pfs::PfsError::NotFound("/x".into()).into();
        assert!(e.to_string().contains("/x"));
        // Out of a rank body: its own type, unless it holds a runtime error.
        assert_eq!(mpisim::MpiError::from(e.clone()).layer(), Some(&e));
        let oom = mpisim::MpiError::OutOfMemory {
            rank: 0,
            requested: 1,
            used: 0,
            budget: 0,
        };
        assert_eq!(mpisim::MpiError::from(IoError::Mpi(oom.clone())), oom);
    }
}
