//! TCIO error type.

use std::fmt;

/// Errors surfaced by the TCIO library.
#[derive(Debug, Clone, PartialEq)]
pub enum TcioError {
    /// Propagated from the simulated MPI runtime.
    Mpi(mpisim::MpiError),
    /// Propagated from the file system / MPI-IO layer.
    Io(mpiio::IoError),
    /// An access landed beyond the level-2 buffer capacity configured at
    /// open time (`num_segments × segment_size × nprocs` bytes of file).
    SegmentOverflow {
        offset: u64,
        needed_segments: usize,
        configured_segments: usize,
    },
    /// API misuse (wrong mode, write after close, …).
    Usage(String),
}

impl fmt::Display for TcioError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TcioError::Mpi(e) => write!(f, "mpi: {e}"),
            TcioError::Io(e) => write!(f, "io: {e}"),
            TcioError::SegmentOverflow {
                offset,
                needed_segments,
                configured_segments,
            } => write!(
                f,
                "offset {offset} needs level-2 segment {needed_segments} but only \
                 {configured_segments} segments were configured per process \
                 (hint: use TcioConfig::for_file_size)"
            ),
            TcioError::Usage(msg) => write!(f, "usage: {msg}"),
        }
    }
}

impl std::error::Error for TcioError {}

impl From<mpisim::MpiError> for TcioError {
    fn from(e: mpisim::MpiError) -> Self {
        TcioError::Mpi(e)
    }
}

impl From<mpiio::IoError> for TcioError {
    fn from(e: mpiio::IoError) -> Self {
        match e {
            mpiio::IoError::Mpi(m) => TcioError::Mpi(m),
            // API misuse is API misuse at either layer (the provided
            // methods of `mpiio::PositionedFile` raise it this way).
            mpiio::IoError::Usage(msg) => TcioError::Usage(msg),
            other => TcioError::Io(other),
        }
    }
}

impl From<pfs::PfsError> for TcioError {
    fn from(e: pfs::PfsError) -> Self {
        TcioError::Io(mpiio::IoError::Fs(e))
    }
}

/// A TCIO failure leaving a rank body: a runtime error it carries, at any
/// depth, comes back out as itself; anything else keeps its type as a
/// layer error.
impl From<TcioError> for mpisim::MpiError {
    fn from(e: TcioError) -> Self {
        match e {
            TcioError::Mpi(m) | TcioError::Io(mpiio::IoError::Mpi(m)) => m,
            other => mpisim::MpiError::Layer(mpisim::LayerError::new(other)),
        }
    }
}

pub type Result<T> = std::result::Result<T, TcioError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_flatten_nested_mpi_errors() {
        let e: TcioError = mpiio::IoError::Mpi(mpisim::MpiError::Aborted).into();
        assert!(matches!(e, TcioError::Mpi(mpisim::MpiError::Aborted)));
        let e: TcioError = pfs::PfsError::NotFound("/f".into()).into();
        assert!(e.to_string().contains("/f"));
        // Out of a rank body: its own type, unless it holds a runtime error.
        assert_eq!(mpisim::MpiError::from(e.clone()).layer(), Some(&e));
        let nested = TcioError::Io(mpiio::IoError::Mpi(mpisim::MpiError::Aborted));
        assert_eq!(mpisim::MpiError::from(nested), mpisim::MpiError::Aborted);
    }

    #[test]
    fn overflow_message_is_actionable() {
        let e = TcioError::SegmentOverflow {
            offset: 12345,
            needed_segments: 10,
            configured_segments: 4,
        };
        let s = e.to_string();
        assert!(s.contains("12345"));
        assert!(s.contains("for_file_size"));
    }
}
