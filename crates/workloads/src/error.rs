//! Workload error type: unifies the layers and adds verification failures.

use std::fmt;

#[derive(Debug, Clone, PartialEq)]
pub enum WlError {
    Mpi(mpisim::MpiError),
    Io(mpiio::IoError),
    Tcio(tcio::TcioError),
    /// Data read back did not match what was written.
    Mismatch(String),
    /// Bad workload parameters.
    Config(String),
}

impl fmt::Display for WlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WlError::Mpi(e) => write!(f, "mpi: {e}"),
            WlError::Io(e) => write!(f, "io: {e}"),
            WlError::Tcio(e) => write!(f, "tcio: {e}"),
            WlError::Mismatch(msg) => write!(f, "verification failed: {msg}"),
            WlError::Config(msg) => write!(f, "bad workload config: {msg}"),
        }
    }
}

impl std::error::Error for WlError {}

impl From<mpisim::MpiError> for WlError {
    fn from(e: mpisim::MpiError) -> Self {
        WlError::Mpi(e)
    }
}

impl From<mpiio::IoError> for WlError {
    fn from(e: mpiio::IoError) -> Self {
        match e {
            mpiio::IoError::Mpi(m) => WlError::Mpi(m),
            other => WlError::Io(other),
        }
    }
}

impl From<tcio::TcioError> for WlError {
    fn from(e: tcio::TcioError) -> Self {
        match e {
            tcio::TcioError::Mpi(m) => WlError::Mpi(m),
            other => WlError::Tcio(other),
        }
    }
}

impl From<pfs::PfsError> for WlError {
    fn from(e: pfs::PfsError) -> Self {
        WlError::Io(mpiio::IoError::Fs(e))
    }
}

/// A workload failure leaving a rank body: a runtime error it carries, at
/// any depth, comes back out as itself — so an out-of-memory under OCIO
/// (Fig. 6/7) reaches `SimError` as `MpiError::OutOfMemory` — and anything
/// else keeps its type as a layer error.
impl From<WlError> for mpisim::MpiError {
    fn from(e: WlError) -> Self {
        use mpiio::IoError;
        use tcio::TcioError;
        match e {
            WlError::Mpi(m)
            | WlError::Io(IoError::Mpi(m))
            | WlError::Tcio(TcioError::Mpi(m) | TcioError::Io(IoError::Mpi(m))) => m,
            other => mpisim::MpiError::Layer(mpisim::LayerError::new(other)),
        }
    }
}

impl WlError {
    /// `self.into()`. Rank bodies use `?`; the name stays only because
    /// `benchmark/`, a separate workspace, calls it.
    pub fn into_mpi(self) -> mpisim::MpiError {
        self.into()
    }
}

pub type Result<T, E = WlError> = std::result::Result<T, E>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn oom_survives_into_mpi() {
        let oom = mpisim::MpiError::OutOfMemory {
            rank: 1,
            requested: 10,
            used: 5,
            budget: 8,
        };
        let e: WlError = mpiio::IoError::Mpi(oom.clone()).into();
        assert_eq!(e.into_mpi(), oom);
    }

    #[test]
    fn mismatch_displays_reason() {
        let e = WlError::Mismatch("byte 7 differs".into());
        assert!(e.to_string().contains("byte 7"));
    }
}
