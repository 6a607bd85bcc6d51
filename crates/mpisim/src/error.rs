//! Error types for the simulated MPI runtime.

use std::error::Error;
use std::fmt;
use std::sync::Arc;

/// A failure of a layer above the runtime (file system, MPI-IO, TCIO,
/// workloads, the facility), carried through a rank body without losing
/// its type: [`MpiError::layer`] hands the original value back.
///
/// Each layer converts its own error with one `impl From<E> for MpiError`
/// written next to `E`; those impls unwrap an `MpiError` nested inside `E`
/// instead of wrapping it, so [`crate::run`] triages a crash, an
/// out-of-memory or an abort raised under a layer exactly as it does one
/// raised by a native runtime call.
#[derive(Clone)]
pub struct LayerError {
    inner: Arc<dyn Error + Send + Sync>,
    /// `E`'s own `==`, captured where `E` was still known.
    same: fn(&(dyn Error + 'static), &(dyn Error + 'static)) -> bool,
}

impl LayerError {
    pub fn new<E: Error + PartialEq + Send + Sync + 'static>(e: E) -> Self {
        LayerError {
            inner: Arc::new(e),
            same: |a, b| match (a.downcast_ref::<E>(), b.downcast_ref::<E>()) {
                (Some(a), Some(b)) => a == b,
                _ => false,
            },
        }
    }
}

impl PartialEq for LayerError {
    fn eq(&self, other: &Self) -> bool {
        (self.same)(&*self.inner, &*other.inner)
    }
}

// `MpiError` is `Eq`; a layer error holding a float (`PfsError::Transient`)
// compares like the float does.
impl Eq for LayerError {}

impl fmt::Debug for LayerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&self.inner, f)
    }
}

impl fmt::Display for LayerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(&self.inner, f)
    }
}

/// Errors surfaced to rank code by runtime operations.
///
/// Any blocking operation (receives, collectives, RMA epochs) can return
/// [`MpiError::Aborted`] when another rank has failed: the runtime poisons
/// the simulation so no rank blocks forever on a peer that will never
/// arrive. This mirrors `MPI_Abort` semantics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MpiError {
    /// The simulation was aborted (another rank failed or panicked).
    Aborted,
    /// A rank identifier was outside `0..nprocs`.
    InvalidRank { rank: usize, nprocs: usize },
    /// An RMA access fell outside the target's window region.
    WindowOutOfBounds {
        target: usize,
        offset: usize,
        len: usize,
        window_len: usize,
    },
    /// A simulated memory allocation exceeded the per-rank budget.
    OutOfMemory {
        rank: usize,
        requested: u64,
        used: u64,
        budget: u64,
    },
    /// Mismatched collective participation (internal consistency check).
    CollectiveMismatch(&'static str),
    /// Datatype construction or use was invalid.
    InvalidDatatype(String),
    /// This rank crash-stopped (injected by the fault plan). The error is
    /// sticky: every runtime operation the rank attempts at or after its
    /// crash instant returns it — the rank never comes back.
    RankCrashed { rank: usize },
    /// A blocking operation targeted rank `rank`, which has crash-stopped
    /// and will never respond (e.g. a receive posted on a dead source).
    PeerCrashed { rank: usize },
    /// A layer above the runtime failed; see [`LayerError`].
    Layer(LayerError),
}

impl MpiError {
    /// The layer error of type `E` this value carries, if it carries one.
    pub fn layer<E: Error + 'static>(&self) -> Option<&E> {
        match self {
            MpiError::Layer(e) => e.inner.downcast_ref(),
            _ => None,
        }
    }
}

impl fmt::Display for MpiError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MpiError::Aborted => write!(f, "simulation aborted by another rank"),
            MpiError::InvalidRank { rank, nprocs } => {
                write!(f, "invalid rank {rank} (communicator size {nprocs})")
            }
            MpiError::WindowOutOfBounds {
                target,
                offset,
                len,
                window_len,
            } => write!(
                f,
                "RMA access [{offset}, {}) out of bounds for window of {window_len} bytes on rank {target}",
                offset + len
            ),
            MpiError::OutOfMemory {
                rank,
                requested,
                used,
                budget,
            } => write!(
                f,
                "rank {rank}: simulated out-of-memory (requested {requested} B, in use {used} B, budget {budget} B)"
            ),
            MpiError::CollectiveMismatch(what) => {
                write!(f, "collective participation mismatch: {what}")
            }
            MpiError::InvalidDatatype(msg) => write!(f, "invalid datatype: {msg}"),
            MpiError::RankCrashed { rank } => {
                write!(f, "rank {rank} crash-stopped (injected fault)")
            }
            MpiError::PeerCrashed { rank } => {
                write!(f, "peer rank {rank} has crash-stopped and will never respond")
            }
            MpiError::Layer(e) => fmt::Display::fmt(e, f),
        }
    }
}

impl Error for MpiError {}

/// Error returned by [`crate::runtime::run`] when the simulation fails as a whole.
#[derive(Debug, Clone, PartialEq)]
pub enum SimError {
    /// A rank returned an error from its body.
    RankFailed { rank: usize, error: MpiError },
    /// A rank panicked; the payload is the panic message when printable.
    RankPanicked { rank: usize, message: String },
    /// A rank crash-stopped (injected fault) and its body did not handle
    /// the failure: collectives it was party to were torn down instead of
    /// hanging. Fault-tolerant bodies that catch
    /// [`MpiError::RankCrashed`] and shrink around the dead rank never see
    /// this — their survivors run to completion.
    CollectiveAborted { crashed_rank: usize },
    /// The run was refused before any rank started: a network cost
    /// constant is NaN, infinite or negative, or the configuration names
    /// something the run does not have (a fault-plan rank past `nprocs`, a
    /// link endpoint past the fabric's ports).
    Config(String),
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::RankFailed { rank, error } => {
                write!(f, "rank {rank} failed: {error}")
            }
            SimError::RankPanicked { rank, message } => {
                write!(f, "rank {rank} panicked: {message}")
            }
            SimError::CollectiveAborted { crashed_rank } => {
                write!(
                    f,
                    "collectives aborted: rank {crashed_rank} crash-stopped (injected fault)"
                )
            }
            SimError::Config(msg) => write!(f, "simulation refused: {msg}"),
        }
    }
}

impl Error for SimError {}

/// Convenient result alias for rank-level operations.
pub type Result<T> = std::result::Result<T, MpiError>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::num::ParseIntError;

    #[test]
    fn layer_error_compares_shows_and_downcasts_as_its_inner_error() {
        // `InvalidDigit` twice, `Empty` once.
        let bad_int = |s: &str| s.parse::<u8>().unwrap_err();
        let wrap = |s| MpiError::Layer(LayerError::new(bad_int(s)));
        let e = wrap("x");
        assert_eq!(e.clone(), e);
        assert_eq!(e, wrap("y"));
        assert_ne!(e, wrap(""));
        assert_ne!(e, MpiError::Layer(LayerError::new(fmt::Error)));
        assert_eq!(e.layer::<ParseIntError>(), Some(&bad_int("x")));
        assert_eq!(e.layer::<fmt::Error>(), None);
        assert_eq!(MpiError::Aborted.layer::<ParseIntError>(), None);
        assert_eq!(e.to_string(), bad_int("x").to_string());
        let failed = SimError::RankFailed { rank: 2, error: e };
        assert_eq!(
            failed.to_string(),
            format!("rank 2 failed: {}", bad_int("x"))
        );
    }
}
