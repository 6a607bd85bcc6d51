//! # facility — a shared multi-tenant I/O service on the simulator
//!
//! The single-job experiments answer "how fast is one collective-I/O
//! run on an otherwise idle machine". A production machine is never
//! idle: many unrelated jobs hammer one parallel file system at once,
//! and the interesting questions become *isolation* (can a pathological
//! tenant starve the others?) and *utilization* (does protecting
//! tenants waste capacity?). This crate turns the simulator into that
//! shared facility:
//!
//! * [`orchestrator::run_facility`] carves one simulation into
//!   per-tenant rank groups, replays each tenant's seeded open-loop
//!   Poisson job arrivals ([`arrivals`]), and runs mixed workload
//!   styles ([`job::Style`]) concurrently against one [`pfs::Pfs`];
//! * the QoS layer lives in `pfs` ([`pfs::qos`]): per-tenant request
//!   tagging, token-bucket admission, gateway batching, and weighted
//!   fair sharing of each OST — or plain FIFO for the ablation;
//! * write-heavy tenants can stage through a [`burst::BurstBuffer`],
//!   which absorbs at fast-tier speed and drains to the PFS through the
//!   normal cost model under the tenant's own QoS identity.
//!
//! Everything is deterministic: same [`orchestrator::FacilityConfig`],
//! same seed, same report — bit for bit — on either
//! [`mpisim::Backend`], because both resume ranks one at a time in the
//! same `(virtual clock, rank)` order.

#![forbid(unsafe_code)]

pub mod arrivals;
pub mod burst;
pub mod job;
pub mod orchestrator;

pub use burst::{BurstBuffer, BurstConfig, BurstStats};
pub use job::{JobOutcome, JobSpec, Style};
pub use orchestrator::{
    run_facility, FacilityConfig, FacilityReport, JobRecord, QosMode, TenantOutcome, TenantSpec,
};

use std::fmt;

/// Errors from facility runs.
#[derive(Debug, PartialEq)]
pub enum FacilityError {
    Mpi(mpisim::MpiError),
    Io(mpiio::IoError),
    Fs(pfs::PfsError),
    Sim(mpisim::SimError),
    /// Read-back bytes did not match the deterministic pattern.
    Mismatch(String),
    /// Bad facility configuration.
    Config(String),
}

impl fmt::Display for FacilityError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FacilityError::Mpi(e) => write!(f, "mpi: {e}"),
            FacilityError::Io(e) => write!(f, "io: {e}"),
            FacilityError::Fs(e) => write!(f, "pfs: {e}"),
            FacilityError::Sim(e) => write!(f, "sim: {e}"),
            FacilityError::Mismatch(msg) => write!(f, "data mismatch: {msg}"),
            FacilityError::Config(msg) => write!(f, "bad facility config: {msg}"),
        }
    }
}

impl std::error::Error for FacilityError {}

impl From<mpisim::MpiError> for FacilityError {
    fn from(e: mpisim::MpiError) -> Self {
        FacilityError::Mpi(e)
    }
}

impl From<mpiio::IoError> for FacilityError {
    fn from(e: mpiio::IoError) -> Self {
        FacilityError::Io(e)
    }
}

impl From<pfs::PfsError> for FacilityError {
    fn from(e: pfs::PfsError) -> Self {
        FacilityError::Fs(e)
    }
}

/// A facility failure leaving a rank body: a runtime error it carries
/// comes back out as itself, anything else keeps its type as a layer error.
impl From<FacilityError> for mpisim::MpiError {
    fn from(e: FacilityError) -> Self {
        match e {
            FacilityError::Mpi(m) | FacilityError::Io(mpiio::IoError::Mpi(m)) => m,
            other => mpisim::MpiError::Layer(mpisim::LayerError::new(other)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn runtime_errors_flatten_and_the_rest_keep_their_type() {
        use mpisim::MpiError;
        let oom = MpiError::OutOfMemory {
            rank: 0,
            requested: 2,
            used: 1,
            budget: 1,
        };
        let nested = FacilityError::Io(mpiio::IoError::Mpi(oom.clone()));
        assert_eq!(MpiError::from(nested), oom);
        let crashed = MpiError::RankCrashed { rank: 3 };
        assert_eq!(MpiError::from(FacilityError::Mpi(crashed.clone())), crashed);
        let e = MpiError::from(FacilityError::Mismatch("byte 9 differs".into()));
        assert_eq!(
            e.layer::<FacilityError>(),
            Some(&FacilityError::Mismatch("byte 9 differs".into()))
        );
    }

    #[test]
    fn mismatch_keeps_its_reason() {
        let e = FacilityError::Mismatch("byte 9 differs".into());
        assert!(e.to_string().contains("byte 9"));
    }
}
