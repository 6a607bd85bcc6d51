//! # workloads — the paper's evaluation workloads
//!
//! * [`synthetic`] — the §V.B benchmark: Table I parameters and the three
//!   compared implementations (OCIO = Program 2, TCIO = Program 3, and
//!   vanilla independent MPI-IO), with byte-exact verification.
//! * [`art`] — the §V.C ART cosmology application: FTT refinement trees,
//!   the self-describing snapshot format (Fig. 8), Table IV's
//!   normal-distributed segment lengths, and dump/restart drivers.
//! * [`decomp`] — the 3-D→1-D decompositions from the introduction (SCEC
//!   slabs, S3D cubes) used by the examples.
//! * [`dist`] — seeded normal sampling (Table IV).

#![forbid(unsafe_code)]

pub mod art;
pub mod decomp;
pub mod dist;
pub mod error;
pub mod synthetic;

pub use dist::Normal;
pub use error::{Result, WlError};
pub use synthetic::{Method, RunMetrics, SynthParams};
