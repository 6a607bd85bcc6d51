//! # bench — the experiment harness
//!
//! One binary (`cargo run --release -p bench -- <subcommand>`), driven by
//! one table of experiments ([`registry::EXPERIMENTS`]): every figure,
//! table, ablation, sweep and diagnostic of the evaluation is an entry
//! with a name, a description, declared options and a `run(&Args) -> Json`.
//! `bench list` prints the table; `bench <name> --help` an entry's options.
//!
//! Five entries own a committed baseline under `bench_results/`, all in
//! one schema — `{"schema", "experiment", "args", "result"}`. `bench gate`
//! re-runs each with the args its baseline records, requires every leaf
//! of the document to match exactly, and checks the entry's headline
//! claims on the fresh result ([`perfgate`]); `bench bless` rewrites the
//! files. Nothing in this crate reads a wall clock — host-time
//! measurement lives in `benchmark/` (simbench).

pub mod ablations;
pub mod calib;
pub mod chaos_sweep;
pub mod diag;
pub mod exchange;
pub mod figures;
pub mod perf;
pub mod perfgate;
pub mod registry;
pub mod report;
pub mod resilience;
pub mod runner;
pub mod tenant;

pub use calib::{fmt_bytes, Calib};
pub use registry::{Args, Experiment, EXPERIMENTS};
pub use report::{mbs, sparkline, write_json_file, Json, Table};
