//! # tcio — Transparent Collective I/O
//!
//! The primary contribution of *A Transparent Collective I/O
//! Implementation* (Yu, Wu, Lan, Gnedin, Rudd, Kravtsov — IPDPS 2013),
//! reimplemented in Rust over the simulated substrates in `mpisim`,
//! `mpiio`, and `pfs`.
//!
//! TCIO is a user-level library that gives MPI applications POSIX-like
//! `open`/`write`/`read`/`seek`/`close` calls while *transparently*
//! performing collective-I/O aggregation underneath. Unlike the collective
//! functionality of MPI-IO (OCIO), applications do **not**:
//!
//! * maintain an application-level buffer that combines data from multiple
//!   in-memory structures into a single contiguous block,
//! * describe their noncontiguous access patterns with derived datatypes
//!   and `MPI_File_set_view`,
//! * or restrict themselves to access patterns a single datatype can
//!   express (dynamic, variable-size structures like ART's refinement
//!   trees work fine).
//!
//! The implementation rests on two mechanisms (§IV):
//!
//! 1. **Two levels of buffers.** A private, segment-aligned *level-1*
//!    buffer combines each process's small sequential writes; a
//!    distributed *level-2* buffer (an RMA window, `num_segments` segments
//!    of `segment_size` bytes per process, mapped round-robin over file
//!    offsets via equations (1)–(3) in [`segment::SegmentMap`]) rearranges
//!    data by file offset across processes.
//! 2. **One-sided communication.** Because every process issues I/O calls
//!    independently, there is no matching receive to pair with — so level-1
//!    flushes travel as gathered `MPI_Put`s (one message per flush, the
//!    `MPI_Type_indexed` coalescing) inside `MPI_Win_lock`/`unlock`
//!    passive-target epochs, and lazy reads travel as gathered `MPI_Get`s.
//!
//! ## Quick start
//!
//! ```
//! use std::sync::Arc;
//! use tcio::{TcioConfig, TcioFile, TcioMode};
//!
//! let fs = pfs::Pfs::new(4, pfs::PfsConfig::default()).unwrap();
//! let fs2 = Arc::clone(&fs);
//! mpisim::run(4, mpisim::SimConfig::default(), move |rk| {
//!     let cfg = TcioConfig::for_file_size(4 * 1024, rk.nprocs());
//!     let mut f = TcioFile::open(rk, &fs2, "/demo", TcioMode::Write, cfg)?;
//!     // Interleaved pattern: block b belongs to rank b % P.
//!     let block = vec![rk.rank() as u8; 256];
//!     for i in 0..4u64 {
//!         let off = (i * rk.nprocs() as u64 + rk.rank() as u64) * 256;
//!         f.write_at(rk, off, &block)?;
//!     }
//!     f.close(rk)?;
//!     Ok(())
//! })
//! .unwrap();
//! ```

#![forbid(unsafe_code)]

pub mod config;
pub mod error;
pub mod file;
pub mod segment;

pub use config::{ReadMode, SyncMode, TcioConfig};
pub use error::{Result, TcioError};
pub use file::{PositionedFile, TcioFile, TcioMode, TcioStats, Whence};
pub use segment::{Location, SegmentMap};
