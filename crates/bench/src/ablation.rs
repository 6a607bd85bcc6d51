//! Pipelining/request-aggregation ablation: the Table II interleaved-
//! arrays workload across the four collective-I/O configurations
//! {flat, +req-agg, +pipeline, +both} for both methods (TCIO and the
//! two-phase OCIO path), on a node topology (`ablation_sweep`).
//!
//! Each cell runs dump-then-restart at a given `(nprocs, ppn)` placement
//! and reports write/read virtual makespans plus the exchange/OST-service
//! overlap fraction from [`insight::Analyzer::overlap_report`]. The two
//! knobs factor cleanly:
//!
//! * `req_agg` shrinks the *exchange*: node leaders merge their members'
//!   offset–length lists (coalescing adjacent extents) before the
//!   inter-node burst, so each (node, aggregator) pair exchanges one
//!   merged list.
//! * `pipeline` hides the *service*: the round loop double-buffers, so
//!   round k+1's exchange overlaps round k's OST service in virtual
//!   time. Flat runs must report an overlap fraction of exactly 0.
//!
//! For TCIO there is no request list to merge — its level-2 shipping is
//! already one gathered message per (rank, owner) pair — so the
//! `req_agg` axis is a documented no-op there (`req_agg` ≡ `flat`,
//! `both` ≡ `pipeline`, which maps to [`tcio::TcioConfig::pipeline_drain`]).
//! The sweep still emits those cells: equality across the no-op axis is
//! itself a regression check.

use crate::calib::Calib;
use crate::registry::Args;
use crate::report::Json;
use crate::runner::{dump_restart, slowest, synth_params, tcio_config};
use crate::topo::{field, find_cell, sweep_ppns};
use mpisim::Topology;
use pfs::Pfs;
use tcio::TcioConfig;
use workloads::synthetic::Method;

/// Which I/O method runs inside an ablation cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AblationMethod {
    /// TCIO (segmented one-sided shipping + level-2 drain).
    Tcio,
    /// Two-phase collective MPI-IO (`write_all_at`/`read_all_at`).
    Ocio,
}

impl AblationMethod {
    pub const ALL: [AblationMethod; 2] = [AblationMethod::Tcio, AblationMethod::Ocio];

    pub fn label(&self) -> &'static str {
        match self {
            AblationMethod::Tcio => "tcio",
            AblationMethod::Ocio => "ocio",
        }
    }
}

/// Which combination of the two ablation knobs is on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AblationVariant {
    /// Neither knob: serialized rounds, per-member request lists.
    Flat,
    /// Intra-node request aggregation only.
    ReqAgg,
    /// Double-buffered round pipeline only.
    Pipeline,
    /// Both knobs.
    Both,
}

impl AblationVariant {
    pub const ALL: [AblationVariant; 4] = [
        AblationVariant::Flat,
        AblationVariant::ReqAgg,
        AblationVariant::Pipeline,
        AblationVariant::Both,
    ];

    pub fn label(&self) -> &'static str {
        match self {
            AblationVariant::Flat => "flat",
            AblationVariant::ReqAgg => "req_agg",
            AblationVariant::Pipeline => "pipeline",
            AblationVariant::Both => "both",
        }
    }

    pub fn req_agg(&self) -> bool {
        matches!(self, AblationVariant::ReqAgg | AblationVariant::Both)
    }

    pub fn pipeline(&self) -> bool {
        matches!(self, AblationVariant::Pipeline | AblationVariant::Both)
    }
}

/// One measured ablation cell.
#[derive(Debug, Clone)]
pub struct AblationCell {
    pub nprocs: usize,
    pub ppn: usize,
    pub method: AblationMethod,
    pub variant: AblationVariant,
    /// Collective-write elapsed virtual seconds (max across ranks).
    pub write_s: f64,
    /// Collective-read elapsed virtual seconds.
    pub read_s: f64,
    /// Fraction of per-rank OST-service span coverage that coincided
    /// with exchange spans (0.0 for every non-pipelined cell). The OCIO
    /// round pipeline shows up here; the TCIO drain does not — its
    /// deferred segments overlap service with window copies and *other*
    /// service, never with exchange — so its overlap lands in
    /// `hidden_s` only.
    pub overlap_frac: f64,
    /// Virtual seconds of OST service hidden behind other work, summed
    /// over ranks — the runtime's deferred-handle accounting
    /// (`RankStats::io_overlap`). 0.0 for every non-pipelined cell.
    pub hidden_s: f64,
}

/// The `cb_buffer` the sweep uses: a quarter of each aggregator's file
/// domain, so every collective runs ≈4 rounds and the pipeline has
/// something to overlap. (Unchunked single-round collectives — the
/// default config — cannot pipeline by construction.)
pub fn sweep_cb_buffer(file_size: u64, naggs: usize) -> u64 {
    (file_size / naggs.max(1) as u64 / 4).max(1)
}

/// Run one cell of the ablation sweep.
pub fn run_cell(
    calib: &Calib,
    nprocs: usize,
    ppn: usize,
    method: AblationMethod,
    variant: AblationVariant,
    len_virtual: usize,
    size_access: usize,
) -> AblationCell {
    let p = synth_params(calib, len_virtual, size_access);
    let sim = mpisim::SimConfig {
        topology: Some(Topology::blocked(nprocs, ppn)),
        trace: true, // the overlap report needs per-operation spans
        ..calib.sim_config_unbudgeted()
    };
    let fs = Pfs::new(nprocs, calib.pfs.clone()).expect("pfs config");
    let num_nodes = nprocs.div_ceil(ppn);
    let tcfg = TcioConfig {
        pipeline_drain: variant.pipeline(),
        ..tcio_config(calib, &p, nprocs)
    };
    let ccfg = mpiio::CollectiveConfig {
        cb_nodes: Some(num_nodes),
        cb_buffer: Some(sweep_cb_buffer(p.file_size(nprocs), num_nodes)),
        req_agg: variant.req_agg(),
        pipeline: variant.pipeline(),
        ..Default::default()
    };
    let io = match method {
        AblationMethod::Tcio => Method::Tcio,
        AblationMethod::Ocio => Method::Ocio,
    };
    let rep = mpisim::run(nprocs, sim, move |rk| {
        dump_restart(rk, &fs, &p, "/ablation", io, &tcfg, &ccfg)
    })
    .expect("ablation cell completes");
    let overlap = insight::Analyzer::new(&rep.traces).overlap_report();
    let (write_s, read_s) = slowest(rep.results.iter().copied());
    AblationCell {
        nprocs,
        ppn,
        method,
        variant,
        write_s,
        read_s,
        overlap_frac: overlap.fraction(),
        hidden_s: rep.aggregate_stats().io_overlap,
    }
}

/// One cell of the document; times and the fraction at 1e-9 resolution.
pub fn cell_to_json(c: &AblationCell) -> Json {
    Json::obj()
        .with("nprocs", Json::num(c.nprocs as f64))
        .with("ppn", Json::num(c.ppn as f64))
        .with("method", Json::str(c.method.label()))
        .with("variant", Json::str(c.variant.label()))
        .with("write_s", Json::nanos(c.write_s))
        .with("read_s", Json::nanos(c.read_s))
        .with("overlap_frac", Json::nanos(c.overlap_frac))
        .with("hidden_s", Json::nanos(c.hidden_s))
}

/// `ablation_sweep`: every placement of the grid for both methods and all
/// four knob combinations, with a progress table on stderr.
pub fn run(args: &Args) -> Json {
    let (len, size_access) = (args.usize("len"), args.usize("size-access"));
    let calib = Calib::paper(args.int("scale"));
    let mut cells = Vec::new();
    for nprocs in args.ints("procs") {
        for ppn in sweep_ppns(nprocs, &args.ints("ppns")) {
            for method in AblationMethod::ALL {
                for variant in AblationVariant::ALL {
                    let c = run_cell(&calib, nprocs, ppn, method, variant, len, size_access);
                    eprintln!(
                        "P={nprocs} ppn={ppn} {:>4}/{:>8}: write {:.6}s read {:.6}s \
                         overlap {:.3}",
                        method.label(),
                        variant.label(),
                        c.write_s,
                        c.read_s,
                        c.overlap_frac
                    );
                    cells.push(cell_to_json(&c));
                }
            }
        }
    }
    Json::obj().with("cells", Json::Arr(cells))
}

/// The committed grid covers every placement, method and variant; and the
/// headline holds on it: at 128 ranks x 16 ppn, request aggregation (one
/// merged offset-length list per node-aggregator pair instead of 16) plus
/// the round pipeline (round k's OST service hidden behind round k+1's
/// exchange) cuts the collective-write makespan by at least 20% vs flat,
/// flat rounds report an overlap fraction of exactly 0 and pipelined
/// rounds a positive one.
pub fn claims(result: &Json) -> Result<(), String> {
    let cell = |nprocs: usize, ppn: usize, method: &str, variant: &str| {
        let want = [
            ("nprocs", Json::num(nprocs as f64)),
            ("ppn", Json::num(ppn as f64)),
            ("method", Json::str(method)),
            ("variant", Json::str(variant)),
        ];
        find_cell(result, &want)
    };
    for nprocs in [1usize, 8, 32, 128] {
        for ppn in sweep_ppns(nprocs, &[1, 4, 16]) {
            for method in AblationMethod::ALL {
                for variant in AblationVariant::ALL {
                    let c = cell(nprocs, ppn, method.label(), variant.label())?;
                    field(c, "overlap_frac")?;
                    field(c, "hidden_s")?;
                }
            }
        }
    }
    let (flat, both) = (
        cell(128, 16, "ocio", "flat")?,
        cell(128, 16, "ocio", "both")?,
    );
    let (flat_w, both_w) = (field(flat, "write_s")?, field(both, "write_s")?);
    if both_w > 0.8 * flat_w {
        return Err(format!(
            "pipelined+req-agg write {both_w}s must be >=20% under flat {flat_w}s at 128x16"
        ));
    }
    if field(flat, "overlap_frac")? != 0.0 {
        return Err("flat rounds are serialized and must report zero overlap".into());
    }
    if field(both, "overlap_frac")? <= 0.0 {
        return Err("pipelined rounds must hide some OST service behind exchange".into());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cells_run_and_attribute_overlap() {
        let calib = Calib::paper(1024);
        let flat = run_cell(
            &calib,
            8,
            4,
            AblationMethod::Ocio,
            AblationVariant::Flat,
            1 << 16,
            1,
        );
        assert!(flat.write_s > 0.0 && flat.read_s > 0.0);
        assert_eq!(
            flat.overlap_frac, 0.0,
            "flat rounds are serialized — no exchange/service overlap"
        );
        let piped = run_cell(
            &calib,
            8,
            4,
            AblationMethod::Ocio,
            AblationVariant::Both,
            1 << 16,
            1,
        );
        assert!(
            piped.overlap_frac > 0.0,
            "pipelined rounds must hide some OST service behind exchange"
        );
        let json = cell_to_json(&piped);
        assert_eq!(json.get("variant"), Some(&Json::str("both")));
        assert!(json.get("overlap_frac").is_some());
    }

    #[test]
    fn tcio_pipelined_drain_hides_service() {
        // TCIO's deferred drain never overlaps exchange (the drain is
        // all copies + file writes), so the insight fraction stays 0;
        // the hidden-service accounting is where its pipeline shows up.
        // Needs several L2 segments per rank — a single-segment drain
        // has nothing to keep in flight — hence the longer arrays.
        let calib = Calib::paper(1024);
        let flat = run_cell(
            &calib,
            8,
            4,
            AblationMethod::Tcio,
            AblationVariant::Flat,
            1 << 20,
            1,
        );
        assert_eq!(flat.overlap_frac, 0.0);
        assert_eq!(flat.hidden_s, 0.0, "flat drain defers nothing");
        let piped = run_cell(
            &calib,
            8,
            4,
            AblationMethod::Tcio,
            AblationVariant::Pipeline,
            1 << 20,
            1,
        );
        assert_eq!(piped.overlap_frac, 0.0, "drain has no exchange to overlap");
        assert!(
            piped.hidden_s > 0.0,
            "pipelined drain must hide some OST service"
        );
    }

    #[test]
    fn sweep_cb_buffer_quarters_the_domain() {
        assert_eq!(sweep_cb_buffer(1 << 20, 8), 1 << 15);
        assert_eq!(sweep_cb_buffer(3, 8), 1, "floors at one byte");
    }
}
