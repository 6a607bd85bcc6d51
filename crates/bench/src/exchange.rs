//! Exchange sweep (`exchange_sweep`): the Table II interleaved-arrays
//! workload on a node topology, with the two two-phase exchanges run head
//! to head under the same hints.
//!
//! Per `(nprocs, ppn)` placement the grid runs TCIO (node-aware level-2
//! owner placement), and OCIO across
//!
//! * **rounds** — `single`: ROMIO's defaults, one unchunked round and every
//!   rank an aggregator; `quarter`: one aggregator per node and a
//!   `cb_buffer` of a quarter of its file domain, so every collective runs
//!   ≈4 rounds and a pipeline has something to overlap;
//! * **exchange** — `flat`: the all-to-all burst; `req_agg`: node leaders
//!   decode and merge the members' offset–length lists and ship one list
//!   per (node, aggregator) pair (Kang et al., arXiv:1907.12656);
//! * **pipeline** (`quarter` only — a single round has nothing to overlap):
//!   round k+1's exchange runs while the OSTs service round k.
//!
//! Every cell reports the write and read makespans, the fabric's intra-/
//! inter-node byte split (what the leader exchange moves), the fraction of
//! OST service that coincided with exchange spans
//! ([`insight::Analyzer::overlap_report`]) and the service seconds hidden
//! behind other work (`RankStats::io_overlap`). `ppn = 1` is the
//! zero-cost-off placement: a trivial topology has no leaders, so the two
//! exchanges must agree there to the bit.

use crate::calib::Calib;
use crate::registry::Args;
use crate::report::Json;
use crate::runner::{synth_params, Cell};
use mpiio::CollectiveConfig;
use workloads::synthetic::Method;

pub const EXCHANGES: [&str; 2] = ["flat", "req_agg"];
/// The hint sets OCIO runs under: `(rounds, pipeline)`.
pub const HINTS: [(&str, bool); 3] = [("single", false), ("quarter", false), ("quarter", true)];

/// What runs inside a cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Variant {
    /// OCIO's `(rounds, exchange)`, labelled as above; `None` is TCIO.
    pub ocio: Option<(&'static str, &'static str)>,
    pub pipeline: bool,
}

impl Variant {
    /// The seven variants of a placement, in document order: TCIO, then
    /// OCIO under every hint set and exchange.
    pub fn all() -> Vec<Variant> {
        let tcio = Variant {
            ocio: None,
            pipeline: false,
        };
        let ocio = HINTS.iter().flat_map(|&(rounds, pipeline)| {
            EXCHANGES.map(|exchange| Variant {
                ocio: Some((rounds, exchange)),
                pipeline,
            })
        });
        std::iter::once(tcio).chain(ocio).collect()
    }

    /// The fields that identify the variant in a cell of the document
    /// (TCIO has no round hints to name).
    fn key(&self) -> Vec<(&'static str, Json)> {
        match self.ocio {
            None => vec![("method", Json::str("tcio"))],
            Some((rounds, exchange)) => vec![
                ("method", Json::str("ocio")),
                ("rounds", Json::str(rounds)),
                ("exchange", Json::str(exchange)),
                ("pipeline", Json::Bool(self.pipeline)),
            ],
        }
    }
}

/// The `cb_buffer` of the `quarter` rounds: a quarter of each
/// aggregator's file domain, floored at one byte.
pub fn quarter_cb_buffer(file_size: u64, naggs: usize) -> u64 {
    (file_size / naggs.max(1) as u64 / 4).max(1)
}

/// Run one cell and return it as the document's object; times and the
/// fraction at 1e-9 resolution.
pub fn run_cell(
    calib: &Calib,
    nprocs: usize,
    ppn: usize,
    variant: Variant,
    len_virtual: usize,
    size_access: usize,
) -> Json {
    let p = synth_params(calib, len_virtual, size_access);
    let file_size = p.file_size(nprocs);
    let method = match variant.ocio {
        None => Method::Tcio,
        Some(_) => Method::Ocio,
    };
    let mut cell = Cell::new(calib, nprocs, p, method);
    // Traced: the overlap report needs per-operation spans.
    cell.job.on_nodes(ppn).traced();
    if let Some((rounds, exchange)) = variant.ocio {
        let nodes = nprocs.div_ceil(ppn);
        let quarter = rounds == "quarter";
        cell.ocio = CollectiveConfig {
            cb_nodes: quarter.then_some(nodes),
            cb_buffer: quarter.then(|| quarter_cb_buffer(file_size, nodes)),
            req_agg: exchange == "req_agg",
            pipeline: variant.pipeline,
            ..Default::default()
        };
    }
    let run = cell.run().expect("exchange cell completes");
    let overlap = insight::Analyzer::new(&run.rep.traces).overlap_report();
    let mut json = Json::obj()
        .with("nprocs", Json::num(nprocs as f64))
        .with("ppn", Json::num(ppn as f64));
    for (k, v) in variant.key() {
        json.set(k, v);
    }
    json.with("write_s", Json::nanos(run.write_s))
        .with("read_s", Json::nanos(run.read_s))
        .with("intra_bytes", Json::num(run.rep.fabric.intra_bytes as f64))
        .with("inter_bytes", Json::num(run.rep.fabric.inter_bytes as f64))
        .with("overlap_frac", Json::nanos(overlap.fraction()))
        .with(
            "hidden_s",
            Json::nanos(run.rep.aggregate_stats().io_overlap),
        )
}

/// The `ppn` values of the grid that fit `nprocs`.
pub fn sweep_ppns(nprocs: usize, ppns: &[usize]) -> Vec<usize> {
    ppns.iter().copied().filter(|&p| p <= nprocs).collect()
}

/// `exchange_sweep`: every placement of the grid for every variant, with
/// a progress line per cell on stderr.
pub fn run(args: &Args) -> Json {
    let (len, size_access) = (args.usize("len"), args.usize("size-access"));
    let calib = Calib::paper(args.int("scale"));
    let mut cells = Vec::new();
    for nprocs in args.ints("procs") {
        for ppn in sweep_ppns(nprocs, &args.ints("ppns")) {
            for variant in Variant::all() {
                let c = run_cell(&calib, nprocs, ppn, variant, len, size_access);
                let show = |key: &&str| format!(" {key} {}", field(&c, key).unwrap_or(f64::NAN));
                let fields: String = FIELDS.iter().map(show).collect();
                eprintln!("P={nprocs} ppn={ppn} {variant:?}:{fields}");
                cells.push(c);
            }
        }
    }
    Json::obj().with("cells", Json::Arr(cells))
}

fn field(cell: &Json, key: &str) -> Result<f64, String> {
    let v = cell.get(key).and_then(Json::as_f64);
    v.ok_or_else(|| format!("cell has no numeric {key}"))
}

const FIELDS: [&str; 6] = [
    "write_s",
    "read_s",
    "intra_bytes",
    "inter_bytes",
    "overlap_frac",
    "hidden_s",
];

/// What the committed grid must show, checked on every fresh result.
///
/// Coverage: every placement the evaluation quotes, every variant, every
/// field. The trivial topology is free: at `ppn = 1` the two exchanges
/// agree in every field. Unpipelined cells — TCIO's drain among them —
/// report exactly zero overlap and hidden service; pipelined OCIO rounds
/// overlap some as soon as there is an exchange (more than one rank).
///
/// On the cells with `ppn > 1`, under every hint set, request aggregation
/// never loses to flat, write or read, and moves fewer inter-node bytes.
/// Past the per-rank connection cache (64) it pays: at 128 × 16 the flat
/// burst thrashes connection setup and queues P−1 unexpected messages per
/// rank, so the single-round write is ≥ 20 % faster with request
/// aggregation (it measures > 2×), and the quarter-round write ≥ 20 %
/// faster with request aggregation plus the pipeline.
pub fn claims(result: &Json) -> Result<(), String> {
    let cells = result.get("cells").and_then(Json::as_arr).unwrap_or(&[]);
    let get = |nprocs: usize, ppn: usize, v: Variant, key: &str| {
        let mut want = v.key();
        want.push(("nprocs", Json::num(nprocs as f64)));
        want.push(("ppn", Json::num(ppn as f64)));
        let found = |c: &&Json| want.iter().all(|(k, v)| c.get(k) == Some(v));
        let cell = cells.iter().find(found);
        field(cell.ok_or(format!("no cell {nprocs}x{ppn} {v:?}"))?, key)
    };
    let check = |ok: bool, at: &str, what: &str| match ok {
        true => Ok(()),
        false => Err(format!("{at}: {what}")),
    };
    for nprocs in [1usize, 8, 32, 128] {
        for ppn in sweep_ppns(nprocs, &[1, 4, 16]) {
            for v in Variant::all() {
                let at = format!("{nprocs}x{ppn} {v:?}");
                for key in FIELDS {
                    let x = get(nprocs, ppn, v, key)?;
                    if !v.pipeline && (key == "overlap_frac" || key == "hidden_s") {
                        check(x == 0.0, &at, &format!("serialized, yet {key} = {x}"))?;
                    }
                    if let (Some((rounds, _)), 1) = (v.ocio, ppn) {
                        let flat = Variant {
                            ocio: Some((rounds, "flat")),
                            ..v
                        };
                        let same = x == get(nprocs, 1, flat, key)?;
                        check(same, &at, &format!("{key} differs from flat's"))?;
                    }
                }
                if v.ocio.is_some() && v.pipeline && nprocs > 1 {
                    let frac = get(nprocs, ppn, v, "overlap_frac")?;
                    check(frac > 0.0, &at, "pipelined, yet no overlap")?;
                }
            }
            // Head to head where a node has leaders: [flat, req-agg].
            for (rounds, pipeline) in HINTS.into_iter().filter(|_| ppn > 1) {
                let both = |key| -> Result<[f64; 2], String> {
                    let of = |exchange| Variant {
                        ocio: Some((rounds, exchange)),
                        pipeline,
                    };
                    Ok([
                        get(nprocs, ppn, of("flat"), key)?,
                        get(nprocs, ppn, of("req_agg"), key)?,
                    ])
                };
                let (w, r, b) = (both("write_s")?, both("read_s")?, both("inter_bytes")?);
                let at = format!(
                    "{nprocs}x{ppn} {rounds} pipeline={pipeline}: [flat, req-agg] \
                     write {w:?} read {r:?} inter bytes {b:?}"
                );
                check(w[1] <= w[0] && r[1] <= r[0], &at, "req-agg loses to flat")?;
                check(b[1] < b[0], &at, "req-agg moves no fewer inter bytes")?;
            }
        }
    }
    for (rounds, pipeline) in [("single", false), ("quarter", true)] {
        let write = |exchange, pipeline| {
            let ocio = Some((rounds, exchange));
            get(128, 16, Variant { ocio, pipeline }, "write_s")
        };
        let (flat, lead) = (write("flat", false)?, write("req_agg", pipeline)?);
        let what = format!("{rounds} req_agg {lead}s not 20% under flat {flat}s");
        check(lead <= 0.8 * flat, "128x16 write", &what)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cell(
        ppn: usize,
        ocio: Option<(&'static str, &'static str)>,
        pipeline: bool,
        len: usize,
    ) -> impl Fn(&str) -> f64 {
        let c = run_cell(
            &Calib::paper(1024),
            8,
            ppn,
            Variant { ocio, pipeline },
            len,
            1,
        );
        move |key| field(&c, key).unwrap()
    }

    #[test]
    fn cells_report_the_byte_split_and_attribute_overlap() {
        let flat1 = cell(1, Some(("single", "flat")), false, 1 << 16);
        assert_eq!(flat1("intra_bytes"), 0.0, "ppn=1 is all inter-node");
        let agg = cell(4, Some(("single", "req_agg")), false, 1 << 16);
        assert!(agg("write_s") > 0.0 && agg("read_s") > 0.0);
        assert!(agg("intra_bytes") > 0.0, "req-agg must move intra bytes");
        let flat = cell(4, Some(("quarter", "flat")), false, 1 << 16);
        assert_eq!(
            flat("overlap_frac"),
            0.0,
            "serialized rounds overlap nothing"
        );
        let piped = cell(4, Some(("quarter", "req_agg")), true, 1 << 16);
        assert!(piped("overlap_frac") > 0.0, "pipelined rounds hide service");
    }

    #[test]
    fn tcio_drain_hides_no_service() {
        // The drain submits every segment at its start and waits once, so
        // no segment's service is hidden behind other work, even with
        // several L2 segments per rank — hence the longer arrays.
        let tcio = cell(4, None, false, 1 << 20);
        assert_eq!((tcio("overlap_frac"), tcio("hidden_s")), (0.0, 0.0));
    }

    #[test]
    fn grid_helpers() {
        assert_eq!(Variant::all().len(), 7);
        assert_eq!(sweep_ppns(8, &[1, 4, 16]), vec![1, 4]);
        assert_eq!(sweep_ppns(32, &[1, 4, 16]), vec![1, 4, 16]);
        assert_eq!(quarter_cb_buffer(1 << 20, 8), 1 << 15);
        assert_eq!(quarter_cb_buffer(3, 8), 1, "floors at one byte");
    }
}
