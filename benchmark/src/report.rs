//! What children print and what the parent makes of it: the line
//! protocol between them, one workload's reduced result, and its
//! renderings (table, the driver's JSON line, the results file).

use crate::catalog::{Def, END_TO_END, PER_LAYER, RUN_SECONDS};
use crate::cells::Cell;
use crate::host::Summary;
use crate::json::Json;
use std::fmt::Write;

/// One reported number. Children print one per line, tab-separated:
/// `name unit value`, or for a layer cell
/// `name unit median q1 q3 min max n ops`.
/// Values travel as Rust's shortest round-trip decimal, so equal text
/// means equal bits.
#[derive(Debug, Clone)]
pub struct Line {
    pub name: String,
    pub unit: String,
    pub text: String,
    /// Batch statistics and operations per batch of a layer cell.
    cell: Option<(Summary, u64)>,
}

impl Line {
    pub fn value(name: &str, unit: &str, value: f64) -> Line {
        assert!(value.is_finite(), "{name} is {value}");
        Line::text(name, unit, format!("{value}"))
    }

    pub fn text(name: &str, unit: &str, text: String) -> Line {
        Line {
            name: name.to_string(),
            unit: unit.to_string(),
            text,
            cell: None,
        }
    }

    pub fn cell(c: &Cell) -> Line {
        Line {
            cell: Some((c.value, c.ops)),
            ..Line::value(c.name, c.unit, c.value.median)
        }
    }

    pub fn print(&self) {
        match self.cell {
            None => println!("{}\t{}\t{}", self.name, self.unit, self.text),
            Some((s, ops)) => println!(
                "{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{ops}",
                self.name, self.unit, self.text, s.q1, s.q3, s.min, s.max, s.n
            ),
        }
    }

    pub fn parse(line: &str) -> Result<Line, String> {
        let bad = || format!("cannot read child output line {line:?}");
        let f: Vec<&str> = line.split('\t').collect();
        let cell = match f.len() {
            3 => None,
            9 => {
                let num = |i: usize| f[i].parse::<f64>().map_err(|_| bad());
                Some((
                    Summary {
                        median: num(2)?,
                        q1: num(3)?,
                        q3: num(4)?,
                        min: num(5)?,
                        max: num(6)?,
                        n: f[7].parse().map_err(|_| bad())?,
                    },
                    f[8].parse().map_err(|_| bad())?,
                ))
            }
            _ => return Err(bad()),
        };
        Ok(Line {
            cell,
            ..Line::text(f[0], f[1], f[2].to_string())
        })
    }

    pub fn num(&self) -> Result<f64, String> {
        self.text
            .parse()
            .map_err(|_| format!("{} is not a number: {:?}", self.name, self.text))
    }

    /// A cell's batch statistics; a plain value counts as one sample.
    pub fn summary(&self) -> Result<Summary, String> {
        match self.cell {
            Some((s, _)) => Ok(s),
            None => Ok(Summary::of(&[self.num()?])),
        }
    }

    fn ops(&self) -> u64 {
        self.cell.map_or(0, |c| c.1)
    }
}

/// One workload, reduced over its reps.
#[derive(Debug)]
pub struct WorkloadResult {
    pub name: &'static str,
    pub seed: u64,
    pub end_to_end: Vec<(Def, Summary)>,
    /// All of them from a traced plan; otherwise only the counts and host
    /// readings of the timed reps.
    pub per_layer: Vec<(Def, Summary)>,
    pub attempted: u64,
    pub failed: u64,
    pub file_hash: String,
    /// Exact metrics, output hash and attempt counts agreed across reps.
    pub deterministic: bool,
}

impl WorkloadResult {
    pub fn new(name: &'static str, seed: u64) -> WorkloadResult {
        WorkloadResult {
            name,
            seed,
            end_to_end: Vec::new(),
            per_layer: Vec::new(),
            attempted: 0,
            failed: 0,
            file_hash: String::new(),
            deterministic: true,
        }
    }

    pub fn end_to_end_median(&self, name: &str) -> f64 {
        self.end_to_end
            .iter()
            .find(|(d, _)| d.name == name)
            .map(|(_, s)| s.median)
            .unwrap_or_else(|| panic!("no end-to-end metric {name}"))
    }

    pub fn correct(&self) -> bool {
        self.attempted > 0 && self.failed == 0 && self.deterministic
    }

    pub fn fail_share(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "== {} (seed {}) == fail_share {} ({} of {} attempts), files {}{}",
            self.name,
            self.seed,
            self.fail_share(),
            self.failed,
            self.attempted,
            self.file_hash,
            if self.deterministic {
                ""
            } else {
                ", NOT DETERMINISTIC"
            }
        );
        let mut row = |name: &str, unit: &str, s: &Summary| {
            let _ = writeln!(
                out,
                "  {name:<32} {:>16.6} {unit:<10} min {:<14.6} max {:<14.6} n {}",
                s.median, s.min, s.max, s.n
            );
        };
        for (d, s) in &self.end_to_end {
            row(d.name, d.unit, s);
        }
        for (d, s) in &self.per_layer {
            row(d.name, d.unit, s);
        }
        out
    }

    /// The one-line JSON object `BENCHMARK.json`'s driver reads.
    pub fn driver_json(&self, per_layer: bool) -> String {
        let metrics: Vec<String> = if per_layer {
            self.per_layer
                .iter()
                .map(|(d, s)| metric_json(d.name, d.unit, s.median))
                .collect()
        } else {
            self.end_to_end
                .iter()
                .map(|(d, s)| metric_json(d.name, d.unit, s.median))
                .collect()
        };
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

fn metric_json(name: &str, unit: &str, value: f64) -> String {
    format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
}

fn summary_json(unit: &str, s: &Summary) -> Json {
    Json::obj()
        .with("unit", Json::str(unit))
        .with("median", Json::Num(s.median))
        .with("min", Json::Num(s.min))
        .with("max", Json::Num(s.max))
        .with("n", Json::Num(s.n as f64))
}

pub fn render_cells(cells: &[Line]) -> String {
    let mut out = String::from("== layer cells ==\n");
    for c in cells {
        let s = c.summary().expect("cell line");
        let _ = writeln!(
            out,
            "  {:<36} {:>14.3} {:<6} min {:<12.3} max {:<12.3} n {} ops {}",
            c.name,
            s.median,
            c.unit,
            s.min,
            s.max,
            s.n,
            c.ops()
        );
    }
    out
}

/// The results file: every workload's metrics with median, min, max and
/// n, and the layer cells as `{name, unit, median, min, max, n, ops}`.
pub fn results_json(seed: u64, results: &[WorkloadResult], cells: &[Line]) -> String {
    let section = |rows: &[(Def, Summary)]| {
        rows.iter().fold(Json::obj(), |obj, (d, s)| {
            obj.with(d.name, summary_json(d.unit, s))
        })
    };
    let workloads = results.iter().fold(Json::obj(), |obj, r| {
        obj.with(
            r.name,
            Json::obj()
                .with("attempted", Json::Num(r.attempted as f64))
                .with("failed", Json::Num(r.failed as f64))
                .with("fail_share", Json::Num(r.fail_share()))
                .with("file_hash", Json::str(r.file_hash.as_str()))
                .with("deterministic", Json::Bool(r.deterministic))
                .with("end_to_end", section(&r.end_to_end))
                .with("per_layer", section(&r.per_layer)),
        )
    });
    let cells = cells
        .iter()
        .map(|c| {
            let s = c.summary().expect("cell line");
            Json::obj()
                .with("name", Json::str(c.name.as_str()))
                .with("unit", Json::str(c.unit.as_str()))
                .with("median", Json::Num(s.median))
                .with("min", Json::Num(s.min))
                .with("max", Json::Num(s.max))
                .with("n", Json::Num(s.n as f64))
                .with("ops", Json::Num(c.ops() as f64))
        })
        .collect();
    Json::obj()
        .with("schema", Json::Num(1.0))
        .with("seed", Json::Num(seed as f64))
        .with("workloads", workloads)
        .with("cells", Json::Arr(cells))
        .render()
}

/// `BENCHMARK.json`, from the catalog and the workload list, so the file
/// the driver reads cannot drift from what the program prints.
pub fn manifest_json() -> String {
    let strings = |items: &[&str]| Json::Arr(items.iter().map(|s| Json::str(s)).collect());
    let metric = |d: &Def| {
        let m = Json::obj()
            .with("name", Json::str(d.name))
            .with("unit", Json::str(d.unit))
            .with("better", Json::str(d.better));
        match d.bound {
            Some(bound) => m.with("bound", Json::Num(bound)),
            None => m,
        }
    };
    let workloads = crate::suite::WORKLOADS
        .iter()
        .map(|(name, why)| {
            Json::obj()
                .with("name", Json::str(name))
                .with("why", Json::str(why))
        })
        .collect();
    Json::obj()
        .with("command", strings(&["bash", "benchmark/run.sh"]))
        .with("paths", strings(&["benchmark"]))
        .with("run_seconds", Json::Num(RUN_SECONDS as f64))
        .with("workloads", Json::Arr(workloads))
        .with(
            "end_to_end",
            Json::Arr(END_TO_END.iter().map(metric).collect()),
        )
        .with(
            "per_layer",
            Json::Arr(PER_LAYER.iter().map(metric).collect()),
        )
        .render()
}

#[cfg(test)]
mod tests {
    #[test]
    fn benchmark_json_is_the_manifest() {
        assert_eq!(
            include_str!("../../BENCHMARK.json"),
            super::manifest_json(),
            "BENCHMARK.json is stale: regenerate it with `simbench manifest`"
        );
    }
}
