//! The one baseline gate: an exact, whole-document leaf diff.
//!
//! Every run on the event core is bit-reproducible (on either substrate),
//! so a committed baseline is not "within tolerance" of a fresh run — it
//! *is* the fresh run, or something changed. [`rerun`] runs an experiment
//! again with the `args` its baseline records; [`verdict`] compares every
//! leaf of the two documents exactly (numbers by bit pattern) and then
//! checks the experiment's headline claims on the fresh result. There is no
//! tolerance, direction or exemption to configure: a cost-model change
//! that moves a number is answered with `bench bless` and a diff of the
//! baseline in review.

use crate::registry::{Args, Experiment, EXPERIMENTS};
use crate::report::{write_json_file, Json};
use std::collections::BTreeMap;
use std::fmt;
use std::path::{Path, PathBuf};

/// One leaf that differs between baseline and fresh; `None` = absent.
#[derive(Debug)]
pub struct LeafDiff {
    pub path: String,
    pub baseline: Option<Json>,
    pub fresh: Option<Json>,
}

impl fmt::Display for LeafDiff {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let show = |v: &Option<Json>| match v {
            Some(j) => j.render().trim_end().to_string(),
            None => "(absent)".to_string(),
        };
        write!(
            f,
            "{}: baseline {} fresh {}",
            self.path,
            show(&self.baseline),
            show(&self.fresh)
        )?;
        if let (Some(Json::Num(b)), Some(Json::Num(n))) = (&self.baseline, &self.fresh) {
            write!(f, " ({:+.3e} relative)", (n - b) / b.abs())?;
        }
        Ok(())
    }
}

fn same(a: &Json, b: &Json) -> bool {
    match (a, b) {
        (Json::Num(x), Json::Num(y)) => x.to_bits() == y.to_bits(),
        _ => a == b,
    }
}

/// Every leaf that is changed, removed or added, in baseline order
/// (additions last).
pub fn diff(baseline: &Json, fresh: &Json) -> Vec<LeafDiff> {
    let (base, new) = (baseline.leaves(), fresh.leaves());
    let new_at: BTreeMap<&str, &Json> = new.iter().map(|(p, v)| (p.as_str(), *v)).collect();
    let base_at: BTreeMap<&str, &Json> = base.iter().map(|(p, v)| (p.as_str(), *v)).collect();
    let entry = |path: &str, b: Option<&Json>, n: Option<&Json>| LeafDiff {
        path: path.to_string(),
        baseline: b.cloned(),
        fresh: n.cloned(),
    };
    let changed = base
        .iter()
        .filter_map(|(path, b)| match new_at.get(path.as_str()) {
            Some(n) if same(b, n) => None,
            n => Some(entry(path, Some(b), n.copied())),
        });
    let added = new
        .iter()
        .filter(|(path, _)| !base_at.contains_key(path.as_str()))
        .map(|(path, n)| entry(path, None, Some(n)));
    changed.chain(added).collect()
}

/// The verdict on one experiment given both documents: no differing leaf,
/// and the claims hold on the fresh result.
pub fn verdict(e: &Experiment, baseline: &Json, fresh: &Json) -> Result<(), String> {
    let diffs = diff(baseline, fresh);
    if !diffs.is_empty() {
        let lines: Vec<String> = diffs.iter().map(|d| format!("\n  {d}")).collect();
        return Err(format!("{} leaves differ:{}", diffs.len(), lines.concat()));
    }
    let gate = e
        .gate
        .as_ref()
        .expect("only gated experiments have a verdict");
    let result = fresh.get("result").ok_or("document has no result")?;
    (gate.claims)(result).map_err(|why| format!("claim failed: {why}"))
}

/// Re-run `e` with the args `baseline` records and return the fresh
/// document.
pub fn rerun(e: &Experiment, baseline: &Json) -> Result<Json, String> {
    let recorded = baseline.get("args").ok_or("baseline records no args")?;
    Ok(e.document(&Args::from_recorded(e.opts, recorded)?))
}

fn gated(root: &Path) -> impl Iterator<Item = (&'static Experiment, PathBuf)> + '_ {
    EXPERIMENTS.iter().filter_map(move |e| {
        let gate = e.gate.as_ref()?;
        Some((e, root.join("bench_results").join(gate.baseline)))
    })
}

/// `bench gate`: check every committed baseline under
/// `<root>/bench_results/`. Returns whether all of them passed.
pub fn gate(root: &Path) -> bool {
    let mut passed = true;
    for (e, path) in gated(root) {
        let outcome = std::fs::read_to_string(&path)
            .map_err(|err| err.to_string())
            .and_then(|text| Json::parse(&text))
            .and_then(|baseline| verdict(e, &baseline, &rerun(e, &baseline)?));
        match outcome {
            Ok(()) => println!("gate ok    {} == {}", e.name, path.display()),
            Err(why) => {
                passed = false;
                println!("gate FAIL  {} vs {}: {why}", e.name, path.display());
            }
        }
    }
    passed
}

/// `bench bless`: rewrite every baseline at the table's default options.
/// (A baseline on another grid is written with `bench <name> … --json
/// <file>`; the gate replays whatever args the file records.)
pub fn bless(root: &Path) -> std::io::Result<()> {
    for (e, path) in gated(root) {
        write_json_file(&path, &e.document(&Args::defaults(e.opts)))?;
    }
    Ok(())
}
