//! The one pin mechanism: every bit-exact pin in the repo is checked here.
//!
//! Every run on the event core is bit-reproducible (on either substrate),
//! so a pinned value is not "within tolerance" of a fresh run — it *is*
//! the fresh run, or something changed. Two kinds of pin exist, and both
//! go through this module:
//!
//! - the committed baselines under `bench_results/`: [`check_baseline`]
//!   re-runs an experiment with the `args` its baseline records, compares
//!   every leaf of the two documents exactly (numbers by bit pattern) and
//!   then checks the experiment's headline claims on the fresh result
//!   ([`verdict`]);
//! - the golden text files under `tests/golden/`: [`check_golden`]
//!   compares a fingerprint line by line and names the first diverging
//!   line and its `[cell]`.
//!
//! There is no tolerance, direction or exemption to configure. Under
//! `BLESS=1` — read here and nowhere else — both checks rewrite their file
//! from the fresh run instead of failing, and print one `moved-pins` line
//! saying what moved. `scripts/repin.sh` runs every pin that way after an
//! intentional model change and sums the report; review the diff.

use crate::registry::{Args, Experiment, EXPERIMENTS};
use crate::report::{write_json_file, Json};
use std::collections::BTreeMap;
use std::fmt;
use std::path::{Path, PathBuf};

/// One leaf that differs between baseline and fresh; `None` = absent.
struct LeafDiff {
    path: String,
    baseline: Option<Json>,
    fresh: Option<Json>,
}

impl LeafDiff {
    /// `(fresh − baseline) / |baseline|` when both are numbers.
    fn relative(&self) -> Option<f64> {
        match (&self.baseline, &self.fresh) {
            (Some(Json::Num(b)), Some(Json::Num(n))) => Some((n - b) / b.abs()),
            _ => None,
        }
    }
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
        if let Some(rel) = self.relative() {
            write!(f, " ({rel:+.3e} relative)")?;
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
fn diff(baseline: &Json, fresh: &Json) -> Vec<LeafDiff> {
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
    claims(e, fresh)
}

fn claims(e: &Experiment, fresh: &Json) -> Result<(), String> {
    let gate = e
        .gate
        .as_ref()
        .expect("only gated experiments have a verdict");
    let result = fresh.get("result").ok_or("document has no result")?;
    (gate.claims)(result).map_err(|why| format!("claim failed: {why}"))
}

/// Re-run `e` with the args `baseline` records and return the fresh
/// document.
fn rerun(e: &Experiment, baseline: &Json) -> Result<Json, String> {
    let recorded = baseline.get("args").ok_or("baseline records no args")?;
    Ok(e.document(&Args::from_recorded(e.opts, recorded)?))
}

/// Check the baseline at `path` against a rerun of `e` and return the
/// fresh document. Under `BLESS=1` the file is rewritten from that rerun
/// instead of failing on a moved leaf; the claims gate either way.
pub fn check_baseline(e: &Experiment, path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|err| format!("{}: {err}", path.display()))?;
    let baseline = Json::parse(&text)?;
    let fresh = rerun(e, &baseline)?;
    if blessing() {
        write_json_file(path, &fresh).map_err(|err| format!("{}: {err}", path.display()))?;
        eprintln!("{}", Moved::leaves(path, &baseline, &fresh));
        claims(e, &fresh)?;
    } else {
        verdict(e, &baseline, &fresh)?;
    }
    Ok(fresh)
}

/// `bench gate`: check every committed baseline under
/// `<root>/bench_results/`. Returns whether all of them passed.
pub fn gate(root: &Path) -> bool {
    let mut passed = true;
    for (e, path) in gated(root) {
        match check_baseline(e, &path) {
            Ok(_) => println!("gate ok    {} == {}", e.name, path.display()),
            Err(why) => {
                passed = false;
                println!("gate FAIL  {} vs {}: {why}", e.name, path.display());
            }
        }
    }
    passed
}

fn gated(root: &Path) -> impl Iterator<Item = (&'static Experiment, PathBuf)> + '_ {
    EXPERIMENTS.iter().filter_map(move |e| {
        let gate = e.gate.as_ref()?;
        Some((e, root.join("bench_results").join(gate.baseline)))
    })
}

/// Whether this run re-pins: the one reader of `BLESS` in the repo.
fn blessing() -> bool {
    std::env::var_os("BLESS").is_some()
}

/// FNV-1a over `bytes`: the fingerprint tests' one hash of a buffer.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Check `got` against the golden file at `path`, line by line. A
/// mismatch names the first diverging line, its `[cell]` (the nearest line
/// above it that starts with `[`) and both texts; a file that only differs
/// in length says so. Under `BLESS=1` the file is rewritten with `got`
/// instead and a `moved-pins` line is printed.
pub fn check_golden(path: impl AsRef<Path>, got: &str) -> Result<(), String> {
    let path = path.as_ref();
    if !blessing() {
        return diff_golden(path, got);
    }
    let pinned = std::fs::read_to_string(path).unwrap_or_default();
    std::fs::write(path, got).map_err(|err| format!("{}: {err}", path.display()))?;
    eprintln!("{}", Moved::lines(path, &pinned, got));
    Ok(())
}

/// [`check_golden`] when not re-pinning.
fn diff_golden(path: &Path, got: &str) -> Result<(), String> {
    let shown = path.display();
    let pinned = std::fs::read_to_string(path)
        .map_err(|err| format!("{shown}: {err} (scripts/repin.sh writes it)"))?;
    let (want, have): (Vec<&str>, Vec<&str>) = (pinned.lines().collect(), got.lines().collect());
    match first_moved(&want, &have) {
        Some(n) if n < want.len().min(have.len()) => Err(format!(
            "{shown}:{} diverged{}\n  pinned: {}\n  got:    {}",
            n + 1,
            cell_of(&want, n).map_or(String::new(), |c| format!(" in cell {c}")),
            want[n],
            have[n]
        )),
        Some(n) => Err(format!(
            "{shown}: {} lines pinned, {} got (the first {n} agree)",
            want.len(),
            have.len(),
        )),
        None if pinned != got => Err(format!(
            "{shown}: every line agrees but the line endings differ"
        )),
        None => Ok(()),
    }
}

/// The first line at which `want` and `have` differ, in content or (past
/// the shorter) in length.
fn first_moved(want: &[&str], have: &[&str]) -> Option<usize> {
    let common = want.len().min(have.len());
    let changed = (0..common).find(|&n| want[n] != have[n]);
    changed.or((want.len() != have.len()).then_some(common))
}

/// The `[cell]` header line `n` sits under, if the file has one above it.
fn cell_of<'a>(lines: &[&'a str], n: usize) -> Option<&'a str> {
    lines[..=n]
        .iter()
        .rev()
        .find(|l| l.starts_with('['))
        .copied()
}

/// The decimal numbers of a line, in order: the tokens between
/// punctuation that parse as finite numbers (so `12`, `0.25`, `-3e-5`,
/// but no 16-digit hex word or hash).
fn decimals(line: &str) -> Vec<f64> {
    line.split(|c: char| !(c.is_ascii_alphanumeric() || matches!(c, '.' | '-' | '_')))
        .filter(|t| t.starts_with(|c: char| c.is_ascii_digit() || c == '-' || c == '.'))
        .filter_map(|t| t.parse::<f64>().ok().filter(|x| x.is_finite()))
        .collect()
}

/// What one re-pin moved in one pinned file: `moved` of `total` lines (or
/// leaves), the first one that moved, and the relative changes of the
/// decimal numbers that moved (against a non-zero pinned value).
struct Moved {
    path: String,
    unit: &'static str,
    moved: usize,
    total: usize,
    first: Option<String>,
    relative: Vec<f64>,
}

impl Moved {
    /// A text file: lines compared by position.
    fn lines(path: &Path, pinned: &str, got: &str) -> Moved {
        let (want, have): (Vec<&str>, Vec<&str>) =
            (pinned.lines().collect(), got.lines().collect());
        let common = want.len().min(have.len());
        let changed: Vec<usize> = (0..common).filter(|&n| want[n] != have[n]).collect();
        let mut relative = Vec::new();
        for &n in &changed {
            let (a, b) = (decimals(want[n]), decimals(have[n]));
            if a.len() == b.len() {
                let pairs = a.iter().zip(&b).filter(|(x, y)| x != y && **x != 0.0);
                relative.extend(pairs.map(|(x, y)| (y - x) / x.abs()));
            }
        }
        Moved {
            path: path.display().to_string(),
            unit: "lines",
            moved: changed.len() + want.len().abs_diff(have.len()),
            total: have.len(),
            first: first_moved(&want, &have).map(|n| {
                // A headerless file (one pin per line) names the line by
                // its first word instead.
                let lines = if n < want.len() { &want } else { &have };
                let name = cell_of(lines, n)
                    .or_else(|| lines[n].split_whitespace().next())
                    .unwrap_or("");
                format!(
                    "line {} {}",
                    n + 1,
                    name.chars().take(60).collect::<String>()
                )
            }),
            relative,
        }
    }

    /// A JSON document: leaves compared by path.
    fn leaves(path: &Path, pinned: &Json, fresh: &Json) -> Moved {
        let diffs = diff(pinned, fresh);
        Moved {
            path: path.display().to_string(),
            unit: "leaves",
            moved: diffs.len(),
            total: fresh.leaves().len(),
            first: diffs.first().map(|d| d.path.clone()),
            relative: diffs
                .iter()
                .filter_map(LeafDiff::relative)
                .filter(|r| r.is_finite())
                .collect(),
        }
    }
}

impl fmt::Display for Moved {
    /// One line, starting `moved-pins <path>: <moved>/<total>`, which
    /// `scripts/repin.sh` collects and sums.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (path, moved, total, unit) = (&self.path, self.moved, self.total, self.unit);
        write!(f, "moved-pins {path}: {moved}/{total} {unit}")?;
        if let Some(first) = &self.first {
            write!(f, "; first {first}")?;
        }
        let mut rel: Vec<f64> = self.relative.iter().map(|r| r.abs()).collect();
        rel.sort_by(f64::total_cmp);
        if let (Some(max), Some(median)) = (rel.last(), rel.get(rel.len() / 2)) {
            let n = rel.len();
            write!(
                f,
                "; {n} numbers moved, |relative| max {max:.3e} median {median:.3e}"
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const PINNED: &str = "[a]\nx 1\n[b]\ny 100 3f6711b3a30de91a\nz 2\n";

    /// A golden file in the temp dir holding [`PINNED`], removed on drop.
    struct TempGolden(PathBuf);

    impl TempGolden {
        fn new(name: &str) -> TempGolden {
            let path = std::env::temp_dir().join(format!("{name}-{}.txt", std::process::id()));
            std::fs::write(&path, PINNED).unwrap();
            TempGolden(path)
        }
    }

    impl Drop for TempGolden {
        fn drop(&mut self) {
            let _ = std::fs::remove_file(&self.0);
        }
    }

    #[test]
    fn a_golden_mismatch_names_its_line_and_cell_or_its_length() {
        let file = TempGolden::new("perfgate-golden");
        assert_eq!(diff_golden(&file.0, PINNED), Ok(()));

        let edited = PINNED.replace("y 100", "y 101");
        let why = diff_golden(&file.0, &edited).unwrap_err();
        assert!(why.contains(":4 diverged in cell [b]"), "{why}");
        assert!(
            why.contains("pinned: y 100") && why.contains("got:    y 101"),
            "{why}"
        );

        let dropped = PINNED.strip_suffix("z 2\n").unwrap();
        let why = diff_golden(&file.0, dropped).unwrap_err();
        assert!(why.contains("5 lines pinned, 4 got"), "{why}");

        let why = diff_golden(&file.0, PINNED.trim_end()).unwrap_err();
        assert!(why.contains("line endings"), "{why}");

        let missing = file.0.with_extension("absent");
        assert!(diff_golden(&missing, PINNED).is_err());
    }

    #[test]
    fn the_moved_report_counts_lines_and_the_decimals_that_moved() {
        let file = TempGolden::new("perfgate-moved");
        let same = Moved::lines(&file.0, PINNED, PINNED).to_string();
        assert!(same.ends_with(": 0/5 lines"), "{same}");

        // The hex word changes too, but only decimals count as numbers.
        let edited = PINNED.replace("y 100 3f6711b3a30de91a", "y 101 3f6711b3a30de91b");
        let one = Moved::lines(&file.0, PINNED, &edited).to_string();
        assert!(one.starts_with("moved-pins "), "{one}");
        assert!(one.contains(": 1/5 lines; first line 4 [b]"), "{one}");
        assert!(
            one.contains("1 numbers moved, |relative| max 1.000e-2"),
            "{one}"
        );

        let grown = format!("{PINNED}w 7\n");
        let longer = Moved::lines(&file.0, PINNED, &grown).to_string();
        assert!(longer.contains(": 1/6 lines; first line 6 [b]"), "{longer}");

        let doc = |x: f64| Json::obj().with("r", Json::obj().with("a", Json::num(x)));
        let leaf = Moved::leaves(&file.0, &doc(2.0), &doc(3.0)).to_string();
        assert!(
            leaf.contains(": 1/1 leaves; first r.a; 1 numbers moved"),
            "{leaf}"
        );
        assert!(leaf.ends_with("max 5.000e-1 median 5.000e-1"), "{leaf}");
    }

    #[test]
    fn decimals_skip_hex_words_and_keep_signs_and_exponents() {
        let line = "t=3f528fc10bb3e8ce n: 240, ts:0.500 30+4196 -2.5e-3 inf";
        assert_eq!(decimals(line), [240.0, 0.5, 30.0, 4196.0, -2.5e-3]);
    }
}
