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
//!   pairs a fingerprint's lines with the pinned ones by `[cell]` and first
//!   word, and names the first line that moved, was added or was removed.
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

/// Check `got` against the golden file at `path`, pairing each line with
/// the pinned line of the same `[cell]`, first word and occurrence of that
/// word. A mismatch names the first moved line, its `[cell]` and both
/// texts, or else the first line added or removed, and counts all three
/// kinds. Under `BLESS=1` the file is rewritten with `got` instead and a
/// `moved-pins` line is printed.
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
    let d = LineDiff::new(&want, &have);
    let counts = format!(
        "{} moved, {}, {}",
        d.moved.len(),
        d.added().show("added"),
        d.removed().show("removed")
    );
    if let Some(&(n, m)) = d.moved.first() {
        let cell = d.want[n].cell;
        let within = if cell.is_empty() {
            String::new()
        } else {
            format!(" in cell {cell}")
        };
        return Err(format!(
            "{shown}:{} diverged{within}: {counts}\n  pinned: {}\n  got:    {}",
            n + 1,
            want[n],
            have[m]
        ));
    }
    if let Some(first) = d.first() {
        return Err(format!(
            "{shown}: {} lines pinned, {} got: {counts}; first {first}",
            want.len(),
            have.len(),
        ));
    }
    if pinned == got {
        Ok(())
    } else if want == have {
        Err(format!(
            "{shown}: every line agrees but the line endings differ"
        ))
    } else {
        Err(format!(
            "{shown}: every line agrees but their order differs"
        ))
    }
}

/// What pairs a golden line with its re-run: its `[cell]` (the nearest
/// line at or above it that starts with `[`, empty in a headerless file),
/// its first word (up to whitespace or a comma, so a JSON trace line is
/// keyed by its name) and how many earlier lines of that cell share the
/// word. A header line's word is the header itself.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Key<'a> {
    cell: &'a str,
    word: &'a str,
    nth: usize,
}

impl<'a> Key<'a> {
    /// The key of every line, in order.
    fn all(lines: &[&'a str]) -> Vec<Key<'a>> {
        let mut seen: BTreeMap<(&str, &str), usize> = BTreeMap::new();
        let mut cell = "";
        let mut keys = Vec::with_capacity(lines.len());
        for &line in lines {
            let word = if line.starts_with('[') {
                cell = line;
                line
            } else {
                let mut words = line.split(|c: char| c.is_whitespace() || c == ',');
                words.next().unwrap_or_default()
            };
            let nth = seen.entry((cell, word)).or_default();
            keys.push(Key {
                cell,
                word,
                nth: *nth,
            });
            *nth += 1;
        }
        keys
    }

    fn is_header(&self) -> bool {
        self.word.starts_with('[')
    }
}

impl fmt::Display for Key<'_> {
    /// `[cell] word#nth`, without the parts a line does not have.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let clip = |s: &str| s.chars().take(60).collect::<String>();
        match (self.is_header(), self.cell.is_empty()) {
            (true, _) => write!(f, "{}", clip(self.cell))?,
            (false, true) => write!(f, "{}", clip(self.word))?,
            (false, false) => write!(f, "{} {}", clip(self.cell), clip(self.word))?,
        }
        if self.nth > 0 {
            write!(f, "#{}", self.nth)?;
        }
        Ok(())
    }
}

/// A golden file against its re-run, paired by [`Key`]. Line numbers are
/// 0-based indices into the pinned (`want`) or fresh (`have`) file, in
/// file order.
struct LineDiff<'a> {
    want: Vec<Key<'a>>,
    have: Vec<Key<'a>>,
    /// Keys in both files whose text differs: `(pinned, fresh)`.
    moved: Vec<(usize, usize)>,
    /// Fresh lines whose key the pin lacks.
    added: Vec<usize>,
    /// Pinned lines whose key the fresh run lacks.
    removed: Vec<usize>,
}

impl<'a> LineDiff<'a> {
    fn new(want: &[&'a str], have: &[&'a str]) -> LineDiff<'a> {
        let (want_keys, have_keys) = (Key::all(want), Key::all(have));
        let at = |keys: &[Key<'a>]| -> BTreeMap<Key<'a>, usize> {
            keys.iter().enumerate().map(|(n, &k)| (k, n)).collect()
        };
        let (want_at, have_at) = (at(&want_keys), at(&have_keys));
        let (mut moved, mut removed) = (Vec::new(), Vec::new());
        for (n, key) in want_keys.iter().enumerate() {
            match have_at.get(key) {
                Some(&m) if want[n] != have[m] => moved.push((n, m)),
                Some(_) => {}
                None => removed.push(n),
            }
        }
        let added = (0..have.len())
            .filter(|&m| !want_at.contains_key(&have_keys[m]))
            .collect();
        LineDiff {
            want: want_keys,
            have: have_keys,
            moved,
            added,
            removed,
        }
    }

    fn added(&self) -> Tally {
        Tally::of(&self.added, &self.have)
    }

    fn removed(&self) -> Tally {
        Tally::of(&self.removed, &self.want)
    }

    /// The first line that moved or was removed, in pinned order, else the
    /// first one added: `line <n> <key>`, numbered in the file it is in.
    fn first(&self) -> Option<String> {
        let moved = self.moved.first().map(|&(n, _)| n);
        match [moved, self.removed.first().copied()]
            .into_iter()
            .flatten()
            .min()
        {
            Some(n) => Some(format!("line {} {}", n + 1, self.want[n])),
            None => self
                .added
                .first()
                .map(|&m| format!("line {} {}", m + 1, self.have[m])),
        }
    }
}

/// How many lines (or leaves) were added or removed, and how many whole
/// `[cell]`s (header lines) are among them.
#[derive(Clone, Copy)]
struct Tally {
    n: usize,
    cells: usize,
}

impl Tally {
    fn of(lines: &[usize], keys: &[Key]) -> Tally {
        let cells = lines.iter().filter(|&&n| keys[n].is_header()).count();
        Tally {
            n: lines.len(),
            cells,
        }
    }

    /// `3 removed`, `3 removed (1 cell)`.
    fn show(self, verb: &str) -> String {
        let n = self.n;
        match self.cells {
            0 => format!("{n} {verb}"),
            1 => format!("{n} {verb} (1 cell)"),
            cells => format!("{n} {verb} ({cells} cells)"),
        }
    }
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
/// leaves), those added and removed, the first that differs, and the
/// relative changes of the decimal numbers that moved (against a non-zero
/// pinned value).
struct Moved {
    path: String,
    unit: &'static str,
    moved: usize,
    total: usize,
    added: Tally,
    removed: Tally,
    first: Option<String>,
    relative: Vec<f64>,
}

impl Moved {
    /// A text file: lines paired by [`Key`].
    fn lines(path: &Path, pinned: &str, got: &str) -> Moved {
        let (want, have): (Vec<&str>, Vec<&str>) =
            (pinned.lines().collect(), got.lines().collect());
        let d = LineDiff::new(&want, &have);
        let mut relative = Vec::new();
        for &(n, m) in &d.moved {
            let (a, b) = (decimals(want[n]), decimals(have[m]));
            if a.len() == b.len() {
                let pairs = a.iter().zip(&b).filter(|(x, y)| x != y && **x != 0.0);
                relative.extend(pairs.map(|(x, y)| (y - x) / x.abs()));
            }
        }
        Moved {
            path: path.display().to_string(),
            unit: "lines",
            moved: d.moved.len(),
            total: have.len(),
            added: d.added(),
            removed: d.removed(),
            first: d.first(),
            relative,
        }
    }

    /// A JSON document: leaves paired by path.
    fn leaves(path: &Path, pinned: &Json, fresh: &Json) -> Moved {
        let diffs = diff(pinned, fresh);
        let count = |absent: fn(&LeafDiff) -> bool| Tally {
            n: diffs.iter().filter(|d| absent(d)).count(),
            cells: 0,
        };
        let added = count(|d| d.baseline.is_none());
        let removed = count(|d| d.fresh.is_none());
        Moved {
            path: path.display().to_string(),
            unit: "leaves",
            moved: diffs.len() - added.n - removed.n,
            total: fresh.leaves().len(),
            added,
            removed,
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
    /// One line, starting `moved-pins <path>: <moved>/<total> <unit>` (and
    /// `, <n> added, <n> removed` when either is not zero), which
    /// `scripts/repin.sh` collects and sums.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (path, moved, total, unit) = (&self.path, self.moved, self.total, self.unit);
        write!(f, "moved-pins {path}: {moved}/{total} {unit}")?;
        if self.added.n + self.removed.n > 0 {
            let (added, removed) = (self.added.show("added"), self.removed.show("removed"));
            write!(f, ", {added}, {removed}")?;
        }
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

    /// [`PINNED`] with a third cell, and the same without its middle one.
    const THREE: &str = "[a]\nx 1\n[b]\ny 100 3f6711b3a30de91a\nz 2\n[c]\nx 3\n";
    const NO_MIDDLE: &str = "[a]\nx 1\n[c]\nx 3\n";

    /// A golden file in the temp dir holding `text`, removed on drop.
    struct TempGolden(PathBuf);

    impl TempGolden {
        fn new(name: &str, text: &str) -> TempGolden {
            let path = std::env::temp_dir().join(format!("{name}-{}.txt", std::process::id()));
            std::fs::write(&path, text).unwrap();
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
        let file = TempGolden::new("perfgate-golden", PINNED);
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

        let swapped = "[b]\ny 100 3f6711b3a30de91a\nz 2\n[a]\nx 1\n";
        let why = diff_golden(&file.0, swapped).unwrap_err();
        assert!(why.contains("order differs"), "{why}");

        let missing = file.0.with_extension("absent");
        assert!(diff_golden(&missing, PINNED).is_err());

        // Cells are paired by key, not by position: the lines after a
        // dropped cell have not moved.
        let three = TempGolden::new("perfgate-golden-three", THREE);
        let why = diff_golden(&three.0, NO_MIDDLE).unwrap_err();
        assert!(
            why.contains("7 lines pinned, 4 got: 0 moved, 0 added, 3 removed (1 cell)"),
            "{why}"
        );
        assert!(why.ends_with("; first line 3 [b]"), "{why}");
    }

    #[test]
    fn the_moved_report_counts_lines_and_the_decimals_that_moved() {
        let file = TempGolden::new("perfgate-moved", PINNED);
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
        assert!(
            longer.ends_with(": 0/6 lines, 1 added, 0 removed; first line 6 [b] w"),
            "{longer}"
        );

        // The lines after a dropped cell keep their keys, so none moved;
        // a repeated first word in a cell is keyed by its occurrence.
        let dropped = Moved::lines(&file.0, THREE, NO_MIDDLE).to_string();
        assert!(
            dropped.ends_with(": 0/4 lines, 0 added, 3 removed (1 cell); first line 3 [b]"),
            "{dropped}"
        );
        let again = format!("{PINNED}y 5\n");
        let twice = Moved::lines(&file.0, &again, &again.replace("y 5", "y 6")).to_string();
        assert!(
            twice.contains(": 1/6 lines; first line 6 [b] y#1"),
            "{twice}"
        );

        let doc = |x: f64| Json::obj().with("r", Json::obj().with("a", Json::num(x)));
        let leaf = Moved::leaves(&file.0, &doc(2.0), &doc(3.0)).to_string();
        assert!(
            leaf.contains(": 1/1 leaves; first r.a; 1 numbers moved"),
            "{leaf}"
        );
        assert!(leaf.ends_with("max 5.000e-1 median 5.000e-1"), "{leaf}");
        let wider = doc(2.0).with("s", Json::num(1.0));
        let leaf = Moved::leaves(&file.0, &doc(2.0), &wider).to_string();
        assert!(
            leaf.ends_with(": 0/2 leaves, 1 added, 0 removed; first s"),
            "{leaf}"
        );
    }

    #[test]
    fn decimals_skip_hex_words_and_keep_signs_and_exponents() {
        let line = "t=3f528fc10bb3e8ce n: 240, ts:0.500 30+4196 -2.5e-3 inf";
        assert_eq!(decimals(line), [240.0, 0.5, 30.0, 4196.0, -2.5e-3]);
    }
}
