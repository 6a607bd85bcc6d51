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
//!   pairs a fingerprint's lines with the pinned ones by `[cell]` and
//!   leading word, and names the first line that moved, was added or was
//!   removed.
//!
//! There is no tolerance, direction or exemption to configure. Under
//! `BLESS=1` — read here and nowhere else — both checks rewrite their file
//! from the fresh run instead of failing, and print one `moved-pins` line
//! saying what moved. `scripts/repin.sh` runs every pin that way after an
//! intentional model change and sums the report; review the diff.

use crate::registry::{Args, Experiment, EXPERIMENTS};
use crate::report::{write_json_file, Json};
use std::collections::{BTreeMap, BTreeSet};
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

/// The longest common subsequence of identical elements of `a` and `b`,
/// as ascending index pairs.
fn lcs(a: &[Json], b: &[Json]) -> Vec<(usize, usize)> {
    let eq = |i: usize, j: usize| DocDiff::new(&a[i], &b[j]).leaves.is_empty();
    // `len[i][j]`: the length of the LCS of `a[i..]` and `b[j..]`.
    let mut len = vec![vec![0u32; b.len() + 1]; a.len() + 1];
    for i in (0..a.len()).rev() {
        for j in (0..b.len()).rev() {
            len[i][j] = match eq(i, j) {
                true => len[i + 1][j + 1] + 1,
                false => len[i + 1][j].max(len[i][j + 1]),
            };
        }
    }
    let (mut i, mut j, mut pairs) = (0, 0, Vec::new());
    while i < a.len() && j < b.len() {
        if eq(i, j) {
            pairs.push((i, j));
            j += 1;
        } else if len[i + 1][j] < len[i][j + 1] {
            j += 1;
            continue;
        }
        i += 1;
    }
    pairs
}

/// Everything one document differs from another in: each leaf changed,
/// removed or added, and how many whole array elements were removed and
/// added. Object members pair by name and array elements by index, except
/// in two arrays of different lengths: those pair the longest common
/// subsequence of identical elements and remove or add the others whole,
/// so a cell deleted from the middle of a grid moves no later one.
#[derive(Default)]
struct DocDiff {
    leaves: Vec<LeafDiff>,
    elements_removed: usize,
    elements_added: usize,
}

impl DocDiff {
    fn new(baseline: &Json, fresh: &Json) -> DocDiff {
        let mut d = DocDiff::default();
        d.walk(Some(baseline), Some(fresh), "");
        d
    }

    /// `b` against `f` at `path`; `None` is absent.
    fn walk(&mut self, b: Option<&Json>, f: Option<&Json>, path: &str) {
        let at = |key: &str| match (path, key) {
            ("", k) | (k, "") => k.to_string(),
            (p, k) => format!("{p}.{k}"),
        };
        let leaf = |j: &Json| matches!(j.leaves().as_slice(), [(p, _)] if p.is_empty());
        match (b, f) {
            (Some(Json::Arr(bs)), Some(Json::Arr(fs))) if !bs.is_empty() && !fs.is_empty() => {
                let pairs = match bs.len() == fs.len() {
                    true => (0..bs.len()).map(|i| (i, i)).collect(),
                    false => lcs(bs, fs),
                };
                let (mut i, mut j) = (0, 0);
                for (pi, pj) in pairs.into_iter().chain([(bs.len(), fs.len())]) {
                    self.elements_removed += pi - i;
                    self.elements_added += pj - j;
                    for (k, bv) in bs.iter().enumerate().take(pi).skip(i) {
                        self.walk(Some(bv), None, &at(&k.to_string()));
                    }
                    for (k, fv) in fs.iter().enumerate().take(pj).skip(j) {
                        self.walk(None, Some(fv), &at(&k.to_string()));
                    }
                    if pi < bs.len() {
                        self.walk(Some(&bs[pi]), Some(&fs[pj]), &at(&pi.to_string()));
                    }
                    (i, j) = (pi + 1, pj + 1);
                }
            }
            (Some(Json::Obj(bs)), Some(Json::Obj(fs))) if !bs.is_empty() && !fs.is_empty() => {
                for (k, bv) in bs {
                    self.walk(Some(bv), f.and_then(|f| f.get(k)), &at(k));
                }
                for (k, fv) in fs
                    .iter()
                    .filter(|(k, _)| b.and_then(|b| b.get(k)).is_none())
                {
                    self.walk(None, Some(fv), &at(k));
                }
            }
            (Some(x), Some(y)) if leaf(x) && leaf(y) => {
                if !same(x, y) {
                    self.push(path.to_string(), b, f);
                }
            }
            _ => {
                let (old, new) = (b.map(Json::leaves), f.map(Json::leaves));
                for (p, v) in old.into_iter().flatten() {
                    self.push(at(&p), Some(v), None);
                }
                for (p, v) in new.into_iter().flatten() {
                    self.push(at(&p), None, Some(v));
                }
            }
        }
    }

    fn push(&mut self, path: String, baseline: Option<&Json>, fresh: Option<&Json>) {
        self.leaves.push(LeafDiff {
            path,
            baseline: baseline.cloned(),
            fresh: fresh.cloned(),
        });
    }
}

/// The verdict on one experiment given both documents: no differing leaf,
/// and the claims hold on the fresh result.
pub fn verdict(e: &Experiment, baseline: &Json, fresh: &Json) -> Result<(), String> {
    let diffs = DocDiff::new(baseline, fresh).leaves;
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
/// the pinned line of the same key: `[cell]`, first word (two where it
/// repeats) and occurrence. A mismatch names the first moved line, its
/// `[cell]` and both texts, or else the first line added or removed, and
/// counts all three kinds. Under `BLESS=1` the file is rewritten with `got` instead and a
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
        d.added().show("added", "cell"),
        d.removed().show("removed", "cell")
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

/// A line's first word, up to whitespace or a comma (so a JSON trace
/// line's is its name), or with `two` its first two words.
fn leading_words(line: &str, two: bool) -> &str {
    let sep = |c: char| c.is_whitespace() || c == ',';
    let end = |from: usize| line[from..].find(sep).map_or(line.len(), |i| from + i);
    let first = end(0);
    let second = line[first..].find(|c| !sep(c)).map(|i| end(first + i));
    &line[..second.filter(|_| two).unwrap_or(first)]
}

/// What pairs a golden line with its re-run: its `[cell]` (the nearest
/// line at or above it that starts with `[`, empty in a headerless file),
/// its first word — or its first two where the first repeats within the
/// cell in either file, so `job 0/1` and `random 3` are keys of their own
/// — and how many earlier lines of that cell share the word. A header
/// line's word is the header itself.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Key<'a> {
    cell: &'a str,
    word: &'a str,
    nth: usize,
}

impl<'a> Key<'a> {
    /// The keys of both files' lines, in order.
    fn both(want: &[&'a str], have: &[&'a str]) -> (Vec<Key<'a>>, Vec<Key<'a>>) {
        let none = BTreeSet::new();
        let repeated: BTreeSet<(&str, &str)> = [want, have]
            .iter()
            .flat_map(|lines| Key::all(lines, &none))
            .filter(|k| k.nth == 1)
            .map(|k| (k.cell, k.word))
            .collect();
        (Key::all(want, &repeated), Key::all(have, &repeated))
    }

    /// The key of every line, in order, keying a line by two words where
    /// its `(cell, first word)` is `repeated`.
    fn all(lines: &[&'a str], repeated: &BTreeSet<(&str, &str)>) -> Vec<Key<'a>> {
        let mut seen: BTreeMap<(&str, &str), usize> = BTreeMap::new();
        let mut cell = "";
        let mut keys = Vec::with_capacity(lines.len());
        for &line in lines {
            let word = if line.starts_with('[') {
                cell = line;
                line
            } else {
                let first = leading_words(line, false);
                leading_words(line, repeated.contains(&(cell, first)))
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
        let (want_keys, have_keys) = Key::both(want, have);
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
/// `[cell]`s (header lines) or array elements are among them.
#[derive(Clone, Copy)]
struct Tally {
    n: usize,
    whole: usize,
}

impl Tally {
    fn of(lines: &[usize], keys: &[Key]) -> Tally {
        let whole = lines.iter().filter(|&&n| keys[n].is_header()).count();
        Tally {
            n: lines.len(),
            whole,
        }
    }

    /// `3 removed`, `3 removed (1 cell)`, `20 removed (2 elements)`.
    fn show(self, verb: &str, whole: &str) -> String {
        let n = self.n;
        match self.whole {
            0 => format!("{n} {verb}"),
            1 => format!("{n} {verb} (1 {whole})"),
            k => format!("{n} {verb} ({k} {whole}s)"),
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

/// The 16-digit hex words of a line (raw `f64` bits, hashes), in order.
fn hex_words(line: &str) -> Vec<&str> {
    line.split(|c: char| !c.is_ascii_alphanumeric())
        .filter(|t| t.len() == 16 && t.bytes().all(|b| b.is_ascii_hexdigit()))
        .collect()
}

/// What one re-pin moved in one pinned file: `moved` of `total` lines (or
/// leaves), the lines whose text alone changed, those added and removed,
/// the first that differs, and the relative changes of the decimal numbers
/// that moved (against a non-zero pinned value).
struct Moved {
    path: String,
    unit: &'static str,
    /// What a whole added or removed unit is called: a cell or an element.
    whole: &'static str,
    moved: usize,
    total: usize,
    text_only: usize,
    added: Tally,
    removed: Tally,
    first: Option<String>,
    relative: Vec<f64>,
}

impl Moved {
    /// A text file: lines paired by [`Key`]. A paired line that keeps
    /// every decimal and hex word it had changed in text only and has not
    /// moved.
    fn lines(path: &Path, pinned: &str, got: &str) -> Moved {
        let (want, have): (Vec<&str>, Vec<&str>) =
            (pinned.lines().collect(), got.lines().collect());
        let d = LineDiff::new(&want, &have);
        let (mut text_only, mut relative) = (0, Vec::new());
        for &(n, m) in &d.moved {
            let (a, b) = (decimals(want[n]), decimals(have[m]));
            if a == b && hex_words(want[n]) == hex_words(have[m]) {
                text_only += 1;
            } else if a.len() == b.len() {
                let pairs = a.iter().zip(&b).filter(|(x, y)| x != y && **x != 0.0);
                relative.extend(pairs.map(|(x, y)| (y - x) / x.abs()));
            }
        }
        Moved {
            path: path.display().to_string(),
            unit: "lines",
            whole: "cell",
            moved: d.moved.len() - text_only,
            total: have.len(),
            text_only,
            added: d.added(),
            removed: d.removed(),
            first: d.first(),
            relative,
        }
    }

    /// A JSON document: leaves paired as [`DocDiff`] pairs them.
    fn leaves(path: &Path, pinned: &Json, fresh: &Json) -> Moved {
        let d = DocDiff::new(pinned, fresh);
        let count = |absent: fn(&LeafDiff) -> bool, whole| Tally {
            n: d.leaves.iter().filter(|l| absent(l)).count(),
            whole,
        };
        let added = count(|l| l.baseline.is_none(), d.elements_added);
        let removed = count(|l| l.fresh.is_none(), d.elements_removed);
        Moved {
            path: path.display().to_string(),
            unit: "leaves",
            whole: "element",
            moved: d.leaves.len() - added.n - removed.n,
            total: fresh.leaves().len(),
            text_only: 0,
            added,
            removed,
            first: d.leaves.first().map(|l| l.path.clone()),
            relative: d
                .leaves
                .iter()
                .filter_map(LeafDiff::relative)
                .filter(|r| r.is_finite())
                .collect(),
        }
    }
}

impl fmt::Display for Moved {
    /// One line, starting `moved-pins <path>: <moved>/<total> <unit>` (then
    /// `, <n> text only` and `, <n> added, <n> removed` where not zero),
    /// which `scripts/repin.sh` collects and sums.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (path, moved, total, unit) = (&self.path, self.moved, self.total, self.unit);
        write!(f, "moved-pins {path}: {moved}/{total} {unit}")?;
        if self.text_only > 0 {
            write!(f, ", {} text only", self.text_only)?;
        }
        if self.added.n + self.removed.n > 0 {
            let added = self.added.show("added", self.whole);
            let removed = self.removed.show("removed", self.whole);
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
        // a repeated first word in a cell is keyed by its first two words,
        // and those by their occurrence where they repeat too.
        let dropped = Moved::lines(&file.0, THREE, NO_MIDDLE).to_string();
        assert!(
            dropped.ends_with(": 0/4 lines, 0 added, 3 removed (1 cell); first line 3 [b]"),
            "{dropped}"
        );
        let again = format!("{PINNED}y 100 5\n");
        let twice = Moved::lines(&file.0, &again, &again.replace("y 100 5", "y 100 6"));
        let twice = twice.to_string();
        assert!(
            twice.contains(": 1/6 lines; first line 6 [b] y 100#1"),
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

    /// A change of format that keeps every decimal and hex word is text
    /// only: it has not moved, and the report says so.
    #[test]
    fn a_line_whose_text_alone_changed_has_not_moved() {
        let file = TempGolden::new("perfgate-text", PINNED);
        let reworded = PINNED.replace("y 100 3f6711b3a30de91a", "y (100) bits=3f6711b3a30de91a");
        let report = Moved::lines(&file.0, PINNED, &reworded).to_string();
        assert!(
            report.ends_with(": 0/5 lines, 1 text only; first line 4 [b] y"),
            "{report}"
        );
        // A changed hex word is a moved pin, though no decimal moved.
        let bits = PINNED.replace("3f6711b3a30de91a", "3f6711b3a30de91b");
        let report = Moved::lines(&file.0, PINNED, &bits).to_string();
        assert!(
            report.ends_with(": 1/5 lines; first line 4 [b] y"),
            "{report}"
        );
        let both = reworded.replace("z 2", "z 3");
        let report = Moved::lines(&file.0, PINNED, &both).to_string();
        assert!(
            report.contains(": 1/5 lines, 1 text only; first line 4 [b] y"),
            "{report}"
        );
    }

    /// Where a first word repeats within a cell, its lines are keyed by
    /// their first two words: removing one job line leaves the others
    /// paired with their own pins.
    #[test]
    fn a_repeated_first_word_keys_a_line_by_two_words() {
        let pinned = "[f]\njob 0/0 finish 1\njob 0/1 finish 2\njob 1/0 finish 3\n";
        let file = TempGolden::new("perfgate-jobs", pinned);
        let got = "[f]\njob 0/0 finish 1\njob 1/0 finish 4\n";
        let why = diff_golden(&file.0, got).unwrap_err();
        assert!(
            why.contains(":4 diverged in cell [f]: 1 moved, 0 added, 1 removed"),
            "{why}"
        );
        assert!(
            why.contains("pinned: job 1/0 finish 3") && why.contains("got:    job 1/0 finish 4"),
            "{why}"
        );
        let report = Moved::lines(&file.0, pinned, got).to_string();
        assert!(
            report.contains(": 1/3 lines, 0 added, 1 removed; first line 3 [f] job 0/1;"),
            "{report}"
        );
        assert_eq!(leading_words("a,b c", true), "a,b");
        assert_eq!(leading_words("  x", false), "");
        assert_eq!(leading_words("one", true), "one");
    }

    /// A pinned array and a shorter re-run are aligned by their longest
    /// common subsequence: an element dropped from the middle is removed
    /// whole, and the later ones have not moved.
    #[test]
    fn a_mid_array_deletion_moves_no_later_element() {
        let cell = |x: f64| {
            Json::obj()
                .with("n", Json::num(x))
                .with("s", Json::num(2.0 * x))
        };
        let doc = |xs: &[f64]| {
            Json::obj().with("cells", Json::Arr(xs.iter().map(|&x| cell(x)).collect()))
        };
        let (pinned, fresh) = (doc(&[1.0, 2.0, 3.0, 4.0]), doc(&[1.0, 3.0, 4.0]));
        let file = TempGolden::new("perfgate-array", "");
        let report = Moved::leaves(&file.0, &pinned, &fresh).to_string();
        assert!(
            report.ends_with(": 0/6 leaves, 0 added, 2 removed (1 element); first cells.1.n"),
            "{report}"
        );
        let grown = Moved::leaves(&file.0, &fresh, &pinned).to_string();
        assert!(
            grown.ends_with(": 0/8 leaves, 2 added (1 element), 0 removed; first cells.1.n"),
            "{grown}"
        );
        // Equal lengths still pair by index: a changed element moved.
        let edited = doc(&[1.0, 2.0, 5.0, 4.0]);
        let report = Moved::leaves(&file.0, &pinned, &edited).to_string();
        assert!(report.contains(": 2/8 leaves; first cells.2.n"), "{report}");
        assert!(verdict_leaves(&pinned, &pinned).is_empty());
        assert_eq!(verdict_leaves(&pinned, &fresh).len(), 2);
    }

    fn verdict_leaves(a: &Json, b: &Json) -> Vec<String> {
        DocDiff::new(a, b)
            .leaves
            .iter()
            .map(|l| l.to_string())
            .collect()
    }

    #[test]
    fn decimals_skip_hex_words_and_keep_signs_and_exponents() {
        let line = "t=3f528fc10bb3e8ce n: 240, ts:0.500 30+4196 -2.5e-3 inf";
        assert_eq!(decimals(line), [240.0, 0.5, 30.0, 4196.0, -2.5e-3]);
    }
}
