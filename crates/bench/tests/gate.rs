//! The harness's one integration test file: the gate holds at HEAD (under
//! `BLESS=1`, re-pins each baseline from its rerun) and catches any
//! single-leaf edit of any baseline; every experiment in the
//! table runs through the real binary; every committed document has
//! exactly one owner; bad command lines exit 2 with the valid spellings.

use bench::perfgate::{check_baseline, verdict};
use bench::{Args, Experiment, Json, EXPERIMENTS};
use std::path::{Path, PathBuf};
use std::process::Command;

fn root() -> PathBuf {
    let crate_dir = Path::new(env!("CARGO_MANIFEST_DIR"));
    crate_dir
        .ancestors()
        .nth(2)
        .expect("the repo root")
        .to_path_buf()
}

fn gated() -> impl Iterator<Item = (&'static Experiment, &'static str)> {
    EXPERIMENTS
        .iter()
        .filter_map(|e| Some((e, e.gate.as_ref()?.baseline)))
}

/// Run `check` on its own thread per item (the grids are independent
/// simulations) and fail with every message at once.
fn for_each_in_parallel<T: Sync>(items: &[T], check: impl Fn(&T) -> Result<(), String> + Sync) {
    let failures: Vec<String> = std::thread::scope(|s| {
        let handles: Vec<_> = items.iter().map(|t| s.spawn(|| check(t))).collect();
        let joined = handles.into_iter().map(|h| h.join().expect("no panic"));
        joined.filter_map(Result::err).collect()
    });
    assert!(failures.is_empty(), "\n{}", failures.join("\n"));
}

fn child<'a>(j: &'a mut Json, key: &str) -> &'a mut Json {
    match j {
        Json::Obj(pairs) => &mut pairs.iter_mut().find(|(k, _)| k == key).expect("key").1,
        Json::Arr(items) => &mut items[key.parse::<usize>().expect("index")],
        leaf => panic!("{key} looked up in leaf {leaf:?}"),
    }
}

/// (i) the gate passes at HEAD over every committed baseline, and (ii) on
/// the same fresh run, a baseline with one numeric leaf moved by 1 ulp,
/// one leaf removed, or one leaf added fails, naming that leaf.
#[test]
fn gate_holds_at_head_and_catches_any_single_leaf_edit() {
    let all: Vec<_> = gated().collect();
    for_each_in_parallel(&all, |&(e, file)| {
        let baseline = root().join("bench_results").join(file);
        let fresh = check_baseline(e, &baseline).map_err(|why| format!("{}: {why}", e.name))?;

        let leaves = fresh.leaves();
        let (path, x) = leaves
            .iter()
            .rev()
            .find_map(|(p, v)| Some((p.clone(), v.as_f64()?)))
            .expect("a numeric leaf");
        let keys: Vec<&str> = path.split('.').collect();
        let (last, parents) = keys.split_last().expect("non-empty path");
        let extra = format!("{}.not_in_fresh", parents.join("."));

        let mut moved = fresh.clone();
        *keys.iter().fold(&mut moved, |j, k| child(j, k)) =
            Json::Num(f64::from_bits(x.to_bits() + 1));
        let mut removed = fresh.clone();
        let mut added = fresh.clone();
        for (doc, drop) in [(&mut removed, true), (&mut added, false)] {
            let Json::Obj(pairs) = parents.iter().fold(doc, |j, k| child(j, k)) else {
                panic!("{path}: parent is not an object");
            };
            match drop {
                true => pairs.retain(|(k, _)| k != last),
                false => pairs.push(("not_in_fresh".into(), Json::num(1.0))),
            }
        }
        for (what, edited, named) in [
            ("1 ulp", &moved, &path),
            ("removed leaf", &removed, &path),
            ("added leaf", &added, &extra),
        ] {
            match verdict(e, edited, &fresh) {
                Err(report) if report.contains(named.as_str()) => {}
                other => return Err(format!("{}: {what} at {named} gave {other:?}", e.name)),
            }
        }
        Ok(())
    });
}

/// Smallest useful command line per experiment. The table is the source
/// of names: an entry without a row here fails the test.
const TINY: &[(&str, &[&str])] = &[
    ("fig5_scale", &["--procs", "4,8", "--len", "16384"]),
    ("fig6_7_filesize", &["--procs", "4", "--lens", "4096,16384"]),
    (
        "fig9_10_art",
        &["--procs", "4", "--mu", "8", "--segments", "16"],
    ),
    ("table3_effort", &[]),
    (
        "sensitivity",
        &["--small", "4", "--large", "8", "--len", "16384"],
    ),
    ("ablation_segment_size", &["--procs", "4", "--len", "16384"]),
    ("ablation_modes", &["--procs", "4", "--len", "16384"]),
    ("ablation_cb", &["--procs", "4", "--len", "16384"]),
    ("ablation_access_size", &["--procs", "4", "--len", "65536"]),
    ("diag_trace", &["--procs", "4", "--len", "4096"]),
    (
        "exchange_sweep",
        &["--procs", "16", "--ppns", "1,4,16", "--len", "16384"],
    ),
    (
        "tenant_sweep",
        &["--jobs", "1", "--rates", "80", "--qos", "fair,fifo,off"],
    ),
    (
        "resilience_sweep",
        &["--procs", "4", "--len", "262144", "--points", "2"],
    ),
    (
        "chaos_sweep",
        &["--procs", "4", "--len", "4096", "--points", "2"],
    ),
    ("perf_report", &["--ranks", "4", "--len", "1024"]),
];

fn bench(dir: &Path, args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_bench"))
        .args(args)
        .current_dir(dir)
        .output()
        .expect("bench binary runs")
}

/// (iii) every table entry runs at a tiny size through the real binary
/// and writes a document that re-parses and re-renders to the same bytes;
/// the gated ones carry the envelope, with args the table accepts back.
#[test]
fn every_experiment_runs_tiny_and_writes_a_stable_document() {
    let dir = std::env::temp_dir().join(format!("bench-gate-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let all: Vec<&Experiment> = EXPERIMENTS.iter().collect();
    for_each_in_parallel(&all, |e| {
        let tiny = TINY.iter().find(|(name, _)| *name == e.name);
        let (_, tiny) = tiny.ok_or(format!("{} has no TINY row", e.name))?;
        let out = format!("{}.json", e.name);
        let argv = [&[e.name][..], tiny, &["--json", &out]].concat();
        let run = bench(&dir, &argv);
        if !run.status.success() {
            let stderr = String::from_utf8_lossy(&run.stderr);
            return Err(format!("{}: {:?}\n{stderr}", e.name, run.status));
        }
        let text = std::fs::read_to_string(dir.join(&out)).map_err(|err| err.to_string())?;
        let doc = Json::parse(&text)?;
        if doc.render() != text {
            return Err(format!("{}: document is not a render fixpoint", e.name));
        }
        if e.gate.is_some() {
            let named = doc.get("experiment").and_then(Json::as_str) == Some(e.name);
            let args = doc.get("args").ok_or("gated document without args")?;
            Args::from_recorded(e.opts, args)?;
            if !named || doc.get("schema").is_none() || doc.get("result").is_none() {
                return Err(format!("{}: incomplete envelope", e.name));
            }
        }
        Ok(())
    });
    std::fs::remove_dir_all(&dir).expect("scratch dir removed");
}

/// (iv) every document committed under `bench_results/` is the baseline
/// of exactly one table entry, and every gated entry has its file.
#[test]
fn every_committed_document_has_exactly_one_owner() {
    let mut committed: Vec<String> = std::fs::read_dir(root().join("bench_results"))
        .expect("bench_results/")
        .map(|f| {
            f.expect("dir entry")
                .file_name()
                .into_string()
                .expect("utf-8")
        })
        .filter(|name| name.ends_with(".json"))
        .collect();
    committed.sort();
    let mut owned: Vec<String> = gated().map(|(_, file)| file.to_string()).collect();
    owned.sort();
    assert_eq!(owned, committed);
    owned.dedup();
    assert_eq!(
        owned.len(),
        5,
        "five gated experiments, five distinct files"
    );
}

/// Options are parsed against the table: a typo, a missing or non-numeric
/// value, a stray positional or an unknown subcommand exits 2 and names
/// what is valid; `list` and `--help` print from the same table.
#[test]
fn bad_command_lines_exit_2_and_name_the_valid_spellings() {
    let dir = std::env::temp_dir();
    for (argv, names) in [
        (&["exchange_sweep", "--proc", "8"][..], "--procs"),
        (&["exchange_sweep", "--len"], "--len"),
        (&["exchange_sweep", "--len", "many"], "non-negative integer"),
        (&["fig5_scale", "write"], "--procs"),
        (&["tenant_sweep", "--qos", "lifo"], "off|fifo|fair"),
        (&["exchange_sweeep"], "exchange_sweep"),
        (&["gate", "--tolerance", "0.1"], "no arguments"),
        (&["bless"], "unknown subcommand"),
        (&[], "usage"),
    ] {
        let run = bench(&dir, argv);
        let stderr = String::from_utf8_lossy(&run.stderr);
        assert_eq!(run.status.code(), Some(2), "{argv:?}: {stderr}");
        assert!(
            stderr.contains(names),
            "{argv:?} should name {names:?}: {stderr}"
        );
    }
    let list = bench(&dir, &["list"]);
    assert!(list.status.success());
    let help = bench(&dir, &["chaos_sweep", "--help"]);
    assert!(help.status.success());
    assert!(String::from_utf8_lossy(&help.stdout).contains("--crash-rank"));
    let listed = String::from_utf8_lossy(&list.stdout).into_owned();
    for e in EXPERIMENTS {
        assert!(listed.contains(e.name), "list omits {}", e.name);
    }
}
