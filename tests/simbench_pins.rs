//! The benchmark's virtual time, pinned: one driver rep of every simbench
//! workload at seed 12 must print the `virt_*` digits committed in
//! `tests/golden/simbench_virt.txt`, one line per workload.
//!
//! Some wrong decisions move clocks, not bytes, so simbench's pinned file
//! hashes cannot see them (a wrong lock transfer, an aggregator's dirty set
//! that also rewrites a hole); these digits can. The rep itself runs
//! `benchmark/run.sh` — its own workspace, built in release — so it is
//! `#[ignore]`d (about a minute): `cargo test --test simbench_pins --
//! --ignored`. The tier-1 test beside it only checks that the pin file
//! covers every workload `BENCHMARK.json` lists, with every virtual-time
//! metric it declares. `scripts/repin.sh` re-pins after an intentional
//! cost-model change.

use bench::perfgate::check_golden;
use bench::Json;
use std::path::Path;
use std::process::{Command, Stdio};

const PINS: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/golden/simbench_virt.txt"
);

fn root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

/// `BENCHMARK.json`'s workloads, and its end-to-end metrics in virtual
/// units (`unit` starting with `virt_`).
fn benchmark() -> (Vec<String>, Vec<String>) {
    let text = std::fs::read_to_string(root().join("BENCHMARK.json")).expect("BENCHMARK.json");
    let doc = Json::parse(&text).expect("BENCHMARK.json parses");
    let names = |key: &str, keep: fn(&Json) -> bool| -> Vec<String> {
        let entries = doc.get(key).and_then(Json::as_arr).expect(key);
        let kept = entries.iter().filter(|e| keep(e));
        kept.map(|e| {
            e.get("name")
                .and_then(Json::as_str)
                .expect("name")
                .to_string()
        })
        .collect()
    };
    let virt = |m: &Json| {
        m.get("unit")
            .and_then(Json::as_str)
            .is_some_and(|u| u.starts_with("virt_"))
    };
    (names("workloads", |_| true), names("end_to_end", virt))
}

/// `virt_x=<digits>` for every `"virt_x": {"value": <digits>` of a simbench
/// result line, in order, with the digits exactly as printed.
fn virt_digits(line: &str) -> Vec<String> {
    line.split("\"virt_")
        .skip(1)
        .filter_map(|rest| {
            let (name, rest) = rest.split_once('"')?;
            let value = rest.strip_prefix(": {\"value\": ")?;
            Some(format!("virt_{name}={}", &value[..value.find([',', '}'])?]))
        })
        .collect()
}

#[test]
fn every_simbench_workload_is_pinned() {
    let (workloads, virt) = benchmark();
    assert!(!workloads.is_empty() && !virt.is_empty());
    let pins = std::fs::read_to_string(PINS).expect("simbench_virt.txt");
    let mut pinned: Vec<&str> = pins
        .lines()
        .map(|l| l.split_whitespace().next().unwrap_or(""))
        .collect();
    pinned.sort_unstable();
    let mut listed: Vec<&str> = workloads.iter().map(String::as_str).collect();
    listed.sort_unstable();
    assert_eq!(
        pinned, listed,
        "simbench_virt.txt holds one line per BENCHMARK.json workload; \
         scripts/repin.sh adds a new one"
    );
    for line in pins.lines() {
        for metric in &virt {
            let carried = line.split_whitespace().skip(1).any(|pin| {
                pin.split_once('=')
                    .is_some_and(|(k, v)| k == metric && v.parse::<f64>().is_ok())
            });
            assert!(carried, "{metric} is not pinned on: {line}");
        }
    }
}

#[test]
#[ignore = "builds and runs simbench in release, about a minute"]
fn simbench_virtual_time_matches_its_pins() {
    let (listed, _) = benchmark();
    // The pin file's order, then any workload it lacks, so a re-pin adds it.
    let pins = std::fs::read_to_string(PINS).unwrap_or_default();
    let mut order: Vec<&str> = pins
        .lines()
        .filter_map(|l| l.split_whitespace().next())
        .filter(|w| listed.iter().any(|l| l == w))
        .collect();
    let new: Vec<&str> = listed
        .iter()
        .map(String::as_str)
        .filter(|w| !order.contains(w))
        .collect();
    order.extend(new);
    let mut got = String::new();
    for workload in order {
        let run = Command::new("bash")
            .arg("benchmark/run.sh")
            .args(["--workload", workload, "--seed", "12"])
            .args(["--seconds", "1", "--trace", "0"])
            .current_dir(root())
            .stdin(Stdio::null())
            .output()
            .expect("bash runs benchmark/run.sh");
        assert!(
            run.status.success(),
            "{workload}: simbench failed ({})\n{}",
            run.status,
            String::from_utf8_lossy(&run.stderr)
        );
        let stdout = String::from_utf8_lossy(&run.stdout);
        let digits = virt_digits(stdout.lines().last().unwrap_or(""));
        got += &format!("{workload} {}\n", digits.join(" "));
    }
    check_golden(PINS, &got).unwrap_or_else(|why| panic!("{why}"));
}
