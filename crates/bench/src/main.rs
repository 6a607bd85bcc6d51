//! The `bench` binary: `bench list`, `bench <experiment> [--opt value]…
//! [--json <path>]`, `bench gate`. Baselines are re-pinned by
//! `scripts/repin.sh` (`BLESS=1`, see `bench::perfgate`), not by a
//! subcommand.

use bench::runner::die;
use bench::{perfgate, registry, write_json_file, Args};
use std::path::Path;

fn usage() -> String {
    format!(
        "usage: bench <subcommand> [--option value]... [--json <path>]\n\n\
         \x20 {:<22} this table\n\
         \x20 {:<22} re-run the five committed baselines under bench_results/ and diff them exactly\n{}\n\
         `bench <experiment> --help` lists an experiment's options;\n\
         `scripts/repin.sh` re-pins the baselines after an intentional model change.\n",
        "list",
        "gate",
        registry::list()
    )
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = argv.split_first() else {
        die(usage());
    };
    let root = Path::new(".");
    match (cmd.as_str(), registry::find(cmd)) {
        ("list" | "--help" | "-h", _) => print!("{}", usage()),
        ("gate", _) if rest.is_empty() => {
            if !perfgate::gate(root) {
                std::process::exit(1);
            }
        }
        ("gate", _) => die(format!("bench {cmd} takes no arguments")),
        (_, None) => die(format!("unknown subcommand {cmd:?}\n\n{}", usage())),
        (_, Some(e)) if rest.iter().any(|a| a == "--help" || a == "-h") => print!("{}", e.usage()),
        (_, Some(e)) => {
            let args = Args::parse(e.opts, rest)
                .unwrap_or_else(|why| die(format!("{why}\n\n{}", e.usage())));
            // A gated experiment's document is its product: it goes to
            // `--json` when given and to stdout otherwise, in the envelope
            // the baselines use. The others print tables and only write a
            // document on request.
            let doc = match e.gate {
                Some(_) => e.document(&args),
                None => (e.run)(&args),
            };
            match args.json_path() {
                Some(path) => write_json_file(Path::new(path), &doc)
                    .unwrap_or_else(|err| die(format!("cannot write {path}: {err}"))),
                None if e.gate.is_some() => print!("{}", doc.render()),
                None => {}
            }
        }
    }
}
