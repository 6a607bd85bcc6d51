//! The experiment registry: one table of everything the `bench` binary
//! can run, the option parser that validates a command line against an
//! entry's declared options, and the envelope every gated document
//! carries.
//!
//! An [`Experiment`] is a name, a one-line description, its options with
//! defaults, and `run(&Args) -> Json`. The five whose output is committed
//! under `bench_results/` also name that file and carry `claims`, the
//! headline assertions checked on every fresh run (see [`crate::perfgate`]).

use crate::report::Json;
use crate::{ablations, chaos_sweep, diag, exchange, figures, perf, resilience, tenant};

/// What an option's value must look like; checked when the command line
/// (or a baseline's recorded `args`) is parsed, so `run` never sees a
/// malformed value.
#[derive(Debug, Clone, Copy)]
pub enum Kind {
    /// A non-negative integer.
    Int,
    /// Comma-separated non-negative integers.
    Ints,
    /// A floating-point number.
    Float,
    /// Comma-separated words, each from the given set.
    Words(&'static [&'static str]),
    /// Free text: a path or a file-name prefix.
    Text,
}

/// One declared `--name value` option.
#[derive(Debug, Clone, Copy)]
pub struct Opt {
    pub name: &'static str,
    pub kind: Kind,
    pub default: &'static str,
    pub help: &'static str,
}

const fn opt(name: &'static str, kind: Kind, default: &'static str, help: &'static str) -> Opt {
    Opt {
        name,
        kind,
        default,
        help,
    }
}

/// The baseline file of a gated experiment and the claims its result
/// must satisfy.
pub struct Gate {
    /// File name under `bench_results/`.
    pub baseline: &'static str,
    pub claims: fn(&Json) -> Result<(), String>,
}

pub struct Experiment {
    pub name: &'static str,
    pub about: &'static str,
    pub opts: &'static [Opt],
    pub run: fn(&Args) -> Json,
    pub gate: Option<Gate>,
}

/// Schema tag of the gated documents.
pub const SCHEMA: &str = "tcio-bench-v1";

impl Experiment {
    /// Run and wrap the result in the envelope committed baselines use:
    /// the recorded `args` are enough to regenerate `result` exactly.
    pub fn document(&self, args: &Args) -> Json {
        Json::obj()
            .with("schema", Json::str(SCHEMA))
            .with("experiment", Json::str(self.name))
            .with("args", args.recorded())
            .with("result", (self.run)(args))
    }

    /// The `--help` text: description plus one line per option.
    pub fn usage(&self) -> String {
        let mut out = format!("bench {} — {}\n", self.name, self.about);
        for o in self.opts {
            out += &format!(
                "  --{:<14} {}  [default: {:?}]\n",
                o.name, o.help, o.default
            );
        }
        out + "  --json           write the result document to this path\n"
    }
}

pub fn find(name: &str) -> Option<&'static Experiment> {
    EXPERIMENTS.iter().find(|e| e.name == name)
}

/// One line per experiment, for `bench list`.
pub fn list() -> String {
    let line = |e: &Experiment| format!("  {:<22} {}\n", e.name, e.about);
    EXPERIMENTS.iter().map(line).collect()
}

/// A command line validated against an experiment's declared options:
/// every option has a well-formed value (given or default).
#[derive(Debug)]
pub struct Args {
    opts: &'static [Opt],
    vals: Vec<String>,
    json: Option<String>,
}

impl Args {
    pub fn defaults(opts: &'static [Opt]) -> Args {
        Args {
            opts,
            vals: opts.iter().map(|o| o.default.to_string()).collect(),
            json: None,
        }
    }

    /// Parse `--name value` pairs. Unknown options, stray positionals,
    /// missing values and malformed values are errors naming what is valid.
    pub fn parse(opts: &'static [Opt], argv: &[String]) -> Result<Args, String> {
        let mut args = Args::defaults(opts);
        let mut it = argv.iter();
        while let Some(a) = it.next() {
            let key = a
                .strip_prefix("--")
                .ok_or_else(|| format!("unexpected argument {a:?}; {}", args.valid()))?;
            let val = it
                .next()
                .ok_or_else(|| format!("missing value for --{key}"))?;
            if key == "json" {
                args.json = Some(val.clone());
            } else {
                args.set(key, val)?;
            }
        }
        Ok(args)
    }

    /// Rebuild from the `args` object of a committed document.
    pub fn from_recorded(opts: &'static [Opt], recorded: &Json) -> Result<Args, String> {
        let Json::Obj(pairs) = recorded else {
            return Err("recorded args must be an object".into());
        };
        let mut args = Args::defaults(opts);
        for (key, val) in pairs {
            let val = val
                .as_str()
                .ok_or_else(|| format!("recorded --{key} must be a string"))?;
            args.set(key, val)?;
        }
        Ok(args)
    }

    fn valid(&self) -> String {
        let names: Vec<String> = self.opts.iter().map(|o| format!("--{}", o.name)).collect();
        format!("valid options: {} --json", names.join(" "))
    }

    fn set(&mut self, key: &str, val: &str) -> Result<(), String> {
        let i = self
            .opts
            .iter()
            .position(|o| o.name == key)
            .ok_or_else(|| format!("unknown option --{key}; {}", self.valid()))?;
        let items = || val.split(',').map(str::trim);
        let want = match self.opts[i].kind {
            Kind::Int if val.parse::<u64>().is_err() => "a non-negative integer".to_string(),
            Kind::Ints if !items().all(|s| s.parse::<usize>().is_ok()) => {
                "comma-separated non-negative integers".to_string()
            }
            Kind::Float if !val.parse::<f64>().is_ok_and(f64::is_finite) => "a number".to_string(),
            Kind::Words(set) if !items().all(|s| set.contains(&s)) => {
                format!("a comma-separated subset of {}", set.join("|"))
            }
            _ => {
                self.vals[i] = val.to_string();
                return Ok(());
            }
        };
        Err(format!("--{key} expects {want}, got {val:?}"))
    }

    /// Every option with its effective value, in declared order.
    pub fn recorded(&self) -> Json {
        let mut j = Json::obj();
        for (o, v) in self.opts.iter().zip(&self.vals) {
            j.set(o.name, Json::str(v));
        }
        j
    }

    /// Where `--json` asked for the document to be written.
    pub fn json_path(&self) -> Option<&str> {
        self.json.as_deref()
    }

    /// Raw value. Panics on an option the experiment never declared —
    /// a bug in the table, not in the command line.
    pub fn text(&self, name: &str) -> &str {
        let i = self.opts.iter().position(|o| o.name == name);
        &self.vals[i.unwrap_or_else(|| panic!("option --{name} is not declared"))]
    }

    pub fn int(&self, name: &str) -> u64 {
        self.text(name).parse().expect("validated at parse time")
    }

    pub fn usize(&self, name: &str) -> usize {
        self.int(name) as usize
    }

    pub fn float(&self, name: &str) -> f64 {
        self.text(name).parse().expect("validated at parse time")
    }

    pub fn words(&self, name: &str) -> impl Iterator<Item = &str> {
        self.text(name).split(',').map(str::trim)
    }

    pub fn ints(&self, name: &str) -> Vec<usize> {
        self.words(name)
            .map(|s| s.parse().expect("validated at parse time"))
            .collect()
    }
}

const SCALE_HELP: &str = "byte-scale divisor k: sizes / k, per-byte costs * k";
const LEN_HELP: &str = "LEN_array: elements per process in paper units (before 1/scale)";
const PLAN_HELP: &str = "fault-plan TOML to scale from inert to full strength; empty = built in";

const SCALE_256: Opt = opt("scale", Kind::Int, "256", SCALE_HELP);
const SCALE_1024: Opt = opt("scale", Kind::Int, "1024", SCALE_HELP);
const SIZE_ACCESS: Opt = opt(
    "size-access",
    Kind::Int,
    "1",
    "SIZE_access: elements per access",
);
const PROCS_16: Opt = opt("procs", Kind::Int, "16", "process count");
const PROCS_64: Opt = opt("procs", Kind::Int, "64", "process count");
const LEN_1M: Opt = opt("len", Kind::Int, "1048576", LEN_HELP);
const LEN_4M: Opt = opt("len", Kind::Int, "4194304", LEN_HELP);
const LEN_64K: Opt = opt("len", Kind::Int, "65536", LEN_HELP);
const PROCS_SWEEP: Opt = opt("procs", Kind::Ints, "64,128,256,512,1024", "process counts");
const GRID: &[Opt] = &[
    opt("procs", Kind::Ints, "1,8,32,128", "process counts"),
    opt(
        "ppns",
        Kind::Ints,
        "1,4,16",
        "ranks per node (cells with ppn > procs are skipped)",
    ),
    LEN_64K,
    SIZE_ACCESS,
    SCALE_1024,
];
const ABLATION: &[Opt] = &[SCALE_256, PROCS_16, LEN_1M];

/// Everything `bench <name>` can run; `bench list` prints this table.
pub static EXPERIMENTS: &[Experiment] = &[
    Experiment {
        name: "fig5_scale",
        about: "Fig. 5: synthetic write/read throughput vs process count",
        opts: &[PROCS_SWEEP, SCALE_256, LEN_4M, SIZE_ACCESS],
        run: figures::fig5_scale,
        gate: None,
    },
    Experiment {
        name: "fig6_7_filesize",
        about: "Figs. 6-7: throughput vs file size at P=64, incl. the OCIO OOM at 48 GB",
        opts: &[
            SCALE_256,
            PROCS_64,
            opt(
                "lens",
                Kind::Ints,
                "1048576,4194304,16777216,67108864",
                LEN_HELP,
            ),
        ],
        run: figures::fig6_7_filesize,
        gate: None,
    },
    Experiment {
        name: "fig9_10_art",
        about: "Figs. 9-10: ART dump/restart, TCIO vs vanilla MPI-IO",
        opts: &[
            PROCS_SWEEP,
            opt(
                "mu",
                Kind::Int,
                "128",
                "mean trees per segment (paper: 2048)",
            ),
            opt("segments", Kind::Int, "1024", "segments in the snapshot"),
            opt(
                "vanilla-max-p",
                Kind::Int,
                "1024",
                "largest P the vanilla methods still run at",
            ),
        ],
        run: figures::fig9_10_art,
        gate: None,
    },
    Experiment {
        name: "table3_effort",
        about: "Table III + Programs 2/3: programming effort and memory comparison",
        opts: &[],
        run: figures::table3_effort,
        gate: None,
    },
    Experiment {
        name: "sensitivity",
        about: "Fig. 5 write ordering vs the two calibration constants that carry it",
        opts: &[
            SCALE_256,
            opt("small", Kind::Int, "64", "small-scale endpoint P"),
            opt("large", Kind::Int, "512", "large-scale endpoint P"),
            LEN_4M,
        ],
        run: figures::sensitivity,
        gate: None,
    },
    Experiment {
        name: "ablation_segment_size",
        about: "sec. IV.A: TCIO segment size vs the PFS lock granularity",
        opts: ABLATION,
        run: ablations::segment_size,
        gate: None,
    },
    Experiment {
        name: "ablation_modes",
        about: "sec. IV.A: L1 combining, lock/unlock vs fence, lazy vs eager reads",
        opts: ABLATION,
        run: ablations::modes,
        gate: None,
    },
    Experiment {
        name: "ablation_cb",
        about: "OCIO hints: unchunked vs cb_buffer-chunked exchange, aggregator counts",
        opts: ABLATION,
        run: ablations::cb,
        gate: None,
    },
    Experiment {
        name: "ablation_access_size",
        about: "SIZE_access sweep across TCIO, OCIO and vanilla MPI-IO",
        opts: ABLATION,
        run: ablations::access_size,
        gate: None,
    },
    Experiment {
        name: "diag_trace",
        about: "traced interleaved-arrays run: phase breakdown, critical path, Chrome trace",
        opts: &[
            opt("scale", Kind::Int, "1", SCALE_HELP),
            opt("procs", Kind::Int, "8", "process count"),
            LEN_64K,
            SIZE_ACCESS,
            opt(
                "methods",
                Kind::Words(&["tcio", "ocio", "vanilla"]),
                "tcio,ocio,vanilla",
                "I/O methods to trace",
            ),
            opt(
                "out",
                Kind::Text,
                "trace",
                "Chrome traces go to <out>_<method>.json",
            ),
            opt(
                "fault-plan",
                Kind::Text,
                "",
                "fault-plan TOML to run under; empty = none",
            ),
        ],
        run: diag::trace,
        gate: None,
    },
    Experiment {
        name: "exchange_sweep",
        about: "node topology: ppn x {TCIO, OCIO flat / req-agg} x rounds x pipeline",
        opts: GRID,
        run: exchange::run,
        gate: Some(Gate {
            baseline: "exchange_sweep.json",
            claims: exchange::claims,
        }),
    },
    Experiment {
        name: "tenant_sweep",
        about: "multi-tenant facility: offered rate x QoS mode -> per-tenant percentiles",
        opts: &[
            opt("jobs", Kind::Int, "2", "jobs per tenant"),
            opt(
                "rates",
                Kind::Ints,
                "10,80,640",
                "Poisson arrival rates, jobs/s per tenant",
            ),
            opt("seed", Kind::Int, "8276503", "arrival-process seed"),
            opt(
                "qos",
                Kind::Words(&["off", "fifo", "fair"]),
                "fair,fifo",
                "QoS disciplines",
            ),
        ],
        run: tenant::run,
        gate: Some(Gate {
            baseline: "tenant_sweep.json",
            claims: tenant::claims,
        }),
    },
    Experiment {
        name: "resilience_sweep",
        about: "gray-failure defense: fault intensity x {defended, undefended}",
        opts: &[
            opt("procs", Kind::Int, "4", "process count"),
            opt("len", Kind::Int, "2097152", LEN_HELP),
            SIZE_ACCESS,
            opt(
                "points",
                Kind::Int,
                "4",
                "intensity points from 0 to 1 (at least 2)",
            ),
            SCALE_1024,
            opt("plan", Kind::Text, "", PLAN_HELP),
        ],
        run: resilience::run,
        gate: Some(Gate {
            baseline: "resilience_sweep.json",
            claims: resilience::claims,
        }),
    },
    Experiment {
        name: "chaos_sweep",
        about: "fault intensity x {tcio, ocio} slowdown curves, plus a crash-stop sweep",
        opts: &[
            opt("procs", Kind::Int, "8", "process count"),
            LEN_64K,
            SIZE_ACCESS,
            opt(
                "points",
                Kind::Int,
                "5",
                "intensity points from 0 to 1 (at least 2)",
            ),
            opt("scale", Kind::Int, "1", SCALE_HELP),
            opt("plan", Kind::Text, "", PLAN_HELP),
            opt(
                "crash-rank",
                Kind::Text,
                "0",
                "rank to crash-stop in the second sweep; -1 skips it",
            ),
            opt(
                "crash-at",
                Kind::Float,
                "0.002",
                "virtual time of the crash-stop",
            ),
        ],
        run: chaos_sweep::run,
        gate: Some(Gate {
            baseline: "chaos_sweep.json",
            claims: chaos_sweep::claims,
        }),
    },
    Experiment {
        name: "perf_report",
        about: "critical-path breakdowns and registry export for Table-I and ART runs",
        opts: &[
            opt("ranks", Kind::Ints, "16,64", "rank counts"),
            opt("len", Kind::Int, "4096", "elements per process (unscaled)"),
        ],
        run: perf::run,
        gate: Some(Gate {
            baseline: "BENCH_baseline.json",
            claims: perf::claims,
        }),
    },
];

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(words: &[&str]) -> Vec<String> {
        words.iter().map(|w| w.to_string()).collect()
    }

    #[test]
    fn options_are_validated_against_the_declaration() {
        let opts = find("exchange_sweep").unwrap().opts;
        let a = Args::parse(opts, &argv(&["--procs", "4, 8", "--json", "x.json"])).unwrap();
        assert_eq!(a.ints("procs"), vec![4, 8]);
        assert_eq!(a.usize("len"), 65536, "unset options take their default");
        assert_eq!(a.json_path(), Some("x.json"));
        for bad in [
            &["--proc", "8"][..], // the typo that used to run the default grid
            &["--len"],
            &["--len", "many"],
            &["write"],
        ] {
            let err = Args::parse(opts, &argv(bad)).unwrap_err();
            assert!(err.contains("--") && !err.is_empty(), "{bad:?}: {err}");
        }
        let err = Args::parse(opts, &argv(&["--proc", "8"])).unwrap_err();
        assert!(err.contains("--procs"), "names the valid options: {err}");
        let qos = find("tenant_sweep").unwrap().opts;
        let err = Args::parse(qos, &argv(&["--qos", "fair,lifo"])).unwrap_err();
        assert!(err.contains("off|fifo|fair"), "{err}");
    }

    #[test]
    fn recorded_args_round_trip() {
        let opts = find("chaos_sweep").unwrap().opts;
        let a = Args::parse(opts, &argv(&["--crash-rank", "-1", "--points", "3"])).unwrap();
        let b = Args::from_recorded(opts, &a.recorded()).unwrap();
        assert_eq!(a.recorded(), b.recorded());
        assert_eq!(b.text("crash-rank"), "-1");
        let stale = Json::obj().with("no-such-option", Json::str("1"));
        assert!(Args::from_recorded(opts, &stale).is_err());
    }

    #[test]
    fn table_names_are_unique_and_defaults_validate() {
        for (i, e) in EXPERIMENTS.iter().enumerate() {
            assert!(
                EXPERIMENTS[..i].iter().all(|o| o.name != e.name),
                "{}",
                e.name
            );
            Args::from_recorded(e.opts, &Args::defaults(e.opts).recorded())
                .unwrap_or_else(|err| panic!("{}: default fails its own kind: {err}", e.name));
        }
    }
}
