//! Virtual-time fingerprint of the file system's own cost model.
//!
//! One seeded request stream is driven through every `pfs::Pfs` entry point
//! that costs or moves bytes (`write_at`, `read_at`, `read_at_hedged`,
//! `write_rmw`, `read_bytes`, `truncate`, `scrub`, `rebuild`) on three file
//! systems:
//!
//! * plain;
//! * QoS: three tenants under fair share, gateway batching and a token
//!   bucket, plus one client beyond the tenant map;
//! * health + chaos: `plans/flaky_ost.toml` plus an OST outage, a lock
//!   storm, a request-overhead brownout and silent corruption, with stripe
//!   replicas on, and a final phase past the flaky window that re-closes the
//!   breaker and rebuilds.
//!
//! Every request records its completion time as raw `f64` bits, or its
//! error. Each file system then records `stats.snapshot()`, `ost_report()`
//! (times as bits), `tenant_report()`, `health_report()`,
//! `latency_snapshot()` and an FNV-1a hash of every file. The pfs unit tests
//! assert inequalities; this pins QoS, health, rebuild and read-modify-write
//! costs bit for bit.
//!
//! A failure names the first diverging line and its file system;
//! `scripts/repin.sh` re-pins it after an intentional cost-model change.

use bench::perfgate::{check_golden, fnv1a};
use pfs::{Discipline, HealthConfig, Pfs, PfsConfig, QosConfig};
use std::fmt::Write as _;
use std::sync::Arc;

/// Six tenant clients plus one the QoS tenant map does not name.
const CLIENTS: usize = 7;
const FILES: [&str; 3] = ["/a", "/b", "/c"];
const OPS: usize = 160;
/// Virtual seconds between two requests of the stream.
const STEP: f64 = 2.0e-4;
/// Where the health file system's closing phase starts: past the flaky
/// plan's window, so the quarantined OST can heal and be rebuilt.
const AFTER_FLAKY: f64 = 3.5;

/// splitmix64: the stream is a pure function of its seed.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

#[derive(Clone, Copy)]
enum Fs {
    Plain,
    Qos,
    Health,
}

impl Fs {
    fn label(self) -> &'static str {
        match self {
            Fs::Plain => "plain",
            Fs::Qos => "qos",
            Fs::Health => "health+chaos",
        }
    }

    /// Small stripes split by `max_rpc`, over five OSTs so consecutive
    /// files start on different ones.
    fn build(self) -> Arc<Pfs> {
        let fs = Pfs::new(
            CLIENTS,
            PfsConfig {
                stripe_size: 4096,
                stripe_count: 3,
                num_osts: 5,
                max_rpc: 3000,
                stripe_replicas: matches!(self, Fs::Health),
                ..Default::default()
            },
        )
        .unwrap();
        fs.enable_latency_metrics();
        match self {
            Fs::Plain => {}
            Fs::Qos => fs
                .enable_qos(
                    QosConfig {
                        discipline: Discipline::FairShare,
                        weights: vec![1.0, 2.0, 1.0],
                        token_buckets: vec![None, Some((2.0e7, 16384.0)), None],
                        batch_window: 2.0e-4,
                        fair_allowance: 1.0e-3,
                    },
                    vec![0, 0, 1, 1, 2, 2],
                )
                .unwrap(),
            Fs::Health => {
                let path = concat!(env!("CARGO_MANIFEST_DIR"), "/plans/flaky_ost.toml");
                let text = std::fs::read_to_string(path).unwrap();
                let engine = chaos::FaultPlan::parse(&text)
                    .unwrap()
                    .with(chaos::Effect::OstOutage { ost: 2 }.during(0.010, 0.014))
                    .with(chaos::Effect::LockStorm { clients: None }.during(0.020, 0.024))
                    .with(chaos::Effect::RequestOverhead { extra: 2.0e-4 }.during(0.015, 0.025))
                    .with(chaos::Effect::SilentCorruption { rate: 0.3 }.during(0.0, 0.030))
                    .build()
                    .unwrap();
                fs.attach_chaos(engine).unwrap();
                fs.enable_health(HealthConfig {
                    min_samples: 4,
                    open_secs: 0.01,
                    hedge_min_samples: 8,
                })
                .unwrap();
            }
        }
        fs
    }
}

fn outcome<T: std::fmt::Debug>(r: pfs::Result<T>) -> String {
    match r {
        Ok(v) => format!("ok {v:?}"),
        Err(e) => format!("err {e:?}"),
    }
}

fn time(r: pfs::Result<f64>) -> String {
    match r {
        Ok(t) => format!("t={:016x}", t.to_bits()),
        Err(e) => format!("err {e:?}"),
    }
}

/// Issue one request from the stream at virtual time `now` and render it.
/// A completed request advances its client's clock.
fn request(fs: &Pfs, rng: &mut Rng, clocks: &mut [f64], now: f64) -> String {
    let c = rng.below(CLIENTS as u64) as usize;
    let path = FILES[rng.below(FILES.len() as u64) as usize];
    let id = fs.open(path).unwrap();
    let file_len = fs.len(id).unwrap();
    let at = clocks[c].max(now);
    let offset = rng.below(5 * 4096);
    let len = 1 + rng.below(6000);
    let seed = rng.next() as u8;
    let (line, done) = match rng.below(100) {
        0..=29 => {
            let data: Vec<u8> = (0..len)
                .map(|k| seed.wrapping_add((k as u8).wrapping_mul(13)))
                .collect();
            let r = fs.write_at(id, c, offset, &data, at);
            (format!("write_at {path} {offset}+{len}"), r)
        }
        30..=64 => {
            let hedged = rng.below(2) == 0;
            // Mostly inside the file; some reads run past its end.
            let offset = rng.below(file_len + 64);
            let mut buf = vec![0u8; len as usize];
            let r = if hedged {
                fs.read_at_hedged(id, c, offset, &mut buf, at)
            } else {
                fs.read_at(id, c, offset, &mut buf, at)
            };
            let op = if hedged { "read_at_hedged" } else { "read_at" };
            let line = format!("{op} {path} {offset}+{len} buf={:016x}", fnv1a(&buf));
            (line, r)
        }
        65..=76 => {
            let r = fs.write_rmw(
                id,
                c,
                offset,
                len,
                &mut |span: &mut [u8]| {
                    for (k, b) in span.iter_mut().enumerate() {
                        *b ^= seed.wrapping_add(k as u8);
                    }
                },
                at,
            );
            (format!("write_rmw {path} {offset}+{len}"), r)
        }
        77..=84 => {
            let offset = rng.below(file_len + 64);
            let mut buf = vec![0u8; len as usize];
            let r = fs.read_bytes(id, offset, &mut buf);
            let line = format!(
                "read_bytes {path} {offset}+{len} {} buf={:016x}",
                outcome(r),
                fnv1a(&buf)
            );
            return format!("c{c} {line}");
        }
        85..=89 => {
            let to = rng.below(6 * 4096);
            return format!("c{c} truncate {path} {to} {}", outcome(fs.truncate(id, to)));
        }
        90..=94 => return format!("scrub {:?}", fs.scrub()),
        _ => return format!("rebuild@{:016x} {}", at.to_bits(), outcome(fs.rebuild(at))),
    };
    if let Ok(t) = done {
        clocks[c] = t;
    }
    format!("c{c} {line} @{:016x} {}", at.to_bits(), time(done))
}

/// Everything the file system accumulated over the stream.
fn render_reports(out: &mut String, fs: &Pfs) {
    writeln!(out, "stats {:?}", fs.stats.snapshot()).unwrap();
    for o in fs.ost_report() {
        writeln!(
            out,
            "ost {} requests={} read={} written={} busy={:016x} queue_wait={:016x} lock_transfers={}",
            o.ost,
            o.requests,
            o.bytes_read,
            o.bytes_written,
            o.busy.to_bits(),
            o.queue_wait.to_bits(),
            o.lock_transfers
        )
        .unwrap();
    }
    // f64's Debug output round-trips, so these rows pin every bit.
    for u in fs.tenant_report() {
        writeln!(out, "tenant {u:?}").unwrap();
    }
    if let Some(mut h) = fs.health_report() {
        for row in std::mem::take(&mut h.osts) {
            writeln!(out, "health_ost {row:?}").unwrap();
        }
        writeln!(out, "health {h:?}").unwrap();
    }
    let lat = fs.latency_snapshot();
    let buckets: Vec<String> = lat
        .nonzero_buckets()
        .map(|(bound, n)| format!("{bound}:{n}"))
        .collect();
    writeln!(
        out,
        "latency count={} sum={} buckets={}",
        lat.count(),
        lat.sum(),
        buckets.join(",")
    )
    .unwrap();
    for path in FILES {
        let bytes = fs.snapshot_file(fs.open(path).unwrap()).unwrap();
        writeln!(
            out,
            "file {path} len={} fnv={:016x}",
            bytes.len(),
            fnv1a(&bytes)
        )
        .unwrap();
    }
}

fn cell(out: &mut String, kind: Fs) {
    writeln!(out, "[{}]", kind.label()).unwrap();
    let fs = kind.build();
    for path in FILES {
        fs.create(path).unwrap();
    }
    let mut rng = Rng(0x005E_ED0F_F11E ^ kind as u64);
    let mut clocks = [0.0; CLIENTS];
    for i in 0..OPS {
        if i % 20 == 0 {
            for c in 0..CLIENTS {
                fs.hedge_scope_begin(c);
            }
        }
        let line = request(&fs, &mut rng, &mut clocks, i as f64 * STEP);
        writeln!(out, "{i:03} {line}").unwrap();
    }
    if matches!(kind, Fs::Health) {
        // Past the flaky window: writes to every stripe of /a are the
        // half-open probes that re-close the breakers, then the rebuild
        // migrates what was relocated back home.
        let id = fs.open("/a").unwrap();
        let mut t = AFTER_FLAKY;
        for stripe in 0..6u64 {
            let r = fs.write_at(id, 0, stripe * 4096, &[stripe as u8 + 1; 512], t);
            writeln!(out, "probe /a stripe {stripe} {}", time(r.clone())).unwrap();
            t = r.unwrap_or(t);
        }
        for _ in 0..2 {
            writeln!(out, "rebuild {}", outcome(fs.rebuild(t))).unwrap();
        }
        writeln!(out, "scrub {:?}", fs.scrub()).unwrap();
    }
    render_reports(out, &fs);
}

fn fingerprint() -> String {
    let mut out = String::new();
    for kind in [Fs::Plain, Fs::Qos, Fs::Health] {
        cell(&mut out, kind);
    }
    out
}

#[test]
fn pfs_cost_model_matches_golden_fingerprint() {
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/golden/pfs_fingerprint.txt"
    );
    check_golden(path, &fingerprint()).unwrap_or_else(|why| panic!("{why}"));
}

#[test]
fn pfs_fingerprint_is_deterministic_and_sees_every_layer() {
    // The golden comparison only means something if the stream is a pure
    // function of the code and actually reaches the layers it claims to.
    let a = fingerprint();
    assert_eq!(a, fingerprint());
    for needle in [
        "read_at_hedged",
        "write_rmw",
        "read_bytes",
        "truncate",
        "err Transient",
        "err ChecksumMismatch",
        "err ReadPastEof",
        "tenant TenantUsage",
        "health_ost",
    ] {
        assert!(a.contains(needle), "the stream never produced {needle:?}");
    }
}
