//! Host-side measurement without libc or `unsafe`: wall time from
//! `Instant`, CPU time and fault counts from `/proc/self/stat`, resident
//! set from `/proc/self/status`, plus the FNV-1a hash the output check
//! uses and the order statistics every timing is reported with.

use std::time::Instant;

/// `/proc/self/stat` counts CPU time in clock ticks. The kernel exports
/// them in `USER_HZ`, which is 100 on every Linux ABI (it is not the
/// kernel's internal `HZ`), so one tick is 10 ms.
const TICKS_PER_SEC: f64 = 100.0;

/// One reading of the process's clocks and fault counter.
#[derive(Debug, Clone, Copy)]
pub struct HostSample {
    at: Instant,
    user_ticks: u64,
    sys_ticks: u64,
    minflt: u64,
}

/// What the process spent between two [`HostSample`]s.
#[derive(Debug, Clone, Copy, Default)]
pub struct HostDelta {
    pub wall_s: f64,
    pub user_s: f64,
    pub sys_s: f64,
    pub minflt: u64,
}

impl HostDelta {
    pub fn add(&mut self, d: HostDelta) {
        self.wall_s += d.wall_s;
        self.user_s += d.user_s;
        self.sys_s += d.sys_s;
        self.minflt += d.minflt;
    }

    pub fn minus(&self, d: HostDelta) -> HostDelta {
        HostDelta {
            wall_s: self.wall_s - d.wall_s,
            user_s: self.user_s - d.user_s,
            sys_s: self.sys_s - d.sys_s,
            minflt: self.minflt - d.minflt,
        }
    }
}

impl HostSample {
    pub fn now() -> HostSample {
        let stat = std::fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
        // The command name (field 2) may hold spaces and parentheses; the
        // numeric fields start after its closing parenthesis, at field 3.
        let rest = &stat[stat.rfind(')').expect("comm field") + 1..];
        let field = |n: usize| -> u64 {
            rest.split_ascii_whitespace()
                .nth(n - 3)
                .and_then(|s| s.parse().ok())
                .unwrap_or_else(|| panic!("/proc/self/stat field {n}"))
        };
        HostSample {
            at: Instant::now(),
            minflt: field(10),
            user_ticks: field(14),
            sys_ticks: field(15),
        }
    }

    pub fn since(&self, earlier: &HostSample) -> HostDelta {
        HostDelta {
            wall_s: self.at.duration_since(earlier.at).as_secs_f64(),
            user_s: (self.user_ticks - earlier.user_ticks) as f64 / TICKS_PER_SEC,
            sys_s: (self.sys_ticks - earlier.sys_ticks) as f64 / TICKS_PER_SEC,
            minflt: self.minflt - earlier.minflt,
        }
    }
}

/// Peak resident set of this process so far (`VmHWM`), in MB (10^6 bytes).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM line in /proc/self/status");
    kib * 1024.0 / 1.0e6
}

/// Incremental FNV-1a-64, the hash the output check pins file bytes with.
/// It folds little-endian 8-byte words (the tail of each `update` byte by
/// byte) instead of single bytes: the multiply chain is the whole cost, and
/// `fleet_gray` hashes 0.8 GB per rep.
#[derive(Debug, Clone, Copy)]
pub struct Fnv1a(u64);

impl Default for Fnv1a {
    fn default() -> Self {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv1a {
    pub fn update(&mut self, bytes: &[u8]) {
        const PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut words = bytes.chunks_exact(8);
        for w in &mut words {
            let w = u64::from_le_bytes(w.try_into().expect("8-byte chunk"));
            self.0 = (self.0 ^ w).wrapping_mul(PRIME);
        }
        for &b in words.remainder() {
            self.0 = (self.0 ^ b as u64).wrapping_mul(PRIME);
        }
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// Median, quartiles, extremes and sample count: how every timing is
/// reported.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub min: f64,
    pub max: f64,
    pub n: usize,
}

impl Summary {
    pub fn of(values: &[f64]) -> Summary {
        assert!(!values.is_empty(), "summary of no samples");
        let mut v = values.to_vec();
        v.sort_by(f64::total_cmp);
        let n = v.len();
        // The quartiles Python's `statistics.quantiles(v, n=4)` gives,
        // which is how `BENCHMARK.json`'s contract measures a spread.
        let quartile = |i: usize| {
            if n == 1 {
                return v[0];
            }
            let j = (i * (n + 1) / 4).clamp(1, n - 1);
            let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
            (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
        };
        Summary {
            median: quartile(2),
            q1: quartile(1),
            q3: quartile(3),
            min: v[0],
            max: v[n - 1],
            n,
        }
    }

    /// Interquartile range over the median: the spread `--check-repeat`
    /// prints and compares with a metric's bound.
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}
