//! Text format for [`FaultPlan`](crate::FaultPlan): a TOML subset parsed
//! by hand (the workspace is offline — no serde). Grammar:
//!
//! ```toml
//! # top-level scalars
//! seed = 42
//!
//! [retry]                 # optional; overrides RetryPolicy defaults
//! max_attempts = 6
//! base_backoff = 0.001
//! max_backoff = 0.25
//!
//! [[fault]]               # one section per fault
//! kind = "ost_outage"     # see kind table below
//! ost = 3
//! from = 0.002
//! until = 0.010
//! ```
//!
//! Supported value forms: unsigned integers, floats (including `1e-3`
//! notation), double-quoted strings, `true`/`false`. `#` starts a comment.
//!
//! | `kind`             | required keys                         |
//! |--------------------|---------------------------------------|
//! | `ost_slowdown`     | `ost`, `factor`, `from`, `until`      |
//! | `ost_outage`       | `ost`, `from`, `until`                |
//! | `request_overhead` | `extra`, `from`, `until`              |
//! | `lock_storm`       | `from`, `until`                       |
//! | `client_lock_storm`| `client_lo`, `client_hi`, `from`, `until` |
//! | `message_delay`    | `delay`, `from`, `until`              |
//! | `conn_flush`       | `at`                                  |
//! | `rank_stall`       | `rank`, `from`, `until`               |
//! | `rank_slowdown`    | `rank`, `factor`, `from`, `until`     |
//! | `rank_crash`       | `rank`, `at`                          |
//! | `silent_corruption`| `rate`, `from`, `until`               |
//! | `flaky_ost`        | `ost`, `factor`, `period`, `duty`, `from`, `until` |
//! | `link_degrade`     | `src`, `dst`, `factor`, `from`, `until` |
//!
//! Unknown sections, kinds, and keys are rejected with a line-numbered
//! error that names the nearest valid spelling (edit distance), so a
//! typo'd plan fails loudly instead of silently injecting nothing.

use crate::{Fault, FaultPlan, RetryPolicy};

/// Every fault kind with its full key set (`kind` included) — the
/// suggestion tables behind unknown-key / unknown-kind diagnostics.
const KIND_KEYS: &[(&str, &[&str])] = &[
    ("ost_slowdown", &["kind", "ost", "factor", "from", "until"]),
    ("ost_outage", &["kind", "ost", "from", "until"]),
    ("request_overhead", &["kind", "extra", "from", "until"]),
    ("lock_storm", &["kind", "from", "until"]),
    (
        "client_lock_storm",
        &["kind", "client_lo", "client_hi", "from", "until"],
    ),
    ("message_delay", &["kind", "delay", "from", "until"]),
    ("conn_flush", &["kind", "at"]),
    ("rank_stall", &["kind", "rank", "from", "until"]),
    (
        "rank_slowdown",
        &["kind", "rank", "factor", "from", "until"],
    ),
    ("rank_crash", &["kind", "rank", "at"]),
    ("silent_corruption", &["kind", "rate", "from", "until"]),
    (
        "flaky_ost",
        &["kind", "ost", "factor", "period", "duty", "from", "until"],
    ),
    (
        "link_degrade",
        &["kind", "src", "dst", "factor", "from", "until"],
    ),
];

const RETRY_KEYS: &[&str] = &["max_attempts", "base_backoff", "max_backoff"];

fn keys_for_kind(kind: &str) -> Option<&'static [&'static str]> {
    KIND_KEYS
        .iter()
        .find(|(k, _)| *k == kind)
        .map(|(_, keys)| *keys)
}

/// Classic dynamic-programming edit distance, O(|a|·|b|); plan keys are
/// tiny so no banding needed.
fn levenshtein(a: &str, b: &str) -> usize {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    let mut prev: Vec<usize> = (0..=b.len()).collect();
    for (i, ca) in a.iter().enumerate() {
        let mut row = vec![i + 1];
        for (j, cb) in b.iter().enumerate() {
            let sub = prev[j] + usize::from(ca != cb);
            row.push(sub.min(prev[j + 1] + 1).min(row[j] + 1));
        }
        prev = row;
    }
    prev[b.len()]
}

/// The candidate closest to `unknown` by edit distance (first wins ties),
/// rendered as a diagnostic suffix. Always names *some* neighbor — a
/// rejected key should tell the user what the section does accept.
fn nearest(unknown: &str, candidates: &[&str]) -> String {
    candidates
        .iter()
        .min_by_key(|c| levenshtein(unknown, c))
        .map(|c| format!(" (nearest valid: `{c}`)"))
        .unwrap_or_default()
}

/// Why a plan failed to parse or validate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlanError {
    /// Syntax error with 1-based line number.
    Syntax { line: usize, msg: String },
    /// Structurally valid text but semantically bad values.
    Invalid(String),
}

impl std::fmt::Display for PlanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlanError::Syntax { line, msg } => write!(f, "fault plan line {line}: {msg}"),
            PlanError::Invalid(msg) => write!(f, "invalid fault plan: {msg}"),
        }
    }
}

impl std::error::Error for PlanError {}

#[derive(Debug, Clone, PartialEq)]
enum Value {
    Num(f64),
    Str(String),
    Bool(bool),
}

impl Value {
    fn as_f64(&self, key: &str, line: usize) -> Result<f64, PlanError> {
        match self {
            Value::Num(n) => Ok(*n),
            _ => Err(PlanError::Syntax {
                line,
                msg: format!("`{key}` must be a number"),
            }),
        }
    }

    fn as_usize(&self, key: &str, line: usize) -> Result<usize, PlanError> {
        match self {
            Value::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= usize::MAX as f64 => {
                Ok(*n as usize)
            }
            _ => Err(PlanError::Syntax {
                line,
                msg: format!("`{key}` must be a non-negative integer"),
            }),
        }
    }
}

/// One parsed `key = value` with its source line (for error reporting).
struct Entry {
    key: String,
    value: Value,
    line: usize,
}

/// Accumulates the entries of the section currently being parsed.
struct Section {
    name: String,
    start_line: usize,
    entries: Vec<Entry>,
}

impl Section {
    fn take(&mut self, key: &str) -> Option<(Value, usize)> {
        let i = self.entries.iter().position(|e| e.key == key)?;
        let e = self.entries.remove(i);
        Some((e.value, e.line))
    }

    fn require(&mut self, key: &str) -> Result<(Value, usize), PlanError> {
        self.take(key).ok_or_else(|| PlanError::Syntax {
            line: self.start_line,
            msg: format!("section `{}` is missing key `{key}`", self.name),
        })
    }

    fn require_f64(&mut self, key: &str) -> Result<f64, PlanError> {
        let (v, line) = self.require(key)?;
        v.as_f64(key, line)
    }

    fn require_usize(&mut self, key: &str) -> Result<usize, PlanError> {
        let (v, line) = self.require(key)?;
        v.as_usize(key, line)
    }

    fn finish(self, valid: &[&str]) -> Result<(), PlanError> {
        if let Some(e) = self.entries.first() {
            return Err(PlanError::Syntax {
                line: e.line,
                msg: format!(
                    "unknown key `{}` in section `{}`{}",
                    e.key,
                    self.name,
                    nearest(&e.key, valid)
                ),
            });
        }
        Ok(())
    }
}

fn parse_value(raw: &str, line: usize) -> Result<Value, PlanError> {
    let raw = raw.trim();
    if raw.starts_with('"') {
        if raw.len() >= 2 && raw.ends_with('"') && !raw[1..raw.len() - 1].contains('"') {
            return Ok(Value::Str(raw[1..raw.len() - 1].to_string()));
        }
        return Err(PlanError::Syntax {
            line,
            msg: format!("malformed string {raw}"),
        });
    }
    match raw {
        "true" => return Ok(Value::Bool(true)),
        "false" => return Ok(Value::Bool(false)),
        _ => {}
    }
    raw.parse::<f64>()
        .map(Value::Num)
        .map_err(|_| PlanError::Syntax {
            line,
            msg: format!("cannot parse value `{raw}`"),
        })
}

fn strip_comment(line: &str) -> &str {
    // `#` inside a quoted string does not start a comment.
    let mut in_str = false;
    for (i, c) in line.char_indices() {
        match c {
            '"' => in_str = !in_str,
            '#' if !in_str => return &line[..i],
            _ => {}
        }
    }
    line
}

fn fault_from_section(mut s: Section) -> Result<Fault, PlanError> {
    let (kind_v, kind_line) = s.require("kind")?;
    let kind = match kind_v {
        Value::Str(k) => k,
        _ => {
            return Err(PlanError::Syntax {
                line: kind_line,
                msg: "`kind` must be a string".into(),
            })
        }
    };
    let fault = match kind.as_str() {
        "ost_slowdown" => Fault::OstSlowdown {
            ost: s.require_usize("ost")?,
            factor: s.require_f64("factor")?,
            from: s.require_f64("from")?,
            until: s.require_f64("until")?,
        },
        "ost_outage" => Fault::OstOutage {
            ost: s.require_usize("ost")?,
            from: s.require_f64("from")?,
            until: s.require_f64("until")?,
        },
        "request_overhead" => Fault::RequestOverhead {
            extra: s.require_f64("extra")?,
            from: s.require_f64("from")?,
            until: s.require_f64("until")?,
        },
        "lock_storm" => Fault::LockStorm {
            from: s.require_f64("from")?,
            until: s.require_f64("until")?,
        },
        "client_lock_storm" => Fault::ClientLockStorm {
            lo: s.require_usize("client_lo")?,
            hi: s.require_usize("client_hi")?,
            from: s.require_f64("from")?,
            until: s.require_f64("until")?,
        },
        "message_delay" => Fault::MessageDelay {
            delay: s.require_f64("delay")?,
            from: s.require_f64("from")?,
            until: s.require_f64("until")?,
        },
        "conn_flush" => Fault::ConnFlush {
            at: s.require_f64("at")?,
        },
        "rank_stall" => Fault::RankStall {
            rank: s.require_usize("rank")?,
            from: s.require_f64("from")?,
            until: s.require_f64("until")?,
        },
        "rank_slowdown" => Fault::RankSlowdown {
            rank: s.require_usize("rank")?,
            factor: s.require_f64("factor")?,
            from: s.require_f64("from")?,
            until: s.require_f64("until")?,
        },
        "rank_crash" => Fault::RankCrash {
            rank: s.require_usize("rank")?,
            at: s.require_f64("at")?,
        },
        "silent_corruption" => Fault::SilentCorruption {
            rate: s.require_f64("rate")?,
            from: s.require_f64("from")?,
            until: s.require_f64("until")?,
        },
        "flaky_ost" => Fault::FlakyOst {
            ost: s.require_usize("ost")?,
            factor: s.require_f64("factor")?,
            period: s.require_f64("period")?,
            duty: s.require_f64("duty")?,
            from: s.require_f64("from")?,
            until: s.require_f64("until")?,
        },
        "link_degrade" => Fault::LinkDegrade {
            src: s.require_usize("src")?,
            dst: s.require_usize("dst")?,
            factor: s.require_f64("factor")?,
            from: s.require_f64("from")?,
            until: s.require_f64("until")?,
        },
        other => {
            let kinds: Vec<&str> = KIND_KEYS.iter().map(|(k, _)| *k).collect();
            return Err(PlanError::Syntax {
                line: kind_line,
                msg: format!("unknown fault kind `{other}`{}", nearest(other, &kinds)),
            });
        }
    };
    // Invariant: every arm above but the last is a `KIND_KEYS` entry, and
    // the last returned.
    s.finish(keys_for_kind(&kind).expect("every accepted kind is in KIND_KEYS"))?;
    Ok(fault)
}

fn retry_from_section(mut s: Section) -> Result<RetryPolicy, PlanError> {
    let mut retry = RetryPolicy::default();
    if let Some((v, line)) = s.take("max_attempts") {
        let n = v.as_usize("max_attempts", line)?;
        retry.max_attempts = match u32::try_from(n) {
            Ok(n) if n >= 1 => n,
            _ => {
                return Err(PlanError::Syntax {
                    line,
                    msg: "`max_attempts` must be ≥ 1 and fit 32 bits".into(),
                })
            }
        };
    }
    if let Some((v, line)) = s.take("base_backoff") {
        retry.base_backoff = v.as_f64("base_backoff", line)?;
    }
    if let Some((v, line)) = s.take("max_backoff") {
        retry.max_backoff = v.as_f64("max_backoff", line)?;
    }
    s.finish(RETRY_KEYS)?;
    if !(retry.base_backoff.is_finite()
        && retry.base_backoff >= 0.0
        && retry.max_backoff.is_finite()
        && retry.max_backoff >= 0.0)
    {
        return Err(PlanError::Invalid(
            "retry backoffs must be finite and ≥ 0".into(),
        ));
    }
    Ok(retry)
}

impl FaultPlan {
    /// Parse a plan from the TOML-subset text format documented at the top
    /// of this module. The result still needs [`FaultPlan::build`] to be
    /// validated and compiled.
    pub fn parse(text: &str) -> Result<FaultPlan, PlanError> {
        enum Target {
            Top,
            Retry(Section),
            Fault(Section),
        }
        let mut plan = FaultPlan::new(0);
        let mut target = Target::Top;
        let close = |t: Target, plan: &mut FaultPlan| -> Result<(), PlanError> {
            match t {
                Target::Top => Ok(()),
                Target::Retry(s) => {
                    plan.retry = retry_from_section(s)?;
                    Ok(())
                }
                Target::Fault(s) => {
                    plan.faults.push(fault_from_section(s)?);
                    Ok(())
                }
            }
        };
        for (idx, raw) in text.lines().enumerate() {
            let line_no = idx + 1;
            let line = strip_comment(raw).trim();
            if line.is_empty() {
                continue;
            }
            if let Some(header) = line.strip_prefix("[[").and_then(|l| l.strip_suffix("]]")) {
                let prev = std::mem::replace(&mut target, Target::Top);
                close(prev, &mut plan)?;
                if header.trim() != "fault" {
                    return Err(PlanError::Syntax {
                        line: line_no,
                        msg: format!("unknown array section `[[{}]]`", header.trim()),
                    });
                }
                target = Target::Fault(Section {
                    name: "fault".into(),
                    start_line: line_no,
                    entries: Vec::new(),
                });
            } else if let Some(header) = line.strip_prefix('[').and_then(|l| l.strip_suffix(']')) {
                let prev = std::mem::replace(&mut target, Target::Top);
                close(prev, &mut plan)?;
                if header.trim() != "retry" {
                    return Err(PlanError::Syntax {
                        line: line_no,
                        msg: format!("unknown section `[{}]`", header.trim()),
                    });
                }
                target = Target::Retry(Section {
                    name: "retry".into(),
                    start_line: line_no,
                    entries: Vec::new(),
                });
            } else if let Some((key, value)) = line.split_once('=') {
                let key = key.trim().to_string();
                let value = parse_value(value, line_no)?;
                match &mut target {
                    Target::Top => match key.as_str() {
                        "seed" => {
                            plan.seed = match value {
                                Value::Num(n) if n >= 0.0 && n.fract() == 0.0 => n as u64,
                                _ => {
                                    return Err(PlanError::Syntax {
                                        line: line_no,
                                        msg: "`seed` must be a non-negative integer".into(),
                                    })
                                }
                            };
                        }
                        other => {
                            return Err(PlanError::Syntax {
                                line: line_no,
                                msg: format!(
                                    "unknown top-level key `{other}`{}",
                                    nearest(other, &["seed"])
                                ),
                            })
                        }
                    },
                    Target::Retry(s) | Target::Fault(s) => s.entries.push(Entry {
                        key,
                        value,
                        line: line_no,
                    }),
                }
            } else {
                return Err(PlanError::Syntax {
                    line: line_no,
                    msg: format!("cannot parse `{line}`"),
                });
            }
        }
        close(target, &mut plan)?;
        Ok(plan)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_full_plan() {
        let text = r#"
            # a comment
            seed = 99

            [retry]
            max_attempts = 4
            base_backoff = 2e-3
            max_backoff = 0.5

            [[fault]]
            kind = "ost_outage"   # trailing comment
            ost = 3
            from = 0.002
            until = 0.010

            [[fault]]
            kind = "message_delay"
            delay = 1.5e-4
            from = 0.0
            until = 0.02

            [[fault]]
            kind = "conn_flush"
            at = 0.005
        "#;
        let plan = FaultPlan::parse(text).unwrap();
        assert_eq!(plan.seed, 99);
        assert_eq!(
            plan.retry,
            RetryPolicy {
                max_attempts: 4,
                base_backoff: 2e-3,
                max_backoff: 0.5
            }
        );
        assert_eq!(
            plan.faults,
            vec![
                Fault::OstOutage {
                    ost: 3,
                    from: 0.002,
                    until: 0.010
                },
                Fault::MessageDelay {
                    delay: 1.5e-4,
                    from: 0.0,
                    until: 0.02
                },
                Fault::ConnFlush { at: 0.005 },
            ]
        );
        plan.build().unwrap();
    }

    #[test]
    fn parses_every_kind() {
        let text = r#"
            [[fault]]
            kind = "ost_slowdown"
            ost = 0
            factor = 3.0
            from = 0.0
            until = 1.0
            [[fault]]
            kind = "request_overhead"
            extra = 1e-4
            from = 0.0
            until = 1.0
            [[fault]]
            kind = "lock_storm"
            from = 0.0
            until = 1.0
            [[fault]]
            kind = "rank_stall"
            rank = 1
            from = 0.0
            until = 1.0
            [[fault]]
            kind = "rank_slowdown"
            rank = 2
            factor = 2.0
            from = 0.0
            until = 1.0
            [[fault]]
            kind = "rank_crash"
            rank = 3
            at = 0.5
            [[fault]]
            kind = "silent_corruption"
            rate = 0.25
            from = 0.0
            until = 1.0
        "#;
        let plan = FaultPlan::parse(text).unwrap();
        assert_eq!(plan.faults.len(), 7);
        assert_eq!(plan.faults[5], Fault::RankCrash { rank: 3, at: 0.5 });
        assert_eq!(
            plan.faults[6],
            Fault::SilentCorruption {
                rate: 0.25,
                from: 0.0,
                until: 1.0
            }
        );
        plan.build().unwrap();
    }

    #[test]
    fn roundtrip_errors_carry_line_numbers() {
        let err = FaultPlan::parse("seed = 1\nbogus line").unwrap_err();
        assert_eq!(
            err,
            PlanError::Syntax {
                line: 2,
                msg: "cannot parse `bogus line`".into()
            }
        );

        let err = FaultPlan::parse("[[fault]]\nkind = \"nope\"").unwrap_err();
        assert!(matches!(err, PlanError::Syntax { line: 2, .. }));

        let err = FaultPlan::parse("[[fault]]\nkind = \"lock_storm\"\nfrom = 0.0").unwrap_err();
        assert!(matches!(err, PlanError::Syntax { line: 1, .. }), "{err}");

        let err =
            FaultPlan::parse("[[fault]]\nkind = \"conn_flush\"\nat = 0.0\nwhat = 1").unwrap_err();
        assert!(matches!(err, PlanError::Syntax { line: 4, .. }));
    }

    #[test]
    fn client_lock_storm_parses() {
        let plan = FaultPlan::parse(
            "[[fault]]\nkind = \"client_lock_storm\"\nclient_lo = 2\nclient_hi = 3\nfrom = 0.0\nuntil = 1.0",
        )
        .unwrap();
        let e = plan.build().unwrap();
        assert!(e.lock_storm_for(2, 0.5));
        assert!(!e.lock_storm_for(1, 0.5));
        assert!(FaultPlan::parse(
            "[[fault]]\nkind = \"client_lock_storm\"\nclient_lo = 2\nfrom = 0.0\nuntil = 1.0"
        )
        .is_err());
    }

    #[test]
    fn unknown_sections_and_keys_rejected() {
        assert!(FaultPlan::parse("[nope]").is_err());
        assert!(FaultPlan::parse("[[nope]]").is_err());
        assert!(FaultPlan::parse("what = 1").is_err());
        assert!(FaultPlan::parse("[retry]\nwhat = 1").is_err());
    }

    #[test]
    fn gray_failure_kinds_parse() {
        let plan = FaultPlan::parse(
            r#"
            [[fault]]
            kind = "flaky_ost"
            ost = 2
            factor = 50.0
            period = 0.01
            duty = 0.8
            from = 0.0
            until = 1.0

            [[fault]]
            kind = "link_degrade"
            src = 0
            dst = 3
            factor = 4.0
            from = 0.1
            until = 0.9
            "#,
        )
        .unwrap();
        assert_eq!(
            plan.faults,
            vec![
                Fault::FlakyOst {
                    ost: 2,
                    factor: 50.0,
                    period: 0.01,
                    duty: 0.8,
                    from: 0.0,
                    until: 1.0,
                },
                Fault::LinkDegrade {
                    src: 0,
                    dst: 3,
                    factor: 4.0,
                    from: 0.1,
                    until: 0.9,
                },
            ]
        );
        plan.build().unwrap();
    }

    /// A minimal valid section body (sans `kind`) for every fault family,
    /// used to probe unknown-key diagnostics one family at a time.
    fn minimal_body(kind: &str) -> &'static str {
        match kind {
            "ost_slowdown" => "ost = 0\nfactor = 2.0\nfrom = 0.0\nuntil = 1.0",
            "ost_outage" => "ost = 0\nfrom = 0.0\nuntil = 1.0",
            "request_overhead" => "extra = 1e-4\nfrom = 0.0\nuntil = 1.0",
            "lock_storm" => "from = 0.0\nuntil = 1.0",
            "client_lock_storm" => "client_lo = 0\nclient_hi = 1\nfrom = 0.0\nuntil = 1.0",
            "message_delay" => "delay = 1e-4\nfrom = 0.0\nuntil = 1.0",
            "conn_flush" => "at = 0.5",
            "rank_stall" => "rank = 0\nfrom = 0.0\nuntil = 1.0",
            "rank_slowdown" => "rank = 0\nfactor = 2.0\nfrom = 0.0\nuntil = 1.0",
            "rank_crash" => "rank = 0\nat = 0.5",
            "silent_corruption" => "rate = 0.5\nfrom = 0.0\nuntil = 1.0",
            "flaky_ost" => {
                "ost = 0\nfactor = 2.0\nperiod = 0.1\nduty = 0.5\nfrom = 0.0\nuntil = 1.0"
            }
            "link_degrade" => "src = 0\ndst = 1\nfactor = 2.0\nfrom = 0.0\nuntil = 1.0",
            other => panic!("no minimal body for {other}"),
        }
    }

    #[test]
    fn every_family_rejects_unknown_keys_naming_the_nearest() {
        // One probe per fault family: a typo'd copy of a real key must be
        // rejected with the line number and the intended spelling.
        for (kind, keys) in KIND_KEYS {
            let victim = keys.iter().find(|k| **k != "kind").unwrap();
            let typo = format!("{victim}z");
            let text = format!(
                "[[fault]]\nkind = \"{kind}\"\n{}\n{typo} = 1.0",
                minimal_body(kind)
            );
            let err = FaultPlan::parse(&text).unwrap_err();
            match err {
                PlanError::Syntax { line, msg } => {
                    assert_eq!(
                        line,
                        3 + minimal_body(kind).lines().count(),
                        "{kind}: line must point at the typo"
                    );
                    assert!(
                        msg.contains(&format!("unknown key `{typo}`")),
                        "{kind}: {msg}"
                    );
                    assert!(
                        msg.contains(&format!("(nearest valid: `{victim}`)")),
                        "{kind}: {msg}"
                    );
                }
                other => panic!("{kind}: expected syntax error, got {other:?}"),
            }
        }
    }

    #[test]
    fn unknown_kind_and_retry_key_name_the_nearest() {
        let err = FaultPlan::parse("[[fault]]\nkind = \"flakey_ost\"").unwrap_err();
        match err {
            PlanError::Syntax { line, msg } => {
                assert_eq!(line, 2);
                assert!(msg.contains("(nearest valid: `flaky_ost`)"), "{msg}");
            }
            other => panic!("{other:?}"),
        }
        let err = FaultPlan::parse("[retry]\nmax_attemps = 3").unwrap_err();
        match err {
            PlanError::Syntax { msg, .. } => {
                assert!(msg.contains("(nearest valid: `max_attempts`)"), "{msg}");
            }
            other => panic!("{other:?}"),
        }
        let err = FaultPlan::parse("sede = 3").unwrap_err();
        match err {
            PlanError::Syntax { msg, .. } => {
                assert!(msg.contains("(nearest valid: `seed`)"), "{msg}");
            }
            other => panic!("{other:?}"),
        }
    }
}
