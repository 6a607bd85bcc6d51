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
//! An integer key (`seed`, `max_attempts`, and every OST, rank, client and
//! node index) takes only an integer literal, read exactly as a `u64`; a
//! float key takes either form.
//!
//! Every kind but the two instants also takes its window, `from` and
//! `until`:
//!
//! | `kind`             | keys besides `kind`, `from`, `until` |
//! |--------------------|--------------------------------------|
//! | `ost_slowdown`     | `ost`, `factor`                      |
//! | `ost_outage`       | `ost`                                |
//! | `request_overhead` | `extra`                              |
//! | `lock_storm`       | —                                    |
//! | `client_lock_storm`| `client_lo`, `client_hi`             |
//! | `message_delay`    | `delay`                              |
//! | `rank_stall`       | `rank`                               |
//! | `rank_slowdown`    | `rank`, `factor`                     |
//! | `silent_corruption`| `rate`                               |
//! | `flaky_ost`        | `ost`, `factor`, `period`, `duty`    |
//! | `link_degrade`     | `src`, `dst`, `factor`               |
//! | `conn_flush`       | `at` (an instant: no window)         |
//! | `rank_crash`       | `rank`, `at` (an instant: no window) |
//!
//! Unknown sections, kinds, and keys are rejected with a line-numbered
//! error that names the nearest valid spelling (edit distance), so a
//! typo'd plan fails loudly instead of silently injecting nothing.

use crate::{Effect, Fault, FaultPlan, RetryPolicy};

/// Every fault kind — the suggestion table behind unknown-kind
/// diagnostics.
const KINDS: &[&str] = &[
    "ost_slowdown",
    "ost_outage",
    "request_overhead",
    "lock_storm",
    "client_lock_storm",
    "message_delay",
    "conn_flush",
    "rank_stall",
    "rank_slowdown",
    "rank_crash",
    "silent_corruption",
    "flaky_ost",
    "link_degrade",
];

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

fn syntax(line: usize, msg: impl Into<String>) -> PlanError {
    PlanError::Syntax {
        line,
        msg: msg.into(),
    }
}

#[derive(Debug, Clone, PartialEq)]
enum Value {
    /// A literal that reads as a `u64` exactly.
    Int(u64),
    Num(f64),
    Str(String),
    Bool(bool),
}

impl Value {
    fn as_f64(&self, key: &str, line: usize) -> Result<f64, PlanError> {
        match *self {
            Value::Int(n) => Ok(n as f64),
            Value::Num(x) => Ok(x),
            _ => Err(syntax(line, format!("`{key}` must be a number"))),
        }
    }

    fn as_u64(&self, key: &str, line: usize) -> Result<u64, PlanError> {
        match *self {
            Value::Int(n) => Ok(n),
            _ => Err(syntax(
                line,
                format!("`{key}` must be a non-negative integer that fits 64 bits"),
            )),
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
    name: &'static str,
    start_line: usize,
    entries: Vec<Entry>,
    /// Every key the parser looked for, in order: the section's valid
    /// spellings.
    asked: Vec<&'static str>,
}

impl Section {
    fn new(name: &'static str, start_line: usize) -> Section {
        Section {
            name,
            start_line,
            entries: Vec::new(),
            asked: Vec::new(),
        }
    }

    fn take(&mut self, key: &'static str) -> Option<(Value, usize)> {
        self.asked.push(key);
        let i = self.entries.iter().position(|e| e.key == key)?;
        let e = self.entries.remove(i);
        Some((e.value, e.line))
    }

    fn require(&mut self, key: &'static str) -> Result<(Value, usize), PlanError> {
        let (name, line) = (self.name, self.start_line);
        self.take(key)
            .ok_or_else(|| syntax(line, format!("section `{name}` is missing key `{key}`")))
    }

    fn f64(&mut self, key: &'static str) -> Result<f64, PlanError> {
        let (v, line) = self.require(key)?;
        v.as_f64(key, line)
    }

    fn index(&mut self, key: &'static str) -> Result<usize, PlanError> {
        let (v, line) = self.require(key)?;
        let n = v.as_u64(key, line)?;
        usize::try_from(n).map_err(|_| syntax(line, format!("`{key}` {n} is out of range")))
    }

    fn finish(self) -> Result<(), PlanError> {
        match self.entries.first() {
            Some(e) => Err(syntax(
                e.line,
                format!(
                    "unknown key `{}` in section `{}`{}",
                    e.key,
                    self.name,
                    nearest(&e.key, &self.asked)
                ),
            )),
            None => Ok(()),
        }
    }
}

fn parse_value(raw: &str, line: usize) -> Result<Value, PlanError> {
    let raw = raw.trim();
    if raw.starts_with('"') {
        if raw.len() >= 2 && raw.ends_with('"') && !raw[1..raw.len() - 1].contains('"') {
            return Ok(Value::Str(raw[1..raw.len() - 1].to_string()));
        }
        return Err(syntax(line, format!("malformed string {raw}")));
    }
    match raw {
        "true" => Ok(Value::Bool(true)),
        "false" => Ok(Value::Bool(false)),
        _ => match raw.parse::<u64>() {
            Ok(n) => Ok(Value::Int(n)),
            Err(_) => raw
                .parse::<f64>()
                .map(Value::Num)
                .map_err(|_| syntax(line, format!("cannot parse value `{raw}`"))),
        },
    }
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

/// The effect a windowed `kind` names, read from its keys.
fn effect_from_section(kind: &str, line: usize, s: &mut Section) -> Result<Effect, PlanError> {
    Ok(match kind {
        "ost_slowdown" => Effect::OstSlowdown {
            ost: s.index("ost")?,
            factor: s.f64("factor")?,
        },
        "ost_outage" => Effect::OstOutage {
            ost: s.index("ost")?,
        },
        "request_overhead" => Effect::RequestOverhead {
            extra: s.f64("extra")?,
        },
        "lock_storm" => Effect::LockStorm { clients: None },
        "client_lock_storm" => Effect::LockStorm {
            clients: Some(s.index("client_lo")?..=s.index("client_hi")?),
        },
        "message_delay" => Effect::MessageDelay {
            delay: s.f64("delay")?,
        },
        "rank_stall" => Effect::RankStall {
            rank: s.index("rank")?,
        },
        "rank_slowdown" => Effect::RankSlowdown {
            rank: s.index("rank")?,
            factor: s.f64("factor")?,
        },
        "silent_corruption" => Effect::SilentCorruption {
            rate: s.f64("rate")?,
        },
        "flaky_ost" => Effect::FlakyOst {
            ost: s.index("ost")?,
            factor: s.f64("factor")?,
            period: s.f64("period")?,
            duty: s.f64("duty")?,
        },
        "link_degrade" => Effect::LinkDegrade {
            src: s.index("src")?,
            dst: s.index("dst")?,
            factor: s.f64("factor")?,
        },
        other => {
            let hint = nearest(other, KINDS);
            return Err(syntax(line, format!("unknown fault kind `{other}`{hint}")));
        }
    })
}

fn fault_from_section(mut s: Section) -> Result<Fault, PlanError> {
    let (kind, line) = s.require("kind")?;
    let Value::Str(kind) = kind else {
        return Err(syntax(line, "`kind` must be a string"));
    };
    let fault = match kind.as_str() {
        "conn_flush" => Fault::ConnFlush { at: s.f64("at")? },
        "rank_crash" => Fault::RankCrash {
            rank: s.index("rank")?,
            at: s.f64("at")?,
        },
        kind => effect_from_section(kind, line, &mut s)?.during(s.f64("from")?, s.f64("until")?),
    };
    s.finish()?;
    Ok(fault)
}

fn retry_from_section(mut s: Section) -> Result<RetryPolicy, PlanError> {
    let mut retry = RetryPolicy::default();
    if let Some((v, line)) = s.take("max_attempts") {
        retry.max_attempts = match u32::try_from(v.as_u64("max_attempts", line)?) {
            Ok(n) if n >= 1 => n,
            _ => return Err(syntax(line, "`max_attempts` must be ≥ 1 and fit 32 bits")),
        };
    }
    if let Some((v, line)) = s.take("base_backoff") {
        retry.base_backoff = v.as_f64("base_backoff", line)?;
    }
    if let Some((v, line)) = s.take("max_backoff") {
        retry.max_backoff = v.as_f64("max_backoff", line)?;
    }
    s.finish()?;
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
        let mut plan = FaultPlan::new(0);
        let mut open: Option<Section> = None;
        let close = |s: Option<Section>, plan: &mut FaultPlan| -> Result<(), PlanError> {
            match s {
                Some(s) if s.name == "retry" => plan.retry = retry_from_section(s)?,
                Some(s) => plan.faults.push(fault_from_section(s)?),
                None => {}
            }
            Ok(())
        };
        for (idx, raw) in text.lines().enumerate() {
            let line_no = idx + 1;
            let line = strip_comment(raw).trim();
            if line.is_empty() {
                continue;
            }
            if let Some(inner) = line.strip_prefix('[').and_then(|l| l.strip_suffix(']')) {
                close(open.take(), &mut plan)?;
                let name = match inner.strip_prefix('[').and_then(|l| l.strip_suffix(']')) {
                    Some(array) if array.trim() == "fault" => "fault",
                    None if inner.trim() == "retry" => "retry",
                    _ => return Err(syntax(line_no, format!("unknown section `{line}`"))),
                };
                open = Some(Section::new(name, line_no));
            } else if let Some((key, value)) = line.split_once('=') {
                let key = key.trim();
                let value = parse_value(value, line_no)?;
                match &mut open {
                    Some(s) => s.entries.push(Entry {
                        key: key.to_string(),
                        value,
                        line: line_no,
                    }),
                    None if key == "seed" => plan.seed = value.as_u64("seed", line_no)?,
                    None => {
                        let hint = nearest(key, &["seed"]);
                        return Err(syntax(
                            line_no,
                            format!("unknown top-level key `{key}`{hint}"),
                        ));
                    }
                }
            } else {
                return Err(syntax(line_no, format!("cannot parse `{line}`")));
            }
        }
        close(open, &mut plan)?;
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
                Effect::OstOutage { ost: 3 }.during(0.002, 0.010),
                Effect::MessageDelay { delay: 1.5e-4 }.during(0.0, 0.02),
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
            Effect::SilentCorruption { rate: 0.25 }.during(0.0, 1.0)
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
                Effect::FlakyOst {
                    ost: 2,
                    factor: 50.0,
                    period: 0.01,
                    duty: 0.8,
                }
                .during(0.0, 1.0),
                Effect::LinkDegrade {
                    src: 0,
                    dst: 3,
                    factor: 4.0,
                }
                .during(0.1, 0.9),
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
        for kind in KINDS {
            let body = minimal_body(kind);
            let victim = body.split(" =").next().unwrap();
            let typo = format!("{victim}z");
            let text = format!("[[fault]]\nkind = \"{kind}\"\n{body}\n{typo} = 1.0");
            let err = FaultPlan::parse(&text).unwrap_err();
            match err {
                PlanError::Syntax { line, msg } => {
                    assert_eq!(
                        line,
                        3 + body.lines().count(),
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

    #[test]
    fn integer_keys_read_integer_literals_exactly() {
        // `Ok(n)`: the key holds exactly `n`; `Err(line)`: a syntax error
        // there. Integers that f64 cannot hold must not round, and a float
        // literal is no integer, however large or whole.
        let seed = |text: &str| FaultPlan::parse(&format!("# plan\n{text}")).map(|p| p.seed);
        let cases: &[(&str, Result<u64, usize>)] = &[
            ("seed = 9007199254740993", Ok(9_007_199_254_740_993)),
            ("seed = 18446744073709551615", Ok(u64::MAX)),
            ("seed = 18446744073709551616", Err(2)),
            ("seed = 1e300", Err(2)),
            ("seed = 4.0", Err(2)),
            ("seed = -1", Err(2)),
            ("seed = \"7\"", Err(2)),
        ];
        for (text, want) in cases {
            let got = seed(text).map_err(|e| match e {
                PlanError::Syntax { line, .. } => line,
                other => panic!("{text}: {other:?}"),
            });
            assert_eq!(got, *want, "{text}");
        }
        let rank = |value: &str| {
            let text = format!("[[fault]]\nkind = \"rank_crash\"\nrank = {value}\nat = 1");
            FaultPlan::parse(&text).map(|p| p.faults[0].clone())
        };
        assert_eq!(
            rank("9007199254740993"),
            Ok(Fault::RankCrash {
                rank: 9_007_199_254_740_993,
                at: 1.0
            }),
            "an integer key is exact; a float key takes an integer"
        );
        for bad in ["2.5", "1e300", "3.0"] {
            assert!(
                matches!(rank(bad), Err(PlanError::Syntax { line: 3, .. })),
                "rank = {bad}"
            );
        }
        let ost = "[[fault]]\nkind = \"ost_outage\"\nost = 1e0\nfrom = 0\nuntil = 1";
        assert!(matches!(
            FaultPlan::parse(ost),
            Err(PlanError::Syntax { line: 3, .. })
        ));
        let retry = FaultPlan::parse("[retry]\nmax_attempts = 4294967296");
        assert!(matches!(retry, Err(PlanError::Syntax { line: 2, .. })));
    }
}
