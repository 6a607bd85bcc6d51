//! Table printing and JSON plumbing for the experiments.
//! [`Json`] is a minimal self-contained value type (the offline build has
//! no serde): deterministic rendering — object keys keep insertion order,
//! numbers use Rust's shortest-roundtrip formatting — a total parser for
//! reading baselines back, and the one file writer every document goes
//! through.

use std::fs;
use std::path::Path;

/// A simple fixed-width table that mirrors the paper's figure data.
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    pub fn new<S: Into<String>>(headers: Vec<S>) -> Table {
        Table {
            headers: headers.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    pub fn row<S: Into<String>>(&mut self, cells: Vec<S>) {
        let cells: Vec<String> = cells.into_iter().map(Into::into).collect();
        assert_eq!(cells.len(), self.headers.len(), "row width mismatch");
        self.rows.push(cells);
    }

    /// Render with aligned columns.
    pub fn render(&self) -> String {
        let ncols = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for c in 0..ncols {
                widths[c] = widths[c].max(row[c].len());
            }
        }
        let mut out = String::new();
        let line = |cells: &[String], out: &mut String| {
            for (c, cell) in cells.iter().enumerate() {
                if c > 0 {
                    out.push_str("  ");
                }
                out.push_str(&format!("{:>width$}", cell, width = widths[c]));
            }
            out.push('\n');
        };
        line(&self.headers, &mut out);
        let total: usize = widths.iter().sum::<usize>() + 2 * (ncols - 1);
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for row in &self.rows {
            line(row, &mut out);
        }
        out
    }

    /// Print to stdout.
    pub fn print(&self) {
        print!("{}", self.render());
    }

    /// The table as a document (`columns` plus string `rows`).
    pub fn to_json(&self) -> Json {
        let strs = |cells: &[String]| Json::Arr(cells.iter().map(Json::str).collect());
        Json::obj().with("columns", strs(&self.headers)).with(
            "rows",
            Json::Arr(self.rows.iter().map(|r| strs(r)).collect()),
        )
    }
}

/// A JSON value. Objects preserve insertion order so rendered output is
/// deterministic for a deterministic producer.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    pub fn obj() -> Json {
        Json::Obj(Vec::new())
    }

    /// Insert (or replace) a key; builder-style.
    pub fn with(mut self, key: &str, val: Json) -> Json {
        self.set(key, val);
        self
    }

    pub fn set(&mut self, key: &str, val: Json) {
        let Json::Obj(pairs) = self else {
            panic!("Json::set on a non-object");
        };
        match pairs.iter_mut().find(|(k, _)| k == key) {
            Some((_, v)) => *v = val,
            None => pairs.push((key.to_string(), val)),
        }
    }

    /// A number; non-finite values have no JSON spelling and become
    /// `null` here, so a document always equals its own re-parse.
    pub fn num(x: f64) -> Json {
        if x.is_finite() {
            Json::Num(x)
        } else {
            Json::Null
        }
    }

    /// Virtual seconds at nanosecond resolution (the precision the topo
    /// and ablation grids have always been committed at).
    pub fn nanos(secs: f64) -> Json {
        Json::num(format!("{secs:.9}").parse().unwrap_or(f64::NAN))
    }

    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(x) => Some(*x),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// Flatten to `(dotted.path, leaf)` pairs in document order: every
    /// scalar, plus empty containers (so `{}` and "absent" differ). Array
    /// elements use their index as the path component.
    pub fn leaves(&self) -> Vec<(String, &Json)> {
        fn walk<'a>(j: &'a Json, prefix: String, out: &mut Vec<(String, &'a Json)>) {
            let join = |k: &str| match prefix.as_str() {
                "" => k.to_string(),
                p => format!("{p}.{k}"),
            };
            match j {
                Json::Obj(pairs) if !pairs.is_empty() => {
                    for (k, v) in pairs {
                        walk(v, join(k), out);
                    }
                }
                Json::Arr(items) if !items.is_empty() => {
                    for (i, v) in items.iter().enumerate() {
                        walk(v, join(&i.to_string()), out);
                    }
                }
                leaf => out.push((prefix, leaf)),
            }
        }
        let mut out = Vec::new();
        walk(self, String::new(), &mut out);
        out
    }

    /// Render with 2-space indentation and a trailing newline.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write_to(&mut out, 0);
        out.push('\n');
        out
    }

    fn write_to(&self, out: &mut String, depth: usize) {
        let pad = |out: &mut String, d: usize| {
            for _ in 0..d {
                out.push_str("  ");
            }
        };
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(x) => {
                if x.is_finite() {
                    // Shortest-roundtrip formatting: deterministic and
                    // re-parses to the identical f64.
                    out.push_str(&format!("{x}"));
                } else {
                    out.push_str("null");
                }
            }
            Json::Str(s) => {
                out.push('"');
                for c in s.chars() {
                    match c {
                        '"' => out.push_str("\\\""),
                        '\\' => out.push_str("\\\\"),
                        '\n' => out.push_str("\\n"),
                        '\t' => out.push_str("\\t"),
                        '\r' => out.push_str("\\r"),
                        c if (c as u32) < 0x20 => {
                            out.push_str(&format!("\\u{:04x}", c as u32));
                        }
                        c => out.push(c),
                    }
                }
                out.push('"');
            }
            Json::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push_str("[\n");
                for (i, v) in items.iter().enumerate() {
                    pad(out, depth + 1);
                    v.write_to(out, depth + 1);
                    out.push_str(if i + 1 < items.len() { ",\n" } else { "\n" });
                }
                pad(out, depth);
                out.push(']');
            }
            Json::Obj(pairs) => {
                if pairs.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push_str("{\n");
                for (i, (k, v)) in pairs.iter().enumerate() {
                    pad(out, depth + 1);
                    Json::Str(k.clone()).write_to(out, depth + 1);
                    out.push_str(": ");
                    v.write_to(out, depth + 1);
                    out.push_str(if i + 1 < pairs.len() { ",\n" } else { "\n" });
                }
                pad(out, depth);
                out.push('}');
            }
        }
    }

    /// Parse a JSON document. Accepts the full grammar the renderer emits
    /// (plus arbitrary whitespace); returns a description of the first
    /// error otherwise. Total on arbitrary text: nesting is bounded by
    /// [`MAX_DEPTH`], numbers must be finite, and nothing is allocated
    /// ahead of the bytes that justify it.
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut pos = 0usize;
        let v = parse_value(text, &mut pos, 0)?;
        skip_ws(text.as_bytes(), &mut pos);
        if pos != text.len() {
            return Err(format!("trailing garbage at byte {pos}"));
        }
        Ok(v)
    }
}

/// Deepest container nesting [`Json::parse`] accepts (the parser recurses
/// per level; the documents this crate writes nest under ten deep).
pub const MAX_DEPTH: usize = 64;

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(b: &[u8], pos: &mut usize, c: u8) -> Result<(), String> {
    if *pos < b.len() && b[*pos] == c {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected {:?} at byte {}", c as char, *pos))
    }
}

fn parse_value(text: &str, pos: &mut usize, depth: usize) -> Result<Json, String> {
    let b = text.as_bytes();
    skip_ws(b, pos);
    if depth > MAX_DEPTH {
        return Err(format!("nesting deeper than {MAX_DEPTH} at byte {}", *pos));
    }
    match b.get(*pos) {
        None => Err("unexpected end of input".into()),
        Some(b'{') => {
            *pos += 1;
            let mut pairs = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Obj(pairs));
            }
            loop {
                skip_ws(b, pos);
                let key = parse_string(text, pos)?;
                skip_ws(b, pos);
                expect(b, pos, b':')?;
                let val = parse_value(text, pos, depth + 1)?;
                pairs.push((key, val));
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Obj(pairs));
                    }
                    _ => return Err(format!("expected ',' or '}}' at byte {}", *pos)),
                }
            }
        }
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                items.push(parse_value(text, pos, depth + 1)?);
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Json::Arr(items));
                    }
                    _ => return Err(format!("expected ',' or ']' at byte {}", *pos)),
                }
            }
        }
        Some(b'"') => Ok(Json::Str(parse_string(text, pos)?)),
        Some(b't') if b[*pos..].starts_with(b"true") => {
            *pos += 4;
            Ok(Json::Bool(true))
        }
        Some(b'f') if b[*pos..].starts_with(b"false") => {
            *pos += 5;
            Ok(Json::Bool(false))
        }
        Some(b'n') if b[*pos..].starts_with(b"null") => {
            *pos += 4;
            Ok(Json::Null)
        }
        Some(_) => {
            let start = *pos;
            while *pos < b.len()
                && matches!(b[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
            {
                *pos += 1;
            }
            let s = &text[start..*pos];
            match s.parse::<f64>() {
                Ok(x) if x.is_finite() => Ok(Json::Num(x)),
                _ => Err(format!("bad number {s:?} at byte {start}")),
            }
        }
    }
}

fn parse_string(text: &str, pos: &mut usize) -> Result<String, String> {
    let b = text.as_bytes();
    expect(b, pos, b'"')?;
    let mut out = String::new();
    loop {
        match b.get(*pos) {
            None => return Err("unterminated string".into()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match b.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b't') => out.push('\t'),
                    Some(b'r') => out.push('\r'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let hex = b.get(*pos + 1..*pos + 5).ok_or("truncated \\u escape")?;
                        let code = u32::from_str_radix(
                            std::str::from_utf8(hex).map_err(|e| e.to_string())?,
                            16,
                        )
                        .map_err(|e| e.to_string())?;
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        *pos += 4;
                    }
                    _ => return Err(format!("bad escape at byte {}", *pos)),
                }
                *pos += 1;
            }
            Some(_) => {
                // Copy one UTF-8 scalar: `pos` only ever advances by whole
                // scalars, so it sits on a boundary of the `&str`.
                let c = text[*pos..].chars().next().expect("pos < len");
                out.push(c);
                *pos += c.len_utf8();
            }
        }
    }
}

/// The one document writer: creates parent directories, writes the
/// rendered value, and notes the path on stderr.
pub fn write_json_file(path: &Path, value: &Json) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        fs::create_dir_all(dir)?;
    }
    fs::write(path, value.render())?;
    eprintln!("wrote {}", path.display());
    Ok(())
}

/// Render a series as a one-line unicode sparkline (quick shape check in
/// the terminal; the table carries the real numbers).
pub fn sparkline(values: &[f64]) -> String {
    const BARS: [char; 8] = [
        '\u{2581}', '\u{2582}', '\u{2583}', '\u{2584}', '\u{2585}', '\u{2586}', '\u{2587}',
        '\u{2588}',
    ];
    let max = values.iter().cloned().fold(f64::NAN, f64::max);
    let min = values.iter().cloned().fold(f64::NAN, f64::min);
    if values.is_empty() || !max.is_finite() {
        return String::new();
    }
    let range = (max - min).max(f64::MIN_POSITIVE);
    values
        .iter()
        .map(|&v| {
            let t = ((v - min) / range * 7.0).round().clamp(0.0, 7.0) as usize;
            BARS[t]
        })
        .collect()
}

/// Format a throughput cell like the paper's axes (MB/s).
pub fn mbs(x: f64) -> String {
    if x >= 100.0 {
        format!("{x:.0}")
    } else {
        format!("{x:.1}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new(vec!["P", "TCIO", "OCIO"]);
        t.row(vec!["64", "123.4", "200"]);
        t.row(vec!["1024", "999", "1"]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains('P'));
        assert!(lines[2].ends_with("200"));
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn row_width_checked() {
        let mut t = Table::new(vec!["a", "b"]);
        t.row(vec!["1"]);
    }

    #[test]
    fn sparkline_shapes() {
        let s = sparkline(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(s.chars().count(), 4);
        let chars: Vec<char> = s.chars().collect();
        assert!(chars[0] < chars[3], "rising series must rise");
        assert_eq!(sparkline(&[]), "");
        // Flat series doesn't panic or divide by zero.
        let flat = sparkline(&[5.0, 5.0, 5.0]);
        assert_eq!(flat.chars().count(), 3);
    }

    #[test]
    fn mbs_formatting() {
        assert_eq!(mbs(1234.6), "1235");
        assert_eq!(mbs(12.34), "12.3");
    }

    #[test]
    fn json_roundtrips_exactly() {
        let j = Json::obj()
            .with("schema", Json::str("v1"))
            .with("pi", Json::num(std::f64::consts::PI))
            .with("count", Json::num(42.0))
            .with("flag", Json::Bool(true))
            .with("none", Json::Null)
            .with(
                "arr",
                Json::Arr(vec![Json::num(1.0), Json::str("a\"b\\c\nd")]),
            )
            .with("nested", Json::obj().with("x", Json::num(1e-9)));
        let text = j.render();
        let back = Json::parse(&text).expect("parse back");
        assert_eq!(back, j);
        // Rendering is deterministic and key order is preserved.
        assert_eq!(back.render(), text);
        let keys: Vec<&str> = match &back {
            Json::Obj(p) => p.iter().map(|(k, _)| k.as_str()).collect(),
            _ => unreachable!(),
        };
        assert_eq!(keys[0], "schema");
        assert_eq!(keys[6], "nested");
    }

    #[test]
    fn json_parse_rejects_garbage() {
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("{} trailing").is_err());
        assert!(Json::parse("nul").is_err());
        assert!(
            Json::parse("1e999").is_err(),
            "non-finite numbers are refused"
        );
        let deep = "[".repeat(MAX_DEPTH + 2) + &"]".repeat(MAX_DEPTH + 2);
        assert!(Json::parse(&deep).is_err(), "nesting is bounded");
    }

    #[test]
    fn non_finite_numbers_become_null() {
        assert_eq!(Json::num(f64::NAN), Json::Null);
        assert_eq!(Json::nanos(f64::NAN), Json::Null);
        assert_eq!(Json::nanos(0.0207041873), Json::Num(0.020704187));
    }

    #[test]
    fn json_leaves_flatten_with_dotted_paths() {
        let j = Json::obj()
            .with("a", Json::num(1.0))
            .with(
                "b",
                Json::obj()
                    .with("c", Json::num(2.0))
                    .with("skip", Json::str("text")),
            )
            .with("arr", Json::Arr(vec![Json::num(5.0)]));
        let leaves = j.leaves();
        assert_eq!(
            leaves,
            vec![
                ("a".to_string(), &Json::Num(1.0)),
                ("b.c".to_string(), &Json::Num(2.0)),
                ("b.skip".to_string(), &Json::str("text")),
                ("arr.0".to_string(), &Json::Num(5.0)),
            ]
        );
        assert_eq!(Json::obj().leaves(), vec![(String::new(), &Json::obj())]);
    }

    #[test]
    fn json_accepts_external_whitespace_styles() {
        let j = Json::parse("  {\"a\":[1,2.5,-3e2],\"b\":{\"c\":null}}  ").unwrap();
        assert_eq!(
            j.get("a").unwrap().as_arr().unwrap()[2].as_f64(),
            Some(-300.0)
        );
        assert_eq!(j.get("b").unwrap().get("c"), Some(&Json::Null));
    }
}
