//! The JSON the benchmark writes: `BENCHMARK.json` and the results file.
//! Write-only; strings are the benchmark's own names, units and one-line
//! reasons.

pub enum Json {
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

    /// Append a key; builder-style.
    pub fn with(mut self, key: &str, val: Json) -> Json {
        match &mut self {
            Json::Obj(pairs) => pairs.push((key.to_string(), val)),
            _ => panic!("Json::with on a non-object"),
        }
        self
    }

    pub fn str(s: &str) -> Json {
        Json::Str(s.to_string())
    }

    /// Two-space indentation and a trailing newline.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write_to(&mut out, 0);
        out.push('\n');
        out
    }

    fn write_to(&self, out: &mut String, depth: usize) {
        // One item per line inside `open`..`close`, or `open close` when
        // there are none.
        fn block<T>(
            out: &mut String,
            depth: usize,
            (open, close): (char, char),
            items: &[T],
            mut item: impl FnMut(&mut String, &T),
        ) {
            out.push(open);
            for (i, v) in items.iter().enumerate() {
                out.push_str(if i == 0 { "\n" } else { ",\n" });
                out.push_str(&"  ".repeat(depth + 1));
                item(out, v);
            }
            if !items.is_empty() {
                out.push('\n');
                out.push_str(&"  ".repeat(depth));
            }
            out.push(close);
        }
        match self {
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            // Shortest round-trip decimal: re-parses to the same bits.
            Json::Num(x) => {
                assert!(x.is_finite(), "JSON has no {x}");
                out.push_str(&format!("{x}"));
            }
            Json::Str(s) => {
                out.push('"');
                for c in s.chars() {
                    match c {
                        '"' => out.push_str("\\\""),
                        '\\' => out.push_str("\\\\"),
                        c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                        c => out.push(c),
                    }
                }
                out.push('"');
            }
            Json::Arr(items) => block(out, depth, ('[', ']'), items, |out, v| {
                v.write_to(out, depth + 1)
            }),
            Json::Obj(pairs) => block(out, depth, ('{', '}'), pairs, |out, (k, v)| {
                Json::str(k).write_to(out, depth + 1);
                out.push_str(": ");
                v.write_to(out, depth + 1);
            }),
        }
    }
}
