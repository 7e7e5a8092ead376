//! Helpers shared by the paper-artifact regenerators: fixed-width text
//! tables resembling the paper's layout, and a dependency-free JSON
//! emitter for the one committed artifact, `BENCH_table2.json` (CI
//! regenerates it and diffs). Its top-level object has `"bench"`,
//! `"schema_version"` and `"rows"`, an array of per-measurement objects.

/// A simple left-aligned text table.
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Start a table with the given column headers.
    pub fn new(headers: &[&str]) -> Self {
        Table {
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row (must have as many cells as there are headers).
    pub fn row(&mut self, cells: &[String]) -> &mut Self {
        assert_eq!(cells.len(), self.headers.len(), "row arity mismatch");
        self.rows.push(cells.to_vec());
        self
    }

    /// Render to a string.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            let mut line = String::from("|");
            for (c, w) in cells.iter().zip(widths) {
                line.push_str(&format!(" {c:<w$} |"));
            }
            line.push('\n');
            line
        };
        out.push_str(&fmt_row(&self.headers, &widths));
        out.push('|');
        for w in &widths {
            out.push_str(&format!("{:-<1$}|", "", w + 2));
        }
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
        }
        out
    }

    /// Print to stdout.
    pub fn print(&self) {
        print!("{}", self.render());
    }
}

/// How far (percentage points of the link) a delivered byte share may sit
/// from its configured value: one scheduler quantum over a 2–3 s simulated
/// run is below 0.2 points, so 0.5 fails on a real mis-share only.
pub const SHARE_TOLERANCE_PP: f64 = 0.5;

/// Gate a delivered share against the configured one; both in percent.
/// Panics (non-zero exit) beyond [`SHARE_TOLERANCE_PP`].
pub fn assert_share(what: &str, got_pct: f64, want_pct: f64) {
    assert!(
        (got_pct - want_pct).abs() <= SHARE_TOLERANCE_PP,
        "{what}: delivered {got_pct:.2} % of the link, configured {want_pct:.2} %"
    );
}

/// A JSON value (no external dependencies; just enough for bench output).
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// Any number (serialized via `{:?}` on f64; integers stay integral).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object with insertion-ordered keys.
    Obj(Vec<(String, Json)>),
}

impl From<f64> for Json {
    fn from(v: f64) -> Self {
        Json::Num(v)
    }
}
impl From<u64> for Json {
    fn from(v: u64) -> Self {
        Json::Num(v as f64)
    }
}
impl From<usize> for Json {
    fn from(v: usize) -> Self {
        Json::Num(v as f64)
    }
}
impl From<&str> for Json {
    fn from(v: &str) -> Self {
        Json::Str(v.to_string())
    }
}
impl<T: Into<Json>> From<Vec<T>> for Json {
    fn from(v: Vec<T>) -> Self {
        Json::Arr(v.into_iter().map(Into::into).collect())
    }
}

impl Json {
    /// Build an object from `(key, value)` pairs, preserving order.
    pub fn obj(pairs: Vec<(&str, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Serialize with 2-space indentation.
    pub fn render(&self) -> String {
        let mut s = String::new();
        self.write(&mut s, 0);
        s.push('\n');
        s
    }

    fn write(&self, out: &mut String, indent: usize) {
        let pad = "  ".repeat(indent);
        match self {
            Json::Num(n) => {
                if n.fract() == 0.0 && n.abs() < 9e15 {
                    out.push_str(&format!("{}", *n as i64));
                } else {
                    out.push_str(&format!("{n:?}"));
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
                        c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
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
                for (i, item) in items.iter().enumerate() {
                    out.push_str(&pad);
                    out.push_str("  ");
                    item.write(out, indent + 1);
                    if i + 1 < items.len() {
                        out.push(',');
                    }
                    out.push('\n');
                }
                out.push_str(&pad);
                out.push(']');
            }
            Json::Obj(pairs) => {
                if pairs.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push_str("{\n");
                for (i, (k, v)) in pairs.iter().enumerate() {
                    out.push_str(&pad);
                    out.push_str("  ");
                    Json::Str(k.clone()).write(out, indent + 1);
                    out.push_str(": ");
                    v.write(out, indent + 1);
                    if i + 1 < pairs.len() {
                        out.push(',');
                    }
                    out.push('\n');
                }
                out.push_str(&pad);
                out.push('}');
            }
        }
    }
}

/// A log-2 histogram as a JSON object (`count`, `sum`, `mean`, and the
/// bucket array trimmed of trailing zeros; bucket `b` counts values in
/// `[2^(b-1), 2^b)`, bucket 0 counts zeros).
pub fn hist_json(h: &router_core::obs::Histogram) -> Json {
    Json::obj(vec![
        ("count", Json::from(h.count)),
        ("sum", Json::from(h.sum)),
        ("mean", Json::from(h.mean())),
        ("buckets", Json::from(h.trimmed_buckets().to_vec())),
    ])
}

/// Write a bench result as `BENCH_<name>.json` in the current directory
/// (the repo root under `cargo run`). `rows` become the standard
/// `"rows"` array; `extra` pairs are appended at the top level. Returns
/// the path written.
pub fn write_bench_json(
    name: &str,
    rows: Vec<Json>,
    extra: Vec<(&str, Json)>,
) -> std::io::Result<std::path::PathBuf> {
    let mut pairs = vec![
        ("bench", Json::from(name)),
        ("schema_version", Json::from(1u64)),
    ];
    pairs.extend(extra);
    pairs.push(("rows", Json::Arr(rows)));
    let doc = Json::obj(pairs);
    let path = std::path::PathBuf::from(format!("BENCH_{name}.json"));
    std::fs::write(&path, doc.render())?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned() {
        let mut t = Table::new(&["Kernel", "Cycles"]);
        t.row(&["plain".into(), "6460".into()]);
        t.row(&["plugins".into(), "6970".into()]);
        let r = t.render();
        assert!(r.contains("| Kernel  | Cycles |"));
        assert!(r.lines().count() == 4);
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn arity_checked() {
        Table::new(&["a", "b"]).row(&["x".into()]);
    }

    #[test]
    fn json_renders_types_and_escapes() {
        let j = Json::obj(vec![
            ("name", Json::from("say \"hi\"\n")),
            ("n", Json::from(42u64)),
            ("pi", Json::from(3.5)),
            ("xs", Json::from(vec![1u64, 2, 3])),
        ]);
        let s = j.render();
        assert!(s.contains("\"say \\\"hi\\\"\\n\""), "{s}");
        assert!(s.contains("\"n\": 42"), "{s}");
        assert!(s.contains("\"pi\": 3.5"), "{s}");
        assert!(s.contains('['), "{s}");
    }

    #[test]
    fn json_integers_stay_integral() {
        assert_eq!(Json::from(1_000_000u64).render().trim(), "1000000");
    }

    #[test]
    fn hist_json_shape() {
        let mut h = router_core::obs::Histogram::default();
        h.observe(0);
        h.observe(3);
        let s = hist_json(&h).render();
        assert!(s.contains("\"count\": 2"), "{s}");
        assert!(s.contains("\"sum\": 3"), "{s}");
        assert!(s.contains("\"buckets\""), "{s}");
    }

    #[test]
    fn empty_containers() {
        assert_eq!(Json::Arr(vec![]).render().trim(), "[]");
        assert_eq!(Json::Obj(vec![]).render().trim(), "{}");
    }
}
