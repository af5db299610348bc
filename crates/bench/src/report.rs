//! Table printing and CSV/JSON output for the experiment binaries.

use std::fs;
use std::io::Write;
use std::path::Path;

/// A simple experiment-result table: a title, column headers and string
/// rows. Printed to stdout in aligned columns and written to
/// `results/<name>.csv`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Table {
    /// Human-readable table title (printed above the rows).
    pub title: String,
    /// Column headers.
    pub headers: Vec<String>,
    /// Data rows (each the same length as `headers`).
    pub rows: Vec<Vec<String>>,
}

impl Table {
    /// Create an empty table.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        Table {
            title: title.into(),
            headers: headers.iter().map(|h| h.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row (must match the header count).
    pub fn push_row(&mut self, row: Vec<String>) {
        assert_eq!(
            row.len(),
            self.headers.len(),
            "row has {} cells for {} headers",
            row.len(),
            self.headers.len()
        );
        self.rows.push(row);
    }

    /// Render the table as aligned text.
    pub fn to_text(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        out.push_str(&format!("== {} ==\n", self.title));
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            cells
                .iter()
                .zip(widths)
                .map(|(c, w)| format!("{c:>w$}", w = w))
                .collect::<Vec<_>>()
                .join("  ")
        };
        out.push_str(&fmt_row(&self.headers, &widths));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }

    /// Print the table to stdout.
    pub fn print(&self) {
        println!("{}", self.to_text());
    }

    /// Write the table as CSV to `dir/<name>.csv`, creating the directory
    /// if needed. Returns the path written.
    pub fn write_csv(
        &self,
        dir: impl AsRef<Path>,
        name: &str,
    ) -> std::io::Result<std::path::PathBuf> {
        let dir = dir.as_ref();
        fs::create_dir_all(dir)?;
        let path = dir.join(format!("{name}.csv"));
        let mut f = fs::File::create(&path)?;
        writeln!(f, "{}", self.headers.join(","))?;
        for row in &self.rows {
            writeln!(f, "{}", row.join(","))?;
        }
        Ok(path)
    }

    /// Write the table as JSON to `dir/<name>.json`, creating the
    /// directory if needed: `{"title": ..., "rows": [{header: cell, ...}]}`.
    /// Cells that parse as numbers are emitted as JSON numbers so the
    /// report is machine-consumable (CI uploads these as artifacts for the
    /// perf trajectory). Returns the path written.
    pub fn write_json(
        &self,
        dir: impl AsRef<Path>,
        name: &str,
    ) -> std::io::Result<std::path::PathBuf> {
        let dir = dir.as_ref();
        fs::create_dir_all(dir)?;
        let path = dir.join(format!("{name}.json"));
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str(&format!("  \"title\": {},\n", json_string(&self.title)));
        out.push_str("  \"rows\": [\n");
        for (ri, row) in self.rows.iter().enumerate() {
            let fields: Vec<String> = self
                .headers
                .iter()
                .zip(row)
                .map(|(h, c)| format!("{}: {}", json_string(h), json_cell(c)))
                .collect();
            let sep = if ri + 1 < self.rows.len() { "," } else { "" };
            out.push_str(&format!("    {{{}}}{sep}\n", fields.join(", ")));
        }
        out.push_str("  ]\n}\n");
        fs::write(&path, out)?;
        Ok(path)
    }
}

/// Read the rows of a JSON report written by [`Table::write_json`] (or by
/// `gas_obs`'s `trace_to_json` / `metrics_to_json`, which emit the same
/// shape) as `(header, raw value)` maps, one per row.
///
/// This is deliberately *not* a general JSON parser: it accepts exactly
/// the shape `write_json` emits (a top-level object with a string
/// `"title"` and a `"rows"` array of flat objects whose values are
/// strings or bare scalars) and returns a typed error on anything else,
/// so a malformed report fails loudly instead of reading as empty.
/// Scalar values come back as their raw JSON text (`"3.5"`, `"6"`);
/// string values are unescaped.
pub fn read_json_rows(path: impl AsRef<Path>) -> std::io::Result<Vec<Vec<(String, String)>>> {
    let text = fs::read_to_string(path.as_ref())?;
    parse_report(&text).map_err(|msg| {
        std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("{}: {msg}", path.as_ref().display()),
        )
    })
}

fn parse_report(text: &str) -> Result<Vec<Vec<(String, String)>>, String> {
    let mut p = JsonCursor { bytes: text.as_bytes(), pos: 0 };
    p.expect(b'{')?;
    let title_key = p.string()?;
    if title_key != "title" {
        return Err(format!("expected \"title\" first, found \"{title_key}\""));
    }
    p.expect(b':')?;
    p.string()?; // title value, unused
    p.expect(b',')?;
    let rows_key = p.string()?;
    if rows_key != "rows" {
        return Err(format!("expected \"rows\", found \"{rows_key}\""));
    }
    p.expect(b':')?;
    p.expect(b'[')?;
    let mut rows = Vec::new();
    if !p.eat(b']') {
        loop {
            rows.push(p.flat_object()?);
            if !p.eat(b',') {
                p.expect(b']')?;
                break;
            }
        }
    }
    p.expect(b'}')?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err("trailing content after the report object".into());
    }
    Ok(rows)
}

/// Byte cursor over [`Table::write_json`]'s output shape.
struct JsonCursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl JsonCursor<'_> {
    fn skip_ws(&mut self) {
        while self.bytes.get(self.pos).is_some_and(|b| b.is_ascii_whitespace()) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, want: u8) -> bool {
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&want) {
            self.pos += 1;
            return true;
        }
        false
    }

    fn expect(&mut self, want: u8) -> Result<(), String> {
        if self.eat(want) {
            return Ok(());
        }
        Err(format!(
            "expected '{}' at byte {}, found {:?}",
            want as char,
            self.pos,
            self.bytes.get(self.pos).map(|&b| b as char)
        ))
    }

    /// A JSON string literal, unescaped.
    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.bytes.get(self.pos) {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.bytes.get(self.pos) {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'n') => out.push('\n'),
                        Some(b't') => out.push('\t'),
                        Some(b'r') => out.push('\r'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or("truncated \\u escape")?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex).map_err(|_| "bad \\u escape")?,
                                16,
                            )
                            .map_err(|_| "bad \\u escape")?;
                            out.push(char::from_u32(code).ok_or("bad \\u code point")?);
                            self.pos += 4;
                        }
                        other => return Err(format!("unsupported escape {other:?}")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Strings are UTF-8 and write_json never splits a
                    // multi-byte character, so copy whole characters.
                    let rest = std::str::from_utf8(&self.bytes[self.pos..])
                        .map_err(|_| "invalid UTF-8 in string")?;
                    let ch = rest.chars().next().expect("non-empty checked above");
                    out.push(ch);
                    self.pos += ch.len_utf8();
                }
            }
        }
    }

    /// A flat `{header: value, ...}` row object: values are strings or
    /// bare scalars (returned as raw text).
    fn flat_object(&mut self) -> Result<Vec<(String, String)>, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        if self.eat(b'}') {
            return Ok(fields);
        }
        loop {
            let key = self.string()?;
            self.expect(b':')?;
            self.skip_ws();
            let value = if self.bytes.get(self.pos) == Some(&b'"') {
                self.string()?
            } else {
                let start = self.pos;
                while self
                    .bytes
                    .get(self.pos)
                    .is_some_and(|&b| !matches!(b, b',' | b'}') && !b.is_ascii_whitespace())
                {
                    self.pos += 1;
                }
                if self.pos == start {
                    return Err(format!("empty scalar for key \"{key}\""));
                }
                String::from_utf8_lossy(&self.bytes[start..self.pos]).into_owned()
            };
            fields.push((key, value));
            if !self.eat(b',') {
                self.expect(b'}')?;
                return Ok(fields);
            }
        }
    }
}

/// Escape a string as a JSON string literal.
fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for ch in s.chars() {
        match ch {
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
    out
}

/// Emit a table cell as a JSON number when it parses as one (and
/// round-trips losslessly), otherwise as a string.
fn json_cell(cell: &str) -> String {
    if let Ok(v) = cell.parse::<i64>() {
        return v.to_string();
    }
    if let Ok(v) = cell.parse::<u64>() {
        return v.to_string();
    }
    if let Ok(v) = cell.parse::<f64>() {
        // Only emit as a number when no precision is lost (large counters
        // beyond 2^53 must stay exact, so fall through to a string).
        if v.is_finite() && format!("{v}") == cell {
            return cell.to_string();
        }
    }
    json_string(cell)
}

/// Default results directory (relative to the workspace root when run via
/// `cargo run`).
pub fn results_dir() -> std::path::PathBuf {
    std::path::PathBuf::from("results")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_and_writes_csv() {
        let mut t = Table::new("demo", &["nodes", "time"]);
        t.push_row(vec!["1".into(), "10.0".into()]);
        t.push_row(vec!["2".into(), "5.5".into()]);
        let text = t.to_text();
        assert!(text.contains("demo"));
        assert!(text.contains("nodes"));
        assert!(text.contains("5.5"));
        let dir = std::env::temp_dir().join("gas_bench_report_test");
        let path = t.write_csv(&dir, "demo").unwrap();
        let contents = std::fs::read_to_string(path).unwrap();
        assert!(contents.starts_with("nodes,time\n"));
        assert!(contents.contains("2,5.5"));
    }

    #[test]
    fn table_writes_typed_json() {
        let mut t = Table::new("demo \"quoted\"", &["ranks", "ratio", "note"]);
        t.push_row(vec!["4".into(), "2.50x".into(), "ok".into()]);
        t.push_row(vec!["8".into(), "3.5".into(), "line\nbreak".into()]);
        let dir = std::env::temp_dir().join("gas_bench_report_json_test");
        let path = t.write_json(&dir, "demo").unwrap();
        let contents = std::fs::read_to_string(path).unwrap();
        assert!(contents.contains("\"title\": \"demo \\\"quoted\\\"\""));
        assert!(contents.contains("\"ranks\": 4"), "integers stay numeric: {contents}");
        assert!(contents.contains("\"ratio\": \"2.50x\""), "suffixed cells stay strings");
        assert!(contents.contains("\"ratio\": 3.5"), "floats stay numeric");
        assert!(contents.contains("line\\nbreak"));
    }

    #[test]
    fn json_reports_round_trip_through_read_json_rows() {
        let mut t = Table::new("trip \"quoted\"", &["workload", "qps", "ratio", "note"]);
        t.push_row(vec!["tiny".into(), "6531.3".into(), "2.50x".into(), "line\nbreak".into()]);
        t.push_row(vec!["default".into(), "42".into(), "3.5".into(), "ok".into()]);
        let dir = std::env::temp_dir().join("gas_bench_report_roundtrip_test");
        let path = t.write_json(&dir, "trip").unwrap();
        let rows = read_json_rows(&path).unwrap();
        assert_eq!(rows.len(), 2);
        // Headers and raw values survive, whether emitted as JSON numbers
        // (qps, bare scalar) or strings (suffixed ratio, escaped note).
        assert_eq!(rows[0][0], ("workload".into(), "tiny".into()));
        assert_eq!(rows[0][1], ("qps".into(), "6531.3".into()));
        assert_eq!(rows[0][2], ("ratio".into(), "2.50x".into()));
        assert_eq!(rows[0][3], ("note".into(), "line\nbreak".into()));
        assert_eq!(rows[1][1], ("qps".into(), "42".into()));
    }

    #[test]
    fn read_json_rows_rejects_malformed_baselines() {
        let dir = std::env::temp_dir().join("gas_bench_report_malformed_test");
        std::fs::create_dir_all(&dir).unwrap();
        for (name, text) in [
            ("empty", ""),
            ("not_report", "{\"rows\": []}"),
            ("truncated", "{\n  \"title\": \"t\",\n  \"rows\": [\n    {\"a\": 1}"),
            ("trailing", "{\n  \"title\": \"t\",\n  \"rows\": []\n}\nextra"),
        ] {
            let path = dir.join(format!("{name}.json"));
            std::fs::write(&path, text).unwrap();
            assert!(read_json_rows(&path).is_err(), "{name} must be rejected");
        }
        let ok = dir.join("ok.json");
        std::fs::write(&ok, "{\n  \"title\": \"t\",\n  \"rows\": []\n}\n").unwrap();
        assert_eq!(read_json_rows(&ok).unwrap().len(), 0);
    }

    #[test]
    #[should_panic]
    fn mismatched_row_panics() {
        let mut t = Table::new("demo", &["a", "b"]);
        t.push_row(vec!["1".into()]);
    }
}
