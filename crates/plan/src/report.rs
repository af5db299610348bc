//! Minimal reader for the JSON reports the bench binaries emit.
//!
//! [`MachineParams::from_report`](crate::MachineParams::from_report)
//! consumes the report gas-bench's `Table::write_json` writes
//! (`{"title": ..., "rows": [{header: value, ...}]}`), but gas-bench
//! depends on gas-plan (the `placement_sweep` binary), so this crate
//! carries its own reader for exactly that shape instead of importing
//! the bench crate. Like the bench-side reader it is
//! deliberately *not* a general JSON parser: anything that is not a
//! report written by `write_json` is a typed [`PlanError::Parse`], so a
//! stale or hand-edited report fails loudly instead of reading as empty.

use std::collections::BTreeMap;
use std::path::Path;

use crate::error::{PlanError, PlanResult};

/// One report row as a header → raw-value map. Scalar values keep their
/// raw JSON text (`"3.5"`, `"6"`); string values are unescaped.
pub(crate) type ReportRow = BTreeMap<String, String>;

/// Read the rows of a `Table::write_json` report.
pub(crate) fn read_report_rows(path: impl AsRef<Path>) -> PlanResult<Vec<ReportRow>> {
    let path = path.as_ref();
    let text = std::fs::read_to_string(path)
        .map_err(|e| PlanError::Io(format!("{}: {e}", path.display())))?;
    parse_report(&text).map_err(|msg| PlanError::Parse(format!("{}: {msg}", path.display())))
}

/// Fetch a named field from a row, as raw text.
pub(crate) fn field<'a>(row: &'a ReportRow, name: &str) -> PlanResult<&'a str> {
    row.get(name)
        .map(String::as_str)
        .ok_or_else(|| PlanError::Parse(format!("report row is missing field \"{name}\"")))
}

/// Fetch a named field from a row, parsed as `f64`.
pub(crate) fn number(row: &ReportRow, name: &str) -> PlanResult<f64> {
    let raw = field(row, name)?;
    raw.parse::<f64>()
        .map_err(|_| PlanError::Parse(format!("field \"{name}\" is not numeric: {raw:?}")))
}

fn parse_report(text: &str) -> Result<Vec<ReportRow>, String> {
    let mut p = Cursor { bytes: text.as_bytes(), pos: 0 };
    p.expect(b'{')?;
    if p.string()? != "title" {
        return Err("expected \"title\" first".into());
    }
    p.expect(b':')?;
    p.string()?;
    p.expect(b',')?;
    if p.string()? != "rows" {
        return Err("expected \"rows\" after the title".into());
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

/// Byte cursor over the report shape.
struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Cursor<'_> {
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
                    let rest = std::str::from_utf8(&self.bytes[self.pos..])
                        .map_err(|_| "invalid UTF-8 in string")?;
                    let ch = rest.chars().next().expect("non-empty checked above");
                    out.push(ch);
                    self.pos += ch.len_utf8();
                }
            }
        }
    }

    fn flat_object(&mut self) -> Result<ReportRow, String> {
        self.expect(b'{')?;
        let mut fields = ReportRow::new();
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
            fields.insert(key, value);
            if !self.eat(b',') {
                self.expect(b'}')?;
                return Ok(fields);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn write(name: &str, text: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("gas_plan_report_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(name);
        std::fs::write(&path, text).unwrap();
        path
    }

    #[test]
    fn reads_the_bench_report_shape() {
        let path = write(
            "ok.json",
            "{\n  \"title\": \"demo\",\n  \"rows\": [\n    {\"kind\": \"a\", \"value\": 3.5},\n    {\"kind\": \"b \\\"q\\\"\", \"value\": 7}\n  ]\n}\n",
        );
        let rows = read_report_rows(&path).unwrap();
        assert_eq!(rows.len(), 2);
        assert_eq!(field(&rows[0], "kind").unwrap(), "a");
        assert_eq!(number(&rows[0], "value").unwrap(), 3.5);
        assert_eq!(field(&rows[1], "kind").unwrap(), "b \"q\"");
        assert_eq!(number(&rows[1], "value").unwrap(), 7.0);
    }

    #[test]
    fn missing_and_non_numeric_fields_are_typed_errors() {
        let path = write(
            "fields.json",
            "{\n  \"title\": \"t\",\n  \"rows\": [\n    {\"a\": \"x\"}\n  ]\n}\n",
        );
        let rows = read_report_rows(&path).unwrap();
        assert!(matches!(field(&rows[0], "b"), Err(PlanError::Parse(_))));
        assert!(matches!(number(&rows[0], "a"), Err(PlanError::Parse(_))));
    }

    #[test]
    fn rejects_anything_that_is_not_a_report() {
        for (name, text) in [
            ("empty.json", ""),
            ("no_title.json", "{\"rows\": []}"),
            ("truncated.json", "{\n  \"title\": \"t\",\n  \"rows\": [\n    {\"a\": 1}"),
            ("trailing.json", "{\n  \"title\": \"t\",\n  \"rows\": []\n}\nextra"),
            ("nested.json", "{\n  \"title\": \"t\",\n  \"rows\": [{\"a\": {\"b\": 1}}]\n}"),
        ] {
            let path = write(name, text);
            assert!(
                matches!(read_report_rows(&path), Err(PlanError::Parse(_))),
                "{name} must be rejected"
            );
        }
        assert!(matches!(
            read_report_rows(std::env::temp_dir().join("gas_plan_definitely_missing.json")),
            Err(PlanError::Io(_))
        ));
    }
}
