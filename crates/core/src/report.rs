//! Plain-text report tables.
//!
//! The experiment harness (`msa-bench`'s `experiments` binary) prints every
//! reproduced figure and table as text; this module provides the small
//! column-aligned table renderer it uses.

// Lint audit: indexes and slice bounds here are established by the
// surrounding length checks / loop invariants before use.
#![allow(clippy::indexing_slicing)]

use std::fmt;

/// A column-aligned text table.
///
/// # Example
///
/// ```
/// use msa_core::report::TextTable;
///
/// let mut table = TextTable::new(vec!["policy", "recovery"]);
/// table.add_row(vec!["none".to_string(), "100%".to_string()]);
/// table.add_row(vec!["zero-on-free".to_string(), "0%".to_string()]);
/// let rendered = table.render();
/// assert!(rendered.contains("zero-on-free"));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TextTable {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// Creates a table with the given column headers.
    pub fn new<S: Into<String>>(headers: Vec<S>) -> Self {
        TextTable {
            headers: headers.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the row's length differs from the header count.
    pub fn add_row(&mut self, row: Vec<String>) {
        assert_eq!(
            row.len(),
            self.headers.len(),
            "row has {} cells but the table has {} columns",
            row.len(),
            self.headers.len()
        );
        self.rows.push(row);
    }

    /// Number of data rows.
    pub fn row_count(&self) -> usize {
        self.rows.len()
    }

    /// Renders the table with aligned columns and a separator under the
    /// header.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let render_row = |cells: &[String]| {
            cells
                .iter()
                .enumerate()
                .map(|(i, cell)| format!("{:<width$}", cell, width = widths[i]))
                .collect::<Vec<_>>()
                .join("  ")
                .trim_end()
                .to_string()
        };
        let mut out = String::new();
        out.push_str(&render_row(&self.headers));
        out.push('\n');
        out.push_str(
            &widths
                .iter()
                .map(|w| "-".repeat(*w))
                .collect::<Vec<_>>()
                .join("  "),
        );
        out.push('\n');
        for row in &self.rows {
            out.push_str(&render_row(row));
            out.push('\n');
        }
        out
    }
}

impl fmt::Display for TextTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render())
    }
}

/// A minimal hand-rolled JSON object builder: every machine-readable output
/// of the workspace — NDJSON progress lines, `BENCH_campaign.json`, the
/// analyzer report — is written through this.
///
/// Keys are emitted in insertion order; floats use Rust's shortest-roundtrip
/// `{}` formatting, so equal values always serialize to equal bytes (the
/// property the campaign determinism suite compares on).
///
/// # Example
///
/// ```
/// use msa_core::report::JsonObject;
///
/// let line = JsonObject::new()
///     .str("event", "group")
///     .u64("cells", 16)
///     .f64("rate", 0.5)
///     .finish();
/// assert_eq!(line, r#"{"event":"group","cells":16,"rate":0.5}"#);
/// ```
#[derive(Debug, Clone, Default)]
pub struct JsonObject {
    buf: String,
}

impl JsonObject {
    /// Starts an empty object.
    pub fn new() -> Self {
        JsonObject::default()
    }

    fn key(mut self, key: &str) -> Self {
        self.buf.push(if self.buf.is_empty() { '{' } else { ',' });
        push_json_string(&mut self.buf, key);
        self.buf.push(':');
        self
    }

    /// Appends a string field (escaped).
    pub fn str(self, key: &str, value: &str) -> Self {
        let mut obj = self.key(key);
        push_json_string(&mut obj.buf, value);
        obj
    }

    /// Appends an unsigned integer field.
    pub fn u64(self, key: &str, value: u64) -> Self {
        let mut obj = self.key(key);
        obj.buf.push_str(&value.to_string());
        obj
    }

    /// Appends a float field with shortest-roundtrip formatting; non-finite
    /// values (which JSON cannot represent) become `null`.
    pub fn f64(self, key: &str, value: f64) -> Self {
        let mut obj = self.key(key);
        if value.is_finite() {
            obj.buf.push_str(&value.to_string());
        } else {
            obj.buf.push_str("null");
        }
        obj
    }

    /// Appends a boolean field.
    pub fn bool(self, key: &str, value: bool) -> Self {
        let mut obj = self.key(key);
        obj.buf.push_str(if value { "true" } else { "false" });
        obj
    }

    /// Appends a field whose value is already-serialized JSON (a nested
    /// object or array).
    pub fn raw(self, key: &str, json: &str) -> Self {
        let mut obj = self.key(key);
        obj.buf.push_str(json);
        obj
    }

    /// Closes the object and returns the JSON text.
    pub fn finish(mut self) -> String {
        if self.buf.is_empty() {
            return "{}".to_string();
        }
        self.buf.push('}');
        self.buf
    }
}

fn push_json_string(buf: &mut String, value: &str) {
    buf.push('"');
    for ch in value.chars() {
        match ch {
            '"' => buf.push_str("\\\""),
            '\\' => buf.push_str("\\\\"),
            '\n' => buf.push_str("\\n"),
            '\r' => buf.push_str("\\r"),
            '\t' => buf.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                buf.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => buf.push(c),
        }
    }
    buf.push('"');
}

/// Serializes a list of already-serialized JSON values as an array.
pub fn json_array<I>(items: I) -> String
where
    I: IntoIterator,
    I::Item: AsRef<str>,
{
    let mut buf = String::from("[");
    for (i, item) in items.into_iter().enumerate() {
        if i > 0 {
            buf.push(',');
        }
        buf.push_str(item.as_ref());
    }
    buf.push(']');
    buf
}

/// Formats a fraction as a percentage with one decimal (e.g. `99.6%`).
pub fn percent(fraction: f64) -> String {
    format!("{:.1}%", fraction * 100.0)
}

/// Formats a byte count with a binary-unit suffix.
pub fn bytes(count: u64) -> String {
    const KIB: u64 = 1024;
    const MIB: u64 = 1024 * KIB;
    if count >= MIB {
        format!("{:.1} MiB", count as f64 / MIB as f64)
    } else if count >= KIB {
        format!("{:.1} KiB", count as f64 / KIB as f64)
    } else {
        format!("{count} B")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned_columns() {
        let mut table = TextTable::new(vec!["policy", "recovery", "cost"]);
        table.add_row(vec!["none".into(), "100.0%".into(), "0".into()]);
        table.add_row(vec![
            "selective-scrub".into(),
            "0.0%".into(),
            "123456".into(),
        ]);
        assert_eq!(table.row_count(), 2);
        let rendered = table.render();
        let lines: Vec<&str> = rendered.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("policy"));
        assert!(lines[1].starts_with("---"));
        // Columns align: "recovery" starts at the same column in all rows.
        let col = lines[0].find("recovery").unwrap();
        assert_eq!(&lines[2][col..col + 6], "100.0%");
        assert_eq!(table.to_string(), rendered);
    }

    #[test]
    #[should_panic(expected = "columns")]
    fn mismatched_row_length_panics() {
        let mut table = TextTable::new(vec!["a", "b"]);
        table.add_row(vec!["only-one".into()]);
    }

    #[test]
    fn json_object_builds_escaped_ordered_output() {
        let json = JsonObject::new()
            .str("name", "tiny \"sweep\"\n")
            .u64("cells", 192)
            .f64("rate", 0.25)
            .f64("bad", f64::NAN)
            .bool("stream", true)
            .raw("groups", &json_array(["{\"block\":0}".to_string()]))
            .finish();
        assert_eq!(
            json,
            "{\"name\":\"tiny \\\"sweep\\\"\\n\",\"cells\":192,\"rate\":0.25,\
             \"bad\":null,\"stream\":true,\"groups\":[{\"block\":0}]}"
        );
        assert_eq!(JsonObject::new().finish(), "{}");
        assert_eq!(json_array(Vec::<String>::new()), "[]");
    }

    #[test]
    fn json_floats_roundtrip_shortest_form() {
        // The determinism suite compares summaries as JSON strings, so the
        // formatting must be a function of the value alone.
        let one = JsonObject::new().f64("v", 1.0).finish();
        assert_eq!(one, "{\"v\":1}");
        let third = JsonObject::new().f64("v", 1.0 / 3.0).finish();
        let reparsed: f64 = third
            .trim_start_matches("{\"v\":")
            .trim_end_matches('}')
            .parse()
            .unwrap();
        assert_eq!(reparsed, 1.0 / 3.0);
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(percent(0.996), "99.6%");
        assert_eq!(percent(0.0), "0.0%");
        assert_eq!(bytes(100), "100 B");
        assert_eq!(bytes(2048), "2.0 KiB");
        assert_eq!(bytes(3 * 1024 * 1024), "3.0 MiB");
    }
}
