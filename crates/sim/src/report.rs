//! Plain-text table rendering for experiment results.
//!
//! Every experiment driver returns structured rows; this module prints
//! them in the aligned form recorded in EXPERIMENTS.md, so `cargo run
//! --bin legion-exp` output can be pasted verbatim.

use serde::Value;
use std::fmt::Write as _;

/// A simple aligned table.
#[derive(Debug, Clone, Default)]
pub struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// A table with a title and column headers.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        Table {
            title: title.into(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row (must match header arity).
    pub fn row(&mut self, cells: Vec<String>) -> &mut Self {
        assert_eq!(cells.len(), self.headers.len(), "row arity mismatch");
        self.rows.push(cells);
        self
    }

    /// Number of data rows.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.rows.len()
    }

    /// Is the table empty?
    #[cfg(test)]
    pub(crate) fn is_empty(&self) -> bool {
        self.rows.is_empty()
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
        let _ = writeln!(out, "== {} ==", self.title);
        let mut line = String::new();
        for (i, h) in self.headers.iter().enumerate() {
            let _ = write!(line, "{:>width$}  ", h, width = widths[i]);
        }
        let _ = writeln!(out, "{}", line.trim_end());
        let total: usize = widths.iter().sum::<usize>() + widths.len() * 2;
        let _ = writeln!(out, "{}", "-".repeat(total.saturating_sub(2)));
        for row in &self.rows {
            let mut line = String::new();
            for (i, c) in row.iter().enumerate() {
                let _ = write!(line, "{:>width$}  ", c, width = widths[i]);
            }
            let _ = writeln!(out, "{}", line.trim_end());
        }
        out
    }

    /// Print to stdout.
    pub fn print(&self) {
        print!("{}", self.render());
    }

    /// The table as a JSON value — `{title, headers, rows}` — so
    /// `--metrics-out` exports carry the same data machine-readably.
    pub fn to_json(&self) -> Value {
        let strs = |v: &[String]| Value::Array(v.iter().map(|s| Value::Str(s.clone())).collect());
        Value::Object(vec![
            ("title".to_string(), Value::Str(self.title.clone())),
            ("headers".to_string(), strs(&self.headers)),
            (
                "rows".to_string(),
                Value::Array(self.rows.iter().map(|r| strs(r)).collect()),
            ),
        ])
    }
}

/// Format a float with fixed decimals.
pub fn f(v: f64, decimals: usize) -> String {
    format!("{v:.decimals$}")
}

/// Format a fraction as a percentage.
pub fn pct(num: u64, den: u64) -> String {
    if den == 0 {
        "-".to_string()
    } else {
        format!("{:.1}%", 100.0 * num as f64 / den as f64)
    }
}

/// Format virtual nanoseconds human-readably.
pub fn ns(v: u64) -> String {
    if v >= 1_000_000_000 {
        format!("{:.2}s", v as f64 / 1e9)
    } else if v >= 1_000_000 {
        format!("{:.2}ms", v as f64 / 1e6)
    } else if v >= 1_000 {
        format!("{:.1}us", v as f64 / 1e3)
    } else {
        format!("{v}ns")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned() {
        let mut t = Table::new("demo", &["name", "value"]);
        t.row(vec!["a".into(), "1".into()]);
        t.row(vec!["long-name".into(), "12345".into()]);
        let s = t.render();
        assert!(s.contains("== demo =="));
        assert!(s.contains("long-name"));
        assert_eq!(t.len(), 2);
        assert!(!t.is_empty());
    }

    #[test]
    #[should_panic(expected = "row arity mismatch")]
    fn arity_checked() {
        let mut t = Table::new("demo", &["a", "b"]);
        t.row(vec!["only-one".into()]);
    }

    #[test]
    fn json_shape() {
        let mut t = Table::new("demo", &["name", "value"]);
        t.row(vec!["a".into(), "1".into()]);
        let j = t.to_json();
        assert_eq!(j.get("title").and_then(|v| v.as_str()), Some("demo"));
        let rows = j.get("rows").and_then(|v| v.as_array()).unwrap();
        assert_eq!(rows.len(), 1);
        let s = serde::json::to_string(&j);
        assert!(s.contains("\"headers\""), "{s}");
    }

    #[test]
    fn formatters() {
        assert_eq!(f(1.23456, 2), "1.23");
        assert_eq!(pct(1, 4), "25.0%");
        assert_eq!(pct(1, 0), "-");
        assert_eq!(ns(12), "12ns");
        assert_eq!(ns(1_500), "1.5us");
        assert_eq!(ns(2_000_000), "2.00ms");
        assert_eq!(ns(3_000_000_000), "3.00s");
    }
}
