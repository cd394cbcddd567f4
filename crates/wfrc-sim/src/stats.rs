//! Result summaries and table rendering.
//!
//! The bench binaries print the same kind of rows the paper's venue
//! expected (throughput per thread count per scheme, worst-case step
//! counts) and additionally dump JSON so EXPERIMENTS.md tables can be
//! regenerated mechanically.

use crate::latency::Histogram;

/// A compact summary of a latency/step distribution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Arithmetic mean.
    pub mean: f64,
    /// Median (bucket lower bound).
    pub p50: u64,
    /// 99th percentile.
    pub p99: u64,
    /// 99.9th percentile.
    pub p999: u64,
    /// Exact maximum.
    pub max: u64,
    /// Sample count.
    pub count: u64,
}

impl Summary {
    /// Summarizes a histogram.
    pub fn of(h: &Histogram) -> Self {
        Self {
            mean: h.mean(),
            p50: h.quantile(0.5),
            p99: h.quantile(0.99),
            p999: h.quantile(0.999),
            max: h.max(),
            count: h.len(),
        }
    }
}

/// A fixed-width text table (what the bench binaries print).
#[derive(Debug, Clone)]
pub struct Table {
    /// Table title (experiment id + description).
    pub title: String,
    /// Column headers.
    pub headers: Vec<String>,
    /// Rows of cells.
    pub rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates an empty table.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        Self {
            title: title.into(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (must match the header count).
    pub fn row(&mut self, cells: &[String]) {
        assert_eq!(cells.len(), self.headers.len(), "column count mismatch");
        self.rows.push(cells.to_vec());
    }

    /// Renders the table with aligned columns.
    pub fn render(&self) -> String {
        // Widths in chars, as `format!` pads: `fmt_ns`'s `µ` is two bytes.
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.chars().count()).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.chars().count());
            }
        }
        let mut out = String::new();
        out.push_str(&format!("## {}\n", self.title));
        let line = |cells: &[String], widths: &[usize]| {
            let mut s = String::from("|");
            for (c, w) in cells.iter().zip(widths) {
                s.push_str(&format!(" {c:>w$} |", w = w));
            }
            s.push('\n');
            s
        };
        out.push_str(&line(&self.headers, &widths));
        let mut sep = String::from("|");
        for w in &widths {
            sep.push_str(&format!("{:-<w$}|", "", w = w + 2));
        }
        sep.push('\n');
        out.push_str(&sep);
        for row in &self.rows {
            out.push_str(&line(row, &widths));
        }
        out
    }

    /// Serializes to JSON (for EXPERIMENTS.md regeneration).
    ///
    /// Emitted by hand — the repository builds offline with no external
    /// crates, and a three-field record of strings does not need one.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str(&format!("  \"title\": {},\n", json_string(&self.title)));
        out.push_str("  \"headers\": ");
        out.push_str(&json_string_array(&self.headers, "  "));
        out.push_str(",\n  \"rows\": [");
        for (i, row) in self.rows.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n    ");
            out.push_str(&json_string_array(row, "    "));
        }
        if !self.rows.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("]\n}");
        out
    }
}

/// JSON string literal with the escapes RFC 8259 requires.
fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_string_array(items: &[String], _indent: &str) -> String {
    let cells: Vec<String> = items.iter().map(|s| json_string(s)).collect();
    format!("[{}]", cells.join(", "))
}

/// Formats an operations-per-second figure compactly.
pub fn fmt_ops(ops_per_sec: f64) -> String {
    if ops_per_sec >= 1e6 {
        format!("{:.2}M", ops_per_sec / 1e6)
    } else if ops_per_sec >= 1e3 {
        format!("{:.1}k", ops_per_sec / 1e3)
    } else {
        format!("{ops_per_sec:.0}")
    }
}

/// Formats nanoseconds compactly.
pub fn fmt_ns(ns: u64) -> String {
    if ns >= 1_000_000 {
        format!("{:.2}ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.2}µs", ns as f64 / 1e3)
    } else {
        format!("{ns}ns")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_of_histogram() {
        let mut h = Histogram::new();
        for v in [1u64, 2, 3, 100] {
            h.record(v);
        }
        let s = Summary::of(&h);
        assert_eq!(s.count, 4);
        assert_eq!(s.max, 100);
        assert!((s.mean - 26.5).abs() < 0.01);
    }

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new("E0 demo", &["threads", "p99"]);
        t.row(&["1".into(), "100ns".into()]);
        t.row(&["16".into(), fmt_ns(12_345)]);
        let r = t.render();
        assert!(r.contains("## E0 demo"));
        assert!(r.contains("| threads |     p99 |"), "{r}");
        assert!(r.contains("|      16 | 12.35µs |"), "{r}");
        let mut widths = r.lines().skip(1).map(|l| l.chars().count());
        let first = widths.next().unwrap();
        assert!(widths.all(|w| w == first), "{r}");
        assert_eq!(r.lines().count(), 5);
    }

    #[test]
    fn json_is_well_formed() {
        let mut t = Table::new("E0 \"quoted\"\ntitle", &["a", "b"]);
        t.row(&["x\\y".into(), "2".into()]);
        let j = t.to_json();
        assert!(j.contains(r#""title": "E0 \"quoted\"\ntitle""#), "{j}");
        assert!(j.contains(r#""headers": ["a", "b"]"#), "{j}");
        assert!(j.contains(r#"["x\\y", "2"]"#), "{j}");
        // Balanced delimiters (a cheap well-formedness check without a
        // parser; all payload characters are escaped above).
        let braces = j.matches('{').count();
        assert_eq!(braces, j.matches('}').count());
        assert_eq!(j.matches('[').count(), j.matches(']').count());
    }

    #[test]
    #[should_panic(expected = "column count mismatch")]
    fn row_width_checked() {
        let mut t = Table::new("x", &["a", "b"]);
        t.row(&["only one".into()]);
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(fmt_ops(2_500_000.0), "2.50M");
        assert_eq!(fmt_ops(1_500.0), "1.5k");
        assert_eq!(fmt_ops(90.0), "90");
        assert_eq!(fmt_ns(5), "5ns");
        assert_eq!(fmt_ns(2_500), "2.50µs");
        assert_eq!(fmt_ns(3_000_000), "3.00ms");
    }
}
