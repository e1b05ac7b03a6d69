//! Result tables: aligned text output for the experiment binaries.

use std::fmt;

/// One result table.
#[derive(Clone, Debug)]
pub struct Table {
    /// Experiment/table title.
    pub title: String,
    /// Free-form note printed under the title (the paper claim being
    /// reproduced).
    pub note: String,
    /// Column headers.
    pub headers: Vec<String>,
    /// Data rows.
    pub rows: Vec<Vec<String>>,
}

impl Table {
    /// Start a table.
    pub fn new(title: impl Into<String>, note: impl Into<String>, headers: &[&str]) -> Self {
        Self {
            title: title.into(),
            note: note.into(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row (must match the header count).
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(
            cells.len(),
            self.headers.len(),
            "row width mismatch in table {}",
            self.title
        );
        self.rows.push(cells);
    }

    fn widths(&self) -> Vec<usize> {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.chars().count()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.chars().count());
            }
        }
        widths
    }

    /// Render as a Markdown table (used by EXPERIMENTS.md).
    pub fn to_markdown(&self) -> String {
        let mut out = format!("### {}\n\n", self.title);
        if !self.note.is_empty() {
            out.push_str(&format!("{}\n\n", self.note));
        }
        out.push_str(&format!("| {} |\n", self.headers.join(" | ")));
        out.push_str(&format!(
            "|{}\n",
            self.headers.iter().map(|_| "---|").collect::<String>()
        ));
        for row in &self.rows {
            out.push_str(&format!("| {} |\n", row.join(" | ")));
        }
        out
    }
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let widths = self.widths();
        writeln!(f, "== {} ==", self.title)?;
        if !self.note.is_empty() {
            writeln!(f, "   {}", self.note)?;
        }
        let line = |f: &mut fmt::Formatter<'_>| -> fmt::Result {
            write!(f, "  +")?;
            for w in &widths {
                write!(f, "{}+", "-".repeat(w + 2))?;
            }
            writeln!(f)
        };
        line(f)?;
        write!(f, "  |")?;
        for (h, w) in self.headers.iter().zip(&widths) {
            write!(f, " {h:<w$} |", w = w)?;
        }
        writeln!(f)?;
        line(f)?;
        for row in &self.rows {
            write!(f, "  |")?;
            for (cell, w) in row.iter().zip(&widths) {
                write!(f, " {cell:<w$} |", w = w)?;
            }
            writeln!(f)?;
        }
        line(f)
    }
}

/// The named numbers one experiment reports beside its tables, for
/// `tests/gated_experiments.rs` to assert.
#[derive(Clone, Debug, PartialEq)]
pub struct Metrics {
    /// Experiment id (`r3` … `r6`).
    pub experiment: String,
    values: Vec<(String, f64)>,
}

impl Metrics {
    /// Start an empty metric set for `experiment`.
    pub fn new(experiment: impl Into<String>) -> Self {
        Self {
            experiment: experiment.into(),
            values: Vec::new(),
        }
    }

    /// Record (or overwrite) one metric.
    pub fn put(&mut self, key: impl Into<String>, value: f64) {
        let key = key.into();
        if let Some(slot) = self.values.iter_mut().find(|(k, _)| *k == key) {
            slot.1 = value;
        } else {
            self.values.push((key, value));
        }
    }

    /// Look up one metric.
    pub fn get(&self, key: &str) -> Option<f64> {
        self.values.iter().find(|(k, _)| k == key).map(|(_, v)| *v)
    }
}

/// Format a `Duration` compactly in milliseconds.
pub fn ms(d: std::time::Duration) -> String {
    format!("{:.3}", d.as_secs_f64() * 1e3)
}

/// Format a ratio with one decimal and an `x` suffix.
pub fn ratio(a: f64, b: f64) -> String {
    if b == 0.0 {
        "inf".into()
    } else {
        format!("{:.1}x", a / b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new("T", "a note", &["col", "value"]);
        t.row(vec!["short".into(), "1".into()]);
        t.row(vec!["much longer cell".into(), "22".into()]);
        let s = t.to_string();
        assert!(s.contains("== T =="));
        assert!(s.contains("a note"));
        assert!(s.contains("much longer cell"));
        // All bordered lines equal length.
        let lens: Vec<usize> = s
            .lines()
            .filter(|l| l.starts_with("  |") || l.starts_with("  +"))
            .map(|l| l.len())
            .collect();
        assert!(lens.windows(2).all(|w| w[0] == w[1]), "{s}");
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn row_width_enforced() {
        let mut t = Table::new("T", "", &["a", "b"]);
        t.row(vec!["only one".into()]);
    }

    #[test]
    fn markdown_output() {
        let mut t = Table::new("T", "note", &["a", "b"]);
        t.row(vec!["1".into(), "2".into()]);
        let md = t.to_markdown();
        assert!(md.contains("### T"));
        assert!(md.contains("| a | b |"));
        assert!(md.contains("| 1 | 2 |"));
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(ms(Duration::from_micros(1500)), "1.500");
        assert_eq!(ratio(10.0, 2.0), "5.0x");
        assert_eq!(ratio(1.0, 0.0), "inf");
    }

    #[test]
    fn metrics_put_overwrites() {
        let mut m = Metrics::new("x");
        m.put("k", 1.0);
        m.put("k", 2.0);
        assert_eq!(m.get("k"), Some(2.0));
        assert_eq!(m.get("nope"), None);
    }
}
