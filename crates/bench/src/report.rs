//! Plain-text tables and CSV output for the reproduction harness.

use std::fmt::Write as _;
use std::path::Path;

/// A simple aligned text table that can also serialize itself as CSV.
#[derive(Debug, Clone)]
pub struct Table {
    title: String,
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with a title and column headers.
    pub fn new(title: impl Into<String>, header: &[&str]) -> Self {
        Table {
            title: title.into(),
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (stringified cells).
    pub fn row(&mut self, cells: Vec<String>) -> &mut Self {
        debug_assert_eq!(cells.len(), self.header.len());
        self.rows.push(cells);
        self
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True if the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders the aligned text form.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for r in &self.rows {
            for (i, c) in r.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "\n== {} ==", self.title);
        let line = |cells: &[String], widths: &[usize]| -> String {
            let mut s = String::new();
            for (i, c) in cells.iter().enumerate() {
                if i == 0 {
                    let _ = write!(s, "{:<w$}", c, w = widths[i]);
                } else {
                    let _ = write!(s, "  {:>w$}", c, w = widths[i]);
                }
            }
            s
        };
        let _ = writeln!(out, "{}", line(&self.header, &widths));
        let total: usize = widths.iter().sum::<usize>() + 2 * (widths.len() - 1);
        let _ = writeln!(out, "{}", "-".repeat(total));
        for r in &self.rows {
            let _ = writeln!(out, "{}", line(r, &widths));
        }
        out
    }

    /// CSV form (header + rows).
    pub fn to_csv(&self) -> String {
        let esc = |s: &str| {
            if s.contains(',') || s.contains('"') {
                format!("\"{}\"", s.replace('"', "\"\""))
            } else {
                s.to_string()
            }
        };
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{}",
            self.header.iter().map(|h| esc(h)).collect::<Vec<_>>().join(",")
        );
        for r in &self.rows {
            let _ = writeln!(
                out,
                "{}",
                r.iter().map(|c| esc(c)).collect::<Vec<_>>().join(",")
            );
        }
        out
    }

    /// Writes the CSV next to the other results.
    ///
    /// # Errors
    ///
    /// I/O errors from creating the directory or writing the file.
    pub fn write_csv(&self, dir: &Path, name: &str) -> std::io::Result<()> {
        std::fs::create_dir_all(dir)?;
        std::fs::write(dir.join(name), self.to_csv())
    }
}

/// Formats a float with 3 significant digits of padding for tables.
pub fn f3(v: f64) -> String {
    if !v.is_finite() {
        return "-".into();
    }
    if v.abs() >= 100.0 {
        format!("{v:.0}")
    } else if v.abs() >= 10.0 {
        format!("{v:.1}")
    } else {
        format!("{v:.2}")
    }
}

/// Formats a percentage.
pub fn pct(v: f64) -> String {
    format!("{:.1}%", v * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_table() {
        let mut t = Table::new("Demo", &["name", "value"]);
        t.row(vec!["a".into(), "1".into()]);
        t.row(vec!["long-name".into(), "123".into()]);
        let s = t.render();
        assert!(s.contains("== Demo =="));
        assert!(s.contains("long-name"));
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn csv_escapes_commas() {
        let mut t = Table::new("x", &["a", "b"]);
        t.row(vec!["x,y".into(), "z".into()]);
        let csv = t.to_csv();
        assert!(csv.contains("\"x,y\""));
    }

    #[test]
    fn float_formats() {
        assert_eq!(f3(123.4), "123");
        assert_eq!(f3(12.34), "12.3");
        assert_eq!(f3(1.234), "1.23");
        assert_eq!(f3(f64::INFINITY), "-");
        assert_eq!(pct(0.236), "23.6%");
    }
}
