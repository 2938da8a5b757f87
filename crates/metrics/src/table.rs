//! Plain-text table rendering for the experiment binaries.
//!
//! The figure-regeneration binaries print the same rows/series the paper's
//! figures plot; this module renders them as aligned terminal tables.

use std::fmt::Write as _;

/// A simple column-aligned text table.
#[derive(Debug, Clone, Default)]
pub struct TextTable {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// A table with the given column headers.
    pub fn new<S: Into<String>, I: IntoIterator<Item = S>>(header: I) -> Self {
        TextTable {
            header: header.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row.
    ///
    /// # Panics
    /// Panics if the row arity differs from the header.
    pub fn push_row<S: Into<String>, I: IntoIterator<Item = S>>(&mut self, row: I) {
        let row: Vec<String> = row.into_iter().map(Into::into).collect();
        assert_eq!(
            row.len(),
            self.header.len(),
            "row arity {} != header arity {}",
            row.len(),
            self.header.len()
        );
        self.rows.push(row);
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// `true` if there are no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Render with one space of padding, a separator under the header, the
    /// first column left-aligned and the rest right-aligned.
    pub fn render(&self) -> String {
        let cols = self.header.len();
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.chars().count()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.chars().count());
            }
        }
        let mut out = String::new();
        let render_row = |out: &mut String, row: &[String]| {
            for (i, cell) in row.iter().enumerate() {
                if i > 0 {
                    out.push_str("  ");
                }
                let pad = widths[i] - cell.chars().count();
                if i == 0 {
                    out.push_str(cell);
                    out.push_str(&" ".repeat(pad));
                } else {
                    out.push_str(&" ".repeat(pad));
                    out.push_str(cell);
                }
            }
            out.push('\n');
        };
        render_row(&mut out, &self.header);
        let total: usize = widths.iter().sum::<usize>() + 2 * (cols.saturating_sub(1));
        let _ = writeln!(out, "{}", "-".repeat(total));
        for row in &self.rows {
            render_row(&mut out, row);
        }
        out
    }
}

/// Format a ratio like the paper's normalized charts: `1.00x`, or `-` when
/// the metric is omitted.
pub fn fmt_ratio(value: Option<f64>) -> String {
    match value {
        Some(v) => format!("{v:.2}x"),
        None => "-".to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_columns() {
        let mut t = TextTable::new(["scheduler", "makespan", "wait"]);
        t.push_row(["FCFS", "1.00x", "1.00x"]);
        t.push_row(["Claude-3.7", "0.84x", "0.31x"]);
        let text = t.render();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 4);
        // All rows share the same width.
        assert_eq!(lines[0].len(), lines[2].len());
        assert_eq!(lines[2].len(), lines[3].len());
        assert!(lines[0].starts_with("scheduler"));
        assert!(lines[3].starts_with("Claude-3.7"));
        // Numeric columns right-aligned: the ratio ends each line.
        assert!(lines[2].ends_with("1.00x"));
    }

    #[test]
    #[should_panic(expected = "row arity")]
    fn ragged_row_panics() {
        let mut t = TextTable::new(["a", "b"]);
        t.push_row(["only-one"]);
    }

    #[test]
    fn ratio_formatting() {
        assert_eq!(fmt_ratio(Some(1.0)), "1.00x");
        assert_eq!(fmt_ratio(Some(0.309)), "0.31x");
        assert_eq!(fmt_ratio(None), "-");
    }

    #[test]
    fn empty_table_renders_header_only() {
        let t = TextTable::new(["x"]);
        assert!(t.is_empty());
        assert_eq!(t.render().lines().count(), 2);
    }
}
