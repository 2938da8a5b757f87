//! Minimal RFC-4180-compatible CSV reading and writing.
//!
//! Used for workload trace files (Polaris replay), experiment result dumps,
//! and the figure-regeneration binaries. Implemented in-repo to keep the
//! workspace dependency-free; handles quoting, embedded commas/newlines and
//! doubled quotes.

use std::fmt;

/// An error produced while parsing CSV text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CsvError {
    /// 1-based line number where the error was detected.
    pub line: usize,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for CsvError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "CSV parse error at line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for CsvError {}

/// Escape one field for CSV output, quoting only when necessary.
pub(crate) fn escape_field(field: &str) -> String {
    if field.contains(',') || field.contains('"') || field.contains('\n') || field.contains('\r') {
        let mut out = String::with_capacity(field.len() + 2);
        out.push('"');
        for c in field.chars() {
            if c == '"' {
                out.push('"');
            }
            out.push(c);
        }
        out.push('"');
        out
    } else {
        field.to_string()
    }
}

/// Serialize rows (any iterator of string-ish cells) to CSV text with `\n`
/// line endings.
pub fn write_rows<R, C>(rows: R) -> String
where
    R: IntoIterator,
    R::Item: IntoIterator<Item = C>,
    C: AsRef<str>,
{
    let mut out = String::new();
    for row in rows {
        let mut cells = 0usize;
        let row_start = out.len();
        for cell in row {
            if cells > 0 {
                out.push(',');
            }
            out.push_str(&escape_field(cell.as_ref()));
            cells += 1;
        }
        // A row consisting of one empty field would serialize to a blank
        // line, which parsers must skip; quote it to keep the round trip
        // lossless.
        if cells == 1 && out.len() == row_start {
            out.push_str("\"\"");
        }
        out.push('\n');
    }
    out
}

/// Parse CSV text into rows of fields.
///
/// Accepts `\n` and `\r\n` line endings; empty trailing line is ignored.
/// Returns an error on an unterminated quoted field or stray quote.
pub fn parse(text: &str) -> Result<Vec<Vec<String>>, CsvError> {
    let mut rows = Vec::new();
    let mut row: Vec<String> = Vec::new();
    let mut field = String::new();
    let mut chars = text.chars().peekable();
    let mut in_quotes = false;
    let mut line = 1usize;
    // Tracks whether the current field began with a quote (for error checks).
    let mut field_started_quoted = false;
    let mut any_char_in_row = false;

    while let Some(c) = chars.next() {
        if in_quotes {
            match c {
                '"' => {
                    if chars.peek() == Some(&'"') {
                        chars.next();
                        field.push('"');
                    } else {
                        in_quotes = false;
                    }
                }
                '\n' => {
                    line += 1;
                    field.push(c);
                }
                _ => field.push(c),
            }
            continue;
        }
        match c {
            '"' => {
                if field.is_empty() && !field_started_quoted {
                    in_quotes = true;
                    field_started_quoted = true;
                    any_char_in_row = true;
                } else {
                    return Err(CsvError {
                        line,
                        message: "unexpected quote inside unquoted field".into(),
                    });
                }
            }
            ',' => {
                row.push(std::mem::take(&mut field));
                field_started_quoted = false;
                any_char_in_row = true;
            }
            '\r' => {
                // Swallow; the following '\n' (if any) ends the record.
            }
            '\n' => {
                if any_char_in_row || !field.is_empty() || !row.is_empty() {
                    row.push(std::mem::take(&mut field));
                    rows.push(std::mem::take(&mut row));
                }
                field_started_quoted = false;
                any_char_in_row = false;
                line += 1;
            }
            _ => {
                field.push(c);
                any_char_in_row = true;
            }
        }
    }
    if in_quotes {
        return Err(CsvError {
            line,
            message: "unterminated quoted field".into(),
        });
    }
    if any_char_in_row || !field.is_empty() || !row.is_empty() {
        row.push(field);
        rows.push(row);
    }
    Ok(rows)
}

/// A parsed CSV table with a header row, supporting column lookup by name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Table {
    /// Column names from the first row.
    pub header: Vec<String>,
    /// Data rows (each the same arity as the header).
    pub rows: Vec<Vec<String>>,
}

impl Table {
    /// Parse CSV text whose first row is a header.
    ///
    /// Rows with a different arity than the header are rejected.
    pub fn parse(text: &str) -> Result<Table, CsvError> {
        let mut all = parse(text)?;
        if all.is_empty() {
            return Err(CsvError {
                line: 1,
                message: "empty table: no header row".into(),
            });
        }
        let header = all.remove(0);
        for (i, row) in all.iter().enumerate() {
            if row.len() != header.len() {
                return Err(CsvError {
                    line: i + 2,
                    message: format!("row has {} fields, header has {}", row.len(), header.len()),
                });
            }
        }
        Ok(Table { header, rows: all })
    }

    /// Index of the named column.
    pub fn column(&self, name: &str) -> Option<usize> {
        self.header.iter().position(|h| h == name)
    }

    /// Cell value at `(row, column-name)`.
    pub fn get(&self, row: usize, name: &str) -> Option<&str> {
        let col = self.column(name)?;
        self.rows.get(row).map(|r| r[col].as_str())
    }

    /// Serialize back to CSV text.
    pub fn to_csv(&self) -> String {
        let mut rows: Vec<&Vec<String>> = Vec::with_capacity(self.rows.len() + 1);
        rows.push(&self.header);
        rows.extend(self.rows.iter());
        write_rows(rows.into_iter().map(|r| r.iter().map(|s| s.as_str())))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simple_roundtrip() {
        let rows = vec![vec!["a", "b"], vec!["1", "2"]];
        let text = write_rows(rows.clone());
        assert_eq!(text, "a,b\n1,2\n");
        let parsed = parse(&text).expect("parse");
        assert_eq!(parsed, vec![vec!["a", "b"], vec!["1", "2"]]);
    }

    #[test]
    fn quoting_commas_quotes_newlines() {
        let rows = vec![vec!["plain", "has,comma", "has\"quote", "has\nnewline"]];
        let text = write_rows(rows);
        let parsed = parse(&text).expect("parse");
        assert_eq!(
            parsed,
            vec![vec!["plain", "has,comma", "has\"quote", "has\nnewline"]]
        );
    }

    #[test]
    fn escape_field_only_when_needed() {
        assert_eq!(escape_field("x"), "x");
        assert_eq!(escape_field("a,b"), "\"a,b\"");
        assert_eq!(escape_field("say \"hi\""), "\"say \"\"hi\"\"\"");
    }

    #[test]
    fn crlf_line_endings() {
        let parsed = parse("a,b\r\n1,2\r\n").expect("parse");
        assert_eq!(parsed, vec![vec!["a", "b"], vec!["1", "2"]]);
    }

    #[test]
    fn missing_trailing_newline() {
        let parsed = parse("a,b\n1,2").expect("parse");
        assert_eq!(parsed, vec![vec!["a", "b"], vec!["1", "2"]]);
    }

    #[test]
    fn empty_fields_preserved() {
        let parsed = parse("a,,c\n,,\n").expect("parse");
        assert_eq!(parsed, vec![vec!["a", "", "c"], vec!["", "", ""]]);
    }

    #[test]
    fn unterminated_quote_is_error() {
        let err = parse("\"oops\n").expect_err("should fail");
        assert!(err.message.contains("unterminated"));
    }

    #[test]
    fn stray_quote_is_error() {
        let err = parse("ab\"cd\n").expect_err("should fail");
        assert!(err.message.contains("unexpected quote"));
        assert_eq!(err.line, 1);
    }

    #[test]
    fn table_lookup_by_name() {
        let t = Table::parse("job,nodes,mem\nj1,4,16\nj2,8,32\n").expect("parse");
        assert_eq!(t.header, vec!["job", "nodes", "mem"]);
        assert_eq!(t.rows.len(), 2);
        assert_eq!(t.get(0, "nodes"), Some("4"));
        assert_eq!(t.get(1, "mem"), Some("32"));
        assert_eq!(t.get(0, "missing"), None);
        assert_eq!(t.get(9, "mem"), None);
    }

    #[test]
    fn table_rejects_ragged_rows() {
        let err = Table::parse("a,b\n1\n").expect_err("ragged");
        assert_eq!(err.line, 2);
    }

    #[test]
    fn table_roundtrip() {
        let src = "a,b\n\"x,y\",2\n";
        let t = Table::parse(src).expect("parse");
        assert_eq!(t.to_csv(), src);
    }

    #[test]
    fn empty_text_parses_to_no_rows() {
        assert_eq!(parse("").expect("parse"), Vec::<Vec<String>>::new());
        assert!(Table::parse("").is_err());
    }
}
