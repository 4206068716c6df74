//! Aligned plain-text and Markdown tables.
//!
//! The paper's Tables 6 and 8 (and the per-experiment summaries the
//! `ec-bench` binaries print) are small tables of numbers; this module renders them
//! with aligned columns for the terminal and as GitHub-flavoured Markdown for
//! documentation.

use serde::{Deserialize, Serialize};

/// A simple table: a header row plus data rows of equal width.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct TextTable {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// Creates a table with the given header.
    pub fn new<S: Into<String>>(header: impl IntoIterator<Item = S>) -> Self {
        TextTable {
            header: header.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    /// Panics if the row width differs from the header width.
    pub fn push_row<S: Into<String>>(&mut self, row: impl IntoIterator<Item = S>) {
        let row: Vec<String> = row.into_iter().map(Into::into).collect();
        assert_eq!(
            row.len(),
            self.header.len(),
            "row width {} does not match header width {}",
            row.len(),
            self.header.len()
        );
        self.rows.push(row);
    }

    /// Builder-style [`TextTable::push_row`].
    pub fn with_row<S: Into<String>>(mut self, row: impl IntoIterator<Item = S>) -> Self {
        self.push_row(row);
        self
    }

    /// Number of data rows.
    pub fn num_rows(&self) -> usize {
        self.rows.len()
    }

    /// Number of columns.
    pub fn num_columns(&self) -> usize {
        self.header.len()
    }

    /// The header cells.
    pub fn header(&self) -> &[String] {
        &self.header
    }

    /// The data rows.
    pub fn rows(&self) -> &[Vec<String>] {
        &self.rows
    }

    fn column_widths(&self) -> Vec<usize> {
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.chars().count()).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.chars().count());
            }
        }
        widths
    }

    /// Renders the table with space-aligned columns separated by two spaces,
    /// with a dashed rule under the header.
    pub fn to_plain_text(&self) -> String {
        let widths = self.column_widths();
        let mut out = String::new();
        let render_row = |cells: &[String]| -> String {
            cells
                .iter()
                .zip(&widths)
                .map(|(c, w)| format!("{c:<width$}", width = w))
                .collect::<Vec<_>>()
                .join("  ")
                .trim_end()
                .to_string()
        };
        out.push_str(&render_row(&self.header));
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

    /// Renders the table as GitHub-flavoured Markdown. Pipe characters inside
    /// cells are escaped.
    pub fn to_markdown(&self) -> String {
        let escape = |s: &str| s.replace('|', "\\|");
        let mut out = String::new();
        out.push_str("| ");
        out.push_str(
            &self
                .header
                .iter()
                .map(|h| escape(h))
                .collect::<Vec<_>>()
                .join(" | "),
        );
        out.push_str(" |\n|");
        out.push_str(
            &self
                .header
                .iter()
                .map(|_| "---")
                .collect::<Vec<_>>()
                .join("|"),
        );
        out.push_str("|\n");
        for row in &self.rows {
            out.push_str("| ");
            out.push_str(
                &row.iter()
                    .map(|c| escape(c))
                    .collect::<Vec<_>>()
                    .join(" | "),
            );
            out.push_str(" |\n");
        }
        out
    }

    /// Renders the table as RFC-4180 CSV (header row first, `\n` record
    /// terminators, fields quoted only when they contain a comma, quote, or
    /// line break) — the machine-readable export CI archives next to the
    /// plain-text rendering.
    pub fn to_csv(&self) -> String {
        fn push_record(out: &mut String, cells: &[String]) {
            for (i, cell) in cells.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                crate::export::push_csv_field(out, cell);
            }
            out.push('\n');
        }
        let mut out = String::new();
        push_record(&mut out, &self.header);
        for row in &self.rows {
            push_record(&mut out, row);
        }
        out
    }
}

/// Formats a float with the given number of decimals, trimming `-0.000` to
/// `0.000` so tables stay tidy.
pub fn fmt_f64(value: f64, decimals: usize) -> String {
    let s = format!("{value:.decimals$}");
    if s.starts_with("-0.") && s[1..].chars().all(|c| c == '0' || c == '.') {
        s[1..].to_string()
    } else {
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table6_like() -> TextTable {
        TextTable::new(["", "AuthorList", "Address", "JournalTitle"])
            .with_row(["avg cluster size", "26.9", "5.8", "1.8"])
            .with_row(["# of distinct value pairs", "51,538", "80,451", "81,350"])
            .with_row(["variant value pairs %", "26.5%", "18%", "74%"])
    }

    #[test]
    fn plain_text_aligns_columns() {
        let text = table6_like().to_plain_text();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 5);
        // The widest cell in column 0 sets the column width: every data row
        // starts its second column at the same offset.
        let offset = lines[3].find("51,538").unwrap();
        assert_eq!(lines[4].find("26.5%").unwrap(), offset);
        assert_eq!(lines[2].find("26.9").unwrap(), offset);
        assert!(lines[1].starts_with("---"));
    }

    #[test]
    fn markdown_has_header_separator_and_rows() {
        let md = table6_like().to_markdown();
        let lines: Vec<&str> = md.lines().collect();
        assert!(lines[0].starts_with("| "));
        assert_eq!(lines[1], "|---|---|---|---|");
        assert_eq!(lines.len(), 5);
        assert!(lines[4].contains("74%"));
    }

    #[test]
    fn markdown_escapes_pipes() {
        let t = TextTable::new(["expr"]).with_row(["a | b"]);
        assert!(t.to_markdown().contains("a \\| b"));
    }

    #[test]
    fn csv_export_quotes_only_when_needed() {
        let csv = table6_like().to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], ",AuthorList,Address,JournalTitle");
        assert_eq!(
            lines[2],
            "# of distinct value pairs,\"51,538\",\"80,451\",\"81,350\""
        );
        let tricky = TextTable::new(["a", "b"]).with_row(["say \"hi\"", "x\ny"]);
        assert_eq!(tricky.to_csv(), "a,b\n\"say \"\"hi\"\"\",\"x\ny\"\n");
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn mismatched_row_width_panics() {
        let mut t = TextTable::new(["a", "b"]);
        t.push_row(["only one"]);
    }

    #[test]
    fn accessors() {
        let t = table6_like();
        assert_eq!(t.num_rows(), 3);
        assert_eq!(t.num_columns(), 4);
        assert_eq!(t.header()[1], "AuthorList");
        assert_eq!(t.rows()[0][0], "avg cluster size");
    }

    #[test]
    fn empty_table_renders_header_only() {
        let t = TextTable::new(["x", "y"]);
        let text = t.to_plain_text();
        assert_eq!(text.lines().count(), 2);
        let md = t.to_markdown();
        assert_eq!(md.lines().count(), 2);
    }

    #[test]
    fn unicode_width_is_by_chars_not_bytes() {
        let t = TextTable::new(["café", "x"]).with_row(["ab", "y"]);
        let text = t.to_plain_text();
        let first = text.lines().next().unwrap();
        assert!(first.starts_with("café"));
    }

    #[test]
    fn float_formatting() {
        assert_eq!(fmt_f64(0.754999, 3), "0.755");
        assert_eq!(fmt_f64(-0.0001, 3), "0.000");
        assert_eq!(fmt_f64(-0.5, 2), "-0.50");
        assert_eq!(fmt_f64(1.0, 0), "1");
    }
}
