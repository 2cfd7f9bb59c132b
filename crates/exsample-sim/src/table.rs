//! Plain-text table rendering for the experiment binaries.
//!
//! The experiment binaries regenerate the paper's tables and figures as text:
//! aligned columns for terminals, with an optional markdown mode for inclusion in
//! `EXPERIMENTS.md`.  Keeping this tiny renderer local avoids a formatting
//! dependency and keeps the output stable across releases.

/// A simple column-aligned table builder.
#[derive(Debug, Clone, Default)]
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Create a table with the given column headers.
    pub fn new<S: Into<String>>(header: Vec<S>) -> Self {
        Table {
            header: header.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row.
    ///
    /// # Panics
    /// Panics if the row length does not match the header.
    pub fn push_row<S: Into<String>>(&mut self, row: Vec<S>) {
        let row: Vec<String> = row.into_iter().map(Into::into).collect();
        assert_eq!(
            row.len(),
            self.header.len(),
            "row has {} cells but the table has {} columns",
            row.len(),
            self.header.len()
        );
        self.rows.push(row);
    }

    /// Column widths (maximum of header and cell widths).
    fn widths(&self) -> Vec<usize> {
        let mut widths: Vec<usize> = self.header.iter().map(String::len).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        widths
    }

    /// Render as space-aligned plain text.
    pub fn to_plain(&self) -> String {
        let widths = self.widths();
        let mut out = String::new();
        let render_row = |cells: &[String], widths: &[usize]| -> String {
            cells
                .iter()
                .zip(widths)
                .map(|(c, w)| format!("{c:<w$}"))
                .collect::<Vec<_>>()
                .join("  ")
                .trim_end()
                .to_string()
        };
        out.push_str(&render_row(&self.header, &widths));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&render_row(row, &widths));
            out.push('\n');
        }
        out
    }

    /// Render as a GitHub-flavoured markdown table.
    pub fn to_markdown(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("| {} |\n", self.header.join(" | ")));
        out.push_str(&format!(
            "|{}\n",
            self.header.iter().map(|_| "---|").collect::<String>()
        ));
        for row in &self.rows {
            out.push_str(&format!("| {} |\n", row.join(" | ")));
        }
        out
    }

    /// Render as comma-separated values (cells containing commas are quoted).
    pub fn to_csv(&self) -> String {
        let escape = |cell: &str| -> String {
            if cell.contains(',') || cell.contains('"') {
                format!("\"{}\"", cell.replace('"', "\"\""))
            } else {
                cell.to_string()
            }
        };
        let mut out = String::new();
        out.push_str(
            &self
                .header
                .iter()
                .map(|c| escape(c))
                .collect::<Vec<_>>()
                .join(","),
        );
        out.push('\n');
        for row in &self.rows {
            out.push_str(&row.iter().map(|c| escape(c)).collect::<Vec<_>>().join(","));
            out.push('\n');
        }
        out
    }
}

/// Format a ratio the way the paper labels its savings ("6.1x", "0.79x").
pub fn format_ratio(ratio: f64) -> String {
    if !ratio.is_finite() {
        return "-".to_string();
    }
    if ratio >= 10.0 {
        format!("{ratio:.0}x")
    } else {
        format!("{ratio:.2}x")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table() -> Table {
        let mut t = Table::new(vec!["dataset", "category", "savings"]);
        t.push_row(vec!["dashcam", "bicycle", "3.70x"]);
        t.push_row(vec!["amsterdam", "boat", "0.75x"]);
        t
    }

    #[test]
    fn plain_rendering_aligns_columns() {
        let text = table().to_plain();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("dataset"));
        assert!(lines[2].starts_with("dashcam"));
        // The category column starts at the same offset in every row.
        let offset = lines[0].find("category").unwrap();
        assert_eq!(lines[2].find("bicycle").unwrap(), offset);
        assert_eq!(lines[3].find("boat").unwrap(), offset);
    }

    #[test]
    fn markdown_rendering() {
        let md = table().to_markdown();
        assert!(md.starts_with("| dataset | category | savings |"));
        assert!(md.contains("|---|---|---|"));
        assert!(md.contains("| amsterdam | boat | 0.75x |"));
    }

    #[test]
    fn csv_rendering_escapes_commas() {
        let mut t = Table::new(vec!["a", "b"]);
        t.push_row(vec!["hello, world", "plain"]);
        let csv = t.to_csv();
        assert!(csv.contains("\"hello, world\",plain"));
    }

    #[test]
    fn ratio_formatting() {
        assert_eq!(format_ratio(6.1), "6.10x");
        assert_eq!(format_ratio(0.79), "0.79x");
        assert_eq!(format_ratio(84.0), "84x");
        assert_eq!(format_ratio(f64::NAN), "-");
    }

    #[test]
    #[should_panic(expected = "columns")]
    fn mismatched_row_panics() {
        let mut t = Table::new(vec!["a", "b"]);
        t.push_row(vec!["only one"]);
    }

    #[test]
    fn empty_table_renders_header_only() {
        let t = Table::new(vec!["x"]);
        assert!(t.rows.is_empty());
        assert_eq!(t.to_plain().lines().count(), 2);
    }
}
