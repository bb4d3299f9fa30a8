//! Aligned text tables.

/// Column alignment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Align {
    /// Left-aligned (default; use for labels).
    #[default]
    Left,
    /// Right-aligned (use for numbers).
    Right,
}

/// A simple table builder producing aligned plain text or GitHub markdown.
///
/// # Examples
///
/// ```
/// use pm_report::{Align, Table};
///
/// let mut t = Table::new(vec!["case".into(), "secs".into()]);
/// t.set_align(1, Align::Right);
/// t.add_row(vec!["baseline".into(), "360.0".into()]);
/// let text = t.render();
/// assert!(text.contains("baseline"));
/// ```
#[derive(Debug, Clone)]
pub struct Table {
    headers: Vec<String>,
    aligns: Vec<Align>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    ///
    /// # Panics
    ///
    /// Panics if `headers` is empty.
    #[must_use]
    pub fn new(headers: Vec<String>) -> Self {
        assert!(!headers.is_empty(), "a table needs at least one column");
        let aligns = vec![Align::Left; headers.len()];
        Table {
            headers,
            aligns,
            rows: Vec::new(),
        }
    }

    /// Sets the alignment of column `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn set_align(&mut self, i: usize, align: Align) {
        self.aligns[i] = align;
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the row's width differs from the header's.
    pub fn add_row(&mut self, row: Vec<String>) {
        assert_eq!(
            row.len(),
            self.headers.len(),
            "row width {} != column count {}",
            row.len(),
            self.headers.len()
        );
        self.rows.push(row);
    }

    /// Number of data rows.
    #[must_use]
    pub fn num_rows(&self) -> usize {
        self.rows.len()
    }

    /// Column widths in `char`s, the unit `format!` pads by.
    fn widths(&self) -> Vec<usize> {
        let width = |cell: &String| cell.chars().count();
        let mut w: Vec<usize> = self.headers.iter().map(width).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                w[i] = w[i].max(width(cell));
            }
        }
        w
    }

    fn pad(cell: &str, width: usize, align: Align) -> String {
        match align {
            Align::Left => format!("{cell:<width$}"),
            Align::Right => format!("{cell:>width$}"),
        }
    }

    /// Renders aligned plain text with a header separator.
    #[must_use]
    pub fn render(&self) -> String {
        let widths = self.widths();
        let mut out = String::new();
        let render_line = |cells: &[String], out: &mut String, aligns: &[Align]| {
            let parts: Vec<String> = cells
                .iter()
                .enumerate()
                .map(|(i, c)| Self::pad(c, widths[i], aligns[i]))
                .collect();
            out.push_str(parts.join("  ").trim_end());
            out.push('\n');
        };
        render_line(&self.headers, &mut out, &self.aligns);
        let sep: Vec<String> = widths.iter().map(|&w| "-".repeat(w)).collect();
        out.push_str(&sep.join("  "));
        out.push('\n');
        for row in &self.rows {
            render_line(row, &mut out, &self.aligns);
        }
        out
    }

    /// Renders a GitHub-flavoured markdown table.
    #[must_use]
    pub fn render_markdown(&self) -> String {
        let mut out = String::new();
        out.push_str("| ");
        out.push_str(&self.headers.join(" | "));
        out.push_str(" |\n|");
        for align in &self.aligns {
            out.push_str(match align {
                Align::Left => "---|",
                Align::Right => "--:|",
            });
        }
        out.push('\n');
        for row in &self.rows {
            out.push_str("| ");
            out.push_str(&row.join(" | "));
            out.push_str(" |\n");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Table {
        let mut t = Table::new(vec!["name".into(), "value".into()]);
        t.set_align(1, Align::Right);
        t.add_row(vec!["alpha".into(), "1".into()]);
        t.add_row(vec!["b".into(), "22.5".into()]);
        t
    }

    #[test]
    fn renders_aligned_columns() {
        let text = sample().render();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("name"));
        assert!(lines[1].starts_with("-----"));
        // Right-aligned number column: "1" ends at the same column as "22.5".
        assert!(lines[2].ends_with("   1"));
        assert!(lines[3].ends_with("22.5"));
    }

    #[test]
    fn renders_markdown() {
        let md = sample().render_markdown();
        assert!(md.starts_with("| name | value |"));
        assert!(md.contains("|---|--:|"));
        assert!(md.contains("| alpha | 1 |"));
    }

    #[test]
    fn wide_cells_stretch_columns() {
        let mut t = Table::new(vec!["h".into()]);
        t.add_row(vec!["a-very-long-cell".into()]);
        let text = t.render();
        assert!(text.lines().nth(1).unwrap().len() >= "a-very-long-cell".len());
    }

    #[test]
    fn multibyte_headers_pad_by_char() {
        // `±` is one char but two bytes: the rule and the cells must still
        // end where the header does.
        let mut t = Table::new(vec!["±95% (%)".into(), "n".into()]);
        t.set_align(0, Align::Right);
        t.add_row(vec!["1.5".into(), "3".into()]);
        let text = t.render();
        let widths: Vec<usize> = text.lines().map(|l| l.chars().count()).collect();
        assert_eq!(widths, [11, 11, 11], "{text}");
        assert!(text.lines().nth(2).unwrap().starts_with("     1.5  3"));
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn mismatched_row_rejected() {
        let mut t = Table::new(vec!["a".into(), "b".into()]);
        t.add_row(vec!["only-one".into()]);
    }

    #[test]
    #[should_panic(expected = "at least one column")]
    fn empty_headers_rejected() {
        let _ = Table::new(Vec::new());
    }

    #[test]
    fn row_count() {
        assert_eq!(sample().num_rows(), 2);
    }
}
