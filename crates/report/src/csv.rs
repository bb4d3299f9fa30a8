//! Minimal CSV output (RFC 4180 quoting).

use std::io::{self, Write};

/// Streams rows to a writer as CSV.
///
/// Fields containing commas, quotes, or newlines are quoted; embedded
/// quotes are doubled. All experiments write their raw series
/// through this so results can be re-plotted outside the repo.
#[derive(Debug)]
pub struct Csv<W: Write> {
    writer: W,
    columns: usize,
}

impl<W: Write> Csv<W> {
    /// Creates a CSV writer and emits the header row.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the underlying writer.
    ///
    /// # Panics
    ///
    /// Panics if `header` is empty.
    pub fn with_header(mut writer: W, header: &[&str]) -> io::Result<Self> {
        assert!(!header.is_empty(), "CSV needs at least one column");
        let columns = header.len();
        write_row(&mut writer, header.iter().copied())?;
        Ok(Csv { writer, columns })
    }

    /// Writes one data row.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    ///
    /// # Panics
    ///
    /// Panics if the row width differs from the header width.
    pub fn row<'a, I>(&mut self, fields: I) -> io::Result<()>
    where
        I: IntoIterator<Item = &'a str>,
    {
        let fields: Vec<&str> = fields.into_iter().collect();
        assert_eq!(fields.len(), self.columns, "CSV row width mismatch");
        write_row(&mut self.writer, fields.into_iter())
    }

    /// Convenience: writes a row of already-formatted strings.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn row_strings(&mut self, fields: &[String]) -> io::Result<()> {
        self.row(fields.iter().map(String::as_str))
    }

    /// Finishes writing and returns the inner writer.
    #[must_use]
    pub fn into_inner(self) -> W {
        self.writer
    }
}

fn needs_quoting(field: &str) -> bool {
    field.contains([',', '"', '\n', '\r'])
}

fn write_row<'a, W: Write, I: Iterator<Item = &'a str>>(w: &mut W, fields: I) -> io::Result<()> {
    let mut first = true;
    for f in fields {
        if !first {
            w.write_all(b",")?;
        }
        first = false;
        if needs_quoting(f) {
            let escaped = f.replace('"', "\"\"");
            write!(w, "\"{escaped}\"")?;
        } else {
            w.write_all(f.as_bytes())?;
        }
    }
    w.write_all(b"\n")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn render(header: &[&str], rows: &[Vec<&str>]) -> String {
        let mut csv = Csv::with_header(Vec::new(), header).unwrap();
        for r in rows {
            csv.row(r.iter().copied()).unwrap();
        }
        String::from_utf8(csv.into_inner()).unwrap()
    }

    #[test]
    fn plain_rows() {
        let out = render(&["a", "b"], &[vec!["1", "2"], vec!["3", "4"]]);
        assert_eq!(out, "a,b\n1,2\n3,4\n");
    }

    #[test]
    fn quoting() {
        let out = render(&["x"], &[vec!["has,comma"], vec!["has\"quote"], vec!["line\nbreak"]]);
        assert_eq!(out, "x\n\"has,comma\"\n\"has\"\"quote\"\n\"line\nbreak\"\n");
    }

    #[test]
    #[should_panic(expected = "width mismatch")]
    fn width_checked() {
        let mut csv = Csv::with_header(Vec::new(), &["a", "b"]).unwrap();
        csv.row(["only"].iter().copied()).unwrap();
    }

    #[test]
    fn row_strings_helper() {
        let mut csv = Csv::with_header(Vec::new(), &["n", "secs"]).unwrap();
        csv.row_strings(&["10".to_string(), "1.5".to_string()]).unwrap();
        let out = String::from_utf8(csv.into_inner()).unwrap();
        assert!(out.ends_with("10,1.5\n"));
    }

    /// Minimal RFC 4180 reader used to prove the writer round-trips:
    /// fields split on commas, quoted fields may contain commas, CR, LF,
    /// and doubled quotes.
    fn parse_csv(text: &str) -> Vec<Vec<String>> {
        let mut rows = Vec::new();
        let mut row = Vec::new();
        let mut field = String::new();
        let mut quoted = false;
        let mut chars = text.chars().peekable();
        while let Some(c) = chars.next() {
            if quoted {
                match c {
                    '"' if chars.peek() == Some(&'"') => {
                        chars.next();
                        field.push('"');
                    }
                    '"' => quoted = false,
                    other => field.push(other),
                }
            } else {
                match c {
                    '"' => quoted = true,
                    ',' => row.push(std::mem::take(&mut field)),
                    '\n' => {
                        row.push(std::mem::take(&mut field));
                        rows.push(std::mem::take(&mut row));
                    }
                    '\r' if chars.peek() == Some(&'\n') => {}
                    other => field.push(other),
                }
            }
        }
        if !field.is_empty() || !row.is_empty() {
            row.push(field);
            rows.push(row);
        }
        rows
    }

    fn round_trips(fields: &[&str]) {
        let header: Vec<&str> = (0..fields.len()).map(|_| "c").collect();
        let mut csv = Csv::with_header(Vec::new(), &header).unwrap();
        csv.row(fields.iter().copied()).unwrap();
        let out = String::from_utf8(csv.into_inner()).unwrap();
        let parsed = parse_csv(&out);
        assert_eq!(parsed.len(), 2, "header + one row: {out:?}");
        assert_eq!(
            parsed[1],
            fields.iter().map(ToString::to_string).collect::<Vec<_>>(),
            "raw: {out:?}"
        );
    }

    #[test]
    fn sweep_labels_round_trip() {
        // Labels like these flow from manifests into report CSVs.
        round_trips(&["All Disks One Run, 5 disks", "12.2", "0.98"]);
        round_trips(&["N=10 (25 runs, 5 disks)", "x"]);
    }

    #[test]
    fn commas_quotes_and_newlines_round_trip() {
        round_trips(&["plain", "has,comma", "has\"quote", "line\nbreak"]);
        round_trips(&["\"fully quoted\"", "a,b,\"c\",d"]);
        round_trips(&["trailing quote\"", "\"leading quote"]);
        round_trips(&["crlf\r\nline", "cr\ralone"]);
        round_trips(&["double\"\"doubled", "all three ,\"\n mixed"]);
    }

    #[test]
    fn empty_and_whitespace_fields_round_trip() {
        round_trips(&["", " ", "  padded  ", ""]);
    }
}
