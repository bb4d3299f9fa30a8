//! ASCII Gantt charts.

/// A labelled row of busy intervals rendered against a shared time axis.
#[derive(Debug, Clone)]
struct Row {
    label: String,
    /// Busy intervals `[start, end)` in caller units (e.g. nanoseconds).
    intervals: Vec<(u64, u64)>,
    /// Marker for busy cells.
    marker: char,
}

/// Renders labelled interval rows (disk service, CPU stalls, …) as an
/// ASCII Gantt chart over a time window.
///
/// # Examples
///
/// ```
/// use pm_report::Gantt;
///
/// let mut g = Gantt::new(40);
/// g.add_row("disk 0", '#', vec![(0, 50), (60, 100)]);
/// g.add_row("disk 1", '#', vec![(25, 75)]);
/// let out = g.render(0, 100, |t| format!("{t} ns"));
/// assert!(out.contains("disk 0"));
/// assert!(out.contains('#'));
/// ```
#[derive(Debug, Clone)]
pub struct Gantt {
    width: usize,
    rows: Vec<Row>,
}

impl Gantt {
    /// Creates a chart with `width` time cells per row.
    ///
    /// # Panics
    ///
    /// Panics if `width < 10`.
    #[must_use]
    pub fn new(width: usize) -> Self {
        assert!(width >= 10, "gantt needs at least 10 columns");
        Gantt {
            width,
            rows: Vec::new(),
        }
    }

    /// Adds a row. Intervals are half-open `[start, end)` in any consistent
    /// time unit; rows render in insertion order.
    pub fn add_row(&mut self, label: impl Into<String>, marker: char, intervals: Vec<(u64, u64)>) {
        self.rows.push(Row {
            label: label.into(),
            intervals,
            marker,
        });
    }

    /// Renders the window `[from, to)`; a cell is marked if any of the
    /// row's intervals overlaps it. `axis` writes the label of each end of
    /// the axis from its time.
    ///
    /// # Panics
    ///
    /// Panics if `from >= to`.
    #[must_use]
    pub fn render(&self, from: u64, to: u64, axis: impl Fn(u64) -> String) -> String {
        assert!(from < to, "empty gantt window");
        let span = to - from;
        let label_w = self
            .rows
            .iter()
            .map(|r| r.label.len())
            .max()
            .unwrap_or(0)
            .max(4);
        let mut out = String::new();
        for row in &self.rows {
            let mut cells = vec![' '; self.width];
            for &(s, e) in &row.intervals {
                if e <= from || s >= to {
                    continue;
                }
                let s = s.max(from) - from;
                let e = (e.min(to)) - from;
                // Cell c covers [c*span/width, (c+1)*span/width).
                let c0 = (s as u128 * self.width as u128 / span as u128) as usize;
                let mut c1 = (e as u128 * self.width as u128).div_ceil(span as u128) as usize;
                c1 = c1.clamp(c0 + 1, self.width);
                for cell in &mut cells[c0..c1] {
                    *cell = row.marker;
                }
            }
            out.push_str(&format!("{:>label_w$} |", row.label));
            out.push_str(&cells.iter().collect::<String>());
            out.push_str("|\n");
        }
        let (lo, hi) = (axis(from), axis(to));
        let w2 = self.width.saturating_sub(hi.chars().count());
        out.push_str(&format!(
            "{:>label_w$} +{}+\n{:>label_w$}  {lo:<w2$}{hi}\n",
            "",
            "-".repeat(self.width),
            "",
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn marks_busy_cells() {
        let mut g = Gantt::new(10);
        g.add_row("d0", '#', vec![(0, 50)]);
        let out = g.render(0, 100, |t| format!("{t} ms"));
        let line = out.lines().next().unwrap();
        assert!(line.contains("#####"));
        assert!(!line.contains("######"), "{line}");
    }

    #[test]
    fn intervals_outside_window_are_dropped() {
        let mut g = Gantt::new(10);
        g.add_row("d0", '#', vec![(200, 300)]);
        let out = g.render(0, 100, |t| format!("{t} ms"));
        assert!(!out.lines().next().unwrap().contains('#'));
    }

    #[test]
    fn tiny_intervals_still_visible() {
        let mut g = Gantt::new(10);
        g.add_row("d0", '#', vec![(50, 51)]);
        let out = g.render(0, 1000, |t| format!("{t} ms"));
        assert!(out.lines().next().unwrap().contains('#'));
    }

    #[test]
    fn clamps_partial_overlap() {
        let mut g = Gantt::new(10);
        g.add_row("d0", '#', vec![(90, 150)]);
        let out = g.render(0, 100, |t| format!("{t} ms"));
        let line = out.lines().next().unwrap();
        // Only the last cell is busy.
        assert!(line.trim_end().ends_with("#|"), "{line}");
    }

    #[test]
    fn rows_align_and_axis_prints() {
        let mut g = Gantt::new(20);
        g.add_row("disk 0", '#', vec![(0, 10)]);
        g.add_row("cpu", '.', vec![(5, 15)]);
        let out = g.render(0, 20, |t| format!("{t} ms"));
        let lines: Vec<&str> = out.lines().collect();
        let bar0 = lines[0].find('|').unwrap();
        let bar1 = lines[1].find('|').unwrap();
        assert_eq!(bar0, bar1);
        assert!(out.contains("0 ms"));
        assert!(out.contains("20 ms"));
    }

    #[test]
    #[should_panic(expected = "empty gantt window")]
    fn empty_window_rejected() {
        let g = Gantt::new(10);
        let _ = g.render(5, 5, |t| format!("{t} ms"));
    }
}
