//! Self-contained inline-SVG line charts.
//!
//! The HTML validation report embeds its figures as inline SVG so the
//! document has no external assets. [`SvgPlot`] renders multi-series line
//! charts with optional per-point error bars (confidence-interval
//! half-widths) and horizontal reference lines (analytic bounds). All
//! coordinates are emitted with fixed precision, so the output is
//! byte-deterministic for identical inputs — the golden-snapshot test of
//! the HTML report depends on this.

use std::fmt::Write as _;

/// Fixed series palette (colorblind-safe Okabe–Ito subset).
const PALETTE: [&str; 6] = [
    "#0072b2", "#d55e00", "#009e73", "#cc79a7", "#e69f00", "#56b4e9",
];

#[derive(Debug)]
struct Series {
    label: String,
    points: Vec<(f64, f64)>,
    /// Per-point error half-widths; empty when the series has no bars.
    err: Vec<f64>,
}

/// A multi-series line chart rendered to an SVG string.
///
/// # Examples
///
/// ```
/// use pm_report::SvgPlot;
///
/// let mut plot = SvgPlot::new("total time vs N", "N", "seconds");
/// plot.add_series_with_error(
///     "inter 5 disks",
///     vec![(1.0, 50.0), (10.0, 14.0), (30.0, 12.0)],
///     vec![2.0, 0.5, 0.4],
/// );
/// plot.add_hline("kBT/D", 10.8);
/// let svg = plot.render();
/// assert!(svg.starts_with("<svg"));
/// assert!(svg.contains("polyline"));
/// ```
#[derive(Debug)]
pub struct SvgPlot {
    title: String,
    x_label: String,
    y_label: String,
    width: f64,
    height: f64,
    series: Vec<Series>,
    hlines: Vec<(String, f64)>,
}

impl SvgPlot {
    /// Creates an empty 640×400 chart.
    #[must_use]
    pub fn new(
        title: impl Into<String>,
        x_label: impl Into<String>,
        y_label: impl Into<String>,
    ) -> Self {
        SvgPlot {
            title: title.into(),
            x_label: x_label.into(),
            y_label: y_label.into(),
            width: 640.0,
            height: 400.0,
            series: Vec::new(),
            hlines: Vec::new(),
        }
    }

    /// Adds a line series without error bars.
    pub fn add_series(&mut self, label: impl Into<String>, points: Vec<(f64, f64)>) {
        self.series.push(Series {
            label: label.into(),
            points,
            err: Vec::new(),
        });
    }

    /// Adds a line series with one error half-width per point
    /// (`y ± half_width` bars).
    ///
    /// # Panics
    ///
    /// Panics if `half_widths.len() != points.len()`.
    pub fn add_series_with_error(
        &mut self,
        label: impl Into<String>,
        points: Vec<(f64, f64)>,
        half_widths: Vec<f64>,
    ) {
        assert_eq!(
            points.len(),
            half_widths.len(),
            "one error half-width per point"
        );
        self.series.push(Series {
            label: label.into(),
            points,
            err: half_widths,
        });
    }

    /// Adds a dashed horizontal reference line (e.g. an analytic bound).
    pub fn add_hline(&mut self, label: impl Into<String>, y: f64) {
        self.hlines.push((label.into(), y));
    }

    /// Renders the chart. Charts with no finite data points render an
    /// empty frame with the title.
    #[must_use]
    pub fn render(&self) -> String {
        let (ml, mr, mt, mb) = (58.0, 16.0, 34.0, 46.0);
        let pw = self.width - ml - mr; // plot area width
        let ph = self.height - mt - mb;

        // Data extents: x over series points, y additionally over error
        // bars and reference lines.
        let mut xs: Vec<f64> = Vec::new();
        let mut ys: Vec<f64> = Vec::new();
        for s in &self.series {
            for (i, &(x, y)) in s.points.iter().enumerate() {
                if x.is_finite() && y.is_finite() {
                    xs.push(x);
                    let e = s.err.get(i).copied().unwrap_or(0.0);
                    let e = if e.is_finite() { e } else { 0.0 };
                    ys.push(y - e);
                    ys.push(y + e);
                }
            }
        }
        for &(_, y) in &self.hlines {
            if y.is_finite() {
                ys.push(y);
            }
        }
        let (x0, x1) = padded_range(&xs, 0.0);
        let (y0, y1) = padded_range(&ys, 0.05);
        let sx = move |x: f64| ml + (x - x0) / (x1 - x0) * pw;
        let sy = move |y: f64| mt + ph - (y - y0) / (y1 - y0) * ph;

        let mut out = String::new();
        let _ = writeln!(
            out,
            "<svg xmlns=\"http://www.w3.org/2000/svg\" viewBox=\"0 0 {w} {h}\" \
             width=\"{w}\" height=\"{h}\" font-family=\"sans-serif\" font-size=\"12\">",
            w = fmt(self.width),
            h = fmt(self.height)
        );
        let _ = writeln!(
            out,
            "<rect x=\"0\" y=\"0\" width=\"{}\" height=\"{}\" fill=\"#ffffff\"/>",
            fmt(self.width),
            fmt(self.height)
        );
        let _ = writeln!(
            out,
            "<text x=\"{}\" y=\"20\" text-anchor=\"middle\" font-size=\"14\">{}</text>",
            fmt(self.width / 2.0),
            esc(&self.title)
        );

        // Grid and tick labels.
        for i in 0..=4 {
            let fx = x0 + (x1 - x0) * f64::from(i) / 4.0;
            let fy = y0 + (y1 - y0) * f64::from(i) / 4.0;
            let px = sx(fx);
            let py = sy(fy);
            let _ = write!(
                out,
                "<line x1=\"{x}\" y1=\"{t}\" x2=\"{x}\" y2=\"{b}\" stroke=\"#e5e5e5\"/>\n\
                 <text x=\"{x}\" y=\"{lb}\" text-anchor=\"middle\">{v}</text>\n",
                x = fmt(px),
                t = fmt(mt),
                b = fmt(mt + ph),
                lb = fmt(mt + ph + 16.0),
                v = fmt_tick(fx)
            );
            let _ = write!(
                out,
                "<line x1=\"{l}\" y1=\"{y}\" x2=\"{r}\" y2=\"{y}\" stroke=\"#e5e5e5\"/>\n\
                 <text x=\"{tl}\" y=\"{ty}\" text-anchor=\"end\">{v}</text>\n",
                l = fmt(ml),
                r = fmt(ml + pw),
                y = fmt(py),
                tl = fmt(ml - 6.0),
                ty = fmt(py + 4.0),
                v = fmt_tick(fy)
            );
        }
        // Axes frame and labels.
        let _ = writeln!(
            out,
            "<rect x=\"{}\" y=\"{}\" width=\"{}\" height=\"{}\" fill=\"none\" stroke=\"#333333\"/>",
            fmt(ml),
            fmt(mt),
            fmt(pw),
            fmt(ph)
        );
        let _ = writeln!(
            out,
            "<text x=\"{}\" y=\"{}\" text-anchor=\"middle\">{}</text>",
            fmt(ml + pw / 2.0),
            fmt(self.height - 8.0),
            esc(&self.x_label)
        );
        let _ = writeln!(
            out,
            "<text x=\"14\" y=\"{y}\" text-anchor=\"middle\" transform=\"rotate(-90 14 {y})\">{l}</text>",
            y = fmt(mt + ph / 2.0),
            l = esc(&self.y_label)
        );

        // Reference lines.
        for (label, y) in &self.hlines {
            if !y.is_finite() {
                continue;
            }
            let py = sy(*y);
            let _ = write!(
                out,
                "<line x1=\"{l}\" y1=\"{y}\" x2=\"{r}\" y2=\"{y}\" stroke=\"#888888\" \
                 stroke-dasharray=\"5 4\"/>\n\
                 <text x=\"{r}\" y=\"{ty}\" text-anchor=\"end\" fill=\"#666666\" \
                 font-size=\"11\">{t}</text>\n",
                l = fmt(ml),
                r = fmt(ml + pw),
                y = fmt(py),
                ty = fmt(py - 4.0),
                t = esc(label)
            );
        }

        // Series: error bars under the line, then the polyline, then dots.
        for (si, s) in self.series.iter().enumerate() {
            let color = PALETTE[si % PALETTE.len()];
            let pts: Vec<(f64, f64, f64)> = s
                .points
                .iter()
                .enumerate()
                .filter(|(_, &(x, y))| x.is_finite() && y.is_finite())
                .map(|(i, &(x, y))| (x, y, s.err.get(i).copied().unwrap_or(0.0)))
                .collect();
            for &(x, y, e) in &pts {
                if e > 0.0 && e.is_finite() {
                    let (px, top, bot) = (sx(x), sy(y + e), sy(y - e));
                    let _ = write!(
                        out,
                        "<line x1=\"{x}\" y1=\"{t}\" x2=\"{x}\" y2=\"{b}\" stroke=\"{c}\"/>\n\
                         <line x1=\"{xl}\" y1=\"{t}\" x2=\"{xr}\" y2=\"{t}\" stroke=\"{c}\"/>\n\
                         <line x1=\"{xl}\" y1=\"{b}\" x2=\"{xr}\" y2=\"{b}\" stroke=\"{c}\"/>\n",
                        x = fmt(px),
                        xl = fmt(px - 3.0),
                        xr = fmt(px + 3.0),
                        t = fmt(top),
                        b = fmt(bot),
                        c = color
                    );
                }
            }
            if pts.len() > 1 {
                let joined: Vec<String> = pts
                    .iter()
                    .map(|&(x, y, _)| format!("{},{}", fmt(sx(x)), fmt(sy(y))))
                    .collect();
                let _ = writeln!(
                    out,
                    "<polyline points=\"{}\" fill=\"none\" stroke=\"{}\" stroke-width=\"1.5\"/>",
                    joined.join(" "),
                    color
                );
            }
            for &(x, y, _) in &pts {
                let _ = writeln!(
                    out,
                    "<circle cx=\"{}\" cy=\"{}\" r=\"2.5\" fill=\"{}\"/>",
                    fmt(sx(x)),
                    fmt(sy(y)),
                    color
                );
            }
        }

        // Legend, top-right inside the plot area.
        for (si, s) in self.series.iter().enumerate() {
            let color = PALETTE[si % PALETTE.len()];
            let ly = mt + 14.0 + 16.0 * si as f64;
            let _ = write!(
                out,
                "<line x1=\"{x1}\" y1=\"{y}\" x2=\"{x2}\" y2=\"{y}\" stroke=\"{c}\" \
                 stroke-width=\"2\"/>\n\
                 <text x=\"{tx}\" y=\"{ty}\" text-anchor=\"end\" font-size=\"11\">{l}</text>\n",
                x1 = fmt(ml + pw - 22.0),
                x2 = fmt(ml + pw - 6.0),
                y = fmt(ly),
                c = color,
                tx = fmt(ml + pw - 26.0),
                ty = fmt(ly + 4.0),
                l = esc(&s.label)
            );
        }

        out.push_str("</svg>\n");
        out
    }
}

/// Finite extent of `vals` padded by `frac` on both sides; a safe
/// non-degenerate fallback when empty or collapsed.
fn padded_range(vals: &[f64], frac: f64) -> (f64, f64) {
    let mut lo = f64::INFINITY;
    let mut hi = f64::NEG_INFINITY;
    for &v in vals {
        lo = lo.min(v);
        hi = hi.max(v);
    }
    if !(lo.is_finite() && hi.is_finite()) {
        return (0.0, 1.0);
    }
    if lo == hi {
        let pad = if lo == 0.0 { 1.0 } else { lo.abs() * 0.1 };
        return (lo - pad, hi + pad);
    }
    let pad = (hi - lo) * frac;
    (lo - pad, hi + pad)
}

/// Fixed-precision coordinate formatting (deterministic output).
fn fmt(v: f64) -> String {
    let s = format!("{v:.2}");
    let s = s.trim_end_matches('0').trim_end_matches('.');
    if s.is_empty() || s == "-" {
        "0".to_string()
    } else {
        s.to_string()
    }
}

/// Tick-label formatting: integers render bare, everything else with two
/// decimals.
fn fmt_tick(v: f64) -> String {
    if v.fract() == 0.0 && v.abs() < 1e9 {
        format!("{}", v as i64)
    } else {
        fmt(v)
    }
}

/// Minimal XML text escaping.
fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '&' => out.push_str("&amp;"),
            '<' => out.push_str("&lt;"),
            '>' => out.push_str("&gt;"),
            '"' => out.push_str("&quot;"),
            '\'' => out.push_str("&#39;"),
            _ => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_plot() -> SvgPlot {
        let mut p = SvgPlot::new("t <vs> N", "N", "seconds");
        p.add_series_with_error(
            "inter & intra",
            vec![(1.0, 50.0), (10.0, 14.0), (30.0, 12.0)],
            vec![2.0, 0.5, 0.4],
        );
        p.add_series("plain", vec![(1.0, 60.0), (30.0, 20.0)]);
        p.add_hline("kBT/D", 10.8);
        p
    }

    #[test]
    fn renders_structure() {
        let svg = small_plot().render();
        assert!(svg.starts_with("<svg"));
        assert!(svg.ends_with("</svg>\n"));
        assert_eq!(svg.matches("<polyline").count(), 2);
        // Three error bars: each is 3 line elements.
        assert!(svg.contains("stroke-dasharray"), "reference line missing");
        assert_eq!(svg.matches("<circle").count(), 5);
    }

    #[test]
    fn escapes_labels() {
        let svg = small_plot().render();
        assert!(svg.contains("t &lt;vs&gt; N"));
        assert!(svg.contains("inter &amp; intra"));
        assert!(!svg.contains("<vs>"));
    }

    #[test]
    fn output_is_deterministic() {
        assert_eq!(small_plot().render(), small_plot().render());
    }

    #[test]
    fn degenerate_inputs_render_cleanly() {
        // Empty chart, single point, collapsed range, non-finite values.
        let empty = SvgPlot::new("empty", "x", "y").render();
        assert!(empty.contains("</svg>"));
        let mut single = SvgPlot::new("one", "x", "y");
        single.add_series("s", vec![(5.0, 5.0)]);
        let mut nan = SvgPlot::new("nan", "x", "y");
        nan.add_series("s", vec![(0.0, f64::NAN), (1.0, 2.0), (2.0, 3.0)]);
        for svg in [single.render(), nan.render()] {
            assert!(!svg.contains("NaN"), "{svg}");
            assert!(!svg.contains("inf"), "{svg}");
        }
    }

    #[test]
    fn coordinates_have_fixed_precision() {
        let mut p = SvgPlot::new("p", "x", "y");
        p.add_series("s", vec![(0.123456789, 0.987654321), (1.0, 2.0)]);
        let svg = p.render();
        // No coordinate carries more than two decimals.
        for attr in ["cx=\"", "cy=\""] {
            for part in svg.split(attr).skip(1) {
                let val = part.split('"').next().unwrap();
                if let Some(dot) = val.find('.') {
                    assert!(val.len() - dot - 1 <= 2, "{val}");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "one error half-width per point")]
    fn mismatched_error_lengths_panic() {
        let mut p = SvgPlot::new("p", "x", "y");
        p.add_series_with_error("s", vec![(1.0, 1.0)], vec![0.1, 0.2]);
    }
}
