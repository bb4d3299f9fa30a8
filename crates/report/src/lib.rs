//! Result rendering for `prefetchmerge` experiments.
//!
//! The experiments in `pm-bench` print the same tables and series
//! the paper reports. This crate supplies the rendering primitives:
//!
//! * [`Table`] — aligned plain-text and GitHub-markdown tables (the
//!   paper-vs-measured tables in `EXPERIMENTS.md` are generated with it).
//! * [`Csv`] — minimal RFC-4180 CSV output for downstream plotting.
//! * [`AsciiPlot`] — multi-series scatter/line rendering in the terminal,
//!   used to eyeball the shape of each reproduced figure.
//! * [`SvgPlot`] — deterministic inline-SVG line charts with error bars,
//!   embedded by the `pm-obs` HTML validation report.
//! * [`Gantt`] — interval rows against a shared time axis, used by
//!   `pm_trace::export::gantt` to draw a recorded trace's disk overlap.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod csv;
mod gantt;
mod plot;
mod svg;
mod table;

pub use csv::Csv;
pub use gantt::Gantt;
pub use plot::AsciiPlot;
pub use svg::SvgPlot;
pub use table::{Align, Table};
