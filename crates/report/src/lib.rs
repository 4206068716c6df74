//! # ec-report — experiment reporting
//!
//! The paper's evaluation is a handful of figures (metric vs. number of groups
//! confirmed, runtime vs. number of groups) and tables (dataset statistics,
//! golden-record precision). This crate holds the small, dependency-free
//! plumbing the experiment harnesses in `ec-bench` and the `ec` CLI use to
//! present those results:
//!
//! * [`Series`] / [`Figure`] — named `(x, y)` curves grouped into a figure
//!   with axis labels, mirroring the paper's Figures 6–10.
//! * [`ascii_chart`] — renders a figure as a fixed-width ASCII line chart so
//!   results are readable in a terminal.
//! * [`TextTable`] — aligned plain-text and Markdown tables for the paper's
//!   Tables 6 and 8.
//! * [`gnuplot_dat`] / [`csv_export`] — machine-readable exports for anyone
//!   who wants to re-plot the results with external tooling.
//!
//! Everything is deterministic and pure string manipulation; there is no I/O
//! in this crate.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chart;
pub mod export;
pub mod table;

pub use chart::{ascii_chart, ChartConfig};
pub use export::{csv_export, gnuplot_dat};
pub use table::TextTable;

use serde::{Deserialize, Serialize};

/// A named curve: a sequence of `(x, y)` points.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Series {
    /// Legend label of the curve (e.g. `"Group"`, `"Single"`, `"Trifacta"`).
    pub name: String,
    /// The `(x, y)` points, in the order they were recorded.
    pub points: Vec<(f64, f64)>,
}

impl Series {
    /// Creates a series from a name and points.
    pub fn new(name: impl Into<String>, points: Vec<(f64, f64)>) -> Self {
        Series {
            name: name.into(),
            points,
        }
    }

    /// Creates a series from integer x values (the usual "number of groups
    /// confirmed" axis).
    pub fn from_indexed(
        name: impl Into<String>,
        values: impl IntoIterator<Item = (usize, f64)>,
    ) -> Self {
        Series {
            name: name.into(),
            points: values.into_iter().map(|(x, y)| (x as f64, y)).collect(),
        }
    }

    /// The smallest and largest x values, or `None` for an empty series.
    pub fn x_range(&self) -> Option<(f64, f64)> {
        range(self.points.iter().map(|&(x, _)| x))
    }

    /// The smallest and largest y values, or `None` for an empty series.
    pub fn y_range(&self) -> Option<(f64, f64)> {
        range(self.points.iter().map(|&(_, y)| y))
    }

    /// The y value of the last point, if any — handy for "final recall after
    /// the full budget" summaries.
    pub fn final_y(&self) -> Option<f64> {
        self.points.last().map(|&(_, y)| y)
    }

    /// Linear interpolation of y at the given x. Points outside the covered x
    /// range clamp to the first/last y. Returns `None` for an empty series.
    pub fn y_at(&self, x: f64) -> Option<f64> {
        if self.points.is_empty() {
            return None;
        }
        let mut sorted = self.points.clone();
        sorted.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap_or(std::cmp::Ordering::Equal));
        if x <= sorted[0].0 {
            return Some(sorted[0].1);
        }
        if x >= sorted[sorted.len() - 1].0 {
            return Some(sorted[sorted.len() - 1].1);
        }
        for w in sorted.windows(2) {
            let (x0, y0) = w[0];
            let (x1, y1) = w[1];
            if x >= x0 && x <= x1 {
                if (x1 - x0).abs() < f64::EPSILON {
                    return Some(y0);
                }
                let t = (x - x0) / (x1 - x0);
                return Some(y0 + t * (y1 - y0));
            }
        }
        None
    }
}

/// A figure: one or more series sharing an x and y axis.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Figure {
    /// Figure title (e.g. `"Figure 7(b): recall on Address"`).
    pub title: String,
    /// Label of the x axis.
    pub x_label: String,
    /// Label of the y axis.
    pub y_label: String,
    /// The curves of the figure.
    pub series: Vec<Series>,
}

impl Figure {
    /// Creates an empty figure.
    pub fn new(
        title: impl Into<String>,
        x_label: impl Into<String>,
        y_label: impl Into<String>,
    ) -> Self {
        Figure {
            title: title.into(),
            x_label: x_label.into(),
            y_label: y_label.into(),
            series: Vec::new(),
        }
    }

    /// Adds a series and returns the figure (builder style).
    pub fn with_series(mut self, series: Series) -> Self {
        self.series.push(series);
        self
    }

    /// Adds a series in place.
    pub fn push(&mut self, series: Series) {
        self.series.push(series);
    }

    /// The combined x range over all series.
    pub fn x_range(&self) -> Option<(f64, f64)> {
        range(
            self.series
                .iter()
                .flat_map(|s| s.points.iter().map(|&(x, _)| x)),
        )
    }

    /// The combined y range over all series.
    pub fn y_range(&self) -> Option<(f64, f64)> {
        range(
            self.series
                .iter()
                .flat_map(|s| s.points.iter().map(|&(_, y)| y)),
        )
    }

    /// Total number of points across all series.
    pub fn num_points(&self) -> usize {
        self.series.iter().map(|s| s.points.len()).sum()
    }
}

fn range(values: impl Iterator<Item = f64>) -> Option<(f64, f64)> {
    let mut min = f64::INFINITY;
    let mut max = f64::NEG_INFINITY;
    let mut any = false;
    for v in values {
        if v.is_nan() {
            continue;
        }
        any = true;
        min = min.min(v);
        max = max.max(v);
    }
    if any {
        Some((min, max))
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn series_ranges_and_final_value() {
        let s = Series::new("recall", vec![(0.0, 0.0), (50.0, 0.4), (100.0, 0.75)]);
        assert_eq!(s.x_range(), Some((0.0, 100.0)));
        assert_eq!(s.y_range(), Some((0.0, 0.75)));
        assert_eq!(s.final_y(), Some(0.75));
    }

    #[test]
    fn empty_series_has_no_range() {
        let s = Series::new("empty", vec![]);
        assert_eq!(s.x_range(), None);
        assert_eq!(s.y_range(), None);
        assert_eq!(s.final_y(), None);
        assert_eq!(s.y_at(1.0), None);
    }

    #[test]
    fn from_indexed_converts_budgets() {
        let s = Series::from_indexed("mcc", [(0usize, 0.0), (10, 0.5)]);
        assert_eq!(s.points, vec![(0.0, 0.0), (10.0, 0.5)]);
    }

    #[test]
    fn interpolation_is_linear_and_clamped() {
        let s = Series::new("r", vec![(0.0, 0.0), (100.0, 1.0)]);
        assert!((s.y_at(50.0).unwrap() - 0.5).abs() < 1e-9);
        assert_eq!(s.y_at(-10.0), Some(0.0));
        assert_eq!(s.y_at(200.0), Some(1.0));
        // Unsorted input is handled.
        let s = Series::new("r", vec![(100.0, 1.0), (0.0, 0.0)]);
        assert!((s.y_at(25.0).unwrap() - 0.25).abs() < 1e-9);
    }

    #[test]
    fn interpolation_with_duplicate_x_does_not_divide_by_zero() {
        let s = Series::new("r", vec![(1.0, 0.2), (1.0, 0.8)]);
        assert!(s.y_at(1.0).is_some());
    }

    #[test]
    fn figure_aggregates_ranges_over_series() {
        let fig = Figure::new("Figure 7(b)", "# of groups confirmed", "recall")
            .with_series(Series::new("Group", vec![(0.0, 0.0), (100.0, 0.75)]))
            .with_series(Series::new("Single", vec![(0.0, 0.0), (100.0, 0.1)]))
            .with_series(Series::new("Trifacta", vec![(0.0, 0.55), (100.0, 0.55)]));
        assert_eq!(fig.series.len(), 3);
        assert_eq!(fig.x_range(), Some((0.0, 100.0)));
        assert_eq!(fig.y_range(), Some((0.0, 0.75)));
        assert_eq!(fig.num_points(), 6);
    }

    #[test]
    fn nan_points_are_ignored_for_ranges() {
        let s = Series::new("noisy", vec![(0.0, f64::NAN), (1.0, 2.0)]);
        assert_eq!(s.y_range(), Some((2.0, 2.0)));
        assert_eq!(s.x_range(), Some((0.0, 1.0)));
    }

    #[test]
    fn empty_figure_has_no_range() {
        let fig = Figure::new("empty", "x", "y");
        assert_eq!(fig.x_range(), None);
        assert_eq!(fig.y_range(), None);
        assert_eq!(fig.num_points(), 0);
    }
}
