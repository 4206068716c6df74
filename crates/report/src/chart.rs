//! ASCII line charts.
//!
//! The experiment binaries print their curves directly to the terminal; an
//! eyeball-able chart is enough to compare the *shape* of
//! the reproduced figures against the paper (who wins, by how much, where the
//! curves flatten). Rendering is deterministic: the same figure always
//! produces the same characters.

use crate::Figure;

/// Rendering options for [`ascii_chart`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChartConfig {
    /// Width of the plot area in characters (excluding the y-axis gutter).
    pub width: usize,
    /// Height of the plot area in rows.
    pub height: usize,
    /// Force the y axis to start at zero even when all values are larger.
    pub y_from_zero: bool,
    /// Fixed upper bound of the y axis, e.g. `Some(1.0)` for metric plots.
    pub y_max: Option<f64>,
    /// Use a logarithmic y axis (for runtime plots spanning orders of
    /// magnitude, like the paper's Figure 9).
    pub log_y: bool,
}

impl Default for ChartConfig {
    fn default() -> Self {
        ChartConfig {
            width: 60,
            height: 16,
            y_from_zero: true,
            y_max: None,
            log_y: false,
        }
    }
}

impl ChartConfig {
    /// A config suited to precision/recall/MCC curves: y fixed to `[0, 1]`.
    pub fn metric() -> Self {
        ChartConfig {
            y_from_zero: true,
            y_max: Some(1.0),
            ..ChartConfig::default()
        }
    }

    /// A config suited to runtime curves: log-scale y axis.
    pub fn runtime() -> Self {
        ChartConfig {
            y_from_zero: false,
            log_y: true,
            ..ChartConfig::default()
        }
    }
}

/// The marker characters assigned to the first few series, in order.
const MARKERS: [char; 6] = ['*', '+', 'o', 'x', '#', '@'];

/// Renders a figure as a multi-line ASCII chart.
///
/// Each series gets a marker character (`*`, `+`, `o`, …) shown in the legend.
/// When two series occupy the same cell, the earlier series wins, which keeps
/// the chart readable when curves coincide. Empty figures render as a title
/// plus a note.
pub fn ascii_chart(figure: &Figure, config: &ChartConfig) -> String {
    let mut out = String::new();
    out.push_str(&figure.title);
    out.push('\n');

    let Some((x_min, x_max)) = figure.x_range() else {
        out.push_str("  (no data)\n");
        return out;
    };
    let (mut y_min, mut y_max) = figure.y_range().unwrap_or((0.0, 1.0));
    if config.y_from_zero && !config.log_y {
        y_min = y_min.min(0.0);
    }
    if let Some(forced) = config.y_max {
        y_max = y_max.max(forced);
    }
    if config.log_y {
        // Clamp to positive values for the log scale.
        y_min = y_min.max(1e-9);
        y_max = y_max.max(y_min * 10.0);
    }
    if (y_max - y_min).abs() < f64::EPSILON {
        y_max = y_min + 1.0;
    }
    let x_span = if (x_max - x_min).abs() < f64::EPSILON {
        1.0
    } else {
        x_max - x_min
    };

    let width = config.width.max(10);
    let height = config.height.max(4);
    let mut grid = vec![vec![' '; width]; height];

    let y_pos = |y: f64| -> Option<usize> {
        let v = if config.log_y {
            if y <= 0.0 {
                return None;
            }
            (y.ln() - y_min.ln()) / (y_max.ln() - y_min.ln())
        } else {
            (y - y_min) / (y_max - y_min)
        };
        let v = v.clamp(0.0, 1.0);
        let row = ((1.0 - v) * (height - 1) as f64).round() as usize;
        Some(row.min(height - 1))
    };
    let x_pos = |x: f64| -> usize {
        let v = ((x - x_min) / x_span).clamp(0.0, 1.0);
        ((v * (width - 1) as f64).round() as usize).min(width - 1)
    };

    // Later series drawn first so that earlier (more important) series
    // overwrite them and stay visible.
    for (idx, series) in figure.series.iter().enumerate().rev() {
        let marker = MARKERS[idx % MARKERS.len()];
        // Connect consecutive points with interpolated cells so sparse
        // checkpoints still read as a curve.
        let mut pts: Vec<(f64, f64)> = series.points.clone();
        pts.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap_or(std::cmp::Ordering::Equal));
        for w in pts.windows(2) {
            let (x0, y0) = w[0];
            let (x1, y1) = w[1];
            let c0 = x_pos(x0);
            let c1 = x_pos(x1);
            let steps = c1.saturating_sub(c0).max(1);
            for s in 0..=steps {
                let t = s as f64 / steps as f64;
                let x = x0 + t * (x1 - x0);
                let y = y0 + t * (y1 - y0);
                if let Some(row) = y_pos(y) {
                    grid[row][x_pos(x)] = marker;
                }
            }
        }
        for &(x, y) in &pts {
            if let Some(row) = y_pos(y) {
                grid[row][x_pos(x)] = marker;
            }
        }
    }

    // Y-axis labels on a handful of rows.
    let label_for_row = |row: usize| -> f64 {
        let v = 1.0 - row as f64 / (height - 1) as f64;
        if config.log_y {
            (y_min.ln() + v * (y_max.ln() - y_min.ln())).exp()
        } else {
            y_min + v * (y_max - y_min)
        }
    };
    for (row, cells) in grid.iter().enumerate() {
        let labelled = row == 0 || row == height - 1 || row == height / 2;
        let gutter = if labelled {
            format!("{:>9.3} |", label_for_row(row))
        } else {
            format!("{:>9} |", "")
        };
        out.push_str(&gutter);
        out.extend(cells.iter());
        out.push('\n');
    }
    out.push_str(&format!("{:>9} +{}\n", "", "-".repeat(width)));
    out.push_str(&format!(
        "{:>9}  {:<width$.0}{:>0}\n",
        "",
        x_min,
        x_max,
        width = width.saturating_sub(x_max.to_string().len()).max(1)
    ));
    out.push_str(&format!(
        "{:>9}  x: {}   y: {}\n",
        "", figure.x_label, figure.y_label
    ));

    // Legend.
    out.push_str(&format!("{:>9}  ", ""));
    for (idx, series) in figure.series.iter().enumerate() {
        if idx > 0 {
            out.push_str("   ");
        }
        out.push(MARKERS[idx % MARKERS.len()]);
        out.push(' ');
        out.push_str(&series.name);
    }
    out.push('\n');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Series;

    fn recall_figure() -> Figure {
        Figure::new(
            "Figure 7(b): recall on Address",
            "# of groups confirmed",
            "recall",
        )
        .with_series(Series::new(
            "Group",
            vec![(0.0, 0.0), (25.0, 0.4), (50.0, 0.6), (100.0, 0.75)],
        ))
        .with_series(Series::new("Single", vec![(0.0, 0.0), (100.0, 0.1)]))
        .with_series(Series::new("Trifacta", vec![(0.0, 0.55), (100.0, 0.55)]))
    }

    #[test]
    fn chart_contains_title_axes_and_legend() {
        let chart = ascii_chart(&recall_figure(), &ChartConfig::metric());
        assert!(chart.contains("Figure 7(b)"));
        assert!(chart.contains("x: # of groups confirmed"));
        assert!(chart.contains("y: recall"));
        assert!(chart.contains("* Group"));
        assert!(chart.contains("+ Single"));
        assert!(chart.contains("o Trifacta"));
    }

    #[test]
    fn chart_is_deterministic() {
        let a = ascii_chart(&recall_figure(), &ChartConfig::metric());
        let b = ascii_chart(&recall_figure(), &ChartConfig::metric());
        assert_eq!(a, b);
    }

    #[test]
    fn chart_has_requested_dimensions() {
        let config = ChartConfig {
            width: 40,
            height: 10,
            ..ChartConfig::metric()
        };
        let chart = ascii_chart(&recall_figure(), &config);
        let plot_rows: Vec<&str> = chart.lines().filter(|l| l.contains('|')).collect();
        assert_eq!(plot_rows.len(), 10);
        for row in plot_rows {
            let after_axis = row.split('|').nth(1).unwrap();
            assert_eq!(after_axis.chars().count(), 40);
        }
    }

    #[test]
    fn higher_values_are_drawn_on_higher_rows() {
        let fig =
            Figure::new("t", "x", "y").with_series(Series::new("s", vec![(0.0, 0.0), (10.0, 1.0)]));
        let chart = ascii_chart(&fig, &ChartConfig::metric());
        let rows: Vec<&str> = chart.lines().filter(|l| l.contains('|')).collect();
        let top_marker = rows.first().unwrap().rfind('*');
        let bottom_marker = rows.last().unwrap().find('*');
        // The maximum (y=1.0) is on the top row at the right, the minimum on
        // the bottom row at the left.
        assert!(top_marker.is_some());
        assert!(bottom_marker.is_some());
        assert!(top_marker.unwrap() > bottom_marker.unwrap());
    }

    #[test]
    fn empty_figure_renders_a_note() {
        let fig = Figure::new("nothing", "x", "y");
        let chart = ascii_chart(&fig, &ChartConfig::default());
        assert!(chart.contains("no data"));
    }

    #[test]
    fn log_scale_accepts_wide_ranges() {
        let fig = Figure::new("Figure 9(a)", "# of groups", "runtime in sec")
            .with_series(Series::new("Incremental", vec![(1.0, 1.6), (200.0, 40.0)]))
            .with_series(Series::new("OneShot", vec![(1.0, 4900.0), (200.0, 4900.0)]))
            .with_series(Series::new(
                "EarlyTerm",
                vec![(1.0, 1800.0), (200.0, 1800.0)],
            ));
        let chart = ascii_chart(&fig, &ChartConfig::runtime());
        assert!(chart.contains("Incremental"));
        // The log axis keeps both extremes on the canvas: the top label is at
        // least the max value and the bottom label at most the min value.
        assert!(chart.contains('*') && chart.contains('+'));
    }

    #[test]
    fn constant_series_does_not_panic() {
        let fig = Figure::new("flat", "x", "y")
            .with_series(Series::new("s", vec![(0.0, 0.5), (10.0, 0.5)]));
        let chart = ascii_chart(&fig, &ChartConfig::default());
        assert!(chart.contains('*'));
    }

    #[test]
    fn single_point_series_renders() {
        let fig = Figure::new("dot", "x", "y").with_series(Series::new("s", vec![(5.0, 0.3)]));
        let chart = ascii_chart(&fig, &ChartConfig::metric());
        assert!(chart.contains('*'));
    }

    #[test]
    fn more_series_than_markers_cycles_markers() {
        let mut fig = Figure::new("many", "x", "y");
        for i in 0..8 {
            fig.push(Series::new(format!("s{i}"), vec![(0.0, i as f64 / 10.0)]));
        }
        let chart = ascii_chart(&fig, &ChartConfig::metric());
        assert!(chart.contains("s7"));
    }

    #[test]
    fn tiny_dimensions_are_clamped() {
        let config = ChartConfig {
            width: 1,
            height: 1,
            ..ChartConfig::default()
        };
        let chart = ascii_chart(&recall_figure(), &config);
        assert!(
            chart.lines().count() >= 4,
            "clamped to a usable minimum size"
        );
    }
}
