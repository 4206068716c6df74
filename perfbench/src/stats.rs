//! Small statistics and telemetry helpers shared by the workloads.

use std::collections::BTreeMap;

/// Nearest-rank percentile `p` (0–100) of an ascending-sorted slice; 0.0 for
/// an empty slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let n = sorted.len();
    let rank = ((p / 100.0) * n as f64).ceil() as usize;
    sorted[rank.clamp(1, n) - 1]
}

/// The median of `values` (any order); 0.0 when empty.
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    if sorted.is_empty() {
        return 0.0;
    }
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// The percentiles a timing is reported at, highest first.
const TAIL_LADDER: [f64; 4] = [99.9, 99.0, 90.0, 50.0];

/// The highest percentile of [`TAIL_LADDER`] that has at least ten samples
/// beyond it among `n` samples, or `None` when even the median has fewer. A
/// tail quoted from fewer samples is one or two outliers, not a percentile.
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_LADDER
        .into_iter()
        .find(|&p| n as f64 * (1.0 - p / 100.0) >= 10.0 - 1e-9)
}

/// One timing distribution, summarized the way every workload reports it.
#[derive(Debug, Clone)]
pub struct Summary {
    pub samples: usize,
    pub p50: f64,
    pub p90: f64,
    /// The supported tail (see [`tail_percentile`]) and its value.
    pub tail: Option<(f64, f64)>,
}

impl Summary {
    pub fn of(values: &[f64]) -> Summary {
        let mut sorted = values.to_vec();
        sorted.sort_by(f64::total_cmp);
        Summary {
            samples: sorted.len(),
            p50: percentile(&sorted, 50.0),
            p90: percentile(&sorted, 90.0),
            tail: tail_percentile(sorted.len()).map(|p| (p, percentile(&sorted, p))),
        }
    }

    /// `p50 X, p90 Y, tail pZ W over N samples` for the human-readable log.
    pub fn describe(&self, unit: &str) -> String {
        let tail = match self.tail {
            Some((p, v)) => format!("p{p} {v:.3} {unit}"),
            None => "no percentile has 10 samples beyond it".to_string(),
        };
        format!(
            "p50 {:.3} {unit}, p90 {:.3} {unit}, {tail}, over {} samples",
            self.p50, self.p90, self.samples
        )
    }
}

/// A parsed Prometheus text exposition: `series → value`, where the series
/// keeps its label set (`name{label="v"}`).
pub type Samples = BTreeMap<String, f64>;

/// Parses an exposition (an in-process `ec_obs::render()` or a scraped
/// `GET /metrics` body).
pub fn samples(text: &str) -> Samples {
    ec_bench::parse_metric_samples(text)
}

/// How far the series selected by `matches` moved from `before` to `after`,
/// summed over every matching series (so `ec_x_total` summed across its
/// labels). A series absent before counts from zero.
pub fn delta(before: &Samples, after: &Samples, matches: impl Fn(&str) -> bool) -> f64 {
    after
        .iter()
        .filter(|(series, _)| matches(series))
        .fold(0.0, |sum, (series, value)| {
            sum + value - before.get(series).copied().unwrap_or(0.0)
        })
}

/// [`delta`] of the series whose metric name (the part before any `{`) is
/// exactly `name`.
pub fn delta_of(before: &Samples, after: &Samples, name: &str) -> f64 {
    delta(before, after, |series| {
        series.split('{').next().unwrap_or(series) == name
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let sorted: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&sorted, 50.0), 5.0);
        assert_eq!(percentile(&sorted, 90.0), 9.0);
        assert_eq!(percentile(&sorted, 100.0), 10.0);
        assert_eq!(percentile(&sorted, 0.0), 1.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond_it() {
        assert_eq!(tail_percentile(0), None);
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(99), Some(50.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(999), Some(90.0));
        assert_eq!(tail_percentile(1_000), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
        let summary = Summary::of(&(1..=200).map(f64::from).collect::<Vec<_>>());
        assert_eq!(summary.tail, Some((90.0, 180.0)));
        assert_eq!(summary.p50, 100.0);
    }

    #[test]
    fn metrics_deltas_sum_matching_series_and_count_new_ones_from_zero() {
        let before = samples(
            "# TYPE ec_pool_steals_total counter\nec_pool_steals_total 5\n\
             ec_http_request_seconds_sum{endpoint=\"/apply\",service=\"server\"} 1.5\n\
             ec_http_request_seconds_sum{endpoint=\"/healthz\",service=\"server\"} 0.25\n",
        );
        let after = samples(
            "ec_pool_steals_total 12\n\
             ec_http_request_seconds_sum{endpoint=\"/apply\",service=\"server\"} 4\n\
             ec_http_request_seconds_sum{endpoint=\"/healthz\",service=\"server\"} 0.5\n\
             ec_pivot_budget_exhausted_total 3\n",
        );
        assert_eq!(delta_of(&before, &after, "ec_pool_steals_total"), 7.0);
        assert_eq!(
            delta_of(&before, &after, "ec_pivot_budget_exhausted_total"),
            3.0
        );
        assert_eq!(
            delta_of(&before, &after, "ec_pool_steals"),
            0.0,
            "names match exactly"
        );
        assert_eq!(
            delta_of(&before, &after, "ec_http_request_seconds_sum"),
            2.75
        );
        let apply_only = delta(&before, &after, |s| {
            s.starts_with("ec_http_request_seconds_sum") && s.contains("endpoint=\"/apply\"")
        });
        assert_eq!(apply_only, 2.5);
    }
}
