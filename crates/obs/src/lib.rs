//! Std-only telemetry for the consolidation stack: a process-wide metrics
//! registry with Prometheus text exposition, and a stage-tracing `Span` API.
//!
//! Every perf investigation before this crate existed was archaeology — the
//! pool starvation behind the 2.5 s p99 stalls took a day of ad-hoc probing
//! because nothing in the running system reported where time went. This crate
//! is the instrument panel: the load-bearing stages record wall time into
//! histograms, the pool and caches export counters and gauges, and the server
//! and router render the whole registry at `GET /metrics`.
//!
//! Design constraints, in order:
//!
//! * **Lock-free hot path.** Recording into a [`Counter`], [`Gauge`] or
//!   [`Histogram`] is atomic adds only — a histogram observation is one
//!   bucket `fetch_add` plus one sum `fetch_add` (the count is derived at
//!   scrape time as the sum of the buckets). The registry's mutex is taken
//!   only at registration and at scrape.
//! * **Pay-for-what-you-use tracing.** With tracing off, a [`Span`] costs one
//!   `Instant::now()` pair and the histogram's two atomic adds; the trace
//!   branch is a single relaxed atomic load. With `EC_TRACE=path` (or
//!   `--trace path`) set, each span additionally appends one hand-serialized
//!   JSONL event (start/end/duration/thread/parent) so a whole run can be
//!   reconstructed as a flame-style timeline.
//! * **Observation never alters results.** Nothing here feeds back into
//!   scheduling or data; determinism suites pass bit-identical with tracing
//!   on and off.
//!
//! Everything is std-only: no vendored shims, hand-rolled JSON and
//! Prometheus-text serialization.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

pub mod trace;

/// What a histogram's `u64` observations mean, which controls how bucket
/// bounds and sums are rendered in the exposition (`Seconds` histograms store
/// microseconds internally and render as fractional seconds).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Unit {
    /// Observations are microseconds; rendered as seconds.
    Seconds,
    /// Observations are plain counts; rendered as-is.
    Count,
}

/// Monotonically increasing counter. Cheap to clone (an `Arc` handle).
#[derive(Clone)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    pub fn inc(&self) {
        self.add(1);
    }

    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A value that can go up and down (queue depths, lags). Cheap to clone.
#[derive(Clone)]
pub struct Gauge(Arc<AtomicI64>);

impl Gauge {
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    pub fn add(&self, n: i64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    pub fn sub(&self, n: i64) {
        self.0.fetch_sub(n, Ordering::Relaxed);
    }

    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

struct HistogramInner {
    unit: Unit,
    /// Strictly increasing upper bounds in the histogram's native unit; an
    /// implicit `+Inf` bucket follows the last bound.
    bounds: Vec<u64>,
    /// Per-bucket (non-cumulative) observation counts; `bounds.len() + 1`
    /// entries. Rendered cumulatively, as Prometheus requires.
    buckets: Box<[AtomicU64]>,
    /// Sum of all observed values, native unit.
    sum: AtomicU64,
}

/// Fixed-bucket histogram. Recording is two relaxed `fetch_add`s; quantiles
/// and the total count are derived from the buckets at scrape time.
#[derive(Clone)]
pub struct Histogram(Arc<HistogramInner>);

/// Latency bucket upper bounds in microseconds: 100 µs … 60 s.
pub const LATENCY_BUCKETS_US: &[u64] = &[
    100, 250, 500, 1_000, 2_500, 5_000, 10_000, 25_000, 50_000, 100_000, 250_000, 500_000,
    1_000_000, 2_500_000, 5_000_000, 10_000_000, 30_000_000, 60_000_000,
];

/// Power-of-two-ish bounds for count-valued histograms (search steps, batch
/// sizes). 32768 and 49152 sit below the pivot search's default 50,000-step
/// budget, so searches that came near it and searches that exhausted it
/// (the 65536 bucket) land in different buckets.
pub const COUNT_BUCKETS: &[u64] = &[
    1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 4096, 16384, 32768, 49152, 65536,
];

impl Histogram {
    /// Records one observation in the histogram's native unit. Exactly two
    /// relaxed atomic adds.
    pub fn observe(&self, value: u64) {
        let inner = &self.0;
        let idx = inner.bounds.partition_point(|b| *b < value);
        inner.buckets[idx].fetch_add(1, Ordering::Relaxed);
        inner.sum.fetch_add(value, Ordering::Relaxed);
    }

    /// Records a duration (for `Unit::Seconds` histograms).
    pub fn observe_duration(&self, d: Duration) {
        self.observe(d.as_micros().min(u64::MAX as u128) as u64);
    }

    /// Starts a [`Span`] that records its wall time here on drop and, when
    /// tracing is enabled, appends one JSONL event.
    pub fn start_span(&self, name: &'static str) -> Span<'_> {
        Span {
            hist: self,
            name,
            ctx: trace::begin(),
            start: Instant::now(),
        }
    }

    /// A point-in-time copy of the bucket state.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let inner = &self.0;
        HistogramSnapshot {
            unit: inner.unit,
            bounds: inner.bounds.clone(),
            buckets: inner
                .buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
            sum: inner.sum.load(Ordering::Relaxed),
        }
    }
}

/// A consistent-enough copy of a histogram's buckets for deriving count and
/// quantiles.
pub struct HistogramSnapshot {
    pub unit: Unit,
    pub bounds: Vec<u64>,
    pub buckets: Vec<u64>,
    pub sum: u64,
}

impl HistogramSnapshot {
    /// Total observations (sum of every bucket).
    pub fn count(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// Upper-bound estimate of the `q`-quantile (0.0 ..= 1.0) in the
    /// histogram's native unit: the lowest bucket bound whose cumulative
    /// count reaches `q * count`. Observations in the `+Inf` bucket clamp to
    /// the last finite bound.
    pub fn quantile(&self, q: f64) -> u64 {
        let total = self.count();
        if total == 0 {
            return 0;
        }
        let rank = (q.clamp(0.0, 1.0) * total as f64).ceil().max(1.0) as u64;
        let mut cumulative = 0u64;
        for (i, &count) in self.buckets.iter().enumerate() {
            cumulative += count;
            if cumulative >= rank {
                return self
                    .bounds
                    .get(i)
                    .copied()
                    .unwrap_or_else(|| self.bounds.last().copied().unwrap_or(0));
            }
        }
        self.bounds.last().copied().unwrap_or(0)
    }
}

/// An RAII stage timer: created via [`Histogram::start_span`] or the
/// [`span!`] macro, it records its wall time into the histogram on drop.
/// When tracing is enabled it also appends one JSONL event with this span's
/// id, parent id, thread, start offset and duration.
pub struct Span<'a> {
    hist: &'a Histogram,
    name: &'static str,
    ctx: Option<trace::SpanCtx>,
    start: Instant,
}

impl Span<'_> {
    /// Attaches a free-form detail string to the trace event. The closure is
    /// evaluated only when tracing is enabled, so detail formatting is free
    /// on the untraced path.
    pub fn with_detail(mut self, detail: impl FnOnce() -> String) -> Self {
        if let Some(ctx) = &mut self.ctx {
            ctx.detail = Some(detail());
        }
        self
    }
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        let elapsed = self.start.elapsed();
        self.hist.observe_duration(elapsed);
        if let Some(ctx) = self.ctx.take() {
            trace::finish(ctx, self.name, self.start, elapsed);
        }
    }
}

/// Opens a stage span recording into `ec_stage_seconds{stage="..."}`. The
/// histogram handle is resolved once per call site and cached in a static,
/// so the steady-state cost is the span itself. An optional second argument
/// attaches a detail string to the trace event (only evaluated when tracing
/// is on):
///
/// ```ignore
/// let _span = ec_obs::span!("grouping.pivot_search", column);
/// ```
#[macro_export]
macro_rules! span {
    ($stage:expr) => {{
        static HIST: std::sync::OnceLock<$crate::Histogram> = std::sync::OnceLock::new();
        HIST.get_or_init(|| $crate::stage_histogram($stage))
            .start_span($stage)
    }};
    ($stage:expr, $detail:expr) => {{
        static HIST: std::sync::OnceLock<$crate::Histogram> = std::sync::OnceLock::new();
        HIST.get_or_init(|| $crate::stage_histogram($stage))
            .start_span($stage)
            .with_detail(|| ($detail).to_string())
    }};
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Kind {
    Counter,
    Gauge,
    Histogram,
}

impl Kind {
    fn exposition(self) -> &'static str {
        match self {
            Kind::Counter => "counter",
            Kind::Gauge => "gauge",
            Kind::Histogram => "histogram",
        }
    }
}

enum Series {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

struct Family {
    kind: Kind,
    help: String,
    /// Keyed by the rendered inner label list (`stage="x"`, possibly empty);
    /// `BTreeMap` keeps the exposition deterministic.
    series: BTreeMap<String, Series>,
}

/// A named collection of metric families. Most code uses the process-wide
/// [`global`] registry through the free-function conveniences; `Registry` is
/// public mainly so tests can render in isolation.
pub struct Registry {
    families: Mutex<BTreeMap<String, Family>>,
}

impl Default for Registry {
    fn default() -> Self {
        Self::new()
    }
}

/// Renders label pairs as `k="v",k2="v2"` (no braces), escaping values.
fn label_key(labels: &[(&str, &str)]) -> String {
    let mut out = String::new();
    for (i, (k, v)) in labels.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(k);
        out.push_str("=\"");
        for c in v.chars() {
            match c {
                '\\' => out.push_str("\\\\"),
                '"' => out.push_str("\\\""),
                '\n' => out.push_str("\\n"),
                _ => out.push(c),
            }
        }
        out.push('"');
    }
    out
}

/// Formats a native-unit value for exposition: seconds-unit values are
/// microseconds rendered as fractional seconds, counts render as integers.
fn format_value(unit: Unit, value: u64) -> String {
    match unit {
        Unit::Seconds => format!("{}", value as f64 / 1e6),
        Unit::Count => value.to_string(),
    }
}

impl Registry {
    pub fn new() -> Self {
        Registry {
            families: Mutex::new(BTreeMap::new()),
        }
    }

    fn family_series<F: FnOnce() -> Series>(
        &self,
        name: &str,
        help: &str,
        kind: Kind,
        labels: &[(&str, &str)],
        create: F,
    ) -> Series {
        let mut families = self.families.lock().unwrap();
        let family = families.entry(name.to_string()).or_insert_with(|| Family {
            kind,
            help: help.to_string(),
            series: BTreeMap::new(),
        });
        assert_eq!(
            family.kind, kind,
            "metric {name} registered twice with different kinds"
        );
        let series = family
            .series
            .entry(label_key(labels))
            .or_insert_with(create);
        match series {
            Series::Counter(c) => Series::Counter(c.clone()),
            Series::Gauge(g) => Series::Gauge(g.clone()),
            Series::Histogram(h) => Series::Histogram(h.clone()),
        }
    }

    /// Registers (or retrieves) an unlabeled counter.
    pub fn counter(&self, name: &str, help: &str) -> Counter {
        self.counter_with(name, help, &[])
    }

    /// Registers (or retrieves) a counter with the given label pairs.
    /// Registration is idempotent: the same (name, labels) always returns a
    /// handle to the same underlying value.
    pub fn counter_with(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Counter {
        match self.family_series(name, help, Kind::Counter, labels, || {
            Series::Counter(Counter(Arc::new(AtomicU64::new(0))))
        }) {
            Series::Counter(c) => c,
            _ => unreachable!(),
        }
    }

    pub fn gauge(&self, name: &str, help: &str) -> Gauge {
        self.gauge_with(name, help, &[])
    }

    pub fn gauge_with(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Gauge {
        match self.family_series(name, help, Kind::Gauge, labels, || {
            Series::Gauge(Gauge(Arc::new(AtomicI64::new(0))))
        }) {
            Series::Gauge(g) => g,
            _ => unreachable!(),
        }
    }

    pub fn histogram(&self, name: &str, help: &str, unit: Unit, bounds: &[u64]) -> Histogram {
        self.histogram_with(name, help, unit, bounds, &[])
    }

    pub fn histogram_with(
        &self,
        name: &str,
        help: &str,
        unit: Unit,
        bounds: &[u64],
        labels: &[(&str, &str)],
    ) -> Histogram {
        debug_assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must be strictly increasing"
        );
        match self.family_series(name, help, Kind::Histogram, labels, || {
            Series::Histogram(Histogram(Arc::new(HistogramInner {
                unit,
                bounds: bounds.to_vec(),
                buckets: (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect(),
                sum: AtomicU64::new(0),
            })))
        }) {
            Series::Histogram(h) => h,
            _ => unreachable!(),
        }
    }

    /// Renders the whole registry in the Prometheus text exposition format
    /// (`# HELP` / `# TYPE` per family, cumulative `_bucket`/`_sum`/`_count`
    /// for histograms). Family and series order is deterministic.
    pub fn render(&self) -> String {
        let families = self.families.lock().unwrap();
        let mut out = String::new();
        for (name, family) in families.iter() {
            out.push_str("# HELP ");
            out.push_str(name);
            out.push(' ');
            out.push_str(&family.help.replace('\\', "\\\\").replace('\n', "\\n"));
            out.push('\n');
            out.push_str("# TYPE ");
            out.push_str(name);
            out.push(' ');
            out.push_str(family.kind.exposition());
            out.push('\n');
            for (labels, series) in family.series.iter() {
                match series {
                    Series::Counter(c) => {
                        push_sample(&mut out, name, "", labels, None, &c.get().to_string());
                    }
                    Series::Gauge(g) => {
                        push_sample(&mut out, name, "", labels, None, &g.get().to_string());
                    }
                    Series::Histogram(h) => {
                        let snap = h.snapshot();
                        let mut cumulative = 0u64;
                        for (i, &count) in snap.buckets.iter().enumerate() {
                            cumulative += count;
                            let le = match snap.bounds.get(i) {
                                Some(&bound) => format_value(snap.unit, bound),
                                None => "+Inf".to_string(),
                            };
                            push_sample(
                                &mut out,
                                name,
                                "_bucket",
                                labels,
                                Some(&le),
                                &cumulative.to_string(),
                            );
                        }
                        push_sample(
                            &mut out,
                            name,
                            "_sum",
                            labels,
                            None,
                            &format_value(snap.unit, snap.sum),
                        );
                        push_sample(
                            &mut out,
                            name,
                            "_count",
                            labels,
                            None,
                            &cumulative.to_string(),
                        );
                    }
                }
            }
        }
        out
    }
}

/// Appends one sample line: `name[suffix]{labels[,le="..."]} value`.
fn push_sample(
    out: &mut String,
    name: &str,
    suffix: &str,
    labels: &str,
    le: Option<&str>,
    value: &str,
) {
    out.push_str(name);
    out.push_str(suffix);
    let has_labels = !labels.is_empty() || le.is_some();
    if has_labels {
        out.push('{');
        out.push_str(labels);
        if let Some(le) = le {
            if !labels.is_empty() {
                out.push(',');
            }
            out.push_str("le=\"");
            out.push_str(le);
            out.push('"');
        }
        out.push('}');
    }
    out.push(' ');
    out.push_str(value);
    out.push('\n');
}

static GLOBAL: OnceLock<Registry> = OnceLock::new();

/// The process-wide registry every instrumented subsystem records into and
/// `GET /metrics` renders.
pub fn global() -> &'static Registry {
    GLOBAL.get_or_init(Registry::new)
}

/// [`Registry::counter`] on the global registry.
pub fn counter(name: &str, help: &str) -> Counter {
    global().counter(name, help)
}

/// [`Registry::counter_with`] on the global registry.
pub fn counter_with(name: &str, help: &str, labels: &[(&str, &str)]) -> Counter {
    global().counter_with(name, help, labels)
}

/// [`Registry::gauge`] on the global registry.
pub fn gauge(name: &str, help: &str) -> Gauge {
    global().gauge(name, help)
}

/// [`Registry::gauge_with`] on the global registry.
pub fn gauge_with(name: &str, help: &str, labels: &[(&str, &str)]) -> Gauge {
    global().gauge_with(name, help, labels)
}

/// [`Registry::histogram`] on the global registry.
pub fn histogram(name: &str, help: &str, unit: Unit, bounds: &[u64]) -> Histogram {
    global().histogram(name, help, unit, bounds)
}

/// [`Registry::histogram_with`] on the global registry.
pub fn histogram_with(
    name: &str,
    help: &str,
    unit: Unit,
    bounds: &[u64],
    labels: &[(&str, &str)],
) -> Histogram {
    global().histogram_with(name, help, unit, bounds, labels)
}

/// The per-stage wall-time histogram the [`span!`] macro records into:
/// `ec_stage_seconds{stage="..."}`.
pub fn stage_histogram(stage: &str) -> Histogram {
    global().histogram_with(
        "ec_stage_seconds",
        "Wall time per instrumented pipeline stage.",
        Unit::Seconds,
        LATENCY_BUCKETS_US,
        &[("stage", stage)],
    )
}

/// Renders the global registry as Prometheus text exposition.
pub fn render() -> String {
    global().render()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges_render_and_are_idempotent() {
        let registry = Registry::new();
        let c = registry.counter("test_total", "A test counter.");
        c.inc();
        c.add(2);
        let again = registry.counter("test_total", "ignored on re-registration");
        again.inc();
        assert_eq!(c.get(), 4, "re-registration returns the same value");
        let g = registry.gauge("test_depth", "A test gauge.");
        g.set(5);
        g.sub(2);
        assert_eq!(g.get(), 3);
        let text = registry.render();
        assert!(text.contains("# TYPE test_total counter"), "{text}");
        assert!(text.contains("test_total 4\n"), "{text}");
        assert!(text.contains("# TYPE test_depth gauge"), "{text}");
        assert!(text.contains("test_depth 3\n"), "{text}");
    }

    #[test]
    fn labeled_series_are_distinct_and_sorted() {
        let registry = Registry::new();
        registry
            .counter_with("labeled_total", "h", &[("endpoint", "/b")])
            .add(2);
        registry
            .counter_with("labeled_total", "h", &[("endpoint", "/a")])
            .add(1);
        let text = registry.render();
        let a = text.find("labeled_total{endpoint=\"/a\"} 1").unwrap();
        let b = text.find("labeled_total{endpoint=\"/b\"} 2").unwrap();
        assert!(a < b, "series render in sorted label order:\n{text}");
    }

    #[test]
    fn histogram_buckets_are_cumulative_and_count_matches() {
        let registry = Registry::new();
        let h = registry.histogram("lat_seconds", "h", Unit::Seconds, &[1_000, 10_000, 100_000]);
        h.observe(500); // le 0.001
        h.observe(1_000); // le 0.001 (inclusive upper bound)
        h.observe(5_000); // le 0.01
        h.observe(2_000_000); // +Inf
        let snap = h.snapshot();
        assert_eq!(snap.count(), 4);
        assert_eq!(snap.buckets, vec![2, 1, 0, 1]);
        let text = registry.render();
        assert!(
            text.contains("lat_seconds_bucket{le=\"0.001\"} 2"),
            "{text}"
        );
        assert!(text.contains("lat_seconds_bucket{le=\"0.01\"} 3"), "{text}");
        assert!(text.contains("lat_seconds_bucket{le=\"0.1\"} 3"), "{text}");
        assert!(text.contains("lat_seconds_bucket{le=\"+Inf\"} 4"), "{text}");
        assert!(text.contains("lat_seconds_count 4"), "{text}");
        // 500 + 1000 + 5000 + 2_000_000 µs = 2.0065 s
        assert!(text.contains("lat_seconds_sum 2.0065"), "{text}");
    }

    #[test]
    fn quantiles_come_from_bucket_bounds() {
        let registry = Registry::new();
        let h = registry.histogram("q", "h", Unit::Count, &[1, 2, 4, 8]);
        for v in [1, 1, 2, 3, 8] {
            h.observe(v);
        }
        let snap = h.snapshot();
        assert_eq!(snap.quantile(0.5), 2, "3rd of 5 lands in the le=2 bucket");
        assert_eq!(snap.quantile(1.0), 8);
        assert_eq!(snap.quantile(0.0), 1, "clamps to the first bucket");
    }

    #[test]
    fn spans_record_wall_time() {
        let registry = Registry::new();
        let h = registry.histogram("span_seconds", "h", Unit::Seconds, LATENCY_BUCKETS_US);
        {
            let _span = h.start_span("test.stage");
        }
        assert_eq!(h.snapshot().count(), 1);
    }

    #[test]
    fn label_values_are_escaped() {
        let registry = Registry::new();
        registry
            .counter_with("esc_total", "h", &[("v", "a\"b\\c")])
            .inc();
        let text = registry.render();
        assert!(text.contains("esc_total{v=\"a\\\"b\\\\c\"} 1"), "{text}");
    }
}
