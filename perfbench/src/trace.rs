//! The benchmark's own tracer: spans around the benchmark's calls into each
//! crate's public functions, kept in memory and dumped as JSONL at exit.
//!
//! A span is named `layer.operation`; its layer is the part before the first
//! dot. Spans nest (one thread, strictly), and a span's *self time* is its
//! duration minus the durations of its direct children, so every traced
//! microsecond is counted exactly once. The root span of a traced pass
//! belongs to the `bench` layer: its self time is the wall time no named
//! layer accounts for (`unattributed_s`).

use std::collections::BTreeMap;
use std::io::Write;
use std::time::{Duration, Instant};

/// The layer of the root span; its self time is unattributed.
const ROOT_LAYER: &str = "bench";

#[derive(Debug, Clone)]
pub struct SpanRecord {
    pub name: &'static str,
    pub parent: Option<usize>,
    pub start: Duration,
    pub end: Duration,
}

impl SpanRecord {
    pub fn secs(&self) -> f64 {
        (self.end - self.start).as_secs_f64()
    }

    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// Records spans when enabled; when disabled, [`Tracer::span`] is a plain
/// call, so the untraced pass runs exactly the same code minus the clock
/// reads.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<SpanRecord>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Runs `f` inside a span named `name` (nested under the innermost open
    /// span).
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let index = self.spans.len();
        self.spans.push(SpanRecord {
            name,
            parent: self.open.last().copied(),
            start: self.origin.elapsed(),
            end: Duration::ZERO,
        });
        self.open.push(index);
        let out = f(self);
        self.open.pop();
        self.spans[index].end = self.origin.elapsed();
        out
    }

    /// Self time of every span, indexed like [`Tracer::spans`].
    pub fn self_times(&self) -> Vec<f64> {
        let mut own: Vec<f64> = self.spans.iter().map(SpanRecord::secs).collect();
        for span in &self.spans {
            if let Some(parent) = span.parent {
                own[parent] -= span.secs();
            }
        }
        own
    }

    /// Total self time per span name.
    pub fn self_by_name(&self) -> BTreeMap<&'static str, f64> {
        let mut out = BTreeMap::new();
        for (span, own) in self.spans.iter().zip(self.self_times()) {
            *out.entry(span.name).or_insert(0.0) += own;
        }
        out
    }

    /// Total self time per layer.
    pub fn self_by_layer(&self) -> BTreeMap<&'static str, f64> {
        let mut out = BTreeMap::new();
        for (span, own) in self.spans.iter().zip(self.self_times()) {
            *out.entry(span.layer()).or_insert(0.0) += own;
        }
        out
    }

    /// Durations of every span called `name`, in call order.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(SpanRecord::secs)
            .collect()
    }

    /// Wall time of the root spans (those without a parent).
    pub fn wall(&self) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.parent.is_none())
            .map(SpanRecord::secs)
            .sum()
    }

    /// Self time of the root layer: traced wall time no named layer covers.
    pub fn unattributed(&self) -> f64 {
        self.self_by_layer().get(ROOT_LAYER).copied().unwrap_or(0.0)
    }

    /// The named layers, largest self time first.
    pub fn layer_order(&self) -> Vec<&'static str> {
        let mut layers: Vec<(&'static str, f64)> = self
            .self_by_layer()
            .into_iter()
            .filter(|(layer, _)| *layer != ROOT_LAYER)
            .collect();
        layers.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(b.0)));
        layers.into_iter().map(|(layer, _)| layer).collect()
    }

    /// Writes every span as one JSON line (`name`, `id`, `parent`, start and
    /// duration in microseconds).
    pub fn dump(&self, out: &mut impl Write) -> std::io::Result<()> {
        for (id, span) in self.spans.iter().enumerate() {
            let parent = span
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"name\":\"{}\",\"id\":{id},\"parent\":{parent},\"start_us\":{},\"dur_us\":{}}}",
                span.name,
                span.start.as_micros(),
                (span.end - span.start).as_micros()
            )?;
        }
        out.flush()
    }
}

/// Whether the layers that hold at least `share` of the traced time keep the
/// same order on a second input: the ordering claim a per-layer breakdown
/// makes.
pub fn same_leading_order(first: &Tracer, second: &Tracer, share: f64) -> bool {
    let leading = |tracer: &Tracer| -> Vec<&'static str> {
        let by_layer = tracer.self_by_layer();
        let wall = tracer.wall().max(1e-12);
        tracer
            .layer_order()
            .into_iter()
            .filter(|layer| by_layer[layer] / wall >= share)
            .collect()
    };
    leading(first) == leading(second)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn busy(ms: u64) {
        let start = Instant::now();
        while start.elapsed() < Duration::from_millis(ms) {
            std::hint::black_box(0u64);
        }
    }

    #[test]
    fn self_times_subtract_children_and_sum_to_the_wall() {
        let mut tracer = Tracer::new(true);
        tracer.span("bench.root", |t| {
            busy(2);
            t.span("grouping.next_group", |t| {
                busy(6);
                t.span("core.review", |_| busy(3));
            });
            t.span("truth.discover", |_| busy(2));
        });
        let own = tracer.self_by_name();
        let total: f64 = own.values().sum();
        assert!(
            (total - tracer.wall()).abs() < 1e-9,
            "self times partition the wall"
        );
        assert!(own["grouping.next_group"] >= 0.006 && own["grouping.next_group"] < 0.009);
        assert!(own["core.review"] >= 0.003);
        assert!(tracer.unattributed() >= 0.002);
        assert_eq!(tracer.layer_order()[0], "grouping");
        assert_eq!(tracer.spans[1].parent, Some(0));
        assert_eq!(tracer.spans[2].parent, Some(1));

        let mut dumped = Vec::new();
        tracer.dump(&mut dumped).unwrap();
        let text = String::from_utf8(dumped).unwrap();
        assert_eq!(text.lines().count(), 4);
        assert!(text.starts_with("{\"name\":\"bench.root\",\"id\":0,\"parent\":null,"));
    }

    #[test]
    fn a_disabled_tracer_records_nothing_but_still_runs_the_work() {
        let mut tracer = Tracer::new(false);
        let out = tracer.span("bench.root", |t| t.span("core.review", |_| 7));
        assert_eq!(out, 7);
        assert!(tracer.spans.is_empty());
        assert_eq!(tracer.wall(), 0.0);
    }

    #[test]
    fn leading_order_ignores_small_layers() {
        let trace = |small_first: bool| {
            let mut tracer = Tracer::new(true);
            tracer.span("bench.root", |t| {
                t.span("grouping.next_group", |_| busy(20));
                if small_first {
                    t.span("data.write_csv", |_| busy(1));
                    t.span("truth.discover", |_| busy(0));
                } else {
                    t.span("truth.discover", |_| busy(1));
                    t.span("data.write_csv", |_| busy(0));
                }
            });
            tracer
        };
        assert!(same_leading_order(&trace(true), &trace(false), 0.5));
    }
}
