//! What the benchmark reports: the end-to-end metrics every workload prints
//! with tracing off, and the per-layer metrics of the traced run together
//! with the workload that exercises each layer and the end-to-end metric it
//! should move. `BENCHMARK.json` at the repository root lists the same names,
//! units and directions (a test keeps the two in step).

/// An end-to-end metric: `(name, unit, better)`. Every workload reports all
/// of them; `README.md` says what each means on each workload. Median
/// latencies are printed in the log but not bounded: on the reference
/// two-core machine the median `/apply` latency flips between two modes from
/// run to run (quartile spread 0.34 over ten seeds).
pub const END_TO_END: &[(&str, &str, &str)] = &[
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("records_per_s", "1/s", "higher"),
    ("latency_p90_ms", "ms", "lower"),
    ("precision", "ratio", "higher"),
    ("recall", "ratio", "higher"),
];

/// A per-layer metric of the traced run.
pub struct Layer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// The workloads whose traced run measures it; on the others it reads 0,
    /// because that layer does no work there.
    pub workloads: &'static [&'static str],
    /// The end-to-end metric(s) a change in this layer should move.
    pub moves: &'static [&'static str],
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    workloads: &'static [&'static str],
    moves: &'static [&'static str],
) -> Layer {
    Layer {
        name,
        unit,
        better,
        workloads,
        moves,
    }
}

const C: &[&str] = &["consolidate"];
const I: &[&str] = &["ingest"];
const A: &[&str] = &["apply"];
const ALL: &[&str] = &["consolidate", "ingest", "apply"];
const RATE: &[&str] = &["records_per_s"];
const LAT: &[&str] = &["records_per_s", "latency_p90_ms"];
const P90: &[&str] = &["latency_p90_ms"];

pub const PER_LAYER: &[Layer] = &[
    // Accounting of the traced pass itself.
    layer("traced_wall_s", "s", "lower", ALL, RATE),
    layer("unattributed_s", "s", "lower", ALL, RATE),
    layer("tracing_overhead_s", "s", "lower", ALL, RATE),
    layer("layer_order_holds", "count", "higher", ALL, RATE),
    layer("process.cpu_s", "s", "lower", ALL, RATE),
    // consolidate: candidate generation, grouping and the review loop.
    layer("replace.candidates_s", "s", "lower", C, RATE),
    layer("replace.candidates", "count", "lower", C, RATE),
    layer("grouping.partitions", "count", "lower", C, RATE),
    layer("grouping.prepare_s", "s", "lower", C, RATE),
    layer("grouping.next_group_s", "s", "lower", C, RATE),
    layer("grouping.first_group_ms", "ms", "lower", C, P90),
    layer("grouping.pivot_searches", "count", "lower", C, RATE),
    layer(
        "grouping.pivot_steps",
        "count",
        "lower",
        &["consolidate", "ingest"],
        LAT,
    ),
    layer("grouping.pivot_truncated", "count", "lower", C, RATE),
    layer(
        "grouping.truncated_frac",
        "ratio",
        "lower",
        C,
        &["records_per_s", "recall"],
    ),
    layer("core.review_s", "s", "lower", C, RATE),
    layer("core.apply_group_s", "s", "lower", C, RATE),
    layer(
        "truth.discover_s",
        "s",
        "lower",
        &["consolidate", "ingest"],
        LAT,
    ),
    layer("data.write_csv_s", "s", "lower", C, RATE),
    layer("pool.steals", "count", "lower", C, RATE),
    layer(
        "pool.task_queue_s",
        "s",
        "lower",
        &["consolidate", "apply"],
        LAT,
    ),
    // ingest: the write path.
    layer("core.ingest_batch_s", "s", "lower", I, LAT),
    layer("resolution.delta_s", "s", "lower", I, LAT),
    layer("resolution.pairs_scored", "count", "lower", I, LAT),
    layer("replace.cache_hit_frac", "ratio", "higher", I, RATE),
    layer("core.library_hit_frac", "ratio", "higher", I, RATE),
    layer("grouping.replayed_columns", "count", "higher", I, P90),
    layer("data.golden_write_s", "s", "lower", I, LAT),
    // apply: the read path.
    layer("serve.request_s", "s", "lower", A, LAT),
    layer("serve.handler_ms", "ms", "lower", A, LAT),
    layer("library.apply_us_per_record", "us", "lower", A, RATE),
    layer("data.csv_parse_s", "s", "lower", A, RATE),
    layer(
        "library.cells_rewritten",
        "count",
        "higher",
        A,
        &["precision"],
    ),
    layer(
        "library.cells_unchanged",
        "count",
        "higher",
        A,
        &["precision"],
    ),
    layer(
        "library.cells_unmatched",
        "count",
        "lower",
        A,
        &["precision"],
    ),
];

pub const WORKLOADS: &[&str] = &["consolidate", "ingest", "apply"];

pub fn end_to_end_unit(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .find(|(n, _, _)| *n == name)
        .map(|(_, unit, _)| *unit)
        .unwrap_or_else(|| panic!("{name} is not an end-to-end metric"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{parse, Json};

    fn benchmark_json() -> Json {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        parse(&text).expect("BENCHMARK.json parses")
    }

    fn strings(entries: &[Json], key: &str) -> Vec<String> {
        entries
            .iter()
            .map(|e| e.get(key).and_then(Json::as_str).unwrap().to_string())
            .collect()
    }

    #[test]
    fn benchmark_json_lists_exactly_the_reported_metrics() {
        let spec = benchmark_json();
        let e2e = spec.get("end_to_end").and_then(Json::as_array).unwrap();
        let names = strings(e2e, "name");
        let expected: Vec<String> = END_TO_END.iter().map(|(n, _, _)| n.to_string()).collect();
        assert_eq!(names, expected);
        for (entry, (name, unit, better)) in e2e.iter().zip(END_TO_END) {
            assert_eq!(
                entry.get("unit").and_then(Json::as_str),
                Some(*unit),
                "{name}"
            );
            assert_eq!(
                entry.get("better").and_then(Json::as_str),
                Some(*better),
                "{name}"
            );
            let bound = entry.get("bound").and_then(Json::as_f64).unwrap();
            assert!(bound > 0.0 && bound <= 0.25, "{name} bound {bound}");
        }
        let setup = e2e
            .iter()
            .find(|e| e.get("name").and_then(Json::as_str) == Some("setup_s"));
        let setup_bound = setup
            .and_then(|e| e.get("bound"))
            .and_then(Json::as_f64)
            .unwrap();
        assert!(
            e2e.iter()
                .all(|e| e.get("bound").and_then(Json::as_f64).unwrap() <= setup_bound),
            "setup_s carries the largest bound"
        );

        let layers = spec.get("per_layer").and_then(Json::as_array).unwrap();
        assert_eq!(
            strings(layers, "name"),
            PER_LAYER
                .iter()
                .map(|l| l.name.to_string())
                .collect::<Vec<_>>()
        );
        for (entry, layer) in layers.iter().zip(PER_LAYER) {
            assert_eq!(entry.get("unit").and_then(Json::as_str), Some(layer.unit));
            assert_eq!(
                entry.get("better").and_then(Json::as_str),
                Some(layer.better)
            );
        }

        let workloads = spec.get("workloads").and_then(Json::as_array).unwrap();
        assert_eq!(strings(workloads, "name"), WORKLOADS);
    }

    #[test]
    fn every_metric_has_a_unit_and_a_direction_and_every_layer_a_target() {
        let directions = ["lower", "higher"];
        for (name, unit, better) in END_TO_END {
            assert!(!unit.is_empty(), "{name}");
            assert!(directions.contains(better), "{name}");
        }
        let mut seen = std::collections::HashSet::new();
        for layer in PER_LAYER {
            assert!(seen.insert(layer.name), "{} listed twice", layer.name);
            assert!(!layer.unit.is_empty(), "{}", layer.name);
            assert!(directions.contains(&layer.better), "{}", layer.name);
            assert!(!layer.workloads.is_empty(), "{}", layer.name);
            assert!(
                layer.workloads.iter().all(|w| WORKLOADS.contains(w)),
                "{} names an unknown workload",
                layer.name
            );
            assert!(!layer.moves.is_empty(), "{}", layer.name);
            for target in layer.moves {
                assert!(
                    END_TO_END.iter().any(|(n, _, _)| n == target),
                    "{} moves unknown end-to-end metric {target}",
                    layer.name
                );
            }
        }
    }
}
