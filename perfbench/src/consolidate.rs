//! `consolidate`: what `ec consolidate --budget 50` does to a clustered
//! address CSV with ground truth — the simulated expert reviews up to 50
//! groups per column, then truth discovery writes the golden CSV.
//!
//! The input is a fixed ladder of three generated 20-cluster address
//! datasets; each run consolidates whole passes over it, every pass in an
//! order drawn from the seed, for as many passes as fit in `--seconds`.
//! Pivot search dominates this workload, and its cost swings by ±30% from
//! one generated dataset to the next — and between row orders of the same
//! dataset — depending on how many searches hit the step cap. Inputs drawn
//! from the seed would make the spread between seeds wider than any useful
//! regression bound, so the seed only orders the fixed ladder.
//!
//! The measured path is the per-column call `standardize_columns` makes
//! (`Pipeline::standardize_column_traced` with the simulated expert seeded
//! `7 + column`), with the expert wrapped to time how long the human waits
//! for each question. The traced run re-does the first dataset through the
//! benchmark's own copy of that loop with a span around every call, and
//! checks that it and `standardize_columns` itself write byte-identical
//! golden CSVs.

use crate::stats::{self, median, Summary};
use crate::trace::{same_leading_order, Tracer};
use crate::{sys, Args, Report};
use ec_core::{
    standardize_columns, write_golden_records_csv, AutoMode, ConsolidationConfig, Oracle, Pipeline,
    SimulatedOracle, TruthMethod, Verdict,
};
use ec_data::{ClusteredCsvReader, Dataset, GeneratorConfig, LabeledPair, PaperDataset};
use ec_grouping::{partition_replacements, PreparedGraphs, StructuredGrouper};
use ec_metrics::{evaluate_standardization, ConfusionCounts};
use ec_replace::ReplacementEngine;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::time::Instant;

const CLUSTERS: usize = 20;
const BUDGET: usize = 50;
/// Generator seeds of the ladder. Seed 30 is the 107-record input whose
/// trace shows pivot search dominating; the other two have typical cost.
const LADDER: [u64; 3] = [30, 14, 18];
/// A 3-cluster input consolidated once before set-up to start the pool.
const WARM_UP_SEED: u64 = 1;
const SETUP_REPEATS: usize = 21;
/// Labelled pairs drawn per dataset for standardization precision/recall
/// (more than a 20-cluster dataset has, so every pair is used).
const SAMPLE_PAIRS: usize = 5_000;

/// One generated input, read back through the clustered-CSV parser exactly
/// as `ec consolidate --input` reads it.
struct Input {
    dataset: Dataset,
    has_truth: bool,
    sample: Vec<LabeledPair>,
}

fn input(seed: u64, clusters: usize) -> Input {
    let generated = PaperDataset::Address.generate(&GeneratorConfig {
        num_clusters: clusters,
        seed,
        ..PaperDataset::Address.default_config()
    });
    let csv = ec_data::dataset_to_csv(&generated);
    let reader = ClusteredCsvReader::new(csv.as_bytes()).expect("generated CSV has a header");
    let has_truth = reader.has_truth_columns();
    let dataset = reader
        .into_dataset("consolidate")
        .expect("generated CSV parses");
    let sample = dataset.sample_labeled_pairs(0, SAMPLE_PAIRS, &mut StdRng::seed_from_u64(seed));
    Input {
        dataset,
        has_truth,
        sample,
    }
}

fn pipeline() -> Pipeline {
    Pipeline::new(
        ConsolidationConfig {
            budget: BUDGET,
            ..ConsolidationConfig::default()
        }
        .with_threads(0),
    )
}

fn golden_csv(pipeline: &Pipeline, dataset: &Dataset) -> (Vec<Vec<Option<String>>>, Vec<u8>) {
    let golden = pipeline.discover_golden_records(dataset, TruthMethod::MajorityConsensus);
    let mut csv = Vec::new();
    write_golden_records_csv(&dataset.columns, &golden, &mut csv).expect("in-memory write");
    (golden, csv)
}

/// The simulated expert, timing how long each question took to arrive since
/// the previous answer (or since the column started).
struct TimedOracle<'a> {
    inner: SimulatedOracle,
    since: Instant,
    waits_ms: &'a mut Vec<f64>,
}

impl Oracle for TimedOracle<'_> {
    fn review(&mut self, group: &ec_core::Group) -> Verdict {
        self.waits_ms.push(self.since.elapsed().as_secs_f64() * 1e3);
        let verdict = self.inner.review(group);
        self.since = Instant::now();
        verdict
    }
}

/// The outcome of consolidating one dataset.
struct Consolidated {
    secs: f64,
    dataset: Dataset,
    golden: Vec<Vec<Option<String>>>,
    csv: Vec<u8>,
}

/// The measured path: per column, the call `standardize_columns` makes.
fn consolidate(pipeline: &Pipeline, input: &Input, waits_ms: &mut Vec<f64>) -> Consolidated {
    let mut dataset = input.dataset.clone();
    let start = Instant::now();
    for col in 0..dataset.columns.len() {
        let mut oracle = TimedOracle {
            inner: SimulatedOracle::for_column(&dataset, col, 7 + col as u64),
            since: Instant::now(),
            waits_ms: &mut *waits_ms,
        };
        pipeline.standardize_column_traced(&mut dataset, col, &mut oracle);
    }
    let (golden, csv) = golden_csv(pipeline, &dataset);
    Consolidated {
        secs: start.elapsed().as_secs_f64(),
        dataset,
        golden,
        csv,
    }
}

/// The benchmark's own copy of the `standardize_column_traced` loop with a
/// span around each call into a crate; returns the golden CSV.
fn consolidate_traced(tracer: &mut Tracer, pipeline: &Pipeline, input: &Input) -> Vec<u8> {
    let config = pipeline.config();
    let mut dataset = input.dataset.clone();
    tracer.span("bench.consolidate", |t| {
        for col in 0..dataset.columns.len() {
            let mut oracle = t.span("core.oracle", |_| {
                SimulatedOracle::for_column(&dataset, col, 7 + col as u64)
            });
            let values = t.span("data.column_values", |_| dataset.column_values(col));
            let (mut engine, candidates) = t.span("replace.candidates", |_| {
                let engine = ReplacementEngine::new(values, &config.candidates);
                let candidates = engine.candidates();
                (engine, candidates)
            });
            let mut grouper = t.span("grouping.partition", |_| {
                StructuredGrouper::new(&candidates, config.grouping.clone())
            });
            let mut reviewed = 0;
            while reviewed < config.budget {
                let Some(group) = t.span("grouping.next_group", |_| grouper.next_group()) else {
                    break;
                };
                reviewed += 1;
                if let Verdict::Approve(direction) =
                    t.span("core.review", |_| oracle.review(&group))
                {
                    t.span("core.apply_group", |_| {
                        engine.apply_group(group.members(), direction)
                    });
                }
            }
            t.span("data.set_column", |_| {
                dataset.set_column_values(col, engine.into_values())
            });
        }
        let golden = t.span("truth.discover", |_| {
            pipeline.discover_golden_records(&dataset, TruthMethod::MajorityConsensus)
        });
        t.span("data.write_csv", |_| {
            let mut csv = Vec::new();
            write_golden_records_csv(&dataset.columns, &golden, &mut csv).expect("in-memory write");
            csv
        })
    })
}

/// Golden precision counts `(correct, clusters)` on column 0 against the
/// generator's truth (Table 8).
fn golden_hits(dataset: &Dataset, golden: &[Vec<Option<String>>]) -> (usize, usize) {
    let correct = dataset
        .clusters
        .iter()
        .zip(golden)
        .filter(|(cluster, g)| g[0].as_deref() == Some(cluster.golden[0].as_str()))
        .count();
    (correct, dataset.clusters.len())
}

pub fn run(args: &Args) -> Report {
    let mut report = Report::default();
    let pipeline = pipeline();

    // Set-up: generate the ladder and parse it back, several times over.
    // Then a tiny consolidation starts the shared worker pool, so the first
    // measured question does not pay for it.
    let mut setups = Vec::new();
    let mut ladder = Vec::new();
    for _ in 0..SETUP_REPEATS {
        let start = Instant::now();
        ladder = LADDER.iter().map(|&seed| input(seed, CLUSTERS)).collect();
        setups.push(start.elapsed().as_secs_f64());
    }
    let setup_s = median(&setups);
    consolidate(&pipeline, &input(WARM_UP_SEED, 3), &mut Vec::new());

    // Measured: whole passes over the ladder, each in an order drawn from
    // the seed, for as many passes as fit in the time (at least one).
    let mut rng = StdRng::seed_from_u64(args.seed);
    let mut waits_ms = Vec::new();
    let mut secs = Vec::new();
    let mut records = 0usize;
    let mut first_pass: Vec<Option<Consolidated>> = ladder.iter().map(|_| None).collect();
    let mut measured = 0.0;
    loop {
        let mut order: Vec<usize> = (0..ladder.len()).collect();
        order.shuffle(&mut rng);
        let pass_start = measured;
        for index in order {
            let input = &ladder[index];
            let done = consolidate(&pipeline, input, &mut waits_ms);
            report.attempted += 1;
            if done.golden.len() != input.dataset.clusters.len() || !input.has_truth {
                report.failed += 1;
            }
            records += input.dataset.num_records();
            measured += done.secs;
            secs.push(done.secs);
            match &first_pass[index] {
                Some(first) if first.csv != done.csv => report.failed += 1,
                Some(_) => {}
                None => first_pass[index] = Some(done),
            }
        }
        if measured + (measured - pass_start) > args.seconds {
            break;
        }
    }
    let first_pass: Vec<Consolidated> = first_pass.into_iter().map(Option::unwrap).collect();
    let latency = Summary::of(&waits_ms);

    // Quality of the (deterministic) outputs, pooled over the ladder.
    let mut counts = ConfusionCounts::default();
    let (mut golden_before, mut golden_after, mut clusters) = (0, 0, 0);
    for (input, done) in ladder.iter().zip(&first_pass) {
        counts = counts.merge(&evaluate_standardization(
            &input.sample,
            &done.dataset.column_values(0),
        ));
        let (before, _) = golden_csv(&pipeline, &input.dataset);
        golden_before += golden_hits(&input.dataset, &before).0;
        let (hits, n) = golden_hits(&done.dataset, &done.golden);
        golden_after += hits;
        clusters += n;
    }
    let std_precision = counts.precision();
    let std_recall = counts.recall();
    let golden_precision = golden_after as f64 / clusters.max(1) as f64;

    report.gate(
        "standardization precision stays at or above 0.8 (0.884 on the ladder today)",
        std_precision >= 0.8,
    );
    report.gate(
        "standardization does not lower golden-record precision",
        golden_after >= golden_before,
    );

    println!(
        "consolidated {} datasets ({} records; ladder of {} {CLUSTERS}-cluster inputs) at budget {BUDGET} in {measured:.3} s",
        secs.len(),
        records,
        ladder.len()
    );
    println!("time to next question: {}", latency.describe("ms"));

    if args.trace {
        trace_pass(args, &pipeline, &ladder, &first_pass[0], &mut report);
    }

    let e2e = &mut report.end_to_end;
    e2e.insert("setup_s", setup_s);
    e2e.insert("peak_rss_mb", sys::peak_rss_mb(None));
    e2e.insert("records_per_s", records as f64 / measured);
    e2e.insert("latency_p90_ms", latency.p90);
    e2e.insert("precision", std_precision);
    e2e.insert("recall", std_recall);
    report.named = vec![
        ("consolidate_s", median(&secs), "s"),
        ("question_p50_ms", latency.p50, "ms"),
        ("question_p90_ms", latency.p90, "ms"),
        ("std_recall", std_recall, "ratio"),
        ("std_precision", std_precision, "ratio"),
        ("golden_precision", golden_precision, "ratio"),
        (
            "golden_precision_before",
            golden_before as f64 / clusters.max(1) as f64,
            "ratio",
        ),
        ("setup_s", setup_s, "s"),
        ("peak_rss_mb", sys::peak_rss_mb(None), "MB"),
    ];
    report
}

/// The traced run: the first dataset again with spans (plus the shared
/// entry point, for the byte-identity gate), then the second dataset traced for
/// the layer-ordering check.
fn trace_pass(
    args: &Args,
    pipeline: &Pipeline,
    ladder: &[Input],
    first: &Consolidated,
    report: &mut Report,
) {
    let input = &ladder[0];
    let mut shared = input.dataset.clone();
    let columns: Vec<usize> = (0..shared.columns.len()).collect();
    standardize_columns(
        pipeline,
        &mut shared,
        &columns,
        AutoMode::Auto,
        input.has_truth,
        None,
    );
    let (_, shared_csv) = golden_csv(pipeline, &shared);

    let before = stats::samples(&ec_obs::render());
    let cpu_before = sys::cpu_seconds();
    let mut tracer = Tracer::new(true);
    let traced_csv = consolidate_traced(&mut tracer, pipeline, input);
    let cpu = sys::cpu_seconds() - cpu_before;
    let after = stats::samples(&ec_obs::render());

    report.gate(
        "traced and untraced consolidate write byte-identical golden CSVs",
        traced_csv == first.csv,
    );
    report.gate(
        "standardize_columns writes the same golden CSV as the measured path",
        shared_csv == first.csv,
    );

    // Preparation probe, outside the traced wall: partition the same
    // candidates and build every partition's graphs and index.
    let config = pipeline.config();
    let candidates =
        ReplacementEngine::new(input.dataset.column_values(0), &config.candidates).candidates();
    let start = Instant::now();
    let partitions = partition_replacements(&candidates, &config.grouping);
    for part in &partitions {
        std::hint::black_box(PreparedGraphs::build(part, &config.grouping));
    }
    let prepare_s = start.elapsed().as_secs_f64();

    let mut second = Tracer::new(true);
    consolidate_traced(&mut second, pipeline, &ladder[1]);
    let holds = same_leading_order(&tracer, &second, 0.01);
    println!(
        "layer order (self time): first dataset {:?}, second dataset {:?} — {}",
        tracer.layer_order(),
        second.layer_order(),
        if holds { "holds" } else { "CHANGED" }
    );

    let own = tracer.self_by_name();
    let own_of = |name: &str| own.get(name).copied().unwrap_or(0.0);
    let searches = stats::delta_of(&before, &after, "ec_pivot_search_steps_count");
    let truncated = stats::delta_of(&before, &after, "ec_pivot_budget_exhausted_total");
    let wall = tracer.wall();
    let l = &mut report.per_layer;
    l.insert("traced_wall_s", wall);
    l.insert("unattributed_s", tracer.unattributed());
    l.insert("tracing_overhead_s", wall - first.secs);
    l.insert("layer_order_holds", f64::from(u8::from(holds)));
    l.insert("process.cpu_s", cpu);
    l.insert("replace.candidates_s", own_of("replace.candidates"));
    l.insert("replace.candidates", candidates.len() as f64);
    l.insert("grouping.partitions", partitions.len() as f64);
    l.insert("grouping.prepare_s", prepare_s);
    l.insert("grouping.next_group_s", own_of("grouping.next_group"));
    l.insert(
        "grouping.first_group_ms",
        tracer
            .durations("grouping.next_group")
            .first()
            .copied()
            .unwrap_or(0.0)
            * 1e3,
    );
    l.insert("grouping.pivot_searches", searches);
    l.insert(
        "grouping.pivot_steps",
        stats::delta_of(&before, &after, "ec_pivot_search_steps_sum"),
    );
    l.insert("grouping.pivot_truncated", truncated);
    l.insert("grouping.truncated_frac", truncated / searches.max(1.0));
    l.insert("core.review_s", own_of("core.review"));
    l.insert("core.apply_group_s", own_of("core.apply_group"));
    l.insert("truth.discover_s", own_of("truth.discover"));
    l.insert("data.write_csv_s", own_of("data.write_csv"));
    l.insert(
        "pool.steals",
        stats::delta_of(&before, &after, "ec_pool_steals_total"),
    );
    l.insert(
        "pool.task_queue_s",
        stats::delta_of(&before, &after, "ec_pool_task_queue_seconds_sum"),
    );
    let stage = |series: &str| {
        stats::delta(&before, &after, |s| {
            s.starts_with(series) && s.contains("stage=\"grouping.pivot_search\"")
        })
    };
    println!(
        "pivot search: {} search_many calls taking {:.3} s (ec_stage_seconds), {searches} searches, \
         {truncated} truncated at the step cap, {} steps",
        stage("ec_stage_seconds_count{"),
        stage("ec_stage_seconds_sum{"),
        stats::delta_of(&before, &after, "ec_pivot_search_steps_sum")
    );
    let attributed = 1.0 - tracer.unattributed() / wall.max(1e-12);
    println!(
        "traced wall {wall:.3} s, {:.1}% attributed to named layers; grouping.next_group {:.3} s",
        attributed * 100.0,
        own_of("grouping.next_group")
    );
    crate::write_trace(args, &tracer);
}
