//! `ingest`: `DeltaPipeline::ingest_batch` over the synthetic name+address
//! feed `ingest_rate` uses. Set-up loads a base corpus of 8,000 records (2,000
//! clusters × 4 spellings); the measured part streams 200-record batches, 10%
//! of them from clusters the pipeline has never seen, the rest re-drawn from
//! the base corpus by the seed. Pivot search does almost nothing here: the
//! cost is the write path (resolver, candidate cache, index append, library)
//! and grows with the state already held.
//!
//! The final golden CSV must be byte-identical to a one-shot rebuild over
//! everything ingested — the invariant `ingest_rate` and `tests/ingest.rs`
//! pin.

use crate::stats::{self, median, Summary};
use crate::trace::{same_leading_order, Tracer};
use crate::{sys, Args, Report};
use ec_core::{
    standardize_columns, write_golden_records_csv, AutoMode, BatchReport, ConsolidationConfig,
    DeltaPipeline, Pipeline, TruthMethod,
};
use ec_data::{FlatRecord, VecRecordStream};
use ec_resolution::{DeltaResolver, RawRecord, Resolver, ResolverConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

const BASE_CLUSTERS: usize = 2_000;
const BATCH: usize = 200;
const NOVEL_PER_BATCH: usize = 20;
const SETUP_REPEATS: usize = 15;
/// Batches between reloads of the base corpus: the state a batch meets
/// ranges from 8,000 to 13,000 records.
const EPOCH_BATCHES: usize = 25;
/// Batches of the traced pass (and of the untraced pass it is compared with).
const TRACE_BATCHES: usize = 5;
/// Spellings per synthetic cluster; also the number of sources.
const VARIANTS: usize = 4;

fn columns() -> Vec<String> {
    vec!["Name".to_string(), "Address".to_string()]
}

/// One record of synthetic cluster `c` (the `ingest_rate` feed): realistic
/// name and address spellings that resolution merges within a cluster and
/// never across clusters.
fn synth_record(c: usize, variant: usize) -> RawRecord {
    let name = match variant % VARIANTS {
        0 => format!("Firstname{c} Middlename{c} Lastname{c}"),
        1 => format!("Lastname{c}, Firstname{c} Middlename{c}"),
        2 => format!("F{c}. M{c}. Lastname{c}"),
        _ => format!("Firstname{c} M{c}. Lastname{c}"),
    };
    let address = match variant % 2 {
        0 => format!("{c} East Oakwood Boulevard Apt {c}, Madison, 0{c} Wisconsin"),
        _ => format!("{c} E. Oakwood Blvd Apt {c}, Madison, 0{c} WI"),
    };
    RawRecord::new(variant % VARIANTS, [name, address])
}

fn base_corpus() -> Vec<RawRecord> {
    (0..BASE_CLUSTERS)
        .flat_map(|c| (0..VARIANTS).map(move |v| synth_record(c, v)))
        .collect()
}

fn new_pipeline() -> DeltaPipeline {
    DeltaPipeline::new(
        "ingest",
        columns(),
        ResolverConfig::default(),
        ConsolidationConfig::default(),
        AutoMode::ApproveAll,
        TruthMethod::MajorityConsensus,
    )
}

/// Draws batches from the seed: novel clusters get fresh ids after every
/// earlier one; seen records pick a base cluster and spelling at random.
struct Feed {
    rng: StdRng,
    next_novel: usize,
}

impl Feed {
    fn new(seed: u64) -> Feed {
        Feed {
            rng: StdRng::seed_from_u64(seed),
            next_novel: BASE_CLUSTERS,
        }
    }

    fn batch(&mut self) -> Vec<RawRecord> {
        let mut batch = Vec::with_capacity(BATCH);
        for _ in 0..NOVEL_PER_BATCH {
            batch.push(synth_record(
                self.next_novel,
                self.rng.gen_range(0..VARIANTS),
            ));
            self.next_novel += 1;
        }
        while batch.len() < BATCH {
            let c = self.rng.gen_range(0..BASE_CLUSTERS);
            batch.push(synth_record(c, self.rng.gen_range(0..VARIANTS)));
        }
        batch
    }
}

/// The one-shot rebuild over `records` — what `ec pipeline --mode
/// approve-all` writes — as golden CSV bytes.
fn one_shot_golden(records: &[RawRecord]) -> Vec<u8> {
    let flat = records
        .iter()
        .map(|r| FlatRecord {
            source: r.source,
            fields: r.fields.clone(),
        })
        .collect();
    let mut dataset = Resolver::new(ResolverConfig::default())
        .resolve_stream("ingest", &mut VecRecordStream::new(columns(), flat))
        .expect("in-memory resolve cannot fail");
    let pipeline = Pipeline::new(ConsolidationConfig::default());
    let cols: Vec<usize> = (0..dataset.columns.len()).collect();
    standardize_columns(
        &pipeline,
        &mut dataset,
        &cols,
        AutoMode::ApproveAll,
        false,
        None,
    );
    let golden = pipeline.discover_golden_records(&dataset, TruthMethod::MajorityConsensus);
    let mut out = Vec::new();
    write_golden_records_csv(&columns(), &golden, &mut out).expect("in-memory write");
    out
}

fn golden_of(delta: &DeltaPipeline) -> Vec<u8> {
    let mut out = Vec::new();
    delta.write_golden_csv(&mut out).expect("in-memory write");
    out
}

/// Rows of `ours` that equal the same row of `reference`, and the number of
/// rows in each.
fn row_agreement(ours: &[u8], reference: &[u8]) -> (usize, usize, usize) {
    let ours: Vec<&[u8]> = ours.split(|&b| b == b'\n').skip(1).collect();
    let reference: Vec<&[u8]> = reference.split(|&b| b == b'\n').skip(1).collect();
    let same = ours.iter().zip(&reference).filter(|(a, b)| a == b).count();
    (same, ours.len(), reference.len())
}

pub fn run(args: &Args) -> Report {
    let mut report = Report::default();

    // Set-up: load the base corpus into a fresh pipeline, several times.
    let base = base_corpus();
    let mut setups = Vec::new();
    let mut delta = new_pipeline();
    for _ in 0..SETUP_REPEATS {
        let start = Instant::now();
        delta = new_pipeline();
        delta.ingest_batch(base.clone());
        setups.push(start.elapsed().as_secs_f64());
    }
    let setup_s = median(&setups);

    // Measured: epochs of `EPOCH_BATCHES` batches until the time is up. Each
    // epoch after the first starts again from a freshly loaded base (not
    // timed), so every batch meets the same range of state sizes however
    // many batches fit in the run.
    let mut feed = Feed::new(args.seed);
    let mut union = base.clone();
    let mut batch_ms = Vec::new();
    let mut measured = 0.0;
    let mut records = 0usize;
    while measured < args.seconds {
        if !batch_ms.is_empty() && batch_ms.len() % EPOCH_BATCHES == 0 {
            delta = new_pipeline();
            delta.ingest_batch(base.clone());
            union = base.clone();
        }
        let batch = feed.batch();
        union.extend(batch.iter().cloned());
        records += batch.len();
        let start = Instant::now();
        let batch_report = delta.ingest_batch(batch);
        let secs = start.elapsed().as_secs_f64();
        report.attempted += 1;
        if batch_report.batch_records != BATCH {
            report.failed += 1;
        }
        measured += secs;
        batch_ms.push(secs * 1e3);
    }
    let latency = Summary::of(&batch_ms);
    let epoch_rates: Vec<f64> = batch_ms
        .chunks_exact(EPOCH_BATCHES)
        .map(|epoch| (EPOCH_BATCHES * BATCH) as f64 / (epoch.iter().sum::<f64>() / 1e3))
        .collect();
    println!(
        "ingested {} batches of {BATCH} ({NOVEL_PER_BATCH} novel) onto {} base records in {measured:.3} s; \
         records/s per epoch {epoch_rates:.0?}",
        batch_ms.len(),
        base.len(),
    );
    println!("batch latency: {}", latency.describe("ms"));

    if args.trace {
        trace_pass(args, &mut delta, &mut feed, &mut union, &mut report);
    }

    let ours = golden_of(&delta);
    let rebuild = one_shot_golden(&union);
    report.gate(
        "delta golden CSV is byte-identical to a one-shot rebuild over the union",
        ours == rebuild,
    );
    let (same, ours_rows, rebuild_rows) = row_agreement(&ours, &rebuild);

    let e2e = &mut report.end_to_end;
    e2e.insert("setup_s", setup_s);
    e2e.insert("peak_rss_mb", sys::peak_rss_mb(None));
    e2e.insert("records_per_s", records as f64 / measured);
    e2e.insert("latency_p90_ms", latency.p90);
    e2e.insert("precision", same as f64 / ours_rows.max(1) as f64);
    e2e.insert("recall", same as f64 / rebuild_rows.max(1) as f64);
    report.named = vec![
        ("ingest_records_per_s", records as f64 / measured, "1/s"),
        ("ingest_batch_p50_ms", latency.p50, "ms"),
        ("ingest_batch_p90_ms", latency.p90, "ms"),
        ("setup_s", setup_s, "s"),
        ("peak_rss_mb", sys::peak_rss_mb(None), "MB"),
    ];
    report
}

/// Runs `batches` through the pipeline, each batch a root span with the
/// `ingest_batch` call inside (no spans when `tracer` is disabled).
fn traced_batches(
    tracer: &mut Tracer,
    delta: &mut DeltaPipeline,
    batches: &[Vec<RawRecord>],
) -> Vec<BatchReport> {
    batches
        .iter()
        .map(|batch| {
            tracer.span("bench.ingest", |t| {
                t.span("core.ingest_batch", |_| delta.ingest_batch(batch.clone()))
            })
        })
        .collect()
}

fn trace_pass(
    args: &Args,
    delta: &mut DeltaPipeline,
    feed: &mut Feed,
    union: &mut Vec<RawRecord>,
    report: &mut Report,
) {
    let mut next = |n: usize| -> Vec<Vec<RawRecord>> {
        let batches: Vec<Vec<RawRecord>> = (0..n).map(|_| feed.batch()).collect();
        union.extend(batches.iter().flatten().cloned());
        batches
    };
    // Untraced then traced, on adjacent batches of the same feed.
    let untraced_batches = next(TRACE_BATCHES);
    let start = Instant::now();
    traced_batches(&mut Tracer::new(false), delta, &untraced_batches);
    let untraced = start.elapsed().as_secs_f64();

    let traced_input = next(TRACE_BATCHES);
    let before = stats::samples(&ec_obs::render());
    let cpu_before = sys::cpu_seconds();
    let mut tracer = Tracer::new(true);
    let reports = traced_batches(&mut tracer, delta, &traced_input);
    let cpu = sys::cpu_seconds() - cpu_before;
    let after = stats::samples(&ec_obs::render());

    // Probes outside the traced wall: truth discovery and the golden write
    // over the final state, and a `DeltaResolver` fed the same records.
    let standardized = delta.standardized().expect("batches were ingested").clone();
    let start = Instant::now();
    Pipeline::new(ConsolidationConfig::default())
        .discover_golden_records(&standardized, TruthMethod::MajorityConsensus);
    let discover_s = start.elapsed().as_secs_f64();
    let start = Instant::now();
    std::hint::black_box(golden_of(delta));
    let golden_write_s = start.elapsed().as_secs_f64();

    let prefix = union.len() - TRACE_BATCHES * BATCH;
    let mut resolver = DeltaResolver::new(ResolverConfig::default());
    for record in &union[..prefix] {
        resolver.push(record.clone());
    }
    resolver.snapshot("ingest", columns());
    let scored_before = resolver.scored_pairs();
    let start = Instant::now();
    for batch in &traced_input {
        for record in batch {
            resolver.push(record.clone());
        }
        resolver.snapshot("ingest", columns());
    }
    let resolution_s = start.elapsed().as_secs_f64() / TRACE_BATCHES as f64;
    let pairs_scored = (resolver.scored_pairs() - scored_before) as f64 / TRACE_BATCHES as f64;

    // The layer ordering on a second seed's batches.
    let mut second_feed = Feed::new(args.seed.wrapping_add(1));
    second_feed.next_novel = feed.next_novel;
    let second_input: Vec<Vec<RawRecord>> =
        (0..TRACE_BATCHES).map(|_| second_feed.batch()).collect();
    union.extend(second_input.iter().flatten().cloned());
    let mut second = Tracer::new(true);
    traced_batches(&mut second, delta, &second_input);
    let holds = same_leading_order(&tracer, &second, 0.01);
    println!(
        "layer order (self time): seed {} {:?}, seed {} {:?} — {}",
        args.seed,
        tracer.layer_order(),
        args.seed.wrapping_add(1),
        second.layer_order(),
        if holds { "holds" } else { "CHANGED" }
    );

    let batch_records: usize = reports.iter().map(|r| r.batch_records).sum();
    let library_hits: usize = reports.iter().map(|r| r.library_hits).sum();
    let replayed: usize = reports.iter().map(|r| r.replayed_columns).sum();
    let hits = stats::delta_of(&before, &after, "ec_ingest_cache_hits_total");
    let misses = stats::delta_of(&before, &after, "ec_ingest_cache_misses_total");
    let own = tracer.self_by_name();
    let wall = tracer.wall();
    let l = &mut report.per_layer;
    l.insert("traced_wall_s", wall);
    l.insert("unattributed_s", tracer.unattributed());
    l.insert("tracing_overhead_s", wall - untraced);
    l.insert("layer_order_holds", f64::from(u8::from(holds)));
    l.insert("process.cpu_s", cpu);
    l.insert(
        "core.ingest_batch_s",
        own.get("core.ingest_batch").copied().unwrap_or(0.0) / TRACE_BATCHES as f64,
    );
    l.insert("resolution.delta_s", resolution_s);
    l.insert("resolution.pairs_scored", pairs_scored);
    l.insert("replace.cache_hit_frac", hits / (hits + misses).max(1.0));
    l.insert(
        "core.library_hit_frac",
        library_hits as f64 / batch_records.max(1) as f64,
    );
    l.insert("grouping.replayed_columns", replayed as f64);
    l.insert(
        "grouping.pivot_steps",
        stats::delta_of(&before, &after, "ec_pivot_search_steps_sum"),
    );
    l.insert("truth.discover_s", discover_s);
    l.insert("data.golden_write_s", golden_write_s);
    crate::write_trace(args, &tracer);
}
