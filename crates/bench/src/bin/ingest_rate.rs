//! `ingest_rate`: the sustained-ingest benchmark behind the library-first
//! delta path.
//!
//! The harness seeds a [`DeltaPipeline`] with a base corpus, then streams
//! timed batches whose **fraction-novel** knob controls how many records come
//! from clusters the pipeline has never seen. At fraction 0 every record's
//! shape is already learned — the decision cache scores no pairs, the
//! per-cluster candidates and prepared partitions are reused, the cached
//! group sequences replay, and no pivot search runs — so throughput measures
//! the fast path. Even then each batch regenerates the state's candidate
//! pairs, repackages the dataset and re-runs review and truth discovery over
//! it. At fraction 1 every record is new and the delta path degenerates
//! toward a full run. Each batch is compared against the
//! **full-rebuild baseline**: a one-shot pipeline over the union of
//! everything ingested so far, which is exactly what a service without the
//! delta path would have to pay per batch.
//!
//! After each sweep point the delta pipeline's golden CSV is byte-compared
//! against the one-shot rebuild over the same union — the benchmark *is* a
//! differential test; a mismatch fails the run.
//!
//! Results print as a table and export as `BENCH_ingest.json` (schema
//! `ingest/v1`) to `EC_BENCH_EXPORT_DIR` (or the current directory), where CI
//! archives them; successive PRs extend the trajectory by comparing these
//! files. Each sweep point embeds the `ec-obs` registry movement across its
//! timed batches (candidate-cache hits/misses, replayed sequences,
//! stage timings), snapshotted in-process via `ec_obs::render`.
//!
//! Usage: `ingest_rate [--clusters N] [--batch-size N] [--batches N]`
//! (defaults: 300 base clusters, 8 batches of 80 records).

use ec_bench::{export_artifact, metrics_delta_json};
use ec_core::{
    standardize_columns, write_golden_records_csv, AutoMode, ConsolidationConfig, DeltaPipeline,
    Pipeline, ProgramLibrary, TruthMethod,
};
use ec_data::{FlatRecord, VecRecordStream};
use ec_report::TextTable;
use ec_resolution::{RawRecord, Resolver, ResolverConfig};
use std::time::{Duration, Instant};

const FRACTIONS: [f64; 5] = [0.0, 0.01, 0.1, 0.5, 1.0];

struct Options {
    clusters: usize,
    batch_size: usize,
    batches: usize,
}

fn parse_args() -> Result<Options, String> {
    let mut options = Options {
        clusters: 300,
        batch_size: 80,
        batches: 8,
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = |name: &str| -> Result<usize, String> {
            args.next()
                .ok_or_else(|| format!("--{name} expects a value"))?
                .parse()
                .map_err(|_| format!("--{name} expects an integer"))
        };
        match flag.as_str() {
            "--clusters" => options.clusters = value("clusters")?.max(1),
            "--batch-size" => options.batch_size = value("batch-size")?.max(1),
            "--batches" => options.batches = value("batches")?.max(1),
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    Ok(options)
}

fn columns() -> Vec<String> {
    vec!["Name".to_string(), "Address".to_string()]
}

/// Spellings per synthetic cluster; also the number of sources.
const VARIANTS: usize = 4;

/// One record of synthetic cluster `c`: realistic-length name and address
/// spellings that resolution reliably merges (shared rare tokens per cluster)
/// while distinct clusters never collide. Field lengths mirror real entity
/// data — similarity scoring over such strings is the cost the fast path
/// skips, so toy-sized fields would understate the delta win.
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

/// All variants of clusters `range`, in cluster-major order.
fn cluster_records(range: std::ops::Range<usize>) -> Vec<RawRecord> {
    let mut out = Vec::with_capacity(range.len() * VARIANTS);
    for c in range {
        for variant in 0..VARIANTS {
            out.push(synth_record(c, variant));
        }
    }
    out
}

/// The one-shot pipeline over `records` — exactly what `ec pipeline` runs —
/// returning the golden CSV bytes.
fn one_shot_golden(records: &[RawRecord]) -> Vec<u8> {
    let resolver = Resolver::new(ResolverConfig::default());
    let mut stream = VecRecordStream::new(
        columns(),
        records
            .iter()
            .map(|r| FlatRecord {
                source: r.source,
                fields: r.fields.clone(),
            })
            .collect(),
    );
    let mut dataset = resolver
        .resolve_stream("ingest-rate", &mut stream)
        .expect("in-memory resolve cannot fail");
    let pipeline = Pipeline::new(ConsolidationConfig::default());
    let cols: Vec<usize> = (0..dataset.columns.len()).collect();
    let mut library = ProgramLibrary::new();
    standardize_columns(
        &pipeline,
        &mut dataset,
        &cols,
        AutoMode::ApproveAll,
        true,
        Some(&mut library),
    );
    let golden = pipeline.discover_golden_records(&dataset, TruthMethod::MajorityConsensus);
    let mut out = Vec::new();
    write_golden_records_csv(&columns(), &golden, &mut out).expect("in-memory write");
    out
}

/// Registry families that tell the delta-path story per sweep point: pair
/// cache traffic, replayed sequences, and how much pivot/stage work the
/// novel records forced.
const METRIC_PREFIXES: &[&str] = &["ec_ingest_", "ec_stage_seconds", "ec_pivot_", "ec_pool_"];

struct SweepPoint {
    fraction: f64,
    total_records: usize,
    hits: u64,
    delta_total: Duration,
    baseline_total: Duration,
    latencies_us: Vec<u64>,
    golden_identical: bool,
    /// Registry movement across this point's timed batches, as a
    /// ready-to-embed JSON object (the benchmark runs in-process, so the
    /// snapshots come straight from `ec_obs::render`).
    metrics_json: String,
}

impl SweepPoint {
    fn records_per_sec(&self) -> f64 {
        self.total_records as f64 / self.delta_total.as_secs_f64().max(1e-9)
    }

    fn baseline_records_per_sec(&self) -> f64 {
        self.total_records as f64 / self.baseline_total.as_secs_f64().max(1e-9)
    }

    fn speedup(&self) -> f64 {
        self.baseline_total.as_secs_f64() / self.delta_total.as_secs_f64().max(1e-9)
    }

    fn percentile(&self, p: f64) -> u64 {
        let n = self.latencies_us.len();
        if n == 0 {
            return 0;
        }
        let rank = ((p / 100.0) * n as f64).ceil() as usize;
        self.latencies_us[rank.clamp(1, n) - 1]
    }
}

/// Runs one sweep point: seed the base corpus, stream `batches` timed batches
/// with the given novel fraction, race each batch against the full-rebuild
/// baseline, and byte-compare the final goldens.
fn run_fraction(options: &Options, fraction: f64) -> SweepPoint {
    let mut delta = DeltaPipeline::new(
        "ingest-rate",
        columns(),
        ResolverConfig::default(),
        ConsolidationConfig::default(),
        AutoMode::ApproveAll,
        TruthMethod::MajorityConsensus,
    );
    // The base corpus warms the pipeline (untimed): after it, every base
    // cluster's values and group sequences are cached.
    let mut union = cluster_records(0..options.clusters);
    delta.ingest_batch(union.clone());

    // Novel clusters draw monotonically increasing ids so they never collide
    // with the base corpus or each other across batches.
    let mut next_novel = options.clusters;
    let novel_per_batch = ((options.batch_size as f64) * fraction).round() as usize;
    let novel_per_batch = novel_per_batch.min(options.batch_size);

    let mut latencies_us = Vec::with_capacity(options.batches);
    let mut delta_total = Duration::ZERO;
    let mut baseline_total = Duration::ZERO;
    let mut total_records = 0usize;
    let hits_before = delta.library_hits();
    // Registry snapshot after the untimed warm-up, so the embedded metrics
    // delta covers exactly this point's batches. The window also spans the
    // full-rebuild baseline races, so stage/pivot/pool series include the
    // baseline's work; the ec_ingest_* family is incremented only by the
    // delta pipeline and isolates the fast path.
    let obs_before = ec_obs::render();

    for batch_index in 0..options.batches {
        let mut batch = Vec::with_capacity(options.batch_size);
        for i in 0..novel_per_batch {
            // One spelling per novel record; its siblings arrive in later
            // slots or batches, like real dirty feeds.
            batch.push(synth_record(next_novel, i));
            next_novel += 1;
        }
        // Seen records cycle deterministically through base clusters and
        // variants, shifted per batch so every batch touches different rows.
        for i in novel_per_batch..options.batch_size {
            let c = (batch_index * 31 + i * 7) % options.clusters;
            batch.push(synth_record(c, batch_index + i));
        }
        union.extend(batch.iter().cloned());
        total_records += batch.len();

        let started = Instant::now();
        delta.ingest_batch(batch);
        let elapsed = started.elapsed();
        latencies_us.push(elapsed.as_micros() as u64);
        delta_total += elapsed;

        // The baseline pays a full rebuild over the union for this batch.
        let started = Instant::now();
        let baseline_golden = one_shot_golden(&union);
        baseline_total += started.elapsed();

        if batch_index + 1 == options.batches {
            let mut ours = Vec::new();
            delta.write_golden_csv(&mut ours).expect("in-memory write");
            let identical = ours == baseline_golden;
            latencies_us.sort_unstable();
            return SweepPoint {
                fraction,
                total_records,
                hits: delta.library_hits() - hits_before,
                delta_total,
                baseline_total,
                latencies_us,
                golden_identical: identical,
                metrics_json: metrics_delta_json(&obs_before, &ec_obs::render(), METRIC_PREFIXES),
            };
        }
    }
    unreachable!("the final batch returns");
}

fn json_report(options: &Options, points: &[SweepPoint]) -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"schema\": \"ingest/v1\",\n");
    out.push_str(&format!(
        "  \"base_clusters\": {},\n  \"batch_size\": {},\n  \"batches\": {},\n",
        options.clusters, options.batch_size, options.batches
    ));
    out.push_str("  \"sweep\": [\n");
    for (i, p) in points.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"fraction_novel\": {}, \"records\": {}, \"library_hits\": {}, \
             \"records_per_sec\": {:.1}, \"baseline_records_per_sec\": {:.1}, \
             \"speedup\": {:.2}, \
             \"batch_latency_us\": {{\"p50\": {}, \"p99\": {}, \"max\": {}}}, \
             \"golden_identical\": {}, \"metrics\": {}}}{}\n",
            p.fraction,
            p.total_records,
            p.hits,
            p.records_per_sec(),
            p.baseline_records_per_sec(),
            p.speedup(),
            p.percentile(50.0),
            p.percentile(99.0),
            p.latencies_us.last().copied().unwrap_or(0),
            p.golden_identical,
            p.metrics_json,
            if i + 1 < points.len() { "," } else { "" }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

fn main() {
    let options = match parse_args() {
        Ok(options) => options,
        Err(message) => {
            eprintln!("ingest_rate: {message}");
            std::process::exit(2);
        }
    };
    println!(
        "ingest_rate: {} base clusters, {} batches x {} records, fraction-novel sweep {:?}",
        options.clusters, options.batches, options.batch_size, FRACTIONS
    );

    let points: Vec<SweepPoint> = FRACTIONS
        .iter()
        .map(|&fraction| {
            let point = run_fraction(&options, fraction);
            println!(
                "fraction {:.2}: {:.0} rec/s delta vs {:.0} rec/s rebuild ({:.1}x), golden {}",
                fraction,
                point.records_per_sec(),
                point.baseline_records_per_sec(),
                point.speedup(),
                if point.golden_identical {
                    "identical"
                } else {
                    "DIVERGED"
                }
            );
            point
        })
        .collect();

    let mut table = TextTable::new([
        "novel", "records", "hits", "rec/s", "base r/s", "speedup", "p50 us", "p99 us", "max us",
    ]);
    for p in &points {
        table.push_row([
            format!("{:.2}", p.fraction),
            p.total_records.to_string(),
            p.hits.to_string(),
            format!("{:.1}", p.records_per_sec()),
            format!("{:.1}", p.baseline_records_per_sec()),
            format!("{:.2}", p.speedup()),
            p.percentile(50.0).to_string(),
            p.percentile(99.0).to_string(),
            p.latencies_us.last().copied().unwrap_or(0).to_string(),
        ]);
    }
    println!("{}", table.to_plain_text());
    export_artifact("BENCH_ingest.json", &json_report(&options, &points));

    if points.iter().any(|p| !p.golden_identical) {
        eprintln!("ingest_rate: delta golden records diverged from the full rebuild");
        std::process::exit(1);
    }
}
