//! Differential suite for the library-first incremental ingest path: after
//! ANY sequence of delta batches, the [`DeltaPipeline`]'s standardized
//! dataset and golden records must be **byte-identical** to a one-shot
//! pipeline run over the union of all inputs — at any thread count.
//!
//! The batch boundaries are drawn at random (seeded) so every run exercises
//! different split shapes: many tiny batches, a giant head batch, single
//! trailing records. Workload sizes respect `EC_TEST_SCALE` like every root
//! suite.

mod common;

use common::scaled;
use entity_consolidation::prelude::*;
use entity_consolidation::resolution::{BlockingConfig, BlockingScheme};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Flattens a generated clustered dataset into raw records, shuffled with
/// the given rng so cluster members arrive interleaved across batches.
fn raw_records(dataset: &Dataset, rng: &mut StdRng) -> Vec<RawRecord> {
    let mut records: Vec<RawRecord> = dataset
        .clusters
        .iter()
        .flat_map(|cluster| cluster.rows.iter())
        .map(|row| {
            RawRecord::new(
                row.source,
                row.cells
                    .iter()
                    .map(|c| c.observed.clone())
                    .collect::<Vec<_>>(),
            )
        })
        .collect();
    // Fisher–Yates with the seeded rng: deterministic but interleaved.
    for i in (1..records.len()).rev() {
        let j = rng.gen_range(0..=i);
        records.swap(i, j);
    }
    records
}

/// Draws random batch boundaries: each record has a chance to start a new
/// batch, so shapes range from singletons to large runs.
fn random_boundaries(len: usize, rng: &mut StdRng) -> Vec<usize> {
    let mut boundaries = Vec::new();
    for i in 1..len {
        if rng.gen_range(0..4) == 0 {
            boundaries.push(i);
        }
    }
    boundaries
}

/// The one-shot pipeline over `records` — exactly what `ec pipeline` runs.
fn one_shot(
    records: &[RawRecord],
    threads: usize,
    mode: AutoMode,
) -> (Dataset, Vec<u8>, ProgramLibrary) {
    one_shot_with(&ResolverConfig::default(), records, threads, mode)
}

/// [`one_shot`] under a given resolver configuration.
fn one_shot_with(
    config: &ResolverConfig,
    records: &[RawRecord],
    threads: usize,
    mode: AutoMode,
) -> (Dataset, Vec<u8>, ProgramLibrary) {
    let resolver = Resolver::new(config.clone());
    let mut stream = VecRecordStream::new(
        vec!["Address".to_string()],
        records
            .iter()
            .map(|r| FlatRecord {
                source: r.source,
                fields: r.fields.clone(),
            })
            .collect(),
    );
    let mut dataset = resolver.resolve_stream("ingest-diff", &mut stream).unwrap();
    let pipeline = Pipeline::new(ConsolidationConfig::default().with_threads(threads));
    let mut library = ProgramLibrary::new();
    let cols: Vec<usize> = (0..dataset.columns.len()).collect();
    standardize_columns(
        &pipeline,
        &mut dataset,
        &cols,
        mode,
        true,
        Some(&mut library),
    );
    let golden = pipeline.discover_golden_records(&dataset, TruthMethod::MajorityConsensus);
    let mut csv = Vec::new();
    write_golden_records_csv(&dataset.columns.clone(), &golden, &mut csv).unwrap();
    (dataset, csv, library)
}

/// Streams `records` through a [`DeltaPipeline`] split at `boundaries`,
/// returning the final standardized dataset and golden CSV.
fn delta_over(
    records: &[RawRecord],
    boundaries: &[usize],
    threads: usize,
    mode: AutoMode,
) -> (Dataset, Vec<u8>, usize) {
    let mut delta = DeltaPipeline::new(
        "ingest-diff",
        vec!["Address".to_string()],
        ResolverConfig::default(),
        ConsolidationConfig::default().with_threads(threads),
        mode,
        TruthMethod::MajorityConsensus,
    );
    let mut start = 0;
    for &end in boundaries.iter().chain(std::iter::once(&records.len())) {
        let report = delta.ingest_batch(records[start..end].to_vec());
        assert_eq!(report.batch_records, end - start);
        assert_eq!(report.total_records, end);
        start = end;
    }
    let mut csv = Vec::new();
    delta.write_golden_csv(&mut csv).unwrap();
    let library_len = delta.library().len();
    (
        delta
            .standardized()
            .expect("at least one batch ran")
            .clone(),
        csv,
        library_len,
    )
}

#[test]
fn random_batch_splits_replay_the_one_shot_pipeline_byte_for_byte() {
    let generated = PaperDataset::Address.generate(&GeneratorConfig {
        num_clusters: scaled(10),
        seed: 4242,
        num_sources: 3,
    });
    let mut rng = StdRng::seed_from_u64(77);
    let records = raw_records(&generated, &mut rng);
    for threads in [1usize, 4] {
        let (expected, expected_csv, expected_library) =
            one_shot(&records, threads, AutoMode::ApproveAll);
        for round in 0..3 {
            let boundaries = random_boundaries(records.len(), &mut rng);
            let (standardized, csv, library_len) =
                delta_over(&records, &boundaries, threads, AutoMode::ApproveAll);
            assert_eq!(
                standardized,
                expected,
                "standardized dataset diverged (threads {threads}, round {round}, \
                 {} batches)",
                boundaries.len() + 1
            );
            assert_eq!(
                csv, expected_csv,
                "golden CSV diverged (threads {threads}, round {round})"
            );
            // The delta library accumulates programs approved in *every*
            // batch, including intermediate cluster states, so it is a
            // superset of the one-shot run's.
            assert!(
                library_len >= expected_library.len(),
                "delta library lost programs (threads {threads}, round {round}): \
                 {library_len} < {}",
                expected_library.len()
            );
        }
    }
}

#[test]
fn simulated_oracle_mode_is_also_replayed_exactly() {
    // Auto mode re-runs the simulated oracle every batch; verdicts depend on
    // live cluster contents, so this pins the subtler replay path.
    let generated = PaperDataset::AuthorList.generate(&GeneratorConfig {
        num_clusters: scaled(8),
        seed: 99,
        num_sources: 3,
    });
    let mut rng = StdRng::seed_from_u64(13);
    let records = raw_records(&generated, &mut rng);
    let (expected, expected_csv, _) = one_shot(&records, 1, AutoMode::Auto);
    for _ in 0..2 {
        let boundaries = random_boundaries(records.len(), &mut rng);
        let (standardized, csv, _) = delta_over(&records, &boundaries, 1, AutoMode::Auto);
        assert_eq!(standardized, expected);
        assert_eq!(csv, expected_csv);
    }
}

#[test]
fn reingesting_the_same_corpus_rides_the_fast_path() {
    let generated = PaperDataset::Address.generate(&GeneratorConfig {
        num_clusters: scaled(6),
        seed: 7,
        num_sources: 3,
    });
    let mut rng = StdRng::seed_from_u64(5);
    let records = raw_records(&generated, &mut rng);
    let mut delta = DeltaPipeline::new(
        "ingest-diff",
        vec!["Address".to_string()],
        ResolverConfig::default(),
        ConsolidationConfig::default(),
        AutoMode::ApproveAll,
        TruthMethod::MajorityConsensus,
    );
    let first = delta.ingest_batch(records.clone());
    assert_eq!(first.library_hits, 0);
    assert_eq!(first.residue, records.len());
    let second = delta.ingest_batch(records.clone());
    assert_eq!(
        second.library_hits,
        records.len(),
        "every re-ingested record must ride the fast path"
    );
    assert_eq!(second.residue, 0);
    assert_eq!(
        second.replayed_columns, 1,
        "unchanged candidates must replay the cached group sequence"
    );
}

#[test]
fn a_later_batch_that_splits_a_cluster_still_replays_the_one_shot_pipeline() {
    // Resolution is non-monotone: with token blocking and a block cap of 2,
    // the first batch joins the two "mary" records through their one shared
    // token, and the second batch overflows that block, so the cluster
    // splits and its value vector shrinks. The third batch grows the other
    // cluster.
    let config = ResolverConfig {
        scheme: BlockingScheme::Token,
        blocking: BlockingConfig {
            max_block_size: 2,
            ..BlockingConfig::default()
        },
        ..ResolverConfig::default()
    };
    let records: Vec<RawRecord> = [
        "Mary Lee",
        "Mary Leigh",
        "James Smith",
        "Jamess Smith",
        "Mary Stone",
        "Stone Mary",
        "James Smyth",
    ]
    .iter()
    .enumerate()
    .map(|(i, value)| RawRecord::new(i % 3, [*value]))
    .collect();
    let mut delta = DeltaPipeline::new(
        "ingest-diff",
        vec!["Address".to_string()],
        config.clone(),
        ConsolidationConfig::default(),
        AutoMode::ApproveAll,
        TruthMethod::MajorityConsensus,
    );
    let mut clusters = Vec::new();
    for (start, end) in [(0, 4), (4, 5), (5, 7)] {
        clusters.push(delta.ingest_batch(records[start..end].to_vec()).clusters);
        let (expected, expected_csv, _) =
            one_shot_with(&config, &records[..end], 1, AutoMode::ApproveAll);
        assert_eq!(delta.standardized(), Some(&expected), "after {end} records");
        let mut csv = Vec::new();
        delta.write_golden_csv(&mut csv).unwrap();
        assert_eq!(csv, expected_csv, "after {end} records");
    }
    // One record more, two clusters more: the "mary" cluster split.
    assert_eq!(clusters, [2, 4, 5]);
}
