//! Record-pair matching and the end-to-end resolver.
//!
//! A [`Resolver`] turns a flat collection of [`RawRecord`]s into clusters of
//! duplicates: blocking proposes candidate pairs, each pair is scored by a
//! weighted combination of per-column similarity measures, pairs at or above
//! the match threshold are unioned, and the connected components become the
//! clusters. Every entry point pushes its records into one
//! [`DeltaResolver`] — the single resolution state, see [`crate::streaming`]
//! — and takes one snapshot: [`Resolver::resolve_stream`] record by record
//! off an [`ec_data::RecordStream`], [`Resolver::resolve`] and
//! [`Resolver::resolve_to_dataset`] over a slice. The dataset-producing
//! entry points package the result as an [`ec_data::Dataset`] so the
//! consolidation pipeline can run directly on resolver output.
//!
//! # Scoring architecture
//!
//! The per-pair work is compiled out of the hot loop: [`CompiledRules`]
//! resolves a config's effective rules and weight sums once per scoring
//! chunk (per column arity), and pair scoring shards across the shared
//! worker pool in contiguous chunks merged in candidate order (the same
//! pattern as `ec-replace`'s candidate generation). Snapshots only keep
//! match decisions, so they score with early abandon
//! ([`CompiledRules::decide_score`]), which skips similarity kernels when a
//! cheap upper bound proves the pair cannot reach the threshold. Every path
//! is **bit-identical** to sequential exact scoring: the one entry point
//! that reports scores, [`Resolver::match_pairs`], scores exactly, and
//! abandoned pairs are provably sub-threshold (see
//! [`crate::similarity::SimilarityMeasure::score_at_least`]).

use crate::blocking::BlockingConfig;
use crate::similarity::{take_kernel_path_counts, SimilarityMeasure};
use crate::streaming::DeltaResolver;
use ec_data::{Cell, Cluster, Dataset, DatasetIoError, RecordStream, Row};
use ec_graph::{Parallelism, PoolTask};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// An unclustered input record: the flat record the `ec-data` readers yield.
pub use ec_data::FlatRecord as RawRecord;

/// How one column contributes to the pairwise match score.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ColumnRule {
    /// The column index the rule applies to.
    pub column: usize,
    /// The similarity measure to evaluate.
    pub measure: SimilarityMeasure,
    /// The weight of this column in the overall score. Weights are normalized
    /// over the rules of a config, so only their ratios matter.
    pub weight: f64,
}

/// Which blocking scheme proposes candidate pairs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum BlockingScheme {
    /// Token blocking (records sharing a word token become candidates).
    Token,
    /// Sorted-neighborhood blocking (sliding window over sorted keys).
    SortedNeighborhood,
    /// The union of both schemes' candidates.
    Both,
}

/// Configuration of the resolver.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ResolverConfig {
    /// Per-column scoring rules. When empty, every column is scored with
    /// Jaro–Winkler at equal weight.
    pub rules: Vec<ColumnRule>,
    /// A candidate pair whose weighted score reaches this threshold is
    /// declared a match.
    pub threshold: f64,
    /// Candidate generation scheme.
    pub scheme: BlockingScheme,
    /// Blocking parameters.
    pub blocking: BlockingConfig,
}

impl Default for ResolverConfig {
    fn default() -> Self {
        ResolverConfig {
            rules: Vec::new(),
            threshold: 0.75,
            scheme: BlockingScheme::Both,
            blocking: BlockingConfig::default(),
        }
    }
}

/// The outcome of scoring one candidate pair.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MatchDecision {
    /// First record index (always less than `b`).
    pub a: usize,
    /// Second record index.
    pub b: usize,
    /// The weighted similarity score in `[0, 1]`.
    pub score: f64,
    /// Whether the score reached the threshold.
    pub is_match: bool,
}

/// A config's scoring rules compiled for one column arity: the effective rule
/// list, the total weight, and per-rule suffix weight sums. Hoists what the
/// old per-pair path re-derived (and re-allocated) for every single pair, and
/// carries the bookkeeping the early-abandon loop needs.
#[derive(Debug, Clone)]
pub struct CompiledRules {
    rules: Vec<ColumnRule>,
    total_weight: f64,
    /// `suffix_weight[i]` — the summed weight of the rules *after* `i`, i.e.
    /// the maximum score mass still ahead once rule `i` is being evaluated.
    /// Feeds only abandon bounds, never a returned score.
    suffix_weight: Vec<f64>,
}

impl CompiledRules {
    /// Compiles `config`'s effective rules for records with `num_columns`
    /// columns: an empty rule list means Jaro–Winkler on every column at
    /// equal weight; otherwise rules on missing columns or with non-positive
    /// weight are dropped.
    pub fn compile(config: &ResolverConfig, num_columns: usize) -> Self {
        let rules: Vec<ColumnRule> = if config.rules.is_empty() {
            (0..num_columns)
                .map(|column| ColumnRule {
                    column,
                    measure: SimilarityMeasure::JaroWinkler,
                    weight: 1.0,
                })
                .collect()
        } else {
            config
                .rules
                .iter()
                .copied()
                .filter(|r| r.column < num_columns && r.weight > 0.0)
                .collect()
        };
        let total_weight: f64 = rules.iter().map(|r| r.weight).sum();
        let mut suffix_weight = vec![0.0f64; rules.len()];
        let mut ahead = 0.0f64;
        for i in (0..rules.len()).rev() {
            suffix_weight[i] = ahead;
            ahead += rules[i].weight;
        }
        CompiledRules {
            rules,
            total_weight,
            suffix_weight,
        }
    }

    /// The exact weighted score of a pair — the same additions in the same
    /// order as the pre-compilation scorer, so results are bit-identical.
    pub fn score(&self, a: &RawRecord, b: &RawRecord) -> f64 {
        if self.total_weight == 0.0 {
            return 0.0;
        }
        self.rules
            .iter()
            .map(|rule| {
                rule.weight
                    * rule
                        .measure
                        .score(&a.fields[rule.column], &b.fields[rule.column])
            })
            .sum::<f64>()
            / self.total_weight
    }

    /// Threshold-aware scoring with early abandon. Returns the exact score
    /// (bitwise identical to [`CompiledRules::score`]) unless some rule's
    /// similarity provably cannot lift the weighted total to `threshold` even
    /// with every remaining rule at 1.0 — then scoring stops, `abandoned` is
    /// bumped, and `f64::NEG_INFINITY` is returned in place of the (provably
    /// sub-threshold) score. `returned >= threshold` therefore always equals
    /// the exact decision; only callers that never observe sub-threshold
    /// scores may use this.
    pub fn decide_score(
        &self,
        a: &RawRecord,
        b: &RawRecord,
        threshold: f64,
        abandoned: &mut u64,
    ) -> f64 {
        if self.total_weight == 0.0 {
            return 0.0;
        }
        let target = threshold * self.total_weight;
        // -0.0 is `Iterator::sum::<f64>()`'s fold identity; starting there
        // keeps `acc` bitwise equal to the `.sum()` in `score` even when
        // every term is a negative zero (e.g. disjoint-gram cosine).
        let mut acc = -0.0f64;
        for (i, rule) in self.rules.iter().enumerate() {
            // The score rule i must reach assuming every later rule scores a
            // perfect 1.0. `score_at_least` only abandons when its measure
            // bound misses this by more than the FP safety margin.
            let needed = (target - acc - self.suffix_weight[i]) / rule.weight;
            match rule.measure.score_at_least(
                &a.fields[rule.column],
                &b.fields[rule.column],
                needed,
            ) {
                Some(s) => acc += rule.weight * s,
                None => {
                    *abandoned += 1;
                    return f64::NEG_INFINITY;
                }
            }
        }
        acc / self.total_weight
    }
}

/// Lazily compiles rules per column arity. Records almost always share one
/// arity (one compile per resolve); mixed-arity inputs still score exactly as
/// the old per-pair rule derivation did, because the effective rules depend
/// only on `min(|a|, |b|)`.
struct RuleCache<'c> {
    config: &'c ResolverConfig,
    compiled: Vec<Option<CompiledRules>>,
}

impl<'c> RuleCache<'c> {
    fn new(config: &'c ResolverConfig) -> Self {
        RuleCache {
            config,
            compiled: Vec::new(),
        }
    }

    fn get(&mut self, num_columns: usize) -> &CompiledRules {
        if self.compiled.len() <= num_columns {
            self.compiled.resize_with(num_columns + 1, || None);
        }
        self.compiled[num_columns]
            .get_or_insert_with(|| CompiledRules::compile(self.config, num_columns))
    }
}

/// Minimum candidate count before scoring shards across the pool — below
/// this, chunk bookkeeping (and the one-time record copy the `'static` pool
/// tasks need) costs more than it saves.
const MIN_PARALLEL_PAIRS: usize = 512;

/// Flushes this thread's kernel-path counters plus a chunk's abandoned-pair
/// count into the global metrics registry. Called once per scored chunk so
/// the kernels themselves never touch an atomic; registration is
/// unconditional (`add(0)` is a no-op) so the series exist as soon as any
/// scoring has run.
fn flush_kernel_metrics(abandoned: u64) {
    const CALLS_HELP: &str = "Similarity kernel invocations by string path";
    let (ascii, unicode) = take_kernel_path_counts();
    ec_obs::counter_with(
        "ec_resolution_kernel_calls_total",
        CALLS_HELP,
        &[("path", "ascii")],
    )
    .add(ascii);
    ec_obs::counter_with(
        "ec_resolution_kernel_calls_total",
        CALLS_HELP,
        &[("path", "unicode")],
    )
    .add(unicode);
    ec_obs::counter(
        "ec_resolution_pairs_abandoned_total",
        "Candidate pairs skipped by threshold early-abandon before exact scoring",
    )
    .add(abandoned);
}

/// Scores one contiguous chunk of pairs on the calling thread. With
/// `threshold: None` every returned value is the exact pair score; with
/// `Some(t)` pairs may be early-abandoned to `f64::NEG_INFINITY` (provably
/// `< t`), and values `>= t` are always exact.
fn score_chunk(
    config: &ResolverConfig,
    records: &[RawRecord],
    pairs: &[(u32, u32)],
    threshold: Option<f64>,
) -> Vec<f64> {
    let mut cache = RuleCache::new(config);
    let mut abandoned = 0u64;
    let out = pairs
        .iter()
        .map(|&(a, b)| {
            let (ra, rb) = (&records[a as usize], &records[b as usize]);
            let compiled = cache.get(ra.fields.len().min(rb.fields.len()));
            match threshold {
                None => compiled.score(ra, rb),
                Some(t) => compiled.decide_score(ra, rb, t, &mut abandoned),
            }
        })
        .collect();
    flush_kernel_metrics(abandoned);
    out
}

/// Scores `pairs` of `records`: small or sequential workloads run in place;
/// larger ones shard into contiguous chunks over the worker pool and merge
/// the per-chunk scores in order — the same in-order merge pattern as
/// `ec-replace`'s candidate generation, so the output is bit-identical to the
/// sequential loop at any thread count. The records sit behind an `Arc`
/// because the pool needs `'static` tasks; no record is copied.
pub(crate) fn score_pairs(
    config: &ResolverConfig,
    parallelism: Parallelism,
    records: &Arc<Vec<RawRecord>>,
    pairs: &[(u32, u32)],
    threshold: Option<f64>,
) -> Vec<f64> {
    let shards = parallelism.shards(pairs.len());
    if pairs.len() < MIN_PARALLEL_PAIRS || shards <= 1 {
        return score_chunk(config, records, pairs, threshold);
    }
    let chunk = pairs.len().div_ceil(shards);
    let pairs = Arc::new(pairs.to_vec());
    let config = Arc::new(config.clone());
    let tasks: Vec<PoolTask<Vec<f64>>> = (0..shards)
        .map(|s| {
            let records = Arc::clone(records);
            let pairs = Arc::clone(&pairs);
            let config = Arc::clone(&config);
            Box::new(move || {
                let lo = s * chunk;
                let hi = ((s + 1) * chunk).min(pairs.len());
                score_chunk(&config, &records, &pairs[lo..hi], threshold)
            }) as PoolTask<Vec<f64>>
        })
        .collect();
    parallelism.run_tasks(tasks).into_iter().flatten().collect()
}

/// The entity resolver.
#[derive(Debug, Clone)]
pub struct Resolver {
    config: ResolverConfig,
    parallelism: Parallelism,
}

impl Resolver {
    /// Creates a resolver with the given configuration.
    pub fn new(config: ResolverConfig) -> Self {
        Resolver {
            config,
            parallelism: Parallelism::AUTO,
        }
    }

    /// Sets how many threads pair scoring may shard across. Results are
    /// bit-identical for every value; the knob only trades wall-clock time
    /// for cores.
    pub fn with_parallelism(mut self, parallelism: Parallelism) -> Self {
        self.parallelism = parallelism;
        self
    }

    /// The scoring parallelism in use.
    pub fn parallelism(&self) -> Parallelism {
        self.parallelism
    }

    /// The configuration in use.
    pub fn config(&self) -> &ResolverConfig {
        &self.config
    }

    /// Scores one record pair with the configured rules.
    pub fn score_pair(&self, a: &RawRecord, b: &RawRecord) -> f64 {
        CompiledRules::compile(&self.config, a.fields.len().min(b.fields.len())).score(a, b)
    }

    /// A fresh resolution state with this resolver's configuration and
    /// parallelism, holding `records`.
    fn state_of(&self, records: &[RawRecord]) -> DeltaResolver {
        let mut state = DeltaResolver::new(self.config.clone()).with_parallelism(self.parallelism);
        for record in records {
            state.push(record.clone());
        }
        state
    }

    /// Generates candidate pairs and scores each one. Decisions are returned
    /// sorted by record indices, one per distinct pair — the only entry point
    /// that sorts and dedups the candidate pairs, since it is the only one
    /// that reports them — and every score is exact: it never early-abandons
    /// and never consults the decision cache.
    pub fn match_pairs(&self, records: &[RawRecord]) -> Vec<MatchDecision> {
        let mut state = self.state_of(records);
        let candidates = state.candidate_pairs();
        let _span = ec_obs::span!("resolution.scoring", candidates.len());
        let scores = score_pairs(
            &self.config,
            self.parallelism,
            state.records(),
            &candidates,
            None,
        );
        candidates
            .into_iter()
            .zip(scores)
            .map(|((a, b), score)| MatchDecision {
                a: a as usize,
                b: b as usize,
                score,
                is_match: score >= self.config.threshold,
            })
            .collect()
    }

    /// Resolves the records into clusters of record indices (the transitive
    /// closure of the pairwise match decisions). Singleton clusters are kept:
    /// a record that matches nothing is still an entity. The clusters are
    /// identical to thresholding [`Resolver::match_pairs`].
    pub fn resolve(&self, records: &[RawRecord]) -> Vec<Vec<usize>> {
        self.state_of(records).snapshot_with(|_, clusters| clusters)
    }

    /// Resolves the records and packages the clusters as an
    /// [`ec_data::Dataset`]. `truths`, when provided, supplies the latent true
    /// value of each record's columns (used only for evaluation); otherwise
    /// each cell's truth is set to its observed value.
    ///
    /// # Panics
    /// Panics when `truths` is provided with a length different from
    /// `records`.
    pub fn resolve_to_dataset(
        &self,
        name: &str,
        columns: Vec<String>,
        records: &[RawRecord],
        truths: Option<&[Vec<String>]>,
    ) -> Dataset {
        if let Some(t) = truths {
            assert_eq!(t.len(), records.len(), "one truth row per record required");
        }
        let mut dataset = Dataset::new(name, columns);
        self.state_of(records).snapshot_with(|records, clusters| {
            fill_dataset(&mut dataset, records, &clusters, truths)
        });
        dataset
    }

    /// Streaming entry point: consumes a [`RecordStream`] record-at-a-time
    /// into one resolution state and takes one snapshot, packaged as a
    /// [`Dataset`] exactly as [`Resolver::resolve_to_dataset`] (with each
    /// cell's truth set to its observed value) would. The input document is
    /// never materialized, and per-block state is bounded by the blocking
    /// configuration's `max_block_size`.
    pub fn resolve_stream<S: RecordStream + ?Sized>(
        &self,
        name: &str,
        stream: &mut S,
    ) -> Result<Dataset, DatasetIoError> {
        let columns = stream.columns().to_vec();
        let mut state = self.state_of(&[]);
        while let Some(record) = stream.next_record() {
            state.push(record?);
        }
        Ok(state.snapshot(name, columns))
    }
}

/// Packages resolved clusters of record indices into `dataset` — the one
/// packaging every dataset-producing entry point shares, fresh or refilled.
/// Its clusters, rows and cells are reused: every cell string is
/// overwritten with `clone_from` (which keeps the old allocation when it
/// fits), and clusters, rows and cells are truncated or pushed to the new
/// shape, so refilling the previous snapshot's dataset costs no allocation
/// where the shape held and the result equals filling an empty one. The
/// golden record of a cluster is unknown at resolution time; the per-column
/// majority of truths serves as the best available label. `truths`, when
/// given, holds one truth row per record; otherwise truth := observed.
pub(crate) fn fill_dataset(
    dataset: &mut Dataset,
    records: &[RawRecord],
    clusters: &[Vec<usize>],
    truths: Option<&[Vec<String>]>,
) {
    dataset.clusters.truncate(clusters.len());
    for (c, member_ids) in clusters.iter().enumerate() {
        if c == dataset.clusters.len() {
            dataset.clusters.push(Cluster::default());
        }
        let cluster = &mut dataset.clusters[c];
        cluster.rows.truncate(member_ids.len());
        for (r, &id) in member_ids.iter().enumerate() {
            let record = &records[id];
            if r == cluster.rows.len() {
                cluster.rows.push(Row {
                    source: record.source,
                    cells: Vec::with_capacity(record.fields.len()),
                });
            }
            let row = &mut cluster.rows[r];
            row.source = record.source;
            row.cells.truncate(record.fields.len());
            for (col, observed) in record.fields.iter().enumerate() {
                let truth = truths.map_or(observed, |t| &t[id][col]);
                match row.cells.get_mut(col) {
                    Some(cell) => {
                        cell.observed.clone_from(observed);
                        cell.truth.clone_from(truth);
                    }
                    None => row.cells.push(Cell {
                        observed: observed.clone(),
                        truth: truth.clone(),
                    }),
                }
            }
        }
        let num_cols = cluster.rows.first().map_or(0, |r| r.cells.len());
        cluster.golden = ec_data::majority_golden(&cluster.rows, num_cols);
    }
}

impl Default for Resolver {
    fn default() -> Self {
        Resolver::new(ResolverConfig::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::unionfind::UnionFind;

    fn lee_smith_records() -> Vec<RawRecord> {
        vec![
            RawRecord::new(0, ["Mary Lee", "9 St, 02141 Wisconsin"]),
            RawRecord::new(1, ["M. Lee", "9th St, 02141 WI"]),
            RawRecord::new(2, ["Lee, Mary", "9 Street, 02141 WI"]),
            RawRecord::new(0, ["Smith, James", "5th St, 22701 California"]),
            RawRecord::new(1, ["James Smith", "3rd E Ave, 33990 California"]),
            RawRecord::new(2, ["J. Smith", "3 E Avenue, 33990 CA"]),
            RawRecord::new(0, ["Alice Wonder", "42 Rabbit Hole Ln"]),
        ]
    }

    #[test]
    fn resolver_reconstructs_the_paper_table1_clusters() {
        let config = ResolverConfig {
            rules: vec![
                ColumnRule {
                    column: 0,
                    measure: SimilarityMeasure::Jaccard,
                    weight: 1.0,
                },
                ColumnRule {
                    column: 1,
                    measure: SimilarityMeasure::QgramCosine(2),
                    weight: 1.0,
                },
            ],
            threshold: 0.5,
            ..ResolverConfig::default()
        };
        let clusters = Resolver::new(config).resolve(&lee_smith_records());
        // The Lee records (0,1,2) and Smith records (3,4,5) cluster; Alice is a singleton.
        let lee = clusters.iter().find(|c| c.contains(&0)).unwrap();
        assert!(
            lee.contains(&2),
            "Lee, Mary should join Mary Lee: {clusters:?}"
        );
        let smith = clusters.iter().find(|c| c.contains(&4)).unwrap();
        assert!(
            smith.contains(&3),
            "Smith, James should join James Smith: {clusters:?}"
        );
        assert!(
            clusters.iter().any(|c| c == &vec![6]),
            "Alice must stay a singleton"
        );
        assert!(!lee.contains(&4), "Lees and Smiths must not merge");
    }

    #[test]
    fn score_pair_is_symmetric_and_bounded() {
        // Symmetry is load-bearing: the resolution state's decision cache
        // canonicalizes its key by value order, so one cached decision must
        // serve both argument orders.
        let resolver = Resolver::default();
        let records = lee_smith_records();
        for a in &records {
            for b in &records {
                let s1 = resolver.score_pair(a, b);
                let s2 = resolver.score_pair(b, a);
                assert_eq!(s1, s2, "{:?} vs {:?}", a.fields, b.fields);
                assert!((0.0..=1.0).contains(&s1));
            }
        }
        assert!((resolver.score_pair(&records[0], &records[0]) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn threshold_one_keeps_everything_apart() {
        let config = ResolverConfig {
            threshold: 1.01,
            ..ResolverConfig::default()
        };
        let clusters = Resolver::new(config).resolve(&lee_smith_records());
        assert_eq!(clusters.len(), lee_smith_records().len());
    }

    #[test]
    fn empty_and_single_record_inputs() {
        let resolver = Resolver::default();
        assert!(resolver.resolve(&[]).is_empty());
        assert!(resolver.match_pairs(&[]).is_empty());
        let one = vec![RawRecord::new(0, ["only"])];
        assert_eq!(resolver.resolve(&one), vec![vec![0]]);
    }

    #[test]
    fn match_decisions_report_scores_and_candidates_only() {
        let resolver = Resolver::default();
        let decisions = resolver.match_pairs(&lee_smith_records());
        assert!(!decisions.is_empty());
        for d in &decisions {
            assert!(d.a < d.b);
            assert!((0.0..=1.0).contains(&d.score));
            assert_eq!(d.is_match, d.score >= resolver.config().threshold);
        }
    }

    #[test]
    fn resolve_to_dataset_round_trips_sources_and_truths() {
        let records = lee_smith_records();
        let truths: Vec<Vec<String>> = records
            .iter()
            .map(|r| {
                let name = if r.fields[0].contains("Lee") {
                    "Mary Lee"
                } else if r.fields[0].contains("Smith") {
                    "James Smith"
                } else {
                    "Alice Wonder"
                };
                vec![name.to_string(), r.fields[1].clone()]
            })
            .collect();
        let config = ResolverConfig {
            rules: vec![ColumnRule {
                column: 0,
                measure: SimilarityMeasure::Jaccard,
                weight: 1.0,
            }],
            threshold: 0.45,
            ..ResolverConfig::default()
        };
        let dataset = Resolver::new(config).resolve_to_dataset(
            "resolved",
            vec!["Name".to_string(), "Address".to_string()],
            &records,
            Some(&truths),
        );
        assert_eq!(dataset.num_records(), records.len());
        assert_eq!(dataset.columns.len(), 2);
        // Ground truth flows through to the cells and the cluster goldens.
        let lee_cluster = dataset
            .clusters
            .iter()
            .find(|c| c.rows.iter().any(|r| r.cells[0].observed == "Mary Lee"))
            .unwrap();
        assert!(lee_cluster
            .rows
            .iter()
            .all(|r| r.cells[0].truth == "Mary Lee"));
        assert_eq!(lee_cluster.golden[0], "Mary Lee");
    }

    #[test]
    fn resolve_to_dataset_without_truths_uses_observed_values() {
        let records = vec![RawRecord::new(3, ["a"]), RawRecord::new(4, ["b"])];
        let dataset =
            Resolver::default().resolve_to_dataset("plain", vec!["x".to_string()], &records, None);
        for cluster in &dataset.clusters {
            for row in &cluster.rows {
                assert_eq!(row.cells[0].observed, row.cells[0].truth);
            }
        }
        let sources: Vec<usize> = dataset
            .clusters
            .iter()
            .flat_map(|c| c.rows.iter().map(|r| r.source))
            .collect();
        assert!(sources.contains(&3) && sources.contains(&4));
    }

    #[test]
    #[should_panic(expected = "one truth row per record")]
    fn mismatched_truths_panic() {
        let records = vec![RawRecord::new(0, ["a"])];
        Resolver::default().resolve_to_dataset("bad", vec!["x".to_string()], &records, Some(&[]));
    }

    #[test]
    fn sharded_scoring_is_bit_identical_to_sequential() {
        // Enough overlapping records that the candidate count clears
        // MIN_PARALLEL_PAIRS and sharding actually engages.
        let records: Vec<RawRecord> = (0..120)
            .map(|i| {
                RawRecord::new(
                    i % 3,
                    [
                        format!("shared name{}", i % 40),
                        format!("addr {} st", i % 7),
                    ],
                )
            })
            .collect();
        let config = ResolverConfig {
            threshold: 0.6,
            ..ResolverConfig::default()
        };
        let seq = Resolver::new(config.clone()).with_parallelism(Parallelism::SEQUENTIAL);
        let par = Resolver::new(config).with_parallelism(Parallelism::fixed(4));
        let a = seq.match_pairs(&records);
        let b = par.match_pairs(&records);
        assert!(
            a.len() >= MIN_PARALLEL_PAIRS,
            "workload must engage sharding"
        );
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!((x.a, x.b), (y.a, y.b));
            assert_eq!(x.score.to_bits(), y.score.to_bits());
            assert_eq!(x.is_match, y.is_match);
        }
        assert_eq!(seq.resolve(&records), par.resolve(&records));
    }

    #[test]
    fn decide_score_agrees_with_exact_threshold_decisions() {
        let records = lee_smith_records();
        for threshold in [0.3, 0.5, 0.75, 0.9] {
            let config = ResolverConfig {
                threshold,
                ..ResolverConfig::default()
            };
            let compiled = CompiledRules::compile(&config, 2);
            let mut abandoned = 0;
            for a in &records {
                for b in &records {
                    let exact = compiled.score(a, b);
                    let decided = compiled.decide_score(a, b, threshold, &mut abandoned);
                    if decided.is_finite() {
                        assert_eq!(decided.to_bits(), exact.to_bits());
                    } else {
                        assert!(exact < threshold, "abandoned pair scored {exact}");
                    }
                    assert_eq!(decided >= threshold, exact >= threshold);
                }
            }
        }
    }

    #[test]
    fn resolve_with_early_abandon_matches_thresholded_match_pairs() {
        // Pairs with wildly different lengths provoke actual abandons; the
        // clusters must still equal the exact-scoring path's.
        let mut records = lee_smith_records();
        records.push(RawRecord::new(0, ["M", "9"]));
        records.push(RawRecord::new(
            1,
            ["Mary Lee Extraordinarily Long Name Variant", "9th St"],
        ));
        let resolver = Resolver::new(ResolverConfig {
            threshold: 0.9,
            ..ResolverConfig::default()
        });
        assert_eq!(
            resolver.resolve(&records),
            thresholded_match_pairs(&resolver, &records)
        );
    }

    /// The clusters of thresholding `match_pairs` — the exact-score oracle.
    fn thresholded_match_pairs(resolver: &Resolver, records: &[RawRecord]) -> Vec<Vec<usize>> {
        let mut uf = UnionFind::new(records.len());
        for d in resolver.match_pairs(records) {
            if d.is_match {
                uf.union(d.a, d.b);
            }
        }
        uf.into_groups()
    }

    #[test]
    fn mixed_arity_records_resolve_in_either_order() {
        // Blocking locks its columns to the first record's arity; a later
        // record lacking one of them blocks on the rest, and scoring uses the
        // rules of the shorter record.
        let long = RawRecord::new(0, ["Mary Lee", "9 St"]);
        let short = RawRecord::new(1, ["Mary Lee"]);
        let resolver = Resolver::default();
        for records in [
            vec![long.clone(), short.clone()],
            vec![short.clone(), long.clone()],
        ] {
            let clusters = resolver.resolve(&records);
            assert_eq!(clusters, vec![vec![0, 1]]);
            assert_eq!(clusters, thresholded_match_pairs(&resolver, &records));
        }
    }

    #[test]
    fn blocking_scheme_variants_all_work() {
        let records = lee_smith_records();
        for scheme in [
            BlockingScheme::Token,
            BlockingScheme::SortedNeighborhood,
            BlockingScheme::Both,
        ] {
            let config = ResolverConfig {
                scheme,
                ..ResolverConfig::default()
            };
            let clusters = Resolver::new(config).resolve(&records);
            let total: usize = clusters.iter().map(Vec::len).sum();
            assert_eq!(total, records.len(), "{scheme:?} must cover every record");
        }
    }
}
