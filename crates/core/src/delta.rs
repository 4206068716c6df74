//! Library-first incremental ingest — the `DeltaPipeline` orchestrator.
//!
//! The paper's loop is offline: every run re-resolves all records and re-runs
//! pivot search over every candidate replacement. A production service should
//! pay that cost only for *novel* variation. This module keeps the whole
//! pipeline state alive between batches and re-derives each batch's output as
//! a full logical rerun in which the expensive pieces are memoized:
//!
//! * **Resolution** rides on [`DeltaResolver`]: records are pushed once,
//!   blocks and the sorted-neighborhood key list grow incrementally, and match
//!   decisions are cached by value content, so a batch of already-seen values
//!   scores nothing. What a batch still redoes over the whole state is
//!   copy-free but O(state):
//!   - the snapshot streams every candidate pair out of the blocks unsorted
//!     and rebuilds the union-find. It looks a pair's decision up only when
//!     the pair involves a record of this batch or its records are not yet
//!     connected. The skip is exact: a pair of two older records was a
//!     candidate at the previous snapshot too (token blocks only gain ids or
//!     become tombstones; a sorted-neighborhood insertion only widens the
//!     gaps between old records), so its decision is already cached;
//!   - the snapshot refills the dataset the previous batch produced in
//!     place (cell strings overwritten with `clone_from`, clusters and rows
//!     truncated or pushed) and re-votes every cluster's label;
//!   - the review loop moves each column's strings into the engine and back
//!     instead of copying them;
//!   - truth discovery reruns over the whole dataset.
//!
//!   Both votes presize their counts to the cluster, so the giant cluster
//!   of a feed costs one keyed hash per vote and no rehashing.
//! * **Candidate generation** is cached per cluster, keyed by the cluster's
//!   value vector; a cluster over the distinct-value cap contributes no
//!   candidates and skips the cache. Clusters are independent
//!   (`generate_candidates` shards by cluster), and the union-find emits
//!   clusters ordered by smallest member, so cluster order is stable under
//!   appends and the merged candidate set is bit-identical to a fresh global
//!   generation.
//! * **Grouping** reuses prepared structure partitions: a partition whose
//!   members are unchanged reuses its [`PreparedGraphs`] as-is; a partition
//!   that only gained members at the end grows via
//!   [`PreparedGraphs::append`] (new postings appended to the CSR index, only
//!   touched label ranges re-sorted); anything else is rebuilt. When the whole
//!   candidate list of a column is unchanged — the steady state for batches of
//!   seen shapes — the previously emitted group sequence is replayed without
//!   touching the grouper at all (group emission order depends only on the
//!   candidate list and the grouping config, never on oracle verdicts).
//!
//! The oracle review itself is re-run every batch, through the same column
//! driver and review loop as the one-shot pipeline (simulated-oracle verdicts
//! depend on current cluster contents and are cheap), and truth
//! discovery runs over the full standardized dataset, so after any sequence
//! of batches the standardized dataset and golden records are exactly what a
//! one-shot run over the union of all inputs would produce — byte-identical,
//! at any thread count.
//!
//! The **fast path** is an accounting lens over the same machinery: a record
//! whose every field is either an already-seen value or is mapped onto one by
//! the [`ProgramLibrary`] counts as a *library hit* (its consolidation outcome
//! is already determined — resolution finds its twin via the pair cache and
//! grouping replays); everything else is *residue* that pays for new pair
//! scores, candidate generation and pivot searches. The hit/residue split is
//! reported per batch and drives the serve-layer `X-Ec-Library-Hits` /
//! `X-Ec-Library-Misses` counters.
//!
//! Retention rule: after each batch a column's caches hold exactly the live
//! state — the contributions keyed by the value vectors of the current
//! clusters under the distinct-value cap,
//! the prepared partitions of the structures in the current candidate list,
//! and the one group sequence. The contribution map is rebuilt from each
//! batch's hits and misses, the partition map from each new emission, so an
//! entry a cluster has outgrown (or that a split left behind) is dropped, and
//! the caches are bounded by the input rather than by the session's history.
//! A shape that comes back later is regenerated.

use crate::consolidate::{review_columns, write_golden_records_csv, AutoMode, AutoReview};
use crate::library::{ProgramLibrary, ValueOutcome};
use crate::pipeline::{ColumnReport, ColumnSource, ConsolidationConfig, Pipeline, TruthMethod};
use ec_data::Dataset;
use ec_graph::{structure::replacement_structure, Replacement, ReplacementStructure};
use ec_grouping::{
    partition_replacements, Group, GroupingConfig, PreparedGraphs, StructuredGrouper,
};
use ec_replace::{generate_candidates, CandidateSet, CellRef, ReplacementEngine};
use ec_resolution::{DeltaResolver, RawRecord, ResolverConfig};
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

/// Per-batch outcome of [`DeltaPipeline::ingest_batch`].
#[derive(Debug, Clone, PartialEq)]
pub struct BatchReport {
    /// Records in this batch.
    pub batch_records: usize,
    /// Records ingested so far, across all batches.
    pub total_records: usize,
    /// Clusters after resolving this batch.
    pub clusters: usize,
    /// Batch records on the fast path: every field was an already-seen value
    /// or was mapped onto one by the program library.
    pub library_hits: usize,
    /// Batch records that entered the residue path (`batch_records -
    /// library_hits`).
    pub residue: usize,
    /// Columns whose group sequence was replayed from cache because the
    /// candidate list was unchanged (no pivot search ran at all).
    pub replayed_columns: usize,
    /// Per-column standardization reports, identical in shape to the one-shot
    /// pipeline's.
    pub columns: Vec<ColumnReport>,
}

/// Cached grouping state of one structure partition.
struct CachedPartition {
    members: Vec<Replacement>,
    prepared: Arc<PreparedGraphs>,
}

/// Registry handles for the delta pipeline's cache behaviour.
struct IngestMetrics {
    cache_hits: ec_obs::Counter,
    cache_misses: ec_obs::Counter,
    replayed_columns: ec_obs::Counter,
}

fn ingest_metrics() -> &'static IngestMetrics {
    static METRICS: std::sync::OnceLock<IngestMetrics> = std::sync::OnceLock::new();
    METRICS.get_or_init(|| IngestMetrics {
        cache_hits: ec_obs::counter(
            "ec_ingest_cache_hits_total",
            "Cluster value vectors whose candidate contribution was served from cache.",
        ),
        cache_misses: ec_obs::counter(
            "ec_ingest_cache_misses_total",
            "Cluster value vectors whose candidate contribution had to be generated.",
        ),
        replayed_columns: ec_obs::counter(
            "ec_ingest_replayed_columns_total",
            "Columns whose group sequence was replayed without any pivot search.",
        ),
    })
}

/// The memoized per-column state: exactly what the latest snapshot used.
#[derive(Default)]
struct ColumnCache {
    /// Candidate contributions keyed by a cluster's value vector (the
    /// contribution's [`CellRef`]s carry cluster index 0 and are rebound on
    /// merge).
    contributions: HashMap<Vec<String>, CandidateSet>,
    /// The last emitted group sequence, keyed by the exact candidate list it
    /// was computed from. At most `budget` groups are stored; the review loop
    /// shares the sequence and clones only the groups it approves.
    groups: Option<(Vec<Replacement>, Arc<[Group]>)>,
    /// Prepared graphs per structure partition, grown via
    /// [`PreparedGraphs::append`] when members only get appended.
    partitions: HashMap<ReplacementStructure, CachedPartition>,
}

/// The incremental ingest orchestrator: feed record batches with
/// [`DeltaPipeline::ingest_batch`], read the consolidated state back with
/// [`DeltaPipeline::standardized`] / [`DeltaPipeline::write_golden_csv`].
pub struct DeltaPipeline {
    resolver: DeltaResolver,
    pipeline: Pipeline,
    mode: AutoMode,
    truth: TruthMethod,
    library: ProgramLibrary,
    /// Raw observed values per column, for fast-path accounting.
    seen_values: Vec<HashSet<String>>,
    caches: Vec<ColumnCache>,
    /// The standardized dataset of the latest batch, which the next batch's
    /// snapshot refills in place (empty, under the schema, before the first).
    dataset: Dataset,
    golden: Vec<Vec<Option<String>>>,
    batches: usize,
}

impl DeltaPipeline {
    /// Creates an empty pipeline over the given schema and configuration.
    pub fn new(
        name: &str,
        columns: Vec<String>,
        resolver: ResolverConfig,
        consolidation: ConsolidationConfig,
        mode: AutoMode,
        truth: TruthMethod,
    ) -> Self {
        let num_columns = columns.len();
        let parallelism = consolidation.candidates.parallelism;
        DeltaPipeline {
            resolver: DeltaResolver::new(resolver).with_parallelism(parallelism),
            pipeline: Pipeline::new(consolidation),
            mode,
            truth,
            library: ProgramLibrary::new(),
            seen_values: (0..num_columns).map(|_| HashSet::new()).collect(),
            caches: (0..num_columns).map(|_| ColumnCache::default()).collect(),
            dataset: Dataset::new(name, columns),
            golden: Vec::new(),
            batches: 0,
        }
    }

    /// The column names.
    pub fn columns(&self) -> &[String] {
        &self.dataset.columns
    }

    /// Batches ingested so far.
    pub fn batches(&self) -> usize {
        self.batches
    }

    /// The programs learned so far (grows as batches approve groups).
    pub fn library(&self) -> &ProgramLibrary {
        &self.library
    }

    /// The standardized dataset after the latest batch (`None` before the
    /// first batch).
    pub fn standardized(&self) -> Option<&Dataset> {
        (self.batches > 0).then_some(&self.dataset)
    }

    /// Writes the current golden records as CSV — the same serialization the
    /// one-shot pipeline uses, so delta and full-rebuild outputs can be
    /// byte-compared.
    pub fn write_golden_csv(&self, out: &mut dyn std::io::Write) -> std::io::Result<()> {
        write_golden_records_csv(&self.dataset.columns, &self.golden, out)
    }

    /// True when every field of `record` is an already-seen value or is
    /// mapped onto one by the learned library — i.e. the record's shape is
    /// fully known and its consolidation outcome is already determined.
    fn is_library_hit(&self, record: &RawRecord) -> bool {
        if record.fields.is_empty() {
            return false;
        }
        let columns = self.columns();
        record
            .fields
            .iter()
            .take(columns.len())
            .enumerate()
            .all(|(col, field)| {
                if self.seen_values[col].contains(field) {
                    return true;
                }
                match self.library.standardize_value(&columns[col], field) {
                    ValueOutcome::Rewritten(v) => self.seen_values[col].contains(&v),
                    ValueOutcome::Unchanged => true,
                    ValueOutcome::Unmatched => false,
                }
            })
    }

    /// Ingests one batch: resolves the records into the incremental cluster
    /// state, re-standardizes every column (replaying cached group sequences
    /// where the candidates are unchanged), records newly approved groups
    /// into the library, and re-runs truth discovery.
    pub fn ingest_batch(&mut self, records: Vec<RawRecord>) -> BatchReport {
        // Fast-path accounting against the state *before* this batch: a hit
        // means the record would be resolved by lookups alone.
        let hits = records.iter().filter(|r| self.is_library_hit(r)).count();
        let batch_records = records.len();

        let num_columns = self.columns().len();
        for record in records {
            for (col, field) in record.fields.iter().take(num_columns).enumerate() {
                if !self.seen_values[col].contains(field) {
                    self.seen_values[col].insert(field.clone());
                }
            }
            self.resolver.push(record);
        }

        // The snapshot refills the dataset the previous batch produced.
        self.resolver.snapshot_into(&mut self.dataset);
        let clusters = self.dataset.clusters.len();

        // Resolver snapshots always carry ground truth (truth := observed),
        // so the oracle selection matches the one-shot path with
        // `has_truth = true`. Oracles are rebuilt every batch: simulated
        // verdicts depend on current cluster contents and are never replayed.
        let mut replayed_columns = 0;
        let (caches, config) = (&mut self.caches, self.pipeline.config());
        let source = |dataset: &mut Dataset, col: usize| {
            let values = dataset.take_column_values(col);
            let (source, replayed) = delta_column(&mut caches[col], config, values);
            replayed_columns += usize::from(replayed);
            source
        };
        let columns: Vec<usize> = (0..num_columns).collect();
        let reports = review_columns(
            &self.pipeline,
            &mut self.dataset,
            &columns,
            source,
            &mut AutoReview::new(self.mode, true),
            Some(&mut self.library),
        );
        ingest_metrics()
            .replayed_columns
            .add(replayed_columns as u64);
        self.golden = self
            .pipeline
            .discover_golden_records(&self.dataset, self.truth);
        self.batches += 1;

        BatchReport {
            batch_records,
            total_records: self.resolver.len(),
            clusters,
            library_hits: hits,
            residue: batch_records - hits,
            replayed_columns,
            columns: reports,
        }
    }
}

/// Merges per-cluster cached candidate contributions into the column's global
/// candidate set, generating the contribution of any cluster whose value
/// vector was not live in the previous snapshot. The cache keeps exactly the
/// contributions this snapshot uses. A cluster over the distinct-value cap
/// contributes nothing, so it is neither looked up nor cached (nor counted
/// as a hit or miss): its value vector is never cloned or hashed.
///
/// This reproduces `generate_candidates(&values, config)` exactly: clusters
/// are independent, contributions are appended in cluster order (first-seen
/// candidate order equals the sequential scan's), and cells from different
/// clusters are always distinct so the per-cell dedup scan can be skipped.
fn merged_candidates(
    cache: &mut ColumnCache,
    values: &[Vec<String>],
    config: &ConsolidationConfig,
) -> CandidateSet {
    let mut previous = std::mem::take(&mut cache.contributions);
    let (mut looked_up, mut misses) = (0, 0);
    let mut merged = CandidateSet::default();
    for (c, cluster_values) in values.iter().enumerate() {
        if config.candidates.skips_cluster(cluster_values) {
            continue;
        }
        looked_up += 1;
        let contrib = match previous.remove_entry(cluster_values) {
            Some((key, set)) => cache.contributions.entry(key).or_insert(set),
            // A miss, or a value vector an earlier cluster of this snapshot
            // already moved over.
            None => cache
                .contributions
                .entry(cluster_values.clone())
                .or_insert_with(|| {
                    misses += 1;
                    generate_candidates(std::slice::from_ref(cluster_values), &config.candidates)
                }),
        };
        for r in &contrib.replacements {
            let cells = contrib.set(r);
            merged
                .sets
                .entry(r.clone())
                .or_insert_with(|| {
                    merged.replacements.push(r.clone());
                    Vec::new()
                })
                .extend(cells.iter().map(|cell| CellRef {
                    cluster: c,
                    row: cell.row,
                }));
        }
    }
    let metrics = ingest_metrics();
    metrics.cache_hits.add(looked_up - misses);
    metrics.cache_misses.add(misses);
    merged
}

/// Returns the prepared graphs for one structure partition, reusing or
/// growing the partition's state from the previous emission (taken out of
/// `previous`) when possible, and records the state in `partitions`.
fn prepared_for(
    previous: &mut HashMap<ReplacementStructure, CachedPartition>,
    partitions: &mut HashMap<ReplacementStructure, CachedPartition>,
    members: &[Replacement],
    grouping: &GroupingConfig,
) -> Arc<PreparedGraphs> {
    let Some(first) = members.first() else {
        return Arc::new(PreparedGraphs::build(members, grouping));
    };
    let sig = replacement_structure(first.lhs(), first.rhs());
    let cached = match previous.remove(&sig) {
        Some(cached) if cached.members == members => cached,
        Some(cached) if members.starts_with(&cached.members) => {
            // The partition only gained members at the end (the common case:
            // novel clusters append their candidates after all existing
            // ones) — grow it instead of rebuilding from scratch. The last
            // grouper is gone, so the graphs are usually grown in place.
            let mut grown = Arc::try_unwrap(cached.prepared).unwrap_or_else(|arc| (*arc).clone());
            grown.append(&members[cached.members.len()..], grouping);
            CachedPartition {
                members: members.to_vec(),
                prepared: Arc::new(grown),
            }
        }
        _ => CachedPartition {
            members: members.to_vec(),
            prepared: Arc::new(PreparedGraphs::build(members, grouping)),
        },
    };
    let prepared = Arc::clone(&cached.prepared);
    partitions.insert(sig, cached);
    prepared
}

/// Computes the group sequence a fresh `StructuredGrouper` would emit for
/// `candidates` (truncated at `budget` — the review loop never looks
/// further), reusing prepared partitions from the cache. Also returns how
/// many pivot searches exhausted their step budget on the way. The cache
/// keeps exactly the partitions of `candidates`.
fn emit_groups(
    cache: &mut ColumnCache,
    candidates: &[Replacement],
    grouping: &GroupingConfig,
    budget: usize,
) -> (Vec<Group>, usize) {
    let mut previous = std::mem::take(&mut cache.partitions);
    let compiled: Vec<(Vec<Replacement>, Arc<PreparedGraphs>)> =
        partition_replacements(candidates, grouping)
            .into_iter()
            .map(|members| {
                let prepared =
                    prepared_for(&mut previous, &mut cache.partitions, &members, grouping);
                (members, prepared)
            })
            .collect();
    let mut grouper = StructuredGrouper::from_compiled(compiled, grouping.clone());
    let mut seq = Vec::new();
    while seq.len() < budget {
        match grouper.next_group() {
            Some(g) => seq.push(g),
            None => break,
        }
    }
    (seq, grouper.searches_truncated())
}

/// Prepares one column of the snapshot, whose cell `values` the engine
/// takes over, for the review loop: merges the cached candidate
/// contributions, then replays the cached group sequence when the candidate
/// list is unchanged or recomputes (and caches) it otherwise. Returns the
/// source and whether the sequence was replayed.
fn delta_column(
    cache: &mut ColumnCache,
    config: &ConsolidationConfig,
    values: Vec<Vec<String>>,
) -> (ColumnSource<'static>, bool) {
    let merged = merged_candidates(cache, &values, config);
    let engine = ReplacementEngine::from_parts(values, merged);
    let candidates = engine.candidates();
    let count = candidates.len();
    let replayed = matches!(&cache.groups, Some((key, _)) if *key == candidates);
    // A replayed column runs no search, so nothing can be truncated.
    let searches_truncated = if replayed {
        0
    } else {
        let (seq, truncated) = emit_groups(cache, &candidates, &config.grouping, config.budget);
        cache.groups = Some((candidates, seq.into()));
        truncated
    };
    let (_, groups) = cache.groups.as_ref().expect("groups just cached");
    let source = ColumnSource::Replay {
        engine,
        candidates: count,
        groups: Arc::clone(groups),
        searches_truncated,
    };
    (source, replayed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::consolidate::standardize_columns;
    use ec_data::VecRecordStream;
    use ec_resolution::Resolver;

    const COLUMNS: [&str; 2] = ["Name", "Address"];

    /// A small corpus with enough shared variation that resolution clusters
    /// records and grouping finds multi-member groups.
    fn corpus() -> Vec<RawRecord> {
        let rows: Vec<(usize, [&str; 2])> = vec![
            (0, ["Mary Lee", "9 St, 02141 Wisconsin"]),
            (1, ["M. Lee", "9th St, 02141 WI"]),
            (2, ["Lee, Mary", "9 St, 02141 Wisconsin"]),
            (0, ["James Smith", "3rd E Ave, 33990 Wisconsin"]),
            (1, ["Smith, James", "3rd E Ave, 33990 WI"]),
            (2, ["J. Smith", "3rd E Ave, 33990 Wisconsin"]),
            (0, ["Anna Kim", "12 Oak St, 02141 Wisconsin"]),
            (1, ["Kim, Anna", "12 Oak St, 02141 WI"]),
            (0, ["Bob Stone", "7 Pine Ave, 33990 Wisconsin"]),
            (1, ["Stone, Bob", "7 Pine Ave, 33990 WI"]),
        ];
        rows.into_iter()
            .map(|(source, fields)| RawRecord::new(source, fields))
            .collect()
    }

    fn columns() -> Vec<String> {
        COLUMNS.iter().map(|c| c.to_string()).collect()
    }

    /// The one-shot path: resolve everything at once, standardize, discover
    /// golden records — exactly what `ec pipeline` does.
    fn one_shot(
        records: &[RawRecord],
        mode: AutoMode,
        config: &ConsolidationConfig,
    ) -> (Dataset, Vec<Vec<Option<String>>>, ProgramLibrary) {
        let resolver = Resolver::new(ResolverConfig::default());
        let mut stream = VecRecordStream::new(columns(), records.to_vec());
        let mut dataset = resolver.resolve_stream("delta-test", &mut stream).unwrap();
        let pipeline = Pipeline::new(config.clone());
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
        (dataset, golden, library)
    }

    fn golden_csv(delta: &DeltaPipeline) -> Vec<u8> {
        let mut csv = Vec::new();
        delta.write_golden_csv(&mut csv).unwrap();
        csv
    }

    fn one_shot_golden_csv(golden: &[Vec<Option<String>>]) -> Vec<u8> {
        let mut csv = Vec::new();
        write_golden_records_csv(&columns(), golden, &mut csv).unwrap();
        csv
    }

    fn delta_over_splits(
        records: &[RawRecord],
        boundaries: &[usize],
        mode: AutoMode,
    ) -> DeltaPipeline {
        let mut delta = DeltaPipeline::new(
            "delta-test",
            columns(),
            ResolverConfig::default(),
            ConsolidationConfig::default(),
            mode,
            TruthMethod::MajorityConsensus,
        );
        let mut start = 0;
        for &end in boundaries.iter().chain(std::iter::once(&records.len())) {
            delta.ingest_batch(records[start..end].to_vec());
            start = end;
        }
        delta
    }

    #[test]
    fn delta_batches_match_the_one_shot_pipeline() {
        let records = corpus();
        for mode in [AutoMode::ApproveAll, AutoMode::Auto] {
            let (expected, expected_golden, expected_library) =
                one_shot(&records, mode, &ConsolidationConfig::default());
            for boundaries in [vec![], vec![3], vec![1, 2, 5, 9], vec![4, 8]] {
                let delta = delta_over_splits(&records, &boundaries, mode);
                assert_eq!(
                    delta.standardized(),
                    Some(&expected),
                    "standardized dataset diverged (mode {mode:?}, splits {boundaries:?})"
                );
                assert_eq!(
                    golden_csv(&delta),
                    one_shot_golden_csv(&expected_golden),
                    "golden records diverged (mode {mode:?}, splits {boundaries:?})"
                );
                // The library must end up with the same learned programs.
                assert_eq!(delta.library().len(), expected_library.len());
            }
        }
    }

    #[test]
    fn seen_shape_batches_hit_the_fast_path_and_replay_groups() {
        let records = corpus();
        let mut delta = DeltaPipeline::new(
            "delta-test",
            columns(),
            ResolverConfig::default(),
            ConsolidationConfig::default(),
            AutoMode::ApproveAll,
            TruthMethod::MajorityConsensus,
        );
        let first = delta.ingest_batch(records.clone());
        assert_eq!(first.batch_records, records.len());
        assert_eq!(first.library_hits, 0, "nothing seen before the first batch");
        assert_eq!(first.residue, records.len());

        // Re-ingesting the same records: every value is seen, so every record
        // is a hit, no new candidate replacements appear, and every column
        // replays its cached group sequence.
        let second = delta.ingest_batch(records.clone());
        assert_eq!(second.library_hits, records.len());
        assert_eq!(second.residue, 0);
        assert_eq!(
            second.replayed_columns,
            columns().len(),
            "unchanged candidates must replay the cached group sequence"
        );
        // Reports stay structurally identical to the one-shot pipeline's.
        assert_eq!(second.columns.len(), columns().len());
        assert!(second.columns.iter().all(|c| c.column < columns().len()));
    }

    #[test]
    fn caches_hold_exactly_the_live_state_after_every_batch() {
        let records = corpus();
        // The default cap, and one low enough that the three-spelling name
        // clusters pass it.
        let mut lowered = ConsolidationConfig::default();
        lowered.candidates.max_distinct_values_per_cluster = Some(2);
        for config in [ConsolidationConfig::default(), lowered] {
            let mut delta = DeltaPipeline::new(
                "delta-test",
                columns(),
                ResolverConfig::default(),
                config.clone(),
                AutoMode::ApproveAll,
                TruthMethod::MajorityConsensus,
            );
            let (mut grown, mut over_cap) = (false, false);
            let mut start = 0;
            for end in [1, 2, 3, 5, 7, records.len()] {
                let clusters_before = delta.standardized().map_or(0, |d| d.clusters.len());
                let report = delta.ingest_batch(records[start..end].to_vec());
                // Fewer new clusters than new records: an existing one grew.
                grown |= report.clusters < clusters_before + (end - start);
                start = end;
                let (expected, expected_golden, _) =
                    one_shot(&records[..end], AutoMode::ApproveAll, &config);
                assert_eq!(delta.standardized(), Some(&expected), "after {end} records");
                assert_eq!(golden_csv(&delta), one_shot_golden_csv(&expected_golden));

                let snapshot = delta.resolver.snapshot("delta-test", columns());
                for (col, cache) in delta.caches.iter().enumerate() {
                    // Retention rule: one contribution per live value vector
                    // under the cap; a cluster over it has none (`live`
                    // leaves it out).
                    let values = snapshot.column_values(col);
                    let (skipped, live): (Vec<&Vec<String>>, Vec<&Vec<String>>) = values
                        .iter()
                        .partition(|v| config.candidates.skips_cluster(v));
                    over_cap |= !skipped.is_empty();
                    let live: HashSet<&Vec<String>> = live.into_iter().collect();
                    let cached: HashSet<&Vec<String>> = cache.contributions.keys().collect();
                    assert_eq!(cached, live, "column {col} after {end} records");

                    let candidates =
                        ReplacementEngine::new(values, &config.candidates).candidates();
                    let structures: HashSet<ReplacementStructure> = candidates
                        .iter()
                        .map(|r| replacement_structure(r.lhs(), r.rhs()))
                        .collect();
                    let partitions: HashSet<ReplacementStructure> =
                        cache.partitions.keys().cloned().collect();
                    assert_eq!(partitions, structures, "column {col} after {end} records");
                }
            }
            assert!(grown, "some batch must grow an existing cluster");
            let capped = config.candidates.max_distinct_values_per_cluster == Some(2);
            assert_eq!(over_cap, capped, "only the lowered cap is ever passed");
        }
    }

    #[test]
    fn empty_and_tiny_batches_are_harmless() {
        let mut delta = DeltaPipeline::new(
            "delta-test",
            columns(),
            ResolverConfig::default(),
            ConsolidationConfig::default(),
            AutoMode::ApproveAll,
            TruthMethod::MajorityConsensus,
        );
        let report = delta.ingest_batch(Vec::new());
        assert_eq!(report.batch_records, 0);
        assert_eq!(report.clusters, 0);
        assert_eq!(report.total_records, 0);
        let report = delta.ingest_batch(vec![RawRecord::new(0, ["Mary Lee", "9 St"])]);
        assert_eq!(report.total_records, 1);
        assert_eq!(report.clusters, 1);
        // The header and the one cluster's golden record.
        let golden = String::from_utf8(golden_csv(&delta)).unwrap();
        assert_eq!(golden.lines().count(), 2, "{golden}");
        assert_eq!(delta.batches(), 2);
    }
}
