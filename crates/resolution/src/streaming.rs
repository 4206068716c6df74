//! The incremental resolution state behind every entry point.
//!
//! A [`DeltaResolver`] holds everything resolution keeps per record: the
//! records themselves, the blocking state (token blocks with bounded
//! per-block memory and one sort key per record; see [`crate::blocking`]),
//! the interned field vectors, and a cache of match decisions keyed by the
//! two records' values. [`DeltaResolver::push`] ingests one record and
//! [`DeltaResolver::snapshot`] clusters everything pushed so far;
//! [`DeltaResolver::snapshot_into`] packages that clustering into a dataset
//! an earlier snapshot produced, reusing its allocations.
//!
//! Every way of resolving is that state plus a snapshot. Incremental ingest
//! keeps one state alive across batches and snapshots after each;
//! [`Resolver::resolve_stream`] pushes a [`ec_data::RecordStream`] record by
//! record (the input document is never materialized) and snapshots once;
//! [`Resolver::resolve`], [`Resolver::resolve_to_dataset`] and
//! [`Resolver::match_pairs`] do the same over a slice. One-shot resolution
//! is the degenerate single batch, so a snapshot after any sequence of
//! batches is bit-identical to resolving the concatenated input at once.
//!
//! Scoring waits for the snapshot: whether a token block survives the size
//! cap is only known once its records have arrived, so emitting pairs
//! eagerly could union records a later snapshot never compares. A snapshot
//! streams the candidate pairs unsorted, duplicates included, into a buffer
//! the state keeps, and looks each pair's decision up once, except a pair of
//! two records from earlier batches that is already connected (see
//! `DeltaResolver::snapshot_with`); the clustering does not depend on pair
//! order, so only [`Resolver::match_pairs`], which reports pairs, sorts and
//! dedups them.

use crate::blocking::Blocks;
use crate::matcher::{fill_dataset, score_pairs, RawRecord, Resolver, ResolverConfig};
use crate::unionfind::UnionFind;
use ec_data::Dataset;
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::sync::Arc;

/// A fast, deterministic hasher for the decision cache's small fixed-width
/// keys (FxHash-style multiply-fold). The std SipHash default is measurable
/// overhead when a snapshot performs one lookup per candidate pair; keys
/// are interned ids, not untrusted input, so HashDoS hardening buys nothing
/// here.
#[derive(Default)]
struct PairHasher(u64);

impl std::hash::Hasher for PairHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
        }
    }

    fn write_u32(&mut self, n: u32) {
        self.0 = (self.0 ^ u64::from(n)).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
}

/// [`std::hash::BuildHasher`] for [`PairHasher`] (stateless, deterministic).
#[derive(Clone, Default)]
struct PairHashBuilder;

impl std::hash::BuildHasher for PairHashBuilder {
    type Hasher = PairHasher;

    fn build_hasher(&self) -> PairHasher {
        PairHasher(0xcbf2_9ce4_8422_2325)
    }
}

/// A decision-cache entry. `Pending` only lives inside one snapshot: the
/// value pair was first met there and is waiting to be scored.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Decision {
    Pending,
    Match,
    NoMatch,
}

/// Adds one snapshot's streamed candidate pairs to
/// `ec_resolution_pair_lookups_total`, by outcome: `skipped` (settled and
/// already connected, no lookup), `cached` (a decision was cached, or is
/// pending on an earlier pair of this snapshot) and `scored` (a value pair
/// first met in this snapshot).
fn count_lookups(skipped: u64, cached: u64, scored: u64) {
    const HELP: &str = "Snapshot candidate-pair decision lookups by outcome";
    for (outcome, n) in [("skipped", skipped), ("cached", cached), ("scored", scored)] {
        ec_obs::counter_with(
            "ec_resolution_pair_lookups_total",
            HELP,
            &[("outcome", outcome)],
        )
        .add(n);
    }
}

/// Incremental resolution: the one resolution state (see the module docs).
///
/// A [`DeltaResolver`] owns its [`Resolver`] and keeps its state alive
/// *between* batches, so each batch only pays for pushing its own records.
/// [`DeltaResolver::snapshot`] then produces the clustering of everything
/// pushed so far:
///
/// * the candidate pairs are regenerated from the live block state on every
///   snapshot — the pair set is *non-monotone* (a token block can outgrow
///   the cap and tombstone pairs away; a sorted-neighborhood window shifts
///   as records insert between old neighbors), so pairs unioned in an
///   earlier snapshot may legitimately vanish, and the union-find for a
///   snapshot is rebuilt from the current pair set rather than carried over;
/// * what *is* carried over is the expensive part: match **decisions**,
///   cached by the two records' value contents (the pair score is a pure,
///   exactly symmetric function of the field strings — record ids would never
///   hit, since new records get new ids; the cache key is order-canonicalized
///   so both argument orders share one entry). At fraction-novel = 0 every
///   regenerated pair hits the cache and a snapshot performs no
///   string-similarity work at all.
pub struct DeltaResolver {
    resolver: Resolver,
    /// The records live behind an `Arc` so that scoring can shard `'static`
    /// tasks over them without copying; while a single owner is pushing,
    /// `Arc::make_mut` mutates in place with no clone.
    records: Arc<Vec<RawRecord>>,
    blocks: Blocks,
    /// Distinct field vectors, interned: the content key of a record.
    value_ids: HashMap<Vec<String>, u32>,
    /// The value id of each pushed record.
    record_values: Vec<u32>,
    /// `(min(value_id[a], value_id[b]), max(…))` → does the pair match. The
    /// cache is only ever read against the resolver's threshold, which is
    /// fixed for its lifetime, so a decision is all it needs to hold — and
    /// misses may be early-abandoned. The key is canonicalized because every
    /// [`crate::similarity::SimilarityMeasure`] is exactly symmetric (integer
    /// edit distances; Jaro match and transposition counts are
    /// order-independent and the combining formulas only rely on
    /// commutativity of `+`), so one decision serves both argument orders —
    /// without this, re-ingesting seen values in a new interleaving
    /// re-scores every reversed pair.
    decisions: HashMap<(u32, u32), Decision, PairHashBuilder>,
    scored_pairs: u64,
    /// Records pushed before the last snapshot: every candidate pair among
    /// them has a cached decision (see `DeltaResolver::snapshot_with`).
    settled: u32,
    /// The candidate-pair buffer, kept between snapshots so its allocation
    /// is reused.
    pairs: Vec<(u32, u32)>,
}

impl DeltaResolver {
    /// Creates empty state for `config`.
    pub fn new(config: ResolverConfig) -> Self {
        DeltaResolver {
            resolver: Resolver::new(config),
            records: Arc::new(Vec::new()),
            blocks: Blocks::default(),
            value_ids: HashMap::new(),
            record_values: Vec::new(),
            decisions: HashMap::default(),
            scored_pairs: 0,
            settled: 0,
            pairs: Vec::new(),
        }
    }

    /// Sets the pair-scoring parallelism (see
    /// [`Resolver::with_parallelism`]). Snapshots are bit-identical at any
    /// setting; only wall-clock time changes.
    pub fn with_parallelism(mut self, parallelism: ec_graph::Parallelism) -> Self {
        self.resolver = self.resolver.with_parallelism(parallelism);
        self
    }

    /// The underlying resolver.
    pub fn resolver(&self) -> &Resolver {
        &self.resolver
    }

    /// Number of records ingested so far (across all batches).
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True when no record has been ingested.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Pairs scored so far (decision-cache misses); the complement of the
    /// fast-path ratio the delta pipeline reports.
    pub fn scored_pairs(&self) -> u64 {
        self.scored_pairs
    }

    /// The records ingested so far, in push order.
    pub(crate) fn records(&self) -> &Arc<Vec<RawRecord>> {
        &self.records
    }

    /// Ingests one record.
    pub fn push(&mut self, record: RawRecord) {
        let next = self.value_ids.len() as u32;
        let vid = *self.value_ids.entry(record.fields.clone()).or_insert(next);
        self.record_values.push(vid);
        self.blocks.push(self.resolver.config(), &record.fields);
        Arc::make_mut(&mut self.records).push(record);
    }

    /// The candidate pairs of everything pushed so far: deduplicated,
    /// ordered, and with `a < b`.
    pub(crate) fn candidate_pairs(&mut self) -> Vec<(u32, u32)> {
        let _span = ec_obs::span!("resolution.blocking");
        let mut pairs = Vec::new();
        self.blocks
            .candidate_pairs(self.resolver.config(), &mut pairs);
        pairs.sort_unstable();
        pairs.dedup();
        pairs
    }

    /// The clustering of everything pushed so far — groups of record
    /// indices (the transitive closure of the match decisions; ordered by
    /// smallest member, singletons kept) — handed to `package` with the
    /// records. `package` runs inside the `resolution.scoring` span, so
    /// traces charge turning clusters into output to resolution.
    ///
    /// One sequential pass over the streamed pairs looks each pair's
    /// decision up once: a decided pair is unioned (or not) on the spot, a
    /// pair whose value pair is new is marked pending and queued for
    /// scoring, and a later pair of a pending value pair is deferred. The
    /// queued pairs are scored sharded over the pool with early abandon
    /// (only `score >= threshold` is kept, and an abandoned pair is provably
    /// below it); then the queued and deferred pairs are unioned by their
    /// decisions. A value pair's decision depends only on the two field
    /// vectors and the clustering only on the set of unioned pairs, so
    /// neither pair order nor duplicates matter: cache contents,
    /// `scored_pairs` and the clustering are independent of both and of the
    /// thread count.
    ///
    /// A pair of two *settled* records — both pushed before the previous
    /// snapshot — that the union-find already connects is skipped without a
    /// lookup. That is exact. Such a pair was a candidate pair at the
    /// previous snapshot too: a token block only gains ids or becomes a
    /// tombstone for good, and a sorted-neighborhood insertion only widens
    /// the gaps between old records. So its decision is cached and not
    /// pending: looking it up would change neither the cache nor
    /// `scored_pairs`, and unioning connected records changes nothing. A
    /// pair involving a record of this batch is always looked up: its value
    /// pair may be new. Everything else a snapshot does is still O(state):
    /// it regenerates every candidate pair, rebuilds the union-find, and
    /// `package` sees the whole clustering. The lookups are counted per
    /// outcome in `ec_resolution_pair_lookups_total`.
    pub(crate) fn snapshot_with<T>(
        &mut self,
        package: impl FnOnce(&[RawRecord], Vec<Vec<usize>>) -> T,
    ) -> T {
        let mut pairs = std::mem::take(&mut self.pairs);
        {
            let _span = ec_obs::span!("resolution.blocking");
            self.blocks
                .candidate_pairs(self.resolver.config(), &mut pairs);
        }
        let _span = ec_obs::span!("resolution.scoring", pairs.len());
        let record_values = &self.record_values;
        let key = |a: u32, b: u32| {
            let (va, vb) = (record_values[a as usize], record_values[b as usize]);
            (va.min(vb), va.max(vb))
        };
        let mut uf = UnionFind::new(self.records.len());
        let mut misses: Vec<(u32, u32)> = Vec::new();
        let mut deferred: Vec<(u32, u32)> = Vec::new();
        let mut skipped = 0u64;
        for &(a, b) in &pairs {
            // Candidate pairs have `a < b`, so `b < settled` settles both.
            if b < self.settled && uf.connected(a as usize, b as usize) {
                skipped += 1;
                continue;
            }
            match self.decisions.entry(key(a, b)) {
                Entry::Occupied(decision) => match decision.get() {
                    Decision::Match => {
                        uf.union(a as usize, b as usize);
                    }
                    Decision::NoMatch => {}
                    Decision::Pending => deferred.push((a, b)),
                },
                Entry::Vacant(slot) => {
                    slot.insert(Decision::Pending);
                    misses.push((a, b));
                }
            }
        }
        let threshold = self.resolver.config().threshold;
        let scores = score_pairs(
            self.resolver.config(),
            self.resolver.parallelism(),
            &self.records,
            &misses,
            Some(threshold),
        );
        let scored = misses.len() as u64;
        self.scored_pairs += scored;
        for (&(a, b), score) in misses.iter().zip(scores) {
            let decision = if score >= threshold {
                uf.union(a as usize, b as usize);
                Decision::Match
            } else {
                Decision::NoMatch
            };
            self.decisions.insert(key(a, b), decision);
        }
        for &(a, b) in &deferred {
            if self.decisions[&key(a, b)] == Decision::Match {
                uf.union(a as usize, b as usize);
            }
        }
        count_lookups(skipped, pairs.len() as u64 - skipped - scored, scored);
        self.settled = self.records.len() as u32;
        self.pairs = pairs;
        package(&self.records, uf.into_groups())
    }

    /// Packages the clustering of everything pushed so far into `dataset`,
    /// reusing its clusters, rows and cell strings: cells are overwritten
    /// in place, and clusters, rows and cells are truncated or pushed to the
    /// new shape. Each cell's truth is set to its observed value; the
    /// dataset's name and columns are left as they are. The result equals
    /// packaging into an empty dataset, whatever `dataset` held.
    pub fn snapshot_into(&mut self, dataset: &mut Dataset) {
        self.snapshot_with(|records, clusters| fill_dataset(dataset, records, &clusters, None))
    }

    /// The clustering of everything pushed so far, packaged as a fresh
    /// [`Dataset`] with each cell's truth set to its observed value —
    /// bit-identical to [`Resolver::resolve_stream`] over the same records.
    pub fn snapshot(&mut self, name: &str, columns: Vec<String>) -> Dataset {
        let mut dataset = Dataset::new(name, columns);
        self.snapshot_into(&mut dataset);
        dataset
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blocking::BlockingConfig;
    use crate::matcher::BlockingScheme;
    use ec_data::{RecordStream, VecRecordStream};
    use std::collections::HashSet;

    fn sample_records() -> Vec<RawRecord> {
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

    fn stream_of(records: &[RawRecord]) -> VecRecordStream {
        VecRecordStream::new(
            vec!["Name".to_string(), "Address".to_string()],
            records.to_vec(),
        )
    }

    #[test]
    fn empty_and_singleton_streams() {
        let resolver = Resolver::default();
        let mut empty = VecRecordStream::new(vec!["x".to_string()], Vec::new());
        let dataset = resolver.resolve_stream("e", &mut empty).unwrap();
        assert!(dataset.clusters.is_empty());
        assert_eq!(dataset.columns, vec!["x"]);

        let mut one =
            VecRecordStream::new(vec!["x".to_string()], vec![RawRecord::new(3, ["only"])]);
        let dataset = resolver.resolve_stream("s", &mut one).unwrap();
        assert_eq!(dataset.clusters.len(), 1);
        assert_eq!(dataset.clusters[0].rows[0].source, 3);
    }

    #[test]
    fn delta_snapshots_match_one_shot_resolution_at_every_batch_boundary() {
        let records = sample_records();
        let columns = vec!["Name".to_string(), "Address".to_string()];
        for scheme in [
            BlockingScheme::Token,
            BlockingScheme::SortedNeighborhood,
            BlockingScheme::Both,
        ] {
            let config = ResolverConfig {
                scheme,
                threshold: 0.5,
                ..ResolverConfig::default()
            };
            let resolver = Resolver::new(config.clone());
            let mut delta = DeltaResolver::new(config);
            for split in [2usize, 5, records.len()] {
                while delta.len() < split {
                    delta.push(records[delta.len()].clone());
                }
                let snapshot = delta.snapshot("r", columns.clone());
                let one_shot = resolver
                    .resolve_stream("r", &mut stream_of(&records[..split]))
                    .unwrap();
                assert_eq!(snapshot, one_shot, "{scheme:?} split={split}");
            }
        }
    }

    #[test]
    fn delta_snapshots_survive_block_overflow_between_batches() {
        // The "common" block is healthy after the first batch (pairs unioned)
        // and tombstoned after the second: the snapshot must forget those
        // pairs exactly as a one-shot run over the union would.
        let records: Vec<RawRecord> = (0..12)
            .map(|i| RawRecord::new(i % 3, [format!("common name{}", i / 2)]))
            .collect();
        let config = ResolverConfig {
            scheme: BlockingScheme::Token,
            blocking: BlockingConfig {
                max_block_size: 4,
                ..BlockingConfig::default()
            },
            ..ResolverConfig::default()
        };
        let name_stream = |records: &[RawRecord]| {
            VecRecordStream::new(vec!["Name".to_string()], records.to_vec())
        };
        let resolver = Resolver::new(config.clone());
        let mut delta = DeltaResolver::new(config);
        for r in &records[..4] {
            delta.push(r.clone());
        }
        let early = delta.snapshot("r", vec!["Name".to_string()]);
        assert_eq!(
            early,
            resolver
                .resolve_stream("r", &mut name_stream(&records[..4]))
                .unwrap()
        );
        for r in &records[4..] {
            delta.push(r.clone());
        }
        let late = delta.snapshot("r", vec!["Name".to_string()]);
        assert_eq!(
            late,
            resolver
                .resolve_stream("r", &mut name_stream(&records))
                .unwrap()
        );
        assert!(late.clusters.len() > 1, "the common token was dropped");
    }

    #[test]
    fn delta_pair_cache_hits_on_repeated_values() {
        let records = sample_records();
        let columns = vec!["Name".to_string(), "Address".to_string()];
        let mut delta = DeltaResolver::new(ResolverConfig {
            threshold: 0.5,
            ..ResolverConfig::default()
        });
        let mut scored = Vec::new();
        let mut snapshots = Vec::new();
        for _ in 0..3 {
            for r in &records {
                delta.push(r.clone());
            }
            snapshots.push(delta.snapshot("r", columns.clone()));
            scored.push(delta.scored_pairs());
        }
        // Re-pushing the same values: the first repetition only scores the
        // genuinely new value pairings (each value against its own duplicate
        // — the cache key is order-canonicalized, so reversed interleavings
        // of *distinct* values all hit). By the second repetition every
        // candidate pair is between warm value contents and the snapshot
        // performs no similarity work at all. The counts are pinned: misses
        // depend only on the candidate pairs and the value interning, never
        // on what a cache entry holds or how it was scored.
        assert_eq!(scored, vec![21, 28, 28]);
        assert!(scored[1] <= scored[0] + records.len() as u64);
        for (i, snapshot) in snapshots.iter().enumerate() {
            assert_eq!(
                snapshot.stats(0).num_records,
                (i + 1) * snapshots[0].stats(0).num_records
            );
        }
    }

    #[test]
    fn decision_cache_misses_are_pinned_on_a_three_batch_address_run() {
        let dataset = ec_data::address(&ec_data::GeneratorConfig {
            num_clusters: 40,
            seed: 11,
            num_sources: 6,
        });
        let records: Vec<RawRecord> = dataset
            .clusters
            .iter()
            .flat_map(|c| c.rows.iter())
            .map(|r| RawRecord::new(r.source, r.cells.iter().map(|c| c.observed.clone())))
            .collect();
        let n = records.len();
        assert_eq!(n, 228);
        // (threshold, clusters after each batch). The misses depend only on
        // the candidate pairs, never on the threshold.
        for (threshold, clusters) in [(0.75, [24, 24, 18]), (0.9, [34, 66, 93])] {
            let mut delta = DeltaResolver::new(ResolverConfig {
                threshold,
                ..ResolverConfig::default()
            });
            let mut scored = Vec::new();
            let mut sizes = Vec::new();
            for end in [n / 3, 2 * n / 3, n] {
                while delta.len() < end {
                    delta.push(records[delta.len()].clone());
                }
                sizes.push(
                    delta
                        .snapshot("r", vec!["Address".to_string()])
                        .clusters
                        .len(),
                );
                scored.push(delta.scored_pairs());
            }
            assert_eq!(scored, vec![990, 3206, 6028], "threshold {threshold}");
            assert_eq!(sizes, clusters, "threshold {threshold}");
        }
    }

    #[test]
    fn skipping_settled_connected_pairs_is_exact() {
        let dataset = ec_data::address(&ec_data::GeneratorConfig {
            num_clusters: 40,
            seed: 11,
            num_sources: 6,
        });
        let records: Vec<RawRecord> = dataset
            .clusters
            .iter()
            .flat_map(|c| c.rows.iter())
            .map(|r| RawRecord::new(r.source, r.cells.iter().map(|c| c.observed.clone())))
            .collect();
        let columns = vec!["Address".to_string()];
        let lookups = |outcome| {
            ec_obs::counter_with(
                "ec_resolution_pair_lookups_total",
                "",
                &[("outcome", outcome)],
            )
            .get()
        };
        let skipped_before = lookups("skipped");
        for scheme in [
            BlockingScheme::Token,
            BlockingScheme::SortedNeighborhood,
            BlockingScheme::Both,
        ] {
            // Small blocks and windows: token blocks outgrow the cap and
            // windows shift between snapshots, so pairs a snapshot unioned
            // drop out of later ones.
            let config = ResolverConfig {
                scheme,
                blocking: BlockingConfig {
                    max_block_size: 10,
                    window: 4,
                    ..BlockingConfig::default()
                },
                ..ResolverConfig::default()
            };
            let resolver = Resolver::new(config.clone());
            let mut dropped = false;
            for seed in 1..=3u64 {
                let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15);
                let mut delta = DeltaResolver::new(config.clone());
                // Every value pair any snapshot so far had as a candidate.
                let mut met: HashSet<(&[String], &[String])> = HashSet::new();
                let mut previous: HashSet<(u32, u32)> = HashSet::new();
                while delta.len() < records.len() {
                    let end = (delta.len() + 1 + draw(&mut state, 40)).min(records.len());
                    while delta.len() < end {
                        delta.push(records[delta.len()].clone());
                    }
                    // The prefix's candidate pairs, from a state that saw
                    // the prefix in one batch.
                    let mut fresh = DeltaResolver::new(config.clone());
                    for r in &records[..end] {
                        fresh.push(r.clone());
                    }
                    let pairs: HashSet<(u32, u32)> = fresh.candidate_pairs().into_iter().collect();
                    dropped |= !previous.is_subset(&pairs);
                    for &(a, b) in &pairs {
                        let (fa, fb) = (
                            &records[a as usize].fields[..],
                            &records[b as usize].fields[..],
                        );
                        met.insert((fa.min(fb), fa.max(fb)));
                    }
                    previous = pairs;
                    let snapshot = delta.snapshot("r", columns.clone());
                    let one_shot =
                        resolver.resolve_to_dataset("r", columns.clone(), &records[..end], None);
                    assert_eq!(snapshot, one_shot, "{scheme:?} seed {seed} after {end}");
                    assert_eq!(
                        delta.scored_pairs(),
                        met.len() as u64,
                        "{scheme:?} seed {seed} after {end}"
                    );
                }
            }
            assert!(dropped, "{scheme:?}: no candidate pair dropped out");
        }
        // The counter only grows, so other tests running alongside cannot
        // make this fail; it fails when no snapshot skips anything.
        assert!(lookups("skipped") > skipped_before, "nothing was skipped");
    }

    /// A seeded LCG step, returning a value in `0..n`.
    fn draw(state: &mut u64, n: usize) -> usize {
        *state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        (*state >> 33) as usize % n
    }

    /// Overwrites every cell of a used dataset with junk of varying length,
    /// so a refill that skipped a cell would show.
    fn scribble(dataset: &mut Dataset) {
        for (c, cluster) in dataset.clusters.iter_mut().enumerate() {
            for row in &mut cluster.rows {
                row.source = usize::MAX;
                for cell in &mut row.cells {
                    cell.observed = "#".repeat(c % 7);
                    cell.truth = "junk truth".to_string();
                }
            }
            cluster.golden = vec!["stale".to_string(); 5];
        }
    }

    #[test]
    fn packaging_into_a_used_dataset_equals_packaging_into_an_empty_one() {
        const WORDS: [&str; 8] = ["mary", "lee", "smith", "james", "st", "9", "ave", "kim"];
        let columns: Vec<String> = ["A", "B", "C"].iter().map(|c| c.to_string()).collect();
        // Used datasets packaged into hold more or fewer clusters, rows and
        // cells than the new clustering needs; both directions must occur.
        let (mut fewer_clusters, mut more_clusters) = (false, false);
        for (seed, max_block_size) in [(1u64, 2usize), (2, 3), (3, 4), (4, 3)] {
            let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15);
            let field = |state: &mut u64| {
                let len = 1 + draw(state, 3);
                (0..len)
                    .map(|_| WORDS[draw(state, WORDS.len())])
                    .collect::<Vec<_>>()
                    .join(" ")
            };
            // Mixed arity: records carry one to three fields.
            let records: Vec<RawRecord> = (0..60)
                .map(|_| {
                    let arity = 1 + draw(&mut state, 3);
                    let fields: Vec<String> = (0..arity).map(|_| field(&mut state)).collect();
                    RawRecord::new(draw(&mut state, 4), fields)
                })
                .collect();
            let truths: Vec<Vec<String>> = records
                .iter()
                .map(|r| r.fields.iter().map(|_| field(&mut state)).collect())
                .collect();
            let config = ResolverConfig {
                scheme: BlockingScheme::Token,
                threshold: 0.5,
                blocking: BlockingConfig {
                    max_block_size,
                    ..BlockingConfig::default()
                },
                ..ResolverConfig::default()
            };
            let resolver = Resolver::new(config.clone());
            let mut big =
                resolver.resolve_to_dataset("r", columns.clone(), &records, Some(&truths));
            let mut delta = DeltaResolver::new(config);
            let mut used = Dataset::new("r", columns.clone());
            let mut used_truths = Dataset::new("r", columns.clone());
            while delta.len() < records.len() {
                let end = (delta.len() + 1 + draw(&mut state, 12)).min(records.len());
                while delta.len() < end {
                    delta.push(records[delta.len()].clone());
                }
                let fresh = delta.snapshot("r", columns.clone());
                for target in [&mut used, &mut big] {
                    fewer_clusters |= target.clusters.len() > fresh.clusters.len();
                    more_clusters |= target.clusters.len() < fresh.clusters.len();
                    scribble(target);
                    delta.snapshot_into(target);
                    assert_eq!(*target, fresh, "seed {seed} after {end} records");
                }
                // With truths: the slice entry point packages into an empty
                // dataset; the same refill of a used one must agree.
                let expected = resolver.resolve_to_dataset(
                    "r",
                    columns.clone(),
                    &records[..end],
                    Some(&truths[..end]),
                );
                scribble(&mut used_truths);
                delta.snapshot_with(|records, clusters| {
                    fill_dataset(&mut used_truths, records, &clusters, Some(&truths[..end]))
                });
                assert_eq!(used_truths, expected, "seed {seed} after {end} records");
                big = expected;
            }
        }
        assert!(fewer_clusters && more_clusters);
    }

    #[test]
    fn repeated_unseen_value_pairs_in_one_batch_are_all_unioned() {
        // Record 4 repeats record 0's values and reaches the cluster only
        // through pairs whose value pair the same snapshot first met on
        // another record pair: those later pairs wait for the first one's
        // score and must still be unioned.
        let mut records: Vec<RawRecord> = ["Mary Lee", "Mary Leee", "Mary Lee", "Mary Leee"]
            .iter()
            .map(|name| RawRecord::new(0, [*name]))
            .collect();
        records.push(RawRecord::new(1, ["Mary Lee"]));
        records.push(RawRecord::new(2, ["James Smith"]));
        records.push(RawRecord::new(3, ["James Smith"]));
        for scheme in [
            BlockingScheme::Token,
            BlockingScheme::SortedNeighborhood,
            BlockingScheme::Both,
        ] {
            let resolver = Resolver::new(ResolverConfig {
                scheme,
                ..ResolverConfig::default()
            });
            let mut uf = UnionFind::new(records.len());
            for d in resolver.match_pairs(&records) {
                if d.is_match {
                    uf.union(d.a, d.b);
                }
            }
            let expected = uf.into_groups();
            let mut delta = DeltaResolver::new(resolver.config().clone());
            for r in &records {
                delta.push(r.clone());
            }
            let clusters = delta.snapshot_with(|_, clusters| clusters);
            assert_eq!(clusters, expected, "{scheme:?}");
            assert_eq!(
                clusters,
                vec![vec![0, 1, 2, 3, 4], vec![5, 6]],
                "{scheme:?}"
            );
        }
    }

    #[test]
    fn stream_errors_propagate() {
        // A flat CSV with a bad source value: the error reaches the caller.
        let text = "source,Name\n0,ok\nbogus,nope\n";
        let mut stream = ec_data::FlatCsvReader::new(text.as_bytes()).unwrap();
        let err = Resolver::default().resolve_stream("r", &mut stream);
        assert!(err.is_err());
        let _ = stream.next_record(); // stream is exhausted after the error
    }
}
