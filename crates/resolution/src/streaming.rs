//! Incremental (record-at-a-time) resolution state.
//!
//! The batch entry points ([`Resolver::resolve`],
//! [`Resolver::resolve_to_dataset`]) need the whole record collection in hand
//! before blocking can even start. [`Resolver::resolve_stream`] is the
//! ingestion half of resolution turned inside out: records are pushed one at
//! a time — as a CSV reader produces them — and every per-record structure
//! grows incrementally:
//!
//! * **token blocks** are updated with the new record's tokens, with *bounded
//!   per-block memory*: a block that exceeds the configured `max_block_size`
//!   is replaced by an `Oversized` tombstone and its id list is dropped (the
//!   batch path would skip such a block anyway, but only after buffering all
//!   of its ids);
//! * **sorted-neighborhood keys** are appended (one small key per record);
//! * the **union-find** forest grows by one singleton per record.
//!
//! At the end of the stream it scores exactly the candidate pairs the batch
//! path would have produced and returns a bit-identical [`ec_data::Dataset`].
//! (Scoring must wait for the end of the stream: whether a token block
//! survives the size cap is only known once every record has arrived, so
//! emitting pairs eagerly could union records the batch path never
//! compares.) The same state, kept alive between batches, backs the
//! cross-batch [`DeltaResolver`].

use crate::blocking::blocking_columns;
use crate::matcher::{
    clusters_to_dataset, score_pairs_arc, BlockingScheme, RawRecord, Resolver, ResolverConfig,
};
use crate::tokenize::{normalize_into, words_into, TokenBuf};
use crate::unionfind::UnionFind;
use ec_data::{Dataset, DatasetIoError, RecordStream};
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

/// A fast, deterministic hasher for the delta resolver's small fixed-width
/// keys (FxHash-style multiply-fold). The std SipHash default is measurable
/// overhead when a snapshot performs one lookup per candidate pair; scores
/// are values, not untrusted input, so HashDoS hardening buys nothing here.
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

/// One token block: the ids of the records containing the token, or a
/// tombstone once the block outgrew the configured cap.
enum TokenBlock {
    Ids(Vec<u32>),
    Oversized,
}

/// The per-record incremental blocking state shared by the one-shot
/// [`Resolver::resolve_stream`] and the cross-batch [`DeltaResolver`]: the
/// records, the growing union-find forest, and the token blocks /
/// sorted-neighborhood keys every pushed record updates.
struct StreamingState {
    /// The records live behind an `Arc` so that scoring can shard `'static`
    /// tasks over them without copying; while a single owner is pushing,
    /// `Arc::make_mut` mutates in place with no clone.
    records: Arc<Vec<RawRecord>>,
    uf: UnionFind,
    /// Which columns contribute blocking tokens/keys; locked in by the first
    /// record's column count (as in the batch path).
    cols: Vec<usize>,
    token_blocks: HashMap<String, TokenBlock>,
    sn_keys: Vec<(String, u32)>,
    /// Reusable tokenization scratch for [`StreamingState::push`].
    token_buf: TokenBuf,
    key_scratch: String,
}

impl StreamingState {
    fn new() -> Self {
        StreamingState {
            records: Arc::new(Vec::new()),
            uf: UnionFind::new(0),
            cols: Vec::new(),
            token_blocks: HashMap::new(),
            sn_keys: Vec::new(),
            token_buf: TokenBuf::new(),
            key_scratch: String::new(),
        }
    }

    /// Ingests one record, updating blocks and the union-find incrementally.
    fn push(&mut self, config: &ResolverConfig, record: RawRecord) {
        let id = self.uf.push() as u32;
        if self.records.is_empty() {
            self.cols = blocking_columns(&config.blocking, record.fields.len());
        }
        let scheme = config.scheme;
        if matches!(scheme, BlockingScheme::Token | BlockingScheme::Both) {
            let buf = &mut self.token_buf;
            buf.clear();
            for &col in &self.cols {
                words_into(&record.fields[col], buf);
            }
            let distinct = buf.sort_dedup_tokens();
            for t in 0..distinct {
                let token = buf.token(t);
                if let Some(block) = self.token_blocks.get_mut(token) {
                    if let TokenBlock::Ids(ids) = block {
                        ids.push(id);
                        if ids.len() > config.blocking.max_block_size {
                            // Bounded per-block memory: drop the id list.
                            *block = TokenBlock::Oversized;
                        }
                    }
                } else {
                    // A brand-new block only outlives its first record when
                    // the cap allows a block of one.
                    let block = if config.blocking.max_block_size < 1 {
                        TokenBlock::Oversized
                    } else {
                        TokenBlock::Ids(vec![id])
                    };
                    self.token_blocks.insert(token.to_string(), block);
                }
            }
        }
        if matches!(
            scheme,
            BlockingScheme::SortedNeighborhood | BlockingScheme::Both
        ) {
            let mut key = String::new();
            for (i, &c) in self.cols.iter().enumerate() {
                if i > 0 {
                    key.push('\u{1}');
                }
                normalize_into(&record.fields[c], &mut self.key_scratch);
                key.push_str(&self.key_scratch);
            }
            self.sn_keys.push((key, id));
        }
        Arc::make_mut(&mut self.records).push(record);
    }

    /// The candidate pairs of the ingested records — exactly the set the
    /// batch blocking functions would produce, deduplicated, ordered, and
    /// with `a < b`. Sorts `sn_keys` in place (sound: sorting is idempotent
    /// and later pushes append keys that the next call re-sorts) so no
    /// O(records) copy is made at the peak-memory moment.
    fn candidate_pairs(&mut self, config: &ResolverConfig) -> Vec<(u32, u32)> {
        if self.records.len() < 2 {
            return Vec::new();
        }
        let mut pairs: Vec<(u32, u32)> = Vec::new();
        if matches!(config.scheme, BlockingScheme::Token | BlockingScheme::Both) {
            for block in self.token_blocks.values() {
                let TokenBlock::Ids(ids) = block else {
                    continue;
                };
                if ids.len() < 2 {
                    continue;
                }
                // Ids within a block are appended in push order, so they are
                // already ascending — `(a, b)` is canonical without min/max.
                for (i, &a) in ids.iter().enumerate() {
                    for &b in ids.iter().skip(i + 1) {
                        pairs.push((a, b));
                    }
                }
            }
        }
        if matches!(
            config.scheme,
            BlockingScheme::SortedNeighborhood | BlockingScheme::Both
        ) && config.blocking.window >= 2
        {
            self.sn_keys.sort();
            for (i, (_, a)) in self.sn_keys.iter().enumerate() {
                for (_, b) in self
                    .sn_keys
                    .iter()
                    .skip(i + 1)
                    .take(config.blocking.window - 1)
                {
                    pairs.push(((*a).min(*b), (*a).max(*b)));
                }
            }
        }
        // Sort-and-dedup beats a hash set here: the pair list is regenerated
        // on every snapshot, and most blocks emit runs of nearly-sorted pairs.
        pairs.sort_unstable();
        pairs.dedup();
        pairs
    }
}

impl Resolver {
    /// Streaming entry point: consumes a [`RecordStream`] record-at-a-time,
    /// building blocks and the union-find incrementally (see the module
    /// docs), then scores the candidate pairs, closes the clustering
    /// transitively and packages the clusters as a [`Dataset`] exactly as
    /// [`Resolver::resolve_to_dataset`] (with each cell's truth set to its
    /// observed value) would. The produced dataset is bit-identical to
    /// collecting the stream and calling the batch entry point; only the
    /// peak memory differs — the input document is never materialized and
    /// per-block state is bounded by the blocking configuration's
    /// `max_block_size`.
    ///
    /// Scores are unobservable here — only the clustering escapes — so pair
    /// scoring early-abandons sub-threshold pairs and shards across the
    /// worker pool, both of which leave the decisions (and so the dataset)
    /// unchanged.
    pub fn resolve_stream<S: RecordStream + ?Sized>(
        &self,
        name: &str,
        stream: &mut S,
    ) -> Result<Dataset, DatasetIoError> {
        let columns = stream.columns().to_vec();
        let mut state = StreamingState::new();
        while let Some(record) = stream.next_record() {
            let record = record?;
            state.push(
                self.config(),
                RawRecord {
                    source: record.source,
                    fields: record.fields,
                },
            );
        }
        let pairs = {
            let _span = ec_obs::span!("resolution.blocking");
            state.candidate_pairs(self.config())
        };
        let _span = ec_obs::span!("resolution.scoring", pairs.len());
        let threshold = self.config().threshold;
        let scores = score_pairs_arc(
            self.config(),
            self.parallelism(),
            &state.records,
            &pairs,
            Some(threshold),
        );
        let mut uf = state.uf;
        for (&(a, b), score) in pairs.iter().zip(&scores) {
            if *score >= threshold {
                uf.union(a as usize, b as usize);
            }
        }
        let clusters = uf.into_groups();
        Ok(clusters_to_dataset(
            name,
            columns,
            &state.records,
            clusters,
            None,
        ))
    }
}

/// Cross-batch incremental resolution: the delta ingest path's resolver.
///
/// A [`DeltaResolver`] owns its [`Resolver`] and keeps the streaming state
/// alive *between* batches, so each batch only pays for pushing its own
/// records. [`DeltaResolver::snapshot`] then produces the clustering of
/// everything pushed so far, **bit-identical** to
/// [`Resolver::resolve_stream`] over the concatenated input:
///
/// * the candidate-pair set is regenerated from the live block state on every
///   snapshot — it is *non-monotone* (a token block can outgrow the cap and
///   tombstone pairs away; a sorted-neighborhood window shifts as records
///   insert between old neighbors), so pairs unioned in an earlier snapshot
///   may legitimately vanish, and the union-find for a snapshot is rebuilt
///   from the current pair set rather than carried over;
/// * what *is* carried over is the expensive part: pair **scores**, cached by
///   the two records' value contents ([`Resolver::score_pair`] is a pure,
///   exactly symmetric function of the field strings — record ids would never
///   hit, since new records get new ids; the cache key is order-canonicalized
///   so both argument orders share one entry). At fraction-novel = 0 every
///   regenerated pair hits the cache and a snapshot performs no
///   string-similarity work at all.
pub struct DeltaResolver {
    resolver: Resolver,
    state: StreamingState,
    /// Distinct field vectors, interned: the content key of a record.
    value_ids: HashMap<Vec<String>, u32>,
    /// The value id of each pushed record.
    record_values: Vec<u32>,
    /// `(min(value_id[a], value_id[b]), max(…))` → score. The key is
    /// canonicalized because every [`crate::similarity::SimilarityMeasure`]
    /// is exactly symmetric (integer edit distances; Jaro match and
    /// transposition counts are order-independent and the combining formulas
    /// only rely on commutativity of `+`), so one cached score serves both
    /// argument orders bit-identically — without this, re-ingesting seen
    /// values in a new interleaving re-scores every reversed pair.
    pair_cache: HashMap<(u32, u32), f64, PairHashBuilder>,
    scored_pairs: u64,
}

impl DeltaResolver {
    /// Creates empty state for `config`.
    pub fn new(config: ResolverConfig) -> Self {
        DeltaResolver {
            resolver: Resolver::new(config),
            state: StreamingState::new(),
            value_ids: HashMap::new(),
            record_values: Vec::new(),
            pair_cache: HashMap::default(),
            scored_pairs: 0,
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
        self.state.records.len()
    }

    /// True when no record has been ingested.
    pub fn is_empty(&self) -> bool {
        self.state.records.is_empty()
    }

    /// Pair scores computed so far (cache misses); the complement of the
    /// fast-path ratio the delta pipeline reports.
    pub fn scored_pairs(&self) -> u64 {
        self.scored_pairs
    }

    /// Ingests one record.
    pub fn push(&mut self, record: RawRecord) {
        let next = self.value_ids.len() as u32;
        let vid = *self.value_ids.entry(record.fields.clone()).or_insert(next);
        self.record_values.push(vid);
        self.state.push(self.resolver.config(), record);
    }

    /// The clustering of everything pushed so far, packaged as a [`Dataset`]
    /// — bit-identical to [`Resolver::resolve_stream`] over the same records.
    ///
    /// The cache stores **exact** scores (they are observable across
    /// snapshots), so misses are never early-abandoned; they are, however,
    /// scored in parallel: a sequential pass collects the first-occurrence
    /// cache misses in pair order, the misses are exact-scored sharded over
    /// the pool, and the results are inserted back in the same order —
    /// cache contents, `scored_pairs`, and the clustering all end up
    /// identical to the old one-pass loop.
    pub fn snapshot(&mut self, name: &str, columns: Vec<String>) -> Dataset {
        let pairs = {
            let _span = ec_obs::span!("resolution.blocking");
            self.state.candidate_pairs(self.resolver.config())
        };
        let _span = ec_obs::span!("resolution.scoring", pairs.len());
        let threshold = self.resolver.config().threshold;
        let record_values = &self.record_values;
        // Phase 1: the distinct missing value-pair keys, first occurrence
        // wins (exactly the pair `or_insert_with` would have scored).
        let mut miss_keys: Vec<(u32, u32)> = Vec::new();
        let mut miss_pairs: Vec<(u32, u32)> = Vec::new();
        let mut miss_seen: HashSet<(u32, u32), PairHashBuilder> = HashSet::default();
        for &(a, b) in &pairs {
            let (va, vb) = (record_values[a as usize], record_values[b as usize]);
            let key = (va.min(vb), va.max(vb));
            if !self.pair_cache.contains_key(&key) && miss_seen.insert(key) {
                miss_keys.push(key);
                miss_pairs.push((a, b));
            }
        }
        // Phase 2: exact scores for the misses, sharded over the pool.
        let scores = score_pairs_arc(
            self.resolver.config(),
            self.resolver.parallelism(),
            &self.state.records,
            &miss_pairs,
            None,
        );
        // Phase 3: fill the cache in order, then union every pair from it.
        self.scored_pairs += miss_keys.len() as u64;
        for (key, score) in miss_keys.into_iter().zip(scores) {
            self.pair_cache.insert(key, score);
        }
        let mut uf = UnionFind::new(self.state.records.len());
        for &(a, b) in &pairs {
            let (va, vb) = (record_values[a as usize], record_values[b as usize]);
            let key = (va.min(vb), va.max(vb));
            if self.pair_cache[&key] >= threshold {
                uf.union(a as usize, b as usize);
            }
        }
        let clusters = uf.into_groups();
        clusters_to_dataset(name, columns, &self.state.records, clusters, None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blocking::BlockingConfig;
    use crate::matcher::ResolverConfig;
    use ec_data::{FlatRecord, RecordStream, VecRecordStream};

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
            records
                .iter()
                .map(|r| FlatRecord {
                    source: r.source,
                    fields: r.fields.clone(),
                })
                .collect(),
        )
    }

    #[test]
    fn streaming_matches_batch_for_every_scheme() {
        let records = sample_records();
        for scheme in [
            BlockingScheme::Token,
            BlockingScheme::SortedNeighborhood,
            BlockingScheme::Both,
        ] {
            let resolver = Resolver::new(ResolverConfig {
                scheme,
                threshold: 0.5,
                ..ResolverConfig::default()
            });
            let batch = resolver.resolve_to_dataset(
                "r",
                vec!["Name".to_string(), "Address".to_string()],
                &records,
                None,
            );
            let streamed = resolver
                .resolve_stream("r", &mut stream_of(&records))
                .unwrap();
            assert_eq!(batch, streamed, "{scheme:?}");
        }
    }

    #[test]
    fn streaming_matches_batch_when_blocks_overflow() {
        // Every record shares the "common" token; with a tiny cap that block
        // is dropped in both paths, leaving only the distinctive tokens.
        let records: Vec<RawRecord> = (0..12)
            .map(|i| RawRecord::new(i % 3, [format!("common name{}", i / 2)]))
            .collect();
        let resolver = Resolver::new(ResolverConfig {
            scheme: BlockingScheme::Token,
            blocking: BlockingConfig {
                max_block_size: 4,
                ..BlockingConfig::default()
            },
            ..ResolverConfig::default()
        });
        let mut stream = VecRecordStream::new(
            vec!["Name".to_string()],
            records
                .iter()
                .map(|r| FlatRecord {
                    source: r.source,
                    fields: r.fields.clone(),
                })
                .collect(),
        );
        let streamed = resolver.resolve_stream("r", &mut stream).unwrap();
        let batch = resolver.resolve_to_dataset("r", vec!["Name".to_string()], &records, None);
        assert_eq!(batch, streamed);
        assert!(streamed.clusters.len() > 1, "the common token was dropped");
    }

    #[test]
    fn oversized_blocks_hold_bounded_state() {
        let resolver = Resolver::new(ResolverConfig {
            scheme: BlockingScheme::Token,
            blocking: BlockingConfig {
                max_block_size: 3,
                ..BlockingConfig::default()
            },
            ..ResolverConfig::default()
        });
        let mut state = StreamingState::new();
        for i in 0..100 {
            state.push(
                resolver.config(),
                RawRecord::new(0, [format!("shared unique{i}")]),
            );
        }
        let oversized = state
            .token_blocks
            .values()
            .filter(|b| matches!(b, TokenBlock::Oversized))
            .count();
        assert_eq!(oversized, 1, "the 'shared' block was tombstoned");
        for block in state.token_blocks.values() {
            if let TokenBlock::Ids(ids) = block {
                assert!(ids.len() <= 3);
            }
        }
        assert_eq!(state.records.len(), 100);
    }

    #[test]
    fn empty_and_singleton_streams() {
        let resolver = Resolver::default();
        let mut empty = VecRecordStream::new(vec!["x".to_string()], Vec::new());
        let dataset = resolver.resolve_stream("e", &mut empty).unwrap();
        assert!(dataset.clusters.is_empty());
        assert_eq!(dataset.columns, vec!["x"]);

        let mut one = VecRecordStream::new(
            vec!["x".to_string()],
            vec![FlatRecord {
                source: 3,
                fields: vec!["only".to_string()],
            }],
        );
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
            VecRecordStream::new(
                vec!["Name".to_string()],
                records
                    .iter()
                    .map(|r| FlatRecord {
                        source: r.source,
                        fields: r.fields.clone(),
                    })
                    .collect(),
            )
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
        let mut delta = DeltaResolver::new(ResolverConfig {
            threshold: 0.5,
            ..ResolverConfig::default()
        });
        for r in &records {
            delta.push(r.clone());
        }
        let first = delta.snapshot("r", vec!["Name".to_string(), "Address".to_string()]);
        let scored_once = delta.scored_pairs();
        assert!(scored_once > 0);
        // Re-pushing the same values: the first repetition only scores the
        // genuinely new value pairings (each value against its own duplicate
        // — the cache key is order-canonicalized, so reversed interleavings
        // of *distinct* values all hit). By the second repetition every
        // candidate pair is between warm value contents and the snapshot
        // performs no similarity work at all.
        for r in &records {
            delta.push(r.clone());
        }
        let second = delta.snapshot("r", vec!["Name".to_string(), "Address".to_string()]);
        let scored_twice = delta.scored_pairs();
        assert!(
            scored_twice <= scored_once + records.len() as u64,
            "only self-value pairs may still be cold"
        );
        for r in &records {
            delta.push(r.clone());
        }
        let third = delta.snapshot("r", vec!["Name".to_string(), "Address".to_string()]);
        assert_eq!(
            delta.scored_pairs(),
            scored_twice,
            "all pairs hit the cache"
        );
        assert_eq!(second.stats(0).num_records, 2 * first.stats(0).num_records);
        assert_eq!(third.stats(0).num_records, 3 * first.stats(0).num_records);
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
