//! Candidate-pair generation (blocking).
//!
//! Comparing every pair of records is quadratic and dominates resolution cost
//! on anything beyond toy inputs. Blocking cheaply produces a superset of the
//! truly matching pairs; only those candidates are scored by the matcher.
//! Two standard schemes are provided:
//!
//! * **token blocking** — records sharing at least one word token in the
//!   blocking column(s) become a candidate pair;
//! * **sorted neighborhood** — records are sorted by a blocking key and every
//!   pair within a sliding window becomes a candidate.
//!
//! Both live in one incremental structure, `Blocks`: records are pushed one at
//! a time and every per-record structure grows in place. Token blocks have
//! *bounded per-block memory* — a block that outgrows `max_block_size` is
//! replaced by an `Oversized` tombstone and its id list is dropped — and each
//! record appends one small sort key. The candidate pairs of everything pushed
//! so far are derived from that state on demand, so one-shot and incremental
//! resolution share a single blocking implementation. They come out in no
//! particular order (token blocks are visited in hash-map order) and with
//! duplicates; the resolution state's snapshot consumes them as they are,
//! and only [`crate::matcher::Resolver::match_pairs`], which reports pairs,
//! sorts and dedups them.

use crate::matcher::{BlockingScheme, ResolverConfig};
use crate::tokenize::{normalize_into, words_into, TokenBuf};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Configuration of candidate-pair generation.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct BlockingConfig {
    /// Which columns contribute blocking tokens / keys. Empty means all.
    pub columns: Vec<usize>,
    /// Blocks larger than this are skipped by token blocking (they would
    /// generate a quadratic number of mostly-useless candidates; very frequent
    /// tokens such as "the" carry little signal).
    pub max_block_size: usize,
    /// Window size for sorted-neighborhood blocking.
    pub window: usize,
}

impl Default for BlockingConfig {
    fn default() -> Self {
        BlockingConfig {
            columns: Vec::new(),
            max_block_size: 200,
            window: 8,
        }
    }
}

fn blocking_columns(config: &BlockingConfig, num_columns: usize) -> Vec<usize> {
    if config.columns.is_empty() {
        (0..num_columns).collect()
    } else {
        config
            .columns
            .iter()
            .copied()
            .filter(|&c| c < num_columns)
            .collect()
    }
}

/// One token block: the ids of the records containing the token, or a
/// tombstone once the block outgrew the configured cap.
enum TokenBlock {
    Ids(Vec<u32>),
    Oversized,
}

/// The incremental blocking state of every record pushed so far (see the
/// module docs). Record ids are push positions.
#[derive(Default)]
pub(crate) struct Blocks {
    len: u32,
    /// Which columns contribute blocking tokens/keys; locked in by the first
    /// record's column count. A later record that lacks one of them
    /// contributes no tokens and an empty key segment for it.
    cols: Vec<usize>,
    token_blocks: HashMap<String, TokenBlock>,
    sn_keys: Vec<(String, u32)>,
    /// Reusable tokenization scratch for [`Blocks::push`].
    token_buf: TokenBuf,
    key_scratch: String,
}

impl Blocks {
    /// Adds the next record's tokens and sort key.
    pub(crate) fn push(&mut self, config: &ResolverConfig, fields: &[String]) {
        let id = self.len;
        if id == 0 {
            self.cols = blocking_columns(&config.blocking, fields.len());
        }
        self.len += 1;
        let present = || self.cols.iter().map(|&c| fields.get(c));
        if matches!(config.scheme, BlockingScheme::Token | BlockingScheme::Both) {
            let buf = &mut self.token_buf;
            buf.clear();
            for field in present().flatten() {
                words_into(field, buf);
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
            config.scheme,
            BlockingScheme::SortedNeighborhood | BlockingScheme::Both
        ) {
            let mut key = String::new();
            for (i, field) in present().enumerate() {
                if i > 0 {
                    key.push('\u{1}');
                }
                if let Some(field) = field {
                    normalize_into(field, &mut self.key_scratch);
                    key.push_str(&self.key_scratch);
                }
            }
            self.sn_keys.push((key, id));
        }
    }

    /// Writes the candidate pairs of the pushed records into `pairs` (cleared
    /// first), each with `a < b`, in no particular order and with
    /// duplicates: a pair sharing several tokens, or found by both schemes,
    /// appears once per finding. Callers that report pairs sort and dedup;
    /// a snapshot only needs each pair's decision, so it skips that
    /// O(pairs log pairs) step. Sorts the keys in place (sound: sorting is
    /// idempotent and later pushes append keys that the next call re-sorts)
    /// so no O(records) copy is made at the peak-memory moment.
    pub(crate) fn candidate_pairs(&mut self, config: &ResolverConfig, pairs: &mut Vec<(u32, u32)>) {
        pairs.clear();
        if self.len < 2 {
            return;
        }
        if matches!(config.scheme, BlockingScheme::Token | BlockingScheme::Both) {
            for block in self.token_blocks.values() {
                let TokenBlock::Ids(ids) = block else {
                    continue;
                };
                // Ids within a block are appended in push order, so they are
                // already ascending — `(a, b)` is canonical without min/max.
                for (i, &a) in ids.iter().enumerate() {
                    for &b in &ids[i + 1..] {
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
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Token blocking as a batch function over a complete record slice —
    /// the implementation before blocking became incremental, kept as the
    /// oracle of the differential tests below.
    fn token_blocking_pairs(
        records: &[Vec<String>],
        config: &BlockingConfig,
    ) -> Vec<(usize, usize)> {
        if records.is_empty() {
            return Vec::new();
        }
        let cols = blocking_columns(config, records[0].len());
        let mut blocks: HashMap<String, Vec<usize>> = HashMap::new();
        let mut buf = TokenBuf::new();
        for (id, fields) in records.iter().enumerate() {
            buf.clear();
            for &col in &cols {
                words_into(&fields[col], &mut buf);
            }
            let distinct = buf.sort_dedup_tokens();
            for i in 0..distinct {
                let token = buf.token(i);
                if let Some(ids) = blocks.get_mut(token) {
                    ids.push(id);
                } else {
                    blocks.insert(token.to_string(), vec![id]);
                }
            }
        }
        let mut pairs: Vec<(usize, usize)> = Vec::new();
        for ids in blocks.values() {
            if ids.len() < 2 || ids.len() > config.max_block_size {
                continue;
            }
            for (i, &a) in ids.iter().enumerate() {
                for &b in ids.iter().skip(i + 1) {
                    pairs.push((a.min(b), a.max(b)));
                }
            }
        }
        pairs.sort_unstable();
        pairs.dedup();
        pairs
    }

    /// Sorted-neighborhood blocking as a batch function (see
    /// [`token_blocking_pairs`]).
    fn sorted_neighborhood_pairs(
        records: &[Vec<String>],
        config: &BlockingConfig,
    ) -> Vec<(usize, usize)> {
        if records.len() < 2 || config.window < 2 {
            return Vec::new();
        }
        let cols = blocking_columns(config, records[0].len());
        let mut scratch = String::new();
        let mut keyed: Vec<(String, usize)> = records
            .iter()
            .enumerate()
            .map(|(id, fields)| {
                let mut key = String::new();
                for (i, &c) in cols.iter().enumerate() {
                    if i > 0 {
                        key.push('\u{1}');
                    }
                    normalize_into(&fields[c], &mut scratch);
                    key.push_str(&scratch);
                }
                (key, id)
            })
            .collect();
        keyed.sort();
        let mut pairs: Vec<(usize, usize)> = Vec::new();
        for (i, (_, a)) in keyed.iter().enumerate() {
            for (_, b) in keyed.iter().skip(i + 1).take(config.window - 1) {
                pairs.push((*a.min(b), *a.max(b)));
            }
        }
        pairs.sort_unstable();
        pairs.dedup();
        pairs
    }

    /// The batch reference's candidate set for `config`'s scheme.
    fn reference_pairs(records: &[Vec<String>], config: &ResolverConfig) -> Vec<(u32, u32)> {
        let mut pairs = match config.scheme {
            BlockingScheme::Token => token_blocking_pairs(records, &config.blocking),
            BlockingScheme::SortedNeighborhood => {
                sorted_neighborhood_pairs(records, &config.blocking)
            }
            BlockingScheme::Both => {
                let mut pairs = token_blocking_pairs(records, &config.blocking);
                pairs.extend(sorted_neighborhood_pairs(records, &config.blocking));
                pairs
            }
        };
        pairs.sort_unstable();
        pairs.dedup();
        pairs
            .into_iter()
            .map(|(a, b)| (a as u32, b as u32))
            .collect()
    }

    const SCHEMES: [BlockingScheme; 3] = [
        BlockingScheme::Token,
        BlockingScheme::SortedNeighborhood,
        BlockingScheme::Both,
    ];

    fn config(scheme: BlockingScheme, blocking: BlockingConfig) -> ResolverConfig {
        ResolverConfig {
            scheme,
            blocking,
            ..ResolverConfig::default()
        }
    }

    /// The state's candidate pairs, sorted and deduplicated.
    fn sorted_pairs(blocks: &mut Blocks, config: &ResolverConfig) -> Vec<(u32, u32)> {
        let mut pairs = Vec::new();
        blocks.candidate_pairs(config, &mut pairs);
        assert!(pairs.iter().all(|&(a, b)| a < b));
        pairs.sort_unstable();
        pairs.dedup();
        pairs
    }

    /// The candidate pairs of `records` pushed one at a time.
    fn state_pairs(records: &[Vec<String>], config: &ResolverConfig) -> Vec<(u32, u32)> {
        let mut blocks = Blocks::default();
        for fields in records {
            blocks.push(config, fields);
        }
        sorted_pairs(&mut blocks, config)
    }

    /// Pushes `records` one at a time and compares the state's candidate
    /// pairs with the batch reference over the same prefix after every
    /// `every`-th push and after the last one — so blocks that overflow
    /// mid-stream, and sort keys inserted between earlier neighbors, are
    /// checked at the moment they change the pair set.
    fn assert_matches_reference(records: &[Vec<String>], config: &ResolverConfig, every: usize) {
        let mut blocks = Blocks::default();
        for (n, fields) in records.iter().enumerate() {
            blocks.push(config, fields);
            let len = n + 1;
            if len % every == 0 || len == records.len() {
                assert_eq!(
                    sorted_pairs(&mut blocks, config),
                    reference_pairs(&records[..len], config),
                    "{config:?} after {len} records"
                );
            }
        }
    }

    fn records() -> Vec<Vec<String>> {
        vec![
            vec!["Mary Lee".into(), "9 St, 02141 Wisconsin".into()],
            vec!["M. Lee".into(), "9th St, 02141 WI".into()],
            vec!["Lee, Mary".into(), "9 Street, 02141 WI".into()],
            vec!["James Smith".into(), "3rd E Ave, 33990 California".into()],
            vec!["Smith, James".into(), "5th St, 22701 California".into()],
            vec!["Unrelated Person".into(), "1 Nowhere Rd".into()],
        ]
    }

    /// Records that all share the "common" token, in pairs sharing a name
    /// token: a small cap tombstones the "common" block mid-stream.
    fn overflowing() -> Vec<Vec<String>> {
        (0..12)
            .map(|i| vec![format!("common name{}", i / 2)])
            .collect()
    }

    /// A generated address partition, flattened and shuffled (seeded) so
    /// cluster members arrive interleaved.
    fn shuffled_addresses() -> Vec<Vec<String>> {
        let dataset = ec_data::address(&ec_data::GeneratorConfig {
            num_clusters: 40,
            seed: 11,
            num_sources: 6,
        });
        let mut records: Vec<Vec<String>> = dataset
            .clusters
            .iter()
            .flat_map(|c| c.rows.iter())
            .map(|row| row.cells.iter().map(|c| c.observed.clone()).collect())
            .collect();
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        for i in (1..records.len()).rev() {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            records.swap(i, (state >> 33) as usize % (i + 1));
        }
        records
    }

    #[test]
    fn candidate_pairs_match_the_batch_reference() {
        let blockings = [
            BlockingConfig::default(),
            BlockingConfig {
                columns: vec![0],
                ..BlockingConfig::default()
            },
            BlockingConfig {
                columns: vec![1, 0],
                ..BlockingConfig::default()
            },
            // A selected column no record has: no tokens, empty keys.
            BlockingConfig {
                columns: vec![7],
                ..BlockingConfig::default()
            },
            BlockingConfig {
                window: 0,
                ..BlockingConfig::default()
            },
            BlockingConfig {
                window: 1,
                ..BlockingConfig::default()
            },
            BlockingConfig {
                window: 2,
                ..BlockingConfig::default()
            },
            BlockingConfig {
                max_block_size: 0,
                ..BlockingConfig::default()
            },
            BlockingConfig {
                max_block_size: 1,
                ..BlockingConfig::default()
            },
            BlockingConfig {
                max_block_size: 2,
                ..BlockingConfig::default()
            },
        ];
        for scheme in SCHEMES {
            for blocking in &blockings {
                assert_matches_reference(&records(), &config(scheme, blocking.clone()), 1);
            }
            let capped = BlockingConfig {
                max_block_size: 4,
                ..BlockingConfig::default()
            };
            assert_matches_reference(&overflowing(), &config(scheme, capped), 1);
        }
    }

    #[test]
    fn candidate_pairs_match_the_batch_reference_on_a_shuffled_address_partition() {
        let records = shuffled_addresses();
        assert!(records.len() > 100);
        for scheme in SCHEMES {
            for blocking in [
                BlockingConfig::default(),
                // Small enough that frequent address tokens ("st", city
                // names) overflow part-way through the stream.
                BlockingConfig {
                    max_block_size: 12,
                    window: 4,
                    ..BlockingConfig::default()
                },
            ] {
                assert_matches_reference(&records, &config(scheme, blocking), 17);
            }
        }
    }

    #[test]
    fn token_blocking_links_records_sharing_tokens() {
        let token = config(BlockingScheme::Token, BlockingConfig::default());
        let pairs = state_pairs(&records(), &token);
        // The three Lee records all share the "lee" token.
        assert!(pairs.contains(&(0, 1)));
        assert!(pairs.contains(&(0, 2)));
        assert!(pairs.contains(&(1, 2)));
        // The Smith records share "smith" and "california".
        assert!(pairs.contains(&(3, 4)));
        // The unrelated record shares no token with the Lees.
        assert!(!pairs.contains(&(0, 5)));
    }

    #[test]
    fn token_blocking_respects_column_selection() {
        let names_only = config(
            BlockingScheme::Token,
            BlockingConfig {
                columns: vec![0],
                ..BlockingConfig::default()
            },
        );
        let pairs = state_pairs(&records(), &names_only);
        // Columns restricted to the name: the Lee/Smith cross pairs that only
        // share address tokens ("st", "02141") disappear for record 4 vs 0.
        assert!(pairs.contains(&(0, 2)));
        assert!(
            !pairs.contains(&(1, 4)),
            "only shares 'st' in the address column"
        );
    }

    #[test]
    fn oversized_blocks_are_skipped() {
        let many: Vec<Vec<String>> = (0..50).map(|i| vec![format!("common token {i}")]).collect();
        let capped = config(
            BlockingScheme::Token,
            BlockingConfig {
                max_block_size: 10,
                ..BlockingConfig::default()
            },
        );
        // "common" and "token" appear in all 50 records and are skipped; the
        // only remaining shared tokens are the unique numbers, so no pairs.
        assert!(state_pairs(&many, &capped).is_empty());
    }

    #[test]
    fn oversized_blocks_hold_bounded_state() {
        let capped = config(
            BlockingScheme::Token,
            BlockingConfig {
                max_block_size: 3,
                ..BlockingConfig::default()
            },
        );
        let mut blocks = Blocks::default();
        for i in 0..100 {
            blocks.push(&capped, &[format!("shared unique{i}")]);
        }
        let oversized = blocks
            .token_blocks
            .values()
            .filter(|b| matches!(b, TokenBlock::Oversized))
            .count();
        assert_eq!(oversized, 1, "the 'shared' block was tombstoned");
        for block in blocks.token_blocks.values() {
            if let TokenBlock::Ids(ids) = block {
                assert!(ids.len() <= 3);
            }
        }
        assert_eq!(blocks.len, 100);
    }

    #[test]
    fn records_lacking_a_blocking_column_block_on_the_rest() {
        // The first record locks in two blocking columns; the second lacks
        // the address and still blocks with the first on its name.
        let records = vec![
            vec!["Mary Lee".to_string(), "9 St".to_string()],
            vec!["Mary Lee".to_string()],
        ];
        for scheme in SCHEMES {
            assert_eq!(
                state_pairs(&records, &config(scheme, BlockingConfig::default())),
                vec![(0, 1)],
                "{scheme:?}"
            );
        }
    }

    #[test]
    fn degenerate_inputs_have_no_pairs() {
        for scheme in SCHEMES {
            let default = config(scheme, BlockingConfig::default());
            assert!(state_pairs(&[], &default).is_empty());
            assert!(state_pairs(&[vec!["a".to_string()]], &default).is_empty());
        }
        let narrow = config(
            BlockingScheme::SortedNeighborhood,
            BlockingConfig {
                window: 1,
                ..BlockingConfig::default()
            },
        );
        assert!(state_pairs(&records(), &narrow).is_empty());
    }

    #[test]
    fn sorted_neighborhood_links_nearby_keys() {
        let sn = config(
            BlockingScheme::SortedNeighborhood,
            BlockingConfig::default(),
        );
        let pairs = state_pairs(&records(), &sn);
        assert!(!pairs.is_empty());
        for &(a, b) in &pairs {
            assert!(a < b);
        }
    }

    #[test]
    fn sorted_neighborhood_window_bounds_candidates() {
        let recs = records();
        let window = |window| {
            config(
                BlockingScheme::SortedNeighborhood,
                BlockingConfig {
                    window,
                    ..BlockingConfig::default()
                },
            )
        };
        let narrow = state_pairs(&recs, &window(2));
        let wide = state_pairs(&recs, &window(6));
        assert!(narrow.len() <= wide.len());
        // With a window covering all records every pair is a candidate.
        assert_eq!(wide.len(), recs.len() * (recs.len() - 1) / 2);
    }
}
