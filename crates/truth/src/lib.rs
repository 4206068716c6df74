//! # ec-truth — truth discovery for golden-record construction
//!
//! After the variant values of a cluster have been standardized, a truth
//! discovery method resolves the remaining conflicts and picks one canonical
//! value per attribute — the golden record (Algorithm 1, line 10). The paper
//! evaluates with **majority consensus** (Section 8.3, Table 8); this crate
//! provides that plus an iterative **source-reliability** scheme in the spirit
//! of the truth-discovery literature the paper defers to (TruthFinder-style:
//! source trust and claim confidence computed as fixed points of each other),
//! which is the substrate a downstream user would actually want.
//!
//! Both operate on one cluster-column at a time: a list of claimed values,
//! optionally tagged with the source that claimed them.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod advanced;

pub use advanced::{accu_source_accuracies, accu_truth_discovery, weighted_voting, AccuConfig};

use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// A value claimed by a source for one attribute of one entity.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Claim {
    /// The claimed value.
    pub value: String,
    /// The source that made the claim (an opaque id; records from the same
    /// data source share it).
    pub source: usize,
}

/// The outcome of truth discovery for one cluster-column.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Resolution {
    /// The chosen golden value, or `None` when the method could not decide
    /// (e.g. a tie under majority consensus, as in the paper's Section 8.3).
    pub value: Option<String>,
    /// The confidence score of the chosen value (vote fraction for majority
    /// consensus, normalized claim confidence for the weighted scheme).
    pub confidence: f64,
}

/// Majority consensus: the most frequent value wins; a tie for the top count
/// yields no golden value (the paper: "if there are two values with the same
/// frequency, MC could not produce a golden value").
pub fn majority_consensus<S: AsRef<str>>(values: &[S]) -> Resolution {
    majority_consensus_iter(values.iter().map(AsRef::as_ref))
}

/// [`majority_consensus`] over a stream of votes, so a caller can count
/// straight from its rows without collecting them first. The count is
/// presized to the number of votes, so a giant cluster never rehashes its
/// values. It keeps std's keyed hasher: the values arrive in request bodies,
/// and an unkeyed hash would let a client craft collisions.
pub fn majority_consensus_iter<'a>(values: impl ExactSizeIterator<Item = &'a str>) -> Resolution {
    let votes = values.len();
    let mut counts: HashMap<&str, usize> = HashMap::with_capacity(votes);
    for v in values {
        *counts.entry(v).or_insert(0) += 1;
    }
    let mut top: Option<(&str, usize)> = None;
    let mut tied = false;
    for (value, count) in counts {
        match top {
            Some((_, max)) if count < max => {}
            Some((_, max)) if count == max => tied = true,
            _ => {
                top = Some((value, count));
                tied = false;
            }
        }
    }
    match top {
        Some((value, max)) if !tied => Resolution {
            value: Some(value.to_string()),
            confidence: max as f64 / votes as f64,
        },
        _ => Resolution {
            value: None,
            confidence: 0.0,
        },
    }
}

/// Configuration of the iterative source-reliability truth discovery.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ReliabilityConfig {
    /// Maximum number of trust/confidence iterations.
    pub max_iterations: usize,
    /// Stop when the largest change in source trust falls below this value.
    pub tolerance: f64,
    /// Initial trust assigned to every source.
    pub initial_trust: f64,
}

impl Default for ReliabilityConfig {
    fn default() -> Self {
        ReliabilityConfig {
            max_iterations: 20,
            tolerance: 1e-6,
            initial_trust: 0.8,
        }
    }
}

/// Iterative source-reliability truth discovery over many entities at once.
///
/// `claims[e]` holds the claims for entity `e` (one cluster-column). Source
/// trust is the average confidence of the values the source claims; value
/// confidence within an entity is the normalized sum of the trusts of the
/// sources claiming it. The two are iterated to a fixed point, then the
/// highest-confidence value per entity is returned (`None` only for entities
/// with no claims).
pub fn reliability_truth_discovery(
    claims: &[Vec<Claim>],
    config: &ReliabilityConfig,
) -> Vec<Resolution> {
    // Collect sources.
    let mut sources: Vec<usize> = claims
        .iter()
        .flat_map(|c| c.iter().map(|claim| claim.source))
        .collect();
    sources.sort_unstable();
    sources.dedup();
    let source_index: HashMap<usize, usize> =
        sources.iter().enumerate().map(|(i, &s)| (s, i)).collect();
    let mut trust = vec![config.initial_trust; sources.len()];

    let mut value_confidence: Vec<HashMap<&str, f64>> = vec![HashMap::new(); claims.len()];
    for _ in 0..config.max_iterations.max(1) {
        // Value confidence from source trust.
        for (e, entity_claims) in claims.iter().enumerate() {
            let mut scores: HashMap<&str, f64> = HashMap::new();
            for claim in entity_claims {
                *scores.entry(claim.value.as_str()).or_insert(0.0) +=
                    trust[source_index[&claim.source]];
            }
            let total: f64 = scores.values().sum();
            if total > 0.0 {
                for v in scores.values_mut() {
                    *v /= total;
                }
            }
            value_confidence[e] = scores;
        }
        // Source trust from value confidence.
        let mut new_trust = vec![0.0f64; sources.len()];
        let mut counts = vec![0usize; sources.len()];
        for (e, entity_claims) in claims.iter().enumerate() {
            for claim in entity_claims {
                let idx = source_index[&claim.source];
                new_trust[idx] += value_confidence[e]
                    .get(claim.value.as_str())
                    .copied()
                    .unwrap_or(0.0);
                counts[idx] += 1;
            }
        }
        let mut max_delta = 0.0f64;
        for i in 0..sources.len() {
            let t = if counts[i] > 0 {
                new_trust[i] / counts[i] as f64
            } else {
                config.initial_trust
            };
            max_delta = max_delta.max((t - trust[i]).abs());
            trust[i] = t;
        }
        if max_delta < config.tolerance {
            break;
        }
    }

    claims
        .iter()
        .enumerate()
        .map(|(e, entity_claims)| {
            if entity_claims.is_empty() {
                return Resolution {
                    value: None,
                    confidence: 0.0,
                };
            }
            let scores = &value_confidence[e];
            let mut best: Option<(&str, f64)> = None;
            let mut entries: Vec<(&str, f64)> = scores.iter().map(|(&v, &c)| (v, c)).collect();
            entries.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap().then_with(|| a.0.cmp(b.0)));
            if let Some(&(v, c)) = entries.first() {
                best = Some((v, c));
            }
            match best {
                Some((v, c)) => Resolution {
                    value: Some(v.to_string()),
                    confidence: c,
                },
                None => Resolution {
                    value: None,
                    confidence: 0.0,
                },
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// [`majority_consensus`] as it counted before presizing: a map grown
    /// from empty, and a sorted list of the values sharing the top count.
    /// The oracle of the differential test below.
    fn majority_consensus_reference<S: AsRef<str>>(values: &[S]) -> Resolution {
        let mut counts: HashMap<&str, usize> = HashMap::new();
        for v in values {
            *counts.entry(v.as_ref()).or_insert(0) += 1;
        }
        if counts.is_empty() {
            return Resolution {
                value: None,
                confidence: 0.0,
            };
        }
        let max = counts.values().copied().max().unwrap_or(0);
        let mut top: Vec<&str> = counts
            .iter()
            .filter(|(_, &c)| c == max)
            .map(|(&v, _)| v)
            .collect();
        top.sort_unstable();
        if top.len() == 1 {
            Resolution {
                value: Some(top[0].to_string()),
                confidence: max as f64 / values.len() as f64,
            }
        } else {
            Resolution {
                value: None,
                confidence: 0.0,
            }
        }
    }

    /// Vote values that tie often: the empty string, non-ASCII text, and
    /// values that are prefixes of one another.
    const VOTES: [&str; 7] = ["", "a", "ab", "é", "e\u{301}", "日本", "ß"];

    proptest! {
        /// Both entry points agree with the reference on the value and, bit
        /// for bit, on the confidence.
        #[test]
        fn majority_consensus_matches_the_reference(
            votes in (0usize..3).prop_flat_map(|scale| {
                proptest::collection::vec(0..VOTES.len(), 0..[4, 30, 300][scale])
            }),
        ) {
            let values: Vec<&str> = votes.iter().map(|&v| VOTES[v]).collect();
            let expected = majority_consensus_reference(&values);
            for got in [
                majority_consensus(&values),
                majority_consensus_iter(votes.iter().map(|&v| VOTES[v])),
            ] {
                prop_assert_eq!(&got.value, &expected.value);
                prop_assert_eq!(got.confidence.to_bits(), expected.confidence.to_bits());
            }
        }
    }

    #[test]
    fn majority_consensus_picks_the_most_frequent_value() {
        let r = majority_consensus(&["a", "b", "a", "a", "c"]);
        assert_eq!(r.value.as_deref(), Some("a"));
        assert!((r.confidence - 0.6).abs() < 1e-9);
    }

    #[test]
    fn majority_consensus_tie_yields_no_value() {
        let r = majority_consensus(&["a", "b"]);
        assert_eq!(r.value, None);
        assert_eq!(r.confidence, 0.0);
        let r2 = majority_consensus(&["a", "b", "a", "b"]);
        assert_eq!(r2.value, None);
    }

    #[test]
    fn majority_consensus_edge_cases() {
        assert_eq!(majority_consensus::<&str>(&[]).value, None);
        let r = majority_consensus(&["only"]);
        assert_eq!(r.value.as_deref(), Some("only"));
        assert_eq!(r.confidence, 1.0);
    }

    #[test]
    fn standardization_turns_ties_into_majorities() {
        // The scenario behind Table 8: before standardization "Mary Lee" and
        // "Lee, Mary" split the vote; after standardization MC succeeds.
        let before = majority_consensus(&["Mary Lee", "Lee, Mary", "5th Ave"]);
        assert_eq!(before.value, None);
        let after = majority_consensus(&["Mary Lee", "Mary Lee", "5th Ave"]);
        assert_eq!(after.value.as_deref(), Some("Mary Lee"));
    }

    #[test]
    fn reliability_discovery_follows_reliable_sources() {
        // Source 0 is always right (agrees with the majority on entities 0-2),
        // source 9 is always wrong. On the contested entity 3, source 0's
        // claim must win even though the raw vote is tied.
        let claims = vec![
            vec![
                Claim {
                    value: "x".into(),
                    source: 0,
                },
                Claim {
                    value: "x".into(),
                    source: 1,
                },
                Claim {
                    value: "y".into(),
                    source: 9,
                },
            ],
            vec![
                Claim {
                    value: "u".into(),
                    source: 0,
                },
                Claim {
                    value: "u".into(),
                    source: 2,
                },
                Claim {
                    value: "w".into(),
                    source: 9,
                },
            ],
            vec![
                Claim {
                    value: "p".into(),
                    source: 0,
                },
                Claim {
                    value: "p".into(),
                    source: 3,
                },
                Claim {
                    value: "q".into(),
                    source: 9,
                },
            ],
            vec![
                Claim {
                    value: "good".into(),
                    source: 0,
                },
                Claim {
                    value: "bad".into(),
                    source: 9,
                },
            ],
        ];
        let res = reliability_truth_discovery(&claims, &ReliabilityConfig::default());
        assert_eq!(res[0].value.as_deref(), Some("x"));
        assert_eq!(res[3].value.as_deref(), Some("good"));
        assert!(res[3].confidence > 0.5);
    }

    #[test]
    fn reliability_discovery_handles_empty_entities() {
        let claims = vec![
            vec![],
            vec![Claim {
                value: "a".into(),
                source: 1,
            }],
        ];
        let res = reliability_truth_discovery(&claims, &ReliabilityConfig::default());
        assert_eq!(res[0].value, None);
        assert_eq!(res[1].value.as_deref(), Some("a"));
    }

    #[test]
    fn reliability_discovery_is_deterministic_on_exact_ties() {
        let claims = vec![vec![
            Claim {
                value: "b".into(),
                source: 1,
            },
            Claim {
                value: "a".into(),
                source: 2,
            },
        ]];
        let a = reliability_truth_discovery(&claims, &ReliabilityConfig::default());
        let b = reliability_truth_discovery(&claims, &ReliabilityConfig::default());
        assert_eq!(a, b);
        // Tie broken lexicographically for determinism.
        assert_eq!(a[0].value.as_deref(), Some("a"));
    }

    #[test]
    fn zero_iterations_is_clamped_to_one() {
        let claims = vec![vec![Claim {
            value: "v".into(),
            source: 0,
        }]];
        let config = ReliabilityConfig {
            max_iterations: 0,
            ..ReliabilityConfig::default()
        };
        let res = reliability_truth_discovery(&claims, &config);
        assert_eq!(res[0].value.as_deref(), Some("v"));
    }
}
