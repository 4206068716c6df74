//! Candidate-replacement generation (Section 3 Step 1, Appendix A).

use crate::align::lcs_token_pairs;
use crate::engine::CellRef;
use ec_graph::{Parallelism, Replacement};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Configuration of candidate generation.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CandidateConfig {
    /// Generate the full-value pairs `v_j → v_k` / `v_k → v_j` for every pair
    /// of non-identical values in a cluster (Section 3 Step 1).
    pub full_value_pairs: bool,
    /// Additionally generate token-level pairs from the LCS alignment of each
    /// value pair (Appendix A).
    pub token_level_pairs: bool,
    /// Skip clusters with more than this many *distinct* values in the column
    /// (quadratic pair blow-up guard). `None` disables the guard.
    pub max_distinct_values_per_cluster: Option<usize>,
    /// Worker threads for sharding the per-cluster generation work. The
    /// produced [`CandidateSet`] is bit-identical for every setting (clusters
    /// are chunked in order and the chunks merged back in order), only the
    /// wall-clock time changes.
    pub parallelism: Parallelism,
}

impl Default for CandidateConfig {
    fn default() -> Self {
        CandidateConfig {
            full_value_pairs: true,
            token_level_pairs: true,
            max_distinct_values_per_cluster: Some(64),
            parallelism: Parallelism::AUTO,
        }
    }
}

impl CandidateConfig {
    /// Only the coarse full-value pairs (the configuration used when
    /// reproducing the paper's examples on the Name attribute of Table 1).
    pub fn full_value_only() -> Self {
        CandidateConfig {
            token_level_pairs: false,
            ..Self::default()
        }
    }

    /// True when a cluster with these cell values has more distinct values
    /// than [`CandidateConfig::max_distinct_values_per_cluster`] allows, so
    /// candidate generation skips it and it contributes no candidate.
    pub fn skips_cluster(&self, values: &[String]) -> bool {
        let Some(max) = self.max_distinct_values_per_cluster else {
            return false;
        };
        // Only whether the count passes `max` matters, so the scan stops
        // there: a huge cluster costs O(len * max), not O(len²).
        let mut distinct: Vec<&String> = Vec::new();
        for v in values {
            if !distinct.contains(&v) {
                distinct.push(v);
                if distinct.len() > max {
                    return true;
                }
            }
        }
        false
    }
}

/// The candidate replacements of one column together with their replacement
/// sets (the cells each candidate was generated from — the paper's
/// `L[lhs → rhs]`).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct CandidateSet {
    /// Distinct candidate replacements, in first-seen order.
    pub replacements: Vec<Replacement>,
    /// `sets[r]` = cells whose value is `r.lhs()` and which co-occur with
    /// `r.rhs()` in their cluster (full-value candidates), or cells whose value
    /// *contains* the `r.lhs()` segment aligned against `r.rhs()` (token-level
    /// candidates).
    pub sets: HashMap<Replacement, Vec<CellRef>>,
}

impl CandidateSet {
    /// Number of distinct candidate replacements.
    pub fn len(&self) -> usize {
        self.replacements.len()
    }

    /// True when no candidate was generated.
    pub fn is_empty(&self) -> bool {
        self.replacements.is_empty()
    }

    /// The replacement set of a candidate (empty if unknown).
    pub fn set(&self, r: &Replacement) -> &[CellRef] {
        self.sets.get(r).map(|v| v.as_slice()).unwrap_or(&[])
    }

    fn push(&mut self, r: Replacement, cell: CellRef) {
        let entry = self.sets.entry(r.clone()).or_insert_with(|| {
            self.replacements.push(r);
            Vec::new()
        });
        if !entry.contains(&cell) {
            entry.push(cell);
        }
    }
}

/// Generates the candidate replacements for one column, given the cell values
/// of that column grouped by cluster (`clusters[c][r]` is the value of row `r`
/// of cluster `c`).
///
/// Clusters are independent, so the work is sharded across
/// [`CandidateConfig::parallelism`] worker threads: each worker generates the
/// candidates of one contiguous cluster chunk, and the chunks are merged back
/// in cluster order. First-seen candidate order over the in-order merge equals
/// first-seen order of the sequential scan, so the result is bit-identical for
/// every thread count.
pub fn generate_candidates(clusters: &[Vec<String>], config: &CandidateConfig) -> CandidateSet {
    let _span = ec_obs::span!("replace.generate_candidates", clusters.len());
    let shards = config.parallelism.shards(clusters.len());
    if shards <= 1 {
        return generate_cluster_range(clusters, 0, config);
    }
    let chunk_size = clusters.len().div_ceil(shards);
    // Chunks run as `'static` tasks on the shared worker pool (no scoped
    // threads), so the cluster values move behind one `Arc` and each task
    // gets an index range — no per-task copies of the column.
    let clusters: std::sync::Arc<Vec<Vec<String>>> = std::sync::Arc::new(clusters.to_vec());
    let tasks: Vec<ec_graph::PoolTask<CandidateSet>> = (0..clusters.len())
        .step_by(chunk_size)
        .map(|start| {
            let clusters = std::sync::Arc::clone(&clusters);
            let config = config.clone();
            Box::new(move || {
                let chunk = &clusters[start..(start + chunk_size).min(clusters.len())];
                generate_cluster_range(chunk, start, &config)
            }) as ec_graph::PoolTask<CandidateSet>
        })
        .collect();
    let parts: Vec<CandidateSet> = config.parallelism.run_tasks(tasks);
    let mut out = CandidateSet::default();
    for part in parts {
        let mut sets = part.sets;
        for r in part.replacements {
            // Chunks cover disjoint cluster ranges, so every (candidate, cell)
            // pair is new to `out` and the per-cell dedup scan of `push` can
            // be skipped; appending in chunk order reproduces the sequential
            // first-seen candidate and cell order exactly.
            let cells = sets.remove(&r).unwrap_or_default();
            out.sets
                .entry(r.clone())
                .or_insert_with(|| {
                    out.replacements.push(r);
                    Vec::new()
                })
                .extend(cells);
        }
    }
    out
}

/// Sequential candidate generation over `clusters`, whose first element has
/// the global cluster index `first_cluster` (used so sharded chunks emit
/// correct [`CellRef`]s).
fn generate_cluster_range(
    clusters: &[Vec<String>],
    first_cluster: usize,
    config: &CandidateConfig,
) -> CandidateSet {
    let mut out = CandidateSet::default();
    for (offset, values) in clusters.iter().enumerate() {
        let c = first_cluster + offset;
        if config.skips_cluster(values) {
            continue;
        }
        for (i, a) in values.iter().enumerate() {
            for (j, b) in values.iter().enumerate() {
                if i == j || a == b {
                    continue;
                }
                if config.full_value_pairs {
                    if let Some(r) = Replacement::try_new(a.as_str(), b.as_str()) {
                        out.push(r, CellRef { cluster: c, row: i });
                    }
                }
                if config.token_level_pairs && i < j {
                    // Canonical orientation: align the lexicographically
                    // smaller value against the larger one. LCS tie-breaking
                    // is not symmetric in its arguments, so without this the
                    // generated candidate set could depend on the order the
                    // two records appear in the cluster.
                    let ((x, xi), (y, yj)) = if a <= b {
                        ((a, i), (b, j))
                    } else {
                        ((b, j), (a, i))
                    };
                    for (left, right) in lcs_token_pairs(x, y) {
                        if let Some(r) = Replacement::try_new(left.as_str(), right.as_str()) {
                            out.push(
                                r,
                                CellRef {
                                    cluster: c,
                                    row: xi,
                                },
                            );
                        }
                        if let Some(r) = Replacement::try_new(right.as_str(), left.as_str()) {
                            out.push(
                                r,
                                CellRef {
                                    cluster: c,
                                    row: yj,
                                },
                            );
                        }
                    }
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The Name column of Table 1: two clusters of three records each.
    fn table1_name_column() -> Vec<Vec<String>> {
        vec![
            vec!["Mary Lee".into(), "M. Lee".into(), "Lee, Mary".into()],
            vec![
                "Smith, James".into(),
                "James Smith".into(),
                "J. Smith".into(),
            ],
        ]
    }

    // Section 3 Step 1: "We will generate 12 candidate replacements from the
    // two clusters" (full-value pairs of the Name attribute).
    #[test]
    fn table1_name_column_generates_12_full_value_candidates() {
        let set = generate_candidates(&table1_name_column(), &CandidateConfig::full_value_only());
        assert_eq!(set.len(), 12);
        assert!(set
            .replacements
            .contains(&Replacement::new("Mary Lee", "M. Lee")));
        assert!(set
            .replacements
            .contains(&Replacement::new("Lee, Mary", "Mary Lee")));
        assert!(set
            .replacements
            .contains(&Replacement::new("Smith, James", "J. Smith")));
    }

    #[test]
    fn replacement_sets_point_at_the_generating_cells() {
        let set = generate_candidates(&table1_name_column(), &CandidateConfig::full_value_only());
        let r = Replacement::new("Mary Lee", "M. Lee");
        assert_eq!(set.set(&r), &[CellRef { cluster: 0, row: 0 }]);
        let r2 = Replacement::new("J. Smith", "Smith, James");
        assert_eq!(set.set(&r2), &[CellRef { cluster: 1, row: 2 }]);
        // A replacement that was never generated has an empty set.
        assert!(set.set(&Replacement::new("x", "y")).is_empty());
    }

    // Appendix A: the Address attribute produces the four token-level
    // candidates 9→9th, 9th→9, Wisconsin→WI, WI→Wisconsin.
    #[test]
    fn token_level_candidates_from_address_example() {
        let clusters = vec![vec![
            "9 St, 02141 Wisconsin".to_string(),
            "9th St, 02141 WI".to_string(),
        ]];
        let set = generate_candidates(
            &clusters,
            &CandidateConfig {
                full_value_pairs: false,
                token_level_pairs: true,
                max_distinct_values_per_cluster: None,
                ..CandidateConfig::default()
            },
        );
        for (lhs, rhs) in [
            ("9", "9th"),
            ("9th", "9"),
            ("Wisconsin", "WI"),
            ("WI", "Wisconsin"),
        ] {
            assert!(
                set.replacements.contains(&Replacement::new(lhs, rhs)),
                "missing {lhs} -> {rhs}: {:?}",
                set.replacements
            );
        }
        assert_eq!(set.len(), 4);
    }

    #[test]
    fn duplicate_values_in_a_cluster_do_not_pair_with_themselves() {
        let clusters = vec![vec!["a".to_string(), "a".to_string(), "b".to_string()]];
        let set = generate_candidates(&clusters, &CandidateConfig::full_value_only());
        assert_eq!(set.len(), 2); // a->b and b->a only
        let ab = Replacement::new("a", "b");
        // Both copies of "a" are recorded as generating cells.
        assert_eq!(set.set(&ab).len(), 2);
    }

    #[test]
    fn oversized_clusters_are_skipped() {
        let big: Vec<String> = (0..40).map(|i| format!("value {i}")).collect();
        // Exactly at the cap: ten distinct values, each repeated.
        let at_cap: Vec<String> = (0..20).map(|i| format!("kept {}", i % 10)).collect();
        let clusters = vec![big, vec!["a".to_string(), "b".to_string()], at_cap];
        let config = CandidateConfig {
            max_distinct_values_per_cluster: Some(10),
            ..CandidateConfig::default()
        };
        let set = generate_candidates(&clusters, &config);
        assert!(set
            .replacements
            .iter()
            .all(|r| !r.lhs().starts_with("value")));
        assert!(set.replacements.contains(&Replacement::new("a", "b")));
        assert!(set
            .replacements
            .contains(&Replacement::new("kept 0", "kept 9")));
    }

    #[test]
    fn singleton_and_empty_clusters_generate_nothing() {
        let clusters = vec![vec![], vec!["only".to_string()]];
        let set = generate_candidates(&clusters, &CandidateConfig::default());
        assert!(set.is_empty());
    }

    #[test]
    fn sharded_generation_is_bit_identical_to_sequential() {
        // Enough clusters that every thread count below actually shards, with
        // duplicated values across clusters so the merge has to dedup.
        let clusters: Vec<Vec<String>> = (0..23)
            .map(|c| {
                vec![
                    format!("{} Main Street", c % 7),
                    format!("{} Main St", c % 7),
                    format!("{} Main Street, Apt 1", c % 5),
                ]
            })
            .collect();
        let sequential = generate_candidates(
            &clusters,
            &CandidateConfig {
                parallelism: Parallelism::SEQUENTIAL,
                ..CandidateConfig::default()
            },
        );
        for threads in [2, 3, 4, 9] {
            let sharded = generate_candidates(
                &clusters,
                &CandidateConfig {
                    parallelism: Parallelism::fixed(threads),
                    ..CandidateConfig::default()
                },
            );
            assert_eq!(
                sequential.replacements, sharded.replacements,
                "candidate order must not depend on thread count ({threads})"
            );
            assert_eq!(
                sequential, sharded,
                "replacement sets must not depend on thread count ({threads})"
            );
        }
    }

    #[test]
    fn candidates_are_deduplicated_across_clusters() {
        let clusters = vec![
            vec!["Street".to_string(), "St".to_string()],
            vec!["Street".to_string(), "St".to_string()],
        ];
        let set = generate_candidates(&clusters, &CandidateConfig::full_value_only());
        assert_eq!(set.len(), 2);
        let r = Replacement::new("Street", "St");
        assert_eq!(set.set(&r).len(), 2, "one generating cell per cluster");
    }
}
