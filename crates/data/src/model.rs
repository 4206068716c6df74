//! The clustered-table data model.
//!
//! Entity resolution has already happened upstream: the input of entity
//! consolidation is a set of clusters, each holding the records believed to
//! describe one real-world entity. Every cell additionally carries its ground
//! truth (the latent value it is a rendering of), which the synthetic
//! generators know by construction; evaluation code uses it in place of the
//! paper's manual labelling of 1000 sampled pairs.

use rand::seq::SliceRandom;
use rand::Rng;
use serde::{Deserialize, Serialize};
use std::collections::{HashMap, HashSet};

/// One cell: the observed (possibly variant or conflicting) value and the
/// latent true value it renders.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Cell {
    /// The value as it appears in the source data.
    pub observed: String,
    /// The latent true value (used only for evaluation and the simulated
    /// oracle, never by the learning algorithms).
    pub truth: String,
}

/// One record (row) of a cluster.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Row {
    /// The data source the record came from.
    pub source: usize,
    /// One cell per column of the dataset.
    pub cells: Vec<Cell>,
}

/// A cluster of duplicate records describing one entity.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize, Default)]
pub struct Cluster {
    /// The records of the cluster.
    pub rows: Vec<Row>,
    /// The ground-truth golden record (one canonical value per column).
    pub golden: Vec<String>,
}

impl Cluster {
    /// Number of records in the cluster.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when the cluster has no records.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }
}

/// A clustered dataset.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Dataset {
    /// Human-readable dataset name.
    pub name: String,
    /// Column names.
    pub columns: Vec<String>,
    /// The clusters.
    pub clusters: Vec<Cluster>,
}

/// A labelled pair of cells used for the precision/recall/MCC evaluation: two
/// non-identical values from the same cluster, labelled variant (same latent
/// value) or conflict (different latent values), exactly mirroring the paper's
/// 1000 manually-labelled sample pairs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct LabeledPair {
    /// Cluster index.
    pub cluster: usize,
    /// First row index.
    pub row_a: usize,
    /// Second row index.
    pub row_b: usize,
    /// True when the two cells render the same latent value.
    pub is_variant: bool,
}

/// Dataset statistics in the shape of the paper's Table 6.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DatasetStats {
    /// Average cluster size (records per cluster).
    pub avg_cluster_size: f64,
    /// Smallest cluster size.
    pub min_cluster_size: usize,
    /// Largest cluster size.
    pub max_cluster_size: usize,
    /// Total number of records.
    pub num_records: usize,
    /// Number of clusters.
    pub num_clusters: usize,
    /// Number of distinct non-identical value pairs within clusters.
    pub distinct_value_pairs: usize,
    /// Fraction of distinct pairs that are variant pairs.
    pub variant_pair_fraction: f64,
    /// Fraction of distinct pairs that are conflict pairs.
    pub conflict_pair_fraction: f64,
}

/// The per-column majority of the rows' truth values — how both the synthetic
/// generators and the CSV/resolution loaders define a cluster's golden record
/// when only row-level truth is known. Ties break towards the
/// lexicographically smallest value so the result is deterministic. A row
/// with fewer cells (a shorter record the resolver clustered with longer
/// ones) does not vote on the columns it lacks.
///
/// Each column's count is presized to the number of rows, so a giant
/// cluster never rehashes its values. It keeps std's keyed hasher: the
/// values arrive in request bodies, and an unkeyed hash would let a client
/// craft collisions.
pub fn majority_golden(rows: &[Row], num_columns: usize) -> Vec<String> {
    (0..num_columns)
        .map(|col| {
            let mut counts: HashMap<&str, usize> = HashMap::with_capacity(rows.len());
            for cell in rows.iter().filter_map(|row| row.cells.get(col)) {
                *counts.entry(cell.truth.as_str()).or_insert(0) += 1;
            }
            counts
                .into_iter()
                .max_by_key(|&(v, c)| (c, std::cmp::Reverse(v)))
                .map(|(v, _)| v.to_string())
                .unwrap_or_default()
        })
        .collect()
}

impl Dataset {
    /// Creates an empty dataset with the given name and columns.
    pub fn new(name: impl Into<String>, columns: Vec<String>) -> Self {
        Dataset {
            name: name.into(),
            columns,
            clusters: Vec::new(),
        }
    }

    /// The index of a column by name.
    pub fn column_index(&self, name: &str) -> Option<usize> {
        self.columns.iter().position(|c| c == name)
    }

    /// Total number of records.
    pub fn num_records(&self) -> usize {
        self.clusters.iter().map(Cluster::len).sum()
    }

    /// The observed values of one column, grouped by cluster — the shape the
    /// candidate-generation and application code works on.
    pub fn column_values(&self, col: usize) -> Vec<Vec<String>> {
        self.clusters
            .iter()
            .map(|c| {
                c.rows
                    .iter()
                    .map(|r| r.cells[col].observed.clone())
                    .collect()
            })
            .collect()
    }

    /// [`Dataset::column_values`] without the copy: moves the observed
    /// strings out and leaves each cell's `observed` empty until
    /// [`Dataset::set_column_values`] moves them (or their rewrites) back.
    pub fn take_column_values(&mut self, col: usize) -> Vec<Vec<String>> {
        self.clusters
            .iter_mut()
            .map(|c| {
                c.rows
                    .iter_mut()
                    .map(|r| std::mem::take(&mut r.cells[col].observed))
                    .collect()
            })
            .collect()
    }

    /// Writes back updated observed values for one column (shape must match
    /// [`Dataset::column_values`]).
    ///
    /// # Panics
    /// Panics if the cluster/row shape does not match the dataset.
    pub fn set_column_values(&mut self, col: usize, values: Vec<Vec<String>>) {
        assert_eq!(values.len(), self.clusters.len(), "cluster count mismatch");
        for (cluster, new_values) in self.clusters.iter_mut().zip(values) {
            assert_eq!(cluster.rows.len(), new_values.len(), "row count mismatch");
            for (row, value) in cluster.rows.iter_mut().zip(new_values) {
                row.cells[col].observed = value;
            }
        }
    }

    /// The set of ground-truth (canonical) values of one column.
    pub fn canonical_values(&self, col: usize) -> HashSet<String> {
        self.clusters
            .iter()
            .map(|c| c.golden[col].clone())
            .collect()
    }

    /// For every distinct non-identical observed value pair within some
    /// cluster, how many cell pairs labelled variant vs conflict it covers.
    /// The simulated oracle uses this to emulate the human "most or all pairs
    /// look right" judgement.
    pub fn pair_labels(&self, col: usize) -> HashMap<(String, String), (usize, usize)> {
        let mut out: HashMap<(String, String), (usize, usize)> = HashMap::new();
        for cluster in &self.clusters {
            for (i, a) in cluster.rows.iter().enumerate() {
                for b in cluster.rows.iter().skip(i + 1) {
                    let va = &a.cells[col];
                    let vb = &b.cells[col];
                    if va.observed == vb.observed {
                        continue;
                    }
                    let variant = va.truth == vb.truth;
                    for key in [
                        (va.observed.clone(), vb.observed.clone()),
                        (vb.observed.clone(), va.observed.clone()),
                    ] {
                        let entry = out.entry(key).or_insert((0, 0));
                        if variant {
                            entry.0 += 1;
                        } else {
                            entry.1 += 1;
                        }
                    }
                }
            }
        }
        out
    }

    /// Dataset statistics (Table 6) for one column.
    pub fn stats(&self, col: usize) -> DatasetStats {
        let sizes: Vec<usize> = self.clusters.iter().map(Cluster::len).collect();
        let num_records: usize = sizes.iter().sum();
        let mut distinct_pairs: HashSet<(String, String)> = HashSet::new();
        let mut variant_pairs: HashSet<(String, String)> = HashSet::new();
        for cluster in &self.clusters {
            for (i, a) in cluster.rows.iter().enumerate() {
                for b in cluster.rows.iter().skip(i + 1) {
                    let va = &a.cells[col];
                    let vb = &b.cells[col];
                    if va.observed == vb.observed {
                        continue;
                    }
                    let key = if va.observed < vb.observed {
                        (va.observed.clone(), vb.observed.clone())
                    } else {
                        (vb.observed.clone(), va.observed.clone())
                    };
                    if va.truth == vb.truth {
                        variant_pairs.insert(key.clone());
                    }
                    distinct_pairs.insert(key);
                }
            }
        }
        let total = distinct_pairs.len();
        let variant = distinct_pairs
            .iter()
            .filter(|p| variant_pairs.contains(*p))
            .count();
        DatasetStats {
            avg_cluster_size: if sizes.is_empty() {
                0.0
            } else {
                num_records as f64 / sizes.len() as f64
            },
            min_cluster_size: sizes.iter().copied().min().unwrap_or(0),
            max_cluster_size: sizes.iter().copied().max().unwrap_or(0),
            num_records,
            num_clusters: self.clusters.len(),
            distinct_value_pairs: total,
            variant_pair_fraction: if total == 0 {
                0.0
            } else {
                variant as f64 / total as f64
            },
            conflict_pair_fraction: if total == 0 {
                0.0
            } else {
                (total - variant) as f64 / total as f64
            },
        }
    }

    /// Samples up to `n` labelled cell pairs with non-identical observed
    /// values (the evaluation sample of Section 8, which the paper draws with
    /// size 1000 and labels by hand).
    pub fn sample_labeled_pairs<R: Rng>(
        &self,
        col: usize,
        n: usize,
        rng: &mut R,
    ) -> Vec<LabeledPair> {
        let mut all: Vec<LabeledPair> = Vec::new();
        for (c, cluster) in self.clusters.iter().enumerate() {
            for i in 0..cluster.rows.len() {
                for j in (i + 1)..cluster.rows.len() {
                    let a = &cluster.rows[i].cells[col];
                    let b = &cluster.rows[j].cells[col];
                    if a.observed != b.observed {
                        all.push(LabeledPair {
                            cluster: c,
                            row_a: i,
                            row_b: j,
                            is_variant: a.truth == b.truth,
                        });
                    }
                }
            }
        }
        all.shuffle(rng);
        all.truncate(n);
        all
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// A tiny hand-built dataset mirroring Table 1 of the paper.
    pub(crate) fn table1() -> Dataset {
        let mut d = Dataset::new("table1", vec!["Name".to_string(), "Address".to_string()]);
        let mk = |observed: &str, truth: &str| Cell {
            observed: observed.to_string(),
            truth: truth.to_string(),
        };
        d.clusters.push(Cluster {
            rows: vec![
                Row {
                    source: 0,
                    cells: vec![
                        mk("Mary Lee", "Mary Lee"),
                        mk("9 St, 02141 Wisconsin", "9th Street, 02141 WI"),
                    ],
                },
                Row {
                    source: 1,
                    cells: vec![
                        mk("M. Lee", "Mary Lee"),
                        mk("9th St, 02141 WI", "9th Street, 02141 WI"),
                    ],
                },
                Row {
                    source: 2,
                    cells: vec![
                        mk("Lee, Mary", "Mary Lee"),
                        mk("9 Street, 02141 WI", "9th Street, 02141 WI"),
                    ],
                },
            ],
            golden: vec!["Mary Lee".to_string(), "9th Street, 02141 WI".to_string()],
        });
        d.clusters.push(Cluster {
            rows: vec![
                Row {
                    source: 0,
                    cells: vec![
                        mk("Smith, James", "James Smith"),
                        mk("5th St, 22701 California", "5th St, 22701 California"),
                    ],
                },
                Row {
                    source: 1,
                    cells: vec![
                        mk("James Smith", "James Smith"),
                        mk("3rd E Ave, 33990 California", "3rd E Avenue, 33990 CA"),
                    ],
                },
                Row {
                    source: 2,
                    cells: vec![
                        mk("J. Smith", "James Smith"),
                        mk("3 E Avenue, 33990 CA", "3rd E Avenue, 33990 CA"),
                    ],
                },
            ],
            golden: vec![
                "James Smith".to_string(),
                "3rd E Avenue, 33990 CA".to_string(),
            ],
        });
        d
    }

    #[test]
    fn column_round_trip() {
        let mut d = table1();
        let col = d.column_index("Name").unwrap();
        let mut values = d.column_values(col);
        assert_eq!(values[0][2], "Lee, Mary");
        values[0][2] = "Mary Lee".to_string();
        d.set_column_values(col, values);
        assert_eq!(d.clusters[0].rows[2].cells[col].observed, "Mary Lee");
        // Truth is untouched.
        assert_eq!(d.clusters[0].rows[2].cells[col].truth, "Mary Lee");

        // Taking the values moves them out and leaves the cells empty;
        // setting them back restores the dataset.
        let before = d.clone();
        let taken = d.take_column_values(col);
        assert_eq!(taken, before.column_values(col));
        assert!(d
            .clusters
            .iter()
            .flat_map(|c| &c.rows)
            .all(|r| r.cells[col].observed.is_empty()));
        assert_eq!(d.clusters[0].rows[0].cells[col].truth, "Mary Lee");
        d.set_column_values(col, taken);
        assert_eq!(d, before);
    }

    #[test]
    fn stats_match_the_hand_built_table() {
        let d = table1();
        let s = d.stats(0);
        assert_eq!(s.num_clusters, 2);
        assert_eq!(s.num_records, 6);
        assert_eq!(s.min_cluster_size, 3);
        assert_eq!(s.max_cluster_size, 3);
        assert!((s.avg_cluster_size - 3.0).abs() < 1e-9);
        // Name column: 3 distinct pairs per cluster, all variants.
        assert_eq!(s.distinct_value_pairs, 6);
        assert_eq!(s.variant_pair_fraction, 1.0);
        assert_eq!(s.conflict_pair_fraction, 0.0);
    }

    #[test]
    fn address_column_has_conflicts() {
        let d = table1();
        let col = d.column_index("Address").unwrap();
        let s = d.stats(col);
        assert!(
            s.conflict_pair_fraction > 0.0,
            "the Smith cluster has two different addresses"
        );
        assert!(s.variant_pair_fraction > 0.0);
    }

    #[test]
    fn pair_labels_are_symmetric_and_consistent() {
        let d = table1();
        let labels = d.pair_labels(0);
        let ab = labels
            .get(&("Mary Lee".to_string(), "M. Lee".to_string()))
            .unwrap();
        let ba = labels
            .get(&("M. Lee".to_string(), "Mary Lee".to_string()))
            .unwrap();
        assert_eq!(ab, ba);
        assert_eq!(*ab, (1, 0));
        let col = d.column_index("Address").unwrap();
        let labels = d.pair_labels(col);
        let conflict = labels
            .get(&(
                "5th St, 22701 California".to_string(),
                "3rd E Ave, 33990 California".to_string(),
            ))
            .unwrap();
        assert_eq!(*conflict, (0, 1));
    }

    #[test]
    fn sampling_respects_the_requested_size_and_labels() {
        let d = table1();
        let mut rng = StdRng::seed_from_u64(7);
        let sample = d.sample_labeled_pairs(0, 100, &mut rng);
        assert_eq!(sample.len(), 6, "only 6 non-identical pairs exist");
        assert!(sample.iter().all(|p| p.is_variant));
        let small = d.sample_labeled_pairs(0, 2, &mut rng);
        assert_eq!(small.len(), 2);
    }

    #[test]
    fn canonical_values() {
        let d = table1();
        let canon = d.canonical_values(0);
        assert!(canon.contains("Mary Lee"));
        assert!(canon.contains("James Smith"));
        assert_eq!(canon.len(), 2);
    }

    #[test]
    #[should_panic(expected = "cluster count mismatch")]
    fn set_column_values_shape_mismatch_panics() {
        let mut d = table1();
        d.set_column_values(0, vec![vec![]]);
    }

    use proptest::prelude::*;

    /// [`majority_golden`] as it counted before presizing: a fresh map per
    /// column, grown from empty. The oracle of the differential test below.
    fn majority_golden_reference(rows: &[Row], num_columns: usize) -> Vec<String> {
        (0..num_columns)
            .map(|col| {
                let mut counts: HashMap<&str, usize> = HashMap::new();
                for cell in rows.iter().filter_map(|row| row.cells.get(col)) {
                    *counts.entry(cell.truth.as_str()).or_insert(0) += 1;
                }
                counts
                    .into_iter()
                    .max_by_key(|&(v, c)| (c, std::cmp::Reverse(v)))
                    .map(|(v, _)| v.to_string())
                    .unwrap_or_default()
            })
            .collect()
    }

    /// Vote values that tie often: the empty string, non-ASCII text, and
    /// values that are prefixes of one another.
    const VOTES: [&str; 8] = ["", "a", "ab", "b", "é", "e\u{301}", "日本", "ß"];

    /// Rows of up to `num_columns` cells each (shorter rows included), with
    /// truths drawn from [`VOTES`].
    fn arb_rows() -> impl Strategy<Value = (Vec<Row>, usize)> {
        (1usize..4).prop_flat_map(|num_columns| {
            proptest::collection::vec(
                proptest::collection::vec(0..VOTES.len(), 0..=num_columns),
                0..14usize,
            )
            .prop_map(move |rows| {
                let rows = rows
                    .into_iter()
                    .enumerate()
                    .map(|(source, truths)| Row {
                        source,
                        cells: truths
                            .into_iter()
                            .map(|t| Cell {
                                observed: String::new(),
                                truth: VOTES[t].to_string(),
                            })
                            .collect(),
                    })
                    .collect();
                (rows, num_columns)
            })
        })
    }

    proptest! {
        #[test]
        fn majority_golden_matches_the_reference((rows, num_columns) in arb_rows()) {
            prop_assert_eq!(
                majority_golden(&rows, num_columns),
                majority_golden_reference(&rows, num_columns)
            );
        }
    }

    #[test]
    fn majority_golden_breaks_ties_towards_the_smallest_value() {
        let row = |truths: &[&str]| Row {
            source: 0,
            cells: truths
                .iter()
                .map(|t| Cell {
                    observed: String::new(),
                    truth: t.to_string(),
                })
                .collect(),
        };
        let rows = vec![row(&["b", "x"]), row(&["a", ""]), row(&["é"])];
        // Column 0 ties three ways; column 1 ties "" and "x" between the two
        // rows long enough to vote; column 2 has no voter.
        assert_eq!(majority_golden(&rows, 3), vec!["a", "", ""]);
    }
}
