//! Compiled datasets: the prepared state of a consolidation run, built once
//! and reused many times.
//!
//! Everything the budgeted review loop needs per column — the candidate
//! replacement sets, the structure partitions, and each partition's prepared
//! graphs/interner/inverted index — is deterministic given the resolved
//! dataset and the configuration. [`compile_dataset`] computes it eagerly
//! (the budget is a runtime parameter, so *every* partition is prepared);
//! `ec compile` serializes the result into a memory-mappable artifact
//! (`ec-artifact`). Handing the compiled state to
//! [`crate::standardize_columns_with`] runs the same column driver and the
//! same review loop as a CSV build: only the loop's input changes — the
//! engine and grouper are reassembled from the stored candidate sets and
//! partitions — so the output is byte-identical while candidate
//! generation, graph construction and index building are skipped.

use crate::consolidate::RunOptions;
use crate::pipeline::ConsolidationConfig;
use ec_data::Dataset;
use ec_graph::Replacement;
use ec_grouping::{partition_replacements, GroupingConfig, PreparedGraphs};
use ec_replace::{CandidateSet, ReplacementEngine};
use std::sync::Arc;

/// One structure partition of a column, with its preparation done.
#[derive(Debug, Clone)]
pub struct CompiledPartition {
    /// The partition's replacements, in the order
    /// [`partition_replacements`] produces.
    pub members: Vec<Replacement>,
    /// The prepared graphs, interner and inverted index for `members`.
    pub prepared: Arc<PreparedGraphs>,
}

/// The compiled state of one column.
#[derive(Debug, Clone)]
pub struct CompiledColumn {
    /// The full candidate set generated from the column's cluster values.
    pub candidates: CandidateSet,
    /// The structure partitions over the (non-empty) candidates, biggest
    /// first — the same order a fresh [`ec_grouping::StructuredGrouper`]
    /// would scan.
    pub partitions: Vec<CompiledPartition>,
}

/// A resolved dataset with every column's consolidation state prepared.
#[derive(Debug, Clone)]
pub struct CompiledDataset {
    /// The dataset name (the `name` every entry point threads through).
    pub name: String,
    /// The resolution threshold the clusters were formed with. The clusters
    /// baked into `dataset` cannot be re-resolved, so consumers refuse runs
    /// that ask for a different one ([`CompiledDataset::check_threshold`]).
    pub threshold: f64,
    /// Whether the dataset carries ground truth (drives oracle selection).
    pub has_truth: bool,
    /// The resolved, clustered dataset.
    pub dataset: Dataset,
    /// One compiled state per dataset column.
    pub columns: Vec<CompiledColumn>,
}

impl CompiledDataset {
    /// The columns every entry point resolves specs against.
    pub fn column_names(&self) -> &[String] {
        &self.dataset.columns
    }

    /// Refuses a run whose `threshold` was given and differs from the one
    /// the clusters were compiled at — they cannot be re-resolved. The error
    /// reads after the artifact's name.
    pub fn check_threshold(&self, options: &RunOptions) -> Result<(), String> {
        if options.threshold_given && options.threshold != self.threshold {
            return Err(format!(
                "was compiled at threshold {}, not {}; re-run `ec compile` to change it",
                self.threshold, options.threshold
            ));
        }
        Ok(())
    }
}

/// Compiles `dataset` (already resolved into clusters at `threshold`): per
/// column, generates candidates, partitions them by structure, and prepares
/// every partition's graphs and inverted index. Partitions are independent,
/// so a column's are prepared on up to `config.grouping.parallelism` pool
/// tasks and put back in partition order: the thread count never changes
/// the result.
///
/// The grouping/candidate parts of `config` must match the configuration the
/// compiled state will later be *run* with — `ec` entry points all use the
/// defaults, so this holds by construction; parallelism and budget are
/// runtime knobs that never change outputs.
pub fn compile_dataset(
    dataset: Dataset,
    threshold: f64,
    has_truth: bool,
    config: &ConsolidationConfig,
) -> CompiledDataset {
    let columns = (0..dataset.columns.len())
        .map(|col| {
            let values = dataset.column_values(col);
            let engine = ReplacementEngine::new(values, &config.candidates);
            let candidates = engine.candidates();
            let partitions = prepare_partitions(
                partition_replacements(&candidates, &config.grouping),
                &config.grouping,
            );
            CompiledColumn {
                candidates: engine.candidate_set().clone(),
                partitions,
            }
        })
        .collect();
    CompiledDataset {
        name: dataset.name.clone(),
        threshold,
        has_truth,
        dataset,
        columns,
    }
}

/// Prepares every partition of `parts` over [`GroupingConfig::parallelism`]
/// (see [`ec_graph::Parallelism::map_claimed`]): the output is the same at
/// every thread count.
fn prepare_partitions(
    parts: Vec<Vec<Replacement>>,
    config: &GroupingConfig,
) -> Vec<CompiledPartition> {
    let parts = Arc::new(parts);
    let build = config.clone();
    let prepared = config.parallelism.map_claimed(&parts, move |members| {
        PreparedGraphs::build(members, &build)
    });
    let parts = Arc::try_unwrap(parts).unwrap_or_else(|parts| (*parts).clone());
    parts
        .into_iter()
        .zip(prepared)
        .map(|(members, prepared)| CompiledPartition {
            members,
            prepared: Arc::new(prepared),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::consolidate::{standardize_columns, standardize_columns_with, AutoMode, AutoReview};
    use crate::library::ProgramLibrary;
    use crate::pipeline::Pipeline;
    use ec_data::{GeneratorConfig, PaperDataset};

    #[test]
    fn compiled_standardization_matches_the_fresh_path_exactly() {
        let dataset = PaperDataset::Address.generate(&GeneratorConfig {
            num_clusters: 12,
            seed: 21,
            num_sources: 3,
        });
        let config = ConsolidationConfig {
            budget: 10,
            ..ConsolidationConfig::default()
        };
        let pipeline = Pipeline::new(config.clone());
        let columns: Vec<usize> = (0..dataset.columns.len()).collect();

        let mut fresh = dataset.clone();
        let mut fresh_library = ProgramLibrary::new();
        let fresh_reports = standardize_columns(
            &pipeline,
            &mut fresh,
            &columns,
            AutoMode::Auto,
            true,
            Some(&mut fresh_library),
        );

        let compiled = compile_dataset(dataset, 0.75, true, &config);
        let mut from_compiled = compiled.dataset.clone();
        let mut compiled_library = ProgramLibrary::new();
        let compiled_reports = standardize_columns_with(
            &pipeline,
            &mut from_compiled,
            Some(&compiled),
            &columns,
            &mut AutoReview::new(AutoMode::Auto, compiled.has_truth),
            Some(&mut compiled_library),
        );

        assert_eq!(fresh, from_compiled, "standardized datasets agree");
        assert_eq!(fresh_reports, compiled_reports, "reports agree");
        assert_eq!(
            fresh_library.to_snapshot(),
            compiled_library.to_snapshot(),
            "learned programs agree"
        );
    }

    #[test]
    fn compiled_partitions_do_not_depend_on_the_thread_count() {
        let dataset = PaperDataset::Address.generate(&GeneratorConfig {
            num_clusters: 30,
            seed: 9,
            num_sources: 3,
        });
        let compile = |threads| {
            let config = ConsolidationConfig::default()
                .with_parallelism(ec_graph::Parallelism::fixed(threads));
            compile_dataset(dataset.clone(), 0.75, true, &config)
        };
        let (one, four) = (compile(1), compile(4));
        assert_eq!(one.columns.len(), four.columns.len());
        let mut partitions = 0;
        for (a, b) in one.columns.iter().zip(&four.columns) {
            assert_eq!(a.partitions.len(), b.partitions.len());
            for (a, b) in a.partitions.iter().zip(&b.partitions) {
                let (x, y) = (&a.prepared, &b.prepared);
                assert_eq!(a.members, b.members);
                assert_eq!(x.replacements(), y.replacements());
                assert_eq!(x.skipped(), y.skipped());
                assert_eq!(x.graphs(), y.graphs());
                let labels = |p: &PreparedGraphs| p.interner().iter().collect::<Vec<_>>();
                assert_eq!(labels(x), labels(y));
                assert_eq!(x.index().raw_parts(), y.index().raw_parts());
                partitions += 1;
            }
        }
        assert!(partitions > 4, "enough partitions for several tasks");
    }

    #[test]
    fn compile_prepares_every_partition_eagerly() {
        let dataset = PaperDataset::Address.generate(&GeneratorConfig {
            num_clusters: 8,
            seed: 3,
            num_sources: 3,
        });
        let compiled = compile_dataset(dataset, 0.75, true, &ConsolidationConfig::default());
        assert_eq!(compiled.columns.len(), compiled.dataset.columns.len());
        for column in &compiled.columns {
            let partition_total: usize = column.partitions.iter().map(|p| p.members.len()).sum();
            let candidate_total = column
                .candidates
                .replacements
                .iter()
                .filter(|r| !column.candidates.set(r).is_empty())
                .count();
            assert_eq!(partition_total, candidate_total);
            for p in &column.partitions {
                assert_eq!(
                    p.prepared.len() + p.prepared.skipped().len(),
                    p.members.len(),
                    "every member has a graph or is recorded as skipped"
                );
            }
        }
    }
}
