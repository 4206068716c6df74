//! Grouping configuration.

use ec_graph::{GraphConfig, Parallelism};
use serde::{Deserialize, Serialize};

/// Configuration shared by all grouping drivers.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GroupingConfig {
    /// Graph-construction configuration (affix labels on/off, constant policy, …).
    pub graph: GraphConfig,
    /// Maximum number of string functions in a pivot path. The paper limits
    /// the path length to 6 in all experiments (Section 8.2); longer paths are
    /// never explored.
    pub max_path_len: usize,
    /// Enable the local/global threshold early-termination optimizations of
    /// Section 5.2. Disabling this reproduces the `OneShot` baseline of
    /// Figure 9; it never changes the produced groups, only the time taken.
    pub early_termination: bool,
    /// Pre-partition replacements by their structure signatures (Section 7.2)
    /// before grouping. Only consulted by [`crate::StructuredGrouper`].
    pub structure_refinement: bool,
    /// Budget on the number of path extensions (inverted-list intersections)
    /// one pivot-path search may perform. Appendix E notes that when the
    /// search is too expensive one can cap the path length or sample; this cap
    /// plays the same role for pathological graphs (very long outputs whose
    /// pieces rarely occur in the input): when it is hit, the best complete
    /// path found so far is used. Every label the search examines costs one
    /// step, including a parallel label whose extension duplicates a
    /// sibling's and is collapsed without being explored. Dominance pruning
    /// (see the search module) lets every search on the address workloads
    /// finish well inside the default; the groupers count the searches that
    /// do not ([`crate::StructuredGrouper::searches_truncated`]), and
    /// `ec_pivot_budget_exhausted_total` counts them process-wide.
    ///
    /// **Determinism:** results are bit-identical for every
    /// [`GroupingConfig::parallelism`] even when this budget truncates a
    /// search — each search is one sequential DFS, and the searches of one
    /// partition run one after another, so step consumption never depends
    /// on the thread count. Changing *this cap itself* (or toggling
    /// [`GroupingConfig::early_termination`]) can change the groups on
    /// workloads where the budget binds, since pruning strength then decides
    /// where a search is cut off.
    pub max_search_steps: usize,
    /// Worker threads for grouping. [`crate::StructuredGrouper`] materializes
    /// up to this many structure partitions at once (the partition the
    /// sequential rule needs plus prefetched ones, revealed in sequential
    /// order), and [`crate::StructuredGrouper::one_shot_all`] groups up to
    /// this many partitions at once. Within a partition, graph preparation
    /// and the pivot searches are sequential, so prepared graphs, label ids
    /// and search results never depend on it. Every setting produces
    /// bit-identical groups; only the wall-clock time changes (see
    /// `ec_graph::Parallelism`).
    pub parallelism: Parallelism,
}

impl Default for GroupingConfig {
    fn default() -> Self {
        GroupingConfig {
            // Appendix E restricts which ConstantStr labels the pivot-path
            // search considers (locally high-scoring constants only); the
            // grouping default approximates that static order by keeping only
            // short constants (plus the full-output constant every graph needs
            // for a guaranteed transformation path). Long constants convey no
            // transformation and blow up the path search combinatorially.
            graph: GraphConfig {
                constant_policy: ec_graph::ConstantPolicy::MaxLen(4),
                ..GraphConfig::default()
            },
            max_path_len: 6,
            early_termination: true,
            structure_refinement: true,
            max_search_steps: 50_000,
            parallelism: Parallelism::AUTO,
        }
    }
}

impl GroupingConfig {
    /// The configuration of the paper's `OneShot` method (no early
    /// termination).
    pub fn one_shot() -> Self {
        GroupingConfig {
            early_termination: false,
            ..Self::default()
        }
    }

    /// The configuration of the `NoAffix` ablation (Figure 10).
    pub fn without_affix() -> Self {
        let mut config = Self::default();
        config.graph.enable_affix = false;
        config
    }

    /// The default configuration with a fixed worker-thread count for the
    /// sharded stages (`0` means auto).
    pub fn with_threads(threads: usize) -> Self {
        GroupingConfig {
            parallelism: Parallelism::from(threads),
            ..Self::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_settings() {
        let c = GroupingConfig::default();
        assert_eq!(c.max_path_len, 6);
        assert!(c.early_termination);
        assert!(c.structure_refinement);
        assert!(c.graph.enable_affix);
    }

    #[test]
    fn presets() {
        assert!(!GroupingConfig::one_shot().early_termination);
        assert!(!GroupingConfig::without_affix().graph.enable_affix);
        assert_eq!(
            GroupingConfig::with_threads(3).parallelism,
            Parallelism::fixed(3)
        );
        assert_eq!(
            GroupingConfig::with_threads(0).parallelism,
            Parallelism::AUTO
        );
    }
}
