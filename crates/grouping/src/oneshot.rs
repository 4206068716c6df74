//! One-shot grouping: `UnsupervisedGrouping` (Algorithm 2).
//!
//! Every graph's pivot path is computed and graphs with the same pivot path
//! form a group. With [`GroupingConfig::early_termination`] disabled this is
//! the paper's `OneShot` method; enabled, it is `EarlyTerm` (Figure 9). The
//! produced groups are identical either way; only the running time differs.
//!
//! The graphs are searched one after another, as in Algorithms 2 and 4, so
//! every global lower bound a search raises prunes the searches after it.
//! `StructuredGrouper::one_shot_all` runs whole structure partitions in
//! parallel instead.

use crate::config::GroupingConfig;
use crate::group::Group;
use crate::prepared::PreparedGraphs;
use crate::search::PivotSearcher;
use ec_graph::{LabelId, Replacement};
use ec_index::GraphId;
use std::collections::HashMap;
use std::sync::Arc;

/// The one-shot (upfront) grouper.
#[derive(Debug)]
pub struct OneShotGrouper {
    prepared: Arc<PreparedGraphs>,
    config: GroupingConfig,
}

impl OneShotGrouper {
    /// Preprocesses `replacements` (builds graphs and the inverted index).
    pub fn new(replacements: &[Replacement], config: GroupingConfig) -> Self {
        let prepared = Arc::new(PreparedGraphs::build(replacements, &config));
        OneShotGrouper { prepared, config }
    }

    /// Access to the preprocessed graphs.
    pub fn prepared(&self) -> &PreparedGraphs {
        &self.prepared
    }

    /// Partitions all replacements into groups (Algorithm 2) and returns them
    /// sorted by size, largest first. Replacements whose graphs could not be
    /// built are appended as singleton groups.
    pub fn group_all(&self) -> Vec<Group> {
        let n = self.prepared.len();
        let searcher = PivotSearcher::new(Arc::clone(&self.prepared), &self.config);
        let active = vec![true; n];
        let mut lower_bounds = vec![1u32; n];
        let mut by_pivot: HashMap<Vec<LabelId>, Vec<GraphId>> = HashMap::new();
        for gid in (0..n).map(|g| GraphId(g as u32)) {
            let result = searcher
                .search(gid, 0, &active, &mut lower_bounds)
                .expect("every graph has at least one transformation path");
            by_pivot.entry(result.path).or_default().push(gid);
        }
        let mut groups: Vec<Group> = by_pivot
            .into_iter()
            .map(|(path, members)| {
                let program = self.prepared.resolve_program(&path);
                Group::new(
                    Some(program),
                    members
                        .into_iter()
                        .map(|g| self.prepared.replacement(g).clone())
                        .collect(),
                )
            })
            .collect();
        for r in self.prepared.skipped() {
            groups.push(Group::singleton(r.clone()));
        }
        sort_groups(&mut groups);
        groups
    }
}

/// Sorts groups by size descending, breaking ties by the first member so the
/// order is deterministic.
pub(crate) fn sort_groups(groups: &mut [Group]) {
    groups.sort_by(|a, b| {
        b.size()
            .cmp(&a.size())
            .then_with(|| a.members().first().cmp(&b.members().first()))
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The 12 name-attribute candidate replacements of Figure 2 (both
    /// directions of each pair within the two clusters of Table 1).
    fn figure2_name_replacements() -> Vec<Replacement> {
        let cluster1 = ["Mary Lee", "M. Lee", "Lee, Mary"];
        let cluster2 = ["Smith, James", "James Smith", "J. Smith"];
        let mut reps = Vec::new();
        for cluster in [cluster1, cluster2] {
            for a in cluster {
                for b in cluster {
                    if a != b {
                        reps.push(Replacement::new(a, b));
                    }
                }
            }
        }
        assert_eq!(reps.len(), 12);
        reps
    }

    #[test]
    fn figure2_produces_pairwise_groups() {
        let grouper = OneShotGrouper::new(&figure2_name_replacements(), GroupingConfig::default());
        let groups = grouper.group_all();
        // All 12 replacements are covered exactly once.
        let total: usize = groups.iter().map(Group::size).sum();
        assert_eq!(total, 12);
        // The largest groups pair a Lee replacement with the analogous Smith
        // replacement (Figure 2 groups 1-6 each have two members).
        assert_eq!(groups[0].size(), 2, "groups: {groups:#?}");
        // Size-2 groups must mix the two clusters (that is the whole point of
        // learning transformations that repeat across clusters).
        for g in groups.iter().filter(|g| g.size() == 2) {
            let mentions_lee = g
                .members()
                .iter()
                .any(|r| r.lhs().contains("Lee") || r.rhs().contains("Lee"));
            let mentions_smith = g
                .members()
                .iter()
                .any(|r| r.lhs().contains("Smith") || r.rhs().contains("Smith"));
            assert!(
                mentions_lee && mentions_smith,
                "cross-cluster group expected: {g}"
            );
        }
        // Sizes are non-increasing.
        for w in groups.windows(2) {
            assert!(w[0].size() >= w[1].size());
        }
    }

    #[test]
    fn abbreviation_groups_from_figure_2_right_column() {
        let reps = vec![
            Replacement::new("9th", "9"),
            Replacement::new("3rd", "3"),
            Replacement::new("Street", "St"),
            Replacement::new("Avenue", "Ave"),
            Replacement::new("Wisconsin", "WI"),
            Replacement::new("California", "CA"),
        ];
        let grouper = OneShotGrouper::new(&reps, GroupingConfig::default());
        let groups = grouper.group_all();
        let sizes: Vec<usize> = groups.iter().map(Group::size).collect();
        // 9th→9 and 3rd→3 share "keep the leading digits"; Street→St /
        // Avenue→Ave share the affix program; Wisconsin→WI / California→CA
        // share "first capital + a capital prefix/constant"… the exact split
        // of the last pair depends on the learned program, but the first two
        // pairs must be grouped.
        assert!(sizes[0] == 2, "sizes: {sizes:?}");
        let digit_group = groups
            .iter()
            .find(|g| g.members().iter().any(|r| r.lhs() == "9th"))
            .unwrap();
        assert!(
            digit_group.members().iter().any(|r| r.lhs() == "3rd"),
            "{groups:#?}"
        );
        let street_group = groups
            .iter()
            .find(|g| g.members().iter().any(|r| r.lhs() == "Street"))
            .unwrap();
        assert!(
            street_group.members().iter().any(|r| r.lhs() == "Avenue"),
            "{groups:#?}"
        );
    }

    #[test]
    fn early_termination_produces_identical_groups() {
        let reps = figure2_name_replacements();
        let with = OneShotGrouper::new(&reps, GroupingConfig::default()).group_all();
        let without = OneShotGrouper::new(&reps, GroupingConfig::one_shot()).group_all();
        let sizes_with: Vec<usize> = with.iter().map(Group::size).collect();
        let sizes_without: Vec<usize> = without.iter().map(Group::size).collect();
        assert_eq!(sizes_with, sizes_without);
        let members_with: Vec<_> = with.iter().flat_map(|g| g.members().to_vec()).collect();
        let members_without: Vec<_> = without.iter().flat_map(|g| g.members().to_vec()).collect();
        assert_eq!(members_with.len(), members_without.len());
    }

    #[test]
    fn group_all_is_thread_independent_even_when_the_step_budget_binds() {
        // A starved step budget truncates every search; the truncation
        // points — and so the groups — must not depend on the thread count.
        // This grouper is sequential; threads act through
        // `StructuredGrouper::one_shot_all`, which runs one of these per
        // structure partition on the pool and merges their groups.
        let reps = figure2_name_replacements();
        assert!(crate::partition_replacements(&reps, &GroupingConfig::default()).len() > 1);
        let group = |threads: usize| {
            let config = GroupingConfig {
                max_search_steps: 20,
                parallelism: ec_graph::Parallelism::fixed(threads),
                ..GroupingConfig::default()
            };
            crate::StructuredGrouper::one_shot_all(&reps, config)
        };
        let base = group(1);
        for threads in [2usize, 4, 7] {
            assert_eq!(base, group(threads), "threads={threads}");
        }
    }

    #[test]
    fn skipped_replacements_become_singletons() {
        let config = GroupingConfig {
            graph: ec_graph::GraphConfig {
                max_output_len: Some(6),
                ..ec_graph::GraphConfig::default()
            },
            ..GroupingConfig::default()
        };
        let reps = vec![
            Replacement::new("a", "bb"),
            Replacement::new("c", "a very long output string"),
        ];
        let groups = OneShotGrouper::new(&reps, config).group_all();
        assert_eq!(groups.len(), 2);
        assert!(groups
            .iter()
            .any(|g| g.program().is_none() && g.size() == 1));
    }

    #[test]
    fn empty_input_yields_no_groups() {
        let groups = OneShotGrouper::new(&[], GroupingConfig::default()).group_all();
        assert!(groups.is_empty());
    }

    #[test]
    fn group_programs_are_consistent_with_all_members() {
        let reps = figure2_name_replacements();
        let groups = OneShotGrouper::new(&reps, GroupingConfig::default()).group_all();
        for g in &groups {
            if let Some(p) = g.program() {
                for r in g.members() {
                    let ctx = ec_dsl::StrCtx::new(r.lhs());
                    assert!(p.consistent_with(&ctx, r.rhs()), "{p} vs {r}");
                }
            }
        }
    }
}
