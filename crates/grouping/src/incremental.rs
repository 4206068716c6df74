//! Incremental (top-k) grouping — Section 6, Algorithms 5–7.
//!
//! Instead of partitioning all replacements upfront, [`IncrementalGrouper`]
//! produces the *next largest* group per invocation. Each graph carries an
//! upper bound (Section 6.2) on how many graphs can share its pivot path;
//! graphs are visited in decreasing upper-bound order and the scan stops as
//! soon as the best group found so far is at least as large as the next upper
//! bound. Only then is the (expensive) pivot-path search run, and only on the
//! few graphs that could still win.
//!
//! The scan is the paper's sequential loop: one search per visited graph, at
//! the current best share, and every global lower bound a search raises is
//! read by the searches after it. Its cores come from the structure
//! partitions `StructuredGrouper` runs side by side, not from within the
//! scan, so the groups never depend on the thread count.
//!
//! Deviation from the paper's pseudocode, documented here: the paper carries
//! per-graph lower bounds (`G_lo`) across invocations. Once graphs are removed
//! from `G` after a group is emitted those stale bounds can exceed the true
//! pivot share count, so this implementation resets the lower bounds at the
//! start of every invocation. Within an invocation they never prune either:
//! a bound a search raises is at most the share of the path it found, which
//! is at most the current best share, and the next search already runs at
//! that share as its threshold. Only the one-shot grouper, whose searches
//! do not share one running best, prunes with them. Upper bounds remain
//! valid across invocations —
//! removing graphs can only shrink pivot share counts — and are carried over
//! and tightened, which is where the incremental speed-up comes from.

use crate::config::GroupingConfig;
use crate::group::Group;
use crate::prepared::PreparedGraphs;
use crate::search::{PivotResult, PivotSearcher};
use ec_graph::Replacement;
use ec_index::GraphId;
use std::sync::Arc;

/// The incremental (top-k) grouper.
#[derive(Debug)]
pub struct IncrementalGrouper {
    prepared: Arc<PreparedGraphs>,
    config: GroupingConfig,
    /// Persistent per-graph upper bounds on pivot-path sharing.
    upper_bounds: Vec<u32>,
    /// Graphs not yet emitted in a group.
    active: Vec<bool>,
    /// Number of active graphs.
    remaining: usize,
    /// Replacements without graphs, emitted as trailing singleton groups.
    skipped: Vec<Replacement>,
    /// Pivot searches run so far that exhausted their step budget.
    searches_truncated: usize,
}

impl IncrementalGrouper {
    /// Preprocesses `replacements` (Algorithm 6): graphs, inverted index and
    /// initial upper bounds.
    pub fn new(replacements: &[Replacement], config: GroupingConfig) -> Self {
        let prepared = Arc::new(PreparedGraphs::build(replacements, &config));
        Self::with_prepared(prepared, config)
    }

    /// Builds a grouper over an already-prepared (possibly shared) graph
    /// state, skipping Algorithm 6. Upper bounds, the active set and the
    /// skipped list are derived from `prepared` — they are cheap relative to
    /// graph construction and indexing, and deriving them keeps the grouper's
    /// behaviour identical to [`IncrementalGrouper::new`] over the same
    /// replacements.
    pub fn with_prepared(prepared: Arc<PreparedGraphs>, config: GroupingConfig) -> Self {
        let n = prepared.len();
        let upper_bounds: Vec<u32> = (0..n)
            .map(|g| prepared.upper_bound(GraphId(g as u32)) as u32)
            .collect();
        let skipped = prepared.skipped().to_vec();
        IncrementalGrouper {
            prepared,
            config,
            upper_bounds,
            active: vec![true; n],
            remaining: n,
            skipped,
            searches_truncated: 0,
        }
    }

    /// Access to the preprocessed graphs.
    pub fn prepared(&self) -> &PreparedGraphs {
        &self.prepared
    }

    /// Number of graphs not yet emitted in a group.
    pub fn remaining_graphs(&self) -> usize {
        self.remaining
    }

    /// How many of the pivot searches run so far exhausted
    /// [`GroupingConfig::max_search_steps`] — each one contributed its best
    /// path found so far rather than its exact pivot.
    pub fn searches_truncated(&self) -> usize {
        self.searches_truncated
    }

    /// Produces the next largest group (Algorithm 7), or `None` when every
    /// replacement has been emitted.
    ///
    /// Groups are produced in non-increasing size order (Theorem 6.4); after
    /// all graphs are exhausted, replacements whose graphs could not be built
    /// are emitted one per call as singleton groups.
    pub fn next_group(&mut self) -> Option<Group> {
        if self.remaining == 0 {
            return self.skipped.pop().map(Group::singleton);
        }
        let searcher = PivotSearcher::new(Arc::clone(&self.prepared), &self.config);
        // Visit active graphs in decreasing upper-bound order.
        let mut order: Vec<usize> = (0..self.prepared.len())
            .filter(|&g| self.active[g])
            .collect();
        order.sort_by_key(|&g| std::cmp::Reverse(self.upper_bounds[g]));

        let mut lower_bounds = vec![1u32; self.prepared.len()];
        let mut best: Option<PivotResult> = None;
        for &g in &order {
            // Stop condition: no unvisited graph can beat the best group.
            if let Some(b) = &best {
                if b.share_count >= self.upper_bounds[g] as usize {
                    break;
                }
            }
            // A pivot path shared by a single graph yields a singleton group
            // no matter which path it is, so the search only needs paths
            // shared by at least two graphs (threshold ≥ 1); graphs whose
            // every path is unshared fall through to the singleton fallback
            // below. This prunes conflict-heavy partitions (where most labels
            // occur in one graph only) by orders of magnitude.
            let threshold = best.as_ref().map_or(1, |b| b.share_count);
            let run = searcher.run(
                GraphId(g as u32),
                threshold,
                &self.active,
                &mut lower_bounds,
            );
            self.searches_truncated += usize::from(run.steps == searcher.budget());
            match run.result {
                Some(result) => {
                    self.upper_bounds[g] = result.share_count as u32;
                    best = Some(result);
                }
                // The pivot of g is shared by at most `threshold` graphs.
                None => self.upper_bounds[g] = self.upper_bounds[g].min(threshold as u32),
            }
        }
        let Some(best) = best else {
            // No remaining graph shares a transformation path with another
            // active graph: everything left is a singleton. Emit them in the
            // deterministic visiting order, one per invocation.
            let g = order[0];
            self.active[g] = false;
            self.remaining -= 1;
            return Some(Group::singleton(
                self.prepared.replacement(GraphId(g as u32)).clone(),
            ));
        };
        let members: Vec<Replacement> = best
            .complete
            .iter()
            .map(|&g| {
                self.active[g.index()] = false;
                self.remaining -= 1;
                self.prepared.replacement(g).clone()
            })
            .collect();
        let program = self.prepared.resolve_program(&best.path);
        Some(Group::new(Some(program), members))
    }

    /// Drains the grouper, returning all remaining groups in emission order.
    pub fn all_groups(&mut self) -> Vec<Group> {
        let mut groups = Vec::new();
        while let Some(g) = self.next_group() {
            groups.push(g);
        }
        groups
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oneshot::OneShotGrouper;

    fn example_5_1() -> Vec<Replacement> {
        vec![
            Replacement::new("Lee, Mary", "M. Lee"),
            Replacement::new("Smith, James", "J. Smith"),
            Replacement::new("Lee, Mary", "Mary Lee"),
        ]
    }

    // Paper Example 6.1: the first invocation returns the group {G1, G2}.
    #[test]
    fn paper_example_6_1_first_group() {
        let mut grouper = IncrementalGrouper::new(&example_5_1(), GroupingConfig::default());
        assert_eq!(grouper.remaining_graphs(), 3);
        let first = grouper.next_group().unwrap();
        assert_eq!(first.size(), 2);
        assert!(first
            .members()
            .contains(&Replacement::new("Lee, Mary", "M. Lee")));
        assert!(first
            .members()
            .contains(&Replacement::new("Smith, James", "J. Smith")));
        assert_eq!(grouper.remaining_graphs(), 1);
        let second = grouper.next_group().unwrap();
        assert_eq!(second.size(), 1);
        assert_eq!(
            second.members()[0],
            Replacement::new("Lee, Mary", "Mary Lee")
        );
        assert!(grouper.next_group().is_none());
    }

    #[test]
    fn groups_are_emitted_in_non_increasing_size_order() {
        let mut reps = Vec::new();
        // Three transformation families of different sizes.
        let names = [
            ("Lee", "Mary"),
            ("Smith", "James"),
            ("Brown", "Anna"),
            ("Jones", "Paul"),
            ("Davis", "Emma"),
        ];
        for (last, first) in names {
            reps.push(Replacement::new(
                format!("{last}, {first}"),
                format!("{first} {last}"),
            ));
        }
        for (last, first) in &names[..3] {
            let initial = first.chars().next().unwrap();
            reps.push(Replacement::new(
                format!("{last}, {first}"),
                format!("{initial}. {last}"),
            ));
        }
        reps.push(Replacement::new("Wisconsin", "WI"));
        let mut grouper = IncrementalGrouper::new(&reps, GroupingConfig::default());
        let groups = grouper.all_groups();
        let sizes: Vec<usize> = groups.iter().map(Group::size).collect();
        for w in sizes.windows(2) {
            assert!(w[0] >= w[1], "sizes must be non-increasing: {sizes:?}");
        }
        assert_eq!(
            sizes[0], 5,
            "the transposition family is the largest group: {sizes:?}"
        );
        assert_eq!(sizes.iter().sum::<usize>(), reps.len());
    }

    // Theorem 6.4: the incremental algorithm produces the same groups as the
    // one-shot algorithm, ordered by size.
    #[test]
    fn incremental_matches_one_shot_group_sizes() {
        let reps = {
            let mut v = Vec::new();
            let cluster1 = ["Mary Lee", "M. Lee", "Lee, Mary"];
            let cluster2 = ["Smith, James", "James Smith", "J. Smith"];
            for cluster in [cluster1, cluster2] {
                for a in cluster {
                    for b in cluster {
                        if a != b {
                            v.push(Replacement::new(a, b));
                        }
                    }
                }
            }
            v
        };
        let one_shot: Vec<usize> = OneShotGrouper::new(&reps, GroupingConfig::default())
            .group_all()
            .iter()
            .map(Group::size)
            .collect();
        let incremental: Vec<usize> = IncrementalGrouper::new(&reps, GroupingConfig::default())
            .all_groups()
            .iter()
            .map(Group::size)
            .collect();
        assert_eq!(
            one_shot.iter().sum::<usize>(),
            incremental.iter().sum::<usize>(),
            "both cover all replacements"
        );
        assert_eq!(one_shot[0], incremental[0], "largest group size agrees");
    }

    #[test]
    fn every_member_of_each_group_satisfies_the_shared_program() {
        let reps = vec![
            Replacement::new("Street", "St"),
            Replacement::new("Avenue", "Ave"),
            Replacement::new("Boulevard", "Blvd"),
            Replacement::new("Wisconsin", "WI"),
            Replacement::new("California", "CA"),
            Replacement::new("9th", "9"),
            Replacement::new("3rd", "3"),
        ];
        let mut grouper = IncrementalGrouper::new(&reps, GroupingConfig::default());
        let groups = grouper.all_groups();
        assert_eq!(groups.iter().map(Group::size).sum::<usize>(), reps.len());
        for g in &groups {
            if let Some(p) = g.program() {
                for r in g.members() {
                    let ctx = ec_dsl::StrCtx::new(r.lhs());
                    assert!(p.consistent_with(&ctx, r.rhs()), "{p} vs {r}");
                }
            }
        }
    }

    #[test]
    fn all_groups_is_thread_independent_even_when_the_step_budget_binds() {
        let mut reps = example_5_1();
        reps.push(Replacement::new("Smith, James", "James Smith"));
        reps.push(Replacement::new("Doe, John", "J. Doe"));
        reps.push(Replacement::new("Roe, Jane", "Jane Roe"));
        // This grouper runs its searches one after another at any thread
        // count; threads act through the structured grouper, which prefetches
        // whole partitions of these replacements on the pool.
        assert!(crate::partition_replacements(&reps, &GroupingConfig::default()).len() > 1);
        let drain = |threads: usize| {
            let config = GroupingConfig {
                max_search_steps: 20,
                parallelism: ec_graph::Parallelism::fixed(threads),
                ..GroupingConfig::default()
            };
            crate::StructuredGrouper::new(&reps, config).all_groups()
        };
        let base = drain(1);
        for threads in [2usize, 4, 7] {
            assert_eq!(base, drain(threads), "threads={threads}");
        }
    }

    #[test]
    fn skipped_replacements_are_emitted_last_as_singletons() {
        let config = GroupingConfig {
            graph: ec_graph::GraphConfig {
                max_output_len: Some(8),
                ..ec_graph::GraphConfig::default()
            },
            ..GroupingConfig::default()
        };
        let reps = vec![
            Replacement::new("Street", "St"),
            Replacement::new("Avenue", "Ave"),
            Replacement::new("x", "an output string that is far too long"),
        ];
        let mut grouper = IncrementalGrouper::new(&reps, config);
        let groups = grouper.all_groups();
        assert_eq!(groups.len(), 2);
        assert_eq!(groups[0].size(), 2);
        assert_eq!(groups[1].size(), 1);
        assert!(groups[1].program().is_none());
    }

    #[test]
    fn with_prepared_matches_new_and_shares_the_preparation() {
        let reps = example_5_1();
        let config = GroupingConfig::default();
        let prepared = Arc::new(PreparedGraphs::build(&reps, &config));
        let base = IncrementalGrouper::new(&reps, config.clone()).all_groups();
        let from_shared =
            IncrementalGrouper::with_prepared(Arc::clone(&prepared), config.clone()).all_groups();
        assert_eq!(base, from_shared);
        // The same preparation can seed a second, independent grouper.
        let again = IncrementalGrouper::with_prepared(prepared, config).all_groups();
        assert_eq!(base, again);
    }

    #[test]
    fn empty_input() {
        let mut grouper = IncrementalGrouper::new(&[], GroupingConfig::default());
        assert!(grouper.next_group().is_none());
        assert_eq!(grouper.remaining_graphs(), 0);
    }

    #[test]
    fn upper_bounds_never_underestimate_group_sizes() {
        // The first emitted group's size must never exceed the maximum initial
        // upper bound — otherwise the bound of Section 6.2 would be unsound.
        let reps = example_5_1();
        let grouper_probe = IncrementalGrouper::new(&reps, GroupingConfig::default());
        let max_ub = (0..grouper_probe.prepared().len())
            .map(|g| grouper_probe.prepared().upper_bound(GraphId(g as u32)))
            .max()
            .unwrap();
        let mut grouper = IncrementalGrouper::new(&reps, GroupingConfig::default());
        let first = grouper.next_group().unwrap();
        assert!(first.size() <= max_ub);
    }
}
