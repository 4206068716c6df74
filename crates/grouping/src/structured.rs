//! Structure-refined grouping (Section 7.2) with lazy, incremental partitions.
//!
//! Replacements are first partitioned by their structure signatures; pivot
//! paths then only need to be searched within a structure group, and two
//! replacements are grouped together only when they share both the structure
//! and the transformation program. To keep the incremental top-k property, a
//! structure group is only *preprocessed* (graphs + index built) the first
//! time it could possibly hold the next largest group: until then, its total
//! replacement count serves as an upper bound — exactly the lazy scheme
//! described at the end of Section 7.2.

use crate::config::GroupingConfig;
use crate::group::Group;
use crate::incremental::IncrementalGrouper;
use crate::oneshot::{sort_groups, OneShotGrouper};
use crate::prepared::PreparedGraphs;
use ec_graph::{structure::replacement_structure, Replacement, ReplacementStructure};
use std::collections::HashMap;
use std::sync::Arc;

/// Splits `replacements` into the structure partitions the grouper scans:
/// one partition per [`ReplacementStructure`] when
/// [`GroupingConfig::structure_refinement`] is set (biggest first, ties by
/// first member), otherwise a single partition. `ec compile` uses the same
/// function so compiled partitions line up one-to-one with the ones a fresh
/// [`StructuredGrouper`] would form.
pub fn partition_replacements(
    replacements: &[Replacement],
    config: &GroupingConfig,
) -> Vec<Vec<Replacement>> {
    if config.structure_refinement {
        let mut by_structure: HashMap<ReplacementStructure, Vec<Replacement>> = HashMap::new();
        for r in replacements {
            by_structure
                .entry(replacement_structure(r.lhs(), r.rhs()))
                .or_default()
                .push(r.clone());
        }
        let mut parts: Vec<Vec<Replacement>> = by_structure.into_values().collect();
        // Deterministic order: biggest partitions first, ties by first member.
        parts.sort_by(|a, b| {
            b.len()
                .cmp(&a.len())
                .then_with(|| a.first().cmp(&b.first()))
        });
        parts
    } else {
        vec![replacements.to_vec()]
    }
}

/// A grouper that composes the structure refinement of Section 7.2 with the
/// incremental top-k algorithm of Section 6. This is the `Group` method
/// evaluated in the paper's Figures 6–8.
#[derive(Debug)]
pub struct StructuredGrouper {
    partitions: Vec<Partition>,
    config: GroupingConfig,
}

#[derive(Debug)]
struct Partition {
    replacements: Vec<Replacement>,
    /// Preprocessed graphs loaded from a compiled artifact; consulted by
    /// [`Partition::materialize`] instead of running Algorithm 6.
    precompiled: Option<Arc<PreparedGraphs>>,
    grouper: Option<IncrementalGrouper>,
    /// The next group of this partition, already computed but not yet emitted.
    peeked: Option<Group>,
    exhausted: bool,
}

impl Partition {
    /// An upper bound on the size of the next group this partition can produce.
    fn upper_bound(&self) -> usize {
        if self.exhausted {
            return 0;
        }
        if let Some(g) = &self.peeked {
            return g.size();
        }
        match &self.grouper {
            Some(grouper) => grouper.remaining_graphs().max(1),
            None => self.replacements.len(),
        }
    }

    /// Makes sure `peeked` holds the partition's next group (computing it if
    /// needed), or marks the partition exhausted.
    fn materialize(&mut self, config: &GroupingConfig) {
        if self.exhausted || self.peeked.is_some() {
            return;
        }
        let grouper = self
            .grouper
            .get_or_insert_with(|| match self.precompiled.take() {
                Some(prepared) => IncrementalGrouper::with_prepared(prepared, config.clone()),
                None => IncrementalGrouper::new(&self.replacements, config.clone()),
            });
        match grouper.next_group() {
            Some(g) => self.peeked = Some(g),
            None => self.exhausted = true,
        }
    }
}

impl StructuredGrouper {
    /// Partitions `replacements` by structure (when
    /// [`GroupingConfig::structure_refinement`] is set; otherwise a single
    /// partition is used) and prepares lazy incremental groupers.
    pub fn new(replacements: &[Replacement], config: GroupingConfig) -> Self {
        StructuredGrouper {
            partitions: partition_replacements(replacements, &config)
                .into_iter()
                .map(|replacements| Partition {
                    replacements,
                    precompiled: None,
                    grouper: None,
                    peeked: None,
                    exhausted: false,
                })
                .collect(),
            config,
        }
    }

    /// Builds a grouper over partitions whose preparation (graphs, interner,
    /// index) was already done — e.g. loaded from a compiled artifact. Each
    /// `(members, prepared)` pair must correspond to one partition as produced
    /// by [`partition_replacements`] with the same `config`; the emitted
    /// groups are then identical to a fresh [`StructuredGrouper::new`] over
    /// the concatenated members.
    pub fn from_compiled(
        parts: Vec<(Vec<Replacement>, Arc<PreparedGraphs>)>,
        config: GroupingConfig,
    ) -> Self {
        StructuredGrouper {
            partitions: parts
                .into_iter()
                .map(|(replacements, prepared)| Partition {
                    replacements,
                    precompiled: Some(prepared),
                    grouper: None,
                    peeked: None,
                    exhausted: false,
                })
                .collect(),
            config,
        }
    }

    /// Produces the next largest group across all structure partitions, or
    /// `None` when everything has been emitted.
    pub fn next_group(&mut self) -> Option<Group> {
        loop {
            // The best already-materialized candidate.
            let best_peeked: Option<(usize, usize)> = self
                .partitions
                .iter()
                .enumerate()
                .filter_map(|(i, p)| p.peeked.as_ref().map(|g| (i, g.size())))
                .max_by(|a, b| a.1.cmp(&b.1).then_with(|| b.0.cmp(&a.0)));
            // The best not-yet-materialized potential.
            let best_potential: Option<(usize, usize)> = self
                .partitions
                .iter()
                .enumerate()
                .filter(|(_, p)| p.peeked.is_none() && !p.exhausted)
                .map(|(i, p)| (i, p.upper_bound()))
                .max_by(|a, b| a.1.cmp(&b.1).then_with(|| b.0.cmp(&a.0)));

            match (best_peeked, best_potential) {
                (Some((i, size)), Some((_, potential))) if size >= potential => {
                    return self.partitions[i].peeked.take();
                }
                (Some((i, _)), None) => {
                    return self.partitions[i].peeked.take();
                }
                (_, Some((j, _))) => {
                    let config = self.config.clone();
                    self.partitions[j].materialize(&config);
                }
                (None, None) => return None,
            }
        }
    }

    /// How many pivot searches run so far, over every partition, exhausted
    /// [`GroupingConfig::max_search_steps`] (see
    /// [`IncrementalGrouper::searches_truncated`]).
    pub fn searches_truncated(&self) -> usize {
        self.partitions
            .iter()
            .filter_map(|p| p.grouper.as_ref())
            .map(IncrementalGrouper::searches_truncated)
            .sum()
    }

    /// The first `k` groups (or fewer if the input is exhausted earlier).
    pub fn top_groups(&mut self, k: usize) -> Vec<Group> {
        let mut out = Vec::with_capacity(k);
        for _ in 0..k {
            match self.next_group() {
                Some(g) => out.push(g),
                None => break,
            }
        }
        out
    }

    /// Drains the grouper, returning every group in emission order.
    pub fn all_groups(&mut self) -> Vec<Group> {
        let mut out = Vec::new();
        while let Some(g) = self.next_group() {
            out.push(g);
        }
        out
    }

    /// Upfront (one-shot) structure-refined grouping: partitions by structure,
    /// runs [`OneShotGrouper`] per partition, and returns all groups sorted by
    /// size. Used by the `OneShot`/`EarlyTerm` timing comparison of Figure 9.
    pub fn one_shot_all(replacements: &[Replacement], config: GroupingConfig) -> Vec<Group> {
        let mut groups = Vec::new();
        if config.structure_refinement {
            let mut by_structure: HashMap<ReplacementStructure, Vec<Replacement>> = HashMap::new();
            for r in replacements {
                by_structure
                    .entry(replacement_structure(r.lhs(), r.rhs()))
                    .or_default()
                    .push(r.clone());
            }
            let mut parts: Vec<Vec<Replacement>> = by_structure.into_values().collect();
            parts.sort_by(|a, b| {
                b.len()
                    .cmp(&a.len())
                    .then_with(|| a.first().cmp(&b.first()))
            });
            for part in parts {
                groups.extend(OneShotGrouper::new(&part, config.clone()).group_all());
            }
        } else {
            groups = OneShotGrouper::new(replacements, config).group_all();
        }
        sort_groups(&mut groups);
        groups
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mixed_replacements() -> Vec<Replacement> {
        vec![
            // Name transpositions (structure: TC Tl , b TC Tl -> TC Tl b TC Tl).
            Replacement::new("Lee, Mary", "Mary Lee"),
            Replacement::new("Smith, James", "James Smith"),
            Replacement::new("Brown, Anna", "Anna Brown"),
            // Initials.
            Replacement::new("Lee, Mary", "M. Lee"),
            Replacement::new("Smith, James", "J. Smith"),
            // Ordinal suffixes (structure: TdTl -> Td).
            Replacement::new("9th", "9"),
            Replacement::new("3rd", "3"),
            Replacement::new("22nd", "22"),
            // State abbreviations.
            Replacement::new("Wisconsin", "WI"),
            Replacement::new("California", "CA"),
        ]
    }

    #[test]
    fn groups_cover_everything_and_sizes_are_non_increasing() {
        let reps = mixed_replacements();
        let mut grouper = StructuredGrouper::new(&reps, GroupingConfig::default());
        let groups = grouper.all_groups();
        let total: usize = groups.iter().map(Group::size).sum();
        assert_eq!(total, reps.len());
        for w in groups.windows(2) {
            assert!(
                w[0].size() >= w[1].size(),
                "{:?}",
                groups.iter().map(Group::size).collect::<Vec<_>>()
            );
        }
        assert_eq!(
            groups[0].size(),
            3,
            "the transposition family is the largest group"
        );
    }

    #[test]
    fn structure_refinement_separates_structurally_different_pairs() {
        // Without structure refinement, "9th"→"9" and "Wisconsin"→"WI" could in
        // principle end up in one group (both are "keep a leading piece"); with
        // it they cannot, because Td→TdTl differs from TCTl→TC.
        let reps = vec![
            Replacement::new("9th", "9"),
            Replacement::new("3rd", "3"),
            Replacement::new("Wisconsin", "WI"),
            Replacement::new("California", "CA"),
        ];
        let mut grouper = StructuredGrouper::new(&reps, GroupingConfig::default());
        let groups = grouper.all_groups();
        for g in &groups {
            let has_digit = g
                .members()
                .iter()
                .any(|r| r.lhs().chars().any(|c| c.is_ascii_digit()));
            let has_state = g
                .members()
                .iter()
                .any(|r| r.lhs() == "Wisconsin" || r.lhs() == "California");
            assert!(
                !(has_digit && has_state),
                "structurally different pairs must not mix: {g}"
            );
        }
    }

    #[test]
    fn top_groups_stops_at_k() {
        let reps = mixed_replacements();
        let mut grouper = StructuredGrouper::new(&reps, GroupingConfig::default());
        let top2 = grouper.top_groups(2);
        assert_eq!(top2.len(), 2);
        assert!(top2[0].size() >= top2[1].size());
        // The rest can still be drained afterwards.
        let rest = grouper.all_groups();
        let total: usize = top2.iter().chain(rest.iter()).map(Group::size).sum();
        assert_eq!(total, reps.len());
    }

    #[test]
    fn incremental_and_one_shot_structured_agree_on_sizes() {
        let reps = mixed_replacements();
        let incremental: Vec<usize> = StructuredGrouper::new(&reps, GroupingConfig::default())
            .all_groups()
            .iter()
            .map(Group::size)
            .collect();
        let mut one_shot: Vec<usize> =
            StructuredGrouper::one_shot_all(&reps, GroupingConfig::default())
                .iter()
                .map(Group::size)
                .collect();
        one_shot.sort_unstable_by(|a, b| b.cmp(a));
        let mut incr_sorted = incremental.clone();
        incr_sorted.sort_unstable_by(|a, b| b.cmp(a));
        assert_eq!(one_shot, incr_sorted);
    }

    #[test]
    fn disabling_structure_refinement_uses_a_single_partition() {
        let reps = mixed_replacements();
        let config = GroupingConfig {
            structure_refinement: false,
            ..GroupingConfig::default()
        };
        let mut grouper = StructuredGrouper::new(&reps, config);
        let groups = grouper.all_groups();
        let total: usize = groups.iter().map(Group::size).sum();
        assert_eq!(total, reps.len());
    }

    #[test]
    fn doc_example_from_lib_rs() {
        let replacements = vec![
            Replacement::new("Lee, Mary", "M. Lee"),
            Replacement::new("Smith, James", "J. Smith"),
            Replacement::new("Lee, Mary", "Mary Lee"),
            Replacement::new("Smith, James", "James Smith"),
        ];
        let mut grouper = StructuredGrouper::new(&replacements, GroupingConfig::default());
        let first = grouper.next_group().expect("at least one group");
        assert_eq!(first.size(), 2);
    }

    #[test]
    fn empty_input() {
        let mut grouper = StructuredGrouper::new(&[], GroupingConfig::default());
        assert!(grouper.next_group().is_none());
        assert!(grouper.all_groups().is_empty());
    }

    #[test]
    fn from_compiled_emits_the_same_groups_as_a_fresh_grouper() {
        let reps = mixed_replacements();
        let config = GroupingConfig::default();
        let fresh = StructuredGrouper::new(&reps, config.clone()).all_groups();
        let parts: Vec<(Vec<Replacement>, Arc<PreparedGraphs>)> =
            partition_replacements(&reps, &config)
                .into_iter()
                .map(|members| {
                    let prepared = Arc::new(PreparedGraphs::build(&members, &config));
                    (members, prepared)
                })
                .collect();
        let compiled = StructuredGrouper::from_compiled(parts, config).all_groups();
        assert_eq!(fresh, compiled);
    }
}
