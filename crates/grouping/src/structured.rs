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
//!
//! **Prefetch and the reveal rule.** Partitions are independent: the next
//! group of one depends only on its own state. So when the sequential rule
//! must materialize partition `j` (compute its next group), the grouper also
//! materializes up to `threads − 1` more partitions on the shared worker
//! pool, one task each: the unmaterialized partitions with the highest
//! bounds (ties by index) among those whose bound exceeds the best group
//! already peeked. A prefetched result stays *hidden*: the partition keeps
//! showing the bound it had before the run, and the result is revealed —
//! with the truncated-search count of its run — only when the sequential
//! rule picks that partition to materialize. Every decision therefore sees
//! exactly the bounds and groups the one-thread scan sees, and emission
//! order, ties included, is the sequential order at every thread count. A
//! result never revealed is wasted work, counted by
//! `ec_grouping_partition_prefetch_total{outcome="unused"}`.

use crate::config::GroupingConfig;
use crate::group::Group;
use crate::incremental::IncrementalGrouper;
use crate::oneshot::{sort_groups, OneShotGrouper};
use crate::prepared::PreparedGraphs;
use ec_graph::{structure::replacement_structure, PoolTask, Replacement, ReplacementStructure};
use std::collections::HashMap;
use std::sync::{Arc, OnceLock};

/// Registry handles for partition prefetch: prefetched results the
/// sequential rule went on to reveal, and those dropped unrevealed.
struct PrefetchMetrics {
    used: ec_obs::Counter,
    unused: ec_obs::Counter,
}

fn prefetch_metrics() -> &'static PrefetchMetrics {
    static METRICS: OnceLock<PrefetchMetrics> = OnceLock::new();
    const HELP: &str =
        "Partitions materialized ahead of the sequential rule, by whether the result was revealed.";
    METRICS.get_or_init(|| PrefetchMetrics {
        used: ec_obs::counter_with(
            "ec_grouping_partition_prefetch_total",
            HELP,
            &[("outcome", "used")],
        ),
        unused: ec_obs::counter_with(
            "ec_grouping_partition_prefetch_total",
            HELP,
            &[("outcome", "unused")],
        ),
    })
}

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
    /// What the next materialization starts from; `None` only while a run
    /// is on the pool.
    source: Option<Source>,
    /// The next group of this partition, already computed but not yet emitted.
    peeked: Option<Group>,
    exhausted: bool,
    /// A prefetched run the sequential rule has not reached yet.
    hidden: Option<Hidden>,
    /// Truncated searches of the runs revealed so far.
    searches_truncated: usize,
}

/// Where a partition's next materialization starts.
#[derive(Debug)]
enum Source {
    /// Not preprocessed yet: Algorithm 6 runs on the first materialization.
    Replacements(Vec<Replacement>),
    /// Preprocessed graphs loaded from a compiled artifact, with the
    /// partition's member count (its bound until the first run).
    Precompiled(usize, Arc<PreparedGraphs>),
    /// The partition's live incremental grouper.
    Grouper(IncrementalGrouper),
}

impl Source {
    /// An upper bound on the size of the next group this source can produce.
    fn upper_bound(&self) -> usize {
        match self {
            Source::Replacements(members) => members.len(),
            Source::Precompiled(members, _) => *members,
            Source::Grouper(grouper) => grouper.remaining_graphs().max(1),
        }
    }

    /// Computes the next group (one materialization).
    fn run(self, config: &GroupingConfig) -> Run {
        let mut grouper = match self {
            Source::Replacements(members) => IncrementalGrouper::new(&members, config.clone()),
            Source::Precompiled(_, prepared) => {
                IncrementalGrouper::with_prepared(prepared, config.clone())
            }
            Source::Grouper(grouper) => grouper,
        };
        let before = grouper.searches_truncated();
        let group = grouper.next_group();
        let truncated = grouper.searches_truncated() - before;
        Run {
            grouper,
            group,
            truncated,
        }
    }
}

/// The outcome of one materialization.
#[derive(Debug)]
struct Run {
    grouper: IncrementalGrouper,
    /// The next group, or `None` when the partition is exhausted.
    group: Option<Group>,
    /// Searches of this run that exhausted the step budget.
    truncated: usize,
}

/// A prefetched outcome with the bound the partition showed before its run.
#[derive(Debug)]
struct Hidden {
    bound: usize,
    group: Option<Group>,
    truncated: usize,
}

impl Partition {
    fn new(source: Source) -> Self {
        Partition {
            source: Some(source),
            peeked: None,
            exhausted: false,
            hidden: None,
            searches_truncated: 0,
        }
    }

    /// Neither peeked nor exhausted: the next group is still to be computed
    /// (or revealed).
    fn pending(&self) -> bool {
        self.peeked.is_none() && !self.exhausted
    }

    /// An upper bound on the size of the next group this partition can
    /// produce; a hidden prefetch keeps showing its pre-run bound.
    fn upper_bound(&self) -> usize {
        if self.exhausted {
            return 0;
        }
        if let Some(g) = &self.peeked {
            return g.size();
        }
        if let Some(hidden) = &self.hidden {
            return hidden.bound;
        }
        self.source.as_ref().map_or(0, Source::upper_bound)
    }

    /// Makes a run's group the partition's peeked group (or marks the
    /// partition exhausted) and books its truncated searches.
    fn reveal(&mut self, group: Option<Group>, truncated: usize) {
        match group {
            Some(g) => self.peeked = Some(g),
            None => self.exhausted = true,
        }
        self.searches_truncated += truncated;
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
                .map(|members| Partition::new(Source::Replacements(members)))
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
                .map(|(members, prepared)| {
                    Partition::new(Source::Precompiled(members.len(), prepared))
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
                .filter(|(_, p)| p.pending())
                .map(|(i, p)| (i, p.upper_bound()))
                .max_by(|a, b| a.1.cmp(&b.1).then_with(|| b.0.cmp(&a.0)));

            match (best_peeked, best_potential) {
                (Some((i, size)), Some((_, potential))) if size >= potential => {
                    return self.partitions[i].peeked.take();
                }
                (Some((i, _)), None) => {
                    return self.partitions[i].peeked.take();
                }
                (_, Some((j, _))) => self.materialize(j, best_peeked.map_or(0, |(_, size)| size)),
                (None, None) => return None,
            }
        }
    }

    /// Materializes partition `j`, which the sequential rule picked while
    /// the best peeked group has `peeked_size` members: reveals its hidden
    /// prefetch if it has one, and otherwise runs it together with up to
    /// `threads − 1` prefetched partitions (see the module docs).
    fn materialize(&mut self, j: usize, peeked_size: usize) {
        if let Some(hidden) = self.partitions[j].hidden.take() {
            prefetch_metrics().used.inc();
            self.partitions[j].reveal(hidden.group, hidden.truncated);
            return;
        }
        let mut batch = vec![j];
        let threads = self.config.parallelism.threads();
        if threads > 1 {
            let mut candidates: Vec<(usize, usize)> = self
                .partitions
                .iter()
                .enumerate()
                .filter(|&(i, p)| i != j && p.pending() && p.hidden.is_none())
                .map(|(i, p)| (i, p.upper_bound()))
                .filter(|&(_, bound)| bound > peeked_size)
                .collect();
            candidates.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
            batch.extend(candidates.iter().take(threads - 1).map(|&(i, _)| i));
        }
        let bounds: Vec<usize> = batch
            .iter()
            .map(|&i| self.partitions[i].upper_bound())
            .collect();
        let tasks: Vec<PoolTask<Run>> = batch
            .iter()
            .map(|&i| {
                let source = self.partitions[i]
                    .source
                    .take()
                    .expect("a pending partition has a source");
                let config = self.config.clone();
                Box::new(move || source.run(&config)) as PoolTask<Run>
            })
            .collect();
        let runs = self.config.parallelism.run_tasks(tasks);
        for ((&i, bound), run) in batch.iter().zip(bounds).zip(runs) {
            let partition = &mut self.partitions[i];
            partition.source = Some(Source::Grouper(run.grouper));
            if i == j {
                partition.reveal(run.group, run.truncated);
            } else {
                partition.hidden = Some(Hidden {
                    bound,
                    group: run.group,
                    truncated: run.truncated,
                });
            }
        }
    }

    /// How many pivot searches, over every partition, exhausted
    /// [`GroupingConfig::max_search_steps`] (see
    /// [`IncrementalGrouper::searches_truncated`]). Counts the runs whose
    /// groups the sequential rule has reached, so a prefetched run counts
    /// only once revealed and the total never depends on the thread count.
    pub fn searches_truncated(&self) -> usize {
        self.partitions.iter().map(|p| p.searches_truncated).sum()
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
    ///
    /// Partitions are independent, so they are grouped in parallel over
    /// [`GroupingConfig::parallelism`] (see
    /// [`ec_graph::Parallelism::map_claimed`]); the merged groups are sorted
    /// by size and first member.
    pub fn one_shot_all(replacements: &[Replacement], config: GroupingConfig) -> Vec<Group> {
        let parts = Arc::new(partition_replacements(replacements, &config));
        let parallelism = config.parallelism;
        let mut groups = parallelism
            .map_claimed(&parts, move |part| {
                OneShotGrouper::new(part, config.clone()).group_all()
            })
            .concat();
        sort_groups(&mut groups);
        groups
    }
}

impl Drop for StructuredGrouper {
    /// Counts the prefetched results nobody revealed.
    fn drop(&mut self) {
        let unused = self
            .partitions
            .iter()
            .filter(|p| p.hidden.is_some())
            .count();
        if unused > 0 {
            prefetch_metrics().unused.add(unused as u64);
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// Column 0's candidate replacements of the generated 20-cluster address
    /// data of `seed` (the benchmark ladder is seeds 30, 14 and 18).
    pub(crate) fn address_candidates(seed: u64) -> Vec<Replacement> {
        let dataset = ec_data::PaperDataset::Address.generate(&ec_data::GeneratorConfig {
            num_clusters: 20,
            seed,
            num_sources: 6,
        });
        ec_replace::generate_candidates(
            &dataset.column_values(0),
            &ec_replace::CandidateConfig::default(),
        )
        .replacements
    }

    /// The candidates of Figure 9's single-mega-group axis: one cluster of
    /// lookalike spellings of a long title.
    pub(crate) fn mega_group_candidates() -> Vec<Replacement> {
        let values: Vec<String> = (10..22)
            .map(|i| format!("International Journal of Distributed Data Systems Volume {i}"))
            .collect();
        ec_replace::generate_candidates(&[values], &ec_replace::CandidateConfig::default())
            .replacements
    }

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

    fn with_threads(config: &GroupingConfig, threads: usize) -> GroupingConfig {
        GroupingConfig {
            parallelism: ec_graph::Parallelism::fixed(threads),
            ..config.clone()
        }
    }

    #[test]
    fn prefetched_ties_keep_the_sequential_order() {
        // Partition 0 (8 members) holds an `N → Nth` family of five and an
        // `N → Nst` family of three; partition 1 a transposition family of
        // five; partition 2 three `Word → W` initials and one `Wisconsin → WI`.
        // Sequentially, partition 2 is materialized (bound 4) while
        // partition 0 shows bound 3, so its group of three is emitted before
        // partition 0's equal-size second group. At two threads partition 0
        // is prefetched alongside partition 2; revealing that result at once
        // would break the tie towards the lower index.
        let mut reps: Vec<Replacement> = ["4", "5", "6", "7", "8"]
            .iter()
            .map(|n| Replacement::new(*n, format!("{n}th")))
            .collect();
        for n in ["1", "21", "31"] {
            reps.push(Replacement::new(n, format!("{n}st")));
        }
        for (last, first) in [
            ("Lee", "Mary"),
            ("Smith", "James"),
            ("Brown", "Anna"),
            ("Clark", "Peter"),
            ("Young", "Susan"),
        ] {
            reps.push(Replacement::new(
                format!("{last}, {first}"),
                format!("{first} {last}"),
            ));
        }
        for word in ["Street", "Avenue", "Road"] {
            reps.push(Replacement::new(word, &word[..1]));
        }
        reps.push(Replacement::new("Wisconsin", "WI"));
        let config = GroupingConfig::default();
        let sizes: Vec<usize> = partition_replacements(&reps, &config)
            .iter()
            .map(Vec::len)
            .collect();
        assert_eq!(sizes, vec![8, 5, 4]);

        let sequential = StructuredGrouper::new(&reps, with_threads(&config, 1)).all_groups();
        let sizes: Vec<usize> = sequential.iter().map(Group::size).collect();
        assert_eq!(sizes, vec![5, 5, 3, 3, 1]);
        assert!(sequential[2]
            .members()
            .contains(&Replacement::new("Street", "S")));
        assert!(sequential[3]
            .members()
            .contains(&Replacement::new("1", "1st")));
        for threads in [2, 4] {
            let used = prefetch_metrics().used.get();
            let parallel =
                StructuredGrouper::new(&reps, with_threads(&config, threads)).all_groups();
            assert_eq!(parallel, sequential, "{threads} threads");
            assert!(
                prefetch_metrics().used.get() > used,
                "{threads} threads prefetch"
            );
        }
    }

    #[test]
    fn starved_multi_partition_groups_and_truncation_do_not_depend_on_threads() {
        let candidates = address_candidates(30);
        let config = GroupingConfig {
            max_search_steps: 25,
            ..GroupingConfig::default()
        };
        assert!(partition_replacements(&candidates, &config).len() > 10);
        // The truncation count after every emitted group: a prefetched run
        // counts only once the sequential rule reveals it.
        let run = |threads| {
            let mut grouper = StructuredGrouper::new(&candidates, with_threads(&config, threads));
            let mut groups = Vec::new();
            let mut truncated = Vec::new();
            while let Some(g) = grouper.next_group() {
                groups.push(g);
                truncated.push(grouper.searches_truncated());
            }
            (groups, truncated)
        };
        let (groups, truncated) = run(1);
        assert!(truncated.last() > Some(&0), "the budget must bind");
        for threads in [2, 4] {
            let (parallel, parallel_truncated) = run(threads);
            assert_eq!(parallel, groups, "{threads} threads");
            assert_eq!(parallel_truncated, truncated, "{threads} threads");
        }
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

    /// 64-bit FNV-1a, a digest that does not depend on the toolchain.
    fn fnv1a(bytes: &[u8]) -> u64 {
        bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        })
    }

    #[test]
    fn first_fifty_groups_match_their_pinned_digests() {
        // The sizes and programs of the first 50 groups of column 0 of each
        // address ladder seed and of the fig9 mega group, at the default
        // budget and at a starved one that truncates searches.
        let inputs: Vec<(&str, Vec<Replacement>)> = vec![
            ("address 30", address_candidates(30)),
            ("address 14", address_candidates(14)),
            ("address 18", address_candidates(18)),
            ("mega group", mega_group_candidates()),
        ];
        let mut digests = Vec::new();
        for budget in [50_000, 400] {
            let config = GroupingConfig {
                max_search_steps: budget,
                ..GroupingConfig::default()
            };
            for (what, reps) in &inputs {
                let groups = StructuredGrouper::new(reps, config.clone()).top_groups(50);
                let text: String = groups
                    .iter()
                    .map(|g| match g.program() {
                        Some(program) => format!("{} {program}\n", g.size()),
                        None => format!("{} -\n", g.size()),
                    })
                    .collect();
                digests.push((budget, *what, format!("{:016x}", fnv1a(text.as_bytes()))));
            }
        }
        let pinned = [
            (50_000, "address 30", "8af7bccb3bf8cf5d"),
            (50_000, "address 14", "1cfe225ade72df2a"),
            (50_000, "address 18", "13e04293b52a4fab"),
            (50_000, "mega group", "d724ce67feb18b1f"),
            (400, "address 30", "9d8cebfe2a1463ab"),
            (400, "address 14", "b695024d5c900bac"),
            (400, "address 18", "02440c0cfd9eaaba"),
            (400, "mega group", "d724ce67feb18b1f"),
        ];
        let pinned: Vec<(usize, &str, String)> = pinned
            .iter()
            .map(|&(budget, what, digest)| (budget, what, digest.to_string()))
            .collect();
        assert_eq!(digests, pinned);
    }
}
