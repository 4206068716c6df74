//! Determinism of the sharded stages: candidate generation, one-shot and
//! incremental grouping must produce **bit-identical** output at every
//! parallelism setting — the `Parallelism` knob only trades wall-clock time
//! for cores, never results.

mod common;

use common::scaled;
use entity_consolidation::grouping::partition_replacements;
use entity_consolidation::prelude::*;

/// The seeded workload the comparisons run on: realistic Address candidates
/// with several transformation families — big enough to shard, small enough
/// that repeated full groupings keep tier-1 fast.
fn seeded_candidates() -> Vec<Replacement> {
    let dataset = PaperDataset::Address.generate(&GeneratorConfig {
        num_clusters: scaled(12),
        seed: 91,
        num_sources: 4,
    });
    let candidates = generate_candidates(
        &dataset.column_values(0),
        &CandidateConfig {
            parallelism: Parallelism::SEQUENTIAL,
            ..CandidateConfig::default()
        },
    );
    assert!(
        candidates.len() > 50,
        "the workload must be big enough to shard: {} candidates",
        candidates.len()
    );
    candidates.replacements
}

fn config_with_threads(threads: usize) -> GroupingConfig {
    GroupingConfig::with_threads(threads)
}

#[test]
fn candidate_generation_is_identical_at_any_parallelism() {
    let dataset = PaperDataset::JournalTitle.generate(&GeneratorConfig {
        num_clusters: scaled(25),
        seed: 12,
        num_sources: 5,
    });
    let values = dataset.column_values(0);
    let sequential = generate_candidates(
        &values,
        &CandidateConfig {
            parallelism: Parallelism::SEQUENTIAL,
            ..CandidateConfig::default()
        },
    );
    for threads in [2usize, 4, 8] {
        let sharded = generate_candidates(
            &values,
            &CandidateConfig {
                parallelism: Parallelism::fixed(threads),
                ..CandidateConfig::default()
            },
        );
        assert_eq!(
            sequential.replacements, sharded.replacements,
            "candidate order differs at {threads} threads"
        );
        assert_eq!(
            sequential, sharded,
            "replacement sets differ at {threads} threads"
        );
    }
}

#[test]
fn oneshot_grouping_is_identical_at_any_parallelism() {
    let replacements = seeded_candidates();
    let sequential: Vec<Group> =
        StructuredGrouper::one_shot_all(&replacements, config_with_threads(1));
    for threads in [2usize, 4] {
        let sharded: Vec<Group> =
            StructuredGrouper::one_shot_all(&replacements, config_with_threads(threads));
        assert_eq!(
            sequential, sharded,
            "one-shot groups differ at {threads} threads"
        );
    }
}

#[test]
fn incremental_grouping_is_identical_at_any_parallelism() {
    let replacements = seeded_candidates();
    let sequential: Vec<Group> =
        StructuredGrouper::new(&replacements, config_with_threads(1)).all_groups();
    assert!(!sequential.is_empty());
    let sharded: Vec<Group> =
        StructuredGrouper::new(&replacements, config_with_threads(4)).all_groups();
    assert_eq!(
        sequential, sharded,
        "incremental groups differ at 4 threads"
    );
}

#[test]
fn plain_incremental_grouper_is_identical_at_any_parallelism() {
    // `IncrementalGrouper` scans one partition sequentially at any thread
    // count, so the threads act through the structured grouper over it: with
    // the structure refinement on, every partition is one plain incremental
    // grouper, and the structured grouper prefetches partitions ahead of its
    // sequential rule over many invocations. Under a starved step budget the
    // truncation count after each group shows when a prefetched run was
    // revealed, so it must not depend on the thread count either. The
    // workload is trimmed to keep two drains per budget short.
    let mut replacements = seeded_candidates();
    replacements.truncate(80);
    assert!(partition_replacements(&replacements, &config_with_threads(1)).len() > 1);
    let default_steps = GroupingConfig::default().max_search_steps;
    for max_search_steps in [default_steps, 20] {
        let drain = |threads| {
            let config = GroupingConfig {
                structure_refinement: true,
                max_search_steps,
                ..config_with_threads(threads)
            };
            let mut grouper = StructuredGrouper::new(&replacements, config);
            let mut groups = Vec::new();
            let mut truncated = Vec::new();
            while let Some(group) = grouper.next_group() {
                groups.push(group);
                truncated.push(grouper.searches_truncated());
            }
            (groups, truncated)
        };
        let (sequential, sequential_truncated) = drain(1);
        for threads in [3usize, 4] {
            let (sharded, sharded_truncated) = drain(threads);
            assert_eq!(
                sequential, sharded,
                "plain incremental groups differ at {threads} threads ({max_search_steps} steps)"
            );
            assert_eq!(
                sequential_truncated, sharded_truncated,
                "truncated searches differ at {threads} threads ({max_search_steps} steps)"
            );
        }
    }
}

/// One cluster, many variants — the mega-group shape real columns produce
/// when sorted-neighborhood resolution false-merges a pile of lookalikes.
/// Candidates concentrate in a handful of structure partitions, so workers
/// outnumber the partitions there are to run side by side.
fn mega_group_candidates() -> Vec<Replacement> {
    // Systematic variant spellings of one journal title: the base form, each
    // word abbreviated on its own, and growing abbreviated prefixes. With
    // every value in one cluster, candidate generation produces the full
    // quadratic pair pile over closely related graphs.
    let words = ["International", "Journal", "Advanced", "Data", "Systems"];
    let abbreviate = |w: &str| format!("{}.", w.chars().next().unwrap());
    let mut values = vec![words.join(" ")];
    for i in 0..words.len() {
        let mut variant: Vec<String> = words.iter().map(|w| w.to_string()).collect();
        variant[i] = abbreviate(words[i]);
        values.push(variant.join(" "));
    }
    for upto in 2..=words.len() {
        let variant: Vec<String> = words
            .iter()
            .enumerate()
            .map(|(i, w)| {
                if i < upto {
                    abbreviate(w)
                } else {
                    w.to_string()
                }
            })
            .collect();
        values.push(variant.join(" "));
    }
    let candidates = generate_candidates(
        &[values],
        &CandidateConfig {
            parallelism: Parallelism::SEQUENTIAL,
            ..CandidateConfig::default()
        },
    );
    assert!(
        candidates.len() > 50,
        "the mega cluster must yield a searchable candidate pile: {}",
        candidates.len()
    );
    candidates.replacements
}

#[test]
fn single_mega_group_grouping_is_identical_at_any_parallelism() {
    let replacements = mega_group_candidates();
    let base: Vec<Group> =
        StructuredGrouper::new(&replacements, config_with_threads(1)).all_groups();
    assert!(!base.is_empty());
    for threads in [2usize, 4] {
        let sharded: Vec<Group> =
            StructuredGrouper::new(&replacements, config_with_threads(threads)).all_groups();
        assert_eq!(
            base, sharded,
            "mega-group grouping differs at {threads} threads"
        );
    }
}

#[test]
fn single_mega_group_grouping_is_identical_when_the_step_budget_binds() {
    // A starved step budget cuts searches short; the truncation points —
    // and with them the groups and the truncation count — must not depend
    // on the thread count.
    let replacements = mega_group_candidates();
    let drain = |threads: usize| {
        let config = GroupingConfig {
            max_search_steps: 200,
            parallelism: Parallelism::fixed(threads),
            ..GroupingConfig::default()
        };
        let mut grouper = StructuredGrouper::new(&replacements, config);
        let groups = grouper.all_groups();
        (groups, grouper.searches_truncated())
    };
    let base = drain(1);
    assert!(base.1 > 0, "a 200-step budget must truncate some searches");
    for threads in [2usize, 4] {
        assert_eq!(base, drain(threads), "threads={threads}");
    }
}

#[test]
fn oneshot_and_incremental_cover_the_same_replacements_in_parallel() {
    // Cross-driver sanity at a parallel setting: both drivers partition the
    // same replacement multiset (Theorem 6.4 still holds under sharding).
    let replacements = seeded_candidates();
    let config = config_with_threads(4);
    let mut oneshot: Vec<Replacement> =
        StructuredGrouper::one_shot_all(&replacements, config.clone())
            .iter()
            .flat_map(|g| g.members().to_vec())
            .collect();
    let mut incremental: Vec<Replacement> = StructuredGrouper::new(&replacements, config)
        .all_groups()
        .iter()
        .flat_map(|g| g.members().to_vec())
        .collect();
    oneshot.sort();
    incremental.sort();
    assert_eq!(oneshot, incremental);
}

/// What `ec consolidate --budget 50` does to a generated clustered dataset:
/// standardize every column with the simulated expert, then write the
/// majority-consensus golden CSV. Returns the golden CSV and the column
/// reports.
fn consolidate_golden(dataset: &Dataset, threads: usize) -> (Vec<u8>, Vec<ColumnReport>) {
    let pipeline = Pipeline::new(
        ConsolidationConfig {
            budget: 50,
            ..ConsolidationConfig::default()
        }
        .with_threads(threads),
    );
    let mut dataset = dataset.clone();
    let columns: Vec<usize> = (0..dataset.columns.len()).collect();
    let reports = standardize_columns(
        &pipeline,
        &mut dataset,
        &columns,
        AutoMode::Auto,
        true,
        None,
    );
    let golden = pipeline.discover_golden_records(&dataset, TruthMethod::MajorityConsensus);
    let mut csv = Vec::new();
    write_golden_records_csv(&dataset.columns, &golden, &mut csv).unwrap();
    (csv, reports)
}

#[test]
fn address_consolidation_searches_finish_inside_the_step_budget() {
    // The 20-cluster address data (seed 30): before dominance pruning about
    // a third of its pivot searches exhausted the 50k-step budget.
    let dataset = PaperDataset::Address.generate(&GeneratorConfig {
        num_clusters: 20,
        seed: 30,
        num_sources: 6,
    });
    let (golden, reports) = consolidate_golden(&dataset, 1);
    let truncated: usize = reports.iter().map(|r| r.searches_truncated).sum();
    assert!(
        truncated <= 2,
        "{truncated} pivot searches exhausted the step budget: {reports:?}"
    );
    assert!(reports.iter().any(|r| r.groups_approved > 0));
    let (golden_2, reports_2) = consolidate_golden(&dataset, 2);
    assert_eq!(golden, golden_2, "golden CSV differs at 2 threads");
    assert_eq!(reports, reports_2, "column reports differ at 2 threads");
}
