//! Figure 9: group-generation time for the three grouping methods.
//!
//! `OneShot` and `EarlyTerm` pay their full cost upfront (all groups are
//! generated before the first one can be shown to the human); `Incremental`
//! pays per invocation. The paper reports the incremental method improving the
//! upfront cost by up to three orders of magnitude; the absolute numbers here
//! differ (different hardware, Rust vs. C++, generated data) but the ordering
//! and the shape of the gap are what this harness checks.

use ec_bench::export_figure_csv;
use ec_data::{GeneratorConfig, PaperDataset};
use ec_grouping::{GroupingConfig, Parallelism, StructuredGrouper};
use ec_replace::{generate_candidates, CandidateConfig};
use ec_report::{Figure, Series};
use std::time::{Duration, Instant};

const AXES: [&str; 3] = ["methods", "threads", "mega"];

/// Axis gate: `EC_FIG9_AXES=mega` (comma list of `methods`, `threads`,
/// `mega`) runs a subset of the harness — CI runs only the fast mega-group
/// axis; unset (or blank) runs everything. An unknown axis name is a hard
/// error, so a typo cannot silently turn the bin into a green no-op.
fn enabled_axes() -> Vec<&'static str> {
    let raw = match std::env::var("EC_FIG9_AXES") {
        Ok(v) if !v.trim().is_empty() => v,
        _ => return AXES.to_vec(),
    };
    let mut enabled = Vec::new();
    for name in raw.split(',').map(str::trim).filter(|n| !n.is_empty()) {
        match AXES.iter().find(|a| a.eq_ignore_ascii_case(name)) {
            Some(axis) if !enabled.contains(axis) => enabled.push(*axis),
            Some(_) => {}
            None => {
                eprintln!(
                    "fig9_efficiency: unknown axis '{name}' in EC_FIG9_AXES (expected a comma list of {})",
                    AXES.join(", ")
                );
                std::process::exit(2);
            }
        }
    }
    enabled
}

fn main() {
    let axes = enabled_axes();
    if axes.contains(&"methods") {
        methods_axis();
    }
    if axes.contains(&"threads") {
        threads_axis();
    }
    if axes.contains(&"mega") {
        mega_group_axis();
    }
}

fn methods_axis() {
    // Scaled-down configurations so the (intentionally slow) OneShot variant
    // finishes in reasonable time.
    let configs = [
        (
            PaperDataset::AuthorList,
            GeneratorConfig {
                num_clusters: 30,
                seed: 1,
                num_sources: 6,
            },
            50usize,
        ),
        (
            PaperDataset::Address,
            GeneratorConfig {
                num_clusters: 120,
                seed: 2,
                num_sources: 6,
            },
            50,
        ),
        (
            PaperDataset::JournalTitle,
            GeneratorConfig {
                num_clusters: 250,
                seed: 3,
                num_sources: 6,
            },
            50,
        ),
    ];
    for (kind, gen_config, k) in configs {
        let dataset = kind.generate(&gen_config);
        let candidates =
            generate_candidates(&dataset.column_values(0), &CandidateConfig::default());
        println!(
            "=== {} — {} candidate replacements, first {} groups ===",
            kind.name(),
            candidates.len(),
            k
        );

        // OneShot: vanilla upfront grouping, no early termination.
        let start = Instant::now();
        let oneshot =
            StructuredGrouper::one_shot_all(&candidates.replacements, GroupingConfig::one_shot());
        let oneshot_upfront = start.elapsed();
        println!(
            "OneShot      upfront cost: {:>10.3?} ({} groups)",
            oneshot_upfront,
            oneshot.len()
        );

        // EarlyTerm: upfront grouping with the Section 5.2 optimizations.
        let start = Instant::now();
        let earlyterm =
            StructuredGrouper::one_shot_all(&candidates.replacements, GroupingConfig::default());
        let earlyterm_upfront = start.elapsed();
        println!(
            "EarlyTerm    upfront cost: {:>10.3?} ({} groups)",
            earlyterm_upfront,
            earlyterm.len()
        );

        // Incremental: time to the first group, and per-invocation times.
        let start = Instant::now();
        let mut grouper =
            StructuredGrouper::new(&candidates.replacements, GroupingConfig::default());
        let mut produced = 0usize;
        let mut first_group_time = None;
        for i in 0..k {
            if grouper.next_group().is_none() {
                break;
            }
            produced += 1;
            if i == 0 {
                first_group_time = Some(start.elapsed());
            }
        }
        let incremental_total = start.elapsed();
        println!(
            "Incremental  first group:  {:>10.3?}   first {} groups: {:>10.3?}",
            first_group_time.unwrap_or_default(),
            produced,
            incremental_total
        );
        let speedup = oneshot_upfront.as_secs_f64()
            / first_group_time
                .unwrap_or(incremental_total)
                .as_secs_f64()
                .max(1e-9);
        println!(
            "=> upfront-cost ratio OneShot / Incremental-first-group: {speedup:.0}x (EarlyTerm / OneShot: {:.2}x faster)\n",
            oneshot_upfront.as_secs_f64() / earlyterm_upfront.as_secs_f64().max(1e-9)
        );
    }
}

/// The threads axis of Figure 9: the two sharded stages — candidate
/// generation and upfront grouping — at 1, 2 and 4 worker threads on the
/// largest synthetic workload. Output is bit-identical across rows (asserted
/// below); only the wall-clock time changes, and the attainable speedup is
/// bounded by the machine's available cores.
fn threads_axis() {
    let dataset = PaperDataset::JournalTitle.generate(&GeneratorConfig {
        num_clusters: 250,
        seed: 3,
        num_sources: 6,
    });
    let values = dataset.column_values(0);
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    println!("=== threads axis — JournalTitle, {cores} core(s) available ===");
    println!("threads | candidate gen | grouping (EarlyTerm upfront) | total | speedup vs 1");
    let mut baseline: Option<Duration> = None;
    let mut reference: Option<(ec_replace::CandidateSet, Vec<ec_grouping::Group>)> = None;
    let mut gen_series = Vec::new();
    let mut group_series = Vec::new();
    let mut total_series = Vec::new();
    for threads in [1usize, 2, 4] {
        let start = Instant::now();
        let candidates = generate_candidates(
            &values,
            &CandidateConfig {
                parallelism: Parallelism::fixed(threads),
                ..CandidateConfig::default()
            },
        );
        let gen_time = start.elapsed();
        let start = Instant::now();
        let groups = StructuredGrouper::one_shot_all(
            &candidates.replacements,
            GroupingConfig::with_threads(threads),
        );
        let group_time = start.elapsed();
        let total = gen_time + group_time;
        let baseline = *baseline.get_or_insert(total);
        match &reference {
            None => reference = Some((candidates, groups)),
            Some((ref_candidates, ref_groups)) => {
                assert_eq!(
                    ref_candidates, &candidates,
                    "sharded candidate generation must be deterministic across thread counts"
                );
                assert_eq!(
                    ref_groups, &groups,
                    "sharded grouping must be deterministic across thread counts"
                );
            }
        }
        println!(
            "{threads:>7} | {gen_time:>13.3?} | {group_time:>28.3?} | {total:>5.3?} | {:>10.2}x",
            baseline.as_secs_f64() / total.as_secs_f64().max(1e-9)
        );
        gen_series.push((threads as f64, gen_time.as_secs_f64()));
        group_series.push((threads as f64, group_time.as_secs_f64()));
        total_series.push((threads as f64, total.as_secs_f64()));
    }
    println!(
        "(speedup saturates at the machine's core count; ≥1.5x at 4 threads expects ≥4 cores)"
    );
    let figure = Figure::new(
        "Figure 9 — threads axis (JournalTitle)",
        "threads",
        "seconds",
    )
    .with_series(Series::new("candidate generation", gen_series))
    .with_series(Series::new("grouping (EarlyTerm upfront)", group_series))
    .with_series(Series::new("total", total_series));
    export_figure_csv("fig9_threads_axis", &figure);
}

/// Lookalike variants of one long title, differing only in a trailing
/// two-digit number — the shape a sorted-neighborhood false-merge produces.
/// Every pair shares the same structure signature, so *all* candidates land
/// in one partition and the first pivot search faces hundreds of
/// near-identical graphs with long shared inverted lists: the single
/// expensive search nothing but intra-search sharding can speed up.
fn mega_values() -> Vec<String> {
    (10..22)
        .map(|i| format!("International Journal of Distributed Data Systems Volume {i}"))
        .collect()
}

/// The single-mega-group axis of Figure 9: one huge cluster of variant
/// spellings — the worst-case column shape, where the graphs-to-search axis
/// offers little parallelism (the incremental ramp's early batches search
/// one or two graphs at a time, and each search is one sequential DFS).
/// Measures the time to the *first* group (the `ec serve` latency proxy) at
/// 1, 2 and 4 threads, asserts the group is bit-identical across rows, and
/// exports `fig9_mega_group.csv`.
fn mega_group_axis() {
    let values = mega_values();
    let candidates = generate_candidates(
        std::slice::from_ref(&values),
        &CandidateConfig {
            parallelism: Parallelism::SEQUENTIAL,
            ..CandidateConfig::default()
        },
    );
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    println!(
        "=== single-mega-group axis — one cluster, {} variants, {} candidate replacements, {cores} core(s) available ===",
        values.len(),
        candidates.len()
    );
    println!("threads | first group | speedup vs 1");
    let mut baseline: Option<Duration> = None;
    let mut reference: Option<ec_grouping::Group> = None;
    let mut series = Vec::new();
    for threads in [1usize, 2, 4] {
        let start = Instant::now();
        let mut grouper = StructuredGrouper::new(
            &candidates.replacements,
            GroupingConfig::with_threads(threads),
        );
        let first = grouper
            .next_group()
            .expect("the mega cluster has at least one group");
        let first_time = start.elapsed();
        match &reference {
            None => reference = Some(first),
            Some(reference) => assert_eq!(
                reference, &first,
                "the mega group must be bit-identical at every thread count"
            ),
        }
        let baseline = *baseline.get_or_insert(first_time);
        println!(
            "{threads:>7} | {first_time:>11.3?} | {:>11.2}x",
            baseline.as_secs_f64() / first_time.as_secs_f64().max(1e-9)
        );
        series.push((threads as f64, first_time.as_secs_f64()));
    }
    println!("(speedup saturates at the machine's core count)");
    let figure = Figure::new(
        "Figure 9 — single-mega-group axis (time to first group)",
        "threads",
        "seconds",
    )
    .with_series(Series::new("first group", series));
    export_figure_csv("fig9_mega_group", &figure);
}
