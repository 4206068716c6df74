//! # ec-bench — experiment harnesses
//!
//! One binary per table/figure of the paper's evaluation (see DESIGN.md's
//! per-experiment index and EXPERIMENTS.md for measured results), plus shared
//! helpers used by the binaries and the Criterion micro-benchmarks.
//!
//! All binaries print plain-text tables to stdout and accept no arguments;
//! dataset scale is fixed by each binary so the runs are reproducible.
//! Run them with `--release` — e.g.
//! `cargo run --release -p ec-bench --bin fig6_7_8_effectiveness`.

#![forbid(unsafe_code)]

use ec_baselines::wrangler::RuleSet;
use ec_baselines::{single_groups, wrangler};
use ec_core::{ConsolidationConfig, Oracle, Pipeline, SimulatedOracle, TruthMethod, Verdict};
use ec_data::{Dataset, LabeledPair, PaperDataset};
use ec_grouping::{GroupingConfig, StructuredGrouper};
use ec_metrics::{evaluate_standardization, golden_record_precision, ConfusionCounts};
use ec_replace::{generate_candidates, CandidateConfig, ReplacementEngine};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// One point of an effectiveness curve (Figures 6–8).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EffectivenessPoint {
    /// Number of groups confirmed so far.
    pub budget: usize,
    /// Standardization precision at this budget.
    pub precision: f64,
    /// Standardization recall at this budget.
    pub recall: f64,
    /// Standardization MCC at this budget.
    pub mcc: f64,
}

impl EffectivenessPoint {
    fn from_counts(budget: usize, counts: &ConfusionCounts) -> Self {
        EffectivenessPoint {
            budget,
            precision: counts.precision(),
            recall: counts.recall(),
            mcc: counts.mcc(),
        }
    }
}

/// Draws the evaluation sample for a dataset column (the stand-in for the
/// paper's 1000 hand-labelled pairs).
pub fn evaluation_sample(dataset: &Dataset, n: usize, seed: u64) -> Vec<LabeledPair> {
    let mut rng = StdRng::seed_from_u64(seed);
    dataset.sample_labeled_pairs(0, n, &mut rng)
}

/// Runs the paper's `Group` method on column 0, recording metrics at each
/// checkpoint budget (number of groups confirmed by the simulated expert).
pub fn group_method_series(
    dataset: &Dataset,
    grouping: GroupingConfig,
    checkpoints: &[usize],
    sample: &[LabeledPair],
    oracle_seed: u64,
) -> Vec<EffectivenessPoint> {
    let candidates = generate_candidates(&dataset.column_values(0), &CandidateConfig::default());
    let mut grouper = StructuredGrouper::new(&candidates.replacements, grouping);
    let mut engine = ReplacementEngine::new(dataset.column_values(0), &CandidateConfig::default());
    let mut oracle = SimulatedOracle::for_column(dataset, 0, oracle_seed);
    let max_budget = checkpoints.iter().copied().max().unwrap_or(0);
    let mut points = Vec::new();
    if checkpoints.contains(&0) {
        let counts = evaluate_standardization(sample, engine.values());
        points.push(EffectivenessPoint::from_counts(0, &counts));
    }
    for budget in 1..=max_budget {
        if let Some(group) = grouper.next_group() {
            if let Verdict::Approve(direction) = oracle.review(&group) {
                engine.apply_group(group.members(), direction);
            }
        }
        if checkpoints.contains(&budget) {
            let counts = evaluate_standardization(sample, engine.values());
            points.push(EffectivenessPoint::from_counts(budget, &counts));
        }
    }
    points
}

/// Runs the `Single` baseline (one candidate replacement confirmed per step).
pub fn single_method_series(
    dataset: &Dataset,
    checkpoints: &[usize],
    sample: &[LabeledPair],
    oracle_seed: u64,
) -> Vec<EffectivenessPoint> {
    let candidates = generate_candidates(&dataset.column_values(0), &CandidateConfig::default());
    let singles = single_groups(&candidates);
    let mut engine = ReplacementEngine::new(dataset.column_values(0), &CandidateConfig::default());
    let mut oracle = SimulatedOracle::for_column(dataset, 0, oracle_seed);
    let max_budget = checkpoints.iter().copied().max().unwrap_or(0);
    let mut points = Vec::new();
    if checkpoints.contains(&0) {
        let counts = evaluate_standardization(sample, engine.values());
        points.push(EffectivenessPoint::from_counts(0, &counts));
    }
    for budget in 1..=max_budget {
        if let Some(group) = singles.get(budget - 1) {
            if let Verdict::Approve(direction) = oracle.review(group) {
                engine.apply_group(group.members(), direction);
            }
        }
        if checkpoints.contains(&budget) {
            let counts = evaluate_standardization(sample, engine.values());
            points.push(EffectivenessPoint::from_counts(budget, &counts));
        }
    }
    points
}

/// The Trifacta-style wrangler rule set for a dataset.
pub fn wrangler_rules_for(kind: PaperDataset) -> RuleSet {
    match kind {
        PaperDataset::AuthorList => wrangler::rule_sets::author_list(),
        PaperDataset::Address => wrangler::rule_sets::address(),
        PaperDataset::JournalTitle => wrangler::rule_sets::journal_title(),
    }
}

/// Runs the Trifacta-style baseline (budget-independent: the rules are applied
/// globally once).
pub fn trifacta_point(
    dataset: &Dataset,
    kind: PaperDataset,
    sample: &[LabeledPair],
) -> EffectivenessPoint {
    let rules = wrangler_rules_for(kind);
    let (updated, _) = rules.apply_column(&dataset.column_values(0));
    let counts = evaluate_standardization(sample, &updated);
    EffectivenessPoint::from_counts(0, &counts)
}

/// Majority-consensus golden-record precision before/after standardization
/// (Table 8) on column 0.
pub fn table8_point(dataset: &Dataset, budget: usize, oracle_seed: u64) -> (f64, f64) {
    let truth: Vec<String> = dataset
        .clusters
        .iter()
        .map(|c| c.golden[0].clone())
        .collect();
    let pipeline = Pipeline::new(ConsolidationConfig {
        budget,
        ..Default::default()
    });
    let before_goldens = pipeline.discover_golden_records(dataset, TruthMethod::MajorityConsensus);
    let before = golden_record_precision(
        &before_goldens
            .iter()
            .map(|g| g[0].clone())
            .collect::<Vec<_>>(),
        &truth,
    );
    let mut standardized = dataset.clone();
    let mut oracle = SimulatedOracle::for_column(&standardized, 0, oracle_seed);
    pipeline.standardize_column(&mut standardized, 0, &mut oracle);
    let after_goldens =
        pipeline.discover_golden_records(&standardized, TruthMethod::MajorityConsensus);
    let after = golden_record_precision(
        &after_goldens
            .iter()
            .map(|g| g[0].clone())
            .collect::<Vec<_>>(),
        &truth,
    );
    (before, after)
}

/// Standard checkpoint budgets used by the figure harnesses.
pub fn checkpoints(max: usize) -> Vec<usize> {
    let mut out = vec![0, 1, 2, 5, 10, 20, 30, 40, 50, 75, 100, 150, 200];
    out.retain(|&b| b <= max);
    if !out.contains(&max) {
        out.push(max);
    }
    out
}

/// Pretty-prints one effectiveness series.
pub fn print_series(method: &str, points: &[EffectivenessPoint]) {
    for p in points {
        println!(
            "{:<10} budget={:<4} precision={:.3} recall={:.3} mcc={:.3}",
            method, p.budget, p.precision, p.recall, p.mcc
        );
    }
}

/// Where the bench binaries export machine-readable copies of their tables:
/// the `EC_BENCH_EXPORT_DIR` environment variable, or `None` (no export) when
/// it is unset or empty. CI sets it and archives the directory as a workflow
/// artifact.
pub fn export_dir() -> Option<std::path::PathBuf> {
    match std::env::var("EC_BENCH_EXPORT_DIR") {
        Ok(dir) if !dir.trim().is_empty() => Some(std::path::PathBuf::from(dir)),
        _ => None,
    }
}

/// Writes `contents` as `<EC_BENCH_EXPORT_DIR>/<name>.csv` when the export
/// directory is configured; a no-op otherwise. Returns the written path,
/// printing it so terminal users see where the artifact went.
fn export_csv(name: &str, contents: &str) -> Option<std::path::PathBuf> {
    let dir = export_dir()?;
    std::fs::create_dir_all(&dir)
        .unwrap_or_else(|e| panic!("cannot create export dir {}: {e}", dir.display()));
    let path = dir.join(format!("{name}.csv"));
    std::fs::write(&path, contents)
        .unwrap_or_else(|e| panic!("cannot write {}: {e}", path.display()));
    println!("exported {}", path.display());
    Some(path)
}

/// Exports `table` via [`ec_report::TextTable::to_csv`]; see [`export_dir`].
pub fn export_table_csv(name: &str, table: &ec_report::TextTable) -> Option<std::path::PathBuf> {
    export_csv(name, &table.to_csv())
}

/// Exports `figure` via [`ec_report::csv_export`]; see [`export_dir`].
pub fn export_figure_csv(name: &str, figure: &ec_report::Figure) -> Option<std::path::PathBuf> {
    export_csv(name, &ec_report::csv_export(figure))
}

/// Scrapes `GET /metrics` from a live server, returning the raw Prometheus
/// exposition — or `None` when anything fails, because a telemetry hiccup
/// must never fail a benchmark run. Pair two scrapes around the measured
/// section and diff their [`parse_metric_samples`] to see what moved.
pub fn scrape_metrics(addr: std::net::SocketAddr) -> Option<String> {
    let timeout = std::time::Duration::from_secs(2);
    let mut conn = ec_serve::http::ClientConn::connect(addr, Some(timeout)).ok()?;
    conn.set_read_timeout(Some(std::time::Duration::from_secs(5)))
        .ok()?;
    let response = conn.request("GET", "/metrics", b"", false).ok()?;
    if response.status != 200 {
        return None;
    }
    String::from_utf8(response.body).ok()
}

/// Parses a Prometheus text exposition into `series → value` samples
/// (`series` keeps its label set: `name{label="v"}`); comment and blank
/// lines are skipped. Works on both a [`scrape_metrics`] body and an
/// in-process `ec_obs::render()` string.
pub fn parse_metric_samples(text: &str) -> std::collections::BTreeMap<String, f64> {
    let mut samples = std::collections::BTreeMap::new();
    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        // The value is everything after the last space; the series (name +
        // label set, which may itself contain spaces inside quoted label
        // values) is everything before it.
        if let Some((series, value)) = line.rsplit_once(' ') {
            if let Ok(value) = value.parse::<f64>() {
                samples.insert(series.trim_end().to_string(), value);
            }
        }
    }
    samples
}

#[cfg(test)]
mod tests {
    use super::*;
    use ec_data::GeneratorConfig;

    fn tiny() -> Dataset {
        PaperDataset::Address.generate(&GeneratorConfig {
            num_clusters: 15,
            seed: 3,
            num_sources: 3,
        })
    }

    #[test]
    fn checkpoints_are_bounded_and_include_max() {
        let c = checkpoints(60);
        assert!(c.iter().all(|&b| b <= 60));
        assert!(c.contains(&0));
        assert!(c.contains(&60));
    }

    #[test]
    fn group_series_recall_is_monotone_in_budget() {
        let ds = tiny();
        let sample = evaluation_sample(&ds, 200, 1);
        let points = group_method_series(&ds, GroupingConfig::default(), &[0, 5, 15], &sample, 2);
        assert_eq!(points.len(), 3);
        assert!(points[0].recall <= points[1].recall);
        assert!(points[1].recall <= points[2].recall);
        assert_eq!(points[0].recall, 0.0);
    }

    #[test]
    fn single_series_and_trifacta_run() {
        let ds = tiny();
        let sample = evaluation_sample(&ds, 200, 1);
        let single = single_method_series(&ds, &[0, 10], &sample, 2);
        assert_eq!(single.len(), 2);
        let tri = trifacta_point(&ds, PaperDataset::Address, &sample);
        assert!(tri.precision >= 0.0 && tri.precision <= 1.0);
    }

    #[test]
    fn table8_improves_or_holds() {
        let ds = tiny();
        let (before, after) = table8_point(&ds, 30, 4);
        assert!(after >= before);
    }

    #[test]
    fn metric_samples_parse_keeping_label_sets() {
        let text = "# HELP ec_x_total x\n# TYPE ec_x_total counter\n\
                    ec_x_total{kind=\"a b\"} 3\nec_y_seconds_sum 0.25\n\
                    ec_y_seconds_bucket{le=\"+Inf\"} 4\nother_total 9\n";
        let samples = parse_metric_samples(text);
        assert_eq!(samples["ec_x_total{kind=\"a b\"}"], 3.0);
        assert_eq!(samples["ec_y_seconds_sum"], 0.25);
        assert_eq!(samples.len(), 4);
    }
}
