//! The shared, automated consolidation driver.
//!
//! `ec consolidate`, `ec pipeline`, `ec ingest` and the `ec serve` endpoints
//! all run the same sequence — pick an oracle per column, standardize the
//! requested columns in order, record approvals, run truth discovery — and
//! their outputs must be **byte-identical** across entry points (the serve
//! tests `cmp` a `POST /pipeline` response against the CLI's `--output`
//! file). The column driver, the oracle seeding and the golden-record
//! serialization live here once, over the single review loop in
//! [`Pipeline`], so that identity holds by construction whether a column
//! is generated fresh, replayed from a compiled artifact, or replayed from
//! an incremental run's cache.

use crate::compiled::CompiledDataset;
use crate::library::ProgramLibrary;
use crate::oracle::{ApproveAllOracle, Oracle, SimulatedOracle};
use crate::pipeline::{ColumnReport, ColumnSource, Pipeline, TruthMethod};
use ec_data::csv::CsvWriter;
use ec_data::Dataset;
use std::io::Write;

/// The non-interactive oracle modes (the CLI additionally offers
/// `interactive`, which needs a terminal and stays CLI-only).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AutoMode {
    /// Use the simulated expert when the input carries ground truth,
    /// otherwise approve everything.
    Auto,
    /// Approve every group in the forward direction.
    ApproveAll,
}

impl AutoMode {
    /// Parses the mode names shared by the CLI flag and the serve query
    /// parameter.
    pub fn parse(name: &str) -> Option<AutoMode> {
        match name {
            "auto" => Some(AutoMode::Auto),
            "approve-all" => Some(AutoMode::ApproveAll),
            _ => None,
        }
    }
}

impl TruthMethod {
    /// Parses the truth-method names shared by the CLI flag and the serve
    /// query parameter.
    pub fn parse(name: &str) -> Option<TruthMethod> {
        match name {
            "majority" | "mc" => Some(TruthMethod::MajorityConsensus),
            "reliability" | "source-reliability" => Some(TruthMethod::SourceReliability),
            _ => None,
        }
    }
}

/// Resolves a column specification — a column name, or a 0-based index — the
/// way every entry point does.
pub fn resolve_column_spec(columns: &[String], spec: &str) -> Option<usize> {
    if let Some(idx) = columns.iter().position(|c| c == spec) {
        return Some(idx);
    }
    match spec.parse::<usize>() {
        Ok(idx) if idx < columns.len() => Some(idx),
        _ => None,
    }
}

/// Supplies the oracle that reviews each column of a driver run.
pub trait OracleSource {
    /// The oracle for column `col`, built against `dataset` as standardized
    /// so far (the columns before `col` in the run are already rewritten).
    fn oracle_for(&mut self, dataset: &Dataset, col: usize) -> Box<dyn Oracle + '_>;
}

/// The automated oracle selection every non-interactive entry point shares:
/// per column, a [`SimulatedOracle`] seeded with 7 plus the column index
/// when the mode is [`AutoMode::Auto`] and the dataset carries ground truth,
/// [`ApproveAllOracle`] otherwise.
#[derive(Debug, Clone, Copy)]
pub struct AutoReview {
    mode: AutoMode,
    has_truth: bool,
}

impl AutoReview {
    /// The selection for `mode` over a dataset with (or without) truth.
    pub fn new(mode: AutoMode, has_truth: bool) -> Self {
        AutoReview { mode, has_truth }
    }
}

impl OracleSource for AutoReview {
    fn oracle_for(&mut self, dataset: &Dataset, col: usize) -> Box<dyn Oracle + '_> {
        if self.mode == AutoMode::Auto && self.has_truth {
            Box::new(SimulatedOracle::for_column(dataset, col, 7 + col as u64))
        } else {
            Box::new(ApproveAllOracle)
        }
    }
}

/// Standardizes `columns` (in the given order) with the [`AutoReview`]
/// oracle selection. Approved groups are recorded into `library` (keyed by
/// column name) when one is supplied, so the verification work performed
/// during the run becomes a reusable asset.
pub fn standardize_columns(
    pipeline: &Pipeline,
    dataset: &mut Dataset,
    columns: &[usize],
    mode: AutoMode,
    has_truth: bool,
    library: Option<&mut ProgramLibrary>,
) -> Vec<ColumnReport> {
    standardize_columns_with(
        pipeline,
        dataset,
        None,
        columns,
        &mut AutoReview::new(mode, has_truth),
        library,
    )
}

/// [`standardize_columns`] with any [`OracleSource`], optionally replaying
/// each column from `compiled` state (a loaded artifact, whose `dataset` is
/// typically a clone of [`CompiledDataset::dataset`]) instead of generating
/// and grouping candidates afresh. Both routes produce identical output.
pub fn standardize_columns_with(
    pipeline: &Pipeline,
    dataset: &mut Dataset,
    compiled: Option<&CompiledDataset>,
    columns: &[usize],
    oracles: &mut dyn OracleSource,
    library: Option<&mut ProgramLibrary>,
) -> Vec<ColumnReport> {
    let source = |_: &Dataset, col: usize| match compiled {
        Some(compiled) => ColumnSource::Compiled(&compiled.columns[col]),
        None => ColumnSource::Fresh,
    };
    review_columns(pipeline, dataset, columns, source, oracles, library)
}

/// The multi-column driver behind every entry point: per column, prepares
/// the [`ColumnSource`], takes the column's oracle, runs the pipeline's
/// review loop and records the approved groups into `library`.
pub(crate) fn review_columns<'a>(
    pipeline: &Pipeline,
    dataset: &mut Dataset,
    columns: &[usize],
    mut source: impl FnMut(&Dataset, usize) -> ColumnSource<'a>,
    oracles: &mut dyn OracleSource,
    mut library: Option<&mut ProgramLibrary>,
) -> Vec<ColumnReport> {
    let mut reports = Vec::with_capacity(columns.len());
    for &col in columns {
        let source = source(dataset, col);
        let mut oracle = oracles.oracle_for(dataset, col);
        let (report, approved) = pipeline.review_column(dataset, col, source, oracle.as_mut());
        if let Some(library) = library.as_deref_mut() {
            for group in &approved {
                library.record(&dataset.columns[col], group);
            }
        }
        reports.push(report);
    }
    reports
}

/// Streams golden records as CSV (one row per cluster, `cluster` id first),
/// writing record-at-a-time so the output never has to fit in memory. The
/// bytes match the whole-document serialization every entry point used
/// before streaming existed.
pub fn write_golden_records_csv(
    columns: &[String],
    golden: &[Vec<Option<String>>],
    out: &mut dyn Write,
) -> std::io::Result<()> {
    let mut writer = CsvWriter::new(out);
    let header = std::iter::once("cluster").chain(columns.iter().map(String::as_str));
    writer.write_record(header)?;
    for (i, record) in golden.iter().enumerate() {
        let fields = std::iter::once(i.to_string())
            .chain(record.iter().map(|v| v.clone().unwrap_or_default()));
        writer.write_record(fields)?;
    }
    writer.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::ConsolidationConfig;
    use ec_data::{GeneratorConfig, PaperDataset};

    #[test]
    fn mode_and_column_parsing() {
        assert_eq!(AutoMode::parse("auto"), Some(AutoMode::Auto));
        assert_eq!(AutoMode::parse("approve-all"), Some(AutoMode::ApproveAll));
        assert_eq!(AutoMode::parse("interactive"), None);
        for name in ["majority", "mc"] {
            assert_eq!(
                TruthMethod::parse(name),
                Some(TruthMethod::MajorityConsensus)
            );
        }
        for name in ["reliability", "source-reliability"] {
            assert_eq!(
                TruthMethod::parse(name),
                Some(TruthMethod::SourceReliability)
            );
        }
        assert_eq!(TruthMethod::parse("vote"), None);
        let columns = vec!["Name".to_string(), "Address".to_string()];
        assert_eq!(resolve_column_spec(&columns, "Address"), Some(1));
        assert_eq!(resolve_column_spec(&columns, "0"), Some(0));
        assert_eq!(resolve_column_spec(&columns, "2"), None);
        assert_eq!(resolve_column_spec(&columns, "Phone"), None);
    }

    #[test]
    fn standardize_columns_matches_the_manual_loop_and_fills_the_library() {
        let dataset = PaperDataset::Address.generate(&GeneratorConfig {
            num_clusters: 12,
            seed: 21,
            num_sources: 3,
        });
        let pipeline = Pipeline::new(ConsolidationConfig {
            budget: 10,
            ..ConsolidationConfig::default()
        });
        // Each column's simulated oracle is built from the dataset as
        // standardized so far, after the earlier columns were rewritten.
        let mut manual = dataset.clone();
        let manual_reports: Vec<ColumnReport> = (0..manual.columns.len())
            .map(|col| {
                let mut oracle = SimulatedOracle::for_column(&manual, col, 7 + col as u64);
                pipeline.standardize_column(&mut manual, col, &mut oracle)
            })
            .collect();

        let mut shared = dataset.clone();
        let columns: Vec<usize> = (0..shared.columns.len()).collect();
        let mut library = ProgramLibrary::new();
        let reports = standardize_columns(
            &pipeline,
            &mut shared,
            &columns,
            AutoMode::Auto,
            true,
            Some(&mut library),
        );
        assert_eq!(shared, manual, "shared driver reproduces the manual loop");
        assert_eq!(reports, manual_reports);
        let approved: usize = reports.iter().map(|r| r.groups_approved).sum();
        if approved > 0 {
            assert!(!library.is_empty(), "approved groups land in the library");
        }
    }

    #[test]
    fn golden_csv_streaming_matches_whole_document_serialization() {
        let dataset = PaperDataset::JournalTitle.generate(&GeneratorConfig {
            num_clusters: 6,
            seed: 2,
            num_sources: 3,
        });
        let pipeline = Pipeline::default();
        let golden = pipeline.discover_golden_records(&dataset, TruthMethod::MajorityConsensus);
        let mut streamed = Vec::new();
        write_golden_records_csv(&dataset.columns, &golden, &mut streamed).unwrap();
        // The whole-document shape the CLI historically produced.
        let mut records = Vec::with_capacity(golden.len() + 1);
        let mut header = vec!["cluster".to_string()];
        header.extend(dataset.columns.iter().cloned());
        records.push(header);
        for (i, record) in golden.iter().enumerate() {
            let mut row = vec![i.to_string()];
            row.extend(record.iter().map(|v| v.clone().unwrap_or_default()));
            records.push(row);
        }
        assert_eq!(
            String::from_utf8(streamed).unwrap(),
            ec_data::csv::write(&records)
        );
    }
}
