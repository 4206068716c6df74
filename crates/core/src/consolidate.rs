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
use crate::delta::DeltaPipeline;
use crate::library::ProgramLibrary;
use crate::oracle::{ApproveAllOracle, Oracle, SimulatedOracle};
use crate::pipeline::{ColumnReport, ColumnSource, ConsolidationConfig, Pipeline, TruthMethod};
use ec_data::csv::CsvWriter;
use ec_data::{Dataset, DatasetIoError, RecordStream};
use ec_grouping::Parallelism;
use ec_resolution::{Resolver, ResolverConfig};
use std::fmt;
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
pub fn resolve_column_spec(columns: &[String], spec: &str) -> Result<usize, String> {
    match columns.iter().position(|c| c == spec) {
        Some(idx) => Ok(idx),
        None => spec
            .parse::<usize>()
            .ok()
            .filter(|&idx| idx < columns.len())
            .ok_or_else(|| {
                format!(
                    "no column '{spec}'; available columns: {}",
                    columns.join(", ")
                )
            }),
    }
}

/// The run knobs of every consolidation entry point — the `ec` flags and the
/// `ec serve` query parameters of the same names — with their one set of
/// defaults and validation rules (the README's run-knob table lists them).
/// Equality ignores [`RunOptions::threshold_given`]: two runs that resolve
/// at the same threshold are the same run.
#[derive(Debug, Clone)]
pub struct RunOptions {
    /// `threshold`: the resolution threshold, in `[0, 1]` (default 0.75).
    pub threshold: f64,
    /// Whether `threshold` was given rather than defaulted (a compiled
    /// artifact refuses only a given threshold that differs from its own).
    pub threshold_given: bool,
    /// `budget`: groups reviewed per column (default 100).
    pub budget: usize,
    /// `mode`: the automatic oracle selection (default `auto`).
    pub mode: AutoMode,
    /// `mode=interactive`: a human reviews at the terminal and `mode` is
    /// unused. Only entry points that parse with `allow_interactive` accept it.
    pub interactive: bool,
    /// `truth-method`: the truth discovery that closes the run (default
    /// `majority`).
    pub truth: TruthMethod,
    /// `name`: the resolved dataset's name (default `resolved`).
    pub name: String,
    /// `column`: the one column to standardize (default every column),
    /// checked against the dataset by [`RunOptions::columns`].
    pub column: Option<String>,
}

impl RunOptions {
    /// Reads and validates the knobs through `get` (a key → value lookup:
    /// the CLI's parsed flags or a request's query parameters). Absent keys
    /// take their defaults; `interactive` is a valid `mode` only with
    /// `allow_interactive`. The error names the offending knob and value.
    pub fn parse<'a>(
        get: impl Fn(&str) -> Option<&'a str>,
        allow_interactive: bool,
    ) -> Result<RunOptions, String> {
        let given = get("threshold");
        let threshold: f64 = match given {
            None => 0.75,
            Some(v) => v
                .parse()
                .map_err(|_| format!("threshold expects a number, got '{v}'"))?,
        };
        if !(0.0..=1.0).contains(&threshold) {
            return Err(format!(
                "threshold must be between 0 and 1, got {threshold}"
            ));
        }
        let budget = match get("budget") {
            None => 100,
            Some(v) => v
                .parse()
                .map_err(|_| format!("budget expects an integer, got '{v}'"))?,
        };
        let mode_name = get("mode").unwrap_or("auto");
        let interactive = allow_interactive && mode_name == "interactive";
        let mode = match AutoMode::parse(mode_name) {
            Some(mode) => mode,
            None if interactive => AutoMode::Auto,
            None => {
                let expected = if allow_interactive {
                    "auto, approve-all or interactive"
                } else {
                    "auto or approve-all"
                };
                return Err(format!("unknown mode '{mode_name}'; expected {expected}"));
            }
        };
        let truth_name = get("truth-method").unwrap_or("majority");
        let truth = TruthMethod::parse(truth_name).ok_or_else(|| {
            format!("unknown truth method '{truth_name}'; expected majority or reliability")
        })?;
        Ok(RunOptions {
            threshold,
            threshold_given: given.is_some(),
            budget,
            mode,
            interactive,
            truth,
            name: get("name").unwrap_or("resolved").to_string(),
            column: get("column").map(str::to_string),
        })
    }

    /// The `mode` knob's value as a user spells it.
    pub fn mode_name(&self) -> &'static str {
        match (self.interactive, self.mode) {
            (true, _) => "interactive",
            (false, AutoMode::Auto) => "auto",
            (false, AutoMode::ApproveAll) => "approve-all",
        }
    }

    /// The columns to standardize, in run order: the `column` knob resolved
    /// against `columns`, or every column.
    pub fn columns(&self, columns: &[String]) -> Result<Vec<usize>, String> {
        match &self.column {
            Some(spec) => Ok(vec![resolve_column_spec(columns, spec)?]),
            None => Ok((0..columns.len()).collect()),
        }
    }

    /// The consolidation configuration: the `budget` knob over `threads`
    /// workers (0 = auto).
    pub fn consolidation(&self, threads: usize) -> ConsolidationConfig {
        ConsolidationConfig {
            budget: self.budget,
            ..ConsolidationConfig::default()
        }
        .with_threads(threads)
    }

    /// The resolver configuration the `threshold` knob sets.
    fn resolver_config(&self) -> ResolverConfig {
        ResolverConfig {
            threshold: self.threshold,
            ..ResolverConfig::default()
        }
    }

    /// Resolves a flat record stream into the dataset `name`, scoring pairs
    /// over `parallelism` (the output is the same at every setting).
    pub fn resolve(
        &self,
        records: &mut dyn RecordStream,
        parallelism: Parallelism,
    ) -> Result<Dataset, DatasetIoError> {
        Resolver::new(self.resolver_config())
            .with_parallelism(parallelism)
            .resolve_stream(&self.name, records)
    }

    /// A fresh incremental pipeline over `columns` with these knobs.
    pub fn delta_pipeline(&self, columns: Vec<String>, threads: usize) -> DeltaPipeline {
        DeltaPipeline::new(
            &self.name,
            columns,
            self.resolver_config(),
            self.consolidation(threads),
            self.mode,
            self.truth,
        )
    }
}

impl PartialEq for RunOptions {
    fn eq(&self, other: &Self) -> bool {
        self.threshold == other.threshold
            && self.budget == other.budget
            && self.mode_name() == other.mode_name()
            && self.truth == other.truth
            && self.name == other.name
            && self.column == other.column
    }
}

impl fmt::Display for RunOptions {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let truth = match self.truth {
            TruthMethod::MajorityConsensus => "majority",
            TruthMethod::SourceReliability => "reliability",
        };
        write!(
            f,
            "threshold {}, budget {}, mode {}, truth-method {truth}, name '{}'",
            self.threshold,
            self.budget,
            self.mode_name(),
            self.name
        )?;
        match &self.column {
            Some(column) => write!(f, ", column '{column}'"),
            None => Ok(()),
        }
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
    let source = |_: &mut Dataset, col: usize| match compiled {
        Some(compiled) => ColumnSource::Compiled(&compiled.columns[col]),
        None => ColumnSource::Fresh,
    };
    review_columns(pipeline, dataset, columns, source, oracles, library)
}

/// The multi-column driver behind every entry point: per column, takes the
/// column's oracle, prepares the [`ColumnSource`] (which may take the
/// column's values out of `dataset`), runs the pipeline's review loop and
/// records the approved groups into `library`.
pub(crate) fn review_columns<'a>(
    pipeline: &Pipeline,
    dataset: &mut Dataset,
    columns: &[usize],
    mut source: impl FnMut(&mut Dataset, usize) -> ColumnSource<'a>,
    oracles: &mut dyn OracleSource,
    mut library: Option<&mut ProgramLibrary>,
) -> Vec<ColumnReport> {
    let mut reports = Vec::with_capacity(columns.len());
    for &col in columns {
        // The oracle reads the column before the source may take it.
        let mut oracle = oracles.oracle_for(dataset, col);
        let source = source(dataset, col);
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
        assert_eq!(resolve_column_spec(&columns, "Address"), Ok(1));
        assert_eq!(resolve_column_spec(&columns, "0"), Ok(0));
        assert!(resolve_column_spec(&columns, "2").is_err());
        assert_eq!(
            resolve_column_spec(&columns, "Phone"),
            Err("no column 'Phone'; available columns: Name, Address".to_string())
        );
    }

    #[test]
    fn run_options_defaults_and_every_rejection() {
        let parse = |pairs: &[(&str, &str)], allow_interactive| {
            RunOptions::parse(
                |key| pairs.iter().find(|(k, _)| *k == key).map(|(_, v)| *v),
                allow_interactive,
            )
        };
        let defaults = parse(&[], false).unwrap();
        assert_eq!(
            (
                defaults.threshold,
                defaults.threshold_given,
                defaults.budget
            ),
            (0.75, false, 100)
        );
        assert_eq!(
            (defaults.mode, defaults.interactive, defaults.truth),
            (AutoMode::Auto, false, TruthMethod::MajorityConsensus)
        );
        assert_eq!(
            (defaults.name.as_str(), &defaults.column),
            ("resolved", &None)
        );
        assert_eq!(
            defaults.to_string(),
            "threshold 0.75, budget 100, mode auto, truth-method majority, name 'resolved'"
        );
        // Spelling out a default is the same run, but remembered as given.
        let given = parse(&[("threshold", "0.75")], false).unwrap();
        assert!(given.threshold_given);
        assert_eq!(given, defaults);
        let interactive = parse(&[("mode", "interactive")], true).unwrap();
        assert!(interactive.interactive);
        assert_eq!(interactive.mode_name(), "interactive");
        assert_ne!(interactive, defaults);
        let mode_only = parse(&[("mode", "approve-all")], false).unwrap();
        assert_ne!(mode_only, defaults);
        assert!(mode_only.to_string().contains("mode approve-all"));

        for (key, value, allow_interactive, message) in [
            (
                "threshold",
                "7",
                false,
                "threshold must be between 0 and 1, got 7",
            ),
            (
                "threshold",
                "x",
                false,
                "threshold expects a number, got 'x'",
            ),
            (
                "threshold",
                "NaN",
                false,
                "threshold must be between 0 and 1, got NaN",
            ),
            (
                "budget",
                "1.5",
                false,
                "budget expects an integer, got '1.5'",
            ),
            (
                "mode",
                "psychic",
                true,
                "unknown mode 'psychic'; expected auto, approve-all or interactive",
            ),
            (
                "mode",
                "interactive",
                false,
                "unknown mode 'interactive'; expected auto or approve-all",
            ),
            (
                "truth-method",
                "vote",
                false,
                "unknown truth method 'vote'; expected majority or reliability",
            ),
        ] {
            assert_eq!(
                parse(&[(key, value)], allow_interactive),
                Err(message.to_string()),
                "{key}={value}"
            );
        }

        let columns = vec!["Name".to_string(), "Address".to_string()];
        assert_eq!(defaults.columns(&columns), Ok(vec![0, 1]));
        let one = parse(&[("column", "Address")], false).unwrap();
        assert_eq!(one.columns(&columns), Ok(vec![1]));
        let unknown = parse(&[("column", "Phone")], false).unwrap();
        assert_eq!(
            unknown.columns(&columns),
            Err("no column 'Phone'; available columns: Name, Address".to_string())
        );
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
