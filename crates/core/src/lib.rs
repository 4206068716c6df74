//! # ec-core — the entity-consolidation framework
//!
//! This crate ties the workspace together into the pipeline of Algorithm 1
//! (`GoldenRecordCreation`):
//!
//! 1. for every column, generate candidate replacements from the clusters
//!    (`ec-replace`);
//! 2. group them with the unsupervised, incremental transformation learner
//!    (`ec-grouping`);
//! 3. present the groups, largest first, to an [`Oracle`] (a human in the
//!    paper; simulated against ground truth here) until the budget is
//!    exhausted, applying every approved group (`ec-replace`);
//! 4. run truth discovery on the standardized clusters (`ec-truth`) to emit
//!    one golden record per cluster.
//!
//! Steps 1–3 exist once: [`Pipeline::standardize_column_traced`] is the
//! review loop, and [`standardize_columns_with`] is the multi-column driver
//! (oracle choice via an [`OracleSource`], library recording) every entry
//! point runs. A column reaches that loop freshly generated, reassembled from
//! a [`CompiledDataset`] (`ec compile` artifacts), or replayed from a
//! [`DeltaPipeline`]'s cache (`POST /ingest`'s incremental ingest); flat
//! records are resolved into clusters beforehand with
//! `ec_resolution::Resolver::resolve_stream`.
//!
//! ```
//! use ec_core::{ConsolidationConfig, Pipeline, SimulatedOracle, TruthMethod};
//! use ec_data::{GeneratorConfig, PaperDataset};
//!
//! let mut dataset = PaperDataset::Address.generate(&GeneratorConfig {
//!     num_clusters: 20,
//!     seed: 7,
//!     num_sources: 4,
//! });
//! let config = ConsolidationConfig { budget: 20, ..ConsolidationConfig::default() };
//! let mut oracle = SimulatedOracle::for_column(&dataset, 0, 1234);
//! let report = Pipeline::new(config).golden_records(&mut dataset, &mut oracle, TruthMethod::MajorityConsensus);
//! assert_eq!(report.golden_records.len(), dataset.clusters.len());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod compiled;
pub mod consolidate;
pub mod delta;
pub mod library;
pub mod oracle;
pub mod pipeline;

pub use compiled::{compile_dataset, CompiledColumn, CompiledDataset, CompiledPartition};
pub use consolidate::{
    resolve_column_spec, standardize_columns, standardize_columns_with, write_golden_records_csv,
    AutoMode, AutoReview, OracleSource, RunOptions,
};
pub use delta::{BatchReport, DeltaPipeline};
pub use library::{
    ApplyError, ApplyReport, ApprovedGroup, LearnedProgram, LibraryApplier, LibraryError,
    ProgramLibrary, ValueOutcome,
};
pub use oracle::{
    ApproveAllOracle, Oracle, RejectAllOracle, ScriptedOracle, SimulatedOracle, Verdict,
};
pub use pipeline::{ColumnReport, ConsolidationConfig, GoldenRecordReport, Pipeline, TruthMethod};

pub use ec_data as data;
pub use ec_grouping::{Group, GroupingConfig, Parallelism, StructuredGrouper};
pub use ec_replace::Direction;
