//! # entity-consolidation
//!
//! A from-scratch Rust reproduction of **"Unsupervised String Transformation
//! Learning for Entity Consolidation"** (Deng et al., ICDE 2019): golden-record
//! construction from clusters of duplicate records, driven by unsupervised
//! learning of string transformation programs that a human verifies in bulk.
//!
//! The workspace is organised as one crate per subsystem; this facade crate
//! re-exports the public API so that applications only need a single
//! dependency.
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`dsl`] | `ec-dsl` | the FlashFill-style transformation DSL with affix extensions |
//! | [`graph`] | `ec-graph` | transformation graphs, label interning, structure signatures |
//! | [`index`] | `ec-index` | the edge-label inverted index |
//! | [`grouping`] | `ec-grouping` | pivot-path search, one-shot and incremental grouping |
//! | [`replace`] | `ec-replace` | candidate generation and replacement application |
//! | [`resolution`] | `ec-resolution` | entity resolution: similarity, blocking, clustering of raw records |
//! | [`truth`] | `ec-truth` | majority-consensus and source-reliability truth discovery |
//! | [`data`] | `ec-data` | the clustered-dataset model and the three synthetic datasets |
//! | [`baselines`] | `ec-baselines` | the `Single` and Trifacta-style wrangler baselines |
//! | [`metrics`] | `ec-metrics` | precision / recall / MCC / golden-record precision |
//! | [`profile`] | `ec-profile` | dataset/column profiling and standardization priorities |
//! | [`report`] | `ec-report` | data series, ASCII charts, text/Markdown tables, gnuplot/CSV export |
//! | [`core`] | `ec-core` | the end-to-end pipeline with human-in-the-loop oracles |
//!
//! The workspace additionally ships the `ec` command-line tool (`ec-cli`) for
//! file-based use: `cargo run -p ec-cli --bin ec -- help`.
//!
//! ## Quickstart
//!
//! ```
//! use entity_consolidation::prelude::*;
//!
//! // Generate a small Address-style dataset (clusters of duplicate records).
//! let mut dataset = PaperDataset::Address.generate(&GeneratorConfig {
//!     num_clusters: 15,
//!     seed: 42,
//!     num_sources: 4,
//! });
//!
//! // Standardize the address column with a simulated human reviewing groups,
//! // then build golden records with majority consensus.
//! let pipeline = Pipeline::new(ConsolidationConfig { budget: 25, ..Default::default() });
//! let mut oracle = SimulatedOracle::for_column(&dataset, 0, 7);
//! let report = pipeline.golden_records(&mut dataset, &mut oracle, TruthMethod::MajorityConsensus);
//! assert_eq!(report.golden_records.len(), dataset.clusters.len());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use ec_baselines as baselines;
pub use ec_core as core;
pub use ec_data as data;
pub use ec_dsl as dsl;
pub use ec_graph as graph;
pub use ec_grouping as grouping;
pub use ec_index as index;
pub use ec_metrics as metrics;
pub use ec_obs as obs;
pub use ec_profile as profile;
pub use ec_replace as replace;
pub use ec_report as report;
pub use ec_resolution as resolution;
pub use ec_serve as serve;
pub use ec_truth as truth;

/// The most commonly used items, re-exported flat.
pub mod prelude {
    pub use ec_core::{
        standardize_columns, write_golden_records_csv, ApproveAllOracle, AutoMode, BatchReport,
        ColumnReport, ConsolidationConfig, DeltaPipeline, GoldenRecordReport, Oracle, Pipeline,
        ProgramLibrary, RejectAllOracle, ScriptedOracle, SimulatedOracle, TruthMethod, Verdict,
    };
    pub use ec_data::{
        Dataset, DatasetStats, FlatCsvReader, FlatRecord, GeneratorConfig, LabeledPair,
        PaperDataset, RecordStream, VecRecordStream,
    };
    pub use ec_dsl::{Dir, PositionFn, Program, StrCtx, StringFn, Term};
    pub use ec_graph::{GraphBuilder, GraphConfig, Replacement};
    pub use ec_grouping::{
        Group, GroupingConfig, IncrementalGrouper, OneShotGrouper, Parallelism, StructuredGrouper,
    };
    pub use ec_metrics::{evaluate_standardization, golden_record_precision, ConfusionCounts};
    pub use ec_replace::{generate_candidates, CandidateConfig, Direction, ReplacementEngine};
    pub use ec_resolution::{
        DeltaResolver, RawRecord, Resolver, ResolverConfig, SimilarityMeasure,
    };
    pub use ec_truth::{majority_consensus, reliability_truth_discovery};
}
