//! # ec-data — clustered datasets with ground truth
//!
//! The paper evaluates on three real-world datasets (AuthorList, Address,
//! JournalTitle). Those raw dumps are not redistributable, so this crate
//! provides (a) the clustered-table data model the rest of the workspace works
//! on and (b) three seeded synthetic generators that reproduce the *shape* of
//! the paper's datasets — the transformation families shown in Table 4 and
//! Figure 2, the variant/conflict pair ratios and cluster-size profiles of
//! Table 6 — together with per-cell ground truth so that precision, recall,
//! MCC and golden-record precision can be computed exactly instead of by
//! manual labelling.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod csv;
pub mod generate;
pub mod io;
pub mod model;
pub mod stream;

pub use generate::{address, author_list, journal_title, GeneratorConfig, PaperDataset};
pub use io::{dataset_from_csv, dataset_to_csv, raw_records_from_csv, DatasetIoError, RawRecords};
pub use model::{majority_golden, Cell, Cluster, Dataset, DatasetStats, LabeledPair, Row};
pub use stream::{
    ClusteredCsvReader, ClusteredCsvWriter, ClusteredRow, DatasetRecords, DatasetSink,
    FlatCsvReader, FlatRecord, RecordStream, VecRecordStream,
};
