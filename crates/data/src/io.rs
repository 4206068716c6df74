//! Loading and saving clustered datasets as delimited text.
//!
//! Two formats are supported:
//!
//! * **clustered CSV** — one row per record with a `cluster` id column, a
//!   `source` column, then one observed-value column per attribute and
//!   (optionally) one `<attribute>__truth` column per attribute. This is the
//!   format [`dataset_to_csv`] writes and [`dataset_from_csv`] reads; it round
//!   trips losslessly (ground-truth golden values are re-derived as the
//!   majority truth of the cluster, which is how the generators define them).
//! * **flat record CSV** — one row per unclustered record: a `source` column
//!   followed by attribute columns. [`raw_records_from_csv`] reads it; the
//!   `ec-resolution` crate turns such records into clusters.
//!
//! Every function here is a thin whole-document adapter over the incremental
//! readers and writers in [`crate::stream`]; callers with large inputs should
//! use [`crate::stream::ClusteredCsvReader`] / [`crate::stream::FlatCsvReader`]
//! directly and never materialize the document.

use crate::csv::CsvError;
use crate::model::Dataset;
use crate::stream::{ClusteredCsvReader, ClusteredCsvWriter, FlatCsvReader};
use std::fmt;

/// An error produced while reading a dataset from CSV.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DatasetIoError {
    /// The underlying CSV text failed to parse (or the reader failed).
    Csv(CsvError),
    /// The header was missing or lacked required columns.
    BadHeader(String),
    /// A cell failed to parse (e.g. a non-numeric cluster id).
    BadCell {
        /// 1-based data-row number (excluding the header).
        row: usize,
        /// Explanation of the failure.
        message: String,
    },
}

impl fmt::Display for DatasetIoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DatasetIoError::Csv(e) => write!(f, "csv error: {e}"),
            DatasetIoError::BadHeader(msg) => write!(f, "bad header: {msg}"),
            DatasetIoError::BadCell { row, message } => write!(f, "row {row}: {message}"),
        }
    }
}

impl std::error::Error for DatasetIoError {}

impl From<CsvError> for DatasetIoError {
    fn from(e: CsvError) -> Self {
        DatasetIoError::Csv(e)
    }
}

/// Serializes a dataset to clustered CSV, including the `__truth` columns so
/// that evaluation-ready datasets round trip.
pub fn dataset_to_csv(dataset: &Dataset) -> String {
    let mut out = Vec::new();
    ClusteredCsvWriter::write_dataset(&mut out, dataset).expect("writing to a Vec cannot fail");
    String::from_utf8(out).expect("CSV output is valid UTF-8")
}

/// Parses a clustered-CSV dataset produced by [`dataset_to_csv`] (or authored
/// by hand). The `__truth` columns are optional; when absent each cell's truth
/// is set to its observed value. Clusters appear in order of first appearance
/// of their id, and cluster golden records are the per-column majority of
/// truths within the cluster.
pub fn dataset_from_csv(name: &str, text: &str) -> Result<Dataset, DatasetIoError> {
    ClusteredCsvReader::new(text.as_bytes())?.into_dataset(name)
}

/// Attribute column names plus one `(source, fields)` entry per flat record —
/// the shape `ec-resolution`'s `RawRecord` construction expects.
pub type RawRecords = (Vec<String>, Vec<(usize, Vec<String>)>);

/// Parses flat, unclustered records: a header of `source,<attributes...>`
/// followed by one row per record.
pub fn raw_records_from_csv(text: &str) -> Result<RawRecords, DatasetIoError> {
    use crate::stream::RecordStream;
    let mut stream = FlatCsvReader::new(text.as_bytes())?;
    let columns = stream.columns().to_vec();
    let records = stream
        .collect_records()?
        .into_iter()
        .map(|r| (r.source, r.fields))
        .collect();
    Ok((columns, records))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate::{GeneratorConfig, PaperDataset};

    fn small_dataset() -> Dataset {
        PaperDataset::Address.generate(&GeneratorConfig {
            num_clusters: 12,
            seed: 3,
            num_sources: 3,
        })
    }

    #[test]
    fn dataset_round_trips_through_csv() {
        let original = small_dataset();
        let text = dataset_to_csv(&original);
        let parsed = dataset_from_csv(&original.name, &text).unwrap();
        // First-appearance cluster ordering makes the row round trip exact
        // (goldens are re-derived as majority truths, which can differ from
        // the generator's latent canonical value in conflict-heavy clusters).
        assert_eq!(parsed.columns, original.columns);
        assert_eq!(parsed.clusters.len(), original.clusters.len());
        for (p, o) in parsed.clusters.iter().zip(&original.clusters) {
            assert_eq!(p.rows, o.rows);
        }
        // A second round trip is a perfect fixed point.
        let text2 = dataset_to_csv(&parsed);
        assert_eq!(text, text2);
        assert_eq!(
            dataset_from_csv("again", &text2).unwrap().clusters,
            parsed.clusters
        );
    }

    #[test]
    fn csv_without_truth_columns_defaults_truth_to_observed() {
        let text = "cluster,source,Name\n0,0,Mary Lee\n0,1,\"Lee, Mary\"\n1,0,James Smith\n";
        let dataset = dataset_from_csv("names", text).unwrap();
        assert_eq!(dataset.columns, vec!["Name"]);
        assert_eq!(dataset.clusters.len(), 2);
        for cluster in &dataset.clusters {
            for row in &cluster.rows {
                assert_eq!(row.cells[0].observed, row.cells[0].truth);
            }
        }
    }

    #[test]
    fn golden_records_are_majority_truths() {
        let text = "cluster,source,Name,Name__truth\n\
                    0,0,Mary Lee,Mary Lee\n\
                    0,1,M. Lee,Mary Lee\n\
                    0,2,Lee Mary,Lee Mary\n";
        let dataset = dataset_from_csv("names", text).unwrap();
        assert_eq!(dataset.clusters[0].golden[0], "Mary Lee");
    }

    #[test]
    fn clusters_preserve_first_appearance_order() {
        // Ids that would sort differently as strings ("10" < "9"
        // lexicographically) keep their order of first appearance instead.
        let text = "cluster,source,Name\n9,0,a\n10,0,b\n9,1,c\n2,0,d\n";
        let dataset = dataset_from_csv("order", text).unwrap();
        let firsts: Vec<&str> = dataset
            .clusters
            .iter()
            .map(|c| c.rows[0].cells[0].observed.as_str())
            .collect();
        assert_eq!(firsts, ["a", "b", "d"]);
        assert_eq!(dataset.clusters[0].rows.len(), 2, "9's rows merged");
    }

    #[test]
    fn bad_headers_are_rejected() {
        assert!(matches!(
            dataset_from_csv("x", ""),
            Err(DatasetIoError::BadHeader(_))
        ));
        assert!(matches!(
            dataset_from_csv("x", "a,b,c\n1,2,3\n"),
            Err(DatasetIoError::BadHeader(_))
        ));
    }

    #[test]
    fn bad_source_reports_the_row() {
        let text = "cluster,source,Name\n0,zero,Mary\n";
        let err = dataset_from_csv("x", text).unwrap_err();
        match err {
            DatasetIoError::BadCell { row, .. } => assert_eq!(row, 1),
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn csv_parse_errors_propagate() {
        let text = "cluster,source,Name\n0,0,\"open\n";
        assert!(matches!(
            dataset_from_csv("x", text),
            Err(DatasetIoError::Csv(_))
        ));
    }

    #[test]
    fn raw_records_parse() {
        let text = "source,Name,Address\n0,Mary Lee,\"9 St, 02141 WI\"\n1,M. Lee,9th St\n";
        let (columns, records) = raw_records_from_csv(text).unwrap();
        assert_eq!(columns, vec!["Name", "Address"]);
        assert_eq!(records.len(), 2);
        assert_eq!(records[0].0, 0);
        assert_eq!(records[0].1[1], "9 St, 02141 WI");
    }

    #[test]
    fn raw_records_reject_bad_headers_and_sources() {
        assert!(raw_records_from_csv("").is_err());
        assert!(raw_records_from_csv("name\nx\n").is_err());
        assert!(raw_records_from_csv("source,Name\nnotanumber,X\n").is_err());
    }
}
