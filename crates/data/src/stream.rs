//! Record-at-a-time dataset I/O: the [`RecordStream`] / [`DatasetSink`]
//! abstractions and their CSV implementations.
//!
//! The whole-document functions in [`crate::io`] parse an in-memory string
//! into an in-memory [`Dataset`]; nothing about that survives contact with
//! files larger than RAM. This module is the streaming counterpart:
//!
//! * [`FlatCsvReader`] — an incremental reader of **flat record CSV**
//!   (`source,<attributes...>`), yielding one [`FlatRecord`] at a time;
//! * [`ClusteredCsvReader`] — an incremental reader of **clustered CSV**
//!   (`cluster,source,<attr>...,[<attr>__truth]...`), yielding one
//!   [`ClusteredRow`] at a time (or collecting into a [`Dataset`]);
//! * [`ClusteredCsvWriter`] — a buffered, cluster-at-a-time clustered-CSV
//!   writer;
//! * the [`RecordStream`] trait, so consumers (the resolver's streaming entry
//!   point, the fused pipeline) are agnostic to whether records come from a
//!   file, a socket, an in-memory vector ([`VecRecordStream`]) or a dataset's
//!   own rows ([`DatasetRecords`]);
//! * the [`DatasetSink`] trait, the write-side dual: clusters can be streamed
//!   to a CSV file ([`ClusteredCsvWriter`]) or collected in memory
//!   ([`Dataset`] itself implements the trait).
//!
//! All readers carry [`crate::io::DatasetIoError`] (which wraps
//! [`crate::csv::CsvError`]) through unchanged, so error handling is the same
//! whether a caller parses incrementally or whole-document.

use crate::csv::{CsvReader, CsvWriter};
use crate::io::DatasetIoError;
use crate::model::{majority_golden, Cell, Cluster, Dataset, Row};
use std::collections::HashMap;
use std::io::{Read, Write};

/// One flat (unclustered) input record — what the readers yield and the
/// resolver clusters (`ec_resolution::RawRecord` is this type).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlatRecord {
    /// The data source the record came from (kept through to the dataset so
    /// that source-reliability truth discovery can use it).
    pub source: usize,
    /// One value per attribute column.
    pub fields: Vec<String>,
}

impl FlatRecord {
    /// Creates a record from anything iterable over string-likes.
    pub fn new<I, S>(source: usize, fields: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        FlatRecord {
            source,
            fields: fields.into_iter().map(Into::into).collect(),
        }
    }
}

impl AsRef<[String]> for FlatRecord {
    /// The field slice — lets blocking run directly over borrowed records
    /// instead of cloning every field vector.
    fn as_ref(&self) -> &[String] {
        &self.fields
    }
}

/// A pull-based stream of flat records with a known column schema.
pub trait RecordStream {
    /// The attribute column names (excluding `source`).
    fn columns(&self) -> &[String];

    /// The next record, or `None` at end of stream. After an `Err` the stream
    /// is exhausted.
    fn next_record(&mut self) -> Option<Result<FlatRecord, DatasetIoError>>;

    /// Drains the stream into a vector (for callers that want the
    /// whole-document behavior back).
    fn collect_records(&mut self) -> Result<Vec<FlatRecord>, DatasetIoError> {
        let mut out = Vec::new();
        while let Some(record) = self.next_record() {
            out.push(record?);
        }
        Ok(out)
    }
}

/// An incremental reader of flat record CSV: a `source,<attributes...>`
/// header followed by one row per record. The header is parsed eagerly by
/// [`FlatCsvReader::new`]; rows are parsed on demand, so peak memory is one
/// record plus the underlying [`CsvReader`]'s chunk buffer.
pub struct FlatCsvReader<R: Read> {
    csv: CsvReader<R>,
    columns: Vec<String>,
    /// 1-based data-row number of the next record (for error reporting).
    row: usize,
}

impl<R: Read> FlatCsvReader<R> {
    /// Opens the stream and parses the header.
    pub fn new(input: R) -> Result<Self, DatasetIoError> {
        let mut csv = CsvReader::new(input);
        let header = match csv.next() {
            None => return Err(DatasetIoError::BadHeader("empty input".to_string())),
            Some(header) => header?,
        };
        if header.len() < 2 || header[0] != "source" {
            return Err(DatasetIoError::BadHeader(
                "expected columns: source, <attributes...>".to_string(),
            ));
        }
        Ok(FlatCsvReader {
            csv,
            columns: header[1..].to_vec(),
            row: 0,
        })
    }
}

impl<R: Read> RecordStream for FlatCsvReader<R> {
    fn columns(&self) -> &[String] {
        &self.columns
    }

    fn next_record(&mut self) -> Option<Result<FlatRecord, DatasetIoError>> {
        let record = match self.csv.next()? {
            Ok(record) => record,
            Err(e) => return Some(Err(DatasetIoError::Csv(e))),
        };
        self.row += 1;
        let mut fields = record.into_iter();
        let source_text = fields.next().expect("records have at least two fields");
        let source: usize = match source_text.trim().parse() {
            Ok(source) => source,
            Err(_) => {
                return Some(Err(DatasetIoError::BadCell {
                    row: self.row,
                    message: format!("source '{source_text}' is not an integer"),
                }))
            }
        };
        Some(Ok(FlatRecord {
            source,
            fields: fields.collect(),
        }))
    }
}

/// An in-memory [`RecordStream`] over a vector of records — the adapter tests
/// and library callers use when the records are already materialized.
pub struct VecRecordStream {
    columns: Vec<String>,
    records: std::vec::IntoIter<FlatRecord>,
}

impl VecRecordStream {
    /// Creates a stream over `records` with the given column names.
    pub fn new(columns: Vec<String>, records: Vec<FlatRecord>) -> Self {
        VecRecordStream {
            columns,
            records: records.into_iter(),
        }
    }
}

impl RecordStream for VecRecordStream {
    fn columns(&self) -> &[String] {
        &self.columns
    }

    fn next_record(&mut self) -> Option<Result<FlatRecord, DatasetIoError>> {
        self.records.next().map(Ok)
    }
}

/// A [`RecordStream`] over a dataset's rows, cluster by cluster, yielding
/// each row's observed values — the records a flat CSV of the dataset holds,
/// without writing and re-parsing one.
pub struct DatasetRecords<'a> {
    columns: &'a [String],
    rows: Box<dyn Iterator<Item = &'a Row> + 'a>,
}

impl<'a> DatasetRecords<'a> {
    /// Streams the rows of `dataset` from the first cluster on.
    pub fn new(dataset: &'a Dataset) -> Self {
        DatasetRecords {
            columns: &dataset.columns,
            rows: Box::new(dataset.clusters.iter().flat_map(|c| &c.rows)),
        }
    }
}

impl RecordStream for DatasetRecords<'_> {
    fn columns(&self) -> &[String] {
        self.columns
    }

    fn next_record(&mut self) -> Option<Result<FlatRecord, DatasetIoError>> {
        let row = self.rows.next()?;
        let fields = row.cells.iter().map(|c| c.observed.clone()).collect();
        Some(Ok(FlatRecord {
            source: row.source,
            fields,
        }))
    }
}

/// One parsed row of a clustered CSV.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClusteredRow {
    /// The cluster id cell, verbatim (ids are arbitrary strings).
    pub cluster: String,
    /// The data source of the row.
    pub source: usize,
    /// One observed/truth cell per attribute column.
    pub cells: Vec<Cell>,
}

/// An incremental reader of clustered CSV (`cluster,source,<attr>...,`
/// optionally followed by one `<attr>__truth` column per attribute). The
/// header is parsed eagerly; rows are parsed on demand.
pub struct ClusteredCsvReader<R: Read> {
    csv: CsvReader<R>,
    columns: Vec<String>,
    /// Record index of each observed attribute column.
    observed_index: Vec<usize>,
    /// Record index of each attribute's `__truth` column, when present.
    truth_index: Vec<Option<usize>>,
    has_truth: bool,
    /// 1-based data-row number of the next row (for error reporting).
    row: usize,
}

impl<R: Read> ClusteredCsvReader<R> {
    /// Opens the stream and parses the header.
    pub fn new(input: R) -> Result<Self, DatasetIoError> {
        let mut csv = CsvReader::new(input);
        let header = match csv.next() {
            None => return Err(DatasetIoError::BadHeader("empty input".to_string())),
            Some(header) => header?,
        };
        if header.len() < 3 || header[0] != "cluster" || header[1] != "source" {
            return Err(DatasetIoError::BadHeader(
                "expected columns: cluster, source, <attributes...>".to_string(),
            ));
        }
        let attribute_headers = &header[2..];
        let mut columns = Vec::new();
        let mut observed_index = Vec::new();
        let mut truth_positions: HashMap<&str, usize> = HashMap::new();
        for (i, h) in attribute_headers.iter().enumerate() {
            if let Some(attr) = h.strip_suffix("__truth") {
                truth_positions.insert(attr, i + 2);
            } else {
                columns.push(h.clone());
                observed_index.push(i + 2);
            }
        }
        let truth_index: Vec<Option<usize>> = columns
            .iter()
            .map(|col| truth_positions.get(col.as_str()).copied())
            .collect();
        let has_truth = truth_index.iter().any(Option::is_some);
        Ok(ClusteredCsvReader {
            csv,
            columns,
            observed_index,
            truth_index,
            has_truth,
            row: 0,
        })
    }

    /// The observed attribute column names.
    pub fn columns(&self) -> &[String] {
        &self.columns
    }

    /// Whether the header declared any `<attr>__truth` column.
    pub fn has_truth_columns(&self) -> bool {
        self.has_truth
    }

    /// The next row, or `None` at end of stream.
    pub fn next_row(&mut self) -> Option<Result<ClusteredRow, DatasetIoError>> {
        let record = match self.csv.next()? {
            Ok(record) => record,
            Err(e) => return Some(Err(DatasetIoError::Csv(e))),
        };
        self.row += 1;
        let source: usize = match record[1].trim().parse() {
            Ok(source) => source,
            Err(_) => {
                return Some(Err(DatasetIoError::BadCell {
                    row: self.row,
                    message: format!("source '{}' is not an integer", record[1]),
                }))
            }
        };
        let cells: Vec<Cell> = self
            .observed_index
            .iter()
            .zip(&self.truth_index)
            .map(|(&obs_idx, truth_idx)| {
                let observed = record[obs_idx].clone();
                let truth = truth_idx
                    .map(|t| record[t].clone())
                    .unwrap_or_else(|| observed.clone());
                Cell { observed, truth }
            })
            .collect();
        Some(Ok(ClusteredRow {
            cluster: record[0].trim().to_string(),
            source,
            cells,
        }))
    }

    /// Drains the stream into a [`Dataset`]. Clusters appear in order of first
    /// appearance of their id (so a dataset written by
    /// [`crate::io::dataset_to_csv`] round trips with its cluster order
    /// intact); each cluster's golden record is the per-column majority of its
    /// rows' truth values.
    pub fn into_dataset(mut self, name: &str) -> Result<Dataset, DatasetIoError> {
        let mut cluster_ids: HashMap<String, usize> = HashMap::new();
        let mut cluster_rows: Vec<Vec<Row>> = Vec::new();
        while let Some(row) = self.next_row() {
            let row = row?;
            let next_id = cluster_rows.len();
            let &mut idx = cluster_ids.entry(row.cluster).or_insert(next_id);
            if idx == cluster_rows.len() {
                cluster_rows.push(Vec::new());
            }
            cluster_rows[idx].push(Row {
                source: row.source,
                cells: row.cells,
            });
        }
        let num_columns = self.columns.len();
        let mut dataset = Dataset::new(name, self.columns);
        for rows in cluster_rows {
            let golden = majority_golden(&rows, num_columns);
            dataset.clusters.push(Cluster { rows, golden });
        }
        Ok(dataset)
    }
}

/// A consumer of clustered data, one cluster at a time — the write-side dual
/// of [`RecordStream`].
pub trait DatasetSink {
    /// Consumes one cluster.
    fn write_cluster(&mut self, cluster: &Cluster) -> std::io::Result<()>;

    /// Finishes the sink (flushes buffered output). The default does nothing.
    fn finish(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// Collecting sink: appends the clusters to an in-memory dataset.
impl DatasetSink for Dataset {
    fn write_cluster(&mut self, cluster: &Cluster) -> std::io::Result<()> {
        self.clusters.push(cluster.clone());
        Ok(())
    }
}

/// A cluster-at-a-time clustered-CSV writer: the header (including the
/// `__truth` columns) is written at construction, each
/// [`ClusteredCsvWriter::write_cluster`] call appends that cluster's rows with
/// the next sequential cluster id, and nothing is buffered beyond the record
/// being assembled.
pub struct ClusteredCsvWriter<W: Write> {
    csv: CsvWriter<W>,
    next_cluster_id: usize,
}

impl<W: Write> ClusteredCsvWriter<W> {
    /// Creates the writer and emits the header row.
    pub fn new(out: W, columns: &[String]) -> std::io::Result<Self> {
        let mut csv = CsvWriter::new(out);
        let mut header = vec!["cluster".to_string(), "source".to_string()];
        header.extend(columns.iter().cloned());
        header.extend(columns.iter().map(|col| format!("{col}__truth")));
        csv.write_record(&header)?;
        Ok(ClusteredCsvWriter {
            csv,
            next_cluster_id: 0,
        })
    }

    /// Consumes the writer, returning the destination.
    pub fn into_inner(self) -> W {
        self.csv.into_inner()
    }

    /// Streams all of `dataset` into `out`, cluster-at-a-time, and flushes
    /// it — the one clustered-CSV serialization every entry point writes.
    pub fn write_dataset(out: W, dataset: &Dataset) -> std::io::Result<()> {
        let mut csv = ClusteredCsvWriter::new(out, &dataset.columns)?;
        for cluster in &dataset.clusters {
            csv.write_cluster(cluster)?;
        }
        csv.finish()
    }
}

impl<W: Write> DatasetSink for ClusteredCsvWriter<W> {
    fn write_cluster(&mut self, cluster: &Cluster) -> std::io::Result<()> {
        let cluster_id = self.next_cluster_id.to_string();
        self.next_cluster_id += 1;
        for row in &cluster.rows {
            let fields = [cluster_id.as_str(), &row.source.to_string()]
                .map(str::to_string)
                .into_iter()
                .chain(row.cells.iter().map(|c| c.observed.clone()))
                .chain(row.cells.iter().map(|c| c.truth.clone()));
            self.csv.write_record(fields)?;
        }
        Ok(())
    }

    fn finish(&mut self) -> std::io::Result<()> {
        self.csv.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate::{GeneratorConfig, PaperDataset};
    use crate::io::{dataset_from_csv, dataset_to_csv, raw_records_from_csv};

    #[test]
    fn flat_reader_streams_records_and_agrees_with_the_adapter() {
        let text = "source,Name,Address\n0,Mary Lee,\"9 St, 02141 WI\"\n1,M. Lee,9th St\n";
        let mut stream = FlatCsvReader::new(text.as_bytes()).unwrap();
        assert_eq!(stream.columns(), ["Name", "Address"]);
        let records = stream.collect_records().unwrap();
        assert_eq!(records.len(), 2);
        assert_eq!(records[0].source, 0);
        assert_eq!(records[0].fields[1], "9 St, 02141 WI");

        let (columns, raw) = raw_records_from_csv(text).unwrap();
        assert_eq!(columns, ["Name", "Address"]);
        let from_adapter: Vec<FlatRecord> = raw
            .into_iter()
            .map(|(source, fields)| FlatRecord { source, fields })
            .collect();
        assert_eq!(records, from_adapter);
    }

    #[test]
    fn flat_reader_rejects_bad_headers_and_sources() {
        assert!(matches!(
            FlatCsvReader::new("".as_bytes()),
            Err(DatasetIoError::BadHeader(_))
        ));
        assert!(matches!(
            FlatCsvReader::new("name\nx\n".as_bytes()),
            Err(DatasetIoError::BadHeader(_))
        ));
        let mut stream = FlatCsvReader::new("source,Name\nnotanumber,X\n".as_bytes()).unwrap();
        assert!(matches!(
            stream.next_record(),
            Some(Err(DatasetIoError::BadCell { row: 1, .. }))
        ));
    }

    #[test]
    fn clustered_reader_detects_truth_columns() {
        let with = "cluster,source,Name,Name__truth\n0,0,M. Lee,Mary Lee\n";
        let reader = ClusteredCsvReader::new(with.as_bytes()).unwrap();
        assert!(reader.has_truth_columns());
        assert_eq!(reader.columns(), ["Name"]);

        let without = "cluster,source,Name\n0,0,M. Lee\n";
        let reader = ClusteredCsvReader::new(without.as_bytes()).unwrap();
        assert!(!reader.has_truth_columns());
    }

    #[test]
    fn clustered_reader_round_trips_a_generated_dataset_in_order() {
        let original = PaperDataset::Address.generate(&GeneratorConfig {
            num_clusters: 12,
            seed: 3,
            num_sources: 3,
        });
        let text = dataset_to_csv(&original);
        let parsed = ClusteredCsvReader::new(text.as_bytes())
            .unwrap()
            .into_dataset(&original.name)
            .unwrap();
        // First-appearance cluster ordering makes the row round trip exact
        // (not just set-equal); goldens are re-derived as majority truths.
        assert_eq!(parsed.columns, original.columns);
        assert_eq!(parsed.clusters.len(), original.clusters.len());
        for (p, o) in parsed.clusters.iter().zip(&original.clusters) {
            assert_eq!(p.rows, o.rows);
            assert_eq!(p.golden, majority_golden(&o.rows, original.columns.len()));
        }
        // And the whole-document adapter agrees.
        assert_eq!(parsed, dataset_from_csv(&original.name, &text).unwrap());
    }

    #[test]
    fn clustered_writer_matches_the_whole_document_adapter() {
        let dataset = PaperDataset::JournalTitle.generate(&GeneratorConfig {
            num_clusters: 8,
            seed: 5,
            num_sources: 3,
        });
        let mut sink = ClusteredCsvWriter::new(Vec::new(), &dataset.columns).unwrap();
        for cluster in &dataset.clusters {
            sink.write_cluster(cluster).unwrap();
        }
        sink.finish().unwrap();
        let streamed = String::from_utf8(sink.into_inner()).unwrap();
        assert_eq!(streamed, dataset_to_csv(&dataset));
    }

    #[test]
    fn dataset_is_a_collecting_sink() {
        let source = PaperDataset::Address.generate(&GeneratorConfig {
            num_clusters: 4,
            seed: 1,
            num_sources: 2,
        });
        let mut collected = Dataset::new(source.name.clone(), source.columns.clone());
        for cluster in &source.clusters {
            collected.write_cluster(cluster).unwrap();
        }
        collected.finish().unwrap();
        assert_eq!(collected, source);
    }

    #[test]
    fn vec_record_stream_yields_everything() {
        let mut stream = VecRecordStream::new(
            vec!["Name".to_string()],
            vec![
                FlatRecord {
                    source: 0,
                    fields: vec!["a".to_string()],
                },
                FlatRecord {
                    source: 1,
                    fields: vec!["b".to_string()],
                },
            ],
        );
        assert_eq!(stream.columns(), ["Name"]);
        assert_eq!(stream.collect_records().unwrap().len(), 2);
        assert!(stream.next_record().is_none());
    }
}
