//! The `ec` subcommands.
//!
//! Every function takes the already-parsed arguments plus a reader over the
//! input (commands parse it incrementally through the `ec-data` streaming
//! readers, never materializing the document) and, for commands that write
//! files, the output opener they stream results through cluster-at-a-time.
//! Each returns a [`CommandOutput`]; nothing here touches the file system or
//! the terminal directly (interactive review writes prompts through the
//! writer handed in by the caller).

use crate::args::ParsedArgs;
use crate::interactive::InteractiveOracle;
use crate::{CliError, CommandOutput, OpenInput, OpenOutput, OutputSink};
use ec_core::{
    compile_dataset, resolve_column_spec, standardize_columns_with, write_golden_records_csv,
    ApplyError, AutoReview, CompiledDataset, ConsolidationConfig, Oracle, OracleSource, Pipeline,
    ProgramLibrary, RunOptions,
};
use ec_data::csv::CsvWriter;
use ec_data::{
    ClusteredCsvReader, ClusteredCsvWriter, Dataset, DatasetRecords, FlatCsvReader,
    GeneratorConfig, PaperDataset, RecordStream,
};
use ec_grouping::{GroupingConfig, Parallelism, StructuredGrouper};
use ec_profile::{prioritize_columns, render_dataset_profile, render_priorities, DatasetProfile};
use ec_replace::{generate_candidates, CandidateConfig};
use ec_report::table::fmt_f64;
use ec_report::TextTable;
use ec_serve::{Router, RouterConfig, ServeConfig, Server};
use std::io::{BufRead, Read, Write};

/// Maps a write failure on `path` to a [`CliError::Io`].
fn write_failed(path: &str) -> impl Fn(std::io::Error) -> CliError + '_ {
    move |e| CliError::Io(format!("failed to write {path}: {e}"))
}

/// Parses the run knobs (`--threshold`, `--budget`, `--mode`,
/// `--truth-method`, `--name`, `--column`) with the defaults and checks every
/// entry point shares; a bad value is a usage error.
fn run_options(parsed: &ParsedArgs, allow_interactive: bool) -> Result<RunOptions, CliError> {
    RunOptions::parse(|key| parsed.get(key), allow_interactive).map_err(CliError::Usage)
}

/// The `--output`, `--golden` and `--save-library` files of `consolidate`,
/// `pipeline` and `ingest`, each paired with its path.
struct Sinks<'p> {
    output: Option<(&'p str, OutputSink)>,
    golden: Option<(&'p str, OutputSink)>,
    library: Option<(&'p str, OutputSink)>,
}

impl<'p> Sinks<'p> {
    /// Opens the requested files. Commands call it before any work runs (and
    /// before any file is truncated): a bad path must fail the command while
    /// pre-existing output files are still intact.
    fn open(parsed: &'p ParsedArgs, open_output: OpenOutput<'_>) -> Result<Self, CliError> {
        let open = |flag: &str| {
            parsed
                .get(flag)
                .map(|path| Ok::<_, CliError>((path, open_output(path)?)))
                .transpose()
        };
        Ok(Sinks {
            output: open("output")?,
            golden: open("golden")?,
            library: open("save-library")?,
        })
    }

    /// Streams the standardized dataset, its golden records and the library
    /// snapshot into the files that were opened, noting each path — and the
    /// number of saved programs — in `output`.
    fn write(
        self,
        mut output: CommandOutput,
        standardized: &Dataset,
        golden: &[Vec<Option<String>>],
        library: Option<&ProgramLibrary>,
    ) -> Result<CommandOutput, CliError> {
        if let Some((path, mut sink)) = self.output {
            stream_clustered_csv(standardized, &mut sink).map_err(write_failed(path))?;
            output = output.note_written(path);
        }
        if let Some((path, mut sink)) = self.golden {
            write_golden_records_csv(&standardized.columns, golden, &mut sink)
                .and_then(|()| sink.flush())
                .map_err(write_failed(path))?;
            output = output.note_written(path);
        }
        if let Some((path, mut sink)) = self.library {
            let library = library.expect("a library accumulates when --save-library is set");
            sink.write_all(library.to_snapshot().as_bytes())
                .and_then(|()| sink.flush())
                .map_err(write_failed(path))?;
            output.stdout.push_str(&format!(
                "saved {} learned programs to the library\n",
                library.len()
            ));
            output = output.note_written(path);
        }
        Ok(output)
    }
}

/// Streams a dataset as clustered CSV, cluster-at-a-time.
fn stream_clustered_csv(dataset: &Dataset, out: &mut dyn Write) -> std::io::Result<()> {
    ClusteredCsvWriter::write_dataset(out, dataset)
}

/// Streams a dataset's rows as flat record CSV (`source,<attributes...>`,
/// cluster structure and ground truth dropped) — the input format of
/// `ec resolve` and `ec pipeline`.
fn stream_flat_csv(dataset: &Dataset, out: &mut dyn Write) -> std::io::Result<()> {
    let mut writer = CsvWriter::new(&mut *out);
    let header = std::iter::once("source").chain(dataset.columns.iter().map(String::as_str));
    writer.write_record(header)?;
    for cluster in &dataset.clusters {
        for row in &cluster.rows {
            let fields = std::iter::once(row.source.to_string())
                .chain(row.cells.iter().map(|c| c.observed.clone()));
            writer.write_record(fields)?;
        }
    }
    writer.flush()?;
    out.flush()
}

/// Renders a dataset to an in-memory string with one of the streaming
/// writers (the stdout path when no `--output` file was requested).
fn csv_string(
    dataset: &Dataset,
    write: impl Fn(&Dataset, &mut dyn Write) -> std::io::Result<()>,
) -> String {
    let mut buffer = Vec::new();
    write(dataset, &mut buffer).expect("writing to a Vec cannot fail");
    String::from_utf8(buffer).expect("CSV output is valid UTF-8")
}

/// `ec generate`: produce one of the paper's synthetic datasets as clustered
/// CSV (streamed to a file with `--output`, otherwise to stdout).
pub fn generate(
    parsed: &ParsedArgs,
    open_output: OpenOutput<'_>,
) -> Result<CommandOutput, CliError> {
    let which = match parsed
        .get("dataset")
        .unwrap_or("address")
        .to_ascii_lowercase()
        .as_str()
    {
        "authorlist" | "author-list" | "authors" => PaperDataset::AuthorList,
        "address" | "addresses" => PaperDataset::Address,
        "journaltitle" | "journal-title" | "journals" => PaperDataset::JournalTitle,
        other => {
            return Err(CliError::Usage(format!(
                "unknown dataset '{other}'; expected authorlist, address, or journaltitle"
            )))
        }
    };
    let defaults = which.default_config();
    let config = GeneratorConfig {
        num_clusters: parsed.get_usize("clusters", defaults.num_clusters)?,
        seed: parsed.get_u64("seed", defaults.seed)?,
        num_sources: parsed.get_usize("sources", defaults.num_sources)?,
    };
    let dataset = which.generate(&config);
    let flat = parsed.has("flat");
    let writer = if flat {
        stream_flat_csv
    } else {
        stream_clustered_csv
    };
    let stats = dataset.stats(0);
    let summary = format!(
        "generated {} as {} ({} clusters, {} records, {} distinct value pairs on column 0, seed {})\n",
        which.name(),
        if flat { "flat records" } else { "clustered CSV" },
        stats.num_clusters,
        stats.num_records,
        stats.distinct_value_pairs,
        config.seed,
    );
    match parsed.get("output") {
        Some(path) => {
            let mut sink = open_output(path)?;
            writer(&dataset, &mut sink).map_err(write_failed(path))?;
            Ok(CommandOutput::text(summary).note_written(path))
        }
        None => Ok(CommandOutput::text(csv_string(&dataset, writer))),
    }
}

/// Parses a clustered CSV from a reader, returning the dataset plus whether
/// the header declared `__truth` columns (which decides whether the `auto`
/// consolidation mode can use the simulated expert).
fn read_clustered(name: &str, input: impl Read) -> Result<(Dataset, bool), CliError> {
    let reader = ClusteredCsvReader::new(input)?;
    let has_truth = reader.has_truth_columns();
    Ok((reader.into_dataset(name)?, has_truth))
}

/// `ec profile`: per-column statistics plus the standardization priority
/// ranking of a clustered CSV.
pub fn profile(parsed: &ParsedArgs, input: impl Read) -> Result<CommandOutput, CliError> {
    let name = parsed.get("name").unwrap_or("input");
    let (dataset, _) = read_clustered(name, input)?;
    let profile = DatasetProfile::profile(&dataset);
    let mut out = render_dataset_profile(&profile);
    out.push_str("\nstandardization priority:\n");
    out.push_str(&render_priorities(&prioritize_columns(&profile)));
    Ok(CommandOutput::text(out))
}

/// `ec groups`: print the largest replacement groups of one column — a dry
/// run of what the human would be asked to confirm.
pub fn groups(parsed: &ParsedArgs, input: impl Read) -> Result<CommandOutput, CliError> {
    let (dataset, _) = read_clustered("input", input)?;
    let col = resolve_column_spec(&dataset.columns, parsed.require("column")?)
        .map_err(CliError::Usage)?;
    let top = parsed.get_usize("top", 10)?;

    let parallelism = Parallelism::from(parsed.get_usize("threads", 0)?);
    let mut config = GroupingConfig::default();
    config.max_path_len = parsed.get_usize("max-path-len", config.max_path_len)?;
    config.parallelism = parallelism;
    if parsed.has("no-affix") {
        config.graph.enable_affix = false;
    }
    if parsed.has("no-structure") {
        config.structure_refinement = false;
    }

    let candidate_config = CandidateConfig {
        parallelism,
        ..CandidateConfig::default()
    };
    let candidates = generate_candidates(&dataset.column_values(col), &candidate_config);
    let mut grouper = StructuredGrouper::new(&candidates.replacements, config);
    let mut out = format!(
        "column '{}': {} candidate replacements\n",
        dataset.columns[col],
        candidates.replacements.len()
    );
    let mut shown = 0usize;
    while shown < top {
        let Some(group) = grouper.next_group() else {
            break;
        };
        shown += 1;
        out.push_str(&format!("\n#{shown} — {} replacements", group.size()));
        if let Some(program) = group.program() {
            out.push_str(&format!("  (shared transformation: {program})"));
        }
        out.push('\n');
        for member in group.members().iter().take(6) {
            out.push_str(&format!("   {:?} -> {:?}\n", member.lhs(), member.rhs()));
        }
        if group.size() > 6 {
            out.push_str(&format!("   … and {} more\n", group.size() - 6));
        }
    }
    if shown == 0 {
        out.push_str("no groups (the column has no non-identical value pairs inside clusters)\n");
    }
    Ok(CommandOutput::text(out))
}

/// Loads a compiled artifact off the real file system — deliberately outside
/// the test-friendly opener indirection, because memory-mapping the file
/// *is* the point. Returns the compiled state plus whether it was mapped
/// (as opposed to read and decoded into fresh allocations).
fn load_artifact(path: &str) -> Result<(CompiledDataset, bool), CliError> {
    ec_artifact::read_artifact(std::path::Path::new(path))
        .map_err(|e| CliError::Data(format!("{path}: {e}")))
}

/// The startup line a loaded artifact prints: what was skipped and how the
/// bytes came in.
fn artifact_summary(path: &str, compiled: &CompiledDataset, mapped: bool) -> String {
    format!(
        "loaded compiled artifact {path} ({}): {} records in {} clusters, threshold {} — \
         parse, resolve, candidate generation and index build all skipped\n",
        if mapped {
            "memory-mapped"
        } else {
            "decoded into memory"
        },
        compiled.dataset.num_records(),
        compiled.dataset.clusters.len(),
        compiled.threshold,
    )
}

/// Resolves `--artifact` for `consolidate`/`pipeline`: `Ok(Some(...))` when
/// the artifact loaded, `Ok(None)` for a failed load that can fall back to
/// `--input` (a warning goes to `prompt_out`), `Err` when there is nothing
/// to fall back to. A given `--threshold` different from the artifact's is
/// refused — the clusters were formed at compile time.
fn resolve_artifact<'p>(
    parsed: &'p ParsedArgs,
    options: &RunOptions,
    prompt_out: &mut dyn Write,
) -> Result<Option<(&'p str, CompiledDataset, bool)>, CliError> {
    let Some(path) = parsed.get("artifact") else {
        return Ok(None);
    };
    match load_artifact(path) {
        Ok((compiled, mapped)) => {
            compiled
                .check_threshold(options)
                .map_err(|e| CliError::Usage(format!("{path} {e}")))?;
            Ok(Some((path, compiled, mapped)))
        }
        Err(e) if parsed.get("input").is_some() => {
            writeln!(
                prompt_out,
                "warning: cannot load artifact {path} ({e}); rebuilding from --input"
            )
            .map_err(|e| CliError::Io(e.to_string()))?;
            Ok(None)
        }
        Err(e) => Err(e),
    }
}

/// `ec consolidate`: standardize one or all columns under a budget and emit
/// the standardized dataset and its golden records.
pub fn consolidate(
    parsed: &ParsedArgs,
    input: impl Read,
    open_output: OpenOutput<'_>,
    stdin: &mut dyn BufRead,
    prompt_out: &mut dyn Write,
) -> Result<CommandOutput, CliError> {
    // The `__truth` columns are what the simulated expert judges against; when
    // they are absent the automatic mode falls back to approving everything
    // (an upper bound a user can then restrict interactively).
    let load = |_: &RunOptions, _| {
        let (dataset, has_truth) = read_clustered("input", input)?;
        Ok((dataset, has_truth, String::new()))
    };
    consolidate_with(parsed, load, open_output, stdin, prompt_out)
}

/// `--mode interactive`: per column, a header line on the prompt channel and
/// a fresh [`InteractiveOracle`] (so group numbering restarts per column).
/// The first failed header write is kept and fails the command afterwards.
struct InteractiveReview<'a> {
    stdin: &'a mut dyn BufRead,
    prompt_out: &'a mut dyn Write,
    error: Option<std::io::Error>,
}

impl OracleSource for InteractiveReview<'_> {
    fn oracle_for(&mut self, dataset: &Dataset, col: usize) -> Box<dyn Oracle + '_> {
        if let Err(e) = writeln!(
            self.prompt_out,
            "== reviewing groups of column '{}' ==",
            dataset.columns[col]
        ) {
            self.error.get_or_insert(e);
        }
        Box::new(InteractiveOracle::new(
            &mut *self.stdin,
            &mut *self.prompt_out,
        ))
    }
}

/// The shared consolidation driver behind `ec consolidate`, `ec pipeline`
/// and `ec ingest`. The dataset comes from a loaded `--artifact` — whose compiled
/// state is replayed, byte-identically, so candidate generation, grouping
/// preparation and index building are all skipped — or from `load`, which
/// also returns whether the dataset carries ground truth and the stdout
/// lines that describe the input. Then the requested columns are
/// standardized with the mode's oracle, truth discovery runs, the summary is
/// rendered and the `--output` / `--golden` / `--save-library` files are
/// written.
fn consolidate_with(
    parsed: &ParsedArgs,
    load: impl FnOnce(&RunOptions, Parallelism) -> Result<(Dataset, bool, String), CliError>,
    open_output: OpenOutput<'_>,
    stdin: &mut dyn BufRead,
    prompt_out: &mut dyn Write,
) -> Result<CommandOutput, CliError> {
    let options = run_options(parsed, true)?;
    let pipeline = Pipeline::new(options.consolidation(parsed.get_usize("threads", 0)?));
    let artifact = resolve_artifact(parsed, &options, prompt_out)?;
    let (mut dataset, has_truth, mut out) = match &artifact {
        Some((path, compiled, mapped)) => (
            compiled.dataset.clone(),
            compiled.has_truth,
            artifact_summary(path, compiled, *mapped),
        ),
        None => load(&options, pipeline.config().candidates.parallelism)?,
    };
    let compiled = artifact.as_ref().map(|(_, compiled, _)| compiled);
    let columns = options.columns(&dataset.columns).map_err(CliError::Usage)?;
    let sinks = Sinks::open(parsed, open_output)?;
    // `--save-library` persists the verification work of this run as a
    // learned-program snapshot (`ec apply` / `ec serve` re-use it).
    let mut library = sinks.library.as_ref().map(|_| ProgramLibrary::new());
    let mut interactive = None;
    let mut auto = None;
    let oracles: &mut dyn OracleSource = if options.interactive {
        interactive.insert(InteractiveReview {
            stdin,
            prompt_out,
            error: None,
        })
    } else {
        auto.insert(AutoReview::new(options.mode, has_truth))
    };
    let reports = standardize_columns_with(
        &pipeline,
        &mut dataset,
        compiled,
        &columns,
        oracles,
        library.as_mut(),
    );
    if let Some(error) = interactive.and_then(|review| review.error) {
        return Err(CliError::Io(error.to_string()));
    }

    let golden = pipeline.discover_golden_records(&dataset, options.truth);

    // Summary of the standardization work.
    let mut summary_table = TextTable::new([
        "column",
        "candidates",
        "groups reviewed",
        "approved",
        "cells updated",
        "truncated searches",
    ]);
    for report in &reports {
        summary_table.push_row([
            dataset.columns[report.column].clone(),
            report.candidates.to_string(),
            report.groups_reviewed.to_string(),
            report.groups_approved.to_string(),
            report.cells_updated.to_string(),
            report.searches_truncated.to_string(),
        ]);
    }
    out.push_str(&format!(
        "consolidated {} clusters / {} records with budget {} per column ({} mode)\n\n",
        dataset.clusters.len(),
        dataset.num_records(),
        options.budget,
        options.mode_name()
    ));
    out.push_str(&summary_table.to_plain_text());

    // Golden-record preview and the decided fraction.
    let decided: usize = golden
        .iter()
        .map(|g| g.iter().filter(|v| v.is_some()).count())
        .sum();
    let total = golden.len() * dataset.columns.len().max(1);
    out.push_str(&format!(
        "\ngolden records: {} of {} cluster-columns decided ({}%)\n",
        decided,
        total,
        fmt_f64(100.0 * decided as f64 / total.max(1) as f64, 1)
    ));
    let mut preview = TextTable::new(
        std::iter::once("cluster".to_string()).chain(dataset.columns.iter().cloned()),
    );
    for (i, record) in golden.iter().enumerate().take(10) {
        preview.push_row(
            std::iter::once(i.to_string()).chain(
                record
                    .iter()
                    .map(|v| v.clone().unwrap_or_else(|| "(undecided)".into())),
            ),
        );
    }
    out.push_str(&preview.to_plain_text());
    if library.is_some() {
        out.push('\n'); // A blank line before the "saved … programs" note.
    }
    sinks.write(
        CommandOutput::text(out),
        &dataset,
        &golden,
        library.as_ref(),
    )
}

/// The line `resolve` and `pipeline` print about the clusters they formed.
fn resolved_summary(dataset: &Dataset, threshold: f64) -> String {
    format!(
        "resolved {} records into {} clusters (threshold {threshold})\n",
        dataset.num_records(),
        dataset.clusters.len(),
    )
}

/// `ec resolve`: cluster flat records into a clustered CSV. The input is
/// consumed record by record through the streaming resolver, and the output
/// is streamed cluster by cluster, so neither has to fit in memory.
pub fn resolve(
    parsed: &ParsedArgs,
    input: impl Read,
    open_output: OpenOutput<'_>,
) -> Result<CommandOutput, CliError> {
    let options = run_options(parsed, false)?;
    let mut stream = FlatCsvReader::new(input)?;
    let parallelism = Parallelism::from(parsed.get_usize("threads", 0)?);
    let dataset = options.resolve(&mut stream, parallelism)?;
    let summary = resolved_summary(&dataset, options.threshold);
    match parsed.get("output") {
        Some(path) => {
            let mut sink = open_output(path)?;
            stream_clustered_csv(&dataset, &mut sink).map_err(write_failed(path))?;
            Ok(CommandOutput::text(summary).note_written(path))
        }
        None => Ok(CommandOutput::text(csv_string(
            &dataset,
            stream_clustered_csv,
        ))),
    }
}

/// `ec pipeline`: the fused resolve → standardize → truth-discovery run.
/// Flat record CSV streams in, golden-record CSV comes out, and no
/// intermediate clustered file ever exists; the output files are
/// bit-identical to running `ec resolve` and then `ec consolidate` on its
/// output with the same flags.
pub fn pipeline(
    parsed: &ParsedArgs,
    input: impl Read,
    open_output: OpenOutput<'_>,
    stdin: &mut dyn BufRead,
    prompt_out: &mut dyn Write,
) -> Result<CommandOutput, CliError> {
    let load = |options: &RunOptions, parallelism| {
        let mut stream = FlatCsvReader::new(input)?;
        // Pair scoring shards over the same thread budget as the
        // consolidation stages; output is bit-identical for every setting.
        let dataset = options.resolve(&mut stream, parallelism)?;
        let summary = resolved_summary(&dataset, options.threshold);
        // Resolver output always carries per-cell truth (set to the observed
        // value), exactly as the clustered CSV written by `ec resolve`
        // declares `__truth` columns — so `auto` mode uses the simulated
        // expert, matching the two-pass flow.
        Ok((dataset, true, summary))
    };
    consolidate_with(parsed, load, open_output, stdin, prompt_out)
}

/// `ec ingest`: `ec pipeline` fed in `--batch-size` batches. The records go
/// one at a time into the one resolution state `ec pipeline` builds, and
/// the consolidation runs once, over all of them, exactly as `ec pipeline`
/// runs it: the `--output`, `--golden` and `--save-library` files are `ec
/// pipeline`'s own. The summary opens with one line per batch of
/// `--batch-size` records and the ingest total.
pub fn ingest(
    parsed: &ParsedArgs,
    input: impl Read,
    open_output: OpenOutput<'_>,
) -> Result<CommandOutput, CliError> {
    // Checks the knobs with `--mode interactive` refused; `consolidate_with`
    // parses them again.
    run_options(parsed, false)?;
    let batch_size = parsed.get_usize("batch-size", 256)?;
    if batch_size == 0 {
        return Err(CliError::Usage("--batch-size must be positive".to_string()));
    }
    let load = |options: &RunOptions, parallelism| {
        let mut stream = FlatCsvReader::new(input)?;
        let dataset = options.resolve(&mut stream, parallelism)?;
        // The resolved dataset holds one row per record read.
        let records = dataset.num_records();
        let batches = records.div_ceil(batch_size).max(1);
        let mut summary = String::new();
        for batch in 1..=batches {
            let total = (batch * batch_size).min(records);
            let size = total - (batch - 1) * batch_size;
            summary.push_str(&format!(
                "batch {batch}: {size} records, {total} records total\n"
            ));
        }
        summary.push_str(&format!(
            "ingested {records} records in {batches} batches of up to {batch_size} \
             (threshold {}, {} mode): {} clusters\n",
            options.threshold,
            options.mode_name(),
            dataset.clusters.len(),
        ));
        Ok((dataset, true, summary))
    };
    consolidate_with(
        parsed,
        load,
        open_output,
        &mut std::io::empty(),
        &mut std::io::sink(),
    )
}

/// `ec apply`: standardize flat records through a learned-program library
/// snapshot — no re-learning, no oracle, record-at-a-time streaming in and
/// out. Values the library does not cover pass through unchanged and are
/// reported.
pub fn apply(
    parsed: &ParsedArgs,
    open_input: OpenInput<'_>,
    open_output: OpenOutput<'_>,
) -> Result<CommandOutput, CliError> {
    let library_path = parsed.require("library")?;
    let mut snapshot = String::new();
    open_input(library_path)?
        .read_to_string(&mut snapshot)
        .map_err(|e| CliError::Io(format!("{library_path}: {e}")))?;
    let library = ProgramLibrary::from_snapshot(&snapshot)
        .map_err(|e| CliError::Data(format!("{library_path}: {e}")))?;

    // `--artifact` replaces `--input`: the compiled dataset's own records
    // (cluster-major, exactly the rows `ec compile --emit-flat` writes) are
    // what gets standardized.
    let compiled;
    let mut records: Box<dyn RecordStream + '_> = match parsed.get("artifact") {
        Some(artifact_path) => {
            if parsed.get("input").is_some() {
                return Err(CliError::Usage(
                    "pass either --input or --artifact, not both".to_string(),
                ));
            }
            compiled = load_artifact(artifact_path)?.0;
            Box::new(DatasetRecords::new(&compiled.dataset))
        }
        None => Box::new(FlatCsvReader::new(open_input(parsed.require("input")?)?)?),
    };
    let applier = library.applier(records.columns());

    let output_path = parsed.get("output");
    let mut stdout_csv = Vec::new();
    let applied = match output_path {
        Some(path) => {
            let mut sink = open_output(path)?;
            applier
                .apply_stream(&mut *records, &mut sink)
                .and_then(|report| sink.flush().map(|()| report).map_err(ApplyError::Output))
        }
        None => applier.apply_stream(&mut *records, &mut stdout_csv),
    };
    let report = applied.map_err(|e| match e {
        ApplyError::Input(e) => CliError::from(e),
        ApplyError::Output(e) => CliError::Io(e.to_string()),
    })?;

    let mut out = String::from_utf8(stdout_csv).expect("CSV output is valid UTF-8");
    out.push_str(&format!(
        "applied library {library_path} (version {}, {} programs): {}\n",
        library.version(),
        library.len(),
        report
    ));
    for (column, value) in &report.unmatched_sample {
        out.push_str(&format!("  unmatched {column}: {value:?}\n"));
    }
    let mut output = CommandOutput::text(out);
    if let Some(path) = output_path {
        output = output.note_written(path);
    }
    Ok(output)
}

/// `ec compile`: compile a dataset into the binary artifact that
/// `--artifact` consumers memory-map at startup. Flat record CSV is resolved
/// first (threshold applies); clustered CSV — recognized by its
/// `cluster,source,...` header — is taken as already resolved. Everything
/// expensive happens here, once: candidate generation, partitioning, graph
/// preparation and the CSR inverted index all land in the artifact.
pub fn compile(
    parsed: &ParsedArgs,
    input: impl Read,
    open_output: OpenOutput<'_>,
) -> Result<CommandOutput, CliError> {
    let options = run_options(parsed, false)?;
    let threads = parsed.get_usize("threads", 0)?;
    let output_path = parsed.require("output")?;
    // Open every sink before the (expensive) compile runs.
    let mut sink = open_output(output_path)?;
    let mut flat_sink = match parsed.get("emit-flat") {
        Some(path) => Some((path, open_output(path)?)),
        None => None,
    };
    // Compiling is a whole-dataset batch operation, so reading the input up
    // front (to sniff the header) costs nothing extra.
    let mut text = String::new();
    let mut input = input;
    input
        .read_to_string(&mut text)
        .map_err(|e| CliError::Io(e.to_string()))?;
    let config = ConsolidationConfig::default().with_threads(threads);
    let (dataset, has_truth) = if text.starts_with("cluster,") {
        read_clustered(&options.name, text.as_bytes())?
    } else {
        let mut stream = FlatCsvReader::new(text.as_bytes())?;
        let dataset = options.resolve(&mut stream, config.candidates.parallelism)?;
        // Resolver output carries per-cell truth, like `ec resolve` output.
        (dataset, true)
    };
    let compiled = compile_dataset(dataset, options.threshold, has_truth, &config);
    let bytes = ec_artifact::encode_artifact(&compiled);
    sink.write_all(&bytes)
        .and_then(|()| sink.flush())
        .map_err(write_failed(output_path))?;
    let candidates: usize = compiled
        .columns
        .iter()
        .map(|c| c.candidates.replacements.len())
        .sum();
    let partitions: usize = compiled.columns.iter().map(|c| c.partitions.len()).sum();
    let mut output = CommandOutput::text(format!(
        "compiled {}: {} records in {} clusters, {} columns, {} candidate replacements, \
         {} prepared partitions — {} artifact bytes (threshold {})\n",
        compiled.name,
        compiled.dataset.num_records(),
        compiled.dataset.clusters.len(),
        compiled.dataset.columns.len(),
        candidates,
        partitions,
        bytes.len(),
        compiled.threshold,
    ))
    .note_written(output_path);
    if let Some((path, sink)) = flat_sink.as_mut() {
        stream_flat_csv(&compiled.dataset, sink).map_err(write_failed(path))?;
        output = output.note_written(*path);
    }
    Ok(output)
}

/// `ec serve`: the long-lived consolidation service (see the `ec-serve`
/// crate docs for the endpoints). Blocks until `POST /shutdown`.
pub fn serve(
    parsed: &ParsedArgs,
    open_input: OpenInput<'_>,
    prompt_out: &mut dyn Write,
) -> Result<CommandOutput, CliError> {
    // `--route b1:port,b2:port,...` turns this process into a shard router
    // in front of backend `ec serve` processes; a router holds no library
    // and runs no consolidation, so the single-node flags make no sense
    // alongside it.
    if let Some(route) = parsed.get("route") {
        for conflicting in [
            "library",
            "library-cap",
            "library-ttl",
            "threads",
            "artifact",
        ] {
            if parsed.get(conflicting).is_some() {
                return Err(CliError::Usage(format!(
                    "--{conflicting} does not apply to a router; set it on the backends"
                )));
            }
        }
        let backends: Vec<String> = route
            .split(',')
            .map(str::trim)
            .filter(|b| !b.is_empty())
            .map(str::to_string)
            .collect();
        if backends.is_empty() {
            return Err(CliError::Usage(
                "--route needs at least one backend HOST:PORT".to_string(),
            ));
        }
        let mut config = RouterConfig::new(
            parsed.get("addr").unwrap_or("127.0.0.1:7171").to_string(),
            backends,
        );
        config.max_connections = parsed.get_usize("max-connections", 0)?;
        config.auth_token = parsed.get("auth-token").map(str::to_string);
        let router = Router::bind(config).map_err(|e| CliError::Io(format!("cannot bind: {e}")))?;
        writeln!(
            prompt_out,
            "ec serve router listening on {} routing {} backends",
            router.local_addr(),
            router.handle().backends(),
        )
        .map_err(|e| CliError::Io(e.to_string()))?;
        prompt_out
            .flush()
            .map_err(|e| CliError::Io(e.to_string()))?;
        let handle = router.handle();
        router
            .run()
            .map_err(|e| CliError::Io(format!("router failed: {e}")))?;
        return Ok(CommandOutput::text(format!(
            "router stopped after {} requests\n",
            handle.requests()
        )));
    }
    let mut library = match parsed.get("library") {
        None => ProgramLibrary::new(),
        Some(path) => {
            let mut snapshot = String::new();
            open_input(path)?
                .read_to_string(&mut snapshot)
                .map_err(|e| CliError::Io(format!("{path}: {e}")))?;
            ProgramLibrary::from_snapshot(&snapshot)
                .map_err(|e| CliError::Data(format!("{path}: {e}")))?
        }
    };
    // `--library-cap N` bounds the in-memory library of a long-running
    // server (N entries per column, least-recently-learned evicted first);
    // 0 — the default — keeps it unbounded.
    let library_cap = parsed.get_usize("library-cap", 0)?;
    if library_cap > 0 {
        library.set_column_capacity(Some(library_cap));
    }
    // `--library-ttl SECS` additionally ages entries out by recency —
    // a long-running server forgets programs nothing has touched lately;
    // 0 (the default) keeps entries forever.
    let library_ttl = parsed.get_usize("library-ttl", 0)?;
    // `--artifact FILE` memory-maps a compiled dataset at startup: an
    // empty-body POST /pipeline (or /apply) then replays the compiled
    // consolidation with no parse, resolve, candidate or index work.
    let preloaded = match parsed.get("artifact") {
        None => None,
        Some(path) => {
            let (compiled, mapped) = load_artifact(path)?;
            let summary = artifact_summary(path, &compiled, mapped);
            Some((std::sync::Arc::new(compiled), summary))
        }
    };
    let config = ServeConfig {
        addr: parsed.get("addr").unwrap_or("127.0.0.1:7171").to_string(),
        threads: parsed.get_usize("threads", 0)?,
        library,
        max_connections: parsed.get_usize("max-connections", 0)?,
        library_ttl: (library_ttl > 0).then(|| std::time::Duration::from_secs(library_ttl as u64)),
        preloaded: preloaded.as_ref().map(|(compiled, _)| compiled.clone()),
        auth_token: parsed.get("auth-token").map(str::to_string),
    };
    let server = Server::bind(config).map_err(|e| CliError::Io(format!("cannot bind: {e}")))?;
    writeln!(
        prompt_out,
        "ec serve listening on {} (endpoints: /healthz /library /ingest /pipeline /apply /shutdown)",
        server.local_addr()
    )
    .map_err(|e| CliError::Io(e.to_string()))?;
    if let Some((_, summary)) = &preloaded {
        write!(prompt_out, "{summary}").map_err(|e| CliError::Io(e.to_string()))?;
    }
    prompt_out
        .flush()
        .map_err(|e| CliError::Io(e.to_string()))?;
    let handle = server.handle();
    server
        .run()
        .map_err(|e| CliError::Io(format!("server failed: {e}")))?;
    Ok(CommandOutput::text(format!(
        "server stopped after {} requests\n",
        handle.requests()
    )))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::args::parse;
    use crate::memio::MemFiles;
    use ec_data::{dataset_from_csv, dataset_to_csv};
    use std::io::Cursor;

    fn parsed(argv: &[&str]) -> ParsedArgs {
        let args: Vec<String> = argv.iter().map(|s| s.to_string()).collect();
        parse(&args).unwrap()
    }

    fn address_csv(clusters: usize) -> String {
        let dataset = PaperDataset::Address.generate(&GeneratorConfig {
            num_clusters: clusters,
            seed: 11,
            num_sources: 4,
        });
        dataset_to_csv(&dataset)
    }

    /// Runs `generate` against an in-memory namespace, returning the output
    /// and the namespace.
    fn generate_mem(argv: &[&str]) -> Result<(CommandOutput, MemFiles), CliError> {
        let fs = MemFiles::new();
        let out = generate(&parsed(argv), &fs.output_opener())?;
        Ok((out, fs))
    }

    #[test]
    fn generate_to_stdout_and_to_file() {
        let (out, _) =
            generate_mem(&["generate", "--dataset", "journaltitle", "--clusters", "8"]).unwrap();
        assert!(out.stdout.starts_with("cluster,source,"));
        assert!(out.written.is_empty());

        let (out, fs) = generate_mem(&[
            "generate",
            "--dataset",
            "authorlist",
            "--clusters",
            "5",
            "--output",
            "a.csv",
        ])
        .unwrap();
        assert!(out.stdout.contains("AuthorList"));
        assert_eq!(out.written, vec!["a.csv".to_string()]);
        assert!(fs.get("a.csv").unwrap().starts_with("cluster,source,"));
    }

    #[test]
    fn generate_rejects_unknown_dataset() {
        let err = generate_mem(&["generate", "--dataset", "movies"]).unwrap_err();
        assert!(matches!(err, CliError::Usage(_)));
    }

    #[test]
    fn streamed_writers_match_the_whole_document_adapters() {
        let dataset = PaperDataset::Address.generate(&GeneratorConfig {
            num_clusters: 7,
            seed: 3,
            num_sources: 3,
        });
        assert_eq!(
            csv_string(&dataset, stream_clustered_csv),
            dataset_to_csv(&dataset),
            "the streamed clustered CSV is byte-identical to the in-memory one"
        );
        let flat = csv_string(&dataset, stream_flat_csv);
        assert!(flat.starts_with("source,"));
        assert!(!flat.contains("__truth"));
    }

    #[test]
    fn profile_renders_columns_and_priorities() {
        let csv = address_csv(10);
        let out = profile(&parsed(&["profile", "--input", "x.csv"]), csv.as_bytes()).unwrap();
        assert!(out.stdout.contains("standardization priority"));
        assert!(
            out.stdout.contains("address"),
            "the Address dataset's column is named 'address': {}",
            out.stdout
        );
    }

    #[test]
    fn profile_rejects_malformed_input() {
        let err = profile(
            &parsed(&["profile", "--input", "x.csv"]),
            "not,a,clustered\n1,2,3\n".as_bytes(),
        )
        .unwrap_err();
        assert!(matches!(err, CliError::Data(_)));
    }

    #[test]
    fn groups_lists_the_largest_groups_first() {
        let csv = address_csv(20);
        let out = groups(
            &parsed(&["groups", "--input", "x.csv", "--column", "0", "--top", "3"]),
            csv.as_bytes(),
        )
        .unwrap();
        assert!(out.stdout.contains("#1"));
        let sizes: Vec<usize> = out
            .stdout
            .lines()
            .filter(|l| l.starts_with('#'))
            .map(|l| {
                l.split_whitespace()
                    .nth(2)
                    .and_then(|n| n.parse().ok())
                    .unwrap_or(0)
            })
            .collect();
        assert!(!sizes.is_empty());
        assert!(
            sizes.windows(2).all(|w| w[0] >= w[1]),
            "groups are size-ordered: {sizes:?}"
        );
    }

    #[test]
    fn groups_rejects_unknown_columns() {
        let csv = address_csv(5);
        let err = groups(
            &parsed(&["groups", "--input", "x.csv", "--column", "Phone"]),
            csv.as_bytes(),
        )
        .unwrap_err();
        assert!(matches!(err, CliError::Usage(msg) if msg.contains("Phone")));
    }

    #[test]
    fn consolidate_auto_uses_truth_and_writes_outputs() {
        let csv = address_csv(15);
        let fs = MemFiles::new();
        let mut stdin = Cursor::new(Vec::new());
        let mut prompts = Vec::new();
        let out = consolidate(
            &parsed(&[
                "consolidate",
                "--input",
                "x.csv",
                "--budget",
                "12",
                "--output",
                "std.csv",
                "--golden",
                "g.csv",
            ]),
            csv.as_bytes(),
            &fs.output_opener(),
            &mut stdin,
            &mut prompts,
        )
        .unwrap();
        assert!(out.stdout.contains("golden records"));
        assert_eq!(out.written.len(), 2);
        let golden = fs.get("g.csv").unwrap();
        assert!(golden.starts_with("cluster,"));
        assert!(prompts.is_empty(), "auto mode never prompts");
    }

    #[test]
    fn consolidate_opens_every_sink_before_truncating_any() {
        // A bad --golden path must fail the command before the --output file
        // is opened (and truncated); the old buffer-then-write flow had this
        // property and the streaming flow must keep it.
        let csv = address_csv(4);
        let opened = std::sync::Arc::new(std::sync::Mutex::new(Vec::<String>::new()));
        let opened_log = std::sync::Arc::clone(&opened);
        let open_output = move |path: &str| -> Result<crate::OutputSink, CliError> {
            opened_log.lock().unwrap().push(path.to_string());
            if path.starts_with("/no/such/dir/") {
                Err(CliError::Io(format!("failed to create {path}: denied")))
            } else {
                Ok(Box::new(Vec::new()))
            }
        };
        let mut stdin = Cursor::new(Vec::new());
        let mut prompts = Vec::new();
        let err = consolidate(
            &parsed(&[
                "consolidate",
                "--input",
                "x.csv",
                "--budget",
                "2",
                "--output",
                "std.csv",
                "--golden",
                "/no/such/dir/g.csv",
            ]),
            csv.as_bytes(),
            &open_output,
            &mut stdin,
            &mut prompts,
        )
        .unwrap_err();
        assert!(matches!(err, CliError::Io(_)));
        let opened = opened.lock().unwrap();
        // std.csv may be opened (all sinks open up front), but nothing was
        // ever streamed into it — consolidation never ran.
        assert!(opened.contains(&"/no/such/dir/g.csv".to_string()));
    }

    #[test]
    fn consolidate_saves_a_reusable_library() {
        let csv = address_csv(15);
        let fs = MemFiles::new();
        let mut stdin = Cursor::new(Vec::new());
        let mut prompts = Vec::new();
        let out = consolidate(
            &parsed(&[
                "consolidate",
                "--input",
                "x.csv",
                "--budget",
                "12",
                "--save-library",
                "lib.txt",
            ]),
            csv.as_bytes(),
            &fs.output_opener(),
            &mut stdin,
            &mut prompts,
        )
        .unwrap();
        assert!(out.stdout.contains("saved"), "{}", out.stdout);
        let snapshot = fs.get("lib.txt").unwrap();
        let library = ProgramLibrary::from_snapshot(&snapshot).unwrap();
        assert!(!library.is_empty(), "approved groups landed in the library");

        // The saved library standardizes the very pairs it was learned from.
        let apply_fs = MemFiles::new();
        apply_fs.insert("lib.txt", &snapshot);
        let column = library.columns().next().unwrap().to_string();
        let from = library.entries(&column)[0].rewrites[0].0.clone();
        let to = library.entries(&column)[0].rewrites[0].1.clone();
        let dataset = dataset_from_csv("x", &csv).unwrap();
        let col_idx = dataset.columns.iter().position(|c| *c == column).unwrap();
        let mut header = vec!["source".to_string()];
        header.extend(dataset.columns.iter().cloned());
        let mut flat = format!("{}\n", header.join(","));
        let mut fields = vec!["0".to_string(); header.len()];
        fields[col_idx + 1] = from.clone();
        flat.push_str(&format!("{}\n", fields.join(",")));
        // Quick sanity only when the value is CSV-safe.
        if !from.contains(',') && !from.contains('"') && !to.contains(',') {
            apply_fs.insert("in.csv", &flat);
            let out = apply(
                &parsed(&["apply", "--library", "lib.txt", "--input", "in.csv"]),
                &apply_fs.input_opener(),
                &apply_fs.output_opener(),
            )
            .unwrap();
            assert!(out.stdout.contains(&to), "{}", out.stdout);
        }
    }

    #[test]
    fn consolidate_interactive_prompts_and_honours_answers() {
        let csv = address_csv(6);
        let fs = MemFiles::new();
        // Approve the first group forward, reject everything else (input runs out).
        let mut stdin = Cursor::new(b"f\nr\nr\nr\nr\nr\nr\nr\nr\nr\n".to_vec());
        let mut prompts = Vec::new();
        let out = consolidate(
            &parsed(&[
                "consolidate",
                "--input",
                "x.csv",
                "--column",
                "0",
                "--budget",
                "5",
                "--mode",
                "interactive",
            ]),
            csv.as_bytes(),
            &fs.output_opener(),
            &mut stdin,
            &mut prompts,
        )
        .unwrap();
        let transcript = String::from_utf8(prompts).unwrap();
        assert!(transcript.contains("reviewing groups"));
        assert!(transcript.contains("replace left with right"));
        assert!(out.stdout.contains("consolidated"));
    }

    #[test]
    fn consolidate_without_truth_falls_back_to_approve_all() {
        let csv = "cluster,source,Name\n0,0,Mary Lee\n0,1,\"Lee, Mary\"\n0,2,M. Lee\n";
        let fs = MemFiles::new();
        let mut stdin = Cursor::new(Vec::new());
        let mut prompts = Vec::new();
        let out = consolidate(
            &parsed(&["consolidate", "--input", "x.csv", "--budget", "10"]),
            csv.as_bytes(),
            &fs.output_opener(),
            &mut stdin,
            &mut prompts,
        )
        .unwrap();
        assert!(out.stdout.contains("approved"));
    }

    #[test]
    fn consolidate_rejects_bad_mode_and_truth_method() {
        let csv = address_csv(3);
        let fs = MemFiles::new();
        let mut stdin = Cursor::new(Vec::new());
        let mut prompts = Vec::new();
        assert!(consolidate(
            &parsed(&["consolidate", "--input", "x", "--mode", "psychic"]),
            csv.as_bytes(),
            &fs.output_opener(),
            &mut stdin,
            &mut prompts
        )
        .is_err());
        assert!(consolidate(
            &parsed(&["consolidate", "--input", "x", "--truth-method", "magic"]),
            csv.as_bytes(),
            &fs.output_opener(),
            &mut stdin,
            &mut prompts
        )
        .is_err());
    }

    #[test]
    fn resolve_clusters_flat_records() {
        let flat = "source,Name,Address\n\
                    0,Mary Lee,\"9 St, 02141 Wisconsin\"\n\
                    1,M. Lee,\"9th St, 02141 WI\"\n\
                    2,\"Lee, Mary\",\"9 Street, 02141 WI\"\n\
                    0,Robert Brown,\"77 Mass Ave, 02139 MA\"\n\
                    1,Bob Brown,\"77 Massachusetts Ave, 02139 MA\"\n";
        let fs = MemFiles::new();
        let out = resolve(
            &parsed(&[
                "resolve",
                "--input",
                "x.csv",
                "--threshold",
                "0.5",
                "--output",
                "c.csv",
            ]),
            flat.as_bytes(),
            &fs.output_opener(),
        )
        .unwrap();
        assert!(out.stdout.contains("resolved 5 records"));
        let csv = fs.get("c.csv").unwrap();
        let clustered = dataset_from_csv("r", &csv).unwrap();
        assert!(
            clustered.clusters.len() < 5,
            "similar records were merged: {csv}"
        );
    }

    #[test]
    fn resolve_validates_threshold_and_input() {
        let fs = MemFiles::new();
        assert!(resolve(
            &parsed(&["resolve", "--input", "x", "--threshold", "3"]),
            "source,A\n0,x\n".as_bytes(),
            &fs.output_opener(),
        )
        .is_err());
        assert!(resolve(
            &parsed(&["resolve", "--input", "x"]),
            "bogus\n1\n".as_bytes(),
            &fs.output_opener(),
        )
        .is_err());
    }

    #[test]
    fn generate_flat_emits_flat_record_csv() {
        let (out, _) = generate_mem(&[
            "generate",
            "--dataset",
            "address",
            "--clusters",
            "6",
            "--seed",
            "2",
            "--flat",
        ])
        .unwrap();
        assert!(out.stdout.starts_with("source,"));
        assert!(!out.stdout.contains("__truth"));
        // The flat output feeds straight back into the resolver.
        let stream = FlatCsvReader::new(out.stdout.as_bytes()).unwrap();
        assert!(!stream.columns().is_empty());
    }

    #[test]
    fn pipeline_output_is_bit_identical_to_resolve_then_consolidate() {
        let (flat_out, _) = generate_mem(&[
            "generate",
            "--dataset",
            "address",
            "--clusters",
            "10",
            "--seed",
            "5",
            "--flat",
        ])
        .unwrap();
        let flat = flat_out.stdout;

        // Two passes through an intermediate clustered CSV...
        let two_pass_fs = MemFiles::new();
        resolve(
            &parsed(&[
                "resolve",
                "--input",
                "f.csv",
                "--threshold",
                "0.6",
                "--output",
                "c.csv",
            ]),
            flat.as_bytes(),
            &two_pass_fs.output_opener(),
        )
        .unwrap();
        let clustered = two_pass_fs.get("c.csv").unwrap();
        let mut stdin = Cursor::new(Vec::new());
        let mut prompts = Vec::new();
        let two_pass = consolidate(
            &parsed(&[
                "consolidate",
                "--input",
                "c.csv",
                "--budget",
                "15",
                "--output",
                "std.csv",
                "--golden",
                "g.csv",
            ]),
            clustered.as_bytes(),
            &two_pass_fs.output_opener(),
            &mut stdin,
            &mut prompts,
        )
        .unwrap();

        // ...versus the fused pipeline with the same flags.
        let fused_fs = MemFiles::new();
        let mut stdin = Cursor::new(Vec::new());
        let mut prompts = Vec::new();
        let fused = pipeline(
            &parsed(&[
                "pipeline",
                "--input",
                "f.csv",
                "--threshold",
                "0.6",
                "--budget",
                "15",
                "--output",
                "std.csv",
                "--golden",
                "g.csv",
            ]),
            flat.as_bytes(),
            &fused_fs.output_opener(),
            &mut stdin,
            &mut prompts,
        )
        .unwrap();

        for file in ["std.csv", "g.csv"] {
            assert_eq!(
                fused_fs.get(file),
                two_pass_fs.get(file),
                "{file} is bit-identical"
            );
        }
        assert_eq!(fused.written, two_pass.written);
        assert!(fused.stdout.contains("resolved"));
        assert!(fused.stdout.contains("golden records"));
        assert!(fused.stdout.ends_with(&two_pass.stdout));
    }

    #[test]
    fn pipeline_validates_threshold_and_input() {
        let fs = MemFiles::new();
        let mut stdin = Cursor::new(Vec::new());
        let mut prompts = Vec::new();
        assert!(pipeline(
            &parsed(&["pipeline", "--input", "x", "--threshold", "7"]),
            "source,A\n0,x\n".as_bytes(),
            &fs.output_opener(),
            &mut stdin,
            &mut prompts,
        )
        .is_err());
        assert!(pipeline(
            &parsed(&["pipeline", "--input", "x"]),
            "bogus\n1\n".as_bytes(),
            &fs.output_opener(),
            &mut stdin,
            &mut prompts,
        )
        .is_err());
    }

    #[test]
    fn cli_and_serve_pipelines_reject_the_same_bad_knobs() {
        let server = Server::bind(ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            ..ServeConfig::default()
        })
        .unwrap();
        let handle = server.handle();
        let join = std::thread::spawn(move || server.run().unwrap());
        let flat = "source,Name\n0,Mary Lee\n1,\"Lee, Mary\"\n";
        let fs = MemFiles::new();
        for (key, value) in [
            ("threshold", "7"),
            ("threshold", "x"),
            ("threshold", "NaN"),
            ("budget", "1.5"),
            ("budget", "-1"),
            ("mode", "psychic"),
            ("truth-method", "vote"),
            ("column", "Phone"),
        ] {
            let flag = format!("--{key}");
            let cli = pipeline(
                &parsed(&["pipeline", "--input", "x", &flag, value]),
                flat.as_bytes(),
                &fs.output_opener(),
                &mut Cursor::new(Vec::new()),
                &mut Vec::new(),
            );
            // A usage error is what the binary maps to exit code 2.
            let Err(CliError::Usage(message)) = cli else {
                panic!("{key}={value}: expected a usage error, got {cli:?}");
            };
            let target = format!("/pipeline?{key}={value}");
            let served =
                ec_serve::http::request(handle.addr(), "POST", &target, flat.as_bytes()).unwrap();
            let body = String::from_utf8_lossy(&served.body);
            assert_eq!(served.status, 400, "{key}={value}: {body}");
            // Same parser, same words — up to the list of accepted modes,
            // which names `interactive` only on the CLI.
            let reason = message.split(';').next().unwrap();
            assert!(body.contains(reason), "{key}={value}: {body} vs {message}");
        }
        handle.stop();
        join.join().unwrap();
    }

    #[test]
    fn ingest_outputs_are_bit_identical_to_pipeline() {
        let flat = flat_csv(10, 5);
        let flags = [
            "--threshold",
            "0.6",
            "--budget",
            "15",
            "--output",
            "std.csv",
            "--golden",
            "g.csv",
            "--save-library",
            "lib.txt",
        ];

        let pipeline_fs = MemFiles::new();
        let mut stdin = Cursor::new(Vec::new());
        let mut prompts = Vec::new();
        let mut argv = vec!["pipeline", "--input", "f.csv"];
        argv.extend(flags);
        let piped = pipeline(
            &parsed(&argv),
            flat.as_bytes(),
            &pipeline_fs.output_opener(),
            &mut stdin,
            &mut prompts,
        )
        .unwrap();
        // Past its "resolved …" line, the pipeline's summary is ingest's too.
        let (_, consolidated) = piped.stdout.split_once('\n').unwrap();
        let records = flat.lines().count() - 1;

        for (batch_size, batches) in [(7, records.div_ceil(7)), (1000, 1)] {
            let ingest_fs = MemFiles::new();
            let size = batch_size.to_string();
            let mut argv = vec!["ingest", "--input", "f.csv", "--batch-size", &size];
            argv.extend(flags);
            let out = ingest(&parsed(&argv), flat.as_bytes(), &ingest_fs.output_opener()).unwrap();
            let batch_lines = out.stdout.lines().filter(|l| l.starts_with("batch "));
            assert_eq!(batch_lines.count(), batches, "{}", out.stdout);
            assert!(
                out.stdout.contains(&format!(
                    "batch {batches}: {} records, {records} records total\n\
                     ingested {records} records in {batches} batches",
                    records - (batches - 1) * batch_size
                )),
                "{}",
                out.stdout
            );
            assert!(out.stdout.ends_with(consolidated), "{}", out.stdout);
            for file in ["std.csv", "g.csv", "lib.txt"] {
                assert_eq!(
                    ingest_fs.get(file),
                    pipeline_fs.get(file),
                    "{file} diverged at batch size {batch_size}"
                );
            }
        }
    }

    #[test]
    fn ingest_validates_batch_size_and_mode() {
        let fs = MemFiles::new();
        assert!(ingest(
            &parsed(&["ingest", "--input", "x", "--batch-size", "0"]),
            "source,A\n0,x\n".as_bytes(),
            &fs.output_opener(),
        )
        .is_err());
        assert!(ingest(
            &parsed(&["ingest", "--input", "x", "--mode", "interactive"]),
            "source,A\n0,x\n".as_bytes(),
            &fs.output_opener(),
        )
        .is_err());
        // Header-only input is fine: one empty batch, empty outputs.
        let out = ingest(
            &parsed(&["ingest", "--input", "x", "--golden", "g.csv"]),
            "source,A\n".as_bytes(),
            &fs.output_opener(),
        )
        .unwrap();
        assert!(out.stdout.contains("ingested 0 records"), "{}", out.stdout);
        assert_eq!(fs.get("g.csv").unwrap(), "cluster,A\n");
    }

    #[test]
    fn apply_standardizes_through_a_snapshot_and_reports_unmatched() {
        use ec_core::ApprovedGroup;
        use ec_replace::Direction;
        let mut library = ProgramLibrary::new();
        library.record(
            "Name",
            &ApprovedGroup {
                group: ec_core::Group::new(
                    None,
                    vec![ec_graph::Replacement::new("Lee, Mary", "Mary Lee")],
                ),
                direction: Direction::Forward,
            },
        );
        let fs = MemFiles::new();
        fs.insert("lib.txt", &library.to_snapshot());
        fs.insert(
            "in.csv",
            "source,Name\n0,\"Lee, Mary\"\n1,Mary Lee\n2,unknown\n",
        );
        let out = apply(
            &parsed(&[
                "apply",
                "--library",
                "lib.txt",
                "--input",
                "in.csv",
                "--output",
                "out.csv",
            ]),
            &fs.input_opener(),
            &fs.output_opener(),
        )
        .unwrap();
        assert_eq!(
            fs.get("out.csv").unwrap(),
            "source,Name\n0,Mary Lee\n1,Mary Lee\n2,unknown\n"
        );
        assert!(out.stdout.contains("1 cells rewritten"), "{}", out.stdout);
        assert!(out.stdout.contains("1 unmatched"), "{}", out.stdout);
        assert!(out.stdout.contains("unmatched Name: \"unknown\""));
        assert_eq!(out.written, vec!["out.csv".to_string()]);

        // Without --output the standardized CSV goes to stdout.
        let out = apply(
            &parsed(&["apply", "--library", "lib.txt", "--input", "in.csv"]),
            &fs.input_opener(),
            &fs.output_opener(),
        )
        .unwrap();
        assert!(out.stdout.starts_with("source,Name\n0,Mary Lee\n"));
    }

    #[test]
    fn apply_rejects_bad_libraries_and_inputs() {
        let fs = MemFiles::new();
        fs.insert("bad.txt", "not a library\n");
        fs.insert("in.csv", "source,Name\n0,x\n");
        let err = apply(
            &parsed(&["apply", "--library", "bad.txt", "--input", "in.csv"]),
            &fs.input_opener(),
            &fs.output_opener(),
        )
        .unwrap_err();
        assert!(matches!(err, CliError::Data(_)));
        let err = apply(
            &parsed(&["apply", "--library", "missing.txt", "--input", "in.csv"]),
            &fs.input_opener(),
            &fs.output_opener(),
        )
        .unwrap_err();
        assert!(matches!(err, CliError::Io(_)));
    }

    #[test]
    fn serve_starts_serves_and_stops() {
        let fs = MemFiles::new();
        let mut library = ProgramLibrary::new();
        library.record(
            "Name",
            &ec_core::ApprovedGroup {
                group: ec_core::Group::new(None, vec![ec_graph::Replacement::new("Street", "St")]),
                direction: ec_replace::Direction::Forward,
            },
        );
        fs.insert("lib.txt", &library.to_snapshot());
        // Run the blocking serve command on a helper thread, parse the bound
        // address from its startup line, then drive it over HTTP.
        let (sender, receiver) = std::sync::mpsc::channel();
        let opener = fs.input_opener();
        let join = std::thread::spawn(move || {
            struct LineTap(std::sync::mpsc::Sender<String>);
            impl Write for LineTap {
                fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                    let _ = self.0.send(String::from_utf8_lossy(buf).into_owned());
                    Ok(buf.len())
                }
                fn flush(&mut self) -> std::io::Result<()> {
                    Ok(())
                }
            }
            let mut tap = LineTap(sender);
            serve(
                &parsed(&["serve", "--addr", "127.0.0.1:0", "--library", "lib.txt"]),
                &opener,
                &mut tap,
            )
        });
        // `writeln!` may emit the line in fragments; accumulate to the EOL.
        let mut startup = String::new();
        while !startup.contains('\n') {
            startup.push_str(
                &receiver
                    .recv_timeout(std::time::Duration::from_secs(10))
                    .expect("serve prints its address"),
            );
        }
        let addr: std::net::SocketAddr = startup
            .split_whitespace()
            .nth(4)
            .expect("address in startup line")
            .parse()
            .expect("parsable address");
        let health = ec_serve::http::request(addr, "GET", "/healthz", b"").unwrap();
        assert_eq!(health.status, 200);
        let snapshot = ec_serve::http::request(addr, "GET", "/library", b"").unwrap();
        assert!(String::from_utf8(snapshot.body).unwrap().contains("Street"));
        let stop = ec_serve::http::request(addr, "POST", "/shutdown", b"").unwrap();
        assert_eq!(stop.status, 200);
        let out = join.join().unwrap().unwrap();
        assert!(out.stdout.contains("server stopped"), "{}", out.stdout);
    }

    /// A flat Address CSV straight out of `ec generate --flat`.
    fn flat_csv(clusters: usize, seed: u64) -> String {
        let (out, _) = generate_mem(&[
            "generate",
            "--dataset",
            "address",
            "--clusters",
            &clusters.to_string(),
            "--seed",
            &seed.to_string(),
            "--flat",
        ])
        .unwrap();
        out.stdout
    }

    /// Writes an artifact compiled from `flat` to a real temp file and
    /// returns its path. `load_artifact` deliberately bypasses the opener
    /// indirection — memory-mapping the file *is* the point — so artifact
    /// consumers need a genuine file on disk.
    fn compiled_temp_artifact(flat: &str, threshold: &str, tag: &str) -> std::path::PathBuf {
        let fs = MemFiles::new();
        compile(
            &parsed(&[
                "compile",
                "--input",
                "f.csv",
                "--output",
                "a.eca",
                "--threshold",
                threshold,
            ]),
            flat.as_bytes(),
            &fs.output_opener(),
        )
        .unwrap();
        let path = std::env::temp_dir().join(format!("ec-cli-{tag}-{}.eca", std::process::id()));
        std::fs::write(&path, fs.get_bytes("a.eca").unwrap()).unwrap();
        path
    }

    #[test]
    fn compile_writes_a_decodable_artifact_and_flat_csv() {
        let flat = flat_csv(8, 7);
        let fs = MemFiles::new();
        let out = compile(
            &parsed(&[
                "compile",
                "--input",
                "f.csv",
                "--output",
                "a.eca",
                "--threshold",
                "0.6",
                "--emit-flat",
                "flat.csv",
            ]),
            flat.as_bytes(),
            &fs.output_opener(),
        )
        .unwrap();
        assert!(
            out.stdout.starts_with("compiled resolved:"),
            "{}",
            out.stdout
        );
        assert!(out.stdout.contains("artifact bytes"), "{}", out.stdout);
        assert_eq!(
            out.written,
            vec!["a.eca".to_string(), "flat.csv".to_string()]
        );

        let bytes = fs.get_bytes("a.eca").unwrap();
        let compiled = ec_artifact::read_artifact_bytes(&bytes).expect("the artifact decodes");
        assert_eq!(compiled.threshold, 0.6);
        assert!(compiled.has_truth, "resolver output carries per-cell truth");
        assert_eq!(compiled.columns.len(), compiled.dataset.columns.len());
        assert!(!compiled.dataset.clusters.is_empty());

        let emitted = fs.get("flat.csv").unwrap();
        assert!(emitted.starts_with("source,"));
        assert_eq!(
            emitted.lines().count(),
            compiled.dataset.num_records() + 1,
            "one line per record plus the header"
        );

        // Clustered input is recognized by its header and skips the resolver.
        let clustered = address_csv(4);
        let fs = MemFiles::new();
        compile(
            &parsed(&["compile", "--input", "c.csv", "--output", "c.eca"]),
            clustered.as_bytes(),
            &fs.output_opener(),
        )
        .unwrap();
        let compiled = ec_artifact::read_artifact_bytes(&fs.get_bytes("c.eca").unwrap()).unwrap();
        assert_eq!(compiled.dataset.clusters.len(), 4);
    }

    #[test]
    fn pipeline_from_artifact_matches_the_fresh_run_byte_for_byte() {
        let flat = flat_csv(10, 5);
        let path = compiled_temp_artifact(&flat, "0.6", "pipeline");
        // The same scripted answers feed the fresh and the artifact run in
        // interactive mode; both transcripts must match too.
        let script = "f\nr\nb\n".repeat(12);
        for mode in ["auto", "interactive"] {
            let flags = [
                "--threshold",
                "0.6",
                "--budget",
                "15",
                "--mode",
                mode,
                "--output",
                "std.csv",
                "--golden",
                "g.csv",
                "--save-library",
                "lib.txt",
            ];
            let run = |source: &[&str], input: &[u8]| {
                let fs = MemFiles::new();
                let mut stdin = Cursor::new(script.clone().into_bytes());
                let mut prompts = Vec::new();
                let mut argv = vec!["pipeline"];
                argv.extend(source);
                argv.extend(flags);
                let out = pipeline(
                    &parsed(&argv),
                    input,
                    &fs.output_opener(),
                    &mut stdin,
                    &mut prompts,
                )
                .unwrap();
                (out, fs, prompts)
            };
            let (_, fresh_fs, fresh_prompts) = run(&["--input", "f.csv"], flat.as_bytes());
            let (out, preloaded_fs, preloaded_prompts) =
                run(&["--artifact", path.to_str().unwrap()], &[]);

            assert!(
                out.stdout.starts_with("loaded compiled artifact"),
                "{}",
                out.stdout
            );
            assert!(out.stdout.contains("skipped"), "{}", out.stdout);
            for file in ["std.csv", "g.csv", "lib.txt"] {
                assert_eq!(
                    preloaded_fs.get(file),
                    fresh_fs.get(file),
                    "{file} is bit-identical ({mode} mode)"
                );
            }
            assert_eq!(
                String::from_utf8(preloaded_prompts).unwrap(),
                String::from_utf8(fresh_prompts.clone()).unwrap(),
                "prompt transcripts agree ({mode} mode)"
            );
            if mode == "interactive" {
                let transcript = String::from_utf8(fresh_prompts).unwrap();
                assert!(transcript.contains("== reviewing groups of column"));
                assert!(transcript.contains("group #"), "{transcript}");
            }
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn artifact_threshold_mismatch_is_a_usage_error() {
        let flat = flat_csv(3, 2);
        let path = compiled_temp_artifact(&flat, "0.6", "mismatch");
        let fs = MemFiles::new();
        let mut stdin = Cursor::new(Vec::new());
        let mut prompts = Vec::new();
        let err = pipeline(
            &parsed(&[
                "pipeline",
                "--artifact",
                path.to_str().unwrap(),
                "--threshold",
                "0.9",
            ]),
            std::io::empty(),
            &fs.output_opener(),
            &mut stdin,
            &mut prompts,
        )
        .unwrap_err();
        std::fs::remove_file(&path).unwrap();
        match err {
            CliError::Usage(msg) => {
                assert!(
                    msg.contains("was compiled at threshold 0.6, not 0.9"),
                    "{msg}"
                );
            }
            other => panic!("expected a usage error, got {other:?}"),
        }
    }

    #[test]
    fn artifact_fallback_rebuilds_from_input_with_a_warning() {
        let path = std::env::temp_dir().join(format!("ec-cli-fallback-{}.eca", std::process::id()));
        std::fs::write(&path, b"not an artifact").unwrap();
        let flat = flat_csv(3, 2);

        // With --input, a bad artifact degrades to a warning plus a fresh build.
        let fs = MemFiles::new();
        let mut stdin = Cursor::new(Vec::new());
        let mut prompts = Vec::new();
        let out = pipeline(
            &parsed(&[
                "pipeline",
                "--artifact",
                path.to_str().unwrap(),
                "--input",
                "f.csv",
                "--threshold",
                "0.6",
                "--output",
                "std.csv",
            ]),
            flat.as_bytes(),
            &fs.output_opener(),
            &mut stdin,
            &mut prompts,
        )
        .unwrap();
        assert!(out.stdout.contains("resolved"), "{}", out.stdout);
        let warning = String::from_utf8(prompts).unwrap();
        assert!(
            warning.contains("warning: cannot load artifact"),
            "{warning}"
        );
        assert!(warning.contains("rebuilding from --input"), "{warning}");

        // Without --input there is nothing to fall back to.
        let mut stdin = Cursor::new(Vec::new());
        let mut prompts = Vec::new();
        let err = pipeline(
            &parsed(&["pipeline", "--artifact", path.to_str().unwrap()]),
            std::io::empty(),
            &fs.output_opener(),
            &mut stdin,
            &mut prompts,
        )
        .unwrap_err();
        std::fs::remove_file(&path).unwrap();
        assert!(matches!(err, CliError::Data(_)), "{err:?}");
    }

    #[test]
    fn apply_from_artifact_matches_apply_on_the_emitted_flat_csv() {
        let flat = flat_csv(6, 3);
        let fs = MemFiles::new();
        // A real library learned from the same records.
        let mut stdin = Cursor::new(Vec::new());
        let mut prompts = Vec::new();
        pipeline(
            &parsed(&[
                "pipeline",
                "--input",
                "f.csv",
                "--threshold",
                "0.6",
                "--budget",
                "15",
                "--save-library",
                "lib.txt",
            ]),
            flat.as_bytes(),
            &fs.output_opener(),
            &mut stdin,
            &mut prompts,
        )
        .unwrap();
        // The artifact plus its own --emit-flat rendering of the records.
        compile(
            &parsed(&[
                "compile",
                "--input",
                "f.csv",
                "--output",
                "a.eca",
                "--threshold",
                "0.6",
                "--emit-flat",
                "emitted.csv",
            ]),
            flat.as_bytes(),
            &fs.output_opener(),
        )
        .unwrap();
        let path = std::env::temp_dir().join(format!("ec-cli-apply-{}.eca", std::process::id()));
        std::fs::write(&path, fs.get_bytes("a.eca").unwrap()).unwrap();

        let from_input = apply(
            &parsed(&[
                "apply",
                "--library",
                "lib.txt",
                "--input",
                "emitted.csv",
                "--output",
                "out1.csv",
            ]),
            &fs.input_opener(),
            &fs.output_opener(),
        )
        .unwrap();
        let from_artifact = apply(
            &parsed(&[
                "apply",
                "--library",
                "lib.txt",
                "--artifact",
                path.to_str().unwrap(),
                "--output",
                "out2.csv",
            ]),
            &fs.input_opener(),
            &fs.output_opener(),
        )
        .unwrap();
        let both = apply(
            &parsed(&[
                "apply",
                "--library",
                "lib.txt",
                "--artifact",
                path.to_str().unwrap(),
                "--input",
                "emitted.csv",
            ]),
            &fs.input_opener(),
            &fs.output_opener(),
        );
        std::fs::remove_file(&path).unwrap();

        assert_eq!(
            fs.get("out1.csv"),
            fs.get("out2.csv"),
            "the artifact's records standardize identically to the emitted flat CSV"
        );
        assert_eq!(from_input.stdout, from_artifact.stdout);
        match both.unwrap_err() {
            CliError::Usage(msg) => assert!(msg.contains("not both"), "{msg}"),
            other => panic!("expected a usage error, got {other:?}"),
        }
    }
}
