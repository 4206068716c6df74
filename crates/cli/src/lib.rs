//! # ec-cli — the `ec` command-line tool
//!
//! A thin, file-oriented front end over the `entity-consolidation` workspace:
//! it reads clustered (or flat) CSV files, runs the profiling / grouping /
//! consolidation / resolution machinery, and writes standardized CSV and
//! golden-record CSV files back out — plus `ec serve`, which turns the same
//! machinery into a long-lived HTTP service.
//!
//! All command logic lives in this library crate and is pure with respect to
//! the file system: commands receive a reader over their input (consumed
//! incrementally through the `ec-data` streaming CSV readers, so the raw
//! document is never buffered whole) and an *output opener* mapping an
//! `--output` path to a writer, through which they stream their results
//! cluster-at-a-time — no output file is ever materialized in memory either.
//! Every subcommand is therefore unit-testable without touching disk (see
//! [`memio`]); the `ec` binary in `main.rs` is only argument collection and
//! buffered file opening.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod args;
pub mod commands;
pub mod interactive;
pub mod memio;

pub use args::{parse, usage, ParsedArgs};
pub use interactive::InteractiveOracle;

use std::fmt;

/// An error surfaced to the `ec` user.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CliError {
    /// The command line was malformed (unknown flag, missing value, …).
    Usage(String),
    /// A file could not be read or written.
    Io(String),
    /// The input data could not be parsed or is inconsistent.
    Data(String),
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::Usage(msg) => write!(f, "usage error: {msg}"),
            CliError::Io(msg) => write!(f, "io error: {msg}"),
            CliError::Data(msg) => write!(f, "data error: {msg}"),
        }
    }
}

impl std::error::Error for CliError {}

impl From<ec_data::DatasetIoError> for CliError {
    fn from(e: ec_data::DatasetIoError) -> Self {
        CliError::Data(e.to_string())
    }
}

/// What a subcommand produced: text for stdout plus the paths it streamed
/// output files to (already written through the output opener by the time
/// the command returns — nothing is buffered for the caller to write).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct CommandOutput {
    /// Text to print to standard output.
    pub stdout: String,
    /// Paths of the files the command wrote, in write order. The binary
    /// echoes one `wrote <path>` line per entry.
    pub written: Vec<String>,
}

impl CommandOutput {
    /// An output that only prints text.
    pub fn text(stdout: impl Into<String>) -> Self {
        CommandOutput {
            stdout: stdout.into(),
            written: Vec::new(),
        }
    }

    /// Records a path as written.
    pub fn note_written(mut self, path: impl Into<String>) -> Self {
        self.written.push(path.into());
        self
    }
}

/// The reader a command consumes its `--input` through. Commands parse it
/// incrementally (via the `ec-data` streaming CSV readers), so the opener
/// should hand back a *buffered* reader — the binary wraps `File` in a
/// `BufReader`, tests use [`memio`] — and the input never has to fit in
/// memory.
pub type InputReader = Box<dyn std::io::Read>;

/// The writer a command streams an `--output` file through. The binary hands
/// back a `BufWriter<File>`; tests use [`memio`]. Commands write
/// cluster-at-a-time (or record-at-a-time) and flush before returning, so
/// the produced file never has to fit in memory.
pub type OutputSink = Box<dyn std::io::Write>;

/// Maps an `--input` path to a reader.
pub type OpenInput<'a> = &'a dyn Fn(&str) -> Result<InputReader, CliError>;

/// Maps an `--output` path to a writer.
pub type OpenOutput<'a> = &'a dyn Fn(&str) -> Result<OutputSink, CliError>;

/// Runs one parsed subcommand. `open_input` maps an `--input` (or
/// `--library`) path to a reader over its contents; `open_output` maps an
/// `--output` path to a writer the command streams into; `stdin` provides
/// the answers and `prompt_out` receives the prompts of
/// `--mode interactive` (and `ec serve`'s startup line).
pub fn run(
    parsed: &ParsedArgs,
    open_input: OpenInput<'_>,
    open_output: OpenOutput<'_>,
    stdin: &mut dyn std::io::BufRead,
    prompt_out: &mut dyn std::io::Write,
) -> Result<CommandOutput, CliError> {
    // `--trace FILE` turns on stage tracing before any stage runs. The sink
    // is process-global and write-once (like EC_TRACE), so only the first
    // `run` of a process can set it.
    if let Some(path) = parsed.get("trace") {
        ec_obs::trace::init(path)
            .map_err(|e| CliError::Io(format!("cannot open --trace {path}: {e}")))?;
    }
    match parsed.command.as_str() {
        "help" => Ok(CommandOutput::text(usage())),
        "generate" => commands::generate(parsed, open_output),
        "profile" => {
            let input = open_input(parsed.require("input")?)?;
            commands::profile(parsed, input)
        }
        "groups" => {
            let input = open_input(parsed.require("input")?)?;
            commands::groups(parsed, input)
        }
        "consolidate" => {
            let input = open_artifact_input(parsed, open_input)?;
            commands::consolidate(parsed, input, open_output, stdin, prompt_out)
        }
        "resolve" => {
            let input = open_input(parsed.require("input")?)?;
            commands::resolve(parsed, input, open_output)
        }
        "pipeline" => {
            let input = open_artifact_input(parsed, open_input)?;
            commands::pipeline(parsed, input, open_output, stdin, prompt_out)
        }
        "ingest" => {
            let input = open_input(parsed.require("input")?)?;
            commands::ingest(parsed, input, open_output)
        }
        "apply" => commands::apply(parsed, open_input, open_output),
        "compile" => {
            let input = open_input(parsed.require("input")?)?;
            commands::compile(parsed, input, open_output)
        }
        "serve" => commands::serve(parsed, open_input, prompt_out),
        other => Err(CliError::Usage(format!("unknown subcommand '{other}'"))),
    }
}

/// Opens `--input` for a command that can run from a compiled `--artifact`
/// instead: with an artifact and no input, the command gets an empty reader
/// (the artifact supplies the dataset); without either, the usual missing
/// `--input` error.
fn open_artifact_input(
    parsed: &ParsedArgs,
    open_input: OpenInput<'_>,
) -> Result<InputReader, CliError> {
    match parsed.get("input") {
        Some(path) => open_input(path),
        None if parsed.get("artifact").is_some() => Ok(Box::new(std::io::empty())),
        None => Err(CliError::Usage(
            "missing required option --input".to_string(),
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use memio::MemFiles;

    fn run_cli(
        argv: &[&str],
        inputs: &[(&str, &str)],
    ) -> Result<(CommandOutput, MemFiles), CliError> {
        let args: Vec<String> = argv.iter().map(|s| s.to_string()).collect();
        let parsed = parse(&args)?;
        let fs = MemFiles::new();
        for (path, text) in inputs {
            fs.insert(path, text);
        }
        let mut empty = std::io::Cursor::new(Vec::new());
        let mut prompts = Vec::new();
        let output = run(
            &parsed,
            &fs.input_opener(),
            &fs.output_opener(),
            &mut empty,
            &mut prompts,
        )?;
        Ok((output, fs))
    }

    #[test]
    fn help_prints_usage() {
        let (out, _) = run_cli(&["help"], &[]).unwrap();
        assert!(out.stdout.contains("SUBCOMMANDS"));
        assert!(out.written.is_empty());
        let (out, _) = run_cli(&[], &[]).unwrap();
        assert!(out.stdout.contains("SUBCOMMANDS"));
    }

    #[test]
    fn missing_input_file_is_an_io_error() {
        let err = run_cli(&["profile", "--input", "nope.csv"], &[]).unwrap_err();
        assert!(matches!(err, CliError::Io(_)));
    }

    #[test]
    fn end_to_end_generate_then_profile_then_consolidate() {
        // Generate a small Address dataset to a file...
        let (generated, fs) = run_cli(
            &[
                "generate",
                "--dataset",
                "address",
                "--clusters",
                "12",
                "--seed",
                "9",
                "--output",
                "addr.csv",
            ],
            &[],
        )
        .unwrap();
        assert_eq!(generated.written, vec!["addr.csv".to_string()]);
        let csv = fs.get("addr.csv").expect("generate wrote the file");
        assert!(csv.starts_with("cluster,source,"));

        // ...profile it...
        let (profiled, _) =
            run_cli(&["profile", "--input", "addr.csv"], &[("addr.csv", &csv)]).unwrap();
        assert!(profiled.stdout.contains("standardization priority"));

        // ...and consolidate it with the simulated oracle.
        let (consolidated, fs) = run_cli(
            &[
                "consolidate",
                "--input",
                "addr.csv",
                "--budget",
                "15",
                "--mode",
                "auto",
                "--output",
                "out.csv",
                "--golden",
                "golden.csv",
            ],
            &[("addr.csv", &csv)],
        )
        .unwrap();
        assert!(consolidated.stdout.contains("golden records"));
        assert_eq!(consolidated.written.len(), 2);
        let golden = fs.get("golden.csv").expect("golden file written");
        assert!(golden.lines().count() > 1);
    }

    #[test]
    fn error_display_prefixes_the_kind() {
        assert!(CliError::Usage("x".into())
            .to_string()
            .starts_with("usage error"));
        assert!(CliError::Io("x".into()).to_string().starts_with("io error"));
        assert!(CliError::Data("x".into())
            .to_string()
            .starts_with("data error"));
    }
}
