//! A small, dependency-free command-line argument parser.
//!
//! The `ec` tool only needs `--flag value` options, `--switch` booleans, and
//! one leading subcommand, so a hand-rolled parser keeps the dependency
//! surface to the sanctioned crate list (no `clap`). Unknown flags are
//! rejected so typos fail loudly instead of being ignored.

use crate::CliError;
use std::collections::{BTreeMap, BTreeSet};

/// Parsed command-line arguments: a subcommand plus its options.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ParsedArgs {
    /// The subcommand name (the first non-flag argument).
    pub command: String,
    /// `--key value` options.
    pub options: BTreeMap<String, String>,
    /// `--switch` options with no value.
    pub switches: BTreeSet<String>,
}

impl ParsedArgs {
    /// A string-valued option.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.options.get(key).map(String::as_str)
    }

    /// A required string-valued option.
    pub fn require(&self, key: &str) -> Result<&str, CliError> {
        self.get(key)
            .ok_or_else(|| CliError::Usage(format!("missing required option --{key}")))
    }

    /// An optional numeric option with a default.
    pub fn get_usize(&self, key: &str, default: usize) -> Result<usize, CliError> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| CliError::Usage(format!("--{key} expects an integer, got '{v}'"))),
        }
    }

    /// An optional u64 option with a default.
    pub fn get_u64(&self, key: &str, default: u64) -> Result<u64, CliError> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| CliError::Usage(format!("--{key} expects an integer, got '{v}'"))),
        }
    }

    /// An optional float option with a default.
    pub fn get_f64(&self, key: &str, default: f64) -> Result<f64, CliError> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| CliError::Usage(format!("--{key} expects a number, got '{v}'"))),
        }
    }

    /// Whether a boolean switch was passed.
    pub fn has(&self, switch: &str) -> bool {
        self.switches.contains(switch)
    }
}

/// The flags each subcommand accepts: (value options, boolean switches).
fn accepted(command: &str) -> Option<(&'static [&'static str], &'static [&'static str])> {
    match command {
        "generate" => Some((
            &["dataset", "clusters", "seed", "sources", "output"],
            &["flat"],
        )),
        "profile" => Some((&["input", "name"], &[])),
        "groups" => Some((
            &["input", "column", "top", "max-path-len", "threads"],
            &["no-affix", "no-structure"],
        )),
        "consolidate" => Some((
            &[
                "input",
                "artifact",
                "column",
                "budget",
                "mode",
                "output",
                "golden",
                "truth-method",
                "threads",
                "save-library",
            ],
            &[],
        )),
        "resolve" => Some((&["input", "threshold", "output", "name", "threads"], &[])),
        "pipeline" => Some((
            &[
                "input",
                "artifact",
                "threshold",
                "name",
                "column",
                "budget",
                "mode",
                "output",
                "golden",
                "truth-method",
                "threads",
                "save-library",
            ],
            &[],
        )),
        "ingest" => Some((
            &[
                "input",
                "batch-size",
                "threshold",
                "name",
                "budget",
                "mode",
                "truth-method",
                "output",
                "golden",
                "threads",
                "save-library",
            ],
            &[],
        )),
        "apply" => Some((&["input", "artifact", "library", "output"], &[])),
        "compile" => Some((
            &[
                "input",
                "output",
                "threshold",
                "name",
                "threads",
                "emit-flat",
            ],
            &[],
        )),
        "serve" => Some((
            &[
                "addr",
                "threads",
                "library",
                "library-cap",
                "library-ttl",
                "max-connections",
                "route",
                "artifact",
                "auth-token",
            ],
            &[],
        )),
        "help" | "" => Some((&[], &[])),
        _ => None,
    }
}

/// Parses the raw argument list (excluding the program name).
pub fn parse(args: &[String]) -> Result<ParsedArgs, CliError> {
    let mut parsed = ParsedArgs::default();
    let mut iter = args.iter().peekable();
    match iter.next() {
        None => {
            parsed.command = "help".to_string();
            return Ok(parsed);
        }
        Some(cmd) if cmd.starts_with("--") => {
            return Err(CliError::Usage(format!(
                "expected a subcommand before '{cmd}'; run `ec help`"
            )))
        }
        Some(cmd) => parsed.command = cmd.clone(),
    }
    let Some((value_opts, switch_opts)) = accepted(&parsed.command) else {
        return Err(CliError::Usage(format!(
            "unknown subcommand '{}'; run `ec help`",
            parsed.command
        )));
    };
    while let Some(arg) = iter.next() {
        let Some(name) = arg.strip_prefix("--") else {
            return Err(CliError::Usage(format!(
                "unexpected positional argument '{arg}'"
            )));
        };
        if switch_opts.contains(&name) {
            parsed.switches.insert(name.to_string());
        } else if value_opts.contains(&name) || name == "trace" {
            // `--trace FILE` is global: every subcommand can write its stage
            // spans as JSONL (equivalent to running with EC_TRACE=FILE).
            let value = iter
                .next()
                .ok_or_else(|| CliError::Usage(format!("--{name} requires a value")))?;
            parsed.options.insert(name.to_string(), value.clone());
        } else {
            return Err(CliError::Usage(format!(
                "unknown option --{name} for subcommand '{}'",
                parsed.command
            )));
        }
    }
    Ok(parsed)
}

/// The `ec help` text.
pub fn usage() -> String {
    "\
ec — entity consolidation from the command line

USAGE:
  ec <subcommand> [options]

SUBCOMMANDS:
  generate     generate one of the paper's synthetic datasets as clustered CSV
               (or as flat record CSV with --flat)
                 --dataset authorlist|address|journaltitle  --clusters N
                 --seed N  --sources N  [--flat]  --output FILE
  profile      profile a clustered CSV: per-column statistics, structure
               histograms and a standardization priority ranking
                 --input FILE  [--name NAME]
  groups       show the largest replacement groups of one column
                 --input FILE  --column NAME|INDEX  [--top K]
                 [--max-path-len N]  [--no-affix]  [--no-structure]
                 [--threads N]
  consolidate  standardize columns and emit golden records
                 --input FILE  [--artifact FILE]  [--column NAME|INDEX]
                 [--budget N]  [--mode auto|approve-all|interactive]
                 [--truth-method majority|reliability]
                 [--output FILE]  [--golden FILE]  [--threads N]
                 [--save-library FILE]
  resolve      cluster flat (unresolved) records into a clustered CSV,
               streaming the input record by record
                 --input FILE  [--threshold T]  [--name NAME]  [--output FILE]
                 [--threads N]
  pipeline     fused resolve + consolidate: flat record CSV in, golden-record
               CSV out, with no intermediate clustered file; output is
               bit-identical to running resolve then consolidate
                 --input FILE  [--artifact FILE]  [--threshold T]
                 [--name NAME]  [--column NAME|INDEX]  [--budget N]
                 [--mode auto|approve-all|interactive]
                 [--truth-method majority|reliability]
                 [--output FILE]  [--golden FILE]  [--threads N]
                 [--save-library FILE]
  ingest       incremental (delta) pipeline: stream flat records in batches
               through a persistent consolidation state; the final golden
               output is byte-identical to `ec pipeline` over the same
               records, but seen shapes score no pairs and run no pivot
               search (residue pays for the learning)
                 --input FILE  [--batch-size N]  [--threshold T]
                 [--name NAME]  [--budget N]  [--mode auto|approve-all]
                 [--truth-method majority|reliability]
                 [--output FILE]  [--golden FILE]  [--threads N]
                 [--save-library FILE]
  apply        standardize flat records through a saved program library —
               learn once, apply forever, no re-learning
                 --input FILE  --library FILE  [--output FILE]
                 (--artifact FILE replaces --input: apply to the compiled
                 dataset's own records)
  compile      compile a dataset into a binary artifact for instant cold
               start: interned label tables, prepared transformation graphs
               and the CSR inverted index, ready to be memory-mapped by
               pipeline/consolidate/apply/serve via --artifact — no parse,
               resolve, candidate generation or index build at load time
                 --input FILE (flat or clustered CSV)  --output FILE
                 [--threshold T]  [--name NAME]  [--threads N]
                 [--emit-flat FILE]  (also write the compiled records as
                                      flat CSV, for byte-compare testing)
  serve        run the consolidation HTTP service on the shared worker pool
               (endpoints: /healthz /metrics /library /pipeline /apply
               /shutdown; connections are kept alive across sequential
               requests)
                 [--addr HOST:PORT]  [--threads N]  [--library FILE]
                 [--library-cap N]   (cap learned entries per column, LRU
                                      eviction; 0 = unbounded, the default)
                 [--library-ttl SECS]  (evict library entries untouched for
                                      SECS seconds; 0 = never, the default)
                 [--max-connections N]  (reject connections over N with 503
                                      + Retry-After; 0 = unbounded)
                 [--auth-token SECRET]  (require `Authorization: Bearer
                                      SECRET` on all mutating endpoints;
                                      routers forward it to their backends)
                 [--artifact FILE]  (memory-map a compiled artifact at
                                      startup; an empty-body POST /pipeline
                                      or /apply then replays the compiled
                                      dataset instead of parsing a body)
               with --route, run as a shard router instead: partition work
               across backend ec serve processes over a consistent-hash
               ring (/apply shards by column, /pipeline routes whole by
               blocking key, libraries replicate across backends)
                 --route HOST:PORT,HOST:PORT,...  [--addr HOST:PORT]
  help         show this message

Clustered CSV has columns: cluster, source, <attr>..., [<attr>__truth]...
Flat CSV has columns: source, <attr>...

Inputs are consumed through streaming, buffered readers, and --output files
are streamed cluster-at-a-time: neither the CSV document nor the produced
file is ever buffered whole (only the parsed records / clusters a command
works on are held in memory). --threads N sets the worker shards for
candidate generation and grouping (0 = auto: the EC_THREADS environment
variable, else the machine); the work runs on one process-wide
work-stealing pool. Results are bit-identical for every thread count.

The program-library workflow is learn -> save -> apply: a consolidate or
pipeline run with --save-library FILE stores every group the oracle
approved as a text snapshot; `ec apply` (or a running `ec serve`)
standardizes new records through that snapshot without re-learning.

Every subcommand accepts --trace FILE (equivalent to EC_TRACE=FILE):
pipeline stages append one JSON line per span — name, span/parent ids,
thread, start/end/duration in microseconds — for offline latency analysis.
A running serve/router additionally exposes the live metrics registry
(counters, gauges, latency histograms) on GET /metrics in Prometheus text
format.
"
    .to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_subcommand_options_and_switches() {
        let p = parse(&args(&[
            "groups",
            "--input",
            "data.csv",
            "--column",
            "Address",
            "--top",
            "5",
            "--no-affix",
        ]))
        .unwrap();
        assert_eq!(p.command, "groups");
        assert_eq!(p.get("input"), Some("data.csv"));
        assert_eq!(p.get("column"), Some("Address"));
        assert_eq!(p.get_usize("top", 10).unwrap(), 5);
        assert!(p.has("no-affix"));
        assert!(!p.has("no-structure"));
    }

    #[test]
    fn empty_args_mean_help() {
        assert_eq!(parse(&[]).unwrap().command, "help");
    }

    #[test]
    fn unknown_subcommand_is_rejected() {
        let err = parse(&args(&["frobnicate"])).unwrap_err();
        assert!(matches!(err, CliError::Usage(msg) if msg.contains("frobnicate")));
    }

    #[test]
    fn unknown_option_is_rejected() {
        let err = parse(&args(&["profile", "--bogus", "x"])).unwrap_err();
        assert!(matches!(err, CliError::Usage(msg) if msg.contains("--bogus")));
    }

    #[test]
    fn option_without_value_is_rejected() {
        let err = parse(&args(&["profile", "--input"])).unwrap_err();
        assert!(matches!(err, CliError::Usage(msg) if msg.contains("requires a value")));
    }

    #[test]
    fn flag_before_subcommand_is_rejected() {
        assert!(parse(&args(&["--input", "x"])).is_err());
        assert!(parse(&args(&["generate", "stray"])).is_err());
    }

    #[test]
    fn numeric_accessors_validate() {
        let p = parse(&args(&["generate", "--clusters", "abc"])).unwrap();
        assert!(p.get_usize("clusters", 10).is_err());
        assert_eq!(
            p.get_usize("seed", 7).unwrap(),
            7,
            "missing option falls back to default"
        );
        let p = parse(&args(&["resolve", "--threshold", "0.8"])).unwrap();
        assert!((p.get_f64("threshold", 0.5).unwrap() - 0.8).abs() < 1e-9);
        assert!(parse(&args(&["resolve", "--threshold", "x"]))
            .unwrap()
            .get_f64("threshold", 0.5)
            .is_err());
    }

    #[test]
    fn require_reports_the_missing_flag() {
        let p = parse(&args(&["profile"])).unwrap();
        let err = p.require("input").unwrap_err();
        assert!(matches!(err, CliError::Usage(msg) if msg.contains("--input")));
    }

    #[test]
    fn usage_mentions_every_subcommand() {
        let text = usage();
        for cmd in [
            "generate",
            "profile",
            "groups",
            "consolidate",
            "resolve",
            "pipeline",
            "ingest",
            "apply",
            "compile",
            "serve",
        ] {
            assert!(text.contains(cmd));
        }
    }
}
