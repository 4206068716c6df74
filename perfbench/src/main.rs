//! `perfbench`: the repository benchmark.
//!
//! ```text
//! perfbench --workload consolidate|ingest|apply --seed N --seconds S --trace 0|1
//!           [--workdir DIR]
//! ```
//!
//! Each workload makes its inputs from the seed, sets itself up several
//! times (the median is `setup_s`), measures for `--seconds`, checks its
//! outputs, and prints a human-readable log followed by one JSON line:
//! `{"correct", "attempted", "failed", "metrics"}`. With `--trace 0` the
//! metrics are the end-to-end ones of `spec::END_TO_END`; with `--trace 1`
//! the workload additionally runs a traced pass (spans around the
//! benchmark's own calls into each crate) and the metrics are the per-layer
//! ones of `spec::PER_LAYER`. The process exits 1 when a correctness gate
//! fails and 2 on a usage error. `README.md` documents the workloads.

mod apply;
mod consolidate;
mod ingest;
#[cfg(test)]
mod json;
mod spec;
mod stats;
mod sys;
mod trace;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub workdir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut workdir = PathBuf::from(".perfbench-work");
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args
            .next()
            .ok_or_else(|| format!("{flag} expects a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag} expects a whole number, got '{value}'"))
        };
        match flag.as_str() {
            "--workload" if spec::WORKLOADS.contains(&value.as_str()) => workload = Some(value),
            "--workload" => return Err(format!("unknown workload '{value}'")),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?.max(1) as f64),
            "--trace" => trace = Some(number()? != 0),
            "--workdir" => workdir = PathBuf::from(value),
            _ => return Err(format!("unknown flag '{flag}'")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        workdir,
    })
}

/// What one workload run produced.
#[derive(Default)]
pub struct Report {
    /// Operations attempted (requests, batches, consolidations) plus one per
    /// correctness gate.
    pub attempted: u64,
    /// Operations that failed plus gates that failed.
    pub failed: u64,
    /// `(gate, passed)` for every correctness gate checked.
    pub gates: Vec<(String, bool)>,
    /// The end-to-end metrics (`spec::END_TO_END` names).
    pub end_to_end: BTreeMap<&'static str, f64>,
    /// The workload's own metric names (e.g. `consolidate_s`), printed by
    /// name and unit in the log.
    pub named: Vec<(&'static str, f64, &'static str)>,
    /// Per-layer metrics of the traced run (`spec::PER_LAYER` names).
    pub per_layer: BTreeMap<&'static str, f64>,
}

impl Report {
    pub fn gate(&mut self, name: impl Into<String>, passed: bool) {
        self.attempted += 1;
        if !passed {
            self.failed += 1;
        }
        self.gates.push((name.into(), passed));
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.gates.iter().all(|(_, ok)| *ok)
    }
}

/// Renders a metric value with every digit it has; JSON has no NaN or
/// infinity, so a non-finite value is a bug worth failing loudly on.
fn number(value: f64) -> String {
    assert!(value.is_finite(), "non-finite metric value {value}");
    format!("{value:?}")
}

fn result_line(report: &Report, trace: bool, workload: &str) -> String {
    let metrics: Vec<String> = if trace {
        spec::PER_LAYER
            .iter()
            .map(|layer| {
                let value = report.per_layer.get(layer.name).copied();
                assert!(
                    value.is_some() || !layer.workloads.contains(&workload),
                    "{workload} must measure {}",
                    layer.name
                );
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    layer.name,
                    number(value.unwrap_or(0.0)),
                    layer.unit
                )
            })
            .collect()
    } else {
        spec::END_TO_END
            .iter()
            .map(|(name, unit, _)| {
                let value = report.end_to_end.get(name).copied();
                let value = value.unwrap_or_else(|| panic!("{workload} must report {name}"));
                format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    number(value)
                )
            })
            .collect()
    };
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.correct(),
        report.attempted.max(1),
        report.failed,
        metrics.join(", ")
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("perfbench: {message}");
            eprintln!(
                "usage: perfbench --workload consolidate|ingest|apply --seed N --seconds S \
                 --trace 0|1 [--workdir DIR]"
            );
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&args.workdir) {
        eprintln!("perfbench: cannot create {}: {e}", args.workdir.display());
        return ExitCode::from(2);
    }
    println!(
        "perfbench: workload {} seed {} seconds {} trace {} (available parallelism {})",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );
    let report = match args.workload.as_str() {
        "consolidate" => consolidate::run(&args),
        "ingest" => ingest::run(&args),
        _ => apply::run(&args),
    };

    let failed_frac = report.failed as f64 / report.attempted.max(1) as f64;
    for (name, value, unit) in
        report
            .named
            .iter()
            .copied()
            .chain(std::iter::once(("failed_frac", failed_frac, "ratio")))
    {
        println!("metric {name} = {value:.6} {unit}");
    }
    for (name, value) in &report.end_to_end {
        println!(
            "end-to-end {name} = {value:.6} {}",
            spec::end_to_end_unit(name)
        );
    }
    for layer in spec::PER_LAYER {
        if let Some(value) = report.per_layer.get(layer.name) {
            println!(
                "layer {} = {value:.6} {} ({} is better; moves {})",
                layer.name,
                layer.unit,
                layer.better,
                layer.moves.join(", ")
            );
        }
    }
    for (gate, passed) in &report.gates {
        println!("gate {gate}: {}", if *passed { "ok" } else { "FAILED" });
    }
    println!("{}", result_line(&report, args.trace, &args.workload));
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// Dumps a traced pass's spans to `<workdir>/trace-<workload>-<seed>.jsonl`.
pub fn write_trace(args: &Args, tracer: &trace::Tracer) {
    let path = args
        .workdir
        .join(format!("trace-{}-{}.jsonl", args.workload, args.seed));
    match std::fs::File::create(&path).and_then(|mut f| tracer.dump(&mut f)) {
        Ok(()) => println!("spans written to {}", path.display()),
        Err(e) => eprintln!("perfbench: cannot write {}: {e}", path.display()),
    }
}
