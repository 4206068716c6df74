//! Integration tests for the `ec-obs` telemetry layer as served over HTTP:
//!
//! 1. `GET /metrics` on a server under concurrent load is always a valid
//!    Prometheus text exposition — every sample belongs to a declared
//!    family, histogram buckets are cumulative with `+Inf == _count` — and
//!    counters are monotone between scrapes;
//! 2. the shard router exposes its own registry (`service="router"` HTTP
//!    series) through the same endpoint;
//! 3. turning stage tracing on (`--trace FILE`) changes no output byte: the
//!    pipeline results with tracing enabled are bit-identical to the run
//!    before it, and the trace file is well-formed JSONL span events.
//!
//! Workload sizes respect `EC_TEST_SCALE` like every root suite.

mod common;

use common::scaled;
use ec_cli::memio::MemFiles;
use ec_cli::{parse, run};
use entity_consolidation::serve::http;
use entity_consolidation::serve::{
    Router, RouterConfig, RouterHandle, ServeConfig, Server, ServerHandle,
};
use std::collections::{BTreeMap, HashMap};

/// Runs one `ec` subcommand in-process against an in-memory namespace.
fn run_cli(argv: &[&str], inputs: &[(&str, &str)]) -> (String, MemFiles) {
    let args: Vec<String> = argv.iter().map(|s| s.to_string()).collect();
    let parsed = parse(&args).expect("argv parses");
    let fs = MemFiles::new();
    for (path, text) in inputs {
        fs.insert(path, text);
    }
    let mut stdin = std::io::Cursor::new(Vec::new());
    let mut prompts = Vec::new();
    let output = run(
        &parsed,
        &fs.input_opener(),
        &fs.output_opener(),
        &mut stdin,
        &mut prompts,
    )
    .expect("command succeeds");
    (output.stdout, fs)
}

fn flat_workload() -> String {
    let clusters = scaled(10).to_string();
    let (stdout, _) = run_cli(
        &[
            "generate",
            "--dataset",
            "address",
            "--clusters",
            &clusters,
            "--seed",
            "37",
            "--flat",
        ],
        &[],
    );
    stdout
}

fn start_server(threads: usize) -> (ServerHandle, std::thread::JoinHandle<()>) {
    let server = Server::bind(ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        threads,
        ..ServeConfig::default()
    })
    .expect("bind an ephemeral port");
    let handle = server.handle();
    let join = std::thread::spawn(move || server.run().expect("server run"));
    (handle, join)
}

/// One scrape: asserts status, content type, and structural validity, then
/// returns the parsed `series → value` samples.
fn scrape(addr: std::net::SocketAddr) -> BTreeMap<String, f64> {
    let response = http::request(addr, "GET", "/metrics", b"").expect("scrape");
    assert_eq!(response.status, 200);
    let content_type = response.header("content-type").expect("content type");
    assert!(
        content_type.starts_with("text/plain"),
        "exposition content type: {content_type}"
    );
    let text = String::from_utf8(response.body).expect("exposition is UTF-8");
    validate_exposition(&text)
}

/// Structural validation of a Prometheus text exposition. Returns the
/// samples so callers can assert on values.
fn validate_exposition(text: &str) -> BTreeMap<String, f64> {
    // Family name → declared type.
    let mut families: HashMap<String, String> = HashMap::new();
    let mut samples: BTreeMap<String, f64> = BTreeMap::new();
    for line in text.lines() {
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut parts = rest.split_whitespace();
            let name = parts.next().expect("TYPE names a family").to_string();
            let kind = parts.next().expect("TYPE declares a kind").to_string();
            assert!(
                matches!(kind.as_str(), "counter" | "gauge" | "histogram"),
                "unknown family kind in {line:?}"
            );
            assert!(
                families.insert(name, kind).is_none(),
                "duplicate TYPE line: {line:?}"
            );
            continue;
        }
        if line.starts_with('#') {
            continue;
        }
        let (series, value) = line.rsplit_once(' ').expect("sample has a value");
        let value: f64 = if value == "+Inf" {
            f64::INFINITY
        } else {
            value
                .parse()
                .unwrap_or_else(|_| panic!("bad value {line:?}"))
        };
        assert!(
            samples.insert(series.to_string(), value).is_none(),
            "duplicate sample: {line:?}"
        );
    }
    assert!(!families.is_empty(), "the exposition declares families");

    // Every sample resolves to a declared family (histogram samples via
    // their `_bucket`/`_sum`/`_count` suffix on a histogram family).
    for series in samples.keys() {
        let name = series.split('{').next().unwrap();
        let declared = families.contains_key(name)
            || ["_bucket", "_sum", "_count"].iter().any(|suffix| {
                name.strip_suffix(suffix)
                    .is_some_and(|base| families.get(base).map(String::as_str) == Some("histogram"))
            });
        assert!(declared, "undeclared sample family: {series}");
    }

    // Histogram buckets are cumulative and consistent: per label set,
    // non-decreasing in `le` with the `+Inf` bucket equal to `_count`.
    for (family, kind) in &families {
        if kind != "histogram" {
            continue;
        }
        // Label set (minus `le`) → ordered (le, cumulative count).
        let mut buckets: HashMap<String, Vec<(f64, f64)>> = HashMap::new();
        let prefix = format!("{family}_bucket{{");
        for (series, &value) in &samples {
            let Some(labels) = series.strip_prefix(&prefix) else {
                continue;
            };
            let labels = labels.strip_suffix('}').expect("balanced label braces");
            let mut le = None;
            let mut rest = Vec::new();
            // Splitting on `",` eats each token's closing quote — restore it
            // so rebuilt series keys match the exposition verbatim.
            for label in labels.split("\",") {
                let label = if label.ends_with('"') {
                    label.to_string()
                } else {
                    format!("{label}\"")
                };
                match label.strip_prefix("le=\"").map(|b| b.trim_end_matches('"')) {
                    Some("+Inf") => le = Some(f64::INFINITY),
                    Some(bound) => le = Some(bound.parse().expect("finite le bound")),
                    None => rest.push(label),
                }
            }
            buckets
                .entry(rest.join(","))
                .or_default()
                .push((le.expect("every bucket has le"), value));
        }
        for (label_set, mut series) in buckets {
            series.sort_by(|a, b| a.0.total_cmp(&b.0));
            let mut previous = 0.0;
            for (le, cumulative) in &series {
                assert!(
                    *cumulative >= previous,
                    "{family}{{{label_set}}} bucket le={le} decreased"
                );
                previous = *cumulative;
            }
            let (last_le, last) = series.last().expect("at least the +Inf bucket");
            assert!(last_le.is_infinite(), "{family} is missing its +Inf bucket");
            let count_series = if label_set.is_empty() {
                format!("{family}_count")
            } else {
                format!("{family}_count{{{label_set}}}")
            };
            assert_eq!(
                samples.get(&count_series),
                Some(last),
                "{count_series} must equal the +Inf bucket"
            );
        }
    }
    samples
}

#[test]
fn server_scrapes_stay_valid_and_monotone_under_concurrent_load() {
    let flat = flat_workload();
    let (handle, join) = start_server(2);

    // Interleave pipeline/apply load with scrapes from several threads: the
    // exposition must be structurally valid at every instant.
    std::thread::scope(|scope| {
        for i in 0..4usize {
            let addr = handle.addr();
            let flat = &flat;
            scope.spawn(move || {
                for _ in 0..2 {
                    let response = http::request(
                        addr,
                        "POST",
                        if i % 2 == 0 {
                            "/pipeline?threshold=0.9&budget=8&mode=approve-all"
                        } else {
                            "/apply"
                        },
                        flat.as_bytes(),
                    )
                    .expect("load request");
                    assert_eq!(response.status, 200);
                    scrape(addr);
                }
            });
        }
    });

    // Counters never move backwards between scrapes (more load in between).
    let first = scrape(handle.addr());
    let response = http::request(handle.addr(), "POST", "/apply", flat.as_bytes()).unwrap();
    assert_eq!(response.status, 200);
    let second = scrape(handle.addr());
    for (series, &was) in &first {
        let name = series.split('{').next().unwrap();
        if !name.ends_with("_total") && !name.ends_with("_count") && !name.ends_with("_bucket") {
            continue;
        }
        let now = second
            .get(series)
            .unwrap_or_else(|| panic!("{series} vanished between scrapes"));
        assert!(*now >= was, "{series} went backwards: {was} -> {now}");
    }

    // The load left its marks: HTTP request counters for the endpoints the
    // clients hit, and the scrape endpoint observed itself.
    let requests = |endpoint: &str| {
        second
            .get(&format!(
                "ec_http_requests_total{{endpoint=\"{endpoint}\",service=\"serve\"}}"
            ))
            .copied()
            .unwrap_or(0.0)
    };
    assert!(requests("/apply") >= 5.0);
    assert!(requests("/pipeline") >= 4.0);
    assert!(requests("/metrics") >= 2.0);

    handle.stop();
    join.join().expect("server thread");
}

#[test]
fn router_exposes_its_own_registry() {
    let (backend, backend_join) = start_server(1);
    let mut config = RouterConfig::new("127.0.0.1:0", vec![backend.addr().to_string()]);
    config.probe_interval = std::time::Duration::from_millis(50);
    let router = Router::bind(config).expect("bind router");
    let handle: RouterHandle = router.handle();
    let join = std::thread::spawn(move || router.run().expect("router run"));

    // A request is counted before its response is sent, so every scrape
    // sees every request answered before it — including earlier scrapes.
    let count = |samples: &BTreeMap<String, f64>, endpoint: &str| {
        let key = format!("ec_http_requests_total{{endpoint=\"{endpoint}\",service=\"router\"}}");
        samples.get(&key).copied().unwrap_or(0.0)
    };
    for round in 1..=8 {
        let health = http::request(handle.addr(), "GET", "/healthz", b"").unwrap();
        assert_eq!(health.status, 200);
        let samples = scrape(handle.addr());
        assert!(
            count(&samples, "/healthz") >= f64::from(round),
            "round {round}: the router's own registry counts its /healthz traffic"
        );
        assert!(
            count(&samples, "/metrics") >= f64::from(round - 1),
            "round {round}: earlier scrapes are counted"
        );
    }

    handle.stop();
    join.join().expect("router thread");
    backend.stop();
    backend_join.join().expect("backend thread");
}

#[test]
fn tracing_changes_no_output_byte_and_writes_wellformed_jsonl() {
    let flat = flat_workload();
    let pipeline_argv = |trace: Option<&str>| -> Vec<String> {
        let mut argv: Vec<String> = [
            "pipeline",
            "--input",
            "flat.csv",
            "--threshold",
            "0.9",
            "--budget",
            "10",
            "--output",
            "std.csv",
            "--golden",
            "golden.csv",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        if let Some(path) = trace {
            argv.extend(["--trace".to_string(), path.to_string()]);
        }
        argv
    };
    let run_pipeline = |trace: Option<&str>| -> (String, String) {
        let argv = pipeline_argv(trace);
        let argv: Vec<&str> = argv.iter().map(String::as_str).collect();
        let (_, fs) = run_cli(&argv, &[("flat.csv", &flat)]);
        (fs.get("std.csv").unwrap(), fs.get("golden.csv").unwrap())
    };

    // Tracing off (the sink is process-global and write-once, so the
    // untraced run must come first), then on, writing to a temp file.
    let (std_off, golden_off) = run_pipeline(None);
    let trace_path =
        std::env::temp_dir().join(format!("ec_metrics_trace_{}.jsonl", std::process::id()));
    let (std_on, golden_on) = run_pipeline(Some(trace_path.to_str().unwrap()));

    assert_eq!(std_off, std_on, "tracing changed the standardized output");
    assert_eq!(golden_off, golden_on, "tracing changed the golden records");

    let trace = std::fs::read_to_string(&trace_path).expect("trace file written");
    let _ = std::fs::remove_file(&trace_path);
    assert!(!trace.trim().is_empty(), "the traced run recorded spans");
    for line in trace.lines() {
        assert!(
            line.starts_with('{') && line.ends_with('}'),
            "span event is one JSON object per line: {line:?}"
        );
        assert!(
            line.contains("\"name\":") && line.contains("\"dur_us\":"),
            "span event carries a stage name and duration: {line:?}"
        );
    }
}
