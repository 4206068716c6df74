//! `apply`: one `ec serve --threads 2 --library L` child process under a
//! closed loop of `POST /apply` from two keep-alive connections.
//!
//! Set-up learns `L` with the simulated expert from a 10-cluster address
//! sample, saves its snapshot, starts the server and waits for `/healthz`.
//! The measured loop runs in segments, each against a freshly started
//! server from the same snapshot.
//! Each request body is 200 flat address records: 100 whose values the
//! library learned from, 100 from 200 clusters it has never seen. Every
//! response must be 200, keep its record count, and equal byte for byte what
//! `LibraryApplier` writes in-process for the same body.
//!
//! Today's baseline carries a known defect (see `README.md`): a learned
//! program that is only a constant string rewrites *every* unseen value, so
//! `precision` here is far below 1.

use crate::stats::{self, median, Summary};
use crate::trace::{same_leading_order, Tracer};
use crate::{sys, Args, Report};
use ec_core::{
    standardize_columns, ApplyReport, AutoMode, ConsolidationConfig, Pipeline, ProgramLibrary,
};
use ec_data::csv::CsvWriter;
use ec_data::{FlatCsvReader, GeneratorConfig, PaperDataset, RecordStream};
use ec_serve::http::ClientConn;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// The learning sample: address generator seed 3, 10 clusters — the same
/// library every run, so its size (and so the cost of a lookup) is fixed.
const LEARN_SEED: u64 = 3;
const LEARN_CLUSTERS: usize = 10;
const UNSEEN_CLUSTERS: usize = 200;
const BUDGET: usize = 50;
const RECORDS: usize = 200;
const BODIES: usize = 4;
const CONNECTIONS: usize = 2;
/// Requests per connection before the client reconnects. A served
/// connection stays on its worker only while the next request arrives within
/// the server's 1 ms keep-alive grace; otherwise it parks and resumes on a
/// watcher thread. On two cores, whether a long-lived closed-loop pair keeps
/// hitting the grace depends on where the scheduler happened to place the
/// four threads, which flips a whole run's median by 50%. Reconnecting
/// re-draws that placement many times per run.
const RECONNECT_EVERY: usize = 200;
const SETUP_REPEATS: usize = 5;
/// The measured time is split into this many segments, each against a
/// freshly started server with fresh client threads, and the request rate
/// is their mean. Even with reconnects, one server process keeps a rate of
/// its own while it runs (±10% between servers started one after another),
/// so a run against a single server measures mostly which rate it drew.
const SEGMENTS: usize = 10;
/// Untimed closed-loop time at the start of each segment.
const WARM_UP_S: f64 = 0.25;
/// Requests of the traced pass (and of the untraced pass it is compared with).
const TRACE_REQUESTS: usize = 100;

/// One `/apply` body with the truth of every record and the bytes the
/// in-process applier writes for it.
struct Body {
    csv: Vec<u8>,
    truth: Vec<String>,
    observed: Vec<String>,
    expected: Vec<u8>,
    report: ApplyReport,
}

/// Learns the library from the 10-cluster address sample with the simulated
/// expert, returning it and the sample's `(observed, truth)` cells.
fn learn() -> (ProgramLibrary, Vec<(String, String)>) {
    let mut sample = PaperDataset::Address.generate(&GeneratorConfig {
        num_clusters: LEARN_CLUSTERS,
        seed: LEARN_SEED,
        ..PaperDataset::Address.default_config()
    });
    let cells = sample
        .clusters
        .iter()
        .flat_map(|c| c.rows.iter())
        .map(|r| (r.cells[0].observed.clone(), r.cells[0].truth.clone()))
        .collect();
    let pipeline = Pipeline::new(ConsolidationConfig {
        budget: BUDGET,
        ..ConsolidationConfig::default()
    });
    let mut library = ProgramLibrary::new();
    standardize_columns(
        &pipeline,
        &mut sample,
        &[0],
        AutoMode::Auto,
        true,
        Some(&mut library),
    );
    (library, cells)
}

/// Builds the bodies from the seed: seen cells come from the learning
/// sample, unseen ones walk a 200-cluster sample generated from the seed.
fn bodies(seed: u64, library: &ProgramLibrary, seen: &[(String, String)]) -> Vec<Body> {
    let mut rng = StdRng::seed_from_u64(seed);
    let unseen_sample = PaperDataset::Address.generate(&GeneratorConfig {
        num_clusters: UNSEEN_CLUSTERS,
        seed: seed.wrapping_add(LEARN_SEED + 1),
        ..PaperDataset::Address.default_config()
    });
    let unseen: Vec<(String, String)> = unseen_sample
        .clusters
        .iter()
        .flat_map(|c| c.rows.iter())
        .map(|r| (r.cells[0].observed.clone(), r.cells[0].truth.clone()))
        .collect();
    let columns = vec!["address".to_string()];
    let applier = library.applier(&columns);
    // Seen cells cycle through the whole learning sample from a seeded
    // offset, so every run applies the same mix of learned values.
    let offset = rng.gen_range(0..seen.len());
    (0..BODIES)
        .map(|b| {
            let half = RECORDS / 2;
            let cells: Vec<&(String, String)> = (0..half)
                .map(|i| &seen[(offset + b * half + i) % seen.len()])
                .chain((0..half).map(|i| &unseen[(b * half + i) % unseen.len()]))
                .collect();
            let mut csv = CsvWriter::new(Vec::new());
            let mut expected = CsvWriter::new(Vec::new());
            csv.write_record(["source", "address"])
                .expect("in-memory write");
            expected
                .write_record(["source", "address"])
                .expect("in-memory write");
            let mut report = ApplyReport::default();
            for (i, (observed, _)) in cells.iter().enumerate() {
                let source = (i % 6).to_string();
                csv.write_record([source.as_str(), observed.as_str()])
                    .expect("in-memory write");
                let mut fields = vec![observed.clone()];
                applier.apply_fields(&mut fields, &mut report);
                expected
                    .write_record([source.as_str(), fields[0].as_str()])
                    .expect("in-memory write");
            }
            csv.flush().expect("in-memory write");
            expected.flush().expect("in-memory write");
            Body {
                csv: csv.into_inner(),
                truth: cells.iter().map(|(_, t)| t.clone()).collect(),
                observed: cells.iter().map(|(o, _)| o.clone()).collect(),
                expected: expected.into_inner(),
                report,
            }
        })
        .collect()
}

/// The addresses of a flat CSV body, parsed the way the `/apply` handler
/// parses its input.
fn parse_addresses(csv: &[u8]) -> Vec<String> {
    let mut reader = FlatCsvReader::new(csv).expect("flat CSV header");
    let mut out = Vec::new();
    while let Some(record) = reader.next_record() {
        out.push(record.expect("flat CSV row").fields.swap_remove(0));
    }
    out
}

/// A running `ec serve`; shut down and reaped on drop.
struct Server {
    child: Child,
    addr: SocketAddr,
}

impl Server {
    fn start(library: &Path) -> Server {
        let ec = std::env::current_exe()
            .expect("current_exe")
            .with_file_name("ec");
        let mut child = Command::new(&ec)
            .args([
                "serve",
                "--addr",
                "127.0.0.1:0",
                "--threads",
                "2",
                "--library",
            ])
            .arg(library)
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .unwrap_or_else(|e| panic!("cannot start {}: {e}", ec.display()));
        // The first stdout line names the bound address.
        let mut banner = String::new();
        BufReader::new(child.stdout.take().expect("piped stdout"))
            .read_line(&mut banner)
            .expect("read the serve banner");
        let addr = banner
            .split_whitespace()
            .find_map(|token| token.parse::<SocketAddr>().ok())
            .unwrap_or_else(|| panic!("no listen address in {banner:?}"));
        let server = Server { child, addr };
        for _ in 0..400 {
            let healthy = ClientConn::connect(addr, Some(Duration::from_millis(250)))
                .and_then(|mut conn| {
                    conn.set_read_timeout(Some(Duration::from_secs(2)))?;
                    conn.request("GET", "/healthz", b"", false)
                })
                .is_ok_and(|r| r.status == 200);
            if healthy {
                return server;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        panic!("{addr} never became healthy");
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Ok(mut conn) = ClientConn::connect(self.addr, Some(Duration::from_millis(250))) {
            let _ = conn.set_read_timeout(Some(Duration::from_secs(2)));
            let _ = conn.request("POST", "/shutdown", b"", false);
        }
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Everything set-up produces.
struct Setup {
    library: ProgramLibrary,
    seen: Vec<(String, String)>,
    server: Server,
}

fn setup(snapshot: &Path) -> Setup {
    let (library, seen) = learn();
    std::fs::write(snapshot, library.to_snapshot()).expect("write the library snapshot");
    let server = Server::start(snapshot);
    Setup {
        library,
        seen,
        server,
    }
}

/// What one connection's closed loop saw: the latency of every good
/// response (ms), when each completed (s since the loop started), and how
/// many requests failed.
#[derive(Default)]
struct ClientRun {
    latencies: Vec<f64>,
    done_at: Vec<f64>,
    failures: u64,
}

/// One connection's closed loop from `start` until `deadline`.
fn client(
    addr: SocketAddr,
    bodies: &[Body],
    first: usize,
    start: Instant,
    deadline: Instant,
) -> ClientRun {
    let mut run = ClientRun::default();
    let mut conn = None;
    let mut i = first;
    while Instant::now() < deadline {
        let body = &bodies[i % bodies.len()];
        i += 1;
        if conn.is_none() {
            conn = ClientConn::connect(addr, Some(Duration::from_secs(2))).ok();
        }
        let Some(c) = conn.as_mut() else {
            run.failures += 1;
            continue;
        };
        let sent = Instant::now();
        match c.request("POST", "/apply", &body.csv, true) {
            Ok(response) if response.status == 200 && response.body == body.expected => {
                run.latencies.push(sent.elapsed().as_secs_f64() * 1e3);
                run.done_at.push(start.elapsed().as_secs_f64());
                if run.latencies.len() % RECONNECT_EVERY == 0 {
                    conn = None;
                }
            }
            Ok(_) => run.failures += 1,
            Err(_) => {
                run.failures += 1;
                conn = None;
            }
        }
    }
    run
}

/// One measured segment: the latencies (ms) and request rate of the
/// requests that completed after the warm-up, every request sent and every
/// failure (warm-up included), and the server-side figures of
/// [`server_figures`].
struct Segment {
    latencies: Vec<f64>,
    requests_per_s: f64,
    attempted: u64,
    failures: u64,
    figures: (f64, f64),
}

/// Runs `CONNECTIONS` closed loops against `server` for a warm-up of
/// `WARM_UP_S` plus `seconds`, counting only what completes after the
/// warm-up and before the end.
fn segment_loop(server: &Server, bodies: &[Body], seconds: f64) -> Segment {
    let before = ec_bench::scrape_metrics(server.addr).map(|t| stats::samples(&t));
    let start = Instant::now();
    let end = WARM_UP_S + seconds;
    let deadline = start + Duration::from_secs_f64(end);
    let results: Vec<ClientRun> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CONNECTIONS)
            .map(|c| {
                let addr = server.addr;
                scope.spawn(move || client(addr, bodies, c, start, deadline))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    let after = ec_bench::scrape_metrics(server.addr).map(|t| stats::samples(&t));
    let latencies: Vec<f64> = results
        .iter()
        .flat_map(|r| r.latencies.iter().zip(&r.done_at))
        .filter(|(_, &t)| (WARM_UP_S..end).contains(&t))
        .map(|(&ms, _)| ms)
        .collect();
    let failures = results.iter().map(|r| r.failures).sum();
    Segment {
        requests_per_s: latencies.len() as f64 / seconds,
        latencies,
        attempted: results.iter().map(|r| r.latencies.len() as u64).sum::<u64>() + failures,
        failures,
        figures: server_figures(&before, &after),
    }
}

/// Share of rewritten cells whose new value is the record's true value, and
/// share of variant cells (observed ≠ truth) that end at their true value.
fn quality(bodies: &[Body]) -> (f64, f64) {
    let (mut rewritten, mut right, mut variants, mut restored) = (0usize, 0usize, 0usize, 0usize);
    for body in bodies {
        let applied = parse_addresses(&body.expected);
        for ((observed, truth), new) in body.observed.iter().zip(&body.truth).zip(&applied) {
            if new != observed {
                rewritten += 1;
                right += usize::from(new == truth);
            }
            if observed != truth {
                variants += 1;
                restored += usize::from(new == truth);
            }
        }
    }
    (
        right as f64 / rewritten.max(1) as f64,
        restored as f64 / variants.max(1) as f64,
    )
}

pub fn run(args: &Args) -> Report {
    let mut report = Report::default();
    let snapshot: PathBuf = args.workdir.join("apply-library.txt");

    // Set-up: learn, save, start the server, several times; keep the last.
    let mut setups = Vec::new();
    let mut current = None;
    for _ in 0..SETUP_REPEATS {
        drop(current.take());
        let start = Instant::now();
        current = Some(setup(&snapshot));
        setups.push(start.elapsed().as_secs_f64());
    }
    let setup_s = median(&setups);
    let Setup {
        library,
        seen,
        server,
    } = current.expect("set-up ran");
    let bodies = bodies(args.seed, &library, &seen);
    println!(
        "library: {} learned programs from {LEARN_CLUSTERS} clusters; server {} (pid {})",
        library.len(),
        server.addr,
        server.child.id()
    );

    // Measured: the closed loop, in segments, each against a freshly started
    // server with fresh client threads (the first segment uses the set-up's
    // server).
    let segment_s = args.seconds / SEGMENTS as f64;
    let mut server = server;
    let mut latencies = Vec::new();
    let mut segment_rates = Vec::new();
    let mut figures = Vec::new();
    let mut rss = Vec::new();
    let mut failures = 0;
    for segment in 0..SEGMENTS {
        if segment > 0 {
            rss.push(sys::peak_rss_mb(Some(server.child.id())));
            drop(server);
            server = Server::start(&snapshot);
        }
        let run = segment_loop(&server, &bodies, segment_s);
        latencies.extend(run.latencies);
        segment_rates.push(run.requests_per_s);
        figures.push(run.figures);
        report.attempted += run.attempted;
        failures += run.failures;
    }
    report.failed += failures;
    let latency = Summary::of(&latencies);
    let requests_per_s = segment_rates.iter().sum::<f64>() / SEGMENTS as f64;
    println!(
        "{} timed requests ({failures} failed of {} sent) over {CONNECTIONS} connections in \
         {SEGMENTS} segments of {segment_s:.3} s: {requests_per_s:.1} req/s; per segment {:.0?}",
        latencies.len(),
        report.attempted,
        segment_rates
    );
    println!("request latency: {}", latency.describe("ms"));
    let (precision, recall) = quality(&bodies);

    if args.trace {
        let handler_ms = median(&figures.iter().map(|f| f.0).collect::<Vec<_>>());
        let queue_s = figures.iter().map(|f| f.1).sum();
        trace_pass(
            args,
            &server,
            &library,
            &seen,
            &bodies,
            (handler_ms, queue_s),
            &mut report,
        );
    }
    rss.push(sys::peak_rss_mb(Some(server.child.id())));
    drop(server);
    let server_rss = median(&rss);

    report.gate(
        "every /apply response was 200 with the in-process applier's bytes",
        failures == 0 && !latencies.is_empty(),
    );

    let e2e = &mut report.end_to_end;
    e2e.insert("setup_s", setup_s);
    e2e.insert("peak_rss_mb", server_rss);
    e2e.insert("records_per_s", requests_per_s * RECORDS as f64);
    e2e.insert("latency_p90_ms", latency.p90);
    e2e.insert("precision", precision);
    e2e.insert("recall", recall);
    report.named = vec![
        ("apply_req_per_s", requests_per_s, "1/s"),
        ("apply_p50_ms", latency.p50, "ms"),
        ("apply_p90_ms", latency.p90, "ms"),
        ("apply_precision", precision, "ratio"),
        ("apply_recall", recall, "ratio"),
        ("setup_s", setup_s, "s"),
        ("peak_rss_mb", server_rss, "MB"),
    ];
    report
}

/// Server-side figures over the measured loop: mean `/apply` handler time
/// (ms) and pool queue wait (s), from two `/metrics` scrapes.
fn server_figures(before: &Option<stats::Samples>, after: &Option<stats::Samples>) -> (f64, f64) {
    let (Some(before), Some(after)) = (before, after) else {
        return (0.0, 0.0);
    };
    let apply = |suffix: &'static str| {
        stats::delta(before, after, move |s| {
            s.starts_with(&format!("ec_http_request_seconds{suffix}{{"))
                && s.contains("endpoint=\"/apply\"")
        })
    };
    let handler_ms = apply("_sum") / apply("_count").max(1.0) * 1e3;
    let queue_s = stats::delta_of(before, after, "ec_pool_task_queue_seconds_sum");
    (handler_ms, queue_s)
}

/// The traced pass: `TRACE_REQUESTS` sequential requests on one connection,
/// each followed by the in-process parse and apply of the same body, first
/// untraced, then traced; then the same traced on a second seed's bodies.
fn trace_pass(
    args: &Args,
    server: &Server,
    library: &ProgramLibrary,
    seen: &[(String, String)],
    bodies: &[Body],
    (handler_ms, queue_s): (f64, f64),
    report: &mut Report,
) {
    let columns = vec!["address".to_string()];
    let applier = library.applier(&columns);
    let mut conn = ClientConn::connect(server.addr, Some(Duration::from_secs(2))).expect("connect");
    let mut pass = |tracer: &mut Tracer, bodies: &[Body]| -> bool {
        let mut ok = true;
        tracer.span("bench.apply", |t| {
            for i in 0..TRACE_REQUESTS {
                let body = &bodies[i % bodies.len()];
                let response = t.span("serve.request", |_| {
                    conn.request("POST", "/apply", &body.csv, true)
                });
                let addresses = t.span("data.csv_parse", |_| parse_addresses(&body.csv));
                let mut apply_report = ApplyReport::default();
                let applied: Vec<String> = t.span("library.apply", |_| {
                    addresses
                        .into_iter()
                        .map(|a| {
                            let mut fields = [a];
                            applier.apply_fields(&mut fields, &mut apply_report);
                            let [a] = fields;
                            a
                        })
                        .collect()
                });
                ok &= response.is_ok_and(|r| r.status == 200 && r.body == body.expected)
                    && applied.len() == RECORDS;
            }
        });
        ok
    };
    let start = Instant::now();
    let untraced_ok = pass(&mut Tracer::new(false), bodies);
    let untraced = start.elapsed().as_secs_f64();
    let cpu_before = sys::cpu_seconds();
    let mut tracer = Tracer::new(true);
    let traced_ok = pass(&mut tracer, bodies);
    let cpu = sys::cpu_seconds() - cpu_before;
    let second_bodies = self::bodies(args.seed.wrapping_add(1), library, seen);
    let mut second = Tracer::new(true);
    let second_ok = pass(&mut second, &second_bodies);
    report.gate(
        "traced-pass responses match the in-process applier",
        untraced_ok && traced_ok && second_ok,
    );
    let holds = same_leading_order(&tracer, &second, 0.01);
    println!(
        "layer order (self time): seed {} {:?}, seed {} {:?} — {}",
        args.seed,
        tracer.layer_order(),
        args.seed.wrapping_add(1),
        second.layer_order(),
        if holds { "holds" } else { "CHANGED" }
    );

    let own = tracer.self_by_name();
    let own_of = |name: &str| own.get(name).copied().unwrap_or(0.0);
    let cells = bodies.iter().fold(ApplyReport::default(), |mut sum, b| {
        sum.cells_rewritten += b.report.cells_rewritten;
        sum.cells_unchanged += b.report.cells_unchanged;
        sum.cells_unmatched += b.report.cells_unmatched;
        sum
    });
    let wall = tracer.wall();
    let l = &mut report.per_layer;
    l.insert("traced_wall_s", wall);
    l.insert("unattributed_s", tracer.unattributed());
    l.insert("tracing_overhead_s", wall - untraced);
    l.insert("layer_order_holds", f64::from(u8::from(holds)));
    l.insert("process.cpu_s", cpu);
    l.insert(
        "serve.request_s",
        own_of("serve.request") / TRACE_REQUESTS as f64,
    );
    l.insert("serve.handler_ms", handler_ms);
    l.insert(
        "library.apply_us_per_record",
        own_of("library.apply") / (TRACE_REQUESTS * RECORDS) as f64 * 1e6,
    );
    l.insert(
        "data.csv_parse_s",
        own_of("data.csv_parse") / TRACE_REQUESTS as f64,
    );
    l.insert("pool.task_queue_s", queue_s);
    l.insert("library.cells_rewritten", cells.cells_rewritten as f64);
    l.insert("library.cells_unchanged", cells.cells_unchanged as f64);
    l.insert("library.cells_unmatched", cells.cells_unmatched as f64);
    crate::write_trace(args, &tracer);
}
