//! Integration tests for `ec serve --route`, the scale-out shard router:
//!
//! 1. `/pipeline` and `/apply` responses through a router over two backends
//!    are **byte-identical** to a single-node `ec serve` — which the serve
//!    suite already pins to the `ec pipeline` CLI's files — so the whole
//!    chain `router ≡ single node ≡ CLI` holds for the same input and flags;
//! 2. a pipeline run that learns replicates the library to *every* backend,
//!    so `/apply` answers identically no matter which backend a column
//!    shards to;
//! 3. stopping a backend re-routes around it (fail open) without changing a
//!    single response byte;
//! 4. concurrent clients, each holding one keep-alive connection to the
//!    router, get the single node's `/apply` bytes on every request.
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
use std::sync::{Arc, Barrier};
use std::time::Duration;

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

/// A generated flat-record workload with transformation families.
fn flat_workload() -> String {
    let clusters = scaled(14).to_string();
    let (stdout, _) = run_cli(
        &[
            "generate",
            "--dataset",
            "address",
            "--clusters",
            &clusters,
            "--seed",
            "23",
            "--flat",
        ],
        &[],
    );
    stdout
}

const PIPELINE_FLAGS: &str = "threshold=0.9&budget=12";

fn start_server() -> (ServerHandle, std::thread::JoinHandle<()>) {
    let server = Server::bind(ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        ..ServeConfig::default()
    })
    .expect("bind an ephemeral port");
    let handle = server.handle();
    let join = std::thread::spawn(move || server.run().expect("server run"));
    (handle, join)
}

fn start_router(backends: Vec<String>) -> (RouterHandle, std::thread::JoinHandle<()>) {
    let mut config = RouterConfig::new("127.0.0.1:0", backends);
    // Fast probes so the failover test converges quickly.
    config.probe_interval = Duration::from_millis(100);
    let router = Router::bind(config).expect("bind an ephemeral router port");
    let handle = router.handle();
    let join = std::thread::spawn(move || router.run().expect("router run"));
    (handle, join)
}

#[test]
fn routed_responses_are_byte_identical_to_a_single_node() {
    let flat = flat_workload();

    // Reference: one single-node server learning and applying alone.
    let (single, single_join) = start_server();
    // Topology under test: a router in front of two backends.
    let (backend_a, join_a) = start_server();
    let (backend_b, join_b) = start_server();
    let (router, router_join) = start_router(vec![
        backend_a.addr().to_string(),
        backend_b.addr().to_string(),
    ]);

    let health = http::request(router.addr(), "GET", "/healthz", b"").unwrap();
    assert_eq!(health.status, 200, "{:?}", health.body);
    assert_eq!(health.header("x-ec-router-backends"), Some("2"));
    assert_eq!(health.header("x-ec-router-healthy"), Some("2"));

    // Plain pipeline (standardized and golden outputs): router ≡ single.
    for output in ["", "&output=golden"] {
        let path = format!("/pipeline?{PIPELINE_FLAGS}{output}");
        let direct = http::request(single.addr(), "POST", &path, flat.as_bytes()).unwrap();
        let routed = http::request(router.addr(), "POST", &path, flat.as_bytes()).unwrap();
        assert_eq!(routed.status, 200, "{:?}", routed.body);
        assert_eq!(
            routed.body, direct.body,
            "routed pipeline bytes (output={output:?}) diverge from single-node"
        );
        assert_eq!(routed.trailers, direct.trailers, "trailers diverge");
    }

    // A learning pass through the router replicates the library everywhere.
    let learn_path = format!("/pipeline?{PIPELINE_FLAGS}&mode=approve-all");
    let direct = http::request(single.addr(), "POST", &learn_path, flat.as_bytes()).unwrap();
    let routed = http::request(router.addr(), "POST", &learn_path, flat.as_bytes()).unwrap();
    assert_eq!(routed.status, 200);
    assert_eq!(routed.body, direct.body, "learning pipeline bytes diverge");
    let approved: usize = routed
        .header("x-ec-groups-approved")
        .unwrap()
        .parse()
        .unwrap();
    assert!(approved > 0, "the workload must approve some groups");
    // Snapshot version counters legitimately differ (one backend learned
    // entry by entry, the other merged once), so compare the entries.
    let entries = |body: &[u8]| -> String {
        String::from_utf8(body.to_vec())
            .unwrap()
            .lines()
            .filter(|line| !line.starts_with("version "))
            .collect::<Vec<_>>()
            .join("\n")
    };
    let snapshot_a = http::request(backend_a.addr(), "GET", "/library", b"").unwrap();
    let snapshot_b = http::request(backend_b.addr(), "GET", "/library", b"").unwrap();
    assert_eq!(
        entries(&snapshot_a.body),
        entries(&snapshot_b.body),
        "replication must leave both backends with the same library entries"
    );
    assert!(snapshot_a.body.len() > 30, "the library learned entries");

    // /apply shards by column across both backends, and the zip-merged
    // response still matches the single node byte for byte.
    let direct = http::request(single.addr(), "POST", "/apply", flat.as_bytes()).unwrap();
    let routed = http::request(router.addr(), "POST", "/apply", flat.as_bytes()).unwrap();
    assert_eq!(routed.status, 200, "{:?}", routed.body);
    assert_eq!(routed.body, direct.body, "routed apply bytes diverge");
    assert_eq!(routed.trailers, direct.trailers, "apply trailers diverge");

    // Fail open: stop one backend, wait for the probes to notice, and the
    // router keeps answering — with the same bytes, because the surviving
    // backend holds the replicated library.
    backend_b.stop();
    join_b.join().expect("backend thread");
    for i in 0..600 {
        if router.healthy_backends() == 1 {
            eprintln!("probe saw the stop after ~{}ms", i * 20);
            break;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    assert_eq!(router.healthy_backends(), 1, "probe never saw the stop");
    let rerouted = http::request(router.addr(), "POST", "/apply", flat.as_bytes()).unwrap();
    assert_eq!(rerouted.status, 200, "{:?}", rerouted.body);
    assert_eq!(
        rerouted.body, direct.body,
        "failover must not change a response byte"
    );
    let path = format!("/pipeline?{PIPELINE_FLAGS}");
    let single_pipeline = http::request(single.addr(), "POST", &path, flat.as_bytes()).unwrap();
    let rerouted_pipeline = http::request(router.addr(), "POST", &path, flat.as_bytes()).unwrap();
    assert_eq!(rerouted_pipeline.status, 200);
    assert_eq!(rerouted_pipeline.body, single_pipeline.body);

    assert!(router.requests() >= 7);
    router.stop();
    router_join.join().expect("router thread");
    for (handle, join) in [(single, single_join), (backend_a, join_a)] {
        handle.stop();
        join.join().expect("server thread");
    }
}

#[test]
fn concurrent_keep_alive_applies_through_the_router_match_a_single_node() {
    const CLIENTS: usize = 4;
    const REQUESTS: usize = 5;
    let flat = flat_workload();
    let (single, single_join) = start_server();
    let (backend_a, join_a) = start_server();
    let (backend_b, join_b) = start_server();
    let (router, router_join) = start_router(vec![
        backend_a.addr().to_string(),
        backend_b.addr().to_string(),
    ]);

    // Learn the same library on the single node and, replicated, on both
    // backends; the single node's answer is the reference.
    let learn_path = format!("/pipeline?{PIPELINE_FLAGS}&mode=approve-all");
    for addr in [single.addr(), router.addr()] {
        let learned = http::request(addr, "POST", &learn_path, flat.as_bytes()).unwrap();
        assert_eq!(learned.status, 200, "{:?}", learned.body);
    }
    let direct = http::request(single.addr(), "POST", "/apply", flat.as_bytes()).unwrap();
    assert_eq!(direct.status, 200, "{:?}", direct.body);

    // Each client sends its requests back to back over one connection,
    // asking to keep it open on all but the last. The barrier holds every
    // client until all connections are open, so they overlap.
    let router_addr = router.addr();
    let all_connected = Arc::new(Barrier::new(CLIENTS));
    let clients: Vec<_> = (0..CLIENTS)
        .map(|_| {
            let flat = flat.clone();
            let all_connected = Arc::clone(&all_connected);
            std::thread::spawn(move || {
                let mut conn = http::ClientConn::connect(router_addr, None).expect("connect");
                all_connected.wait();
                (0..REQUESTS)
                    .map(|i| {
                        conn.request("POST", "/apply", flat.as_bytes(), i + 1 < REQUESTS)
                            .expect("keep-alive apply")
                    })
                    .collect::<Vec<_>>()
            })
        })
        .collect();
    for (client, join) in clients.into_iter().enumerate() {
        let responses = join.join().expect("client thread");
        assert_eq!(responses.len(), REQUESTS);
        for (i, response) in responses.iter().enumerate() {
            assert_eq!(response.status, 200, "client {client} request {i}");
            assert!(
                response.body == direct.body,
                "client {client} request {i}: routed apply bytes diverge"
            );
        }
    }
    assert!(router.requests() >= CLIENTS * REQUESTS);

    router.stop();
    router_join.join().expect("router thread");
    for (handle, join) in [
        (single, single_join),
        (backend_a, join_a),
        (backend_b, join_b),
    ] {
        handle.stop();
        join.join().expect("server thread");
    }
}

#[test]
fn shard_key_pins_a_pipeline_and_router_rejects_what_it_cannot_serve() {
    let (backend, join) = start_server();
    let (router, router_join) = start_router(vec![backend.addr().to_string()]);

    // An explicit shard-key overrides the derived blocking key; the backend
    // ignores the extra parameter, so bytes are unaffected.
    let body = "source,Name\n0,\"Lee, Mary\"\n1,Mary Lee\n2,\"Lee, Mary\"\n";
    let path = format!("/pipeline?{PIPELINE_FLAGS}&shard-key=tenant-7");
    let pinned = http::request(router.addr(), "POST", &path, body.as_bytes()).unwrap();
    assert_eq!(pinned.status, 200, "{:?}", pinned.body);
    let direct = http::request(
        backend.addr(),
        "POST",
        &format!("/pipeline?{PIPELINE_FLAGS}"),
        body.as_bytes(),
    )
    .unwrap();
    assert_eq!(pinned.body, direct.body);

    // Backend-side rejections come back through the router unchanged in
    // meaning (400, not a router-made 5xx).
    let bad = http::request(
        router.addr(),
        "POST",
        "/pipeline?threshold=7",
        body.as_bytes(),
    )
    .unwrap();
    assert_eq!(bad.status, 400);
    // Unknown endpoints 404 at the router itself.
    let missing = http::request(router.addr(), "GET", "/nope", b"").unwrap();
    assert_eq!(missing.status, 404);

    router.stop();
    router_join.join().expect("router thread");
    backend.stop();
    join.join().expect("server thread");
}
