//! # ec-serve — the online consolidation service
//!
//! The batch CLI re-learns everything per invocation; this crate is the
//! *learn once, apply forever* deployment mode: a long-lived, std-only
//! (`TcpListener` + hand-rolled HTTP/1.1, no external dependencies) service
//! started via `ec serve --addr … --threads N`. Three pieces work together:
//!
//! * the **shared FIFO worker pool** (re-exported here as
//!   [`pool`], implemented in `ec_graph::pool` so the `Parallelism` knob can
//!   adopt it without a dependency cycle) both executes connection handlers
//!   and the sharded consolidation stages they fan out — no scoped threads
//!   are spawned per request or per batch of grouping partitions;
//! * the **[`ProgramLibrary`]** holds human-verified transformation
//!   programs; `POST /pipeline` runs accumulate newly approved groups into
//!   it, `POST /apply` standardizes incoming records through it *without
//!   re-learning*, and `GET /library` exposes the text snapshot;
//! * **streamed endpoints**: request bodies are parsed record-at-a-time off
//!   the socket and responses are written cluster-at-a-time through chunked
//!   encoding, so per-connection memory is bounded by the parsed dataset
//!   (exactly like the CLI), never by raw request/response bytes.
//!
//! Connections are **kept alive**: sequential requests reuse the socket
//! (HTTP/1.1 semantics — persistent unless `Connection: close`; HTTP/1.0
//! opts in via `Connection: keep-alive`) with a short idle timeout, so a
//! client looping `apply` calls pays the TCP handshake once. Errors and
//! `POST /shutdown` close the connection.
//!
//! ## Endpoints
//!
//! | Endpoint | Behaviour |
//! |---|---|
//! | `GET /healthz` | liveness + request counter / pool size headers |
//! | `GET /metrics` | the process-wide metrics registry in Prometheus text exposition |
//! | `GET /library` | the program-library text snapshot + fast-path hit/miss totals |
//! | `POST /library` | merge a posted snapshot into the library (the router's replication channel) |
//! | `POST /pipeline?…` | flat CSV body → standardized (or golden) CSV, byte-identical to `ec pipeline` with the same flags |
//! | `POST /apply` | flat CSV body → library-standardized flat CSV; unmatched counts in chunked trailers |
//! | `POST /ingest?…` | flat CSV batch → incremental consolidation via a persistent [`DeltaPipeline`]; answers the current golden CSV |
//! | `POST /shutdown` | graceful stop (used by tests and the CI smoke job) |
//!
//! `POST /pipeline` and `POST /ingest` read the run knobs from query
//! parameters through the CLI's own parser, [`ec_core::RunOptions`]; the
//! README's *Run knobs* table lists each knob's default, accepted values and
//! entry points, including `/pipeline`'s `output` artifact choice.
//!
//! `POST /ingest` streams batches into one long-lived delta session: the
//! first batch pins the session's knobs and columns, subsequent batches must
//! repeat them (else `400`), and after every batch the response carries the
//! *complete* current golden CSV — byte-identical to what one `ec pipeline`
//! run over the concatenation of every batch so far would produce — plus
//! `X-Ec-Library-Hits` / `X-Ec-Library-Misses` headers counting how many of
//! the batch's records the program library resolved without consolidation.
//! Programs the session learns merge into the server's library after each
//! batch, so `/apply` picks them up immediately.
//!
//! With `--auth-token SECRET` every mutating (`POST`) endpoint requires an
//! `Authorization: Bearer SECRET` header and answers `401` without it;
//! `GET` endpoints stay open for health probes and snapshot reads.
//!
//! ## Scale-out
//!
//! One process is one shard. `ec serve --route b1:port,b2:port,…` runs the
//! same binary as a **router** instead (see [`Router`]): a front-end that
//! owns no library and runs no consolidation, but partitions `/apply` by
//! column and routes `/pipeline` by blocking key across backend `ec serve`
//! processes over a consistent-hash [`ring`], health-checking backends and
//! replicating library mutations between them.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub(crate) mod conn;
pub mod http;
pub mod ring;
pub mod router;

pub use ec_graph::pool;
pub use router::{Router, RouterConfig, RouterHandle};

use conn::{BodyReader, HandlerResult, HttpFailure, Lifecycle, ResponseWriter, Service};
use ec_core::{
    standardize_columns_with, write_golden_records_csv, ApplyError, ApplyReport, AutoReview,
    ColumnReport, CompiledDataset, DeltaPipeline, Pipeline, ProgramLibrary, RunOptions,
};
use ec_data::{ClusteredCsvWriter, Dataset, DatasetRecords, FlatCsvReader, RecordStream};
use http::{ChunkedWriter, Persistence, Request};
use std::io::{self, BufWriter, Read, Write};
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};
use std::time::{Duration, Instant};

/// Configuration of [`Server::bind`].
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Listen address, e.g. `127.0.0.1:7171` (port 0 picks an ephemeral
    /// port, which the tests use).
    pub addr: String,
    /// Worker threads for the shared pool (0 = auto: `EC_THREADS` or the
    /// machine). Connection handling and the sharded consolidation stages
    /// run on the same pool, and because every stage is bit-identical for
    /// any thread count, this knob never changes responses — only latency.
    pub threads: usize,
    /// The initial learned-program library (typically loaded from a
    /// snapshot file by `ec serve --library`).
    pub library: ProgramLibrary,
    /// Maximum concurrent connections (0 = unbounded). Connections over the
    /// cap are rejected with `503` + `Retry-After` instead of queueing
    /// unboundedly on the shared pool.
    pub max_connections: usize,
    /// Expire library entries untouched for this long (`None` = never).
    /// Sweeps run lazily on the endpoints that read the library.
    pub library_ttl: Option<Duration>,
    /// A compiled dataset preloaded at startup (`ec serve --artifact`,
    /// typically memory-mapped through `ec-artifact`). With it set, an
    /// **empty-body** `POST /pipeline` replays the compiled consolidation —
    /// byte-identical to posting the original flat CSV, but skipping parse,
    /// resolve, candidate generation and index building — and an empty-body
    /// `POST /apply` standardizes the compiled dataset's records through the
    /// current library. Requests *with* a body behave exactly as without an
    /// artifact.
    pub preloaded: Option<Arc<CompiledDataset>>,
    /// When set, every mutating (`POST`) endpoint requires
    /// `Authorization: Bearer <token>` and answers `401` without it.
    pub auth_token: Option<String>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:7171".to_string(),
            threads: 0,
            library: ProgramLibrary::new(),
            max_connections: 0,
            library_ttl: None,
            preloaded: None,
            auth_token: None,
        }
    }
}

/// The server's one persistent delta-ingest session. The first batch pins
/// its knobs; every later batch must repeat them exactly, because a
/// [`DeltaPipeline`] is only equivalent to a one-shot rebuild when every
/// batch ran under one configuration.
struct IngestSession {
    options: RunOptions,
    delta: DeltaPipeline,
    /// Set while a batch runs; still set afterwards only when that batch
    /// panicked part-way, leaving the session in an unknown state.
    mid_batch: bool,
}

/// Shared, connection-visible server state.
struct ServerState {
    library: RwLock<ProgramLibrary>,
    threads: usize,
    max_connections: usize,
    preloaded: Option<Arc<CompiledDataset>>,
    /// The `/ingest` session, created by the first batch. One mutex-held
    /// session serializes batches — the delta pipeline's equivalence
    /// guarantee is defined over a *sequence* of batches, so concurrent
    /// ingests have no meaningful interleaving anyway.
    ingest: Mutex<Option<IngestSession>>,
    /// Lifetime fast-path hits: `/apply` cells the library resolved
    /// (rewritten or already canonical) plus `/ingest` records wholly
    /// recognized from seen shapes. Surfaced on `GET /library` and, as the
    /// registry series behind that header, on `GET /metrics` — the counter
    /// is a per-instance labeled series so several servers in one process
    /// (tests, embedded fleets) never cross-pollute.
    library_hits: ec_obs::Counter,
    /// Lifetime fast-path misses: `/apply` cells no program covered plus
    /// `/ingest` records that entered the residue path.
    library_misses: ec_obs::Counter,
    auth_token: Option<String>,
    life: Lifecycle,
}

/// Distinguishes the per-instance registry series of multiple servers in
/// one process.
static INSTANCE_SEQ: AtomicU64 = AtomicU64::new(0);

impl ServerState {
    /// The library, for reading. A handler that panicked while holding the
    /// write lock poisons it, but every write section is one `merge` or
    /// `evict_expired`, which leaves a usable library even when cut short —
    /// so the guard is taken back rather than failing every later request.
    fn library(&self) -> RwLockReadGuard<'_, ProgramLibrary> {
        self.library.read().unwrap_or_else(PoisonError::into_inner)
    }

    /// The library, for one `merge` or `evict_expired` (see
    /// [`ServerState::library`] on poisoning).
    fn library_mut(&self) -> RwLockWriteGuard<'_, ProgramLibrary> {
        self.library.write().unwrap_or_else(PoisonError::into_inner)
    }

    /// Expires TTL-stale library entries. Lazy by design: a sweep runs on
    /// the endpoints that are about to read the library, so an idle server
    /// does no timer work and a busy one stays current.
    fn sweep_library_ttl(&self) {
        if self.library().ttl().is_some() {
            self.library_mut().evict_expired(Instant::now());
        }
    }
}

impl Service for ServerState {
    fn lifecycle(&self) -> &Lifecycle {
        &self.life
    }

    fn metrics_service() -> &'static str {
        "serve"
    }

    fn max_connections(&self) -> usize {
        self.max_connections
    }

    /// Connections are detached, panic-isolated jobs on the shared pool —
    /// handlers are the CPU work, so the pool is the right executor. A
    /// connection that yields its worker mid-burst re-queues itself through
    /// here; the pool's one FIFO queue puts it behind every connection (and
    /// router health probe) already waiting, so it cannot starve them.
    fn execute(&self, job: Box<dyn FnOnce() + Send + 'static>) {
        pool::shared().spawn(job);
    }

    fn dispatch(
        this: &Arc<Self>,
        request: &Request,
        has_body: bool,
        persistence: Persistence,
        body: &mut BodyReader<'_>,
        writer: &mut ResponseWriter,
    ) -> HandlerResult {
        dispatch(request, has_body, persistence, body, writer, this)
    }
}

/// The bound (but not yet running) service. [`Server::run`] blocks on the
/// accept loop until a shutdown is requested.
pub struct Server {
    listener: TcpListener,
    state: Arc<ServerState>,
}

/// A cheap handle for stopping a running server and reading its address.
#[derive(Clone)]
pub struct ServerHandle {
    state: Arc<ServerState>,
}

impl ServerHandle {
    /// The bound address.
    pub fn addr(&self) -> SocketAddr {
        self.state.life.addr
    }

    /// Requests a graceful stop and wakes the accept loop.
    pub fn stop(&self) {
        self.state.life.request_stop();
    }

    /// Requests served so far.
    pub fn requests(&self) -> usize {
        self.state.life.requests.load(Ordering::Relaxed)
    }

    /// A snapshot of the current program library.
    pub fn library_snapshot(&self) -> String {
        self.state.library().to_snapshot()
    }
}

impl Server {
    /// Binds the listener and sizes the shared worker pool. The pool's size
    /// is pinned process-wide by its first user, so bind early.
    pub fn bind(config: ServeConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        let pool = pool::configure_shared(config.threads);
        let mut library = config.library;
        library.set_ttl(config.library_ttl);
        let instance = INSTANCE_SEQ.fetch_add(1, Ordering::Relaxed).to_string();
        let library_hits = ec_obs::counter_with(
            "ec_library_hits_total",
            "Library fast-path hits: /apply cells the library resolved plus /ingest records wholly recognized from seen shapes.",
            &[("instance", &instance)],
        );
        let library_misses = ec_obs::counter_with(
            "ec_library_misses_total",
            "Library fast-path misses: /apply cells no program covered plus /ingest records that entered the residue path.",
            &[("instance", &instance)],
        );
        let state = Arc::new(ServerState {
            library: RwLock::new(library),
            threads: if config.threads == 0 {
                pool.threads()
            } else {
                config.threads
            },
            max_connections: config.max_connections,
            preloaded: config.preloaded,
            ingest: Mutex::new(None),
            library_hits,
            library_misses,
            auth_token: config.auth_token,
            life: Lifecycle::new(listener.local_addr()?),
        });
        Ok(Server { listener, state })
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.state.life.addr
    }

    /// A stop/inspect handle.
    pub fn handle(&self) -> ServerHandle {
        ServerHandle {
            state: Arc::clone(&self.state),
        }
    }

    /// Runs the accept loop until [`ServerHandle::stop`] (or
    /// `POST /shutdown`) is called. Each connection is handled as one
    /// detached, panic-isolated job on the shared pool.
    pub fn run(self) -> io::Result<()> {
        conn::run_accept_loop(self.listener, self.state)
    }
}

fn dispatch(
    request: &Request,
    has_body: bool,
    persistence: Persistence,
    body: &mut BodyReader<'_>,
    writer: &mut ResponseWriter,
    state: &Arc<ServerState>,
) -> HandlerResult {
    let require_body = || -> Result<(), HttpFailure> {
        if has_body {
            Ok(())
        } else {
            Err(HttpFailure::new(
                411,
                "a Content-Length body is required (chunked requests are not supported)",
            ))
        }
    };
    // Every mutating endpoint is a POST; gate them all before routing so an
    // unauthorized caller cannot even probe which POST paths exist.
    if request.method == "POST" {
        require_bearer(request, state.auth_token.as_deref())?;
    }
    match (request.method.as_str(), request.path.as_str()) {
        ("GET", "/healthz") => handle_healthz(writer, state, persistence),
        ("GET", "/metrics") => handle_metrics(writer, persistence),
        ("GET", "/library") => handle_library(writer, state, persistence),
        ("POST", "/library") => {
            require_body()?;
            handle_library_merge(body, writer, state, persistence)
        }
        ("POST", "/shutdown") => {
            // The accept loop is stopping; never invite another request.
            http::write_response(
                writer,
                200,
                "text/plain",
                &[],
                Persistence::Close,
                b"shutting down\n",
            )
            .map_err(io_failure)?;
            let _ = writer.flush();
            state.life.request_stop();
            Ok(())
        }
        ("POST", "/pipeline") => {
            require_body()?;
            // An empty declared body (`Content-Length: 0`) against a
            // preloaded artifact replays the compiled consolidation.
            let body_empty = body.remaining() == 0;
            handle_pipeline(request, body_empty, body, writer, state, persistence)
        }
        ("POST", "/apply") => {
            require_body()?;
            let body_empty = body.remaining() == 0;
            handle_apply(body_empty, body, writer, state, persistence)
        }
        ("POST", "/ingest") => {
            require_body()?;
            handle_ingest(request, body, writer, state, persistence)
        }
        ("GET" | "POST", _) => Err(HttpFailure::new(
            404,
            format!("no such endpoint: {}", request.path),
        )),
        _ => Err(HttpFailure::new(405, "method not allowed")),
    }
}

/// Enforces `Authorization: Bearer <token>` when the service was started
/// with an auth token; a service without one admits everything. Shared with
/// the router (same header, same failure).
pub(crate) fn require_bearer(
    request: &Request,
    auth_token: Option<&str>,
) -> Result<(), HttpFailure> {
    let Some(token) = auth_token else {
        return Ok(());
    };
    let presented = request
        .header("authorization")
        .and_then(|v| v.strip_prefix("Bearer "));
    if presented == Some(token) {
        Ok(())
    } else {
        Err(HttpFailure::new(
            401,
            "this endpoint requires 'Authorization: Bearer <token>'",
        ))
    }
}

fn io_failure(e: io::Error) -> HttpFailure {
    HttpFailure::new(500, format!("io error: {e}"))
}

/// `GET /metrics`: the process-wide registry in Prometheus text exposition.
/// Open like `/healthz` — the scrape is read-only, and health probes and
/// metric collectors sit on the same trust boundary. Shared with the router
/// (one registry per process either way).
pub(crate) fn handle_metrics(
    writer: &mut ResponseWriter,
    persistence: Persistence,
) -> HandlerResult {
    let body = ec_obs::render();
    http::write_response(
        writer,
        200,
        "text/plain; version=0.0.4",
        &[],
        persistence,
        body.as_bytes(),
    )
    .map_err(io_failure)
}

fn handle_healthz(
    writer: &mut ResponseWriter,
    state: &ServerState,
    persistence: Persistence,
) -> HandlerResult {
    let library = state.library();
    let headers = vec![
        (
            "X-Ec-Requests".to_string(),
            state.life.requests.load(Ordering::Relaxed).to_string(),
        ),
        ("X-Ec-Pool-Threads".to_string(), state.threads.to_string()),
        (
            "X-Ec-Library-Version".to_string(),
            library.version().to_string(),
        ),
        (
            "X-Ec-Library-Entries".to_string(),
            library.len().to_string(),
        ),
    ];
    drop(library);
    http::write_response(writer, 200, "text/plain", &headers, persistence, b"ok\n")
        .map_err(io_failure)
}

fn handle_library(
    writer: &mut ResponseWriter,
    state: &ServerState,
    persistence: Persistence,
) -> HandlerResult {
    state.sweep_library_ttl();
    let library = state.library();
    let headers = vec![
        (
            "X-Ec-Library-Version".to_string(),
            library.version().to_string(),
        ),
        (
            "X-Ec-Library-Evictions".to_string(),
            library.evictions().to_string(),
        ),
        (
            "X-Ec-Library-Cap".to_string(),
            library
                .column_capacity()
                .map(|c| c.to_string())
                .unwrap_or_else(|| "unbounded".to_string()),
        ),
        (
            "X-Ec-Library-Ttl".to_string(),
            library
                .ttl()
                .map(|t| t.as_secs().to_string())
                .unwrap_or_else(|| "unbounded".to_string()),
        ),
        // Lifetime fast-path totals across `/apply` and `/ingest`.
        (
            "X-Ec-Library-Hits".to_string(),
            state.library_hits.get().to_string(),
        ),
        (
            "X-Ec-Library-Misses".to_string(),
            state.library_misses.get().to_string(),
        ),
    ];
    let snapshot = library.to_snapshot();
    drop(library);
    http::write_response(
        writer,
        200,
        "text/plain",
        &headers,
        persistence,
        snapshot.as_bytes(),
    )
    .map_err(io_failure)
}

/// `POST /library`: merges a posted text snapshot into the server's library
/// — the router's replication channel, and handy for seeding a running
/// server by hand. Answers with the resulting version.
fn handle_library_merge(
    body: impl Read,
    writer: &mut ResponseWriter,
    state: &ServerState,
    persistence: Persistence,
) -> HandlerResult {
    let mut text = String::new();
    let mut body = body;
    body.read_to_string(&mut text)
        .map_err(|e| HttpFailure::new(400, format!("unreadable snapshot body: {e}")))?;
    let incoming = ProgramLibrary::from_snapshot(&text)
        .map_err(|e| HttpFailure::new(400, format!("bad library snapshot: {e}")))?;
    let mut library = state.library_mut();
    library.merge(&incoming);
    let headers = vec![(
        "X-Ec-Library-Version".to_string(),
        library.version().to_string(),
    )];
    let entries = library.len();
    drop(library);
    http::write_response(
        writer,
        200,
        "text/plain",
        &headers,
        persistence,
        format!(
            "merged {} entries; library now holds {entries}\n",
            incoming.len()
        )
        .as_bytes(),
    )
    .map_err(io_failure)
}

/// The artifact `POST /pipeline` streams back.
enum PipelineOutput {
    Standardized,
    Golden,
    Summary,
}

/// Parses the request's run knobs (see [`RunOptions::parse`]); a bad value
/// is a `400`.
fn run_options(request: &Request) -> Result<RunOptions, HttpFailure> {
    RunOptions::parse(|key| request.query_param(key), false).map_err(|e| HttpFailure::new(400, e))
}

/// The `400` for a request body that is not flat record CSV.
fn bad_body(e: impl std::fmt::Display) -> HttpFailure {
    HttpFailure::new(400, format!("bad flat CSV body: {e}"))
}

fn handle_pipeline(
    request: &Request,
    body_empty: bool,
    body: impl Read,
    writer: &mut ResponseWriter,
    state: &Arc<ServerState>,
    persistence: Persistence,
) -> HandlerResult {
    let fail = |message: String| HttpFailure::new(400, message);
    let options = run_options(request)?;
    let output = match request.query_param("output").unwrap_or("standardized") {
        "standardized" | "std" => PipelineOutput::Standardized,
        "golden" => PipelineOutput::Golden,
        "summary" => PipelineOutput::Summary,
        other => {
            return Err(fail(format!(
                "unknown output '{other}'; expected standardized, golden or summary"
            )))
        }
    };

    let pipeline = Pipeline::new(options.consolidation(state.threads));
    // An empty body against a preloaded artifact replays the compiled
    // consolidation instead of parsing and re-preparing anything.
    let compiled = state.preloaded.as_deref().filter(|_| body_empty);
    let (mut dataset, has_truth, threshold) = match compiled {
        Some(compiled) => {
            compiled
                .check_threshold(&options)
                .map_err(|e| fail(format!("the preloaded artifact {e}")))?;
            (
                compiled.dataset.clone(),
                compiled.has_truth,
                compiled.threshold,
            )
        }
        None => {
            // Resolve the body stream straight off the socket — the raw CSV
            // is never buffered; only the resolved dataset (the working set
            // every entry point needs) lives in memory.
            let mut stream = FlatCsvReader::new(body).map_err(bad_body)?;
            let dataset = options
                .resolve(&mut stream, pipeline.config().candidates.parallelism)
                .map_err(bad_body)?;
            // Resolver output always carries per-cell truth, exactly like
            // the clustered CSV `ec resolve` writes — so `auto` uses the
            // simulated expert, matching the CLI pipeline.
            (dataset, true, options.threshold)
        }
    };
    let columns = options.columns(&dataset.columns).map_err(fail)?;

    // Standardize with the shared automated driver (byte-identical to the
    // CLI), learning into a request-local library merged into the server's
    // store afterwards.
    let mut learned = ProgramLibrary::new();
    let reports = standardize_columns_with(
        &pipeline,
        &mut dataset,
        compiled,
        &columns,
        &mut AutoReview::new(options.mode, has_truth),
        Some(&mut learned),
    );
    let golden = pipeline.discover_golden_records(&dataset, options.truth);
    if !learned.is_empty() {
        state.library_mut().merge(&learned);
    }
    stream_pipeline_output(
        writer,
        persistence,
        &dataset,
        &golden,
        &reports,
        threshold,
        output,
    )
}

/// Streams the selected `/pipeline` artifact as a chunked response — the one
/// serialization point for both the fresh and preloaded paths, which is what
/// makes their outputs byte-identical.
fn stream_pipeline_output(
    writer: &mut ResponseWriter,
    persistence: Persistence,
    dataset: &Dataset,
    golden: &[Vec<Option<String>>],
    reports: &[ColumnReport],
    threshold: f64,
    output: PipelineOutput,
) -> HandlerResult {
    let approved: usize = reports.iter().map(|r| r.groups_approved).sum();
    let headers = vec![
        (
            "X-Ec-Clusters".to_string(),
            dataset.clusters.len().to_string(),
        ),
        (
            "X-Ec-Records".to_string(),
            dataset.num_records().to_string(),
        ),
        ("X-Ec-Groups-Approved".to_string(), approved.to_string()),
    ];
    http::write_chunked_head(writer, 200, "text/csv", &headers, persistence, &[])
        .map_err(io_failure)?;
    let mut body_writer = ChunkedWriter::new(writer);
    match output {
        PipelineOutput::Standardized => {
            // Cluster-at-a-time through the same writer the CLI streams its
            // `--output` file through — byte-identical by construction.
            let buffered = BufWriter::with_capacity(8 * 1024, &mut body_writer);
            ClusteredCsvWriter::write_dataset(buffered, dataset).map_err(io_failure)?;
        }
        PipelineOutput::Golden => {
            let mut buffered = BufWriter::with_capacity(8 * 1024, &mut body_writer);
            write_golden_records_csv(&dataset.columns, golden, &mut buffered)
                .map_err(io_failure)?;
            buffered.flush().map_err(io_failure)?;
        }
        PipelineOutput::Summary => {
            let mut text = format!(
                "resolved {} records into {} clusters (threshold {threshold})\n",
                dataset.num_records(),
                dataset.clusters.len()
            );
            for report in reports {
                text.push_str(&format!(
                    "column '{}': {} candidates, {} reviewed, {} approved, {} cells updated\n",
                    dataset.columns[report.column],
                    report.candidates,
                    report.groups_reviewed,
                    report.groups_approved,
                    report.cells_updated
                ));
            }
            body_writer.write_all(text.as_bytes()).map_err(io_failure)?;
        }
    }
    body_writer.finish(&[]).map_err(io_failure)?;
    Ok(())
}

/// `POST /ingest`: one batch of flat CSV records into the server's
/// persistent [`DeltaPipeline`]. The response body is the complete current
/// golden-record CSV — byte-identical to a full `ec pipeline` rebuild over
/// every batch ingested so far — and the headers report the batch's
/// fast-path accounting.
fn handle_ingest(
    request: &Request,
    body: impl Read,
    writer: &mut ResponseWriter,
    state: &Arc<ServerState>,
    persistence: Persistence,
) -> HandlerResult {
    let mut options = run_options(request)?;
    // A session ingests every column; like `ec ingest`, it takes no `column`.
    options.column = None;

    // Parse the whole batch off the socket before taking the session lock:
    // a slow client must not stall other ingests mid-upload.
    let mut stream = FlatCsvReader::new(body).map_err(bad_body)?;
    let columns = stream.columns().to_vec();
    let records = stream.collect_records().map_err(bad_body)?;

    // One session per server; batches serialize on the lock (see the field
    // docs — delta correctness is defined over a batch *sequence*).
    // A handler that panicked holding the lock poisoned it; the guard is
    // taken back, and `mid_batch` tells whether the panic cut a batch short.
    let mut guard = state.ingest.lock().unwrap_or_else(PoisonError::into_inner);
    if guard.as_ref().is_some_and(|session| session.mid_batch) {
        // That session's state is unknown: drop it, so the next batch opens
        // a fresh one.
        *guard = None;
        return Err(HttpFailure::new(
            500,
            "the ingest session was lost to a batch that failed part-way; \
             the next batch opens a fresh session",
        ));
    }
    if let Some(existing) = guard.as_ref() {
        if existing.options != options {
            return Err(HttpFailure::new(
                400,
                format!(
                    "an ingest session is already open with different parameters ({}); \
                     every batch must repeat the first batch's parameters",
                    existing.options
                ),
            ));
        }
        if existing.delta.columns() != columns.as_slice() {
            return Err(HttpFailure::new(
                400,
                format!(
                    "the open ingest session has columns [{}], this batch posted [{}]",
                    existing.delta.columns().join(", "),
                    columns.join(", ")
                ),
            ));
        }
    } else {
        *guard = Some(IngestSession {
            delta: options.delta_pipeline(columns, state.threads),
            options,
            mid_batch: false,
        });
    }
    let session = guard.as_mut().expect("the session was just ensured");
    session.mid_batch = true;
    let report = session.delta.ingest_batch(records);
    session.mid_batch = false;
    state.library_hits.add(report.library_hits as u64);
    state.library_misses.add(report.residue as u64);
    // Everything the session has learned folds into the serving library, so
    // `/apply` standardizes through it immediately (merging is idempotent —
    // re-merging the whole session library each batch only adds new entries).
    if !session.delta.library().is_empty() {
        state.library_mut().merge(session.delta.library());
    }

    let mut golden = Vec::new();
    session
        .delta
        .write_golden_csv(&mut golden)
        .map_err(io_failure)?;
    let headers = vec![
        (
            "X-Ec-Library-Hits".to_string(),
            report.library_hits.to_string(),
        ),
        (
            "X-Ec-Library-Misses".to_string(),
            report.residue.to_string(),
        ),
        ("X-Ec-Clusters".to_string(), report.clusters.to_string()),
        ("X-Ec-Records".to_string(), report.total_records.to_string()),
        (
            "X-Ec-Batch-Records".to_string(),
            report.batch_records.to_string(),
        ),
        (
            "X-Ec-Batches".to_string(),
            session.delta.batches().to_string(),
        ),
        (
            "X-Ec-Replayed-Columns".to_string(),
            report.replayed_columns.to_string(),
        ),
    ];
    http::write_response(writer, 200, "text/csv", &headers, persistence, &golden)
        .map_err(io_failure)
}

/// `POST /apply`: flat records through the current library, record in,
/// record out. An empty body against a preloaded artifact standardizes the
/// compiled dataset's own records instead — the rows `ec compile
/// --emit-flat` writes, so the response matches posting that file.
fn handle_apply(
    body_empty: bool,
    body: impl Read,
    writer: &mut ResponseWriter,
    state: &Arc<ServerState>,
    persistence: Persistence,
) -> HandlerResult {
    let mut records: Box<dyn RecordStream + '_> =
        match state.preloaded.as_deref().filter(|_| body_empty) {
            Some(compiled) => Box::new(DatasetRecords::new(&compiled.dataset)),
            None => Box::new(FlatCsvReader::new(body).map_err(bad_body)?),
        };
    let library = apply_snapshot(state);
    let applier = library.applier(records.columns());

    write_apply_head(writer, persistence, library.version()).map_err(io_failure)?;
    let mut body_writer = ChunkedWriter::new(writer);
    let report = applier
        .apply_stream(
            &mut *records,
            BufWriter::with_capacity(8 * 1024, &mut body_writer),
        )
        .map_err(|e| match e {
            ApplyError::Input(e) => bad_body(e),
            ApplyError::Output(e) => io_failure(e),
        })?;
    finish_apply_body(body_writer, &report, state)
}

/// Sweeps the TTL and clones the library for an `/apply` run. The snapshot
/// is taken under a short-lived guard: holding the read lock across a
/// streamed (client-paced) request would stall every /pipeline merge — and,
/// behind that queued writer, all other readers.
fn apply_snapshot(state: &ServerState) -> ProgramLibrary {
    state.sweep_library_ttl();
    state.library().clone()
}

/// The chunked trailers of every `/apply` response, node or router: records
/// processed, cells rewritten, cells unmatched, then the fast-path hits and
/// misses (see [`finish_apply_body`]).
pub(crate) const APPLY_TRAILERS: [&str; 5] = [
    "X-Ec-Records",
    "X-Ec-Cells-Rewritten",
    "X-Ec-Cells-Unmatched",
    "X-Ec-Library-Hits",
    "X-Ec-Library-Misses",
];

/// Writes the head of an `/apply` response (node or router), announcing
/// [`APPLY_TRAILERS`].
pub(crate) fn write_apply_head(
    writer: &mut ResponseWriter,
    persistence: Persistence,
    library_version: u64,
) -> io::Result<()> {
    http::write_chunked_head(
        writer,
        200,
        "text/csv",
        &[(
            "X-Ec-Library-Version".to_string(),
            library_version.to_string(),
        )],
        persistence,
        &APPLY_TRAILERS,
    )
}

/// [`APPLY_TRAILERS`] paired with their values, in order.
pub(crate) fn apply_trailers(values: [u64; 5]) -> Vec<(String, String)> {
    APPLY_TRAILERS
        .iter()
        .zip(values)
        .map(|(name, value)| (name.to_string(), value.to_string()))
        .collect()
}

/// Finishes a streamed `/apply` response. The fast-path counts ride as
/// chunked *trailers* (the body streams record-at-a-time, so they are only
/// known afterwards): hits are cells the library resolved — rewritten to a
/// canonical form or recognized as already canonical — misses are cells no
/// program covered. The same counts accumulate into the server-lifetime
/// totals `GET /library` reports.
fn finish_apply_body(
    body_writer: ChunkedWriter<&mut ResponseWriter>,
    report: &ApplyReport,
    state: &ServerState,
) -> HandlerResult {
    let hits = (report.cells_rewritten + report.cells_unchanged) as u64;
    let misses = report.cells_unmatched as u64;
    state.library_hits.add(hits);
    state.library_misses.add(misses);
    body_writer
        .finish(&apply_trailers([
            report.records as u64,
            report.cells_rewritten as u64,
            misses,
            hits,
            misses,
        ]))
        .map_err(io_failure)?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use ec_core::{ApprovedGroup, ConsolidationConfig, Group};
    use ec_data::csv::CsvWriter;
    use ec_graph::Replacement;
    use ec_replace::Direction;
    use ec_resolution::{Resolver, ResolverConfig};

    fn start_server(config: ServeConfig) -> (ServerHandle, std::thread::JoinHandle<()>) {
        let server = Server::bind(config).expect("bind an ephemeral port");
        let handle = server.handle();
        let join = std::thread::spawn(move || server.run().expect("server run"));
        (handle, join)
    }

    fn ephemeral_config() -> ServeConfig {
        ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            ..ServeConfig::default()
        }
    }

    #[test]
    fn healthz_and_unknown_endpoints() {
        let (handle, join) = start_server(ephemeral_config());
        let health = http::request(handle.addr(), "GET", "/healthz", b"").unwrap();
        assert_eq!(health.status, 200);
        assert_eq!(health.body, b"ok\n");
        assert!(health.header("x-ec-pool-threads").is_some());
        let missing = http::request(handle.addr(), "GET", "/nope", b"").unwrap();
        assert_eq!(missing.status, 404);
        let bad_method = http::request(handle.addr(), "PUT", "/healthz", b"").unwrap();
        assert_eq!(bad_method.status, 405);
        handle.stop();
        join.join().unwrap();
    }

    #[test]
    fn keep_alive_serves_sequential_requests_on_one_connection() {
        let (handle, join) = start_server(ephemeral_config());
        // `request_many` fails outright if the server hangs up between
        // requests, so three identical answers prove actual socket reuse.
        let responses = http::request_many(handle.addr(), "GET", "/healthz", b"", 3).unwrap();
        assert_eq!(responses.len(), 3);
        for response in &responses[..2] {
            assert_eq!(response.status, 200);
            assert_eq!(response.body, b"ok\n");
            assert_eq!(response.header("connection"), Some("keep-alive"));
        }
        assert_eq!(
            responses[2].header("connection"),
            Some("close"),
            "the final request asked to close"
        );
        // All three requests were counted individually.
        assert!(handle.requests() >= 3);
        handle.stop();
        join.join().unwrap();
    }

    #[test]
    fn keep_alive_reuses_the_connection_across_posted_bodies() {
        let (handle, join) = start_server(ephemeral_config());
        let body = b"source,Name\n0,\"Lee, Mary\"\n1,Mary Lee\n";
        let responses = http::request_many(handle.addr(), "POST", "/apply", body, 2).unwrap();
        assert_eq!(responses.len(), 2);
        assert_eq!(responses[0].status, 200);
        assert_eq!(
            responses[0].body, responses[1].body,
            "both requests on the one connection see identical answers"
        );
        handle.stop();
        join.join().unwrap();
    }

    #[test]
    fn shutdown_endpoint_stops_the_accept_loop() {
        let (handle, join) = start_server(ephemeral_config());
        let response = http::request(handle.addr(), "POST", "/shutdown", b"").unwrap();
        assert_eq!(response.status, 200);
        join.join().unwrap();
    }

    #[test]
    fn apply_standardizes_through_the_library_and_reports_unmatched() {
        let mut library = ProgramLibrary::new();
        library.record(
            "Name",
            &ApprovedGroup {
                group: Group::new(None, vec![Replacement::new("Lee, Mary", "Mary Lee")]),
                direction: Direction::Forward,
            },
        );
        let (handle, join) = start_server(ServeConfig {
            library,
            ..ephemeral_config()
        });
        let body = "source,Name\n0,\"Lee, Mary\"\n1,Mary Lee\n2,unknown\n";
        let response = http::request(handle.addr(), "POST", "/apply", body.as_bytes()).unwrap();
        assert_eq!(response.status, 200, "{:?}", response.body);
        let text = String::from_utf8(response.body.clone()).unwrap();
        assert_eq!(text, "source,Name\n0,Mary Lee\n1,Mary Lee\n2,unknown\n");
        assert_eq!(response.trailer("x-ec-records"), Some("3"));
        assert_eq!(response.trailer("x-ec-cells-rewritten"), Some("1"));
        assert_eq!(response.trailer("x-ec-cells-unmatched"), Some("1"));
        let snapshot = http::request(handle.addr(), "GET", "/library", b"").unwrap();
        assert_eq!(snapshot.header("x-ec-library-evictions"), Some("0"));
        assert_eq!(snapshot.header("x-ec-library-cap"), Some("unbounded"));
        assert!(String::from_utf8(snapshot.body)
            .unwrap()
            .contains("rewrite \"Lee, Mary\" \"Mary Lee\""));
        handle.stop();
        join.join().unwrap();
    }

    #[test]
    fn an_apply_input_error_mid_stream_closes_without_a_second_response() {
        let failures = || {
            ec_obs::counter_with(
                "ec_http_responses_total",
                "Handler outcomes by status class.",
                &[("class", "4xx"), ("service", "serve")],
            )
            .get()
        };
        let before = failures();
        let (handle, join) = start_server(ephemeral_config());
        // The 50th row's source is not a number: the reader fails only after
        // the 200 head has gone out.
        let rows: String = (1..50).map(|row| format!("{row},Mary Lee\n")).collect();
        let body = format!("source,Name\n{rows}x,Mary Lee\n");
        let request = format!(
            "POST /apply HTTP/1.1\r\nHost: x\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        );
        let raw = raw_response(handle.addr(), &request);
        assert!(raw.starts_with("HTTP/1.1 200"), "{raw}");
        assert_eq!(raw.matches("HTTP/1.1 ").count(), 1, "{raw}");
        assert!(!raw.contains("\r\n0\r\n"), "no terminating chunk: {raw}");
        assert!(failures() > before, "the request counts as a 4xx");
        handle.stop();
        join.join().unwrap();
    }

    #[test]
    fn pipeline_rejects_bad_parameters_and_bodies() {
        let (handle, join) = start_server(ephemeral_config());
        let bad_threshold = http::request(
            handle.addr(),
            "POST",
            "/pipeline?threshold=7",
            b"source,A\n0,x\n",
        )
        .unwrap();
        assert_eq!(bad_threshold.status, 400);
        let bad_mode = http::request(
            handle.addr(),
            "POST",
            "/pipeline?mode=interactive",
            b"source,A\n0,x\n",
        )
        .unwrap();
        assert_eq!(bad_mode.status, 400);
        let bad_body =
            http::request(handle.addr(), "POST", "/pipeline", b"not,a,flat\nheader\n").unwrap();
        assert_eq!(bad_body.status, 400);
        handle.stop();
        join.join().unwrap();
    }

    #[test]
    fn pipeline_standardizes_and_learns_into_the_library() {
        let (handle, join) = start_server(ephemeral_config());
        let body = "source,Name\n\
                    0,\"Lee, Mary\"\n1,Mary Lee\n2,\"Lee, Mary\"\n\
                    0,\"Smith, James\"\n1,James Smith\n2,\"Smith, James\"\n";
        let response = http::request(
            handle.addr(),
            "POST",
            "/pipeline?threshold=0.5&budget=10",
            body.as_bytes(),
        )
        .unwrap();
        assert_eq!(response.status, 200);
        let text = String::from_utf8(response.body).unwrap();
        assert!(text.starts_with("cluster,source,"), "{text}");
        let golden = http::request(
            handle.addr(),
            "POST",
            "/pipeline?threshold=0.5&budget=10&output=golden",
            body.as_bytes(),
        )
        .unwrap();
        assert!(String::from_utf8(golden.body)
            .unwrap()
            .starts_with("cluster,"));
        let summary = http::request(
            handle.addr(),
            "POST",
            "/pipeline?threshold=0.5&budget=10&output=summary",
            body.as_bytes(),
        )
        .unwrap();
        assert!(String::from_utf8(summary.body)
            .unwrap()
            .contains("resolved 6 records"));
        handle.stop();
        join.join().unwrap();
    }

    #[test]
    fn library_merge_endpoint_folds_a_posted_snapshot_in() {
        let (handle, join) = start_server(ephemeral_config());
        let mut incoming = ProgramLibrary::new();
        incoming.record(
            "Name",
            &ApprovedGroup {
                group: Group::new(None, vec![Replacement::new("Lee, Mary", "Mary Lee")]),
                direction: Direction::Forward,
            },
        );
        let response = http::request(
            handle.addr(),
            "POST",
            "/library",
            incoming.to_snapshot().as_bytes(),
        )
        .unwrap();
        assert_eq!(response.status, 200, "{:?}", response.body);
        assert!(response.header("x-ec-library-version").is_some());
        // The merged program now standardizes records.
        let applied = http::request(
            handle.addr(),
            "POST",
            "/apply",
            b"source,Name\n0,\"Lee, Mary\"\n",
        )
        .unwrap();
        assert_eq!(
            String::from_utf8(applied.body).unwrap(),
            "source,Name\n0,Mary Lee\n"
        );
        // Merging is idempotent and garbage is rejected cleanly.
        let again = http::request(
            handle.addr(),
            "POST",
            "/library",
            incoming.to_snapshot().as_bytes(),
        )
        .unwrap();
        assert_eq!(again.status, 200);
        let garbage = http::request(handle.addr(), "POST", "/library", b"not a snapshot").unwrap();
        assert_eq!(garbage.status, 400);
        let snapshot = http::request(handle.addr(), "GET", "/library", b"").unwrap();
        assert_eq!(snapshot.header("x-ec-library-ttl"), Some("unbounded"));
        assert!(String::from_utf8(snapshot.body)
            .unwrap()
            .contains("rewrite \"Lee, Mary\" \"Mary Lee\""));
        handle.stop();
        join.join().unwrap();
    }

    #[test]
    fn library_ttl_is_advertised_and_sweeps_idle_entries() {
        let mut library = ProgramLibrary::new();
        library.record(
            "Name",
            &ApprovedGroup {
                group: Group::new(None, vec![Replacement::new("a", "b")]),
                direction: Direction::Forward,
            },
        );
        let (handle, join) = start_server(ServeConfig {
            library,
            // The server clamps sub-second TTLs up to one second, so this
            // cannot evict within the test's lifetime — it only proves the
            // wiring (header + sweep path) without a slow sleep.
            library_ttl: Some(Duration::from_secs(1)),
            ..ephemeral_config()
        });
        let snapshot = http::request(handle.addr(), "GET", "/library", b"").unwrap();
        assert_eq!(snapshot.header("x-ec-library-ttl"), Some("1"));
        assert_eq!(snapshot.header("x-ec-library-evictions"), Some("0"));
        handle.stop();
        join.join().unwrap();
    }

    #[test]
    fn connections_over_the_cap_get_503_with_retry_after() {
        let (handle, join) = start_server(ServeConfig {
            max_connections: 1,
            ..ephemeral_config()
        });
        // Occupy the single slot with a connection mid-request: a partial
        // head parks its handler in the read loop without finishing.
        let mut holder = std::net::TcpStream::connect(handle.addr()).unwrap();
        holder.write_all(b"GET /healthz HTT").unwrap();
        holder.flush().unwrap();
        // The holder connects (and is accepted) first; the next connection
        // trips the cap on the accept thread, which answers before reading
        // the request and then half-closes and drains it so the answer is
        // not lost to a reset. Transient errors are still retried (the
        // holder occupies the slot for seconds either way).
        let rejected = (0..50)
            .find_map(|_| http::request(handle.addr(), "GET", "/healthz", b"").ok())
            .expect("no rejection response within the holder's window");
        assert_eq!(rejected.status, 503);
        assert_eq!(rejected.header("retry-after"), Some("1"));
        assert_eq!(rejected.header("connection"), Some("close"));
        // Releasing the slot re-admits new connections. Until the holder's
        // job notices the hangup, requests still trip the cap, so 503s and
        // transient errors here are retried, not fatal.
        drop(holder);
        let mut recovered = None;
        for _ in 0..100 {
            match http::request(handle.addr(), "GET", "/healthz", b"") {
                Ok(response) if response.status == 200 => {
                    recovered = Some(response);
                    break;
                }
                Ok(_) | Err(_) => {}
            }
            std::thread::sleep(Duration::from_millis(20));
        }
        assert!(recovered.is_some(), "cap never released after disconnect");
        handle.stop();
        join.join().unwrap();
    }

    #[test]
    fn rejections_survive_a_client_that_reads_late() {
        let (handle, join) = start_server(ServeConfig {
            max_connections: 1,
            ..ephemeral_config()
        });
        let mut holder = std::net::TcpStream::connect(handle.addr()).unwrap();
        holder.write_all(b"GET /healthz HTT").unwrap();
        holder.flush().unwrap();
        // Each client sends its whole request, then waits before reading:
        // by then the server has answered and closed. Closing with the
        // request unread would reset the connection and take the queued 503
        // with it.
        for attempt in 0..10 {
            let mut client = std::net::TcpStream::connect(handle.addr()).unwrap();
            client
                .write_all(b"GET /healthz HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n")
                .unwrap();
            std::thread::sleep(Duration::from_millis(20));
            let mut answer = Vec::new();
            client
                .read_to_end(&mut answer)
                .unwrap_or_else(|e| panic!("attempt {attempt}: {e}"));
            assert!(
                answer.starts_with(b"HTTP/1.1 503"),
                "attempt {attempt}: {}",
                String::from_utf8_lossy(&answer)
            );
        }
        drop(holder);
        handle.stop();
        join.join().unwrap();
    }

    /// Compiles `flat` the way `ec compile` does for resolver input: resolve
    /// the stream at `threshold`, then prepare every partition eagerly.
    fn compile_flat(flat: &str, threshold: f64) -> ec_core::CompiledDataset {
        let mut stream = FlatCsvReader::new(flat.as_bytes()).unwrap();
        let dataset = Resolver::new(ResolverConfig {
            threshold,
            ..ResolverConfig::default()
        })
        .resolve_stream("resolved", &mut stream)
        .unwrap();
        ec_core::compile_dataset(dataset, threshold, true, &ConsolidationConfig::default())
    }

    /// The compiled dataset's records as flat CSV, cluster-major — the same
    /// order the preloaded `/apply` streams and `ec compile --emit-flat`
    /// writes.
    fn flatten_compiled(compiled: &CompiledDataset) -> Vec<u8> {
        let mut flat = Vec::new();
        let mut csv = CsvWriter::new(&mut flat);
        let header =
            std::iter::once("source").chain(compiled.dataset.columns.iter().map(String::as_str));
        csv.write_record(header).unwrap();
        for cluster in &compiled.dataset.clusters {
            for row in &cluster.rows {
                let fields = std::iter::once(row.source.to_string())
                    .chain(row.cells.iter().map(|c| c.observed.clone()));
                csv.write_record(fields).unwrap();
            }
        }
        csv.flush().unwrap();
        drop(csv);
        flat
    }

    #[test]
    fn preloaded_artifact_replays_pipeline_and_apply_byte_identically() {
        let body = "source,Name\n\
                    0,\"Lee, Mary\"\n1,Mary Lee\n2,\"Lee, Mary\"\n\
                    0,\"Smith, James\"\n1,James Smith\n2,\"Smith, James\"\n";
        let compiled = Arc::new(compile_flat(body, 0.5));
        let (fresh, fresh_join) = start_server(ephemeral_config());
        let (loaded, loaded_join) = start_server(ServeConfig {
            preloaded: Some(Arc::clone(&compiled)),
            ..ephemeral_config()
        });

        // Every output flavour: the fresh server parses and consolidates the
        // posted CSV; the preloaded one replays the compiled state off an
        // empty body. Responses must match byte for byte, headers included.
        for query in [
            "/pipeline?threshold=0.5&budget=100",
            "/pipeline?threshold=0.5&budget=100&output=golden",
            "/pipeline?threshold=0.5&budget=100&output=summary",
            "/pipeline?threshold=0.5&column=Name",
        ] {
            let a = http::request(fresh.addr(), "POST", query, body.as_bytes()).unwrap();
            let b = http::request(loaded.addr(), "POST", query, b"").unwrap();
            assert_eq!(
                a.status,
                200,
                "{query}: {:?}",
                String::from_utf8_lossy(&a.body)
            );
            assert_eq!(
                b.status,
                200,
                "{query}: {:?}",
                String::from_utf8_lossy(&b.body)
            );
            assert_eq!(a.body, b.body, "{query}");
            for header in ["x-ec-clusters", "x-ec-records", "x-ec-groups-approved"] {
                assert_eq!(a.header(header), b.header(header), "{query}: {header}");
            }
        }

        // Both servers learned identical programs, so /apply agrees too:
        // posting the flattened records to the fresh server matches the
        // preloaded server standardizing its own compiled records.
        assert_eq!(fresh.library_snapshot(), loaded.library_snapshot());
        let flat = flatten_compiled(&compiled);
        let a = http::request(fresh.addr(), "POST", "/apply", &flat).unwrap();
        let b = http::request(loaded.addr(), "POST", "/apply", b"").unwrap();
        assert_eq!(a.status, 200);
        assert_eq!(b.status, 200);
        assert_eq!(a.body, b.body);
        for trailer in [
            "x-ec-records",
            "x-ec-cells-rewritten",
            "x-ec-cells-unmatched",
        ] {
            assert_eq!(a.trailer(trailer), b.trailer(trailer), "{trailer}");
        }

        fresh.stop();
        loaded.stop();
        fresh_join.join().unwrap();
        loaded_join.join().unwrap();
    }

    #[test]
    fn preloaded_pipeline_rejects_a_conflicting_threshold() {
        let body = "source,Name\n0,\"Lee, Mary\"\n1,Mary Lee\n";
        let (handle, join) = start_server(ServeConfig {
            preloaded: Some(Arc::new(compile_flat(body, 0.5))),
            ..ephemeral_config()
        });
        // The clusters were formed at compile time; a different threshold
        // cannot be honoured and must not be silently ignored.
        let mismatch =
            http::request(handle.addr(), "POST", "/pipeline?threshold=0.9", b"").unwrap();
        assert_eq!(mismatch.status, 400);
        assert!(String::from_utf8(mismatch.body)
            .unwrap()
            .contains("compiled at threshold 0.5"));
        // The artifact's own threshold — spelled out or defaulted — works.
        let spelled = http::request(handle.addr(), "POST", "/pipeline?threshold=0.5", b"").unwrap();
        assert_eq!(spelled.status, 200);
        let defaulted = http::request(handle.addr(), "POST", "/pipeline", b"").unwrap();
        assert_eq!(defaulted.status, 200);
        assert_eq!(spelled.body, defaulted.body);
        // A posted body still takes the fresh path, artifact or not.
        let fresh = http::request(handle.addr(), "POST", "/pipeline", body.as_bytes()).unwrap();
        assert_eq!(fresh.status, 200);
        handle.stop();
        join.join().unwrap();
    }

    #[test]
    fn ingest_batches_replay_the_one_shot_pipeline_byte_for_byte() {
        let batch1 = "source,Name\n0,\"Lee, Mary\"\n1,Mary Lee\n2,\"Lee, Mary\"\n";
        let batch2 = "source,Name\n0,\"Smith, James\"\n1,James Smith\n2,\"Smith, James\"\n";
        let batch3 = batch1; // Same values again: pure fast-path traffic.
        let rows = |batch: &str| batch["source,Name\n".len()..].to_string();
        let union = format!(
            "source,Name\n{}{}{}",
            rows(batch1),
            rows(batch2),
            rows(batch3)
        );

        let (ingesting, ingest_join) = start_server(ephemeral_config());
        let (one_shot, one_shot_join) = start_server(ephemeral_config());

        let query = "/ingest?threshold=0.5&budget=10&mode=approve-all";
        let first = http::request(ingesting.addr(), "POST", query, batch1.as_bytes()).unwrap();
        assert_eq!(
            first.status,
            200,
            "{}",
            String::from_utf8_lossy(&first.body)
        );
        // A fresh session has seen nothing: every record is residue.
        assert_eq!(first.header("x-ec-library-hits"), Some("0"));
        assert_eq!(first.header("x-ec-library-misses"), Some("3"));
        let second = http::request(ingesting.addr(), "POST", query, batch2.as_bytes()).unwrap();
        assert_eq!(second.status, 200);
        let third = http::request(ingesting.addr(), "POST", query, batch3.as_bytes()).unwrap();
        assert_eq!(third.status, 200);
        // Every batch-3 value was already seen (or library-canonical).
        assert_eq!(third.header("x-ec-library-hits"), Some("3"));
        assert_eq!(third.header("x-ec-library-misses"), Some("0"));
        assert_eq!(third.header("x-ec-records"), Some("9"));
        assert_eq!(third.header("x-ec-batches"), Some("3"));

        // The delta session's answer is byte-identical to one `/pipeline`
        // run over the union of every batch.
        let rebuilt = http::request(
            one_shot.addr(),
            "POST",
            "/pipeline?threshold=0.5&budget=10&mode=approve-all&output=golden",
            union.as_bytes(),
        )
        .unwrap();
        assert_eq!(rebuilt.status, 200);
        assert_eq!(
            String::from_utf8(third.body.clone()).unwrap(),
            String::from_utf8(rebuilt.body.clone()).unwrap()
        );

        // The session's learned programs reached the serving library, and
        // `GET /library` totals the fast-path accounting.
        let snapshot = http::request(ingesting.addr(), "GET", "/library", b"").unwrap();
        assert!(String::from_utf8(snapshot.body.clone())
            .unwrap()
            .contains("rewrite"));
        assert_eq!(snapshot.header("x-ec-library-hits"), Some("3"));
        assert_eq!(snapshot.header("x-ec-library-misses"), Some("6"));

        // A batch with different parameters (or columns) is refused: the
        // session is pinned to its first batch's configuration.
        let conflicting = http::request(
            ingesting.addr(),
            "POST",
            "/ingest?threshold=0.5&budget=99",
            batch1.as_bytes(),
        )
        .unwrap();
        assert_eq!(conflicting.status, 400);
        // Mode is pinned too, and the refusal names every pinned knob, so a
        // client that changed only the mode can see which value differs.
        let mode_only = http::request(
            ingesting.addr(),
            "POST",
            "/ingest?threshold=0.5&budget=10&mode=auto",
            batch1.as_bytes(),
        )
        .unwrap();
        assert_eq!(mode_only.status, 400);
        let refusal = String::from_utf8_lossy(&mode_only.body);
        assert!(
            refusal.contains(
                "threshold 0.5, budget 10, mode approve-all, truth-method majority, \
                 name 'resolved'"
            ),
            "{refusal}"
        );
        let wrong_columns =
            http::request(ingesting.addr(), "POST", query, b"source,Other\n0,x\n").unwrap();
        assert_eq!(wrong_columns.status, 400);

        ingesting.stop();
        one_shot.stop();
        ingest_join.join().unwrap();
        one_shot_join.join().unwrap();
    }

    #[test]
    fn a_handler_panic_holding_a_lock_does_not_take_the_server_down() {
        let (handle, join) = start_server(ephemeral_config());
        let addr = handle.addr();
        let batch = b"source,Name\n0,\"Lee, Mary\"\n1,Mary Lee\n";
        let ingest = |expected: u16| {
            let response = http::request(addr, "POST", "/ingest?mode=approve-all", batch).unwrap();
            let body = String::from_utf8_lossy(&response.body).into_owned();
            assert_eq!(response.status, expected, "{body}");
            (response, body)
        };
        ingest(200);

        // Poison both server locks from helper threads that panic holding
        // them — the ingest one part-way through a batch.
        let state = Arc::clone(&handle.state);
        let poisoned = std::thread::spawn(move || {
            let _library = state.library.write().unwrap();
            let mut session = state.ingest.lock().unwrap();
            session.as_mut().unwrap().mid_batch = true;
            panic!("a handler fails while holding the server locks");
        })
        .join();
        assert!(poisoned.is_err());
        assert!(handle.state.library.is_poisoned() && handle.state.ingest.is_poisoned());

        let library = http::request(addr, "GET", "/library", b"").unwrap();
        assert_eq!(library.status, 200);
        let applied = http::request(addr, "POST", "/apply", batch).unwrap();
        assert_eq!(applied.status, 200);
        assert!(applied.trailer("x-ec-records").is_some());
        // The interrupted session is dropped with one 500; the next batch
        // opens a fresh session, and later batches extend it.
        let (_, lost) = ingest(500);
        assert!(lost.contains("ingest session was lost"), "{lost}");
        let (fresh, _) = ingest(200);
        assert_eq!(fresh.header("x-ec-batches"), Some("1"));
        let (next, _) = ingest(200);
        assert_eq!(next.header("x-ec-batches"), Some("2"));
        handle.stop();
        join.join().unwrap();
    }

    #[test]
    fn apply_reports_fast_path_hits_and_misses_in_trailers() {
        let mut library = ProgramLibrary::new();
        library.record(
            "Name",
            &ApprovedGroup {
                group: Group::new(None, vec![Replacement::new("Lee, Mary", "Mary Lee")]),
                direction: Direction::Forward,
            },
        );
        let (handle, join) = start_server(ServeConfig {
            library,
            ..ephemeral_config()
        });
        // One rewritten + one already-canonical cell are hits; the unknown
        // value is a miss.
        let body = "source,Name\n0,\"Lee, Mary\"\n1,Mary Lee\n2,unknown\n";
        let response = http::request(handle.addr(), "POST", "/apply", body.as_bytes()).unwrap();
        assert_eq!(response.status, 200);
        assert_eq!(response.trailer("x-ec-library-hits"), Some("2"));
        assert_eq!(response.trailer("x-ec-library-misses"), Some("1"));
        let snapshot = http::request(handle.addr(), "GET", "/library", b"").unwrap();
        assert_eq!(snapshot.header("x-ec-library-hits"), Some("2"));
        assert_eq!(snapshot.header("x-ec-library-misses"), Some("1"));
        handle.stop();
        join.join().unwrap();
    }

    #[test]
    fn auth_token_gates_every_mutating_endpoint() {
        let (handle, join) = start_server(ServeConfig {
            auth_token: Some("sekrit".to_string()),
            ..ephemeral_config()
        });
        // GETs stay open — health probes and snapshot reads need no token.
        let health = http::request(handle.addr(), "GET", "/healthz", b"").unwrap();
        assert_eq!(health.status, 200);
        // Every POST without (or with a wrong) token is refused.
        let body = b"source,Name\n0,x\n";
        for path in ["/apply", "/pipeline", "/ingest", "/library", "/shutdown"] {
            let denied = http::request(handle.addr(), "POST", path, body).unwrap();
            assert_eq!(denied.status, 401, "{path} must require the token");
        }
        let wrong = http::request_with_headers(
            handle.addr(),
            "POST",
            "/apply",
            body,
            &[("Authorization".to_string(), "Bearer nope".to_string())],
        )
        .unwrap();
        assert_eq!(wrong.status, 401);
        // The right token admits the request.
        let bearer = [("Authorization".to_string(), "Bearer sekrit".to_string())];
        let allowed =
            http::request_with_headers(handle.addr(), "POST", "/apply", body, &bearer).unwrap();
        assert_eq!(allowed.status, 200);
        handle.stop();
        join.join().unwrap();
    }

    #[test]
    fn router_checks_and_forwards_the_bearer_token() {
        // Backend and router share one token; the client presents it once to
        // the router, which re-presents it on every backend request.
        let (backend, backend_join) = start_server(ServeConfig {
            auth_token: Some("sekrit".to_string()),
            ..ephemeral_config()
        });
        let mut config = RouterConfig::new("127.0.0.1:0", vec![backend.addr().to_string()]);
        config.auth_token = Some("sekrit".to_string());
        let router = Router::bind(config).unwrap();
        let router_handle = router.handle();
        let router_join = std::thread::spawn(move || router.run().unwrap());

        let body = b"source,Name\n0,x\n";
        let denied = http::request(router_handle.addr(), "POST", "/apply", body).unwrap();
        assert_eq!(denied.status, 401);
        let bearer = [("Authorization".to_string(), "Bearer sekrit".to_string())];
        let allowed =
            http::request_with_headers(router_handle.addr(), "POST", "/apply", body, &bearer)
                .unwrap();
        assert_eq!(
            allowed.status,
            200,
            "{}",
            String::from_utf8_lossy(&allowed.body)
        );

        router_handle.stop();
        router_join.join().unwrap();
        backend.stop();
        backend_join.join().unwrap();
    }

    #[test]
    fn empty_body_without_an_artifact_is_still_a_bad_request() {
        let (handle, join) = start_server(ephemeral_config());
        let pipeline = http::request(handle.addr(), "POST", "/pipeline", b"").unwrap();
        assert_eq!(pipeline.status, 400, "no artifact: empty CSV is an error");
        handle.stop();
        join.join().unwrap();
    }

    /// Writes `raw` to a fresh socket and returns every byte the server
    /// sends until it closes — for requests and responses the test client
    /// cannot produce or parse.
    fn raw_response(addr: SocketAddr, raw: &str) -> String {
        let mut stream = std::net::TcpStream::connect(addr).unwrap();
        stream.write_all(raw.as_bytes()).unwrap();
        stream.flush().unwrap();
        let mut response = Vec::new();
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        stream.read_to_end(&mut response).unwrap();
        String::from_utf8_lossy(&response).into_owned()
    }

    #[test]
    fn duplicate_content_length_is_rejected_by_server_and_router() {
        let smuggle = "POST /apply HTTP/1.1\r\nHost: x\r\n\
                       Content-Length: 4\r\nContent-Length: 4\r\n\r\nabcd";
        let (handle, join) = start_server(ephemeral_config());
        assert!(
            raw_response(handle.addr(), smuggle).starts_with("HTTP/1.1 400"),
            "server must refuse duplicate framing headers"
        );

        let router = Router::bind(RouterConfig::new(
            "127.0.0.1:0",
            vec![handle.addr().to_string()],
        ))
        .unwrap();
        let router_handle = router.handle();
        let router_join = std::thread::spawn(move || router.run().unwrap());
        assert!(
            raw_response(router_handle.addr(), smuggle).starts_with("HTTP/1.1 400"),
            "the router shares the rejection, never relaying the request"
        );

        router_handle.stop();
        router_join.join().unwrap();
        handle.stop();
        join.join().unwrap();
    }
}
