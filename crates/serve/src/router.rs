//! The scale-out front-end: `ec serve --route b1:port,b2:port,…`.
//!
//! A [`Router`] is the same binary in a different role: it owns no
//! [`ProgramLibrary`](ec_core::ProgramLibrary) and runs no consolidation,
//! but partitions work across N backend `ec serve` processes over the
//! std-only HTTP/1.1 client ([`ClientConn`]) with a small pool of
//! persistent keep-alive connections per backend. Placement comes from the
//! consistent-hash [`Ring`]:
//!
//! * **`POST /apply` shards by column.** Each attribute column routes to
//!   the backend that owns it, the router fans one sub-request per owner
//!   out on scoped threads, and zip-merges the shard responses back into
//!   one CSV — deterministically, because apply is per-column independent
//!   and every shard answers in the original record order. With libraries
//!   replicated (below), the merged bytes equal a single node's.
//! * **`POST /pipeline` routes by blocking key.** Resolution clustering and
//!   consolidation learning are *global* over the request's records —
//!   splitting records across backends would change clusters, candidate
//!   groups and therefore bytes. So the router keeps each pipeline request
//!   whole and routes it by a blocking key (the `shard-key` query parameter
//!   if given, else the normalized first record), spreading *request load*
//!   across backends while preserving byte-identical responses; the shard's
//!   response streams back through the router un-buffered.
//! * **Backends are health-checked**: a probe loop `GET /healthz`es each
//!   backend every `probe_interval`; requests fail open past unhealthy
//!   backends ([`Ring::route_where`]) and a backend that errors mid-request
//!   is retried once on a fresh connection (pooled sockets race the
//!   backend's idle timeout), then marked down and the request re-routed.
//! * **Library mutations replicate.** After a pipeline run that approved
//!   groups, the router pulls the serving backend's text snapshot
//!   (`GET /library`) and merges it into every other healthy backend
//!   (`POST /library`) *before* completing the client's response — the
//!   snapshot's version gates redundant syncs, merges are idempotent, and a
//!   backend recovering from downtime is re-seeded from a healthy peer by
//!   the probe loop.
//!
//! The router spawns a plain thread per connection instead of using the
//! shared worker pool: its handlers block on backend sockets, and parking
//! them on the CPU-sized pool the backends' own consolidation stages run on
//! (one process in tests, and the same machine in small deployments) would
//! starve the very work being waited on.

use crate::conn::{
    self, BodyReader, HandlerResult, HttpFailure, Lifecycle, ResponseWriter, Service,
};
use crate::http::{self, ChunkedWriter, ClientConn, Persistence, Request, Response};
use crate::ring::{Ring, DEFAULT_REPLICAS};
use ec_data::{csv::CsvWriter, FlatCsvReader, RecordStream};
use std::io::{self, BufWriter, Read, Write};
use std::net::{SocketAddr, TcpListener, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// How long a backend connect may take before the backend counts as failed.
const CONNECT_TIMEOUT: Duration = Duration::from_secs(1);

/// How long one blocked read from a backend may stall a relay. Generous —
/// pipeline runs are real compute — but finite, so a wedged backend can
/// never pin a router thread forever.
const BACKEND_READ_TIMEOUT: Duration = Duration::from_secs(300);

/// Backend connections allowed before the first probe reports the
/// backend's real worker count (which replaces this via
/// [`Backend::budget`]).
const DEFAULT_CONN_BUDGET: usize = 4;

/// Extra connections past the backend's worker count. A backend can only
/// *serve* as many requests as it has workers; a little headroom keeps the
/// next request queued at the backend while the previous response travels
/// back, so workers never wait on the router's turnaround.
const CONN_BUDGET_HEADROOM: usize = 2;

/// Upper bound on the per-backend connection budget, whatever the backend
/// advertises.
const MAX_CONN_BUDGET: usize = 16;

/// Cap on a buffered request body (`/pipeline` is buffered so routing can
/// inspect the first record and failover can replay the request).
const ROUTE_BODY_CAP: u64 = conn::DRAIN_CAP;

/// Probe timeouts are tight: health checks answer from memory.
const PROBE_READ_TIMEOUT: Duration = Duration::from_secs(2);

/// Read timeout for prober-initiated library syncs. Deliberately much
/// shorter than [`BACKEND_READ_TIMEOUT`]: a resync blocks the probe sweep,
/// and a saturated backend must not wedge health updates for minutes —
/// a timed-out resync is retried on the next down→up transition and by the
/// next approved pipeline run.
const RESYNC_READ_TIMEOUT: Duration = Duration::from_secs(5);

/// Configuration of [`Router::bind`].
#[derive(Debug, Clone)]
pub struct RouterConfig {
    /// Listen address (port 0 picks an ephemeral port, as for the server).
    pub addr: String,
    /// Backend `host:port` addresses, as given on `--route`. Order fixes
    /// backend indices in `/healthz` output; placement ignores order.
    pub backends: Vec<String>,
    /// Virtual nodes per backend on the ring (0 = [`DEFAULT_REPLICAS`]).
    pub replicas: usize,
    /// Delay between health-probe sweeps.
    pub probe_interval: Duration,
    /// Maximum concurrent client connections (0 = unbounded); connections
    /// over the cap get `503` + `Retry-After`, as on a single-node server.
    pub max_connections: usize,
    /// When set, mutating (`POST`) client requests require
    /// `Authorization: Bearer <token>` (answering `401` without it) and the
    /// router presents the same token on every backend request — so a fleet
    /// of `--auth-token` backends sits behind one `--auth-token` router.
    pub auth_token: Option<String>,
}

impl RouterConfig {
    /// A config with default ring geometry and probe cadence.
    pub fn new(addr: impl Into<String>, backends: Vec<String>) -> Self {
        RouterConfig {
            addr: addr.into(),
            backends,
            replicas: DEFAULT_REPLICAS,
            probe_interval: Duration::from_millis(500),
            max_connections: 0,
            auth_token: None,
        }
    }
}

/// The leased-connection accounting for one backend: `total` counts every
/// connection in existence (idle here plus leased out), and the condvar
/// paired with it wakes acquirers when a lease returns.
#[derive(Default)]
struct ConnPool {
    /// Idle keep-alive connections, most recently used last.
    idle: Vec<ClientConn>,
    /// Connections in existence (idle + leased); bounded by
    /// [`Backend::budget`].
    total: usize,
}

/// One backend as the router sees it.
struct Backend {
    /// The name as configured (and as hashed onto the ring).
    name: String,
    addr: SocketAddr,
    /// Flipped by the probe loop and by request-path failures; routing
    /// consults it through [`Ring::route_where`].
    healthy: AtomicBool,
    /// The persistent-connection pool; see [`RouterState::acquire`].
    pool: Mutex<ConnPool>,
    /// Wakes acquirers blocked on a full pool when a lease returns.
    freed: Condvar,
    /// How many connections this backend gets: its advertised worker count
    /// (from the probe's `X-Ec-Pool-Threads`) plus headroom. Keeping this
    /// near the backend's real parallelism is what makes pooled connections
    /// *hot* — each is reacquired within microseconds of release, so the
    /// backend's next-request grace always lands and excess connections
    /// never queue cold on the backend side.
    budget: AtomicUsize,
    /// Highest library version already replicated *from* this backend —
    /// gates redundant snapshot syncs.
    synced_version: AtomicU64,
}

impl Backend {
    fn is_healthy(&self) -> bool {
        self.healthy.load(Ordering::Acquire)
    }

    /// The connection pool. A request that panicked while holding it poisons
    /// the lock, but every critical section is a single push, pop or count
    /// update, so the pool is taken back rather than failing every later
    /// request.
    fn pool(&self) -> MutexGuard<'_, ConnPool> {
        self.pool.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// One leased backend connection. A lease accounts for one unit of its
/// backend's [`ConnPool::total`]: dropping it (every error path) closes the
/// socket and frees the slot, [`Lease::release`] returns the connection for
/// reuse instead. Either way a blocked acquirer is woken.
struct Lease<'a> {
    state: &'a RouterState,
    index: usize,
    conn: Option<ClientConn>,
}

impl Lease<'_> {
    fn conn(&mut self) -> &mut ClientConn {
        self.conn
            .as_mut()
            .expect("a live lease holds its connection")
    }

    /// Returns the connection to the idle pool for the next acquirer — or,
    /// when it cannot be reused (backend asked to close, or is marked
    /// down), just drops it, freeing the slot.
    fn release(mut self, reusable: bool) {
        let backend = &self.state.backends[self.index];
        if !reusable || !backend.is_healthy() {
            return; // Drop frees the slot.
        }
        let conn = self.conn.take().expect("a live lease holds its connection");
        backend.pool().idle.push(conn);
        backend.freed.notify_one();
        std::mem::forget(self); // The connection lives on: keep it counted.
    }
}

impl Drop for Lease<'_> {
    fn drop(&mut self) {
        let backend = &self.state.backends[self.index];
        backend.pool().total -= 1;
        backend.freed.notify_one();
    }
}

/// Shared router state (the router-side counterpart of the server's state).
pub struct RouterState {
    life: Lifecycle,
    ring: Ring,
    backends: Vec<Backend>,
    probe_interval: Duration,
    max_connections: usize,
    auth_token: Option<String>,
}

impl RouterState {
    /// The headers every backend request carries: the bearer token when the
    /// router was configured with one. Backends behind an authenticated
    /// router are expected to share its token.
    fn backend_headers(&self) -> Vec<(String, String)> {
        match &self.auth_token {
            Some(token) => vec![("Authorization".to_string(), format!("Bearer {token}"))],
            None => Vec::new(),
        }
    }
}

/// The bound (but not yet running) router. [`Router::run`] blocks on the
/// accept loop until a shutdown is requested.
pub struct Router {
    listener: TcpListener,
    state: Arc<RouterState>,
}

/// A cheap handle for stopping a running router and reading its state.
#[derive(Clone)]
pub struct RouterHandle {
    state: Arc<RouterState>,
}

impl RouterHandle {
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

    /// How many backends the router is configured with.
    pub fn backends(&self) -> usize {
        self.state.backends.len()
    }

    /// How many backends the last probes considered healthy.
    pub fn healthy_backends(&self) -> usize {
        self.state
            .backends
            .iter()
            .filter(|b| b.is_healthy())
            .count()
    }
}

impl Router {
    /// Resolves the backends, builds the ring and binds the listener. All
    /// backends start optimistically healthy; the probe loop corrects that
    /// within one `probe_interval` of [`Router::run`].
    pub fn bind(config: RouterConfig) -> io::Result<Router> {
        let invalid = |message: String| io::Error::new(io::ErrorKind::InvalidInput, message);
        if config.backends.is_empty() {
            return Err(invalid("a router needs at least one backend".to_string()));
        }
        let mut backends = Vec::with_capacity(config.backends.len());
        for name in &config.backends {
            if backends.iter().any(|b: &Backend| &b.name == name) {
                return Err(invalid(format!("duplicate backend '{name}'")));
            }
            let addr = name
                .to_socket_addrs()
                .map_err(|e| invalid(format!("cannot resolve backend '{name}': {e}")))?
                .next()
                .ok_or_else(|| invalid(format!("cannot resolve backend '{name}'")))?;
            backends.push(Backend {
                name: name.clone(),
                addr,
                healthy: AtomicBool::new(true),
                pool: Mutex::new(ConnPool::default()),
                freed: Condvar::new(),
                budget: AtomicUsize::new(DEFAULT_CONN_BUDGET),
                synced_version: AtomicU64::new(0),
            });
        }
        let replicas = if config.replicas == 0 {
            DEFAULT_REPLICAS
        } else {
            config.replicas
        };
        let ring = Ring::new(&config.backends, replicas);
        let listener = TcpListener::bind(&config.addr)?;
        let state = Arc::new(RouterState {
            life: Lifecycle::new(listener.local_addr()?),
            ring,
            backends,
            probe_interval: config.probe_interval,
            max_connections: config.max_connections,
            auth_token: config.auth_token,
        });
        Ok(Router { listener, state })
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.state.life.addr
    }

    /// A stop/inspect handle.
    pub fn handle(&self) -> RouterHandle {
        RouterHandle {
            state: Arc::clone(&self.state),
        }
    }

    /// Runs the health-probe loop and the accept loop until
    /// [`RouterHandle::stop`] (or `POST /shutdown`). Backends are left
    /// running — they belong to whoever started them.
    pub fn run(self) -> io::Result<()> {
        let prober_state = Arc::clone(&self.state);
        let prober = std::thread::Builder::new()
            .name("ec-router-probe".to_string())
            .spawn(move || probe_loop(&prober_state))?;
        let outcome = conn::run_accept_loop(self.listener, Arc::clone(&self.state));
        // The stop flag is up (the accept loop only exits on it); the prober
        // notices within one sleep slice.
        let _ = prober.join();
        outcome
    }
}

impl Service for RouterState {
    fn lifecycle(&self) -> &Lifecycle {
        &self.life
    }

    fn metrics_service() -> &'static str {
        "router"
    }

    fn max_connections(&self) -> usize {
        self.max_connections
    }

    /// One plain thread per connection: relay work is I/O-bound, and the
    /// shared pool belongs to the backends' consolidation stages (see the
    /// module docs).
    fn execute(&self, job: Box<dyn FnOnce() + Send + 'static>) {
        let spawned = std::thread::Builder::new()
            .name("ec-router-conn".to_string())
            .spawn(job);
        // Out of threads: drop the connection (the guard inside `job` never
        // ran, so the active count was already balanced by the caller — the
        // job owns the guard, so dropping the closure drops the guard too).
        drop(spawned);
    }

    fn dispatch(
        this: &Arc<Self>,
        request: &Request,
        has_body: bool,
        persistence: Persistence,
        body: &mut BodyReader<'_>,
        writer: &mut ResponseWriter,
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
        // The same bearer gate as the single-node server: every mutating
        // endpoint is a POST, checked before routing.
        if request.method == "POST" {
            crate::require_bearer(request, this.auth_token.as_deref())?;
        }
        match (request.method.as_str(), request.path.as_str()) {
            ("GET", "/healthz") => handle_healthz(this, writer, persistence),
            ("GET", "/metrics") => crate::handle_metrics(writer, persistence),
            ("GET", "/library") => handle_library(this, writer, persistence),
            ("POST", "/library") => {
                require_body()?;
                handle_library_replicate(this, body, writer, persistence)
            }
            ("POST", "/shutdown") => {
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
                this.life.request_stop();
                Ok(())
            }
            ("POST", "/pipeline") => {
                require_body()?;
                handle_pipeline(this, request, body, writer, persistence)
            }
            ("POST", "/apply") => {
                require_body()?;
                handle_apply(this, request, body, writer, persistence)
            }
            ("GET" | "POST", _) => Err(HttpFailure::new(
                404,
                format!("no such endpoint: {}", request.path),
            )),
            _ => Err(HttpFailure::new(405, "method not allowed")),
        }
    }
}

fn io_failure(e: io::Error) -> HttpFailure {
    HttpFailure::new(500, format!("io error: {e}"))
}

// ---------------------------------------------------------------------------
// Backend connection plumbing.
// ---------------------------------------------------------------------------

impl RouterState {
    /// Leases a connection to backend `index`: a pooled one if available
    /// (unless `fresh` demands a new socket), a fresh dial while the
    /// backend's budget allows, otherwise *blocks* until a lease returns —
    /// for at most `read_timeout`. The bound is the point: the router
    /// funnels all traffic for a backend through a few persistent hot
    /// connections matched to the backend's parallelism instead of opening
    /// a cold socket per concurrent request, which only queues on the
    /// backend and churns its accept path. The read timeout is (re)applied
    /// per call — pooled connections keep whatever the previous caller set.
    fn acquire(&self, index: usize, fresh: bool, read_timeout: Duration) -> io::Result<Lease<'_>> {
        let backend = &self.backends[index];
        let started = Instant::now();
        let deadline = started + read_timeout;
        // How long this call waited for a usable connection — pool wait plus
        // any dial. Per-backend, so one saturated backend shows up by name.
        let lease_wait = ec_obs::histogram_with(
            "ec_router_lease_wait_seconds",
            "Wall time a request waited to lease a backend connection (pool wait plus dial).",
            ec_obs::Unit::Seconds,
            ec_obs::LATENCY_BUCKETS_US,
            &[("backend", &backend.name)],
        );
        let mut pool = backend.pool();
        loop {
            if fresh {
                // Retrying: any pooled socket may be stale for the same
                // reason the last one was — drop one to make room to dial.
                if pool.idle.pop().is_some() {
                    pool.total -= 1;
                }
            } else if let Some(conn) = pool.idle.pop() {
                drop(pool);
                let mut lease = Lease {
                    state: self,
                    index,
                    conn: Some(conn),
                };
                lease.conn().set_read_timeout(Some(read_timeout))?;
                lease_wait.observe_duration(started.elapsed());
                return Ok(lease);
            }
            if pool.total < backend.budget.load(Ordering::Relaxed).max(1) {
                pool.total += 1;
                drop(pool);
                // Dial outside the lock; on failure the lease's drop
                // returns the slot.
                let mut lease = Lease {
                    state: self,
                    index,
                    conn: None,
                };
                let conn = ClientConn::connect(backend.addr, Some(CONNECT_TIMEOUT))?;
                conn.set_read_timeout(Some(read_timeout))?;
                lease.conn = Some(conn);
                lease_wait.observe_duration(started.elapsed());
                return Ok(lease);
            }
            let remaining = deadline.saturating_duration_since(Instant::now());
            if remaining.is_zero() {
                return Err(io::Error::new(
                    io::ErrorKind::TimedOut,
                    format!(
                        "no connection to backend {} became available in {read_timeout:?}",
                        backend.name
                    ),
                ));
            }
            pool = backend
                .freed
                .wait_timeout(pool, remaining)
                .unwrap_or_else(PoisonError::into_inner)
                .0;
        }
    }

    /// Marks a backend down after a request-path failure and drops its
    /// pooled connections; the probe loop re-admits it when it answers
    /// again. Leased-out connections stay counted until their leases end.
    fn mark_down(&self, index: usize) {
        let backend = &self.backends[index];
        backend.healthy.store(false, Ordering::Release);
        let mut pool = backend.pool();
        pool.total -= pool.idle.len();
        pool.idle.clear();
        drop(pool);
        backend.freed.notify_all();
    }

    /// One request to backend `index`, reading only the response head —
    /// retried once on a fresh connection, because a pooled socket may have
    /// lost the race with the backend's keep-alive idle timeout.
    fn send_to_backend(
        &self,
        index: usize,
        method: &str,
        target: &str,
        body: &[u8],
        read_timeout: Duration,
    ) -> io::Result<(Lease<'_>, u16, http::Headers)> {
        let mut last_error = None;
        for attempt in 0..2 {
            let mut lease = match self.acquire(index, attempt > 0, read_timeout) {
                Ok(lease) => lease,
                Err(e) => {
                    last_error = Some(e);
                    continue;
                }
            };
            // Backend requests always present the router's token (when
            // configured) — the backends share it, whatever the client sent.
            let headers = self.backend_headers();
            let outcome = lease
                .conn()
                .send_request_with_headers(method, target, body, true, &headers)
                .and_then(|()| lease.conn().read_head());
            match outcome {
                Ok((status, headers)) => return Ok((lease, status, headers)),
                Err(e) => last_error = Some(e),
            }
        }
        Err(last_error.expect("two attempts always record an error"))
    }

    /// The backend `key` routes to right now: its healthy owner, or — when
    /// the probes have marked everything on `key`'s path down — the owner
    /// regardless. Health is *advisory*: a backend saturated with pipeline
    /// compute fails 2-second probes while still serving real requests
    /// fine, so refusing to try is strictly worse than one wasted connect.
    fn owner_of(&self, key: &str) -> Option<usize> {
        self.ring
            .route_where(key, |b| self.backends[b].is_healthy())
            .or_else(|| self.ring.route(key))
    }

    /// Routes `key` to its owning backend and sends the request there,
    /// failing over along the ring (marking failed backends down) until a
    /// backend answers or every backend has been tried. Probed-down
    /// backends are tried last rather than skipped — see
    /// [`RouterState::owner_of`] for why health is only advisory.
    fn call_routed(
        &self,
        key: &str,
        method: &str,
        target: &str,
        body: &[u8],
    ) -> Result<(usize, Lease<'_>, u16, http::Headers), HttpFailure> {
        let mut tried = vec![false; self.backends.len()];
        let mut last_failure: Option<(usize, io::Error)> = None;
        loop {
            let preferred = self
                .ring
                .route_where(key, |b| !tried[b] && self.backends[b].is_healthy());
            let Some(index) = preferred.or_else(|| self.ring.route_where(key, |b| !tried[b]))
            else {
                break;
            };
            tried[index] = true;
            match self.send_to_backend(index, method, target, body, BACKEND_READ_TIMEOUT) {
                Ok((lease, status, headers)) => return Ok((index, lease, status, headers)),
                Err(e) => {
                    self.mark_down(index);
                    last_failure = Some((index, e));
                }
            }
        }
        match last_failure {
            Some((index, e)) => Err(HttpFailure::new(
                502,
                format!("backend {}: {e}", self.backends[index].name),
            )),
            None => Err(HttpFailure::new(503, "no healthy backend")),
        }
    }

    /// [`RouterState::call_routed`] plus a fully buffered response.
    fn call_routed_buffered(
        &self,
        key: &str,
        method: &str,
        target: &str,
        body: &[u8],
    ) -> Result<Response, HttpFailure> {
        let (index, mut lease, status, headers) = self.call_routed(key, method, target, body)?;
        match finish_buffered(lease.conn(), status, headers) {
            Ok(response) => {
                lease.release(response.header("connection") != Some("close"));
                Ok(response)
            }
            Err(e) => {
                drop(lease);
                self.mark_down(index);
                Err(HttpFailure::new(
                    502,
                    format!("backend {}: {e}", self.backends[index].name),
                ))
            }
        }
    }

    /// One buffered request to a *specific* backend (no routing, no
    /// failover) — the replication path.
    fn call_backend(
        &self,
        index: usize,
        method: &str,
        target: &str,
        body: &[u8],
        read_timeout: Duration,
    ) -> io::Result<Response> {
        let (mut lease, status, headers) =
            self.send_to_backend(index, method, target, body, read_timeout)?;
        let response = finish_buffered(lease.conn(), status, headers)?;
        lease.release(response.header("connection") != Some("close"));
        Ok(response)
    }

    /// Pulls backend `from`'s library snapshot and merges it into every
    /// other healthy backend. Failures are deliberately ignored: merges are
    /// idempotent and the next approved pipeline run (with a higher
    /// version) retries; a backend that was down meanwhile is re-seeded by
    /// the probe loop's recovery resync.
    fn replicate_library(&self, from: usize) {
        let Ok(snapshot) = self.call_backend(from, "GET", "/library", b"", BACKEND_READ_TIMEOUT)
        else {
            return;
        };
        if snapshot.status != 200 {
            return;
        }
        let Some(version) = snapshot
            .header("x-ec-library-version")
            .and_then(|v| v.parse::<u64>().ok())
        else {
            return;
        };
        // fetch_max gates concurrent replications of the same state: only
        // the caller that advances the high-water mark fans the snapshot
        // out.
        let previous = self.backends[from]
            .synced_version
            .fetch_max(version, Ordering::AcqRel);
        // How many library versions the fleet is behind this source backend:
        // nonzero while a fan-out is in flight, zero at steady state.
        let lag = ec_obs::gauge_with(
            "ec_router_replication_lag",
            "Library versions published by a backend but not yet fanned out to its peers.",
            &[("backend", &self.backends[from].name)],
        );
        lag.set(version.saturating_sub(previous) as i64);
        if previous >= version {
            return;
        }
        // Attempt every peer, even probed-down ones: a saturated backend
        // that fails probes still takes the merge, and a genuinely dead one
        // refuses the connect in bounded time and is re-seeded on recovery.
        for index in 0..self.backends.len() {
            if index == from {
                continue;
            }
            let _ = self.call_backend(
                index,
                "POST",
                "/library",
                &snapshot.body,
                BACKEND_READ_TIMEOUT,
            );
        }
        lag.set(0);
    }
}

// ---------------------------------------------------------------------------
// Health probing.
// ---------------------------------------------------------------------------

/// `GET /healthz` against one backend over a throwaway connection. A `200`
/// means healthy; the response's `X-Ec-Pool-Threads` (when present) reports
/// the backend's worker count, from which the router sizes that backend's
/// connection budget.
fn probe_backend(addr: SocketAddr) -> (bool, Option<usize>) {
    let probe = || -> io::Result<Response> {
        let mut conn = ClientConn::connect(addr, Some(CONNECT_TIMEOUT))?;
        conn.set_read_timeout(Some(PROBE_READ_TIMEOUT))?;
        conn.request("GET", "/healthz", b"", false)
    };
    match probe() {
        Ok(response) => {
            let threads = response
                .header("x-ec-pool-threads")
                .and_then(|v| v.parse::<usize>().ok());
            (response.status == 200, threads)
        }
        Err(_) => (false, None),
    }
}

/// Sweeps every backend each `probe_interval` until the router stops. A
/// backend transitioning down loses its pooled connections; one
/// transitioning *up* is re-seeded with a healthy peer's library before it
/// rejoins the ring, closing the replication gap its downtime opened.
fn probe_loop(state: &Arc<RouterState>) {
    // Consecutive failed probes per backend, for the transition log: reset
    // on success, so a recovery line reports how long the outage looked
    // from here.
    let mut failed_probes = vec![0u64; state.backends.len()];
    while !state.life.stopping() {
        for (index, backend) in state.backends.iter().enumerate() {
            let was_healthy = backend.is_healthy();
            let (now_healthy, threads) = probe_backend(backend.addr);
            if !now_healthy {
                failed_probes[index] += 1;
            }
            if now_healthy != was_healthy {
                log_probe_transition(&backend.name, now_healthy, failed_probes[index]);
            }
            if now_healthy {
                failed_probes[index] = 0;
            }
            if let Some(threads) = threads {
                let budget = (threads + CONN_BUDGET_HEADROOM).clamp(2, MAX_CONN_BUDGET);
                backend.budget.store(budget, Ordering::Relaxed);
            }
            if now_healthy && !was_healthy {
                resync_recovered(state, index);
            }
            // A failed probe only flips the advisory flag — it does NOT
            // drop the pooled connections. A saturated-but-alive backend
            // may flap its probes while serving pooled traffic fine, and
            // killing its hot connections would turn a flap into a real
            // outage; connections to a genuinely dead backend error on
            // their next use and are dropped (and the pool cleared) by the
            // request path's `mark_down`.
            backend.healthy.store(now_healthy, Ordering::Release);
        }
        // Sleep in short slices so a stop request is honored promptly.
        let mut remaining = state.probe_interval;
        while !remaining.is_zero() && !state.life.stopping() {
            let slice = remaining.min(Duration::from_millis(50));
            std::thread::sleep(slice);
            remaining -= slice;
        }
    }
}

/// Logs one health-state transition the probe loop observed — once per
/// flip, to stderr, with a unix timestamp and the consecutive-failure count
/// so an operator can read flap frequency and outage length straight off
/// the log. Also counts the transition in the metrics registry.
fn log_probe_transition(backend: &str, now_healthy: bool, failed_probes: u64) {
    let unix_secs = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    if now_healthy {
        eprintln!(
            "[ec-router] t={unix_secs} backend {backend} down -> up \
             (recovered after {failed_probes} consecutive failed probes)"
        );
    } else {
        eprintln!(
            "[ec-router] t={unix_secs} backend {backend} up -> down \
             (consecutive failed probes: {failed_probes})"
        );
    }
    ec_obs::counter_with(
        "ec_router_probe_transitions_total",
        "Backend health-state transitions observed by the probe loop.",
        &[
            ("backend", backend),
            ("to", if now_healthy { "up" } else { "down" }),
        ],
    )
    .inc();
}

/// Copies a healthy peer's library onto a backend that just came back.
fn resync_recovered(state: &Arc<RouterState>, recovered: usize) {
    let Some(peer) =
        (0..state.backends.len()).find(|&i| i != recovered && state.backends[i].is_healthy())
    else {
        return;
    };
    let Ok(snapshot) = state.call_backend(peer, "GET", "/library", b"", RESYNC_READ_TIMEOUT) else {
        return;
    };
    if snapshot.status == 200 && !snapshot.body.is_empty() {
        let _ = state.call_backend(
            recovered,
            "POST",
            "/library",
            &snapshot.body,
            RESYNC_READ_TIMEOUT,
        );
    }
}

// ---------------------------------------------------------------------------
// Handlers.
// ---------------------------------------------------------------------------

fn handle_healthz(
    state: &RouterState,
    writer: &mut ResponseWriter,
    persistence: Persistence,
) -> HandlerResult {
    let healthy = state.backends.iter().filter(|b| b.is_healthy()).count();
    let mut headers = vec![
        (
            "X-Ec-Requests".to_string(),
            state.life.requests.load(Ordering::Relaxed).to_string(),
        ),
        (
            "X-Ec-Router-Backends".to_string(),
            state.backends.len().to_string(),
        ),
        ("X-Ec-Router-Healthy".to_string(), healthy.to_string()),
    ];
    for (index, backend) in state.backends.iter().enumerate() {
        headers.push((
            format!("X-Ec-Backend-{index}"),
            format!(
                "{} {}",
                backend.name,
                if backend.is_healthy() { "up" } else { "down" }
            ),
        ));
    }
    let (status, body): (u16, &[u8]) = if healthy > 0 {
        (200, b"ok\n")
    } else {
        (503, b"no healthy backends\n")
    };
    http::write_response(writer, status, "text/plain", &headers, persistence, body)
        .map_err(io_failure)
}

/// `GET /library`: forwards to a backend — under steady replication every
/// backend serves the same entries, so any one answers for the fleet.
/// Probed-healthy backends are tried first, but a fleet of probe-flapping
/// (saturated, not dead) backends still answers.
fn handle_library(
    state: &RouterState,
    writer: &mut ResponseWriter,
    persistence: Persistence,
) -> HandlerResult {
    let mut order: Vec<usize> = (0..state.backends.len())
        .filter(|&i| state.backends[i].is_healthy())
        .collect();
    order.extend((0..state.backends.len()).filter(|&i| !state.backends[i].is_healthy()));
    let mut last_failure = None;
    for index in order {
        match state.call_backend(index, "GET", "/library", b"", BACKEND_READ_TIMEOUT) {
            Ok(response) => {
                return http::write_response(
                    writer,
                    response.status,
                    "text/plain",
                    &forwarded_headers(&response.headers),
                    persistence,
                    &response.body,
                )
                .map_err(io_failure);
            }
            Err(e) => {
                state.mark_down(index);
                last_failure = Some(HttpFailure::new(
                    502,
                    format!("backend {}: {e}", state.backends[index].name),
                ));
            }
        }
    }
    Err(last_failure.unwrap_or_else(|| HttpFailure::new(503, "no healthy backend")))
}

/// `POST /library`: merges the posted snapshot into every healthy backend —
/// the external seeding path (the router's own replication uses the same
/// backend endpoint directly).
fn handle_library_replicate(
    state: &RouterState,
    body: &mut BodyReader<'_>,
    writer: &mut ResponseWriter,
    persistence: Persistence,
) -> HandlerResult {
    let snapshot = read_capped_body(body)?;
    let mut reached = 0usize;
    let mut version = 0u64;
    // Like replication, this attempts every backend: health is advisory.
    for index in 0..state.backends.len() {
        if let Ok(response) =
            state.call_backend(index, "POST", "/library", &snapshot, BACKEND_READ_TIMEOUT)
        {
            if response.status == 200 {
                reached += 1;
                if let Some(v) = response
                    .header("x-ec-library-version")
                    .and_then(|v| v.parse::<u64>().ok())
                {
                    version = version.max(v);
                }
            }
        }
    }
    if reached == 0 {
        return Err(HttpFailure::new(503, "no backend accepted the snapshot"));
    }
    http::write_response(
        writer,
        200,
        "text/plain",
        &[("X-Ec-Library-Version".to_string(), version.to_string())],
        persistence,
        format!("replicated to {reached} backends\n").as_bytes(),
    )
    .map_err(io_failure)
}

/// `POST /pipeline`: route the whole request by blocking key, stream the
/// shard's response back, replicate the library if the run learned.
fn handle_pipeline(
    state: &Arc<RouterState>,
    request: &Request,
    body: &mut BodyReader<'_>,
    writer: &mut ResponseWriter,
    persistence: Persistence,
) -> HandlerResult {
    let buffered = read_capped_body(body)?;
    let key = request
        .query_param("shard-key")
        .map(str::to_string)
        .or_else(|| blocking_key(&buffered))
        .unwrap_or_else(|| request.raw_target.clone());
    let (index, lease, status, headers) =
        state.call_routed(&key, "POST", &request.raw_target, &buffered)?;
    let approved: usize = headers
        .iter()
        .find(|(k, _)| k == "x-ec-groups-approved")
        .and_then(|(_, v)| v.parse().ok())
        .unwrap_or(0);
    relay_response(
        state,
        lease,
        status,
        headers,
        writer,
        persistence,
        |state| {
            if status == 200 && approved > 0 {
                // Replicate *before* the client sees its response complete, so
                // "pipeline returned, now apply anywhere" reads its own writes.
                state.replicate_library(index);
            }
        },
    )
}

/// `POST /apply`: shard by column, fan out, zip-merge.
fn handle_apply(
    state: &Arc<RouterState>,
    request: &Request,
    body: &mut BodyReader<'_>,
    writer: &mut ResponseWriter,
    persistence: Persistence,
) -> HandlerResult {
    let buffered = read_capped_body(body)?;
    let bad_body =
        |e: ec_data::DatasetIoError| HttpFailure::new(400, format!("bad flat CSV body: {e}"));
    let mut stream = FlatCsvReader::new(&buffered[..]).map_err(bad_body)?;
    let columns = stream.columns().to_vec();
    if columns.is_empty() {
        // No attribute columns to shard: route whole, as /pipeline does.
        let (_, lease, status, headers) =
            state.call_routed(&request.raw_target, "POST", &request.raw_target, &buffered)?;
        return relay_response(state, lease, status, headers, writer, persistence, |_| {});
    }

    // Group the columns by owning backend, preserving column order inside a
    // group; `owners[c]` remembers `(group, position in group)` for the
    // merge.
    let mut groups: Vec<(usize, Vec<usize>)> = Vec::new();
    let mut owners: Vec<(usize, usize)> = Vec::with_capacity(columns.len());
    for (column_index, column) in columns.iter().enumerate() {
        let backend = state
            .owner_of(column)
            .ok_or_else(|| HttpFailure::new(503, "no healthy backend"))?;
        let group = match groups.iter().position(|(b, _)| *b == backend) {
            Some(group) => group,
            None => {
                groups.push((backend, Vec::new()));
                groups.len() - 1
            }
        };
        owners.push((group, groups[group].1.len()));
        groups[group].1.push(column_index);
    }

    // Materialize the records once; each group's sub-request carries only
    // its own columns (plus `source`).
    let mut sources: Vec<usize> = Vec::new();
    let mut rows: Vec<Vec<String>> = Vec::new();
    while let Some(record) = stream.next_record() {
        let record = record.map_err(bad_body)?;
        sources.push(record.source);
        rows.push(record.fields);
    }
    let group_bodies: Vec<Vec<u8>> = groups
        .iter()
        .map(|(_, group_columns)| {
            let mut out = Vec::new();
            let mut csv = CsvWriter::new(&mut out);
            let header = std::iter::once("source".to_string())
                .chain(group_columns.iter().map(|&c| columns[c].clone()));
            csv.write_record(header).expect("Vec write cannot fail");
            for (source, fields) in sources.iter().zip(&rows) {
                let row = std::iter::once(source.to_string()).chain(
                    group_columns
                        .iter()
                        .map(|&c| fields.get(c).cloned().unwrap_or_default()),
                );
                csv.write_record(row).expect("Vec write cannot fail");
            }
            csv.flush().expect("Vec write cannot fail");
            out
        })
        .collect();

    // Fan the sub-requests out on scoped threads (I/O waits, not CPU work —
    // see the module docs for why the shared pool is wrong here). Failover
    // inside `call_routed_buffered` keys on the group's first column, so a
    // re-route lands where that column would next live on the ring.
    let shard_responses: Vec<Result<Response, HttpFailure>> = std::thread::scope(|scope| {
        let handles: Vec<_> = groups
            .iter()
            .zip(&group_bodies)
            .map(|((_, group_columns), group_body)| {
                let key = columns[group_columns[0]].as_str();
                let state = &**state;
                scope.spawn(move || state.call_routed_buffered(key, "POST", "/apply", group_body))
            })
            .collect();
        handles
            .into_iter()
            .map(|handle| {
                handle
                    .join()
                    .unwrap_or_else(|_| Err(HttpFailure::new(500, "apply fan-out panicked")))
            })
            .collect()
    });

    // Parse every shard's CSV back and cross-check the shape.
    let mut shards: Vec<(Vec<Vec<String>>, Response)> = Vec::with_capacity(shard_responses.len());
    for ((backend, _), outcome) in groups.iter().zip(shard_responses) {
        let response = outcome?;
        if response.status != 200 {
            return Err(HttpFailure::new(
                response.status,
                format!(
                    "backend {}: {}",
                    state.backends[*backend].name,
                    String::from_utf8_lossy(&response.body).trim()
                ),
            ));
        }
        let mut shard_rows: Vec<Vec<String>> = Vec::with_capacity(sources.len());
        let mut shard_stream = FlatCsvReader::new(&response.body[..])
            .map_err(|e| HttpFailure::new(502, format!("unparsable shard response: {e}")))?;
        while let Some(record) = shard_stream.next_record() {
            let record = record
                .map_err(|e| HttpFailure::new(502, format!("unparsable shard response: {e}")))?;
            shard_rows.push(record.fields);
        }
        if shard_rows.len() != sources.len() {
            return Err(HttpFailure::new(
                502,
                format!(
                    "shard responses disagree: expected {} records, backend {} returned {}",
                    sources.len(),
                    state.backends[*backend].name,
                    shard_rows.len()
                ),
            ));
        }
        shards.push((shard_rows, response));
    }

    // Zip-merge: record order is the request's, column order the header's —
    // both identical to what a single node writes.
    let trailer_sum = |name: &str| -> u64 {
        let name = name.to_ascii_lowercase();
        shards
            .iter()
            .filter_map(|(_, r)| r.trailer(&name))
            .filter_map(|v| v.parse::<u64>().ok())
            .sum()
    };
    let version = shards
        .iter()
        .filter_map(|(_, r)| r.header("x-ec-library-version"))
        .filter_map(|v| v.parse::<u64>().ok())
        .max()
        .unwrap_or(0);
    crate::write_apply_head(writer, persistence, version).map_err(io_failure)?;
    let mut body_writer = ChunkedWriter::new(writer);
    {
        let mut out = BufWriter::with_capacity(8 * 1024, &mut body_writer);
        let mut csv = CsvWriter::new(&mut out);
        let header = std::iter::once("source").chain(columns.iter().map(String::as_str));
        csv.write_record(header).map_err(io_failure)?;
        for (row_index, source) in sources.iter().enumerate() {
            let fields = owners.iter().map(|&(group, position)| {
                shards[group].0[row_index]
                    .get(position)
                    .map(String::as_str)
                    .unwrap_or("")
            });
            let row = std::iter::once(source.to_string()).chain(fields.map(str::to_string));
            csv.write_record(row).map_err(io_failure)?;
        }
        csv.flush().map_err(io_failure)?;
        out.flush().map_err(io_failure)?;
    }
    // Every shard sees every record; the cell and fast-path counts cover
    // disjoint column sets, so their sums equal a single node's counters.
    let totals = crate::APPLY_TRAILERS.map(|name| match name {
        "X-Ec-Records" => sources.len() as u64,
        name => trailer_sum(name),
    });
    body_writer
        .finish(&crate::apply_trailers(totals))
        .map_err(io_failure)?;
    Ok(())
}

// ---------------------------------------------------------------------------
// Relay helpers.
// ---------------------------------------------------------------------------

/// Buffers a request body up to [`ROUTE_BODY_CAP`].
fn read_capped_body(body: &mut BodyReader<'_>) -> Result<Vec<u8>, HttpFailure> {
    if body.remaining() > ROUTE_BODY_CAP {
        return Err(HttpFailure::new(
            413,
            format!("request body exceeds the router's {ROUTE_BODY_CAP}-byte cap"),
        ));
    }
    let mut buffered = Vec::with_capacity(body.remaining() as usize);
    body.read_to_end(&mut buffered)
        .map_err(|e| HttpFailure::new(400, format!("unreadable request body: {e}")))?;
    Ok(buffered)
}

/// The `/pipeline` blocking key of a buffered flat-CSV body: the normalized
/// first record. Requests whose records share a blocking key route to the
/// same backend, keeping a tenant's (or entity family's) pipeline runs — and
/// therefore their learned programs — warm on one shard.
fn blocking_key(body: &[u8]) -> Option<String> {
    let mut stream = FlatCsvReader::new(body).ok()?;
    let record = stream.next_record()?.ok()?;
    let key = ec_resolution::normalize(&record.fields.join(" "));
    (!key.is_empty()).then_some(key)
}

/// Response headers safe to forward through the router: everything except
/// hop-by-hop framing (`Connection`, `Transfer-Encoding`, `Content-Length`,
/// `Trailer`) and `Content-Type`, which the forwarding write re-emits.
fn forwarded_headers(headers: &[(String, String)]) -> Vec<(String, String)> {
    headers
        .iter()
        .filter(|(name, _)| {
            !matches!(
                name.as_str(),
                "connection" | "transfer-encoding" | "content-length" | "content-type" | "trailer"
            )
        })
        .cloned()
        .collect()
}

/// Reads the rest of a response whose head `send_to_backend` already parsed.
fn finish_buffered(
    conn: &mut ClientConn,
    status: u16,
    headers: Vec<(String, String)>,
) -> io::Result<Response> {
    let (body, trailers) = http::read_response_body(conn.reader(), &headers)?;
    Ok(Response {
        status,
        headers,
        body,
        trailers,
    })
}

/// Relays one backend response (already past its head) to the client,
/// streaming chunked bodies chunk-by-chunk. `before_finish` runs after the
/// backend's stream is fully consumed but *before* the terminal chunk goes
/// to the client — the replication hook. The lease is released as soon as
/// the backend's stream is drained — notably *before* `before_finish`, so a
/// replication hook acquiring other backends' leases never holds this one
/// (no hold-and-wait across backends, hence no lease deadlock).
#[allow(clippy::too_many_arguments)]
fn relay_response(
    state: &RouterState,
    mut lease: Lease<'_>,
    status: u16,
    headers: Vec<(String, String)>,
    writer: &mut ResponseWriter,
    persistence: Persistence,
    before_finish: impl FnOnce(&RouterState),
) -> HandlerResult {
    let content_type = headers
        .iter()
        .find(|(k, _)| k == "content-type")
        .map(|(_, v)| v.clone())
        .unwrap_or_else(|| "text/plain".to_string());
    let backend_keep_alive = headers
        .iter()
        .find(|(k, _)| k == "connection")
        .map(|(_, v)| !v.eq_ignore_ascii_case("close"))
        .unwrap_or(true);
    let forwarded = forwarded_headers(&headers);
    if http::is_chunked(&headers) {
        let trailer_names: Vec<String> = headers
            .iter()
            .find(|(k, _)| k == "trailer")
            .map(|(_, v)| v.split(',').map(|t| t.trim().to_string()).collect())
            .unwrap_or_default();
        let trailer_refs: Vec<&str> = trailer_names.iter().map(String::as_str).collect();
        http::write_chunked_head(
            writer,
            status,
            &content_type,
            &forwarded,
            persistence,
            &trailer_refs,
        )
        .map_err(io_failure)?;
        let mut body_writer = ChunkedWriter::new(writer);
        let (trailers, drained) = {
            let mut chunks = http::ChunkedReader::new(lease.conn().reader());
            {
                let mut out = BufWriter::with_capacity(8 * 1024, &mut body_writer);
                io::copy(&mut chunks, &mut out).map_err(io_failure)?;
                out.flush().map_err(io_failure)?;
            }
            (chunks.trailers().to_vec(), chunks.is_done())
        };
        lease.release(backend_keep_alive && drained);
        before_finish(state);
        body_writer.finish(&trailers).map_err(io_failure)?;
    } else {
        let body = http::read_response_body(lease.conn().reader(), &headers)
            .map_err(io_failure)?
            .0;
        lease.release(backend_keep_alive);
        before_finish(state);
        http::write_response(
            writer,
            status,
            &content_type,
            &forwarded,
            persistence,
            &body,
        )
        .map_err(io_failure)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ServeConfig, Server};

    #[test]
    fn a_poisoned_backend_pool_still_routes() {
        let server = Server::bind(ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            ..ServeConfig::default()
        })
        .unwrap();
        let backend = server.handle();
        let backend_join = std::thread::spawn(move || server.run().unwrap());
        let router = Router::bind(RouterConfig::new(
            "127.0.0.1:0",
            vec![backend.addr().to_string()],
        ))
        .unwrap();
        let handle = router.handle();
        let join = std::thread::spawn(move || router.run().unwrap());

        let body = b"source,Name\n0,Mary Lee\n";
        let before = http::request(handle.addr(), "POST", "/apply", body).unwrap();
        assert_eq!(before.status, 200);
        // A request that panics holding the pool lock poisons it.
        let state = Arc::clone(&handle.state);
        let poisoned = std::thread::spawn(move || {
            let _pool = state.backends[0].pool.lock().unwrap();
            panic!("a request fails while holding the backend pool");
        })
        .join();
        assert!(poisoned.is_err() && handle.state.backends[0].pool.is_poisoned());
        let after = http::request(handle.addr(), "POST", "/apply", body).unwrap();
        assert_eq!(after.status, 200);
        assert_eq!(after.body, before.body);

        handle.stop();
        backend.stop();
        join.join().unwrap();
        backend_join.join().unwrap();
    }
}
