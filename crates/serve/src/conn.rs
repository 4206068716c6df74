//! The accept loop and per-connection request loop, shared by the
//! single-node [`Server`](crate::Server) and the [`Router`](crate::Router).
//!
//! Both services speak the same HTTP/1.1 subset with the same keep-alive,
//! drain and timeout rules; they differ only in *what* a request does
//! ([`Service::dispatch`]) and *where* a connection job runs
//! ([`Service::execute`]): the server handles connections as detached jobs
//! on the CPU-sized shared worker pool (handlers *are* the CPU work), while
//! the router — whose handlers mostly block on backend sockets — spawns a
//! plain thread per connection so relay I/O can never starve the pool the
//! backends compute on.
//!
//! The loop also enforces the connection cap: when a service reports a
//! [`Service::max_connections`] bound and that many connection jobs are
//! already active, new connections are rejected inline on the accept thread
//! with `503` + `Retry-After` — bounded, observable backpressure instead of
//! an unbounded queue of parked jobs.

use crate::http::{self, Persistence, Request};
use std::io::{self, BufReader, BufWriter, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How long a connection may sit idle mid-request before the handler gives
/// up on it.
pub(crate) const READ_TIMEOUT: Duration = Duration::from_secs(30);

/// How long a connection may sit idle between requests (and how long a new
/// connection gets to produce its first byte) before it is closed. Idle
/// waiting happens on a parked watcher thread, not on a worker — see
/// [`KEEPALIVE_GRACE`].
pub(crate) const HEAD_READ_TIMEOUT: Duration = Duration::from_secs(5);

/// How long a connection job waits *on its worker* for the next request
/// before parking the connection and releasing the worker. A client driving
/// the connection in a tight loop answers well within this grace, so hot
/// connections never pay the park/resume round-trip; a connection that has
/// gone quiet stops pinning a worker after one grace period. Without this
/// cutoff, a handful of idle keep-alive connections monopolize the
/// CPU-sized pool for up to [`HEAD_READ_TIMEOUT`] each — on small machines
/// that starves every other connection (and the health probes watching the
/// process).
pub(crate) const KEEPALIVE_GRACE: Duration = Duration::from_millis(1);

/// How many requests one connection may serve per executor turn before its
/// job re-queues itself. A connection hot enough to always have the next
/// request waiting would otherwise never leave its serve loop — on a small
/// worker pool that starves every other connection (most damagingly the
/// health probes, whose timeout then reads as a dead backend). Bounding the
/// turn keeps the amortized re-queue cost negligible while capping how long
/// any connection can monopolize a worker.
const MAX_REQUESTS_PER_TURN: usize = 8;

/// Cap on how many unread request-body bytes are drained before closing.
/// Draining avoids a TCP RST racing the response out of the client's
/// receive buffer when a handler rejects a request without reading its
/// body; the cap bounds the work a garbage request can cause.
pub(crate) const DRAIN_CAP: u64 = 64 * 1024 * 1024;

/// The `Retry-After` seconds advertised on connection-cap rejections.
const RETRY_AFTER_SECS: u32 = 1;

/// How long the accept thread spends draining a rejected connection's
/// request after answering it (see [`reject_over_capacity`]).
const REJECT_DRAIN: Duration = Duration::from_millis(5);

/// A handler failure that still has a clean HTTP answer.
pub(crate) struct HttpFailure {
    pub(crate) status: u16,
    pub(crate) message: String,
}

impl HttpFailure {
    pub(crate) fn new(status: u16, message: impl Into<String>) -> Self {
        HttpFailure {
            status,
            message: message.into(),
        }
    }
}

pub(crate) type HandlerResult = Result<(), HttpFailure>;

/// The streamed request body handed to [`Service::dispatch`].
pub(crate) type BodyReader<'a> = http::LimitedReader<&'a mut BufReader<TcpStream>>;

/// Stop/statistics state every service embeds; the connection loop reads the
/// stop flag and counts requests and active connections through it.
pub(crate) struct Lifecycle {
    pub(crate) addr: SocketAddr,
    pub(crate) stop: AtomicBool,
    pub(crate) requests: AtomicUsize,
    pub(crate) active_connections: AtomicUsize,
}

impl Lifecycle {
    pub(crate) fn new(addr: SocketAddr) -> Self {
        Lifecycle {
            addr,
            stop: AtomicBool::new(false),
            requests: AtomicUsize::new(0),
            active_connections: AtomicUsize::new(0),
        }
    }

    /// Requests a graceful stop and wakes the accept loop with a throwaway
    /// connection.
    pub(crate) fn request_stop(&self) {
        self.stop.store(true, Ordering::Release);
        let _ = TcpStream::connect(self.addr);
    }

    pub(crate) fn stopping(&self) -> bool {
        self.stop.load(Ordering::Acquire)
    }
}

/// What a concrete service plugs into the shared connection loop.
pub(crate) trait Service: Send + Sync + Sized + 'static {
    /// The embedded stop/statistics state.
    fn lifecycle(&self) -> &Lifecycle;

    /// The `service` label this service's requests carry in the metrics
    /// registry (`"serve"`, `"router"`, …).
    fn metrics_service() -> &'static str;

    /// Maximum concurrent connection jobs (0 = unbounded). Connections over
    /// the cap are rejected with `503` before a job is spawned.
    fn max_connections(&self) -> usize {
        0
    }

    /// Runs one connection's job on the service's executor (pool job,
    /// dedicated thread, …). The job owns its `ConnectionGuard`, so the
    /// active count drops even if the job panics and its runner unwinds.
    fn execute(&self, job: Box<dyn FnOnce() + Send + 'static>);

    /// Handles one parsed request. `body` streams the declared request body
    /// off the socket; unread bytes are drained by the loop afterwards.
    fn dispatch(
        this: &Arc<Self>,
        request: &Request,
        has_body: bool,
        persistence: Persistence,
        body: &mut BodyReader<'_>,
        writer: &mut BufWriter<TcpStream>,
    ) -> HandlerResult;
}

/// Decrements the active-connection count when a connection job ends,
/// however it ends.
struct ConnectionGuard<S: Service>(Arc<S>);

impl<S: Service> Drop for ConnectionGuard<S> {
    fn drop(&mut self) {
        self.0
            .lifecycle()
            .active_connections
            .fetch_sub(1, Ordering::Relaxed);
    }
}

/// Parks an idle connection on a watcher thread that blocks in a 1-byte
/// `MSG_PEEK` — detection is kernel-immediate and costs no worker. When the
/// next request head starts arriving, the connection re-enters the
/// executor as a fresh job; EOF, a socket error, the idle allowance
/// ([`HEAD_READ_TIMEOUT`]) expiring, or a shutdown in the meantime closes
/// it. A blocked thread per idle connection is the honest std-only stand-in
/// for readiness polling: its stack is lazily committed, and the
/// alternative — idling on a pool worker — is what starves small pools.
///
/// The watcher owns the connection's [`ConnectionGuard`], so however the
/// park ends the active-connection count stays balanced (and a parked
/// connection still counts against [`Service::max_connections`], exactly as
/// it did when idle waiting happened on-worker).
fn park_connection<S: Service>(service: &Arc<S>, stream: TcpStream, guard: ConnectionGuard<S>) {
    let svc = Arc::clone(service);
    if stream.set_read_timeout(Some(HEAD_READ_TIMEOUT)).is_err() {
        return drop(guard);
    }
    let spawned = std::thread::Builder::new()
        .name("ec-conn-idle".to_string())
        .spawn(move || {
            let mut probe = [0u8; 1];
            match stream.peek(&mut probe) {
                Ok(1..) if !svc.lifecycle().stopping() => spawn_connection(&svc, stream, guard),
                // EOF, timeout, error or shutdown: close by dropping.
                _ => drop(guard),
            }
        });
    // Out of threads: drop the closure, closing the connection and its guard.
    drop(spawned);
}

/// Accepts connections until the lifecycle's stop flag is raised, spawning
/// one job per connection through [`Service::execute`] and rejecting over
/// the [`Service::max_connections`] cap inline.
pub(crate) fn run_accept_loop<S: Service>(
    listener: TcpListener,
    service: Arc<S>,
) -> io::Result<()> {
    for conn in listener.incoming() {
        if service.lifecycle().stopping() {
            break;
        }
        let stream = match conn {
            Ok(stream) => stream,
            Err(_) => continue,
        };
        let cap = service.max_connections();
        if cap > 0
            && service
                .lifecycle()
                .active_connections
                .load(Ordering::Relaxed)
                >= cap
        {
            reject_over_capacity(stream, cap);
            continue;
        }
        service
            .lifecycle()
            .active_connections
            .fetch_add(1, Ordering::Relaxed);
        let guard = ConnectionGuard(Arc::clone(&service));
        spawn_connection(&service, stream, guard);
    }
    Ok(())
}

/// Runs one connection as a job on the service's executor. When the
/// connection goes idle between requests it is parked instead of pinning
/// its worker (the watcher re-enters here once the next request head starts
/// arriving); when it is still hot after a full turn it re-queues behind
/// whatever else is waiting for a worker. The guard rides along through
/// every park/yield cycle.
fn spawn_connection<S: Service>(service: &Arc<S>, stream: TcpStream, guard: ConnectionGuard<S>) {
    let svc = Arc::clone(service);
    service.execute(Box::new(move || match handle_connection(stream, &svc) {
        Turn::Close => drop(guard),
        Turn::Idle(idle) => park_connection(&svc, idle, guard),
        Turn::Yield(hot) => spawn_connection(&svc, hot, guard),
    }));
}

/// Answers `503` + `Retry-After` on the accept thread. The write is bounded
/// by a short timeout so a slow client cannot stall accepting; the body is
/// one small flat write that fits any socket send buffer.
///
/// Closing a socket whose request is still unread makes the close a reset,
/// which can discard the 503 from the client's receive buffer before the
/// client reads it. So the write half is shut down first (the response ends
/// with a FIN), and whatever the client has sent is drained until it hangs
/// up — it does once it has read the response — or [`REJECT_DRAIN`] passes.
fn reject_over_capacity(stream: TcpStream, cap: usize) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_write_timeout(Some(Duration::from_millis(500)));
    let mut writer = BufWriter::new(&stream);
    let written = http::write_response(
        &mut writer,
        503,
        "text/plain",
        &[("Retry-After".to_string(), RETRY_AFTER_SECS.to_string())],
        Persistence::Close,
        format!("server busy: {cap} connections already active\n").as_bytes(),
    )
    .and_then(|()| writer.flush());
    drop(writer);
    if written.is_err() || stream.shutdown(Shutdown::Write).is_err() {
        return;
    }
    let deadline = Instant::now() + REJECT_DRAIN;
    let mut sink = [0u8; 4096];
    loop {
        let left = deadline.saturating_duration_since(Instant::now());
        if left.is_zero() || stream.set_read_timeout(Some(left)).is_err() {
            return;
        }
        match (&stream).read(&mut sink) {
            Ok(1..) => {}
            // Hangup, timeout or error: nothing more worth waiting for.
            _ => return,
        }
    }
}

/// How one connection's executor turn ended.
enum Turn {
    /// Closed, errored, or told to close — the connection is finished.
    Close,
    /// Went quiet between requests: park the stream on a watcher.
    Idle(TcpStream),
    /// Still has requests arriving after a full turn: re-queue it so other
    /// connections (and the health probes) get a worker.
    Yield(TcpStream),
}

/// Serves requests off one connection until it closes, errors, goes idle —
/// in which case the still-good stream is handed back for off-worker
/// parking — or exhausts its turn and yields.
fn handle_connection<S: Service>(stream: TcpStream, service: &Arc<S>) -> Turn {
    let _ = stream.set_nodelay(true);
    let Ok(write_half) = stream.try_clone() else {
        return Turn::Close;
    };
    let mut reader = BufReader::new(stream);
    let mut writer = BufWriter::with_capacity(8 * 1024, write_half);
    let mut served = 0usize;
    // One iteration per request: the connection is reused for the next
    // request whenever the client asked to keep it alive and this request
    // ended cleanly (responses are always self-delimiting, so nothing else
    // gates reuse). Errors close the connection — the simple, safe answer.
    loop {
        // Wait only [`KEEPALIVE_GRACE`] on-worker for the next head to start
        // arriving; an idle connection parks instead. The peek keeps the
        // stream intact — parking with partially read head bytes would lose
        // them — and once a head HAS started, [`HEAD_READ_TIMEOUT`] bounds
        // how long its delivery may hold the worker. (A non-empty buffer
        // means a pipelined request is already in hand: serve it — parking
        // or yielding would drop the buffered bytes.)
        if reader.buffer().is_empty() {
            let _ = reader.get_ref().set_read_timeout(Some(KEEPALIVE_GRACE));
            match reader.get_ref().peek(&mut [0u8; 1]) {
                // Clean hangup between requests.
                Ok(0) => return Turn::Close,
                Ok(_) if served >= MAX_REQUESTS_PER_TURN => {
                    return Turn::Yield(reader.into_inner());
                }
                Ok(_) => {}
                Err(e)
                    if e.kind() == io::ErrorKind::WouldBlock
                        || e.kind() == io::ErrorKind::TimedOut =>
                {
                    // Idle: the buffer is empty, so the raw stream carries
                    // the whole connection state.
                    return Turn::Idle(reader.into_inner());
                }
                Err(_) => return Turn::Close,
            }
        }
        let _ = reader.get_ref().set_read_timeout(Some(HEAD_READ_TIMEOUT));
        let request = match http::read_request(&mut reader) {
            Ok(Some(request)) => request,
            // Clean hangup between requests.
            Ok(None) => return Turn::Close,
            Err(e) => {
                // A kept-alive connection hanging up mid-wait is a normal
                // end, not a protocol error worth answering.
                if e.kind() != io::ErrorKind::WouldBlock && e.kind() != io::ErrorKind::TimedOut {
                    let _ = http::write_response(
                        &mut writer,
                        400,
                        "text/plain",
                        &[],
                        Persistence::Close,
                        format!("bad request: {e}\n").as_bytes(),
                    )
                    .and_then(|()| writer.flush());
                }
                return Turn::Close;
            }
        };
        let _ = reader.get_ref().set_read_timeout(Some(READ_TIMEOUT));
        service.lifecycle().requests.fetch_add(1, Ordering::Relaxed);
        served += 1;
        let declared_length = match request.content_length() {
            Ok(length) => length,
            Err(e) => {
                let _ = http::write_response(
                    &mut writer,
                    400,
                    "text/plain",
                    &[],
                    Persistence::Close,
                    format!("{e}\n").as_bytes(),
                )
                .and_then(|()| writer.flush());
                return Turn::Close;
            }
        };
        // Decide the advertised persistence *before* any handler writes a
        // response head: a body too big to drain (should the handler leave
        // it unread) forfeits reuse, and advertising keep-alive only to hang
        // up afterwards would leave an honoring client talking to a closed
        // socket.
        let persistence = if request.keep_alive() && declared_length.unwrap_or(0) <= DRAIN_CAP {
            Persistence::KeepAlive
        } else {
            Persistence::Close
        };
        let mut body = http::LimitedReader::new(&mut reader, declared_length.unwrap_or(0));
        let dispatched = Instant::now();
        let outcome = S::dispatch(
            service,
            &request,
            declared_length.is_some(),
            persistence,
            &mut body,
            &mut writer,
        );
        record_request(
            S::metrics_service(),
            &request.path,
            match &outcome {
                Ok(()) => 200,
                Err(failure) => failure.status,
            },
            dispatched.elapsed(),
        );
        // The handler left its response's last bytes in `writer`; sending
        // them only now means any request the client sends next sees this
        // one counted.
        let flushed = writer.flush().is_ok();
        // Drain whatever of the declared body the handler never read:
        // closing with unread bytes in the receive queue makes the kernel
        // send RST, which can flush the response right out of the peer's
        // buffer — and a kept-alive connection needs the stream positioned
        // at the next request head anyway. The cap bounds the work a garbage
        // request can cause; an undrainable body forfeits reuse.
        let leftover = body.remaining();
        let mut reusable = leftover <= DRAIN_CAP;
        if leftover > 0 {
            let drain = leftover.min(DRAIN_CAP);
            match std::io::copy(
                &mut Read::by_ref(&mut body).take(drain),
                &mut std::io::sink(),
            ) {
                Ok(n) if n == drain => {}
                _ => reusable = false,
            }
        }
        if let Err(failure) = outcome {
            // Best effort: if the response head already went out this writes
            // into the body and the client sees a truncated chunked stream,
            // which is the correct failure signal mid-stream.
            let _ = http::write_response(
                &mut writer,
                failure.status,
                "text/plain",
                &[],
                Persistence::Close,
                format!("{}\n", failure.message).as_bytes(),
            )
            .and_then(|()| writer.flush());
            return Turn::Close;
        }
        if !flushed
            || persistence == Persistence::Close
            || !reusable
            || service.lifecycle().stopping()
        {
            return Turn::Close;
        }
    }
}

/// Folds one finished request into the process-wide metrics registry:
/// per-endpoint request count and handler latency, plus a status-class
/// count. The status is the *handler outcome* — a handler that writes its
/// own non-200 head and returns `Ok` (the router's degraded `/healthz`)
/// counts as `2xx` here; failures carry their real status. Unroutable paths
/// (404/405) collapse into one `other` series so a scanner cannot mint
/// unbounded label values.
fn record_request(service: &'static str, path: &str, status: u16, elapsed: Duration) {
    let endpoint = if status == 404 || status == 405 {
        "other"
    } else {
        path
    };
    ec_obs::counter_with(
        "ec_http_requests_total",
        "Requests handled, by service and endpoint.",
        &[("endpoint", endpoint), ("service", service)],
    )
    .inc();
    let class = match status / 100 {
        2 => "2xx",
        3 => "3xx",
        4 => "4xx",
        _ => "5xx",
    };
    ec_obs::counter_with(
        "ec_http_responses_total",
        "Handler outcomes by status class.",
        &[("class", class), ("service", service)],
    )
    .inc();
    ec_obs::histogram_with(
        "ec_http_request_seconds",
        "Wall time from parsed request head to handler completion.",
        ec_obs::Unit::Seconds,
        ec_obs::LATENCY_BUCKETS_US,
        &[("endpoint", endpoint), ("service", service)],
    )
    .observe_duration(elapsed);
}
