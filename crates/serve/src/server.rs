//! The daemon: a bounded thread-pool HTTP server over
//! [`std::net::TcpListener`], the route table, and graceful shutdown.
//!
//! Shape: the accept loop (caller's thread) pushes accepted connections
//! onto a bounded queue; `workers` threads pop connections and speak
//! keep-alive HTTP over them, with per-socket read/write timeouts. When
//! the queue is full the accept loop answers `503 busy` inline and closes
//! — the pool is bounded in both threads and memory. Shutdown (via
//! [`ShutdownHandle::shutdown`], `SIGTERM` or `SIGINT` after
//! [`install_signal_handlers`]) stops accepting, drains queued and
//! in-flight connections up to [`ServerConfig::drain_timeout`], warns
//! (`serve.forced_abort`) if it has to abandon stragglers, and releases
//! the daemon's `serve` claim on the store either way.
//!
//! From [`Server::bind`] until the server is dropped (or [`Server::run`]
//! returns), the daemon holds a heartbeated `serve` lockfile claim in the
//! store's lock directory so two daemons cannot own one directory.

use std::collections::VecDeque;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use serde::Value;

use crate::error::ApiError;
use crate::http::{Conn, Limits, ParseError, Request, Response};
use crate::service::SweepService;

/// How the daemon listens, pools and limits. `Default` is the
/// documented production shape; tests shrink the timeouts.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address, e.g. `127.0.0.1:7421` (`:0` picks a free port).
    pub addr: String,
    /// Worker threads handling connections.
    pub workers: usize,
    /// Accepted connections allowed to wait for a worker before new
    /// arrivals are answered `503 busy`.
    pub backlog: usize,
    /// Per-request parsing limits and socket timeouts.
    pub limits: Limits,
    /// How long shutdown waits for queued + in-flight work to finish
    /// before abandoning it with a warning.
    pub drain_timeout: Duration,
    /// Keep-alive requests served per connection before it is closed.
    pub max_requests_per_conn: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:7421".to_string(),
            workers: 4,
            backlog: 64,
            limits: Limits::default(),
            drain_timeout: Duration::from_secs(15),
            max_requests_per_conn: 256,
        }
    }
}

/// What a server run did, returned by [`Server::run`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServeSummary {
    /// Connections accepted.
    pub connections: u64,
    /// Requests served (responses written, error responses included).
    pub requests: u64,
    /// Connections refused with `503 busy` because the queue was full.
    pub rejected: u64,
    /// Whether shutdown abandoned in-flight work at the drain deadline.
    pub forced_abort: bool,
}

/// Requests a running server stop accepting and drain. Cheap to clone;
/// safe to trigger from any thread.
#[derive(Debug, Clone)]
pub struct ShutdownHandle {
    stop: Arc<AtomicBool>,
}

impl ShutdownHandle {
    /// Asks the server to shut down (idempotent).
    pub fn shutdown(&self) {
        self.stop.store(true, Ordering::SeqCst);
    }

    /// Whether shutdown has been requested (by this handle or a signal).
    #[must_use]
    pub fn is_shutdown(&self) -> bool {
        self.stop.load(Ordering::SeqCst) || signal_shutdown_requested()
    }
}

/// Set by the process signal handler; checked alongside each server's own
/// stop flag so one `SIGTERM` stops every server in the process.
static SIGNAL_SHUTDOWN: AtomicBool = AtomicBool::new(false);

/// Whether a shutdown signal (`SIGTERM`/`SIGINT`) has been delivered.
#[must_use]
pub fn signal_shutdown_requested() -> bool {
    SIGNAL_SHUTDOWN.load(Ordering::SeqCst)
}

/// Installs `SIGTERM` and `SIGINT` handlers that request graceful
/// shutdown (visible via [`signal_shutdown_requested`], observed by every
/// running [`Server`]). Uses `signal(2)` from the C runtime std already
/// links; the handler only stores to an atomic, which is async-signal-safe.
#[cfg(unix)]
pub fn install_signal_handlers() {
    extern "C" fn on_shutdown_signal(_signum: i32) {
        SIGNAL_SHUTDOWN.store(true, Ordering::SeqCst);
    }
    extern "C" {
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    }
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    // SAFETY: registering an async-signal-safe handler (a single atomic
    // store) for signals whose default action would kill us anyway.
    unsafe {
        signal(SIGTERM, on_shutdown_signal);
        signal(SIGINT, on_shutdown_signal);
    }
}

/// State shared between the accept loop and the worker threads.
struct Shared {
    service: Arc<SweepService>,
    queue: Mutex<VecDeque<TcpStream>>,
    ready: Condvar,
    stop: Arc<AtomicBool>,
    active: AtomicUsize,
    requests: AtomicU64,
    limits: Limits,
    max_requests_per_conn: usize,
}

impl Shared {
    fn stopping(&self) -> bool {
        self.stop.load(Ordering::SeqCst) || signal_shutdown_requested()
    }
}

/// A bound, not-yet-running server. It already owns its store: the
/// `serve` claim is taken by [`Server::bind`] and released when the server
/// is dropped or [`Server::run`] returns.
#[derive(Debug)]
pub struct Server {
    listener: TcpListener,
    service: Arc<SweepService>,
    config: ServerConfig,
    stop: Arc<AtomicBool>,
    /// Declared before `_claim` so the beat stops before the claim releases.
    _heartbeat: dsmt_store::Heartbeat,
    _claim: dsmt_store::LockFile,
}

impl Server {
    /// Claims the service's store for this daemon, then binds the listener
    /// (non-blocking, so the accept loop can observe shutdown) without
    /// starting to serve.
    ///
    /// # Errors
    ///
    /// Failure to acquire the store's `serve` claim (another daemon owns
    /// the directory), and any bind failure (address in use, permission).
    pub fn bind(config: ServerConfig, service: SweepService) -> std::io::Result<Self> {
        let locks_dir = service.store_dir().join("locks");
        let Some(claim) = dsmt_store::LockFile::acquire(&locks_dir, "serve")? else {
            let holder = dsmt_store::LockFile::inspect(&locks_dir, "serve")
                .map_or_else(|| "unknown holder".to_string(), |info| info.describe());
            return Err(std::io::Error::new(
                std::io::ErrorKind::AddrInUse,
                format!(
                    "another daemon already serves this store (claim held by {holder}); \
                     stop it or remove {}",
                    locks_dir.join("serve.lock").display()
                ),
            ));
        };
        let listener = TcpListener::bind(&config.addr)?;
        listener.set_nonblocking(true)?;
        Ok(Server {
            listener,
            service: Arc::new(service),
            config,
            stop: Arc::new(AtomicBool::new(false)),
            _heartbeat: claim.spawn_heartbeat(Duration::from_secs(30)),
            _claim: claim,
        })
    }

    /// The bound address (resolves `:0` to the picked port).
    ///
    /// # Errors
    ///
    /// As for [`TcpListener::local_addr`].
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// A handle that can stop this server from another thread.
    #[must_use]
    pub fn handle(&self) -> ShutdownHandle {
        ShutdownHandle {
            stop: Arc::clone(&self.stop),
        }
    }

    /// Serves until shutdown is requested, then drains and returns the
    /// run's summary. Blocks the calling thread.
    ///
    /// # Errors
    ///
    /// Failure to spawn worker threads.
    pub fn run(self) -> std::io::Result<ServeSummary> {
        let shared = Arc::new(Shared {
            service: Arc::clone(&self.service),
            queue: Mutex::new(VecDeque::new()),
            ready: Condvar::new(),
            stop: Arc::clone(&self.stop),
            active: AtomicUsize::new(0),
            requests: AtomicU64::new(0),
            limits: self.config.limits.clone(),
            max_requests_per_conn: self.config.max_requests_per_conn,
        });
        dsmt_obs::gauge!("serve.queue_depth").set(0);
        let workers: Vec<_> = (0..self.config.workers.max(1))
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("dsmt-serve-{i}"))
                    .spawn(move || worker_loop(&shared))
            })
            .collect::<std::io::Result<_>>()?;

        let mut summary = ServeSummary::default();
        while !shared.stopping() {
            match self.listener.accept() {
                Ok((stream, peer)) => {
                    summary.connections += 1;
                    dsmt_obs::counter!("serve.connections").inc();
                    dsmt_obs::debug!("serve.accept", peer = peer.to_string());
                    let mut queue = shared.queue.lock().expect("queue lock");
                    if queue.len() >= self.config.backlog {
                        drop(queue);
                        summary.rejected += 1;
                        dsmt_obs::counter!("http.rejected_busy").inc();
                        let _ = stream.set_write_timeout(Some(self.config.limits.write_timeout));
                        let _ = ApiError::busy().to_response().write_to(&mut &stream, false);
                        continue;
                    }
                    queue.push_back(stream);
                    dsmt_obs::gauge!("serve.queue_depth").set(queue.len() as i64);
                    drop(queue);
                    shared.ready.notify_one();
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_millis(25));
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => {
                    dsmt_obs::warn!("serve.accept_failed", error = e.to_string());
                    std::thread::sleep(Duration::from_millis(100));
                }
            }
        }

        // Drain: workers keep popping until the queue is empty, then exit.
        shared.ready.notify_all();
        let deadline = Instant::now() + self.config.drain_timeout;
        loop {
            let queued = shared.queue.lock().expect("queue lock").len();
            let active = shared.active.load(Ordering::SeqCst);
            if queued == 0 && active == 0 {
                break;
            }
            if Instant::now() >= deadline {
                summary.forced_abort = true;
                dsmt_obs::warn!(
                    "serve.forced_abort",
                    in_flight = active,
                    queued = queued,
                    drain_timeout_ms = self.config.drain_timeout.as_millis() as u64
                );
                break;
            }
            shared.ready.notify_all();
            std::thread::sleep(Duration::from_millis(10));
        }
        if !summary.forced_abort {
            for worker in workers {
                let _ = worker.join();
            }
        }
        summary.requests = shared.requests.load(Ordering::SeqCst);
        drop(self); // stops the heartbeat, then releases the `serve` claim
        dsmt_obs::info!(
            "serve.stopped",
            connections = summary.connections,
            requests = summary.requests,
            forced_abort = summary.forced_abort
        );
        Ok(summary)
    }
}

fn worker_loop(shared: &Shared) {
    loop {
        let stream = {
            let mut queue = shared.queue.lock().expect("queue lock");
            loop {
                if let Some(stream) = queue.pop_front() {
                    dsmt_obs::gauge!("serve.queue_depth").set(queue.len() as i64);
                    break Some(stream);
                }
                if shared.stopping() {
                    break None;
                }
                let (q, _timeout) = shared
                    .ready
                    .wait_timeout(queue, Duration::from_millis(100))
                    .expect("queue lock");
                queue = q;
            }
        };
        let Some(stream) = stream else { return };
        shared.active.fetch_add(1, Ordering::SeqCst);
        handle_connection(shared, stream);
        shared.active.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Speaks keep-alive HTTP on one connection until the peer closes, an
/// error ends it, the per-connection request cap is reached, or shutdown
/// is requested between requests.
fn handle_connection(shared: &Shared, stream: TcpStream) {
    let _ = stream.set_read_timeout(Some(shared.limits.read_timeout));
    let _ = stream.set_write_timeout(Some(shared.limits.write_timeout));
    let mut conn = Conn::new(stream);
    let mut served = 0usize;
    loop {
        if shared.stopping() && served > 0 {
            // In-flight request already answered; close instead of waiting
            // for another one that may never come.
            break;
        }
        match conn.read_request(&shared.limits) {
            Ok(request) => {
                let started = Instant::now();
                shared.requests.fetch_add(1, Ordering::SeqCst);
                dsmt_obs::counter!("http.requests").inc();
                served += 1;
                let keep_alive = request.wants_keep_alive()
                    && served < shared.max_requests_per_conn
                    && !shared.stopping();
                let response = dispatch(&shared.service, &request);
                // counter! caches the first name per call site, so the
                // per-class counters go through the registry directly.
                let class = match response.status {
                    200..=299 => "http.responses_2xx",
                    400..=499 => "http.responses_4xx",
                    500..=599 => "http.responses_5xx",
                    _ => "http.responses_other",
                };
                dsmt_obs::registry().counter(class).inc();
                dsmt_obs::histogram!("http.request_us")
                    .record(started.elapsed().as_micros() as u64);
                dsmt_obs::debug!(
                    "http.request",
                    method = request.method.as_str(),
                    path = request.path.as_str(),
                    status = response.status,
                    micros = started.elapsed().as_micros() as u64
                );
                if response.write_to(conn.stream_mut(), keep_alive).is_err() || !keep_alive {
                    break;
                }
            }
            Err(ParseError::Closed) | Err(ParseError::TimedOut { mid_request: false }) => break,
            Err(e) => {
                if let Some(error) = request_error(&e) {
                    dsmt_obs::counter!("http.responses_4xx").inc();
                    let _ = error.to_response().write_to(conn.stream_mut(), false);
                }
                break;
            }
        }
    }
}

/// Maps a request-reading failure to its structured response, or `None`
/// when the right move is to close silently (I/O errors mid-write).
fn request_error(e: &ParseError) -> Option<ApiError> {
    match e {
        ParseError::Closed | ParseError::TimedOut { mid_request: false } | ParseError::Io(_) => {
            None
        }
        ParseError::TimedOut { mid_request: true } => Some(ApiError::new(
            408,
            "timeout",
            "request not completed within the read timeout",
        )),
        ParseError::Truncated => Some(ApiError::new(
            400,
            "truncated_request",
            "connection closed mid-request",
        )),
        ParseError::Malformed(why) => Some(ApiError::bad_request(*why)),
        ParseError::HeaderTooLarge => Some(ApiError::new(
            431,
            "header_too_large",
            "request head exceeds the configured limit",
        )),
        ParseError::BodyTooLarge { declared } => Some(ApiError::new(
            413,
            "payload_too_large",
            format!("declared body of {declared} bytes exceeds the configured limit"),
        )),
        ParseError::UnsupportedTransferEncoding => Some(ApiError::new(
            501,
            "unsupported_transfer_encoding",
            "send a content-length body; transfer-encoding is not supported",
        )),
        ParseError::UnsupportedVersion => Some(ApiError::new(
            505,
            "http_version_not_supported",
            "only HTTP/1.0 and HTTP/1.1 are supported",
        )),
    }
}

/// Routes one request, never panicking: service bugs surface as 500
/// `internal` responses instead of killing the worker thread.
fn dispatch(service: &SweepService, request: &Request) -> Response {
    let outcome =
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| route(service, request)));
    match outcome {
        Ok(response) => response,
        Err(panic) => {
            let what = panic
                .downcast_ref::<&str>()
                .map(|s| (*s).to_string())
                .or_else(|| panic.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "opaque panic".to_string());
            dsmt_obs::warn!(
                "serve.handler_panicked",
                path = request.path.as_str(),
                panic = what.as_str()
            );
            ApiError::internal("handler panicked; see server log").to_response()
        }
    }
}

/// The route table. See `docs/ARCHITECTURE.md` ("Service protocol") for
/// the endpoint contract.
fn route(service: &SweepService, request: &Request) -> Response {
    let segments: Vec<&str> = request.path.split('/').filter(|s| !s.is_empty()).collect();
    let get = request.method == "GET";
    let post = request.method == "POST";
    let result: Result<Response, ApiError> = match segments.as_slice() {
        ["healthz"] if get => Ok(healthz(service)),
        ["healthz"] => Err(ApiError::method_not_allowed(&request.method, "GET")),
        ["metricsz"] if get => Ok(Response::json(
            200,
            dsmt_obs::registry().snapshot().to_json(),
        )),
        ["metricsz"] => Err(ApiError::method_not_allowed(&request.method, "GET")),
        ["grids"] if post => service
            .submit(&request.body)
            .map(|v| Response::json(201, serde::to_string(&v))),
        ["grids"] if get => service
            .list_grids()
            .map(|v| Response::json(200, serde::to_string(&v))),
        ["grids"] => Err(ApiError::method_not_allowed(&request.method, "GET, POST")),
        ["grids", hash, "status"] if get => service
            .status(hash)
            .map(|v| Response::json(200, serde::to_string(&v))),
        ["grids", _, "status"] => Err(ApiError::method_not_allowed(&request.method, "GET")),
        ["grids", hash, "record"] if get => service.record(hash).map(|fetch| {
            if request.header("if-none-match") == Some(fetch.etag.as_str()) {
                Response::json(304, String::new()).with_header("ETag", fetch.etag)
            } else {
                Response::bytes(200, "application/octet-stream", fetch.bytes)
                    .with_header("ETag", fetch.etag)
            }
        }),
        ["grids", _, "record"] => Err(ApiError::method_not_allowed(&request.method, "GET")),
        ["cells", key] if get => service
            .cell(key, request.header("if-none-match"))
            .map(|fetch| match fetch.json {
                None => Response::json(304, String::new()).with_header("ETag", fetch.etag),
                Some(json) => Response::json(200, json).with_header("ETag", fetch.etag),
            }),
        ["cells", _] => Err(ApiError::method_not_allowed(&request.method, "GET")),
        _ => Err(ApiError::not_found(&request.path)),
    };
    result.unwrap_or_else(|e| e.to_response())
}

fn healthz(service: &SweepService) -> Response {
    let value = Value::Object(vec![
        ("status".to_string(), Value::Str("ok".to_string())),
        ("pid".to_string(), Value::U64(u64::from(std::process::id()))),
        (
            "store".to_string(),
            Value::Str(service.store_dir().display().to_string()),
        ),
        ("plans".to_string(), Value::U64(service.plan_count() as u64)),
    ]);
    Response::json(200, serde::to_string(&value))
}
