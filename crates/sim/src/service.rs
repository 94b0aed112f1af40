//! The sweep service: answering simulation queries from the result store.
//!
//! `dkip-sim serve` (see `crates/sim/src/bin/dkip_sim.rs`) listens on a
//! unix or TCP socket and answers sweep/figure queries, serving everything
//! it can from the content-addressed [`crate::store::ResultStore`] and
//! computing only the misses. This module is the transport-independent
//! core: a line-oriented request grammar, the preset name resolvers, and
//! [`SweepService::answer`], which maps one request line to one response.
//!
//! # Protocol
//!
//! Requests are a single line:
//!
//! * `ping` — liveness check,
//! * `status` — health endpoint: uptime and the per-process counters
//!   (requests, errors, panics caught, open connections, request workers
//!   started, cache hits/misses),
//! * `suite <name> [budget=N]` — run a golden suite (`baseline`, `kilo`,
//!   `dkip`, `riscv`, `all`, see [`crate::suites::golden_suite_jobs`]),
//! * `job machine=<preset> mem=<preset> bench=<workload> budget=N`
//!   `[seed=N] [sample=P:U:W]` — run one simulation point. Machine presets
//!   are resolved by [`machine_preset`], memory presets by [`mem_preset`],
//!   workloads by [`crate::Workload::parse`].
//! * `shutdown` — transport-level verb, handled by [`run_server`] rather
//!   than the request core: replies `ok draining`, stops accepting new
//!   connections and drains in-flight ones (bounded by
//!   [`ServeOptions::drain`]).
//!
//! Responses are a status line, a body, then a lone `.` terminator line:
//!
//! ```text
//! ok jobs=<N> hits=<H> misses=<M>
//! <results_to_kv document>
//! .
//! ```
//!
//! or `err <message>` followed by `.`. The `hits=`/`misses=` counts are
//! per-request, so a client can assert "answered from cache" exactly —
//! `make cache-check` does.
//!
//! # Limits and failure isolation
//!
//! The server core ([`run_server`] / [`handle_connection`]) enforces:
//!
//! * **Request-line cap** — a request line longer than
//!   [`ServeOptions::max_line`] bytes ([`MAX_REQUEST_LINE`] by default) is
//!   answered with `err request too long (max N bytes)`; the oversized
//!   line is discarded and the connection stays usable. The line never
//!   accumulates in memory past the cap.
//! * **Per-request deadline** — each connection answers its requests on
//!   one request worker thread, started at its first request and reused
//!   by every later one (no thread spawn per request). A request that
//!   outlives [`ServeOptions::deadline`] is answered with `err timeout …`
//!   and its worker is abandoned: it finishes (and populates the cache)
//!   in the background, it just no longer owns the connection's answer,
//!   and the connection's next request starts a new worker. A worker
//!   thread that dies is answered `err internal: …` and replaced the same
//!   way. Without a deadline, requests are answered on the connection
//!   thread itself.
//! * **Panic isolation** — [`SweepService::answer_caught`] wraps each
//!   request in `catch_unwind`, so one poisoned query becomes an
//!   `err internal: request panicked: …` response (and a bumped `panics`
//!   counter) instead of a dead server. Job-level panics never even reach
//!   that: the runner records them and the service reports
//!   `err N of M jobs failed: …`.
//! * **Graceful drain** — the accept loop blocks in `accept` (it never
//!   polls); the `shutdown` handler wakes it by connecting once to the
//!   listener's own address. Accepting then stops and in-flight
//!   connections get [`ServeOptions::drain`] to finish before the server
//!   returns; idle keep-alive connections are abandoned.
//!
//! The [`crate::chaos`] fault points `service.answer` (injected handler
//! panic) and `service.stall` (injected slow request) exercise the panic
//! and deadline paths under `make chaos-check`.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::chaos::{self, FaultPoint};
use crate::runner::{results_to_kv, Job, Machine, SweepRunner};
use crate::suites::golden_suite_jobs;
use crate::workload::Workload;
use dkip_model::config::{
    BaselineConfig, DkipConfig, KiloConfig, MemoryHierarchyConfig, SampleConfig,
};

/// Resolves a machine preset name: `R10-64`, `R10-256`, `R10-768`,
/// `UNBOUNDED`, `KILO-1024`, `D-KIP-2048` (the paper default) or
/// `D-KIP-<n>` for a D-KIP with an `n`-entry LLIB.
///
/// # Errors
///
/// Returns a human-readable message naming the unknown preset.
pub fn machine_preset(name: &str) -> Result<Machine, String> {
    match name {
        "R10-64" => Ok(Machine::Baseline(BaselineConfig::r10_64())),
        "R10-256" => Ok(Machine::Baseline(BaselineConfig::r10_256())),
        "R10-768" => Ok(Machine::Baseline(BaselineConfig::r10_768())),
        "UNBOUNDED" => Ok(Machine::Baseline(BaselineConfig::unbounded())),
        "KILO-1024" => Ok(Machine::Kilo(KiloConfig::kilo_1024())),
        "D-KIP-2048" => Ok(Machine::Dkip(DkipConfig::paper_default())),
        _ => {
            if let Some(n) = name.strip_prefix("D-KIP-") {
                let capacity = n
                    .parse::<usize>()
                    .ok()
                    .filter(|&c| c > 0)
                    .ok_or_else(|| format!("invalid D-KIP LLIB capacity in {name:?}"))?;
                return Ok(Machine::Dkip(
                    DkipConfig::paper_default().with_llib_capacity(capacity),
                ));
            }
            Err(format!(
                "unknown machine preset {name:?}: expected R10-64, R10-256, R10-768, \
                 UNBOUNDED, KILO-1024 or D-KIP-<llib entries>"
            ))
        }
    }
}

/// Resolves a Table 1 memory preset name (`L1-2`, `L2-11`, `L2-21`,
/// `MEM-100`, `MEM-400`, `MEM-1000`).
///
/// # Errors
///
/// Returns a human-readable message naming the unknown preset.
pub fn mem_preset(name: &str) -> Result<MemoryHierarchyConfig, String> {
    MemoryHierarchyConfig::table1_presets()
        .into_iter()
        .find(|preset| preset.name == name)
        .ok_or_else(|| {
            format!("unknown memory preset {name:?}: expected a Table 1 row name (e.g. MEM-400)")
        })
}

/// One parsed request (see the module docs for the grammar).
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Liveness check.
    Ping,
    /// Health endpoint: uptime and per-process counters.
    Status,
    /// A golden-suite sweep with an optional budget override.
    Suite {
        /// Suite name for [`golden_suite_jobs`].
        name: String,
        /// Per-job budget override.
        budget: Option<u64>,
    },
    /// A single simulation point.
    Job(Box<Job>),
}

impl Request {
    /// Parses one request line.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message for anything outside the grammar.
    pub fn parse(line: &str) -> Result<Request, String> {
        let mut words = line.split_whitespace();
        match words.next() {
            None => Err("empty request".to_owned()),
            Some("ping") => match words.next() {
                None => Ok(Request::Ping),
                Some(extra) => Err(format!("unexpected argument {extra:?} after ping")),
            },
            Some("status") => match words.next() {
                None => Ok(Request::Status),
                Some(extra) => Err(format!("unexpected argument {extra:?} after status")),
            },
            Some("suite") => {
                let name = words.next().ok_or("suite requires a name")?.to_owned();
                let mut budget = None;
                for word in words {
                    let value = word
                        .strip_prefix("budget=")
                        .ok_or_else(|| format!("unexpected suite argument {word:?}"))?;
                    let parsed = value
                        .parse::<u64>()
                        .ok()
                        .filter(|&b| b > 0)
                        .ok_or_else(|| format!("invalid budget {value:?}"))?;
                    if budget.replace(parsed).is_some() {
                        return Err("duplicate budget= argument".to_owned());
                    }
                }
                // Resolve eagerly so unknown suites fail at parse time.
                golden_suite_jobs(&name, None)?;
                Ok(Request::Suite { name, budget })
            }
            Some("job") => {
                let mut machine = None;
                let mut mem = None;
                let mut bench = None;
                let mut budget = None;
                let mut seed = None;
                let mut sample = None;
                for word in words {
                    let (key, value) = word
                        .split_once('=')
                        .ok_or_else(|| format!("malformed job argument {word:?}"))?;
                    let duplicate = || format!("duplicate job argument {key}=");
                    match key {
                        "machine" => {
                            if machine.replace(machine_preset(value)?).is_some() {
                                return Err(duplicate());
                            }
                        }
                        "mem" => {
                            if mem.replace(mem_preset(value)?).is_some() {
                                return Err(duplicate());
                            }
                        }
                        "bench" => {
                            if bench.replace(Workload::parse(value)?).is_some() {
                                return Err(duplicate());
                            }
                        }
                        "budget" => {
                            let parsed = value
                                .parse::<u64>()
                                .ok()
                                .filter(|&b| b > 0)
                                .ok_or_else(|| format!("invalid budget {value:?}"))?;
                            if budget.replace(parsed).is_some() {
                                return Err(duplicate());
                            }
                        }
                        "seed" => {
                            let parsed = value
                                .parse::<u64>()
                                .map_err(|_| format!("invalid seed {value:?}"))?;
                            if seed.replace(parsed).is_some() {
                                return Err(duplicate());
                            }
                        }
                        "sample" => {
                            let parsed = SampleConfig::parse(value).map_err(|e| e.to_string())?;
                            if sample.replace(parsed).is_some() {
                                return Err(duplicate());
                            }
                        }
                        _ => return Err(format!("unknown job argument {key}=")),
                    }
                }
                let machine = machine.ok_or("job requires machine=")?;
                let mem = mem.ok_or("job requires mem=")?;
                let bench = bench.ok_or("job requires bench=")?;
                let budget = budget.ok_or("job requires budget=")?;
                let mut job = Job::new("query", machine, mem, bench, budget)
                    .exact()
                    .unprobed();
                if let Some(seed) = seed {
                    job = job.with_seed(seed);
                }
                if let Some(sample) = sample {
                    job = job.with_sample(sample);
                }
                Ok(Request::Job(Box::new(job)))
            }
            Some(verb) => Err(format!(
                "unknown request {verb:?}: expected ping, status, suite or job"
            )),
        }
    }
}

/// One rendered response: a status line plus an optional body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// The `ok …` / `err …` status line (no trailing newline).
    pub status: String,
    /// The response body (already newline-terminated when non-empty).
    pub body: String,
}

impl Response {
    /// Whether the status line reports success.
    #[must_use]
    pub fn is_ok(&self) -> bool {
        self.status.starts_with("ok")
    }

    /// Renders the full wire form: status line, body, `.` terminator.
    #[must_use]
    pub fn render(&self) -> String {
        format!("{}\n{}.\n", self.status, self.body)
    }
}

/// Uptime counters behind the `status` verb, shared by every clone of one
/// [`SweepService`] (and therefore by every connection of one server).
#[derive(Debug)]
struct ServiceCounters {
    start: Instant,
    requests: AtomicU64,
    errors: AtomicU64,
    panics: AtomicU64,
    /// Connections [`run_server`] accepted that are still open; the drain
    /// waits for this to reach zero.
    connections: AtomicUsize,
    /// Request workers started (see `Worker`).
    workers: AtomicU64,
}

/// The query-answering core shared by every `dkip-sim serve` connection.
///
/// Cloning is cheap and shares the uptime counters, so per-connection
/// clones still report per-process totals through the `status` verb.
#[derive(Debug, Clone)]
pub struct SweepService {
    runner: SweepRunner,
    counters: Arc<ServiceCounters>,
}

impl SweepService {
    /// Creates a service that runs queries through `runner` (whose attached
    /// store, if any, makes repeated queries near-free).
    #[must_use]
    pub fn new(runner: SweepRunner) -> Self {
        SweepService {
            runner,
            counters: Arc::new(ServiceCounters {
                start: Instant::now(),
                requests: AtomicU64::new(0),
                errors: AtomicU64::new(0),
                panics: AtomicU64::new(0),
                connections: AtomicUsize::new(0),
                workers: AtomicU64::new(0),
            }),
        }
    }

    /// Requests answered (ok or err) since the service was created.
    #[must_use]
    pub fn requests(&self) -> u64 {
        self.counters.requests.load(Ordering::Relaxed)
    }

    /// `err …` responses issued since the service was created (including
    /// timeouts and caught panics).
    #[must_use]
    pub fn errors(&self) -> u64 {
        self.counters.errors.load(Ordering::Relaxed)
    }

    /// Request panics caught by [`SweepService::answer_caught`].
    #[must_use]
    pub fn panics_caught(&self) -> u64 {
        self.counters.panics.load(Ordering::Relaxed)
    }

    /// Answers one request line (see the module docs for the protocol).
    /// Never panics on malformed input — errors become `err …` responses.
    /// (A *bug* — or the `service.answer` chaos fault — can still panic;
    /// server transports go through [`SweepService::answer_caught`].)
    #[must_use]
    pub fn answer(&self, line: &str) -> Response {
        self.counters.requests.fetch_add(1, Ordering::Relaxed);
        if chaos::should_fire(FaultPoint::ServiceStall) {
            // An injected slow request, for exercising the per-request
            // deadline: long enough to blow a test's short deadline,
            // short enough not to stall a default-configured server.
            std::thread::sleep(Duration::from_millis(250));
        }
        if chaos::should_fire(FaultPoint::ServiceAnswer) {
            panic!("{}: injected service.answer fault", chaos::CHAOS_TAG);
        }
        let response = self.answer_request(line);
        if !response.is_ok() {
            self.counters.errors.fetch_add(1, Ordering::Relaxed);
        }
        response
    }

    /// [`SweepService::answer`] wrapped in `catch_unwind`: a panicking
    /// request becomes an `err internal: request panicked: …` response
    /// and a bumped `panics` counter instead of a dead connection thread.
    #[must_use]
    pub fn answer_caught(&self, line: &str) -> Response {
        match catch_unwind(AssertUnwindSafe(|| self.answer(line))) {
            Ok(response) => response,
            Err(payload) => {
                self.counters.panics.fetch_add(1, Ordering::Relaxed);
                self.counters.errors.fetch_add(1, Ordering::Relaxed);
                let message = chaos::panic_message(payload.as_ref()).replace('\n', "; ");
                Response {
                    status: format!("err internal: request panicked: {message}"),
                    body: String::new(),
                }
            }
        }
    }

    /// The un-instrumented request dispatch behind [`SweepService::answer`].
    fn answer_request(&self, line: &str) -> Response {
        let request = match Request::parse(line) {
            Ok(request) => request,
            Err(message) => {
                return Response {
                    status: format!("err {message}"),
                    body: String::new(),
                }
            }
        };
        let jobs = match request {
            Request::Ping => {
                return Response {
                    status: "ok pong".to_owned(),
                    body: String::new(),
                }
            }
            Request::Status => return self.status_response(),
            Request::Suite { name, budget } => {
                golden_suite_jobs(&name, budget).expect("suite name validated at parse time")
            }
            Request::Job(job) => vec![*job],
        };
        let report = self.runner.run_report(&jobs);
        if !report.failures.is_empty() {
            // Job panics and recoverable job errors were already isolated
            // by the runner; report them without pretending partial
            // results are the answer.
            let first = report.failures[0].render().replace('\n', "; ");
            return Response {
                status: format!(
                    "err {} of {} jobs failed: {first}",
                    report.failures.len(),
                    jobs.len()
                ),
                body: String::new(),
            };
        }
        Response {
            status: format!(
                "ok jobs={} hits={} misses={}",
                report.results.len(),
                report.hits,
                report.misses
            ),
            body: results_to_kv(&report.results),
        }
    }

    /// Renders the `status` health response. The request counter includes
    /// the `status` request itself.
    fn status_response(&self) -> Response {
        let (cache_hits, cache_misses) = self
            .runner
            .store()
            .map_or((0, 0), |store| (store.hits(), store.misses()));
        Response {
            status: format!(
                "ok uptime_ms={} requests={} errors={} panics={} connections={} \
                 workers={} cache_hits={cache_hits} cache_misses={cache_misses}",
                self.counters.start.elapsed().as_millis(),
                self.requests(),
                self.errors(),
                self.panics_caught(),
                self.counters.connections.load(Ordering::Acquire),
                self.counters.workers.load(Ordering::Relaxed),
            ),
            body: String::new(),
        }
    }
}

/// Default cap on one request line, in bytes excluding the newline
/// (see [`ServeOptions::max_line`]). Generous next to the longest legal
/// request (~a hundred bytes), tiny next to the unbounded `read_line`
/// it replaces.
pub const MAX_REQUEST_LINE: usize = 8192;

/// Server tuning knobs for [`run_server`].
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Longest accepted request line in bytes (newline excluded); longer
    /// lines are answered `err request too long …` and discarded.
    pub max_line: usize,
    /// Per-request wall-clock deadline: a slower answer is replaced by
    /// `err timeout …` and the connection's request worker is abandoned
    /// to finish in the background (the next request starts a new one).
    /// `None` disables the deadline and the per-connection worker thread
    /// it requires: requests are answered on the connection thread.
    pub deadline: Option<Duration>,
    /// How long `shutdown` waits for in-flight connections before the
    /// server returns anyway.
    pub drain: Duration,
}

impl Default for ServeOptions {
    /// 8 KiB lines, a 10-minute request deadline (a paper-scale suite at
    /// CI budgets answers in seconds; ten minutes only reaps the
    /// genuinely wedged), a 5-second drain.
    fn default() -> Self {
        ServeOptions {
            max_line: MAX_REQUEST_LINE,
            deadline: Some(Duration::from_secs(600)),
            drain: Duration::from_secs(5),
        }
    }
}

/// Makes a blocked [`Acceptor::accept`] return by connecting once to the
/// listener (see [`Acceptor::waker`]).
pub type Waker = Arc<dyn Fn() -> io::Result<()> + Send + Sync>;

/// A blocking connection acceptor: the transport half of [`run_server`],
/// implemented for [`TcpListener`] and [`UnixListener`].
pub trait Acceptor {
    /// One accepted connection.
    type Conn: Read + Write + Send + 'static;

    /// Blocks until a connection arrives and accepts it.
    ///
    /// # Errors
    ///
    /// Returns the underlying accept error.
    fn accept(&self) -> io::Result<Self::Conn>;

    /// A [`Waker`] that connects to this listener's own address, so the
    /// `shutdown` handler can wake the accept loop.
    ///
    /// # Errors
    ///
    /// Returns the error when the listener's address cannot be read or
    /// cannot be connected to (an unnamed unix socket).
    fn waker(&self) -> io::Result<Waker>;
}

impl Acceptor for TcpListener {
    type Conn = TcpStream;

    fn accept(&self) -> io::Result<TcpStream> {
        TcpListener::accept(self).map(|(stream, _peer)| stream)
    }

    fn waker(&self) -> io::Result<Waker> {
        let mut addr = self.local_addr()?;
        // A wildcard listener is reached on its own host via loopback.
        match addr.ip() {
            IpAddr::V4(ip) if ip.is_unspecified() => addr.set_ip(Ipv4Addr::LOCALHOST.into()),
            IpAddr::V6(ip) if ip.is_unspecified() => addr.set_ip(Ipv6Addr::LOCALHOST.into()),
            _ => {}
        }
        Ok(Arc::new(move || TcpStream::connect(addr).map(drop)))
    }
}

impl Acceptor for UnixListener {
    type Conn = UnixStream;

    fn accept(&self) -> io::Result<UnixStream> {
        UnixListener::accept(self).map(|(stream, _peer)| stream)
    }

    fn waker(&self) -> io::Result<Waker> {
        let path = self
            .local_addr()?
            .as_pathname()
            .ok_or_else(|| {
                io::Error::new(
                    io::ErrorKind::InvalidInput,
                    "the unix listener has no path to connect to",
                )
            })?
            .to_owned();
        Ok(Arc::new(move || UnixStream::connect(&path).map(drop)))
    }
}

/// Decrements the open-connection count when a handler thread exits,
/// however it exits.
struct ActiveGuard(Arc<ServiceCounters>);

impl Drop for ActiveGuard {
    fn drop(&mut self) {
        self.0.connections.fetch_sub(1, Ordering::AcqRel);
    }
}

/// Accepts connections until a client sends `shutdown`, then drains.
///
/// The loop blocks in [`Acceptor::accept`]; the handler that receives
/// `shutdown` wakes it through the listener's [`Acceptor::waker`]. One
/// detached handler thread per connection (so drain can time out on idle
/// keep-alive peers instead of joining them forever); each handler
/// answers through [`SweepService::answer_caught`] under the limits in
/// `opts`. Accept errors are logged and the loop continues — a transient
/// `EMFILE` must not kill a server holding a warm cache.
///
/// # Errors
///
/// Returns the [`Acceptor::waker`] error — before any request is served.
pub fn run_server<A: Acceptor>(
    listener: &A,
    service: SweepService,
    opts: &ServeOptions,
) -> io::Result<()> {
    let waker = listener.waker()?;
    let service = Arc::new(service);
    let shutdown = Arc::new(AtomicBool::new(false));
    let counters = Arc::clone(&service.counters);
    while !shutdown.load(Ordering::Acquire) {
        let conn = match listener.accept() {
            Ok(conn) => conn,
            Err(e) => {
                eprintln!("# dkip-sim serve: accept failed: {e}");
                std::thread::sleep(Duration::from_millis(100));
                continue;
            }
        };
        if shutdown.load(Ordering::Acquire) {
            // The shutdown handler's wake-up, or a client that raced it.
            break;
        }
        counters.connections.fetch_add(1, Ordering::AcqRel);
        let guard = ActiveGuard(Arc::clone(&counters));
        let service = Arc::clone(&service);
        let shutdown = Arc::clone(&shutdown);
        let waker = Arc::clone(&waker);
        let opts = opts.clone();
        std::thread::spawn(move || {
            let _guard = guard;
            if handle_connection(conn, &service, &opts, &shutdown) {
                if let Err(e) = waker() {
                    eprintln!("# dkip-sim serve: cannot wake the accept loop: {e}");
                }
            }
        });
    }
    let drain_until = Instant::now() + opts.drain;
    while counters.connections.load(Ordering::Acquire) > 0 && Instant::now() < drain_until {
        std::thread::sleep(Duration::from_millis(10));
    }
    let abandoned = counters.connections.load(Ordering::Acquire);
    if abandoned > 0 {
        eprintln!("# dkip-sim serve: drain timed out, abandoning {abandoned} connection(s)");
    }
    Ok(())
}

/// One `read_request_line` outcome.
enum LineOutcome {
    /// A complete request line (terminator stripped).
    Line(String),
    /// The line exceeded the cap; the remainder was discarded and the
    /// connection is resynchronised on the next line.
    TooLong,
    /// Peer closed the connection (including mid-line) or the read
    /// failed: drop the connection.
    Closed,
}

/// Reads one newline-terminated request line without ever buffering more
/// than `max` bytes of it.
fn read_request_line<R: BufRead>(reader: &mut R, max: usize) -> LineOutcome {
    let mut line = String::new();
    match reader.take(max as u64 + 1).read_line(&mut line) {
        Err(_) | Ok(0) => LineOutcome::Closed,
        Ok(n) => {
            if line.ends_with('\n') {
                LineOutcome::Line(line.trim_end_matches(['\r', '\n']).to_owned())
            } else if n > max {
                // Over the cap with no newline in sight: flush the rest of
                // the oversized line so the next request parses cleanly.
                if discard_to_newline(reader) {
                    LineOutcome::TooLong
                } else {
                    LineOutcome::Closed
                }
            } else {
                // EOF mid-line: the peer disconnected mid-request.
                LineOutcome::Closed
            }
        }
    }
}

/// Consumes input up to and including the next newline; `false` on EOF or
/// error (nothing left to resynchronise on).
fn discard_to_newline<R: BufRead>(reader: &mut R) -> bool {
    loop {
        let (consumed, done) = match reader.fill_buf() {
            Err(_) => return false,
            Ok([]) => return false,
            Ok(buf) => match buf.iter().position(|&b| b == b'\n') {
                Some(pos) => (pos + 1, true),
                None => (buf.len(), false),
            },
        };
        reader.consume(consumed);
        if done {
            return true;
        }
    }
}

/// Answers request lines until the peer closes the connection or sends
/// `shutdown`. I/O errors drop the connection; they never take the server
/// down. See the module docs for the limits enforced here.
///
/// Returns `true` when the connection ended with `shutdown`: `shutdown`
/// is set before the reply goes out, and the caller wakes its accept loop.
pub fn handle_connection<C: Read + Write>(
    conn: C,
    service: &SweepService,
    opts: &ServeOptions,
    shutdown: &AtomicBool,
) -> bool {
    let mut reader = BufReader::new(conn);
    // Started at the first request, reused by later ones; dropping it at
    // return closes its channel and the worker exits.
    let mut worker = None;
    loop {
        let response = match read_request_line(&mut reader, opts.max_line) {
            LineOutcome::Closed => return false,
            LineOutcome::TooLong => Response {
                status: format!("err request too long (max {} bytes)", opts.max_line),
                body: String::new(),
            },
            LineOutcome::Line(line) if line.is_empty() => continue,
            LineOutcome::Line(line) if line == "shutdown" => {
                shutdown.store(true, Ordering::Release);
                let reply = Response {
                    status: "ok draining".to_owned(),
                    body: String::new(),
                };
                let _ = reader
                    .get_mut()
                    .write_all(reply.render().as_bytes())
                    .and_then(|()| reader.get_mut().flush());
                return true;
            }
            LineOutcome::Line(line) => {
                answer_with_deadline(service, &mut worker, &line, opts.deadline)
            }
        };
        if reader
            .get_mut()
            .write_all(response.render().as_bytes())
            .and_then(|()| reader.get_mut().flush())
            .is_err()
        {
            return false;
        }
    }
}

/// The request worker thread of one connection: it answers the
/// connection's requests one at a time, so a connection starts one thread
/// rather than one per request. The thread is detached: it exits once the
/// `Worker` is dropped (its request channel closes), after finishing the
/// request it may be running. It answers through
/// [`SweepService::answer_caught`], so a request panic is already an
/// `err` response, never a lost thread result.
struct Worker {
    requests: mpsc::Sender<String>,
    responses: mpsc::Receiver<Response>,
}

impl Worker {
    /// Starts a worker answering through `service`, counted in `status`.
    fn spawn(service: &SweepService) -> Worker {
        service.counters.workers.fetch_add(1, Ordering::Relaxed);
        let service = service.clone();
        Worker::run(move |line| service.answer_caught(line))
    }

    /// Starts a worker thread that answers each request line with `answer`.
    fn run(answer: impl Fn(&str) -> Response + Send + 'static) -> Worker {
        let (requests, lines) = mpsc::channel::<String>();
        let (answers, responses) = mpsc::channel();
        std::thread::spawn(move || {
            for line in lines {
                if answers.send(answer(&line)).is_err() {
                    // Abandoned after a timeout: nobody waits for this
                    // answer, or for any later one.
                    return;
                }
            }
        });
        Worker {
            requests,
            responses,
        }
    }
}

/// Runs one request under the optional deadline on the connection's
/// `worker`, starting one if there is none. On time-out the worker is
/// abandoned (it finishes — and warms the cache — in the background) and
/// the connection gets `err timeout …` instead; a worker thread that died
/// gets `err internal: …`. Either way the next request starts a new
/// worker. Without a deadline the request is answered inline.
fn answer_with_deadline(
    service: &SweepService,
    worker: &mut Option<Worker>,
    line: &str,
    deadline: Option<Duration>,
) -> Response {
    let Some(deadline) = deadline else {
        return service.answer_caught(line);
    };
    let current = worker.get_or_insert_with(|| Worker::spawn(service));
    // A send fails only when the worker thread is gone, which the receive
    // reports as `Disconnected`.
    let _ = current.requests.send(line.to_owned());
    let status = match current.responses.recv_timeout(deadline) {
        Ok(response) => return response,
        Err(RecvTimeoutError::Timeout) => format!(
            "err timeout: request exceeded {} ms (abandoned)",
            deadline.as_millis()
        ),
        Err(RecvTimeoutError::Disconnected) => {
            "err internal: request worker exited without an answer".to_owned()
        }
    };
    *worker = None;
    service.counters.errors.fetch_add(1, Ordering::Relaxed);
    Response {
        status,
        body: String::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::ResultStore;

    fn scratch_store(tag: &str) -> ResultStore {
        let dir =
            std::env::temp_dir().join(format!("dkip-service-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        ResultStore::open(dir).unwrap()
    }

    #[test]
    fn presets_resolve_and_reject() {
        assert_eq!(machine_preset("R10-64").unwrap().name(), "R10-64");
        assert_eq!(machine_preset("KILO-1024").unwrap().name(), "KILO-1024");
        assert_eq!(machine_preset("D-KIP-2048").unwrap().name(), "D-KIP-2048");
        assert_eq!(machine_preset("D-KIP-512").unwrap().name(), "D-KIP-512");
        assert!(machine_preset("D-KIP-0").is_err());
        assert!(machine_preset("R10-99").is_err());
        assert_eq!(mem_preset("MEM-400").unwrap().name, "MEM-400");
        assert_eq!(mem_preset("L1-2").unwrap().name, "L1-2");
        assert!(mem_preset("MEM-9").is_err());
    }

    #[test]
    fn request_grammar_is_strict() {
        assert_eq!(Request::parse("ping"), Ok(Request::Ping));
        assert!(Request::parse("ping extra").is_err());
        assert!(Request::parse("").is_err());
        assert!(Request::parse("reboot").is_err());
        assert!(matches!(
            Request::parse("suite kilo budget=1000"),
            Ok(Request::Suite {
                budget: Some(1000),
                ..
            })
        ));
        assert!(Request::parse("suite bogus").is_err());
        assert!(Request::parse("suite kilo budget=0").is_err());
        assert!(Request::parse("suite kilo budget=1 budget=2").is_err());
        let job =
            Request::parse("job machine=R10-64 mem=MEM-400 bench=gcc budget=1000 seed=7").unwrap();
        match job {
            Request::Job(job) => {
                assert_eq!(job.seed, 7);
                assert_eq!(job.budget, 1_000);
                assert!(job.sample.is_none());
            }
            other => panic!("expected a job request, got {other:?}"),
        }
        assert!(Request::parse("job machine=R10-64 mem=MEM-400 bench=gcc").is_err());
        assert!(Request::parse("job machine=R10-64 machine=R10-64").is_err());
        assert!(Request::parse("job frobnicate=1").is_err());
    }

    #[test]
    fn repeated_suite_queries_are_answered_from_the_cache() {
        let service = SweepService::new(SweepRunner::new(2).with_store(scratch_store("repeat")));
        let cold = service.answer("suite kilo budget=1500");
        assert_eq!(cold.status, "ok jobs=3 hits=0 misses=3");
        let warm = service.answer("suite kilo budget=1500");
        assert_eq!(
            warm.status, "ok jobs=3 hits=3 misses=0",
            "the repeat must not re-simulate"
        );
        assert_eq!(warm.body, cold.body, "cached answers are byte-identical");
        assert!(warm.render().ends_with("\n.\n"));
    }

    #[test]
    fn job_queries_and_errors_render() {
        let service = SweepService::new(SweepRunner::serial().with_store(scratch_store("job")));
        let first = service.answer("job machine=D-KIP-2048 mem=MEM-400 bench=gcc budget=1500");
        assert_eq!(first.status, "ok jobs=1 hits=0 misses=1");
        assert!(first
            .body
            .contains("[dkip D-KIP-2048 mem=MEM-400 bench=gcc"));
        let again = service.answer("job machine=D-KIP-2048 mem=MEM-400 bench=gcc budget=1500");
        assert_eq!(again.status, "ok jobs=1 hits=1 misses=0");
        assert_eq!(again.body, first.body);
        let err = service.answer("job machine=WARP-9 mem=MEM-400 bench=gcc budget=10");
        assert!(!err.is_ok());
        assert!(err.status.starts_with("err "));
        assert!(err.body.is_empty());
        assert_eq!(service.answer("ping").status, "ok pong");
    }

    #[test]
    fn status_reports_the_shared_counters() {
        let service = SweepService::new(SweepRunner::serial());
        assert_eq!(service.answer("ping").status, "ok pong");
        assert!(!service.answer("reboot").is_ok());
        // Per-connection clones share the counters, like server threads do.
        let status = service.clone().answer("status");
        assert!(status.is_ok(), "status: {}", status.status);
        for field in [
            "requests=3",
            "errors=1",
            "panics=0",
            "cache_hits=0",
            "cache_misses=0",
        ] {
            assert!(
                status.status.contains(field),
                "missing {field} in {}",
                status.status
            );
        }
        assert!(status.status.contains("uptime_ms="));
        assert!(status.body.is_empty());
        assert!(Request::parse("status extra").is_err());
    }

    #[test]
    fn a_dead_worker_is_an_internal_error_not_a_timeout() {
        let service = SweepService::new(SweepRunner::serial());
        let deadline = Some(Duration::from_secs(30));
        let mut worker = Some(Worker::run(|_| panic!("the worker thread dies")));
        let response = answer_with_deadline(&service, &mut worker, "ping", deadline);
        assert!(
            response.status.starts_with("err internal: "),
            "got: {}",
            response.status
        );
        assert!(worker.is_none(), "the dead worker is dropped");
        assert_eq!(service.errors(), 1);
        // The next request starts a fresh, counted worker.
        let response = answer_with_deadline(&service, &mut worker, "ping", deadline);
        assert_eq!(response.status, "ok pong");
        assert!(worker.is_some());
        assert_eq!(service.counters.workers.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn request_lines_are_capped_and_the_stream_resyncs() {
        let mut input = std::io::Cursor::new(format!("{}\nping\n", "x".repeat(100)).into_bytes());
        assert!(matches!(
            read_request_line(&mut input, 16),
            LineOutcome::TooLong
        ));
        match read_request_line(&mut input, 16) {
            LineOutcome::Line(line) => assert_eq!(line, "ping"),
            _ => panic!("the connection must resync on the next line"),
        }
        assert!(matches!(
            read_request_line(&mut input, 16),
            LineOutcome::Closed
        ));
        // A line of exactly max bytes passes; EOF mid-line is a disconnect.
        let mut exact = std::io::Cursor::new(b"ping\npar".to_vec());
        assert!(matches!(
            read_request_line(&mut exact, 4),
            LineOutcome::Line(line) if line == "ping"
        ));
        assert!(matches!(
            read_request_line(&mut exact, 4),
            LineOutcome::Closed
        ));
    }
}
