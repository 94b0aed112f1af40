//! Live-socket tests for the sweep server: the error paths a unit test of
//! `SweepService::answer` can't reach. A real `run_server` instance on an
//! ephemeral TCP port takes malformed requests, an oversized line, a
//! mid-request disconnect, an injected handler panic and an injected
//! stall — and must answer the next `ping` after every one of them. Other
//! tests pin the per-connection request worker (reused across requests,
//! replaced after a timeout, its abandoned work still filling the store)
//! and the shutdown wake-up of a unix-socket server blocked in `accept`.
//!
//! Tests that arm chaos faults serialise on a lock (the registry is
//! process-wide); each test runs its own server so shutdown semantics
//! stay independent.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use dkip::sim::chaos;
use dkip::sim::service::{run_server, Request, ServeOptions, SweepService};
use dkip::sim::store::ResultStore;
use dkip::sim::SweepRunner;

static CHAOS_LOCK: Mutex<()> = Mutex::new(());

/// One running server on an ephemeral local port, shut down on drop.
struct TestServer {
    addr: SocketAddr,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl TestServer {
    fn start(opts: ServeOptions) -> TestServer {
        TestServer::start_with(opts, SweepService::new(SweepRunner::serial()))
    }

    fn start_with(opts: ServeOptions, service: SweepService) -> TestServer {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind an ephemeral port");
        let addr = listener.local_addr().expect("ephemeral port has an addr");
        let thread = std::thread::spawn(move || {
            run_server(&listener, service, &opts).expect("server runs until shutdown");
        });
        TestServer {
            addr,
            thread: Some(thread),
        }
    }

    fn connect(&self) -> Client {
        let stream = TcpStream::connect(self.addr).expect("server is accepting");
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .expect("socket supports read timeouts");
        Client {
            reader: BufReader::new(stream),
        }
    }

    /// Sends `shutdown` and joins the accept loop.
    fn shutdown(mut self) {
        let mut client = self.connect();
        assert_eq!(client.request("shutdown").0, "ok draining");
        self.thread
            .take()
            .expect("not yet shut down")
            .join()
            .expect("the server thread exits cleanly after shutdown");
    }
}

/// One client connection speaking the line protocol.
struct Client<S = TcpStream> {
    reader: BufReader<S>,
}

impl<S: Read + Write> Client<S> {
    fn send(&mut self, raw: &[u8]) {
        let stream = self.reader.get_mut();
        stream.write_all(raw).expect("send");
        stream.flush().expect("flush");
    }

    /// Reads one `status / body / .` response.
    fn read_response(&mut self) -> (String, String) {
        let mut status = String::new();
        self.reader.read_line(&mut status).expect("status line");
        let status = status.trim_end().to_owned();
        assert!(!status.is_empty(), "connection closed before a status line");
        let mut body = String::new();
        loop {
            let mut line = String::new();
            let n = self.reader.read_line(&mut line).expect("body line");
            assert!(n > 0, "connection closed before the '.' terminator");
            if line.trim_end() == "." {
                return (status, body);
            }
            body.push_str(&line);
        }
    }

    fn request(&mut self, line: &str) -> (String, String) {
        self.send(format!("{line}\n").as_bytes());
        self.read_response()
    }
}

#[test]
fn malformed_oversized_and_disconnecting_clients_leave_the_server_up() {
    let _guard = CHAOS_LOCK.lock().unwrap();
    let server = TestServer::start(ServeOptions {
        max_line: 64,
        drain: Duration::from_millis(300),
        ..ServeOptions::default()
    });

    // Malformed request: an err response, same connection keeps working.
    let mut client = server.connect();
    let (status, body) = client.request("frobnicate the sweep");
    assert!(status.starts_with("err unknown request"), "got: {status}");
    assert!(body.is_empty());
    assert_eq!(client.request("ping").0, "ok pong");

    // Oversized line: capped, reported, and the stream resyncs.
    let oversized = format!("{}\n", "x".repeat(500));
    client.send(oversized.as_bytes());
    let (status, _) = client.read_response();
    assert_eq!(status, "err request too long (max 64 bytes)");
    assert_eq!(client.request("ping").0, "ok pong");

    // Mid-request disconnect: a partial line with no newline, then gone.
    let mut rude = server.connect();
    rude.send(b"suite kil");
    drop(rude);

    // The server still answers a fresh connection.
    let mut after = server.connect();
    assert_eq!(after.request("ping").0, "ok pong");
    server.shutdown();
}

#[test]
fn handler_panics_are_isolated_and_counted() {
    let _guard = CHAOS_LOCK.lock().unwrap();
    let server = TestServer::start(ServeOptions {
        drain: Duration::from_millis(300),
        ..ServeOptions::default()
    });
    let mut client = server.connect();
    chaos::arm("service.answer:first1:0").expect("valid spec");
    let (status, _) = client.request("ping");
    chaos::disarm();
    assert!(
        status.starts_with("err internal: request panicked"),
        "got: {status}"
    );
    assert!(status.contains(chaos::CHAOS_TAG));
    // Same connection, next request: alive, and the counters saw it all.
    assert_eq!(client.request("ping").0, "ok pong");
    let (status, _) = client.request("status");
    assert!(status.starts_with("ok uptime_ms="), "got: {status}");
    assert!(status.contains("panics=1"), "got: {status}");
    assert!(status.contains("errors=1"), "got: {status}");
    server.shutdown();
}

#[test]
fn slow_requests_time_out_with_an_err_response() {
    let _guard = CHAOS_LOCK.lock().unwrap();
    let server = TestServer::start(ServeOptions {
        deadline: Some(Duration::from_millis(50)),
        drain: Duration::from_millis(300),
        ..ServeOptions::default()
    });
    let mut client = server.connect();
    // The injected stall sleeps 250 ms, far past the 50 ms deadline.
    chaos::arm("service.stall:first1:0").expect("valid spec");
    let (status, _) = client.request("ping");
    chaos::disarm();
    assert!(status.starts_with("err timeout"), "got: {status}");
    assert_eq!(client.request("ping").0, "ok pong");
    server.shutdown();
}

#[test]
fn shutdown_drains_and_the_accept_loop_exits() {
    let _guard = CHAOS_LOCK.lock().unwrap();
    let server = TestServer::start(ServeOptions {
        drain: Duration::from_millis(500),
        ..ServeOptions::default()
    });
    // An idle keep-alive connection must not block the drain forever.
    let _idle = server.connect();
    let addr = server.addr;
    server.shutdown();
    // The listener is gone: a fresh connect must fail (the OS may accept
    // into a dead backlog on some platforms, so accept either outcome of
    // connect, but a request must never be answered).
    if let Ok(stream) = TcpStream::connect(addr) {
        stream
            .set_read_timeout(Some(Duration::from_millis(200)))
            .unwrap();
        let mut reader = BufReader::new(stream);
        let _ = reader.get_mut().write_all(b"ping\n");
        let mut line = String::new();
        assert!(
            reader.read_line(&mut line).is_err() || line.is_empty(),
            "a drained server must not answer: {line:?}"
        );
    }
}

/// The value of `field=` in a `status` line.
fn status_field(status: &str, field: &str) -> u64 {
    status
        .split_whitespace()
        .find_map(|word| word.strip_prefix(field)?.strip_prefix('='))
        .unwrap_or_else(|| panic!("no {field}= in {status}"))
        .parse()
        .expect("status fields are integers")
}

#[test]
fn one_connection_reuses_one_request_worker() {
    let _guard = CHAOS_LOCK.lock().unwrap();
    let server = TestServer::start(ServeOptions {
        drain: Duration::from_millis(300),
        ..ServeOptions::default()
    });
    let mut client = server.connect();
    for _ in 0..50 {
        assert_eq!(client.request("ping").0, "ok pong");
    }
    let (status, _) = client.request("status");
    assert_eq!(status_field(&status, "workers"), 1, "got: {status}");
    assert_eq!(status_field(&status, "connections"), 1, "got: {status}");
    server.shutdown();
}

#[test]
fn a_timed_out_request_leaves_the_next_one_a_new_worker() {
    let _guard = CHAOS_LOCK.lock().unwrap();
    let server = TestServer::start(ServeOptions {
        deadline: Some(Duration::from_millis(50)),
        drain: Duration::from_millis(300),
        ..ServeOptions::default()
    });
    let mut client = server.connect();
    chaos::arm("service.stall:first1:0").expect("valid spec");
    let (status, _) = client.request("ping");
    chaos::disarm();
    assert!(status.starts_with("err timeout"), "got: {status}");
    assert_eq!(client.request("ping").0, "ok pong");
    let (status, _) = client.request("status");
    assert_eq!(status_field(&status, "workers"), 2, "got: {status}");
    server.shutdown();
}

#[test]
fn an_abandoned_request_still_fills_the_store() {
    let _guard = CHAOS_LOCK.lock().unwrap();
    let dir = std::env::temp_dir().join(format!(
        "dkip-service-socket-abandoned-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let store = ResultStore::open(&dir).expect("open the test store");
    let server = TestServer::start_with(
        ServeOptions {
            deadline: Some(Duration::from_millis(50)),
            drain: Duration::from_millis(300),
            ..ServeOptions::default()
        },
        SweepService::new(SweepRunner::serial().with_store(store.clone())),
    );
    let line = "job machine=R10-64 mem=MEM-400 bench=gcc budget=2000";
    let Ok(Request::Job(job)) = Request::parse(line) else {
        panic!("{line:?} is a job request");
    };
    let key = store.key_for_text(&job.key_text());
    let mut client = server.connect();
    // The injected stall sleeps 250 ms, far past the 50 ms deadline.
    chaos::arm("service.stall:first1:0").expect("valid spec");
    let (status, _) = client.request(line);
    chaos::disarm();
    assert!(status.starts_with("err timeout"), "got: {status}");
    // The abandoned worker finishes the job and writes it to the store.
    let until = Instant::now() + Duration::from_secs(10);
    while store.lookup(&key).is_none() {
        assert!(
            Instant::now() < until,
            "the abandoned job never reached the store"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(client.request(line).0, "ok jobs=1 hits=1 misses=0");
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn unix_socket_shutdown_wakes_a_blocked_accept() {
    let _guard = CHAOS_LOCK.lock().unwrap();
    let dir = std::env::temp_dir().join(format!("dkip-service-socket-unix-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create the socket dir");
    let path = dir.join("serve.sock");
    let listener = UnixListener::bind(&path).expect("bind a unix socket");
    let opts = ServeOptions {
        drain: Duration::from_millis(300),
        ..ServeOptions::default()
    };
    let drain = opts.drain;
    let thread = std::thread::spawn(move || {
        let service = SweepService::new(SweepRunner::serial());
        run_server(&listener, service, &opts).expect("server runs until shutdown");
    });
    let stream = UnixStream::connect(&path).expect("server is accepting");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("socket supports read timeouts");
    let mut client = Client {
        reader: BufReader::new(stream),
    };
    assert_eq!(client.request("ping").0, "ok pong");
    assert_eq!(client.request("shutdown").0, "ok draining");
    let until = Instant::now() + drain + Duration::from_secs(1);
    while !thread.is_finished() {
        assert!(
            Instant::now() < until,
            "the accept loop did not wake within drain + 1 s"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    thread
        .join()
        .expect("the server thread exits cleanly after shutdown");
    let _ = std::fs::remove_dir_all(&dir);
}
