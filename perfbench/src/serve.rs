//! The `serve-mixed` workload, and the socket probe of the service layer
//! that every traced run makes.
//!
//! Each round starts a real `dkip-sim serve` on a unix socket with a fresh
//! store and drives it with closed-loop clients (each sends its next
//! request only after the previous answer arrived). The seeded schedule
//! mixes `job` queries over a fixed pool — first requests simulate and
//! write the store, repeats read it — with steps where every client sends
//! the same new job at once (duplicate in-flight work), per-client `suite`
//! queries and `status` queries.

use std::collections::{BTreeMap, BTreeSet};
use std::io::{self, BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Barrier, Mutex};
use std::time::{Duration, Instant};

use dkip_model::config::SampleConfig;
use dkip_sim::service::{machine_preset, mem_preset, Request, SweepService};
use dkip_sim::{Job, JobResult, ResultStore, SweepRunner};

use crate::layers::{self, LayerInputs};
use crate::spans::Spans;
use crate::util::{
    mean, median, ms, peak_rss_mb, per_position_median, proc_status_field, quantile, Calibration,
    Rng,
};
use crate::{Ctx, Metrics, Report, AMBIENT_ENV};

/// Budget of the pool's SPEC `job` queries: a cold query simulates for
/// tens of milliseconds, a repeat is a store read.
pub const SERVE_BUDGET: u64 = 40_000;
pub const TINY_SERVE_BUDGET: u64 = 2_000;
/// Budget of the per-client `suite` queries.
pub const SUITE_BUDGET: u64 = 3_000;
/// Sampled kernel queries of the pool, checked against exact twins.
pub const SAMPLED_QUERY_RATE: &str = "20000:1000:1000";
/// Requests per client per round.
pub const STEPS: usize = 500;
pub const TINY_STEPS: usize = 24;
/// Steps where every client sends the same new job at once. A fixed count
/// at seeded places in the first quarter of the round, while new jobs are
/// left, so every seed duplicates the same amount of work.
const DUP_STEPS: usize = 8;
/// Per-step probabilities of a client's new job, suite and status
/// queries. The rest repeat one of the client's own earlier jobs, which is
/// always a store hit.
const P_NEW: f64 = 0.14;
const P_SUITE: f64 = 0.03;
const P_STATUS: f64 = 0.02;
/// Untimed rounds of the reference schedule that measure server memory.
const MEMORY_ROUNDS: usize = 9;
/// Server start-ups timed before the rounds, besides each round's own.
const SETUP_STARTS: u64 = 5;
/// Distinct lines the service probe of a traced run sends.
const PROBE_LINES: usize = 8;

/// The request line of `job` when its machine and memory are service
/// presets, or `None`.
pub fn job_line(job: &Job) -> Option<String> {
    let machine = machine_preset(job.machine.name()).ok()?;
    let mem = mem_preset(&job.mem.name).ok()?;
    if machine != job.machine || mem != job.mem {
        return None;
    }
    let sample = job
        .sample
        .map_or(String::new(), |rate| format!(" sample={rate}"));
    Some(format!(
        "job machine={} mem={} bench={} budget={} seed={}{sample}",
        job.machine.name(),
        job.mem.name,
        job.workload.name(),
        job.budget,
        job.seed
    ))
}

/// The pool of distinct `job` lines: exact SPEC points on four machines
/// and three memories with the run's trace seed, exact kernels, and sampled
/// scaled kernels.
pub fn pool(seed: u64, tiny: bool) -> Vec<String> {
    let budget = if tiny {
        TINY_SERVE_BUDGET
    } else {
        SERVE_BUDGET
    };
    let mut lines = Vec::new();
    for machine in ["R10-64", "R10-256", "KILO-1024", "D-KIP-2048"] {
        for mem in ["MEM-100", "MEM-400", "L2-11"] {
            for bench in ["gcc", "mcf", "swim", "mesa", "crafty"] {
                lines.push(format!(
                    "job machine={machine} mem={mem} bench={bench} budget={budget} seed={seed}"
                ));
            }
        }
    }
    for machine in ["R10-64", "KILO-1024", "D-KIP-2048"] {
        for bench in ["riscv:sieve", "riscv:fibrec", "riscv:boxblur"] {
            lines.push(format!(
                "job machine={machine} mem=MEM-400 bench={bench} budget=200000"
            ));
        }
        let (size, budget) = if tiny { (8, 200_000) } else { (24, 2_000_000) };
        lines.push(format!(
            "job machine={machine} mem=MEM-400 bench=riscv:matmul/{size} budget={budget} \
             sample={SAMPLED_QUERY_RATE}"
        ));
    }
    lines
}

fn suite_lines(client: usize) -> Vec<String> {
    let names: &[&str] = if client.is_multiple_of(2) {
        &["kilo", "riscv"]
    } else {
        &["dkip", "baseline"]
    };
    names
        .iter()
        .map(|name| format!("suite {name} budget={SUITE_BUDGET}"))
        .collect()
}

#[derive(Debug, Clone)]
pub struct Step {
    pub line: String,
    /// Every client sends this step's line at once.
    pub sync: bool,
}

/// The seeded per-client request lists of one round.
pub fn schedule(pool: &[String], seed: u64, clients: usize, steps: usize) -> Vec<Vec<Step>> {
    let mut rng = Rng::new(seed);
    let mut fresh: Vec<usize> = (0..pool.len()).collect();
    rng.shuffle(&mut fresh);
    let mut fresh = fresh.into_iter();
    let mut issued: Vec<Vec<usize>> = vec![Vec::new(); clients];
    let mut lists: Vec<Vec<Step>> = vec![Vec::new(); clients];
    let mut dup_steps: Vec<usize> = (0..steps / 4).collect();
    rng.shuffle(&mut dup_steps);
    dup_steps.truncate(DUP_STEPS);
    for step in 0..steps {
        if clients > 1 && dup_steps.contains(&step) {
            if let Some(new) = fresh.next() {
                for c in 0..clients {
                    issued[c].push(new);
                    lists[c].push(Step {
                        line: pool[new].clone(),
                        sync: true,
                    });
                }
                continue;
            }
        }
        for c in 0..clients {
            let r = rng.unit();
            let line = if r < P_NEW || issued[c].is_empty() {
                match fresh.next() {
                    Some(new) => {
                        issued[c].push(new);
                        pool[new].clone()
                    }
                    None => "status".to_owned(),
                }
            } else if r < P_NEW + P_SUITE {
                let suites = suite_lines(c);
                suites[rng.below(suites.len())].clone()
            } else if r < P_NEW + P_SUITE + P_STATUS {
                "status".to_owned()
            } else {
                pool[issued[c][rng.below(issued[c].len())]].clone()
            };
            lists[c].push(Step { line, sync: false });
        }
    }
    lists
}

/// `jobs=`, `hits=` and `misses=` of an `ok` status line.
pub fn counts(status: &str) -> Option<(u64, u64, u64)> {
    let mut fields = BTreeMap::new();
    for word in status.split_whitespace() {
        if let Some((key, value)) = word.split_once('=') {
            fields.insert(key, value.parse::<u64>().ok()?);
        }
    }
    Some((
        *fields.get("jobs")?,
        *fields.get("hits")?,
        *fields.get("misses")?,
    ))
}

/// Sum of a `key=` field over every job of a response body.
pub fn body_sum(body: &str, key: &str) -> f64 {
    body.lines()
        .filter_map(|line| line.strip_prefix(key)?.strip_prefix('='))
        .filter_map(|v| v.parse::<f64>().ok())
        .sum()
}

pub struct Client {
    reader: BufReader<UnixStream>,
}

impl Client {
    pub fn connect(path: &PathBuf) -> io::Result<Client> {
        Ok(Client {
            reader: BufReader::new(UnixStream::connect(path)?),
        })
    }

    /// Sends one line and reads the status line and body up to the `.`
    /// terminator.
    pub fn request(&mut self, line: &str) -> io::Result<(String, String)> {
        let stream = self.reader.get_mut();
        stream.write_all(format!("{line}\n").as_bytes())?;
        stream.flush()?;
        let mut status = String::new();
        if self.reader.read_line(&mut status)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "no status line",
            ));
        }
        let mut body = String::new();
        loop {
            let mut text = String::new();
            if self.reader.read_line(&mut text)? == 0 {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "no terminator",
                ));
            }
            if text == ".\n" {
                break;
            }
            body.push_str(&text);
        }
        Ok((status.trim_end().to_owned(), body))
    }
}

/// A running `dkip-sim serve` with its own socket and store.
pub struct Server {
    child: Child,
    pub socket: PathBuf,
    pub store: PathBuf,
}

impl Server {
    /// Starts the server and waits until it answers `ping`; returns it
    /// with that set-up time.
    pub fn start(ctx: &Ctx, tag: &str) -> io::Result<(Server, Duration)> {
        let bin = ctx
            .dkip_sim
            .as_ref()
            .ok_or_else(|| io::Error::other("the service needs --dkip-sim PATH"))?;
        std::fs::create_dir_all(&ctx.out_dir)?;
        let base = format!("srv-{}-{tag}", std::process::id());
        let socket = ctx.out_dir.join(format!("{base}.sock"));
        let store = ctx.out_dir.join(format!("{base}.store"));
        let _ = std::fs::remove_file(&socket);
        let _ = std::fs::remove_dir_all(&store);
        let mut cmd = Command::new(bin);
        cmd.arg("serve")
            .arg(format!("socket={}", socket.display()))
            .arg(format!("cache={}", store.display()))
            .arg(format!("threads={}", ctx.threads))
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::null());
        for var in AMBIENT_ENV {
            cmd.env_remove(var);
        }
        let start = Instant::now();
        let child = cmd.spawn()?;
        let mut server = Server {
            child,
            socket,
            store,
        };
        loop {
            if let Ok(mut client) = Client::connect(&server.socket) {
                let (status, _) = client.request("ping")?;
                if status == "ok pong" {
                    return Ok((server, start.elapsed()));
                }
                return Err(io::Error::other(format!("ping answered {status:?}")));
            }
            if start.elapsed() > Duration::from_secs(30) || server.child.try_wait()?.is_some() {
                return Err(io::Error::other("the server did not come up"));
            }
            std::thread::sleep(Duration::from_micros(200));
        }
    }

    pub fn pid(&self) -> String {
        self.child.id().to_string()
    }

    /// Sends `shutdown`, waits for the process and removes its files.
    pub fn stop(mut self) -> io::Result<()> {
        let reply = Client::connect(&self.socket).and_then(|mut c| c.request("shutdown"));
        let deadline = Instant::now() + Duration::from_secs(20);
        while self.child.try_wait()?.is_none() {
            if Instant::now() > deadline {
                let _ = self.child.kill();
                break;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        self.child.wait()?;
        let _ = std::fs::remove_file(&self.socket);
        let _ = std::fs::remove_dir_all(&self.store);
        reply.map(|_| ())
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if matches!(self.child.try_wait(), Ok(None)) {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// Polls a process's thread count until stopped; yields the peak.
struct ThreadMonitor {
    stop: Arc<AtomicBool>,
    peak: Arc<AtomicU64>,
    handle: std::thread::JoinHandle<()>,
}

impl ThreadMonitor {
    fn start(pid: String) -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        let peak = Arc::new(AtomicU64::new(0));
        let handle = {
            let (stop, peak) = (Arc::clone(&stop), Arc::clone(&peak));
            std::thread::spawn(move || {
                while !stop.load(Ordering::Acquire) {
                    if let Some(n) = proc_status_field(&pid, "Threads:") {
                        peak.fetch_max(n, Ordering::Relaxed);
                    }
                    std::thread::sleep(Duration::from_millis(2));
                }
            })
        };
        ThreadMonitor { stop, peak, handle }
    }

    fn finish(self) -> u64 {
        self.stop.store(true, Ordering::Release);
        self.handle.join().expect("thread monitor panicked");
        self.peak.load(Ordering::Relaxed)
    }
}

/// One answered request of a round.
#[derive(Debug, Clone)]
pub struct Answer {
    pub line: String,
    pub status: String,
    pub body: String,
    pub latency: Duration,
}

/// What one round measured.
#[derive(Debug, Default)]
pub struct Round {
    pub setup: Duration,
    pub wall: Duration,
    /// Every client's answers in schedule order, client after client.
    pub answers: Vec<Answer>,
    pub threads_peak: u64,
    pub peak_rss_mb: f64,
}

/// Sends every client's list to `server`, each client on its own thread
/// and connection; returns the answers (client after client, in list
/// order) and the wall time from the first send to the last answer.
fn drive(server: &Server, lists: &[Vec<Step>], spans: Option<&Spans>) -> (Vec<Answer>, Duration) {
    let barrier = Barrier::new(lists.len());
    let answers = Mutex::new(vec![Vec::new(); lists.len()]);
    let bounds = Mutex::new(Vec::new());
    std::thread::scope(|scope| {
        for (c, list) in lists.iter().enumerate() {
            let (barrier, answers, bounds) = (&barrier, &answers, &bounds);
            let parent = spans.map(|s| s.open(&format!("client{c}"), None));
            scope.spawn(move || {
                let mut client = Client::connect(&server.socket).ok();
                barrier.wait();
                let start = Instant::now();
                let mut mine = Vec::with_capacity(list.len());
                for step in list {
                    if step.sync {
                        barrier.wait();
                    }
                    let t0 = Instant::now();
                    let reply = client
                        .as_mut()
                        .ok_or_else(|| io::Error::other("not connected"))
                        .and_then(|c| c.request(&step.line));
                    let t1 = Instant::now();
                    if let Some(spans) = spans {
                        spans.record("SweepService::answer/socket", parent, t0, t1, 1);
                    }
                    let (status, body) =
                        reply.unwrap_or_else(|e| (format!("err transport: {e}"), String::new()));
                    mine.push(Answer {
                        line: step.line.clone(),
                        status,
                        body,
                        latency: t1 - t0,
                    });
                }
                let end = Instant::now();
                if let (Some(spans), Some(id)) = (spans, parent) {
                    spans.close(id, mine.len() as u64);
                }
                bounds.lock().expect("bounds poisoned").push((start, end));
                answers.lock().expect("answers poisoned")[c] = mine;
            });
        }
    });
    let bounds = bounds.into_inner().expect("bounds poisoned");
    let start = bounds.iter().map(|b| b.0).min();
    let end = bounds.iter().map(|b| b.1).max();
    let wall = match (start, end) {
        (Some(start), Some(end)) => end - start,
        _ => Duration::ZERO,
    };
    let answers = answers.into_inner().expect("answers poisoned");
    (answers.into_iter().flatten().collect(), wall)
}

/// Runs one round: a fresh server, every client's list, shutdown.
pub fn run_round(
    ctx: &Ctx,
    lists: &[Vec<Step>],
    tag: &str,
    spans: Option<&Spans>,
) -> io::Result<Round> {
    let (server, setup) = Server::start(ctx, tag)?;
    // The thread count is a per-layer figure: polling it would tax the
    // untraced rounds the end-to-end numbers come from.
    let monitor = spans.map(|_| ThreadMonitor::start(server.pid()));
    let (answers, wall) = drive(&server, lists, spans);
    let peak_rss_mb = peak_rss_mb(&server.pid());
    let threads_peak = monitor.map_or(0, ThreadMonitor::finish);
    server.stop()?;
    Ok(Round {
        setup,
        wall,
        answers,
        threads_peak,
        peak_rss_mb,
    })
}

/// The untimed references of the distinct lines a run sent: the body
/// `SweepService::answer` gives for it, the instructions computing it
/// covers, and for sampled lines the (sampled, exact) IPC pair.
pub struct Reference {
    pub body: String,
    pub covered: f64,
    pub ipc_pair: Option<(f64, f64)>,
}

pub fn references(ctx: &Ctx, lines: &BTreeSet<String>) -> BTreeMap<String, Reference> {
    let service = SweepService::new(SweepRunner::new(ctx.threads).without_store());
    let mut out = BTreeMap::new();
    for line in lines {
        if line == "status" {
            continue;
        }
        let body = service.answer(line).body;
        let (covered, ipc_pair) = match Request::parse(line) {
            Ok(Request::Job(job)) if job.sample.is_some() => {
                let sampled = job.run();
                let exact = job.clone().exact().run();
                (
                    sampled.covered as f64,
                    Some((sampled.stats.ipc(), exact.stats.ipc())),
                )
            }
            _ => (body_sum(&body, "committed"), None),
        };
        out.insert(
            line.clone(),
            Reference {
                body,
                covered,
                ipc_pair,
            },
        );
    }
    out
}

/// Counts the answers that fail the output checks: `err` responses
/// (transport errors included), and bodies that differ from the line's
/// reference (which also catches repeats that differ from each other).
pub fn check_answers(rounds: &[&Round], refs: &BTreeMap<String, Reference>) -> u64 {
    let mut failed = 0;
    for round in rounds {
        for answer in &round.answers {
            let ok = answer.status.starts_with("ok")
                && match refs.get(&answer.line) {
                    Some(reference) => reference.body == answer.body,
                    None => answer.line == "status",
                };
            if !ok {
                failed += 1;
            }
        }
    }
    failed
}

/// Store misses beyond the distinct jobs a round asked for: work the
/// service computed twice because two clients missed on it at once.
fn redundant_computes(round: &Round) -> f64 {
    let mut misses = 0;
    let mut distinct = BTreeMap::new();
    for answer in &round.answers {
        if let Some((jobs, _, m)) = counts(&answer.status) {
            misses += m;
            distinct.insert(answer.line.clone(), jobs);
        }
    }
    misses as f64 - distinct.values().sum::<u64>() as f64
}

fn hit_ratio(rounds: &[&Round]) -> f64 {
    let (mut hits, mut total) = (0, 0);
    for answer in rounds.iter().flat_map(|r| r.answers.iter()) {
        if let Some((_, h, m)) = counts(&answer.status) {
            hits += h;
            total += h + m;
        }
    }
    hits as f64 / total.max(1) as f64
}

/// The service layer measured over `lines`: the in-process cold answer
/// time, the socket time of warm answers minus their in-process answer
/// time, and — with every client sending each line at once to a fresh
/// server — the thread peak and the redundant computes.
pub fn probe_service(ctx: &Ctx, lines: &[String], metrics: &mut Metrics) {
    let mut distinct: Vec<String> = Vec::new();
    for line in lines {
        if !distinct.contains(line) && distinct.len() < PROBE_LINES {
            distinct.push(line.clone());
        }
    }
    let clients = ctx.clients;
    let lists: Vec<Vec<Step>> = (0..clients)
        .map(|_| {
            distinct
                .iter()
                .map(|line| Step {
                    line: line.clone(),
                    sync: true,
                })
                .collect()
        })
        .collect();
    let spans = &ctx.spans;
    let run = || -> io::Result<(Round, f64, f64)> {
        let (server, _) = Server::start(ctx, "probe")?;
        let monitor = ThreadMonitor::start(server.pid());
        let (answers, _) = drive(&server, &lists, None);
        let threads_peak = monitor.finish();
        let mut socket_ms = Vec::new();
        let mut client = Client::connect(&server.socket)?;
        for line in &distinct {
            let ((), took) = spans.time("SweepService::answer/socket_warm", None, || {
                let _ = client.request(line);
                ((), 1)
            });
            socket_ms.push(ms(took));
        }
        drop(client);
        let warm = SweepService::new(
            SweepRunner::new(ctx.threads).with_store(ResultStore::open(&server.store)?),
        );
        let mut inproc_ms = Vec::new();
        for line in &distinct {
            let ((), took) = spans.time("SweepService::answer/warm", None, || {
                let _ = warm.answer(line);
                ((), 1)
            });
            inproc_ms.push(ms(took));
        }
        server.stop()?;
        let round = Round {
            answers,
            threads_peak,
            ..Round::default()
        };
        Ok((round, mean(&socket_ms), mean(&inproc_ms)))
    };
    let (round, socket_ms, inproc_ms) = match run() {
        Ok(measured) => measured,
        Err(e) => {
            eprintln!("# service probe failed: {e}");
            (Round::default(), f64::NAN, f64::NAN)
        }
    };
    let cold = SweepService::new(SweepRunner::new(ctx.threads).without_store());
    let mut answer_ms = Vec::new();
    for line in &distinct {
        let ((), took) = spans.time("SweepService::answer", None, || {
            let _ = cold.answer(line);
            ((), 1)
        });
        answer_ms.push(ms(took));
    }
    metrics.push("service.answer_ms", mean(&answer_ms));
    metrics.push("service.transport_ms", socket_ms - inproc_ms);
    metrics.push("service.threads_peak", round.threads_peak as f64);
    metrics.push("service.redundant_computes", redundant_computes(&round));
}

pub fn run(ctx: &Ctx) -> Report {
    let pool = pool(ctx.seed, ctx.tiny);
    let steps = if ctx.tiny { TINY_STEPS } else { STEPS };
    let lists = schedule(&pool, ctx.seed, ctx.clients, steps);
    let mut calib = Calibration::default();
    calib.measure();
    let mut rounds: Vec<Round> = Vec::new();
    let mut setups: Vec<f64> = Vec::new();
    let mut failed = 0;
    let mut traced_round = None;
    let start = Instant::now();
    // Extra start-ups so `setup_s` is a median of several even when few
    // rounds fit the run.
    for i in 0..SETUP_STARTS {
        match Server::start(ctx, &format!("setup{i}")) {
            Ok((server, setup)) => {
                setups.push(setup.as_secs_f64());
                if server.stop().is_err() {
                    failed += 1;
                }
            }
            Err(e) => {
                eprintln!("# server start failed: {e}");
                failed += 1;
            }
        }
    }
    let rounds_wanted = |rounds: &Vec<Round>| {
        if ctx.trace {
            rounds.is_empty()
        } else {
            rounds.len() < 2 || start.elapsed().as_secs_f64() < ctx.seconds
        }
    };
    while rounds_wanted(&rounds) {
        calib.maybe_measure();
        match run_round(ctx, &lists, &format!("r{}", rounds.len()), None) {
            Ok(round) => {
                setups.push(round.setup.as_secs_f64());
                rounds.push(round);
            }
            Err(e) => {
                eprintln!("# round failed: {e}");
                failed += 1;
                break;
            }
        }
    }
    if ctx.trace {
        match run_round(ctx, &lists, "traced", Some(&ctx.spans)) {
            Ok(round) => traced_round = Some(round),
            Err(e) => {
                eprintln!("# traced round failed: {e}");
                failed += 1;
            }
        }
    }
    calib.measure();
    let calib_mips = calib.mips();
    // The server's memory depends on which requests overlap on which of its
    // per-request threads, so it is measured, untimed, on a reference
    // schedule (seed 1) that every run shares rather than on the run's own.
    let mut memory = Vec::new();
    if !ctx.trace {
        let reference = schedule(&self::pool(1, ctx.tiny), 1, ctx.clients, steps);
        for i in 0..MEMORY_ROUNDS {
            match run_round(ctx, &reference, &format!("m{i}"), None) {
                Ok(round) => {
                    memory.push(round.peak_rss_mb);
                    failed += round
                        .answers
                        .iter()
                        .filter(|a| !a.status.starts_with("ok"))
                        .count() as u64;
                }
                Err(e) => {
                    eprintln!("# memory round failed: {e}");
                    failed += 1;
                }
            }
        }
    }

    // Every line sent, plus the pool's sampled queries, whose error against
    // their exact twins is `ipc_err_pct` even when a short schedule skips
    // some.
    let distinct: BTreeSet<String> = lists
        .iter()
        .flatten()
        .map(|step| step.line.clone())
        .chain(
            pool.iter()
                .filter(|line| line.contains(" sample="))
                .cloned(),
        )
        .collect();
    let refs = references(ctx, &distinct);
    let all_rounds: Vec<&Round> = rounds.iter().chain(traced_round.iter()).collect();
    failed += check_answers(&all_rounds, &refs);
    let attempted = SETUP_STARTS
        + all_rounds
            .iter()
            .map(|r| r.answers.len() as u64)
            .sum::<u64>();
    let pairs: Vec<(f64, f64)> = refs.values().filter_map(|r| r.ipc_pair).collect();
    let ipc_err = crate::figs::ipc_err_pct(&pairs);

    let mut metrics = Metrics::default();
    if ctx.trace {
        let traced = traced_round.as_ref();
        let untraced = rounds.first().map_or(f64::NAN, |r| r.wall.as_secs_f64());
        let traced_wall = traced.map_or(f64::NAN, |r| r.wall.as_secs_f64());
        metrics.push(
            "trace_overhead_pct",
            (traced_wall - untraced) / untraced * 100.0,
        );
        metrics.push("host.calib_mips", calib_mips);
        let jobs: Vec<Job> = pool
            .iter()
            .filter_map(|line| match Request::parse(line) {
                Ok(Request::Job(job)) => Some(*job),
                _ => None,
            })
            .collect();
        let runner = SweepRunner::new(ctx.threads).without_store();
        let start = Instant::now();
        let report = runner.run_report(&jobs);
        let wall = start.elapsed().as_secs_f64();
        let busy: f64 = report.results.iter().map(|r| r.wall.as_secs_f64()).sum();
        metrics.push("runner.pool_util", busy / (ctx.threads as f64 * wall));
        let results: Vec<JobResult> = report.results;
        let sample = SampleConfig::parse(SAMPLED_QUERY_RATE).expect("valid sampling rate");
        let inputs = LayerInputs {
            jobs: &jobs,
            results: &results,
            sample,
        };
        layers::measure(ctx, &inputs, &mut metrics);
        probe_service(ctx, &pool, &mut metrics);
        // The service's own store and thread counts under the real mix
        // replace the probe's.
        let observed = &all_rounds;
        metrics.push("store.hit_ratio", hit_ratio(observed));
        metrics.push(
            "service.threads_peak",
            observed.iter().map(|r| r.threads_peak).max().unwrap_or(0) as f64,
        );
        metrics.push(
            "service.redundant_computes",
            mean(
                &observed
                    .iter()
                    .map(|r| redundant_computes(r))
                    .collect::<Vec<_>>(),
            ),
        );
    } else {
        // Every round sends the same schedule, so each request's latency is
        // its median over the rounds (see `per_position_median`).
        let latency_rows: Vec<Vec<f64>> = rounds
            .iter()
            .map(|r| r.answers.iter().map(|a| ms(a.latency)).collect())
            .collect();
        let computed_rows: Vec<Vec<f64>> = rounds
            .iter()
            .map(|r| {
                r.answers
                    .iter()
                    .map(|a| {
                        let computed = a.line.starts_with("job ")
                            && counts(&a.status).is_some_and(|c| c.2 > 0);
                        if computed {
                            ms(a.latency)
                        } else {
                            f64::NAN
                        }
                    })
                    .collect()
            })
            .collect();
        let rows = |rows: &[Vec<f64>]| -> Vec<f64> {
            let rows: Vec<&[f64]> = rows.iter().map(Vec::as_slice).collect();
            per_position_median(&rows)
        };
        let latencies = rows(&latency_rows);
        let computed = rows(&computed_rows);
        let covered: Vec<f64> = rounds
            .iter()
            .map(|r| {
                r.answers
                    .iter()
                    .filter_map(|a| {
                        let (jobs, _, misses) = counts(&a.status)?;
                        let covered = refs.get(&a.line)?.covered;
                        Some(covered * misses as f64 / jobs.max(1) as f64)
                    })
                    .sum()
            })
            .collect();
        let walls: Vec<f64> = rounds.iter().map(|r| r.wall.as_secs_f64()).collect();
        let wall_s = median(&walls);
        let requests = rounds.iter().map(|r| r.answers.len()).max().unwrap_or(0);
        let sim_mips = median(&covered) / wall_s / 1e6;
        metrics.push("setup_s", median(&setups));
        metrics.push("wall_s", wall_s);
        metrics.push("sim_mips", sim_mips);
        metrics.push("calib_speed", sim_mips / calib_mips);
        metrics.push("job_p50_ms", quantile(&computed, 0.5));
        metrics.push("job_p95_ms", quantile(&computed, 0.95));
        metrics.push("req_p50_ms", quantile(&latencies, 0.5));
        metrics.push("req_p99_ms", quantile(&latencies, 0.99));
        metrics.push("req_per_s", requests as f64 / wall_s);
        metrics.push("ipc_err_pct", ipc_err);
        metrics.push("peak_rss_mb", median(&memory));
        eprintln!(
            "# serve-mixed: rounds={} requests={} computed={} walls={walls:?} memory={memory:?}",
            rounds.len(),
            latencies.len(),
            computed.len()
        );
    }
    Report {
        correct: failed == 0,
        attempted,
        failed,
        calib_mips,
        metrics,
    }
}
