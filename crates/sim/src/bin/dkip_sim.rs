//! `dkip-sim` — the sweep service CLI.
//!
//! Three subcommands around the content-addressed result store
//! (`dkip_sim::store`):
//!
//! * `sweep <suite> [budget=N] [threads=N] [cache=DIR] [shard=I/N]
//!   [expect=cold|warm] [retries=N]` — run a golden suite, serving cached
//!   jobs from `cache=DIR` (or `DKIP_CACHE`) and checkpointing per-shard
//!   progress so an interrupted sweep resumes. Failed jobs (an isolated
//!   panic, a metrics-write error) are retried for up to `retries=N`
//!   extra rounds (default 2) with bounded backoff; jobs still failing
//!   are summarised on stderr and the sweep exits 1 — without discarding
//!   the completed work, which is checkpointed and cached. `expect=`
//!   turns the run into an assertion: `cold` fails (exit 1) if anything
//!   hit, `warm` fails if anything recomputed — CI's cache-check contract.
//! * `serve socket=PATH | listen=ADDR [cache=DIR] [threads=N]
//!   [deadline=MS]` — answer sweep/figure queries over a unix or TCP
//!   socket (protocol and limits in `dkip_sim::service`), computing only
//!   cache misses. `deadline=MS` overrides the per-request deadline
//!   (`0` disables it); the server drains gracefully on the `shutdown`
//!   verb.
//! * `query socket=PATH | connect=ADDR <request words…>` — one-shot
//!   client: sends a request line, prints the status line to stderr and
//!   the body to stdout, exits non-zero on an `err` response.
//!
//! Malformed arguments exit 2 with a usage message, like the figure
//! binaries' `threads=` contract.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::process::ExitCode;
use std::sync::Mutex;
use std::time::Duration;

use dkip_sim::runner::{results_to_kv, JobFailure};
use dkip_sim::service::{run_server, ServeOptions, SweepService};
use dkip_sim::store::{ResultStore, ShardSpec, SweepCheckpoint};
use dkip_sim::suites::golden_suite_jobs;
use dkip_sim::{Job, JobResult, SweepRunner};

const USAGE: &str = "usage: dkip-sim <subcommand>
  sweep <suite> [budget=N] [threads=N] [cache=DIR] [shard=I/N] [expect=cold|warm] [retries=N]
      suites: baseline | kilo | dkip | riscv | all
  serve (socket=PATH | listen=ADDR) [cache=DIR] [threads=N] [deadline=MS]
  query (socket=PATH | connect=ADDR) <request words...>
environment: DKIP_CACHE (default store), DKIP_THREADS, DKIP_CACHE_SALT, DKIP_FAULTS";

fn usage_error(message: &str) -> ExitCode {
    eprintln!("error: {message}\n{USAGE}");
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("sweep") => cmd_sweep(&args[1..]),
        Some("serve") => cmd_serve(&args[1..]),
        Some("query") => cmd_query(&args[1..]),
        Some(other) => usage_error(&format!("unknown subcommand {other:?}")),
        None => usage_error("missing subcommand"),
    }
}

/// Shared `threads=` / `cache=` resolution: an explicit `cache=` wins over
/// `DKIP_CACHE`; an explicit `threads=` still picks up the environment
/// store, mirroring the figure binaries.
fn build_runner(threads: Option<usize>, cache: Option<&str>) -> Result<SweepRunner, String> {
    let runner = match threads {
        Some(n) => SweepRunner::new(n).with_store_opt(ResultStore::from_env()),
        None => SweepRunner::from_env(),
    };
    match cache {
        None => Ok(runner),
        Some(dir) => match ResultStore::open(dir) {
            Ok(store) => Ok(runner.with_store(store)),
            Err(e) => Err(format!("invalid cache={dir:?}: cannot open store: {e}")),
        },
    }
}

fn parse_positive(value: &str, what: &str) -> Result<u64, String> {
    value
        .trim()
        .parse::<u64>()
        .ok()
        .filter(|&n| n > 0)
        .ok_or_else(|| format!("invalid {what} {value:?}: expected a positive integer"))
}

fn cmd_sweep(args: &[String]) -> ExitCode {
    let Some(suite) = args.first() else {
        return usage_error("sweep requires a suite name");
    };
    let mut budget = None;
    let mut threads = None;
    let mut cache = None;
    let mut shard = None;
    let mut expect = None;
    let mut retries = 2usize;
    for arg in &args[1..] {
        let Some((key, value)) = arg.split_once('=') else {
            return usage_error(&format!("malformed sweep argument {arg:?}"));
        };
        let outcome = match key {
            "budget" => parse_positive(value, "budget").map(|b| budget = Some(b)),
            "threads" => parse_positive(value, "threads").map(|n| threads = Some(n as usize)),
            "cache" => {
                if value.trim().is_empty() {
                    Err("invalid cache=: expected a directory".to_owned())
                } else {
                    cache = Some(value.trim().to_owned());
                    Ok(())
                }
            }
            "shard" => ShardSpec::parse(value).map(|s| shard = Some(s)),
            "expect" => match value {
                "cold" | "warm" => {
                    expect = Some(value.to_owned());
                    Ok(())
                }
                _ => Err(format!("invalid expect={value:?}: expected cold or warm")),
            },
            "retries" => value
                .trim()
                .parse::<usize>()
                .map_err(|_| format!("invalid retries {value:?}: expected an integer >= 0"))
                .map(|n| retries = n),
            _ => Err(format!("unknown sweep argument {key}=")),
        };
        if let Err(message) = outcome {
            return usage_error(&message);
        }
    }
    let jobs = match golden_suite_jobs(suite, budget) {
        Ok(jobs) => jobs,
        Err(message) => return usage_error(&message),
    };
    let runner = match build_runner(threads, cache.as_deref()) {
        Ok(runner) => runner,
        Err(message) => return usage_error(&message),
    };
    if runner.store().is_none() {
        if expect.is_some() {
            return usage_error("expect= requires cache= or DKIP_CACHE");
        }
        if shard.is_some() {
            return usage_error(
                "shard= requires cache= or DKIP_CACHE (progress lives in the store)",
            );
        }
    }
    // Shard selection keeps the original job indices so every shard's
    // progress file refers to the same global numbering.
    let indices: Vec<usize> = match shard {
        None => (0..jobs.len()).collect(),
        Some(spec) => (0..jobs.len()).filter(|&idx| spec.owns(idx)).collect(),
    };
    let shard_jobs: Vec<_> = indices.iter().map(|&idx| jobs[idx].clone()).collect();
    let checkpoint = match (shard, runner.store()) {
        (Some(spec), Some(store)) => match SweepCheckpoint::open(store, suite, spec) {
            Ok(ckpt) => Some(Mutex::new(ckpt)),
            Err(e) => return usage_error(&format!("cannot open progress file: {e}")),
        },
        _ => None,
    };
    let resumed = checkpoint
        .as_ref()
        .map_or(0, |ckpt| ckpt.lock().expect("checkpoint poisoned").len());
    // Retry loop: round 0 runs everything, later rounds re-run only the
    // jobs that failed, with bounded backoff between rounds. Results land
    // in per-shard-position slots so the final output is in job order no
    // matter which round produced each result; the checkpoint observer
    // only ever sees successes, so failed jobs are never marked done.
    let mut slots: Vec<Option<JobResult>> = vec![None; shard_jobs.len()];
    let mut pending: Vec<usize> = (0..shard_jobs.len()).collect();
    let mut failures: Vec<JobFailure> = Vec::new();
    let (mut hits, mut misses, mut uncacheable, mut reused) = (0u64, 0u64, 0u64, 0u64);
    let mut backoff = Duration::from_millis(200);
    for round in 0..=retries {
        if pending.is_empty() {
            break;
        }
        if round > 0 {
            eprintln!(
                "# sweep {suite}: retrying {} failed job(s), round {round}/{retries} \
                 (backoff {}ms)",
                pending.len(),
                backoff.as_millis()
            );
            std::thread::sleep(backoff);
            backoff = (backoff * 2).min(Duration::from_secs(2));
        }
        let round_jobs: Vec<Job> = pending.iter().map(|&pos| shard_jobs[pos].clone()).collect();
        // Global job indices of this round's jobs, for checkpointing.
        let global: Vec<usize> = pending.iter().map(|&pos| indices[pos]).collect();
        let observe = checkpoint.as_ref().map(|ckpt| {
            let global = &global;
            move |pos: usize, _result: &JobResult| {
                ckpt.lock().expect("checkpoint poisoned").mark(global[pos]);
            }
        });
        let report = runner.run_report_observed(
            &round_jobs,
            observe
                .as_ref()
                .map(|f| f as &(dyn Fn(usize, &JobResult) + Sync)),
        );
        hits += report.hits;
        misses += report.misses;
        uncacheable += report.uncacheable;
        reused += report.reused;
        let failed: std::collections::BTreeSet<usize> =
            report.failures.iter().map(|f| f.index).collect();
        let mut results = report.results.into_iter();
        let mut still_pending = Vec::new();
        for (round_pos, &shard_pos) in pending.iter().enumerate() {
            if failed.contains(&round_pos) {
                still_pending.push(shard_pos);
            } else {
                slots[shard_pos] = Some(results.next().expect("one result per succeeded job"));
            }
        }
        failures = report
            .failures
            .into_iter()
            .map(|mut failure| {
                failure.index = indices[pending[failure.index]];
                failure
            })
            .collect();
        pending = still_pending;
    }
    let results: Vec<JobResult> = slots.into_iter().flatten().collect();
    print!("{}", results_to_kv(&results));
    eprintln!(
        "# sweep {suite}: jobs={} hits={hits} misses={misses} uncacheable={uncacheable} \
         resumed={resumed} failures={} reused={reused}",
        results.len(),
        failures.len(),
    );
    if !failures.is_empty() {
        for failure in &failures {
            eprintln!("# sweep failure: {}", failure.render());
        }
        eprintln!(
            "error: {} job(s) still failing after {retries} retry round(s)",
            failures.len()
        );
        return ExitCode::FAILURE;
    }
    match expect.as_deref() {
        Some("cold") if hits > 0 => {
            eprintln!("error: expected a cold sweep but {hits} jobs hit the cache");
            ExitCode::FAILURE
        }
        Some("warm") if misses > 0 => {
            eprintln!("error: expected a warm sweep but {misses} jobs were recomputed");
            ExitCode::FAILURE
        }
        _ => ExitCode::SUCCESS,
    }
}

fn cmd_serve(args: &[String]) -> ExitCode {
    let mut socket = None;
    let mut listen = None;
    let mut cache = None;
    let mut threads = None;
    let mut opts = ServeOptions::default();
    for arg in args {
        let Some((key, value)) = arg.split_once('=') else {
            return usage_error(&format!("malformed serve argument {arg:?}"));
        };
        match key {
            "socket" => socket = Some(value.to_owned()),
            "listen" => listen = Some(value.to_owned()),
            "cache" => {
                if value.trim().is_empty() {
                    return usage_error("invalid cache=: expected a directory");
                }
                cache = Some(value.trim().to_owned());
            }
            "threads" => match parse_positive(value, "threads") {
                Ok(n) => threads = Some(n as usize),
                Err(message) => return usage_error(&message),
            },
            "deadline" => match value.trim().parse::<u64>() {
                Ok(0) => opts.deadline = None,
                Ok(ms) => opts.deadline = Some(Duration::from_millis(ms)),
                Err(_) => {
                    return usage_error(&format!(
                        "invalid deadline {value:?}: expected milliseconds (0 disables)"
                    ))
                }
            },
            _ => return usage_error(&format!("unknown serve argument {key}=")),
        }
    }
    let runner = match build_runner(threads, cache.as_deref()) {
        Ok(runner) => runner,
        Err(message) => return usage_error(&message),
    };
    let service = SweepService::new(runner);
    let served = match (socket, listen) {
        (Some(path), None) => {
            let _ = std::fs::remove_file(&path);
            let listener = match UnixListener::bind(&path) {
                Ok(listener) => listener,
                Err(e) => return usage_error(&format!("cannot bind socket={path:?}: {e}")),
            };
            eprintln!("# dkip-sim serve: listening on unix socket {path}");
            let served = run_server(&listener, service, &opts);
            let _ = std::fs::remove_file(&path);
            served
        }
        (None, Some(addr)) => {
            let listener = match TcpListener::bind(&addr) {
                Ok(listener) => listener,
                Err(e) => return usage_error(&format!("cannot bind listen={addr:?}: {e}")),
            };
            eprintln!(
                "# dkip-sim serve: listening on {}",
                listener.local_addr().map_or(addr, |a| a.to_string())
            );
            run_server(&listener, service, &opts)
        }
        _ => return usage_error("serve requires exactly one of socket=PATH or listen=ADDR"),
    };
    match served {
        Ok(()) => {
            eprintln!("# dkip-sim serve: drained, shutting down");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: server failed: {e}");
            ExitCode::FAILURE
        }
    }
}

fn cmd_query(args: &[String]) -> ExitCode {
    let Some(target) = args.first() else {
        return usage_error("query requires socket=PATH or connect=ADDR");
    };
    let request = args[1..].join(" ");
    if request.trim().is_empty() {
        return usage_error("query requires a request (e.g. suite kilo budget=1000)");
    }
    let stream: Box<dyn ReadWrite> = match target.split_once('=') {
        Some(("socket", path)) => match UnixStream::connect(path) {
            Ok(stream) => Box::new(stream),
            Err(e) => return usage_error(&format!("cannot connect to socket={path:?}: {e}")),
        },
        Some(("connect", addr)) => match TcpStream::connect(addr) {
            Ok(stream) => Box::new(stream),
            Err(e) => return usage_error(&format!("cannot connect to {addr:?}: {e}")),
        },
        _ => return usage_error(&format!("malformed query target {target:?}")),
    };
    run_query(stream, &request)
}

trait ReadWrite: Read + Write {}
impl<T: Read + Write> ReadWrite for T {}

/// Sends one request, streams the response: status to stderr, body to
/// stdout, exit code from the status verb.
fn run_query(mut stream: Box<dyn ReadWrite>, request: &str) -> ExitCode {
    if let Err(e) = stream
        .write_all(format!("{request}\n").as_bytes())
        .and_then(|()| stream.flush())
    {
        eprintln!("error: cannot send request: {e}");
        return ExitCode::FAILURE;
    }
    let mut reader = BufReader::new(stream);
    let mut status = String::new();
    if reader.read_line(&mut status).is_err() || status.is_empty() {
        eprintln!("error: connection closed before a status line");
        return ExitCode::FAILURE;
    }
    let status = status.trim_end();
    eprintln!("{status}");
    loop {
        let mut line = String::new();
        match reader.read_line(&mut line) {
            Ok(0) | Err(_) => {
                eprintln!("error: connection closed before the '.' terminator");
                return ExitCode::FAILURE;
            }
            Ok(_) => {}
        }
        if line.trim_end() == "." {
            break;
        }
        print!("{line}");
    }
    if status.starts_with("ok") {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
