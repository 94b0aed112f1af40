//! Intra-run telemetry: interval time-series metrics and per-µop pipeline
//! tracing, zero-cost when disabled.
//!
//! Every result the simulator reports elsewhere is an end-of-run aggregate
//! ([`crate::SimStats::to_kv`]). This module adds the *intra-run* view: a
//! [`Telemetry`] probe sink the cores drive from inside their cycle loops,
//! with two independent backends.
//!
//! * **Interval metrics** — every `interval` committed instructions the
//!   core hands the sink a [`MetricsFrame`] snapshot and the sink emits one
//!   row of interval IPC, structure occupancies (ROB, issue queues, LSQ,
//!   and the D-KIP's LLIB/LLBV), interval L1/L2 miss rates and branch
//!   mispredict rate, plus the cumulative event-driven-clock counters
//!   (`ticks_executed`, `cycles_skipped`, `skipped_fraction`) that
//!   [`crate::SimStats::to_kv`] deliberately excludes. Rows serialise to
//!   CSV (default) or JSON-lines (`.json`/`.jsonl` paths), with fixed
//!   float precision, so repeated runs produce byte-identical files.
//!   Configured with [`MetricsConfig`] (`metrics=<path>:<interval>` on the
//!   figure binaries, or the [`METRICS_ENV`] environment variable).
//! * **Pipeline trace** — per-µop stage timestamps (fetch, dispatch,
//!   issue, complete, commit, plus the D-KIP's CP→MP handoff) emitted in
//!   the gem5 O3PipeView text format, which the
//!   [Konata](https://github.com/shioyadan/Konata) pipeline viewer loads
//!   directly. Configured with [`TraceConfig`] (`trace=<path>[:<ops>]`);
//!   the `ops` window budget bounds how many µops are recorded so traces
//!   stay small on long runs.
//!
//! # Probe contract
//!
//! The sink is threaded through the cores as an `Option<&mut Telemetry>`
//! *run parameter* — never a core field, so core snapshots (`Clone`) and
//! the sampled-simulation checkpoints are unaffected. When the option is
//! `None` the hot path pays one predictable branch per probe site and
//! performs no allocation; when it is `Some` the probes only read state the
//! tick has already produced. Either way the simulation itself must stay
//! **bit-identical**: golden snapshots, skip-equivalence, sampling and the
//! differential-fuzz oracle all hold with probes attached or detached
//! (`tests/telemetry_invariance.rs` pins this).
//!
//! Any new pipeline stage must feed the sink at the same point where it
//! feeds the event-driven clock's per-tick progress flag: if a stage can
//! make progress, that progress must be visible to both the skip logic and
//! the trace.
//!
//! Output is buffered in memory and written by [`Telemetry::write_files`]
//! after the run, keeping file I/O off the simulated path entirely.

use crate::collections::FastHashMap;
use crate::error::ConfigError;
use crate::instr::MicroOp;
use crate::op::OpClass;
use std::fmt::{self, Write as _};
use std::path::PathBuf;

/// Environment variable carrying a [`MetricsConfig`] (`<path>:<interval>`)
/// picked up by every `dkip_sim::Job`. Unset or empty means no interval
/// metrics. See [`MetricsConfig::from_env`].
pub const METRICS_ENV: &str = "DKIP_METRICS";

/// Default per-trace µop window budget when `trace=<path>` names no
/// explicit `:<ops>` bound.
pub const DEFAULT_TRACE_OPS: u64 = 100_000;

/// A per-µop pipeline stage reported through [`Telemetry::trace_stage`].
///
/// Fetch and commit have dedicated entry points
/// ([`Telemetry::trace_fetch`], [`Telemetry::trace_commit`]) because fetch
/// opens a µop record (it needs the [`MicroOp`] itself) and commit closes
/// and emits it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// The µop entered the ROB (rename/dispatch).
    Dispatch,
    /// The µop was selected for execution (Cache Processor or Memory
    /// Processor issue — whichever happens first wins).
    Issue,
    /// The µop finished executing (wrote back).
    Complete,
    /// D-KIP only: the Analyze stage classified the µop as low execution
    /// locality and handed it to the memory-side engines (LLIB insertion,
    /// or an in-flight long-latency load adopted by the Address
    /// Processor).
    MpHandoff,
}

/// Configuration of the interval-metrics backend: emit one row every
/// `interval` committed instructions to `path`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetricsConfig {
    /// Output file. A `.json`/`.jsonl` extension selects JSON-lines;
    /// anything else is CSV.
    pub path: String,
    /// Committed-instruction distance between rows (≥ 1).
    pub interval: u64,
}

impl MetricsConfig {
    /// Parses the `<path>:<interval>` knob syntax used by `DKIP_METRICS`
    /// and the figure binaries' `metrics=` argument.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] on a missing `:<interval>` suffix, an
    /// empty path, or a non-positive interval.
    pub fn parse(text: &str) -> Result<Self, ConfigError> {
        let (path, interval) = text.rsplit_once(':').ok_or_else(|| {
            ConfigError::new(
                "metrics",
                "expected <path>:<interval> (interval in instructions)",
            )
        })?;
        if path.trim().is_empty() {
            return Err(ConfigError::new(
                "metrics.path",
                "expected a non-empty path",
            ));
        }
        let interval = interval
            .trim()
            .parse::<u64>()
            .map_err(|_| ConfigError::new("metrics.interval", "expected a positive integer"))?;
        if interval == 0 {
            return Err(ConfigError::new(
                "metrics.interval",
                "the row interval must be at least one instruction",
            ));
        }
        Ok(MetricsConfig {
            path: path.to_owned(),
            interval,
        })
    }

    /// Reads [`METRICS_ENV`] (`DKIP_METRICS`). Unset or empty means no
    /// interval metrics (`None`).
    ///
    /// # Panics
    ///
    /// Panics on a malformed value — a silently ignored typo would quietly
    /// produce a run with no metrics file where one was asked for, exactly
    /// the failure mode `DKIP_SAMPLE` and `DKIP_THREADS` refuse.
    #[must_use]
    pub fn from_env() -> Option<Self> {
        match std::env::var(METRICS_ENV) {
            Ok(v) if !v.trim().is_empty() => {
                Some(Self::parse(&v).unwrap_or_else(|e| panic!("invalid {METRICS_ENV}={v:?}: {e}")))
            }
            _ => None,
        }
    }

    /// Derives a per-job variant of this configuration by inserting a
    /// sanitised `tag` before the path's extension, so every job of a
    /// multi-job sweep writes its own collision-free file:
    /// `runs/m.csv` + tag `dkip gcc` → `runs/m.dkip_gcc.csv`.
    #[must_use]
    pub fn for_job(&self, tag: &str) -> MetricsConfig {
        let sanitized: String = tag
            .chars()
            .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
            .collect();
        let dot = self
            .path
            .rfind('.')
            .filter(|&i| i > self.path.rfind('/').map_or(0, |s| s + 1));
        let path = match dot {
            Some(i) => format!("{}.{}{}", &self.path[..i], sanitized, &self.path[i..]),
            None => format!("{}.{}", self.path, sanitized),
        };
        MetricsConfig {
            path,
            interval: self.interval,
        }
    }
}

impl fmt::Display for MetricsConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.path, self.interval)
    }
}

/// Configuration of the pipeline-trace backend: record the first `ops`
/// µops to `path` in O3PipeView format.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceConfig {
    /// Output file (O3PipeView text, loadable by Konata).
    pub path: String,
    /// Window budget: number of µops recorded from the start of the run.
    pub ops: u64,
}

impl TraceConfig {
    /// Parses the `<path>[:<ops>]` knob syntax of the `trace=` argument.
    /// A trailing `:<digits>` is the window budget; without one the whole
    /// string is the path and the budget defaults to
    /// [`DEFAULT_TRACE_OPS`].
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] on an empty path or an explicit zero
    /// budget (a window of zero µops would silently produce an empty
    /// trace).
    pub fn parse(text: &str) -> Result<Self, ConfigError> {
        if text.trim().is_empty() {
            return Err(ConfigError::new("trace.path", "expected a non-empty path"));
        }
        if let Some((path, ops)) = text.rsplit_once(':') {
            if let Ok(n) = ops.trim().parse::<u64>() {
                if n == 0 {
                    return Err(ConfigError::new(
                        "trace.ops",
                        "the window budget must be at least one µop",
                    ));
                }
                if path.trim().is_empty() {
                    return Err(ConfigError::new("trace.path", "expected a non-empty path"));
                }
                return Ok(TraceConfig {
                    path: path.to_owned(),
                    ops: n,
                });
            }
        }
        Ok(TraceConfig {
            path: text.to_owned(),
            ops: DEFAULT_TRACE_OPS,
        })
    }
}

impl fmt::Display for TraceConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.path, self.ops)
    }
}

/// A point-in-time snapshot a core hands to [`Telemetry::record_metrics`]
/// at an interval boundary. Occupancies are instantaneous; every other
/// counter is cumulative since the start of the run (the sink differences
/// consecutive frames to produce interval rates).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MetricsFrame {
    /// Current cycle.
    pub cycle: u64,
    /// Instructions committed so far.
    pub committed: u64,
    /// ROB / Aging-ROB occupancy.
    pub rob: u64,
    /// Issue-queue occupancy (int + fp; Cache Processor queues on D-KIP).
    pub iq: u64,
    /// Load/store-queue occupancy.
    pub lsq: u64,
    /// Low-locality buffer occupancy: the D-KIP's LLIBs (int + fp), the
    /// KILO baseline's slow lane; 0 on the plain baseline.
    pub llib: u64,
    /// D-KIP LLBV: architectural registers currently flagged long-latency.
    pub llbv: u64,
    /// Cumulative L1 hits.
    pub l1_hits: u64,
    /// Cumulative L2 hits.
    pub l2_hits: u64,
    /// Cumulative main-memory accesses.
    pub mem_accesses: u64,
    /// Cumulative conditional branches resolved.
    pub cond_branches: u64,
    /// Cumulative conditional-branch mispredicts.
    pub branch_mispredicts: u64,
    /// Cumulative `tick()` calls actually executed (event-driven clock).
    pub ticks_executed: u64,
    /// Cumulative quiesced cycles fast-forwarded (event-driven clock).
    pub cycles_skipped: u64,
}

/// Columns of a metrics row, in emission order. Shared by the CSV header,
/// the JSON-lines keys and the format validator in `trace_check`.
pub const METRICS_COLUMNS: [&str; 15] = [
    "interval",
    "cycle",
    "committed",
    "ipc",
    "rob",
    "iq",
    "lsq",
    "llib",
    "llbv",
    "l1_miss_rate",
    "l2_miss_rate",
    "mispredict_rate",
    "ticks_executed",
    "cycles_skipped",
    "skipped_fraction",
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum MetricsFormat {
    Csv,
    Jsonl,
}

#[derive(Debug)]
struct MetricsState {
    interval: u64,
    path: Option<PathBuf>,
    format: MetricsFormat,
    /// Next committed-instruction boundary that emits a row.
    next_at: u64,
    rows: u64,
    last: MetricsFrame,
    out: String,
}

#[derive(Debug, Clone, Copy)]
struct TraceRecord {
    pc: u64,
    class: OpClass,
    mem_addr: Option<u64>,
    fetch: u64,
    dispatch: Option<u64>,
    issue: Option<u64>,
    complete: Option<u64>,
    handoff: Option<u64>,
}

#[derive(Debug)]
struct TraceState {
    path: Option<PathBuf>,
    /// µops still allowed to open a record (window budget countdown).
    remaining: u64,
    records: FastHashMap<u64, TraceRecord>,
    retired: u64,
    out: String,
}

/// The probe sink. Construct one with [`Telemetry::from_configs`] (file
/// output) or [`Telemetry::buffered`] (in-memory only, for tests), pass it
/// to [`crate::drive`], then collect output via
/// [`Telemetry::write_files`] / [`Telemetry::metrics_text`] /
/// [`Telemetry::trace_text`].
#[derive(Debug)]
pub struct Telemetry {
    metrics: Option<MetricsState>,
    trace: Option<TraceState>,
}

impl Telemetry {
    /// Builds a sink with the given backends; `None` leaves a backend
    /// disabled.
    #[must_use]
    pub fn from_configs(metrics: Option<&MetricsConfig>, trace: Option<&TraceConfig>) -> Self {
        Telemetry {
            metrics: metrics.map(|m| MetricsState {
                interval: m.interval,
                path: Some(PathBuf::from(&m.path)),
                format: if m.path.ends_with(".jsonl") || m.path.ends_with(".json") {
                    MetricsFormat::Jsonl
                } else {
                    MetricsFormat::Csv
                },
                next_at: m.interval,
                rows: 0,
                last: MetricsFrame::default(),
                out: String::new(),
            }),
            trace: trace.map(|t| TraceState {
                path: Some(PathBuf::from(&t.path)),
                remaining: t.ops,
                records: FastHashMap::default(),
                retired: 0,
                out: String::new(),
            }),
        }
    }

    /// Builds an in-memory sink (no file paths): CSV metrics every
    /// `metrics_interval` instructions and/or a trace of `trace_ops` µops.
    /// Used by tests and the fuzz oracle's probed pass.
    #[must_use]
    pub fn buffered(metrics_interval: Option<u64>, trace_ops: Option<u64>) -> Self {
        Telemetry {
            metrics: metrics_interval.map(|interval| MetricsState {
                interval: interval.max(1),
                path: None,
                format: MetricsFormat::Csv,
                next_at: interval.max(1),
                rows: 0,
                last: MetricsFrame::default(),
                out: String::new(),
            }),
            trace: trace_ops.map(|ops| TraceState {
                path: None,
                remaining: ops,
                records: FastHashMap::default(),
                retired: 0,
                out: String::new(),
            }),
        }
    }

    /// Whether the metrics backend is active.
    #[must_use]
    pub fn metrics_enabled(&self) -> bool {
        self.metrics.is_some()
    }

    /// Whether the trace backend is active.
    #[must_use]
    pub fn trace_enabled(&self) -> bool {
        self.trace.is_some()
    }

    /// Whether `committed` has reached the next metrics-row boundary.
    /// Called once per executed tick; must stay branch-cheap.
    #[inline]
    #[must_use]
    pub fn metrics_due(&self, committed: u64) -> bool {
        match &self.metrics {
            Some(m) => committed >= m.next_at,
            None => false,
        }
    }

    /// Emits one metrics row from `frame`, differencing against the
    /// previous frame for the interval rates, and advances the boundary
    /// past `frame.committed` (a multi-commit tick crossing several
    /// boundaries emits a single row — the row carries the actual cycle
    /// and committed counts, so consumers see the true spacing).
    pub fn record_metrics(&mut self, frame: &MetricsFrame) {
        let Some(m) = &mut self.metrics else { return };
        let d_cycle = frame.cycle - m.last.cycle;
        let d_committed = frame.committed - m.last.committed;
        let d_l1_ref = (frame.l1_hits + frame.l2_hits + frame.mem_accesses)
            - (m.last.l1_hits + m.last.l2_hits + m.last.mem_accesses);
        let d_l1_miss =
            (frame.l2_hits + frame.mem_accesses) - (m.last.l2_hits + m.last.mem_accesses);
        let d_l2_miss = frame.mem_accesses - m.last.mem_accesses;
        let d_branches = frame.cond_branches - m.last.cond_branches;
        let d_mispredicts = frame.branch_mispredicts - m.last.branch_mispredicts;
        let ipc = ratio(d_committed, d_cycle);
        let l1_miss_rate = ratio(d_l1_miss, d_l1_ref);
        let l2_miss_rate = ratio(d_l2_miss, d_l1_miss);
        let mispredict_rate = ratio(d_mispredicts, d_branches);
        let skipped_fraction = ratio(frame.cycles_skipped, frame.cycle);
        m.rows += 1;
        match m.format {
            MetricsFormat::Csv => {
                if m.out.is_empty() {
                    m.out.push_str(&METRICS_COLUMNS.join(","));
                    m.out.push('\n');
                }
                let _ = writeln!(
                    m.out,
                    "{},{},{},{ipc:.6},{},{},{},{},{},{l1_miss_rate:.6},{l2_miss_rate:.6},\
                     {mispredict_rate:.6},{},{},{skipped_fraction:.6}",
                    m.rows,
                    frame.cycle,
                    frame.committed,
                    frame.rob,
                    frame.iq,
                    frame.lsq,
                    frame.llib,
                    frame.llbv,
                    frame.ticks_executed,
                    frame.cycles_skipped,
                );
            }
            MetricsFormat::Jsonl => {
                let _ = writeln!(
                    m.out,
                    "{{\"interval\": {}, \"cycle\": {}, \"committed\": {}, \"ipc\": {ipc:.6}, \
                     \"rob\": {}, \"iq\": {}, \"lsq\": {}, \"llib\": {}, \"llbv\": {}, \
                     \"l1_miss_rate\": {l1_miss_rate:.6}, \"l2_miss_rate\": {l2_miss_rate:.6}, \
                     \"mispredict_rate\": {mispredict_rate:.6}, \"ticks_executed\": {}, \
                     \"cycles_skipped\": {}, \"skipped_fraction\": {skipped_fraction:.6}}}",
                    m.rows,
                    frame.cycle,
                    frame.committed,
                    frame.rob,
                    frame.iq,
                    frame.lsq,
                    frame.llib,
                    frame.llbv,
                    frame.ticks_executed,
                    frame.cycles_skipped,
                );
            }
        }
        m.next_at = (frame.committed / m.interval + 1) * m.interval;
        m.last = *frame;
    }

    /// Opens a trace record for a fetched µop, charging the window budget.
    /// Past the budget (or with tracing off) this is a no-op.
    #[inline]
    pub fn trace_fetch(&mut self, op: &MicroOp, cycle: u64) {
        let Some(t) = &mut self.trace else { return };
        if t.remaining == 0 {
            return;
        }
        t.remaining -= 1;
        t.records.insert(
            op.seq,
            TraceRecord {
                pc: op.pc,
                class: op.class,
                mem_addr: op.mem_addr,
                fetch: cycle,
                dispatch: None,
                issue: None,
                complete: None,
                handoff: None,
            },
        );
    }

    /// Stamps `stage` for a traced µop at `cycle`. The first stamp per
    /// stage wins (a long-latency load issues once in the Cache Processor
    /// even though the Address Processor finishes it). Untracked µops —
    /// tracing off or past the window budget — are no-ops.
    #[inline]
    pub fn trace_stage(&mut self, seq: u64, stage: Stage, cycle: u64) {
        let Some(t) = &mut self.trace else { return };
        let Some(r) = t.records.get_mut(&seq) else {
            return;
        };
        let slot = match stage {
            Stage::Dispatch => &mut r.dispatch,
            Stage::Issue => &mut r.issue,
            Stage::Complete => &mut r.complete,
            Stage::MpHandoff => &mut r.handoff,
        };
        if slot.is_none() {
            *slot = Some(cycle);
        }
    }

    /// Closes a traced µop at commit and emits its O3PipeView block.
    ///
    /// Missing intermediate stamps inherit the previous stage's timestamp
    /// and every stage is clamped non-decreasing, so emitted blocks are
    /// monotone by construction — `trace_check` re-validates this from the
    /// file.
    #[inline]
    pub fn trace_commit(&mut self, seq: u64, cycle: u64) {
        let Some(t) = &mut self.trace else { return };
        let Some(r) = t.records.remove(&seq) else {
            return;
        };
        let dispatch = r.dispatch.unwrap_or(r.fetch).max(r.fetch);
        let issue = r.issue.unwrap_or(dispatch).max(dispatch);
        let complete = r.complete.unwrap_or(issue).max(issue);
        let retire = cycle.max(complete);
        let _ = write!(
            t.out,
            "O3PipeView:fetch:{}:0x{:016x}:0:{}:{:?}",
            r.fetch, r.pc, seq, r.class
        );
        if let Some(addr) = r.mem_addr {
            let _ = write!(t.out, " @0x{addr:x}");
        }
        if let Some(h) = r.handoff {
            let _ = write!(t.out, " mp@{h}");
        }
        let _ = writeln!(t.out);
        let _ = writeln!(t.out, "O3PipeView:decode:{dispatch}");
        let _ = writeln!(t.out, "O3PipeView:rename:{dispatch}");
        let _ = writeln!(t.out, "O3PipeView:dispatch:{dispatch}");
        let _ = writeln!(t.out, "O3PipeView:issue:{issue}");
        let _ = writeln!(t.out, "O3PipeView:complete:{complete}");
        let _ = writeln!(t.out, "O3PipeView:retire:{retire}:store:0");
        t.retired += 1;
    }

    /// Number of metrics rows emitted so far.
    #[must_use]
    pub fn metrics_rows(&self) -> u64 {
        self.metrics.as_ref().map_or(0, |m| m.rows)
    }

    /// Number of µop blocks emitted (committed traced µops).
    #[must_use]
    pub fn trace_retired(&self) -> u64 {
        self.trace.as_ref().map_or(0, |t| t.retired)
    }

    /// Whether the trace window budget was exhausted before the run ended.
    #[must_use]
    pub fn trace_budget_exhausted(&self) -> bool {
        self.trace.as_ref().is_some_and(|t| t.remaining == 0)
    }

    /// The buffered metrics output (CSV or JSON-lines).
    #[must_use]
    pub fn metrics_text(&self) -> &str {
        self.metrics.as_ref().map_or("", |m| m.out.as_str())
    }

    /// The buffered O3PipeView trace output.
    #[must_use]
    pub fn trace_text(&self) -> &str {
        self.trace.as_ref().map_or("", |t| t.out.as_str())
    }

    /// Writes each backend's buffered output to its configured path (a
    /// no-op for backends without one, e.g. [`Telemetry::buffered`]).
    ///
    /// # Errors
    ///
    /// Propagates the I/O error of a failed write.
    pub fn write_files(&self) -> std::io::Result<()> {
        if let Some(m) = &self.metrics {
            if let Some(path) = &m.path {
                std::fs::write(path, &m.out)?;
            }
        }
        if let Some(t) = &self.trace {
            if let Some(path) = &t.path {
                std::fs::write(path, &t.out)?;
            }
        }
        Ok(())
    }
}

/// `num / den` as a float, 0 when the denominator is 0 (an interval with
/// no branches has no meaningful mispredict rate; report a stable 0).
fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metrics_config_parses_strictly() {
        let cfg = MetricsConfig::parse("out/m.csv:500").unwrap();
        assert_eq!(cfg.path, "out/m.csv");
        assert_eq!(cfg.interval, 500);
        assert_eq!(cfg.to_string(), "out/m.csv:500");
        assert!(MetricsConfig::parse("out.csv").is_err(), "missing interval");
        assert!(MetricsConfig::parse(":500").is_err(), "empty path");
        assert!(MetricsConfig::parse("out.csv:0").is_err(), "zero interval");
        assert!(MetricsConfig::parse("out.csv:fast").is_err());
        assert!(MetricsConfig::parse("").is_err());
    }

    #[test]
    fn trace_config_parses_path_and_optional_budget() {
        let t = TraceConfig::parse("run.trace").unwrap();
        assert_eq!(t.path, "run.trace");
        assert_eq!(t.ops, DEFAULT_TRACE_OPS);
        let t = TraceConfig::parse("run.trace:2000").unwrap();
        assert_eq!(t.path, "run.trace");
        assert_eq!(t.ops, 2000);
        assert!(TraceConfig::parse("").is_err());
        assert!(TraceConfig::parse("run.trace:0").is_err(), "zero budget");
        assert!(TraceConfig::parse(":7").is_err(), "empty path");
        // A non-numeric suffix is part of the path, not a malformed budget.
        let t = TraceConfig::parse("dir:a/run").unwrap();
        assert_eq!(t.path, "dir:a/run");
    }

    #[test]
    fn per_job_paths_keep_the_extension_and_sanitise_the_tag() {
        let cfg = MetricsConfig::parse("runs/m.csv:100").unwrap();
        assert_eq!(cfg.for_job("dkip gcc/8").path, "runs/m.dkip_gcc_8.csv");
        let bare = MetricsConfig::parse("metrics:100").unwrap();
        assert_eq!(bare.for_job("a").path, "metrics.a");
        // A dot inside a directory name is not an extension.
        let dir = MetricsConfig::parse("a.b/metrics:100").unwrap();
        assert_eq!(dir.for_job("x").path, "a.b/metrics.x");
    }

    fn frame(cycle: u64, committed: u64) -> MetricsFrame {
        MetricsFrame {
            cycle,
            committed,
            rob: 3,
            iq: 2,
            lsq: 1,
            llib: 0,
            llbv: 0,
            l1_hits: committed / 2,
            l2_hits: committed / 4,
            mem_accesses: committed / 8,
            cond_branches: committed / 5,
            branch_mispredicts: committed / 50,
            ticks_executed: cycle,
            cycles_skipped: 0,
        }
    }

    #[test]
    fn metrics_rows_are_deterministic_and_interval_based() {
        let run = || {
            let mut t = Telemetry::buffered(Some(100), None);
            for committed in [100, 200, 300] {
                assert!(t.metrics_due(committed));
                t.record_metrics(&frame(committed * 3, committed));
            }
            assert!(!t.metrics_due(399));
            t.metrics_text().to_owned()
        };
        let a = run();
        assert_eq!(a, run(), "byte-identical across repeated runs");
        assert_eq!(a.lines().count(), 4, "header + three rows");
        assert!(a.starts_with("interval,cycle,committed,ipc,"));
        let row: Vec<&str> = a.lines().nth(1).unwrap().split(',').collect();
        assert_eq!(row.len(), METRICS_COLUMNS.len());
        assert_eq!(row[1], "300");
        assert_eq!(row[2], "100");
        assert_eq!(row[3], "0.333333", "interval IPC with fixed precision");
    }

    #[test]
    fn a_boundary_overshoot_advances_past_the_committed_count() {
        let mut t = Telemetry::buffered(Some(100), None);
        assert!(t.metrics_due(250), "several boundaries crossed at once");
        t.record_metrics(&frame(500, 250));
        assert!(!t.metrics_due(299));
        assert!(t.metrics_due(300), "next boundary is the next multiple");
    }

    fn op(seq: u64) -> MicroOp {
        MicroOp::new(seq, 0x40_0000 + seq * 4, OpClass::Nop)
    }

    #[test]
    fn trace_blocks_are_monotone_o3pipeview() {
        let mut t = Telemetry::buffered(None, Some(10));
        t.trace_fetch(&op(7), 5);
        t.trace_stage(7, Stage::Dispatch, 6);
        t.trace_stage(7, Stage::Issue, 8);
        t.trace_stage(7, Stage::Issue, 99); // later duplicate must lose
        t.trace_stage(7, Stage::Complete, 9);
        t.trace_commit(7, 12);
        let text = t.trace_text();
        assert!(text.starts_with("O3PipeView:fetch:5:0x"));
        assert!(text.contains(":0:7:Nop\n"), "seq and disasm label: {text}");
        assert!(text.contains("O3PipeView:dispatch:6\n"));
        assert!(text.contains("O3PipeView:issue:8\n"));
        assert!(text.contains("O3PipeView:complete:9\n"));
        assert!(text.contains("O3PipeView:retire:12:store:0\n"));
        assert_eq!(t.trace_retired(), 1);
    }

    #[test]
    fn missing_stage_stamps_inherit_the_previous_stage() {
        let mut t = Telemetry::buffered(None, Some(10));
        t.trace_fetch(&op(1), 3);
        t.trace_commit(1, 10);
        let text = t.trace_text();
        assert!(text.contains("O3PipeView:dispatch:3\n"));
        assert!(text.contains("O3PipeView:issue:3\n"));
        assert!(text.contains("O3PipeView:complete:3\n"));
        assert!(text.contains("O3PipeView:retire:10:store:0\n"));
    }

    #[test]
    fn the_window_budget_caps_recorded_ops() {
        let mut t = Telemetry::buffered(None, Some(2));
        for seq in 0..5 {
            t.trace_fetch(&op(seq), seq);
            t.trace_commit(seq, seq + 10);
        }
        assert_eq!(t.trace_retired(), 2);
        assert!(t.trace_budget_exhausted());
    }

    #[test]
    fn handoff_is_recorded_in_the_fetch_label() {
        let mut t = Telemetry::buffered(None, Some(4));
        t.trace_fetch(&op(3), 1);
        t.trace_stage(3, Stage::Dispatch, 2);
        t.trace_stage(3, Stage::MpHandoff, 40);
        t.trace_stage(3, Stage::Issue, 45);
        t.trace_stage(3, Stage::Complete, 50);
        t.trace_commit(3, 50);
        assert!(t.trace_text().contains(" mp@40\n"), "{}", t.trace_text());
    }

    #[test]
    fn disabled_backends_are_inert() {
        let mut t = Telemetry::buffered(None, None);
        assert!(!t.metrics_enabled() && !t.trace_enabled());
        assert!(!t.metrics_due(1_000_000));
        t.trace_fetch(&op(0), 1);
        t.trace_commit(0, 2);
        assert_eq!(t.trace_text(), "");
        assert_eq!(t.metrics_text(), "");
        assert!(t.write_files().is_ok(), "no paths, nothing to write");
    }
}
