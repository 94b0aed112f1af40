//! Counters, histograms and aggregate simulation statistics.

use std::fmt;

/// A bucketed histogram of non-negative integer samples.
///
/// Used to reproduce Figure 3 of the paper (the distribution of the
/// decode→issue distance) and to track queue-occupancy distributions.
///
/// # Example
///
/// ```
/// use dkip_model::stats::Histogram;
///
/// let mut h = Histogram::new(10, 100);
/// h.record(5);
/// h.record(15);
/// h.record(1_000); // lands in the overflow bucket
/// assert_eq!(h.total_samples(), 3);
/// assert_eq!(h.bucket_count(0), 1);
/// assert_eq!(h.bucket_count(1), 1);
/// assert_eq!(h.overflow_count(), 1);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    bucket_width: u64,
    buckets: Vec<u64>,
    overflow: u64,
    total: u64,
    sum: u128,
    max: u64,
}

impl Histogram {
    /// Creates a histogram with buckets of `bucket_width` covering values up
    /// to `max_value`; larger samples are recorded in an overflow bucket.
    ///
    /// # Panics
    ///
    /// Panics if `bucket_width` is zero.
    #[must_use]
    pub fn new(bucket_width: u64, max_value: u64) -> Self {
        assert!(bucket_width > 0, "bucket width must be positive");
        let n_buckets = (max_value / bucket_width + 1) as usize;
        Histogram {
            bucket_width,
            buckets: vec![0; n_buckets],
            overflow: 0,
            total: 0,
            sum: 0,
            max: 0,
        }
    }

    /// Records one sample.
    pub fn record(&mut self, value: u64) {
        self.total += 1;
        self.sum += u128::from(value);
        self.max = self.max.max(value);
        let idx = (value / self.bucket_width) as usize;
        if idx < self.buckets.len() {
            self.buckets[idx] += 1;
        } else {
            self.overflow += 1;
        }
    }

    /// The width of each bucket.
    #[must_use]
    pub fn bucket_width(&self) -> u64 {
        self.bucket_width
    }

    /// Number of regular (non-overflow) buckets.
    #[must_use]
    pub fn num_buckets(&self) -> usize {
        self.buckets.len()
    }

    /// Number of samples recorded in bucket `idx`.
    #[must_use]
    pub fn bucket_count(&self, idx: usize) -> u64 {
        self.buckets.get(idx).copied().unwrap_or(0)
    }

    /// The inclusive lower bound of bucket `idx`.
    #[must_use]
    pub fn bucket_lower_bound(&self, idx: usize) -> u64 {
        idx as u64 * self.bucket_width
    }

    /// Number of samples that exceeded the covered range.
    #[must_use]
    pub fn overflow_count(&self) -> u64 {
        self.overflow
    }

    /// Total number of samples recorded.
    #[must_use]
    pub fn total_samples(&self) -> u64 {
        self.total
    }

    /// Largest sample recorded, or 0 if empty.
    #[must_use]
    pub fn max_value(&self) -> u64 {
        self.max
    }

    /// Arithmetic mean of the samples, or 0.0 if empty.
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.sum as f64 / self.total as f64
        }
    }

    /// The fraction of samples whose value is at most `value`.
    #[must_use]
    pub fn fraction_at_most(&self, value: u64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let limit_bucket = (value / self.bucket_width) as usize;
        let mut count = 0u64;
        for (idx, c) in self.buckets.iter().enumerate() {
            if idx <= limit_bucket {
                count += c;
            }
        }
        count as f64 / self.total as f64
    }

    /// Iterates over `(bucket_lower_bound, count)` pairs for all regular
    /// buckets.
    pub fn iter(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.buckets
            .iter()
            .enumerate()
            .map(move |(i, c)| (self.bucket_lower_bound(i), *c))
    }

    /// The raw sum of every recorded sample.
    ///
    /// [`SimStats::to_kv`] only renders the rounded mean, which cannot be
    /// inverted exactly; the result store persists this raw sum alongside
    /// the serialisation so [`Histogram::from_parts`] can reconstruct a
    /// bit-identical histogram.
    #[must_use]
    pub fn sample_sum(&self) -> u128 {
        self.sum
    }

    /// Reconstructs a histogram from its serialised parts — the inverse of
    /// the `issue_latency.*` flattening in [`SimStats::to_kv`], plus the raw
    /// sample sum from [`Histogram::sample_sum`].
    ///
    /// `buckets` lists `(lower_bound, count)` pairs for the non-empty
    /// regular buckets, exactly as the `issue_latency.buckets=` line stores
    /// them.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message when the parts are inconsistent: a
    /// zero bucket width, a lower bound that is not a multiple of the width
    /// or beyond `num_buckets`, a duplicate bucket, or a `total` that does
    /// not equal the bucket counts plus the overflow.
    pub fn from_parts(
        bucket_width: u64,
        num_buckets: usize,
        buckets: &[(u64, u64)],
        overflow: u64,
        total: u64,
        max: u64,
        sum: u128,
    ) -> Result<Histogram, String> {
        if bucket_width == 0 {
            return Err("bucket width must be positive".to_owned());
        }
        let mut counts = vec![0u64; num_buckets];
        for &(lower, count) in buckets {
            if lower % bucket_width != 0 {
                return Err(format!(
                    "bucket lower bound {lower} is not a multiple of the width {bucket_width}"
                ));
            }
            let idx = (lower / bucket_width) as usize;
            let slot = counts
                .get_mut(idx)
                .ok_or_else(|| format!("bucket {lower} is beyond num_buckets={num_buckets}"))?;
            if *slot != 0 {
                return Err(format!("duplicate bucket at lower bound {lower}"));
            }
            *slot = count;
        }
        let counted: u64 = counts.iter().sum::<u64>() + overflow;
        if counted != total {
            return Err(format!(
                "total={total} does not match bucket counts + overflow = {counted}"
            ));
        }
        Ok(Histogram {
            bucket_width,
            buckets: counts,
            overflow,
            total,
            sum,
            max,
        })
    }

    /// Merges another histogram with identical bucketing into this one.
    ///
    /// # Panics
    ///
    /// Panics if the bucket widths or bucket counts differ.
    pub fn merge(&mut self, other: &Histogram) {
        assert_eq!(
            self.bucket_width, other.bucket_width,
            "bucket widths must match"
        );
        assert_eq!(
            self.buckets.len(),
            other.buckets.len(),
            "bucket counts must match"
        );
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
        self.overflow += other.overflow;
        self.total += other.total;
        self.sum += other.sum;
        self.max = self.max.max(other.max);
    }
}

/// Peak-occupancy tracker for a queue or buffer.
///
/// Records the current occupancy and remembers the maximum ever observed;
/// used for Figures 13 and 14 (maximum number of instructions and registers
/// in the LLIB).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Occupancy {
    current: u64,
    peak: u64,
}

impl Occupancy {
    /// Creates an empty tracker.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `n` elements.
    pub fn add(&mut self, n: u64) {
        self.current += n;
        self.peak = self.peak.max(self.current);
    }

    /// Removes `n` elements.
    ///
    /// # Panics
    ///
    /// Panics if more elements are removed than are present.
    pub fn remove(&mut self, n: u64) {
        assert!(n <= self.current, "occupancy underflow");
        self.current -= n;
    }

    /// Sets the current occupancy directly (peak is updated).
    pub fn set(&mut self, value: u64) {
        self.current = value;
        self.peak = self.peak.max(value);
    }

    /// The current occupancy.
    #[must_use]
    pub fn current(&self) -> u64 {
        self.current
    }

    /// The maximum occupancy ever observed.
    #[must_use]
    pub fn peak(&self) -> u64 {
        self.peak
    }
}

/// Aggregate statistics reported by a single simulation run.
///
/// Not every field is meaningful for every core model: the baseline
/// out-of-order cores leave the D-KIP-specific fields at zero, and vice
/// versa.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SimStats {
    /// Total simulated cycles.
    pub cycles: u64,
    /// Committed (retired) correct-path instructions.
    pub committed: u64,
    /// Instructions fetched from the trace.
    pub fetched: u64,
    /// Conditional branches executed.
    pub cond_branches: u64,
    /// Conditional branches mispredicted.
    pub branch_mispredicts: u64,
    /// Loads executed.
    pub loads: u64,
    /// Stores executed.
    pub stores: u64,
    /// Loads that hit in the L1 data cache.
    pub l1_hits: u64,
    /// Loads that missed L1 but hit in the L2 cache.
    pub l2_hits: u64,
    /// Loads that went to main memory.
    pub mem_accesses: u64,
    /// Cycles in which the front end could not fetch because the ROB
    /// (or Aging-ROB) was full.
    pub rob_full_stall_cycles: u64,
    /// Cycles in which fetch was stalled waiting for a mispredicted branch
    /// to resolve.
    pub mispredict_stall_cycles: u64,
    /// Instructions classified as low execution locality (D-KIP only).
    pub low_locality_instrs: u64,
    /// Instructions executed on the Cache Processor / main pipeline.
    pub high_locality_instrs: u64,
    /// Cycles the Analyze stage stalled waiting for an in-flight
    /// short-latency instruction to write back (D-KIP only).
    pub analyze_stall_cycles: u64,
    /// Cycles an LLIB was full and blocked the Analyze stage (D-KIP only).
    pub llib_full_stall_cycles: u64,
    /// Checkpoints taken (D-KIP and KILO baselines).
    pub checkpoints_taken: u64,
    /// Checkpoint recoveries performed.
    pub checkpoint_recoveries: u64,
    /// Peak occupancy of the integer LLIB in instructions (D-KIP only).
    pub llib_int_peak_instrs: u64,
    /// Peak occupancy of the floating-point LLIB in instructions (D-KIP only).
    pub llib_fp_peak_instrs: u64,
    /// Peak number of registers held in the integer LLRF (D-KIP only).
    pub llrf_int_peak_regs: u64,
    /// Peak number of registers held in the floating-point LLRF (D-KIP only).
    pub llrf_fp_peak_regs: u64,
    /// Histogram of decode→issue distances (only collected when the core is
    /// asked to characterise execution locality, Figure 3).
    pub issue_latency: Option<Histogram>,
    /// `tick()` invocations actually executed by the core. With the
    /// event-driven clock this is `cycles - cycles_skipped`; single-stepping
    /// (`DKIP_NO_SKIP=1`) makes it equal to `cycles`. Host-side telemetry:
    /// excluded from [`SimStats::to_kv`] so golden snapshots stay identical
    /// across clock modes.
    pub ticks_executed: u64,
    /// Quiesced cycles the event-driven clock advanced over without running
    /// a tick. Host-side telemetry: excluded from [`SimStats::to_kv`].
    pub cycles_skipped: u64,
}

impl SimStats {
    /// Creates an all-zero statistics record.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Instructions per cycle; 0.0 if no cycles were simulated.
    #[must_use]
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.committed as f64 / self.cycles as f64
        }
    }

    /// Branch misprediction rate over conditional branches (0.0–1.0).
    #[must_use]
    pub fn mispredict_rate(&self) -> f64 {
        if self.cond_branches == 0 {
            0.0
        } else {
            self.branch_mispredicts as f64 / self.cond_branches as f64
        }
    }

    /// Fraction of loads that accessed main memory (0.0–1.0).
    #[must_use]
    pub fn memory_access_rate(&self) -> f64 {
        let total = self.l1_hits + self.l2_hits + self.mem_accesses;
        if total == 0 {
            0.0
        } else {
            self.mem_accesses as f64 / total as f64
        }
    }

    /// Fraction of committed instructions processed on the Cache Processor
    /// (high execution locality). Only meaningful for the D-KIP.
    #[must_use]
    pub fn high_locality_fraction(&self) -> f64 {
        let total = self.high_locality_instrs + self.low_locality_instrs;
        if total == 0 {
            0.0
        } else {
            self.high_locality_instrs as f64 / total as f64
        }
    }

    /// Fraction of simulated cycles the event-driven clock skipped (0.0–1.0).
    #[must_use]
    pub fn skipped_fraction(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.cycles_skipped as f64 / self.cycles as f64
        }
    }

    /// Snapshot of the counters that single-stepping bumps once per quiesced
    /// cycle, in a fixed order. Taken immediately before a tick; see
    /// [`SimStats::replay_stall_cycles`].
    #[must_use]
    pub fn stall_counter_snapshot(&self) -> [u64; 4] {
        [
            self.rob_full_stall_cycles,
            self.mispredict_stall_cycles,
            self.analyze_stall_cycles,
            self.llib_full_stall_cycles,
        ]
    }

    /// Replays the per-cycle stall bumps of a quiesced tick over `skipped`
    /// additional cycles.
    ///
    /// When the event-driven clock proves a tick made no progress, every
    /// skipped cycle up to the next event would have re-executed that exact
    /// tick — including its stall-counter increments. `before` is the
    /// [`SimStats::stall_counter_snapshot`] taken just before the quiesced
    /// tick ran; the difference against the current counters is the
    /// per-cycle bump, which this multiplies by `skipped` so the counters
    /// end up bit-identical to single-stepping.
    pub fn replay_stall_cycles(&mut self, before: [u64; 4], skipped: u64) {
        let after = self.stall_counter_snapshot();
        let bumped = [
            &mut self.rob_full_stall_cycles,
            &mut self.mispredict_stall_cycles,
            &mut self.analyze_stall_cycles,
            &mut self.llib_full_stall_cycles,
        ];
        for ((counter, before), after) in bumped.into_iter().zip(before).zip(after) {
            *counter += (after - before) * skipped;
        }
    }
}

/// Number of `u64` counters [`SimStats::to_kv`] serialises.
const COUNTERS: usize = 22;

impl SimStats {
    /// Every serialised counter with its key, in declaration order: the one
    /// list [`SimStats::to_kv`] writes and [`SimStats::from_kv`] fills.
    fn counters_mut(&mut self) -> [(&'static str, &mut u64); COUNTERS] {
        // Exhaustive destructuring (no `..`): adding a field to `SimStats`
        // without listing it here is a compile error, so new counters can
        // never silently escape the golden snapshots.
        let SimStats {
            cycles,
            committed,
            fetched,
            cond_branches,
            branch_mispredicts,
            loads,
            stores,
            l1_hits,
            l2_hits,
            mem_accesses,
            rob_full_stall_cycles,
            mispredict_stall_cycles,
            low_locality_instrs,
            high_locality_instrs,
            analyze_stall_cycles,
            llib_full_stall_cycles,
            checkpoints_taken,
            checkpoint_recoveries,
            llib_int_peak_instrs,
            llib_fp_peak_instrs,
            llrf_int_peak_regs,
            llrf_fp_peak_regs,
            // Serialised after the counters, in its own format.
            issue_latency: _,
            // Clock telemetry is deliberately NOT serialised: it describes
            // how the host advanced simulated time (event-driven skipping vs
            // DKIP_NO_SKIP single-stepping), not what the simulated machine
            // did, and golden snapshots must be identical in both modes.
            ticks_executed: _,
            cycles_skipped: _,
        } = self;
        [
            ("cycles", cycles),
            ("committed", committed),
            ("fetched", fetched),
            ("cond_branches", cond_branches),
            ("branch_mispredicts", branch_mispredicts),
            ("loads", loads),
            ("stores", stores),
            ("l1_hits", l1_hits),
            ("l2_hits", l2_hits),
            ("mem_accesses", mem_accesses),
            ("rob_full_stall_cycles", rob_full_stall_cycles),
            ("mispredict_stall_cycles", mispredict_stall_cycles),
            ("low_locality_instrs", low_locality_instrs),
            ("high_locality_instrs", high_locality_instrs),
            ("analyze_stall_cycles", analyze_stall_cycles),
            ("llib_full_stall_cycles", llib_full_stall_cycles),
            ("checkpoints_taken", checkpoints_taken),
            ("checkpoint_recoveries", checkpoint_recoveries),
            ("llib_int_peak_instrs", llib_int_peak_instrs),
            ("llib_fp_peak_instrs", llib_fp_peak_instrs),
            ("llrf_int_peak_regs", llrf_int_peak_regs),
            ("llrf_fp_peak_regs", llrf_fp_peak_regs),
        ]
    }

    /// Serialises the statistics as stable `key=value` lines.
    ///
    /// This is the format stored in the golden snapshot files under
    /// `tests/golden/`: one line per field in declaration order, derived
    /// rates rendered with a fixed precision, and the optional issue-latency
    /// histogram flattened into `issue_latency.*` keys. Two runs produce
    /// byte-identical output if and only if they observed the same counter
    /// values, so the serialisation doubles as a bit-for-bit equality check
    /// for the determinism and parallel-runner tests.
    #[must_use]
    pub fn to_kv(&self) -> String {
        use fmt::Write as _;
        let mut out = String::new();
        // The accessor lends `&mut` counters, so it reads them from a copy.
        for (key, value) in self.clone().counters_mut() {
            let _ = writeln!(out, "{key}={value}");
        }
        let _ = writeln!(out, "ipc={:.6}", self.ipc());
        let _ = writeln!(out, "mispredict_rate={:.6}", self.mispredict_rate());
        match &self.issue_latency {
            None => {
                let _ = writeln!(out, "issue_latency=none");
            }
            Some(hist) => {
                let _ = writeln!(out, "issue_latency.bucket_width={}", hist.bucket_width());
                let _ = writeln!(out, "issue_latency.num_buckets={}", hist.num_buckets());
                let _ = writeln!(out, "issue_latency.total={}", hist.total_samples());
                let _ = writeln!(out, "issue_latency.overflow={}", hist.overflow_count());
                let _ = writeln!(out, "issue_latency.max={}", hist.max_value());
                let _ = writeln!(out, "issue_latency.mean={:.6}", hist.mean());
                let buckets: Vec<String> = hist
                    .iter()
                    .filter(|(_, count)| *count > 0)
                    .map(|(lower, count)| format!("{lower}:{count}"))
                    .collect();
                let _ = writeln!(out, "issue_latency.buckets={}", buckets.join(","));
            }
        }
        out
    }

    /// Parses the [`SimStats::to_kv`] serialisation back into a statistics
    /// record — the load half of the content-addressed result store.
    ///
    /// `histogram_sum` supplies the raw issue-latency sample sum, which
    /// `to_kv` renders only as a rounded mean (the store persists it in a
    /// supplementary field); it is ignored when the document carries
    /// `issue_latency=none`. The parser is strict — every counter line must
    /// be present exactly once and nothing unknown may appear — and the
    /// derived `ipc=`/`mispredict_rate=` lines are cross-checked against the
    /// parsed counters, so a corrupted document fails to parse instead of
    /// yielding subtly wrong statistics. Callers that need bit-exact
    /// fidelity additionally compare `from_kv(kv).to_kv()` against the
    /// original bytes.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message naming the missing, duplicated,
    /// malformed or inconsistent line.
    pub fn from_kv(kv: &str, histogram_sum: u128) -> Result<SimStats, String> {
        let mut stats = SimStats::default();
        let mut seen = [false; COUNTERS];
        let mut derived: [Option<String>; 2] = [None, None];
        let mut hist: std::collections::BTreeMap<String, String> =
            std::collections::BTreeMap::new();
        let mut hist_none = false;
        for line in kv.lines() {
            let (key, value) = line
                .split_once('=')
                .ok_or_else(|| format!("malformed line {line:?}"))?;
            let counter = stats
                .counters_mut()
                .into_iter()
                .zip(&mut seen)
                .find(|((name, _), _)| *name == key);
            if let Some(((_, slot), seen)) = counter {
                if *seen {
                    return Err(format!("duplicate counter {key}"));
                }
                *seen = true;
                *slot = value
                    .parse::<u64>()
                    .map_err(|_| format!("counter {key} has non-integer value {value:?}"))?;
            } else if key == "ipc" || key == "mispredict_rate" {
                let idx = usize::from(key == "mispredict_rate");
                if derived[idx].is_some() {
                    return Err(format!("duplicate derived field {key}"));
                }
                derived[idx] = Some(value.to_owned());
            } else if key == "issue_latency" {
                if value != "none" {
                    return Err(format!("issue_latency must be 'none', got {value:?}"));
                }
                hist_none = true;
            } else if let Some(sub) = key.strip_prefix("issue_latency.") {
                if hist.insert(sub.to_owned(), value.to_owned()).is_some() {
                    return Err(format!("duplicate histogram field {key}"));
                }
            } else {
                return Err(format!("unknown field {key}"));
            }
        }
        if let Some(((name, _), _)) = stats
            .counters_mut()
            .into_iter()
            .zip(seen)
            .find(|(_, seen)| !seen)
        {
            return Err(format!("missing counter {name}"));
        }
        stats.issue_latency = match (hist_none, hist.is_empty()) {
            (true, true) => None,
            (true, false) => return Err("both issue_latency=none and histogram fields".to_owned()),
            (false, true) => return Err("missing issue_latency section".to_owned()),
            (false, false) => {
                let mut field = |name: &str| -> Result<String, String> {
                    hist.remove(name)
                        .ok_or_else(|| format!("missing histogram field issue_latency.{name}"))
                };
                let parse_u64 = |text: &str, name: &str| -> Result<u64, String> {
                    text.parse::<u64>()
                        .map_err(|_| format!("histogram field {name} has non-integer value"))
                };
                let bucket_width = parse_u64(&field("bucket_width")?, "bucket_width")?;
                let num_buckets = parse_u64(&field("num_buckets")?, "num_buckets")? as usize;
                let total = parse_u64(&field("total")?, "total")?;
                let overflow = parse_u64(&field("overflow")?, "overflow")?;
                let max = parse_u64(&field("max")?, "max")?;
                let mean = field("mean")?;
                let buckets_text = field("buckets")?;
                if let Some(stray) = hist.keys().next() {
                    return Err(format!("unknown histogram field issue_latency.{stray}"));
                }
                let mut buckets = Vec::new();
                for pair in buckets_text.split(',').filter(|p| !p.is_empty()) {
                    let (lower, count) = pair
                        .split_once(':')
                        .ok_or_else(|| format!("malformed bucket entry {pair:?}"))?;
                    buckets.push((parse_u64(lower, "buckets")?, parse_u64(count, "buckets")?));
                }
                let hist = Histogram::from_parts(
                    bucket_width,
                    num_buckets,
                    &buckets,
                    overflow,
                    total,
                    max,
                    histogram_sum,
                )?;
                if format!("{:.6}", hist.mean()) != mean {
                    return Err(format!(
                        "histogram mean {mean} inconsistent with sum {histogram_sum} over {total} samples"
                    ));
                }
                Some(hist)
            }
        };
        for (slot, name) in derived.iter().zip(["ipc", "mispredict_rate"]) {
            let text = slot
                .as_ref()
                .ok_or_else(|| format!("missing derived field {name}"))?;
            let recomputed = if name == "ipc" {
                stats.ipc()
            } else {
                stats.mispredict_rate()
            };
            if format!("{recomputed:.6}") != *text {
                return Err(format!(
                    "derived field {name}={text} inconsistent with counters ({recomputed:.6})"
                ));
            }
        }
        Ok(stats)
    }
}

impl fmt::Display for SimStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "cycles={} committed={} ipc={:.3} mispredict_rate={:.3} mem_rate={:.3}",
            self.cycles,
            self.committed,
            self.ipc(),
            self.mispredict_rate(),
            self.memory_access_rate()
        )
    }
}

/// Accumulates per-benchmark IPC values into an arithmetic mean, as used for
/// the "Average IPC (Arith. Mean)" axes of the paper's figures.
#[derive(Debug, Clone, Default)]
pub struct MeanIpc {
    sum: f64,
    count: u64,
}

impl MeanIpc {
    /// Creates an empty accumulator.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one benchmark's IPC.
    pub fn add(&mut self, ipc: f64) {
        self.sum += ipc;
        self.count += 1;
    }

    /// Number of benchmarks accumulated.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// The arithmetic mean, or 0.0 if empty.
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }
}

/// One measured detailed window of a sampled simulation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WindowSample {
    /// Dynamic instruction index at which the measured window began.
    pub start_instr: u64,
    /// Instructions committed inside the measured window (warmup excluded).
    pub committed: u64,
    /// Cycles the measured window took.
    pub cycles: u64,
}

impl WindowSample {
    /// The window's IPC; 0.0 for an empty window.
    #[must_use]
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.committed as f64 / self.cycles as f64
        }
    }
}

/// A whole-run IPC estimate produced by [`SampleEstimator::estimate`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IpcEstimate {
    /// The ratio-estimator IPC: total committed over total cycles across
    /// every measured window.
    pub ipc: f64,
    /// Half-width of the 95% confidence interval around the per-window
    /// mean IPC (normal approximation); 0.0 with fewer than two windows.
    pub ci95: f64,
    /// Number of measured windows that contributed.
    pub windows: usize,
    /// Total instructions committed inside measured windows.
    pub committed: u64,
    /// Total cycles spent inside measured windows.
    pub cycles: u64,
}

/// Combines the per-window measurements of a sampled simulation into a
/// whole-run IPC estimate with a reported confidence interval
/// (SMARTS-style systematic sampling).
///
/// The point estimate is the *ratio estimator* — total committed
/// instructions over total cycles across all measured windows — which
/// weights longer windows proportionally and converges to the exact-run
/// IPC as coverage grows. The confidence interval treats the per-window
/// IPCs as independent samples and applies the normal approximation:
/// `1.96·s/√n`, where `s` is the sample standard deviation. A single
/// window yields a zero-width interval (no variance information), which is
/// the degenerate case the unit tests pin.
#[derive(Debug, Clone, Default)]
pub struct SampleEstimator {
    windows: Vec<WindowSample>,
}

impl SampleEstimator {
    /// Creates an empty estimator.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one measured window. Windows with zero cycles are ignored (an
    /// exhausted stream can produce an empty trailing window).
    pub fn add_window(&mut self, window: WindowSample) {
        if window.cycles > 0 {
            self.windows.push(window);
        }
    }

    /// The measured windows, in insertion order.
    #[must_use]
    pub fn windows(&self) -> &[WindowSample] {
        &self.windows
    }

    /// Number of measured windows.
    #[must_use]
    pub fn len(&self) -> usize {
        self.windows.len()
    }

    /// Whether no window has been measured.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.windows.is_empty()
    }

    /// Total instructions committed inside measured windows.
    #[must_use]
    pub fn total_committed(&self) -> u64 {
        self.windows.iter().map(|w| w.committed).sum()
    }

    /// Total cycles spent inside measured windows.
    #[must_use]
    pub fn total_cycles(&self) -> u64 {
        self.windows.iter().map(|w| w.cycles).sum()
    }

    /// The ratio-estimator IPC (total committed / total cycles); 0.0 when
    /// nothing was measured.
    #[must_use]
    pub fn ipc(&self) -> f64 {
        let cycles = self.total_cycles();
        if cycles == 0 {
            0.0
        } else {
            self.total_committed() as f64 / cycles as f64
        }
    }

    /// Arithmetic mean of the per-window IPCs; 0.0 when empty.
    #[must_use]
    pub fn mean_window_ipc(&self) -> f64 {
        if self.windows.is_empty() {
            return 0.0;
        }
        self.windows.iter().map(WindowSample::ipc).sum::<f64>() / self.windows.len() as f64
    }

    /// Sample standard deviation of the per-window IPCs (n−1 denominator);
    /// 0.0 with fewer than two windows.
    #[must_use]
    pub fn window_ipc_stddev(&self) -> f64 {
        let n = self.windows.len();
        if n < 2 {
            return 0.0;
        }
        let mean = self.mean_window_ipc();
        let var = self
            .windows
            .iter()
            .map(|w| {
                let d = w.ipc() - mean;
                d * d
            })
            .sum::<f64>()
            / (n - 1) as f64;
        var.sqrt()
    }

    /// Half-width of the 95% confidence interval around the per-window
    /// mean IPC: `1.96·s/√n`. 0.0 with fewer than two windows.
    #[must_use]
    pub fn ci95_half_width(&self) -> f64 {
        let n = self.windows.len();
        if n < 2 {
            return 0.0;
        }
        1.96 * self.window_ipc_stddev() / (n as f64).sqrt()
    }

    /// The combined estimate.
    #[must_use]
    pub fn estimate(&self) -> IpcEstimate {
        IpcEstimate {
            ipc: self.ipc(),
            ci95: self.ci95_half_width(),
            windows: self.windows.len(),
            committed: self.total_committed(),
            cycles: self.total_cycles(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_and_overflow() {
        let mut h = Histogram::new(100, 1000);
        for v in [0, 50, 99, 100, 101, 950, 1001, 5000] {
            h.record(v);
        }
        assert_eq!(h.bucket_count(0), 3);
        assert_eq!(h.bucket_count(1), 2);
        assert_eq!(h.bucket_count(9), 1);
        // 1001 still falls in the last regular bucket (1000..1100); only 5000 overflows.
        assert_eq!(h.bucket_count(10), 1);
        assert_eq!(h.overflow_count(), 1);
        assert_eq!(h.total_samples(), 8);
        assert_eq!(h.max_value(), 5000);
    }

    #[test]
    fn histogram_fraction_at_most() {
        let mut h = Histogram::new(10, 100);
        for v in 0..100 {
            h.record(v);
        }
        let f = h.fraction_at_most(49);
        assert!((f - 0.5).abs() < 1e-9, "expected 0.5, got {f}");
    }

    #[test]
    fn histogram_merge_accumulates() {
        let mut a = Histogram::new(10, 100);
        let mut b = Histogram::new(10, 100);
        a.record(5);
        b.record(5);
        b.record(500);
        a.merge(&b);
        assert_eq!(a.total_samples(), 3);
        assert_eq!(a.bucket_count(0), 2);
        assert_eq!(a.overflow_count(), 1);
    }

    #[test]
    #[should_panic(expected = "bucket widths")]
    fn histogram_merge_rejects_mismatched_widths() {
        let mut a = Histogram::new(10, 100);
        let b = Histogram::new(20, 100);
        a.merge(&b);
    }

    #[test]
    fn histogram_mean() {
        let mut h = Histogram::new(1, 10);
        h.record(2);
        h.record(4);
        assert!((h.mean() - 3.0).abs() < 1e-12);
        let empty = Histogram::new(1, 10);
        assert_eq!(empty.mean(), 0.0);
    }

    #[test]
    fn occupancy_tracks_peak() {
        let mut occ = Occupancy::new();
        occ.add(5);
        occ.add(3);
        occ.remove(6);
        occ.add(1);
        assert_eq!(occ.current(), 3);
        assert_eq!(occ.peak(), 8);
        occ.set(20);
        assert_eq!(occ.peak(), 20);
    }

    #[test]
    #[should_panic(expected = "underflow")]
    fn occupancy_underflow_panics() {
        let mut occ = Occupancy::new();
        occ.add(1);
        occ.remove(2);
    }

    #[test]
    fn ipc_and_rates() {
        let stats = SimStats {
            cycles: 1000,
            committed: 2500,
            cond_branches: 100,
            branch_mispredicts: 5,
            l1_hits: 90,
            l2_hits: 5,
            mem_accesses: 5,
            ..SimStats::default()
        };
        assert!((stats.ipc() - 2.5).abs() < 1e-12);
        assert!((stats.mispredict_rate() - 0.05).abs() < 1e-12);
        assert!((stats.memory_access_rate() - 0.05).abs() < 1e-12);
    }

    #[test]
    fn zero_cycle_stats_do_not_divide_by_zero() {
        let stats = SimStats::new();
        assert_eq!(stats.ipc(), 0.0);
        assert_eq!(stats.mispredict_rate(), 0.0);
        assert_eq!(stats.memory_access_rate(), 0.0);
        assert_eq!(stats.high_locality_fraction(), 0.0);
    }

    #[test]
    fn mean_ipc_accumulator() {
        let mut mean = MeanIpc::new();
        mean.add(1.0);
        mean.add(2.0);
        mean.add(3.0);
        assert_eq!(mean.count(), 3);
        assert!((mean.mean() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn stats_display_is_nonempty() {
        let stats = SimStats::new();
        assert!(stats.to_string().contains("ipc"));
    }

    #[test]
    fn sample_estimator_matches_hand_computed_mean_and_ci() {
        // Three windows with IPCs 2.0, 1.0 and 0.5:
        //   ratio estimate      = (100+100+100)/(50+100+200) = 300/350 = 6/7
        //   mean window IPC     = (2 + 1 + 0.5)/3            = 7/6
        //   sample variance     = ((5/6)² + (1/6)² + (4/6)²)/2 = 7/12
        //   95% CI half-width   = 1.96·√(7/12)/√3
        let mut est = SampleEstimator::new();
        est.add_window(WindowSample {
            start_instr: 0,
            committed: 100,
            cycles: 50,
        });
        est.add_window(WindowSample {
            start_instr: 1_000,
            committed: 100,
            cycles: 100,
        });
        est.add_window(WindowSample {
            start_instr: 2_000,
            committed: 100,
            cycles: 200,
        });
        assert_eq!(est.len(), 3);
        assert_eq!(est.total_committed(), 300);
        assert_eq!(est.total_cycles(), 350);
        assert!((est.ipc() - 6.0 / 7.0).abs() < 1e-12);
        assert!((est.mean_window_ipc() - 7.0 / 6.0).abs() < 1e-12);
        assert!((est.window_ipc_stddev() - (7.0f64 / 12.0).sqrt()).abs() < 1e-12);
        let expected_ci = 1.96 * (7.0f64 / 12.0).sqrt() / 3.0f64.sqrt();
        assert!((est.ci95_half_width() - expected_ci).abs() < 1e-12);
        let e = est.estimate();
        assert_eq!(e.windows, 3);
        assert_eq!(e.committed, 300);
        assert_eq!(e.cycles, 350);
        assert!((e.ipc - 6.0 / 7.0).abs() < 1e-12);
        assert!((e.ci95 - expected_ci).abs() < 1e-12);
    }

    #[test]
    fn sample_estimator_degenerate_single_window() {
        // One window carries no variance information: the point estimate is
        // the window's own IPC and the confidence interval collapses to 0.
        let mut est = SampleEstimator::new();
        est.add_window(WindowSample {
            start_instr: 500,
            committed: 123,
            cycles: 456,
        });
        assert_eq!(est.len(), 1);
        assert!((est.ipc() - 123.0 / 456.0).abs() < 1e-12);
        assert!((est.mean_window_ipc() - 123.0 / 456.0).abs() < 1e-12);
        assert_eq!(est.window_ipc_stddev(), 0.0);
        assert_eq!(est.ci95_half_width(), 0.0);
        assert_eq!(est.estimate().ci95, 0.0);
    }

    #[test]
    fn sample_estimator_ignores_empty_windows_and_handles_none() {
        let mut est = SampleEstimator::new();
        assert!(est.is_empty());
        assert_eq!(est.ipc(), 0.0);
        assert_eq!(est.ci95_half_width(), 0.0);
        est.add_window(WindowSample {
            start_instr: 0,
            committed: 0,
            cycles: 0,
        });
        assert!(est.is_empty(), "zero-cycle windows must be dropped");
        assert_eq!(est.estimate().windows, 0);
    }

    #[test]
    fn identical_windows_yield_a_zero_width_interval() {
        let mut est = SampleEstimator::new();
        for i in 0..5 {
            est.add_window(WindowSample {
                start_instr: i * 100,
                committed: 200,
                cycles: 80,
            });
        }
        assert!((est.ipc() - 2.5).abs() < 1e-12);
        assert_eq!(est.window_ipc_stddev(), 0.0);
        assert_eq!(est.ci95_half_width(), 0.0);
    }

    #[test]
    fn kv_serialisation_is_stable_and_complete() {
        let stats = SimStats {
            cycles: 1000,
            committed: 2500,
            loads: 7,
            ..SimStats::default()
        };
        let kv = stats.to_kv();
        assert_eq!(kv, stats.to_kv(), "serialisation must be deterministic");
        assert!(kv.contains("cycles=1000\n"));
        assert!(kv.contains("committed=2500\n"));
        assert!(kv.contains("loads=7\n"));
        assert!(kv.contains("ipc=2.500000\n"));
        assert!(kv.contains("issue_latency=none\n"));
        // One line per u64 field + two derived rates + the histogram marker.
        assert_eq!(kv.lines().count(), 25);
    }

    #[test]
    fn kv_serialisation_flattens_the_histogram() {
        let mut hist = Histogram::new(10, 100);
        hist.record(5);
        hist.record(25);
        hist.record(500);
        let stats = SimStats {
            issue_latency: Some(hist),
            ..SimStats::default()
        };
        let kv = stats.to_kv();
        assert!(kv.contains("issue_latency.total=3\n"));
        assert!(kv.contains("issue_latency.overflow=1\n"));
        assert!(kv.contains("issue_latency.buckets=0:1,20:1\n"));
    }

    #[test]
    fn kv_serialisation_excludes_clock_telemetry() {
        let a = SimStats {
            cycles: 1000,
            committed: 500,
            ..SimStats::default()
        };
        let mut b = a.clone();
        b.ticks_executed = 123;
        b.cycles_skipped = 877;
        assert_eq!(
            a.to_kv(),
            b.to_kv(),
            "clock mode must not leak into golden snapshots"
        );
        assert!((b.skipped_fraction() - 0.877).abs() < 1e-12);
        assert_eq!(SimStats::default().skipped_fraction(), 0.0);
    }

    #[test]
    fn stall_replay_multiplies_the_per_tick_bump() {
        let mut stats = SimStats {
            rob_full_stall_cycles: 10,
            mispredict_stall_cycles: 20,
            analyze_stall_cycles: 30,
            llib_full_stall_cycles: 40,
            ..SimStats::default()
        };
        let before = stats.stall_counter_snapshot();
        // One quiesced tick bumps two of the four counters.
        stats.mispredict_stall_cycles += 1;
        stats.analyze_stall_cycles += 1;
        stats.replay_stall_cycles(before, 99);
        assert_eq!(stats.rob_full_stall_cycles, 10);
        assert_eq!(stats.mispredict_stall_cycles, 20 + 1 + 99);
        assert_eq!(stats.analyze_stall_cycles, 30 + 1 + 99);
        assert_eq!(stats.llib_full_stall_cycles, 40);
    }

    #[test]
    fn kv_serialisation_distinguishes_perturbed_stats() {
        let a = SimStats {
            cycles: 1000,
            committed: 2500,
            ..SimStats::default()
        };
        let mut b = a.clone();
        b.committed += 1; // perturbs both committed= and the derived ipc=
        assert_ne!(a.to_kv(), b.to_kv());
    }

    #[test]
    fn from_kv_round_trips_without_histogram() {
        let stats = SimStats {
            cycles: 1000,
            committed: 2500,
            fetched: 2600,
            cond_branches: 300,
            branch_mispredicts: 7,
            loads: 400,
            stores: 200,
            l1_hits: 350,
            l2_hits: 30,
            mem_accesses: 20,
            rob_full_stall_cycles: 11,
            checkpoints_taken: 3,
            ..SimStats::default()
        };
        let kv = stats.to_kv();
        let parsed = SimStats::from_kv(&kv, 0).unwrap();
        assert_eq!(parsed.to_kv(), kv, "round trip must be byte-identical");
        assert_eq!(parsed.cycles, 1000);
        assert_eq!(parsed.committed, 2500);
        assert_eq!(parsed.ticks_executed, 0, "clock telemetry is not persisted");
    }

    #[test]
    fn from_kv_round_trips_with_histogram() {
        let mut hist = Histogram::new(10, 4);
        hist.record(3);
        hist.record(27);
        hist.record(999);
        let sum = hist.sample_sum();
        let stats = SimStats {
            cycles: 123,
            committed: 456,
            issue_latency: Some(hist),
            ..SimStats::default()
        };
        let kv = stats.to_kv();
        let parsed = SimStats::from_kv(&kv, sum).unwrap();
        assert_eq!(parsed.to_kv(), kv, "round trip must be byte-identical");
        assert_eq!(parsed.issue_latency.as_ref().unwrap().sample_sum(), sum);
    }

    #[test]
    fn from_kv_rejects_corrupted_documents() {
        let stats = SimStats {
            cycles: 1000,
            committed: 2500,
            ..SimStats::default()
        };
        let kv = stats.to_kv();
        // Truncation drops required fields.
        let truncated: String = kv.lines().take(5).map(|l| format!("{l}\n")).collect();
        assert!(SimStats::from_kv(&truncated, 0)
            .unwrap_err()
            .contains("missing"));
        let no_loads = kv.replace("loads=0\n", "");
        assert_eq!(
            SimStats::from_kv(&no_loads, 0).unwrap_err(),
            "missing counter loads"
        );
        assert!(SimStats::from_kv(&kv.replace("cycles=1000", "cycles=x"), 0)
            .unwrap_err()
            .contains("non-integer"));
        // A tampered counter breaks the derived-field cross-check.
        let tampered = kv.replace("committed=2500", "committed=2501");
        assert!(SimStats::from_kv(&tampered, 0)
            .unwrap_err()
            .contains("inconsistent"));
        // Unknown and duplicated fields are rejected outright.
        assert!(SimStats::from_kv(&format!("{kv}bogus=1\n"), 0)
            .unwrap_err()
            .contains("unknown"));
        assert!(SimStats::from_kv(&format!("{kv}cycles=1000\n"), 0)
            .unwrap_err()
            .contains("duplicate"));
        assert!(SimStats::from_kv("garbage\n", 0)
            .unwrap_err()
            .contains("malformed"));
    }

    #[test]
    fn from_kv_checks_the_histogram_sum() {
        let mut hist = Histogram::new(10, 4);
        hist.record(5);
        hist.record(15);
        let stats = SimStats {
            committed: 2,
            cycles: 2,
            issue_latency: Some(hist),
            ..SimStats::default()
        };
        let kv = stats.to_kv();
        assert!(SimStats::from_kv(&kv, 20).is_ok());
        assert!(
            SimStats::from_kv(&kv, 999_999)
                .unwrap_err()
                .contains("mean"),
            "a wrong supplementary sum contradicts the rendered mean"
        );
    }

    #[test]
    fn histogram_from_parts_validates_its_inputs() {
        assert!(Histogram::from_parts(0, 4, &[], 0, 0, 0, 0).is_err());
        assert!(Histogram::from_parts(10, 4, &[(5, 1)], 0, 1, 5, 5).is_err());
        assert!(Histogram::from_parts(10, 4, &[(50, 1)], 0, 1, 55, 55).is_err());
        assert!(Histogram::from_parts(10, 4, &[(0, 1), (0, 1)], 0, 2, 5, 8).is_err());
        assert!(Histogram::from_parts(10, 4, &[(0, 1)], 0, 5, 5, 5).is_err());
        let hist = Histogram::from_parts(10, 4, &[(0, 1), (20, 2)], 1, 4, 99, 150).unwrap();
        assert_eq!(hist.sample_sum(), 150);
    }
}
