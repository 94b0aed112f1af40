//! Persistent, content-addressed result store for sweep jobs.
//!
//! Every simulation point in this repository is fully deterministic: the
//! statistics of a [`crate::Job`] are a pure function of its configuration.
//! This module exploits that by caching [`dkip_model::SimStats`] on disk
//! under a key derived from the *complete* job configuration (machine +
//! memory hierarchy + workload + seed + budget + sample/clock knobs, see
//! [`crate::Job::key_text`]) salted with a code-version stamp, so figure
//! binaries, golden sweeps and the `dkip-sim serve` service only compute
//! what changed.
//!
//! # Key derivation and invalidation contract
//!
//! The cache key is `fnv1a_128(salt_header + job key text)` where the salt
//! header folds in:
//!
//! * the store format version ([`STORE_VERSION`]),
//! * [`RESULTS_DIGEST`] — a compile-time digest of the result goldens, so
//!   any change that moves a simulated result (and so re-blesses a golden)
//!   changes the salt,
//! * the `dkip-sim` crate version (`CARGO_PKG_VERSION`),
//! * the free-form [`CACHE_SALT_ENV`] environment variable (empty when
//!   unset), which tests and operators use to force cold runs.
//!
//! The job key text itself is produced by exhaustive destructuring
//! ([`dkip_model::StableKey`]): adding a field to any config struct without
//! extending its key is a compile error, so silently stale hits after a
//! config change are impossible. A change of simulator behaviour without a
//! config change re-blesses the goldens, which moves [`RESULTS_DIGEST`].
//!
//! # Integrity
//!
//! Entries are written atomically (temp file + rename) and verified
//! end-to-end on load: the header, embedded key and statistics document are
//! parsed back through [`SimStats::from_kv`] and the re-serialisation is
//! byte-compared against the stored text. Any mismatch — truncation,
//! corruption, format drift — logs a warning, deletes the entry
//! best-effort, and reports a miss so the job is recomputed and rewritten.
//! A cache hit is therefore byte-identical to a recompute, by construction.
//!
//! # Write resilience
//!
//! The store is an accelerator, never a correctness dependency: a write
//! that fails transiently (`ENOSPC`, a flaky network filesystem) is
//! retried a few times with capped backoff ([`WRITE_ATTEMPTS`]), and a
//! store that keeps failing — a cache directory that turned read-only
//! mid-sweep — trips a degraded flag: one stderr notice, then every later
//! insert becomes a silent no-op and the sweep keeps computing uncached.
//! Reads are never retried; an unreadable entry is just a miss, and the
//! job recomputes. The [`crate::chaos`] fault points `store.write` and
//! `store.read` inject exactly these failures so `make chaos-check` can
//! prove the degraded paths still produce byte-identical results.

use std::collections::BTreeSet;
use std::fs;
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use crate::chaos::{self, FaultPoint};
use dkip_model::{fnv1a_128, fnv1a_128_continue, key_digest, SimStats};

/// Environment variable selecting the cache directory (empty = disabled).
pub const CACHE_ENV: &str = "DKIP_CACHE";

/// Environment variable mixed verbatim into the cache salt. Setting it to a
/// fresh value invalidates every existing entry without touching the store
/// directory — the perturbation knob `make cache-check` uses.
pub const CACHE_SALT_ENV: &str = "DKIP_CACHE_SALT";

/// The result goldens [`RESULTS_DIGEST`] covers, by file name: every
/// `tests/golden/*.golden` but `cache_keys.golden`, which pins the key
/// derivation rather than any result.
pub const RESULT_GOLDENS: [(&str, &[u8]); 5] = [
    (
        "baseline.golden",
        include_bytes!("../../../tests/golden/baseline.golden"),
    ),
    (
        "kilo.golden",
        include_bytes!("../../../tests/golden/kilo.golden"),
    ),
    (
        "dkip.golden",
        include_bytes!("../../../tests/golden/dkip.golden"),
    ),
    (
        "riscv.golden",
        include_bytes!("../../../tests/golden/riscv.golden"),
    ),
    (
        "sampled.golden",
        include_bytes!("../../../tests/golden/sampled.golden"),
    ),
];

/// FNV-1a over the [`RESULT_GOLDENS`] in order, computed at compile time
/// so opening a store hashes nothing. A change that moves any simulated
/// result re-blesses a golden and so changes this digest. It is part of the
/// cache salt, so such a change invalidates every cached result, with no
/// counter to remember to bump.
pub const RESULTS_DIGEST: u128 = {
    let mut hash = fnv1a_128(b"");
    let mut i = 0;
    while i < RESULT_GOLDENS.len() {
        hash = fnv1a_128_continue(hash, RESULT_GOLDENS[i].1);
        i += 1;
    }
    hash
};

/// On-disk entry format version (first line of every entry file).
pub const STORE_VERSION: &str = "dkip-store v1";

/// How many times [`ResultStore::insert`] attempts a write before giving
/// up and degrading the store to uncached operation. Attempts after the
/// first back off 5 ms → 20 ms → … (×4 per attempt, capped at 50 ms):
/// long enough to ride out a transient hiccup, short enough that a dead
/// filesystem costs each worker well under a tenth of a second, once.
pub const WRITE_ATTEMPTS: u32 = 3;

/// A verified cache entry: everything needed to reconstruct a
/// [`crate::JobResult`] without re-simulating.
#[derive(Debug, Clone, PartialEq)]
pub struct StoredResult {
    /// The simulated statistics, parsed back from the stored document.
    pub stats: SimStats,
    /// Instructions the original run covered (`JobResult::covered`).
    pub covered: u64,
}

/// A content-addressed result store rooted at one directory.
///
/// Cloning is cheap and shares the hit/miss counters, so a figure binary
/// that runs several sweeps through clones of one store still reports
/// per-process totals (see [`ResultStore::hits`]).
#[derive(Debug, Clone)]
pub struct ResultStore {
    root: PathBuf,
    salt: String,
    hits: Arc<AtomicU64>,
    misses: Arc<AtomicU64>,
    write_errors: Arc<AtomicU64>,
    degraded: Arc<AtomicBool>,
}

impl ResultStore {
    /// Opens (creating if needed) a store rooted at `root`.
    ///
    /// # Errors
    ///
    /// Returns the I/O error when the directory cannot be created — callers
    /// surface this like a malformed `threads=` value (exit 2 / panic), per
    /// the strict-knob contract.
    pub fn open(root: impl Into<PathBuf>) -> io::Result<ResultStore> {
        let root = root.into();
        fs::create_dir_all(&root)?;
        Ok(ResultStore {
            root,
            salt: Self::salt_header(),
            hits: Arc::new(AtomicU64::new(0)),
            misses: Arc::new(AtomicU64::new(0)),
            write_errors: Arc::new(AtomicU64::new(0)),
            degraded: Arc::new(AtomicBool::new(false)),
        })
    }

    /// Opens the store named by the `DKIP_CACHE` environment variable.
    /// Unset or empty/whitespace means "no store" (like `DKIP_SAMPLE`).
    ///
    /// # Panics
    ///
    /// Panics when the variable names a directory that cannot be created —
    /// an explicitly requested cache must not be dropped silently.
    #[must_use]
    pub fn from_env() -> Option<ResultStore> {
        let value = std::env::var(CACHE_ENV).ok()?;
        if value.trim().is_empty() {
            return None;
        }
        match Self::open(value.trim()) {
            Ok(store) => Some(store),
            Err(e) => panic!("invalid {CACHE_ENV}={value:?}: cannot open store: {e}"),
        }
    }

    /// The code-version salt prefixed to every key text before hashing.
    fn salt_header() -> String {
        let extra = std::env::var(CACHE_SALT_ENV).unwrap_or_default();
        format!(
            "{STORE_VERSION}\nresults={RESULTS_DIGEST:032x}\ncrate={}\nsalt={extra}\n",
            env!("CARGO_PKG_VERSION"),
        )
    }

    /// The store's root directory.
    #[must_use]
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// Derives the cache key (32 lowercase hex chars) for a job key text.
    #[must_use]
    pub fn key_for_text(&self, key_text: &str) -> String {
        key_digest(&format!("{}{key_text}", self.salt))
    }

    /// Cache hits recorded through this store (shared across clones).
    #[must_use]
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Cache misses recorded through this store (shared across clones).
    #[must_use]
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Writes that failed after exhausting every retry (shared across
    /// clones). At most 1 in practice: the first exhausted write trips the
    /// degraded flag and later inserts no longer attempt the disk.
    #[must_use]
    pub fn write_errors(&self) -> u64 {
        self.write_errors.load(Ordering::Relaxed)
    }

    /// Whether the store has degraded to uncached operation (a write
    /// exhausted its retries; see the module docs). Lookups still work —
    /// entries written before the failure keep serving hits.
    #[must_use]
    pub fn degraded(&self) -> bool {
        self.degraded.load(Ordering::Acquire)
    }

    fn entry_path(&self, key: &str) -> PathBuf {
        self.root.join(&key[..2]).join(format!("{key}.entry"))
    }

    /// Looks up a key, counting a hit or miss. Corrupted, truncated or
    /// stale-format entries are logged, removed best-effort and reported as
    /// misses — the caller recomputes and rewrites them.
    #[must_use]
    pub fn lookup(&self, key: &str) -> Option<StoredResult> {
        if chaos::should_fire(FaultPoint::StoreRead) {
            // An injected unreadable entry: a miss, exactly like the real
            // read error below — the caller recomputes.
            self.misses.fetch_add(1, Ordering::Relaxed);
            return None;
        }
        let path = self.entry_path(key);
        let text = match fs::read_to_string(&path) {
            Ok(text) => text,
            Err(_) => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                return None;
            }
        };
        match Self::parse_entry(key, &text) {
            Ok(stored) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(stored)
            }
            Err(why) => {
                eprintln!(
                    "# dkip-store: discarding corrupt entry {}: {why}",
                    path.display()
                );
                let _ = fs::remove_file(&path);
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Parses and fully verifies one entry document.
    fn parse_entry(key: &str, text: &str) -> Result<StoredResult, String> {
        let mut lines = text.lines();
        if lines.next() != Some(STORE_VERSION) {
            return Err(format!("bad header (want {STORE_VERSION:?})"));
        }
        let key_line = lines.next().unwrap_or_default();
        let stored_key = key_line
            .strip_prefix("key=")
            .ok_or_else(|| format!("bad key line {key_line:?}"))?;
        if stored_key != key {
            return Err(format!("key mismatch: entry says {stored_key}"));
        }
        let covered_line = lines.next().unwrap_or_default();
        let covered = covered_line
            .strip_prefix("covered=")
            .and_then(|v| v.parse::<u64>().ok())
            .ok_or_else(|| format!("bad covered line {covered_line:?}"))?;
        let mut next = lines.next().unwrap_or_default();
        let mut hist_sum = 0u128;
        if let Some(sum) = next.strip_prefix("hist_sum=") {
            hist_sum = sum
                .parse::<u128>()
                .map_err(|_| format!("bad hist_sum value {sum:?}"))?;
            next = lines.next().unwrap_or_default();
        }
        if next != "stats" {
            return Err(format!("expected 'stats' section, got {next:?}"));
        }
        let mut stats_text = String::new();
        let mut terminated = false;
        for line in lines {
            if line == "end" {
                terminated = true;
                break;
            }
            stats_text.push_str(line);
            stats_text.push('\n');
        }
        if !terminated {
            return Err("truncated entry (no 'end' terminator)".to_owned());
        }
        let stats = SimStats::from_kv(&stats_text, hist_sum)?;
        if stats.to_kv() != stats_text {
            return Err("stats document is not byte-stable".to_owned());
        }
        Ok(StoredResult { stats, covered })
    }

    /// Inserts a result under `key`, atomically (temp file + rename, safe
    /// against concurrent writers of the same key), retrying transient
    /// failures with capped backoff (see [`WRITE_ATTEMPTS`]).
    ///
    /// Once a write has exhausted its retries the store flips to degraded
    /// mode: the failure is logged once, [`ResultStore::write_errors`] is
    /// bumped, and every later insert returns `Ok` without touching the
    /// disk — the sweep keeps computing, just uncached. A failed attempt
    /// never leaves a partial entry behind: the document goes to a temp
    /// file first and only an already-synced file is renamed into place.
    ///
    /// # Errors
    ///
    /// Returns the final I/O error of the attempt that tripped degraded
    /// mode. Callers may ignore it — a write failure degrades caching,
    /// never correctness.
    pub fn insert(&self, key: &str, stats: &SimStats, covered: u64) -> io::Result<()> {
        if self.degraded() {
            return Ok(());
        }
        let mut delay = Duration::from_millis(5);
        let mut attempt = 0;
        loop {
            match self.try_insert(key, stats, covered) {
                Ok(()) => return Ok(()),
                Err(e) => {
                    attempt += 1;
                    if attempt >= WRITE_ATTEMPTS {
                        self.write_errors.fetch_add(1, Ordering::Relaxed);
                        if !self.degraded.swap(true, Ordering::AcqRel) {
                            eprintln!(
                                "# dkip-store: cannot write entry {key} in {} after \
                                 {WRITE_ATTEMPTS} attempts: {e} — continuing uncached",
                                self.root.display()
                            );
                        }
                        return Err(e);
                    }
                    std::thread::sleep(delay);
                    delay = (delay * 4).min(Duration::from_millis(50));
                }
            }
        }
    }

    /// One write attempt: the unretried body of [`ResultStore::insert`].
    fn try_insert(&self, key: &str, stats: &SimStats, covered: u64) -> io::Result<()> {
        if let Some(injected) = chaos::fail_io(FaultPoint::StoreWrite) {
            return Err(injected);
        }
        let path = self.entry_path(key);
        fs::create_dir_all(path.parent().expect("entry path has a shard dir"))?;
        let hist_sum = stats
            .issue_latency
            .as_ref()
            .map(|hist| format!("hist_sum={}\n", hist.sample_sum()))
            .unwrap_or_default();
        let body = format!(
            "{STORE_VERSION}\nkey={key}\ncovered={covered}\n{hist_sum}stats\n{}end\n",
            stats.to_kv()
        );
        let tmp = temp_path(&path);
        let written = (|| {
            let mut file = fs::File::create(&tmp)?;
            file.write_all(body.as_bytes())?;
            file.sync_all()?;
            fs::rename(&tmp, &path)
        })();
        if written.is_err() {
            // Never leave a torn temp file behind in the shard dir.
            let _ = fs::remove_file(&tmp);
        }
        written
    }
}

/// Numbers the temp files of this process's write attempts (see
/// [`temp_path`]).
static TEMP_SEQ: AtomicU64 = AtomicU64::new(0);

/// The temp file one write attempt at entry `path` goes through before its
/// rename: unique per process (the pid) and per attempt within a process
/// (a process-wide counter), so concurrent writers of one key, in one
/// process or several, never truncate or rename each other's file.
fn temp_path(path: &Path) -> PathBuf {
    let seq = TEMP_SEQ.fetch_add(1, Ordering::Relaxed);
    path.with_extension(format!("tmp.{}.{seq}", std::process::id()))
}

/// One shard of a sharded sweep: `parse("I/N")` selects the jobs whose
/// index is congruent to `I` modulo `N` (0-based).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardSpec {
    /// 0-based shard index, `< count`.
    pub index: usize,
    /// Total number of shards, `> 0`.
    pub count: usize,
}

impl ShardSpec {
    /// Parses `"I/N"` with `0 <= I < N` (whitespace-tolerant).
    ///
    /// # Errors
    ///
    /// Returns a human-readable message for anything else.
    pub fn parse(value: &str) -> Result<ShardSpec, String> {
        let bad = || format!("invalid shard {value:?}: expected I/N with 0 <= I < N");
        let (index, count) = value.trim().split_once('/').ok_or_else(bad)?;
        let index = index.trim().parse::<usize>().map_err(|_| bad())?;
        let count = count.trim().parse::<usize>().map_err(|_| bad())?;
        if count == 0 || index >= count {
            return Err(bad());
        }
        Ok(ShardSpec { index, count })
    }

    /// Whether job `idx` of the full sweep belongs to this shard.
    #[must_use]
    pub fn owns(&self, idx: usize) -> bool {
        idx % self.count == self.index
    }
}

impl std::fmt::Display for ShardSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}/{}", self.index, self.count)
    }
}

/// Append-only per-shard progress file, so an interrupted sweep resumes
/// from where it stopped instead of restarting.
///
/// The file holds one `done <idx>` line per completed job; anything
/// unparseable (a torn write from a kill mid-append) is skipped on load.
/// The result store remains the source of truth for the *data* — completed
/// jobs of a restarted sweep are cache hits either way — the checkpoint
/// only records which indices this shard already reported.
#[derive(Debug)]
pub struct SweepCheckpoint {
    path: PathBuf,
    done: BTreeSet<usize>,
}

impl SweepCheckpoint {
    /// Opens (or creates) the progress file for `sweep` shard `shard` under
    /// `<store root>/progress/`, loading any previously recorded progress.
    ///
    /// # Errors
    ///
    /// Returns the I/O error when the progress directory cannot be created.
    pub fn open(store: &ResultStore, sweep: &str, shard: ShardSpec) -> io::Result<SweepCheckpoint> {
        let dir = store.root().join("progress");
        fs::create_dir_all(&dir)?;
        let sanitized: String = sweep
            .chars()
            .map(|c| {
                if c.is_ascii_alphanumeric() || c == '-' || c == '_' {
                    c
                } else {
                    '_'
                }
            })
            .collect();
        let path = dir.join(format!(
            "{sanitized}.{}-of-{}.progress",
            shard.index, shard.count
        ));
        let mut done = BTreeSet::new();
        if let Ok(text) = fs::read_to_string(&path) {
            for line in text.lines() {
                if let Some(idx) = line.strip_prefix("done ").and_then(|v| v.parse().ok()) {
                    done.insert(idx);
                }
            }
        }
        Ok(SweepCheckpoint { path, done })
    }

    /// Whether job `idx` was already recorded as complete.
    #[must_use]
    pub fn is_done(&self, idx: usize) -> bool {
        self.done.contains(&idx)
    }

    /// How many jobs this shard has recorded as complete.
    #[must_use]
    pub fn len(&self) -> usize {
        self.done.len()
    }

    /// Whether no progress has been recorded yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.done.is_empty()
    }

    /// Records job `idx` as complete (append + flush; idempotent).
    pub fn mark(&mut self, idx: usize) {
        if !self.done.insert(idx) {
            return;
        }
        let appended = fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&self.path)
            .and_then(|mut file| {
                file.write_all(format!("done {idx}\n").as_bytes())?;
                file.sync_all()
            });
        if let Err(e) = appended {
            eprintln!(
                "# dkip-store: cannot record progress in {}: {e}",
                self.path.display()
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("dkip-store-test-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn sample_stats() -> SimStats {
        SimStats {
            cycles: 100,
            committed: 250,
            fetched: 260,
            ..SimStats::default()
        }
    }

    #[test]
    fn insert_then_lookup_round_trips() {
        let store = ResultStore::open(scratch("roundtrip")).unwrap();
        let key = store.key_for_text("machine=test\n");
        assert_eq!(key.len(), 32);
        assert!(store.lookup(&key).is_none());
        let stats = sample_stats();
        store.insert(&key, &stats, 250).unwrap();
        let stored = store.lookup(&key).expect("entry just written");
        assert_eq!(stored.stats.to_kv(), stats.to_kv());
        assert_eq!(stored.covered, 250);
        assert_eq!(store.hits(), 1);
        assert_eq!(store.misses(), 1);
    }

    #[test]
    fn histogram_sum_survives_the_store() {
        let mut hist = dkip_model::Histogram::new(10, 4);
        hist.record(7);
        hist.record(23);
        hist.record(500);
        let sum = hist.sample_sum();
        let stats = SimStats {
            cycles: 9,
            committed: 3,
            issue_latency: Some(hist),
            ..SimStats::default()
        };
        let store = ResultStore::open(scratch("hist")).unwrap();
        let key = store.key_for_text("k");
        store.insert(&key, &stats, 3).unwrap();
        let stored = store.lookup(&key).unwrap();
        assert_eq!(stored.stats.to_kv(), stats.to_kv());
        assert_eq!(stored.stats.issue_latency.unwrap().sample_sum(), sum);
    }

    #[test]
    fn corrupt_entries_are_discarded_and_rewritten() {
        let store = ResultStore::open(scratch("corrupt")).unwrap();
        let key = store.key_for_text("k");
        let stats = sample_stats();
        store.insert(&key, &stats, 250).unwrap();
        let path = store.entry_path(&key);
        // Truncate mid-document: must become a miss, and the file goes away.
        let full = fs::read_to_string(&path).unwrap();
        fs::write(&path, &full[..full.len() / 2]).unwrap();
        assert!(store.lookup(&key).is_none());
        assert!(!path.exists(), "corrupt entry removed");
        // Tampered counter: the internal cross-checks reject it.
        store.insert(&key, &stats, 250).unwrap();
        let tampered = fs::read_to_string(&path)
            .unwrap()
            .replace("committed=250", "committed=251");
        fs::write(&path, tampered).unwrap();
        assert!(store.lookup(&key).is_none());
        // Recompute path: rewriting restores service.
        store.insert(&key, &stats, 250).unwrap();
        assert_eq!(store.lookup(&key).unwrap().stats.to_kv(), stats.to_kv());
    }

    #[test]
    fn every_write_attempt_gets_its_own_temp_file() {
        let store = ResultStore::open(scratch("temp")).unwrap();
        let path = store.entry_path(&store.key_for_text("k"));
        let (first, second) = (temp_path(&path), temp_path(&path));
        assert_ne!(first, second, "two attempts at one key share a temp file");
        assert_eq!(
            first.parent(),
            path.parent(),
            "renames stay in the shard dir"
        );
    }

    #[test]
    fn keys_depend_on_the_text_and_clones_share_counters() {
        let store = ResultStore::open(scratch("keys")).unwrap();
        assert_ne!(store.key_for_text("a"), store.key_for_text("b"));
        let clone = store.clone();
        let _ = clone.lookup(&store.key_for_text("a"));
        assert_eq!(store.misses(), 1, "clones share the miss counter");
    }

    #[test]
    fn shard_spec_parses_strictly() {
        assert_eq!(
            ShardSpec::parse("1/4"),
            Ok(ShardSpec { index: 1, count: 4 })
        );
        assert_eq!(
            ShardSpec::parse(" 0/1 "),
            Ok(ShardSpec { index: 0, count: 1 })
        );
        assert!(ShardSpec::parse("4/4").is_err());
        assert!(ShardSpec::parse("0/0").is_err());
        assert!(ShardSpec::parse("1").is_err());
        assert!(ShardSpec::parse("a/b").is_err());
        let shard = ShardSpec::parse("2/3").unwrap();
        let owned: Vec<usize> = (0..9).filter(|&i| shard.owns(i)).collect();
        assert_eq!(owned, vec![2, 5, 8]);
        assert_eq!(shard.to_string(), "2/3");
    }

    #[test]
    fn checkpoints_persist_across_reopens_and_skip_torn_lines() {
        let store = ResultStore::open(scratch("ckpt")).unwrap();
        let shard = ShardSpec { index: 0, count: 1 };
        let mut ckpt = SweepCheckpoint::open(&store, "golden all", shard).unwrap();
        assert!(ckpt.is_empty());
        ckpt.mark(0);
        ckpt.mark(2);
        ckpt.mark(2); // idempotent
        drop(ckpt);
        // Simulate a torn final append.
        let path = store
            .root()
            .join("progress")
            .join("golden_all.0-of-1.progress");
        let mut text = fs::read_to_string(&path).unwrap();
        text.push_str("done 7"); // no trailing newline — parses fine
        text.push_str("\ndone "); // torn line — skipped
        fs::write(&path, text).unwrap();
        let reopened = SweepCheckpoint::open(&store, "golden all", shard).unwrap();
        assert_eq!(reopened.len(), 3);
        assert!(reopened.is_done(0));
        assert!(!reopened.is_done(1));
        assert!(reopened.is_done(2));
        assert!(reopened.is_done(7));
    }
}
