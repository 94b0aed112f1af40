//! In-memory span recorder for the traced run.
//!
//! Spans are recorded only here, in the benchmark, around calls into each
//! layer's public functions: the simulator itself carries no tracing. A
//! span covering a batch of calls (every `Emulator::step` of one kernel,
//! every `MemoryHierarchy::access` of one replay) carries the batch size in
//! `count`, so per-call costs are `duration / count`. The spans are kept in
//! memory and written out as JSON lines when the run ends.

use std::fmt::Write as _;
use std::path::Path;
use std::sync::Mutex;
use std::time::{Duration, Instant};

#[derive(Debug, Clone)]
pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub count: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

#[derive(Debug)]
pub struct Spans {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Spans {
    pub fn new() -> Self {
        Spans {
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Records a finished span and returns its id (usable as a parent).
    pub fn record(
        &self,
        name: &str,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
        count: u64,
    ) -> usize {
        let span = Span {
            name: name.to_owned(),
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent,
            count,
        };
        let mut spans = self.spans.lock().expect("span recorder poisoned");
        spans.push(span);
        spans.len() - 1
    }

    /// Opens a span now; close it with [`Spans::close`] once its children
    /// are recorded.
    pub fn open(&self, name: &str, parent: Option<usize>) -> usize {
        let now = Instant::now();
        self.record(name, parent, now, now, 0)
    }

    pub fn close(&self, id: usize, count: u64) {
        let end = self.ns(Instant::now());
        let mut spans = self.spans.lock().expect("span recorder poisoned");
        spans[id].end_ns = end;
        spans[id].count = count;
    }

    /// Runs `f` inside a span whose `count` is the number `f` returns
    /// alongside its result.
    pub fn time<T>(
        &self,
        name: &str,
        parent: Option<usize>,
        f: impl FnOnce() -> (T, u64),
    ) -> (T, Duration) {
        let start = Instant::now();
        let (value, count) = f();
        let end = Instant::now();
        self.record(name, parent, start, end, count);
        (value, end - start)
    }

    /// Total duration and total count of every span called `name`.
    pub fn totals(&self, name: &str) -> (u64, u64) {
        let spans = self.spans.lock().expect("span recorder poisoned");
        spans
            .iter()
            .filter(|s| s.name == name)
            .fold((0, 0), |(ns, n), s| (ns + s.duration_ns(), n + s.count))
    }

    /// Mean nanoseconds per counted call over the spans called `name`.
    pub fn ns_per(&self, name: &str) -> f64 {
        let (ns, count) = self.totals(name);
        if count == 0 {
            f64::NAN
        } else {
            ns as f64 / count as f64
        }
    }

    /// Writes every span as one JSON object per line.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let spans = self.spans.lock().expect("span recorder poisoned");
        let mut out = String::new();
        for (id, s) in spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\": {id}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \
                 \"parent\": {parent}, \"count\": {}}}",
                s.name.replace('\\', "\\\\").replace('"', "\\\""),
                s.start_ns,
                s.end_ns,
                s.count
            );
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_total_by_name() {
        let spans = Spans::new();
        let root = spans.open("root", None);
        let ((), _) = spans.time("leaf", Some(root), || ((), 10));
        let ((), _) = spans.time("leaf", Some(root), || ((), 30));
        spans.close(root, 1);
        let (_, count) = spans.totals("leaf");
        assert_eq!(count, 40);
        assert!(spans.ns_per("missing").is_nan());
        let dir = std::env::temp_dir().join(format!("perfbench-spans-{}", std::process::id()));
        let path = dir.join("spans.jsonl");
        spans.write(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text.lines().count(), 3);
        assert!(text.contains("\"parent\": 0"));
        let _ = std::fs::remove_dir_all(dir);
    }
}
