//! The benchmark's own span recorder. Spans are taken around calls into
//! the program's public functions, kept in memory, and written out as
//! JSON lines when the run ends. Spans of one request share its `req` id.

use std::io::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use crate::report::Report;
use crate::{Opts, STATE};

struct Span {
    id: u64,
    parent: u64,
    req: u64,
    name: String,
    start_us: f64,
    end_us: f64,
}

/// An in-memory span log. Disabled logs hand out ids but keep nothing, so
/// untraced runs pay only for the clock reads the metrics need anyway.
pub struct Spans {
    enabled: bool,
    origin: Instant,
    next: AtomicU64,
    log: Mutex<Vec<Span>>,
}

impl Spans {
    /// A log that records only when `enabled`.
    pub fn new(enabled: bool) -> Spans {
        Spans {
            enabled,
            origin: Instant::now(),
            next: AtomicU64::new(1),
            log: Mutex::new(Vec::new()),
        }
    }

    /// Records a finished span and returns its id (0 when disabled).
    pub fn record(&self, name: &str, parent: u64, req: u64, start: Instant, end: Instant) -> u64 {
        if !self.enabled {
            return 0;
        }
        let id = self.next.fetch_add(1, Ordering::Relaxed);
        let us = |t: Instant| t.duration_since(self.origin).as_secs_f64() * 1e6;
        let span = Span {
            id,
            parent,
            req,
            name: name.to_string(),
            start_us: us(start),
            end_us: us(end),
        };
        self.log.lock().expect("span log poisoned").push(span);
        id
    }

    /// Reserves an id for a span whose children finish before it does.
    pub fn open(&self) -> u64 {
        if self.enabled {
            self.next.fetch_add(1, Ordering::Relaxed)
        } else {
            0
        }
    }

    /// Records a span under an id reserved with [`Spans::open`].
    pub fn close(&self, id: u64, name: &str, parent: u64, start: Instant) {
        if !self.enabled {
            return;
        }
        let us = |t: Instant| t.duration_since(self.origin).as_secs_f64() * 1e6;
        let span = Span {
            id,
            parent,
            req: 0,
            name: name.to_string(),
            start_us: us(start),
            end_us: us(Instant::now()),
        };
        self.log.lock().expect("span log poisoned").push(span);
    }

    /// Times `f` as one span and returns its result and duration in
    /// seconds.
    pub fn time<R>(&self, name: &str, parent: u64, f: impl FnOnce() -> R) -> (R, f64) {
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        self.record(name, parent, 0, start, end);
        (out, end.duration_since(start).as_secs_f64())
    }

    /// Writes the spans to `.perfbench/traces/` and notes where.
    pub fn write_trace(&self, opts: &Opts, report: &mut Report) -> Result<(), String> {
        let name = format!(
            "{}-seed{}-{}.jsonl",
            opts.workload,
            opts.seed,
            std::process::id()
        );
        let path = Path::new(STATE).join("traces").join(name);
        let count = self
            .write(&path)
            .map_err(|e| format!("{}: {e}", path.display()))?;
        report.note(format!("trace: {count} spans in {}", path.display()));
        Ok(())
    }

    /// Writes every span as one JSON object per line.
    fn write(&self, path: &Path) -> std::io::Result<usize> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let log = self.log.lock().expect("span log poisoned");
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in log.iter() {
            writeln!(
                out,
                "{{\"id\": {}, \"parent\": {}, \"req\": {}, \"name\": \"{}\", \"start_us\": {:.1}, \"end_us\": {:.1}}}",
                s.id, s.parent, s.req, s.name, s.start_us, s.end_us
            )?;
        }
        out.flush()?;
        Ok(log.len())
    }
}
