//! A zero-dependency leveled JSON logger: the serve path's flight
//! recorder.
//!
//! The daemon needs logs, but the workspace's no-ecosystem-crates rule
//! puts `tracing`/`log` off the table and the engine's determinism
//! contract forbids anything that could perturb simulation output.
//! This module threads the same needle the [`Recorder`]
//! does:
//!
//! * a **disabled** [`Logger`] (the default) is a true no-op — no
//!   allocation, no lock, no clock read, so lineage/logging-on runs
//!   stay bit-identical to logging-off;
//! * an **enabled** logger keeps the last `capacity` entries in a ring
//!   buffer (a flight recorder: old entries are overwritten, never
//!   block the writer), optionally teeing each entry as a JSON line to
//!   a file sink;
//! * a **rate limiter** caps entries per one-second window so a
//!   log-storming failure mode cannot turn the logger into the outage;
//! * every lock is poison-recovering and the file sink swallows I/O
//!   errors into a counter, so a panicking worker (or a full disk)
//!   never takes logging — or the daemon — down with it.
//!
//! Entries count into `log_entries_total{level}`,
//! `log_rate_limited_total` and `log_sink_errors_total` when the
//! logger is built over an enabled recorder, so the flight recorder's
//! own health is visible in `/metrics`.

use std::collections::VecDeque;
use std::fmt::Write as _;
use std::fs::{File, OpenOptions};
use std::io::Write as _;
use std::path::Path;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::{Instant, SystemTime, UNIX_EPOCH};

use crate::json::json_escape;
use crate::metrics::Counter;
use crate::recorder::Recorder;

/// Entries admitted per one-second window before rate limiting kicks
/// in. Generous for a daemon that logs state transitions, hostile to a
/// loop that logs per event.
const RATE_LIMIT_PER_SEC: u64 = 4096;

/// Default ring-buffer capacity when none is given.
pub const DEFAULT_LOG_CAPACITY: usize = 4096;

/// Log severity, ordered `Debug < Info < Warn < Error`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum LogLevel {
    /// Diagnostic detail, off by default in the daemon.
    Debug,
    /// Normal state transitions (startup, resume, checkpoint).
    Info,
    /// Degraded but serving (shedding, torn WAL tail, sink errors).
    Warn,
    /// A component failed (tick panic, WAL append error).
    Error,
}

impl LogLevel {
    /// The lowercase wire name (`"debug"`, `"info"`, …).
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            LogLevel::Debug => "debug",
            LogLevel::Info => "info",
            LogLevel::Warn => "warn",
            LogLevel::Error => "error",
        }
    }

    /// Parses a wire name back into a level.
    ///
    /// # Errors
    ///
    /// Returns the offending string when it names no level.
    pub fn parse(s: &str) -> Result<Self, String> {
        match s {
            "debug" => Ok(LogLevel::Debug),
            "info" => Ok(LogLevel::Info),
            "warn" => Ok(LogLevel::Warn),
            "error" => Ok(LogLevel::Error),
            other => Err(format!("unknown log level {other:?} (debug|info|warn|error)")),
        }
    }
}

/// One recorded log entry.
#[derive(Debug, Clone)]
pub struct LogEntry {
    /// Monotonic sequence number (gaps mark rate-limited entries).
    pub seq: u64,
    /// Wall-clock milliseconds since the Unix epoch.
    pub unix_ms: u64,
    /// Severity.
    pub level: LogLevel,
    /// Emitting component (`serve`, `wal`, `lineage`, `engine`, …).
    pub target: String,
    /// Human-readable message.
    pub message: String,
    /// Structured key/value context.
    pub fields: Vec<(String, String)>,
}

impl LogEntry {
    /// Renders the entry as one JSON object (one line, no trailing
    /// newline) — the JSONL sink format and the `entries` element of
    /// [`Logger::to_json`].
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(96 + self.message.len());
        let _ = write!(
            out,
            "{{\"seq\": {}, \"ts_ms\": {}, \"level\": \"{}\", \"target\": \"{}\", \"msg\": \"{}\"",
            self.seq,
            self.unix_ms,
            self.level.as_str(),
            json_escape(&self.target),
            json_escape(&self.message),
        );
        if !self.fields.is_empty() {
            out.push_str(", \"fields\": {");
            for (i, (k, v)) in self.fields.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                let _ = write!(out, "\"{}\": \"{}\"", json_escape(k), json_escape(v));
            }
            out.push('}');
        }
        out.push('}');
        out
    }
}

#[derive(Debug)]
struct LogState {
    entries: VecDeque<LogEntry>,
    /// Next sequence number to assign.
    seq: u64,
    /// Ring-buffer evictions (flight-recorder overwrites).
    overwritten: u64,
    /// Entries refused by the rate limiter.
    rate_limited: u64,
    /// Start of the current rate-limit window.
    window_start: Instant,
    /// Entries admitted in the current window.
    window_count: u64,
    /// Optional JSONL tee; write errors are counted, never propagated.
    sink: Option<File>,
    sink_errors: u64,
}

#[derive(Debug)]
struct LogInner {
    min_level: LogLevel,
    capacity: usize,
    state: Mutex<LogState>,
    entries_total: [Counter; 4],
    rate_limited_total: Counter,
    sink_errors_total: Counter,
}

/// The cloneable logging handle. [`Logger::disabled`] (also
/// [`Default`]) is fully inert; clones of an enabled logger share one
/// ring buffer, so the daemon's threads interleave into a single
/// ordered flight recording.
#[derive(Debug, Clone, Default)]
pub struct Logger {
    inner: Option<Arc<LogInner>>,
}

impl Logger {
    /// The no-op logger: never locks, never allocates, never reads the
    /// clock.
    #[must_use]
    pub fn disabled() -> Self {
        Logger { inner: None }
    }

    /// A live logger keeping the last `capacity` entries at or above
    /// `min_level`. Its health counters (`log_entries_total{level}`,
    /// `log_rate_limited_total`, `log_sink_errors_total`) register on
    /// `recorder` — pass a disabled recorder to log without metrics.
    #[must_use]
    pub fn enabled(capacity: usize, min_level: LogLevel, recorder: &Recorder) -> Self {
        let capacity = capacity.max(1);
        let entries_total = [
            recorder.counter_with("log_entries_total", "level", "debug"),
            recorder.counter_with("log_entries_total", "level", "info"),
            recorder.counter_with("log_entries_total", "level", "warn"),
            recorder.counter_with("log_entries_total", "level", "error"),
        ];
        Logger {
            inner: Some(Arc::new(LogInner {
                min_level,
                capacity,
                state: Mutex::new(LogState {
                    entries: VecDeque::with_capacity(capacity.min(1024)),
                    seq: 0,
                    overwritten: 0,
                    rate_limited: 0,
                    window_start: Instant::now(),
                    window_count: 0,
                    sink: None,
                    sink_errors: 0,
                }),
                entries_total,
                rate_limited_total: recorder.counter("log_rate_limited_total"),
                sink_errors_total: recorder.counter("log_sink_errors_total"),
            })),
        }
    }

    /// Whether this handle records anything at all.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Whether an entry at `level` would be recorded — the guard for
    /// hot paths that would otherwise format a message for nothing.
    /// Lock-free: reads only the configured minimum.
    #[must_use]
    pub fn enabled_for(&self, level: LogLevel) -> bool {
        self.inner.as_ref().is_some_and(|inner| level >= inner.min_level)
    }

    /// Tees every subsequent entry to `path` as JSON lines (appending;
    /// the file is created if missing). A no-op on a disabled logger.
    ///
    /// # Errors
    ///
    /// Returns the I/O error when the file cannot be opened. Errors on
    /// later writes are *counted* (`log_sink_errors_total`), not
    /// returned — a full disk must not take the daemon down.
    pub fn set_file_sink(&self, path: &Path) -> std::io::Result<()> {
        if let Some(inner) = &self.inner {
            let file = OpenOptions::new().create(true).append(true).open(path)?;
            lock(&inner.state).sink = Some(file);
        }
        Ok(())
    }

    /// Records an entry. Fields are borrowed key/value pairs; they are
    /// only materialised when the entry is actually admitted.
    pub fn log(&self, level: LogLevel, target: &str, message: &str, fields: &[(&str, &str)]) {
        let Some(inner) = &self.inner else { return };
        if level < inner.min_level {
            return;
        }
        let now_ms = unix_ms();
        let mut state = lock(&inner.state);
        // One-second tumbling window; errors are still subject so a
        // failing hot loop cannot starve the recorder, but the drop is
        // itself counted and visible.
        if state.window_start.elapsed().as_secs() >= 1 {
            state.window_start = Instant::now();
            state.window_count = 0;
        }
        if state.window_count >= RATE_LIMIT_PER_SEC {
            state.rate_limited += 1;
            state.seq += 1; // burn the seq so gaps betray the drop
            drop(state);
            inner.rate_limited_total.inc();
            return;
        }
        state.window_count += 1;
        let entry = LogEntry {
            seq: state.seq,
            unix_ms: now_ms,
            level,
            target: target.to_owned(),
            message: message.to_owned(),
            fields: fields.iter().map(|(k, v)| ((*k).to_owned(), (*v).to_owned())).collect(),
        };
        state.seq += 1;
        if state.entries.len() >= inner.capacity {
            state.entries.pop_front();
            state.overwritten += 1;
        }
        if let Some(sink) = state.sink.as_mut() {
            let line = entry.to_json();
            if writeln!(sink, "{line}").is_err() {
                state.sink_errors += 1;
                inner.sink_errors_total.inc();
            }
        }
        state.entries.push_back(entry);
        drop(state);
        inner.entries_total[level as usize].inc();
    }

    /// Records a `Debug` entry.
    pub fn debug(&self, target: &str, message: &str, fields: &[(&str, &str)]) {
        self.log(LogLevel::Debug, target, message, fields);
    }

    /// Records an `Info` entry.
    pub fn info(&self, target: &str, message: &str, fields: &[(&str, &str)]) {
        self.log(LogLevel::Info, target, message, fields);
    }

    /// Records a `Warn` entry.
    pub fn warn(&self, target: &str, message: &str, fields: &[(&str, &str)]) {
        self.log(LogLevel::Warn, target, message, fields);
    }

    /// Records an `Error` entry.
    pub fn error(&self, target: &str, message: &str, fields: &[(&str, &str)]) {
        self.log(LogLevel::Error, target, message, fields);
    }

    /// A copy of the buffered entries, oldest first.
    #[must_use]
    pub fn entries(&self) -> Vec<LogEntry> {
        match &self.inner {
            None => Vec::new(),
            Some(inner) => lock(&inner.state).entries.iter().cloned().collect(),
        }
    }

    /// The `GET /logs.json` document: buffered entries plus the flight
    /// recorder's own loss accounting.
    ///
    /// ```json
    /// {"entries": [...], "overwritten": 0, "rate_limited": 0,
    ///  "sink_errors": 0}
    /// ```
    #[must_use]
    pub fn to_json(&self) -> String {
        let Some(inner) = &self.inner else {
            return "{\"entries\": [], \"overwritten\": 0, \"rate_limited\": 0, \
                    \"sink_errors\": 0}\n"
                .to_owned();
        };
        let state = lock(&inner.state);
        let mut out = String::with_capacity(64 + state.entries.len() * 128);
        out.push_str("{\"entries\": [");
        for (i, entry) in state.entries.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n ");
            }
            out.push_str(&entry.to_json());
        }
        let _ = writeln!(
            out,
            "], \"overwritten\": {}, \"rate_limited\": {}, \"sink_errors\": {}}}",
            state.overwritten, state.rate_limited, state.sink_errors,
        );
        out
    }
}

fn lock(state: &Mutex<LogState>) -> MutexGuard<'_, LogState> {
    // The buffer is structurally valid at every instruction boundary;
    // recovering from a poisoned lock keeps the flight recorder alive
    // through worker panics — its entire reason to exist.
    state.lock().unwrap_or_else(PoisonError::into_inner)
}

fn unix_ms() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map_or(0, |d| u64::try_from(d.as_millis()).unwrap_or(u64::MAX))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_logger_is_inert() {
        let log = Logger::disabled();
        assert!(!log.is_enabled());
        assert!(!log.enabled_for(LogLevel::Error));
        log.error("serve", "nothing happens", &[]);
        assert!(log.entries().is_empty());
        assert!(Logger::default().to_json().contains("\"entries\": []"));
    }

    #[test]
    fn entries_are_ordered_filtered_and_counted() {
        let recorder = Recorder::enabled();
        let log = Logger::enabled(16, LogLevel::Info, &recorder);
        log.debug("serve", "below threshold", &[]);
        log.info("serve", "first", &[("round", "3")]);
        log.warn("wal", "second", &[]);
        assert!(log.enabled_for(LogLevel::Info));
        assert!(!log.enabled_for(LogLevel::Debug));
        let entries = log.entries();
        assert_eq!(entries.len(), 2);
        assert_eq!(entries[0].message, "first");
        assert_eq!(entries[0].fields, vec![("round".to_owned(), "3".to_owned())]);
        assert!(entries[0].seq < entries[1].seq);
        let snap = recorder.snapshot();
        assert_eq!(snap.counter_value("log_entries_total", Some(("level", "info"))), Some(1));
        assert_eq!(snap.counter_value("log_entries_total", Some(("level", "warn"))), Some(1));
        assert_eq!(snap.counter_value("log_entries_total", Some(("level", "debug"))), Some(0));
    }

    #[test]
    fn ring_buffer_overwrites_oldest() {
        let log = Logger::enabled(2, LogLevel::Debug, &Recorder::disabled());
        for i in 0..5 {
            log.info("t", &format!("m{i}"), &[]);
        }
        let entries = log.entries();
        assert_eq!(entries.len(), 2);
        assert_eq!(entries[0].message, "m3");
        assert_eq!(entries[1].message, "m4");
        assert!(log.to_json().contains("\"overwritten\": 3"));
    }

    #[test]
    fn rate_limit_drops_are_counted_not_fatal() {
        let recorder = Recorder::enabled();
        let log = Logger::enabled(8, LogLevel::Debug, &recorder);
        for _ in 0..(RATE_LIMIT_PER_SEC + 10) {
            log.info("flood", "x", &[]);
        }
        let snap = recorder.snapshot();
        assert_eq!(snap.counter_value("log_rate_limited_total", None), Some(10));
        assert!(log.to_json().contains("\"rate_limited\": 10"));
    }

    #[test]
    fn json_document_parses_and_escapes() {
        let log = Logger::enabled(8, LogLevel::Debug, &Recorder::disabled());
        log.warn("serve", "quote \" and \\ back", &[("path", "a\"b")]);
        let doc = crate::parse_json(&log.to_json()).expect("logs.json parses");
        let entries = doc.get("entries").and_then(crate::JsonValue::as_array).map(<[_]>::len);
        assert_eq!(entries, Some(1));
    }

    #[test]
    fn file_sink_tees_json_lines() {
        let dir = std::env::temp_dir().join(format!("paydemand-log-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("sink.jsonl");
        let _ = std::fs::remove_file(&path);
        let log = Logger::enabled(8, LogLevel::Debug, &Recorder::disabled());
        log.set_file_sink(&path).unwrap();
        log.info("serve", "one", &[]);
        log.error("wal", "two", &[("err", "boom")]);
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        for line in lines {
            crate::parse_json(line).expect("sink line parses");
        }
        let _ = std::fs::remove_file(&path);
    }
}
