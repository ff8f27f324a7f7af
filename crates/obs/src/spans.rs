//! Parent-child span trees and the chrome `trace_event` exporter.
//!
//! PR 2's [`Span`](crate::Span) timers only fed histograms: good for
//! aggregate latency, useless for *where did round 37 go?*. This module
//! records each span as an event with a wall-clock offset, duration,
//! thread id, and — via a per-thread stack of open spans — its parent,
//! forming a tree. [`SpanLog::to_trace_json`] renders the log in the
//! chrome `trace_event` format (`"ph": "X"` complete events), so a run
//! opens directly in Perfetto or `chrome://tracing`.
//!
//! Recording is opt-in per recorder
//! ([`Recorder::enable_trace_events`](crate::Recorder::enable_trace_events));
//! without it, span creation neither allocates nor touches this module,
//! preserving the disabled-is-a-true-no-op invariant.

use std::cell::RefCell;
use std::collections::HashMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::ThreadId;
use std::time::Instant;

thread_local! {
    /// Ids of the spans currently open on this thread, innermost last.
    static OPEN_SPANS: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

/// One completed span: a node of the trace tree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanEvent {
    /// Unique id within the log (allocation order, starts at 1).
    pub id: u64,
    /// Id of the span that was open on the same thread when this one
    /// started; `None` for roots.
    pub parent: Option<u64>,
    /// Span name, e.g. `round` or `pricing`.
    pub name: String,
    /// Small dense thread number (not the OS thread id).
    pub tid: u64,
    /// Start offset from the log's origin, in nanoseconds.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub duration_ns: u64,
}

/// One sampled counter value: a point on a Perfetto counter track
/// (rendered as a `"ph": "C"` event by [`SpanLog::to_trace_json`]).
/// The allocator sampler records one per memory series per round.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CounterSample {
    /// Track name, e.g. `alloc_live_bytes:demand`.
    pub name: String,
    /// Sample offset from the log's origin, in nanoseconds.
    pub ts_ns: u64,
    /// Sampled value (bytes for the memory tracks; may be negative).
    pub value: i64,
}

/// A bounded, thread-safe log of completed spans.
///
/// Shared behind an `Arc` by every instrumented thread; events past
/// `capacity` are counted in [`SpanLog::dropped`] instead of stored, so
/// a long run cannot grow the log without bound.
#[derive(Debug)]
pub struct SpanLog {
    origin: Instant,
    capacity: usize,
    next_id: AtomicU64,
    dropped: AtomicU64,
    events: Mutex<Vec<SpanEvent>>,
    /// Counter-track samples, bounded by `capacity` independently of
    /// the span events (memory tracks must not evict spans).
    counters: Mutex<Vec<CounterSample>>,
    threads: Mutex<HashMap<ThreadId, u64>>,
}

impl SpanLog {
    /// A log that stores at most `capacity` events.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        SpanLog {
            origin: Instant::now(),
            capacity,
            next_id: AtomicU64::new(1),
            dropped: AtomicU64::new(0),
            events: Mutex::new(Vec::new()),
            counters: Mutex::new(Vec::new()),
            threads: Mutex::new(HashMap::new()),
        }
    }

    /// Records one point on the counter track `name` at the current
    /// offset. Samples past `capacity` are counted as dropped.
    ///
    /// # Panics
    ///
    /// Panics if the counter mutex was poisoned.
    pub fn record_counter(&self, name: &str, value: i64) {
        let ts_ns = saturating_ns(self.origin.elapsed());
        let mut counters = self.counters.lock().expect("counter track poisoned");
        if counters.len() < self.capacity {
            counters.push(CounterSample { name: name.to_owned(), ts_ns, value });
        } else {
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// A copy of the counter-track samples, in record order.
    ///
    /// # Panics
    ///
    /// Panics if the counter mutex was poisoned.
    #[must_use]
    pub fn counter_samples(&self) -> Vec<CounterSample> {
        self.counters.lock().expect("counter track poisoned").clone()
    }

    /// Opens a span event named `name` on the current thread. The
    /// returned guard must be `finish`ed (the RAII
    /// [`Span`](crate::Span) does this on drop).
    #[must_use]
    pub fn open(self: &Arc<Self>, name: &str) -> SpanEventGuard {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let parent = OPEN_SPANS.with(|stack| {
            let mut stack = stack.borrow_mut();
            let parent = stack.last().copied();
            stack.push(id);
            parent
        });
        SpanEventGuard {
            log: Arc::clone(self),
            id,
            parent,
            name: name.to_owned(),
            start: Instant::now(),
        }
    }

    /// Events dropped because the log was full.
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// A copy of the stored events, sorted by start offset then id.
    ///
    /// # Panics
    ///
    /// Panics if the event mutex was poisoned by a panicking thread.
    #[must_use]
    pub fn events(&self) -> Vec<SpanEvent> {
        let mut events = self.events.lock().expect("span log poisoned").clone();
        events.sort_by_key(|e| (e.start_ns, e.id));
        events
    }

    /// Renders the log as a chrome `trace_event` JSON document
    /// (`{"traceEvents": [...]}` with `"ph": "X"` complete events,
    /// timestamps in fractional microseconds). Open the output in
    /// Perfetto (<https://ui.perfetto.dev>) or `chrome://tracing`.
    ///
    /// # Panics
    ///
    /// Panics if the event mutex was poisoned by a panicking thread.
    #[must_use]
    pub fn to_trace_json(&self) -> String {
        let events = self.events();
        let counters = self.counter_samples();
        let mut out = String::from("{\"displayTimeUnit\": \"ms\", \"traceEvents\": [");
        let mut emitted = 0usize;
        for event in &events {
            if emitted > 0 {
                out.push(',');
            }
            emitted += 1;
            let parent = event.parent.map_or_else(|| "null".to_owned(), |p| p.to_string());
            let _ = write!(
                out,
                "\n  {{\"name\": \"{}\", \"cat\": \"paydemand\", \"ph\": \"X\", \
                 \"ts\": {}, \"dur\": {}, \"pid\": 1, \"tid\": {}, \
                 \"args\": {{\"id\": {}, \"parent\": {}}}}}",
                crate::json::json_escape(&event.name),
                fmt_us(event.start_ns),
                fmt_us(event.duration_ns),
                event.tid,
                event.id,
                parent,
            );
        }
        for sample in &counters {
            if emitted > 0 {
                out.push(',');
            }
            emitted += 1;
            let _ = write!(
                out,
                "\n  {{\"name\": \"{}\", \"cat\": \"paydemand\", \"ph\": \"C\", \
                 \"ts\": {}, \"pid\": 1, \"tid\": 0, \
                 \"args\": {{\"value\": {}}}}}",
                crate::json::json_escape(&sample.name),
                fmt_us(sample.ts_ns),
                sample.value,
            );
        }
        if emitted > 0 {
            out.push('\n');
        }
        out.push_str("]}\n");
        out
    }

    fn thread_number(&self) -> u64 {
        let mut threads = self.threads.lock().expect("span thread map poisoned");
        let next = threads.len() as u64 + 1;
        *threads.entry(std::thread::current().id()).or_insert(next)
    }

    fn complete(&self, guard: &SpanEventGuard) {
        let duration = guard.start.elapsed();
        OPEN_SPANS.with(|stack| {
            let mut stack = stack.borrow_mut();
            if let Some(at) = stack.iter().rposition(|&id| id == guard.id) {
                stack.remove(at);
            }
        });
        let start_ns = saturating_ns(guard.start.duration_since(self.origin));
        let event = SpanEvent {
            id: guard.id,
            parent: guard.parent,
            name: guard.name.clone(),
            tid: self.thread_number(),
            start_ns,
            duration_ns: saturating_ns(duration),
        };
        let mut events = self.events.lock().expect("span log poisoned");
        if events.len() < self.capacity {
            events.push(event);
        } else {
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// An open span event; created by [`SpanLog::open`], closed by
/// [`finish`](SpanEventGuard::finish).
#[derive(Debug)]
pub struct SpanEventGuard {
    log: Arc<SpanLog>,
    id: u64,
    parent: Option<u64>,
    name: String,
    start: Instant,
}

impl SpanEventGuard {
    /// Records the completed event into the log.
    pub fn finish(self) {
        self.log.clone().complete(&self);
    }
}

fn saturating_ns(d: std::time::Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// Nanoseconds as fractional microseconds with three decimals (the
/// `trace_event` `ts`/`dur` unit), formatted without float rounding
/// artefacts.
fn fmt_us(ns: u64) -> String {
    format!("{}.{:03}", ns / 1000, ns % 1000)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_into_a_tree_per_thread() {
        let log = Arc::new(SpanLog::new(16));
        let outer = log.open("round");
        let inner = log.open("pricing");
        inner.finish();
        let sibling = log.open("movement");
        sibling.finish();
        outer.finish();
        let root = log.open("next_round");
        root.finish();

        let events = log.events();
        assert_eq!(events.len(), 4);
        let by_name = |name: &str| events.iter().find(|e| e.name == name).unwrap();
        let round = by_name("round");
        assert_eq!(round.parent, None);
        assert_eq!(by_name("pricing").parent, Some(round.id));
        assert_eq!(by_name("movement").parent, Some(round.id));
        assert_eq!(by_name("next_round").parent, None, "stack popped on finish");
        assert!(events.iter().all(|e| e.tid == 1), "single thread numbers as 1");
    }

    #[test]
    fn threads_get_independent_stacks_and_dense_ids() {
        let log = Arc::new(SpanLog::new(64));
        std::thread::scope(|scope| {
            for _ in 0..3 {
                let log = Arc::clone(&log);
                scope.spawn(move || {
                    let outer = log.open("outer");
                    log.open("inner").finish();
                    outer.finish();
                });
            }
        });
        let events = log.events();
        assert_eq!(events.len(), 6);
        for event in events.iter().filter(|e| e.name == "inner") {
            let parent = events.iter().find(|e| Some(e.id) == event.parent).unwrap();
            assert_eq!(parent.name, "outer");
            assert_eq!(parent.tid, event.tid, "parents are same-thread");
        }
        let max_tid = events.iter().map(|e| e.tid).max().unwrap();
        assert!(max_tid <= 3, "thread numbers are dense, got {max_tid}");
    }

    #[test]
    fn capacity_bounds_the_log() {
        let log = Arc::new(SpanLog::new(2));
        for _ in 0..5 {
            log.open("s").finish();
        }
        assert_eq!(log.events().len(), 2);
        assert_eq!(log.dropped(), 3);
    }

    #[test]
    fn trace_json_is_schema_valid() {
        let log = Arc::new(SpanLog::new(16));
        let outer = log.open("round \"1\"");
        log.open("pricing").finish();
        outer.finish();
        let doc = crate::json::parse_json(&log.to_trace_json()).unwrap();
        let events = doc.get("traceEvents").unwrap().as_array().unwrap();
        assert_eq!(events.len(), 2);
        for event in events {
            assert_eq!(event.get("ph").unwrap().as_str(), Some("X"));
            assert!(event.get("ts").unwrap().as_f64().unwrap() >= 0.0);
            assert!(event.get("dur").unwrap().as_f64().unwrap() >= 0.0);
            assert!(event.get("pid").unwrap().as_u64().is_some());
            assert!(event.get("tid").unwrap().as_u64().is_some());
            assert!(event.get("name").unwrap().as_str().is_some());
        }
    }

    #[test]
    fn counter_tracks_render_as_c_events() {
        let log = Arc::new(SpanLog::new(16));
        log.open("round").finish();
        log.record_counter("memory_live_bytes", 4096);
        log.record_counter("alloc_live_bytes:demand", -128);
        let doc = crate::json::parse_json(&log.to_trace_json()).unwrap();
        let events = doc.get("traceEvents").unwrap().as_array().unwrap();
        assert_eq!(events.len(), 3);
        let c: Vec<_> =
            events.iter().filter(|e| e.get("ph").unwrap().as_str() == Some("C")).collect();
        assert_eq!(c.len(), 2, "both counter samples must render");
        assert_eq!(c[0].get("name").unwrap().as_str(), Some("memory_live_bytes"));
        assert_eq!(c[0].get("args").unwrap().get("value").unwrap().as_f64(), Some(4096.0));
        assert_eq!(c[1].get("args").unwrap().get("value").unwrap().as_f64(), Some(-128.0));
        // Samples respect the capacity bound alongside span events.
        let tiny = Arc::new(SpanLog::new(1));
        tiny.record_counter("a", 1);
        tiny.record_counter("b", 2);
        assert_eq!(tiny.counter_samples().len(), 1);
        assert_eq!(tiny.dropped(), 1);
    }

    #[test]
    fn fractional_microseconds_format_exactly() {
        assert_eq!(fmt_us(0), "0.000");
        assert_eq!(fmt_us(999), "0.999");
        assert_eq!(fmt_us(1_500), "1.500");
        assert_eq!(fmt_us(1_234_567), "1234.567");
    }
}
