//! Span/event tracing with thread-local ring buffers.
//!
//! Design goals, in order:
//!
//! 1. **Zero cost when disabled.** Every entry point starts with one
//!    `Relaxed` load of a global [`AtomicBool`]; when it reads `false`
//!    nothing else happens — no allocation, no clock read, no lock.
//! 2. **No locks on the hot path when enabled.** Events land in a
//!    thread-local ring buffer. The only global lock (the sink) is taken
//!    when a thread exits or when [`drain`] is called.
//! 3. **Deterministic ordering.** Every span/event draws a ticket from a
//!    global sequence counter *at start time*; [`drain`] sorts by that
//!    ticket, so a single-threaded run always produces the same event
//!    order regardless of timer resolution.
//!
//! Ring semantics: each thread keeps at most `capacity` events (set by
//! [`enable`]); when full, the oldest event is overwritten and a dropped
//! counter ticks up. This bounds memory on pathological runs while
//! keeping the most recent window, which is what you want when staring
//! at a trace of the run that just misbehaved.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// The categories of work the RID pipeline distinguishes.
///
/// All but the last two are *span* kinds — they bracket a region of
/// wall clock. The last two are *instant* kinds — point events recording
/// a degradation or an injected fault.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum SpanKind {
    /// Parsing + lowering RIL source onto the IR.
    Lower,
    /// Path enumeration over a function's CFG.
    Enumerate,
    /// Symbolic execution of the enumerated paths (tree or per-path).
    Exec,
    /// A single difference-logic satisfiability query.
    Solve,
    /// Inconsistent-path-pair checking over a function's path entries.
    IppCheck,
    /// Second-stage refutation of one IPP report (exact re-check of the
    /// joint constraints); the value records the verdict (0 = refuted,
    /// 1 = confirmed, 2 = inconclusive).
    Refute,
    /// A persistent-summary-cache probe for one component.
    CacheLookup,
    /// One request (or coalesced request batch) executed by the
    /// `rid serve` daemon; the value records how many client requests
    /// the execution answered (> 1 only for coalesced `patch` batches).
    Serve,
    /// Serialization of one resident project to the daemon's state
    /// directory; the value records the snapshot size in bytes.
    Snapshot,
    /// Rebuild of one resident project from a snapshot at daemon
    /// startup; the value records the snapshot size in bytes.
    Restore,
    /// Replay of the write-ahead patch journal after a restore; the
    /// value records how many journaled requests were re-applied.
    JournalReplay,
    /// Instant event: a function degraded (budget, panic, retry…).
    Degrade,
    /// Instant event: the fault plan injected a fault.
    Fault,
}

impl SpanKind {
    /// Stable lowercase label used in JSONL `kind` and Chrome `cat`.
    pub fn label(self) -> &'static str {
        match self {
            SpanKind::Lower => "lower",
            SpanKind::Enumerate => "enumerate",
            SpanKind::Exec => "exec",
            SpanKind::Solve => "solve",
            SpanKind::IppCheck => "ipp-check",
            SpanKind::Refute => "refute",
            SpanKind::CacheLookup => "cache-lookup",
            SpanKind::Serve => "serve",
            SpanKind::Snapshot => "snapshot",
            SpanKind::Restore => "restore",
            SpanKind::JournalReplay => "journal-replay",
            SpanKind::Degrade => "degrade",
            SpanKind::Fault => "fault",
        }
    }

    /// Inverse of [`SpanKind::label`]: parses the stable lowercase label
    /// back into its kind. `None` for unknown labels, so readers of
    /// foreign `.trace.jsonl` files can skip lines written by a newer
    /// schema instead of failing.
    pub fn from_label(label: &str) -> Option<SpanKind> {
        SpanKind::all().into_iter().find(|k| k.label() == label)
    }

    /// All span kinds, in pipeline order.
    pub fn all() -> [SpanKind; 13] {
        [
            SpanKind::Lower,
            SpanKind::Enumerate,
            SpanKind::Exec,
            SpanKind::Solve,
            SpanKind::IppCheck,
            SpanKind::Refute,
            SpanKind::CacheLookup,
            SpanKind::Serve,
            SpanKind::Snapshot,
            SpanKind::Restore,
            SpanKind::JournalReplay,
            SpanKind::Degrade,
            SpanKind::Fault,
        ]
    }
}

/// One recorded span or instant event.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceEvent {
    /// Category of work.
    pub kind: SpanKind,
    /// Human-readable name (usually the function under analysis).
    pub name: String,
    /// Small dense id of the recording thread.
    pub thread: usize,
    /// Global start-order ticket; the deterministic sort key.
    pub seq: u64,
    /// Nanoseconds since the trace epoch at span start.
    pub start_ns: u64,
    /// Span duration in nanoseconds (0 for instant events).
    pub dur_ns: u64,
    /// True for point events (`Degrade`, `Fault`).
    pub instant: bool,
    /// Free payload: path counts, solver depth, snapshot bytes…
    pub value: u64,
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static CAPACITY: AtomicUsize = AtomicUsize::new(DEFAULT_CAPACITY);
static SEQ: AtomicU64 = AtomicU64::new(0);
static NEXT_THREAD: AtomicUsize = AtomicUsize::new(0);
static DROPPED: AtomicU64 = AtomicU64::new(0);
/// Bumped by every [`enable`]; thread-local buffers compare against it
/// so the participation census below restarts per tracing session.
static GENERATION: AtomicU64 = AtomicU64::new(0);
/// Threads that recorded at least one event this generation.
static PARTICIPATING: AtomicUsize = AtomicUsize::new(0);
/// Participating threads that have flushed at least once this
/// generation — at quiescence the two counts must agree, or spans are
/// being lost (see [`flush_counts`]).
static FLUSHED_THREADS: AtomicUsize = AtomicUsize::new(0);

/// Default per-thread ring capacity (events).
pub const DEFAULT_CAPACITY: usize = 1 << 16;

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

fn sink() -> &'static Mutex<Vec<TraceEvent>> {
    static SINK: OnceLock<Mutex<Vec<TraceEvent>>> = OnceLock::new();
    SINK.get_or_init(|| Mutex::new(Vec::new()))
}

/// Fixed-capacity ring: overwrites the oldest event when full.
struct Ring {
    buf: Vec<TraceEvent>,
    cap: usize,
    head: usize,
    dropped: u64,
}

impl Ring {
    fn new(cap: usize) -> Ring {
        Ring { buf: Vec::new(), cap: cap.max(1), head: 0, dropped: 0 }
    }

    fn push(&mut self, ev: TraceEvent) {
        if self.buf.len() < self.cap {
            self.buf.push(ev);
        } else {
            self.buf[self.head] = ev;
            self.head = (self.head + 1) % self.cap;
            self.dropped += 1;
        }
    }

    fn take(&mut self) -> Vec<TraceEvent> {
        self.head = 0;
        std::mem::take(&mut self.buf)
    }
}

struct ThreadBuf {
    id: usize,
    ring: Ring,
    /// Generation in which this thread last recorded an event.
    active_gen: u64,
    /// Generation in which this thread last flushed.
    flushed_gen: u64,
}

impl ThreadBuf {
    fn push(&mut self, ev: TraceEvent) {
        let gen = GENERATION.load(Ordering::Relaxed);
        if self.active_gen != gen {
            self.active_gen = gen;
            PARTICIPATING.fetch_add(1, Ordering::Relaxed);
        }
        self.ring.push(ev);
    }

    fn flush(&mut self) {
        let gen = GENERATION.load(Ordering::Relaxed);
        if self.active_gen == gen && self.flushed_gen != gen {
            self.flushed_gen = gen;
            FLUSHED_THREADS.fetch_add(1, Ordering::Relaxed);
        }
        let events = self.ring.take();
        if self.ring.dropped > 0 {
            DROPPED.fetch_add(self.ring.dropped, Ordering::Relaxed);
            self.ring.dropped = 0;
        }
        if !events.is_empty() {
            sink().lock().expect("trace sink poisoned").extend(events);
        }
    }
}

impl Drop for ThreadBuf {
    fn drop(&mut self) {
        self.flush();
    }
}

thread_local! {
    static LOCAL: RefCell<ThreadBuf> = RefCell::new(ThreadBuf {
        id: NEXT_THREAD.fetch_add(1, Ordering::Relaxed),
        ring: Ring::new(CAPACITY.load(Ordering::Relaxed)),
        active_gen: 0,
        flushed_gen: 0,
    });
}

/// Is tracing currently enabled? One relaxed atomic load.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turn tracing on with the given per-thread ring capacity and clear any
/// previously drained-but-unread events. Typically called once before an
/// analysis run; pass [`DEFAULT_CAPACITY`] unless you know better.
pub fn enable(per_thread_capacity: usize) {
    epoch();
    CAPACITY.store(per_thread_capacity.max(1), Ordering::Relaxed);
    sink().lock().expect("trace sink poisoned").clear();
    DROPPED.store(0, Ordering::Relaxed);
    GENERATION.fetch_add(1, Ordering::Relaxed);
    PARTICIPATING.store(0, Ordering::Relaxed);
    FLUSHED_THREADS.store(0, Ordering::Relaxed);
    ENABLED.store(true, Ordering::Relaxed);
}

/// Turn tracing off. Events already recorded stay buffered until
/// [`drain`] is called.
pub fn disable() {
    ENABLED.store(false, Ordering::Relaxed);
}

fn record(ev: TraceEvent) {
    LOCAL.with(|b| b.borrow_mut().push(ev));
}

fn now_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

/// RAII guard for a timed span. Records an event when dropped (if
/// tracing was enabled at creation time).
pub struct Span {
    live: Option<SpanStart>,
}

struct SpanStart {
    kind: SpanKind,
    name: String,
    seq: u64,
    start_ns: u64,
    value: u64,
}

impl Span {
    /// Attach a payload value (path count, solver depth…) to the span.
    #[inline]
    pub fn set_value(&mut self, value: u64) {
        if let Some(live) = self.live.as_mut() {
            live.value = value;
        }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some(live) = self.live.take() {
            let end = now_ns();
            record(TraceEvent {
                kind: live.kind,
                name: live.name,
                thread: thread_id(),
                seq: live.seq,
                start_ns: live.start_ns,
                dur_ns: end.saturating_sub(live.start_ns),
                instant: false,
                value: live.value,
            });
        }
    }
}

fn thread_id() -> usize {
    LOCAL.with(|b| b.borrow().id)
}

/// Open a span. Returns an inert guard (no allocation, no clock read)
/// when tracing is disabled.
#[inline]
pub fn span(kind: SpanKind, name: &str) -> Span {
    if !enabled() {
        return Span { live: None };
    }
    Span {
        live: Some(SpanStart {
            kind,
            name: name.to_owned(),
            seq: SEQ.fetch_add(1, Ordering::Relaxed),
            start_ns: now_ns(),
            value: 0,
        }),
    }
}

/// Record an instant event. No-op when tracing is disabled.
#[inline]
pub fn event(kind: SpanKind, name: &str, value: u64) {
    if !enabled() {
        return;
    }
    record(TraceEvent {
        kind,
        name: name.to_owned(),
        thread: thread_id(),
        seq: SEQ.fetch_add(1, Ordering::Relaxed),
        start_ns: now_ns(),
        dur_ns: 0,
        instant: true,
        value,
    });
}

/// Flush the *current* thread's ring into the global sink.
///
/// Worker threads **must** call this before their closure returns:
/// `std::thread::scope` can unblock the spawner before a finished
/// worker's TLS destructors run, so the Drop-flush alone would race a
/// subsequent [`drain`]. The Drop impl remains as a backstop for
/// ordinary (non-scoped) thread exit.
pub fn flush_thread() {
    LOCAL.with(|b| b.borrow_mut().flush());
}

/// The per-generation flush census: `(participating, flushed)` thread
/// counts since the last [`enable`]. A thread *participates* the first
/// time it records an event; it counts as *flushed* the first time it
/// moves its ring into the sink (via [`flush_thread`], thread exit, or
/// [`drain`]). At any quiescent point — all recording threads joined or
/// flushed — the two must be equal; a gap means spans are sitting in a
/// live thread's ring and would be missing from a [`drain`].
#[must_use]
pub fn flush_counts() -> (usize, usize) {
    (PARTICIPATING.load(Ordering::Relaxed), FLUSHED_THREADS.load(Ordering::Relaxed))
}

/// Collect everything recorded so far into a [`Trace`], sorted by start
/// ticket. Flushes the calling thread first; other threads contribute
/// whatever they flushed via [`flush_thread`] or thread exit.
pub fn drain() -> Trace {
    flush_thread();
    let mut events = std::mem::take(&mut *sink().lock().expect("trace sink poisoned"));
    events.sort_by_key(|e| e.seq);
    Trace { events, dropped: DROPPED.swap(0, Ordering::Relaxed) }
}

/// A drained, ordered batch of trace events.
#[derive(Clone, Debug, Default)]
pub struct Trace {
    /// Events sorted by start ticket.
    pub events: Vec<TraceEvent>,
    /// Events lost to ring-buffer overwrites (0 unless a thread
    /// out-recorded its capacity).
    pub dropped: u64,
}

/// Minimal JSON string escaping (quotes, backslash, control chars).
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

impl Trace {
    /// How many events of the given kind were recorded.
    pub fn count_kind(&self, kind: SpanKind) -> usize {
        self.events.iter().filter(|e| e.kind == kind).count()
    }

    /// One JSON object per line, in deterministic start order.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for e in &self.events {
            out.push_str(&Self::jsonl_line(e, e.seq, e.thread, e.start_ns, e.dur_ns));
            out.push('\n');
        }
        out
    }

    /// JSONL with timestamps replaced by ordinals, durations zeroed, and
    /// thread ids remapped to first-appearance rank — byte-stable across
    /// runs for a deterministic workload, which is what the golden test
    /// pins.
    pub fn to_jsonl_normalized(&self) -> String {
        let mut thread_rank: BTreeMap<usize, usize> = BTreeMap::new();
        let mut out = String::new();
        for (i, e) in self.events.iter().enumerate() {
            let next = thread_rank.len();
            let tid = *thread_rank.entry(e.thread).or_insert(next);
            out.push_str(&Self::jsonl_line(e, i as u64, tid, i as u64, 0));
            out.push('\n');
        }
        out
    }

    fn jsonl_line(e: &TraceEvent, seq: u64, thread: usize, start_ns: u64, dur_ns: u64) -> String {
        format!(
            "{{\"seq\":{},\"kind\":\"{}\",\"name\":\"{}\",\"ph\":\"{}\",\"thread\":{},\"start_ns\":{},\"dur_ns\":{},\"value\":{}}}",
            seq,
            e.kind.label(),
            json_escape(&e.name),
            if e.instant { "instant" } else { "span" },
            thread,
            start_ns,
            dur_ns,
            e.value,
        )
    }

    /// Chrome `trace_event` JSON (the `{"traceEvents":[...]}` object
    /// format). Spans become complete (`ph:"X"`) events, instants become
    /// thread-scoped instant (`ph:"i"`) events; timestamps are
    /// microseconds as the format requires. Loads directly in
    /// `chrome://tracing` and Perfetto. Every event renders under pid
    /// lane 1.
    pub fn to_chrome_json(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[");
        for (i, e) in self.events.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let ts = e.start_ns as f64 / 1000.0;
            if e.instant {
                out.push_str(&format!(
                    "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"i\",\"s\":\"t\",\"ts\":{:.3},\"pid\":1,\"tid\":{},\"args\":{{\"value\":{}}}}}",
                    json_escape(&e.name),
                    e.kind.label(),
                    ts,
                    e.thread,
                    e.value,
                ));
            } else {
                out.push_str(&format!(
                    "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\"pid\":1,\"tid\":{},\"args\":{{\"value\":{}}}}}",
                    json_escape(&e.name),
                    e.kind.label(),
                    ts,
                    e.dur_ns as f64 / 1000.0,
                    e.thread,
                    e.value,
                ));
            }
        }
        out.push_str("],\"displayTimeUnit\":\"ms\"}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex as StdMutex;

    /// Tracing state is process-global; tests that flip it must not
    /// interleave.
    pub(crate) fn lock() -> std::sync::MutexGuard<'static, ()> {
        static GUARD: OnceLock<StdMutex<()>> = OnceLock::new();
        match GUARD.get_or_init(|| StdMutex::new(())).lock() {
            Ok(g) => g,
            Err(p) => p.into_inner(),
        }
    }

    #[test]
    fn disabled_records_nothing() {
        let _g = lock();
        disable();
        drop(drain());
        {
            let _s = span(SpanKind::Exec, "f");
            event(SpanKind::Degrade, "x", 1);
        }
        assert!(drain().events.is_empty());
    }

    #[test]
    fn spans_and_events_round_trip() {
        let _g = lock();
        enable(DEFAULT_CAPACITY);
        {
            let mut s = span(SpanKind::Exec, "outer");
            s.set_value(7);
            let _inner = span(SpanKind::Solve, "outer");
            event(SpanKind::Degrade, "deadline:outer", 1);
        }
        disable();
        let t = drain();
        assert_eq!(t.events.len(), 3);
        // Sorted by start ticket: outer opened first.
        assert_eq!(t.events[0].kind, SpanKind::Exec);
        assert_eq!(t.events[0].value, 7);
        assert_eq!(t.events[1].kind, SpanKind::Solve);
        assert_eq!(t.events[2].kind, SpanKind::Degrade);
        assert!(t.events[2].instant);
        assert_eq!(t.dropped, 0);
    }

    #[test]
    fn ring_overwrites_oldest_and_counts_drops() {
        let _g = lock();
        enable(4);
        for i in 0..10 {
            event(SpanKind::Fault, "s", i);
        }
        disable();
        let t = drain();
        assert_eq!(t.events.len(), 4);
        assert_eq!(t.dropped, 6);
        // The survivors are the newest four, still in order.
        let values: Vec<u64> = t.events.iter().map(|e| e.value).collect();
        assert_eq!(values, vec![6, 7, 8, 9]);
    }

    #[test]
    fn worker_threads_flush_on_exit() {
        let _g = lock();
        enable(DEFAULT_CAPACITY);
        std::thread::scope(|scope| {
            for _ in 0..2 {
                scope.spawn(|| {
                    {
                        let _s = span(SpanKind::Exec, "worker");
                    }
                    flush_thread();
                });
            }
        });
        disable();
        let t = drain();
        assert_eq!(t.count_kind(SpanKind::Exec), 2);
        let threads: std::collections::BTreeSet<usize> =
            t.events.iter().map(|e| e.thread).collect();
        assert_eq!(threads.len(), 2);
    }

    #[test]
    fn labels_round_trip_through_from_label() {
        for kind in SpanKind::all() {
            assert_eq!(SpanKind::from_label(kind.label()), Some(kind));
        }
        assert_eq!(SpanKind::from_label("no-such-kind"), None);
    }

    #[test]
    fn flush_census_balances_at_drain() {
        let _g = lock();
        enable(DEFAULT_CAPACITY);
        std::thread::scope(|scope| {
            for _ in 0..3 {
                scope.spawn(|| {
                    event(SpanKind::Fault, "s", 1);
                    flush_thread();
                });
            }
        });
        event(SpanKind::Exec, "main", 0);
        disable();
        flush_thread();
        let (participating, flushed) = flush_counts();
        assert_eq!(participating, 4, "3 workers + the main thread recorded");
        assert_eq!(participating, flushed);
        drop(drain());
    }

    #[test]
    fn jsonl_and_chrome_formats() {
        let _g = lock();
        enable(DEFAULT_CAPACITY);
        {
            let _s = span(SpanKind::Enumerate, "fn\"quoted\"");
            event(SpanKind::Fault, "panic:f", 2);
        }
        disable();
        let t = drain();
        let jsonl = t.to_jsonl();
        assert_eq!(jsonl.lines().count(), 2);
        assert!(jsonl.contains("\\\"quoted\\\""));
        assert!(jsonl.contains("\"kind\":\"enumerate\""));
        assert!(jsonl.contains("\"ph\":\"instant\""));
        let chrome = t.to_chrome_json();
        assert!(chrome.starts_with("{\"traceEvents\":["));
        assert!(chrome.contains("\"ph\":\"X\""));
        assert!(chrome.contains("\"ph\":\"i\""));
        assert!(chrome.contains("\"cat\":\"fault\""));
        let norm = t.to_jsonl_normalized();
        assert!(norm.contains("\"start_ns\":0"));
        assert!(norm.contains("\"start_ns\":1"));
    }

    #[test]
    fn chrome_json_renders_every_event_in_lane_one() {
        let empty = Trace { events: Vec::new(), dropped: 0 };
        assert_eq!(empty.to_chrome_json(), "{\"traceEvents\":[],\"displayTimeUnit\":\"ms\"}");
        let at = |kind, name: &str, thread, start_ns, dur_ns, instant, value| TraceEvent {
            kind,
            name: name.to_owned(),
            thread,
            seq: 0,
            start_ns,
            dur_ns,
            instant,
            value,
        };
        let trace = Trace {
            events: vec![
                at(SpanKind::Serve, "ping", 0, 1_000, 2_500, false, 0),
                at(SpanKind::Fault, "panic:f", 2, 4_000, 0, true, 7),
                at(SpanKind::Snapshot, "gen", 1, 5_250, 1_000, false, 3),
            ],
            dropped: 0,
        };
        assert_eq!(
            trace.to_chrome_json(),
            concat!(
                "{\"traceEvents\":[",
                "{\"name\":\"ping\",\"cat\":\"serve\",\"ph\":\"X\",\"ts\":1.000,\"dur\":2.500,",
                "\"pid\":1,\"tid\":0,\"args\":{\"value\":0}},",
                "{\"name\":\"panic:f\",\"cat\":\"fault\",\"ph\":\"i\",\"s\":\"t\",\"ts\":4.000,",
                "\"pid\":1,\"tid\":2,\"args\":{\"value\":7}},",
                "{\"name\":\"gen\",\"cat\":\"snapshot\",\"ph\":\"X\",\"ts\":5.250,\"dur\":1.000,",
                "\"pid\":1,\"tid\":1,\"args\":{\"value\":3}}",
                "],\"displayTimeUnit\":\"ms\"}",
            )
        );
    }
}
