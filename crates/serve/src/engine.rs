//! The daemon's deterministic core: a bounded request queue, one
//! resident project state per registered project, and a drain loop that
//! coalesces overlapping `patch` requests into a single driver run.
//!
//! The engine is transport-agnostic: [`serve_stdio`](crate::serve_stdio)
//! and [`serve_unix`](crate::serve_unix) both feed request lines into
//! [`Engine::handle_line`] and route the `(tag, response)` pairs it
//! returns back to the right client. The tag type `T` is whatever the
//! transport needs to find the client again — `()` for stdio, a
//! connection id for the socket server.
//!
//! ## Batching semantics
//!
//! Requests are accepted into a bounded FIFO queue (full queue ⇒ an
//! explicit `backpressure` error reply, never a silent drop). A request
//! with `defer: true` only enqueues; the next non-deferred request (or
//! EOF / `shutdown`) drains the whole queue. During a drain, when the
//! head of the queue is a `patch`, every other queued `patch` for the
//! same project is pulled forward and merged with it — later requests
//! win per module — so the union of their edits costs **one**
//! re-analysis: an incremental pass ([`reanalyze_with_graph`]) that
//! re-executes exactly the union of the affected-function cones and
//! reuses the previous run's summaries for everything else, and every
//! coalesced request receives its own response carrying the shared
//! result.
//!
//! [`reanalyze_with_graph`]: rid_core::incremental::reanalyze_with_graph

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use rid_core::cache::content_hash;
use rid_core::incremental::{CallerIndex, ReanalyzePlan};
use rid_core::persist::AnalysisState;
use rid_core::{AnalysisOptions, AnalysisResult, FaultPlan, SummaryCache, SummaryDb};
use rid_ir::{Module, Program};
use serde_json::Value;

use crate::fault::ServeFaultPlan;
use crate::flightrec::BlackBox;
use crate::journal::{self, Journal};
use crate::protocol::{error_line, ok_line, ok_lines, ProjectOptions, Request};
use crate::snapshot::{
    self, read_snapshot, snap_file_name, write_snapshot, Manifest, ProjectSnapshot, SNAP_SCHEMA,
};

/// How many `(idempotency key → response)` pairs the engine remembers.
/// Old entries are evicted FIFO; a retry arriving after eviction simply
/// re-executes, which is safe for every idempotent op and merely
/// re-runs the analysis for the rest.
const IDEM_CACHE_CAP: usize = 256;

/// Server-wide configuration.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Accepted-but-unexecuted request capacity; a request arriving at a
    /// full queue is answered with a `backpressure` error.
    pub queue_cap: usize,
    /// Crash-safety directory: when set, accepted mutating requests are
    /// write-ahead journaled here before executing, `snapshot` requests
    /// serialize every resident project here, and startup restores from
    /// the latest snapshot + journal suffix instead of requiring
    /// re-registration. `None` keeps the daemon purely in-memory.
    pub state_dir: Option<PathBuf>,
    /// Maximum accepted request-line length in bytes; transports answer
    /// longer frames with a `bad-request` error and keep the connection
    /// alive. The default is generous because `register` ships a whole
    /// corpus in one line.
    pub max_frame_bytes: usize,
    /// Chaos-harness fault plan for the durability paths (torn journal
    /// appends, snapshot fsync failures). [`ServeFaultPlan::none`] in
    /// production.
    pub fault: ServeFaultPlan,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            queue_cap: 64,
            state_dir: None,
            max_frame_bytes: 64 << 20,
            fault: ServeFaultPlan::none(),
        }
    }
}

/// One registered project's resident state.
struct Project {
    /// The linked program, kept resident across requests. `patch` swaps
    /// individual modules in place via [`Program::replace_module`];
    /// nothing is re-parsed, re-cloned, or re-linked wholesale — that
    /// per-request rebuild is exactly the cost the daemon exists to
    /// avoid.
    program: Program,
    /// Protocol file key → declared module name, for routing `patch`
    /// sources (keyed by file) to the linked module they replace.
    files: BTreeMap<String, String>,
    /// Resident reverse call index, updated per patched module so the
    /// affected cone and its re-analysis order cost O(edit), not a full
    /// O(program) call-graph rebuild per request. Lazily decoded after
    /// a restore, like `cache` — only `patch` walks it.
    callers: LazyCallers,
    /// Predefined API summaries chosen at registration.
    apis: SummaryDb,
    /// Analysis configuration chosen at registration.
    options: AnalysisOptions,
    /// The content-addressed summary cache backing full `analyze` runs:
    /// a warm re-analyze answers every unchanged function from here.
    /// After a restore this may still be encoded section bytes; the
    /// first run that consults it decodes it.
    cache: LazyCache,
    /// Result of the most recent run (reports, summaries, stats).
    /// `explain` serves from it without re-running, and `patch` seeds
    /// its incremental pass with these summaries so only the affected
    /// cone re-executes. Lazily decoded after a restore, like `cache`.
    last: LastRun,
    /// Driver runs executed for this project.
    analyses: u64,
    /// The raw registration options, kept verbatim so a snapshot can
    /// store them and restore can re-resolve them through the exact
    /// same path `register` used.
    options_raw: Option<ProjectOptions>,
}

/// The summary cache, possibly still in encoded snapshot-section form.
///
/// [`Engine::recover`] keeps the heavyweight sections as the
/// checksum-verified bytes it read: startup pays only for program
/// residency (what request routing and the patch path need
/// immediately), and the first request that actually consults the
/// cache decodes it. A section still raw at the next snapshot passes
/// through byte-for-byte — its logical value cannot have changed.
enum LazyCache {
    Ready(SummaryCache),
    Raw(Vec<u8>),
}

impl LazyCache {
    /// The decoded cache, decoding on first call. The bytes came out of
    /// a checksummed container written by this codec, so a decode
    /// failure is a codec bug, not bad input — panic, don't limp.
    fn force(&mut self) -> &mut SummaryCache {
        if let LazyCache::Raw(bytes) = self {
            let cache = snapshot::decode_cache(bytes)
                .expect("checksum-verified cache section must decode");
            *self = LazyCache::Ready(cache);
        }
        match self {
            LazyCache::Ready(cache) => cache,
            LazyCache::Raw(_) => unreachable!("just decoded"),
        }
    }

    /// The `cache`-section bytes for a snapshot write.
    fn encoded(&self) -> io::Result<Vec<u8>> {
        match self {
            LazyCache::Ready(cache) => snapshot::encode_cache(cache),
            LazyCache::Raw(bytes) => Ok(bytes.clone()),
        }
    }
}

/// The last run's result, possibly still in encoded snapshot-section
/// form. Same laziness contract as [`LazyCache`].
///
/// One value lives per project (never a collection), so the size gap
/// between the `Ready` and `Raw` variants costs nothing worth boxing.
#[allow(clippy::large_enum_variant)]
enum LastRun {
    None,
    Ready(AnalysisResult),
    Raw(Vec<u8>),
}

impl LastRun {
    fn is_none(&self) -> bool {
        matches!(self, LastRun::None)
    }

    /// The decoded result, decoding on first call (see
    /// [`LazyCache::force`] for why decode failures panic).
    fn force(&mut self) -> Option<&AnalysisResult> {
        if let LastRun::Raw(bytes) = self {
            let state = snapshot::decode_state(bytes)
                .expect("checksum-verified state section must decode");
            *self = LastRun::Ready(state.into());
        }
        match self {
            LastRun::None => None,
            LastRun::Ready(result) => Some(result),
            LastRun::Raw(_) => unreachable!("just decoded"),
        }
    }

    /// Takes the result out (for the incremental pass), leaving `None`.
    fn take_result(&mut self) -> Option<AnalysisResult> {
        self.force();
        match std::mem::replace(self, LastRun::None) {
            LastRun::Ready(result) => Some(result),
            _ => None,
        }
    }

    /// The `state`-section bytes for a snapshot write, `None` when the
    /// project was never analyzed.
    fn encoded(&self) -> io::Result<Option<Vec<u8>>> {
        match self {
            LastRun::None => Ok(None),
            LastRun::Ready(result) => {
                Ok(Some(snapshot::encode_state(&AnalysisState::from(result))?))
            }
            LastRun::Raw(bytes) => Ok(Some(bytes.clone())),
        }
    }
}

/// The reverse call index, possibly still in encoded snapshot-section
/// form. Same laziness contract as [`LazyCache`]: only the patch path
/// walks the index, so restore defers the decode and an untouched index
/// passes through to the next snapshot byte-for-byte.
enum LazyCallers {
    Ready(CallerIndex),
    Raw(Vec<u8>),
}

impl LazyCallers {
    /// The decoded index, decoding on first call (see
    /// [`LazyCache::force`] for why decode failures panic).
    fn force(&mut self) -> &mut CallerIndex {
        if let LazyCallers::Raw(bytes) = self {
            let edges = snapshot::decode_callers(bytes)
                .expect("checksum-verified callers section must decode");
            *self = LazyCallers::Ready(CallerIndex::from_edges(edges));
        }
        match self {
            LazyCallers::Ready(callers) => callers,
            LazyCallers::Raw(_) => unreachable!("just decoded"),
        }
    }

    /// The `callers`-section bytes for a snapshot write.
    fn encoded(&self) -> Vec<u8> {
        match self {
            LazyCallers::Ready(callers) => {
                let edges: Vec<(String, BTreeSet<String>)> = callers
                    .edges()
                    .into_iter()
                    .map(|(callee, names)| (callee.to_owned(), names.clone()))
                    .collect();
                snapshot::encode_callers(&edges)
            }
            LazyCallers::Raw(bytes) => bytes.clone(),
        }
    }
}

/// A parsed, validated, accepted request waiting in the queue.
struct Pending<T> {
    tag: T,
    id: u64,
    project: String,
    deadline_ms: Option<u64>,
    /// Idempotency key, if the request carried one; the response is
    /// remembered under it after execution.
    idem: Option<String>,
    /// Journal offset *before* this request's entry was appended, when
    /// it was journaled. `snapshot` uses the minimum over the queue to
    /// know how much journal its snapshot generation covers.
    journal_start: Option<u64>,
    op: Op,
}

enum Op {
    Register { sources: BTreeMap<String, String>, options: Option<ProjectOptions> },
    Analyze,
    Patch { sources: BTreeMap<String, String> },
    Explain { function: Option<String> },
    Diff { baseline: Vec<String> },
    Stats { format: StatsFormat },
    Snapshot,
    Shutdown,
}

/// Encoding of the `stats` telemetry payload.
#[derive(Clone, Copy, PartialEq, Eq)]
enum StatsFormat {
    /// Registry embedded as a structured `telemetry` object (default).
    Json,
    /// Registry rendered as a Prometheus text exposition string.
    Prometheus,
}

impl Op {
    /// Whether this op is write-ahead journaled. Everything that goes
    /// through the queue is — including read-only `stats` and
    /// `snapshot` — because queued entries are also *drain triggers*:
    /// replay must reproduce the exact batching boundaries of the
    /// original run or coalescing counters drift. Only `shutdown`
    /// (terminal) and `ping` (never queued) stay out.
    fn journaled(&self) -> bool {
        !matches!(self, Op::Shutdown)
    }

    /// The op name as it appears in `serve.op.{label}.us` latency
    /// histogram keys.
    fn label(&self) -> &'static str {
        match self {
            Op::Register { .. } => "register",
            Op::Analyze => "analyze",
            Op::Patch { .. } => "patch",
            Op::Explain { .. } => "explain",
            Op::Diff { .. } => "diff",
            Op::Stats { .. } => "stats",
            Op::Snapshot => "snapshot",
            Op::Shutdown => "shutdown",
        }
    }
}

#[derive(Default)]
struct EngineStats {
    accepted: u64,
    batches: u64,
    coalesced: u64,
    backpressure: u64,
    idem_hits: u64,
}

/// The transport-agnostic daemon core. See the module docs for the
/// queueing and batching semantics.
pub struct Engine<T> {
    projects: BTreeMap<String, Project>,
    queue: VecDeque<Pending<T>>,
    cap: usize,
    stats: EngineStats,
    draining: bool,
    /// Crash-safety state; all `None`/default when the daemon runs
    /// without `--state-dir`.
    state_dir: Option<PathBuf>,
    journal: Option<Journal>,
    /// Committed snapshot generation (0 = never snapshotted).
    gen: u64,
    fault: ServeFaultPlan,
    /// True while [`Engine::recover`] is replaying the journal:
    /// suppresses re-journaling and snapshot side effects so replay is
    /// a pure re-derivation of in-memory state.
    replaying: bool,
    /// During replay: the journal offset of the entry currently being
    /// fed to [`Engine::handle_line`], so a replayed entry that stays
    /// queued (a trailing deferred request) keeps its real
    /// `journal_start` and a later snapshot cannot truncate the bytes
    /// it still needs.
    replay_offset: Option<u64>,
    /// FIFO `(idempotency key, response line)` memory.
    idem_cache: VecDeque<(String, String)>,
    /// `(projects restored, journal entries replayed)` from startup.
    restore_info: Option<(usize, usize)>,
    /// Live runtime telemetry: per-op/per-project latency histograms,
    /// journal and degradation counters, queue-depth distribution.
    /// Scalar [`EngineStats`] counters are injected only at read time
    /// (see [`Engine::telemetry_registry`]) so nothing is double-kept.
    registry: rid_obs::Registry,
    /// Crash flight recorder shared with the panic hook; `None` without
    /// a `state_dir`.
    black_box: Option<Arc<BlackBox>>,
    /// When the black box last persisted a heartbeat artifact, so busy
    /// drain loops do not write one file per request.
    last_heartbeat: Option<Instant>,
}

impl<T> Engine<T> {
    /// Creates an engine with no registered projects and no durability
    /// (requests are not journaled even if `config.state_dir` is set —
    /// use [`Engine::recover`] for the crash-safe constructor).
    #[must_use]
    pub fn new(config: ServerConfig) -> Engine<T> {
        Engine {
            projects: BTreeMap::new(),
            queue: VecDeque::new(),
            cap: config.queue_cap.max(1),
            stats: EngineStats::default(),
            draining: false,
            state_dir: None,
            journal: None,
            gen: 0,
            fault: config.fault,
            replaying: false,
            replay_offset: None,
            idem_cache: VecDeque::new(),
            restore_info: None,
            registry: rid_obs::Registry::new(),
            black_box: None,
            last_heartbeat: None,
        }
    }

    /// The crash flight recorder, when the engine runs with a
    /// `state_dir`. Transports hand this to
    /// [`crate::flightrec::install_panic_hook`] and persist a final
    /// record on fatal errors.
    #[must_use]
    pub fn black_box(&self) -> Option<&Arc<BlackBox>> {
        self.black_box.as_ref()
    }

    /// A point-in-time telemetry registry: the live histograms and
    /// counters plus the scalar engine stats injected as counters and
    /// gauges. This is what `stats` serves and the black box persists.
    #[must_use]
    pub fn telemetry_registry(&self) -> rid_obs::Registry {
        let mut registry = self.registry.clone();
        registry.count("serve.accepted", self.stats.accepted);
        registry.count("serve.batches", self.stats.batches);
        registry.count("serve.coalesced", self.stats.coalesced);
        registry.count("serve.backpressure", self.stats.backpressure);
        registry.count("serve.idem_hits", self.stats.idem_hits);
        registry.gauge("serve.queue.cap", self.cap as i64);
        registry.gauge("serve.queue.depth.now", self.queue.len() as i64);
        registry.gauge("serve.projects", self.projects.len() as i64);
        registry.gauge("serve.draining", i64::from(self.draining));
        if self.state_dir.is_some() {
            registry.gauge("serve.snapshot.gen", self.gen as i64);
        }
        registry
    }

    /// Records one executed request into the per-op and per-project
    /// latency histograms.
    fn observe_request(&mut self, op: &'static str, project: &str, started: Instant) {
        let us = u64::try_from(started.elapsed().as_micros()).unwrap_or(u64::MAX);
        self.registry.observe(&format!("serve.op.{op}.us"), us);
        if !project.is_empty() {
            self.registry.observe(&format!("serve.project.{project}.us"), us);
        }
    }

    /// How many analysis runs a project has executed; the drain loop
    /// diffs this across a request to tell "ran the driver" from
    /// "answered from resident state", so degradation counters tally
    /// per executed run.
    fn run_count(&self, project: &str) -> u64 {
        self.projects.get(project).map_or(0, |p| p.analyses)
    }

    /// Counts the degradations of a project's most recent run into
    /// `serve.degrade.{reason}` counters. Called once per executed run,
    /// so the counters tally degradation *events*, not resident state.
    fn record_degradations(&mut self, project: &str) {
        let mut reasons: Vec<String> = Vec::new();
        if let Some(p) = self.projects.get_mut(project) {
            if let Some(result) = p.last.force() {
                reasons.extend(result.degraded.values().map(|d| d.reason.label().to_owned()));
            }
        }
        for reason in reasons {
            self.registry.count(&format!("serve.degrade.{reason}"), 1);
        }
    }

    /// Whether a `shutdown` request has been executed; once true, new
    /// requests are rejected with a `shutting-down` error and the
    /// transport should exit after flushing.
    #[must_use]
    pub fn is_shutting_down(&self) -> bool {
        self.draining
    }

    /// Accepts one request line and returns the `(tag, response-line)`
    /// pairs it produced. A deferred request returns nothing (it waits
    /// in the queue); a non-deferred request triggers a full drain, so
    /// the returned responses may answer earlier deferred requests from
    /// other tags too.
    pub fn handle_line(&mut self, tag: T, line: &str) -> Vec<(T, String)> {
        if line.trim().is_empty() {
            return Vec::new();
        }
        let request: Request = match serde_json::from_str(line) {
            Ok(request) => request,
            Err(e) => return vec![(tag, error_line(None, "parse", &e.to_string()))],
        };
        // `ping` is the liveness probe: answered inline, before the
        // draining/backpressure checks, so a health checker can tell a
        // wedged daemon from a busy or draining one.
        if request.op == "ping" {
            let result = serde_json::json!({
                "pong": true,
                "draining": self.draining,
                "projects": self.projects.len(),
                "queued": self.queue.len(),
            });
            return vec![(tag, ok_line(request.id, result, Value::Seq(Vec::new())))];
        }
        // An idempotency-key hit answers from memory: the original
        // executed, only its reply was lost in transit.
        if let Some(key) = &request.idem {
            if let Some((_, reply)) = self.idem_cache.iter().find(|(k, _)| k == key) {
                self.stats.idem_hits += 1;
                return vec![(tag, reply.clone())];
            }
        }
        if self.draining {
            let reply =
                error_line(Some(request.id), "shutting-down", "server is draining; retry later");
            return vec![(tag, reply)];
        }
        let op = match parse_op(&request) {
            Ok(op) => op,
            Err((kind, message)) => {
                return vec![(tag, error_line(Some(request.id), kind, &message))]
            }
        };
        if self.queue.len() >= self.cap {
            self.stats.backpressure += 1;
            let message =
                format!("queue full ({} pending, cap {}); retry later", self.queue.len(), self.cap);
            return vec![(tag, error_line(Some(request.id), "backpressure", &message))];
        }
        // Write-ahead: the accepted line is durable before it executes,
        // so a crash at any later point can re-derive its effects. An
        // append failure rejects the request — accepted must mean
        // recoverable.
        let mut journal_start = None;
        if self.replaying {
            // The entry is already in the journal at this offset; keep
            // it so coverage bookkeeping treats a replayed-but-queued
            // entry exactly like a live one.
            journal_start = self.replay_offset.take();
        } else if op.journaled() {
            if let Some(journal) = self.journal.as_mut() {
                let start = match journal.offset() {
                    Ok(offset) => offset,
                    Err(e) => {
                        let message = format!("journal unavailable: {e}");
                        return vec![(tag, error_line(Some(request.id), "journal", &message))];
                    }
                };
                let torn = self.fault.torn_prefix_len(line, line.len() + 1);
                if let Err(e) = journal.append(line, torn) {
                    let message = format!("write-ahead append failed: {e}");
                    return vec![(tag, error_line(Some(request.id), "journal", &message))];
                }
                journal_start = Some(start);
                // One durable append is one fsync (see Journal::append);
                // counting both keeps the exposition honest if that
                // coupling ever changes.
                self.registry.count("serve.journal.appends", 1);
                self.registry.count("serve.journal.fsyncs", 1);
            }
        }
        self.stats.accepted += 1;
        let defer = request.defer;
        self.queue.push_back(Pending {
            tag,
            id: request.id,
            project: request.project,
            deadline_ms: request.deadline_ms,
            idem: request.idem,
            journal_start,
            op,
        });
        self.registry.observe("serve.queue.depth", self.queue.len() as u64);
        if defer {
            Vec::new()
        } else {
            self.drain()
        }
    }

    /// Executes everything in the queue and returns the responses in
    /// completion order. Transports call this on EOF so accepted
    /// deferred requests are never lost.
    pub fn drain(&mut self) -> Vec<(T, String)> {
        let mut out = Vec::new();
        let mut shutdown: Option<(T, u64)> = None;
        while let Some(head) = self.queue.pop_front() {
            match head.op {
                Op::Shutdown => {
                    // Stop accepting, but keep draining: every request
                    // accepted before (or queued behind) the shutdown
                    // still gets its answer; the shutdown reply goes
                    // out last.
                    self.draining = true;
                    shutdown = Some((head.tag, head.id));
                }
                Op::Patch { .. } => {
                    let mut batch = vec![head];
                    let mut rest = VecDeque::new();
                    // A queued `snapshot` is a coalescing barrier:
                    // patches accepted after it must not execute before
                    // it, or the snapshot would capture effects whose
                    // journal entries lie past its recorded offset and
                    // replay would apply them twice.
                    let mut barrier = false;
                    while let Some(pending) = self.queue.pop_front() {
                        barrier = barrier || matches!(pending.op, Op::Snapshot);
                        let same_project = !barrier
                            && pending.project == batch[0].project
                            && matches!(pending.op, Op::Patch { .. });
                        if same_project {
                            batch.push(pending);
                        } else {
                            rest.push_back(pending);
                        }
                    }
                    self.queue = rest;
                    let keys: Vec<Option<String>> =
                        batch.iter().map(|p| p.idem.clone()).collect();
                    let project = batch[0].project.clone();
                    let runs_before = self.run_count(&project);
                    let started = Instant::now();
                    let replies = self.execute_patch_batch(batch);
                    self.observe_request("patch", &project, started);
                    if self.run_count(&project) != runs_before {
                        self.record_degradations(&project);
                    }
                    for (key, (_, reply)) in keys.iter().zip(&replies) {
                        if let Some(key) = key {
                            self.remember_idem(key, reply);
                        }
                    }
                    out.extend(replies);
                }
                _ => {
                    let key = head.idem.clone();
                    let label = head.op.label();
                    let project = head.project.clone();
                    let runs_before = self.run_count(&project);
                    let started = Instant::now();
                    let reply = self.execute_single(head);
                    self.observe_request(label, &project, started);
                    if self.run_count(&project) != runs_before {
                        self.record_degradations(&project);
                    }
                    if let Some(key) = key {
                        self.remember_idem(&key, &reply.1);
                    }
                    out.push(reply);
                }
            }
        }
        if shutdown.is_some() && !self.replaying {
            // Graceful shutdown parts with a fresh snapshot: the next
            // start restores without replaying a single journal entry.
            if let Some(state_dir) = self.state_dir.clone() {
                let mut span = rid_obs::span(rid_obs::SpanKind::Snapshot, "snapshot:shutdown");
                if let Ok((_, bytes, _, _)) = self.snapshot_now(&state_dir) {
                    span.set_value(bytes);
                }
            }
        }
        if let Some((tag, id)) = shutdown {
            let result = serde_json::json!({ "drained": out.len() });
            out.push((tag, ok_line(id, result, Value::Seq(Vec::new()))));
        }
        self.heartbeat(!out.is_empty());
        out
    }

    /// Refreshes the black box after a drain and, at most once per
    /// second, persists a best-effort `heartbeat` artifact — this is
    /// what guarantees a `kill -9` (no hook runs at all) still leaves a
    /// decodable flight record behind. Skipped during journal replay:
    /// replay re-derives old state and must not overwrite the crash's
    /// own record.
    fn heartbeat(&mut self, executed_work: bool) {
        if self.replaying || !executed_work {
            return;
        }
        let Some(black_box) = self.black_box.clone() else { return };
        black_box.update(self.telemetry_registry());
        let due = self.last_heartbeat.is_none_or(|at| at.elapsed().as_secs() >= 1);
        if due {
            let _ = black_box.persist("heartbeat", "");
            self.last_heartbeat = Some(Instant::now());
        }
    }

    /// Remembers a response under its idempotency key, evicting the
    /// oldest entry past [`IDEM_CACHE_CAP`].
    fn remember_idem(&mut self, key: &str, reply: &str) {
        if self.idem_cache.len() >= IDEM_CACHE_CAP {
            self.idem_cache.pop_front();
        }
        self.idem_cache.push_back((key.to_owned(), reply.to_owned()));
    }

    /// Executes a non-patch, non-shutdown request.
    fn execute_single(&mut self, pending: Pending<T>) -> (T, String) {
        match pending.op {
            Op::Register { .. } => self.execute_register(pending),
            Op::Analyze => self.execute_analyze(pending),
            Op::Explain { .. } => self.execute_explain(pending),
            Op::Diff { .. } => self.execute_diff(pending),
            Op::Stats { .. } => self.execute_stats(pending),
            Op::Snapshot => self.execute_snapshot(pending),
            Op::Patch { .. } | Op::Shutdown => unreachable!("handled by drain"),
        }
    }

    fn execute_register(&mut self, pending: Pending<T>) -> (T, String) {
        let Op::Register { sources, options } = pending.op else { unreachable!() };
        let mut span =
            rid_obs::span(rid_obs::SpanKind::Serve, &format!("register:{}", pending.project));
        span.set_value(1);
        let (analysis_options, apis) = match resolve_options(options.as_ref()) {
            Ok(resolved) => resolved,
            Err(message) => return (pending.tag, error_line(Some(pending.id), "usage", &message)),
        };
        let mut files = BTreeMap::new();
        let mut program = Program::new();
        for (name, text) in &sources {
            let module = match rid_frontend::parse_module(text) {
                Ok(module) => module,
                Err(e) => {
                    let message = format!("{name}: {e}");
                    return (pending.tag, error_line(Some(pending.id), "frontend", &message));
                }
            };
            files.insert(name.clone(), module.name.as_str().to_owned());
            if let Err(e) = program.link(module) {
                return (pending.tag, error_line(Some(pending.id), "link", &e.to_string()));
            }
        }
        let functions = program.function_count();
        let callers = LazyCallers::Ready(CallerIndex::build(&program));
        self.projects.insert(
            pending.project,
            Project {
                program,
                files,
                callers,
                apis,
                options: analysis_options,
                cache: LazyCache::Ready(SummaryCache::new()),
                last: LastRun::None,
                analyses: 0,
                options_raw: options,
            },
        );
        let result = serde_json::json!({ "modules": sources.len(), "functions": functions });
        (pending.tag, ok_line(pending.id, result, Value::Seq(Vec::new())))
    }

    fn execute_analyze(&mut self, pending: Pending<T>) -> (T, String) {
        self.stats.batches += 1;
        let Some(project) = self.projects.get_mut(&pending.project) else {
            return (pending.tag, unknown_project(pending.id, &pending.project));
        };
        let mut span =
            rid_obs::span(rid_obs::SpanKind::Serve, &format!("analyze:{}", pending.project));
        span.set_value(1);
        run_analysis(project, pending.deadline_ms);
        let result = project.last.force().expect("analysis just ran");
        let payload = analysis_payload(result, true);
        (pending.tag, ok_line(pending.id, payload, degraded_value(result)))
    }

    /// One driver run answering every coalesced `patch` in `batch`.
    fn execute_patch_batch(&mut self, batch: Vec<Pending<T>>) -> Vec<(T, String)> {
        self.stats.batches += 1;
        self.stats.coalesced += batch.len() as u64 - 1;
        let project_name = batch[0].project.clone();
        if !self.projects.contains_key(&project_name) {
            return batch
                .into_iter()
                .map(|p| {
                    let reply = unknown_project(p.id, &p.project);
                    (p.tag, reply)
                })
                .collect();
        }

        // Union of the batch's edits; later requests win per module.
        // The most conservative deadline in the batch governs the run:
        // no coalesced request waits longer than it asked to.
        let mut merged: BTreeMap<String, String> = BTreeMap::new();
        for pending in &batch {
            if let Op::Patch { sources } = &pending.op {
                for (name, text) in sources {
                    merged.insert(name.clone(), text.clone());
                }
            }
        }
        let deadline_ms = batch.iter().filter_map(|p| p.deadline_ms).min();

        let mut span =
            rid_obs::span(rid_obs::SpanKind::Serve, &format!("patch:{project_name}"));
        span.set_value(batch.len() as u64);

        // Parse replacements before touching resident state: a bad
        // module leaves the project exactly as it was.
        let mut replacements: Vec<(String, Module)> = Vec::new();
        for (name, text) in &merged {
            match rid_frontend::parse_module(text) {
                Ok(module) => replacements.push((name.clone(), module)),
                Err(e) => {
                    let message = format!("{name}: {e}");
                    return batch
                        .into_iter()
                        .map(|p| {
                            let reply = error_line(Some(p.id), "frontend", &message);
                            (p.tag, reply)
                        })
                        .collect();
                }
            }
        }

        let project = self.projects.get_mut(&project_name).expect("checked above");

        // A patched file must keep its declared module name — a rename
        // would orphan the old module inside the resident program.
        for (file, module) in &replacements {
            if let Some(declared) = project.files.get(file) {
                if declared != &module.name {
                    let message = format!(
                        "{file}: patch renames module `{declared}` to `{}`; \
                         re-register the project instead",
                        module.name
                    );
                    return batch
                        .into_iter()
                        .map(|p| {
                            let reply = error_line(Some(p.id), "usage", &message);
                            (p.tag, reply)
                        })
                        .collect();
                }
            }
        }

        // The changed-function set: a per-function content-hash diff of
        // every replaced module against its resident version. Functions
        // whose lowered IR is identical (whitespace/comment edits) are
        // not changed; deleted functions are.
        let mut changed: BTreeSet<String> = BTreeSet::new();
        for (_file, module) in &replacements {
            let old = project.program.modules().iter().find(|m| m.name == module.name);
            for func in module.functions() {
                let before = old.and_then(|m| m.function(func.name())).map(content_hash);
                if before != Some(content_hash(func)) {
                    changed.insert(func.name().to_owned());
                }
            }
            if let Some(old) = old {
                for func in old.functions() {
                    if module.function(func.name()).is_none() {
                        changed.insert(func.name().to_owned());
                    }
                }
            }
        }

        // Resident caller-index maintenance, part one: retire the old
        // winners' call edges before they are swapped out. When an edit
        // does anything subtler than replacing bodies — changes the
        // module's defined-name/weakness signature, or touches a
        // function shadowed by (or shadowing) another module — winners
        // of the weak-symbol resolution can move between modules, so we
        // mark the index dirty and rebuild it outright after the swap.
        let mut dirty = false;
        for (_file, module) in &replacements {
            match project.program.modules().iter().find(|m| m.name == module.name) {
                Some(old) if same_signature(old, module) => {
                    for func in old.functions() {
                        match project.program.function(func.name()) {
                            Some(winner) if std::ptr::eq(winner, func) => {
                                project.callers.force().remove_function(func);
                            }
                            _ => dirty = true,
                        }
                    }
                }
                _ => dirty = true,
            }
        }

        // Swap the modules in place, remembering enough to roll back if
        // a later replacement fails to link: a failed batch leaves the
        // project exactly as it was.
        enum Undo {
            Restore(Module),
            Remove { file: String, module: String },
        }
        let mut undo: Vec<Undo> = Vec::new();
        let mut link_error = None;
        for (file, module) in &replacements {
            let old = project
                .program
                .modules()
                .iter()
                .find(|m| m.name == module.name)
                .cloned();
            match project.program.replace_module(module.clone()) {
                Ok(()) => {
                    undo.push(match old {
                        Some(previous) => Undo::Restore(previous),
                        None => {
                            Undo::Remove { file: file.clone(), module: module.name.as_str().to_owned() }
                        }
                    });
                    project.files.insert(file.clone(), module.name.as_str().to_owned());
                }
                Err(e) => {
                    link_error = Some(e.to_string());
                    break;
                }
            }
        }
        if let Some(message) = link_error {
            for step in undo.into_iter().rev() {
                match step {
                    Undo::Restore(previous) => {
                        project
                            .program
                            .replace_module(previous)
                            .expect("restoring the previous module relinks");
                    }
                    Undo::Remove { file, module } => {
                        project.program.remove_module(&module);
                        project.files.remove(&file);
                    }
                }
            }
            // The pre-swap removals above already mutated the index;
            // rebuild it from the restored program (error path, so the
            // O(program) cost is acceptable).
            project.callers = LazyCallers::Ready(CallerIndex::build(&project.program));
            return batch
                .into_iter()
                .map(|p| {
                    let reply = error_line(Some(p.id), "link", &message);
                    (p.tag, reply)
                })
                .collect();
        }

        // Caller-index maintenance, part two: record the new winners'
        // call edges, or rebuild from scratch if the edit moved winners.
        if !dirty {
            for (_file, module) in &replacements {
                let resident = project
                    .program
                    .modules()
                    .iter()
                    .find(|m| m.name == module.name)
                    .expect("module was just swapped in");
                for func in resident.functions() {
                    match project.program.function(func.name()) {
                        Some(winner) if std::ptr::eq(winner, func) => {
                            project.callers.force().add_function(func);
                        }
                        _ => dirty = true,
                    }
                }
            }
        }
        if dirty {
            project.callers = LazyCallers::Ready(CallerIndex::build(&project.program));
        }

        let changed_refs: Vec<&str> = changed.iter().map(String::as_str).collect();
        let plan = project.callers.force().plan(&project.program, &changed_refs);
        let mut affected: Vec<String> = plan.affected.iter().cloned().collect();
        affected.sort_unstable();

        run_patch(project, deadline_ms, &changed_refs, &plan);
        let result = project.last.force().expect("patch run just completed");
        let mut payload = analysis_payload(result, false);
        push_field(&mut payload, "batched", int(batch.len()));
        push_field(&mut payload, "changed", strings(changed));
        push_field(&mut payload, "affected", strings(affected));
        push_field(&mut payload, "reexecuted", int(result.stats.functions_analyzed));
        let ids: Vec<u64> = batch.iter().map(|p| p.id).collect();
        let replies = ok_lines(&ids, payload, degraded_value(result));
        batch.into_iter().map(|p| p.tag).zip(replies).collect()
    }

    fn execute_explain(&mut self, pending: Pending<T>) -> (T, String) {
        let Op::Explain { function } = &pending.op else { unreachable!() };
        let function = function.clone();
        let Some(project) = self.projects.get_mut(&pending.project) else {
            return (pending.tag, unknown_project(pending.id, &pending.project));
        };
        let mut span =
            rid_obs::span(rid_obs::SpanKind::Serve, &format!("explain:{}", pending.project));
        span.set_value(1);
        if project.last.is_none() {
            // First touch of a freshly registered project: run once so
            // there is something to explain (warm thereafter).
            run_analysis(project, pending.deadline_ms);
        }
        let last = project.last.force().expect("analysis just ran");
        let reports: Vec<_> = match &function {
            Some(name) => {
                last.reports.iter().filter(|r| &r.function == name).cloned().collect()
            }
            None => last.reports.clone(),
        };
        let text = rid_core::render_explanations(&reports, Some(&project.program));
        let result = serde_json::json!({ "report_count": reports.len(), "text": text });
        (pending.tag, ok_line(pending.id, result, degraded_value(last)))
    }

    /// `diff`: classify the project's resident reports against a
    /// client-supplied baseline hash list (see `REPORTS.md`). Like
    /// `explain`, a freshly registered project is analyzed once so
    /// there is something to diff; a warm project answers from its
    /// resident result without re-running. Suppression (`.ridignore`)
    /// is a client-side concern — the daemon reports the raw
    /// classification and the CLI filters it.
    fn execute_diff(&mut self, pending: Pending<T>) -> (T, String) {
        let Op::Diff { baseline } = &pending.op else { unreachable!() };
        let baseline = baseline.clone();
        let Some(project) = self.projects.get_mut(&pending.project) else {
            return (pending.tag, unknown_project(pending.id, &pending.project));
        };
        let mut span =
            rid_obs::span(rid_obs::SpanKind::Serve, &format!("diff:{}", pending.project));
        span.set_value(1);
        if project.last.is_none() {
            run_analysis(project, pending.deadline_ms);
        }
        let last = project.last.force().expect("analysis just ran");
        let diff = rid_core::classify_reports(&baseline, &last.reports);
        let entries = |pairs: Vec<(String, usize)>| {
            let entry = |(hash, idx): (String, usize)| {
                let report = &last.reports[idx];
                object([
                    ("hash", Value::Str(hash)),
                    ("function", Value::Str(report.function.clone())),
                    ("refcount", Value::Str(report.refcount.to_string())),
                ])
            };
            Value::Seq(pairs.into_iter().map(entry).collect())
        };
        let new_count = diff.new.len();
        let result = object([
            ("new", entries(diff.new)),
            ("unchanged", entries(diff.unchanged)),
            ("resolved", strings(diff.resolved)),
            ("new_count", int(new_count)),
            ("report_count", int(last.reports.len())),
        ]);
        (pending.tag, ok_line(pending.id, result, degraded_value(last)))
    }

    fn execute_stats(&mut self, pending: Pending<T>) -> (T, String) {
        let Op::Stats { format } = pending.op else { unreachable!() };
        let mut span = rid_obs::span(rid_obs::SpanKind::Serve, "stats");
        span.set_value(1);
        let projects = Value::Map(
            self.projects
                .iter_mut()
                .map(|(name, project)| {
                    // Counting entries hydrates lazily restored
                    // sections; `stats` promises exact numbers.
                    let cache_entries = project.cache.force().len();
                    let reports = project.last.force().map_or(0, |r| r.reports.len());
                    let value = serde_json::json!({
                        "modules": project.files.len(),
                        "functions": project.program.function_count(),
                        "analyses": project.analyses,
                        "cache_entries": cache_entries,
                        "reports": reports,
                    });
                    (name.clone(), value)
                })
                .collect(),
        );
        let mut server = serde_json::json!({
            "accepted": self.stats.accepted,
            "batches": self.stats.batches,
            "coalesced": self.stats.coalesced,
            "backpressure": self.stats.backpressure,
            "idem_hits": self.stats.idem_hits,
            "queue_cap": self.cap,
            "draining": self.draining,
        });
        if self.state_dir.is_some() {
            push_field(&mut server, "snapshot_gen", serde_json::json!(self.gen));
            if let Some((restored, replayed)) = self.restore_info {
                push_field(&mut server, "restored_projects", serde_json::json!(restored));
                push_field(&mut server, "replayed_entries", serde_json::json!(replayed));
            }
        }
        let mut result = serde_json::json!({ "server": server, "projects": projects });
        let telemetry = self.telemetry_registry();
        match format {
            StatsFormat::Json => {
                // Round-trip the registry through its own JSON encoding
                // so the reply embeds it structurally, not as a string.
                let parsed = serde_json::from_str::<Value>(&telemetry.to_json())
                    .unwrap_or(Value::Null);
                push_field(&mut result, "telemetry", parsed);
            }
            StatsFormat::Prometheus => {
                push_field(&mut result, "prometheus", Value::Str(telemetry.to_prometheus()));
            }
        }
        (pending.tag, ok_line(pending.id, result, Value::Seq(Vec::new())))
    }

    fn execute_snapshot(&mut self, pending: Pending<T>) -> (T, String) {
        if self.replaying {
            // A replayed snapshot entry is a drain boundary, not a disk
            // write: the on-disk generation it produced (or failed to)
            // is already settled history.
            let result = serde_json::json!({ "skipped": "journal replay" });
            return (pending.tag, ok_line(pending.id, result, Value::Seq(Vec::new())));
        }
        let Some(state_dir) = self.state_dir.clone() else {
            let reply = error_line(
                Some(pending.id),
                "usage",
                "op `snapshot` requires the daemon to run with --state-dir",
            );
            return (pending.tag, reply);
        };
        let mut span = rid_obs::span(rid_obs::SpanKind::Snapshot, "snapshot");
        match self.snapshot_now(&state_dir) {
            Ok((gen, bytes, covered, truncated)) => {
                span.set_value(bytes);
                let result = serde_json::json!({
                    "gen": gen,
                    "projects": self.projects.len(),
                    "bytes": bytes,
                    "journal_offset": if truncated { 0 } else { covered },
                    "journal_truncated": truncated,
                });
                (pending.tag, ok_line(pending.id, result, Value::Seq(Vec::new())))
            }
            Err(e) => {
                let message = format!("snapshot failed (previous generation intact): {e}");
                (pending.tag, error_line(Some(pending.id), "snapshot", &message))
            }
        }
    }

    /// Writes one snapshot generation and commits it. The order is the
    /// crash-safety argument:
    ///
    /// 1. every project's `.snap` for generation `gen+1` (staged +
    ///    renamed; a failure leaves the committed generation whole),
    /// 2. the manifest naming generation `gen+1` with the journal
    ///    offset it covers — the atomic commit point,
    /// 3. if no queued request still depends on the journal, truncate
    ///    it and re-commit the manifest with offset 0.
    ///
    /// A crash between any two steps restores consistently: before 2
    /// the old manifest + old snaps + full journal win; between 2 and 3
    /// the new snaps + journal suffix win; mid-3 the manifest's offset
    /// is at or past EOF, so replay is empty — exactly right, because
    /// the snapshot already contains everything.
    ///
    /// Returns `(generation, bytes written, journal offset covered,
    /// journal truncated)`.
    fn snapshot_now(&mut self, state_dir: &Path) -> io::Result<(u64, u64, u64, bool)> {
        let next = self.gen + 1;
        let mut total = 0u64;
        let mut snap_files: BTreeMap<String, String> = BTreeMap::new();
        for (name, project) in &self.projects {
            let snap = ProjectSnapshot {
                project: name.clone(),
                files: project.files.clone(),
                options: project.options_raw.clone(),
                analyses: project.analyses,
                modules: project.program.modules().to_vec(),
                callers: project.callers.encoded(),
                state: project.last.encoded()?,
                cache: project.cache.encoded()?,
            };
            let file = snap_file_name(name, next);
            let inject = self.fault.should_fail_fsync(name);
            total += write_snapshot(&state_dir.join(&file), &snap, inject)?;
            snap_files.insert(name.clone(), file);
        }
        let journal_len = match self.journal.as_ref() {
            Some(journal) => journal.offset()?,
            None => 0,
        };
        // The generation covers every journal entry already executed:
        // everything before the earliest still-queued entry (queued
        // requests were journaled at accept but have not run yet).
        let covered = self
            .queue
            .iter()
            .filter_map(|p| p.journal_start)
            .min()
            .unwrap_or(journal_len);
        let mut manifest = Manifest {
            schema: SNAP_SCHEMA.to_owned(),
            gen: next,
            journal_offset: covered,
            projects: snap_files.clone(),
        };
        manifest.store(state_dir)?;
        self.gen = next;
        let mut truncated = false;
        let journal_idle = self.queue.iter().all(|p| p.journal_start.is_none());
        if journal_idle && covered == journal_len {
            if let Some(journal) = self.journal.as_mut() {
                journal.truncate()?;
                manifest.journal_offset = 0;
                manifest.store(state_dir)?;
                truncated = true;
            }
        }
        // Retired generations' snap files are garbage now that the
        // manifest no longer names them; collection is best-effort.
        if let Ok(entries) = std::fs::read_dir(state_dir) {
            let live: BTreeSet<&String> = snap_files.values().collect();
            for entry in entries.flatten() {
                let name = entry.file_name().to_string_lossy().into_owned();
                if name.ends_with(".snap") && !live.contains(&name) {
                    let _ = std::fs::remove_file(entry.path());
                }
            }
        }
        Ok((next, total, covered, truncated))
    }
}

impl<T: Default> Engine<T> {
    /// The crash-safe constructor: restores every project named by the
    /// committed snapshot manifest in `config.state_dir`, replays the
    /// journal suffix the manifest does not cover, and opens the
    /// journal for write-ahead appends. Without a `state_dir` this is
    /// [`Engine::new`].
    ///
    /// The `T: Default` bound exists because replayed requests need a
    /// tag; their responses are discarded, so any tag does.
    ///
    /// # Errors
    ///
    /// Returns an I/O error when the state directory cannot be created
    /// or the manifest, a named snapshot, or the journal cannot be
    /// read — corrupt durable state stops the daemon loudly instead of
    /// silently cold-starting over it. (A *torn journal tail* is not an
    /// error: it is trimmed, per the write-ahead contract.)
    pub fn recover(config: ServerConfig) -> io::Result<Engine<T>> {
        let Some(state_dir) = config.state_dir.clone() else {
            return Ok(Engine::new(config));
        };
        std::fs::create_dir_all(&state_dir)?;
        let mut engine: Engine<T> = Engine::new(config);
        engine.state_dir = Some(state_dir.clone());
        engine.black_box = Some(Arc::new(BlackBox::new(&state_dir)));

        let invalid = |message: String| io::Error::new(io::ErrorKind::InvalidData, message);
        let manifest = Manifest::load(&state_dir)?;
        let mut restored = 0usize;
        let mut offset = 0u64;
        if let Some(manifest) = &manifest {
            engine.gen = manifest.gen;
            offset = manifest.journal_offset;
            for (name, file) in &manifest.projects {
                let path = state_dir.join(file);
                let restore_started = Instant::now();
                let mut span =
                    rid_obs::span(rid_obs::SpanKind::Restore, &format!("restore:{name}"));
                span.set_value(std::fs::metadata(&path).map(|m| m.len()).unwrap_or(0));
                let snap = read_snapshot(&path)?;
                let (options, apis) = resolve_options(snap.options.as_ref()).map_err(invalid)?;
                let mut program = Program::new();
                program.reserve(
                    snap.modules.len(),
                    snap.modules.iter().map(|m| m.functions().len()).sum(),
                );
                for module in snap.modules {
                    program.link(module).map_err(|e| invalid(e.to_string()))?;
                }
                // The reverse call index, summary cache, and last
                // result stay encoded until a request consults them —
                // startup is program residency, not a full rehydration.
                engine.projects.insert(
                    name.clone(),
                    Project {
                        program,
                        files: snap.files,
                        callers: LazyCallers::Raw(snap.callers),
                        apis,
                        options,
                        cache: LazyCache::Raw(snap.cache),
                        last: snap.state.map_or(LastRun::None, LastRun::Raw),
                        analyses: snap.analyses,
                        options_raw: snap.options,
                    },
                );
                restored += 1;
                let us = u64::try_from(restore_started.elapsed().as_micros()).unwrap_or(u64::MAX);
                engine.registry.observe("serve.op.restore.us", us);
            }
        }

        let journal_path = state_dir.join(journal::JOURNAL_FILE);
        let journal_len = std::fs::metadata(&journal_path).map(|m| m.len()).unwrap_or(0);
        if journal_len < offset {
            // The snapshot truncated the journal but crashed before
            // recording offset 0; finish its commit now.
            if let Some(mut manifest) = manifest {
                manifest.journal_offset = 0;
                manifest.store(&state_dir)?;
            }
            offset = 0;
        }
        let entries = journal::replayable_at(&journal_path, offset)?;
        // Trim the torn tail (if any) so new appends extend a valid
        // prefix instead of hiding behind garbage bytes forever.
        let valid_end = offset + entries.iter().map(|e| e.len() as u64 + 1).sum::<u64>();
        if journal_len > valid_end {
            let file = std::fs::OpenOptions::new().write(true).open(&journal_path)?;
            file.set_len(valid_end)?;
            file.sync_all()?;
        }
        engine.journal = Some(Journal::open(&state_dir)?);

        let mut span = rid_obs::span(rid_obs::SpanKind::JournalReplay, "journal-replay");
        span.set_value(entries.len() as u64);
        let replay_started = Instant::now();
        engine.replaying = true;
        let mut cursor = offset;
        for line in &entries {
            engine.replay_offset = Some(cursor);
            cursor += line.len() as u64 + 1;
            let _ = engine.handle_line(T::default(), line);
        }
        engine.replay_offset = None;
        if !entries.is_empty() {
            let us = u64::try_from(replay_started.elapsed().as_micros()).unwrap_or(u64::MAX);
            engine.registry.observe("serve.op.journal_replay.us", us);
        }
        // Deliberately no drain here: a trailing deferred entry stays
        // queued, exactly as it was at crash time, so the next live
        // drain trigger coalesces it the same way the original run
        // would have. Transports still drain at EOF.
        engine.replaying = false;
        engine.restore_info = Some((restored, entries.len()));
        Ok(engine)
    }
}

/// Validates a request into an executable [`Op`].
fn parse_op(request: &Request) -> Result<Op, (&'static str, String)> {
    let needs_project =
        matches!(request.op.as_str(), "register" | "analyze" | "patch" | "explain" | "diff");
    if needs_project && request.project.is_empty() {
        return Err(("usage", format!("op `{}` requires a `project`", request.op)));
    }
    match request.op.as_str() {
        "register" => Ok(Op::Register {
            sources: request.sources.clone(),
            options: request.options.clone(),
        }),
        "analyze" => Ok(Op::Analyze),
        "patch" => {
            if request.sources.is_empty() {
                return Err(("usage", "op `patch` requires non-empty `sources`".to_owned()));
            }
            Ok(Op::Patch { sources: request.sources.clone() })
        }
        "explain" => Ok(Op::Explain { function: request.function.clone() }),
        "diff" => Ok(Op::Diff { baseline: request.baseline.clone().unwrap_or_default() }),
        "stats" => match request.format.as_deref() {
            None | Some("json") => Ok(Op::Stats { format: StatsFormat::Json }),
            Some("prometheus") => Ok(Op::Stats { format: StatsFormat::Prometheus }),
            Some(other) => Err((
                "usage",
                format!("unknown stats format `{other}` (expected `json` or `prometheus`)"),
            )),
        },
        "snapshot" => Ok(Op::Snapshot),
        "shutdown" => Ok(Op::Shutdown),
        other => Err(("usage", format!("unknown op `{other}`"))),
    }
}

/// Applies registration options over the driver defaults.
fn resolve_options(
    options: Option<&ProjectOptions>,
) -> Result<(AnalysisOptions, SummaryDb), String> {
    let mut resolved = AnalysisOptions::default();
    let mut apis = rid_core::apis::linux_dpm_apis();
    if let Some(options) = options {
        if let Some(threads) = options.threads {
            resolved.threads = threads.max(1);
        }
        if let Some(selective) = options.selective {
            resolved.selective = selective;
        }
        if let Some(callbacks) = options.callbacks {
            resolved.check_callbacks = callbacks;
        }
        if let Some(ms) = options.func_deadline_ms {
            resolved.budget.func_deadline = Some(Duration::from_millis(ms));
        }
        if let Some(fuel) = options.fuel {
            resolved.budget.solver_fuel = Some(fuel);
        }
        if let Some(refute) = options.refute {
            resolved.refute = refute;
        }
        match options.apis.as_deref() {
            None | Some("dpm") => {}
            Some("python") => apis = rid_core::apis::python_c_apis(),
            Some("none") => apis = SummaryDb::new(),
            Some(other) => return Err(format!("unknown apis value `{other}`")),
        }
    }
    Ok((resolved, apis))
}

/// The project's configured options with the per-request deadline (if
/// any) mapped onto the budget's global deadline.
fn options_for(project: &Project, deadline_ms: Option<u64>) -> AnalysisOptions {
    let mut options = project.options;
    if let Some(ms) = deadline_ms {
        options.budget.global_deadline = Some(Duration::from_millis(ms));
    }
    options
}

/// One full driver run over the resident program and cache. The result
/// becomes the project's `last` state — responses borrow it from there;
/// it is never cloned per request.
fn run_analysis(project: &mut Project, deadline_ms: Option<u64>) {
    let options = options_for(project, deadline_ms);
    let result = rid_core::analyze_program_cached(
        &project.program,
        &project.apis,
        &options,
        &FaultPlan::none(),
        Some(project.cache.force()),
    );
    project.analyses += 1;
    project.last = LastRun::Ready(result);
}

/// Whether two modules define the same (name, weakness) signature with
/// no internal duplicates — the precondition for updating the resident
/// caller index in place instead of rebuilding it.
fn same_signature(a: &Module, b: &Module) -> bool {
    fn signature(m: &Module) -> Option<std::collections::HashMap<&str, bool>> {
        let sig: std::collections::HashMap<&str, bool> =
            m.functions().iter().map(|f| (f.name(), f.weak)).collect();
        (sig.len() == m.functions().len()).then_some(sig)
    }
    matches!((signature(a), signature(b)), (Some(a), Some(b)) if a == b)
}

/// One incremental run for a patch: with a previous result resident,
/// [`reanalyze_with_plan`](rid_core::incremental::reanalyze_with_plan)
/// re-executes only the affected cone and reuses the previous result's
/// summaries (and classification) for everything else — this is what
/// makes warm `patch` latency a fraction of a cold analyze. A patch
/// arriving before the project's first `analyze` falls back to a full
/// cached run.
fn run_patch(
    project: &mut Project,
    deadline_ms: Option<u64>,
    changed: &[&str],
    plan: &ReanalyzePlan,
) {
    let Some(previous) = project.last.take_result() else {
        run_analysis(project, deadline_ms);
        return;
    };
    let options = options_for(project, deadline_ms);
    let result = rid_core::incremental::reanalyze_with_plan(
        &project.program,
        &project.apis,
        previous,
        changed,
        &options,
        plan,
    );
    project.analyses += 1;
    project.last = LastRun::Ready(result);
}

/// The op-independent analysis payload shared by `analyze` and `patch`.
/// Cache hit/miss counters only describe full cached runs, so `patch`
/// (which reuses the previous result's summaries directly instead of
/// probing the cache) omits them.
fn analysis_payload(result: &AnalysisResult, include_cache: bool) -> Value {
    let mut payload = object([
        ("report_count", int(result.reports.len())),
        ("reports", compact_reports(result)),
        ("functions_total", int(result.stats.functions_total)),
        ("functions_analyzed", int(result.stats.functions_analyzed)),
    ]);
    if include_cache {
        let cache = object([
            ("hits", int(result.stats.cache_hits)),
            ("misses", int(result.stats.cache_misses)),
            ("invalidated", int(result.stats.cache_invalidated)),
        ]);
        push_field(&mut payload, "cache", cache);
    }
    payload
}

/// Compact report list: enough to triage without the full provenance
/// payload (`explain` renders that on demand).
fn compact_reports(result: &AnalysisResult) -> Value {
    Value::Seq(
        result
            .reports
            .iter()
            .map(|report| {
                object([
                    ("function", Value::Str(report.function.clone())),
                    ("refcount", Value::Str(report.refcount.to_string())),
                    ("change_a", int(report.change_a)),
                    ("change_b", int(report.change_b)),
                    ("path_a", int(report.path_a)),
                    ("path_b", int(report.path_b)),
                    ("callback", Value::Bool(report.callback)),
                ])
            })
            .collect(),
    )
}

/// The envelope's `degraded` array: every function the run degraded,
/// with the reason and its analysis cost — degradation is surfaced, not
/// swallowed.
fn degraded_value(result: &AnalysisResult) -> Value {
    Value::Seq(
        result
            .degraded
            .iter()
            .map(|(name, degradation)| {
                object([
                    ("function", Value::Str(name.clone())),
                    ("reason", Value::Str(degradation.reason.label().to_owned())),
                    ("wall_ms", int(degradation.cost.wall_ms)),
                ])
            })
            .collect(),
    )
}

/// An object built from owned fields. Reply payloads are assembled this
/// way rather than with `json!`, which serializes, and so deep-copies,
/// every value handed to it.
fn object<const N: usize>(fields: [(&str, Value); N]) -> Value {
    Value::Map(fields.into_iter().map(|(key, value)| (key.to_owned(), value)).collect())
}

/// An integer field. Every count and id in a reply fits in an `i64`,
/// the serde stub's one integer representation.
fn int(n: impl TryInto<i64>) -> Value {
    Value::Int(n.try_into().unwrap_or(i64::MAX))
}

/// A string array, moving the strings in.
fn strings(items: impl IntoIterator<Item = String>) -> Value {
    Value::Seq(items.into_iter().map(Value::Str).collect())
}

fn unknown_project(id: u64, project: &str) -> String {
    error_line(Some(id), "unknown-project", &format!("no project `{project}` registered"))
}

/// Appends a field to an object payload.
fn push_field(payload: &mut Value, key: &str, value: Value) {
    if let Value::Map(pairs) = payload {
        pairs.push((key.to_owned(), value));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The Figure 8 shape: the error path leaks the reference and its
    /// return value overlaps the success path's, so the pair is
    /// inconsistent.
    const BUGGY: &str = r#"module m;
        fn probe(dev) {
            let ret = pm_runtime_get_sync(dev);
            if (ret < 0) { return ret; }
            ret = helper_update(dev);
            pm_runtime_put(dev);
            return ret;
        }"#;

    fn line(value: Value) -> String {
        serde_json::to_string(&value).unwrap()
    }

    fn parse(response: &str) -> Value {
        serde_json::from_str(response).unwrap()
    }

    fn register_line(id: u64) -> String {
        line(serde_json::json!({
            "id": id, "op": "register", "project": "p",
            "sources": serde_json::json!({ "m.ril": BUGGY }),
        }))
    }

    #[test]
    fn register_then_analyze_reports_the_bug() {
        let mut engine: Engine<()> = Engine::new(ServerConfig::default());
        let replies = engine.handle_line((), &register_line(1));
        assert_eq!(replies.len(), 1);
        let reply = parse(&replies[0].1);
        assert_eq!(reply["ok"].as_bool(), Some(true));
        assert_eq!(reply["result"]["functions"].as_i64(), Some(1));

        let replies = engine
            .handle_line((), &line(serde_json::json!({ "id": 2, "op": "analyze", "project": "p" })));
        let reply = parse(&replies[0].1);
        assert_eq!(reply["id"].as_i64(), Some(2));
        assert_eq!(reply["result"]["report_count"].as_i64(), Some(1));
        assert_eq!(
            reply["result"]["reports"][0]["function"].as_str(),
            Some("probe")
        );
    }

    #[test]
    fn unknown_op_and_unknown_project_are_usage_errors() {
        let mut engine: Engine<()> = Engine::new(ServerConfig::default());
        let replies = engine.handle_line((), r#"{"id":1,"op":"frobnicate"}"#);
        assert_eq!(parse(&replies[0].1)["error"]["kind"].as_str(), Some("usage"));
        let replies =
            engine.handle_line((), r#"{"id":2,"op":"analyze","project":"nope"}"#);
        assert_eq!(
            parse(&replies[0].1)["error"]["kind"].as_str(),
            Some("unknown-project")
        );
        let replies = engine.handle_line((), "{not json");
        let reply = parse(&replies[0].1);
        assert_eq!(reply["error"]["kind"].as_str(), Some("parse"));
        assert!(reply["id"].is_null());
    }

    #[test]
    fn full_queue_answers_backpressure() {
        let mut engine: Engine<()> =
            Engine::new(ServerConfig { queue_cap: 1, ..ServerConfig::default() });
        let mut deferred = serde_json::from_str::<Request>(
            r#"{"id":1,"op":"stats"}"#,
        )
        .unwrap();
        deferred.defer = true;
        assert!(engine.handle_line((), &deferred.to_line()).is_empty());
        deferred.id = 2;
        let replies = engine.handle_line((), &deferred.to_line());
        let reply = parse(&replies[0].1);
        assert_eq!(reply["error"]["kind"].as_str(), Some("backpressure"));
        assert_eq!(reply["id"].as_i64(), Some(2));
        // The queued request is still answered by the next drain.
        let drained = engine.drain();
        assert_eq!(drained.len(), 1);
        assert_eq!(parse(&drained[0].1)["id"].as_i64(), Some(1));
    }

    #[test]
    fn deferred_patches_coalesce_into_one_run() {
        let mut engine: Engine<()> = Engine::new(ServerConfig::default());
        engine.handle_line((), &register_line(1));
        engine.handle_line((), &line(serde_json::json!({ "id": 2, "op": "analyze", "project": "p" })));

        let fixed = BUGGY.replace("{ return ret; }", "{ pm_runtime_put(dev); return ret; }");
        let patch1 = line(serde_json::json!({
            "id": 3, "op": "patch", "project": "p", "defer": true,
            "sources": serde_json::json!({ "m.ril": fixed }),
        }));
        let patch2 = line(serde_json::json!({
            "id": 4, "op": "patch", "project": "p", "defer": true,
            "sources": serde_json::json!({ "m.ril": BUGGY }),
        }));
        assert!(engine.handle_line((), &patch1).is_empty());
        assert!(engine.handle_line((), &patch2).is_empty());
        let replies =
            engine.handle_line((), &line(serde_json::json!({ "id": 5, "op": "stats" })));
        assert_eq!(replies.len(), 3, "two patch replies + stats");
        let first = parse(&replies[0].1);
        let second = parse(&replies[1].1);
        assert_eq!(first["result"]["batched"].as_i64(), Some(2));
        assert_eq!(second["result"]["batched"].as_i64(), Some(2));
        // Later patch wins: the module is back to the buggy version.
        assert_eq!(first["result"]["report_count"].as_i64(), Some(1));
        let stats = parse(&replies[2].1);
        assert_eq!(stats["result"]["server"]["coalesced"].as_i64(), Some(1));
    }

    #[test]
    fn stats_embeds_telemetry_histograms_with_tail_quantiles() {
        let mut engine: Engine<()> = Engine::new(ServerConfig::default());
        engine.handle_line((), &register_line(1));
        engine
            .handle_line((), &line(serde_json::json!({ "id": 2, "op": "analyze", "project": "p" })));
        let replies =
            engine.handle_line((), &line(serde_json::json!({ "id": 3, "op": "stats" })));
        let reply = parse(&replies[0].1);
        let telemetry = &reply["result"]["telemetry"];
        assert_eq!(telemetry["counters"]["serve.accepted"].as_i64(), Some(3));
        assert_eq!(telemetry["gauges"]["serve.projects"].as_i64(), Some(1));
        for op in ["register", "analyze"] {
            let h = &telemetry["histograms"][format!("serve.op.{op}.us").as_str()];
            assert_eq!(h["count"].as_i64(), Some(1), "one timed `{op}` request");
            for q in ["p50", "p99", "p999"] {
                assert!(!h[q].is_null(), "`{op}` histogram carries {q}");
            }
        }
        let per_project = &telemetry["histograms"]["serve.project.p.us"];
        assert_eq!(per_project["count"].as_i64(), Some(2), "register + analyze");
    }

    #[test]
    fn stats_prometheus_format_returns_a_text_exposition() {
        let mut engine: Engine<()> = Engine::new(ServerConfig::default());
        engine.handle_line((), &register_line(1));
        let replies = engine.handle_line(
            (),
            &line(serde_json::json!({ "id": 2, "op": "stats", "format": "prometheus" })),
        );
        let reply = parse(&replies[0].1);
        assert!(reply["result"]["telemetry"].is_null(), "prometheus replaces the JSON embed");
        let text = reply["result"]["prometheus"].as_str().expect("exposition string");
        assert!(text.contains("# TYPE rid_serve_accepted counter"));
        assert!(text.contains("# TYPE rid_serve_op_register_us summary"));
        assert!(text.contains("rid_serve_op_register_us{quantile=\"0.999\"}"));
        assert!(text.contains("rid_serve_op_register_us_count 1"));

        let replies = engine.handle_line(
            (),
            &line(serde_json::json!({ "id": 3, "op": "stats", "format": "xml" })),
        );
        assert_eq!(parse(&replies[0].1)["error"]["kind"].as_str(), Some("usage"));
    }

    #[test]
    fn shutdown_drains_accepted_requests_first() {
        let mut engine: Engine<()> = Engine::new(ServerConfig::default());
        engine.handle_line((), &register_line(1));
        let deferred = line(serde_json::json!({
            "id": 2, "op": "analyze", "project": "p", "defer": true,
        }));
        assert!(engine.handle_line((), &deferred).is_empty());
        let replies = engine.handle_line((), r#"{"id":3,"op":"shutdown"}"#);
        assert_eq!(replies.len(), 2);
        assert_eq!(parse(&replies[0].1)["id"].as_i64(), Some(2), "queued work answered");
        let bye = parse(&replies[1].1);
        assert_eq!(bye["id"].as_i64(), Some(3));
        assert_eq!(bye["result"]["drained"].as_i64(), Some(1));
        assert!(engine.is_shutting_down());
        let rejected = engine.handle_line((), r#"{"id":4,"op":"stats"}"#);
        assert_eq!(
            parse(&rejected[0].1)["error"]["kind"].as_str(),
            Some("shutting-down")
        );
    }

    fn tempdir(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("rid-engine-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn durable_config(dir: &Path) -> ServerConfig {
        ServerConfig { state_dir: Some(dir.to_path_buf()), ..ServerConfig::default() }
    }

    #[test]
    fn ping_answers_inline_even_while_draining() {
        let mut engine: Engine<()> = Engine::new(ServerConfig::default());
        engine.handle_line((), r#"{"id":1,"op":"shutdown"}"#);
        assert!(engine.is_shutting_down());
        let replies = engine.handle_line((), r#"{"id":2,"op":"ping"}"#);
        let reply = parse(&replies[0].1);
        assert_eq!(reply["ok"].as_bool(), Some(true));
        assert_eq!(reply["result"]["pong"].as_bool(), Some(true));
        assert_eq!(reply["result"]["draining"].as_bool(), Some(true));
    }

    #[test]
    fn idempotency_key_answers_retries_from_memory() {
        let mut engine: Engine<()> = Engine::new(ServerConfig::default());
        engine.handle_line((), &register_line(1));
        let analyze = r#"{"id":2,"op":"analyze","project":"p","idem":"k-1"}"#;
        let first = engine.handle_line((), analyze);
        let retry = engine.handle_line((), analyze);
        assert_eq!(first[0].1, retry[0].1, "retry must be the remembered reply");
        let stats =
            engine.handle_line((), &line(serde_json::json!({ "id": 3, "op": "stats" })));
        let stats = parse(&stats[0].1);
        assert_eq!(
            stats["result"]["projects"]["p"]["analyses"].as_i64(),
            Some(1),
            "the retry must not have re-executed"
        );
        assert_eq!(stats["result"]["server"]["idem_hits"].as_i64(), Some(1));
    }

    #[test]
    fn snapshot_then_recover_restores_projects_without_reregistration() {
        let dir = tempdir("snap-recover");
        {
            let mut engine: Engine<()> = Engine::recover(durable_config(&dir)).unwrap();
            engine.handle_line((), &register_line(1));
            engine.handle_line(
                (),
                &line(serde_json::json!({ "id": 2, "op": "analyze", "project": "p" })),
            );
            let replies = engine.handle_line((), r#"{"id":3,"op":"snapshot"}"#);
            let reply = parse(&replies[0].1);
            assert_eq!(reply["ok"].as_bool(), Some(true), "snapshot reply: {reply:?}");
            assert_eq!(reply["result"]["gen"].as_i64(), Some(1));
            assert_eq!(reply["result"]["journal_truncated"].as_bool(), Some(true));
        }
        let mut engine: Engine<()> = Engine::recover(durable_config(&dir)).unwrap();
        let replies = engine
            .handle_line((), &line(serde_json::json!({ "id": 4, "op": "analyze", "project": "p" })));
        let reply = parse(&replies[0].1);
        assert_eq!(reply["result"]["report_count"].as_i64(), Some(1), "{reply:?}");
        let stats = engine.handle_line((), r#"{"id":5,"op":"stats"}"#);
        let stats = parse(&stats[0].1);
        assert_eq!(stats["result"]["server"]["restored_projects"].as_i64(), Some(1));
        assert_eq!(stats["result"]["server"]["replayed_entries"].as_i64(), Some(0));
        assert_eq!(stats["result"]["projects"]["p"]["analyses"].as_i64(), Some(2));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn journal_replay_recovers_unsnapshotted_work_after_hard_crash() {
        let dir = tempdir("replay");
        {
            let mut engine: Engine<()> = Engine::recover(durable_config(&dir)).unwrap();
            engine.handle_line((), &register_line(1));
            engine.handle_line(
                (),
                &line(serde_json::json!({ "id": 2, "op": "analyze", "project": "p" })),
            );
            // No snapshot, no shutdown: dropping the engine here is the
            // kill -9.
        }
        let mut engine: Engine<()> = Engine::recover(durable_config(&dir)).unwrap();
        let stats = engine.handle_line((), r#"{"id":3,"op":"stats"}"#);
        let stats = parse(&stats[0].1);
        assert_eq!(stats["result"]["server"]["replayed_entries"].as_i64(), Some(2));
        assert_eq!(stats["result"]["projects"]["p"]["analyses"].as_i64(), Some(1));
        assert_eq!(stats["result"]["projects"]["p"]["reports"].as_i64(), Some(1));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn injected_torn_append_rejects_the_request_and_survives_restart() {
        let dir = tempdir("torn-accept");
        let config = ServerConfig {
            state_dir: Some(dir.clone()),
            fault: ServeFaultPlan { seed: 1, torn_journal_rate: 1.0, fsync_fail_rate: 0.0 },
            ..ServerConfig::default()
        };
        let mut engine: Engine<()> = Engine::recover(config).unwrap();
        let replies = engine.handle_line((), &register_line(1));
        let reply = parse(&replies[0].1);
        assert_eq!(reply["error"]["kind"].as_str(), Some("journal"));
        drop(engine);
        // Restart without faults: the torn tail is trimmed, nothing
        // replays, and the journal accepts appends again.
        let mut engine: Engine<()> = Engine::recover(durable_config(&dir)).unwrap();
        let replies = engine.handle_line((), &register_line(2));
        assert_eq!(parse(&replies[0].1)["ok"].as_bool(), Some(true));
        let stats = engine.handle_line((), r#"{"id":3,"op":"stats"}"#);
        assert_eq!(
            parse(&stats[0].1)["result"]["server"]["replayed_entries"].as_i64(),
            Some(0)
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn snapshot_without_state_dir_is_a_usage_error() {
        let mut engine: Engine<()> = Engine::new(ServerConfig::default());
        let replies = engine.handle_line((), r#"{"id":1,"op":"snapshot"}"#);
        assert_eq!(parse(&replies[0].1)["error"]["kind"].as_str(), Some("usage"));
    }

    #[test]
    fn patch_with_unparsable_module_leaves_project_intact() {
        let mut engine: Engine<()> = Engine::new(ServerConfig::default());
        engine.handle_line((), &register_line(1));
        let bad = line(serde_json::json!({
            "id": 2, "op": "patch", "project": "p",
            "sources": serde_json::json!({ "m.ril": "module m; fn broken(" }),
        }));
        let replies = engine.handle_line((), &bad);
        assert_eq!(parse(&replies[0].1)["error"]["kind"].as_str(), Some("frontend"));
        // The resident module still analyzes as before.
        let replies = engine
            .handle_line((), &line(serde_json::json!({ "id": 3, "op": "analyze", "project": "p" })));
        assert_eq!(parse(&replies[0].1)["result"]["report_count"].as_i64(), Some(1));
    }
}
