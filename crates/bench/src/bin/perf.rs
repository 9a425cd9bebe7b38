//! Regenerates the **§6.5 performance** claim and persists a
//! machine-readable baseline (schema `rid-bench-perf/v10`).
//!
//! For each corpus scale the binary parses the seeded kernel corpus once,
//! then runs the whole-program analysis `--iters` times per execution
//! mode (tree, per-path, and the adaptive default `auto`), keeping the
//! *minimum* wall-clock per phase (minimum-of-N is the standard noise
//! filter for sub-second runs). At the largest scale it additionally
//! measures a **thread-scaling sweep** (1/2/4/8 workers through the
//! work-stealing scheduler) and a **cold-vs-warm cache pair**: one run
//! populating a fresh [`rid_core::SummaryCache`], then re-runs of the
//! unchanged corpus answering from it. The human-readable table goes to
//! stdout; the machine-readable baseline is written to `BENCH_perf.json`
//! (override with `--out`), which CI validates and archives.
//!
//! ```text
//! cargo run -p rid-bench --release --bin perf -- \
//!     [--seed N] [--threads N] [--scale F] [--iters N] [--out PATH]
//! ```
//!
//! `--scale` restricts the run to a single scale (CI smoke uses 0.25);
//! the default sweep is 0.25 / 0.5 / 1.0. `--threads` sets the worker
//! count for the per-mode records and the cache pair (the thread sweep
//! ignores it).
//!
//! Since v6 the baseline additionally records a [`MemoryRecord`] (peak
//! RSS plus the interned-IR footprint against its pre-interning
//! string-layout model), a [`StoreRecord`] (RIDSS1 summary-container
//! open/materialize wall-clock), and — when built with
//! `--features alloc-track` — per-phase allocation counts from a
//! counting global allocator.
//!
//! Since v7 every sweep cell is **honest about the host**: a record
//! whose worker count exceeds `host_cpus` carries
//! `scaling_asserted: false`, telling the validator (and the reader)
//! that no speedup claim is being made for it. The thread sweep also
//! reports the scheduler's steal/idle telemetry (successful steals,
//! scan misses, mean batch size, total parked nanoseconds).
//!
//! Since v9 the baseline carries a [`RefuteRecord`]: the wall-clock
//! cost of the second-stage refutation pass at the largest scale
//! (stage-one-only vs the default two-stage pipeline) and its precision
//! effect on a corpus seeded with known-spurious idioms
//! (`gen-kernel --spurious`) — how many seeded-spurious reports the
//! pass refutes and how many true positives it loses (the committed
//! baseline is all-of-them and zero; CI enforces both against this
//! record).
//!
//! v10 drops the multi-process sweep (the `--processes` mode is gone)
//! and the store record's timing of the legacy JSON cache format, which
//! nothing writes any more.

use std::time::Instant;

use rid_bench::format_table;
use rid_core::{AnalysisOptions, AnalysisResult, ExecMode, FaultPlan, SummaryCache};
use rid_corpus::kernel::{generate_kernel, KernelConfig};
use serde::Serialize;

#[path = "../args.rs"]
mod args;

/// The allocation-tracking harness: a counting shim in front of the
/// system allocator, compiled in only with `--features alloc-track`
/// (`rid-bench`'s library forbids `unsafe`; the shim lives in this
/// binary). Counters are relaxed atomics, so the shim is safe in any
/// allocation context and cheap enough that CI runs the whole benchmark
/// under it.
#[cfg(feature = "alloc-track")]
mod alloc_track {
    #![deny(unsafe_op_in_unsafe_fn)]

    use std::alloc::{GlobalAlloc, Layout, System};
    use std::sync::atomic::{AtomicU64, Ordering};

    static ALLOCS: AtomicU64 = AtomicU64::new(0);
    static BYTES: AtomicU64 = AtomicU64::new(0);

    struct Counting;

    // SAFETY: every operation delegates to `System` unchanged; the
    // bookkeeping on the side is lock-free and never allocates.
    unsafe impl GlobalAlloc for Counting {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
            unsafe { System.alloc(layout) }
        }

        unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
            unsafe { System.alloc_zeroed(layout) }
        }

        unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            BYTES.fetch_add(new_size.saturating_sub(layout.size()) as u64, Ordering::Relaxed);
            unsafe { System.realloc(ptr, layout, new_size) }
        }

        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            unsafe { System.dealloc(ptr, layout) }
        }
    }

    #[global_allocator]
    static COUNTING: Counting = Counting;

    /// Cumulative (allocations, requested bytes) since process start.
    pub fn snapshot() -> (u64, u64) {
        (ALLOCS.load(Ordering::Relaxed), BYTES.load(Ordering::Relaxed))
    }
}

/// Cumulative (allocations, requested bytes); the zero pair when the
/// harness is compiled out.
fn alloc_snapshot() -> (u64, u64) {
    #[cfg(feature = "alloc-track")]
    {
        alloc_track::snapshot()
    }
    #[cfg(not(feature = "alloc-track"))]
    {
        (0, 0)
    }
}

/// Runs `f`, appending the allocation delta it caused as a named phase.
/// Deltas are all-zero without `--features alloc-track` (the record's
/// `enabled` flag says which reading this is).
fn track_phase<T>(
    phases: &mut Vec<PhaseAlloc>,
    name: impl Into<String>,
    f: impl FnOnce() -> T,
) -> T {
    let before = alloc_snapshot();
    let out = f();
    let after = alloc_snapshot();
    phases.push(PhaseAlloc {
        phase: name.into(),
        allocs: after.0.saturating_sub(before.0),
        bytes: after.1.saturating_sub(before.1),
    });
    out
}

/// One measured analysis configuration (a scale × mode cell).
#[derive(Serialize)]
struct ModeRecord {
    /// Wall-clock of the classification phase (seconds, min over iters).
    classify_s: f64,
    /// Wall-clock of summarization + IPP checking (seconds, min over
    /// iters) — the phase the scheduler and the execution tree accelerate.
    analyze_s: f64,
    /// Functions symbolically analyzed.
    functions_analyzed: usize,
    /// Structural paths enumerated.
    paths_enumerated: usize,
    /// Symbolic states executed (initial states + call forks + tree
    /// branch forks).
    states_explored: usize,
    /// Satisfiability queries issued.
    sat_queries: usize,
    /// Of those, answered by the conjunction-keyed memo cache.
    sat_memo_hits: usize,
    /// Basic blocks symbolically executed.
    blocks_executed: usize,
    /// Block executions saved by shared-prefix execution (0 in per-path
    /// mode by construction).
    blocks_saved: usize,
    /// Functions executed in tree mode (after `Auto` resolution).
    exec_tree: usize,
    /// Functions executed in per-path mode (after `Auto` resolution).
    exec_per_path: usize,
    /// Bug reports found (must agree across modes).
    reports: usize,
}

#[derive(Serialize)]
struct ScaleRecord {
    scale: f64,
    functions: usize,
    /// Corpus parse wall-clock (seconds; shared by all modes).
    parse_s: f64,
    tree: ModeRecord,
    per_path: ModeRecord,
    auto: ModeRecord,
    /// `per_path.analyze_s / tree.analyze_s`.
    analyze_speedup: f64,
    /// `min(tree, per_path).analyze_s / auto.analyze_s` — the adaptive
    /// mode's efficiency against the per-scale best fixed mode. 1.0
    /// means Auto matched the best mode exactly; above 1.0 its per-
    /// function mix beat both fixed modes. CI asserts >= 0.97.
    auto_vs_best: f64,
}

/// One cell of the thread-scaling sweep (largest scale, `Auto` mode).
#[derive(Serialize)]
struct ThreadRecord {
    threads: usize,
    /// Analyze wall-clock (seconds, min over iters).
    analyze_s: f64,
    /// `analyze_s(1 thread) / analyze_s(this)` — work-stealing scaling.
    speedup_vs_1: f64,
    /// Whether this cell is a scaling claim at all: `true` iff the host
    /// offers at least `threads` CPUs. On a 1-core runner every
    /// multi-worker cell is `false` — the numbers are recorded for
    /// continuity but assert nothing.
    scaling_asserted: bool,
    /// Successful steals across all workers (best iteration).
    steals: u64,
    /// Victim scans that found every deque empty (worker then parked).
    scan_misses: u64,
    /// Mean items drained per successful steal (0 when none happened).
    steal_batch_mean: f64,
    /// Total nanoseconds workers spent parked waiting for work.
    idle_wait_ns: u64,
}

/// Counter triple of one cached run.
#[derive(Serialize)]
struct CacheCounters {
    hits: usize,
    misses: usize,
    invalidated: usize,
}

/// Cold-vs-warm persistent-cache measurement (largest scale, `Auto`).
#[derive(Serialize)]
struct CacheRecord {
    /// Worker threads used for the cold/warm pair. Pinned to 1 so the
    /// record isolates the cache effect: the thread sweep above already
    /// characterizes scheduler scaling, and on a single-core runner
    /// extra workers only add noise to both sides of the ratio.
    threads: usize,
    /// Analyze wall-clock populating a fresh cache (seconds, min over
    /// iters; each iteration starts from an empty cache).
    cold_s: f64,
    /// Analyze wall-clock of the unchanged corpus answering from the
    /// populated cache (seconds, min over iters).
    warm_s: f64,
    /// `cold_s / warm_s` (target: ≥ 5).
    warm_speedup: f64,
    cold: CacheCounters,
    warm: CacheCounters,
}

/// The branchy workload: adversarial modules whose functions chain
/// diamonds (2^depth structural paths, truncated by the path cap). This
/// is the CFG shape the execution tree targets — long shared prefixes
/// across many enumerated paths — and the shape real kernel drivers
/// have (chains of `if (err) goto out;`). The evaluation corpus cannot
/// show it: classification skips functions with more than three
/// branches, so surviving functions have at most a handful of paths.
#[derive(Serialize)]
struct AdversarialRecord {
    modules: usize,
    depth: usize,
    functions: usize,
    parse_s: f64,
    tree: ModeRecord,
    per_path: ModeRecord,
    auto: ModeRecord,
    /// `per_path.analyze_s / tree.analyze_s`.
    analyze_speedup: f64,
    /// `min(tree, per_path).analyze_s / auto.analyze_s` (>= 0.97 target).
    auto_vs_best: f64,
}

/// Tracing-overhead pair (largest scale, `Auto` mode, 1 thread).
///
/// `disabled_s` is the production configuration: the rid-obs probes are
/// compiled in but gated behind one relaxed atomic load, so it must
/// track the plain `analyze_s` records (CI compares it against the
/// committed baseline with a <2% tolerance). `enabled_s` quantifies the
/// cost of a full `--trace` run for the docs.
#[derive(Serialize)]
struct OverheadRecord {
    /// Analyze wall-clock with tracing compiled in but disabled
    /// (seconds, min over iters).
    disabled_s: f64,
    /// Analyze wall-clock with tracing enabled, ring drained per run
    /// (seconds, min over iters).
    enabled_s: f64,
    /// `enabled_s / disabled_s`.
    enabled_over_disabled: f64,
    /// Events captured by the slowest-path sanity run (must be > 0, or
    /// the "enabled" measurement silently measured nothing).
    events: usize,
}

/// Two-stage refutation measurement (schema v9). The overhead pair is
/// measured at the largest scale with a single worker (per-report solver
/// cost, not scheduling, is the quantity of interest); the precision
/// half runs on a dedicated small corpus seeded with known-spurious
/// idioms, because the evaluation corpus deliberately contains none.
#[derive(Serialize)]
struct RefuteRecord {
    /// Analyze wall-clock with `--no-refute` — stage one only (seconds,
    /// min over iters).
    stage1_s: f64,
    /// Analyze wall-clock of the default two-stage pipeline (seconds,
    /// min over iters).
    two_stage_s: f64,
    /// `two_stage_s / stage1_s` — the refutation overhead multiplier on
    /// a corpus where (almost) every report is a true positive, i.e. the
    /// worst case: refutation re-solves every report and drops none.
    overhead_ratio: f64,
    /// Reports surviving the two-stage pipeline at the largest scale.
    reports_confirmed: usize,
    /// Seeded-spurious functions in the precision corpus.
    seeded_spurious: usize,
    /// Of those, drawing a stage-one report (the corpus generator
    /// guarantees all of them do — the idiom is built to exhaust the
    /// stage-one split budget).
    stage1_spurious_reports: usize,
    /// Seeded-spurious reports removed by the refutation pass.
    refuted_spurious: usize,
    /// `refuted_spurious / stage1_spurious_reports` — the committed
    /// baseline share CI holds future runs to (≥, never <).
    refutation_share: f64,
    /// Ground-truth bug functions reported by stage one but missing
    /// after refutation. Soundness bar: must be 0 — a fresh-variable
    /// conjunction can never refute a genuinely satisfiable pair.
    true_positives_lost: usize,
}

/// Allocation delta of one benchmark phase (see [`track_phase`]).
#[derive(Serialize)]
struct PhaseAlloc {
    phase: String,
    /// Heap allocations performed during the phase (alloc + alloc_zeroed
    /// + realloc calls).
    allocs: u64,
    /// Bytes requested from the allocator during the phase (realloc
    /// counts growth only).
    bytes: u64,
}

/// Per-phase output of the counting-allocator harness.
#[derive(Serialize)]
struct AllocRecord {
    /// Whether the binary was built with `--features alloc-track`. When
    /// `false` every phase delta is zero (the phases still document
    /// what would be measured).
    enabled: bool,
    phases: Vec<PhaseAlloc>,
}

/// Resident-memory measurement at the largest scale: the process peak
/// plus the interned-IR footprint against the modeled pre-interning
/// layout (see [`rid_ir::mem`]). CI asserts `ir_reduction_ratio >= 1.3`
/// — the ≥30% bytes-per-function reduction claim.
#[derive(Serialize)]
struct MemoryRecord {
    /// Peak resident set of this process (`VmHWM`, bytes; 0 where
    /// `/proc/self/status` is unavailable). Covers the whole benchmark
    /// including the corpus text, so it bounds — not isolates — the IR.
    peak_rss_bytes: u64,
    /// Measured heap bytes of the interned struct-of-arrays IR
    /// (largest scale), intern table included.
    ir_resident_bytes: usize,
    /// Of `ir_resident_bytes`: the process-global intern table.
    ir_interner_bytes: usize,
    /// The same IR priced under the pre-interning `String` layout.
    ir_string_layout_bytes: usize,
    /// `ir_resident_bytes / functions`.
    ir_bytes_per_function: f64,
    /// `ir_string_layout_bytes / ir_resident_bytes` (>= 1.3 target).
    ir_reduction_ratio: f64,
    /// Name occurrences in the walked IR (each one an owned `String`
    /// in the old layout).
    sym_occurrences: usize,
    /// Total text bytes across those occurrences, duplicates included.
    sym_text_bytes: usize,
}

/// Warm-restart cost of the RIDSS1 summary container (largest scale,
/// min over iters). `store_open_s` is what a daemon restore or
/// `--cache` warm start pays up front — header + index verification
/// only; entry payloads are read (and checksummed) on first use.
#[derive(Serialize)]
struct StoreRecord {
    /// Summaries in the measured cache.
    entries: usize,
    /// Container size on disk (bytes).
    file_bytes: u64,
    /// Open + index verify, no payload reads (seconds, min over iters).
    store_open_s: f64,
    /// Open + read and verify every entry (seconds, min over iters) —
    /// the worst case where the whole corpus misses.
    store_full_s: f64,
}

#[derive(Serialize)]
struct PerfBaseline {
    schema: String,
    seed: u64,
    threads: usize,
    iters: usize,
    /// CPUs the host actually offers — the ceiling on any observable
    /// thread-sweep speedup (a 1-core runner can only show ~1.0x).
    host_cpus: usize,
    scales: Vec<ScaleRecord>,
    /// Work-stealing scheduler scaling at the largest measured scale.
    thread_sweep: Vec<ThreadRecord>,
    /// Persistent-cache cold/warm pair at the largest measured scale.
    cache: CacheRecord,
    /// Disabled-vs-enabled tracing cost at the largest measured scale.
    overhead: OverheadRecord,
    /// Second-stage refutation cost + precision (seeded-spurious corpus).
    refute: RefuteRecord,
    adversarial: AdversarialRecord,
    /// Peak RSS and interned-IR footprint at the largest scale.
    memory: MemoryRecord,
    /// Summary-container warm-load pair at the largest scale.
    summary_store: StoreRecord,
    /// Counting-allocator phase deltas (zeros unless built with
    /// `--features alloc-track`).
    alloc: AllocRecord,
    /// Daemon cold/warm/patch latency record. This binary leaves it
    /// `null`; `serve_bench` measures it and patches it into the same
    /// baseline file (so the two binaries can be re-run independently
    /// without clobbering each other's sections).
    serve: serde_json::Value,
}

/// One timed run; returns (classify_s, analyze_s, result).
fn run_once(
    program: &rid_ir::Program,
    mode: ExecMode,
    threads: usize,
) -> (f64, f64, AnalysisResult) {
    let options = AnalysisOptions { threads, exec_mode: mode, ..Default::default() };
    let result =
        rid_core::analyze_program(program, &rid_core::apis::linux_dpm_apis(), &options);
    let classify = result.stats.classify_time.as_secs_f64();
    let analyze = result.stats.analyze_time.as_secs_f64();
    (classify, analyze, result)
}

fn to_record(best: Option<(f64, f64, AnalysisResult)>) -> ModeRecord {
    let (classify_s, analyze_s, result) = best.expect("at least one iteration");
    ModeRecord {
        classify_s,
        analyze_s,
        functions_analyzed: result.stats.functions_analyzed,
        paths_enumerated: result.stats.paths_enumerated,
        states_explored: result.stats.states_explored,
        sat_queries: result.stats.sat_queries,
        sat_memo_hits: result.stats.sat_memo_hits,
        blocks_executed: result.stats.blocks_executed,
        blocks_saved: result.stats.blocks_saved,
        exec_tree: result.stats.exec_tree,
        exec_per_path: result.stats.exec_per_path,
        reports: result.reports.len(),
    }
}

/// Measures all three modes with iterations **interleaved round-robin**
/// (tree, per-path, auto, tree, …) rather than mode-by-mode: slow
/// environmental drift (a noisy neighbor, thermal throttling) then hits
/// every mode's sample set equally instead of skewing whichever mode
/// happened to own the bad window, which is what the cross-mode ratios
/// (`analyze_speedup`, `auto_vs_best`) are sensitive to.
fn measure_modes(
    program: &rid_ir::Program,
    threads: usize,
    iters: usize,
) -> (ModeRecord, ModeRecord, ModeRecord) {
    let mut best: [Option<(f64, f64, AnalysisResult)>; 3] = [None, None, None];
    for _ in 0..iters.max(1) {
        for (slot, mode) in
            [ExecMode::Tree, ExecMode::PerPath, ExecMode::Auto].into_iter().enumerate()
        {
            let (classify, analyze, result) = run_once(program, mode, threads);
            let better = match &best[slot] {
                Some((_, prev_analyze, _)) => analyze < *prev_analyze,
                None => true,
            };
            if better {
                best[slot] = Some((classify, analyze, result));
            }
        }
    }
    let [tree, per_path, auto] = best;
    (to_record(tree), to_record(per_path), to_record(auto))
}

/// Minimum analyze wall-clock of `Auto` mode over `iters` runs.
fn measure_analyze_s(program: &rid_ir::Program, threads: usize, iters: usize) -> f64 {
    let options = AnalysisOptions { threads, ..Default::default() };
    (0..iters.max(1))
        .map(|_| {
            rid_core::analyze_program(program, &rid_core::apis::linux_dpm_apis(), &options)
                .stats
                .analyze_time
                .as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min)
}

/// One thread-sweep cell: minimum analyze wall-clock plus the scheduler
/// telemetry of that best iteration (1-thread runs take the sequential
/// fast path and legitimately report no steals).
fn measure_thread_cell(
    program: &rid_ir::Program,
    threads: usize,
    iters: usize,
    host_cpus: usize,
) -> ThreadRecord {
    let options = AnalysisOptions { threads, ..Default::default() };
    let mut best: Option<AnalysisResult> = None;
    for _ in 0..iters.max(1) {
        let result =
            rid_core::analyze_program(program, &rid_core::apis::linux_dpm_apis(), &options);
        if best.as_ref().is_none_or(|b| result.stats.analyze_time < b.stats.analyze_time) {
            best = Some(result);
        }
    }
    let best = best.expect("at least one iteration");
    let profiles = &best.stats.worker_profiles;
    let steals: u64 = profiles.iter().map(|p| p.steals).sum();
    let scan_misses: u64 = profiles.iter().map(|p| p.scan_misses).sum();
    let batch_sum: u64 = profiles.iter().map(|p| p.steal_batch.sum).sum();
    let idle_wait_ns: u64 = profiles.iter().map(|p| p.idle_wait_ns.sum).sum();
    ThreadRecord {
        threads,
        analyze_s: best.stats.analyze_time.as_secs_f64(),
        speedup_vs_1: 0.0, // stamped by the caller once the 1-thread cell exists
        scaling_asserted: threads <= host_cpus,
        steals,
        scan_misses,
        steal_batch_mean: if steals > 0 { batch_sum as f64 / steals as f64 } else { 0.0 },
        idle_wait_ns,
    }
}

/// Disabled-vs-enabled tracing measurement, interleaved round-robin for
/// the same drift-fairness reason as [`measure_modes`]. Single worker:
/// the overhead of interest is per-event probe cost, not scheduling.
fn measure_overhead(program: &rid_ir::Program, iters: usize) -> OverheadRecord {
    let mut disabled_s = f64::INFINITY;
    let mut enabled_s = f64::INFINITY;
    let mut events = 0usize;
    for _ in 0..iters.max(1) {
        disabled_s = disabled_s.min(measure_analyze_s(program, 1, 1));
        rid_obs::trace::enable(rid_obs::trace::DEFAULT_CAPACITY);
        enabled_s = enabled_s.min(measure_analyze_s(program, 1, 1));
        rid_obs::trace::disable();
        events = events.max(rid_obs::drain().events.len());
    }
    assert!(events > 0, "enabled run captured no events — probes not wired?");
    OverheadRecord {
        disabled_s,
        enabled_s,
        enabled_over_disabled: enabled_s / disabled_s.max(1e-9),
        events,
    }
}

/// Two-stage refutation measurement (see [`RefuteRecord`]): the
/// stage-one vs two-stage wall-clock pair on the largest evaluation
/// corpus, interleaved round-robin like every other paired measurement,
/// then the precision deltas on a seeded-spurious corpus.
fn measure_refute(program: &rid_ir::Program, seed: u64, iters: usize) -> RefuteRecord {
    let apis = rid_core::apis::linux_dpm_apis();
    let stage1_options = AnalysisOptions { threads: 1, refute: false, ..Default::default() };
    let two_stage_options = AnalysisOptions { threads: 1, ..Default::default() };

    let mut stage1_s = f64::INFINITY;
    let mut two_stage_s = f64::INFINITY;
    let mut reports_confirmed = 0usize;
    for _ in 0..iters.max(1) {
        let result = rid_core::analyze_program(program, &apis, &stage1_options);
        stage1_s = stage1_s.min(result.stats.analyze_time.as_secs_f64());
        let result = rid_core::analyze_program(program, &apis, &two_stage_options);
        two_stage_s = two_stage_s.min(result.stats.analyze_time.as_secs_f64());
        reports_confirmed = result.stats.reports_confirmed;
    }

    // The precision corpus: a tiny kernel with seeded-spurious idioms
    // (the evaluation corpus contains none by construction, so the
    // refutation rate there is trivially undefined).
    let mut spur_config = KernelConfig::tiny(seed);
    spur_config.seeded_spurious = 8;
    let corpus = generate_kernel(&spur_config);
    let spur_program = rid_frontend::parse_program(corpus.sources.iter().map(String::as_str))
        .expect("spurious corpus must parse");
    let stage1 = rid_core::analyze_program(&spur_program, &apis, &stage1_options);
    let stage2 = rid_core::analyze_program(&spur_program, &apis, &two_stage_options);

    let spurious: std::collections::BTreeSet<&str> =
        corpus.spurious_functions.iter().map(String::as_str).collect();
    let count_spurious = |result: &AnalysisResult| {
        result.reports.iter().filter(|r| spurious.contains(r.function.as_str())).count()
    };
    let stage1_spurious_reports = count_spurious(&stage1);
    let refuted_spurious = stage1_spurious_reports - count_spurious(&stage2);

    let reported = |result: &AnalysisResult| -> std::collections::BTreeSet<String> {
        result.reports.iter().map(|r| r.function.clone()).collect()
    };
    let (found1, found2) = (reported(&stage1), reported(&stage2));
    let true_positives_lost = corpus
        .detectable_bug_functions()
        .filter(|f| found1.contains(*f) && !found2.contains(*f))
        .count();

    RefuteRecord {
        stage1_s,
        two_stage_s,
        overhead_ratio: two_stage_s / stage1_s.max(1e-9),
        reports_confirmed,
        seeded_spurious: corpus.spurious_functions.len(),
        stage1_spurious_reports,
        refuted_spurious,
        refutation_share: refuted_spurious as f64 / (stage1_spurious_reports as f64).max(1.0),
        true_positives_lost,
    }
}

fn cache_counters(result: &AnalysisResult) -> CacheCounters {
    CacheCounters {
        hits: result.stats.cache_hits,
        misses: result.stats.cache_misses,
        invalidated: result.stats.cache_invalidated,
    }
}

fn measure_cache(program: &rid_ir::Program, threads: usize, iters: usize) -> CacheRecord {
    let apis = rid_core::apis::linux_dpm_apis();
    let options = AnalysisOptions { threads, ..Default::default() };
    let faults = FaultPlan::none();

    // Populate the warm cache once (untimed), then alternate timed
    // cold/warm iterations so slow environmental drift lands on both
    // sides of the ratio equally (same rationale as [`measure_modes`]).
    let mut warm_cache = SummaryCache::new();
    let _ = rid_core::analyze_program_cached(
        program,
        &apis,
        &options,
        &faults,
        Some(&mut warm_cache),
    );

    let mut cold_s = f64::INFINITY;
    let mut cold_result: Option<AnalysisResult> = None;
    let mut warm_s = f64::INFINITY;
    let mut warm_result: Option<AnalysisResult> = None;
    for _ in 0..iters.max(1) {
        let mut fresh = SummaryCache::new();
        let result = rid_core::analyze_program_cached(
            program,
            &apis,
            &options,
            &faults,
            Some(&mut fresh),
        );
        let s = result.stats.analyze_time.as_secs_f64();
        if s < cold_s {
            cold_s = s;
            cold_result = Some(result);
        }

        let result = rid_core::analyze_program_cached(
            program,
            &apis,
            &options,
            &faults,
            Some(&mut warm_cache),
        );
        let s = result.stats.analyze_time.as_secs_f64();
        if s < warm_s {
            warm_s = s;
            warm_result = Some(result);
        }
    }
    let cold_result = cold_result.expect("at least one cold iteration");
    let warm_result = warm_result.expect("at least one warm iteration");
    assert_eq!(
        cold_result.reports, warm_result.reports,
        "warm run must reproduce the cold run's reports"
    );

    CacheRecord {
        threads,
        cold_s,
        warm_s,
        warm_speedup: cold_s / warm_s.max(1e-9),
        cold: cache_counters(&cold_result),
        warm: cache_counters(&warm_result),
    }
}

/// Peak resident set of this process in bytes (`VmHWM` from
/// `/proc/self/status`; 0 where that file does not exist or parse).
fn peak_rss_bytes() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status.lines().find_map(|line| {
                let rest = line.strip_prefix("VmHWM:")?;
                let kib: u64 = rest.trim().trim_end_matches("kB").trim().parse().ok()?;
                Some(kib * 1024)
            })
        })
        .unwrap_or(0)
}

/// The largest-scale IR footprint (see [`MemoryRecord`]). `peak_rss_bytes`
/// is left 0 here and stamped by the caller at the end of the run, when
/// the high-water mark actually is the peak.
fn measure_memory(program: &rid_ir::Program) -> MemoryRecord {
    let footprint = rid_ir::measure_program(program);
    MemoryRecord {
        peak_rss_bytes: 0,
        ir_resident_bytes: footprint.resident_bytes,
        ir_interner_bytes: footprint.interner_bytes,
        ir_string_layout_bytes: footprint.string_layout_bytes,
        ir_bytes_per_function: footprint.bytes_per_function(),
        ir_reduction_ratio: footprint.reduction_ratio(),
        sym_occurrences: footprint.sym_occurrences,
        sym_text_bytes: footprint.sym_text_bytes,
    }
}

/// Summary-container warm-load measurement (see [`StoreRecord`]):
/// populates one cache, persists it as a RIDSS1 container, then times
/// index-only opens and full materializations.
fn measure_store(
    program: &rid_ir::Program,
    iters: usize,
    phases: &mut Vec<PhaseAlloc>,
) -> StoreRecord {
    let apis = rid_core::apis::linux_dpm_apis();
    let options = AnalysisOptions { threads: 1, ..Default::default() };
    let faults = FaultPlan::none();
    let mut cache = SummaryCache::new();
    let _ =
        rid_core::analyze_program_cached(program, &apis, &options, &faults, Some(&mut cache));
    let entries = cache.len();

    let path = std::env::temp_dir().join(format!("rid-perf-store-{}.bin", std::process::id()));
    track_phase(phases, "store_save", || {
        rid_core::persist::save_cache(&cache, &path).expect("container written");
    });
    let file_bytes = std::fs::metadata(&path).map(|m| m.len()).unwrap_or(0);

    // One tracked open for the allocation record, then untracked timing
    // iterations.
    track_phase(phases, "store_open", || {
        rid_core::persist::load_cache(&path).expect("container opens");
    });

    let mut store_open_s = f64::INFINITY;
    let mut store_full_s = f64::INFINITY;
    for _ in 0..iters.max(1) {
        let start = Instant::now();
        let loaded = rid_core::persist::load_cache(&path).expect("container opens");
        store_open_s = store_open_s.min(start.elapsed().as_secs_f64());

        let start = Instant::now();
        let loaded_full = rid_core::persist::load_cache(&path).expect("container opens");
        let store = loaded_full.backing_store().expect("container-backed cache");
        let names: Vec<String> = store.names().map(str::to_owned).collect();
        let mut read = 0usize;
        for name in &names {
            let entry = store.read_entry(name).expect("entry reads");
            assert!(entry.is_some(), "indexed entry {name} must materialize");
            read += 1;
        }
        store_full_s = store_full_s.min(start.elapsed().as_secs_f64());
        assert_eq!(read, entries, "full materialization must touch every entry");
        drop(loaded);
    }
    std::fs::remove_file(&path).ok();

    StoreRecord { entries, file_bytes, store_open_s, store_full_s }
}

fn auto_vs_best(auto: &ModeRecord, tree: &ModeRecord, per_path: &ModeRecord) -> f64 {
    tree.analyze_s.min(per_path.analyze_s) / auto.analyze_s.max(1e-9)
}

fn mode_row(
    label: String,
    functions: usize,
    parse_s: f64,
    tree: &ModeRecord,
    per_path: &ModeRecord,
    auto: &ModeRecord,
) -> Vec<String> {
    vec![
        label,
        functions.to_string(),
        format!("{parse_s:.2}s"),
        format!("{:.3}s", tree.classify_s),
        format!("{:.3}s", per_path.analyze_s),
        format!("{:.3}s", tree.analyze_s),
        format!("{:.3}s", auto.analyze_s),
        format!("{:.2}x", per_path.analyze_s / tree.analyze_s.max(1e-9)),
        format!("{}/{}", auto.exec_tree, auto.exec_per_path),
        format!("{}/{}", tree.sat_memo_hits, tree.sat_queries),
    ]
}

fn main() {
    let seed: u64 = args::flag("seed").unwrap_or(2016);
    let threads: usize = args::flag("threads").unwrap_or(1);
    let iters: usize = args::flag("iters").unwrap_or(3);
    let out: String = args::flag("out").unwrap_or_else(|| "BENCH_perf.json".to_owned());
    let scales: Vec<f64> = match args::flag::<f64>("scale") {
        Some(s) => vec![s],
        None => vec![0.25, 0.5, 1.0],
    };

    let host_cpus =
        std::thread::available_parallelism().map(std::num::NonZeroUsize::get).unwrap_or(1);

    let mut rows = Vec::new();
    let mut records = Vec::new();
    let mut largest: Option<rid_ir::Program> = None;
    let mut phases: Vec<PhaseAlloc> = Vec::new();
    for &scale in &scales {
        let config = KernelConfig::evaluation(seed).scaled(scale);
        eprintln!("scale {scale}: generating...");
        let corpus = generate_kernel(&config);
        let parse_start = Instant::now();
        let program = track_phase(&mut phases, format!("parse@{scale}"), || {
            rid_frontend::parse_program(corpus.sources.iter().map(String::as_str))
                .expect("corpus must parse")
        });
        let parse_s = parse_start.elapsed().as_secs_f64();

        let (tree, per_path, auto) = measure_modes(&program, threads, iters);
        assert_eq!(
            tree.reports, per_path.reports,
            "modes disagree on reports at scale {scale}"
        );
        assert_eq!(auto.reports, per_path.reports, "auto disagrees at scale {scale}");
        let analyze_speedup = per_path.analyze_s / tree.analyze_s.max(1e-9);

        rows.push(mode_row(
            format!("{scale}"),
            program.function_count(),
            parse_s,
            &tree,
            &per_path,
            &auto,
        ));
        records.push(ScaleRecord {
            scale,
            functions: program.function_count(),
            parse_s,
            auto_vs_best: auto_vs_best(&auto, &tree, &per_path),
            tree,
            per_path,
            auto,
            analyze_speedup,
        });
        largest = Some(program);
    }
    let largest = largest.expect("at least one scale");

    // Thread sweep: the work-stealing scheduler at the largest scale.
    eprintln!("thread sweep...");
    let mut thread_sweep = Vec::new();
    let mut analyze_1t = None;
    for t in [1usize, 2, 4, 8] {
        let mut cell = measure_thread_cell(&largest, t, iters, host_cpus);
        let base = *analyze_1t.get_or_insert(cell.analyze_s);
        cell.speedup_vs_1 = base / cell.analyze_s.max(1e-9);
        thread_sweep.push(cell);
    }

    // One tracked analyze pass for the allocation record (the timed
    // mode records above stay unperturbed by phase bookkeeping).
    track_phase(&mut phases, "analyze", || run_once(&largest, ExecMode::Auto, threads));

    // IR footprint at the largest scale (see [`MemoryRecord`]).
    let mut memory = measure_memory(&largest);

    // Summary-container warm-load pair (see [`StoreRecord`]).
    eprintln!("summary store open...");
    let summary_store = measure_store(&largest, iters, &mut phases);

    // Cold vs warm cache at the largest scale, single worker (see
    // [`CacheRecord::threads`]).
    eprintln!("cache cold/warm...");
    let cache = measure_cache(&largest, 1, iters);

    // Tracing probe cost at the largest scale (see [`OverheadRecord`]).
    eprintln!("tracing overhead...");
    let overhead = measure_overhead(&largest, iters);

    // Second-stage refutation cost and precision (see [`RefuteRecord`]).
    eprintln!("refutation overhead + precision...");
    let refute = measure_refute(&largest, seed, iters);

    // The branchy workload (see [`AdversarialRecord`]).
    let adv_modules = 6;
    let adv_depth = 14;
    let adv_config = KernelConfig {
        adversarial_modules: adv_modules,
        adversarial_depth: adv_depth,
        subsystems: 1,
        drivers_per_subsystem: 1,
        filler_modules: 1,
        filler_functions_per_module: 1,
        ..KernelConfig::evaluation(seed)
    };
    eprintln!("adversarial: generating...");
    let adv_corpus = generate_kernel(&adv_config);
    let parse_start = Instant::now();
    let adv_program = rid_frontend::parse_program(adv_corpus.sources.iter().map(String::as_str))
        .expect("adversarial corpus must parse");
    let adv_parse_s = parse_start.elapsed().as_secs_f64();
    let (adv_tree, adv_per_path, adv_auto) = measure_modes(&adv_program, threads, iters);
    assert_eq!(adv_tree.reports, adv_per_path.reports, "modes disagree on adversarial reports");
    assert_eq!(adv_auto.reports, adv_per_path.reports, "auto disagrees on adversarial reports");
    let adv_speedup = adv_per_path.analyze_s / adv_tree.analyze_s.max(1e-9);
    rows.push(mode_row(
        format!("adv 2^{adv_depth}"),
        adv_program.function_count(),
        adv_parse_s,
        &adv_tree,
        &adv_per_path,
        &adv_auto,
    ));
    let adversarial = AdversarialRecord {
        modules: adv_modules,
        depth: adv_depth,
        functions: adv_program.function_count(),
        parse_s: adv_parse_s,
        auto_vs_best: auto_vs_best(&adv_auto, &adv_tree, &adv_per_path),
        tree: adv_tree,
        per_path: adv_per_path,
        auto: adv_auto,
        analyze_speedup: adv_speedup,
    };

    println!(
        "§6.5: performance scaling ({threads} thread(s), {host_cpus} host cpu(s), \
         min of {iters} runs)"
    );
    println!();
    println!(
        "{}",
        format_table(
            &[
                "scale",
                "functions",
                "parse",
                "classify",
                "analyze/path",
                "analyze/tree",
                "analyze/auto",
                "speedup",
                "auto t/p",
                "memo hits",
            ],
            &rows
        )
    );
    println!();
    println!("scheduler thread sweep (largest scale, auto mode; ceiling = host cpus):");
    for record in &thread_sweep {
        println!(
            "  {} thread(s): {:.3}s ({:.2}x vs 1 thread{}; {} steal(s), mean batch {:.1}, \
             {} scan miss(es), {:.1}ms idle)",
            record.threads,
            record.analyze_s,
            record.speedup_vs_1,
            if record.scaling_asserted { "" } else { ", not asserted: host too small" },
            record.steals,
            record.steal_batch_mean,
            record.scan_misses,
            record.idle_wait_ns as f64 / 1e6,
        );
    }
    println!(
        "cache: cold {:.3}s -> warm {:.3}s ({:.1}x; warm {} hit(s), {} miss(es))",
        cache.cold_s, cache.warm_s, cache.warm_speedup, cache.warm.hits, cache.warm.misses
    );
    println!(
        "tracing: disabled {:.3}s, enabled {:.3}s ({:.2}x, {} event(s))",
        overhead.disabled_s,
        overhead.enabled_s,
        overhead.enabled_over_disabled,
        overhead.events
    );
    println!(
        "refutation: stage one {:.3}s -> two-stage {:.3}s ({:.2}x, {} confirmed); \
         spurious corpus: {}/{} refuted, {} true positive(s) lost",
        refute.stage1_s,
        refute.two_stage_s,
        refute.overhead_ratio,
        refute.reports_confirmed,
        refute.refuted_spurious,
        refute.stage1_spurious_reports,
        refute.true_positives_lost,
    );
    memory.peak_rss_bytes = peak_rss_bytes();
    println!(
        "memory: IR {:.1} KiB resident ({:.0} B/function), string layout {:.1} KiB \
         ({:.2}x), peak RSS {:.1} MiB",
        memory.ir_resident_bytes as f64 / 1024.0,
        memory.ir_bytes_per_function,
        memory.ir_string_layout_bytes as f64 / 1024.0,
        memory.ir_reduction_ratio,
        memory.peak_rss_bytes as f64 / (1024.0 * 1024.0),
    );
    println!(
        "summary store: open {:.4}s, full {:.4}s ({} entries, {:.1} KiB)",
        summary_store.store_open_s,
        summary_store.store_full_s,
        summary_store.entries,
        summary_store.file_bytes as f64 / 1024.0,
    );
    if cfg!(feature = "alloc-track") {
        for phase in &phases {
            println!(
                "alloc[{}]: {} allocation(s), {:.1} KiB",
                phase.phase,
                phase.allocs,
                phase.bytes as f64 / 1024.0
            );
        }
    }
    println!();
    println!("paper reference: classify 270k functions in 64 min; analyze in 67 min;");
    println!("the shape to check: the dependency-driven scheduler scales with threads,");
    println!("warm cache re-runs skip straight to checking, and every configuration");
    println!("produces byte-identical summaries (the differential suite enforces that).");

    // Keep an existing serve record (written by `serve_bench`) across
    // perf re-runs instead of resetting it to null.
    let serve = std::fs::read_to_string(&out)
        .ok()
        .and_then(|text| serde_json::from_str::<serde_json::Value>(&text).ok())
        .map(|v| v["serve"].clone())
        .unwrap_or(serde_json::Value::Null);

    let baseline = PerfBaseline {
        schema: "rid-bench-perf/v10".to_owned(),
        seed,
        threads,
        iters,
        host_cpus,
        scales: records,
        thread_sweep,
        cache,
        overhead,
        refute,
        adversarial,
        memory,
        summary_store,
        alloc: AllocRecord { enabled: cfg!(feature = "alloc-track"), phases },
        serve,
    };
    let json = serde_json::to_string(&baseline).expect("baseline serializes");
    std::fs::write(&out, json).expect("baseline written");
    eprintln!("wrote {out}");
}
