//! Whole-program analysis driver (§5.2–5.3 of the paper).
//!
//! The driver classifies functions (selective analysis), walks the call
//! graph bottom-up, summarizes each analyzed function, runs IPP checking
//! on its path summaries, and accumulates reports.
//!
//! Parallelism (§5.3) is **dependency-driven**: the SCC condensation of
//! the call graph is built once, every component carries a count of its
//! unfinished callee components, and a pool of workers (spawned once per
//! analysis, not once per level) pops ready components from one
//! mutex-guarded stack. A component becomes ready the instant its last
//! callee finishes — no level barrier, so one slow function stalls only
//! its own transitive callers, never the whole wave. Completed summaries
//! are published into per-function `OnceLock` slots before the finishing
//! worker takes the pool lock, so every slot a caller reads is set before
//! the caller is popped, and the read path takes no lock at all.
//! Recursion is broken by processing each SCC as one sequential work unit
//! in function-index order, with calls to not-yet-summarized members
//! falling back to the default summary — deterministic at every thread
//! count.
//!
//! The driver is *fault tolerant*: each function is summarized inside a
//! `catch_unwind` envelope, so a panic poisons only that function, never
//! a worker or the run. A panicked function gets one immediate retry with
//! reduced limits; if that fails too it degrades to the default summary —
//! exactly the §5.2 fallback for cap hits — and the incident is recorded
//! in [`AnalysisResult::degraded`]. Degraded functions still publish a
//! summary and unblock their callers' counters, so the schedule always
//! drains. Wall-clock and solver-fuel budgets ([`Budget`]) degrade the
//! same way, cooperatively (no thread is ever killed).
//!
//! A persistent [`SummaryCache`] (see [`crate::cache`]) can be threaded
//! through [`analyze_program_cached`]: functions whose content key is
//! unchanged skip summarization and checking entirely, making warm
//! re-runs of an unchanged corpus jump straight to the answer.

use std::collections::{BTreeMap, HashMap};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::OnceLock;
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex};
use rid_ir::{Function, Program, Sym};
use rid_solver::SatOptions;
use serde::{Deserialize, Serialize};

use crate::budget::{Budget, BudgetMeter, Degradation, DegradeReason, FunctionCost};
use crate::cache::{cache_salt, function_keys, CacheProbe, SummaryCache};
use crate::callgraph::CallGraph;
use crate::classify::{classify, CategoryCounts, Classification};
use crate::exec::{summarize_paths_view, ExecMode, SummarizeOutcome, SummaryView};
use crate::fault::FaultPlan;
use crate::ipp::{build_summary, check_ipps, IppOutcome, IppReport};
use crate::paths::PathLimits;
use crate::summary::{Summary, SummaryDb};

/// Options controlling a whole-program analysis.
#[derive(Clone, Copy, Debug)]
pub struct AnalysisOptions {
    /// Path/subcase/entry limits (§5.2, §6.1).
    pub limits: PathLimits,
    /// Constraint-solver options.
    pub sat: SatOptions,
    /// Enable the §5.2 selective analysis (classify first, skip category-3
    /// functions). When disabled every function is analyzed.
    pub selective: bool,
    /// Worker threads (1 = sequential).
    pub threads: usize,
    /// Enable the callback-contract extension (the paper's §7 future
    /// work): registered callbacks are re-checked with return-value
    /// distinctions removed, catching the Figure 10 class. Uses
    /// [`crate::callbacks::CallbackModel::linux_default`].
    pub check_callbacks: bool,
    /// Wall-clock / solver-fuel budgets; unlimited by default.
    pub budget: Budget,
    /// Execution strategy for summarization: adaptive per-function choice
    /// (default), shared-prefix tree execution, or the standalone per-path
    /// reference mode. All produce identical summaries.
    pub exec_mode: ExecMode,
    /// Run the second-stage refutation pass ([`crate::refute`]) over the
    /// surviving reports (on by default; `--no-refute` disables it). Like
    /// `check_callbacks`, this runs once over the merged reports, and it
    /// is **not** cache-key material — the cache stores stage-one reports
    /// and warm runs re-refute.
    pub refute: bool,
}

impl Default for AnalysisOptions {
    fn default() -> Self {
        AnalysisOptions {
            limits: PathLimits::default(),
            sat: SatOptions::default(),
            selective: true,
            threads: 1,
            check_callbacks: false,
            budget: Budget::unlimited(),
            exec_mode: ExecMode::default(),
            refute: true,
        }
    }
}

/// Statistics from one analysis run (§6.5-style reporting).
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct AnalysisStats {
    /// Total functions in the program.
    pub functions_total: usize,
    /// Functions symbolically analyzed (cache hits included).
    pub functions_analyzed: usize,
    /// Structural paths enumerated across all functions.
    pub paths_enumerated: usize,
    /// Symbolic states explored (feasible forks).
    pub states_explored: usize,
    /// Functions whose analysis hit a limit (partial summaries).
    pub functions_partial: usize,
    /// Table-1 census (zeroed when selective analysis is off).
    pub counts: CategoryCounts,
    /// Satisfiability queries issued by the executors.
    pub sat_queries: usize,
    /// Of those, answered from the conjunction-keyed memo cache.
    pub sat_memo_hits: usize,
    /// Basic blocks executed symbolically.
    pub blocks_executed: usize,
    /// Blocks skipped thanks to shared-prefix tree execution (an upper
    /// bound; 0 in per-path mode).
    pub blocks_saved: usize,
    /// Functions executed in tree mode (after [`ExecMode::Auto`]
    /// resolution; cache hits execute nothing and count in neither).
    #[serde(default)]
    pub exec_tree: usize,
    /// Functions executed in per-path mode (after [`ExecMode::Auto`]
    /// resolution).
    #[serde(default)]
    pub exec_per_path: usize,
    /// Functions answered from the persistent summary cache.
    #[serde(default)]
    pub cache_hits: usize,
    /// Functions absent from the cache (computed fresh).
    #[serde(default)]
    pub cache_misses: usize,
    /// Functions present in the cache under a stale key (their content
    /// cone changed; recomputed).
    #[serde(default)]
    pub cache_invalidated: usize,
    /// Satisfiability queries answered "satisfiable".
    #[serde(default)]
    pub sat_sat: usize,
    /// Satisfiability queries answered "unsatisfiable".
    #[serde(default)]
    pub sat_unsat: usize,
    /// Incremental-solver snapshots taken at fork points (tree mode).
    #[serde(default)]
    pub solver_snapshots: usize,
    /// Largest literal depth among snapshotted solvers.
    #[serde(default)]
    pub snapshot_depth_max: usize,
    /// Always 0: the parallel pool shares one ready stack, so no worker
    /// steals. Kept because the benchmark's layer replay still reports
    /// it as `driver.steals`.
    #[serde(default)]
    pub steals: usize,
    /// High-water mark of the parallel pool's ready stack (0 in
    /// sequential runs).
    #[serde(default)]
    pub queue_depth_max: usize,
    /// Per-worker scheduler profiles (components run, idle waits); empty
    /// in sequential runs. Merges by concatenation, so a multi-run absorb
    /// keeps every worker's record.
    #[serde(default)]
    pub worker_profiles: Vec<WorkerProfile>,
    /// Reports the second-stage refutation pass judged still-satisfiable
    /// under the exact check (kept with positive evidence).
    #[serde(default)]
    pub reports_confirmed: usize,
    /// Reports the refutation pass proved spurious and dropped.
    #[serde(default)]
    pub reports_refuted: usize,
    /// `reports_refuted` per function. The dropped reports leave no other
    /// trace, so incremental re-analysis carries the unaffected
    /// functions' counts forward from here, like their reports.
    #[serde(default)]
    pub refuted_functions: BTreeMap<String, usize>,
    /// Reports the refutation pass could not decide (fuel exhausted or no
    /// provenance); kept — exhaustion never refutes.
    #[serde(default)]
    pub reports_inconclusive: usize,
    /// Wall-clock time spent classifying.
    pub classify_time: Duration,
    /// Wall-clock time spent summarizing + IPP checking.
    pub analyze_time: Duration,
}

impl AnalysisStats {
    /// Folds another stats record into this one: additive fields sum,
    /// high-water marks take the max. This is the *single* merge path —
    /// the parallel driver, incremental re-analysis, and per-module
    /// analysis all route through it, so a counter added to the struct
    /// cannot be silently dropped by one of the merge sites again.
    pub fn absorb(&mut self, other: &AnalysisStats) {
        self.functions_total += other.functions_total;
        self.functions_analyzed += other.functions_analyzed;
        self.paths_enumerated += other.paths_enumerated;
        self.states_explored += other.states_explored;
        self.functions_partial += other.functions_partial;
        self.counts.refcount_changing += other.counts.refcount_changing;
        self.counts.affecting_analyzed += other.counts.affecting_analyzed;
        self.counts.affecting_skipped += other.counts.affecting_skipped;
        self.counts.other += other.counts.other;
        self.sat_queries += other.sat_queries;
        self.sat_memo_hits += other.sat_memo_hits;
        self.blocks_executed += other.blocks_executed;
        self.blocks_saved += other.blocks_saved;
        self.exec_tree += other.exec_tree;
        self.exec_per_path += other.exec_per_path;
        self.cache_hits += other.cache_hits;
        self.cache_misses += other.cache_misses;
        self.cache_invalidated += other.cache_invalidated;
        self.sat_sat += other.sat_sat;
        self.sat_unsat += other.sat_unsat;
        self.solver_snapshots += other.solver_snapshots;
        self.snapshot_depth_max = self.snapshot_depth_max.max(other.snapshot_depth_max);
        self.steals += other.steals;
        self.queue_depth_max = self.queue_depth_max.max(other.queue_depth_max);
        self.worker_profiles.extend(other.worker_profiles.iter().cloned());
        self.reports_confirmed += other.reports_confirmed;
        self.reports_refuted += other.reports_refuted;
        for (name, n) in &other.refuted_functions {
            *self.refuted_functions.entry(name.clone()).or_default() += n;
        }
        self.reports_inconclusive += other.reports_inconclusive;
        self.classify_time += other.classify_time;
        self.analyze_time += other.analyze_time;
    }

    /// Tallies one function's [`SummarizeOutcome`] — the single place
    /// executor counters flow into run statistics (the driver, the
    /// incremental re-analyzer, and any future caller share it).
    pub(crate) fn record_outcome(&mut self, outcome: &SummarizeOutcome) {
        self.functions_analyzed += 1;
        self.paths_enumerated += outcome.paths_enumerated;
        self.states_explored += outcome.states_explored;
        self.functions_partial += usize::from(outcome.partial);
        self.sat_queries += outcome.sat_queries;
        self.sat_memo_hits += outcome.sat_memo_hits;
        self.sat_sat += outcome.sat_sat;
        self.sat_unsat += outcome.sat_unsat;
        self.solver_snapshots += outcome.solver_snapshots;
        self.snapshot_depth_max = self.snapshot_depth_max.max(outcome.snapshot_depth_max);
        self.blocks_executed += outcome.blocks_executed;
        self.blocks_saved += outcome.blocks_saved;
        match outcome.mode_used {
            ExecMode::Tree => self.exec_tree += 1,
            ExecMode::PerPath => self.exec_per_path += 1,
            ExecMode::Auto => debug_assert!(false, "Auto resolves before execution"),
        }
    }
}

/// A serializable snapshot of an [`rid_obs::Histogram`] (log₂ buckets as
/// parallel `lower_bound` / `count` arrays). Lives here rather than in
/// rid-obs so the obs crate stays dependency-free; [`to_histogram`]
/// re-enters the registry via [`rid_obs::Histogram::from_parts`].
///
/// [`to_histogram`]: HistogramSnapshot::to_histogram
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct HistogramSnapshot {
    /// Number of samples recorded.
    pub count: u64,
    /// Sum of all samples.
    pub sum: u64,
    /// Smallest sample (0 when empty).
    pub min: u64,
    /// Largest sample (0 when empty).
    pub max: u64,
    /// Lower bounds of the non-empty log₂ buckets.
    #[serde(default)]
    pub bucket_lo: Vec<u64>,
    /// Sample counts of those buckets (same order as `bucket_lo`).
    #[serde(default)]
    pub bucket_n: Vec<u64>,
}

impl HistogramSnapshot {
    /// Snapshot a live histogram.
    #[must_use]
    pub fn of(h: &rid_obs::Histogram) -> HistogramSnapshot {
        let (bucket_lo, bucket_n) = h.sparse_buckets().into_iter().unzip();
        HistogramSnapshot { count: h.count, sum: h.sum, min: h.min, max: h.max, bucket_lo, bucket_n }
    }

    /// Rebuild the histogram (exact up to log₂-bucket resolution).
    #[must_use]
    pub fn to_histogram(&self) -> rid_obs::Histogram {
        let buckets: Vec<(u64, u64)> =
            self.bucket_lo.iter().copied().zip(self.bucket_n.iter().copied()).collect();
        rid_obs::Histogram::from_parts(self.count, self.sum, self.min, self.max, &buckets)
    }
}

/// One worker's scheduler profile: what it executed and how long it
/// idled. Recorded by the parallel pool (empty for the sequential path)
/// and surfaced as `sched.w<i>.*` registry entries plus the
/// `rid-bench profile` per-worker table.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct WorkerProfile {
    /// Worker index (0-based).
    pub worker: usize,
    /// Components this worker executed.
    pub comps: u64,
    /// Nanoseconds spent parked per idle wait.
    pub idle_wait_ns: HistogramSnapshot,
}

/// The result of analyzing a program.
#[derive(Clone, Debug)]
pub struct AnalysisResult {
    /// All IPP bug reports, sorted by function name then refcount.
    pub reports: Vec<IppReport>,
    /// Computed summaries (plus the predefined ones).
    pub summaries: SummaryDb,
    /// The classification used (empty when selective analysis is off).
    pub classification: Classification,
    /// Run statistics.
    pub stats: AnalysisStats,
    /// Per-function degradation records: why a function fell back toward
    /// the default summary and what its analysis cost. Sorted by name.
    pub degraded: BTreeMap<String, Degradation>,
}

/// Halves every structural limit (floor 1) for the post-panic retry, so
/// the retry is cheaper and more likely to dodge whatever blew up.
pub(crate) fn reduced_limits(limits: &PathLimits) -> PathLimits {
    PathLimits {
        max_paths: (limits.max_paths / 2).max(1),
        max_block_visits: limits.max_block_visits,
        max_subcases: (limits.max_subcases / 2).max(1),
        max_entries: (limits.max_entries / 2).max(1),
    }
}

/// One guarded summarization attempt: fault injection, summarization, and
/// IPP checking inside a `catch_unwind` envelope. `Err(())` means the
/// attempt panicked (the payload is dropped; the panic hook has already
/// printed it). The shared state we touch is a read-only summary view
/// plus value-typed options, so unwinding cannot leave it inconsistent —
/// hence the `AssertUnwindSafe`.
#[allow(clippy::too_many_arguments)]
pub(crate) fn guarded_attempt(
    func: &Function,
    db: SummaryView<'_>,
    limits: &PathLimits,
    sat: SatOptions,
    meter: &BudgetMeter,
    fuel: Option<u64>,
    faults: &FaultPlan,
    attempt: u32,
    mode: ExecMode,
) -> Result<(SummarizeOutcome, IppOutcome), ()> {
    catch_unwind(AssertUnwindSafe(|| {
        faults.inject(func.name(), attempt);
        let outcome = {
            let mut span = rid_obs::span(rid_obs::SpanKind::Exec, func.name());
            let outcome = summarize_paths_view(func, db, limits, sat, meter, fuel, mode);
            span.set_value(outcome.path_entries.len() as u64);
            outcome
        };
        let ipp = check_ipps(func.name(), &outcome.path_entries, sat);
        (outcome, ipp)
    }))
    .map_err(|_| ())
}

/// Effective solver fuel for `name`: the configured budget, or zero when
/// the fault plan stalls this function's solver.
pub(crate) fn effective_fuel(budget: &Budget, faults: &FaultPlan, name: &str) -> Option<u64> {
    if faults.should_stall(name) {
        Some(0)
    } else {
        budget.solver_fuel
    }
}

/// Analyzes a whole program.
///
/// `predefined` supplies refcount API specifications (§5.1); they shadow
/// same-named definitions. See [`AnalysisOptions`] for knobs.
#[must_use]
pub fn analyze_program(
    program: &Program,
    predefined: &SummaryDb,
    options: &AnalysisOptions,
) -> AnalysisResult {
    analyze_program_cached(program, predefined, options, &FaultPlan::none(), None)
}

/// Like [`analyze_program`], but with a [`FaultPlan`] injecting
/// deterministic panics, slowdowns, and solver stalls — the robustness
/// test harness. Production callers use [`analyze_program`], which passes
/// [`FaultPlan::none`].
#[must_use]
pub fn analyze_program_with_faults(
    program: &Program,
    predefined: &SummaryDb,
    options: &AnalysisOptions,
    faults: &FaultPlan,
) -> AnalysisResult {
    analyze_program_cached(program, predefined, options, faults, None)
}

/// Everything one worker accumulates locally; merged (in worker-index
/// order) after the pool drains, so the hot path never touches a shared
/// lock for bookkeeping.
#[derive(Default)]
struct WorkerOut {
    stats: AnalysisStats,
    reports: Vec<IppReport>,
    degraded: Vec<(String, Degradation)>,
    /// Fresh, non-degraded results to write back to the cache:
    /// `(function index, key, summary, its reports)`.
    fresh: Vec<(usize, u128, Summary, Vec<IppReport>)>,
}

/// The parallel pool's scheduling state, all behind one mutex. The
/// worker that finishes a component updates it and pops its next
/// component in the same critical section; a worker that finds the
/// stack empty parks on the pool's condvar until a push or the end of
/// the run wakes it. A finished component's slot is set before its
/// worker takes the lock, so the lock hand-off orders every callee
/// publication before the caller is popped.
struct Pool {
    /// Ready components, popped LIFO.
    ready: Vec<usize>,
    /// Per component: its active callee components not yet finished.
    remaining: Vec<usize>,
    /// Active components not yet finished; 0 ends the run.
    unfinished: usize,
    /// High-water mark of `ready`.
    depth_max: usize,
}

impl Pool {
    /// Marks a component finished, given its callers: each active caller
    /// whose last unfinished callee it was becomes ready. Returns how
    /// many were pushed.
    fn finish(&mut self, callers: &[usize], active: &[bool]) -> usize {
        self.unfinished -= 1;
        let before = self.ready.len();
        for &cw in callers {
            if active[cw] {
                self.remaining[cw] -= 1;
                if self.remaining[cw] == 0 {
                    self.ready.push(cw);
                }
            }
        }
        self.depth_max = self.depth_max.max(self.ready.len());
        self.ready.len() - before
    }
}

/// Analyzes a whole program with an optional persistent summary cache
/// and a fault plan.
///
/// This is the full-control entry point [`analyze_program`] and
/// [`analyze_program_with_faults`] delegate to. When `cache` is given,
/// functions whose content key matches a cached entry reuse the stored
/// summary and reports (counted in [`AnalysisStats::cache_hits`]), and
/// every fresh non-degraded result is written back. Degraded results are
/// never cached — that is what makes the cache sound under budgets and
/// fault plans (see [`crate::cache`]).
#[must_use]
pub fn analyze_program_cached(
    program: &Program,
    predefined: &SummaryDb,
    options: &AnalysisOptions,
    faults: &FaultPlan,
    mut cache: Option<&mut SummaryCache>,
) -> AnalysisResult {
    // One sorted function list per analysis: the call graph's node `i`
    // is `functions[i]`.
    let functions = program.functions();
    let graph = CallGraph::from_functions(&functions);

    let classify_start = Instant::now();
    let classification = if options.selective {
        classify(program, &graph, predefined)
    } else {
        Classification::default()
    };
    let classify_time = classify_start.elapsed();

    let should_analyze = |name: Sym| -> bool {
        if predefined.get_sym(name).is_some() {
            return false; // predefined summaries shadow bodies (§5.1)
        }
        if !options.selective {
            return true;
        }
        classification.category_sym(name).is_analyzed()
    };

    let analyze_start = Instant::now();
    let global_deadline = options.budget.global_deadline.map(|d| analyze_start + d);

    // Dependency structure: one node per SCC, counters over *active*
    // callee components only (inactive components publish nothing, so
    // nobody needs to wait for them).
    let cond = graph.condensation();
    let n_comps = cond.members.len();
    let active: Vec<bool> = cond
        .members
        .iter()
        .map(|members| members.iter().any(|&i| should_analyze(graph.sym(i))))
        .collect();
    let keys: Vec<Option<u128>> = if cache.is_some() {
        let salt = cache_salt(options, predefined);
        function_keys(&functions, &cond, &active, salt)
    } else {
        vec![None; functions.len()]
    };

    let active_total = active.iter().filter(|&&a| a).count();
    let workers = options.threads.max(1).min(active_total.max(1));

    // Lock-free summary publication: dependency counting guarantees every
    // slot a caller reads is set before the caller is scheduled.
    let slots: Vec<OnceLock<Summary>> = (0..functions.len()).map(|_| OnceLock::new()).collect();
    let cache_ro: Option<&SummaryCache> = cache.as_deref();

    // One SCC is one work unit: members in index order, so calls to
    // not-yet-summarized members deterministically fall back to the
    // default summary regardless of thread count.
    let process_comp = |c: usize, out: &mut WorkerOut| {
        for &i in &cond.members[c] {
                let func = functions[i];
                if !should_analyze(graph.sym(i)) {
                    continue;
                }
                let name = func.name();
                if let (Some(cache), Some(key)) = (cache_ro, keys[i]) {
                    let probe = {
                        let mut span =
                            rid_obs::span(rid_obs::SpanKind::CacheLookup, name);
                        let probe = cache.probe(name, key);
                        span.set_value(u64::from(matches!(probe.0, CacheProbe::Hit)));
                        probe
                    };
                    match probe {
                        (CacheProbe::Hit, Some(entry)) => {
                            let published = slots[i].set(entry.summary);
                            debug_assert!(published.is_ok());
                            out.stats.functions_analyzed += 1;
                            out.stats.cache_hits += 1;
                            out.reports.extend(entry.reports);
                            continue;
                        }
                        (CacheProbe::Hit, None) => unreachable!("hits carry the entry"),
                        (CacheProbe::Stale, _) => out.stats.cache_invalidated += 1,
                        (CacheProbe::Absent, _) => out.stats.cache_misses += 1,
                    }
                }
                let view = SummaryView::Slots { predefined, graph: &graph, slots: &slots };
                let callees = callee_names(&graph, i);
                let fuel = effective_fuel(&options.budget, faults, name);
                let meter = BudgetMeter::start(&options.budget, global_deadline);
                let first = guarded_attempt(
                    func,
                    view,
                    &options.limits,
                    options.sat,
                    &meter,
                    fuel,
                    faults,
                    0,
                    options.exec_mode,
                );
                let first_ms = meter.elapsed().as_millis() as u64;
                match first {
                    Ok((outcome, ipp)) => record_success(
                        out, i, name, &outcome, ipp, None, first_ms, keys[i], &slots,
                        &callees,
                    ),
                    Err(()) => {
                        // Immediate retry with reduced limits; a second
                        // panic degrades to the default summary — the
                        // same §5.2 fallback as a cap hit — so the
                        // component always completes and callers above
                        // always find a summary.
                        let meter = BudgetMeter::start(&options.budget, global_deadline);
                        let retry = guarded_attempt(
                            func,
                            view,
                            &reduced_limits(&options.limits),
                            options.sat,
                            &meter,
                            fuel,
                            faults,
                            1,
                            options.exec_mode,
                        );
                        let wall_ms = first_ms + meter.elapsed().as_millis() as u64;
                        match retry {
                            Ok((outcome, ipp)) => record_success(
                                out,
                                i,
                                name,
                                &outcome,
                                ipp,
                                Some(DegradeReason::Retried),
                                wall_ms,
                                keys[i],
                                &slots,
                                &callees,
                            ),
                            Err(()) => {
                                let published = slots[i].set(Summary::default_for(name));
                                debug_assert!(published.is_ok());
                                out.stats.functions_analyzed += 1;
                                out.stats.functions_partial += 1;
                                let cost = FunctionCost { paths: 0, states: 0, wall_ms };
                                crate::budget::trace_degradation(name, DegradeReason::Panic);
                                out.degraded.push((
                                    name.to_owned(),
                                    Degradation { reason: DegradeReason::Panic, cost },
                                ));
                            }
                        }
                    }
                }
        }
    };

    let mut queue_depth_max = 0;
    let outputs: Vec<WorkerOut> = if active_total == 0 {
        Vec::new()
    } else if workers == 1 {
        // Sequential path: component indices ascend in reverse
        // topological order, so a plain ascending scan satisfies every
        // dependency without the pool.
        let mut out = WorkerOut::default();
        for (c, &is_active) in active.iter().enumerate() {
            if is_active {
                process_comp(c, &mut out);
            }
        }
        vec![out]
    } else {
        // Counts over *active* callee components only. The leaves pop
        // from the highest index down, as in the work-stealing pool this
        // replaced: popping them upward cost ~10% more CPU at 2 workers on
        // the benchmark's branchy-refute inputs.
        let remaining: Vec<usize> = (0..n_comps)
            .map(|c| cond.callee_comps[c].iter().filter(|&&cw| active[cw]).count())
            .collect();
        let ready: Vec<usize> =
            (0..n_comps).filter(|&c| active[c] && remaining[c] == 0).collect();
        let pool = Mutex::new(Pool {
            depth_max: ready.len(),
            ready,
            remaining,
            unfinished: active_total,
        });
        let wake = Condvar::new();
        let run_worker = |w: usize| -> WorkerOut {
            let mut out = WorkerOut::default();
            let mut comps = 0;
            let mut idle_wait_ns = rid_obs::Histogram::default();
            let mut state = pool.lock();
            loop {
                let Some(c) = state.ready.pop() else {
                    if state.unfinished == 0 {
                        break;
                    }
                    let parked = Instant::now();
                    state = wake.wait(state);
                    idle_wait_ns.record(parked.elapsed().as_nanos() as u64);
                    continue;
                };
                drop(state);
                process_comp(c, &mut out);
                comps += 1;
                state = pool.lock();
                // This worker pops the last caller it pushed next, so it
                // wakes one sleeper for each of the others.
                let pushed = state.finish(&cond.caller_comps[c], &active);
                if state.unfinished == 0 {
                    wake.notify_all();
                } else {
                    for _ in 1..pushed {
                        wake.notify_one();
                    }
                }
            }
            drop(state);
            out.stats.worker_profiles.push(WorkerProfile {
                worker: w,
                comps,
                idle_wait_ns: HistogramSnapshot::of(&idle_wait_ns),
            });
            // Scoped threads can unblock the spawner before this thread's
            // TLS destructors run, so flush the trace ring explicitly.
            rid_obs::trace::flush_thread();
            out
        };
        let run_worker = &run_worker;
        let outputs = std::thread::scope(|scope| {
            let handles: Vec<_> =
                (0..workers).map(|w| scope.spawn(move || run_worker(w))).collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("worker does not panic"))
                .collect()
        });
        queue_depth_max = pool.into_inner().depth_max;
        outputs
    };

    // Merge per-worker results (order-insensitive: reports are re-sorted,
    // degradations keyed by name, stats additive) and write fresh results
    // back to the cache.
    let mut stats = AnalysisStats::default();
    let mut reports = Vec::new();
    let mut degraded = BTreeMap::new();
    for out in outputs {
        stats.absorb(&out.stats);
        reports.extend(out.reports);
        degraded.extend(out.degraded);
        if let Some(cache) = cache.as_deref_mut() {
            for (i, key, summary, entry_reports) in out.fresh {
                cache.insert(functions[i].name(), key, summary, entry_reports);
            }
        }
    }

    let mut db = predefined.clone();
    for slot in slots {
        if let Some(summary) = slot.into_inner() {
            db.insert(summary);
        }
    }

    // Callback-contract extension (§7 future work): re-check registered
    // callbacks ignoring return-value distinctions.
    if options.check_callbacks {
        callback_pass(program, &db, options, &mut reports, &mut degraded);
    }

    // Second-stage refutation: re-validate each surviving report's joint
    // constraints exactly. Runs after cache write-back (above), so cached
    // reports are stage-one reports and warm runs re-refute identically.
    if options.refute {
        crate::refute::refute_pass(&db, options.budget.solver_fuel, &mut reports, &mut stats);
    }

    stats.functions_total = functions.len();
    stats.counts = classification.counts();
    stats.queue_depth_max = queue_depth_max;
    stats.classify_time = classify_time;
    stats.analyze_time = analyze_start.elapsed();

    reports.sort_by(|a, b| {
        (&a.function, &a.refcount, a.path_a, a.path_b).cmp(&(
            &b.function,
            &b.refcount,
            b.path_a,
            b.path_b,
        ))
    });

    AnalysisResult { reports, summaries: db, classification, stats, degraded }
}

/// The callback-contract pass: re-checks registered callbacks with
/// return-value distinctions removed, appending any report not already
/// present for the same `(function, refcount)`. Runs once, after the
/// summary database is complete.
fn callback_pass(
    program: &Program,
    db: &SummaryDb,
    options: &AnalysisOptions,
    reports: &mut Vec<IppReport>,
    degraded: &mut BTreeMap<String, Degradation>,
) {
    let model = crate::callbacks::CallbackModel::linux_default();
    let callbacks = crate::callbacks::collect_callbacks(program, &model);
    let existing: std::collections::HashSet<(String, String)> =
        reports.iter().map(|r| (r.function.clone(), r.refcount.to_string())).collect();
    for name in callbacks {
        let Some(func) = program.function(&name) else { continue };
        // The callback re-check gets the same panic isolation as the
        // main pass: a blow-up skips this callback (recorded as a
        // degradation unless the function already has one) instead of
        // aborting the run.
        let found = catch_unwind(AssertUnwindSafe(|| {
            crate::callbacks::check_callback_function(func, db, &options.limits, options.sat)
        }));
        let Ok(found) = found else {
            if !degraded.contains_key(&name) {
                crate::budget::trace_degradation(&name, DegradeReason::Panic);
                degraded.insert(
                    name.clone(),
                    Degradation { reason: DegradeReason::Panic, cost: FunctionCost::default() },
                );
            }
            continue;
        };
        for report in found {
            if !existing.contains(&(report.function.clone(), report.refcount.to_string())) {
                reports.push(report);
            }
        }
    }
}

/// Records a successful attempt into the worker's local output: summary
/// publication, statistics, reports, the cache write-back staging, and —
/// when a budget/cap was hit or the attempt was a retry — a degradation
/// entry.
#[allow(clippy::too_many_arguments)]
fn record_success(
    out: &mut WorkerOut,
    idx: usize,
    name: &str,
    outcome: &SummarizeOutcome,
    mut ipp: IppOutcome,
    forced: Option<DegradeReason>,
    wall_ms: u64,
    key: Option<u128>,
    slots: &[OnceLock<Summary>],
    callees: &[String],
) {
    // Complete the explainability record before anything is staged: the
    // cache write-back below clones the reports, so warm runs replay the
    // exact same provenance a cold run produced.
    for report in &mut ipp.reports {
        if let Some(p) = report.provenance.as_mut() {
            p.callees = callees.to_vec();
        }
    }
    let summary = build_summary(name, &outcome.path_entries, &ipp, outcome.partial);
    out.stats.record_outcome(outcome);
    let degrade = forced.or(outcome.degrade);
    if let (Some(key), None) = (key, degrade) {
        // Only clean results are cached; degraded summaries depend on
        // budgets and retry limits, which are not key material.
        out.fresh.push((idx, key, summary.clone(), ipp.reports.clone()));
    }
    out.reports.extend(ipp.reports);
    let published = slots[idx].set(summary);
    debug_assert!(published.is_ok(), "each function is summarized exactly once");
    if let Some(reason) = degrade {
        let cost = FunctionCost {
            paths: outcome.paths_enumerated,
            states: outcome.states_explored,
            wall_ms,
        };
        crate::budget::trace_degradation(name, reason);
        out.degraded.push((name.to_owned(), Degradation { reason, cost }));
    }
}

/// Deterministic, deduplicated callee-name list for function `i`:
/// resolved call-graph edges plus unresolved externals. This is the
/// "callee summaries used" line of `rid explain`.
pub(crate) fn callee_names(graph: &CallGraph, i: usize) -> Vec<String> {
    let mut names: Vec<Sym> = graph
        .callees(i)
        .iter()
        .map(|&j| graph.sym(j))
        .chain(graph.unknown_callee_syms(i).iter().copied())
        .collect();
    // `Sym` orders by text, so this is the sorted name list.
    names.sort_unstable();
    names.dedup();
    names.into_iter().map(|name| name.as_str().to_owned()).collect()
}

/// Convenience: analyze RIL sources directly.
///
/// # Errors
///
/// Returns the frontend error when a source fails to parse or link.
pub fn analyze_sources<'a>(
    sources: impl IntoIterator<Item = &'a str>,
    predefined: &SummaryDb,
    options: &AnalysisOptions,
) -> Result<AnalysisResult, rid_frontend::FrontendError> {
    let program = rid_frontend::parse_program(sources)?;
    Ok(analyze_program(&program, predefined, options))
}

/// Groups reports by function, preserving report order.
#[must_use]
pub fn reports_by_function(reports: &[IppReport]) -> HashMap<&str, Vec<&IppReport>> {
    let mut map: HashMap<&str, Vec<&IppReport>> = HashMap::new();
    for report in reports {
        map.entry(report.function.as_str()).or_default().push(report);
    }
    map
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apis::linux_dpm_apis;

    const FIGURE8: &str = r#"module radeon;
        extern fn pm_runtime_get_sync;
        extern fn pm_runtime_put_autosuspend;
        fn radeon_crtc_set_config(dev, set) {
            let ret = pm_runtime_get_sync(dev);
            if (ret < 0) { return ret; }
            ret = drm_crtc_helper_set_config(set);
            pm_runtime_put_autosuspend(dev);
            return ret;
        }"#;

    #[test]
    fn figure8_bug_is_detected() {
        let result =
            analyze_sources([FIGURE8], &linux_dpm_apis(), &AnalysisOptions::default())
                .unwrap();
        assert_eq!(result.reports.len(), 1);
        let r = &result.reports[0];
        assert_eq!(r.function, "radeon_crtc_set_config");
        // The early-error path leaves +1; the normal path balances to 0.
        assert_eq!((r.change_a.max(r.change_b), r.change_a.min(r.change_b)), (1, 0));
    }

    const FIGURE9: &str = r#"module usb;
        extern fn pm_runtime_get_sync;
        extern fn pm_runtime_put_sync;
        fn usb_autopm_get_interface(intf) {
            let status = pm_runtime_get_sync(intf.dev);
            if (status < 0) {
                pm_runtime_put_sync(intf.dev);
            }
            if (status > 0) {
                status = 0;
            }
            return status;
        }
        fn usb_autopm_put_interface(intf) {
            pm_runtime_put_sync(intf.dev);
            return;
        }
        fn idmouse_open(inode, file) {
            let interface = inode.intf;
            let result = usb_autopm_get_interface(interface);
            if (result) { goto error; }
            result = idmouse_create_image(inode);
            if (result) { goto error; }
            usb_autopm_put_interface(interface);
        error:
            return result;
        }"#;

    #[test]
    fn figure9_wrapper_is_summarized_precisely_and_bug_found() {
        let result =
            analyze_sources([FIGURE9], &linux_dpm_apis(), &AnalysisOptions::default())
                .unwrap();
        // The wrapper itself is consistent (error paths are distinguished
        // by the return value) — no report on it.
        assert!(result.reports.iter().all(|r| r.function != "usb_autopm_get_interface"));
        // Its summary captures both behaviours.
        let wrapper = result.summaries.get("usb_autopm_get_interface").unwrap();
        assert!(wrapper.entries.iter().any(|e| e.has_changes()));
        assert!(wrapper.entries.iter().any(|e| !e.has_changes()));
        // idmouse_open misses the put when idmouse_create_image fails.
        let bugs: Vec<_> =
            result.reports.iter().filter(|r| r.function == "idmouse_open").collect();
        assert!(!bugs.is_empty(), "missing idmouse_open report: {:?}", result.reports);
    }

    #[test]
    fn figure10_false_negative_is_reproduced() {
        // arizona_irq_thread is internally consistent (IRQ_NONE vs
        // IRQ_HANDLED distinguish the paths); the bug is only visible at
        // callers through a function pointer RID does not model (§6.4).
        let src = r#"module arizona;
            extern fn pm_runtime_get_sync;
            extern fn pm_runtime_put;
            fn arizona_irq_thread(irq, data) {
                let ret = pm_runtime_get_sync(data.dev);
                if (ret < 0) {
                    dev_err(data);
                    return 0; // IRQ_NONE
                }
                handle(data);
                pm_runtime_put(data.dev);
                return 1; // IRQ_HANDLED
            }"#;
        let result =
            analyze_sources([src], &linux_dpm_apis(), &AnalysisOptions::default()).unwrap();
        assert!(result.reports.is_empty(), "Figure 10 must be a false negative");
    }

    #[test]
    fn selective_skips_unrelated_functions() {
        let src = r#"module m;
            fn unrelated_helper(x) { let v = random; return v; }
            fn logging() { return; }
            fn driver(dev) { pm_runtime_get(dev); pm_runtime_put(dev); return; }"#;
        let result =
            analyze_sources([src], &linux_dpm_apis(), &AnalysisOptions::default()).unwrap();
        assert_eq!(result.stats.functions_total, 3);
        assert_eq!(result.stats.functions_analyzed, 1); // only `driver`
        assert!(result.summaries.get("logging").is_none());
    }

    #[test]
    fn non_selective_analyzes_everything() {
        let src = "module m; fn a() { return 1; } fn b() { return 2; }";
        let options = AnalysisOptions { selective: false, ..Default::default() };
        let result = analyze_sources([src], &linux_dpm_apis(), &options).unwrap();
        assert_eq!(result.stats.functions_analyzed, 2);
    }

    #[test]
    fn parallel_equals_sequential() {
        let sources = [FIGURE8, FIGURE9];
        let sequential =
            analyze_sources(sources, &linux_dpm_apis(), &AnalysisOptions::default()).unwrap();
        let options = AnalysisOptions { threads: 4, ..Default::default() };
        let parallel = analyze_sources(sources, &linux_dpm_apis(), &options).unwrap();
        assert_eq!(sequential.reports, parallel.reports);
        assert_eq!(
            sequential.stats.functions_analyzed,
            parallel.stats.functions_analyzed
        );
    }

    #[test]
    fn parallel_runs_record_per_worker_profiles() {
        let sources = [FIGURE8, FIGURE9];
        let options = AnalysisOptions { threads: 3, ..Default::default() };
        let result = analyze_sources(sources, &linux_dpm_apis(), &options).unwrap();
        // One profile per spawned worker, in worker-index order. No
        // function here is recursive, so every analyzed function is one
        // component, and the workers run each exactly once.
        let profiles = &result.stats.worker_profiles;
        let workers: Vec<usize> = profiles.iter().map(|p| p.worker).collect();
        assert_eq!(workers, vec![0, 1, 2], "one profile per worker, merged in order");
        let comps: u64 = profiles.iter().map(|p| p.comps).sum();
        assert_eq!(comps as usize, result.stats.functions_analyzed);
        // The three leaves are seeded onto the ready stack together.
        assert_eq!(result.stats.queue_depth_max, 3);
        assert_eq!(result.stats.steals, 0);
        // Sequential runs carry no profiles.
        let seq =
            analyze_sources(sources, &linux_dpm_apis(), &AnalysisOptions::default()).unwrap();
        assert!(seq.stats.worker_profiles.is_empty());
        assert_eq!(seq.stats.queue_depth_max, 0);
    }

    /// A chain of `n` refcount-changing functions over a Figure 8 bug:
    /// each completion unlocks exactly one caller, so every other worker
    /// parks and is woken once per link.
    fn chain_source(n: usize) -> String {
        let mut src = String::from(
            "module chain;\nfn f0(dev) { let r = pm_runtime_get_sync(dev); \
             if (r < 0) { return 0; } pm_runtime_put(dev); return 0; }\n",
        );
        for i in 1..n {
            src += &format!("fn f{i}(dev) {{ let r = f{}(dev); return r; }}\n", i - 1);
        }
        src
    }

    /// `roots` roots over `leaves_per_root` get/put leaves each.
    fn fan_source(roots: usize, leaves_per_root: usize) -> String {
        let mut src = String::from("module fan;\n");
        for r in 0..roots {
            let mut body = String::new();
            for l in 0..leaves_per_root {
                src += &format!(
                    "fn leaf{r}_{l}(dev) {{ pm_runtime_get(dev); pm_runtime_put(dev); return; }}\n"
                );
                body += &format!("leaf{r}_{l}(dev); ");
            }
            src += &format!("fn root{r}(dev) {{ {body}return; }}\n");
        }
        src
    }

    /// A chain of `n` three-function recursive components. Every member
    /// calls a refcount API itself, so each is analyzed.
    fn scc_chain_source(n: usize) -> String {
        let mut src = String::from("module sccs;\n");
        for k in 0..n {
            let below = if k == 0 { String::new() } else { format!("a{}(dev); ", k - 1) };
            src += &format!(
                "fn a{k}(dev) {{ {below}pm_runtime_get_sync(dev); b{k}(dev); return 0; }}\n\
                 fn b{k}(dev) {{ pm_runtime_put(dev); c{k}(dev); return 0; }}\n\
                 fn c{k}(dev) {{ if (dev.x > 0) {{ a{k}(dev); }} pm_runtime_put(dev); return 0; }}\n"
            );
        }
        src
    }

    /// Shapes the corpora lack: reports and summaries at 2, 3 and 8
    /// threads equal the sequential run's, and the workers run every
    /// component once. Each run has 60 s to answer, so a lost wakeup
    /// fails the test instead of hanging it.
    #[test]
    fn pool_matches_sequential_on_extreme_shapes() {
        fn run(src: &str, threads: usize) -> (Vec<IppReport>, String, u64, usize) {
            let src = src.to_owned();
            let (tx, rx) = std::sync::mpsc::channel();
            let worker = std::thread::spawn(move || {
                let options = AnalysisOptions { threads, ..Default::default() };
                let result = analyze_sources([src.as_str()], &linux_dpm_apis(), &options)
                    .expect("synthetic program parses");
                let comps = result.stats.worker_profiles.iter().map(|p| p.comps).sum();
                let summaries = serde_json::to_string(&result.summaries).unwrap();
                let _ = tx.send((result.reports, summaries, comps, result.stats.functions_analyzed));
            });
            let got = rx.recv_timeout(Duration::from_secs(60));
            assert!(got.is_ok() || worker.is_finished(), "{threads}-thread run hung for 60 s");
            worker.join().unwrap_or_else(|panic| std::panic::resume_unwind(panic));
            got.unwrap()
        }
        let shapes = [
            ("chain", chain_source(300), 300, 300),
            ("fan", fan_source(20, 100), 2_020, 2_020),
            ("sccs", scc_chain_source(30), 90, 30),
        ];
        for (shape, src, functions, components) in shapes {
            let (reports, summaries, _, analyzed) = run(&src, 1);
            assert_eq!(analyzed, functions, "{shape}: every function is analyzed");
            assert_eq!(reports.is_empty(), shape != "chain", "{shape}: only the chain has a bug");
            for threads in [2, 3, 8] {
                let got = run(&src, threads);
                assert!(got.0 == reports, "{shape}: {threads}-thread reports differ");
                assert!(got.1 == summaries, "{shape}: {threads}-thread summaries differ");
                assert_eq!(got.2, components, "{shape}: {threads} workers ran each component once");
            }
        }
    }

    #[test]
    fn recursive_functions_get_default_breaking() {
        let src = r#"module m;
            fn even(n, dev) { pm_runtime_get(dev); odd(n, dev); return; }
            fn odd(n, dev) { pm_runtime_put(dev); even(n, dev); return; }"#;
        // Must terminate and produce summaries for both.
        let result =
            analyze_sources([src], &linux_dpm_apis(), &AnalysisOptions::default()).unwrap();
        assert!(result.summaries.get("even").is_some());
        assert!(result.summaries.get("odd").is_some());
    }

    #[test]
    fn exec_mode_counts_cover_analyzed_functions() {
        let result =
            analyze_sources([FIGURE8, FIGURE9], &linux_dpm_apis(), &AnalysisOptions::default())
                .unwrap();
        assert_eq!(
            result.stats.exec_tree + result.stats.exec_per_path,
            result.stats.functions_analyzed,
            "every executed function resolves to exactly one concrete mode"
        );
    }

    #[test]
    fn warm_cache_run_is_identical_and_all_hits() {
        let sources = [FIGURE8, FIGURE9];
        let apis = linux_dpm_apis();
        let options = AnalysisOptions::default();
        let program = rid_frontend::parse_program(sources).unwrap();
        let mut cache = SummaryCache::new();
        let cold = analyze_program_cached(
            &program,
            &apis,
            &options,
            &FaultPlan::none(),
            Some(&mut cache),
        );
        assert_eq!(cold.stats.cache_hits, 0);
        assert_eq!(cold.stats.cache_misses, cold.stats.functions_analyzed);
        let warm = analyze_program_cached(
            &program,
            &apis,
            &options,
            &FaultPlan::none(),
            Some(&mut cache),
        );
        assert_eq!(warm.stats.cache_hits, warm.stats.functions_analyzed);
        assert_eq!(warm.stats.cache_misses + warm.stats.cache_invalidated, 0);
        assert_eq!(warm.reports, cold.reports);
        assert_eq!(
            serde_json::to_string(&warm.summaries).unwrap(),
            serde_json::to_string(&cold.summaries).unwrap()
        );
    }

    /// `rid analyze` runs with and without `--cache` share one path; a
    /// cold store must change nothing but the cache counters.
    #[test]
    fn uncached_run_matches_cold_cached_run() {
        let apis = linux_dpm_apis();
        let options = AnalysisOptions::default();
        let program = rid_frontend::parse_program([FIGURE8, FIGURE9]).unwrap();
        let plain = analyze_program(&program, &apis, &options);
        let stats = &plain.stats;
        assert_eq!((stats.cache_hits, stats.cache_misses, stats.cache_invalidated), (0, 0, 0));
        let mut cache = SummaryCache::new();
        let cold = analyze_program_cached(
            &program,
            &apis,
            &options,
            &FaultPlan::none(),
            Some(&mut cache),
        );
        assert_eq!(cold.stats.cache_misses, plain.stats.functions_analyzed);
        assert!(!cache.is_empty(), "a cold run fills the cache");
        assert!(!plain.reports.is_empty());
        assert_eq!(cold.reports, plain.reports);
        assert_eq!(cold.degraded, plain.degraded);
        assert_eq!(
            serde_json::to_string(&cold.summaries).unwrap(),
            serde_json::to_string(&plain.summaries).unwrap()
        );
    }

    #[test]
    fn reports_by_function_groups() {
        let result =
            analyze_sources([FIGURE8], &linux_dpm_apis(), &AnalysisOptions::default())
                .unwrap();
        let grouped = reports_by_function(&result.reports);
        assert_eq!(grouped.len(), 1);
        assert!(grouped.contains_key("radeon_crtc_set_config"));
    }
}
