//! Incremental re-analysis (§5.4, limitation 4).
//!
//! RID randomly drops one path of each inconsistent pair, which can hide
//! further inconsistencies in the *callers* of a buggy function. The paper
//! proposes an **incremental recheck**: once the bug is fixed, re-analyze
//! using "previously calculated summaries of unaffected functions", so
//! only the fixed function and its transitive callers pay the cost.
//!
//! [`reanalyze`] implements exactly that: given the previous
//! [`AnalysisResult`] and the set of changed functions, it invalidates the
//! changed functions plus everything that can reach them in the call
//! graph, resummarizes only those (bottom-up, reusing every retained
//! summary), and splices old and new reports together.

use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::time::Instant;

use rid_ir::{Function, Program};

use crate::budget::{BudgetMeter, Degradation, DegradeReason, FunctionCost};
use crate::callgraph::CallGraph;
use crate::driver::{
    effective_fuel, guarded_attempt, reduced_limits, AnalysisOptions, AnalysisResult,
    AnalysisStats,
};
use crate::exec::SummaryView;
use crate::fault::FaultPlan;
use crate::ipp::build_summary;
use crate::summary::{Summary, SummaryDb};

/// The set of functions whose summaries a change invalidates: the changed
/// functions plus all their transitive callers.
#[must_use]
pub fn affected_functions(graph: &CallGraph, changed: &[&str]) -> HashSet<String> {
    let mut affected: HashSet<usize> = HashSet::new();
    let mut worklist: Vec<usize> =
        changed.iter().filter_map(|name| graph.index_of(name)).collect();
    while let Some(i) = worklist.pop() {
        if !affected.insert(i) {
            continue;
        }
        worklist.extend(graph.callers(i).iter().copied());
    }
    affected.into_iter().map(|i| graph.name(i).to_owned()).collect()
}

/// A name-level reverse call index kept resident across edits.
///
/// [`CallGraph::build`] walks every function body and re-allocates the
/// whole node table — an O(program) fixed cost that dwarfs the actual
/// re-analysis of a one-function edit on a large corpus. `rid serve`
/// instead keeps a `CallerIndex` resident next to the program and
/// updates it per edited module: [`remove_function`] the pre-edit
/// winners, [`add_function`] the post-edit ones, both O(module).
///
/// Unlike the call graph, the index is keyed by *called name*, whether
/// or not that name is currently defined. Call sites referencing a
/// not-yet-defined (or just-deleted) function are retained, so
/// [`CallerIndex::affected`] naturally invalidates the callers of a
/// deleted function, and of a brand-new function whose call sites
/// predate its definition — the two cases a defined-nodes-only graph
/// misses (see [`reanalyze`]'s deletion caveat).
///
/// [`remove_function`]: CallerIndex::remove_function
/// [`add_function`]: CallerIndex::add_function
#[derive(Clone, Debug, Default)]
pub struct CallerIndex {
    /// Called name (defined or not) → names of canonical (post
    /// weak-symbol-resolution) functions whose bodies call it.
    callers: HashMap<String, BTreeSet<String>>,
}

impl CallerIndex {
    /// Builds the index over a program's canonical function definitions.
    #[must_use]
    pub fn build(program: &Program) -> CallerIndex {
        let mut index = CallerIndex::default();
        for func in program.functions() {
            index.add_function(func);
        }
        index
    }

    /// Records `func`'s call edges. Call only for canonical definitions:
    /// a weak copy shadowed by another module never executes, so its
    /// call sites must not appear in the index.
    pub fn add_function(&mut self, func: &Function) {
        for callee in func.callees() {
            self.callers.entry(callee.to_owned()).or_default().insert(func.name().to_owned());
        }
    }

    /// Removes `func`'s call edges (the exact inverse of
    /// [`add_function`](CallerIndex::add_function) for the same body).
    pub fn remove_function(&mut self, func: &Function) {
        for callee in func.callees() {
            if let Some(callers) = self.callers.get_mut(callee) {
                callers.remove(func.name());
                if callers.is_empty() {
                    self.callers.remove(callee);
                }
            }
        }
    }

    /// The changed functions plus all their transitive callers — the
    /// same closure as [`affected_functions`], but O(cone) instead of
    /// O(program) because no graph is rebuilt. Deleted names invalidate
    /// their (former) callers too, since their call sites are retained.
    #[must_use]
    pub fn affected(&self, changed: &[&str]) -> HashSet<String> {
        let mut affected: HashSet<String> = HashSet::new();
        let mut worklist: Vec<&str> = changed.to_vec();
        while let Some(name) = worklist.pop() {
            if !affected.insert(name.to_owned()) {
                continue;
            }
            if let Some(callers) = self.callers.get(name) {
                worklist.extend(callers.iter().map(String::as_str));
            }
        }
        affected
    }

    /// The re-analysis plan for an edit: the affected set plus a
    /// callee-before-caller order over its defined members, computed
    /// from the affected functions' own bodies — O(cone), never
    /// O(program).
    #[must_use]
    pub fn plan(&self, program: &Program, changed: &[&str]) -> ReanalyzePlan {
        let affected = self.affected(changed);
        ReanalyzePlan::for_affected(program, affected)
    }

    /// The call edges as a deterministic callee-sorted list — the
    /// serialization surface `rid serve` snapshots use, so a restored
    /// daemon rebuilds the index by insertion instead of re-walking
    /// every function body in the program.
    #[must_use]
    pub fn edges(&self) -> Vec<(&str, &BTreeSet<String>)> {
        let mut edges: Vec<(&str, &BTreeSet<String>)> =
            self.callers.iter().map(|(callee, callers)| (callee.as_str(), callers)).collect();
        edges.sort_unstable_by_key(|(callee, _)| *callee);
        edges
    }

    /// Rebuilds an index from the pairs [`edges`](CallerIndex::edges)
    /// produced. Empty caller sets are dropped, matching the invariant
    /// [`remove_function`](CallerIndex::remove_function) maintains.
    pub fn from_edges(edges: impl IntoIterator<Item = (String, BTreeSet<String>)>) -> CallerIndex {
        let callers = edges.into_iter().filter(|(_, callers)| !callers.is_empty()).collect();
        CallerIndex { callers }
    }
}

/// What an incremental pass must redo: see [`CallerIndex::plan`].
#[derive(Clone, Debug)]
pub struct ReanalyzePlan {
    /// Every invalidated name (defined or not): the changed functions
    /// plus their transitive callers.
    pub affected: HashSet<String>,
    /// The defined members of `affected` in callee-before-caller order
    /// (cycles broken deterministically), the order
    /// [`reanalyze_with_plan`] re-summarizes them in.
    pub order: Vec<String>,
}

impl ReanalyzePlan {
    /// Orders the defined members of `affected` bottom-up by a DFS over
    /// their intra-cone call edges. Roots and children are visited in
    /// sorted name order, so the order is deterministic; a back edge
    /// (recursion) is skipped, breaking cycles arbitrarily but
    /// deterministically, like the full driver's SCC handling.
    fn for_affected(program: &Program, affected: HashSet<String>) -> ReanalyzePlan {
        let mut nodes: Vec<&str> = affected
            .iter()
            .map(String::as_str)
            .filter(|name| program.function(name).is_some())
            .collect();
        nodes.sort_unstable();
        let node_set: HashSet<&str> = nodes.iter().copied().collect();
        let children = |name: &str| -> Vec<&str> {
            let func = program.function(name).expect("plan nodes are defined");
            let mut callees: Vec<&str> =
                func.callees().filter(|c| node_set.contains(c)).collect();
            callees.sort_unstable();
            callees.dedup();
            callees
        };

        let mut order = Vec::with_capacity(nodes.len());
        let mut visited: HashSet<&str> = HashSet::new();
        for &root in &nodes {
            if visited.contains(root) {
                continue;
            }
            // Iterative post-order DFS: (node, remaining children).
            let mut stack: Vec<(&str, Vec<&str>)> = vec![(root, children(root))];
            visited.insert(root);
            while let Some((node, pending)) = stack.last_mut() {
                match pending.pop() {
                    Some(child) if visited.contains(child) => {}
                    Some(child) => {
                        visited.insert(child);
                        stack.push((child, children(child)));
                    }
                    None => {
                        order.push((*node).to_owned());
                        stack.pop();
                    }
                }
            }
        }
        ReanalyzePlan { affected, order }
    }

    /// The plan a full [`CallGraph`] implies: affected set via
    /// [`affected_functions`], order by filtering the graph's global
    /// reverse topological order down to the cone.
    #[must_use]
    pub fn from_graph(graph: &CallGraph, changed: &[&str]) -> ReanalyzePlan {
        let affected = affected_functions(graph, changed);
        let order = graph
            .reverse_topological_order()
            .into_iter()
            .map(|i| graph.name(i))
            .filter(|name| affected.contains(*name))
            .map(str::to_owned)
            .collect();
        ReanalyzePlan { affected, order }
    }
}

/// Re-analyzes `program` after `changed` functions were edited, reusing
/// the summaries of unaffected functions from `previous`.
///
/// `program` is the *post-edit* program; `previous` is the result of
/// analyzing the pre-edit program (or an earlier incremental pass).
/// Reports for unaffected functions are carried over verbatim; affected
/// functions are re-summarized and re-checked.
///
/// The result is equivalent to a full re-analysis whenever the edit only
/// touches the bodies of `changed` (the §5.4 use case: fixing a reported
/// inconsistency and rechecking its callers). When a *deleted* function's
/// callers should be invalidated, list the deleted name in `changed` too:
/// names absent from the new program contribute no callers of their own,
/// so also list the (former) callers explicitly in that case.
#[must_use]
pub fn reanalyze(
    program: &Program,
    predefined: &SummaryDb,
    previous: &AnalysisResult,
    changed: &[&str],
    options: &AnalysisOptions,
) -> AnalysisResult {
    let graph = CallGraph::build(program);
    reanalyze_with_graph(program, predefined, previous.clone(), changed, options, &graph)
}

/// [`reanalyze`] with a caller-supplied call graph of the *post-edit*
/// program, taking the previous result by value (its summary database
/// is reused in place, not cloned). Equivalent to
/// [`reanalyze_with_plan`] with [`ReanalyzePlan::from_graph`].
#[must_use]
pub fn reanalyze_with_graph(
    program: &Program,
    predefined: &SummaryDb,
    previous: AnalysisResult,
    changed: &[&str],
    options: &AnalysisOptions,
    graph: &CallGraph,
) -> AnalysisResult {
    let plan = ReanalyzePlan::from_graph(graph, changed);
    reanalyze_with_plan(program, predefined, previous, changed, options, &plan)
}

/// The incremental pass itself, driven by a pre-computed plan.
///
/// This is `rid serve`'s warm path, and every input is arranged so the
/// cost is proportional to the affected cone rather than the corpus:
/// `previous` is taken by value so its summary database becomes the new
/// result's database in place (affected entries evicted, nothing
/// cloned), and `plan` — typically from a resident
/// [`CallerIndex::plan`] — already knows the cone and its bottom-up
/// order, so no call graph is built here.
#[must_use]
pub fn reanalyze_with_plan(
    program: &Program,
    predefined: &SummaryDb,
    previous: AnalysisResult,
    changed: &[&str],
    options: &AnalysisOptions,
    plan: &ReanalyzePlan,
) -> AnalysisResult {
    let affected = &plan.affected;
    let AnalysisResult {
        reports: prev_reports,
        summaries: mut db,
        classification,
        stats: prev_stats,
        degraded: prev_degraded,
    } = previous;

    // The previous database *is* the starting point; evict the affected
    // cone (predefined entries stay — the driver never overwrote them)
    // and remember which evicted names had summaries: under selective
    // analysis that is the previous run's implicit decision to analyze.
    let mut had_summary: HashSet<String> = HashSet::new();
    for name in affected {
        if predefined.contains(name) {
            continue;
        }
        if db.remove(name).is_some() {
            had_summary.insert(name.clone());
        }
    }

    let changed_set: HashSet<&str> = changed.iter().copied().collect();
    let should_analyze = |name: &str| -> bool {
        if predefined.contains(name) {
            return false;
        }
        if !affected.contains(name) {
            return false;
        }
        if !options.selective {
            return true;
        }
        // Functions named in `changed` are always re-analyzed (they may
        // be brand new and absent from the previous classification).
        changed_set.contains(name)
            || had_summary.contains(name)
            || classification.category(name).is_analyzed()
    };

    let mut stats = AnalysisStats::default();
    let mut reports: Vec<crate::ipp::IppReport> = prev_reports
        .into_iter()
        .filter(|r| !affected.contains(&r.function))
        .collect();

    // Degradation records for unaffected functions are carried over, like
    // their reports; re-analyzed functions get fresh records below.
    let mut degraded: BTreeMap<String, Degradation> = prev_degraded
        .into_iter()
        .filter(|(name, _)| !affected.contains(name.as_str()))
        .collect();

    // Re-analysis runs under the same fault-tolerance regime as the full
    // driver: budgets are metered and a panicking function is retried
    // once with reduced limits, then degraded to the default summary.
    let faults = FaultPlan::none();
    let global_deadline = options.budget.global_deadline.map(|d| Instant::now() + d);
    for name in &plan.order {
        let name = name.as_str();
        let func = program.function(name).expect("plan orders defined functions");
        if !should_analyze(name) {
            continue;
        }
        let fuel = effective_fuel(&options.budget, &faults, name);
        let meter = BudgetMeter::start(&options.budget, global_deadline);
        let first = guarded_attempt(
            func,
            SummaryView::Db(&db),
            &options.limits,
            options.sat,
            &meter,
            fuel,
            &faults,
            0,
            options.exec_mode,
        );
        let first_ms = meter.elapsed().as_millis() as u64;
        let (attempt, forced, wall_ms) = match first {
            Ok(ok) => (Some(ok), None, first_ms),
            Err(()) => {
                let meter = BudgetMeter::start(&options.budget, global_deadline);
                let retry = guarded_attempt(
                    func,
                    SummaryView::Db(&db),
                    &reduced_limits(&options.limits),
                    options.sat,
                    &meter,
                    fuel,
                    &faults,
                    1,
                    options.exec_mode,
                );
                let total = first_ms + meter.elapsed().as_millis() as u64;
                (retry.ok(), Some(DegradeReason::Retried), total)
            }
        };
        match attempt {
            Some((outcome, mut ipp)) => {
                let mut callees: Vec<String> =
                    func.callees().map(str::to_owned).collect();
                callees.sort();
                callees.dedup();
                for report in &mut ipp.reports {
                    if let Some(p) = report.provenance.as_mut() {
                        p.callees = callees.clone();
                    }
                }
                let summary = build_summary(name, &outcome.path_entries, &ipp, outcome.partial);
                stats.record_outcome(&outcome);
                reports.extend(ipp.reports);
                db.insert(summary);
                if let Some(reason) = forced.or(outcome.degrade) {
                    let cost = FunctionCost {
                        paths: outcome.paths_enumerated,
                        states: outcome.states_explored,
                        wall_ms,
                    };
                    crate::budget::trace_degradation(name, reason);
                    degraded.insert(name.to_owned(), Degradation { reason, cost });
                }
            }
            None => {
                db.insert(Summary::default_for(name));
                stats.functions_analyzed += 1;
                stats.functions_partial += 1;
                let cost = FunctionCost { paths: 0, states: 0, wall_ms };
                crate::budget::trace_degradation(name, DegradeReason::Panic);
                degraded.insert(
                    name.to_owned(),
                    Degradation { reason: DegradeReason::Panic, cost },
                );
            }
        }
    }

    // Extensions follow the main pass: re-check affected callbacks with
    // the return-value-blind contract when the option is on (mirrors
    // `analyze_program`).
    if options.check_callbacks {
        let model = crate::callbacks::CallbackModel::linux_default();
        let callbacks = crate::callbacks::collect_callbacks(program, &model);
        let existing: HashSet<(String, String)> = reports
            .iter()
            .map(|r| (r.function.clone(), r.refcount.to_string()))
            .collect();
        for name in callbacks {
            if !affected.contains(&name) {
                continue; // carried-over callback reports are still valid
            }
            let Some(func) = program.function(&name) else { continue };
            for report in crate::callbacks::check_callback_function(
                func,
                &db,
                &options.limits,
                options.sat,
            ) {
                if !existing.contains(&(report.function.clone(), report.refcount.to_string()))
                {
                    reports.push(report);
                }
            }
        }
    }

    // Second-stage refutation over the merged reports. Only the
    // recomputed ones are judged: a carried-over report keeps its
    // verdict, which is exact because its function lies outside the
    // affected cone and the cone is closed under callers — none of the
    // callee summaries it was judged against changed. The unaffected
    // functions' refuted counts carry over the same way, so the three
    // counters match a full run's.
    if options.refute {
        stats.refuted_functions = prev_stats
            .refuted_functions
            .into_iter()
            .filter(|(name, _)| !affected.contains(name))
            .collect();
        stats.reports_refuted = stats.refuted_functions.values().sum();
        crate::refute::refute_pass(&db, options.budget.solver_fuel, &mut reports, &mut stats);
    }

    stats.functions_total = program.function_count();
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apis::linux_dpm_apis;
    use crate::driver::analyze_sources;
    use rid_frontend::parse_program;

    const LIB_BUGGY: &str = r#"module lib;
        fn helper(dev) {
            let r = check(dev);
            if (r < 0) { return 0; }
            pm_runtime_get_sync(dev);
            return 0;
        }"#;

    const LIB_FIXED: &str = r#"module lib;
        fn helper(dev) {
            let r = check(dev);
            if (r < 0) { return -1; }
            pm_runtime_get_sync(dev);
            return 0;
        }"#;

    const APP: &str = r#"module app;
        fn caller(dev) {
            let st = helper(dev);
            if (st) { return 0; }
            pm_runtime_put(dev);
            return 0;
        }
        fn unrelated(dev) {
            pm_runtime_get_sync(dev);
            return 0;
        }"#;

    #[test]
    fn affected_set_is_transitive_callers() {
        let program = parse_program([LIB_BUGGY, APP]).unwrap();
        let graph = CallGraph::build(&program);
        let affected = affected_functions(&graph, &["helper"]);
        assert!(affected.contains("helper"));
        assert!(affected.contains("caller"));
        assert!(!affected.contains("unrelated"));
    }

    #[test]
    fn recheck_after_fix_matches_full_reanalysis() {
        let options = AnalysisOptions::default();
        let apis = linux_dpm_apis();

        let before = analyze_sources([LIB_BUGGY, APP], &apis, &options).unwrap();
        // The buggy helper is reported (both paths return 0).
        assert!(before.reports.iter().any(|r| r.function == "helper"));

        // Fix helper; re-analyze incrementally.
        let fixed_program = parse_program([LIB_FIXED, APP]).unwrap();
        let incremental =
            reanalyze(&fixed_program, &apis, &before, &["helper"], &options);
        let full = analyze_sources([LIB_FIXED, APP], &apis, &options).unwrap();

        let key = |r: &crate::ipp::IppReport| (r.function.clone(), r.refcount.clone());
        let a: Vec<_> = incremental.reports.iter().map(key).collect();
        let b: Vec<_> = full.reports.iter().map(key).collect();
        assert_eq!(a, b);
        // Helper's report is gone after the fix.
        assert!(incremental.reports.iter().all(|r| r.function != "helper"));
    }

    #[test]
    fn unaffected_functions_are_not_reanalyzed() {
        let options = AnalysisOptions::default();
        let apis = linux_dpm_apis();
        let before = analyze_sources([LIB_BUGGY, APP], &apis, &options).unwrap();
        let fixed_program = parse_program([LIB_FIXED, APP]).unwrap();
        let incremental =
            reanalyze(&fixed_program, &apis, &before, &["helper"], &options);
        // Only helper and caller are re-summarized, not `unrelated`.
        assert_eq!(incremental.stats.functions_analyzed, 2);
        // `unrelated`'s summary is carried over.
        assert!(incremental.summaries.get("unrelated").is_some());
    }

    #[test]
    fn callback_extension_applies_during_recheck() {
        let options = AnalysisOptions { check_callbacks: true, ..Default::default() };
        let apis = linux_dpm_apis();
        // v1: balanced IRQ handler, registered — clean.
        let v1 = r#"module m;
            fn irq_handler(irq, data) {
                let ret = pm_runtime_get_sync(data.dev);
                if (ret < 0) { pm_runtime_put(data.dev); return 0; }
                pm_runtime_put(data.dev);
                return 1;
            }
            fn setup(dev) { request_irq(dev.irq, @irq_handler, dev); return 0; }"#;
        let before = analyze_sources([v1], &apis, &options).unwrap();
        assert!(before.reports.is_empty(), "{:?}", before.reports);

        // v2: the edit breaks the error path (Figure 10 shape).
        let v2 = r#"module m;
            fn irq_handler(irq, data) {
                let ret = pm_runtime_get_sync(data.dev);
                if (ret < 0) { return 0; }
                pm_runtime_put(data.dev);
                return 1;
            }
            fn setup(dev) { request_irq(dev.irq, @irq_handler, dev); return 0; }"#;
        let program = parse_program([v2]).unwrap();
        let after = reanalyze(&program, &apis, &before, &["irq_handler"], &options);
        assert!(
            after.reports.iter().any(|r| r.function == "irq_handler" && r.callback),
            "callback bug introduced by the edit must surface: {:?}",
            after.reports
        );
    }

    #[test]
    fn new_function_listed_in_changed_is_analyzed() {
        let options = AnalysisOptions::default();
        let apis = linux_dpm_apis();
        let before = analyze_sources([LIB_BUGGY, APP], &apis, &options).unwrap();
        // The edit adds a brand-new buggy function.
        let app_v2 = r#"module app;
            fn caller(dev) {
                let st = helper(dev);
                if (st) { return 0; }
                pm_runtime_put(dev);
                return 0;
            }
            fn unrelated(dev) {
                pm_runtime_get_sync(dev);
                return 0;
            }
            fn fresh_bug(dev) {
                let r = probe(dev);
                if (r < 0) { return 0; }
                pm_runtime_get_sync(dev);
                return 0;
            }"#;
        let program = parse_program([LIB_BUGGY, app_v2]).unwrap();
        let after = reanalyze(&program, &apis, &before, &["fresh_bug"], &options);
        assert!(
            after.reports.iter().any(|r| r.function == "fresh_bug"),
            "new function must be analyzed: {:?}",
            after.reports
        );
    }

    #[test]
    fn caller_index_matches_graph_affected_set() {
        let program = parse_program([LIB_BUGGY, APP]).unwrap();
        let graph = CallGraph::build(&program);
        let index = CallerIndex::build(&program);
        assert_eq!(affected_functions(&graph, &["helper"]), index.affected(&["helper"]));
        assert_eq!(affected_functions(&graph, &["caller"]), index.affected(&["caller"]));
    }

    #[test]
    fn caller_index_invalidates_callers_of_deleted_and_undefined_names() {
        // `caller` calls `helper`; once helper is deleted, the graph
        // has no node for it, but the index retains the call site, so
        // the deletion still invalidates `caller`.
        let app_only = parse_program([APP]).unwrap();
        let index = CallerIndex::build(&app_only);
        let affected = index.affected(&["helper"]);
        assert!(affected.contains("helper"));
        assert!(affected.contains("caller"));
        assert!(!affected.contains("unrelated"));
    }

    #[test]
    fn caller_index_updates_in_place() {
        let program = parse_program([LIB_BUGGY, APP]).unwrap();
        let mut index = CallerIndex::build(&program);
        // Retire caller's edges: helper loses its only caller.
        index.remove_function(program.function("caller").unwrap());
        assert_eq!(index.affected(&["helper"]), ["helper".to_owned()].into());
        // Re-adding restores the original closure.
        index.add_function(program.function("caller").unwrap());
        assert_eq!(index.affected(&["helper"]), CallerIndex::build(&program).affected(&["helper"]));
    }

    #[test]
    fn plan_orders_callees_before_callers() {
        let program = parse_program([LIB_BUGGY, APP]).unwrap();
        let index = CallerIndex::build(&program);
        let plan = index.plan(&program, &["helper"]);
        assert_eq!(plan.order, vec!["helper".to_owned(), "caller".to_owned()]);
        // And it matches the full-graph plan for a pure body edit.
        let graph = CallGraph::build(&program);
        let from_graph = ReanalyzePlan::from_graph(&graph, &["helper"]);
        assert_eq!(plan.order, from_graph.order);
        assert_eq!(plan.affected, from_graph.affected);
    }

    #[test]
    fn plan_based_recheck_matches_graph_based_recheck() {
        let options = AnalysisOptions::default();
        let apis = linux_dpm_apis();
        let before = analyze_sources([LIB_BUGGY, APP], &apis, &options).unwrap();
        let fixed_program = parse_program([LIB_FIXED, APP]).unwrap();

        let via_graph = reanalyze(&fixed_program, &apis, &before, &["helper"], &options);
        let index = CallerIndex::build(&fixed_program);
        let plan = index.plan(&fixed_program, &["helper"]);
        let via_plan = reanalyze_with_plan(
            &fixed_program,
            &apis,
            before.clone(),
            &["helper"],
            &options,
            &plan,
        );
        let key = |r: &crate::ipp::IppReport| (r.function.clone(), r.refcount.clone());
        assert_eq!(
            via_plan.reports.iter().map(key).collect::<Vec<_>>(),
            via_graph.reports.iter().map(key).collect::<Vec<_>>()
        );
        assert_eq!(via_plan.stats.functions_analyzed, via_graph.stats.functions_analyzed);
        assert_eq!(via_plan.summaries.len(), via_graph.summaries.len());
    }

    #[test]
    fn recheck_reveals_hidden_caller_inconsistency() {
        // §5.4's scenario: the dropped path in the callee hides a caller
        // bug; after the callee fix the caller's own inconsistency
        // surfaces.
        let lib_buggy = r#"module lib;
            fn get_ref(dev) {
                let r = probe(dev);
                if (r < 0) { return 0; }
                pm_runtime_get_sync(dev);
                return 0;
            }"#;
        let lib_fixed = r#"module lib;
            fn get_ref(dev) {
                pm_runtime_get_sync(dev);
                let r = probe(dev);
                if (r < 0) { pm_runtime_put(dev); return -1; }
                return 0;
            }"#;
        let app = r#"module app;
            fn caller(dev) {
                let st = get_ref(dev);
                if (st < 0) { return 0; }
                let u = use_dev(dev);
                if (u < 0) { return 0; }   // BUG: put skipped
                pm_runtime_put(dev);
                return 0;
            }"#;
        let options = AnalysisOptions::default();
        let apis = linux_dpm_apis();
        let before = analyze_sources([lib_buggy, app], &apis, &options).unwrap();
        // Before the fix, get_ref itself is inconsistent and was reported.
        assert!(before.reports.iter().any(|r| r.function == "get_ref"));

        let fixed_program = parse_program([lib_fixed, app]).unwrap();
        let after = reanalyze(&fixed_program, &apis, &before, &["get_ref"], &options);
        assert!(after.reports.iter().all(|r| r.function != "get_ref"));
        assert!(
            after.reports.iter().any(|r| r.function == "caller"),
            "caller inconsistency must surface after the fix: {:?}",
            after.reports
        );
    }
}
