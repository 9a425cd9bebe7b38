//! The metrics facade between rid-core and [`rid_obs`].
//!
//! `AnalysisStats` stays the producer-owned, serde-friendly struct the
//! rest of the workspace already consumes; this module *snapshots* it
//! (plus the degradation census and, when available, a drained trace)
//! into a passive [`rid_obs::Registry`] under the stable dot-separated
//! vocabulary. The hot path never touches the registry — it is built on
//! demand by the `--metrics` CLI flag, the `profile` bench bin, and CI.

use std::collections::BTreeMap;

use rid_obs::{Registry, SpanKind, Trace};

use crate::budget::Degradation;
use crate::driver::{AnalysisResult, AnalysisStats};

/// Snapshots run statistics into a registry under the stable metric
/// names (`funcs.*`, `paths.*`, `sat.*`, `cache.*`, `exec.*`, `sched.*`,
/// `phase.*`).
#[must_use]
pub fn registry_from_stats(stats: &AnalysisStats) -> Registry {
    let mut r = Registry::new();
    r.count("funcs.total", stats.functions_total as u64);
    r.count("funcs.analyzed", stats.functions_analyzed as u64);
    r.count("funcs.partial", stats.functions_partial as u64);
    r.count("paths.enumerated", stats.paths_enumerated as u64);
    r.count("paths.states_explored", stats.states_explored as u64);
    r.count("sat.queries", stats.sat_queries as u64);
    r.count("sat.memo_hits", stats.sat_memo_hits as u64);
    r.count("sat.sat", stats.sat_sat as u64);
    r.count("sat.unsat", stats.sat_unsat as u64);
    r.count("sat.snapshots", stats.solver_snapshots as u64);
    r.gauge("sat.snapshot_depth_max", stats.snapshot_depth_max as i64);
    r.count("exec.blocks_executed", stats.blocks_executed as u64);
    r.count("exec.blocks_saved", stats.blocks_saved as u64);
    r.count("exec.tree", stats.exec_tree as u64);
    r.count("exec.per_path", stats.exec_per_path as u64);
    r.count("cache.hits", stats.cache_hits as u64);
    r.count("cache.misses", stats.cache_misses as u64);
    r.count("cache.invalidated", stats.cache_invalidated as u64);
    r.count("sched.steals", stats.steals as u64);
    r.gauge("sched.queue_depth_max", stats.queue_depth_max as i64);
    // Per-worker scheduler profiles, both per worker (`sched.w<i>.*`) and
    // folded across workers (`sched.steal_batch` etc. — what the bench
    // records and the v7 validator checks for presence).
    for p in &stats.worker_profiles {
        let w = p.worker;
        r.count(&format!("sched.w{w}.comps"), p.comps);
        r.count(&format!("sched.w{w}.steals"), p.steals);
        r.count(&format!("sched.w{w}.scan_misses"), p.scan_misses);
        r.insert_histogram(&format!("sched.w{w}.steal_batch"), &p.steal_batch.to_histogram());
        r.insert_histogram(&format!("sched.w{w}.steal_scan"), &p.steal_scan.to_histogram());
        r.insert_histogram(&format!("sched.w{w}.idle_wait_ns"), &p.idle_wait_ns.to_histogram());
        r.insert_histogram("sched.steal_batch", &p.steal_batch.to_histogram());
        r.insert_histogram("sched.steal_scan", &p.steal_scan.to_histogram());
        r.insert_histogram("sched.idle_wait_ns", &p.idle_wait_ns.to_histogram());
    }
    r.gauge("phase.classify.wall_us", stats.classify_time.as_micros() as i64);
    r.gauge("phase.analyze.wall_us", stats.analyze_time.as_micros() as i64);
    r
}

/// Folds the degradation census into `registry` as `degrade.<reason>`
/// counters (one per [`crate::budget::DegradeReason`] label present).
pub fn record_degradations<'a>(
    registry: &mut Registry,
    degraded: impl IntoIterator<Item = &'a Degradation>,
) {
    for d in degraded {
        registry.count(&format!("degrade.{}", d.reason.label()), 1);
    }
}

/// Folds a drained trace into `registry`: per-kind span counts
/// (`trace.<kind>.count`), per-kind duration histograms
/// (`trace.<kind>.dur_ns`), and the drop counter (`trace.dropped`).
pub fn record_trace(registry: &mut Registry, trace: &Trace) {
    for e in &trace.events {
        registry.count(&format!("trace.{}.count", e.kind.label()), 1);
        if !e.instant {
            registry.observe(&format!("trace.{}.dur_ns", e.kind.label()), e.dur_ns);
        }
    }
    if trace.dropped > 0 {
        registry.count("trace.dropped", trace.dropped);
    }
}

/// One-call convenience: stats + degradations of a finished run.
#[must_use]
pub fn registry_from_result(result: &AnalysisResult) -> Registry {
    let mut r = registry_from_stats(&result.stats);
    record_degradations(&mut r, result.degraded.values());
    r
}

/// Parses the `name` of a `Degrade` trace event back into its
/// `(reason-label, function)` parts (the inverse of the
/// `<reason>:<function>` naming used when the event is emitted). Returns
/// `None` for names that are not of that shape.
#[must_use]
pub fn split_degrade_name(name: &str) -> Option<(&str, &str)> {
    name.split_once(':')
}

/// Census of `Degrade` events in a trace, keyed by function name →
/// reason label. Each function appears once (the driver emits exactly
/// one event per degradation record), so this is directly comparable to
/// [`AnalysisResult::degraded`].
#[must_use]
pub fn degrade_census(trace: &Trace) -> BTreeMap<String, String> {
    let mut out = BTreeMap::new();
    for e in &trace.events {
        if e.kind == SpanKind::Degrade {
            if let Some((reason, func)) = split_degrade_name(&e.name) {
                out.insert(func.to_owned(), reason.to_owned());
            }
        }
    }
    out
}

/// Parses trace JSONL (the [`Trace::to_jsonl`] format, the `<path>.jsonl`
/// sidecar of `rid analyze --trace <path>`) back into events, e.g. for
/// `rid-bench profile --trace-file`. Unknown or malformed lines (a newer
/// schema's span kind) are skipped, not errors, so an older reader can
/// still profile a newer writer's trace.
#[must_use]
pub fn parse_trace_jsonl(text: &str) -> Vec<rid_obs::TraceEvent> {
    let mut events = Vec::new();
    for line in text.lines() {
        if line.trim().is_empty() {
            continue;
        }
        let Ok(v) = serde_json::from_str::<serde_json::Value>(line) else { continue };
        let Some(kind) = v["kind"].as_str().and_then(rid_obs::SpanKind::from_label) else {
            continue;
        };
        events.push(rid_obs::TraceEvent {
            kind,
            name: v["name"].as_str().unwrap_or_default().to_owned(),
            thread: v["thread"].as_u64().unwrap_or(0) as usize,
            seq: v["seq"].as_u64().unwrap_or(0),
            start_ns: v["start_ns"].as_u64().unwrap_or(0),
            dur_ns: v["dur_ns"].as_u64().unwrap_or(0),
            instant: v["ph"].as_str() == Some("instant"),
            value: v["value"].as_u64().unwrap_or(0),
        });
    }
    events
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::budget::{DegradeReason, FunctionCost};

    #[test]
    fn stats_snapshot_uses_stable_names() {
        let stats = AnalysisStats {
            functions_total: 10,
            functions_analyzed: 4,
            sat_queries: 100,
            sat_sat: 70,
            sat_unsat: 30,
            cache_hits: 2,
            steals: 3,
            queue_depth_max: 5,
            ..AnalysisStats::default()
        };
        let r = registry_from_stats(&stats);
        assert_eq!(r.counter("funcs.total"), 10);
        assert_eq!(r.counter("sat.queries"), 100);
        assert_eq!(r.counter("sat.sat") + r.counter("sat.unsat"), 100);
        assert_eq!(r.counter("sched.steals"), 3);
        assert_eq!(r.gauge_value("sched.queue_depth_max"), Some(5));
        let json = r.to_json();
        assert!(json.contains("\"cache.hits\":2"));
    }

    #[test]
    fn degradations_count_by_reason() {
        let mut r = Registry::new();
        let d = |reason| Degradation { reason, cost: FunctionCost::default() };
        record_degradations(
            &mut r,
            [&d(DegradeReason::Deadline), &d(DegradeReason::Deadline), &d(DegradeReason::Panic)],
        );
        assert_eq!(r.counter("degrade.deadline"), 2);
        assert_eq!(r.counter("degrade.panic"), 1);
    }

    #[test]
    fn degrade_name_round_trips() {
        assert_eq!(split_degrade_name("deadline:foo"), Some(("deadline", "foo")));
        assert_eq!(split_degrade_name("noseparator"), None);
    }
}
