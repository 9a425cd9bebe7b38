//! Observability acceptance suite: the golden span sequence of a seeded
//! run, Chrome `trace_event` schema validity, span-kind coverage, and
//! agreement between the driver's degradation census and the `degrade`
//! events in the trace.
//!
//! Tracing state is process-global (enable/disable plus a shared sink),
//! so every test here serializes on one mutex and this file contains
//! *only* tracing tests — an unrelated test running analysis concurrently
//! in the same binary would leak its spans into our drains.

use std::collections::BTreeSet;
use std::sync::{Mutex, MutexGuard};

use rid::core::apis::linux_dpm_apis;
use rid::core::{
    analyze_program_cached, analyze_program_with_faults, degrade_census, AnalysisOptions,
    FaultPlan, SummaryCache,
};
use rid::obs::{trace, SpanKind};

fn lock() -> MutexGuard<'static, ()> {
    static GUARD: Mutex<()> = Mutex::new(());
    // A panicking test poisons the mutex but leaves the global tracing
    // state reusable (each test re-enables from scratch).
    GUARD.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

const GOLDEN_SRC: &str = r#"module golden;
fn golden_leaf(dev) {
    let ret = pm_runtime_get_sync(dev);
    if (ret < 0) { return ret; }
    ret = random;
    pm_runtime_put_sync(dev);
    return ret;
}
fn golden_top(dev) {
    let r = golden_leaf(dev);
    return r;
}"#;

/// One traced cold-cache run of [`GOLDEN_SRC`]; parsing happens inside
/// the enabled window so the `lower` span is captured.
fn golden_run(threads: usize) -> (rid::core::AnalysisResult, trace::Trace) {
    trace::enable(trace::DEFAULT_CAPACITY);
    let program = rid::frontend::parse_program([GOLDEN_SRC]).unwrap();
    let mut cache = SummaryCache::new();
    let result = analyze_program_cached(
        &program,
        &linux_dpm_apis(),
        &AnalysisOptions { threads, ..AnalysisOptions::default() },
        &FaultPlan::none(),
        Some(&mut cache),
    );
    trace::disable();
    (result, trace::drain())
}

/// The byte-exact normalized JSONL of a single-threaded cold run: every
/// span the pipeline emits for the two-function corpus, in order. A
/// diff here means the instrumentation moved — rebaseline deliberately,
/// not accidentally (timestamps and thread ids are already normalized
/// out, so only real pipeline changes can break it). The trailing
/// `refute` span is the second-stage pass re-judging the leaf's report
/// (value 1 = confirmed: the joint constraints are genuinely
/// satisfiable, so the report survives).
const GOLDEN_JSONL: &str = r#"{"seq":0,"kind":"lower","name":"module","ph":"span","thread":0,"start_ns":0,"dur_ns":0,"value":2}
{"seq":1,"kind":"cache-lookup","name":"golden_leaf","ph":"span","thread":0,"start_ns":1,"dur_ns":0,"value":0}
{"seq":2,"kind":"exec","name":"golden_leaf","ph":"span","thread":0,"start_ns":2,"dur_ns":0,"value":2}
{"seq":3,"kind":"enumerate","name":"golden_leaf","ph":"span","thread":0,"start_ns":3,"dur_ns":0,"value":2}
{"seq":4,"kind":"solve","name":"golden_leaf","ph":"span","thread":0,"start_ns":4,"dur_ns":0,"value":1}
{"seq":5,"kind":"solve","name":"golden_leaf","ph":"span","thread":0,"start_ns":5,"dur_ns":0,"value":1}
{"seq":6,"kind":"solve","name":"golden_leaf","ph":"span","thread":0,"start_ns":6,"dur_ns":0,"value":1}
{"seq":7,"kind":"ipp-check","name":"golden_leaf","ph":"span","thread":0,"start_ns":7,"dur_ns":0,"value":0}
{"seq":8,"kind":"cache-lookup","name":"golden_top","ph":"span","thread":0,"start_ns":8,"dur_ns":0,"value":0}
{"seq":9,"kind":"exec","name":"golden_top","ph":"span","thread":0,"start_ns":9,"dur_ns":0,"value":1}
{"seq":10,"kind":"enumerate","name":"golden_top","ph":"span","thread":0,"start_ns":10,"dur_ns":0,"value":1}
{"seq":11,"kind":"solve","name":"golden_top","ph":"span","thread":0,"start_ns":11,"dur_ns":0,"value":1}
{"seq":12,"kind":"solve","name":"golden_top","ph":"span","thread":0,"start_ns":12,"dur_ns":0,"value":1}
{"seq":13,"kind":"ipp-check","name":"golden_top","ph":"span","thread":0,"start_ns":13,"dur_ns":0,"value":0}
{"seq":14,"kind":"refute","name":"golden_leaf","ph":"span","thread":0,"start_ns":14,"dur_ns":0,"value":1}
"#;

#[test]
fn golden_normalized_span_sequence_is_stable() {
    let _guard = lock();
    let (result, first) = golden_run(1);
    assert_eq!(result.reports.len(), 1, "the leaf carries the Figure 8 bug");
    assert_eq!(first.dropped, 0);
    assert_eq!(first.to_jsonl_normalized(), GOLDEN_JSONL);

    // And byte-stable run to run, not just against the snapshot.
    let (_, second) = golden_run(1);
    assert_eq!(second.to_jsonl_normalized(), GOLDEN_JSONL);
}

#[test]
fn chrome_trace_is_valid_and_covers_all_span_kinds() {
    let _guard = lock();
    // Two workers, so the spans come from the parallel pool; the cold
    // cache probes emit `cache-lookup`, which covers all six pipeline
    // span kinds.
    let (_, trace) = golden_run(2);

    let pipeline_kinds = [
        SpanKind::Lower,
        SpanKind::Enumerate,
        SpanKind::Exec,
        SpanKind::Solve,
        SpanKind::IppCheck,
        SpanKind::CacheLookup,
    ];
    for kind in pipeline_kinds {
        assert!(
            trace.count_kind(kind) > 0,
            "span kind `{}` missing from a threads=2 cold-cache run",
            kind.label()
        );
    }

    // The Chrome export is real JSON with the trace_event fields that
    // chrome://tracing / Perfetto require, one event per trace event.
    let json: serde_json::Value = serde_json::from_str(&trace.to_chrome_json())
        .expect("chrome export must be valid JSON");
    let events = json["traceEvents"].as_array().expect("traceEvents array");
    assert_eq!(events.len(), trace.events.len());
    let labels: BTreeSet<&str> = SpanKind::all().iter().map(|k| k.label()).collect();
    let is_number =
        |v: &serde_json::Value| matches!(v, serde_json::Value::Int(_) | serde_json::Value::Float(_));
    for e in events {
        assert!(e["name"].as_str().is_some(), "missing name: {e:?}");
        assert!(labels.contains(e["cat"].as_str().expect("cat")), "bad cat: {e:?}");
        let ph = e["ph"].as_str().expect("ph");
        assert!(ph == "X" || ph == "i", "unexpected phase `{ph}`: {e:?}");
        assert!(is_number(&e["ts"]), "missing ts: {e:?}");
        assert_eq!(e["pid"].as_i64(), Some(1), "missing pid: {e:?}");
        assert!(is_number(&e["tid"]), "missing tid: {e:?}");
        if ph == "X" {
            assert!(is_number(&e["dur"]), "complete event without dur: {e:?}");
        }
    }
}

#[test]
fn degrade_events_agree_with_the_faults_census() {
    let _guard = lock();
    let src = r#"module m;
        fn boom(dev) { pm_runtime_get_sync(dev); pm_runtime_put(dev); return 0; }
        fn sleepy(dev) { pm_runtime_get_sync(dev); pm_runtime_put(dev); return 0; }
        fn fine(dev) { pm_runtime_get_sync(dev); pm_runtime_put(dev); return 0; }"#;
    let program = rid::frontend::parse_program([src]).unwrap();
    // Two different degradation reasons in one run: `boom` panics on both
    // attempts (degrades with Panic), `sleepy` blows its deadline
    // (degrades with Deadline); `fine` is untouched.
    let plan = FaultPlan {
        panic_functions: vec!["boom".into()],
        panic_twice: true,
        slow_functions: vec!["sleepy".into()],
        slow_ms: 60,
        ..FaultPlan::none()
    };
    let options = AnalysisOptions {
        threads: 1,
        budget: rid::core::Budget {
            func_deadline: Some(std::time::Duration::from_millis(20)),
            ..rid::core::Budget::unlimited()
        },
        ..AnalysisOptions::default()
    };

    trace::enable(trace::DEFAULT_CAPACITY);
    let result = analyze_program_with_faults(&program, &linux_dpm_apis(), &options, &plan);
    trace::disable();
    let trace = trace::drain();

    // Injected faults leave instant events...
    assert!(
        trace.events.iter().any(|e| e.kind == SpanKind::Fault && e.name == "panic:boom"),
        "injected panic must appear as a fault event"
    );

    // ...and the census reconstructed from `degrade` events matches the
    // driver's own degradation map exactly: same functions, same reasons.
    let census = degrade_census(&trace);
    assert!(result.degraded.len() >= 2, "both faulted functions must degrade");
    assert_eq!(census.len(), result.degraded.len());
    for (func, record) in &result.degraded {
        assert_eq!(
            census.get(func).map(String::as_str),
            Some(record.reason.label()),
            "trace and driver disagree about `{func}`"
        );
    }
    assert!(!census.contains_key("fine"), "untouched function must not degrade");
}
