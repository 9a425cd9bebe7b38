//! Incremental re-analysis (`reanalyze_with_plan`, the daemon's `patch`
//! path) against a fresh full analysis of the post-edit program, patch
//! after patch on a seeded corpus.
//!
//! Carried-over reports keep the refutation verdict they already have
//! instead of being judged again. That is exact because the affected
//! cone is closed under callers, so after every patch the reports (with
//! their provenance and verdicts), the report hashes and the three
//! refutation counters must equal a full run's, and the `Refute` spans
//! of the patch must cover only the re-analyzed functions' reports.
//!
//! Tracing state is process-global, so every test here serializes on one
//! mutex (like `tests/obs.rs`).

use std::collections::BTreeSet;
use std::sync::{Mutex, MutexGuard};

use rid::core::apis::linux_dpm_apis;
use rid::core::incremental::{reanalyze_with_plan, CallerIndex};
use rid::core::{analyze_program, report_hash, AnalysisOptions, AnalysisResult};
use rid::obs::{trace, SpanKind};

fn lock() -> MutexGuard<'static, ()> {
    static GUARD: Mutex<()> = Mutex::new(());
    GUARD.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// A caller of `later`, which no module defines yet. While `later` is
/// unresolved its return value is opaque, so the two paths are
/// indistinguishable and `uses_later` is reported.
const LATER_USER: &str = "module later_user;
fn uses_later(dev) {
    let r = later(dev);
    if (r != 0) {
        pm_runtime_get_sync(dev);
    }
    return 0;
}
";

/// Defines `later`: its summary makes the `r != 0` path infeasible and
/// clears `uses_later`'s report.
const LATER_DEF: &str = "module later_def;
fn later(dev) {
    return 0;
}
";

/// Inserts a dead local at the top of `function`'s body: the lowered IR,
/// and so the content hash, changes; the behaviour does not.
fn touch(sources: &mut [String], function: &str) {
    let header = format!("fn {function}(");
    let source = sources
        .iter_mut()
        .find(|s| s.contains(&header))
        .unwrap_or_else(|| panic!("no module defines `{function}`"));
    let at = source.find(&header).unwrap();
    let body = at + source[at..].find('{').unwrap() + 1;
    source.insert_str(body, "\n    let edit_mark = 0;");
}

fn counters(result: &AnalysisResult) -> (usize, usize, usize) {
    let s = &result.stats;
    (s.reports_confirmed, s.reports_refuted, s.reports_inconclusive)
}

/// Applies one patch incrementally and checks it against a full run.
/// Returns the new resident result.
fn patch(
    sources: &[String],
    previous: AnalysisResult,
    changed: &[&str],
    options: &AnalysisOptions,
) -> AnalysisResult {
    let apis = linux_dpm_apis();
    let program = rid::frontend::parse_program(sources.iter().map(String::as_str)).unwrap();
    let plan = CallerIndex::build(&program).plan(&program, changed);

    trace::enable(trace::DEFAULT_CAPACITY);
    let incremental = reanalyze_with_plan(&program, &apis, previous, changed, options, &plan);
    trace::disable();
    let trace = trace::drain();

    let full = analyze_program(&program, &apis, options);
    let stage_one =
        analyze_program(&program, &apis, &AnalysisOptions { refute: false, ..*options });

    // Reports with their provenance (verdicts included), byte for byte.
    assert_eq!(
        serde_json::to_string(&incremental.reports).unwrap(),
        serde_json::to_string(&full.reports).unwrap(),
        "patch {changed:?}: reports differ from a full run"
    );
    let hashes = |r: &AnalysisResult| r.reports.iter().map(report_hash).collect::<Vec<_>>();
    assert_eq!(hashes(&incremental), hashes(&full));
    assert_eq!(counters(&incremental), counters(&full), "patch {changed:?}: counters");

    // Census: the patch judged exactly the stage-one reports of the
    // re-analyzed functions, and nothing it carried over.
    let judged: Vec<&str> = trace
        .events
        .iter()
        .filter(|e| e.kind == SpanKind::Refute)
        .map(|e| e.name.as_str())
        .collect();
    let reanalyzed: BTreeSet<&str> = plan.order.iter().map(String::as_str).collect();
    assert!(
        judged.iter().all(|name| reanalyzed.contains(name)),
        "patch {changed:?} judged carried-over reports: {judged:?}"
    );
    let cone_stage_one =
        stage_one.reports.iter().filter(|r| reanalyzed.contains(r.function.as_str())).count();
    assert_eq!(judged.len(), cone_stage_one, "patch {changed:?}: one judgement per new report");
    assert!(judged.len() < stage_one.reports.len(), "a full pass would judge every report");
    incremental
}

#[test]
fn patched_results_carry_verdicts_and_equal_a_full_run() {
    let _g = lock();
    let mut config = rid::corpus::KernelConfig::tiny(5);
    config.seeded_spurious = 4;
    let corpus = rid::corpus::kernel::generate_kernel(&config);
    let options = AnalysisOptions::default();
    let mut sources = corpus.sources.clone();
    let program = rid::frontend::parse_program(sources.iter().map(String::as_str)).unwrap();
    let mut resident = analyze_program(&program, &linux_dpm_apis(), &options);
    assert_eq!(resident.stats.reports_refuted, 4, "every seeded-spurious report is refuted");
    let spurious: BTreeSet<&str> = corpus.spurious_functions.iter().map(String::as_str).collect();

    // 1. A one-function edit of a reported (confirmed) function.
    let reported = resident
        .reports
        .iter()
        .map(|r| r.function.clone())
        .find(|f| !spurious.contains(f.as_str()))
        .expect("the corpus has true reports");
    touch(&mut sources, &reported);
    resident = patch(&sources, resident, &[&reported], &options);
    assert_eq!(resident.stats.reports_refuted, 4, "carried refutations still count");

    // 2. An edit of a seeded-spurious function: judged again, refuted again.
    let spur = corpus.spurious_functions[0].as_str();
    touch(&mut sources, spur);
    resident = patch(&sources, resident, &[spur], &options);
    assert!(resident.reports.iter().all(|r| !spurious.contains(r.function.as_str())));

    // 3. A new function whose callee `later` is still unresolved.
    sources.push(LATER_USER.to_owned());
    resident = patch(&sources, resident, &["uses_later"], &options);
    assert!(resident.reports.iter().any(|r| r.function == "uses_later"));

    // 4. Defining `later` re-analyzes its caller, whose report goes.
    sources.push(LATER_DEF.to_owned());
    resident = patch(&sources, resident, &["later"], &options);
    assert!(resident.reports.iter().all(|r| r.function != "uses_later"));
}
