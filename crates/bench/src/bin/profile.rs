//! `profile` — where does the analysis spend its time?
//!
//! Runs the seeded kernel corpus once with rid-obs tracing enabled, then
//! aggregates the drained trace into three tables:
//!
//! 1. **hottest functions** — per-function `exec` span totals with solver
//!    and enumeration time attributed as children (the naming convention
//!    of [`rid_obs::self_times`]), ranked by self time;
//! 2. **path explosion** — the worst `enumerate` offenders by structural
//!    path count (the payload of the enumerate span);
//! 3. the full **metrics registry** built from the run's
//!    [`rid_core::AnalysisStats`] plus per-kind trace durations.
//!
//! ```text
//! cargo run -p rid-bench --release --bin profile -- \
//!     [--seed N] [--threads N] [--scale F] [--top N] [--trace-file path.jsonl]
//! ```
//!
//! With `--trace-file <path.jsonl>` the binary profiles a *daemon*
//! trace instead of running its own corpus: the JSONL flushed by
//! `rid analyze --trace` (the `.jsonl` sidecar) is parsed back into
//! events and aggregated over the serve span kinds — per-request
//! `serve` spans plus the durability kinds (`snapshot`, `restore`,
//! `journal-replay`).
//!
//! Unlike `perf` this binary makes no timing claims and writes no
//! baseline — it is the interactive "why is this slow?" entry point
//! (see README, "Profiling a run"). For machine-readable artifacts use
//! `rid analyze --trace/--metrics`.

use rid_bench::format_table;
use rid_core::AnalysisOptions;
use rid_corpus::kernel::{generate_kernel, KernelConfig};
use rid_obs::SpanKind;

#[path = "../args.rs"]
mod args;

fn ms(ns: u64) -> String {
    format!("{:.3}ms", ns as f64 / 1e6)
}

/// `--trace-file` mode: aggregate a flushed trace over the serve span
/// kinds. Requests (`serve` spans, named `<op>:<project>`) rank by
/// total time; the durability kinds get one per-kind summary row each.
fn profile_trace_file(path: &str, top: usize) {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("--trace-file: {path}: {e}"));
    let trace = rid_obs::Trace { events: rid_core::parse_trace_jsonl(&text), dropped: 0 };
    assert!(!trace.events.is_empty(), "--trace-file: {path}: no recognizable trace events");
    println!("profile of {path}: {} trace event(s)", trace.events.len());
    println!();

    let requests = rid_obs::self_times(&trace, SpanKind::Serve, &[]);
    if !requests.is_empty() {
        let shown = requests.len().min(top);
        println!("daemon requests by total time ({shown} of {}):", requests.len());
        let rows: Vec<Vec<String>> = requests
            .iter()
            .take(top)
            .map(|p| {
                vec![
                    p.name.clone(),
                    p.count.to_string(),
                    ms(p.total_ns),
                    ms(p.total_ns / p.count.max(1)),
                ]
            })
            .collect();
        println!("{}", format_table(&["request", "count", "total", "mean"], &rows));
        println!();
    }

    // Durability kinds: snapshot/restore carry bytes in the value
    // payload, journal replay carries the replayed-entry count.
    let durability = [SpanKind::Snapshot, SpanKind::Restore, SpanKind::JournalReplay];
    let rows: Vec<Vec<String>> = durability
        .into_iter()
        .filter_map(|kind| {
            let spans: Vec<_> =
                trace.events.iter().filter(|e| e.kind == kind && !e.instant).collect();
            if spans.is_empty() {
                return None;
            }
            let total: u64 = spans.iter().map(|e| e.dur_ns).sum();
            let max = spans.iter().map(|e| e.dur_ns).max().unwrap_or(0);
            let value: u64 = spans.iter().map(|e| e.value).sum();
            Some(vec![
                kind.label().to_owned(),
                spans.len().to_string(),
                ms(total),
                ms(max),
                value.to_string(),
            ])
        })
        .collect();
    if !rows.is_empty() {
        println!("durability phases:");
        println!(
            "{}",
            format_table(&["phase", "count", "total", "max", "bytes/entries"], &rows)
        );
        println!();
    }

    let mut registry = rid_obs::Registry::new();
    rid_core::record_trace(&mut registry, &trace);
    println!("metrics:");
    println!("{}", registry.render_table());
}

fn main() {
    let seed: u64 = args::flag("seed").unwrap_or(2016);
    let threads: usize = args::flag("threads").unwrap_or(1);
    let scale: f64 = args::flag("scale").unwrap_or(0.25);
    let top: usize = args::flag("top").unwrap_or(15);
    if let Some(path) = args::flag::<String>("trace-file") {
        return profile_trace_file(&path, top);
    }

    let config = KernelConfig::evaluation(seed).scaled(scale);
    eprintln!("scale {scale}: generating...");
    let corpus = generate_kernel(&config);

    // Enable before parsing so the frontend's `lower` spans are captured.
    rid_obs::trace::enable(rid_obs::trace::DEFAULT_CAPACITY);
    let program = rid_frontend::parse_program(corpus.sources.iter().map(String::as_str))
        .expect("corpus must parse");
    let options = AnalysisOptions { threads, ..Default::default() };
    let result =
        rid_core::analyze_program(&program, &rid_core::apis::linux_dpm_apis(), &options);
    rid_obs::trace::disable();
    let trace = rid_obs::drain();

    println!(
        "profile: {} function(s), {} analyzed, {} report(s); {} trace event(s) ({} dropped)",
        program.function_count(),
        result.stats.functions_analyzed,
        result.reports.len(),
        trace.events.len(),
        trace.dropped
    );
    println!();

    // 1. Hottest functions by self time. Solver and enumeration spans
    //    carry the enclosing function's name, so per-name subtraction
    //    yields the executor's own share.
    let profiles =
        rid_obs::self_times(&trace, SpanKind::Exec, &[SpanKind::Solve, SpanKind::Enumerate]);
    let shown = profiles.len().min(top);
    println!("hottest functions by self time ({} of {}):", shown, profiles.len());
    let rows: Vec<Vec<String>> = profiles
        .iter()
        .take(top)
        .map(|p| {
            vec![
                p.name.clone(),
                p.count.to_string(),
                ms(p.total_ns),
                ms(p.child_ns),
                ms(p.self_ns),
            ]
        })
        .collect();
    println!(
        "{}",
        format_table(&["function", "execs", "total", "solve+enum", "self"], &rows)
    );
    println!();

    // 2. Path explosion: largest structural path count per function.
    let explosions = rid_obs::max_value_by_name(&trace, SpanKind::Enumerate);
    let shown = explosions.len().min(top);
    println!("worst path explosion ({} of {}):", shown, explosions.len());
    let rows: Vec<Vec<String>> = explosions
        .iter()
        .take(top)
        .map(|(name, paths)| vec![name.clone(), paths.to_string()])
        .collect();
    println!("{}", format_table(&["function", "paths"], &rows));
    println!();

    // 3. Scheduler balance: what each worker did and what it cost to
    //    keep it fed (empty on 1-thread runs — the sequential fast path
    //    never spins workers up).
    if !result.stats.worker_profiles.is_empty() {
        println!("scheduler workers ({} thread(s)):", threads);
        let rows: Vec<Vec<String>> = result
            .stats
            .worker_profiles
            .iter()
            .map(|p| {
                let mean_batch = if p.steals > 0 {
                    format!("{:.1}", p.steal_batch.sum as f64 / p.steals as f64)
                } else {
                    "-".to_owned()
                };
                vec![
                    format!("w{}", p.worker),
                    p.comps.to_string(),
                    p.steals.to_string(),
                    mean_batch,
                    p.scan_misses.to_string(),
                    ms(p.idle_wait_ns.sum),
                    ms(p.idle_wait_ns.max),
                ]
            })
            .collect();
        println!(
            "{}",
            format_table(
                &["worker", "comps", "steals", "mean batch", "scan misses", "idle", "idle max"],
                &rows
            )
        );
        println!();
    }

    // 4. The full registry, stats + per-kind trace histograms.
    let mut registry = rid_core::registry_from_result(&result);
    rid_core::record_trace(&mut registry, &trace);
    println!("metrics:");
    println!("{}", registry.render_table());
}
