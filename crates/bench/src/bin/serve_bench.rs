//! Cold-vs-warm-vs-daemon latency for the `rid serve` tentpole claim:
//! once a project is resident in the daemon, a one-function `patch`
//! round-trip must be much cheaper than a cold `rid analyze` of the
//! same corpus, because only the affected-function cone re-executes.
//!
//! Three configurations over the seeded evaluation corpus:
//!
//! - **cold** — what a one-shot `rid analyze` pays: parse the whole
//!   corpus and analyze it with an empty cache.
//! - **warm** — a resident daemon's `analyze` of the unchanged corpus:
//!   no re-parse, every summary answered by the cache.
//! - **patch** — the daemon round-trip for an edit to one function:
//!   request parse, re-parse of the one changed module, in-place relink,
//!   affected-set computation, incremental re-analysis of just that
//!   cone (previous summaries reused), response serialization. Two
//!   function variants alternate so every timed patch is a real change,
//!   never a no-op.
//! - **restore** — crash-safe startup: [`Engine::recover`] loading the
//!   snapshotted corpus (binary module codec + summary cache + last
//!   result) from `--state-dir`, measured in a separate daemon phase so
//!   journaling never taxes the warm/patch paths above. The crash-safety
//!   claim is that restore costs a fraction of the cold analyze it
//!   replaces.
//!
//! - **open loop** — tail latency under concurrent load: a real
//!   `serve_unix` daemon on a Unix socket, N client connections, and a
//!   fixed arrival schedule (requests fire at `epoch + k/rate` whether
//!   or not earlier ones finished, so daemon queueing delay lands in
//!   the measured latency instead of silently throttling the
//!   generator). Alternating one-function patches are the probe; the
//!   p50/p99/p999 of the per-request latency distribution are the
//!   daemon's SLO numbers.
//!
//! The record is patched into the `serve` slot of `BENCH_perf.json`
//! (schema `rid-bench-perf/v10`, written by the `perf` binary) so CI
//! validates both sections together; `--out` overrides the path.
//!
//! ```text
//! cargo run -p rid-bench --release --bin serve_bench -- \
//!     [--seed N] [--scale F] [--iters N] [--out PATH]
//!     [--conns N] [--rate RPS] [--requests N]
//! ```

use std::time::Instant;

use rid_core::AnalysisOptions;
use rid_corpus::kernel::{generate_kernel, KernelConfig};
use rid_serve::{Engine, Request, ServerConfig};
use serde_json::Value;

#[path = "../args.rs"]
mod args;

/// The two alternating bodies of the benchmark's synthetic edit. Both
/// are clean (no IPP), structurally different, and call nothing, so the
/// affected set is exactly the edited function.
const PROBE_A: &str =
    "\nfn __bench_probe(dev) { pm_runtime_get_sync(dev); pm_runtime_put(dev); return 0; }\n";
const PROBE_B: &str = "\nfn __bench_probe(dev) { let r = pm_runtime_get_sync(dev); \
     if (r < 0) { pm_runtime_put_noidle(dev); return r; } pm_runtime_put(dev); return 0; }\n";

fn response_value(replies: &[((), String)]) -> Value {
    assert_eq!(replies.len(), 1, "exactly one response expected");
    let value: Value = serde_json::from_str(&replies[0].1).expect("response parses");
    assert_eq!(value["ok"].as_bool(), Some(true), "daemon errored: {}", replies[0].1);
    value
}

/// The `q`-quantile of a sorted latency sample (nearest-rank method —
/// the same approximation contract as the daemon's log2 histograms).
fn quantile_us(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((sorted.len() as f64 * q).ceil() as usize).max(1);
    sorted[rank.min(sorted.len()) - 1]
}

/// Open-loop tail-latency phase: a real Unix-socket daemon, `conns`
/// client connections, and `total` one-function patches fired on a
/// fixed `rate` requests/second schedule. Latency is measured from the
/// *scheduled* arrival, so when the daemon falls behind the queueing
/// delay is charged to the requests that suffered it.
#[cfg(unix)]
fn open_loop_phase(
    sources: &[(String, String)],
    conns: usize,
    rate: f64,
    total: usize,
) -> Value {
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::time::Duration;

    use rid_serve::Client;

    let socket =
        std::env::temp_dir().join(format!("rid-serve-bench-{}.sock", std::process::id()));
    let _ = std::fs::remove_file(&socket);
    let server = {
        let socket = socket.clone();
        std::thread::spawn(move || rid_serve::serve_unix(&socket, ServerConfig::default()))
    };
    for _ in 0..200 {
        if socket.exists() {
            break;
        }
        std::thread::sleep(Duration::from_millis(10));
    }

    // Make the project resident (untimed daemon startup cost).
    let mut control = Client::connect(&socket).expect("daemon reachable");
    let mut register = Request::new(1, "register", "bench");
    register.sources = sources.iter().cloned().collect();
    let reply = control.request(&register).expect("register");
    assert!(reply.contains("\"ok\":true"), "register failed: {reply}");
    let reply = control.request(&Request::new(2, "analyze", "bench")).expect("analyze");
    assert!(reply.contains("\"ok\":true"), "analyze failed: {reply}");

    let base_module = &sources[0];
    let errors = AtomicUsize::new(0);
    let bench_start = Instant::now();
    // Arrival k is due at `epoch + k/rate`; connection t owns arrivals
    // k ≡ t (mod conns). The schedule is fixed up front — a slow
    // response never delays the next arrival beyond its own connection.
    let epoch = Instant::now();
    let mut latencies: Vec<u64> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..conns)
            .map(|t| {
                let socket = &socket;
                let errors = &errors;
                scope.spawn(move || {
                    let mut client = Client::connect(socket).expect("daemon reachable");
                    let mut samples = Vec::new();
                    let mut k = t;
                    while k < total {
                        let due = epoch + Duration::from_secs_f64(k as f64 / rate);
                        if let Some(wait) = due.checked_duration_since(Instant::now()) {
                            std::thread::sleep(wait);
                        }
                        let body = if k % 2 == 0 { PROBE_B } else { PROBE_A };
                        let mut request =
                            Request::new(1000 + k as u64, "patch", "bench");
                        request
                            .sources
                            .insert(base_module.0.clone(), format!("{}{body}", base_module.1));
                        match client.request(&request) {
                            Ok(reply) if reply.contains("\"ok\":true") => {
                                samples.push(due.elapsed().as_micros() as u64);
                            }
                            _ => {
                                errors.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                        k += conns;
                    }
                    samples
                })
            })
            .collect();
        handles.into_iter().flat_map(|h| h.join().expect("client thread")).collect()
    });
    let duration_s = bench_start.elapsed().as_secs_f64();
    let _ = control.request(&Request::new(9999, "shutdown", ""));
    server.join().expect("server thread").expect("daemon exits cleanly");
    let _ = std::fs::remove_file(&socket);

    assert_eq!(errors.load(Ordering::Relaxed), 0, "open-loop requests errored");
    latencies.sort_unstable();
    let (p50, p99, p999) = (
        quantile_us(&latencies, 0.50),
        quantile_us(&latencies, 0.99),
        quantile_us(&latencies, 0.999),
    );
    let max_us = latencies.last().copied().unwrap_or(0);
    let achieved_rps = latencies.len() as f64 / duration_s.max(1e-9);
    println!(
        "  open loop     : {} req over {conns} conn(s) at {rate:.0} rps \
         (achieved {achieved_rps:.0}): p50 {p50}us  p99 {p99}us  p999 {p999}us  max {max_us}us",
        latencies.len()
    );
    serde_json::json!({
        "conns": conns,
        "rate_rps": rate,
        "requests": latencies.len(),
        "duration_s": duration_s,
        "achieved_rps": achieved_rps,
        "p50_us": p50,
        "p99_us": p99,
        "p999_us": p999,
        "max_us": max_us,
    })
}

#[cfg(not(unix))]
fn open_loop_phase(_: &[(String, String)], _: usize, _: f64, _: usize) -> Value {
    serde_json::json!({ "skipped": "unix sockets unavailable" })
}

fn main() {
    let seed: u64 = args::flag("seed").unwrap_or(2016);
    let scale: f64 = args::flag("scale").unwrap_or(1.0);
    let iters: usize = args::flag("iters").unwrap_or(5);
    let out: String = args::flag("out").unwrap_or_else(|| "BENCH_perf.json".to_owned());
    let conns: usize = args::flag("conns").unwrap_or(4);
    let rate: f64 = args::flag("rate").unwrap_or(100.0);
    let requests: usize = args::flag("requests").unwrap_or(400);

    eprintln!("scale {scale}: generating...");
    let corpus = generate_kernel(&KernelConfig::evaluation(seed).scaled(scale));
    let sources: Vec<(String, String)> = corpus
        .sources
        .iter()
        .enumerate()
        .map(|(i, text)| (format!("module_{i:04}.ril"), text.clone()))
        .collect();

    // Cold: parse + analyze from scratch, the one-shot CLI cost.
    eprintln!("cold runs...");
    let apis = rid_core::apis::linux_dpm_apis();
    let options = AnalysisOptions::default();
    let mut cold_s = f64::INFINITY;
    let mut functions = 0;
    for _ in 0..iters.max(1) {
        let start = Instant::now();
        let program = rid_frontend::parse_program(sources.iter().map(|(_, s)| s.as_str()))
            .expect("corpus must parse");
        let result = rid_core::analyze_program(&program, &apis, &options);
        cold_s = cold_s.min(start.elapsed().as_secs_f64());
        functions = program.function_count();
        assert!(result.degraded.is_empty(), "cold run degraded — timings not comparable");
    }

    // Resident daemon: register + first analyze populate the cache
    // (untimed — that is the daemon's startup cost, paid once).
    eprintln!("daemon startup...");
    let mut engine: Engine<()> = Engine::new(ServerConfig::default());
    let mut register = Request::new(1, "register", "bench");
    register.sources = sources.iter().cloned().collect();
    response_value(&engine.handle_line((), &register.to_line()));
    let analyze = Request::new(2, "analyze", "bench");
    response_value(&engine.handle_line((), &analyze.to_line()));

    // Warm: the resident daemon re-analyzes the unchanged corpus. Only
    // the daemon's work (request parse → response line) is timed; this
    // harness's own parse of the response for validation is not part of
    // the daemon's latency.
    eprintln!("warm runs...");
    let mut warm_s = f64::INFINITY;
    for i in 0..iters.max(1) {
        let request = Request::new(10 + i as u64, "analyze", "bench");
        let line = request.to_line();
        let start = Instant::now();
        let replies = engine.handle_line((), &line);
        warm_s = warm_s.min(start.elapsed().as_secs_f64());
        let value = response_value(&replies);
        assert_eq!(value["result"]["cache"]["misses"].as_i64(), Some(0), "warm run missed");
    }

    // Patch: alternate the probe variants so each round-trip re-parses
    // the module and re-executes exactly the one changed function.
    eprintln!("patch runs...");
    let base_module = sources[0].1.clone();
    let mut patch_s = f64::INFINITY;
    let mut reexecuted = 0;
    let mut affected = 0;
    // Seed the probe function (untimed: its first appearance also
    // invalidates module 0's other functions' is-defined context; the
    // timed iterations below only ever change the probe body).
    let mut seed_patch = Request::new(100, "patch", "bench");
    seed_patch.sources.insert(sources[0].0.clone(), format!("{base_module}{PROBE_A}"));
    response_value(&engine.handle_line((), &seed_patch.to_line()));
    for i in 0..iters.max(1) * 2 {
        let body = if i % 2 == 0 { PROBE_B } else { PROBE_A };
        let mut request = Request::new(200 + i as u64, "patch", "bench");
        request.sources.insert(sources[0].0.clone(), format!("{base_module}{body}"));
        let line = request.to_line();
        let start = Instant::now();
        let replies = engine.handle_line((), &line);
        let elapsed = start.elapsed().as_secs_f64();
        let value = response_value(&replies);
        let changed = value["result"]["changed"].as_array().expect("changed list");
        assert_eq!(changed.len(), 1, "each patch changes exactly the probe");
        assert_eq!(changed[0].as_str(), Some("__bench_probe"));
        if elapsed < patch_s {
            patch_s = elapsed;
            reexecuted =
                value["result"]["reexecuted"].as_u64().expect("reexecuted count") as usize;
            affected = value["result"]["affected"].as_array().expect("affected list").len();
        }
    }

    // Restore: a *separate* durable daemon (journaled appends would tax
    // the timed patch round-trips above) snapshots the same resident
    // corpus, then crash-safe startup is timed from the snapshot files.
    eprintln!("restore runs...");
    let state_dir = std::env::temp_dir().join(format!("rid-serve-bench-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&state_dir);
    let durable = || ServerConfig {
        state_dir: Some(state_dir.clone()),
        ..ServerConfig::default()
    };
    let (snapshot_s, snapshot_bytes) = {
        let mut durable_engine: Engine<()> = Engine::recover(durable()).expect("state dir usable");
        let mut register = Request::new(1, "register", "bench");
        register.sources = sources.iter().cloned().collect();
        response_value(&durable_engine.handle_line((), &register.to_line()));
        response_value(&durable_engine.handle_line((), &Request::new(2, "analyze", "bench").to_line()));
        let line = Request::new(3, "snapshot", "bench").to_line();
        let start = Instant::now();
        let replies = durable_engine.handle_line((), &line);
        let snapshot_s = start.elapsed().as_secs_f64();
        let value = response_value(&replies);
        let bytes = value["result"]["bytes"].as_u64().expect("snapshot bytes") as usize;
        // Dropped without shutdown: the crash the restore recovers from.
        (snapshot_s, bytes)
    };
    let mut restore_s = f64::INFINITY;
    for _ in 0..iters.max(1) {
        let start = Instant::now();
        let mut restored: Engine<()> = Engine::recover(durable()).expect("restore succeeds");
        restore_s = restore_s.min(start.elapsed().as_secs_f64());
        let stats = response_value(&restored.handle_line((), &Request::new(4, "stats", "").to_line()));
        assert_eq!(
            stats["result"]["projects"]["bench"]["functions"].as_u64(),
            Some(functions as u64),
            "restore must bring back the whole corpus"
        );
    }
    let _ = std::fs::remove_dir_all(&state_dir);

    let patch_speedup = cold_s / patch_s.max(1e-9);
    let warm_speedup = cold_s / warm_s.max(1e-9);
    let restore_speedup = cold_s / restore_s.max(1e-9);
    println!(
        "serve latency (scale {scale}, {functions} functions, min of {} runs):",
        iters.max(1)
    );
    println!("  cold  analyze : {cold_s:.3}s   (one-shot parse + analyze)");
    println!("  daemon analyze: {warm_s:.3}s   ({warm_speedup:.1}x; cache-warm, no re-parse)");
    println!(
        "  daemon patch  : {patch_s:.3}s   ({patch_speedup:.1}x; {affected} affected, \
         {reexecuted} re-executed)"
    );
    println!(
        "  restore       : {restore_s:.3}s   ({restore_speedup:.1}x vs cold; \
         snapshot {snapshot_s:.3}s, {snapshot_bytes} bytes)"
    );

    eprintln!("open-loop runs...");
    let open_loop = open_loop_phase(&sources, conns, rate, requests);

    let record = serde_json::json!({
        "scale": scale,
        "functions": functions,
        "iters": iters,
        "cold_s": cold_s,
        "warm_s": warm_s,
        "patch_s": patch_s,
        "warm_speedup_vs_cold": warm_speedup,
        "patch_speedup_vs_cold": patch_speedup,
        "patch_affected": affected,
        "patch_reexecuted": reexecuted,
        "snapshot_s": snapshot_s,
        "snapshot_bytes": snapshot_bytes,
        "restore_s": restore_s,
        "restore_speedup_vs_cold": restore_speedup,
        "open_loop": open_loop,
    });

    // Patch the record into the baseline the `perf` binary maintains;
    // when the file does not exist yet (serve_bench run first), write a
    // minimal skeleton holding just the serve record.
    let baseline = std::fs::read_to_string(&out)
        .ok()
        .and_then(|text| serde_json::from_str::<Value>(&text).ok());
    let updated = match baseline {
        Some(Value::Map(mut pairs)) => {
            if let Some(slot) = pairs.iter_mut().find(|(k, _)| k == "serve") {
                slot.1 = record;
            } else {
                pairs.push(("serve".to_owned(), record));
            }
            if let Some(schema) = pairs.iter_mut().find(|(k, _)| k == "schema") {
                schema.1 = Value::Str("rid-bench-perf/v10".to_owned());
            }
            Value::Map(pairs)
        }
        _ => serde_json::json!({ "schema": "rid-bench-perf/v10", "serve": record }),
    };
    std::fs::write(&out, serde_json::to_string(&updated).expect("baseline serializes"))
        .expect("baseline written");
    eprintln!("wrote serve record to {out}");
}
