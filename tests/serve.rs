//! Daemon acceptance suite, driven end-to-end through the `--stdio`
//! transport: batch coalescing pinned by an obs span census, the
//! affected-cone contract of `patch` pinned against
//! [`incremental::affected_functions`], per-request deadlines surfacing
//! as degraded envelopes, and graceful shutdown draining every accepted
//! request.
//!
//! Tracing state is process-global, so every test here serializes on one
//! mutex (like `tests/obs.rs`) — a concurrently tracing test in the same
//! binary would leak spans into the census.

use std::collections::BTreeSet;
use std::sync::{Mutex, MutexGuard};

use rid::core::incremental::affected_functions;
use rid::core::CallGraph;
use rid::obs::{trace, SpanKind};
use rid::serve::{serve_stdio, Engine, ServerConfig};
use serde_json::Value;

fn lock() -> MutexGuard<'static, ()> {
    static GUARD: Mutex<()> = Mutex::new(());
    GUARD.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Three refcount-relevant functions in a chain (`top` → `mid` →
/// `leaf`) plus one function outside the chain, split over two modules
/// so a patch crosses module boundaries.
const MOD_A: &str = r#"module a;
fn leaf(dev) {
    let ret = pm_runtime_get_sync(dev);
    if (ret < 0) { return ret; }
    pm_runtime_put(dev);
    return 0;
}
fn mid(dev) {
    let r = leaf(dev);
    pm_runtime_get_sync(dev);
    pm_runtime_put(dev);
    return r;
}"#;

const MOD_B: &str = r#"module b;
fn top(dev) {
    let r = mid(dev);
    pm_runtime_get_sync(dev);
    pm_runtime_put(dev);
    return r;
}
fn other(dev) {
    pm_runtime_get_sync(dev);
    pm_runtime_put(dev);
    return 0;
}"#;

/// `leaf` with a different (still clean) body — a real change.
const MOD_A_EDIT: &str = r#"module a;
fn leaf(dev) {
    let ret = pm_runtime_get_sync(dev);
    if (ret < 0) { pm_runtime_put_noidle(dev); return ret; }
    pm_runtime_put(dev);
    return 0;
}
fn mid(dev) {
    let r = leaf(dev);
    pm_runtime_get_sync(dev);
    pm_runtime_put(dev);
    return r;
}"#;

fn line(value: Value) -> String {
    serde_json::to_string(&value).unwrap()
}

fn parse(response: &str) -> Value {
    serde_json::from_str(response).expect("daemon emits valid JSON lines")
}

/// Feeds `lines` through the stdio transport and returns the parsed
/// response lines in order.
fn run_stdio(lines: &[String]) -> Vec<Value> {
    let input = format!("{}\n", lines.join("\n"));
    let mut output = Vec::new();
    serve_stdio(std::io::Cursor::new(input), &mut output, ServerConfig::default())
        .expect("stdio serve loop");
    String::from_utf8(output).unwrap().lines().map(parse).collect()
}

fn register_line(id: u64) -> String {
    line(serde_json::json!({
        "id": id, "op": "register", "project": "p",
        "sources": serde_json::json!({ "a.ril": MOD_A, "b.ril": MOD_B }),
    }))
}

fn by_id(responses: &[Value], id: u64) -> &Value {
    responses
        .iter()
        .find(|r| r["id"].as_u64() == Some(id))
        .unwrap_or_else(|| panic!("no response with id {id}"))
}

/// Two deferred overlapping patches coalesce into ONE driver run — there
/// is exactly one `serve.patch` span and its value is the batch size —
/// and that run re-executes exactly the affected cone: the span census
/// counts one `exec` per function of the initial analyze plus one per
/// re-executed function of the patch, nothing more.
#[test]
fn coalesced_patches_cost_one_run_over_the_affected_cone() {
    let _g = lock();
    trace::enable(trace::DEFAULT_CAPACITY);
    let responses = run_stdio(&[
        register_line(1),
        line(serde_json::json!({ "id": 2, "op": "analyze", "project": "p" })),
        // Two patches to the same module, deferred so they queue; the
        // second (a.ril back to a *new* edit) wins the merge.
        line(serde_json::json!({
            "id": 3, "op": "patch", "project": "p", "defer": true,
            "sources": serde_json::json!({ "a.ril": MOD_A_EDIT }),
        })),
        line(serde_json::json!({
            "id": 4, "op": "patch", "project": "p", "defer": true,
            "sources": serde_json::json!({ "a.ril": MOD_A_EDIT }),
        })),
        line(serde_json::json!({ "id": 5, "op": "stats" })),
    ]);
    trace::disable();
    let trace = trace::drain();

    // Both coalesced requests got the shared result.
    for id in [3, 4] {
        let reply = by_id(&responses, id);
        assert_eq!(reply["ok"].as_bool(), Some(true), "{reply}");
        assert_eq!(reply["result"]["batched"].as_u64(), Some(2));
        assert_eq!(reply["result"]["changed"][0].as_str(), Some("leaf"));
    }
    let stats = by_id(&responses, 5);
    assert_eq!(stats["result"]["server"]["coalesced"].as_u64(), Some(1));

    // Census: one patch span for two requests, batch size recorded.
    let patch_spans: Vec<_> = trace
        .events
        .iter()
        .filter(|e| e.kind == SpanKind::Serve && e.name == "patch:p")
        .collect();
    assert_eq!(patch_spans.len(), 1, "two coalesced patches must cost one driver run");
    assert_eq!(patch_spans[0].value, 2, "span value records the batch size");

    // Census: the session's exec count is exactly (initial analyze) +
    // (patch re-execution of the affected cone).
    let analyzed = by_id(&responses, 2)["result"]["functions_analyzed"]
        .as_u64()
        .expect("analyze reports functions_analyzed");
    let reexecuted = by_id(&responses, 3)["result"]["reexecuted"]
        .as_u64()
        .expect("patch reports reexecuted");
    let execs =
        trace.events.iter().filter(|e| e.kind == SpanKind::Exec).count() as u64;
    assert_eq!(
        execs,
        analyzed + reexecuted,
        "patch must re-execute only the affected cone (no hidden full run)"
    );
}

/// The `affected` list in a patch response is exactly
/// `incremental::affected_functions` of the post-edit program — the
/// changed function plus its transitive callers, across modules.
#[test]
fn patch_affected_set_matches_incremental_contract() {
    let _g = lock();
    let responses = run_stdio(&[
        register_line(1),
        line(serde_json::json!({ "id": 2, "op": "analyze", "project": "p" })),
        line(serde_json::json!({
            "id": 3, "op": "patch", "project": "p",
            "sources": serde_json::json!({ "a.ril": MOD_A_EDIT }),
        })),
    ]);
    let reply = by_id(&responses, 3);
    assert_eq!(reply["ok"].as_bool(), Some(true), "{reply}");

    let program = rid::frontend::parse_program([MOD_A_EDIT, MOD_B]).unwrap();
    let graph = CallGraph::build(&program);
    let expected: BTreeSet<String> =
        affected_functions(&graph, &["leaf"]).into_iter().collect();
    assert_eq!(
        expected,
        ["leaf", "mid", "top"].map(str::to_owned).into(),
        "fixture sanity: the chain is the cone"
    );

    let affected: BTreeSet<String> = reply["result"]["affected"]
        .as_array()
        .expect("affected list")
        .iter()
        .map(|v| v.as_str().unwrap().to_owned())
        .collect();
    assert_eq!(affected, expected);
    let reexecuted = reply["result"]["reexecuted"].as_u64().unwrap();
    assert_eq!(reexecuted, 3, "every function of the cone is refcount-relevant");
}

/// A request deadline of zero cannot be met; the run still answers
/// `ok`, but every analyzed function is surfaced in the response's
/// `degraded` array rather than silently dropped.
#[test]
fn exceeded_deadline_surfaces_degraded_envelope() {
    let _g = lock();
    let responses = run_stdio(&[
        register_line(1),
        line(serde_json::json!({
            "id": 2, "op": "analyze", "project": "p", "deadline_ms": 0,
        })),
    ]);
    let reply = by_id(&responses, 2);
    assert_eq!(reply["ok"].as_bool(), Some(true), "{reply}");
    let degraded = reply["degraded"].as_array().expect("degraded array");
    assert!(!degraded.is_empty(), "an instant deadline must degrade the run");
    for entry in degraded {
        assert!(entry["function"].as_str().is_some());
        assert!(entry["reason"].as_str().is_some());
    }
    // A later run without a deadline is unaffected (degradation is
    // per-request, not sticky project state).
    let responses = run_stdio(&[
        register_line(1),
        line(serde_json::json!({ "id": 2, "op": "analyze", "project": "p" })),
    ]);
    let clean = by_id(&responses, 2);
    assert_eq!(clean["degraded"].as_array().map(Vec::len), Some(0), "{clean}");
}

/// Shutdown drains: every request accepted before the shutdown —
/// including deferred ones still sitting in the queue — is answered,
/// and the shutdown reply comes last and counts them. Input after the
/// shutdown line is never read by the stdio transport (the connection
/// is closed); a request reaching a draining engine by another route is
/// rejected explicitly rather than silently dropped.
#[test]
fn shutdown_answers_every_accepted_request() {
    let _g = lock();
    let responses = run_stdio(&[
        register_line(1),
        line(serde_json::json!({ "id": 2, "op": "analyze", "project": "p", "defer": true })),
        line(serde_json::json!({ "id": 3, "op": "stats", "defer": true })),
        line(serde_json::json!({ "id": 4, "op": "shutdown" })),
        // Never read: serve_stdio returns once the shutdown is answered.
        line(serde_json::json!({ "id": 5, "op": "stats" })),
    ]);
    assert_eq!(responses.len(), 4, "everything up to the shutdown is answered");
    assert_eq!(by_id(&responses, 2)["ok"].as_bool(), Some(true));
    assert_eq!(by_id(&responses, 3)["ok"].as_bool(), Some(true));
    let bye = by_id(&responses, 4);
    assert_eq!(bye["ok"].as_bool(), Some(true));
    assert_eq!(bye["result"]["drained"].as_u64(), Some(2));
    // The shutdown reply is ordered after the drained work it counts.
    let pos = |id: u64| responses.iter().position(|r| r["id"].as_u64() == Some(id)).unwrap();
    assert!(pos(4) > pos(2) && pos(4) > pos(3));

    // A request that does reach a draining engine (e.g. over another
    // socket connection) is answered with an explicit error.
    let mut engine: Engine<()> = Engine::new(ServerConfig::default());
    engine.handle_line((), &line(serde_json::json!({ "id": 1, "op": "shutdown" })));
    assert!(engine.is_shutting_down());
    let late = engine.handle_line((), &line(serde_json::json!({ "id": 2, "op": "stats" })));
    let late = parse(&late[0].1);
    assert_eq!(late["ok"].as_bool(), Some(false));
    assert_eq!(late["error"]["kind"].as_str(), Some("shutting-down"));
}

/// A Figure 8 bug for the diff op: registered, analyzed resident, and
/// classified against client-supplied baselines.
const BUGGY_MOD: &str = r#"module buggy;
fn probe(dev, set) {
    let ret = pm_runtime_get_sync(dev);
    if (ret < 0) { return ret; }
    ret = drm_crtc_helper_set_config(set);
    pm_runtime_put_autosuspend(dev);
    return ret;
}"#;

/// The `diff` op classifies the project's resident reports against the
/// request's baseline hash list: an empty baseline makes every report
/// `new`; a baseline carrying the report's own hash makes it
/// `unchanged`; a stale baseline hash comes back `resolved`. The hashes
/// on the wire agree with [`rid::core::report_hash`] computed locally —
/// that agreement is the whole point of the stable-hash contract.
#[test]
fn diff_op_classifies_resident_reports_against_the_baseline() {
    let _g = lock();
    // The expected hash, computed library-side from the same source.
    let program = rid::frontend::parse_program([BUGGY_MOD]).unwrap();
    let result = rid::core::driver::analyze_program(
        &program,
        &rid::core::apis::linux_dpm_apis(),
        &rid::core::AnalysisOptions::default(),
    );
    assert_eq!(result.reports.len(), 1);
    let expected = rid::core::report_hash(&result.reports[0]);

    let stale = "0123456789abcdef0123456789abcdef";
    let responses = run_stdio(&[
        line(serde_json::json!({
            "id": 1, "op": "register", "project": "d",
            "sources": serde_json::json!({ "buggy.ril": BUGGY_MOD }),
        })),
        // Cold diff: forces one analysis, everything is new.
        line(serde_json::json!({ "id": 2, "op": "diff", "project": "d" })),
        // Baseline contains the report: unchanged, nothing new.
        line(serde_json::json!({
            "id": 3, "op": "diff", "project": "d", "baseline": [expected.as_str()],
        })),
        // Stale baseline entry: resolved, the resident report is new.
        line(serde_json::json!({
            "id": 4, "op": "diff", "project": "d", "baseline": [stale],
        })),
        line(serde_json::json!({ "id": 5, "op": "diff" })),
    ]);

    let cold = by_id(&responses, 2);
    assert_eq!(cold["ok"].as_bool(), Some(true));
    assert_eq!(cold["result"]["new_count"].as_u64(), Some(1));
    assert_eq!(cold["result"]["new"][0]["hash"].as_str(), Some(expected.as_str()));
    assert_eq!(cold["result"]["new"][0]["function"].as_str(), Some("probe"));

    let unchanged = by_id(&responses, 3);
    assert_eq!(unchanged["result"]["new_count"].as_u64(), Some(0));
    assert_eq!(unchanged["result"]["unchanged"][0]["hash"].as_str(), Some(expected.as_str()));
    assert_eq!(unchanged["result"]["resolved"].as_array().map(Vec::len), Some(0));

    let stale_reply = by_id(&responses, 4);
    assert_eq!(stale_reply["result"]["new_count"].as_u64(), Some(1));
    assert_eq!(stale_reply["result"]["resolved"][0].as_str(), Some(stale));

    // `diff` requires a project, like the other project-scoped ops.
    let usage = by_id(&responses, 5);
    assert_eq!(usage["ok"].as_bool(), Some(false));
    assert_eq!(usage["error"]["kind"].as_str(), Some("usage"));
}

/// The `json!` + `to_string` rendering every success reply took before
/// payloads were moved into the envelope. Replies must stay
/// byte-identical to it.
fn json_ok_line(id: u64, result: Value) -> String {
    serde_json::to_string(&serde_json::json!({
        "id": id,
        "ok": true,
        "protocol": rid::serve::PROTOCOL_VERSION,
        "result": result,
        "degraded": Vec::<Value>::new(),
    }))
    .unwrap()
}

/// The `analyze`/`patch` payload, rendered the `json!` way.
fn json_payload(result: &rid::core::AnalysisResult) -> Value {
    let reports: Vec<Value> = result
        .reports
        .iter()
        .map(|report| {
            serde_json::json!({
                "function": report.function,
                "refcount": report.refcount.to_string(),
                "change_a": report.change_a,
                "change_b": report.change_b,
                "path_a": report.path_a,
                "path_b": report.path_b,
                "callback": report.callback,
            })
        })
        .collect();
    serde_json::json!({
        "report_count": result.reports.len(),
        "reports": reports,
        "functions_total": result.stats.functions_total,
        "functions_analyzed": result.stats.functions_analyzed,
    })
}

fn push(payload: &mut Value, key: &str, value: Value) {
    if let Value::Map(pairs) = payload {
        pairs.push((key.to_owned(), value));
    }
}

/// The `patch` payload, rendered the `json!` way.
fn json_patch_payload(
    result: &rid::core::AnalysisResult,
    batched: usize,
    changed: &[&str],
    affected: &[String],
) -> Value {
    let mut payload = json_payload(result);
    push(&mut payload, "batched", serde_json::json!(batched));
    push(&mut payload, "changed", serde_json::json!(changed));
    push(&mut payload, "affected", serde_json::json!(affected));
    push(&mut payload, "reexecuted", serde_json::json!(result.stats.functions_analyzed));
    payload
}

/// `buggy.ril` with a second Figure 8 function.
fn buggy_with_probe2() -> String {
    format!("{BUGGY_MOD}\n{}", BUGGY_MOD.replace("module buggy;", "").replace("probe", "probe2"))
}

/// The reply lines of `analyze`, `patch`, `diff` and a two-request
/// coalesced `patch` batch, byte for byte against the `json!` rendering
/// of an independent library-side run over the same edits.
#[test]
fn reply_lines_match_the_json_macro_rendering() {
    let _g = lock();
    let apis = rid::core::apis::linux_dpm_apis();
    let options = rid::core::AnalysisOptions::default();
    let parse = |sources: &[&str]| rid::frontend::parse_program(sources.iter().copied()).unwrap();
    let probe2 = buggy_with_probe2();

    // Library side: analyze, then the single patch, then the batch.
    let program = parse(&[MOD_A, MOD_B, BUGGY_MOD]);
    let mut cache = rid::core::SummaryCache::new();
    let analyzed = rid::core::analyze_program_cached(
        &program,
        &apis,
        &options,
        &rid::core::FaultPlan::none(),
        Some(&mut cache),
    );
    let patch = |previous: &rid::core::AnalysisResult, sources: &[&str], changed: &[&str]| {
        let program = parse(sources);
        let plan = rid::core::incremental::CallerIndex::build(&program).plan(&program, changed);
        let mut affected: Vec<String> = plan.affected.iter().cloned().collect();
        affected.sort_unstable();
        let result = rid::core::incremental::reanalyze_with_plan(
            &program,
            &apis,
            previous.clone(),
            changed,
            &options,
            &plan,
        );
        (result, affected)
    };
    let (patched, patched_affected) = patch(&analyzed, &[MOD_A, MOD_B, &probe2], &["probe2"]);
    let (batched, batched_affected) =
        patch(&patched, &[MOD_A_EDIT, MOD_B, BUGGY_MOD], &["leaf", "probe2"]);
    let stale = "0123456789abcdef0123456789abcdef".to_owned();
    let baseline = vec![rid::core::report_hash(&patched.reports[0]), stale];

    let mut analyze_payload = json_payload(&analyzed);
    push(
        &mut analyze_payload,
        "cache",
        serde_json::json!({
            "hits": analyzed.stats.cache_hits,
            "misses": analyzed.stats.cache_misses,
            "invalidated": analyzed.stats.cache_invalidated,
        }),
    );
    let diff = rid::core::classify_reports(&baseline, &patched.reports);
    let entry = |(hash, idx): &(String, usize)| {
        serde_json::json!({
            "hash": hash,
            "function": patched.reports[*idx].function,
            "refcount": patched.reports[*idx].refcount.to_string(),
        })
    };
    let diff_payload = serde_json::json!({
        "new": diff.new.iter().map(entry).collect::<Vec<_>>(),
        "unchanged": diff.unchanged.iter().map(entry).collect::<Vec<_>>(),
        "resolved": diff.resolved,
        "new_count": diff.new.len(),
        "report_count": patched.reports.len(),
    });
    let batch_payload = json_patch_payload(&batched, 2, &["leaf", "probe2"], &batched_affected);
    let expected = [
        (2, json_ok_line(2, analyze_payload)),
        (3, json_ok_line(3, json_patch_payload(&patched, 1, &["probe2"], &patched_affected))),
        (4, json_ok_line(4, diff_payload)),
        (5, json_ok_line(5, batch_payload.clone())),
        (6, json_ok_line(6, batch_payload)),
    ];

    // Daemon side: the same edits as requests.
    let input = [
        line(serde_json::json!({
            "id": 1, "op": "register", "project": "p",
            "sources": serde_json::json!({
                "a.ril": MOD_A, "b.ril": MOD_B, "buggy.ril": BUGGY_MOD,
            }),
        })),
        line(serde_json::json!({ "id": 2, "op": "analyze", "project": "p" })),
        line(serde_json::json!({
            "id": 3, "op": "patch", "project": "p",
            "sources": serde_json::json!({ "buggy.ril": probe2 }),
        })),
        line(serde_json::json!({ "id": 4, "op": "diff", "project": "p", "baseline": baseline })),
        line(serde_json::json!({
            "id": 5, "op": "patch", "project": "p", "defer": true,
            "sources": serde_json::json!({ "a.ril": MOD_A_EDIT }),
        })),
        line(serde_json::json!({
            "id": 6, "op": "patch", "project": "p", "defer": true,
            "sources": serde_json::json!({ "buggy.ril": BUGGY_MOD }),
        })),
        line(serde_json::json!({ "id": 7, "op": "ping" })),
        line(serde_json::json!({ "id": 8, "op": "analyze", "project": "p" })),
    ];
    let mut output = Vec::new();
    serve_stdio(
        std::io::Cursor::new(format!("{}\n", input.join("\n"))),
        &mut output,
        ServerConfig::default(),
    )
    .expect("stdio serve loop");
    let output = String::from_utf8(output).unwrap();
    for (id, want) in expected {
        let prefix = format!("{{\"id\":{id},");
        let got = output.lines().find(|l| l.starts_with(&prefix)).expect("a reply per request");
        assert_eq!(got, want, "reply {id}");
    }
}

/// A line nesting far deeper than any stack could recurse (200,000 `[`,
/// far under the frame limit) is a `parse` error, and the daemon answers
/// the next request. A module whose text is sent with surrogate-pair
/// escapes, as Python's `json.dumps` writes non-BMP characters,
/// registers like its raw UTF-8 form.
#[test]
fn hostile_nesting_and_escaped_text_do_not_break_the_daemon() {
    let _g = lock();
    let escaped = concat!(
        r#"{"id":3,"op":"register","project":"u","sources":{"m.ril":"#,
        r#""module m;\n// \ud83d\ude00 caf\u00e9\nfn f(dev) {\n    return 0;\n}\n"}}"#,
    );
    let responses = run_stdio(&[
        "[".repeat(200_000),
        line(serde_json::json!({ "id": 2, "op": "ping" })),
        escaped.to_owned(),
    ]);
    assert_eq!(responses[0]["error"]["kind"].as_str(), Some("parse"));
    assert!(responses[0]["id"].is_null());
    assert_eq!(by_id(&responses, 2)["result"]["pong"].as_bool(), Some(true));
    let registered = by_id(&responses, 3);
    assert_eq!(registered["ok"].as_bool(), Some(true), "{registered}");
    assert_eq!(registered["result"]["functions"].as_u64(), Some(1));
}
