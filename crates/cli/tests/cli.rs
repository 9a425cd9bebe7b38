//! End-to-end tests driving the `rid` binary.

use std::path::PathBuf;
use std::process::{Command, Output};

fn rid() -> Command {
    Command::new(env!("CARGO_BIN_EXE_rid"))
}

fn tempdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("rid-cli-{name}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn write(dir: &std::path::Path, name: &str, content: &str) -> PathBuf {
    let path = dir.join(name);
    std::fs::write(&path, content).unwrap();
    path
}

fn stdout(output: &Output) -> String {
    String::from_utf8_lossy(&output.stdout).into_owned()
}

fn stderr(output: &Output) -> String {
    String::from_utf8_lossy(&output.stderr).into_owned()
}

const FIG8: &str = r#"module radeon;
fn radeon_crtc_set_config(dev, set) {
    let ret = pm_runtime_get_sync(dev);
    if (ret < 0) { return ret; }
    ret = drm_crtc_helper_set_config(set);
    pm_runtime_put_autosuspend(dev);
    return ret;
}"#;

const CLEAN: &str = r#"module clean;
fn balanced(dev) {
    pm_runtime_get_sync(dev);
    pm_runtime_put(dev);
    return 0;
}"#;

#[test]
fn analyze_reports_figure8_and_exits_nonzero() {
    let dir = tempdir("analyze");
    let file = write(&dir, "radeon.ril", FIG8);
    let output = rid().args(["analyze", file.to_str().unwrap()]).output().unwrap();
    assert_eq!(output.status.code(), Some(1), "bugs found ⇒ exit 1");
    let text = stdout(&output);
    assert!(text.contains("radeon_crtc_set_config"), "{text}");
    assert!(text.contains("[dev].pm"), "parameter names restored: {text}");
}

#[test]
fn analyze_clean_module_exits_zero() {
    let dir = tempdir("clean");
    let file = write(&dir, "clean.ril", CLEAN);
    let output = rid().args(["analyze", file.to_str().unwrap()]).output().unwrap();
    assert!(output.status.success(), "{}", stderr(&output));
    assert!(stdout(&output).contains("no inconsistent path pairs"));
}

#[test]
fn analyze_json_output_parses() {
    let dir = tempdir("json");
    let file = write(&dir, "radeon.ril", FIG8);
    let output =
        rid().args(["analyze", file.to_str().unwrap(), "--json"]).output().unwrap();
    let reports: serde_json::Value = serde_json::from_str(&stdout(&output)).unwrap();
    assert_eq!(reports.as_array().unwrap().len(), 1);
    assert_eq!(reports[0]["function"], "radeon_crtc_set_config");
}

#[test]
fn summaries_save_and_reload() {
    let dir = tempdir("summaries");
    let lib = write(
        &dir,
        "lib.ril",
        r#"module lib;
        fn get_dev(dev) {
            let r = pm_runtime_get_sync(dev);
            if (r < 0) { return r; }
            return 0;
        }"#,
    );
    let db = dir.join("db.json");
    let output = rid()
        .args([
            "analyze",
            lib.to_str().unwrap(),
            "--save-summaries",
            db.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(db.exists(), "{}", stderr(&output));

    // A second compilation unit using get_dev's summary from disk (§5.3).
    let app = write(
        &dir,
        "app.ril",
        r#"module app;
        fn use_dev(dev) {
            let r = get_dev(dev);
            if (r) { return 0; }   // swallows the error: +1 retained
            pm_runtime_put(dev);
            return 0;
        }"#,
    );
    let output = rid()
        .args(["analyze", app.to_str().unwrap(), "--summaries", db.to_str().unwrap()])
        .output()
        .unwrap();
    let text = stdout(&output);
    assert!(text.contains("use_dev"), "bug via persisted summary: {text}");
}

#[test]
fn classify_prints_census() {
    let dir = tempdir("classify");
    let file = write(&dir, "clean.ril", CLEAN);
    let output = rid().args(["classify", file.to_str().unwrap()]).output().unwrap();
    assert!(output.status.success());
    let text = stdout(&output);
    assert!(text.contains("refcount-changing      : 1"), "{text}");
    assert!(text.contains("balanced: RefcountChanging"), "{text}");
}

#[test]
fn summarize_prints_entries() {
    let dir = tempdir("summarize");
    let file = write(&dir, "clean.ril", CLEAN);
    let output = rid()
        .args(["summarize", file.to_str().unwrap(), "--function", "balanced"])
        .output()
        .unwrap();
    assert!(output.status.success(), "{}", stderr(&output));
    let text = stdout(&output);
    assert!(text.contains("summary of balanced"), "{text}");
}

#[test]
fn baseline_command_runs() {
    let dir = tempdir("baseline");
    let file = write(
        &dir,
        "ext.ril",
        "module ext; fn grab(obj) { Py_INCREF(obj); return; }",
    );
    let output = rid()
        .args(["baseline", file.to_str().unwrap(), "--apis", "python"])
        .output()
        .unwrap();
    assert!(output.status.success(), "{}", stderr(&output));
    assert!(stdout(&output).contains("grab"), "{}", stdout(&output));
}

#[test]
fn gen_kernel_writes_corpus() {
    let dir = tempdir("gen");
    let out = dir.join("corpus");
    let output = rid()
        .args(["gen-kernel", "--tiny", "--seed", "5", "--out", out.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(output.status.success(), "{}", stderr(&output));
    assert!(out.join("ground_truth.json").exists());
    let modules = std::fs::read_dir(&out).unwrap().count();
    assert!(modules > 5, "{modules} files written");

    // The generated corpus can be re-analyzed by the same binary.
    let files: Vec<String> = std::fs::read_dir(&out)
        .unwrap()
        .filter_map(|e| {
            let p = e.unwrap().path();
            (p.extension().is_some_and(|x| x == "ril"))
                .then(|| p.to_str().unwrap().to_owned())
        })
        .collect();
    let mut cmd = rid();
    cmd.arg("analyze");
    for f in &files {
        cmd.arg(f);
    }
    let output = cmd.output().unwrap();
    assert_eq!(output.status.code(), Some(1), "seeded bugs must be reported");
}

#[test]
fn callbacks_flag_catches_figure10() {
    let dir = tempdir("callbacks");
    let file = write(
        &dir,
        "arizona.ril",
        r#"module arizona;
        fn arizona_irq_thread(irq, data) {
            let ret = pm_runtime_get_sync(data.dev);
            if (ret < 0) { return 0; }
            handle(data);
            pm_runtime_put(data.dev);
            return 1;
        }
        fn setup(dev) {
            request_irq(dev.irq, @arizona_irq_thread, dev);
            return 0;
        }"#,
    );
    // Without the flag: the documented false negative.
    let output = rid().args(["analyze", file.to_str().unwrap()]).output().unwrap();
    assert!(output.status.success(), "baseline misses Figure 10");
    // With --callbacks: caught, labelled as a callback-contract report.
    let output = rid()
        .args(["analyze", file.to_str().unwrap(), "--callbacks"])
        .output()
        .unwrap();
    assert_eq!(output.status.code(), Some(1));
    let text = stdout(&output);
    assert!(text.contains("callback contract"), "{text}");
    assert!(text.contains("arizona_irq_thread"), "{text}");
}

#[test]
fn recheck_workflow() {
    let dir = tempdir("recheck");
    let buggy = write(
        &dir,
        "lib.ril",
        r#"module lib;
        fn helper(dev) {
            let r = chk(dev);
            if (r < 0) { return 0; }
            pm_runtime_get_sync(dev);
            return 0;
        }"#,
    );
    let state = dir.join("state.json");
    let output = rid()
        .args([
            "analyze",
            buggy.to_str().unwrap(),
            "--save-state",
            state.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert_eq!(output.status.code(), Some(1), "{}", stderr(&output));
    assert!(state.exists());

    // Fix the bug; recheck only `helper`.
    let fixed = write(
        &dir,
        "lib.ril",
        r#"module lib;
        fn helper(dev) {
            let r = chk(dev);
            if (r < 0) { return -1; }
            pm_runtime_get_sync(dev);
            return 0;
        }"#,
    );
    let output = rid()
        .args([
            "recheck",
            fixed.to_str().unwrap(),
            "--state",
            state.to_str().unwrap(),
            "--changed",
            "helper",
        ])
        .output()
        .unwrap();
    assert!(output.status.success(), "{}", stderr(&output));
    assert!(stdout(&output).contains("no inconsistent path pairs"));
    assert!(stderr(&output).contains("rechecked 1 function(s)"), "{}", stderr(&output));
}

#[test]
fn mine_discovers_and_saves_summaries() {
    let dir = tempdir("mine");
    let src = write(
        &dir,
        "kref.ril",
        r#"module m;
        fn lose(obj) {
            kref_get(obj);
            let st = probe(obj);
            if (st < 0) { return 0; }
            kref_put(obj);
            return 0;
        }"#,
    );
    let db = dir.join("mined.json");
    let output = rid()
        .args([
            "mine",
            src.to_str().unwrap(),
            "--field",
            "refs",
            "--save-summaries",
            db.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(output.status.success(), "{}", stderr(&output));
    assert!(stdout(&output).contains("kref_get / kref_put"), "{}", stdout(&output));
    assert!(db.exists());

    // The mined summaries drive a scan with zero hand-written specs.
    let output = rid()
        .args([
            "analyze",
            src.to_str().unwrap(),
            "--apis",
            "none",
            "--summaries",
            db.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert_eq!(output.status.code(), Some(1), "{}", stderr(&output));
    assert!(stdout(&output).contains("lose"));
}

#[test]
fn degraded_analysis_exits_2_with_summary_line() {
    let dir = tempdir("degraded");
    let branchy = write(
        &dir,
        "branchy.ril",
        r#"module m;
        fn branchy(dev) {
            let r = pm_runtime_get_sync(dev);
            if (r < 0) { pm_runtime_put(dev); return r; }
            pm_runtime_put(dev);
            return 0;
        }"#,
    );
    // Bug-free either way; zero solver fuel forces a SolverFuel degradation.
    let output = rid()
        .args(["analyze", branchy.to_str().unwrap(), "--fuel", "0"])
        .output()
        .unwrap();
    assert_eq!(output.status.code(), Some(2), "{}", stderr(&output));
    let err = stderr(&output);
    assert!(err.contains("1 function degraded: 1 solver-fuel"), "{err}");
    // Without the budget the same file is clean.
    let output = rid().args(["analyze", branchy.to_str().unwrap()]).output().unwrap();
    assert_eq!(output.status.code(), Some(0), "{}", stderr(&output));
}

#[test]
fn bad_usage_exits_3() {
    let output = rid().output().unwrap();
    assert_eq!(output.status.code(), Some(3));
    let output = rid().args(["analyze", "/nonexistent/file.ril"]).output().unwrap();
    assert_eq!(output.status.code(), Some(3));
    let output = rid()
        .args(["analyze", "whatever.ril", "--deadline-ms", "soon"])
        .output()
        .unwrap();
    assert_eq!(output.status.code(), Some(3), "unparsable budget flag is fatal");

    // Malformed numeric flags are usage errors, never a silent default;
    // so is any option the command does not read, which must neither be
    // ignored nor swallow the input file after it.
    let dir = tempdir("bad-flags");
    let file = write(&dir, "clean.ril", CLEAN);
    let file = file.to_str().unwrap();
    let out = dir.join("corpus");
    let cases: [(&[&str], &str); 6] = [
        (&["analyze", file, "--threads", "two"], "--threads expects"),
        (&["analyze", file, "--steal-batch", "x"], "--steal-batch expects"),
        (&["gen-kernel", "--seed", "2O16", "--out", out.to_str().unwrap()], "--seed expects"),
        (&["analyze", "--jsn", file], "unknown option `--jsn` for `rid analyze`"),
        (&["analyze", file, "--thread", "2"], "unknown option `--thread` for `rid analyze`"),
        (&["analyze", file, "--processes", "2"], "unknown option `--processes` for `rid analyze`"),
    ];
    for (args, fragment) in cases {
        let output = rid().args(args).output().unwrap();
        assert_eq!(output.status.code(), Some(3), "{args:?}: {}", stderr(&output));
        assert!(stderr(&output).contains(fragment), "{args:?}: {}", stderr(&output));
    }
    assert!(!out.exists(), "a rejected gen-kernel writes nothing");
}

/// `--separate` parses through the same helper as the linked path, so
/// a parse error names the offending source either way.
#[test]
fn separate_parse_error_names_its_source() {
    let dir = tempdir("separate-parse-error");
    let good = write(&dir, "good.ril", CLEAN);
    let bad = write(&dir, "bad.ril", "module bad;\nfn broken(dev) { let = 1; }");
    for extra in [&[][..], &["--separate"][..]] {
        let output = rid().arg("analyze").args([&good, &bad]).args(extra).output().unwrap();
        assert_eq!(output.status.code(), Some(3), "{extra:?}: {}", stderr(&output));
        let err = stderr(&output);
        assert!(err.starts_with("error: source #1: 2:"), "{extra:?}: {err}");
    }
}

/// `--separate` runs its own §5.3 analysis, which neither reads a
/// summary store nor injects faults, so asking for either is bad usage
/// rather than a silently ignored option.
#[test]
fn separate_rejects_cache_and_fault_plan() {
    let dir = tempdir("separate-combos");
    let file = write(&dir, "clean.ril", CLEAN);
    let plan = rid_core::FaultPlan { seed: 1, panic_rate: 0.5, ..rid_core::FaultPlan::none() };
    let plan = write(&dir, "plan.json", &serde_json::to_string(&plan).unwrap());
    let cache = dir.join("store.bin");
    let cases = [
        (["--cache", cache.to_str().unwrap()], "--cache is not supported with --separate"),
        (["--fault-plan", plan.to_str().unwrap()], "--fault-plan is not supported with --separate"),
    ];
    for (extra, fragment) in cases {
        let output =
            rid().arg("analyze").arg(&file).arg("--separate").args(extra).output().unwrap();
        assert_eq!(output.status.code(), Some(3), "{extra:?}: {}", stderr(&output));
        assert!(stderr(&output).contains(fragment), "{extra:?}: {}", stderr(&output));
        assert!(stdout(&output).is_empty(), "{extra:?}: nothing analyzed");
    }
    assert!(!cache.exists(), "a rejected run writes no store");
}

/// The `lower` spans (one per parsed module) in a `--trace` run's JSONL
/// sidecar.
fn lower_spans(trace: &std::path::Path) -> usize {
    let jsonl = std::fs::read_to_string(format!("{}.jsonl", trace.display())).unwrap();
    rid_core::parse_trace_jsonl(&jsonl)
        .iter()
        .filter(|event| event.kind == rid_obs::SpanKind::Lower)
        .count()
}

#[test]
fn analyze_parses_each_file_once() {
    let dir = tempdir("parse-once");
    let files = [write(&dir, "radeon.ril", FIG8), write(&dir, "clean.ril", CLEAN)];
    let cache = dir.join("store.bin");
    let cache = cache.to_str().unwrap();
    let runs: [(&str, &[&str]); 6] = [
        ("text", &[]),
        ("json", &["--json"]),
        ("cold-cache", &["--cache", cache]),
        ("warm-cache", &["--cache", cache]),
        ("separate", &["--separate"]),
        ("separate-json", &["--separate", "--json"]),
    ];
    for (tag, extra) in runs {
        let trace = dir.join(format!("{tag}.json"));
        let output = rid()
            .arg("analyze")
            .args(&files)
            .args(extra)
            .arg("--trace")
            .arg(&trace)
            .output()
            .unwrap();
        assert_eq!(output.status.code(), Some(1), "{tag}: {}", stderr(&output));
        assert_eq!(lower_spans(&trace), files.len(), "{tag}: one parse per file");
        if !tag.ends_with("json") {
            // Text output renders parameter names from the analyzed program.
            let text = stdout(&output);
            assert!(text.contains("[dev].pm"), "{tag}: parameter names restored: {text}");
        }
        if tag == "warm-cache" {
            let err = stderr(&output);
            assert!(err.contains("cache: 2 hit(s), 0 miss(es)"), "{err}");
        }
    }
}

/// The chaos smoke path from the CI pipeline, run in-process: start the
/// daemon on a socket with `--state-dir`, register and analyze a
/// project, snapshot, apply a post-snapshot patch (journal-only state),
/// then SIGKILL the daemon and restart it on the same state dir. The
/// restarted daemon must report per-project stats identical to the
/// pre-crash reference without any re-registration.
#[cfg(unix)]
#[test]
fn serve_state_dir_survives_kill_nine() {
    let dir = tempdir("kill9");
    let state = dir.join("state");
    let socket = dir.join("rid.sock");
    let fig8 = write(&dir, "radeon.ril", FIG8);
    let clean = write(&dir, "clean.ril", CLEAN);
    // The patch: same file key as the registered `clean.ril`, new body.
    let edit_dir = tempdir("kill9-edit");
    let clean_edit = write(
        &edit_dir,
        "clean.ril",
        r#"module clean;
fn balanced(dev) {
    let r = pm_runtime_get_sync(dev);
    if (r < 0) { return r; }
    pm_runtime_put(dev);
    return 0;
}"#,
    );

    let spawn_daemon = || {
        rid()
            .args([
                "serve",
                "--socket",
                socket.to_str().unwrap(),
                "--state-dir",
                state.to_str().unwrap(),
            ])
            .stdout(std::process::Stdio::null())
            .stderr(std::process::Stdio::null())
            .spawn()
            .unwrap()
    };
    // The socket file may be a stale leftover from the killed daemon,
    // so readiness means a `ping` actually answers, not that the path
    // exists.
    let client = |extra: &[&str]| -> Output {
        let mut cmd = rid();
        cmd.args(["client", "--socket", socket.to_str().unwrap()]);
        cmd.args(extra);
        cmd.output().unwrap()
    };
    let wait_ready = || {
        for _ in 0..600 {
            let output = client(&["--op", "ping"]);
            if output.status.code() == Some(0) {
                return;
            }
            std::thread::sleep(std::time::Duration::from_millis(10));
        }
        panic!("daemon never answered ping on {}", socket.display());
    };

    let mut daemon = spawn_daemon();
    wait_ready();
    let output = client(&[
        "--op",
        "register",
        "--project",
        "p",
        fig8.to_str().unwrap(),
        clean.to_str().unwrap(),
    ]);
    assert_eq!(output.status.code(), Some(0), "{}", stdout(&output));
    let output = client(&["--op", "analyze", "--project", "p"]);
    assert_eq!(output.status.code(), Some(1), "FIG8 leak found: {}", stdout(&output));
    let output = client(&["--op", "snapshot"]);
    assert_eq!(output.status.code(), Some(0), "{}", stdout(&output));
    let output = client(&["--op", "patch", "--project", "p", clean_edit.to_str().unwrap()]);
    assert_eq!(output.status.code(), Some(1), "leak still present: {}", stdout(&output));
    let output = client(&["--op", "stats"]);
    assert_eq!(output.status.code(), Some(0), "{}", stdout(&output));
    let reference: serde_json::Value = serde_json::from_str(stdout(&output).trim()).unwrap();

    // kill -9: no drain, no shutdown snapshot, no goodbye.
    daemon.kill().unwrap();
    daemon.wait().unwrap();

    let mut daemon = spawn_daemon();
    wait_ready();
    let output = client(&["--op", "stats", "--retries", "3"]);
    assert_eq!(output.status.code(), Some(0), "{}", stdout(&output));
    let restored: serde_json::Value = serde_json::from_str(stdout(&output).trim()).unwrap();
    assert_eq!(
        serde_json::to_string(&restored["result"]["projects"]).unwrap(),
        serde_json::to_string(&reference["result"]["projects"]).unwrap(),
        "restored project stats equal the pre-crash reference"
    );
    assert_eq!(
        restored["result"]["server"]["restored_projects"].as_i64(),
        Some(1),
        "the project came back from the snapshot, not re-registration"
    );
    assert!(
        restored["result"]["server"]["replayed_entries"].as_i64().unwrap_or(0) >= 1,
        "the post-snapshot patch came back from the journal: {restored}"
    );

    let output = client(&["--op", "shutdown"]);
    assert_eq!(output.status.code(), Some(0), "{}", stdout(&output));
    let status = daemon.wait().unwrap();
    assert!(status.success(), "daemon drains and exits cleanly after shutdown");
}

/// `rid serve --trace` writes the same single-process Chrome trace as
/// `rid analyze --trace`: every span on pid lane 1, no process-name
/// metadata and no cross-process trace id.
#[cfg(unix)]
#[test]
fn serve_trace_is_a_single_lane_chrome_trace() {
    /// Kills the daemon if the test fails before it shuts down.
    struct Daemon(std::process::Child);
    impl Drop for Daemon {
        fn drop(&mut self) {
            let _ = self.0.kill();
            let _ = self.0.wait();
        }
    }

    let dir = tempdir("serve-trace");
    let socket = dir.join("rid.sock");
    let trace = dir.join("serve.json");
    let clean = write(&dir, "clean.ril", CLEAN);
    let mut daemon = Daemon(
        rid()
            .args(["serve", "--socket", socket.to_str().unwrap(), "--state-dir"])
            .arg(dir.join("state"))
            .arg("--trace")
            .arg(&trace)
            .stdout(std::process::Stdio::null())
            .stderr(std::process::Stdio::null())
            .spawn()
            .unwrap(),
    );
    let client = |extra: &[&str]| -> Output {
        rid().args(["client", "--socket", socket.to_str().unwrap()]).args(extra).output().unwrap()
    };
    let ready = (0..600).any(|_| {
        let up = client(&["--op", "ping"]).status.code() == Some(0);
        if !up {
            std::thread::sleep(std::time::Duration::from_millis(10));
        }
        up
    });
    assert!(ready, "daemon never answered ping on {}", socket.display());
    let register = ["--op", "register", "--project", "p", clean.to_str().unwrap()];
    for op in [&register[..], &["--op", "snapshot"]] {
        let output = client(op);
        assert_eq!(output.status.code(), Some(0), "{op:?}: {}", stdout(&output));
    }
    let output = client(&["--op", "shutdown"]);
    assert_eq!(output.status.code(), Some(0), "{}", stdout(&output));
    assert!(daemon.0.wait().unwrap().success(), "daemon drains and exits cleanly");

    let text = std::fs::read_to_string(&trace).unwrap();
    let json: serde_json::Value = serde_json::from_str(&text).unwrap();
    assert!(json.get("otherData").is_none(), "{text}");
    let events = json["traceEvents"].as_array().unwrap();
    let names: Vec<&str> = events.iter().map(|e| e["name"].as_str().unwrap()).collect();
    assert!(names.contains(&"register:p") && names.contains(&"snapshot"), "{names:?}");
    for event in events {
        assert_eq!(event["pid"].as_u64(), Some(1), "{event}");
        assert_ne!(event["ph"].as_str(), Some("M"), "no metadata events: {event}");
    }
}
