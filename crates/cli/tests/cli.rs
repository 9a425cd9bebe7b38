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

    // Malformed numeric flags are usage errors, never a silent default.
    let dir = tempdir("bad-flags");
    let file = write(&dir, "clean.ril", CLEAN);
    let out = dir.join("corpus");
    let cases: [(&[&str], &str); 3] = [
        (&["analyze", file.to_str().unwrap(), "--threads", "two"], "--threads"),
        (&["analyze", file.to_str().unwrap(), "--steal-batch", "x"], "--steal-batch"),
        (&["gen-kernel", "--seed", "2O16", "--out", out.to_str().unwrap()], "--seed"),
    ];
    for (args, flag) in cases {
        let output = rid().args(args).output().unwrap();
        assert_eq!(output.status.code(), Some(3), "{args:?}: {}", stderr(&output));
        assert!(stderr(&output).contains(&format!("{flag} expects")), "{}", stderr(&output));
    }
    assert!(!out.exists(), "a rejected gen-kernel writes nothing");
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
    let runs: [(&str, &[&str]); 4] = [
        ("text", &[]),
        ("json", &["--json"]),
        ("cold-cache", &["--cache", cache]),
        ("warm-cache", &["--cache", cache]),
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
        if tag != "json" {
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
