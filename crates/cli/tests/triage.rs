//! End-to-end tests for the triage workflow: `rid diff` as a CI gate
//! (exit non-zero only on *new* bugs), `.ridignore` suppression and the
//! `rid suppress` round-trip, `--no-refute`, the `gen-kernel --spurious`
//! knob, and hash stability across `--threads`.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn rid() -> Command {
    Command::new(env!("CARGO_BIN_EXE_rid"))
}

fn tempdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("rid-triage-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn write(dir: &Path, name: &str, content: &str) -> PathBuf {
    let path = dir.join(name);
    std::fs::write(&path, content).unwrap();
    path
}

fn stdout(output: &Output) -> String {
    String::from_utf8_lossy(&output.stdout).into_owned()
}

/// Three Figure 8-shaped bugs in three modules, so states can be
/// assembled with any subset of them.
fn buggy_module(module: &str, function: &str) -> String {
    format!(
        r#"module {module};
fn {function}(dev, set) {{
    let ret = pm_runtime_get_sync(dev);
    if (ret < 0) {{ return ret; }}
    ret = drm_crtc_helper_set_config(set);
    pm_runtime_put_autosuspend(dev);
    return ret;
}}"#
    )
}

/// `rid analyze --save-state` over the given files; reports are expected
/// (exit 1).
fn save_state(dir: &Path, state: &str, files: &[&PathBuf]) -> PathBuf {
    let state_path = dir.join(state);
    let mut cmd = rid();
    cmd.arg("analyze");
    for file in files {
        cmd.arg(file.to_str().unwrap());
    }
    let output =
        cmd.args(["--save-state", state_path.to_str().unwrap()]).output().unwrap();
    assert_eq!(output.status.code(), Some(1), "seeded bugs must be reported");
    state_path
}

#[test]
fn diff_classifies_new_resolved_unchanged_and_gates_on_new_only() {
    let dir = tempdir("diff");
    let a = write(&dir, "a.ril", &buggy_module("mod_a", "fn_unchanged"));
    let b = write(&dir, "b.ril", &buggy_module("mod_b", "fn_resolved"));
    let c = write(&dir, "c.ril", &buggy_module("mod_c", "fn_new"));
    let old = save_state(&dir, "old.json", &[&a, &b]);
    let new = save_state(&dir, "new.json", &[&a, &c]);

    // One new, one unchanged, one resolved ⇒ the new bug gates: exit 1.
    let output = rid()
        .args(["diff", old.to_str().unwrap(), new.to_str().unwrap()])
        .current_dir(&dir)
        .output()
        .unwrap();
    assert_eq!(output.status.code(), Some(1), "a new bug must gate");
    let text = stdout(&output);
    assert!(text.contains("new") && text.contains("fn_new"), "{text}");
    assert!(text.contains("unchanged") && text.contains("fn_unchanged"), "{text}");
    assert!(text.contains("resolved"), "{text}");

    // Pre-existing bugs only (old vs old): nothing new, exit 0 even
    // though bugs exist. This is the CI-gate contract.
    let output = rid()
        .args(["diff", old.to_str().unwrap(), old.to_str().unwrap()])
        .current_dir(&dir)
        .output()
        .unwrap();
    assert_eq!(output.status.code(), Some(0), "pre-existing bugs must not gate");

    // A resolved bug alone (new vs old reversed … old has fn_resolved
    // gone in new) — diff new→old reports fn_resolved as new; sanity
    // check the direction matters.
    let output = rid()
        .args(["diff", new.to_str().unwrap(), old.to_str().unwrap()])
        .current_dir(&dir)
        .output()
        .unwrap();
    assert_eq!(output.status.code(), Some(1), "direction matters");

    // Unreadable state file is fatal.
    let output = rid().args(["diff", "no-such.json", new.to_str().unwrap()]).output().unwrap();
    assert_eq!(output.status.code(), Some(3));
}

#[test]
fn suppression_round_trip_via_rid_suppress() {
    let dir = tempdir("suppress");
    let a = write(&dir, "a.ril", &buggy_module("mod_a", "fn_unchanged"));
    let c = write(&dir, "c.ril", &buggy_module("mod_c", "fn_new"));
    let old = save_state(&dir, "old.json", &[&a]);
    let new = save_state(&dir, "new.json", &[&a, &c]);

    // Find the new report's hash from the JSON diff output.
    let output = rid()
        .args(["diff", old.to_str().unwrap(), new.to_str().unwrap(), "--json"])
        .current_dir(&dir)
        .output()
        .unwrap();
    assert_eq!(output.status.code(), Some(1));
    let value: serde_json::Value = serde_json::from_str(&stdout(&output)).unwrap();
    let new_entries = value["new"].as_array().unwrap();
    assert_eq!(new_entries.len(), 1);
    assert_eq!(new_entries[0]["function"].as_str(), Some("fn_new"));
    let hash = new_entries[0]["hash"].as_str().unwrap().to_owned();

    // Suppress it; the diff gate opens.
    let ignore = dir.join(".ridignore");
    let output = rid()
        .args(["suppress", &hash, "--file", ignore.to_str().unwrap()])
        .output()
        .unwrap();
    assert_eq!(output.status.code(), Some(0), "suppress must succeed");
    let output = rid()
        .args([
            "diff",
            old.to_str().unwrap(),
            new.to_str().unwrap(),
            "--ignore",
            ignore.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert_eq!(output.status.code(), Some(0), "suppressed new bug must not gate");
    assert!(stdout(&output).contains("suppressed"), "{}", stdout(&output));

    // Idempotent: suppressing again leaves exactly one entry.
    let output = rid()
        .args(["suppress", &hash, "--file", ignore.to_str().unwrap()])
        .output()
        .unwrap();
    assert_eq!(output.status.code(), Some(0));
    let text = std::fs::read_to_string(&ignore).unwrap();
    assert_eq!(text.matches(&hash).count(), 1, "{text}");

    // A function-name pattern suppresses too.
    let pattern = write(&dir, "pattern.ridignore", "pattern:fn_ne*\n");
    let output = rid()
        .args([
            "diff",
            old.to_str().unwrap(),
            new.to_str().unwrap(),
            "--ignore",
            pattern.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert_eq!(output.status.code(), Some(0), "pattern must suppress fn_new");

    // Malformed suppression files are fatal, not silently ignored.
    let bad = write(&dir, "bad.ridignore", "deadbeef\n");
    let output = rid()
        .args([
            "diff",
            old.to_str().unwrap(),
            new.to_str().unwrap(),
            "--ignore",
            bad.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert_eq!(output.status.code(), Some(3), "malformed .ridignore is fatal");

    // So is a malformed hash handed to `rid suppress`.
    let output = rid().args(["suppress", "not-a-hash"]).output().unwrap();
    assert_eq!(output.status.code(), Some(3));
}

/// `gen-kernel --spurious` seeds known-spurious idioms, records them in
/// the ground truth, and the default (two-stage) analysis refutes every
/// one while `--no-refute` exposes the stage-one reports.
#[test]
fn no_refute_exposes_seeded_spurious_reports() {
    let dir = tempdir("spurious");
    let corpus = dir.join("corpus");
    let output = rid()
        .args([
            "gen-kernel",
            "--tiny",
            "--seed",
            "5",
            "--spurious",
            "2",
            "--out",
            corpus.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert_eq!(output.status.code(), Some(0), "{}", String::from_utf8_lossy(&output.stderr));

    let truth: serde_json::Value = serde_json::from_str(
        &std::fs::read_to_string(corpus.join("ground_truth.json")).unwrap(),
    )
    .unwrap();
    let spurious: Vec<String> = truth["expected_spurious"]
        .as_array()
        .expect("ground truth records seeded-spurious functions")
        .iter()
        .map(|v| v.as_str().unwrap().to_owned())
        .collect();
    assert_eq!(spurious.len(), 2);

    let modules: Vec<String> = std::fs::read_dir(&corpus)
        .unwrap()
        .filter_map(|e| {
            let path = e.unwrap().path();
            (path.extension().is_some_and(|x| x == "ril"))
                .then(|| path.to_str().unwrap().to_owned())
        })
        .collect();

    let run = |extra: &[&str]| -> String {
        let mut cmd = rid();
        cmd.arg("analyze").args(&modules).arg("--json").args(extra);
        let output = cmd.output().unwrap();
        assert_eq!(output.status.code(), Some(1), "seeded true bugs must be reported");
        stdout(&output)
    };
    let two_stage = run(&[]);
    let stage_one = run(&["--no-refute"]);
    for function in &spurious {
        assert!(
            !two_stage.contains(function.as_str()),
            "refutation must remove `{function}`"
        );
        assert!(
            stage_one.contains(function.as_str()),
            "--no-refute must expose `{function}`"
        );
    }
}

/// The daemon-based CI gate matches `rid diff`: `rid client --op diff`
/// applies the local suppression file to the returned `new` entries
/// before deciding its exit code, so a triaged finding opens the gate
/// even though the daemon's raw `new_count` stays positive.
#[cfg(unix)]
#[test]
fn client_diff_gate_applies_local_suppressions() {
    let dir = tempdir("client-diff");
    let socket = dir.join("rid.sock");
    let a = write(&dir, "a.ril", &buggy_module("mod_a", "fn_unchanged"));
    let c = write(&dir, "c.ril", &buggy_module("mod_c", "fn_new"));
    let baseline = save_state(&dir, "baseline.json", &[&a]);

    let mut daemon = rid()
        .args(["serve", "--socket", socket.to_str().unwrap()])
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .spawn()
        .unwrap();
    let client = |extra: &[&str]| -> Output {
        let mut cmd = rid();
        cmd.args(["client", "--socket", socket.to_str().unwrap()]);
        cmd.args(extra);
        cmd.current_dir(&dir);
        cmd.output().unwrap()
    };
    for _ in 0..600 {
        if client(&["--op", "ping"]).status.code() == Some(0) {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(10));
    }

    let output = client(&[
        "--op",
        "register",
        "--project",
        "p",
        a.to_str().unwrap(),
        c.to_str().unwrap(),
    ]);
    assert_eq!(output.status.code(), Some(0), "{}", stdout(&output));

    // One pre-existing bug (unchanged) and one new one: the gate closes.
    let diff = |extra: &[&str]| -> Output {
        let mut args = vec!["--op", "diff", "--project", "p", "--baseline"];
        args.push(baseline.to_str().unwrap());
        args.extend_from_slice(extra);
        client(&args)
    };
    let output = diff(&[]);
    assert_eq!(output.status.code(), Some(1), "a new bug must gate: {}", stdout(&output));
    let value: serde_json::Value = serde_json::from_str(stdout(&output).trim()).unwrap();
    let new = value["result"]["new"].as_array().unwrap();
    assert_eq!(new.len(), 1, "{value}");
    assert_eq!(new[0]["function"].as_str(), Some("fn_new"));
    let hash = new[0]["hash"].as_str().unwrap().to_owned();

    // Suppress the finding: the daemon still reports it raw, but the
    // client-side gate opens — identical to the `rid diff` contract.
    let ignore = dir.join(".ridignore");
    let output = rid()
        .args(["suppress", &hash, "--file", ignore.to_str().unwrap()])
        .output()
        .unwrap();
    assert_eq!(output.status.code(), Some(0));
    let output = diff(&["--ignore", ignore.to_str().unwrap()]);
    assert_eq!(
        output.status.code(),
        Some(0),
        "suppressed new bug must not gate the daemon flow: {}",
        stdout(&output)
    );
    let value: serde_json::Value = serde_json::from_str(stdout(&output).trim()).unwrap();
    assert_eq!(
        value["result"]["new_count"].as_i64(),
        Some(1),
        "the daemon response stays raw: {value}"
    );

    // The default `.ridignore` in the invoking directory is picked up
    // without `--ignore`, and a malformed `--ignore` file is fatal
    // before any gating happens.
    let output = diff(&[]);
    assert_eq!(output.status.code(), Some(0), "cwd .ridignore applies: {}", stdout(&output));
    let bad = write(&dir, "bad.ridignore", "deadbeef\n");
    let output = diff(&["--ignore", bad.to_str().unwrap()]);
    assert_eq!(output.status.code(), Some(3), "malformed .ridignore is fatal");

    let output = client(&["--op", "shutdown"]);
    assert_eq!(output.status.code(), Some(0), "{}", stdout(&output));
    daemon.wait().unwrap();
}

/// The `REPORTS.md` stability guarantee, end to end through the binary:
/// `--threads` runs hash identically to a sequential one.
#[test]
fn hashes_are_stable_across_threads() {
    let dir = tempdir("hash-stability");
    let a = write(&dir, "a.ril", &buggy_module("mod_a", "fn_unchanged"));
    let c = write(&dir, "c.ril", &buggy_module("mod_c", "fn_new"));
    let files = [&a, &c];
    let sequential = save_state(&dir, "seq.json", &files);

    let variants: [&[&str]; 2] = [&["--threads", "2"], &["--threads", "4"]];
    for (i, extra) in variants.iter().enumerate() {
        let state_path = dir.join(format!("variant{i}.json"));
        let mut cmd = rid();
        cmd.arg("analyze");
        for file in files {
            cmd.arg(file.to_str().unwrap());
        }
        cmd.args(["--save-state", state_path.to_str().unwrap()]).args(*extra);
        let output = cmd.output().unwrap();
        assert_eq!(output.status.code(), Some(1));

        // Hash both states and compare as sets; `rid diff` agreeing
        // that nothing is new is the same statement through the CLI.
        let output = rid()
            .args(["diff", sequential.to_str().unwrap(), state_path.to_str().unwrap()])
            .current_dir(&dir)
            .output()
            .unwrap();
        assert_eq!(output.status.code(), Some(0), "variant {extra:?} moved a hash");
        let text = stdout(&output);
        assert!(!text.contains("resolved"), "variant {extra:?} lost a report: {text}");

        let seq = rid_core::persist::load_state(&sequential).unwrap();
        let var = rid_core::persist::load_state(&state_path).unwrap();
        let hash = |r: &rid_core::AnalysisResult| -> Vec<String> {
            let mut h: Vec<String> = r.reports.iter().map(rid_core::report_hash).collect();
            h.sort_unstable();
            h
        };
        assert_eq!(hash(&seq), hash(&var), "variant {extra:?}");
    }
}
