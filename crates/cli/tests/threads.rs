//! Differential suite for `rid analyze --threads N`: the work-stealing
//! scheduler must be **byte-identical** to a 1-thread plain run — same
//! exit code, same `--json` stdout, same `--save-summaries` DB bytes and
//! same RIDSS1 `--cache` store bytes — across thread counts, store
//! temperature (no store, cold, warm) and fault plans (clean,
//! panic+retry, solver stall).
//!
//! Everything goes through the real binary (`CARGO_BIN_EXE_rid`).

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

use rid_core::FaultPlan;

fn rid() -> Command {
    Command::new(env!("CARGO_BIN_EXE_rid"))
}

fn tempdir(name: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("rid-threads-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Generates the tiny kernel corpus through the binary and returns the
/// module paths in stable (sorted) program order.
fn gen_corpus(dir: &Path, seed: u64) -> Vec<String> {
    let out = dir.join("corpus");
    let status = rid()
        .args(["gen-kernel", "--tiny", "--seed", &seed.to_string(), "--out"])
        .arg(&out)
        .status()
        .unwrap();
    assert!(status.success());
    let mut files: Vec<String> = std::fs::read_dir(&out)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|e| e == "ril"))
        .map(|p| p.display().to_string())
        .collect();
    files.sort();
    assert!(!files.is_empty());
    files
}

struct Run {
    stdout: Vec<u8>,
    db: Vec<u8>,
    code: i32,
}

/// One `rid analyze --json --save-summaries` invocation with `extra`
/// arguments, an optional `--fault-plan` and an optional `--cache`.
fn analyze(
    corpus: &[String],
    dir: &Path,
    tag: &str,
    extra: &[&str],
    plan: Option<&Path>,
    cache: Option<&Path>,
) -> Run {
    let db_path = dir.join(format!("db-{tag}.json"));
    let mut cmd = rid();
    cmd.arg("analyze").args(corpus).arg("--json").arg("--save-summaries").arg(&db_path);
    cmd.args(extra);
    if let Some(path) = plan {
        cmd.arg("--fault-plan").arg(path);
    }
    if let Some(path) = cache {
        cmd.arg("--cache").arg(path);
    }
    let Output { status, stdout, stderr } = cmd.output().unwrap();
    let code = status.code().unwrap_or(-1);
    assert!(
        (0..=2).contains(&code),
        "analysis must not be fatal ({tag}): {}",
        String::from_utf8_lossy(&stderr)
    );
    Run { stdout, db: std::fs::read(&db_path).unwrap(), code }
}

fn assert_identical(reference: &Run, run: &Run, what: &str) {
    assert_eq!(reference.code, run.code, "exit codes diverge: {what}");
    assert!(reference.stdout == run.stdout, "`--json` stdout bytes diverge: {what}");
    assert!(reference.db == run.db, "summary DB bytes diverge: {what}");
}

/// Runs the threads × store-temperature matrix for one fault plan and
/// asserts byte-identity against the 1-thread plain reference
/// throughout, and RIDSS1 store bytes against the 1-thread store.
fn differential_matrix(name: &str, seed: u64, plan: &FaultPlan) {
    let dir = tempdir(name);
    let corpus = gen_corpus(&dir, seed);
    let plan_path = (!plan.is_none()).then(|| {
        let path = dir.join("plan.json");
        std::fs::write(&path, serde_json::to_string(plan).unwrap()).unwrap();
        path
    });
    let plan_arg = plan_path.as_deref();

    let reference = analyze(&corpus, &dir, "ref", &[], plan_arg, None);
    assert!(reference.code != 0 || name == "clean", "corpus should surface bugs: {name}");

    let mut ref_store: Option<Vec<u8>> = None;
    for threads in ["1", "2", "4"] {
        let args = ["--threads", threads];
        let plain = analyze(&corpus, &dir, &format!("t{threads}"), &args, plan_arg, None);
        assert_identical(&reference, &plain, &format!("{name}: plain, {threads} thread(s)"));

        let store = dir.join(format!("t{threads}.rss"));
        let cold =
            analyze(&corpus, &dir, &format!("t{threads}-c0"), &args, plan_arg, Some(&store));
        assert_identical(&reference, &cold, &format!("{name}: cold cache, {threads} thread(s)"));
        let warm =
            analyze(&corpus, &dir, &format!("t{threads}-c1"), &args, plan_arg, Some(&store));
        assert_identical(&reference, &warm, &format!("{name}: warm cache, {threads} thread(s)"));

        let bytes = std::fs::read(&store).unwrap();
        let expected = ref_store.get_or_insert_with(|| bytes.clone());
        assert!(
            *expected == bytes,
            "{name}: RIDSS1 store bytes diverge at {threads} thread(s)"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn threads_match_sequential_clean() {
    differential_matrix("clean", 7, &FaultPlan::none());
}

#[test]
fn threads_match_sequential_under_panic_faults() {
    differential_matrix(
        "panic",
        11,
        &FaultPlan { seed: 42, panic_rate: 0.08, ..FaultPlan::none() },
    );
}

#[test]
fn threads_match_sequential_under_stall_faults() {
    differential_matrix(
        "stall",
        13,
        &FaultPlan { seed: 9, stall_rate: 0.25, ..FaultPlan::none() },
    );
}

#[test]
fn steal_batch_does_not_change_output() {
    let dir = tempdir("steal-batch");
    let corpus = gen_corpus(&dir, 5);
    let reference = analyze(&corpus, &dir, "sb-ref", &[], None, None);
    for batch in ["1", "4", "64"] {
        let db_path = dir.join(format!("db-sb{batch}.json"));
        let output = rid()
            .arg("analyze")
            .args(&corpus)
            .args(["--json", "--threads", "4", "--steal-batch", batch, "--save-summaries"])
            .arg(&db_path)
            .output()
            .unwrap();
        assert_eq!(output.status.code(), Some(reference.code));
        assert!(output.stdout == reference.stdout, "steal-batch {batch} changed reports");
        assert!(
            std::fs::read(&db_path).unwrap() == reference.db,
            "steal-batch {batch} changed summaries"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// `--separate` analyzes module groups in dependency order through the
/// same scheduler, so its reports and carried summaries must not depend
/// on the thread count either.
#[test]
fn separate_threads_match_sequential() {
    let dir = tempdir("separate");
    let corpus = gen_corpus(&dir, 3);
    let reference = analyze(&corpus, &dir, "sep-ref", &["--separate"], None, None);
    assert_ne!(reference.code, 0, "corpus should surface bugs");
    for threads in ["2", "4"] {
        let args = ["--separate", "--threads", threads];
        let run = analyze(&corpus, &dir, &format!("sep-t{threads}"), &args, None, None);
        assert_identical(&reference, &run, &format!("separate, {threads} thread(s)"));
    }
    let _ = std::fs::remove_dir_all(&dir);
}
