//! Input generator and layer replay for the RID benchmark.
//!
//! `perfbench/run.py` drives this binary in two roles:
//!
//! - `gen --workload W --seed N --out DIR` writes the workload's seeded
//!   corpus to `DIR/src/*.ril`, plus `DIR/truth.json`: the ground truth
//!   (taken from `rid_corpus`, never from RID), the seeded edit plan and
//!   the daemon's probe templates.
//! - `layers --dir DIR --threads T --cli-json FILE`
//!   replays the work of `DIR`'s workload (named in `DIR/truth.json`)
//!   through the public calls of the layers that workload loads, times
//!   each layer, and prints one JSON object: the per-layer metrics, the
//!   layer time the runner reconciles against the CLI's wall clock, and
//!   the list of failed checks. `FILE` holds the reports a
//!   `rid analyze --json` process printed for the same files; the batch
//!   replay must reproduce them as a multiset of report hashes.

use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};
use std::str::FromStr;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rid_core::{
    analyze_program, analyze_program_cached, check_ipps, classify_reports, refute_report,
    report_hash, summarize_paths_mode, AnalysisOptions, AnalysisResult, BudgetMeter, CallGraph,
    DegradeReason, FaultPlan, IppReport, RefuteVerdict, SummaryCache, SummaryDb,
};
use rid_corpus::kernel::{generate_kernel, KernelConfig};
use rid_ir::Program;
use rid_obs::SpanKind;
use rid_serve::{Engine, Request, ServerConfig};
use serde_json::Value;

/// Diamonds per adversarial path-explosion function (2^14 structural
/// paths, truncated by the default path cap).
const ADVERSARIAL_DEPTH: usize = 14;
/// Adversarial modules in the `branchy-refute` corpus.
const ADVERSARIAL_MODULES: usize = 48;
/// Seeded-spurious modules in the `branchy-refute` corpus.
const SEEDED_SPURIOUS: usize = 24;

/// The two clean bodies an edit alternates between. `@NAME@` is the
/// function name and `@K@` its return constant. Both balance every
/// `pm_runtime_get_sync` on every path, so an edit never changes the
/// ground truth, and both call refcount APIs, so selective analysis
/// always executes them.
const SHAPE_A: &str =
    "fn @NAME@(dev) { pm_runtime_get_sync(dev); pm_runtime_put(dev); return @K@; }";
const SHAPE_B: &str = "fn @NAME@(dev) { let r = pm_runtime_get_sync(dev); \
     if (r < 0) { pm_runtime_put_noidle(dev); return r; } pm_runtime_put(dev); return @K@; }";
/// Name of the function the daemon workload patches.
const PROBE: &str = "__bench_probe";
/// Source bytes per registration request (as in `run.py`).
const REGISTER_CHUNK: usize = 32_000;
/// Repetitions of each timed layer call; a layer reports the median.
const REPS: usize = 5;
/// In-process `patch` requests the serve layer times (and half as many
/// `diff`s).
const SERVE_REQUESTS: usize = 200;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("gen") => flags(&args[1..], &["workload", "seed", "out"]).and_then(|f| gen(&f)),
        Some("layers") => {
            flags(&args[1..], &["dir", "threads", "cli-json"]).and_then(|f| layers(&f))
        }
        _ => Err("usage: rid-perfbench gen|layers --flag value ...".to_owned()),
    };
    if let Err(message) = result {
        eprintln!("rid-perfbench: {message}");
        std::process::exit(2);
    }
}

type Flags = BTreeMap<String, String>;

/// `--name value` pairs; every name must be one of `known`.
fn flags(args: &[String], known: &[&str]) -> Result<Flags, String> {
    args.chunks(2)
        .map(|pair| {
            let name = pair[0]
                .strip_prefix("--")
                .filter(|name| known.contains(name));
            let name = name.ok_or_else(|| format!("unexpected argument `{}`", pair[0]))?;
            let value = pair
                .get(1)
                .ok_or_else(|| format!("--{name} needs a value"))?;
            Ok((name.to_owned(), value.clone()))
        })
        .collect()
}

fn flag<T: FromStr>(flags: &Flags, name: &str) -> Result<T, String> {
    let text = flags
        .get(name)
        .ok_or_else(|| format!("--{name} is required"))?;
    text.parse()
        .map_err(|_| format!("--{name}: cannot parse `{text}`"))
}

fn shape(template: &str, name: &str, k: &str) -> String {
    template.replace("@NAME@", name).replace("@K@", k)
}

fn corpus_config(workload: &str, seed: u64) -> Result<KernelConfig, String> {
    match workload {
        "kernel-cold" | "kernel-warm-edit" | "daemon-mixed" => Ok(KernelConfig::evaluation(seed)),
        "branchy-refute" => Ok(KernelConfig {
            adversarial_modules: ADVERSARIAL_MODULES,
            adversarial_depth: ADVERSARIAL_DEPTH,
            seeded_spurious: SEEDED_SPURIOUS,
            subsystems: 1,
            drivers_per_subsystem: 1,
            filler_modules: 1,
            filler_functions_per_module: 1,
            ..KernelConfig::evaluation(seed)
        }),
        other => Err(format!("unknown workload `{other}`")),
    }
}

fn strings<'a>(items: impl IntoIterator<Item = &'a str>) -> Value {
    Value::Seq(
        items
            .into_iter()
            .map(|s| Value::Str(s.to_owned()))
            .collect(),
    )
}

/// `gen`: the workload's inputs, byte-identical for one seed.
fn gen(flags: &Flags) -> Result<(), String> {
    let workload: String = flag(flags, "workload")?;
    let seed: u64 = flag(flags, "seed")?;
    let out = PathBuf::from(flag::<String>(flags, "out")?);
    let corpus = generate_kernel(&corpus_config(&workload, seed)?);

    let src = out.join("src");
    std::fs::create_dir_all(&src).map_err(|e| format!("{}: {e}", src.display()))?;
    let names: Vec<String> = (0..corpus.sources.len())
        .map(|i| format!("m{i:04}.ril"))
        .collect();
    for (name, text) in names.iter().zip(&corpus.sources) {
        std::fs::write(src.join(name), text).map_err(|e| format!("{name}: {e}"))?;
    }

    // About 1% of the modules, drawn by seed, each get an appended edit
    // function in two alternating variants (a variant is applied as
    // `module + "\n" + function + "\n"`); the first also hosts the
    // daemon's probe.
    let count = (names.len() / 100).max(1);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed_ed17);
    let mut picked = BTreeSet::new();
    while picked.len() < count {
        picked.insert(rng.gen_range(0..names.len()));
    }
    let edits: Vec<Value> = picked
        .iter()
        .map(|&i| {
            let function = format!("__edit_{i}");
            serde_json::json!({
                "file": names[i].clone(),
                "function": function.clone(),
                "a": shape(SHAPE_A, &function, "0"),
                "b": shape(SHAPE_B, &function, "0"),
            })
        })
        .collect();
    let probe_file = names[*picked.iter().next().expect("at least one edit")].clone();

    let probe = serde_json::json!({
        "file": probe_file,
        "function": PROBE,
        "a": shape(SHAPE_A, PROBE, "@K@"),
        "b": shape(SHAPE_B, PROBE, "@K@"),
    });
    let truth = serde_json::json!({
        "workload": workload,
        "seed": seed,
        "functions": corpus.function_count,
        "detectable": strings(corpus.detectable_bug_functions()),
        "undetectable": strings(corpus.missed_bug_functions()),
        "expected_fp": strings(corpus.expected_false_positives.iter().map(String::as_str)),
        "spurious": strings(corpus.spurious_functions.iter().map(String::as_str)),
        "adversarial": strings(corpus.adversarial_functions.iter().map(String::as_str)),
        "edits": Value::Seq(edits),
        "probe": probe,
    });
    let text = serde_json::to_string_pretty(&truth).map_err(|e| e.to_string())?;
    std::fs::write(out.join("truth.json"), text).map_err(|e| format!("truth.json: {e}"))
}

fn timed<T>(f: impl FnOnce() -> T) -> (f64, T) {
    let start = Instant::now();
    let value = f();
    (start.elapsed().as_secs_f64(), value)
}

fn quantile(values: &[f64], q: f64) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((sorted.len() as f64 * q).ceil() as usize).clamp(1, sorted.len().max(1));
    sorted.get(rank - 1).copied().unwrap_or(0.0)
}

fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

fn ratio(num: usize, den: usize) -> f64 {
    num as f64 / den.max(1) as f64
}

fn span_s(trace: &rid_obs::Trace, kind: SpanKind) -> f64 {
    trace
        .events
        .iter()
        .filter(|e| e.kind == kind)
        .map(|e| e.dur_ns)
        .sum::<u64>() as f64
        / 1e9
}

/// Resolved callees plus unresolved externals, sorted: the provenance
/// callee list the driver records on each report.
fn callee_names(graph: &CallGraph, i: usize) -> Vec<String> {
    let mut names: Vec<String> = graph
        .callees(i)
        .iter()
        .map(|&j| graph.name(j).to_owned())
        .chain(graph.unknown_callees(i).iter().cloned())
        .collect();
    names.sort();
    names.dedup();
    names
}

/// One sequential pass of the driver's pipeline through public calls,
/// with per-layer time and counts.
#[derive(Default)]
struct Pass {
    wall_s: f64,
    callgraph_s: f64,
    sccs: usize,
    classify_s: f64,
    analyzed: usize,
    total: usize,
    enumerate_s: f64,
    paths: usize,
    capped: usize,
    exec_s: f64,
    states: usize,
    blocks_executed: usize,
    blocks_saved: usize,
    solve_s: f64,
    queries: usize,
    memo_hits: usize,
    sat: usize,
    unsat: usize,
    ipp_s: f64,
    reports_stage1: usize,
    stage1_functions: BTreeSet<String>,
    refute_s: f64,
    refuted: usize,
    inconclusive: usize,
    reports: Vec<IppReport>,
}

impl Pass {
    /// Sum of the layers' self times inside the pass.
    fn layers_s(&self) -> f64 {
        self.callgraph_s
            + self.classify_s
            + self.enumerate_s
            + self.exec_s
            + self.solve_s
            + self.ipp_s
            + self.refute_s
    }
}

/// Replays what `analyze_program` does at one thread: call graph and
/// condensation, classification, then every analyzed function in
/// callee-before-caller order (summarize, IPP check, summary), then
/// refutation of every stage-one report. With `traced`, rid-obs spans
/// split the executor's time into enumeration, solver and the rest;
/// draining them is excluded from the pass's wall clock.
fn pass(program: &Program, apis: &SummaryDb, traced: bool) -> Pass {
    let options = AnalysisOptions::default();
    if traced {
        rid_obs::trace::enable(rid_obs::trace::DEFAULT_CAPACITY);
    }
    let mut p = Pass::default();
    let mut untimed = 0.0;
    let start = Instant::now();

    let (s, (graph, cond)) = timed(|| {
        let graph = CallGraph::build(program);
        let cond = graph.condensation();
        (graph, cond)
    });
    p.callgraph_s = s;
    p.sccs = cond.members.len();
    let (s, classification) = timed(|| rid_core::classify::classify(program, &graph, apis));
    p.classify_s = s;
    let counts = classification.counts();
    p.analyzed = counts.refcount_changing + counts.affecting_analyzed;
    p.total = counts.total();

    let functions = program.functions();
    let mut db = apis.clone();
    let mut reports = Vec::new();
    for &i in cond.members.iter().flatten() {
        let func = functions[i];
        let name = func.name();
        if apis.contains(name) || !classification.category(name).is_analyzed() {
            continue;
        }
        let (s, outcome) = timed(|| {
            summarize_paths_mode(
                func,
                &db,
                &options.limits,
                options.sat,
                &BudgetMeter::unlimited(),
                None,
                options.exec_mode,
            )
        });
        let (enumerate_s, solve_s) = if traced {
            let (d, trace) = timed(rid_obs::drain);
            untimed += d;
            (
                span_s(&trace, SpanKind::Enumerate),
                span_s(&trace, SpanKind::Solve),
            )
        } else {
            (0.0, 0.0)
        };
        p.enumerate_s += enumerate_s;
        p.solve_s += solve_s;
        p.exec_s += s - enumerate_s - solve_s;
        p.paths += outcome.paths_enumerated;
        p.capped += usize::from(outcome.degrade == Some(DegradeReason::PathCap));
        p.states += outcome.states_explored;
        p.blocks_executed += outcome.blocks_executed;
        p.blocks_saved += outcome.blocks_saved;
        p.queries += outcome.sat_queries;
        p.memo_hits += outcome.sat_memo_hits;
        p.sat += outcome.sat_sat;
        p.unsat += outcome.sat_unsat;

        let (s, mut ipp) = timed(|| check_ipps(name, &outcome.path_entries, options.sat));
        p.ipp_s += s;
        let callees = callee_names(&graph, i);
        for report in &mut ipp.reports {
            if let Some(provenance) = report.provenance.as_mut() {
                provenance.callees = callees.clone();
            }
        }
        let summary =
            rid_core::ipp::build_summary(name, &outcome.path_entries, &ipp, outcome.partial);
        reports.extend(ipp.reports);
        db.insert(summary);
    }
    p.reports_stage1 = reports.len();
    p.stage1_functions = reports.iter().map(|r| r.function.clone()).collect();

    reports.retain_mut(|report| {
        let (s, verdict) = timed(|| refute_report(report, &db, None));
        p.refute_s += s;
        match verdict {
            RefuteVerdict::Refuted => p.refuted += 1,
            RefuteVerdict::Inconclusive => p.inconclusive += 1,
            RefuteVerdict::Confirmed => {}
        }
        if let Some(provenance) = report.provenance.as_mut() {
            provenance.refutation = Some(verdict);
        }
        verdict != RefuteVerdict::Refuted
    });
    reports.sort_by(|a, b| {
        (&a.function, &a.refcount, a.path_a, a.path_b).cmp(&(
            &b.function,
            &b.refcount,
            b.path_a,
            b.path_b,
        ))
    });
    p.wall_s = start.elapsed().as_secs_f64() - untimed;
    if traced {
        rid_obs::trace::disable();
        let _ = rid_obs::drain();
    }
    p.reports = reports;
    p
}

fn sorted_hashes(reports: &[IppReport]) -> Vec<String> {
    let mut hashes: Vec<String> = reports.iter().map(report_hash).collect();
    hashes.sort();
    hashes
}

fn parse_program(sources: &[(String, String)]) -> Result<Program, String> {
    rid_frontend::parse_program(sources.iter().map(|(_, text)| text.as_str()))
        .map_err(|e| e.to_string())
}

/// `text` plus one appended function, the way every edit is applied.
fn append(text: &str, function: &str) -> String {
    format!("{text}\n{function}\n")
}

/// `sources` with every edited module carrying edit `variant` ("a" or
/// "b"), whichever variant (if any) the files hold now.
fn with_edits(
    sources: &[(String, String)],
    edits: &[Value],
    variant: &str,
) -> Vec<(String, String)> {
    let mut out = sources.to_vec();
    for edit in edits {
        let file = edit["file"].as_str().unwrap_or_default();
        if let Some(slot) = out.iter_mut().find(|(name, _)| name == file) {
            let mut base = slot.1.as_str();
            for old in ["a", "b"] {
                let suffix = append("", edit[old].as_str().unwrap_or_default());
                base = base.strip_suffix(&suffix).unwrap_or(base);
            }
            slot.1 = append(base, edit[variant].as_str().unwrap_or_default());
        }
    }
    out
}

fn str_list(value: &Value) -> Vec<String> {
    value
        .as_array()
        .map(|items| {
            items
                .iter()
                .filter_map(|v| v.as_str().map(str::to_owned))
                .collect()
        })
        .unwrap_or_default()
}

/// Collects per-layer metrics (name → value) and failed checks.
#[derive(Default)]
struct Out {
    metrics: Vec<(String, Value)>,
    failures: Vec<String>,
}

impl Out {
    fn put(&mut self, name: &str, value: f64) {
        self.metrics.push((name.to_owned(), Value::Float(value)));
    }

    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(what());
        }
    }
}

/// One daemon reply, parsed; a failed check when it is not `ok`.
fn reply(out: &mut Out, replies: &[((), String)], what: &str) -> Value {
    let value = replies
        .first()
        .and_then(|(_, line)| serde_json::from_str::<Value>(line).ok())
        .unwrap_or(Value::Null);
    out.check(value["ok"].as_bool() == Some(true), || {
        format!("{what}: not ok: {replies:?}")
    });
    value
}

/// The serve layer in process: a durable engine over the same sources,
/// timed per `handle_line` for probe patches and baseline diffs, and the
/// journal append on its own.
fn serve_layer(
    out: &mut Out,
    dir: &Path,
    sources: &[(String, String)],
    probe: &Value,
    baseline: &[String],
    requests: usize,
) -> Result<(), String> {
    let state = dir.join("replay-serve");
    let _ = std::fs::remove_dir_all(&state);
    std::fs::create_dir_all(&state).map_err(|e| e.to_string())?;
    let config = ServerConfig {
        state_dir: Some(state.clone()),
        ..ServerConfig::default()
    };
    let mut engine: Engine<()> = Engine::recover(config).map_err(|e| e.to_string())?;
    // Registered the way the runner registers the real daemon: one
    // `register`, then `patch`es adding modules, each request line at
    // most REGISTER_CHUNK bytes of source (request parsing is quadratic
    // in the line length).
    let mut chunks: Vec<Vec<(String, String)>> = vec![Vec::new()];
    let mut size = 0;
    for (name, text) in sources {
        if size + text.len() > REGISTER_CHUNK && !chunks[chunks.len() - 1].is_empty() {
            chunks.push(Vec::new());
            size = 0;
        }
        size += text.len();
        chunks
            .last_mut()
            .expect("non-empty")
            .push((name.clone(), text.clone()));
    }
    for (k, chunk) in chunks.into_iter().enumerate() {
        let mut request = Request::new(
            10 + k as u64,
            if k == 0 { "register" } else { "patch" },
            "bench",
        );
        request.sources = chunk.into_iter().collect();
        reply(out, &engine.handle_line((), &request.to_line()), "register");
    }
    reply(
        out,
        &engine.handle_line((), &Request::new(2, "analyze", "bench").to_line()),
        "analyze",
    );

    let file = probe["file"].as_str().unwrap_or_default().to_owned();
    let base = sources
        .iter()
        .find(|(name, _)| *name == file)
        .map(|(_, t)| t.clone());
    let base = base.ok_or_else(|| format!("probe file {file} missing"))?;
    let patch_line = |k: usize| {
        let template = probe[if k.is_multiple_of(2) { "a" } else { "b" }]
            .as_str()
            .unwrap_or_default();
        let mut request = Request::new(100 + k as u64, "patch", "bench");
        request.sources.insert(
            file.clone(),
            format!("{base}\n{}\n", template.replace("@K@", &k.to_string())),
        );
        request.to_line()
    };
    reply(out, &engine.handle_line((), &patch_line(0)), "seed patch");

    let mut patch_ms = Vec::new();
    let mut lines = Vec::new();
    for k in 1..=requests {
        let line = patch_line(k);
        let (s, replies) = timed(|| engine.handle_line((), &line));
        patch_ms.push(s * 1e3);
        let value = reply(out, &replies, "patch");
        let changed = str_list(&value["result"]["changed"]);
        out.check(changed == [PROBE], || {
            format!("patch changed {changed:?}, not [{PROBE}]")
        });
        lines.push(line);
    }
    let mut diff_ms = Vec::new();
    for k in 0..requests / 2 {
        let mut request = Request::new(100_000 + k as u64, "diff", "bench");
        request.baseline = Some(baseline.to_vec());
        let line = request.to_line();
        let (s, replies) = timed(|| engine.handle_line((), &line));
        diff_ms.push(s * 1e3);
        let value = reply(out, &replies, "diff");
        let new = value["result"]["new_count"].as_i64();
        out.check(new == Some(0), || format!("diff new_count {new:?}, not 0"));
    }
    drop(engine);

    let journal_dir = dir.join("replay-journal");
    let _ = std::fs::remove_dir_all(&journal_dir);
    std::fs::create_dir_all(&journal_dir).map_err(|e| e.to_string())?;
    let mut journal = rid_serve::journal::Journal::open(&journal_dir).map_err(|e| e.to_string())?;
    let mut append_ms = Vec::new();
    for line in &lines {
        let (s, result) = timed(|| journal.append(line, None));
        result.map_err(|e| e.to_string())?;
        append_ms.push(s * 1e3);
    }
    drop(journal);
    let _ = std::fs::remove_dir_all(&state);
    let _ = std::fs::remove_dir_all(&journal_dir);

    out.put("serve.patch_service_ms.p50", median(&patch_ms));
    out.put("serve.patch_service_ms.p99", quantile(&patch_ms, 0.99));
    out.put("serve.diff_service_ms.p50", median(&diff_ms));
    out.put("serve.journal_append_ms.p50", median(&append_ms));
    out.put("serve.journal_append_ms.p99", quantile(&append_ms, 0.99));
    Ok(())
}

/// The frontend and IR layers, on every workload: whole-corpus parse,
/// one-module parse of the probe's module, and the resident IR size.
/// Returns the median whole-corpus parse time and the program.
fn frontend_layer(
    out: &mut Out,
    sources: &[(String, String)],
    probe_file: &str,
    reps: usize,
) -> Result<(f64, Program), String> {
    let bytes: usize = sources.iter().map(|(_, t)| t.len()).sum();
    let mut parse_s = Vec::new();
    for _ in 0..reps {
        let (s, program) = timed(|| parse_program(sources));
        program?;
        parse_s.push(s);
    }
    let program = parse_program(sources)?;
    let probe_text = sources
        .iter()
        .find(|(n, _)| n == probe_file)
        .map(|(_, t)| t.as_str());
    let probe_text = probe_text.ok_or_else(|| format!("probe file {probe_file} missing"))?;
    let mut module_ms = Vec::new();
    for _ in 0..reps * 20 {
        let (s, module) = timed(|| rid_frontend::parse_module(probe_text));
        module.map_err(|e| e.to_string())?;
        module_ms.push(s * 1e3);
    }
    let parse_s = median(&parse_s);
    out.put("frontend.parse_s", parse_s);
    out.put("frontend.mb_per_s", bytes as f64 / 1e6 / parse_s.max(1e-9));
    out.put("frontend.parse_module_ms", median(&module_ms));
    out.put(
        "ir.resident_mb",
        rid_ir::measure_program(&program).resident_bytes as f64 / 1e6,
    );
    Ok((parse_s, program))
}

/// The batch layers (callgraph through refute, and the driver) on the
/// corpus a `rid analyze` process sees; on `kernel-warm-edit` also the
/// cache/store/persist layer. Returns the driver-side time on the CLI's
/// blocking path: the analysis, plus the store's open and save when the
/// CLI runs with a cache.
#[allow(clippy::too_many_arguments)]
fn batch_layers(
    out: &mut Out,
    program: &Program,
    sources: &[(String, String)],
    truth: &Value,
    cli_hashes: &[String],
    options: &AnalysisOptions,
    reps: usize,
    cache_path: &Path,
) -> Result<f64, String> {
    let apis = rid_core::apis::linux_dpm_apis();

    // The traced sequential pass, and the same pass untraced for the
    // tracing overhead.
    let mut traced: Vec<Pass> = Vec::new();
    let mut untraced_s = Vec::new();
    for _ in 0..reps {
        untraced_s.push(pass(program, &apis, false).wall_s);
        traced.push(pass(program, &apis, true));
    }
    traced.sort_by(|a, b| a.wall_s.total_cmp(&b.wall_s));
    let p = &traced[traced.len() / 2];
    out.put("callgraph.build_s", p.callgraph_s);
    out.put("callgraph.sccs", p.sccs as f64);
    out.put("classify.s", p.classify_s);
    out.put("classify.analyzed_share", ratio(p.analyzed, p.total));
    out.put("paths.enumerate_s", p.enumerate_s);
    out.put("paths.paths", p.paths as f64);
    out.put("paths.capped_functions", p.capped as f64);
    out.put("exec.s", p.exec_s);
    out.put("exec.states", p.states as f64);
    out.put("exec.blocks_executed", p.blocks_executed as f64);
    out.put(
        "exec.blocks_saved_share",
        ratio(p.blocks_saved, p.blocks_saved + p.blocks_executed),
    );
    out.put("solver.s", p.solve_s);
    out.put("solver.queries", p.queries as f64);
    out.put("solver.memo_hit_share", ratio(p.memo_hits, p.queries));
    out.put("solver.unsat_share", ratio(p.unsat, p.sat + p.unsat));
    out.put("ipp.s", p.ipp_s);
    out.put("ipp.reports_stage1", p.reports_stage1 as f64);
    out.put("refute.s", p.refute_s);
    out.put("refute.refuted_share", ratio(p.refuted, p.reports_stage1));
    out.put("refute.inconclusive", p.inconclusive as f64);
    out.put(
        "trace.overhead_ratio",
        p.wall_s / median(&untraced_s).max(1e-9),
    );
    out.check(p.layers_s() <= p.wall_s, || {
        format!(
            "layer times sum to {:.6}s, above the pass's {:.6}s",
            p.layers_s(),
            p.wall_s
        )
    });

    // Ground truth the CLI cannot show: every seeded-spurious function
    // drew a stage-one report that refutation removed.
    let finals: BTreeSet<&str> = p.reports.iter().map(|r| r.function.as_str()).collect();
    for spurious in str_list(&truth["spurious"]) {
        out.check(
            p.stage1_functions.contains(&spurious) && !finals.contains(spurious.as_str()),
            || format!("seeded-spurious {spurious} was not reported then refuted"),
        );
    }

    // The replay must reproduce the CLI's reports and the in-process
    // driver's, as multisets of report hashes.
    let replay_hashes = sorted_hashes(&p.reports);
    out.check(replay_hashes == cli_hashes, || {
        format!(
            "replay has {} report hashes, the CLI {}; they differ",
            replay_hashes.len(),
            cli_hashes.len()
        )
    });

    // driver, at the workload's thread count.
    let mut driver_s = Vec::new();
    let mut driver: Option<AnalysisResult> = None;
    for _ in 0..reps {
        let (s, result) = timed(|| analyze_program(program, &apis, options));
        driver_s.push(s);
        driver = Some(result);
    }
    let driver = driver.expect("reps >= 1");
    out.check(sorted_hashes(&driver.reports) == replay_hashes, || {
        "replay reports differ from analyze_program's".to_owned()
    });
    let idle_ns: u64 = driver
        .stats
        .worker_profiles
        .iter()
        .map(|w| w.idle_wait_ns.sum)
        .sum();
    out.put("driver.steals", driver.stats.steals as f64);
    out.put("driver.idle_ms", idle_ns as f64 / 1e6);
    if truth["workload"].as_str() != Some("kernel-warm-edit") {
        let driver_s = median(&driver_s);
        out.put("driver.analyze_s", driver_s);
        return Ok(driver_s);
    }

    // cache/store/persist, the way the warm CLI run uses it: prime on
    // edit variant A, then per rep save, reopen and re-run on variant B.
    let edits = truth["edits"].as_array().cloned().unwrap_or_default();
    let program_a = parse_program(&with_edits(sources, &edits, "a"))?;
    let program_b = parse_program(&with_edits(sources, &edits, "b"))?;
    let none = FaultPlan::none();
    let mut cache = SummaryCache::new();
    let _prime = analyze_program_cached(&program_a, &apis, options, &none, Some(&mut cache));
    let mut save_s = Vec::new();
    let mut open_s = Vec::new();
    let mut warm_s = Vec::new();
    let mut warm = None;
    for _ in 0..reps {
        let (s, saved) = timed(|| rid_core::persist::save_cache(&cache, cache_path));
        saved.map_err(|e| e.to_string())?;
        save_s.push(s);
        let (s, loaded) = timed(|| rid_core::persist::load_cache(cache_path));
        let mut loaded = loaded.map_err(|e| e.to_string())?;
        open_s.push(s);
        let (s, result) =
            timed(|| analyze_program_cached(&program_b, &apis, options, &none, Some(&mut loaded)));
        warm_s.push(s);
        warm = Some(result);
    }
    let warm = warm.expect("reps >= 1");
    let store_bytes = std::fs::metadata(cache_path).map(|m| m.len()).unwrap_or(0);
    let _ = std::fs::remove_file(cache_path);
    let stats = &warm.stats;
    let (open_s, save_s, warm_s) = (median(&open_s), median(&save_s), median(&warm_s));
    out.put("store.open_s", open_s);
    out.put("store.save_s", save_s);
    out.put("store.mb", store_bytes as f64 / 1e6);
    out.put(
        "cache.hit_share",
        ratio(
            stats.cache_hits,
            stats.cache_hits + stats.cache_misses + stats.cache_invalidated,
        ),
    );
    out.put("cache.invalidated", stats.cache_invalidated as f64);
    out.put("driver.analyze_s", warm_s);
    Ok(open_s + warm_s + save_s)
}

/// The daemon's layers: incremental re-analysis and triage for the probe
/// edit the daemon's `patch` traffic makes, and the serve engine itself.
#[allow(clippy::too_many_arguments)]
fn daemon_layers(
    out: &mut Out,
    dir: &Path,
    sources: &[(String, String)],
    truth: &Value,
    cli_hashes: &[String],
    options: &AnalysisOptions,
    reps: usize,
) -> Result<(), String> {
    let apis = rid_core::apis::linux_dpm_apis();
    let probe = &truth["probe"];
    let probe_edit = |variant: &str| {
        let body = probe[variant]
            .as_str()
            .unwrap_or_default()
            .replace("@K@", "0");
        let edit =
            serde_json::json!({ "file": probe["file"].clone(), "a": body.clone(), "b": body });
        parse_program(&with_edits(sources, &[edit], "a"))
    };
    let (program_a, program_b) = (probe_edit("a")?, probe_edit("b")?);
    let previous = analyze_program(&program_a, &apis, options);

    // incremental: the probe edit, A → B, against A's result.
    let affected =
        rid_core::incremental::affected_functions(&CallGraph::build(&program_b), &[PROBE]);
    let mut reanalyze_ms = Vec::new();
    for _ in 0..reps {
        let (s, _) = timed(|| {
            rid_core::incremental::reanalyze(&program_b, &apis, &previous, &[PROBE], options)
        });
        reanalyze_ms.push(s * 1e3);
    }
    out.put("incremental.affected", affected.len() as f64);
    out.put("incremental.reanalyze_ms", median(&reanalyze_ms));

    // triage: hash every resident report and classify against the
    // CLI's baseline, as a `diff` does.
    let mut hash_s = Vec::new();
    for _ in 0..reps * 20 {
        let (s, diff) = timed(|| classify_reports(cli_hashes, &previous.reports));
        out.check(diff.new.is_empty() && diff.resolved.is_empty(), || {
            "resident reports classify as new or resolved against the CLI".to_owned()
        });
        hash_s.push(s);
    }
    out.put("triage.hash_s", median(&hash_s));

    serve_layer(out, dir, sources, probe, cli_hashes, SERVE_REQUESTS)
}

/// `layers`: the traced layer replay of one workload.
fn layers(flags: &Flags) -> Result<(), String> {
    let dir = PathBuf::from(flag::<String>(flags, "dir")?);
    let threads: usize = flag(flags, "threads")?;
    let cli_json = PathBuf::from(flag::<String>(flags, "cli-json")?);

    let truth: Value = std::fs::read_to_string(dir.join("truth.json"))
        .map_err(|e| e.to_string())
        .and_then(|t| serde_json::from_str(&t).map_err(|e| e.to_string()))?;
    let mut names: Vec<String> = std::fs::read_dir(dir.join("src"))
        .map_err(|e| e.to_string())?
        .filter_map(|entry| entry.ok()?.file_name().into_string().ok())
        .filter(|name| name.ends_with(".ril"))
        .collect();
    names.sort();
    let sources: Vec<(String, String)> = names
        .iter()
        .map(|name| {
            Ok((
                name.clone(),
                std::fs::read_to_string(dir.join("src").join(name))?,
            ))
        })
        .collect::<std::io::Result<_>>()
        .map_err(|e| e.to_string())?;
    let cli_reports: Vec<IppReport> = std::fs::read_to_string(&cli_json)
        .map_err(|e| e.to_string())
        .and_then(|t| serde_json::from_str(&t).map_err(|e| e.to_string()))?;
    let cli_hashes = sorted_hashes(&cli_reports);
    let options = AnalysisOptions {
        threads,
        ..AnalysisOptions::default()
    };
    let mut out = Out::default();

    let probe_file = truth["probe"]["file"].as_str().unwrap_or_default();
    let (parse_s, program) = frontend_layer(&mut out, &sources, probe_file, REPS)?;
    let mut blocking_s = parse_s;
    match truth["workload"].as_str() {
        Some("daemon-mixed") => daemon_layers(
            &mut out,
            &dir,
            &sources,
            &truth,
            &cli_hashes,
            &options,
            REPS,
        )?,
        _ => {
            let cache_path = dir.join("replay.cache");
            blocking_s += batch_layers(
                &mut out,
                &program,
                &sources,
                &truth,
                &cli_hashes,
                &options,
                REPS,
                &cache_path,
            )?;
        }
    }

    // `blocking_s` is what the runner reconciles against the CLI's wall
    // clock: the layers on a `rid analyze` process's blocking path.
    let result = serde_json::json!({
        "metrics": Value::Map(out.metrics),
        "blocking_s": blocking_s,
        "failures": strings(out.failures.iter().map(String::as_str)),
    });
    println!(
        "{}",
        serde_json::to_string(&result).map_err(|e| e.to_string())?
    );
    Ok(())
}
