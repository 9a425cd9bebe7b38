//! `rid` — the command-line front door to the RID reproduction.
//!
//! ```text
//! rid analyze <file.ril>... [--apis dpm|python|none] [--summaries db.json]
//!             [--save-summaries out.json] [--save-state s.json]
//!             [--threads N] [--steal-batch N] [--no-selective]
//!             [--separate] [--callbacks] [--json] [--no-refute]
//!             [--deadline-ms N] [--fuel N] [--global-deadline-ms N]
//!             [--exec-mode auto|tree|per-path] [--fault-plan plan.json]
//!             [--cache cache.json] [--trace out.json] [--metrics out.json]
//! rid explain --state s.json [<file.ril>...] [--function <name>]
//! rid diff <old-state.json> <new-state.json> [--ignore .ridignore] [--json]
//! rid suppress <hash> [--file .ridignore]
//! rid classify <file.ril>... [--apis dpm|python|none]
//! rid summarize <file.ril>... --function <name> [--apis dpm|python|none]
//! rid baseline <file.ril>... [--apis python]
//! rid recheck <file.ril>... --state s.json --changed f,g [--save-state s.json]
//! rid mine <file.ril>... [--field refs] [--save-summaries out.json]
//! rid gen-kernel [--seed N] [--tiny] --out <dir>
//! rid serve --socket <path> [--queue-cap N]   (or --stdio)
//! rid client --socket <path> --op <op> [--project p] [<file.ril>...]
//!            [--function <name>] [--deadline-ms N]
//! ```
//!
//! `rid serve` keeps analysis state resident between requests: one
//! registered project per name, warm summary cache, batched `patch`
//! requests. The protocol is newline-delimited JSON — see `PROTOCOL.md`
//! at the repository root. `rid client` wraps one request/response
//! round-trip over the daemon's Unix socket.
//!
//! `--trace <path>` records the run with [`rid_obs`] and writes a Chrome
//! `trace_event` file to `<path>` (load it in `chrome://tracing` or
//! Perfetto) plus the raw JSONL event log to `<path>.jsonl`.
//! `--metrics <path>` writes the metrics-registry snapshot as JSON.
//! `rid explain` renders the full provenance of every report in a saved
//! analysis state: per-side path constraints, the solver verdict, block
//! traces, and the callee summaries used.
//!
//! Each command accepts only the options listed for it; any other
//! `--name` is bad usage.
//!
//! Exit codes: 0 = clean, 1 = bugs reported, 2 = analysis degraded
//! (budgets/limits/panics, but no bugs), 3 = fatal error (bad usage,
//! unreadable input, parse failure). Bugs take precedence over
//! degradation.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use rid_core::persist::{
    analyze_modules_separately, load_cache, load_db, load_state, save_cache, save_db,
    save_state,
};
use rid_core::{AnalysisOptions, SummaryDb};

fn usage() -> ExitCode {
    eprintln!(
        "usage:
  rid analyze <file.ril>... [--apis dpm|python|none] [--summaries db.json]
              [--save-summaries out.json] [--save-state s.json]
              [--threads N] [--steal-batch N] [--no-selective]
              [--separate] [--callbacks] [--json] [--no-refute]
              [--deadline-ms N] [--fuel N] [--global-deadline-ms N]
              [--exec-mode auto|tree|per-path] [--fault-plan plan.json]
              [--cache cache.json] [--trace out.json] [--metrics out.json]
  rid explain --state s.json [<file.ril>...] [--function <name>]
  rid explain --flight-recorder <state-dir|dir|file.frec>
  rid diff <old-state.json> <new-state.json> [--ignore .ridignore] [--json]
  rid suppress <hash> [--file .ridignore]
  rid classify <file.ril>... [--apis dpm|python|none]
  rid summarize <file.ril>... --function <name> [--apis dpm|python|none]
  rid baseline <file.ril>... [--apis python]
  rid recheck <file.ril>... --state s.json --changed f,g [--save-state s.json]
  rid mine <file.ril>... [--field refs] [--save-summaries out.json]
  rid gen-kernel [--seed N] [--tiny] [--spurious N] --out <dir>
  rid serve --socket <path> [--queue-cap N] [--state-dir <dir>]
            [--max-frame-bytes N] [--trace out.json] [--chaos-seed N]
            [--chaos-torn-rate R] [--chaos-fsync-rate R]   (or --stdio)
  rid client --socket <path> --op <op> [--project p] [<file.ril>...]
             [--function <name>] [--baseline <old-state.json>]
             [--ignore .ridignore] [--deadline-ms N] [--idem <key>]
             [--format json|prometheus]
             [--retries N] [--retry-base-ms N] [--timeout-ms N]
  rid top --socket <path> [--interval-ms N] [--iters N]"
    );
    ExitCode::from(EXIT_FATAL)
}

/// Exit code: no bugs, nothing degraded.
const EXIT_CLEAN: u8 = 0;
/// Exit code: IPP bug reports were produced.
const EXIT_BUGS: u8 = 1;
/// Exit code: no bugs, but some functions degraded (budget/limit/panic).
const EXIT_DEGRADED: u8 = 2;
/// Exit code: fatal error (usage, I/O, parse).
const EXIT_FATAL: u8 = 3;

struct Args {
    files: Vec<PathBuf>,
    options: HashMap<String, String>,
    flags: Vec<String>,
}

/// Read by [`predefined_apis`].
const API_OPTIONS: &[&str] = &["apis", "summaries"];
/// Read by [`analysis_options`].
const ANALYSIS_OPTIONS: &[&str] =
    &["deadline-ms", "global-deadline-ms", "fuel", "exec-mode", "threads", "steal-batch"];
/// Read by [`analysis_options`].
const ANALYSIS_FLAGS: &[&str] = &["no-selective", "callbacks", "no-refute"];

/// One subcommand: its handler, the `--name value` options and the bare
/// `--name` flags it reads. Any other `--name` is bad usage, so a
/// misspelt flag can neither be ignored nor swallow the file after it.
struct Command {
    name: &'static str,
    run: fn(&Args) -> Result<u8, String>,
    options: &'static [&'static [&'static str]],
    flags: &'static [&'static [&'static str]],
}

const COMMANDS: &[Command] = &[
    Command {
        name: "analyze",
        run: cmd_analyze,
        options: &[
            API_OPTIONS,
            ANALYSIS_OPTIONS,
            &["fault-plan", "cache", "trace", "metrics", "save-summaries", "save-state"],
        ],
        flags: &[ANALYSIS_FLAGS, &["json", "separate"]],
    },
    Command {
        name: "classify",
        run: |args| cmd_classify(args).map(|()| EXIT_CLEAN),
        options: &[API_OPTIONS],
        flags: &[],
    },
    Command {
        name: "summarize",
        run: |args| cmd_summarize(args).map(|()| EXIT_CLEAN),
        options: &[API_OPTIONS, ANALYSIS_OPTIONS, &["function"]],
        flags: &[ANALYSIS_FLAGS],
    },
    Command {
        name: "baseline",
        run: |args| cmd_baseline(args).map(|()| EXIT_CLEAN),
        options: &[&["apis"]],
        flags: &[],
    },
    Command {
        name: "recheck",
        run: cmd_recheck,
        options: &[API_OPTIONS, ANALYSIS_OPTIONS, &["state", "changed", "save-state"]],
        flags: &[ANALYSIS_FLAGS],
    },
    Command {
        name: "explain",
        run: cmd_explain,
        options: &[&["state", "function", "flight-recorder"]],
        flags: &[],
    },
    Command { name: "diff", run: cmd_diff, options: &[&["ignore"]], flags: &[&["json"]] },
    Command { name: "suppress", run: cmd_suppress, options: &[&["file"]], flags: &[] },
    Command {
        name: "mine",
        run: |args| cmd_mine(args).map(|()| EXIT_CLEAN),
        options: &[&["save-summaries", "field"]],
        flags: &[],
    },
    Command {
        name: "gen-kernel",
        run: |args| cmd_gen_kernel(args).map(|()| EXIT_CLEAN),
        options: &[&["out", "seed", "spurious"]],
        flags: &[&["tiny"]],
    },
    Command {
        name: "serve",
        run: cmd_serve,
        options: &[&[
            "socket",
            "queue-cap",
            "state-dir",
            "max-frame-bytes",
            "trace",
            "chaos-seed",
            "chaos-torn-rate",
            "chaos-fsync-rate",
        ]],
        flags: &[&["stdio"]],
    },
    Command {
        name: "client",
        run: cmd_client,
        options: &[&[
            "socket",
            "op",
            "project",
            "function",
            "baseline",
            "ignore",
            "deadline-ms",
            "idem",
            "format",
            "retries",
            "retry-base-ms",
            "timeout-ms",
        ]],
        flags: &[],
    },
    Command {
        name: "top",
        run: cmd_top,
        options: &[&["socket", "interval-ms", "iters"]],
        flags: &[],
    },
];

/// Splits `argv` (without the program name) into its command, input
/// files, options and flags. `Ok(None)` asks for the usage text: no
/// command, an unknown one, or an option missing its value. A `--name`
/// the command does not read is an error naming it.
fn parse_args(argv: &[String]) -> Result<Option<(&'static Command, Args)>, String> {
    let Some((name, rest)) = argv.split_first() else { return Ok(None) };
    let Some(command) = COMMANDS.iter().find(|c| c.name == name) else { return Ok(None) };
    let mut args = Args { files: Vec::new(), options: HashMap::new(), flags: Vec::new() };
    let mut rest = rest.iter();
    while let Some(arg) = rest.next() {
        let Some(option) = arg.strip_prefix("--") else {
            args.files.push(PathBuf::from(arg));
            continue;
        };
        if command.flags.iter().copied().flatten().any(|&f| f == option) {
            args.flags.push(option.to_owned());
        } else if command.options.iter().copied().flatten().any(|&o| o == option) {
            let Some(value) = rest.next() else { return Ok(None) };
            args.options.insert(option.to_owned(), value.clone());
        } else {
            return Err(format!("unknown option `--{option}` for `rid {name}`"));
        }
    }
    Ok(Some((command, args)))
}

fn predefined_apis(args: &Args) -> Result<SummaryDb, String> {
    let mut db = match args.options.get("apis").map(String::as_str) {
        Some("dpm") | None => rid_core::apis::linux_dpm_apis(),
        Some("python") => rid_core::apis::python_c_apis(),
        Some("none") => SummaryDb::new(),
        Some(other) => return Err(format!("unknown --apis value `{other}`")),
    };
    if let Some(path) = args.options.get("summaries") {
        let loaded = load_db(Path::new(path)).map_err(|e| format!("--summaries: {e}"))?;
        db.merge(loaded);
    }
    Ok(db)
}

fn read_sources(files: &[PathBuf]) -> Result<Vec<String>, String> {
    if files.is_empty() {
        return Err("no input files".to_owned());
    }
    files
        .iter()
        .map(|p| std::fs::read_to_string(p).map_err(|e| format!("{}: {e}", p.display())))
        .collect()
}

/// The value of `--name`, if given. A value that does not parse is a
/// usage error naming the flag and `what` it expects (exit 3), never a
/// silent fallback to the default.
fn parsed<T: std::str::FromStr>(args: &Args, name: &str, what: &str) -> Result<Option<T>, String> {
    args.options
        .get(name)
        .map(|v| v.parse().map_err(|_| format!("--{name} expects {what}, got `{v}`")))
        .transpose()
}

fn analysis_options(args: &Args) -> Result<AnalysisOptions, String> {
    let ms_option = |name: &str| -> Result<Option<std::time::Duration>, String> {
        Ok(parsed(args, name, "milliseconds")?.map(std::time::Duration::from_millis))
    };
    let budget = rid_core::Budget {
        func_deadline: ms_option("deadline-ms")?,
        global_deadline: ms_option("global-deadline-ms")?,
        solver_fuel: parsed(args, "fuel", "a number")?,
    };
    let exec_mode = match args.options.get("exec-mode").map(String::as_str) {
        None | Some("auto") => rid_core::ExecMode::Auto,
        Some("tree") => rid_core::ExecMode::Tree,
        Some("per-path") => rid_core::ExecMode::PerPath,
        Some(other) => return Err(format!("unknown --exec-mode value `{other}`")),
    };
    Ok(AnalysisOptions {
        selective: !args.flags.iter().any(|f| f == "no-selective"),
        check_callbacks: args.flags.iter().any(|f| f == "callbacks"),
        refute: !args.flags.iter().any(|f| f == "no-refute"),
        threads: parsed(args, "threads", "a count")?.unwrap_or(1),
        steal_batch: parsed(args, "steal-batch", "a count")?.unwrap_or(0),
        budget,
        exec_mode,
        ..Default::default()
    })
}

/// Prints the one-line degradation summary (when anything degraded) and
/// picks the exit code: bugs beat degradation beats clean.
fn finish_analysis(result: &rid_core::AnalysisResult) -> u8 {
    let line = rid_core::degradation_summary_line(result.degraded.values());
    if !line.is_empty() {
        eprintln!("{line}");
    }
    if !result.reports.is_empty() {
        EXIT_BUGS
    } else if !result.degraded.is_empty() {
        EXIT_DEGRADED
    } else {
        EXIT_CLEAN
    }
}

fn cmd_analyze(args: &Args) -> Result<u8, String> {
    let trace_path = args.options.get("trace").map(PathBuf::from);
    let metrics_path = args.options.get("metrics").map(PathBuf::from);
    if trace_path.is_some() {
        // Enable before parsing so the Lower spans are captured too.
        rid_obs::trace::enable(rid_obs::trace::DEFAULT_CAPACITY);
    }

    let sources = read_sources(&args.files)?;
    let apis = predefined_apis(args)?;
    let options = analysis_options(args)?;
    // Fault plans are a testing instrument: they let the differential
    // suite drive `--threads` runs through the exact degradation
    // machinery a sequential reference run hits.
    let faults: rid_core::FaultPlan = match args.options.get("fault-plan") {
        Some(path) => serde_json::from_str(
            &std::fs::read_to_string(path).map_err(|e| format!("--fault-plan: {path}: {e}"))?,
        )
        .map_err(|e| format!("--fault-plan: {path}: {e}"))?,
        None => rid_core::FaultPlan::none(),
    };

    let cache_path = args.options.get("cache").map(PathBuf::from);
    let json = args.flags.iter().any(|f| f == "json");
    // Every path parses each source once and hands text output the
    // program it analyzed, for parameter names.
    let (result, program) = if args.flags.iter().any(|f| f == "separate") {
        if cache_path.is_some() {
            return Err("--cache is not supported with --separate".to_owned());
        }
        if !faults.is_none() {
            return Err("--fault-plan is not supported with --separate".to_owned());
        }
        // §5.3 mode: analyze compilation units separately in dependency
        // order, carrying summaries between groups.
        let modules: Vec<rid_ir::Module> =
            rid_frontend::parse_sources(sources.iter().map(String::as_str))
                .collect::<Result<_, _>>()
                .map_err(|e| e.to_string())?;
        let result =
            analyze_modules_separately(&modules, &apis, &options).map_err(|e| e.to_string())?;
        // Text output links the analyzed modules for parameter names; a
        // link conflict between groups only costs the names.
        let program = if json {
            None
        } else {
            let mut program = rid_ir::Program::new();
            modules.into_iter().try_for_each(|m| program.link(m)).ok().map(|()| program)
        };
        (result, program)
    } else {
        let program = rid_frontend::parse_program(sources.iter().map(String::as_str))
            .map_err(|e| e.to_string())?;
        // A missing cache file is a cold start, not an error; anything
        // else (unreadable, garbage, foreign schema) is fatal.
        let mut cache = match &cache_path {
            Some(path) if path.exists() => {
                Some(load_cache(path).map_err(|e| format!("--cache: {e}"))?)
            }
            Some(_) => Some(rid_core::SummaryCache::new()),
            None => None,
        };
        let result = rid_core::analyze_program_cached(
            &program,
            &apis,
            &options,
            &faults,
            cache.as_mut(),
        );
        if let (Some(path), Some(cache)) = (&cache_path, &cache) {
            save_cache(cache, path).map_err(|e| format!("--cache: {e}"))?;
            eprintln!(
                "cache: {} hit(s), {} miss(es), {} invalidated; {} entries in {}",
                result.stats.cache_hits,
                result.stats.cache_misses,
                result.stats.cache_invalidated,
                cache.len(),
                path.display()
            );
        }
        (result, Some(program))
    };

    if json {
        let rendered = serde_json::to_string_pretty(&result.reports)
            .map_err(|e| e.to_string())?;
        println!("{rendered}");
    } else {
        print!("{}", rid_core::render_reports(&result.reports, program.as_ref()));
        eprintln!(
            "{} function(s), {} analyzed, {} report(s)",
            result.stats.functions_total,
            result.stats.functions_analyzed,
            result.reports.len()
        );
    }
    if let Some(path) = args.options.get("save-summaries") {
        save_db(&result.summaries, Path::new(path)).map_err(|e| e.to_string())?;
        eprintln!("summaries saved to {path}");
    }
    if let Some(path) = args.options.get("save-state") {
        save_state(&result, Path::new(path)).map_err(|e| e.to_string())?;
        eprintln!("analysis state saved to {path}");
    }

    let trace = trace_path.as_ref().map(|_| {
        rid_obs::trace::disable();
        rid_obs::drain()
    });
    if let (Some(path), Some(trace)) = (&trace_path, &trace) {
        std::fs::write(path, trace.to_chrome_json())
            .map_err(|e| format!("--trace: {}: {e}", path.display()))?;
        let jsonl_path = PathBuf::from(format!("{}.jsonl", path.display()));
        std::fs::write(&jsonl_path, trace.to_jsonl())
            .map_err(|e| format!("--trace: {}: {e}", jsonl_path.display()))?;
        eprintln!(
            "trace: {} event(s) ({} dropped) written to {} (+ {})",
            trace.events.len(),
            trace.dropped,
            path.display(),
            jsonl_path.display()
        );
    }
    if let Some(path) = &metrics_path {
        let mut registry = rid_core::registry_from_result(&result);
        if let Some(trace) = &trace {
            rid_core::record_trace(&mut registry, trace);
        }
        std::fs::write(path, registry.to_json())
            .map_err(|e| format!("--metrics: {}: {e}", path.display()))?;
        eprintln!("metrics written to {}", path.display());
    }
    Ok(finish_analysis(&result))
}

/// `rid explain`: render the provenance record of every report in a
/// saved analysis state (produced by `analyze`/`recheck --save-state`).
/// Sources are optional — when given, formal-argument indices are
/// replaced by the original parameter names.
fn cmd_explain(args: &Args) -> Result<u8, String> {
    // `--flight-recorder <path>` renders a daemon crash artifact instead
    // of an analysis state; the two modes share nothing but the verb.
    if let Some(path) = args.options.get("flight-recorder") {
        return cmd_explain_flight_recorder(Path::new(path));
    }
    let state_path = args.options.get("state").ok_or_else(|| {
        "--state <file> is required (produce one with `rid analyze --save-state`)".to_owned()
    })?;
    let state = load_state(Path::new(state_path)).map_err(|e| e.to_string())?;
    let program = if args.files.is_empty() {
        None
    } else {
        let sources = read_sources(&args.files)?;
        Some(
            rid_frontend::parse_program(sources.iter().map(String::as_str))
                .map_err(|e| e.to_string())?,
        )
    };
    let reports: Vec<rid_core::IppReport> = match args.options.get("function") {
        Some(f) => state.reports.iter().filter(|r| &r.function == f).cloned().collect(),
        None => state.reports.clone(),
    };
    if reports.is_empty() && args.options.contains_key("function") {
        return Err(format!(
            "no reports for function `{}` in {state_path}",
            args.options["function"]
        ));
    }
    print!("{}", rid_core::render_explanations(&reports, program.as_ref()));
    eprintln!("{} report(s) explained from {state_path}", reports.len());
    Ok(if reports.is_empty() { EXIT_CLEAN } else { EXIT_BUGS })
}

/// Renders a daemon crash artifact. `path` may be a `.frec` file, a
/// `flightrec/` directory, or a daemon `--state-dir` (the `flightrec`
/// subdirectory is probed automatically); directories render the latest
/// generation.
fn cmd_explain_flight_recorder(path: &Path) -> Result<u8, String> {
    let (gen, record) = if path.is_dir() {
        let nested = path.join(rid_serve::FLIGHTREC_DIR);
        let dir = if nested.is_dir() { nested } else { path.to_path_buf() };
        let (gen, file) = rid_serve::latest_flight_record(&dir)
            .map_err(|e| format!("--flight-recorder: {}: {e}", dir.display()))?
            .ok_or_else(|| {
                format!("--flight-recorder: no fr.N.frec artifacts in {}", dir.display())
            })?;
        let record = rid_serve::read_flight_record(&file)
            .map_err(|e| format!("--flight-recorder: {}: {e}", file.display()))?;
        (gen, record)
    } else {
        let record = rid_serve::read_flight_record(path)
            .map_err(|e| format!("--flight-recorder: {}: {e}", path.display()))?;
        let gen = path
            .file_name()
            .and_then(|n| rid_serve::flightrec::parse_generation(&n.to_string_lossy()))
            .unwrap_or(0);
        (gen, record)
    };
    print!("{}", rid_serve::render_flight_record(gen, &record));
    Ok(EXIT_CLEAN)
}

/// Loads the suppression file for `rid diff`: an explicit `--ignore`
/// path must exist and parse; without the option, a `.ridignore` in the
/// current directory is picked up when present, and its absence means
/// no suppressions. Malformed entries are fatal either way.
fn load_ridignore(args: &Args) -> Result<rid_core::Ridignore, String> {
    let (path, required) = match args.options.get("ignore") {
        Some(p) => (PathBuf::from(p), true),
        None => (PathBuf::from(".ridignore"), false),
    };
    if !path.exists() {
        if required {
            return Err(format!("--ignore: {}: no such file", path.display()));
        }
        return Ok(rid_core::Ridignore::default());
    }
    let text = std::fs::read_to_string(&path)
        .map_err(|e| format!("{}: {e}", path.display()))?;
    rid_core::Ridignore::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// `rid diff`: compare two saved analysis states by stable report hash
/// (see REPORTS.md) and exit non-zero only when *new*, unsuppressed
/// reports appeared. Pre-existing bugs, resolved bugs, and suppressed
/// new bugs all exit 0, which is what makes this usable as a CI gate on
/// a codebase with a known backlog.
fn cmd_diff(args: &Args) -> Result<u8, String> {
    if args.files.len() != 2 {
        return Err(
            "rid diff expects exactly two state files: <old-state.json> <new-state.json>"
                .to_owned(),
        );
    }
    let old = load_state(&args.files[0])
        .map_err(|e| format!("{}: {e}", args.files[0].display()))?;
    let new = load_state(&args.files[1])
        .map_err(|e| format!("{}: {e}", args.files[1].display()))?;
    let ignore = load_ridignore(args)?;
    let baseline: Vec<String> = old.reports.iter().map(rid_core::report_hash).collect();
    let diff = rid_core::classify_reports(&baseline, &new.reports);

    let (new_suppressed, new_live): (Vec<_>, Vec<_>) = diff
        .new
        .iter()
        .partition(|(hash, idx)| ignore.suppresses(hash, &new.reports[*idx].function));

    if args.flags.iter().any(|f| f == "json") {
        let entry = |(hash, idx): &(String, usize)| {
            serde_json::json!({
                "hash": hash,
                "function": new.reports[*idx].function,
                "refcount": new.reports[*idx].refcount.to_string(),
            })
        };
        let json = serde_json::json!({
            "new": new_live.iter().map(|e| entry(e)).collect::<Vec<_>>(),
            "suppressed": new_suppressed.iter().map(|e| entry(e)).collect::<Vec<_>>(),
            "unchanged": diff.unchanged.iter().map(entry).collect::<Vec<_>>(),
            "resolved": diff.resolved,
        });
        println!("{}", serde_json::to_string_pretty(&json).map_err(|e| e.to_string())?);
    } else {
        for (hash, idx) in &new_live {
            let r = &new.reports[*idx];
            println!("new        {hash} {} ({})", r.function, r.refcount);
        }
        for (hash, idx) in &new_suppressed {
            let r = &new.reports[*idx];
            println!("suppressed {hash} {} ({})", r.function, r.refcount);
        }
        for (hash, idx) in &diff.unchanged {
            let r = &new.reports[*idx];
            println!("unchanged  {hash} {} ({})", r.function, r.refcount);
        }
        for hash in &diff.resolved {
            println!("resolved   {hash}");
        }
        eprintln!(
            "{} new, {} suppressed, {} unchanged, {} resolved",
            new_live.len(),
            new_suppressed.len(),
            diff.unchanged.len(),
            diff.resolved.len()
        );
    }
    Ok(if new_live.is_empty() { EXIT_CLEAN } else { EXIT_BUGS })
}

/// `rid suppress <hash>`: append a report hash to the suppression file
/// (default `.ridignore`), creating it with a header comment on first
/// use. Re-suppressing a hash already present is a no-op, so the
/// command is idempotent for scripting.
fn cmd_suppress(args: &Args) -> Result<u8, String> {
    if args.files.len() != 1 {
        return Err("rid suppress expects exactly one report hash".to_owned());
    }
    let hash = args.files[0].display().to_string();
    if hash.len() != 32 || !hash.bytes().all(|b| b.is_ascii_hexdigit() && !b.is_ascii_uppercase()) {
        return Err(format!(
            "`{hash}` is not a report hash (expected 32 lowercase hex digits; \
             copy one from `rid diff` or REPORTS.md)"
        ));
    }
    let path = args
        .options
        .get("file")
        .map_or_else(|| PathBuf::from(".ridignore"), PathBuf::from);
    let existing = if path.exists() {
        std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?
    } else {
        "# rid suppression file — see REPORTS.md for the grammar.\n".to_owned()
    };
    // Validate before appending so a malformed file fails loudly instead
    // of silently accumulating entries `rid diff` will later reject.
    let ignore = rid_core::Ridignore::parse(&existing)
        .map_err(|e| format!("{}: {e}", path.display()))?;
    if ignore.contains_hash(&hash) {
        eprintln!("{hash} already suppressed in {}", path.display());
        return Ok(EXIT_CLEAN);
    }
    let mut updated = existing;
    if !updated.is_empty() && !updated.ends_with('\n') {
        updated.push('\n');
    }
    updated.push_str(&hash);
    updated.push('\n');
    rid_core::persist::atomic_write(&path, updated.as_bytes())
        .map_err(|e| format!("{}: {e}", path.display()))?;
    eprintln!("suppressed {hash} in {}", path.display());
    Ok(EXIT_CLEAN)
}

fn cmd_classify(args: &Args) -> Result<(), String> {
    let sources = read_sources(&args.files)?;
    let apis = predefined_apis(args)?;
    let program = rid_frontend::parse_program(sources.iter().map(String::as_str))
        .map_err(|e| e.to_string())?;
    let graph = rid_core::CallGraph::build(&program);
    let classification = rid_core::classify::classify(&program, &graph, &apis);
    let counts = classification.counts();
    println!("refcount-changing      : {}", counts.refcount_changing);
    println!("affecting (analyzed)   : {}", counts.affecting_analyzed);
    println!("affecting (skipped)    : {}", counts.affecting_skipped);
    println!("other                  : {}", counts.other);
    println!("total                  : {}", counts.total());
    let mut by_category: Vec<(&str, rid_core::Category)> = classification.iter().collect();
    by_category.sort_unstable();
    for (func, category) in by_category {
        if category != rid_core::Category::Other {
            println!("  {func}: {category:?}");
        }
    }
    Ok(())
}

fn cmd_summarize(args: &Args) -> Result<(), String> {
    let target = args
        .options
        .get("function")
        .ok_or_else(|| "--function <name> is required".to_owned())?;
    let sources = read_sources(&args.files)?;
    let apis = predefined_apis(args)?;
    let options = analysis_options(args)?;
    let result =
        rid_core::analyze_sources(sources.iter().map(String::as_str), &apis, &options)
            .map_err(|e| e.to_string())?;
    let summary = result
        .summaries
        .get(target)
        .ok_or_else(|| format!("no summary computed for `{target}` (category 3?)"))?;
    println!("summary of {target} ({} entries):", summary.entries.len());
    for (i, entry) in summary.entries.iter().enumerate() {
        let changes: Vec<String> =
            entry.changes.iter().map(|(rc, d)| format!("{rc}: {d:+}")).collect();
        println!("entry {}:", i + 1);
        println!("  cons   : {}", entry.cons);
        println!("  changes: [{}]", changes.join(", "));
        match &entry.ret {
            Some(ret) => println!("  return : {ret}"),
            None => println!("  return : (void/unconstrained)"),
        }
    }
    if summary.partial {
        println!("(partial: analysis limits were hit; default entry included)");
    }
    Ok(())
}

fn cmd_baseline(args: &Args) -> Result<(), String> {
    let sources = read_sources(&args.files)?;
    let apis = match args.options.get("apis").map(String::as_str) {
        Some("dpm") => rid_core::apis::linux_dpm_apis(),
        _ => rid_core::apis::python_c_apis(),
    };
    let result = rid_baseline::check_sources(sources.iter().map(String::as_str), &apis)
        .map_err(|e| e.to_string())?;
    for report in &result.reports {
        println!(
            "`{}`: {} changed by {:+}, escape rule expected {:+}",
            report.function, report.refcount, report.delta, report.expected
        );
    }
    if !result.bailed_functions.is_empty() {
        eprintln!("bailed (multiple assignments): {:?}", result.bailed_functions);
    }
    eprintln!(
        "{} function(s) checked, {} violation(s)",
        result.functions_checked,
        result.reports.len()
    );
    Ok(())
}

fn cmd_recheck(args: &Args) -> Result<u8, String> {
    let state_path = args
        .options
        .get("state")
        .ok_or_else(|| "--state <file> is required".to_owned())?;
    let changed_arg = args
        .options
        .get("changed")
        .ok_or_else(|| "--changed <fn,fn,...> is required".to_owned())?;
    let changed: Vec<&str> = changed_arg.split(',').filter(|s| !s.is_empty()).collect();

    let sources = read_sources(&args.files)?;
    let apis = predefined_apis(args)?;
    let options = analysis_options(args)?;
    let previous = load_state(Path::new(state_path)).map_err(|e| e.to_string())?;
    let program = rid_frontend::parse_program(sources.iter().map(String::as_str))
        .map_err(|e| e.to_string())?;

    let result =
        rid_core::incremental::reanalyze(&program, &apis, &previous, &changed, &options);
    print!("{}", rid_core::render_reports(&result.reports, Some(&program)));
    eprintln!(
        "rechecked {} function(s) (changed: {changed:?}), {} report(s)",
        result.stats.functions_analyzed,
        result.reports.len()
    );
    if let Some(path) = args.options.get("save-state") {
        save_state(&result, Path::new(path)).map_err(|e| e.to_string())?;
        eprintln!("analysis state saved to {path}");
    }
    Ok(finish_analysis(&result))
}

/// §3.1 API mining: discover antonym-named pairs in the given sources and
/// optionally save synthesized predefined summaries for them.
fn cmd_mine(args: &Args) -> Result<(), String> {
    let sources = read_sources(&args.files)?;
    let program = rid_frontend::parse_program(sources.iter().map(String::as_str))
        .map_err(|e| e.to_string())?;
    let names = rid_core::mining::all_function_names(&program);
    let pairs = rid_core::mining::discover_api_pairs(names.iter().map(String::as_str));
    if pairs.is_empty() {
        println!("no antonym-named API pairs found");
        return Ok(());
    }
    for pair in &pairs {
        println!("{} / {}   ({}-{})", pair.inc, pair.dec, pair.verbs.0, pair.verbs.1);
    }
    eprintln!("{} pair(s) discovered", pairs.len());
    if let Some(path) = args.options.get("save-summaries") {
        let field = args.options.get("field").map_or("refs", String::as_str);
        let db = rid_core::mining::summaries_for_pairs(&pairs, field);
        save_db(&db, Path::new(path)).map_err(|e| e.to_string())?;
        eprintln!("synthesized summaries (field `{field}`) saved to {path}");
    }
    Ok(())
}

fn cmd_gen_kernel(args: &Args) -> Result<(), String> {
    let out = args
        .options
        .get("out")
        .ok_or_else(|| "--out <dir> is required".to_owned())?;
    let seed: u64 = parsed(args, "seed", "a number")?.unwrap_or(2016);
    let mut config = if args.flags.iter().any(|f| f == "tiny") {
        rid_corpus::kernel::KernelConfig::tiny(seed)
    } else {
        rid_corpus::kernel::KernelConfig::evaluation(seed)
    };
    if let Some(n) = parsed(args, "spurious", "a count")? {
        config.seeded_spurious = n;
    }
    let corpus = rid_corpus::kernel::generate_kernel(&config);
    let dir = Path::new(out);
    std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
    for (i, source) in corpus.sources.iter().enumerate() {
        std::fs::write(dir.join(format!("module_{i:04}.ril")), source)
            .map_err(|e| e.to_string())?;
    }
    let truth = serde_json::json!({
        "bugs": corpus.bugs,
        "expected_false_positives": corpus.expected_false_positives,
        "expected_spurious": corpus.spurious_functions,
        "census": corpus.census,
    });
    std::fs::write(
        dir.join("ground_truth.json"),
        serde_json::to_string_pretty(&truth).map_err(|e| e.to_string())?,
    )
    .map_err(|e| e.to_string())?;
    eprintln!(
        "wrote {} modules + ground_truth.json to {}",
        corpus.sources.len(),
        dir.display()
    );
    Ok(())
}

/// `rid serve`: the batched, incremental analysis daemon. `--stdio`
/// speaks the protocol over stdin/stdout (tests, editor pipes);
/// otherwise `--socket <path>` binds a Unix domain socket and serves
/// until SIGTERM/SIGINT or a `shutdown` request, draining the queue
/// before exit.
fn cmd_serve(args: &Args) -> Result<u8, String> {
    let defaults = rid_serve::ServerConfig::default();
    let config = rid_serve::ServerConfig {
        queue_cap: parsed(args, "queue-cap", "a number")?.unwrap_or(defaults.queue_cap),
        state_dir: args.options.get("state-dir").map(PathBuf::from),
        max_frame_bytes: parsed(args, "max-frame-bytes", "a byte count")?
            .unwrap_or(defaults.max_frame_bytes),
        fault: rid_serve::ServeFaultPlan {
            seed: parsed(args, "chaos-seed", "a number")?.unwrap_or(0),
            torn_journal_rate: parsed(args, "chaos-torn-rate", "a rate in [0,1]")?.unwrap_or(0.0),
            fsync_fail_rate: parsed(args, "chaos-fsync-rate", "a rate in [0,1]")?.unwrap_or(0.0),
        },
    };
    if args.flags.iter().any(|f| f == "stdio") {
        let stdin = std::io::stdin();
        let stdout = std::io::stdout();
        rid_serve::serve_stdio(stdin.lock(), stdout.lock(), config)
            .map_err(|e| e.to_string())?;
        return Ok(EXIT_CLEAN);
    }
    let socket = args
        .options
        .get("socket")
        .ok_or_else(|| "--socket <path> is required (or pass --stdio)".to_owned())?;
    #[cfg(unix)]
    {
        // `--trace <path>`: record daemon-side spans (snapshot, restore,
        // journal replay, per-request execution) for the whole serve
        // lifetime and write one Chrome trace on clean exit.
        let trace_path = args.options.get("trace").map(PathBuf::from);
        if trace_path.is_some() {
            rid_obs::trace::enable(rid_obs::trace::DEFAULT_CAPACITY);
        }
        eprintln!("rid serve: listening on {socket}");
        rid_serve::serve_unix(Path::new(socket), config).map_err(|e| e.to_string())?;
        if let Some(path) = &trace_path {
            rid_obs::trace::disable();
            let trace = rid_obs::drain();
            std::fs::write(path, trace.to_chrome_json())
                .map_err(|e| format!("--trace: {}: {e}", path.display()))?;
            eprintln!(
                "trace: {} event(s) ({} dropped) written to {}",
                trace.events.len(),
                trace.dropped,
                path.display()
            );
        }
        eprintln!("rid serve: drained and exiting");
        Ok(EXIT_CLEAN)
    }
    #[cfg(not(unix))]
    {
        Err("unix domain sockets are unavailable on this platform; use --stdio".to_owned())
    }
}

/// `rid client`: one request/response round-trip against a running
/// daemon. Positional `.ril` files become the request's `sources`
/// (keyed by file name) for `register`/`patch`. The raw response line is
/// printed; the exit code mirrors `rid analyze` (bugs → 1, daemon error
/// → 3).
fn cmd_client(args: &Args) -> Result<u8, String> {
    let socket = args
        .options
        .get("socket")
        .ok_or_else(|| "--socket <path> is required".to_owned())?;
    let op = args.options.get("op").ok_or_else(|| {
        "--op <register|analyze|patch|explain|diff|stats|ping|snapshot|shutdown> is required"
            .to_owned()
    })?;
    let project = args.options.get("project").cloned().unwrap_or_default();
    let mut request = rid_serve::Request::new(1, op, &project);
    for file in &args.files {
        let text =
            std::fs::read_to_string(file).map_err(|e| format!("{}: {e}", file.display()))?;
        let name = file
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_else(|| file.display().to_string());
        request.sources.insert(name, text);
    }
    request.function = args.options.get("function").cloned();
    request.deadline_ms = parsed(args, "deadline-ms", "milliseconds")?;
    request.idem = args.options.get("idem").cloned();
    request.format = args.options.get("format").cloned();
    // The daemon returns the raw diff classification (PROTOCOL.md);
    // suppression is client-side triage, so the `diff` op applies the
    // local `.ridignore` (or `--ignore <file>`) to the returned `new`
    // entries before deciding the exit code — the same gate `rid diff`
    // implements. Loaded up front so a malformed file fails fast.
    let ignore = if op == "diff" { Some(load_ridignore(args)?) } else { None };
    // `--baseline <old-state.json>` (diff op): the old run's reports,
    // hashed client-side, become the request's baseline list.
    if let Some(path) = args.options.get("baseline") {
        let old = load_state(Path::new(path)).map_err(|e| format!("--baseline: {path}: {e}"))?;
        request.baseline = Some(old.reports.iter().map(rid_core::report_hash).collect());
    }
    let retries: Option<u64> = parsed(args, "retries", "a number")?;
    let retry_base_ms: Option<u64> = parsed(args, "retry-base-ms", "a number")?;
    let timeout_ms: Option<u64> = parsed(args, "timeout-ms", "a number")?;
    #[cfg(unix)]
    {
        let timeout = timeout_ms.map(std::time::Duration::from_millis);
        let mut client = rid_serve::Client::connect_with(Path::new(socket), timeout)
            .map_err(|e| format!("{socket}: {e}"))?;
        // Any resilience option opts into the retrying path; a bare
        // `rid client` keeps the one-shot fail-fast behavior.
        let resilient = retries.is_some() || retry_base_ms.is_some() || timeout_ms.is_some();
        let response = if resilient {
            let defaults = rid_serve::RetryPolicy::default();
            let policy = rid_serve::RetryPolicy {
                retries: retries.map_or(defaults.retries, |n| n as u32),
                base_ms: retry_base_ms.unwrap_or(defaults.base_ms),
                timeout_ms,
                ..defaults
            };
            client.request_retrying(&request, &policy).map_err(|e| e.to_string())?
        } else {
            client.request(&request).map_err(|e| e.to_string())?
        };
        println!("{response}");
        let value: serde_json::Value =
            serde_json::from_str(&response).map_err(|e| e.to_string())?;
        if value["ok"].as_bool() != Some(true) {
            return Ok(EXIT_FATAL);
        }
        // `diff` is the CI gate: only *new* reports (vs the baseline)
        // that survive the local suppression file are failures; the
        // other ops gate on any report at all.
        let bugs = if let Some(ignore) = &ignore {
            match value["result"]["new"].as_array() {
                Some(new) => new.iter().any(|entry| {
                    !ignore.suppresses(
                        entry["hash"].as_str().unwrap_or(""),
                        entry["function"].as_str().unwrap_or(""),
                    )
                }),
                // Pre-`new`-array daemons: fall back to the raw count.
                None => value["result"]["new_count"].as_i64().unwrap_or(0) > 0,
            }
        } else {
            value["result"]["report_count"].as_i64().unwrap_or(0) > 0
        };
        Ok(if bugs {
            EXIT_BUGS
        } else if value["degraded"].as_array().is_some_and(|d| !d.is_empty()) {
            EXIT_DEGRADED
        } else {
            EXIT_CLEAN
        })
    }
    #[cfg(not(unix))]
    {
        let _ = (request, ignore);
        Err("unix domain sockets are unavailable on this platform".to_owned())
    }
}

/// `rid top`: poll a running daemon's `stats` op and render the per-op
/// and per-project latency tables. `--iters N` bounds the poll count
/// (default 1, so a bare `rid top` is a one-shot snapshot suitable for
/// scripts and CI); `--interval-ms` sets the poll period.
fn cmd_top(args: &Args) -> Result<u8, String> {
    let socket = args
        .options
        .get("socket")
        .ok_or_else(|| "--socket <path> is required".to_owned())?;
    let interval_ms: u64 = parsed(args, "interval-ms", "a number")?.unwrap_or(1000);
    let iters: u64 = parsed(args, "iters", "a number")?.unwrap_or(1);
    if iters == 0 {
        return Err("--iters expects a positive count".to_owned());
    }
    #[cfg(unix)]
    {
        let mut client = rid_serve::Client::connect(Path::new(socket))
            .map_err(|e| format!("{socket}: {e}"))?;
        for poll in 0..iters {
            if poll > 0 {
                std::thread::sleep(std::time::Duration::from_millis(interval_ms));
            }
            let request = rid_serve::Request::new(poll + 1, "stats", "");
            let response = client.request(&request).map_err(|e| e.to_string())?;
            let value: serde_json::Value =
                serde_json::from_str(&response).map_err(|e| e.to_string())?;
            if value["ok"].as_bool() != Some(true) {
                return Err(format!("daemon error: {response}"));
            }
            print!("{}", render_top(socket, poll, &value["result"]));
        }
        Ok(EXIT_CLEAN)
    }
    #[cfg(not(unix))]
    {
        let _ = (interval_ms, iters);
        Err("unix domain sockets are unavailable on this platform".to_owned())
    }
}

/// One `rid top` frame: a counter header plus per-op and per-project
/// latency tables (count and approximate p50/p99/p999 from the stats
/// op's log2 histograms).
fn render_top(socket: &str, poll: u64, result: &serde_json::Value) -> String {
    let telemetry = &result["telemetry"];
    let counter = |name: &str| telemetry["counters"][name].as_u64().unwrap_or(0);
    let gauge = |name: &str| telemetry["gauges"][name].as_i64().unwrap_or(0);
    let mut out = format!("rid top — {socket} — poll {}\n", poll + 1);
    out.push_str(&format!(
        "accepted {}  batches {}  coalesced {}  backpressure {}  idem {}  \
         queue {}/{}  projects {}\n",
        counter("serve.accepted"),
        counter("serve.batches"),
        counter("serve.coalesced"),
        counter("serve.backpressure"),
        counter("serve.idem_hits"),
        gauge("serve.queue.depth.now"),
        gauge("serve.queue.cap"),
        gauge("serve.projects"),
    ));
    for (section, prefix) in [("op", "serve.op."), ("project", "serve.project.")] {
        let rows = top_latency_rows(telemetry, prefix);
        if rows.is_empty() {
            continue;
        }
        out.push_str(&format!(
            "{:<24} {:>8} {:>10} {:>10} {:>10}\n",
            section.to_uppercase(),
            "COUNT",
            "P50(us)",
            "P99(us)",
            "P999(us)"
        ));
        for (name, count, p50, p99, p999) in rows {
            out.push_str(&format!(
                "{name:<24} {count:>8} {p50:>10} {p99:>10} {p999:>10}\n"
            ));
        }
    }
    out
}

/// Extracts `(name, count, p50, p99, p999)` rows for every histogram
/// under `prefix` (the trailing `.us` unit suffix is dropped from the
/// display name).
fn top_latency_rows(
    telemetry: &serde_json::Value,
    prefix: &str,
) -> Vec<(String, u64, u64, u64, u64)> {
    let serde_json::Value::Map(pairs) = &telemetry["histograms"] else { return Vec::new() };
    pairs
        .iter()
        .filter_map(|(name, h)| {
            let rest = name.strip_prefix(prefix)?;
            let display = rest.strip_suffix(".us").unwrap_or(rest);
            Some((
                display.to_owned(),
                h["count"].as_u64().unwrap_or(0),
                h["p50"].as_u64().unwrap_or(0),
                h["p99"].as_u64().unwrap_or(0),
                h["p999"].as_u64().unwrap_or(0),
            ))
        })
        .collect()
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match parse_args(&argv) {
        Ok(None) => return usage(),
        Ok(Some((command, args))) => (command.run)(&args),
        Err(message) => Err(message),
    };
    match outcome {
        Ok(code) => ExitCode::from(code),
        Err(message) => {
            eprintln!("error: {message}");
            ExitCode::from(EXIT_FATAL)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(args: &[&str]) -> Vec<String> {
        args.iter().map(|&a| a.to_owned()).collect()
    }

    fn names(groups: &'static [&'static [&'static str]]) -> impl Iterator<Item = &'static str> {
        groups.iter().copied().flatten().copied()
    }

    #[test]
    fn each_command_accepts_exactly_its_declared_names() {
        for command in COMMANDS {
            for option in names(command.options) {
                let line = argv(&[command.name, &format!("--{option}"), "v"]);
                let (_, args) = parse_args(&line).unwrap().unwrap();
                assert_eq!(args.options.get(option).map(String::as_str), Some("v"), "--{option}");
                assert!(args.files.is_empty(), "`--{option}` takes its value, not a file");
            }
            for flag in names(command.flags) {
                let line = argv(&[command.name, &format!("--{flag}"), "f.ril"]);
                let (_, args) = parse_args(&line).unwrap().unwrap();
                assert_eq!(args.flags, [flag]);
                assert_eq!(args.files, [PathBuf::from("f.ril")], "`--{flag}` takes no value");
            }
            let Err(err) = parse_args(&argv(&[command.name, "--bogus", "3"])) else {
                panic!("`rid {} --bogus` must be rejected", command.name);
            };
            assert_eq!(err, format!("unknown option `--bogus` for `rid {}`", command.name));
        }
    }

    #[test]
    fn misspelt_flag_cannot_swallow_the_next_file() {
        let Err(err) = parse_args(&argv(&["analyze", "--jsn", "a.ril", "b.ril"])) else {
            panic!("`--jsn` must be rejected");
        };
        assert_eq!(err, "unknown option `--jsn` for `rid analyze`");
        let (command, args) =
            parse_args(&argv(&["analyze", "a.ril", "--threads", "2", "b.ril", "--json", "c.ril"]))
                .unwrap()
                .unwrap();
        assert_eq!(command.name, "analyze");
        assert_eq!(args.files, ["a.ril", "b.ril", "c.ril"].map(PathBuf::from));
        assert_eq!(args.options.get("threads").map(String::as_str), Some("2"));
        assert_eq!(args.flags, ["json"]);
    }

    #[test]
    fn missing_command_or_option_value_asks_for_usage() {
        let cases: [&[&str]; 3] =
            [&[], &["frobnicate", "a.ril"], &["analyze", "a.ril", "--threads"]];
        for case in cases {
            assert!(matches!(parse_args(&argv(case)), Ok(None)), "{case:?}");
        }
    }

    /// A name declared as both an option and a flag would parse as the
    /// flag and turn the option's value into an input file.
    #[test]
    fn command_table_declares_each_name_once() {
        let mut commands = std::collections::BTreeSet::new();
        for command in COMMANDS {
            assert!(commands.insert(command.name), "`rid {}` declared twice", command.name);
            let mut seen = std::collections::BTreeSet::new();
            for name in names(command.options).chain(names(command.flags)) {
                assert!(seen.insert(name), "`--{name}` declared twice for `rid {}`", command.name);
            }
        }
    }
}
