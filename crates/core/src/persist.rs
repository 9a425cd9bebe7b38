//! Summary persistence and separate-module analysis (§5.3 of the paper).
//!
//! RID can analyze a multi-file program one compilation unit at a time:
//! summaries computed for one unit are saved and reused when dependent
//! units are analyzed. The proper order is the reverse topological order
//! of the *module dependency graph* (module A depends on B when A uses a
//! symbol B defines); mutually dependent modules (an SCC) are linked and
//! analyzed together, exactly as §5.3 describes.

use std::collections::HashMap;
use std::fs;
use std::io;
use std::io::Write as _;
use std::path::Path;

use rid_ir::{Module, Program};

use crate::driver::{analyze_program, AnalysisOptions, AnalysisResult};
use crate::summary::SummaryDb;

/// Writes `bytes` to `path` atomically: data goes to a temporary sibling
/// first, is fsynced, and is renamed over `path`; finally the containing
/// directory is fsynced so the rename itself survives a power cut. A
/// crash at any point leaves either the old file or the new file —
/// never a torn mix — which is the invariant `rid serve --state-dir`
/// snapshots depend on.
///
/// # Errors
///
/// Returns an I/O error if the temporary cannot be written, synced, or
/// renamed; the temporary is removed on failure.
pub fn atomic_write(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let file_name = path
        .file_name()
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "path has no file name"))?;
    let dir = match path.parent() {
        Some(parent) if !parent.as_os_str().is_empty() => parent.to_path_buf(),
        _ => std::path::PathBuf::from("."),
    };
    // Process id in the name keeps two daemons snapshotting into the
    // same directory from clobbering each other's in-flight temp file.
    let tmp = dir.join(format!(".{}.{}.tmp", file_name.to_string_lossy(), std::process::id()));
    let result = (|| {
        let mut file = fs::File::create(&tmp)?;
        file.write_all(bytes)?;
        file.sync_all()?;
        fs::rename(&tmp, path)
    })();
    if result.is_err() {
        let _ = fs::remove_file(&tmp);
        return result;
    }
    // Rename durability: fsync the directory. Not all filesystems allow
    // opening a directory for sync; degrade silently there (the rename
    // is still atomic, just not yet durable).
    if let Ok(dirfd) = fs::File::open(&dir) {
        let _ = dirfd.sync_all();
    }
    Ok(())
}

/// Saves a summary database as JSON.
///
/// # Errors
///
/// Returns an I/O error if the file cannot be written.
pub fn save_db(db: &SummaryDb, path: &Path) -> io::Result<()> {
    let json = serde_json::to_string_pretty(db)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
    atomic_write(path, json.as_bytes())
}

/// Loads a summary database saved by [`save_db`].
///
/// # Errors
///
/// Returns an I/O error if the file cannot be read or parsed.
pub fn load_db(path: &Path) -> io::Result<SummaryDb> {
    let json = fs::read_to_string(path)?;
    serde_json::from_str(&json).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
}

/// A persisted analysis state: everything [`crate::incremental::reanalyze`]
/// needs to resume work in a later process (reports, summaries, the
/// classification, and degradation records; statistics are not carried
/// over).
#[derive(Clone, Debug, Default, serde::Serialize, serde::Deserialize)]
pub struct AnalysisState {
    /// Reports of the saved run.
    pub reports: Vec<crate::ipp::IppReport>,
    /// Summary database of the saved run.
    pub summaries: SummaryDb,
    /// Classification of the saved run.
    pub classification: crate::classify::Classification,
    /// Degradation records of the saved run. Defaults to empty so states
    /// saved before this field existed still load.
    #[serde(default)]
    pub degraded: std::collections::BTreeMap<String, crate::budget::Degradation>,
}

impl From<&AnalysisResult> for AnalysisState {
    fn from(result: &AnalysisResult) -> Self {
        AnalysisState {
            reports: result.reports.clone(),
            summaries: result.summaries.clone(),
            classification: result.classification.clone(),
            degraded: result.degraded.clone(),
        }
    }
}

impl From<AnalysisState> for AnalysisResult {
    fn from(state: AnalysisState) -> Self {
        AnalysisResult {
            reports: state.reports,
            summaries: state.summaries,
            classification: state.classification,
            stats: crate::driver::AnalysisStats::default(),
            degraded: state.degraded,
        }
    }
}

/// Saves an analysis state as JSON (see [`AnalysisState`]).
///
/// # Errors
///
/// Returns an I/O error if the file cannot be written.
pub fn save_state(result: &AnalysisResult, path: &Path) -> io::Result<()> {
    let state = AnalysisState::from(result);
    let json = serde_json::to_string(&state)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
    atomic_write(path, json.as_bytes())
}

/// Loads an analysis state saved by [`save_state`].
///
/// # Errors
///
/// Returns an I/O error if the file cannot be read or parsed.
pub fn load_state(path: &Path) -> io::Result<AnalysisResult> {
    let json = fs::read_to_string(path)?;
    let state: AnalysisState =
        serde_json::from_str(&json).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
    Ok(state.into())
}

/// Saves a persistent summary cache as a RIDSS1 indexed container (see
/// [`crate::store`]). Entries the run left untouched in the cache's
/// backing store are copied through as verified raw bytes; only resident
/// (freshly computed) entries are re-serialized.
///
/// # Errors
///
/// Returns an I/O error if the container cannot be built or written.
pub fn save_cache(cache: &crate::cache::SummaryCache, path: &Path) -> io::Result<()> {
    let bytes =
        crate::store::write_store_bytes(&cache.schema, &cache.entries, cache.backing_store())?;
    atomic_write(path, &bytes)
}

/// Loads a summary cache saved by [`save_cache`].
///
/// The RIDSS1 container opens **lazily**: only the header and offset
/// index are read here; entry payloads are fetched and parsed per probe.
/// Caches written under a different [`crate::cache::CACHE_SCHEMA`] are
/// rejected — stale on-disk formats must miss loudly rather than corrupt
/// a run.
///
/// # Errors
///
/// Returns an I/O error if the file cannot be read, is not a RIDSS1
/// container, or carries a different schema tag.
pub fn load_cache(path: &Path) -> io::Result<crate::cache::SummaryCache> {
    let cache = crate::cache::SummaryCache::from_store(crate::store::SummaryStore::open(path)?);
    if cache.schema != crate::cache::CACHE_SCHEMA {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!(
                "summary cache schema mismatch: found {:?}, expected {:?}",
                cache.schema,
                crate::cache::CACHE_SCHEMA
            ),
        ));
    }
    Ok(cache)
}

/// The module dependency graph: `groups` are SCCs of mutually dependent
/// modules in reverse topological order (dependencies first); modules in
/// one group must be linked and analyzed together (§5.3).
#[derive(Clone, Debug)]
pub struct ModulePlan {
    /// SCC groups of module indices, dependencies first.
    pub groups: Vec<Vec<usize>>,
}

/// Computes the §5.3 analysis plan for a set of modules.
#[must_use]
pub fn module_plan(modules: &[Module]) -> ModulePlan {
    // definer[symbol] = module index
    let mut definer: HashMap<&str, usize> = HashMap::new();
    for (i, module) in modules.iter().enumerate() {
        for func in module.functions() {
            definer.entry(func.name()).or_insert(i);
        }
    }
    // edges: A -> B when A uses a symbol defined in B.
    let mut edges: Vec<Vec<usize>> = vec![Vec::new(); modules.len()];
    for (i, module) in modules.iter().enumerate() {
        for symbol in module.undefined_references() {
            if let Some(&j) = definer.get(symbol) {
                if j != i {
                    edges[i].push(j);
                }
            }
        }
        edges[i].sort_unstable();
        edges[i].dedup();
    }
    ModulePlan { groups: tarjan_sccs(modules.len(), &edges) }
}

/// Tarjan's SCC algorithm over an adjacency list; components are returned
/// in reverse topological order (a component after everything it reaches).
pub(crate) fn tarjan_sccs(n: usize, edges: &[Vec<usize>]) -> Vec<Vec<usize>> {
    const UNVISITED: u32 = u32::MAX;
    #[derive(Clone, Copy)]
    struct NodeData {
        index: u32,
        lowlink: u32,
        on_stack: bool,
    }
    let mut data = vec![NodeData { index: UNVISITED, lowlink: 0, on_stack: false }; n];
    let mut next_index = 0u32;
    let mut stack: Vec<usize> = Vec::new();
    let mut sccs: Vec<Vec<usize>> = Vec::new();

    for start in 0..n {
        if data[start].index != UNVISITED {
            continue;
        }
        let mut call_stack: Vec<(usize, usize)> = vec![(start, 0)];
        data[start].index = next_index;
        data[start].lowlink = next_index;
        next_index += 1;
        stack.push(start);
        data[start].on_stack = true;

        while let Some(&mut (v, ref mut child)) = call_stack.last_mut() {
            if *child < edges[v].len() {
                let w = edges[v][*child];
                *child += 1;
                if data[w].index == UNVISITED {
                    data[w].index = next_index;
                    data[w].lowlink = next_index;
                    next_index += 1;
                    stack.push(w);
                    data[w].on_stack = true;
                    call_stack.push((w, 0));
                } else if data[w].on_stack {
                    data[v].lowlink = data[v].lowlink.min(data[w].index);
                }
            } else {
                call_stack.pop();
                if let Some(&mut (parent, _)) = call_stack.last_mut() {
                    let low = data[v].lowlink;
                    data[parent].lowlink = data[parent].lowlink.min(low);
                }
                if data[v].lowlink == data[v].index {
                    let mut component = Vec::new();
                    loop {
                        let w = stack.pop().expect("tarjan stack underflow");
                        data[w].on_stack = false;
                        component.push(w);
                        if w == v {
                            break;
                        }
                    }
                    component.sort_unstable();
                    sccs.push(component);
                }
            }
        }
    }
    sccs
}

/// Analyzes modules separately in dependency order (§5.3), carrying the
/// summary database from group to group. Returns the merged result; the
/// reports are the concatenation over groups, re-sorted.
///
/// # Errors
///
/// Returns a link error when a group's modules contain duplicate strong
/// definitions.
pub fn analyze_modules_separately(
    modules: &[Module],
    predefined: &SummaryDb,
    options: &AnalysisOptions,
) -> Result<AnalysisResult, rid_ir::ProgramError> {
    let plan = module_plan(modules);
    let mut db = predefined.clone();
    let mut all_reports = Vec::new();
    let mut stats = crate::driver::AnalysisStats::default();
    let mut classification = crate::classify::Classification::default();
    let mut degraded = std::collections::BTreeMap::new();

    for group in &plan.groups {
        let mut program = Program::new();
        for &i in group {
            program.link(modules[i].clone())?;
        }
        let result = analyze_program(&program, &db, options);
        db = result.summaries;
        all_reports.extend(result.reports);
        degraded.extend(result.degraded);
        // One merge path for *all* stats fields (see
        // `AnalysisStats::absorb`) — the old by-hand sum here silently
        // dropped every counter added after it was written.
        stats.absorb(&result.stats);
        classification = result.classification;
    }

    all_reports.sort_by(|a, b| {
        (&a.function, &a.refcount, a.path_a, a.path_b).cmp(&(
            &b.function,
            &b.refcount,
            b.path_a,
            b.path_b,
        ))
    });
    Ok(AnalysisResult { reports: all_reports, summaries: db, classification, stats, degraded })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apis::linux_dpm_apis;
    use rid_frontend::parse_module;

    #[test]
    fn tarjan_handles_cycles_and_order() {
        // 0 -> 1 -> 2 -> 1, 3 isolated
        let edges = vec![vec![1], vec![2], vec![1], vec![]];
        let sccs = tarjan_sccs(4, &edges);
        assert!(sccs.contains(&vec![1, 2]));
        // {1,2} must come before {0} (0 depends on it).
        let pos12 = sccs.iter().position(|c| c == &vec![1, 2]).unwrap();
        let pos0 = sccs.iter().position(|c| c == &vec![0]).unwrap();
        assert!(pos12 < pos0);
    }

    #[test]
    fn module_plan_orders_dependencies_first() {
        let lib = parse_module("module lib; fn helper(dev) { pm_runtime_get(dev); return; }")
            .unwrap();
        let app =
            parse_module("module app; fn main_fn(dev) { helper(dev); return; }").unwrap();
        let modules = vec![app, lib];
        let plan = module_plan(&modules);
        assert_eq!(plan.groups, vec![vec![1], vec![0]]);
    }

    #[test]
    fn mutually_dependent_modules_group_together() {
        let a = parse_module("module a; fn fa() { fb(); return; }").unwrap();
        let b = parse_module("module b; fn fb() { fa(); return; }").unwrap();
        let plan = module_plan(&[a, b]);
        assert_eq!(plan.groups, vec![vec![0, 1]]);
    }

    #[test]
    fn separate_analysis_matches_linked_analysis() {
        let lib_src = r#"module lib;
            extern fn pm_runtime_get_sync;
            fn get_dev(dev) {
                let r = pm_runtime_get_sync(dev);
                if (r < 0) { return r; }
                return 0;
            }"#;
        let app_src = r#"module app;
            fn use_dev(dev) {
                let r = get_dev(dev);
                if (r) { return r; }
                pm_runtime_put(dev);
                return 0;
            }"#;
        let options = AnalysisOptions::default();
        let apis = linux_dpm_apis();

        let linked =
            crate::driver::analyze_sources([lib_src, app_src], &apis, &options).unwrap();
        let modules =
            vec![parse_module(app_src).unwrap(), parse_module(lib_src).unwrap()];
        let separate = analyze_modules_separately(&modules, &apis, &options).unwrap();

        let key = |r: &crate::ipp::IppReport| (r.function.clone(), r.refcount.clone());
        let mut a: Vec<_> = linked.reports.iter().map(key).collect();
        let mut b: Vec<_> = separate.reports.iter().map(key).collect();
        a.sort();
        b.sort();
        assert_eq!(a, b);
    }

    #[test]
    fn db_save_load_roundtrip() {
        let dir = std::env::temp_dir().join("rid-persist-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("db.json");
        let db = linux_dpm_apis();
        save_db(&db, &path).unwrap();
        let back = load_db(&path).unwrap();
        assert_eq!(back.len(), db.len());
        assert!(back.get("pm_runtime_get_sync").unwrap().changes_refcounts());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn analysis_state_roundtrip() {
        let src = r#"module m;
            fn leak(dev) {
                let r = chk(dev);
                if (r < 0) { return 0; }
                pm_runtime_get_sync(dev);
                return 0;
            }"#;
        let result = crate::driver::analyze_sources(
            [src],
            &linux_dpm_apis(),
            &AnalysisOptions::default(),
        )
        .unwrap();
        let dir = std::env::temp_dir().join("rid-state-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("state.json");
        save_state(&result, &path).unwrap();
        let back = load_state(&path).unwrap();
        assert_eq!(back.reports.len(), result.reports.len());
        assert_eq!(back.reports[0].function, "leak");
        assert_eq!(back.summaries.len(), result.summaries.len());
        assert_eq!(
            back.classification.category("leak"),
            result.classification.category("leak")
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn degradation_records_roundtrip() {
        use crate::budget::{Degradation, DegradeReason, FunctionCost};
        let mut result = crate::driver::analyze_sources(
            ["module m; fn f(dev) { pm_runtime_get(dev); pm_runtime_put(dev); return; }"],
            &linux_dpm_apis(),
            &AnalysisOptions::default(),
        )
        .unwrap();
        result.degraded.insert(
            "f".to_owned(),
            Degradation {
                reason: DegradeReason::Deadline,
                cost: FunctionCost { paths: 12, states: 34, wall_ms: 56 },
            },
        );
        result.degraded.insert(
            "g".to_owned(),
            Degradation { reason: DegradeReason::Panic, cost: FunctionCost::default() },
        );

        let dir = std::env::temp_dir().join("rid-degrade-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("state.json");
        save_state(&result, &path).unwrap();
        let back = load_state(&path).unwrap();
        assert_eq!(back.degraded, result.degraded);
        let f = &back.degraded["f"];
        assert_eq!(f.reason, DegradeReason::Deadline);
        assert_eq!((f.cost.paths, f.cost.states, f.cost.wall_ms), (12, 34, 56));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn old_states_without_degradations_still_load() {
        // A state serialized before the `degraded` field existed: the
        // field is absent from the JSON and must default to empty. Build
        // such a state by stripping the field from a fresh serialization.
        let full = serde_json::to_string(&AnalysisState::default()).unwrap();
        let json = full
            .replace(",\"degraded\":{}", "")
            .replace("\"degraded\":{},", "")
            .replace("\"degraded\":{}", "");
        assert_ne!(full, json, "new states must carry the degraded field");
        let state: AnalysisState = serde_json::from_str(&json).unwrap();
        assert!(state.degraded.is_empty());
        let result: AnalysisResult = state.into();
        assert!(result.degraded.is_empty());
    }

    #[test]
    fn cache_save_load_roundtrip_and_schema_check() {
        // `leaky` has an IPP, so the cached entry carries a report and the
        // round-trip covers the full report shape — including the block
        // traces the renderer prints.
        let src = r#"module m;
            fn driver(dev) { pm_runtime_get(dev); pm_runtime_put(dev); return; }
            fn leaky(dev, set) {
                let ret = pm_runtime_get_sync(dev);
                if (ret < 0) { return ret; }
                ret = helper_set_config(set);
                pm_runtime_put_autosuspend(dev);
                return ret;
            }"#;
        let program = rid_frontend::parse_program([src]).unwrap();
        let mut cache = crate::cache::SummaryCache::new();
        let _ = crate::driver::analyze_program_cached(
            &program,
            &linux_dpm_apis(),
            &AnalysisOptions::default(),
            &crate::fault::FaultPlan::none(),
            Some(&mut cache),
        );
        assert!(!cache.is_empty());

        let dir = std::env::temp_dir().join("rid-cache-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("cache.json");
        save_cache(&cache, &path).unwrap();
        let back = load_cache(&path).unwrap();
        assert_eq!(back.len(), cache.len());
        assert_eq!(
            back.get("driver").unwrap().key,
            cache.get("driver").unwrap().key
        );
        let (orig, trip) = (cache.get("leaky").unwrap(), back.get("leaky").unwrap());
        assert!(!orig.reports.is_empty());
        assert_eq!(orig.reports, trip.reports, "reports must survive persistence");
        assert!(!trip.reports[0].trace_a.is_empty(), "block traces must persist");

        // A cache with a foreign schema tag must be rejected loudly. The
        // container is binary now, so patch the schema bytes in place
        // (same length, and the header is not covered by the index
        // checksum, so the file still opens — and must then be refused).
        let mut bytes = std::fs::read(&path).unwrap();
        let schema = crate::cache::CACHE_SCHEMA.as_bytes();
        let at = bytes
            .windows(schema.len())
            .position(|w| w == schema)
            .expect("schema tag present in header");
        bytes[at..at + schema.len()].copy_from_slice(b"rid-summary-cache/v0");
        std::fs::write(&path, bytes).unwrap();
        assert!(load_cache(&path).is_err());

        // The pre-RIDSS1 JSON document shape is refused even under the
        // current schema tag: RIDSS1 is the only cache format.
        let json = format!("{{\"schema\":\"{}\",\"entries\":{{}}}}", crate::cache::CACHE_SCHEMA);
        std::fs::write(&path, json).unwrap();
        assert!(load_cache(&path).is_err());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn atomic_write_replaces_and_cleans_up() {
        let dir = std::env::temp_dir().join("rid-atomic-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("target.json");
        atomic_write(&path, b"first").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"first");
        atomic_write(&path, b"second").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"second");
        // No temp files survive a successful write.
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(Result::ok)
            .filter(|e| e.file_name().to_string_lossy().ends_with(".tmp"))
            .collect();
        assert!(leftovers.is_empty(), "stray temp files: {leftovers:?}");
        // A path with no file name is rejected, not panicked on.
        assert!(atomic_write(Path::new("/"), b"x").is_err());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn load_db_rejects_garbage() {
        let dir = std::env::temp_dir().join("rid-persist-test2");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bad.json");
        std::fs::write(&path, "not json").unwrap();
        assert!(load_db(&path).is_err());
        std::fs::remove_file(&path).ok();
    }
}
