//! Persistent content-addressed summary cache.
//!
//! The paper's §5.4 incremental-recheck idea — "reuse previously
//! calculated summaries of unaffected functions" — generalized to
//! cross-*run* caching: every non-degraded function summary (plus its IPP
//! reports) is stored under a **merkle-style content key**, so a warm
//! re-run of an unchanged corpus skips summarization and checking
//! entirely, and an edit invalidates exactly the edited function's
//! transitive-caller cone — the same frontier
//! [`crate::incremental::affected_functions`] computes.
//!
//! ## Key discipline
//!
//! Keys are computed per call-graph SCC, in reverse topological order:
//!
//! ```text
//! comp_key(C) = H(salt, content(m) for m in members(C) in index order,
//!                 comp_key(D) for D in callee_comps(C))
//! key(f)      = comp_key(component of f)
//! ```
//!
//! `content(f)` hashes the function's lowered IR structurally, which
//! covers its body *and* the names of everything it calls; the callee keys
//! make a change propagate to every transitive caller. SCC granularity is
//! exact, not an approximation: within an SCC every member transitively
//! calls every other, so `affected_functions` of any member contains the
//! whole component. The `salt` folds in everything else a summary depends
//! on — the analysis limits (block-visit counts shape symbolic names),
//! solver options, the selective flag (it decides which callees have
//! summaries at all), and the predefined API database (§5.1 summaries
//! seed classification and shadow definitions).
//!
//! Deliberately *not* in the key: thread count and execution mode (both
//! are bit-for-bit output-preserving, see the differential suite) and the
//! budgets. Budgets are sound to omit **because degraded summaries are
//! never cached**: a budget can only change the result of a run by
//! degrading it, and degraded functions are always recomputed.
//!
//! Keys are 128-bit FNV-1a over 8-byte words — collisions are not a
//! practical concern at corpus scale, and the hash is stable across runs
//! of the same build on the same platform (integer fields hash in native
//! endianness), which is exactly the lifetime of an on-disk cache file.

use std::collections::BTreeMap;

use rid_ir::{Function, Inst, Operand, Pred, Rvalue, Terminator};
use serde::{Deserialize, Serialize};

use crate::callgraph::Condensation;
use crate::driver::AnalysisOptions;
use crate::ipp::IppReport;
use crate::summary::{Summary, SummaryDb};

/// Schema tag stored in (and validated against) persisted cache files.
/// v5: `ReportProvenance` gained the refutation-verdict field (v4 switched
/// content hashing to an explicit intern-order-independent structural
/// walk, v3 added explainability provenance, v2 block traces). Cached
/// reports are *stage-one* reports — the refutation pass runs after cache
/// write-back, so the `refute` flag is deliberately not key material.
pub const CACHE_SCHEMA: &str = "rid-summary-cache/v5";

/// 128-bit FNV-1a.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Fnv128(u128);

const FNV_OFFSET: u128 = 0x6c62_272e_07bb_0142_62b8_2175_6295_c58d;
const FNV_PRIME: u128 = 0x0000_0000_0100_0000_0000_0000_0000_013b;

impl Fnv128 {
    pub(crate) fn new() -> Fnv128 {
        Fnv128(FNV_OFFSET)
    }

    /// Folds `bytes` in 8-byte words (one 128-bit multiply per word
    /// instead of per byte — warm-run keying hashes the whole active
    /// cone's IR text, so this is on the cache's critical path). The
    /// result depends on call boundaries as well as content; callers
    /// that need boundary-independence buffer upstream (see
    /// [`HashWriter`]), and determinism — the only property keys need —
    /// holds either way.
    pub(crate) fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            let word = u64::from_le_bytes(chunk.try_into().expect("8-byte chunk"));
            self.0 ^= u128::from(word);
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
        let rem = chunks.remainder();
        if !rem.is_empty() {
            let mut tail = [0u8; 8];
            tail[..rem.len()].copy_from_slice(rem);
            // Length-tag the padded tail so "ab" and "ab\0" differ.
            self.0 ^= u128::from(u64::from_le_bytes(tail))
                ^ (u128::from(rem.len() as u64) << 64);
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
    }

    pub(crate) fn write_u128(&mut self, v: u128) {
        self.write(&v.to_le_bytes());
    }

    pub(crate) fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    pub(crate) fn finish(self) -> u128 {
        self.0
    }
}

// --- Explicit structural walk over the IR -------------------------------
//
// Content hashing must NOT go through the IR types' derived
// `std::hash::Hash` impls: `Sym` hashes by its 4-byte handle id, and
// handle ids depend on first-touch intern order, which differs between
// processes (a cold parse interns in source order; a snapshot restore
// interns in whatever order the snapshot replays). Persisted merkle keys
// must be identical across those, so every name below is resolved to its
// text and hashed as length-prefixed bytes. Enum variants are tagged with
// explicit discriminant bytes — the layout is part of [`CACHE_SCHEMA`].

fn hash_str(h: &mut Fnv128, s: &str) {
    h.write_u64(s.len() as u64);
    h.write(s.as_bytes());
}

fn hash_operand(h: &mut Fnv128, op: &Operand) {
    match op {
        Operand::Var(v) => {
            h.write(&[0]);
            hash_str(h, v);
        }
        Operand::Int(n) => {
            h.write(&[1]);
            h.write_u64(*n as u64);
        }
        Operand::Bool(b) => h.write(&[2, u8::from(*b)]),
        Operand::Null => h.write(&[3]),
        Operand::FuncRef(f) => {
            h.write(&[4]);
            hash_str(h, f);
        }
    }
}

fn hash_pred(h: &mut Fnv128, pred: Pred) {
    h.write(&[match pred {
        Pred::Eq => 0,
        Pred::Ne => 1,
        Pred::Lt => 2,
        Pred::Le => 3,
        Pred::Gt => 4,
        Pred::Ge => 5,
    }]);
}

fn hash_rvalue(h: &mut Fnv128, rv: &Rvalue) {
    match rv {
        Rvalue::Use(op) => {
            h.write(&[0]);
            hash_operand(h, op);
        }
        Rvalue::FieldLoad { base, field } => {
            h.write(&[1]);
            hash_str(h, base);
            hash_str(h, field);
        }
        Rvalue::Random => h.write(&[2]),
        Rvalue::Cmp { pred, lhs, rhs } => {
            h.write(&[3]);
            hash_pred(h, *pred);
            hash_operand(h, lhs);
            hash_operand(h, rhs);
        }
        Rvalue::Call { callee, args } => {
            h.write(&[4]);
            hash_str(h, callee);
            h.write_u64(args.len() as u64);
            for a in args {
                hash_operand(h, a);
            }
        }
    }
}

fn hash_inst(h: &mut Fnv128, inst: &Inst) {
    match inst {
        Inst::Assign { dst, rvalue } => {
            h.write(&[0]);
            hash_str(h, dst);
            hash_rvalue(h, rvalue);
        }
        Inst::Call { callee, args } => {
            h.write(&[1]);
            hash_str(h, callee);
            h.write_u64(args.len() as u64);
            for a in args {
                hash_operand(h, a);
            }
        }
        Inst::Assume { pred, lhs, rhs } => {
            h.write(&[2]);
            hash_pred(h, *pred);
            hash_operand(h, lhs);
            hash_operand(h, rhs);
        }
        Inst::FieldStore { base, field, value } => {
            h.write(&[3]);
            hash_str(h, base);
            hash_str(h, field);
            hash_operand(h, value);
        }
    }
}

fn hash_term(h: &mut Fnv128, term: &Terminator) {
    match term {
        Terminator::Jump(bb) => {
            h.write(&[0]);
            h.write_u64(u64::from(bb.0));
        }
        Terminator::Branch { cond, then_bb, else_bb } => {
            h.write(&[1]);
            hash_str(h, cond);
            h.write_u64(u64::from(then_bb.0));
            h.write_u64(u64::from(else_bb.0));
        }
        Terminator::Return(op) => {
            h.write(&[2]);
            match op {
                None => h.write(&[0]),
                Some(op) => {
                    h.write(&[1]);
                    hash_operand(h, op);
                }
            }
        }
        Terminator::Unreachable => h.write(&[3]),
    }
}

/// Stable hash of a function's lowered IR: name, parameters, linkage,
/// and every block's instructions and terminator, via an explicit
/// structural walk that resolves every interned name to its text (see
/// the comment above — derived `Hash` would key on process-local intern
/// ids). Warm-run keying hashes the whole active cone, so this path
/// matters: the walk is several times faster than hashing the `Display`
/// text because it never touches the `fmt` machinery.
///
/// Public because `rid-serve` diffs per-function content hashes across a
/// `patch` to discover *which* functions an edited module actually
/// changed (whitespace or comment edits change nothing here, so they
/// invalidate nothing). Unlike the private `function_keys` this is purely
/// local:
/// no salt, no callee keys.
#[must_use]
pub fn content_hash(func: &Function) -> u128 {
    let mut h = Fnv128::new();
    hash_str(&mut h, func.name());
    h.write_u64(func.params().len() as u64);
    for p in func.params() {
        hash_str(&mut h, p);
    }
    h.write(&[u8::from(func.weak)]);
    for block in func.blocks() {
        h.write_u64(block.insts.len() as u64);
        for inst in block.insts {
            hash_inst(&mut h, inst);
        }
        hash_term(&mut h, block.term);
    }
    h.finish()
}

/// The run-configuration salt folded into every key (see the module
/// docs for what belongs here and what deliberately does not).
#[must_use]
pub(crate) fn cache_salt(options: &AnalysisOptions, predefined: &SummaryDb) -> u128 {
    let mut h = Fnv128::new();
    h.write(CACHE_SCHEMA.as_bytes());
    h.write_u64(options.limits.max_paths as u64);
    h.write_u64(u64::from(options.limits.max_block_visits));
    h.write_u64(options.limits.max_subcases as u64);
    h.write_u64(options.limits.max_entries as u64);
    h.write_u64(u64::from(options.sat.max_splits));
    h.write(&[u8::from(options.selective)]);
    // SummaryDb serializes from a BTreeMap — deterministic order.
    let apis = serde_json::to_string(predefined).expect("summary db serializes");
    h.write(apis.as_bytes());
    h.finish()
}

/// Computes the content key of every function whose component is
/// reachable (through callee edges) from a component marked in `roots`;
/// unreachable functions get `None`. `roots` is indexed by component and
/// typically marks the components containing at least one analyzed
/// function — the lazy marking keeps warm re-runs from hashing the ~90%
/// of a kernel corpus the analysis never touches.
#[must_use]
pub(crate) fn function_keys(
    functions: &[&Function],
    cond: &Condensation,
    roots: &[bool],
    salt: u128,
) -> Vec<Option<u128>> {
    let n_comps = cond.members.len();
    debug_assert_eq!(roots.len(), n_comps);

    // Mark the transitive callee closure of the roots.
    let mut needed = roots.to_vec();
    let mut worklist: Vec<usize> =
        (0..n_comps).filter(|&c| roots[c]).collect();
    while let Some(c) = worklist.pop() {
        for &cw in &cond.callee_comps[c] {
            if !needed[cw] {
                needed[cw] = true;
                worklist.push(cw);
            }
        }
    }

    // Components are in reverse topological order: callee keys are ready
    // before any caller reads them.
    let mut comp_keys: Vec<Option<u128>> = vec![None; n_comps];
    for c in 0..n_comps {
        if !needed[c] {
            continue;
        }
        let mut h = Fnv128::new();
        h.write_u128(salt);
        for &i in &cond.members[c] {
            h.write_u128(content_hash(functions[i]));
        }
        for &cw in &cond.callee_comps[c] {
            h.write_u128(comp_keys[cw].expect("callee component key computed first"));
        }
        comp_keys[c] = Some(h.finish());
    }

    (0..functions.len()).map(|i| comp_keys[cond.comp_of[i]]).collect()
}

/// One cached function result: the content key it was computed under,
/// the summary, and the IPP reports found while checking it.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct CacheEntry {
    /// The function's content key (32 lowercase hex digits).
    pub key: String,
    /// The cached summary. Never partial: degraded summaries are not
    /// cached (see the module docs).
    pub summary: Summary,
    /// The IPP reports produced when this function was checked.
    pub reports: Vec<IppReport>,
}

/// A persistent map from function name to cached result. Serialize with
/// [`crate::persist::save_cache`] / [`crate::persist::load_cache`].
///
/// The cache is **hybrid**: `entries` holds the resident records
/// (inserted this process), while an optional backing
/// [`crate::store::SummaryStore`] answers probes for everything else
/// with an index lookup plus one positioned read — a warm run
/// materializes only the entries it actually hits. Resident entries
/// shadow backing ones.
#[derive(Clone, Debug)]
pub struct SummaryCache {
    /// Schema tag; always [`CACHE_SCHEMA`] for caches this build writes.
    pub schema: String,
    /// Resident results by function name.
    pub entries: BTreeMap<String, CacheEntry>,
    /// Lazily probed on-disk (or in-snapshot) store; resident entries
    /// shadow it. `Arc` so clones share the open file handle.
    backing: Option<std::sync::Arc<crate::store::SummaryStore>>,
}

// Serialized as one `{"schema", "entries"}` JSON document with the
// backing store *materialized*, so two caches compare by content
// whatever their entries' residency. Write-only: nothing reads this
// shape back, and the store write path never comes through here (it
// copies unshadowed backing payloads as raw bytes).
impl Serialize for SummaryCache {
    fn serialize<S: serde::Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        let mut entries = Vec::new();
        if let Some(store) = &self.backing {
            for name in store.names() {
                if self.entries.contains_key(name) {
                    continue; // shadowed; emitted from the resident map below
                }
                let entry = store
                    .read_entry(name)
                    .map_err(|e| serde::ser::Error::custom(e.to_string()))?
                    .expect("listed names are present");
                entries.push((name.to_owned(), entry));
            }
        }
        for (name, entry) in &self.entries {
            entries.push((name.clone(), entry.clone()));
        }
        entries.sort_by(|a, b| a.0.cmp(&b.0));
        let mut pairs = Vec::with_capacity(entries.len());
        for (name, entry) in entries {
            pairs.push((name, serde::__private::to_value_err::<_, S::Error>(&entry)?));
        }
        serializer.serialize_value(serde::Value::Map(vec![
            ("schema".to_owned(), serde::Value::Str(self.schema.clone())),
            ("entries".to_owned(), serde::Value::Map(pairs)),
        ]))
    }
}

impl Default for SummaryCache {
    fn default() -> Self {
        SummaryCache::new()
    }
}

/// The result of probing the cache for one function.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CacheProbe {
    /// Entry present with a matching key: reusable.
    Hit,
    /// Entry present but its key is stale (the function's cone changed).
    Stale,
    /// No entry for this function.
    Absent,
}

impl SummaryCache {
    /// Creates an empty cache.
    #[must_use]
    pub fn new() -> SummaryCache {
        SummaryCache { schema: CACHE_SCHEMA.to_owned(), entries: BTreeMap::new(), backing: None }
    }

    /// Wraps an opened [`crate::store::SummaryStore`] as a cache with no
    /// resident entries: probes are answered from the store's index and
    /// payloads are parsed only when hit.
    #[must_use]
    pub fn from_store(store: crate::store::SummaryStore) -> SummaryCache {
        SummaryCache {
            schema: store.schema().to_owned(),
            entries: BTreeMap::new(),
            backing: Some(std::sync::Arc::new(store)),
        }
    }

    /// The backing store, if this cache was opened from one. Pass-through
    /// writers ([`crate::persist::save_cache`], the daemon's snapshot
    /// encoder) hand this to [`crate::store::write_store_bytes`] so
    /// entries the run never materialized are copied as raw bytes.
    #[must_use]
    pub fn backing_store(&self) -> Option<&crate::store::SummaryStore> {
        self.backing.as_deref()
    }

    /// Number of cached entries (resident plus unshadowed backing).
    #[must_use]
    pub fn len(&self) -> usize {
        let backed = self
            .backing
            .as_deref()
            .map(|store| store.names().filter(|n| !self.entries.contains_key(*n)).count())
            .unwrap_or(0);
        self.entries.len() + backed
    }

    /// Whether the cache holds no entries.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Classifies a lookup of `name` under the current `key`, returning
    /// the entry alongside a hit so the caller needs no second lookup
    /// (the warm-run fast path runs this once per analyzed function).
    /// Backing-store hits cost one positioned read plus a parse; an
    /// unreadable or corrupt stored entry counts as [`CacheProbe::Stale`]
    /// (the function is recomputed, the run is never poisoned).
    #[must_use]
    pub(crate) fn probe(&self, name: &str, key: u128) -> (CacheProbe, Option<CacheEntry>) {
        match self.entries.get(name) {
            Some(entry) if hex_matches(&entry.key, key) => {
                return (CacheProbe::Hit, Some(entry.clone()))
            }
            Some(_) => return (CacheProbe::Stale, None),
            None => {}
        }
        let Some(store) = self.backing.as_deref() else { return (CacheProbe::Absent, None) };
        match store.key_of(name) {
            None => (CacheProbe::Absent, None),
            Some(stored) if stored == key => match store.read_entry(name) {
                Ok(Some(entry)) => (CacheProbe::Hit, Some(entry)),
                _ => (CacheProbe::Stale, None),
            },
            Some(_) => (CacheProbe::Stale, None),
        }
    }

    /// The entry for `name`, regardless of key freshness. Backing-store
    /// entries are parsed on demand; unreadable ones read as absent.
    #[must_use]
    pub fn get(&self, name: &str) -> Option<CacheEntry> {
        if let Some(entry) = self.entries.get(name) {
            return Some(entry.clone());
        }
        self.backing.as_deref().and_then(|s| s.read_entry(name).ok().flatten())
    }

    /// Inserts (or replaces) the entry for `name`.
    pub(crate) fn insert(
        &mut self,
        name: &str,
        key: u128,
        summary: Summary,
        reports: Vec<IppReport>,
    ) {
        debug_assert!(!summary.partial, "degraded summaries are never cached");
        self.entries
            .insert(name.to_owned(), CacheEntry { key: hex_key(key), summary, reports });
    }
}

/// Canonical textual form of a key (32 lowercase hex digits).
#[must_use]
pub(crate) fn hex_key(key: u128) -> String {
    format!("{key:032x}")
}

/// Parses the canonical hex form back to a key; `None` on anything that
/// is not exactly 32 lowercase hex digits.
#[must_use]
pub(crate) fn parse_hex_key(text: &str) -> Option<u128> {
    if text.len() != 32 || !text.bytes().all(|b| b.is_ascii_digit() || (b'a'..=b'f').contains(&b))
    {
        return None;
    }
    u128::from_str_radix(text, 16).ok()
}

/// Whether `text` is the canonical hex form of `key`, without
/// allocating the comparison string.
fn hex_matches(text: &str, key: u128) -> bool {
    let bytes = text.as_bytes();
    bytes.len() == 32
        && bytes.iter().rev().enumerate().all(|(i, &c)| {
            let digit = ((key >> (4 * i)) & 0xf) as usize;
            c == b"0123456789abcdef"[digit]
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::callgraph::CallGraph;
    use rid_frontend::parse_program;

    fn keys_of(srcs: &[&str]) -> (CallGraph, Vec<Option<u128>>, Vec<String>) {
        let program = parse_program(srcs.iter().copied()).unwrap();
        let graph = CallGraph::build(&program);
        let cond = graph.condensation();
        let roots = vec![true; cond.members.len()];
        let functions = program.functions();
        let keys = function_keys(&functions, &cond, &roots, 7);
        let names = functions.iter().map(|f| f.name().to_owned()).collect();
        (graph, keys, names)
    }

    fn key_map(srcs: &[&str]) -> BTreeMap<String, u128> {
        let (_, keys, names) = keys_of(srcs);
        names.into_iter().zip(keys.into_iter().map(Option::unwrap)).collect()
    }

    #[test]
    fn fnv128_distinguishes_and_is_stable() {
        let mut a = Fnv128::new();
        a.write(b"hello");
        let mut b = Fnv128::new();
        b.write(b"hello");
        assert_eq!(a.finish(), b.finish());
        let mut c = Fnv128::new();
        c.write(b"hellp");
        assert_ne!(a.finish(), c.finish());
    }

    #[test]
    fn edit_invalidates_exactly_the_caller_cone() {
        let before = [
            "module m; fn leaf(d) { pm_runtime_get(d); return; }",
            "module n; fn mid(d) { leaf(d); return; } fn top(d) { mid(d); return; } fn other(d) { pm_runtime_put(d); return; }",
        ];
        let after = [
            "module m; fn leaf(d) { pm_runtime_get(d); pm_runtime_put(d); return; }",
            "module n; fn mid(d) { leaf(d); return; } fn top(d) { mid(d); return; } fn other(d) { pm_runtime_put(d); return; }",
        ];
        let a = key_map(&before);
        let b = key_map(&after);
        assert_ne!(a["leaf"], b["leaf"]);
        assert_ne!(a["mid"], b["mid"], "callers must see the callee change");
        assert_ne!(a["top"], b["top"], "the cone is transitive");
        assert_eq!(a["other"], b["other"], "unrelated functions keep their keys");
    }

    #[test]
    fn scc_members_share_one_key_and_invalidate_together() {
        let v1 = ["module m; fn a(d) { b(d); return; } fn b(d) { a(d); return; } fn c(d) { a(d); return; }"];
        let v2 = ["module m; fn a(d) { b(d); pm_runtime_get(d); return; } fn b(d) { a(d); return; } fn c(d) { a(d); return; }"];
        let x = key_map(&v1);
        let y = key_map(&v2);
        assert_eq!(x["a"], x["b"], "SCC members share the component key");
        assert_ne!(x["a"], y["a"]);
        assert_ne!(x["b"], y["b"], "editing one member invalidates the SCC");
        assert_ne!(x["c"], y["c"], "and the SCC's callers");
    }

    #[test]
    fn lazy_marking_skips_unreachable_components() {
        let program = parse_program([
            "module m; fn wanted(d) { helper(d); return; } fn helper(d) { return; } fn ignored(d) { return; }",
        ])
        .unwrap();
        let graph = CallGraph::build(&program);
        let cond = graph.condensation();
        let functions = program.functions();
        let mut roots = vec![false; cond.members.len()];
        roots[cond.comp_of[graph.index_of("wanted").unwrap()]] = true;
        let keys = function_keys(&functions, &cond, &roots, 0);
        assert!(keys[graph.index_of("wanted").unwrap()].is_some());
        assert!(
            keys[graph.index_of("helper").unwrap()].is_some(),
            "transitive callees of a root are hashed"
        );
        assert!(
            keys[graph.index_of("ignored").unwrap()].is_none(),
            "components no root reaches are skipped"
        );
    }

    #[test]
    fn salt_changes_with_options_and_apis() {
        let apis = crate::apis::linux_dpm_apis();
        let base = AnalysisOptions::default();
        let s0 = cache_salt(&base, &apis);
        assert_eq!(s0, cache_salt(&base, &apis), "salt is deterministic");
        let mut tighter = base;
        tighter.limits.max_paths /= 2;
        assert_ne!(s0, cache_salt(&tighter, &apis));
        let mut unselective = base;
        unselective.selective = false;
        assert_ne!(s0, cache_salt(&unselective, &apis));
        assert_ne!(s0, cache_salt(&base, &crate::apis::python_c_apis()));
        let mut threaded = base;
        threaded.threads = 8;
        assert_eq!(s0, cache_salt(&threaded, &apis), "thread count is not key material");
    }

    #[test]
    fn probe_classifies_hit_stale_absent() {
        let mut cache = SummaryCache::new();
        assert!(cache.is_empty());
        cache.insert("f", 42, Summary::new("f"), Vec::new());
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.probe("f", 42).0, CacheProbe::Hit);
        assert!(cache.probe("f", 42).1.is_some(), "hits carry the entry");
        assert_eq!(cache.probe("f", 43).0, CacheProbe::Stale);
        assert_eq!(cache.probe("g", 42).0, CacheProbe::Absent);
        assert_eq!(cache.get("f").unwrap().key, hex_key(42));
    }
}
