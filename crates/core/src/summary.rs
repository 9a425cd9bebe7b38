//! Function summaries (§4.3 of the paper).
//!
//! A summary is a set of *entries*; each entry records, under a constraint
//! on the arguments and the return value, how the function changes
//! refcounts. The return value itself is encoded inside the constraint as
//! conditions on the `[0]` slot, exactly as in Figure 2 of the paper.

use std::collections::BTreeMap;

use rid_ir::Sym;
use rid_solver::{Conj, Subst, Term, Var, VarKind};
use serde::{Deserialize, Serialize};

/// One summary entry: `(cons, changes, return)` from §4.3.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct SummaryEntry {
    /// Constraint on arguments and the return slot `[0]`.
    pub cons: Conj,
    /// Map from refcount expressions to their net change along the paths
    /// this entry summarizes. Zero changes are not stored.
    #[serde(with = "changes_serde")]
    pub changes: BTreeMap<Term, i64>,
    /// Human-readable return expression (`None` for void functions or
    /// unconstrained returns); the analysable content lives in `cons`.
    pub ret: Option<Term>,
}

impl SummaryEntry {
    /// The unconstrained, change-free entry (used as the *default summary*
    /// for functions the analysis skips, §5.2).
    #[must_use]
    pub fn default_entry() -> SummaryEntry {
        SummaryEntry { cons: Conj::truth(), changes: BTreeMap::new(), ret: None }
    }

    /// The change recorded for `rc` (zero when absent).
    #[must_use]
    pub fn change(&self, rc: &Term) -> i64 {
        self.changes.get(rc).copied().unwrap_or(0)
    }

    /// Whether the entry changes any refcount.
    #[must_use]
    pub fn has_changes(&self) -> bool {
        self.changes.values().any(|&delta| delta != 0)
    }

    /// Removes zero-valued change records (canonical form).
    pub fn prune_zero_changes(&mut self) {
        self.changes.retain(|_, delta| *delta != 0);
    }

    /// Instantiates the entry at a call site (Algorithm 1, line 2):
    /// formal arguments are replaced by the actual argument terms, the
    /// return slot `[0]` by `ret_var`, and callee-opaque objects by fresh
    /// caller-side opaque variables derived deterministically from
    /// `site_id` (so that two paths sharing a prefix agree on names).
    #[must_use]
    pub fn instantiate(&self, actuals: &[Term], ret_var: &Term, site_id: u32) -> SummaryEntry {
        let mut subst = Subst::new();
        let mut vars = Vec::new();
        self.cons.collect_vars(&mut vars);
        for key in self.changes.keys() {
            key.collect_vars(&mut vars);
        }
        if let Some(ret) = &self.ret {
            ret.collect_vars(&mut vars);
        }
        vars.sort_unstable();
        vars.dedup();
        for var in vars {
            match var.kind {
                VarKind::Formal => {
                    let replacement = actuals
                        .get(var.id as usize)
                        .cloned()
                        // Arity mismatch: treat the missing argument as an
                        // unconstrained opaque value.
                        .unwrap_or_else(|| {
                            Term::var(Var::opaque(site_id, 1000 + var.id))
                        });
                    subst.insert(var, replacement);
                }
                VarKind::Ret => {
                    subst.insert(var, ret_var.clone());
                }
                VarKind::Opaque => {
                    // Deterministic renaming into the caller's namespace.
                    subst.insert(var, Term::var(Var::opaque(site_id, var.id * 64 + var.sub)));
                }
                // Summaries are finalized before being stored, so they never
                // contain locals/call-results/randoms; tolerate them by
                // leaving them unmapped (they act as opaque atoms).
                VarKind::Local | VarKind::CallRet | VarKind::Random => {}
            }
        }
        let mut changes = BTreeMap::new();
        for (rc, delta) in &self.changes {
            let rc = rc.substitute(&subst);
            // Changes keyed on constants (e.g. a null actual argument)
            // cannot denote a refcount; drop them.
            if rc.root_var().is_some() {
                *changes.entry(rc).or_insert(0) += delta;
            }
        }
        changes.retain(|_, delta| *delta != 0);
        SummaryEntry {
            cons: self.cons.substitute(&subst),
            changes,
            ret: self.ret.as_ref().map(|r| r.substitute(&subst)),
        }
    }
}

/// JSON-friendly encoding of the change map: a list of `(term, delta)`
/// pairs (JSON object keys must be strings, and refcount keys are terms).
mod changes_serde {
    use super::*;
    use serde::{Deserializer, Serializer};

    pub fn serialize<S: Serializer>(
        map: &BTreeMap<Term, i64>,
        serializer: S,
    ) -> Result<S::Ok, S::Error> {
        let pairs: Vec<(&Term, &i64)> = map.iter().collect();
        serde::Serialize::serialize(&pairs, serializer)
    }

    pub fn deserialize<'de, D: Deserializer<'de>>(
        deserializer: D,
    ) -> Result<BTreeMap<Term, i64>, D::Error> {
        let pairs: Vec<(Term, i64)> = serde::Deserialize::deserialize(deserializer)?;
        Ok(pairs.into_iter().collect())
    }
}

/// A function summary: a set of entries plus bookkeeping.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Summary {
    /// Name of the summarized function.
    pub func: Sym,
    /// The summary entries.
    pub entries: Vec<SummaryEntry>,
    /// Whether analysis limits were hit while summarizing, in which case a
    /// default entry was added (§5.2).
    pub partial: bool,
}

impl Summary {
    /// Creates an empty summary for `func`.
    #[must_use]
    pub fn new(func: impl Into<Sym>) -> Summary {
        Summary { func: func.into(), entries: Vec::new(), partial: false }
    }

    /// The *default summary*: a single unconstrained entry with no changes.
    /// Used for functions that are skipped or exceed analysis limits (§5.2).
    #[must_use]
    pub fn default_for(func: impl Into<Sym>) -> Summary {
        Summary {
            func: func.into(),
            entries: vec![SummaryEntry::default_entry()],
            partial: true,
        }
    }

    /// Whether any entry changes a refcount.
    #[must_use]
    pub fn changes_refcounts(&self) -> bool {
        self.entries.iter().any(SummaryEntry::has_changes)
    }

    /// Deduplicates identical entries (the paper merges overlapping
    /// equal-change entries; since our constraints are conjunctive we keep
    /// distinct overlapping entries and only drop exact duplicates — see
    /// `DESIGN.md` §4.5).
    pub fn dedup_entries(&mut self) {
        let mut seen = Vec::new();
        self.entries.retain(|e| {
            let mut key = e.clone();
            key.cons.normalize();
            if seen.contains(&key) {
                false
            } else {
                seen.push(key);
                true
            }
        });
    }
}

/// A database of function summaries — predefined API specifications (§5.1)
/// plus everything computed so far by the bottom-up traversal.
///
/// Keyed by interned [`Sym`] handles: lookups on the hot `exec_call` path
/// compare 4-byte ids, while iteration order (and therefore every
/// serialized artifact) stays in *string* order because `Sym`'s `Ord`
/// resolves to the text — the persisted JSON is byte-identical to the
/// `String`-keyed representation it replaces, via the manual serde impls
/// below.
#[derive(Clone, Debug, Default)]
pub struct SummaryDb {
    map: BTreeMap<Sym, Summary>,
}

impl Serialize for SummaryDb {
    fn serialize<S: serde::Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        let mut pairs = Vec::with_capacity(self.map.len());
        for (name, summary) in &self.map {
            pairs.push((
                name.as_str().to_owned(),
                serde::__private::to_value_err::<_, S::Error>(summary)?,
            ));
        }
        serializer
            .serialize_value(serde::Value::Map(vec![("map".to_owned(), serde::Value::Map(pairs))]))
    }
}

impl<'de> Deserialize<'de> for SummaryDb {
    fn deserialize<D: serde::Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        let fields = serde::__private::expect_map::<D::Error>(deserializer.take_value()?)?;
        let mut map = BTreeMap::new();
        for (field, value) in fields {
            if field == "map" {
                for (name, entry) in serde::__private::expect_map::<D::Error>(value)? {
                    let summary = Summary::deserialize(
                        serde::__private::ValueDeserializer::<D::Error>::new(entry),
                    )?;
                    map.insert(Sym::new(&name), summary);
                }
            }
        }
        Ok(SummaryDb { map })
    }
}

impl SummaryDb {
    /// Creates an empty database.
    #[must_use]
    pub fn new() -> SummaryDb {
        SummaryDb::default()
    }

    /// Looks up a summary by function name. Never grows the intern table
    /// for unknown names.
    #[must_use]
    pub fn get(&self, func: &str) -> Option<&Summary> {
        self.map.get(&Sym::lookup(func)?)
    }

    /// Looks up a summary by interned handle (the hash-4-bytes flavor of
    /// [`SummaryDb::get`], used on the `exec_call` hot path).
    #[must_use]
    pub fn get_sym(&self, func: Sym) -> Option<&Summary> {
        self.map.get(&func)
    }

    /// Whether a summary exists for `func`.
    #[must_use]
    pub fn contains(&self, func: &str) -> bool {
        Sym::lookup(func).is_some_and(|sym| self.map.contains_key(&sym))
    }

    /// Inserts (or replaces) a summary.
    pub fn insert(&mut self, summary: Summary) {
        self.map.insert(summary.func, summary);
    }

    /// Removes `func`'s summary, returning it if present. Incremental
    /// re-analysis uses this to evict the affected cone from a previous
    /// run's database instead of rebuilding the whole database.
    pub fn remove(&mut self, func: &str) -> Option<Summary> {
        self.map.remove(&Sym::lookup(func)?)
    }

    /// Merges another database into this one (later insertions win).
    pub fn merge(&mut self, other: SummaryDb) {
        self.map.extend(other.map);
    }

    /// Number of summaries stored.
    #[must_use]
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the database is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Iterates over stored summaries in name order.
    pub fn iter(&self) -> impl Iterator<Item = &Summary> {
        self.map.values()
    }

    /// Names of functions whose summaries change refcounts — the seed set
    /// for classification phase 1 (§5.2).
    pub fn refcount_changing_names(&self) -> impl Iterator<Item = &'static str> + '_ {
        self.refcount_changing_syms().map(Sym::as_str)
    }

    /// [`SummaryDb::refcount_changing_names`] as interned handles.
    pub fn refcount_changing_syms(&self) -> impl Iterator<Item = Sym> + '_ {
        self.map.values().filter(|s| s.changes_refcounts()).map(|s| s.func)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rid_ir::Pred;
    use rid_solver::Lit;

    fn get_sync_entry() -> SummaryEntry {
        // pm_runtime_get_sync: cons True, change [dev].pm +1, return [0]
        let mut changes = BTreeMap::new();
        changes.insert(Term::var(Var::formal(0)).field("pm"), 1);
        SummaryEntry { cons: Conj::truth(), changes, ret: Some(Term::var(Var::ret())) }
    }

    #[test]
    fn default_entry_is_changeless() {
        let e = SummaryEntry::default_entry();
        assert!(!e.has_changes());
        assert!(e.cons.is_truth());
        assert_eq!(e.change(&Term::var(Var::formal(0))), 0);
    }

    #[test]
    fn instantiation_substitutes_actuals() {
        let entry = get_sync_entry();
        // Call pm_runtime_get_sync(intf.dev) where intf is formal 0 of the
        // caller; the result goes into call-site 7's return variable.
        let actual = Term::var(Var::formal(0)).field("dev");
        let ret_var = Term::var(Var::call_ret(7, 0));
        let inst = entry.instantiate(std::slice::from_ref(&actual), &ret_var, 7);
        let key = actual.field("pm");
        assert_eq!(inst.change(&key), 1);
        assert_eq!(inst.ret, Some(ret_var));
    }

    #[test]
    fn instantiation_rewrites_ret_conditions() {
        // Entry: cons [0] = null, no changes (allocation failure).
        let entry = SummaryEntry {
            cons: Conj::from_lits([Lit::new(Pred::Eq, Term::var(Var::ret()), Term::NULL)]),
            changes: BTreeMap::new(),
            ret: None,
        };
        let ret_var = Term::var(Var::call_ret(3, 0));
        let inst = entry.instantiate(&[], &ret_var, 3);
        assert_eq!(inst.cons.lits()[0].lhs, ret_var);
    }

    #[test]
    fn instantiation_drops_constant_rooted_changes() {
        let entry = get_sync_entry();
        // Passing null as the device: the change key becomes null.pm and is
        // dropped.
        let inst = entry.instantiate(&[Term::NULL], &Term::var(Var::call_ret(1, 0)), 1);
        assert!(!inst.has_changes());
    }

    #[test]
    fn instantiation_renames_opaques_deterministically() {
        let mut changes = BTreeMap::new();
        changes.insert(Term::var(Var::opaque(0, 0)).field("rc"), 1);
        let entry = SummaryEntry { cons: Conj::truth(), changes, ret: None };
        let a = entry.instantiate(&[], &Term::var(Var::call_ret(5, 0)), 5);
        let b = entry.instantiate(&[], &Term::var(Var::call_ret(5, 0)), 5);
        assert_eq!(a, b);
        let c = entry.instantiate(&[], &Term::var(Var::call_ret(6, 0)), 6);
        assert_ne!(a.changes, c.changes);
    }

    #[test]
    fn arity_mismatch_maps_to_opaque() {
        let entry = get_sync_entry();
        let inst = entry.instantiate(&[], &Term::var(Var::call_ret(2, 0)), 2);
        // The change survives, rooted at an opaque stand-in.
        assert!(inst.has_changes());
        let root = inst.changes.keys().next().unwrap().root_var().unwrap();
        assert_eq!(root.kind, VarKind::Opaque);
    }

    #[test]
    fn summary_dedup() {
        let mut s = Summary::new("f");
        s.entries.push(SummaryEntry::default_entry());
        s.entries.push(SummaryEntry::default_entry());
        s.entries.push(get_sync_entry());
        s.dedup_entries();
        assert_eq!(s.entries.len(), 2);
    }

    #[test]
    fn db_roundtrip_and_seeds() {
        let mut db = SummaryDb::new();
        assert!(db.is_empty());
        db.insert(Summary::default_for("skipped"));
        let mut s = Summary::new("pm_runtime_get");
        s.entries.push(get_sync_entry());
        db.insert(s);
        assert_eq!(db.len(), 2);
        assert!(db.contains("pm_runtime_get"));
        let seeds: Vec<&str> = db.refcount_changing_names().collect();
        assert_eq!(seeds, vec!["pm_runtime_get"]);

        let json = serde_json::to_string(&db).unwrap();
        let back: SummaryDb = serde_json::from_str(&json).unwrap();
        assert_eq!(back.len(), 2);
        assert_eq!(
            back.get("pm_runtime_get").unwrap().entries,
            db.get("pm_runtime_get").unwrap().entries
        );
    }

    #[test]
    fn merge_prefers_latest() {
        let mut a = SummaryDb::new();
        a.insert(Summary::default_for("f"));
        let mut b = SummaryDb::new();
        let mut s = Summary::new("f");
        s.entries.push(get_sync_entry());
        b.insert(s);
        a.merge(b);
        assert!(a.get("f").unwrap().changes_refcounts());
    }
}
