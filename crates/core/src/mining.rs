//! Syntactic refcount-API discovery (§3.1 of the paper).
//!
//! The paper identifies its 800+ sets of refcount APIs (1600+ functions)
//! in Linux by *"a syntactical search for functions with similar names
//! except some common antonyms such as 'inc'-'dec' and 'get'-'put'"*,
//! and observes that 93.5% of kernel files call these APIs directly or
//! indirectly. This module reproduces that mechanism:
//!
//! * [`discover_api_pairs`] scans every function name (definitions and
//!   externs) for antonym pairs;
//! * [`summaries_for_pairs`] synthesizes predefined summaries (`+1`/`−1`
//!   on a field of the first argument) so discovered pairs can seed the
//!   analysis without hand-written specifications;
//! * [`modules_touching`] measures the fraction of modules that reach the
//!   APIs directly or transitively — the paper's 93.5% statistic.
//!
//! Discovery is heuristic by design: a `get`/`put` name pair is *likely*
//! a refcount API, not certainly one. The paper hand-validated its 800
//! sets; here discovered summaries are meant as a starting inventory to
//! be reviewed (or used as-is in exploratory scans).

use std::collections::{BTreeMap, BTreeSet, HashSet};

use rid_ir::{Module, Program};
use serde::{Deserialize, Serialize};

use crate::apis::PredefinedBuilder;
use crate::summary::SummaryDb;

/// The antonym table used for discovery (the paper names 'inc'-'dec' and
/// 'get'-'put'; the rest are the usual kernel resource-management verbs).
pub const ANTONYMS: &[(&str, &str)] = &[
    ("get", "put"),
    ("inc", "dec"),
    ("acquire", "release"),
    ("ref", "unref"),
    ("grab", "drop"),
    ("lock", "unlock"),
    ("enable", "disable"),
    ("hold", "rele"),
];

/// A discovered increment/decrement API pair.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub struct ApiPair {
    /// The incrementing function (e.g. `usb_autopm_get`).
    pub inc: String,
    /// The decrementing function (e.g. `usb_autopm_put`).
    pub dec: String,
    /// The antonym pair that matched.
    pub verbs: (String, String),
}

/// Splits a function name into `_`-separated words.
fn words(name: &str) -> Vec<&str> {
    name.split('_').filter(|w| !w.is_empty()).collect()
}

/// If exactly one word of `a` and `b` differs and that difference is an
/// antonym pair, returns the pair (oriented inc-first).
fn match_names(a: &str, b: &str) -> Option<(&'static str, &'static str, bool)> {
    let wa = words(a);
    let wb = words(b);
    if wa.len() != wb.len() {
        return None;
    }
    let mut diff = None;
    for (x, y) in wa.iter().zip(&wb) {
        if x == y {
            continue;
        }
        if diff.is_some() {
            return None; // more than one differing word
        }
        diff = Some((*x, *y));
    }
    let (x, y) = diff?;
    for &(inc, dec) in ANTONYMS {
        if x == inc && y == dec {
            return Some((inc, dec, true));
        }
        if x == dec && y == inc {
            return Some((inc, dec, false));
        }
    }
    None
}

/// Discovers antonym-named function pairs among `names`.
///
/// # Examples
///
/// ```
/// use rid_core::mining::discover_api_pairs;
///
/// let names = ["usb_autopm_get", "usb_autopm_put", "kmalloc", "spi_ref", "spi_unref"];
/// let pairs = discover_api_pairs(names.iter().copied());
/// assert_eq!(pairs.len(), 2);
/// assert_eq!(pairs[0].inc, "spi_ref");
/// assert_eq!(pairs[1].inc, "usb_autopm_get");
/// ```
pub fn discover_api_pairs<'a>(names: impl IntoIterator<Item = &'a str>) -> Vec<ApiPair> {
    let names: BTreeSet<&str> = names.into_iter().collect();
    // Index by word count to keep the pairing quadratic only per bucket.
    let mut buckets: BTreeMap<usize, Vec<&str>> = BTreeMap::new();
    for name in &names {
        buckets.entry(words(name).len()).or_default().push(name);
    }
    let mut pairs = BTreeSet::new();
    for bucket in buckets.values() {
        for (i, a) in bucket.iter().enumerate() {
            for b in &bucket[i + 1..] {
                if let Some((inc_verb, dec_verb, a_is_inc)) = match_names(a, b) {
                    let (inc, dec) = if a_is_inc { (*a, *b) } else { (*b, *a) };
                    pairs.insert(ApiPair {
                        inc: inc.to_owned(),
                        dec: dec.to_owned(),
                        verbs: (inc_verb.to_owned(), dec_verb.to_owned()),
                    });
                }
            }
        }
    }
    pairs.into_iter().collect()
}

/// Every function name appearing in a program: definitions plus callees
/// (externs included).
#[must_use]
pub fn all_function_names(program: &Program) -> BTreeSet<String> {
    let mut names = BTreeSet::new();
    for func in program.functions() {
        names.insert(func.name().to_owned());
        for callee in func.callees() {
            names.insert(callee.to_owned());
        }
    }
    names
}

/// Synthesizes predefined summaries for discovered pairs: `inc` adds `+1`
/// and `dec` adds `−1` to `arg0.<field>`.
#[must_use]
pub fn summaries_for_pairs(pairs: &[ApiPair], field: &str) -> SummaryDb {
    let mut db = SummaryDb::new();
    for pair in pairs {
        db.insert(
            PredefinedBuilder::new(pair.inc.clone())
                .entry(|e| e.change_arg_field(0, field, 1).ret_any())
                .build(),
        );
        db.insert(
            PredefinedBuilder::new(pair.dec.clone())
                .entry(|e| e.change_arg_field(0, field, -1).ret_any())
                .build(),
        );
    }
    db
}

/// Counts modules that call the given APIs directly or indirectly
/// (through functions defined in any module) — the paper's "10987 out of
/// 11755 (93.5%) files" statistic (§3.1).
///
/// Returns `(touching, total)`.
#[must_use]
pub fn modules_touching(modules: &[Module], api_names: &HashSet<&str>) -> (usize, usize) {
    // Compute the set of *functions* that transitively reach an API, then
    // mark modules containing any such function.
    let mut program = Program::new();
    for module in modules {
        // Duplicate strong definitions across modules would fail to link;
        // for the census we only need names, so skip failures.
        let _ = program.link(module.clone());
    }
    let graph = crate::callgraph::CallGraph::build(&program);
    let mut reaches: Vec<bool> = vec![false; graph.len()];
    for i in graph.reverse_topological_order() {
        let direct = graph.unknown_callee_syms(i).iter().any(|c| api_names.contains(c.as_str()))
            || api_names.contains(graph.name(i));
        let via = graph.callees(i).iter().any(|&j| reaches[j]);
        if direct || via {
            reaches[i] = true;
        }
    }
    let touching = modules
        .iter()
        .filter(|m| {
            m.functions().iter().any(|f| {
                graph.index_of(f.name()).is_some_and(|i| reaches[i])
            })
        })
        .count();
    (touching, modules.len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rid_frontend::parse_module;

    #[test]
    fn antonym_matching() {
        assert!(match_names("dev_get", "dev_put").is_some());
        assert!(match_names("kref_inc", "kref_dec").is_some());
        // Orientation: put-first input still yields inc-first pair.
        let (_, _, a_is_inc) = match_names("dev_put", "dev_get").unwrap();
        assert!(!a_is_inc);
        // More than one differing word: no match.
        assert!(match_names("usb_get_dev", "pci_put_card").is_none());
        // Different word counts: no match.
        assert!(match_names("dev_get", "dev_get_sync").is_none());
        // Unrelated names: no match.
        assert!(match_names("kmalloc", "kfree").is_none());
    }

    #[test]
    fn discovery_is_deterministic_and_sorted() {
        let names = ["b_get", "b_put", "a_ref", "a_unref", "a_ref_fast"];
        let pairs = discover_api_pairs(names.iter().copied());
        assert_eq!(pairs.len(), 2);
        assert_eq!(pairs[0].inc, "a_ref");
        assert_eq!(pairs[0].dec, "a_unref");
        assert_eq!(pairs[1].verbs, ("get".to_owned(), "put".to_owned()));
    }

    #[test]
    fn synthesized_summaries_change_refcounts() {
        let pairs = discover_api_pairs(["kref_get", "kref_put"]);
        let db = summaries_for_pairs(&pairs, "refs");
        assert!(db.get("kref_get").unwrap().changes_refcounts());
        assert!(db.get("kref_put").unwrap().changes_refcounts());
        let seeds: Vec<&str> = db.refcount_changing_names().collect();
        assert_eq!(seeds.len(), 2);
    }

    #[test]
    fn discovered_apis_drive_the_analysis() {
        // Mine the pair from the program itself, synthesize summaries,
        // and find a bug with zero hand-written specifications.
        let src = r#"module m;
            extern fn kref_get;
            extern fn kref_put;
            fn lose(obj) {
                kref_get(obj);
                let st = probe(obj);
                if (st < 0) { return 0; }
                kref_put(obj);
                return 0;
            }"#;
        let program = rid_frontend::parse_program([src]).unwrap();
        let pairs =
            discover_api_pairs(all_function_names(&program).iter().map(String::as_str));
        assert_eq!(pairs.len(), 1);
        let apis = summaries_for_pairs(&pairs, "refs");
        let result = crate::driver::analyze_program(
            &program,
            &apis,
            &crate::driver::AnalysisOptions::default(),
        );
        assert_eq!(result.reports.len(), 1);
        assert_eq!(result.reports[0].function, "lose");
    }

    #[test]
    fn module_census() {
        let touching = parse_module(
            "module a; fn f(dev) { pm_runtime_get(dev); return; }",
        )
        .unwrap();
        let indirect = parse_module("module b; fn g(dev) { f(dev); return; }").unwrap();
        let unrelated = parse_module("module c; fn h() { return; }").unwrap();
        let apis: HashSet<&str> = ["pm_runtime_get"].into_iter().collect();
        let (count, total) = modules_touching(&[touching, indirect, unrelated], &apis);
        assert_eq!((count, total), (2, 3));
    }
}
