//! Two-phase function classification (§5.2 of the paper).
//!
//! Analyzing a whole OS kernel path-by-path with constraint solving is too
//! expensive, so RID first classifies every function into one of three
//! categories and only analyzes the first two:
//!
//! 1. **Functions with refcount changes** — they (transitively) call
//!    refcount APIs. Fully analyzed.
//! 2. **Functions affecting those with refcount changes** — their return
//!    values feed the arguments, return values, or branch conditions
//!    around refcount-changing calls. Analyzed only when simple (at most
//!    three conditional branches); otherwise assumed to return anything.
//! 3. **Everything else** — ignored.

use std::collections::{HashMap, HashSet};

use rid_ir::{Program, Sym};
use serde::{Deserialize, Serialize};

use crate::callgraph::CallGraph;
use crate::slice::sliced_callees;
use crate::summary::SummaryDb;

/// The §5.2 category of a function.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum Category {
    /// Category 1: (transitively) changes refcounts; fully analyzed.
    RefcountChanging,
    /// Category 2, simple enough (≤ `max_branches`) to be analyzed.
    AffectingAnalyzed,
    /// Category 2, too complex; gets the unconstrained default summary.
    AffectingSkipped,
    /// Category 3: irrelevant to the analysis.
    Other,
}

impl Category {
    /// Whether functions of this category are symbolically analyzed.
    #[must_use]
    pub fn is_analyzed(self) -> bool {
        matches!(self, Category::RefcountChanging | Category::AffectingAnalyzed)
    }
}

/// The classification of every function in a program.
///
/// Keyed by interned handle; persisted as the `String`-keyed map it
/// replaces, byte for byte.
#[derive(Clone, Debug, Default)]
pub struct Classification {
    map: HashMap<Sym, Category>,
}

/// The persisted shape of a [`Classification`]: the same map keyed by
/// text (serialized in name order).
#[derive(Serialize, Deserialize)]
struct ClassificationText {
    map: HashMap<String, Category>,
}

impl Serialize for Classification {
    fn serialize<S: serde::Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        let map = self.map.iter().map(|(name, &c)| (name.as_str().to_owned(), c)).collect();
        ClassificationText { map }.serialize(serializer)
    }
}

impl<'de> Deserialize<'de> for Classification {
    fn deserialize<D: serde::Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        let text = ClassificationText::deserialize(deserializer)?;
        Ok(Classification { map: text.map.iter().map(|(name, &c)| (Sym::new(name), c)).collect() })
    }
}

/// Census counts per category (Table 1 of the paper).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CategoryCounts {
    /// Category-1 functions.
    pub refcount_changing: usize,
    /// Category-2 functions that are analyzed.
    pub affecting_analyzed: usize,
    /// Category-2 functions that are skipped.
    pub affecting_skipped: usize,
    /// Category-3 functions.
    pub other: usize,
}

impl CategoryCounts {
    /// Total number of functions.
    #[must_use]
    pub fn total(&self) -> usize {
        self.refcount_changing + self.affecting_analyzed + self.affecting_skipped + self.other
    }
}

impl Classification {
    /// The category of `func` ([`Category::Other`] when unknown).
    #[must_use]
    pub fn category(&self, func: &str) -> Category {
        Sym::lookup(func).map_or(Category::Other, |sym| self.category_sym(sym))
    }

    /// The category of the interned `func` ([`Category::Other`] when
    /// unknown).
    #[must_use]
    pub fn category_sym(&self, func: Sym) -> Category {
        self.map.get(&func).copied().unwrap_or(Category::Other)
    }

    /// Census counts for Table 1.
    #[must_use]
    pub fn counts(&self) -> CategoryCounts {
        let mut counts = CategoryCounts::default();
        for category in self.map.values() {
            match category {
                Category::RefcountChanging => counts.refcount_changing += 1,
                Category::AffectingAnalyzed => counts.affecting_analyzed += 1,
                Category::AffectingSkipped => counts.affecting_skipped += 1,
                Category::Other => counts.other += 1,
            }
        }
        counts
    }

    /// Iterates over `(function, category)` pairs (unspecified order).
    pub fn iter(&self) -> impl Iterator<Item = (&str, Category)> {
        self.map.iter().map(|(name, &c)| (name.as_str(), c))
    }
}

/// Maximum conditional branches for a category-2 function to be analyzed
/// (the paper uses three, §5.2).
pub const MAX_CATEGORY2_BRANCHES: usize = 3;

/// Classifies every function of `program` (§5.2's two phases).
///
/// `graph` must be the call graph of `program`; its SCCs (computed once
/// per graph) give phase 1 its callee-first order. `predefined` supplies
/// the refcount APIs that seed phase 1 (their summaries change
/// refcounts).
#[must_use]
pub fn classify(program: &Program, graph: &CallGraph, predefined: &SummaryDb) -> Classification {
    let api_changes: HashSet<Sym> = predefined.refcount_changing_syms().collect();
    let body = |i: usize| program.function_sym(graph.sym(i)).expect("graph nodes are defined");

    // Phase 1: reverse-topological closure of "calls something that
    // changes refcounts".
    let mut refcount_changing = vec![false; graph.len()];
    for &i in graph.sccs().iter().flatten() {
        let via_api = graph.unknown_callee_syms(i).iter().any(|c| api_changes.contains(c));
        // A defined function with a predefined summary is also a seed
        // (predefined summaries shadow bodies, §5.1).
        let shadowed = predefined
            .get_sym(graph.sym(i))
            .is_some_and(crate::summary::Summary::changes_refcounts);
        let via_calls = graph.callees(i).iter().any(|&j| refcount_changing[j]);
        refcount_changing[i] = via_api || via_calls || shadowed;
    }

    // Phase 2: mark non-category-1 callees whose results land in the
    // §5.2 slice of a related function. Only functions related to
    // refcount behaviour propagate relevance: category-1 functions seed
    // the worklist, and every function found category 2 is scanned in
    // turn, which reaches the same fixpoint as rescanning until nothing
    // changes.
    let is_rc = |name: Sym| -> bool {
        api_changes.contains(&name)
            || graph.index_of_sym(name).is_some_and(|i| refcount_changing[i])
    };
    let mut affecting = vec![false; graph.len()];
    let mut worklist: Vec<usize> = (0..graph.len()).filter(|&i| refcount_changing[i]).collect();
    while let Some(i) = worklist.pop() {
        for callee in sliced_callees(body(i), &is_rc) {
            if let Some(j) = graph.index_of_sym(callee) {
                if !refcount_changing[j] && !affecting[j] {
                    affecting[j] = true;
                    worklist.push(j);
                }
            }
        }
    }

    let map = (0..graph.len())
        .map(|i| {
            let category = if refcount_changing[i] {
                Category::RefcountChanging
            } else if !affecting[i] {
                Category::Other
            } else if body(i).conditional_branch_count() <= MAX_CATEGORY2_BRANCHES {
                Category::AffectingAnalyzed
            } else {
                Category::AffectingSkipped
            };
            (graph.sym(i), category)
        })
        .collect();
    Classification { map }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apis::linux_dpm_apis;
    use rid_frontend::parse_program;

    fn classify_src(src: &str) -> Classification {
        let program = parse_program([src]).unwrap();
        let graph = CallGraph::build(&program);
        classify(&program, &graph, &linux_dpm_apis())
    }

    #[test]
    fn direct_api_caller_is_category1() {
        let c = classify_src("module m; fn f(dev) { pm_runtime_get(dev); return; }");
        assert_eq!(c.category("f"), Category::RefcountChanging);
    }

    #[test]
    fn transitive_api_caller_is_category1() {
        let c = classify_src(
            "module m; fn wrapper(dev) { pm_runtime_get(dev); return; } fn outer(dev) { wrapper(dev); return; }",
        );
        assert_eq!(c.category("outer"), Category::RefcountChanging);
    }

    #[test]
    fn condition_source_is_category2() {
        let c = classify_src(
            r#"module m;
            fn probe() { let v = random; return v; }
            fn f(dev) {
                let st = probe();
                if (st < 0) { return -1; }
                pm_runtime_get(dev);
                return 0;
            }"#,
        );
        assert_eq!(c.category("probe"), Category::AffectingAnalyzed);
        assert_eq!(c.category("f"), Category::RefcountChanging);
    }

    #[test]
    fn complex_category2_is_skipped() {
        let mut probe = String::from("module m; fn probe(x) {\n");
        for i in 0..5 {
            probe.push_str(&format!("if (x > {i}) {{ step{i}(); }}\n"));
        }
        probe.push_str("let v = random; return v; }\n");
        probe.push_str(
            "fn f(dev) { let st = probe(dev); if (st) { pm_runtime_get(dev); } return; }",
        );
        let c = classify_src(&probe);
        assert_eq!(c.category("probe"), Category::AffectingSkipped);
    }

    #[test]
    fn unrelated_function_is_other() {
        let c = classify_src(
            "module m; fn log() { return; } fn f(dev) { log(); pm_runtime_get(dev); return; }",
        );
        assert_eq!(c.category("log"), Category::Other);
        assert_eq!(c.category("unknown_function"), Category::Other);
    }

    #[test]
    fn counts_add_up() {
        let c = classify_src(
            r#"module m;
            fn probe() { let v = random; return v; }
            fn log() { return; }
            fn f(dev) { let s = probe(); if (s) { pm_runtime_get(dev); } return; }"#,
        );
        let counts = c.counts();
        assert_eq!(counts.total(), 3);
        assert_eq!(counts.refcount_changing, 1);
        assert_eq!(counts.affecting_analyzed, 1);
        assert_eq!(counts.other, 1);
    }

    #[test]
    fn category_is_analyzed_flags() {
        assert!(Category::RefcountChanging.is_analyzed());
        assert!(Category::AffectingAnalyzed.is_analyzed());
        assert!(!Category::AffectingSkipped.is_analyzed());
        assert!(!Category::Other.is_analyzed());
    }
}
