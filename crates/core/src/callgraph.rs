//! Call graph construction, SCC condensation and traversal orders (§4.2,
//! §5.2 of the paper).
//!
//! Functions are summarized in reverse topological order of the call graph
//! so callee summaries exist before their callers are analyzed. Recursion
//! (cycles) is broken arbitrarily but deterministically: within an SCC,
//! calls to functions not yet summarized fall back to the default summary.

use std::collections::HashMap;
use std::sync::OnceLock;

use rid_ir::{Function, Program, Sym};

/// The call graph over a program's defined functions.
///
/// Calls to functions without a definition (externs / predefined APIs) are
/// recorded separately in [`CallGraph::unknown_callees`].
///
/// Nodes are keyed by interned handle, so building the graph and looking
/// up a callee hash 4 bytes, never the name's text. The SCCs are computed
/// once, on first use, and shared by [`CallGraph::sccs`],
/// [`CallGraph::condensation`] and classification.
#[derive(Clone, Debug)]
pub struct CallGraph {
    names: Vec<Sym>,
    index: HashMap<Sym, usize>,
    /// `edges[i]` = indices of defined functions called by function `i`
    /// (deduplicated, sorted).
    edges: Vec<Vec<usize>>,
    /// `callers[i]` = indices of defined functions calling function `i`.
    callers: Vec<Vec<usize>>,
    /// Called-but-undefined functions per function (sorted by name,
    /// deduplicated).
    unknown: Vec<Vec<Sym>>,
    /// `unknown` as owned text, built on the first
    /// [`CallGraph::unknown_callees`] call.
    unknown_text: OnceLock<Vec<Vec<String>>>,
    /// Tarjan's SCCs, built on first use.
    sccs: OnceLock<Vec<Vec<usize>>>,
}

impl CallGraph {
    /// Builds the call graph of `program`.
    #[must_use]
    pub fn build(program: &Program) -> CallGraph {
        CallGraph::from_functions(&program.functions())
    }

    /// Builds the call graph over `functions`, which must be
    /// [`Program::functions`] of the program being analyzed: node `i` is
    /// `functions[i]`. Callers that need that list too compute it once
    /// and share it, instead of re-sorting the program's names.
    #[must_use]
    pub fn from_functions(functions: &[&Function]) -> CallGraph {
        let names: Vec<Sym> = functions.iter().map(|f| f.name_sym()).collect();
        let index: HashMap<Sym, usize> =
            names.iter().enumerate().map(|(i, &n)| (n, i)).collect();
        let mut edges = vec![Vec::new(); names.len()];
        let mut callers = vec![Vec::new(); names.len()];
        let mut unknown = vec![Vec::new(); names.len()];
        for (i, func) in functions.iter().enumerate() {
            for callee in func.callee_syms() {
                match index.get(&callee) {
                    Some(&j) => edges[i].push(j),
                    None => unknown[i].push(callee),
                }
            }
            edges[i].sort_unstable();
            edges[i].dedup();
            unknown[i].sort_unstable();
            unknown[i].dedup();
        }
        for (i, callees) in edges.iter().enumerate() {
            for &j in callees {
                callers[j].push(i);
            }
        }
        CallGraph {
            names,
            index,
            edges,
            callers,
            unknown,
            unknown_text: OnceLock::new(),
            sccs: OnceLock::new(),
        }
    }

    /// Number of functions (nodes).
    #[must_use]
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// Whether the graph has no nodes.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// The function name at `index`.
    #[must_use]
    pub fn name(&self, index: usize) -> &str {
        self.names[index].as_str()
    }

    /// The interned function name at `index`.
    #[must_use]
    pub fn sym(&self, index: usize) -> Sym {
        self.names[index]
    }

    /// The node index of `name`. Never grows the intern table.
    #[must_use]
    pub fn index_of(&self, name: &str) -> Option<usize> {
        self.index_of_sym(Sym::lookup(name)?)
    }

    /// The node index of the interned `name`.
    #[must_use]
    pub fn index_of_sym(&self, name: Sym) -> Option<usize> {
        self.index.get(&name).copied()
    }

    /// Defined callees of node `i`.
    #[must_use]
    pub fn callees(&self, i: usize) -> &[usize] {
        &self.edges[i]
    }

    /// Callers of node `i`.
    #[must_use]
    pub fn callers(&self, i: usize) -> &[usize] {
        &self.callers[i]
    }

    /// Undefined (extern) callees of node `i`, sorted by name.
    #[must_use]
    pub fn unknown_callees(&self, i: usize) -> &[String] {
        let text = self.unknown_text.get_or_init(|| {
            self.unknown
                .iter()
                .map(|names| names.iter().map(|n| n.as_str().to_owned()).collect())
                .collect()
        });
        &text[i]
    }

    /// Undefined (extern) callees of node `i` as interned handles, sorted
    /// by name.
    #[must_use]
    pub fn unknown_callee_syms(&self, i: usize) -> &[Sym] {
        &self.unknown[i]
    }

    /// Strongly connected components in *reverse topological order*
    /// (callees before callers), computed with Tarjan's algorithm on the
    /// first call and shared by every later one. Within a component, node
    /// order is ascending.
    #[must_use]
    pub fn sccs(&self) -> &[Vec<usize>] {
        self.sccs.get_or_init(|| self.tarjan())
    }

    fn tarjan(&self) -> Vec<Vec<usize>> {
        // Iterative Tarjan.
        #[derive(Clone, Copy)]
        struct NodeData {
            index: u32,
            lowlink: u32,
            on_stack: bool,
        }
        const UNVISITED: u32 = u32::MAX;
        let n = self.len();
        let mut data = vec![NodeData { index: UNVISITED, lowlink: 0, on_stack: false }; n];
        let mut next_index = 0u32;
        let mut stack: Vec<usize> = Vec::new();
        let mut sccs: Vec<Vec<usize>> = Vec::new();

        // Explicit DFS stack: (node, next child position).
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
                if *child < self.edges[v].len() {
                    let w = self.edges[v][*child];
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
        // Tarjan emits SCCs in reverse topological order already (a
        // component is emitted only after all components it reaches).
        sccs
    }

    /// Function indices in reverse topological order (callees first),
    /// with recursion broken by SCC-internal index order.
    #[must_use]
    pub fn reverse_topological_order(&self) -> Vec<usize> {
        self.sccs().iter().flatten().copied().collect()
    }

    /// The SCC condensation of the call graph: one node per strongly
    /// connected component, with deduplicated cross-component edges in
    /// both directions. Components are in reverse topological order
    /// (callee components have smaller indices), so `callee_comps[c]`
    /// only contains indices `< c` and `caller_comps[c]` only `> c`.
    ///
    /// This is the dependency structure the work-stealing scheduler
    /// counts over: a component is ready when every component in its
    /// `callee_comps` has been summarized.
    #[must_use]
    pub fn condensation(&self) -> Condensation {
        let members = self.sccs().to_vec();
        let mut comp_of = vec![0usize; self.len()];
        for (c, comp) in members.iter().enumerate() {
            for &v in comp {
                comp_of[v] = c;
            }
        }
        let mut callee_comps: Vec<Vec<usize>> = vec![Vec::new(); members.len()];
        let mut caller_comps: Vec<Vec<usize>> = vec![Vec::new(); members.len()];
        for (c, comp) in members.iter().enumerate() {
            let callees = &mut callee_comps[c];
            for &v in comp {
                for &w in &self.edges[v] {
                    let cw = comp_of[w];
                    if cw != c {
                        callees.push(cw);
                    }
                }
            }
            callees.sort_unstable();
            callees.dedup();
            for &cw in callees.iter() {
                caller_comps[cw].push(c);
            }
        }
        // Caller lists were filled in ascending caller order already.
        Condensation { members, comp_of, callee_comps, caller_comps }
    }

    /// Condensation levels: `level[i]` is the length of the longest chain
    /// of SCCs below function `i`'s component. All functions of level `k`
    /// only call functions of levels `< k` (or their own SCC), so each
    /// level can be analyzed in parallel once previous levels are done.
    #[must_use]
    pub fn levels(&self) -> Vec<usize> {
        let sccs = self.sccs();
        let mut comp_of = vec![0usize; self.len()];
        for (c, comp) in sccs.iter().enumerate() {
            for &v in comp {
                comp_of[v] = c;
            }
        }

        // sccs are in reverse topological order, so callee components have
        // smaller indices; one pass suffices.
        let mut comp_level = vec![0usize; sccs.len()];
        for (c, comp) in sccs.iter().enumerate() {
            let mut level = 0;
            for &v in comp {
                for &w in &self.edges[v] {
                    let cw = comp_of[w];
                    if cw != c {
                        level = level.max(comp_level[cw] + 1);
                    }
                }
            }
            comp_level[c] = level;
        }
        (0..self.len()).map(|v| comp_level[comp_of[v]]).collect()
    }
}

/// The SCC condensation of a [`CallGraph`] (see
/// [`CallGraph::condensation`]). Component indices are positions in
/// `members`, which is in reverse topological order.
#[derive(Clone, Debug)]
pub struct Condensation {
    /// `members[c]` = function indices of component `c`, ascending.
    pub members: Vec<Vec<usize>>,
    /// `comp_of[i]` = the component containing function `i`.
    pub comp_of: Vec<usize>,
    /// Distinct components directly called by component `c` (ascending,
    /// never contains `c` itself).
    pub callee_comps: Vec<Vec<usize>>,
    /// Distinct components directly calling component `c` (ascending,
    /// never contains `c` itself).
    pub caller_comps: Vec<Vec<usize>>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use rid_frontend::parse_program;

    fn graph(srcs: &[&str]) -> CallGraph {
        CallGraph::build(&parse_program(srcs.iter().copied()).unwrap())
    }

    #[test]
    fn simple_chain() {
        let g = graph(&["module m; fn a() { b(); } fn b() { c(); } fn c() { return; }"]);
        let order = g.reverse_topological_order();
        let names: Vec<&str> = order.iter().map(|&i| g.name(i)).collect();
        let pos = |n: &str| names.iter().position(|&x| x == n).unwrap();
        assert!(pos("c") < pos("b"));
        assert!(pos("b") < pos("a"));
    }

    #[test]
    fn extern_calls_are_unknown() {
        let g = graph(&["module m; fn a() { pm_runtime_get(x); }"]);
        let i = g.index_of("a").unwrap();
        assert!(g.callees(i).is_empty());
        assert_eq!(g.unknown_callees(i), &["pm_runtime_get".to_owned()]);
    }

    #[test]
    fn recursion_forms_one_scc() {
        let g = graph(&["module m; fn a() { b(); } fn b() { a(); } fn c() { a(); }"]);
        let sccs = g.sccs();
        let sizes: Vec<usize> = sccs.iter().map(Vec::len).collect();
        assert!(sizes.contains(&2));
        // c's SCC must come after the {a,b} SCC (reverse topological).
        let ab_pos = sccs.iter().position(|c| c.len() == 2).unwrap();
        let c_idx = g.index_of("c").unwrap();
        let c_pos = sccs.iter().position(|comp| comp.contains(&c_idx)).unwrap();
        assert!(ab_pos < c_pos);
    }

    #[test]
    fn self_recursion() {
        let g = graph(&["module m; fn f(n) { f(n); return; }"]);
        assert_eq!(g.sccs(), vec![vec![0]]);
    }

    #[test]
    fn levels_respect_dependencies() {
        let g = graph(&[
            "module m; fn a() { b(); c(); } fn b() { d(); } fn c() { d(); } fn d() { return; }",
        ]);
        let levels = g.levels();
        let l = |n: &str| levels[g.index_of(n).unwrap()];
        assert_eq!(l("d"), 0);
        assert_eq!(l("b"), 1);
        assert_eq!(l("c"), 1);
        assert_eq!(l("a"), 2);
    }

    #[test]
    fn callers_are_inverse_of_callees() {
        let g = graph(&["module m; fn a() { b(); } fn b() { return; }"]);
        let a = g.index_of("a").unwrap();
        let b = g.index_of("b").unwrap();
        assert_eq!(g.callees(a), &[b]);
        assert_eq!(g.callers(b), &[a]);
        assert!(g.callers(a).is_empty());
        assert_eq!(g.len(), 2);
        assert!(!g.is_empty());
    }

    #[test]
    fn condensation_edges_are_deduplicated_and_directed() {
        let g = graph(&[
            "module m; fn a() { b(); c(); } fn b() { d(); d(); } fn c() { d(); } fn d() { return; }",
        ]);
        let cond = g.condensation();
        assert_eq!(cond.members.len(), 4);
        let comp = |n: &str| cond.comp_of[g.index_of(n).unwrap()];
        // d's component has two distinct caller components (b's and c's).
        assert_eq!(cond.caller_comps[comp("d")].len(), 2);
        assert_eq!(cond.callee_comps[comp("d")], Vec::<usize>::new());
        // a depends on b and c; b and c each depend only on d.
        assert_eq!(cond.callee_comps[comp("a")].len(), 2);
        assert_eq!(cond.callee_comps[comp("b")], vec![comp("d")]);
        // Reverse topological: callee components come first.
        for (c, callees) in cond.callee_comps.iter().enumerate() {
            for &cw in callees {
                assert!(cw < c, "callee component must precede caller");
            }
        }
        for (c, callers) in cond.caller_comps.iter().enumerate() {
            for &cw in callers {
                assert!(cw > c, "caller component must follow callee");
            }
        }
    }

    #[test]
    fn condensation_contracts_recursion() {
        let g = graph(&[
            "module m; fn a() { b(); } fn b() { a(); c(); } fn c() { return; }",
        ]);
        let cond = g.condensation();
        assert_eq!(cond.members.len(), 2);
        let ab = cond.comp_of[g.index_of("a").unwrap()];
        assert_eq!(ab, cond.comp_of[g.index_of("b").unwrap()]);
        let c = cond.comp_of[g.index_of("c").unwrap()];
        // The intra-SCC a↔b edges vanish; only the edge to c survives.
        assert_eq!(cond.callee_comps[ab], vec![c]);
        assert_eq!(cond.caller_comps[c], vec![ab]);
    }

    #[test]
    fn diamond_reverse_topo_is_valid() {
        let g = graph(&[
            "module m; fn a() { b(); c(); } fn b() { d(); } fn c() { d(); } fn d() { return; }",
        ]);
        let order = g.reverse_topological_order();
        let pos: HashMap<usize, usize> =
            order.iter().enumerate().map(|(p, &i)| (i, p)).collect();
        for i in 0..g.len() {
            for &j in g.callees(i) {
                assert!(pos[&j] < pos[&i], "callee must precede caller");
            }
        }
    }
}
