//! Symbolic execution of paths (step II of Figure 4; Figure 6 and
//! Algorithm 1 of the paper).
//!
//! Each structural path is executed symbolically. The executor maintains a
//! constraint (`cons`), a refcount-change map (`changes`), and a valuation
//! (`vmap`) from program variables to symbolic terms. Call instructions
//! consult the summary database and *fork* the state once per applicable
//! callee entry (Algorithm 1); `random` introduces fresh unknowns; branch
//! terminators contribute the branch condition (or its negation) to the
//! path constraint, pruning infeasible paths eagerly.
//!
//! Symbolic names are derived from `(instruction, occurrence)` pairs so
//! that two paths sharing a prefix name the same call result or random
//! value identically — the property that makes their summaries comparable
//! during IPP checking.
//!
//! Two execution strategies produce byte-identical summaries:
//!
//! * [`ExecMode::PerPath`] — the reference implementation: every path is
//!   executed standalone from the entry block, and every feasibility query
//!   rebuilds the difference system from scratch.
//! * [`ExecMode::Tree`] (default) — paths are folded into a shared-prefix
//!   [`PathTree`] and walked depth-first. The walk state (valuation,
//!   occurrence counters, constraint states with their incremental
//!   solvers) forks only at divergence points, so shared prefixes execute
//!   once; feasibility queries go through a per-function memo cache and an
//!   [`IncrementalSolver`] carried inside each state.
//!
//! Equivalence rests on three invariants: the DFS enumeration emits paths
//! in the tree's depth-first leaf order (checked per function, see
//! [`PathTree::leaves_in_path_order`]); occurrence counters and the local
//! interner live in the forked walk state, so every leaf observes exactly
//! the history its standalone execution would; and with unlimited fuel the
//! incremental solver agrees with the batch solver literal for literal.

use std::collections::{BTreeMap, HashMap};

use rid_ir::{BlockId, BlockRef, Function, Inst, InstId, Operand, Pred, Rvalue, Sym, Terminator};
use rid_solver::{project, Conj, IncrementalSolver, Lit, SatOptions, Subst, Term, Var};

use crate::budget::{BudgetMeter, DegradeReason};
use crate::paths::{enumerate_paths_metered, Path, PathLimits, PathTree};
use crate::summary::{SummaryDb, SummaryEntry};

/// Which execution strategy summarization uses. All modes produce
/// identical summaries; they differ only in cost (and in diagnostic
/// counters).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ExecMode {
    /// Adaptive per-function choice (the default): functions whose
    /// enumerated paths share at least half their blocks as common
    /// prefixes run in tree mode, everything else per-path. This erases
    /// the tree-mode overhead on corpus-shaped functions (few short
    /// paths, nothing to share) while keeping the tree's win on branchy
    /// CFGs.
    #[default]
    Auto,
    /// Shared-prefix tree execution with incremental solving and a sat
    /// memo cache, unconditionally.
    Tree,
    /// The reference implementation: each path executed standalone, every
    /// query solved from scratch.
    PerPath,
}

/// A finalized path summary: one [`SummaryEntry`] plus provenance.
#[derive(Clone, Debug)]
pub struct PathEntry {
    /// The summary entry (constraint already projected onto externals).
    pub entry: SummaryEntry,
    /// Index of the structural path this entry came from.
    pub path_index: usize,
    /// The block trace of that path (for diagnostics).
    pub trace: Vec<BlockId>,
}

/// Result of summarizing all paths of one function.
#[derive(Clone, Debug, Default)]
pub struct SummarizeOutcome {
    /// Finalized path entries, in deterministic order.
    pub path_entries: Vec<PathEntry>,
    /// Whether any limit or budget was hit, in which case the function
    /// summary must include the default entry (§5.2). Always equals
    /// `degrade.is_some()`.
    pub partial: bool,
    /// Why the analysis degraded, when it did (caps, fuel, or deadline;
    /// the panic/retry reasons are assigned by the driver).
    pub degrade: Option<DegradeReason>,
    /// Number of structural paths enumerated.
    pub paths_enumerated: usize,
    /// Number of symbolic states explored (feasible forks).
    pub states_explored: usize,
    /// Satisfiability queries issued (trivial true/false short-circuits
    /// are not counted).
    pub sat_queries: usize,
    /// Of those, how many were answered from the memo cache (always 0 in
    /// [`ExecMode::PerPath`], which bypasses the cache).
    pub sat_memo_hits: usize,
    /// Queries (including memo hits) that came back satisfiable.
    pub sat_sat: usize,
    /// Queries (including memo hits) that came back unsatisfiable.
    pub sat_unsat: usize,
    /// Incremental-solver snapshots taken (state forks that cloned an
    /// attached solver matrix; always 0 in per-path mode).
    pub solver_snapshots: usize,
    /// Largest literal depth observed in a snapshotted solver.
    pub snapshot_depth_max: usize,
    /// Basic blocks actually executed (tree nodes visited in tree mode;
    /// the sum of executed path prefixes in per-path mode).
    pub blocks_executed: usize,
    /// Upper bound on blocks skipped thanks to prefix sharing: the total
    /// block count over all paths minus `blocks_executed` (tree mode
    /// only; 0 in per-path mode).
    pub blocks_saved: usize,
    /// The concrete strategy that executed this function: [`ExecMode::Tree`]
    /// or [`ExecMode::PerPath`] ([`ExecMode::Auto`] resolves to one of the
    /// two before execution starts).
    pub mode_used: ExecMode,
}

/// One symbolic state: constraint + refcount changes. The valuation is
/// shared per path (all forks of a path see the same assignments; they
/// differ only in constraints and changes).
///
/// In tree mode a state *may* also carry an [`IncrementalSolver`] that
/// mirrors `cons` literal for literal, so feasibility checks relax a
/// closed difference matrix instead of re-closing from scratch; cloning
/// the state at a fork point snapshots the solver too. The solver is
/// attached lazily — only once the conjunction is big enough that
/// from-scratch closure costs more than maintaining (and cloning) the
/// matrix — so the tiny straight-line functions that dominate a kernel
/// corpus never pay for it. Per-path mode always leaves it `None`.
#[derive(Debug)]
struct State {
    cons: Conj,
    changes: BTreeMap<Term, i64>,
    solver: Option<IncrementalSolver>,
}

// Manual `Clone`: fork points snapshot the attached solver through the
// thread-local scratch pool (`clone_from` into a recycled matrix) instead
// of allocating a fresh one. States pruned as unsatisfiable and states
// drained at a `return` retire their solvers back into the pool, so one
// worker executing a batch of components keeps reusing the same few
// matrices. Answer-neutral: a recycled solver is reset to the new() state.
impl Clone for State {
    fn clone(&self) -> State {
        State {
            cons: self.cons.clone(),
            changes: self.changes.clone(),
            solver: self.solver.as_ref().map(rid_solver::incsolver::snapshot),
        }
    }
}

/// A symbolic value: either a term or a lazily represented comparison
/// (comparisons become literals when branched on; if a comparison result
/// is consumed as a plain value it is materialized as an opaque unknown,
/// an abstraction loss the paper accepts, §5.4).
#[derive(Clone, Debug)]
enum SymValue {
    Term(Term),
    Cmp(Pred, Term, Term),
}

/// All per-walk mutable execution state. Per-path mode creates one per
/// path; tree mode clones it at divergence points (the "fork symbolic
/// state only at divergence" of the execution-tree design). Everything
/// whose content depends on the executed prefix must live here — in
/// particular the occurrence counters and the local-variable interner,
/// which give symbolic names their path-prefix determinism.
#[derive(Clone, Debug, Default)]
struct WalkState {
    vmap: HashMap<Sym, SymValue>,
    states: Vec<State>,
    /// Per-instruction occurrence counts (for `(inst, occ)` site ids).
    occurrences: HashMap<u32, u32>,
    /// Local-variable interner (for reads of never-assigned variables).
    locals: HashMap<Sym, u32>,
}

/// Literal count at which a state's conjunction earns an attached
/// incremental solver. Below this, a from-scratch closure over a handful
/// of variables is cheaper than building, cloning (at every fork), and
/// relaxing a dense difference matrix — and most corpus functions never
/// get here, so they carry no solver at all. Attachment is answer-neutral
/// (see [`PathExecutor::sat_lazy`]), so this is purely a perf knob.
const SOLVER_ATTACH_LITS: usize = 6;

/// Conjunctions shorter than this are solved directly instead of
/// memoized: keying the memo clones the literal vector, which costs more
/// than deciding a one-literal difference system from scratch.
const MEMO_MIN_LITS: usize = 2;

/// Result of one tree walk (entry ordering/cap already applied).
struct TreeRun {
    entries: Vec<PathEntry>,
    entry_cap: bool,
    deadline: bool,
}

/// A read-only view over callee summaries during summarization.
///
/// The classic shape is a plain [`SummaryDb`] snapshot. The work-stealing
/// scheduler instead publishes each computed summary into a lock-free
/// per-function slot (`OnceLock`) the moment it is done; dependency
/// counting guarantees every slot a caller can reach is already set, so
/// reads need no lock at all. Predefined summaries shadow definitions in
/// both variants (§5.1).
#[derive(Clone, Copy)]
pub(crate) enum SummaryView<'a> {
    /// A summary database (predefined + everything computed so far).
    Db(&'a SummaryDb),
    /// Predefined summaries plus per-function publication slots, indexed
    /// by call-graph node id.
    Slots {
        predefined: &'a SummaryDb,
        graph: &'a crate::callgraph::CallGraph,
        slots: &'a [std::sync::OnceLock<crate::summary::Summary>],
    },
}

impl<'a> SummaryView<'a> {
    // Takes `self` by value (the view is `Copy`) so the returned borrow
    // lives for `'a`, independent of the view binding itself.
    pub(crate) fn get_sym(self, name: Sym) -> Option<&'a crate::summary::Summary> {
        match self {
            SummaryView::Db(db) => db.get_sym(name),
            SummaryView::Slots { predefined, graph, slots } => {
                if let Some(s) = predefined.get_sym(name) {
                    return Some(s); // predefined shadows the definition
                }
                graph.index_of_sym(name).and_then(|i| slots[i].get())
            }
        }
    }
}

struct PathExecutor<'a> {
    func: &'a Function,
    db: SummaryView<'a>,
    limits: &'a PathLimits,
    sat: SatOptions,
    /// Flat instruction index, for stable site ids.
    inst_index: HashMap<InstId, u32>,
    /// Tree mode: states carry incremental solvers and queries go through
    /// the memo cache. Per-path mode: both disabled (reference behavior).
    use_incremental: bool,
    /// Conjunction-keyed satisfiability memo. Two states that accumulate
    /// the same literal sequence (common under prefix sharing, where
    /// sibling subtrees re-derive the same call-entry constraints) hit
    /// the cache instead of the solver.
    sat_memo: HashMap<Vec<Lit>, bool>,
    sat_queries: usize,
    memo_hits: usize,
    sat_sat: usize,
    sat_unsat: usize,
    solver_snapshots: usize,
    snapshot_depth_max: usize,
    /// Accumulated across the whole walk (both modes).
    subcase_hit: bool,
    states_created: usize,
    blocks_executed: usize,
}

impl<'a> PathExecutor<'a> {
    fn new(
        func: &'a Function,
        db: SummaryView<'a>,
        limits: &'a PathLimits,
        sat: SatOptions,
        use_incremental: bool,
    ) -> Self {
        let inst_index =
            func.insts().enumerate().map(|(i, (id, _))| (id, i as u32)).collect();
        PathExecutor {
            func,
            db,
            limits,
            sat,
            inst_index,
            use_incremental,
            sat_memo: HashMap::new(),
            sat_queries: 0,
            memo_hits: 0,
            sat_sat: 0,
            sat_unsat: 0,
            solver_snapshots: 0,
            snapshot_depth_max: 0,
            subcase_hit: false,
            states_created: 0,
            blocks_executed: 0,
        }
    }

    /// Stable symbolic site id for `(instruction, occurrence)`.
    fn site_id(&self, id: InstId, occurrence: u32) -> u32 {
        let flat = self.inst_index[&id];
        flat * (self.limits.max_block_visits.max(1) + 1) + occurrence
    }

    fn value_of(&self, st: &mut WalkState, op: &Operand) -> SymValue {
        match op {
            Operand::Int(v) => SymValue::Term(Term::int(*v)),
            Operand::Bool(b) => SymValue::Term(if *b { Term::TRUE } else { Term::FALSE }),
            Operand::Null => SymValue::Term(Term::NULL),
            // Function references are opaque constants; intern one symbol
            // per referenced name so comparisons of the same reference
            // agree (the callback-contract extension reads them from the
            // IR directly, not from here).
            Operand::FuncRef(name) => {
                SymValue::Term(Term::var(local_var(&mut st.locals, Sym::new(&format!("@{name}")))))
            }
            Operand::Var(name) => {
                if let Some(v) = st.vmap.get(name) {
                    return v.clone();
                }
                SymValue::Term(Term::var(local_var(&mut st.locals, *name)))
            }
        }
    }

    /// Coerces a symbolic value to a term; comparisons materialize as
    /// fresh unknowns tied to the consuming site.
    fn term_of(&self, st: &mut WalkState, op: &Operand, site: u32) -> Term {
        match self.value_of(st, op) {
            SymValue::Term(t) => t,
            SymValue::Cmp(..) => Term::var(Var::random(site, 1)),
        }
    }

    /// The initial walk state: formals bound, one true state.
    fn fresh_walk(&mut self) -> WalkState {
        let mut vmap = HashMap::new();
        for (i, param) in self.func.params().iter().enumerate() {
            vmap.insert(*param, SymValue::Term(Term::var(Var::formal(i as u32))));
        }
        self.states_created += 1;
        WalkState {
            vmap,
            // The solver is attached lazily once the conjunction is big
            // enough to amortize the matrix (see `sat_lazy`).
            states: vec![State { cons: Conj::truth(), changes: BTreeMap::new(), solver: None }],
            occurrences: HashMap::new(),
            locals: HashMap::new(),
        }
    }

    /// One satisfiability decision without a state solver (used after
    /// substitution in [`PathExecutor::finalize`], where any attached
    /// solver would be stale anyway). Trivial conjunctions short-circuit
    /// (uncounted, as in the batch path); tree mode still consults the
    /// memo.
    fn query_sat(&mut self, cons: &Conj) -> bool {
        if cons.is_trivially_false() {
            return false;
        }
        if cons.lits().is_empty() {
            return true;
        }
        self.sat_queries += 1;
        let mut span = rid_obs::span(rid_obs::SpanKind::Solve, self.func.name());
        let answer = if !self.use_incremental || cons.lits().len() < MEMO_MIN_LITS {
            cons.is_sat_with(self.sat)
        } else if let Some(&answer) = self.sat_memo.get(cons.lits()) {
            self.memo_hits += 1;
            answer
        } else {
            let answer = cons.is_sat_with(self.sat);
            self.sat_memo.insert(cons.lits().to_vec(), answer);
            answer
        };
        span.set_value(u64::from(answer));
        self.note_answer(answer)
    }

    /// Tallies a query outcome into the sat/unsat counters.
    fn note_answer(&mut self, answer: bool) -> bool {
        if answer {
            self.sat_sat += 1;
        } else {
            self.sat_unsat += 1;
        }
        answer
    }

    /// Tallies one incremental-solver snapshot (a fork-point clone of an
    /// attached difference matrix) at the given literal depth.
    fn note_snapshot(&mut self, depth: usize) {
        self.solver_snapshots += 1;
        self.snapshot_depth_max = self.snapshot_depth_max.max(depth);
    }

    /// One satisfiability decision against a state's (possibly absent)
    /// incremental solver. Trivial conjunctions short-circuit (uncounted,
    /// as in the batch path); otherwise tree mode consults the memo, then
    /// the solver — **attaching one first** if the conjunction has grown
    /// past [`SOLVER_ATTACH_LITS`]. Attachment replays the post-fold
    /// literal sequence once and is answer-neutral (incremental and batch
    /// solving agree literal for literal; see `rid_solver::incsolver`).
    /// Per-path mode always solves from scratch — the reference behavior
    /// the differential tests pin tree mode against.
    fn sat_lazy(&mut self, cons: &Conj, solver: &mut Option<IncrementalSolver>) -> bool {
        if cons.is_trivially_false() {
            return false;
        }
        if cons.lits().is_empty() {
            return true;
        }
        self.sat_queries += 1;
        let mut span = rid_obs::span(rid_obs::SpanKind::Solve, self.func.name());
        let answer = if !self.use_incremental || cons.lits().len() < MEMO_MIN_LITS {
            cons.is_sat_with(self.sat)
        } else if let Some(&answer) = self.sat_memo.get(cons.lits()) {
            self.memo_hits += 1;
            answer
        } else {
            if solver.is_none() && cons.lits().len() >= SOLVER_ATTACH_LITS {
                let mut fresh = rid_solver::incsolver::scratch();
                fresh.push_conj(cons);
                *solver = Some(fresh);
            }
            let answer = match solver.as_ref() {
                Some(s) => s.is_sat(self.sat),
                None => cons.is_sat_with(self.sat),
            };
            self.sat_memo.insert(cons.lits().to_vec(), answer);
            answer
        };
        span.set_value(u64::from(answer));
        self.note_answer(answer)
    }

    /// Pushes one literal into every live state (constraint + incremental
    /// solver) and prunes the states that became unsatisfiable.
    fn constrain(&mut self, st: &mut WalkState, lit: Lit) {
        for state in &mut st.states {
            if let Some(solver) = &mut state.solver {
                solver.push(&lit);
            }
            state.cons.push(lit.clone());
        }
        // Order-preserving prune (entry order is part of byte-identity),
        // with split borrows so `sat_lazy` can attach a solver in place.
        let mut i = 0;
        while i < st.states.len() {
            let State { cons, solver, .. } = &mut st.states[i];
            let cons = &*cons;
            if self.sat_lazy(cons, solver) {
                i += 1;
            } else {
                let mut dead = st.states.remove(i);
                if let Some(s) = dead.solver.take() {
                    rid_solver::incsolver::recycle(s);
                }
            }
        }
    }

    /// Executes the instructions of one block (not its terminator).
    /// Returns `false` when every state died (the walk below this point
    /// is infeasible).
    fn exec_block(&mut self, st: &mut WalkState, block_id: BlockId) -> bool {
        self.blocks_executed += 1;
        let block = self.func.block(block_id);
        for (idx, inst) in block.insts.iter().enumerate() {
            let inst_id = InstId { block: block_id, index: idx as u32 };
            let flat = self.inst_index[&inst_id];
            let occ_slot = st.occurrences.entry(flat).or_insert(0);
            let occ = *occ_slot;
            *occ_slot += 1;
            let site = self.site_id(inst_id, occ);

            match inst {
                Inst::Assign { dst, rvalue } => match rvalue {
                    Rvalue::Use(op) => {
                        let v = self.value_of(st, op);
                        st.vmap.insert(*dst, v);
                    }
                    Rvalue::FieldLoad { base, field } => {
                        let base_term =
                            self.term_of(st, &Operand::var(*base), site);
                        st.vmap.insert(
                            *dst,
                            SymValue::Term(base_term.field(field.as_str())),
                        );
                    }
                    Rvalue::Random => {
                        st.vmap.insert(
                            *dst,
                            SymValue::Term(Term::var(Var::random(site, 0))),
                        );
                    }
                    Rvalue::Cmp { pred, lhs, rhs } => {
                        let l = self.term_of(st, lhs, site);
                        let r = self.term_of(st, rhs, site);
                        st.vmap.insert(*dst, SymValue::Cmp(*pred, l, r));
                    }
                    Rvalue::Call { callee, args } => {
                        self.exec_call(st, *callee, args, Some(*dst), site);
                    }
                },
                Inst::Call { callee, args } => {
                    self.exec_call(st, *callee, args, None, site);
                }
                Inst::Assume { pred, lhs, rhs } => {
                    let l = self.term_of(st, lhs, site);
                    let r = self.term_of(st, rhs, site);
                    self.constrain(st, Lit::new(*pred, l, r));
                }
                // Field stores are outside the abstraction (§5.4): the
                // executor ignores them, a deliberate, paper-faithful
                // source of false positives.
                Inst::FieldStore { .. } => {}
            }
            if st.states.is_empty() {
                return false;
            }
        }
        true
    }

    /// Applies a block's terminator constraint toward the chosen
    /// successor. Returns `false` when every state died.
    fn constrain_edge(&mut self, st: &mut WalkState, block: BlockRef<'_>, next: BlockId) -> bool {
        if let Terminator::Branch { cond, then_bb, else_bb } = block.term {
            // A branch whose arms coincide constrains nothing.
            if then_bb != else_bb {
                let take_then = next == *then_bb;
                let lit = match self.value_of(st, &Operand::var(*cond)) {
                    SymValue::Cmp(pred, l, r) => {
                        let pred = if take_then { pred } else { pred.negated() };
                        Some(Lit::new(pred, l, r))
                    }
                    SymValue::Term(Term::Int(c)) => {
                        // Constant condition: the other arm is dead.
                        if (c != 0) == take_then {
                            None
                        } else {
                            st.states.clear();
                            None
                        }
                    }
                    SymValue::Term(t) => {
                        let pred = if take_then { Pred::Ne } else { Pred::Eq };
                        Some(Lit::new(pred, t, Term::int(0)))
                    }
                };
                if let Some(lit) = lit {
                    self.constrain(st, lit);
                }
                if st.states.is_empty() {
                    return false;
                }
            }
        }
        true
    }

    /// Executes one path standalone (the per-path reference mode);
    /// returns finalized entries (empty when the path is infeasible).
    fn run_path(&mut self, path: &Path, path_index: usize) -> Vec<PathEntry> {
        let mut st = self.fresh_walk();
        for (pos, &block_id) in path.blocks.iter().enumerate() {
            if !self.exec_block(&mut st, block_id) {
                return Vec::new();
            }
            let block = self.func.block(block_id);
            match block.term {
                Terminator::Return(ret_op) => {
                    debug_assert!(pos + 1 == path.blocks.len());
                    return self.finalize(&mut st, ret_op.as_ref(), path, path_index);
                }
                Terminator::Unreachable => return Vec::new(),
                _ => {
                    let next = path.blocks[pos + 1];
                    if !self.constrain_edge(&mut st, block, next) {
                        return Vec::new();
                    }
                }
            }
        }
        // Paths always end in a Return (enumeration guarantees it).
        unreachable!("path did not end in a return terminator")
    }

    /// Walks the shared-prefix tree depth-first, forking the walk state at
    /// each divergence point. Entries come out in path order: streamed
    /// directly when the tree's leaf order matches path order (every CFG
    /// without duplicate paths), otherwise buffered and stably reordered
    /// by path index before the entry cap is applied.
    fn run_tree(&mut self, tree: &PathTree, paths: &[Path], meter: &BudgetMeter) -> TreeRun {
        let streaming = tree.leaves_in_path_order();
        let mut run = TreeRun { entries: Vec::new(), entry_cap: false, deadline: false };
        let mut stack: Vec<(u32, WalkState)> = Vec::new();
        for &root in tree.roots.iter().rev() {
            let st = self.fresh_walk();
            stack.push((root, st));
        }
        'walk: while let Some((at, mut st)) = stack.pop() {
            let node = &tree.nodes[at as usize];
            if !self.exec_block(&mut st, node.block) {
                continue;
            }
            let block = self.func.block(node.block);
            match block.term {
                Terminator::Return(ret_op) => {
                    // A leaf. Finalize once; duplicate paths (a branch
                    // whose arms coincide) reuse the entries with their
                    // own path index.
                    let mut first: Option<Vec<PathEntry>> = None;
                    for &pi in &node.path_indices {
                        if meter.expired() {
                            run.deadline = true;
                            break 'walk;
                        }
                        let pi = pi as usize;
                        let entries = match &first {
                            None => {
                                let done =
                                    self.finalize(&mut st, ret_op.as_ref(), &paths[pi], pi);
                                first = Some(done.clone());
                                done
                            }
                            Some(done) => done
                                .iter()
                                .map(|pe| PathEntry {
                                    entry: pe.entry.clone(),
                                    path_index: pi,
                                    trace: paths[pi].blocks.clone(),
                                })
                                .collect(),
                        };
                        run.entries.extend(entries);
                        if streaming && run.entries.len() > self.limits.max_entries {
                            run.entries.truncate(self.limits.max_entries);
                            run.entry_cap = true;
                            break 'walk;
                        }
                    }
                }
                Terminator::Unreachable => {}
                _ => {
                    let children = &node.children;
                    let k = children.len();
                    if k == 0 {
                        continue; // interior node of a truncated path set
                    }
                    if k > 1 {
                        self.states_created += (k - 1) * st.states.len();
                    }
                    // Fork in child order (last child takes ownership),
                    // then push reversed so the first child pops first —
                    // preserving depth-first enumeration order.
                    let mut forked: Vec<(u32, WalkState)> = Vec::with_capacity(k);
                    for (i, &child) in children.iter().enumerate() {
                        let mut child_st = if i + 1 == k {
                            std::mem::take(&mut st)
                        } else {
                            for state in &st.states {
                                if let Some(s) = &state.solver {
                                    self.note_snapshot(s.len());
                                }
                            }
                            st.clone()
                        };
                        let next = tree.nodes[child as usize].block;
                        if self.constrain_edge(&mut child_st, block, next) {
                            forked.push((child, child_st));
                        }
                    }
                    for frame in forked.into_iter().rev() {
                        stack.push(frame);
                    }
                }
            }
        }
        if !streaming {
            run.entries.sort_by_key(|pe| pe.path_index); // stable
            if run.entries.len() > self.limits.max_entries {
                run.entries.truncate(self.limits.max_entries);
                run.entry_cap = true;
            }
        }
        run
    }

    /// Executes a call instruction per Algorithm 1: each applicable callee
    /// summary entry forks a state.
    fn exec_call(
        &mut self,
        st: &mut WalkState,
        callee: Sym,
        args: &[Operand],
        dst: Option<Sym>,
        site: u32,
    ) {
        let actuals: Vec<Term> =
            args.iter().map(|a| self.term_of(st, a, site)).collect();
        let ret_var = Term::var(Var::call_ret(site, 0));
        if let Some(dst) = dst {
            st.vmap.insert(dst, SymValue::Term(ret_var.clone()));
        }

        let default_summary;
        let summary = match self.db.get_sym(callee) {
            Some(s) if !s.entries.is_empty() => s,
            _ => {
                default_summary = crate::summary::Summary::default_for(callee);
                // Unknown callee: unconstrained return, no changes.
                &default_summary
            }
        };

        let old_states = std::mem::take(&mut st.states);
        let mut new_states = Vec::new();
        'outer: for mut state in old_states {
            let n_entries = summary.entries.len();
            for (ei, entry) in summary.entries.iter().enumerate() {
                let inst_entry = entry.instantiate(&actuals, &ret_var, site);
                let cons = state.cons.and(&inst_entry.cons);
                // The last entry takes the state's solver; earlier ones
                // snapshot it (clone = fork point rollback).
                let mut solver = if ei + 1 == n_entries {
                    state.solver.take()
                } else {
                    if let Some(s) = &state.solver {
                        self.note_snapshot(s.len());
                    }
                    state.solver.as_ref().map(rid_solver::incsolver::snapshot)
                };
                if let Some(s) = solver.as_mut() {
                    s.push_conj(&inst_entry.cons);
                }
                // Algorithm 1 line 6: skip unsatisfiable combinations.
                if !inst_entry.cons.is_truth() && !self.sat_lazy(&cons, &mut solver) {
                    if let Some(s) = solver {
                        rid_solver::incsolver::recycle(s);
                    }
                    continue;
                }
                let mut changes = state.changes.clone();
                for (rc, delta) in &inst_entry.changes {
                    *changes.entry(rc.clone()).or_insert(0) += delta;
                }
                new_states.push(State { cons, changes, solver });
                self.states_created += 1;
                if new_states.len() >= self.limits.max_subcases {
                    self.subcase_hit = true;
                    break 'outer;
                }
            }
        }
        st.states = new_states;
    }

    /// Finalizes states at a `return`: encodes the return value as `[0]`,
    /// rewrites locals that equal external terms, renames surviving
    /// internal refcount roots to opaque objects, and projects the
    /// constraint onto external terms (§3.3.3). Drains the walk's states.
    fn finalize(
        &mut self,
        st: &mut WalkState,
        ret_op: Option<&Operand>,
        path: &Path,
        path_index: usize,
    ) -> Vec<PathEntry> {
        let mut out = Vec::new();
        let ret_term = ret_op.map(|op| self.term_of(st, op, u32::MAX / 2));
        let mut scratch_vars = Vec::new();
        for mut state in std::mem::take(&mut st.states) {
            // The walk is over for this state; its solver goes back to the
            // pool (projection below builds a fresh formula anyway).
            if let Some(s) = state.solver.take() {
                rid_solver::incsolver::recycle(s);
            }
            let mut cons = state.cons;
            if let Some(ret) = &ret_term {
                cons.push(Lit::new(Pred::Eq, Term::var(Var::ret()), ret.clone()));
            }

            // Build the equality substitution: internal vars provably equal
            // (syntactically, offset 0) to external terms get rewritten.
            let subst = equality_subst(&cons, &mut scratch_vars);

            // Rewrite change keys; then rename surviving internal roots to
            // dense opaque ids (deterministic: keys are sorted).
            let mut changes: BTreeMap<Term, i64> = BTreeMap::new();
            let mut opaque_ids: BTreeMap<Var, u32> = BTreeMap::new();
            for (rc, delta) in &state.changes {
                if *delta == 0 {
                    continue;
                }
                let rc = rc.substitute(&subst);
                let rc = match rc.root_var() {
                    Some(root) if !root.is_external() => {
                        let next = opaque_ids.len() as u32;
                        let id = *opaque_ids.entry(root).or_insert(next);
                        let mut s = Subst::new();
                        s.insert(root, Term::var(Var::opaque(id, 0)));
                        rc.substitute(&s)
                    }
                    _ => rc,
                };
                *changes.entry(rc).or_insert(0) += delta;
            }
            changes.retain(|_, delta| *delta != 0);

            // Remove conditions on local variables (projection). The
            // projected conjunction is a fresh formula, so it is checked
            // without an incremental solver (but through the memo).
            let cons = project(&cons, Term::is_external);
            if !self.query_sat(&cons) {
                continue;
            }
            let ret_display = ret_term.as_ref().map(|t| {
                let t = t.substitute(&subst);
                if t.is_external() {
                    t
                } else {
                    Term::var(Var::ret())
                }
            });
            let mut entry = SummaryEntry { cons, changes, ret: ret_display };
            entry.cons.normalize();
            out.push(PathEntry { entry, path_index, trace: path.blocks.clone() });
        }
        out
    }
}

/// Interns a local-variable name (shared by reads of never-assigned
/// variables and opaque function references). Lives outside the executor
/// because the interner belongs to the forked walk state: ids must depend
/// only on the executed prefix, exactly as in standalone execution.
fn local_var(locals: &mut HashMap<Sym, u32>, name: Sym) -> Var {
    let next = locals.len() as u32;
    let id = *locals.entry(name).or_insert(next);
    Var::local(id)
}

/// Extracts a substitution from syntactic equalities in `cons`, mapping
/// internal variables to the external (or constant) terms they equal.
/// Saturated so chains (`a = b ∧ b = [0]`) resolve fully. `scratch` is a
/// caller-provided buffer reused across literals (and across states).
fn equality_subst(cons: &Conj, scratch: &mut Vec<Var>) -> Subst {
    let mut subst = Subst::new();
    loop {
        let mut changed = false;
        for lit in cons.lits() {
            if lit.pred != Pred::Eq || lit.offset != 0 {
                continue;
            }
            for (a, b) in [(&lit.lhs, &lit.rhs), (&lit.rhs, &lit.lhs)] {
                let Term::Var(v) = a else { continue };
                if v.is_external() || subst.contains_key(v) {
                    continue;
                }
                let b2 = b.substitute(&subst);
                // Avoid self-referential substitutions.
                scratch.clear();
                b2.collect_vars(scratch);
                if scratch.contains(v) {
                    continue;
                }
                if b2.is_external() {
                    subst.insert(*v, b2);
                    changed = true;
                }
            }
        }
        if !changed {
            return subst;
        }
    }
}

/// Summarizes every path of `func` (steps I and II of Figure 4).
///
/// The result contains one [`PathEntry`] per feasible `(path, subcase)`
/// combination; IPP checking ([`crate::ipp`]) consumes these directly.
#[must_use]
pub fn summarize_paths(
    func: &Function,
    db: &SummaryDb,
    limits: &PathLimits,
    sat: SatOptions,
) -> SummarizeOutcome {
    summarize_paths_metered(func, db, limits, sat, &BudgetMeter::unlimited(), None)
}

/// Like [`summarize_paths`], but cooperative: polls `meter` between paths
/// (and inside enumeration) and, when `fuel` is given, installs it as the
/// ambient solver budget for the duration of the summarization. Budget
/// exhaustion degrades the outcome exactly like a cap hit, with the
/// reason recorded in [`SummarizeOutcome::degrade`].
#[must_use]
pub fn summarize_paths_metered(
    func: &Function,
    db: &SummaryDb,
    limits: &PathLimits,
    sat: SatOptions,
    meter: &BudgetMeter,
    fuel: Option<u64>,
) -> SummarizeOutcome {
    summarize_paths_mode(func, db, limits, sat, meter, fuel, ExecMode::default())
}

/// Like [`summarize_paths_metered`], with an explicit execution strategy.
/// All modes produce identical summaries (the differential test suite
/// pins this down); [`ExecMode::PerPath`] exists as the oracle and as a
/// fallback switch, and [`ExecMode::Auto`] (the default) picks between
/// the two per function from the enumerated paths' shared-prefix ratio.
#[must_use]
#[allow(clippy::too_many_arguments)]
pub fn summarize_paths_mode(
    func: &Function,
    db: &SummaryDb,
    limits: &PathLimits,
    sat: SatOptions,
    meter: &BudgetMeter,
    fuel: Option<u64>,
    mode: ExecMode,
) -> SummarizeOutcome {
    summarize_paths_view(func, SummaryView::Db(db), limits, sat, meter, fuel, mode)
}

/// Fraction (numerator over denominator in block counts) of per-path work
/// that must be shared prefix before [`ExecMode::Auto`] picks tree mode.
///
/// The break-even sits near 1/4, not the 1/2 this constant originally
/// claimed: the v5 baseline's full-corpus tree runs saved ~30% of block
/// executions (`blocks_saved / (blocks_executed + blocks_saved)`) while
/// running at per-path speed or better, yet under the 1/2 threshold Auto
/// resolved *every* function to per-path — the shared-prefix ratio of a
/// two-path function topping out near 1/2 means the old cut was
/// unreachable in practice. 3/10 puts the switch just above measured
/// break-even, so the trie build, memo inserts, and solver snapshots are
/// only paid where the saved block executions more than cover them.
const AUTO_TREE_SHARE_NUM: usize = 3;
const AUTO_TREE_SHARE_DEN: usize = 10;

/// The internal entry point all execution goes through; see
/// [`summarize_paths_mode`]. Takes a [`SummaryView`] so the scheduler's
/// lock-free slot storage and the plain database flavor share one
/// implementation.
#[allow(clippy::too_many_arguments)]
pub(crate) fn summarize_paths_view(
    func: &Function,
    db: SummaryView<'_>,
    limits: &PathLimits,
    sat: SatOptions,
    meter: &BudgetMeter,
    fuel: Option<u64>,
    mode: ExecMode,
) -> SummarizeOutcome {
    let _fuel_guard = fuel.map(rid_solver::fuel::install);
    let path_set = {
        let mut span = rid_obs::span(rid_obs::SpanKind::Enumerate, func.name());
        let path_set = enumerate_paths_metered(func, limits, meter);
        span.set_value(path_set.paths.len() as u64);
        path_set
    };
    let mut deadline = path_set.deadline_hit;
    let path_cap = path_set.truncated && !path_set.deadline_hit;
    let mut entry_cap = false;
    let mut outcome =
        SummarizeOutcome { paths_enumerated: path_set.paths.len(), ..Default::default() };
    // Resolve the adaptive mode before constructing the executor. A
    // single path has no prefix to share, so it always runs per-path.
    // For the rest the shared-block count comes from a linear LCP scan:
    // DFS enumeration emits paths in trie order, so the trie's node
    // count is the total block count minus the summed longest common
    // prefixes of consecutive paths — no trie is built for functions
    // that end up running per-path.
    let mode = match mode {
        ExecMode::Auto => {
            if path_set.paths.len() < 2 {
                ExecMode::PerPath
            } else {
                let mut total = 0;
                let mut shared = 0;
                for pair in path_set.paths.windows(2) {
                    shared += pair[0]
                        .blocks
                        .iter()
                        .zip(&pair[1].blocks)
                        .take_while(|(a, b)| a == b)
                        .count();
                }
                for path in &path_set.paths {
                    total += path.blocks.len();
                }
                if shared * AUTO_TREE_SHARE_DEN >= total * AUTO_TREE_SHARE_NUM {
                    ExecMode::Tree
                } else {
                    ExecMode::PerPath
                }
            }
        }
        concrete => concrete,
    };
    outcome.mode_used = mode;
    let mut executor =
        PathExecutor::new(func, db, limits, sat, mode == ExecMode::Tree);
    match mode {
        ExecMode::Auto => unreachable!("Auto resolves before execution"),
        ExecMode::Tree => {
            if path_set.paths.len() == 1 {
                // Degenerate tree: a single root chain has no divergence
                // point, so there is nothing to share and nothing to
                // fork. Walk it directly and skip the trie build — the
                // common case, since most kernel functions are
                // straight-line (memo and lazy solver still apply).
                for (index, path) in path_set.paths.iter().enumerate() {
                    if meter.expired() {
                        deadline = true;
                        break;
                    }
                    let entries = executor.run_path(path, index);
                    outcome.path_entries.extend(entries);
                    if outcome.path_entries.len() > limits.max_entries {
                        outcome.path_entries.truncate(limits.max_entries);
                        entry_cap = true;
                        break;
                    }
                }
            } else {
                let tree = PathTree::from_paths(&path_set.paths);
                let run = executor.run_tree(&tree, &path_set.paths, meter);
                deadline |= run.deadline;
                entry_cap = run.entry_cap;
                outcome.path_entries = run.entries;
                outcome.blocks_saved =
                    tree.total_path_blocks.saturating_sub(executor.blocks_executed);
            }
        }
        ExecMode::PerPath => {
            for (index, path) in path_set.paths.iter().enumerate() {
                if meter.expired() {
                    deadline = true;
                    break;
                }
                let entries = executor.run_path(path, index);
                outcome.path_entries.extend(entries);
                if outcome.path_entries.len() > limits.max_entries {
                    outcome.path_entries.truncate(limits.max_entries);
                    entry_cap = true;
                    break;
                }
            }
        }
    }
    let subcase_cap = executor.subcase_hit;
    outcome.states_explored = executor.states_created;
    outcome.blocks_executed = executor.blocks_executed;
    outcome.sat_queries = executor.sat_queries;
    outcome.sat_memo_hits = executor.memo_hits;
    outcome.sat_sat = executor.sat_sat;
    outcome.sat_unsat = executor.sat_unsat;
    outcome.solver_snapshots = executor.solver_snapshots;
    outcome.snapshot_depth_max = executor.snapshot_depth_max;
    // Read the fuel flag while the guard is still installed. Severity
    // order: an aborting condition (deadline) dominates, then fuel (the
    // solver silently went approximate), then the structural caps.
    let fuel_exhausted = fuel.is_some() && rid_solver::fuel::exhausted();
    outcome.degrade = if deadline {
        Some(DegradeReason::Deadline)
    } else if fuel_exhausted {
        Some(DegradeReason::SolverFuel)
    } else if path_cap {
        Some(DegradeReason::PathCap)
    } else if subcase_cap {
        Some(DegradeReason::SubcaseCap)
    } else if entry_cap {
        Some(DegradeReason::EntryCap)
    } else {
        None
    };
    outcome.partial = outcome.degrade.is_some();
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apis::linux_dpm_apis;
    use rid_frontend::parse_module;
    use rid_solver::VarKind;

    fn summarize(src: &str, func: &str) -> SummarizeOutcome {
        let module = parse_module(src).unwrap();
        let f = module.function(func).unwrap();
        summarize_paths(f, &linux_dpm_apis(), &PathLimits::default(), SatOptions::default())
    }

    /// Runs both execution modes and asserts identical summaries, then
    /// returns the tree-mode outcome (what `summarize_paths` produces).
    fn summarize_both(src: &str, func: &str) -> SummarizeOutcome {
        let module = parse_module(src).unwrap();
        let f = module.function(func).unwrap();
        let limits = PathLimits::default();
        let meter = BudgetMeter::unlimited();
        let tree = summarize_paths_mode(
            f,
            &linux_dpm_apis(),
            &limits,
            SatOptions::default(),
            &meter,
            None,
            ExecMode::Tree,
        );
        let per_path = summarize_paths_mode(
            f,
            &linux_dpm_apis(),
            &limits,
            SatOptions::default(),
            &meter,
            None,
            ExecMode::PerPath,
        );
        assert_eq!(tree.path_entries.len(), per_path.path_entries.len());
        for (a, b) in tree.path_entries.iter().zip(&per_path.path_entries) {
            assert_eq!(a.path_index, b.path_index);
            assert_eq!(a.trace, b.trace);
            assert_eq!(a.entry, b.entry);
        }
        assert_eq!(tree.partial, per_path.partial);
        tree
    }

    #[test]
    fn constant_return_function() {
        let out = summarize("module m; fn f() { return 7; }", "f");
        assert_eq!(out.path_entries.len(), 1);
        let e = &out.path_entries[0].entry;
        assert!(!e.has_changes());
        // [0] = 7 recorded in the constraint.
        let want = Conj::from_lits([Lit::new(
            Pred::Eq,
            Term::var(Var::ret()),
            Term::int(7),
        )]);
        assert!(e.cons.implies(&want));
    }

    #[test]
    fn refcount_change_recorded() {
        let out = summarize(
            "module m; fn f(dev) { pm_runtime_get_sync(dev); return 0; }",
            "f",
        );
        assert_eq!(out.path_entries.len(), 1);
        let e = &out.path_entries[0].entry;
        assert_eq!(e.change(&Term::var(Var::formal(0)).field("pm")), 1);
    }

    #[test]
    fn get_put_balances_to_zero() {
        let out = summarize(
            "module m; fn f(dev) { pm_runtime_get_sync(dev); pm_runtime_put(dev); return 0; }",
            "f",
        );
        assert_eq!(out.path_entries.len(), 1);
        assert!(!out.path_entries[0].entry.has_changes());
    }

    #[test]
    fn figure1_foo_produces_inconsistent_pair() {
        // The worked example of the paper: reg_read is unknown (default
        // summary → unconstrained result), so both paths survive with
        // identical external constraints but different PM changes.
        let out = summarize_both(
            r#"module m;
            fn foo(dev) {
                assume dev != null;
                let v = reg_read(dev, 0x54);
                if (v <= 0) { goto exit; }
                pm_runtime_get(dev);
            exit:
                return 0;
            }"#,
            "foo",
        );
        assert_eq!(out.path_entries.len(), 2);
        let pm = Term::var(Var::formal(0)).field("pm");
        let changes: Vec<i64> =
            out.path_entries.iter().map(|p| p.entry.change(&pm)).collect();
        assert!(changes.contains(&1) && changes.contains(&0));
        // Both constraints are mutually satisfiable (the IPP condition).
        let joint = out.path_entries[0].entry.cons.and(&out.path_entries[1].entry.cons);
        assert!(joint.is_sat());
    }

    #[test]
    fn distinguishable_paths_are_not_inconsistent() {
        // Correct error handling: the return value separates the paths.
        let out = summarize_both(
            r#"module m;
            fn f(dev) {
                let ret = pm_runtime_get_sync(dev);
                if (ret < 0) {
                    pm_runtime_put(dev);
                    return -1;
                }
                return 0;
            }"#,
            "f",
        );
        assert_eq!(out.path_entries.len(), 2);
        let joint = out.path_entries[0].entry.cons.and(&out.path_entries[1].entry.cons);
        assert!(!joint.is_sat(), "return values −1 vs 0 must be distinguishable");
    }

    #[test]
    fn branch_condition_on_call_result_constrains_ret() {
        // ret = f(); if (ret < 0) return ret;  → entry with [0] ≤ −1.
        let out = summarize(
            r#"module m;
            fn g(dev) {
                let ret = pm_runtime_get_sync(dev);
                if (ret < 0) { return ret; }
                return 0;
            }"#,
            "g",
        );
        let negative_entry = out
            .path_entries
            .iter()
            .find(|p| {
                p.entry.cons.implies(&Conj::from_lits([Lit::new(
                    Pred::Lt,
                    Term::var(Var::ret()),
                    Term::int(0),
                )]))
            })
            .expect("error path entry");
        // The increment is still recorded on the error path (Figure 8!).
        assert_eq!(
            negative_entry.entry.change(&Term::var(Var::formal(0)).field("pm")),
            1
        );
    }

    #[test]
    fn infeasible_paths_are_pruned() {
        let out = summarize_both(
            r#"module m;
            fn f(x) {
                assume x > 0;
                if (x < 0) { pm_runtime_get(x); return 1; }
                return 0;
            }"#,
            "f",
        );
        // Only the else path is feasible.
        assert_eq!(out.path_entries.len(), 1);
        assert!(!out.path_entries[0].entry.has_changes());
    }

    #[test]
    fn subcase_limit_marks_partial() {
        // Chain enough two-entry allocators to blow the 10-subcase cap.
        let mut src = String::from("module m; fn f(dev) {\n");
        for i in 0..6 {
            src.push_str(&format!("let a{i} = PyList_New(0);\n"));
        }
        src.push_str("return 0; }");
        let module = parse_module(&src).unwrap();
        let f = module.function("f").unwrap();
        let out = summarize_paths(
            f,
            &crate::apis::python_c_apis(),
            &PathLimits::default(),
            SatOptions::default(),
        );
        assert!(out.partial);
        assert!(out.path_entries.len() <= PathLimits::default().max_subcases);
    }

    #[test]
    fn leaked_local_allocation_keys_on_opaque() {
        let module = parse_module(
            "module m; fn leak() { let o = PyList_New(0); return 0; }",
        )
        .unwrap();
        let f = module.function("leak").unwrap();
        let out = summarize_paths(
            f,
            &crate::apis::python_c_apis(),
            &PathLimits::default(),
            SatOptions::default(),
        );
        // Success entry leaks +1 on an opaque object; failure entry has no
        // change. (This is the conditional-leak shape IPP checking flags.)
        let leaky: Vec<_> =
            out.path_entries.iter().filter(|p| p.entry.has_changes()).collect();
        assert_eq!(leaky.len(), 1);
        let root = leaky[0].entry.changes.keys().next().unwrap().root_var().unwrap();
        assert_eq!(root.kind, VarKind::Opaque);
    }

    #[test]
    fn returned_allocation_keys_on_ret() {
        let module = parse_module(
            "module m; fn make() { let o = PyList_New(0); return o; }",
        )
        .unwrap();
        let f = module.function("make").unwrap();
        let out = summarize_paths(
            f,
            &crate::apis::python_c_apis(),
            &PathLimits::default(),
            SatOptions::default(),
        );
        let success = out
            .path_entries
            .iter()
            .find(|p| p.entry.has_changes())
            .expect("success entry");
        // The +1 is keyed on [0].rc — exactly PyList_New's own shape.
        assert_eq!(
            success.entry.change(&Term::var(Var::ret()).field("rc")),
            1
        );
    }

    #[test]
    fn shared_prefix_names_call_results_identically() {
        // The call happens before the branch; both paths must key the
        // leaked object on the same opaque id so IPP checking can compare
        // their change maps.
        let module = parse_module(
            r#"module m;
            fn f(x) {
                let o = PyList_New(0);
                let c = check(x);
                if (c < 0) { return 0; }
                return 0;
            }"#,
        )
        .unwrap();
        let f = module.function("f").unwrap();
        let out = summarize_paths(
            f,
            &crate::apis::python_c_apis(),
            &PathLimits::default(),
            SatOptions::default(),
        );
        let keys: std::collections::BTreeSet<&Term> = out
            .path_entries
            .iter()
            .flat_map(|p| p.entry.changes.keys())
            .collect();
        assert_eq!(keys.len(), 1, "one shared key across paths: {keys:?}");
    }

    #[test]
    fn branch_with_equal_arms_constrains_nothing() {
        use rid_ir::{FunctionBuilder, Operand, Rvalue};
        let mut b = FunctionBuilder::new("f", ["dev"]);
        let join = b.new_block();
        b.assign("c", Rvalue::cmp(Pred::Gt, Operand::var("dev"), Operand::Int(0)));
        b.branch("c", join, join);
        b.switch_to(join);
        b.ret(Operand::Int(0));
        let f = b.finish().unwrap();
        let out = summarize_paths(
            &f,
            &linux_dpm_apis(),
            &PathLimits::default(),
            SatOptions::default(),
        );
        // Two structural paths collapse into identical summaries.
        assert!(!out.path_entries.is_empty());
        for pe in &out.path_entries {
            assert!(pe.entry.cons.implies(&Conj::from_lits([Lit::new(
                Pred::Eq,
                Term::var(Var::ret()),
                Term::int(0),
            )])));
        }
    }

    #[test]
    fn duplicate_paths_preserve_per_path_entry_order() {
        // A branch with coinciding arms *above* another branch replays a
        // two-leaf subtree: tree leaf order (0,2,1,3) differs from path
        // order (0,1,2,3), exercising the buffered reorder path.
        use rid_ir::{FunctionBuilder, Operand, Rvalue};
        let mut b = FunctionBuilder::new("f", ["dev"]);
        let mid = b.new_block();
        let then_bb = b.new_block();
        let else_bb = b.new_block();
        b.assign("c", Rvalue::cmp(Pred::Gt, Operand::var("dev"), Operand::Int(0)));
        b.branch("c", mid, mid);
        b.switch_to(mid);
        b.assign("d", Rvalue::cmp(Pred::Lt, Operand::var("dev"), Operand::Int(10)));
        b.branch("d", then_bb, else_bb);
        b.switch_to(then_bb);
        b.ret(Operand::Int(1));
        b.switch_to(else_bb);
        b.ret(Operand::Int(0));
        let f = b.finish().unwrap();
        let limits = PathLimits::default();
        let meter = BudgetMeter::unlimited();
        let tree = summarize_paths_mode(
            &f,
            &linux_dpm_apis(),
            &limits,
            SatOptions::default(),
            &meter,
            None,
            ExecMode::Tree,
        );
        let per_path = summarize_paths_mode(
            &f,
            &linux_dpm_apis(),
            &limits,
            SatOptions::default(),
            &meter,
            None,
            ExecMode::PerPath,
        );
        assert_eq!(tree.path_entries.len(), 4);
        let idx: Vec<usize> =
            tree.path_entries.iter().map(|p| p.path_index).collect();
        assert_eq!(idx, vec![0, 1, 2, 3], "entries must come out in path order");
        for (a, b) in tree.path_entries.iter().zip(&per_path.path_entries) {
            assert_eq!(a.entry, b.entry);
            assert_eq!(a.path_index, b.path_index);
        }
    }

    #[test]
    fn tree_mode_shares_prefix_work_and_memoizes_queries() {
        // Ten sequential two-way branches after a shared prologue: tree
        // execution must visit far fewer blocks than the sum over paths.
        let mut src = String::from(
            "module m; fn f(dev) { assume dev != null; pm_runtime_get(dev);\n",
        );
        for i in 0..6 {
            src.push_str(&format!(
                "let v{i} = reg_read(dev, {i}); if (v{i} < 0) {{ pm_runtime_put(dev); }}\n"
            ));
        }
        src.push_str("return 0; }");
        let module = parse_module(&src).unwrap();
        let f = module.function("f").unwrap();
        let out = summarize_paths(
            f,
            &linux_dpm_apis(),
            &PathLimits::default(),
            SatOptions::default(),
        );
        assert!(out.blocks_saved > 0, "prefix sharing must save block executions");
        assert!(
            out.blocks_executed + out.blocks_saved
                >= out.paths_enumerated, // every path has ≥ 1 block
            "counters must cover the per-path total"
        );
    }

    #[test]
    fn constant_branch_conditions_prune_statically() {
        let out = summarize_both(
            r#"module m;
            fn f(dev) {
                let debug = 0;
                if (debug) { pm_runtime_get(dev); }
                return 0;
            }"#,
            "f",
        );
        assert_eq!(out.path_entries.len(), 1);
        assert!(!out.path_entries[0].entry.has_changes());
    }

    #[test]
    fn field_store_is_ignored_by_execution() {
        // The store would distinguish the paths at runtime; the executor
        // deliberately drops it (§5.4) so the entries remain comparable.
        let out = summarize_both(
            r#"module m;
            fn f(dev) {
                let st = peek(dev);
                if (st > 0) {
                    dev.flag = 1;
                    pm_runtime_get(dev);
                }
                return 0;
            }"#,
            "f",
        );
        assert_eq!(out.path_entries.len(), 2);
        let joint =
            out.path_entries[0].entry.cons.and(&out.path_entries[1].entry.cons);
        assert!(joint.is_sat(), "paths must look indistinguishable");
    }

    #[test]
    fn void_functions_have_no_ret_conditions() {
        let out = summarize(
            "module m; fn f(dev) { pm_runtime_get(dev); return; }",
            "f",
        );
        assert_eq!(out.path_entries.len(), 1);
        let mut vars = Vec::new();
        out.path_entries[0].entry.cons.collect_vars(&mut vars);
        assert!(vars.iter().all(|v| v.kind != rid_solver::VarKind::Ret));
    }

    #[test]
    fn loop_bodies_execute_at_most_once() {
        // The loop condition must vary per iteration (a call result) or
        // the unrolled path is infeasible in the arithmetic-free
        // abstraction.
        let out = summarize_both(
            r#"module m;
            fn f(dev) {
                while (has_work(dev)) { pm_runtime_get(dev); }
                return 0;
            }"#,
            "f",
        );
        let pm = Term::var(Var::formal(0)).field("pm");
        let max_change =
            out.path_entries.iter().map(|p| p.entry.change(&pm)).max().unwrap();
        assert_eq!(max_change, 1, "loop unrolled at most once");
    }
}
