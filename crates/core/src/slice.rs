//! Intraprocedural static backward slicing (§5.2 of the paper).
//!
//! Classification phase 2 computes, for each function, a backward slice
//! whose criteria are the function's return value and the actual arguments
//! passed to refcount-changing callees. Any non-refcount-changing callee
//! whose *result* lands in the slice may influence refcount behaviour and
//! is therefore classified as category 2.
//!
//! The slice here is a def-use closure augmented with the branch-condition
//! variables of conditional branches (control dependence approximation):
//! which refcount call executes is decided by branches, so their condition
//! variables — and everything they depend on — belong in the slice.

use std::collections::HashSet;

use rid_ir::{Function, Inst, Operand, Rvalue, Sym, Terminator};

/// The variables in the backward slice of `func` for the §5.2 criteria.
///
/// Criteria: operands of `return` terminators, actual arguments of calls
/// to functions in `refcount_changing`, and (as a control-dependence
/// approximation) all branch condition variables when the function calls a
/// refcount-changing function at all.
#[must_use]
pub fn slice_variables(
    func: &Function,
    refcount_changing: &dyn Fn(Sym) -> bool,
) -> HashSet<Sym> {
    let mut slice: HashSet<Sym> = HashSet::new();

    // Seed: return operands.
    for block in func.blocks() {
        if let Terminator::Return(Some(Operand::Var(name))) = block.term {
            slice.insert(*name);
        }
    }

    // Seed: arguments to refcount-changing calls; plus branch conditions
    // when such calls exist (they control which calls run).
    let mut calls_refcount_api = false;
    for (_, inst) in func.insts() {
        let (callee, args) = match inst {
            Inst::Call { callee, args } => (callee, args),
            Inst::Assign { rvalue: Rvalue::Call { callee, args }, .. } => (callee, args),
            _ => continue,
        };
        if refcount_changing(*callee) {
            calls_refcount_api = true;
            for arg in args {
                if let Operand::Var(name) = arg {
                    slice.insert(*name);
                }
            }
        }
    }
    if calls_refcount_api {
        for block in func.blocks() {
            if let Terminator::Branch { cond, .. } = block.term {
                slice.insert(*cond);
            }
        }
    }

    // Backward def-use closure (flow-insensitive fixpoint: a variable in
    // the slice pulls in everything its defining instructions read).
    loop {
        let mut changed = false;
        for (_, inst) in func.insts() {
            let Some(dst) = inst.def_sym() else { continue };
            if !slice.contains(&dst) {
                continue;
            }
            for used in inst.used_var_syms() {
                if slice.insert(used) {
                    changed = true;
                }
            }
        }
        if !changed {
            return slice;
        }
    }
}

/// Flow-aware variant of [`slice_variables`] using real control
/// dependence (Ferrante et al., via [`rid_ir::control_dependencies`])
/// instead of the all-branches approximation: only branches that actually
/// decide whether a refcount-changing call executes contribute their
/// condition variables.
///
/// Always a subset of [`slice_variables`] (the approximation is a sound
/// over-approximation of this).
#[must_use]
pub fn slice_variables_precise(
    func: &Function,
    refcount_changing: &dyn Fn(Sym) -> bool,
) -> HashSet<Sym> {
    let mut slice: HashSet<Sym> = HashSet::new();

    // Seed: return operands.
    for block in func.blocks() {
        if let Terminator::Return(Some(Operand::Var(name))) = block.term {
            slice.insert(*name);
        }
    }

    // Seed: arguments of refcount-changing calls, plus the condition
    // variables of exactly the branches those calls are control-dependent
    // on (transitively up the dependence chain).
    let deps = rid_ir::control_dependencies(func);
    let mut dep_blocks: Vec<rid_ir::BlockId> = Vec::new();
    for (id, inst) in func.insts() {
        let (callee, args) = match inst {
            Inst::Call { callee, args } => (callee, args),
            Inst::Assign { rvalue: Rvalue::Call { callee, args }, .. } => (callee, args),
            _ => continue,
        };
        if refcount_changing(*callee) {
            for arg in args {
                if let Operand::Var(name) = arg {
                    slice.insert(*name);
                }
            }
            dep_blocks.push(id.block);
        }
    }
    // Transitive closure over control dependence.
    let mut controlling: HashSet<rid_ir::BlockId> = HashSet::new();
    while let Some(b) = dep_blocks.pop() {
        for &branch in &deps[b.index()] {
            if controlling.insert(branch) {
                dep_blocks.push(branch);
            }
        }
    }
    for branch in controlling {
        if let Terminator::Branch { cond, .. } = func.block(branch).term {
            slice.insert(*cond);
        }
    }

    data_closure(func, slice)
}

fn data_closure(func: &Function, mut slice: HashSet<Sym>) -> HashSet<Sym> {
    loop {
        let mut changed = false;
        for (_, inst) in func.insts() {
            let Some(dst) = inst.def_sym() else { continue };
            if !slice.contains(&dst) {
                continue;
            }
            for used in inst.used_var_syms() {
                if slice.insert(used) {
                    changed = true;
                }
            }
        }
        if !changed {
            return slice;
        }
    }
}

fn callees_with_results_in(
    func: &Function,
    slice: &HashSet<Sym>,
    refcount_changing: &dyn Fn(Sym) -> bool,
) -> HashSet<Sym> {
    let mut out = HashSet::new();
    for (_, inst) in func.insts() {
        if let Inst::Assign { dst, rvalue: Rvalue::Call { callee, .. } } = inst {
            if slice.contains(dst) && !refcount_changing(*callee) {
                out.insert(*callee);
            }
        }
    }
    out
}

/// The callees of `func` whose call *results* are inside the slice — the
/// category-2 candidates of §5.2.
#[must_use]
pub fn sliced_callees(
    func: &Function,
    refcount_changing: &dyn Fn(Sym) -> bool,
) -> HashSet<Sym> {
    let slice = slice_variables(func, refcount_changing);
    callees_with_results_in(func, &slice, refcount_changing)
}

/// [`sliced_callees`] computed with the precise control-dependence slice.
#[must_use]
pub fn sliced_callees_precise(
    func: &Function,
    refcount_changing: &dyn Fn(Sym) -> bool,
) -> HashSet<Sym> {
    let slice = slice_variables_precise(func, refcount_changing);
    callees_with_results_in(func, &slice, refcount_changing)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rid_frontend::parse_module;

    fn func(src: &str, name: &str) -> Function {
        parse_module(src).unwrap().function(name).unwrap().clone()
    }

    fn is_api(name: Sym) -> bool {
        name.starts_with("pm_runtime")
    }

    #[test]
    fn return_value_seeds_slice() {
        let f = func("module m; fn f() { let a = g(); return a; }", "f");
        let slice = slice_variables(&f, &is_api);
        assert!(slice.contains(&Sym::new("a")));
        let callees = sliced_callees(&f, &is_api);
        assert!(callees.contains(&Sym::new("g")));
    }

    #[test]
    fn refcount_args_seed_slice() {
        let f = func(
            "module m; fn f() { let d = lookup(); pm_runtime_get(d); return; }",
            "f",
        );
        let slice = slice_variables(&f, &is_api);
        assert!(slice.contains(&Sym::new("d")));
        assert!(sliced_callees(&f, &is_api).contains(&Sym::new("lookup")));
    }

    #[test]
    fn branch_conditions_included_when_refcounts_present() {
        let f = func(
            r#"module m;
            fn f(dev) {
                let st = check();
                if (st) { pm_runtime_get(dev); }
                return;
            }"#,
            "f",
        );
        // `check` feeds the branch controlling the get → category-2.
        assert!(sliced_callees(&f, &is_api).contains(&Sym::new("check")));
    }

    #[test]
    fn branch_conditions_excluded_without_refcounts() {
        let f = func(
            r#"module m;
            fn f() {
                let st = check();
                if (st) { log(); }
                return;
            }"#,
            "f",
        );
        // No refcount calls and no returned value: check is irrelevant.
        assert!(!sliced_callees(&f, &is_api).contains(&Sym::new("check")));
    }

    #[test]
    fn unrelated_calls_not_in_slice() {
        let f = func(
            r#"module m;
            fn f(dev) {
                let x = irrelevant();
                pm_runtime_get(dev);
                return 0;
            }"#,
            "f",
        );
        assert!(!sliced_callees(&f, &is_api).contains(&Sym::new("irrelevant")));
    }

    #[test]
    fn transitive_data_dependence() {
        let f = func(
            "module m; fn f() { let a = source(); let b = a.fieldx; return b; }",
            "f",
        );
        let slice = slice_variables(&f, &is_api);
        assert!(slice.contains(&Sym::new("a")) && slice.contains(&Sym::new("b")));
        assert!(sliced_callees(&f, &is_api).contains(&Sym::new("source")));
    }

    #[test]
    fn precise_slice_is_subset_of_approximate() {
        let f = func(
            r#"module m;
            fn f(dev) {
                let unrelated = probe_fan(dev);
                if (unrelated < 0) { log_it(dev); }
                let st = probe_pm(dev);
                if (st < 0) { return -1; }
                pm_runtime_get(dev);
                pm_runtime_put(dev);
                return 0;
            }"#,
            "f",
        );
        let approx = slice_variables(&f, &is_api);
        let precise = slice_variables_precise(&f, &is_api);
        assert!(precise.is_subset(&approx), "{precise:?} ⊄ {approx:?}");
        // The approximation pulls in the fan probe (its branch exists);
        // the precise slice does not (that branch controls no pm call).
        assert!(approx.contains(&Sym::new("unrelated")));
        assert!(!precise.contains(&Sym::new("unrelated")));
        let approx_callees = sliced_callees(&f, &is_api);
        let precise_callees = sliced_callees_precise(&f, &is_api);
        assert!(approx_callees.contains(&Sym::new("probe_fan")));
        assert!(!precise_callees.contains(&Sym::new("probe_fan")));
        assert!(precise_callees.contains(&Sym::new("probe_pm")));
    }

    #[test]
    fn precise_slice_keeps_controlling_branches() {
        let f = func(
            r#"module m;
            fn f(dev) {
                let st = check(dev);
                if (st) { pm_runtime_get(dev); }
                return;
            }"#,
            "f",
        );
        let precise = slice_variables_precise(&f, &is_api);
        assert!(precise.contains(&Sym::new("st")), "{precise:?}");
        assert!(sliced_callees_precise(&f, &is_api).contains(&Sym::new("check")));
    }

    #[test]
    fn refcount_changing_callees_are_not_category2() {
        let f = func(
            "module m; fn f(dev) { let r = pm_runtime_get_sync(dev); return r; }",
            "f",
        );
        // pm_runtime_get_sync is category 1, not 2, even though its result
        // is returned.
        assert!(sliced_callees(&f, &is_api).is_empty());
    }
}
