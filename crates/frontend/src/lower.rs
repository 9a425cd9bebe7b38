//! Lowering from the RIL AST to the `rid-ir` control-flow graph.

use std::collections::HashMap;

use rid_ir::{BlockId, FunctionBuilder, Module, Operand, Pred, Rvalue, Sym};

use crate::ast::{AstFunc, AstModule, Cond, Expr, Item, Stmt};
use crate::error::{FrontendError, Span};

/// Lowers a parsed module to IR.
///
/// # Errors
///
/// Returns a [`FrontendError`] on semantic errors: duplicate or misplaced
/// labels, `goto` to an unknown label, field access on constants, or IR
/// validation failures.
pub fn lower_module(ast: &AstModule) -> Result<Module, FrontendError> {
    let mut module = Module::new(ast.name);
    for item in &ast.items {
        match item {
            Item::Extern { name } => module.push_extern(*name),
            Item::Func(func) => module.push_function(lower_function(func)?),
        }
    }
    Ok(module)
}

struct Lowerer {
    builder: FunctionBuilder,
    labels: HashMap<Sym, BlockId>,
    next_temp: u32,
}

fn lower_function(ast: &AstFunc) -> Result<rid_ir::Function, FrontendError> {
    let mut builder = FunctionBuilder::new(ast.name, ast.params.iter().copied());
    builder.set_weak(ast.weak);

    // Pre-scan the outermost block for labels so forward `goto`s resolve.
    let mut labels = HashMap::new();
    for stmt in &ast.body {
        if let Stmt::Label { name, span } = stmt {
            let block = builder.new_block();
            if labels.insert(*name, block).is_some() {
                return Err(FrontendError::at(*span, format!("duplicate label `{name}`")));
            }
        }
    }

    let mut lowerer = Lowerer { builder, labels, next_temp: 0 };
    lowerer.stmts(&ast.body, 0)?;
    if !lowerer.builder.current_is_sealed() {
        lowerer.builder.ret_void();
    }
    lowerer
        .builder
        .finish()
        .map_err(|e| FrontendError::at(ast.span, format!("in function `{}`: {e}", ast.name)))
}

impl Lowerer {
    fn temp(&mut self) -> Sym {
        let name = Sym::new(&format!("%t{}", self.next_temp));
        self.next_temp += 1;
        name
    }

    /// If the current block is already sealed (dead code follows a
    /// terminator), continue lowering into a fresh unreachable block.
    fn ensure_open(&mut self) {
        if self.builder.current_is_sealed() {
            let b = self.builder.new_block();
            self.builder.switch_to(b);
        }
    }

    fn stmts(&mut self, stmts: &[Stmt], depth: u32) -> Result<(), FrontendError> {
        for stmt in stmts {
            self.stmt(stmt, depth)?;
        }
        Ok(())
    }

    fn stmt(&mut self, stmt: &Stmt, depth: u32) -> Result<(), FrontendError> {
        match stmt {
            Stmt::Label { name, span } => {
                if depth > 0 {
                    return Err(FrontendError::at(
                        *span,
                        format!("label `{name}` must be in the function's outermost block"),
                    ));
                }
                let block = self.labels[name];
                if !self.builder.current_is_sealed() {
                    self.builder.jump(block);
                }
                self.builder.switch_to(block);
            }
            Stmt::Goto { label, span } => {
                let block = *self.labels.get(label).ok_or_else(|| {
                    FrontendError::at(*span, format!("goto to unknown label `{label}`"))
                })?;
                self.ensure_open();
                self.builder.jump(block);
            }
            Stmt::Assign { name, expr, span } => {
                self.ensure_open();
                let rvalue = self.rvalue(expr, *span)?;
                self.builder.assign(*name, rvalue);
            }
            Stmt::FieldStore { base, fields, value, span } => {
                self.ensure_open();
                let (last, init) = fields.split_last().expect("parser guarantees ≥1 field");
                let mut base_var = *base;
                for field in init {
                    let t = self.temp();
                    self.builder.assign(t, Rvalue::field(base_var, *field));
                    base_var = t;
                }
                let value = self.operand(value, *span)?;
                self.builder.field_store(base_var, *last, value);
            }
            Stmt::ExprStmt { expr, span } => {
                self.ensure_open();
                match expr {
                    Expr::Call { callee, args } => {
                        let args = self.operands(args, *span)?;
                        self.builder.call(*callee, args);
                    }
                    _ => {
                        return Err(FrontendError::at(
                            *span,
                            "only calls may be used as statements",
                        ))
                    }
                }
            }
            Stmt::Assume { cond, span } => {
                self.ensure_open();
                self.assume(cond, false, *span)?;
            }
            Stmt::Return { value, span } => {
                self.ensure_open();
                match value {
                    Some(expr) => {
                        let op = self.operand(expr, *span)?;
                        self.builder.ret(op);
                    }
                    None => {
                        self.builder.ret_void();
                    }
                }
            }
            Stmt::If { cond, then, els, span } => {
                self.ensure_open();
                let then_bb = self.builder.new_block();
                let join_bb = self.builder.new_block();
                let else_bb =
                    if els.is_empty() { join_bb } else { self.builder.new_block() };
                self.cond_branch(cond, false, then_bb, else_bb, *span)?;

                self.builder.switch_to(then_bb);
                self.stmts(then, depth + 1)?;
                if !self.builder.current_is_sealed() {
                    self.builder.jump(join_bb);
                }

                if !els.is_empty() {
                    self.builder.switch_to(else_bb);
                    self.stmts(els, depth + 1)?;
                    if !self.builder.current_is_sealed() {
                        self.builder.jump(join_bb);
                    }
                }
                self.builder.switch_to(join_bb);
            }
            Stmt::While { cond, body, span } => {
                self.ensure_open();
                let head = self.builder.new_block();
                self.builder.jump(head);
                self.builder.switch_to(head);
                let body_bb = self.builder.new_block();
                let exit_bb = self.builder.new_block();
                self.cond_branch(cond, false, body_bb, exit_bb, *span)?;
                self.builder.switch_to(body_bb);
                self.stmts(body, depth + 1)?;
                if !self.builder.current_is_sealed() {
                    self.builder.jump(head);
                }
                self.builder.switch_to(exit_bb);
            }
        }
        Ok(())
    }

    /// Lowers a condition as a branch to `then_bb`/`else_bb`, with
    /// short-circuit evaluation for `&&`/`||` (each connective gets its
    /// own block, so side-effecting operands only run when reached).
    fn cond_branch(
        &mut self,
        cond: &Cond,
        negate: bool,
        then_bb: BlockId,
        else_bb: BlockId,
        span: Span,
    ) -> Result<(), FrontendError> {
        match cond {
            Cond::Not(inner) => self.cond_branch(inner, !negate, then_bb, else_bb, span),
            Cond::And(a, b) if !negate => {
                let mid = self.builder.new_block();
                self.cond_branch(a, false, mid, else_bb, span)?;
                self.builder.switch_to(mid);
                self.cond_branch(b, false, then_bb, else_bb, span)
            }
            Cond::Or(a, b) if !negate => {
                let mid = self.builder.new_block();
                self.cond_branch(a, false, then_bb, mid, span)?;
                self.builder.switch_to(mid);
                self.cond_branch(b, false, then_bb, else_bb, span)
            }
            // De Morgan under negation: swap the targets instead.
            Cond::And(..) | Cond::Or(..) => {
                self.cond_branch(cond, false, else_bb, then_bb, span)
            }
            Cond::Cmp { pred, lhs, rhs } => {
                let pred = if negate { pred.negated() } else { *pred };
                let lhs = self.operand(lhs, span)?;
                let rhs = self.operand(rhs, span)?;
                let t = self.temp();
                self.builder.assign(t, Rvalue::Cmp { pred, lhs, rhs });
                self.builder.branch(t, then_bb, else_bb);
                Ok(())
            }
            Cond::Truthy(expr) => {
                let pred = if negate { Pred::Eq } else { Pred::Ne };
                let op = self.operand(expr, span)?;
                let t = self.temp();
                self.builder.assign(t, Rvalue::Cmp { pred, lhs: op, rhs: Operand::Int(0) });
                self.builder.branch(t, then_bb, else_bb);
                Ok(())
            }
        }
    }

    /// Emits an `assume` for a condition. Connective-free conditions map
    /// to a single `assume` instruction; conditions with `&&`/`||` are
    /// lowered as a branch whose failing arm is unreachable.
    fn assume(&mut self, cond: &Cond, negate: bool, span: Span) -> Result<(), FrontendError> {
        match cond {
            Cond::Not(inner) => self.assume(inner, !negate, span),
            Cond::Cmp { pred, lhs, rhs } => {
                let pred = if negate { pred.negated() } else { *pred };
                let lhs = self.operand(lhs, span)?;
                let rhs = self.operand(rhs, span)?;
                self.builder.assume(pred, lhs, rhs);
                Ok(())
            }
            Cond::Truthy(expr) => {
                let pred = if negate { Pred::Eq } else { Pred::Ne };
                let op = self.operand(expr, span)?;
                self.builder.assume(pred, op, Operand::Int(0));
                Ok(())
            }
            Cond::And(..) | Cond::Or(..) => {
                let ok = self.builder.new_block();
                let bad = self.builder.new_block();
                self.cond_branch(cond, negate, ok, bad, span)?;
                self.builder.switch_to(bad);
                self.builder.unreachable();
                self.builder.switch_to(ok);
                Ok(())
            }
        }
    }

    /// Lowers an expression to an [`Rvalue`] for direct assignment
    /// (avoiding a temp when the expression maps 1:1 onto an instruction).
    fn rvalue(&mut self, expr: &Expr, span: Span) -> Result<Rvalue, FrontendError> {
        Ok(match expr {
            Expr::Int(_) | Expr::Bool(_) | Expr::Null | Expr::Var(_) => {
                Rvalue::Use(self.operand(expr, span)?)
            }
            Expr::Random => Rvalue::Random,
            Expr::Field { base, field } => {
                let base_var = self.base_var(base, span)?;
                Rvalue::field(base_var, *field)
            }
            Expr::Call { callee, args } => {
                Rvalue::Call { callee: *callee, args: self.operands(args, span)? }
            }
            Expr::Cmp { pred, lhs, rhs } => Rvalue::Cmp {
                pred: *pred,
                lhs: self.operand(lhs, span)?,
                rhs: self.operand(rhs, span)?,
            },
            Expr::FuncRef(name) => Rvalue::Use(Operand::FuncRef(*name)),
        })
    }

    /// Lowers an expression to an operand, materializing temps as needed.
    fn operand(&mut self, expr: &Expr, span: Span) -> Result<Operand, FrontendError> {
        Ok(match expr {
            Expr::Int(v) => Operand::Int(*v),
            Expr::Bool(b) => Operand::Bool(*b),
            Expr::Null => Operand::Null,
            Expr::Var(name) => Operand::Var(*name),
            Expr::FuncRef(name) => Operand::FuncRef(*name),
            Expr::Random | Expr::Field { .. } | Expr::Call { .. } | Expr::Cmp { .. } => {
                let rvalue = self.rvalue(expr, span)?;
                let t = self.temp();
                self.builder.assign(t, rvalue);
                Operand::Var(t)
            }
        })
    }

    fn operands(&mut self, exprs: &[Expr], span: Span) -> Result<Vec<Operand>, FrontendError> {
        exprs.iter().map(|e| self.operand(e, span)).collect()
    }

    /// Lowers the base of a field access to a variable name.
    fn base_var(&mut self, base: &Expr, span: Span) -> Result<Sym, FrontendError> {
        match self.operand(base, span)? {
            Operand::Var(name) => Ok(name),
            _ => Err(FrontendError::at(span, "field access on a constant")),
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::parse_module;
    use rid_ir::{Inst, Rvalue, Terminator};

    #[test]
    fn figure1_foo_lowers_to_three_reachable_blocks() {
        let m = parse_module(
            r#"module fig1;
            extern fn reg_read;
            extern fn inc_pmcount;
            fn foo(dev) {
                assume dev != null;
                let v = reg_read(dev, 0x54);
                if (v <= 0) { goto exit; }
                inc_pmcount(dev);
            exit:
                return 0;
            }"#,
        )
        .unwrap();
        let foo = m.function("foo").unwrap();
        assert_eq!(foo.params(), &["dev".to_owned()]);
        assert_eq!(foo.conditional_branch_count(), 1);
        let callees: Vec<&str> = foo.callees().collect();
        assert_eq!(callees, vec!["reg_read", "inc_pmcount"]);
        // Entry has the assume.
        assert!(matches!(foo.blocks().get(0).unwrap().insts[0], Inst::Assume { .. }));
    }

    #[test]
    fn implicit_void_return() {
        let m = parse_module("module m; fn f() { g(); }").unwrap();
        let f = m.function("f").unwrap();
        assert!(matches!(f.blocks().get(0).unwrap().term, Terminator::Return(None)));
    }

    #[test]
    fn truthiness_lowering() {
        let m = parse_module("module m; fn f(x) { if (x) { return 1; } return 0; }").unwrap();
        let f = m.function("f").unwrap();
        let cmp = f.blocks().get(0).unwrap()
            .insts
            .iter()
            .find_map(|i| match i {
                Inst::Assign { rvalue: Rvalue::Cmp { pred, .. }, .. } => Some(*pred),
                _ => None,
            })
            .unwrap();
        assert_eq!(cmp, rid_ir::Pred::Ne);
    }

    #[test]
    fn negated_condition_lowering() {
        let m = parse_module("module m; fn f(x) { if (!(x < 0)) { return 1; } return 0; }")
            .unwrap();
        let f = m.function("f").unwrap();
        let cmp = f.blocks().get(0).unwrap()
            .insts
            .iter()
            .find_map(|i| match i {
                Inst::Assign { rvalue: Rvalue::Cmp { pred, .. }, .. } => Some(*pred),
                _ => None,
            })
            .unwrap();
        assert_eq!(cmp, rid_ir::Pred::Ge);
    }

    #[test]
    fn while_loop_shape() {
        let m = parse_module("module m; fn f(n) { while (n > 0) { step(); } return; }").unwrap();
        let f = m.function("f").unwrap();
        let cfg = rid_ir::Cfg::new(f);
        assert!(cfg.has_loops());
    }

    #[test]
    fn nested_field_store() {
        let m = parse_module("module m; fn f(s) { s.dev.count = 3; return; }").unwrap();
        let f = m.function("f").unwrap();
        let has_load = f
            .insts()
            .any(|(_, i)| matches!(i, Inst::Assign { rvalue: Rvalue::FieldLoad { .. }, .. }));
        let has_store = f.insts().any(|(_, i)| matches!(i, Inst::FieldStore { .. }));
        assert!(has_load && has_store);
    }

    #[test]
    fn call_args_are_flattened() {
        let m =
            parse_module("module m; fn f(x) { let a = g(h(x), x.dev); return a; }").unwrap();
        let f = m.function("f").unwrap();
        // h(x) and x.dev each get a temp before the call to g.
        let callees: Vec<&str> = f.callees().collect();
        assert_eq!(callees, vec!["h", "g"]);
    }

    #[test]
    fn semantic_errors() {
        assert!(parse_module("module m; fn f() { goto nowhere; }").is_err());
        assert!(parse_module("module m; fn f() { x: x: return; }")
            .unwrap_err()
            .to_string()
            .contains("duplicate label"));
        assert!(parse_module("module m; fn f(x) { if (x) { inner: return; } }")
            .unwrap_err()
            .to_string()
            .contains("outermost"));
        assert!(parse_module("module m; fn f() { let a = null.f; return; }").is_err());
    }

    #[test]
    fn dead_code_after_return_is_tolerated() {
        let m = parse_module("module m; fn f() { return 1; g(); return 2; }").unwrap();
        let f = m.function("f").unwrap();
        let cfg = rid_ir::Cfg::new(f);
        // Dead block exists but is unreachable.
        assert!(f.blocks().len() >= 2);
        assert!(!cfg.is_reachable(rid_ir::BlockId(1)));
    }

    #[test]
    fn short_circuit_and_lowering() {
        // `a() && b()`: b must only be called when a's result is truthy.
        let m = parse_module(
            "module m; fn f(x) { if (chk_a(x) && chk_b(x)) { act(x); } return 0; }",
        )
        .unwrap();
        let f = m.function("f").unwrap();
        // Two conditional branches: one per operand.
        assert_eq!(f.conditional_branch_count(), 2);
        // chk_b's call must be in a different block than chk_a's.
        let blocks_of: Vec<u32> = f
            .insts()
            .filter(|(_, i)| matches!(i.callee(), Some("chk_a") | Some("chk_b")))
            .map(|(id, _)| id.block.0)
            .collect();
        assert_eq!(blocks_of.len(), 2);
        assert_ne!(blocks_of[0], blocks_of[1], "short circuit requires separate blocks");
    }

    #[test]
    fn short_circuit_or_lowering() {
        let m = parse_module(
            "module m; fn f(x) { if (x < 0 || x > 10) { clamp(x); } return 0; }",
        )
        .unwrap();
        let f = m.function("f").unwrap();
        assert_eq!(f.conditional_branch_count(), 2);
    }

    #[test]
    fn assume_with_connectives_lowers_to_branch() {
        let m = parse_module("module m; fn f(x) { assume x > 0 && x < 10; return x; }")
            .unwrap();
        let f = m.function("f").unwrap();
        // An unreachable block models the failing assumption.
        assert!(f
            .blocks()
            .iter()
            .any(|b| matches!(b.term, rid_ir::Terminator::Unreachable)));
    }

    #[test]
    fn func_ref_lowering() {
        let m = parse_module(
            "module m; fn setup(dev) { request_irq(dev.irq, @handler, dev); return 0; }",
        )
        .unwrap();
        let f = m.function("setup").unwrap();
        let refs: Vec<&str> = f.referenced_functions().collect();
        assert_eq!(refs, vec!["handler"]);
        // @handler is not a *call* to handler.
        assert!(f.callees().all(|c| c != "handler"));
    }

    #[test]
    fn figure9_usb_wrapper_lowers() {
        let m = parse_module(
            r#"module usb;
            extern fn pm_runtime_get_sync;
            extern fn pm_runtime_put_sync;
            fn usb_autopm_get_interface(intf) {
                let status = pm_runtime_get_sync(intf.dev);
                if (status < 0) {
                    pm_runtime_put_sync(intf.dev);
                }
                if (status > 0) {
                    status = 0;
                }
                return status;
            }"#,
        )
        .unwrap();
        let f = m.function("usb_autopm_get_interface").unwrap();
        assert_eq!(f.conditional_branch_count(), 2);
        assert_eq!(m.externs().len(), 2);
    }
}
