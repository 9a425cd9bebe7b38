//! Property-based round-trip tests: random ASTs are rendered to RIL
//! source, re-parsed, and compared structurally (ignoring spans). This
//! pins the parser and the surface grammar to each other.

#![cfg(test)]

use proptest::prelude::*;
use rid_ir::{Pred, Sym};

use crate::ast::{AstFunc, AstModule, Cond, Expr, Item, Stmt};
use crate::error::Span;
use crate::lexer::lex;
use crate::parser::parse;

// ---------------------------------------------------------------- printer

fn render_expr(expr: &Expr, out: &mut String) {
    match expr {
        Expr::Int(v) => out.push_str(&v.to_string()),
        Expr::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Expr::Null => out.push_str("null"),
        Expr::Var(name) => out.push_str(name),
        Expr::Field { base, field } => {
            render_expr(base, out);
            out.push('.');
            out.push_str(field);
        }
        Expr::Random => out.push_str("random"),
        Expr::Call { callee, args } => {
            out.push_str(callee);
            out.push('(');
            for (i, arg) in args.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                render_expr(arg, out);
            }
            out.push(')');
        }
        Expr::Cmp { pred, lhs, rhs } => {
            render_expr(lhs, out);
            out.push(' ');
            out.push_str(pred.symbol());
            out.push(' ');
            render_expr(rhs, out);
        }
        Expr::FuncRef(name) => {
            out.push('@');
            out.push_str(name);
        }
    }
}

/// Composite operands are always parenthesized, leaves are bare.
fn render_cond(cond: &Cond, out: &mut String) {
    fn operand(c: &Cond, out: &mut String) {
        match c {
            Cond::And(..) | Cond::Or(..) => {
                out.push('(');
                render_cond(c, out);
                out.push(')');
            }
            _ => render_cond(c, out),
        }
    }
    match cond {
        Cond::Cmp { pred, lhs, rhs } => {
            render_expr(lhs, out);
            out.push(' ');
            out.push_str(pred.symbol());
            out.push(' ');
            render_expr(rhs, out);
        }
        Cond::Truthy(expr) => render_expr(expr, out),
        Cond::Not(inner) => {
            out.push_str("!(");
            render_cond(inner, out);
            out.push(')');
        }
        Cond::And(a, b) => {
            operand(a, out);
            out.push_str(" && ");
            operand(b, out);
        }
        Cond::Or(a, b) => {
            operand(a, out);
            out.push_str(" || ");
            operand(b, out);
        }
    }
}

fn render_stmt(stmt: &Stmt, out: &mut String) {
    match stmt {
        Stmt::Assign { name, expr, .. } => {
            // Always use `let` form; the parser treats both identically.
            out.push_str("let ");
            out.push_str(name);
            out.push_str(" = ");
            render_expr(expr, out);
            out.push(';');
        }
        Stmt::FieldStore { base, fields, value, .. } => {
            out.push_str(base);
            for f in fields {
                out.push('.');
                out.push_str(f);
            }
            out.push_str(" = ");
            render_expr(value, out);
            out.push(';');
        }
        Stmt::If { cond, then, els, .. } => {
            out.push_str("if (");
            render_cond(cond, out);
            out.push_str(") {");
            for s in then {
                render_stmt(s, out);
            }
            out.push('}');
            if !els.is_empty() {
                out.push_str(" else {");
                for s in els {
                    render_stmt(s, out);
                }
                out.push('}');
            }
        }
        Stmt::While { cond, body, .. } => {
            out.push_str("while (");
            render_cond(cond, out);
            out.push_str(") {");
            for s in body {
                render_stmt(s, out);
            }
            out.push('}');
        }
        Stmt::Return { value, .. } => {
            out.push_str("return");
            if let Some(v) = value {
                out.push(' ');
                render_expr(v, out);
            }
            out.push(';');
        }
        Stmt::Goto { label, .. } => {
            out.push_str("goto ");
            out.push_str(label);
            out.push(';');
        }
        Stmt::Label { name, .. } => {
            out.push_str(name);
            out.push(':');
        }
        Stmt::Assume { cond, .. } => {
            out.push_str("assume ");
            render_cond(cond, out);
            out.push(';');
        }
        Stmt::ExprStmt { expr, .. } => {
            render_expr(expr, out);
            out.push(';');
        }
    }
    out.push('\n');
}

fn render_module(module: &AstModule) -> String {
    let mut out = format!("module {};\n", module.name);
    for item in &module.items {
        match item {
            Item::Extern { name } => {
                out.push_str(&format!("extern fn {name};\n"));
            }
            Item::Func(f) => {
                if f.weak {
                    out.push_str("weak ");
                }
                let params: Vec<&str> = f.params.iter().map(|p| p.as_str()).collect();
                out.push_str(&format!("fn {}({}) {{\n", f.name, params.join(", ")));
                for s in &f.body {
                    render_stmt(s, &mut out);
                }
                out.push_str("}\n");
            }
        }
    }
    out
}

// ------------------------------------------------------------- span strip

fn strip_expr(_expr: &mut Expr) {}

fn strip_stmt(stmt: &mut Stmt) {
    match stmt {
        Stmt::Assign { span, .. }
        | Stmt::FieldStore { span, .. }
        | Stmt::Return { span, .. }
        | Stmt::Goto { span, .. }
        | Stmt::Label { span, .. }
        | Stmt::Assume { span, .. }
        | Stmt::ExprStmt { span, .. } => *span = Span::default(),
        Stmt::If { span, then, els, .. } => {
            *span = Span::default();
            then.iter_mut().for_each(strip_stmt);
            els.iter_mut().for_each(strip_stmt);
        }
        Stmt::While { span, body, .. } => {
            *span = Span::default();
            body.iter_mut().for_each(strip_stmt);
        }
    }
}

fn strip_module(module: &mut AstModule) {
    for item in &mut module.items {
        if let Item::Func(f) = item {
            f.span = Span::default();
            f.body.iter_mut().for_each(strip_stmt);
        }
    }
}

// ------------------------------------------------------------- strategies

fn ident() -> impl Strategy<Value = Sym> {
    // Avoid keywords; identifiers from a small pool keep shrinking useful.
    prop_oneof![
        Just(Sym::new("alpha")),
        Just(Sym::new("beta")),
        Just(Sym::new("dev")),
        Just(Sym::new("status2")),
        Just(Sym::new("intf_x")),
        Just(Sym::new("v_")),
    ]
}

fn pred() -> impl Strategy<Value = Pred> {
    prop_oneof![
        Just(Pred::Eq),
        Just(Pred::Ne),
        Just(Pred::Lt),
        Just(Pred::Le),
        Just(Pred::Gt),
        Just(Pred::Ge),
    ]
}

/// Expressions without comparisons (operand position).
fn simple_expr() -> impl Strategy<Value = Expr> {
    let leaf = prop_oneof![
        (-100i64..100).prop_map(Expr::Int),
        any::<bool>().prop_map(Expr::Bool),
        Just(Expr::Null),
        ident().prop_map(Expr::Var),
        Just(Expr::Random),
        ident().prop_map(Expr::FuncRef),
    ];
    leaf.prop_recursive(3, 16, 4, |inner| {
        prop_oneof![
            // Field access on variables or calls only (lowering rejects
            // constants; the grammar is what we test here, but keep the
            // sources plausible).
            (ident().prop_map(Expr::Var), ident()).prop_map(|(base, field)| Expr::Field {
                base: Box::new(base),
                field,
            }),
            (ident(), prop::collection::vec(inner, 0..3))
                .prop_map(|(callee, args)| Expr::Call { callee, args }),
        ]
    })
}

/// Full expressions: a simple expression or one top-level comparison.
fn expr() -> impl Strategy<Value = Expr> {
    prop_oneof![
        simple_expr(),
        (pred(), simple_expr(), simple_expr()).prop_map(|(p, l, r)| Expr::Cmp {
            pred: p,
            lhs: Box::new(l),
            rhs: Box::new(r),
        }),
    ]
}

fn cond() -> impl Strategy<Value = Cond> {
    let leaf = prop_oneof![
        (pred(), simple_expr(), simple_expr())
            .prop_map(|(p, l, r)| Cond::Cmp { pred: p, lhs: l, rhs: r }),
        simple_expr().prop_map(Cond::Truthy),
    ];
    leaf.prop_recursive(3, 12, 2, |inner| {
        prop_oneof![
            inner.clone().prop_map(|c| Cond::Not(Box::new(c))),
            (inner.clone(), inner.clone())
                .prop_map(|(a, b)| Cond::And(Box::new(a), Box::new(b))),
            (inner.clone(), inner)
                .prop_map(|(a, b)| Cond::Or(Box::new(a), Box::new(b))),
        ]
    })
}

fn stmt() -> impl Strategy<Value = Stmt> {
    let leaf = prop_oneof![
        (ident(), expr()).prop_map(|(name, e)| Stmt::Assign {
            name,
            expr: e,
            span: Span::default(),
        }),
        (ident(), prop::collection::vec(ident(), 1..3), simple_expr()).prop_map(
            |(base, fields, value)| Stmt::FieldStore {
                base,
                fields,
                value,
                span: Span::default(),
            }
        ),
        prop::option::of(expr())
            .prop_map(|value| Stmt::Return { value, span: Span::default() }),
        cond().prop_map(|c| Stmt::Assume { cond: c, span: Span::default() }),
        (ident(), prop::collection::vec(simple_expr(), 0..3)).prop_map(|(callee, args)| {
            Stmt::ExprStmt {
                expr: Expr::Call { callee, args },
                span: Span::default(),
            }
        }),
    ];
    leaf.prop_recursive(2, 12, 3, |inner| {
        prop_oneof![
            (cond(), prop::collection::vec(inner.clone(), 0..3),
             prop::collection::vec(inner.clone(), 0..2))
                .prop_map(|(c, then, els)| Stmt::If {
                    cond: c,
                    then,
                    els,
                    span: Span::default(),
                }),
            (cond(), prop::collection::vec(inner, 0..3)).prop_map(|(c, body)| Stmt::While {
                cond: c,
                body,
                span: Span::default(),
            }),
        ]
    })
}

fn module() -> impl Strategy<Value = AstModule> {
    (
        ident(),
        prop::collection::vec(
            prop_oneof![
                ident().prop_map(|name| Item::Extern { name }),
                (
                    ident(),
                    prop::collection::vec(ident(), 0..3),
                    any::<bool>(),
                    prop::collection::vec(stmt(), 0..5),
                )
                    .prop_map(|(name, mut params, weak, body)| {
                        params.dedup();
                        Item::Func(AstFunc {
                            name,
                            params,
                            weak,
                            body,
                            span: Span::default(),
                        })
                    }),
            ],
            0..4,
        ),
    )
        .prop_map(|(name, items)| AstModule { name, items })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// Rendering an AST to RIL source and parsing it back yields the same
    /// AST (modulo spans).
    #[test]
    fn ast_roundtrips_through_source(m in module()) {
        let source = render_module(&m);
        let tokens = lex(&source)
            .unwrap_or_else(|e| panic!("lex failed: {e}\nsource:\n{source}"));
        let mut reparsed = parse(&tokens)
            .unwrap_or_else(|e| panic!("parse failed: {e}\nsource:\n{source}"));
        strip_module(&mut reparsed);
        let mut original = m.clone();
        strip_module(&mut original);
        prop_assert_eq!(reparsed, original, "source:\n{}", source);
        let _ = strip_expr; // silence: expressions carry no spans
    }
}
