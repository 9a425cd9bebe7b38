//! Recursive-descent parser for RIL.

use rid_ir::{Pred, Sym};

use crate::ast::{AstFunc, AstModule, Cond, Expr, Item, Stmt};
use crate::error::{FrontendError, Span};
use crate::lexer::{Tok, Token};

struct Parser<'a> {
    tokens: &'a [Token],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn peek(&self) -> Option<&Tok> {
        self.tokens.get(self.pos).map(|t| &t.tok)
    }

    fn peek2(&self) -> Option<&Tok> {
        self.tokens.get(self.pos + 1).map(|t| &t.tok)
    }

    fn span(&self) -> Span {
        self.tokens
            .get(self.pos)
            .or_else(|| self.tokens.last())
            .map(|t| t.span)
            .unwrap_or_default()
    }

    fn bump(&mut self) -> Option<&Token> {
        let t = self.tokens.get(self.pos);
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn eat(&mut self, expected: &Tok) -> Result<Span, FrontendError> {
        let span = self.span();
        match self.peek() {
            Some(t) if t == expected => {
                self.pos += 1;
                Ok(span)
            }
            Some(t) => Err(FrontendError::at(
                span,
                format!("expected `{expected}`, found `{t}`"),
            )),
            None => Err(FrontendError::msg(format!(
                "expected `{expected}`, found end of file"
            ))),
        }
    }

    fn eat_ident(&mut self, what: &str) -> Result<Sym, FrontendError> {
        let span = self.span();
        match self.peek() {
            Some(&Tok::Ident(name)) => {
                self.pos += 1;
                Ok(name)
            }
            Some(t) => Err(FrontendError::at(span, format!("expected {what}, found `{t}`"))),
            None => Err(FrontendError::msg(format!("expected {what}, found end of file"))),
        }
    }

    fn module(&mut self) -> Result<AstModule, FrontendError> {
        self.eat(&Tok::Module)?;
        let name = self.eat_ident("module name")?;
        self.eat(&Tok::Semi)?;
        let mut items = Vec::new();
        while self.peek().is_some() {
            items.push(self.item()?);
        }
        Ok(AstModule { name, items })
    }

    fn item(&mut self) -> Result<Item, FrontendError> {
        match self.peek() {
            Some(Tok::Extern) => {
                self.bump();
                self.eat(&Tok::Fn)?;
                let name = self.eat_ident("function name")?;
                // Optional (ignored) parameter list on externs.
                if self.peek() == Some(&Tok::LParen) {
                    self.bump();
                    while self.peek() != Some(&Tok::RParen) {
                        self.eat_ident("parameter name")?;
                        if self.peek() == Some(&Tok::Comma) {
                            self.bump();
                        }
                    }
                    self.eat(&Tok::RParen)?;
                }
                self.eat(&Tok::Semi)?;
                Ok(Item::Extern { name })
            }
            Some(Tok::Weak) | Some(Tok::Fn) => {
                let weak = if self.peek() == Some(&Tok::Weak) {
                    self.bump();
                    true
                } else {
                    false
                };
                let span = self.span();
                self.eat(&Tok::Fn)?;
                let name = self.eat_ident("function name")?;
                self.eat(&Tok::LParen)?;
                let mut params = Vec::new();
                while self.peek() != Some(&Tok::RParen) {
                    params.push(self.eat_ident("parameter name")?);
                    if self.peek() == Some(&Tok::Comma) {
                        self.bump();
                    } else {
                        break;
                    }
                }
                self.eat(&Tok::RParen)?;
                let body = self.block()?;
                Ok(Item::Func(AstFunc { name, params, weak, body, span }))
            }
            Some(t) => Err(FrontendError::at(
                self.span(),
                format!("expected `extern`, `weak` or `fn`, found `{t}`"),
            )),
            None => Err(FrontendError::msg("expected item, found end of file")),
        }
    }

    fn block(&mut self) -> Result<Vec<Stmt>, FrontendError> {
        self.eat(&Tok::LBrace)?;
        let mut stmts = Vec::new();
        while self.peek() != Some(&Tok::RBrace) {
            if self.peek().is_none() {
                return Err(FrontendError::msg("unterminated block"));
            }
            stmts.push(self.stmt()?);
        }
        self.eat(&Tok::RBrace)?;
        Ok(stmts)
    }

    fn stmt(&mut self) -> Result<Stmt, FrontendError> {
        let span = self.span();
        match self.peek() {
            Some(Tok::Let) => {
                self.bump();
                let name = self.eat_ident("variable name")?;
                self.eat(&Tok::Assign)?;
                let expr = self.expr()?;
                self.eat(&Tok::Semi)?;
                Ok(Stmt::Assign { name, expr, span })
            }
            Some(Tok::If) => {
                self.bump();
                self.eat(&Tok::LParen)?;
                let cond = self.cond()?;
                self.eat(&Tok::RParen)?;
                let then = self.block()?;
                let els = if self.peek() == Some(&Tok::Else) {
                    self.bump();
                    if self.peek() == Some(&Tok::If) {
                        vec![self.stmt()?] // else-if chains
                    } else {
                        self.block()?
                    }
                } else {
                    Vec::new()
                };
                Ok(Stmt::If { cond, then, els, span })
            }
            Some(Tok::While) => {
                self.bump();
                self.eat(&Tok::LParen)?;
                let cond = self.cond()?;
                self.eat(&Tok::RParen)?;
                let body = self.block()?;
                Ok(Stmt::While { cond, body, span })
            }
            Some(Tok::Return) => {
                self.bump();
                let value = if self.peek() == Some(&Tok::Semi) {
                    None
                } else {
                    Some(self.expr()?)
                };
                self.eat(&Tok::Semi)?;
                Ok(Stmt::Return { value, span })
            }
            Some(Tok::Goto) => {
                self.bump();
                let label = self.eat_ident("label name")?;
                self.eat(&Tok::Semi)?;
                Ok(Stmt::Goto { label, span })
            }
            Some(Tok::Assume) => {
                self.bump();
                // Parentheses, when present, are handled by the condition
                // grammar itself.
                let cond = self.cond()?;
                self.eat(&Tok::Semi)?;
                Ok(Stmt::Assume { cond, span })
            }
            Some(Tok::Ident(_)) => {
                // Label, assignment, field store, or call statement.
                if self.peek2() == Some(&Tok::Colon) {
                    let name = self.eat_ident("label name")?;
                    self.eat(&Tok::Colon)?;
                    return Ok(Stmt::Label { name, span });
                }
                let name = self.eat_ident("identifier")?;
                match self.peek() {
                    Some(Tok::Assign) => {
                        self.bump();
                        let expr = self.expr()?;
                        self.eat(&Tok::Semi)?;
                        Ok(Stmt::Assign { name, expr, span })
                    }
                    Some(Tok::Dot) => {
                        let mut fields = Vec::new();
                        while self.peek() == Some(&Tok::Dot) {
                            self.bump();
                            fields.push(self.eat_ident("field name")?);
                        }
                        self.eat(&Tok::Assign)?;
                        let value = self.expr()?;
                        self.eat(&Tok::Semi)?;
                        Ok(Stmt::FieldStore { base: name, fields, value, span })
                    }
                    Some(Tok::LParen) => {
                        let expr = self.call_tail(name)?;
                        self.eat(&Tok::Semi)?;
                        Ok(Stmt::ExprStmt { expr, span })
                    }
                    Some(t) => Err(FrontendError::at(
                        self.span(),
                        format!("expected `=`, `.`, `(` or `:` after identifier, found `{t}`"),
                    )),
                    None => Err(FrontendError::msg("unexpected end of file in statement")),
                }
            }
            Some(t) => {
                Err(FrontendError::at(span, format!("expected statement, found `{t}`")))
            }
            None => Err(FrontendError::msg("expected statement, found end of file")),
        }
    }

    /// `cond := and_cond ("||" and_cond)*` — `&&` binds tighter than `||`,
    /// matching C.
    fn cond(&mut self) -> Result<Cond, FrontendError> {
        let mut lhs = self.and_cond()?;
        while self.peek() == Some(&Tok::OrOr) {
            self.bump();
            let rhs = self.and_cond()?;
            lhs = Cond::Or(Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn and_cond(&mut self) -> Result<Cond, FrontendError> {
        let mut lhs = self.base_cond()?;
        while self.peek() == Some(&Tok::AndAnd) {
            self.bump();
            let rhs = self.base_cond()?;
            lhs = Cond::And(Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn base_cond(&mut self) -> Result<Cond, FrontendError> {
        if self.peek() == Some(&Tok::Bang) {
            self.bump();
            // `!x` or `!(cond)`
            if self.peek() == Some(&Tok::LParen) {
                self.bump();
                let inner = self.cond()?;
                self.eat(&Tok::RParen)?;
                return Ok(Cond::Not(Box::new(inner)));
            }
            let inner = self.base_cond()?;
            return Ok(Cond::Not(Box::new(inner)));
        }
        // A parenthesized group may itself contain connectives:
        // `(a < b || c) && d`. Try a full condition group first.
        if self.peek() == Some(&Tok::LParen) {
            let checkpoint = self.pos;
            self.bump();
            if let Ok(inner) = self.cond() {
                if self.peek() == Some(&Tok::RParen) {
                    self.bump();
                    // Groups are conditions, not comparable expressions.
                    if !matches!(
                        self.peek(),
                        Some(Tok::EqEq)
                            | Some(Tok::NotEq)
                            | Some(Tok::Lt)
                            | Some(Tok::Le)
                            | Some(Tok::Gt)
                            | Some(Tok::Ge)
                            | Some(Tok::Dot)
                    ) {
                        return Ok(inner);
                    }
                }
            }
            self.pos = checkpoint; // fall back to expression parsing
        }
        let expr = self.expr()?;
        match expr {
            Expr::Cmp { pred, lhs, rhs } => Ok(Cond::Cmp { pred, lhs: *lhs, rhs: *rhs }),
            other => Ok(Cond::Truthy(other)),
        }
    }

    fn expr(&mut self) -> Result<Expr, FrontendError> {
        let lhs = self.simple_expr()?;
        let pred = match self.peek() {
            Some(Tok::EqEq) => Pred::Eq,
            Some(Tok::NotEq) => Pred::Ne,
            Some(Tok::Lt) => Pred::Lt,
            Some(Tok::Le) => Pred::Le,
            Some(Tok::Gt) => Pred::Gt,
            Some(Tok::Ge) => Pred::Ge,
            _ => return Ok(lhs),
        };
        self.bump();
        let rhs = self.simple_expr()?;
        Ok(Expr::Cmp { pred, lhs: Box::new(lhs), rhs: Box::new(rhs) })
    }

    fn simple_expr(&mut self) -> Result<Expr, FrontendError> {
        let mut expr = self.primary()?;
        while self.peek() == Some(&Tok::Dot) {
            self.bump();
            let field = self.eat_ident("field name")?;
            expr = Expr::Field { base: Box::new(expr), field };
        }
        Ok(expr)
    }

    fn primary(&mut self) -> Result<Expr, FrontendError> {
        let span = self.span();
        match self.peek().copied() {
            Some(Tok::Int(v)) => {
                self.bump();
                Ok(Expr::Int(v))
            }
            Some(Tok::True) => {
                self.bump();
                Ok(Expr::Bool(true))
            }
            Some(Tok::False) => {
                self.bump();
                Ok(Expr::Bool(false))
            }
            Some(Tok::Null) => {
                self.bump();
                Ok(Expr::Null)
            }
            Some(Tok::Random) => {
                self.bump();
                Ok(Expr::Random)
            }
            Some(Tok::LParen) => {
                self.bump();
                let inner = self.expr()?;
                self.eat(&Tok::RParen)?;
                Ok(inner)
            }
            Some(Tok::Ident(name)) => {
                self.bump();
                if self.peek() == Some(&Tok::LParen) {
                    self.call_tail(name)
                } else {
                    Ok(Expr::Var(name))
                }
            }
            Some(Tok::At) => {
                self.bump();
                let name = self.eat_ident("function name after `@`")?;
                Ok(Expr::FuncRef(name))
            }
            Some(t) => Err(FrontendError::at(span, format!("expected expression, found `{t}`"))),
            None => Err(FrontendError::msg("expected expression, found end of file")),
        }
    }

    /// Parses the argument list of a call whose callee name has already
    /// been consumed.
    fn call_tail(&mut self, callee: Sym) -> Result<Expr, FrontendError> {
        self.eat(&Tok::LParen)?;
        let mut args = Vec::new();
        while self.peek() != Some(&Tok::RParen) {
            args.push(self.expr()?);
            if self.peek() == Some(&Tok::Comma) {
                self.bump();
            } else {
                break;
            }
        }
        self.eat(&Tok::RParen)?;
        Ok(Expr::Call { callee, args })
    }
}

/// Parses a token stream into an [`AstModule`].
///
/// # Errors
///
/// Returns a positioned [`FrontendError`] on syntax errors.
pub fn parse(tokens: &[Token]) -> Result<AstModule, FrontendError> {
    let mut parser = Parser { tokens, pos: 0 };
    parser.module()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn parse_src(src: &str) -> Result<AstModule, FrontendError> {
        parse(&lex(src)?)
    }

    #[test]
    fn minimal_module() {
        let m = parse_src("module demo;").unwrap();
        assert_eq!(m.name, "demo");
        assert!(m.items.is_empty());
    }

    #[test]
    fn externs_and_functions() {
        let m = parse_src(
            "module demo; extern fn api; extern fn api2(a, b); weak fn h() { return; } fn f(x, y) { return x; }",
        )
        .unwrap();
        assert_eq!(m.items.len(), 4);
        assert!(matches!(&m.items[0], Item::Extern { name } if name == "api"));
        match &m.items[2] {
            Item::Func(f) => assert!(f.weak),
            _ => panic!(),
        }
        match &m.items[3] {
            Item::Func(f) => {
                assert_eq!(f.params, vec!["x", "y"]);
                assert!(!f.weak);
            }
            _ => panic!(),
        }
    }

    #[test]
    fn statements() {
        let m = parse_src(
            r#"module demo;
            fn f(dev) {
                assume dev != null;
                let v = reg_read(dev, 0x54);
                if (v <= 0) { goto exit; }
                inc_pmcount(dev);
            exit:
                return 0;
            }"#,
        )
        .unwrap();
        let Item::Func(f) = &m.items[0] else { panic!() };
        assert_eq!(f.body.len(), 6);
        assert!(matches!(f.body[0], Stmt::Assume { .. }));
        assert!(matches!(f.body[2], Stmt::If { .. }));
        assert!(matches!(&f.body[3], Stmt::ExprStmt { .. }));
        assert!(matches!(&f.body[4], Stmt::Label { name, .. } if name == "exit"));
    }

    #[test]
    fn else_if_chains() {
        let m = parse_src(
            "module m; fn f(x) { if (x < 0) { return -1; } else if (x > 0) { return 1; } else { return 0; } }",
        )
        .unwrap();
        let Item::Func(f) = &m.items[0] else { panic!() };
        let Stmt::If { els, .. } = &f.body[0] else { panic!() };
        assert_eq!(els.len(), 1);
        assert!(matches!(&els[0], Stmt::If { .. }));
    }

    #[test]
    fn conditions() {
        let m = parse_src(
            "module m; fn f(x) { if (x) { return; } if (!x) { return; } if (!(x == 3)) { return; } }",
        )
        .unwrap();
        let Item::Func(f) = &m.items[0] else { panic!() };
        assert!(matches!(&f.body[0], Stmt::If { cond: Cond::Truthy(_), .. }));
        assert!(matches!(&f.body[1], Stmt::If { cond: Cond::Not(_), .. }));
        let Stmt::If { cond: Cond::Not(inner), .. } = &f.body[2] else { panic!() };
        assert!(matches!(**inner, Cond::Cmp { pred: Pred::Eq, .. }));
    }

    #[test]
    fn field_chains_and_stores() {
        let m = parse_src("module m; fn f(s) { let a = s.dev.pm; s.dev.count = 0; return; }")
            .unwrap();
        let Item::Func(f) = &m.items[0] else { panic!() };
        let Stmt::Assign { expr, .. } = &f.body[0] else { panic!() };
        assert!(matches!(expr, Expr::Field { .. }));
        let Stmt::FieldStore { base, fields, .. } = &f.body[1] else { panic!() };
        assert_eq!(base, "s");
        assert_eq!(fields, &["dev", "count"]);
    }

    #[test]
    fn nested_call_arguments() {
        let m = parse_src("module m; fn f(x) { let a = g(h(x), x.dev, 3); return a; }").unwrap();
        let Item::Func(f) = &m.items[0] else { panic!() };
        let Stmt::Assign { expr: Expr::Call { args, .. }, .. } = &f.body[0] else { panic!() };
        assert_eq!(args.len(), 3);
        assert!(matches!(&args[0], Expr::Call { .. }));
        assert!(matches!(&args[1], Expr::Field { .. }));
    }

    #[test]
    fn while_loops() {
        let m = parse_src("module m; fn f(n) { while (n > 0) { step(); } return; }").unwrap();
        let Item::Func(f) = &m.items[0] else { panic!() };
        assert!(matches!(&f.body[0], Stmt::While { .. }));
    }

    #[test]
    fn logical_connectives_precedence() {
        // && binds tighter than ||: a || b && c == Or(a, And(b, c))
        let m = parse_src("module m; fn f(a, b, c) { if (a || b && c) { return 1; } return 0; }")
            .unwrap();
        let Item::Func(f) = &m.items[0] else { panic!() };
        let Stmt::If { cond: Cond::Or(lhs, rhs), .. } = &f.body[0] else {
            panic!("expected Or at top: {:?}", f.body[0])
        };
        assert!(matches!(**lhs, Cond::Truthy(_)));
        assert!(matches!(**rhs, Cond::And(..)));
    }

    #[test]
    fn parenthesized_condition_groups() {
        let m = parse_src(
            "module m; fn f(a, b, c) { if ((a || b) && c) { return 1; } return 0; }",
        )
        .unwrap();
        let Item::Func(f) = &m.items[0] else { panic!() };
        let Stmt::If { cond: Cond::And(lhs, _), .. } = &f.body[0] else {
            panic!("expected And at top: {:?}", f.body[0])
        };
        assert!(matches!(**lhs, Cond::Or(..)));
        // Parenthesized plain expressions still work in comparisons.
        assert!(parse_src("module m; fn f(a) { if ((a) < 3) { return 1; } return 0; }").is_ok());
    }

    #[test]
    fn negated_connective_groups() {
        let m = parse_src("module m; fn f(a, b) { if (!(a && b)) { return 1; } return 0; }")
            .unwrap();
        let Item::Func(f) = &m.items[0] else { panic!() };
        let Stmt::If { cond: Cond::Not(inner), .. } = &f.body[0] else { panic!() };
        assert!(matches!(**inner, Cond::And(..)));
    }

    #[test]
    fn func_ref_expressions() {
        let m = parse_src("module m; fn f(dev) { request_irq(dev.irq, @handler, dev); return 0; }")
            .unwrap();
        let Item::Func(f) = &m.items[0] else { panic!() };
        let Stmt::ExprStmt { expr: Expr::Call { args, .. }, .. } = &f.body[0] else {
            panic!()
        };
        assert!(matches!(&args[1], Expr::FuncRef(name) if name == "handler"));
        // Bare @ without an identifier is an error.
        assert!(parse_src("module m; fn f() { g(@); return; }").is_err());
    }

    #[test]
    fn syntax_errors_have_positions() {
        let err = parse_src("module m; fn f( { }").unwrap_err();
        assert!(err.span.is_some());
        let err = parse_src("module m; fn f() { let = 3; }").unwrap_err();
        assert!(err.to_string().contains("variable name"));
        assert!(parse_src("fn f() {}").is_err()); // missing module header
        assert!(parse_src("module m; fn f() { x + y; }").is_err()); // no arithmetic
    }
}
