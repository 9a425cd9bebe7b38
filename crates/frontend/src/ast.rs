//! Abstract syntax tree of RIL. Every name is an interned [`Sym`]: the
//! lexer interns each identifier once, and the parser and lowering only
//! copy handles.

use rid_ir::{Pred, Sym};

use crate::error::Span;

/// A parsed RIL module.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AstModule {
    /// Module name from the `module` header.
    pub name: Sym,
    /// Top-level items in source order.
    pub items: Vec<Item>,
}

/// A top-level item.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Item {
    /// `extern fn name;` — a function defined elsewhere (or known only by a
    /// predefined summary).
    Extern {
        /// Declared name.
        name: Sym,
    },
    /// A function definition.
    Func(AstFunc),
}

/// A function definition.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AstFunc {
    /// Function name.
    pub name: Sym,
    /// Formal parameter names.
    pub params: Vec<Sym>,
    /// Weak linkage (`weak fn …`, see §5.3 of the paper).
    pub weak: bool,
    /// Body statements.
    pub body: Vec<Stmt>,
    /// Position of the `fn` keyword.
    pub span: Span,
}

/// A statement.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Stmt {
    /// `let name = expr;` (also plain `name = expr;`).
    Assign {
        /// Destination variable.
        name: Sym,
        /// Right-hand side.
        expr: Expr,
        /// Source position.
        span: Span,
    },
    /// `base.f1.f2 = value;`
    FieldStore {
        /// Base variable.
        base: Sym,
        /// Field chain (at least one element).
        fields: Vec<Sym>,
        /// Stored value.
        value: Expr,
        /// Source position.
        span: Span,
    },
    /// `if (cond) { … } else { … }`
    If {
        /// Branch condition.
        cond: Cond,
        /// Then-branch statements.
        then: Vec<Stmt>,
        /// Else-branch statements (possibly empty).
        els: Vec<Stmt>,
        /// Source position.
        span: Span,
    },
    /// `while (cond) { … }`
    While {
        /// Loop condition.
        cond: Cond,
        /// Loop body.
        body: Vec<Stmt>,
        /// Source position.
        span: Span,
    },
    /// `return;` or `return expr;`
    Return {
        /// Returned value, if any.
        value: Option<Expr>,
        /// Source position.
        span: Span,
    },
    /// `goto label;`
    Goto {
        /// Target label.
        label: Sym,
        /// Source position.
        span: Span,
    },
    /// `label:` — only allowed in the function's outermost block.
    Label {
        /// Label name.
        name: Sym,
        /// Source position.
        span: Span,
    },
    /// `assume cond;` (also spelled `assert`).
    Assume {
        /// Assumed condition.
        cond: Cond,
        /// Source position.
        span: Span,
    },
    /// An expression statement (a call whose result is discarded).
    #[allow(clippy::enum_variant_names)]
    ExprStmt {
        /// The call expression.
        expr: Expr,
        /// Source position.
        span: Span,
    },
}

impl Stmt {
    /// The source position of the statement.
    #[must_use]
    #[allow(dead_code)] // useful for diagnostics; exercised in tests
    pub fn span(&self) -> Span {
        match self {
            Stmt::Assign { span, .. }
            | Stmt::FieldStore { span, .. }
            | Stmt::If { span, .. }
            | Stmt::While { span, .. }
            | Stmt::Return { span, .. }
            | Stmt::Goto { span, .. }
            | Stmt::Label { span, .. }
            | Stmt::Assume { span, .. }
            | Stmt::ExprStmt { span, .. } => *span,
        }
    }
}

/// An expression.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Expr {
    /// Integer literal.
    Int(i64),
    /// Boolean literal.
    Bool(bool),
    /// The null pointer literal.
    Null,
    /// Variable reference.
    Var(Sym),
    /// `base.field`.
    Field {
        /// Base expression (must bottom out in a variable).
        base: Box<Expr>,
        /// Field name.
        field: Sym,
    },
    /// `random` — a non-deterministic value.
    Random,
    /// `callee(args…)`.
    Call {
        /// Called function name.
        callee: Sym,
        /// Actual arguments.
        args: Vec<Expr>,
    },
    /// `lhs pred rhs`.
    Cmp {
        /// Comparison predicate.
        pred: Pred,
        /// Left operand.
        lhs: Box<Expr>,
        /// Right operand.
        rhs: Box<Expr>,
    },
    /// `@name` — a reference to a function, passed to callback
    /// registration APIs.
    FuncRef(Sym),
}

/// A branch condition.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Cond {
    /// A comparison.
    Cmp {
        /// Comparison predicate.
        pred: Pred,
        /// Left operand.
        lhs: Expr,
        /// Right operand.
        rhs: Expr,
    },
    /// Truthiness of an expression: `e` means `e != 0` (C semantics).
    Truthy(Expr),
    /// Logical negation.
    Not(Box<Cond>),
    /// Short-circuit conjunction `a && b`.
    And(Box<Cond>, Box<Cond>),
    /// Short-circuit disjunction `a || b`.
    Or(Box<Cond>, Box<Cond>),
}
