//! # rid-frontend — the RIL language
//!
//! The RID paper analyzes LLVM bitcode, but its analysis consumes only the
//! *abstract program* of Figure 3. RIL ("RID Intermediate Language") is a
//! small C-like surface language that lowers exactly onto that abstraction,
//! replacing the LLVM toolchain in this reproduction (see `DESIGN.md`).
//!
//! ## Language tour
//!
//! ```text
//! module usb_drivers;
//!
//! extern fn pm_runtime_get_sync;      // summary supplied externally (§5.1)
//! extern fn pm_runtime_put_sync;
//!
//! fn usb_autopm_get_interface(intf) {
//!     let status = pm_runtime_get_sync(intf.dev);
//!     if (status < 0) {
//!         pm_runtime_put_sync(intf.dev);
//!     }
//!     if (status > 0) {
//!         status = 0;
//!     }
//!     return status;
//! }
//!
//! fn idmouse_open(inode, file) {
//!     let result = usb_autopm_get_interface(inode.intf);
//!     if (result) { goto error; }
//!     result = idmouse_create_image(inode.dev);
//!     if (result) { goto error; }
//!     usb_autopm_put_interface(inode.intf);
//! error:
//!     return result;
//! }
//! ```
//!
//! Statements: `let`, assignment, field store, `if`/`else`, `while`,
//! `return`, `goto`/labels (kernel-style error paths; labels live in the
//! function's outermost block), `assume`/`assert`, and expression calls.
//! Expressions: integer/bool/`null` literals, variables, field chains,
//! `random` (a non-deterministic read, e.g. a device register), calls and
//! comparisons. There is deliberately **no arithmetic** — refcounts are
//! changed only through API calls, exactly as the paper's abstraction
//! assumes (§4.1).
//!
//! Conditions may be comparisons (`a < b`), negations (`!c`), bare
//! expressions (truthiness, i.e. `e != 0`, matching C), or parenthesised
//! conditions.
//!
//! ## Entry points
//!
//! ```
//! let src = r#"
//!     module demo;
//!     fn answer() { return 42; }
//! "#;
//! let module = rid_frontend::parse_module(src)?;
//! assert_eq!(module.functions().len(), 1);
//! # Ok::<(), rid_frontend::FrontendError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod ast;
mod error;
mod lexer;
mod lower;
mod parser;
#[cfg(test)]
mod proptests;

pub use error::{FrontendError, Span};

use rid_ir::{Module, Program, ProgramError};

/// Parses one RIL source file into an IR [`Module`].
///
/// # Errors
///
/// Returns a [`FrontendError`] with position information on lexical,
/// syntactic or lowering errors.
pub fn parse_module(source: &str) -> Result<Module, FrontendError> {
    let mut span = rid_obs::span(rid_obs::SpanKind::Lower, "module");
    let tokens = lexer::lex(source)?;
    let ast = parser::parse(&tokens)?;
    let module = lower::lower_module(&ast)?;
    span.set_value(module.functions().len() as u64);
    Ok(module)
}

/// Parses several RIL sources one by one, as the iterator is advanced.
/// An error names the offending source's index, the way
/// [`parse_program`]'s errors do.
pub fn parse_sources<'a, I: IntoIterator<Item = &'a str>>(
    sources: I,
) -> impl Iterator<Item = Result<Module, FrontendError>> + use<'a, I> {
    sources
        .into_iter()
        .enumerate()
        .map(|(index, source)| parse_module(source).map_err(|e| e.in_source(index)))
}

/// Parses several RIL sources and links them into a [`Program`]
/// (weak-symbol merging per §5.3 of the paper).
///
/// # Errors
///
/// Returns the first frontend error, or a link error on duplicate strong
/// definitions. The offending source's index is included in the message.
pub fn parse_program<'a>(
    sources: impl IntoIterator<Item = &'a str>,
) -> Result<Program, FrontendError> {
    let mut program = Program::new();
    for (index, module) in parse_sources(sources).enumerate() {
        program.link(module?).map_err(|e: ProgramError| FrontendError::link(index, &e))?;
    }
    Ok(program)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_program_links_modules() {
        let a = "module a; fn f() { g(); return; }";
        let b = "module b; fn g() { return; }";
        let p = parse_program([a, b]).unwrap();
        assert_eq!(p.function_count(), 2);
    }

    #[test]
    fn parse_program_reports_duplicate() {
        let a = "module a; fn f() { return; }";
        let b = "module b; fn f() { return; }";
        let err = parse_program([a, b]).unwrap_err();
        assert!(err.to_string().contains('f'));
    }
}
