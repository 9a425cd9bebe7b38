//! The RIL lexer.

use std::fmt;

use rid_ir::Sym;

use crate::error::{FrontendError, Span};

/// A lexical token kind.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Tok {
    // Keywords
    Module,
    Extern,
    Weak,
    Fn,
    Let,
    If,
    Else,
    While,
    Return,
    Goto,
    Assume,
    Random,
    True,
    False,
    Null,
    // Literals and identifiers. Identifiers are interned as they are
    // lexed, so every later stage copies a 4-byte handle, not the text.
    Ident(Sym),
    Int(i64),
    // Punctuation
    LParen,
    RParen,
    LBrace,
    RBrace,
    Comma,
    Semi,
    Colon,
    Dot,
    Assign, // =
    Bang,   // !
    // Comparison operators
    EqEq,
    NotEq,
    Lt,
    Le,
    Gt,
    Ge,
    // Logical connectives (short-circuit, conditions only)
    AndAnd,
    OrOr,
    /// Function reference `@name` (used as a callback argument).
    At,
}

impl fmt::Display for Tok {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Tok::Module => "module",
            Tok::Extern => "extern",
            Tok::Weak => "weak",
            Tok::Fn => "fn",
            Tok::Let => "let",
            Tok::If => "if",
            Tok::Else => "else",
            Tok::While => "while",
            Tok::Return => "return",
            Tok::Goto => "goto",
            Tok::Assume => "assume",
            Tok::Random => "random",
            Tok::True => "true",
            Tok::False => "false",
            Tok::Null => "null",
            Tok::Ident(name) => return f.write_str(name.as_str()),
            Tok::Int(v) => return write!(f, "{v}"),
            Tok::LParen => "(",
            Tok::RParen => ")",
            Tok::LBrace => "{",
            Tok::RBrace => "}",
            Tok::Comma => ",",
            Tok::Semi => ";",
            Tok::Colon => ":",
            Tok::Dot => ".",
            Tok::Assign => "=",
            Tok::Bang => "!",
            Tok::EqEq => "==",
            Tok::NotEq => "!=",
            Tok::Lt => "<",
            Tok::Le => "<=",
            Tok::Gt => ">",
            Tok::Ge => ">=",
            Tok::AndAnd => "&&",
            Tok::OrOr => "||",
            Tok::At => "@",
        };
        f.write_str(s)
    }
}

/// A token with its source position.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Token {
    /// The token kind and payload.
    pub tok: Tok,
    /// Where the token starts.
    pub span: Span,
}

struct Cursor<'a> {
    src: &'a [u8],
    pos: usize,
    line: u32,
    /// Offset of the current line's first byte; a column is the 1-based
    /// byte offset from it, so only newlines cost bookkeeping.
    line_start: usize,
}

impl<'a> Cursor<'a> {
    fn peek(&self) -> Option<u8> {
        self.src.get(self.pos).copied()
    }

    fn peek2(&self) -> Option<u8> {
        self.src.get(self.pos + 1).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos += 1;
        if b == b'\n' {
            self.line += 1;
            self.line_start = self.pos;
        }
        Some(b)
    }

    /// Advances past the bytes `accept` takes; `accept` must reject `\n`.
    fn skip_while(&mut self, accept: impl Fn(u8) -> bool) {
        while self.src.get(self.pos).is_some_and(|&b| accept(b)) {
            self.pos += 1;
        }
    }

    fn span(&self) -> Span {
        Span::new(self.line, (self.pos - self.line_start + 1) as u32)
    }
}

fn keyword(word: &str) -> Option<Tok> {
    Some(match word {
        "module" => Tok::Module,
        "extern" => Tok::Extern,
        "weak" => Tok::Weak,
        "fn" => Tok::Fn,
        "let" => Tok::Let,
        "if" => Tok::If,
        "else" => Tok::Else,
        "while" => Tok::While,
        "return" => Tok::Return,
        "goto" => Tok::Goto,
        "assume" | "assert" => Tok::Assume,
        "random" => Tok::Random,
        "true" => Tok::True,
        "false" => Tok::False,
        "null" | "NULL" => Tok::Null,
        _ => return None,
    })
}

/// Tokenizes an RIL source string.
///
/// # Errors
///
/// Returns a positioned [`FrontendError`] on unknown characters, malformed
/// numbers, or unterminated block comments.
pub fn lex(source: &str) -> Result<Vec<Token>, FrontendError> {
    let mut cur = Cursor { src: source.as_bytes(), pos: 0, line: 1, line_start: 0 };
    let mut tokens = Vec::new();
    loop {
        // Skip whitespace and comments.
        loop {
            match cur.peek() {
                Some(b) if b.is_ascii_whitespace() => {
                    cur.bump();
                }
                Some(b'/') if cur.peek2() == Some(b'/') => {
                    cur.skip_while(|b| b != b'\n');
                }
                Some(b'/') if cur.peek2() == Some(b'*') => {
                    let start = cur.span();
                    cur.bump();
                    cur.bump();
                    loop {
                        match (cur.peek(), cur.peek2()) {
                            (Some(b'*'), Some(b'/')) => {
                                cur.bump();
                                cur.bump();
                                break;
                            }
                            (Some(_), _) => {
                                cur.bump();
                            }
                            (None, _) => {
                                return Err(FrontendError::at(
                                    start,
                                    "unterminated block comment",
                                ))
                            }
                        }
                    }
                }
                _ => break,
            }
        }
        let span = cur.span();
        let Some(b) = cur.peek() else { break };
        let tok = match b {
            b'(' => {
                cur.bump();
                Tok::LParen
            }
            b')' => {
                cur.bump();
                Tok::RParen
            }
            b'{' => {
                cur.bump();
                Tok::LBrace
            }
            b'}' => {
                cur.bump();
                Tok::RBrace
            }
            b',' => {
                cur.bump();
                Tok::Comma
            }
            b';' => {
                cur.bump();
                Tok::Semi
            }
            b':' => {
                cur.bump();
                Tok::Colon
            }
            b'.' => {
                cur.bump();
                Tok::Dot
            }
            b'=' => {
                cur.bump();
                if cur.peek() == Some(b'=') {
                    cur.bump();
                    Tok::EqEq
                } else {
                    Tok::Assign
                }
            }
            b'!' => {
                cur.bump();
                if cur.peek() == Some(b'=') {
                    cur.bump();
                    Tok::NotEq
                } else {
                    Tok::Bang
                }
            }
            b'<' => {
                cur.bump();
                if cur.peek() == Some(b'=') {
                    cur.bump();
                    Tok::Le
                } else {
                    Tok::Lt
                }
            }
            b'>' => {
                cur.bump();
                if cur.peek() == Some(b'=') {
                    cur.bump();
                    Tok::Ge
                } else {
                    Tok::Gt
                }
            }
            b'&' => {
                cur.bump();
                if cur.peek() == Some(b'&') {
                    cur.bump();
                    Tok::AndAnd
                } else {
                    return Err(FrontendError::at(span, "expected `&&`"));
                }
            }
            b'|' => {
                cur.bump();
                if cur.peek() == Some(b'|') {
                    cur.bump();
                    Tok::OrOr
                } else {
                    return Err(FrontendError::at(span, "expected `||`"));
                }
            }
            b'@' => {
                cur.bump();
                Tok::At
            }
            b'-' | b'0'..=b'9' => {
                let negative = b == b'-';
                if negative {
                    cur.bump();
                    if !cur.peek().is_some_and(|c| c.is_ascii_digit()) {
                        return Err(FrontendError::at(span, "expected digits after `-`"));
                    }
                }
                let mut value: i64 = 0;
                let mut hex = false;
                if cur.peek() == Some(b'0') && matches!(cur.peek2(), Some(b'x') | Some(b'X')) {
                    cur.bump();
                    cur.bump();
                    hex = true;
                }
                let mut any = false;
                while let Some(c) = cur.peek() {
                    let digit = match c {
                        b'0'..=b'9' => i64::from(c - b'0'),
                        b'a'..=b'f' if hex => i64::from(c - b'a' + 10),
                        b'A'..=b'F' if hex => i64::from(c - b'A' + 10),
                        b'_' => {
                            cur.bump();
                            continue;
                        }
                        _ => break,
                    };
                    any = true;
                    let base: i64 = if hex { 16 } else { 10 };
                    value = value
                        .checked_mul(base)
                        .and_then(|v| v.checked_add(digit))
                        .ok_or_else(|| FrontendError::at(span, "integer literal overflows"))?;
                    cur.bump();
                }
                if hex && !any {
                    return Err(FrontendError::at(span, "empty hex literal"));
                }
                Tok::Int(if negative { -value } else { value })
            }
            b'a'..=b'z' | b'A'..=b'Z' | b'_' => {
                let start = cur.pos;
                cur.skip_while(|c| c.is_ascii_alphanumeric() || c == b'_');
                // ASCII bytes only, so both ends are char boundaries.
                let word = &source[start..cur.pos];
                keyword(word).unwrap_or_else(|| Tok::Ident(Sym::new(word)))
            }
            other => {
                return Err(FrontendError::at(
                    span,
                    format!("unexpected character `{}`", other as char),
                ))
            }
        };
        tokens.push(Token { tok, span });
    }
    Ok(tokens)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toks(src: &str) -> Vec<Tok> {
        lex(src).unwrap().into_iter().map(|t| t.tok).collect()
    }

    #[test]
    fn keywords_and_idents() {
        assert_eq!(
            toks("module fn let devname"),
            vec![Tok::Module, Tok::Fn, Tok::Let, Tok::Ident(Sym::new("devname"))]
        );
        // `assert` is an alias for `assume`; `NULL` for `null`.
        assert_eq!(toks("assert NULL"), vec![Tok::Assume, Tok::Null]);
    }

    #[test]
    fn numbers() {
        assert_eq!(toks("0 42 -7 0x54 1_000"), vec![
            Tok::Int(0),
            Tok::Int(42),
            Tok::Int(-7),
            Tok::Int(0x54),
            Tok::Int(1000),
        ]);
    }

    #[test]
    fn operators() {
        assert_eq!(
            toks("== != <= >= < > = !"),
            vec![Tok::EqEq, Tok::NotEq, Tok::Le, Tok::Ge, Tok::Lt, Tok::Gt, Tok::Assign, Tok::Bang]
        );
    }

    #[test]
    fn comments_are_skipped() {
        let src = "a // line comment\n /* block\ncomment */ b";
        assert_eq!(toks(src), vec![Tok::Ident(Sym::new("a")), Tok::Ident(Sym::new("b"))]);
    }

    #[test]
    fn spans_track_lines() {
        let tokens = lex("a\n  b").unwrap();
        assert_eq!(tokens[0].span, Span::new(1, 1));
        assert_eq!(tokens[1].span, Span::new(2, 3));
    }

    #[test]
    fn logical_and_at_tokens() {
        assert_eq!(toks("&& || @h"), vec![
            Tok::AndAnd,
            Tok::OrOr,
            Tok::At,
            Tok::Ident(Sym::new("h")),
        ]);
        assert!(lex("&").is_err());
        assert!(lex("| x").is_err());
    }

    #[test]
    fn errors() {
        assert!(lex("^").is_err());
        assert!(lex("/* unterminated").is_err());
        assert!(lex("- x").is_err());
        assert!(lex("99999999999999999999").is_err());
    }

    #[test]
    fn display_of_tokens() {
        assert_eq!(Tok::Le.to_string(), "<=");
        assert_eq!(Tok::Ident(Sym::new("x")).to_string(), "x");
        assert_eq!(Tok::Int(-3).to_string(), "-3");
    }
}
