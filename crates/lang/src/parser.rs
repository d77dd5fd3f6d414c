//! Recursive-descent parser for the pgvn source language.
//!
//! Grammar (statements):
//!
//! ```text
//! routine   := "routine" IDENT "(" [IDENT ("," IDENT)*] ")" block
//! block     := "{" stmt* "}"
//! stmt      := IDENT "=" expr ";"
//!            | "if" "(" expr ")" stmt-or-block ["else" stmt-or-block]
//!            | "while" "(" expr ")" stmt-or-block
//!            | "do" stmt-or-block "while" "(" expr ")" ";"
//!            | "break" ";" | "continue" ";" | "return" expr ";"
//!            | expr ";"
//! ```
//!
//! Expression precedence, loosest first: `||`, `&&`, `|`, `^`, `&`,
//! equality, relational, shifts, additive, multiplicative, unary. Binary
//! operators are parsed by precedence climbing over [`infix`]'s table;
//! every level is left-associative.
//!
//! Nesting is bounded by [`MAX_NESTING`], so the recursive stages after
//! the parser (lowering, SSA flattening, dropping the AST) run in bounded
//! stack on any input.

use crate::ast::{Expr, Routine, Stmt};
use crate::token::{lex, LexError, Token};
use pgvn_ir::{BinOp, CmpOp, UnOp};
use std::error::Error;
use std::fmt;

/// A parse error with a line number.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based source line (0 at end of input).
    pub line: u32,
    /// Description of the problem.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "parse error at line {}: {}", self.line, self.message)
    }
}

impl Error for ParseError {}

impl From<LexError> for ParseError {
    fn from(e: LexError) -> Self {
        ParseError { line: e.line, message: e.message }
    }
}

/// The deepest nesting [`parse`] accepts. Statement bodies, brackets,
/// prefix operators and pending binary operators each open one level,
/// and an expression's operator height counts on top of the levels open
/// around it, so a 300-term `a + a + … + a` chain is as deep as 300
/// nested brackets. Deeper input is a [`ParseError`].
///
/// The deepest routine the generator makes is a 300-statement one whose
/// closing checksum is a left-deep chain, at about 95; the paper
/// fixtures and examples stay under 70. At this bound every stage of the
/// path runs on a default 2 MiB thread stack, unoptimised builds too.
pub const MAX_NESTING: usize = 256;

/// What an infix operator builds.
#[derive(Clone, Copy)]
enum Infix {
    Or,
    And,
    Bin(BinOp),
    Cmp(CmpOp),
}

/// The binding power of an infix token (higher binds tighter).
fn infix(t: &Token) -> Option<(u8, Infix)> {
    Some(match t {
        Token::OrOr => (1, Infix::Or),
        Token::AndAnd => (2, Infix::And),
        Token::Pipe => (3, Infix::Bin(BinOp::Or)),
        Token::Caret => (4, Infix::Bin(BinOp::Xor)),
        Token::Amp => (5, Infix::Bin(BinOp::And)),
        Token::EqEq => (6, Infix::Cmp(CmpOp::Eq)),
        Token::NotEq => (6, Infix::Cmp(CmpOp::Ne)),
        Token::Lt => (7, Infix::Cmp(CmpOp::Lt)),
        Token::Le => (7, Infix::Cmp(CmpOp::Le)),
        Token::Gt => (7, Infix::Cmp(CmpOp::Gt)),
        Token::Ge => (7, Infix::Cmp(CmpOp::Ge)),
        Token::Shl => (8, Infix::Bin(BinOp::Shl)),
        Token::Shr => (8, Infix::Bin(BinOp::Shr)),
        Token::Plus => (9, Infix::Bin(BinOp::Add)),
        Token::Minus => (9, Infix::Bin(BinOp::Sub)),
        Token::Star => (10, Infix::Bin(BinOp::Mul)),
        Token::Slash => (10, Infix::Bin(BinOp::Div)),
        Token::Percent => (10, Infix::Bin(BinOp::Rem)),
        _ => return None,
    })
}

struct Parser {
    toks: Vec<(Token, u32)>,
    pos: usize,
    /// Auto-assigned tokens for `opaque()` with no argument.
    next_opaque: u32,
    /// Nesting levels currently open (see [`MAX_NESTING`]).
    depth: usize,
    /// Loop bodies currently open; `break` and `continue` need one.
    loops: usize,
}

impl Parser {
    fn peek(&self) -> Option<&Token> {
        self.toks.get(self.pos).map(|(t, _)| t)
    }

    fn line(&self) -> u32 {
        self.toks
            .get(self.pos)
            .map(|&(_, l)| l)
            .unwrap_or_else(|| self.toks.last().map(|&(_, l)| l).unwrap_or(0))
    }

    fn error(&self, message: impl Into<String>) -> ParseError {
        ParseError { line: self.line(), message: message.into() }
    }

    /// Moves the current token out; consumed tokens are never read
    /// again, so a cheap placeholder is left behind.
    fn bump(&mut self) -> Option<Token> {
        let t = self.toks.get_mut(self.pos).map(|(t, _)| std::mem::replace(t, Token::Semi));
        self.pos += 1;
        t
    }

    fn too_deep(&self) -> ParseError {
        self.error(format!("nesting deeper than {MAX_NESTING} levels"))
    }

    /// Runs `f` one nesting level deeper.
    fn nested<T>(
        &mut self,
        f: impl FnOnce(&mut Self) -> Result<T, ParseError>,
    ) -> Result<T, ParseError> {
        if self.depth == MAX_NESTING {
            return Err(self.too_deep());
        }
        self.depth += 1;
        let r = f(self);
        self.depth -= 1;
        r
    }

    /// Checks an expression node of operator height `height` against
    /// the levels open around it.
    fn fits(&self, height: usize) -> Result<usize, ParseError> {
        if self.depth + height > MAX_NESTING {
            return Err(self.too_deep());
        }
        Ok(height)
    }

    fn eat(&mut self, want: &Token) -> Result<(), ParseError> {
        match self.peek() {
            Some(t) if t == want => {
                self.pos += 1;
                Ok(())
            }
            Some(t) => Err(self.error(format!("expected `{want}`, found `{t}`"))),
            None => Err(self.error(format!("expected `{want}`, found end of input"))),
        }
    }

    fn at(&mut self, want: &Token) -> bool {
        if self.peek() == Some(want) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn ident(&mut self) -> Result<String, ParseError> {
        match self.bump() {
            Some(Token::Ident(s)) => Ok(s),
            Some(t) => Err(ParseError {
                line: self.toks[self.pos - 1].1,
                message: format!("expected identifier, found `{t}`"),
            }),
            None => Err(self.error("expected identifier, found end of input")),
        }
    }

    fn routine(&mut self) -> Result<Routine, ParseError> {
        self.eat(&Token::Routine)?;
        let name = self.ident()?;
        self.eat(&Token::LParen)?;
        let mut params = Vec::new();
        if self.peek() != Some(&Token::RParen) {
            loop {
                params.push(self.ident()?);
                if !self.at(&Token::Comma) {
                    break;
                }
            }
        }
        self.eat(&Token::RParen)?;
        let body = self.block()?;
        Ok(Routine { name, params, body })
    }

    fn block(&mut self) -> Result<Vec<Stmt>, ParseError> {
        self.eat(&Token::LBrace)?;
        let mut stmts = Vec::new();
        while self.peek() != Some(&Token::RBrace) {
            if self.peek().is_none() {
                return Err(self.error("unterminated block"));
            }
            stmts.push(self.stmt()?);
        }
        self.eat(&Token::RBrace)?;
        Ok(stmts)
    }

    fn stmt_or_block(&mut self) -> Result<Vec<Stmt>, ParseError> {
        self.nested(|p| match p.peek() {
            Some(Token::LBrace) => p.block(),
            _ => Ok(vec![p.stmt()?]),
        })
    }

    /// A `while`/`do` body: `break` and `continue` are allowed inside.
    fn loop_body(&mut self) -> Result<Vec<Stmt>, ParseError> {
        self.loops += 1;
        let body = self.stmt_or_block();
        self.loops -= 1;
        body
    }

    fn stmt(&mut self) -> Result<Stmt, ParseError> {
        match self.peek() {
            Some(Token::If) => {
                self.pos += 1;
                self.eat(&Token::LParen)?;
                let cond = self.expr()?;
                self.eat(&Token::RParen)?;
                let then = self.stmt_or_block()?;
                let otherwise =
                    if self.at(&Token::Else) { self.stmt_or_block()? } else { Vec::new() };
                Ok(Stmt::If(cond, then, otherwise))
            }
            Some(Token::While) => {
                self.pos += 1;
                self.eat(&Token::LParen)?;
                let cond = self.expr()?;
                self.eat(&Token::RParen)?;
                let body = self.loop_body()?;
                Ok(Stmt::While(cond, body))
            }
            Some(Token::Do) => {
                self.pos += 1;
                let body = self.loop_body()?;
                self.eat(&Token::While)?;
                self.eat(&Token::LParen)?;
                let cond = self.expr()?;
                self.eat(&Token::RParen)?;
                self.eat(&Token::Semi)?;
                Ok(Stmt::DoWhile(body, cond))
            }
            Some(Token::Switch) => {
                self.pos += 1;
                self.switch()
            }
            Some(Token::Break) if self.loops == 0 => Err(self.error("`break` outside a loop")),
            Some(Token::Continue) if self.loops == 0 => {
                Err(self.error("`continue` outside a loop"))
            }
            Some(Token::Break) => {
                self.pos += 1;
                self.eat(&Token::Semi)?;
                Ok(Stmt::Break)
            }
            Some(Token::Continue) => {
                self.pos += 1;
                self.eat(&Token::Semi)?;
                Ok(Stmt::Continue)
            }
            Some(Token::Return) => {
                self.pos += 1;
                let e = self.expr()?;
                self.eat(&Token::Semi)?;
                Ok(Stmt::Return(e))
            }
            Some(Token::Ident(_))
                if self.toks.get(self.pos + 1).map(|(t, _)| t) == Some(&Token::Assign) =>
            {
                let name = self.ident()?;
                self.eat(&Token::Assign)?;
                let e = self.expr()?;
                self.eat(&Token::Semi)?;
                Ok(Stmt::Assign(name, e))
            }
            Some(_) => {
                let e = self.expr()?;
                self.eat(&Token::Semi)?;
                Ok(Stmt::Expr(e))
            }
            None => Err(self.error("expected statement, found end of input")),
        }
    }

    /// The rest of a `switch` statement after the keyword.
    fn switch(&mut self) -> Result<Stmt, ParseError> {
        self.eat(&Token::LParen)?;
        let scrutinee = self.expr()?;
        self.eat(&Token::RParen)?;
        self.eat(&Token::LBrace)?;
        let mut cases: Vec<(i64, Vec<Stmt>)> = Vec::new();
        let mut default = Vec::new();
        let mut saw_default = false;
        loop {
            match self.peek() {
                Some(Token::Case) => {
                    self.pos += 1;
                    let neg = self.at(&Token::Minus);
                    let raw = match self.bump() {
                        Some(Token::Int(v)) => v,
                        _ => return Err(self.error("expected integer case value")),
                    };
                    let value = if neg { raw.wrapping_neg() } else { raw };
                    if cases.iter().any(|&(c, _)| c == value) {
                        return Err(self.error(format!("duplicate case value {value}")));
                    }
                    self.eat(&Token::Colon)?;
                    cases.push((value, self.stmt_or_block()?));
                }
                Some(Token::Default) => {
                    if saw_default {
                        return Err(self.error("duplicate default case"));
                    }
                    self.pos += 1;
                    self.eat(&Token::Colon)?;
                    default = self.stmt_or_block()?;
                    saw_default = true;
                }
                Some(Token::RBrace) => {
                    self.pos += 1;
                    break;
                }
                _ => return Err(self.error("expected `case`, `default` or `}` in switch")),
            }
        }
        Ok(Stmt::Switch(scrutinee, cases, default))
    }

    fn expr(&mut self) -> Result<Expr, ParseError> {
        Ok(self.climb(0)?.0)
    }

    /// Precedence climbing: parses a unary operand followed by every
    /// infix operator binding tighter than `min_bp`. Returns the
    /// expression with its operator height.
    fn climb(&mut self, min_bp: u8) -> Result<(Expr, usize), ParseError> {
        let (mut lhs, mut height) = self.unary()?;
        while let Some((bp, op)) = self.peek().and_then(infix) {
            if bp <= min_bp {
                break;
            }
            self.pos += 1;
            let (rhs, rhs_height) = self.nested(|p| p.climb(bp))?;
            height = self.fits(1 + height.max(rhs_height))?;
            let (l, r) = (Box::new(lhs), Box::new(rhs));
            lhs = match op {
                Infix::Or => Expr::LogicalOr(l, r),
                Infix::And => Expr::LogicalAnd(l, r),
                Infix::Bin(op) => Expr::Binary(op, l, r),
                Infix::Cmp(op) => Expr::Cmp(op, l, r),
            };
        }
        Ok((lhs, height))
    }

    fn unary(&mut self) -> Result<(Expr, usize), ParseError> {
        let wrap: fn(Box<Expr>) -> Expr = match self.peek() {
            Some(Token::Minus) => |e| Expr::Unary(UnOp::Neg, e),
            Some(Token::Tilde) => |e| Expr::Unary(UnOp::Not, e),
            Some(Token::Bang) => Expr::LogicalNot,
            _ => return self.primary(),
        };
        self.pos += 1;
        let (e, height) = self.nested(Self::unary)?;
        Ok((wrap(Box::new(e)), self.fits(height + 1)?))
    }

    fn primary(&mut self) -> Result<(Expr, usize), ParseError> {
        let leaf = match self.bump() {
            Some(Token::Int(v)) => Expr::Int(v),
            Some(Token::True) => Expr::Int(1),
            Some(Token::False) => Expr::Int(0),
            Some(Token::Ident(s)) => Expr::Var(s),
            Some(Token::Opaque) => {
                self.eat(&Token::LParen)?;
                let token = if self.peek() == Some(&Token::RParen) {
                    let t = self.next_opaque;
                    self.next_opaque += 1;
                    t
                } else {
                    match self.bump() {
                        Some(Token::Int(v)) if (0..=u32::MAX as i64).contains(&v) => v as u32,
                        _ => {
                            return Err(
                                self.error("opaque() takes a small non-negative integer token")
                            )
                        }
                    }
                };
                self.eat(&Token::RParen)?;
                Expr::Opaque(token)
            }
            Some(Token::LParen) => {
                let inner = self.nested(|p| p.climb(0))?;
                self.eat(&Token::RParen)?;
                return Ok(inner);
            }
            Some(t) => {
                return Err(ParseError {
                    line: self.toks[self.pos - 1].1,
                    message: format!("expected expression, found `{t}`"),
                })
            }
            None => return Err(self.error("expected expression, found end of input")),
        };
        Ok((leaf, 0))
    }
}

/// Parses a single routine from source text.
///
/// # Errors
///
/// Returns a [`ParseError`] describing the first lexical or syntactic
/// problem.
///
/// # Examples
///
/// ```
/// let r = pgvn_lang::parse("routine id(x) { return x; }")?;
/// assert_eq!(r.name, "id");
/// assert_eq!(r.params, vec!["x".to_string()]);
/// # Ok::<(), pgvn_lang::ParseError>(())
/// ```
pub fn parse(src: &str) -> Result<Routine, ParseError> {
    let toks = lex(src)?;
    let mut p = Parser { toks, pos: 0, next_opaque: 1_000_000, depth: 0, loops: 0 };
    let r = p.routine()?;
    if p.pos != p.toks.len() {
        return Err(p.error("trailing input after routine"));
    }
    Ok(r)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_minimal_routine() {
        let r = parse("routine f() { return 0; }").unwrap();
        assert_eq!(r.name, "f");
        assert!(r.params.is_empty());
        assert_eq!(r.body, vec![Stmt::Return(Expr::Int(0))]);
    }

    #[test]
    fn break_and_continue_need_an_enclosing_loop() {
        for (src, line, what) in [
            ("routine f(a) { break; return a; }", 1, "`break` outside a loop"),
            ("routine f(a) {\n  if (a) {\n    continue;\n  }\n  return a; }", 3, "`continue`"),
            ("routine f(a) { while (a) { a = a - 1; } break; }", 1, "`break`"),
            ("routine f(a) { switch (a) { case 1: break; } return a; }", 1, "`break`"),
        ] {
            let e = parse(src).expect_err(src);
            assert_eq!(e.line, line, "{src}");
            assert!(e.message.starts_with(what), "{src}: {}", e.message);
        }
        // Inside any loop body — nested in an `if` or a `switch` too.
        for src in [
            "routine f(a) { while (a) { break; } return a; }",
            "routine f(a) { do { if (a) { continue; } a = 0; } while (a); return a; }",
            "routine f(a) { while (a) { switch (a) { case 1: break; } a = 0; } return a; }",
            "routine f(a) { while (a) { while (a) { a = 0; } continue; } return a; }",
        ] {
            assert!(parse(src).is_ok(), "{src}");
        }
    }

    #[test]
    fn parses_params_and_assignment() {
        let r = parse("routine f(a, b) { c = a + b; return c; }").unwrap();
        assert_eq!(r.params, vec!["a", "b"]);
        match &r.body[0] {
            Stmt::Assign(name, Expr::Binary(BinOp::Add, _, _)) => assert_eq!(name, "c"),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn precedence_mul_over_add() {
        let r = parse("routine f(a) { return 1 + a * 2; }").unwrap();
        match &r.body[0] {
            Stmt::Return(Expr::Binary(BinOp::Add, l, rr)) => {
                assert_eq!(**l, Expr::Int(1));
                assert!(matches!(**rr, Expr::Binary(BinOp::Mul, _, _)));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn precedence_cmp_over_logical() {
        let r = parse("routine f(a, b) { return a < 1 && b > 2; }").unwrap();
        match &r.body[0] {
            Stmt::Return(Expr::LogicalAnd(l, rr)) => {
                assert!(matches!(**l, Expr::Cmp(CmpOp::Lt, _, _)));
                assert!(matches!(**rr, Expr::Cmp(CmpOp::Gt, _, _)));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn if_else_and_loops() {
        let src = "routine f(n) {
            i = 0;
            while (i < n) {
                if (i == 3) break; else i = i + 1;
            }
            do { i = i - 1; } while (i > 0);
            return i;
        }";
        let r = parse(src).unwrap();
        assert_eq!(r.body.len(), 4);
        assert!(matches!(r.body[1], Stmt::While(_, _)));
        assert!(matches!(r.body[2], Stmt::DoWhile(_, _)));
    }

    #[test]
    fn dangling_else_binds_to_nearest_if() {
        let r =
            parse("routine f(a,b) { if (a) if (b) return 1; else return 2; return 3; }").unwrap();
        match &r.body[0] {
            Stmt::If(_, then, outer_else) => {
                assert!(outer_else.is_empty());
                match &then[0] {
                    Stmt::If(_, _, inner_else) => assert_eq!(inner_else.len(), 1),
                    other => panic!("{other:?}"),
                }
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn opaque_with_and_without_token() {
        let r = parse("routine f() { a = opaque(7); b = opaque(); return a + b; }").unwrap();
        match (&r.body[0], &r.body[1]) {
            (Stmt::Assign(_, Expr::Opaque(7)), Stmt::Assign(_, Expr::Opaque(t))) => {
                assert!(*t >= 1_000_000);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn unary_operators() {
        let r = parse("routine f(a) { return -a + ~a + !a; }").unwrap();
        assert!(matches!(r.body[0], Stmt::Return(_)));
    }

    #[test]
    fn true_false_literals() {
        let r = parse("routine f() { while (true) { break; } return false; }").unwrap();
        assert!(matches!(&r.body[0], Stmt::While(Expr::Int(1), _)));
        assert!(matches!(&r.body[1], Stmt::Return(Expr::Int(0))));
    }

    #[test]
    fn error_messages_carry_lines() {
        let e = parse("routine f() {\n  x = ;\n}").unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.to_string().contains("expected expression"));
        let e2 = parse("routine f() { return 0; } extra").unwrap_err();
        assert!(e2.message.contains("trailing"));
    }

    #[test]
    fn expression_statement() {
        let r = parse("routine f() { opaque(3); return 0; }").unwrap();
        assert!(matches!(&r.body[0], Stmt::Expr(Expr::Opaque(3))));
    }
}

#[cfg(test)]
mod error_tests {
    use super::*;

    fn err(src: &str) -> String {
        parse(src).unwrap_err().to_string()
    }

    #[test]
    fn switch_error_paths() {
        assert!(err("routine f(x) { switch (x) { case y: { } } return 0; }")
            .contains("integer case value"));
        assert!(err("routine f(x) { switch (x) { default: {} default: {} } return 0; }")
            .contains("duplicate default"));
        assert!(err("routine f(x) { switch (x) { banana } return 0; }").contains("expected `case`"));
        assert!(
            err("routine f(x) { switch (x) { case 1 { } } return 0; }").contains("expected `:`")
        );
    }

    #[test]
    fn structural_error_paths() {
        assert!(err("routine f( { return 0; }").contains("expected identifier"));
        assert!(err("routine f() { return 0 }").contains("expected `;`"));
        assert!(err("routine f() { if return 0; }").contains("expected `(`"));
        assert!(err("routine f() { do { } }").contains("expected `while`"));
        assert!(err("routine f() {").contains("unterminated block"));
        assert!(err("routine f() { opaque(x); return 0; }").contains("non-negative integer token"));
    }

    #[test]
    fn missing_routine_keyword() {
        assert!(err("fn f() {}").contains("expected `routine`"));
    }

    #[test]
    fn empty_input() {
        assert!(err("").contains("end of input"));
    }
}
