//! Lowering from the AST to the mutable-variable CFG ([`VarFunction`]).
//!
//! Structured control flow becomes explicit blocks and edges:
//! `if`/`else` produces a diamond, `while` a header-guarded loop (branch at
//! the top), `do`-`while` a bottom-tested loop — the "until" shape whose
//! effect on predicate/value inference the paper discusses in §3.
//! `break`/`continue` jump to the innermost loop's exit/continue blocks.
//!
//! A routine that falls off the end returns 0.

use crate::ast::{Expr, Routine, Stmt};
use pgvn_ir::CmpOp;
use pgvn_ssa::{Var, VarExpr, VarFunction, VarStmt, VarTerm};
use std::collections::HashMap;

struct Lowerer<'a> {
    vf: VarFunction,
    /// Variables by source name, keyed by the AST's own strings.
    vars: HashMap<&'a str, Var>,
    /// (continue target, break target) per enclosing loop.
    loops: Vec<(usize, usize)>,
    cur: usize,
    /// Set once the current block has been terminated; subsequent
    /// statements in the same source block land in a fresh unreachable
    /// block (classic dead-code-after-break handling).
    done: bool,
}

impl<'a> Lowerer<'a> {
    fn var(&mut self, name: &'a str) -> Var {
        *self.vars.entry(name).or_insert_with(|| self.vf.add_var(name))
    }

    fn fresh_block_if_done(&mut self) {
        if self.done {
            self.cur = self.vf.add_block();
            self.done = false;
        }
    }

    fn terminate(&mut self, term: VarTerm) {
        self.vf.terminate(self.cur, term);
        self.done = true;
    }

    fn expr(&mut self, e: &'a Expr) -> VarExpr {
        match e {
            Expr::Int(v) => VarExpr::Const(*v),
            Expr::Var(name) => VarExpr::Var(self.var(name)),
            Expr::Unary(op, a) => VarExpr::Unary(*op, Box::new(self.expr(a))),
            Expr::Binary(op, a, b) => {
                VarExpr::Binary(*op, Box::new(self.expr(a)), Box::new(self.expr(b)))
            }
            Expr::Cmp(op, a, b) => {
                VarExpr::Cmp(*op, Box::new(self.expr(a)), Box::new(self.expr(b)))
            }
            Expr::LogicalNot(a) => {
                let av = self.expr(a);
                VarExpr::Cmp(CmpOp::Eq, Box::new(av), Box::new(VarExpr::Const(0)))
            }
            Expr::LogicalAnd(a, b) => {
                let av = self.truth(a);
                let bv = self.truth(b);
                VarExpr::Binary(pgvn_ir::BinOp::And, Box::new(av), Box::new(bv))
            }
            Expr::LogicalOr(a, b) => {
                let av = self.truth(a);
                let bv = self.truth(b);
                VarExpr::Binary(pgvn_ir::BinOp::Or, Box::new(av), Box::new(bv))
            }
            Expr::Opaque(t) => VarExpr::Opaque(*t),
        }
    }

    /// Lowers `e` to a 0/1 truth value, skipping the `!= 0` normalization
    /// when the lowered expression is already a comparison.
    fn truth(&mut self, e: &'a Expr) -> VarExpr {
        let v = self.expr(e);
        match v {
            VarExpr::Cmp(..) => v,
            VarExpr::Const(c) => VarExpr::Const((c != 0) as i64),
            other => VarExpr::Cmp(CmpOp::Ne, Box::new(other), Box::new(VarExpr::Const(0))),
        }
    }

    fn stmts(&mut self, stmts: &'a [Stmt]) {
        for s in stmts {
            self.stmt(s);
        }
    }

    fn stmt(&mut self, s: &'a Stmt) {
        self.fresh_block_if_done();
        match s {
            Stmt::Assign(name, e) => {
                let ve = self.expr(e);
                let var = self.var(name);
                self.vf.assign(self.cur, var, ve);
            }
            Stmt::Expr(e) => {
                let ve = self.expr(e);
                self.vf.push(self.cur, VarStmt::Eval(ve));
            }
            Stmt::Return(e) => {
                let ve = self.expr(e);
                self.terminate(VarTerm::Return(ve));
            }
            Stmt::Break => {
                let (_, brk) = *self.loops.last().expect("break outside loop");
                self.terminate(VarTerm::Jump(brk));
            }
            Stmt::Continue => {
                let (cont, _) = *self.loops.last().expect("continue outside loop");
                self.terminate(VarTerm::Jump(cont));
            }
            Stmt::If(cond, then, otherwise) => {
                let cv = self.expr(cond);
                let then_b = self.vf.add_block();
                let join = self.vf.add_block();
                let else_b = if otherwise.is_empty() { join } else { self.vf.add_block() };
                self.terminate(VarTerm::Branch(cv, then_b, else_b));
                self.cur = then_b;
                self.done = false;
                self.stmts(then);
                if !self.done {
                    self.terminate(VarTerm::Jump(join));
                }
                if !otherwise.is_empty() {
                    self.cur = else_b;
                    self.done = false;
                    self.stmts(otherwise);
                    if !self.done {
                        self.terminate(VarTerm::Jump(join));
                    }
                }
                self.cur = join;
                self.done = false;
            }
            Stmt::While(cond, body) => {
                let head = self.vf.add_block();
                let body_b = self.vf.add_block();
                let exit = self.vf.add_block();
                self.terminate(VarTerm::Jump(head));
                self.cur = head;
                self.done = false;
                let cv = self.expr(cond);
                self.terminate(VarTerm::Branch(cv, body_b, exit));
                self.cur = body_b;
                self.done = false;
                self.loops.push((head, exit));
                self.stmts(body);
                self.loops.pop();
                if !self.done {
                    self.terminate(VarTerm::Jump(head));
                }
                self.cur = exit;
                self.done = false;
            }
            Stmt::Switch(scrutinee, cases, default) => {
                let sv = self.expr(scrutinee);
                let join = self.vf.add_block();
                let mut case_targets: Vec<(i64, usize)> = Vec::new();
                let mut bodies: Vec<(usize, &Vec<Stmt>)> = Vec::new();
                for (value, body) in cases {
                    let blk = self.vf.add_block();
                    case_targets.push((*value, blk));
                    bodies.push((blk, body));
                }
                let default_blk = if default.is_empty() {
                    join
                } else {
                    let blk = self.vf.add_block();
                    bodies.push((blk, default));
                    blk
                };
                self.terminate(VarTerm::Switch(sv, case_targets, default_blk));
                for (blk, body) in bodies {
                    self.cur = blk;
                    self.done = false;
                    self.stmts(body);
                    if !self.done {
                        self.terminate(VarTerm::Jump(join));
                    }
                }
                self.cur = join;
                self.done = false;
            }
            Stmt::DoWhile(body, cond) => {
                let body_b = self.vf.add_block();
                let check = self.vf.add_block();
                let exit = self.vf.add_block();
                self.terminate(VarTerm::Jump(body_b));
                self.cur = body_b;
                self.done = false;
                self.loops.push((check, exit));
                self.stmts(body);
                self.loops.pop();
                if !self.done {
                    self.terminate(VarTerm::Jump(check));
                }
                self.cur = check;
                self.done = false;
                let cv = self.expr(cond);
                self.terminate(VarTerm::Branch(cv, body_b, exit));
                self.cur = exit;
                self.done = false;
            }
        }
    }
}

/// Lowers a parsed routine to the mutable-variable CFG.
///
/// # Panics
///
/// Panics on `break`/`continue` outside a loop (rejecting these
/// syntactically would require scope tracking in the parser; the lowering
/// treats them as programming errors in the input).
pub fn lower(routine: &Routine) -> VarFunction {
    let param_refs: Vec<&str> = routine.params.iter().map(String::as_str).collect();
    let vf = VarFunction::new(routine.name.clone(), &param_refs);
    let vars =
        routine.params.iter().map(String::as_str).zip(vf.param_vars().iter().copied()).collect();
    let mut l = Lowerer { vf, vars, loops: Vec::new(), cur: 0, done: false };
    l.stmts(&routine.body);
    if !l.done {
        l.terminate(VarTerm::Return(VarExpr::Const(0)));
    }
    l.vf
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;
    use pgvn_ir::{HashedOpaques, Interpreter};
    use pgvn_ssa::{build_ssa, SsaStyle};

    fn run(src: &str, args: &[i64]) -> i64 {
        let r = parse(src).unwrap();
        let vf = lower(&r);
        let f = build_ssa(&vf, SsaStyle::Minimal).unwrap();
        pgvn_analysis::assert_ssa(&f);
        Interpreter::new(&f).run(args, &mut HashedOpaques::new(0)).unwrap()
    }

    #[test]
    fn arithmetic_and_precedence() {
        assert_eq!(run("routine f(a, b) { return a + b * 2; }", &[3, 4]), 11);
        assert_eq!(run("routine f(a) { return (a + 1) * (a - 1); }", &[5]), 24);
        assert_eq!(run("routine f(a) { return -a; }", &[9]), -9);
        assert_eq!(run("routine f() { return 7 / 2 + 7 % 2; }", &[]), 4);
    }

    #[test]
    fn comparisons_and_logic() {
        assert_eq!(run("routine f(a) { return a < 10 && a > 0; }", &[5]), 1);
        assert_eq!(run("routine f(a) { return a < 10 && a > 0; }", &[-5]), 0);
        assert_eq!(run("routine f(a) { return !a; }", &[0]), 1);
        assert_eq!(run("routine f(a) { return !a; }", &[3]), 0);
        assert_eq!(run("routine f(a, b) { return a == 1 || b == 1; }", &[0, 1]), 1);
    }

    #[test]
    fn if_else_chains() {
        let src = "routine sign(x) {
            if (x > 0) { return 1; }
            else if (x < 0) { return -1; }
            return 0;
        }";
        assert_eq!(run(src, &[42]), 1);
        assert_eq!(run(src, &[-42]), -1);
        assert_eq!(run(src, &[0]), 0);
    }

    #[test]
    fn while_loop_with_break_continue() {
        let src = "routine f(n) {
            s = 0;
            i = 0;
            while (true) {
                i = i + 1;
                if (i > n) break;
                if (i % 2 == 0) continue;
                s = s + i;
            }
            return s;
        }";
        assert_eq!(run(src, &[5]), 9); // 1 + 3 + 5
        assert_eq!(run(src, &[0]), 0);
    }

    #[test]
    fn do_while_executes_at_least_once() {
        let src = "routine f(n) {
            c = 0;
            do { c = c + 1; } while (c < n);
            return c;
        }";
        assert_eq!(run(src, &[3]), 3);
        assert_eq!(run(src, &[-5]), 1);
    }

    #[test]
    fn nested_loops() {
        let src = "routine f(a, b) {
            s = 0;
            i = 0;
            while (i < a) {
                j = 0;
                while (j < b) { s = s + 1; j = j + 1; }
                i = i + 1;
            }
            return s;
        }";
        assert_eq!(run(src, &[4, 6]), 24);
    }

    #[test]
    fn fall_off_end_returns_zero() {
        assert_eq!(run("routine f(a) { b = a; }", &[5]), 0);
    }

    #[test]
    fn dead_code_after_return_is_tolerated() {
        assert_eq!(run("routine f() { return 1; x = 2; return x; }", &[]), 1);
    }

    #[test]
    fn unassigned_variable_reads_zero() {
        assert_eq!(run("routine f() { return ghost + 1; }", &[]), 1);
    }

    #[test]
    #[should_panic(expected = "break outside loop")]
    fn break_outside_loop_panics() {
        let r = parse("routine f() { break; return 0; }").unwrap();
        let _ = lower(&r);
    }

    #[test]
    fn opaque_is_stable_within_a_run() {
        assert_eq!(run("routine f() { return opaque(9) - opaque(9); }", &[]), 0);
    }

    #[test]
    fn paper_figure1_routine_returns_one() {
        // The paper's Figure 1 routine R: it always returns 1 (the GVN
        // algorithm later proves this statically; here we just execute it).
        let src = crate::fixtures::FIGURE1;
        for args in
            [[0, 0, 0], [5, 5, 9], [3, 3, -4], [9, 9, 100], [1, 2, 3], [-7, -7, 50], [12, 12, 2]]
        {
            assert_eq!(run(src, &args), 1, "args {args:?}");
        }
    }
}
