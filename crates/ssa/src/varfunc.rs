//! The pre-SSA variable IR.
//!
//! A [`VarFunction`] is a CFG whose instructions assign *named, mutable
//! variables* — the form a front end naturally produces before SSA
//! conversion. `pgvn-lang` lowers its AST to this form; `pgvn-ssa`'s
//! builder converts it to [`pgvn_ir::Function`] SSA.

use pgvn_ir::{BinOp, CmpOp, UnOp};
use std::fmt;

/// A mutable variable in a [`VarFunction`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Var(pub u32);

impl fmt::Display for Var {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "x{}", self.0)
    }
}

/// An expression tree over variables.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum VarExpr {
    /// An integer literal.
    Const(i64),
    /// A variable read.
    Var(Var),
    /// A unary operation.
    Unary(UnOp, Box<VarExpr>),
    /// A binary operation.
    Binary(BinOp, Box<VarExpr>, Box<VarExpr>),
    /// A comparison (yields 0/1).
    Cmp(CmpOp, Box<VarExpr>, Box<VarExpr>),
    /// An opaque unknown value with a token (models a call/load).
    Opaque(u32),
}

impl VarExpr {
    /// Visits every variable read in the expression.
    pub fn visit_vars(&self, f: &mut impl FnMut(Var)) {
        match self {
            VarExpr::Const(_) | VarExpr::Opaque(_) => {}
            VarExpr::Var(v) => f(*v),
            VarExpr::Unary(_, a) => a.visit_vars(f),
            VarExpr::Binary(_, a, b) | VarExpr::Cmp(_, a, b) => {
                a.visit_vars(f);
                b.visit_vars(f);
            }
        }
    }
}

/// A non-terminator statement.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum VarStmt {
    /// `var = expr`.
    Assign(Var, VarExpr),
    /// Evaluate an expression for its (opaque) effect, discarding the
    /// result. Lowered from expression statements.
    Eval(VarExpr),
}

/// A block terminator.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum VarTerm {
    /// Unconditional jump to a block index.
    Jump(usize),
    /// Branch: first target when the expression is nonzero.
    Branch(VarExpr, usize, usize),
    /// Multi-way branch: `(case value, target)` pairs plus a default.
    Switch(VarExpr, Vec<(i64, usize)>, usize),
    /// Return an expression's value.
    Return(VarExpr),
}

/// A basic block of the variable IR.
#[derive(Clone, Debug, Default)]
pub struct VarBlock {
    /// Statements in execution order.
    pub stmts: Vec<VarStmt>,
    /// The terminator; `None` while under construction.
    pub term: Option<VarTerm>,
}

/// A routine over mutable variables; block 0 is the entry.
///
/// Parameters are ordinary variables pre-assigned from the routine
/// arguments on entry. Every variable reads as 0 before its first
/// assignment (documented total semantics; see `DESIGN.md`).
#[derive(Clone, Debug)]
pub struct VarFunction {
    name: String,
    var_names: Vec<String>,
    param_vars: Vec<Var>,
    blocks: Vec<VarBlock>,
}

impl VarFunction {
    /// Creates a routine whose parameters are fresh variables named after
    /// `params`. Block 0 (the entry) is created.
    pub fn new(name: impl Into<String>, params: &[&str]) -> Self {
        let mut f = VarFunction {
            name: name.into(),
            var_names: Vec::new(),
            param_vars: Vec::new(),
            blocks: vec![VarBlock::default()],
        };
        for p in params {
            let v = f.add_var(*p);
            f.param_vars.push(v);
        }
        f
    }

    /// The routine name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The parameter variables, in order.
    pub fn param_vars(&self) -> &[Var] {
        &self.param_vars
    }

    /// The number of variables.
    pub fn num_vars(&self) -> usize {
        self.var_names.len()
    }

    /// The diagnostic name of `v`.
    pub fn var_name(&self, v: Var) -> &str {
        &self.var_names[v.0 as usize]
    }

    /// Declares a fresh variable.
    pub fn add_var(&mut self, name: impl Into<String>) -> Var {
        let v = Var(self.var_names.len() as u32);
        self.var_names.push(name.into());
        v
    }

    /// Appends a fresh empty block and returns its index.
    pub fn add_block(&mut self) -> usize {
        self.blocks.push(VarBlock::default());
        self.blocks.len() - 1
    }

    /// The number of blocks.
    pub fn num_blocks(&self) -> usize {
        self.blocks.len()
    }

    /// The block at `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn block(&self, index: usize) -> &VarBlock {
        &self.blocks[index]
    }

    /// Appends `stmt` to block `b`.
    ///
    /// # Panics
    ///
    /// Panics if the block is already terminated.
    pub fn push(&mut self, b: usize, stmt: VarStmt) {
        assert!(self.blocks[b].term.is_none(), "block {b} is terminated");
        self.blocks[b].stmts.push(stmt);
    }

    /// Appends `var = expr` to block `b`.
    pub fn assign(&mut self, b: usize, var: Var, expr: VarExpr) {
        self.push(b, VarStmt::Assign(var, expr));
    }

    /// Sets the terminator of block `b`.
    ///
    /// # Panics
    ///
    /// Panics if the block is already terminated or a target is invalid.
    pub fn terminate(&mut self, b: usize, term: VarTerm) {
        assert!(self.blocks[b].term.is_none(), "block {b} is terminated");
        let check = |t: usize| assert!(t < self.blocks.len(), "jump target {t} out of range");
        match &term {
            VarTerm::Jump(t) => check(*t),
            VarTerm::Branch(_, t, e) => {
                check(*t);
                check(*e);
            }
            VarTerm::Switch(_, cases, d) => {
                for &(_, t) in cases {
                    check(t);
                }
                check(*d);
            }
            VarTerm::Return(_) => {}
        }
        self.blocks[b].term = Some(term);
    }

    /// Successor block indices of `b` (none for returns), in edge order.
    pub fn succs(&self, b: usize) -> impl Iterator<Item = usize> + '_ {
        let (cases, rest): (&[(i64, usize)], [Option<usize>; 2]) = match &self.blocks[b].term {
            Some(VarTerm::Jump(t)) => (&[], [Some(*t), None]),
            Some(VarTerm::Branch(_, t, e)) => (&[], [Some(*t), Some(*e)]),
            Some(VarTerm::Switch(_, cases, d)) => (cases, [Some(*d), None]),
            Some(VarTerm::Return(_)) | None => (&[], [None, None]),
        };
        cases.iter().map(|&(_, t)| t).chain(rest.into_iter().flatten())
    }

    /// Checks that every block reachable from the entry is terminated.
    ///
    /// # Errors
    ///
    /// Returns the index of the first reachable unterminated block.
    pub fn validate(&self) -> Result<(), usize> {
        let mut seen = vec![false; self.blocks.len()];
        let mut stack = vec![0usize];
        seen[0] = true;
        while let Some(b) = stack.pop() {
            if self.blocks[b].term.is_none() {
                return Err(b);
            }
            for s in self.succs(b) {
                if !seen[s] {
                    seen[s] = true;
                    stack.push(s);
                }
            }
        }
        Ok(())
    }
}

/// Shorthand constructors for [`VarExpr`] trees.
pub mod expr {
    use super::{Var, VarExpr};
    use pgvn_ir::{BinOp, CmpOp, UnOp};

    /// Integer literal.
    pub fn c(v: i64) -> VarExpr {
        VarExpr::Const(v)
    }
    /// Variable read.
    pub fn v(x: Var) -> VarExpr {
        VarExpr::Var(x)
    }
    /// Binary operation.
    pub fn bin(op: BinOp, a: VarExpr, b: VarExpr) -> VarExpr {
        VarExpr::Binary(op, Box::new(a), Box::new(b))
    }
    /// Addition.
    pub fn add(a: VarExpr, b: VarExpr) -> VarExpr {
        bin(BinOp::Add, a, b)
    }
    /// Subtraction.
    pub fn sub(a: VarExpr, b: VarExpr) -> VarExpr {
        bin(BinOp::Sub, a, b)
    }
    /// Multiplication.
    pub fn mul(a: VarExpr, b: VarExpr) -> VarExpr {
        bin(BinOp::Mul, a, b)
    }
    /// Comparison.
    pub fn cmp(op: CmpOp, a: VarExpr, b: VarExpr) -> VarExpr {
        VarExpr::Cmp(op, Box::new(a), Box::new(b))
    }
    /// Unary operation.
    pub fn un(op: UnOp, a: VarExpr) -> VarExpr {
        VarExpr::Unary(op, Box::new(a))
    }
}

#[cfg(test)]
mod tests {
    use super::expr::*;
    use super::*;
    use pgvn_ir::CmpOp;

    #[test]
    fn build_and_validate() {
        let mut f = VarFunction::new("f", &["a", "b"]);
        let (a, b) = (f.param_vars()[0], f.param_vars()[1]);
        let t = f.add_block();
        let e = f.add_block();
        f.terminate(0, VarTerm::Branch(cmp(CmpOp::Lt, v(a), v(b)), t, e));
        f.terminate(t, VarTerm::Return(v(a)));
        f.terminate(e, VarTerm::Return(v(b)));
        assert_eq!(f.validate(), Ok(()));
        assert_eq!(f.succs(0).collect::<Vec<_>>(), vec![t, e]);
        assert_eq!(f.succs(t).count(), 0);
        assert_eq!(f.var_name(a), "a");
        assert_eq!(f.num_blocks(), 3);
    }

    #[test]
    fn validate_reports_unterminated_reachable_block() {
        let mut f = VarFunction::new("f", &[]);
        let b = f.add_block();
        f.terminate(0, VarTerm::Jump(b));
        assert_eq!(f.validate(), Err(b));
    }

    #[test]
    fn unreachable_unterminated_block_is_fine() {
        let mut f = VarFunction::new("f", &[]);
        let _orphan = f.add_block();
        f.terminate(0, VarTerm::Return(c(0)));
        assert_eq!(f.validate(), Ok(()));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn jump_target_validated() {
        let mut f = VarFunction::new("f", &[]);
        f.terminate(0, VarTerm::Jump(99));
    }

    #[test]
    fn visit_vars_covers_tree() {
        let mut f = VarFunction::new("f", &["a"]);
        let a = f.param_vars()[0];
        let b = f.add_var("b");
        let e = add(mul(v(a), c(2)), cmp(CmpOp::Eq, v(b), v(a)));
        let mut seen = Vec::new();
        e.visit_vars(&mut |x| seen.push(x));
        assert_eq!(seen, vec![a, b, a]);
    }
}
