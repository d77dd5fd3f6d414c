//! Symbolic evaluation (§2.2): constant folding, algebraic
//! simplification, global reassociation into rank-ordered sums of
//! products, canonical comparisons, and the §6 φ-distribution extension.

use super::*;
use std::borrow::Cow;

impl Run<'_, '_, '_, '_> {
    /// The leader of `v`'s class as an expression; `None` while ⊥.
    pub(super) fn leader_expr(&mut self, v: Value) -> Option<ExprId> {
        match self.classes.leader(self.classes.class_of(v)) {
            Leader::Undetermined => None,
            Leader::Const(c) => Some(self.interner.constant(c)),
            Leader::Value(l) => Some(self.interner.leader(l)),
        }
    }

    /// An operand of an ordinary expression: leader, refined by value
    /// inference at the containing block (Figure 4 line 25).
    pub(super) fn operand_expr(&mut self, v: Value, b: Block) -> Option<ExprId> {
        if self.cfg.value_inference && !self.cfg.sccp_only {
            self.infer_value_at_block(v, b)
        } else {
            self.leader_expr(v)
        }
    }

    /// The linear form of an operand expression, honouring forward
    /// propagation through the defining expression of its class (§2.2).
    /// A spliced defining expression is borrowed from the interner.
    pub(super) fn linear_of(&self, e: ExprId) -> Cow<'_, LinearExpr> {
        if let Some(c) = self.interner.as_const(e) {
            return Cow::Owned(LinearExpr::from_const(c));
        }
        if let Some(v) = self.interner.as_value(e) {
            // Forward propagation: splice in the defining expression of
            // the operand's class when it is itself linear.
            let class = self.classes.class_of(v);
            if let Some(def_e) = self.classes.expression(class) {
                if let ExprKind::Linear(l) = self.interner.kind(def_e) {
                    return Cow::Borrowed(l);
                }
            }
            return Cow::Owned(LinearExpr::from_value(v));
        }
        // Compound non-linear expression: if it names a class, use its
        // leader as an atom; otherwise it cannot appear inside a linear
        // form and the caller falls back to an opaque Op node.
        if let Some(class) = self.classes.lookup(e) {
            if let Leader::Value(l) = self.classes.leader(class) {
                return Cow::Owned(LinearExpr::from_value(l));
            }
            if let Leader::Const(c) = self.classes.leader(class) {
                return Cow::Owned(LinearExpr::from_const(c));
            }
        }
        Cow::Owned(LinearExpr::default())
    }

    /// Interns a linear expression, demoting to `Const`/`Leader` leaves.
    pub(super) fn finish_linear(&mut self, l: LinearExpr) -> ExprId {
        if let Some(c) = l.as_const() {
            self.interner.constant(c)
        } else if let Some(v) = l.as_single_value() {
            self.interner.leader(v)
        } else {
            self.interner.intern(ExprKind::Linear(l))
        }
    }

    /// Symbolically evaluates `inst` (whose result value is `v`, checked
    /// by the caller so missing results are a recoverable invariant
    /// failure rather than a panic) in block `b`.
    pub(super) fn evaluate(&mut self, inst: Inst, v: Value, b: Block) -> Option<ExprId> {
        let func = self.func;
        let result = match *func.kind(inst) {
            InstKind::Const(c) => Some(self.interner.constant(c)),
            InstKind::Param(_) => Some(self.interner.intern(ExprKind::Unique(v))),
            InstKind::Opaque(t) => Some(self.interner.intern(ExprKind::Opaque(t))),
            InstKind::Copy(a) => self.operand_expr(a, b),
            InstKind::Unary(op, a) => {
                let ae = self.operand_expr(a, b)?;
                Some(self.eval_unary(op, ae))
            }
            InstKind::Binary(op, a, b2) => {
                let ae = self.operand_expr(a, b)?;
                let be = self.operand_expr(b2, b)?;
                Some(self.eval_binary(op, ae, be))
            }
            InstKind::Cmp(op, a, b2) => {
                let ae = self.operand_expr(a, b)?;
                let be = self.operand_expr(b2, b)?;
                if self.cfg.phi_op_distribution {
                    if let Some(e) = self.try_phi_distribution(PhiOp::Compare(op), ae, be, 0) {
                        return Some(e);
                    }
                }
                let cmp = self.eval_cmp(op, ae, be);
                Some(self.apply_predicate_inference(cmp, b))
            }
            InstKind::Phi(ref args) => self.eval_phi(v, b, args),
            InstKind::Jump | InstKind::Branch(_) | InstKind::Switch(..) | InstKind::Return(_) => {
                unreachable!()
            }
        };
        // SCCP emulation: non-constants are bottom (§2.9).
        match result {
            Some(e) if self.cfg.sccp_only && self.interner.as_const(e).is_none() => {
                Some(self.interner.intern(ExprKind::Unique(v)))
            }
            other => other,
        }
    }

    pub(super) fn eval_unary(&mut self, op: UnOp, ae: ExprId) -> ExprId {
        if self.cfg.constant_folding {
            if let Some(c) = self.interner.as_const(ae) {
                return self.interner.constant(op.eval(c));
            }
        }
        if self.cfg.global_reassociation {
            let l = self.linear_of(ae);
            let folded = match op {
                UnOp::Neg => l.neg(),
                // ~x == -x - 1 in two's complement.
                UnOp::Not => l.neg().add(&LinearExpr::from_const(-1)),
            };
            if folded.size() <= self.cfg.forward_propagation_limit {
                return self.finish_linear(folded);
            }
        }
        self.interner.intern(ExprKind::Un(op, ae))
    }

    pub(super) fn eval_binary(&mut self, op: BinOp, ae: ExprId, be: ExprId) -> ExprId {
        let consts = (self.interner.as_const(ae), self.interner.as_const(be));
        if self.cfg.constant_folding {
            if let (Some(x), Some(y)) = consts {
                // The oracle's self-test knob: folded additions are off by
                // one, so the translation validator has a real (injected)
                // miscompile to catch. See `GvnConfig::debug_miscompile`.
                let bias = i64::from(self.cfg.debug_miscompile && op == BinOp::Add);
                return self.interner.constant(op.eval(x, y).wrapping_add(bias));
            }
        }
        if self.cfg.phi_op_distribution {
            if let Some(e) = self.try_phi_distribution(PhiOp::Bin(op), ae, be, 0) {
                return e;
            }
        }
        if self.cfg.global_reassociation {
            if let Some(e) = self.eval_reassociated(op, ae, be) {
                return e;
            }
        }
        if self.cfg.algebraic_simplification {
            if let Some(e) = self.eval_identities(op, ae, be, consts) {
                return e;
            }
        }
        // Commutative canonicalization is part of the commutative law,
        // i.e. global reassociation (§1.3) — not plain simplification.
        let (ae, be) = if self.cfg.global_reassociation && op.is_commutative() {
            self.ordered_pair(ae, be)
        } else {
            (ae, be)
        };
        self.interner.intern_list(ListOp::Op(op), &[ae, be])
    }

    /// The §6 extension: distributes an operation over φ expressions with
    /// identical keys (same block, or congruent block predicates), and
    /// over (φ, scalar) pairs. The resulting expression names the value
    /// `φ(a₁ op b₁, …)`, which is exactly what a real φ over the
    /// per-edge results would compute — so values built either way become
    /// congruent (Figure 14).
    pub(super) fn try_phi_distribution(
        &mut self,
        op: PhiOp,
        ae: ExprId,
        be: ExprId,
        depth: u32,
    ) -> Option<ExprId> {
        const MAX_DEPTH: u32 = 4;
        if depth > MAX_DEPTH {
            return None;
        }
        let phi_parts = |run: &Self, e: ExprId| -> Option<(PhiKey, Vec<ExprId>)> {
            let v = run.interner.as_value(e)?;
            let class = run.classes.class_of(v);
            match run.interner.kind(run.classes.expression(class)?) {
                ExprKind::Phi(key, args) => Some((*key, args.clone())),
                _ => None,
            }
        };
        let scalar = |run: &Self, e: ExprId| -> bool {
            run.interner.as_const(e).is_some()
                || matches!(
                    run.interner.kind(e),
                    ExprKind::Leader(_) | ExprKind::Unique(_) | ExprKind::Opaque(_)
                )
        };
        let (key, pairs): (PhiKey, Vec<(ExprId, ExprId)>) =
            match (phi_parts(self, ae), phi_parts(self, be)) {
                (Some((ka, aa)), Some((kb, ba))) if ka == kb && aa.len() == ba.len() => {
                    (ka, aa.into_iter().zip(ba).collect())
                }
                (Some((ka, aa)), None) if scalar(self, be) => {
                    (ka, aa.into_iter().map(|a| (a, be)).collect())
                }
                (None, Some((kb, ba))) if scalar(self, ae) => {
                    (kb, ba.into_iter().map(|b| (ae, b)).collect())
                }
                _ => return None,
            };
        if pairs.is_empty() || pairs.len() > 8 {
            return None;
        }
        let mut combined = Vec::with_capacity(pairs.len());
        for (a, b) in pairs {
            let c = match op {
                PhiOp::Bin(bop) => {
                    // Recurse through nested φs of the arguments.
                    if let Some(e) = self.try_phi_distribution(op, a, b, depth + 1) {
                        e
                    } else if self.interner.as_const(a).is_some()
                        && self.interner.as_const(b).is_some()
                    {
                        self.eval_binary(bop, a, b)
                    } else if self.cfg.global_reassociation
                        && matches!(bop, BinOp::Add | BinOp::Sub | BinOp::Mul)
                    {
                        let l = self.combine_linear(bop, a, b)?;
                        self.finish_linear(l)
                    } else {
                        return None; // keep distribution conservative
                    }
                }
                PhiOp::Compare(cop) => {
                    let e = self.eval_cmp(cop, a, b);
                    self.interner.as_const(e)?;
                    e
                }
            };
            // Normalize to the class leader so the distributed φ hashes
            // identically to a real φ over the same per-edge values.
            combined.push(self.leader_normalized(c));
        }
        if let [first, rest @ ..] = &combined[..] {
            if rest.iter().all(|c| c == first) {
                return Some(*first);
            }
        }
        let d = self.interner.intern(ExprKind::Phi(key, combined));
        if depth > 0 {
            return Some(d);
        }
        // At the top level, adopt the distributed form only when it names
        // an existing congruence class (i.e. an actual φ computed the same
        // per-edge results); otherwise fall back to standard evaluation so
        // the linear reassociation chains are not derailed.
        self.classes.lookup(d).is_some().then_some(d)
    }

    /// Rewrites an expression to its congruence class's leader expression
    /// when the class is known.
    pub(super) fn leader_normalized(&mut self, e: ExprId) -> ExprId {
        if self.interner.as_const(e).is_some() {
            return e;
        }
        let class = match self.class_of_expr(e) {
            Some(c) => c,
            None => return e,
        };
        match self.classes.leader(class) {
            Leader::Const(c) => self.interner.constant(c),
            Leader::Value(l) => self.interner.leader(l),
            Leader::Undetermined => e,
        }
    }

    /// Reassociation of +, −, ×, and shifts by constants (§2.2).
    pub(super) fn eval_reassociated(
        &mut self,
        op: BinOp,
        ae: ExprId,
        be: ExprId,
    ) -> Option<ExprId> {
        let folded = match op {
            BinOp::Add | BinOp::Sub | BinOp::Mul => self.combine_linear(op, ae, be),
            BinOp::Shl => {
                let k = self.interner.as_const(be)?;
                if !(0..64).contains(&k) {
                    return None;
                }
                let la = self.linear_of(ae);
                Some(la.scale(1i64.wrapping_shl(k as u32)))
            }
            _ => None,
        }?;
        Some(self.finish_linear(folded))
    }

    pub(super) fn combine_linear(
        &mut self,
        op: BinOp,
        ae: ExprId,
        be: ExprId,
    ) -> Option<LinearExpr> {
        let limit = self.cfg.forward_propagation_limit;
        let apply = |la: &LinearExpr, lb: &LinearExpr, rank_of: &[u32]| match op {
            BinOp::Add => la.add(lb),
            BinOp::Sub => la.sub(lb),
            BinOp::Mul => la.mul(lb, &|v: Value| rank_of[v.index()]),
            _ => unreachable!("combine_linear handles +, -, ×"),
        };
        let out = apply(&self.linear_of(ae), &self.linear_of(be), self.rank_of);
        if out.size() <= limit {
            return Some(out);
        }
        // Forward propagation cancelled (§2.2 footnote 4): retry with the
        // operands as atoms instead of their defining expressions.
        self.stats.reassoc_cap_hits += 1;
        let la = atomic_linear(self.interner, ae)?;
        let lb = atomic_linear(self.interner, be)?;
        let out = apply(&la, &lb, self.rank_of);
        (out.size() <= limit).then_some(out)
    }

    /// Local algebraic identities for non-reassociable operators.
    pub(super) fn eval_identities(
        &mut self,
        op: BinOp,
        ae: ExprId,
        be: ExprId,
        consts: (Option<i64>, Option<i64>),
    ) -> Option<ExprId> {
        let (ca, cb) = consts;
        let e = match (op, ca, cb) {
            (BinOp::Add, Some(0), _) => be,
            (BinOp::Add, _, Some(0)) => ae,
            (BinOp::Sub, _, Some(0)) => ae,
            (BinOp::Sub, _, _) if ae == be => self.interner.constant(0),
            (BinOp::Mul, Some(1), _) => be,
            (BinOp::Mul, _, Some(1)) => ae,
            (BinOp::Mul, Some(0), _) | (BinOp::Mul, _, Some(0)) => self.interner.constant(0),
            (BinOp::Div, _, Some(1)) => ae,
            (BinOp::Div, Some(0), _) => self.interner.constant(0),
            // Total semantics: x / 0 == 0 and x % 0 == 0 (DESIGN.md).
            (BinOp::Div, _, Some(0)) | (BinOp::Rem, _, Some(0)) => self.interner.constant(0),
            (BinOp::Rem, _, Some(1)) => self.interner.constant(0),
            (BinOp::Rem, _, _) if ae == be => self.interner.constant(0),
            (BinOp::And, _, Some(0)) | (BinOp::And, Some(0), _) => self.interner.constant(0),
            (BinOp::And, _, Some(-1)) => ae,
            (BinOp::And, Some(-1), _) => be,
            (BinOp::And, _, _) | (BinOp::Or, _, _) if ae == be => ae,
            (BinOp::Or, _, Some(0)) => ae,
            (BinOp::Or, Some(0), _) => be,
            (BinOp::Or, _, Some(-1)) | (BinOp::Or, Some(-1), _) => self.interner.constant(-1),
            (BinOp::Xor, _, Some(0)) => ae,
            (BinOp::Xor, Some(0), _) => be,
            (BinOp::Xor, _, _) if ae == be => self.interner.constant(0),
            (BinOp::Shl, _, Some(0)) | (BinOp::Shr, _, Some(0)) => ae,
            (BinOp::Shl, Some(0), _) | (BinOp::Shr, Some(0), _) => self.interner.constant(0),
            _ => return None,
        };
        Some(e)
    }

    /// A canonical sort key for predicate/commutative operand ordering:
    /// constants first (rank 0), then values by rank, then compound
    /// expressions (§2.2, §2.8).
    pub(super) fn operand_key(&self, e: ExprId) -> (u8, u32, u32) {
        if self.interner.as_const(e).is_some() {
            (0, 0, e.index() as u32)
        } else if let Some(v) = self.interner.as_value(e) {
            (1, self.rank(v), v.as_u32())
        } else {
            (2, 0, e.index() as u32)
        }
    }

    pub(super) fn ordered_pair(&self, a: ExprId, b: ExprId) -> (ExprId, ExprId) {
        if self.operand_key(a) <= self.operand_key(b) {
            (a, b)
        } else {
            (b, a)
        }
    }

    /// Canonical comparison evaluation (shared by instruction evaluation
    /// and edge-predicate maintenance).
    pub(super) fn eval_cmp(&mut self, op: CmpOp, ae: ExprId, be: ExprId) -> ExprId {
        if self.cfg.constant_folding {
            if let (Some(x), Some(y)) = (self.interner.as_const(ae), self.interner.as_const(be)) {
                return self.interner.constant(op.eval(x, y));
            }
        }
        if self.cfg.algebraic_simplification && ae == be {
            // Same canonical operand on both sides.
            return self.interner.constant(op.holds_on_equal() as i64);
        }
        // Canonical comparison-operand order is required by the predicate
        // machinery (§2.8) and counts as a commutative-law rewrite
        // otherwise; pure AWZ emulation turns it off.
        let canonicalize = self.cfg.global_reassociation
            || self.cfg.algebraic_simplification
            || self.preds_enabled();
        let (op, ae, be) = if !canonicalize || self.operand_key(ae) <= self.operand_key(be) {
            (op, ae, be)
        } else {
            (op.swapped(), be, ae)
        };
        self.interner.intern(ExprKind::Cmp(op, ae, be))
    }
}

pub(super) fn atomic_linear(interner: &Interner, e: ExprId) -> Option<LinearExpr> {
    if let Some(c) = interner.as_const(e) {
        Some(LinearExpr::from_const(c))
    } else {
        interner.as_value(e).map(LinearExpr::from_value)
    }
}

/// The operation being distributed over φs by the §6 extension.
#[derive(Clone, Copy)]
pub(super) enum PhiOp {
    Bin(BinOp),
    Compare(CmpOp),
}
