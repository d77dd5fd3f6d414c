//! φ-predication (§2.8, Figure 8): block predicates as canonical
//! OR-of-AND path formulas between a block and its immediate dominator,
//! plus the `CANONICAL` edge ordering.

use super::*;

impl Run<'_, '_, '_, '_> {
    pub(super) fn compute_block_predicate(&mut self, b0: Block) {
        if self.nullified_blocks.contains(b0) {
            return; // §3: permanently nullified after an aborted traversal
        }
        let reachable_incoming =
            self.func.preds(b0).iter().filter(|&&e| self.reach_edges.contains(e)).count();
        let d0 = match self.rdt.as_mut() {
            Some(rdt) => rdt.idom(self.func, b0),
            None => self.domtree.idom(b0),
        };
        // The traversal borrows the context's scratch and hands it back
        // below; `canonical` ends up holding the new CANONICAL order.
        let mut ctx =
            PredCtx { b0, aborted: false, incomplete: false, s: std::mem::take(self.pred_scratch) };
        ctx.s.canonical.clear();
        let new_pred = match d0 {
            Some(d0)
                if d0 != b0 && self.postdom.postdominates(b0, d0) && reachable_incoming >= 1 =>
            {
                ctx.s.result.clear();
                self.compute_partial(d0, None, true, &mut ctx);
                // Leave every OR-operand row empty (unvisited) for the next
                // traversal, clearing only the rows this one filled.
                for b in ctx.s.filled.drain(..) {
                    ctx.s.or_ops[b.index()].clear();
                }
                if ctx.aborted && self.cfg.nullify_aborted_predicates {
                    self.nullified_blocks.insert(b0);
                }
                if ctx.aborted || ctx.incomplete || ctx.s.result.len() != reachable_incoming {
                    ctx.s.canonical.clear();
                    None
                } else {
                    let t = self.interner.constant(1);
                    let ops = &mut ctx.s.operands;
                    ops.clear();
                    ops.extend(ctx.s.result.iter().map(|o| o.unwrap_or(t)));
                    Some(if ops.len() == 1 {
                        ops[0]
                    } else {
                        self.interner.intern_list(ListOp::PredOr, ops)
                    })
                }
            }
            _ => None,
        };
        let canonical = &mut self.canonical[b0.index()];
        if self.block_pred[b0.index()] != new_pred || *canonical != ctx.s.canonical {
            self.block_pred[b0.index()] = new_pred;
            std::mem::swap(canonical, &mut ctx.s.canonical);
            self.touch_phis(b0);
            self.any_change = true;
        }
        *self.pred_scratch = ctx.s;
    }

    pub(super) fn compute_partial(
        &mut self,
        b: Block,
        pp: Option<ExprId>,
        ignore_incoming: bool,
        ctx: &mut PredCtx,
    ) {
        if ctx.aborted || ctx.incomplete {
            return;
        }
        self.stats.phi_predication_visits += 1;
        let reachable_in =
            self.func.preds(b).iter().filter(|&&e| self.reach_edges.contains(e)).count();
        if b == ctx.b0 {
            // A path arrived at B0: record its predicate as the next OR
            // operand (correspondence with CANONICAL is kept by the
            // caller pushing the edge right after this call).
            ctx.s.result.push(pp);
            return;
        }
        let partial = if ignore_incoming || reachable_in < 2 {
            pp
        } else {
            // A confluence node inside the region: accumulate one operand
            // per incoming path and proceed only once complete.
            let t = self.interner.constant(1);
            let ops = &mut ctx.s.or_ops[b.index()];
            if ops.is_empty() {
                ctx.s.filled.push(b);
            }
            ops.push(pp.unwrap_or(t));
            if ops.len() < reachable_in {
                return;
            }
            Some(if ops.len() == 1 {
                ops[0]
            } else {
                self.interner.intern_list(ListOp::PredOr, ops)
            })
        };
        // Skip-to-postdominator shortcut (Figure 8 lines 25–28).
        if let Some(d) = self.postdom.ipdom(b) {
            if d != ctx.b0 && self.domtree.dominates(b, d) {
                self.compute_partial(d, partial, true, ctx);
                return;
            }
        }
        let succs = self.func.succs(b);
        let swap = self.canonical_swaps(succs);
        let reachable_out = succs.iter().filter(|&&e| self.reach_edges.contains(e)).count();
        // A split is *ambiguous* when two or more of its reachable edges
        // carry no predicate: a branch whose condition is constant or still
        // unresolved (both edges ∅, Figure 5 line 18), or a switch on a
        // constant scrutinee with unreachable-code elimination off. A
        // formula cannot express which way such a split goes, so treating
        // its ∅ edges as "true" would key φs under *different* splits with
        // identical predicates — a real, interpreter-visible miscompile in
        // pessimistic mode, where the decided branch keeps both edges
        // reachable. A *single* ∅ edge among predicated siblings (the §3
        // switch default) is fine: the sibling case predicates appear in
        // the formula and pin down the default condition.
        let ambiguous = reachable_out >= 2
            && succs
                .iter()
                .filter(|&&e| self.reach_edges.contains(e) && self.edge_pred[e.index()].is_none())
                .count()
                >= 2;
        for i in 0..succs.len() {
            let e = succs[if swap { 1 - i } else { i }];
            if ctx.aborted || ctx.incomplete {
                return;
            }
            if !self.reach_edges.contains(e) {
                continue;
            }
            if self.rpo.is_back_edge(e) {
                ctx.aborted = true;
                return;
            }
            let ep = if reachable_out == 1 {
                partial
            } else {
                let edge_p = self.edge_pred[e.index()].map(|p| self.pred_expr(p));
                match (partial, edge_p) {
                    // ∅ edge of an ambiguous split: the block gets no
                    // predicate this pass. Unlike a back-edge abort this is
                    // not nullified, so the key upgrades if the predicate
                    // materializes later (e.g. the condition class leaves ⊥).
                    (_, None) if ambiguous => {
                        ctx.incomplete = true;
                        return;
                    }
                    (None, ep) => ep,
                    (pp2, None) => pp2,
                    (Some(a), Some(b2)) => {
                        Some(self.interner.intern_list(ListOp::PredAnd, &[a, b2]))
                    }
                }
            };
            let dest = self.func.edge_to(e);
            self.compute_partial(dest, ep, false, ctx);
            if dest == ctx.b0 {
                ctx.s.canonical.push(e);
            }
        }
    }

    pub(super) fn pred_expr(&mut self, p: Pred) -> ExprId {
        self.interner.intern(ExprKind::Cmp(p.op, p.lhs, p.rhs))
    }

    /// Whether a block's outgoing edges `succs` are visited in swapped
    /// order to be canonical (§2.8: "the outgoing edges are arranged so
    /// that the predicate of the first outgoing edge has the operator =,
    /// < or ≤").
    pub(super) fn canonical_swaps(&self, succs: &[Edge]) -> bool {
        succs.len() == 2
            && self.edge_pred[succs[0].index()]
                .is_some_and(|p| !matches!(p.op, CmpOp::Eq | CmpOp::Lt | CmpOp::Le))
    }
}

pub(super) struct PredCtx {
    b0: Block,
    aborted: bool,
    /// A path crossed a reachable multi-way split whose edge carries no
    /// predicate: the formula is unknowable *this pass* (not nullified).
    incomplete: bool,
    /// The context's scratch, borrowed for the traversal's duration.
    s: PredScratch,
}

/// φ-predication scratch, owned by the session context so traversals
/// allocate nothing once warm.
#[derive(Debug, Default)]
pub(crate) struct PredScratch {
    /// Per-block accumulated OR operands; an empty row means unvisited.
    or_ops: Vec<Vec<ExprId>>,
    /// The blocks whose `or_ops` row the current traversal filled.
    filled: Vec<Block>,
    /// The traversal's `CANONICAL` edge order, one edge per path to B0.
    canonical: Vec<Edge>,
    /// The predicate of each path to B0 (`None` = true).
    result: Vec<Option<ExprId>>,
    /// The OR operands of the block predicate being built.
    operands: Vec<ExprId>,
}

impl PredScratch {
    /// Sizes the OR-operand table for `blocks` blocks with every row
    /// empty, keeping allocations (rows a panicked traversal left filled
    /// are cleared here).
    pub(crate) fn prepare(&mut self, blocks: usize) {
        for ops in &mut self.or_ops {
            ops.clear();
        }
        if self.or_ops.len() < blocks {
            self.or_ops.resize_with(blocks, Vec::new);
        }
        self.filled.clear();
    }
}
