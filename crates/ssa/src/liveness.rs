//! Per-variable liveness on the variable CFG.
//!
//! Used by the *pruned* and *semi-pruned* SSA styles. The paper remarks
//! (§3) that "pruned SSA [...] can reduce the effectiveness of global value
//! numbering", which makes the SSA style an ablation axis of the
//! reproduction — so all three classic styles are available.

use crate::varfunc::{Var, VarExpr, VarFunction, VarStmt, VarTerm};

/// Block-level liveness sets for every variable.
///
/// Each set is a bitset row of `⌈nvars/64⌉` words, so the fixed point
/// moves 64 variables per operation.
#[derive(Clone, Debug)]
pub struct Liveness {
    /// Words per row.
    words: usize,
    /// Row `b` (`words` words from `b * words`) holds the variables live
    /// on entry to block `b`.
    live_in: Vec<u64>,
    /// Variables that are used in some block before any local definition
    /// (Briggs' "non-local" / global variables, used by semi-pruned SSA).
    /// Unreachable blocks count too.
    non_local: Vec<u64>,
}

fn bit(row: &[u64], v: Var) -> bool {
    row[v.0 as usize / 64] >> (v.0 % 64) & 1 != 0
}

fn set_bit(row: &mut [u64], v: Var) {
    row[v.0 as usize / 64] |= 1 << (v.0 % 64);
}

/// Fills block `b`'s upward-exposed uses and definitions.
fn block_use_def(func: &VarFunction, b: usize, used: &mut [u64], defined: &mut [u64]) {
    let mut read = |e: &VarExpr, defined: &[u64]| {
        e.visit_vars(&mut |v| {
            if !bit(defined, v) {
                set_bit(used, v);
            }
        })
    };
    for stmt in &func.block(b).stmts {
        match stmt {
            VarStmt::Assign(dst, e) => {
                read(e, defined);
                set_bit(defined, *dst);
            }
            VarStmt::Eval(e) => read(e, defined),
        }
    }
    match func.block(b).term.as_ref() {
        Some(VarTerm::Branch(e, _, _))
        | Some(VarTerm::Return(e))
        | Some(VarTerm::Switch(e, _, _)) => read(e, defined),
        _ => {}
    }
}

impl Liveness {
    /// Computes liveness by the standard backward fixed point, sweeping
    /// blocks in postorder so most settle in the first sweep.
    pub fn compute(func: &VarFunction) -> Self {
        let nb = func.num_blocks();
        let words = func.num_vars().div_ceil(64);
        let mut gen = vec![0u64; nb * words];
        let mut kill = vec![0u64; nb * words];
        let mut non_local = vec![0u64; words];
        for b in 0..nb {
            let row = b * words..(b + 1) * words;
            block_use_def(func, b, &mut gen[row.clone()], &mut kill[row.clone()]);
            for (n, g) in non_local.iter_mut().zip(&gen[row]) {
                *n |= g;
            }
        }

        // Postorder from the entry, then from every block not yet seen,
        // so unreachable blocks get live sets too.
        let mut order = Vec::with_capacity(nb);
        let mut seen = vec![false; nb];
        for root in 0..nb {
            if seen[root] {
                continue;
            }
            seen[root] = true;
            let mut stack = vec![(root, func.succs(root))];
            while let Some((b, succs)) = stack.last_mut() {
                match succs.find(|&s| !seen[s]) {
                    Some(s) => {
                        seen[s] = true;
                        stack.push((s, func.succs(s)));
                    }
                    None => {
                        order.push(*b);
                        stack.pop();
                    }
                }
            }
        }

        let mut live_in = vec![0u64; nb * words];
        let mut out = vec![0u64; words];
        let mut changed = true;
        while changed {
            changed = false;
            for &b in &order {
                out.fill(0);
                for s in func.succs(b) {
                    for (o, l) in out.iter_mut().zip(&live_in[s * words..(s + 1) * words]) {
                        *o |= l;
                    }
                }
                let at = b * words;
                for w in 0..words {
                    let new = gen[at + w] | (out[w] & !kill[at + w]);
                    if new != live_in[at + w] {
                        live_in[at + w] = new;
                        changed = true;
                    }
                }
            }
        }
        Liveness { words, live_in, non_local }
    }

    /// Returns `true` if `v` is live on entry to block `b`.
    pub fn live_in(&self, b: usize, v: Var) -> bool {
        bit(&self.live_in[b * self.words..], v)
    }

    /// Returns `true` if `v` is used in some block before any local
    /// definition (the semi-pruned "global variable" criterion).
    pub fn is_non_local(&self, v: Var) -> bool {
        bit(&self.non_local, v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::varfunc::expr::*;
    use pgvn_ir::CmpOp;

    #[test]
    fn straight_line_liveness() {
        // b0: t = a + 1; return t  — a live-in, t not.
        let mut f = VarFunction::new("f", &["a"]);
        let a = f.param_vars()[0];
        let t = f.add_var("t");
        f.assign(0, t, add(v(a), c(1)));
        f.terminate(0, VarTerm::Return(v(t)));
        let l = Liveness::compute(&f);
        assert!(l.live_in(0, a));
        assert!(!l.live_in(0, t));
        assert!(l.is_non_local(a));
        assert!(!l.is_non_local(t));
    }

    #[test]
    fn loop_carried_variable_is_live_at_header() {
        // b0: i = 0; jump b1
        // b1: branch (i < n) b2 b3
        // b2: i = i + 1; jump b1
        // b3: return i
        let mut f = VarFunction::new("f", &["n"]);
        let n = f.param_vars()[0];
        let i = f.add_var("i");
        let (b1, b2, b3) = (f.add_block(), f.add_block(), f.add_block());
        f.assign(0, i, c(0));
        f.terminate(0, VarTerm::Jump(b1));
        f.terminate(b1, VarTerm::Branch(cmp(CmpOp::Lt, v(i), v(n)), b2, b3));
        f.assign(b2, i, add(v(i), c(1)));
        f.terminate(b2, VarTerm::Jump(b1));
        f.terminate(b3, VarTerm::Return(v(i)));
        let l = Liveness::compute(&f);
        assert!(l.live_in(b1, i));
        assert!(l.live_in(b1, n));
        assert!(l.live_in(b2, i));
        assert!(l.live_in(b3, i));
        assert!(!l.live_in(b3, n));
        assert!(!l.live_in(0, i), "i is defined before use in b0");
        assert!(l.is_non_local(i));
    }

    #[test]
    fn dead_after_redefinition() {
        // b0: t = a; t = 5; return t — a is live-in, but t's first value dead.
        let mut f = VarFunction::new("f", &["a"]);
        let a = f.param_vars()[0];
        let t = f.add_var("t");
        f.assign(0, t, v(a));
        f.assign(0, t, c(5));
        f.terminate(0, VarTerm::Return(v(t)));
        let l = Liveness::compute(&f);
        assert!(l.live_in(0, a));
        assert!(!l.live_in(0, t));
    }
}
