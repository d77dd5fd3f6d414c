//! SSA construction: [`VarFunction`] → [`pgvn_ir::Function`].
//!
//! The classic Cytron et al. recipe: place φ-functions at iterated
//! dominance frontiers of each variable's definition sites, then rename
//! along a preorder walk of the dominator tree, keeping each variable's
//! current definition and an undo log to restore them on the way back up.
//!
//! Three placement styles are supported ([`SsaStyle`]): *minimal*,
//! *semi-pruned* (φs only for Briggs "non-local" variables) and *pruned*
//! (φs only where the variable is live-in). The paper notes in §3 that
//! pruned SSA can reduce GVN effectiveness, so the style is exposed as an
//! ablation knob.
//!
//! Every variable implicitly reads as 0 before its first assignment; the
//! builder materializes this as a `const 0` definition at the entry so
//! renaming never sees an undefined variable.

use crate::liveness::Liveness;
use crate::varfunc::{Var, VarExpr, VarFunction, VarStmt, VarTerm};
use pgvn_analysis::GenericDomTree;
use pgvn_ir::{Block, Edge, Function, InstKind, Value};

/// φ-placement style.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum SsaStyle {
    /// φs at all iterated dominance frontiers of definition sites.
    #[default]
    Minimal,
    /// φs only for variables used in some block before a local definition
    /// (Briggs' semi-pruned form).
    SemiPruned,
    /// φs only where the variable is live-in (pruned form).
    Pruned,
}

/// An error produced by [`build_ssa`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum BuildError {
    /// A block reachable from the entry has no terminator.
    UnterminatedBlock(usize),
}

impl std::fmt::Display for BuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BuildError::UnterminatedBlock(b) => write!(f, "reachable block {b} has no terminator"),
        }
    }
}

impl std::error::Error for BuildError {}

/// Converts `vf` to SSA form using the requested φ-placement style.
///
/// # Errors
///
/// Returns [`BuildError::UnterminatedBlock`] if a reachable block of `vf`
/// lacks a terminator.
///
/// # Examples
///
/// ```
/// use pgvn_ssa::{VarFunction, VarTerm, SsaStyle, build_ssa};
/// use pgvn_ssa::expr::*;
///
/// let mut vf = VarFunction::new("inc", &["x"]);
/// let x = vf.param_vars()[0];
/// let t = vf.add_var("t");
/// vf.assign(0, t, add(v(x), c(1)));
/// vf.terminate(0, VarTerm::Return(v(t)));
/// let f = build_ssa(&vf, SsaStyle::Minimal)?;
/// assert_eq!(f.name(), "inc");
/// # Ok::<(), pgvn_ssa::BuildError>(())
/// ```
pub fn build_ssa(vf: &VarFunction, style: SsaStyle) -> Result<Function, BuildError> {
    vf.validate().map_err(BuildError::UnterminatedBlock)?;
    let nb = vf.num_blocks();
    let nv = vf.num_vars();

    // Dominators of the variable CFG.
    let succs = |u: usize, out: &mut Vec<usize>| out.extend(vf.succs(u));
    let mut preds_vec: Vec<Vec<usize>> = vec![Vec::new(); nb];
    for b in 0..nb {
        for s in vf.succs(b) {
            preds_vec[s].push(b);
        }
    }
    let preds = |u: usize, out: &mut Vec<usize>| out.extend_from_slice(&preds_vec[u]);
    let dt = GenericDomTree::compute(nb, 0, &succs, &preds);
    let df = dt.frontiers(&preds);

    let liveness = match style {
        SsaStyle::Minimal => None,
        _ => Some(Liveness::compute(vf)),
    };

    // Definition sites in ascending block order; every variable is
    // implicitly defined at the entry.
    let mut def_sites: Vec<Vec<usize>> = vec![vec![0]; nv];
    for b in (0..nb).filter(|&b| dt.is_reachable(b)) {
        for stmt in &vf.block(b).stmts {
            if let VarStmt::Assign(v, _) = stmt {
                let sites = &mut def_sites[v.0 as usize];
                if sites.last() != Some(&b) {
                    sites.push(b);
                }
            }
        }
    }

    // Iterated dominance frontier φ placement. `placed` and `is_site`
    // hold the stamp of the variable that last marked each block, so one
    // pair of arrays and one worklist serve every variable.
    let mut needs_phi: Vec<Vec<Var>> = vec![Vec::new(); nb]; // per block, vars in placement order
    let mut placed = vec![u32::MAX; nb];
    let mut is_site = vec![u32::MAX; nb];
    let mut work: Vec<usize> = Vec::new();
    for (var_idx, sites) in def_sites.iter().enumerate() {
        let var = Var(var_idx as u32);
        if let (SsaStyle::SemiPruned, Some(l)) = (style, &liveness) {
            if !l.is_non_local(var) {
                continue;
            }
        }
        for &b in sites {
            is_site[b] = var.0;
        }
        work.extend_from_slice(sites);
        while let Some(b) = work.pop() {
            for &d in &df[b] {
                if placed[d] == var.0 {
                    continue;
                }
                placed[d] = var.0;
                if let (SsaStyle::Pruned, Some(l)) = (style, &liveness) {
                    if !l.live_in(d, var) {
                        continue; // don't revisit, but no φ
                    }
                }
                needs_phi[d].push(var);
                if is_site[d] != var.0 {
                    work.push(d);
                }
            }
        }
    }

    // Create the SSA function and its blocks (reachable var blocks only).
    let mut func = Function::new(vf.name(), vf.param_vars().len() as u32);
    let mut block_of: Vec<Option<Block>> = vec![None; nb];
    block_of[0] = Some(func.entry());
    for (b, slot) in block_of.iter_mut().enumerate().skip(1) {
        if dt.is_reachable(b) {
            *slot = Some(func.add_block());
        }
    }

    // Pre-create φ instructions so predecessors can record arguments
    // before the destination is renamed. `phi_value[b][i]` is the φ for
    // `needs_phi[b][i]`.
    let mut phi_value: Vec<Vec<Value>> = vec![Vec::new(); nb];
    for b in 0..nb {
        if let Some(fb) = block_of[b] {
            phi_value[b] = needs_phi[b].iter().map(|_| func.append_phi(fb)).collect();
        }
    }

    // The implicit initial value of every variable.
    let zero = func.iconst(func.entry(), 0);

    // Rename along a dominator-tree preorder walk. `cur[v]` is the
    // reaching definition of `v`.
    let mut cur: Vec<Value> = vec![zero; nv];
    for (i, &p) in vf.param_vars().iter().enumerate() {
        cur[p.0 as usize] = func.param(i as u32);
    }
    // Recorded φ arguments: each edge into `b` appends itself to
    // `phi_edges[b]` and one value per φ of `b` to `phi_args[b]`.
    let mut phi_edges: Vec<Vec<Edge>> = vec![Vec::new(); nb];
    let mut phi_args: Vec<Vec<Value>> = vec![Vec::new(); nb];
    let mut record = |edge: Edge, dest: usize, cur: &[Value]| {
        if needs_phi[dest].is_empty() {
            return;
        }
        phi_edges[dest].push(edge);
        phi_args[dest].extend(needs_phi[dest].iter().map(|var| cur[var.0 as usize]));
    };

    // Explicit-stack preorder DFS. Every definition logs the one it
    // shadows in `undo`; leaving a block rolls the log back to the length
    // it entered with.
    enum Action {
        Enter(usize),
        Exit(usize),
    }
    let mut undo: Vec<(Var, Value)> = Vec::new();
    let mut agenda = vec![Action::Enter(0)];
    while let Some(action) = agenda.pop() {
        let b = match action {
            Action::Exit(mark) => {
                for (var, old) in undo.drain(mark..).rev() {
                    cur[var.0 as usize] = old;
                }
                continue;
            }
            Action::Enter(b) => b,
        };
        let fb = block_of[b].expect("renaming visits only reachable blocks");
        agenda.push(Action::Exit(undo.len()));
        let mut define = |var: Var, val: Value, cur: &mut [Value]| {
            undo.push((var, std::mem::replace(&mut cur[var.0 as usize], val)));
        };

        // φ results become the current definitions.
        for (&var, &pv) in needs_phi[b].iter().zip(&phi_value[b]) {
            define(var, pv, &mut cur);
        }

        // Statements.
        for stmt in &vf.block(b).stmts {
            match stmt {
                VarStmt::Assign(var, e) => {
                    let val = flatten(&mut func, fb, e, &cur);
                    define(*var, val, &mut cur);
                }
                VarStmt::Eval(e) => {
                    let _ = flatten(&mut func, fb, e, &cur);
                }
            }
        }

        // Terminator: create edges and record φ arguments.
        let target = |t: usize| block_of[t].expect("target reachable");
        match vf.block(b).term.as_ref().expect("validated") {
            VarTerm::Jump(t) => {
                let edge = func.set_jump(fb, target(*t));
                record(edge, *t, &cur);
            }
            VarTerm::Branch(c, t, e) => {
                let cv = flatten(&mut func, fb, c, &cur);
                let (te, ee) = func.set_branch(fb, cv, target(*t), target(*e));
                record(te, *t, &cur);
                record(ee, *e, &cur);
            }
            VarTerm::Switch(e, cases, d) => {
                let sv = flatten(&mut func, fb, e, &cur);
                let case_vals: Vec<i64> = cases.iter().map(|&(c, _)| c).collect();
                let targets: Vec<Block> = cases.iter().map(|&(_, t)| target(t)).collect();
                let edges = func.set_switch(fb, sv, &case_vals, &targets, target(*d));
                for (&edge, t) in edges.iter().zip(cases.iter().map(|&(_, t)| t).chain([*d])) {
                    record(edge, t, &cur);
                }
            }
            VarTerm::Return(e) => {
                let rv = flatten(&mut func, fb, e, &cur);
                func.set_return(fb, rv);
            }
        }

        // Visit dominator-tree children (reverse so RPO-first pops
        // first — order does not affect correctness).
        agenda.extend(dt.children(b).iter().rev().map(|&c| Action::Enter(c)));
    }

    // Fill in φ arguments in predecessor-edge order.
    let mut rows: Vec<usize> = Vec::new();
    for b in 0..nb {
        let k = phi_value[b].len();
        if k == 0 {
            continue;
        }
        let fb = block_of[b].expect("φ blocks are reachable");
        rows.clear();
        rows.extend(func.preds(fb).iter().map(|e| {
            phi_edges[b]
                .iter()
                .position(|re| re == e)
                .expect("every predecessor recorded a φ argument")
        }));
        for (i, &pv) in phi_value[b].iter().enumerate() {
            let args = rows.iter().map(|&r| phi_args[b][r * k + i]).collect();
            func.set_phi_args(pv, args);
        }
    }

    Ok(func)
}

/// Flattens an expression tree into instructions at the end of `fb`,
/// resolving variable reads to their reaching definitions `cur`.
fn flatten(func: &mut Function, fb: Block, e: &VarExpr, cur: &[Value]) -> Value {
    match e {
        VarExpr::Const(c) => func.iconst(fb, *c),
        VarExpr::Var(v) => cur[v.0 as usize],
        VarExpr::Opaque(t) => func.append(fb, InstKind::Opaque(*t)),
        VarExpr::Unary(op, a) => {
            let av = flatten(func, fb, a, cur);
            func.unary(fb, *op, av)
        }
        VarExpr::Binary(op, a, b) => {
            let av = flatten(func, fb, a, cur);
            let bv = flatten(func, fb, b, cur);
            func.binary(fb, *op, av, bv)
        }
        VarExpr::Cmp(op, a, b) => {
            let av = flatten(func, fb, a, cur);
            let bv = flatten(func, fb, b, cur);
            func.cmp(fb, *op, av, bv)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::varfunc::expr::*;
    use pgvn_ir::{CmpOp, HashedOpaques, InstKind, Interpreter};

    fn count_phis(f: &Function) -> usize {
        f.values().filter(|&v| f.kind(f.def(v)).is_phi()).count()
    }

    /// i = 0; s = 0; while (i < n) { s = s + i; i = i + 1 } return s
    fn sum_loop() -> VarFunction {
        let mut vf = VarFunction::new("sum", &["n"]);
        let n = vf.param_vars()[0];
        let i = vf.add_var("i");
        let s = vf.add_var("s");
        let (head, body, exit) = (vf.add_block(), vf.add_block(), vf.add_block());
        vf.assign(0, i, c(0));
        vf.assign(0, s, c(0));
        vf.terminate(0, VarTerm::Jump(head));
        vf.terminate(head, VarTerm::Branch(cmp(CmpOp::Lt, v(i), v(n)), body, exit));
        vf.assign(body, s, add(v(s), v(i)));
        vf.assign(body, i, add(v(i), c(1)));
        vf.terminate(body, VarTerm::Jump(head));
        vf.terminate(exit, VarTerm::Return(v(s)));
        vf
    }

    #[test]
    fn sum_loop_all_styles_execute_correctly() {
        let vf = sum_loop();
        for style in [SsaStyle::Minimal, SsaStyle::SemiPruned, SsaStyle::Pruned] {
            let f = build_ssa(&vf, style).unwrap();
            pgvn_analysis::assert_ssa(&f);
            let interp = Interpreter::new(&f);
            let mut o = HashedOpaques::new(0);
            assert_eq!(interp.run(&[5], &mut o).unwrap(), 10, "{style:?}");
            assert_eq!(interp.run(&[0], &mut o).unwrap(), 0, "{style:?}");
            assert_eq!(interp.run(&[-3], &mut o).unwrap(), 0, "{style:?}");
        }
    }

    #[test]
    fn pruned_places_no_more_phis_than_minimal() {
        let vf = sum_loop();
        let minimal = count_phis(&build_ssa(&vf, SsaStyle::Minimal).unwrap());
        let semi = count_phis(&build_ssa(&vf, SsaStyle::SemiPruned).unwrap());
        let pruned = count_phis(&build_ssa(&vf, SsaStyle::Pruned).unwrap());
        assert!(pruned <= semi && semi <= minimal, "{pruned} <= {semi} <= {minimal}");
        // The loop needs φs for i and s at the header in all styles.
        assert!(pruned >= 2);
    }

    #[test]
    fn pruned_drops_dead_phi() {
        // if (p) { t = 1 } else { t = 2 }  — t never used after the join.
        let mut vf = VarFunction::new("dead", &["p"]);
        let p = vf.param_vars()[0];
        let t = vf.add_var("t");
        let (bt, be, j) = (vf.add_block(), vf.add_block(), vf.add_block());
        vf.terminate(0, VarTerm::Branch(v(p), bt, be));
        vf.assign(bt, t, c(1));
        vf.terminate(bt, VarTerm::Jump(j));
        vf.assign(be, t, c(2));
        vf.terminate(be, VarTerm::Jump(j));
        vf.terminate(j, VarTerm::Return(c(0)));
        let minimal = count_phis(&build_ssa(&vf, SsaStyle::Minimal).unwrap());
        let pruned = count_phis(&build_ssa(&vf, SsaStyle::Pruned).unwrap());
        assert_eq!(minimal, 1);
        assert_eq!(pruned, 0);
    }

    #[test]
    fn use_before_assignment_reads_zero() {
        // return u + 1 where u was never assigned.
        let mut vf = VarFunction::new("uz", &[]);
        let u = vf.add_var("u");
        vf.terminate(0, VarTerm::Return(add(v(u), c(1))));
        let f = build_ssa(&vf, SsaStyle::Minimal).unwrap();
        let r = Interpreter::new(&f).run(&[], &mut HashedOpaques::new(0)).unwrap();
        assert_eq!(r, 1);
    }

    #[test]
    fn diamond_reassignment_gets_phi() {
        // t = 9; if (a < b) t = a; return t + t
        let mut vf = VarFunction::new("d", &["a", "b"]);
        let (a, b) = (vf.param_vars()[0], vf.param_vars()[1]);
        let t = vf.add_var("t");
        let (bt, j) = (vf.add_block(), vf.add_block());
        vf.assign(0, t, c(9));
        vf.terminate(0, VarTerm::Branch(cmp(CmpOp::Lt, v(a), v(b)), bt, j));
        vf.assign(bt, t, v(a));
        vf.terminate(bt, VarTerm::Jump(j));
        vf.terminate(j, VarTerm::Return(add(v(t), v(t))));
        let f = build_ssa(&vf, SsaStyle::Pruned).unwrap();
        pgvn_analysis::assert_ssa(&f);
        assert_eq!(count_phis(&f), 1);
        let interp = Interpreter::new(&f);
        let mut o = HashedOpaques::new(0);
        assert_eq!(interp.run(&[3, 5], &mut o).unwrap(), 6);
        assert_eq!(interp.run(&[7, 5], &mut o).unwrap(), 18);
    }

    #[test]
    fn unreachable_var_blocks_are_dropped() {
        let mut vf = VarFunction::new("u", &[]);
        let orphan = vf.add_block();
        vf.terminate(0, VarTerm::Return(c(4)));
        vf.terminate(orphan, VarTerm::Return(c(5)));
        let f = build_ssa(&vf, SsaStyle::Minimal).unwrap();
        assert_eq!(f.num_blocks(), 1);
    }

    #[test]
    fn unterminated_reachable_block_errors() {
        let mut vf = VarFunction::new("bad", &[]);
        let b = vf.add_block();
        vf.terminate(0, VarTerm::Jump(b));
        match build_ssa(&vf, SsaStyle::Minimal) {
            Err(BuildError::UnterminatedBlock(x)) => assert_eq!(x, b),
            other => panic!("expected UnterminatedBlock, got {other:?}"),
        }
    }

    #[test]
    fn opaque_expressions_lowered() {
        let mut vf = VarFunction::new("o", &[]);
        let t = vf.add_var("t");
        vf.assign(0, t, VarExpr::Opaque(3));
        vf.terminate(0, VarTerm::Return(sub(v(t), v(t))));
        let f = build_ssa(&vf, SsaStyle::Minimal).unwrap();
        assert!(f.values().any(|v| matches!(f.kind(f.def(v)), InstKind::Opaque(3))));
        let r = Interpreter::new(&f).run(&[], &mut HashedOpaques::new(7)).unwrap();
        assert_eq!(r, 0);
    }

    #[test]
    fn nested_loops_execute_correctly() {
        // s = 0; for i in 0..a { for j in 0..b { s += 1 } } return s
        let mut vf = VarFunction::new("nest", &["a", "b"]);
        let (a, b) = (vf.param_vars()[0], vf.param_vars()[1]);
        let (i, j, s) = (vf.add_var("i"), vf.add_var("j"), vf.add_var("s"));
        let h1 = vf.add_block();
        let b1 = vf.add_block();
        let h2 = vf.add_block();
        let b2 = vf.add_block();
        let l1 = vf.add_block();
        let exit = vf.add_block();
        vf.assign(0, s, c(0));
        vf.assign(0, i, c(0));
        vf.terminate(0, VarTerm::Jump(h1));
        vf.terminate(h1, VarTerm::Branch(cmp(CmpOp::Lt, v(i), v(a)), b1, exit));
        vf.assign(b1, j, c(0));
        vf.terminate(b1, VarTerm::Jump(h2));
        vf.terminate(h2, VarTerm::Branch(cmp(CmpOp::Lt, v(j), v(b)), b2, l1));
        vf.assign(b2, s, add(v(s), c(1)));
        vf.assign(b2, j, add(v(j), c(1)));
        vf.terminate(b2, VarTerm::Jump(h2));
        vf.assign(l1, i, add(v(i), c(1)));
        vf.terminate(l1, VarTerm::Jump(h1));
        vf.terminate(exit, VarTerm::Return(v(s)));
        for style in [SsaStyle::Minimal, SsaStyle::SemiPruned, SsaStyle::Pruned] {
            let f = build_ssa(&vf, style).unwrap();
            pgvn_analysis::assert_ssa(&f);
            let r = Interpreter::new(&f).run(&[3, 4], &mut HashedOpaques::new(0)).unwrap();
            assert_eq!(r, 12, "{style:?}");
        }
    }
}

#[cfg(test)]
mod style_tests {
    use super::*;
    use crate::varfunc::expr::*;
    use pgvn_ir::CmpOp;

    fn count_phis(f: &Function) -> usize {
        f.values().filter(|&v| f.kind(f.def(v)).is_phi()).count()
    }

    #[test]
    fn semi_pruned_skips_block_local_variables() {
        // `local` is defined and fully consumed within single blocks on
        // both arms of a diamond, then redefined in the join: semi-pruned
        // SSA places no φ for it, while minimal SSA does.
        let mut vf = VarFunction::new("semi", &["p"]);
        let p = vf.param_vars()[0];
        let local = vf.add_var("local");
        let out = vf.add_var("out");
        let (t, e, j) = (vf.add_block(), vf.add_block(), vf.add_block());
        vf.terminate(0, VarTerm::Branch(cmp(CmpOp::Gt, v(p), c(0)), t, e));
        vf.assign(t, local, c(1));
        vf.assign(t, out, add(v(local), c(1)));
        vf.terminate(t, VarTerm::Jump(j));
        vf.assign(e, local, c(2));
        vf.assign(e, out, add(v(local), c(2)));
        vf.terminate(e, VarTerm::Jump(j));
        vf.terminate(j, VarTerm::Return(v(out)));
        let minimal = count_phis(&build_ssa(&vf, SsaStyle::Minimal).unwrap());
        let semi = count_phis(&build_ssa(&vf, SsaStyle::SemiPruned).unwrap());
        // Minimal places φs for both `local` and `out`; semi-pruned only
        // for `out` (the only variable used across block boundaries).
        assert_eq!(minimal, 2, "minimal: local + out");
        assert_eq!(semi, 1, "semi-pruned: out only");
    }

    #[test]
    fn all_styles_agree_semantically_on_branchy_code() {
        use pgvn_ir::{HashedOpaques, Interpreter};
        let mut vf = VarFunction::new("agree", &["a", "b"]);
        let (a, b) = (vf.param_vars()[0], vf.param_vars()[1]);
        let t = vf.add_var("t");
        let (bt, be, j) = (vf.add_block(), vf.add_block(), vf.add_block());
        vf.assign(0, t, c(0));
        vf.terminate(0, VarTerm::Branch(cmp(CmpOp::Le, v(a), v(b)), bt, be));
        vf.assign(bt, t, sub(v(b), v(a)));
        vf.terminate(bt, VarTerm::Jump(j));
        vf.assign(be, t, sub(v(a), v(b)));
        vf.terminate(be, VarTerm::Jump(j));
        vf.terminate(j, VarTerm::Return(v(t)));
        let args_sets: [[i64; 2]; 3] = [[3, 10], [10, 3], [4, 4]];
        let expected = [7, 7, 0];
        for style in [SsaStyle::Minimal, SsaStyle::SemiPruned, SsaStyle::Pruned] {
            let f = build_ssa(&vf, style).unwrap();
            for (args, want) in args_sets.iter().zip(expected) {
                let got = Interpreter::new(&f).run(args, &mut HashedOpaques::new(0)).unwrap();
                assert_eq!(got, want, "{style:?} {args:?}");
            }
        }
    }
}
