//! Equivalence checks for the front end: the parser's operator grouping,
//! bitset liveness against a naive set-based fixed point, and a golden
//! digest of the printed SSA that `build_ssa` produces for a fixed generated
//! corpus in all three φ-placement styles.

use pgvn::lang::{lower, parse, print_routine, Expr, Stmt};
use pgvn::ssa::{build_ssa, expr::*, Liveness, SsaStyle, Var, VarFunction, VarStmt, VarTerm};
use pgvn::workload::{generate_routine, GenConfig};
use proptest::prelude::*;
use std::collections::BTreeSet;

// ---------------------------------------------------------------------
// Parser grouping.

/// Every binary operator with its precedence level, loosest first.
const BINARY: [(&str, u8); 18] = [
    ("||", 0),
    ("&&", 1),
    ("|", 2),
    ("^", 3),
    ("&", 4),
    ("==", 5),
    ("!=", 5),
    ("<", 6),
    ("<=", 6),
    (">", 6),
    (">=", 6),
    ("<<", 7),
    (">>", 7),
    ("+", 8),
    ("-", 8),
    ("*", 9),
    ("/", 9),
    ("%", 9),
];

/// Renders an expression fully parenthesised, so two parses group the
/// same way exactly when their renderings are equal.
fn grouped(e: &Expr) -> String {
    use pgvn::ir::{BinOp, CmpOp, UnOp};
    let bin = |op: &BinOp| match op {
        BinOp::Add => "+",
        BinOp::Sub => "-",
        BinOp::Mul => "*",
        BinOp::Div => "/",
        BinOp::Rem => "%",
        BinOp::And => "&",
        BinOp::Or => "|",
        BinOp::Xor => "^",
        BinOp::Shl => "<<",
        BinOp::Shr => ">>",
    };
    let cmp = |op: &CmpOp| match op {
        CmpOp::Eq => "==",
        CmpOp::Ne => "!=",
        CmpOp::Lt => "<",
        CmpOp::Le => "<=",
        CmpOp::Gt => ">",
        CmpOp::Ge => ">=",
    };
    match e {
        Expr::Int(v) => v.to_string(),
        Expr::Var(name) => name.clone(),
        Expr::Opaque(t) => format!("opaque({t})"),
        Expr::Unary(UnOp::Neg, a) => format!("(-{})", grouped(a)),
        Expr::Unary(UnOp::Not, a) => format!("(~{})", grouped(a)),
        Expr::LogicalNot(a) => format!("(!{})", grouped(a)),
        Expr::Binary(op, a, b) => format!("({} {} {})", grouped(a), bin(op), grouped(b)),
        Expr::Cmp(op, a, b) => format!("({} {} {})", grouped(a), cmp(op), grouped(b)),
        Expr::LogicalAnd(a, b) => format!("({} && {})", grouped(a), grouped(b)),
        Expr::LogicalOr(a, b) => format!("({} || {})", grouped(a), grouped(b)),
    }
}

fn parse_expr(src: &str) -> String {
    let r = parse(&format!("routine f(a, b, c) {{ return {src}; }}"))
        .unwrap_or_else(|e| panic!("`{src}`: {e}"));
    match &r.body[..] {
        [Stmt::Return(e)] => grouped(e),
        other => panic!("`{src}`: unexpected body {other:?}"),
    }
}

/// `a op1 b op2 c` for every operator pair: the tighter operator groups
/// first, and equal precedence groups to the left.
#[test]
fn binary_operator_pairs_group_by_precedence_then_left() {
    for &(op1, l1) in &BINARY {
        for &(op2, l2) in &BINARY {
            let want = if l1 >= l2 {
                format!("((a {op1} b) {op2} c)")
            } else {
                format!("(a {op1} (b {op2} c))")
            };
            assert_eq!(parse_expr(&format!("a {op1} b {op2} c")), want, "{op1} then {op2}");
            // Explicit parentheses override the table in both directions.
            assert_eq!(
                parse_expr(&format!("(a {op1} b) {op2} c")),
                format!("((a {op1} b) {op2} c)")
            );
            assert_eq!(
                parse_expr(&format!("a {op1} (b {op2} c)")),
                format!("(a {op1} (b {op2} c))")
            );
        }
    }
}

/// Prefix operators bind tighter than every binary operator, on either
/// operand, and nest right to left.
#[test]
fn unary_operators_bind_tighter_than_binary() {
    for &(op, _) in &BINARY {
        for un in ["-", "~", "!"] {
            assert_eq!(parse_expr(&format!("{un}a {op} b")), format!("(({un}a) {op} b)"));
            assert_eq!(parse_expr(&format!("a {op} {un}b")), format!("(a {op} ({un}b))"));
            assert_eq!(parse_expr(&format!("{un}(a {op} b)")), format!("({un}(a {op} b))"));
        }
    }
    assert_eq!(parse_expr("- ~ ! a"), "(-(~(!a)))");
    assert_eq!(parse_expr("((a))"), "a");
    assert_eq!(parse_expr("a * b + c * a - b"), "(((a * b) + (c * a)) - b)");
    assert_eq!(
        parse_expr("a || b && c | a ^ b & c == a < b << c + a * b"),
        "(a || (b && (c | (a ^ (b & (c == (a < (b << (c + (a * b))))))))))"
    );
}

// ---------------------------------------------------------------------
// Liveness.

/// Live-in sets by the textbook backward fixed point over `BTreeSet`s,
/// plus the non-local set: every variable some block reads before
/// defining it, reachable or not.
fn naive_liveness(f: &VarFunction) -> (Vec<BTreeSet<Var>>, BTreeSet<Var>) {
    let nb = f.num_blocks();
    let mut gen = vec![BTreeSet::new(); nb];
    let mut kill = vec![BTreeSet::new(); nb];
    for b in 0..nb {
        let (g, k) = (&mut gen[b], &mut kill[b]);
        let mut read = |e: &pgvn::ssa::VarExpr, k: &BTreeSet<Var>| {
            e.visit_vars(&mut |v| {
                if !k.contains(&v) {
                    g.insert(v);
                }
            })
        };
        for s in &f.block(b).stmts {
            match s {
                VarStmt::Assign(d, e) => {
                    read(e, k);
                    k.insert(*d);
                }
                VarStmt::Eval(e) => read(e, k),
            }
        }
        match &f.block(b).term {
            Some(VarTerm::Branch(e, ..))
            | Some(VarTerm::Switch(e, ..))
            | Some(VarTerm::Return(e)) => read(e, k),
            _ => {}
        }
    }
    let non_local = gen.iter().flatten().copied().collect();
    let mut live: Vec<BTreeSet<Var>> = vec![BTreeSet::new(); nb];
    loop {
        let mut changed = false;
        for b in 0..nb {
            let mut out = BTreeSet::new();
            for s in f.succs(b) {
                out.extend(live[s].iter().copied());
            }
            let new: BTreeSet<Var> =
                gen[b].iter().copied().chain(out.difference(&kill[b]).copied()).collect();
            if new != live[b] {
                live[b] = new;
                changed = true;
            }
        }
        if !changed {
            return (live, non_local);
        }
    }
}

fn assert_liveness_matches(f: &VarFunction, what: &str) {
    let (live, non_local) = naive_liveness(f);
    let l = Liveness::compute(f);
    for v in (0..f.num_vars() as u32).map(Var) {
        assert_eq!(l.is_non_local(v), non_local.contains(&v), "{what}: non_local({v})");
        for (b, set) in live.iter().enumerate() {
            assert_eq!(l.live_in(b, v), set.contains(&v), "{what}: live_in(b{b}, {v})");
        }
    }
}

/// A random CFG over `nvars` variables. Blocks past `nblocks / 2` jump
/// only forward among themselves and are never targeted from the first
/// half, so roughly half the graph is unreachable from the entry.
fn random_function(seed: u64, nvars: usize, nblocks: usize) -> VarFunction {
    let mut rng = proptest::TestRng::seed_from_u64(seed);
    let mut f = VarFunction::new("r", &["p0", "p1"]);
    let mut vars = f.param_vars().to_vec();
    while vars.len() < nvars {
        vars.push(f.add_var(format!("v{}", vars.len())));
    }
    for _ in 1..nblocks {
        f.add_block();
    }
    let pick = |rng: &mut proptest::TestRng, n: usize| rng.below(n as u64) as usize;
    let expr =
        |rng: &mut proptest::TestRng| add(v(vars[pick(rng, nvars)]), v(vars[pick(rng, nvars)]));
    let half = nblocks / 2;
    for b in 0..nblocks {
        for _ in 0..pick(&mut rng, 4) {
            let dst = vars[pick(&mut rng, nvars)];
            f.assign(b, dst, expr(&mut rng));
        }
        if pick(&mut rng, 5) == 0 {
            f.push(b, VarStmt::Eval(expr(&mut rng)));
        }
        let (lo, hi) = if b < half { (0, half) } else { (b, nblocks) };
        let target = |rng: &mut proptest::TestRng| lo + pick(rng, hi - lo);
        let term = match pick(&mut rng, 4) {
            0 => VarTerm::Return(expr(&mut rng)),
            1 => VarTerm::Jump(target(&mut rng)),
            2 => VarTerm::Branch(expr(&mut rng), target(&mut rng), target(&mut rng)),
            _ => VarTerm::Switch(
                expr(&mut rng),
                vec![(1, target(&mut rng)), (2, target(&mut rng))],
                target(&mut rng),
            ),
        };
        f.terminate(b, term);
    }
    f
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 60, ..ProptestConfig::default() })]

    #[test]
    fn bitset_liveness_matches_naive_fixpoint_on_random_cfgs(
        seed in 0u64..1_000_000,
        nvars in proptest::sample::select(&[3usize, 63, 64, 65, 127, 129, 200]),
        nblocks in 1usize..40,
    ) {
        let f = random_function(seed, nvars, nblocks);
        assert_liveness_matches(&f, &format!("seed {seed}, {nvars} vars, {nblocks} blocks"));
    }

    #[test]
    fn bitset_liveness_matches_naive_fixpoint_on_generated_routines(seed in 0u64..100_000) {
        let r = generate_routine("g", &GenConfig { seed, ..GenConfig::default() });
        assert_liveness_matches(&lower(&r), &format!("generated seed {seed}"));
    }
}

#[test]
fn liveness_counts_reads_in_unreachable_blocks_as_non_local() {
    // b0 returns; b1 is unreachable and reads `u` before defining it.
    let mut f = VarFunction::new("f", &[]);
    let u = f.add_var("u");
    let dead = f.add_block();
    f.terminate(0, VarTerm::Return(c(0)));
    f.assign(dead, u, add(v(u), c(1)));
    f.terminate(dead, VarTerm::Return(v(u)));
    let l = Liveness::compute(&f);
    assert!(l.is_non_local(u));
    assert!(l.live_in(dead, u));
    assert!(!l.live_in(0, u));
    assert_liveness_matches(&f, "unreachable reader");
}

// ---------------------------------------------------------------------
// Golden SSA digest.

fn fnv1a(h: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *h ^= u64::from(b);
        *h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

/// FNV-1a over the printed SSA of a fixed corpus: 150 default-config and
/// 15 large-config generated routines, each printed to source, parsed,
/// lowered and built in `style`.
fn corpus_digest(style: SsaStyle) -> u64 {
    let default = (0..150).map(|seed| GenConfig { seed, ..GenConfig::default() });
    let large = (0..15).map(|seed| GenConfig {
        seed: 10_000 + seed,
        target_stmts: 300,
        max_depth: 5,
        ..GenConfig::default()
    });
    let mut h = 0xcbf2_9ce4_8422_2325;
    for (i, cfg) in default.chain(large).enumerate() {
        let src = print_routine(&generate_routine(&format!("r{i}"), &cfg));
        let vf = lower(&parse(&src).expect("generated source parses"));
        let f = build_ssa(&vf, style).expect("generated routines build");
        fnv1a(&mut h, f.to_string().as_bytes());
    }
    h
}

/// The digests were taken from `build_ssa` before liveness moved to
/// bitsets and φ tables moved to per-block vectors; any change to the
/// printed SSA (value numbering, φ order, block order) shows up here.
#[test]
fn build_ssa_output_matches_the_golden_digest_in_every_style() {
    let want = [
        (SsaStyle::Minimal, 0x9ce7_1239_15f3_0d2du64),
        (SsaStyle::SemiPruned, 0x25e5_dc10_a371_42af),
        (SsaStyle::Pruned, 0x169c_fe24_7a6a_a7b4),
    ];
    for (style, digest) in want {
        let got = corpus_digest(style);
        assert_eq!(got, digest, "{style:?}: got {got:#018x}");
    }
}
