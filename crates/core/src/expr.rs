//! Hash-consed symbolic expressions.
//!
//! Symbolic evaluation (§2.2) turns every instruction into a canonical
//! expression over *class leaders*; the `TABLE` mapping from expressions
//! to congruence classes then makes congruence finding a hash lookup.
//! Interning gives every distinct expression a stable [`ExprId`], so
//! expression equality — including the equality of block predicates needed
//! by φ-predication — is an integer comparison.

use crate::linear::LinearExpr;
use pgvn_ir::{BinOp, Block, CmpOp, EntityRef, UnOp, Value};
use std::collections::hash_map::RandomState;
use std::collections::HashMap;
use std::hash::{BuildHasher, BuildHasherDefault, Hasher};

/// An interned expression reference.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ExprId(u32);

impl ExprId {
    /// The raw index.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Constructs an id from a raw index. Only meaningful with the
    /// interner that produced the index; exposed for tests and debugging.
    #[doc(hidden)]
    pub fn from_raw(raw: u32) -> Self {
        ExprId(raw)
    }
}

impl std::fmt::Display for ExprId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "x{}", self.0)
    }
}

/// Expression ids are dense per-run indices, so they key the dense
/// entity maps (`EntitySet`, flat vectors) used by the session context.
impl pgvn_ir::EntityRef for ExprId {
    #[inline]
    fn new(index: usize) -> Self {
        debug_assert!(index < u32::MAX as usize);
        ExprId(index as u32)
    }

    #[inline]
    fn index(self) -> usize {
        self.0 as usize
    }
}

/// The distinguishing context of a φ expression (§2.2, §2.8): a φ's
/// expression carries either its block or — when φ-predication computed
/// one — the block's predicate, which lets φs of *different* blocks with
/// congruent predicates fall into one congruence class.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum PhiKey {
    /// The φ's own block (no predicate available).
    Block(Block),
    /// The block's predicate expression.
    Pred(ExprId),
}

/// A canonical symbolic expression.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum ExprKind {
    /// An integer constant.
    Const(i64),
    /// An atomic value (a congruence class leader).
    Leader(Value),
    /// A value that is forcibly its own class: cyclic φs under balanced /
    /// pessimistic value numbering (§2.6), and SCCP-mode non-constants.
    Unique(Value),
    /// An opaque token (call/load); congruent only to itself.
    Opaque(u32),
    /// A reassociated linear combination (sum of products of leaders).
    Linear(LinearExpr),
    /// A non-reassociable operation over canonical operands.
    Op(BinOp, Vec<ExprId>),
    /// A unary operation that did not simplify.
    Un(UnOp, ExprId),
    /// A comparison with canonically ordered operands.
    Cmp(CmpOp, ExprId, ExprId),
    /// A φ-function: key plus one argument per (canonically ordered)
    /// reachable incoming edge.
    Phi(PhiKey, Vec<ExprId>),
    /// Conjunction of edge predicates along a path (φ-predication).
    PredAnd(Vec<ExprId>),
    /// Disjunction of path predicates of a block (φ-predication).
    PredOr(Vec<ExprId>),
}

/// The operator of a compound whose operands are a list of expressions;
/// lets [`Interner::intern_list`] look such a compound up from a
/// borrowed operand slice.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub(crate) enum ListOp {
    Op(BinOp),
    Phi(PhiKey),
    PredAnd,
    PredOr,
}

impl ListOp {
    fn kind(self, args: Vec<ExprId>) -> ExprKind {
        match self {
            ListOp::Op(op) => ExprKind::Op(op, args),
            ListOp::Phi(key) => ExprKind::Phi(key, args),
            ListOp::PredAnd => ExprKind::PredAnd(args),
            ListOp::PredOr => ExprKind::PredOr(args),
        }
    }
}

/// A borrowed view of an [`ExprKind`]: what the hash-cons table hashes
/// and compares, so a lookup never has to build an owned key.
#[derive(PartialEq, Eq, Hash)]
enum View<'a> {
    Const(i64),
    Leader(Value),
    Unique(Value),
    Opaque(u32),
    Linear(&'a LinearExpr),
    List(ListOp, &'a [ExprId]),
    Un(UnOp, ExprId),
    Cmp(CmpOp, ExprId, ExprId),
}

impl ExprKind {
    fn view(&self) -> View<'_> {
        match self {
            ExprKind::Const(c) => View::Const(*c),
            ExprKind::Leader(v) => View::Leader(*v),
            ExprKind::Unique(v) => View::Unique(*v),
            ExprKind::Opaque(t) => View::Opaque(*t),
            ExprKind::Linear(l) => View::Linear(l),
            ExprKind::Op(op, args) => View::List(ListOp::Op(*op), args),
            ExprKind::Un(op, a) => View::Un(*op, *a),
            ExprKind::Cmp(op, a, b) => View::Cmp(*op, *a, *b),
            ExprKind::Phi(key, args) => View::List(ListOp::Phi(*key), args),
            ExprKind::PredAnd(args) => View::List(ListOp::PredAnd, args),
            ExprKind::PredOr(args) => View::List(ListOp::PredOr, args),
        }
    }
}

/// The table's hasher: its keys are already keyed SipHash values of the
/// expressions, so it passes them through instead of hashing again.
#[derive(Debug, Default)]
struct PreHashed(u64);

impl Hasher for PreHashed {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, _: &[u8]) {
        unreachable!("the hash-cons table is keyed by u64 hashes only")
    }

    fn write_u64(&mut self, hash: u64) {
        self.0 = hash;
    }
}

/// The expression interner.
///
/// `Leader(v)` leaves — the most frequent lookup by far, since every
/// operand of every evaluation is one — are interned through a dense
/// per-value id table with no hashing. Every other kind is hashed once
/// with a per-interner keyed SipHash (`RandomState`, so clients cannot
/// choose colliding inputs) and found through the hash-cons table, which
/// maps that hash to the newest id carrying it; older ids with the same
/// 64-bit hash are chained. Lookups compare borrowed views, so a hit
/// allocates nothing and a miss stores its expression once. Both paths
/// hand out ids from the one arena in first-intern order and count hits
/// and misses alike.
#[derive(Debug, Default)]
pub struct Interner {
    table: HashMap<u64, ExprId, BuildHasherDefault<PreHashed>>,
    keys: RandomState,
    /// Per arena entry: the next older id in its hash chain.
    chain: Vec<Option<ExprId>>,
    /// `Leader(v)` ids by value index; `None` until first interned.
    leaves: Vec<Option<ExprId>>,
    kinds: Vec<ExprKind>,
    hits: u64,
    misses: u64,
    growths: u64,
}

impl Interner {
    /// Creates an empty interner.
    pub fn new() -> Self {
        Self::default()
    }

    /// Interns `kind`, returning its stable id.
    pub fn intern(&mut self, kind: ExprKind) -> ExprId {
        if let ExprKind::Leader(v) = kind {
            return self.leader(v);
        }
        let hash = self.keys.hash_one(kind.view());
        match self.find(hash, kind.view()) {
            Some(id) => id,
            None => self.insert(hash, kind),
        }
    }

    /// Interns the compound `op(args…)` from a borrowed operand list; the
    /// list is copied only when the compound is new.
    pub(crate) fn intern_list(&mut self, op: ListOp, args: &[ExprId]) -> ExprId {
        let view = View::List(op, args);
        let hash = self.keys.hash_one(&view);
        match self.find(hash, view) {
            Some(id) => id,
            None => self.insert(hash, op.kind(args.to_vec())),
        }
    }

    fn find(&mut self, hash: u64, view: View<'_>) -> Option<ExprId> {
        let mut next = self.table.get(&hash).copied();
        while let Some(id) = next {
            if self.kinds[id.index()].view() == view {
                self.hits += 1;
                return Some(id);
            }
            next = self.chain[id.index()];
        }
        None
    }

    fn insert(&mut self, hash: u64, kind: ExprKind) -> ExprId {
        self.misses += 1;
        let id = self.push(kind);
        let before = self.table.capacity();
        self.chain[id.index()] = self.table.insert(hash, id);
        if self.table.capacity() > before {
            self.growths += 1;
        }
        id
    }

    fn push(&mut self, kind: ExprKind) -> ExprId {
        let id = ExprId(self.kinds.len() as u32);
        self.kinds.push(kind);
        self.chain.push(None);
        id
    }

    /// Empties the interner, keeping its allocations: ids restart at 0
    /// and the hit/miss counters reset. Part of the session-context
    /// reset — a reused interner performs no per-run capacity growth
    /// once warm.
    pub fn clear(&mut self) {
        self.table.clear();
        self.chain.clear();
        self.leaves.clear();
        self.kinds.clear();
        self.hits = 0;
        self.misses = 0;
        self.growths = 0;
    }

    /// Capacity of the expression arena (amortization metric).
    pub fn expr_capacity(&self) -> usize {
        self.kinds.capacity()
    }

    /// Capacity of the hash-cons table (amortization metric).
    pub fn table_capacity(&self) -> usize {
        self.table.capacity()
    }

    /// Lookups answered by the hash-cons table.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Lookups that interned a fresh expression (equals [`Self::len`]).
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Hash-cons table capacity growths (rehashes) since the last
    /// [`Interner::clear`]. Zero on a warm session context whose table
    /// already fits the routine.
    pub fn growths(&self) -> u64 {
        self.growths
    }

    /// The expression for `id`.
    pub fn kind(&self, id: ExprId) -> &ExprKind {
        &self.kinds[id.index()]
    }

    /// Number of distinct expressions interned.
    pub fn len(&self) -> usize {
        self.kinds.len()
    }

    /// Returns `true` if nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.kinds.is_empty()
    }

    /// Shorthand: interns a constant.
    pub fn constant(&mut self, c: i64) -> ExprId {
        self.intern(ExprKind::Const(c))
    }

    /// Shorthand: interns a leader leaf (through the dense leaf table).
    pub fn leader(&mut self, v: Value) -> ExprId {
        let i = v.index();
        if let Some(Some(id)) = self.leaves.get(i) {
            self.hits += 1;
            return *id;
        }
        self.misses += 1;
        let id = self.push(ExprKind::Leader(v));
        if i >= self.leaves.len() {
            self.leaves.resize(i + 1, None);
        }
        self.leaves[i] = Some(id);
        id
    }

    /// Returns the constant if `id` is a constant (directly or as a
    /// degenerate linear expression).
    pub fn as_const(&self, id: ExprId) -> Option<i64> {
        match self.kind(id) {
            ExprKind::Const(c) => Some(*c),
            ExprKind::Linear(l) => l.as_const(),
            _ => None,
        }
    }

    /// Returns the value if `id` is a single-value leaf.
    pub fn as_value(&self, id: ExprId) -> Option<Value> {
        match self.kind(id) {
            ExprKind::Leader(v) => Some(*v),
            ExprKind::Linear(l) => l.as_single_value(),
            _ => None,
        }
    }

    /// Renders `id` for diagnostics.
    ///
    /// The walk uses an explicit work stack writing into one buffer:
    /// deep expressions (reassociated sums and predicate formulas chain
    /// through thousands of nodes) must not recurse, and per-node
    /// intermediate `String`s would make rendering quadratic.
    pub fn display(&self, id: ExprId) -> String {
        enum Task {
            Expr(ExprId),
            Lit(&'static str),
            Sep(String),
        }
        use std::fmt::Write;
        let mut out = String::new();
        let mut stack = vec![Task::Expr(id)];
        // Children are pushed in reverse so they pop in source order,
        // interleaved with the separators/closers that follow them.
        let push_args = |stack: &mut Vec<Task>, args: &[ExprId], sep: &'static str| {
            stack.push(Task::Lit(")"));
            for (i, &a) in args.iter().enumerate().rev() {
                stack.push(Task::Expr(a));
                if i > 0 {
                    stack.push(Task::Lit(sep));
                }
            }
        };
        while let Some(task) = stack.pop() {
            let id = match task {
                Task::Lit(s) => {
                    out.push_str(s);
                    continue;
                }
                Task::Sep(s) => {
                    out.push_str(&s);
                    continue;
                }
                Task::Expr(id) => id,
            };
            match self.kind(id) {
                ExprKind::Const(c) => {
                    let _ = write!(out, "{c}");
                }
                ExprKind::Leader(v) => {
                    let _ = write!(out, "{v}");
                }
                ExprKind::Unique(v) => {
                    let _ = write!(out, "unique({v})");
                }
                ExprKind::Opaque(t) => {
                    let _ = write!(out, "opaque({t})");
                }
                ExprKind::Linear(l) => {
                    for (i, t) in l.terms.iter().enumerate() {
                        if i > 0 {
                            out.push_str(" + ");
                        }
                        let _ = write!(out, "{}", t.coeff);
                        for f in &t.factors {
                            let _ = write!(out, "·{f}");
                        }
                    }
                    if l.constant != 0 || l.terms.is_empty() {
                        if !l.terms.is_empty() {
                            out.push_str(" + ");
                        }
                        let _ = write!(out, "{}", l.constant);
                    }
                }
                ExprKind::Op(op, args) => {
                    let _ = write!(out, "({op} ");
                    push_args(&mut stack, args, " ");
                }
                ExprKind::Un(op, a) => {
                    let _ = write!(out, "({op} ");
                    stack.push(Task::Lit(")"));
                    stack.push(Task::Expr(*a));
                }
                ExprKind::Cmp(op, a, b) => {
                    out.push('(');
                    stack.push(Task::Lit(")"));
                    stack.push(Task::Expr(*b));
                    stack.push(Task::Sep(format!(" {} ", op.symbol())));
                    stack.push(Task::Expr(*a));
                }
                ExprKind::Phi(key, args) => {
                    out.push_str("φ[");
                    match key {
                        PhiKey::Block(b) => {
                            let _ = write!(out, "{b}](");
                            push_args(&mut stack, args, ", ");
                        }
                        PhiKey::Pred(p) => {
                            push_args(&mut stack, args, ", ");
                            stack.push(Task::Lit("]("));
                            stack.push(Task::Expr(*p));
                        }
                    }
                }
                ExprKind::PredAnd(args) => {
                    out.push('(');
                    push_args(&mut stack, args, " ∧ ");
                }
                ExprKind::PredOr(args) => {
                    out.push('(');
                    push_args(&mut stack, args, " ∨ ");
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_idempotent() {
        let mut i = Interner::new();
        let a = i.constant(4);
        let b = i.constant(4);
        let c = i.constant(5);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(i.len(), 2);
    }

    #[test]
    fn leaves_share_the_arena_order_and_the_counters() {
        let mut i = Interner::new();
        let k = i.constant(7);
        let x = i.leader(Value::new(40));
        let y = i.intern(ExprKind::Leader(Value::new(3)));
        let cmp = i.intern(ExprKind::Cmp(CmpOp::Lt, x, y));
        // Ids come from one arena in first-intern order, whichever path.
        let ids: Vec<usize> = [k, x, y, cmp].iter().map(|e| e.index()).collect();
        assert_eq!(ids, [0, 1, 2, 3]);
        assert_eq!((i.hits(), i.misses()), (0, 4));
        assert_eq!(i.intern(ExprKind::Leader(Value::new(40))), x);
        assert_eq!(i.leader(Value::new(3)), y);
        assert_eq!((i.hits(), i.misses()), (2, 4));
        assert_eq!(i.kind(x), &ExprKind::Leader(Value::new(40)));
        assert_eq!(i.as_value(y), Some(Value::new(3)));
        i.clear();
        assert_eq!(i.leader(Value::new(3)), ExprId::from_raw(0), "clear forgets leaves");
        assert_eq!((i.hits(), i.misses()), (0, 1));
    }

    #[test]
    fn borrowed_lists_intern_like_owned_compounds() {
        let mut i = Interner::new();
        let x = i.leader(Value::new(1));
        let y = i.leader(Value::new(2));
        let owned = i.intern(ExprKind::PredOr(vec![x, y]));
        assert_eq!(i.intern_list(ListOp::PredOr, &[x, y]), owned);
        assert_ne!(i.intern_list(ListOp::PredAnd, &[x, y]), owned);
        let phi = i.intern_list(ListOp::Phi(PhiKey::Block(Block::new(3))), &[y, x]);
        assert_eq!(i.kind(phi), &ExprKind::Phi(PhiKey::Block(Block::new(3)), vec![y, x]));
        assert_eq!(i.intern(ExprKind::Phi(PhiKey::Block(Block::new(3)), vec![y, x])), phi);
        assert_eq!((i.hits(), i.misses()), (2, 5));
    }

    #[test]
    fn colliding_hashes_chain_to_distinct_ids() {
        // Force two different expressions onto one 64-bit hash.
        let mut i = Interner::new();
        let a = i.insert(7, ExprKind::Const(1));
        let b = i.insert(7, ExprKind::Opaque(1));
        assert_ne!(a, b);
        assert_eq!(i.find(7, ExprKind::Const(1).view()), Some(a));
        assert_eq!(i.find(7, ExprKind::Opaque(1).view()), Some(b));
        assert_eq!(i.find(7, ExprKind::Const(2).view()), None);
        assert_eq!(i.find(8, ExprKind::Const(1).view()), None);
        assert_eq!((i.hits(), i.misses()), (2, 2));
    }

    #[test]
    fn structural_equality_of_compounds() {
        let mut i = Interner::new();
        let x = i.leader(Value::new(1));
        let y = i.leader(Value::new(2));
        let e1 = i.intern(ExprKind::Cmp(CmpOp::Lt, x, y));
        let e2 = i.intern(ExprKind::Cmp(CmpOp::Lt, x, y));
        let e3 = i.intern(ExprKind::Cmp(CmpOp::Lt, y, x));
        assert_eq!(e1, e2);
        assert_ne!(e1, e3);
    }

    #[test]
    fn linear_exprs_intern_canonically() {
        let mut i = Interner::new();
        let x = LinearExpr::from_value(Value::new(1));
        let y = LinearExpr::from_value(Value::new(2));
        let a = i.intern(ExprKind::Linear(x.add(&y)));
        let b = i.intern(ExprKind::Linear(y.add(&x)));
        assert_eq!(a, b);
    }

    #[test]
    fn as_const_and_as_value_helpers() {
        let mut i = Interner::new();
        let c = i.constant(9);
        assert_eq!(i.as_const(c), Some(9));
        assert_eq!(i.as_value(c), None);
        let lc = i.intern(ExprKind::Linear(LinearExpr::from_const(9)));
        assert_eq!(i.as_const(lc), Some(9));
        let v = i.leader(Value::new(3));
        assert_eq!(i.as_value(v), Some(Value::new(3)));
        let lv = i.intern(ExprKind::Linear(LinearExpr::from_value(Value::new(3))));
        assert_eq!(i.as_value(lv), Some(Value::new(3)));
    }

    #[test]
    fn phi_keys_distinguish_blocks() {
        let mut i = Interner::new();
        let x = i.leader(Value::new(1));
        let p1 = i.intern(ExprKind::Phi(PhiKey::Block(Block::new(1)), vec![x, x]));
        let p2 = i.intern(ExprKind::Phi(PhiKey::Block(Block::new(2)), vec![x, x]));
        assert_ne!(p1, p2, "φs in different blocks must not collide");
        let pred = i.constant(1);
        let p3 = i.intern(ExprKind::Phi(PhiKey::Pred(pred), vec![x, x]));
        let p4 = i.intern(ExprKind::Phi(PhiKey::Pred(pred), vec![x, x]));
        assert_eq!(p3, p4, "φs with congruent predicates collide");
    }

    #[test]
    fn display_walks_deep_chains_without_recursion() {
        // A ~10k-deep chain: the old recursive renderer overflowed the
        // stack (and was quadratic in intermediate strings) on inputs
        // like this long before real reassociated sums hit it.
        const DEPTH: usize = 10_000;
        let mut i = Interner::new();
        let mut e = i.constant(0);
        for _ in 0..DEPTH {
            e = i.intern(ExprKind::Un(pgvn_ir::UnOp::Neg, e));
        }
        let s = i.display(e);
        assert_eq!(s.matches('(').count(), DEPTH);
        assert_eq!(s.matches(')').count(), DEPTH);
        assert!(s.ends_with(&format!("0{}", ")".repeat(DEPTH))));
    }

    #[test]
    fn display_interleaves_nested_compounds() {
        let mut i = Interner::new();
        let x = i.leader(Value::new(1));
        let y = i.leader(Value::new(2));
        let c = i.constant(3);
        let cmp = i.intern(ExprKind::Cmp(CmpOp::Lt, x, c));
        let cmp2 = i.intern(ExprKind::Cmp(CmpOp::Eq, y, c));
        let and = i.intern(ExprKind::PredAnd(vec![cmp, cmp2]));
        let or = i.intern(ExprKind::PredOr(vec![and, cmp]));
        assert_eq!(i.display(or), "(((v1 < 3) ∧ (v2 == 3)) ∨ (v1 < 3))");
        let phi = i.intern(ExprKind::Phi(PhiKey::Pred(cmp), vec![x, y]));
        assert_eq!(i.display(phi), "φ[(v1 < 3)](v1, v2)");
        let phi_b = i.intern(ExprKind::Phi(PhiKey::Block(Block::new(4)), vec![x, y]));
        assert_eq!(i.display(phi_b), "φ[bb4](v1, v2)");
        let neg = i.intern(ExprKind::Un(pgvn_ir::UnOp::Neg, x));
        let op = i.intern(ExprKind::Op(BinOp::Mul, vec![neg, y]));
        assert_eq!(i.display(op), format!("({} ({} v1) v2)", BinOp::Mul, pgvn_ir::UnOp::Neg));
    }

    #[test]
    fn clear_keeps_allocations_and_restarts_ids() {
        let mut i = Interner::new();
        for k in 0..100 {
            i.constant(k);
        }
        assert_eq!(i.len(), 100);
        assert!(i.growths() > 0, "a cold table grows while filling");
        let exprs = i.expr_capacity();
        let table = i.table_capacity();
        i.clear();
        assert!(i.is_empty());
        assert_eq!(i.hits(), 0);
        assert_eq!(i.misses(), 0);
        assert_eq!(i.growths(), 0);
        assert_eq!(i.expr_capacity(), exprs, "clear must keep the arena");
        assert_eq!(i.table_capacity(), table, "clear must keep the table");
        assert_eq!(i.constant(42), ExprId::from_raw(0), "ids restart at 0");
        // Refilling a warm table performs no capacity growth.
        i.clear();
        for k in 0..100 {
            i.constant(k);
        }
        assert_eq!(i.growths(), 0, "warm table must not regrow");
    }

    #[test]
    fn display_is_readable() {
        let mut i = Interner::new();
        let x = i.leader(Value::new(1));
        let c = i.constant(3);
        let cmp = i.intern(ExprKind::Cmp(CmpOp::Le, c, x));
        assert_eq!(i.display(cmp), "(3 <= v1)");
        let lin = i.intern(ExprKind::Linear(LinearExpr::from_value(Value::new(1)).scale(2)));
        assert_eq!(i.display(lin), "2·v1");
    }
}
