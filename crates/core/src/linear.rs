//! The canonical arithmetic form used by global reassociation (§2.2).
//!
//! "The canonical form of an arithmetic expression is a sum of products of
//! values, where sums and products are represented by ordered lists." A
//! [`LinearExpr`] is `constant + Σ coeffᵢ·Πⱼ factorᵢⱼ`:
//!
//! - factors within a product are ordered by increasing rank (constants
//!   would be rank 0, but constants are folded into the coefficient);
//! - terms are ordered by their factor lists, so that "values and products
//!   of values that differ only in sign are treated as equal when ordering
//!   lists" — the sign lives in the coefficient, which the ordering
//!   ignores;
//! - coefficients use wrapping arithmetic, matching the IR semantics, so
//!   reassociation is sound even at the i64 boundaries.
//!
//! Forward propagation is cancelled when an expression grows beyond the
//! configured operand limit (§2.2 footnote 4); see [`LinearExpr::size`].

use pgvn_ir::Value;
use std::cmp::Ordering;
use std::hash::{Hash, Hasher};
use std::ops::{Deref, DerefMut};

/// Factors a [`Factors`] list holds without a heap allocation.
const INLINE_FACTORS: usize = 3;

/// A product's factor list: up to three factors stored inline, longer
/// lists spilled to the heap. Almost every product in practice has one
/// or two factors, so cloning a term — which reassociation does on every
/// evaluation — allocates nothing.
///
/// Equality, ordering and hashing are those of the `[Value]` slice, so a
/// `Factors` orders exactly like the `Vec<Value>` it replaces.
#[derive(Clone)]
pub struct Factors(Repr);

#[derive(Clone)]
enum Repr {
    Inline(u8, [Value; INLINE_FACTORS]),
    Heap(Vec<Value>),
}

impl Factors {
    /// An empty factor list.
    pub fn new() -> Self {
        Factors(Repr::Inline(0, [Value::from_u32(0); INLINE_FACTORS]))
    }

    /// Appends `v`, spilling to the heap past the inline capacity.
    pub fn push(&mut self, v: Value) {
        match &mut self.0 {
            Repr::Inline(len, buf) if usize::from(*len) < INLINE_FACTORS => {
                buf[usize::from(*len)] = v;
                *len += 1;
            }
            Repr::Inline(_, buf) => {
                let mut heap = Vec::with_capacity(2 * INLINE_FACTORS);
                heap.extend_from_slice(buf);
                heap.push(v);
                self.0 = Repr::Heap(heap);
            }
            Repr::Heap(heap) => heap.push(v),
        }
    }

    /// `true` once the list has outgrown its inline storage.
    pub fn spilled(&self) -> bool {
        matches!(self.0, Repr::Heap(_))
    }
}

impl Default for Factors {
    fn default() -> Self {
        Self::new()
    }
}

impl Deref for Factors {
    type Target = [Value];

    fn deref(&self) -> &[Value] {
        match &self.0 {
            Repr::Inline(len, buf) => &buf[..usize::from(*len)],
            Repr::Heap(heap) => heap,
        }
    }
}

impl DerefMut for Factors {
    fn deref_mut(&mut self) -> &mut [Value] {
        match &mut self.0 {
            Repr::Inline(len, buf) => &mut buf[..usize::from(*len)],
            Repr::Heap(heap) => heap,
        }
    }
}

impl FromIterator<Value> for Factors {
    fn from_iter<I: IntoIterator<Item = Value>>(iter: I) -> Self {
        let mut f = Factors::new();
        for v in iter {
            f.push(v);
        }
        f
    }
}

impl From<&[Value]> for Factors {
    fn from(vs: &[Value]) -> Self {
        vs.iter().copied().collect()
    }
}

impl From<Vec<Value>> for Factors {
    fn from(vs: Vec<Value>) -> Self {
        vs.as_slice().into()
    }
}

impl<'a> IntoIterator for &'a Factors {
    type Item = &'a Value;
    type IntoIter = std::slice::Iter<'a, Value>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

impl PartialEq for Factors {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

impl Eq for Factors {}

impl PartialOrd for Factors {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Factors {
    fn cmp(&self, other: &Self) -> Ordering {
        (**self).cmp(&**other)
    }
}

impl Hash for Factors {
    fn hash<H: Hasher>(&self, state: &mut H) {
        (**self).hash(state);
    }
}

impl std::fmt::Debug for Factors {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        (**self).fmt(f)
    }
}

/// One product term: `coeff · factors[0] · factors[1] · …`.
#[derive(Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Term {
    /// The factor list, sorted by `(rank, value index)`; may repeat a
    /// value (powers).
    pub factors: Factors,
    /// The wrapping integer coefficient.
    pub coeff: i64,
}

/// A linear combination in canonical form.
#[derive(Clone, Debug, Default, PartialEq, Eq, Hash)]
pub struct LinearExpr {
    /// Terms ordered by factor list; no term has `coeff == 0` or an empty
    /// factor list (the constant lives in `constant`).
    pub terms: Vec<Term>,
    /// The constant part.
    pub constant: i64,
}

impl LinearExpr {
    /// The constant `c`.
    pub fn from_const(c: i64) -> Self {
        LinearExpr { terms: Vec::new(), constant: c }
    }

    /// The single value `v` (coefficient 1).
    pub fn from_value(v: Value) -> Self {
        LinearExpr { terms: vec![Term { factors: Factors::from(&[v][..]), coeff: 1 }], constant: 0 }
    }

    /// Returns `Some(c)` if the expression is the constant `c`.
    pub fn as_const(&self) -> Option<i64> {
        self.terms.is_empty().then_some(self.constant)
    }

    /// Returns `Some(v)` if the expression is exactly `1·v`.
    pub fn as_single_value(&self) -> Option<Value> {
        match (&self.terms[..], self.constant) {
            ([t], 0) if t.coeff == 1 && t.factors.len() == 1 => Some(t.factors[0]),
            _ => None,
        }
    }

    /// The size used against the forward-propagation limit: total number
    /// of factors across terms, plus one per term.
    pub fn size(&self) -> usize {
        self.terms.iter().map(|t| t.factors.len() + 1).sum()
    }

    /// Normalizes in place: sorts terms, merges equal factor lists, drops
    /// zero coefficients. Factor lists inside terms must already be
    /// sorted.
    fn normalize(mut self) -> Self {
        self.terms.sort();
        self.terms.dedup_by(|t, kept| {
            let same = t.factors == kept.factors;
            if same {
                kept.coeff = kept.coeff.wrapping_add(t.coeff);
            }
            same
        });
        self.terms.retain(|t| t.coeff != 0);
        self
    }

    /// `self + other`.
    pub fn add(&self, other: &LinearExpr) -> LinearExpr {
        let mut terms = Vec::with_capacity(self.terms.len() + other.terms.len());
        terms.extend_from_slice(&self.terms);
        terms.extend_from_slice(&other.terms);
        LinearExpr { terms, constant: self.constant.wrapping_add(other.constant) }.normalize()
    }

    /// `self - other`.
    pub fn sub(&self, other: &LinearExpr) -> LinearExpr {
        self.add(&other.neg())
    }

    /// `-self`.
    pub fn neg(&self) -> LinearExpr {
        LinearExpr {
            terms: self
                .terms
                .iter()
                .map(|t| Term { factors: t.factors.clone(), coeff: t.coeff.wrapping_neg() })
                .collect(),
            constant: self.constant.wrapping_neg(),
        }
    }

    /// `self · k`.
    pub fn scale(&self, k: i64) -> LinearExpr {
        if k == 0 {
            return LinearExpr::from_const(0);
        }
        LinearExpr {
            terms: self
                .terms
                .iter()
                .map(|t| Term { factors: t.factors.clone(), coeff: t.coeff.wrapping_mul(k) })
                .collect(),
            constant: self.constant.wrapping_mul(k),
        }
        .normalize()
    }

    /// `self · other`, distributing multiplication over addition. The
    /// factor lists of product terms are re-sorted with `rank`.
    pub fn mul(&self, other: &LinearExpr, rank: &dyn Fn(Value) -> u32) -> LinearExpr {
        let n = other.terms.len() + self.terms.len() * (1 + other.terms.len());
        let mut acc = LinearExpr {
            terms: Vec::with_capacity(n),
            constant: self.constant.wrapping_mul(other.constant),
        };
        // constant × other.terms and self.terms × constant
        for t in &other.terms {
            acc.terms.push(Term {
                factors: t.factors.clone(),
                coeff: t.coeff.wrapping_mul(self.constant),
            });
        }
        for t in &self.terms {
            acc.terms.push(Term {
                factors: t.factors.clone(),
                coeff: t.coeff.wrapping_mul(other.constant),
            });
        }
        for a in &self.terms {
            for b in &other.terms {
                let mut factors: Factors =
                    a.factors.iter().chain(b.factors.iter()).copied().collect();
                factors.sort_by_key(|&v| (rank(v), v));
                acc.terms.push(Term { factors, coeff: a.coeff.wrapping_mul(b.coeff) });
            }
        }
        acc.normalize()
    }

    /// Evaluates the expression under a concrete assignment of values.
    /// Used by tests to check reassociation against direct evaluation.
    pub fn eval(&self, assign: &dyn Fn(Value) -> i64) -> i64 {
        let mut total = self.constant;
        for t in &self.terms {
            let mut p = t.coeff;
            for &f in &t.factors {
                p = p.wrapping_mul(assign(f));
            }
            total = total.wrapping_add(p);
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pgvn_ir::EntityRef;

    fn v(i: usize) -> Value {
        Value::new(i)
    }

    fn id_rank(x: Value) -> u32 {
        x.index() as u32
    }

    #[test]
    fn constants_fold() {
        let a = LinearExpr::from_const(3);
        let b = LinearExpr::from_const(4);
        assert_eq!(a.add(&b).as_const(), Some(7));
        assert_eq!(a.sub(&b).as_const(), Some(-1));
        assert_eq!(a.mul(&b, &id_rank).as_const(), Some(12));
        assert_eq!(a.neg().as_const(), Some(-3));
    }

    #[test]
    fn x_plus_y_commutes() {
        let x = LinearExpr::from_value(v(2));
        let y = LinearExpr::from_value(v(1));
        assert_eq!(x.add(&y), y.add(&x));
    }

    #[test]
    fn x_minus_x_is_zero() {
        let x = LinearExpr::from_value(v(1));
        assert_eq!(x.sub(&x).as_const(), Some(0));
    }

    #[test]
    fn addition_is_associative() {
        let (x, y, z) = (
            LinearExpr::from_value(v(1)),
            LinearExpr::from_value(v(2)),
            LinearExpr::from_value(v(3)),
        );
        assert_eq!(x.add(&y).add(&z), x.add(&y.add(&z)));
    }

    #[test]
    fn distribution_over_sum() {
        // (x + 1) * (x - 1) == x*x - 1
        let x = LinearExpr::from_value(v(1));
        let one = LinearExpr::from_const(1);
        let lhs = x.add(&one).mul(&x.sub(&one), &id_rank);
        let xx = x.mul(&x, &id_rank);
        assert_eq!(lhs, xx.sub(&one));
        assert_eq!(lhs.terms.len(), 1);
        assert_eq!(&lhs.terms[0].factors[..], &[v(1), v(1)]);
        assert_eq!(lhs.constant, -1);
    }

    #[test]
    fn single_value_detection() {
        let x = LinearExpr::from_value(v(5));
        assert_eq!(x.as_single_value(), Some(v(5)));
        assert_eq!(x.scale(2).as_single_value(), None);
        assert_eq!(x.add(&LinearExpr::from_const(1)).as_single_value(), None);
        let back = x.scale(2).sub(&x);
        assert_eq!(back.as_single_value(), Some(v(5)));
    }

    #[test]
    fn factor_order_follows_rank() {
        // With rank(v3) < rank(v1), v1*v3 must store [v3, v1].
        let rank = |x: Value| if x == v(3) { 1 } else { 9 };
        let a = LinearExpr::from_value(v(1));
        let b = LinearExpr::from_value(v(3));
        let p = a.mul(&b, &rank);
        assert_eq!(&p.terms[0].factors[..], &[v(3), v(1)]);
        // Multiplication commutes because of the ordering.
        assert_eq!(p, b.mul(&a, &rank));
    }

    #[test]
    fn wrapping_coefficients() {
        let x = LinearExpr::from_value(v(1));
        let big = x.scale(i64::MAX);
        let sum = big.add(&x); // (MAX + 1) x = MIN x
        assert_eq!(sum.terms[0].coeff, i64::MIN);
    }

    #[test]
    fn eval_matches_structure() {
        // 2*x*y - 3*z + 7 at x=2,y=5,z=1 → 20 - 3 + 7 = 24
        let (x, y, z) = (
            LinearExpr::from_value(v(1)),
            LinearExpr::from_value(v(2)),
            LinearExpr::from_value(v(3)),
        );
        let e = x.mul(&y, &id_rank).scale(2).sub(&z.scale(3)).add(&LinearExpr::from_const(7));
        let assign = |w: Value| match w.index() {
            1 => 2,
            2 => 5,
            3 => 1,
            _ => 0,
        };
        assert_eq!(e.eval(&assign), 24);
    }

    #[test]
    fn size_counts_terms_and_factors() {
        let x = LinearExpr::from_value(v(1));
        let y = LinearExpr::from_value(v(2));
        assert_eq!(x.size(), 2);
        assert_eq!(x.add(&y).size(), 4);
        assert_eq!(x.mul(&y, &id_rank).size(), 3);
        assert_eq!(LinearExpr::from_const(5).size(), 0);
    }

    #[test]
    fn zero_scale_collapses() {
        let x = LinearExpr::from_value(v(1));
        assert_eq!(x.scale(0).as_const(), Some(0));
        assert_eq!(x.mul(&LinearExpr::from_const(0), &id_rank).as_const(), Some(0));
    }

    #[test]
    fn factors_spill_past_three_and_keep_their_order() {
        let mut f = Factors::new();
        for i in 0..6 {
            f.push(v(10 - i));
            assert_eq!(f.spilled(), i >= 3, "after {} factors", i + 1);
            assert_eq!(f.len(), i + 1);
        }
        let want: Vec<Value> = (0..6).map(|i| v(10 - i)).collect();
        assert_eq!(&f[..], &want[..]);
        f.sort();
        assert_eq!(&f[..], &[v(5), v(6), v(7), v(8), v(9), v(10)]);
        assert_eq!(f, Factors::from(&[v(5), v(6), v(7), v(8), v(9), v(10)][..]));
    }

    #[test]
    fn a_fourth_power_spills_and_multiplies_out() {
        // (x·x)·(x·x) = x⁴: the product of two inline lists spills.
        let x = LinearExpr::from_value(v(1));
        let x2 = x.mul(&x, &id_rank);
        let x4 = x2.mul(&x2, &id_rank);
        assert!(!x2.terms[0].factors.spilled());
        assert!(x4.terms[0].factors.spilled());
        assert_eq!(&x4.terms[0].factors[..], &[v(1); 4]);
        assert_eq!(x4, x.mul(&x.mul(&x2, &id_rank), &id_rank));
        assert_eq!(x4.size(), 5);
        assert_eq!(x4.eval(&|_| 3), 81);
    }

    #[test]
    fn factors_hash_and_order_like_the_vec_they_replace() {
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        fn hash<T: Hash + ?Sized>(t: &T) -> u64 {
            let mut h = DefaultHasher::new();
            t.hash(&mut h);
            h.finish()
        }
        let short = vec![v(1), v(2), v(3)];
        let long = vec![v(1), v(2), v(3), v(4)];
        let (inline, spilled) = (Factors::from(short.clone()), Factors::from(long.clone()));
        assert!(!inline.spilled() && spilled.spilled());
        assert_eq!(hash(&inline), hash(&short));
        assert_eq!(hash(&spilled), hash(&long));
        assert!(inline < spilled, "a prefix orders first, as with Vec");
        assert_eq!(format!("{inline:?}"), format!("{short:?}"));
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use pgvn_ir::EntityRef;
    use proptest::prelude::*;

    fn id_rank(x: Value) -> u32 {
        x.index() as u32
    }

    /// A sorted factor list over v0..v4 with 1–6 factors: repeats are
    /// powers, and lists past three factors take the spill path.
    fn arb_factors() -> impl Strategy<Value = Vec<Value>> {
        proptest::collection::vec(0usize..5, 1..7).prop_map(|mut ids| {
            ids.sort_unstable();
            ids.into_iter().map(Value::new).collect()
        })
    }

    /// A small random linear expression over values v0..v4.
    fn arb_linear() -> impl Strategy<Value = LinearExpr> {
        let term = (arb_factors(), -4i64..5)
            .prop_map(|(factors, coeff)| Term { factors: factors.into(), coeff });
        (proptest::collection::vec(term, 0..4), -100i64..100).prop_map(|(terms, constant)| {
            LinearExpr { terms, constant }.add(&LinearExpr::from_const(0)) // normalize
        })
    }

    fn arb_assign() -> impl Strategy<Value = [i64; 5]> {
        proptest::array::uniform5(-7i64..8)
    }

    proptest! {
        #[test]
        fn add_commutes(a in arb_linear(), b in arb_linear()) {
            prop_assert_eq!(a.add(&b), b.add(&a));
        }

        #[test]
        fn add_associates(a in arb_linear(), b in arb_linear(), c in arb_linear()) {
            prop_assert_eq!(a.add(&b).add(&c), a.add(&b.add(&c)));
        }

        #[test]
        fn mul_commutes(a in arb_linear(), b in arb_linear()) {
            prop_assert_eq!(a.mul(&b, &id_rank), b.mul(&a, &id_rank));
        }

        #[test]
        fn mul_distributes_over_add(a in arb_linear(), b in arb_linear(), c in arb_linear()) {
            let lhs = a.mul(&b.add(&c), &id_rank);
            let rhs = a.mul(&b, &id_rank).add(&a.mul(&c, &id_rank));
            prop_assert_eq!(lhs, rhs);
        }

        #[test]
        fn sub_then_add_roundtrips(a in arb_linear(), b in arb_linear()) {
            prop_assert_eq!(a.sub(&b).add(&b), a);
        }

        #[test]
        fn eval_respects_structure(a in arb_linear(), b in arb_linear(), vals in arb_assign()) {
            let assign = |v: Value| vals[v.index() % 5];
            prop_assert_eq!(a.add(&b).eval(&assign), a.eval(&assign).wrapping_add(b.eval(&assign)));
            prop_assert_eq!(a.sub(&b).eval(&assign), a.eval(&assign).wrapping_sub(b.eval(&assign)));
            prop_assert_eq!(a.mul(&b, &id_rank).eval(&assign), a.eval(&assign).wrapping_mul(b.eval(&assign)));
            prop_assert_eq!(a.neg().eval(&assign), a.eval(&assign).wrapping_neg());
        }

        #[test]
        fn term_order_is_lexicographic_vec_order(
            fa in arb_factors(), ca in -4i64..5, fb in arb_factors(), cb in -4i64..5,
        ) {
            let ta = Term { factors: fa.clone().into(), coeff: ca };
            let tb = Term { factors: fb.clone().into(), coeff: cb };
            prop_assert_eq!(ta.cmp(&tb), (&fa, ca).cmp(&(&fb, cb)));
            prop_assert_eq!(ta.factors.cmp(&tb.factors), fa.cmp(&fb));
            prop_assert_eq!(ta.factors == tb.factors, fa == fb);
            prop_assert_eq!(ta.factors.spilled(), fa.len() > 3);
        }

        #[test]
        fn powers_multiply_by_concatenation(fa in arb_factors(), fb in arb_factors()) {
            let ta = LinearExpr { terms: vec![Term { factors: fa.clone().into(), coeff: 1 }], constant: 0 };
            let tb = LinearExpr { terms: vec![Term { factors: fb.clone().into(), coeff: 1 }], constant: 0 };
            let mut want = fa;
            want.extend(fb);
            want.sort_unstable();
            let p = ta.mul(&tb, &id_rank);
            prop_assert_eq!(&p.terms[0].factors[..], &want[..]);
            prop_assert_eq!(p.size(), want.len() + 1);
        }

        #[test]
        fn normalization_is_canonical(a in arb_linear(), b in arb_linear(), vals in arb_assign()) {
            // Two syntactically different constructions of the same sum
            // normalize to the same structure.
            let one = a.add(&b);
            let two = b.add(&a);
            prop_assert_eq!(&one, &two);
            // And equal structures always evaluate equal.
            let assign = |v: Value| vals[v.index() % 5];
            prop_assert_eq!(one.eval(&assign), two.eval(&assign));
        }
    }
}
