//! Algebraic structures for sparse kernels.
//!
//! Cyclops lets the user attach a monoid or semiring to each tensor and
//! contraction; the paper uses this to express the Jaccard intersection
//! counts as `B["ij"] = popcount(A["ki"] & A["kj"])` — a matrix product
//! over the **popcount-AND semiring** on bit-packed words — and the filter
//! vector accumulation over a `(max, ×)` monoid. This module provides the
//! same abstraction: a [`Semiring`] describes the element-wise multiply
//! and the additive accumulation of a (possibly mixed-type) matrix
//! product.

use std::marker::PhantomData;

/// A commutative monoid: an associative binary operation with identity.
pub trait Monoid {
    /// Element type the monoid operates on.
    type Elem: Copy;
    /// The identity element.
    fn identity() -> Self::Elem;
    /// The associative combination.
    fn combine(a: Self::Elem, b: Self::Elem) -> Self::Elem;
}

/// Addition monoid over a numeric type.
#[derive(Debug, Clone, Copy, Default)]
pub struct SumMonoid<T>(PhantomData<T>);

macro_rules! impl_sum_monoid {
    ($($t:ty),*) => {$(
        impl Monoid for SumMonoid<$t> {
            type Elem = $t;
            fn identity() -> $t { 0 as $t }
            fn combine(a: $t, b: $t) -> $t { a + b }
        }
    )*};
}
impl_sum_monoid!(u8, u16, u32, u64, usize, i32, i64, f32, f64);

/// Maximum monoid over a numeric type (the `(max, ×)` structure used for
/// the filter-vector writes: an entry is 1 if *any* rank wrote 1).
#[derive(Debug, Clone, Copy, Default)]
pub struct MaxMonoid<T>(PhantomData<T>);

macro_rules! impl_max_monoid {
    ($($t:ty),*) => {$(
        impl Monoid for MaxMonoid<$t> {
            type Elem = $t;
            fn identity() -> $t { <$t>::MIN }
            fn combine(a: $t, b: $t) -> $t { if a >= b { a } else { b } }
        }
    )*};
}
impl_max_monoid!(u8, u16, u32, u64, usize, i32, i64);

/// Logical-or monoid over booleans.
#[derive(Debug, Clone, Copy, Default)]
pub struct OrMonoid;

impl Monoid for OrMonoid {
    type Elem = bool;
    fn identity() -> bool {
        false
    }
    fn combine(a: bool, b: bool) -> bool {
        a || b
    }
}

/// A semiring for a matrix product `C[i][j] ⊕= A[i][k] ⊗ B[k][j]` with
/// possibly different input and output element types.
pub trait Semiring {
    /// Element type of the left operand.
    type Left: Copy;
    /// Element type of the right operand.
    type Right: Copy;
    /// Element type of the accumulator / output.
    type Out: Copy;

    /// Additive identity of the output type.
    fn zero() -> Self::Out;
    /// The "multiplication" of the semiring.
    fn mul(a: Self::Left, b: Self::Right) -> Self::Out;
    /// The "addition" (accumulation) of the semiring.
    fn add(acc: Self::Out, x: Self::Out) -> Self::Out;

    /// The operand values an absent entry stands for, if `mul` of them is
    /// `zero()`: `Some((l, r))` promises `mul(l, b)` and `mul(a, r)` are
    /// `zero()` for every `a` and `b`, and that adding `zero()` leaves an
    /// accumulator unchanged. A kernel may then store an operand densely,
    /// with these values in its gaps. `None`, the default, keeps every
    /// kernel on the stored entries.
    fn absent_operands() -> Option<(Self::Left, Self::Right)> {
        None
    }
}

/// The ordinary `(+, ×)` semiring over a single numeric type.
#[derive(Debug, Clone, Copy, Default)]
pub struct PlusTimes<T>(PhantomData<T>);

macro_rules! impl_plus_times {
    ($($t:ty),*) => {$(
        impl Semiring for PlusTimes<$t> {
            type Left = $t;
            type Right = $t;
            type Out = $t;
            fn zero() -> $t { 0 as $t }
            fn mul(a: $t, b: $t) -> $t { a * b }
            fn add(acc: $t, x: $t) -> $t { acc + x }
        }
    )*};
}
impl_plus_times!(u8, u16, u32, u64, usize, i32, i64, f32, f64);

/// The boolean `(∨, ∧)` semiring.
#[derive(Debug, Clone, Copy, Default)]
pub struct OrAnd;

impl Semiring for OrAnd {
    type Left = bool;
    type Right = bool;
    type Out = bool;
    fn zero() -> bool {
        false
    }
    fn mul(a: bool, b: bool) -> bool {
        a && b
    }
    fn add(acc: bool, x: bool) -> bool {
        acc || x
    }
}

/// The popcount-AND semiring used by SimilarityAtScale on bit-packed rows:
/// inputs are `b`-bit masks (here `u64` words), the product of two masks is
/// the number of bit positions set in both, and products are accumulated
/// with ordinary addition (Eq. 7 of the paper).
#[derive(Debug, Clone, Copy, Default)]
pub struct PopcountAnd;

impl Semiring for PopcountAnd {
    type Left = u64;
    type Right = u64;
    type Out = u64;
    fn zero() -> u64 {
        0
    }
    fn mul(a: u64, b: u64) -> u64 {
        (a & b).count_ones() as u64
    }
    fn add(acc: u64, x: u64) -> u64 {
        acc + x
    }
    fn absent_operands() -> Option<(u64, u64)> {
        Some((0, 0))
    }
}

/// Fold an iterator of elements with a monoid.
pub fn fold_monoid<M: Monoid>(iter: impl IntoIterator<Item = M::Elem>) -> M::Elem {
    iter.into_iter().fold(M::identity(), M::combine)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sum_and_max_monoids() {
        assert_eq!(SumMonoid::<u64>::identity(), 0);
        assert_eq!(SumMonoid::<u64>::combine(3, 4), 7);
        assert_eq!(MaxMonoid::<u8>::combine(3, 4), 4);
        assert_eq!(MaxMonoid::<i64>::identity(), i64::MIN);
        assert!(OrMonoid::combine(false, true));
        assert!(!OrMonoid::identity());
    }

    #[test]
    fn fold_monoid_sums() {
        assert_eq!(fold_monoid::<SumMonoid<u32>>([1, 2, 3, 4]), 10);
        assert_eq!(fold_monoid::<MaxMonoid<u32>>([1, 7, 3]), 7);
        assert!(fold_monoid::<OrMonoid>([false, false, true]));
    }

    #[test]
    fn plus_times_is_ordinary_arithmetic() {
        assert_eq!(PlusTimes::<f64>::mul(2.0, 3.0), 6.0);
        assert_eq!(PlusTimes::<f64>::add(1.0, 6.0), 7.0);
        assert_eq!(PlusTimes::<u64>::zero(), 0);
    }

    #[test]
    fn or_and_semiring() {
        assert!(OrAnd::mul(true, true));
        assert!(!OrAnd::mul(true, false));
        assert!(OrAnd::add(false, true));
        assert!(!OrAnd::zero());
    }

    #[test]
    fn popcount_and_counts_shared_bits() {
        // 0b1011 & 0b1110 = 0b1010 -> 2 bits.
        assert_eq!(PopcountAnd::mul(0b1011, 0b1110), 2);
        assert_eq!(PopcountAnd::mul(u64::MAX, u64::MAX), 64);
        assert_eq!(PopcountAnd::mul(0, u64::MAX), 0);
        assert_eq!(PopcountAnd::add(5, 7), 12);
        assert_eq!(PopcountAnd::zero(), 0);
        // An absent word is 0, which annihilates every mask.
        let (left, right) = PopcountAnd::absent_operands().unwrap();
        for mask in [0, 0b1011, u64::MAX] {
            assert_eq!(PopcountAnd::mul(left, mask), 0);
            assert_eq!(PopcountAnd::mul(mask, right), 0);
        }
        assert_eq!(PlusTimes::<f64>::absent_operands(), None);
    }
}
