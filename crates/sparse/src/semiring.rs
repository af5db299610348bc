//! Algebraic structures for sparse kernels.
//!
//! Cyclops lets the user attach a semiring to each contraction; the paper
//! uses this to express the Jaccard intersection counts as
//! `B["ij"] = popcount(A["ki"] & A["kj"])` — a matrix product over the
//! **popcount-AND semiring** on bit-packed words. This module provides
//! the same abstraction: a [`Semiring`] describes the element-wise
//! multiply and the additive accumulation of a (possibly mixed-type)
//! matrix product. [`PopcountAnd`] is the paper's semiring and
//! [`PlusTimes`] the ordinary one the reference kernels are checked with.

use std::marker::PhantomData;

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

    /// Left operands, right operands and outputs as `u64` words, if
    /// `mul(a, b)` is the number of bits set in both words and `add` is
    /// `+` on output words. `Some` lets the kernels keep their sums in
    /// vector registers: the tiled body's register rows, and the `AᵀA`
    /// triangle's register-blocked body, which reads both factors of a
    /// product from the right operand (in `AᵀA` it is the left one too).
    /// `None`, the default, keeps every kernel on its generic loops.
    fn popcount_words<'a>(
        _left: &'a [Self::Left],
        _right: &'a [Self::Right],
        _out: &'a mut [Self::Out],
    ) -> Option<(&'a [u64], &'a [u64], &'a mut [u64])> {
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
    fn popcount_words<'a>(
        left: &'a [u64],
        right: &'a [u64],
        out: &'a mut [u64],
    ) -> Option<(&'a [u64], &'a [u64], &'a mut [u64])> {
        Some((left, right, out))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plus_times_is_ordinary_arithmetic() {
        assert_eq!(PlusTimes::<f64>::mul(2.0, 3.0), 6.0);
        assert_eq!(PlusTimes::<f64>::add(1.0, 6.0), 7.0);
        assert_eq!(PlusTimes::<u64>::zero(), 0);
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
        // Only the popcount-AND semiring hands its words to the register
        // bodies.
        let (left, words, mut out) = ([9u64], [3u64, 5], [7u64]);
        let (a, b, sums) = PopcountAnd::popcount_words(&left, &words, &mut out).unwrap();
        assert_eq!((a, b, &*sums), (&left[..], &words[..], &[7][..]));
        assert!(PlusTimes::<u64>::popcount_words(&left, &words, &mut [7]).is_none());
    }
}
