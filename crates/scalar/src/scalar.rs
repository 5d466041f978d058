//! The [`Scalar`] trait: the element type of all matrices and vectors.

use crate::C64;
use std::fmt::{Debug, Display};
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, DivAssign, Mul, MulAssign, Neg, Sub, SubAssign};

/// Field element used by every kernel in the workspace.
///
/// Implemented for `f64` (real problems: Poisson, elasticity) and [`C64`]
/// (time-harmonic Maxwell). Moduli, real parts and tolerances are `f64` for
/// both.
///
/// The convention throughout the workspace is the *mathematician's* inner
/// product: `dot(x, y) = Σ conj(xᵢ) yᵢ`, so `conj` below is what kernels call
/// on the left operand.
pub trait Scalar:
    Copy
    + Clone
    + Debug
    + Display
    + PartialEq
    + Default
    + Send
    + Sync
    + 'static
    + Add<Output = Self>
    + Sub<Output = Self>
    + Mul<Output = Self>
    + Div<Output = Self>
    + Neg<Output = Self>
    + AddAssign
    + SubAssign
    + MulAssign
    + DivAssign
    + Sum<Self>
{
    /// Additive identity.
    fn zero() -> Self;
    /// Multiplicative identity.
    fn one() -> Self;
    /// Complex conjugate (identity for real types).
    fn conj(self) -> Self;
    /// Real part.
    fn re(self) -> f64;
    /// Imaginary part (zero for real types).
    fn im(self) -> f64;
    /// Modulus.
    fn abs(self) -> f64;
    /// Squared modulus (`re² + im²`; avoids the square root).
    fn abs_sqr(self) -> f64;
    /// Principal square root.
    fn sqrt(self) -> Self;
    /// Embed a real value.
    fn from_f64(v: f64) -> Self;
    /// Build from real and imaginary `f64` parts (imaginary ignored for real types).
    fn from_parts(re: f64, im: f64) -> Self;
    /// True if finite.
    fn is_finite(self) -> bool;
    /// True when the type carries an imaginary component.
    fn is_complex() -> bool;
    /// Number of real words per scalar (1 or 2) — used by the communication
    /// cost model to convert element counts into bytes.
    fn real_words() -> usize {
        if Self::is_complex() {
            2
        } else {
            1
        }
    }
    /// The real components of `s` in memory order, [`Scalar::real_words`]
    /// per scalar: the slice itself for a real type, `re, im, re, im, …`
    /// for a complex one.
    fn reals(s: &[Self]) -> &[f64];
    /// Mutable form of [`Scalar::reals`]. Any values written through it are
    /// valid scalars: every pair of reals is a complex number.
    fn reals_mut(s: &mut [Self]) -> &mut [f64];
}

impl Scalar for f64 {
    #[inline(always)]
    fn zero() -> Self {
        0.0
    }
    #[inline(always)]
    fn one() -> Self {
        1.0
    }
    #[inline(always)]
    fn conj(self) -> Self {
        self
    }
    #[inline(always)]
    fn re(self) -> f64 {
        self
    }
    #[inline(always)]
    fn im(self) -> f64 {
        0.0
    }
    #[inline(always)]
    fn abs(self) -> f64 {
        f64::abs(self)
    }
    #[inline(always)]
    fn abs_sqr(self) -> f64 {
        self * self
    }
    #[inline(always)]
    fn sqrt(self) -> Self {
        f64::sqrt(self)
    }
    #[inline(always)]
    fn from_f64(v: f64) -> Self {
        v
    }
    #[inline(always)]
    fn from_parts(re: f64, _im: f64) -> Self {
        re
    }
    #[inline(always)]
    fn is_finite(self) -> bool {
        f64::is_finite(self)
    }
    #[inline(always)]
    fn is_complex() -> bool {
        false
    }
    #[inline(always)]
    fn reals(s: &[Self]) -> &[f64] {
        s
    }
    #[inline(always)]
    fn reals_mut(s: &mut [Self]) -> &mut [f64] {
        s
    }
}

impl Scalar for C64 {
    #[inline(always)]
    fn zero() -> Self {
        C64::zero()
    }
    #[inline(always)]
    fn one() -> Self {
        C64::one()
    }
    #[inline(always)]
    fn conj(self) -> Self {
        C64::conj(self)
    }
    #[inline(always)]
    fn re(self) -> f64 {
        self.re
    }
    #[inline(always)]
    fn im(self) -> f64 {
        self.im
    }
    #[inline(always)]
    fn abs(self) -> f64 {
        C64::abs(self)
    }
    #[inline(always)]
    fn abs_sqr(self) -> f64 {
        C64::norm_sqr(self)
    }
    #[inline(always)]
    fn sqrt(self) -> Self {
        C64::sqrt(self)
    }
    #[inline(always)]
    fn from_f64(v: f64) -> Self {
        C64::new(v, 0.0)
    }
    #[inline(always)]
    fn from_parts(re: f64, im: f64) -> Self {
        C64::new(re, im)
    }
    #[inline(always)]
    fn is_finite(self) -> bool {
        C64::is_finite(self)
    }
    #[inline(always)]
    fn is_complex() -> bool {
        true
    }
    #[inline(always)]
    fn reals(s: &[Self]) -> &[f64] {
        // SAFETY: `C64` is `repr(C)` with exactly two `f64` fields, so it has
        // the size of `[f64; 2]`, the alignment of `f64` and no padding:
        // `s.len()` of them are `2 * s.len()` initialised `f64`s in the same
        // allocation, borrowed for the same lifetime.
        unsafe { std::slice::from_raw_parts(s.as_ptr().cast(), 2 * s.len()) }
    }
    #[inline(always)]
    fn reals_mut(s: &mut [Self]) -> &mut [f64] {
        // SAFETY: as in `reals`; the borrow is unique, and any two `f64`s are
        // a valid `C64`.
        unsafe { std::slice::from_raw_parts_mut(s.as_mut_ptr().cast(), 2 * s.len()) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn generic_roundtrip<S: Scalar>() {
        let x = S::from_f64(2.0);
        assert_eq!(x.re(), 2.0);
        assert_eq!((x * x).re(), 4.0);
        assert_eq!(S::zero() + S::one(), S::one());
        assert!(x.is_finite());
        let n = x.abs_sqr();
        assert_eq!(n, 4.0);
    }

    #[test]
    fn scalar_impls_agree() {
        generic_roundtrip::<f64>();
        generic_roundtrip::<C64>();
    }

    #[test]
    fn complex_scalar_conjugation() {
        let z = C64::from_parts(1.0, 2.0);
        assert_eq!(z.conj(), C64::from_parts(1.0, -2.0));
        // conj(z) * z = |z|² (real)
        let p = z.conj() * z;
        assert!((p.re() - 5.0).abs() < 1e-14);
        assert!(p.im().abs() < 1e-14);
    }

    #[test]
    fn real_words() {
        assert_eq!(<f64 as Scalar>::real_words(), 1);
        assert_eq!(<C64 as Scalar>::real_words(), 2);
    }

    #[test]
    fn reals_view_is_the_components_in_memory_order() {
        let mut z = [C64::from_parts(1.0, -2.0), C64::from_parts(3.5, 0.25)];
        assert_eq!(C64::reals(&z), [1.0, -2.0, 3.5, 0.25]);
        C64::reals_mut(&mut z)[3] = 7.0;
        assert_eq!(z[1], C64::from_parts(3.5, 7.0));
        assert_eq!(C64::reals(&z[..0]), [0.0; 0]);
        let mut x = [1.0, 2.0];
        f64::reals_mut(&mut x)[0] = 4.0;
        assert_eq!(f64::reals(&x), [4.0, 2.0]);
    }
}
