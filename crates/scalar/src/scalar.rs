//! The [`Scalar`] trait: the element type of all matrices and vectors.

use crate::{Complex, Real};
use std::fmt::{Debug, Display};
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, DivAssign, Mul, MulAssign, Neg, Sub, SubAssign};

/// Field element used by every kernel in the workspace.
///
/// Implemented for `f32`, `f64` (real problems: Poisson, elasticity) and
/// [`Complex<f32>`], [`Complex<f64>`] (time-harmonic Maxwell).
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
    /// The associated real type (`f64` for both `f64` and `Complex<f64>`).
    type Real: Real;

    /// Additive identity.
    fn zero() -> Self;
    /// Multiplicative identity.
    fn one() -> Self;
    /// Complex conjugate (identity for real types).
    fn conj(self) -> Self;
    /// Real part.
    fn re(self) -> Self::Real;
    /// Imaginary part (zero for real types).
    fn im(self) -> Self::Real;
    /// Modulus.
    fn abs(self) -> Self::Real;
    /// Squared modulus (`re² + im²`; avoids the square root).
    fn abs_sqr(self) -> Self::Real;
    /// Principal square root.
    fn sqrt(self) -> Self;
    /// Embed a real value.
    fn from_real(r: Self::Real) -> Self;
    /// Embed an `f64` constant.
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
    fn reals(s: &[Self]) -> &[Self::Real];
    /// Mutable form of [`Scalar::reals`]. Any values written through it are
    /// valid scalars: every pair of reals is a complex number.
    fn reals_mut(s: &mut [Self]) -> &mut [Self::Real];
}

macro_rules! impl_scalar_real {
    ($t:ty) => {
        impl Scalar for $t {
            type Real = $t;

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
            fn re(self) -> Self::Real {
                self
            }
            #[inline(always)]
            fn im(self) -> Self::Real {
                0.0
            }
            #[inline(always)]
            fn abs(self) -> Self::Real {
                <$t>::abs(self)
            }
            #[inline(always)]
            fn abs_sqr(self) -> Self::Real {
                self * self
            }
            #[inline(always)]
            fn sqrt(self) -> Self {
                <$t>::sqrt(self)
            }
            #[inline(always)]
            fn from_real(r: Self::Real) -> Self {
                r
            }
            #[inline(always)]
            fn from_f64(v: f64) -> Self {
                v as $t
            }
            #[inline(always)]
            fn from_parts(re: f64, _im: f64) -> Self {
                re as $t
            }
            #[inline(always)]
            fn is_finite(self) -> bool {
                <$t>::is_finite(self)
            }
            #[inline(always)]
            fn is_complex() -> bool {
                false
            }
            #[inline(always)]
            fn reals(s: &[Self]) -> &[Self::Real] {
                s
            }
            #[inline(always)]
            fn reals_mut(s: &mut [Self]) -> &mut [Self::Real] {
                s
            }
        }
    };
}

impl_scalar_real!(f32);
impl_scalar_real!(f64);

impl<T: Real> Scalar for Complex<T> {
    type Real = T;

    #[inline(always)]
    fn zero() -> Self {
        Complex::zero()
    }
    #[inline(always)]
    fn one() -> Self {
        Complex::one()
    }
    #[inline(always)]
    fn conj(self) -> Self {
        Complex::conj(self)
    }
    #[inline(always)]
    fn re(self) -> T {
        self.re
    }
    #[inline(always)]
    fn im(self) -> T {
        self.im
    }
    #[inline(always)]
    fn abs(self) -> T {
        Complex::abs(self)
    }
    #[inline(always)]
    fn abs_sqr(self) -> T {
        Complex::norm_sqr(self)
    }
    #[inline(always)]
    fn sqrt(self) -> Self {
        Complex::sqrt(self)
    }
    #[inline(always)]
    fn from_real(r: T) -> Self {
        Complex::new(r, T::zero())
    }
    #[inline(always)]
    fn from_f64(v: f64) -> Self {
        Complex::new(T::from_f64(v), T::zero())
    }
    #[inline(always)]
    fn from_parts(re: f64, im: f64) -> Self {
        Complex::new(T::from_f64(re), T::from_f64(im))
    }
    #[inline(always)]
    fn is_finite(self) -> bool {
        Complex::is_finite(self)
    }
    #[inline(always)]
    fn is_complex() -> bool {
        true
    }
    #[inline(always)]
    fn reals(s: &[Self]) -> &[T] {
        // SAFETY: `Complex<T>` is `repr(C)` with exactly two `T` fields, so
        // it has the size of `[T; 2]`, the alignment of `T` and no padding:
        // `s.len()` of them are `2 * s.len()` initialised `T`s in the same
        // allocation, borrowed for the same lifetime.
        unsafe { std::slice::from_raw_parts(s.as_ptr().cast(), 2 * s.len()) }
    }
    #[inline(always)]
    fn reals_mut(s: &mut [Self]) -> &mut [T] {
        // SAFETY: as in `reals`; the borrow is unique, and any two `T`s are
        // a valid `Complex<T>`.
        unsafe { std::slice::from_raw_parts_mut(s.as_mut_ptr().cast(), 2 * s.len()) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::C64;

    fn generic_roundtrip<S: Scalar>() {
        let x = S::from_f64(2.0);
        assert_eq!(x.re().to_f64(), 2.0);
        assert_eq!((x * x).re().to_f64(), 4.0);
        assert_eq!(S::zero() + S::one(), S::one());
        assert!(x.is_finite());
        let n = x.abs_sqr();
        assert_eq!(n.to_f64(), 4.0);
    }

    #[test]
    fn scalar_impls_agree() {
        generic_roundtrip::<f32>();
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
        let mut x = [1.0f32, 2.0];
        f32::reals_mut(&mut x)[0] = 4.0;
        assert_eq!(f32::reals(&x), [4.0, 2.0]);
    }
}
