//! A minimal complex-number type.
//!
//! `num-complex` is not in the approved offline crate list, so the workspace
//! carries its own implementation. Only the operations needed by the dense
//! and sparse kernels are provided; the layout is `repr(C)` so a slice of
//! `Complex<T>` is also a slice of interleaved re/im pairs
//! ([`crate::Scalar::reals`]).

use crate::Real;
use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, DivAssign, Mul, MulAssign, Neg, Sub, SubAssign};

/// Cartesian complex number over a [`Real`] component type.
#[derive(Copy, Clone, PartialEq, Default)]
#[repr(C)]
pub struct Complex<T> {
    /// Real part.
    pub re: T,
    /// Imaginary part.
    pub im: T,
}

impl<T: Real> Complex<T> {
    /// Create a complex number from real and imaginary parts.
    #[inline(always)]
    pub fn new(re: T, im: T) -> Self {
        Self { re, im }
    }

    /// The additive identity `0 + 0i`.
    #[inline(always)]
    pub fn zero() -> Self {
        Self::new(T::zero(), T::zero())
    }

    /// The multiplicative identity `1 + 0i`.
    #[inline(always)]
    pub fn one() -> Self {
        Self::new(T::one(), T::zero())
    }

    /// The imaginary unit `i`.
    #[inline(always)]
    pub fn i() -> Self {
        Self::new(T::zero(), T::one())
    }

    /// Complex conjugate.
    #[inline(always)]
    pub fn conj(self) -> Self {
        Self::new(self.re, -self.im)
    }

    /// Modulus `|z|`, computed robustly with `hypot`.
    #[inline(always)]
    pub fn abs(self) -> T {
        self.re.hypot(self.im)
    }

    /// Squared modulus `|z|²` (no square root).
    #[inline(always)]
    pub fn norm_sqr(self) -> T {
        self.re * self.re + self.im * self.im
    }

    /// Multiplicative inverse `1/z` using Smith's algorithm for robustness.
    #[inline]
    pub fn recip(self) -> Self {
        // Smith's algorithm avoids overflow/underflow of the naive formula.
        if self.re.abs() >= self.im.abs() {
            let r = self.im / self.re;
            let d = self.re + self.im * r;
            Self::new(T::one() / d, -r / d)
        } else {
            let r = self.re / self.im;
            let d = self.re * r + self.im;
            Self::new(r / d, -T::one() / d)
        }
    }

    /// Principal square root.
    pub fn sqrt(self) -> Self {
        let m = self.abs();
        if m == T::zero() {
            return Self::zero();
        }
        let two = T::from_f64(2.0);
        let re = ((m + self.re) / two).sqrt();
        let im_mag = ((m - self.re) / two).sqrt();
        let im = if self.im >= T::zero() {
            im_mag
        } else {
            -im_mag
        };
        Self::new(re, im)
    }

    /// Scale by a real factor.
    #[inline(always)]
    pub fn scale(self, s: T) -> Self {
        Self::new(self.re * s, self.im * s)
    }

    /// True if both components are finite.
    #[inline(always)]
    pub fn is_finite(self) -> bool {
        self.re.is_finite() && self.im.is_finite()
    }
}

impl<T: Real> Add for Complex<T> {
    type Output = Self;
    #[inline(always)]
    fn add(self, rhs: Self) -> Self {
        Self::new(self.re + rhs.re, self.im + rhs.im)
    }
}

impl<T: Real> Sub for Complex<T> {
    type Output = Self;
    #[inline(always)]
    fn sub(self, rhs: Self) -> Self {
        Self::new(self.re - rhs.re, self.im - rhs.im)
    }
}

impl<T: Real> Mul for Complex<T> {
    type Output = Self;
    #[inline(always)]
    fn mul(self, rhs: Self) -> Self {
        Self::new(
            self.re * rhs.re - self.im * rhs.im,
            self.re * rhs.im + self.im * rhs.re,
        )
    }
}

impl<T: Real> Div for Complex<T> {
    type Output = Self;
    #[inline(always)]
    #[allow(clippy::suspicious_arithmetic_impl)] // division via Smith-style reciprocal
    fn div(self, rhs: Self) -> Self {
        self * rhs.recip()
    }
}

impl<T: Real> Neg for Complex<T> {
    type Output = Self;
    #[inline(always)]
    fn neg(self) -> Self {
        Self::new(-self.re, -self.im)
    }
}

impl<T: Real> AddAssign for Complex<T> {
    #[inline(always)]
    fn add_assign(&mut self, rhs: Self) {
        *self = *self + rhs;
    }
}
impl<T: Real> SubAssign for Complex<T> {
    #[inline(always)]
    fn sub_assign(&mut self, rhs: Self) {
        *self = *self - rhs;
    }
}
impl<T: Real> MulAssign for Complex<T> {
    #[inline(always)]
    fn mul_assign(&mut self, rhs: Self) {
        *self = *self * rhs;
    }
}
impl<T: Real> DivAssign for Complex<T> {
    #[inline(always)]
    fn div_assign(&mut self, rhs: Self) {
        *self = *self / rhs;
    }
}

impl<T: Real> Sum for Complex<T> {
    fn sum<I: Iterator<Item = Self>>(iter: I) -> Self {
        iter.fold(Self::zero(), |a, b| a + b)
    }
}

impl<T: Real> fmt::Debug for Complex<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({:?}{:+?}i)", self.re, self.im)
    }
}

impl<T: Real> fmt::Display for Complex<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({}{:+}i)", self.re.to_f64(), self.im.to_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    type C = Complex<f64>;

    #[test]
    fn arithmetic_identities() {
        let z = C::new(3.0, -4.0);
        assert_eq!(z + C::zero(), z);
        assert_eq!(z * C::one(), z);
        assert_eq!(z - z, C::zero());
        assert_eq!(z.abs(), 5.0);
        assert_eq!(z.norm_sqr(), 25.0);
    }

    #[test]
    fn multiplication_matches_hand_computation() {
        let a = C::new(1.0, 2.0);
        let b = C::new(3.0, -1.0);
        let p = a * b; // (1+2i)(3-i) = 3 - i + 6i - 2i² = 5 + 5i
        assert_eq!(p, C::new(5.0, 5.0));
    }

    #[test]
    fn division_inverts_multiplication() {
        let a = C::new(-2.5, 7.0);
        let b = C::new(0.3, -0.9);
        let q = (a * b) / b;
        assert!((q - a).abs() < 1e-12);
    }

    #[test]
    fn recip_of_tiny_and_huge_values_is_robust() {
        let tiny = C::new(1e-300, 1e-300);
        let r = tiny.recip();
        assert!(r.is_finite());
        assert!((tiny * r - C::one()).abs() < 1e-12);

        let huge = C::new(1e300, -1e300);
        let r = huge.recip();
        assert!(r.is_finite());
        assert!((huge * r - C::one()).abs() < 1e-12);
    }

    #[test]
    fn sqrt_squares_back() {
        for &(re, im) in &[
            (4.0, 0.0),
            (0.0, 2.0),
            (-1.0, 0.0),
            (3.0, -4.0),
            (-5.0, 12.0),
        ] {
            let z = C::new(re, im);
            let s = z.sqrt();
            assert!((s * s - z).abs() < 1e-12, "sqrt({z:?})² = {:?}", s * s);
            // Principal branch: non-negative real part.
            assert!(s.re >= 0.0);
        }
    }

    #[test]
    fn conj_properties() {
        let a = C::new(1.5, -2.5);
        let b = C::new(-0.5, 4.0);
        assert_eq!((a * b).conj(), a.conj() * b.conj());
        assert_eq!((a + b).conj(), a.conj() + b.conj());
        assert_eq!(a.conj().conj(), a);
    }
}
