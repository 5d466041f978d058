//! A minimal complex-number type.
//!
//! `num-complex` is not in the approved offline crate list, so the workspace
//! carries its own implementation. Only the operations needed by the dense
//! and sparse kernels are provided; the layout is `repr(C)` so a slice of
//! `C64` is also a slice of interleaved re/im pairs
//! ([`crate::Scalar::reals`]).

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, DivAssign, Mul, MulAssign, Neg, Sub, SubAssign};

/// Cartesian complex number with `f64` parts — the scalar type of the
/// Maxwell experiments (§V of the paper).
#[derive(Copy, Clone, PartialEq, Default)]
#[repr(C)]
pub struct C64 {
    /// Real part.
    pub re: f64,
    /// Imaginary part.
    pub im: f64,
}

impl C64 {
    /// Create a complex number from real and imaginary parts.
    #[inline(always)]
    pub fn new(re: f64, im: f64) -> Self {
        Self { re, im }
    }

    /// The additive identity `0 + 0i`.
    #[inline(always)]
    pub fn zero() -> Self {
        Self::new(0.0, 0.0)
    }

    /// The multiplicative identity `1 + 0i`.
    #[inline(always)]
    pub fn one() -> Self {
        Self::new(1.0, 0.0)
    }

    /// Complex conjugate.
    #[inline(always)]
    pub fn conj(self) -> Self {
        Self::new(self.re, -self.im)
    }

    /// Modulus `|z|`, computed robustly with `hypot`.
    #[inline(always)]
    pub fn abs(self) -> f64 {
        self.re.hypot(self.im)
    }

    /// Squared modulus `|z|²` (no square root).
    #[inline(always)]
    pub fn norm_sqr(self) -> f64 {
        self.re * self.re + self.im * self.im
    }

    /// Multiplicative inverse `1/z` using Smith's algorithm for robustness.
    #[inline]
    pub fn recip(self) -> Self {
        // Smith's algorithm avoids overflow/underflow of the naive formula.
        if self.re.abs() >= self.im.abs() {
            let r = self.im / self.re;
            let d = self.re + self.im * r;
            Self::new(1.0 / d, -r / d)
        } else {
            let r = self.re / self.im;
            let d = self.re * r + self.im;
            Self::new(r / d, -1.0 / d)
        }
    }

    /// Principal square root.
    pub fn sqrt(self) -> Self {
        let m = self.abs();
        if m == 0.0 {
            return Self::zero();
        }
        let two = 2.0;
        let re = ((m + self.re) / two).sqrt();
        let im_mag = ((m - self.re) / two).sqrt();
        let im = if self.im >= 0.0 { im_mag } else { -im_mag };
        Self::new(re, im)
    }

    /// Scale by a real factor.
    #[inline(always)]
    pub fn scale(self, s: f64) -> Self {
        Self::new(self.re * s, self.im * s)
    }

    /// True if both components are finite.
    #[inline(always)]
    pub fn is_finite(self) -> bool {
        self.re.is_finite() && self.im.is_finite()
    }
}

impl Add for C64 {
    type Output = Self;
    #[inline(always)]
    fn add(self, rhs: Self) -> Self {
        Self::new(self.re + rhs.re, self.im + rhs.im)
    }
}

impl Sub for C64 {
    type Output = Self;
    #[inline(always)]
    fn sub(self, rhs: Self) -> Self {
        Self::new(self.re - rhs.re, self.im - rhs.im)
    }
}

impl Mul for C64 {
    type Output = Self;
    #[inline(always)]
    fn mul(self, rhs: Self) -> Self {
        Self::new(
            self.re * rhs.re - self.im * rhs.im,
            self.re * rhs.im + self.im * rhs.re,
        )
    }
}

impl Div for C64 {
    type Output = Self;
    #[inline(always)]
    #[allow(clippy::suspicious_arithmetic_impl)] // division via Smith-style reciprocal
    fn div(self, rhs: Self) -> Self {
        self * rhs.recip()
    }
}

impl Neg for C64 {
    type Output = Self;
    #[inline(always)]
    fn neg(self) -> Self {
        Self::new(-self.re, -self.im)
    }
}

impl AddAssign for C64 {
    #[inline(always)]
    fn add_assign(&mut self, rhs: Self) {
        *self = *self + rhs;
    }
}
impl SubAssign for C64 {
    #[inline(always)]
    fn sub_assign(&mut self, rhs: Self) {
        *self = *self - rhs;
    }
}
impl MulAssign for C64 {
    #[inline(always)]
    fn mul_assign(&mut self, rhs: Self) {
        *self = *self * rhs;
    }
}
impl DivAssign for C64 {
    #[inline(always)]
    fn div_assign(&mut self, rhs: Self) {
        *self = *self / rhs;
    }
}

impl Sum for C64 {
    fn sum<I: Iterator<Item = Self>>(iter: I) -> Self {
        iter.fold(Self::zero(), |a, b| a + b)
    }
}

impl fmt::Debug for C64 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({:?}{:+?}i)", self.re, self.im)
    }
}

impl fmt::Display for C64 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({}{:+}i)", self.re, self.im)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    type C = C64;

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
