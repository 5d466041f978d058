//! Scalars in vector lanes, stored as planes of reals.
//!
//! A kernel that runs the same recurrence on up to [`TILE`] independent
//! columns puts the columns in the lanes: one row of such a tile is the `W`
//! real parts of its entries, then (for a complex scalar) the `W` imaginary
//! parts — two planes, so a complex product is four lane-wise products and
//! two lane-wise sums with no shuffle. The banded solve keeps its
//! right-hand sides this way (`kryst-sparse::band`), and the complex fused
//! sweeps ([`crate::fused`]) hold their block's columns the same way.
//!
//! [`Lanes`] is the arithmetic of one such row. Every method rounds each
//! lane exactly as the scalar operation it names rounds on `S` — `C64::mul`
//! in its operand order, then the sum or difference per part, never a fused
//! multiply–add — so a kernel on planes gives the bits of the scalar loop it
//! replaces. The straight-line vectoriser turns the lane loops into vector
//! instructions at the width of the `kryst_rt::simd` tier they are compiled
//! for.

use kryst_scalar::Scalar;
use std::marker::PhantomData;

/// Widest tile: eight lanes, one 512-bit register per plane.
pub const TILE: usize = 8;

/// The tiles that cover `p` columns, as `(first column, width)`: full
/// [`TILE`]-wide ones, then a 4/2/1 tail.
pub fn tiles(p: usize) -> impl Iterator<Item = (usize, usize)> {
    let mut c0 = 0;
    std::iter::from_fn(move || {
        let left = p - c0;
        if left == 0 {
            return None;
        }
        let w = if left >= TILE {
            TILE
        } else {
            1 << left.ilog2()
        };
        c0 += w;
        Some((c0 - w, w))
    })
}

/// One tile row in registers: the plane of real parts and, for a complex
/// `S`, the plane of imaginary parts (for a real `S` it is dead and
/// optimised away).
#[derive(Clone, Copy)]
pub struct Lanes<S: Scalar, const W: usize> {
    re: [f64; W],
    im: [f64; W],
    scalar: PhantomData<S>,
}

impl<S: Scalar, const W: usize> Lanes<S, W> {
    /// Words of one stored row: `W` reals per plane, one or two planes.
    #[inline(always)]
    pub fn row_len() -> usize {
        W * S::real_words()
    }

    /// Every lane zero.
    #[inline(always)]
    pub fn zero() -> Self {
        Self {
            re: [0.0; W],
            im: [0.0; W],
            scalar: PhantomData,
        }
    }

    /// The row stored at the head of `row` (its planes, in order).
    #[inline(always)]
    pub fn load(row: &[f64]) -> Self {
        let plane = |k: usize| row[k * W..][..W].try_into().expect("plane of W lanes");
        Self {
            re: plane(0),
            im: if S::is_complex() { plane(1) } else { [0.0; W] },
            scalar: PhantomData,
        }
    }

    /// Stores the row at the head of `row`.
    #[inline(always)]
    pub fn store(self, row: &mut [f64]) {
        row[..W].copy_from_slice(&self.re);
        if S::is_complex() {
            row[W..][..W].copy_from_slice(&self.im);
        }
    }

    /// The lanes from `W` consecutive scalars (interleaved parts, as `S`
    /// stores them), split into planes.
    #[inline(always)]
    pub fn split(v: &[S]) -> Self {
        let v = &v[..W];
        Self {
            re: std::array::from_fn(|c| v[c].re()),
            im: std::array::from_fn(|c| if S::is_complex() { v[c].im() } else { 0.0 }),
            scalar: PhantomData,
        }
    }

    /// `a` in every lane.
    #[inline(always)]
    pub fn splat(a: S) -> Self {
        Self {
            re: [a.re(); W],
            im: [a.im(); W],
            scalar: PhantomData,
        }
    }

    /// Lane `c` as a scalar.
    #[inline(always)]
    pub fn get(&self, c: usize) -> S {
        S::from_parts(self.re[c], self.im[c])
    }

    /// `self + conj(a)·b` in every lane, rounded as `acc += a.conj() * b`
    /// rounds on `S`: the four products, the difference and the sum of
    /// `C64::mul` with `conj(a)` on the left, then the sum per part.
    #[inline(always)]
    pub fn add_conj_mul(self, a: S, b: &Self) -> Self {
        let a = a.conj();
        let (ar, ai) = (a.re(), a.im());
        let mut out = self;
        for c in 0..W {
            if S::is_complex() {
                out.re[c] = self.re[c] + (ar * b.re[c] - ai * b.im[c]);
                out.im[c] = self.im[c] + (ar * b.im[c] + ai * b.re[c]);
            } else {
                out.re[c] = self.re[c] + ar * b.re[c];
            }
        }
        out
    }

    /// `self − a·b` in every lane, rounded as `a * b` followed by `-=`
    /// rounds on `S`: the four products, the difference and the sum of
    /// `C64::mul` in its operand order, then the subtraction per part.
    #[inline(always)]
    pub fn sub_mul(self, a: S, b: &Self) -> Self {
        let (ar, ai) = (a.re(), a.im());
        let mut out = self;
        for c in 0..W {
            if S::is_complex() {
                out.re[c] = self.re[c] - (ar * b.re[c] - ai * b.im[c]);
                out.im[c] = self.im[c] - (ar * b.im[c] + ai * b.re[c]);
            } else {
                out.re[c] = self.re[c] - ar * b.re[c];
            }
        }
        out
    }

    /// `self − a·b` lane by lane, each lane rounded as [`Lanes::sub_mul`]
    /// rounds it: `a` holds one scalar per lane (a column's coefficient),
    /// `b` may be a [`Lanes::splat`].
    #[inline(always)]
    pub fn sub_mul_lanes(self, a: &Self, b: &Self) -> Self {
        let mut out = self;
        for c in 0..W {
            let (ar, ai) = (a.re[c], a.im[c]);
            if S::is_complex() {
                out.re[c] = self.re[c] - (ar * b.re[c] - ai * b.im[c]);
                out.im[c] = self.im[c] - (ar * b.im[c] + ai * b.re[c]);
            } else {
                out.re[c] = self.re[c] - ar * b.re[c];
            }
        }
        out
    }

    /// `self·d` in every lane, rounded as `self * d` rounds on `S`.
    #[inline(always)]
    pub fn times(self, d: S) -> Self {
        let (dr, di) = (d.re(), d.im());
        let mut out = self;
        for c in 0..W {
            if S::is_complex() {
                out.re[c] = self.re[c] * dr - self.im[c] * di;
                out.im[c] = self.re[c] * di + self.im[c] * dr;
            } else {
                out.re[c] = self.re[c] * dr;
            }
        }
        out
    }

    /// Whether lane `c` holds a nonzero scalar (a zero of either sign in
    /// every part is not).
    #[inline(always)]
    pub fn nonzero(&self, c: usize) -> bool {
        self.re[c] != 0.0 || (S::is_complex() && self.im[c] != 0.0)
    }

    /// Lane by lane, `self` where `keep` is zero and `other` elsewhere.
    #[inline(always)]
    pub fn where_zero(self, keep: &Self, other: Self) -> Self {
        let mut out = self;
        for c in 0..W {
            if keep.nonzero(c) {
                out.re[c] = other.re[c];
                out.im[c] = other.im[c];
            }
        }
        out
    }
}

/// `self + other` in every lane, rounded as the sum on `S` (per part).
impl<S: Scalar, const W: usize> std::ops::Add for Lanes<S, W> {
    type Output = Self;

    #[inline(always)]
    fn add(self, other: Self) -> Self {
        let mut out = self;
        for c in 0..W {
            out.re[c] = self.re[c] + other.re[c];
            if S::is_complex() {
                out.im[c] = self.im[c] + other.im[c];
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kryst_scalar::C64;

    #[test]
    fn tiles_cover_every_width() {
        for p in 0..40 {
            let t: Vec<_> = tiles(p).collect();
            assert_eq!(t.iter().map(|&(_, w)| w).sum::<usize>(), p);
            let mut next = 0;
            for &(c0, w) in &t {
                assert_eq!(c0, next);
                assert!(matches!(w, 1 | 2 | 4 | 8));
                next += w;
            }
        }
        assert_eq!(tiles(7).collect::<Vec<_>>(), [(0, 4), (4, 2), (6, 1)]);
    }

    /// Each lane of each operation is the scalar operation's bits.
    #[test]
    fn lanes_round_as_the_scalar_operations() {
        let x: Vec<C64> = (0..8)
            .map(|c| C64::new(0.1 + c as f64 / 3.0, -1.7 / (c + 1) as f64))
            .collect();
        let y: Vec<C64> = (0..8)
            .map(|c| C64::new(-2.3 / (c + 2) as f64, 0.7 * c as f64 - 1.1))
            .collect();
        let a = C64::new(0.37, -1.19);
        let (lx, ly) = (Lanes::<C64, 8>::split(&x), Lanes::<C64, 8>::split(&y));
        let mut row = [0.0; 16];
        lx.store(&mut row);
        let re: Vec<f64> = x.iter().map(|v| v.re).collect();
        assert_eq!(row[..8], re[..]);
        let bits = |v: C64| (v.re.to_bits(), v.im.to_bits());
        for c in 0..8 {
            let (xc, yc) = (x[c], y[c]);
            let mut acc = xc;
            acc += a.conj() * yc;
            assert_eq!(bits(lx.add_conj_mul(a, &ly).get(c)), bits(acc));
            let mut dif = xc;
            dif -= a * yc;
            assert_eq!(bits(lx.sub_mul(a, &ly).get(c)), bits(dif));
            let la = Lanes::<C64, 8>::splat(a);
            assert_eq!(bits(lx.sub_mul_lanes(&la, &ly).get(c)), bits(dif));
            assert_eq!(bits(lx.times(a).get(c)), bits(xc * a));
            assert_eq!(bits((lx + ly).get(c)), bits(xc + yc));
            assert_eq!(bits(Lanes::<C64, 8>::load(&row).get(c)), bits(xc));
        }
    }
}
