//! Dense eigensolvers for the deflation step of GCRO-DR.
//!
//! GCRO-DR needs, once per restart, the `k` eigenvectors associated with the
//! smallest-magnitude eigenvalues of either
//!
//! * a standard problem `H·z = θ·z` (first cycle, paper's eq. (2)), or
//! * a generalized problem `T·z = θ·W·z` (later cycles, eq. (3a)/(3b)),
//!
//! where the matrices have dimension `m·p ≲ a few hundred`. These are solved
//! *redundantly on every process* in the paper, so a robust serial dense
//! algorithm is exactly what is required.
//!
//! Everything runs in complex arithmetic (real inputs are promoted): complex
//! Hessenberg reduction, a shifted QR iteration to Schur form `A = Q·T·Qᴴ`
//! with accumulated unitary transforms, and eigenvector extraction by
//! triangular back-substitution. [`EigDecomp`] keeps `T` and `Q`; a caller
//! reads the eigenvalues first and back-substitutes only the eigenvectors it
//! keeps ([`EigDecomp::vectors`]).
//!
//! # Memory order
//!
//! Every step sweeps contiguous column slices of the column-major storage:
//!
//! * the left Householder reflector is a dot and an axpy per column (two
//!   columns' dots side by side); the right one, and its accumulation into
//!   `Q`, gathers `w = M·v` column by column into one row-length
//!   accumulator and subtracts it with one axpy per column;
//! * a QR sweep's left rotations run down each column: `G` columns carry
//!   their entries through the rotations in lock-step, and a column inside
//!   the active window finds its own rotation once the earlier ones are
//!   applied to it. Its right rotations, on `H` and into `Q`, are axpy-like
//!   passes over contiguous column pairs;
//! * the back-substitution reads the rows of `T` from its transpose, and
//!   `Q·y` is one axpy per column of `Q`.
//!
//! Each entry still goes through the same operations in the same order as
//! the textbook row-by-row loops, so every eigenvalue, the Schur order and
//! every eigenvector are the same bits. The `#[cfg(test)]` references in
//! this file are those loops, and the tests pin the two `to_bits`.
//!
//! The kernels under those sweeps (`Kernels`) have a plain body and, on
//! x86-64, an AVX2 one (`avx2`, no FMA, so the same bits), picked once
//! per decomposition at run time as in [`crate::fused`]. The plain body
//! compiled with AVX2 enabled left the complex rotations scalar; the AVX2
//! body holds two complex numbers to a register.
//!
//! A non-finite input is answered at once (`converged: false`, no sweep,
//! NaN values): the QR iteration cannot deflate a NaN and would run to its
//! iteration cap.

use crate::lu::Lu;
use crate::DMat;
use kryst_scalar::{Scalar, C64};
use std::slice::from_ref;

/// Schur decomposition `A = Q·T·Qᴴ` of a square matrix: the eigenvalues, and
/// the eigenvectors on demand.
pub struct EigDecomp {
    /// Eigenvalues, in Schur (quasi-arbitrary) order.
    pub values: Vec<C64>,
    /// False when the QR iteration hit its iteration cap before full
    /// deflation (results are then best-effort), or when the input was not
    /// finite (nothing was computed; every value is NaN).
    pub converged: bool,
    /// Shifted QR sweeps the iteration ran.
    pub sweeps: usize,
    /// Upper-triangular Schur factor; its diagonal is `values`.
    t: DMat<C64>,
    /// Unitary Schur vectors.
    q: DMat<C64>,
}

/// Copy a real or complex matrix into explicit complex storage.
pub fn to_complex<S: Scalar>(a: &DMat<S>) -> DMat<C64> {
    DMat::from_fn(a.nrows(), a.ncols(), |i, j| {
        C64::new(a[(i, j)].re(), a[(i, j)].im())
    })
}

fn all_finite<S: Scalar>(a: &DMat<S>) -> bool {
    a.as_slice().iter().all(|v| v.is_finite())
}

/// Complex Givens rotation: returns `(c, s)` with `c` real so that
/// `[c, s; -conj(s), c]·[a; b] = [r; 0]`.
#[inline(always)]
fn givens(a: C64, b: C64) -> (f64, C64) {
    let an = a.abs();
    let bn = b.abs();
    if bn == 0.0 {
        return (1.0, C64::zero());
    }
    if an == 0.0 {
        return (0.0, b.conj().scale(1.0 / bn));
    }
    let t = an.hypot(bn);
    let c = an / t;
    // s = (a/|a|)·conj(b)/t
    let phase = a.scale(1.0 / an);
    let s = phase * b.conj().scale(1.0 / t);
    (c, s)
}

/// `M ⟵ M·(I − tau·v·vᴴ)` on columns `c0..c0 + v.len()` of `m`: `w = M·v`
/// gathered column by column into the row-length accumulator `w`, then one
/// axpy per column.
#[inline(always)]
fn reflect_right<K: Kernels>(
    kern: K,
    m: &mut DMat<C64>,
    c0: usize,
    v: &[C64],
    tau: C64,
    w: &mut [C64],
) {
    w.fill(C64::zero());
    for (t, &vi) in v.iter().enumerate() {
        kern.add(w, m.col(c0 + t), vi);
    }
    for wr in w.iter_mut() {
        *wr *= tau;
    }
    for (t, &vi) in v.iter().enumerate() {
        kern.sub(m.col_mut(c0 + t), w, vi.conj());
    }
}

/// `vᴴ·x` in row order, for two columns at once: two independent sums.
#[inline(always)]
fn dot2(v: &[C64], a: &[C64], b: &[C64]) -> (C64, C64) {
    let (mut sa, mut sb) = (C64::zero(), C64::zero());
    for ((&vi, &x), &y) in v.iter().zip(a).zip(b) {
        sa += vi.conj() * x;
        sb += vi.conj() * y;
    }
    (sa, sb)
}

/// Hessenberg reduction `QᴴAQ = H` by Householder similarity transforms,
/// in place; returns `Q`.
#[inline(always)]
fn hessenberg<K: Kernels>(kern: K, h: &mut DMat<C64>) -> DMat<C64> {
    let n = h.nrows();
    let mut q = DMat::<C64>::eye(n);
    if n < 3 {
        return q;
    }
    let mut v = vec![C64::zero(); n];
    let mut w = vec![C64::zero(); n];
    for k in 0..n - 2 {
        // Reflector annihilating H[k+2.., k].
        let v = &mut v[..n - k - 1];
        v.copy_from_slice(&h.col(k)[k + 1..]);
        let tau = crate::qr::householder_reflector(v);
        if tau == C64::zero() {
            continue;
        }
        let beta = v[0];
        v[0] = C64::one();
        // Left: rows k+1..n of columns k+1..n get Hᴴ = I − conj(tau)·v·vᴴ,
        // two columns at a time. Column k takes `beta` and zeros below it
        // instead.
        let tc = tau.conj();
        let trail = &mut h.as_mut_slice()[(k + 1) * n..];
        let mut pairs = trail.chunks_exact_mut(2 * n);
        for pair in &mut pairs {
            let (a, b) = pair.split_at_mut(n);
            let (a, b) = (&mut a[k + 1..], &mut b[k + 1..]);
            let (sa, sb) = dot2(v, a, b);
            kern.sub(a, v, sa * tc);
            kern.sub(b, v, sb * tc);
        }
        if let Some(col) = pairs.into_remainder().get_mut(k + 1..) {
            let (s, _) = dot2(v, col, col);
            kern.sub(col, v, s * tc);
        }
        // Right: columns k+1..n of all rows get H = I − tau·v·vᴴ; the same
        // accumulates Q ⟵ Q·H.
        reflect_right(kern, h, k + 1, v, tau, &mut w);
        reflect_right(kern, &mut q, k + 1, v, tau, &mut w);
        let col = h.col_mut(k);
        col[k + 1] = beta;
        col[k + 2..].fill(C64::zero());
    }
    q
}

/// Wilkinson shift from the trailing 2×2 of the active block.
#[inline(always)]
fn wilkinson_shift(h: &DMat<C64>, hi: usize) -> C64 {
    let a = h[(hi - 1, hi - 1)];
    let b = h[(hi - 1, hi)];
    let c = h[(hi, hi - 1)];
    let d = h[(hi, hi)];
    let tr_half = (a + d).scale(0.5);
    let det = a * d - b * c;
    let disc = (tr_half * tr_half - det).sqrt();
    let l1 = tr_half + disc;
    let l2 = tr_half - disc;
    if (l1 - d).abs() <= (l2 - d).abs() {
        l1
    } else {
        l2
    }
}

/// A plane rotation `(c, s)`, `c` real: `[c, s; −s̄, c]` from the left on a
/// row pair, its adjoint from the right on a column pair.
type Rot = (f64, C64);

/// Columns a left sweep carries through its rotations side by side.
const G: usize = 8;

/// The vector kernels of the decomposition, in one instruction set: the two
/// rotations of a QR sweep and the axpy of a reflector. Each computes every
/// entry as [`rotate_down`], [`rotate_pair`] and [`axpy`] write it. A value
/// of the type is the proof that the instruction set is there.
trait Kernels: Copy {
    /// [`rotate_down`] on the `G` adjacent columns of length `n` in `block`.
    fn down(self, block: &mut [C64], n: usize, rots: &[Rot], i0: usize);
    /// [`rotate_pair`].
    fn pair(self, a: &mut [C64], b: &mut [C64], rot: Rot);
    /// `y ⟵ y + x·a`.
    fn add(self, y: &mut [C64], x: &[C64], a: C64);
    /// `y ⟵ y − x·a`.
    fn sub(self, y: &mut [C64], x: &[C64], a: C64);
}

/// `y ⟵ y − x·a` (or `+` with `ADD`).
#[inline(always)]
fn axpy<const ADD: bool>(y: &mut [C64], x: &[C64], a: C64) {
    for (yi, &xi) in y.iter_mut().zip(x) {
        if ADD {
            *yi += xi * a;
        } else {
            *yi -= xi * a;
        }
    }
}

/// `rots[k]` from the left on rows `i0 + k, i0 + k + 1` of one column, in
/// order: the lower entry of each pair is carried down to the next.
#[inline(always)]
fn rotate_down(col: &mut [C64], rots: &[Rot], i0: usize) {
    let mut x = col[i0];
    for (i, &(c, s)) in (i0..).zip(rots) {
        let y = col[i + 1];
        col[i] = x.scale(c) + s * y;
        x = -(s.conj() * x) + y.scale(c);
    }
    col[i0 + rots.len()] = x;
}

/// `Gᴴ` from the right on the column pair `(a, b)`, over the rows both
/// slices hold.
#[inline(always)]
fn rotate_pair(a: &mut [C64], b: &mut [C64], (c, s): Rot) {
    for (xa, yb) in a.iter_mut().zip(b.iter_mut()) {
        let (x, y) = (*xa, *yb);
        *xa = x.scale(c) + y * s.conj();
        *yb = -(x * s) + y.scale(c);
    }
}

/// The kernels as plain loops: [`rotate_down`] on `G` columns in lock-step,
/// so that their carried entries are independent chains.
#[derive(Clone, Copy)]
struct Plain;

impl Kernels for Plain {
    #[inline(always)]
    fn down(self, block: &mut [C64], n: usize, rots: &[Rot], i0: usize) {
        let end = i0 + rots.len();
        let mut cols = block.chunks_exact_mut(n).map(|c| &mut c[..=end]);
        let mut cols: [&mut [C64]; G] = std::array::from_fn(|_| cols.next().expect("G columns"));
        let mut x: [C64; G] = std::array::from_fn(|t| cols[t][i0]);
        for (i, &(c, s)) in (i0..).zip(rots) {
            for (col, x) in cols.iter_mut().zip(x.iter_mut()) {
                let y = col[i + 1];
                col[i] = x.scale(c) + s * y;
                *x = -(s.conj() * *x) + y.scale(c);
            }
        }
        for (col, x) in cols.into_iter().zip(x) {
            col[end] = x;
        }
    }

    #[inline(always)]
    fn pair(self, a: &mut [C64], b: &mut [C64], rot: Rot) {
        rotate_pair(a, b, rot)
    }

    #[inline(always)]
    fn add(self, y: &mut [C64], x: &[C64], a: C64) {
        axpy::<true>(y, x, a)
    }

    #[inline(always)]
    fn sub(self, y: &mut [C64], x: &[C64], a: C64) {
        axpy::<false>(y, x, a)
    }
}

/// The left rotations of one QR sweep on the window `[lo, hi]`, `G` columns
/// at a time: each group takes the rotations known when it starts in
/// lock-step, then, column by column, those its earlier columns found and
/// — inside the window — its own, found on the column itself. Every column
/// sees rotation `i` after rotation `i − 1`, as the row-by-row order has it.
#[inline(always)]
fn left_sweep<K: Kernels>(kern: K, h: &mut DMat<C64>, lo: usize, hi: usize, rots: &mut Vec<Rot>) {
    let n = h.nrows();
    let data = h.as_mut_slice();
    for j in (lo..n).step_by(G) {
        let block = &mut data[j * n..(j + G).min(n) * n];
        let known = rots.len();
        if block.len() == G * n {
            kern.down(block, n, &rots[..known], lo);
        } else {
            for col in block.chunks_exact_mut(n) {
                rotate_down(col, &rots[..known], lo);
            }
        }
        for (jj, col) in (j..).zip(block.chunks_exact_mut(n)) {
            rotate_down(col, &rots[known..], lo + known);
            if jj < hi {
                let rot = givens(col[jj], col[jj + 1]);
                rots.push(rot);
                rotate_down(col, from_ref(&rot), jj);
            }
        }
    }
}

/// Shifted QR iteration on an upper Hessenberg matrix, accumulating the
/// unitary transform into `q`. On return `h` is upper triangular (Schur form)
/// when the first value is `true`; the second is the number of QR sweeps.
#[inline(always)]
fn schur_qr<K: Kernels>(kern: K, h: &mut DMat<C64>, q: &mut DMat<C64>) -> (bool, usize) {
    let n = h.nrows();
    if n <= 1 {
        return (true, 0);
    }
    let eps = f64::EPSILON;
    let max_total_iters = 40 * n.max(8);
    let mut hi = n - 1;
    let mut iters = 0;
    let mut sweeps = 0;
    let mut stagnation = 0usize;
    let mut rots: Vec<Rot> = Vec::with_capacity(n);
    while hi > 0 {
        if iters >= max_total_iters {
            return (false, sweeps);
        }
        iters += 1;
        // Deflation scan within 0..=hi.
        let mut deflated = false;
        for i in (0..hi).rev() {
            let tol = eps * (h[(i, i)].abs() + h[(i + 1, i + 1)].abs());
            if h[(i + 1, i)].abs() <= tol {
                h[(i + 1, i)] = C64::zero();
                if i + 1 == hi {
                    // Bottom 1×1 deflated.
                    hi -= 1;
                    deflated = true;
                    stagnation = 0;
                    break;
                }
            }
        }
        if deflated {
            continue;
        }
        // Find `lo`: start of the trailing unreduced block ending at hi.
        let mut lo = hi;
        while lo > 0 && h[(lo, lo - 1)] != C64::zero() {
            lo -= 1;
        }
        if lo == hi {
            hi -= 1;
            continue;
        }
        // Exceptional shift every 12 stagnating sweeps.
        stagnation += 1;
        sweeps += 1;
        let mu = if stagnation % 13 == 12 {
            h[(hi, hi - 1)].scale(1.5) + h[(hi, hi)]
        } else {
            wilkinson_shift(h, hi)
        };
        // Explicit single-shift QR step on the window [lo, hi].
        for i in lo..=hi {
            h[(i, i)] -= mu;
        }
        rots.clear();
        left_sweep(kern, h, lo, hi, &mut rots);
        for (i, &rot) in (lo..).zip(&rots) {
            // Gᴴ on columns i, i+1: rows 0..=i+1 of H, every row of Q.
            let (a, b) = h.two_cols_mut(i, i + 1);
            kern.pair(&mut a[..=i + 1], &mut b[..=i + 1], rot);
            let (a, b) = q.two_cols_mut(i, i + 1);
            kern.pair(a, b, rot);
        }
        for i in lo..=hi {
            h[(i, i)] += mu;
        }
    }
    (true, sweeps)
}

/// Hessenberg reduction and QR iteration of `h`, taken as the Schur factor.
#[inline(always)]
fn schur_body<K: Kernels>(kern: K, mut h: DMat<C64>) -> EigDecomp {
    let mut q = hessenberg(kern, &mut h);
    let (converged, sweeps) = schur_qr(kern, &mut h, &mut q);
    let values = (0..h.nrows()).map(|i| h[(i, i)]).collect();
    EigDecomp {
        values,
        converged,
        sweeps,
        t: h,
        q,
    }
}

/// [`schur_body`] compiled with 256-bit vectors, on the [`avx2`] kernels. AVX2 alone: FMA stays off, so the result is the same
/// bits as the baseline build.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn schur_avx2(kern: avx2::Avx2, h: DMat<C64>) -> EigDecomp {
    schur_body(kern, h)
}

#[cfg(target_arch = "x86_64")]
mod avx2 {
    //! The [`Kernels`] on 256-bit vectors, two complex numbers to a register
    //! (`re, im, re, im`). A product `z·u` by a broadcast `u` is
    //! `addsub(z·u.re, swap(z)·u.im)`: the real lanes `re·u.re − im·u.im`
    //! and the imaginary ones `im·u.re + re·u.im` — the two roundings of each
    //! part of [`C64`]'s `Mul`, with the operands of the exact sum swapped.
    //! `−(a) + b` is `b − a` exactly, so each lane rounds as the plain loops
    //! do; the `to_bits` suite holds both.

    use super::{axpy, rotate_pair, Kernels, Rot, G};
    use kryst_scalar::C64;
    use std::arch::x86_64::*;

    /// The kernels on AVX2; only [`Avx2::detect`] makes one, on a CPU that
    /// has it.
    #[derive(Clone, Copy)]
    pub(super) struct Avx2(());

    impl Avx2 {
        pub(super) fn detect() -> Option<Self> {
            std::is_x86_feature_detected!("avx2").then_some(Avx2(()))
        }
    }

    /// `z·u` for the two complex numbers in `z` and a [`splat`] `u`.
    ///
    /// # Safety
    ///
    /// The CPU has AVX2.
    #[inline(always)]
    unsafe fn cmul(z: __m256d, u: [__m256d; 2]) -> __m256d {
        let swapped = _mm256_permute_pd(z, 0b0101);
        _mm256_addsub_pd(_mm256_mul_pd(z, u[0]), _mm256_mul_pd(swapped, u[1]))
    }

    /// `(x·c + y·u, y·c − x·v)` on two complex numbers in each of `x`, `y`.
    ///
    /// # Safety
    ///
    /// The CPU has AVX2.
    #[inline(always)]
    unsafe fn rotate(
        x: __m256d,
        y: __m256d,
        c: __m256d,
        u: [__m256d; 2],
        v: [__m256d; 2],
    ) -> (__m256d, __m256d) {
        let top = _mm256_add_pd(_mm256_mul_pd(x, c), cmul(y, u));
        (top, _mm256_sub_pd(_mm256_mul_pd(y, c), cmul(x, v)))
    }

    /// The real and imaginary parts of `u`, each broadcast.
    ///
    /// # Safety
    ///
    /// The CPU has AVX2.
    #[inline(always)]
    unsafe fn splat(u: C64) -> [__m256d; 2] {
        [_mm256_set1_pd(u.re), _mm256_set1_pd(u.im)]
    }

    /// [`Kernels::down`]: the `G` columns as `G / 2` registers, each the
    /// entries of two columns at one row.
    ///
    /// # Safety
    ///
    /// The CPU has AVX2. The indices are checked here.
    #[target_feature(enable = "avx2")]
    unsafe fn down(block: &mut [C64], n: usize, rots: &[Rot], i0: usize) {
        const R: usize = G / 2;
        let end = i0 + rots.len();
        assert!(block.len() == G * n && end < n);
        let base = block.as_mut_ptr().cast::<f64>();
        // SAFETY (here and below): column `k < G`, row `i <= end < n` is
        // inside `block`, and a register spans the entry of column `2r` and
        // that of column `2r + 1`, each two `f64`s.
        let at = |k: usize, i: usize| base.add(2 * (k * n + i));
        let load = |r: usize, i: usize| _mm256_loadu2_m128d(at(2 * r + 1, i), at(2 * r, i));
        let store = |r: usize, i: usize, v| _mm256_storeu2_m128d(at(2 * r + 1, i), at(2 * r, i), v);
        let mut x: [__m256d; R] = std::array::from_fn(|r| load(r, i0));
        for (i, &(c, s)) in (i0..).zip(rots) {
            let (c, u, v) = (_mm256_set1_pd(c), splat(s), splat(s.conj()));
            for (r, x) in x.iter_mut().enumerate() {
                let (top, carried) = rotate(*x, load(r, i + 1), c, u, v);
                store(r, i, top);
                *x = carried;
            }
        }
        for (r, x) in x.into_iter().enumerate() {
            store(r, end, x);
        }
    }

    /// [`Kernels::pair`]: two rows to a register, an odd last row on the
    /// plain loop.
    ///
    /// # Safety
    ///
    /// The CPU has AVX2.
    #[target_feature(enable = "avx2")]
    unsafe fn pair(a: &mut [C64], b: &mut [C64], rot: Rot) {
        let len = a.len().min(b.len());
        let even = len & !1;
        let (c, u, v) = (_mm256_set1_pd(rot.0), splat(rot.1.conj()), splat(rot.1));
        let (pa, pb) = (a.as_mut_ptr().cast::<f64>(), b.as_mut_ptr().cast::<f64>());
        for k in (0..even).step_by(2) {
            // SAFETY: rows `k, k + 1 < len` of both slices.
            let (x, y) = (
                _mm256_loadu_pd(pa.add(2 * k)),
                _mm256_loadu_pd(pb.add(2 * k)),
            );
            let (x, y) = rotate(x, y, c, u, v);
            _mm256_storeu_pd(pa.add(2 * k), x);
            _mm256_storeu_pd(pb.add(2 * k), y);
        }
        rotate_pair(&mut a[even..len], &mut b[even..len], rot);
    }

    /// `y ⟵ y ± x·a`: two entries to a register, an odd last one on the
    /// plain loop.
    ///
    /// # Safety
    ///
    /// The CPU has AVX2.
    #[target_feature(enable = "avx2")]
    unsafe fn axpy2<const ADD: bool>(y: &mut [C64], x: &[C64], a: C64) {
        let len = y.len().min(x.len());
        let even = len & !1;
        let a2 = splat(a);
        let (py, px) = (y.as_mut_ptr().cast::<f64>(), x.as_ptr().cast::<f64>());
        for k in (0..even).step_by(2) {
            // SAFETY: entries `k, k + 1 < len` of both slices.
            let xa = cmul(_mm256_loadu_pd(px.add(2 * k)), a2);
            let yv = _mm256_loadu_pd(py.add(2 * k));
            let yv = if ADD {
                _mm256_add_pd(yv, xa)
            } else {
                _mm256_sub_pd(yv, xa)
            };
            _mm256_storeu_pd(py.add(2 * k), yv);
        }
        axpy::<ADD>(&mut y[even..len], &x[even..len], a);
    }

    impl Kernels for Avx2 {
        #[inline(always)]
        fn down(self, block: &mut [C64], n: usize, rots: &[Rot], i0: usize) {
            // SAFETY: `self` exists, so the CPU has AVX2.
            unsafe { down(block, n, rots, i0) }
        }

        #[inline(always)]
        fn pair(self, a: &mut [C64], b: &mut [C64], rot: Rot) {
            // SAFETY: `self` exists, so the CPU has AVX2.
            unsafe { pair(a, b, rot) }
        }

        #[inline(always)]
        fn add(self, y: &mut [C64], x: &[C64], a: C64) {
            // SAFETY: `self` exists, so the CPU has AVX2.
            unsafe { axpy2::<true>(y, x, a) }
        }

        #[inline(always)]
        fn sub(self, y: &mut [C64], x: &[C64], a: C64) {
            // SAFETY: `self` exists, so the CPU has AVX2.
            unsafe { axpy2::<false>(y, x, a) }
        }
    }
}

/// Schur decomposition of `a`; a non-finite input returns at once, with no
/// sweep, NaN values and `converged: false`.
fn schur(a: DMat<C64>) -> EigDecomp {
    if !all_finite(&a) {
        return EigDecomp::not_finite(a.nrows());
    }
    #[cfg(target_arch = "x86_64")]
    if let Some(kern) = avx2::Avx2::detect() {
        // SAFETY: `kern` exists, so the CPU has AVX2, the one feature
        // `schur_avx2` is compiled with.
        return unsafe { schur_avx2(kern, a) };
    }
    schur_body(Plain, a)
}

/// Schur decomposition of a general square matrix.
pub fn eig<S: Scalar>(a: &DMat<S>) -> EigDecomp {
    let _t = kryst_obs::traced(kryst_obs::SpanKind::SmallDense);
    schur(to_complex(a))
}

/// Generalized eigenproblem `T·z = θ·W·z`, reduced to the standard problem
/// `(W⁻¹T)·z = θ·z` via an LU solve (the matrices are tiny and `W` is a Gram
/// product of Krylov bases, safely invertible after the paper's column
/// scaling — a diagonal Tikhonov fallback covers the degenerate case).
pub fn eig_generalized<S: Scalar>(t: &DMat<S>, w: &DMat<S>) -> EigDecomp {
    let _t = kryst_obs::traced(kryst_obs::SpanKind::SmallDense);
    let n = t.nrows();
    assert_eq!(t.ncols(), n);
    assert_eq!(w.nrows(), n);
    assert_eq!(w.ncols(), n);
    if !all_finite(t) || !all_finite(w) {
        return EigDecomp::not_finite(n);
    }
    let tc = to_complex(t);
    let mut wc = to_complex(w);
    let mut f = Lu::factor(wc.clone());
    if f.is_singular() {
        // Regularize: W + ε‖W‖·I.
        let shift = w.max_abs().max(f64::EPSILON) * f64::EPSILON * 1e4;
        for i in 0..n {
            wc[(i, i)] += C64::new(shift, 0.0);
        }
        f = Lu::factor(wc);
    }
    schur(f.solve(&tc))
}

impl EigDecomp {
    /// What a non-finite `n × n` input gets: no sweep, NaN throughout.
    fn not_finite(n: usize) -> Self {
        let nan = C64::new(f64::NAN, f64::NAN);
        EigDecomp {
            values: vec![nan; n],
            converged: false,
            sweeps: 0,
            t: DMat::from_fn(n, n, |_, _| nan),
            q: DMat::from_fn(n, n, |_, _| nan),
        }
    }

    /// The right eigenvectors of `values[k]` for each `k` in `idx`, as
    /// columns normalized to unit 2-norm: back-substitution in `T` for only
    /// those columns, then `Q·y`.
    pub fn vectors(&self, idx: &[usize]) -> DMat<C64> {
        #[cfg(target_arch = "x86_64")]
        if let Some(kern) = avx2::Avx2::detect() {
            // SAFETY: `kern` exists, so the CPU has AVX2, the one feature
            // `vectors_avx2` is compiled with.
            return unsafe { self.vectors_avx2(kern, idx) };
        }
        self.vectors_body(Plain, idx)
    }

    /// [`Self::vectors_body`] on the [`avx2`] kernels.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    fn vectors_avx2(&self, kern: avx2::Avx2, idx: &[usize]) -> DMat<C64> {
        self.vectors_body(kern, idx)
    }

    #[inline(always)]
    fn vectors_body<K: Kernels>(&self, kern: K, idx: &[usize]) -> DMat<C64> {
        let n = self.values.len();
        let tnorm = self.t.max_abs().max(f64::EPSILON);
        let smin = f64::EPSILON * tnorm;
        // Row i of T is column i of its transpose.
        let rows = self.t.transpose();
        let mut vecs = DMat::<C64>::zeros(n, idx.len());
        let mut y = vec![C64::zero(); n];
        for (c, &k) in idx.iter().enumerate() {
            let lambda = self.values[k];
            y[k] = C64::one();
            for i in (0..k).rev() {
                let row = rows.col(i);
                let mut acc = C64::zero();
                for (&tij, &yj) in row[i + 1..=k].iter().zip(&y[i + 1..=k]) {
                    acc += tij * yj;
                }
                let mut den = row[i] - lambda;
                if den.abs() < smin {
                    den = C64::new(smin, 0.0);
                }
                y[i] = -acc / den;
            }
            // v = Q·y, normalized.
            let v = vecs.col_mut(c);
            for (j, &yj) in y[..=k].iter().enumerate() {
                kern.add(v, self.q.col(j), yj);
            }
            let nrm = v.iter().fold(0.0, |s, x| s + x.norm_sqr()).sqrt();
            if nrm > 0.0 {
                let inv = C64::new(1.0 / nrm, 0.0);
                for vi in v.iter_mut() {
                    *vi *= inv;
                }
            }
        }
        vecs
    }

    /// Indices of the `k` eigenvalues of smallest magnitude.
    pub fn smallest_indices(&self, k: usize) -> Vec<usize> {
        let mut idx: Vec<usize> = (0..self.values.len()).collect();
        idx.sort_by(|&a, &b| {
            self.values[a]
                .abs()
                .partial_cmp(&self.values[b].abs())
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        idx.truncate(k);
        idx
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blas::{matmul, Op};

    /// The loops the sweeps above replace, as they were written: row by row
    /// across the column-major storage, every eigenvector back-substituted.
    mod reference {
        use super::super::{givens, wilkinson_shift};
        use crate::DMat;
        use kryst_scalar::C64;

        /// Hessenberg reduction `QᴴAQ = H` by Householder similarity transforms.
        /// Returns `(h, q)`.
        pub(super) fn hessenberg(a: &DMat<C64>) -> (DMat<C64>, DMat<C64>) {
            let n = a.nrows();
            let mut h = a.clone();
            let mut q = DMat::<C64>::eye(n);
            if n < 3 {
                return (h, q);
            }
            for k in 0..n - 2 {
                // Reflector annihilating H[k+2.., k].
                let mut x: Vec<C64> = (k + 1..n).map(|i| h[(i, k)]).collect();
                let tau = crate::qr::householder_reflector(&mut x);
                if tau == C64::zero() {
                    continue;
                }
                let beta = x[0];
                let v: Vec<C64> = std::iter::once(C64::one())
                    .chain(x[1..].iter().copied())
                    .collect();
                // Left: rows k+1..n of all columns k..n get Hᴴ = I − conj(tau)·v·vᴴ.
                for j in k..n {
                    let mut w = C64::zero();
                    for (t, &vi) in v.iter().enumerate() {
                        w += vi.conj() * h[(k + 1 + t, j)];
                    }
                    w *= tau.conj();
                    for (t, &vi) in v.iter().enumerate() {
                        let upd = vi * w;
                        h[(k + 1 + t, j)] -= upd;
                    }
                }
                // Right: columns k+1..n of all rows get H = I − tau·v·vᴴ.
                for i in 0..n {
                    let mut w = C64::zero();
                    for (t, &vi) in v.iter().enumerate() {
                        w += h[(i, k + 1 + t)] * vi;
                    }
                    w *= tau;
                    for (t, &vi) in v.iter().enumerate() {
                        let upd = w * vi.conj();
                        h[(i, k + 1 + t)] -= upd;
                    }
                }
                // Accumulate Q ⟵ Q·H.
                for i in 0..n {
                    let mut w = C64::zero();
                    for (t, &vi) in v.iter().enumerate() {
                        w += q[(i, k + 1 + t)] * vi;
                    }
                    w *= tau;
                    for (t, &vi) in v.iter().enumerate() {
                        let upd = w * vi.conj();
                        q[(i, k + 1 + t)] -= upd;
                    }
                }
                // Explicit zeros + the beta entry.
                h[(k + 1, k)] = beta;
                for i in k + 2..n {
                    h[(i, k)] = C64::zero();
                }
            }
            (h, q)
        }

        /// Shifted QR iteration on an upper Hessenberg matrix, accumulating the
        /// unitary transform into `q`. On return `h` is upper triangular (Schur form)
        /// when `true` is returned.
        pub(super) fn schur_qr(h: &mut DMat<C64>, q: &mut DMat<C64>) -> bool {
            let n = h.nrows();
            if n <= 1 {
                return true;
            }
            let eps = f64::EPSILON;
            let max_total_iters = 40 * n.max(8);
            let mut hi = n - 1;
            let mut iters = 0;
            let mut stagnation = 0usize;
            while hi > 0 {
                if iters >= max_total_iters {
                    return false;
                }
                iters += 1;
                // Deflation scan within 0..=hi.
                let mut deflated = false;
                for i in (0..hi).rev() {
                    let tol = eps * (h[(i, i)].abs() + h[(i + 1, i + 1)].abs());
                    if h[(i + 1, i)].abs() <= tol {
                        h[(i + 1, i)] = C64::zero();
                        if i + 1 == hi {
                            // Bottom 1×1 deflated.
                            hi -= 1;
                            deflated = true;
                            stagnation = 0;
                            break;
                        }
                    }
                }
                if deflated {
                    continue;
                }
                // Find `lo`: start of the trailing unreduced block ending at hi.
                let mut lo = hi;
                while lo > 0 && h[(lo, lo - 1)] != C64::zero() {
                    lo -= 1;
                }
                if lo == hi {
                    hi -= 1;
                    continue;
                }
                // Exceptional shift every 12 stagnating sweeps.
                stagnation += 1;
                let mu = if stagnation % 13 == 12 {
                    h[(hi, hi - 1)].scale(1.5) + h[(hi, hi)]
                } else {
                    wilkinson_shift(h, hi)
                };
                // Explicit single-shift QR step on the window [lo, hi].
                for i in lo..=hi {
                    h[(i, i)] -= mu;
                }
                let mut rots: Vec<(f64, C64)> = Vec::with_capacity(hi - lo);
                for i in lo..hi {
                    let (c, s) = givens(h[(i, i)], h[(i + 1, i)]);
                    rots.push((c, s));
                    // Left rotation on rows i, i+1, columns i..n.
                    for j in i..n {
                        let x = h[(i, j)];
                        let y = h[(i + 1, j)];
                        h[(i, j)] = x.scale(c) + s * y;
                        h[(i + 1, j)] = -(s.conj() * x) + y.scale(c);
                    }
                }
                for (idx, &(c, s)) in rots.iter().enumerate() {
                    let i = lo + idx;
                    // Right rotation Gᴴ on columns i, i+1, rows 0..=i+1.
                    for r in 0..=(i + 1).min(n - 1) {
                        let x = h[(r, i)];
                        let y = h[(r, i + 1)];
                        h[(r, i)] = x.scale(c) + y * s.conj();
                        h[(r, i + 1)] = -(x * s) + y.scale(c);
                    }
                    // Accumulate into Q (all rows).
                    for r in 0..n {
                        let x = q[(r, i)];
                        let y = q[(r, i + 1)];
                        q[(r, i)] = x.scale(c) + y * s.conj();
                        q[(r, i + 1)] = -(x * s) + y.scale(c);
                    }
                }
                for i in lo..=hi {
                    h[(i, i)] += mu;
                }
            }
            true
        }

        /// Eigenvectors of an upper-triangular `t`, transformed back through `q`.
        pub(super) fn eigvecs_from_schur(t: &DMat<C64>, q: &DMat<C64>) -> DMat<C64> {
            let n = t.nrows();
            let tnorm = t.max_abs().max(f64::EPSILON);
            let smin = f64::EPSILON * tnorm;
            let mut vecs = DMat::<C64>::zeros(n, n);
            let mut y = vec![C64::zero(); n];
            for k in 0..n {
                let lambda = t[(k, k)];
                y.iter_mut().for_each(|v| *v = C64::zero());
                y[k] = C64::one();
                for i in (0..k).rev() {
                    let mut acc = C64::zero();
                    for (j, &yj) in y.iter().enumerate().take(k + 1).skip(i + 1) {
                        acc += t[(i, j)] * yj;
                    }
                    let mut den = t[(i, i)] - lambda;
                    if den.abs() < smin {
                        den = C64::new(smin, 0.0);
                    }
                    y[i] = -acc / den;
                }
                // v = Q·y, normalized.
                let mut nrm = 0.0;
                for i in 0..n {
                    let mut acc = C64::zero();
                    for (j, &yj) in y.iter().enumerate().take(k + 1) {
                        acc += q[(i, j)] * yj;
                    }
                    vecs[(i, k)] = acc;
                    nrm += acc.norm_sqr();
                }
                let nrm = nrm.sqrt();
                if nrm > 0.0 {
                    let inv = C64::new(1.0 / nrm, 0.0);
                    for i in 0..n {
                        vecs[(i, k)] *= inv;
                    }
                }
            }
            vecs
        }
    }

    fn all_vectors(d: &EigDecomp) -> DMat<C64> {
        d.vectors(&(0..d.values.len()).collect::<Vec<_>>())
    }

    fn residual_ok<S: Scalar>(a: &DMat<S>, d: &EigDecomp, tol: f64) {
        let ac = to_complex(a);
        let vecs = all_vectors(d);
        let av = matmul(&ac, Op::None, &vecs, Op::None);
        for j in 0..a.ncols() {
            for i in 0..a.nrows() {
                let want = vecs[(i, j)] * d.values[j];
                let diff = (av[(i, j)] - want).abs();
                assert!(
                    diff < tol * (1.0 + d.values[j].abs()),
                    "eig residual {diff} at ({i},{j}), λ = {:?}",
                    d.values[j]
                );
            }
        }
    }

    #[test]
    fn eig_diagonal() {
        let a = DMat::<f64>::from_fn(4, 4, |i, j| if i == j { (i + 1) as f64 } else { 0.0 });
        let d = eig(&a);
        assert!(d.converged);
        let mut vals: Vec<f64> = d.values.iter().map(|v| v.re).collect();
        vals.sort_by(|a, b| a.partial_cmp(b).unwrap());
        for (i, v) in vals.iter().enumerate() {
            assert!((v - (i + 1) as f64).abs() < 1e-10);
        }
        residual_ok(&a, &d, 1e-9);
    }

    #[test]
    fn eig_symmetric_real() {
        // Tridiagonal 1D Laplacian: eigenvalues 2 − 2cos(kπ/(n+1)).
        let n = 12;
        let a = DMat::<f64>::from_fn(n, n, |i, j| {
            if i == j {
                2.0
            } else if i.abs_diff(j) == 1 {
                -1.0
            } else {
                0.0
            }
        });
        let d = eig(&a);
        assert!(d.converged);
        residual_ok(&a, &d, 1e-8);
        let mut vals: Vec<f64> = d.values.iter().map(|v| v.re).collect();
        vals.sort_by(|x, y| x.partial_cmp(y).unwrap());
        for (k, v) in vals.iter().enumerate() {
            let expect =
                2.0 - 2.0 * (std::f64::consts::PI * (k + 1) as f64 / (n as f64 + 1.0)).cos();
            assert!((v - expect).abs() < 1e-8, "λ_{k} = {v}, expect {expect}");
        }
    }

    #[test]
    fn eig_real_with_complex_pairs() {
        // Rotation-like block has complex eigenvalues ±i plus real 3.
        let mut a = DMat::<f64>::zeros(3, 3);
        a[(0, 1)] = -1.0;
        a[(1, 0)] = 1.0;
        a[(2, 2)] = 3.0;
        let d = eig(&a);
        assert!(d.converged);
        residual_ok(&a, &d, 1e-9);
        let mut found_i = 0;
        for v in &d.values {
            if (v.re).abs() < 1e-9 && (v.im.abs() - 1.0).abs() < 1e-9 {
                found_i += 1;
            }
        }
        assert_eq!(found_i, 2, "expected the ±i pair, got {:?}", d.values);
    }

    #[test]
    fn eig_complex_matrix() {
        let a = DMat::<C64>::from_fn(6, 6, |i, j| {
            C64::from_parts(
                ((i * 5 + j * 3) % 7) as f64 - 3.0,
                ((i + 2 * j) % 5) as f64 - 2.0,
            ) + if i == j {
                C64::from_parts(6.0, 0.0)
            } else {
                C64::zero()
            }
        });
        let d = eig(&a);
        assert!(d.converged);
        residual_ok(&a, &d, 1e-8);
    }

    #[test]
    fn eig_nonnormal_hessenberg() {
        // A genuinely non-normal upper Hessenberg matrix like a GMRES H.
        let n = 10;
        let a = DMat::<f64>::from_fn(n, n, |i, j| {
            if i <= j + 1 {
                (((i * 7 + j * 11) % 13) as f64 - 6.0) / 3.0 + if i == j { 4.0 } else { 0.0 }
            } else {
                0.0
            }
        });
        let d = eig(&a);
        assert!(d.converged);
        residual_ok(&a, &d, 1e-7);
    }

    #[test]
    fn generalized_reduces_to_standard_when_w_is_identity() {
        let a = DMat::<f64>::from_fn(5, 5, |i, j| {
            ((i + 2 * j) % 5) as f64 + if i == j { 4.0 } else { 0.0 }
        });
        let w = DMat::<f64>::eye(5);
        let dg = eig_generalized(&a, &w);
        let ds = eig(&a);
        let mut g: Vec<f64> = dg.values.iter().map(|v| v.abs()).collect();
        let mut s: Vec<f64> = ds.values.iter().map(|v| v.abs()).collect();
        g.sort_by(|a, b| a.partial_cmp(b).unwrap());
        s.sort_by(|a, b| a.partial_cmp(b).unwrap());
        for (x, y) in g.iter().zip(&s) {
            assert!((x - y).abs() < 1e-8);
        }
    }

    #[test]
    fn generalized_eig_residual() {
        // T z = θ W z with W SPD.
        let n = 6;
        let t = DMat::<f64>::from_fn(n, n, |i, j| {
            ((i * 3 + j) % 7) as f64 - 3.0 + if i == j { 5.0 } else { 0.0 }
        });
        let m = DMat::<f64>::from_fn(n, n, |i, j| ((i + j * 2) % 5) as f64 * 0.2);
        let mut w = matmul(&m, Op::ConjTrans, &m, Op::None);
        for i in 0..n {
            w[(i, i)] += 3.0;
        }
        let d = eig_generalized(&t, &w);
        assert!(d.converged);
        let tc = to_complex(&t);
        let wc = to_complex(&w);
        let vecs = all_vectors(&d);
        let tv = matmul(&tc, Op::None, &vecs, Op::None);
        let wv = matmul(&wc, Op::None, &vecs, Op::None);
        for j in 0..n {
            for i in 0..n {
                let want = wv[(i, j)] * d.values[j];
                assert!(
                    (tv[(i, j)] - want).abs() < 1e-7 * (1.0 + d.values[j].abs()),
                    "generalized residual at ({i},{j})"
                );
            }
        }
    }

    #[test]
    fn smallest_selection() {
        let a = DMat::<f64>::from_fn(5, 5, |i, j| {
            if i == j {
                [5.0, -0.5, 3.0, 0.1, -2.0][i]
            } else {
                0.0
            }
        });
        let d = eig(&a);
        let idx = d.smallest_indices(2);
        let mags: Vec<f64> = idx.iter().map(|&i| d.values[i].abs()).collect();
        assert!((mags[0] - 0.1).abs() < 1e-12);
        assert!((mags[1] - 0.5).abs() < 1e-12);
    }

    // --- The sweeps against the reference, bit for bit. ---

    type SchurFn = fn(DMat<C64>) -> EigDecomp;

    /// Both compiled variants of the decomposition, where the second exists.
    fn variants() -> Vec<SchurFn> {
        let mut v: Vec<SchurFn> = vec![|h| schur_body(Plain, h)];
        #[cfg(target_arch = "x86_64")]
        if avx2::Avx2::detect().is_some() {
            v.push(|h| {
                let kern = avx2::Avx2::detect().expect("AVX2 was detected");
                // SAFETY: `kern` exists, so the CPU has AVX2.
                unsafe { schur_avx2(kern, h) }
            });
        }
        v
    }

    fn bits(v: &[C64]) -> Vec<(u64, u64)> {
        v.iter().map(|z| (z.re.to_bits(), z.im.to_bits())).collect()
    }

    fn rnd(i: usize, j: usize, salt: usize) -> f64 {
        let h = (i.wrapping_mul(2654435761) ^ j.wrapping_mul(40503) ^ salt.wrapping_mul(69069))
            .wrapping_mul(0x9E37_79B9_7F4A_7C15);
        ((h >> 11) % 20011) as f64 / 10005.5 - 1.0
    }

    /// A block upper Hessenberg matrix of block width `p` (a cycle's `H_m`)
    /// whose last `p` columns are full — the rank-`p` update of eq. (2).
    fn block_hessenberg<S: Scalar>(n: usize, p: usize, salt: usize) -> DMat<S> {
        DMat::from_fn(n, n, |i, j| {
            if i <= j + p || j + p >= n {
                let shift = if i == j { 2.0 + (i % 5) as f64 } else { 0.0 };
                S::from_parts(rnd(i, j, salt) + shift, rnd(i, j, salt + 1))
            } else {
                S::zero()
            }
        })
    }

    /// What the reference pipeline gives for `a`: the Schur pair, the
    /// convergence flag, and every eigenvector.
    fn reference_eig(a: &DMat<C64>) -> (DMat<C64>, DMat<C64>, bool, DMat<C64>) {
        let (mut h, mut q) = reference::hessenberg(a);
        let converged = reference::schur_qr(&mut h, &mut q);
        let vecs = reference::eigvecs_from_schur(&h, &q);
        (h, q, converged, vecs)
    }

    /// `d` is the reference's decomposition of the same input, bit for bit:
    /// `T`, `Q`, the values, every eigenvector, and a subset asked for out
    /// of order.
    fn assert_same(d: &EigDecomp, want: &(DMat<C64>, DMat<C64>, bool, DMat<C64>), what: &str) {
        let (h, q, converged, vecs) = want;
        let n = h.nrows();
        assert_eq!(d.converged, *converged, "{what}: converged");
        assert_eq!(bits(d.t.as_slice()), bits(h.as_slice()), "{what}: T");
        assert_eq!(bits(d.q.as_slice()), bits(q.as_slice()), "{what}: Q");
        let diag: Vec<C64> = (0..n).map(|i| h[(i, i)]).collect();
        assert_eq!(bits(&d.values), bits(&diag), "{what}: values");
        assert_eq!(
            bits(all_vectors(d).as_slice()),
            bits(vecs.as_slice()),
            "{what}: vectors"
        );
        let all: Vec<usize> = (0..n).collect();
        let plain = d.vectors_body(Plain, &all);
        assert_eq!(
            bits(plain.as_slice()),
            bits(vecs.as_slice()),
            "{what}: plain vectors"
        );
        let mut some = d.smallest_indices(n.div_ceil(3));
        some.reverse();
        some.push(n - 1);
        for (c, &k) in some.iter().enumerate() {
            let got = d.vectors(&some);
            assert_eq!(bits(got.col(c)), bits(vecs.col(k)), "{what}: vector {k}");
        }
    }

    fn eig_matches_reference<S: Scalar>(a: &DMat<S>, what: &str) {
        let ac = to_complex(a);
        let want = reference_eig(&ac);
        for (v, body) in variants().into_iter().enumerate() {
            assert_same(&body(ac.clone()), &want, &format!("{what}, variant {v}"));
        }
        assert_same(&eig(a), &want, what);
    }

    /// Block Hessenberg shapes of every size a cycle produces, real (whose
    /// eigenvalues come in conjugate pairs) and complex, at block widths 1
    /// and 8, and a dense matrix beside them.
    #[test]
    fn eig_matches_reference_bitwise() {
        for n in [1, 2, 3, 8, 50, 224] {
            for p in [1, 8] {
                let c: DMat<C64> = block_hessenberg(n, p, 3 * n + p);
                eig_matches_reference(&c, &format!("C64 n = {n}, p = {p}"));
                if n < 224 || p == 1 {
                    let r: DMat<f64> = block_hessenberg(n, p, 5 * n + p);
                    eig_matches_reference(&r, &format!("f64 n = {n}, p = {p}"));
                }
            }
            let dense = DMat::<f64>::from_fn(n, n, |i, j| rnd(i, j, 11));
            if n <= 50 {
                eig_matches_reference(&dense, &format!("dense f64 n = {n}"));
            }
        }
        // A real matrix with conjugate pairs only: rotations of growing
        // speed along the diagonal.
        let mut pairs = DMat::<f64>::zeros(12, 12);
        for b in 0..6 {
            let (i, w) = (2 * b, 1.0 + b as f64);
            pairs[(i, i)] = 0.5;
            pairs[(i + 1, i + 1)] = 0.5;
            pairs[(i, i + 1)] = -w;
            pairs[(i + 1, i)] = w;
        }
        let mix = DMat::<f64>::from_fn(12, 12, |i, j| 0.01 * rnd(i, j, 13));
        pairs.axpy(1.0, &mix);
        let d = eig(&pairs);
        assert!(d.values.iter().filter(|v| v.im.abs() > 0.5).count() >= 10);
        eig_matches_reference(&pairs, "conjugate pairs");
    }

    /// Repeated eigenvalues (two copies of one block), a Jordan block (one
    /// defective eigenvalue, where the back-substitution clamps its
    /// denominators) and exact zeros on the subdiagonal (deflation from the
    /// start).
    #[test]
    fn eig_matches_reference_on_degenerate_spectra() {
        let b = DMat::<f64>::from_fn(5, 5, |i, j| rnd(i, j, 17));
        let mut twice = DMat::<f64>::zeros(10, 10);
        twice.set_block(0, 0, &b);
        twice.set_block(5, 5, &b);
        eig_matches_reference(&twice, "repeated");
        let jordan = DMat::<C64>::from_fn(9, 9, |i, j| match j as isize - i as isize {
            0 => C64::new(2.0, -1.0),
            1 => C64::one(),
            _ => C64::zero(),
        });
        eig_matches_reference(&jordan, "Jordan block");
        let split = DMat::<f64>::from_fn(8, 8, |i, j| {
            if i <= j || (i == j + 1 && i % 3 != 0) {
                rnd(i, j, 19)
            } else {
                0.0
            }
        });
        eig_matches_reference(&split, "split Hessenberg");
    }

    /// `eig_generalized` against the reference LU and eigensolver: a
    /// well-conditioned `W`, and a singular one that takes the regularized
    /// branch; real and complex.
    fn generalized_matches_reference<S: Scalar>(n: usize) {
        let t: DMat<S> = block_hessenberg(n, 1, 23);
        let m: DMat<S> = DMat::from_fn(n, n, |i, j| S::from_parts(rnd(i, j, 29), rnd(j, i, 31)));
        let mut w = matmul(&m, Op::ConjTrans, &m, Op::None);
        for i in 0..n {
            w[(i, i)] += S::from_f64(n as f64);
        }
        // A basis vector orthogonal to everything: a zero row and column.
        let mut singular = w.clone();
        for i in 0..n {
            singular[(i, n - 1)] = S::zero();
            singular[(n - 1, i)] = S::zero();
        }
        for (what, w) in [("regular", w), ("singular", singular)] {
            let mut wc = to_complex(&w);
            let mut f = Lu::factor_reference(wc.clone());
            assert_eq!(f.is_singular(), what == "singular", "{what}, n = {n}");
            if f.is_singular() {
                let shift = w.max_abs().max(f64::EPSILON) * f64::EPSILON * 1e4;
                for i in 0..n {
                    wc[(i, i)] += C64::new(shift, 0.0);
                }
                f = Lu::factor_reference(wc);
            }
            let want = reference_eig(&f.solve(&to_complex(&t)));
            let what = format!("generalized {what}, n = {n}");
            assert_same(&eig_generalized(&t, &w), &want, &what);
        }
    }

    #[test]
    fn eig_generalized_matches_reference_bitwise() {
        for n in [2, 3, 8, 30] {
            generalized_matches_reference::<f64>(n);
            generalized_matches_reference::<C64>(n);
        }
    }

    /// A non-finite input is answered at once: no sweep, NaN values, not
    /// converged — and no panic from the LU of a `W` that is not a number.
    #[test]
    fn non_finite_input_runs_no_sweep() {
        let mut a: DMat<C64> = block_hessenberg(40, 8, 37);
        let d = eig(&a);
        assert!(d.converged && d.sweeps > 0);
        a[(17, 20)] = C64::new(f64::NAN, 0.0);
        for d in [eig(&a), eig_generalized(&a, &DMat::eye(40))] {
            assert!(!d.converged);
            assert_eq!(d.sweeps, 0);
            assert!(d.values.iter().all(|v| v.re.is_nan()));
            assert!(d.vectors(&[0, 39]).as_slice().iter().all(|v| v.re.is_nan()));
        }
        let mut w = DMat::<f64>::eye(6);
        w[(2, 2)] = f64::INFINITY;
        let d = eig_generalized(&DMat::<f64>::eye(6), &w);
        assert_eq!((d.converged, d.sweeps), (false, 0));
    }
}
