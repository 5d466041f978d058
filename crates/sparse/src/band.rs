//! Banded LU factorization with partial pivoting (LAPACK `gbtrf`-style) and
//! right-hand-side-interleaved triangular solves on the compacted factor.
//!
//! This is the computational core of the workspace's PARDISO stand-in: after
//! an RCM reordering the subdomain matrices have small bandwidth and the band
//! is factored once. The factor is then compacted to its actual profile —
//! `L` by columns, `U` by rows, each trimmed to its last stored nonzero — and
//! the fill-padded band is freed. Solves run on row-major tiles of up to
//! eight right-hand sides, so every factor entry is loaded once, stride-1,
//! and updates a contiguous run of right-hand-side values: the BLAS-2 →
//! BLAS-3 regime change the paper measures in Fig. 6.

use kryst_scalar::{Real, Scalar};

/// Banded matrix in LAPACK band storage with room for pivoting fill:
/// entry `(i, j)` lives at `ab[(kl + ku + i − j, j)]`, valid for
/// `−(kl+ku) ≤ i − j ≤ kl`.
pub struct BandMat<S> {
    n: usize,
    kl: usize,
    ku: usize,
    ldab: usize,
    ab: Vec<S>,
}

impl<S: Scalar> BandMat<S> {
    /// Zero-initialized band storage.
    pub fn zeros(n: usize, kl: usize, ku: usize) -> Self {
        let ldab = 2 * kl + ku + 1;
        Self {
            n,
            kl,
            ku,
            ldab,
            ab: vec![S::zero(); ldab * n],
        }
    }

    /// Matrix dimension.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Lower bandwidth.
    pub fn kl(&self) -> usize {
        self.kl
    }

    /// Upper bandwidth (excluding pivoting fill).
    pub fn ku(&self) -> usize {
        self.ku
    }

    /// Bytes held by the band storage (for the Fig. 6 memory accounting).
    pub fn storage_bytes(&self) -> usize {
        self.ab.len() * std::mem::size_of::<S>()
    }

    #[inline(always)]
    fn idx(&self, i: usize, j: usize) -> usize {
        debug_assert!(
            i + self.ku + self.kl >= j && i <= j + self.kl,
            "({i},{j}) outside band"
        );
        j * self.ldab + (self.kl + self.ku + i - j)
    }

    /// Entry accessor (must be inside the band incl. fill region).
    #[inline(always)]
    pub fn get(&self, i: usize, j: usize) -> S {
        self.ab[self.idx(i, j)]
    }

    /// Entry setter (must be inside the band incl. fill region).
    #[inline(always)]
    pub fn set(&mut self, i: usize, j: usize, v: S) {
        let k = self.idx(i, j);
        self.ab[k] = v;
    }

    /// Factor in place: afterwards the band holds `U` on and above the
    /// diagonal (bandwidth `kl + ku`) and the multipliers of `L` below it.
    /// Returns the pivot rows, or `None` on a zero or non-finite pivot.
    fn factor_in_place(&mut self) -> Option<Vec<usize>> {
        let (n, kl, ldab) = (self.n, self.kl, self.ldab);
        let kv = self.kl + self.ku; // band row of the diagonal
        let mut ipiv = vec![0usize; n];
        let mut ju = 0usize; // last column updated so far
        for j in 0..n {
            let km = kl.min(n - 1 - j); // subdiagonal entries in column j
            let (left, right) = self.ab.split_at_mut((j + 1) * ldab);
            let colj = &mut left[j * ldab + kv..][..km + 1];
            let mut jp = 0usize;
            let mut pmax = colj[0].abs();
            for (t, v) in colj.iter().enumerate().skip(1) {
                let v = v.abs();
                if v > pmax {
                    pmax = v;
                    jp = t;
                }
            }
            ipiv[j] = j + jp;
            ju = ju.max((j + self.ku + jp).min(n - 1));
            if pmax == S::Real::zero() || !pmax.is_finite() {
                return None;
            }
            // Column k > j holds row j at band row `kv − (k − j)`; the pivot
            // row sits `jp` entries below it (inside the fill region).
            if jp != 0 {
                colj.swap(0, jp);
                for k in j + 1..=ju {
                    let col = &mut right[(k - j - 1) * ldab..];
                    col.swap(kv - (k - j), kv - (k - j) + jp);
                }
            }
            if km > 0 {
                let inv = S::one() / colj[0];
                let l = &mut colj[1..];
                for v in l.iter_mut() {
                    *v *= inv;
                }
                // Trailing update limited to columns with a nonzero in row j.
                for k in j + 1..=ju {
                    let col = &mut right[(k - j - 1) * ldab + kv - (k - j)..][..km + 1];
                    let ajk = col[0];
                    if ajk == S::zero() {
                        continue;
                    }
                    for (c, &lv) in col[1..].iter_mut().zip(l.iter()) {
                        *c -= lv * ajk;
                    }
                }
            }
        }
        Some(ipiv)
    }
}

/// Widest right-hand-side tile of the solve kernel.
const TILE: usize = 8;

/// The tiles that cover `p` right-hand sides, as `(first column, width)`:
/// full 8-wide ones, then a 4/2/1 tail. In a packed `n × p` block, tile
/// `(c0, w)` is the row-major `n × w` slice `[n·c0 .. n·(c0 + w)]`.
fn tiles(p: usize) -> impl Iterator<Item = (usize, usize)> {
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

/// The row-major tiles of a packed block of `n`-row columns, as
/// `(first column, width, tile)`.
fn tiles_mut<S>(block: &mut [S], n: usize) -> impl Iterator<Item = (usize, usize, &mut [S])> {
    let p = block.len().checked_div(n).unwrap_or(0);
    assert_eq!(block.len(), n * p, "packed block must hold whole columns");
    let mut rest = block;
    tiles(p).map(move |(c0, w)| {
        let (tile, tail) = std::mem::take(&mut rest).split_at_mut(n * w);
        rest = tail;
        (c0, w, tile)
    })
}

/// Fill a packed block of `n`-row right-hand sides (the layout
/// [`BandLu::solve_packed`] works on): entry `(row, column)` is
/// `entry(row, column)`.
pub fn pack<S>(block: &mut [S], n: usize, mut entry: impl FnMut(usize, usize) -> S) {
    for (c0, w, tile) in tiles_mut(block, n) {
        for (k, row) in tile.chunks_exact_mut(w).enumerate() {
            for (c, v) in row.iter_mut().enumerate() {
                *v = entry(k, c0 + c);
            }
        }
    }
}

/// Visit every entry of a packed block of `n`-row columns as
/// `visit(row, column, value)`.
pub fn unpack<S: Copy>(block: &[S], n: usize, mut visit: impl FnMut(usize, usize, S)) {
    let p = block.len().checked_div(n).unwrap_or(0);
    for (c0, w) in tiles(p) {
        for (k, row) in block[n * c0..n * (c0 + w)].chunks_exact(w).enumerate() {
            for (c, &v) in row.iter().enumerate() {
                visit(k, c0 + c, v);
            }
        }
    }
}

/// Length of `it` up to and including its last nonzero entry.
fn trimmed_len<S: Scalar>(mut it: impl DoubleEndedIterator<Item = S> + ExactSizeIterator) -> usize {
    it.rposition(|v| v != S::zero()).map_or(0, |k| k + 1)
}

/// LU factorization of a banded matrix with partial pivoting, compacted to
/// the factors' profile.
pub struct BandLu<S> {
    n: usize,
    ipiv: Vec<usize>,
    /// Column `j` of `L` (rows `j+1..`) is `lval[lptr[j]..lptr[j+1]]`.
    lptr: Vec<usize>,
    lval: Vec<S>,
    /// Row `j` of `U` right of the diagonal (columns `j+1..`) is
    /// `uval[uptr[j]..uptr[j+1]]`.
    uptr: Vec<usize>,
    uval: Vec<S>,
    /// Reciprocals of the diagonal of `U`.
    dinv: Vec<S>,
}

impl<S: Scalar> BandLu<S> {
    /// Factor the band matrix (consumed; its storage is freed once the
    /// factors are compacted). `None` on a zero or non-finite pivot.
    pub fn factor(mut m: BandMat<S>) -> Option<Self> {
        let ipiv = m.factor_in_place()?;
        let (n, kl, ldab, ab) = (m.n, m.kl, m.ldab, &m.ab[..]);
        let kv = m.kl + m.ku;
        let lcol = |j: usize| &ab[j * ldab + kv + 1..][..kl.min(n - 1 - j)];
        // U(j, j + d) sits one column right and one band row up per step.
        let urow = |j: usize| (1..kv.min(n - 1 - j) + 1).map(move |d| ab[(j + d) * ldab + kv - d]);
        // Size the profiles first: growing them would hold more than the
        // band and its compacted copy at once.
        let mut lptr = vec![0; n + 1];
        let mut uptr = vec![0; n + 1];
        for j in 0..n {
            lptr[j + 1] = lptr[j] + trimmed_len(lcol(j).iter().copied());
            uptr[j + 1] = uptr[j] + trimmed_len(urow(j));
        }
        let mut lval = Vec::with_capacity(lptr[n]);
        let mut uval = Vec::with_capacity(uptr[n]);
        for j in 0..n {
            lval.extend_from_slice(&lcol(j)[..lptr[j + 1] - lptr[j]]);
            uval.extend(urow(j).take(uptr[j + 1] - uptr[j]));
        }
        let dinv = (0..n).map(|j| S::one() / ab[j * ldab + kv]).collect();
        Some(Self {
            n,
            ipiv,
            lptr,
            lval,
            uptr,
            uval,
            dinv,
        })
    }

    /// Matrix dimension.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Factor entries one solve reads per right-hand-side tile: the stored
    /// profiles of `L` and `U` plus the diagonal.
    pub fn factor_len(&self) -> usize {
        self.lval.len() + self.uval.len() + self.dinv.len()
    }

    /// Solve `A·X = B` in place on a packed block of `b.len() / n`
    /// right-hand sides ([`pack`] fills one, [`unpack`] reads it back; a
    /// single right-hand side is the plain vector). Each column sees the
    /// same operations in the same order whichever tile width carries it.
    pub fn solve_packed(&self, b: &mut [S]) {
        for (_, w, tile) in tiles_mut(b, self.n) {
            match w {
                8 => self.solve_tile::<8>(tile),
                4 => self.solve_tile::<4>(tile),
                2 => self.solve_tile::<2>(tile),
                _ => self.solve_tile::<1>(tile),
            }
        }
    }

    /// Forward and backward substitution on one row-major `n × W` tile.
    fn solve_tile<const W: usize>(&self, x: &mut [S]) {
        let n = self.n;
        // Forward: row interchanges, then an axpy per column of L.
        for j in 0..n {
            let pvt = self.ipiv[j];
            if pvt != j {
                let (head, tail) = x.split_at_mut(pvt * W);
                head[j * W..][..W].swap_with_slice(&mut tail[..W]);
            }
            let l = &self.lval[self.lptr[j]..self.lptr[j + 1]];
            let (head, tail) = x.split_at_mut((j + 1) * W);
            let bj: [S; W] = (&head[j * W..]).try_into().expect("row of W entries");
            let rows = tail.chunks_exact_mut(W);
            if bj.iter().all(|&v| v != S::zero()) {
                for (&lv, row) in l.iter().zip(rows) {
                    for (r, &bv) in row.iter_mut().zip(&bj) {
                        *r -= lv * bv;
                    }
                }
            } else {
                // A zero entry skips its column's update: that keeps the
                // signed zeros and non-finite multipliers of the
                // column-at-a-time recurrence.
                for (&lv, row) in l.iter().zip(rows) {
                    for (r, &bv) in row.iter_mut().zip(&bj) {
                        if bv != S::zero() {
                            *r -= lv * bv;
                        }
                    }
                }
            }
        }
        // Backward: a dot product per row of U, columns ascending.
        for j in (0..n).rev() {
            let u = &self.uval[self.uptr[j]..self.uptr[j + 1]];
            let (head, tail) = x.split_at_mut((j + 1) * W);
            let xj = &mut head[j * W..];
            let mut acc: [S; W] = (&*xj).try_into().expect("row of W entries");
            for (&uv, row) in u.iter().zip(tail.chunks_exact(W)) {
                for (a, &xv) in acc.iter_mut().zip(row) {
                    *a -= uv * xv;
                }
            }
            let dinv = self.dinv[j];
            for (x, &a) in xj.iter_mut().zip(&acc) {
                *x = a * dinv;
            }
        }
    }
}

#[cfg(test)]
#[allow(clippy::needless_range_loop)] // index loops mirror the BLAS/LAPACK reference forms
mod tests {
    use super::*;
    use kryst_rt::rng::Rng64;
    use kryst_scalar::{C32, C64};

    /// The column-at-a-time recurrence on the full fill-padded band (`m`
    /// already factored in place): the reference the packed kernel must
    /// reproduce bit for bit.
    fn solve_one<S: Scalar>(m: &BandMat<S>, ipiv: &[usize], b: &mut [S]) {
        let n = m.n;
        for j in 0..n {
            b.swap(j, ipiv[j]);
            let bj = b[j];
            if bj == S::zero() {
                continue;
            }
            for t in 1..=m.kl.min(n - 1 - j) {
                b[j + t] -= m.get(j + t, j) * bj;
            }
        }
        for j in (0..n).rev() {
            let mut acc = b[j];
            for k in j + 1..=(j + m.kl + m.ku).min(n - 1) {
                acc -= m.get(j, k) * b[k];
            }
            b[j] = acc * (S::one() / m.get(j, j));
        }
    }

    fn band_from<S: Scalar>(
        n: usize,
        kl: usize,
        ku: usize,
        f: impl Fn(usize, usize) -> S,
    ) -> BandMat<S> {
        let mut bm = BandMat::zeros(n, kl, ku);
        for i in 0..n {
            for j in i.saturating_sub(kl)..(i + ku + 1).min(n) {
                bm.set(i, j, f(i, j));
            }
        }
        bm
    }

    fn bits<S: Scalar>(v: S) -> (u64, u64) {
        (v.re().to_f64().to_bits(), v.im().to_f64().to_bits())
    }

    /// Pack column-major `cols` (`n × p`), solve, and return the solution
    /// column-major again.
    fn solve_columns<S: Scalar>(f: &BandLu<S>, cols: &[S], p: usize) -> Vec<S> {
        let n = f.n();
        let mut packed = vec![S::zero(); n * p];
        pack(&mut packed, n, |k, c| cols[c * n + k]);
        f.solve_packed(&mut packed);
        let mut out = vec![S::zero(); n * p];
        unpack(&packed, n, |k, c, v| out[c * n + k] = v);
        out
    }

    /// Random banded matrices whose zero diagonals force row interchanges,
    /// right-hand sides with exact zeros (and one all-zero column): every
    /// column of every block width must equal the band recurrence bitwise.
    fn packed_matches_recurrence<S: Scalar>(seed: u64) {
        let mut rng = Rng64::seed_from_u64(seed);
        let (kl, ku) = (3usize, 2usize);
        let bw = kl.max(ku);
        let (mut factored, mut pivoted) = (0, false);
        for (kl, ku) in [(kl, ku), (0, 2), (2, 0), (1, 4)] {
            for n in [1, 2, bw, bw + 1, 40] {
                let vals: Vec<S> = (0..n * n)
                    .map(|_| S::from_parts(rng.gen_range(-1.0, 1.0), rng.gen_range(-1.0, 1.0)))
                    .collect();
                // With kl = 0 there is no row to pivot to: keep the diagonal.
                let entry = |i: usize, j: usize| {
                    if i == j && kl > 0 && i % 3 != 2 && i + 1 < n {
                        S::zero()
                    } else {
                        vals[i * n + j]
                    }
                };
                let mut reference = band_from(n, kl, ku, entry);
                let Some(ipiv) = reference.factor_in_place() else {
                    continue;
                };
                let f = BandLu::factor(band_from(n, kl, ku, entry)).expect("same pivots");
                factored += 1;
                pivoted |= ipiv.iter().enumerate().any(|(j, &pj)| pj != j);
                let max_p = 17;
                let cols: Vec<S> = (0..n * max_p)
                    .map(|k| {
                        if k % 5 == 3 || k / n == 6 {
                            S::zero()
                        } else {
                            S::from_parts(rng.gen_range(-1.0, 1.0), rng.gen_range(-1.0, 1.0))
                        }
                    })
                    .collect();
                let mut expect = cols.clone();
                for col in expect.chunks_exact_mut(n) {
                    solve_one(&reference, &ipiv, col);
                }
                for p in [1, 2, 3, 7, 8, 9, 17] {
                    let got = solve_columns(&f, &cols[..n * p], p);
                    for (k, (&g, &e)) in got.iter().zip(&expect).enumerate() {
                        assert_eq!(
                            bits(g),
                            bits(e),
                            "kl={kl} ku={ku} n={n} p={p} column {} row {}",
                            k / n,
                            k % n
                        );
                    }
                }
            }
        }
        assert!(factored >= 15 && pivoted, "{factored} cases factored");
    }

    #[test]
    fn packed_kernel_is_bitwise_the_band_recurrence() {
        packed_matches_recurrence::<f64>(11);
        packed_matches_recurrence::<C64>(12);
        packed_matches_recurrence::<f32>(13);
        packed_matches_recurrence::<C32>(14);
    }

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

    #[test]
    fn band_lu_solves() {
        let n = 25;
        let entry = |i: usize, j: usize| {
            (((i * 13 + j * 7) % 11) as f64) - 5.0 + if i == j { 14.0 } else { 0.0 }
        };
        let f = BandLu::factor(band_from(n, 3, 2, entry)).expect("nonsingular");
        let x_true: Vec<f64> = (0..n).map(|i| (i as f64) * 0.5 - 3.0).collect();
        let mut b = vec![0.0; n];
        for i in 0..n {
            for j in i.saturating_sub(3)..(i + 3).min(n) {
                b[i] += entry(i, j) * x_true[j];
            }
        }
        f.solve_packed(&mut b);
        for i in 0..n {
            assert!(
                (b[i] - x_true[i]).abs() < 1e-10,
                "x[{i}] = {} vs {}",
                b[i],
                x_true[i]
            );
        }
    }

    #[test]
    fn band_lu_requires_pivoting() {
        // Zero diagonal forces row interchanges.
        let n = 6;
        let entry = |i: usize, j: usize| {
            if i == j {
                0.0
            } else {
                1.0 + (i + j) as f64 * 0.1
            }
        };
        let f = BandLu::factor(band_from(n, 1, 1, entry)).expect("nonsingular");
        let x_true: Vec<f64> = (0..n).map(|i| 1.0 + i as f64).collect();
        let mut b = vec![0.0; n];
        for i in 0..n {
            for j in i.saturating_sub(1)..(i + 2).min(n) {
                b[i] += entry(i, j) * x_true[j];
            }
        }
        f.solve_packed(&mut b);
        for i in 0..n {
            assert!((b[i] - x_true[i]).abs() < 1e-10);
        }
    }

    #[test]
    fn complex_band_solve() {
        let n = 15;
        let entry = |i: usize, j: usize| {
            C64::from_parts(
                ((i * 3 + j) % 5) as f64 - 2.0 + if i == j { 7.0 } else { 0.0 },
                ((i + j * 2) % 3) as f64 - 1.0,
            )
        };
        let f = BandLu::factor(band_from(n, 2, 2, entry)).expect("nonsingular");
        let x_true: Vec<C64> = (0..n).map(|i| C64::from_parts(i as f64, -0.5)).collect();
        let mut b = vec![C64::zero(); n];
        for i in 0..n {
            for j in i.saturating_sub(2)..(i + 3).min(n) {
                b[i] += entry(i, j) * x_true[j];
            }
        }
        f.solve_packed(&mut b);
        for i in 0..n {
            assert!((b[i] - x_true[i]).abs() < 1e-10);
        }
    }

    #[test]
    fn profile_is_trimmed_to_stored_nonzeros() {
        // Diagonally dominant tridiagonal in a wider band: no pivoting, so
        // the fill region and the unused band rows all trim away.
        let n = 9;
        let tri = |i: usize, j: usize| match i.abs_diff(j) {
            0 => 4.0,
            1 => -1.0,
            _ => 0.0,
        };
        let f = BandLu::factor(band_from(n, 3, 3, tri)).unwrap();
        assert_eq!(f.factor_len(), 3 * n - 2);
        assert!(f.factor_len() < n * (3 * 3 + 1));
        // Last column of L and last row of U are empty.
        assert_eq!(f.lptr[n - 1], f.lptr[n]);
        assert_eq!(f.uptr[n - 1], f.uptr[n]);

        // A diagonal matrix: every U row has no off-diagonal entry.
        let d = BandLu::factor(band_from(5, 2, 2, |i, j| {
            if i == j {
                2.0 + i as f64
            } else {
                0.0
            }
        }))
        .unwrap();
        assert_eq!(d.factor_len(), 5);
        let mut b = vec![2.0, 3.0, 4.0, 5.0, 6.0];
        d.solve_packed(&mut b);
        assert_eq!(b, [1.0; 5]);

        // An interior zero inside the profile is kept, not skipped.
        let gap = |i: usize, j: usize| match (i, j) {
            _ if i == j => 3.0,
            (_, _) if j == i + 2 => 1.0,
            _ => 0.0,
        };
        let g = BandLu::factor(band_from(6, 0, 2, gap)).unwrap();
        assert_eq!(g.lval.len(), 0);
        assert_eq!(g.uval.len(), 2 * 4);
    }

    #[test]
    fn singular_and_non_finite_pivots_are_rejected() {
        let zero_col = |i: usize, j: usize| {
            if j == 2 {
                0.0
            } else {
                1.0 + (i + 2 * j) as f64
            }
        };
        assert!(BandLu::factor(band_from(5, 1, 1, zero_col)).is_none());
        for bad in [f64::NAN, f64::INFINITY] {
            let m = band_from(5, 1, 1, |i, j| match (i, j) {
                (3, 3) => bad,
                _ if i == j => 4.0,
                _ => 1.0,
            });
            assert!(BandLu::factor(m).is_none());
        }
        assert!(BandLu::factor(BandMat::<C64>::zeros(3, 1, 1)).is_none());
    }
}
