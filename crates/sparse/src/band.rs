//! Banded LU factorization with partial pivoting (LAPACK `gbtrf`-style) and
//! right-hand-side-interleaved triangular solves on the compacted factor.
//!
//! This is the computational core of the workspace's PARDISO stand-in: after
//! an RCM reordering the subdomain matrices have small bandwidth and the band
//! is factored once. The factor is then compacted to its actual profile —
//! `L` by columns, `U` by rows, each trimmed to its last stored nonzero — and
//! the fill-padded band is freed. Solves run on tiles of up to eight
//! right-hand sides, so every factor entry is loaded once, stride-1, and
//! updates a contiguous run of right-hand-side values: the BLAS-2 → BLAS-3
//! regime change the paper measures in Fig. 6. A tile row keeps the real
//! parts of its right-hand sides together and the imaginary parts together,
//! so the right-hand sides are the vector lanes for complex scalars too.

use kryst_scalar::Scalar;
use std::marker::PhantomData;

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
        run(Factor(self))
    }

    #[inline(always)]
    fn factor_body(&mut self) -> Option<Vec<usize>> {
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
            if pmax == 0.0 || !pmax.is_finite() {
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

/// A loop nest of this file that is compiled twice, for the baseline target
/// and for 256-bit vectors; [`run`] picks.
trait Kernel {
    type Out;
    /// The loops. Always `#[inline(always)]`, so that they are compiled with
    /// the target features of the function they are called from.
    fn body(self) -> Self::Out;
}

/// Run `kernel` at the widest vectors the CPU has.
fn run<K: Kernel>(kernel: K) -> K::Out {
    #[cfg(target_arch = "x86_64")]
    if std::is_x86_feature_detected!("avx2") {
        // SAFETY: the CPU this runs on reports AVX2, the one feature
        // `run_avx2` is compiled with.
        return unsafe { run_avx2(kernel) };
    }
    kernel.body()
}

/// [`Kernel::body`] compiled with 256-bit vectors. AVX2 alone: FMA stays
/// off, so the result is the same bits as the baseline build of the body.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn run_avx2<K: Kernel>(kernel: K) -> K::Out {
    kernel.body()
}

/// [`BandMat::factor_in_place`].
struct Factor<'a, S>(&'a mut BandMat<S>);

impl<S: Scalar> Kernel for Factor<'_, S> {
    type Out = Option<Vec<usize>>;

    #[inline(always)]
    fn body(self) -> Option<Vec<usize>> {
        self.0.factor_body()
    }
}

/// Widest right-hand-side tile of the solve kernel.
const TILE: usize = 8;

/// The tiles that cover `p` right-hand sides, as `(first column, width)`:
/// full 8-wide ones, then a 4/2/1 tail. In a packed `n × p` block, tile
/// `(c0, w)` is the slice `[n·c0 .. n·(c0 + w)]`, row by row; a row is `w`
/// scalars stored as planes of reals — the `w` real parts, then (for a
/// complex scalar) the `w` imaginary parts — so the kernel's lanes are the
/// right-hand sides whatever the scalar type. At `w = 1` that is the plain
/// vector. Only [`pack`], [`unpack`] and the kernel know the plane order.
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

/// The tiles of a packed block of `n`-row columns, as
/// `(first column, width, the tile's planes)`.
fn tiles_mut<S: Scalar>(
    block: &mut [S],
    n: usize,
) -> impl Iterator<Item = (usize, usize, &mut [f64])> {
    let p = block.len().checked_div(n).unwrap_or(0);
    assert_eq!(block.len(), n * p, "packed block must hold whole columns");
    let mut rest = S::reals_mut(block);
    tiles(p).map(move |(c0, w)| {
        let (tile, tail) = std::mem::take(&mut rest).split_at_mut(n * w * S::real_words());
        rest = tail;
        (c0, w, tile)
    })
}

/// Gather rows of column-major right-hand sides (leading dimension `ld`)
/// into a packed block of `rows.len()`-row columns, the layout
/// [`BandLu::solve_packed`] works on: entry `(k, c)` of the block is
/// `src[c·ld + rows[k]]`.
pub fn pack<S: Scalar>(block: &mut [S], rows: &[usize], src: &[S], ld: usize) {
    for (c0, w, tile) in tiles_mut(block, rows.len()) {
        let mut cols: [&[S]; TILE] = [&[]; TILE];
        for (slot, col) in cols
            .iter_mut()
            .zip(src[c0 * ld..(c0 + w) * ld].chunks_exact(ld))
        {
            *slot = col;
        }
        for (row, &g) in tile.chunks_exact_mut(w * S::real_words()).zip(rows) {
            let (re, im) = row.split_at_mut(w);
            for (c, (re, col)) in re.iter_mut().zip(&cols).enumerate() {
                let v = col[g];
                *re = v.re();
                if S::is_complex() {
                    im[c] = v.im();
                }
            }
        }
    }
}

/// Scatter a packed block of `rows.len()`-row columns over column-major
/// `dst` (leading dimension `ld`): for every row `k` of the block,
/// `put = row(k)` and then `put(&mut dst[c·ld + rows[k]], v)` for each
/// entry `(k, c)`, `v` its value — what depends on the row alone is
/// computed once, in `row`.
pub fn unpack<S: Scalar, F: FnMut(&mut S, S)>(
    block: &[S],
    rows: &[usize],
    dst: &mut [S],
    ld: usize,
    mut row: impl FnMut(usize) -> F,
) {
    let n = rows.len();
    let p = block.len().checked_div(n).unwrap_or(0);
    for (c0, w) in tiles(p) {
        let tile = S::reals(&block[n * c0..n * (c0 + w)]);
        let mut cols: [&mut [S]; TILE] = Default::default();
        for (slot, col) in cols
            .iter_mut()
            .zip(dst[c0 * ld..(c0 + w) * ld].chunks_exact_mut(ld))
        {
            *slot = col;
        }
        for (k, (planes, &g)) in tile.chunks_exact(w * S::real_words()).zip(rows).enumerate() {
            let mut put = row(k);
            let (re, im) = planes.split_at(w);
            for (c, (&re, col)) in re.iter().zip(&mut cols).enumerate() {
                let mut v = S::from_f64(re);
                if S::is_complex() {
                    S::reals_mut(std::slice::from_mut(&mut v))[1] = im[c];
                }
                put(&mut col[g], v);
            }
        }
    }
}

/// One tile row in registers: the plane of real parts and, for a complex
/// `S`, the plane of imaginary parts (for a real `S` it is dead and
/// optimised away). The lanes are the tile's right-hand sides.
#[derive(Clone, Copy)]
struct Lanes<S: Scalar, const W: usize> {
    re: [f64; W],
    im: [f64; W],
    scalar: PhantomData<S>,
}

impl<S: Scalar, const W: usize> Lanes<S, W> {
    #[inline(always)]
    fn load(row: &[f64]) -> Self {
        let plane = |k: usize| row[k * W..][..W].try_into().expect("plane of W lanes");
        Self {
            re: plane(0),
            im: if S::is_complex() { plane(1) } else { [0.0; W] },
            scalar: PhantomData,
        }
    }

    #[inline(always)]
    fn store(self, row: &mut [f64]) {
        row[..W].copy_from_slice(&self.re);
        if S::is_complex() {
            row[W..][..W].copy_from_slice(&self.im);
        }
    }

    /// `self − a·b` in every lane, rounded as `a * b` followed by `-=`
    /// rounds on `S`: the four products, the difference and the sum of
    /// `C64::mul` in its operand order, then the subtraction per part.
    #[inline(always)]
    fn sub_mul(self, a: S, b: &Self) -> Self {
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

    /// `self·d` in every lane, rounded as `self * d` rounds on `S`.
    #[inline(always)]
    fn mul(self, d: S) -> Self {
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
    fn nonzero(&self, c: usize) -> bool {
        self.re[c] != 0.0 || (S::is_complex() && self.im[c] != 0.0)
    }

    /// Lane by lane, `self` where `keep` is zero and `other` elsewhere.
    #[inline(always)]
    fn where_zero(self, keep: &Self, other: Self) -> Self {
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
        if b.len() == self.n && !S::is_complex() {
            // One real column has no lanes to fill: its backward sweep is a
            // single scalar dependency chain, and 256-bit work in the
            // forward sweep only slows the clock under it (3 % slower
            // measured on `f64`; a complex column is 8 % faster wide).
            return Solve(self, b).body();
        }
        run(Solve(self, b))
    }

    /// Forward and backward substitution on the planes of one `n × W` tile.
    #[inline(always)]
    fn solve_tile<const W: usize>(&self, x: &mut [f64]) {
        let n = self.n;
        let rw = W * S::real_words();
        // Forward: row interchanges, then an axpy per column of L.
        for j in 0..n {
            let pvt = self.ipiv[j];
            if pvt != j {
                let (head, tail) = x.split_at_mut(pvt * rw);
                head[j * rw..][..rw].swap_with_slice(&mut tail[..rw]);
            }
            let l = &self.lval[self.lptr[j]..self.lptr[j + 1]];
            let (head, tail) = x.split_at_mut((j + 1) * rw);
            let bj = Lanes::<S, W>::load(&head[j * rw..]);
            let dense = (0..W).all(|c| bj.nonzero(c));
            for (&lv, row) in l.iter().zip(tail.chunks_exact_mut(rw)) {
                if W > 1 {
                    // With the lanes unrolled the loop vectoriser would
                    // rather vectorise across rows, gathering lane `c` of
                    // several rows at stride `rw` (twice the time per
                    // entry). The barrier keeps it out of this loop and
                    // leaves the lanes to the straight-line vectoriser; at
                    // `W = 1` the loop runs down the contiguous column of
                    // L and is the vectoriser's to take.
                    std::hint::black_box(());
                }
                let r = Lanes::<S, W>::load(row);
                // A zero entry skips its column's update: that keeps the
                // signed zeros and non-finite multipliers of the
                // column-at-a-time recurrence.
                let next = r.sub_mul(lv, &bj);
                if dense { next } else { r.where_zero(&bj, next) }.store(row);
            }
        }
        // Backward: a dot product per row of U, columns ascending.
        for j in (0..n).rev() {
            let u = &self.uval[self.uptr[j]..self.uptr[j + 1]];
            let (head, tail) = x.split_at_mut((j + 1) * rw);
            let xj = &mut head[j * rw..];
            let mut acc = Lanes::<S, W>::load(xj);
            for (&uv, row) in u.iter().zip(tail.chunks_exact(rw)) {
                acc = acc.sub_mul(uv, &Lanes::load(row));
            }
            acc.mul(self.dinv[j]).store(xj);
        }
    }
}

/// [`BandLu::solve_packed`]: every tile of the block, widest first.
struct Solve<'a, S>(&'a BandLu<S>, &'a mut [S]);

impl<S: Scalar> Kernel for Solve<'_, S> {
    type Out = ();

    #[inline(always)]
    fn body(self) {
        let Solve(lu, b) = self;
        for (_, w, tile) in tiles_mut(b, lu.n) {
            match w {
                8 => lu.solve_tile::<8>(tile),
                4 => lu.solve_tile::<4>(tile),
                2 => lu.solve_tile::<2>(tile),
                _ => lu.solve_tile::<1>(tile),
            }
        }
    }
}

#[cfg(test)]
#[allow(clippy::needless_range_loop)] // index loops mirror the BLAS/LAPACK reference forms
mod tests {
    use super::*;
    use kryst_rt::rng::Rng64;
    use kryst_scalar::C64;

    /// The column-at-a-time recurrence on the fill-padded band (`m` already
    /// factored in place), each column of `L` and row of `U` read up to its
    /// last nonzero as the compacted factor stores them: the reference the
    /// packed kernel must reproduce bit for bit.
    fn solve_one<S: Scalar>(m: &BandMat<S>, ipiv: &[usize], b: &mut [S]) {
        let n = m.n;
        for j in 0..n {
            b.swap(j, ipiv[j]);
            let bj = b[j];
            if bj == S::zero() {
                continue;
            }
            let len = trimmed_len((1..m.kl.min(n - 1 - j) + 1).map(|t| m.get(j + t, j)));
            for t in 1..=len {
                b[j + t] -= m.get(j + t, j) * bj;
            }
        }
        for j in (0..n).rev() {
            let mut acc = b[j];
            let len = trimmed_len((j + 1..(j + m.kl + m.ku).min(n - 1) + 1).map(|k| m.get(j, k)));
            for k in j + 1..=j + len {
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
        (v.re().to_bits(), v.im().to_bits())
    }

    type SolveFn<S> = fn(&BandLu<S>, &mut [S]);
    type FactorFn<S> = fn(&mut BandMat<S>) -> Option<Vec<usize>>;

    /// Both compiled variants of the two kernels, where the second exists.
    fn variants<S: Scalar>() -> Vec<(FactorFn<S>, SolveFn<S>)> {
        let mut v: Vec<(FactorFn<S>, SolveFn<S>)> =
            vec![(|m| Factor(m).body(), |f, b| Solve(f, b).body())];
        #[cfg(target_arch = "x86_64")]
        if std::is_x86_feature_detected!("avx2") {
            // SAFETY: AVX2 was detected on the line above.
            v.push((
                |m| unsafe { run_avx2(Factor(m)) },
                |f, b| unsafe { run_avx2(Solve(f, b)) },
            ));
        }
        v
    }

    /// Pack column-major `cols` (`n × p`), solve with `solve`, and return
    /// the solution column-major again.
    fn solve_columns<S: Scalar>(f: &BandLu<S>, solve: SolveFn<S>, cols: &[S], p: usize) -> Vec<S> {
        let n = f.n();
        let rows: Vec<usize> = (0..n).collect();
        let mut packed = vec![S::zero(); n * p];
        pack(&mut packed, &rows, cols, n);
        solve(f, &mut packed);
        let mut out = vec![S::zero(); n * p];
        unpack(&packed, &rows, &mut out, n, |_| |o, v| *o = v);
        out
    }

    /// Every column of every block width, through both compiled bodies,
    /// against `expect` (column-major, 17 columns): the same bits, or with
    /// `nan_ok` a NaN where the reference has one (which NaN an operation
    /// returns is not pinned down).
    fn check_widths<S: Scalar>(f: &BandLu<S>, cols: &[S], expect: &[S], nan_ok: bool, what: &str) {
        let n = f.n();
        let same =
            |g: f64, e: f64| g.to_bits() == e.to_bits() || (nan_ok && g.is_nan() && e.is_nan());
        for (body, &(_, solve)) in variants::<S>().iter().enumerate() {
            for p in [1, 2, 3, 4, 7, 8, 9, 17] {
                let got = solve_columns(f, solve, &cols[..n * p], p);
                for (k, (&g, &e)) in got.iter().zip(expect).enumerate() {
                    assert!(
                        same(g.re(), e.re()) && same(g.im(), e.im()),
                        "{what} body {body} n={n} p={p} column {} row {}: {:?} vs {:?}",
                        k / n,
                        k % n,
                        bits(g),
                        bits(e)
                    );
                }
            }
        }
    }

    /// Random banded matrices whose zero diagonals force row interchanges
    /// (and whose profiles trim where the band is wider than the entries),
    /// right-hand sides with exact zeros of both signs, one all-zero and one
    /// all-negative-zero column: every column of every block width must
    /// equal the band recurrence bitwise — also with non-finite multipliers
    /// planted in `L`, which a zero lane must skip.
    fn packed_matches_recurrence<S: Scalar>(seed: u64) {
        let mut rng = Rng64::seed_from_u64(seed);
        let (mut factored, mut pivoted, mut trimmed, mut poisoned) = (0, false, false, 0);
        // `(kl, ku, stored)`: entries further than `stored` from the
        // diagonal are zero, so the factors' profiles end inside the band.
        for (kl, ku, stored) in [(3, 2, 3), (0, 2, 2), (2, 0, 2), (1, 4, 4), (4, 5, 1)] {
            for n in [1, 2, 3, 4, 40] {
                let vals: Vec<S> = (0..n * n)
                    .map(|_| S::from_parts(rng.gen_range(-1.0, 1.0), rng.gen_range(-1.0, 1.0)))
                    .collect();
                // With kl = 0 there is no row to pivot to: keep the diagonal.
                let entry = |i: usize, j: usize| {
                    if (i == j && kl > 0 && i % 3 != 2 && i + 1 < n) || i.abs_diff(j) > stored {
                        S::zero()
                    } else {
                        vals[i * n + j]
                    }
                };
                let mut reference = band_from(n, kl, ku, entry);
                let Some(ipiv) = reference.factor_in_place() else {
                    continue;
                };
                let mut f = BandLu::factor(band_from(n, kl, ku, entry)).expect("same pivots");
                factored += 1;
                pivoted |= ipiv.iter().enumerate().any(|(j, &pj)| pj != j);
                trimmed |= f.lval.len() < (0..n).map(|j| kl.min(n - 1 - j)).sum();
                let max_p = 17;
                let cols: Vec<S> = (0..n * max_p)
                    .map(|k| match (k / n, k % 5) {
                        (6, _) | (_, 3) => S::zero(),
                        (4, r) => S::from_parts(-0.0, if r % 2 == 0 { -0.0 } else { 0.0 }),
                        (_, 1) if k % 3 == 0 => S::from_parts(-0.0, -0.0),
                        _ => S::from_parts(rng.gen_range(-1.0, 1.0), rng.gen_range(-1.0, 1.0)),
                    })
                    .collect();
                let reference_solve = |reference: &BandMat<S>| {
                    let mut expect = cols.clone();
                    for col in expect.chunks_exact_mut(n) {
                        solve_one(reference, &ipiv, col);
                    }
                    expect
                };
                let what = format!("kl={kl} ku={ku} stored={stored}");
                check_widths(&f, &cols, &reference_solve(&reference), false, &what);

                // Plant an infinity and a NaN in stored entries of L.
                let bad = [f64::INFINITY, f64::NAN].map(|v| S::from_parts(v, -v));
                for (j, v) in [(0, bad[0]), (n / 2, bad[1])] {
                    if f.lptr[j + 1] > f.lptr[j] {
                        f.lval[f.lptr[j]] = v;
                        reference.set(j + 1, j, v);
                        poisoned += 1;
                    }
                }
                let expect = reference_solve(&reference);
                // The zero columns never meet a multiplier.
                for c in [4, 6] {
                    assert!(expect[c * n..(c + 1) * n].iter().all(|v| v.is_finite()));
                }
                check_widths(&f, &cols, &expect, true, &format!("{what} poisoned"));
            }
        }
        assert!(
            factored >= 18 && pivoted && trimmed,
            "{factored} cases factored"
        );
        assert!(poisoned >= 10, "{poisoned} multipliers replaced");
    }

    #[test]
    fn packed_kernel_is_bitwise_the_band_recurrence() {
        packed_matches_recurrence::<f64>(11);
        packed_matches_recurrence::<C64>(12);
    }

    /// `unpack ∘ pack` is the identity through every tile shape, the packed
    /// rows follow `rows`, and a single column is stored as the plain vector.
    fn pack_round_trips<S: Scalar>() {
        for n in [1usize, 2, 5, 11] {
            // A permutation (3 is coprime to every `n` here), so the scatter
            // hits every row once; the columns are two rows longer.
            let rows: Vec<usize> = (0..n).map(|k| (k * 3 + 1) % n).collect();
            let ld = n + 2;
            for p in 0..20 {
                let src: Vec<S> = (0..ld * p)
                    .map(|k| S::from_parts(k as f64 + 0.5, -(k as f64) - 0.25))
                    .collect();
                let mut block = vec![S::zero(); n * p];
                pack(&mut block, &rows, &src, ld);
                if p == 1 {
                    let plain: Vec<S> = rows.iter().map(|&g| src[g]).collect();
                    assert_eq!(block, plain);
                }
                let mut dst = vec![S::zero(); ld * p];
                let mut seen = 0;
                unpack(&block, &rows, &mut dst, ld, |k| {
                    seen += 1;
                    assert!(k < n);
                    |d, v| *d = v
                });
                assert_eq!(seen, n * tiles(p).count());
                for c in 0..p {
                    for g in 0..ld {
                        let want = if rows.contains(&g) {
                            src[c * ld + g]
                        } else {
                            S::zero()
                        };
                        assert_eq!(dst[c * ld + g], want, "n={n} p={p} ({g},{c})");
                    }
                }
            }
        }
    }

    #[test]
    fn pack_then_unpack_is_the_identity() {
        pack_round_trips::<f64>();
        pack_round_trips::<C64>();
    }

    /// Both compiled bodies of the factorization leave the same band and
    /// the same pivots, bit for bit, on matrices that need interchanges.
    fn factor_bodies_agree<S: Scalar>(seed: u64) {
        let mut rng = Rng64::seed_from_u64(seed);
        for (n, kl, ku) in [(1, 0, 0), (7, 2, 1), (40, 5, 3), (33, 1, 6)] {
            let vals: Vec<S> = (0..n * n)
                .map(|_| S::from_parts(rng.gen_range(-1.0, 1.0), rng.gen_range(-1.0, 1.0)))
                .collect();
            let entry = |i: usize, j: usize| {
                if i == j && kl > 0 && i % 2 != 1 && i + 1 < n {
                    S::zero()
                } else {
                    vals[i * n + j]
                }
            };
            let results: Vec<_> = variants::<S>()
                .iter()
                .map(|&(factor, _)| {
                    let mut m = band_from(n, kl, ku, entry);
                    let ipiv = factor(&mut m);
                    (ipiv, m.ab.iter().map(|&v| bits(v)).collect::<Vec<_>>())
                })
                .collect();
            assert!(results[0].0.is_some(), "n={n} kl={kl} ku={ku} factors");
            for r in &results[1..] {
                assert_eq!(r, &results[0], "n={n} kl={kl} ku={ku}");
            }
        }
    }

    #[test]
    fn factor_bodies_agree_bitwise() {
        factor_bodies_agree::<f64>(21);
        factor_bodies_agree::<C64>(22);
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
