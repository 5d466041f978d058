//! Compressed sparse row matrix.

use kryst_dense::DMat;
use kryst_rt::par::{for_each_range, SendPtr};
use kryst_scalar::{Real, Scalar};

/// Compressed sparse row matrix with sorted column indices per row.
#[derive(Clone, Debug, PartialEq)]
pub struct Csr<S> {
    nrows: usize,
    ncols: usize,
    indptr: Vec<usize>,
    indices: Vec<usize>,
    data: Vec<S>,
}

/// Row count below which SpMV/SpMM stay single-threaded.
const PAR_ROWS: usize = 4096;

/// Stored entries from which a row is summed on two accumulators; see
/// [`sweep_rows`]. Rows of 3-, 5- and 7-point stencils stay below it.
const TWO_LANE_LEN: usize = 8;

/// Column-block width for SpMM register accumulators: each row's nonzeros
/// are streamed once per block of this many right-hand sides.
const SPMM_COLS: usize = 8;

/// Flat positions `k` at which `indices[k - 1] < indices[k]` fails and `k`
/// starts a row. Every other such position is inside a row, whose column
/// indices must strictly increase. `indptr` is non-decreasing from 0 to
/// `indices.len()`, so the starts of the non-empty rows are distinct.
fn row_start_descents(indptr: &[usize], indices: &[usize]) -> usize {
    indptr
        .windows(2)
        .filter(|w| 0 < w[0] && w[0] < w[1] && indices[w[0] - 1] >= indices[w[0]])
        .count()
}

/// The panic of [`Csr::from_raw`], naming the first offending row.
#[cold]
#[inline(never)]
fn invalid_csr(ncols: usize, indptr: &[usize], indices: &[usize]) -> ! {
    if let Some(i) = indptr.windows(2).position(|w| w[0] > w[1]) {
        panic!(
            "Csr::from_raw: row {i} has indptr {}..{}: indptr must not decrease",
            indptr[i],
            indptr[i + 1]
        );
    }
    if let Some(k) = indices.iter().position(|&c| c >= ncols) {
        let i = indptr.partition_point(|&p| p <= k) - 1;
        panic!(
            "Csr::from_raw: row {i} has column index {}, matrix has {ncols} columns",
            indices[k]
        );
    }
    let (i, w) = indptr
        .windows(2)
        .enumerate()
        .find_map(|(i, r)| {
            let row = &indices[r[0]..r[1]];
            row.windows(2).find(|w| w[0] >= w[1]).map(|w| (i, w))
        })
        .expect("called for an invalid matrix");
    panic!(
        "Csr::from_raw: row {i} has column index {} after {}: \
         column indices must strictly increase within a row",
        w[1], w[0]
    );
}

/// `acc[l] += a·x[l·xn + c]` for `l < nb`: the one place a stored entry meets
/// an operand entry. Always inlined, so a literal `nb` fixes the loop's width
/// and the accumulators it touches stay in registers.
///
/// # Safety
/// `x` must be readable at `l·xn + c` for every `l < nb`.
#[inline(always)]
unsafe fn add_entry<S: Scalar>(
    acc: &mut [S; SPMM_COLS],
    nb: usize,
    (a, c): (S, usize),
    (x, xn): (*const S, usize),
) {
    for (l, al) in acc.iter_mut().enumerate().take(nb) {
        *al += a * *x.add(l * xn + c);
    }
}

/// Rows `row(r0..r1)` of one block of `nb ≤ SPMM_COLS` columns starting at
/// column `jb`; see [`sweep_rows`], whose contract this inherits. `W` is `nb`
/// where that is a literal and 0 where it is not. Never inlined: each width
/// is a function of its own, so the single-column loop over 5-point rows is
/// not allocated registers together with the 16-accumulator block loop.
#[inline(never)]
#[allow(clippy::too_many_arguments)]
unsafe fn sweep_block<S: Scalar, const W: usize>(
    (indptr, indices, data): (&[usize], &[usize], &[S]),
    (x, xn): (&[S], usize),
    (y, n): (SendPtr<S>, usize),
    row: &impl Fn(usize) -> usize,
    fin: &impl Fn(usize, S) -> S,
    (r0, r1): (usize, usize),
    (jb, nb): (usize, usize),
) {
    let nb = if W == 0 { nb } else { W };
    let x = (x[jb * xn..].as_ptr(), xn);
    let at = |k: usize| (*data.get_unchecked(k), *indices.get_unchecked(k));
    for r in r0..r1 {
        let i = row(r);
        // Checked: a row that is out of range panics here, before the write.
        let (lo, hi) = (indptr[i], indptr[i + 1]);
        let mut even = [S::zero(); SPMM_COLS];
        if hi - lo < TWO_LANE_LEN {
            for k in lo..hi {
                add_entry(&mut even, nb, at(k), x);
            }
        } else {
            let mut odd = [S::zero(); SPMM_COLS];
            let mut k = lo;
            while k + 1 < hi {
                add_entry(&mut even, nb, at(k), x);
                add_entry(&mut odd, nb, at(k + 1), x);
                k += 2;
            }
            if k < hi {
                add_entry(&mut even, nb, at(k), x);
            }
            for (e, o) in even.iter_mut().zip(odd).take(nb) {
                *e += o;
            }
        }
        for (l, &sum) in even.iter().enumerate().take(nb) {
            let idx = (jb + l) * n + i;
            *y.ptr().add(idx) = fin(idx, sum);
        }
    }
}

/// `y[j·n + i] ⟵ fin(j·n + i, Σ_k a_ik·x[j·xn + c_k])` for the rows
/// `i = row(r)`, `r < count`, and every column `j < p` of the column-major
/// `x` (`xn` rows) and `y` (`n` rows): the row loop under every sweep of
/// [`Csr`]. The matrix is read once per block of [`SPMM_COLS`] columns;
/// threads take one contiguous range of `r` each.
///
/// **Summation rule.** A row of fewer than [`TWO_LANE_LEN`] stored entries
/// is summed in index order. A longer one adds the products at even
/// positions of the row into one accumulator and those at odd positions into
/// a second, each in index order, and returns `even + odd`: two independent
/// add chains where one would wait out the add latency at every entry. The
/// rule looks at one row and one column only, so a value depends neither on
/// `p`, nor on the thread count, nor on which rows were asked for.
///
/// # Safety
/// `indptr` must not decrease and must end at `indices.len() == data.len()`,
/// and every stored column index must be `< xn`; `row` must not name a row
/// twice.
unsafe fn sweep_rows<S: Scalar>(
    arrays: (&[usize], &[usize], &[S]),
    (x, xn): (&[S], usize),
    (y, n): (&mut [S], usize),
    p: usize,
    (count, row): (usize, impl Fn(usize) -> usize + Sync),
    fin: impl Fn(usize, S) -> S + Sync,
) {
    assert_eq!(arrays.0.len(), n + 1);
    assert_eq!((x.len(), y.len()), (p * xn, p * n));
    let (x, y) = ((x, xn), (SendPtr::new(y.as_mut_ptr()), n));
    let band = |r0: usize, r1: usize| {
        let rs = (r0, r1);
        for jb in (0..p).step_by(SPMM_COLS) {
            // SAFETY: the caller's contract — what `Csr::from_raw` validated —
            // puts every `k` of `indptr[i]..indptr[i + 1]` inside `indices`
            // and `data` and every column number below `xn`, so with
            // `x.len() == p·xn` (asserted above) every operand read is in
            // bounds. `indptr[i]` is bounds-checked, so `i < n` and the write
            // at `(jb + l)·n + i` is inside `y` (`p·n` long); rows are
            // distinct and threads take disjoint ranges of them, so each
            // element is written once. The checks these replace cost
            // 1.07–1.5× on rows of 5–81 entries.
            unsafe {
                // One compiled copy per literal width, one for the rest.
                let cols = (jb, SPMM_COLS.min(p - jb));
                match cols.1 {
                    1 => sweep_block::<_, 1>(arrays, x, y, &row, &fin, rs, cols),
                    SPMM_COLS => sweep_block::<_, SPMM_COLS>(arrays, x, y, &row, &fin, rs, cols),
                    _ => sweep_block::<_, 0>(arrays, x, y, &row, &fin, rs, cols),
                }
            }
        }
    };
    if count >= PAR_ROWS {
        for_each_range(count, 0, band);
    } else {
        band(0, count);
    }
}

impl<S: Scalar> Csr<S> {
    /// Build from raw CSR arrays. Panics unless `indptr` is non-decreasing
    /// from row to row, every column index is `< ncols` and the column
    /// indices of a row strictly increase — checked in every build profile,
    /// because the kernels index `x` and the value arrays by these numbers
    /// and [`Csr::get`] and [`Csr::diag`] search the sorted rows.
    pub fn from_raw(
        nrows: usize,
        ncols: usize,
        indptr: Vec<usize>,
        indices: Vec<usize>,
        data: Vec<S>,
    ) -> Self {
        assert_eq!(indptr.len(), nrows + 1);
        assert_eq!(indices.len(), data.len());
        assert_eq!((indptr[0], indptr[nrows]), (0, indices.len()));
        // Three flat, branch-free scans (and one look at each row start);
        // the offending row is looked up only to word the panic.
        let decreasing = indptr.windows(2).filter(|w| w[0] > w[1]).count();
        let out_of_range = indices.iter().filter(|&&c| c >= ncols).count();
        let descents = indices.windows(2).filter(|w| w[0] >= w[1]).count();
        if decreasing + out_of_range > 0 || descents > row_start_descents(&indptr, &indices) {
            invalid_csr(ncols, &indptr, &indices);
        }
        Self {
            nrows,
            ncols,
            indptr,
            indices,
            data,
        }
    }

    /// Identity matrix.
    pub fn eye(n: usize) -> Self {
        Self::from_raw(n, n, (0..=n).collect(), (0..n).collect(), vec![S::one(); n])
    }

    /// Diagonal matrix from a vector of entries.
    pub fn from_diag(d: &[S]) -> Self {
        let n = d.len();
        Self::from_raw(n, n, (0..=n).collect(), (0..n).collect(), d.to_vec())
    }

    /// Number of rows.
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Number of columns.
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// Number of stored nonzeros.
    pub fn nnz(&self) -> usize {
        self.data.len()
    }

    /// Bytes of matrix data (values + indices + row pointers) streamed by
    /// one apply, independent of the block width `p` (every nonzero is read
    /// once per apply thanks to the column-block register kernel).
    pub fn bytes_streamed(&self) -> usize {
        self.nnz() * (core::mem::size_of::<S>() + core::mem::size_of::<usize>())
            + (self.nrows() + 1) * core::mem::size_of::<usize>()
    }

    /// Row pointer array.
    pub fn indptr(&self) -> &[usize] {
        &self.indptr
    }

    /// Column indices of row `i`.
    pub fn row_indices(&self, i: usize) -> &[usize] {
        &self.indices[self.indptr[i]..self.indptr[i + 1]]
    }

    /// Values of row `i`.
    pub fn row_values(&self, i: usize) -> &[S] {
        &self.data[self.indptr[i]..self.indptr[i + 1]]
    }

    /// Mutable values of row `i`.
    pub fn row_values_mut(&mut self, i: usize) -> &mut [S] {
        &mut self.data[self.indptr[i]..self.indptr[i + 1]]
    }

    /// Entry `(i, j)` (zero if not stored) — O(log nnz_row).
    pub fn get(&self, i: usize, j: usize) -> S {
        match self.row_indices(i).binary_search(&j) {
            Ok(k) => self.row_values(i)[k],
            Err(_) => S::zero(),
        }
    }

    /// The diagonal as a vector (missing entries are zero). One linear scan
    /// per row — column indices are sorted, so the scan stops at the first
    /// index ≥ `i` instead of binary-searching the whole row.
    pub fn diag(&self) -> Vec<S> {
        let d = self.nrows.min(self.ncols);
        let mut out = vec![S::zero(); d];
        for (i, oi) in out.iter_mut().enumerate() {
            for k in self.indptr[i]..self.indptr[i + 1] {
                let c = self.indices[k];
                if c >= i {
                    if c == i {
                        *oi = self.data[k];
                    }
                    break;
                }
            }
        }
        out
    }

    /// [`sweep_rows`] over this matrix: `x` and `y` are column-major with
    /// `p` columns, `row` names the `count` rows to compute.
    fn sweep(
        &self,
        (x, p): (&[S], usize),
        y: &mut [S],
        (count, row): (usize, impl Fn(usize) -> usize + Sync),
        fin: impl Fn(usize, S) -> S + Sync,
    ) {
        let arrays = (&self.indptr[..], &self.indices[..], &self.data[..]);
        let (x, y) = ((x, self.ncols), (y, self.nrows));
        // SAFETY: `from_raw`, the only constructor, validated the arrays for
        // `ncols` columns, and nothing hands them out mutably.
        unsafe { sweep_rows(arrays, x, y, p, (count, row), fin) }
    }

    /// `y ⟵ A·x` for a single vector.
    pub fn spmv(&self, x: &[S], y: &mut [S]) {
        self.sweep((x, 1), y, (self.nrows, |r| r), |_, acc| acc);
    }

    /// `Y ⟵ A·X` for a block of `p` vectors (sparse matrix–dense matrix
    /// product). The row's nonzeros are read once per column block of
    /// [`SPMM_COLS`] right-hand sides and streamed across the block through
    /// register accumulators — the arithmetic-intensity win of §V-B2 —
    /// writing the column-major output directly. No temporaries, no
    /// allocation: reusing `y` across solver iterations (see
    /// `SpmmWorkspace`) makes the whole product allocation-free.
    pub fn spmm(&self, x: &DMat<S>, y: &mut DMat<S>) {
        self.spmm_fin(x, y, |_, acc| acc);
    }

    /// `R ⟵ B − A·X` in one sweep over the matrix, with the rounding of
    /// `spmm(X, R); R.scale(−1); R.axpy(1, B)`: each entry is the row sum,
    /// times `−1`, plus `1·b` (both products are exact in real arithmetic
    /// and keep the signed zeros of the three-pass form in complex).
    pub fn residual(&self, b: &DMat<S>, x: &DMat<S>, r: &mut DMat<S>) {
        assert_eq!((b.nrows(), b.ncols()), (r.nrows(), r.ncols()));
        let bd = b.as_slice();
        self.spmm_fin(x, r, |idx, mut acc| {
            acc *= -S::one();
            acc += S::one() * bd[idx];
            acc
        });
    }

    /// [`Csr::spmm`] storing `fin(idx, row sum)` at flat column-major
    /// position `idx` of `y` instead of the bare row sum.
    fn spmm_fin(&self, x: &DMat<S>, y: &mut DMat<S>, fin: impl Fn(usize, S) -> S + Sync) {
        assert_eq!((x.nrows(), y.nrows()), (self.ncols, self.nrows));
        let x = (x.as_slice(), x.ncols());
        self.sweep(x, y.as_mut_slice(), (self.nrows, |r| r), fin);
    }

    /// `Y(rows, :) ⟵ A(rows, :)·X` — the SpMM kernel restricted to a row
    /// subset; rows outside the set are left untouched. Every row is summed
    /// by the kernel of [`Csr::spmm`], so computing the interior rows while a
    /// halo exchange is in flight and the boundary rows afterwards
    /// reproduces the unsplit product bit for bit.
    pub fn spmm_rows(&self, x: &DMat<S>, y: &mut DMat<S>, rows: &[usize]) {
        assert_eq!((x.nrows(), y.nrows()), (self.ncols, self.nrows));
        let x = (x.as_slice(), x.ncols());
        let rows = (rows.len(), |r| rows[r]);
        self.sweep(x, y.as_mut_slice(), rows, |_, acc| acc);
    }

    /// Convenience: allocate and return `A·X`.
    pub fn apply(&self, x: &DMat<S>) -> DMat<S> {
        let mut y = DMat::zeros(self.nrows, x.ncols());
        self.spmm(x, &mut y);
        y
    }

    /// (Conjugate-free) transpose.
    pub fn transpose(&self) -> Self {
        let mut counts = vec![0usize; self.ncols + 1];
        for &c in &self.indices {
            counts[c + 1] += 1;
        }
        for i in 0..self.ncols {
            counts[i + 1] += counts[i];
        }
        let mut indices = vec![0usize; self.nnz()];
        let mut data = vec![S::zero(); self.nnz()];
        let mut next = counts.clone();
        for i in 0..self.nrows {
            for k in self.indptr[i]..self.indptr[i + 1] {
                let c = self.indices[k];
                indices[next[c]] = i;
                data[next[c]] = self.data[k];
                next[c] += 1;
            }
        }
        Self::from_raw(self.ncols, self.nrows, counts, indices, data)
    }

    /// Extract the principal submatrix on the index set `rows` (which also
    /// selects columns): `A(rows, rows)`. `rows` need not be sorted; the
    /// result uses the local ordering of `rows`. Used to form subdomain
    /// operators `R_i·A·R_iᵀ` for Schwarz methods.
    pub fn principal_submatrix(&self, rows: &[usize]) -> Self {
        let mut global_to_local = vec![usize::MAX; self.ncols];
        for (l, &g) in rows.iter().enumerate() {
            global_to_local[g] = l;
        }
        let mut indptr = Vec::with_capacity(rows.len() + 1);
        let mut indices = Vec::new();
        let mut data = Vec::new();
        indptr.push(0);
        let mut rowbuf: Vec<(usize, S)> = Vec::new();
        for &g in rows {
            rowbuf.clear();
            for k in self.indptr[g]..self.indptr[g + 1] {
                let lc = global_to_local[self.indices[k]];
                if lc != usize::MAX {
                    rowbuf.push((lc, self.data[k]));
                }
            }
            rowbuf.sort_unstable_by_key(|&(c, _)| c);
            for &(c, v) in &rowbuf {
                indices.push(c);
                data.push(v);
            }
            indptr.push(indices.len());
        }
        Self::from_raw(rows.len(), rows.len(), indptr, indices, data)
    }

    /// `A + α·I` (square matrices); stored zeros and a diagonal that
    /// cancels to exactly zero are dropped, as [`crate::ops::add`] drops
    /// them.
    pub fn shift_diag(&self, alpha: S) -> Self {
        assert_eq!(self.nrows, self.ncols);
        crate::ops::add(self, &Self::from_diag(&vec![alpha; self.nrows]))
    }

    /// Infinity norm (max absolute row sum).
    pub fn inf_norm(&self) -> S::Real {
        let mut best = S::Real::zero();
        for i in 0..self.nrows {
            let mut acc = S::Real::zero();
            for &v in self.row_values(i) {
                acc += v.abs();
            }
            best = best.max(acc);
        }
        best
    }

    /// Check structural symmetry of the sparsity pattern.
    pub fn is_pattern_symmetric(&self) -> bool {
        if self.nrows != self.ncols {
            return false;
        }
        let t = self.transpose();
        self.indptr == t.indptr && self.indices == t.indices
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Coo;

    fn small() -> Csr<f64> {
        // [2 -1 0; -1 2 -1; 0 -1 2]
        let mut c = Coo::new(3, 3);
        for i in 0..3 {
            c.push(i, i, 2.0);
            if i > 0 {
                c.push(i, i - 1, -1.0);
            }
            if i < 2 {
                c.push(i, i + 1, -1.0);
            }
        }
        c.to_csr()
    }

    #[test]
    fn spmv_matches_dense() {
        let a = small();
        let x = vec![1.0, 2.0, 3.0];
        let mut y = vec![0.0; 3];
        a.spmv(&x, &mut y);
        assert_eq!(y, vec![0.0, 0.0, 4.0]);
    }

    #[test]
    fn spmm_matches_repeated_spmv() {
        let a = small();
        let x = DMat::from_fn(3, 4, |i, j| (i * 4 + j) as f64 - 5.0);
        let y = a.apply(&x);
        for j in 0..4 {
            let xj: Vec<f64> = x.col(j).to_vec();
            let mut yj = vec![0.0; 3];
            a.spmv(&xj, &mut yj);
            for i in 0..3 {
                assert!((y[(i, j)] - yj[i]).abs() < 1e-15);
            }
        }
    }

    #[test]
    fn transpose_roundtrip() {
        let mut c = Coo::<f64>::new(3, 4);
        c.push(0, 1, 1.0);
        c.push(0, 3, 2.0);
        c.push(2, 0, 3.0);
        let a = c.to_csr();
        let t = a.transpose();
        assert_eq!(t.nrows(), 4);
        assert_eq!(t.get(1, 0), 1.0);
        assert_eq!(t.get(3, 0), 2.0);
        assert_eq!(t.get(0, 2), 3.0);
        let tt = t.transpose();
        assert_eq!(tt, a);
    }

    #[test]
    fn principal_submatrix_local_ordering() {
        let a = small();
        let sub = a.principal_submatrix(&[2, 0]);
        // local 0 = global 2, local 1 = global 0. No coupling between 0 and 2.
        assert_eq!(sub.get(0, 0), 2.0);
        assert_eq!(sub.get(1, 1), 2.0);
        assert_eq!(sub.get(0, 1), 0.0);
        assert_eq!(sub.nnz(), 2);
    }

    #[test]
    fn shift_and_norms() {
        let a = small().shift_diag(3.0);
        assert_eq!(a.get(1, 1), 5.0);
        assert_eq!(small().inf_norm(), 4.0);
        assert!(small().is_pattern_symmetric());
    }

    #[test]
    fn diag_extraction() {
        assert_eq!(small().diag(), vec![2.0, 2.0, 2.0]);
    }

    /// Random CSR whose row `i` has `len(i)` stored entries (sorted distinct
    /// columns, so `len(i) ≤ ncols`), from a fixed seed.
    fn with_row_lengths<S: Scalar>(
        nrows: usize,
        ncols: usize,
        seed: u64,
        len: impl Fn(usize) -> usize,
    ) -> Csr<S> {
        let mut rng = kryst_rt::rng::Rng64::seed_from_u64(seed);
        let (mut indptr, mut indices, mut data) = (vec![0], Vec::new(), Vec::new());
        for i in 0..nrows {
            // A random `len`-subset of the columns, by selection sampling.
            let mut need = len(i);
            for c in 0..ncols {
                if rng.gen_index(ncols - c) < need {
                    need -= 1;
                    indices.push(c);
                    data.push(S::from_parts(rng.next_f64() - 0.5, rng.next_f64() - 0.5));
                }
            }
            indptr.push(indices.len());
        }
        Csr::from_raw(nrows, ncols, indptr, indices, data)
    }

    /// Empty rows and ragged lengths 0–20: both sides of `TWO_LANE_LEN`.
    fn ragged<S: Scalar>(nrows: usize, ncols: usize, seed: u64) -> Csr<S> {
        with_row_lengths(
            nrows,
            ncols,
            seed,
            |i| if i % 7 == 3 { 0 } else { i * 5 % 21 },
        )
    }

    fn operand<S: Scalar>(n: usize, p: usize) -> DMat<S> {
        DMat::from_fn(n, p, |i, j| {
            S::from_parts(
                ((i * 7 + j) % 13) as f64 / 3.0 - 2.0,
                ((i + 3 * j) % 5) as f64 / 7.0 - 0.25,
            )
        })
    }

    fn bits<S: Scalar>(v: &[S]) -> Vec<(u64, u64)> {
        v.iter()
            .map(|v| (v.re().to_f64().to_bits(), v.im().to_f64().to_bits()))
            .collect()
    }

    /// The summation rule of `sweep_rows`, written out: `A·X` entry by entry.
    fn by_the_rule<S: Scalar>(a: &Csr<S>, x: &DMat<S>) -> DMat<S> {
        DMat::from_fn(a.nrows(), x.ncols(), |i, j| {
            let products: Vec<S> = (a.row_indices(i).iter().zip(a.row_values(i)))
                .map(|(&c, &v)| v * x[(c, j)])
                .collect();
            let sum = |from: usize, step: usize| {
                let mut acc = S::zero();
                for &t in products.iter().skip(from).step_by(step) {
                    acc += t;
                }
                acc
            };
            if products.len() < 8 {
                sum(0, 1)
            } else {
                sum(0, 2) + sum(1, 2)
            }
        })
    }

    /// Row lengths 0..=17, 59 and 81 (elasticity's mean row and its full
    /// 27-node stencil) at every column-block shape: one column, a partial
    /// block, a full block, a full block and a column.
    fn row_sums_follow_the_rule<S: Scalar>() {
        let lens: Vec<usize> = (0..=17).chain([59, 81]).collect();
        let a = with_row_lengths::<S>(lens.len(), 97, 11, |i| lens[i]);
        for (i, &len) in lens.iter().enumerate() {
            assert_eq!(a.row_indices(i).len(), len);
        }
        for p in [1usize, 3, 8, 9] {
            let x = operand::<S>(97, p);
            let want = by_the_rule(&a, &x);
            // The data must tell the rule from the index-order sum.
            let in_order = (a.row_indices(19).iter().zip(a.row_values(19)))
                .fold(S::zero(), |acc, (&c, &v)| acc + v * x[(c, 0)]);
            assert_ne!(bits(&[in_order]), bits(&[want[(19, 0)]]));
            let got = a.apply(&x);
            for (i, &len) in lens.iter().enumerate() {
                for j in 0..p {
                    let (g, w) = (bits(&[got[(i, j)]]), bits(&[want[(i, j)]]));
                    assert_eq!(g, w, "row of {len} entries, column {j} of {p}");
                }
            }
        }
    }

    #[test]
    fn row_sums_follow_the_two_lane_rule_f64() {
        row_sums_follow_the_rule::<f64>();
    }

    #[test]
    fn row_sums_follow_the_two_lane_rule_c64() {
        row_sums_follow_the_rule::<kryst_scalar::C64>();
    }

    /// Every sweep against the rule and against each other, bit for bit: a
    /// column of `spmm` is `spmv` of that column, `spmm_rows` is `spmm` on
    /// its rows and leaves the others alone, `residual` is its three-pass
    /// form. 4099 rows is above `PAR_ROWS`, so under `KRYST_THREADS=4` (a CI
    /// leg) the sweeps run on the pool; 37 rows stay serial.
    fn single_vector_kernels_match_per_row_reference<S: Scalar>() {
        for (nrows, ncols) in [(37usize, 29usize), (4099, 4500)] {
            let a = ragged::<S>(nrows, ncols, 7 + nrows as u64);
            assert!((0..nrows).any(|i| a.row_indices(i).is_empty()));
            assert!((0..nrows).any(|i| a.row_indices(i).len() == 20));
            for p in [1usize, 3, 8, 9] {
                let x = operand::<S>(ncols, p);
                let b = DMat::from_fn(nrows, p, |i, j| {
                    // A −0 imaginary part: the signed zero must survive.
                    S::from_parts(((i + j) % 9) as f64 - 4.0, -0.0)
                });
                let mut want = by_the_rule(&a, &x);
                let mut got = DMat::from_fn(nrows, p, |_, _| S::from_f64(f64::NAN));
                a.spmm(&x, &mut got);
                assert_eq!(bits(got.as_slice()), bits(want.as_slice()), "spmm p={p}");
                for j in 0..p {
                    let mut yj = vec![S::from_f64(f64::NAN); nrows];
                    a.spmv(x.col(j), &mut yj);
                    assert_eq!(bits(&yj), bits(want.col(j)), "spmv of column {j} of {p}");
                }
                // Every third row, the rest left alone.
                let rows: Vec<usize> = (0..nrows).filter(|i| i % 3 == 1).collect();
                got.fill(S::from_f64(7.0));
                a.spmm_rows(&x, &mut got, &rows);
                let split = DMat::from_fn(nrows, p, |i, j| {
                    if i % 3 == 1 {
                        want[(i, j)]
                    } else {
                        S::from_f64(7.0)
                    }
                });
                assert_eq!(
                    bits(got.as_slice()),
                    bits(split.as_slice()),
                    "spmm_rows p={p}"
                );
                want.scale(-S::one());
                want.axpy(S::one(), &b);
                got.fill(S::from_f64(f64::NAN));
                a.residual(&b, &x, &mut got);
                assert_eq!(
                    bits(got.as_slice()),
                    bits(want.as_slice()),
                    "residual p={p}"
                );
            }
        }
    }

    #[test]
    fn single_vector_kernels_are_bit_identical_f64() {
        single_vector_kernels_match_per_row_reference::<f64>();
    }

    #[test]
    fn single_vector_kernels_are_bit_identical_c64() {
        single_vector_kernels_match_per_row_reference::<kryst_scalar::C64>();
    }

    #[test]
    #[should_panic(expected = "row 1 has column index 3, matrix has 3 columns")]
    fn from_raw_rejects_a_column_index_out_of_range() {
        Csr::from_raw(2, 3, vec![0, 1, 3], vec![0, 1, 3], vec![1.0f64; 3]);
    }

    #[test]
    #[should_panic(expected = "row 1 has column index 0 after 2")]
    fn from_raw_rejects_an_unsorted_row() {
        // Row 0 ends on column 2 and row 1 starts on column 2: a descent at
        // a row start is fine, the one inside row 1 is not.
        Csr::from_raw(2, 3, vec![0, 2, 4], vec![0, 2, 2, 0], vec![1.0f64; 4]);
    }

    #[test]
    #[should_panic(expected = "row 2 has column index 1 after 1")]
    fn from_raw_rejects_a_duplicate_column_after_empty_rows() {
        Csr::from_raw(3, 3, vec![0, 0, 0, 2], vec![1, 1], vec![1.0f64; 2]);
    }

    #[test]
    fn from_raw_accepts_descents_at_row_starts_only() {
        // Every row start descends or repeats; empty rows in between.
        let a = Csr::from_raw(
            5,
            4,
            vec![0, 2, 2, 3, 3, 5],
            vec![2, 3, 3, 0, 1],
            vec![1.0f64; 5],
        );
        assert_eq!(a.get(2, 3), 1.0);
    }

    #[test]
    #[should_panic(expected = "row 1 has indptr 2..1")]
    fn from_raw_rejects_a_decreasing_indptr() {
        Csr::from_raw(3, 3, vec![0, 2, 1, 3], vec![0, 1, 2], vec![1.0f64; 3]);
    }
}
