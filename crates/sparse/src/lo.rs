//! Compact low-precision CSR: `u32` column indices + demoted values.
//!
//! A standard [`Csr<f64>`](crate::Csr) streams 16 bytes per nonzero
//! (`usize` index + `f64` value) through every apply. [`CsrLo`] stores the
//! same matrix as `u32` indices and `S::Lo` values — 8 bytes per nonzero
//! for real `f64` matrices — and promotes each value back to the working
//! precision inside the kernel, so the accumulation itself is unchanged.
//! Preconditioner internals (ILU factors, AMG hierarchy operators) are the
//! intended users: the outer Krylov iteration never sees `S::Lo` directly.

use crate::csr::{sweep_rows, Csr};
use kryst_dense::DMat;
use kryst_scalar::Demote;

/// Low-precision compressed sparse row matrix.
///
/// Built by demoting a full-precision [`Csr`]; applies promote on the fly
/// and produce full-precision output. The sweeps run the row kernel of
/// [`Csr::spmm`] (column blocking, parallel row bands, summation rule), so
/// the only difference from the full-precision product is the rounding of
/// the stored values.
#[derive(Clone, Debug)]
pub struct CsrLo<S: Demote> {
    nrows: usize,
    ncols: usize,
    indptr: Vec<usize>,
    indices: Vec<u32>,
    data: Vec<S::Lo>,
}

impl<S: Demote> CsrLo<S> {
    /// Demote a full-precision matrix into compact low-precision storage.
    pub fn from_csr(a: &Csr<S>) -> Self {
        assert!(
            a.ncols() <= u32::MAX as usize,
            "CsrLo requires column indices to fit in u32"
        );
        let nnz = a.nnz();
        let mut indices = Vec::with_capacity(nnz);
        let mut data = Vec::with_capacity(nnz);
        for i in 0..a.nrows() {
            for (k, &c) in a.row_indices(i).iter().enumerate() {
                indices.push(c as u32);
                data.push(a.row_values(i)[k].demote());
            }
        }
        Self {
            nrows: a.nrows(),
            ncols: a.ncols(),
            indptr: a.indptr().to_vec(),
            indices,
            data,
        }
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
    /// one full apply, independent of the block width `p` (every nonzero is
    /// read once per apply thanks to the column-block register kernel).
    pub fn bytes_streamed(&self) -> usize {
        self.nnz() * (core::mem::size_of::<S::Lo>() + core::mem::size_of::<u32>())
            + self.indptr.len() * core::mem::size_of::<usize>()
    }

    /// [`sweep_rows`] over this matrix, promoting values on the fly: `x` and
    /// `y` are column-major with `p` columns, `row` names the `count` rows
    /// to compute.
    fn sweep(
        &self,
        (x, p): (&[S], usize),
        y: &mut [S],
        rows: (usize, impl Fn(usize) -> usize + Sync),
    ) {
        let arrays = (&self.indptr[..], &self.indices[..], &self.data[..]);
        let entry = |v, c: u32| (S::promote_lo(v), c as usize);
        let (x, y) = ((x, self.ncols), (y, self.nrows));
        // SAFETY: `from_csr`, the only constructor, copies the row pointers
        // and the column indices (which it checked to fit `u32`) of a matrix
        // `Csr::from_raw` validated, and nothing hands them out mutably.
        unsafe { sweep_rows(arrays, entry, x, y, p, rows, |_, acc| acc) }
    }

    /// `y ⟵ A·x` for a single vector, promoting values on the fly.
    pub fn spmv(&self, x: &[S], y: &mut [S]) {
        self.sweep((x, 1), y, (self.nrows, |r| r));
    }

    /// `Y ⟵ A·X` for a block of `p` vectors — the [`Csr::spmm`] column-block
    /// register kernel with half the per-nonzero traffic.
    pub fn spmm(&self, x: &DMat<S>, y: &mut DMat<S>) {
        assert_eq!((x.nrows(), y.nrows()), (self.ncols, self.nrows));
        let x = (x.as_slice(), x.ncols());
        self.sweep(x, y.as_mut_slice(), (self.nrows, |r| r));
    }

    /// `Y(rows, :) ⟵ A(rows, :)·X` — row-subset SpMM; rows outside the set
    /// are left untouched. Mirrors [`Csr::spmm_rows`].
    pub fn spmm_rows(&self, x: &DMat<S>, y: &mut DMat<S>, rows: &[usize]) {
        assert_eq!((x.nrows(), y.nrows()), (self.ncols, self.nrows));
        let x = (x.as_slice(), x.ncols());
        self.sweep(x, y.as_mut_slice(), (rows.len(), |r| rows[r]));
    }
}

impl<S: Demote> Csr<S> {
    /// Bytes of matrix data (values + indices + row pointers) streamed by
    /// one full-precision apply. Companion to [`CsrLo::bytes_streamed`] for
    /// bytes-per-iteration reporting.
    pub fn bytes_streamed(&self) -> usize {
        self.nnz() * (core::mem::size_of::<S>() + core::mem::size_of::<usize>())
            + (self.nrows() + 1) * core::mem::size_of::<usize>()
    }

    /// Demote every stored value, keeping the sparsity pattern: a
    /// `Csr<S::Lo>` suitable for low-precision *factorization* (e.g. the
    /// Schwarz subdomain direct solves, whose banded factors then live in
    /// `S::Lo`). For apply-only use, prefer [`CsrLo`] which also compacts
    /// the indices.
    pub fn demote_values(&self) -> Csr<S::Lo> {
        let mut indptr = Vec::with_capacity(self.nrows() + 1);
        indptr.push(0usize);
        let mut indices = Vec::with_capacity(self.nnz());
        let mut data = Vec::with_capacity(self.nnz());
        for i in 0..self.nrows() {
            for (k, &c) in self.row_indices(i).iter().enumerate() {
                indices.push(c);
                data.push(self.row_values(i)[k].demote());
            }
            indptr.push(indices.len());
        }
        Csr::from_raw(self.nrows(), self.ncols(), indptr, indices, data)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Coo;
    use kryst_scalar::{Scalar, C64};

    fn testmat(n: usize) -> Csr<f64> {
        let mut c = Coo::new(n, n);
        for i in 0..n {
            c.push(i, i, 4.0 + (i % 3) as f64 * 0.125);
            if i > 0 {
                c.push(i, i - 1, -1.0 - (i % 5) as f64 * 0.25);
            }
            if i + 1 < n {
                c.push(i, i + 1, -1.5);
            }
            if i + 7 < n {
                c.push(i, i + 7, 0.375);
            }
        }
        c.to_csr()
    }

    #[test]
    fn lo_spmm_matches_full_for_exact_values() {
        // All values above are exactly representable in f32, so the demoted
        // product must be bit-identical to the full-precision one.
        let a = testmat(40);
        let lo = CsrLo::from_csr(&a);
        let x = DMat::from_fn(40, 8, |i, j| ((i * 3 + j) % 9) as f64 - 4.0);
        let yfull = a.apply(&x);
        let mut ylo = DMat::zeros(40, 8);
        lo.spmm(&x, &mut ylo);
        for i in 0..40 {
            for j in 0..8 {
                assert_eq!(yfull[(i, j)], ylo[(i, j)], "({i},{j})");
            }
        }
    }

    #[test]
    fn lo_spmv_and_rows_consistent_with_spmm() {
        let a = testmat(33);
        let lo = CsrLo::from_csr(&a);
        let x = DMat::from_fn(33, 3, |i, j| (i as f64 * 0.1 + j as f64).sin());
        let mut yblock = DMat::zeros(33, 3);
        lo.spmm(&x, &mut yblock);
        // spmv column by column
        for j in 0..3 {
            let mut yj = vec![0.0; 33];
            lo.spmv(x.col(j), &mut yj);
            for i in 0..33 {
                assert!((yblock[(i, j)] - yj[i]).abs() < 1e-12);
            }
        }
        // row subset covering all rows in two pieces must equal the full product
        let rows1: Vec<usize> = (0..20).collect();
        let rows2: Vec<usize> = (20..33).collect();
        let mut ysplit = DMat::zeros(33, 3);
        lo.spmm_rows(&x, &mut ysplit, &rows1);
        lo.spmm_rows(&x, &mut ysplit, &rows2);
        for i in 0..33 {
            for j in 0..3 {
                assert_eq!(yblock[(i, j)], ysplit[(i, j)]);
            }
        }
    }

    /// `CsrLo` runs the row kernel of `Csr`: against the `Csr` holding the
    /// promoted values, every sweep is the same bits — short rows and
    /// two-lane rows, serial (37 rows) and on the pool (4099 rows under
    /// `KRYST_THREADS=4`), at every column-block shape.
    fn lo_kernels_match_csr_of_promoted_values<S: Demote>() {
        use crate::csr::tests::{bits, operand, ragged};
        for (nrows, ncols) in [(37usize, 29usize), (4099, 4500)] {
            let a = ragged::<S>(nrows, ncols, 3 + nrows as u64);
            let lo = CsrLo::from_csr(&a);
            let mut promoted = a.clone();
            for i in 0..nrows {
                for v in promoted.row_values_mut(i) {
                    *v = S::promote_lo(v.demote());
                }
            }
            assert_ne!(promoted, a, "the values must round");
            let rows: Vec<usize> = (0..nrows).filter(|i| i % 3 != 1).collect();
            for p in [1usize, 3, 8, 9] {
                let x = operand::<S>(ncols, p);
                let want = promoted.apply(&x);
                let mut got = DMat::from_fn(nrows, p, |_, _| S::from_f64(f64::NAN));
                lo.spmm(&x, &mut got);
                assert_eq!(bits(got.as_slice()), bits(want.as_slice()), "spmm p={p}");
                let (mut got, mut want) = (DMat::zeros(nrows, p), DMat::zeros(nrows, p));
                lo.spmm_rows(&x, &mut got, &rows);
                promoted.spmm_rows(&x, &mut want, &rows);
                assert_eq!(
                    bits(got.as_slice()),
                    bits(want.as_slice()),
                    "spmm_rows p={p}"
                );
                let mut y = vec![S::from_f64(f64::NAN); nrows];
                lo.spmv(x.col(p - 1), &mut y);
                let want = promoted.apply(&x.cols(p - 1, 1));
                assert_eq!(bits(&y), bits(want.as_slice()), "spmv p={p}");
            }
        }
    }

    #[test]
    fn lo_kernels_match_csr_of_promoted_values_bitwise() {
        lo_kernels_match_csr_of_promoted_values::<f64>();
        lo_kernels_match_csr_of_promoted_values::<C64>();
    }

    #[test]
    fn lo_rounding_error_is_f32_scale() {
        let n = 64;
        let mut c = Coo::new(n, n);
        for i in 0..n {
            c.push(i, i, 4.0 + (i as f64 * 0.731).sin() * 0.1);
            if i > 0 {
                c.push(i, i - 1, -1.0 + (i as f64).cos() * 0.01);
            }
            if i + 1 < n {
                c.push(i, i + 1, -1.0);
            }
        }
        let a = c.to_csr();
        let lo = CsrLo::from_csr(&a);
        let x = DMat::from_fn(n, 4, |i, j| ((i + j) as f64 * 0.17).cos());
        let yfull = a.apply(&x);
        let mut ylo = DMat::zeros(n, 4);
        lo.spmm(&x, &mut ylo);
        for i in 0..n {
            for j in 0..4 {
                let err = (yfull[(i, j)] - ylo[(i, j)]).abs();
                assert!(err < 1e-5, "err {err} at ({i},{j})");
                // And it genuinely is low precision storage:
            }
        }
    }

    #[test]
    fn bytes_streamed_halves_for_f64() {
        let a = testmat(100);
        let lo = CsrLo::from_csr(&a);
        // 16 bytes/nnz full vs 8 bytes/nnz compact; indptr identical.
        let full = a.bytes_streamed();
        let compact = lo.bytes_streamed();
        let indptr_bytes = 101 * core::mem::size_of::<usize>();
        assert_eq!(full - indptr_bytes, 2 * (compact - indptr_bytes));
    }

    #[test]
    fn complex_demote_works() {
        let mut c = Coo::<C64>::new(8, 8);
        for i in 0..8 {
            c.push(i, i, C64::from_parts(3.0, -0.5));
            if i > 0 {
                c.push(i, i - 1, C64::from_parts(-1.0, 0.25));
            }
        }
        let a = c.to_csr();
        let lo = CsrLo::from_csr(&a);
        let x = DMat::from_fn(8, 2, |i, j| C64::from_parts(i as f64, -(j as f64)));
        let yfull = a.apply(&x);
        let mut ylo = DMat::zeros(8, 2);
        lo.spmm(&x, &mut ylo);
        for i in 0..8 {
            for j in 0..2 {
                assert!((yfull[(i, j)] - ylo[(i, j)]).abs() < 1e-6);
            }
        }
    }

    #[test]
    fn demote_values_keeps_pattern() {
        let a = testmat(20);
        let d = a.demote_values();
        assert_eq!(d.nnz(), a.nnz());
        for i in 0..20 {
            assert_eq!(d.row_indices(i), a.row_indices(i));
            for (k, &v) in a.row_values(i).iter().enumerate() {
                assert_eq!(d.row_values(i)[k], v as f32);
            }
        }
    }
}
