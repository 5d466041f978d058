//! Column-major dense matrix / multivector.

use kryst_scalar::Scalar;
use std::fmt;

/// Column-major dense matrix.
///
/// The workspace uses `DMat` both for genuinely dense matrices (Hessenberg,
/// Gram, eigenvector matrices) and as the *multivector* type: a block of `p`
/// right-hand sides or Krylov basis vectors is an `n × p` `DMat`, stored so
/// that each vector (column) is contiguous.
#[derive(Clone, PartialEq)]
pub struct DMat<S> {
    data: Vec<S>,
    nrows: usize,
    ncols: usize,
}

impl<S: Scalar> DMat<S> {
    /// `nrows × ncols` matrix of zeros.
    pub fn zeros(nrows: usize, ncols: usize) -> Self {
        Self {
            data: vec![S::zero(); nrows * ncols],
            nrows,
            ncols,
        }
    }

    /// Identity matrix of dimension `n`.
    pub fn eye(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = S::one();
        }
        m
    }

    /// Matrix whose entry `(i, j)` is `f(i, j)`.
    pub fn from_fn(nrows: usize, ncols: usize, mut f: impl FnMut(usize, usize) -> S) -> Self {
        let mut data = Vec::with_capacity(nrows * ncols);
        for j in 0..ncols {
            for i in 0..nrows {
                data.push(f(i, j));
            }
        }
        Self { data, nrows, ncols }
    }

    /// Build from a column-major data vector.
    pub fn from_col_major(nrows: usize, ncols: usize, data: Vec<S>) -> Self {
        assert_eq!(data.len(), nrows * ncols, "data length mismatch");
        Self { data, nrows, ncols }
    }

    /// Consume the matrix and return its column-major backing buffer
    /// (capacity preserved — buffer pools reshape through this).
    pub fn into_vec(self) -> Vec<S> {
        self.data
    }

    /// Number of rows.
    #[inline(always)]
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Number of columns.
    #[inline(always)]
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// `true` if the matrix holds no entries.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Flat column-major data.
    #[inline(always)]
    pub fn as_slice(&self) -> &[S] {
        &self.data
    }

    /// Mutable flat column-major data.
    #[inline(always)]
    pub fn as_mut_slice(&mut self) -> &mut [S] {
        &mut self.data
    }

    /// Column `j` as a slice.
    #[inline(always)]
    pub fn col(&self, j: usize) -> &[S] {
        debug_assert!(j < self.ncols);
        &self.data[j * self.nrows..(j + 1) * self.nrows]
    }

    /// Column `j` as a mutable slice.
    #[inline(always)]
    pub fn col_mut(&mut self, j: usize) -> &mut [S] {
        debug_assert!(j < self.ncols);
        &mut self.data[j * self.nrows..(j + 1) * self.nrows]
    }

    /// Two distinct mutable columns at once (for rotations / swaps).
    pub fn two_cols_mut(&mut self, j0: usize, j1: usize) -> (&mut [S], &mut [S]) {
        assert!(j0 != j1 && j0 < self.ncols && j1 < self.ncols);
        let n = self.nrows;
        if j0 < j1 {
            let (a, b) = self.data.split_at_mut(j1 * n);
            (&mut a[j0 * n..j0 * n + n], &mut b[..n])
        } else {
            let (a, b) = self.data.split_at_mut(j0 * n);
            (&mut b[..n], &mut a[j1 * n..j1 * n + n])
        }
    }

    /// Fill with a constant.
    pub fn fill(&mut self, v: S) {
        self.data.iter_mut().for_each(|x| *x = v);
    }

    /// Set all entries to zero.
    pub fn set_zero(&mut self) {
        self.fill(S::zero());
    }

    /// Copy entries from `other` (same shape required).
    pub fn copy_from(&mut self, other: &Self) {
        assert_eq!((self.nrows, self.ncols), (other.nrows, other.ncols));
        self.data.copy_from_slice(&other.data);
    }

    /// Contiguous sub-block copy: `self[r0.., c0..] ⟵ block`.
    pub fn set_block(&mut self, r0: usize, c0: usize, block: &Self) {
        assert!(r0 + block.nrows <= self.nrows && c0 + block.ncols <= self.ncols);
        for j in 0..block.ncols {
            let src = block.col(j);
            let dst = &mut self.col_mut(c0 + j)[r0..r0 + block.nrows];
            dst.copy_from_slice(src);
        }
    }

    /// Extract the sub-block `self[r0..r0+nr, c0..c0+nc]` as a new matrix.
    pub fn block(&self, r0: usize, c0: usize, nr: usize, nc: usize) -> Self {
        assert!(r0 + nr <= self.nrows && c0 + nc <= self.ncols);
        Self::from_fn(nr, nc, |i, j| self[(r0 + i, c0 + j)])
    }

    /// Columns `c0..c0+nc` as a new matrix (cheap memcpy per column).
    pub fn cols(&self, c0: usize, nc: usize) -> Self {
        assert!(c0 + nc <= self.ncols);
        let data = self.data[c0 * self.nrows..(c0 + nc) * self.nrows].to_vec();
        Self::from_col_major(self.nrows, nc, data)
    }

    /// Append the columns of `other` on the right.
    pub fn hcat(&self, other: &Self) -> Self {
        assert_eq!(self.nrows, other.nrows);
        let mut data = Vec::with_capacity(self.data.len() + other.data.len());
        data.extend_from_slice(&self.data);
        data.extend_from_slice(&other.data);
        Self::from_col_major(self.nrows, self.ncols + other.ncols, data)
    }

    /// (Conjugate) transpose.
    pub fn adjoint(&self) -> Self {
        Self::from_fn(self.ncols, self.nrows, |i, j| self[(j, i)].conj())
    }

    /// Plain transpose (no conjugation).
    pub fn transpose(&self) -> Self {
        Self::from_fn(self.ncols, self.nrows, |i, j| self[(j, i)])
    }

    /// In-place scaling: `self ⟵ α·self`.
    pub fn scale(&mut self, alpha: S) {
        self.data.iter_mut().for_each(|x| *x *= alpha);
    }

    /// Scale column `j` by `alpha`.
    pub fn scale_col(&mut self, j: usize, alpha: S) {
        self.col_mut(j).iter_mut().for_each(|x| *x *= alpha);
    }

    /// `self ⟵ self + α·other` (same shape).
    pub fn axpy(&mut self, alpha: S, other: &Self) {
        assert_eq!((self.nrows, self.ncols), (other.nrows, other.ncols));
        for (x, y) in self.data.iter_mut().zip(&other.data) {
            *x += alpha * *y;
        }
    }

    /// Euclidean norm of column `j`.
    pub fn col_norm(&self, j: usize) -> f64 {
        let mut acc = 0.0;
        for &x in self.col(j) {
            acc += x.abs_sqr();
        }
        acc.sqrt()
    }

    /// Euclidean norms of every column.
    pub fn col_norms(&self) -> Vec<f64> {
        (0..self.ncols).map(|j| self.col_norm(j)).collect()
    }

    /// Frobenius norm.
    pub fn fro_norm(&self) -> f64 {
        let mut acc = 0.0;
        for &x in &self.data {
            acc += x.abs_sqr();
        }
        acc.sqrt()
    }

    /// Inner product of columns: `conj(self[:,i]) · other[:,j]`.
    pub fn col_dot(&self, i: usize, other: &Self, j: usize) -> S {
        assert_eq!(self.nrows, other.nrows);
        let a = self.col(i);
        let b = other.col(j);
        let mut acc = S::zero();
        for (&x, &y) in a.iter().zip(b) {
            acc += x.conj() * y;
        }
        acc
    }

    /// Largest absolute entry.
    pub fn max_abs(&self) -> f64 {
        let mut m: f64 = 0.0;
        for &x in &self.data {
            m = m.max(x.abs());
        }
        m
    }

    /// Swap two columns in place.
    pub fn swap_cols(&mut self, j0: usize, j1: usize) {
        if j0 == j1 {
            return;
        }
        let (a, b) = self.two_cols_mut(j0, j1);
        a.swap_with_slice(b);
    }

    /// Swap two rows in place.
    pub fn swap_rows(&mut self, i0: usize, i1: usize) {
        if i0 == i1 {
            return;
        }
        for j in 0..self.ncols {
            let base = j * self.nrows;
            self.data.swap(base + i0, base + i1);
        }
    }
}

impl<S: Scalar> std::ops::Index<(usize, usize)> for DMat<S> {
    type Output = S;
    #[inline(always)]
    fn index(&self, (i, j): (usize, usize)) -> &S {
        debug_assert!(i < self.nrows && j < self.ncols);
        &self.data[j * self.nrows + i]
    }
}

impl<S: Scalar> std::ops::IndexMut<(usize, usize)> for DMat<S> {
    #[inline(always)]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut S {
        debug_assert!(i < self.nrows && j < self.ncols);
        &mut self.data[j * self.nrows + i]
    }
}

impl<S: Scalar> fmt::Debug for DMat<S> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "DMat {}x{} [", self.nrows, self.ncols)?;
        let rmax = self.nrows.min(8);
        let cmax = self.ncols.min(8);
        for i in 0..rmax {
            write!(f, "  ")?;
            for j in 0..cmax {
                write!(f, "{:?} ", self[(i, j)])?;
            }
            writeln!(f, "{}", if cmax < self.ncols { "…" } else { "" })?;
        }
        if rmax < self.nrows {
            writeln!(f, "  ⋮")?;
        }
        write!(f, "]")
    }
}

/// Exact bit patterns of a matrix's entries (two words per entry, real and
/// imaginary part), so that tests can compare NaNs and signed zeros.
#[cfg(test)]
pub(crate) fn bits<S: Scalar>(m: &DMat<S>) -> Vec<u64> {
    m.as_slice()
        .iter()
        .flat_map(|x| [x.re().to_bits(), x.im().to_bits()])
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn indexing_is_column_major() {
        let m = DMat::<f64>::from_col_major(2, 3, vec![1., 2., 3., 4., 5., 6.]);
        assert_eq!(m[(0, 0)], 1.);
        assert_eq!(m[(1, 0)], 2.);
        assert_eq!(m[(0, 1)], 3.);
        assert_eq!(m[(1, 2)], 6.);
        assert_eq!(m.col(1), &[3., 4.]);
    }

    #[test]
    fn block_and_set_block_roundtrip() {
        let m = DMat::<f64>::from_fn(5, 5, |i, j| (i * 10 + j) as f64);
        let b = m.block(1, 2, 3, 2);
        assert_eq!(b[(0, 0)], 12.0);
        assert_eq!(b[(2, 1)], 33.0);
        let mut z = DMat::<f64>::zeros(5, 5);
        z.set_block(1, 2, &b);
        assert_eq!(z[(1, 2)], 12.0);
        assert_eq!(z[(3, 3)], 33.0);
        assert_eq!(z[(0, 0)], 0.0);
    }

    #[test]
    fn adjoint_conjugates() {
        use kryst_scalar::C64;
        let m = DMat::<C64>::from_fn(2, 3, |i, j| C64::from_parts(i as f64, j as f64));
        let a = m.adjoint();
        assert_eq!(a.nrows(), 3);
        assert_eq!(a[(2, 1)], C64::from_parts(1.0, -2.0));
    }

    #[test]
    fn norms_and_dots() {
        let m = DMat::<f64>::from_col_major(3, 2, vec![3., 4., 0., 1., 1., 1.]);
        assert!((m.col_norm(0) - 5.0).abs() < 1e-15);
        assert!((m.col_norm(1) - 3f64.sqrt()).abs() < 1e-15);
        assert!((m.col_dot(0, &m, 1) - 7.0).abs() < 1e-15);
        assert!((m.fro_norm() - 28f64.sqrt()).abs() < 1e-15);
    }

    #[test]
    fn swap_rows_cols() {
        let mut m = DMat::<f64>::from_fn(3, 3, |i, j| (3 * i + j) as f64);
        m.swap_rows(0, 2);
        assert_eq!(m[(0, 0)], 6.0);
        m.swap_cols(0, 1);
        assert_eq!(m[(0, 0)], 7.0);
    }

    #[test]
    fn hcat_concatenates() {
        let a = DMat::<f64>::from_fn(2, 1, |i, _| i as f64);
        let b = DMat::<f64>::from_fn(2, 2, |i, j| (10 + i + j) as f64);
        let c = a.hcat(&b);
        assert_eq!(c.ncols(), 3);
        assert_eq!(c[(1, 0)], 1.0);
        assert_eq!(c[(0, 2)], 11.0);
    }
}
