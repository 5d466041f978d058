//! Sparse direct solver: RCM reordering + banded LU.
//!
//! The workspace's stand-in for PARDISO (paper §V-B3). The factorization is
//! computed once; solves accept blocks of right-hand sides and run the
//! banded kernel's right-hand-side-interleaved forward/backward
//! substitution, reproducing the multi-RHS efficiency behaviour of Fig. 6.

use crate::band::{pack, unpack, BandLu, BandMat};
use crate::order;
use crate::Csr;
use kryst_dense::DMat;
use kryst_rt::par::for_each_chunk_mut;
use kryst_scalar::Scalar;

/// A factored sparse matrix ready for (multi-RHS) solves.
pub struct SparseDirect<S> {
    lu: BandLu<S>,
    perm: Vec<usize>,
    bandwidth: usize,
}

impl<S: Scalar> SparseDirect<S> {
    /// Factor `a` (square). Applies RCM, packs the band, runs the banded LU.
    ///
    /// Returns `None` when the matrix is numerically singular.
    pub fn factor(a: &Csr<S>) -> Option<Self> {
        assert_eq!(a.nrows(), a.ncols(), "direct solver needs a square matrix");
        let n = a.nrows();
        let perm = order::rcm(a);
        let ap = order::permute_sym(a, &perm);
        let bw = order::bandwidth(&ap);
        let mut band = BandMat::zeros(n, bw, bw);
        for i in 0..n {
            for (&j, &v) in ap.row_indices(i).iter().zip(ap.row_values(i)) {
                band.set(i, j, v);
            }
        }
        Some(Self {
            lu: BandLu::factor(band)?,
            perm,
            bandwidth: bw,
        })
    }

    /// Matrix dimension.
    pub fn n(&self) -> usize {
        self.perm.len()
    }

    /// Bandwidth after reordering (determines factor cost and memory).
    pub fn bandwidth(&self) -> usize {
        self.bandwidth
    }

    /// Factor entries one solve reads per tile of right-hand sides
    /// ([`BandLu::factor_len`]).
    pub fn factor_len(&self) -> usize {
        self.lu.factor_len()
    }

    /// The fill-reducing ordering: row `k` of a packed block
    /// ([`SparseDirect::solve_packed`]) is row `perm()[k]` of the matrix.
    pub fn perm(&self) -> &[usize] {
        &self.perm
    }

    /// In-place solve on a block the caller has already gathered into the
    /// factor's ordering with [`pack`]; the solution comes back in the same
    /// layout, for [`unpack`].
    pub fn solve_packed(&self, b: &mut [S]) {
        self.lu.solve_packed(b);
    }

    /// Solve `A·x = b` for one right-hand side.
    pub fn solve_one(&self, b: &[S]) -> Vec<S> {
        let mut pb = order::permute_vec(b, &self.perm);
        self.lu.solve_packed(&mut pb);
        order::unpermute_vec(&pb, &self.perm)
    }

    /// Allocation-free in-place block solve: gathers `b` into `scratch`
    /// (`n × p`, fully overwritten) in the factor's ordering and packed
    /// layout, solves there, and scatters the solution back into `b`.
    /// Columns are handed out in groups of `tile`, spread over at most
    /// `threads` pool threads (`0` = the pool's default cap); a column's
    /// result does not depend on either.
    pub fn solve_in_place_ws(
        &self,
        b: &mut DMat<S>,
        scratch: &mut DMat<S>,
        tile: usize,
        threads: usize,
    ) {
        let (n, p) = (self.n(), b.ncols());
        assert_eq!(b.nrows(), n);
        assert_eq!((scratch.nrows(), scratch.ncols()), (n, p));
        if n == 0 {
            return;
        }
        let group = tile.max(1);
        let (x, packed) = (b.as_mut_slice(), scratch.as_mut_slice());
        for (cols, from) in packed.chunks_mut(n * group).zip(x.chunks(n * group)) {
            pack(cols, &self.perm, from, n);
        }
        for_each_chunk_mut(packed, n * group, threads, |_, cols| {
            self.lu.solve_packed(cols)
        });
        for (cols, to) in packed.chunks(n * group).zip(x.chunks_mut(n * group)) {
            unpack(cols, &self.perm, to, n, |_| |x, v| *x = v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Coo;
    use kryst_scalar::C64;

    fn laplace2d(nx: usize, ny: usize) -> Csr<f64> {
        let n = nx * ny;
        let id = |x: usize, y: usize| y * nx + x;
        let mut c = Coo::new(n, n);
        for y in 0..ny {
            for x in 0..nx {
                let me = id(x, y);
                c.push(me, me, 4.0);
                if x > 0 {
                    c.push(me, id(x - 1, y), -1.0);
                }
                if x + 1 < nx {
                    c.push(me, id(x + 1, y), -1.0);
                }
                if y > 0 {
                    c.push(me, id(x, y - 1), -1.0);
                }
                if y + 1 < ny {
                    c.push(me, id(x, y + 1), -1.0);
                }
            }
        }
        c.to_csr()
    }

    #[test]
    fn direct_solves_laplacian() {
        let a = laplace2d(9, 7);
        let n = a.nrows();
        let f = SparseDirect::factor(&a).expect("nonsingular");
        let x_true: Vec<f64> = (0..n).map(|i| ((i * 7) % 13) as f64 - 6.0).collect();
        let mut b = vec![0.0; n];
        a.spmv(&x_true, &mut b);
        let x = f.solve_one(&b);
        for i in 0..n {
            assert!((x[i] - x_true[i]).abs() < 1e-10);
        }
    }

    #[test]
    fn direct_multi_rhs_consistent() {
        let a = laplace2d(8, 8);
        let n = a.nrows();
        let f = SparseDirect::factor(&a).unwrap();
        let x_true = DMat::from_fn(n, 5, |i, j| ((i * 3 + j * 11) % 17) as f64 - 8.0);
        let b = a.apply(&x_true);
        let mut scratch = DMat::zeros(n, 5);
        for (tile, threads) in [(1, 1), (4, 1), (2, 0), (8, 2)] {
            let mut x = b.clone();
            f.solve_in_place_ws(&mut x, &mut scratch, tile, threads);
            for i in 0..n {
                for j in 0..5 {
                    assert!(
                        (x[(i, j)] - x_true[(i, j)]).abs() < 1e-9,
                        "tile={tile} threads={threads} ({i},{j})"
                    );
                }
            }
        }
    }

    #[test]
    fn direct_complex_symmetric_indefinite() {
        // Shifted complex Laplacian: A = L − (σ² + iσ)·I, Maxwell-like.
        let l = laplace2d(6, 6);
        let n = l.nrows();
        let mut c = Coo::<C64>::new(n, n);
        for i in 0..n {
            for (k, &j) in l.row_indices(i).iter().enumerate() {
                c.push(i, j, C64::from_parts(l.row_values(i)[k], 0.0));
            }
            c.push(i, i, C64::from_parts(-1.3, -0.7));
        }
        let a = c.to_csr();
        let f = SparseDirect::factor(&a).expect("nonsingular");
        let x_true: Vec<C64> = (0..n)
            .map(|i| C64::from_parts(i as f64 * 0.1, -1.0))
            .collect();
        let mut b = vec![C64::zero(); n];
        a.spmv(&x_true, &mut b);
        let x = f.solve_one(&b);
        for i in 0..n {
            assert!((x[i] - x_true[i]).abs() < 1e-9);
        }
    }

    #[test]
    fn singular_matrix_rejected() {
        // Pure Neumann Laplacian (constant nullspace): row sums zero.
        let mut c = Coo::<f64>::new(4, 4);
        for i in 0..4 {
            for j in 0..4 {
                c.push(i, j, if i == j { 3.0 } else { -1.0 });
            }
        }
        // Subtract to make it exactly singular: rows sum to 0 already (3 - 3·1 = 0).
        let a = c.to_csr();
        assert!(SparseDirect::factor(&a).is_none());
    }

    #[test]
    fn rcm_bandwidth_is_small_for_grids() {
        let a = laplace2d(20, 20);
        let f = SparseDirect::factor(&a).unwrap();
        assert!(f.bandwidth() <= 24, "bandwidth = {}", f.bandwidth());
    }
}
