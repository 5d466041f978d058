//! 2-D Poisson on the unit square — the `ex32` analogue (paper §IV-B).
//!
//! Five-point finite differences on an `nx × ny` interior grid with
//! homogeneous Dirichlet boundary, and the paper's four successive
//! right-hand sides
//!
//! ```text
//! f_i(x, y) = (1/ν_i)·exp(−(1−x)²/ν_i)·exp(−(1−y)²/ν_i),
//! {ν_i} = {0.1, 10, 0.001, 100}.
//! ```
//!
//! Beside it sit the two small operators of the tests, benches and the
//! profile demo: the 1-D Laplacian [`laplace1d`] and the upwind
//! convection–diffusion operator [`convdiff2d`].

use crate::Problem;
use kryst_dense::DMat;
use kryst_scalar::Scalar;
use kryst_sparse::{Coo, Csr};

/// The ν parameters of the paper's four right-hand sides.
pub const PAPER_NUS: [f64; 4] = [0.1, 10.0, 0.001, 100.0];

/// The 5-point Laplacian rows of an `nx × ny` grid, `x` fastest, written in
/// ascending column order straight into the CSR arrays: `−c` to each
/// neighbour present along axis `d` (`c = cs[d]`), `cd` on the diagonal.
fn stencil_rows<S: Scalar>(dims: [usize; 2], cs: [S; 2], cd: S) -> Csr<S> {
    let [nx, ny] = dims;
    let n = nx * ny;
    let strides = [1, nx];
    let width = 1 + 2 * dims.iter().filter(|&&m| m > 1).count();
    let mut indptr = Vec::with_capacity(n + 1);
    let mut indices = Vec::with_capacity(width * n);
    let mut data = Vec::with_capacity(width * n);
    indptr.push(0);
    for y in 0..ny {
        for x in 0..nx {
            let me = y * nx + x;
            let at = [x, y];
            for d in [1, 0] {
                if at[d] > 0 {
                    indices.push(me - strides[d]);
                    data.push(-cs[d]);
                }
            }
            indices.push(me);
            data.push(cd);
            for d in 0..2 {
                if at[d] + 1 < dims[d] {
                    indices.push(me + strides[d]);
                    data.push(-cs[d]);
                }
            }
            indptr.push(indices.len());
        }
    }
    Csr::from_raw(n, n, indptr, indices, data)
}

/// Assemble the 5-point Laplacian (`−Δ`, scaled by `1/h²`) on an `nx × ny`
/// interior grid of the unit square.
pub fn poisson2d<S: Scalar>(nx: usize, ny: usize) -> Problem<S> {
    let n = nx * ny;
    let hx = 1.0 / (nx as f64 + 1.0);
    let hy = 1.0 / (ny as f64 + 1.0);
    let cx = S::from_f64(1.0 / (hx * hx));
    let cy = S::from_f64(1.0 / (hy * hy));
    let cd = S::from_f64(2.0 / (hx * hx) + 2.0 / (hy * hy));
    let mut coords = Vec::with_capacity(n);
    for y in 0..ny {
        for x in 0..nx {
            coords.push(vec![(x as f64 + 1.0) * hx, (y as f64 + 1.0) * hy]);
        }
    }
    // Near-nullspace for AMG: the constant vector.
    let ns = DMat::from_fn(n, 1, |_, _| S::one());
    Problem {
        a: stencil_rows([nx, ny], [cx, cy], cd),
        coords,
        near_nullspace: Some(ns),
    }
}

/// The 1-D Laplacian `tridiag(−1, 2, −1)` of order `n`, unscaled.
pub fn laplace1d<S: Scalar>(n: usize) -> Csr<S> {
    let mut c = Coo::new(n, n);
    for i in 0..n {
        c.push(i, i, S::from_f64(2.0));
        if i > 0 {
            c.push(i, i - 1, S::from_f64(-1.0));
        }
        if i + 1 < n {
            c.push(i, i + 1, S::from_f64(-1.0));
        }
    }
    c.to_csr()
}

/// 2-D convection–diffusion `−ε·Δu + b·∇u` on an `nx × nx` interior grid
/// of the unit square, with first-order upwind convection along the wind
/// `b = (bx, by)`; nonsymmetric whenever the wind is not zero.
pub fn convdiff2d(nx: usize, eps: f64, bx: f64, by: f64) -> Csr<f64> {
    let n = nx * nx;
    let h = 1.0 / (nx as f64 + 1.0);
    let mut c = Coo::new(n, n);
    let idx = |i: usize, j: usize| i * nx + j;
    for i in 0..nx {
        for j in 0..nx {
            let row = idx(i, j);
            c.push(row, row, 4.0 * eps / (h * h) + (bx.abs() + by.abs()) / h);
            if i > 0 {
                c.push(row, idx(i - 1, j), -eps / (h * h) - bx.max(0.0) / h);
            }
            if i + 1 < nx {
                c.push(row, idx(i + 1, j), -eps / (h * h) + bx.min(0.0) / h);
            }
            if j > 0 {
                c.push(row, idx(i, j - 1), -eps / (h * h) - by.max(0.0) / h);
            }
            if j + 1 < nx {
                c.push(row, idx(i, j + 1), -eps / (h * h) + by.min(0.0) / h);
            }
        }
    }
    c.to_csr()
}

/// The paper's `i`-th right-hand side sampled on the grid.
pub fn rhs_nu<S: Scalar>(nx: usize, ny: usize, nu: f64) -> Vec<S> {
    let hx = 1.0 / (nx as f64 + 1.0);
    let hy = 1.0 / (ny as f64 + 1.0);
    let mut f = Vec::with_capacity(nx * ny);
    for y in 0..ny {
        for x in 0..nx {
            let xf = (x as f64 + 1.0) * hx;
            let yf = (y as f64 + 1.0) * hy;
            let v =
                (1.0 / nu) * (-(1.0 - xf).powi(2) / nu).exp() * (-(1.0 - yf).powi(2) / nu).exp();
            f.push(S::from_f64(v));
        }
    }
    f
}

/// The full sequence of four right-hand sides from the paper.
pub fn paper_rhs_sequence<S: Scalar>(nx: usize, ny: usize) -> Vec<Vec<S>> {
    PAPER_NUS.iter().map(|&nu| rhs_nu(nx, ny, nu)).collect()
}

/// All four right-hand sides as the columns of one multivector (for block
/// methods).
pub fn paper_rhs_block<S: Scalar>(nx: usize, ny: usize) -> DMat<S> {
    let seq = paper_rhs_sequence::<S>(nx, ny);
    let n = nx * ny;
    DMat::from_fn(n, seq.len(), |i, j| seq[j][i])
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The Laplacian pushed as triplets, as this module assembled it before
    /// it wrote the rows directly.
    fn laplacian_triplets(nx: usize, ny: usize) -> Csr<f64> {
        let h2: Vec<f64> = [nx, ny]
            .iter()
            .map(|&m| 1.0 / (m as f64 + 1.0))
            .map(|h| h * h)
            .collect();
        let cd = 2.0 / h2[0] + 2.0 / h2[1];
        let id = |x: usize, y: usize| y * nx + x;
        let mut coo = Coo::new(nx * ny, nx * ny);
        for y in 0..ny {
            for x in 0..nx {
                let me = id(x, y);
                coo.push(me, me, cd);
                if x > 0 {
                    coo.push(me, id(x - 1, y), -1.0 / h2[0]);
                }
                if x + 1 < nx {
                    coo.push(me, id(x + 1, y), -1.0 / h2[0]);
                }
                if y > 0 {
                    coo.push(me, id(x, y - 1), -1.0 / h2[1]);
                }
                if y + 1 < ny {
                    coo.push(me, id(x, y + 1), -1.0 / h2[1]);
                }
            }
        }
        coo.to_csr()
    }

    #[test]
    fn direct_rows_equal_the_triplet_assembly() {
        for (nx, ny) in [(1usize, 1usize), (1, 4), (5, 1), (7, 5), (24, 24)] {
            assert_eq!(
                poisson2d::<f64>(nx, ny).a,
                laplacian_triplets(nx, ny),
                "{nx} x {ny}"
            );
        }
    }

    #[test]
    fn matrix_is_symmetric_diagonally_dominant() {
        let p = poisson2d::<f64>(7, 5);
        let a = &p.a;
        for i in 0..a.nrows() {
            for &j in a.row_indices(i) {
                assert_eq!(a.get(i, j), a.get(j, i));
            }
            let offdiag: f64 = a
                .row_indices(i)
                .iter()
                .zip(a.row_values(i))
                .filter(|(&j, _)| j != i)
                .map(|(_, v)| v.abs())
                .sum();
            assert!(a.get(i, i) >= offdiag, "row {i} not diagonally dominant");
        }
    }

    #[test]
    fn interior_row_sums_vanish() {
        // An interior point with all 4 neighbors present has zero row sum.
        let p = poisson2d::<f64>(5, 5);
        let mid = 2 * 5 + 2;
        let s: f64 = p.a.row_values(mid).iter().sum();
        assert!(s.abs() < 1e-9 * p.a.get(mid, mid));
    }

    #[test]
    fn solves_manufactured_solution() {
        // u = sin(πx)sin(πy) → −Δu = 2π²·u; second-order convergence.
        use kryst_sparse::SparseDirect;
        let mut err_prev = f64::MAX;
        for &m in &[8usize, 16, 32] {
            let p = poisson2d::<f64>(m, m);
            let n = m * m;
            let pi = std::f64::consts::PI;
            let mut b = vec![0.0; n];
            let mut u_exact = vec![0.0; n];
            for (k, c) in p.coords.iter().enumerate() {
                u_exact[k] = (pi * c[0]).sin() * (pi * c[1]).sin();
                b[k] = 2.0 * pi * pi * u_exact[k];
            }
            let f = SparseDirect::factor(&p.a).unwrap();
            let u = f.solve_one(&b);
            let mut err: f64 = 0.0;
            for k in 0..n {
                err = err.max((u[k] - u_exact[k]).abs());
            }
            assert!(err < err_prev / 2.5, "m={m}: err {err} (prev {err_prev})");
            err_prev = err;
        }
        assert!(err_prev < 2e-3);
    }

    #[test]
    fn rhs_family_matches_formula() {
        let f = rhs_nu::<f64>(3, 3, 0.1);
        // Center point (0.5, 0.5): (1/0.1)·exp(−0.25/0.1)² = 10·e^−5
        let center = f[4];
        assert!((center - 10.0 * (-5.0f64).exp()).abs() < 1e-12);
        let blk = paper_rhs_block::<f64>(3, 3);
        assert_eq!(blk.ncols(), 4);
        assert_eq!(blk[(4, 0)], center);
    }
}
