//! Dense LU factorization with partial pivoting.
//!
//! Used by the eigensolver (reduction of the generalized problem `T·z = θ·W·z`
//! to standard form via `W⁻¹T`, cf. the paper's eq. (3)) and by small exact
//! solves in tests. Works for real and complex scalars.

use crate::tri;
use crate::DMat;
use kryst_scalar::Scalar;

/// Compact LU factorization `P·A = L·U` with partial (row) pivoting.
pub struct Lu<S> {
    /// `L` (unit lower, below diagonal) and `U` (upper) packed together.
    lu: DMat<S>,
    /// Row permutation: row `i` of the factored matrix came from `piv[i]`.
    piv: Vec<usize>,
    singular: bool,
}

impl<S: Scalar> Lu<S> {
    /// Factor `a` (consumed). Never panics on singularity; check
    /// [`Lu::is_singular`] before solving.
    pub fn factor(mut a: DMat<S>) -> Self {
        let _t = kryst_obs::traced(kryst_obs::SpanKind::SmallDense);
        let n = a.nrows();
        assert_eq!(n, a.ncols(), "LU requires a square matrix");
        let mut piv: Vec<usize> = (0..n).collect();
        let mut singular = false;
        for k in 0..n {
            // Pivot search in column k.
            let mut pk = k;
            let mut pmax = a[(k, k)].abs();
            for i in k + 1..n {
                let v = a[(i, k)].abs();
                if v > pmax {
                    pmax = v;
                    pk = i;
                }
            }
            if pmax == 0.0 || !pmax.is_finite() {
                singular = true;
                continue;
            }
            if pk != k {
                a.swap_rows(k, pk);
                piv.swap(k, pk);
            }
            let inv = S::one() / a[(k, k)];
            for i in k + 1..n {
                let lik = a[(i, k)] * inv;
                a[(i, k)] = lik;
                if lik == S::zero() {
                    continue;
                }
                for j in k + 1..n {
                    let u = a[(k, j)];
                    a[(i, j)] -= lik * u;
                }
            }
        }
        Self {
            lu: a,
            piv,
            singular,
        }
    }

    /// Whether a zero pivot was met.
    pub fn is_singular(&self) -> bool {
        self.singular
    }

    /// Solve `A·X = B` for all columns of `b`, in place.
    pub fn solve_in_place(&self, b: &mut DMat<S>) {
        assert!(!self.singular, "LU solve on a singular factorization");
        let n = self.lu.nrows();
        assert_eq!(b.nrows(), n);
        // Apply the permutation.
        let mut permuted = DMat::zeros(n, b.ncols());
        for i in 0..n {
            for j in 0..b.ncols() {
                permuted[(i, j)] = b[(self.piv[i], j)];
            }
        }
        tri::solve_lower_in_place(&self.lu, n, true, &mut permuted);
        tri::solve_upper_in_place(&self.lu, n, &mut permuted);
        b.copy_from(&permuted);
    }

    /// Solve and return a fresh matrix.
    pub fn solve(&self, b: &DMat<S>) -> DMat<S> {
        let mut x = b.clone();
        self.solve_in_place(&mut x);
        x
    }
}

/// Convenience: solve `A·X = B` in one call (factors `A` internally).
/// Returns `None` when `A` is numerically singular.
pub fn solve<S: Scalar>(a: &DMat<S>, b: &DMat<S>) -> Option<DMat<S>> {
    let f = Lu::factor(a.clone());
    if f.is_singular() {
        None
    } else {
        Some(f.solve(b))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blas::{matmul, Op};
    use kryst_scalar::C64;

    #[test]
    fn lu_solves_real() {
        let a = DMat::<f64>::from_fn(6, 6, |i, j| {
            ((i * 7 + j * 5) % 11) as f64 - 5.0 + if i == j { 12.0 } else { 0.0 }
        });
        let x_true = DMat::<f64>::from_fn(6, 2, |i, j| (i as f64) - 2.0 * (j as f64));
        let b = matmul(&a, Op::None, &x_true, Op::None);
        let x = solve(&a, &b).expect("nonsingular");
        for i in 0..6 {
            for j in 0..2 {
                assert!((x[(i, j)] - x_true[(i, j)]).abs() < 1e-10);
            }
        }
    }

    #[test]
    fn lu_solves_complex() {
        let a = DMat::<C64>::from_fn(5, 5, |i, j| {
            C64::from_parts(
                ((i * 3 + j) % 7) as f64 - 3.0 + if i == j { 8.0 } else { 0.0 },
                ((i + j * 2) % 5) as f64 - 2.0,
            )
        });
        let x_true = DMat::<C64>::from_fn(5, 1, |i, _| C64::from_parts(i as f64, -1.0));
        let b = matmul(&a, Op::None, &x_true, Op::None);
        let x = solve(&a, &b).expect("nonsingular");
        for i in 0..5 {
            assert!((x[(i, 0)] - x_true[(i, 0)]).abs() < 1e-10);
        }
    }

    #[test]
    fn lu_detects_singularity() {
        let a = DMat::<f64>::from_fn(4, 4, |i, _| i as f64); // rank 1
        let f = Lu::factor(a);
        assert!(f.is_singular());
        assert!(solve(&DMat::<f64>::zeros(3, 3), &DMat::zeros(3, 1)).is_none());
    }

    #[test]
    fn lu_pivots_on_zero_diagonal() {
        // Requires pivoting: a[0][0] = 0.
        let a = DMat::<f64>::from_col_major(2, 2, vec![0.0, 1.0, 1.0, 0.0]);
        let b = DMat::<f64>::from_col_major(2, 1, vec![2.0, 3.0]);
        let x = solve(&a, &b).unwrap();
        // [[0,1],[1,0]] x = b → x = [3, 2]
        assert!((x[(0, 0)] - 3.0).abs() < 1e-14);
        assert!((x[(1, 0)] - 2.0).abs() < 1e-14);
    }
}
