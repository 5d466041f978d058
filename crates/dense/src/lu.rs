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
            for (i, v) in a.col(k).iter().enumerate().skip(k + 1) {
                let v = v.abs();
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
            // The multipliers below the pivot, then the trailing columns one
            // at a time; a zero multiplier leaves its row alone.
            let inv = S::one() / a[(k, k)];
            let (head, trail) = a.as_mut_slice().split_at_mut((k + 1) * n);
            let l = &mut head[k * n + k + 1..];
            for lik in l.iter_mut() {
                *lik *= inv;
            }
            for col in trail.chunks_exact_mut(n) {
                let (upper, lower) = col.split_at_mut(k + 1);
                let u = upper[k];
                for (x, &lik) in lower.iter_mut().zip(l.iter()) {
                    if lik != S::zero() {
                        *x -= lik * u;
                    }
                }
            }
        }
        Self {
            lu: a,
            piv,
            singular,
        }
    }

    /// [`Lu::factor`] as it was written, eliminating row by row across the
    /// column-major storage: the reference its sweeps are pinned to.
    #[cfg(test)]
    pub(crate) fn factor_reference(mut a: DMat<S>) -> Self {
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

    fn lu_bits<S: Scalar>(f: &Lu<S>) -> (Vec<(u64, u64)>, Vec<usize>, bool) {
        let lu = f.lu.as_slice().iter();
        let bits = lu.map(|v| (v.re().to_bits(), v.im().to_bits())).collect();
        (bits, f.piv.clone(), f.singular)
    }

    fn rnd(i: usize, j: usize, salt: usize) -> f64 {
        let h = (i.wrapping_mul(2654435761) ^ j.wrapping_mul(40503) ^ salt.wrapping_mul(69069))
            .wrapping_mul(0x9E37_79B9_7F4A_7C15);
        ((h >> 11) % 20011) as f64 / 10005.5 - 1.0
    }

    /// The column sweeps against the row-by-row reference, bit for bit:
    /// pivoting, exact zero multipliers (a sparse matrix), a rank-deficient
    /// matrix that stops part way, and a non-finite one.
    fn factor_matches_reference<S: Scalar>() {
        for n in [1, 2, 3, 8, 50, 224] {
            let dense = DMat::<S>::from_fn(n, n, |i, j| S::from_parts(rnd(i, j, n), rnd(i, j, 7)));
            let sparse = DMat::<S>::from_fn(n, n, |i, j| {
                if (i * 5 + j * 3) % 4 == 0 || i == j {
                    S::from_parts(rnd(i, j, 3), rnd(j, i, 3))
                } else {
                    S::zero()
                }
            });
            let mut deficient = dense.clone();
            for i in 0..n {
                deficient[(i, n / 2)] = deficient[(i, 0)];
            }
            let mut nan = dense.clone();
            nan[(n - 1, n / 3)] = S::from_f64(f64::NAN);
            for (name, a) in [
                ("dense", dense),
                ("sparse", sparse),
                ("deficient", deficient),
                ("nan", nan),
            ] {
                let got = lu_bits(&Lu::factor(a.clone()));
                assert_eq!(got, lu_bits(&Lu::factor_reference(a)), "{name}, n = {n}");
            }
        }
    }

    #[test]
    fn factor_matches_reference_f64() {
        factor_matches_reference::<f64>();
    }

    #[test]
    fn factor_matches_reference_c64() {
        factor_matches_reference::<C64>();
    }
}
