//! Dense triangular multi-RHS solves.

use crate::DMat;
use kryst_scalar::Scalar;

/// Solve `R · X = B` in place for upper-triangular `R` (leading `n × n` block
/// of `r`), overwriting the first `n` rows of each column of `b`.
///
/// Only rows/columns `0..n` of `r` are referenced, so a larger workspace
/// matrix (e.g. the incremental-QR `R` factor allocated for the full restart
/// length) can be reused without copying.
pub fn solve_upper_in_place<S: Scalar>(r: &DMat<S>, n: usize, b: &mut DMat<S>) {
    assert!(n <= r.nrows() && n <= r.ncols());
    assert!(b.nrows() >= n);
    for col in 0..b.ncols() {
        let x = b.col_mut(col);
        for i in (0..n).rev() {
            let mut acc = x[i];
            for j in i + 1..n {
                acc -= r[(i, j)] * x[j];
            }
            x[i] = acc / r[(i, i)];
        }
    }
}

/// Solve `L · X = B` in place for lower-triangular `L` (leading `n × n`
/// block), optionally with an implicit unit diagonal.
pub fn solve_lower_in_place<S: Scalar>(l: &DMat<S>, n: usize, unit_diag: bool, b: &mut DMat<S>) {
    assert!(n <= l.nrows() && n <= l.ncols());
    assert!(b.nrows() >= n);
    for col in 0..b.ncols() {
        let x = b.col_mut(col);
        for i in 0..n {
            let mut acc = x[i];
            for j in 0..i {
                acc -= l[(i, j)] * x[j];
            }
            x[i] = if unit_diag { acc } else { acc / l[(i, i)] };
        }
    }
}

/// `X ⟵ X · R⁻¹` for upper-triangular `R` — the "scale the basis by the
/// inverse R factor" step of CholQR / recycled-space updates (`U_k ⟵ U_k R⁻¹`
/// in Fig. 1 lines 6, 20, 37 of the paper).
pub fn right_solve_upper<S: Scalar>(x: &mut DMat<S>, r: &DMat<S>) {
    right_solve_upper_leading(x, r, x.ncols());
}

/// [`right_solve_upper`] on the leading `k` columns of `X` only, against
/// the leading `k × k` block of `R`.
pub fn right_solve_upper_leading<S: Scalar>(x: &mut DMat<S>, r: &DMat<S>, k: usize) {
    assert!(x.ncols() >= k && r.nrows() >= k && r.ncols() >= k);
    // Column j of X·R⁻¹ solves  (X·R⁻¹)[:,j] = (X[:,j] − Σ_{l<j} (XR⁻¹)[:,l]·R[l,j]) / R[j,j].
    for j in 0..k {
        for l in 0..j {
            let rlj = r[(l, j)];
            if rlj == S::zero() {
                continue;
            }
            let (dst, src) = x.two_cols_mut(j, l);
            for (d, s) in dst.iter_mut().zip(src.iter()) {
                *d -= rlj * *s;
            }
        }
        let d = S::one() / r[(j, j)];
        x.scale_col(j, d);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blas::{matmul, Op};

    fn upper(n: usize) -> DMat<f64> {
        DMat::from_fn(n, n, |i, j| {
            if i <= j {
                1.0 + (i + 2 * j) as f64 * 0.3 + if i == j { 2.0 } else { 0.0 }
            } else {
                0.0
            }
        })
    }

    #[test]
    fn upper_solve_roundtrip() {
        let r = upper(5);
        let x = DMat::from_fn(5, 3, |i, j| (i as f64) - (j as f64) * 0.5);
        let mut b = matmul(&r, Op::None, &x, Op::None);
        solve_upper_in_place(&r, 5, &mut b);
        for i in 0..5 {
            for j in 0..3 {
                assert!((b[(i, j)] - x[(i, j)]).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn lower_unit_diag() {
        let l = DMat::<f64>::from_fn(4, 4, |i, j| {
            if i > j {
                0.25 * (i + j) as f64
            } else if i == j {
                1.0
            } else {
                0.0
            }
        });
        let x = DMat::from_fn(4, 2, |i, j| (i + j) as f64 + 1.0);
        let mut b = matmul(&l, Op::None, &x, Op::None);
        solve_lower_in_place(&l, 4, true, &mut b);
        for i in 0..4 {
            for j in 0..2 {
                assert!((b[(i, j)] - x[(i, j)]).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn right_solve_matches_explicit_inverse() {
        let r = upper(4);
        let x = DMat::from_fn(6, 4, |i, j| ((i * 5 + j) % 7) as f64 - 3.0);
        let mut y = x.clone();
        right_solve_upper(&mut y, &r);
        // Verify y * r == x
        let back = matmul(&y, Op::None, &r, Op::None);
        for i in 0..6 {
            for j in 0..4 {
                assert!((back[(i, j)] - x[(i, j)]).abs() < 1e-11);
            }
        }
    }
}
