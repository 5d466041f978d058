//! The benchmark's own check of a solver's answer.
//!
//! The true relative residual is recomputed by a naive loop over raw CSR
//! arrays, on (re, im) pairs, and never by the program's own `Csr::apply`: a
//! fault in the kernels the solvers use must not be able to hide itself.

/// A matrix as raw CSR arrays; real entries carry a zero imaginary part.
#[derive(Debug, Clone)]
pub struct RawCsr {
    pub indptr: Vec<usize>,
    pub indices: Vec<usize>,
    pub values: Vec<[f64; 2]>,
}

/// What the check found for one solve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Checked {
    /// Largest `‖b − A·x‖ / ‖b‖` over the columns.
    pub max_relres: f64,
    /// Every entry of `x` is finite.
    pub finite: bool,
}

impl Checked {
    /// A solve passes if the solver said it converged, `x` is finite and the
    /// true relative residual of every column is within `10·rtol`.
    pub fn passes(&self, converged: bool, rtol: f64) -> bool {
        converged && self.finite && self.max_relres <= 10.0 * rtol
    }
}

/// Check the columns of `x` against the columns of `b`.
pub fn residual(a: &RawCsr, b: &[Vec<[f64; 2]>], x: &[Vec<[f64; 2]>]) -> Checked {
    let n = a.indptr.len() - 1;
    assert_eq!(b.len(), x.len(), "one solution column per right-hand side");
    let mut out = Checked {
        max_relres: 0.0,
        finite: true,
    };
    for (bc, xc) in b.iter().zip(x) {
        assert_eq!((bc.len(), xc.len()), (n, n));
        if xc.iter().any(|v| !v[0].is_finite() || !v[1].is_finite()) {
            out.finite = false;
            out.max_relres = f64::INFINITY;
            continue;
        }
        let (mut num, mut den) = (0.0f64, 0.0f64);
        for (i, bi) in bc.iter().enumerate() {
            let (mut re, mut im) = (0.0f64, 0.0f64);
            for k in a.indptr[i]..a.indptr[i + 1] {
                let [ar, ai] = a.values[k];
                let [xr, xi] = xc[a.indices[k]];
                re += ar * xr - ai * xi;
                im += ar * xi + ai * xr;
            }
            let (rr, ri) = (bi[0] - re, bi[1] - im);
            num += rr * rr + ri * ri;
            den += bi[0] * bi[0] + bi[1] * bi[1];
        }
        // A zero right-hand side has the exact answer x = 0.
        let rel = if den > 0.0 {
            (num / den).sqrt()
        } else {
            num.sqrt()
        };
        out.max_relres = out.max_relres.max(rel);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// [[4,1,0],[1,3,1],[0,1,2]]
    fn three_by_three() -> RawCsr {
        RawCsr {
            indptr: vec![0, 2, 5, 7],
            indices: vec![0, 1, 0, 1, 2, 1, 2],
            values: [4.0, 1.0, 1.0, 3.0, 1.0, 1.0, 2.0]
                .iter()
                .map(|&v| [v, 0.0])
                .collect(),
        }
    }

    fn col(v: &[f64]) -> Vec<[f64; 2]> {
        v.iter().map(|&r| [r, 0.0]).collect()
    }

    #[test]
    fn exact_solution_passes() {
        // A·[1,2,3] = [6,10,8]
        let c = residual(
            &three_by_three(),
            &[col(&[6.0, 10.0, 8.0])],
            &[col(&[1.0, 2.0, 3.0])],
        );
        assert!(c.finite && c.max_relres < 1e-15, "{c:?}");
        assert!(c.passes(true, 1e-8));
        // The solver's own verdict counts too.
        assert!(!c.passes(false, 1e-8));
    }

    #[test]
    fn wrong_solution_is_counted_as_failed() {
        let b = [col(&[6.0, 10.0, 8.0]), col(&[6.0, 10.0, 8.0])];
        // Second column is off by 1e-3 in one entry.
        let x = [col(&[1.0, 2.0, 3.0]), col(&[1.0, 2.001, 3.0])];
        let c = residual(&three_by_three(), &b, &x);
        // r = A·[0,1e-3,0] = [1e-3,3e-3,1e-3]; ‖r‖/‖b‖ = 1e-3·√11/√200.
        let want = 1e-3 * (11.0f64 / 200.0).sqrt();
        assert!((c.max_relres - want).abs() < 1e-12, "{c:?}");
        assert!(!c.passes(true, 1e-8));
        assert!(c.passes(true, 1e-4));
    }

    #[test]
    fn non_finite_solution_fails() {
        let c = residual(
            &three_by_three(),
            &[col(&[6.0, 10.0, 8.0])],
            &[col(&[1.0, f64::NAN, 3.0])],
        );
        assert!(!c.finite && !c.passes(true, 1.0));
    }

    #[test]
    fn complex_entries_multiply_as_complex_numbers() {
        // 1×1 system (2+i)·x = (1+3i) has x = (1+3i)/(2+i) = 1+i.
        let a = RawCsr {
            indptr: vec![0, 1],
            indices: vec![0],
            values: vec![[2.0, 1.0]],
        };
        let c = residual(&a, &[vec![[1.0, 3.0]]], &[vec![[1.0, 1.0]]]);
        assert!(c.max_relres < 1e-15, "{c:?}");
        let c = residual(&a, &[vec![[1.0, 3.0]]], &[vec![[1.0, -1.0]]]);
        assert!(c.max_relres > 0.1, "{c:?}");
    }
}
