//! Implicit heat stepping: a *non-variable* sequence of linear systems.
//!
//! The paper's §III-B motivates the `same_system` fast path with the
//! implicitly discretized heat equation `∂u/∂t − Δu = f`: backward Euler
//! gives `(I + dt·L)·u^{n+1} = u^n + dt·f^{n+1}` — one operator, many
//! right-hand sides. This module generates exactly that workload.

use crate::poisson::poisson2d;
use crate::Problem;
use kryst_scalar::Scalar;
use kryst_sparse::Csr;

/// A heat-stepping workload: one operator and a lazy stream of RHS vectors.
pub struct HeatSequence<S: Scalar> {
    /// The time-stepping operator `I + dt·L`.
    pub a: Csr<S>,
    /// Problem geometry (from the underlying Poisson discretization).
    pub problem: Problem<S>,
    /// Time step.
    pub dt: f64,
    nx: usize,
    ny: usize,
    state: Vec<S>,
    step: usize,
}

impl<S: Scalar> HeatSequence<S> {
    /// Backward-Euler heat on the `nx × ny` unit-square grid.
    pub fn new(nx: usize, ny: usize, dt: f64) -> Self {
        let problem = poisson2d::<S>(nx, ny);
        // A = I + dt·L.
        let mut a = problem.a.clone();
        for v in a.values_mut().2 {
            *v *= S::from_f64(dt);
        }
        let a = a.shift_diag(S::one());
        let n = nx * ny;
        // Initial condition: a hot spot in the lower-left quadrant.
        let mut state = vec![S::zero(); n];
        for (k, c) in problem.coords.iter().enumerate() {
            let d2 = (c[0] - 0.25).powi(2) + (c[1] - 0.25).powi(2);
            state[k] = S::from_f64((-d2 / 0.02).exp());
        }
        Self {
            a: a.clone(),
            problem: Problem { a, ..problem },
            dt,
            nx,
            ny,
            state,
            step: 0,
        }
    }

    /// Problem size.
    pub fn n(&self) -> usize {
        self.nx * self.ny
    }

    /// Right-hand side of the next time step (drifting source + previous
    /// state). Call [`HeatSequence::advance`] with the computed solution to
    /// move forward.
    pub fn next_rhs(&mut self) -> Vec<S> {
        self.step += 1;
        let t = self.step as f64 * self.dt;
        // A source orbiting the domain center.
        let sx = 0.5 + 0.3 * (2.0 * t).cos();
        let sy = 0.5 + 0.3 * (2.0 * t).sin();
        let mut b = self.state.clone();
        for (k, c) in self.problem.coords.iter().enumerate() {
            let d2 = (c[0] - sx).powi(2) + (c[1] - sy).powi(2);
            b[k] += S::from_f64(self.dt * 50.0 * (-d2 / 0.01).exp());
        }
        b
    }

    /// Record the solved step as the new state.
    pub fn advance(&mut self, u: &[S]) {
        assert_eq!(u.len(), self.state.len());
        self.state.copy_from_slice(u);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kryst_sparse::SparseDirect;

    #[test]
    fn operator_is_identity_plus_dt_laplacian() {
        let h = HeatSequence::<f64>::new(6, 6, 0.01);
        let p = poisson2d::<f64>(6, 6);
        for i in 0..36 {
            let expect = 1.0 + 0.01 * p.a.get(i, i);
            assert!((h.a.get(i, i) - expect).abs() < 1e-12);
        }
    }

    #[test]
    fn heat_diffuses_and_stays_bounded() {
        let mut seq = HeatSequence::<f64>::new(12, 12, 0.002);
        let f = SparseDirect::factor(&seq.a).unwrap();
        let mut max_t = 0.0f64;
        for _ in 0..5 {
            let b = seq.next_rhs();
            let u = f.solve_one(&b);
            for &v in &u {
                assert!(v.is_finite());
                max_t = max_t.max(v.abs());
            }
            seq.advance(&u);
        }
        assert!(max_t > 0.0 && max_t < 100.0, "max |u| = {max_t}");
    }

    #[test]
    fn rhs_sequence_varies() {
        let mut seq = HeatSequence::<f64>::new(8, 8, 0.05);
        let b1 = seq.next_rhs();
        let b2 = seq.next_rhs();
        let diff: f64 = b1.iter().zip(&b2).map(|(a, b)| (a - b).abs()).sum();
        assert!(diff > 1e-6, "successive right-hand sides must differ");
    }
}
