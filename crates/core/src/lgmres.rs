//! LGMRES(m, k) — "Loose GMRES" with error-approximation augmentation.
//!
//! The PETSc baseline of the paper's §IV-C (`-ksp_type lgmres
//! -ksp_lgmres_augment 10`): each restart cycle minimizes the residual over
//! the Krylov space `K_{m−k}(A, r)` *augmented* with the `k` most recent
//! error approximations `z_i = x_{i} − x_{i−1}` (Baker, Jessup &
//! Manteuffel). Unlike GCRO-DR the augmentation vectors carry no spectral
//! deflation and cannot be reused across systems — which is exactly the gap
//! the paper exploits (Fig. 3c/3d: 269 LGMRES vs 173 GCRO-DR iterations).
//!
//! The restarted solve of the crate's `restart` module augmented with those
//! pairs: a cycle is `m − k` Arnoldi steps on the current residual, then one
//! step per stored pair `(z_i, A·z_i)` whose operator image is the stored
//! `A·z_i` — no operator apply, and the least-squares problem over
//! `[Z, z_1 … z_k]` is the cycle's own `H̄`.

use crate::opts::{SolveOpts, SolveResult};
use crate::restart::{self, Augmentation, Cx, CycleEnd, Plan};
use kryst_dense::fused::{self, ColsRef};
use kryst_dense::DMat;
use kryst_par::{LinOp, PrecondOp};
use kryst_scalar::Scalar;

/// The shortest cycle: one Arnoldi step and one stored pair.
const MIN_RESTART: usize = 2;

/// The most recent error approximations `z_i` and their images `A·z_i`,
/// scaled to `‖A·z_i‖ = 1` (the direction is what matters, and the columns
/// of `H̄` stay O(1) as the residual shrinks). Column `i` holds the pair
/// stored `i` restarts ago; the storage for all `k` is allocated with the
/// first pair.
struct Pairs<S> {
    z: DMat<S>,
    az: DMat<S>,
    /// Arnoldi steps per cycle, `m − k`.
    steps: usize,
    k: usize,
    len: usize,
}

impl<S: Scalar> Pairs<S> {
    /// Store `(z, az)` in front, dropping the oldest of `k` pairs; a
    /// degenerate pair (`A·z = 0`) is not stored.
    fn push(&mut self, z: &DMat<S>, az: &DMat<S>) {
        let norm = az.fro_norm();
        if norm <= 1e-300 {
            return;
        }
        let n = z.nrows();
        if self.z.is_empty() {
            self.z = DMat::zeros(n, self.k);
            self.az = DMat::zeros(n, self.k);
        }
        let inv = S::from_f64(1.0 / norm);
        for (dst, src) in [(&mut self.z, z), (&mut self.az, az)] {
            dst.as_mut_slice().copy_within(..(self.k - 1) * n, n);
            for (d, s) in dst.col_mut(0).iter_mut().zip(src.col(0)) {
                *d = *s * inv;
            }
        }
        self.len = (self.len + 1).min(self.k);
    }
}

impl<S: Scalar> Augmentation<S> for Pairs<S> {
    /// `m − k` Arnoldi steps, then the stored pairs, the latest first.
    fn prepare<'p>(&'p mut self, _cx: &Cx<'_, S>, r: &mut DMat<S>) -> Plan<'p, S> {
        let n = r.nrows();
        Plan {
            images: self.az.as_slice()[..self.len * n].chunks_exact(n),
            ..Plan::arnoldi(None, self.steps)
        }
    }

    /// The error approximation `z = [Z, z_1 …]·y`, one sweep over the
    /// cycle's directions and the stored ones; `x += z`, and `z` becomes the
    /// latest pair unless the estimate says this was the last cycle.
    fn correct(&mut self, _cx: &Cx<'_, S>, end: &mut CycleEnd<S>, x: &mut DMat<S>) {
        let (n, j, own, y) = (x.nrows(), end.j, end.own, &end.y);
        let bufs = &mut end.bufs;
        let mut y_pairs = DMat::zeros(self.len, 1);
        y_pairs.col_mut(0)[..j - own].copy_from_slice(&y.col(0)[own..]);
        let mut z = bufs.ws.take(n, 1);
        fused::fused_accumulate(
            &[
                ColsRef::blocks(bufs.directions(own)),
                ColsRef::leading(&self.z, self.len),
            ],
            &[y.block(0, 0, own, 1), y_pairs],
            &mut z,
        );
        x.axpy(S::one(), &z);
        if !end.estimate_met {
            // Its image is A·z = V·(H̄·y): the new pair costs no operator
            // apply either.
            let h = bufs.hraw();
            let hy = DMat::from_fn(j + 1, 1, |i, _| {
                (0..j).fold(S::zero(), |acc, c| acc + h[(i, c)] * y[(c, 0)])
            });
            let mut az = bufs.ws.take(n, 1);
            fused::fused_accumulate(&[ColsRef::blocks(bufs.basis(j))], &[hy], &mut az);
            self.push(&z, &az);
            bufs.ws.put(az);
        }
        bufs.ws.put(z);
    }
}

/// Solve `A·x = b` (single RHS) with LGMRES(m, k); `opts.restart` is `m`,
/// `opts.recycle` is the augmentation count `k`.
pub fn solve<S: Scalar>(
    a: &dyn LinOp<S>,
    pc: &dyn PrecondOp<S>,
    b: &DMat<S>,
    x: &mut DMat<S>,
    opts: &SolveOpts,
) -> SolveResult {
    assert_eq!(b.ncols(), 1, "LGMRES is a single-RHS method");
    let m = opts.restart.max(MIN_RESTART);
    let k = opts.recycle.clamp(1, m - 1);
    let mut pairs = Pairs {
        z: DMat::zeros(0, 0),
        az: DMat::zeros(0, 0),
        steps: m - k,
        k,
        len: 0,
    };
    restart::solve(a, pc, b, x, opts, ("lgmres", 0), &mut pairs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gmres;
    use kryst_par::IdentityPrecond;
    use kryst_pde::poisson::poisson2d;

    #[test]
    fn lgmres_converges() {
        let prob = poisson2d::<f64>(16, 16);
        let n = prob.a.nrows();
        let id = IdentityPrecond::new(n);
        let b = DMat::from_fn(n, 1, |i, _| 1.0 + ((i % 4) as f64));
        let mut x = DMat::zeros(n, 1);
        let opts = SolveOpts {
            rtol: 1e-9,
            restart: 15,
            recycle: 4,
            max_iters: 2000,
            ..Default::default()
        };
        let res = solve(&prob.a, &id, &b, &mut x, &opts);
        assert!(res.converged, "{:?}", res.final_relres);
        let mut r = prob.a.apply(&x);
        r.axpy(-1.0, &b);
        assert!(r.fro_norm() < 1e-7 * b.fro_norm());
    }

    #[test]
    fn lgmres_beats_plain_restarted_gmres() {
        // The whole point of augmentation: fewer iterations than GMRES(m)
        // at equal restart length when restarts hurt.
        let prob = poisson2d::<f64>(24, 24);
        let n = prob.a.nrows();
        let id = IdentityPrecond::new(n);
        let b = DMat::from_fn(n, 1, |i, _| (((i * 7) % 11) as f64) - 5.0);
        let opts = SolveOpts {
            rtol: 1e-8,
            restart: 12,
            recycle: 3,
            max_iters: 5000,
            ..Default::default()
        };
        let mut xl = DMat::zeros(n, 1);
        let lg = solve(&prob.a, &id, &b, &mut xl, &opts);
        let mut xg = DMat::zeros(n, 1);
        let gm = gmres::solve(&prob.a, &id, &b, &mut xg, &opts);
        assert!(lg.converged && gm.converged);
        assert!(
            lg.iterations < gm.iterations,
            "LGMRES {} !< GMRES {}",
            lg.iterations,
            gm.iterations
        );
    }

    #[test]
    fn stored_pairs_count_against_max_iters() {
        // LGMRES(12, 3): cycles of 9 steps plus 0, 1, 2, 3 stored pairs end
        // at 9, 19, 30 and 42 iterations, so a cap of 41 falls inside the
        // fourth cycle's pairs.
        let prob = poisson2d::<f64>(24, 24);
        let n = prob.a.nrows();
        let id = IdentityPrecond::new(n);
        let b = DMat::from_fn(n, 1, |i, _| (((i * 7) % 11) as f64) - 5.0);
        let opts = SolveOpts {
            rtol: 1e-14,
            restart: 12,
            recycle: 3,
            max_iters: 41,
            ..Default::default()
        };
        let mut x = DMat::zeros(n, 1);
        let res = solve(&prob.a, &id, &b, &mut x, &opts);
        assert!(!res.converged);
        assert_eq!(res.iterations, 41);
        assert_eq!(res.history.len(), 41);
        // The capped cycle still applied its correction.
        let mut r = prob.a.apply(&x);
        r.axpy(-1.0, &b);
        assert!((r.fro_norm() / b.fro_norm() - res.final_relres[0]).abs() < 1e-12);
        assert!(res.final_relres[0] < *res.history[29].first().unwrap());
    }

    #[test]
    fn augmentation_queue_is_bounded() {
        // Indirect check: long solve with k=2 must not grow memory — the
        // dimensions of the final minimization stay ≤ m_arnoldi + k. We
        // verify via convergence within the iteration cap on a harder grid.
        let prob = poisson2d::<f64>(30, 30);
        let n = prob.a.nrows();
        let id = IdentityPrecond::new(n);
        let b = DMat::from_fn(n, 1, |i, _| ((i % 13) as f64) - 6.0);
        let mut x = DMat::zeros(n, 1);
        let opts = SolveOpts {
            rtol: 1e-8,
            restart: 10,
            recycle: 2,
            max_iters: 4000,
            ..Default::default()
        };
        let res = solve(&prob.a, &id, &b, &mut x, &opts);
        assert!(res.converged);
    }
}
