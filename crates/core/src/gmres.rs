//! Restarted (block) GMRES / FGMRES: the restarted solve of
//! the crate's `restart` module with no augmentation.
//!
//! One entry point covers the whole family: `p = 1` gives classic GMRES(m),
//! `p > 1` gives **Block GMRES** (the paper's §V-B: one Krylov space for all
//! right-hand sides, block Hessenberg least squares, faster convergence at
//! higher per-iteration cost), and [`crate::opts::PrecondSide::Flexible`]
//! gives FGMRES — the directions `Z_m = M⁻¹·V_m` are stored and used for the
//! solution update, so the preconditioner may change between applications.

use crate::opts::{PrecondSide, SolveOpts, SolveResult};
use crate::restart::{self, Augmentation, Cx, Plan};
use kryst_dense::DMat;
use kryst_par::{LinOp, PrecondOp};
use kryst_scalar::Scalar;

/// The shortest cycle: one Arnoldi step.
const MIN_RESTART: usize = 1;

/// No augmentation: every cycle is `restart` Arnoldi steps on the residual
/// and nothing is carried over.
pub(crate) struct Plain {
    restart: usize,
}

impl Plain {
    /// GMRES(m) with `m = opts.restart`.
    pub(crate) fn new(opts: &SolveOpts) -> Self {
        Plain {
            restart: opts.restart.max(MIN_RESTART),
        }
    }
}

impl<S: Scalar> Augmentation<S> for Plain {
    fn prepare<'p>(&'p mut self, _cx: &Cx<'_, S>, _r: &mut DMat<S>) -> Plan<'p, S> {
        Plan::arnoldi(None, self.restart)
    }
}

/// Solve `A·X = B` for all columns of `b` simultaneously (block method).
/// `x` holds the initial guess on entry and the solution on exit.
pub fn solve<S: Scalar>(
    a: &dyn LinOp<S>,
    pc: &dyn PrecondOp<S>,
    b: &DMat<S>,
    x: &mut DMat<S>,
    opts: &SolveOpts,
) -> SolveResult {
    let name = if opts.side == PrecondSide::Flexible {
        "fgmres"
    } else {
        "gmres"
    };
    restart::solve(a, pc, b, x, opts, (name, 0), &mut Plain::new(opts))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::opts::PrecondSide;
    use kryst_par::IdentityPrecond;
    use kryst_pde::poisson::poisson2d;
    use kryst_precond::{Amg, AmgOpts, Jacobi, SmootherKind};
    use kryst_sparse::Csr;

    fn check_true_residual<S: Scalar>(a: &Csr<S>, b: &DMat<S>, x: &DMat<S>, rtol: f64) {
        let mut r = a.apply(x);
        r.axpy(-S::one(), b);
        for l in 0..b.ncols() {
            let rel = r.col_norm(l) / b.col_norm(l);
            assert!(rel <= rtol * 20.0, "column {l}: true rel residual {rel}");
        }
    }

    #[test]
    fn gmres_unpreconditioned_poisson() {
        let prob = poisson2d::<f64>(12, 12);
        let n = prob.a.nrows();
        let b = DMat::from_fn(n, 1, |i, _| ((i % 7) as f64) - 3.0);
        let mut x = DMat::zeros(n, 1);
        let opts = SolveOpts {
            rtol: 1e-10,
            max_iters: 500,
            ..Default::default()
        };
        let id = IdentityPrecond::new(n);
        let res = solve(&prob.a, &id, &b, &mut x, &opts);
        assert!(res.converged, "GMRES failed: {:?}", res.final_relres);
        check_true_residual(&prob.a, &b, &x, 1e-10);
        // History is per-iteration and monotone within cycles.
        assert_eq!(res.history.len(), res.iterations);
    }

    #[test]
    fn gmres_restart_still_converges() {
        let prob = poisson2d::<f64>(16, 16);
        let n = prob.a.nrows();
        let b = DMat::from_fn(n, 1, |i, _| 1.0 + ((i % 5) as f64));
        let mut x = DMat::zeros(n, 1);
        let opts = SolveOpts {
            rtol: 1e-8,
            restart: 10,
            max_iters: 3000,
            ..Default::default()
        };
        let id = IdentityPrecond::new(n);
        let res = solve(&prob.a, &id, &b, &mut x, &opts);
        assert!(res.converged);
        check_true_residual(&prob.a, &b, &x, 1e-8);
    }

    #[test]
    fn jacobi_preconditioning_left_and_right_agree() {
        let prob = poisson2d::<f64>(10, 10);
        let n = prob.a.nrows();
        let jac = Jacobi::new(&prob.a, 1.0);
        let b = DMat::from_fn(n, 1, |i, _| ((i * 3) % 11) as f64 - 5.0);
        for side in [PrecondSide::Left, PrecondSide::Right, PrecondSide::Flexible] {
            let mut x = DMat::zeros(n, 1);
            let opts = SolveOpts {
                rtol: 1e-9,
                side,
                ..Default::default()
            };
            let res = solve(&prob.a, &jac, &b, &mut x, &opts);
            assert!(res.converged, "{side:?} failed");
            check_true_residual(&prob.a, &b, &x, 1e-8);
        }
    }

    #[test]
    fn block_gmres_converges_in_fewer_iterations_than_worst_single() {
        let prob = poisson2d::<f64>(14, 14);
        let n = prob.a.nrows();
        let p = 4;
        let b = DMat::from_fn(n, p, |i, j| (((i + 1) * (j + 2)) % 13) as f64 - 6.0);
        let id = IdentityPrecond::new(n);
        let opts = SolveOpts {
            rtol: 1e-8,
            restart: 40,
            max_iters: 400,
            ..Default::default()
        };
        let mut xb = DMat::zeros(n, p);
        let res_block = solve(&prob.a, &id, &b, &mut xb, &opts);
        assert!(res_block.converged);
        check_true_residual(&prob.a, &b, &xb, 1e-8);
        // Single-RHS solves for comparison.
        let mut worst = 0usize;
        for l in 0..p {
            let bl = DMat::from_col_major(n, 1, b.col(l).to_vec());
            let mut xl = DMat::zeros(n, 1);
            let r = solve(&prob.a, &id, &bl, &mut xl, &opts);
            assert!(r.converged);
            worst = worst.max(r.iterations);
        }
        assert!(
            res_block.iterations < worst,
            "block {} !< worst single {}",
            res_block.iterations,
            worst
        );
    }

    #[test]
    fn fgmres_handles_variable_preconditioner() {
        // AMG with an inner GMRES smoother is nonlinear: FGMRES must still
        // converge to the true solution.
        let prob = poisson2d::<f64>(20, 20);
        let n = prob.a.nrows();
        let amg = Amg::new(
            &prob.a,
            prob.near_nullspace.as_ref(),
            &AmgOpts {
                smoother: SmootherKind::Gmres { iters: 3 },
                ..Default::default()
            },
        );
        assert!(kryst_par::PrecondOp::<f64>::is_variable(&amg));
        let b = DMat::from_fn(n, 1, |i, _| ((i % 9) as f64) - 4.0);
        let mut x = DMat::zeros(n, 1);
        let opts = SolveOpts {
            rtol: 1e-10,
            side: PrecondSide::Flexible,
            ..Default::default()
        };
        let res = solve(&prob.a, &amg, &b, &mut x, &opts);
        assert!(res.converged, "FGMRES+AMG: {:?}", res.final_relres);
        assert!(
            res.iterations < 25,
            "AMG-preconditioned GMRES took {}",
            res.iterations
        );
        check_true_residual(&prob.a, &b, &x, 1e-9);
    }

    #[test]
    fn complex_maxwell_system_solvable() {
        use kryst_pde::maxwell::{maxwell3d, MaxwellParams};
        use kryst_scalar::C64;
        let (prob, geom) = maxwell3d(&MaxwellParams::matching_solution(4));
        let n = prob.a.nrows();
        let params = MaxwellParams::matching_solution(4);
        let b = kryst_pde::maxwell::antenna_ring_rhs(&geom, &params, 2, 0.3, 0.5);
        let id = IdentityPrecond::new(n);
        let opts = SolveOpts {
            rtol: 1e-8,
            restart: 60,
            max_iters: 2000,
            ..Default::default()
        };
        let mut x = DMat::<C64>::zeros(n, 2);
        let res = solve(&prob.a, &id, &b, &mut x, &opts);
        assert!(res.converged, "complex GMRES: {:?}", res.final_relres);
        check_true_residual(&prob.a, &b, &x, 1e-7);
    }

    #[test]
    fn zero_rhs_returns_immediately() {
        let prob = poisson2d::<f64>(8, 8);
        let n = prob.a.nrows();
        let b = DMat::zeros(n, 2);
        let id = IdentityPrecond::new(n);
        let mut x = DMat::zeros(n, 2);
        let res = solve(&prob.a, &id, &b, &mut x, &SolveOpts::default());
        assert!(res.converged);
        assert_eq!(res.iterations, 0);
    }

    #[test]
    fn reduction_counts_scale_with_iterations() {
        use kryst_par::CommStats;
        let prob = poisson2d::<f64>(12, 12);
        let n = prob.a.nrows();
        let id = IdentityPrecond::new(n);
        let b = DMat::from_fn(n, 1, |i, _| (i % 4) as f64);

        // One fused reduction per iteration (two when the adaptive
        // re-orthogonalization fires) plus one or two per cycle start.
        let stats = CommStats::new_shared();
        let opts = SolveOpts {
            rtol: 1e-8,
            stats: Some(std::sync::Arc::clone(&stats)),
            ..Default::default()
        };
        let mut x = DMat::zeros(n, 1);
        let res = solve(&prob.a, &id, &b, &mut x, &opts);
        assert!(res.converged);
        let snap = stats.snapshot();
        let cycles = res.iterations.div_ceil(opts.restart).max(1);
        assert!(snap.reductions as usize >= res.iterations + cycles);
        assert!(snap.reductions as usize <= 2 * (res.iterations + cycles));
        // Each fused reduction carried at least the V-projection + Gram parts.
        assert!(snap.fused_parts >= 2 * res.iterations as u64);
    }

    /// Eight antenna right-hand sides with three distinct columns: the block
    /// has rank 3 at step 0 and rank 7 at step 6, and collapses again later.
    /// The replacement column of the second collapse must not be one the
    /// first already put into the basis: its projection is zero, and
    /// normalising it filled the basis, every estimate and `x` with NaN.
    #[test]
    fn block_gmres_survives_a_second_rank_collapse() {
        use kryst_obs::{diags_of, DiagKind, Recorder, RingRecorder};
        use kryst_pde::maxwell::{antenna_ring_rhs, maxwell3d, MaxwellParams};
        use kryst_scalar::C64;
        use std::sync::Arc;
        let params = MaxwellParams::with_cylinder(4);
        let (prob, geom) = maxwell3d(&params);
        let n = prob.a.nrows();
        let b = antenna_ring_rhs(&geom, &params, 32, 0.3, 0.55).cols(0, 8);
        let id = IdentityPrecond::new(n);
        let ring = Arc::new(RingRecorder::new(4096));
        let opts = SolveOpts {
            restart: 50,
            recorder: Some(ring.clone() as Arc<dyn Recorder>),
            ..Default::default()
        };
        let mut x = DMat::<C64>::zeros(n, 8);
        let res = solve(&prob.a, &id, &b, &mut x, &opts);
        let collapses: Vec<_> = diags_of(&ring.events(), DiagKind::RankCollapse)
            .iter()
            .map(|d| (d.iter, d.value as usize))
            .collect();
        assert_eq!(collapses[..2], [(0, 3), (6, 7)]);
        assert!(collapses.len() > 2, "{collapses:?}");
        assert!(res.history.iter().flatten().all(|v| v.is_finite()));
        assert!(x
            .as_slice()
            .iter()
            .all(|v| v.re.is_finite() && v.im.is_finite()));
        assert!(res.converged, "{:?}", res.final_relres);
        check_true_residual(&prob.a, &b, &x, 1e-8);
    }
}
