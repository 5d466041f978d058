//! Block Conjugate Gradient (O'Leary 1980) — the SPD block baseline.
//!
//! The paper's related work (§II-B) traces block iterative methods back to
//! the Block CG: all `p` right-hand sides share one block Krylov space and
//! the step/correction coefficients become `p × p` matrix solves. Like
//! Block GMRES it converges in fewer (block) iterations than `p` separate
//! CG runs; unlike the pseudo-block variant the residual columns interact,
//! so near-dependent residual blocks must be handled (here: a pivoted
//! pseudo-inverse solve of the `p × p` systems, the block analogue of the
//! §V-C breakdown remark).

use crate::cycle::{any_above, rhs_norms};
use crate::opts::{SolveOpts, SolveResult};
use crate::trace::SolveTracer;
use kryst_dense::fused::{self, ColsRef};
use kryst_dense::{lu::Lu, DMat};
use kryst_par::{LinOp, PrecondOp};
use kryst_scalar::{Real, Scalar};
use kryst_sparse::SpmmWorkspace;

/// Solve `A·X = B` (`A` SPD/HPD) with preconditioned Block CG.
pub fn solve<S: Scalar>(
    a: &dyn LinOp<S>,
    pc: &dyn PrecondOp<S>,
    b: &DMat<S>,
    x: &mut DMat<S>,
    opts: &SolveOpts,
) -> SolveResult {
    let p = b.ncols();
    let bnorms = rhs_norms(b);
    // R = B − A·X, Z = M⁻¹·R, D = Z.
    let mut r = a.apply_new(x);
    r.scale(-S::one());
    r.axpy(S::one(), b);
    let mut z = pc.apply_new(&r);
    let mut d = z.clone();
    // S_rz = Rᴴ·Z (p × p).
    let mut s_rz = fused::adjoint_times(ColsRef::whole(&r), &z);
    let mut tracer = SolveTracer::begin(opts, "bcg", 0, a.nrows(), p);
    let mut iters = 0usize;
    // Buffer pool for the per-iteration n × p temporaries (A·D, M⁻¹·R, the
    // next direction block): no allocation after the first iteration.
    let mut ws = SpmmWorkspace::new();

    loop {
        let res: Vec<f64> = r.col_norms().iter().map(|v| v.to_f64()).collect();
        if !any_above(&res, &bnorms, opts.rtol) || iters >= opts.max_iters {
            break;
        }
        let mut ad = ws.take(a.nrows(), p);
        a.apply(&d, &mut ad);
        if let Some(st) = &opts.stats {
            // Two fused block reductions per iteration (DᴴAD and RᴴZ).
            st.record_reductions(2, 2 * p * p * std::mem::size_of::<S>());
        }
        // α solves (Dᴴ·A·D)·α = Rᴴ·Z.
        let dad = fused::adjoint_times(ColsRef::whole(&d), &ad);
        let alpha = match solve_small(&dad, &s_rz) {
            Some(v) => v,
            None => break, // block breakdown: D lost rank; residuals are tiny
        };
        // X ⟵ X + D·α; R ⟵ R − A·D·α.
        let alpha = std::slice::from_ref(&alpha);
        fused::fused_accumulate(&[ColsRef::whole(&d)], alpha, x);
        fused::fused_update(&[ColsRef::whole(&ad)], alpha, &mut r);
        ws.put(ad);
        let mut znew = ws.take(a.nrows(), p);
        pc.apply(&r, &mut znew);
        ws.put(std::mem::replace(&mut z, znew));
        let s_new = fused::adjoint_times(ColsRef::whole(&r), &z);
        // β solves (old RᴴZ)·β = new RᴴZ.
        let beta = match solve_small(&s_rz, &s_new) {
            Some(v) => v,
            None => break,
        };
        // D ⟵ Z + D·β.
        let mut d_next = ws.take(a.nrows(), p);
        d_next.copy_from(&z);
        fused::fused_accumulate(&[ColsRef::whole(&d)], &[beta], &mut d_next);
        ws.put(std::mem::replace(&mut d, d_next));
        s_rz = s_new;
        iters += 1;
        let row: Vec<f64> = r
            .col_norms()
            .iter()
            .zip(&bnorms)
            .map(|(v, b)| v.to_f64() / b)
            .collect();
        tracer.iteration(0, iters - 1, row, "none", None);
    }

    let final_relres: Vec<f64> = r
        .col_norms()
        .iter()
        .zip(&bnorms)
        .map(|(v, b)| v.to_f64() / b)
        .collect();
    let converged = final_relres.iter().all(|&v| v <= opts.rtol * 10.0);
    let history = tracer.finish(converged, &final_relres);
    SolveResult {
        iterations: iters,
        converged,
        history,
        final_relres,
    }
}

/// Solve the small `p × p` system `M·X = B`; `None` when (numerically)
/// singular — the exact/inexact block breakdown guard.
fn solve_small<S: Scalar>(m: &DMat<S>, b: &DMat<S>) -> Option<DMat<S>> {
    let f = Lu::factor(m.clone());
    if f.is_singular() {
        return None;
    }
    let (lo, hi) = f.pivot_range();
    if lo <= hi * S::Real::epsilon() * S::Real::from_f64(1e3) {
        return None;
    }
    Some(f.solve(b))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cg;
    use kryst_par::IdentityPrecond;
    use kryst_pde::poisson::poisson2d;
    use kryst_precond::Jacobi;

    #[test]
    fn block_cg_converges_and_matches_direct() {
        use kryst_sparse::SparseDirect;
        let prob = poisson2d::<f64>(16, 16);
        let n = prob.a.nrows();
        let id = IdentityPrecond::new(n);
        let p = 3;
        let b = DMat::from_fn(n, p, |i, j| (((i + 3 * j) % 9) as f64) - 4.0);
        let mut x = DMat::zeros(n, p);
        let opts = SolveOpts {
            rtol: 1e-10,
            max_iters: 500,
            ..Default::default()
        };
        let res = solve(&prob.a, &id, &b, &mut x, &opts);
        assert!(res.converged, "{:?}", res.final_relres);
        let f = SparseDirect::factor(&prob.a).unwrap();
        for l in 0..p {
            let xd = f.solve_one(b.col(l));
            for i in 0..n {
                assert!((x[(i, l)] - xd[i]).abs() < 1e-7, "({i},{l})");
            }
        }
    }

    #[test]
    fn block_cg_fewer_iterations_than_single_cg() {
        let prob = poisson2d::<f64>(20, 20);
        let n = prob.a.nrows();
        let id = IdentityPrecond::new(n);
        let p = 4;
        let b = DMat::from_fn(n, p, |i, j| (((i * (j + 2)) % 13) as f64) - 6.0);
        let opts = SolveOpts {
            rtol: 1e-8,
            max_iters: 1000,
            ..Default::default()
        };
        let mut xb = DMat::zeros(n, p);
        let block = solve(&prob.a, &id, &b, &mut xb, &opts);
        assert!(block.converged);
        let mut worst = 0;
        for l in 0..p {
            let bl = DMat::from_col_major(n, 1, b.col(l).to_vec());
            let mut xl = DMat::zeros(n, 1);
            let r = cg::solve(&prob.a, &id, &bl, &mut xl, &opts);
            assert!(r.converged);
            worst = worst.max(r.iterations);
        }
        assert!(
            block.iterations < worst,
            "BCG {} !< worst CG {}",
            block.iterations,
            worst
        );
    }

    #[test]
    fn preconditioned_block_cg() {
        let prob = poisson2d::<f64>(14, 14);
        let n = prob.a.nrows();
        let jac = Jacobi::new(&prob.a, 1.0);
        let b = DMat::from_fn(n, 2, |i, j| ((i + j) % 5) as f64 - 2.0);
        let mut x = DMat::zeros(n, 2);
        let opts = SolveOpts {
            rtol: 1e-9,
            ..Default::default()
        };
        let res = solve(&prob.a, &jac, &b, &mut x, &opts);
        assert!(res.converged);
        let mut r = prob.a.apply(&x);
        r.axpy(-1.0, &b);
        assert!(r.fro_norm() < 1e-7 * b.fro_norm());
    }

    #[test]
    fn rank_deficient_rhs_block_terminates_cleanly() {
        // Proportional columns make the block Gram matrices singular: like
        // the paper (which performs no block-size reduction, §V-C), the
        // solver detects the exact breakdown and stops without NaNs —
        // callers then deduplicate or perturb the block.
        let prob = poisson2d::<f64>(10, 10);
        let n = prob.a.nrows();
        let id = IdentityPrecond::new(n);
        let mut b = DMat::zeros(n, 2);
        for i in 0..n {
            let v = ((i % 7) as f64) - 3.0;
            b[(i, 0)] = v;
            b[(i, 1)] = 2.0 * v;
        }
        let mut x = DMat::zeros(n, 2);
        let opts = SolveOpts {
            rtol: 1e-8,
            max_iters: 400,
            ..Default::default()
        };
        let res = solve(&prob.a, &id, &b, &mut x, &opts);
        assert!(!res.converged);
        for v in &res.final_relres {
            assert!(v.is_finite());
        }
        // A genuine perturbation restores block independence and convergence.
        for i in 0..n {
            b[(i, 1)] += 0.1 * (((i * 3) % 5) as f64 - 2.0);
        }
        let mut x = DMat::zeros(n, 2);
        let res = solve(&prob.a, &id, &b, &mut x, &opts);
        assert!(res.converged, "{:?}", res.final_relres);
    }
}
