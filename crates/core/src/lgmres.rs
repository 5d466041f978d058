//! LGMRES(m, k) — "Loose GMRES" with error-approximation augmentation.
//!
//! The PETSc baseline of the paper's §IV-C (`-ksp_type lgmres
//! -ksp_lgmres_augment 10`): each restart cycle minimizes the residual over
//! the Krylov space `K_{m−k}(A, r)` *augmented* with the `k` most recent
//! error approximations `z_i = x_{i} − x_{i−1}` (Baker, Jessup &
//! Manteuffel). Unlike GCRO-DR the augmentation vectors carry no spectral
//! deflation and cannot be reused across systems — which is exactly the gap
//! the paper exploits (Fig. 3c/3d: 269 LGMRES vs 173 GCRO-DR iterations).

use crate::cycle::{rhs_norms, BlockArnoldi, CycleBuffers, PrecondMode};
use crate::opts::{SolveOpts, SolveResult};
use crate::trace::SolveTracer;
use kryst_dense::{blas, chol, DMat};
use kryst_obs::SpanKind;
use kryst_par::{LinOp, PrecondOp};
use kryst_scalar::{Real, Scalar};
use std::collections::VecDeque;

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
    let m = opts.restart.max(2);
    let k = opts.recycle.clamp(1, m - 1);
    let m_arnoldi = m - k;
    let mode = PrecondMode::new(pc, opts.side);
    let bnorms = rhs_norms(b);
    let mut tracer = SolveTracer::begin(opts, "lgmres", 0, a.nrows(), 1);
    let orth_name = opts.orth.name();
    let mut cycle = 0usize;
    let mut iters = 0usize;
    let mut converged = false;
    // Stored (z, A·z) pairs from previous cycles.
    let mut aug: VecDeque<(DMat<S>, DMat<S>)> = VecDeque::new();

    // Storage shared by every cycle: residuals and the Arnoldi basis reuse
    // the same allocations for the whole solve.
    let mut bufs = CycleBuffers::default();
    let mut r = mode.residual_ws(a, b, x, &mut bufs.ws);
    'outer: while iters < opts.max_iters {
        let rn = r.col_norm(0).to_f64();
        if rn <= opts.rtol * bnorms[0] {
            converged = true;
            break;
        }
        let cyc = tracer.span_start();
        // Arnoldi phase: m−k steps on the current residual.
        let mut arn = BlockArnoldi::new(
            a,
            &mode,
            m_arnoldi,
            1,
            opts.orth,
            None,
            opts.stats.as_deref(),
        )
        .with_path(opts.ortho)
        .with_buffers(std::mem::take(&mut bufs));
        arn.start(&r);
        let mut first = true;
        while arn.can_step() && iters < opts.max_iters {
            let res = arn.step();
            iters += 1;
            tracer.iteration(
                cycle,
                iters - 1,
                vec![res[0] / bnorms[0]],
                orth_name,
                arn.breakdown_rank(first),
            );
            first = false;
            if res[0] <= opts.rtol * bnorms[0] {
                // Converged inside the Krylov phase: plain GMRES update.
                let y = arn.solve_y();
                arn.update_solution(&y, x);
                bufs = arn.into_buffers();
                converged = true;
                tracer.span_end(cyc, SpanKind::Cycle, cycle);
                break 'outer;
            }
        }
        tracer.span_end(cyc, SpanKind::Cycle, cycle);
        let restart_probe = tracer.span_start();
        // Augmented minimization: directions D = [Z_arnoldi, z_prev…],
        // images G = [V·H̄, A·z_prev…]; minimize ‖r − G·y‖ exactly.
        let q = aug.len();
        let zarn = arn.z_active();
        let varn = arn.v_active();
        let vh = blas::matmul(&varn, blas::Op::None, &arn.hraw_active(), blas::Op::None);
        bufs = arn.into_buffers();
        let mut dmat = zarn;
        let mut gmat = vh;
        for (z, az) in &aug {
            dmat = dmat.hcat(z);
            gmat = gmat.hcat(az);
        }
        // Least squares via CholQR of G (one fused reduction). Clamp tiny
        // pivots: once nearly converged the augmented directions become
        // dependent and an unguarded solve would inject NaNs.
        let mut qg = gmat.clone();
        let out = chol::cholqr(&mut qg);
        if let Some(st) = &opts.stats {
            st.record_reduction(std::mem::size_of_val(out.r.as_slice()));
        }
        let rfac = out.r;
        let mut rmax = 0.0f64;
        for i in 0..rfac.nrows() {
            rmax = rmax.max(rfac[(i, i)].abs().to_f64());
        }
        let floor = rmax.max(f64::EPSILON) * 1e-10;
        let mut y = blas::adjoint_times(&qg, &r);
        // Truncating back-substitution: directions with a negligible pivot
        // carry no new information and are dropped (y_i = 0) rather than
        // amplified.
        {
            let nr = rfac.nrows();
            let ycol = y.col_mut(0);
            for i in (0..nr).rev() {
                if rfac[(i, i)].abs().to_f64() < floor {
                    ycol[i] = S::zero();
                    continue;
                }
                let mut acc = ycol[i];
                for jj in i + 1..nr {
                    acc -= rfac[(i, jj)] * ycol[jj];
                }
                ycol[i] = acc / rfac[(i, i)];
            }
        }
        // Update: x += D·y; store the new error approximation pair.
        let znew = blas::matmul(&dmat, blas::Op::None, &y, blas::Op::None);
        let aznew = blas::matmul(&gmat, blas::Op::None, &y, blas::Op::None);
        x.axpy(S::one(), &znew);
        bufs.ws.put(r);
        r = mode.residual_ws(a, b, x, &mut bufs.ws);
        // Count the augmented directions as iterations (they are extra
        // minimization dimensions, matching PETSc's per-cycle work).
        let rel = r.col_norm(0).to_f64() / bnorms[0];
        for _ in 0..q {
            iters += 1;
            tracer.iteration(cycle, iters - 1, vec![rel], orth_name, None);
        }
        if q == k {
            aug.pop_front();
        }
        // Normalize the stored pair (the direction is what matters) so the
        // augmented least-squares matrix keeps O(1) columns as the residual
        // shrinks; drop degenerate pairs.
        let aznorm = aznew.fro_norm().to_f64();
        if aznorm > 1e-300 {
            let mut zsc = znew;
            let mut azsc = aznew;
            let inv = S::from_f64(1.0 / aznorm);
            zsc.scale(inv);
            azsc.scale(inv);
            aug.push_back((zsc, azsc));
        }
        tracer.span_end(restart_probe, SpanKind::Restart, cycle);
        cycle += 1;
        if rel <= opts.rtol {
            converged = true;
            break;
        }
    }

    bufs.ws.put(r);
    let rfin = mode.residual_ws(a, b, x, &mut bufs.ws);
    let final_relres = vec![rfin.col_norm(0).to_f64() / bnorms[0]];
    let converged = converged && final_relres[0] <= opts.rtol * 10.0;
    let history = tracer.finish(converged, &final_relres);
    SolveResult {
        iterations: iters,
        converged,
        history,
        final_relres,
    }
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
