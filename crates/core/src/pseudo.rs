//! Pseudo-block methods: fuse `p` independent single-RHS solves.
//!
//! The paper (§V-B1, after Langou / Belos): pseudo-block methods keep one
//! Krylov process *per right-hand side* (no block coupling, no breakdown
//! concerns) but **fuse the kernel invocations** — the `p` sparse
//! matrix–vector products of an iteration become one sparse matrix–block
//! product, and the `p` dot-product rounds become one fused reduction —
//! trading synchronization count for message volume.
//!
//! Implementation: each right-hand side is one lane of width 1 of the
//! restarted solve (the crate's `restart` module) under the policy of its
//! single-RHS method — plain GMRES, or GCRO-DR over its own recycle space.
//! The lanes step in lock-step on the caller's thread: one preconditioner
//! and one operator apply over the columns of every lane that steps, and
//! each lane does exactly the arithmetic of its single-RHS solve. Lanes
//! that converge leave, shrinking the batch — the fused execution model
//! whose efficiency Fig. 6 / §V-B2 measures.

use crate::gcrodr::{Deflation, SolverContext};
use crate::gmres::Plain;
use crate::opts::{SolveOpts, SolveResult};
use crate::restart::{self, Augmentation, Lane};
use kryst_dense::DMat;
use kryst_par::{LinOp, PrecondOp};
use kryst_scalar::Scalar;

/// Which single-RHS method the pseudo-block driver fuses.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum PseudoMethod {
    /// Pseudo-block GMRES.
    Gmres,
    /// Pseudo-block GCRO-DR.
    GcroDr,
}

/// Result of a pseudo-block solve.
#[derive(Debug)]
pub struct PseudoResult {
    /// Per-RHS solve results (individual convergence histories).
    pub per_rhs: Vec<SolveResult>,
    /// Fused iteration count: the maximum over the right-hand sides.
    pub iterations: usize,
    /// All right-hand sides converged.
    pub converged: bool,
}

/// Pseudo-block solve of `A·X = B`: `p` fused single-RHS instances.
///
/// `ctxs` supplies one persistent [`SolverContext`] per right-hand side for
/// GCRO-DR recycling across a sequence of calls (ignored for GMRES).
pub fn solve<S: Scalar>(
    a: &dyn LinOp<S>,
    pc: &dyn PrecondOp<S>,
    b: &DMat<S>,
    x: &mut DMat<S>,
    opts: &SolveOpts,
    method: PseudoMethod,
    ctxs: Option<&mut Vec<SolverContext<S>>>,
) -> PseudoResult {
    let p = b.ncols();
    assert_eq!(x.ncols(), p);
    // Per-lane contexts (fresh ones when none are supplied).
    let mut fresh = Vec::new();
    let ctxs = ctxs.unwrap_or(&mut fresh);
    if ctxs.len() < p {
        ctxs.resize_with(p, SolverContext::new);
    }
    let (mut plain, mut deflation) = (Vec::new(), Vec::new());
    let (name, policies): (_, Vec<&mut dyn Augmentation<S>>) = match method {
        PseudoMethod::Gmres => {
            plain.resize_with(p, || Plain::new(opts));
            ("pseudo-gmres", plain.iter_mut().map(|g| g as _).collect())
        }
        PseudoMethod::GcroDr => {
            let n = a.nrows();
            let from = |ctx| Deflation::from_context(ctx, n, opts);
            deflation.extend(ctxs[..p].iter_mut().map(from));
            (
                "pseudo-gcrodr",
                deflation.iter_mut().map(|d| d as _).collect(),
            )
        }
    };
    let bs: Vec<DMat<S>> = (0..p).map(|l| b.cols(l, 1)).collect();
    let mut xs: Vec<DMat<S>> = (0..p).map(|l| x.cols(l, 1)).collect();
    let lanes = (bs.iter().zip(&mut xs).zip(policies))
        .map(|((b, x), policy)| Lane { b, x, policy })
        .collect();
    let per_rhs = restart::solve_lanes(a, pc, opts, (name, 0), lanes);
    for (l, xl) in xs.iter().enumerate() {
        x.col_mut(l).copy_from_slice(xl.as_slice());
    }
    for (d, ctx) in deflation.into_iter().zip(ctxs.iter_mut()) {
        d.into_context(ctx);
    }
    PseudoResult {
        iterations: per_rhs.iter().map(|r| r.iterations).max().unwrap_or(0),
        converged: per_rhs.iter().all(|r| r.converged),
        per_rhs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gcrodr;
    use kryst_par::IdentityPrecond;
    use kryst_pde::poisson::{paper_rhs_block, poisson2d};
    use kryst_sparse::Csr;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn check_true_residual(a: &Csr<f64>, b: &DMat<f64>, x: &DMat<f64>, rtol: f64) {
        let mut r = a.apply(x);
        r.axpy(-1.0, b);
        for l in 0..b.ncols() {
            let rel = r.col_norm(l) / b.col_norm(l);
            assert!(rel <= rtol * 50.0, "column {l}: {rel}");
        }
    }

    fn bits(m: &DMat<f64>) -> Vec<u64> {
        m.as_slice().iter().map(|v| v.to_bits()).collect()
    }

    /// Each lane does the arithmetic of its single-RHS solve: per RHS the
    /// same iteration count and the same bits of `x`, for GMRES and for
    /// GCRO-DR over two successive solves with one context per RHS.
    #[test]
    fn pseudo_gmres_matches_sequential_iteration_counts() {
        let prob = poisson2d::<f64>(12, 12);
        let n = prob.a.nrows();
        let id = IdentityPrecond::new(n);
        let b = paper_rhs_block::<f64>(12, 12);
        let opts = SolveOpts {
            rtol: 1e-8,
            restart: 20,
            ..Default::default()
        };
        let mut xp = DMat::zeros(n, 4);
        let pres = solve(&prob.a, &id, &b, &mut xp, &opts, PseudoMethod::Gmres, None);
        assert!(pres.converged);
        check_true_residual(&prob.a, &b, &xp, 1e-8);
        // Sequential single-RHS solves must see identical iteration counts —
        // the fusion changes scheduling, not numerics.
        for l in 0..4 {
            let bl = DMat::from_col_major(n, 1, b.col(l).to_vec());
            let mut xl = DMat::zeros(n, 1);
            let r = crate::gmres::solve(&prob.a, &id, &bl, &mut xl, &opts);
            assert_eq!(
                r.iterations, pres.per_rhs[l].iterations,
                "RHS {l}: fused {} vs sequential {}",
                pres.per_rhs[l].iterations, r.iterations
            );
            assert_eq!(bits(&xl), bits(&xp.cols(l, 1)), "RHS {l}");
        }
        // The second system changes the right-hand sides, so the recycle
        // spaces are refreshed (`same_system` is off).
        let opts = SolveOpts {
            restart: 15,
            recycle: 5,
            ..opts
        };
        let (mut ctxs, mut seq) = (Vec::new(), Vec::new());
        seq.resize_with(4, SolverContext::new);
        let b2 = DMat::from_fn(n, 4, |i, l| b[(i, l)] + ((i * (l + 1)) % 3) as f64);
        for b in [b, b2] {
            let mut xp = DMat::zeros(n, 4);
            let ctx = Some(&mut ctxs);
            let pres = solve(&prob.a, &id, &b, &mut xp, &opts, PseudoMethod::GcroDr, ctx);
            assert!(pres.converged);
            for (l, ctx) in seq.iter_mut().enumerate() {
                let mut xl = DMat::zeros(n, 1);
                let r = gcrodr::solve(&prob.a, &id, &b.cols(l, 1), &mut xl, &opts, ctx);
                assert_eq!(r.iterations, pres.per_rhs[l].iterations, "RHS {l}");
                assert_eq!(bits(&xl), bits(&xp.cols(l, 1)), "RHS {l}");
            }
        }
    }

    #[test]
    fn pseudo_gcrodr_recycles_per_rhs() {
        let prob = poisson2d::<f64>(14, 14);
        let n = prob.a.nrows();
        let id = IdentityPrecond::new(n);
        let b = paper_rhs_block::<f64>(14, 14);
        let opts = SolveOpts {
            rtol: 1e-8,
            restart: 15,
            recycle: 5,
            same_system: true,
            ..Default::default()
        };
        let mut ctxs: Vec<SolverContext<f64>> = Vec::new();
        let mut x1 = DMat::zeros(n, 4);
        let r1 = solve(
            &prob.a,
            &id,
            &b,
            &mut x1,
            &opts,
            PseudoMethod::GcroDr,
            Some(&mut ctxs),
        );
        assert!(r1.converged);
        check_true_residual(&prob.a, &b, &x1, 1e-8);
        // Second solve of the same systems: recycling must cut iterations.
        let mut x2 = DMat::zeros(n, 4);
        let r2 = solve(
            &prob.a,
            &id,
            &b,
            &mut x2,
            &opts,
            PseudoMethod::GcroDr,
            Some(&mut ctxs),
        );
        assert!(r2.converged);
        check_true_residual(&prob.a, &b, &x2, 1e-8);
        assert!(
            r2.iterations < r1.iterations,
            "pseudo-BGCRO-DR recycling: {} !< {}",
            r2.iterations,
            r1.iterations
        );
    }

    #[test]
    fn early_convergence_shrinks_batch_without_deadlock() {
        let prob = poisson2d::<f64>(10, 10);
        let n = prob.a.nrows();
        let id = IdentityPrecond::new(n);
        // Column 0 trivial (zero RHS → converges immediately), column 1 hard.
        let mut b = DMat::zeros(n, 2);
        for i in 0..n {
            b[(i, 1)] = 1.0 + ((i * 3) % 7) as f64;
        }
        let opts = SolveOpts {
            rtol: 1e-9,
            restart: 10,
            ..Default::default()
        };
        let mut x = DMat::zeros(n, 2);
        let res = solve(&prob.a, &id, &b, &mut x, &opts, PseudoMethod::Gmres, None);
        assert!(res.converged);
        assert_eq!(res.per_rhs[0].iterations, 0);
        assert!(res.per_rhs[1].iterations > 0);
    }

    #[test]
    fn single_member_group_degenerates_gracefully() {
        let prob = poisson2d::<f64>(8, 8);
        let n = prob.a.nrows();
        let id = IdentityPrecond::new(n);
        let b = DMat::from_fn(n, 1, |i, _| (i % 3) as f64);
        let mut x = DMat::zeros(n, 1);
        let res = solve(
            &prob.a,
            &id,
            &b,
            &mut x,
            &SolveOpts::default(),
            PseudoMethod::Gmres,
            None,
        );
        assert!(res.converged);
    }

    /// An operator that panics on its `fail_at`-th (fused) apply.
    struct FailingOp {
        a: Csr<f64>,
        applies: AtomicUsize,
        fail_at: usize,
    }

    impl LinOp<f64> for FailingOp {
        fn nrows(&self) -> usize {
            self.a.nrows()
        }
        fn apply(&self, x: &DMat<f64>, y: &mut DMat<f64>) {
            // A count that publishes no other data.
            if self.applies.fetch_add(1, Ordering::Relaxed) + 1 == self.fail_at {
                panic!("operator failed on apply {}", self.fail_at);
            }
            self.a.spmm(x, y);
        }
    }

    /// The operator panics inside a batched apply: the solve unwinds to the
    /// caller with that panic.
    #[test]
    fn a_panicking_operator_reaches_the_caller() {
        let prob = poisson2d::<f64>(16, 16);
        let n = prob.a.nrows();
        let b = paper_rhs_block::<f64>(16, 16).cols(0, 3);
        let op = FailingOp {
            a: prob.a,
            applies: Default::default(),
            fail_at: 6,
        };
        let id = IdentityPrecond::new(n);
        let mut x = DMat::zeros(n, 3);
        let opts = SolveOpts::default();
        let res = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            solve(&op, &id, &b, &mut x, &opts, PseudoMethod::Gmres, None)
        }));
        let message = res.err().and_then(|e| e.downcast::<String>().ok());
        assert_eq!(
            message.as_deref().map(String::as_str),
            Some("operator failed on apply 6")
        );
    }
}
