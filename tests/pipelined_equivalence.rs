//! Pipelined-path acceptance: iteration equivalence, fallback safety, and
//! the modeled latency win at scale.
//!
//! The depth-1 pipelined path ([`OrthPath::Pipelined`])
//! reconstructs the next operator image from the fused coefficients instead
//! of waiting on the Gram reduction. It is *not* bit-identical to the fused
//! path — the recurrence reassociates floating-point work — so its contract
//! is behavioral:
//!
//! * **+10 % iterations at most** vs the fused path on the golden problems
//!   (the fig. 7 convection–diffusion operator and the laplace-1D GCRO-DR
//!   sequence) at block widths p ∈ {1, 4, 8},
//! * the depth-1 lag **falls back** to a synchronous re-prime whenever the
//!   PR-3 orthogonality budget trips or the block loses rank — breakdowns
//!   never corrupt the basis,
//! * the comm ledger shows the point of the exercise: overlapped reductions
//!   replace synchronous ones, and the modeled *exposed* reduction time at
//!   P = 8192 drops ≥ 1.5× vs fused once the hiding flops are extrapolated
//!   to a paper-scale problem (reduction counts per iteration are
//!   size-independent; the compute that hides them is not).

use kryst_core::cycle::{BlockArnoldi, PrecondMode};
use kryst_core::{gcrodr, gmres, OrthPath, OrthScheme, PrecondSide, SolveOpts, SolverContext};
use kryst_dense::{blas, DMat};
use kryst_par::{CommSnapshot, CommStats, CostModel, DistOp, IdentityPrecond};
use kryst_rt::rng::Rng64;
use kryst_sparse::{Coo, Csr};

const RANKS: [usize; 5] = [512, 1024, 2048, 4096, 8192];
const WIDTHS: [usize; 3] = [1, 4, 8];

/// Fig. 7-style convection–diffusion (same operator as `comm_model.rs`).
fn convdiff2d(nx: usize, eps: f64, bx: f64, by: f64) -> Csr<f64> {
    let n = nx * nx;
    let h = 1.0 / (nx as f64 + 1.0);
    let mut c = Coo::new(n, n);
    let idx = |i: usize, j: usize| i * nx + j;
    for i in 0..nx {
        for j in 0..nx {
            let row = idx(i, j);
            c.push(row, row, 4.0 * eps / (h * h) + (bx.abs() + by.abs()) / h);
            if i > 0 {
                c.push(row, idx(i - 1, j), -eps / (h * h) - bx.max(0.0) / h);
            }
            if i + 1 < nx {
                c.push(row, idx(i + 1, j), -eps / (h * h) + bx.min(0.0) / h);
            }
            if j > 0 {
                c.push(row, idx(i, j - 1), -eps / (h * h) - by.max(0.0) / h);
            }
            if j + 1 < nx {
                c.push(row, idx(i, j + 1), -eps / (h * h) + by.min(0.0) / h);
            }
        }
    }
    c.to_csr()
}

fn laplace1d(n: usize) -> Csr<f64> {
    let mut c = Coo::new(n, n);
    for i in 0..n {
        c.push(i, i, 2.0);
        if i > 0 {
            c.push(i, i - 1, -1.0);
        }
        if i + 1 < n {
            c.push(i, i + 1, -1.0);
        }
    }
    c.to_csr()
}

/// The +10 % budget, rounded up so small counts get at least one spare
/// iteration of slack.
fn budget(fused_iters: usize) -> usize {
    fused_iters + fused_iters.div_ceil(10)
}

#[test]
fn pipelined_gmres_within_ten_percent_of_fused_on_convdiff32() {
    let a = convdiff2d(32, 0.001, 1.0, 0.3);
    let n = a.nrows();
    let id = IdentityPrecond::new(n);
    for p in WIDTHS {
        let b = DMat::from_fn(n, p, |i, j| (((i + 7 * j) % 13) as f64) - 6.0);
        let run = |path: OrthPath| {
            let stats = CommStats::new_shared();
            let opts = SolveOpts {
                rtol: 1e-8,
                restart: 30,
                max_iters: 1000,
                ortho: path,
                stats: Some(stats.clone()),
                ..Default::default()
            };
            let mut x = DMat::zeros(n, p);
            let res = gmres::solve(&a, &id, &b, &mut x, &opts);
            assert!(res.converged, "{path:?} p = {p} did not converge");
            (res.iterations, stats.snapshot())
        };
        let (fi, fsnap) = run(OrthPath::Fused);
        let (pi, psnap) = run(OrthPath::Pipelined);
        eprintln!(
            "gmres30 convdiff32 p={p}: fused {fi} iters ({} sync reds), \
             pipelined {pi} iters ({} sync + {} overlapped reds)",
            fsnap.reductions, psnap.reductions, psnap.overlapped_reductions
        );
        assert!(
            pi <= budget(fi),
            "p = {p}: pipelined took {pi} iterations, fused {fi} (+10 % budget {})",
            budget(fi)
        );
        // The ledger must show the trade: lagged Gram reductions move to the
        // overlapped counter; the default fused path stays fully synchronous.
        assert!(
            psnap.overlapped_reductions > 0,
            "p = {p}: nothing overlapped"
        );
        assert_eq!(
            fsnap.overlapped_reductions, 0,
            "fused path must not overlap"
        );
        assert!(
            psnap.reductions < fsnap.reductions,
            "p = {p}: pipelined sync reductions {} not below fused {}",
            psnap.reductions,
            fsnap.reductions
        );
    }
}

#[test]
fn pipelined_gcrodr_within_ten_percent_of_fused_on_laplace400() {
    // The golden-trace sequence: cold solve plus a warm recycled solve. The
    // recycle block exercises the pipelined C-projection recurrence
    // (`E_{j+1} = (Cᴴû − E·Sᵥ)·R⁻¹`) on the warm solve.
    let n = 400;
    let a = laplace1d(n);
    let id = IdentityPrecond::new(n);
    for p in WIDTHS {
        let mut rng = Rng64::seed_from_u64(42);
        let b = DMat::from_fn(n, p, |_, _| rng.gen_range(-1.0, 1.0));
        let mut rng2 = Rng64::seed_from_u64(43);
        let b2 = DMat::from_fn(n, p, |_, _| rng2.gen_range(-1.0, 1.0));
        let run = |path: OrthPath| {
            let stats = CommStats::new_shared();
            let opts = SolveOpts {
                rtol: 1e-8,
                restart: 30,
                recycle: 10,
                max_iters: 5000,
                ortho: path,
                stats: Some(stats.clone()),
                ..Default::default()
            };
            let mut ctx = SolverContext::new();
            let mut x = DMat::zeros(n, p);
            let r1 = gcrodr::solve(&a, &id, &b, &mut x, &opts, &mut ctx);
            let mut x2 = DMat::zeros(n, p);
            let r2 = gcrodr::solve(&a, &id, &b2, &mut x2, &opts, &mut ctx);
            assert!(r1.converged && r2.converged, "{path:?} p = {p}");
            (r1.iterations + r2.iterations, stats.snapshot())
        };
        let (fi, fsnap) = run(OrthPath::Fused);
        let (pi, psnap) = run(OrthPath::Pipelined);
        eprintln!(
            "gcrodr30_10 laplace400 p={p} (cold+warm): fused {fi} iters \
             ({} sync reds), pipelined {pi} iters ({} sync + {} overlapped)",
            fsnap.reductions, psnap.reductions, psnap.overlapped_reductions
        );
        assert!(
            pi <= budget(fi),
            "p = {p}: pipelined took {pi} iterations, fused {fi} (+10 % budget {})",
            budget(fi)
        );
        assert!(
            psnap.overlapped_reductions > 0,
            "p = {p}: nothing overlapped"
        );
        assert!(
            psnap.reductions < fsnap.reductions,
            "p = {p}: pipelined sync reductions {} not below fused {}",
            psnap.reductions,
            fsnap.reductions
        );
    }
}

#[test]
fn depth1_lag_falls_back_on_rank_deficiency_and_keeps_basis_orthonormal() {
    // Rank-1 operator with a width-2 block: every step's image is exactly
    // rank deficient, so the rank-revealing refresh fires with the depth-1
    // lag armed. The recurrence must be abandoned (counted as a fallback) —
    // a refresh rewrites the block outside the recorded coefficients, so a
    // trusted reconstruction would corrupt the basis — and the breakdown
    // fixup's replacement columns must keep the basis orthonormal.
    let n = 16;
    let mut c = Coo::new(n, n);
    for i in 0..n {
        for j in 0..n {
            // A = u·wᵀ (outer product): exactly rank 1.
            c.push(
                i,
                j,
                (1.0 + 0.1 * (i % 3) as f64) * (1.0 + 0.05 * (j % 4) as f64),
            );
        }
    }
    let a = c.to_csr();
    let id = IdentityPrecond::new(n);
    let mode = PrecondMode::new(&id, PrecondSide::Right);
    let (m, p) = (3, 2);
    let mut arn = BlockArnoldi::new(&a, &mode, m, p, OrthScheme::CholQr, None, None)
        .with_path(OrthPath::Pipelined);
    let r0 = DMat::from_fn(n, p, |i, j| (((i * 7 + j * 5) % 11) as f64) - 5.0);
    arn.start(&r0);
    arn.step();
    assert!(
        arn.last_step_rank < p,
        "a rank-1 operator image must lose block rank"
    );
    assert_eq!(
        arn.pipeline_fallbacks(),
        1,
        "budget-tripped lagged step must be counted as a fallback \
         (overlapped {})",
        arn.pipeline_overlapped_steps()
    );
    assert_eq!(arn.pipeline_overlapped_steps(), 0);
    // The refresh's replacement columns keep the whole active basis
    // orthonormal — the invariant every later fused downdate relies on.
    let v = arn
        .into_buffers()
        .basis(1)
        .iter()
        .fold(DMat::zeros(n, 0), |acc, block| acc.hcat(block));
    let g = blas::adjoint_times(&v, &v);
    for i in 0..g.nrows() {
        for j in 0..g.ncols() {
            let want = if i == j { 1.0 } else { 0.0 };
            assert!(
                (g[(i, j)] - want).abs() < 1e-8,
                "basis lost orthonormality after the fallback: G[({i},{j})] = {}",
                g[(i, j)]
            );
        }
    }
}

#[test]
fn pipelined_survives_exact_breakdown_inside_the_solver() {
    // Minimal polynomial of degree 3: GMRES converges in 3 iterations and
    // the cycle hits exact breakdown with the lag still armed. The solver
    // must converge to the same iteration count as the fused path, for
    // several right-hand sides.
    let n = 60;
    let mut c = Coo::new(n, n);
    for i in 0..n {
        c.push(i, i, [1.0, 2.0, 5.0][i % 3]);
    }
    let a = c.to_csr();
    let id = IdentityPrecond::new(n);
    for seed in 0..5u64 {
        let mut rng = Rng64::seed_from_u64(100 + seed);
        let b = DMat::from_fn(n, 1, |_, _| rng.gen_range(-1.0, 1.0));
        let run = |path: OrthPath| {
            let opts = SolveOpts {
                rtol: 1e-10,
                restart: 30,
                max_iters: 100,
                ortho: path,
                ..Default::default()
            };
            let mut x = DMat::zeros(n, 1);
            let res = gmres::solve(&a, &id, &b, &mut x, &opts);
            assert!(res.converged, "{path:?} seed {seed}");
            res.iterations
        };
        assert_eq!(
            run(OrthPath::Pipelined),
            run(OrthPath::Fused),
            "seed {seed}: breakdown handling changed the trajectory"
        );
    }
}

#[test]
fn pipelined_cuts_modeled_exposed_reduction_1p5x_at_8192_ranks() {
    // The acceptance claim of the latency-hiding path, reproduced exactly as
    // `kryst_prof` models it: run the real solves, capture the ledgers, then
    // extrapolate the *local work* counters to a paper-scale problem
    // (N = 1e8; per-iteration reduction counts do not change with problem
    // size, the flops available to hide them do) and charge the α–β–γ model.
    // The pipelined path must cut the exposed reduction time ≥ 1.5× vs fused
    // at P = 8192, and the advantage must not invert at smaller P.
    const PAPER_N: usize = 100_000_000;
    const DEMO_RANKS: usize = 8;
    let a = convdiff2d(32, 0.001, 1.0, 0.3);
    let n = a.nrows();
    let id = IdentityPrecond::new(n);
    let b = DMat::from_fn(n, 1, |i, _| ((i % 7) as f64) - 3.0);
    let run = |path: OrthPath| {
        let stats = CommStats::new_shared();
        // The distributed operator records the flop/halo counters — the
        // lagged apply's flops are what the pipelined ledger credits as
        // reduction-hiding work.
        let op = DistOp::new(a.clone(), DEMO_RANKS, stats.clone());
        let opts = SolveOpts {
            rtol: 1e-8,
            restart: 30,
            max_iters: 1000,
            ortho: path,
            stats: Some(stats.clone()),
            ..Default::default()
        };
        let mut x = DMat::zeros(n, 1);
        let res = gmres::solve(&op, &id, &b, &mut x, &opts);
        assert!(res.converged, "{path:?}");
        (res.iterations, stats.snapshot())
    };
    let (fi, fsnap) = run(OrthPath::Fused);
    let (pi, psnap) = run(OrthPath::Pipelined);

    let scale = (PAPER_N / n).max(1) as u64;
    let scaled = |s: &CommSnapshot| CommSnapshot {
        flops: s.flops.saturating_mul(scale),
        overlap_flops: s.overlap_flops.saturating_mul(scale),
        reduction_overlap_flops: s.reduction_overlap_flops.saturating_mul(scale),
        ..*s
    };
    let m = CostModel::curie_like();
    for p in RANKS {
        let tf = m.time(&scaled(&fsnap), p).reduction / fi as f64;
        let tp = m.time(&scaled(&psnap), p).reduction / pi as f64;
        let cut = tf / tp;
        eprintln!("P={p}: fused {tf:.3e} s/iter exposed, pipelined {tp:.3e} s/iter, cut {cut:.2}x");
        assert!(cut >= 1.0, "P = {p}: pipelined modeled slower ({cut:.3})");
        if p == 8192 {
            assert!(
                cut >= 1.5,
                "P = 8192: exposed-reduction cut {cut:.3} < 1.5 \
                 (fused {} sync reds, pipelined {} sync + {} overlapped, \
                 overlap flops {})",
                fsnap.reductions,
                psnap.reductions,
                psnap.overlapped_reductions,
                psnap.reduction_overlap_flops
            );
        }
    }
}
