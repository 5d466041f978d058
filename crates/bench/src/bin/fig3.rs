//! Fig. 3 — 3-D linear elasticity, four *varying* systems.
//!
//! Paper setting (§IV-C): Q1 elasticity on the unit cube, four systems with
//! a moving spherical inclusion, GAMG with the 6 rigid-body modes.
//!
//! * (a/b): CG(4) smoother ⇒ nonlinear cycles ⇒ **FGCRO-DR vs FGMRES**
//!   (+36.0% cumulative in the paper),
//! * (c/d): Chebyshev smoother ⇒ linear cycles ⇒ **GCRO-DR vs LGMRES**,
//!   right preconditioning (269 vs 173 iterations in the paper). Here a
//!   linear point-Jacobi preconditioner stands in for the Chebyshev-smoothed
//!   hierarchy, to reach the paper's restart-dominated regime at laptop
//!   scale (see the comment at that section).
//!
//! Because the operator changes between systems, GCRO-DR runs the full
//! refresh path (Fig. 1 lines 3–7 and 31–38) — the generalized eigenproblem
//! with strategy A, as the artifact's command lines do.

use kryst_bench::{print_curve, rhs_row, rule, time, traced_opts};
use kryst_core::{gcrodr, gmres, lgmres, PrecondSide, RecycleStrategy, SolveOpts, SolverContext};
use kryst_dense::DMat;
use kryst_pde::elasticity::paper_sequence;
use kryst_precond::{Amg, AmgOpts, SmootherKind};

fn main() {
    let ne = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(10);
    println!("Fig. 3 — linear elasticity, 4 varying systems, ne = {ne}");
    let systems = paper_sequence::<f64>(ne);
    let n = systems[0].problem.a.nrows();
    println!("n = {n} dofs, 6 rigid-body near-nullspace vectors");

    // ---- (a/b): flexible preconditioning, CG(4) smoother. ----------------
    rule();
    println!("Fig. 3a/3b — FGCRO-DR(30,10) vs FGMRES(30), CG(4) smoother");
    rule();
    let flex_opts = SolveOpts {
        rtol: 1e-8,
        restart: 30,
        recycle: 10,
        side: PrecondSide::Flexible,
        recycle_strategy: RecycleStrategy::A,
        same_system: false,
        ..Default::default()
    };
    let amg_opts = AmgOpts {
        smoother: SmootherKind::Cg { iters: 4 },
        ..Default::default()
    };

    let fg_opts = traced_opts(&flex_opts, "fig3_fgmres");
    let mut fg_times = Vec::new();
    let mut fg_iters = 0;
    let mut fg_hist = Vec::new();
    println!("\nFGMRES(30):");
    println!(
        "{:>4} {:>8} {:>12} {:>10}",
        "sys", "iters", "seconds", "gain"
    );
    for (i, sys) in systems.iter().enumerate() {
        let (amg, setup) = time(|| {
            Amg::new(
                &sys.problem.a,
                sys.problem.near_nullspace.as_ref(),
                &amg_opts,
            )
        });
        let b = DMat::from_col_major(n, 1, sys.rhs.clone());
        let mut x = DMat::zeros(n, 1);
        let (res, secs) = time(|| gmres::solve(&sys.problem.a, &amg, &b, &mut x, &fg_opts));
        assert!(res.converged, "FGMRES failed on system {i}");
        rhs_row(i + 1, res.iterations, secs, None);
        println!("     (AMG setup {setup:.3}s)");
        fg_times.push(secs);
        fg_iters += res.iterations;
        fg_hist.extend(res.history);
    }

    let gc_opts = traced_opts(&flex_opts, "fig3_fgcrodr");
    let mut ctx = SolverContext::new();
    let mut gc_times = Vec::new();
    let mut gc_iters = 0;
    let mut gc_hist = Vec::new();
    println!("\nFGCRO-DR(30,10), recycle strategy A:");
    println!(
        "{:>4} {:>8} {:>12} {:>10}",
        "sys", "iters", "seconds", "gain"
    );
    for (i, sys) in systems.iter().enumerate() {
        let amg = Amg::new(
            &sys.problem.a,
            sys.problem.near_nullspace.as_ref(),
            &amg_opts,
        );
        let b = DMat::from_col_major(n, 1, sys.rhs.clone());
        let mut x = DMat::zeros(n, 1);
        let (res, secs) =
            time(|| gcrodr::solve(&sys.problem.a, &amg, &b, &mut x, &gc_opts, &mut ctx));
        assert!(res.converged, "FGCRO-DR failed on system {i}");
        rhs_row(i + 1, res.iterations, secs, Some(fg_times[i]));
        gc_times.push(secs);
        gc_iters += res.iterations;
        gc_hist.extend(res.history);
    }
    let cum_fg: f64 = fg_times.iter().sum();
    let cum_gc: f64 = gc_times.iter().sum();
    println!("\ntotal iterations: FGMRES {fg_iters}, FGCRO-DR {gc_iters} (paper: 235 vs 189)");
    println!(
        "cumulative gain {:+.1}% (paper: +36.0%)",
        (cum_fg / cum_gc - 1.0) * 100.0
    );
    print_curve("FGMRES", &fg_hist);
    print_curve("FGCRO-DR", &gc_hist);

    // ---- (c/d): right preconditioning, point Jacobi. ----------------------
    rule();
    println!("Fig. 3c/3d — GCRO-DR(30,10) vs LGMRES(30,10), right preconditioning");
    rule();
    let right_opts = SolveOpts {
        rtol: 1e-8,
        restart: 30,
        recycle: 10,
        side: PrecondSide::Right,
        recycle_strategy: RecycleStrategy::A,
        same_system: false,
        max_iters: 20000,
        ..Default::default()
    };
    // At laptop scale the AMG hierarchy converges in well under one restart
    // and neither augmentation nor recycling has anything to accelerate
    // (see EXPERIMENTS.md); the paper's 8,000-core runs operate in the
    // restart-dominated regime, which a linear point-Jacobi preconditioner
    // reproduces here — LGMRES and GCRO-DR see the identical operator, so
    // the methods comparison (269 vs 173 iterations) is preserved.
    println!("(linear preconditioner: point Jacobi — restart-dominated regime)");

    let lg_opts = traced_opts(&right_opts, "fig3_lgmres");
    let mut lg_times = Vec::new();
    let mut lg_iters = 0;
    println!("\nLGMRES(30,10):");
    println!(
        "{:>4} {:>8} {:>12} {:>10}",
        "sys", "iters", "seconds", "gain"
    );
    for (i, sys) in systems.iter().enumerate() {
        let jac = kryst_precond::Jacobi::new(&sys.problem.a, 1.0);
        let b = DMat::from_col_major(n, 1, sys.rhs.clone());
        let mut x = DMat::zeros(n, 1);
        let (res, secs) = time(|| lgmres::solve(&sys.problem.a, &jac, &b, &mut x, &lg_opts));
        assert!(res.converged, "LGMRES failed on system {i}");
        rhs_row(i + 1, res.iterations, secs, None);
        lg_times.push(secs);
        lg_iters += res.iterations;
    }

    let gr_opts = traced_opts(&right_opts, "fig3_gcrodr");
    let mut ctx2 = SolverContext::new();
    let mut gr_iters = 0;
    let mut gr_times = Vec::new();
    println!("\nGCRO-DR(30,10):");
    println!(
        "{:>4} {:>8} {:>12} {:>10}",
        "sys", "iters", "seconds", "gain"
    );
    for (i, sys) in systems.iter().enumerate() {
        let jac = kryst_precond::Jacobi::new(&sys.problem.a, 1.0);
        let b = DMat::from_col_major(n, 1, sys.rhs.clone());
        let mut x = DMat::zeros(n, 1);
        let (res, secs) =
            time(|| gcrodr::solve(&sys.problem.a, &jac, &b, &mut x, &gr_opts, &mut ctx2));
        assert!(res.converged, "GCRO-DR failed on system {i}");
        rhs_row(i + 1, res.iterations, secs, Some(lg_times[i]));
        gr_times.push(secs);
        gr_iters += res.iterations;
    }
    let cum_lg: f64 = lg_times.iter().sum();
    let cum_gr: f64 = gr_times.iter().sum();
    println!("\ntotal iterations: LGMRES {lg_iters}, GCRO-DR {gr_iters} (paper: 269 vs 173)");
    println!(
        "cumulative gain {:+.1}% (paper: +15.1%)",
        (cum_lg / cum_gr - 1.0) * 100.0
    );
}
