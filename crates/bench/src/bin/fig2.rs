//! Fig. 2 — Poisson's equation, FGCRO-DR(30,10) vs FGMRES(30).
//!
//! Paper setting (§IV-B): 2-D Poisson, four successive right-hand sides
//! (ν = 0.1, 10, 0.001, 100), GAMG preconditioner with an inner GMRES
//! smoother (which makes the cycle nonlinear ⇒ flexible solvers), operator
//! and preconditioner assembled once (`same_system`). Two settings:
//!
//! * (a/b) robust: strength threshold 0.0, GMRES(3) smoother,
//! * (c/d) cheaper: higher threshold, GMRES(1) smoother.
//!
//! The paper ran 283M unknowns on 8,192 cores; this binary runs the same
//! algorithm on a laptop-scale grid — the comparison (recycling gains per
//! RHS, cumulative gain, convergence curves) is what the figure shows.

use kryst_bench::{compare, rule, time, Method, System};
use kryst_core::{PrecondSide, SolveOpts};
use kryst_dense::DMat;
use kryst_par::PrecondOp;
use kryst_pde::poisson::{paper_rhs_sequence, poisson2d};
use kryst_precond::{Amg, AmgOpts, Jacobi, SmootherKind};
use kryst_sparse::Csr;

/// The four right-hand sides of the paper's sequence on one operator and
/// preconditioner.
fn systems<'a>(nx: usize, a: &'a Csr<f64>, pc: &'a dyn PrecondOp<f64>) -> Vec<System<'a, f64>> {
    let b = |rhs| DMat::from_col_major(a.nrows(), 1, rhs);
    let rhss = paper_rhs_sequence::<f64>(nx, nx);
    rhss.into_iter()
        .map(|rhs| System { a, pc, b: b(rhs) })
        .collect()
}

fn run_setting(
    title: &str,
    tag: &str,
    nx: usize,
    threshold: f64,
    smoother_iters: usize,
    paper: [&str; 2],
) {
    rule();
    println!("{title}");
    rule();
    let prob = poisson2d::<f64>(nx, nx);
    let (amg, setup) = time(|| {
        Amg::new(
            &prob.a,
            prob.near_nullspace.as_ref(),
            &AmgOpts {
                threshold,
                smoother: SmootherKind::Gmres {
                    iters: smoother_iters,
                },
                ..Default::default()
            },
        )
    });
    println!(
        "n = {}, AMG setup {setup:.3}s, {} levels, operator complexity {:.2}",
        prob.a.nrows(),
        amg.nlevels(),
        amg.operator_complexity()
    );
    let opts = SolveOpts {
        rtol: 1e-8,
        restart: 30,
        recycle: 10,
        side: PrecondSide::Flexible,
        same_system: true,
        ..Default::default()
    };
    let (fgmres, fgcrodr) = (format!("{tag}_fgmres"), format!("{tag}_fgcrodr"));
    compare(
        "RHS",
        &systems(nx, &prob.a, &amg),
        &opts,
        [
            ("FGMRES(30)", Method::Gmres, &fgmres),
            (
                "FGCRO-DR(30,10), -hpddm_recycle_same_system",
                Method::GcroDr,
                &fgcrodr,
            ),
        ],
        paper,
    );
}

/// The artifact-description smoke test regime: a weak (Jacobi)
/// preconditioner, where the preconditioned spectrum retains the slow
/// modes recycling deflates — the regime of the artifact's expected output
/// (288 GMRES vs 147 GCRO-DR iterations).
fn run_relaxed(nx: usize) {
    rule();
    println!("Artifact smoke-test regime — relaxed (Jacobi) preconditioner, rtol 1e-6");
    rule();
    let prob = poisson2d::<f64>(nx, nx);
    let jac = Jacobi::new(&prob.a, 1.0);
    let opts = SolveOpts {
        rtol: 1e-6,
        restart: 30,
        recycle: 10,
        same_system: true,
        max_iters: 20000,
        ..Default::default()
    };
    compare(
        "RHS",
        &systems(nx, &prob.a, &jac),
        &opts,
        [
            ("GMRES(30)", Method::Gmres, "fig2_relaxed_gmres"),
            (
                "GCRO-DR(30,10), -hpddm_recycle_same_system",
                Method::GcroDr,
                "fig2_relaxed_gcrodr",
            ),
        ],
        ["artifact: 288 vs 147", ""],
    );
}

fn main() {
    let nx = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(128);
    println!("Fig. 2 — Poisson, FGCRO-DR(30,10) vs FGMRES(30), grid {nx}×{nx}");
    run_setting(
        "Fig. 2a/2b — robust GAMG (threshold 0.0, GMRES(3) smoother)",
        "fig2_robust",
        nx,
        0.0,
        3,
        ["paper: 124 vs 90", "paper: +30.5%"],
    );
    run_setting(
        "Fig. 2c/2d — cheaper GAMG (threshold 0.08, GMRES(1) smoother)",
        "fig2_cheap",
        nx,
        0.08,
        1,
        ["paper: 172 vs 137", "paper: +18.5%"],
    );
    run_relaxed(nx / 2);
}
