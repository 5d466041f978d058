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

use kryst_bench::{compare, rule, time, Method, System};
use kryst_core::{PrecondSide, RecycleStrategy, SolveOpts};
use kryst_dense::DMat;
use kryst_pde::elasticity::paper_sequence;
use kryst_precond::{Amg, AmgOpts, Jacobi, SmootherKind};

fn main() {
    let ne = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(10);
    println!("Fig. 3 — linear elasticity, 4 varying systems, ne = {ne}");
    let seq = paper_sequence::<f64>(ne);
    let n = seq[0].problem.a.nrows();
    println!("n = {n} dofs, 6 rigid-body near-nullspace vectors");
    let rhs = |i: usize| DMat::from_col_major(n, 1, seq[i].rhs.clone());

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
    // One hierarchy per system, shared by both series.
    let (amgs, setups): (Vec<Amg<f64>>, Vec<f64>) = seq
        .iter()
        .map(|sys| {
            time(|| {
                Amg::new(
                    &sys.problem.a,
                    sys.problem.near_nullspace.as_ref(),
                    &amg_opts,
                )
            })
        })
        .unzip();
    let setups: Vec<String> = setups.iter().map(|s| format!("{s:.3}s")).collect();
    println!("AMG setup per system: {}", setups.join(", "));
    let systems: Vec<_> = (0..seq.len())
        .map(|i| System {
            a: &seq[i].problem.a,
            pc: &amgs[i],
            b: rhs(i),
        })
        .collect();
    compare(
        "sys",
        &systems,
        &flex_opts,
        [
            ("FGMRES(30)", Method::Gmres, "fig3_fgmres"),
            (
                "FGCRO-DR(30,10), recycle strategy A",
                Method::GcroDr,
                "fig3_fgcrodr",
            ),
        ],
        ["paper: 235 vs 189", "paper: +36.0%"],
    );

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
    let jacobis: Vec<Jacobi<f64>> = seq
        .iter()
        .map(|sys| Jacobi::new(&sys.problem.a, 1.0))
        .collect();
    let systems: Vec<_> = (0..seq.len())
        .map(|i| System {
            a: &seq[i].problem.a,
            pc: &jacobis[i],
            b: rhs(i),
        })
        .collect();
    compare(
        "sys",
        &systems,
        &right_opts,
        [
            ("LGMRES(30,10)", Method::Lgmres, "fig3_lgmres"),
            ("GCRO-DR(30,10)", Method::GcroDr, "fig3_gcrodr"),
        ],
        ["paper: 269 vs 173", "paper: +15.1%"],
    );
}
