//! kryst-prof — phase-attributed profile reports.
//!
//! Runs three solves with tracing enabled and prints, after each, the
//! paper-style per-phase breakdown: the iterations, the measured local wall
//! time per span kind (the phase table, `kryst_obs::aggregates()`) and the
//! α–β modeled reduction time at the paper's rank counts. The solves are
//! GMRES(30) and GCRO-DR(30,10) — a cold and a warm solve — under right
//! Jacobi on a 2-D convection–diffusion problem, and GMRES(30) under a
//! two-level AMG on Poisson (`gmres30_amg`). It writes no file, takes no
//! argument, and exits 1 when no phase was recorded.
//!
//! The binary also serves as the worker executable of socket
//! [`kryst_par::SpmdWorld`]s: a process spawned as a primitive worker never
//! reaches the solves.

use kryst_core::{gcrodr, gmres, SolveOpts, SolverContext};
use kryst_dense::DMat;
use kryst_obs::aggregates;
use kryst_par::{phase_report, CommStats, CostModel};
use kryst_pde::poisson::{convdiff2d, poisson2d};
use kryst_precond::{Amg, AmgOpts, Jacobi};
use kryst_rt::rng::Rng64;
use std::sync::Arc;

const RANKS: [usize; 5] = [512, 1024, 2048, 4096, 8192];

/// Print the phase table the solve just filled beside the modeled
/// reductions of its counters; whether any phase was recorded.
fn print_report(label: &str, stats: &CommStats, iterations: usize) -> bool {
    let rep = phase_report(
        label,
        &aggregates().snapshot(),
        &stats.snapshot(),
        &CostModel::curie_like(),
        &RANKS,
        iterations,
    );
    println!("{}", rep.to_text());
    !rep.measured.is_empty()
}

fn rhs(n: usize, seed: u64) -> DMat<f64> {
    let mut rng = Rng64::seed_from_u64(seed);
    DMat::from_fn(n, 1, |_, _| rng.gen_range(-1.0, 1.0))
}

/// GMRES(30) and GCRO-DR(30,10) under right Jacobi on convection–diffusion.
fn jacobi_demos() -> bool {
    let a = convdiff2d(32, 0.001, 1.0, 0.3);
    let n = a.nrows();
    let jacobi = Jacobi::new(&a, 1.0);
    let mut any_phase = false;
    for (label, recycle) in [("gmres30_jacobi", 0), ("gcrodr30_10_jacobi", 10)] {
        let stats = CommStats::new_shared();
        let opts = SolveOpts {
            rtol: 1e-8,
            restart: 30,
            recycle,
            max_iters: 5000,
            stats: Some(Arc::clone(&stats)),
            ..Default::default()
        };
        let b = rhs(n, 42);
        aggregates().reset();
        let iters = if recycle > 0 {
            // Cold solve + warm recycled solve on a second RHS, so the
            // profile includes both recycle-space setup and refresh.
            let b2 = rhs(n, 43);
            let mut ctx = SolverContext::new();
            let mut x = DMat::zeros(n, 1);
            let r1 = gcrodr::solve(&a, &jacobi, &b, &mut x, &opts, &mut ctx);
            let mut x2 = DMat::zeros(n, 1);
            let r2 = gcrodr::solve(&a, &jacobi, &b2, &mut x2, &opts, &mut ctx);
            assert!(r1.converged && r2.converged, "{label} did not converge");
            r1.iterations + r2.iterations
        } else {
            let mut x = DMat::zeros(n, 1);
            let r = gmres::solve(&a, &jacobi, &b, &mut x, &opts);
            assert!(r.converged, "{label} did not converge");
            r.iterations
        };
        any_phase |= print_report(label, &stats, iters);
    }
    any_phase
}

/// AMG-preconditioned solve on a Poisson operator with a deliberately
/// *large* coarse level (capped coarsening — the GAMG situation the paper's
/// coarse-solve discussion targets), so the coarse direct solve is a
/// visible row of the phase table.
fn amg_demo() -> bool {
    let nx = 180;
    let prob = poisson2d::<f64>(nx, nx);
    let n = prob.a.nrows();
    // The profile starts before the hierarchy is built: its `precond_setup`
    // row is this demo's set-up beside its solve.
    aggregates().reset();
    // Two-level hierarchy with a ~5.4k-row coarse level (capped coarsening)
    // and a damped-Jacobi smoother (unconditionally contractive — the
    // Chebyshev interval estimate is unreliable at this operator size).
    let amg = Amg::new(
        &prob.a,
        prob.near_nullspace.as_ref(),
        &AmgOpts {
            coarse_size: 5500,
            smoother: kryst_precond::SmootherKind::Jacobi {
                omega: 0.67,
                iters: 2,
            },
            ..Default::default()
        },
    );
    let stats = CommStats::new_shared();
    let opts = SolveOpts {
        rtol: 1e-8,
        restart: 30,
        max_iters: 2000,
        stats: Some(Arc::clone(&stats)),
        ..Default::default()
    };
    let b = rhs(n, 44);
    let mut x = DMat::zeros(n, 1);
    let r = gmres::solve(&prob.a, &amg, &b, &mut x, &opts);
    assert!(r.converged, "gmres30_amg did not converge");
    print_report("gmres30_amg", &stats, r.iterations)
}

fn main() {
    // This binary doubles as the worker executable of socket `SpmdWorld`s
    // (`tests/transport_equivalence.rs` borrows it): hand those invocations
    // to the primitive loop first.
    kryst_par::maybe_primitive_worker();
    kryst_obs::set_trace_enabled(true);
    // `|`, not `||`: every demo runs.
    if !(jacobi_demos() | amg_demo()) {
        eprintln!("kryst_prof: no phases recorded");
        std::process::exit(1);
    }
}
