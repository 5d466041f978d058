//! Fig. 7 — strong scaling of the Maxwell solver.
//!
//! Paper setting (§V-C): 119M complex unknowns, ORAS + full GMRES, 512 →
//! 4,096 subdomains; setup shrinks nearly ideally, iterations grow mildly
//! (54 → 94), overall speedup ≈ 6.9.
//!
//! Two parts here:
//!
//! 1. **measured** — the scaled-down chamber partitioned into 4…32
//!    subdomains, real wall times for setup (local factorizations) and
//!    solve;
//! 2. **modeled** — the instrumented communication counts (reductions per
//!    iteration, halo messages, flops) pushed through the α–β–γ cost model
//!    at the paper's rank counts (512…4,096), with the iteration growth
//!    extrapolated from the measured trend. This is the DESIGN.md
//!    substitution for the 8,192-core machine.

use kryst_bench::{maxwell_oras, rule, time, traced_opts};
use kryst_core::{gmres, PrecondSide, SolveOpts};
use kryst_dense::DMat;
use kryst_par::{CommStats, CostModel, DistOp, HaloPlan, Layout};
use kryst_pde::maxwell::{antenna_ring_rhs, MaxwellParams};
use kryst_scalar::C64;
use std::sync::Arc;

fn main() {
    let nc = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(14);
    println!("Fig. 7 — Maxwell strong scaling, nc = {nc}");
    let params = MaxwellParams::matching_solution(nc);

    rule();
    println!("(measured, laptop scale)");
    println!(
        "{:>6} {:>10} {:>10} {:>8} {:>9}",
        "N", "setup(s)", "solve(s)", "iters", "speedup"
    );
    let mut t_first = 0.0;
    let mut meas: Vec<(usize, usize)> = Vec::new();
    for nsub in [4usize, 8, 16, 32] {
        let setup = maxwell_oras(params, nsub, 2);
        let b = antenna_ring_rhs(&setup.geom, &params, 1, 0.3, 0.5);
        let opts = SolveOpts {
            rtol: 1e-8,
            restart: 400,
            max_iters: 400,
            side: PrecondSide::Right,
            ..Default::default()
        };
        let opts = traced_opts(&opts, &format!("fig7_gmres_n{nsub}"));
        let mut x = DMat::<C64>::zeros(setup.problem.a.nrows(), 1);
        let (res, tsolve) = time(|| gmres::solve(&setup.problem.a, &setup.oras, &b, &mut x, &opts));
        assert!(res.converged, "N = {nsub} did not converge");
        let total = setup.setup_seconds + tsolve;
        if nsub == 4 {
            t_first = total;
        }
        println!(
            "{nsub:>6} {:>10.3} {:>10.3} {:>8} {:>9.2}",
            setup.setup_seconds,
            tsolve,
            res.iterations,
            t_first / total
        );
        meas.push((nsub, res.iterations));
    }

    rule();
    println!("(modeled at the paper's rank counts, α–β–γ Curie-like model)");
    // One instrumented iteration sample to get per-iteration counts.
    let stats = CommStats::new_shared();
    let setup = maxwell_oras(params, 8, 2);
    let n = setup.problem.a.nrows();
    let dist = DistOp::new(setup.problem.a.clone(), 8, Arc::clone(&stats));
    let b = antenna_ring_rhs(&setup.geom, &params, 1, 0.3, 0.5);
    let opts = SolveOpts {
        rtol: 1e-8,
        restart: 400,
        max_iters: 400,
        side: PrecondSide::Right,
        stats: Some(Arc::clone(&stats)),
        ..Default::default()
    };
    let opts = traced_opts(&opts, "fig7_instrumented_n8");
    let mut x = DMat::<C64>::zeros(n, 1);
    let res = gmres::solve(&dist, &setup.oras, &b, &mut x, &opts);
    let snap = stats.snapshot();
    let iters_meas = res.iterations.max(1);
    let red_per_it = snap.reductions as f64 / iters_meas as f64;
    // Per-subdomain factor+solve flops measured from the small run; in the
    // scaled setting each of the N ranks owns n_paper/N unknowns. We keep
    // the paper's problem/rank ratio: 119M unknowns over N ranks, with the
    // subdomain solve costing O(local_n · bw²) ≈ O(local_n^{5/3}) for the
    // banded factorization and O(local_n^{4/3}) per application.
    let model = CostModel::curie_like();
    let n_paper = 119_000_000f64;
    // Iteration growth: fit iters(N) = a·N^e to the measured points.
    let (n0, i0) = (meas[0].0 as f64, meas[0].1 as f64);
    let (n1, i1) = (
        *meas.last().map(|(a, _)| a).unwrap() as f64,
        meas.last().unwrap().1 as f64,
    );
    let expo = ((i1 / i0).ln() / (n1 / n0).ln()).clamp(0.0, 0.5);
    println!(
        "measured per-iteration reductions: {red_per_it:.1}; iteration growth exponent {expo:.3}"
    );
    println!(
        "{:>6} {:>10} {:>10} {:>8} {:>9}   (paper: 512→4096, 54→94 its, speedup 6.9)",
        "N", "setup(s)", "solve(s)", "iters", "speedup"
    );
    // Anchor the model at the paper's N = 512 point (456 s setup, 91.8 s
    // solve at 54 iterations); the model supplies the *shape*: setup work
    // is embarrassingly parallel (∝ 1/N), per-iteration local work shrinks
    // ∝ 1/N, iterations grow with the measured exponent, and the reduction
    // term α·log₂(N) per iteration provides the communication floor.
    let setup_512 = 456.0;
    let solve_512 = 91.8;
    let iters_at = |nr: f64| (54.0 * (nr / 512.0).powf(expo)).round();
    let halo_layout = Layout::even(n, 8);
    let _ = HaloPlan::build(dist.matrix(), &halo_layout); // structure sanity
    let mut t512 = 0.0;
    for nranks in [512usize, 1024, 2048, 4096] {
        let local_n = n_paper / nranks as f64;
        let its = iters_at(nranks as f64);
        let setup_t = setup_512 * 512.0 / nranks as f64;
        let per_iter_compute = (solve_512 / 54.0) * 512.0 / nranks as f64;
        let stages = (nranks as f64).log2().ceil();
        let per_iter_comm = red_per_it * model.alpha_reduce * stages
            + 6.0 * (model.alpha_msg + (local_n.powf(2.0 / 3.0) * 16.0) / model.beta);
        let solve_t = its * (per_iter_compute + per_iter_comm);
        let total = setup_t + solve_t;
        if nranks == 512 {
            t512 = total;
        }
        println!(
            "{nranks:>6} {setup_t:>10.1} {solve_t:>10.1} {its:>8} {:>9.2}",
            t512 / total
        );
    }
    rule();
    println!(
        "Expected shape (paper Fig. 7): setup scales nearly ideally, iterations\n\
         grow mildly with N (one-level optimized interface conditions), solve\n\
         fraction grows from ~17% to ~30%, overall speedup ≈ 7 at 8× ranks."
    );
}
