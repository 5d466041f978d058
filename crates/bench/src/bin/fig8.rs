//! Fig. 8 — the eight alternatives for 32 right-hand sides.
//!
//! Paper setting (§V-C): the chamber with the plastic cylinder, 32 antenna
//! right-hand sides, ORAS preconditioner set up once. Alternatives:
//!
//! 1. 32 consecutive GMRES(50) solves (reference),
//! 2. 32 consecutive GCRO-DR(50,10) solves (recycling),
//! 3. one pseudo-BGMRES(50) solve with 32 RHSs,
//! 4. one BGMRES(50) solve with 32 RHSs,
//! 5. 4 consecutive pseudo-BGCRO-DR(50,10) solves with 8 RHSs,
//! 6. one pseudo-BGCRO-DR(50,10) solve with 32 RHSs,
//! 7. 4 consecutive BGCRO-DR(50,10) solves with 8 RHSs,
//! 8. one BGCRO-DR(50,10) solve with 32 RHSs.
//!
//! The paper's best time is 7) — recycling + moderate blocks — at 4.5×;
//! the numerically best is 8) (fewest iterations).
//!
//! Alternatives 3–8 also print the spread of the iterations each RHS took:
//! a block solve's columns converge unevenly, and a pseudo-block solve runs
//! as long as its slowest RHS.

use kryst_bench::{maxwell_oras, rule, run_series, worst, Method, System};
use kryst_core::pseudo::PseudoMethod;
use kryst_core::{PrecondSide, SolveOpts};
use kryst_pde::maxwell::{antenna_ring_rhs, MaxwellParams};
use kryst_scalar::Scalar;

/// The alternatives: label, right-hand sides per solve, method, trace tag.
const ALTERNATIVES: [(&str, usize, Method, &str); 8] = [
    (
        "1) 32 consecutive GMRES(50)",
        1,
        Method::Gmres,
        "fig8_alt1_gmres",
    ),
    (
        "2) 32 consecutive GCRO-DR(50,10)",
        1,
        Method::GcroDr,
        "fig8_alt2_gcrodr",
    ),
    (
        "3) 1 solve, pseudo-BGMRES(50), 32 RHSs",
        32,
        Method::Pseudo(PseudoMethod::Gmres),
        "fig8_alt3_pseudo_bgmres",
    ),
    (
        "4) 1 solve, BGMRES(50), 32 RHSs",
        32,
        Method::Gmres,
        "fig8_alt4_bgmres",
    ),
    (
        "5) 4 consecutive pseudo-BGCRO-DR(50,10), 8 RHSs",
        8,
        Method::Pseudo(PseudoMethod::GcroDr),
        "fig8_alt5_pseudo_bgcrodr_x4",
    ),
    (
        "6) 1 solve, pseudo-BGCRO-DR(50,10), 32 RHSs",
        32,
        Method::Pseudo(PseudoMethod::GcroDr),
        "fig8_alt6_pseudo_bgcrodr",
    ),
    (
        "7) 4 consecutive BGCRO-DR(50,10), 8 RHSs",
        8,
        Method::GcroDr,
        "fig8_alt7_bgcrodr_x4",
    ),
    (
        "8) 1 solve, BGCRO-DR(50,10), 32 RHSs",
        32,
        Method::GcroDr,
        "fig8_alt8_bgcrodr",
    ),
];

fn main() {
    let nc = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(12);
    let nrhs = 32usize;
    println!("Fig. 8 — eight alternatives for {nrhs} RHSs, Maxwell+cylinder, nc = {nc}");
    let params = MaxwellParams::with_cylinder(nc);
    let setup = maxwell_oras(params, 16, 2);
    let n = setup.problem.a.nrows();
    let a = &setup.problem.a;
    println!(
        "n = {n} complex unknowns, ORAS setup (shared by all alternatives): {:.2}s",
        setup.setup_seconds
    );
    let rhs = antenna_ring_rhs(&setup.geom, &params, nrhs, 0.3, 0.55);
    let opts = SolveOpts {
        rtol: 1e-8,
        restart: 50,
        recycle: 10,
        side: PrecondSide::Right,
        max_iters: 5000,
        same_system: true,
        ..Default::default()
    };
    rule();
    println!(
        "{:<44} {:>3} {:>10} {:>8} {:>8} {:>8}",
        "alternative", "p", "solve(s)", "iters", "it/RHS", "speedup"
    );
    rule();
    let mut reference = None;
    let mut last = Vec::new();
    for (label, p, method, tag) in ALTERNATIVES {
        let systems: Vec<_> = (0..nrhs / p)
            .map(|k| System {
                a,
                pc: &setup.oras,
                b: rhs.cols(k * p, p),
            })
            .collect();
        last = run_series(method, &opts, tag, &systems);
        let seconds: f64 = last.iter().map(|s| s.seconds).sum();
        let iters: usize = last.iter().map(|s| s.iterations).sum();
        let per = match last.len() {
            1 => "-".to_string(),
            solves => (iters / solves).to_string(),
        };
        let reference = *reference.get_or_insert(seconds);
        println!(
            "{label:<44} {p:>3} {seconds:>10.2} {iters:>8} {per:>8} {:>8.1}",
            reference / seconds
        );
        let mut its: Vec<usize> = last.iter().flat_map(|s| s.spread.clone()).collect();
        if !its.is_empty() {
            its.sort_unstable();
            println!(
                "   iterations per RHS: min {}, median {}, max {}",
                its[0],
                its[its.len() / 2],
                its[its.len() - 1]
            );
        }
    }
    rule();
    println!(
        "Expected shape (paper Fig. 8): every (pseudo-)block/recycled variant\n\
         beats 1); block methods divide iterations dramatically; the best\n\
         time mixes recycling and moderate blocks (alternative 7, 4.5×),\n\
         while 8) is numerically best (fewest iterations)."
    );
    // Residual verification of the last alternative (spot check).
    let x8 = &last[0].x;
    let ax = a.apply(x8);
    let worst8 = worst((0..nrhs).map(|j| {
        let mut num = 0.0;
        let mut den = 0.0;
        for i in 0..n {
            num += (ax[(i, j)] - rhs[(i, j)]).abs_sqr();
            den += rhs[(i, j)].abs_sqr();
        }
        (num / den).sqrt()
    }));
    println!("verification: worst true relative residual of alternative 8: {worst8:.3e}");
}
