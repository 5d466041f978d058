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

use kryst_bench::{maxwell_oras, rule, time, traced_opts, worst};
use kryst_core::pseudo::{self, PseudoMethod};
use kryst_core::{gcrodr, gmres, PrecondSide, SolveOpts, SolverContext};
use kryst_dense::DMat;
use kryst_pde::maxwell::{antenna_ring_rhs, MaxwellParams};
use kryst_scalar::{Scalar, C64};

struct Row {
    label: &'static str,
    p: usize,
    seconds: f64,
    total_iters: usize,
    per_rhs_iters: Option<usize>,
    /// Iterations each RHS took (alternatives 3–8).
    spread: Vec<usize>,
}

fn print_row(r: &Row, reference: f64) {
    let per = r
        .per_rhs_iters
        .map(|v| v.to_string())
        .unwrap_or_else(|| "-".into());
    println!(
        "{:<44} {:>3} {:>10.2} {:>8} {:>8} {:>8.1}",
        r.label,
        r.p,
        r.seconds,
        r.total_iters,
        per,
        reference / r.seconds
    );
    if !r.spread.is_empty() {
        let mut its = r.spread.clone();
        its.sort_unstable();
        println!(
            "   iterations per RHS: min {}, median {}, max {}",
            its[0],
            its[its.len() / 2],
            its[its.len() - 1]
        );
    }
}

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
    let pc = &setup.oras;
    println!(
        "n = {n} complex unknowns, ORAS setup (shared by all alternatives): {:.2}s",
        setup.setup_seconds
    );
    let rhs = antenna_ring_rhs(&setup.geom, &params, nrhs, 0.3, 0.55);
    let base = SolveOpts {
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
    let mut rows: Vec<Row> = Vec::new();

    // 1) 32× GMRES(50).
    let o1 = traced_opts(&base, "fig8_alt1_gmres");
    let (r1_iters, t1) = time(|| {
        let mut total = 0usize;
        for l in 0..nrhs {
            let b = DMat::from_col_major(n, 1, rhs.col(l).to_vec());
            let mut x = DMat::<C64>::zeros(n, 1);
            let res = gmres::solve(a, pc, &b, &mut x, &o1);
            if !res.converged {
                eprintln!(
                    "WARNING: GMRES RHS {l} did not reach rtol; worst rel res {:.2e}",
                    worst(res.final_relres.iter().copied())
                );
            }
            total += res.iterations;
        }
        total
    });
    rows.push(Row {
        label: "1) 32 consecutive GMRES(50)",
        p: 1,
        seconds: t1,
        total_iters: r1_iters,
        per_rhs_iters: Some(r1_iters / nrhs),
        spread: Vec::new(),
    });
    print_row(&rows[0], t1);

    // 2) 32× GCRO-DR(50,10).
    let o2 = traced_opts(&base, "fig8_alt2_gcrodr");
    let (r2_iters, t2) = time(|| {
        let mut ctx = SolverContext::<C64>::new();
        let mut total = 0usize;
        for l in 0..nrhs {
            let b = DMat::from_col_major(n, 1, rhs.col(l).to_vec());
            let mut x = DMat::<C64>::zeros(n, 1);
            let res = gcrodr::solve(a, pc, &b, &mut x, &o2, &mut ctx);
            if !res.converged {
                eprintln!(
                    "WARNING: GCRO-DR RHS {l} did not reach rtol; worst rel res {:.2e}",
                    worst(res.final_relres.iter().copied())
                );
            }
            total += res.iterations;
        }
        total
    });
    rows.push(Row {
        label: "2) 32 consecutive GCRO-DR(50,10)",
        p: 1,
        seconds: t2,
        total_iters: r2_iters,
        per_rhs_iters: Some(r2_iters / nrhs),
        spread: Vec::new(),
    });
    print_row(&rows[1], t1);

    // 3) pseudo-BGMRES(50), 32 RHSs.
    let o3 = traced_opts(&base, "fig8_alt3_pseudo_bgmres");
    let mut x3 = DMat::<C64>::zeros(n, nrhs);
    let (res3, t3) = time(|| pseudo::solve(a, pc, &rhs, &mut x3, &o3, PseudoMethod::Gmres, None));
    if !res3.converged {
        eprintln!(
            "WARNING: pseudo-BGMRES did not reach rtol; worst rel res {:.2e}",
            worst(
                res3.per_rhs
                    .iter()
                    .flat_map(|r| r.final_relres.iter().copied())
            )
        );
    }
    let it3 = res3.iterations;
    rows.push(Row {
        label: "3) 1 solve, pseudo-BGMRES(50), 32 RHSs",
        p: nrhs,
        seconds: t3,
        total_iters: it3,
        per_rhs_iters: None,
        spread: res3.per_rhs.iter().map(|r| r.iterations).collect(),
    });
    print_row(&rows[2], t1);

    // 4) BGMRES(50), 32 RHSs.
    let o4 = traced_opts(&base, "fig8_alt4_bgmres");
    let mut x4 = DMat::<C64>::zeros(n, nrhs);
    let (res4, t4) = time(|| gmres::solve(a, pc, &rhs, &mut x4, &o4));
    if !res4.converged {
        eprintln!(
            "WARNING: BGMRES did not reach rtol; worst rel res {:.2e}",
            worst(res4.final_relres.iter().copied())
        );
    }
    rows.push(Row {
        label: "4) 1 solve, BGMRES(50), 32 RHSs",
        p: nrhs,
        seconds: t4,
        total_iters: res4.iterations,
        per_rhs_iters: None,
        spread: res4.iters_to_converge(base.rtol),
    });
    print_row(&rows[3], t1);

    // 5) 4× pseudo-BGCRO-DR(50,10) with 8 RHSs.
    let o5 = traced_opts(&base, "fig8_alt5_pseudo_bgcrodr_x4");
    let mut spread5 = Vec::new();
    let (it5, t5) =
        time(|| {
            let mut ctxs: Vec<SolverContext<C64>> = Vec::new();
            let mut total = 0usize;
            for blk in 0..4 {
                let b = rhs.cols(blk * 8, 8);
                let mut x = DMat::<C64>::zeros(n, 8);
                let res = pseudo::solve(
                    a,
                    pc,
                    &b,
                    &mut x,
                    &o5,
                    PseudoMethod::GcroDr,
                    Some(&mut ctxs),
                );
                if !res.converged {
                    eprintln!(
                    "WARNING: pseudo-BGCRO-DR block {blk} did not reach rtol; worst rel res {:.2e}",
                    worst(res.per_rhs.iter().flat_map(|r| r.final_relres.iter().copied()))
                );
                }
                spread5.extend(res.per_rhs.iter().map(|r| r.iterations));
                total += res.iterations;
            }
            total
        });
    rows.push(Row {
        label: "5) 4 consecutive pseudo-BGCRO-DR(50,10), 8 RHSs",
        p: 8,
        seconds: t5,
        total_iters: it5,
        per_rhs_iters: Some(it5 / 4),
        spread: spread5,
    });
    print_row(&rows[4], t1);

    // 6) pseudo-BGCRO-DR(50,10), 32 RHSs.
    let o6 = traced_opts(&base, "fig8_alt6_pseudo_bgcrodr");
    let mut x6 = DMat::<C64>::zeros(n, nrhs);
    let (res6, t6) = time(|| pseudo::solve(a, pc, &rhs, &mut x6, &o6, PseudoMethod::GcroDr, None));
    if !res6.converged {
        eprintln!(
            "WARNING: pseudo-BGCRO-DR 32 did not reach rtol; worst rel res {:.2e}",
            worst(
                res6.per_rhs
                    .iter()
                    .flat_map(|r| r.final_relres.iter().copied())
            )
        );
    }
    rows.push(Row {
        label: "6) 1 solve, pseudo-BGCRO-DR(50,10), 32 RHSs",
        p: nrhs,
        seconds: t6,
        total_iters: res6.iterations,
        per_rhs_iters: None,
        spread: res6.per_rhs.iter().map(|r| r.iterations).collect(),
    });
    print_row(&rows[5], t1);

    // 7) 4× BGCRO-DR(50,10) with 8 RHSs.
    let o7 = traced_opts(&base, "fig8_alt7_bgcrodr_x4");
    let mut spread7 = Vec::new();
    let (it7, t7) = time(|| {
        let mut ctx = SolverContext::<C64>::new();
        let mut total = 0usize;
        for blk in 0..4 {
            let b = rhs.cols(blk * 8, 8);
            let mut x = DMat::<C64>::zeros(n, 8);
            let res = gcrodr::solve(a, pc, &b, &mut x, &o7, &mut ctx);
            if !res.converged {
                eprintln!(
                    "WARNING: BGCRO-DR block {blk} did not reach rtol; worst rel res {:.2e}",
                    worst(res.final_relres.iter().copied())
                );
            }
            spread7.extend(res.iters_to_converge(base.rtol));
            total += res.iterations;
        }
        total
    });
    rows.push(Row {
        label: "7) 4 consecutive BGCRO-DR(50,10), 8 RHSs",
        p: 8,
        seconds: t7,
        total_iters: it7,
        per_rhs_iters: Some(it7 / 4),
        spread: spread7,
    });
    print_row(&rows[6], t1);

    // 8) BGCRO-DR(50,10), 32 RHSs.
    let o8 = traced_opts(&base, "fig8_alt8_bgcrodr");
    let mut ctx8 = SolverContext::<C64>::new();
    let mut x8 = DMat::<C64>::zeros(n, nrhs);
    let (res8, t8) = time(|| gcrodr::solve(a, pc, &rhs, &mut x8, &o8, &mut ctx8));
    if !res8.converged {
        eprintln!(
            "WARNING: BGCRO-DR 32 did not reach rtol; worst rel res {:.2e}",
            worst(res8.final_relres.iter().copied())
        );
    }
    rows.push(Row {
        label: "8) 1 solve, BGCRO-DR(50,10), 32 RHSs",
        p: nrhs,
        seconds: t8,
        total_iters: res8.iterations,
        per_rhs_iters: None,
        spread: res8.iters_to_converge(base.rtol),
    });
    print_row(&rows[7], t1);

    rule();
    println!(
        "Expected shape (paper Fig. 8): every (pseudo-)block/recycled variant\n\
         beats 1); block methods divide iterations dramatically; the best\n\
         time mixes recycling and moderate blocks (alternative 7, 4.5×),\n\
         while 8) is numerically best (fewest iterations)."
    );
    // Residual verification for the block variants (spot check).
    let ax = a.apply(&x8);
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
