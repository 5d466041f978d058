//! Fig. 6 — scalability of a sparse direct solver with multiple RHSs.
//!
//! Paper setting (§V-B3): a ~300k-unknown complex symmetric Maxwell system,
//! factored once with PARDISO, then solved with `p = 2⁰…2⁷` right-hand
//! sides on `P = 2⁰…2⁴` threads; efficiency
//! `E(P,p) = p·T(1,1) / (P·T(P,p))` becomes **superlinear** once enough
//! RHSs amortize the factor traffic, and multi-threading only pays at large
//! `p`. This binary reproduces the same sweep on the banded-LU direct
//! solver over a scaled-down Maxwell system.

use kryst_bench::{rule, time};
use kryst_dense::DMat;
use kryst_pde::maxwell::{maxwell3d, MaxwellParams};
use kryst_rt::rng::Rng64;
use kryst_scalar::{Scalar, C64};
use kryst_sparse::SparseDirect;

fn main() {
    let nc = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(12);
    println!("Fig. 6 — multi-RHS direct-solver scaling, Maxwell nc = {nc}");
    let params = MaxwellParams::matching_solution(nc);
    let (prob, _geom) = maxwell3d(&params);
    let n = prob.a.nrows();
    let nnz_per_row = prob.a.nnz() as f64 / n as f64;
    println!("n = {n} complex unknowns, ≈{nnz_per_row:.0} nonzeros/row (paper: 300k, ≈83/row)");

    let (fac, tf) = time(|| SparseDirect::factor(&prob.a).expect("nonsingular"));
    println!(
        "factorization: {tf:.3}s, bandwidth {} after RCM",
        fac.bandwidth()
    );
    rule();

    let mut rng = Rng64::seed_from_u64(42);
    let max_p = 128usize;
    let rhs_full = DMat::from_fn(n, max_p, |_, _| {
        C64::new(rng.gen_range(-1.0, 1.0), rng.gen_range(-1.0, 1.0))
    });

    let threads = [1usize, 2, 4, 8, 16];
    let ps = [1usize, 2, 4, 8, 16, 32, 64, 128];
    let mut t = vec![vec![0.0f64; ps.len()]; threads.len()];
    // `threads_n` pool threads share the 8-column tiles of the block.
    let solve = |b: &DMat<C64>, threads_n: usize| {
        let mut x = b.clone();
        let mut scratch = DMat::zeros(n, b.ncols());
        fac.solve_in_place_ws(&mut x, &mut scratch, 8, threads_n);
        x
    };
    // Warm up caches with one solve.
    let _ = solve(&rhs_full.cols(0, 1), 1);
    for (pi, &threads_n) in threads.iter().enumerate() {
        for (pj, &p) in ps.iter().enumerate() {
            let b = rhs_full.cols(0, p);
            // Average two runs, like the paper.
            let (_, t1) = time(|| {
                std::hint::black_box(solve(&b, threads_n));
            });
            let (x, t2) = time(|| solve(&b, threads_n));
            std::hint::black_box(&x);
            t[pi][pj] = 0.5 * (t1 + t2);
        }
    }

    println!("(b) time of the solution phase T(P,p) in seconds:");
    print!("{:>4}", "P\\p");
    for &p in &ps {
        print!("{p:>10}");
    }
    println!();
    for (pi, &pn) in threads.iter().enumerate() {
        print!("{pn:>4}");
        for tv in &t[pi] {
            print!("{tv:>10.4}");
        }
        println!();
    }

    rule();
    println!("(a) efficiency E(P,p) = p·T(1,1) / (P·T(P,p)) in percent:");
    let t11 = t[0][0];
    print!("{:>4}", "P\\p");
    for &p in &ps {
        print!("{p:>10}");
    }
    println!();
    for (pi, &pn) in threads.iter().enumerate() {
        print!("{pn:>4}");
        for (pj, &p) in ps.iter().enumerate() {
            let e = 100.0 * (p as f64) * t11 / ((pn as f64) * t[pi][pj]);
            print!("{e:>9.0}%");
        }
        println!();
    }
    rule();
    println!(
        "Expected shape (paper Fig. 6): single-thread efficiency grows with p\n\
         (superlinear once the factor is amortized over many RHS columns);\n\
         high thread counts are inefficient at p = 1–2 and recover at large p."
    );
    // Correctness spot-check: residual of the widest solve.
    let b = rhs_full.cols(0, 8);
    let x = solve(&b, 1);
    let ax = prob.a.apply(&x);
    let mut worst = 0.0f64;
    for j in 0..8 {
        let mut num = 0.0f64;
        let mut den = 0.0f64;
        for i in 0..n {
            num += (ax[(i, j)] - b[(i, j)]).abs_sqr();
            den += b[(i, j)].abs_sqr();
        }
        worst = worst.max((num / den).sqrt());
    }
    println!("residual check (8 RHS): worst relative residual {worst:.3e}");
    assert!(worst < 1e-8);
}
