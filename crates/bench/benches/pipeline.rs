//! Latency-hiding path benchmarks: the depth-1 pipelined orthogonalization
//! (reduction overlap) and the agglomerated AMG coarse-solve model.
//!
//! The latency win of the pipelined path is a *distributed* effect (Gram
//! and recycle-projection reductions overlap the lagged operator apply),
//! modeled deterministically in `tests/pipelined_equivalence.rs`. What a
//! single node can measure — and what this bench shows — is that the
//! recurrence bookkeeping (the `(û − U·Sᵥ)·R⁻¹` reconstruction, two
//! tall-skinny GEMMs plus a triangular solve per step) stays a small
//! overhead next to the operator and orthogonalization work it rides along
//! with, and that the coarse-agglomeration model itself is cheap enough to
//! evaluate at setup for thousands of ranks.

use kryst_bench::harness::Criterion;
use kryst_bench::{criterion_group, criterion_main};
use kryst_core::cycle::{BlockArnoldi, PrecondMode};
use kryst_core::{gcrodr, gmres, OrthPath, PrecondSide, SolveOpts, SolverContext};
use kryst_dense::gs::OrthScheme;
use kryst_dense::DMat;
use kryst_par::IdentityPrecond;
use kryst_pde::poisson::poisson2d;
use kryst_precond::{Amg, AmgOpts};
use kryst_rt::rng::Rng64;
use kryst_sparse::{Coo, Csr};

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

fn bench_pipeline(c: &mut Criterion) {
    // One full Arnoldi cycle (m = 30, n = 5000) on each path: isolates the
    // per-step price of the pipelined recurrence bookkeeping from solver
    // logic. Both paths do the same operator applies; the pipelined one
    // trades the (distributed) synchronous Gram wait for two extra
    // tall-skinny GEMMs and a small triangular solve per step.
    let n = 5000;
    let a = laplace1d(n);
    let id = IdentityPrecond::new(n);
    let r0 = DMat::from_fn(n, 1, |i, _| (((i * 13 + 5) % 101) as f64 - 50.0) / 50.0);
    for (name, path) in [
        ("arnoldi30_laplace5000_fused", OrthPath::Fused),
        ("arnoldi30_laplace5000_pipelined", OrthPath::Pipelined),
    ] {
        c.bench_function(name, |bch| {
            bch.iter(|| {
                let mode = PrecondMode::new(&id, PrecondSide::Right);
                let mut arn = BlockArnoldi::new(&a, &mode, 30, 1, OrthScheme::CholQr, None, None)
                    .with_path(path);
                arn.start(&r0);
                for _ in 0..30 {
                    arn.step();
                }
                arn.pipeline_fallbacks()
            });
        });
    }

    // End-to-end GMRES(30) on the fig. 7 demo problem, both paths: same
    // problem as the comm_fusion bench, so the pipelined single-node
    // overhead is directly comparable to the fused reference.
    let a = convdiff2d(32, 0.001, 1.0, 0.3);
    let an = a.nrows();
    let id = IdentityPrecond::new(an);
    let b = DMat::from_fn(an, 1, |i, _| ((i % 7) as f64) - 3.0);
    for (name, path) in [
        ("gmres30_convdiff32_fused_ref", OrthPath::Fused),
        ("gmres30_convdiff32_pipelined", OrthPath::Pipelined),
    ] {
        c.bench_function(name, |bch| {
            bch.iter(|| {
                let opts = SolveOpts {
                    rtol: 1e-8,
                    restart: 30,
                    max_iters: 1000,
                    ortho: path,
                    ..Default::default()
                };
                let mut x = DMat::zeros(an, 1);
                gmres::solve(&a, &id, &b, &mut x, &opts)
            });
        });
    }

    // GCRO-DR(30,10) cold + warm recycled solve: the warm solve carries the
    // recycle block, so the pipelined path exercises the C-projection
    // recurrence (`E_{j+1} = (Cᴴû − E·Sᵥ)·R⁻¹`) on every inner step.
    let gn = 400;
    let ga = laplace1d(gn);
    let gid = IdentityPrecond::new(gn);
    let mut rng = Rng64::seed_from_u64(42);
    let gb = DMat::from_fn(gn, 1, |_, _| rng.gen_range(-1.0, 1.0));
    let mut rng2 = Rng64::seed_from_u64(43);
    let gb2 = DMat::from_fn(gn, 1, |_, _| rng2.gen_range(-1.0, 1.0));
    for (name, path) in [
        ("gcrodr30_10_laplace400_fused_ref", OrthPath::Fused),
        ("gcrodr30_10_laplace400_pipelined", OrthPath::Pipelined),
    ] {
        c.bench_function(name, |bch| {
            bch.iter(|| {
                let opts = SolveOpts {
                    rtol: 1e-8,
                    restart: 30,
                    recycle: 10,
                    max_iters: 5000,
                    ortho: path,
                    ..Default::default()
                };
                let mut ctx = SolverContext::new();
                let mut x = DMat::zeros(gn, 1);
                gcrodr::solve(&ga, &gid, &gb, &mut x, &opts, &mut ctx);
                let mut x2 = DMat::zeros(gn, 1);
                gcrodr::solve(&ga, &gid, &gb2, &mut x2, &opts, &mut ctx)
            });
        });
    }

    // The coarse-agglomeration model: exact gather/scatter row accounting
    // between the all-ranks layout and the power-of-two subset. It runs once
    // per (setup, rank count) in `kryst_prof` and scales linearly in P —
    // this gates that evaluating it at machine scale stays microseconds.
    let prob = poisson2d::<f64>(64, 64);
    let amg = Amg::new(&prob.a, prob.near_nullspace.as_ref(), &AmgOpts::default());
    assert!(amg.coarse_agglom(8192).is_some());
    c.bench_function("amg_coarse_agglom_model_P8192", |bch| {
        bch.iter(|| amg.coarse_agglom(8192));
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10).measurement_time(std::time::Duration::from_secs(2));
    targets = bench_pipeline
}
criterion_main!(benches);
