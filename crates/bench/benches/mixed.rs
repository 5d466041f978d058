//! Memory-traffic benches for the mixed-precision / matrix-free PR:
//!
//! * assembled CSR SpMM vs the matrix-free stencil appliers (Poisson 2-D
//!   and Q1 elasticity) at block width p = 8,
//! * level-scheduled ILU(0) applies with `f64` vs compact `f32` factors,
//! * AMG V-cycles on the full vs the single-precision hierarchy.
//!
//! Problem sizes are picked so the operator / factor data no longer fits
//! in cache — these kernels are memory-bound, which is exactly where the
//! byte cuts pay off.

use kryst_bench::harness::{BenchmarkId, Criterion};
use kryst_bench::{criterion_group, criterion_main};
use kryst_dense::DMat;
use kryst_par::{ApplyRows, PrecondOp, PrecondPrecision};
use kryst_pde::elasticity::{elasticity3d, ElasticityOpts};
use kryst_pde::poisson::poisson2d;
use kryst_pde::stencil::{ElasticityStencil, PoissonStencil};
use kryst_precond::{Amg, AmgOpts, Ilu0};

const P: usize = 8;

fn pinned_block(n: usize, p: usize) -> DMat<f64> {
    DMat::from_fn(n, p, |i, j| (((i + 3 * j) % 9) as f64) - 4.0)
}

fn bench_spmm_mf(c: &mut Criterion) {
    // Poisson: 512x512 grid, 262k rows, ~1.3M nonzeros (~23 MB assembled).
    let nx = 512;
    let prob = poisson2d::<f64>(nx, nx);
    let stencil = PoissonStencil::<f64>::dim2(nx, nx);
    let n = prob.a.nrows();
    let x = pinned_block(n, P);
    let mut y = DMat::zeros(n, P);
    let mut g = c.benchmark_group("spmm_mixed_p8");
    g.bench_function("poisson_assembled", |bch| {
        bch.iter(|| ApplyRows::apply_all(&prob.a, &x, &mut y))
    });
    g.bench_function("poisson_stencil", |bch| {
        bch.iter(|| stencil.apply_all(&x, &mut y))
    });

    // Elasticity: ne=16 cube, ~14k dofs, ~81 nnz/row (~18 MB assembled).
    let opts = ElasticityOpts {
        ne: 16,
        ..Default::default()
    };
    let ep = elasticity3d::<f64>(&opts);
    let est = ElasticityStencil::<f64>::new(&opts);
    let ne_dof = ep.problem.a.nrows();
    let xe = pinned_block(ne_dof, P);
    let mut ye = DMat::zeros(ne_dof, P);
    g.bench_function("elasticity_assembled", |bch| {
        bch.iter(|| ApplyRows::apply_all(&ep.problem.a, &xe, &mut ye))
    });
    g.bench_function("elasticity_stencil", |bch| {
        bch.iter(|| est.apply_all(&xe, &mut ye))
    });
    g.finish();
}

fn bench_ilu_mixed(c: &mut Criterion) {
    let ep = elasticity3d::<f64>(&ElasticityOpts {
        ne: 16,
        ..Default::default()
    });
    let a = &ep.problem.a;
    let n = a.nrows();
    let rp = pinned_block(n, P);
    let mut zp = DMat::zeros(n, P);
    let mut g = c.benchmark_group("ilu_mixed_p8");
    for (name, prec) in [
        ("f64", PrecondPrecision::Full),
        ("f32", PrecondPrecision::Single),
    ] {
        let ilu = Ilu0::with_precision(a, prec).expect("ILU(0) on elasticity");
        g.bench_with_input(BenchmarkId::from_parameter(name), &ilu, |bch, ilu| {
            bch.iter(|| ilu.apply(&rp, &mut zp))
        });
    }
    g.finish();
}

fn bench_amg_mixed(c: &mut Criterion) {
    let prob = poisson2d::<f64>(256, 256);
    let n = prob.a.nrows();
    let rp = pinned_block(n, P);
    let mut zp = DMat::zeros(n, P);
    let mut g = c.benchmark_group("amg_mixed_p8");
    for (name, prec) in [
        ("full", PrecondPrecision::Full),
        ("single", PrecondPrecision::Single),
    ] {
        let amg = Amg::with_precision(
            &prob.a,
            prob.near_nullspace.as_ref(),
            &AmgOpts::default(),
            prec,
        );
        g.bench_with_input(BenchmarkId::from_parameter(name), &amg, |bch, amg| {
            bch.iter(|| amg.apply(&rp, &mut zp))
        });
    }
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10).measurement_time(std::time::Duration::from_secs(2));
    targets = bench_spmm_mf, bench_ilu_mixed, bench_amg_mixed
}
criterion_main!(benches);
