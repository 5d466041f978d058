//! End-to-end solver comparison on a fixed Poisson sequence (GMRES vs
//! LGMRES vs GCRO-DR vs block/pseudo-block variants).

use kryst_bench::harness::Criterion;
use kryst_bench::{criterion_group, criterion_main};
use kryst_core::pseudo::{self, PseudoMethod};
use kryst_core::{gcrodr, gmres, lgmres, SolveOpts, SolverContext};
use kryst_dense::DMat;
use kryst_obs::{Recorder, RingRecorder};
use kryst_par::{CommStats, IdentityPrecond};
use kryst_pde::poisson::{paper_rhs_block, paper_rhs_sequence, poisson2d};
use kryst_precond::Jacobi;
use std::sync::Arc;

fn bench_solvers(c: &mut Criterion) {
    let nx = 40;
    let prob = poisson2d::<f64>(nx, nx);
    let n = prob.a.nrows();
    let jac = Jacobi::new(&prob.a, 1.0);
    let _id = IdentityPrecond::new(n);
    let rhss = paper_rhs_sequence::<f64>(nx, nx);
    let blk = paper_rhs_block::<f64>(nx, nx);
    let opts = SolveOpts {
        rtol: 1e-6,
        restart: 30,
        recycle: 10,
        same_system: true,
        max_iters: 4000,
        ..Default::default()
    };

    let mut g = c.benchmark_group("poisson40_4rhs");
    g.bench_function("gmres_consecutive", |bch| {
        bch.iter(|| {
            for rhs in &rhss {
                let b = DMat::from_col_major(n, 1, rhs.clone());
                let mut x = DMat::zeros(n, 1);
                assert!(gmres::solve(&prob.a, &jac, &b, &mut x, &opts).converged);
            }
        })
    });
    g.bench_function("lgmres_consecutive", |bch| {
        bch.iter(|| {
            for rhs in &rhss {
                let b = DMat::from_col_major(n, 1, rhs.clone());
                let mut x = DMat::zeros(n, 1);
                assert!(lgmres::solve(&prob.a, &jac, &b, &mut x, &opts).converged);
            }
        })
    });
    g.bench_function("gcrodr_consecutive", |bch| {
        bch.iter(|| {
            let mut ctx = SolverContext::new();
            for rhs in &rhss {
                let b = DMat::from_col_major(n, 1, rhs.clone());
                let mut x = DMat::zeros(n, 1);
                assert!(gcrodr::solve(&prob.a, &jac, &b, &mut x, &opts, &mut ctx).converged);
            }
        })
    });
    g.bench_function("block_gmres", |bch| {
        bch.iter(|| {
            let mut x = DMat::zeros(n, 4);
            assert!(gmres::solve(&prob.a, &jac, &blk, &mut x, &opts).converged);
        })
    });
    g.bench_function("block_gcrodr", |bch| {
        bch.iter(|| {
            let mut ctx = SolverContext::new();
            let mut x = DMat::zeros(n, 4);
            assert!(gcrodr::solve(&prob.a, &jac, &blk, &mut x, &opts, &mut ctx).converged);
        })
    });
    g.bench_function("pseudo_block_gmres", |bch| {
        bch.iter(|| {
            let mut x = DMat::zeros(n, 4);
            assert!(
                pseudo::solve(
                    &prob.a,
                    &jac,
                    &blk,
                    &mut x,
                    &opts,
                    PseudoMethod::Gmres,
                    None
                )
                .converged
            );
        })
    });
    g.finish();
}

/// Observability overhead on the hottest solve path: a live ring recorder +
/// comm counters should only add noise-level cost over no recorder.
fn bench_recorder_overhead(c: &mut Criterion) {
    let nx = 40;
    let prob = poisson2d::<f64>(nx, nx);
    let n = prob.a.nrows();
    let jac = Jacobi::new(&prob.a, 1.0);
    let b = DMat::from_col_major(n, 1, paper_rhs_sequence::<f64>(nx, nx)[0].clone());
    let base = SolveOpts {
        rtol: 1e-6,
        restart: 30,
        max_iters: 4000,
        ..Default::default()
    };

    let cases: [(&str, SolveOpts); 2] = [
        ("gmres_no_recorder", base.clone()),
        (
            "gmres_ring_recorder_with_stats",
            SolveOpts {
                recorder: Some(Arc::new(RingRecorder::new(1 << 14)) as Arc<dyn Recorder>),
                stats: Some(CommStats::new_shared()),
                ..base.clone()
            },
        ),
    ];
    let mut g = c.benchmark_group("recorder_overhead");
    for (name, opts) in cases {
        g.bench_function(name, |bch| {
            bch.iter(|| {
                let mut x = DMat::zeros(n, 1);
                assert!(gmres::solve(&prob.a, &jac, &b, &mut x, &opts).converged);
            })
        });
    }
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10).measurement_time(std::time::Duration::from_secs(4));
    targets = bench_solvers, bench_recorder_overhead
}
criterion_main!(benches);
