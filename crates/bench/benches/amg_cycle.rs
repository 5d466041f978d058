//! Preconditioner setup and apply cost — AMG threshold trade-off (§IV-B),
//! the set-up and cycle shapes of the repository benchmark's two AMG
//! workloads (assembly, hierarchy, one V-cycle), and the multi-RHS apply
//! benchmarks:
//! blocked (all p columns per sweep) vs column-at-a-time applies for the
//! AMG V-cycle, level-scheduled ILU(0), and Schwarz/RAS.

use kryst_bench::harness::{BenchmarkId, Criterion};
use kryst_bench::{criterion_group, criterion_main};
use kryst_dense::DMat;
use kryst_par::PrecondOp;
use kryst_pde::elasticity::{elasticity3d, ElasticityOpts, PAPER_INCLUSIONS};
use kryst_pde::poisson::poisson2d;
use kryst_precond::{Amg, AmgOpts, Ilu0, Schwarz, SchwarzOpts, SchwarzVariant, SmootherKind};
use kryst_sparse::partition::partition_rcb;

const P: usize = 8;

fn pinned_block(n: usize, p: usize) -> DMat<f64> {
    DMat::from_fn(n, p, |i, j| (((i + 3 * j) % 9) as f64) - 4.0)
}

/// Apply a preconditioner one column at a time — the seed per-column path
/// that the blocked kernels are measured against.
fn apply_columnwise<M: PrecondOp<f64>>(m: &M, r: &DMat<f64>, z: &mut DMat<f64>) {
    let n = r.nrows();
    let mut rj = DMat::zeros(n, 1);
    let mut zj = DMat::zeros(n, 1);
    for j in 0..r.ncols() {
        rj.col_mut(0).copy_from_slice(r.col(j));
        m.apply(&rj, &mut zj);
        z.col_mut(j).copy_from_slice(zj.col(0));
    }
}

fn bench_amg(c: &mut Criterion) {
    let prob = poisson2d::<f64>(64, 32); // anisotropic grid: threshold matters
    let n = prob.a.nrows();
    let r = DMat::from_fn(n, 1, |i, _| ((i % 9) as f64) - 4.0);

    let mut g = c.benchmark_group("amg_setup");
    for thr in [0.0f64, 0.2] {
        g.bench_with_input(BenchmarkId::from_parameter(thr), &thr, |bch, &thr| {
            bch.iter(|| {
                Amg::new(
                    &prob.a,
                    prob.near_nullspace.as_ref(),
                    &AmgOpts {
                        threshold: thr,
                        ..Default::default()
                    },
                )
            });
        });
    }
    g.finish();

    let mut g = c.benchmark_group("amg_vcycle");
    for (name, smoother) in [
        ("chebyshev2", SmootherKind::Chebyshev { degree: 2 }),
        ("gmres3", SmootherKind::Gmres { iters: 3 }),
        (
            "jacobi2",
            SmootherKind::Jacobi {
                omega: 0.67,
                iters: 2,
            },
        ),
    ] {
        let amg = Amg::new(
            &prob.a,
            prob.near_nullspace.as_ref(),
            &AmgOpts {
                smoother,
                ..Default::default()
            },
        );
        g.bench_with_input(BenchmarkId::from_parameter(name), &amg, |bch, amg| {
            bch.iter(|| amg.apply_new(&r));
        });
    }
    g.finish();

    // Multi-RHS V-cycle: all p columns streamed per sweep vs p separate
    // single-column cycles (the paper's block-method amortization argument).
    let amg = Amg::new(&prob.a, prob.near_nullspace.as_ref(), &AmgOpts::default());
    let rp = pinned_block(n, P);
    let mut zp = DMat::zeros(n, P);
    let mut g = c.benchmark_group("amg_vcycle_p8");
    g.bench_function("blocked", |bch| bch.iter(|| amg.apply(&rp, &mut zp)));
    g.bench_function("columnwise", |bch| {
        bch.iter(|| apply_columnwise(&amg, &rp, &mut zp))
    });
    g.finish();
}

/// What `elasticity_varying_seq` and `poisson_amg_seq` pay per system before
/// the first iteration, and then per iteration: Fig. 3's assembly and
/// CG(4)-smoothed hierarchy at `ne = 14`, Fig. 2's GMRES(3)-smoothed
/// hierarchy at 384², and one V-cycle of each (group `amg_vcycle` above runs
/// a grid that fits in L2; these stream from memory).
fn bench_workload_shapes(c: &mut Criterion) {
    let opts = ElasticityOpts {
        ne: 14,
        inclusion: Some(PAPER_INCLUSIONS[0]),
        ..Default::default()
    };
    let elasticity = elasticity3d::<f64>(&opts).problem;
    let poisson = poisson2d::<f64>(384, 384);
    let mut g = c.benchmark_group("setup");
    g.bench_function("elasticity14_assemble", |bch| {
        bch.iter(|| elasticity3d::<f64>(&opts))
    });
    let mut cycles = Vec::new();
    for (setup, cycle, prob, smoother) in [
        (
            "elasticity14_amg_cg4",
            "cg4_elasticity14",
            &elasticity,
            SmootherKind::Cg { iters: 4 },
        ),
        (
            "poisson384_amg_gmres3",
            "gmres3_poisson384",
            &poisson,
            SmootherKind::Gmres { iters: 3 },
        ),
    ] {
        let amg_opts = AmgOpts {
            smoother,
            ..Default::default()
        };
        let build = || Amg::new(&prob.a, prob.near_nullspace.as_ref(), &amg_opts);
        g.bench_function(setup, |bch| bch.iter(build));
        cycles.push((cycle, build(), pinned_block(prob.a.nrows(), 1)));
    }
    g.finish();
    let mut g = c.benchmark_group("amg_vcycle");
    for (name, amg, r) in &cycles {
        let mut z = DMat::zeros(r.nrows(), 1);
        g.bench_function(*name, |bch| bch.iter(|| amg.apply(r, &mut z)));
    }
    g.finish();
}

fn bench_ilu(c: &mut Criterion) {
    // 3-D elasticity: ~81 nonzeros per row gives the level schedule real
    // rows per level, unlike a 5-point stencil.
    let ep = elasticity3d::<f64>(&ElasticityOpts::default());
    let a = &ep.problem.a;
    let n = a.nrows();
    let ilu = Ilu0::new(a).expect("ILU(0) on elasticity");
    let rp = pinned_block(n, P);
    let mut zp = DMat::zeros(n, P);
    let mut g = c.benchmark_group("ilu_apply");
    g.bench_function("levelsched_p8", |bch| bch.iter(|| ilu.apply(&rp, &mut zp)));
    g.bench_function("columnwise_p8", |bch| {
        bch.iter(|| apply_columnwise(&ilu, &rp, &mut zp))
    });
    g.finish();
}

fn bench_schwarz(c: &mut Criterion) {
    let prob = poisson2d::<f64>(64, 32);
    let n = prob.a.nrows();
    let part = partition_rcb(&prob.coords, 8);
    let ras = Schwarz::new(
        &prob.a,
        &part,
        &SchwarzOpts {
            variant: SchwarzVariant::Ras,
            overlap: 2,
            impedance: 0.0,
        },
    );
    let rp = pinned_block(n, P);
    let mut zp = DMat::zeros(n, P);
    let mut g = c.benchmark_group("schwarz_apply");
    g.bench_function("blocked_p8", |bch| bch.iter(|| ras.apply(&rp, &mut zp)));
    g.bench_function("columnwise_p8", |bch| {
        bch.iter(|| apply_columnwise(&ras, &rp, &mut zp))
    });
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10).measurement_time(std::time::Duration::from_secs(2));
    targets = bench_amg, bench_workload_shapes, bench_ilu, bench_schwarz
}
criterion_main!(benches);
