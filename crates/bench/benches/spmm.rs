//! SpMM arithmetic-intensity scaling with the number of RHS columns —
//! the kernel argument of the paper's §V-B2 — the operator sweeps of the
//! repository benchmark's workloads, by row shape, and the level-0 Galerkin
//! products of their AMG set-up.

use kryst_bench::harness::{print_tiers, BenchmarkId, Criterion, Throughput};
use kryst_bench::{criterion_group, criterion_main};
use kryst_dense::DMat;
use kryst_pde::elasticity::{elasticity3d, ElasticityOpts, PAPER_INCLUSIONS};
use kryst_pde::maxwell::{maxwell3d, MaxwellParams};
use kryst_pde::poisson::poisson2d;
use kryst_precond::{Amg, AmgOpts};
use kryst_scalar::{Scalar, C64};
use kryst_sparse::csr::row_sweep_tier;
use kryst_sparse::{ops, Csr};

fn bench_spmm(c: &mut Criterion) {
    print_tiers(&[
        ("Csr row sweep f64", row_sweep_tier::<f64>()),
        ("C64", row_sweep_tier::<C64>()),
    ]);
    let prob = poisson2d::<f64>(96, 96);
    let n = prob.a.nrows();
    let mut g = c.benchmark_group("spmm");
    for p in [1usize, 2, 4, 8, 16, 32] {
        let x = DMat::from_fn(n, p, |i, j| ((i + j) % 13) as f64 - 6.0);
        g.throughput(Throughput::Elements((prob.a.nnz() * p) as u64));
        g.bench_with_input(BenchmarkId::from_parameter(p), &p, |bch, _| {
            let mut y = DMat::zeros(n, p);
            bch.iter(|| prob.a.spmm(&x, &mut y));
        });
    }
    g.finish();
}

/// One group per sweep: `a.spmm` on a pinned `p`-column block.
fn sweep_group<S: Scalar>(c: &mut Criterion, name: &str, a: &Csr<S>, p: usize) {
    let x = DMat::from_fn(a.ncols(), p, |i, j| {
        S::from_parts(((i + 3 * j) % 13) as f64 - 6.0, ((i + j) % 5) as f64 - 2.0)
    });
    let mut y = DMat::zeros(a.nrows(), p);
    let mut g = c.benchmark_group(name);
    g.throughput(Throughput::Elements((a.nnz() * p) as u64));
    g.bench_function("sweep", |bch| bch.iter(|| a.spmm(&x, &mut y)));
    g.finish();
}

/// The sweeps under the four workloads of `benchmark/`: rows of 24–81
/// entries in full 3 × 3 blocks (Fig. 3's elasticity at `ne = 14`, which
/// `spmv` sweeps by block rows) and of 78–517 (its level-0 restriction
/// `Pᵀ`), 5-point rows out of and in L2 (Fig. 2's Poisson at
/// 384² and 64²), and the complex `p = 8` block product of Fig. 8's Maxwell
/// chamber (7–13 entries a row).
fn bench_workload_sweeps(c: &mut Criterion) {
    let elasticity = elasticity3d::<f64>(&ElasticityOpts {
        ne: 14,
        inclusion: Some(PAPER_INCLUSIONS[0]),
        ..Default::default()
    })
    .problem;
    sweep_group(c, "spmv_elasticity14", &elasticity.a, 1);
    sweep_group(c, "spmv_poisson384", &poisson2d::<f64>(384, 384).a, 1);
    sweep_group(c, "spmv_poisson64", &poisson2d::<f64>(64, 64).a, 1);
    // The grid transfers do not depend on the smoother the workload picks.
    let amg = Amg::new(
        &elasticity.a,
        elasticity.near_nullspace.as_ref(),
        &AmgOpts::default(),
    );
    let pt = amg.restriction(0).expect("ne = 14 coarsens");
    sweep_group(c, "restrict_elasticity14", pt, 1);
    let maxwell = maxwell3d(&MaxwellParams::with_cylinder(8)).0;
    sweep_group::<C64>(c, "spmm_maxwell8_p8", &maxwell.a, 8);
}

/// The level-0 Galerkin products `A·P` and `Pᵀ·(AP)` of the two AMG
/// workloads, `P` and `Pᵀ` taken from the hierarchy: Fig. 3's elasticity
/// at `ne = 14` (a node-blocked `A`, so `A·P` takes row triples, and right
/// runs in `Pᵀ·(AP)`) and Fig. 2's Poisson at 384² (the stamped
/// accumulator). The header names the work each product shares.
fn bench_galerkin(c: &mut Criterion) {
    let elasticity = elasticity3d::<f64>(&ElasticityOpts {
        ne: 14,
        inclusion: Some(PAPER_INCLUSIONS[0]),
        ..Default::default()
    })
    .problem;
    let poisson = poisson2d::<f64>(384, 384);
    let mut g = c.benchmark_group("galerkin");
    for (name, prob) in [("elasticity14", &elasticity), ("poisson384", &poisson)] {
        let a = &prob.a;
        let amg = Amg::new(a, prob.near_nullspace.as_ref(), &AmgOpts::default());
        let pt = amg.restriction(0).expect("level 0 coarsens").clone();
        let p = pt.transpose();
        let ap = ops::spgemm(a, &p);
        for (what, l, r) in [("ap", a, &p), ("ptap", &pt, &ap)] {
            let (triples, runs) = ops::shared_work(l, r);
            println!(
                "galerkin/{name}_{what}: {} x {} times {} x {}, {triples} left triples, \
                 {runs} right runs",
                l.nrows(),
                l.ncols(),
                r.nrows(),
                r.ncols()
            );
            g.bench_function(format!("{name}_{what}"), |bch| {
                bch.iter(|| ops::spgemm(l, r))
            });
        }
    }
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20).measurement_time(std::time::Duration::from_secs(2));
    targets = bench_spmm, bench_workload_sweeps, bench_galerkin
}
criterion_main!(benches);
