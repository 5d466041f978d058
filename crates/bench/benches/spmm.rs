//! SpMM arithmetic-intensity scaling with the number of RHS columns —
//! the kernel argument of the paper's §V-B2 — and the operator sweeps of
//! the repository benchmark's workloads, by row shape.

use kryst_bench::harness::{print_tiers, BenchmarkId, Criterion, Throughput};
use kryst_bench::{criterion_group, criterion_main};
use kryst_dense::DMat;
use kryst_pde::elasticity::{elasticity3d, ElasticityOpts, PAPER_INCLUSIONS};
use kryst_pde::maxwell::{maxwell3d, MaxwellParams};
use kryst_pde::poisson::poisson2d;
use kryst_precond::{Amg, AmgOpts};
use kryst_scalar::{Scalar, C64};
use kryst_sparse::csr::row_sweep_tier;
use kryst_sparse::Csr;

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

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20).measurement_time(std::time::Duration::from_secs(2));
    targets = bench_spmm, bench_workload_sweeps
}
criterion_main!(benches);
