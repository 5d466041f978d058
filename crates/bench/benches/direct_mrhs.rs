//! Fig. 6 kernel: banded direct solve with p right-hand sides.

use kryst_bench::harness::{BenchmarkId, Criterion, Throughput};
use kryst_bench::{criterion_group, criterion_main};
use kryst_dense::DMat;
use kryst_pde::maxwell::{maxwell3d, MaxwellParams};
use kryst_scalar::Complex;
use kryst_sparse::SparseDirect;

fn bench_direct(c: &mut Criterion) {
    let (prob, _) = maxwell3d(&MaxwellParams::matching_solution(8));
    let n = prob.a.nrows();
    let fac = SparseDirect::factor(&prob.a).expect("nonsingular");
    let mut g = c.benchmark_group("direct_solve_mrhs");
    for p in [1usize, 4, 16, 64] {
        let b = DMat::from_fn(n, p, |i, j| {
            Complex::new(((i + j) % 7) as f64 - 3.0, ((i * 3 + j) % 5) as f64 - 2.0)
        });
        g.throughput(Throughput::Elements((n * p) as u64));
        let (mut x, mut scratch) = (b.clone(), b.clone());
        g.bench_with_input(BenchmarkId::from_parameter(p), &p, |bch, _| {
            bch.iter(|| {
                x.copy_from(&b);
                fac.solve_in_place_ws(&mut x, &mut scratch, 8, 1);
            });
        });
    }
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10).measurement_time(std::time::Duration::from_secs(3));
    targets = bench_direct
}
criterion_main!(benches);
