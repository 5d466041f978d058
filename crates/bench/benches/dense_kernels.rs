//! Dense kernels on GCRO-DR-sized problems: gemm, incremental QR,
//! eigen-solves of the deflation dimension.

use kryst_bench::harness::{print_tiers, BenchmarkId, Criterion};
use kryst_bench::{criterion_group, criterion_main};
use kryst_dense::qr::IncrementalQr;
use kryst_dense::{blas, eig, DMat, C64};

fn bench_dense(c: &mut Criterion) {
    print_tiers(&[("eig", eig::tier())]);
    // Basis update gemm: tall-skinny times small (the solution update).
    let n = 50_000;
    let v = DMat::from_fn(n, 30, |i, j| ((i + j * 7) % 11) as f64 - 5.0);
    let y = DMat::from_fn(30, 1, |i, _| i as f64 * 0.1);
    c.bench_function("gemm_tall_50000x30_x1", |bch| {
        bch.iter(|| blas::matmul(&v, blas::Op::None, &y, blas::Op::None));
    });
    c.bench_function("gram_50000x30", |bch| {
        bch.iter(|| blas::adjoint_times(&v, &v));
    });

    // Incremental QR of a block Hessenberg (m = 30, p = 4).
    c.bench_function("incremental_qr_m30_p4", |bch| {
        let p = 4;
        let m = 30;
        let s1 = DMat::from_fn(p, p, |i, j| if i <= j { 1.0 + (i + j) as f64 } else { 0.0 });
        bch.iter(|| {
            let mut qr = IncrementalQr::new(m, p);
            qr.reset(&s1);
            for j in 0..m {
                let col = DMat::from_fn((j + 2) * p, p, |i, q| ((i * 7 + q) % 13) as f64 - 6.0);
                qr.push_block(&col);
            }
            qr.solve_y()
        });
    });

    // Deflation eigenproblem sizes: real Hessenberg of growing order, then
    // the shapes the workloads solve, each keeping what the solver keeps.
    let mut g = c.benchmark_group("eig_deflation");
    for m in [30usize, 60, 120] {
        let a = DMat::from_fn(m, m, |i, j| {
            if i <= j + 1 {
                (((i * 5 + j * 3) % 17) as f64 - 8.0) / 4.0 + if i == j { 5.0 } else { 0.0 }
            } else {
                0.0
            }
        });
        g.bench_with_input(BenchmarkId::from_parameter(m), &a, |bch, a| {
            bch.iter(|| eig::eig(a));
        });
    }
    // Block GCRO-DR(50,10) at p = 8 after a 28-step cycle (Maxwell): the
    // first-cycle extraction's 224 × 224 complex problem, 80 vectors kept.
    let bh224 = block_hessenberg(224, 8);
    g.bench_function("c64_bh224_p8_keep80", |bch| {
        bch.iter(|| {
            let d = eig::eig(&bh224);
            d.vectors(&d.smallest_indices(80))
        });
    });
    // A pseudo-block lane of the same solver: one 50-step cycle of width 1.
    let h50 = block_hessenberg(50, 1);
    g.bench_function("c64_h50_p1_keep10", |bch| {
        bch.iter(|| {
            let d = eig::eig(&h50);
            d.vectors(&d.smallest_indices(10))
        });
    });
    // The refresh of GCRO-DR(30,10) on one right-hand side (elasticity):
    // `T·z = θ·W·z` of order 10 + 20 with `T = GᴴG`, `W = GᴴJ`.
    let gmat = DMat::from_fn(31, 30, |i, j| {
        if i <= j + 1 {
            (((i * 7 + j * 5) % 13) as f64 - 6.0) / 6.0 + if i == j { 3.0 } else { 0.0 }
        } else {
            0.0
        }
    });
    let jmat = DMat::from_fn(31, 30, |i, j| {
        gmat[(i, j)]
            + if i == j {
                0.5
            } else {
                ((i + 3 * j) % 5) as f64 * 0.01
            }
    });
    let t = blas::matmul(&gmat, blas::Op::ConjTrans, &gmat, blas::Op::None);
    let w = blas::matmul(&gmat, blas::Op::ConjTrans, &jmat, blas::Op::None);
    g.bench_function("f64_gen30_keep10", |bch| {
        bch.iter(|| {
            let d = eig::eig_generalized(&t, &w);
            d.vectors(&d.smallest_indices(10))
        });
    });
    g.finish();
}

/// A complex block upper Hessenberg matrix of block width `p` whose last
/// `p` columns are full: the shape of a cycle's `H_m` after the rank-`p`
/// update of the harmonic-Ritz problem.
fn block_hessenberg(n: usize, p: usize) -> DMat<C64> {
    DMat::from_fn(n, n, |i, j| {
        if i <= j + p || j + p >= n {
            let re = ((i * 5 + j * 3) % 17) as f64 / 4.0 - 2.0;
            let im = ((i * 3 + j * 7) % 11) as f64 / 5.0 - 1.0;
            C64::new(re + if i == j { 5.0 } else { 0.0 }, im)
        } else {
            C64::zero()
        }
    })
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10).measurement_time(std::time::Duration::from_secs(2));
    targets = bench_dense
}
criterion_main!(benches);
