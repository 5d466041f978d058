//! Communication-fusion benchmarks: the fused one-reduction
//! orthogonalization step at GCRO-DR depth, and the end-to-end solver wall
//! time on top of it.
//!
//! The fused step does the projection, the Gram product, and the CholQR
//! downdate in one sweep over `V`; its latency win is a *distributed*
//! effect (one synchronization per pass, §III-D).

use kryst_bench::harness::Criterion;
use kryst_bench::{criterion_group, criterion_main};
use kryst_core::{gmres, SolveOpts};
use kryst_dense::gs::fused_orthogonalize_block;
use kryst_dense::DMat;
use kryst_par::IdentityPrecond;
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

fn bench_comm_fusion(c: &mut Criterion) {
    // One deep-basis orthogonalization step at GCRO-DR shape: n = 50000,
    // 30 basis columns, single new vector. The fused step does the
    // projection + Gram in one sweep and gets its R factor from the
    // downdate.
    let n = 50_000;
    let m = 30;
    // Orthonormal-ish basis: disjoint normalized index blocks, plus a dense
    // tail so the projection has real work to do.
    let mut v = DMat::zeros(n, m);
    for j in 0..m {
        let blk = n / m;
        for i in 0..blk {
            v[(j * blk + i, j)] = (blk as f64).sqrt().recip();
        }
    }
    let w0 = DMat::from_fn(n, 1, |i, _| (((i * 13 + 5) % 101) as f64 - 50.0) / 50.0);

    c.bench_function("orth_fused_50000x30", |bch| {
        bch.iter(|| {
            let mut w = w0.clone();
            fused_orthogonalize_block(None, &v, m, &mut w, false, 0.0)
        });
    });

    // End-to-end GMRES(30) on the convection–diffusion problem of the
    // modeled fig. 7 demo.
    let a = convdiff2d(32, 0.001, 1.0, 0.3);
    let an = a.nrows();
    let id = IdentityPrecond::new(an);
    let b = DMat::from_fn(an, 1, |i, _| ((i % 7) as f64) - 3.0);
    c.bench_function("gmres30_convdiff32_fused", |bch| {
        bch.iter(|| {
            let opts = SolveOpts {
                rtol: 1e-8,
                restart: 30,
                max_iters: 1000,
                ..Default::default()
            };
            let mut x = DMat::zeros(an, 1);
            gmres::solve(&a, &id, &b, &mut x, &opts)
        });
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10).measurement_time(std::time::Duration::from_secs(2));
    targets = bench_comm_fusion
}
criterion_main!(benches);
