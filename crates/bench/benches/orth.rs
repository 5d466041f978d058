//! Block orthogonalization backends (CholQR vs CGS vs MGS vs IMGS vs TSQR)
//! — the §III-A choice.

use kryst_bench::harness::{BenchmarkId, Criterion};
use kryst_bench::{criterion_group, criterion_main};
use kryst_dense::fused::{fused_gram, fused_update, fused_update_gram, ColsRef};
use kryst_dense::gs::{fused_orthogonalize_block, orthogonalize_block, OrthScheme};
use kryst_dense::{chol, tsqr, DMat, Scalar, C64};

fn basis(n: usize, k: usize) -> DMat<f64> {
    let mut v = DMat::from_fn(n, k, |i, j| ((i * 7 + j * 13) % 19) as f64 - 9.0);
    let _ = chol::cholqr(&mut v);
    v
}

fn bench_orth(c: &mut Criterion) {
    let n = 20_000;
    let v = basis(n, 20);
    let w0 = DMat::from_fn(n, 4, |i, j| ((i * 3 + j * 11) % 23) as f64 - 11.0);
    let mut g = c.benchmark_group("orth_against_20_block_4");
    for (name, scheme) in [
        ("cholqr", OrthScheme::CholQr),
        ("cgs", OrthScheme::Cgs),
        ("mgs", OrthScheme::Mgs),
        ("imgs", OrthScheme::Imgs),
    ] {
        g.bench_with_input(
            BenchmarkId::from_parameter(name),
            &scheme,
            |bch, &scheme| {
                bch.iter(|| {
                    let mut w = w0.clone();
                    orthogonalize_block(&v, 20, &mut w, scheme)
                });
            },
        );
    }
    g.finish();

    let mut g = c.benchmark_group("tsqr_tall_skinny");
    for blocks in [1usize, 4, 16] {
        g.bench_with_input(
            BenchmarkId::from_parameter(blocks),
            &blocks,
            |bch, &blocks| {
                bch.iter(|| {
                    let mut w = w0.clone();
                    tsqr::tsqr_orthonormalize(&mut w, blocks)
                });
            },
        );
    }
    g.finish();
}

/// The fused sweeps and the whole fused step on one shape: `w` (`n × p`)
/// against `k` orthonormal columns. Group names carry the shape; bytes per
/// sweep are `(k + p)·n·size_of::<S>()` for the Gram product and
/// `(k + 2p)·n·size_of::<S>()` for the update.
fn fused_shape<S: Scalar>(c: &mut Criterion, tag: &str, n: usize, k: usize, p: usize) {
    // Hashed entries in [−1, 1): a periodic pattern would repeat columns
    // and send every step down the rank-revealing refresh.
    let part = |i: usize, j: usize, s: usize| {
        let h = (i.wrapping_mul(2654435761) ^ j.wrapping_mul(40503) ^ s.wrapping_mul(69069))
            .wrapping_mul(0x9E37_79B9_7F4A_7C15);
        ((h >> 11) % 20011) as f64 / 10005.5 - 1.0
    };
    let mut v = DMat::<S>::from_fn(n, k, |i, j| S::from_parts(part(i, j, 0), part(i, j, 5)));
    let _ = chol::cholqr(&mut v);
    let w0 = DMat::<S>::from_fn(n, p, |i, j| S::from_parts(part(i, j, 3), part(i, j, 11)));
    let coef = [DMat::<S>::from_fn(k, p, |i, j| {
        S::from_f64(1e-3 * part(i, j, 1))
    })];
    let blocks = [ColsRef::whole(&v)];
    let mut g = c.benchmark_group(format!("fused_{tag}_n{n}_k{k}_p{p}"));
    let mut outs = [DMat::zeros(k, p), DMat::zeros(p, p)];
    let mut w = w0.clone();
    g.bench_function("gram", |b| b.iter(|| fused_gram(&blocks, &w0, &mut outs)));
    g.bench_function("update", |b| {
        b.iter(|| fused_update(&blocks, &coef, &mut w))
    });
    g.bench_function("update_gram", |b| {
        b.iter(|| fused_update_gram(&blocks, &coef, &mut w, &mut outs))
    });
    for (name, reorth) in [("step_1pass", false), ("step_2pass", true)] {
        g.bench_function(name, |b| {
            b.iter(|| {
                w.copy_from(&w0);
                fused_orthogonalize_block(None, &v, k, &mut w, reorth, f64::EPSILON).passes
            })
        });
    }
    g.finish();
}

/// The two shapes of the repository benchmark's core-bound workloads:
/// `poisson_jacobi_long` (n = 4096, p = 1, up to 30 columns) and
/// `maxwell_block_rhs32` (n = 1176, complex, p = 8, up to 400 columns).
fn bench_fused(c: &mut Criterion) {
    for k in [5, 15, 30] {
        fused_shape::<f64>(c, "f64", 4096, k, 1);
    }
    fused_shape::<C64>(c, "c64", 1176, 400, 8);
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20).measurement_time(std::time::Duration::from_secs(2));
    targets = bench_orth, bench_fused
}
criterion_main!(benches);
