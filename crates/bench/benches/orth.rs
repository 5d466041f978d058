//! Block orthogonalization — the fused CholQR step of the Arnoldi cycle
//! (§III-A/D), its sweeps, and the products between two cycles.

use kryst_bench::harness::{print_tiers, Criterion};
use kryst_bench::{criterion_group, criterion_main};
use kryst_dense::fused::{
    self, fused_accumulate, fused_adjoint_times, fused_gram, fused_update, fused_update_gram,
    ColsRef,
};
use kryst_dense::gs::{fused_orthogonalize_block, fused_orthogonalize_cols};
use kryst_dense::{blas, chol, DMat, Scalar, C64};

fn basis(n: usize, k: usize) -> DMat<f64> {
    let mut v = DMat::from_fn(n, k, |i, j| ((i * 7 + j * 13) % 19) as f64 - 9.0);
    let _ = chol::cholqr(&mut v);
    v
}

fn bench_orth(c: &mut Criterion) {
    let c64 = |p: usize| format!("fused C64 p={p} ({})", fused::body::<C64>(p));
    print_tiers(&[
        (
            &format!("fused f64 ({})", fused::body::<f64>(1)),
            fused::tier::<f64>(),
        ),
        (&c64(8), fused::tier::<C64>()),
        (&c64(1), fused::tier::<C64>()),
    ]);
    let n = 20_000;
    let v = basis(n, 20);
    let w0 = DMat::from_fn(n, 4, |i, j| ((i * 3 + j * 11) % 23) as f64 - 11.0);
    let mut g = c.benchmark_group("orth_against_20_block_4");
    g.bench_function("cholqr", |bch| {
        bch.iter(|| {
            let mut w = w0.clone();
            fused_orthogonalize_block(None, &v, 20, &mut w, false, f64::EPSILON).rank
        });
    });
    g.finish();
}

/// Entries in [−1, 1) hashed from `(i, j, salt)`: a periodic pattern would
/// repeat columns and send every step down the rank-revealing refresh.
fn hashed<S: Scalar>(n: usize, k: usize, salt: usize) -> DMat<S> {
    let part = |i: usize, j: usize, s: usize| {
        let h = (i.wrapping_mul(2654435761) ^ j.wrapping_mul(40503) ^ s.wrapping_mul(69069))
            .wrapping_mul(0x9E37_79B9_7F4A_7C15);
        ((h >> 11) % 20011) as f64 / 10005.5 - 1.0
    };
    DMat::from_fn(n, k, |i, j| {
        S::from_parts(part(i, j, salt), part(i, j, salt + 5))
    })
}

/// The fused sweeps and the whole fused step on one shape: `w` (`n × p`)
/// against `k` orthonormal columns. Group names carry the shape; bytes per
/// sweep are `(k + p)·n·size_of::<S>()` for the Gram product and
/// `(k + 2p)·n·size_of::<S>()` for the update.
fn fused_shape<S: Scalar>(c: &mut Criterion, tag: &str, n: usize, k: usize, p: usize) {
    let mut v = hashed::<S>(n, k, 0);
    let _ = chol::cholqr(&mut v);
    let w0 = hashed::<S>(n, p, 3);
    let mut coef = [hashed::<S>(k, p, 1)];
    coef[0].scale(S::from_f64(1e-3));
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

/// A warm step of a recycling solve as the Arnoldi cycle runs it: `w`
/// (`n × p`) against a recycle space `C` of `kc` orthonormal columns and a
/// basis kept one `n × p` block per Krylov block (`nb` blocks,
/// [`ColsRef::blocks`]) — the sweeps and the fused step.
fn warm_step_shape<S: Scalar>(
    c: &mut Criterion,
    tag: &str,
    n: usize,
    kc: usize,
    nb: usize,
    p: usize,
) {
    let mut all = hashed::<S>(n, kc + nb * p, 0);
    let _ = chol::cholqr(&mut all);
    let cm = all.cols(0, kc);
    let list: Vec<DMat<S>> = (0..nb).map(|b| all.cols(kc + b * p, p)).collect();
    let w0 = hashed::<S>(n, p, 3);
    let blocks = [ColsRef::whole(&cm), ColsRef::blocks(&list)];
    let mut coef = [hashed::<S>(kc, p, 1), hashed::<S>(nb * p, p, 2)];
    coef.iter_mut().for_each(|m| m.scale(S::from_f64(1e-3)));
    let mut g = c.benchmark_group(format!("fused_{tag}_n{n}_c{kc}_v{}_p{p}", nb * p));
    let mut outs = [
        DMat::zeros(kc, p),
        DMat::zeros(nb * p, p),
        DMat::zeros(p, p),
    ];
    let mut w = w0.clone();
    g.bench_function("gram", |b| b.iter(|| fused_gram(&blocks, &w0, &mut outs)));
    g.bench_function("update", |b| {
        b.iter(|| fused_update(&blocks, &coef, &mut w))
    });
    for (name, reorth) in [("step_1pass", false), ("step_2pass", true)] {
        g.bench_function(name, |b| {
            b.iter(|| {
                w.copy_from(&w0);
                let v = ColsRef::blocks(&list);
                fused_orthogonalize_cols(Some(&cm), v, &mut w, reorth, f64::EPSILON).passes
            })
        });
    }
    g.finish();
}

/// The shapes of the repository benchmark's core-bound workloads:
/// `poisson_jacobi_long` (n = 4096, p = 1, up to 30 columns) and
/// `maxwell_block_rhs32` (n = 1176, complex): its block solves (p = 8, up
/// to 400 columns; a warm step against 80 recycled and 72 basis columns)
/// and its pseudo-block lanes (p = 1, 10 recycled and 50 basis columns).
fn bench_fused(c: &mut Criterion) {
    for k in [5, 15, 30] {
        fused_shape::<f64>(c, "f64", 4096, k, 1);
    }
    fused_shape::<C64>(c, "c64", 1176, 400, 8);
    warm_step_shape::<C64>(c, "c64", 1176, 80, 9, 8);
    warm_step_shape::<C64>(c, "c64", 1176, 10, 50, 1);
}

/// What a solver does between two cycles, on one shape: the product of a
/// tall panel (`n × k`) with a small matrix (`k × q`) — `C = [C V]·Q`,
/// `U = [U Z]·P` — and the adjoint product of the panel with `n × q`
/// (`[C V]ᴴ·U`), each through the panel kernels and through `blas::gemm`,
/// which the drivers used before. `2·n·k·q` flops apiece (×4 for complex).
fn restart_shape<S: Scalar>(c: &mut Criterion, tag: &str, n: usize, k: usize, q: usize) {
    let panel = hashed::<S>(n, k, 0);
    let small = [hashed::<S>(k, q, 1)];
    let tall = hashed::<S>(n, q, 2);
    let blocks = [ColsRef::whole(&panel)];
    let mut out = DMat::zeros(n, q);
    let mut proj = [DMat::zeros(k, q)];
    let mut g = c.benchmark_group(format!("restart_{tag}_n{n}_k{k}_q{q}"));
    g.bench_function("product_panel", |b| {
        b.iter(|| {
            out.set_zero();
            fused_accumulate(&blocks, &small, &mut out)
        })
    });
    g.bench_function("product_gemm", |b| {
        b.iter(|| blas::matmul(&panel, blas::Op::None, &small[0], blas::Op::None))
    });
    g.bench_function("adjoint_panel", |b| {
        b.iter(|| fused_adjoint_times(&blocks, &tall, &mut proj))
    });
    g.bench_function("adjoint_gemm", |b| {
        b.iter(|| blas::adjoint_times(&panel, &tall))
    });
    g.finish();
}

/// The restart shapes of `elasticity_varying_seq` (n = 9450, GCRO-DR(30,10)
/// refresh, and the CholQR of an `n × 30` block) and the first-cycle
/// extraction of `maxwell_block_rhs32` (n = 1176, complex, 28 blocks of 8
/// into 10).
fn bench_restart(c: &mut Criterion) {
    restart_shape::<f64>(c, "f64", 9450, 31, 10);
    restart_shape::<C64>(c, "c64", 1176, 224, 80);
    let w0 = hashed::<f64>(9450, 30, 4);
    let mut w = w0.clone();
    let mut gram = [DMat::zeros(30, 30)];
    let mut g = c.benchmark_group("restart_f64_n9450_cholqr30");
    g.bench_function("gram_panel", |b| b.iter(|| fused_gram(&[], &w0, &mut gram)));
    g.bench_function("gram_gemm", |b| b.iter(|| blas::adjoint_times(&w0, &w0)));
    g.bench_function("cholqr", |b| {
        b.iter(|| {
            w.copy_from(&w0);
            chol::cholqr(&mut w).rank
        })
    });
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20).measurement_time(std::time::Duration::from_secs(2));
    targets = bench_orth, bench_fused, bench_restart
}
criterion_main!(benches);
