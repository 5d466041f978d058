//! Span overhead benchmarks.
//!
//! The span guard sits on every hot kernel in the workspace (SpMM,
//! orthogonalization, preconditioner applies, reductions), so its *disabled*
//! cost is the one that matters: a single relaxed atomic load and no clock
//! read. These legs pin that down at two granularities — the raw guard
//! construction in a tight loop, and an end-to-end GMRES(30) solve run with
//! tracing off vs on. The solve pair must stay within run-to-run noise of
//! each other.

use kryst_bench::harness::{black_box, Criterion};
use kryst_bench::{criterion_group, criterion_main};
use kryst_core::{gmres, SolveOpts};
use kryst_dense::DMat;
use kryst_obs::{traced, SpanKind};
use kryst_par::IdentityPrecond;
use kryst_pde::poisson::convdiff2d;

fn bench_obs_overhead(c: &mut Criterion) {
    // Raw guard cost: 1000 enter/exit pairs per iteration, so the per-pair
    // cost reads directly in nanoseconds from the reported microseconds.
    for on in [false, true] {
        kryst_obs::set_trace_enabled(on);
        let name = if on {
            "span_enabled_x1000"
        } else {
            "span_disabled_x1000"
        };
        c.bench_function(name, |b| {
            b.iter(|| {
                for _ in 0..1000 {
                    drop(black_box(traced(SpanKind::Spmv)));
                }
            });
        });
    }

    // End-to-end: the same GMRES(30) solve the comm-fusion benches use,
    // tracing off vs on. The two legs must be within noise of each other —
    // every instrumented region costs one atomic load when disabled, two
    // clock reads and the aggregate update when enabled.
    let a = convdiff2d(32, 0.001, 1.0, 0.3);
    let n = a.nrows();
    let id = IdentityPrecond::new(n);
    let b0 = DMat::from_fn(n, 1, |i, _| ((i % 7) as f64) - 3.0);
    let opts = SolveOpts {
        rtol: 1e-8,
        restart: 30,
        max_iters: 1000,
        ..Default::default()
    };
    for on in [false, true] {
        kryst_obs::set_trace_enabled(on);
        let name = if on {
            "gmres30_convdiff32_trace_on"
        } else {
            "gmres30_convdiff32_trace_off"
        };
        c.bench_function(name, |b| {
            b.iter(|| {
                let mut x = DMat::zeros(n, 1);
                black_box(gmres::solve(&a, &id, &b0, &mut x, &opts));
            });
        });
    }
    kryst_obs::set_trace_enabled(false);
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10).measurement_time(std::time::Duration::from_secs(2));
    targets = bench_obs_overhead
}
criterion_main!(benches);
