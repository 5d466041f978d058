//! Transport-layer microbenchmarks: ping-pong latency and butterfly
//! all-reduce time on both backends.
//!
//! Each measurement drives a persistent [`SpmdWorld`] — worker ranks stay
//! alive between samples, so the socket numbers measure the wire, not
//! process spawning. One `iter` call batches [`REPS`] primitive round
//! trips.
//!
//! The bench binary doubles as its own socket worker: `main` hands control
//! to [`kryst_par::maybe_primitive_worker`] before any group runs, so the
//! re-exec'd children never reach the harness.

use kryst_bench::criterion_group;
use kryst_bench::harness::Criterion;
use kryst_par::{SpmdWorld, TransportKind};
use std::time::Duration;

/// Primitive round trips batched into one timed `iter` call.
const REPS: usize = 16;

fn bench_transport(c: &mut Criterion) {
    let mut g = c.benchmark_group("transport");
    for kind in [TransportKind::Channel, TransportKind::Socket] {
        let world = SpmdWorld::spawn(kind, 2).expect("ping-pong world spawns");
        g.bench_function(format!("pingpong_{}", kind.name()), |b| {
            b.iter(|| world.ping_pong(1, REPS).expect("ping-pong runs"));
        });
        world.shutdown().expect("ping-pong world shuts down");

        for p in [2usize, 4, 8] {
            let world = SpmdWorld::spawn(kind, p).expect("all-reduce world spawns");
            g.bench_function(format!("allreduce_{}_p{p}", kind.name()), |b| {
                b.iter(|| world.all_reduce(8, REPS).expect("all-reduce runs"));
            });
            world.shutdown().expect("all-reduce world shuts down");
        }
    }
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .sample_size(10)
        .measurement_time(Duration::from_secs(1));
    targets = bench_transport
}

fn main() {
    kryst_par::maybe_primitive_worker();
    benches();
}
