//! Cross-backend transport equivalence (the tentpole invariant of the
//! transport layer): the channel mesh and the socket mesh execute the
//! *identical* collective schedule, so every reduction result — and
//! therefore every solver trace — is bit-identical whichever backend runs
//! it.
//!
//! Socket runs re-exec this test binary as worker processes (the
//! `run_spmd` worker hook keys on the libtest thread name), so each test
//! below is self-contained: no external launcher, no MPI. The persistent
//! [`SpmdWorld`] socket test instead borrows the `kryst_prof` binary, whose
//! `main` starts with `maybe_primitive_worker()`, as its worker executable,
//! since primitive workers can't pass through libtest's `main`.

use kryst_core::{gcrodr, gmres, SolveOpts, SolverContext};
use kryst_dense::DMat;
use kryst_par::collective::all_reduce_sum;
use kryst_par::{
    reduce_stages, run_spmd, HaloPlan, IdentityPrecond, Layout, SpmdRun, SpmdWorld, Transport,
    TransportError, TransportKind,
};
use kryst_pde::poisson::laplace1d;
use kryst_rt::rng::Rng64;

/// World sizes exercised: powers of two and the fold/unfold cases.
const WORLDS: [usize; 6] = [2, 3, 4, 7, 8, 16];

fn pinned_rhs(n: usize, seed: u64) -> DMat<f64> {
    let mut rng = Rng64::seed_from_u64(seed);
    DMat::from_fn(n, 1, |_, _| rng.gen_range(-1.0, 1.0))
}

/// Bit-compare two per-rank result sets.
fn assert_bits_equal(a: &SpmdRun, b: &SpmdRun, what: &str) {
    assert_eq!(a.results.len(), b.results.len(), "{what}: rank count");
    for (r, (ra, rb)) in a.results.iter().zip(&b.results).enumerate() {
        assert_eq!(ra.len(), rb.len(), "{what}: rank {r} result length");
        for (i, (x, y)) in ra.iter().zip(rb).enumerate() {
            assert_eq!(
                x.to_bits(),
                y.to_bits(),
                "{what}: rank {r} element {i}: {x:e} vs {y:e}"
            );
        }
    }
}

/// Deterministic rank-dependent payload (distinct from the spmd-internal
/// `pattern`, so this test does not just replay the runtime's own data).
fn payload(rank: usize, len: usize, salt: usize) -> Vec<f64> {
    (0..len)
        .map(|i| ((rank * 13 + i * 7 + salt) % 101) as f64 * 0.0625 - 3.0)
        .collect()
}

/// Two chained all-reduces of different lengths per rank; results must be
/// bit-identical between the channel and socket backends at every world
/// size, including the non-power-of-two fold/unfold cases, with tracing off
/// and on. Tracing is switched on in this process only: socket workers
/// re-enter this test with `KRYST_RANK` set and keep it off, so a traced
/// socket run mixes a traced rank 0 with untraced peers, and the spans must
/// not move a bit either way.
#[test]
fn all_reduce_bit_identical_across_backends() {
    let worker = std::env::var_os("KRYST_RANK").is_some();
    let reductions = || {
        kryst_obs::aggregates()
            .snapshot()
            .phase(kryst_obs::SpanKind::Reduction)
            .map_or(0, |p| p.count)
    };
    for traced in [false, true] {
        kryst_obs::set_trace_enabled(traced && !worker);
        let before = reductions();
        for p in WORLDS {
            let f = move |t: &dyn Transport| -> Result<Vec<f64>, TransportError> {
                let mut scratch = Vec::new();
                let mut out = Vec::new();
                for (salt, len) in [(0usize, 33usize), (5, 8)] {
                    let mut v = payload(t.rank(), len, salt);
                    let stages = all_reduce_sum(t, &mut v, &mut scratch)?;
                    assert_eq!(stages, reduce_stages(t.nranks()), "stage count");
                    out.extend_from_slice(&v);
                }
                Ok(out)
            };
            let chan = run_spmd(TransportKind::Channel, p, f).expect("channel run");
            let sock = run_spmd(TransportKind::Socket, p, f).expect("socket run");
            assert_bits_equal(&chan, &sock, &format!("all-reduce P={p} traced={traced}"));
            // Same schedule ⇒ same wire message count.
            assert_eq!(chan.messages, sock.messages, "P={p}: wire message totals");
        }
        if traced && !worker {
            assert!(
                reductions() > before,
                "the traced leg recorded no reduction span"
            );
        }
    }
    kryst_obs::set_trace_enabled(false);
}

/// Fingerprint of a solver trace: every quantity a golden trace pins,
/// bit-exact (history and residuals enter as raw IEEE bits).
fn trace_fingerprint(res: &kryst_core::SolveResult) -> Vec<f64> {
    let mut out = vec![
        res.iterations as f64,
        if res.converged { 1.0 } else { 0.0 },
        res.history.len() as f64,
    ];
    // Fold the full history into a positional checksum of the raw bits —
    // any single-bit divergence anywhere in the trajectory changes it.
    let mut acc: u64 = 0xcbf2_9ce4_8422_2325;
    for row in &res.history {
        for v in row {
            acc = acc.rotate_left(7) ^ v.to_bits();
        }
    }
    out.push((acc >> 32) as f64);
    out.push((acc & 0xffff_ffff) as f64);
    for v in &res.final_relres {
        let bits = v.to_bits();
        out.push((bits >> 32) as f64);
        out.push((bits & 0xffff_ffff) as f64);
    }
    out
}

/// GMRES(30) and GCRO-DR(30, 10) golden-trace fingerprints (iteration
/// trajectory, residual history bits) are bit-identical across backends:
/// every rank of both worlds runs the pinned solve and the per-rank
/// fingerprints must agree bitwise, channel vs socket.
#[test]
fn solver_traces_bit_identical_across_backends() {
    let n = 400;
    let f = move |t: &dyn Transport| -> Result<Vec<f64>, TransportError> {
        let a = laplace1d(n);
        let b = pinned_rhs(n, 42);
        let id = IdentityPrecond::new(n);
        let opts = SolveOpts {
            rtol: 1e-8,
            restart: 30,
            recycle: 10,
            max_iters: 90,
            ..Default::default()
        };
        let mut x = DMat::zeros(n, 1);
        let res = gmres::solve(&a, &id, &b, &mut x, &opts);
        let mut fp = trace_fingerprint(&res);
        let mut ctx = SolverContext::new();
        let mut x2 = DMat::zeros(n, 1);
        let res2 = gcrodr::solve(&a, &id, &b, &mut x2, &opts, &mut ctx);
        fp.extend(trace_fingerprint(&res2));
        // Cross-check across ranks on the wire: the bitwise fingerprint sum
        // over P identical ranks must reduce without any rank diverging.
        let mut sum = fp.clone();
        let mut scratch = Vec::new();
        all_reduce_sum(t, &mut sum, &mut scratch)?;
        let p = t.nranks() as f64;
        for (i, (s, v)) in sum.iter().zip(&fp).enumerate() {
            assert_eq!(
                *s,
                v * p,
                "fingerprint[{i}] differs across ranks of one world"
            );
        }
        Ok(fp)
    };
    let chan = run_spmd(TransportKind::Channel, 2, f).expect("channel run");
    let sock = run_spmd(TransportKind::Socket, 2, f).expect("socket run");
    assert_bits_equal(&chan, &sock, "solver traces");
}

/// A worker process dying mid-collective must surface as a *typed* error on
/// the surviving ranks — never a panic, never a hang.
#[test]
fn socket_peer_death_is_typed_error() {
    let f = |t: &dyn Transport| -> Result<Vec<f64>, TransportError> {
        if t.rank() == 1 {
            // One healthy exchange, then die without a word.
            t.send(0, &[1.0])?;
            std::process::exit(3);
        }
        let mut buf = Vec::new();
        t.recv_into(1, &mut buf)?;
        assert_eq!(buf, [1.0]);
        t.recv_into(1, &mut buf)?; // peer is gone: must error, not hang
        Ok(buf)
    };
    let err = run_spmd(TransportKind::Socket, 2, f).expect_err("peer death must error");
    match &err {
        TransportError::PeerClosed { .. } | TransportError::RankFailed { .. } => {}
        other => panic!("expected PeerClosed/RankFailed, got {other}"),
    }
}

/// A persistent socket [`SpmdWorld`] built on the `kryst_prof` worker
/// executable runs every primitive, and puts on the wire exactly the
/// messages and bytes a channel world running the same commands does.
#[test]
fn socket_world_runs_primitives_with_borrowed_worker_exe() {
    let exe = std::path::PathBuf::from(env!("CARGO_BIN_EXE_kryst_prof"));
    let plan = HaloPlan::build(&laplace1d::<f64>(64), &Layout::even(64, 2));
    let run = |world: SpmdWorld| {
        world.all_reduce(8, 4).expect("all-reduce");
        world.ping_pong(8, 4).expect("ping-pong");
        world.halo(&plan, 3, 4).expect("halo");
        let wires = world.shutdown().expect("clean shutdown");
        let msgs: u64 = wires.iter().map(|w| w.msgs_sent).sum();
        let bytes: u64 = wires.iter().map(|w| w.bytes_sent).sum();
        (msgs, bytes)
    };
    let sock = run(
        SpmdWorld::spawn_with_exe(TransportKind::Socket, 2, Some(&exe))
            .expect("socket world via kryst_prof"),
    );
    let chan = run(SpmdWorld::spawn(TransportKind::Channel, 2).expect("channel world"));
    assert!(
        sock.0 > 0 && sock.1 > 0,
        "socket world sent nothing: {sock:?}"
    );
    assert_eq!(sock, chan, "(messages, bytes) socket vs channel");
}
