//! Cross-backend transport equivalence (the tentpole invariant of the
//! transport layer): the channel mesh and the socket mesh execute the
//! *identical* collective schedule, so every reduction result — and
//! therefore every solver trace — is bit-identical whichever backend runs
//! it.
//!
//! Socket runs re-exec this test binary as worker processes (the
//! `run_spmd` worker hook keys on the libtest thread name), so each test
//! below is self-contained: no external launcher, no MPI. The persistent
//! [`SpmdWorld`] socket test instead borrows the `kryst_calibrate` binary
//! as its worker executable, since primitive workers can't pass through
//! libtest's `main`.

use kryst_core::{gcrodr, gmres, SolveOpts, SolverContext};
use kryst_dense::DMat;
use kryst_par::collective::{all_reduce_sum, ifused_reduce_start, ireduce_start};
use kryst_par::{
    reduce_stages, run_spmd, IdentityPrecond, SpmdRun, SpmdWorld, Transport, TransportError,
    TransportKind,
};
use kryst_rt::rng::Rng64;
use kryst_sparse::{Coo, Csr};

/// World sizes exercised: powers of two and the fold/unfold cases.
const WORLDS: [usize; 6] = [2, 3, 4, 7, 8, 16];

fn laplace1d(n: usize) -> Csr<f64> {
    let mut c = Coo::new(n, n);
    for i in 0..n {
        c.push(i, i, 2.0);
        if i > 0 {
            c.push(i, i - 1, -1.0);
        }
        if i + 1 < n {
            c.push(i, i + 1, -1.0);
        }
    }
    c.to_csr()
}

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
/// size, including the non-power-of-two fold/unfold cases.
#[test]
fn all_reduce_bit_identical_across_backends() {
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
        assert_bits_equal(&chan, &sock, &format!("all-reduce P={p}"));
        // Same schedule ⇒ same wire message count.
        assert_eq!(chan.messages, sock.messages, "P={p}: wire message totals");
    }
}

/// Split-phase (`ireduce_start`/`finish`) and fused split-phase reductions,
/// with local work issued while the butterfly is in flight, are likewise
/// bit-identical across backends.
#[test]
fn split_phase_reduce_bit_identical_across_backends() {
    for p in [3usize, 4, 8] {
        let f = move |t: &dyn Transport| -> Result<Vec<f64>, TransportError> {
            let mut scratch = Vec::new();
            let pending = ireduce_start(t, payload(t.rank(), 21, 1))?;
            // Local work between start and finish (the latency it hides).
            let local: f64 = payload(t.rank(), 64, 2).iter().sum();
            let (mut v, _) = pending.finish(&mut scratch)?;
            let parts = vec![payload(t.rank(), 5, 3), payload(t.rank(), 11, 4)];
            let pending = ifused_reduce_start(t, &parts)?;
            let (fused, _) = pending.finish(&mut scratch)?;
            v.push(local);
            for part in fused {
                v.extend_from_slice(&part);
            }
            Ok(v)
        };
        let chan = run_spmd(TransportKind::Channel, p, f).expect("channel run");
        let sock = run_spmd(TransportKind::Socket, p, f).expect("socket run");
        assert_bits_equal(&chan, &sock, &format!("split-phase P={p}"));
    }
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

/// The PR-7 agglomerated AMG coarse gather/scatter executed over real
/// transport p2p: the corrected rows equal the subset solve applied to the
/// full coarse vector, and the wire counters match the modeled
/// gather/scatter traffic *exactly* (for 8-byte scalars).
#[test]
fn coarse_agglom_execute_matches_model_and_wire() {
    let prob = kryst_pde::poisson::poisson2d::<f64>(24, 24);
    let amg = kryst_precond::Amg::new(
        &prob.a,
        prob.near_nullspace.as_ref(),
        &kryst_precond::AmgOpts::default(),
    );
    let ranks = 4;
    let m = amg
        .coarse_agglom(ranks)
        .expect("agglomeration policy fires");
    assert!(m.gather_msgs > 0, "gather must move rows between ranks");
    assert!(m.subset < ranks, "subset {} gathers nothing", m.subset);
    let coarse_n = m.coarse_n;
    let rhs: Vec<f64> = (0..coarse_n).map(|i| (i % 13) as f64 * 0.5 - 3.0).collect();

    let model = m.clone();
    let rhs_c = rhs.clone();
    let run = run_spmd(TransportKind::Channel, ranks, move |t| {
        let src = kryst_par::Layout::even(model.coarse_n, model.ranks);
        let range = src.range(t.rank());
        let corrected = model.execute(t, &rhs_c[range], |v| {
            for x in v.iter_mut() {
                *x *= 2.0;
            }
        })?;
        Ok(corrected)
    })
    .expect("channel run");

    // Reassembled correction = the solve applied to the whole coarse vector.
    let got: Vec<f64> = run.results.iter().flatten().copied().collect();
    assert_eq!(got.len(), coarse_n);
    for (i, (g, r)) in got.iter().zip(&rhs).enumerate() {
        assert_eq!(*g, r * 2.0, "row {i}");
    }

    // Wire counters == the modeled gather + scatter traffic, exactly.
    let total = run
        .wire
        .iter()
        .fold(kryst_obs::WireSnapshot::default(), |acc, w| acc.merge(w));
    assert_eq!(
        total.msgs_sent as usize,
        m.gather_msgs + m.scatter_msgs,
        "modeled message count"
    );
    assert_eq!(
        total.bytes_sent as usize,
        m.gather_bytes + m.scatter_bytes,
        "modeled byte count"
    );
    assert_eq!(total.msgs_sent, total.msgs_recv, "conservation");
}

/// A persistent socket [`SpmdWorld`] built on the `kryst_calibrate` worker
/// executable: the all-reduce primitive must agree bitwise with the channel
/// world, and calibration must produce positive finite constants.
#[test]
fn socket_world_calibrates_with_borrowed_worker_exe() {
    let exe = std::path::PathBuf::from(env!("CARGO_BIN_EXE_kryst_calibrate"));
    let world = SpmdWorld::spawn_with_exe(TransportKind::Socket, 2, Some(&exe))
        .expect("socket world via calibrate bin");
    let cal = kryst_par::Calibration::measure(&world, 4).expect("socket calibration");
    world.shutdown().expect("clean shutdown");
    assert_eq!(cal.backend, "socket");
    assert_eq!(cal.nranks, 2);
    for (name, v) in [
        ("alpha_msg", cal.alpha_msg),
        ("alpha_reduce", cal.alpha_reduce),
        ("beta", cal.beta),
        ("gamma", cal.gamma),
    ] {
        assert!(v.is_finite() && v > 0.0, "{name} = {v}");
    }
}
