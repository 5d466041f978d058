//! §III-D conformance suite: the communication cost of every scheme,
//! asserted **exactly** against the typed event stream (`kryst-obs`).
//!
//! Each test runs a solver with both the instrumented counters and a
//! [`RingRecorder`] attached, then checks that the per-iteration
//! `comm.reductions` deltas tile the solve and reproduce closed-form counts
//! of the one orthogonalization path:
//!
//! * GMRES(m) with CholQR: **one fused reduction per iteration** (`VᴴW`
//!   and `WᴴW` in one message), plus one per adaptive second pass — each
//!   reported by an `OrthLoss` diagnostic carrying the step's pass count —
//!   plus **one per cycle start**, the CholQR of the restart residual (the
//!   ε^(1/8) rule gives that CholQR a second pass only when the residual
//!   block is ill conditioned, which a single column never is),
//! * a GCRO-DR deflated iteration adds the `(I − C·Cᴴ)` projection as one
//!   more **part** of the same message, not one more reduction: the paper's
//!   "one extra reduction per iteration" of recycling is one extra part
//!   here; each cycle adds one `CᴴR` projection of its residual,
//! * a recycle-space refresh costs 1 reduction (the column norms of `D`)
//!   plus **one extra for strategy A** (eq. (3a) needs `[C V]ᴴ·U`; eq. (3b)
//!   assumes orthogonality and skips it),
//! * `same_system` drops the `A·U` re-orthonormalization from the setup, so
//!   the setup span records 1 reduction instead of 2,
//! * the lanes of a pseudo-block solve ship their `k`-th reductions between
//!   two lock-steps as one message: a lock-step reduces as often as its
//!   busiest lane, with the parts and bytes of all of them.

use kryst_core::pseudo::{self, PseudoMethod};
use kryst_core::{gcrodr, gmres, RecycleStrategy, SolveOpts, SolverContext};
use kryst_dense::DMat;
use kryst_obs::{
    cumulative_comm, diags_of, iteration_events, spans_of, DiagKind, Event, Recorder, RingRecorder,
    SpanKind,
};
use kryst_par::{CommStats, DistOp, IdentityPrecond};
use kryst_pde::poisson::poisson2d;
use std::sync::Arc;

fn poisson_setup(nx: usize) -> (kryst_sparse::Csr<f64>, DMat<f64>) {
    let prob = poisson2d::<f64>(nx, nx);
    let n = prob.a.nrows();
    let b = DMat::from_fn(n, 1, |i, _| ((i % 7) as f64) - 3.0);
    (prob.a, b)
}

fn solve_end(events: &[Event]) -> kryst_obs::SolveEndEvent {
    events
        .iter()
        .find_map(|e| match e {
            Event::SolveEnd(e) => Some(e.clone()),
            _ => None,
        })
        .expect("SolveEnd emitted")
}

/// Number of distinct cycles seen in the iteration events.
fn cycle_count(events: &[Event]) -> usize {
    iteration_events(events)
        .iter()
        .map(|e| e.cycle)
        .max()
        .map(|c| c + 1)
        .unwrap_or(0)
}

/// Fused passes of each iteration of the solve, by iteration index: 1, or
/// the pass count of the `OrthLoss` diagnostic raised on that iteration.
fn passes_per_iteration(events: &[Event]) -> Vec<u64> {
    let mut passes = vec![1u64; iteration_events(events).len()];
    for d in diags_of(events, DiagKind::OrthLoss) {
        passes[d.iter] = d.detail as u64;
    }
    passes
}

/// GMRES(m) with CholQR: exactly `Σ passes + cycles` reductions — one per
/// fused pass and one per cycle-start CholQR — and the deltas land on the
/// right events (the cycle-start CholQR is absorbed by the first iteration
/// of its cycle).
#[test]
fn gmres_cholqr_reduction_count_is_exact() {
    let (a, b) = poisson_setup(24);
    let n = a.nrows();
    let id = IdentityPrecond::new(n);
    let stats = CommStats::new_shared();
    let ring = Arc::new(RingRecorder::new(8192));
    let opts = SolveOpts {
        rtol: 1e-8,
        restart: 20,
        stats: Some(Arc::clone(&stats)),
        recorder: Some(ring.clone() as Arc<dyn Recorder>),
        ..Default::default()
    };
    let mut x = DMat::zeros(n, 1);
    let res = gmres::solve(&a, &id, &b, &mut x, &opts);
    assert!(res.converged);

    let events = ring.events();
    let iters = iteration_events(&events);
    assert_eq!(iters.len(), res.iterations);
    let cycles = cycle_count(&events);
    assert!(
        res.iterations > opts.restart,
        "need multiple cycles for the formula"
    );
    let passes = passes_per_iteration(&events);

    // Exact §III-D total.
    let expected = passes.iter().sum::<u64>() + cycles as u64;
    assert_eq!(cumulative_comm(&events).reductions, expected);
    assert_eq!(stats.snapshot().reductions, expected);
    assert_eq!(solve_end(&events).comm_total.reductions, expected);

    // Exact per-event attribution: the step's passes, plus the restart
    // residual's CholQR on a cycle's first iteration.
    let steps = within_cycle_steps(&iters);
    for (ev, &j) in iters.iter().zip(&steps) {
        let want = passes[ev.iter] + u64::from(j == 0);
        assert_eq!(
            ev.comm.reductions, want,
            "cycle {} iter {}: delta {}",
            ev.cycle, ev.iter, ev.comm.reductions
        );
    }
    assert_eq!(
        iters[0].comm.reductions,
        passes[0] + 1,
        "solve-start CholQR rides on iteration 0"
    );
}

/// Second GCRO-DR solve on the same operator (`same_system`, pure deflated
/// cycles): exactly `Σ passes + 2·cycles + 1` reductions — one per fused
/// pass, the restart CholQR and the `CᴴR` update per cycle, and the one-off
/// setup projection. The recycled block costs no reduction of its own.
#[test]
fn gcrodr_deflated_cycle_count_is_exact() {
    let (a, b) = poisson_setup(24);
    let n = a.nrows();
    let id = IdentityPrecond::new(n);
    let stats = CommStats::new_shared();
    let opts_warm = SolveOpts {
        rtol: 1e-8,
        restart: 20,
        recycle: 8,
        same_system: true,
        stats: Some(Arc::clone(&stats)),
        ..Default::default()
    };
    let mut ctx = SolverContext::new();
    let mut x = DMat::zeros(n, 1);
    assert!(gcrodr::solve(&a, &id, &b, &mut x, &opts_warm, &mut ctx).converged);

    stats.reset();
    let ring = Arc::new(RingRecorder::new(8192));
    let opts = SolveOpts {
        recorder: Some(ring.clone() as Arc<dyn Recorder>),
        ..opts_warm.clone()
    };
    let b2 = DMat::from_fn(n, 1, |i, _| ((i % 5) as f64) - 2.0);
    let mut x = DMat::zeros(n, 1);
    let second = gcrodr::solve(&a, &id, &b2, &mut x, &opts, &mut ctx);
    assert!(second.converged);
    assert!(second.iterations > 0);

    let events = ring.events();
    let iters = iteration_events(&events);
    assert_eq!(iters.len(), second.iterations);
    let cycles = cycle_count(&events);
    let passes = passes_per_iteration(&events);

    let expected = 1 + 2 * cycles as u64 + passes.iter().sum::<u64>();
    assert_eq!(cumulative_comm(&events).reductions, expected);
    assert_eq!(stats.snapshot().reductions, expected);
    assert_eq!(solve_end(&events).comm_total.reductions, expected);

    // Per event: the step's passes; a cycle's first iteration also carries
    // the cycle's `CᴴR` projection and its restart CholQR, and iteration 0
    // the setup projection. Each pass batches `CᴴW`, `VᴴW` and `WᴴW`: the
    // deflated iteration pays one part more than GMRES's two, not one
    // reduction more.
    let steps = within_cycle_steps(&iters);
    for (ev, &j) in iters.iter().zip(&steps) {
        let want = passes[ev.iter] + 2 * u64::from(j == 0) + u64::from(ev.iter == 0);
        assert_eq!(
            ev.comm.reductions, want,
            "cycle {} iter {}",
            ev.cycle, ev.iter
        );
        assert_eq!(
            ev.comm.fused_parts,
            3 * passes[ev.iter],
            "cycle {} iter {}",
            ev.cycle,
            ev.iter
        );
    }
    // The recycle space never refreshes on the same_system fast path.
    assert!(spans_of(&events, SpanKind::RecycleRefresh).is_empty());
}

/// Refresh cost: strategy A's eq. (3a) refresh records exactly 2 reductions
/// (column norms of `D` + the fused `[C V]ᴴ·U` Gram), strategy B's eq. (3b)
/// exactly 1 — measured on the `RecycleRefresh` spans themselves.
#[test]
fn refresh_spans_show_strategy_a_extra_reduction() {
    let (a, b) = poisson_setup(28);
    let n = a.nrows();
    let id = IdentityPrecond::new(n);
    for (strat, want) in [(RecycleStrategy::A, 2u64), (RecycleStrategy::B, 1u64)] {
        let ring = Arc::new(RingRecorder::new(16384));
        let opts = SolveOpts {
            rtol: 1e-9,
            restart: 8,
            recycle: 3,
            recycle_strategy: strat,
            stats: Some(CommStats::new_shared()),
            recorder: Some(ring.clone() as Arc<dyn Recorder>),
            max_iters: 600,
            ..Default::default()
        };
        let mut ctx = SolverContext::new();
        let mut x = DMat::zeros(n, 1);
        let res = gcrodr::solve(&a, &id, &b, &mut x, &opts, &mut ctx);
        assert!(res.converged, "{strat:?}");
        let events = ring.events();
        let refreshes = spans_of(&events, SpanKind::RecycleRefresh);
        assert!(!refreshes.is_empty(), "{strat:?}: no refresh happened");
        for sp in refreshes {
            assert_eq!(
                sp.comm.reductions, want,
                "{strat:?} refresh at cycle {} recorded {} reductions",
                sp.cycle, sp.comm.reductions
            );
        }
    }
}

/// `same_system` skips the `A·U` CholQR on reuse: the setup span of a warm
/// solve records exactly 1 reduction (the `CᴴR` projection) on the fast
/// path and exactly 2 when the operator changed.
#[test]
fn same_system_setup_span_skips_au_qr() {
    let (a, b) = poisson_setup(24);
    let n = a.nrows();
    let id = IdentityPrecond::new(n);
    for (same, want) in [(true, 1u64), (false, 2u64)] {
        let opts_warm = SolveOpts {
            rtol: 1e-9,
            restart: 10,
            recycle: 4,
            same_system: same,
            stats: Some(CommStats::new_shared()),
            max_iters: 600,
            ..Default::default()
        };
        let mut ctx = SolverContext::new();
        let mut x = DMat::zeros(n, 1);
        assert!(gcrodr::solve(&a, &id, &b, &mut x, &opts_warm, &mut ctx).converged);
        let ring = Arc::new(RingRecorder::new(16384));
        let opts = SolveOpts {
            recorder: Some(ring.clone() as Arc<dyn Recorder>),
            ..opts_warm
        };
        let b2 = DMat::from_fn(n, 1, |i, _| ((i % 4) as f64) - 1.5);
        let mut x = DMat::zeros(n, 1);
        assert!(gcrodr::solve(&a, &id, &b2, &mut x, &opts, &mut ctx).converged);
        let events = ring.events();
        let setups = spans_of(&events, SpanKind::Setup);
        assert_eq!(setups.len(), 1);
        assert_eq!(
            setups[0].comm.reductions, want,
            "same_system={same}: setup recorded {} reductions",
            setups[0].comm.reductions
        );
    }
}

/// The distributed operator's halo traffic: message COUNT is independent of
/// the number of RHS columns (pseudo-block/block fusion), while the byte
/// volume scales linearly with p — §V-B2's "MPI buffers are p times bigger".
#[test]
fn spmm_messages_independent_of_p_bytes_linear_in_p() {
    let prob = poisson2d::<f64>(32, 32);
    let stats = CommStats::new_shared();
    let op = DistOp::new(prob.a, 8, Arc::clone(&stats));
    let n = 32 * 32;
    let mut runs = Vec::new();
    for p in [1usize, 4, 16] {
        stats.reset();
        let x = DMat::from_fn(n, p, |i, j| (i + j) as f64);
        let _ = kryst_par::LinOp::apply_new(&op, &x);
        let snap = stats.snapshot();
        runs.push((p, snap.p2p_messages, snap.p2p_bytes));
    }
    assert_eq!(runs[0].1, runs[1].1);
    assert_eq!(runs[1].1, runs[2].1);
    assert_eq!(runs[1].2, 4 * runs[0].2);
    assert_eq!(runs[2].2, 16 * runs[0].2);
}

/// Within-cycle Arnoldi step index of each iteration event (0-based): the
/// `j` in the §III-D per-iteration formulas.
fn within_cycle_steps(iters: &[&kryst_obs::IterationEvent]) -> Vec<usize> {
    let mut steps = Vec::with_capacity(iters.len());
    let mut cur = usize::MAX;
    let mut j = 0;
    for ev in iters {
        if ev.cycle != cur {
            cur = ev.cycle;
            j = 0;
        }
        steps.push(j);
        j += 1;
    }
    steps
}

/// Fused-path bytes and parts: iteration `j` of a GMRES(m)/CholQR cycle
/// reduces once per pass, the projection coefficients and the Gram batched
/// into one `(j+2)·8`-byte message of 2 parts, and the cycle-start CholQR
/// adds its own 8-byte Gram as a plain (unbatched) reduction. Locks the
/// accounting to the message sizes §III-D argues about.
#[test]
fn fused_reduction_bytes_and_parts_are_exact() {
    let (a, b) = poisson_setup(24);
    let n = a.nrows();
    let id = IdentityPrecond::new(n);
    let ring = Arc::new(RingRecorder::new(8192));
    let opts = SolveOpts {
        rtol: 1e-8,
        restart: 20,
        stats: Some(CommStats::new_shared()),
        recorder: Some(ring.clone() as Arc<dyn Recorder>),
        ..Default::default()
    };
    let mut x = DMat::zeros(n, 1);
    assert!(gmres::solve(&a, &id, &b, &mut x, &opts).converged);

    let events = ring.events();
    let iters = iteration_events(&events);
    let steps = within_cycle_steps(&iters);
    let passes = passes_per_iteration(&events);
    let w = std::mem::size_of::<f64>() as u64;
    for (ev, &j) in iters.iter().zip(&steps) {
        let (passes, start) = (passes[ev.iter], u64::from(j == 0));
        assert_eq!(
            ev.comm.fused_parts,
            2 * passes,
            "cycle {} step {j}",
            ev.cycle
        );
        assert_eq!(
            ev.comm.reduction_bytes,
            passes * (j as u64 + 2) * w + start * w,
            "cycle {} step {j}",
            ev.cycle
        );
    }
}

/// Fused deflated GCRO-DR cycles: the recycled-block projection `CᴴW` is a
/// third part of the *same* fused reduction — a deflated iteration `j`
/// synchronizes once per pass, carrying `k + j + 2` coefficients in 3 parts.
#[test]
fn fused_deflated_cycle_parts_are_exact() {
    let (a, b) = poisson_setup(24);
    let n = a.nrows();
    let id = IdentityPrecond::new(n);
    let k = 8usize;
    let opts_warm = SolveOpts {
        rtol: 1e-8,
        restart: 20,
        recycle: k,
        same_system: true,
        ..Default::default()
    };
    let mut ctx = SolverContext::new();
    let mut x = DMat::zeros(n, 1);
    assert!(gcrodr::solve(&a, &id, &b, &mut x, &opts_warm, &mut ctx).converged);
    let ring = Arc::new(RingRecorder::new(8192));
    let opts = SolveOpts {
        recorder: Some(ring.clone() as Arc<dyn Recorder>),
        stats: Some(CommStats::new_shared()),
        ..opts_warm
    };
    let b2 = DMat::from_fn(n, 1, |i, _| ((i % 5) as f64) - 2.0);
    let mut x = DMat::zeros(n, 1);
    assert!(gcrodr::solve(&a, &id, &b2, &mut x, &opts, &mut ctx).converged);

    let events = ring.events();
    let iters = iteration_events(&events);
    let steps = within_cycle_steps(&iters);
    let passes = passes_per_iteration(&events);
    let w = std::mem::size_of::<f64>() as u64;
    // Interior iterations only: a cycle's first iteration additionally
    // carries its `CᴴR` projection and restart CholQR.
    let mut interior = 0;
    for (ev, &j) in iters.iter().zip(&steps) {
        if j == 0 {
            continue;
        }
        let passes = passes[ev.iter];
        assert_eq!(ev.comm.reductions, passes, "cycle {} step {j}", ev.cycle);
        assert_eq!(
            ev.comm.fused_parts,
            3 * passes,
            "cycle {} step {j}",
            ev.cycle
        );
        assert_eq!(
            ev.comm.reduction_bytes,
            passes * (k as u64 + j as u64 + 2) * w,
            "cycle {} step {j}",
            ev.cycle
        );
        interior += 1;
    }
    assert!(interior > 0, "no interior deflated iterations observed");
}

/// Pseudo-block GMRES over three right-hand sides against three single-RHS
/// runs. Every lane steps at every lock-step until it converges, so
/// lock-step `t` merges step `t` of each lane still running: the event
/// reduces as often as the busiest of them and carries all their parts and
/// bytes.
#[test]
fn pseudo_block_lanes_merge_their_reductions() {
    let (a, _) = poisson_setup(24);
    let n = a.nrows();
    let id = IdentityPrecond::new(n);
    let b = DMat::from_fn(n, 3, |i, j| ((i * (j + 2) % 7) as f64) - 3.0);
    type Solve<'a> = &'a dyn Fn(&DMat<f64>, &mut DMat<f64>, &SolveOpts) -> bool;
    let run = |b: &DMat<f64>, solve: Solve<'_>| {
        let ring = Arc::new(RingRecorder::new(8192));
        let stats = CommStats::new_shared();
        let opts = SolveOpts {
            rtol: 1e-8,
            restart: 20,
            stats: Some(Arc::clone(&stats)),
            recorder: Some(ring.clone() as Arc<dyn Recorder>),
            ..Default::default()
        };
        let mut x = DMat::zeros(n, b.ncols());
        assert!(solve(b, &mut x, &opts));
        let events = ring.events();
        assert_eq!(cumulative_comm(&events), stats.snapshot());
        let comm: Vec<_> = iteration_events(&events).iter().map(|e| e.comm).collect();
        comm
    };
    let lanes: Vec<_> = (0..3)
        .map(|l| {
            run(&b.cols(l, 1), &|b, x, o| {
                gmres::solve(&a, &id, b, x, o).converged
            })
        })
        .collect();
    let merged = run(&b, &|b, x, o| {
        pseudo::solve(&a, &id, b, x, o, PseudoMethod::Gmres, None).converged
    });
    let lengths: Vec<usize> = lanes.iter().map(Vec::len).collect();
    assert!(lengths.iter().any(|&len| len != lengths[0]), "{lengths:?}");
    assert_eq!(merged.len(), *lengths.iter().max().unwrap());
    for (t, got) in merged.iter().enumerate() {
        let at: Vec<_> = lanes.iter().filter_map(|lane| lane.get(t)).collect();
        let most = at.iter().map(|d| d.reductions).max();
        assert_eq!(Some(got.reductions), most, "lock-step {t}");
        let parts: u64 = at.iter().map(|d| d.fused_parts).sum();
        assert_eq!(got.fused_parts, parts, "lock-step {t}");
        let bytes: u64 = at.iter().map(|d| d.reduction_bytes).sum();
        assert_eq!(got.reduction_bytes, bytes, "lock-step {t}");
    }
}

/// The phases of a pseudo-block GCRO-DR lane (set-up, eigensolve, refresh,
/// restart) count into the lane's own counters, so its span events carry
/// exactly what the same phases carry in the single-RHS solve of that
/// column: per span kind, the reductions of the pseudo-block solve's spans
/// sum to those of the per-column solves, over two systems in sequence.
#[test]
fn pseudo_block_spans_carry_their_lanes_reductions() {
    let nx = 16;
    let a = poisson2d::<f64>(nx, nx).a;
    let n = a.nrows();
    let id = IdentityPrecond::new(n);
    let b1 = kryst_pde::poisson::paper_rhs_block::<f64>(nx, nx);
    let b2 = DMat::from_fn(n, 4, |i, l| b1[(i, l)] + ((i * (l + 1)) % 3) as f64);
    let kinds = [
        SpanKind::Setup,
        SpanKind::Eigensolve,
        SpanKind::RecycleRefresh,
        SpanKind::Restart,
    ];
    let ring = Arc::new(RingRecorder::new(1 << 16));
    let opts = SolveOpts {
        rtol: 1e-8,
        restart: 10,
        recycle: 3,
        stats: Some(CommStats::new_shared()),
        recorder: Some(ring.clone() as Arc<dyn Recorder>),
        ..Default::default()
    };
    let span_sums = |events: &[Event]| -> Vec<u64> {
        let sum = |k| spans_of(events, k).iter().map(|s| s.comm.reductions).sum();
        kinds.iter().map(|&k| sum(k)).collect()
    };
    let (mut ctxs, mut seq) = (Vec::new(), Vec::new());
    seq.resize_with(4, SolverContext::new);
    let (mut pseudo_sums, mut column_sums) = (vec![0; kinds.len()], vec![0; kinds.len()]);
    for b in [&b1, &b2] {
        let mut x = DMat::zeros(n, 4);
        let ctx = Some(&mut ctxs);
        assert!(pseudo::solve(&a, &id, b, &mut x, &opts, PseudoMethod::GcroDr, ctx).converged);
        let sums = span_sums(&ring.events());
        pseudo_sums.iter_mut().zip(sums).for_each(|(t, s)| *t += s);
        ring.clear();
        for (l, ctx) in seq.iter_mut().enumerate() {
            let mut x = DMat::zeros(n, 1);
            assert!(gcrodr::solve(&a, &id, &b.cols(l, 1), &mut x, &opts, ctx).converged);
            let sums = span_sums(&ring.events());
            column_sums.iter_mut().zip(sums).for_each(|(t, s)| *t += s);
            ring.clear();
        }
    }
    for (k, kind) in kinds.iter().enumerate() {
        assert_eq!(pseudo_sums[k], column_sums[k], "{kind:?}");
    }
    assert!(pseudo_sums[0] > 0 && pseudo_sums[2] > 0, "{pseudo_sums:?}");
}
