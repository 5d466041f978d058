//! Span-aggregate determinism and convergence-diagnostics integration tests.
//!
//! Four guarantees are pinned here:
//!
//! 1. **Determinism** — enabling tracing must not perturb a solve in any
//!    observable way: the full iteration trace (residuals bit for bit,
//!    communication deltas, breakdown ranks) and the solution vector are
//!    compared between a tracing-off and a tracing-on run (CI runs this
//!    file under `KRYST_THREADS` ∈ {1, 4}).
//!    The per-kind aggregates count every apply of a pseudo-block solve.
//! 2. **Diagnostics** — the stagnation detector fires exactly once on the
//!    golden stagnating case (GMRES(30) on the 1-D Laplacian) and stays
//!    silent on a converging run longer than its window; CholQR rank
//!    collapse is reported on a duplicate-column block RHS, and a block
//!    that collapses twice keeps a finite solution.
//! 3. **Coverage** — the phases of an LGMRES solve (operator, preconditioner,
//!    orthogonalization, the QR of `H̄`, restart) are disjoint and add up to at least 95 % of
//!    its wall time: no part of a driver is left out of the phase table.
//!    Set-up has a phase of its own, outside every solve: a Fig. 3 run
//!    reports it non-zero and below the time of its solves.
//! 4. **Per-rank reconciliation** — splitting the global communication
//!    counters over ranks via the halo plan reproduces the totals exactly
//!    at P ∈ {2, 4, 8}.

use kryst_core::pseudo::{self, PseudoMethod};
use kryst_core::{gcrodr, gmres, lgmres, PrecondSide, SolveOpts, SolverContext};
use kryst_dense::DMat;
use kryst_obs::{
    aggregates, diags_of, iteration_events, set_trace_enabled, DiagKind, Event, Recorder,
    RingRecorder, SpanKind,
};
use kryst_par::{per_rank_comm, CommStats, DistOp, IdentityPrecond, PrecondOp};
use kryst_pde::elasticity::paper_sequence;
use kryst_pde::maxwell::{antenna_ring_rhs, maxwell3d, MaxwellParams};
use kryst_precond::{Amg, AmgOpts, Jacobi, SmootherKind};
use kryst_rt::rng::Rng64;
use kryst_scalar::C64;
use kryst_sparse::{Coo, Csr};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

/// The span aggregates are one per process: tests that switch tracing on,
/// or that run a solve another test's aggregates would pick up, take turns.
fn profiler_turn() -> MutexGuard<'static, ()> {
    static TURN: Mutex<()> = Mutex::new(());
    TURN.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

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

fn pinned_rhs(n: usize, seed: u64) -> DMat<f64> {
    let mut rng = Rng64::seed_from_u64(seed);
    DMat::from_fn(n, 1, |_, _| rng.gen_range(-1.0, 1.0))
}

fn ring_opts(base: SolveOpts, ring: &Arc<RingRecorder>) -> SolveOpts {
    SolveOpts {
        stats: Some(CommStats::new_shared()),
        recorder: Some(Arc::clone(ring) as Arc<dyn Recorder>),
        ..base
    }
}

/// Everything observable about a solve except wall-clock times.
fn trace_fingerprint(events: &[Event], x: &DMat<f64>) -> Vec<u64> {
    let mut fp = Vec::new();
    for ev in iteration_events(events) {
        fp.push(ev.cycle as u64);
        fp.push(ev.iter as u64);
        for &r in &ev.per_rhs_residuals {
            fp.push(r.to_bits());
        }
        fp.push(ev.comm.reductions);
        fp.push(ev.comm.reduction_bytes);
        fp.push(ev.comm.fused_parts);
        fp.push(ev.comm.p2p_messages);
        fp.push(ev.comm.flops);
        fp.push(ev.breakdown_rank.map(|r| r as u64 + 1).unwrap_or(0));
    }
    for j in 0..x.ncols() {
        for &v in x.col(j) {
            fp.push(v.to_bits());
        }
    }
    fp
}

/// The golden GMRES(30) and GCRO-DR(30,10) traces must be bit-identical
/// with tracing off and on: a span only ever reads the clock.
#[test]
fn tracing_on_off_traces_bit_identical() {
    let _turn = profiler_turn();
    let n = 400;
    let a = laplace1d(n);
    let b = pinned_rhs(n, 42);
    let id = IdentityPrecond::new(n);

    let run_gmres = || {
        let ring = Arc::new(RingRecorder::new(1 << 16));
        let opts = ring_opts(
            SolveOpts {
                rtol: 1e-8,
                restart: 30,
                max_iters: 600,
                ..Default::default()
            },
            &ring,
        );
        let mut x = DMat::zeros(n, 1);
        gmres::solve(&a, &id, &b, &mut x, &opts);
        trace_fingerprint(&ring.events(), &x)
    };
    let run_gcrodr = || {
        let ring = Arc::new(RingRecorder::new(1 << 16));
        let opts = ring_opts(
            SolveOpts {
                rtol: 1e-8,
                restart: 30,
                recycle: 10,
                max_iters: 5000,
                ..Default::default()
            },
            &ring,
        );
        let mut ctx = SolverContext::new();
        let mut x = DMat::zeros(n, 1);
        let res = gcrodr::solve(&a, &id, &b, &mut x, &opts, &mut ctx);
        assert!(res.converged);
        trace_fingerprint(&ring.events(), &x)
    };

    aggregates().reset();
    set_trace_enabled(false);
    let gmres_off = run_gmres();
    let gcrodr_off = run_gcrodr();
    set_trace_enabled(true);
    let gmres_on = run_gmres();
    let gcrodr_on = run_gcrodr();
    set_trace_enabled(false);
    kryst_obs::span::reset_thread();

    assert_eq!(
        gmres_off, gmres_on,
        "tracing perturbed the GMRES iteration trace"
    );
    assert_eq!(
        gcrodr_off, gcrodr_on,
        "tracing perturbed the GCRO-DR iteration trace"
    );
    // And the enabled run actually measured the instrumented kernels.
    let snap = aggregates().snapshot();
    for phase in [
        "spmv",
        "orth/gram",
        "small_dense",
        "recycle_refresh",
        "eigensolve",
    ] {
        assert!(
            snap.phases.iter().any(|p| p.name == phase && p.count > 0),
            "phase {phase} not measured"
        );
    }
}

/// Every part of an LGMRES solve is under a phase: the operator and the
/// preconditioner, the orthogonalization of each step (the stored pairs'
/// included), the QR update of `H̄`, and — between two cycles — the restart.
/// The five do not nest, so their sum is the attributed share of the wall
/// time.
#[test]
fn phases_cover_an_lgmres_solve() {
    let _turn = profiler_turn();
    let a = convdiff2d(96, 0.01, 1.0, 0.3);
    let n = a.nrows();
    let jac = Jacobi::new(&a, 1.0);
    let b = pinned_rhs(n, 11);
    let opts = SolveOpts {
        rtol: 1e-10,
        restart: 30,
        recycle: 10,
        max_iters: 3000,
        ..Default::default()
    };
    let mut x = DMat::zeros(n, 1);
    set_trace_enabled(true);
    aggregates().reset();
    let t0 = std::time::Instant::now();
    let res = lgmres::solve(&a, &jac, &b, &mut x, &opts);
    let wall = t0.elapsed().as_nanos() as f64;
    set_trace_enabled(false);
    kryst_obs::span::reset_thread();
    assert!(res.converged && res.iterations > 90, "{}", res.iterations);
    let snap = aggregates().snapshot();
    let kinds = [
        SpanKind::Spmv,
        SpanKind::PrecondApply,
        SpanKind::OrthGram,
        SpanKind::SmallDense,
        SpanKind::Restart,
    ];
    let covered: u64 = kinds
        .iter()
        .map(|&k| snap.phase(k).map_or(0, |p| p.total_ns))
        .sum();
    assert!(snap.phase(SpanKind::Restart).is_some_and(|p| p.count >= 3));
    let share = covered as f64 / wall;
    assert!(
        (0.95..=1.0).contains(&share),
        "phases cover {:.1} % of the solve:\n{}",
        100.0 * share,
        snap.to_json()
    );
}

/// Set-up is a phase: a Fig. 3 run — four elasticity systems with a moving
/// inclusion, a CG(4)-smoothed AMG hierarchy built for each and FGCRO-DR
/// across them, then LGMRES under point Jacobi — books one `precond_setup`
/// per hierarchy, outside every solve and below what the solves take.
#[test]
fn setup_phase_of_a_fig3_run_is_nonzero_and_below_the_solve() {
    let _turn = profiler_turn();
    let systems = paper_sequence::<f64>(5);
    let n = systems[0].problem.a.nrows();
    let flexible = SolveOpts {
        rtol: 1e-8,
        restart: 30,
        recycle: 10,
        side: PrecondSide::Flexible,
        same_system: false,
        ..Default::default()
    };
    let right = SolveOpts {
        side: PrecondSide::Right,
        max_iters: 20000,
        ..flexible.clone()
    };
    let amg_opts = AmgOpts {
        smoother: SmootherKind::Cg { iters: 4 },
        ..Default::default()
    };
    set_trace_enabled(true);
    aggregates().reset();
    let mut ctx = SolverContext::new();
    let mut solve_ns = 0u128;
    for sys in &systems {
        let near = sys.problem.near_nullspace.as_ref();
        let amg = Amg::new(&sys.problem.a, near, &amg_opts);
        let jac = Jacobi::new(&sys.problem.a, 1.0);
        let b = DMat::from_col_major(n, 1, sys.rhs.clone());
        let t0 = std::time::Instant::now();
        let mut x = DMat::zeros(n, 1);
        let res = gcrodr::solve(&sys.problem.a, &amg, &b, &mut x, &flexible, &mut ctx);
        assert!(res.converged);
        let mut x = DMat::zeros(n, 1);
        let res = lgmres::solve(&sys.problem.a, &jac, &b, &mut x, &right);
        assert!(res.converged);
        solve_ns += t0.elapsed().as_nanos();
    }
    set_trace_enabled(false);
    kryst_obs::span::reset_thread();
    let snap = aggregates().snapshot();
    let setup = snap
        .phase(SpanKind::PrecondSetup)
        .expect("set-up has a phase");
    assert_eq!(setup.count, 4, "one per hierarchy; Jacobi books none");
    assert!(
        0 < setup.total_ns && (setup.total_ns as u128) < solve_ns,
        "set-up {} ns, solves {solve_ns} ns",
        setup.total_ns
    );
}

/// The stagnation detector fires exactly once (latched) on the golden
/// stagnating case: unpreconditioned GMRES(30) on the 1-D Laplacian.
#[test]
fn stagnation_diag_fires_on_gmres30_laplace400() {
    let _turn = profiler_turn();
    let n = 400;
    let a = laplace1d(n);
    let b = pinned_rhs(n, 42);
    let id = IdentityPrecond::new(n);
    let ring = Arc::new(RingRecorder::new(1 << 16));
    let opts = ring_opts(
        SolveOpts {
            rtol: 1e-8,
            restart: 30,
            max_iters: 1500,
            ..Default::default()
        },
        &ring,
    );
    let mut x = DMat::zeros(n, 1);
    let res = gmres::solve(&a, &id, &b, &mut x, &opts);
    assert!(!res.converged, "this case is the stagnation golden");
    let events = ring.events();
    let stag = diags_of(&events, DiagKind::Stagnation);
    assert_eq!(
        stag.len(),
        1,
        "stagnation diagnostic must fire once (latched)"
    );
    assert!(
        stag[0].value > 0.95,
        "reported ratio {} should show a residual plateau",
        stag[0].value
    );
    assert!(stag[0].detail >= 1, "window size is carried in detail");
    assert!(
        stag[0].iter + stag[0].cycle * 30 >= stag[0].detail,
        "cannot fire before one full window of history"
    );
}

/// No stagnation diagnostic on a converging solve longer than the detector
/// window: unpreconditioned GMRES(30) on convection–diffusion converges in
/// ~144 iterations with a monotone-enough residual.
#[test]
fn no_stagnation_diag_on_converging_convdiff() {
    let _turn = profiler_turn();
    let a = convdiff2d(32, 0.001, 1.0, 0.3);
    let n = a.nrows();
    let id = IdentityPrecond::new(n);
    let b = DMat::from_fn(n, 1, |i, _| ((i % 7) as f64) - 3.0);
    let ring = Arc::new(RingRecorder::new(1 << 16));
    let opts = ring_opts(
        SolveOpts {
            rtol: 1e-8,
            restart: 30,
            max_iters: 1000,
            ..Default::default()
        },
        &ring,
    );
    let mut x = DMat::zeros(n, 1);
    let res = gmres::solve(&a, &id, &b, &mut x, &opts);
    assert!(res.converged);
    assert!(
        res.iterations > 60,
        "the case must outlast the detector window to be meaningful"
    );
    let events = ring.events();
    assert!(
        diags_of(&events, DiagKind::Stagnation).is_empty(),
        "no stagnation on a converging trajectory"
    );
}

/// A duplicate-column block RHS collapses the initial CholQR rank; GCRO-DR
/// must report the rank-collapse diagnostic on the first iteration of the
/// affected cycle and still converge via the pseudo-block fallback. The
/// second input, eight antenna right-hand sides with three distinct columns,
/// collapses again later in the cycle; its replacement directions must not
/// be ones the first collapse put into the basis, or `x` turns NaN.
#[test]
fn rank_collapse_diag_fires_on_duplicate_rhs_gcrodr() {
    let _turn = profiler_turn();
    let n = 200;
    let a = laplace1d(n);
    let id = IdentityPrecond::new(n);
    let b1 = pinned_rhs(n, 7);
    let mut b = DMat::zeros(n, 2);
    for i in 0..n {
        let v = b1[(i, 0)];
        b[(i, 0)] = v;
        b[(i, 1)] = v; // identical column → block rank 1
    }
    let ring = Arc::new(RingRecorder::new(1 << 16));
    let opts = ring_opts(
        SolveOpts {
            rtol: 1e-8,
            restart: 30,
            recycle: 10,
            max_iters: 5000,
            ..Default::default()
        },
        &ring,
    );
    let mut ctx = SolverContext::new();
    let mut x = DMat::zeros(n, 2);
    let res = gcrodr::solve(&a, &id, &b, &mut x, &opts, &mut ctx);
    assert!(res.iterations > 0);
    let events = ring.events();
    let collapses = diags_of(&events, DiagKind::RankCollapse);
    assert!(
        !collapses.is_empty(),
        "duplicate columns must trigger a rank-collapse diagnostic"
    );
    let first = collapses[0];
    assert_eq!(first.value, 1.0, "detected rank should be 1 of 2");
    assert_eq!(first.detail, 2, "block width is carried in detail");

    let params = MaxwellParams::with_cylinder(4);
    let (prob, geom) = maxwell3d(&params);
    let n = prob.a.nrows();
    let b = antenna_ring_rhs(&geom, &params, 32, 0.3, 0.55).cols(0, 8);
    ring.clear();
    let opts = ring_opts(
        SolveOpts {
            restart: 50,
            ..Default::default()
        },
        &ring,
    );
    let mut x = DMat::<C64>::zeros(n, 8);
    let id = IdentityPrecond::new(n);
    let res = gcrodr::solve(&prob.a, &id, &b, &mut x, &opts, &mut SolverContext::new());
    let ranks: Vec<f64> = diags_of(&ring.events(), DiagKind::RankCollapse)
        .iter()
        .map(|d| d.value)
        .collect();
    assert!(ranks.len() > 1 && ranks[0] == 3.0, "{ranks:?}");
    assert!(x
        .as_slice()
        .iter()
        .all(|v| v.re.is_finite() && v.im.is_finite()));
    assert!(res.converged, "{:?}", res.final_relres);
}

/// Per-rank attribution of a real solve's counters reconciles exactly with
/// the global snapshot at P ∈ {2, 4, 8}.
#[test]
fn per_rank_imbalance_reconciles_with_comm_snapshot() {
    let _turn = profiler_turn();
    let n = 400;
    let a = laplace1d(n);
    let b = pinned_rhs(n, 42);
    for nranks in [2usize, 4, 8] {
        let stats = CommStats::new_shared();
        let dist = DistOp::new(a.clone(), nranks, Arc::clone(&stats));
        let id = IdentityPrecond::new(n);
        let opts = SolveOpts {
            rtol: 1e-8,
            restart: 30,
            max_iters: 120,
            stats: Some(Arc::clone(&stats)),
            ..Default::default()
        };
        let mut x = DMat::zeros(n, 1);
        gmres::solve(&dist, &id, &b, &mut x, &opts);
        let global = stats.snapshot();
        assert!(global.p2p_messages > 0, "P = {nranks}: no halo traffic?");

        let ranks = per_rank_comm(dist.plan(), &global, nranks);
        assert_eq!(ranks.len(), nranks);
        let msg: u64 = ranks.iter().map(|s| s.p2p_messages).sum();
        let bytes: u64 = ranks.iter().map(|s| s.p2p_bytes).sum();
        let flops: u64 = ranks.iter().map(|s| s.flops).sum();
        assert_eq!(msg, global.p2p_messages, "P = {nranks}: message total");
        assert_eq!(bytes, global.p2p_bytes, "P = {nranks}: byte total");
        assert_eq!(flops, global.flops, "P = {nranks}: flop total");
        for s in &ranks {
            assert_eq!(s.reductions, global.reductions, "collectives are copied");
            assert_eq!(s.fused_parts, global.fused_parts);
        }
    }
}

/// Counts the applies that reach the wrapped preconditioner.
struct CountingPc<'a> {
    inner: &'a dyn PrecondOp<f64>,
    applies: AtomicU64,
}

impl PrecondOp<f64> for CountingPc<'_> {
    fn nrows(&self) -> usize {
        self.inner.nrows()
    }
    fn apply(&self, r: &DMat<f64>, z: &mut DMat<f64>) {
        self.applies.fetch_add(1, Ordering::Relaxed);
        self.inner.apply(r, z);
    }
}

/// Every preconditioner apply of a pseudo-block solve — one per lock-step
/// and true residual, over the columns of all its lanes — is in the
/// `precond_apply` row.
#[test]
fn pseudo_block_precond_applies_are_all_counted() {
    let _turn = profiler_turn();
    let a = convdiff2d(32, 0.01, 1.0, 0.3);
    let n = a.nrows();
    let jac = Jacobi::new(&a, 1.0);
    let pc = CountingPc {
        inner: &jac,
        applies: AtomicU64::new(0),
    };
    let b = DMat::from_fn(n, 3, |i, j| (((i + 5 * j) % 7) as f64) - 3.0);
    let opts = SolveOpts {
        rtol: 1e-8,
        restart: 20,
        max_iters: 2000,
        ..Default::default()
    };
    let mut x = DMat::zeros(n, 3);
    set_trace_enabled(true);
    aggregates().reset();
    let res = pseudo::solve(&a, &pc, &b, &mut x, &opts, PseudoMethod::Gmres, None);
    set_trace_enabled(false);
    kryst_obs::span::reset_thread();
    assert!(res.converged);
    let applies = pc.applies.load(Ordering::Relaxed);
    assert!(applies > 3, "{applies} applies");
    let spans = aggregates().snapshot();
    assert_eq!(
        spans.phase(SpanKind::PrecondApply).map_or(0, |p| p.count),
        applies
    );
}
