//! The observability invariant, for every solver in `kryst-core`:
//!
//! * the sum of the per-iteration `comm` deltas equals the `SolveEnd`
//!   `comm_total` **and** the raw `CommStats` counters,
//! * the residual histories riding on the events reconstruct
//!   `SolveResult::history` exactly,
//! * begin/end markers carry the right solver name and shape.

use kryst_core::pseudo::{self, PseudoMethod};
use kryst_core::{gcrodr, gmres, lgmres};
use kryst_core::{PrecondSide, SolveOpts, SolveResult, SolverContext};
use kryst_dense::DMat;
use kryst_obs::json::event_to_json;
use kryst_obs::{cumulative_comm, history, iteration_events, Event, Recorder, RingRecorder};
use kryst_par::{CommStats, IdentityPrecond};
use kryst_pde::poisson::{paper_rhs_block, poisson2d};
use std::sync::Arc;

struct Run {
    events: Vec<Event>,
    stats: Arc<CommStats>,
    result: Option<SolveResult>,
}

/// Run `solve` with a fresh recorder + counters attached to `opts`.
fn record(opts: &SolveOpts, solve: impl FnOnce(&SolveOpts) -> Option<SolveResult>) -> Run {
    let stats = CommStats::new_shared();
    let ring = Arc::new(RingRecorder::new(65536));
    let opts = SolveOpts {
        stats: Some(Arc::clone(&stats)),
        recorder: Some(ring.clone() as Arc<dyn Recorder>),
        ..opts.clone()
    };
    let result = solve(&opts);
    Run {
        events: ring.events(),
        stats,
        result,
    }
}

/// The invariant every solver must satisfy.
fn check(name: &str, run: &Run) {
    let events = &run.events;
    let begin = events.first().expect("events emitted");
    match begin {
        Event::SolveBegin { solver, .. } => {
            assert_eq!(*solver, name, "begin marker solver name")
        }
        other => panic!("first event must be SolveBegin, got {other:?}"),
    }
    let end = events
        .iter()
        .find_map(|e| match e {
            Event::SolveEnd(e) => Some(e.clone()),
            _ => None,
        })
        .unwrap_or_else(|| panic!("{name}: SolveEnd emitted"));
    assert_eq!(end.solver, name);

    // Iteration deltas tile the solve: their sum IS the solve total IS the
    // counter total (counters are fresh, so no baseline correction needed).
    let cum = cumulative_comm(events);
    assert_eq!(
        cum, end.comm_total,
        "{name}: iteration deltas must tile the solve"
    );
    let snap = run.stats.snapshot();
    assert_eq!(
        cum, snap,
        "{name}: event stream must match the raw counters"
    );

    let iters = iteration_events(events);
    assert_eq!(
        iters.len(),
        end.iterations,
        "{name}: iteration count on SolveEnd"
    );

    // The history view reconstructs the solver's own history exactly.
    if let Some(res) = &run.result {
        assert_eq!(
            history(events),
            res.history,
            "{name}: history is a view of the events"
        );
        assert_eq!(res.iterations, iters.len());
        assert_eq!(end.converged, res.converged);
        assert_eq!(end.final_relres, res.final_relres);
    }
}

#[test]
fn gmres_single_rhs() {
    let prob = poisson2d::<f64>(16, 16);
    let n = prob.a.nrows();
    let id = IdentityPrecond::new(n);
    let b = DMat::from_fn(n, 1, |i, _| ((i % 7) as f64) - 3.0);
    let opts = SolveOpts {
        rtol: 1e-8,
        restart: 15,
        ..Default::default()
    };
    let run = record(&opts, |o| {
        let mut x = DMat::zeros(n, 1);
        let r = gmres::solve(&prob.a, &id, &b, &mut x, o);
        assert!(r.converged);
        Some(r)
    });
    check("gmres", &run);
}

#[test]
fn block_gmres() {
    let prob = poisson2d::<f64>(14, 14);
    let n = prob.a.nrows();
    let id = IdentityPrecond::new(n);
    let b = paper_rhs_block::<f64>(14, 14);
    let opts = SolveOpts {
        rtol: 1e-8,
        restart: 20,
        ..Default::default()
    };
    let run = record(&opts, |o| {
        let mut x = DMat::zeros(n, b.ncols());
        let r = gmres::solve(&prob.a, &id, &b, &mut x, o);
        assert!(r.converged);
        Some(r)
    });
    check("gmres", &run);
    // Block iteration events carry one residual per RHS.
    let p = b.ncols();
    for ev in iteration_events(&run.events) {
        assert_eq!(ev.per_rhs_residuals.len(), p);
    }
}

#[test]
fn fgmres_flexible() {
    let prob = poisson2d::<f64>(12, 12);
    let n = prob.a.nrows();
    let id = IdentityPrecond::new(n);
    let b = DMat::from_fn(n, 1, |i, _| 1.0 + ((i % 5) as f64));
    let opts = SolveOpts {
        rtol: 1e-8,
        side: PrecondSide::Flexible,
        ..Default::default()
    };
    let run = record(&opts, |o| {
        let mut x = DMat::zeros(n, 1);
        let r = gmres::solve(&prob.a, &id, &b, &mut x, o);
        assert!(r.converged);
        Some(r)
    });
    check("fgmres", &run);
}

#[test]
fn lgmres_augmented() {
    let prob = poisson2d::<f64>(14, 14);
    let n = prob.a.nrows();
    let id = IdentityPrecond::new(n);
    let b = DMat::from_fn(n, 1, |i, _| ((i % 9) as f64) - 4.0);
    let opts = SolveOpts {
        rtol: 1e-8,
        restart: 12,
        recycle: 3,
        ..Default::default()
    };
    let run = record(&opts, |o| {
        let mut x = DMat::zeros(n, 1);
        let r = lgmres::solve(&prob.a, &id, &b, &mut x, o);
        assert!(r.converged);
        Some(r)
    });
    check("lgmres", &run);
}

#[test]
fn gcrodr_with_refresh_and_recycling() {
    let prob = poisson2d::<f64>(16, 16);
    let n = prob.a.nrows();
    let id = IdentityPrecond::new(n);
    let b = DMat::from_fn(n, 1, |i, _| ((i % 7) as f64) - 3.0);
    let opts = SolveOpts {
        rtol: 1e-9,
        restart: 10,
        recycle: 4,
        max_iters: 600,
        ..Default::default()
    };
    // Cold solve (first-cycle GMRES + eigensolve + deflated cycles).
    let mut ctx = SolverContext::new();
    let run = record(&opts, |o| {
        let mut x = DMat::zeros(n, 1);
        let r = gcrodr::solve(&prob.a, &id, &b, &mut x, o, &mut ctx);
        assert!(r.converged);
        Some(r)
    });
    check("gcrodr", &run);
    // Warm solve (setup projection path) — system_index advances.
    let b2 = DMat::from_fn(n, 1, |i, _| ((i % 4) as f64) - 1.5);
    let run2 = record(&opts, |o| {
        let mut x = DMat::zeros(n, 1);
        let r = gcrodr::solve(&prob.a, &id, &b2, &mut x, o, &mut ctx);
        assert!(r.converged);
        Some(r)
    });
    check("gcrodr", &run2);
    match run2.events.first() {
        Some(Event::SolveBegin { system_index, .. }) => assert_eq!(*system_index, 1),
        other => panic!("unexpected first event {other:?}"),
    }
}

#[test]
fn block_gcrodr() {
    let prob = poisson2d::<f64>(14, 14);
    let n = prob.a.nrows();
    let id = IdentityPrecond::new(n);
    let b = paper_rhs_block::<f64>(14, 14);
    let opts = SolveOpts {
        rtol: 1e-8,
        restart: 12,
        recycle: 3,
        max_iters: 600,
        ..Default::default()
    };
    let mut ctx = SolverContext::new();
    let run = record(&opts, |o| {
        let mut x = DMat::zeros(n, b.ncols());
        let r = gcrodr::solve(&prob.a, &id, &b, &mut x, o, &mut ctx);
        assert!(r.converged);
        Some(r)
    });
    check("gcrodr", &run);
}

#[test]
fn pseudo_block_gmres_and_gcrodr() {
    let prob = poisson2d::<f64>(12, 12);
    let n = prob.a.nrows();
    let id = IdentityPrecond::new(n);
    let b = paper_rhs_block::<f64>(12, 12);
    let opts = SolveOpts {
        rtol: 1e-8,
        restart: 15,
        ..Default::default()
    };
    for (method, name) in [
        (PseudoMethod::Gmres, "pseudo-gmres"),
        (PseudoMethod::GcroDr, "pseudo-gcrodr"),
    ] {
        let run = record(&opts, |o| {
            let mut x = DMat::zeros(n, b.ncols());
            let r = pseudo::solve(&prob.a, &id, &b, &mut x, o, method, None);
            assert!(r.converged);
            None // PseudoResult has per-RHS histories, not one SolveResult
        });
        check(name, &run);
        // The fused event stream shows one residual per RHS per iteration.
        for ev in iteration_events(&run.events) {
            assert_eq!(ev.per_rhs_residuals.len(), b.ncols());
        }
    }
}

/// Events carry counts and residuals, never time: the same GCRO-DR(30,10)
/// cold and warm pair, run twice from scratch, records the same JSON lines.
#[test]
fn event_stream_is_deterministic() {
    let prob = poisson2d::<f64>(24, 24);
    let n = prob.a.nrows();
    let id = IdentityPrecond::new(n);
    let b1 = DMat::from_fn(n, 1, |i, _| ((i % 7) as f64) - 3.0);
    let b2 = DMat::from_fn(n, 1, |i, _| ((i % 4) as f64) - 1.5);
    let run = || {
        let ring = Arc::new(RingRecorder::new(65536));
        let opts = SolveOpts {
            rtol: 1e-9,
            restart: 30,
            recycle: 10,
            stats: Some(CommStats::new_shared()),
            recorder: Some(ring.clone() as Arc<dyn Recorder>),
            ..Default::default()
        };
        let mut ctx = SolverContext::new();
        for b in [&b1, &b2] {
            let mut x = DMat::zeros(n, 1);
            assert!(gcrodr::solve(&prob.a, &id, b, &mut x, &opts, &mut ctx).converged);
        }
        ring.events().iter().map(event_to_json).collect::<Vec<_>>()
    };
    let first = run();
    assert!(first.iter().any(|l| l.contains("\"type\":\"span\"")));
    assert_eq!(first, run());
}
