//! Solve-side event emission.
//!
//! [`SolveTracer`] is the single funnel every solver in this crate emits
//! through. It owns three jobs:
//!
//! 1. **History.** Per-iteration, per-RHS relative residuals are pushed here
//!    and become [`crate::SolveResult::history`] — and, when a recorder is
//!    attached, the *same* vectors ride on the iteration events, so
//!    `kryst_obs::history(events)` reconstructs the solver's history exactly.
//! 2. **Delta attribution.** Communication counters are sampled with a
//!    [`CommInterval`] once per iteration event; each event carries the
//!    change since the previous event. The first iteration of a solve
//!    absorbs the setup work before it, and [`SolveTracer::finish`] folds
//!    the trailing work (recycle refresh, true-residual check) into the
//!    *last* iteration event — so the sum of the iteration deltas equals the
//!    whole-solve total **by construction**, which the conformance suite
//!    asserts for every solver.
//! 3. **Spans.** Phases (setup / cycle / restart / recycle-refresh /
//!    eigensolve) open one `kryst_obs::span` each, which the phase table
//!    aggregates when tracing is on; with a recorder they are also emitted
//!    as span events whose deltas are measured with local snapshots of the
//!    counters the phase's work counts into (a pseudo-block lane's own, see
//!    [`SolveTracer::span_start`]) and do not advance the iteration
//!    interval, so they overlay the iteration stream without perturbing it.
//!
//! With no recorder the tracer skips event construction entirely: per
//! iteration it costs one `Option` check beyond the history push the solvers
//! always did.

use crate::opts::SolveOpts;
use kryst_obs::span::{self, OpenSpan};
use kryst_obs::{
    DiagEvent, DiagKind, Event, IterationEvent, Recorder, SolveEndEvent, SpanEvent, SpanKind,
    StagnationDetector,
};
use kryst_par::{CommInterval, CommSnapshot, CommStats};
use std::cell::RefCell;
use std::sync::Arc;
use std::time::Instant;

/// Start marker of a [`SolveTracer`] span (see [`SolveTracer::span_start`]).
pub struct SpanProbe {
    kind: SpanKind,
    open: Option<OpenSpan>,
    /// Start time and the counters measured from there, taken only when a
    /// recorder is attached.
    event: Option<(Instant, CommInterval)>,
}

/// Per-solve event emitter (see module docs).
pub struct SolveTracer {
    rec: Option<Arc<dyn Recorder>>,
    solver: &'static str,
    system_index: usize,
    interval: CommInterval,
    base: CommSnapshot,
    t0: Instant,
    t_last: Instant,
    pending: Option<IterationEvent>,
    /// Diagnostics raised since the last flushed iteration event. They are
    /// flushed *after* the iteration they belong to, in one
    /// [`Recorder::record_batch`] call, so the recorder lock is taken once
    /// per solver step. `RefCell` because diagnostic sites (e.g. GCRO-DR's
    /// recycle refresh) only hold `&SolveTracer`.
    pending_diags: RefCell<Vec<DiagEvent>>,
    stagnation: StagnationDetector,
    history: Vec<Vec<f64>>,
    /// Open distributed-trace span covering the work leading to the next
    /// iteration event (see `kryst_obs::span`); `None` when tracing is off.
    iter_span: Option<OpenSpan>,
}

impl SolveTracer {
    /// Begin tracing one solve; emits the `SolveBegin` marker when a
    /// recorder is attached and enabled.
    pub fn begin(
        opts: &SolveOpts,
        solver: &'static str,
        system_index: usize,
        nrows: usize,
        nrhs: usize,
    ) -> Self {
        let rec = opts.recorder.clone();
        let interval = CommInterval::start(opts.stats.clone());
        let base = interval.now();
        if let Some(r) = &rec {
            r.record(&Event::SolveBegin {
                solver,
                system_index,
                nrows,
                nrhs,
                restart: opts.restart,
                recycle: opts.recycle,
            });
        }
        let now = Instant::now();
        Self {
            rec,
            solver,
            system_index,
            interval,
            base,
            t0: now,
            t_last: now,
            pending: None,
            pending_diags: RefCell::new(Vec::new()),
            stagnation: StagnationDetector::default_solver(),
            history: Vec::new(),
            iter_span: span::begin(SpanKind::Iteration),
        }
    }

    /// Whether events are being recorded.
    pub fn enabled(&self) -> bool {
        self.rec.is_some()
    }

    /// Record one (block) iteration. `residuals` are the per-RHS relative
    /// residual estimates after the iteration; they are appended to the
    /// history unconditionally and carried on the event when recording.
    pub fn iteration(
        &mut self,
        cycle: usize,
        iter: usize,
        residuals: Vec<f64>,
        breakdown_rank: Option<usize>,
    ) {
        // Rotate the per-rank trace span: close the one covering this
        // iteration's work, open the next. One relaxed load when tracing is
        // off (both calls are no-ops), so results stay bit-identical.
        span::end(self.iter_span.take(), 0, 0, self.history.len() as u64);
        self.iter_span = span::begin(SpanKind::Iteration);
        if let Some(rec) = &self.rec {
            let comm = self.interval.take();
            let now = Instant::now();
            let wall_ns = now.duration_since(self.t_last).as_nanos() as u64;
            self.t_last = now;
            let ev = IterationEvent {
                solver: self.solver,
                system_index: self.system_index,
                cycle,
                iter,
                per_rhs_residuals: residuals.clone(),
                comm,
                breakdown_rank,
                wall_ns,
            };
            if let Some(prev) = self.pending.replace(ev) {
                let mut batch = vec![Event::Iteration(prev)];
                batch.extend(self.pending_diags.borrow_mut().drain(..).map(Event::Diag));
                rec.record_batch(&batch);
            }
            // Auto-diagnostics for *this* iteration — queued after the
            // flush above so they ride behind their own iteration event.
            if let Some(rank) = breakdown_rank {
                self.pending_diags.borrow_mut().push(DiagEvent {
                    solver: self.solver,
                    system_index: self.system_index,
                    cycle,
                    iter,
                    kind: DiagKind::RankCollapse,
                    value: rank as f64,
                    detail: residuals.len(),
                });
            }
            let worst = residuals.iter().copied().fold(f64::NAN, f64::max);
            if let Some(ratio) = self.stagnation.push(worst) {
                self.pending_diags.borrow_mut().push(DiagEvent {
                    solver: self.solver,
                    system_index: self.system_index,
                    cycle,
                    iter,
                    kind: DiagKind::Stagnation,
                    value: ratio,
                    detail: self.stagnation.window(),
                });
            }
        }
        self.history.push(residuals);
    }

    /// Queue a convergence diagnostic for the iteration identified by
    /// `(cycle, iter)`. Diagnostics are flushed in the same
    /// [`Recorder::record_batch`] as the iteration event they follow (or
    /// with the final batch at [`SolveTracer::finish`]). No-op when not
    /// recording.
    pub fn diag(&self, cycle: usize, iter: usize, kind: DiagKind, value: f64, detail: usize) {
        if self.rec.is_some() {
            self.pending_diags.borrow_mut().push(DiagEvent {
                solver: self.solver,
                system_index: self.system_index,
                cycle,
                iter,
                kind,
                value,
                detail,
            });
        }
    }

    /// Begin a span of `kind` whose work counts into `stats`: opens the
    /// `kryst_obs::span` of the phase table and, when recording, notes the
    /// clock and the counters for the event. A lane of a multi-lane solve
    /// counts into its own counters, which reach the solve's only at the
    /// next lock-step, so its phases pass those (`Cx::opts.stats`); a span
    /// must then close before that lock-step. Cheap when neither is on.
    pub fn span_start(&self, kind: SpanKind, stats: Option<&Arc<CommStats>>) -> SpanProbe {
        SpanProbe {
            kind,
            open: span::begin(kind),
            event: self
                .rec
                .as_ref()
                .map(|_| (Instant::now(), CommInterval::start(stats.cloned()))),
        }
    }

    /// End a span started with [`SolveTracer::span_start`]: close its
    /// `kryst_obs::span` and, when recording, emit its [`SpanEvent`]. Span
    /// deltas use local snapshots and do not advance the iteration interval.
    pub fn span_end(&self, probe: SpanProbe, cycle: usize) {
        span::end(probe.open, 0, 0, cycle as u64);
        if let (Some(r), Some((t, counters))) = (&self.rec, probe.event) {
            let comm = counters.peek();
            r.record(&Event::Span(SpanEvent {
                solver: self.solver,
                system_index: self.system_index,
                kind: probe.kind,
                cycle,
                comm,
                wall_ns: t.elapsed().as_nanos() as u64,
            }));
        }
    }

    /// Finish the solve: fold the trailing communication into the last
    /// iteration event, flush it, and emit `SolveEnd`. Returns the history
    /// for [`crate::SolveResult`].
    pub fn finish(mut self, converged: bool, final_relres: &[f64]) -> Vec<Vec<f64>> {
        // The span opened after the last iteration covers only trailing
        // work, not an iteration — drop it unrecorded so span counts equal
        // iteration counts.
        self.iter_span = None;
        if let Some(r) = self.rec.take() {
            let tail = self.interval.take();
            let now = Instant::now();
            let mut batch = Vec::new();
            if let Some(mut last) = self.pending.take() {
                last.comm += tail;
                last.wall_ns += now.duration_since(self.t_last).as_nanos() as u64;
                batch.push(Event::Iteration(last));
            }
            batch.extend(self.pending_diags.borrow_mut().drain(..).map(Event::Diag));
            let comm_total = self.interval.now().since(&self.base);
            batch.push(Event::SolveEnd(SolveEndEvent {
                solver: self.solver,
                system_index: self.system_index,
                iterations: self.history.len(),
                converged,
                final_relres: final_relres.to_vec(),
                comm_total,
                wall_ns: now.duration_since(self.t0).as_nanos() as u64,
            }));
            r.record_batch(&batch);
        }
        self.history
    }

    /// Iterations recorded so far.
    pub fn iterations(&self) -> usize {
        self.history.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kryst_obs::{cumulative_comm, RingRecorder};
    use kryst_par::CommStats;

    #[test]
    fn deltas_tile_the_solve_and_history_is_a_view() {
        let stats = CommStats::new_shared();
        let ring = Arc::new(RingRecorder::new(1024));
        let opts = SolveOpts {
            stats: Some(Arc::clone(&stats)),
            recorder: Some(ring.clone() as Arc<dyn Recorder>),
            ..SolveOpts::default()
        };
        stats.record_reduction(8); // pre-solve noise stays out of the totals
        let mut tr = SolveTracer::begin(&opts, "test", 3, 100, 2);

        stats.record_reductions(2, 16); // setup → absorbed by iteration 0
        tr.iteration(0, 0, vec![1.0, 0.9], None);
        stats.record_reductions(3, 24);
        tr.iteration(0, 1, vec![0.5, 0.4], Some(1));
        stats.record_reduction(8); // trailing work → folded into iteration 1
        let history = tr.finish(true, &[0.5, 0.4]);

        assert_eq!(history, vec![vec![1.0, 0.9], vec![0.5, 0.4]]);
        let events = ring.events();
        assert_eq!(kryst_obs::history(&events), history);
        let iters = kryst_obs::iteration_events(&events);
        assert_eq!(iters.len(), 2);
        assert_eq!(iters[0].comm.reductions, 2);
        assert_eq!(iters[1].comm.reductions, 4);
        assert_eq!(iters[1].breakdown_rank, Some(1));
        let end = events
            .iter()
            .find_map(|e| match e {
                Event::SolveEnd(e) => Some(e.clone()),
                _ => None,
            })
            .expect("solve end emitted");
        assert_eq!(end.comm_total, cumulative_comm(&events));
        assert_eq!(end.iterations, 2);
    }

    #[test]
    fn diags_flush_after_their_iteration_and_auto_detectors_fire() {
        let stats = CommStats::new_shared();
        let ring = Arc::new(RingRecorder::new(4096));
        let opts = SolveOpts {
            stats: Some(Arc::clone(&stats)),
            recorder: Some(ring.clone() as Arc<dyn Recorder>),
            ..SolveOpts::default()
        };
        let mut tr = SolveTracer::begin(&opts, "test", 0, 100, 2);
        tr.iteration(0, 0, vec![1.0, 1.0], None);
        tr.diag(0, 0, DiagKind::OrthLoss, 1e-12, 2);
        tr.iteration(0, 1, vec![0.9, 0.9], Some(1));
        // Flat residuals past the detector window must raise Stagnation.
        for i in 2..70 {
            tr.iteration(0, i, vec![0.9, 0.9], None);
        }
        let _ = tr.finish(false, &[0.9, 0.9]);
        let events = ring.events();

        let orth = kryst_obs::diags_of(&events, DiagKind::OrthLoss);
        assert_eq!(orth.len(), 1);
        assert_eq!((orth[0].cycle, orth[0].iter), (0, 0));
        // The manual diag for iteration 0 appears after Iteration(0).
        let pos_iter0 = events
            .iter()
            .position(|e| matches!(e, Event::Iteration(it) if it.iter == 0))
            .unwrap();
        let pos_diag = events
            .iter()
            .position(|e| matches!(e, Event::Diag(d) if d.kind == DiagKind::OrthLoss))
            .unwrap();
        let pos_iter1 = events
            .iter()
            .position(|e| matches!(e, Event::Iteration(it) if it.iter == 1))
            .unwrap();
        assert!(pos_iter0 < pos_diag && pos_diag < pos_iter1);

        let rank = kryst_obs::diags_of(&events, DiagKind::RankCollapse);
        assert_eq!(rank.len(), 1);
        assert_eq!(rank[0].value, 1.0);
        assert_eq!(rank[0].detail, 2);

        let stag = kryst_obs::diags_of(&events, DiagKind::Stagnation);
        assert_eq!(stag.len(), 1, "latched: exactly one firing");
        assert!(stag[0].value > 0.99);
        assert_eq!(stag[0].detail, 30);
    }

    #[test]
    fn untracked_tracer_still_builds_history() {
        let opts = SolveOpts::default();
        let mut tr = SolveTracer::begin(&opts, "test", 0, 10, 1);
        assert!(!tr.enabled());
        tr.iteration(0, 0, vec![1.0], None);
        let probe = tr.span_start(SpanKind::Setup, None);
        tr.span_end(probe, 0);
        let h = tr.finish(false, &[1.0]);
        assert_eq!(h, vec![vec![1.0]]);
    }

    #[test]
    fn spans_do_not_perturb_iteration_deltas() {
        let stats = CommStats::new_shared();
        let ring = Arc::new(RingRecorder::new(64));
        let opts = SolveOpts {
            stats: Some(Arc::clone(&stats)),
            recorder: Some(ring.clone() as Arc<dyn Recorder>),
            ..SolveOpts::default()
        };
        let mut tr = SolveTracer::begin(&opts, "test", 0, 10, 1);
        let probe = tr.span_start(SpanKind::Setup, Some(&stats));
        stats.record_reductions(5, 40);
        tr.span_end(probe, 0);
        tr.iteration(0, 0, vec![0.1], None);
        let _ = tr.finish(true, &[0.1]);
        let events = ring.events();
        let sp = kryst_obs::spans_of(&events, SpanKind::Setup);
        assert_eq!(sp[0].comm.reductions, 5);
        // The span's reductions still belong to the iteration stream.
        assert_eq!(cumulative_comm(&events).reductions, 5);
    }
}
