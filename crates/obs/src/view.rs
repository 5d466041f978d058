//! Read-side helpers over an event stream.
//!
//! The solvers' per-RHS convergence histories are *views* over the
//! iteration events — the same data the conformance tests assert on, so
//! history and accounting can never drift apart.

use crate::event::{CommSnapshot, DiagEvent, DiagKind, Event, IterationEvent, SpanEvent};
use crate::span::SpanKind;

/// The iteration events of a stream, in order.
pub fn iteration_events(events: &[Event]) -> Vec<&IterationEvent> {
    events
        .iter()
        .filter_map(|e| match e {
            Event::Iteration(it) => Some(it),
            _ => None,
        })
        .collect()
}

/// Per-iteration, per-RHS relative residuals — the convergence curves of
/// the paper's Figs. 2–4, reconstructed from the events.
pub fn history(events: &[Event]) -> Vec<Vec<f64>> {
    iteration_events(events)
        .into_iter()
        .map(|it| it.per_rhs_residuals.clone())
        .collect()
}

/// Sum of the iteration deltas — equals the solve's total communication
/// when the stream covers one whole solve.
pub fn cumulative_comm(events: &[Event]) -> CommSnapshot {
    iteration_events(events)
        .into_iter()
        .fold(CommSnapshot::default(), |acc, it| acc + it.comm)
}

/// The span events of a given kind, in order.
pub fn spans_of(events: &[Event], kind: SpanKind) -> Vec<&SpanEvent> {
    events
        .iter()
        .filter_map(|e| match e {
            Event::Span(sp) if sp.kind == kind => Some(sp),
            _ => None,
        })
        .collect()
}

/// The diagnostics of a given kind, in order.
pub fn diags_of(events: &[Event], kind: DiagKind) -> Vec<&DiagEvent> {
    events
        .iter()
        .filter_map(|e| match e {
            Event::Diag(d) if d.kind == kind => Some(d),
            _ => None,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn it(iter: usize, reds: u64, res: f64) -> Event {
        Event::Iteration(IterationEvent {
            solver: "gmres",
            system_index: 0,
            cycle: 0,
            iter,
            per_rhs_residuals: vec![res],
            comm: CommSnapshot {
                reductions: reds,
                ..Default::default()
            },
            breakdown_rank: None,
        })
    }

    #[test]
    fn history_and_cumulative_views() {
        let evs = vec![
            Event::SolveBegin {
                solver: "gmres",
                system_index: 0,
                nrows: 10,
                nrhs: 1,
                restart: 5,
                recycle: 0,
            },
            it(0, 4, 0.5),
            it(1, 3, 0.25),
            Event::Span(SpanEvent {
                solver: "gmres",
                system_index: 0,
                kind: SpanKind::Restart,
                cycle: 0,
                comm: CommSnapshot {
                    reductions: 99,
                    ..Default::default()
                },
            }),
            it(2, 3, 0.125),
        ];
        assert_eq!(history(&evs), vec![vec![0.5], vec![0.25], vec![0.125]]);
        // Span deltas are informational and do not enter the cumulative sum.
        assert_eq!(cumulative_comm(&evs).reductions, 10);
        assert_eq!(spans_of(&evs, SpanKind::Restart).len(), 1);
        assert!(spans_of(&evs, SpanKind::Eigensolve).is_empty());
    }

    #[test]
    fn diags_view_filters_by_kind() {
        let mk = |kind, iter| {
            Event::Diag(DiagEvent {
                solver: "gmres",
                system_index: 0,
                cycle: 0,
                iter,
                kind,
                value: 1.0,
                detail: 0,
            })
        };
        let evs = vec![
            mk(DiagKind::OrthLoss, 1),
            it(1, 0, 0.5),
            mk(DiagKind::Stagnation, 2),
            mk(DiagKind::OrthLoss, 3),
        ];
        let orth = diags_of(&evs, DiagKind::OrthLoss);
        assert_eq!(orth.len(), 2);
        assert_eq!(orth[1].iter, 3);
        assert_eq!(diags_of(&evs, DiagKind::Stagnation).len(), 1);
        assert!(diags_of(&evs, DiagKind::RankCollapse).is_empty());
        // Diag events never contribute comm.
        assert_eq!(cumulative_comm(&evs).reductions, 0);
    }
}
