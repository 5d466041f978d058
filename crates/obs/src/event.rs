//! Typed solver events.
//!
//! Every field is plain data: events must serialize to JSON-lines without
//! external crates and compare exactly in tests. Communication counts are
//! carried as [`CommSnapshot`]s — the *change* in the instrumented counters
//! since the previous event of the same solve, which is what turns the
//! §III-D per-iteration accounting into an asserted artifact.

use crate::span::SpanKind;
use std::ops::{Add, AddAssign};

/// The instrumented communication counters (`kryst_par::CommStats`), as a
/// point-in-time copy or as the change between two of them
/// ([`CommSnapshot::since`]); events carry the change.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CommSnapshot {
    /// Number of global reductions (all-reduce operations).
    pub reductions: u64,
    /// Payload bytes reduced (per-rank contribution).
    pub reduction_bytes: u64,
    /// Logically separate products batched into the recorded reductions
    /// (a fused `[CᴴW; VᴴW; WᴴW]` reduction counts 1 reduction, 3 parts).
    pub fused_parts: u64,
    /// Point-to-point messages (summed over all ranks).
    pub p2p_messages: u64,
    /// Point-to-point payload bytes (summed over all ranks).
    pub p2p_bytes: u64,
    /// Local floating-point operations (summed over all ranks).
    pub flops: u64,
    /// Portion of `flops` overlappable with in-flight halo messages
    /// (interior SpMM work done while the exchange is on the wire).
    pub overlap_flops: u64,
}

impl CommSnapshot {
    /// Difference of two snapshots (`self` taken after `earlier`).
    pub fn since(&self, earlier: &CommSnapshot) -> CommSnapshot {
        CommSnapshot {
            reductions: self.reductions - earlier.reductions,
            reduction_bytes: self.reduction_bytes - earlier.reduction_bytes,
            fused_parts: self.fused_parts - earlier.fused_parts,
            p2p_messages: self.p2p_messages - earlier.p2p_messages,
            p2p_bytes: self.p2p_bytes - earlier.p2p_bytes,
            flops: self.flops - earlier.flops,
            overlap_flops: self.overlap_flops - earlier.overlap_flops,
        }
    }
}

impl Add for CommSnapshot {
    type Output = CommSnapshot;
    fn add(self, o: CommSnapshot) -> CommSnapshot {
        CommSnapshot {
            reductions: self.reductions + o.reductions,
            reduction_bytes: self.reduction_bytes + o.reduction_bytes,
            fused_parts: self.fused_parts + o.fused_parts,
            p2p_messages: self.p2p_messages + o.p2p_messages,
            p2p_bytes: self.p2p_bytes + o.p2p_bytes,
            flops: self.flops + o.flops,
            overlap_flops: self.overlap_flops + o.overlap_flops,
        }
    }
}

impl AddAssign for CommSnapshot {
    fn add_assign(&mut self, o: CommSnapshot) {
        *self = *self + o;
    }
}

/// One (block) iteration of a solver.
#[derive(Debug, Clone)]
pub struct IterationEvent {
    /// Solver family: `"gmres"`, `"fgmres"`, `"lgmres"`, `"gcrodr"`,
    /// `"pseudo-gmres"`, `"pseudo-gcrodr"`, ….
    pub solver: &'static str,
    /// Position of this solve in a sequence of systems (GCRO-DR contexts
    /// count their solves; standalone solvers report 0).
    pub system_index: usize,
    /// Restart-cycle index within the solve (0-based).
    pub cycle: usize,
    /// Global (block) iteration index within the solve (0-based).
    pub iter: usize,
    /// Per-RHS *relative* residual estimates after this iteration.
    pub per_rhs_residuals: Vec<f64>,
    /// Exact communication delta attributed to this iteration (measured
    /// since the previous iteration event; the first iteration of a cycle
    /// absorbs the cycle-start work, the last iteration of the solve
    /// absorbs the trailing update/refresh work).
    pub comm: CommSnapshot,
    /// Numerical rank detected by the rank-revealing orthogonalization when
    /// it is deficient (`Some(rank) < block width`); `None` when the block
    /// kept full rank.
    pub breakdown_rank: Option<usize>,
    /// Wall-clock nanoseconds since the previous iteration event.
    pub wall_ns: u64,
}

/// The name a [`SpanEvent`] of `kind` carries in traces: the kind's name,
/// except that the refresh keeps the hyphenated spelling traces have always
/// used.
pub fn span_event_name(kind: SpanKind) -> &'static str {
    match kind {
        SpanKind::RecycleRefresh => "recycle-refresh",
        k => k.name(),
    }
}

/// A timed phase of a solve.
///
/// Span deltas are measured with local snapshots and do **not** consume the
/// iteration-delta stream: a span that contains iterations overlaps their
/// deltas; the non-cycle spans (setup, refresh, eigensolve) contain no
/// iterations, so their deltas are disjoint from — and asserted against —
/// the per-iteration accounting.
///
/// A `Restart` span covers the solution update and the restart loop's
/// between-cycle bookkeeping and closes *before* the true residual is
/// recomputed: that residual's operator and preconditioner applies (with a
/// distributed operator, its halo exchange too) are in neither its `comm`
/// nor its `wall_ns`; the next cycle's first iteration event carries them
/// (after the last cycle, the solve's last one).
#[derive(Debug, Clone)]
pub struct SpanEvent {
    /// Solver family (see [`IterationEvent::solver`]).
    pub solver: &'static str,
    /// Position in the system sequence.
    pub system_index: usize,
    /// Phase kind: one of the solve-level kinds ([`SpanKind::Setup`],
    /// `Cycle`, `Restart`, `RecycleRefresh`, `Eigensolve`).
    pub kind: SpanKind,
    /// Restart-cycle index the span belongs to.
    pub cycle: usize,
    /// Communication performed inside the span.
    pub comm: CommSnapshot,
    /// Wall-clock nanoseconds spent in the span.
    pub wall_ns: u64,
}

/// What a [`DiagEvent`] reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DiagKind {
    /// Accumulated orthogonality loss on the fused path exceeded the
    /// single-pass budget (`value` = the running amp² loss estimate,
    /// `detail` = fused passes taken this step).
    OrthLoss,
    /// The rank-revealing orthogonalization detected a deficient block
    /// (`value` = detected rank, `detail` = block width).
    RankCollapse,
    /// Recycle-space quality after a GCRO-DR eigensolve (`value` =
    /// smallest harmonic-Ritz magnitude kept, `detail` = vectors kept).
    RitzQuality,
    /// The residual history stalled (`value` = decay ratio over the
    /// detector window, `detail` = window length in iterations).
    Stagnation,
}

impl DiagKind {
    /// Stable lowercase name used in traces.
    pub fn name(self) -> &'static str {
        match self {
            DiagKind::OrthLoss => "orth-loss",
            DiagKind::RankCollapse => "rank-collapse",
            DiagKind::RitzQuality => "ritz-quality",
            DiagKind::Stagnation => "stagnation",
        }
    }
}

/// A convergence-health diagnostic raised mid-solve.
///
/// Diagnostics are advisory: they never change solver behavior, only
/// surface numerics that the adaptive machinery (re-orthogonalization,
/// breakdown fixup, recycle refresh) is reacting to.
#[derive(Debug, Clone)]
pub struct DiagEvent {
    /// Solver family (see [`IterationEvent::solver`]).
    pub solver: &'static str,
    /// Position in the system sequence.
    pub system_index: usize,
    /// Restart-cycle index the diagnostic belongs to.
    pub cycle: usize,
    /// Global (block) iteration index the diagnostic belongs to.
    pub iter: usize,
    /// What was detected.
    pub kind: DiagKind,
    /// Kind-specific magnitude (see [`DiagKind`]).
    pub value: f64,
    /// Kind-specific integer detail (see [`DiagKind`]).
    pub detail: usize,
}

/// Terminal event of a solve.
#[derive(Debug, Clone)]
pub struct SolveEndEvent {
    /// Solver family.
    pub solver: &'static str,
    /// Position in the system sequence.
    pub system_index: usize,
    /// Total (block) iterations performed.
    pub iterations: usize,
    /// All right-hand sides reached tolerance.
    pub converged: bool,
    /// Final per-RHS relative residuals (true residuals).
    pub final_relres: Vec<f64>,
    /// Whole-solve communication totals (equals the sum of the iteration
    /// deltas by construction).
    pub comm_total: CommSnapshot,
    /// Wall-clock nanoseconds of the whole solve.
    pub wall_ns: u64,
}

/// The event union recorded by a [`crate::recorder::Recorder`].
#[derive(Debug, Clone)]
pub enum Event {
    /// A solve is starting.
    SolveBegin {
        /// Solver family.
        solver: &'static str,
        /// Position in the system sequence.
        system_index: usize,
        /// Operator rows.
        nrows: usize,
        /// Right-hand-side columns.
        nrhs: usize,
        /// Restart length `m`.
        restart: usize,
        /// Recycle dimension `k` (0 for non-recycling solvers).
        recycle: usize,
    },
    /// One (block) iteration.
    Iteration(IterationEvent),
    /// A timed solve phase.
    Span(SpanEvent),
    /// A convergence-health diagnostic.
    Diag(DiagEvent),
    /// A solve finished.
    SolveEnd(SolveEndEvent),
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn comm_delta_adds_fieldwise() {
        let a = CommSnapshot {
            reductions: 1,
            reduction_bytes: 8,
            fused_parts: 3,
            p2p_messages: 2,
            p2p_bytes: 64,
            flops: 100,
            overlap_flops: 60,
        };
        let b = CommSnapshot {
            reductions: 3,
            reduction_bytes: 16,
            fused_parts: 0,
            p2p_messages: 1,
            p2p_bytes: 32,
            flops: 50,
            overlap_flops: 10,
        };
        let c = a + b;
        assert_eq!(c.reductions, 4);
        assert_eq!(c.reduction_bytes, 24);
        assert_eq!(c.fused_parts, 3);
        assert_eq!(c.p2p_messages, 3);
        assert_eq!(c.p2p_bytes, 96);
        assert_eq!(c.flops, 150);
        assert_eq!(c.overlap_flops, 70);
        let mut d = a;
        d += b;
        assert_eq!(d, c);
    }

    #[test]
    fn span_kind_names_are_stable() {
        assert_eq!(span_event_name(SpanKind::Setup), "setup");
        assert_eq!(span_event_name(SpanKind::RecycleRefresh), "recycle-refresh");
        assert_eq!(span_event_name(SpanKind::Eigensolve), "eigensolve");
        assert_eq!(SpanKind::RecycleRefresh.name(), "recycle_refresh");
    }

    #[test]
    fn diag_kind_names_are_stable() {
        assert_eq!(DiagKind::OrthLoss.name(), "orth-loss");
        assert_eq!(DiagKind::RankCollapse.name(), "rank-collapse");
        assert_eq!(DiagKind::RitzQuality.name(), "ritz-quality");
        assert_eq!(DiagKind::Stagnation.name(), "stagnation");
    }
}
