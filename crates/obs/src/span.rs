//! The instrumentation spine: one span stream for every timed region.
//!
//! Every timed region — a kernel, a collective, a preconditioner apply, a
//! solve phase — opens one span of a [`SpanKind`]: the guard [`traced`], or
//! [`begin`]/[`end`] where the region does not fit one scope (a split-phase
//! reduction, a solver iteration). Closing a span folds its duration into
//! the **per-kind aggregates** ([`crate::profiler`]; per-thread relaxed
//! atomics summed on read, exact and never lossy). That is all a span does.
//!
//! One gate: when tracing is disabled (the default) opening a span is **one
//! relaxed bool load and no clock read**, so solver results — and golden
//! traces — are bit-identical with tracing on or off. Enable with
//! `KRYST_TRACE=1` or at runtime via [`set_trace_enabled`].

use crate::profiler::{Aggregates, ThreadAggregates};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

/// AMG levels with a kind of their own; deeper levels fold into the last.
pub const MAX_PRECOND_LEVELS: usize = 8;

/// Number of aggregate slots: one per named kind, one per level.
pub(crate) const NUM_SLOTS: usize = 13 + MAX_PRECOND_LEVELS;

const LEVEL_NAMES: [&str; MAX_PRECOND_LEVELS] = [
    "precond/l0",
    "precond/l1",
    "precond/l2",
    "precond/l3",
    "precond/l4",
    "precond/l5",
    "precond/l6",
    "precond/l7",
];

/// What a span measures — the one vocabulary of the phase table and the
/// solve events.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum SpanKind {
    /// One solver (block) iteration.
    Iteration,
    /// A butterfly all-reduce, fused or not, split-phase or not; also the
    /// projected operator's Gram product.
    Reduction,
    /// One halo exchange on a live world.
    Halo,
    /// One preconditioner application.
    PrecondApply,
    /// Sparse matrix-(block-)vector products.
    Spmv,
    /// Block orthogonalization Gram products and updates.
    OrthGram,
    /// Small dense kernels: eigensolves, QR/LU factorizations.
    SmallDense,
    /// Building a preconditioner from the operator: the AMG hierarchy, the
    /// Schwarz subdomain factors. Outside every solve.
    PrecondSetup,
    /// Solve setup: recycle-space reuse / initial-guess correction
    /// (GCRO-DR Fig. 1 lines 2–9).
    Setup,
    /// A whole restart cycle.
    Cycle,
    /// What a solver does between two cycles, short of the new residual:
    /// the solution update and the bookkeeping of LGMRES' stored pairs or
    /// GCRO-DR's `U`-side correction.
    Restart,
    /// Recycle-space refresh (Fig. 1 lines 31–38).
    RecycleRefresh,
    /// The deflation eigenproblem (eq. (2) / eq. (3)).
    Eigensolve,
    /// One AMG level's own cycle work (smoother, residual and transfers at
    /// level `l`; levels past [`MAX_PRECOND_LEVELS`] share the last slot).
    PrecondLevel(usize),
}

impl SpanKind {
    /// One kind per aggregate slot, in slot order.
    pub(crate) const ALL: [SpanKind; NUM_SLOTS] = [
        SpanKind::Iteration,
        SpanKind::Reduction,
        SpanKind::Halo,
        SpanKind::PrecondApply,
        SpanKind::Spmv,
        SpanKind::OrthGram,
        SpanKind::SmallDense,
        SpanKind::PrecondSetup,
        SpanKind::Setup,
        SpanKind::Cycle,
        SpanKind::Restart,
        SpanKind::RecycleRefresh,
        SpanKind::Eigensolve,
        SpanKind::PrecondLevel(0),
        SpanKind::PrecondLevel(1),
        SpanKind::PrecondLevel(2),
        SpanKind::PrecondLevel(3),
        SpanKind::PrecondLevel(4),
        SpanKind::PrecondLevel(5),
        SpanKind::PrecondLevel(6),
        SpanKind::PrecondLevel(7),
    ];

    /// Index of the kind's aggregate slot in [`SpanKind::ALL`]; levels past
    /// [`MAX_PRECOND_LEVELS`] share the last one.
    pub(crate) fn slot(self) -> usize {
        match self {
            SpanKind::Iteration => 0,
            SpanKind::Reduction => 1,
            SpanKind::Halo => 2,
            SpanKind::PrecondApply => 3,
            SpanKind::Spmv => 4,
            SpanKind::OrthGram => 5,
            SpanKind::SmallDense => 6,
            SpanKind::PrecondSetup => 7,
            SpanKind::Setup => 8,
            SpanKind::Cycle => 9,
            SpanKind::Restart => 10,
            SpanKind::RecycleRefresh => 11,
            SpanKind::Eigensolve => 12,
            SpanKind::PrecondLevel(l) => 13 + l.min(MAX_PRECOND_LEVELS - 1),
        }
    }

    /// Display name used by the phase table and the solve events.
    pub fn name(self) -> &'static str {
        match self {
            SpanKind::Iteration => "iteration",
            SpanKind::Reduction => "reduction",
            SpanKind::Halo => "halo",
            SpanKind::PrecondApply => "precond_apply",
            SpanKind::Spmv => "spmv",
            SpanKind::OrthGram => "orth/gram",
            SpanKind::SmallDense => "small_dense",
            SpanKind::PrecondSetup => "precond_setup",
            SpanKind::Setup => "setup",
            SpanKind::Cycle => "cycle",
            SpanKind::Restart => "restart",
            SpanKind::RecycleRefresh => "recycle_refresh",
            SpanKind::Eigensolve => "eigensolve",
            SpanKind::PrecondLevel(l) => LEVEL_NAMES[l.min(MAX_PRECOND_LEVELS - 1)],
        }
    }
}

fn flag() -> &'static AtomicBool {
    static FLAG: OnceLock<AtomicBool> = OnceLock::new();
    FLAG.get_or_init(|| {
        let on = std::env::var("KRYST_TRACE")
            .map(|v| v == "1" || v.eq_ignore_ascii_case("true"))
            .unwrap_or(false);
        AtomicBool::new(on)
    })
}

/// Whether span recording is currently on (one relaxed load).
#[inline]
pub fn trace_enabled() -> bool {
    flag().load(Ordering::Relaxed)
}

/// Turn span recording on or off at runtime (process-wide).
pub fn set_trace_enabled(on: bool) {
    flag().store(on, Ordering::Relaxed);
}

static AGGREGATES: ThreadAggregates = ThreadAggregates::new();

/// The process-wide per-kind aggregates every closed span folds into.
pub fn aggregates() -> &'static ThreadAggregates {
    &AGGREGATES
}

/// This thread's share of [`aggregates`], retired into the shared total
/// when the thread exits.
struct ThreadSlots(Arc<Aggregates>);

impl Drop for ThreadSlots {
    fn drop(&mut self) {
        AGGREGATES.retire(&self.0);
    }
}

thread_local! {
    static SLOTS: ThreadSlots = ThreadSlots(AGGREGATES.register());
}

/// An in-flight span returned by [`begin`]; finish it with [`end`]. Not a
/// guard: dropping it without [`end`] simply records nothing.
#[derive(Debug)]
pub struct OpenSpan {
    kind: SpanKind,
    start: Instant,
}

/// Start a span of `kind`. `None` — and no clock read — when tracing is
/// disabled.
#[inline]
pub fn begin(kind: SpanKind) -> Option<OpenSpan> {
    trace_enabled().then(|| OpenSpan {
        kind,
        start: Instant::now(),
    })
}

/// Finish a span: fold its duration into this thread's per-kind
/// aggregates. No-op for `None`.
#[inline]
pub fn end(open: Option<OpenSpan>) {
    let Some(open) = open else { return };
    let ns = open.start.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64;
    SLOTS.with(|s| s.0.record(open.kind, ns));
}

/// RAII guard for a span; records on drop.
#[must_use = "the span records when the guard drops"]
pub struct SpanGuard {
    open: Option<OpenSpan>,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        end(self.open.take());
    }
}

/// Record a span of `kind` over the guard's lifetime (one relaxed load and
/// no clock read when disabled).
#[inline]
pub fn traced(kind: SpanKind) -> SpanGuard {
    SpanGuard { open: begin(kind) }
}

/// Serializes the unit tests of this crate that flip the process-global
/// flag or read the global aggregates.
#[cfg(test)]
pub(crate) fn with_tracing<R>(on: bool, f: impl FnOnce() -> R) -> R {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    let _g = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    set_trace_enabled(on);
    let r = f();
    set_trace_enabled(false);
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    fn count(kind: SpanKind) -> u64 {
        aggregates().snapshot().phase(kind).map_or(0, |p| p.count)
    }

    #[test]
    fn disabled_records_nothing_and_returns_none() {
        with_tracing(false, || {
            let before = count(SpanKind::PrecondApply);
            assert!(begin(SpanKind::Halo).is_none());
            {
                let _g = traced(SpanKind::PrecondApply);
            }
            assert_eq!(count(SpanKind::PrecondApply), before);
        });
    }

    #[test]
    fn guard_records_on_drop() {
        with_tracing(true, || {
            let before = count(SpanKind::Halo);
            {
                let _g = traced(SpanKind::Halo);
                std::hint::black_box(1 + 1);
            }
            assert_eq!(count(SpanKind::Halo), before + 1);
        });
    }

    /// Every slot belongs to exactly one kind, and a deep level folds into
    /// the last level's slot.
    #[test]
    fn slots_are_dense() {
        for (i, k) in SpanKind::ALL.iter().enumerate() {
            assert_eq!(k.slot(), i, "{k:?}");
        }
        assert_eq!(
            SpanKind::PrecondLevel(MAX_PRECOND_LEVELS + 3).slot(),
            NUM_SLOTS - 1
        );
    }
}
