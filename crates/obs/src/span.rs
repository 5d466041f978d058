//! The instrumentation spine: one span stream for every timed region.
//!
//! Every timed region — a kernel, a collective, a preconditioner apply, a
//! solve phase — opens one span of a [`SpanKind`]: the local guard
//! [`traced`], or [`begin_edge`]/[`end`] for collectives. Closing a span
//! folds its duration into the **per-kind aggregates** ([`crate::profiler`];
//! per-thread relaxed atomics summed on read, exact and never lossy) and
//! appends it to a **bounded per-thread ring**, the input of
//! [`crate::timeline`] (a rank is one thread or one process, so
//! thread-local storage *is* per-rank storage; a full ring drops the span
//! and counts it, the aggregates still see it).
//!
//! Two clocks ride on every ring entry: a **monotonic local clock**
//! (`start_ns`/`end_ns`, nanoseconds since the thread's first span; each
//! rank's origin is arbitrary) and a **collective-edge logical clock**
//! (`seq`), bumped once per collective entered via [`begin_edge`]. Every
//! rank executes the identical collective schedule, so equal `seq` values
//! identify the *same* collective across ranks even when wall clocks are
//! skewed. Local spans carry [`NO_SEQ`].
//!
//! One gate: when tracing is disabled (the default) opening a span is **one
//! relaxed bool load and no clock read**, so solver results — and golden
//! traces — are bit-identical with tracing on or off. Enable with
//! `KRYST_TRACE=1` or at runtime via [`set_trace_enabled`].

use crate::profiler::{Aggregates, ThreadAggregates};
use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

/// Sentinel `seq` for spans that are not collective edges.
pub const NO_SEQ: u64 = u64::MAX;

/// Flat-encoding width of one span, in `f64` slots (see
/// [`TraceSpan::encode_into`]).
pub const SPAN_FIELDS: usize = 7;

/// Spans each thread's ring holds; later spans are dropped and counted.
pub const RING_CAP: usize = 1 << 16;

/// AMG levels with a kind of their own; deeper levels fold into the last.
pub const MAX_PRECOND_LEVELS: usize = 8;

/// Size of the kind-code space: the named kinds, the retired codes
/// [`SpanKind::code`] keeps free, and one code per level.
pub const NUM_KINDS: usize = 17 + MAX_PRECOND_LEVELS;

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

/// What a span measures — the one vocabulary of the phase table, the
/// timeline and the solve events.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum SpanKind {
    /// One solver (block) iteration (`detail` = iteration index).
    Iteration,
    /// A butterfly all-reduce, fused or not, split-phase or not (`detail`
    /// low 32 bits = stage count, bit 32 set for split-phase); also the
    /// projected operator's Gram product.
    Reduction,
    /// One halo exchange (`detail` = scalar entries received), or the
    /// boundary rows a distributed SpMM finishes after it.
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
    /// level `l`; levels past [`MAX_PRECOND_LEVELS`] share the last code).
    PrecondLevel(usize),
}

impl SpanKind {
    /// Stable numeric code, `< NUM_KINDS`, used by the flat encodings and
    /// the aggregate slots. Saved timelines store kinds by code, so a code
    /// is never reused: 2 and 5–7 belonged to retired kinds and decode to
    /// `None`.
    pub fn code(self) -> u8 {
        match self {
            SpanKind::Iteration => 0,
            SpanKind::Reduction => 1,
            SpanKind::Halo => 3,
            SpanKind::PrecondApply => 4,
            SpanKind::Spmv => 8,
            SpanKind::OrthGram => 9,
            SpanKind::SmallDense => 10,
            SpanKind::PrecondSetup => 11,
            SpanKind::Setup => 12,
            SpanKind::Cycle => 13,
            SpanKind::Restart => 14,
            SpanKind::RecycleRefresh => 15,
            SpanKind::Eigensolve => 16,
            SpanKind::PrecondLevel(l) => 17 + l.min(MAX_PRECOND_LEVELS - 1) as u8,
        }
    }

    /// Inverse of [`SpanKind::code`]; `None` for unknown codes.
    pub fn from_code(code: u8) -> Option<SpanKind> {
        Some(match code {
            0 => SpanKind::Iteration,
            1 => SpanKind::Reduction,
            3 => SpanKind::Halo,
            4 => SpanKind::PrecondApply,
            8 => SpanKind::Spmv,
            9 => SpanKind::OrthGram,
            10 => SpanKind::SmallDense,
            11 => SpanKind::PrecondSetup,
            12 => SpanKind::Setup,
            13 => SpanKind::Cycle,
            14 => SpanKind::Restart,
            15 => SpanKind::RecycleRefresh,
            16 => SpanKind::Eigensolve,
            c @ 17.. if (c as usize) < NUM_KINDS => SpanKind::PrecondLevel(c as usize - 17),
            _ => return None,
        })
    }

    /// Display name used by the phase table and the Chrome-trace export.
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

    /// Every kind, in code order (for per-kind report tables).
    pub fn all() -> impl Iterator<Item = SpanKind> {
        (0..NUM_KINDS as u8).filter_map(SpanKind::from_code)
    }
}

/// One recorded span. All integer payloads stay below 2⁵³ in practice, so
/// the flat `f64` encoding used to ship rings across the transport is exact.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceSpan {
    /// What was measured.
    pub kind: SpanKind,
    /// Collective-edge logical clock value, or [`NO_SEQ`] for local spans.
    pub seq: u64,
    /// Start, nanoseconds on the recording thread's monotonic clock.
    pub start_ns: u64,
    /// End, same clock.
    pub end_ns: u64,
    /// Payload bytes this rank put on the wire inside the span.
    pub bytes: u64,
    /// Messages this rank put on the wire inside the span.
    pub msgs: u64,
    /// Kind-specific detail (see [`SpanKind`] variants).
    pub detail: u64,
}

impl TraceSpan {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    /// Append the [`SPAN_FIELDS`]-slot flat encoding ([`NO_SEQ`] → `-1`).
    pub fn encode_into(&self, out: &mut Vec<f64>) {
        out.push(f64::from(self.kind.code()));
        out.push(if self.seq == NO_SEQ {
            -1.0
        } else {
            self.seq as f64
        });
        out.push(self.start_ns as f64);
        out.push(self.end_ns as f64);
        out.push(self.bytes as f64);
        out.push(self.msgs as f64);
        out.push(self.detail as f64);
    }

    /// Decode one span from a [`SPAN_FIELDS`]-slot frame slice.
    pub fn decode(v: &[f64]) -> Option<TraceSpan> {
        if v.len() != SPAN_FIELDS {
            return None;
        }
        Some(TraceSpan {
            kind: SpanKind::from_code(v[0] as u8)?,
            seq: if v[1] < 0.0 { NO_SEQ } else { v[1] as u64 },
            start_ns: v[2] as u64,
            end_ns: v[3] as u64,
            bytes: v[4] as u64,
            msgs: v[5] as u64,
            detail: v[6] as u64,
        })
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

struct ThreadTracer {
    epoch: Instant,
    ring: Vec<TraceSpan>,
    dropped: u64,
    seq: u64,
    /// This thread's share of [`aggregates`].
    slots: Arc<Aggregates>,
}

impl Drop for ThreadTracer {
    fn drop(&mut self) {
        AGGREGATES.retire(&self.slots);
    }
}

thread_local! {
    static TRACER: RefCell<ThreadTracer> = RefCell::new(ThreadTracer {
        epoch: Instant::now(),
        ring: Vec::new(),
        dropped: 0,
        seq: 0,
        slots: AGGREGATES.register(),
    });
}

/// An in-flight span returned by [`begin`]/[`begin_edge`]; finish it with
/// [`end`]. Not a guard: dropping it without [`end`] simply records nothing.
#[derive(Debug)]
pub struct OpenSpan {
    kind: SpanKind,
    seq: u64,
    start_ns: u64,
}

fn now_ns(tr: &ThreadTracer) -> u64 {
    tr.epoch.elapsed().as_nanos().min(u64::MAX as u128) as u64
}

/// Start a *local* span (no logical-clock bump). `None` — and no clock
/// read — when tracing is disabled.
#[inline]
pub fn begin(kind: SpanKind) -> Option<OpenSpan> {
    open(kind, false)
}

/// Start a *collective-edge* span: bumps this rank's logical clock so the
/// span pairs with the same collective on every other rank. `None` when
/// tracing is disabled — the logical clock then does not advance, which is
/// consistent because it does not advance on any rank.
#[inline]
pub fn begin_edge(kind: SpanKind) -> Option<OpenSpan> {
    open(kind, true)
}

#[inline]
fn open(kind: SpanKind, edge: bool) -> Option<OpenSpan> {
    if !trace_enabled() {
        return None;
    }
    Some(TRACER.with(|t| {
        let mut tr = t.borrow_mut();
        let seq = if edge { tr.seq } else { NO_SEQ };
        tr.seq += u64::from(edge);
        OpenSpan {
            kind,
            seq,
            start_ns: now_ns(&tr),
        }
    }))
}

/// Finish a span: fold it into the per-kind aggregates and record it into
/// the thread's ring (a full ring drops it and counts it, see [`drain`]).
/// No-op for `None`.
#[inline]
pub fn end(open: Option<OpenSpan>, bytes: u64, msgs: u64, detail: u64) {
    let Some(open) = open else { return };
    TRACER.with(|t| {
        let mut tr = t.borrow_mut();
        let end_ns = now_ns(&tr);
        tr.slots
            .record(open.kind, end_ns.saturating_sub(open.start_ns));
        if tr.ring.len() >= RING_CAP {
            tr.dropped += 1;
            return;
        }
        tr.ring.push(TraceSpan {
            kind: open.kind,
            seq: open.seq,
            start_ns: open.start_ns,
            end_ns,
            bytes,
            msgs,
            detail,
        });
    });
}

/// RAII guard for a local span with no wire payload; records on drop.
#[must_use = "the span records when the guard drops"]
pub struct SpanGuard {
    open: Option<OpenSpan>,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        end(self.open.take(), 0, 0, 0);
    }
}

/// Record a local span of `kind` over the guard's lifetime (one relaxed
/// load and no clock read when disabled).
#[inline]
pub fn traced(kind: SpanKind) -> SpanGuard {
    SpanGuard { open: begin(kind) }
}

/// Take every span recorded on this thread plus the overflow count, and
/// reset the ring, the drop counter, and the logical clock — so each traced
/// region (one SPMD closure, one solve) drains independently.
pub fn drain() -> (Vec<TraceSpan>, u64) {
    TRACER.with(|t| {
        let mut tr = t.borrow_mut();
        let spans = std::mem::take(&mut tr.ring);
        let dropped = tr.dropped;
        tr.dropped = 0;
        tr.seq = 0;
        (spans, dropped)
    })
}

/// Clear this thread's ring, drop counter, and logical clock without
/// returning anything. SPMD runners call this at every rank's entry so a
/// traced closure starts from a clean, rank-aligned state (rank 0 may be a
/// long-lived thread; workers replay earlier calls before the real one).
pub fn reset_thread() {
    let _ = drain();
}

/// Serializes the unit tests of this crate that flip the process-global
/// flag or read the global aggregates.
#[cfg(test)]
pub(crate) fn with_tracing<R>(on: bool, f: impl FnOnce() -> R) -> R {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    let _g = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    reset_thread();
    set_trace_enabled(on);
    let r = f();
    set_trace_enabled(false);
    reset_thread();
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_records_nothing_and_returns_none() {
        with_tracing(false, || {
            assert!(begin(SpanKind::Halo).is_none());
            assert!(begin_edge(SpanKind::Reduction).is_none());
            {
                let _g = traced(SpanKind::PrecondApply);
            }
            let (spans, dropped) = drain();
            assert!(spans.is_empty());
            assert_eq!(dropped, 0);
        });
    }

    #[test]
    fn edges_advance_the_logical_clock_and_locals_do_not() {
        with_tracing(true, || {
            let a = begin_edge(SpanKind::Reduction);
            end(a, 16, 2, 3);
            let b = begin(SpanKind::PrecondApply);
            end(b, 0, 0, 0);
            let c = begin_edge(SpanKind::Halo);
            end(c, 8, 1, 0);
            let (spans, dropped) = drain();
            assert_eq!(dropped, 0);
            assert_eq!(spans.len(), 3);
            assert_eq!(spans[0].seq, 0);
            assert_eq!(spans[1].seq, NO_SEQ);
            assert_eq!(spans[2].seq, 1);
            assert_eq!(spans[0].bytes, 16);
            assert_eq!(spans[0].msgs, 2);
            assert_eq!(spans[0].detail, 3);
            assert!(spans[0].end_ns >= spans[0].start_ns);
            // drain() reset the logical clock.
            let d = begin_edge(SpanKind::Reduction);
            assert_eq!(d.as_ref().unwrap().seq, 0);
            end(d, 0, 0, 0);
        });
    }

    #[test]
    fn guard_records_on_drop() {
        with_tracing(true, || {
            {
                let _g = traced(SpanKind::Halo);
                std::hint::black_box(1 + 1);
            }
            let (spans, _) = drain();
            assert_eq!(spans.len(), 1);
            assert_eq!(spans[0].kind, SpanKind::Halo);
        });
    }

    #[test]
    fn span_flat_encoding_round_trips() {
        let s = TraceSpan {
            kind: SpanKind::Eigensolve,
            seq: NO_SEQ,
            start_ns: 123,
            end_ns: 456,
            bytes: 7890,
            msgs: 12,
            detail: 34,
        };
        let mut buf = Vec::new();
        s.encode_into(&mut buf);
        assert_eq!(buf.len(), SPAN_FIELDS);
        assert_eq!(TraceSpan::decode(&buf), Some(s));
        assert_eq!(TraceSpan::decode(&buf[1..]), None);
        let mut bad = buf.clone();
        bad[0] = 99.0;
        assert_eq!(TraceSpan::decode(&bad), None);
    }

    /// A ring past capacity drops spans from the timeline but not from the
    /// per-kind aggregates.
    #[test]
    fn full_ring_drops_and_counts() {
        with_tracing(true, || {
            let kind = SpanKind::PrecondLevel(5);
            let before = aggregates().snapshot().phase(kind).map_or(0, |p| p.count);
            for i in 0..(RING_CAP + 5) {
                let o = begin(kind);
                end(o, 0, 0, i as u64);
            }
            let (spans, dropped) = drain();
            assert_eq!(spans.len(), RING_CAP);
            assert_eq!(dropped, 5);
            let after = aggregates().snapshot().phase(kind).map_or(0, |p| p.count);
            assert_eq!(after - before, (RING_CAP + 5) as u64);
        });
    }

    #[test]
    fn kind_codes_round_trip() {
        assert_eq!(SpanKind::all().count(), NUM_KINDS - RETIRED_CODES.len());
        for k in SpanKind::all() {
            assert_eq!(SpanKind::from_code(k.code()), Some(k));
        }
        assert_eq!(SpanKind::from_code(NUM_KINDS as u8), None);
        assert_eq!(SpanKind::from_code(200), None);
    }

    /// Codes of kinds that no longer exist.
    const RETIRED_CODES: [u8; 4] = [2, 5, 6, 7];

    /// `timeline.json` stores kinds by code: every kind keeps the code it
    /// was saved under, and a retired code decodes to nothing.
    #[test]
    fn span_codes_are_stable() {
        let pinned = [
            (SpanKind::Iteration, 0),
            (SpanKind::Reduction, 1),
            (SpanKind::Halo, 3),
            (SpanKind::PrecondApply, 4),
            (SpanKind::Spmv, 8),
            (SpanKind::OrthGram, 9),
            (SpanKind::SmallDense, 10),
            (SpanKind::PrecondSetup, 11),
            (SpanKind::Setup, 12),
            (SpanKind::Cycle, 13),
            (SpanKind::Restart, 14),
            (SpanKind::RecycleRefresh, 15),
            (SpanKind::Eigensolve, 16),
        ];
        for (kind, code) in pinned {
            assert_eq!(kind.code(), code, "{kind:?}");
        }
        for l in 0..MAX_PRECOND_LEVELS {
            assert_eq!(SpanKind::PrecondLevel(l).code(), 17 + l as u8);
        }
        assert_eq!(SpanKind::PrecondLevel(MAX_PRECOND_LEVELS + 3).code(), 24);
        for code in RETIRED_CODES {
            assert_eq!(SpanKind::from_code(code), None, "code {code}");
        }
    }
}
