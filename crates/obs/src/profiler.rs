//! Per-kind aggregates of the span stream: the phase table.
//!
//! Every span closed by [`crate::span::end`] (or a dropped
//! [`crate::span::traced`] guard) folds its duration into one
//! fixed slot per [`SpanKind`] — a count and a total — held in relaxed
//! atomics of the closing thread's own slots ([`ThreadAggregates`]), so
//! concurrent workers record without contention or loss. A
//! [`ProfileSnapshot`] copies the non-empty slots out; it is what
//! `phase_report` reads.
//!
//! ```
//! use kryst_obs::{aggregates, set_trace_enabled, traced, SpanKind};
//! set_trace_enabled(true);
//! {
//!     let _t = traced(SpanKind::Spmv);
//!     // ... kernel work ...
//! }
//! set_trace_enabled(false);
//! assert!(aggregates().snapshot().phase(SpanKind::Spmv).unwrap().count >= 1);
//! ```

use crate::span::{SpanKind, NUM_SLOTS};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

struct Slot {
    count: AtomicU64,
    total_ns: AtomicU64,
}

impl Slot {
    const fn new() -> Slot {
        Slot {
            count: AtomicU64::new(0),
            total_ns: AtomicU64::new(0),
        }
    }

    /// Plain loads and stores, no locked read-modify-write: a slot has one
    /// writer, the thread that owns it.
    fn record(&self, ns: u64) {
        let get = |a: &AtomicU64| a.load(Ordering::Relaxed);
        let set = |a: &AtomicU64, v: u64| a.store(v, Ordering::Relaxed);
        set(&self.count, get(&self.count) + 1);
        set(&self.total_ns, get(&self.total_ns) + ns);
    }

    fn reset(&self) {
        self.count.store(0, Ordering::Relaxed);
        self.total_ns.store(0, Ordering::Relaxed);
    }

    fn add_to(&self, dst: &Slot) {
        let get = |a: &AtomicU64| a.load(Ordering::Relaxed);
        dst.count.fetch_add(get(&self.count), Ordering::Relaxed);
        dst.total_ns
            .fetch_add(get(&self.total_ns), Ordering::Relaxed);
    }
}

/// Thread-safe per-kind aggregates with one fixed slot per kind.
pub struct Aggregates {
    slots: [Slot; NUM_SLOTS],
}

impl Default for Aggregates {
    fn default() -> Self {
        Self::new()
    }
}

impl Aggregates {
    /// Empty aggregates.
    pub const fn new() -> Aggregates {
        Aggregates {
            slots: [const { Slot::new() }; NUM_SLOTS],
        }
    }

    /// Fold one span of `kind` lasting `ns` nanoseconds. One thread records
    /// into a given `Aggregates` (spans from many threads go through
    /// [`crate::span::aggregates`], which gives each thread its own).
    #[inline]
    pub fn record(&self, kind: SpanKind, ns: u64) {
        self.slots[kind.slot()].record(ns);
    }

    /// Clear all accumulated samples.
    pub fn reset(&self) {
        for s in &self.slots {
            s.reset();
        }
    }

    /// Capture a consistent-enough copy of every non-empty kind's
    /// aggregates, in slot order.
    pub fn snapshot(&self) -> ProfileSnapshot {
        let phases = SpanKind::ALL
            .iter()
            .zip(&self.slots)
            .filter(|(_, s)| s.count.load(Ordering::Relaxed) > 0)
            .map(|(kind, s)| PhaseStats {
                name: kind.name().to_string(),
                count: s.count.load(Ordering::Relaxed),
                total_ns: s.total_ns.load(Ordering::Relaxed),
            })
            .collect();
        ProfileSnapshot { phases }
    }

    fn add_to(&self, dst: &Aggregates) {
        for (s, d) in self.slots.iter().zip(&dst.slots) {
            s.add_to(d);
        }
    }
}

/// The process-wide aggregates, [`crate::span::aggregates`]: one
/// [`Aggregates`] per live thread, so ranks closing spans at the same
/// instant never write the same cache line, plus the sum of the threads
/// that have exited. Reads add them up under one lock, exactly once the
/// recording threads are done.
pub struct ThreadAggregates {
    live: Mutex<Vec<Arc<Aggregates>>>,
    exited: Aggregates,
}

impl ThreadAggregates {
    pub(crate) const fn new() -> ThreadAggregates {
        ThreadAggregates {
            live: Mutex::new(Vec::new()),
            exited: Aggregates::new(),
        }
    }

    fn lock(&self) -> MutexGuard<'_, Vec<Arc<Aggregates>>> {
        self.live.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// The slots of a new thread.
    pub(crate) fn register(&self) -> Arc<Aggregates> {
        let slots = Arc::new(Aggregates::new());
        self.lock().push(slots.clone());
        slots
    }

    /// Fold the slots of an exiting thread into the exited sum.
    pub(crate) fn retire(&self, slots: &Arc<Aggregates>) {
        let mut live = self.lock();
        slots.add_to(&self.exited);
        live.retain(|l| !Arc::ptr_eq(l, slots));
    }

    /// Clear every thread's samples.
    pub fn reset(&self) {
        let live = self.lock();
        self.exited.reset();
        for slots in live.iter() {
            slots.reset();
        }
    }

    /// Every thread's aggregates summed (see [`Aggregates::snapshot`]).
    pub fn snapshot(&self) -> ProfileSnapshot {
        let live = self.lock();
        let sum = Aggregates::new();
        self.exited.add_to(&sum);
        for slots in live.iter() {
            slots.add_to(&sum);
        }
        sum.snapshot()
    }
}

/// Aggregated statistics for one kind.
#[derive(Clone, Debug)]
pub struct PhaseStats {
    /// Kind display name (see [`SpanKind::name`]).
    pub name: String,
    /// Number of recorded samples.
    pub count: u64,
    /// Sum of all sample durations in nanoseconds.
    pub total_ns: u64,
}

/// A point-in-time copy of every non-empty kind's aggregates.
#[derive(Clone, Debug, Default)]
pub struct ProfileSnapshot {
    /// Per-kind aggregates, in slot order; empty kinds are omitted.
    pub phases: Vec<PhaseStats>,
}

impl ProfileSnapshot {
    /// Look up the stats recorded for `kind`, if any.
    pub fn phase(&self, kind: SpanKind) -> Option<&PhaseStats> {
        self.phases.iter().find(|p| p.name == kind.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::{aggregates, traced, with_tracing, MAX_PRECOND_LEVELS};

    #[test]
    fn disabled_records_nothing() {
        with_tracing(false, || {
            let before = aggregates()
                .snapshot()
                .phase(SpanKind::Spmv)
                .map_or(0, |p| p.count);
            {
                let _t = traced(SpanKind::Spmv);
            }
            let after = aggregates()
                .snapshot()
                .phase(SpanKind::Spmv)
                .map_or(0, |p| p.count);
            assert_eq!(before, after);
        });
    }

    #[test]
    fn enabled_records_counts_and_bounds() {
        let agg = Aggregates::new();
        agg.record(SpanKind::Spmv, 100);
        agg.record(SpanKind::Spmv, 300);
        agg.record(SpanKind::PrecondLevel(2), 50);
        let snap = agg.snapshot();
        let spmv = snap.phase(SpanKind::Spmv).unwrap();
        assert_eq!(spmv.count, 2);
        assert_eq!(spmv.total_ns, 400);
        assert_eq!(
            snap.phase(SpanKind::PrecondLevel(2)).unwrap().name,
            "precond/l2"
        );
    }

    #[test]
    fn timer_guard_records_on_drop() {
        with_tracing(true, || {
            let before = aggregates()
                .snapshot()
                .phase(SpanKind::OrthGram)
                .map_or(0, |p| p.count);
            {
                let _t = traced(SpanKind::OrthGram);
                std::hint::black_box(3 + 4);
            }
            let snap = aggregates().snapshot();
            assert_eq!(snap.phase(SpanKind::OrthGram).unwrap().count, before + 1);
        });
    }

    #[test]
    fn deep_levels_fold_into_last_slot() {
        let agg = Aggregates::new();
        agg.record(SpanKind::PrecondLevel(MAX_PRECOND_LEVELS + 3), 10);
        let snap = agg.snapshot();
        let p = snap
            .phase(SpanKind::PrecondLevel(MAX_PRECOND_LEVELS - 1))
            .unwrap();
        assert_eq!(p.count, 1);
    }

    #[test]
    fn named_phases_have_own_slots() {
        let agg = Aggregates::new();
        agg.record(SpanKind::Eigensolve, 11);
        agg.record(SpanKind::PrecondSetup, 22);
        agg.record(SpanKind::PrecondLevel(0), 33);
        let snap = agg.snapshot();
        assert_eq!(snap.phase(SpanKind::Eigensolve).unwrap().name, "eigensolve");
        assert_eq!(
            snap.phase(SpanKind::PrecondSetup).unwrap().name,
            "precond_setup"
        );
        // The last named slot must not alias the first per-level slot.
        assert_eq!(snap.phase(SpanKind::PrecondLevel(0)).unwrap().total_ns, 33);
        assert_eq!(snap.phase(SpanKind::Eigensolve).unwrap().total_ns, 11);
        assert_eq!(snap.phase(SpanKind::PrecondSetup).unwrap().total_ns, 22);
    }

    #[test]
    fn reset_clears() {
        let agg = Aggregates::new();
        agg.record(SpanKind::Reduction, 7);
        agg.reset();
        assert!(agg.snapshot().phases.is_empty());
    }

    /// Spans closed on four threads at once all land in the aggregates.
    #[test]
    fn concurrent_recording_sums() {
        with_tracing(true, || {
            let kind = SpanKind::PrecondLevel(6);
            let before = aggregates().snapshot().phase(kind).map_or(0, |p| p.count);
            std::thread::scope(|s| {
                for _ in 0..4 {
                    s.spawn(|| {
                        for _ in 0..1000 {
                            drop(traced(kind));
                        }
                    });
                }
            });
            let after = aggregates().snapshot().phase(kind).unwrap().count;
            assert_eq!(after - before, 4000);
        });
    }
}
