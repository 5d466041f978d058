//! Per-kind aggregates of the span stream: the phase table.
//!
//! Every span closed by [`crate::span::end`] (or a dropped
//! [`crate::span::traced`] guard) folds its duration into one
//! fixed slot per [`SpanKind`] — count, total, min, max and a log₂ latency
//! histogram — held in relaxed atomics of the closing thread's own slots
//! ([`ThreadAggregates`]), so concurrent workers record without contention
//! or loss. A [`ProfileSnapshot`] copies the non-empty slots out; it is what
//! `phase_report` and `kryst_prof report` read.
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

use crate::span::{SpanKind, NUM_KINDS};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

/// Number of log2 latency buckets per kind (bucket `i` holds samples with
/// `ilog2(ns) == i`, the last bucket is a catch-all for >= 2^31 ns).
pub const HIST_BUCKETS: usize = 32;

struct Slot {
    count: AtomicU64,
    total_ns: AtomicU64,
    min_ns: AtomicU64,
    max_ns: AtomicU64,
    hist: [AtomicU64; HIST_BUCKETS],
}

impl Slot {
    const fn new() -> Slot {
        #[allow(clippy::declare_interior_mutable_const)]
        const Z: AtomicU64 = AtomicU64::new(0);
        Slot {
            count: AtomicU64::new(0),
            total_ns: AtomicU64::new(0),
            min_ns: AtomicU64::new(u64::MAX),
            max_ns: AtomicU64::new(0),
            hist: [Z; HIST_BUCKETS],
        }
    }

    /// Plain loads and stores, no locked read-modify-write: a slot has one
    /// writer, the thread that owns it.
    fn record(&self, ns: u64) {
        let get = |a: &AtomicU64| a.load(Ordering::Relaxed);
        let set = |a: &AtomicU64, v: u64| a.store(v, Ordering::Relaxed);
        set(&self.count, get(&self.count) + 1);
        set(&self.total_ns, get(&self.total_ns) + ns);
        set(&self.min_ns, get(&self.min_ns).min(ns));
        set(&self.max_ns, get(&self.max_ns).max(ns));
        let bucket = (63 - (ns.max(1)).leading_zeros() as usize).min(HIST_BUCKETS - 1);
        set(&self.hist[bucket], get(&self.hist[bucket]) + 1);
    }

    fn reset(&self) {
        self.count.store(0, Ordering::Relaxed);
        self.total_ns.store(0, Ordering::Relaxed);
        self.min_ns.store(u64::MAX, Ordering::Relaxed);
        self.max_ns.store(0, Ordering::Relaxed);
        for b in &self.hist {
            b.store(0, Ordering::Relaxed);
        }
    }

    fn add_to(&self, dst: &Slot) {
        let get = |a: &AtomicU64| a.load(Ordering::Relaxed);
        dst.count.fetch_add(get(&self.count), Ordering::Relaxed);
        dst.total_ns
            .fetch_add(get(&self.total_ns), Ordering::Relaxed);
        dst.min_ns.fetch_min(get(&self.min_ns), Ordering::Relaxed);
        dst.max_ns.fetch_max(get(&self.max_ns), Ordering::Relaxed);
        for (d, s) in dst.hist.iter().zip(&self.hist) {
            d.fetch_add(get(s), Ordering::Relaxed);
        }
    }
}

/// Thread-safe per-kind aggregates with one fixed slot per kind code.
pub struct Aggregates {
    slots: [Slot; NUM_KINDS],
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
            slots: [const { Slot::new() }; NUM_KINDS],
        }
    }

    /// Fold one span of `kind` lasting `ns` nanoseconds. One thread records
    /// into a given `Aggregates` (spans from many threads go through
    /// [`crate::span::aggregates`], which gives each thread its own).
    #[inline]
    pub fn record(&self, kind: SpanKind, ns: u64) {
        self.slots[kind.code() as usize].record(ns);
    }

    /// Clear all accumulated samples.
    pub fn reset(&self) {
        for s in &self.slots {
            s.reset();
        }
    }

    /// Capture a consistent-enough copy of every non-empty kind's
    /// aggregates, in code order.
    pub fn snapshot(&self) -> ProfileSnapshot {
        let phases = (0u8..)
            .zip(&self.slots)
            .filter(|(_, s)| s.count.load(Ordering::Relaxed) > 0)
            .filter_map(|(code, s)| Some((SpanKind::from_code(code)?, s)))
            .map(|(kind, s)| PhaseStats {
                name: kind.name().to_string(),
                count: s.count.load(Ordering::Relaxed),
                total_ns: s.total_ns.load(Ordering::Relaxed),
                min_ns: s.min_ns.load(Ordering::Relaxed),
                max_ns: s.max_ns.load(Ordering::Relaxed),
                hist: std::array::from_fn(|b| s.hist[b].load(Ordering::Relaxed)),
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
    /// Smallest sample in nanoseconds (`u64::MAX` if empty).
    pub min_ns: u64,
    /// Largest sample in nanoseconds.
    pub max_ns: u64,
    /// Log2-bucketed latency histogram: bucket `i` counts samples with
    /// `ilog2(ns) == i` (clamped to the last bucket).
    pub hist: [u64; HIST_BUCKETS],
}

/// A point-in-time copy of every non-empty kind's aggregates.
#[derive(Clone, Debug, Default)]
pub struct ProfileSnapshot {
    /// Per-kind aggregates, in code order; empty kinds are omitted.
    pub phases: Vec<PhaseStats>,
}

impl ProfileSnapshot {
    /// Look up the stats recorded for `kind`, if any.
    pub fn phase(&self, kind: SpanKind) -> Option<&PhaseStats> {
        self.phases.iter().find(|p| p.name == kind.name())
    }

    /// Serialize to a single JSON object:
    /// `{"phases":[{"name":...,"count":...,"total_ns":...,...,"hist":[...]}]}`.
    pub fn to_json(&self) -> String {
        let mut s = String::from("{\"phases\":[");
        for (i, p) in self.phases.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!(
                "{{\"name\":\"{}\",\"count\":{},\"total_ns\":{},\"min_ns\":{},\"max_ns\":{},\"hist\":[",
                p.name, p.count, p.total_ns, p.min_ns, p.max_ns
            ));
            // Trailing zero buckets are elided to keep dumps compact.
            let last = p.hist.iter().rposition(|&c| c != 0).map_or(0, |i| i + 1);
            for (j, c) in p.hist[..last].iter().enumerate() {
                if j > 0 {
                    s.push(',');
                }
                s.push_str(&c.to_string());
            }
            s.push_str("]}");
        }
        s.push_str("]}");
        s
    }

    /// Parse a snapshot serialized by [`ProfileSnapshot::to_json`].
    pub fn from_json(text: &str) -> Option<ProfileSnapshot> {
        let v = crate::json::JsonValue::parse(text).ok()?;
        let phases = v.get("phases")?.as_array()?;
        let mut out = Vec::new();
        for p in phases {
            let mut hist = [0u64; HIST_BUCKETS];
            if let Some(h) = p.get("hist").and_then(|h| h.as_array()) {
                for (dst, src) in hist.iter_mut().zip(h.iter()) {
                    *dst = src.as_f64()? as u64;
                }
            }
            out.push(PhaseStats {
                name: p.get("name")?.as_str()?.to_string(),
                count: p.get("count")?.as_f64()? as u64,
                total_ns: p.get("total_ns")?.as_f64()? as u64,
                min_ns: p.get("min_ns")?.as_f64()? as u64,
                max_ns: p.get("max_ns")?.as_f64()? as u64,
                hist,
            });
        }
        Some(ProfileSnapshot { phases: out })
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
        assert_eq!(spmv.min_ns, 100);
        assert_eq!(spmv.max_ns, 300);
        // 100ns -> bucket ilog2(100)=6, 300ns -> bucket 8.
        assert_eq!(spmv.hist[6], 1);
        assert_eq!(spmv.hist[8], 1);
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

    #[test]
    fn json_round_trip() {
        let agg = Aggregates::new();
        agg.record(SpanKind::Spmv, 123);
        agg.record(SpanKind::SmallDense, 456_789);
        let snap = agg.snapshot();
        let back = ProfileSnapshot::from_json(&snap.to_json()).unwrap();
        assert_eq!(back.phases.len(), snap.phases.len());
        for (a, b) in snap.phases.iter().zip(back.phases.iter()) {
            assert_eq!(a.name, b.name);
            assert_eq!(a.count, b.count);
            assert_eq!(a.total_ns, b.total_ns);
            assert_eq!(a.min_ns, b.min_ns);
            assert_eq!(a.max_ns, b.max_ns);
            assert_eq!(a.hist, b.hist);
        }
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
