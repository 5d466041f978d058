//! Instrumented reduction counters.
//!
//! Every solver kernel that would make a global reduction in a distributed
//! run (dot products, Gram matrices, norms — the quantity the paper's §III-D
//! analyses) reports it here. Halo traffic is not counted here: it is
//! measured on the wire by [`crate::HaloPlan::execute`] on a live world.
//! Counters are atomics with relaxed ordering — they are statistics, not
//! synchronization.

pub use kryst_obs::CommSnapshot;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Shared reduction counters.
#[derive(Debug, Default)]
pub struct CommStats {
    reductions: AtomicU64,
    reduction_bytes: AtomicU64,
    fused_parts: AtomicU64,
}

impl CommStats {
    /// Fresh zeroed counters behind an `Arc` (the usual way to share them).
    pub fn new_shared() -> Arc<Self> {
        Arc::new(Self::default())
    }

    /// Record one global reduction of `bytes` payload.
    #[inline]
    pub fn record_reduction(&self, bytes: usize) {
        self.reductions.fetch_add(1, Ordering::Relaxed);
        self.reduction_bytes
            .fetch_add(bytes as u64, Ordering::Relaxed);
    }

    /// Record `count` fused reductions (e.g. a batched convergence check).
    #[inline]
    pub fn record_reductions(&self, count: usize, bytes: usize) {
        self.reductions.fetch_add(count as u64, Ordering::Relaxed);
        self.reduction_bytes
            .fetch_add(bytes as u64, Ordering::Relaxed);
    }

    /// Record `count` *fused* reductions batching `parts` logically separate
    /// products into `bytes` total payload: one latency charge per reduction,
    /// summed bytes (§III-D's batching argument).
    #[inline]
    pub fn record_fused_reductions(&self, count: usize, parts: usize, bytes: usize) {
        self.reductions.fetch_add(count as u64, Ordering::Relaxed);
        self.fused_parts.fetch_add(parts as u64, Ordering::Relaxed);
        self.reduction_bytes
            .fetch_add(bytes as u64, Ordering::Relaxed);
    }

    /// Copy out the counters.
    pub fn snapshot(&self) -> CommSnapshot {
        CommSnapshot {
            reductions: self.reductions.load(Ordering::Relaxed),
            reduction_bytes: self.reduction_bytes.load(Ordering::Relaxed),
            fused_parts: self.fused_parts.load(Ordering::Relaxed),
        }
    }

    /// Zero all counters.
    pub fn reset(&self) {
        self.reductions.store(0, Ordering::Relaxed);
        self.reduction_bytes.store(0, Ordering::Relaxed);
        self.fused_parts.store(0, Ordering::Relaxed);
    }
}

/// Interval sampler over a [`CommStats`]: each [`CommInterval::take`] returns
/// the counter change since the previous `take` (or construction) and
/// advances the mark. This is how solvers attribute exact communication
/// deltas to individual iteration events.
#[derive(Debug, Clone)]
pub struct CommInterval {
    stats: Option<Arc<CommStats>>,
    last: CommSnapshot,
}

impl CommInterval {
    /// Start an interval sampler at the counters' current values. `None`
    /// yields all-zero deltas (solvers run untracked).
    pub fn start(stats: Option<Arc<CommStats>>) -> Self {
        let last = stats.as_ref().map(|s| s.snapshot()).unwrap_or_default();
        Self { stats, last }
    }

    /// Counter change since the previous `take` (advances the mark).
    pub fn take(&mut self) -> CommSnapshot {
        match &self.stats {
            Some(s) => {
                let now = s.snapshot();
                let d = now.since(&self.last);
                self.last = now;
                d
            }
            None => CommSnapshot::default(),
        }
    }

    /// Counter change since the previous `take`, without advancing.
    pub fn peek(&self) -> CommSnapshot {
        match &self.stats {
            Some(s) => s.snapshot().since(&self.last),
            None => CommSnapshot::default(),
        }
    }

    /// Current absolute counter values.
    pub fn now(&self) -> CommSnapshot {
        self.stats
            .as_ref()
            .map(|s| s.snapshot())
            .unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_reset() {
        let s = CommStats::new_shared();
        s.record_reduction(64);
        s.record_reduction(8);
        let snap = s.snapshot();
        assert_eq!(snap.reductions, 2);
        assert_eq!(snap.reduction_bytes, 72);
        s.reset();
        assert_eq!(s.snapshot(), CommSnapshot::default());
    }

    #[test]
    fn fused_reductions_charge_one_latency_with_summed_bytes() {
        let s = CommStats::new_shared();
        // Three products batched into ONE reduction: 1 latency charge,
        // 3 parts, summed payload.
        s.record_fused_reductions(1, 3, 24 + 40 + 16);
        let snap = s.snapshot();
        assert_eq!(snap.reductions, 1);
        assert_eq!(snap.fused_parts, 3);
        assert_eq!(snap.reduction_bytes, 80);
        // The fused-part count participates in since/reset like the rest.
        let d = s.snapshot().since(&CommSnapshot::default());
        assert_eq!(d.fused_parts, 3);
        s.reset();
        assert_eq!(s.snapshot(), CommSnapshot::default());
    }

    #[test]
    fn snapshot_difference() {
        let s = CommStats::new_shared();
        s.record_reduction(8);
        let a = s.snapshot();
        s.record_fused_reductions(1, 2, 100);
        let b = s.snapshot();
        let d = b.since(&a);
        assert_eq!(d.reductions, 1);
        assert_eq!(d.fused_parts, 2);
        assert_eq!(d.reduction_bytes, 100);
    }

    #[test]
    fn interval_take_partitions_the_counter_stream() {
        let s = CommStats::new_shared();
        let mut iv = CommInterval::start(Some(Arc::clone(&s)));
        s.record_reductions(3, 24);
        let d1 = iv.take();
        assert_eq!(d1.reductions, 3);
        s.record_fused_reductions(1, 2, 128);
        assert_eq!(iv.peek().reductions, 1);
        let d2 = iv.take();
        assert_eq!(d2.reductions, 1);
        assert_eq!(d2.fused_parts, 2);
        // Deltas tile the stream: their sum is the absolute total.
        assert_eq!(d1.reductions + d2.reductions, s.snapshot().reductions);
        assert_eq!(iv.take(), CommSnapshot::default());
        // Untracked sampler yields zeros.
        let mut none = CommInterval::start(None);
        assert_eq!(none.take(), CommSnapshot::default());
    }

    #[test]
    fn shared_across_threads() {
        let s = CommStats::new_shared();
        std::thread::scope(|scope| {
            for _ in 0..8 {
                let s = Arc::clone(&s);
                scope.spawn(move || {
                    for _ in 0..1000 {
                        s.record_reduction(8);
                    }
                });
            }
        });
        assert_eq!(s.snapshot().reductions, 8000);
    }
}
