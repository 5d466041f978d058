//! Instrumented communication counters.
//!
//! Every kernel that would communicate in a distributed run reports here:
//! global reductions (dot products, Gram matrices, norms — the quantity the
//! paper's §III-D analyses), point-to-point messages (halo exchanges of
//! SpMM), and local floating-point work. Counters are atomics with relaxed
//! ordering — they are statistics, not synchronization.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Shared communication/work counters.
#[derive(Debug, Default)]
pub struct CommStats {
    reductions: AtomicU64,
    reduction_bytes: AtomicU64,
    fused_parts: AtomicU64,
    p2p_messages: AtomicU64,
    p2p_bytes: AtomicU64,
    flops: AtomicU64,
    overlap_flops: AtomicU64,
}

/// A point-in-time copy of [`CommStats`].
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

    /// Record a halo exchange: `messages` point-to-point sends moving `bytes`
    /// in total.
    #[inline]
    pub fn record_p2p(&self, messages: usize, bytes: usize) {
        self.p2p_messages
            .fetch_add(messages as u64, Ordering::Relaxed);
        self.p2p_bytes.fetch_add(bytes as u64, Ordering::Relaxed);
    }

    /// Record local floating-point work.
    #[inline]
    pub fn record_flops(&self, flops: usize) {
        self.flops.fetch_add(flops as u64, Ordering::Relaxed);
    }

    /// Record the portion of already-counted flops that can hide behind an
    /// in-flight halo exchange (interior rows of an overlapped SpMM).
    #[inline]
    pub fn record_overlap_flops(&self, flops: usize) {
        self.overlap_flops
            .fetch_add(flops as u64, Ordering::Relaxed);
    }

    /// Copy out the counters.
    pub fn snapshot(&self) -> CommSnapshot {
        CommSnapshot {
            reductions: self.reductions.load(Ordering::Relaxed),
            reduction_bytes: self.reduction_bytes.load(Ordering::Relaxed),
            fused_parts: self.fused_parts.load(Ordering::Relaxed),
            p2p_messages: self.p2p_messages.load(Ordering::Relaxed),
            p2p_bytes: self.p2p_bytes.load(Ordering::Relaxed),
            flops: self.flops.load(Ordering::Relaxed),
            overlap_flops: self.overlap_flops.load(Ordering::Relaxed),
        }
    }

    /// Zero all counters.
    pub fn reset(&self) {
        self.reductions.store(0, Ordering::Relaxed);
        self.reduction_bytes.store(0, Ordering::Relaxed);
        self.fused_parts.store(0, Ordering::Relaxed);
        self.p2p_messages.store(0, Ordering::Relaxed);
        self.p2p_bytes.store(0, Ordering::Relaxed);
        self.flops.store(0, Ordering::Relaxed);
        self.overlap_flops.store(0, Ordering::Relaxed);
    }
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

    /// Convert to an observability delta.
    pub fn to_delta(&self) -> kryst_obs::CommDelta {
        kryst_obs::CommDelta {
            reductions: self.reductions,
            reduction_bytes: self.reduction_bytes,
            fused_parts: self.fused_parts,
            p2p_messages: self.p2p_messages,
            p2p_bytes: self.p2p_bytes,
            flops: self.flops,
            overlap_flops: self.overlap_flops,
        }
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
        s.record_p2p(4, 4096);
        s.record_flops(1000);
        let snap = s.snapshot();
        assert_eq!(snap.reductions, 2);
        assert_eq!(snap.reduction_bytes, 72);
        assert_eq!(snap.p2p_messages, 4);
        assert_eq!(snap.flops, 1000);
        s.reset();
        assert_eq!(s.snapshot(), CommSnapshot::default());
    }

    #[test]
    fn fused_reductions_charge_one_latency_with_summed_bytes() {
        let s = CommStats::new_shared();
        // Three products batched into ONE reduction: 1 latency charge,
        // 3 parts, summed payload.
        s.record_fused_reductions(1, 3, 24 + 40 + 16);
        s.record_overlap_flops(500);
        s.record_flops(800);
        let snap = s.snapshot();
        assert_eq!(snap.reductions, 1);
        assert_eq!(snap.fused_parts, 3);
        assert_eq!(snap.reduction_bytes, 80);
        assert_eq!(snap.flops, 800);
        assert_eq!(snap.overlap_flops, 500);
        // New fields participate in since/reset like the rest.
        let d = s.snapshot().since(&CommSnapshot::default());
        assert_eq!(d.fused_parts, 3);
        assert_eq!(d.overlap_flops, 500);
        s.reset();
        assert_eq!(s.snapshot(), CommSnapshot::default());
    }

    #[test]
    fn snapshot_difference() {
        let s = CommStats::new_shared();
        s.record_reduction(8);
        let a = s.snapshot();
        s.record_reduction(8);
        s.record_p2p(1, 100);
        let b = s.snapshot();
        let d = b.since(&a);
        assert_eq!(d.reductions, 1);
        assert_eq!(d.p2p_messages, 1);
    }

    #[test]
    fn interval_take_partitions_the_counter_stream() {
        let s = CommStats::new_shared();
        let mut iv = CommInterval::start(Some(Arc::clone(&s)));
        s.record_reductions(3, 24);
        let d1 = iv.take();
        assert_eq!(d1.reductions, 3);
        s.record_reduction(8);
        s.record_p2p(2, 128);
        assert_eq!(iv.peek().reductions, 1);
        let d2 = iv.take();
        assert_eq!(d2.reductions, 1);
        assert_eq!(d2.p2p_messages, 2);
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
