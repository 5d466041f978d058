//! Phase-attributed wall-clock profiler.
//!
//! The profiler answers "where does local time go" with the same phase
//! vocabulary the paper uses for its breakdown figures: sparse mat-vec,
//! halo exchange, orthogonalization Gram work, reductions, preconditioner
//! application (per AMG level), small dense kernels, and recycle-space
//! setup. It is deliberately minimal:
//!
//! * **Thread-safe and lock-free** — every slot is a handful of relaxed
//!   atomics, so concurrent workers can record without contention.
//! * **Near-zero disabled cost** — the hot path is one relaxed bool load;
//!   no `Instant::now()` call is made when disabled, so enabling the
//!   profiler is the only thing that touches the clock. Because solver
//!   traces never include profiler state, golden traces stay bit-identical
//!   whether profiling is on or off.
//! * **Monotonic clock** — timings come from [`std::time::Instant`].
//!
//! Use [`profile`] for the global instance (enabled via `KRYST_PROF=1`),
//! or carry an explicit [`Profiler`] for isolated measurements:
//!
//! ```
//! use kryst_obs::profiler::{Phase, Profiler};
//! let prof = Profiler::new(true);
//! {
//!     let _t = prof.timed(Phase::Spmv);
//!     // ... kernel work ...
//! }
//! assert_eq!(prof.snapshot().phase(Phase::Spmv).unwrap().count, 1);
//! ```

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

/// Number of log2 latency buckets per phase (bucket `i` holds samples with
/// `ilog2(ns) == i`, the last bucket is a catch-all for >= 2^31 ns).
pub const HIST_BUCKETS: usize = 32;

/// Maximum number of distinct AMG levels tracked individually; deeper levels
/// fold into the last per-level slot.
pub const MAX_PRECOND_LEVELS: usize = 8;

const NUM_SLOTS: usize = 10 + MAX_PRECOND_LEVELS;

/// A solver phase the profiler attributes time to.
///
/// The named variants match the paper-style breakdown table; AMG V-cycle
/// work is additionally attributed per level via [`Phase::PrecondLevel`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Phase {
    /// Sparse matrix-(block-)vector products.
    Spmv,
    /// Halo exchange accounting and boundary-row compute.
    Halo,
    /// Block orthogonalization Gram products and updates.
    OrthGram,
    /// Global reduction work (all-reduce bodies, projected-op dots).
    Reduction,
    /// Preconditioner application (whole apply).
    Precond,
    /// Small dense kernels: eigensolves, QR/LU factorizations.
    SmallDense,
    /// Recycle-space construction/refresh in GCRO-DR.
    RecycleSetup,
    /// Agglomerated AMG coarse solve: the coarse-grid direct solve executed
    /// on a rank subset (plus the modeled gather/scatter around it).
    CoarseAgglom,
    /// What a solver does between two cycles, short of the new residual
    /// (which is under [`Phase::Spmv`] and [`Phase::Precond`]): the
    /// least-squares solve, the solution update, and the bookkeeping of
    /// LGMRES' stored pairs or GCRO-DR's `U`-side correction.
    Restart,
    /// Building a preconditioner from the operator: the AMG hierarchy, the
    /// Schwarz subdomain factors, an incomplete factorization. Outside every
    /// solve, so beside — never inside — the phases above.
    PrecondSetup,
    /// Per-level AMG cycle work (smoother + residual/transfer at level `l`).
    PrecondLevel(usize),
}

impl Phase {
    fn slot(self) -> usize {
        match self {
            Phase::Spmv => 0,
            Phase::Halo => 1,
            Phase::OrthGram => 2,
            Phase::Reduction => 3,
            Phase::Precond => 4,
            Phase::SmallDense => 5,
            Phase::RecycleSetup => 6,
            Phase::CoarseAgglom => 7,
            Phase::Restart => 8,
            Phase::PrecondSetup => 9,
            Phase::PrecondLevel(l) => 10 + l.min(MAX_PRECOND_LEVELS - 1),
        }
    }

    fn from_slot(slot: usize) -> Phase {
        match slot {
            0 => Phase::Spmv,
            1 => Phase::Halo,
            2 => Phase::OrthGram,
            3 => Phase::Reduction,
            4 => Phase::Precond,
            5 => Phase::SmallDense,
            6 => Phase::RecycleSetup,
            7 => Phase::CoarseAgglom,
            8 => Phase::Restart,
            9 => Phase::PrecondSetup,
            l => Phase::PrecondLevel(l - 10),
        }
    }

    /// Stable display name used in snapshots, reports, and JSON dumps.
    pub fn name(self) -> String {
        match self {
            Phase::Spmv => "spmv".to_string(),
            Phase::Halo => "halo".to_string(),
            Phase::OrthGram => "orth/gram".to_string(),
            Phase::Reduction => "reduction".to_string(),
            Phase::Precond => "precond".to_string(),
            Phase::SmallDense => "small_dense".to_string(),
            Phase::RecycleSetup => "recycle_setup".to_string(),
            Phase::CoarseAgglom => "coarse_agglom".to_string(),
            Phase::Restart => "restart".to_string(),
            Phase::PrecondSetup => "precond_setup".to_string(),
            Phase::PrecondLevel(l) => format!("precond/l{}", l.min(MAX_PRECOND_LEVELS - 1)),
        }
    }
}

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

    fn record(&self, ns: u64) {
        self.count.fetch_add(1, Ordering::Relaxed);
        self.total_ns.fetch_add(ns, Ordering::Relaxed);
        self.min_ns.fetch_min(ns, Ordering::Relaxed);
        self.max_ns.fetch_max(ns, Ordering::Relaxed);
        let bucket = (63 - (ns.max(1)).leading_zeros() as usize).min(HIST_BUCKETS - 1);
        self.hist[bucket].fetch_add(1, Ordering::Relaxed);
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
}

/// Thread-safe phase-attributed profiler with fixed per-phase slots.
pub struct Profiler {
    enabled: AtomicBool,
    slots: [Slot; NUM_SLOTS],
}

impl Profiler {
    /// Create a profiler, initially enabled or disabled.
    pub fn new(enabled: bool) -> Profiler {
        Profiler {
            enabled: AtomicBool::new(enabled),
            slots: std::array::from_fn(|_| Slot::new()),
        }
    }

    /// The process-global profiler. Starts enabled iff the `KRYST_PROF`
    /// environment variable is `1` or `true`; flip at runtime with
    /// [`Profiler::set_enabled`].
    pub fn global() -> &'static Profiler {
        static GLOBAL: OnceLock<Profiler> = OnceLock::new();
        GLOBAL.get_or_init(|| {
            let on = std::env::var("KRYST_PROF")
                .map(|v| v == "1" || v.eq_ignore_ascii_case("true"))
                .unwrap_or(false);
            Profiler::new(on)
        })
    }

    /// Whether timing is currently being collected.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Enable or disable collection at runtime.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    /// Start a timed region attributed to `phase`; the returned guard
    /// records the elapsed time when dropped. When the profiler is
    /// disabled this is one relaxed load and no clock read.
    #[inline]
    pub fn timed(&self, phase: Phase) -> PhaseTimer<'_> {
        if self.enabled() {
            PhaseTimer {
                inner: Some((self, phase, Instant::now())),
            }
        } else {
            PhaseTimer { inner: None }
        }
    }

    /// Record an externally measured duration (in nanoseconds) for `phase`.
    #[inline]
    pub fn record_ns(&self, phase: Phase, ns: u64) {
        if self.enabled() {
            self.slots[phase.slot()].record(ns);
        }
    }

    /// Clear all accumulated samples (the enabled flag is untouched).
    pub fn reset(&self) {
        for s in &self.slots {
            s.reset();
        }
    }

    /// Capture a consistent-enough copy of all per-phase aggregates.
    pub fn snapshot(&self) -> ProfileSnapshot {
        let mut phases = Vec::new();
        for (i, s) in self.slots.iter().enumerate() {
            let count = s.count.load(Ordering::Relaxed);
            if count == 0 {
                continue;
            }
            let mut hist = [0u64; HIST_BUCKETS];
            for (h, b) in hist.iter_mut().zip(s.hist.iter()) {
                *h = b.load(Ordering::Relaxed);
            }
            phases.push(PhaseStats {
                name: Phase::from_slot(i).name(),
                count,
                total_ns: s.total_ns.load(Ordering::Relaxed),
                min_ns: s.min_ns.load(Ordering::Relaxed),
                max_ns: s.max_ns.load(Ordering::Relaxed),
                hist,
            });
        }
        ProfileSnapshot { phases }
    }
}

/// RAII guard returned by [`Profiler::timed`]; records on drop.
pub struct PhaseTimer<'a> {
    inner: Option<(&'a Profiler, Phase, Instant)>,
}

impl Drop for PhaseTimer<'_> {
    fn drop(&mut self) {
        if let Some((prof, phase, t0)) = self.inner.take() {
            let ns = t0.elapsed().as_nanos().min(u64::MAX as u128) as u64;
            prof.slots[phase.slot()].record(ns);
        }
    }
}

/// Time a region on the global profiler (see [`Profiler::global`]).
#[inline]
pub fn profile(phase: Phase) -> PhaseTimer<'static> {
    Profiler::global().timed(phase)
}

/// Aggregated statistics for one phase.
#[derive(Clone, Debug)]
pub struct PhaseStats {
    /// Phase display name (see [`Phase::name`]).
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

impl PhaseStats {
    /// Mean sample duration in nanoseconds (0 if empty).
    pub fn mean_ns(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.count as f64
        }
    }
}

/// A point-in-time copy of every non-empty phase's aggregates.
#[derive(Clone, Debug, Default)]
pub struct ProfileSnapshot {
    /// Per-phase aggregates, in slot order; empty phases are omitted.
    pub phases: Vec<PhaseStats>,
}

impl ProfileSnapshot {
    /// Look up the stats recorded for `phase`, if any.
    pub fn phase(&self, phase: Phase) -> Option<&PhaseStats> {
        let name = phase.name();
        self.phases.iter().find(|p| p.name == name)
    }

    /// Sum of `total_ns` over every phase.
    pub fn total_ns(&self) -> u64 {
        self.phases.iter().map(|p| p.total_ns).sum()
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

    /// Render a human-readable per-phase table.
    pub fn to_text(&self) -> String {
        let mut s = String::new();
        s.push_str(&format!(
            "{:<14} {:>10} {:>12} {:>12} {:>12} {:>12}\n",
            "phase", "count", "total_ms", "mean_us", "min_us", "max_us"
        ));
        for p in &self.phases {
            s.push_str(&format!(
                "{:<14} {:>10} {:>12.3} {:>12.3} {:>12.3} {:>12.3}\n",
                p.name,
                p.count,
                p.total_ns as f64 / 1e6,
                p.mean_ns() / 1e3,
                if p.min_ns == u64::MAX {
                    0.0
                } else {
                    p.min_ns as f64 / 1e3
                },
                p.max_ns as f64 / 1e3,
            ));
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_records_nothing() {
        let prof = Profiler::new(false);
        {
            let _t = prof.timed(Phase::Spmv);
        }
        prof.record_ns(Phase::Halo, 100);
        assert!(prof.snapshot().phases.is_empty());
    }

    #[test]
    fn enabled_records_counts_and_bounds() {
        let prof = Profiler::new(true);
        prof.record_ns(Phase::Spmv, 100);
        prof.record_ns(Phase::Spmv, 300);
        prof.record_ns(Phase::PrecondLevel(2), 50);
        let snap = prof.snapshot();
        let spmv = snap.phase(Phase::Spmv).unwrap();
        assert_eq!(spmv.count, 2);
        assert_eq!(spmv.total_ns, 400);
        assert_eq!(spmv.min_ns, 100);
        assert_eq!(spmv.max_ns, 300);
        // 100ns -> bucket ilog2(100)=6, 300ns -> bucket 8.
        assert_eq!(spmv.hist[6], 1);
        assert_eq!(spmv.hist[8], 1);
        assert!(snap.phase(Phase::PrecondLevel(2)).is_some());
        assert_eq!(
            snap.phase(Phase::PrecondLevel(2)).unwrap().name,
            "precond/l2"
        );
    }

    #[test]
    fn timer_guard_records_on_drop() {
        let prof = Profiler::new(true);
        {
            let _t = prof.timed(Phase::OrthGram);
            std::hint::black_box(3 + 4);
        }
        let snap = prof.snapshot();
        assert_eq!(snap.phase(Phase::OrthGram).unwrap().count, 1);
    }

    #[test]
    fn deep_levels_fold_into_last_slot() {
        let prof = Profiler::new(true);
        prof.record_ns(Phase::PrecondLevel(MAX_PRECOND_LEVELS + 3), 10);
        let snap = prof.snapshot();
        let p = snap
            .phase(Phase::PrecondLevel(MAX_PRECOND_LEVELS - 1))
            .unwrap();
        assert_eq!(p.count, 1);
    }

    #[test]
    fn named_phases_have_own_slots() {
        let prof = Profiler::new(true);
        prof.record_ns(Phase::CoarseAgglom, 11);
        prof.record_ns(Phase::PrecondSetup, 22);
        prof.record_ns(Phase::PrecondLevel(0), 33);
        let snap = prof.snapshot();
        assert_eq!(
            snap.phase(Phase::CoarseAgglom).unwrap().name,
            "coarse_agglom"
        );
        assert_eq!(
            snap.phase(Phase::PrecondSetup).unwrap().name,
            "precond_setup"
        );
        // The last named slot must not alias the first per-level slot.
        assert_eq!(snap.phase(Phase::PrecondLevel(0)).unwrap().total_ns, 33);
        assert_eq!(snap.phase(Phase::CoarseAgglom).unwrap().total_ns, 11);
        assert_eq!(snap.phase(Phase::PrecondSetup).unwrap().total_ns, 22);
    }

    #[test]
    fn reset_clears() {
        let prof = Profiler::new(true);
        prof.record_ns(Phase::Reduction, 7);
        prof.reset();
        assert!(prof.snapshot().phases.is_empty());
    }

    #[test]
    fn json_round_trip() {
        let prof = Profiler::new(true);
        prof.record_ns(Phase::Spmv, 123);
        prof.record_ns(Phase::SmallDense, 456_789);
        let snap = prof.snapshot();
        let text = snap.to_json();
        let back = ProfileSnapshot::from_json(&text).unwrap();
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

    #[test]
    fn concurrent_recording_sums() {
        let prof = std::sync::Arc::new(Profiler::new(true));
        let mut handles = Vec::new();
        for _ in 0..4 {
            let p = prof.clone();
            handles.push(std::thread::spawn(move || {
                for _ in 0..1000 {
                    p.record_ns(Phase::Reduction, 10);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let snap = prof.snapshot();
        let r = snap.phase(Phase::Reduction).unwrap();
        assert_eq!(r.count, 4000);
        assert_eq!(r.total_ns, 40_000);
    }
}
