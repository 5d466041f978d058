//! α–β–γ communication/compute cost model.
//!
//! Converts the exact counters of [`crate::CommStats`] into modeled wall
//! times for an arbitrary rank count, so strong-scaling figures (Fig. 7) can
//! be regenerated on a laptop. The model is the textbook one:
//!
//! * a global reduction costs `α_r · stages(P)` where `stages(P)` is what
//!   the butterfly in [`crate::spmd`] actually executes
//!   ([`crate::spmd::reduce_stages`]: `log₂ P` for powers of two,
//!   `⌊log₂ P⌋ + 2` otherwise) — the charge and the executor are reconciled
//!   by test,
//! * a point-to-point message costs `α_m + bytes / β`,
//! * local work costs `flops / (γ · P)` (perfectly parallel local kernels —
//!   appropriate for the memory-bound SpMM and subdomain solves),
//! * halo messages **overlap** interior compute: the portion of the flops
//!   recorded as overlappable (interior rows of a split SpMM) hides the p2p
//!   time, so the model charges `max(interior_compute, halo_message)`
//!   instead of their sum — only the *exposed* remainder of the p2p term
//!   shows up in the total.
//!
//! Default constants approximate the paper's Curie system (Sandy Bridge +
//! InfiniBand QDR); they only set the absolute scale, the *shape* of the
//! curves comes from the measured counts.

use crate::comm::CommSnapshot;
use crate::spmd::reduce_stages;

/// Machine constants for the model.
#[derive(Debug, Clone, Copy)]
pub struct CostModel {
    /// Per-stage reduction latency (seconds).
    pub alpha_reduce: f64,
    /// Point-to-point message latency (seconds).
    pub alpha_msg: f64,
    /// Link bandwidth (bytes/second).
    pub beta: f64,
    /// Per-rank effective compute rate (flops/second).
    pub gamma: f64,
}

impl Default for CostModel {
    fn default() -> Self {
        Self::curie_like()
    }
}

impl CostModel {
    /// Constants approximating Curie (2.7 GHz Sandy Bridge, IB QDR).
    pub fn curie_like() -> Self {
        Self {
            alpha_reduce: 1.5e-6,
            alpha_msg: 1.2e-6,
            beta: 3.2e9,
            gamma: 4.0e9,
        }
    }

    /// Constants *measured* on an actual transport backend by the
    /// calibration pass ([`crate::calibrate::Calibration::measure`]) —
    /// replaces every assumed default with wire reality.
    pub fn calibrated(c: &crate::calibrate::Calibration) -> Self {
        Self {
            alpha_reduce: c.alpha_reduce,
            alpha_msg: c.alpha_msg,
            beta: c.beta,
            gamma: c.gamma,
        }
    }

    /// Model the time of the work captured in `snap` on `nranks` ranks.
    ///
    /// `p2p_messages`/`p2p_bytes` in the snapshot are totals over ranks; the
    /// per-rank halo traffic is the total divided by `nranks` (messages
    /// between distinct pairs proceed concurrently). Halo time is charged as
    /// `max(interior_compute, halo_message)`: the interior compute recorded
    /// in `overlap_flops` hides in-flight messages, so only the exposed
    /// remainder of the raw p2p term is reported.
    pub fn time(&self, snap: &CommSnapshot, nranks: usize) -> ModeledTime {
        let p = nranks.max(1) as f64;
        let stages = f64::from(reduce_stages(nranks.max(1))).max(1.0);
        // Every reduction is exposed; the per-event stage charge is the
        // same however many products one event batches.
        let reduction = snap.reductions as f64 * self.alpha_reduce * stages
            + snap.reduction_bytes as f64 * stages / self.beta;
        let p2p_raw = (snap.p2p_messages as f64 / p) * self.alpha_msg
            + (snap.p2p_bytes as f64 / p) / self.beta;
        let compute = snap.flops as f64 / (self.gamma * p);
        let hidden = snap.overlap_flops.min(snap.flops) as f64 / (self.gamma * p);
        let p2p = (p2p_raw - hidden).max(0.0);
        ModeledTime {
            compute,
            reduction,
            p2p,
        }
    }
}

/// Decomposed modeled time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ModeledTime {
    /// Local compute component (seconds).
    pub compute: f64,
    /// Global-reduction component (seconds).
    pub reduction: f64,
    /// Point-to-point component (seconds).
    pub p2p: f64,
}

impl ModeledTime {
    /// Total modeled seconds (exposed terms only).
    pub fn total(&self) -> f64 {
        self.compute + self.reduction + self.p2p
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comm::CommSnapshot;

    fn snap() -> CommSnapshot {
        CommSnapshot {
            reductions: 100,
            reduction_bytes: 100 * 8,
            fused_parts: 0,
            p2p_messages: 1024,
            p2p_bytes: 1024 * 4096,
            flops: 1_000_000_000,
            overlap_flops: 0,
        }
    }

    #[test]
    fn compute_shrinks_with_ranks_reductions_grow() {
        let m = CostModel::default();
        let t64 = m.time(&snap(), 64);
        let t1024 = m.time(&snap(), 1024);
        assert!(t1024.compute < t64.compute);
        assert!(t1024.reduction > t64.reduction);
    }

    #[test]
    fn strong_scaling_saturates() {
        // With fixed work, speedup must be sublinear and eventually flat:
        // the reduction term becomes the floor.
        let m = CostModel::default();
        let t1 = m.time(&snap(), 1).total();
        let t256 = m.time(&snap(), 256).total();
        let t8192 = m.time(&snap(), 8192).total();
        let s256 = t1 / t256;
        let s8192 = t1 / t8192;
        assert!(s256 > 1.0);
        assert!(s8192 / s256 < 32.0, "speedup must not stay linear");
    }

    #[test]
    fn total_is_sum() {
        let m = CostModel::default();
        let t = m.time(&snap(), 16);
        assert!((t.total() - (t.compute + t.reduction + t.p2p)).abs() < 1e-15);
    }

    #[test]
    fn overlap_hides_p2p_behind_interior_compute() {
        let m = CostModel::default();
        let plain = snap();
        let mut overlapped = plain;
        overlapped.overlap_flops = plain.flops; // all compute overlappable
        for nranks in [16, 512, 8192] {
            let t_plain = m.time(&plain, nranks);
            let t_over = m.time(&overlapped, nranks);
            // Same compute and reduction; p2p charged as
            // max(interior, halo) − interior ≤ raw p2p.
            assert_eq!(t_over.compute, t_plain.compute);
            assert_eq!(t_over.reduction, t_plain.reduction);
            assert!(t_over.p2p <= t_plain.p2p, "P = {nranks}");
            let interior = overlapped.flops as f64 / (m.gamma * nranks as f64);
            let expect = (t_plain.p2p - interior).max(0.0);
            assert!((t_over.p2p - expect).abs() < 1e-18, "P = {nranks}");
            // Total equals max(interior, halo) + (compute − interior) + red.
            let combined =
                t_plain.p2p.max(interior) + (t_plain.compute - interior) + t_plain.reduction;
            assert!((t_over.total() - combined).abs() < 1e-15, "P = {nranks}");
        }
    }

    #[test]
    fn reduction_stages_match_the_executor() {
        // The α_r charge uses the butterfly's actual stage count, including
        // the non-power-of-two fold/unfold penalty.
        let m = CostModel::default();
        let s = CommSnapshot {
            reductions: 1,
            ..Default::default()
        };
        for p in [2usize, 3, 4, 7, 8, 16, 512, 8192] {
            let t = m.time(&s, p);
            let expect = f64::from(crate::spmd::reduce_stages(p)) * m.alpha_reduce;
            assert!((t.reduction - expect).abs() < 1e-18, "P = {p}");
        }
    }

    #[test]
    fn classic_and_fused_share_per_event_stage_accounting() {
        // Satellite audit: the reduction charge is per *recorded event*
        // (α_r·stages + bytes·stages/β) regardless of path. Classic's 3
        // separate products and fused's 1 batched product carrying the same
        // payload must differ only by the event count — the per-event stage
        // factor is identical, matching the §III-D conformance counts.
        let m = CostModel::default();
        for p in [3usize, 7, 512, 4096, 8192] {
            let stages = f64::from(crate::spmd::reduce_stages(p));
            let one_event = CommSnapshot {
                reductions: 1,
                reduction_bytes: 240,
                ..Default::default()
            };
            let classic = CommSnapshot {
                reductions: 3,
                reduction_bytes: 3 * 240,
                ..Default::default()
            };
            let t1 = m.time(&one_event, p).reduction;
            let t3 = m.time(&classic, p).reduction;
            let expect1 = stages * (m.alpha_reduce + 240.0 / m.beta);
            assert!((t1 - expect1).abs() < 1e-15, "P = {p}");
            assert!(
                (t3 - 3.0 * t1).abs() < 1e-15,
                "P = {p}: classic is 3 events"
            );
        }
    }

    #[test]
    fn fused_reductions_cut_latency() {
        // One fused reduction carrying the same bytes as three separate ones
        // must model ≥2× less reduction latency at scale.
        let m = CostModel::default();
        let classic = CommSnapshot {
            reductions: 3,
            reduction_bytes: 3 * 240,
            ..Default::default()
        };
        let fused = CommSnapshot {
            reductions: 1,
            reduction_bytes: 3 * 240,
            fused_parts: 3,
            ..Default::default()
        };
        for p in [512usize, 1024, 2048, 4096, 8192] {
            let tc = m.time(&classic, p).reduction;
            let tf = m.time(&fused, p).reduction;
            assert!(tc / tf >= 2.0, "P = {p}: ratio {}", tc / tf);
        }
    }
}
