//! α–β communication cost model.
//!
//! Converts the reduction counters of [`crate::CommStats`] and the message
//! pattern of a [`HaloPlan`] into modeled wall times for an arbitrary rank
//! count, so strong-scaling figures (Fig. 7) can be extrapolated on a
//! laptop. The model is the textbook one:
//!
//! * a global reduction costs `α_r · stages(P)` where `stages(P)` is what
//!   the butterfly in [`crate::spmd`] actually executes
//!   ([`crate::spmd::reduce_stages`]: `log₂ P` for powers of two,
//!   `⌊log₂ P⌋ + 2` otherwise) — the charge and the executor are reconciled
//!   by test,
//! * a point-to-point message costs `α_m + bytes / β`.
//!
//! Default constants approximate the paper's Curie system (Sandy Bridge +
//! InfiniBand QDR); they only set the absolute scale, the *shape* of the
//! curves comes from the measured counts.

use crate::comm::CommSnapshot;
use crate::halo::HaloPlan;
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
        }
    }

    /// Modeled seconds of the reductions counted in `snap` on `nranks`
    /// ranks. Every reduction is exposed; the per-event stage charge is the
    /// same however many products one event batches.
    pub fn reduction_time(&self, snap: &CommSnapshot, nranks: usize) -> f64 {
        let stages = f64::from(reduce_stages(nranks.max(1))).max(1.0);
        snap.reductions as f64 * self.alpha_reduce * stages
            + snap.reduction_bytes as f64 * stages / self.beta
    }

    /// Modeled seconds of one exchange of `plan` moving a `cols`-wide
    /// multivector of `bytes_per_scalar`-byte entries. The plan's message
    /// and byte totals are over all its ranks; messages between distinct
    /// pairs proceed concurrently, so each rank is charged its average share.
    pub fn halo_time(&self, plan: &HaloPlan, cols: usize, bytes_per_scalar: usize) -> f64 {
        let p = plan.recv.len().max(1) as f64;
        (plan.messages_per_exchange as f64 / p) * self.alpha_msg
            + (plan.bytes_per_exchange(cols, bytes_per_scalar) as f64 / p) / self.beta
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comm::CommSnapshot;

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
            let t = m.reduction_time(&s, p);
            let expect = f64::from(crate::spmd::reduce_stages(p)) * m.alpha_reduce;
            assert!((t - expect).abs() < 1e-18, "P = {p}");
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
            let t1 = m.reduction_time(&one_event, p);
            let t3 = m.reduction_time(&classic, p);
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
        };
        for p in [512usize, 1024, 2048, 4096, 8192] {
            let tc = m.reduction_time(&classic, p);
            let tf = m.reduction_time(&fused, p);
            assert!(tc / tf >= 2.0, "P = {p}: ratio {}", tc / tf);
        }
    }

    #[test]
    fn halo_charge_is_each_ranks_share_of_one_exchange() {
        // 1-D chain of 64 rows over 4 ranks: 6 messages of one entry each.
        let mut c = kryst_sparse::Coo::new(64, 64);
        for i in 0..64 {
            c.push(i, i, 2.0);
            if i > 0 {
                c.push(i, i - 1, -1.0);
            }
        }
        let a: kryst_sparse::Csr<f64> = c.to_csr();
        let plan = HaloPlan::build(&a, &crate::Layout::even(64, 4));
        assert_eq!(plan.messages_per_exchange, 3);
        let m = CostModel::default();
        let expect = 3.0 / 4.0 * m.alpha_msg + (3 * 5 * 8) as f64 / 4.0 / m.beta;
        assert!((m.halo_time(&plan, 5, 8) - expect).abs() < 1e-18);
    }
}
