//! Combined phase reports.
//!
//! Combines the measured per-kind span times of a solve with the α–β
//! modeled time of its global reductions ([`CommSnapshot`]) at arbitrary
//! rank counts into one paper-style report table.

use crate::comm::CommSnapshot;
use crate::cost::CostModel;
use kryst_obs::{PhaseStats, ProfileSnapshot};

/// Modeled reduction time at one rank count.
#[derive(Debug, Clone, Copy)]
pub struct ModeledRow {
    /// Rank count the model was evaluated at.
    pub nranks: usize,
    /// Modeled reduction seconds.
    pub reduction: f64,
}

/// Combined measured + modeled breakdown for one solve.
#[derive(Debug, Clone)]
pub struct PhaseReport {
    /// Label printed at the top of the table (solver/preconditioner pair).
    pub label: String,
    /// Iterations the solve took (0 if unknown; per-iteration columns are
    /// suppressed in that case).
    pub iterations: usize,
    /// Measured local phases, sorted by descending total time.
    pub measured: Vec<PhaseStats>,
    /// Modeled reduction time at each requested rank count.
    pub modeled: Vec<ModeledRow>,
}

/// Build a combined report from a span-aggregate snapshot, the solve's
/// reduction counters, and a cost model evaluated at each rank count in
/// `ranks`.
pub fn phase_report(
    label: &str,
    prof: &ProfileSnapshot,
    comm: &CommSnapshot,
    model: &CostModel,
    ranks: &[usize],
    iterations: usize,
) -> PhaseReport {
    let mut measured = prof.phases.clone();
    measured.sort_by_key(|r| std::cmp::Reverse(r.total_ns));
    let modeled = ranks
        .iter()
        .map(|&p| ModeledRow {
            nranks: p,
            reduction: model.reduction_time(comm, p),
        })
        .collect();
    PhaseReport {
        label: label.to_string(),
        iterations,
        measured,
        modeled,
    }
}

impl PhaseReport {
    /// Render the report as a plain-text table in the style of the paper's
    /// per-phase breakdowns: measured local time per phase, then modeled
    /// reduction time per rank count.
    pub fn to_text(&self) -> String {
        let mut s = String::new();
        s.push_str(&format!("== {} ==\n", self.label));
        if self.iterations > 0 {
            s.push_str(&format!("iterations: {}\n", self.iterations));
        }
        s.push_str("measured local phases:\n");
        s.push_str(&format!(
            "  {:<14} {:>10} {:>12} {:>12} {:>14}\n",
            "phase", "count", "total_ms", "mean_us", "per_iter_us"
        ));
        for row in &self.measured {
            let total_ms = row.total_ns as f64 / 1e6;
            let mean_us = if row.count > 0 {
                row.total_ns as f64 / row.count as f64 / 1e3
            } else {
                0.0
            };
            let per_iter = if self.iterations > 0 {
                format!("{:.3}", row.total_ns as f64 / self.iterations as f64 / 1e3)
            } else {
                "-".to_string()
            };
            s.push_str(&format!(
                "  {:<14} {:>10} {:>12.3} {:>12.3} {:>14}\n",
                row.name, row.count, total_ms, mean_us, per_iter
            ));
        }
        if !self.modeled.is_empty() {
            s.push_str("modeled time at P ranks (s):\n");
            s.push_str(&format!("  {:>6} {:>12}\n", "P", "reduction"));
            for m in &self.modeled {
                s.push_str(&format!("  {:>6} {:>12.6}\n", m.nranks, m.reduction));
            }
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_renders_measured_and_modeled_sections() {
        let prof = kryst_obs::Aggregates::new();
        prof.record(kryst_obs::SpanKind::Spmv, 1_000_000);
        prof.record(kryst_obs::SpanKind::Reduction, 250_000);
        let comm = CommSnapshot {
            reductions: 100,
            reduction_bytes: 800,
            ..Default::default()
        };
        let rep = phase_report(
            "gmres30+jacobi",
            &prof.snapshot(),
            &comm,
            &CostModel::default(),
            &[16, 1024],
            50,
        );
        let text = rep.to_text();
        assert!(text.contains("gmres30+jacobi"));
        assert!(text.contains("spmv"));
        assert!(text.contains("reduction"));
        assert!(text.contains("iterations: 50"));
        assert!(text.contains("  1024"));
        // Measured rows are sorted by descending total time.
        assert!(text.find("spmv").unwrap() < text.find("reduction").unwrap());
    }
}
