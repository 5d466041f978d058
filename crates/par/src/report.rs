//! Per-rank communication attribution and combined phase reports.
//!
//! The solvers record *global* communication counters ([`CommSnapshot`]:
//! totals over all ranks). This module splits those totals back over ranks
//! using the exact topology of the [`HaloPlan`] — no estimation, pure integer
//! bookkeeping — so per-rank imbalance (max/min/avg of messages, bytes,
//! fused parts) can be read off, and combines the measured per-kind span
//! times with α–β–γ modeled communication time at arbitrary rank counts into
//! one paper-style report table.

use crate::calibrate::Calibration;
use crate::comm::CommSnapshot;
use crate::cost::CostModel;
use crate::halo::HaloPlan;
use kryst_obs::ProfileSnapshot;

/// Split a global counter snapshot into exact per-rank snapshots.
///
/// Point-to-point traffic is attributed by the halo plan: the counted
/// messages are `E` whole exchanges (`E = p2p_messages /
/// messages_per_exchange`), and within one exchange rank `r` receives
/// `plan.recv[r].len()` messages carrying its ghost-entry count. Bytes are
/// split proportionally to ghost entries. Reductions are collectives — every
/// rank participates in each one, so the reduction counters are *copied* to
/// each rank, not divided. Flops are split evenly. Any integer remainder
/// (traffic not attributable to whole exchanges) lands on rank 0, so the
/// per-rank p2p fields always sum back to the global counters exactly.
pub fn per_rank_comm(plan: &HaloPlan, global: &CommSnapshot, nranks: usize) -> Vec<CommSnapshot> {
    let nranks = nranks.max(1);
    let mut out = vec![CommSnapshot::default(); nranks];

    // Whole-exchange attribution of p2p traffic.
    let exchanges = if plan.messages_per_exchange > 0 {
        global.p2p_messages / plan.messages_per_exchange as u64
    } else {
        0
    };
    let bytes_unit = if plan.entries_per_exchange > 0 {
        global.p2p_bytes / plan.entries_per_exchange as u64
    } else {
        0
    };
    let flops_base = global.flops / nranks as u64;
    let overlap_base = global.overlap_flops / nranks as u64;
    for (r, snap) in out.iter_mut().enumerate() {
        let neighbors = plan.recv.get(r).map(Vec::len).unwrap_or(0) as u64;
        let entries: usize = plan
            .recv
            .get(r)
            .map(|v| v.iter().map(|&(_, c)| c).sum())
            .unwrap_or(0);
        snap.p2p_messages = neighbors * exchanges;
        snap.p2p_bytes = entries as u64 * bytes_unit;
        // Collectives: every rank executes every reduction.
        snap.reductions = global.reductions;
        snap.reduction_bytes = global.reduction_bytes;
        snap.fused_parts = global.fused_parts;
        snap.flops = flops_base;
        snap.overlap_flops = overlap_base;
    }
    // Remainders (partial exchanges, non-divisible byte totals, flop
    // leftovers) go to rank 0 so the sums reconcile exactly.
    let msg_sum: u64 = out.iter().map(|s| s.p2p_messages).sum();
    let byte_sum: u64 = out.iter().map(|s| s.p2p_bytes).sum();
    let flop_sum: u64 = out.iter().map(|s| s.flops).sum();
    let overlap_sum: u64 = out.iter().map(|s| s.overlap_flops).sum();
    out[0].p2p_messages += global.p2p_messages - msg_sum;
    out[0].p2p_bytes += global.p2p_bytes - byte_sum;
    out[0].flops += global.flops - flop_sum;
    out[0].overlap_flops += global.overlap_flops - overlap_sum;
    out
}

/// One row of a [`PhaseReport`]: a measured phase.
#[derive(Debug, Clone)]
pub struct PhaseRow {
    /// Phase name (as in [`kryst_obs::SpanKind::name`]).
    pub name: String,
    /// Number of timed occurrences.
    pub count: u64,
    /// Measured local wall time in nanoseconds.
    pub total_ns: u64,
}

/// Modeled communication time at one rank count.
#[derive(Debug, Clone, Copy)]
pub struct ModeledRow {
    /// Rank count the model was evaluated at.
    pub nranks: usize,
    /// Modeled compute seconds.
    pub compute: f64,
    /// Modeled reduction seconds.
    pub reduction: f64,
    /// Modeled point-to-point seconds.
    pub p2p: f64,
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
    pub measured: Vec<PhaseRow>,
    /// Modeled comm time at each requested rank count.
    pub modeled: Vec<ModeledRow>,
}

/// Build a combined report from a span-aggregate snapshot, the global comm
/// counters, and a cost model evaluated at each rank count in `ranks`.
pub fn phase_report(
    label: &str,
    prof: &ProfileSnapshot,
    comm: &CommSnapshot,
    model: &CostModel,
    ranks: &[usize],
    iterations: usize,
) -> PhaseReport {
    let mut measured: Vec<PhaseRow> = prof
        .phases
        .iter()
        .filter(|p| p.count > 0)
        .map(|p| PhaseRow {
            name: p.name.clone(),
            count: p.count,
            total_ns: p.total_ns,
        })
        .collect();
    measured.sort_by_key(|r| std::cmp::Reverse(r.total_ns));
    let modeled = ranks
        .iter()
        .map(|&p| {
            let t = model.time(comm, p);
            ModeledRow {
                nranks: p,
                compute: t.compute,
                reduction: t.reduction,
                p2p: t.p2p,
            }
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
    /// comm/compute time per rank count (per iteration when known).
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
            s.push_str(&format!(
                "  {:>6} {:>12} {:>12} {:>12} {:>12}\n",
                "P", "compute", "reduction", "p2p", "total"
            ));
            for m in &self.modeled {
                let total = m.compute + m.reduction + m.p2p;
                s.push_str(&format!(
                    "  {:>6} {:>12.6} {:>12.6} {:>12.6} {:>12.6}\n",
                    m.nranks, m.compute, m.reduction, m.p2p, total
                ));
            }
        }
        s
    }
}

/// Render the transport calibration table: assumed (Curie-like) constants
/// next to the constants measured on each backend, one column per
/// [`Calibration`]. This is the table the prof-smoke CI leg greps for.
pub fn calibration_table(assumed: &CostModel, cals: &[Calibration]) -> String {
    let mut s = String::from("transport calibration (measured machine constants):\n");
    s.push_str(&format!("  {:<14} {:>14}", "constant", "assumed"));
    for c in cals {
        s.push_str(&format!(
            " {:>14}",
            format!("{}(P={})", c.backend, c.nranks)
        ));
    }
    s.push('\n');
    type Get = fn(&Calibration) -> f64;
    let rows: [(&str, f64, Get); 4] = [
        ("alpha_msg_s", assumed.alpha_msg, |c| c.alpha_msg),
        ("alpha_reduce_s", assumed.alpha_reduce, |c| c.alpha_reduce),
        ("beta_B_per_s", assumed.beta, |c| c.beta),
        ("gamma_flop_s", assumed.gamma, |c| c.gamma),
    ];
    for (name, assumed_v, get) in rows {
        s.push_str(&format!("  {:<14} {:>14.4e}", name, assumed_v));
        for c in cals {
            s.push_str(&format!(" {:>14.4e}", get(c)));
        }
        s.push('\n');
    }
    s
}

/// One measured-vs-modeled comparison: a communication pattern replayed on a
/// real backend against the time the calibrated cost model predicts for it.
#[derive(Debug, Clone)]
pub struct ValidationRow {
    /// What was replayed (e.g. `"reductions/iter"`, `"halo/iter"`).
    pub what: String,
    /// Backend it ran on.
    pub backend: String,
    /// World size of the replay.
    pub nranks: usize,
    /// Wall seconds measured on the wire.
    pub measured_s: f64,
    /// Seconds the calibrated model charges for the same pattern.
    pub modeled_s: f64,
}

impl ValidationRow {
    /// measured / modeled (∞ when the model charges zero).
    pub fn ratio(&self) -> f64 {
        if self.modeled_s > 0.0 {
            self.measured_s / self.modeled_s
        } else {
            f64::INFINITY
        }
    }
}

/// Render the measured-vs-modeled validation table (the acceptance check:
/// per-iteration comm time agreeing within 2× on the socket backend).
pub fn validation_table(rows: &[ValidationRow]) -> String {
    let mut s = String::from("measured vs modeled comm time:\n");
    s.push_str(&format!(
        "  {:<18} {:>10} {:>4} {:>14} {:>14} {:>8}\n",
        "pattern", "backend", "P", "measured_s", "modeled_s", "ratio"
    ));
    for r in rows {
        s.push_str(&format!(
            "  {:<18} {:>10} {:>4} {:>14.6e} {:>14.6e} {:>8.3}\n",
            r.what,
            r.backend,
            r.nranks,
            r.measured_s,
            r.modeled_s,
            r.ratio()
        ));
    }
    s
}

/// Serialize a [`CommSnapshot`] as a JSON object.
pub fn comm_to_json(snap: &CommSnapshot) -> String {
    kryst_obs::json::JsonValue::obj(vec![
        ("reductions", (snap.reductions as f64).into()),
        ("reduction_bytes", (snap.reduction_bytes as f64).into()),
        ("fused_parts", (snap.fused_parts as f64).into()),
        ("p2p_messages", (snap.p2p_messages as f64).into()),
        ("p2p_bytes", (snap.p2p_bytes as f64).into()),
        ("flops", (snap.flops as f64).into()),
        ("overlap_flops", (snap.overlap_flops as f64).into()),
    ])
    .to_json()
}

/// Parse a [`CommSnapshot`] from the JSON produced by [`comm_to_json`].
pub fn comm_from_json(text: &str) -> Option<CommSnapshot> {
    let v = kryst_obs::json::JsonValue::parse(text).ok()?;
    let field = |k: &str| v.get(k).and_then(|x| x.as_f64()).map(|x| x as u64);
    Some(CommSnapshot {
        reductions: field("reductions")?,
        reduction_bytes: field("reduction_bytes")?,
        fused_parts: field("fused_parts")?,
        p2p_messages: field("p2p_messages")?,
        p2p_bytes: field("p2p_bytes")?,
        flops: field("flops")?,
        overlap_flops: field("overlap_flops")?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Layout;
    use kryst_sparse::Coo;

    fn laplace1d(n: usize) -> kryst_sparse::Csr<f64> {
        let mut c = Coo::new(n, n);
        for i in 0..n {
            c.push(i, i, 2.0);
            if i > 0 {
                c.push(i, i - 1, -1.0);
            }
            if i + 1 < n {
                c.push(i, i + 1, -1.0);
            }
        }
        c.to_csr()
    }

    fn plan(nranks: usize) -> HaloPlan {
        let a = laplace1d(64);
        HaloPlan::build(&a, &Layout::even(64, nranks))
    }

    #[test]
    fn per_rank_sums_reconcile_exactly() {
        for nranks in [2usize, 4, 8] {
            let p = plan(nranks);
            let global = CommSnapshot {
                reductions: 37,
                reduction_bytes: 37 * 48,
                fused_parts: 111,
                p2p_messages: p.messages_per_exchange as u64 * 25,
                p2p_bytes: p.entries_per_exchange as u64 * 25 * 8,
                flops: 1_000_003,
                overlap_flops: 999_999,
            };
            let ranks = per_rank_comm(&p, &global, nranks);
            assert_eq!(ranks.len(), nranks);
            let msg: u64 = ranks.iter().map(|s| s.p2p_messages).sum();
            let bytes: u64 = ranks.iter().map(|s| s.p2p_bytes).sum();
            let flops: u64 = ranks.iter().map(|s| s.flops).sum();
            let overlap: u64 = ranks.iter().map(|s| s.overlap_flops).sum();
            assert_eq!(msg, global.p2p_messages, "P = {nranks}");
            assert_eq!(bytes, global.p2p_bytes, "P = {nranks}");
            assert_eq!(flops, global.flops, "P = {nranks}");
            assert_eq!(overlap, global.overlap_flops, "P = {nranks}");
            for s in &ranks {
                // Collectives are copied, not divided.
                assert_eq!(s.reductions, global.reductions);
                assert_eq!(s.reduction_bytes, global.reduction_bytes);
                assert_eq!(s.fused_parts, global.fused_parts);
            }
        }
    }

    #[test]
    fn chain_topology_end_ranks_get_less_traffic() {
        let nranks = 4;
        let p = plan(nranks);
        let global = CommSnapshot {
            p2p_messages: p.messages_per_exchange as u64 * 10,
            p2p_bytes: p.entries_per_exchange as u64 * 10 * 8,
            ..Default::default()
        };
        let ranks = per_rank_comm(&p, &global, nranks);
        // 1-D chain: end ranks have 1 neighbor, interior ranks 2.
        assert!(ranks[0].p2p_messages < ranks[1].p2p_messages);
        assert!(ranks[3].p2p_messages < ranks[2].p2p_messages);
    }

    #[test]
    fn report_renders_measured_and_modeled_sections() {
        let prof = kryst_obs::Aggregates::new();
        prof.record(kryst_obs::SpanKind::Spmv, 1_000_000);
        prof.record(kryst_obs::SpanKind::Reduction, 250_000);
        let comm = CommSnapshot {
            reductions: 100,
            reduction_bytes: 800,
            p2p_messages: 64,
            p2p_bytes: 64 * 1024,
            flops: 10_000_000,
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

    #[test]
    fn calibration_and_validation_tables_render() {
        let cal = Calibration {
            backend: "socket".into(),
            nranks: 4,
            alpha_msg: 2.0e-6,
            alpha_reduce: 3.0e-6,
            beta: 1.5e9,
            gamma: 6.0e9,
        };
        let table = calibration_table(&CostModel::curie_like(), std::slice::from_ref(&cal));
        assert!(table.contains("transport calibration"));
        assert!(table.contains("alpha_reduce_s"));
        assert!(table.contains("socket(P=4)"));
        assert!(table.contains("3.0000e-6"));
        let rows = vec![ValidationRow {
            what: "reductions/iter".into(),
            backend: "socket".into(),
            nranks: 4,
            measured_s: 2.0e-5,
            modeled_s: 1.6e-5,
        }];
        assert!((rows[0].ratio() - 1.25).abs() < 1e-12);
        let vtext = validation_table(&rows);
        assert!(vtext.contains("measured vs modeled"));
        assert!(vtext.contains("reductions/iter"));
        assert!(vtext.contains("1.25"));
    }

    #[test]
    fn comm_snapshot_json_round_trips() {
        let snap = CommSnapshot {
            reductions: 1,
            reduction_bytes: 2,
            fused_parts: 3,
            p2p_messages: 4,
            p2p_bytes: 5,
            flops: 6,
            overlap_flops: 7,
        };
        let text = comm_to_json(&snap);
        assert_eq!(comm_from_json(&text), Some(snap));
        assert_eq!(comm_from_json("{"), None);
    }
}
