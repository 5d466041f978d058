//! `benchmark compare <a.json> <b.json>`: is `b` worse than `a`?
//!
//! One row per workload × end-to-end metric. A row is *unresolved* when the
//! inter-quartile spread of either side exceeds the metric's bound: such a
//! pair of runs cannot show that nothing changed.

use crate::api::Json;
use crate::metrics::{EndToEnd, END_TO_END};
use crate::stats::Summary;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    WithinBound,
    Regression,
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::WithinBound => "within bound",
            Verdict::Regression => "REGRESSION",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judge `b` against the base `a` for a metric where lower is better.
pub fn verdict(metric: &EndToEnd, a: &Summary, b: &Summary) -> Verdict {
    let worse_by = b.median - a.median;
    if worse_by <= metric.floor {
        // Below the floor the medians are too small to carry a judgement,
        // whatever their spread.
        return Verdict::WithinBound;
    }
    // A single sample (peak memory) has no spread: it is judged by value.
    if a.spread() > metric.bound || b.spread() > metric.bound {
        Verdict::Unresolved
    } else if worse_by > metric.bound * a.median {
        Verdict::Regression
    } else {
        Verdict::WithinBound
    }
}

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn workload<'a>(doc: &'a Json, name: &str) -> Option<&'a Json> {
    doc.get("workloads")?.get(name)
}

/// Share of a workload's solves that failed.
fn failure_share(workload: &Json) -> Option<f64> {
    let attempted = workload.get("solves_attempted")?.as_f64()?;
    Some(workload.get("solves_failed")?.as_f64()? / attempted.max(1.0))
}

/// Print the comparison; the exit code is 1 on a regression or on a larger
/// share of failed solves, 2 when a file cannot be read, else 0.
pub fn run(path_a: &str, path_b: &str) -> i32 {
    let (a, b) = match (load(path_a), load(path_b)) {
        (Ok(a), Ok(b)) => (a, b),
        (a, b) => {
            for e in [a.err(), b.err()].into_iter().flatten() {
                eprintln!("compare: {e}");
            }
            return 2;
        }
    };
    println!("base a = {path_a}\n     b = {path_b}");
    println!(
        "{:<24} {:<12} {:>30} {:>30} {:>14}  verdict",
        "workload", "metric", "a median [q1, q3]", "b median [q1, q3]", "b/a (base a)"
    );
    let mut bad = false;
    for w in crate::workloads::Workload::ALL {
        let (Some(wa), Some(wb)) = (workload(&a, w.name()), workload(&b, w.name())) else {
            println!("{:<24} missing on one side", w.name());
            bad = true;
            continue;
        };
        for m in &END_TO_END {
            let side = |doc: &Json| {
                doc.get("end_to_end")?
                    .get(m.name)
                    .and_then(Summary::from_json)
            };
            let (Some(sa), Some(sb)) = (side(wa), side(wb)) else {
                println!("{:<24} {:<12} missing on one side", w.name(), m.name);
                bad = true;
                continue;
            };
            let v = verdict(m, &sa, &sb);
            bad |= v == Verdict::Regression;
            let show =
                |s: &Summary| format!("{:.4} [{:.4}, {:.4}] {}", s.median, s.q1, s.q3, m.unit);
            println!(
                "{:<24} {:<12} {:>30} {:>30} {:>14.4}  {} (bound {:.0} %)",
                w.name(),
                m.name,
                show(&sa),
                show(&sb),
                sb.median / sa.median,
                v.label(),
                m.bound * 100.0
            );
        }
        if let (Some(fa), Some(fb)) = (failure_share(wa), failure_share(wb)) {
            if fb > fa {
                println!(
                    "{:<24} solves failed: {fa:.4} of attempted → {fb:.4}: WORSE",
                    w.name()
                );
                bad = true;
            }
        }
    }
    i32::from(bad)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn around(median: f64, half_spread: f64) -> Summary {
        Summary::of(&[
            median * (1.0 - half_spread),
            median * (1.0 - half_spread / 2.0),
            median,
            median * (1.0 + half_spread / 2.0),
            median * (1.0 + half_spread),
        ])
    }

    const SOLVE: &EndToEnd = &END_TO_END[1];
    const SETUP: &EndToEnd = &END_TO_END[0];

    #[test]
    fn verdicts() {
        let base = around(3.0, 0.02);
        assert_eq!(
            verdict(SOLVE, &base, &around(3.1, 0.02)),
            Verdict::WithinBound
        );
        assert_eq!(
            verdict(SOLVE, &base, &around(2.0, 0.02)),
            Verdict::WithinBound
        );
        assert_eq!(
            verdict(SOLVE, &base, &around(3.9, 0.02)),
            Verdict::Regression
        );
        // Either side too noisy to tell.
        assert_eq!(
            verdict(SOLVE, &base, &around(3.9, 0.2)),
            Verdict::Unresolved
        );
        assert_eq!(
            verdict(SOLVE, &around(3.0, 0.2), &around(3.9, 0.02)),
            Verdict::Unresolved
        );
    }

    #[test]
    fn floor_shields_tiny_medians() {
        // 1 ms → 3 ms of set-up is threefold and still under the 50 ms floor.
        assert_eq!(
            verdict(SETUP, &around(0.001, 0.5), &around(0.003, 0.5)),
            Verdict::WithinBound
        );
        assert_eq!(
            verdict(SETUP, &around(0.7, 0.02), &around(0.95, 0.02)),
            Verdict::Regression
        );
    }

    #[test]
    fn single_samples_compare_by_value() {
        let rss = &END_TO_END[2];
        assert_eq!(
            verdict(rss, &Summary::of(&[100.0]), &Summary::of(&[105.0])),
            Verdict::WithinBound
        );
        assert_eq!(
            verdict(rss, &Summary::of(&[100.0]), &Summary::of(&[130.0])),
            Verdict::Regression
        );
        // 12 MB → 16 MB is a third more and still under the 8 MB floor.
        assert_eq!(
            verdict(rss, &Summary::of(&[12.0]), &Summary::of(&[16.0])),
            Verdict::WithinBound
        );
    }
}
