//! Shared harness utilities for the figure/table reproduction binaries.
//!
//! Each binary under `src/bin/` regenerates one table or figure of the
//! paper's evaluation (see `DESIGN.md` for the index and `EXPERIMENTS.md`
//! for recorded outputs). The helpers here build the scaled-down workloads,
//! time solver phases, and print the same row/series structure the paper
//! reports.

pub mod harness;
pub mod tracedemo;

use kryst_core::{SolveOpts, SolveResult};
use kryst_obs::{JsonlRecorder, Recorder};
use kryst_par::CommStats;
use kryst_pde::maxwell::{maxwell3d, MaxwellGeom, MaxwellParams};
use kryst_pde::Problem;
use kryst_precond::{Schwarz, SchwarzOpts, SchwarzVariant};
use kryst_scalar::C64;
use kryst_sparse::partition::{partition_rcb, Partition};
use std::sync::Arc;
use std::time::Instant;

/// Attach a JSONL trace sink (plus comm counters) when `KRYST_TRACE_DIR`
/// is set; otherwise pass the options through untouched.
///
/// Each figure binary calls this once per solver series, so every solve in
/// the series appends its full event stream (begin / iteration / span /
/// diag / end) to `$KRYST_TRACE_DIR/<label>.jsonl`. Solves are
/// delimited in the file by their `solve_begin` / `solve_end` markers.
/// An already-attached `CommStats` is kept so instrumented runs keep
/// reading their own counters.
pub fn traced_opts(opts: &SolveOpts, label: &str) -> SolveOpts {
    let Some(dir) = std::env::var_os("KRYST_TRACE_DIR") else {
        return opts.clone();
    };
    let dir = std::path::PathBuf::from(dir);
    std::fs::create_dir_all(&dir).expect("create trace dir");
    let path = dir.join(format!("{label}.jsonl"));
    let rec = JsonlRecorder::create(&path)
        .unwrap_or_else(|e| panic!("open trace file {}: {e}", path.display()));
    eprintln!("  [trace] {}", path.display());
    SolveOpts {
        recorder: Some(Arc::new(rec) as Arc<dyn Recorder>),
        stats: opts.stats.clone().or_else(|| Some(CommStats::new_shared())),
        ..opts.clone()
    }
}

/// Wall-clock a closure.
pub fn time<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed().as_secs_f64())
}

/// Pretty separator line for the report output.
pub fn rule() {
    println!("{}", "-".repeat(72));
}

/// Print a per-RHS timing row like the paper's Fig. 2b/3b bars:
/// index, iterations, seconds, and gain vs a baseline time.
pub fn rhs_row(idx: usize, iters: usize, secs: f64, baseline: Option<f64>) {
    match baseline {
        Some(b) => {
            let gain = (b / secs - 1.0) * 100.0;
            println!("{idx:>4} {iters:>8} {secs:>12.4} {gain:>+9.1}%");
        }
        None => println!("{idx:>4} {iters:>8} {secs:>12.4} {:>10}", "-"),
    }
}

/// Downsample a convergence history to at most `max_points` rows for
/// printing (the figures plot hundreds of iterations; the tables don't need
/// every one).
pub fn downsample(history: &[Vec<f64>], max_points: usize) -> Vec<(usize, f64)> {
    let n = history.len();
    if n == 0 {
        return Vec::new();
    }
    let stride = n.div_ceil(max_points).max(1);
    let mut out: Vec<(usize, f64)> = history
        .iter()
        .enumerate()
        .step_by(stride)
        .map(|(i, row)| (i + 1, row.iter().cloned().fold(0.0f64, f64::max)))
        .collect();
    let last = history.len();
    let lastv = history[last - 1].iter().cloned().fold(0.0f64, f64::max);
    if out.last().map(|&(i, _)| i) != Some(last) {
        out.push((last, lastv));
    }
    out
}

/// Print a convergence curve (worst column) like Figs. 2a/3a/4.
pub fn print_curve(label: &str, history: &[Vec<f64>]) {
    println!("  convergence ({label}): iter → max-RHS relative residual");
    for (i, v) in downsample(history, 12) {
        println!("    {i:>5}   {v:.3e}");
    }
}

/// Total iterations of a sequence of results.
pub fn total_iters(results: &[SolveResult]) -> usize {
    results.iter().map(|r| r.iterations).sum()
}

/// A Maxwell test system with an ORAS preconditioner — the §V workhorse.
pub struct MaxwellSetup {
    /// The assembled problem.
    pub problem: Problem<C64>,
    /// Grid geometry (for the antenna right-hand sides).
    pub geom: MaxwellGeom,
    /// Discretization parameters.
    pub params: MaxwellParams,
    /// The partition used for the Schwarz methods.
    pub partition: Partition,
    /// Time spent in the preconditioner setup (factorizations).
    pub setup_seconds: f64,
    /// The preconditioner itself.
    pub oras: Schwarz<C64>,
}

/// Build the Maxwell problem + ORAS preconditioner used by Figs. 4/7/8.
pub fn maxwell_oras(params: MaxwellParams, nsub: usize, overlap: usize) -> MaxwellSetup {
    let (problem, geom) = maxwell3d(&params);
    let partition = partition_rcb(&problem.coords, nsub);
    let (oras, setup_seconds) = time(|| {
        Schwarz::new(
            &problem.a,
            &partition,
            &SchwarzOpts {
                variant: SchwarzVariant::Oras,
                overlap,
                impedance: params.omega,
            },
        )
    });
    MaxwellSetup {
        problem,
        geom,
        params,
        partition,
        setup_seconds,
        oras,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn downsample_keeps_endpoints() {
        let hist: Vec<Vec<f64>> = (0..100).map(|i| vec![1.0 / (i + 1) as f64]).collect();
        let d = downsample(&hist, 10);
        assert_eq!(d.first().unwrap().0, 1);
        assert_eq!(d.last().unwrap().0, 100);
        assert!(d.len() <= 12);
    }

    #[test]
    fn maxwell_setup_builds() {
        let setup = maxwell_oras(MaxwellParams::matching_solution(4), 2, 1);
        assert!(setup.problem.a.nrows() > 0);
        assert_eq!(setup.oras.nsubdomains(), 2);
        assert!(setup.setup_seconds >= 0.0);
    }
}
