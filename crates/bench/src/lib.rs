//! Shared harness utilities for the figure/table reproduction binaries.
//!
//! Each binary under `src/bin/` regenerates one table or figure of the
//! paper's evaluation (see `DESIGN.md` for the index and `EXPERIMENTS.md`
//! for recorded outputs). The helpers here build the scaled-down workloads,
//! time solver phases, and print the same row/series structure the paper
//! reports.

pub mod harness;

use kryst_core::pseudo::{self, PseudoMethod, PseudoResult};
use kryst_core::{gcrodr, gmres, lgmres, SolveOpts, SolveResult, SolverContext};
use kryst_dense::DMat;
use kryst_obs::{JsonlRecorder, Recorder};
use kryst_par::{CommStats, LinOp, PrecondOp};
use kryst_pde::maxwell::{maxwell3d, MaxwellGeom, MaxwellParams};
use kryst_pde::Problem;
use kryst_precond::{Schwarz, SchwarzOpts, SchwarzVariant};
use kryst_scalar::{Scalar, C64};
use kryst_sparse::partition::partition_rcb;
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

/// The largest of `values`, or NaN when any is NaN; 0 for none. A fold over
/// `f64::max` would drop the NaN of a failed solve and report a finite
/// "worst" residual for it.
pub fn worst(values: impl IntoIterator<Item = f64>) -> f64 {
    values.into_iter().fold(0.0, |acc, v| {
        if acc.is_nan() || v.is_nan() {
            f64::NAN
        } else {
            acc.max(v)
        }
    })
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
        .map(|(i, row)| (i + 1, worst(row.iter().copied())))
        .collect();
    let last = history.len();
    let lastv = worst(history[last - 1].iter().copied());
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

/// The solver a series runs. GMRES against FGMRES (and the side of every
/// other method) is the `side` of the series' [`SolveOpts`].
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Method {
    /// Block GMRES (one column: plain GMRES).
    Gmres,
    /// LGMRES, single right-hand side.
    Lgmres,
    /// Block GCRO-DR, one recycle space carried across the series.
    GcroDr,
    /// Pseudo-block GMRES or GCRO-DR (one recycle space per column carried
    /// across the series).
    Pseudo(PseudoMethod),
}

/// One system of a series: operator, preconditioner and right-hand-side
/// block.
pub struct System<'a, S> {
    /// The operator.
    pub a: &'a dyn LinOp<S>,
    /// The preconditioner.
    pub pc: &'a dyn PrecondOp<S>,
    /// The right-hand sides, one column each.
    pub b: DMat<S>,
}

/// One solve of a series.
pub struct Solved<S> {
    /// Iterations (block iterations; the slowest lane for pseudo-block).
    pub iterations: usize,
    /// Wall-clock seconds of the solve call.
    pub seconds: f64,
    /// Iterations each right-hand side took: `iters_to_converge` for a
    /// block, the lanes' iterations for pseudo-block, empty for a single
    /// column.
    pub spread: Vec<usize>,
    /// Per-iteration, per-RHS residual estimates (a pseudo-block lane that
    /// stopped keeps its last value).
    pub history: Vec<Vec<f64>>,
    /// Final true relative residuals, one per column.
    pub final_relres: Vec<f64>,
    /// Every column reached `rtol`.
    pub converged: bool,
    /// The solution block.
    pub x: DMat<S>,
}

/// Solve `systems` in order with `method` from zero initial guesses,
/// carrying the recycle space from one solve to the next, and trace the
/// series to `$KRYST_TRACE_DIR/<tag>.jsonl` (see [`traced_opts`]). A solve
/// that misses `rtol` prints a warning to stderr.
pub fn run_series<S: Scalar>(
    method: Method,
    opts: &SolveOpts,
    tag: &str,
    systems: &[System<'_, S>],
) -> Vec<Solved<S>> {
    let opts = traced_opts(opts, tag);
    let mut ctx = SolverContext::new();
    let mut lane_ctxs = Vec::new();
    let mut out = Vec::with_capacity(systems.len());
    for (i, &System { a, pc, ref b }) in systems.iter().enumerate() {
        let mut x = DMat::zeros(b.nrows(), b.ncols());
        let ((res, lane_iters), seconds) = time(|| match method {
            Method::Gmres => (gmres::solve(a, pc, b, &mut x, &opts), None),
            Method::Lgmres => (lgmres::solve(a, pc, b, &mut x, &opts), None),
            Method::GcroDr => (gcrodr::solve(a, pc, b, &mut x, &opts, &mut ctx), None),
            Method::Pseudo(m) => {
                let res = pseudo::solve(a, pc, b, &mut x, &opts, m, Some(&mut lane_ctxs));
                merge_lanes(res)
            }
        });
        if !res.converged {
            eprintln!(
                "WARNING: {tag} solve {} did not reach rtol; worst rel res {:.2e}",
                i + 1,
                worst(res.final_relres.iter().copied())
            );
        }
        let spread = match lane_iters {
            _ if b.ncols() == 1 => Vec::new(),
            Some(iters) => iters,
            None => res.iters_to_converge(opts.rtol),
        };
        out.push(Solved {
            iterations: res.iterations,
            seconds,
            spread,
            history: res.history,
            final_relres: res.final_relres,
            converged: res.converged,
            x,
        });
    }
    out
}

/// A pseudo-block result as one block result (a lane that stopped keeps its
/// last residual in the later rows of the history) plus each lane's
/// iterations.
fn merge_lanes(res: PseudoResult) -> (SolveResult, Option<Vec<usize>>) {
    let row = |k| {
        let lanes = res.per_rhs.iter();
        let rows = lanes.filter_map(|r| r.history.get(k).or(r.history.last()));
        rows.flatten().copied().collect()
    };
    let merged = SolveResult {
        history: (0..res.iterations).map(row).collect(),
        final_relres: res
            .per_rhs
            .iter()
            .flat_map(|r| r.final_relres.clone())
            .collect(),
        iterations: res.iterations,
        converged: res.converged,
    };
    (
        merged,
        Some(res.per_rhs.iter().map(|r| r.iterations).collect()),
    )
}

/// One side of a [`compare`]: the heading of its table (its name in the
/// totals is the heading up to the first `(`), its method and its trace tag.
pub type Arm<'a> = (&'a str, Method, &'a str);

/// Solve `systems` with a baseline and a recycled series under the same
/// options and print the comparison of Figs. 2–3: each side's iterations
/// and seconds per system (the recycled side with its gain over the
/// baseline), the totals, the cumulative gain beside the paper's numbers
/// (`paper = [iterations, gain]`; an empty string prints none) and both
/// convergence curves. `col` heads the index column. Panics when a solve
/// misses `rtol`.
pub fn compare<S: Scalar>(
    col: &str,
    systems: &[System<'_, S>],
    opts: &SolveOpts,
    [base, recycled]: [Arm<'_>; 2],
    paper: [&str; 2],
) {
    fn name((heading, _, _): Arm<'_>) -> &str {
        heading.split_once('(').map_or(heading, |(name, _)| name)
    }
    let side = |(heading, method, tag): Arm, baseline: Option<&[Solved<S>]>| {
        println!("\n{heading}:");
        println!("{col:>4} {:>8} {:>12} {:>10}", "iters", "seconds", "gain");
        let run = run_series(method, opts, tag, systems);
        for (i, s) in run.iter().enumerate() {
            assert!(s.converged, "{heading} failed on {col} {}", i + 1);
            let gain = match baseline {
                Some(b) => format!("{:>+9.1}%", (b[i].seconds / s.seconds - 1.0) * 100.0),
                None => format!("{:>10}", "-"),
            };
            println!(
                "{:>4} {:>8} {:>12.4} {gain}",
                i + 1,
                s.iterations,
                s.seconds
            );
        }
        run
    };
    let base_run = side(base, None);
    let rec_run = side(recycled, Some(&base_run));
    let total = |run: &[Solved<S>]| -> (usize, f64) {
        (
            run.iter().map(|s| s.iterations).sum(),
            run.iter().map(|s| s.seconds).sum(),
        )
    };
    let ((bi, bt), (ri, rt)) = (total(&base_run), total(&rec_run));
    let note = |s: &str| {
        if s.is_empty() {
            String::new()
        } else {
            format!(" ({s})")
        }
    };
    let (b, r) = (name(base), name(recycled));
    println!("\ntotal iterations: {b} {bi}, {r} {ri}{}", note(paper[0]));
    println!(
        "cumulative time: {b} {bt:.3}s, {r} {rt:.3}s, cumulative gain {:+.1}%{}",
        (bt / rt - 1.0) * 100.0,
        note(paper[1])
    );
    for (arm, run) in [(base, base_run), (recycled, rec_run)] {
        let history: Vec<Vec<f64>> = run.iter().flat_map(|s| s.history.clone()).collect();
        print_curve(name(arm), &history);
    }
}

/// A Maxwell test system with an ORAS preconditioner — the §V workhorse.
pub struct MaxwellSetup {
    /// The assembled problem.
    pub problem: Problem<C64>,
    /// Grid geometry (for the antenna right-hand sides).
    pub geom: MaxwellGeom,
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
        setup_seconds,
        oras,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kryst_pde::poisson::{paper_rhs_block, poisson2d};
    use kryst_precond::Jacobi;
    use kryst_sparse::Csr;

    /// Poisson 10 × 10 under Jacobi, its four paper right-hand sides as one
    /// block and a second, different block, and options that restart and
    /// refresh the recycle space.
    fn poisson() -> (Csr<f64>, Jacobi<f64>, [DMat<f64>; 2], SolveOpts) {
        let a = poisson2d::<f64>(10, 10).a;
        let jac = Jacobi::new(&a, 1.0);
        let b1 = paper_rhs_block::<f64>(10, 10);
        let b2 = DMat::from_fn(a.nrows(), 4, |i, j| b1[(i, (j + 1) % 4)] + 0.01 * i as f64);
        let opts = SolveOpts {
            rtol: 1e-8,
            restart: 10,
            recycle: 4,
            ..Default::default()
        };
        (a, jac, [b1, b2], opts)
    }

    fn bits(m: &DMat<f64>) -> Vec<u64> {
        m.as_slice().iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn gcrodr_series_is_direct_solves_through_one_context() {
        let (a, jac, [b1, _], opts) = poisson();
        let cols: Vec<DMat<f64>> = (0..2).map(|j| b1.cols(j, 1)).collect();
        let systems: Vec<_> = (cols.iter())
            .map(|b| System {
                a: &a,
                pc: &jac,
                b: b.clone(),
            })
            .collect();
        let series = run_series(Method::GcroDr, &opts, "test_gcrodr", &systems);
        let mut ctx = SolverContext::new();
        for (b, s) in cols.iter().zip(&series) {
            let mut x = DMat::zeros(a.nrows(), 1);
            let res = gcrodr::solve(&a, &jac, b, &mut x, &opts, &mut ctx);
            assert!(res.converged && s.converged);
            assert_eq!(s.iterations, res.iterations);
            assert_eq!(bits(&s.x), bits(&x));
        }
    }

    #[test]
    fn pseudo_gcrodr_series_is_direct_solves_through_one_context_per_lane() {
        let (a, jac, blocks, opts) = poisson();
        let systems: Vec<_> = (blocks.iter())
            .map(|b| System {
                a: &a,
                pc: &jac,
                b: b.clone(),
            })
            .collect();
        let method = Method::Pseudo(PseudoMethod::GcroDr);
        let series = run_series(method, &opts, "test_pseudo_gcrodr", &systems);
        let mut ctxs = Vec::new();
        for (b, s) in blocks.iter().zip(&series) {
            let mut x = DMat::zeros(a.nrows(), 4);
            let res = pseudo::solve(
                &a,
                &jac,
                b,
                &mut x,
                &opts,
                PseudoMethod::GcroDr,
                Some(&mut ctxs),
            );
            assert!(res.converged && s.converged);
            assert_eq!(s.iterations, res.iterations);
            let lanes: Vec<usize> = res.per_rhs.iter().map(|r| r.iterations).collect();
            assert_eq!(s.spread, lanes);
            assert_eq!(bits(&s.x), bits(&x));
        }
        assert_eq!(ctxs.len(), 4);
    }

    #[test]
    fn spread_follows_the_block_pseudo_and_single_column_rule() {
        let (a, jac, [b1, _], opts) = poisson();
        let sys = |b: DMat<f64>| [System { a: &a, pc: &jac, b }];
        let block = &run_series(Method::Gmres, &opts, "test_block", &sys(b1.clone()))[0];
        let mut x = DMat::zeros(a.nrows(), 4);
        let direct = gmres::solve(&a, &jac, &b1, &mut x, &opts);
        assert_eq!(block.spread, direct.iters_to_converge(opts.rtol));
        assert_eq!(block.spread.len(), 4);

        let method = Method::Pseudo(PseudoMethod::Gmres);
        let lanes = &run_series(method, &opts, "test_lanes", &sys(b1.clone()))[0];
        let mut x = DMat::zeros(a.nrows(), 4);
        let direct = pseudo::solve(&a, &jac, &b1, &mut x, &opts, PseudoMethod::Gmres, None);
        let want: Vec<usize> = direct.per_rhs.iter().map(|r| r.iterations).collect();
        assert_eq!(lanes.spread, want);
        assert_eq!(lanes.iterations, *want.iter().max().unwrap());
        assert_eq!(lanes.history.len(), lanes.iterations);
        assert_eq!(lanes.final_relres.len(), 4);

        for method in [Method::Gmres, Method::Lgmres, Method::GcroDr, method] {
            let single = &run_series(method, &opts, "test_single", &sys(b1.cols(0, 1)))[0];
            assert!(single.converged);
            assert!(single.spread.is_empty(), "{method:?}");
        }
    }

    #[test]
    fn downsample_keeps_endpoints() {
        let hist: Vec<Vec<f64>> = (0..100).map(|i| vec![1.0 / (i + 1) as f64]).collect();
        let d = downsample(&hist, 10);
        assert_eq!(d.first().unwrap().0, 1);
        assert_eq!(d.last().unwrap().0, 100);
        assert!(d.len() <= 12);
    }

    #[test]
    fn worst_propagates_nan() {
        assert_eq!(worst([]), 0.0);
        assert_eq!(worst([1e-9, 3e-8, 2e-9]), 3e-8);
        assert!(worst([1e-9, f64::NAN, 2e-9]).is_nan());
        assert!(worst([f64::NAN, 1.0]).is_nan());
        let d = downsample(&[vec![1.0, 0.5], vec![f64::NAN, 0.1]], 10);
        assert!(d[1].1.is_nan());
    }

    #[test]
    fn maxwell_setup_builds() {
        let setup = maxwell_oras(MaxwellParams::matching_solution(4), 2, 1);
        assert!(setup.problem.a.nrows() > 0);
        assert_eq!(setup.oras.nsubdomains(), 2);
        assert!(setup.setup_seconds >= 0.0);
    }
}
