//! Golden-trace regression tests.
//!
//! GMRES(30) and GCRO-DR(30, 10) on the 1-D Laplacian (`n = 400`) with a
//! pinned-seed random RHS. Iteration counts, cycle counts, and the exact
//! reduction totals are pinned integers; per-RHS final residuals are
//! compared against the checked-in JSON snapshots with a float tolerance.
//! All kernels in the workspace preserve per-element summation order under
//! threading, so these runs are bit-deterministic.
//!
//! Regenerate after an intentional numerical change with:
//! `KRYST_GOLDEN_REGEN=1 cargo test -p kryst-bench --test golden_traces`

use kryst_core::{gcrodr, gmres, SolveOpts, SolveResult, SolverContext};
use kryst_dense::DMat;
use kryst_obs::json::{f64_array, JsonValue};
use kryst_obs::{cumulative_comm, iteration_events, Event, Recorder, RingRecorder};
use kryst_par::{CommStats, IdentityPrecond};
use kryst_rt::rng::Rng64;
use kryst_sparse::{Coo, Csr};
use std::path::PathBuf;
use std::sync::Arc;

fn laplace1d(n: usize) -> Csr<f64> {
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

fn pinned_rhs(n: usize, seed: u64) -> DMat<f64> {
    let mut rng = Rng64::seed_from_u64(seed);
    DMat::from_fn(n, 1, |_, _| rng.gen_range(-1.0, 1.0))
}

struct Golden {
    solver: String,
    iterations: usize,
    cycles: usize,
    converged: bool,
    reductions: u64,
    final_relres: Vec<f64>,
}

impl Golden {
    fn capture(name: &str, events: &[Event], res: &SolveResult) -> Golden {
        let cycles = iteration_events(events)
            .iter()
            .map(|e| e.cycle)
            .max()
            .map(|c| c + 1)
            .unwrap_or(0);
        Golden {
            solver: name.to_string(),
            iterations: res.iterations,
            cycles,
            converged: res.converged,
            reductions: cumulative_comm(events).reductions,
            final_relres: res.final_relres.clone(),
        }
    }

    fn to_json(&self) -> String {
        format!(
            "{{\"solver\":\"{}\",\"iterations\":{},\"cycles\":{},\"converged\":{},\
             \"reductions\":{},\"final_relres\":{}}}\n",
            self.solver,
            self.iterations,
            self.cycles,
            self.converged,
            self.reductions,
            f64_array(&self.final_relres)
        )
    }

    fn from_json(src: &str) -> Golden {
        let v = JsonValue::parse(src).expect("golden snapshot parses");
        Golden {
            solver: v
                .get("solver")
                .and_then(|s| s.as_str())
                .expect("solver")
                .to_string(),
            iterations: v
                .get("iterations")
                .and_then(|s| s.as_usize())
                .expect("iterations"),
            cycles: v.get("cycles").and_then(|s| s.as_usize()).expect("cycles"),
            converged: v
                .get("converged")
                .and_then(|s| s.as_bool())
                .expect("converged"),
            reductions: v
                .get("reductions")
                .and_then(|s| s.as_f64())
                .expect("reductions") as u64,
            final_relres: v
                .get("final_relres")
                .and_then(|s| s.as_array())
                .expect("final_relres")
                .iter()
                .map(|x| x.as_f64().expect("residual"))
                .collect(),
        }
    }
}

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../tests/golden")
        .join(name)
}

fn check_against_golden(file: &str, got: &Golden) {
    let path = golden_path(file);
    if std::env::var_os("KRYST_GOLDEN_REGEN").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, got.to_json()).unwrap();
        eprintln!("regenerated {}", path.display());
        return;
    }
    let src = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden snapshot {} ({e}); run with KRYST_GOLDEN_REGEN=1",
            path.display()
        )
    });
    let want = Golden::from_json(&src);
    assert_eq!(got.solver, want.solver, "{file}: solver");
    assert_eq!(
        got.iterations, want.iterations,
        "{file}: iteration count drifted"
    );
    assert_eq!(got.cycles, want.cycles, "{file}: cycle count drifted");
    assert_eq!(got.converged, want.converged, "{file}: convergence flag");
    assert_eq!(
        got.reductions, want.reductions,
        "{file}: reduction total drifted"
    );
    assert_eq!(got.final_relres.len(), want.final_relres.len());
    for (l, (g, w)) in got.final_relres.iter().zip(&want.final_relres).enumerate() {
        let scale = w.abs().max(1e-300);
        assert!(
            (g - w).abs() / scale < 1e-6,
            "{file}: final relres[{l}] {g:e} vs golden {w:e}"
        );
    }
}

fn instrumented_opts(base: SolveOpts, ring: &Arc<RingRecorder>) -> SolveOpts {
    SolveOpts {
        stats: Some(CommStats::new_shared()),
        recorder: Some(Arc::clone(ring) as Arc<dyn Recorder>),
        ..base
    }
}

/// Unpreconditioned GMRES(30) stagnates on the 1-D Laplacian — the paper's
/// motivating failure mode for deflation. The stagnation trace itself is the
/// golden: the capped iteration count and the residual plateau are pinned,
/// and the reduction total is one or two per iteration plus one per cycle.
#[test]
fn gmres30_laplace400_fused_matches_golden() {
    let n = 400;
    let a = laplace1d(n);
    let b = pinned_rhs(n, 42);
    let id = IdentityPrecond::new(n);
    let ring = Arc::new(RingRecorder::new(1 << 16));
    let opts = instrumented_opts(
        SolveOpts {
            rtol: 1e-8,
            restart: 30,
            max_iters: 1500,
            ..Default::default()
        },
        &ring,
    );
    let mut x = DMat::zeros(n, 1);
    let res = gmres::solve(&a, &id, &b, &mut x, &opts);
    assert_eq!(res.iterations, 1500);
    let got = Golden::capture("gmres", &ring.events(), &res);
    // Fused CholQR: one reduction per iteration plus the cycle-start CholQR,
    // with an adaptive second pass only where the orthogonality-loss budget
    // demands one — never more than 2 per iteration.
    let cycles = res.iterations / 30;
    assert!(
        got.reductions >= (res.iterations + cycles) as u64,
        "fused GMRES floor is 1 reduction/iteration + 1/cycle"
    );
    assert!(
        got.reductions <= (2 * res.iterations + cycles) as u64,
        "fused GMRES ceiling is 2 reductions/iteration + 1/cycle"
    );
    check_against_golden("gmres30_laplace400_fused.json", &got);
}

/// GCRO-DR(30, 10): the recycled-block projection `CᴴW` rides inside the
/// same fused reduction as the basis projection and Gram matrix, so deflated
/// cycles also run at one reduction per iteration. A warm second solve on
/// the recycled space is pinned too.
#[test]
fn gcrodr30_10_laplace400_fused_matches_golden() {
    let n = 400;
    let a = laplace1d(n);
    let b = pinned_rhs(n, 42);
    let id = IdentityPrecond::new(n);
    let ring = Arc::new(RingRecorder::new(1 << 16));
    let opts = instrumented_opts(
        SolveOpts {
            rtol: 1e-8,
            restart: 30,
            recycle: 10,
            max_iters: 5000,
            ..Default::default()
        },
        &ring,
    );
    let mut ctx = SolverContext::new();
    let mut x = DMat::zeros(n, 1);
    let res = gcrodr::solve(&a, &id, &b, &mut x, &opts, &mut ctx);
    assert!(
        res.converged,
        "fused GCRO-DR(30,10) on laplace400: {:?}",
        res.final_relres
    );
    let got = Golden::capture("gcrodr", &ring.events(), &res);
    check_against_golden("gcrodr30_10_laplace400_fused.json", &got);

    // Warm restart on a second pinned RHS: the recycle space must make the
    // second solve cheaper.
    let b2 = pinned_rhs(n, 43);
    let ring2 = Arc::new(RingRecorder::new(1 << 16));
    let opts2 = instrumented_opts(
        SolveOpts {
            rtol: 1e-8,
            restart: 30,
            recycle: 10,
            max_iters: 5000,
            ..Default::default()
        },
        &ring2,
    );
    let mut x2 = DMat::zeros(n, 1);
    let res2 = gcrodr::solve(&a, &id, &b2, &mut x2, &opts2, &mut ctx);
    assert!(res2.converged);
    assert!(
        res2.iterations < res.iterations,
        "recycling must cut iterations: {} !< {}",
        res2.iterations,
        res.iterations
    );
    let got2 = Golden::capture("gcrodr", &ring2.events(), &res2);
    check_against_golden("gcrodr30_10_laplace400_fused_warm.json", &got2);
}

/// GMRES(30) with a smoothed-aggregation AMG right preconditioner on the
/// 2-D Poisson problem (24×24 interior grid). Pins the whole preconditioned
/// trajectory: AMG setup (aggregation, prolongator smoothing, Galerkin
/// products) and every V-cycle apply must stay bit-deterministic across
/// thread counts, so the iteration count, reduction total, and final
/// residual are all exact.
#[test]
fn gmres30_amg_poisson24_matches_golden() {
    let p = kryst_pde::poisson::poisson2d::<f64>(24, 24);
    let n = p.a.nrows();
    let amg = kryst_precond::Amg::new(
        &p.a,
        p.near_nullspace.as_ref(),
        &kryst_precond::AmgOpts::default(),
    );
    let b = pinned_rhs(n, 42);
    let ring = Arc::new(RingRecorder::new(1 << 16));
    let opts = instrumented_opts(
        SolveOpts {
            rtol: 1e-10,
            restart: 30,
            max_iters: 200,
            ..Default::default()
        },
        &ring,
    );
    let mut x = DMat::zeros(n, 1);
    let res = gmres::solve(&p.a, &amg, &b, &mut x, &opts);
    assert!(
        res.converged,
        "GMRES(30)+AMG on poisson 24x24: {:?}",
        res.final_relres
    );
    let got = Golden::capture("gmres", &ring.events(), &res);
    check_against_golden("gmres30_amg_poisson24.json", &got);
}

/// GCRO-DR(30, 10) with an ILU(0) right preconditioner on 2-D Poisson
/// (20×20 interior grid, where ILU(0) actually discards fill — on a
/// tridiagonal matrix it would be exact and the trace trivial). The
/// level-scheduled multi-RHS triangular sweeps must reproduce the serial
/// per-column reference bit for bit, so this trace is pinned exactly.
#[test]
fn gcrodr30_10_ilu_poisson20_matches_golden() {
    let p = kryst_pde::poisson::poisson2d::<f64>(20, 20);
    let a = p.a;
    let n = a.nrows();
    let ilu = kryst_precond::Ilu0::new(&a).expect("ILU(0) on 2-D Poisson");
    let b = pinned_rhs(n, 42);
    let ring = Arc::new(RingRecorder::new(1 << 16));
    let opts = instrumented_opts(
        SolveOpts {
            rtol: 1e-8,
            restart: 30,
            recycle: 10,
            max_iters: 2000,
            ..Default::default()
        },
        &ring,
    );
    let mut ctx = SolverContext::new();
    let mut x = DMat::zeros(n, 1);
    let res = gcrodr::solve(&a, &ilu, &b, &mut x, &opts, &mut ctx);
    assert!(
        res.converged,
        "GCRO-DR(30,10)+ILU on poisson 20x20: {:?}",
        res.final_relres
    );
    let got = Golden::capture("gcrodr", &ring.events(), &res);
    check_against_golden("gcrodr30_10_ilu_poisson20.json", &got);
}
