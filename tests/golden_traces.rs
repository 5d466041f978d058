//! Golden-trace regression tests.
//!
//! GMRES(30) and GCRO-DR(30, 10) on the 1-D Laplacian (`n = 400`) with a
//! pinned-seed random RHS. Iteration counts, cycle counts, and the exact
//! reduction totals are pinned integers; per-RHS final residuals are
//! compared against the checked-in JSON snapshots with a float tolerance.
//! All kernels in the workspace preserve per-element summation order under
//! threading, so these runs are bit-deterministic. The complex block golden
//! (Maxwell under ORAS) also pins an FNV-1a hash of the solution's bits, so
//! a kernel of the complex block path that moves one bit fails it.
//!
//! Regenerate after an intentional numerical change with:
//! `KRYST_GOLDEN_REGEN=1 cargo test -p kryst-bench --test golden_traces`

use kryst_core::{gcrodr, gmres, PrecondSide, SolveOpts, SolveResult, SolverContext};
use kryst_dense::{DMat, Scalar};
use kryst_obs::json::{f64_array, JsonValue};
use kryst_obs::{cumulative_comm, iteration_events, Event, Recorder, RingRecorder};
use kryst_par::{CommStats, IdentityPrecond};
use kryst_pde::poisson::laplace1d;
use kryst_rt::rng::Rng64;
use std::path::PathBuf;
use std::sync::Arc;

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
    /// FNV-1a hash of the solution's bits, for the goldens that pin them.
    x_fnv1a: Option<u64>,
}

/// FNV-1a over the little-endian bits of every real word of `x`, column by
/// column.
fn fnv1a<S: Scalar>(x: &DMat<S>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for v in S::reals(x.as_slice()) {
        for byte in v.to_bits().to_le_bytes() {
            h = (h ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
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
            x_fnv1a: None,
        }
    }

    fn to_json(&self) -> String {
        let hash = self
            .x_fnv1a
            .map_or(String::new(), |h| format!(",\"x_fnv1a\":\"{h:016x}\""));
        format!(
            "{{\"solver\":\"{}\",\"iterations\":{},\"cycles\":{},\"converged\":{},\
             \"reductions\":{},\"final_relres\":{}{hash}}}\n",
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
            x_fnv1a: v.get("x_fnv1a").map(|h| {
                let h = h.as_str().expect("hash as a hex string");
                u64::from_str_radix(h, 16).expect("hex hash")
            }),
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
    assert_eq!(
        got.x_fnv1a.map(|h| format!("{h:016x}")),
        want.x_fnv1a.map(|h| format!("{h:016x}")),
        "{file}: solution bits drifted"
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

/// GCRO-DR(30, 10) with a Jacobi right preconditioner on 2-D Poisson
/// (20×20 interior grid), cold and then warm on a second pinned RHS. Under a
/// right preconditioner the carried-over recycle space is `U = Z·P` with the
/// preconditioned directions `Z ≠ V`, which the identity-preconditioned
/// laplace goldens never exercise; both solves are pinned exactly. Recycling
/// does not pay here (the warm solve takes more iterations than the cold
/// one), so only the traces are asserted, not a saving.
#[test]
fn gcrodr30_10_jacobi_poisson20_matches_golden() {
    let p = kryst_pde::poisson::poisson2d::<f64>(20, 20);
    let a = p.a;
    let n = a.nrows();
    let jacobi = kryst_precond::Jacobi::new(&a, 1.0);
    let solve_opts = SolveOpts {
        rtol: 1e-8,
        restart: 30,
        recycle: 10,
        max_iters: 2000,
        ..Default::default()
    };
    let mut ctx = SolverContext::new();
    for (seed, file) in [
        (42, "gcrodr30_10_jacobi_poisson20.json"),
        (43, "gcrodr30_10_jacobi_poisson20_warm.json"),
    ] {
        let b = pinned_rhs(n, seed);
        let ring = Arc::new(RingRecorder::new(1 << 16));
        let opts = instrumented_opts(solve_opts.clone(), &ring);
        let mut x = DMat::zeros(n, 1);
        let res = gcrodr::solve(&a, &jacobi, &b, &mut x, &opts, &mut ctx);
        assert!(
            res.converged,
            "GCRO-DR(30,10)+Jacobi on poisson 20x20, seed {seed}: {:?}",
            res.final_relres
        );
        let got = Golden::capture("gcrodr", &ring.events(), &res);
        check_against_golden(file, &got);
    }
}

/// Block GCRO-DR(5, 3) on the complex Maxwell problem with the cylinder
/// (`nc = 4`) under ORAS (4 RCB parts, overlap 2), right preconditioned:
/// a cold solve of four antenna right-hand sides, then a warm one of four
/// more on the recycled space. Every step runs the complex fused sweeps at
/// `p = 4` and the banded solves on a 4-wide tile; the solution's bits are
/// pinned, not only its residual.
#[test]
fn block_gcrodr5_3_oras_maxwell4_matches_golden() {
    use kryst_pde::maxwell::{antenna_ring_rhs, MaxwellParams};
    use kryst_scalar::C64;
    let params = MaxwellParams::with_cylinder(4);
    let setup = kryst_bench::maxwell_oras(params, 4, 2);
    let (a, n) = (&setup.problem.a, setup.problem.a.nrows());
    let solve_opts = SolveOpts {
        rtol: 1e-8,
        restart: 5,
        recycle: 3,
        side: PrecondSide::Right,
        max_iters: 2000,
        same_system: true,
        ..Default::default()
    };
    let mut ctx = SolverContext::new();
    for (ring_z, file) in [
        (0.55, "block_gcrodr5_3_oras_maxwell4.json"),
        (0.35, "block_gcrodr5_3_oras_maxwell4_warm.json"),
    ] {
        let b = antenna_ring_rhs(&setup.geom, &params, 4, 0.3, ring_z);
        let ring = Arc::new(RingRecorder::new(1 << 16));
        let opts = instrumented_opts(solve_opts.clone(), &ring);
        let mut x = DMat::<C64>::zeros(n, 4);
        let res = gcrodr::solve(a, &setup.oras, &b, &mut x, &opts, &mut ctx);
        assert!(
            res.converged,
            "block GCRO-DR(5,3)+ORAS on Maxwell nc=4, z={ring_z}: {:?}",
            res.final_relres
        );
        let mut got = Golden::capture("gcrodr", &ring.events(), &res);
        got.x_fnv1a = Some(fnv1a(&x));
        check_against_golden(file, &got);
    }
}

/// FGCRO-DR(30, 10) under smoothed-aggregation AMG with the CG(4) smoother
/// and the six rigid-body modes, on the first two systems of the Fig. 3
/// elasticity sequence (`ne = 5`): each system builds its own node-blocked
/// hierarchy, and the operator changes between the solves, so the warm one
/// runs the recycle refresh. Pins the set-up's Galerkin products and every
/// flexible cycle through the solution's bits.
#[test]
fn fgcrodr30_10_amg_elasticity5_matches_golden() {
    use kryst_core::RecycleStrategy;
    use kryst_precond::{Amg, AmgOpts, SmootherKind};
    let systems = kryst_pde::elasticity::paper_sequence::<f64>(5);
    let amg_opts = AmgOpts {
        smoother: SmootherKind::Cg { iters: 4 },
        ..Default::default()
    };
    let solve_opts = SolveOpts {
        rtol: 1e-8,
        restart: 30,
        recycle: 10,
        side: PrecondSide::Flexible,
        recycle_strategy: RecycleStrategy::A,
        same_system: false,
        ..Default::default()
    };
    let mut ctx = SolverContext::new();
    for (sys, file) in systems.iter().zip([
        "fgcrodr30_10_amg_elasticity5.json",
        "fgcrodr30_10_amg_elasticity5_warm.json",
    ]) {
        let a = &sys.problem.a;
        assert!(
            a.is_node_blocked(),
            "the elasticity operator is node-blocked"
        );
        let n = a.nrows();
        let amg = Amg::new(a, sys.problem.near_nullspace.as_ref(), &amg_opts);
        let b = DMat::from_col_major(n, 1, sys.rhs.clone());
        let ring = Arc::new(RingRecorder::new(1 << 16));
        let opts = instrumented_opts(solve_opts.clone(), &ring);
        let mut x = DMat::zeros(n, 1);
        let res = gcrodr::solve(a, &amg, &b, &mut x, &opts, &mut ctx);
        assert!(
            res.converged,
            "FGCRO-DR(30,10)+AMG on elasticity ne=5, {file}: {:?}",
            res.final_relres
        );
        let mut got = Golden::capture("gcrodr", &ring.events(), &res);
        got.x_fnv1a = Some(fnv1a(&x));
        check_against_golden(file, &got);
    }
}
