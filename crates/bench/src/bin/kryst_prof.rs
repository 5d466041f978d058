//! kryst-prof — phase-attributed profile reports.
//!
//! Two modes, combinable:
//!
//! * `kryst_prof demo <dir>` — run three instrumented solves with tracing
//!   enabled: GMRES(30) and GCRO-DR(30,10) under right Jacobi on a 2-D
//!   convection–diffusion problem, and GMRES(30) under a two-level AMG on
//!   Poisson (`gmres30_amg`). Each writes its artifacts into `<dir>`: the
//!   JSONL event trace, the span-aggregate snapshot (`<label>.profile.json`)
//!   and the exact communication counters (`<label>.comm.json`).
//! * `kryst_prof report <dir>` — consume those artifacts and print the
//!   paper-style per-phase breakdown: measured local wall time per span
//!   kind, iterations (counted from the JSONL trace), and α–β modeled
//!   reduction time at the paper's rank counts.
//!
//! With no mode argument it runs `demo` then `report` on
//! `target/kryst-prof` (or the directory given as the only argument).
//!
//! The binary also serves as the worker executable of socket
//! [`kryst_par::SpmdWorld`]s: a process spawned as a primitive worker never
//! reaches the modes above.

use kryst_core::{gcrodr, gmres, SolveOpts, SolverContext};
use kryst_dense::DMat;
use kryst_obs::json::JsonValue;
use kryst_obs::{aggregates, JsonlRecorder, ProfileSnapshot, Recorder};
use kryst_par::{comm_from_json, comm_to_json, phase_report, CommStats, CostModel};
use kryst_pde::poisson::poisson2d;
use kryst_precond::{Amg, AmgOpts, Jacobi};
use kryst_rt::rng::Rng64;
use kryst_sparse::{Coo, Csr};
use std::path::{Path, PathBuf};
use std::sync::Arc;

const RANKS: [usize; 5] = [512, 1024, 2048, 4096, 8192];

/// 2-D convection–diffusion with first-order upwind convection.
fn convdiff2d(nx: usize, eps: f64, bx: f64, by: f64) -> Csr<f64> {
    let n = nx * nx;
    let h = 1.0 / (nx as f64 + 1.0);
    let mut c = Coo::new(n, n);
    let idx = |i: usize, j: usize| i * nx + j;
    for i in 0..nx {
        for j in 0..nx {
            let row = idx(i, j);
            c.push(row, row, 4.0 * eps / (h * h) + (bx.abs() + by.abs()) / h);
            if i > 0 {
                c.push(row, idx(i - 1, j), -eps / (h * h) - bx.max(0.0) / h);
            }
            if i + 1 < nx {
                c.push(row, idx(i + 1, j), -eps / (h * h) + bx.min(0.0) / h);
            }
            if j > 0 {
                c.push(row, idx(i, j - 1), -eps / (h * h) - by.max(0.0) / h);
            }
            if j + 1 < nx {
                c.push(row, idx(i, j + 1), -eps / (h * h) + by.min(0.0) / h);
            }
        }
    }
    c.to_csr()
}

fn write_file(path: &Path, content: &str) {
    std::fs::write(path, content).unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
}

fn demo(dir: &Path) {
    std::fs::create_dir_all(dir).expect("create profile dir");
    let a = convdiff2d(32, 0.001, 1.0, 0.3);
    let n = a.nrows();
    let jacobi = Jacobi::new(&a, 1.0);
    kryst_obs::set_trace_enabled(true);

    let run = |label: &str, recycle: usize| {
        let stats = CommStats::new_shared();
        let trace = dir.join(format!("{label}.jsonl"));
        let rec = JsonlRecorder::create(&trace)
            .unwrap_or_else(|e| panic!("open {}: {e}", trace.display()));
        let opts = SolveOpts {
            rtol: 1e-8,
            restart: 30,
            recycle,
            max_iters: 5000,
            stats: Some(Arc::clone(&stats)),
            recorder: Some(Arc::new(rec) as Arc<dyn Recorder>),
            ..Default::default()
        };
        let mut rng = Rng64::seed_from_u64(42);
        let b = DMat::from_fn(n, 1, |_, _| rng.gen_range(-1.0, 1.0));
        aggregates().reset();
        let iters = if recycle > 0 {
            // Cold solve + warm recycled solve on a second RHS, so the
            // profile includes both recycle-space setup and refresh.
            let mut rng2 = Rng64::seed_from_u64(43);
            let b2 = DMat::from_fn(n, 1, |_, _| rng2.gen_range(-1.0, 1.0));
            let mut ctx = SolverContext::new();
            let mut x = DMat::zeros(n, 1);
            let r1 = gcrodr::solve(&a, &jacobi, &b, &mut x, &opts, &mut ctx);
            let mut x2 = DMat::zeros(n, 1);
            let r2 = gcrodr::solve(&a, &jacobi, &b2, &mut x2, &opts, &mut ctx);
            assert!(r1.converged && r2.converged, "{label} did not converge");
            r1.iterations + r2.iterations
        } else {
            let mut x = DMat::zeros(n, 1);
            let r = gmres::solve(&a, &jacobi, &b, &mut x, &opts);
            assert!(r.converged, "{label} did not converge");
            r.iterations
        };
        drop(opts); // flush the JSONL trace
        write_file(
            &dir.join(format!("{label}.profile.json")),
            &aggregates().snapshot().to_json(),
        );
        write_file(
            &dir.join(format!("{label}.comm.json")),
            &comm_to_json(&stats.snapshot()),
        );
        eprintln!("  [demo] {label}: {iters} iterations");
    };
    run("gmres30_jacobi", 0);
    run("gcrodr30_10_jacobi", 10);
    amg_demo(dir);
    eprintln!("  [demo] artifacts in {}", dir.display());
}

/// AMG-preconditioned solve on a Poisson operator with a deliberately
/// *large* coarse level (capped coarsening — the GAMG situation the paper's
/// coarse-solve discussion targets), so the coarse direct solve is a
/// visible row of the phase table.
fn amg_demo(dir: &Path) {
    let nx = 180;
    let prob = poisson2d::<f64>(nx, nx);
    let n = prob.a.nrows();
    // The profile starts before the hierarchy is built: its `precond_setup`
    // row is this demo's set-up beside its solve.
    aggregates().reset();
    // Two-level hierarchy with a ~5.4k-row coarse level (capped coarsening)
    // and a damped-Jacobi smoother (unconditionally contractive — the
    // Chebyshev interval estimate is unreliable at this operator size).
    let amg = Amg::new(
        &prob.a,
        prob.near_nullspace.as_ref(),
        &AmgOpts {
            coarse_size: 5500,
            smoother: kryst_precond::SmootherKind::Jacobi {
                omega: 0.67,
                iters: 2,
            },
            ..Default::default()
        },
    );
    let stats = CommStats::new_shared();
    let label = "gmres30_amg";
    let trace = dir.join(format!("{label}.jsonl"));
    let rec =
        JsonlRecorder::create(&trace).unwrap_or_else(|e| panic!("open {}: {e}", trace.display()));
    let opts = SolveOpts {
        rtol: 1e-8,
        restart: 30,
        max_iters: 2000,
        stats: Some(Arc::clone(&stats)),
        recorder: Some(Arc::new(rec) as Arc<dyn Recorder>),
        ..Default::default()
    };
    let mut rng = Rng64::seed_from_u64(44);
    let b = DMat::from_fn(n, 1, |_, _| rng.gen_range(-1.0, 1.0));
    let mut x = DMat::zeros(n, 1);
    let r = gmres::solve(&prob.a, &amg, &b, &mut x, &opts);
    assert!(r.converged, "{label} did not converge");
    drop(opts);
    write_file(
        &dir.join(format!("{label}.profile.json")),
        &aggregates().snapshot().to_json(),
    );
    write_file(
        &dir.join(format!("{label}.comm.json")),
        &comm_to_json(&stats.snapshot()),
    );
    eprintln!("  [demo] {label}: {} iterations", r.iterations);
}

/// Count iteration events in a JSONL trace.
fn iterations_in_trace(path: &Path) -> usize {
    let Ok(text) = std::fs::read_to_string(path) else {
        return 0;
    };
    text.lines()
        .filter(|line| {
            JsonValue::parse(line)
                .ok()
                .and_then(|v| v.get("type").and_then(|t| t.as_str().map(str::to_string)))
                .as_deref()
                == Some("iteration")
        })
        .count()
}

fn report(dir: &Path) -> bool {
    let mut labels: Vec<String> = std::fs::read_dir(dir)
        .unwrap_or_else(|e| panic!("read {}: {e}", dir.display()))
        .filter_map(|e| e.ok())
        .filter_map(|e| {
            e.file_name()
                .to_str()
                .and_then(|n| n.strip_suffix(".profile.json").map(str::to_string))
        })
        .collect();
    labels.sort();
    let model = CostModel::curie_like();
    let mut any_phase = false;
    for label in &labels {
        let text = std::fs::read_to_string(dir.join(format!("{label}.profile.json")))
            .expect("read profile snapshot");
        let Some(prof) = ProfileSnapshot::from_json(&text) else {
            eprintln!("  [report] {label}: unparseable profile snapshot, skipped");
            continue;
        };
        let comm = std::fs::read_to_string(dir.join(format!("{label}.comm.json")))
            .ok()
            .and_then(|t| comm_from_json(&t))
            .unwrap_or_default();
        let iters = iterations_in_trace(&dir.join(format!("{label}.jsonl")));
        let rep = phase_report(label, &prof, &comm, &model, &RANKS, iters);
        any_phase |= !rep.measured.is_empty();
        print!("{}", rep.to_text());
        println!();
    }
    any_phase
}

fn main() {
    // This binary doubles as the worker executable of socket `SpmdWorld`s
    // (`tests/transport_equivalence.rs` borrows it): hand those invocations
    // to the primitive loop before any argument parsing.
    kryst_par::maybe_primitive_worker();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (do_demo, do_report, dir) = match args.first().map(String::as_str) {
        Some("demo") => (true, false, args.get(1).cloned()),
        Some("report") => (false, true, args.get(1).cloned()),
        Some(d) => (true, true, Some(d.to_string())),
        None => (true, true, None),
    };
    let dir = PathBuf::from(dir.unwrap_or_else(|| "target/kryst-prof".to_string()));
    if do_demo {
        demo(&dir);
    }
    if do_report && !report(&dir) {
        eprintln!("kryst_prof: no phases recorded under {}", dir.display());
        std::process::exit(1);
    }
}
