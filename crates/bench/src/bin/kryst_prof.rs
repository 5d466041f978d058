//! kryst-prof — phase-attributed profile reports.
//!
//! Two modes, combinable:
//!
//! * `kryst_prof demo <dir>` — run two instrumented solves (GMRES(30)+ILU(0)
//!   and GCRO-DR(30,10)+ILU(0) on the Fig. 7 convection–diffusion problem)
//!   with tracing enabled, writing per-solve artifacts into `<dir>`: the
//!   JSONL event trace, the span-aggregate snapshot
//!   (`<label>.profile.json`) and the exact communication counters
//!   (`<label>.comm.json`). It prints the per-rank imbalance of each solve's
//!   counters and the wire counters of each transport world as it goes.
//! * `kryst_prof report <dir>` — consume those artifacts and print the
//!   paper-style per-phase breakdown: measured local wall time per span
//!   kind, iterations (counted from the JSONL trace), and α–β–γ modeled
//!   comm/compute time at the paper's rank counts.
//!
//! With no mode argument it runs `demo` then `report` on
//! `target/kryst-prof` (or the directory given as the only argument).

use kryst_core::{gcrodr, gmres, SolveOpts, SolverContext};
use kryst_dense::DMat;
use kryst_obs::json::JsonValue;
use kryst_obs::{aggregates, JsonlRecorder, ProfileSnapshot, Recorder, WireSnapshot};
use kryst_par::{
    calibration_table, comm_from_json, comm_to_json, per_rank_comm, phase_report, validation_table,
    Calibration, CommSnapshot, CommStats, CostModel, DistOp, HaloPlan, Layout, SpmdWorld,
    TransportError, TransportKind, ValidationRow,
};
use kryst_pde::poisson::poisson2d;
use kryst_precond::{Amg, AmgOpts, Ilu0};
use kryst_rt::rng::Rng64;
use kryst_sparse::{Coo, Csr};
use std::path::{Path, PathBuf};
use std::sync::Arc;

const RANKS: [usize; 5] = [512, 1024, 2048, 4096, 8192];
const DEMO_RANKS: usize = 8;

/// The Fig. 7 benchmark operator: 2-D convection–diffusion, first-order
/// upwind convection.
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

/// Max/min/avg over ranks of each per-rank counter.
fn print_spread(title: &str, fields: &[(&str, Vec<u64>)]) {
    println!("{title}:");
    println!(
        "  {:<16} {:>14} {:>14} {:>16}",
        "counter", "max", "min", "avg"
    );
    for (name, per_rank) in fields {
        let max = per_rank.iter().max().copied().unwrap_or(0);
        let min = per_rank.iter().min().copied().unwrap_or(0);
        let avg = per_rank.iter().sum::<u64>() as f64 / per_rank.len().max(1) as f64;
        println!("  {name:<16} {max:>14} {min:>14} {avg:>16.1}");
    }
    println!();
}

/// The per-rank imbalance of one solve's counters, split by the halo plan.
fn print_imbalance(label: &str, snaps: &[CommSnapshot]) {
    let field = |get: fn(&CommSnapshot) -> u64| snaps.iter().map(get).collect();
    print_spread(
        &format!("per-rank imbalance ({label}, P = {})", snaps.len()),
        &[
            ("p2p_messages", field(|s| s.p2p_messages)),
            ("p2p_bytes", field(|s| s.p2p_bytes)),
            ("fused_parts", field(|s| s.fused_parts)),
            ("reductions", field(|s| s.reductions)),
        ],
    );
}

/// The wire counters every rank of a transport world measured.
fn print_wire(backend: &str, wires: &[WireSnapshot]) {
    let field = |get: fn(&WireSnapshot) -> u64| wires.iter().map(get).collect();
    print_spread(
        &format!("wire counters ({backend}, P = {})", wires.len()),
        &[
            ("msgs_sent", field(|w| w.msgs_sent)),
            ("bytes_sent", field(|w| w.bytes_sent)),
            ("msgs_recv", field(|w| w.msgs_recv)),
            ("bytes_recv", field(|w| w.bytes_recv)),
            ("send_ns", field(|w| w.send_ns)),
            ("recv_ns", field(|w| w.recv_ns)),
        ],
    );
}

fn demo(dir: &Path) {
    std::fs::create_dir_all(dir).expect("create profile dir");
    let a = convdiff2d(32, 0.001, 1.0, 0.3);
    let n = a.nrows();
    let ilu = Ilu0::new(&a).expect("ILU(0) on convdiff");
    let plan = HaloPlan::build(&a, &Layout::even(n, DEMO_RANKS));
    kryst_obs::set_trace_enabled(true);

    let run = |label: &str, recycle: usize| {
        let stats = CommStats::new_shared();
        let dist = DistOp::new(a.clone(), DEMO_RANKS, Arc::clone(&stats));
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
            let r1 = gcrodr::solve(&dist, &ilu, &b, &mut x, &opts, &mut ctx);
            let mut x2 = DMat::zeros(n, 1);
            let r2 = gcrodr::solve(&dist, &ilu, &b2, &mut x2, &opts, &mut ctx);
            assert!(r1.converged && r2.converged, "{label} did not converge");
            r1.iterations + r2.iterations
        } else {
            let mut x = DMat::zeros(n, 1);
            let r = gmres::solve(&dist, &ilu, &b, &mut x, &opts);
            assert!(r.converged, "{label} did not converge");
            r.iterations
        };
        drop(opts); // flush the JSONL trace
        let snap = stats.snapshot();
        write_file(
            &dir.join(format!("{label}.profile.json")),
            &aggregates().snapshot().to_json(),
        );
        write_file(
            &dir.join(format!("{label}.comm.json")),
            &comm_to_json(&snap),
        );
        print_imbalance(label, &per_rank_comm(&plan, &snap, DEMO_RANKS));
        eprintln!("  [demo] {label}: {iters} iterations");
    };
    run("gmres30_ilu0", 0);
    run("gcrodr30_10_ilu0", 10);
    amg_demo(dir);
    transport_demo(dir, &a);
    trace_demo(dir);
    eprintln!("  [demo] artifacts in {}", dir.display());
}

/// World size of the calibration/validation worlds — small enough that the
/// socket backend (real OS processes) spawns quickly in CI.
const CAL_RANKS: usize = 4;

/// The transport calibration + validation pass: measure the α–β–γ machine
/// constants on each backend ([`Calibration::measure`]), then replay the
/// demo's per-iteration communication pattern — one fused 30-double Gram
/// all-reduce and one halo exchange of the Fig. 7 operator — on the *live*
/// world and record the wall time next to what the freshly calibrated model
/// charges for the same pattern. Writes `calibration.json` for the report's
/// measured-vs-modeled table (acceptance: within 2× on the socket backend),
/// and prints each world's per-rank wire counters.
fn transport_demo(dir: &Path, a: &Csr<f64>) {
    let plan = HaloPlan::build(a, &Layout::even(a.nrows(), CAL_RANKS));
    let mut cals: Vec<Calibration> = Vec::new();
    let mut rows: Vec<ValidationRow> = Vec::new();
    for kind in [TransportKind::Channel, TransportKind::Socket] {
        let world = match SpmdWorld::spawn(kind, CAL_RANKS) {
            Ok(w) => w,
            Err(e) => {
                eprintln!("  [demo] {}: world unavailable, skipped: {e}", kind.name());
                continue;
            }
        };
        let mut pass = || -> Result<(), TransportError> {
            let cal = Calibration::measure(&world, 64)?;
            let model = CostModel::calibrated(&cal);

            let reps = 200;
            let ar_measured = world.all_reduce(30, reps)?.as_secs_f64() / reps as f64;
            let snap = CommSnapshot {
                reductions: 1,
                reduction_bytes: 30 * 8,
                ..Default::default()
            };
            let ar_modeled = model.time(&snap, CAL_RANKS).reduction;
            rows.push(ValidationRow {
                what: "allreduce(30)/iter".to_string(),
                backend: cal.backend.clone(),
                nranks: CAL_RANKS,
                measured_s: ar_measured,
                modeled_s: ar_modeled,
            });

            let halo_measured = world.halo(&plan, 1, reps)?.as_secs_f64() / reps as f64;
            let snap = CommSnapshot {
                p2p_messages: plan.messages_per_exchange as u64,
                p2p_bytes: plan.bytes_per_exchange(1, 8) as u64,
                ..Default::default()
            };
            let halo_modeled = model.time(&snap, CAL_RANKS).p2p;
            rows.push(ValidationRow {
                what: "halo(spmv)/iter".to_string(),
                backend: cal.backend.clone(),
                nranks: CAL_RANKS,
                measured_s: halo_measured,
                modeled_s: halo_modeled,
            });
            // The acceptance metric: total per-iteration communication (one
            // fused Gram reduction + one halo exchange, the fused-path
            // pattern of the demo solves), measured vs modeled.
            rows.push(ValidationRow {
                what: "comm/iter (total)".to_string(),
                backend: cal.backend.clone(),
                nranks: CAL_RANKS,
                measured_s: ar_measured + halo_measured,
                modeled_s: ar_modeled + halo_modeled,
            });
            cals.push(cal);
            Ok(())
        };
        let res = pass();
        let shut = world.shutdown();
        if let Err(e) = res {
            eprintln!("  [demo] {}: calibration failed: {e}", kind.name());
        }
        match shut {
            // Real measured per-rank wire counters (rank 0 first) from the
            // transport endpoints themselves.
            Ok(wires) => print_wire(kind.name(), &wires),
            Err(e) => eprintln!("  [demo] {}: world shutdown failed: {e}", kind.name()),
        }
    }
    let json = JsonValue::obj(vec![
        (
            "calibrations",
            JsonValue::Arr(cals.iter().map(Calibration::to_json_value).collect()),
        ),
        (
            "validation",
            JsonValue::Arr(
                rows.iter()
                    .map(|r| {
                        JsonValue::obj(vec![
                            ("what", r.what.as_str().into()),
                            ("backend", r.backend.as_str().into()),
                            ("nranks", r.nranks.into()),
                            ("measured_s", r.measured_s.into()),
                            ("modeled_s", r.modeled_s.into()),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
    .to_json();
    write_file(&dir.join("calibration.json"), &json);
    eprintln!(
        "  [demo] transport calibration: {} backend(s), {} validation rows",
        cals.len(),
        rows.len()
    );
}

/// The measured-imbalance section, demo side: run the traced skewed
/// workload ([`kryst_bench::tracedemo`]) on a small channel world, gather
/// the merged per-rank timeline, and write `timeline.json` for the report's
/// wait-behind-slowest attribution.
fn trace_demo(dir: &Path) {
    let res = kryst_par::run_spmd(TransportKind::Channel, CAL_RANKS, |t| {
        let tl = kryst_bench::tracedemo::skewed_workload(t, 12)?;
        Ok(tl.map(|tl| tl.encode()).unwrap_or_default())
    });
    match res {
        Ok(run) => match kryst_obs::Timeline::decode(&run.results[0]) {
            Some(tl) => {
                write_file(&dir.join("timeline.json"), &tl.to_json());
                let spans: usize = tl.streams.iter().map(|s| s.spans.len()).sum();
                eprintln!(
                    "  [demo] traced workload: {spans} spans over {} ranks",
                    tl.nranks
                );
            }
            None => eprintln!("  [demo] traced workload returned a malformed timeline"),
        },
        Err(e) => eprintln!("  [demo] traced workload failed, skipped: {e}"),
    }
}

/// The measured-imbalance section, report side: replay `timeline.json`.
fn report_trace(dir: &Path) {
    let Ok(text) = std::fs::read_to_string(dir.join("timeline.json")) else {
        return;
    };
    let Some(tl) = kryst_obs::Timeline::from_json(&text) else {
        eprintln!("  [report] unparseable timeline.json, skipped");
        return;
    };
    println!(
        "measured imbalance (gathered trace timeline, P = {}):",
        tl.nranks
    );
    print!("{}", kryst_obs::timeline::phase_table(&tl.phase_totals()));
    print!("{}", tl.imbalance().to_text());
    println!();
}

/// Render the `calibration.json` artifact written by [`transport_demo`]:
/// the assumed-vs-measured constants table and the measured-vs-modeled
/// replay validation.
fn report_transport(dir: &Path) {
    let Ok(text) = std::fs::read_to_string(dir.join("calibration.json")) else {
        return;
    };
    let Ok(v) = JsonValue::parse(&text) else {
        eprintln!("  [report] unparseable calibration.json, skipped");
        return;
    };
    let mut cals = Vec::new();
    for e in v
        .get("calibrations")
        .and_then(JsonValue::as_array)
        .unwrap_or(&[])
    {
        let (Some(backend), Some(nranks)) = (
            e.get("backend").and_then(JsonValue::as_str),
            e.get("nranks").and_then(JsonValue::as_usize),
        ) else {
            continue;
        };
        let f = |k: &str| e.get(k).and_then(JsonValue::as_f64);
        let (Some(alpha_msg), Some(alpha_reduce), Some(beta), Some(gamma)) =
            (f("alpha_msg"), f("alpha_reduce"), f("beta"), f("gamma"))
        else {
            continue;
        };
        cals.push(Calibration {
            backend: backend.to_string(),
            nranks,
            alpha_msg,
            alpha_reduce,
            beta,
            gamma,
        });
    }
    let mut rows = Vec::new();
    for e in v
        .get("validation")
        .and_then(JsonValue::as_array)
        .unwrap_or(&[])
    {
        let (Some(what), Some(backend), Some(nranks), Some(measured_s), Some(modeled_s)) = (
            e.get("what").and_then(JsonValue::as_str),
            e.get("backend").and_then(JsonValue::as_str),
            e.get("nranks").and_then(JsonValue::as_usize),
            e.get("measured_s").and_then(JsonValue::as_f64),
            e.get("modeled_s").and_then(JsonValue::as_f64),
        ) else {
            continue;
        };
        rows.push(ValidationRow {
            what: what.to_string(),
            backend: backend.to_string(),
            nranks,
            measured_s,
            modeled_s,
        });
    }
    if !cals.is_empty() {
        print!("{}", calibration_table(&CostModel::curie_like(), &cals));
        println!();
    }
    if !rows.is_empty() {
        print!("{}", validation_table(&rows));
        println!();
    }
}

/// AMG-preconditioned solve on a Poisson operator with a deliberately
/// *large* coarse level (capped coarsening — the GAMG situation the paper's
/// coarse-solve discussion targets): the redundant-serial coarse solve is
/// then a real constant term on the modeled critical path, and the
/// agglomeration model shows what gathering it onto a subset buys.
/// Writes the `coarse_agglom.json` redistribution model consumed by the
/// report.
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
            agglom_threshold: 8192,
            smoother: kryst_precond::SmootherKind::Jacobi {
                omega: 0.67,
                iters: 2,
            },
            ..Default::default()
        },
    );
    let stats = CommStats::new_shared();
    let dist = DistOp::new(prob.a.clone(), DEMO_RANKS, Arc::clone(&stats));
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
    let r = gmres::solve(&dist, &amg, &b, &mut x, &opts);
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
    let plan = HaloPlan::build(&prob.a, &Layout::even(n, DEMO_RANKS));
    print_imbalance(label, &per_rank_comm(&plan, &stats.snapshot(), DEMO_RANKS));
    eprintln!("  [demo] {label}: {} iterations", r.iterations);
    // The redistribution model at each reported rank count.
    let rows: Vec<JsonValue> = RANKS
        .iter()
        .filter_map(|&p| amg.coarse_agglom(p))
        .map(|m| {
            JsonValue::obj(vec![
                ("ranks", m.ranks.into()),
                ("subset", m.subset.into()),
                ("gather_msgs", m.gather_msgs.into()),
                ("gather_bytes", m.gather_bytes.into()),
                ("scatter_msgs", m.scatter_msgs.into()),
                ("scatter_bytes", m.scatter_bytes.into()),
                ("solve_flops", m.solve_flops.into()),
            ])
        })
        .collect();
    let json = JsonValue::obj(vec![
        ("coarse_n", amg.coarse_n().into()),
        ("rows", JsonValue::Arr(rows)),
    ])
    .to_json();
    write_file(&dir.join("coarse_agglom.json"), &json);
}

/// Render the `coarse_agglom.json` model written by [`amg_demo`]: the
/// modeled per-apply cost of the all-ranks-serial coarse solve (a constant
/// term that never scales) against the agglomerated subset solve plus its
/// gather/scatter redistribution.
fn report_coarse_agglom(dir: &Path, model: &CostModel) {
    let Ok(text) = std::fs::read_to_string(dir.join("coarse_agglom.json")) else {
        return;
    };
    let Ok(v) = JsonValue::parse(&text) else {
        eprintln!("  [report] unparseable coarse_agglom.json, skipped");
        return;
    };
    let coarse_n = v.get("coarse_n").and_then(JsonValue::as_usize).unwrap_or(0);
    let Some(rows) = v.get("rows").and_then(JsonValue::as_array) else {
        return;
    };
    println!("agglomerated coarse solve (modeled per V-cycle, coarse_n = {coarse_n}):");
    println!(
        "  {:>6} {:>7} {:>12} {:>12} {:>8}",
        "P", "subset", "serial_s", "agglom_s", "speedup"
    );
    for row in rows {
        let f = |k: &str| row.get(k).and_then(JsonValue::as_usize);
        let (Some(ranks), Some(subset), Some(gmsgs), Some(gbytes), Some(flops)) = (
            f("ranks"),
            f("subset"),
            f("gather_msgs"),
            f("gather_bytes"),
            f("solve_flops"),
        ) else {
            continue;
        };
        let subset_f = subset.max(1) as f64;
        // Serial baseline: every rank solves the whole coarse problem — a
        // P-independent term on the critical path.
        let serial = flops as f64 / model.gamma;
        // Agglomerated: gather fan-in per subset rank, subset solve, mirror
        // scatter. The redistribution is charged honestly, not for free.
        let redist =
            (gmsgs as f64 / subset_f) * model.alpha_msg + (gbytes as f64 / subset_f) / model.beta;
        let agglom = 2.0 * redist + flops as f64 / (model.gamma * subset_f);
        println!(
            "  {ranks:>6} {subset:>7} {serial:>12.3e} {agglom:>12.3e} {:>7.2}x",
            serial / agglom
        );
    }
    println!();
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
    report_coarse_agglom(dir, &model);
    report_transport(dir);
    report_trace(dir);
    any_phase
}

fn main() {
    // Socket worlds re-exec this binary as workers; hand those invocations
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
