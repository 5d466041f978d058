//! The repository benchmark. See `benchmark/README.md`.
//!
//! ```text
//! benchmark [--seed N] [--seconds S] [--threads T] [--smoke] [--out DIR]
//!     every workload: an end-to-end process, then a traced process;
//!     prints `workload metric value unit` lines, writes DIR/results.json
//! benchmark --workload NAME --trace 0|1 [same options]
//!     one process of one workload; the last line of output is one JSON
//!     object {correct, attempted, failed, metrics}
//! benchmark compare A.json B.json
//!     judge results B against the base A
//! ```

mod api;
mod check;
mod compare;
mod metrics;
mod probes;
mod stats;
mod trace;
mod workloads;

use api::Json;
use metrics::{PEAK_RSS_MB, SETUP_S, SOLVE_S};
use stats::Summary;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::Instant;
use workloads::{Instruments, Rep, Sizes, Workload};

/// Timed repetitions an end-to-end run makes at the least.
const MIN_REPS: usize = 3;
/// Pairs of untraced and traced repetitions a traced run makes at the least.
const MIN_PAIRS: usize = 2;

struct Cli {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    threads: usize,
    smoke: bool,
    out: PathBuf,
    /// One warm-up and one repetition, `solve_s` on the last line: what the
    /// traced run starts with `--threads 2` for the two-thread comparison.
    single_rep: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: benchmark [--workload NAME --trace 0|1] [--seed N] [--seconds S] [--threads T] \
         [--smoke] [--out DIR]\n       benchmark compare A.json B.json\nworkloads: {}",
        Workload::ALL.map(Workload::name).join(", ")
    );
    std::process::exit(2)
}

fn parse(args: &[String]) -> Cli {
    let mut cli = Cli {
        workload: None,
        seed: 0,
        seconds: 30.0,
        trace: false,
        threads: 1,
        smoke: false,
        out: PathBuf::from("benchmark/out"),
        single_rep: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().map(String::as_str).unwrap_or_else(|| usage());
        match flag.as_str() {
            "--workload" => {
                cli.workload = Some(Workload::from_name(value()).unwrap_or_else(|| usage()))
            }
            "--seed" => cli.seed = value().parse().unwrap_or_else(|_| usage()),
            "--seconds" => cli.seconds = value().parse().unwrap_or_else(|_| usage()),
            "--trace" => {
                cli.trace = match value() {
                    "0" => false,
                    "1" => true,
                    _ => usage(),
                }
            }
            "--threads" => {
                cli.threads = value()
                    .parse()
                    .ok()
                    .filter(|&t| t >= 1)
                    .unwrap_or_else(|| usage())
            }
            "--out" => cli.out = PathBuf::from(value()),
            "--smoke" => cli.smoke = true,
            "--single-rep" => cli.single_rep = true,
            _ => usage(),
        }
    }
    if !(cli.seconds.is_finite() && cli.seconds >= 0.0) {
        usage();
    }
    cli
}

/// The program's behaviour must not depend on the caller's environment:
/// `SolveOpts::default()` and the thread pool read `KRYST_*` variables.
fn pin_environment(threads: usize) {
    for (key, _) in std::env::vars_os() {
        if key.to_string_lossy().starts_with("KRYST_") {
            std::env::remove_var(key);
        }
    }
    // Before the pool is first touched, which reads it once.
    std::env::set_var("KRYST_THREADS", threads.to_string());
}

fn main() -> ExitCode {
    api::worker_hook();
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("compare") {
        return match &args[1..] {
            [a, b] => ExitCode::from(compare::run(a, b) as u8),
            _ => usage(),
        };
    }
    let cli = parse(&args);
    pin_environment(cli.threads);
    assert_eq!(api::threads(), cli.threads, "the pool must obey --threads");
    let outcome = match cli.workload {
        None => ledger(&cli),
        Some(w) if cli.single_rep => single_rep(&cli, w),
        Some(w) if cli.trace => traced_run(&cli, w),
        Some(w) => end_to_end_run(&cli, w),
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}

fn sizes(cli: &Cli) -> Sizes {
    if cli.smoke {
        Sizes::SMOKE
    } else {
        Sizes::FULL
    }
}

fn git_head() -> String {
    Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// Peak resident set of this process so far, from `/proc/self/status`.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next()?.parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".into())
}

fn write_file(path: &Path, text: &str) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))
}

/// What every result file says about how it was made.
fn header(
    cli: &Cli,
    w: Workload,
    inputs: &workloads::Inputs,
    rep: &Rep,
) -> Vec<(&'static str, Json)> {
    let shape = &rep.shape;
    vec![
        ("workload", Json::Str(w.name().into())),
        ("trace", Json::Bool(cli.trace)),
        ("seed", Json::Num(cli.seed as f64)),
        ("seconds", Json::Num(cli.seconds)),
        ("threads", Json::Num(cli.threads as f64)),
        ("smoke", Json::Bool(cli.smoke)),
        ("git_head", Json::Str(git_head())),
        ("inputs", inputs.describe()),
        ("n", Json::Num(shape.n as f64)),
        ("nnz", Json::Num(shape.nnz as f64)),
        ("solver_configs", Json::Arr(rep.configs.clone())),
        (
            "iterations",
            Json::nums(rep.iterations().into_iter().map(|i| i as f64)),
        ),
    ]
}

/// Every repetition took exactly the same iterations in every solve.
fn iters_stable<'a>(reps: impl IntoIterator<Item = &'a Rep>) -> bool {
    let mut counts = reps.into_iter().map(Rep::iterations);
    let first = counts.next();
    counts.all(|c| Some(&c) == first.as_ref())
}

/// `{name: {value, unit}}`, as the contract's result line and the traced
/// result file carry their metrics.
fn metrics_json(metrics: &[(&str, f64)]) -> Json {
    let one = |&(name, value): &(&str, f64)| {
        let m = Json::obj(vec![
            ("value", Json::Num(value)),
            ("unit", Json::Str(metrics::unit_of(name).into())),
        ]);
        (name.to_string(), m)
    };
    Json::Obj(metrics.iter().map(one).collect())
}

/// The contract's last line of output.
fn result_line(attempted: usize, failed: usize, metrics: &[(&str, f64)]) -> String {
    Json::obj(vec![
        ("correct", Json::Bool(failed == 0)),
        ("attempted", Json::Num(attempted as f64)),
        ("failed", Json::Num(failed as f64)),
        ("metrics", metrics_json(metrics)),
    ])
    .to_json()
}

fn print_metrics(w: Workload, metrics: &[(&str, f64)]) {
    for (name, value) in metrics {
        println!("{} {name} {value} {}", w.name(), metrics::unit_of(name));
    }
}

/// Seconds the hypervisor has kept all CPUs of this machine from running,
/// from the `cpu` line of `/proc/stat`; 0 where the kernel does not say.
fn stolen_s() -> f64 {
    const USER_HZ: f64 = 100.0;
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|t| {
            t.lines()
                .next()?
                .split_whitespace()
                .nth(8)?
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |ticks| ticks / USER_HZ)
}

/// A repetition counts as disturbed when the hypervisor stole more than this
/// share of its wall time. Where this was written, undisturbed repetitions
/// lost under 2 % and the slow ones 5 to 18 %, the slowdown equal to the loss.
const STOLEN_SHARE: f64 = 0.03;

/// The repetitions to summarise: the undisturbed ones, or, when fewer than
/// `MIN_REPS` are, the `MIN_REPS` that were disturbed least.
fn least_disturbed(reps: &[(Rep, f64)]) -> Vec<&Rep> {
    let mut by_share: Vec<&(Rep, f64)> = reps.iter().collect();
    by_share.sort_by(|a, b| a.1.total_cmp(&b.1));
    let calm = by_share.iter().filter(|r| r.1 <= STOLEN_SHARE).count();
    by_share.truncate(calm.max(MIN_REPS));
    by_share.into_iter().map(|r| &r.0).collect()
}

/// Seconds of each repetition of an end-to-end run that may go into making
/// the set-up more than once: it makes `setup_s` a median of tens to thousands
/// of samples on the three workloads that set up in far less than this.
const SETUP_BUDGET_S: f64 = 0.25;

/// Tracing off: a warm-up, then timed repetitions, `--seconds` seconds in all.
fn end_to_end_run(cli: &Cli, w: Workload) -> Result<(), String> {
    let inputs = workloads::inputs(w, cli.seed, &sizes(cli));
    let ins = Instruments {
        setup_budget_s: if cli.smoke { 0.0 } else { SETUP_BUDGET_S },
        ..Instruments::default()
    };
    let start = Instant::now();
    let warmup = (!cli.smoke).then(|| workloads::run_rep(&inputs, ins));
    // Each repetition with the share of its wall time that was stolen.
    let mut timed: Vec<(Rep, f64)> = Vec::new();
    loop {
        let (t0, stolen0) = (Instant::now(), stolen_s());
        let rep = workloads::run_rep(&inputs, ins);
        let secs = t0.elapsed().as_secs_f64();
        timed.push((rep, (stolen_s() - stolen0) / secs));
        // Stop when one more repetition would end after `--seconds`.
        let enough = timed.len() >= MIN_REPS && start.elapsed().as_secs_f64() + secs > cli.seconds;
        if cli.smoke || enough {
            break;
        }
    }
    let kept = least_disturbed(&timed);
    let setups: Vec<f64> = kept
        .iter()
        .flat_map(|r| &r.setup_samples)
        .copied()
        .collect();
    let setup = Summary::of(&setups);
    let solve = Summary::of(&kept.iter().map(|r| r.solve_s()).collect::<Vec<_>>());
    let rss = Summary::of(&[peak_rss_mb()?]);
    // Every solve of every timed repetition is checked, kept or not.
    let attempted: usize = timed.iter().map(|r| r.0.solves.len()).sum();
    let failed: usize = timed.iter().map(|r| r.0.failed()).sum();
    let stable = iters_stable(warmup.iter().chain(timed.iter().map(|r| &r.0)));

    let mut doc = header(cli, w, &inputs, &timed[0].0);
    doc.extend([
        ("reps", Json::Num(timed.len() as f64)),
        ("reps_kept", Json::Num(kept.len() as f64)),
        ("solves_attempted", Json::Num(attempted as f64)),
        ("solves_failed", Json::Num(failed as f64)),
        ("iters_stable", Json::Bool(stable)),
        (
            "solve_s_samples",
            Json::nums(timed.iter().map(|r| r.0.solve_s())),
        ),
        (
            "setup_s_samples",
            Json::nums(timed.iter().map(|r| r.0.setup_s)),
        ),
        (
            "stolen_share_samples",
            Json::nums(timed.iter().map(|r| r.1)),
        ),
        (
            "end_to_end",
            Json::obj(vec![
                (SETUP_S, setup.to_json("s")),
                (SOLVE_S, solve.to_json("s")),
                (PEAK_RSS_MB, rss.to_json("MB")),
            ]),
        ),
    ]);
    write_file(
        &cli.out.join(format!("{}.end_to_end.json", w.name())),
        &Json::obj(doc).to_json(),
    )?;

    let metrics = [
        (SETUP_S, setup.median),
        (SOLVE_S, solve.median),
        (PEAK_RSS_MB, rss.median),
    ];
    print_metrics(w, &metrics);
    println!("{}", result_line(attempted, failed, &metrics));
    Ok(())
}

/// One warm-up and one repetition; prints `solve_s` alone on the last line.
fn single_rep(cli: &Cli, w: Workload) -> Result<(), String> {
    let inputs = workloads::inputs(w, cli.seed, &sizes(cli));
    if !cli.smoke {
        workloads::run_rep(&inputs, Instruments::default());
    }
    let rep = workloads::run_rep(&inputs, Instruments::default());
    println!("{}", rep.solve_s());
    Ok(())
}

/// `solve_s` of this workload in a fresh process with two threads.
fn solve_s_two_threads(cli: &Cli, w: Workload) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", w.name(), "--single-rep", "--threads", "2"])
        .args(["--seed", &cli.seed.to_string()]);
    if cli.smoke {
        cmd.arg("--smoke");
    }
    let out = cmd.output().map_err(|e| format!("two-thread run: {e}"))?;
    if !out.status.success() {
        return Err(format!("two-thread run: {}", out.status));
    }
    String::from_utf8_lossy(&out.stdout)
        .lines()
        .last()
        .and_then(|l| l.trim().parse().ok())
        .ok_or_else(|| "two-thread run printed no solve_s".into())
}

/// The traced run: a warm-up and untraced and traced repetitions in turn for
/// half of `--seconds`; in about the other half one repetition with the
/// program's own recorder, one process with two threads, then the machine,
/// kernel and transport probes.
fn traced_run(cli: &Cli, w: Workload) -> Result<(), String> {
    let inputs = workloads::inputs(w, cli.seed, &sizes(cli));
    let tracer = trace::Tracer::new();
    let counters = api::Counters::new();
    let traced_with = Instruments {
        tracer: Some(&tracer),
        counters: Some(&counters),
        ..Instruments::default()
    };
    let start = Instant::now();
    let warmup = (!cli.smoke).then(|| workloads::run_rep(&inputs, Instruments::default()));
    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    loop {
        let t0 = Instant::now();
        untraced.push(workloads::run_rep(&inputs, Instruments::default()));
        traced.push(workloads::run_rep(&inputs, traced_with));
        let ends_s = (start.elapsed() + t0.elapsed()).as_secs_f64();
        let enough = traced.len() >= MIN_PAIRS && ends_s > cli.seconds / 2.0;
        if cli.smoke || enough {
            break;
        }
    }
    let events = api::EventRing::new(1 << 17);
    let recorded = workloads::run_rep(
        &inputs,
        Instruments {
            counters: Some(&counters),
            events: Some(&events),
            ..Instruments::default()
        },
    );
    let solve_s_t2 = solve_s_two_threads(cli, w)?;

    let spans = tracer.spans();
    let layers = trace::layers_by_repetition(&spans);
    assert_eq!(
        layers.len(),
        traced.len(),
        "one repetition span per traced repetition"
    );
    let spans_path = cli.out.join(format!("{}.spans.jsonl", w.name()));
    std::fs::create_dir_all(&cli.out).map_err(|e| format!("{}: {e}", cli.out.display()))?;
    std::fs::File::create(&spans_path)
        .and_then(|f| trace::write_jsonl(&spans, std::io::BufWriter::new(f)))
        .map_err(|e| format!("{}: {e}", spans_path.display()))?;

    let mut notes = Vec::new();
    if events.dropped() > 0 {
        notes.push(format!(
            "the event ring dropped {} events",
            events.dropped()
        ));
    }
    let machine = probes::machine(cli.threads);
    if !machine.llc_from_sysfs {
        notes.push("last-level cache size not readable from sysfs: 32 MiB assumed".into());
    }
    if machine.triad_array_bytes < 4 * machine.llc_bytes {
        notes.push(
            "triad arrays smaller than 4x the last-level cache: capped, see probes.rs".into(),
        );
    }
    let shape = &traced[0].shape;
    let sizes_recorded = events.reduction_sizes();
    let with_eig = w == Workload::ElasticityVaryingSeq;
    let (kernels, par) = match workloads::subject(&inputs) {
        workloads::Subject::Real(p) => (
            probes::kernels(&p, shape, with_eig, &machine),
            probes::par(&p.a, shape.block_width, &sizes_recorded),
        ),
        workloads::Subject::Complex(p) => (
            probes::kernels(&p, shape, with_eig, &machine),
            probes::par(&p.a, shape.block_width, &sizes_recorded),
        ),
    };
    let par = par.unwrap_or_else(|e| {
        notes.push(format!(
            "no socket world of two ranks, par.*_p2_* read 0: {e}"
        ));
        probes::Par::default()
    });

    let all = || (warmup.iter().chain(&untraced).chain(&traced)).chain(std::iter::once(&recorded));
    let untraced_solve_s: Vec<f64> = untraced.iter().map(Rep::solve_s).collect();
    let values = metrics::per_layer(&metrics::Traced {
        reps: &traced,
        layers: &layers,
        untraced_solve_s: &untraced_solve_s,
        recorder_solve_s: recorded.solve_s(),
        solve_s_t2,
        iters_stable: iters_stable(all()),
        threads: cli.threads,
        machine: &machine,
        kernels: &kernels,
        par: &par,
    });
    let attempted: usize = all().map(|r| r.solves.len()).sum();
    let failed: usize = all().map(Rep::failed).sum();

    let mut doc = header(cli, w, &inputs, &traced[0]);
    doc.extend([
        ("traced_reps", Json::Num(traced.len() as f64)),
        ("solves_attempted", Json::Num(attempted as f64)),
        ("solves_failed", Json::Num(failed as f64)),
        ("spans_file", Json::Str(spans_path.display().to_string())),
        (
            "notes",
            Json::Arr(notes.into_iter().map(Json::Str).collect()),
        ),
        ("per_layer", metrics_json(&values)),
    ]);
    write_file(
        &cli.out.join(format!("{}.traced.json", w.name())),
        &Json::obj(doc).to_json(),
    )?;
    print_metrics(w, &values);
    println!("{}", result_line(attempted, failed, &values));
    Ok(())
}

/// Every workload, one process per pass, merged into `results.json`.
fn ledger(cli: &Cli) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut merged = Vec::new();
    for w in Workload::ALL {
        let mut entry = Vec::new();
        for (trace, file) in [("0", "end_to_end"), ("1", "traced")] {
            let mut cmd = Command::new(&exe);
            cmd.args(["--workload", w.name(), "--trace", trace])
                .args(["--seed", &cli.seed.to_string()])
                .args(["--seconds", &cli.seconds.to_string()])
                .args(["--threads", &cli.threads.to_string()])
                .arg("--out")
                .arg(&cli.out);
            if cli.smoke {
                cmd.arg("--smoke");
            }
            // The child prints its metric lines itself; its last line is for
            // the contract's driver and tells a reader of this ledger nothing.
            let out = cmd.output().map_err(|e| format!("{}: {e}", w.name()))?;
            let text = String::from_utf8_lossy(&out.stdout);
            for line in text.lines().filter(|l| !l.starts_with('{')) {
                println!("{line}");
            }
            if !out.status.success() {
                eprint!("{}", String::from_utf8_lossy(&out.stderr));
                return Err(format!("{} --trace {trace}: {}", w.name(), out.status));
            }
            let path = cli.out.join(format!("{}.{file}.json", w.name()));
            let text =
                std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
            let doc = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
            let Json::Obj(fields) = doc else {
                return Err(format!("{}: not an object", path.display()));
            };
            let keep: &[&str] = match file {
                "end_to_end" => &[
                    "reps",
                    "reps_kept",
                    "solves_attempted",
                    "solves_failed",
                    "iters_stable",
                    "iterations",
                    "inputs",
                    "solver_configs",
                    "n",
                    "nnz",
                    "end_to_end",
                ],
                _ => &["traced_reps", "notes", "per_layer"],
            };
            entry.extend(
                fields
                    .into_iter()
                    .filter(|(k, _)| keep.contains(&k.as_str())),
            );
        }
        merged.push((w.name().to_string(), Json::Obj(entry)));
    }
    let doc = Json::obj(vec![
        ("git_head", Json::Str(git_head())),
        ("seed", Json::Num(cli.seed as f64)),
        ("seconds", Json::Num(cli.seconds)),
        ("threads", Json::Num(cli.threads as f64)),
        ("smoke", Json::Bool(cli.smoke)),
        ("claim", Json::Null),
        ("workloads", Json::Obj(merged)),
    ]);
    let path = cli.out.join("results.json");
    write_file(&path, &doc.to_json())?;
    eprintln!("wrote {}", path.display());
    Ok(())
}
