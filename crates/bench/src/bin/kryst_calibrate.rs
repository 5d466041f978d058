//! Measure the α–β machine constants on real transports.
//!
//! Usage: `kryst_calibrate [P] [--backend channel|socket|both] [--reps N]
//! [--json <path>]`
//!
//! Spawns an [`SpmdWorld`](kryst_par::SpmdWorld) per requested backend at
//! world size `P` (default 4), runs the ping-pong / all-reduce
//! microbenchmarks of [`kryst_par::Calibration`], and prints the
//! measured-constants table next to the assumed Curie-like defaults. With
//! `--json <path>` it also appends one JSON line per calibration (the
//! format `Calibration::from_json` reads back).
//!
//! This binary doubles as the *worker executable* for socket worlds: the
//! first line of `main` hands control to the primitive-worker loop whenever
//! `KRYST_SPMD_MODE=primitive` is set, which is how test binaries (which
//! cannot host the pre-libtest hook) borrow it via
//! `env!("CARGO_BIN_EXE_kryst_calibrate")`.

use kryst_par::{calibration_table, Calibration, CostModel, SpmdWorld, TransportKind};
use std::process::ExitCode;

fn main() -> ExitCode {
    kryst_par::maybe_primitive_worker();

    let mut nranks = 4usize;
    let mut reps = 64usize;
    let mut backends = vec![TransportKind::Channel, TransportKind::Socket];
    let mut json_path: Option<String> = None;

    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--backend" => {
                i += 1;
                backends = match args.get(i).map(String::as_str) {
                    Some("channel") => vec![TransportKind::Channel],
                    Some("socket") => vec![TransportKind::Socket],
                    Some("both") => vec![TransportKind::Channel, TransportKind::Socket],
                    other => {
                        eprintln!("--backend must be channel|socket|both, got {other:?}");
                        return ExitCode::from(2);
                    }
                };
            }
            "--reps" => {
                i += 1;
                reps = match args.get(i).and_then(|s| s.parse().ok()) {
                    Some(r) => r,
                    None => {
                        eprintln!("--reps needs a positive integer");
                        return ExitCode::from(2);
                    }
                };
            }
            "--json" => {
                i += 1;
                match args.get(i) {
                    Some(p) => json_path = Some(p.clone()),
                    None => {
                        eprintln!("--json needs a path");
                        return ExitCode::from(2);
                    }
                }
            }
            s => match s.parse() {
                Ok(p) if p >= 2 => nranks = p,
                _ => {
                    eprintln!(
                        "usage: kryst_calibrate [P>=2] [--backend channel|socket|both] \
                         [--reps N] [--json <path>]"
                    );
                    return ExitCode::from(2);
                }
            },
        }
        i += 1;
    }

    let mut cals = Vec::new();
    for kind in backends {
        let world = match SpmdWorld::spawn(kind, nranks) {
            Ok(w) => w,
            Err(e) => {
                eprintln!("{}: world spawn failed: {e}", kind.name());
                return ExitCode::from(1);
            }
        };
        let cal = match Calibration::measure(&world, reps) {
            Ok(c) => c,
            Err(e) => {
                eprintln!("{}: calibration failed: {e}", kind.name());
                return ExitCode::from(1);
            }
        };
        if let Err(e) = world.shutdown() {
            eprintln!("{}: world shutdown failed: {e}", kind.name());
            return ExitCode::from(1);
        }
        cals.push(cal);
    }

    print!("{}", calibration_table(&CostModel::curie_like(), &cals));
    if let Some(path) = json_path {
        let mut doc = String::new();
        for c in &cals {
            doc.push_str(&c.to_json());
            doc.push('\n');
        }
        if let Err(e) = std::fs::write(&path, doc) {
            eprintln!("cannot write {path}: {e}");
            return ExitCode::from(1);
        }
        println!("wrote {path}");
    }
    ExitCode::SUCCESS
}
