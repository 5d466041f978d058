//! Microwave-imaging forward problem — the paper's §V application.
//!
//! A ring of antennas around the (scaled-down) imaging chamber each
//! transmits in turn; each transmitter is one right-hand side of the same
//! time-harmonic Maxwell system. The optimized Schwarz preconditioner
//! (eq. 6) is set up once; the right-hand sides are then solved with block
//! GCRO-DR — the paper's best-performing combination (Fig. 8, alt. 7).
//! The "measurement" the inverse problem would consume is the field each
//! receiving antenna sees.
//!
//! Usage: `cargo run --release --example maxwell_imaging [nc] [antennas]`

use kryst_core::{gcrodr, PrecondSide, SolveOpts, SolverContext};
use kryst_dense::DMat;
use kryst_pde::maxwell::{antenna_ring_rhs, maxwell3d, MaxwellParams};
use kryst_precond::{Schwarz, SchwarzOpts, SchwarzVariant};
use kryst_scalar::C64;
use kryst_sparse::partition::partition_rcb;
use std::time::Instant;

fn main() {
    let nc = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(10);
    let nant = std::env::args()
        .nth(2)
        .and_then(|s| s.parse().ok())
        .unwrap_or(8);
    let params = MaxwellParams::with_cylinder(nc);
    println!("imaging chamber: nc = {nc}, plastic cylinder inclusion, {nant} antennas");
    let (prob, geom) = maxwell3d(&params);
    let n = prob.a.nrows();
    println!("n = {n} complex edge unknowns, ω = {}", params.omega);

    // ORAS preconditioner, set up once for all transmitters.
    let t0 = Instant::now();
    let part = partition_rcb(&prob.coords, 8);
    let oras = Schwarz::new(
        &prob.a,
        &part,
        &SchwarzOpts {
            variant: SchwarzVariant::Oras,
            overlap: 2,
            impedance: params.omega,
        },
    );
    println!(
        "ORAS setup: {:.2}s, {} subdomains, largest {} dofs",
        t0.elapsed().as_secs_f64(),
        oras.nsubdomains(),
        oras.max_local_size()
    );

    // Solve blocks of transmitters with block GCRO-DR (the Fig. 8 winner).
    let rhs = antenna_ring_rhs(&geom, &params, nant, 0.3, 0.55);
    let opts = SolveOpts {
        rtol: 1e-8,
        restart: 50,
        recycle: 10,
        side: PrecondSide::Right,
        same_system: true,
        max_iters: 3000,
        ..Default::default()
    };
    let blk = 4usize.min(nant);
    let mut ctx = SolverContext::<C64>::new();
    let mut field = DMat::<C64>::zeros(n, nant);
    let t0 = Instant::now();
    let mut total_iters = 0;
    for start in (0..nant).step_by(blk) {
        let width = blk.min(nant - start);
        let b = rhs.cols(start, width);
        let mut x = DMat::<C64>::zeros(n, width);
        let res = gcrodr::solve(&prob.a, &oras, &b, &mut x, &opts, &mut ctx);
        assert!(
            res.converged,
            "transmitter block at {start} failed: {:?}",
            res.final_relres
        );
        total_iters += res.iterations;
        field.set_block(0, start, &x);
        println!(
            "transmitters {:>2}–{:>2}: {:>4} block iterations",
            start + 1,
            start + width,
            res.iterations
        );
    }
    println!(
        "all {nant} transmitters solved in {:.2}s, {total_iters} block iterations total",
        t0.elapsed().as_secs_f64()
    );

    // "Scattering matrix": field of transmitter j at receiver i's edge.
    println!("\n|S|-matrix (field magnitude at receiving antennas):");
    let receivers: Vec<usize> = (0..nant)
        .map(|a| {
            // The source edge of antenna a doubles as its receiver location.
            let col = rhs.col(a);
            (0..n).find(|&i| col[i] != C64::zero()).unwrap()
        })
        .collect();
    for &r in &receivers {
        for t in 0..nant {
            print!("{:>9.2e}", field[(r, t)].abs());
        }
        println!();
    }
    println!("\n(the diagonal dominates: each antenna sees its own excitation;");
    println!(" off-diagonals carry the transmission data the inverse problem uses)");
}
