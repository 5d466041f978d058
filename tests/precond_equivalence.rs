//! Property suite: the blocked (multi-RHS) preconditioner apply paths must
//! be **bit-identical** to the per-column reference path, for every
//! preconditioner, scalar type, block width, and thread count.
//!
//! The blocked paths stream all `p` columns per row/level/sweep and may run
//! Schwarz subdomains (or AMG setup products) on the worker pool — but each
//! output element is produced by the *same* floating-point operations in
//! the *same* order as the scalar reference, so equality here is exact, not
//! approximate. Run in CI under both `KRYST_THREADS=1` and `KRYST_THREADS=4`.

use kryst_dense::DMat;
use kryst_par::PrecondOp;
use kryst_pde::poisson::poisson2d;
use kryst_precond::{
    Amg, AmgOpts, Chebyshev, Jacobi, Schwarz, SchwarzOpts, SchwarzVariant, SmootherKind,
};
use kryst_scalar::{Scalar, C64};
use kryst_sparse::partition::partition_rcb;

const WIDTHS: [usize; 3] = [1, 4, 8];

fn pinned_rhs<S: Scalar>(n: usize, p: usize) -> DMat<S> {
    DMat::from_fn(n, p, |i, j| {
        S::from_parts(
            (((i * 7 + j * 13) % 19) as f64) - 9.0,
            (((i * 3 + j * 5) % 11) as f64) - 5.0,
        )
    })
}

/// Per-column reference: apply `m` to each column separately (`p = 1`).
fn apply_columnwise<S: Scalar>(m: &dyn PrecondOp<S>, r: &DMat<S>) -> DMat<S> {
    let n = r.nrows();
    let p = r.ncols();
    let mut z = DMat::zeros(n, p);
    for j in 0..p {
        let rj = DMat::from_col_major(n, 1, r.col(j).to_vec());
        let mut zj = DMat::zeros(n, 1);
        m.apply(&rj, &mut zj);
        z.col_mut(j).copy_from_slice(zj.col(0));
    }
    z
}

fn assert_identical<S: Scalar>(blocked: &DMat<S>, reference: &DMat<S>, what: &str) {
    assert_eq!(blocked.nrows(), reference.nrows());
    assert_eq!(blocked.ncols(), reference.ncols());
    for j in 0..blocked.ncols() {
        for i in 0..blocked.nrows() {
            let (a, b) = (blocked[(i, j)], reference[(i, j)]);
            assert!(
                a == b,
                "{what}: ({i},{j}) blocked={a:?} reference={b:?} differ"
            );
        }
    }
}

/// Blocked apply vs per-column reference, exact equality, all widths.
fn check_blocked_matches_columnwise<S: Scalar>(m: &dyn PrecondOp<S>, what: &str) {
    let n = m.nrows();
    for p in WIDTHS {
        let r = pinned_rhs::<S>(n, p);
        let mut z = DMat::zeros(n, p);
        // Apply twice: the second apply runs against a warm workspace pool,
        // so pooled-buffer reuse must not change a single bit either.
        m.apply(&r, &mut z);
        m.apply(&r, &mut z);
        let zref = apply_columnwise(m, &r);
        assert_identical(&z, &zref, &format!("{what} p={p}"));
    }
}

#[test]
fn jacobi_blocked_matches_columnwise() {
    let prob = poisson2d::<f64>(24, 18);
    check_blocked_matches_columnwise(&Jacobi::new(&prob.a, 0.8), "jacobi f64");
    let probc = poisson2d::<C64>(12, 10);
    check_blocked_matches_columnwise(&Jacobi::new(&probc.a, 0.8), "jacobi C64");
}

#[test]
fn chebyshev_blocked_matches_columnwise() {
    let prob = poisson2d::<f64>(24, 18);
    check_blocked_matches_columnwise(&Chebyshev::new(&prob.a, 3, 30.0), "chebyshev f64");
    let probc = poisson2d::<C64>(12, 10);
    check_blocked_matches_columnwise(&Chebyshev::new(&probc.a, 3, 30.0), "chebyshev C64");
}

#[test]
fn amg_blocked_matches_columnwise() {
    let prob = poisson2d::<f64>(32, 24);
    for (name, opts) in [
        ("chebyshev", AmgOpts::default()),
        (
            "jacobi",
            AmgOpts {
                smoother: SmootherKind::Jacobi {
                    omega: 0.67,
                    iters: 2,
                },
                ..Default::default()
            },
        ),
    ] {
        let amg = Amg::new(&prob.a, prob.near_nullspace.as_ref(), &opts);
        check_blocked_matches_columnwise(&amg, &format!("amg/{name} f64"));
    }
    let probc = poisson2d::<C64>(16, 12);
    let amgc = Amg::new(&probc.a, probc.near_nullspace.as_ref(), &AmgOpts::default());
    check_blocked_matches_columnwise(&amgc, "amg C64");
}

#[test]
fn schwarz_blocked_matches_columnwise() {
    let prob = poisson2d::<f64>(32, 16);
    let part = partition_rcb(&prob.coords, 8);
    for variant in [SchwarzVariant::Asm, SchwarzVariant::Ras] {
        let opts = SchwarzOpts {
            variant,
            overlap: 2,
            ..Default::default()
        };
        let sch = Schwarz::new(&prob.a, &part, &opts);
        check_blocked_matches_columnwise(&sch, &format!("schwarz/{variant:?} f64"));
    }
    let probc = poisson2d::<C64>(16, 12);
    let partc = partition_rcb(&probc.coords, 4);
    let optsc = SchwarzOpts {
        variant: SchwarzVariant::Oras,
        overlap: 1,
        ..Default::default()
    };
    let schc = Schwarz::new(&probc.a, &partc, &optsc);
    check_blocked_matches_columnwise(&schc, "schwarz/Oras C64");
}
