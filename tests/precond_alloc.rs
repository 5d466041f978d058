//! Steady-state preconditioner applies perform **zero heap allocations**.
//!
//! A counting global allocator wraps the system allocator; after a few
//! warm-up applies (which populate the internal workspace pools) every
//! further apply of every preconditioner must leave the allocation counter
//! untouched. Runs pinned to `KRYST_THREADS=1`: the worker-pool dispatch
//! path allocates its job handle, which is a per-dispatch cost independent
//! of the preconditioners under test here.
//!
//! Everything lives in a single `#[test]` so the thread-count pin happens
//! before the first kernel call in this binary.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

struct CountingAlloc;

static ALLOC_CALLS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

use kryst_dense::DMat;
use kryst_par::{LinOp, PrecondOp};
use kryst_pde::poisson::poisson2d;
use kryst_precond::{
    Amg, AmgOpts, Chebyshev, Jacobi, Schwarz, SchwarzOpts, SchwarzVariant, SmootherKind,
};
use kryst_sparse::partition::partition_rcb;

fn assert_zero_alloc_linop(op: &dyn LinOp<f64>, p: usize, what: &str) {
    let n = op.nrows();
    let x = DMat::from_fn(n, p, |i, j| (((i * 7 + j * 13) % 19) as f64) - 9.0);
    let mut y = DMat::zeros(n, p);
    for _ in 0..3 {
        op.apply(&x, &mut y);
    }
    let before = ALLOC_CALLS.load(Ordering::Relaxed);
    for _ in 0..5 {
        op.apply(&x, &mut y);
    }
    let delta = ALLOC_CALLS.load(Ordering::Relaxed) - before;
    assert_eq!(
        delta, 0,
        "{what} p={p}: {delta} allocations across 5 steady-state applies"
    );
}

fn assert_zero_alloc(m: &dyn PrecondOp<f64>, p: usize, what: &str) {
    let n = m.nrows();
    let r = DMat::from_fn(n, p, |i, j| (((i * 7 + j * 13) % 19) as f64) - 9.0);
    let mut z = DMat::zeros(n, p);
    // Warm up: first applies grow the workspace pools to their fixed point.
    for _ in 0..3 {
        m.apply(&r, &mut z);
    }
    let before = ALLOC_CALLS.load(Ordering::Relaxed);
    for _ in 0..5 {
        m.apply(&r, &mut z);
    }
    let delta = ALLOC_CALLS.load(Ordering::Relaxed) - before;
    assert_eq!(
        delta, 0,
        "{what} p={p}: {delta} allocations across 5 steady-state applies"
    );
}

#[test]
fn steady_state_applies_do_not_allocate() {
    // Pin the pool to one thread before anything touches it (dispatching to
    // the pool allocates a job handle; the serial path must not).
    std::env::set_var("KRYST_THREADS", "1");

    let prob = poisson2d::<f64>(32, 24);
    let a = &prob.a;

    let jacobi = Jacobi::new(a, 0.8);
    let chebyshev = Chebyshev::new(a, 3, 30.0);
    let amg = Amg::new(a, prob.near_nullspace.as_ref(), &AmgOpts::default());
    // Inner Krylov smoothers: the Arnoldi basis, the small QR and the CG
    // vectors all live in the hierarchy's scratch.
    let krylov_amg = |smoother| {
        Amg::new(
            a,
            prob.near_nullspace.as_ref(),
            &AmgOpts {
                smoother,
                ..Default::default()
            },
        )
    };
    let amg_gmres = krylov_amg(SmootherKind::Gmres { iters: 3 });
    let amg_cg = krylov_amg(SmootherKind::Cg { iters: 4 });
    let part = partition_rcb(&prob.coords, 8);
    let asm = Schwarz::new(
        a,
        &part,
        &SchwarzOpts {
            variant: SchwarzVariant::Asm,
            overlap: 2,
            ..Default::default()
        },
    );
    let ras = Schwarz::new(
        a,
        &part,
        &SchwarzOpts {
            variant: SchwarzVariant::Ras,
            overlap: 2,
            ..Default::default()
        },
    );

    for p in [1usize, 4, 8] {
        assert_zero_alloc(&jacobi, p, "jacobi");
        assert_zero_alloc(&chebyshev, p, "chebyshev");
        assert_zero_alloc(&amg, p, "amg");
        assert_zero_alloc(&amg_gmres, p, "amg/gmres(3)");
        assert_zero_alloc(&amg_cg, p, "amg/cg(4)");
        assert_zero_alloc(&asm, p, "schwarz/asm");
        assert_zero_alloc(&ras, p, "schwarz/ras");
        assert_zero_alloc_linop(a, p, "csr");
    }
}
