//! After its first cycle, a solve's Arnoldi process allocates **nothing of
//! the size of a vector**.
//!
//! `BlockArnoldi::step` works in place — the operator writes where the next
//! basis block lives, a right preconditioner where its direction block
//! lives — and the basis, the directions, the Hessenberg matrix and its QR
//! are handed from cycle to cycle in `CycleBuffers`. A counting global
//! allocator records every allocation of `n · size_of::<f64>()` bytes or
//! more; across a restart and a whole second cycle there must be none.
//! (Small allocations remain: the `p × p` factors, one Hessenberg column,
//! the residual-norm vector.)
//!
//! The same holds for what the drivers do *between* two cycles, which reads
//! the basis blocks where the cycle left them: an LGMRES restart allocates
//! the storage of its pairs once, a GCRO-DR restart and refresh the pair the
//! first refresh of a solve builds (every later one reuses the pair it
//! replaced), and nothing of that size after — neither there, nor in the
//! true residual computed after the restart span closes, nor in the first
//! step of the next cycle. The windows are cut out of a whole solve by a
//! recorder that notes the counter at every span and iteration event.
//!
//! The complex block path holds to the same: a `C64` GCRO-DR solve at
//! `p = 8` with a recycle space allocates nothing of that size in a step,
//! restart or refresh once its first refresh is done — the fused sweeps
//! keep their partial sums in registers, not in a per-call array.
//!
//! A pseudo-block solve runs its lanes in lock-step, one batched operator
//! apply per step: once its first cycle has sized the batches, no lock-step
//! allocates a vector either, restarts and batched true residuals included.
//!
//! Everything lives in a single `#[test]`: the counter is process-wide.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

struct CountingAlloc;

/// Allocations of at least this many bytes are counted (`usize::MAX`: off).
static THRESHOLD: AtomicUsize = AtomicUsize::new(usize::MAX);
static BIG_ALLOCS: AtomicUsize = AtomicUsize::new(0);

fn note(size: usize) {
    if size >= THRESHOLD.load(Ordering::Relaxed) {
        BIG_ALLOCS.fetch_add(1, Ordering::Relaxed);
    }
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc_zeroed(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

use kryst_core::cycle::{BlockArnoldi, CycleBuffers, PrecondMode};
use kryst_core::pseudo::{self, PseudoMethod};
use kryst_core::{gcrodr, lgmres, PrecondSide, SolveOpts, SolverContext};
use kryst_dense::{blas, chol, DMat, C64};
use kryst_obs::{Event, Recorder, SpanKind};
use kryst_precond::Jacobi;
use kryst_sparse::{Coo, Csr};
use std::sync::{Arc, Mutex};

/// A tridiagonal `(−1, 2 + (i mod 5)/10, −1)`: a 1-D Laplacian whose
/// diagonal varies, so point Jacobi is not a multiple of the identity.
fn varying_tridiag(n: usize) -> Csr<f64> {
    let mut c = Coo::new(n, n);
    for i in 0..n {
        c.push(i, i, 2.0 + (i % 5) as f64 * 0.1);
        if i > 0 {
            c.push(i, i - 1, -1.0);
            c.push(i - 1, i, -1.0);
        }
    }
    c.to_csr()
}

/// [`varying_tridiag`] with a complex shift on the diagonal,
/// `(−1, 2 + (i mod 5)/10 + 0.3i, −1)`.
fn varying_tridiag_c64(n: usize) -> Csr<C64> {
    let mut c = Coo::new(n, n);
    for i in 0..n {
        c.push(i, i, C64::new(2.0 + (i % 5) as f64 * 0.1, 0.3));
        if i > 0 {
            c.push(i, i - 1, C64::new(-1.0, 0.0));
            c.push(i - 1, i, C64::new(-1.0, 0.0));
        }
    }
    c.to_csr()
}

/// Big allocations made by `f`.
fn big_allocs(n: usize, f: impl FnOnce()) -> usize {
    let before = BIG_ALLOCS.load(Ordering::Relaxed);
    THRESHOLD.store(n * std::mem::size_of::<f64>(), Ordering::Relaxed);
    f();
    THRESHOLD.store(usize::MAX, Ordering::Relaxed);
    BIG_ALLOCS.load(Ordering::Relaxed) - before
}

/// Notes the big-allocation counter at the end of every span of a solve
/// (`Some(kind)`) and at every iteration event (`None`).
#[derive(Default)]
struct SpanMarks(Mutex<Vec<(Option<SpanKind>, usize)>>);

impl Recorder for SpanMarks {
    fn record(&self, ev: &Event) {
        let kind = match ev {
            Event::Span(span) => Some(span.kind),
            Event::Iteration(_) => None,
            _ => return,
        };
        let mark = (kind, BIG_ALLOCS.load(Ordering::Relaxed));
        self.0.lock().expect("no panic under the lock").push(mark);
    }
}

impl SpanMarks {
    /// Big allocations from the end of each cycle that a restart (and
    /// recycle refresh) follows to the end of the next cycle's first step:
    /// the restart, the true residual after it, the refresh and one step.
    /// An iteration event is flushed by the step after it, so the first one
    /// recorded after the restart marks the end of that step. After the
    /// last cycle the window ends with its restart or refresh.
    fn between_cycles(&self) -> Vec<usize> {
        let marks = self.0.lock().expect("no panic under the lock");
        let ends: Vec<usize> = (0..marks.len())
            .filter(|&i| marks[i].0 == Some(SpanKind::Cycle))
            .chain([marks.len()])
            .collect();
        ends.windows(2)
            .filter_map(|w| {
                let cut = &marks[w[0]..w[1]];
                let last = cut.iter().rposition(|m| {
                    matches!(m.0, Some(SpanKind::Restart | SpanKind::RecycleRefresh))
                })?;
                let end = cut[last..]
                    .iter()
                    .find(|m| m.0.is_none())
                    .unwrap_or(&cut[last]);
                Some(end.1 - cut[0].1)
            })
            .collect()
    }
}

/// The restart path of the drivers: LGMRES(6, 2) and GCRO-DR(6, 2) on a
/// problem large enough that the refresh's small dense matrices stay under
/// the size of a vector. GCRO-DR runs on [`varying_tridiag`] and on the
/// plain 1-D Laplacian, where the right-hand sides (shifts of one
/// 11-periodic pattern) make the `p = 8` block collapse in rank: CholQR's
/// rank-revealing fix-up then replaces columns in place, and allocates no
/// vector either.
fn restarts_allocate_their_storage_once() {
    let n = 20_000;
    let a = varying_tridiag(n);
    let jac = Jacobi::new(&a, 1.0);
    let opts = |max_iters, marks: &Arc<SpanMarks>| SolveOpts {
        rtol: 1e-14,
        restart: 6,
        recycle: 2,
        max_iters,
        side: PrecondSide::Right,
        recorder: Some(marks.clone() as Arc<dyn Recorder>),
        ..Default::default()
    };
    let rhs = |p: usize| DMat::from_fn(n, p, |i, j| ((i * 3 + j * 7) % 11) as f64 - 5.0);

    let marks = Arc::new(SpanMarks::default());
    let (b, mut x) = (rhs(1), DMat::zeros(n, 1));
    big_allocs(n, || {
        lgmres::solve(&a, &jac, &b, &mut x, &opts(30, &marks));
    });
    let restarts = marks.between_cycles();
    assert!(restarts.len() >= 4, "LGMRES restarts seen: {restarts:?}");
    assert!(
        restarts[0] >= 2,
        "the first restart makes room for the pairs"
    );
    assert!(
        restarts[1..].iter().all(|&big| big == 0),
        "LGMRES restarts after the first allocated a vector: {restarts:?}"
    );

    let laplace = kryst_pde::poisson::laplace1d(n);
    let laplace_jac = Jacobi::new(&laplace, 1.0);
    for (name, a, jac) in [
        ("varying_tridiag", &a, &jac),
        ("laplace1d", &laplace, &laplace_jac),
    ] {
        for p in [1usize, 8] {
            let marks = Arc::new(SpanMarks::default());
            let (b, mut x) = (rhs(p), DMat::zeros(n, p));
            let mut ctx = SolverContext::new();
            big_allocs(n, || {
                gcrodr::solve(a, jac, &b, &mut x, &opts(22, &marks), &mut ctx);
            });
            // The first cycle (plain GMRES, no restart span) is not a window;
            // the deflated cycles after it are.
            let refreshes = marks.between_cycles();
            assert!(
                refreshes.len() >= 3,
                "{name}, p={p}: refreshes seen: {refreshes:?}"
            );
            assert_eq!(
                refreshes[0], 2,
                "{name}, p={p}: the first refresh builds one new pair: {refreshes:?}"
            );
            assert!(
                refreshes[1..].iter().all(|&big| big == 0),
                "{name}, p={p}: GCRO-DR restart + refresh allocated a vector: {refreshes:?}"
            );
        }
    }
}

/// Block GCRO-DR(2, 2) at `p = 8` on a complex operator of `n = 1200`
/// rows: once the first refresh has built its pair, neither a step (the
/// Gram sweep against the recycle space and the basis included) nor a
/// restart and refresh allocates anything of `n · 8` bytes. The restart
/// length keeps the refresh's dense matrices under that size, so what is
/// counted is the tall work alone.
fn complex_block_steps_allocate_nothing() {
    let (n, p) = (1200, 8);
    let a = varying_tridiag_c64(n);
    let jac = Jacobi::new(&a, 1.0);
    let b = DMat::from_fn(n, p, |i, j| {
        C64::new(
            ((i * 3 + j * 7) % 11) as f64 - 5.0,
            ((i + 2 * j) % 7) as f64 - 3.0,
        )
    });
    let marks = Arc::new(SpanMarks::default());
    let opts = SolveOpts {
        rtol: 1e-14,
        restart: 2,
        recycle: 2,
        max_iters: 24,
        side: PrecondSide::Right,
        recorder: Some(marks.clone() as Arc<dyn Recorder>),
        ..Default::default()
    };
    let mut x = DMat::zeros(n, p);
    let mut ctx = SolverContext::new();
    big_allocs(n, || {
        gcrodr::solve(&a, &jac, &b, &mut x, &opts, &mut ctx);
    });
    let refreshes = marks.between_cycles();
    let marks = marks.0.lock().expect("no panic under the lock");
    let steps: Vec<usize> = marks
        .iter()
        .filter(|m| m.0.is_none())
        .map(|m| m.1)
        .collect();
    let grown: Vec<usize> = steps.windows(2).map(|w| w[1] - w[0]).collect();
    assert!(refreshes.len() >= 4, "refreshes seen: {refreshes:?}");
    assert_eq!(
        refreshes[0], 2,
        "C64 p=8: the first refresh builds one new pair: {refreshes:?}"
    );
    assert!(
        refreshes[1..].iter().all(|&big| big == 0),
        "C64 p=8: GCRO-DR restart + refresh allocated a vector: {refreshes:?}"
    );
    assert!(
        grown[2..].iter().all(|&big| big == 0),
        "C64 p=8: a step allocated a vector: {grown:?}"
    );
}

/// Pseudo-block GMRES(6) and GCRO-DR(6, 2) over three lanes: the big
/// allocations between two iteration events, which lie one lock-step
/// apart, are none once the first cycle and the refresh after it are done.
fn lock_steps_allocate_nothing() {
    let n = 20_000;
    let a = varying_tridiag(n);
    let jac = Jacobi::new(&a, 1.0);
    let b = DMat::from_fn(n, 3, |i, j| ((i * 3 + j * 7) % 11) as f64 - 5.0);
    for method in [PseudoMethod::Gmres, PseudoMethod::GcroDr] {
        let marks = Arc::new(SpanMarks::default());
        let opts = SolveOpts {
            rtol: 1e-14,
            restart: 6,
            recycle: 2,
            max_iters: 30,
            recorder: Some(marks.clone() as Arc<dyn Recorder>),
            ..Default::default()
        };
        let mut x = DMat::zeros(n, 3);
        big_allocs(n, || {
            pseudo::solve(&a, &jac, &b, &mut x, &opts, method, None);
        });
        let marks = marks.0.lock().expect("no panic under the lock");
        let steps: Vec<usize> = marks
            .iter()
            .filter(|m| m.0.is_none())
            .map(|m| m.1)
            .collect();
        assert_eq!(steps.len(), 30, "{method:?}");
        let grown: Vec<usize> = steps.windows(2).map(|w| w[1] - w[0]).collect();
        assert!(
            grown[..6].iter().any(|&big| big > 0),
            "{method:?}: {grown:?}"
        );
        assert!(
            grown[12..].iter().all(|&big| big == 0),
            "{method:?}: a lock-step allocated a vector: {grown:?}"
        );
    }
}

#[test]
fn step_and_restart_allocate_no_vector_after_the_first_cycle() {
    std::env::set_var("KRYST_THREADS", "1");
    restarts_allocate_their_storage_once();
    complex_block_steps_allocate_nothing();
    lock_steps_allocate_nothing();
    let n = 3000;
    let m = 5;
    let a = varying_tridiag(n);
    let jac = Jacobi::new(&a, 1.0);
    let mut c = DMat::from_fn(n, 3, |i, j| ((i * 7 + j * 3) % 13) as f64 - 6.0);
    let _ = chol::cholqr(&mut c);
    for p in [1usize, 8] {
        for with_c in [false, true] {
            for side in [PrecondSide::Right, PrecondSide::Flexible] {
                let case = format!("p={p} recycle={with_c} side={side:?}");
                let mode = PrecondMode::new(&jac, side);
                let c_proj = with_c.then_some(&c);
                // Two residual blocks, projected off C like GCRO-DR does.
                let residual = |salt: usize| {
                    let mut r =
                        DMat::from_fn(n, p, |i, j| ((i * 3 + j * 7 + salt) % 11) as f64 - 5.0);
                    if let Some(c) = c_proj {
                        let coef = blas::adjoint_times(c, &r);
                        blas::gemm(-1.0, c, blas::Op::None, &coef, blas::Op::None, 1.0, &mut r);
                    }
                    r
                };
                let (r0, r1) = (residual(0), residual(4));
                let cycle = |r: &DMat<f64>, bufs: CycleBuffers<f64>| {
                    let mut arn =
                        BlockArnoldi::new(&a, &mode, m, p, c_proj, None).with_buffers(bufs);
                    arn.start(r);
                    let mut last = Vec::new();
                    while arn.can_step() {
                        last = arn.step();
                    }
                    (last, arn.into_buffers())
                };
                let mut bufs = CycleBuffers::default();
                let first = big_allocs(n, || (_, bufs) = cycle(&r0, std::mem::take(&mut bufs)));
                assert!(first > m, "{case}: the first cycle allocates its storage");
                let mut res = Vec::new();
                let again = big_allocs(n, || (res, bufs) = cycle(&r1, std::mem::take(&mut bufs)));
                assert_eq!(again, 0, "{case}: restart + {m} steps allocated a vector");
                assert!(res.iter().all(|r| r.is_finite()), "{case}");
                drop(bufs);
            }
        }
    }
}
