//! The one adapter between the benchmark and the `kryst-*` crates.
//!
//! Every function the benchmark calls in the program is called from this
//! file: problem builders, preconditioner constructors, solver entry points,
//! the traced operator wrappers, the `SpmdWorld` primitives and the kernel
//! probes. A change that alters the program's API (a typed solve report,
//! merged drivers) is followed up here and nowhere else. Other modules use
//! the re-exported data types (`DMat`, `Csr`, `Problem`) only to pass data
//! along.

use crate::check::RawCsr;
use crate::trace::{Layer, Tracer, PRECOND_APPLY, SPMM};
use kryst_core::pseudo::{self, PseudoMethod};
use kryst_core::{gcrodr, gmres, lgmres, OrthPath, OrthScheme, PrecondSide, RecycleStrategy};
use kryst_core::{SolveOpts, SolverContext};
use kryst_obs::{Event, RingRecorder};
use kryst_par::{CommStats, HaloPlan, Layout, PrecondPrecision, SpmdWorld, TransportKind};
use kryst_pde::maxwell::{antenna_ring_rhs, maxwell3d, MaxwellGeom, MaxwellParams};
use kryst_precond::{Amg, AmgOpts, Jacobi, Schwarz, SchwarzOpts, SchwarzVariant, SmootherKind};
use kryst_scalar::Real;
use kryst_sparse::partition::{partition_rcb, Partition};
use kryst_sparse::SparseDirect;
use std::collections::BTreeMap;
use std::sync::Arc;

pub use kryst_dense::DMat;
pub use kryst_obs::json::JsonValue as Json;
pub use kryst_par::{LinOp, PrecondOp};
pub use kryst_pde::elasticity::Inclusion;
pub use kryst_pde::Problem;
pub use kryst_scalar::{Scalar, C64};
pub use kryst_sparse::Csr;

// ---------------------------------------------------------------------------
// Problem builders
// ---------------------------------------------------------------------------

/// The four ν of the paper's Poisson right-hand sides (Fig. 2).
pub const PAPER_NUS: [f64; 4] = kryst_pde::poisson::PAPER_NUS;

pub fn poisson(nx: usize) -> Problem<f64> {
    kryst_pde::poisson::poisson2d(nx, nx)
}

pub fn poisson_rhs(nx: usize, nu: f64) -> DMat<f64> {
    DMat::from_col_major(nx * nx, 1, kryst_pde::poisson::rhs_nu(nx, nx, nu))
}

/// The four spherical inclusions of the elasticity sequence (Fig. 3).
pub fn paper_inclusions() -> [Inclusion; 4] {
    kryst_pde::elasticity::PAPER_INCLUSIONS
}

/// One system of the elasticity sequence and its gravity load.
pub fn elasticity(ne: usize, inc: &Inclusion) -> (Problem<f64>, DMat<f64>) {
    let sys = kryst_pde::elasticity::elasticity3d::<f64>(&kryst_pde::elasticity::ElasticityOpts {
        ne,
        inclusion: Some(*inc),
        ..Default::default()
    });
    let n = sys.rhs.len();
    (sys.problem, DMat::from_col_major(n, 1, sys.rhs))
}

/// The Maxwell chamber with the plastic cylinder (Fig. 8).
pub struct Maxwell {
    pub problem: Problem<C64>,
    geom: MaxwellGeom,
    params: MaxwellParams,
}

pub fn maxwell(nc: usize) -> Maxwell {
    let params = MaxwellParams::with_cylinder(nc);
    let (problem, geom) = maxwell3d(&params);
    Maxwell {
        problem,
        geom,
        params,
    }
}

impl Maxwell {
    /// One right-hand side per antenna of a ring of `nrhs`.
    pub fn antenna_rhs(&self, nrhs: usize, ring_r: f64, ring_z: f64) -> DMat<C64> {
        antenna_ring_rhs(&self.geom, &self.params, nrhs, ring_r, ring_z)
    }
}

// ---------------------------------------------------------------------------
// Preconditioners
// ---------------------------------------------------------------------------

/// Inner Krylov smoother of an AMG cycle (either makes the cycle variable).
#[derive(Debug, Clone, Copy)]
pub enum AmgSmoother {
    Gmres(usize),
    Cg(usize),
}

/// Smoothed-aggregation AMG, strength threshold 0.0, with the problem's
/// near-nullspace (constants for Poisson, rigid-body modes for elasticity).
pub fn amg(problem: &Problem<f64>, smoother: AmgSmoother) -> Amg<f64> {
    Amg::new(
        &problem.a,
        problem.near_nullspace.as_ref(),
        &AmgOpts {
            threshold: 0.0,
            smoother: match smoother {
                AmgSmoother::Gmres(iters) => SmootherKind::Gmres { iters },
                AmgSmoother::Cg(iters) => SmootherKind::Cg { iters },
            },
            ..Default::default()
        },
    )
}

pub fn amg_levels(amg: &Amg<f64>) -> (usize, f64) {
    (amg.nlevels(), amg.operator_complexity())
}

pub fn jacobi<S: Scalar>(a: &Csr<S>) -> Jacobi<S> {
    Jacobi::new(a, 1.0)
}

pub fn partition(coords: &[Vec<f64>], nparts: usize) -> Partition {
    partition_rcb(coords, nparts)
}

/// Row indices of one part, sorted.
pub fn part_rows(partition: &Partition, part: usize) -> Vec<usize> {
    partition.owned_sets().swap_remove(part)
}

/// Optimised restricted additive Schwarz on the Maxwell system.
pub fn oras(m: &Maxwell, partition: &Partition, overlap: usize) -> Schwarz<C64> {
    Schwarz::new(
        &m.problem.a,
        partition,
        &SchwarzOpts {
            variant: SchwarzVariant::Oras,
            overlap,
            impedance: m.params.omega,
        },
    )
}

// ---------------------------------------------------------------------------
// Solver configuration and entry points
// ---------------------------------------------------------------------------

/// The program's communication counters, attached to traced solves.
#[derive(Clone)]
pub struct Counters(Arc<CommStats>);

#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CommCounts {
    pub reductions: u64,
    pub reduce_bytes: u64,
    pub fused_parts: u64,
}

impl Counters {
    #[allow(clippy::new_without_default)]
    pub fn new() -> Self {
        Counters(CommStats::new_shared())
    }

    pub fn read(&self) -> CommCounts {
        let s = self.0.snapshot();
        CommCounts {
            reductions: s.reductions,
            reduce_bytes: s.reduction_bytes,
            fused_parts: s.fused_parts,
        }
    }
}

/// The program's in-memory event recorder, attached for the
/// recorder-overhead repetition.
#[derive(Clone)]
pub struct EventRing(Arc<RingRecorder>);

impl EventRing {
    pub fn new(capacity: usize) -> Self {
        EventRing(Arc::new(RingRecorder::new(capacity)))
    }

    /// Events the ring had to drop; non-zero means the histogram below is
    /// missing the oldest iterations.
    pub fn dropped(&self) -> u64 {
        self.0.dropped()
    }

    /// Reductions recorded by the iteration events, as payload length in
    /// doubles → count. An iteration that made several reductions reports
    /// their total bytes, so each is taken at the iteration's mean size.
    pub fn reduction_sizes(&self) -> BTreeMap<usize, u64> {
        let mut sizes = BTreeMap::new();
        for ev in self.0.events() {
            if let Event::Iteration(it) = ev {
                if let Some(bytes) = it.comm.reduction_bytes.checked_div(it.comm.reductions) {
                    *sizes.entry((bytes / 8).max(1) as usize).or_insert(0) += it.comm.reductions;
                }
            }
        }
        sizes
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Side {
    Right,
    Flexible,
}

/// What a workload asks of a solver. Orthogonalization is CholQR and the
/// deflation eigenproblem strategy A throughout, as in the paper's runs.
#[derive(Clone)]
pub struct Config {
    pub rtol: f64,
    pub restart: usize,
    pub recycle: usize,
    pub max_iters: usize,
    pub side: Side,
    pub same_system: bool,
    pub counters: Option<Counters>,
    pub events: Option<EventRing>,
}

/// A `Config` resolved into the program's option type.
pub struct Opts(SolveOpts);

impl Config {
    /// Build the program's options. Fields the benchmark does not set come
    /// from `SolveOpts::default()`, which reads `KRYST_*` variables: `main`
    /// has removed them, and the assertion below holds the result to the
    /// fused path. Carrier fields are deliberately not named here, so that a
    /// change that removes them does not break this file.
    pub fn resolve(&self) -> Opts {
        let o = SolveOpts {
            rtol: self.rtol,
            max_iters: self.max_iters,
            restart: self.restart,
            recycle: self.recycle,
            side: match self.side {
                Side::Right => PrecondSide::Right,
                Side::Flexible => PrecondSide::Flexible,
            },
            orth: OrthScheme::CholQr,
            recycle_strategy: RecycleStrategy::A,
            same_system: self.same_system,
            stats: self.counters.as_ref().map(|c| c.0.clone()),
            recorder: self
                .events
                .as_ref()
                .map(|e| e.0.clone() as Arc<dyn kryst_obs::Recorder>),
            ..SolveOpts::default()
        };
        assert!(
            o.ortho == OrthPath::Fused,
            "the benchmark measures the fused orthogonalization path, got {}",
            o.ortho.name()
        );
        Opts(o)
    }
}

impl Opts {
    /// The resolved configuration, echoed into the result file.
    pub fn describe(&self) -> Json {
        let o = &self.0;
        Json::obj(vec![
            ("rtol", Json::Num(o.rtol)),
            ("max_iters", Json::Num(o.max_iters as f64)),
            ("restart", Json::Num(o.restart as f64)),
            ("recycle", Json::Num(o.recycle as f64)),
            ("side", Json::Str(format!("{:?}", o.side))),
            ("orth", Json::Str(o.orth.name().into())),
            ("ortho", Json::Str(o.ortho.name().into())),
            (
                "recycle_strategy",
                Json::Str(format!("{:?}", o.recycle_strategy)),
            ),
            ("same_system", Json::Bool(o.same_system)),
        ])
    }
}

fn assert_full_precision<S: Scalar>(pc: &dyn PrecondOp<S>) {
    assert!(
        pc.precision() == PrecondPrecision::Full,
        "the benchmark measures full-precision preconditioners"
    );
}

/// What the program reported about one solve.
#[derive(Debug, Clone, Copy)]
pub struct Outcome {
    pub iterations: usize,
    pub converged: bool,
}

/// A recycle space carried from one GCRO-DR solve to the next.
pub type Recycle<S> = SolverContext<S>;

pub fn recycle<S: Scalar>() -> Recycle<S> {
    SolverContext::new()
}

/// (Block) GMRES, or FGMRES when the side is flexible.
pub fn gmres<S: Scalar>(
    a: &dyn LinOp<S>,
    pc: &dyn PrecondOp<S>,
    b: &DMat<S>,
    x: &mut DMat<S>,
    opts: &Opts,
) -> Outcome {
    assert_full_precision(pc);
    let r = gmres::solve(a, pc, b, x, &opts.0);
    Outcome {
        iterations: r.iterations,
        converged: r.converged,
    }
}

/// (Block) GCRO-DR, recycling through `ctx`.
pub fn gcrodr<S: Scalar>(
    a: &dyn LinOp<S>,
    pc: &dyn PrecondOp<S>,
    b: &DMat<S>,
    x: &mut DMat<S>,
    opts: &Opts,
    ctx: &mut Recycle<S>,
) -> Outcome {
    assert_full_precision(pc);
    let r = gcrodr::solve(a, pc, b, x, &opts.0, ctx);
    Outcome {
        iterations: r.iterations,
        converged: r.converged,
    }
}

/// LGMRES(m, k), single right-hand side.
pub fn lgmres<S: Scalar>(
    a: &dyn LinOp<S>,
    pc: &dyn PrecondOp<S>,
    b: &DMat<S>,
    x: &mut DMat<S>,
    opts: &Opts,
) -> Outcome {
    assert_full_precision(pc);
    let r = lgmres::solve(a, pc, b, x, &opts.0);
    Outcome {
        iterations: r.iterations,
        converged: r.converged,
    }
}

/// Pseudo-block GCRO-DR: one recycle space per right-hand side in `ctxs`.
pub fn pseudo_gcrodr<S: Scalar>(
    a: &dyn LinOp<S>,
    pc: &dyn PrecondOp<S>,
    b: &DMat<S>,
    x: &mut DMat<S>,
    opts: &Opts,
    ctxs: &mut Vec<Recycle<S>>,
) -> Outcome {
    assert_full_precision(pc);
    let r = pseudo::solve(a, pc, b, x, &opts.0, PseudoMethod::GcroDr, Some(ctxs));
    Outcome {
        iterations: r.iterations,
        converged: r.converged,
    }
}

// ---------------------------------------------------------------------------
// Traced operator wrappers
// ---------------------------------------------------------------------------

/// The operator as the solvers see it in a traced run: one span per apply.
pub struct TracedOp<'a, S: Scalar> {
    pub inner: &'a dyn LinOp<S>,
    pub tracer: &'a Tracer,
}

impl<S: Scalar> LinOp<S> for TracedOp<'_, S> {
    fn nrows(&self) -> usize {
        self.inner.nrows()
    }
    fn apply(&self, x: &DMat<S>, y: &mut DMat<S>) {
        let t0 = self.tracer.now_ns();
        self.inner.apply(x, y);
        let t1 = self.tracer.now_ns();
        let bytes = self.inner.bytes_per_apply().unwrap_or(0);
        self.tracer
            .leaf(SPMM, Layer::Sparse, x.ncols(), bytes, t0, t1);
    }
    fn bytes_per_apply(&self) -> Option<usize> {
        self.inner.bytes_per_apply()
    }
}

/// The preconditioner as the solvers see it in a traced run.
pub struct TracedPc<'a, S: Scalar> {
    pub inner: &'a dyn PrecondOp<S>,
    pub tracer: &'a Tracer,
}

impl<S: Scalar> PrecondOp<S> for TracedPc<'_, S> {
    fn nrows(&self) -> usize {
        self.inner.nrows()
    }
    fn apply(&self, r: &DMat<S>, z: &mut DMat<S>) {
        let t0 = self.tracer.now_ns();
        self.inner.apply(r, z);
        let t1 = self.tracer.now_ns();
        let bytes = self.inner.bytes_per_apply().unwrap_or(0);
        self.tracer
            .leaf(PRECOND_APPLY, Layer::Precond, r.ncols(), bytes, t0, t1);
    }
    fn is_variable(&self) -> bool {
        self.inner.is_variable()
    }
    fn precision(&self) -> PrecondPrecision {
        self.inner.precision()
    }
    fn bytes_per_apply(&self) -> Option<usize> {
        self.inner.bytes_per_apply()
    }
}

// ---------------------------------------------------------------------------
// Raw views for the benchmark's own residual check
// ---------------------------------------------------------------------------

fn pair<S: Scalar>(v: S) -> [f64; 2] {
    [v.re().to_f64(), v.im().to_f64()]
}

pub fn raw_csr<S: Scalar>(a: &Csr<S>) -> RawCsr {
    let mut indices = Vec::with_capacity(a.nnz());
    let mut values = Vec::with_capacity(a.nnz());
    for i in 0..a.nrows() {
        indices.extend_from_slice(a.row_indices(i));
        values.extend(a.row_values(i).iter().map(|&v| pair(v)));
    }
    RawCsr {
        indptr: a.indptr().to_vec(),
        indices,
        values,
    }
}

pub fn raw_cols<S: Scalar>(m: &DMat<S>) -> Vec<Vec<[f64; 2]>> {
    (0..m.ncols())
        .map(|j| m.col(j).iter().map(|&v| pair(v)).collect())
        .collect()
}

// ---------------------------------------------------------------------------
// A live socket world of two ranks
// ---------------------------------------------------------------------------

/// Becomes a socket worker and never returns, if this process was spawned
/// as one. `main` calls it before anything else.
pub fn worker_hook() {
    kryst_par::maybe_primitive_worker();
}

pub struct World(SpmdWorld);

impl World {
    /// Worker processes re-execute this binary; they meet over loopback TCP.
    pub fn spawn_socket(nranks: usize) -> Result<World, String> {
        SpmdWorld::spawn(TransportKind::Socket, nranks)
            .map(World)
            .map_err(|e| e.to_string())
    }

    /// Seconds for `reps` all-reduces of `len` doubles.
    pub fn all_reduce_s(&self, len: usize, reps: usize) -> Result<f64, String> {
        let d = self.0.all_reduce(len, reps).map_err(|e| e.to_string())?;
        Ok(d.as_secs_f64())
    }

    /// Seconds for `reps` round trips of `len` doubles between ranks 0 and 1.
    pub fn ping_pong_s(&self, len: usize, reps: usize) -> Result<f64, String> {
        let d = self.0.ping_pong(len, reps).map_err(|e| e.to_string())?;
        Ok(d.as_secs_f64())
    }

    /// Seconds for `reps` halo exchanges of `a` split evenly by rows.
    pub fn halo_s<S: Scalar>(&self, a: &Csr<S>, cols: usize, reps: usize) -> Result<f64, String> {
        let plan = HaloPlan::build(a, &Layout::even(a.nrows(), self.0.nranks()));
        let d = self.0.halo(&plan, cols, reps).map_err(|e| e.to_string())?;
        Ok(d.as_secs_f64())
    }

    /// Stop the workers, wait for them, and return the messages and payload
    /// bytes all ranks sent.
    pub fn shutdown(self) -> Result<(u64, u64), String> {
        let wires = self.0.shutdown().map_err(|e| e.to_string())?;
        Ok(wires
            .iter()
            .fold((0, 0), |(m, b), w| (m + w.msgs_sent, b + w.bytes_sent)))
    }
}

// ---------------------------------------------------------------------------
// Kernel probes
// ---------------------------------------------------------------------------

/// Threads the program's pool uses (`KRYST_THREADS`, set by `main`).
pub fn threads() -> usize {
    kryst_rt::par::max_threads()
}

/// One dispatch of an empty body over `n` indices on the worker pool.
pub fn dispatch_empty(n: usize) {
    kryst_rt::par::for_each_range(n, 0, |_, _| {});
}

/// `VᴴW`, the Gram product of the orthogonalization.
pub fn gram<S: Scalar>(v: &DMat<S>, w: &DMat<S>) -> DMat<S> {
    kryst_dense::blas::adjoint_times(v, w)
}

/// One fused orthogonalization step of `w` against the first `ncols`
/// columns of `v`; returns the passes it took.
pub fn orth_step<S: Scalar>(v: &DMat<S>, ncols: usize, w: &mut DMat<S>) -> usize {
    kryst_dense::gs::fused_orthogonalize_block(None, v, ncols, w, false, f64::EPSILON).passes
}

pub fn cholqr<S: Scalar>(w: &mut DMat<S>) {
    kryst_dense::chol::cholqr(w);
}

/// The recycle refresh's generalized eigenproblem `T·z = θ·W·z`.
pub fn eig_generalized<S: Scalar>(t: &DMat<S>, w: &DMat<S>) -> bool {
    kryst_dense::eig::eig_generalized(t, w).converged
}

/// The banded direct factor of a principal submatrix, as the Schwarz
/// preconditioner builds one per subdomain.
pub struct Factor<S>(SparseDirect<S>);

pub fn factor_rows<S: Scalar>(a: &Csr<S>, rows: &[usize]) -> Option<Factor<S>> {
    SparseDirect::factor(&a.principal_submatrix(rows)).map(Factor)
}

impl<S: Scalar> Factor<S> {
    pub fn n(&self) -> usize {
        self.0.n()
    }

    /// Forward and backward sweeps on all columns of `b`, in place, with the
    /// tile width and thread count the Schwarz apply uses.
    pub fn solve(&self, b: &mut DMat<S>, scratch: &mut DMat<S>) {
        self.0.solve_in_place_ws(b, scratch, 8, 1);
    }
}
