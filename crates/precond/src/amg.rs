//! Smoothed-aggregation algebraic multigrid — the GAMG stand-in.
//!
//! Mirrors the knobs the paper turns on PETSc's GAMG:
//!
//! * [`AmgOpts::threshold`] ⟷ `-pc_gamg_threshold` (strength-of-connection
//!   edge dropping; higher = cheaper, weaker hierarchy — the §IV-B trade-off),
//! * [`SmootherKind`] ⟷ `-mg_levels_ksp_type` (`gmres`/`cg` make the cycle
//!   **nonlinear**, forcing flexible outer solvers; `chebyshev`/`jacobi` keep
//!   it linear),
//! * near-nullspace vectors ⟷ `MatSetNearNullSpace` (rigid-body modes for
//!   elasticity, constants for Poisson).

use crate::chebyshev::Chebyshev;
use crate::jacobi::Jacobi;
use crate::smoother::{self, KrylovScratch};
use kryst_dense::{qr::HouseholderQr, DMat};
use kryst_obs::{traced, SpanKind};
use kryst_par::collective::{redistribute, subset_layout};
use kryst_par::{Layout, PrecondOp, Transport, TransportError};
use kryst_rt::par::{for_each_range, map_range, max_threads};
use kryst_scalar::{Real, Scalar};
use kryst_sparse::{ops, Csr, PrecondWorkspace, SparseDirect};
use std::sync::Mutex;

/// Which smoother runs on each level.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SmootherKind {
    /// Damped point Jacobi (`omega`, sweeps).
    Jacobi {
        /// Damping factor.
        omega: f64,
        /// Sweeps per pre/post smoothing.
        iters: usize,
    },
    /// Chebyshev polynomial of the given degree (linear smoother).
    Chebyshev {
        /// Polynomial degree.
        degree: usize,
    },
    /// `iters` inner GMRES steps (nonlinear ⇒ variable preconditioner).
    Gmres {
        /// Inner iterations.
        iters: usize,
    },
    /// `iters` inner CG steps (nonlinear ⇒ variable preconditioner).
    Cg {
        /// Inner iterations.
        iters: usize,
    },
}

/// AMG setup options.
#[derive(Debug, Clone, Copy)]
pub struct AmgOpts {
    /// Strength threshold: drop `|a_ij| ≤ threshold·√(a_ii·a_jj)` from the
    /// aggregation graph.
    pub threshold: f64,
    /// Maximum number of levels.
    pub max_levels: usize,
    /// Stop coarsening below this size (direct solve there).
    pub coarse_size: usize,
    /// Smoother on every level.
    pub smoother: SmootherKind,
    /// Prolongator damping numerator (`ω = damping/λ_max`); 4/3 is standard.
    pub damping: f64,
    /// Agglomerate the modeled coarse solve when the coarse operator has at
    /// most this many rows (GAMG-style process reduction: gather the coarse
    /// problem onto a rank subset instead of solving it serially on every
    /// rank). `0` disables agglomeration entirely.
    pub agglom_threshold: usize,
    /// Target coarse rows per participating rank when agglomerating; the
    /// subset size is `⌈coarse_n / agglom_rows_per_rank⌉` rounded up to a
    /// power of two and capped by the modeled rank count.
    pub agglom_rows_per_rank: usize,
}

impl Default for AmgOpts {
    fn default() -> Self {
        Self {
            threshold: 0.0,
            max_levels: 10,
            coarse_size: 64,
            smoother: SmootherKind::Chebyshev { degree: 2 },
            damping: 4.0 / 3.0,
            agglom_threshold: 4096,
            agglom_rows_per_rank: 32,
        }
    }
}

enum LevelSmoother<S: Scalar> {
    Jacobi(Jacobi<S>, usize),
    Chebyshev(Chebyshev<S>),
    Gmres(usize),
    Cg(usize),
}

struct Level<S: Scalar> {
    a: Csr<S>,
    /// Prolongator to THIS level from the next-coarser one (absent on the
    /// coarsest level).
    p: Option<Csr<S>>,
    pt: Option<Csr<S>>,
    smoother: LevelSmoother<S>,
}

/// The assembled multigrid hierarchy.
pub struct Amg<S: Scalar> {
    levels: Vec<Level<S>>,
    coarse: CoarseSolve<S>,
    variable: bool,
    n: usize,
    /// Agglomeration sizing rule, kept from [`AmgOpts`] for
    /// [`Amg::coarse_agglom`].
    agglom_rows_per_rank: usize,
    /// After one warm-up cycle every V-cycle apply draws all its level
    /// vectors from here and allocates nothing.
    ws: Mutex<CycleScratch<S>>,
}

/// What a V-cycle draws its temporaries from: the per-level vector pool and
/// the one Krylov-smoother scratch all levels share (empty for the linear
/// smoothers).
struct CycleScratch<S> {
    pool: PrecondWorkspace<S>,
    krylov: KrylovScratch<S>,
}

/// Coarse-level direct solve, fully resolved at setup: the factor to use
/// (of the coarse operator, or of a diagonally shifted copy when the
/// operator is numerically singular) plus the already-decided policy bits.
/// The per-V-cycle apply path just calls `f.solve_in_place_ws` — no
/// per-apply fallback checks remain.
struct CoarseSolve<S: Scalar> {
    f: SparseDirect<S>,
    /// The factor is of the regularized (shifted) operator.
    regularized: bool,
    /// Agglomeration policy fired for this coarse size:
    /// [`Amg::coarse_agglom`] returns a redistribution model.
    agglomerated: bool,
}

/// Modeled agglomeration of the coarse-level solve onto a rank subset.
///
/// In the SPMD model every rank holds the full coarse factor and solves it
/// redundantly — the coarse solve is a *serial* term on the critical path
/// that does not shrink with `P`. Agglomeration instead gathers the coarse
/// right-hand side from the all-ranks [`Layout`] onto a small subset,
/// solves there, and scatters the correction back; the descriptor carries
/// the subset layout and the modeled gather/scatter traffic so the cost
/// model can charge the redistribution honestly.
#[derive(Debug, Clone)]
pub struct CoarseAgglom {
    /// Coarse operator size.
    pub coarse_n: usize,
    /// Total ranks in the modeled run.
    pub ranks: usize,
    /// Participating subset size (`≤ ranks`, power of two).
    pub subset: usize,
    /// Ownership of coarse rows over the subset ranks.
    pub layout: Layout,
    /// Point-to-point messages moving coarse RHS rows onto the subset
    /// (rows already on a subset rank that keeps them don't move).
    pub gather_msgs: usize,
    /// Bytes moved by the gather (per solve column).
    pub gather_bytes: usize,
    /// Messages scattering the coarse correction back (mirror of gather).
    pub scatter_msgs: usize,
    /// Bytes moved by the scatter (per solve column).
    pub scatter_bytes: usize,
    /// Modeled substitution flops of the banded coarse solve, per column —
    /// paid once on the subset instead of redundantly on every rank.
    pub solve_flops: usize,
}

impl CoarseAgglom {
    /// Execute the gather → subset solve → scatter over a real [`Transport`]
    /// point-to-point path, as the calling endpoint's rank: gather this
    /// rank's coarse RHS rows (`local_rows`, the [`Layout::even`] share) onto
    /// the subset, run `solve` in place on ranks that received rows, and
    /// scatter the correction back. Returns this rank's corrected rows.
    ///
    /// The row movement is exactly the modeled `gather_msgs`/`gather_bytes`
    /// traffic (for 8-byte scalars), so measured wire counters and the
    /// [`CoarseAgglom`] charge coincide — asserted by
    /// `tests/transport_equivalence.rs`.
    pub fn execute<T: Transport + ?Sized>(
        &self,
        t: &T,
        local_rows: &[f64],
        solve: impl FnOnce(&mut [f64]),
    ) -> Result<Vec<f64>, TransportError> {
        let src = Layout::even(self.coarse_n, self.ranks);
        let dst = subset_layout(self.coarse_n, self.ranks, self.subset);
        // Local (per-rank) spans around the three stages; the nested
        // redistribute calls emit the collective-edge spans that carry wire
        // deltas and align clocks, so these stay seq-less to avoid counting
        // the same edge twice.
        let mut gathered = Vec::new();
        let sp = kryst_obs::span::begin(SpanKind::CoarseGather);
        redistribute(t, &src, &dst, local_rows, &mut gathered)?;
        kryst_obs::span::end(sp, 0, 0, gathered.len() as u64);
        let sp = kryst_obs::span::begin(SpanKind::CoarseSolve);
        if !gathered.is_empty() {
            solve(&mut gathered);
        }
        kryst_obs::span::end(sp, 0, 0, gathered.len() as u64);
        let mut out = Vec::new();
        let sp = kryst_obs::span::begin(SpanKind::CoarseScatter);
        redistribute(t, &dst, &src, &gathered, &mut out)?;
        kryst_obs::span::end(sp, 0, 0, out.len() as u64);
        Ok(out)
    }
}

impl<S: Scalar> Amg<S> {
    /// Build the hierarchy for `a` with near-nullspace `b` (defaults to the
    /// constant vector when `None`). All matrices are stored in `S`.
    pub fn new(a: &Csr<S>, near_nullspace: Option<&DMat<S>>, opts: &AmgOpts) -> Self {
        let _t = traced(SpanKind::PrecondSetup);
        let n = a.nrows();
        let default_ns = DMat::from_fn(n, 1, |_, _| S::one());
        let mut b = near_nullspace.cloned().unwrap_or(default_ns);
        let mut levels: Vec<Level<S>> = Vec::new();
        let mut acur = a.clone();
        while levels.len() + 1 < opts.max_levels && acur.nrows() > opts.coarse_size {
            // One diagonal scan per level, shared by the strength test, the
            // prolongator smoothing, and the level smoother setup.
            let diag = acur.diag();
            let (ptent, bc) = tentative_prolongator(&acur, &b, opts.threshold, &diag);
            if ptent.ncols() >= acur.nrows() || ptent.ncols() == 0 {
                break; // aggregation stalled
            }
            let p = smooth_prolongator(&acur, &ptent, opts.damping, &diag);
            let pt = p.transpose();
            let ac = ops::galerkin_rap(&acur, &p, &pt);
            let smoother_impl = make_smoother(&acur, &diag, &opts.smoother);
            levels.push(Level {
                a: acur,
                p: Some(p),
                pt: Some(pt),
                smoother: smoother_impl,
            });
            acur = ac;
            b = bc;
        }
        // Coarsest level: direct solve, resolved ONCE here — singularity
        // fallback (regularized factor) and the agglomeration policy are
        // both decided at setup so the per-V-cycle path is branch-free.
        let (factor, regularized) = match SparseDirect::factor(&acur) {
            Some(f) => (f, false),
            None => {
                let shift =
                    S::from_real(acur.inf_norm() * S::Real::epsilon() * S::Real::from_f64(1e6));
                let reg = acur.shift_diag(shift);
                (
                    SparseDirect::factor(&reg).expect("regularized coarse factor"),
                    true,
                )
            }
        };
        let coarse = CoarseSolve {
            f: factor,
            regularized,
            agglomerated: opts.agglom_threshold > 0 && acur.nrows() <= opts.agglom_threshold,
        };
        let coarse_diag = acur.diag();
        let smoother_impl = make_smoother(&acur, &coarse_diag, &opts.smoother);
        levels.push(Level {
            a: acur,
            p: None,
            pt: None,
            smoother: smoother_impl,
        });
        let variable = matches!(
            opts.smoother,
            SmootherKind::Gmres { .. } | SmootherKind::Cg { .. }
        );
        Self {
            levels,
            coarse,
            variable,
            n,
            agglom_rows_per_rank: opts.agglom_rows_per_rank,
            ws: Mutex::new(CycleScratch {
                pool: PrecondWorkspace::new(),
                krylov: match opts.smoother {
                    SmootherKind::Gmres { iters } => KrylovScratch::gmres(n, iters),
                    SmootherKind::Cg { .. } => KrylovScratch::cg(n),
                    _ => KrylovScratch::gmres(0, 0),
                },
            }),
        }
    }

    /// Number of levels (including the coarsest).
    pub fn nlevels(&self) -> usize {
        self.levels.len()
    }

    /// Unknown count on every level, finest first.
    pub fn level_sizes(&self) -> Vec<usize> {
        self.levels.iter().map(|l| l.a.nrows()).collect()
    }

    /// The restriction `Pᵀ` from level `l` to level `l + 1` (`None` on the
    /// coarsest level), for kernel benchmarks of its row shape.
    pub fn restriction(&self, l: usize) -> Option<&Csr<S>> {
        self.levels.get(l)?.pt.as_ref()
    }

    /// Operator complexity: `Σ nnz(A_l) / nnz(A_0)` — the standard AMG cost
    /// metric (higher threshold ⇒ lower complexity ⇒ cheaper cycles).
    pub fn operator_complexity(&self) -> f64 {
        let n0 = self.levels[0].a.nnz() as f64;
        self.levels.iter().map(|l| l.a.nnz() as f64).sum::<f64>() / n0
    }

    /// Coarsest-level solve of the V-cycle: the factor was
    /// resolved at setup (regularization already folded in), so this is a
    /// straight multi-RHS substitution.
    fn coarse_solve_ws(
        &self,
        l: usize,
        b: &DMat<S>,
        x: &mut DMat<S>,
        ws: &mut PrecondWorkspace<S>,
    ) {
        let _t = traced(SpanKind::PrecondLevel(l));
        let mut scratch = ws.take(b.nrows(), b.ncols());
        x.copy_from(b);
        self.coarse.f.solve_in_place_ws(x, &mut scratch, 8, 1);
        ws.put(scratch);
    }

    /// The coarse operator was numerically singular and the direct solve
    /// runs on a diagonally shifted copy (decided once at setup).
    pub fn coarse_regularized(&self) -> bool {
        self.coarse.regularized
    }

    /// Coarse operator size (rows on the coarsest level).
    pub fn coarse_n(&self) -> usize {
        self.levels.last().map(|l| l.a.nrows()).unwrap_or(0)
    }

    /// Redistribution model for the agglomerated coarse solve at `ranks`
    /// modeled ranks, or `None` when the policy does not fire (single rank,
    /// agglomeration disabled, or the coarse problem above the threshold).
    ///
    /// Subset rule: `⌈coarse_n / agglom_rows_per_rank⌉` rounded up to a
    /// power of two, capped at `ranks`. Gather traffic is the exact row
    /// movement between [`Layout::even`]`(coarse_n, ranks)` and
    /// [`Layout::even`]`(coarse_n, subset)` (rows staying on the same
    /// physical rank are free); the scatter mirrors it.
    pub fn coarse_agglom(&self, ranks: usize) -> Option<CoarseAgglom> {
        if ranks <= 1 || !self.coarse.agglomerated {
            return None;
        }
        let coarse_n = self.coarse.f.n();
        let per = self.agglom_rows_per_rank.max(1);
        let subset = coarse_n.div_ceil(per).next_power_of_two().min(ranks).max(1);
        let src = Layout::even(coarse_n, ranks);
        let dst = Layout::even(coarse_n, subset);
        let sz = std::mem::size_of::<S>();
        let mut gather_msgs = 0usize;
        let mut gather_bytes = 0usize;
        for r in 0..ranks {
            let range = src.range(r);
            if range.is_empty() {
                continue;
            }
            let d0 = dst.rank_of(range.start);
            let d1 = dst.rank_of(range.end - 1);
            for d in d0..=d1 {
                if d == r {
                    continue; // rows that stay on the same physical rank
                }
                let dr = dst.range(d);
                let rows = range.end.min(dr.end) - range.start.max(dr.start);
                if rows > 0 {
                    gather_msgs += 1;
                    gather_bytes += rows * sz;
                }
            }
        }
        // Banded forward + backward substitution per column.
        let solve_flops = 4 * coarse_n * (self.coarse.f.bandwidth() + 1);
        Some(CoarseAgglom {
            coarse_n,
            ranks,
            subset,
            layout: dst,
            gather_msgs,
            gather_bytes,
            scatter_msgs: gather_msgs,
            scatter_bytes: gather_bytes,
            solve_flops,
        })
    }

    /// One smoothing of `A_l·x = b`, with `r` (the shape of `b`) as scratch.
    /// Going `down`, `x` is all `+0` on entry and `r` is `b − A_l·x` on
    /// return; a Krylov smoother pays an operator pass for neither (from the
    /// zero iterate the residual is `b` bit for bit, and it hands back the
    /// residual it ends on).
    fn smooth_ws(
        &self,
        l: usize,
        b: &DMat<S>,
        x: &mut DMat<S>,
        r: &mut DMat<S>,
        down: bool,
        ws: &mut CycleScratch<S>,
    ) {
        let a = &self.levels[l].a;
        let smoother = &self.levels[l].smoother;
        let krylov = matches!(smoother, LevelSmoother::Gmres(_) | LevelSmoother::Cg(_));
        // A Krylov smoother is x += K_s(A, b − A·x).
        match (krylov, down) {
            (true, true) => r.copy_from(b),
            (true, false) => a.residual(b, x, r),
            (false, _) => {}
        }
        match smoother {
            LevelSmoother::Jacobi(j, iters) => j.smooth_with(a, b, x, *iters, r),
            LevelSmoother::Chebyshev(c) => c.smooth_ws(b, x, &mut ws.pool),
            LevelSmoother::Gmres(s) => smoother::gmres_smooth(a, r, x, *s, down, &mut ws.krylov),
            LevelSmoother::Cg(s) => smoother::cg_smooth(a, r, x, *s, &mut ws.krylov),
        }
        if down && !krylov {
            a.residual(b, x, r);
        }
    }

    /// One V-cycle on `A_l·x = b` from `x = 0` (the caller zeroes `x`), with
    /// every level vector drawn from the pool. All `p` columns of `b`/`x`
    /// stream through each smoothing, restriction, and prolongation sweep
    /// together; arithmetic per column is identical to the single-column
    /// cycle.
    fn vcycle_ws(&self, l: usize, b: &DMat<S>, x: &mut DMat<S>, ws: &mut CycleScratch<S>) {
        if l + 1 == self.levels.len() {
            self.coarse_solve_ws(l, b, x, &mut ws.pool);
            return;
        }
        let level = &self.levels[l];
        // Time this level's own work exclusively: the timer is dropped
        // around the recursive descent so nested levels don't double-count.
        let down = traced(SpanKind::PrecondLevel(l));
        // Pre-smooth, residual and restriction.
        let p = b.ncols();
        let mut r = ws.pool.take_stale(level.a.nrows(), p);
        self.smooth_ws(l, b, x, &mut r, true, ws);
        let pt = level.pt.as_ref().unwrap();
        let mut rc = ws.pool.take(pt.nrows(), p);
        pt.spmm(&r, &mut rc);
        let mut xc = ws.pool.take(pt.nrows(), p);
        drop(down);
        self.vcycle_ws(l + 1, &rc, &mut xc, ws);
        let _up = traced(SpanKind::PrecondLevel(l));
        // Prolongate (reusing the residual buffer) and correct.
        level.p.as_ref().unwrap().spmm(&xc, &mut r);
        x.axpy(S::one(), &r);
        ws.pool.put(rc);
        ws.pool.put(xc);
        // Post-smooth.
        self.smooth_ws(l, b, x, &mut r, false, ws);
        ws.pool.put(r);
    }
}

fn make_smoother<S: Scalar>(a: &Csr<S>, diag: &[S], kind: &SmootherKind) -> LevelSmoother<S> {
    match kind {
        SmootherKind::Jacobi { omega, iters } => {
            LevelSmoother::Jacobi(Jacobi::with_diag(diag, *omega), *iters)
        }
        SmootherKind::Chebyshev { degree } => {
            LevelSmoother::Chebyshev(Chebyshev::with_diag(a, diag, *degree, 10.0))
        }
        SmootherKind::Gmres { iters } => LevelSmoother::Gmres(*iters),
        SmootherKind::Cg { iters } => LevelSmoother::Cg(*iters),
    }
}

impl<S: Scalar> PrecondOp<S> for Amg<S> {
    fn nrows(&self) -> usize {
        self.n
    }
    fn apply(&self, r: &DMat<S>, z: &mut DMat<S>) {
        let _sp = traced(SpanKind::PrecondApply);
        z.set_zero();
        let mut ws = self.ws.lock().unwrap();
        self.vcycle_ws(0, r, z, &mut ws);
    }
    fn is_variable(&self) -> bool {
        self.variable
    }
    /// Matrix bytes one single-column V-cycle reads. Per non-coarsest level,
    /// `2·s + 1` passes over the level operator for `s` sweeps, degrees or
    /// Krylov steps: Jacobi and Chebyshev make one per sweep each way and the
    /// cycle takes the residual in between; a Krylov smoother makes `s`
    /// products going down (the residual of the zero iterate is `b`, and it
    /// hands back the one it ends on), then a residual and `s` products
    /// coming up (fewer when it breaks down early). Then one pass over each
    /// grid transfer, and the stored entries of the coarse factor. Vector
    /// traffic is not counted.
    fn bytes_per_apply(&self) -> Option<usize> {
        let mut total = self.coarse.f.factor_len() * std::mem::size_of::<S>();
        for (l, level) in self.levels.iter().enumerate() {
            if l + 1 == self.levels.len() {
                break;
            }
            let passes = 1 + 2 * match &level.smoother {
                LevelSmoother::Chebyshev(c) => c.degree(),
                LevelSmoother::Jacobi(_, s) | LevelSmoother::Gmres(s) | LevelSmoother::Cg(s) => *s,
            };
            total += passes * level.a.bytes_streamed()
                + level.p.as_ref().unwrap().bytes_streamed()
                + level.pt.as_ref().unwrap().bytes_streamed();
        }
        Some(total)
    }
}

/// Greedy strength-based aggregation: the members of every aggregate, each
/// in ascending row order, aggregates of fewer than `nv` rows merged into a
/// neighbour where there is one. `diag` is the precomputed diagonal of `a`
/// (one scan per level, shared with the other setup passes).
fn aggregates<S: Scalar>(a: &Csr<S>, nv: usize, threshold: f64, diag: &[S]) -> Vec<Vec<usize>> {
    let n = a.nrows();
    // Strength test |a_ij| > θ·√(|a_ii|·|a_jj|), evaluated for every
    // nonzero up front in parallel (rows are disjoint flag ranges); the
    // greedy aggregation below then only reads precomputed booleans, so
    // its sequential visit order — and hence the hierarchy — is unchanged.
    let strong_flags = strength_flags(a, threshold, diag);
    let row_off = a.indptr();
    let strong = |i: usize, k: usize| -> bool { strong_flags[row_off[i] + k] };

    let mut agg = vec![usize::MAX; n];
    let mut nagg = 0usize;
    // Phase 1: roots whose strong neighborhoods are fully unaggregated.
    for i in 0..n {
        if agg[i] != usize::MAX {
            continue;
        }
        let mut ok = true;
        for (k, &j) in a.row_indices(i).iter().enumerate() {
            if strong(i, k) && agg[j] != usize::MAX {
                ok = false;
                break;
            }
        }
        if ok {
            agg[i] = nagg;
            for (k, &j) in a.row_indices(i).iter().enumerate() {
                if strong(i, k) {
                    agg[j] = nagg;
                }
            }
            nagg += 1;
        }
    }
    // Phase 2: attach leftovers to a (strongly, else weakly) connected
    // aggregate; isolated vertices become singletons.
    for i in 0..n {
        if agg[i] != usize::MAX {
            continue;
        }
        let mut target = usize::MAX;
        for (k, &j) in a.row_indices(i).iter().enumerate() {
            if agg[j] != usize::MAX && strong(i, k) {
                target = agg[j];
                break;
            }
        }
        if target == usize::MAX {
            for &j in a.row_indices(i) {
                if agg[j] != usize::MAX {
                    target = agg[j];
                    break;
                }
            }
        }
        if target == usize::MAX {
            target = nagg;
            nagg += 1;
        }
        agg[i] = target;
    }
    // Merge aggregates smaller than nv into a graph neighbor so every local
    // nullspace QR is well-posed.
    let mut sizes = vec![0usize; nagg];
    for &g in &agg {
        sizes[g] += 1;
    }
    for i in 0..n {
        let g = agg[i];
        if sizes[g] < nv {
            for &j in a.row_indices(i) {
                if agg[j] != g && sizes[agg[j]] >= nv {
                    sizes[g] -= 1;
                    agg[i] = agg[j];
                    sizes[agg[j]] += 1;
                    break;
                }
            }
        }
    }
    // Compact aggregate ids.
    let mut remap = vec![usize::MAX; nagg];
    let mut ncoarse_agg = 0usize;
    for &g in &agg {
        if remap[g] == usize::MAX {
            remap[g] = ncoarse_agg;
            ncoarse_agg += 1;
        }
    }
    let mut members: Vec<Vec<usize>> = vec![Vec::new(); ncoarse_agg];
    for (i, &g) in agg.iter().enumerate() {
        members[remap[g]].push(i);
    }
    members
}

/// Thin QR `(Q, R)` of the near-nullspace rows of every aggregate —
/// aggregates are independent, so the factorizations run across the worker
/// pool. A degenerate tiny component (fewer rows than vectors) gets the
/// identity on as many columns as it has rows.
fn nullspace_blocks<S: Scalar>(members: &[Vec<usize>], b: &DMat<S>) -> Vec<(DMat<S>, DMat<S>)> {
    let nv = b.ncols();
    map_range(members.len(), |g| {
        let rows = &members[g];
        let m = rows.len();
        if m >= nv {
            let local = DMat::from_fn(m, nv, |i, j| b[(rows[i], j)]);
            let f = HouseholderQr::factor(local);
            (f.q_thin(), f.r())
        } else {
            let eye = |i: usize, j: usize| if i == j && i < m { S::one() } else { S::zero() };
            (DMat::from_fn(m, nv, eye), DMat::from_fn(nv, nv, eye))
        }
    })
}

/// Aggregation + nullspace-preserving tentative prolongator. Returns
/// `(P̂, B_coarse)`.
fn tentative_prolongator<S: Scalar>(
    a: &Csr<S>,
    b: &DMat<S>,
    threshold: f64,
    diag: &[S],
) -> (Csr<S>, DMat<S>) {
    let n = a.nrows();
    let nv = b.ncols();
    let members = aggregates(a, nv, threshold, diag);
    let blocks = nullspace_blocks(&members, b);
    let mut bc = DMat::zeros(members.len() * nv, nv);
    // Row `gi` of P̂ is row `li` of its aggregate's Q, in that aggregate's
    // `nv` columns: written in row order, exact zeros skipped.
    let mut place = vec![(0usize, 0usize); n];
    for (g, (rows, (_, r))) in members.iter().zip(&blocks).enumerate() {
        for (li, &gi) in rows.iter().enumerate() {
            place[gi] = (g, li);
        }
        for i in 0..nv {
            for j in 0..nv {
                bc[(g * nv + i, j)] = r[(i, j)];
            }
        }
    }
    let mut indptr = Vec::with_capacity(n + 1);
    let mut indices = Vec::with_capacity(n * nv);
    let mut data = Vec::with_capacity(n * nv);
    indptr.push(0);
    for &(g, li) in &place {
        for c in 0..nv {
            let v = blocks[g].0[(li, c)];
            if v != S::zero() {
                indices.push(g * nv + c);
                data.push(v);
            }
        }
        indptr.push(indices.len());
    }
    (Csr::from_raw(n, bc.nrows(), indptr, indices, data), bc)
}

/// Evaluate the strength test for every stored nonzero of `a` in parallel:
/// a flat array of flags aligned with the entries, row `i` at `a.indptr()[i]`.
fn strength_flags<S: Scalar>(a: &Csr<S>, threshold: f64, diag: &[S]) -> Vec<bool> {
    let n = a.nrows();
    let row_off = a.indptr();
    let mut flags = vec![false; a.nnz()];
    let base = kryst_rt::par::SendPtr::new(flags.as_mut_ptr());
    let fill = |lo: usize, hi: usize| {
        // SAFETY: each row writes only flags[row_off[i]..row_off[i+1]] and
        // row ranges are disjoint across parts.
        for i in lo..hi {
            let cols = a.row_indices(i);
            let vals = a.row_values(i);
            for (k, (&j, &v)) in cols.iter().zip(vals).enumerate() {
                let s = if i == j {
                    false
                } else {
                    let denom = (diag[i].abs() * diag[j].abs()).sqrt();
                    v.abs().to_f64() > threshold * denom.to_f64()
                };
                unsafe { *base.ptr().add(row_off[i] + k) = s };
            }
        }
    };
    if max_threads() > 1 && n >= 256 {
        for_each_range(n, 0, fill);
    } else {
        fill(0, n);
    }
    flags
}

/// The row scaling `−ω·D⁻¹` of the prolongator smoothing, with
/// `ω = damping / λ_max(D⁻¹A)`.
fn damping_scale<S: Scalar>(a: &Csr<S>, damping: f64, diag: &[S]) -> Vec<S> {
    let inv_diag: Vec<S> = diag
        .iter()
        .map(|&d| {
            if d == S::zero() {
                S::zero()
            } else {
                S::one() / d
            }
        })
        .collect();
    let lmax = estimate_lmax_dinva(a, &inv_diag).max(1e-12);
    let omega = damping / lmax;
    inv_diag.iter().map(|&d| d * S::from_f64(-omega)).collect()
}

/// `P = (I − ω·D⁻¹·A)·P̂`.
fn smooth_prolongator<S: Scalar>(a: &Csr<S>, ptent: &Csr<S>, damping: f64, diag: &[S]) -> Csr<S> {
    let mut damped = ops::spgemm(a, ptent);
    for (i, &s) in damping_scale(a, damping, diag).iter().enumerate() {
        for v in damped.row_values_mut(i) {
            *v *= s;
        }
    }
    ops::add(ptent, &damped)
}

fn estimate_lmax_dinva<S: Scalar>(a: &Csr<S>, inv_diag: &[S]) -> f64 {
    let n = a.nrows();
    let mut v: Vec<S> = (0..n)
        .map(|i| S::from_f64(1.0 + ((i % 5) as f64) * 0.1))
        .collect();
    let mut w = vec![S::zero(); n];
    let mut lmax = 1.0;
    for _ in 0..10 {
        a.spmv(&v, &mut w);
        let mut norm = 0.0f64;
        for i in 0..n {
            w[i] *= inv_diag[i];
            norm += w[i].abs_sqr().to_f64();
        }
        let norm = norm.sqrt();
        if norm == 0.0 {
            break;
        }
        lmax = norm;
        let inv = S::from_f64(1.0 / norm);
        for i in 0..n {
            v[i] = w[i] * inv;
        }
    }
    lmax
}

#[cfg(test)]
mod tests {
    use super::*;
    use kryst_par::PrecondPrecision;
    use kryst_pde::poisson::poisson2d;
    use kryst_sparse::Coo;

    fn residual_norm(a: &Csr<f64>, b: &DMat<f64>, x: &DMat<f64>) -> f64 {
        let mut r = a.apply(x);
        r.axpy(-1.0, b);
        r.fro_norm()
    }

    #[test]
    fn hierarchy_coarsens() {
        let p = poisson2d::<f64>(32, 32);
        let amg = Amg::new(&p.a, p.near_nullspace.as_ref(), &AmgOpts::default());
        assert!(amg.nlevels() >= 2, "expected a multilevel hierarchy");
        assert!(
            amg.operator_complexity() < 3.0,
            "complexity {}",
            amg.operator_complexity()
        );
    }

    #[test]
    fn vcycle_iteration_converges_on_poisson() {
        let p = poisson2d::<f64>(24, 24);
        let n = p.a.nrows();
        let amg = Amg::new(&p.a, p.near_nullspace.as_ref(), &AmgOpts::default());
        let b = DMat::from_fn(n, 1, |i, _| ((i % 7) as f64) - 3.0);
        let mut x = DMat::zeros(n, 1);
        let r0 = residual_norm(&p.a, &b, &x);
        // Stationary iteration x ⟵ x + M⁻¹(b − A x).
        let mut rates = Vec::new();
        let mut rprev = r0;
        for _ in 0..20 {
            let mut r = p.a.apply(&x);
            r.scale(-1.0);
            r.axpy(1.0, &b);
            let z = amg.apply_new(&r);
            x.axpy(1.0, &z);
            let rn = residual_norm(&p.a, &b, &x);
            rates.push(rn / rprev);
            rprev = rn;
        }
        assert!(
            rprev < 1e-6 * r0,
            "V-cycle iteration stagnated: {rprev:.3e} of {r0:.3e}, rates {rates:?}"
        );
    }

    #[test]
    fn threshold_drops_weak_couplings() {
        // Anisotropic grid: x-couplings ≈ 0.40·diag, y-couplings ≈ 0.10·diag.
        // A threshold between the two ratios removes the weak direction from
        // the aggregation graph, so aggregates get smaller (semi-coarsening)
        // and the first coarse level is larger — the hierarchy genuinely
        // changes, mirroring the paper's `-pc_gamg_threshold` experiments.
        let p = poisson2d::<f64>(32, 16);
        let robust = Amg::new(
            &p.a,
            p.near_nullspace.as_ref(),
            &AmgOpts {
                threshold: 0.0,
                ..Default::default()
            },
        );
        let filtered = Amg::new(
            &p.a,
            p.near_nullspace.as_ref(),
            &AmgOpts {
                threshold: 0.2,
                ..Default::default()
            },
        );
        let s_robust = robust.level_sizes();
        let s_filtered = filtered.level_sizes();
        assert!(
            s_filtered[1] > s_robust[1],
            "semi-coarsening expected: {s_filtered:?} vs {s_robust:?}"
        );
        // Both hierarchies must still contract on this SPD problem.
        let n = p.a.nrows();
        let b = DMat::from_fn(n, 1, |i, _| ((i % 7) as f64) - 3.0);
        for amg in [&robust, &filtered] {
            let mut x = DMat::zeros(n, 1);
            for _ in 0..25 {
                let mut r = p.a.apply(&x);
                r.scale(-1.0);
                r.axpy(1.0, &b);
                let z = amg.apply_new(&r);
                x.axpy(1.0, &z);
            }
            assert!(residual_norm(&p.a, &b, &x) < 1e-5 * b.fro_norm());
        }
    }

    #[test]
    fn gmres_smoother_makes_it_variable() {
        let p = poisson2d::<f64>(12, 12);
        let lin = Amg::new(&p.a, None, &AmgOpts::default());
        let nonlin = Amg::new(
            &p.a,
            None,
            &AmgOpts {
                smoother: SmootherKind::Gmres { iters: 3 },
                ..Default::default()
            },
        );
        assert!(!PrecondOp::<f64>::is_variable(&lin));
        assert!(PrecondOp::<f64>::is_variable(&nonlin));
        // Nonlinear cycle still contracts.
        let n = p.a.nrows();
        let b = DMat::from_fn(n, 1, |i, _| (i % 3) as f64);
        let mut x = DMat::zeros(n, 1);
        for _ in 0..8 {
            let mut r = p.a.apply(&x);
            r.scale(-1.0);
            r.axpy(1.0, &b);
            let z = nonlin.apply_new(&r);
            x.axpy(1.0, &z);
        }
        assert!(residual_norm(&p.a, &b, &x) < 1e-6 * b.fro_norm());
    }

    /// FNV-1a over the bits of one apply to a fixed `n × p` input.
    fn apply_hash(amg: &Amg<f64>, p: usize) -> u64 {
        let r = DMat::from_fn(amg.n, p, |i, j| (((i * 7 + j * 13) % 19) as f64) - 9.0);
        let z = amg.apply_new(&r);
        z.as_slice().iter().fold(0xcbf29ce484222325u64, |h, v| {
            (h ^ v.to_bits()).wrapping_mul(0x100000001b3)
        })
    }

    #[test]
    fn krylov_smoothed_cycle_keeps_its_bits() {
        // Hashes printed once by this cycle when the sparse sweeps began
        // summing rows of 8 or more entries on two accumulators (the coarse
        // operators, `P` and `Pᵀ` have such rows, so the earlier hashes could
        // not carry over; `csr.rs` pins the rule against a written-out
        // reference, `smoother.rs` the order of the smoothers' dots), at
        // KRYST_THREADS 1 and 4 and in debug and release builds alike. The
        // fine level has 4608 rows, so under KRYST_THREADS=4 its products
        // run on the pool.
        let prob = poisson2d::<f64>(72, 64);
        for (smoother, p1, p3) in [
            (
                SmootherKind::Gmres { iters: 3 },
                0x9f31fd43500f49f3u64,
                0xbd98beddf438ddbfu64,
            ),
            (
                SmootherKind::Cg { iters: 4 },
                0xd39911955e0f3748,
                0x0d4bc585fd4e1333,
            ),
        ] {
            let amg = Amg::new(
                &prob.a,
                prob.near_nullspace.as_ref(),
                &AmgOpts {
                    smoother,
                    ..Default::default()
                },
            );
            assert_eq!(amg.level_sizes(), [4608, 784, 91, 12]);
            assert_eq!(apply_hash(&amg, 1), p1, "{smoother:?} p=1");
            assert_eq!(apply_hash(&amg, 3), p3, "{smoother:?} p=3");
            // The pooled scratch is dirty now: a second apply must not see it.
            assert_eq!(apply_hash(&amg, 1), p1, "{smoother:?} p=1 again");
        }
    }

    /// `A·B` as `ops::spgemm` computed it before it chose an accumulator
    /// per row: serial, a stamp test on every multiply-add.
    fn spgemm_ref(a: &Csr<f64>, b: &Csr<f64>) -> Csr<f64> {
        let mut coo = Coo::new(a.nrows(), b.ncols());
        let mut acc = vec![0.0; b.ncols()];
        let mut stamp = vec![usize::MAX; b.ncols()];
        let mut touched: Vec<usize> = Vec::new();
        for i in 0..a.nrows() {
            touched.clear();
            for (&ac, &av) in a.row_indices(i).iter().zip(a.row_values(i)) {
                for (&bc, &bv) in b.row_indices(ac).iter().zip(b.row_values(ac)) {
                    if stamp[bc] != i {
                        stamp[bc] = i;
                        acc[bc] = 0.0;
                        touched.push(bc);
                    }
                    acc[bc] += av * bv;
                }
            }
            // One triplet per entry: `to_csr` only sorts them.
            touched.iter().for_each(|&c| coo.push(i, c, acc[c]));
        }
        coo.to_csr()
    }

    /// `A + B` through the triplet builder, as `ops::add` was written.
    fn add_ref(a: &Csr<f64>, b: &Csr<f64>) -> Csr<f64> {
        let mut coo = Coo::new(a.nrows(), a.ncols());
        for m in [a, b] {
            for i in 0..m.nrows() {
                for (&c, &v) in m.row_indices(i).iter().zip(m.row_values(i)) {
                    coo.push(i, c, v);
                }
            }
        }
        coo.to_csr()
    }

    /// The set-up loop of `Amg::new` on the operations it used
    /// before they were rewritten: P̂ pushed as triplets in aggregate order,
    /// a scaled copy of `A·P̂` added through the triplet builder, the
    /// stamped products, `Pᵀ` transposed for the product and again for the
    /// level. `(A_l, P_l, P_lᵀ)` per level, the transfers absent on the last.
    #[allow(clippy::type_complexity)]
    fn reference_hierarchy(
        a: &Csr<f64>,
        b: &DMat<f64>,
        opts: &AmgOpts,
    ) -> Vec<(Csr<f64>, Option<Csr<f64>>, Option<Csr<f64>>)> {
        let (mut acur, mut b) = (a.clone(), b.clone());
        let mut levels = Vec::new();
        while levels.len() + 1 < opts.max_levels && acur.nrows() > opts.coarse_size {
            let diag = acur.diag();
            let nv = b.ncols();
            let members = aggregates(&acur, nv, opts.threshold, &diag);
            let mut pcoo = Coo::new(acur.nrows(), members.len() * nv);
            let mut bc = DMat::zeros(members.len() * nv, nv);
            for (g, (rows, (q, r))) in members
                .iter()
                .zip(nullspace_blocks(&members, &b))
                .enumerate()
            {
                for (li, &gi) in rows.iter().enumerate() {
                    (0..nv).for_each(|c| pcoo.push(gi, g * nv + c, q[(li, c)]));
                }
                for i in 0..nv {
                    (0..nv).for_each(|j| bc[(g * nv + i, j)] = r[(i, j)]);
                }
            }
            let ptent = pcoo.to_csr();
            let mut damped = spgemm_ref(&acur, &ptent);
            for (i, &s) in damping_scale(&acur, opts.damping, &diag).iter().enumerate() {
                damped.row_values_mut(i).iter_mut().for_each(|v| *v *= s);
            }
            let p = add_ref(&ptent, &damped);
            let ac = spgemm_ref(&p.transpose(), &spgemm_ref(&acur, &p));
            let pt = p.transpose();
            levels.push((acur, Some(p), Some(pt)));
            (acur, b) = (ac, bc);
        }
        levels.push((acur, None, None));
        levels
    }

    /// Every level the fast set-up path builds — direct P̂ rows, in-place
    /// scaling, merge-add, per-row accumulators, one transpose — is the one
    /// the reference operations build, bit for bit.
    #[test]
    fn hierarchy_equals_the_reference_operations_bitwise() {
        use kryst_pde::elasticity::{elasticity3d, ElasticityOpts};
        let poisson = poisson2d::<f64>(24, 24);
        let elasticity = elasticity3d::<f64>(&ElasticityOpts {
            ne: 4,
            ..Default::default()
        })
        .problem;
        let bits = |m: &Csr<f64>| -> Vec<u64> {
            (0..m.nrows())
                .flat_map(|i| m.row_values(i))
                .map(|v| v.to_bits())
                .collect()
        };
        for (name, prob, min_levels) in [("poisson", &poisson, 3), ("elasticity", &elasticity, 2)] {
            let opts = AmgOpts::default();
            let ns = prob.near_nullspace.as_ref().unwrap();
            let amg = Amg::new(&prob.a, Some(ns), &opts);
            let want = reference_hierarchy(&prob.a, ns, &opts);
            assert!(
                amg.nlevels() >= min_levels,
                "{name}: {:?}",
                amg.level_sizes()
            );
            assert_eq!(amg.nlevels(), want.len(), "{name}");
            for (l, (level, (a, p, pt))) in amg.levels.iter().zip(&want).enumerate() {
                let pairs = [
                    (Some(&level.a), Some(a), "A"),
                    (level.p.as_ref(), p.as_ref(), "P"),
                    (level.pt.as_ref(), pt.as_ref(), "Pt"),
                ];
                for (got, want, what) in pairs {
                    assert_eq!(got.is_some(), want.is_some(), "{name} level {l}: {what}");
                    if let (Some(got), Some(want)) = (got, want) {
                        assert_eq!(got, want, "{name} level {l}: {what}");
                        assert_eq!(bits(got), bits(want), "{name} level {l}: {what} bits");
                    }
                }
            }
        }
    }

    #[test]
    fn tiny_components_get_the_identity() {
        // Three isolated rows, two near-nullspace vectors: no aggregate is
        // large enough for a QR, each injects its one row on its first column.
        let a = Csr::from_diag(&[2.0, 3.0, 4.0]);
        let b = DMat::from_fn(3, 2, |i, j| (i + j) as f64 + 1.0);
        let (ptent, bc) = tentative_prolongator(&a, &b, 0.0, &a.diag());
        assert_eq!((ptent.nrows(), ptent.ncols(), ptent.nnz()), (3, 6, 3));
        for i in 0..3 {
            assert_eq!(ptent.get(i, 2 * i), 1.0);
            assert_eq!((bc[(2 * i, 0)], bc[(2 * i + 1, 1)]), (1.0, 0.0));
        }
    }

    #[test]
    fn bytes_per_apply_counts_the_passes_the_cycle_makes() {
        // 1-D Laplacian on 6 points, two levels. Aggregation visits 0 → {0,1},
        // 3 → {2,3,4}, and 5 joins its neighbour's aggregate: 2 coarse points.
        // A: 16 entries in 6 rows. P = (I − ωD⁻¹A)·P̂ widens each aggregate by
        // one row per side: 3 + 5 = 8 entries in 6 rows; Pᵀ the same in 2 rows.
        // The 2 × 2 coarse factor stores one entry of L, one of U, two pivots.
        let mut coo = Coo::new(6, 6);
        for i in 0..6 {
            coo.push(i, i, 2.0);
            if i > 0 {
                coo.push(i, i - 1, -1.0);
                coo.push(i - 1, i, -1.0);
            }
        }
        let a: Csr<f64> = coo.to_csr();
        let (idx, val) = (std::mem::size_of::<usize>(), std::mem::size_of::<f64>());
        let csr = |nnz: usize, rows: usize| nnz * (idx + val) + (rows + 1) * idx;
        let (a_b, p_b, pt_b, coarse_b) = (csr(16, 6), csr(8, 6), csr(8, 2), 4 * val);
        let build = |smoother| {
            let amg = Amg::new(
                &a,
                None,
                &AmgOpts {
                    smoother,
                    coarse_size: 2,
                    max_levels: 2,
                    ..Default::default()
                },
            );
            assert_eq!(amg.level_sizes(), [6, 2]);
            amg.bytes_per_apply().unwrap()
        };
        let fixed = p_b + pt_b + coarse_b;
        // Krylov: s products down (no residual from the zero iterate, and
        // the smoother hands the cycle's back), one residual and s products
        // up.
        assert_eq!(build(SmootherKind::Gmres { iters: 3 }), 7 * a_b + fixed);
        assert_eq!(build(SmootherKind::Cg { iters: 4 }), 9 * a_b + fixed);
        // Linear smoothers: one product per sweep each way, plus the residual.
        let jacobi = SmootherKind::Jacobi {
            omega: 0.67,
            iters: 2,
        };
        assert_eq!(build(jacobi), 5 * a_b + fixed);
        assert_eq!(
            build(SmootherKind::Chebyshev { degree: 3 }),
            7 * a_b + fixed
        );
    }

    #[test]
    fn nonlinear_smoother_falls_back_to_full_precision() {
        let p = poisson2d::<f64>(12, 12);
        let amg = Amg::new(
            &p.a,
            None,
            &AmgOpts {
                smoother: SmootherKind::Gmres { iters: 3 },
                ..Default::default()
            },
        );
        assert_eq!(amg.precision(), PrecondPrecision::Full);
        assert!(PrecondOp::<f64>::is_variable(&amg));
    }

    #[test]
    fn coarse_agglom_model_picks_subset_and_counts_traffic() {
        let p = poisson2d::<f64>(32, 32);
        let amg = Amg::new(&p.a, p.near_nullspace.as_ref(), &AmgOpts::default());
        let cn = amg.coarse_n();
        assert!(cn > 0 && cn <= 4096);
        for ranks in [4usize, 512, 4096, 8192] {
            let m = amg.coarse_agglom(ranks).expect("policy should fire");
            assert_eq!(m.coarse_n, cn);
            assert_eq!(m.ranks, ranks);
            assert!(m.subset >= 1 && m.subset <= ranks);
            assert!(m.subset.is_power_of_two());
            // The subset must actually shrink the participant count at scale.
            if ranks >= 512 {
                assert!(m.subset < ranks, "subset {} at P={ranks}", m.subset);
            }
            assert_eq!(m.layout.n(), cn);
            assert_eq!(m.layout.nranks(), m.subset);
            // Gather moves at most every coarse row once, and the scatter
            // mirrors it exactly.
            assert!(m.gather_bytes <= cn * std::mem::size_of::<f64>());
            assert_eq!(m.gather_bytes, m.scatter_bytes);
            assert_eq!(m.gather_msgs, m.scatter_msgs);
            assert!(m.gather_msgs <= ranks + m.subset);
            assert!(m.solve_flops > 0);
        }
        // Subset sizing follows the rows-per-rank rule.
        let m = amg.coarse_agglom(8192).unwrap();
        assert_eq!(m.subset, cn.div_ceil(32).next_power_of_two());
        // Single rank: nothing to agglomerate.
        assert!(amg.coarse_agglom(1).is_none());
        // Disabled policy.
        let off = Amg::new(
            &p.a,
            p.near_nullspace.as_ref(),
            &AmgOpts {
                agglom_threshold: 0,
                ..Default::default()
            },
        );
        assert!(off.coarse_agglom(4096).is_none());
        // Threshold below the coarse size: policy never fires.
        let high = Amg::new(
            &p.a,
            p.near_nullspace.as_ref(),
            &AmgOpts {
                agglom_threshold: 1,
                ..Default::default()
            },
        );
        assert!(high.coarse_agglom(4096).is_none());
    }

    #[test]
    fn singular_coarse_regularizes_once_at_setup() {
        // Identity plus one duplicated row pair (rows 0 and 1 both `[1 1]`):
        // exactly singular with a unit diagonal, so the coarse factor must
        // fall back to the shifted copy — decided at setup, visible through
        // the accessor, and the apply path still produces finite output
        // without any per-apply re-check.
        let n = 12;
        let mut coo = Coo::with_capacity(n, n, n + 2);
        for i in 0..n {
            coo.push(i, i, 1.0);
        }
        coo.push(0, 1, 1.0);
        coo.push(1, 0, 1.0);
        let a: Csr<f64> = coo.to_csr();
        let amg = Amg::new(
            &a,
            None,
            &AmgOpts {
                coarse_size: 64, // no coarsening: the singular A is the coarse op
                ..Default::default()
            },
        );
        assert_eq!(amg.nlevels(), 1);
        assert!(amg.coarse_regularized());
        let r = DMat::from_fn(n, 1, |i, _| (i % 3) as f64);
        let z = amg.apply_new(&r);
        assert!(z.as_slice().iter().all(|v| v.is_finite()));
        // A well-posed operator keeps the direct factor.
        let p = poisson2d::<f64>(16, 16);
        let ok = Amg::new(&p.a, p.near_nullspace.as_ref(), &AmgOpts::default());
        assert!(!ok.coarse_regularized());
    }

    #[test]
    fn elasticity_with_rigid_body_modes() {
        use kryst_pde::elasticity::{elasticity3d, ElasticityOpts};
        let prob = elasticity3d::<f64>(&ElasticityOpts {
            ne: 4,
            ..Default::default()
        });
        let a = &prob.problem.a;
        let amg = Amg::new(
            a,
            prob.problem.near_nullspace.as_ref(),
            &AmgOpts {
                smoother: SmootherKind::Chebyshev { degree: 3 },
                ..Default::default()
            },
        );
        let n = a.nrows();
        let b = DMat::from_fn(n, 1, |i, _| prob.rhs[i]);
        let mut x = DMat::zeros(n, 1);
        let r0 = b.fro_norm();
        for _ in 0..25 {
            let mut r = a.apply(&x);
            r.scale(-1.0);
            r.axpy(1.0, &b);
            let z = amg.apply_new(&r);
            x.axpy(1.0, &z);
        }
        let rfinal = residual_norm(a, &b, &x);
        assert!(
            rfinal < 1e-5 * r0,
            "elasticity V-cycle: {rfinal:.3e} of {r0:.3e}"
        );
    }
}
