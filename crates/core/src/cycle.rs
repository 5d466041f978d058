//! The (block) Arnoldi process of one restart cycle.
//!
//! The restarted solve under GMRES, LGMRES and GCRO-DR runs every cycle on
//! one [`BlockArnoldi`]: it advances `p` right-hand sides together (block width `p`), supports
//! right / left / flexible preconditioning via [`PrecondMode`], optionally
//! orthogonalizes the operator output against a recycled block `C` while
//! capturing the coupling coefficients `E_k = Cᴴ·A·Z` (Fig. 1 line 26), and
//! maintains the incremental QR of the raw block Hessenberg so per-RHS
//! residual estimates are available at every iteration.

use crate::opts::PrecondSide;
use kryst_dense::chol;
use kryst_dense::fused::ColsRef;
use kryst_dense::gs::fused_orthogonalize_cols;
use kryst_dense::qr::IncrementalQr;
use kryst_dense::{blas, DMat};
use kryst_par::{CommStats, LinOp, PrecondOp};
use kryst_scalar::Scalar;
use kryst_sparse::SpmmWorkspace;
use std::sync::Arc;

/// Preconditioning mode resolved from [`crate::SolveOpts::side`].
pub enum PrecondMode<'a, S: Scalar> {
    /// No preconditioning.
    None,
    /// Left preconditioning (iteration space = preconditioned residuals).
    Left(&'a dyn PrecondOp<S>),
    /// Right / flexible preconditioning (directions stored in `Z`).
    Right(&'a dyn PrecondOp<S>),
}

impl<'a, S: Scalar> PrecondMode<'a, S> {
    /// Resolve the mode from the option enum.
    pub fn new(pc: &'a dyn PrecondOp<S>, side: PrecondSide) -> Self {
        match side {
            PrecondSide::Left => PrecondMode::Left(pc),
            PrecondSide::Right | PrecondSide::Flexible => PrecondMode::Right(pc),
        }
    }

    /// Iteration-space residual `r = b − A·x` (left: `M⁻¹·(b − A·x)`). All
    /// temporaries (and the returned matrix) come from `ws`; callers `put`
    /// the result back once consumed, so steady-state restart cycles
    /// allocate nothing here.
    pub fn residual_ws(
        &self,
        a: &dyn LinOp<S>,
        b: &DMat<S>,
        x: &DMat<S>,
        ws: &mut SpmmWorkspace<S>,
    ) -> DMat<S> {
        let mut r = ws.take_stale(b.nrows(), b.ncols());
        a.residual(b, x, &mut r);
        match self {
            PrecondMode::Left(m) => {
                let mut z = ws.take_stale(r.nrows(), r.ncols());
                m.apply(&r, &mut z);
                ws.put(r);
                z
            }
            _ => r,
        }
    }

    /// The operator half of an Arnoldi step on the block `v`: right
    /// preconditioned, `z = M⁻¹·v` and then `w = A·z`; left, `w = M⁻¹·A·v`;
    /// else `w = A·v`. `z` is written under right preconditioning only.
    pub fn step_images(
        &self,
        a: &dyn LinOp<S>,
        v: &DMat<S>,
        z: Option<&mut DMat<S>>,
        w: &mut DMat<S>,
        ws: &mut SpmmWorkspace<S>,
    ) {
        match self {
            PrecondMode::Right(m) => {
                let z = z.expect("right preconditioning keeps its directions");
                m.apply(v, z);
                a.apply(z, w);
            }
            PrecondMode::Left(m) => {
                let mut t = ws.take_stale(v.nrows(), v.ncols());
                a.apply(v, &mut t);
                m.apply(&t, w);
                ws.put(t);
            }
            PrecondMode::None => a.apply(v, w),
        }
    }

    /// Iteration-space image of a solution-space direction: `w = A·d`
    /// (left: `M⁻¹·A·d`). The returned matrix comes from `ws` (callers `put`
    /// it back once consumed).
    pub fn apply_op_ws(&self, a: &dyn LinOp<S>, d: &DMat<S>, ws: &mut SpmmWorkspace<S>) -> DMat<S> {
        let mut w = ws.take_stale(d.nrows(), d.ncols());
        a.apply(d, &mut w);
        match self {
            PrecondMode::Left(m) => {
                let mut z = ws.take_stale(w.nrows(), w.ncols());
                m.apply(&w, &mut z);
                ws.put(w);
                z
            }
            _ => w,
        }
    }
}

/// What the restart cycles of one solve hand on to each other: the storage
/// of [`BlockArnoldi`] (basis, directions, Hessenberg matrix, its QR, the
/// recycle couplings) and the pool of `n × p` temporaries. A block of the
/// basis is allocated the first time a cycle of the solve reaches it and
/// reused by every later cycle ([`BlockArnoldi::with_buffers`] /
/// [`BlockArnoldi::into_buffers`]); blocks no cycle reaches cost nothing.
pub struct CycleBuffers<S: Scalar> {
    /// Pool for `n × p` temporaries — the cycle's own and, between cycles,
    /// the solver's (residuals, recycle-space products).
    pub ws: SpmmWorkspace<S>,
    /// Shape `(n, p)` of a block and the longest cycle (in blocks) the
    /// Hessenberg storage holds.
    shape: (usize, usize),
    cap: usize,
    /// Iteration-space basis `V`, one `n × p` matrix per Krylov block: the
    /// operator writes block `j+1` where it lives.
    v: Vec<DMat<S>>,
    /// Solution-space directions `Z_j = M⁻¹·V_j`, one matrix per block, when
    /// right/flexible preconditioned (`right`); `Z_j` is `V_j` otherwise.
    z: Vec<DMat<S>>,
    right: bool,
    /// Raw block Hessenberg `H̄`.
    hraw: DMat<S>,
    /// Incremental QR of `H̄` with the least-squares right-hand side.
    qr: IncrementalQr<S>,
    /// Coupling coefficients `E = Cᴴ·A·Z`.
    e: DMat<S>,
}

impl<S: Scalar> Default for CycleBuffers<S> {
    fn default() -> Self {
        Self {
            ws: SpmmWorkspace::new(),
            shape: (0, 0),
            cap: 0,
            v: Vec::new(),
            z: Vec::new(),
            right: false,
            hraw: DMat::zeros(0, 0),
            qr: IncrementalQr::new(0, 0),
            e: DMat::zeros(0, 0),
        }
    }
}

impl<S: Scalar> CycleBuffers<S> {
    /// Basis blocks `V_0 … V_j` of the last cycle run in these buffers.
    pub fn basis(&self, j: usize) -> &[DMat<S>] {
        &self.v[..=j]
    }

    /// Direction blocks `Z_0 … Z_{j−1}` of that cycle: their own storage
    /// when it was right/flexible preconditioned, the basis blocks otherwise
    /// (`Z_j = V_j` then).
    pub fn directions(&self, j: usize) -> &[DMat<S>] {
        let blocks = if self.right { &self.z } else { &self.v };
        &blocks[..j]
    }

    /// The raw block Hessenberg `H̄` in its storage; a cycle of `j`
    /// iterations fills the leading `(j+1)·p × j·p` block, and the rest of
    /// those columns is zero.
    pub fn hraw(&self) -> &DMat<S> {
        &self.hraw
    }

    /// The couplings `E = Cᴴ·A·Z` in their storage (`kc` rows); a cycle of
    /// `j` iterations fills the leading `j·p` columns.
    pub fn couplings(&self) -> &DMat<S> {
        &self.e
    }

    /// Make room for a cycle of `m` blocks of `n × p` and `kc` recycled
    /// columns. Storage of that block shape that holds `m` blocks is kept
    /// as it is (stale contents: every entry is written before it is read).
    fn ensure(&mut self, n: usize, p: usize, m: usize, kc: usize, right: bool) {
        if self.shape != (n, p) {
            *self = Self {
                ws: std::mem::take(&mut self.ws),
                shape: (n, p),
                ..Self::default()
            };
        }
        if self.cap < m {
            self.cap = m;
            self.hraw = DMat::zeros((m + 1) * p, m * p);
            self.qr = IncrementalQr::new(m, p);
        }
        self.right = right;
        let cols = self.cap * p;
        if (self.e.nrows(), self.e.ncols()) != (kc, cols) {
            self.e = DMat::zeros(kc, cols);
        }
    }

    /// Block `j` of `list` (the basis or the directions), allocated now if
    /// no cycle has reached it before; blocks fill in order.
    fn block(list: &mut Vec<DMat<S>>, (n, p): (usize, usize), j: usize) -> &mut DMat<S> {
        if list.len() == j {
            list.push(DMat::zeros(n, p));
        }
        &mut list[j]
    }
}

/// One restart cycle of the block Arnoldi process.
///
/// Every step orthogonalizes through the fused low-synchronization CholQR
/// step ([`fused_orthogonalize_cols`]: `CᴴW`, `VᴴW` and `WᴴW` in one
/// reduction per pass, §III-D), reading the basis blocks in place.
pub struct BlockArnoldi<'a, S: Scalar> {
    a: &'a dyn LinOp<S>,
    mode: &'a PrecondMode<'a, S>,
    /// Basis, directions, `H̄`, its QR and `E`; see [`CycleBuffers`].
    buf: CycleBuffers<S>,
    /// Recycled block to orthogonalize against (GCRO-DR inner cycles).
    pub c_proj: Option<&'a DMat<S>>,
    j: usize,
    m: usize,
    p: usize,
    /// Running estimate of the basis' mutual orthogonality loss under the
    /// fused step (units of machine ε); single-pass steps multiply it by the
    /// square of the step's cancellation amplification, re-orthogonalized
    /// steps hold it.
    fused_loss: f64,
    /// Orthogonalization passes taken by the most recent step (1, or 2 when
    /// re-orthogonalization triggered).
    last_passes: usize,
    /// Whether the most recent step needed a rank-revealing CholQR refresh.
    last_refreshed: bool,
    stats: Option<Arc<CommStats>>,
    /// Numerical rank of the initial residual block (breakdown detection).
    pub initial_rank: usize,
    /// Numerical rank of the block produced by the most recent [`Self::step`]
    /// (equals the block width while no breakdown occurs).
    pub last_step_rank: usize,
}

impl<'a, S: Scalar> BlockArnoldi<'a, S> {
    /// A cycle of at most `m` block iterations of width `p`. Storage comes
    /// from [`Self::with_buffers`] or is allocated by [`Self::start`].
    pub fn new(
        a: &'a dyn LinOp<S>,
        mode: &'a PrecondMode<'a, S>,
        m: usize,
        p: usize,
        c_proj: Option<&'a DMat<S>>,
        stats: Option<Arc<CommStats>>,
    ) -> Self {
        Self {
            a,
            mode,
            buf: CycleBuffers::default(),
            c_proj,
            j: 0,
            m,
            p,
            fused_loss: f64::EPSILON,
            last_passes: 1,
            last_refreshed: false,
            stats,
            initial_rank: p,
            last_step_rank: p,
        }
    }

    /// Run the cycle in the storage a previous cycle of the solve left
    /// behind, so restarts allocate nothing.
    pub fn with_buffers(mut self, buf: CycleBuffers<S>) -> Self {
        self.buf = buf;
        self
    }

    /// Recover the storage to hand to the next cycle.
    pub fn into_buffers(self) -> CycleBuffers<S> {
        self.buf
    }

    /// Start the cycle from the residual block `r0` (rank-revealing CholQR —
    /// the paper's breakdown detection at each restart, §V-C).
    pub fn start(&mut self, r0: &DMat<S>) {
        let _t = kryst_obs::traced(kryst_obs::SpanKind::OrthGram);
        assert_eq!(r0.ncols(), self.p);
        self.buf.ensure(
            self.a.nrows(),
            self.p,
            self.m,
            self.c_proj.map_or(0, |c| c.ncols()),
            matches!(self.mode, PrecondMode::Right(_)),
        );
        let q = CycleBuffers::block(&mut self.buf.v, self.buf.shape, 0);
        q.copy_from(r0);
        // The breakdown fixup keeps replacement columns orthogonal to the
        // recycled block C: the fused Gram downdate of every later step
        // assumes basis ⊥ C.
        let ext = self.c_proj.map(ColsRef::whole);
        let ext = ext.as_slice();
        let mut out = chol::cholqr_within(q, ext);
        let mut reductions = 1;
        // CholQR leaves `QᴴQ − I` of the order of ε·κ(R)². A residual block
        // whose columns have converged unevenly is far from well
        // conditioned, and what the first block lacks in orthonormality every
        // later step and the refreshed `C` inherit: such a block gets a
        // second pass, `R ⟵ R₂·R₁`.
        let eps = f64::EPSILON;
        if out.rank == self.p && out.cond_estimate < eps.sqrt().sqrt().sqrt() {
            let again = chol::cholqr_within(q, ext);
            out.r = blas::matmul(&again.r, blas::Op::None, &out.r, blas::Op::None);
            reductions = 2;
        }
        self.initial_rank = out.rank;
        if let Some(st) = &self.stats {
            st.record_reductions(
                reductions,
                reductions * self.p * self.p * std::mem::size_of::<S>(),
            );
        }
        self.buf.qr.reset(&out.r);
        self.j = 0;
        self.fused_loss = f64::EPSILON;
    }

    /// Number of completed block iterations.
    pub fn iterations(&self) -> usize {
        self.j
    }

    /// Whether the cycle can take another step.
    pub fn can_step(&self) -> bool {
        self.j < self.m
    }

    /// One block Arnoldi step; returns the per-RHS least-squares residual
    /// estimates after the step.
    ///
    /// The step works in place: the operator writes `W` into the storage of
    /// basis block `j+1`, where it is orthogonalized and normalised, and a
    /// right preconditioner writes `Z_j` into its block of the directions.
    pub fn step(&mut self) -> Vec<f64> {
        assert!(self.can_step());
        let j = self.j;
        let buf = &mut self.buf;
        // The blocks built so far, and the next one, which receives W; the
        // solution-space direction Z_j = M⁻¹·V_j has its own block when
        // right preconditioned (it is V_j itself otherwise).
        CycleBuffers::block(&mut buf.v, buf.shape, j + 1);
        let (built, rest) = buf.v.split_at_mut(j + 1);
        let zj = buf
            .right
            .then(|| CycleBuffers::block(&mut buf.z, buf.shape, j));
        self.mode
            .step_images(self.a, &built[j], zj, &mut rest[0], &mut buf.ws);
        self.orthogonalize_next()
    }

    /// The block the next step applies the operator to, `V_j`.
    pub fn step_input(&self) -> &DMat<S> {
        &self.buf.v[self.j]
    }

    /// A step whose operator half the caller did on [`Self::step_input`],
    /// as [`PrecondMode::step_images`] does it: `z` is `M⁻¹·V_j` (read when
    /// right preconditioned, else ignored) and `w` the image, column-major
    /// `n × p` each. They go where [`Self::step`] would have written them.
    pub fn finish_step(&mut self, z: &[S], w: &[S]) -> Vec<f64> {
        assert!(self.can_step());
        let buf = &mut self.buf;
        if buf.right {
            CycleBuffers::block(&mut buf.z, buf.shape, self.j)
                .as_mut_slice()
                .copy_from_slice(z);
        }
        self.step_with_image(w)
    }

    /// A step whose operator image the caller hands in: `image` is `A·D`
    /// (left: `M⁻¹·A·D`), column-major `n × p`, for a direction block `D` the
    /// caller keeps, as the stored pairs of LGMRES are. The image is
    /// orthogonalized and enters `H̄` like any other; the direction does not
    /// enter this cycle's storage ([`CycleBuffers::directions`]), so such
    /// steps come after the cycle's own and the caller forms their share of
    /// the correction.
    pub fn step_with_image(&mut self, image: &[S]) -> Vec<f64> {
        assert!(self.can_step());
        let buf = &mut self.buf;
        CycleBuffers::block(&mut buf.v, buf.shape, self.j + 1)
            .as_mut_slice()
            .copy_from_slice(image);
        self.orthogonalize_next()
    }

    /// The second half of a step: block `j+1` holds the operator image `W`.
    fn orthogonalize_next(&mut self) -> Vec<f64> {
        let (j, p) = (self.j, self.p);
        let buf = &mut self.buf;
        let (built, rest) = buf.v.split_at_mut(j + 1);
        let w = &mut rest[0];
        // Orthogonalize against the recycled block C (if any) and the basis
        // built so far: both projections and the Gram matrix in a single
        // reduction per pass (§III-D).
        let out = fused_orthogonalize_cols(
            self.c_proj,
            ColsRef::blocks(built),
            w,
            false,
            self.fused_loss,
        );
        self.last_step_rank = out.rank;
        self.last_passes = out.passes;
        self.last_refreshed = out.refreshed;
        if out.passes == 1 {
            self.fused_loss *= out.amp * out.amp;
        }
        if let Some(st) = &self.stats {
            st.record_fused_reductions(
                out.reductions,
                out.reduction_parts,
                out.reduction_elems * std::mem::size_of::<S>(),
            );
        }
        if let Some(ec) = &out.c_coeffs {
            buf.e.set_block(0, j * p, ec);
        }
        self.push_hessenberg_column(&out.coeffs, &out.r)
    }

    /// Closes a step: the new Hessenberg block column `[coeffs; r]` goes
    /// into `H̄` and the QR; returns the least-squares residual estimates.
    fn push_hessenberg_column(&mut self, coeffs: &DMat<S>, rfac: &DMat<S>) -> Vec<f64> {
        let _t = kryst_obs::traced(kryst_obs::SpanKind::SmallDense);
        let (j, p) = (self.j, self.p);
        let mut hcol = DMat::zeros((j + 2) * p, p);
        hcol.set_block(0, 0, coeffs);
        hcol.set_block((j + 1) * p, 0, rfac);
        // Whole columns: what an earlier, longer cycle left below is cleared.
        for l in 0..p {
            let col = self.buf.hraw.col_mut(j * p + l);
            let (head, below) = col.split_at_mut((j + 2) * p);
            head.copy_from_slice(hcol.col(l));
            below.fill(S::zero());
        }
        self.buf.qr.push_block(&hcol);
        self.j += 1;
        self.buf.qr.residual_norms()
    }

    /// Least-squares coefficients for the completed iterations.
    pub fn solve_y(&self) -> DMat<S> {
        self.buf.qr.solve_y()
    }

    /// Running orthogonality-loss estimate of the fused step (units of
    /// machine ε; `ε` while loss-free).
    pub fn fused_loss(&self) -> f64 {
        self.fused_loss
    }

    /// Orthogonalization passes the most recent step took (2 means the
    /// adaptive re-orthogonalization triggered).
    pub fn last_orth_passes(&self) -> usize {
        self.last_passes
    }

    /// Whether the most recent step fell back to a rank-revealing CholQR
    /// refresh (Gram downdate rejected).
    pub fn last_orth_refreshed(&self) -> bool {
        self.last_refreshed
    }

    /// Deficient rank to report on an iteration event: the initial block's
    /// rank on the first step of a cycle, the latest step's rank otherwise;
    /// `None` while the process keeps full block rank.
    pub fn breakdown_rank(&self, first_of_cycle: bool) -> Option<usize> {
        if first_of_cycle && self.initial_rank < self.p {
            Some(self.initial_rank)
        } else if self.last_step_rank < self.p {
            Some(self.last_step_rank)
        } else {
            None
        }
    }
}

/// Convergence test on relative residuals: the paper's `EPS` (Fig. 1
/// lines 40–45) — true while **any** column is above its tolerance.
pub fn any_above(res: &[f64], bnorms: &[f64], rtol: f64) -> bool {
    res.iter().zip(bnorms).any(|(&r, &b)| r > rtol * b)
}

/// Column norms of `b`, with zero columns treated as unit scale.
pub fn rhs_norms<S: Scalar>(b: &DMat<S>) -> Vec<f64> {
    b.col_norms()
        .into_iter()
        .map(|n| if n == 0.0 { 1.0 } else { n })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use kryst_dense::blas;
    use kryst_par::IdentityPrecond;
    use kryst_pde::poisson::laplace1d;

    /// The blocks side by side in one matrix.
    fn cat(blocks: &[DMat<f64>]) -> DMat<f64> {
        let p = blocks[0].ncols();
        let mut out = DMat::zeros(blocks[0].nrows(), blocks.len() * p);
        for (i, b) in blocks.iter().enumerate() {
            out.set_block(0, i * p, b);
        }
        out
    }

    /// `V`, `Z`, `H̄` and `E` of the completed iterations, as the drivers
    /// read them in the cycle's buffers.
    fn basis(arn: &BlockArnoldi<'_, f64>) -> DMat<f64> {
        cat(arn.buf.basis(arn.j))
    }

    fn directions(arn: &BlockArnoldi<'_, f64>) -> DMat<f64> {
        cat(arn.buf.directions(arn.j))
    }

    fn hbar(arn: &BlockArnoldi<'_, f64>) -> DMat<f64> {
        let (j, p) = (arn.j, arn.p);
        arn.buf.hraw().block(0, 0, (j + 1) * p, j * p)
    }

    fn couplings(arn: &BlockArnoldi<'_, f64>) -> DMat<f64> {
        let e = arn.buf.couplings();
        e.block(0, 0, e.nrows(), arn.j * arn.p)
    }

    #[test]
    fn arnoldi_relation_holds() {
        // A·Z_j = V_{j+1}·H̄_j must hold to machine precision.
        let n = 40;
        let a = laplace1d(n);
        let id = IdentityPrecond::new(n);
        let mode = PrecondMode::new(&id, PrecondSide::Right);
        let p = 2;
        let mut arn = BlockArnoldi::new(&a, &mode, 6, p, None, None);
        let r0 = DMat::from_fn(n, p, |i, j| ((i * 3 + j * 7) % 11) as f64 - 5.0);
        arn.start(&r0);
        for _ in 0..6 {
            arn.step();
        }
        let az = a.apply(&directions(&arn));
        let vh = blas::matmul(&basis(&arn), blas::Op::None, &hbar(&arn), blas::Op::None);
        let mut diff = az.clone();
        diff.axpy(-1.0, &vh);
        assert!(
            diff.max_abs() < 1e-10,
            "Arnoldi relation violated: {}",
            diff.max_abs()
        );
        // Basis orthonormality.
        let g = blas::adjoint_times(&basis(&arn), &basis(&arn));
        for i in 0..g.nrows() {
            for j in 0..g.ncols() {
                let e = if i == j { 1.0 } else { 0.0 };
                assert!((g[(i, j)] - e).abs() < 1e-10);
            }
        }
    }

    #[test]
    fn projected_arnoldi_keeps_basis_c_orthogonal() {
        let n = 30;
        let a = laplace1d(n);
        let id = IdentityPrecond::new(n);
        let mode = PrecondMode::new(&id, PrecondSide::Right);
        // C = orthonormalized random block.
        let mut c = DMat::from_fn(n, 2, |i, j| ((i * 7 + j * 3) % 13) as f64 - 6.0);
        let _ = chol::cholqr(&mut c);
        let mut arn = BlockArnoldi::new(&a, &mode, 5, 1, Some(&c), None);
        let mut r0 = DMat::from_fn(n, 1, |i, _| (i as f64 * 0.17).sin());
        // Project r0 off C first, like GCRO-DR line 9.
        let coef = blas::adjoint_times(&c, &r0);
        blas::gemm(
            -1.0,
            &c,
            blas::Op::None,
            &coef,
            blas::Op::None,
            1.0,
            &mut r0,
        );
        arn.start(&r0);
        for _ in 0..5 {
            arn.step();
        }
        let g = blas::adjoint_times(&c, &basis(&arn));
        assert!(g.max_abs() < 1e-10, "CᴴV = {}", g.max_abs());
        // Verify the captured E: A·Z = C·E + V·H̄.
        let az = a.apply(&directions(&arn));
        let mut rhs = blas::matmul(&c, blas::Op::None, &couplings(&arn), blas::Op::None);
        let vh = blas::matmul(&basis(&arn), blas::Op::None, &hbar(&arn), blas::Op::None);
        rhs.axpy(1.0, &vh);
        let mut diff = az;
        diff.axpy(-1.0, &rhs);
        assert!(
            diff.max_abs() < 1e-10,
            "A·Z ≠ C·E + V·H̄: {}",
            diff.max_abs()
        );
    }

    /// Largest `|VᴴV − I|` entry, and the largest `|CᴴV|` entry with `c`.
    fn measured_loss(v: &DMat<f64>, c: Option<&DMat<f64>>) -> (f64, f64) {
        let mut g = blas::adjoint_times(v, v);
        for i in 0..g.ncols() {
            g[(i, i)] -= 1.0;
        }
        let cv = c.map_or(0.0, |c| blas::adjoint_times(c, v).max_abs());
        (g.max_abs(), cv)
    }

    /// The fused step's loss model against the basis it models: after every
    /// step of GMRES(30) cycles, and of GCRO-DR cycles against a recycled
    /// block of ten columns, at `p = 1` and `p = 4` on Poisson 32 × 32 under
    /// right Jacobi, the measured `max |VᴴV − I|` and `max |CᴴV|` stay below
    /// the `ε^(5/8)` budget the second pass protects, and below
    /// [`BlockArnoldi::fused_loss`] wherever that estimate is within a factor
    /// of 16 of the budget — the range in which it decides a second pass.
    /// It is not a bound on the first steps of a cycle: it starts at `ε`
    /// while the measured loss after one step is already 2–10 times that
    /// estimate (6.9e-15 against 1.8e-15 at `p = 1`, 2.7e-14 against
    /// 2.6e-15 at `p = 4`), and reads at par (1.02e-12 against 1.00e-12) on
    /// the third step at `p = 4`.
    #[test]
    fn measured_loss_stays_under_the_fused_loss_model() {
        use kryst_precond::Jacobi;
        let a = kryst_pde::poisson::poisson2d::<f64>(32, 32).a;
        let n = a.nrows();
        let jac = Jacobi::new(&a, 1.0);
        let mode = PrecondMode::new(&jac, PrecondSide::Right);
        let budget = f64::EPSILON.powf(5.0 / 8.0);
        // C: ten orthonormal columns of A·Y, orthonormalized twice.
        let mut c = a.apply(&DMat::from_fn(n, 10, |i, j| {
            ((i * 7 + j * 3) % 13) as f64 - 6.0
        }));
        let _ = chol::cholqr(&mut c);
        let _ = chol::cholqr(&mut c);
        let (mut steps, mut second, mut modeled) = (0, 0, 0);
        for p in [1usize, 4] {
            for c_proj in [None, Some(&c)] {
                for salt in 0..2 {
                    let mut r0 =
                        DMat::from_fn(n, p, |i, j| ((i * 3 + j * 7 + salt) % 11) as f64 - 5.0);
                    if let Some(c) = c_proj {
                        let coef = blas::adjoint_times(c, &r0);
                        blas::gemm(-1.0, c, blas::Op::None, &coef, blas::Op::None, 1.0, &mut r0);
                    }
                    let mut arn = BlockArnoldi::new(&a, &mode, 30, p, c_proj, None);
                    arn.start(&r0);
                    while arn.can_step() {
                        arn.step();
                        let (vv, cv) = measured_loss(&basis(&arn), c_proj);
                        let model = arn.fused_loss();
                        let case = format!(
                            "p={p} recycle={} salt={salt} step {}: |VᴴV − I| = {vv:.2e}, \
                             |CᴴV| = {cv:.2e}, model {model:.2e}",
                            c_proj.is_some(),
                            arn.iterations()
                        );
                        assert!(vv.max(cv) < budget, "above ε^(5/8): {case}");
                        if model >= budget / 16.0 {
                            assert!(vv.max(cv) < model, "above the model: {case}");
                            modeled += 1;
                        }
                        steps += 1;
                        second += usize::from(arn.last_orth_passes() == 2);
                    }
                }
            }
        }
        // Both bounds are exercised, on single-pass steps and second passes.
        assert!(
            second > 0 && second < steps,
            "{second} of {steps} steps took two passes"
        );
        assert!(
            modeled > steps / 2,
            "{modeled} of {steps} steps held to the model"
        );
    }

    #[test]
    fn residual_estimates_decrease_for_spd() {
        let n = 50;
        let a = laplace1d(n);
        let id = IdentityPrecond::new(n);
        let mode = PrecondMode::new(&id, PrecondSide::Right);
        let mut arn = BlockArnoldi::new(&a, &mode, 10, 1, None, None);
        let r0 = DMat::from_fn(n, 1, |i, _| 1.0 + (i % 3) as f64);
        arn.start(&r0);
        let mut prev = f64::MAX;
        for _ in 0..10 {
            let res = arn.step();
            assert!(res[0] <= prev + 1e-12, "GMRES residual must be monotone");
            prev = res[0];
        }
    }

    #[test]
    fn left_and_right_modes_apply_preconditioner() {
        use kryst_precond::Jacobi;
        let n = 20;
        let a = laplace1d(n);
        let jac = Jacobi::new(&a, 1.0);
        let b = DMat::from_fn(n, 1, |i, _| (i + 1) as f64);
        let x = DMat::zeros(n, 1);
        let left = PrecondMode::new(&jac, PrecondSide::Left);
        let right = PrecondMode::new(&jac, PrecondSide::Right);
        let mut ws = SpmmWorkspace::new();
        let rl = left.residual_ws(&a, &b, &x, &mut ws);
        let rr = right.residual_ws(&a, &b, &x, &mut ws);
        // Left residual is D⁻¹·b, right residual is b.
        assert!((rl[(0, 0)] - b[(0, 0)] / 2.0).abs() < 1e-14);
        assert!((rr[(0, 0)] - b[(0, 0)]).abs() < 1e-14);
    }
}
