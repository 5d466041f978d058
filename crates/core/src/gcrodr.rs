//! (Block) GCRO-DR — Generalized Conjugate Residual with inner
//! Orthogonalization and Deflated Restarting (paper Fig. 1).
//!
//! The solver keeps a recycled pair `(U_k, C_k)` with `A·U_k = C_k` and
//! `C_kᴴ·C_k = I` inside a [`SolverContext`] that persists across `solve`
//! calls (the paper's "singleton class"). It is the restarted solve of
//! the crate's `restart` module augmented with that pair. Per Fig. 1:
//!
//! * **lines 2–9** — on a new system the pair is refreshed with a
//!   distributed QR of `A·U_k` (skipped with
//!   [`crate::SolveOpts::same_system`], §III-B), then the initial guess is
//!   corrected and the residual projected off `C_k`;
//! * **lines 10–21** — without a recycle space the first cycle is plain
//!   (block) GMRES followed by the harmonic-Ritz eigenproblem in the cheap
//!   formulation of eq. (2);
//! * **lines 22–39** — subsequent cycles run Arnoldi with the projected
//!   operator `(I − C_k·C_kᴴ)·A` (one extra reduction per iteration,
//!   §III-D) and refresh the recycle space from the generalized
//!   eigenproblem eq. (3) with strategy **A** (3a, one extra fused
//!   reduction) or **B** (3b, communication-free);
//! * `U_k` lives in the *solution* space (`Z`-side), which is what makes the
//!   same code handle right, left, and **flexible** preconditioning
//!   (FGCRO-DR) uniformly.

use crate::cycle::CycleBuffers;
use crate::opts::{RecycleStrategy, SolveOpts, SolveResult};
use crate::restart::{self, Augmentation, Cx, CycleEnd, Plan};
use kryst_dense::eig::{self, EigDecomp};
use kryst_dense::fused::{self, ColsRef};
use kryst_dense::qr::HouseholderQr;
use kryst_dense::{blas, chol, tri, DMat};
use kryst_obs::{DiagKind, SpanKind};
use kryst_par::{LinOp, PrecondOp};
use kryst_scalar::Scalar;
use kryst_sparse::SpmmWorkspace;
use std::slice::from_ref;

/// The recycled subspace pair.
pub struct RecycleSpace<S: Scalar> {
    /// Solution-space block (`n × k·p`).
    pub u: DMat<S>,
    /// Iteration-space orthonormal block with `A·U = C`.
    pub c: DMat<S>,
}

/// Persistent solver state across a sequence of linear systems — the
/// paper's singleton holding `U_k`/`C_k` between solves.
#[derive(Default)]
pub struct SolverContext<S: Scalar> {
    /// Recycled subspace from previous solves, if any.
    pub recycle: Option<RecycleSpace<S>>,
    /// Number of completed `solve` calls.
    pub solves: usize,
}

impl<S: Scalar> SolverContext<S> {
    /// Fresh, empty context.
    pub fn new() -> Self {
        Self {
            recycle: None,
            solves: 0,
        }
    }

    /// Drop any recycled information.
    pub fn reset(&mut self) {
        self.recycle = None;
    }

    /// Columns currently recycled.
    pub fn recycled_cols(&self) -> usize {
        self.recycle.as_ref().map(|r| r.u.ncols()).unwrap_or(0)
    }
}

/// The shortest cycle: one Arnoldi step beside one recycled block.
const MIN_RESTART: usize = 2;

/// Deflated restarting: the cycles run on `(I − C·Cᴴ)·A` for the recycled
/// pair `(U, C)`, which the first cycle of a cold solve extracts and every
/// later one refreshes.
pub(crate) struct Deflation<S: Scalar> {
    space: Option<RecycleSpace<S>>,
    /// The pair a refresh replaced: the next refresh builds `(U, C)` in it.
    spare: Option<RecycleSpace<S>>,
    /// Restart length `m` and recycled blocks `k` asked for.
    m: usize,
    k_blocks: usize,
    /// The paper's Fig. 1 guards the refresh work with `A_i ≠ A_{i−1}`: for
    /// the very first system in a sequence that condition is vacuously true,
    /// so the recycle space matures during the first solve even when the
    /// caller declares a non-variable sequence.
    refresh_allowed: bool,
    /// `CᴴR` of the residual the current cycle started from.
    cr: DMat<S>,
}

impl<S: Scalar> Deflation<S> {
    /// GCRO-DR(m, k) for systems of order `n` from the recycle space `ctx`
    /// holds, which it takes until [`Self::into_context`].
    pub(crate) fn from_context(ctx: &mut SolverContext<S>, n: usize, opts: &SolveOpts) -> Self {
        let m = opts.restart.max(MIN_RESTART);
        let space = (ctx.recycle.take()).filter(|rec| rec.u.nrows() == n && rec.u.ncols() >= 1);
        Deflation {
            // A solve that starts without a space is the first of its
            // sequence, whether the context is new or was reset.
            refresh_allowed: !opts.same_system || space.is_none(),
            space,
            spare: None,
            m,
            k_blocks: opts.recycle.clamp(1, m - 1),
            cr: DMat::zeros(0, 0),
        }
    }

    /// Hand the recycle space back to `ctx`, one more solve done.
    pub(crate) fn into_context(self, ctx: &mut SolverContext<S>) {
        ctx.recycle = self.space;
        ctx.solves += 1;
    }
}

impl<S: Scalar> Augmentation<S> for Deflation<S> {
    /// Lines 2–9: reuse the recycle space of the previous solve.
    fn prologue(&mut self, cx: &Cx<'_, S>, x: &mut DMat<S>, r: &mut DMat<S>) {
        let stats = cx.opts.stats.as_deref();
        let setup_probe = cx
            .tracer
            .span_start(SpanKind::Setup, cx.opts.stats.as_ref());
        if let Some(rec) = &mut self.space {
            if !cx.opts.same_system {
                // Lines 4–6: [Q,R] = distributed_qr(A·U); C ⟵ Q; U ⟵ U·R⁻¹.
                let mut w = cx.mode.apply_op_ws(cx.a, &rec.u, &mut SpmmWorkspace::new());
                let out = chol::cholqr(&mut w);
                if let Some(st) = stats {
                    st.record_reduction(std::mem::size_of_val(out.r.as_slice()));
                }
                safe_right_solve(&mut rec.u, &out.r);
                rec.c = w;
            }
            // Lines 8–9: X ⟵ X + U·CᴴR; R ⟵ R − C·CᴴR.
            let coef = fused::adjoint_times(ColsRef::whole(&rec.c), r);
            if let Some(st) = stats {
                st.record_reduction(std::mem::size_of_val(coef.as_slice()));
            }
            fused::fused_accumulate(&[ColsRef::whole(&rec.u)], from_ref(&coef), x);
            fused::fused_update(&[ColsRef::whole(&rec.c)], from_ref(&coef), r);
        }
        cx.tracer.span_end(setup_probe, 0);
    }

    /// Lines 10–13 without a recycle space: a plain (block) GMRES cycle.
    /// Lines 22–26 with one: a shorter cycle kept orthogonal to `C`.
    fn prepare<'p>(&'p mut self, cx: &Cx<'_, S>, r: &mut DMat<S>) -> Plan<'p, S> {
        let Some(rec) = &self.space else {
            return Plan {
                restart_span: false,
                ..Plan::arnoldi(None, self.m)
            };
        };
        let kept_blocks = rec.u.ncols().div_ceil(r.ncols());
        let m_inner = (self.m - kept_blocks.min(self.m - 1)).max(1);
        // `R = B − A·X` is orthogonal to `C` only up to its own rounding,
        // which near convergence is not small beside `‖R‖`. `C`'s share goes
        // to the update and out of `R`: the cycle's basis starts orthogonal
        // to `C`, which is what keeps `[C V]·Q` orthonormal.
        self.cr = fused::adjoint_times(ColsRef::whole(&rec.c), r);
        if let Some(st) = &cx.opts.stats {
            st.record_reduction(std::mem::size_of_val(self.cr.as_slice()));
        }
        fused::fused_update(&[ColsRef::whole(&rec.c)], from_ref(&self.cr), r);
        Plan::arnoldi(Some(&rec.c), m_inner)
    }

    /// Lines 27–29: solution update with both U and Z contributions,
    /// `y_k = CᴴR − E·y`.
    fn correct(&mut self, _cx: &Cx<'_, S>, end: &mut CycleEnd<S>, x: &mut DMat<S>) {
        if let Some(rec) = &self.space {
            let e = ColsRef::leading(end.bufs.couplings(), end.y.nrows());
            fused::fused_update(&[e], from_ref(&end.y), &mut self.cr);
            fused::fused_accumulate(&[ColsRef::whole(&rec.u)], from_ref(&self.cr), x);
        }
        end.add_own_directions(x);
    }

    /// Lines 16–20 after a plain cycle: extract `(U, C)` from it, converged
    /// or not — the next solve starts from them. Lines 31–38 after a
    /// deflated one: refresh the pair (skipped for non-variable sequences
    /// after the first solve — §III-B — and once converged).
    fn carry_over(&mut self, cx: &Cx<'_, S>, end: &CycleEnd<S>, converged: bool) {
        let (bufs, j, p) = (&end.bufs, end.j, end.y.ncols());
        let Some(rec) = &mut self.space else {
            let eig_probe = cx
                .tracer
                .span_start(SpanKind::Eigensolve, cx.opts.stats.as_ref());
            self.space = extract_recycle_space(bufs, (j, p), self.k_blocks * p, cx);
            cx.tracer.span_end(eig_probe, cx.cycle);
            return;
        };
        if self.refresh_allowed && !converged {
            let refresh_probe = cx
                .tracer
                .span_start(SpanKind::RecycleRefresh, cx.opts.stats.as_ref());
            refresh_recycle_space(rec, &mut self.spare, bufs, (j, p), cx);
            cx.tracer.span_end(refresh_probe, cx.cycle);
        }
    }
}

/// Solve `A·X = B` with (block) GCRO-DR, recycling through `ctx`.
pub fn solve<S: Scalar>(
    a: &dyn LinOp<S>,
    pc: &dyn PrecondOp<S>,
    b: &DMat<S>,
    x: &mut DMat<S>,
    opts: &SolveOpts,
    ctx: &mut SolverContext<S>,
) -> SolveResult {
    let mut policy = Deflation::from_context(ctx, a.nrows(), opts);
    let res = restart::solve(a, pc, b, x, opts, ("gcrodr", ctx.solves), &mut policy);
    policy.into_context(ctx);
    res
}

/// Lines 16–20 of Fig. 1: harmonic Ritz vectors of a plain cycle of `j`
/// iterations of width `p` via eq. (2), then the `C`/`U` extraction, at most
/// `kc_target` columns wide. The cycle's `V`, `Z` and `H̄` are read in `bufs`.
fn extract_recycle_space<S: Scalar>(
    bufs: &CycleBuffers<S>,
    (j, p): (usize, usize),
    kc_target: usize,
    cx: &Cx<'_, S>,
) -> Option<RecycleSpace<S>> {
    let n = cx.a.nrows();
    let kc = kc_target.min(j * p.max(1)).max(1);
    let jp = j * p;
    let hm = bufs.hraw().block(0, 0, jp, jp);
    // M = [0; h̄ᴴ·h̄] — only the last p columns are nonzero, so the
    // harmonic-Ritz left-hand side H = H_m + H_m⁻ᴴ·M (equivalent to the
    // paper's eq. (2) formulation) needs one p-column solve with H_mᴴ.
    let hlast = bufs.hraw().block(jp, (j - 1) * p, p, p);
    let mut mcols = DMat::zeros(jp, p);
    let hh = blas::matmul(&hlast, blas::Op::ConjTrans, &hlast, blas::Op::None);
    mcols.set_block(jp - p, 0, &hh);
    let hm_h = hm.adjoint();
    let fac = kryst_dense::lu::Lu::factor(hm_h);
    let mut hmod = hm.clone();
    if !fac.is_singular() {
        fac.solve_in_place(&mut mcols);
        for c in 0..p {
            for i in 0..jp {
                hmod[(i, jp - p + c)] += mcols[(i, c)];
            }
        }
    }
    let decomp = eig::eig(&hmod);
    let mut pk = select_smallest::<S>(&decomp, kc);
    if pk.ncols() == 0 {
        return None;
    }
    report_ritz_quality(cx, &decomp, pk.ncols());
    // [Q,R] = qr(H̄·P); C = V·Q; U = Z·(P·R⁻¹), read from the blocks of V
    // and Z where the cycle left them.
    let hbar = bufs.hraw().block(0, 0, jp + p, jp);
    let f = HouseholderQr::factor(blas::matmul(&hbar, blas::Op::None, &pk, blas::Op::None));
    safe_right_solve(&mut pk, &f.r());
    let mut rec = RecycleSpace {
        u: DMat::zeros(n, pk.ncols()),
        c: DMat::zeros(n, pk.ncols()),
    };
    fused::fused_accumulate(&[ColsRef::blocks(bufs.basis(j))], &[f.q_thin()], &mut rec.c);
    fused::fused_accumulate(&[ColsRef::blocks(bufs.directions(j))], &[pk], &mut rec.u);
    Some(rec)
}

/// Lines 31–38 of Fig. 1: generalized harmonic-Ritz refresh of `(U, C)`
/// from a cycle of `j` iterations of width `p` whose `V`, `Z`, `E` and `H̄`
/// are read in `bufs`. The new pair is built in `spare` (or new storage of
/// the right shape) and the pair it replaces is left there.
fn refresh_recycle_space<S: Scalar>(
    rec: &mut RecycleSpace<S>,
    spare: &mut Option<RecycleSpace<S>>,
    bufs: &CycleBuffers<S>,
    (j, p): (usize, usize),
    cx: &Cx<'_, S>,
) {
    let stats = cx.opts.stats.as_deref();
    let jp = j * p;
    let (n, kc) = (rec.u.nrows(), rec.u.ncols());
    let (v, z) = (bufs.basis(j), bufs.directions(j));
    // Line 32: scale the columns of U to unit norm; D holds the scalings.
    let mut d = DMat::<S>::zeros(kc, kc);
    for i in 0..kc {
        let nrm = rec.u.col_norm(i);
        let inv = if nrm > 0.0 {
            S::one() / S::from_f64(nrm)
        } else {
            S::one()
        };
        rec.u.scale_col(i, inv);
        d[(i, i)] = inv;
    }
    if let Some(st) = stats {
        // The column norms are one fused reduction in a distributed run.
        st.record_reduction(kc * std::mem::size_of::<S>());
    }
    // G = [[D, E], [0, H̄]] of size (kc + (j+1)p) × (kc + jp).
    let rows = kc + (j + 1) * p;
    let cols = kc + jp;
    let mut g = DMat::<S>::zeros(rows, cols);
    g.set_block(0, 0, &d);
    for c in 0..jp {
        let gcol = g.col_mut(kc + c);
        gcol[..kc].copy_from_slice(bufs.couplings().col(c));
        gcol[kc..].copy_from_slice(&bufs.hraw().col(c)[..(j + 1) * p]);
    }
    let t = blas::matmul(&g, blas::Op::ConjTrans, &g, blas::Op::None);
    // Right-hand side W per eq. (3a)/(3b).
    let w = match cx.opts.recycle_strategy {
        RecycleStrategy::A => {
            // J = [[CᴴU, 0], [VᴴU, I]] — one extra fused reduction, and one
            // sweep over `U` for both products.
            let mut cvu = [DMat::zeros(kc, kc), DMat::zeros((j + 1) * p, kc)];
            fused::fused_adjoint_times(
                &[ColsRef::whole(&rec.c), ColsRef::blocks(v)],
                &rec.u,
                &mut cvu,
            );
            if let Some(st) = stats {
                st.record_reduction(
                    (cvu[0].as_slice().len() + cvu[1].as_slice().len()) * std::mem::size_of::<S>(),
                );
            }
            let mut jmat = DMat::<S>::zeros(rows, cols);
            jmat.set_block(0, 0, &cvu[0]);
            jmat.set_block(kc, 0, &cvu[1]);
            for i in 0..jp {
                jmat[(kc + i, kc + i)] = S::one();
            }
            blas::matmul(&g, blas::Op::ConjTrans, &jmat, blas::Op::None)
        }
        RecycleStrategy::B => {
            // W = Gᴴ·[I; 0]: the adjoint of G's leading square block —
            // no communication.
            let gtop = g.block(0, 0, cols, cols);
            gtop.adjoint()
        }
    };
    let eig_probe = cx
        .tracer
        .span_start(SpanKind::Eigensolve, cx.opts.stats.as_ref());
    let decomp = eig::eig_generalized(&t, &w);
    let mut pk = select_smallest::<S>(&decomp, kc);
    cx.tracer.span_end(eig_probe, cx.cycle);
    let kn = pk.ncols();
    if kn == 0 {
        return;
    }
    report_ritz_quality(cx, &decomp, kn);
    // Lines 35–37: [Q,R] = qr(G·P); C ⟵ [C V]·Q; U ⟵ [U Z]·(P·R⁻¹) — each
    // one sweep over the old pair and the cycle's blocks into a zeroed panel.
    let f = HouseholderQr::factor(blas::matmul(&g, blas::Op::None, &pk, blas::Op::None));
    let q = f.q_thin();
    safe_right_solve(&mut pk, &f.r());
    let mut new = match spare.take() {
        Some(s) if s.u.ncols() == kn => s,
        _ => RecycleSpace {
            u: DMat::zeros(n, kn),
            c: DMat::zeros(n, kn),
        },
    };
    new.c.set_zero();
    fused::fused_accumulate(
        &[ColsRef::whole(&rec.c), ColsRef::blocks(v)],
        &[q.block(0, 0, kc, kn), q.block(kc, 0, rows - kc, kn)],
        &mut new.c,
    );
    new.u.set_zero();
    fused::fused_accumulate(
        &[ColsRef::whole(&rec.u), ColsRef::blocks(z)],
        &[pk.block(0, 0, kc, kn), pk.block(kc, 0, jp, kn)],
        &mut new.u,
    );
    *spare = Some(std::mem::replace(rec, new));
}

/// Reports the smallest harmonic-Ritz magnitude of a deflation eigenproblem
/// that kept `kept` vectors — the quality signal carried on
/// [`DiagKind::RitzQuality`] events (a value near zero flags a nearly
/// singular recycle candidate).
fn report_ritz_quality<S: Scalar>(cx: &Cx<'_, S>, decomp: &EigDecomp, kept: usize) {
    let smallest = decomp
        .values
        .iter()
        .fold(f64::INFINITY, |acc, l| acc.min(l.abs()));
    let iter = cx.tracer.iterations().saturating_sub(1);
    cx.tracer
        .diag(cx.cycle, iter, DiagKind::RitzQuality, smallest, kept);
}

/// `X ⟵ X·R⁻¹` with tiny-pivot protection (deflation eigenvectors can be
/// nearly dependent; a clamped pivot keeps the basis finite and the next
/// CholQR/QR pass cleans it up).
fn safe_right_solve<S: Scalar>(x: &mut DMat<S>, r: &DMat<S>) {
    let k = x.ncols();
    let mut rmax: f64 = 0.0;
    for i in 0..k {
        rmax = rmax.max(r[(i, i)].abs());
    }
    let floor = rmax.max(f64::EPSILON) * f64::EPSILON * 1e3;
    let mut rsafe = r.clone();
    for i in 0..k {
        if rsafe[(i, i)].abs() < floor {
            rsafe[(i, i)] = S::from_f64(floor);
        }
    }
    tri::right_solve_upper(x, &rsafe);
}

/// Select the eigenvectors of the `k` smallest-magnitude eigenvalues as a
/// matrix in the working scalar type. For real scalars, complex-conjugate
/// pairs contribute their real and imaginary parts (both are needed to span
/// the invariant subspace); for complex scalars the vectors embed directly.
/// The choice is made on the eigenvalues alone, so only the chosen
/// eigenvectors are back-substituted.
fn select_smallest<S: Scalar>(decomp: &EigDecomp, k: usize) -> DMat<S> {
    let values = &decomp.values;
    // Each column to keep: its eigenvector, and whether it is that vector's
    // imaginary part.
    let mut picks: Vec<(usize, bool)> = Vec::with_capacity(k);
    if S::is_complex() {
        picks.extend(decomp.smallest_indices(k).into_iter().map(|i| (i, false)));
    } else {
        let tol = f64::EPSILON.sqrt();
        let mut used = vec![false; values.len()];
        for i in decomp.smallest_indices(values.len()) {
            if picks.len() >= k {
                break;
            }
            if used[i] {
                continue;
            }
            used[i] = true;
            let lam = values[i];
            let scale = 1.0 + lam.abs();
            if lam.im.abs() <= tol * scale {
                // Real eigenvalue: real part of the vector.
                picks.push((i, false));
            } else {
                // Complex pair: real and imaginary parts; mark the partner.
                picks.push((i, false));
                if picks.len() < k {
                    picks.push((i, true));
                }
                for (j, &lj) in values.iter().enumerate() {
                    if !used[j]
                        && (lj.re - lam.re).abs() <= tol * scale
                        && (lj.im + lam.im).abs() <= tol * scale
                    {
                        used[j] = true;
                        break;
                    }
                }
            }
        }
    }
    let idx: Vec<usize> = picks.iter().map(|&(i, _)| i).collect();
    let vecs = decomp.vectors(&idx);
    let cols = picks.iter().enumerate().map(|(c, &(_, imag))| {
        let v = vecs.col(c).iter();
        if S::is_complex() {
            v.map(|z| S::from_parts(z.re, z.im)).collect()
        } else if imag {
            v.map(|z| S::from_f64(z.im)).collect()
        } else {
            v.map(|z| S::from_f64(z.re)).collect::<Vec<S>>()
        }
    });
    // Drop numerically zero columns.
    let mut out_cols: Vec<Vec<S>> = Vec::new();
    for col in cols {
        let nrm: f64 = col.iter().map(|v| v.abs_sqr()).sum();
        if nrm.sqrt() > 1e-14 {
            out_cols.push(col);
        }
    }
    let n = decomp.values.len();
    let kk = out_cols.len();
    DMat::from_fn(n, kk, |i, j| out_cols[j][i])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gmres;
    use crate::opts::PrecondSide;
    use kryst_par::IdentityPrecond;
    use kryst_pde::poisson::{paper_rhs_sequence, poisson2d};
    use kryst_sparse::Csr;

    fn check_true_residual<S: Scalar>(a: &Csr<S>, b: &DMat<S>, x: &DMat<S>, rtol: f64) {
        let mut r = a.apply(x);
        r.axpy(-S::one(), b);
        for l in 0..b.ncols() {
            let rel = r.col_norm(l) / b.col_norm(l);
            assert!(rel <= rtol * 50.0, "column {l}: true rel residual {rel}");
        }
    }

    #[test]
    fn single_solve_matches_gmres_quality() {
        let prob = poisson2d::<f64>(14, 14);
        let n = prob.a.nrows();
        let id = IdentityPrecond::new(n);
        let b = DMat::from_fn(n, 1, |i, _| ((i % 6) as f64) - 2.5);
        let opts = SolveOpts {
            rtol: 1e-9,
            restart: 20,
            recycle: 5,
            ..Default::default()
        };
        let mut ctx = SolverContext::new();
        let mut x = DMat::zeros(n, 1);
        let res = solve(&prob.a, &id, &b, &mut x, &opts, &mut ctx);
        assert!(res.converged, "GCRO-DR: {:?}", res.final_relres);
        check_true_residual(&prob.a, &b, &x, 1e-9);
        assert!(ctx.recycle.is_some(), "recycle space must persist");
        assert_eq!(ctx.recycled_cols(), 5);
    }

    #[test]
    fn recycling_reduces_iterations_on_same_system() {
        // The §III-B scenario: identical operator, varying RHS.
        let prob = poisson2d::<f64>(20, 20);
        let n = prob.a.nrows();
        let id = IdentityPrecond::new(n);
        let rhss = paper_rhs_sequence::<f64>(20, 20);
        let opts = SolveOpts {
            rtol: 1e-8,
            restart: 25,
            recycle: 8,
            same_system: true,
            ..Default::default()
        };
        let mut ctx = SolverContext::new();
        let mut counts = Vec::new();
        for rhs in &rhss {
            let b = DMat::from_col_major(n, 1, rhs.clone());
            let mut x = DMat::zeros(n, 1);
            let res = solve(&prob.a, &id, &b, &mut x, &opts, &mut ctx);
            assert!(res.converged);
            check_true_residual(&prob.a, &b, &x, 1e-8);
            counts.push(res.iterations);
        }
        assert!(
            counts[1..].iter().all(|&c| c < counts[0]),
            "recycling must cut iterations: {counts:?}"
        );
    }

    /// A reset context is a fresh one: under `same_system` its next solve
    /// extracts and refreshes the recycle space as a first solve does.
    #[test]
    fn reset_context_recycles_as_a_fresh_one() {
        let prob = poisson2d::<f64>(32, 32);
        let n = prob.a.nrows();
        let jacobi = kryst_precond::Jacobi::new(&prob.a, 1.0);
        let opts = SolveOpts {
            rtol: 1e-8,
            restart: 30,
            recycle: 10,
            side: PrecondSide::Right,
            same_system: true,
            ..Default::default()
        };
        let rhss = paper_rhs_sequence::<f64>(32, 32);
        let run = |ctx: &mut SolverContext<f64>| -> Vec<usize> {
            rhss.iter()
                .map(|rhs| {
                    let b = DMat::from_col_major(n, 1, rhs.clone());
                    let mut x = DMat::zeros(n, 1);
                    let res = solve(&prob.a, &jacobi, &b, &mut x, &opts, ctx);
                    assert!(res.converged);
                    res.iterations
                })
                .collect()
        };
        let fresh = run(&mut SolverContext::new());
        let mut reset = SolverContext::new();
        run(&mut reset);
        reset.reset();
        assert_eq!(run(&mut reset), fresh, "reset context against a fresh one");
    }

    #[test]
    fn gcrodr_beats_gmres_on_rhs_sequence() {
        let prob = poisson2d::<f64>(20, 20);
        let n = prob.a.nrows();
        let id = IdentityPrecond::new(n);
        let rhss = paper_rhs_sequence::<f64>(20, 20);
        let opts = SolveOpts {
            rtol: 1e-8,
            restart: 25,
            recycle: 8,
            ..Default::default()
        };

        let mut total_gmres = 0;
        let mut total_gcrodr = 0;
        let mut ctx = SolverContext::new();
        for rhs in &rhss {
            let b = DMat::from_col_major(n, 1, rhs.clone());
            let mut xg = DMat::zeros(n, 1);
            total_gmres += gmres::solve(&prob.a, &id, &b, &mut xg, &opts).iterations;
            let mut xr = DMat::zeros(n, 1);
            total_gcrodr += solve(&prob.a, &id, &b, &mut xr, &opts, &mut ctx).iterations;
        }
        assert!(
            total_gcrodr < total_gmres,
            "GCRO-DR {total_gcrodr} !< GMRES {total_gmres}"
        );
    }

    #[test]
    fn recycling_survives_operator_change() {
        // §IV-C scenario: slowly varying operators (diagonal perturbation).
        let prob = poisson2d::<f64>(16, 16);
        let n = prob.a.nrows();
        let id = IdentityPrecond::new(n);
        let opts = SolveOpts {
            rtol: 1e-8,
            restart: 20,
            recycle: 6,
            ..Default::default()
        };
        let mut ctx = SolverContext::new();
        let b = DMat::from_fn(n, 1, |i, _| ((i % 5) as f64) - 2.0);
        let mut iters = Vec::new();
        for step in 0..3 {
            let shift = 1.0 + 0.01 * step as f64;
            let a = prob.a.shift_diag(shift);
            let mut x = DMat::zeros(n, 1);
            let res = solve(&a, &id, &b, &mut x, &opts, &mut ctx);
            assert!(res.converged, "step {step}: {:?}", res.final_relres);
            check_true_residual(&a, &b, &x, 1e-8);
            iters.push(res.iterations);
        }
        assert!(iters[2] < iters[0], "sequence iterations {iters:?}");
    }

    #[test]
    fn block_gcrodr_with_multiple_rhs() {
        let prob = poisson2d::<f64>(14, 14);
        let n = prob.a.nrows();
        let id = IdentityPrecond::new(n);
        let p = 3;
        let b = DMat::from_fn(n, p, |i, j| (((i + 2 * j) % 9) as f64) - 4.0);
        let opts = SolveOpts {
            rtol: 1e-8,
            restart: 15,
            recycle: 4,
            ..Default::default()
        };
        let mut ctx = SolverContext::new();
        let mut x = DMat::zeros(n, p);
        let res = solve(&prob.a, &id, &b, &mut x, &opts, &mut ctx);
        assert!(res.converged, "BGCRO-DR: {:?}", res.final_relres);
        check_true_residual(&prob.a, &b, &x, 1e-8);
        // Recycle space width is k·p.
        assert_eq!(ctx.recycled_cols(), 4 * p);
        // Second block solve benefits.
        let mut x2 = DMat::zeros(n, p);
        let opts2 = SolveOpts {
            same_system: true,
            ..opts.clone()
        };
        let res2 = solve(&prob.a, &id, &b, &mut x2, &opts2, &mut ctx);
        assert!(res2.converged);
        assert!(
            res2.iterations < res.iterations,
            "{} !< {}",
            res2.iterations,
            res.iterations
        );
    }

    #[test]
    fn strategies_a_and_b_both_converge() {
        let prob = poisson2d::<f64>(16, 16);
        let n = prob.a.nrows();
        let id = IdentityPrecond::new(n);
        let b = DMat::from_fn(n, 1, |i, _| 1.0 + ((i % 3) as f64));
        for strat in [RecycleStrategy::A, RecycleStrategy::B] {
            let opts = SolveOpts {
                rtol: 1e-8,
                restart: 12,
                recycle: 4,
                recycle_strategy: strat,
                ..Default::default()
            };
            let mut ctx = SolverContext::new();
            let mut x = DMat::zeros(n, 1);
            let res = solve(&prob.a, &id, &b, &mut x, &opts, &mut ctx);
            assert!(res.converged, "{strat:?}: {:?}", res.final_relres);
            check_true_residual(&prob.a, &b, &x, 1e-8);
        }
    }

    #[test]
    fn flexible_gcrodr_with_variable_preconditioner() {
        use kryst_precond::{Amg, AmgOpts, SmootherKind};
        let prob = poisson2d::<f64>(20, 20);
        let n = prob.a.nrows();
        let amg = Amg::new(
            &prob.a,
            prob.near_nullspace.as_ref(),
            &AmgOpts {
                smoother: SmootherKind::Gmres { iters: 2 },
                ..Default::default()
            },
        );
        let rhss = paper_rhs_sequence::<f64>(20, 20);
        let opts = SolveOpts {
            rtol: 1e-8,
            restart: 20,
            recycle: 6,
            side: PrecondSide::Flexible,
            same_system: true,
            ..Default::default()
        };
        let mut ctx = SolverContext::new();
        let mut iters = Vec::new();
        for rhs in &rhss {
            let b = DMat::from_col_major(n, 1, rhs.clone());
            let mut x = DMat::zeros(n, 1);
            let res = solve(&prob.a, &amg, &b, &mut x, &opts, &mut ctx);
            assert!(res.converged, "FGCRO-DR: {:?}", res.final_relres);
            check_true_residual(&prob.a, &b, &x, 1e-7);
            iters.push(res.iterations);
        }
        assert!(iters[1] <= iters[0], "FGCRO-DR recycling: {iters:?}");
    }

    #[test]
    fn complex_gcrodr_on_maxwell() {
        use kryst_pde::maxwell::{antenna_ring_rhs, maxwell3d, MaxwellParams};
        use kryst_scalar::C64;
        let params = MaxwellParams::matching_solution(4);
        let (prob, geom) = maxwell3d(&params);
        let n = prob.a.nrows();
        let id = IdentityPrecond::new(n);
        let rhs = antenna_ring_rhs(&geom, &params, 4, 0.3, 0.5);
        let opts = SolveOpts {
            rtol: 1e-7,
            restart: 40,
            recycle: 10,
            max_iters: 4000,
            same_system: true,
            ..Default::default()
        };
        let mut ctx = SolverContext::<C64>::new();
        let mut iters = Vec::new();
        for l in 0..4 {
            let b = DMat::from_col_major(n, 1, rhs.col(l).to_vec());
            let mut x = DMat::<C64>::zeros(n, 1);
            let res = solve(&prob.a, &id, &b, &mut x, &opts, &mut ctx);
            assert!(res.converged, "antenna {l}: {:?}", res.final_relres);
            check_true_residual(&prob.a, &b, &x, 1e-6);
            iters.push(res.iterations);
        }
        assert!(
            iters[1..].iter().all(|&c| c <= iters[0]),
            "complex recycling: {iters:?}"
        );
    }

    #[test]
    fn same_system_skips_refresh_but_stays_correct() {
        let prob = poisson2d::<f64>(12, 12);
        let n = prob.a.nrows();
        let id = IdentityPrecond::new(n);
        let b1 = DMat::from_fn(n, 1, |i, _| (i % 4) as f64);
        let b2 = DMat::from_fn(n, 1, |i, _| ((i + 2) % 5) as f64);
        let opts = SolveOpts {
            rtol: 1e-9,
            restart: 15,
            recycle: 5,
            same_system: true,
            ..Default::default()
        };
        let mut ctx = SolverContext::new();
        let mut x1 = DMat::zeros(n, 1);
        solve(&prob.a, &id, &b1, &mut x1, &opts, &mut ctx);
        let mut x2 = DMat::zeros(n, 1);
        let res2 = solve(&prob.a, &id, &b2, &mut x2, &opts, &mut ctx);
        assert!(res2.converged);
        check_true_residual(&prob.a, &b2, &x2, 1e-9);
    }

    /// The identity, until its `after`-th apply: from then on every entry
    /// it writes is NaN.
    struct NanAfter {
        n: usize,
        after: usize,
        calls: std::sync::atomic::AtomicUsize,
    }

    impl kryst_par::PrecondOp<f64> for NanAfter {
        fn nrows(&self) -> usize {
            self.n
        }
        fn apply(&self, r: &DMat<f64>, z: &mut DMat<f64>) {
            use std::sync::atomic::Ordering::Relaxed;
            if self.calls.fetch_add(1, Relaxed) < self.after {
                z.copy_from(r);
            } else {
                z.fill(f64::NAN);
            }
        }
    }

    /// A cycle whose residual comes back NaN carries nothing over: the solve
    /// hands back the recycle space it had before that cycle, bit for bit,
    /// and runs no eigensolve or refresh on it. In the first cycle that is
    /// no space at all (not an extraction from NaN); in the second, the
    /// space the first cycle extracted.
    #[test]
    fn a_non_finite_cycle_keeps_the_recycle_space() {
        use kryst_obs::{spans_of, Recorder, RingRecorder};
        use std::sync::Arc;
        let prob = poisson2d::<f64>(16, 16);
        let n = prob.a.nrows();
        let b = DMat::from_fn(n, 2, |i, j| (((i * 7 + j) % 11) as f64) - 5.0);
        let ring = Arc::new(RingRecorder::new(1 << 14));
        let opts = SolveOpts {
            rtol: 1e-12,
            restart: 10,
            recycle: 3,
            recorder: Some(ring.clone() as Arc<dyn Recorder>),
            ..Default::default()
        };
        let pc = |after| NanAfter {
            n,
            after,
            calls: Default::default(),
        };
        let bits = |ctx: &SolverContext<f64>| -> Option<Vec<u64>> {
            let rec = ctx.recycle.as_ref()?;
            let cols = rec.u.as_slice().iter().chain(rec.c.as_slice());
            Some(cols.map(|v| v.to_bits()).collect())
        };
        // The first cycle alone, and the preconditioner applies it takes.
        let (mut first, finite) = (SolverContext::new(), pc(usize::MAX));
        let one_cycle = SolveOpts {
            max_iters: 10,
            ..opts.clone()
        };
        solve(
            &prob.a,
            &finite,
            &b,
            &mut DMat::zeros(n, 2),
            &one_cycle,
            &mut first,
        );
        let applies = finite.calls.into_inner();
        assert!(bits(&first).is_some());
        // The same solve, its preconditioner failing three steps into the
        // first cycle, then three steps into the second.
        for (nan_from, space, eig_cycles) in
            [(3, None, vec![]), (applies + 3, bits(&first), vec![0])]
        {
            ring.clear();
            let mut ctx = SolverContext::new();
            let res = solve(
                &prob.a,
                &pc(nan_from),
                &b,
                &mut DMat::zeros(n, 2),
                &opts,
                &mut ctx,
            );
            assert!(!res.converged);
            assert!(res.final_relres.iter().any(|v| !v.is_finite()));
            assert_eq!(
                bits(&ctx),
                space,
                "NaN from apply {nan_from}: the recycle space"
            );
            let events = ring.events();
            let eigs = spans_of(&events, SpanKind::Eigensolve);
            let cycles: Vec<usize> = eigs.iter().map(|s| s.cycle).collect();
            assert_eq!(
                cycles, eig_cycles,
                "NaN from apply {nan_from}: eigensolves by cycle"
            );
            assert!(spans_of(&events, SpanKind::RecycleRefresh).is_empty());
        }
    }
}
