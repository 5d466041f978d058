//! Gram–Schmidt orthogonalization schemes.
//!
//! The Arnoldi step of every solver in `kryst-core` orthogonalizes the new
//! candidate block `W` against the existing basis `V` and then within itself.
//! The paper's §III-D counts the *global reductions* of each scheme, which is
//! why several are provided:
//!
//! * **CholQR** (the paper's choice) and **classical (CGS)** — the fused
//!   low-synchronization step [`fused_orthogonalize_block`]: one reduction
//!   per pass for the projection and the Gram matrix together, the CholQR
//!   factor from a Gram downdate; CGS always takes the second pass,
//! * **Modified (MGS)** — [`mgs_orthogonalize`]: one reduction *per basis
//!   column*, the stable textbook choice,
//! * **Iterated Modified (IMGS)** — Belos' default: MGS repeated until the
//!   norm stops dropping (here: a fixed two passes, the standard
//!   "twice-is-enough" criterion).

use crate::blas::{self, Op};
use crate::chol;
use crate::fused::{self, ColsRef};
use crate::tri;
use crate::DMat;
use kryst_scalar::Scalar;

/// Which orthogonalization scheme the solvers use.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum OrthScheme {
    /// Classical Gram–Schmidt (single fused reduction), re-orthogonalized once.
    Cgs,
    /// Modified Gram–Schmidt.
    Mgs,
    /// Iterated (two-pass) modified Gram–Schmidt — Belos' default.
    Imgs,
    /// Cholesky-QR for the intra-block factorization (paper's choice).
    CholQr,
}

impl OrthScheme {
    /// Stable lowercase name used in solver traces.
    pub fn name(self) -> &'static str {
        match self {
            OrthScheme::Cgs => "cgs",
            OrthScheme::Mgs => "mgs",
            OrthScheme::Imgs => "imgs",
            OrthScheme::CholQr => "cholqr",
        }
    }
}

/// Projection coefficients produced by [`mgs_orthogonalize`]: the new block
/// satisfies `W_orig = V·C + Q·R` with `Q` the orthonormalized output block.
pub struct BlockOrth<S: Scalar> {
    /// Coefficients against the existing basis (`V.ncols() × p`).
    pub coeffs: DMat<S>,
    /// Intra-block triangular factor (`p × p`).
    pub r: DMat<S>,
    /// Numerical rank of the block after projection.
    pub rank: usize,
    /// Number of global reductions this call would cost in a distributed run.
    pub reductions: usize,
    /// Total scalar elements those reductions carry (§III-D byte accounting):
    /// the sum over every reduced product of its element count.
    pub reduction_elems: usize,
}

/// Modified Gram–Schmidt: orthogonalize `w` (n×p) against the basis `v` one
/// column at a time, twice when `iterated` (IMGS), then orthonormalize it
/// internally column by column, returning the projection coefficients.
///
/// `v` is a borrowed view, so a basis kept one matrix per Krylov block is
/// read where it lives.
pub fn mgs_orthogonalize<S: Scalar>(
    v: ColsRef<'_, S>,
    w: &mut DMat<S>,
    iterated: bool,
) -> BlockOrth<S> {
    let _t = kryst_obs::traced(kryst_obs::SpanKind::OrthGram);
    let ncols = v.ncols();
    assert!(ncols == 0 || v.nrows() == w.nrows());
    let p = w.ncols();
    let mut coeffs = DMat::zeros(ncols, p);
    let mut reductions = 0;
    let mut elems = 0;

    let passes = if iterated { 2 } else { 1 };
    for _pass in 0..passes {
        for j in 0..ncols {
            let vj = v.col(j);
            for l in 0..p {
                let wl = w.col_mut(l);
                let mut dot = S::zero();
                for (a, b) in vj.iter().zip(wl.iter()) {
                    dot += a.conj() * *b;
                }
                for (a, b) in vj.iter().zip(wl.iter_mut()) {
                    *b -= dot * *a;
                }
                coeffs[(j, l)] += dot;
            }
            reductions += 1; // one reduction per basis column (dots fused over l)
            elems += p;
        }
    }

    // Intra-block orthonormalization; each reduction carries a single
    // scalar (one dot or norm).
    let mut r = DMat::zeros(p, p);
    let mut rank = p;
    for l in 0..p {
        // Project against the already-normalized columns of w.
        for j in 0..l {
            let dot = w.col_dot(j, w, l);
            let (dst, src) = w.two_cols_mut(l, j);
            for (d, s) in dst.iter_mut().zip(src.iter()) {
                *d -= dot * *s;
            }
            r[(j, l)] = dot;
            reductions += 1;
            elems += 1;
        }
        let nrm = w.col_norm(l);
        reductions += 1;
        elems += 1;
        if nrm <= f64::EPSILON {
            rank = rank.min(l);
            r[(l, l)] = S::zero();
        } else {
            r[(l, l)] = S::from_f64(nrm);
            w.scale_col(l, S::one() / S::from_f64(nrm));
        }
    }

    BlockOrth {
        coeffs,
        r,
        rank,
        reductions,
        reduction_elems: elems,
    }
}

/// Projection coefficients produced by [`fused_orthogonalize_block`]: the new
/// block satisfies `W_orig = C·Cc + V·Cv + Q·R` with `Q` the orthonormalized
/// output block (the `C` term only when a recycle projector was supplied).
pub struct FusedOrth<S: Scalar> {
    /// Coefficients against the recycle projector `C` (`C.ncols() × p`),
    /// present iff a projector was supplied.
    pub c_coeffs: Option<DMat<S>>,
    /// Coefficients against the existing basis (`ncols × p`).
    pub coeffs: DMat<S>,
    /// Intra-block triangular factor (`p × p`).
    pub r: DMat<S>,
    /// Numerical rank of the block after projection.
    pub rank: usize,
    /// Number of global reductions this call would cost in a distributed run.
    pub reductions: usize,
    /// Number of logically separate products batched into those reductions
    /// (`CᴴW`, `VᴴW`, `WᴴW` count as three parts of one fused reduction).
    pub reduction_parts: usize,
    /// Total scalar elements the reductions carry.
    pub reduction_elems: usize,
    /// Fused passes performed (1, or 2 when re-orthogonalization triggered).
    pub passes: usize,
    /// Whether the Cholesky of the downdated Gram was rejected and a full
    /// CholQR refresh (one genuine extra reduction) ran instead.
    pub refreshed: bool,
    /// Cancellation amplification of the first pass: `max_l √(g_ll/g'_ll)`,
    /// clamped to ≥ 1. A single-pass step amplifies whatever mutual
    /// non-orthogonality the basis already carries by about this factor
    /// *squared* (projection residue × normalization scaling), so callers
    /// chain `amp²` into a running loss estimate (see
    /// [`fused_orthogonalize_block`]'s `loss` parameter).
    pub amp: f64,
}

/// Low-synchronization block orthogonalization: one **fused** reduction per
/// pass computes `[CᴴW; VᴴW; WᴴW]` together, the projection is applied, and
/// the intra-block factor comes from a *Gram downdate* instead of a fresh
/// product — `W'ᴴW' = WᴴW − SᴄᴴSᴄ − SᵥᴴSᵥ` exactly when `C` and `V` are
/// orthonormal with `C ⟂ V` — so the CholQR step costs **zero** extra
/// reductions. This is the paper's §III-D latency argument turned into code:
/// one reduction per iteration (two with re-orthogonalization) versus the
/// classic `j+2`-style accumulation of separate products.
///
/// A second fused pass runs when `reorth` is set, or adaptively. Two distinct
/// hazards drive the adaptive trigger:
///
/// * **Downdate accuracy** — the downdate's absolute error is O(ε·g), so if
///   only a fraction `t < ε^(1/4)` of a column's squared mass survives the
///   projection, the free CholQR factor would carry a relative error above
///   ~ε^(3/4);
/// * **Accumulated orthogonality loss** — a single-pass projection against a
///   basis with mutual non-orthogonality `loss` leaves a residue of about
///   `loss · amp` in the new vector (`amp = max √(g/g')`, the pass's
///   cancellation factor), and normalizing the cancelled column scales that
///   residue up by another factor `amp` — so each single-pass step multiplies
///   the basis loss by `amp²` (observable empirically: the measured
///   `‖VᴴV − I‖` tracks `ε·∏ ampⱼ²` step for step). The caller threads its
///   running estimate in through `loss` (start a fresh orthonormal basis at
///   machine ε, multiply by `amp²` after every single-pass step); once
///   `loss · amp²` would exceed ~ε^(5/8) the second pass fires and the
///   estimate stops growing. This is what keeps long single-pass streaks
///   from silently compounding — per-step cancellation can look harmless
///   while the product over a cycle climbs into the solver's tolerance.
///
/// If the downdated Gram is not safely positive definite the routine falls
/// back to a full [`chol::cholqr`] refresh — one genuine extra reduction,
/// flagged in [`FusedOrth::refreshed`].
pub fn fused_orthogonalize_block<S: Scalar>(
    c: Option<&DMat<S>>,
    v: &DMat<S>,
    ncols: usize,
    w: &mut DMat<S>,
    reorth: bool,
    loss: f64,
) -> FusedOrth<S> {
    fused_orthogonalize_cols(c, ColsRef::leading(v, ncols), w, reorth, loss)
}

/// [`fused_orthogonalize_block`] against any column view of the basis — the
/// form the Arnoldi cycle calls, whose basis is one matrix per Krylov block
/// ([`ColsRef::blocks`]) so that `w` can be the next block itself.
///
/// A step that needs the second pass reads the basis three times, not four:
/// the Gram product of pass 1, then pass 1's update fused with pass 2's Gram
/// product row chunk by row chunk ([`fused::fused_update_gram`]), then pass
/// 2's update. The decision to take the second pass depends only on pass 1's
/// Gram product, so it is made before `w` is touched.
pub fn fused_orthogonalize_cols<S: Scalar>(
    c: Option<&DMat<S>>,
    v: ColsRef<'_, S>,
    w: &mut DMat<S>,
    reorth: bool,
    loss: f64,
) -> FusedOrth<S> {
    let _t = kryst_obs::traced(kryst_obs::SpanKind::OrthGram);
    let ncols = v.ncols();
    assert!(ncols == 0 || v.nrows() == w.nrows());
    let p = w.ncols();
    let kc = c.map_or(0, |m| m.ncols());
    if let Some(cm) = c {
        assert_eq!(cm.nrows(), w.nrows());
    }
    // Panels `[C, V]` and their products `[Sᴄ, Sᵥ, G]`; without a projector
    // the `C` slot is skipped by slicing both from `lo`.
    let panels = [c.map_or(v, ColsRef::whole), v];
    let lo = usize::from(c.is_none());
    let blocks = &panels[lo..];
    let stack = || [DMat::zeros(kc, p), DMat::zeros(ncols, p), DMat::zeros(p, p)];
    let mut coeffs = DMat::zeros(ncols, p);
    let mut c_coeffs = c.map(|_| DMat::zeros(kc, p));
    let mut gdown = DMat::zeros(p, p);
    // Gram downdate W'ᴴW' = WᴴW − SᴄᴴSᴄ − SᵥᴴSᵥ (all local) into `gdown`,
    // and the pass's coefficients added to the running totals.
    let mut absorb = |s: &[DMat<S>; 3], gdown: &mut DMat<S>| {
        gdown.copy_from(&s[2]);
        for sb in &s[..2] {
            if sb.nrows() > 0 {
                blas::gemm(-S::one(), sb, Op::ConjTrans, sb, Op::None, S::one(), gdown);
            }
        }
        if let Some(cc) = c_coeffs.as_mut() {
            cc.axpy(S::one(), &s[0]);
        }
        if ncols > 0 {
            coeffs.axpy(S::one(), &s[1]);
        }
    };
    // Per fused product: [CᴴW; VᴴW; WᴴW] in a single sweep/reduction.
    let parts = 1 + usize::from(ncols > 0) + usize::from(kc > 0);
    let elems = (kc + ncols + p) * p;

    let mut s = stack();
    fused::fused_gram(blocks, w, &mut s[lo..]);
    absorb(&s, &mut gdown);
    let mut passes = 1usize;

    // First-pass cancellation amplification: max over columns of
    // √(g_ll / g'_ll), clamped to ≥ 1; non-positive downdated diagonals
    // count as infinite cancellation.
    let mut amp = 1.0f64;
    for l in 0..p {
        let gl = s[2][(l, l)].re();
        let dl = gdown[(l, l)].re();
        amp = if dl > 0.0 {
            amp.max((gl / dl).max(1.0).sqrt())
        } else {
            f64::INFINITY
        };
    }
    // Second pass when requested, when the downdate retains too small a
    // fraction of some column's squared mass for the free CholQR factor
    // to be accurate (below ε^(1/4)), or when the accumulated basis loss
    // amplified by this pass would cross the ε^(5/8) orthogonality
    // budget (≈1.6e-10 in f64 — comfortably under solver tolerances).
    let mut need = reorth && (ncols > 0 || kc > 0);
    if !need && (ncols > 0 || kc > 0) {
        let eps = f64::EPSILON;
        let dd_cut = eps.sqrt().sqrt();
        let loss_cut = eps.sqrt() * eps.sqrt().sqrt().sqrt();
        for l in 0..p {
            let gl = s[2][(l, l)].re();
            let dl = gdown[(l, l)].re();
            if dl < dd_cut * gl {
                need = true;
                break;
            }
        }
        if loss.max(eps) * amp * amp > loss_cut {
            need = true;
        }
    }
    if need {
        // Projection update W ⟵ W − C·Sᴄ − V·Sᵥ of pass 1 and the fused
        // product of pass 2, one sweep.
        let mut s2 = stack();
        fused::fused_update_gram(blocks, &s[lo..2], w, &mut s2[lo..]);
        absorb(&s2, &mut gdown);
        passes = 2;
        s = s2;
    }
    // The last pass's projection update.
    fused::fused_update(blocks, &s[lo..2], w);
    let reductions = passes;
    let parts = passes * parts;
    let elems = passes * elems;

    // The downdated Gram already *is* the Gram of the projected block, so the
    // CholQR factor is free: no extra reduction unless we must refresh.
    let accepted = chol::well_conditioned_cholesky(&gdown).map(|(r, _)| r);
    match accepted {
        Some(r) => {
            tri::right_solve_upper(w, &r);
            FusedOrth {
                c_coeffs,
                coeffs,
                r,
                rank: p,
                reductions,
                reduction_parts: parts,
                reduction_elems: elems,
                passes,
                refreshed: false,
                amp,
            }
        }
        None => {
            // Safety valve: the downdate lost too much accuracy (or the block
            // is rank-deficient) — pay one genuine Gram reduction for a
            // rank-revealing CholQR refresh. Any replacement columns the
            // breakdown fixup injects must stay orthogonal to C and the
            // Arnoldi basis: the fused Gram downdate assumes that invariant
            // on every later step of the cycle.
            let out = chol::cholqr_within(w, blocks);
            FusedOrth {
                c_coeffs,
                coeffs,
                r: out.r,
                rank: out.rank,
                reductions: reductions + 1,
                reduction_parts: parts + 1,
                reduction_elems: elems + p * p,
                passes,
                refreshed: true,
                amp,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blas::matmul;
    use crate::mat::bits;
    use kryst_scalar::C64;

    fn basis(n: usize, k: usize) -> DMat<f64> {
        let mut v = DMat::from_fn(n, k, |i, j| ((i * 7 + j * 13) % 19) as f64 - 9.0);
        let _ = chol::cholqr(&mut v);
        v
    }

    /// `w` orthogonalized against all of `v` the way the Arnoldi cycle runs
    /// `scheme`: `(coeffs, r, rank, reductions, reduction_elems)`.
    fn orth_like_the_cycle<S: Scalar>(
        v: &DMat<S>,
        w: &mut DMat<S>,
        scheme: OrthScheme,
    ) -> (DMat<S>, DMat<S>, usize, usize, usize) {
        match scheme {
            OrthScheme::Cgs | OrthScheme::CholQr => {
                let reorth = scheme == OrthScheme::Cgs;
                let out = fused_orthogonalize_block(None, v, v.ncols(), w, reorth, 0.0);
                let (red, elems) = (out.reductions, out.reduction_elems);
                (out.coeffs, out.r, out.rank, red, elems)
            }
            OrthScheme::Mgs | OrthScheme::Imgs => {
                let out = mgs_orthogonalize(ColsRef::whole(v), w, scheme == OrthScheme::Imgs);
                let (red, elems) = (out.reductions, out.reduction_elems);
                (out.coeffs, out.r, out.rank, red, elems)
            }
        }
    }

    fn check_scheme(scheme: OrthScheme) {
        let n = 50;
        let v = basis(n, 5);
        let w0 = DMat::from_fn(n, 3, |i, j| ((i * 3 + j * 11) % 23) as f64 - 11.0);
        let mut w = w0.clone();
        let (coeffs, r, rank, _, _) = orth_like_the_cycle(&v, &mut w, scheme);
        assert_eq!(rank, 3);
        // VᴴQ ≈ 0
        let c = blas::adjoint_times(&v, &w);
        assert!(
            c.max_abs() < 1e-10,
            "{scheme:?}: basis orthogonality {}",
            c.max_abs()
        );
        // QᴴQ ≈ I
        let g = blas::adjoint_times(&w, &w);
        for i in 0..3 {
            for j in 0..3 {
                let e = if i == j { 1.0 } else { 0.0 };
                assert!((g[(i, j)] - e).abs() < 1e-10, "{scheme:?}: Gram ({i},{j})");
            }
        }
        // Reconstruction: W0 = V·C + Q·R
        let mut rec = matmul(&v, Op::None, &coeffs, Op::None);
        let qr = matmul(&w, Op::None, &r, Op::None);
        rec.axpy(1.0, &qr);
        for i in 0..n {
            for j in 0..3 {
                assert!(
                    (rec[(i, j)] - w0[(i, j)]).abs() < 1e-9,
                    "{scheme:?}: reconstruction ({i},{j})"
                );
            }
        }
    }

    #[test]
    fn all_schemes_orthogonalize() {
        for scheme in [
            OrthScheme::Cgs,
            OrthScheme::Mgs,
            OrthScheme::Imgs,
            OrthScheme::CholQr,
        ] {
            check_scheme(scheme);
        }
    }

    #[test]
    fn complex_cholqr_block_orth() {
        let n = 40;
        let mut vb = DMat::<C64>::from_fn(n, 4, |i, j| {
            C64::from_parts(((i + j * 3) % 7) as f64, ((i * 5 + j) % 11) as f64 - 5.0)
        });
        let _ = chol::cholqr(&mut vb);
        let mut w = DMat::<C64>::from_fn(n, 2, |i, j| {
            C64::from_parts(((i * 2 + j) % 9) as f64 - 4.0, (i % 3) as f64)
        });
        let (_, _, rank, _, _) = orth_like_the_cycle(&vb, &mut w, OrthScheme::CholQr);
        assert_eq!(rank, 2);
        let c = blas::adjoint_times(&vb, &w);
        assert!(c.max_abs() < 1e-10);
    }

    #[test]
    fn reduction_counts_reflect_scheme() {
        let n = 30;
        let v = basis(n, 4);
        let w0 = DMat::from_fn(n, 2, |i, j| (i + j) as f64 + 0.5);
        let mut w = w0.clone();
        let (.., cholqr, cholqr_elems) = orth_like_the_cycle(&v, &mut w, OrthScheme::CholQr);
        // CholQR: one fused reduction carrying VᴴW and WᴴW.
        assert_eq!(cholqr, 1);
        assert_eq!(cholqr_elems, (4 + 2) * 2);
        let mut w = w0.clone();
        let (.., mgs, mgs_elems) = orth_like_the_cycle(&v, &mut w, OrthScheme::Mgs);
        // MGS: k reductions (projection) + per-column intra-block work.
        assert!(mgs > cholqr);
        // MGS: ncols·p projection elements + p(p+1)/2 intra scalars.
        assert_eq!(mgs_elems, 4 * 2 + 2 * 3 / 2);
    }

    #[test]
    fn mgs_reads_block_views_bit_for_bit() {
        // A basis kept one matrix per Krylov block gives the same bits as
        // the same columns side by side in one matrix.
        let n = 37;
        let v = basis(n, 6);
        let blocks: Vec<DMat<f64>> = (0..3).map(|b| v.cols(2 * b, 2)).collect();
        let w0 = DMat::from_fn(n, 2, |i, j| ((i * 5 + j * 7) % 17) as f64 - 8.0);
        for iterated in [false, true] {
            let (mut wa, mut wb) = (w0.clone(), w0.clone());
            let a = mgs_orthogonalize(ColsRef::blocks(&blocks), &mut wa, iterated);
            let b = mgs_orthogonalize(ColsRef::whole(&v), &mut wb, iterated);
            assert_eq!(bits(&a.coeffs), bits(&b.coeffs));
            assert_eq!(bits(&a.r), bits(&b.r));
            assert_eq!(bits(&wa), bits(&wb));
        }
    }

    #[test]
    fn fused_orthogonalizes_with_recycle_projector() {
        let n = 60;
        // Orthonormal C ⟂ V: orthogonalize a 7-column block, split 3 + 4.
        let mut cv = DMat::from_fn(n, 7, |i, j| ((i * 7 + j * 13) % 19) as f64 - 9.0);
        let _ = chol::cholqr(&mut cv);
        let c = cv.cols(0, 3);
        let v = cv.cols(3, 4);
        let w0 = DMat::from_fn(n, 2, |i, j| ((i * 3 + j * 11) % 23) as f64 - 11.0);
        let mut w = w0.clone();
        let out = fused_orthogonalize_block(Some(&c), &v, 4, &mut w, false, 0.0);
        assert_eq!(out.rank, 2);
        assert!(!out.refreshed);
        // CᴴQ ≈ 0 and VᴴQ ≈ 0.
        assert!(blas::adjoint_times(&c, &w).max_abs() < 1e-10);
        assert!(blas::adjoint_times(&v, &w).max_abs() < 1e-10);
        // QᴴQ ≈ I.
        let g = blas::adjoint_times(&w, &w);
        for i in 0..2 {
            for j in 0..2 {
                let e = if i == j { 1.0 } else { 0.0 };
                assert!((g[(i, j)] - e).abs() < 1e-10, "Gram ({i},{j})");
            }
        }
        // Reconstruction: W0 = C·Cc + V·Cv + Q·R.
        let cc = out.c_coeffs.as_ref().unwrap();
        let mut rec = matmul(&c, Op::None, cc, Op::None);
        rec.axpy(1.0, &matmul(&v, Op::None, &out.coeffs, Op::None));
        rec.axpy(1.0, &matmul(&w, Op::None, &out.r, Op::None));
        for i in 0..n {
            for j in 0..2 {
                assert!(
                    (rec[(i, j)] - w0[(i, j)]).abs() < 1e-9,
                    "reconstruction ({i},{j})"
                );
            }
        }
    }

    #[test]
    fn fused_reduction_counts() {
        let n = 50;
        let v = basis(n, 5);
        let w0 = DMat::from_fn(n, 3, |i, j| ((i * 3 + j * 11) % 23) as f64 - 11.0);
        // Well-separated block, no re-orthogonalization: ONE fused reduction
        // covering VᴴW and WᴴW, and the CholQR factor comes from the
        // downdate for free.
        let mut w = w0.clone();
        let out = fused_orthogonalize_block(None, &v, 5, &mut w, false, 0.0);
        assert_eq!(out.reductions, 1);
        assert_eq!(out.passes, 1);
        assert_eq!(out.reduction_parts, 2);
        assert_eq!(out.reduction_elems, (5 + 3) * 3);
        assert!(!out.refreshed);
        // Re-orthogonalized variant: exactly two fused reductions.
        let mut w = w0.clone();
        let out = fused_orthogonalize_block(None, &v, 5, &mut w, true, 0.0);
        assert_eq!(out.reductions, 2);
        assert_eq!(out.passes, 2);
        assert!(!out.refreshed);
        assert!(blas::adjoint_times(&v, &w).max_abs() < 1e-12);
        // First iteration of a cycle (empty basis): the Gram IS the fused
        // product; still one reduction even with reorth requested.
        let empty = DMat::zeros(n, 0);
        let mut w = w0.clone();
        let out = fused_orthogonalize_block(None, &empty, 0, &mut w, true, 0.0);
        assert_eq!(out.reductions, 1);
        assert_eq!(out.reduction_parts, 1);
        assert_eq!(out.reduction_elems, 3 * 3);
    }

    #[test]
    fn fused_adaptive_pass_triggers_on_cancellation() {
        let n = 40;
        let v = basis(n, 3);
        // W ≈ span(V) + tiny noise: the projection cancels all but ~1e-14 of
        // each column's squared mass — past the √ε downdate-accuracy cut —
        // so the adaptive criterion must fire a second pass (or refresh).
        let vc = v.cols(0, 3);
        let coeff = DMat::from_fn(3, 2, |i, j| (i + j + 1) as f64);
        let mut w = matmul(&vc, Op::None, &coeff, Op::None);
        for i in 0..n {
            for j in 0..2 {
                w[(i, j)] += 1e-7 * (((i * 31 + j * 17 + 7) % 29) as f64 - 14.0);
            }
        }
        let out = fused_orthogonalize_block(None, &v, 3, &mut w, false, 0.0);
        assert!(
            out.passes == 2 || out.refreshed,
            "cancellation must trigger a second pass or refresh"
        );
        assert!(blas::adjoint_times(&v, &w).max_abs() < 1e-10);
        let g = blas::adjoint_times(&w, &w);
        for i in 0..2 {
            for j in 0..2 {
                let e = if i == j { 1.0 } else { 0.0 };
                assert!((g[(i, j)] - e).abs() < 1e-8, "Gram ({i},{j})");
            }
        }
    }

    /// The orthogonalization as separate sweeps — Gram product, update,
    /// downdate, once per pass — which the fused sequence must reproduce bit
    /// for bit. Returns `(c_coeffs, coeffs, gdown, amp)` after `passes`.
    fn unfused_passes<S: Scalar>(
        c: &DMat<S>,
        v: &DMat<S>,
        w: &mut DMat<S>,
        passes: usize,
    ) -> (DMat<S>, DMat<S>, DMat<S>, f64) {
        let (kc, ncols, p) = (c.ncols(), v.ncols(), w.ncols());
        let blocks = [ColsRef::whole(c), ColsRef::whole(v)];
        let mut c_coeffs = DMat::zeros(kc, p);
        let mut coeffs = DMat::zeros(ncols, p);
        let mut gdown = DMat::zeros(p, p);
        let mut amp = 1.0f64;
        for pass in 0..passes {
            let mut s = vec![DMat::zeros(kc, p), DMat::zeros(ncols, p), DMat::zeros(p, p)];
            fused::fused_gram(&blocks, w, &mut s);
            fused::fused_update(&blocks, &s[..2], w);
            gdown = s[2].clone();
            for sb in &s[..2] {
                blas::gemm(
                    -S::one(),
                    sb,
                    Op::ConjTrans,
                    sb,
                    Op::None,
                    S::one(),
                    &mut gdown,
                );
            }
            c_coeffs.axpy(S::one(), &s[0]);
            coeffs.axpy(S::one(), &s[1]);
            if pass == 0 {
                for l in 0..p {
                    let gl = s[2][(l, l)].re();
                    let dl = gdown[(l, l)].re();
                    amp = if dl > 0.0 {
                        amp.max((gl / dl).max(1.0).sqrt())
                    } else {
                        f64::INFINITY
                    };
                }
            }
        }
        (c_coeffs, coeffs, gdown, amp)
    }

    fn two_pass_matches_unfused<S: Scalar>(n: usize, p: usize) {
        // Orthonormal C ⟂ V, and a block that lies in their span up to a
        // 1e-5 perturbation: the downdate keeps ~1e-10 of each column's
        // squared mass, far below the ε^(1/4) cut, so the second pass fires.
        let mut cv = DMat::<S>::from_fn(n, 9, |i, j| {
            S::from_parts(
                ((i * 7 + j * 13) % 19) as f64 - 9.0,
                ((i * 5 + j * 3) % 11) as f64 - 5.0,
            )
        });
        let _ = chol::cholqr(&mut cv);
        let c = cv.cols(0, 3);
        let v = cv.cols(3, 6);
        let mix = DMat::<S>::from_fn(9, p, |i, j| S::from_parts((i + 2 * j + 1) as f64, 0.5));
        let mut w0 = matmul(&cv, Op::None, &mix, Op::None);
        for j in 0..p {
            for i in 0..n {
                w0[(i, j)] += S::from_f64(1e-5 * (((i * 31 + j * 17 + 7) % 29) as f64 - 14.0));
            }
        }
        let mut w = w0.clone();
        let out = fused_orthogonalize_block(Some(&c), &v, 6, &mut w, false, 0.0);
        assert_eq!(out.passes, 2, "cancellation must force the second pass");
        assert!(!out.refreshed);
        let mut wr = w0.clone();
        let (cc, cf, gdown, amp) = unfused_passes(&c, &v, &mut wr, 2);
        let r = chol::cholesky(&gdown).expect("downdated Gram is positive definite");
        tri::right_solve_upper(&mut wr, &r);
        assert_eq!(bits(out.c_coeffs.as_ref().unwrap()), bits(&cc));
        assert_eq!(bits(&out.coeffs), bits(&cf));
        assert_eq!(bits(&out.r), bits(&r));
        assert_eq!(bits(&w), bits(&wr));
        assert_eq!(out.amp.to_bits(), amp.to_bits());
        assert_eq!(out.reductions, 2);
        assert_eq!(out.reduction_parts, 6);
        assert_eq!(out.reduction_elems, 2 * (3 + 6 + p) * p);
    }

    #[test]
    fn fused_two_pass_step_is_bitwise_the_unfused_sequence() {
        // 1100 rows cross two chunk boundaries of the fused sweeps.
        two_pass_matches_unfused::<f64>(1100, 1);
        two_pass_matches_unfused::<f64>(1100, 3);
        two_pass_matches_unfused::<C64>(700, 2);
    }

    #[test]
    fn fused_refresh_after_two_passes_is_bitwise_the_unfused_sequence() {
        // Two identical columns: after both passes the downdated Gram is
        // singular, the Cholesky is rejected and the rank-revealing refresh
        // runs on the twice-projected block.
        let n = 600;
        let mut cv = DMat::from_fn(n, 7, |i, j| ((i * 7 + j * 13) % 19) as f64 - 9.0);
        let _ = chol::cholqr(&mut cv);
        let c = cv.cols(0, 3);
        let v = cv.cols(3, 4);
        let w0 = DMat::from_fn(n, 2, |i, _| ((i * 3) % 23) as f64 - 11.0);
        let mut w = w0.clone();
        let out = fused_orthogonalize_block(Some(&c), &v, 4, &mut w, true, 0.0);
        assert_eq!(out.passes, 2);
        assert!(out.refreshed);
        assert_eq!(out.rank, 1);
        let mut wr = w0.clone();
        let (cc, cf, _, amp) = unfused_passes(&c, &v, &mut wr, 2);
        let fix = chol::cholqr_within(&mut wr, &[ColsRef::whole(&c), ColsRef::whole(&v)]);
        assert_eq!(bits(out.c_coeffs.as_ref().unwrap()), bits(&cc));
        assert_eq!(bits(&out.coeffs), bits(&cf));
        assert_eq!(bits(&out.r), bits(&fix.r));
        assert_eq!(bits(&w), bits(&wr));
        assert_eq!(out.amp.to_bits(), amp.to_bits());
        assert_eq!(out.reductions, 3);
    }

    /// Textbook CGS2 + CholQR: two separate projection passes, then a fresh
    /// Gram product for the intra-block factor. Returns `(coeffs, r)`.
    fn classic_cgs2_cholqr(v: &DMat<f64>, w: &mut DMat<f64>) -> (DMat<f64>, DMat<f64>) {
        let mut coeffs = DMat::zeros(v.ncols(), w.ncols());
        for _pass in 0..2 {
            let c = blas::adjoint_times(v, w);
            blas::gemm(-1.0, v, Op::None, &c, Op::None, 1.0, w);
            coeffs.axpy(1.0, &c);
        }
        (coeffs, chol::cholqr(w).r)
    }

    #[test]
    fn fused_matches_classic_iteration_for_gmres_like_step() {
        // The fused step must produce the same orthonormal range as the
        // textbook sequence (up to column signs they are identical when no
        // refresh happens).
        let n = 80;
        let v = basis(n, 6);
        let w0 = DMat::from_fn(n, 1, |i, _| ((i * 13 + 5) % 37) as f64 - 18.0);
        let mut wc = w0.clone();
        let (ccoeffs, cr) = classic_cgs2_cholqr(&v, &mut wc);
        let mut wf = w0.clone();
        let fusedo = fused_orthogonalize_block(None, &v, 6, &mut wf, false, 0.0);
        // Same projection coefficients and R factor to high accuracy.
        for i in 0..6 {
            assert!((ccoeffs[(i, 0)] - fusedo.coeffs[(i, 0)]).abs() < 1e-8);
        }
        assert!((cr[(0, 0)] - fusedo.r[(0, 0)]).abs() < 1e-8 * cr[(0, 0)].abs());
        for i in 0..n {
            assert!((wc[(i, 0)] - wf[(i, 0)]).abs() < 1e-8);
        }
    }
}
