//! Cholesky factorization and CholQR orthogonalization.
//!
//! The paper (§III-A) uses **CholQR** to orthogonalize blocks of `p·k`
//! vectors in a single global reduction: form the Gram matrix `G = VᴴV`
//! (one all-reduce in the distributed setting), factor `G = RᴴR` redundantly
//! on every process, and scale `Q = V·R⁻¹`. The **rank-revealing** variant
//! (pivoted Cholesky with a drop tolerance) is what §V-C uses "for detecting
//! breakdowns at each restart" of the block methods.

use crate::fused::{self, ColsRef};
use crate::tri;
use crate::DMat;
use kryst_scalar::Scalar;

/// Plain (unpivoted) Cholesky `A = RᴴR` of a Hermitian positive-definite
/// matrix; returns the upper-triangular `R`, or `None` if a non-positive
/// pivot is met.
pub fn cholesky<S: Scalar>(a: &DMat<S>) -> Option<DMat<S>> {
    let n = a.nrows();
    assert_eq!(n, a.ncols());
    let mut r: DMat<S> = DMat::zeros(n, n);
    for j in 0..n {
        // Diagonal entry.
        let mut d = a[(j, j)].re();
        for k in 0..j {
            d -= r[(k, j)].abs_sqr();
        }
        if d <= 0.0 || !d.is_finite() {
            return None;
        }
        let rjj = d.sqrt();
        r[(j, j)] = S::from_f64(rjj);
        // Off-diagonal row j of R.
        for i in j + 1..n {
            let mut v = a[(j, i)];
            for k in 0..j {
                v -= r[(k, j)].conj() * r[(k, i)];
            }
            r[(j, i)] = v / S::from_f64(rjj);
        }
    }
    Some(r)
}

/// Result of a pivoted (rank-revealing) Cholesky factorization.
pub struct PivotedCholesky<S> {
    /// Upper-triangular factor of the permuted matrix: `Pᵀ·A·P = RᴴR`.
    pub r: DMat<S>,
    /// Column permutation: `perm[k]` is the original index of pivot `k`.
    pub perm: Vec<usize>,
    /// Numerical rank detected with the relative drop tolerance.
    pub rank: usize,
}

/// Pivoted Cholesky with diagonal pivoting; stops when the largest remaining
/// diagonal falls below `tol · max_initial_diagonal`.
pub fn pivoted_cholesky<S: Scalar>(a: &DMat<S>, tol: f64) -> PivotedCholesky<S> {
    let n = a.nrows();
    assert_eq!(n, a.ncols());
    let mut work = a.clone();
    let mut r = DMat::zeros(n, n);
    let mut perm: Vec<usize> = (0..n).collect();
    let mut diag_max: f64 = 0.0;
    for i in 0..n {
        diag_max = diag_max.max(work[(i, i)].re());
    }
    let threshold = diag_max * tol;
    let mut rank = 0;
    for k in 0..n {
        // Find the pivot: largest remaining diagonal.
        let mut best = k;
        let mut best_val = work[(k, k)].re();
        for i in k + 1..n {
            let v = work[(i, i)].re();
            if v > best_val {
                best = i;
                best_val = v;
            }
        }
        if best_val <= threshold || !best_val.is_finite() {
            break;
        }
        // Symmetric permutation of `work` and the computed rows of `r`.
        if best != k {
            work.swap_rows(k, best);
            work.swap_cols(k, best);
            r.swap_cols(k, best);
            perm.swap(k, best);
        }
        let rkk = best_val.sqrt();
        r[(k, k)] = S::from_f64(rkk);
        for j in k + 1..n {
            r[(k, j)] = work[(k, j)] / S::from_f64(rkk);
        }
        // Rank-1 downdate of the trailing block.
        for j in k + 1..n {
            for i in k + 1..=j {
                let upd = r[(k, i)].conj() * r[(k, j)];
                let v = work[(i, j)] - upd;
                work[(i, j)] = v;
                if i != j {
                    work[(j, i)] = v.conj();
                }
            }
        }
        rank = k + 1;
    }
    PivotedCholesky { r, perm, rank }
}

/// Outcome of a CholQR orthogonalization.
pub struct CholQr<S: Scalar> {
    /// Upper-triangular factor with `V = Q·R`.
    pub r: DMat<S>,
    /// Numerical rank of the block (equal to `ncols` when no breakdown).
    pub rank: usize,
    /// Smallest/largest diagonal ratio seen — a cheap conditioning estimate.
    pub cond_estimate: f64,
}

/// CholQR: orthogonalize the columns of `v` in place.
///
/// One Gram-matrix product (a single reduction in the distributed setting,
/// cf. §III-D), one redundant Cholesky, one triangular right-solve. If the
/// Gram matrix is not numerically positive definite the factorization falls
/// back to the **rank-revealing** pivoted variant and the near-dependent
/// columns are replaced by re-orthogonalized unit vectors, mirroring the
/// paper's breakdown detection.
pub fn cholqr<S: Scalar>(v: &mut DMat<S>) -> CholQr<S> {
    cholqr_within(v, &[])
}

/// [`cholqr`] with replacement columns kept orthogonal to external bases.
///
/// On the breakdown path the deficient columns are replaced by
/// re-orthogonalized canonical directions; each column view in `ext`
/// names an orthonormal block the replacements must ALSO be
/// orthogonal to (the recycled space `C` and the Arnoldi basis `V`). The
/// fused communication-avoiding path needs this: its Gram downdate assumes
/// every basis column is orthogonal to `C` and the earlier `V` columns, an
/// invariant a plain canonical-vector fixup silently breaks. With `ext`
/// empty this is exactly [`cholqr`]; the well-conditioned fast path never
/// looks at `ext` at all.
pub fn cholqr_within<S: Scalar>(v: &mut DMat<S>, ext: &[ColsRef<'_, S>]) -> CholQr<S> {
    let p = v.ncols();
    let mut gram = DMat::zeros(p, p);
    fused::fused_gram(&[], v, std::slice::from_mut(&mut gram));
    if let Some((r, cond_estimate)) = well_conditioned_cholesky(&gram) {
        tri::right_solve_upper(v, &r);
        return CholQr {
            r,
            rank: p,
            cond_estimate,
        };
    }
    // Breakdown path: rank-revealing factorization of the Gram matrix.
    let piv = pivoted_cholesky(&gram, f64::EPSILON * 256.0);
    rank_revealing_fixup(v, piv, ext)
}

/// The Cholesky factor of a Gram matrix that is safely positive definite,
/// with its smallest/largest diagonal ratio; `None` sends the caller down
/// the rank-revealing path. The margin sits well above the √eps-level
/// diagonal a rounded-to-positive singular Gram produces, so exact rank
/// deficiency always takes that path instead of flipping a coin on rounding
/// noise.
pub(crate) fn well_conditioned_cholesky<S: Scalar>(gram: &DMat<S>) -> Option<(DMat<S>, f64)> {
    let r = cholesky(gram)?;
    let mut dmin = f64::MAX;
    let mut dmax: f64 = 0.0;
    for j in 0..r.ncols() {
        let d = r[(j, j)].re();
        dmin = dmin.min(d);
        dmax = dmax.max(d);
    }
    let eps_cut = f64::EPSILON.sqrt() * 32.0;
    (dmax > 0.0 && dmin > dmax * eps_cut).then(|| (r, dmin / dmax))
}

/// Apply the pivoted-Cholesky factor to produce an orthonormal `Q` spanning
/// the numerical range, with deficient columns replaced (re-orthogonalized
/// canonical directions) so downstream code always sees a full block. All
/// of it happens in `v`'s own storage.
fn rank_revealing_fixup<S: Scalar>(
    v: &mut DMat<S>,
    piv: PivotedCholesky<S>,
    ext: &[ColsRef<'_, S>],
) -> CholQr<S> {
    let p = v.ncols();
    let rank = piv.rank.max(1).min(p);
    // Permute the columns of V to pivot order by pairwise swaps (`at[c]` is
    // the original index of the column now at `c`, `pos` its inverse), then
    // solve its leading `rank` columns against the leading rank×rank R.
    let mut at: Vec<usize> = (0..p).collect();
    let mut pos = at.clone();
    for (k, &want) in piv.perm.iter().enumerate() {
        let src = pos[want];
        if src != k {
            v.swap_cols(k, src);
            at.swap(k, src);
            (pos[at[k]], pos[at[src]]) = (k, src);
        }
    }
    tri::right_solve_upper_leading(v, &piv.r, rank);
    // Deficient trailing columns: replace with canonical vectors
    // orthogonalized against everything accumulated so far — external bases
    // (recycled space / Arnoldi basis), the leading range and earlier
    // replacement columns. `e_{k mod n}` is tried first. An earlier breakdown
    // of the cycle may have put that very vector into the basis; then its
    // projection is exactly zero, and normalising it filled the block (and
    // every later estimate and update) with NaN: the next vectors are tried
    // instead. Should every one vanish, the column stays zero.
    //
    // Q stays in pivot order: with R_orig = R_piv · Pᵀ below, the identity
    // V[:, perm[k]] = Q · R_orig[:, perm[k]] = Q_lead · R_piv[:, k] only
    // holds when column k of Q is the solved pivot column k — scattering Q
    // back through the permutation while leaving the R rows unpermuted
    // would break V = Q·R for any nontrivial pivoting.
    let n = v.nrows();
    for k in rank..p {
        let (q, e) = v.as_mut_slice()[..(k + 1) * n].split_at_mut(k * n);
        let nrm = (0..n)
            .map(|t| projected_canonical((k + t) % n, ext, q, e))
            .find(|&nrm| nrm > 0.0);
        match nrm {
            Some(nrm) => {
                let inv = S::one() / S::from_f64(nrm);
                e.iter_mut().for_each(|x| *x *= inv);
            }
            None => e.fill(S::zero()),
        }
    }
    // R = R_piv · Pᵀ restricted to the leading rank rows (upper triangular
    // up to the column permutation).
    let mut r = DMat::zeros(p, p);
    for k in 0..p {
        for i in 0..rank.min(k + 1) {
            r[(i, piv.perm[k])] = piv.r[(i, k)];
        }
    }
    CholQr {
        r,
        rank,
        cond_estimate: 0.0,
    }
}

/// The canonical vector `e_i`, written into `e`, orthogonalized in two MGS
/// passes against the external bases and the columns of `q` (column-major,
/// `e.len()` rows each); returns its norm. The replacements of a breakdown
/// multiply zero rows of `R`, so reshaping them never perturbs the
/// factorization `V = Q·R`.
fn projected_canonical<S: Scalar>(i: usize, ext: &[ColsRef<'_, S>], q: &[S], e: &mut [S]) -> f64 {
    e.fill(S::zero());
    e[i] = S::one();
    let n = e.len();
    let mut project = |col: &[S]| {
        let mut dot = S::zero();
        for (qi, ei) in col.iter().zip(e.iter()) {
            dot += qi.conj() * *ei;
        }
        for (qi, ei) in col.iter().zip(e.iter_mut()) {
            *ei -= dot * *qi;
        }
    };
    for _pass in 0..2 {
        for m in ext {
            (0..m.ncols()).for_each(|j| project(m.col(j)));
        }
        q.chunks_exact(n).for_each(&mut project);
    }
    let nrm = e.iter().fold(0.0, |acc, x| acc + x.abs_sqr());
    nrm.sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blas::{matmul, Op};
    use kryst_scalar::C64;

    /// Two equal columns orthogonal to `e_1`, with `e_1` as the external
    /// basis: the replacement of the deficient column would be `e_1`, which
    /// projects to exactly zero, so `e_2` replaces it.
    #[test]
    fn replacement_skips_a_canonical_vector_already_in_the_span() {
        let n = 6;
        let ext = DMat::<f64>::from_fn(n, 1, |i, _| f64::from(u8::from(i == 1)));
        let v0 = DMat::from_fn(n, 2, |i, _| if i == 1 { 0.0 } else { (i + 1) as f64 });
        let mut q = v0.clone();
        let out = cholqr_within(&mut q, &[ColsRef::whole(&ext)]);
        assert_eq!(out.rank, 1);
        assert!(q.as_slice().iter().all(|x| x.is_finite()));
        let g = matmul(&q, Op::ConjTrans, &q, Op::None);
        assert!((g[(0, 0)] - 1.0).abs() < 1e-14 && (g[(1, 1)] - 1.0).abs() < 1e-14);
        assert!(g[(0, 1)].abs() < 1e-14);
        assert!(matmul(&ext, Op::ConjTrans, &q, Op::None).max_abs() < 1e-14);
        let mut qr = matmul(&q, Op::None, &out.r, Op::None);
        qr.axpy(-1.0, &v0);
        assert!(qr.max_abs() < 1e-12);
    }

    #[test]
    fn cholesky_reconstructs() {
        // SPD matrix: B + n·I with B = MᴴM.
        let m = DMat::<f64>::from_fn(5, 5, |i, j| ((i * 3 + j) % 7) as f64 - 3.0);
        let mut a = matmul(&m, Op::ConjTrans, &m, Op::None);
        for i in 0..5 {
            a[(i, i)] += 5.0;
        }
        let r = cholesky(&a).expect("SPD");
        let rtr = matmul(&r, Op::ConjTrans, &r, Op::None);
        for i in 0..5 {
            for j in 0..5 {
                assert!((rtr[(i, j)] - a[(i, j)]).abs() < 1e-10);
            }
        }
    }

    #[test]
    fn cholesky_rejects_indefinite() {
        let mut a = DMat::<f64>::eye(3);
        a[(2, 2)] = -1.0;
        assert!(cholesky(&a).is_none());
    }

    #[test]
    fn cholqr_orthogonalizes_well_conditioned_block() {
        let mut v = DMat::<f64>::from_fn(40, 4, |i, j| {
            ((i * 17 + j * 5) % 13) as f64 - 6.0 + if i == j { 20.0 } else { 0.0 }
        });
        let orig = v.clone();
        let out = cholqr(&mut v);
        assert_eq!(out.rank, 4);
        let g = matmul(&v, Op::ConjTrans, &v, Op::None);
        for i in 0..4 {
            for j in 0..4 {
                let expect = if i == j { 1.0 } else { 0.0 };
                assert!(
                    (g[(i, j)] - expect).abs() < 1e-10,
                    "Gram ({i},{j}) = {}",
                    g[(i, j)]
                );
            }
        }
        // V = Q·R
        let qr = matmul(&v, Op::None, &out.r, Op::None);
        for i in 0..40 {
            for j in 0..4 {
                assert!((qr[(i, j)] - orig[(i, j)]).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn cholqr_complex() {
        let mut v = DMat::<C64>::from_fn(30, 3, |i, j| {
            C64::from_parts(((i + j * 7) % 11) as f64 - 5.0, ((i * 3 + j) % 5) as f64)
        });
        let out = cholqr(&mut v);
        assert_eq!(out.rank, 3);
        let g = matmul(&v, Op::ConjTrans, &v, Op::None);
        for i in 0..3 {
            for j in 0..3 {
                let expect = if i == j { 1.0 } else { 0.0 };
                assert!((g[(i, j)].re() - expect).abs() < 1e-10);
                assert!(g[(i, j)].im().abs() < 1e-10);
            }
        }
    }

    #[test]
    fn cholqr_detects_rank_deficiency() {
        // Two identical columns → rank 2 of 3.
        let mut v = DMat::<f64>::from_fn(20, 3, |i, j| match j {
            0 => (i as f64).sin(),
            1 => (i as f64).cos(),
            _ => (i as f64).sin(), // duplicate of column 0
        });
        let out = cholqr(&mut v);
        assert_eq!(out.rank, 2, "duplicate column must be detected");
        // Output block is still orthonormal.
        let g = matmul(&v, Op::ConjTrans, &v, Op::None);
        for i in 0..3 {
            for j in 0..3 {
                let expect = if i == j { 1.0 } else { 0.0 };
                assert!(
                    (g[(i, j)] - expect).abs() < 1e-8,
                    "Gram ({i},{j}) = {}",
                    g[(i, j)]
                );
            }
        }
    }

    /// `cholqr` takes `WᴴW` from the panel sweep, not from `gemm`: the two
    /// agree to `4·ε·n` of the columns' norms, and a block goes down the
    /// rank-revealing path from the one exactly when it does from the other.
    fn sweep_gram_matches_gemm_gram<S: Scalar>() {
        let eps = f64::EPSILON;
        for n in [1usize, 511, 513, 4099] {
            for p in [1usize, 8, 30] {
                for duplicate in [false, true] {
                    let case = format!("n={n} p={p} duplicate={duplicate}");
                    let mut w = DMat::<S>::from_fn(n, p, |i, j| {
                        let h =
                            (i * 2654435761 + j * 40503 + 17).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                        let part = |s: u32| ((h >> s) % 2001) as f64 / 1000.0 - 1.0;
                        S::from_parts(part(11), part(29))
                    });
                    if duplicate && p > 1 {
                        let first = w.col(0).to_vec();
                        w.col_mut(p - 1).copy_from_slice(&first);
                    }
                    let mut sweep = DMat::zeros(p, p);
                    fused::fused_gram(&[], &w, std::slice::from_mut(&mut sweep));
                    let gemm = matmul(&w, Op::ConjTrans, &w, Op::None);
                    for i in 0..p {
                        for l in 0..p {
                            let scale = w.col_norm(i) * w.col_norm(l);
                            let diff = (sweep[(i, l)] - gemm[(i, l)]).abs();
                            assert!(diff <= 4.0 * eps * n as f64 * scale, "{case} ({i},{l})");
                        }
                    }
                    let want = match well_conditioned_cholesky(&gemm) {
                        Some(_) => p,
                        None => {
                            let tol = f64::EPSILON * 256.0;
                            pivoted_cholesky(&gemm, tol).rank.clamp(1, p)
                        }
                    };
                    assert_eq!(
                        well_conditioned_cholesky(&sweep).is_some(),
                        want == p,
                        "{case}: branch"
                    );
                    assert_eq!(cholqr(&mut w).rank, want, "{case}: rank");
                }
            }
        }
    }

    #[test]
    fn cholqr_gram_from_the_sweep_agrees_with_gemm() {
        sweep_gram_matches_gemm_gram::<f64>();
        sweep_gram_matches_gemm_gram::<C64>();
    }

    #[test]
    fn pivoted_cholesky_rank() {
        // Gram matrix of rank 2.
        let b = DMat::<f64>::from_fn(6, 2, |i, j| {
            (i + j + 1) as f64 * if j == 0 { 1.0 } else { -0.3 }
        });
        let v = matmul(&b, Op::None, &b.transpose(), Op::None); // 6×6 rank ≤ 2
        let piv = pivoted_cholesky(&v, 1e-12);
        assert_eq!(piv.rank, 2);
    }
}
