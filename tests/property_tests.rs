//! Property-based tests on the core kernels and invariants.
//!
//! Self-contained harness: each property runs over a batch of pseudo-random
//! cases drawn from the workspace's [`kryst_rt::rng::Rng64`] (SplitMix64,
//! fixed seeds — failures reproduce exactly). The macro reports the failing
//! case index so a counterexample can be replayed by seeding directly.

use kryst_core::{gmres, SolveOpts};
use kryst_dense::blas::{adjoint_times, matmul, Op};
use kryst_dense::{chol, eig, lu, qr, DMat};
use kryst_par::IdentityPrecond;
use kryst_rt::rng::Rng64;
use kryst_scalar::{Scalar, C64};
use kryst_sparse::partition::{grow_overlap, partition_of_unity, partition_rcb};
use kryst_sparse::{band::BandLu, band::BandMat, order, Coo, Csr};

/// Run `body` for `cases` pseudo-random cases; panics carry the case index.
fn prop(name: &str, cases: usize, seed: u64, body: impl Fn(&mut Rng64)) {
    for case in 0..cases {
        let mut rng =
            Rng64::seed_from_u64(seed ^ (case as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15));
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| body(&mut rng)));
        if let Err(e) = result {
            panic!("property `{name}` failed at case {case} (seed {seed}): {e:?}");
        }
    }
}

/// Random well-conditioned tall matrix (diagonal boost keeps columns
/// independent).
fn tall_matrix(rng: &mut Rng64, n: usize, k: usize) -> DMat<f64> {
    let mut m = DMat::from_fn(n, k, |_, _| rng.gen_range(-5.0, 5.0));
    for j in 0..k.min(n) {
        m[(j, j)] += 10.0;
    }
    m
}

/// Random SPD sparse matrix: tridiagonal-dominant with random couplings.
fn spd_csr(rng: &mut Rng64, n: usize) -> Csr<f64> {
    let off: Vec<f64> = (0..n).map(|_| rng.gen_range(0.1, 1.0)).collect();
    let mut c = Coo::new(n, n);
    for i in 0..n {
        let mut d = 1.0;
        if i > 0 {
            c.push(i, i - 1, -off[i]);
            c.push(i - 1, i, -off[i]);
            d += off[i];
        }
        if i + 1 < n {
            d += off[(i + 1) % n];
        }
        c.push(i, i, d + 0.5);
    }
    c.to_csr()
}

#[test]
fn cholqr_produces_orthonormal_columns() {
    prop("cholqr_orthonormal", 24, 11, |rng| {
        let m = tall_matrix(rng, 30, 4);
        let mut q = m.clone();
        let out = chol::cholqr(&mut q);
        assert_eq!(out.rank, 4);
        let g = adjoint_times(&q, &q);
        for i in 0..4 {
            for j in 0..4 {
                let e = if i == j { 1.0 } else { 0.0 };
                assert!((g[(i, j)] - e).abs() < 1e-8);
            }
        }
        // V = Q·R reconstruction.
        let rec = matmul(&q, Op::None, &out.r, Op::None);
        for i in 0..30 {
            for j in 0..4 {
                assert!((rec[(i, j)] - m[(i, j)]).abs() < 1e-8);
            }
        }
    });
}

// ---------------------------------------------------------------------------
// Rank-revealing CholQR breakdown detection (the paper's §III-A fallback):
// blocks constructed with a known numerical rank must report exactly that
// rank, and the fixed-up Q must still be orthonormal.
// ---------------------------------------------------------------------------

/// Random real `n × p` block of exact rank `r`: full-rank factor times a
/// coefficient matrix whose trailing `p − r` columns are combinations of the
/// leading ones.
fn rank_deficient_block_f64(rng: &mut Rng64, n: usize, p: usize, r: usize) -> DMat<f64> {
    let basis = tall_matrix(rng, n, r);
    let mut coeff = DMat::<f64>::zeros(r, p);
    for j in 0..r {
        coeff[(j, j)] = 1.0 + rng.gen_range(0.0, 2.0);
    }
    for j in r..p {
        for i in 0..r {
            coeff[(i, j)] = rng.gen_range(-2.0, 2.0);
        }
    }
    matmul(&basis, Op::None, &coeff, Op::None)
}

/// Complex variant of [`rank_deficient_block_f64`].
fn rank_deficient_block_c64(rng: &mut Rng64, n: usize, p: usize, r: usize) -> DMat<C64> {
    let mut basis = DMat::<C64>::from_fn(n, r, |_, _| {
        C64::from_parts(rng.gen_range(-5.0, 5.0), rng.gen_range(-5.0, 5.0))
    });
    for j in 0..r {
        basis[(j, j)] += C64::from_parts(12.0, 0.0);
    }
    let mut coeff = DMat::<C64>::zeros(r, p);
    for j in 0..r {
        coeff[(j, j)] = C64::from_parts(1.0 + rng.gen_range(0.0, 2.0), 0.0);
    }
    for j in r..p {
        for i in 0..r {
            coeff[(i, j)] = C64::from_parts(rng.gen_range(-2.0, 2.0), rng.gen_range(-2.0, 2.0));
        }
    }
    matmul(&basis, Op::None, &coeff, Op::None)
}

#[test]
fn cholqr_breakdown_reports_constructed_rank_f64() {
    prop("cholqr_breakdown_f64", 32, 23, |rng| {
        let p = 3 + rng.gen_index(3); // block width 3..=5
        let r = 1 + rng.gen_index(p - 1); // true rank 1..p (strictly deficient)
        let mut v = rank_deficient_block_f64(rng, 40, p, r);
        let out = chol::cholqr(&mut v);
        assert_eq!(
            out.rank, r,
            "width {p}, constructed rank {r}, reported {}",
            out.rank
        );
        // The fixup must still hand back an orthonormal block.
        let g = adjoint_times(&v, &v);
        for i in 0..p {
            for j in 0..p {
                let e = if i == j { 1.0 } else { 0.0 };
                assert!(
                    (g[(i, j)] - e).abs() < 1e-6,
                    "Gram ({i},{j}) = {}",
                    g[(i, j)]
                );
            }
        }
    });
}

#[test]
fn cholqr_breakdown_reports_constructed_rank_c64() {
    prop("cholqr_breakdown_c64", 32, 29, |rng| {
        let p = 3 + rng.gen_index(3);
        let r = 1 + rng.gen_index(p - 1);
        let mut v = rank_deficient_block_c64(rng, 36, p, r);
        let out = chol::cholqr(&mut v);
        assert_eq!(
            out.rank, r,
            "width {p}, constructed rank {r}, reported {}",
            out.rank
        );
        let g = adjoint_times(&v, &v);
        for i in 0..p {
            for j in 0..p {
                let e = if i == j { 1.0 } else { 0.0 };
                assert!((g[(i, j)] - C64::from_parts(e, 0.0)).abs() < 1e-6);
            }
        }
    });
}

#[test]
fn block_orth_surfaces_breakdown_rank_through_solver_events() {
    // End-to-end: a rank-deficient candidate block in the fused block
    // orthogonalization the Arnoldi step runs reports the same rank the
    // construction dictates — this is the value solvers forward as
    // `IterationEvent::breakdown_rank`.
    prop("block_orth_breakdown", 16, 31, |rng| {
        let p = 4;
        let r = 1 + rng.gen_index(p - 1);
        let mut w = rank_deficient_block_f64(rng, 50, p, r);
        let v = DMat::<f64>::zeros(50, 0);
        let out = kryst_dense::gs::fused_orthogonalize_block(None, &v, 0, &mut w, false, 0.0);
        assert_eq!(out.rank, r);
    });
}

#[test]
fn householder_qr_least_squares_is_optimal() {
    prop("qr_ls_optimal", 24, 37, |rng| {
        let m = tall_matrix(rng, 20, 3);
        let b = DMat::from_fn(20, 1, |_, _| rng.gen_range(-3.0, 3.0));
        let f = qr::HouseholderQr::factor(m.clone());
        let x = f.solve_ls(&b);
        // Optimality ⟺ Aᴴ(b − A·x) = 0.
        let mut r = matmul(&m, Op::None, &x, Op::None);
        r.scale(-1.0);
        r.axpy(1.0, &b);
        let g = adjoint_times(&m, &r);
        assert!(
            g.max_abs() < 1e-9,
            "normal-equations residual {}",
            g.max_abs()
        );
    });
}

#[test]
fn dense_lu_inverts() {
    prop("lu_inverts", 24, 41, |rng| {
        let m = tall_matrix(rng, 12, 12);
        let f = lu::Lu::factor(m.clone());
        if f.is_singular() {
            return; // vanishingly unlikely with the diagonal boost
        }
        let b = DMat::from_fn(12, 2, |i, j| ((i * 3 + j) % 5) as f64 - 2.0);
        let x = f.solve(&b);
        let ax = matmul(&m, Op::None, &x, Op::None);
        for i in 0..12 {
            for j in 0..2 {
                assert!((ax[(i, j)] - b[(i, j)]).abs() < 1e-7);
            }
        }
    });
}

#[test]
fn eig_residuals_small_for_random_matrices() {
    prop("eig_residuals", 24, 43, |rng| {
        let m = tall_matrix(rng, 8, 8);
        let d = eig::eig(&m);
        if !d.converged {
            return;
        }
        let mc = eig::to_complex(&m);
        let vecs = d.vectors(&(0..8).collect::<Vec<_>>());
        let av = matmul(&mc, Op::None, &vecs, Op::None);
        for j in 0..8 {
            for i in 0..8 {
                let want = vecs[(i, j)] * d.values[j];
                assert!(
                    (av[(i, j)] - want).abs() < 1e-6 * (1.0 + d.values[j].abs()),
                    "eig residual at ({i}, {j})"
                );
            }
        }
    });
}

#[test]
fn coo_to_csr_preserves_entries() {
    prop("coo_to_csr", 24, 47, |rng| {
        let count = 1 + rng.gen_index(59);
        let mut c = Coo::new(15, 15);
        let mut dense = vec![[0.0f64; 15]; 15];
        for _ in 0..count {
            let i = rng.gen_index(15);
            let j = rng.gen_index(15);
            let v = rng.gen_range(-4.0, 4.0);
            c.push(i, j, v);
            dense[i][j] += v;
        }
        let m = c.to_csr();
        for (i, drow) in dense.iter().enumerate() {
            for (j, dv) in drow.iter().enumerate() {
                assert!((m.get(i, j) - dv).abs() < 1e-12);
            }
        }
    });
}

#[test]
fn spmm_matches_dense_product() {
    prop("spmm_dense", 24, 53, |rng| {
        let a = spd_csr(rng, 20);
        let x = DMat::from_fn(20, 3, |_, _| rng.gen_range(-2.0, 2.0));
        let y = a.apply(&x);
        let ad = DMat::from_fn(20, 20, |i, j| a.get(i, j));
        let yd = matmul(&ad, Op::None, &x, Op::None);
        for i in 0..20 {
            for j in 0..3 {
                assert!((y[(i, j)] - yd[(i, j)]).abs() < 1e-10);
            }
        }
    });
}

#[test]
fn rcm_is_a_permutation_and_preserves_symmetry() {
    prop("rcm_permutation", 24, 59, |rng| {
        let a = spd_csr(rng, 25);
        let perm = order::rcm(&a);
        let mut sorted = perm.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..25).collect::<Vec<_>>());
        let b = order::permute_sym(&a, &perm);
        assert!(b.is_pattern_symmetric());
        assert_eq!(a.nnz(), b.nnz());
    });
}

#[test]
fn band_lu_round_trips() {
    prop("band_lu", 24, 61, |rng| {
        let n = 18;
        let off: Vec<f64> = (0..n).map(|_| rng.gen_range(-1.0, 1.0)).collect();
        let mut bm = BandMat::<f64>::zeros(n, 2, 2);
        let mut dense = DMat::<f64>::zeros(n, n);
        for i in 0..n {
            for j in i.saturating_sub(2)..(i + 3).min(n) {
                let v = if i == j {
                    6.0 + off[i]
                } else {
                    off[(i + j) % n]
                };
                bm.set(i, j, v);
                dense[(i, j)] = v;
            }
        }
        let Some(f) = BandLu::factor(bm) else {
            return;
        };
        let x_true: Vec<f64> = (0..n).map(|i| off[i] * 2.0 + 1.0).collect();
        let mut b = vec![0.0; n];
        for i in 0..n {
            for j in 0..n {
                b[i] += dense[(i, j)] * x_true[j];
            }
        }
        f.solve_packed(&mut b);
        for i in 0..n {
            assert!((b[i] - x_true[i]).abs() < 1e-8);
        }
    });
}

#[test]
fn partition_of_unity_always_sums_to_one() {
    prop("partition_of_unity", 24, 67, |rng| {
        let seed = rng.gen_index(1000);
        let nparts = 2 + rng.gen_index(4);
        let overlap = rng.gen_index(3);
        let n = 64;
        let coords: Vec<Vec<f64>> = (0..n)
            .map(|i| vec![((i * 7 + seed) % 8) as f64, (i / 8) as f64])
            .collect();
        let mut c = Coo::new(n, n);
        for i in 0..n {
            c.push(i, i, 4.0);
            if i % 8 != 0 {
                c.push(i, i - 1, -1.0);
                c.push(i - 1, i, -1.0);
            }
            if i >= 8 {
                c.push(i, i - 8, -1.0);
                c.push(i - 8, i, -1.0);
            }
        }
        let a = c.to_csr();
        let part = partition_rcb(&coords, nparts);
        let ov = grow_overlap(&a, &part, overlap);
        let d = partition_of_unity(n, &ov);
        let mut acc = vec![0.0; n];
        for (set, w) in ov.iter().zip(&d) {
            for (&i, &wi) in set.iter().zip(w) {
                acc[i] += wi;
            }
        }
        for v in &acc {
            assert!((v - 1.0).abs() < 1e-12);
        }
    });
}

#[test]
fn gmres_always_converges_on_random_spd() {
    prop("gmres_spd", 24, 71, |rng| {
        let a = spd_csr(rng, 30);
        let b = DMat::from_fn(30, 1, |_, _| rng.gen_range(-1.0, 1.0));
        if b.fro_norm() <= 1e-6 {
            return;
        }
        let id = IdentityPrecond::new(30);
        let mut x = DMat::zeros(30, 1);
        let opts = SolveOpts {
            rtol: 1e-9,
            restart: 30,
            max_iters: 300,
            ..Default::default()
        };
        let res = gmres::solve(&a, &id, &b, &mut x, &opts);
        assert!(res.converged);
        // The reported residual must match the true one.
        let mut r = a.apply(&x);
        r.axpy(-1.0, &b);
        let true_rel = r.col_norm(0) / b.col_norm(0);
        assert!(true_rel <= 1e-8, "true residual {true_rel}");
    });
}

#[test]
fn gmres_history_is_monotone_within_cycles() {
    prop("gmres_monotone", 24, 73, |rng| {
        let a = spd_csr(rng, 24);
        let b = DMat::from_fn(24, 1, |_, _| rng.gen_range(-1.0, 1.0));
        if b.fro_norm() <= 1e-6 {
            return;
        }
        let id = IdentityPrecond::new(24);
        let mut x = DMat::zeros(24, 1);
        let opts = SolveOpts {
            rtol: 1e-10,
            restart: 50,
            max_iters: 200,
            ..Default::default()
        };
        let res = gmres::solve(&a, &id, &b, &mut x, &opts);
        if !res.converged || res.iterations > 50 {
            return; // single-cycle property
        }
        for w in res.history.windows(2) {
            assert!(w[1][0] <= w[0][0] + 1e-12, "non-monotone GMRES residual");
        }
    });
}
