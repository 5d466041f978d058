//! Sparse matrix–matrix products (Gustavson's algorithm) and the Galerkin
//! triple product used by the multigrid hierarchy.

#![allow(clippy::needless_range_loop)] // index loops mirror the BLAS/LAPACK reference forms

use crate::Csr;
use kryst_rt::par::{map_range, max_threads};
use kryst_scalar::Scalar;
use std::cmp::Ordering;

/// Row count below which `spgemm` stays serial (pool dispatch would cost
/// more than the product itself on the coarse AMG levels).
const SPGEMM_PAR_MIN_ROWS: usize = 256;

/// `C = A·B` (CSR × CSR) via row-merge with a dense accumulator.
///
/// Rows are independent, so large products split into contiguous row ranges
/// across the worker pool, each with its own accumulator; per-row
/// accumulation order is the serial order, so the result is bit-identical
/// at any thread count.
pub fn spgemm<S: Scalar>(a: &Csr<S>, b: &Csr<S>) -> Csr<S> {
    assert_eq!(a.ncols(), b.nrows(), "spgemm: dimension mismatch");
    let nrows = a.nrows();
    let workers = if nrows < SPGEMM_PAR_MIN_ROWS {
        1
    } else {
        max_threads()
    };
    let per = nrows.div_ceil(workers).max(1);
    let mut parts = map_range(nrows.div_ceil(per).max(1), |pi| {
        spgemm_rows(a, b, pi * per, ((pi + 1) * per).min(nrows))
    })
    .into_iter();
    // The first part's arrays become the product's; the others are appended.
    let (mut lens, mut indices, mut data) = parts.next().expect("at least one part");
    for (l, idx, vals) in parts {
        lens.extend(l);
        indices.extend_from_slice(&idx);
        data.extend_from_slice(&vals);
    }
    let mut indptr = Vec::with_capacity(nrows + 1);
    indptr.push(0usize);
    for l in lens {
        indptr.push(indptr.last().unwrap() + l);
    }
    Csr::from_raw(nrows, b.ncols(), indptr, indices, data)
}

/// Share of `ncols` that the bound `Σ_k nnz(B[a_ik, :])` on a row's products
/// has to reach for the row to be accumulated without bookkeeping: `1 / 4`
/// (swept in EXPERIMENTS.md, *Set-up path*).
const SCATTER_SHARE: usize = 4;

/// Gustavson row-merge over the row range `[lo, hi)`; returns per-row
/// lengths plus the concatenated column indices and values.
///
/// The accumulator is chosen per output row. When the row's products are a
/// fair share of `ncols` (the Galerkin products: each stored entry is hit
/// many times), they are added straight into a dense row that is scanned
/// and zeroed afterwards; otherwise a generation stamp records which
/// columns were touched, and only those are sorted and read. Both add the
/// same products in the same order to a zero, so the choice does not show
/// in the result.
#[allow(clippy::type_complexity)]
fn spgemm_rows<S: Scalar>(
    a: &Csr<S>,
    b: &Csr<S>,
    lo: usize,
    hi: usize,
) -> (Vec<usize>, Vec<usize>, Vec<S>) {
    let ncols = b.ncols();
    let (aptr, acol, aval) = a.arrays();
    let (bptr, bcol, bval) = b.arrays();
    let brow = |r: usize| (&bcol[bptr[r]..bptr[r + 1]], &bval[bptr[r]..bptr[r + 1]]);
    let mut lens = Vec::with_capacity(hi - lo);
    let mut indices = Vec::new();
    let mut data = Vec::new();

    // All zero between rows: each path zeroes what it read.
    let mut acc = vec![S::zero(); ncols];
    let mut stamp = vec![usize::MAX; ncols];
    let mut touched: Vec<usize> = Vec::new();

    for i in lo..hi {
        let (acols, avals) = (&acol[aptr[i]..aptr[i + 1]], &aval[aptr[i]..aptr[i + 1]]);
        let products: usize = acols.iter().map(|&ac| bptr[ac + 1] - bptr[ac]).sum();
        let before = indices.len();
        if products * SCATTER_SHARE >= ncols {
            for (&ac, &av) in acols.iter().zip(avals) {
                let (bcols, bvals) = brow(ac);
                for (&bc, &bv) in bcols.iter().zip(bvals) {
                    acc[bc] += av * bv;
                }
            }
            for (c, v) in acc.iter_mut().enumerate() {
                if *v != S::zero() {
                    indices.push(c);
                    data.push(*v);
                    *v = S::zero();
                }
            }
        } else {
            touched.clear();
            for (&ac, &av) in acols.iter().zip(avals) {
                let (bcols, bvals) = brow(ac);
                for (&bc, &bv) in bcols.iter().zip(bvals) {
                    if stamp[bc] != i {
                        stamp[bc] = i;
                        touched.push(bc);
                    }
                    acc[bc] += av * bv;
                }
            }
            touched.sort_unstable();
            for &c in &touched {
                let v = std::mem::replace(&mut acc[c], S::zero());
                if v != S::zero() {
                    indices.push(c);
                    data.push(v);
                }
            }
        }
        lens.push(indices.len() - before);
    }
    (lens, indices, data)
}

/// Galerkin coarse operator `A_c = Pᵀ·A·P` (the multigrid "RAP") from the
/// prolongator `p` and its transpose `pt`, which the caller keeps as the
/// restriction.
pub fn galerkin_rap<S: Scalar>(a: &Csr<S>, p: &Csr<S>, pt: &Csr<S>) -> Csr<S> {
    spgemm(pt, &spgemm(a, p))
}

/// `A + B` with identical shapes: a merge of the two sorted rows. Stored
/// zeros and sums that cancel to exactly zero are dropped.
pub fn add<S: Scalar>(a: &Csr<S>, b: &Csr<S>) -> Csr<S> {
    assert_eq!(a.nrows(), b.nrows());
    assert_eq!(a.ncols(), b.ncols());
    let mut indptr = Vec::with_capacity(a.nrows() + 1);
    let mut indices = Vec::with_capacity(a.nnz() + b.nnz());
    let mut data = Vec::with_capacity(a.nnz() + b.nnz());
    indptr.push(0);
    let ((aptr, acol, aval), (bptr, bcol, bval)) = (a.arrays(), b.arrays());
    for i in 0..a.nrows() {
        let (ac, av) = (&acol[aptr[i]..aptr[i + 1]], &aval[aptr[i]..aptr[i + 1]]);
        let (bc, bv) = (&bcol[bptr[i]..bptr[i + 1]], &bval[bptr[i]..bptr[i + 1]]);
        let (mut ka, mut kb) = (0, 0);
        while ka < ac.len() || kb < bc.len() {
            let ca = ac.get(ka).copied().unwrap_or(usize::MAX);
            let cb = bc.get(kb).copied().unwrap_or(usize::MAX);
            let v = match ca.cmp(&cb) {
                Ordering::Less => av[ka],
                Ordering::Greater => bv[kb],
                Ordering::Equal => av[ka] + bv[kb],
            };
            ka += usize::from(ca <= cb);
            kb += usize::from(cb <= ca);
            if v != S::zero() {
                indices.push(ca.min(cb));
                data.push(v);
            }
        }
        indptr.push(indices.len());
    }
    // Reserved for disjoint patterns; the prolongator smoothing adds nested
    // ones and keeps the sum.
    indices.shrink_to_fit();
    data.shrink_to_fit();
    Csr::from_raw(a.nrows(), a.ncols(), indptr, indices, data)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Coo;
    use kryst_dense::DMat;
    use kryst_rt::rng::Rng64;
    use kryst_scalar::C64;

    fn dense_of(a: &Csr<f64>) -> DMat<f64> {
        DMat::from_fn(a.nrows(), a.ncols(), |i, j| a.get(i, j))
    }

    fn rand_csr(nr: usize, nc: usize, seed: usize) -> Csr<f64> {
        let mut c = Coo::new(nr, nc);
        for i in 0..nr {
            for j in 0..nc {
                let h = (i * 31 + j * 17 + seed * 101) % 7;
                if h < 3 {
                    c.push(i, j, (h as f64) - 1.0 + 0.5);
                }
            }
        }
        c.to_csr()
    }

    /// The product as this module computed it before the accumulator was
    /// chosen per row: serial, a stamp test on every multiply-add.
    fn spgemm_ref<S: Scalar>(a: &Csr<S>, b: &Csr<S>) -> Csr<S> {
        let ncols = b.ncols();
        let (mut indptr, mut indices, mut data) = (vec![0], Vec::new(), Vec::new());
        let mut acc = vec![S::zero(); ncols];
        let mut stamp = vec![usize::MAX; ncols];
        let mut touched: Vec<usize> = Vec::new();
        for i in 0..a.nrows() {
            touched.clear();
            for (k, &ac) in a.row_indices(i).iter().enumerate() {
                let av = a.row_values(i)[k];
                for (l, &bc) in b.row_indices(ac).iter().enumerate() {
                    let bv = b.row_values(ac)[l];
                    if stamp[bc] != i {
                        stamp[bc] = i;
                        acc[bc] = S::zero();
                        touched.push(bc);
                    }
                    acc[bc] += av * bv;
                }
            }
            touched.sort_unstable();
            for &c in &touched {
                let v = acc[c];
                if v != S::zero() {
                    indices.push(c);
                    data.push(v);
                }
            }
            indptr.push(indices.len());
        }
        Csr::from_raw(a.nrows(), ncols, indptr, indices, data)
    }

    /// `A + B` through the triplet builder, as `add` was written before.
    fn add_ref<S: Scalar>(a: &Csr<S>, b: &Csr<S>) -> Csr<S> {
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

    /// Same shape, same pattern, same values bit for bit.
    fn assert_same<S: Scalar>(got: &Csr<S>, want: &Csr<S>, what: &str) {
        assert_eq!(
            (got.nrows(), got.ncols()),
            (want.nrows(), want.ncols()),
            "{what}"
        );
        assert_eq!(got.indptr(), want.indptr(), "{what}: indptr");
        for i in 0..got.nrows() {
            assert_eq!(
                got.row_indices(i),
                want.row_indices(i),
                "{what}: row {i} pattern"
            );
            for (g, w) in got.row_values(i).iter().zip(want.row_values(i)) {
                let bits = |v: &S| (v.re().to_bits(), v.im().to_bits());
                assert_eq!(bits(g), bits(w), "{what}: row {i}");
            }
        }
    }

    /// Random matrix whose rows hold 0 to `max_row` entries (every seventh
    /// row none). Rows `2j` and `2j + 1` are equal when `twin_rows`; when
    /// `cancel`, every third row instead holds pairs `(2j, v), (2j + 1, −v)`,
    /// so that its product with a twin-row matrix is exactly zero wherever
    /// it is touched at all.
    fn ragged<S: Scalar>(
        nr: usize,
        nc: usize,
        max_row: usize,
        seed: u64,
        twin_rows: bool,
        cancel: bool,
    ) -> Csr<S> {
        let mut rng = Rng64::seed_from_u64(seed);
        let mut rows: Vec<Vec<(usize, S)>> = Vec::with_capacity(nr);
        for i in 0..nr {
            let val = |rng: &mut Rng64| S::from_parts(rng.next_f64() - 0.5, rng.next_f64() - 0.5);
            let len = if i % 7 == 3 {
                0
            } else {
                rng.gen_index(max_row + 1)
            };
            let mut row: Vec<(usize, S)> = Vec::new();
            if twin_rows && i % 2 == 1 {
                row = rows[i - 1].clone();
            } else if cancel && i % 3 == 1 {
                let mut js: Vec<usize> = (0..len / 2).map(|_| rng.gen_index(nc / 2)).collect();
                js.sort_unstable();
                js.dedup();
                for j in js {
                    let v = val(&mut rng);
                    row.push((2 * j, v));
                    row.push((2 * j + 1, -v));
                }
            } else {
                let mut cols: Vec<usize> = (0..len).map(|_| rng.gen_index(nc)).collect();
                cols.sort_unstable();
                cols.dedup();
                row.extend(cols.into_iter().map(|c| (c, val(&mut rng))));
            }
            rows.push(row);
        }
        let mut indptr = vec![0];
        let (indices, data): (Vec<usize>, Vec<S>) = rows
            .iter()
            .flat_map(|r| {
                indptr.push(indptr.last().unwrap() + r.len());
                r.iter().copied()
            })
            .unzip();
        Csr::from_raw(nr, nc, indptr, indices, data)
    }

    /// Rows of `a·b` with any product at all on the (scatter, stamped) side
    /// of the accumulator rule.
    fn sides<S: Scalar>(a: &Csr<S>, b: &Csr<S>) -> (usize, usize) {
        let products = |i: usize| -> usize {
            let ks = a.row_indices(i).iter();
            ks.map(|&k| b.row_indices(k).len()).sum()
        };
        let busy = (0..a.nrows()).filter(|&i| products(i) > 0);
        let scatter = busy
            .clone()
            .filter(|&i| products(i) * SCATTER_SHARE >= b.ncols())
            .count();
        (scatter, busy.count() - scatter)
    }

    /// `spgemm` against the stamped reference, bit for bit: 600 rows cross
    /// `SPGEMM_PAR_MIN_ROWS`, so under `KRYST_THREADS=4` (a CI leg) the
    /// product runs on the pool. The first shape puts every row on the
    /// stamped side; the others put rows on both sides within one product
    /// (nearly all on the scatter side at 40 columns).
    fn spgemm_matches_the_stamped_reference<S: Scalar>() {
        for (nr, nk, nc, max_a, max_b, want_scatter, want_stamped) in [
            (600usize, 500usize, 4000usize, 8usize, 8usize, false, true),
            (600, 300, 40, 12, 10, true, true),
            (600, 400, 240, 24, 6, true, true),
            (37, 29, 23, 5, 4, true, true),
        ] {
            let a = ragged::<S>(nr, nk, max_a, 11 + nr as u64, false, true);
            let b = ragged::<S>(nk, nc, max_b, 5 + nc as u64, true, false);
            let (scatter, stamped) = sides(&a, &b);
            assert_eq!(
                (scatter > 0, stamped > 0),
                (want_scatter, want_stamped),
                "{nr}x{nk}x{nc}"
            );
            let want = spgemm_ref(&a, &b);
            // The twin rows of `b` cancel rows of `a` to nothing.
            let cancelled = (0..nr)
                .filter(|&i| !a.row_indices(i).is_empty() && want.row_indices(i).is_empty())
                .count();
            assert!(cancelled > 0, "{nr}x{nk}x{nc}: no row cancels");
            assert_same(&spgemm(&a, &b), &want, &format!("{nr}x{nk}x{nc}"));
        }
    }

    #[test]
    fn spgemm_matches_the_stamped_reference_f64() {
        spgemm_matches_the_stamped_reference::<f64>();
    }

    #[test]
    fn spgemm_matches_the_stamped_reference_c64() {
        spgemm_matches_the_stamped_reference::<C64>();
    }

    /// `add` against the triplet version: disjoint and overlapping rows,
    /// empty rows on either side, and `A + (−A)` rows that cancel exactly.
    fn add_matches_the_triplet_reference<S: Scalar>() {
        for (nr, nc) in [(41usize, 17usize), (300, 90)] {
            let a = ragged::<S>(nr, nc, 9, 3 + nr as u64, false, false);
            let b = ragged::<S>(nr, nc, 12, 8 + nc as u64, true, false);
            assert_same(&add(&a, &b), &add_ref(&a, &b), "a + b");
            assert_same(&add(&b, &a), &add_ref(&b, &a), "b + a");
            let mut neg = a.clone();
            neg.values_mut().2.iter_mut().for_each(|v| *v = -*v);
            assert_eq!(add(&a, &neg).nnz(), 0);
            // `a + b − a` keeps what of `b` lies off `a`'s pattern exactly.
            let ab = add(&a, &b);
            assert_same(&add(&ab, &neg), &add_ref(&ab, &neg), "(a + b) - a");
        }
    }

    #[test]
    fn add_matches_the_triplet_reference_f64() {
        add_matches_the_triplet_reference::<f64>();
    }

    #[test]
    fn add_matches_the_triplet_reference_c64() {
        add_matches_the_triplet_reference::<C64>();
    }

    #[test]
    fn spgemm_matches_dense() {
        let a = rand_csr(6, 5, 1);
        let b = rand_csr(5, 7, 2);
        let c = spgemm(&a, &b);
        let ad = dense_of(&a);
        let bd = dense_of(&b);
        let cd = kryst_dense::blas::matmul(&ad, kryst_dense::Op::None, &bd, kryst_dense::Op::None);
        for i in 0..6 {
            for j in 0..7 {
                assert!((c.get(i, j) - cd[(i, j)]).abs() < 1e-13, "({i},{j})");
            }
        }
    }

    #[test]
    fn rap_symmetric_for_symmetric_a() {
        // A = tridiagonal SPD; P = simple aggregation (pairs).
        let n = 8;
        let mut ac = Coo::new(n, n);
        for i in 0..n {
            ac.push(i, i, 2.0);
            if i > 0 {
                ac.push(i, i - 1, -1.0);
            }
            if i + 1 < n {
                ac.push(i, i + 1, -1.0);
            }
        }
        let a = ac.to_csr();
        let mut pc = Coo::new(n, n / 2);
        for i in 0..n {
            pc.push(i, i / 2, 1.0);
        }
        let p = pc.to_csr();
        let acoarse = galerkin_rap(&a, &p, &p.transpose());
        assert_eq!(acoarse.nrows(), n / 2);
        for i in 0..n / 2 {
            for j in 0..n / 2 {
                assert!((acoarse.get(i, j) - acoarse.get(j, i)).abs() < 1e-13);
            }
        }
        // Row sums of the coarse Laplacian vanish in the interior.
        let mid = n / 4;
        let s: f64 = acoarse.row_values(mid).iter().sum();
        assert!(s.abs() < 1e-13);
    }

    #[test]
    fn add_sums_entrywise() {
        let a = rand_csr(4, 4, 3);
        let b = rand_csr(4, 4, 4);
        let c = add(&a, &b);
        for i in 0..4 {
            for j in 0..4 {
                assert!((c.get(i, j) - a.get(i, j) - b.get(i, j)).abs() < 1e-14);
            }
        }
    }
}
