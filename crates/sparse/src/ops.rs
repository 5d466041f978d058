//! Sparse matrix–matrix products (Gustavson's algorithm) and the Galerkin
//! triple product used by the multigrid hierarchy.
//!
//! **Row groups.** `spgemm` shares the work of rows that store one column
//! list. The rows of each aligned triple of a node-blocked left operand
//! (the elasticity operator, three displacement components per mesh node)
//! go through the product as one group: each right-hand row they name is
//! read once, and its products go into three accumulators side by side
//! (one `[S; 3]` slot per column). Consecutive stored columns of a left row
//! that name right-hand rows of one column list (a *right run*: the node
//! triples of `A·P`, which `Pᵀ·(AP)` reads) take one pass over that list.
//!
//! **The rounding is unchanged.** An output entry is the sum, from a zero,
//! of its row's products in the order of the row's stored columns. A group
//! keeps each row's own accumulator, and a run adds its products to each
//! entry in column order, so every entry sees the same products in the
//! same order as the one-row-at-a-time loop: the result is `to_bits` the
//! stamped reference's, at any thread count and wherever the parallel split
//! cuts a triple. The choice of accumulator (dense or stamped) is still per
//! row, and a triple's rows, sharing one column list, always agree on it.

#![allow(clippy::needless_range_loop)] // index loops mirror the BLAS/LAPACK reference forms

use crate::Csr;
use kryst_rt::par::{map_range, max_threads};
use kryst_scalar::Scalar;
use std::cmp::Ordering;

/// Row count below which `spgemm` stays serial (pool dispatch would cost
/// more than the product itself on the coarse AMG levels).
const SPGEMM_PAR_MIN_ROWS: usize = 256;

/// Longest run of equal-pattern `B` rows that one pass over their column
/// list takes (see [`spgemm`]).
const MAX_RUN: usize = 4;

/// `C = A·B` (CSR × CSR) via row-merge with a dense accumulator.
///
/// Rows are independent, so large products split into contiguous row ranges
/// across the worker pool, each with its own accumulator; per-row
/// accumulation order is the serial order, so the result is bit-identical
/// at any thread count.
///
/// Rows that share a column list share their work (see the module
/// documentation). When `A` is node-blocked ([`Csr::is_node_blocked`]),
/// each aligned row triple is one group; a triple that the parallel split
/// cuts runs row by row. When consecutive stored columns `k, k + 1, …` (at
/// most `MAX_RUN`, four) of an `A` row name `B` rows of one column list, one
/// pass over that list adds all their products to each accumulator entry,
/// in `k` order.
pub fn spgemm<S: Scalar>(a: &Csr<S>, b: &Csr<S>) -> Csr<S> {
    assert_eq!(a.ncols(), b.nrows(), "spgemm: dimension mismatch");
    let nrows = a.nrows();
    let workers = if nrows < SPGEMM_PAR_MIN_ROWS {
        1
    } else {
        max_threads()
    };
    let per = nrows.div_ceil(workers).max(1);
    let same = repeats_previous_row(b);
    let mut parts = map_range(nrows.div_ceil(per).max(1), |pi| {
        spgemm_rows(a, b, &same, pi * per, ((pi + 1) * per).min(nrows))
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

/// Whether each row of `b` stores the same column list as the row before it
/// (never the first row): one pass over the pattern.
fn repeats_previous_row<S: Scalar>(b: &Csr<S>) -> Vec<bool> {
    let (bptr, bcol, _) = b.arrays();
    let mut same = vec![false; b.nrows()];
    for r in 1..b.nrows() {
        let (s0, s1, e) = (bptr[r - 1], bptr[r], bptr[r + 1]);
        same[r] = e - s1 == s1 - s0 && bcol[s0..s1].iter().zip(&bcol[s1..e]).all(|(x, y)| x == y);
    }
    same
}

/// How many `B` rows from the stored position `j` of the column list
/// `acols` on one pass can take: `acols[j..j + w]` are consecutive columns
/// whose `B` rows all repeat the first one's pattern, `w ≤ MAX_RUN`.
fn run_width(acols: &[usize], j: usize, same: &[bool]) -> usize {
    let k = acols[j];
    let mut w = 1;
    while w < MAX_RUN && j + w < acols.len() && acols[j + w] == k + w && same[k + w] {
        w += 1;
    }
    w
}

/// The work that [`spgemm`] shares in `A·B` on one thread: the aligned row
/// triples of a node-blocked `A` taken as one group, and the right runs (of
/// two to `MAX_RUN` equal-pattern `B` rows) that one pass took, counted
/// once per row group.
pub fn shared_work<S: Scalar>(a: &Csr<S>, b: &Csr<S>) -> (usize, usize) {
    let same = repeats_previous_row(b);
    let group = if a.is_node_blocked() { 3 } else { 1 };
    let (aptr, acol, _) = a.arrays();
    let mut runs = 0;
    for i in (0..a.nrows()).step_by(group) {
        let acols = &acol[aptr[i]..aptr[i + 1]];
        let mut j = 0;
        while j < acols.len() {
            let w = run_width(acols, j, &same);
            runs += usize::from(w > 1);
            j += w;
        }
    }
    let triples = if group == 3 { a.nrows() / 3 } else { 0 };
    (triples, runs)
}

/// Share of `ncols` that the bound `Σ_k nnz(B[a_ik, :])` on a row's products
/// has to reach for the row to be accumulated without bookkeeping: `1 / 4`
/// (swept in EXPERIMENTS.md, *Set-up path*).
const SCATTER_SHARE: usize = 4;

/// What one part of [`spgemm`] reads and the rows it has written.
struct Rows<'a, S> {
    aptr: &'a [usize],
    acol: &'a [usize],
    aval: &'a [S],
    bptr: &'a [usize],
    bcol: &'a [usize],
    bval: &'a [S],
    same: &'a [bool],
    lens: Vec<usize>,
    indices: Vec<usize>,
    data: Vec<S>,
    /// The touched columns of a stamped row group, and the group that last
    /// touched each column.
    touched: Vec<usize>,
    stamp: Vec<usize>,
    /// Rows 1 and 2 of a triple, written out after row 0.
    spill: [Vec<(usize, S)>; 2],
}

/// Gustavson row-merge over the row range `[lo, hi)`; returns per-row
/// lengths plus the concatenated column indices and values.
///
/// The accumulator is chosen per output row. When the row's products are a
/// fair share of `ncols` (the Galerkin products: each stored entry is hit
/// many times), they are added straight into a dense row that is scanned
/// and zeroed afterwards; otherwise a generation stamp records which
/// columns were touched, and only those are sorted and read. Both add the
/// same products in the same order to a zero, so the choice does not show
/// in the result. The rows of a triple store one column list, so they have
/// the same bound and take the same side.
#[allow(clippy::type_complexity)]
fn spgemm_rows<S: Scalar>(
    a: &Csr<S>,
    b: &Csr<S>,
    same: &[bool],
    lo: usize,
    hi: usize,
) -> (Vec<usize>, Vec<usize>, Vec<S>) {
    let ncols = b.ncols();
    let ((aptr, acol, aval), (bptr, bcol, bval)) = (a.arrays(), b.arrays());
    let mut rows = Rows {
        aptr,
        acol,
        aval,
        bptr,
        bcol,
        bval,
        same,
        lens: Vec::with_capacity(hi - lo),
        indices: Vec::new(),
        data: Vec::new(),
        touched: Vec::new(),
        stamp: vec![usize::MAX; ncols],
        spill: [Vec::new(), Vec::new()],
    };
    // The whole triples in the range; the rows around them go one by one.
    let (first, last) = if a.is_node_blocked() {
        (lo.next_multiple_of(3).min(hi), hi - hi % 3)
    } else {
        (hi, hi)
    };
    // All zero between row groups: each path zeroes what it read.
    let mut acc = vec![[S::zero(); 1]; ncols];
    for i in lo..first {
        rows.group::<1>(i, &mut acc);
    }
    if first < last {
        let mut acc3 = vec![[S::zero(); 3]; ncols];
        for i in (first..last).step_by(3) {
            rows.group::<3>(i, &mut acc3);
        }
    }
    for i in last.max(first)..hi {
        rows.group::<1>(i, &mut acc);
    }
    (rows.lens, rows.indices, rows.data)
}

impl<S: Scalar> Rows<'_, S> {
    /// The `G` rows from `i` on, which store one column list, into `acc`
    /// (zero on entry and on return), then out row by row.
    fn group<const G: usize>(&mut self, i: usize, acc: &mut [[S; G]]) {
        let (aptr, bptr) = (self.aptr, self.bptr);
        let acols = &self.acol[aptr[i]..aptr[i + 1]];
        let avals: [&[S]; G] = std::array::from_fn(|r| &self.aval[aptr[i + r]..aptr[i + r + 1]]);
        debug_assert!(avals.iter().all(|v| v.len() == acols.len()));
        let products: usize = acols.iter().map(|&k| bptr[k + 1] - bptr[k]).sum();
        let dense = products * SCATTER_SHARE >= acc.len();
        if !dense {
            self.touched.clear();
        }
        let mut j = 0;
        while j < acols.len() {
            let w = run_width(acols, j, self.same);
            let k = acols[j];
            match (w, dense) {
                (1, true) => self.run::<G, 1, true>(i, k, &avals, j, acc),
                (2, true) => self.run::<G, 2, true>(i, k, &avals, j, acc),
                (3, true) => self.run::<G, 3, true>(i, k, &avals, j, acc),
                (_, true) => self.run::<G, MAX_RUN, true>(i, k, &avals, j, acc),
                (1, false) => self.run::<G, 1, false>(i, k, &avals, j, acc),
                (2, false) => self.run::<G, 2, false>(i, k, &avals, j, acc),
                (3, false) => self.run::<G, 3, false>(i, k, &avals, j, acc),
                (_, false) => self.run::<G, MAX_RUN, false>(i, k, &avals, j, acc),
            }
            j += w;
        }
        let before = self.indices.len();
        let mut out = |c: usize, v: [S; G]| {
            for (r, &x) in v.iter().enumerate() {
                if x != S::zero() {
                    if r == 0 {
                        self.indices.push(c);
                        self.data.push(x);
                    } else {
                        self.spill[r - 1].push((c, x));
                    }
                }
            }
        };
        if dense {
            for (c, v) in acc.iter_mut().enumerate() {
                if v.iter().any(|&x| x != S::zero()) {
                    out(c, std::mem::replace(v, [S::zero(); G]));
                }
            }
        } else {
            self.touched.sort_unstable();
            for &c in &self.touched {
                out(c, std::mem::replace(&mut acc[c], [S::zero(); G]));
            }
        }
        self.lens.push(self.indices.len() - before);
        for spill in &mut self.spill[..G - 1] {
            self.lens.push(spill.len());
            self.indices.extend(spill.iter().map(|&(c, _)| c));
            self.data.extend(spill.iter().map(|&(_, v)| v));
            spill.clear();
        }
    }

    /// The products of the `R` equal-pattern `B` rows from `k` on with the
    /// `A` entries at stored positions `j..j + R` of the group's `G` rows,
    /// added to each accumulator entry row by row in `k` order. `DENSE`
    /// skips the stamp of the touched columns.
    #[inline(always)]
    fn run<const G: usize, const R: usize, const DENSE: bool>(
        &mut self,
        i: usize,
        k: usize,
        avals: &[&[S]; G],
        j: usize,
        acc: &mut [[S; G]],
    ) {
        // The `R` rows are stored one after the other, each as long as the
        // first.
        let (b0, len) = (self.bptr[k], self.bptr[k + 1] - self.bptr[k]);
        let cols = &self.bcol[b0..b0 + len];
        let vals = &self.bval[b0..b0 + R * len];
        let coef: [[S; R]; G] = std::array::from_fn(|r| std::array::from_fn(|m| avals[r][j + m]));
        for (l, &c) in cols.iter().enumerate() {
            // SAFETY: `Csr::from_raw` checked every column index of `B`
            // against `ncols`, the length of `acc` and of `stamp`, and
            // `vals` holds `R` rows of `len` values.
            unsafe {
                if !DENSE && *self.stamp.get_unchecked(c) != i {
                    *self.stamp.get_unchecked_mut(c) = i;
                    self.touched.push(c);
                }
                let slot = acc.get_unchecked_mut(c);
                let mut sum = *slot;
                for m in 0..R {
                    let bv = *vals.get_unchecked(m * len + l);
                    for r in 0..G {
                        sum[r] += coef[r][m] * bv;
                    }
                }
                *slot = sum;
            }
        }
    }
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

    /// `nr × nc` matrix whose rows come in runs of 1 to 5 (in turn) that
    /// store one column list of up to `max_row` columns, empty lists
    /// included. The rows of every third run also share their values; the
    /// second result marks each row whose successor is such a twin.
    fn equal_runs<S: Scalar>(
        nr: usize,
        nc: usize,
        max_row: usize,
        seed: u64,
    ) -> (Csr<S>, Vec<bool>) {
        let mut rng = Rng64::seed_from_u64(seed);
        let (mut indptr, mut indices, mut data) = (vec![0], Vec::new(), Vec::new());
        let mut twin = vec![false; nr];
        let (mut i, mut run) = (0, 0);
        while i < nr {
            let len = (run % 5 + 1).min(nr - i);
            let mut cols: Vec<usize> = (0..rng.gen_index(max_row + 1))
                .map(|_| rng.gen_index(nc))
                .collect();
            cols.sort_unstable();
            cols.dedup();
            let vals: Vec<S> = (0..cols.len())
                .map(|_| S::from_parts(rng.next_f64() - 0.5, rng.next_f64() - 0.5))
                .collect();
            for r in 0..len {
                indices.extend_from_slice(&cols);
                if run % 3 == 0 {
                    data.extend_from_slice(&vals);
                    twin[i + r] = r + 1 < len && !cols.is_empty();
                } else {
                    data.extend(
                        (0..cols.len())
                            .map(|_| S::from_parts(rng.next_f64() - 0.5, rng.next_f64())),
                    );
                }
                indptr.push(indices.len());
            }
            i += len;
            run += 1;
        }
        (Csr::from_raw(nr, nc, indptr, indices, data), twin)
    }

    /// Node-blocked `3·nbr × 3·nbk` matrix: each block row couples to 1 to
    /// `max_blocks` block columns. The three rows of every fourth block row
    /// are zero but for one pair `(k, v), (k + 1, −v)` each, where `twin`
    /// marks `k`, so that their product with the twin rows is exactly zero.
    fn blocked<S: Scalar>(
        nbr: usize,
        nbk: usize,
        max_blocks: usize,
        seed: u64,
        twin: &[bool],
    ) -> Csr<S> {
        let mut rng = Rng64::seed_from_u64(seed);
        let (mut indptr, mut indices, mut data) = (vec![0], Vec::new(), Vec::new());
        for bi in 0..nbr {
            let mut bcols: Vec<usize> = (0..1 + rng.gen_index(max_blocks))
                .map(|_| rng.gen_index(nbk))
                .collect();
            bcols.sort_unstable();
            bcols.dedup();
            let cols: Vec<usize> = bcols.iter().flat_map(|&b| 3 * b..3 * b + 3).collect();
            let pairs: Vec<usize> = (0..cols.len())
                .filter(|&q| q % 3 < 2 && twin[cols[q]])
                .collect();
            for _ in 0..3 {
                indices.extend_from_slice(&cols);
                let mut vals: Vec<S> = (0..cols.len())
                    .map(|_| S::from_parts(rng.next_f64() - 0.5, rng.next_f64() - 0.5))
                    .collect();
                if bi % 4 == 1 && !pairs.is_empty() {
                    let q = pairs[rng.gen_index(pairs.len())];
                    let v = vals[q];
                    vals.iter_mut().for_each(|v| *v = S::zero());
                    (vals[q], vals[q + 1]) = (v, -v);
                }
                data.extend(vals);
                indptr.push(indices.len());
            }
        }
        Csr::from_raw(3 * nbr, 3 * nbk, indptr, indices, data)
    }

    /// Row-grouped `spgemm` against the stamped reference, bit for bit:
    /// node-blocked left operands (row triples) with rows on both sides of
    /// the accumulator rule, and a plain left operand with empty rows, each
    /// against right operands whose rows come in runs of 1 to 5 equal
    /// column lists; some rows cancel to exactly zero. At 603 rows, past
    /// `SPGEMM_PAR_MIN_ROWS`, `KRYST_THREADS=4` splits the rows in parts of
    /// 151, so the parallel split cuts triples.
    fn shared_rows_match_the_stamped_reference<S: Scalar>() {
        let nr = 603usize;
        assert_ne!(nr.div_ceil(4) % 3, 0, "four parts cut a triple");
        for (nk, nc, max_blocks, max_b) in [
            (300usize, 4000usize, 4usize, 8usize),
            (300, 60, 6, 10),
            (450, 240, 12, 6),
        ] {
            let what = format!("{nr}x{nk}x{nc}");
            let (b, twin) = equal_runs::<S>(nk, nc, max_b, 3 + nc as u64);
            for (a, triples) in [
                (
                    blocked::<S>(nr / 3, nk / 3, max_blocks, 7 + nk as u64, &twin),
                    nr / 3,
                ),
                (
                    ragged::<S>(nr, nk, 3 * max_blocks, 9 + nk as u64, false, false),
                    0,
                ),
            ] {
                assert_eq!(a.is_node_blocked(), triples > 0, "{what}");
                let (shared_triples, runs) = shared_work(&a, &b);
                assert_eq!(shared_triples, triples, "{what}");
                assert!(runs > 0, "{what}: no right run");
                let want = spgemm_ref(&a, &b);
                if triples > 0 {
                    let cancelled = (0..nr).filter(|&i| want.row_indices(i).is_empty()).count();
                    assert!(cancelled > 0, "{what}: no row cancels");
                } else {
                    assert!((0..nr).any(|i| a.row_indices(i).is_empty()), "{what}");
                }
                let (scatter, stamped) = sides(&a, &b);
                let both = scatter > 0 && stamped > 0;
                assert!(
                    both || nc == 4000,
                    "{what}: {scatter} scatter, {stamped} stamped"
                );
                assert_same(&spgemm(&a, &b), &want, &what);
            }
        }
    }

    #[test]
    fn shared_rows_match_the_stamped_reference_f64() {
        shared_rows_match_the_stamped_reference::<f64>();
    }

    #[test]
    fn shared_rows_match_the_stamped_reference_c64() {
        shared_rows_match_the_stamped_reference::<C64>();
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
