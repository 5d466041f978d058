//! ILU(0) — incomplete LU factorization with zero fill-in.
//!
//! The paper's §IV-B closes by noting that recycling lets one relax the
//! setup of robust preconditioners, naming the "level of fill-in for
//! incomplete factorizations" as one such knob; ILU(0) is that family's
//! cheapest member and serves as a mid-strength baseline between Jacobi and
//! AMG. The factorization keeps exactly the sparsity pattern of `A`.

#![allow(clippy::needless_range_loop)] // index loops mirror the BLAS/LAPACK reference forms

use kryst_dense::DMat;
use kryst_par::PrecondOp;
use kryst_rt::par::{for_each_range, max_threads, SendPtr};
use kryst_scalar::Scalar;
use kryst_sparse::Csr;

/// Column-register block width for the multi-RHS sweeps.
const BW: usize = 8;

/// Minimum rows in a topological level before the sweep dispatches to the
/// worker pool; smaller levels (e.g. every level of a 1-D chain) run inline.
const PAR_MIN_ROWS: usize = 64;

/// Minimum level *work* (rows × RHS columns) before a level dispatches to
/// the pool: narrow blocks need proportionally wider levels for the
/// per-dispatch cost (~1 µs) to amortize. At `p = 8` this is just
/// `PAR_MIN_ROWS`; a single-column apply needs a 512-row level.
const PAR_MIN_WORK: usize = 512;

/// ILU(0) preconditioner: `M = L̃·Ũ` on the pattern of `A`.
///
/// Application uses a *level-scheduled* sweep: rows are grouped at setup
/// into topological levels of the L (resp. U) dependency DAG, rows within a
/// level are solved in parallel, and all `p` right-hand-side columns stream
/// through each row in one pass. Per-row arithmetic order is exactly that
/// of the serial [`Ilu0::solve_col`] reference, so the result is
/// bit-identical at any thread count.
pub struct Ilu0<S: Scalar> {
    /// Combined factors on A's pattern: strictly-lower part holds L̃ (unit
    /// diagonal implicit), upper part holds Ũ.
    factors: Csr<S>,
    /// Column position of the diagonal entry within each row.
    diag_pos: Vec<usize>,
    /// Forward-sweep level schedule: rows of level `l` are
    /// `fwd_rows[fwd_ptr[l]..fwd_ptr[l + 1]]`.
    fwd_rows: Vec<usize>,
    fwd_ptr: Vec<usize>,
    /// Backward-sweep level schedule (levels of the Ũ dependency DAG).
    bwd_rows: Vec<usize>,
    bwd_ptr: Vec<usize>,
}

impl<S: Scalar> Ilu0<S> {
    /// Factor `a` (square, with a full diagonal). Returns `None` when a
    /// pivot vanishes (the pattern-restricted elimination broke down).
    pub fn new(a: &Csr<S>) -> Option<Self> {
        let _t = kryst_obs::traced(kryst_obs::SpanKind::PrecondSetup);
        let n = a.nrows();
        assert_eq!(n, a.ncols());
        let mut f = a.clone();
        let (ptr, cols, vals) = f.values_mut();
        let row = |i: usize| ptr[i]..ptr[i + 1];
        let mut diag_pos = vec![usize::MAX; n];
        for i in 0..n {
            match cols[row(i)].binary_search(&i) {
                Ok(k) => diag_pos[i] = k,
                Err(_) => return None, // missing diagonal
            }
        }
        // IKJ-variant Gaussian elimination restricted to the pattern.
        for i in 0..n {
            // For each k < i present in row i:
            for ki in 0..row(i).len() {
                let k = cols[ptr[i] + ki];
                if k >= i {
                    break;
                }
                let pivot = vals[ptr[k] + diag_pos[k]];
                if pivot == S::zero() || !pivot.is_finite() {
                    return None;
                }
                let lik = vals[ptr[i] + ki] / pivot;
                vals[ptr[i] + ki] = lik;
                if lik == S::zero() {
                    continue;
                }
                // row_i ⟵ row_i − l_ik · row_k (pattern-restricted, j > k).
                for kk in row(k) {
                    let c = cols[kk];
                    if c <= k {
                        continue;
                    }
                    if let Ok(pos) = cols[row(i)].binary_search(&c) {
                        let upd = lik * vals[kk];
                        vals[ptr[i] + pos] -= upd;
                    }
                }
            }
            if vals[ptr[i] + diag_pos[i]] == S::zero() {
                return None;
            }
        }
        let (fwd_rows, fwd_ptr) = forward_levels(&f);
        let (bwd_rows, bwd_ptr) = backward_levels(&f, &diag_pos);
        Some(Self {
            factors: f,
            diag_pos,
            fwd_rows,
            fwd_ptr,
            bwd_rows,
            bwd_ptr,
        })
    }

    /// Apply `M⁻¹ = Ũ⁻¹·L̃⁻¹` to one column — the serial reference the
    /// level-scheduled sweep is tested bit-identical against.
    pub fn solve_col(&self, rhs: &[S], out: &mut [S]) {
        let n = self.factors.nrows();
        out.copy_from_slice(rhs);
        // Forward: L̃ (unit diagonal).
        for i in 0..n {
            let cols = self.factors.row_indices(i);
            let vals = self.factors.row_values(i);
            let mut acc = out[i];
            for (k, &c) in cols.iter().enumerate() {
                if c >= i {
                    break;
                }
                acc -= vals[k] * out[c];
            }
            out[i] = acc;
        }
        // Backward: Ũ.
        for i in (0..n).rev() {
            let cols = self.factors.row_indices(i);
            let vals = self.factors.row_values(i);
            let dp = self.diag_pos[i];
            let mut acc = out[i];
            for k in dp + 1..cols.len() {
                acc -= vals[k] * out[cols[k]];
            }
            out[i] = acc / vals[dp];
        }
    }
}

impl<S: Scalar> Ilu0<S> {
    /// Run one level of the forward (unit-L̃) sweep over all `p` columns of
    /// `z`, in place. `zp` points at `z`'s column-major storage (`n × p`).
    ///
    /// SAFETY: every row in `rows` writes only its own entries `z[i + j·n]`
    /// and reads entries of rows in strictly earlier levels; the caller
    /// guarantees `rows` come from one level, so parallel parts touch
    /// disjoint locations.
    unsafe fn fwd_level(&self, rows: &[usize], zp: *mut S, n: usize, p: usize) {
        for &i in rows {
            self.fwd_row(i, zp, n, p);
        }
    }

    /// Backward (Ũ) analogue of [`Self::fwd_level`]; same safety contract.
    unsafe fn bwd_level(&self, rows: &[usize], zp: *mut S, n: usize, p: usize) {
        for &i in rows {
            self.bwd_row(i, zp, n, p);
        }
    }

    /// One forward-substitution row over all `p` columns of `z`, in place.
    ///
    /// SAFETY: writes only `z[i + j·n]`; reads rows this one depends on,
    /// which the caller guarantees are already final.
    #[inline]
    unsafe fn fwd_row(&self, i: usize, zp: *mut S, n: usize, p: usize) {
        let cols = self.factors.row_indices(i);
        let vals = self.factors.row_values(i);
        let lower = cols.partition_point(|&c| c < i);
        if p == 1 {
            // Single-column fast path: plain scalar recurrence, no register
            // block. Accumulation order matches the blocked path (and
            // `solve_col`) exactly.
            let mut acc = *zp.add(i);
            for k in 0..lower {
                acc -= vals[k] * *zp.add(cols[k]);
            }
            *zp.add(i) = acc;
            return;
        }
        let mut j0 = 0;
        while j0 < p {
            let bw = (p - j0).min(BW);
            let mut acc = [S::zero(); BW];
            for t in 0..bw {
                acc[t] = *zp.add((j0 + t) * n + i);
            }
            for k in 0..lower {
                let v = vals[k];
                let c = cols[k];
                for t in 0..bw {
                    acc[t] -= v * *zp.add((j0 + t) * n + c);
                }
            }
            for t in 0..bw {
                *zp.add((j0 + t) * n + i) = acc[t];
            }
            j0 += bw;
        }
    }

    /// Backward (Ũ) analogue of [`Self::fwd_row`]; same safety contract.
    #[inline]
    unsafe fn bwd_row(&self, i: usize, zp: *mut S, n: usize, p: usize) {
        let cols = self.factors.row_indices(i);
        let vals = self.factors.row_values(i);
        let dp = self.diag_pos[i];
        let piv = vals[dp];
        if p == 1 {
            let mut acc = *zp.add(i);
            for k in dp + 1..cols.len() {
                acc -= vals[k] * *zp.add(cols[k]);
            }
            *zp.add(i) = acc / piv;
            return;
        }
        let mut j0 = 0;
        while j0 < p {
            let bw = (p - j0).min(BW);
            let mut acc = [S::zero(); BW];
            for t in 0..bw {
                acc[t] = *zp.add((j0 + t) * n + i);
            }
            for k in dp + 1..cols.len() {
                let v = vals[k];
                let c = cols[k];
                for t in 0..bw {
                    acc[t] -= v * *zp.add((j0 + t) * n + c);
                }
            }
            for t in 0..bw {
                *zp.add((j0 + t) * n + i) = acc[t] / piv;
            }
            j0 += bw;
        }
    }

    /// One full triangular sweep (forward or backward) over the level
    /// schedule, parallelizing within each level when it is big enough.
    fn sweep(&self, z: &mut DMat<S>, forward: bool) {
        let n = self.factors.nrows();
        let p = z.ncols();
        let (rows, ptr) = if forward {
            (&self.fwd_rows, &self.fwd_ptr)
        } else {
            (&self.bwd_rows, &self.bwd_ptr)
        };
        let zp = SendPtr::new(z.as_mut_slice().as_mut_ptr());
        let max_width = ptr.windows(2).map(|w| w[1] - w[0]).max().unwrap_or(0);
        if max_threads() <= 1 || max_width < PAR_MIN_ROWS || max_width * p < PAR_MIN_WORK {
            // No level is worth a pool dispatch: run the sweep in natural
            // row order, which is itself a topological order for a
            // triangular solve (row i of L̃ depends only on rows < i, of Ũ
            // only on rows > i) and streams the factors sequentially. The
            // per-row arithmetic is shared with the level path, so the
            // result stays bit-identical.
            // SAFETY: serial — each row is final before any row reading it.
            unsafe {
                if forward {
                    for i in 0..n {
                        self.fwd_row(i, zp.ptr(), n, p);
                    }
                } else {
                    for i in (0..n).rev() {
                        self.bwd_row(i, zp.ptr(), n, p);
                    }
                }
            }
            return;
        }
        for l in 0..ptr.len().saturating_sub(1) {
            let lvl = &rows[ptr[l]..ptr[l + 1]];
            if lvl.len() >= PAR_MIN_ROWS && lvl.len() * p >= PAR_MIN_WORK {
                // SAFETY: rows within one level write disjoint entries of z
                // and read only rows from earlier levels (see fwd_level).
                for_each_range(lvl.len(), 0, |lo, hi| unsafe {
                    if forward {
                        self.fwd_level(&lvl[lo..hi], zp.ptr(), n, p);
                    } else {
                        self.bwd_level(&lvl[lo..hi], zp.ptr(), n, p);
                    }
                });
            } else {
                // SAFETY: serial — trivially disjoint.
                unsafe {
                    if forward {
                        self.fwd_level(lvl, zp.ptr(), n, p);
                    } else {
                        self.bwd_level(lvl, zp.ptr(), n, p);
                    }
                }
            }
        }
    }
}

/// Topological levels of the strictly-lower (L̃) dependency DAG:
/// `level(i) = 1 + max level(c)` over lower-triangular nonzeros `c < i`.
fn forward_levels<S: Scalar>(f: &Csr<S>) -> (Vec<usize>, Vec<usize>) {
    let n = f.nrows();
    let mut lvl = vec![0usize; n];
    let mut nlvl = 0usize;
    for i in 0..n {
        let cols = f.row_indices(i);
        let mut l = 0;
        for &c in cols {
            if c >= i {
                break;
            }
            l = l.max(lvl[c] + 1);
        }
        lvl[i] = l;
        nlvl = nlvl.max(l + 1);
    }
    bucket_rows(&lvl, nlvl)
}

/// Topological levels of the strictly-upper (Ũ) dependency DAG, computed
/// from the last row upward.
fn backward_levels<S: Scalar>(f: &Csr<S>, diag_pos: &[usize]) -> (Vec<usize>, Vec<usize>) {
    let n = f.nrows();
    let mut lvl = vec![0usize; n];
    let mut nlvl = 0usize;
    for i in (0..n).rev() {
        let cols = f.row_indices(i);
        let mut l = 0;
        for &c in &cols[diag_pos[i] + 1..] {
            l = l.max(lvl[c] + 1);
        }
        lvl[i] = l;
        nlvl = nlvl.max(l + 1);
    }
    bucket_rows(&lvl, nlvl)
}

/// Bucket rows by level into a flat CSR-style (rows, ptr) pair.
fn bucket_rows(lvl: &[usize], nlvl: usize) -> (Vec<usize>, Vec<usize>) {
    let mut ptr = vec![0usize; nlvl + 1];
    for &l in lvl {
        ptr[l + 1] += 1;
    }
    for l in 0..nlvl {
        ptr[l + 1] += ptr[l];
    }
    let mut rows = vec![0usize; lvl.len()];
    let mut next = ptr.clone();
    for (i, &l) in lvl.iter().enumerate() {
        rows[next[l]] = i;
        next[l] += 1;
    }
    (rows, ptr)
}

impl<S: Scalar> PrecondOp<S> for Ilu0<S> {
    fn nrows(&self) -> usize {
        self.factors.nrows()
    }
    fn apply(&self, r: &DMat<S>, z: &mut DMat<S>) {
        let _sp = kryst_obs::traced(kryst_obs::SpanKind::PrecondApply);
        z.copy_from(r);
        self.sweep(z, true);
        self.sweep(z, false);
    }
    fn bytes_per_apply(&self) -> Option<usize> {
        // Forward + backward together stream every stored nonzero once
        // (lower part forward, diagonal + upper backward) plus the row
        // pointers twice.
        let nnz = self.factors.nnz();
        let ptr_bytes = 2 * (self.factors.nrows() + 1) * std::mem::size_of::<usize>();
        Some(nnz * (std::mem::size_of::<S>() + std::mem::size_of::<usize>()) + ptr_bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kryst_sparse::Coo;

    fn laplace2d(nx: usize) -> Csr<f64> {
        let n = nx * nx;
        let id = |x: usize, y: usize| y * nx + x;
        let mut c = Coo::new(n, n);
        for y in 0..nx {
            for x in 0..nx {
                let me = id(x, y);
                c.push(me, me, 4.0);
                if x > 0 {
                    c.push(me, id(x - 1, y), -1.0);
                }
                if x + 1 < nx {
                    c.push(me, id(x + 1, y), -1.0);
                }
                if y > 0 {
                    c.push(me, id(x, y - 1), -1.0);
                }
                if y + 1 < nx {
                    c.push(me, id(x, y + 1), -1.0);
                }
            }
        }
        c.to_csr()
    }

    #[test]
    fn exact_for_triangular_patterns() {
        // On a tridiagonal matrix ILU(0) has no discarded fill: M = A.
        let n = 12;
        let mut c = Coo::<f64>::new(n, n);
        for i in 0..n {
            c.push(i, i, 2.5);
            if i > 0 {
                c.push(i, i - 1, -1.0);
                c.push(i - 1, i, -1.0);
            }
        }
        let a = c.to_csr();
        let ilu = Ilu0::new(&a).unwrap();
        let x_true: Vec<f64> = (0..n).map(|i| 1.0 + (i % 4) as f64).collect();
        let mut b = vec![0.0; n];
        a.spmv(&x_true, &mut b);
        let bm = DMat::from_col_major(n, 1, b);
        let z = ilu.apply_new(&bm);
        for i in 0..n {
            assert!(
                (z[(i, 0)] - x_true[i]).abs() < 1e-12,
                "M ≠ A on tridiagonal"
            );
        }
    }

    #[test]
    fn preconditions_gmres_like_richardson() {
        // Richardson with ILU(0) must contract on the 2D Laplacian.
        let a = laplace2d(12);
        let n = a.nrows();
        let ilu = Ilu0::new(&a).unwrap();
        let b = DMat::from_fn(n, 1, |i, _| ((i % 7) as f64) - 3.0);
        let mut x = DMat::<f64>::zeros(n, 1);
        for _ in 0..80 {
            let mut r = a.apply(&x);
            r.scale(-1.0);
            r.axpy(1.0, &b);
            let z = ilu.apply_new(&r);
            x.axpy(1.0, &z);
        }
        let mut r = a.apply(&x);
        r.axpy(-1.0, &b);
        assert!(
            r.fro_norm() < 1e-8 * b.fro_norm(),
            "rel res {}",
            r.fro_norm() / b.fro_norm()
        );
    }

    #[test]
    fn multi_rhs_consistent() {
        let a = laplace2d(8);
        let n = a.nrows();
        let ilu = Ilu0::new(&a).unwrap();
        let r = DMat::from_fn(n, 3, |i, j| (((i + j) * 5) % 9) as f64 - 4.0);
        let z = ilu.apply_new(&r);
        for j in 0..3 {
            let rj = DMat::from_col_major(n, 1, r.col(j).to_vec());
            let zj = ilu.apply_new(&rj);
            for i in 0..n {
                assert_eq!(z[(i, j)], zj[(i, 0)]);
            }
        }
    }

    #[test]
    fn missing_diagonal_rejected() {
        let mut c = Coo::<f64>::new(2, 2);
        c.push(0, 1, 1.0);
        c.push(1, 0, 1.0);
        assert!(Ilu0::new(&c.to_csr()).is_none());
    }
}
