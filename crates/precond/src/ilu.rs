//! ILU(0) — incomplete LU factorization with zero fill-in.
//!
//! The paper's §IV-B closes by noting that recycling lets one relax the
//! setup of robust preconditioners, naming the "level of fill-in for
//! incomplete factorizations" as one such knob; ILU(0) is that family's
//! cheapest member and serves as a mid-strength baseline between Jacobi and
//! AMG. The factorization keeps exactly the sparsity pattern of `A`.

#![allow(clippy::needless_range_loop)] // index loops mirror the BLAS/LAPACK reference forms

use kryst_dense::DMat;
use kryst_par::{PrecondOp, PrecondPrecision};
use kryst_rt::par::{for_each_range, max_threads, SendPtr};
use kryst_scalar::{Demote, Scalar};
use kryst_sparse::Csr;
use std::sync::Mutex;

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
pub struct Ilu0<S: Demote> {
    /// Combined factors on A's pattern: strictly-lower part holds L̃ (unit
    /// diagonal implicit), upper part holds Ũ.
    factors: Csr<S>,
    /// Demoted factor copy for the low-precision sweep path: `u32` column
    /// indices + `S::Lo` values on the same row pointers as `factors` —
    /// half the bytes per nonzero for real `f64` systems, swept entirely in
    /// `S::Lo` arithmetic on a packed scratch block. `None` on the
    /// full-precision (default) path.
    lo: Option<LoFactors<S>>,
    /// Storage precision the sweeps run at.
    precision: PrecondPrecision,
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

/// Compact demoted factors sharing the row pointers of `Ilu0::factors`,
/// plus the pooled row-major scratch block the low-precision sweeps run on.
struct LoFactors<S: Demote> {
    indices: Vec<u32>,
    data: Vec<S::Lo>,
    /// Row-major `n × p` low-precision right-hand-side block (`s[i·p + t]`):
    /// every nonzero of a sweep row touches one contiguous `p`-wide run, so
    /// the inner update vectorizes and streams half the bytes of the
    /// column-major working-precision layout. Grown on first apply, reused
    /// (allocation-free) for every steady-state apply at the same width.
    scratch: Mutex<Vec<S::Lo>>,
}

impl<S: Demote> LoFactors<S> {
    fn build(f: &Csr<S>) -> Self {
        assert!(f.ncols() <= u32::MAX as usize);
        let mut indices = Vec::with_capacity(f.nnz());
        let mut data = Vec::with_capacity(f.nnz());
        for i in 0..f.nrows() {
            for (k, &c) in f.row_indices(i).iter().enumerate() {
                indices.push(c as u32);
                data.push(f.row_values(i)[k].demote());
            }
        }
        Self {
            indices,
            data,
            scratch: Mutex::new(Vec::new()),
        }
    }
}

impl<S: Demote> Ilu0<S> {
    /// Factor `a` (square, with a full diagonal). Returns `None` when a
    /// pivot vanishes (the pattern-restricted elimination broke down).
    /// Factors are stored and applied in full precision; see
    /// [`Ilu0::with_precision`] for the mixed-precision variant.
    pub fn new(a: &Csr<S>) -> Option<Self> {
        Self::with_precision(a, PrecondPrecision::Full)
    }

    /// Factor `a` with an explicit sweep-storage precision. The
    /// factorization itself always runs in the working precision `S`; with
    /// [`PrecondPrecision::Single`] the finished factors are additionally
    /// demoted into a compact (`u32` index + `S::Lo` value) copy which the
    /// level-scheduled sweeps then stream. The low-precision sweeps demote
    /// the right-hand-side block once into a packed row-major scratch,
    /// run the whole forward/backward recurrence in `S::Lo` arithmetic
    /// (contiguous, vectorizable, half the bytes end to end) and promote
    /// the result back — the preconditioner is inexact by construction and
    /// flexible outer methods absorb the single-precision rounding.
    pub fn with_precision(a: &Csr<S>, precision: PrecondPrecision) -> Option<Self> {
        let _t = kryst_obs::profile(kryst_obs::Phase::PrecondSetup);
        let mut ilu = Self::factor(a)?;
        if precision == PrecondPrecision::Single {
            ilu.lo = Some(LoFactors::build(&ilu.factors));
            ilu.precision = PrecondPrecision::Single;
        }
        Some(ilu)
    }

    fn factor(a: &Csr<S>) -> Option<Self> {
        let n = a.nrows();
        assert_eq!(n, a.ncols());
        let mut f = a.clone();
        let mut diag_pos = vec![usize::MAX; n];
        for i in 0..n {
            match f.row_indices(i).binary_search(&i) {
                Ok(k) => diag_pos[i] = k,
                Err(_) => return None, // missing diagonal
            }
        }
        // IKJ-variant Gaussian elimination restricted to the pattern.
        for i in 0..n {
            // For each k < i present in row i:
            let row_cols: Vec<usize> = f.row_indices(i).to_vec();
            for (ki, &k) in row_cols.iter().enumerate() {
                if k >= i {
                    break;
                }
                let pivot = f.row_values(k)[diag_pos[k]];
                if pivot == S::zero() || !pivot.is_finite() {
                    return None;
                }
                let lik = f.row_values(i)[ki] / pivot;
                f.row_values_mut(i)[ki] = lik;
                if lik == S::zero() {
                    continue;
                }
                // row_i ⟵ row_i − l_ik · row_k (pattern-restricted, j > k).
                let krange: Vec<(usize, S)> = {
                    let kc = f.row_indices(k);
                    let kv = f.row_values(k);
                    kc.iter()
                        .zip(kv)
                        .filter(|(&c, _)| c > k)
                        .map(|(&c, &v)| (c, v))
                        .collect()
                };
                for (c, ukj) in krange {
                    if let Ok(pos) = f.row_indices(i).binary_search(&c) {
                        let upd = lik * ukj;
                        f.row_values_mut(i)[pos] -= upd;
                    }
                }
            }
            if f.row_values(i)[diag_pos[i]] == S::zero() {
                return None;
            }
        }
        let (fwd_rows, fwd_ptr) = forward_levels(&f);
        let (bwd_rows, bwd_ptr) = backward_levels(&f, &diag_pos);
        Some(Self {
            factors: f,
            lo: None,
            precision: PrecondPrecision::Full,
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

impl<S: Demote> Ilu0<S> {
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

    /// Low-precision forward row over the packed row-major scratch
    /// (`s[row·p + t]`): streams `u32` indices + `S::Lo` values (half the
    /// bytes of the full path for real `f64`) and runs the recurrence in
    /// `S::Lo` arithmetic — every nonzero touches one contiguous `p`-wide
    /// run, so the update vectorizes at twice the lane width of the
    /// working precision. Same safety contract as [`Self::fwd_row`] with
    /// `z` replaced by the scratch block.
    #[inline]
    unsafe fn fwd_row_lo(&self, lo: &LoFactors<S>, i: usize, sp: *mut S::Lo, p: usize) {
        let rng = self.factors.indptr()[i]..self.factors.indptr()[i + 1];
        let cols = &lo.indices[rng.clone()];
        let vals = &lo.data[rng];
        // The diagonal splits the row: everything before it is L̃.
        let lower = self.diag_pos[i];
        if p == 1 {
            let mut acc = *sp.add(i);
            for k in 0..lower {
                acc -= vals[k] * *sp.add(cols[k] as usize);
            }
            *sp.add(i) = acc;
            return;
        }
        let mut j0 = 0;
        while j0 < p {
            let bw = (p - j0).min(BW);
            if bw == BW {
                // Full-width fast path: constant trip count so the `BW`-lane
                // update compiles to straight vector code.
                let base = i * p + j0;
                let mut acc = [S::Lo::zero(); BW];
                for t in 0..BW {
                    acc[t] = *sp.add(base + t);
                }
                for k in 0..lower {
                    let v = vals[k];
                    let cb = cols[k] as usize * p + j0;
                    for t in 0..BW {
                        acc[t] -= v * *sp.add(cb + t);
                    }
                }
                for t in 0..BW {
                    *sp.add(base + t) = acc[t];
                }
                j0 += BW;
                continue;
            }
            let base = i * p + j0;
            let mut acc = [S::Lo::zero(); BW];
            for t in 0..bw {
                acc[t] = *sp.add(base + t);
            }
            for k in 0..lower {
                let v = vals[k];
                let cb = cols[k] as usize * p + j0;
                for t in 0..bw {
                    acc[t] -= v * *sp.add(cb + t);
                }
            }
            for t in 0..bw {
                *sp.add(base + t) = acc[t];
            }
            j0 += bw;
        }
    }

    /// Backward (Ũ) analogue of [`Self::fwd_row_lo`]; the pivot divide also
    /// runs in `S::Lo`.
    #[inline]
    unsafe fn bwd_row_lo(&self, lo: &LoFactors<S>, i: usize, sp: *mut S::Lo, p: usize) {
        let start = self.factors.indptr()[i];
        let rng = start..self.factors.indptr()[i + 1];
        let cols = &lo.indices[rng.clone()];
        let vals = &lo.data[rng];
        let dp = self.diag_pos[i];
        let piv = vals[dp];
        if p == 1 {
            let mut acc = *sp.add(i);
            for k in dp + 1..cols.len() {
                acc -= vals[k] * *sp.add(cols[k] as usize);
            }
            *sp.add(i) = acc / piv;
            return;
        }
        let mut j0 = 0;
        while j0 < p {
            let bw = (p - j0).min(BW);
            if bw == BW {
                // Full-width fast path (see `fwd_row_lo`).
                let base = i * p + j0;
                let mut acc = [S::Lo::zero(); BW];
                for t in 0..BW {
                    acc[t] = *sp.add(base + t);
                }
                for k in dp + 1..cols.len() {
                    let v = vals[k];
                    let cb = cols[k] as usize * p + j0;
                    for t in 0..BW {
                        acc[t] -= v * *sp.add(cb + t);
                    }
                }
                for t in 0..BW {
                    *sp.add(base + t) = acc[t] / piv;
                }
                j0 += BW;
                continue;
            }
            let base = i * p + j0;
            let mut acc = [S::Lo::zero(); BW];
            for t in 0..bw {
                acc[t] = *sp.add(base + t);
            }
            for k in dp + 1..cols.len() {
                let v = vals[k];
                let cb = cols[k] as usize * p + j0;
                for t in 0..bw {
                    acc[t] -= v * *sp.add(cb + t);
                }
            }
            for t in 0..bw {
                *sp.add(base + t) = acc[t] / piv;
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

    /// Level-scheduled sweep over the packed low-precision scratch: same
    /// schedule, dispatch bounds and per-row accumulation order as
    /// [`Self::sweep`], operating on the row-major `n × p` block in `S::Lo`.
    fn sweep_lo(&self, lo: &LoFactors<S>, s: &mut [S::Lo], p: usize, forward: bool) {
        let n = self.factors.nrows();
        let (rows, ptr) = if forward {
            (&self.fwd_rows, &self.fwd_ptr)
        } else {
            (&self.bwd_rows, &self.bwd_ptr)
        };
        let sp = SendPtr::new(s.as_mut_ptr());
        let max_width = ptr.windows(2).map(|w| w[1] - w[0]).max().unwrap_or(0);
        if max_threads() <= 1 || max_width < PAR_MIN_ROWS || max_width * p < PAR_MIN_WORK {
            // SAFETY: serial — natural row order is a topological order.
            unsafe {
                if forward {
                    for i in 0..n {
                        self.fwd_row_lo(lo, i, sp.ptr(), p);
                    }
                } else {
                    for i in (0..n).rev() {
                        self.bwd_row_lo(lo, i, sp.ptr(), p);
                    }
                }
            }
            return;
        }
        for l in 0..ptr.len().saturating_sub(1) {
            let lvl = &rows[ptr[l]..ptr[l + 1]];
            if lvl.len() >= PAR_MIN_ROWS && lvl.len() * p >= PAR_MIN_WORK {
                // SAFETY: rows within one level write disjoint `p`-wide runs
                // of the scratch and read only rows from earlier levels.
                for_each_range(lvl.len(), 0, |a, b| unsafe {
                    for &i in &lvl[a..b] {
                        if forward {
                            self.fwd_row_lo(lo, i, sp.ptr(), p);
                        } else {
                            self.bwd_row_lo(lo, i, sp.ptr(), p);
                        }
                    }
                });
            } else {
                // SAFETY: serial — trivially disjoint.
                unsafe {
                    for &i in lvl {
                        if forward {
                            self.fwd_row_lo(lo, i, sp.ptr(), p);
                        } else {
                            self.bwd_row_lo(lo, i, sp.ptr(), p);
                        }
                    }
                }
            }
        }
    }

    /// The low-precision apply: demote `r` once into the packed scratch,
    /// run both triangular sweeps in `S::Lo`, promote into `z`. The scratch
    /// is retained inside [`LoFactors`], so steady-state applies at a fixed
    /// block width are allocation-free.
    fn apply_lo(&self, lo: &LoFactors<S>, r: &DMat<S>, z: &mut DMat<S>) {
        let n = self.factors.nrows();
        let p = r.ncols();
        let mut guard = lo.scratch.lock().unwrap();
        let s = &mut *guard;
        s.clear();
        s.resize(n * p, S::Lo::zero());
        for j in 0..p {
            let rc = r.col(j);
            for i in 0..n {
                s[i * p + j] = rc[i].demote();
            }
        }
        self.sweep_lo(lo, s, p, true);
        self.sweep_lo(lo, s, p, false);
        for j in 0..p {
            let zc = z.col_mut(j);
            for i in 0..n {
                zc[i] = S::promote_lo(s[i * p + j]);
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

impl<S: Demote> PrecondOp<S> for Ilu0<S> {
    fn nrows(&self) -> usize {
        self.factors.nrows()
    }
    fn apply(&self, r: &DMat<S>, z: &mut DMat<S>) {
        let _t = kryst_obs::profile(kryst_obs::Phase::Precond);
        let _sp = kryst_obs::traced(kryst_obs::TraceKind::PrecondApply);
        if let Some(lo) = &self.lo {
            // Nested attribution: the low-precision sweeps also show up
            // under `precond_lp` so reports can separate the f32-storage
            // portion of the apply.
            let _lp = kryst_obs::profile(kryst_obs::Phase::PrecondLp);
            self.apply_lo(lo, r, z);
        } else {
            z.copy_from(r);
            self.sweep(z, true);
            self.sweep(z, false);
        }
    }
    fn precision(&self) -> PrecondPrecision {
        self.precision
    }
    fn bytes_per_apply(&self) -> Option<usize> {
        // Forward + backward together stream every stored nonzero once
        // (lower part forward, diagonal + upper backward) plus the row
        // pointers twice.
        let nnz = self.factors.nnz();
        let ptr_bytes = 2 * (self.factors.nrows() + 1) * std::mem::size_of::<usize>();
        Some(match &self.lo {
            Some(_) => {
                nnz * (std::mem::size_of::<S::Lo>() + std::mem::size_of::<u32>()) + ptr_bytes
            }
            None => nnz * (std::mem::size_of::<S>() + std::mem::size_of::<usize>()) + ptr_bytes,
        })
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
    fn single_precision_tracks_full_apply() {
        let a = laplace2d(10);
        let n = a.nrows();
        let full = Ilu0::new(&a).unwrap();
        let single = Ilu0::with_precision(&a, PrecondPrecision::Single).unwrap();
        assert_eq!(
            PrecondOp::<f64>::precision(&single),
            PrecondPrecision::Single
        );
        assert_eq!(PrecondOp::<f64>::precision(&full), PrecondPrecision::Full);
        let r = DMat::from_fn(n, 8, |i, j| (((i * 3 + j) % 11) as f64 - 5.0) * 0.37);
        let zf = full.apply_new(&r);
        let zs = single.apply_new(&r);
        let scale = zf.max_abs();
        for i in 0..n {
            for j in 0..8 {
                let err = (zf[(i, j)] - zs[(i, j)]).abs();
                assert!(err < 1e-5 * scale, "err {err} at ({i},{j})");
            }
        }
        // The compact storage must actually cut the reported traffic.
        let bf = PrecondOp::<f64>::bytes_per_apply(&full).unwrap();
        let bs = PrecondOp::<f64>::bytes_per_apply(&single).unwrap();
        assert!(bs * 2 <= bf + 2 * (n + 1) * 8, "bytes {bs} vs {bf}");
    }

    #[test]
    fn single_precision_multi_rhs_consistent() {
        let a = laplace2d(8);
        let n = a.nrows();
        let ilu = Ilu0::with_precision(&a, PrecondPrecision::Single).unwrap();
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
