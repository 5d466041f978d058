//! Compressed sparse row matrix.

use std::sync::Arc;

use kryst_dense::DMat;
use kryst_rt::par::{for_each_range, SendPtr};
use kryst_rt::simd::{self, Kernel, Tier, Width};
use kryst_scalar::Scalar;

/// Compressed sparse row matrix with sorted column indices per row.
///
/// The arrays sit behind [`Arc`]: `clone` shares them, and the first write
/// through [`Csr::row_values_mut`] or [`Csr::values_mut`] copies the values
/// of the matrix written to, so a clone never sees the write.
#[derive(Clone, Debug, PartialEq)]
pub struct Csr<S> {
    nrows: usize,
    ncols: usize,
    indptr: Arc<Vec<usize>>,
    indices: Arc<Vec<usize>>,
    data: Arc<Vec<S>>,
    /// The node blocking of the pattern, when [`NodeBlocks::detect`] finds
    /// one: single-vector sweeps then read it instead of `indptr`/`indices`.
    blocks: Option<Arc<NodeBlocks>>,
}

/// A pattern of 3 × 3 blocks: every aligned row triple `3b..3b + 3` stores
/// one column list, made of aligned column triples (the three displacement
/// components of a mesh node coupled to those of its neighbours). Block row
/// `b` couples to the block columns `cols[ptr[b]..ptr[b + 1]]`; with `m`
/// of them, its three rows' `3m` values each lie one after the other in the
/// CSR's `data` from `9·ptr[b]` on, as every stored row before them is a
/// full row of blocks.
#[derive(Debug, PartialEq)]
struct NodeBlocks {
    ptr: Vec<usize>,
    cols: Vec<u32>,
}

impl NodeBlocks {
    /// The blocking of a validated CSR pattern, or `None` at the first block
    /// row that breaks it (so a matrix of another shape pays for one block
    /// row, and allocates nothing). Empty rows break it too.
    fn detect(nrows: usize, ncols: usize, indptr: &[usize], indices: &[usize]) -> Option<Self> {
        if nrows == 0
            || !nrows.is_multiple_of(3)
            || !ncols.is_multiple_of(3)
            || ncols / 3 > u32::MAX as usize
        {
            return None;
        }
        // The column lists of each block row's three rows.
        let triples =
            || (indptr.windows(4).step_by(3)).map(|r| [0, 1, 2].map(|k| &indices[r[k]..r[k + 1]]));
        let aligned = |t: &[usize]| t[0].is_multiple_of(3) && t[1] == t[0] + 1 && t[2] == t[0] + 2;
        let blocked = triples().all(|[row, r1, r2]| {
            row == r1
                && row == r2
                && !row.is_empty()
                && row.len().is_multiple_of(3)
                && row.chunks_exact(3).all(aligned)
        });
        if !blocked {
            return None;
        }
        let ptr = std::iter::once(0)
            .chain(triples().scan(0, |n, [row, ..]| {
                *n += row.len() / 3;
                Some(*n)
            }))
            .collect();
        let cols = triples()
            .flat_map(|[row, ..]| row.iter().step_by(3).map(|&c| (c / 3) as u32))
            .collect();
        Some(Self { ptr, cols })
    }
}

/// Row count below which SpMV/SpMM stay single-threaded.
const PAR_ROWS: usize = 4096;

/// Stored entries from which a row is summed on two accumulators; see
/// [`sweep_rows`]. Rows of 3-, 5- and 7-point stencils stay below it.
const TWO_LANE_LEN: usize = 8;

/// Column-block width for SpMM register accumulators: each row's nonzeros
/// are streamed once per block of this many right-hand sides.
const SPMM_COLS: usize = 8;

/// Flat positions `k` at which `indices[k - 1] < indices[k]` fails and `k`
/// starts a row. Every other such position is inside a row, whose column
/// indices must strictly increase. `indptr` is non-decreasing from 0 to
/// `indices.len()`, so the starts of the non-empty rows are distinct.
fn row_start_descents(indptr: &[usize], indices: &[usize]) -> usize {
    indptr
        .windows(2)
        .filter(|w| 0 < w[0] && w[0] < w[1] && indices[w[0] - 1] >= indices[w[0]])
        .count()
}

/// The panic of [`Csr::from_raw`], naming the first offending row.
#[cold]
#[inline(never)]
fn invalid_csr(ncols: usize, indptr: &[usize], indices: &[usize]) -> ! {
    if let Some(i) = indptr.windows(2).position(|w| w[0] > w[1]) {
        panic!(
            "Csr::from_raw: row {i} has indptr {}..{}: indptr must not decrease",
            indptr[i],
            indptr[i + 1]
        );
    }
    if let Some(k) = indices.iter().position(|&c| c >= ncols) {
        let i = indptr.partition_point(|&p| p <= k) - 1;
        panic!(
            "Csr::from_raw: row {i} has column index {}, matrix has {ncols} columns",
            indices[k]
        );
    }
    let (i, w) = indptr
        .windows(2)
        .enumerate()
        .find_map(|(i, r)| {
            let row = &indices[r[0]..r[1]];
            row.windows(2).find(|w| w[0] >= w[1]).map(|w| (i, w))
        })
        .expect("called for an invalid matrix");
    panic!(
        "Csr::from_raw: row {i} has column index {} after {}: \
         column indices must strictly increase within a row",
        w[1], w[0]
    );
}

/// `acc[l] += a·x[l·xn + c]` for `l < nb`: the one place a stored entry meets
/// an operand entry. Always inlined, so a literal `nb` fixes the loop's width
/// and the accumulators it touches stay in registers.
///
/// # Safety
/// `x` must be readable at `l·xn + c` for every `l < nb`.
#[inline(always)]
unsafe fn add_entry<S: Scalar>(
    acc: &mut [S; SPMM_COLS],
    nb: usize,
    (a, c): (S, usize),
    (x, xn): (*const S, usize),
) {
    for (l, al) in acc.iter_mut().enumerate().take(nb) {
        *al += a * *x.add(l * xn + c);
    }
}

/// Rows `r0..r1` of one block of `nb ≤ SPMM_COLS` columns starting at
/// column `jb`; see [`sweep_rows`], whose contract this inherits. `W` is `nb`
/// where that is a literal and 0 where it is not. Never inlined: each width
/// is a function of its own, so the single-column loop over 5-point rows is
/// not allocated registers together with the 16-accumulator block loop.
#[inline(never)]
unsafe fn sweep_block<S: Scalar, F: Fn(usize, S) -> S, const W: usize>(
    arrays: (&[usize], &[usize], &[S]),
    x: (&[S], usize),
    y: (SendPtr<S>, usize),
    fin: &F,
    rows: (usize, usize),
    cols: (usize, usize),
) {
    simd::run(RowBlock::<S, F, W> {
        arrays,
        x,
        y,
        fin,
        rows,
        cols,
    })
}

/// The widest tier of the row sweep. A complex sweep reads faster at every
/// vector width (about 2× at 256 or 512 bits, `p` = 1 and 8, on the Maxwell
/// operator), and fastest at 512; a real one runs on the baseline target as
/// it always has.
fn row_sweep_widest<S: Scalar>() -> Tier {
    if S::is_complex() {
        Tier::Avx512
    } else {
        Tier::Baseline
    }
}

/// The tier the row sweep under [`Csr::spmm`] runs at for `S` on this CPU.
pub fn row_sweep_tier<S: Scalar>() -> Tier {
    simd::capped(row_sweep_widest::<S>())
}

/// The arguments of one [`sweep_block`] call: its loops as a [`Kernel`].
/// Only `sweep_block` makes one, under its caller's contract (and the
/// tests, from the arrays of a matrix `Csr::from_raw` validated).
struct RowBlock<'a, S, F, const W: usize> {
    arrays: (&'a [usize], &'a [usize], &'a [S]),
    x: (&'a [S], usize),
    y: (SendPtr<S>, usize),
    fin: &'a F,
    rows: (usize, usize),
    cols: (usize, usize),
}

impl<S: Scalar, F: Fn(usize, S) -> S, const W: usize> Kernel for RowBlock<'_, S, F, W> {
    type Out = ();

    fn widest(&self) -> Tier {
        row_sweep_widest::<S>()
    }

    #[inline(always)]
    fn body(self, _: Width) {
        let RowBlock {
            arrays: (indptr, indices, data),
            x: (x, xn),
            y: (y, n),
            fin,
            rows: (r0, r1),
            cols: (jb, nb),
        } = self;
        // SAFETY: a `RowBlock` is made only where the contract of
        // `sweep_rows` holds for its arguments (see the type's doc).
        unsafe {
            let nb = if W == 0 { nb } else { W };
            let x = (x[jb * xn..].as_ptr(), xn);
            let at = |k: usize| (*data.get_unchecked(k), *indices.get_unchecked(k));
            for i in r0..r1 {
                // Checked: a row that is out of range panics here, before the write.
                let (lo, hi) = (indptr[i], indptr[i + 1]);
                let mut even = [S::zero(); SPMM_COLS];
                if hi - lo < TWO_LANE_LEN {
                    for k in lo..hi {
                        add_entry(&mut even, nb, at(k), x);
                    }
                } else {
                    let mut odd = [S::zero(); SPMM_COLS];
                    let mut k = lo;
                    while k + 1 < hi {
                        add_entry(&mut even, nb, at(k), x);
                        add_entry(&mut odd, nb, at(k + 1), x);
                        k += 2;
                    }
                    if k < hi {
                        add_entry(&mut even, nb, at(k), x);
                    }
                    for (e, o) in even.iter_mut().zip(odd).take(nb) {
                        *e += o;
                    }
                }
                for (l, &sum) in even.iter().enumerate().take(nb) {
                    let idx = (jb + l) * n + i;
                    *y.ptr().add(idx) = fin(idx, sum);
                }
            }
        }
    }
}

/// `y[j·n + i] ⟵ fin(j·n + i, Σ_k a_ik·x[j·xn + c_k])` for every row
/// `i < n` and every column `j < p` of the column-major `x` (`xn` rows) and
/// `y` (`n` rows): the row loop under every sweep of [`Csr`] but the
/// single-vector ones of a node-blocked matrix ([`sweep_node_blocks`]). The
/// matrix is read once per block of [`SPMM_COLS`] columns; threads take one
/// contiguous range of rows each.
///
/// **Summation rule.** A row of fewer than [`TWO_LANE_LEN`] stored entries
/// is summed in index order. A longer one adds the products at even
/// positions of the row into one accumulator and those at odd positions into
/// a second, each in index order, and returns `even + odd`: two independent
/// add chains where one would wait out the add latency at every entry. The
/// rule looks at one row and one column only, so a value depends neither on
/// `p` nor on the thread count.
///
/// # Safety
/// `indptr` must not decrease and must end at `indices.len() == data.len()`,
/// and every stored column index must be `< xn`.
unsafe fn sweep_rows<S: Scalar>(
    arrays: (&[usize], &[usize], &[S]),
    (x, xn): (&[S], usize),
    (y, n): (&mut [S], usize),
    p: usize,
    fin: impl Fn(usize, S) -> S + Sync,
) {
    assert_eq!(arrays.0.len(), n + 1);
    assert_eq!((x.len(), y.len()), (p * xn, p * n));
    let (x, y) = ((x, xn), (SendPtr::new(y.as_mut_ptr()), n));
    let band = |r0: usize, r1: usize| {
        let rs = (r0, r1);
        for jb in (0..p).step_by(SPMM_COLS) {
            // SAFETY: the caller's contract — what `Csr::from_raw` validated —
            // puts every `k` of `indptr[i]..indptr[i + 1]` inside `indices`
            // and `data` and every column number below `xn`, so with
            // `x.len() == p·xn` (asserted above) every operand read is in
            // bounds. `indptr[i]` is bounds-checked, so `i < n` and the write
            // at `(jb + l)·n + i` is inside `y` (`p·n` long); threads take
            // disjoint ranges of rows, so each element is written once. The
            // checks these replace cost 1.07–1.5× on rows of 5–81 entries.
            unsafe {
                // One compiled copy per literal width, one for the rest.
                let cols = (jb, SPMM_COLS.min(p - jb));
                match cols.1 {
                    1 => sweep_block::<_, _, 1>(arrays, x, y, &fin, rs, cols),
                    SPMM_COLS => sweep_block::<_, _, SPMM_COLS>(arrays, x, y, &fin, rs, cols),
                    _ => sweep_block::<_, _, 0>(arrays, x, y, &fin, rs, cols),
                }
            }
        }
    };
    if n >= PAR_ROWS {
        for_each_range(n, 0, band);
    } else {
        band(0, n);
    }
}

/// `y[i] ⟵ fin(i, Σ_k a_ik·x[c_k])` for every row of a node-blocked matrix
/// (`data` its CSR values, `x` of `3·(max block column + 1)` entries or
/// more): [`sweep_rows`] at `p = 1` by block rows. Each `x` triple is loaded
/// once for the three rows of a block row, and the column numbers are the
/// `u32` block columns. The summation rule is that of [`sweep_rows`] on the
/// same stored entries, so the results are the same bits: a row of three or
/// six entries is summed in index order, a longer one on six accumulators,
/// the even and odd positions of each of the three rows. Position `3j + c`
/// of block `j` is even for `c ∈ {0, 2}` when `j` is even and for `c = 1`
/// when it is odd, so the loop takes blocks in pairs with a fixed pattern.
///
/// # Safety
/// `blocks` must be [`NodeBlocks::detect`] of the pattern that `data` holds
/// the values of, and every block column must be `< x.len() / 3`.
unsafe fn sweep_node_blocks<S: Scalar>(
    blocks: &NodeBlocks,
    data: &[S],
    x: &[S],
    y: &mut [S],
    fin: impl Fn(usize, S) -> S + Sync,
) {
    let nbr = blocks.ptr.len() - 1;
    assert_eq!(y.len(), 3 * nbr);
    let y = SendPtr::new(y.as_mut_ptr());
    let band = |b0: usize, b1: usize| {
        for b in b0..b1 {
            // Checked: a block row out of range panics before the write.
            let (lo, hi) = (blocks.ptr[b], blocks.ptr[b + 1]);
            let len = 3 * (hi - lo);
            // SAFETY: the caller's contract. Block row `b`'s values are
            // `data[9·lo..9·hi]`, row `r` at `9·lo + r·len`, its block columns
            // `cols[lo..hi]`, and `x` holds every triple they name; `b < nbr`,
            // so rows `3b..3b + 3` are inside `y` (`3·nbr` long), and threads
            // take disjoint ranges of block rows.
            unsafe {
                let v = |r: usize, k: usize| *data.get_unchecked(9 * lo + r * len + k);
                let xt = |j: usize| {
                    let c = 3 * *blocks.cols.get_unchecked(lo + j) as usize;
                    let x = x.get_unchecked(c..c + 3);
                    [x[0], x[1], x[2]]
                };
                let mut even = [S::zero(); 3];
                if len < TWO_LANE_LEN {
                    for j in 0..hi - lo {
                        let xs = xt(j);
                        for (r, e) in even.iter_mut().enumerate() {
                            for (c, &xc) in xs.iter().enumerate() {
                                *e += v(r, 3 * j + c) * xc;
                            }
                        }
                    }
                } else {
                    let mut odd = [S::zero(); 3];
                    let mut j = 0;
                    while j + 2 <= hi - lo {
                        let (x0, x1) = (xt(j), xt(j + 1));
                        for r in 0..3 {
                            let k = 3 * j;
                            even[r] += v(r, k) * x0[0];
                            odd[r] += v(r, k + 1) * x0[1];
                            even[r] += v(r, k + 2) * x0[2];
                            odd[r] += v(r, k + 3) * x1[0];
                            even[r] += v(r, k + 4) * x1[1];
                            odd[r] += v(r, k + 5) * x1[2];
                        }
                        j += 2;
                    }
                    if j < hi - lo {
                        let x0 = xt(j);
                        for r in 0..3 {
                            let k = 3 * j;
                            even[r] += v(r, k) * x0[0];
                            odd[r] += v(r, k + 1) * x0[1];
                            even[r] += v(r, k + 2) * x0[2];
                        }
                    }
                    for (e, o) in even.iter_mut().zip(odd) {
                        *e += o;
                    }
                }
                for (r, &sum) in even.iter().enumerate() {
                    let i = 3 * b + r;
                    *y.ptr().add(i) = fin(i, sum);
                }
            }
        }
    };
    if 3 * nbr >= PAR_ROWS {
        for_each_range(nbr, 0, band);
    } else {
        band(0, nbr);
    }
}

impl<S: Scalar> Csr<S> {
    /// Build from raw CSR arrays. Panics unless `indptr` is non-decreasing
    /// from row to row, every column index is `< ncols` and the column
    /// indices of a row strictly increase — checked in every build profile,
    /// because the kernels index `x` and the value arrays by these numbers
    /// and [`Csr::get`] and [`Csr::diag`] search the sorted rows. A pattern
    /// of aligned 3 × 3 blocks is detected here (see
    /// [`Csr::is_node_blocked`]); nothing else is asked of the caller.
    pub fn from_raw(
        nrows: usize,
        ncols: usize,
        indptr: Vec<usize>,
        indices: Vec<usize>,
        data: Vec<S>,
    ) -> Self {
        assert_eq!(indptr.len(), nrows + 1);
        assert_eq!(indices.len(), data.len());
        assert_eq!((indptr[0], indptr[nrows]), (0, indices.len()));
        // Three flat, branch-free scans (and one look at each row start);
        // the offending row is looked up only to word the panic.
        let decreasing = indptr.windows(2).filter(|w| w[0] > w[1]).count();
        let out_of_range = indices.iter().filter(|&&c| c >= ncols).count();
        let descents = indices.windows(2).filter(|w| w[0] >= w[1]).count();
        if decreasing + out_of_range > 0 || descents > row_start_descents(&indptr, &indices) {
            invalid_csr(ncols, &indptr, &indices);
        }
        let blocks = NodeBlocks::detect(nrows, ncols, &indptr, &indices).map(Arc::new);
        Self {
            nrows,
            ncols,
            indptr: Arc::new(indptr),
            indices: Arc::new(indices),
            data: Arc::new(data),
            blocks,
        }
    }

    /// Identity matrix.
    pub fn eye(n: usize) -> Self {
        Self::from_raw(n, n, (0..=n).collect(), (0..n).collect(), vec![S::one(); n])
    }

    /// Diagonal matrix from a vector of entries.
    pub fn from_diag(d: &[S]) -> Self {
        let n = d.len();
        Self::from_raw(n, n, (0..=n).collect(), (0..n).collect(), d.to_vec())
    }

    /// Number of rows.
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Number of columns.
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// Number of stored nonzeros.
    pub fn nnz(&self) -> usize {
        self.data.len()
    }

    /// Whether the pattern is node-blocked: `nrows` and `ncols` are
    /// multiples of 3, and each aligned row triple stores one column list
    /// made of aligned column triples. [`Csr::spmv`], [`Csr::spmm`] and
    /// [`Csr::residual`] of a single vector then sweep block rows, with the
    /// same bits as the row sweep.
    pub fn is_node_blocked(&self) -> bool {
        self.blocks.is_some()
    }

    /// Bytes of matrix data streamed by one single-vector apply: the values
    /// plus what locates them — the `u32` block columns and the block-row
    /// pointers of a node-blocked matrix, the column indices and row
    /// pointers of any other. At `p > 1` every matrix takes the row sweep,
    /// which reads the second form's arrays once per apply (the column-block
    /// register kernel); the figure stays that of `p = 1`.
    pub fn bytes_streamed(&self) -> usize {
        let values = self.nnz() * core::mem::size_of::<S>();
        match &self.blocks {
            Some(b) => {
                values
                    + b.cols.len() * core::mem::size_of::<u32>()
                    + b.ptr.len() * core::mem::size_of::<usize>()
            }
            None => {
                values
                    + self.nnz() * core::mem::size_of::<usize>()
                    + (self.nrows + 1) * core::mem::size_of::<usize>()
            }
        }
    }

    /// Whether `other` shares this matrix's value storage (a clone nobody
    /// has written to since).
    pub fn shares_values(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.data, &other.data)
    }

    /// The row pointers, column indices and values as plain slices. The
    /// arrays sit behind `Arc`, so a loop that writes memory between two
    /// calls of [`Csr::row_indices`] reloads their headers; loops over many
    /// short rows take these once.
    pub(crate) fn arrays(&self) -> (&[usize], &[usize], &[S]) {
        (&self.indptr, &self.indices, &self.data)
    }

    /// Row pointer array.
    pub fn indptr(&self) -> &[usize] {
        &self.indptr
    }

    /// Column indices of row `i`.
    pub fn row_indices(&self, i: usize) -> &[usize] {
        &self.indices[self.indptr[i]..self.indptr[i + 1]]
    }

    /// Values of row `i`.
    pub fn row_values(&self, i: usize) -> &[S] {
        &self.data[self.indptr[i]..self.indptr[i + 1]]
    }

    /// Mutable values of row `i`; copies the values first if they are
    /// shared. Loops over entries take [`Csr::values_mut`] once instead.
    pub fn row_values_mut(&mut self, i: usize) -> &mut [S] {
        let (lo, hi) = (self.indptr[i], self.indptr[i + 1]);
        &mut Arc::make_mut(&mut self.data)[lo..hi]
    }

    /// The row pointers, the column indices and the mutable values at once,
    /// row `i` at `indptr[i]..indptr[i + 1]` of the last two; copies the
    /// values first if they are shared.
    pub fn values_mut(&mut self) -> (&[usize], &[usize], &mut [S]) {
        (
            &self.indptr,
            &self.indices,
            Arc::make_mut(&mut self.data).as_mut_slice(),
        )
    }

    /// Entry `(i, j)` (zero if not stored) — O(log nnz_row).
    pub fn get(&self, i: usize, j: usize) -> S {
        match self.row_indices(i).binary_search(&j) {
            Ok(k) => self.row_values(i)[k],
            Err(_) => S::zero(),
        }
    }

    /// The diagonal as a vector (missing entries are zero). One linear scan
    /// per row — column indices are sorted, so the scan stops at the first
    /// index ≥ `i` instead of binary-searching the whole row.
    pub fn diag(&self) -> Vec<S> {
        let d = self.nrows.min(self.ncols);
        let (indptr, indices, data) = self.arrays();
        let mut out = vec![S::zero(); d];
        for (i, oi) in out.iter_mut().enumerate() {
            for k in indptr[i]..indptr[i + 1] {
                let c = indices[k];
                if c >= i {
                    if c == i {
                        *oi = data[k];
                    }
                    break;
                }
            }
        }
        out
    }

    /// Every row of this matrix: [`sweep_node_blocks`] for a single vector
    /// of a node-blocked matrix, [`sweep_rows`] otherwise. `x` and `y` are
    /// column-major with `p` columns.
    fn sweep_all(&self, (x, p): (&[S], usize), y: &mut [S], fin: impl Fn(usize, S) -> S + Sync) {
        match &self.blocks {
            Some(blocks) if p == 1 => {
                assert_eq!((x.len(), y.len()), (self.ncols, self.nrows));
                // SAFETY: `from_raw` detected `blocks` on the pattern `data`
                // belongs to (writes change values only), and every block
                // column is below `ncols / 3`.
                unsafe { sweep_node_blocks(blocks, &self.data, x, y, fin) }
            }
            // SAFETY: `from_raw`, the only constructor, validated the arrays
            // for `ncols` columns, and nothing hands the pattern out mutably.
            _ => unsafe { sweep_rows(self.arrays(), (x, self.ncols), (y, self.nrows), p, fin) },
        }
    }

    /// `y ⟵ A·x` for a single vector.
    pub fn spmv(&self, x: &[S], y: &mut [S]) {
        self.sweep_all((x, 1), y, |_, acc| acc);
    }

    /// `Y ⟵ A·X` for a block of `p` vectors (sparse matrix–dense matrix
    /// product). The row's nonzeros are read once per column block of
    /// [`SPMM_COLS`] right-hand sides and streamed across the block through
    /// register accumulators — the arithmetic-intensity win of §V-B2 —
    /// writing the column-major output directly. No temporaries, no
    /// allocation: reusing `y` across solver iterations (see
    /// `SpmmWorkspace`) makes the whole product allocation-free.
    pub fn spmm(&self, x: &DMat<S>, y: &mut DMat<S>) {
        self.spmm_fin(x, y, |_, acc| acc);
    }

    /// `R ⟵ B − A·X` in one sweep over the matrix, with the rounding of
    /// `spmm(X, R); R.scale(−1); R.axpy(1, B)`: each entry is the row sum,
    /// times `−1`, plus `1·b` (both products are exact in real arithmetic
    /// and keep the signed zeros of the three-pass form in complex).
    pub fn residual(&self, b: &DMat<S>, x: &DMat<S>, r: &mut DMat<S>) {
        assert_eq!((b.nrows(), b.ncols()), (r.nrows(), r.ncols()));
        let bd = b.as_slice();
        self.spmm_fin(x, r, |idx, mut acc| {
            acc *= -S::one();
            acc += S::one() * bd[idx];
            acc
        });
    }

    /// [`Csr::spmm`] storing `fin(idx, row sum)` at flat column-major
    /// position `idx` of `y` instead of the bare row sum.
    fn spmm_fin(&self, x: &DMat<S>, y: &mut DMat<S>, fin: impl Fn(usize, S) -> S + Sync) {
        assert_eq!((x.nrows(), y.nrows()), (self.ncols, self.nrows));
        self.sweep_all((x.as_slice(), x.ncols()), y.as_mut_slice(), fin);
    }

    /// Convenience: allocate and return `A·X`.
    pub fn apply(&self, x: &DMat<S>) -> DMat<S> {
        let mut y = DMat::zeros(self.nrows, x.ncols());
        self.spmm(x, &mut y);
        y
    }

    /// (Conjugate-free) transpose.
    pub fn transpose(&self) -> Self {
        let (indptr, cols, vals) = self.arrays();
        let mut counts = vec![0usize; self.ncols + 1];
        for &c in cols {
            counts[c + 1] += 1;
        }
        for i in 0..self.ncols {
            counts[i + 1] += counts[i];
        }
        let mut indices = vec![0usize; self.nnz()];
        let mut data = vec![S::zero(); self.nnz()];
        let mut next = counts.clone();
        for i in 0..self.nrows {
            for k in indptr[i]..indptr[i + 1] {
                let c = cols[k];
                indices[next[c]] = i;
                data[next[c]] = vals[k];
                next[c] += 1;
            }
        }
        Self::from_raw(self.ncols, self.nrows, counts, indices, data)
    }

    /// Extract the principal submatrix on the index set `rows` (which also
    /// selects columns): `A(rows, rows)`. `rows` need not be sorted; the
    /// result uses the local ordering of `rows`. Used to form subdomain
    /// operators `R_i·A·R_iᵀ` for Schwarz methods.
    pub fn principal_submatrix(&self, rows: &[usize]) -> Self {
        let mut global_to_local = vec![usize::MAX; self.ncols];
        for (l, &g) in rows.iter().enumerate() {
            global_to_local[g] = l;
        }
        let mut indptr = Vec::with_capacity(rows.len() + 1);
        let mut indices = Vec::new();
        let mut data = Vec::new();
        indptr.push(0);
        let (gptr, gcols, gvals) = self.arrays();
        let mut rowbuf: Vec<(usize, S)> = Vec::new();
        for &g in rows {
            rowbuf.clear();
            for k in gptr[g]..gptr[g + 1] {
                let lc = global_to_local[gcols[k]];
                if lc != usize::MAX {
                    rowbuf.push((lc, gvals[k]));
                }
            }
            rowbuf.sort_unstable_by_key(|&(c, _)| c);
            for &(c, v) in &rowbuf {
                indices.push(c);
                data.push(v);
            }
            indptr.push(indices.len());
        }
        Self::from_raw(rows.len(), rows.len(), indptr, indices, data)
    }

    /// `A + α·I` (square matrices); stored zeros and a diagonal that
    /// cancels to exactly zero are dropped, as [`crate::ops::add`] drops
    /// them.
    pub fn shift_diag(&self, alpha: S) -> Self {
        assert_eq!(self.nrows, self.ncols);
        crate::ops::add(self, &Self::from_diag(&vec![alpha; self.nrows]))
    }

    /// Infinity norm (max absolute row sum).
    pub fn inf_norm(&self) -> f64 {
        let mut best: f64 = 0.0;
        for i in 0..self.nrows {
            let mut acc = 0.0;
            for &v in self.row_values(i) {
                acc += v.abs();
            }
            best = best.max(acc);
        }
        best
    }

    /// The same matrix without its node blocking, so that every sweep takes
    /// the row sweep: the reference of the block-row sweep's tests.
    #[cfg(test)]
    fn row_sweep_only(&self) -> Self {
        Self {
            blocks: None,
            ..self.clone()
        }
    }

    /// Check structural symmetry of the sparsity pattern.
    pub fn is_pattern_symmetric(&self) -> bool {
        if self.nrows != self.ncols {
            return false;
        }
        let t = self.transpose();
        self.indptr == t.indptr && self.indices == t.indices
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Coo;

    fn small() -> Csr<f64> {
        // [2 -1 0; -1 2 -1; 0 -1 2]
        let mut c = Coo::new(3, 3);
        for i in 0..3 {
            c.push(i, i, 2.0);
            if i > 0 {
                c.push(i, i - 1, -1.0);
            }
            if i < 2 {
                c.push(i, i + 1, -1.0);
            }
        }
        c.to_csr()
    }

    #[test]
    fn spmv_matches_dense() {
        let a = small();
        let x = vec![1.0, 2.0, 3.0];
        let mut y = vec![0.0; 3];
        a.spmv(&x, &mut y);
        assert_eq!(y, vec![0.0, 0.0, 4.0]);
    }

    #[test]
    fn spmm_matches_repeated_spmv() {
        let a = small();
        let x = DMat::from_fn(3, 4, |i, j| (i * 4 + j) as f64 - 5.0);
        let y = a.apply(&x);
        for j in 0..4 {
            let xj: Vec<f64> = x.col(j).to_vec();
            let mut yj = vec![0.0; 3];
            a.spmv(&xj, &mut yj);
            for i in 0..3 {
                assert!((y[(i, j)] - yj[i]).abs() < 1e-15);
            }
        }
    }

    #[test]
    fn transpose_roundtrip() {
        let mut c = Coo::<f64>::new(3, 4);
        c.push(0, 1, 1.0);
        c.push(0, 3, 2.0);
        c.push(2, 0, 3.0);
        let a = c.to_csr();
        let t = a.transpose();
        assert_eq!(t.nrows(), 4);
        assert_eq!(t.get(1, 0), 1.0);
        assert_eq!(t.get(3, 0), 2.0);
        assert_eq!(t.get(0, 2), 3.0);
        let tt = t.transpose();
        assert_eq!(tt, a);
    }

    #[test]
    fn principal_submatrix_local_ordering() {
        let a = small();
        let sub = a.principal_submatrix(&[2, 0]);
        // local 0 = global 2, local 1 = global 0. No coupling between 0 and 2.
        assert_eq!(sub.get(0, 0), 2.0);
        assert_eq!(sub.get(1, 1), 2.0);
        assert_eq!(sub.get(0, 1), 0.0);
        assert_eq!(sub.nnz(), 2);
    }

    #[test]
    fn shift_and_norms() {
        let a = small().shift_diag(3.0);
        assert_eq!(a.get(1, 1), 5.0);
        assert_eq!(small().inf_norm(), 4.0);
        assert!(small().is_pattern_symmetric());
    }

    #[test]
    fn diag_extraction() {
        assert_eq!(small().diag(), vec![2.0, 2.0, 2.0]);
    }

    /// Random CSR whose row `i` has `len(i)` stored entries (sorted distinct
    /// columns, so `len(i) ≤ ncols`), from a fixed seed.
    fn with_row_lengths<S: Scalar>(
        nrows: usize,
        ncols: usize,
        seed: u64,
        len: impl Fn(usize) -> usize,
    ) -> Csr<S> {
        let mut rng = kryst_rt::rng::Rng64::seed_from_u64(seed);
        let (mut indptr, mut indices, mut data) = (vec![0], Vec::new(), Vec::new());
        for i in 0..nrows {
            // A random `len`-subset of the columns, by selection sampling.
            let mut need = len(i);
            for c in 0..ncols {
                if rng.gen_index(ncols - c) < need {
                    need -= 1;
                    indices.push(c);
                    data.push(S::from_parts(rng.next_f64() - 0.5, rng.next_f64() - 0.5));
                }
            }
            indptr.push(indices.len());
        }
        Csr::from_raw(nrows, ncols, indptr, indices, data)
    }

    /// Empty rows and ragged lengths 0–20: both sides of `TWO_LANE_LEN`.
    fn ragged<S: Scalar>(nrows: usize, ncols: usize, seed: u64) -> Csr<S> {
        with_row_lengths(
            nrows,
            ncols,
            seed,
            |i| if i % 7 == 3 { 0 } else { i * 5 % 21 },
        )
    }

    fn operand<S: Scalar>(n: usize, p: usize) -> DMat<S> {
        DMat::from_fn(n, p, |i, j| {
            S::from_parts(
                ((i * 7 + j) % 13) as f64 / 3.0 - 2.0,
                ((i + 3 * j) % 5) as f64 / 7.0 - 0.25,
            )
        })
    }

    fn bits<S: Scalar>(v: &[S]) -> Vec<(u64, u64)> {
        v.iter()
            .map(|v| (v.re().to_bits(), v.im().to_bits()))
            .collect()
    }

    /// The summation rule of `sweep_rows`, written out: `A·X` entry by entry.
    fn by_the_rule<S: Scalar>(a: &Csr<S>, x: &DMat<S>) -> DMat<S> {
        DMat::from_fn(a.nrows(), x.ncols(), |i, j| {
            let products: Vec<S> = (a.row_indices(i).iter().zip(a.row_values(i)))
                .map(|(&c, &v)| v * x[(c, j)])
                .collect();
            let sum = |from: usize, step: usize| {
                let mut acc = S::zero();
                for &t in products.iter().skip(from).step_by(step) {
                    acc += t;
                }
                acc
            };
            if products.len() < 8 {
                sum(0, 1)
            } else {
                sum(0, 2) + sum(1, 2)
            }
        })
    }

    /// `A·X` through the row-block kernel at `tier`, each block of columns
    /// on the width `sweep_rows` gives it.
    fn apply_at<S: Scalar>(tier: Tier, a: &Csr<S>, x: &DMat<S>) -> DMat<S> {
        let (n, p) = (a.nrows(), x.ncols());
        let mut y = DMat::zeros(n, p);
        let y_ptr = SendPtr::new(y.as_mut_slice().as_mut_ptr());
        let fin = |_: usize, v: S| v;
        for jb in (0..p).step_by(SPMM_COLS) {
            macro_rules! block {
                ($w:expr) => {
                    RowBlock::<S, _, $w> {
                        arrays: a.arrays(),
                        x: (x.as_slice(), a.ncols()),
                        y: (y_ptr, n),
                        fin: &fin,
                        rows: (0, n),
                        cols: (jb, SPMM_COLS.min(p - jb)),
                    }
                };
            }
            match SPMM_COLS.min(p - jb) {
                1 => simd::run_at(tier, block!(1)),
                SPMM_COLS => simd::run_at(tier, block!(SPMM_COLS)),
                _ => simd::run_at(tier, block!(0)),
            }
        }
        y
    }

    /// Row lengths 0..=17, 59 and 81 (elasticity's mean row and its full
    /// 27-node stencil) at every column-block shape: one column, a partial
    /// block, a full block, a full block and a column; through the sweeps,
    /// and through the row-block kernel at every tier the CPU has.
    fn row_sums_follow_the_rule<S: Scalar>() {
        let tiers = simd::suite_tiers("csr row sweep");
        let lens: Vec<usize> = (0..=17).chain([59, 81]).collect();
        let a = with_row_lengths::<S>(lens.len(), 97, 11, |i| lens[i]);
        for (i, &len) in lens.iter().enumerate() {
            assert_eq!(a.row_indices(i).len(), len);
        }
        for p in [1usize, 3, 8, 9] {
            let x = operand::<S>(97, p);
            let want = by_the_rule(&a, &x);
            // The data must tell the rule from the index-order sum.
            let in_order = (a.row_indices(19).iter().zip(a.row_values(19)))
                .fold(S::zero(), |acc, (&c, &v)| acc + v * x[(c, 0)]);
            assert_ne!(bits(&[in_order]), bits(&[want[(19, 0)]]));
            let runs = std::iter::once(("apply", a.apply(&x)))
                .chain(tiers.iter().map(|&t| (t.name(), apply_at(t, &a, &x))));
            for (how, got) in runs {
                for (i, &len) in lens.iter().enumerate() {
                    for j in 0..p {
                        let (g, w) = (bits(&[got[(i, j)]]), bits(&[want[(i, j)]]));
                        assert_eq!(
                            g,
                            w,
                            "row of {len} entries, column {j} of {p}, {how} of apply/{}",
                            simd::names(&tiers)
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn row_sums_follow_the_two_lane_rule_f64() {
        row_sums_follow_the_rule::<f64>();
    }

    #[test]
    fn row_sums_follow_the_two_lane_rule_c64() {
        row_sums_follow_the_rule::<kryst_scalar::C64>();
    }

    /// Every sweep against the rule and against each other, bit for bit: a
    /// column of `spmm` is `spmv` of that column, `residual` is its
    /// three-pass form. 4099 rows is above `PAR_ROWS`, so under `KRYST_THREADS=4` (a CI
    /// leg) the sweeps run on the pool; 37 rows stay serial.
    fn single_vector_kernels_match_per_row_reference<S: Scalar>() {
        for (nrows, ncols) in [(37usize, 29usize), (4099, 4500)] {
            let a = ragged::<S>(nrows, ncols, 7 + nrows as u64);
            assert!((0..nrows).any(|i| a.row_indices(i).is_empty()));
            assert!((0..nrows).any(|i| a.row_indices(i).len() == 20));
            for p in [1usize, 3, 8, 9] {
                let x = operand::<S>(ncols, p);
                let b = DMat::from_fn(nrows, p, |i, j| {
                    // A −0 imaginary part: the signed zero must survive.
                    S::from_parts(((i + j) % 9) as f64 - 4.0, -0.0)
                });
                let mut want = by_the_rule(&a, &x);
                let mut got = DMat::from_fn(nrows, p, |_, _| S::from_f64(f64::NAN));
                a.spmm(&x, &mut got);
                assert_eq!(bits(got.as_slice()), bits(want.as_slice()), "spmm p={p}");
                for j in 0..p {
                    let mut yj = vec![S::from_f64(f64::NAN); nrows];
                    a.spmv(x.col(j), &mut yj);
                    assert_eq!(bits(&yj), bits(want.col(j)), "spmv of column {j} of {p}");
                }
                want.scale(-S::one());
                want.axpy(S::one(), &b);
                got.fill(S::from_f64(f64::NAN));
                a.residual(&b, &x, &mut got);
                assert_eq!(
                    bits(got.as_slice()),
                    bits(want.as_slice()),
                    "residual p={p}"
                );
            }
        }
    }

    #[test]
    fn single_vector_kernels_are_bit_identical_f64() {
        single_vector_kernels_match_per_row_reference::<f64>();
    }

    #[test]
    fn single_vector_kernels_are_bit_identical_c64() {
        single_vector_kernels_match_per_row_reference::<kryst_scalar::C64>();
    }

    /// Random node-blocked matrix: block row `b` couples to `blocks(b)`
    /// random block columns of `nbc`, every stored value random.
    fn node_blocked<S: Scalar>(
        nbr: usize,
        nbc: usize,
        seed: u64,
        blocks: impl Fn(usize) -> usize,
    ) -> Csr<S> {
        let mut rng = kryst_rt::rng::Rng64::seed_from_u64(seed);
        let (mut indptr, mut indices, mut data) = (vec![0], Vec::new(), Vec::new());
        for b in 0..nbr {
            let (mut need, mut cols) = (blocks(b), Vec::new());
            for c in 0..nbc {
                if rng.gen_index(nbc - c) < need {
                    need -= 1;
                    cols.extend([3 * c, 3 * c + 1, 3 * c + 2]);
                }
            }
            for _ in 0..3 {
                indices.extend(&cols);
                data.extend(
                    (0..cols.len())
                        .map(|_| S::from_parts(rng.next_f64() - 0.5, rng.next_f64() - 0.5)),
                );
                indptr.push(indices.len());
            }
        }
        Csr::from_raw(3 * nbr, 3 * nbc, indptr, indices, data)
    }

    /// The block-row sweep against the row sweep on the same matrix, bit for
    /// bit: `spmv`, `spmm` and `residual` of one vector, and each column of a
    /// three-column `spmm` (which takes the row sweep) against `spmv`. Block
    /// rows of 1–28 blocks, so rows of 3 and 6 entries take the in-order
    /// rule. Operands: plain; with −0 and NaN entries; with −0 and ±∞
    /// entries; with all four. A −0 and a +∞ are stored in the matrix too.
    /// 87 rows stay serial, 4200 are above `PAR_ROWS` (on the pool under
    /// `KRYST_THREADS=4`).
    ///
    /// Where a sum meets two NaNs of different bits — the operand's NaN and
    /// the one `∞ − ∞` makes — the result is one of them, and which one is
    /// the compiler's choice of operand order for the add (IEEE 754 leaves
    /// it open, and Rust does not fix NaN bits of arithmetic). The operand
    /// with all four specials is therefore held to the same bits with every
    /// NaN read as one value; the others, where only one NaN value can
    /// arise, to the exact bits.
    fn block_row_sweep_matches_the_row_sweep<S: Scalar>() {
        let special = [-0.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY].map(S::from_f64);
        let nan_as_one = |v: &[S]| -> Vec<(u64, u64)> {
            let one = |f: f64| {
                if f.is_nan() {
                    f64::NAN.to_bits()
                } else {
                    f.to_bits()
                }
            };
            v.iter().map(|v| (one(v.re()), one(v.im()))).collect()
        };
        for (nbr, nbc) in [(29usize, 30usize), (1400, 1500)] {
            let mut a = node_blocked::<S>(nbr, nbc, 5 + nbr as u64, |b| 1 + b % 28);
            assert!(a.is_node_blocked());
            let (ptr, _, vals) = a.values_mut();
            // The first entry of block row 7's middle row, the last of block
            // row 20's top row.
            vals[ptr[22]] = special[0];
            vals[ptr[61] - 1] = special[2];
            let rows = a.row_sweep_only();
            assert!(!rows.is_node_blocked());
            let (n, m) = (3 * nbr, 3 * nbc);
            let plain = operand::<S>(m, 1);
            // Specials `kinds` at every 41st entry from 3 on, and from 13 on.
            let sprinkled = |kinds: &[usize]| {
                DMat::from_fn(m, 1, |i, _| match i % 41 {
                    3 | 13 => special[kinds[i / 41 % kinds.len()]],
                    _ => plain[(i, 0)],
                })
            };
            let operands = [
                (plain.clone(), "plain", true),
                (sprinkled(&[0, 1]), "-0 and NaN", true),
                (sprinkled(&[0, 2, 3]), "-0 and ±inf", true),
                (sprinkled(&[0, 1, 2, 3]), "all four", false),
            ];
            let b = DMat::from_fn(n, 1, |i, _| S::from_parts((i % 9) as f64 - 4.0, -0.0));
            for (x, what, exact) in &operands {
                let same = |got: &[S], want: &[S], op: &str| {
                    let (g, w) = if *exact {
                        (bits(got), bits(want))
                    } else {
                        (nan_as_one(got), nan_as_one(want))
                    };
                    assert_eq!(g, w, "{op}, {what}, {n} rows");
                };
                let (mut got, mut want) = (vec![S::zero(); n], vec![S::one(); n]);
                a.spmv(x.col(0), &mut got);
                rows.spmv(x.col(0), &mut want);
                // Only the row of the stored ∞ is not finite for the plain
                // operand; the specials reach more rows.
                let non_finite = want.iter().filter(|v| !v.is_finite()).count();
                assert_eq!(non_finite == 1, *what == "plain", "{what}");
                same(&got, &want, "spmv");
                same(a.apply(x).as_slice(), &want, "spmm");
                let mut got = DMat::zeros(n, 1);
                let mut want = DMat::zeros(n, 1);
                a.residual(&b, x, &mut got);
                rows.residual(&b, x, &mut want);
                same(got.as_slice(), want.as_slice(), "residual");
                let x3 = DMat::from_fn(m, 3, |i, j| [x, &plain][j % 2][(i, 0)]);
                let y3 = a.apply(&x3);
                for j in 0..3 {
                    let mut yj = vec![S::zero(); n];
                    a.spmv(x3.col(j), &mut yj);
                    same(y3.col(j), &yj, &format!("spmm column {j} of 3"));
                }
            }
        }
    }

    #[test]
    fn block_row_sweep_is_bit_identical_f64() {
        block_row_sweep_matches_the_row_sweep::<f64>();
    }

    #[test]
    fn block_row_sweep_is_bit_identical_c64() {
        block_row_sweep_matches_the_row_sweep::<kryst_scalar::C64>();
    }

    #[test]
    fn node_blocking_is_detected_from_the_pattern_alone() {
        let blocked = |nrows: usize, ncols: usize, indptr: Vec<usize>, indices: Vec<usize>| {
            let data = vec![1.0f64; indices.len()];
            Csr::from_raw(nrows, ncols, indptr, indices, data).is_node_blocked()
        };
        let triple = |cols: &[usize]| cols.repeat(3);
        assert!(blocked(3, 6, vec![0, 3, 6, 9], triple(&[3, 4, 5])));
        assert!(blocked(6, 6, vec![0, 6, 12, 18, 21, 24, 27], {
            let mut c = triple(&[0, 1, 2, 3, 4, 5]);
            c.extend(triple(&[3, 4, 5]));
            c
        }));
        // A fourth row; a seventh column.
        assert!(!blocked(4, 6, vec![0, 3, 6, 9, 12], [3, 4, 5].repeat(4)));
        assert!(!blocked(3, 7, vec![0, 3, 6, 9], triple(&[3, 4, 5])));
        // Column triples that are not aligned, or not consecutive.
        assert!(!blocked(3, 6, vec![0, 3, 6, 9], triple(&[2, 3, 4])));
        assert!(!blocked(3, 6, vec![0, 3, 6, 9], triple(&[0, 1, 3])));
        // The last row of the triple has a list of its own, of the same
        // length or longer.
        assert!(!blocked(
            3,
            6,
            vec![0, 3, 6, 9],
            vec![3, 4, 5, 3, 4, 5, 0, 1, 2]
        ));
        assert!(!blocked(3, 6, vec![0, 3, 6, 12], {
            let mut c = vec![3, 4, 5, 3, 4, 5];
            c.extend(0..6);
            c
        }));
        // The second block row is empty, then only its last row is.
        assert!(!blocked(
            6,
            6,
            vec![0, 3, 6, 9, 9, 9, 9],
            triple(&[0, 1, 2])
        ));
        assert!(!blocked(
            6,
            6,
            vec![0, 3, 6, 9, 12, 15, 15],
            [0, 1, 2].repeat(5)
        ));
        assert!(!ragged::<f64>(99, 99, 3).is_node_blocked());
    }

    #[test]
    fn clones_share_the_arrays_until_one_is_written() {
        let a = node_blocked::<f64>(5, 6, 3, |b| 1 + b);
        let before: Vec<_> = (0..a.nrows()).flat_map(|i| bits(a.row_values(i))).collect();
        let mut b = a.clone();
        assert!(b.shares_values(&a));
        b.row_values_mut(4)[1] = 42.0;
        assert!(!b.shares_values(&a));
        let after: Vec<_> = (0..a.nrows()).flat_map(|i| bits(a.row_values(i))).collect();
        assert_eq!(after, before);
        assert_eq!(b.row_values(4)[1], 42.0);
        // The copy keeps the blocking, which the write did not change.
        assert!(b.is_node_blocked());
        let mut c = b.clone();
        c.values_mut().2[0] = -1.0;
        assert_eq!(
            (b.row_values(0)[0], c.row_values(0)[0]),
            (a.row_values(0)[0], -1.0)
        );
    }

    /// What one single-vector sweep reads of the matrix: values, `u32`
    /// block columns and block-row pointers of a node-blocked matrix;
    /// values, column indices and row pointers of any other.
    #[test]
    fn bytes_streamed_counts_what_the_sweep_reads() {
        // Block row 0 couples to block columns 0 and 1, block row 1 to 1:
        // 27 values in 3 blocks, 3 block-row pointers.
        let a = Csr::from_raw(
            6,
            6,
            vec![0, 6, 12, 18, 21, 24, 27],
            {
                let mut c = [0, 1, 2, 3, 4, 5].repeat(3);
                c.extend([3, 4, 5].repeat(3));
                c
            },
            vec![1.0f64; 27],
        );
        assert!(a.is_node_blocked());
        assert_eq!(a.bytes_streamed(), 27 * 8 + 3 * 4 + 3 * 8);
        // Seven values and indices, four row pointers.
        assert_eq!(small().bytes_streamed(), 7 * 16 + 4 * 8);
        let z = Csr::<kryst_scalar::C64>::from_raw(
            6,
            6,
            vec![0, 6, 12, 18, 21, 24, 27],
            {
                let mut c = [0, 1, 2, 3, 4, 5].repeat(3);
                c.extend([3, 4, 5].repeat(3));
                c
            },
            vec![kryst_scalar::C64::new(1.0, 0.0); 27],
        );
        assert_eq!(z.bytes_streamed(), 27 * 16 + 3 * 4 + 3 * 8);
    }

    #[test]
    #[should_panic(expected = "row 1 has column index 3, matrix has 3 columns")]
    fn from_raw_rejects_a_column_index_out_of_range() {
        Csr::from_raw(2, 3, vec![0, 1, 3], vec![0, 1, 3], vec![1.0f64; 3]);
    }

    #[test]
    #[should_panic(expected = "row 1 has column index 0 after 2")]
    fn from_raw_rejects_an_unsorted_row() {
        // Row 0 ends on column 2 and row 1 starts on column 2: a descent at
        // a row start is fine, the one inside row 1 is not.
        Csr::from_raw(2, 3, vec![0, 2, 4], vec![0, 2, 2, 0], vec![1.0f64; 4]);
    }

    #[test]
    #[should_panic(expected = "row 2 has column index 1 after 1")]
    fn from_raw_rejects_a_duplicate_column_after_empty_rows() {
        Csr::from_raw(3, 3, vec![0, 0, 0, 2], vec![1, 1], vec![1.0f64; 2]);
    }

    #[test]
    fn from_raw_accepts_descents_at_row_starts_only() {
        // Every row start descends or repeats; empty rows in between.
        let a = Csr::from_raw(
            5,
            4,
            vec![0, 2, 2, 3, 3, 5],
            vec![2, 3, 3, 0, 1],
            vec![1.0f64; 5],
        );
        assert_eq!(a.get(2, 3), 1.0);
    }

    #[test]
    #[should_panic(expected = "row 1 has indptr 2..1")]
    fn from_raw_rejects_a_decreasing_indptr() {
        Csr::from_raw(3, 3, vec![0, 2, 1, 3], vec![0, 1, 2], vec![1.0f64; 3]);
    }
}
