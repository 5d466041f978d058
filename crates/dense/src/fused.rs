//! Fused Gram + projection products for communication-avoiding
//! orthogonalization.
//!
//! The classic block-Arnoldi step issues one reduction per product: `CᴴW`
//! (recycle projection), `VᴴW` (Hessenberg projection), `WᴴW` (CholQR Gram).
//! [`fused_gram`] computes the stacked product `[B₀ B₁ … W]ᴴ·W` for a list of
//! column-major source panels in a single sweep over the rows, so all the
//! partial products advance together in one pass over memory — and, in a
//! distributed run, the stacked result is **one** all-reduce where the
//! classic path pays one per panel (the §III-D latency the paper counts).
//!
//! [`fused_update`] is the matching projection update `W ⟵ W − Σ B_b·C_b`,
//! and [`fused_update_gram`] applies that update and takes the Gram product
//! of the updated `W` while each row chunk is still in cache — a second
//! orthogonalization pass brings the basis in from memory once for both.
//! [`fused_adjoint_times`] (the projections without `WᴴW`) and
//! [`fused_accumulate`] (`W ⟵ W + Σ B_b·C_b`) are the same two sweeps for
//! what a solver does between its cycles: every product of a tall panel
//! with a small matrix goes through this module.
//!
//! Panels are borrowed views ([`ColsRef`]), so the leading columns of a
//! pre-allocated basis, or the blocks of a basis stored one matrix per
//! Krylov block, enter the product without being copied out first.
//!
//! [`dot`], [`nrm2_sqr`], [`axpy_dot`] and [`axpy_nrm2_sqr`] are the `1 × 1`
//! case on plain vectors — the same lanes and chunk sums with no panel view
//! and no allocation — for the multigrid smoothers, whose Gram–Schmidt has
//! one vector on each side.
//!
//! # Blocking
//!
//! Rows are cut into chunks of [`KB`]` = 512`. Within a chunk there are two
//! bodies, chosen by the shape of `W`.
//!
//! **Columns** (a real `W`, a single complex column — a pseudo-block lane —
//! and every `W` at the baseline tier): the kernels take **four source columns at a time**, one column of
//! `W` at a time, on interleaved scalars. One load of a `W` entry feeds four
//! multiply–adds, and the sixteen running sums of a 4-column dot (four
//! interleaved lanes per column) stay in registers.
//!
//! * **Gram product.** Resident are one group of four source chunks and one
//!   column of `W`: `5 · 512 · size_of::<S>()` bytes — 20 KB for `f64`,
//!   40 KB for `C64` — whatever the block width `p`. The `p` columns of `W`
//!   stream past the resident group, and each source chunk is fetched once
//!   and used `p` times. The partial sums travel through one lane array per
//!   sweep, `4·p` scalars per source column.
//! * **Update.** No reduction has to keep its order, so the chunk is cut
//!   further, to `512 / p` rows (at least 64): all `p` columns of that
//!   sub-chunk (≤ `512 · size_of::<S>()` bytes) stay resident while every
//!   source column streams past them once, four at a time.
//!
//! **Planes** (a complex `W` of two or more columns against at least one
//! panel column, the block solves, at AVX2 and AVX-512F; CholQR's Gram of
//! `W` alone stays on the columns body, where the copy into planes is not
//! paid back): the block's columns go in the vector lanes, as
//! [`Lanes`] rows — the real parts of up to [`TILE`]` = 8` columns, then
//! their imaginary parts, the tile layout of the banded solve — so a complex
//! product is lane-wise products and sums with no shuffle per element, and
//! every register lane does useful work at any `p ≥ 2` (tiles of 8, then
//! 4/2/1, cover `p`).
//!
//! * **Gram product.** Each chunk of a tile of `W` is copied once into a
//!   plane buffer on the stack (`512` rows × 16 words, 64 KB); each source
//!   entry is then one operand against all the tile's columns, two sources
//!   at a time. The four lane sets of both sources' dots (16 registers at
//!   an 8-wide tile and 512 bits) stay in registers for the whole chunk, and
//!   nothing is allocated.
//! * **Update.** The same copy of a chunk of a tile; each source entry is
//!   one operand against all the tile's columns, four sources at a time,
//!   with their coefficients held in the lanes, and the rows go back to `W`
//!   afterwards. No source is reshuffled: a source entry is read once per
//!   tile, as it is stored.
//!
//! **Update + Gram** (both bodies): chunk by chunk, the update of rows
//! `k0..k1`, then their Gram product. The chunk of *all* source columns
//! (`ncols · 512 · size_of::<S>()`: 120 KB for 30 `f64` columns) does not fit
//! an L1, so it is read twice, but the second time from L2. That saves a
//! pass over memory when the basis is larger than L2; a basis that lives in
//! L2 gains nothing, the two sweeps being bound by arithmetic (no FMA) and
//! by L2 bandwidth already.
//!
//! # Rounding
//!
//! Every output entry is computed by the same sequence of floating-point
//! operations as the scalar loops the module started with (kept below as the
//! `#[cfg(test)]` references), whichever body runs: a dot over a chunk runs
//! four interleaved accumulators (rows `4q + t` of the chunk in accumulator
//! `t`) combined as `(a0 + a1) + (a2 + a3)`, then the tail rows in order;
//! chunk sums are added in row order; every product is `C64::mul`'s four
//! products, difference and sum in its operand order (`conj(b)·w` in a dot,
//! `c·b` in an update); and the update subtracts `c · b` column by column in
//! panel order, skipping exact-zero coefficients. Planes change which
//! entries share a register, not the operations on any one entry. Products
//! and sums are never contracted into fused multiply–adds. On x86-64 each
//! body is compiled for AVX2 and for AVX-512F as well, and
//! [`kryst_rt::simd`] picks one at run time: `C64` sweeps run at 512 bits,
//! `f64` ones stop at AVX2 (at 512 the `p = 1` update and step against 30
//! columns read slower, and the `f64` workloads came out mixed). Wider
//! registers change how many entries move per instruction, not one bit of
//! the result.

use crate::lanes::{tiles, Lanes, TILE};
use crate::DMat;
use kryst_rt::simd::{self, Kernel, Tier, Width};
use kryst_scalar::Scalar;

/// Borrowed columns of equal height — e.g. the leading columns of a wider
/// basis matrix, or the blocks of a Krylov basis kept one matrix per block,
/// viewed without copying.
#[derive(Clone, Copy)]
pub struct ColsRef<'a, S> {
    src: Src<'a, S>,
    nrows: usize,
    ncols: usize,
}

#[derive(Clone, Copy)]
enum Src<'a, S> {
    /// One column-major slice.
    Flat(&'a [S]),
    /// Equally shaped matrices side by side.
    Blocks(&'a [DMat<S>]),
}

impl<'a, S: Scalar> ColsRef<'a, S> {
    /// View over a raw column-major slice of shape `nrows × ncols`.
    pub fn new(data: &'a [S], nrows: usize, ncols: usize) -> Self {
        assert_eq!(data.len(), nrows * ncols);
        Self {
            src: Src::Flat(data),
            nrows,
            ncols,
        }
    }

    /// The leading `ncols` columns of `m`, borrowed (columns are contiguous
    /// in the column-major layout, so this is a plain sub-slice).
    pub fn leading(m: &'a DMat<S>, ncols: usize) -> Self {
        assert!(ncols <= m.ncols());
        Self::new(&m.as_slice()[..ncols * m.nrows()], m.nrows(), ncols)
    }

    /// View of the whole matrix.
    pub fn whole(m: &'a DMat<S>) -> Self {
        Self::new(m.as_slice(), m.nrows(), m.ncols())
    }

    /// The columns of equally shaped matrices, side by side in list order.
    pub fn blocks(blocks: &'a [DMat<S>]) -> Self {
        let (nrows, p) = blocks.first().map_or((0, 0), |b| (b.nrows(), b.ncols()));
        assert!(
            blocks.iter().all(|b| (b.nrows(), b.ncols()) == (nrows, p)),
            "blocks must share one shape"
        );
        Self {
            src: Src::Blocks(blocks),
            nrows,
            ncols: blocks.len() * p,
        }
    }

    /// Panel column count.
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// Panel row count.
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Column `j` of the panel.
    #[inline]
    pub(crate) fn col(&self, j: usize) -> &'a [S] {
        match self.src {
            Src::Flat(data) => &data[j * self.nrows..(j + 1) * self.nrows],
            Src::Blocks(blocks) => {
                let p = blocks[0].ncols();
                blocks[j / p].col(j % p)
            }
        }
    }
}

/// Rows per chunk of the fused sweeps. A chunk is the unit the Gram partial
/// sums are formed over, so the value is part of the rounding; what it keeps
/// in cache is set out in the module documentation.
const KB: usize = 512;

/// Source columns taken per sweep of a `W` chunk.
const GROUP: usize = 4;

/// The four interleaved running sums of one conjugated dot product: lane
/// `t` holds the sum over rows `4q + t` of the current chunk.
type Sums<S> = [S; 4];

/// Advances the running sums of `N` dots `b[s]ᴴ·w` over rows whose count is
/// a multiple of four, sharing each load of `w`.
#[inline(always)]
fn dots<S: Scalar, const N: usize>(acc: &mut [Sums<S>; N], b: [&[S]; N], w: &[S]) {
    let (wq, tail) = w.as_chunks::<4>();
    debug_assert!(tail.is_empty());
    let bq = b.map(|c| c[..w.len()].as_chunks::<4>().0);
    for (k, wv) in wq.iter().enumerate() {
        for s in 0..N {
            let bv = &bq[s][k];
            for t in 0..4 {
                acc[s][t] += bv[t].conj() * wv[t];
            }
        }
    }
}

/// `w ⟵ w − c₀·b₀ − … − c_{N−1}·b_{N−1}`, subtracted in that order, one
/// load and one store of `w` for all `N` columns.
#[inline(always)]
fn axpys<S: Scalar, const N: usize>(w: &mut [S], b: [&[S]; N], c: [S; N]) {
    let b = b.map(|col| &col[..w.len()]);
    for (k, wk) in w.iter_mut().enumerate() {
        let mut x = *wk;
        for s in 0..N {
            x -= c[s] * b[s][k];
        }
        *wk = x;
    }
}

/// Panel and column of source column `g` in the concatenation of `blocks`;
/// indices past the last panel come back as `(blocks.len(), g − Σ ncols)`.
#[inline(always)]
fn locate<S>(blocks: &[ColsRef<'_, S>], mut g: usize) -> (usize, usize) {
    for (b, blk) in blocks.iter().enumerate() {
        if g < blk.ncols {
            return (b, g);
        }
        g -= blk.ncols;
    }
    (blocks.len(), g)
}

/// Calls `$f::<S, N>($args)` for groups of [`GROUP`] source columns from
/// column 0 on, then once for the `N < GROUP` columns left over.
macro_rules! for_groups {
    ($total:expr, $f:ident, $($arg:expr),*) => {{
        let total = $total;
        let mut g = 0;
        while g + GROUP <= total {
            $f::<S, GROUP>($($arg,)* g);
            g += GROUP;
        }
        match total - g {
            3 => $f::<S, 3>($($arg,)* g),
            2 => $f::<S, 2>($($arg,)* g),
            1 => $f::<S, 1>($($arg,)* g),
            _ => {}
        }
    }};
}

/// Source column `g` of the Gram sweep: the panels' columns in order, then
/// `W`'s own (the `WᴴW` part). Returns its output slot as well.
#[inline(always)]
fn gram_source<'a, S: Scalar>(
    blocks: &[ColsRef<'a, S>],
    w: &'a DMat<S>,
    g: usize,
) -> (&'a [S], (usize, usize)) {
    let (b, i) = locate(blocks, g);
    let col = if b < blocks.len() {
        blocks[b].col(i)
    } else {
        w.col(i)
    };
    (col, (b, i))
}

/// Rows `r0..r1` (a multiple of four) of source columns `g..g + N` against
/// every column of `W`, added to the running sums `acc[(g + t)·p + l]`.
#[inline(always)]
fn gram_group<S: Scalar, const N: usize>(
    blocks: &[ColsRef<'_, S>],
    w: &DMat<S>,
    acc: &mut [Sums<S>],
    (r0, r1): (usize, usize),
    g: usize,
) {
    let p = w.ncols();
    let cols: [&[S]; N] = std::array::from_fn(|t| &gram_source(blocks, w, g + t).0[r0..r1]);
    for l in 0..p {
        // The sums travel through `acc` in memory, lane by lane, which is
        // also what makes the vectoriser pack the four lanes of a column
        // into one register and not one lane of four columns.
        let mut a: [Sums<S>; N] = std::array::from_fn(|t| acc[(g + t) * p + l]);
        dots(&mut a, cols, &w.col(l)[r0..r1]);
        for (t, at) in a.iter().enumerate() {
            acc[(g + t) * p + l] = *at;
        }
    }
}

/// Rows `k0..k1` of `outs ⟸ outs + [B₀ B₁ … W]ᴴ·W`: rows `k0..t0` (a
/// multiple of four) through the lanes of `acc`, one per dot, then each
/// dot's lanes combined as `(a0 + a1) + (a2 + a3)`, the last `k1 − t0 < 4`
/// rows added in order, the sum added to `outs` and the lanes cleared.
#[inline(always)]
fn gram_chunk<S: Scalar>(
    blocks: &[ColsRef<'_, S>],
    w: &DMat<S>,
    acc: &mut [Sums<S>],
    outs: &mut [DMat<S>],
    (k0, t0, k1): (usize, usize, usize),
) {
    let p = w.ncols();
    for_groups!(acc.len() / p, gram_group, blocks, w, acc, (k0, t0));
    for (g, lanes) in acc.chunks_exact_mut(p).enumerate() {
        let (col, (b, i)) = gram_source(blocks, w, g);
        for (l, a) in lanes.iter_mut().enumerate() {
            let mut sum = (a[0] + a[1]) + (a[2] + a[3]);
            for (x, y) in col[t0..k1].iter().zip(&w.col(l)[t0..k1]) {
                sum += x.conj() * *y;
            }
            outs[b][(i, l)] += sum;
            *a = [S::zero(); 4];
        }
    }
}

/// Rows `r0..r1` of every column of `W`, less source columns `g..g + N`
/// times their coefficients.
#[inline(always)]
fn update_group<S: Scalar, const N: usize>(
    blocks: &[ColsRef<'_, S>],
    coeffs: &[DMat<S>],
    w: &mut DMat<S>,
    (r0, r1): (usize, usize),
    g: usize,
) {
    let at: [(usize, usize); N] = std::array::from_fn(|t| locate(blocks, g + t));
    let cols = at.map(|(b, i)| &blocks[b].col(i)[r0..r1]);
    for l in 0..w.ncols() {
        let c = at.map(|(b, i)| coeffs[b][(i, l)]);
        let wl = &mut w.col_mut(l)[r0..r1];
        if c.iter().all(|x| *x != S::zero()) {
            axpys(wl, cols, c);
        } else {
            // An exact-zero coefficient skips its column (`0·b` is not `0`
            // for a non-finite `b`, and `−0.0 − 0.0·b` is not `−0.0`), so
            // this group goes column by column.
            for t in 0..N {
                if c[t] != S::zero() {
                    axpys(wl, [cols[t]], [c[t]]);
                }
            }
        }
    }
}

/// Rows `k0..k1` of `W ⟵ W − Σ_b B_b·C_b`.
#[inline(always)]
fn update_rows<S: Scalar>(
    blocks: &[ColsRef<'_, S>],
    coeffs: &[DMat<S>],
    w: &mut DMat<S>,
    (k0, k1): (usize, usize),
) {
    let total: usize = blocks.iter().map(|b| b.ncols).sum();
    let step = (KB / w.ncols().max(1)).max(64);
    for r0 in (k0..k1).step_by(step) {
        let rows = (r0, (r0 + step).min(k1));
        for_groups!(total, update_group, blocks, coeffs, w, rows);
    }
}

/// Words of the plane buffer of the complex sweeps: one chunk of a
/// [`TILE`]-wide tile of `W`, two planes per row (64 KB).
const PLANES: usize = KB * 2 * TILE;

/// Source columns the complex Gram sweep takes at a time: with the four
/// lane sets of each dot live, two sources fill 16 of the 32 vector
/// registers at an 8-wide tile and 512 bits.
const GRAM_GROUP: usize = 2;

/// Calls `$f::<S, TW>($args)` for a tile width `TW` of [`tiles`].
macro_rules! by_tile_width {
    ($tw:expr, $f:ident, $($arg:expr),*) => {
        match $tw {
            8 => $f::<S, 8>($($arg),*),
            4 => $f::<S, 4>($($arg),*),
            2 => $f::<S, 2>($($arg),*),
            _ => $f::<S, 1>($($arg),*),
        }
    };
}

/// Rows `k0..k1` of the `TW` columns of `W` from `c0` on, copied into
/// `planes` as one [`Lanes`] row per row of `W`.
#[inline(always)]
fn to_planes<S: Scalar, const TW: usize>(
    w: &DMat<S>,
    planes: &mut [f64],
    (k0, k1): (usize, usize),
    c0: usize,
) {
    let rl = Lanes::<S, TW>::row_len();
    for c in 0..TW {
        for (k, v) in w.col(c0 + c)[k0..k1].iter().enumerate() {
            planes[k * rl + c] = v.re();
            if S::is_complex() {
                planes[k * rl + TW + c] = v.im();
            }
        }
    }
}

/// [`to_planes`] backwards: the rows of `planes` into rows `k0..k1` of the
/// `TW` columns of `W` from `c0` on.
#[inline(always)]
fn from_planes<S: Scalar, const TW: usize>(
    planes: &[f64],
    w: &mut DMat<S>,
    (k0, k1): (usize, usize),
    c0: usize,
) {
    let rl = Lanes::<S, TW>::row_len();
    for c in 0..TW {
        for (k, v) in w.col_mut(c0 + c)[k0..k1].iter_mut().enumerate() {
            let im = if S::is_complex() {
                planes[k * rl + TW + c]
            } else {
                0.0
            };
            *v = S::from_parts(planes[k * rl + c], im);
        }
    }
}

/// Rows `k0..k1` of `outs ⟸ outs + [B₀ B₁ … W]ᴴ·W` for the `TW` columns of
/// `W` from `c0` on, in the lanes: the chunk of the tile is copied into
/// `planes`, and every source entry meets all the tile's columns in one
/// lane-wise product — the dots of [`gram_chunk`], operation for operation.
#[inline(always)]
fn gram_tile<S: Scalar, const TW: usize>(
    blocks: &[ColsRef<'_, S>],
    w: &DMat<S>,
    planes: &mut [f64; PLANES],
    outs: &mut [DMat<S>],
    (k0, t0, k1): (usize, usize, usize),
    sources: usize,
    c0: usize,
) {
    let planes = &mut planes[..(k1 - k0) * Lanes::<S, TW>::row_len()];
    to_planes::<S, TW>(w, planes, (k0, k1), c0);
    let planes = &*planes;
    let rows = (k0, t0, k1);
    let mut g = 0;
    while g + GRAM_GROUP <= sources {
        gram_tile_group::<S, GRAM_GROUP, TW>(blocks, w, planes, outs, rows, c0, g);
        g += GRAM_GROUP;
    }
    for g in g..sources {
        gram_tile_group::<S, 1, TW>(blocks, w, planes, outs, rows, c0, g);
    }
}

/// Source columns `g..g + N` of [`gram_tile`]: each row of the tile's
/// planes is loaded once for the `N` sources, and each source entry is one
/// operand for all the tile's columns. Lane set `t` of a dot sums rows
/// `4q + t` of the chunk, as [`dots`] does.
#[inline(always)]
fn gram_tile_group<S: Scalar, const N: usize, const TW: usize>(
    blocks: &[ColsRef<'_, S>],
    w: &DMat<S>,
    planes: &[f64],
    outs: &mut [DMat<S>],
    (k0, t0, k1): (usize, usize, usize),
    c0: usize,
    g: usize,
) {
    let rl = Lanes::<S, TW>::row_len();
    let nq = (t0 - k0) / 4;
    let src: [(&[S], (usize, usize)); N] = std::array::from_fn(|s| {
        let (col, at) = gram_source(blocks, w, g + s);
        (&col[k0..k1], at)
    });
    let quads = src.map(|(col, _)| &col.as_chunks::<4>().0[..nq]);
    let mut lanes = [[Lanes::<S, TW>::zero(); N]; 4];
    for (q, r4) in planes[..nq * 4 * rl].chunks_exact(4 * rl).enumerate() {
        for (t, acc) in lanes.iter_mut().enumerate() {
            let wk = Lanes::<S, TW>::load(&r4[t * rl..]);
            for s in 0..N {
                acc[s] = acc[s].add_conj_mul(quads[s][q][t], &wk);
            }
        }
    }
    let tail = planes[nq * 4 * rl..].chunks_exact(rl);
    for (s, &(col, (b, i))) in src.iter().enumerate() {
        let [a0, a1, a2, a3] = lanes.map(|l| l[s]);
        let mut sum = (a0 + a1) + (a2 + a3);
        for (x, row) in col[t0 - k0..].iter().zip(tail.clone()) {
            sum = sum.add_conj_mul(*x, &Lanes::load(row));
        }
        for c in 0..TW {
            outs[b][(i, c0 + c)] += sum.get(c);
        }
    }
}

/// Rows `k0..k1` of `W ⟵ W − Σ_b B_b·C_b` for the `TW` columns of `W` from
/// `c0` on, in the lanes: the chunk of the tile is copied into `planes`,
/// every source entry meets all the tile's columns (their coefficients in
/// the lanes) in one lane-wise product, and the rows go back to `W`. Each
/// entry sees [`update_rows`]'s operations in its order.
#[inline(always)]
fn update_tile<S: Scalar, const TW: usize>(
    blocks: &[ColsRef<'_, S>],
    coeffs: &[DMat<S>],
    w: &mut DMat<S>,
    planes: &mut [f64; PLANES],
    rows: (usize, usize),
    c0: usize,
) {
    let planes = &mut planes[..(rows.1 - rows.0) * Lanes::<S, TW>::row_len()];
    to_planes::<S, TW>(w, planes, rows, c0);
    let total: usize = blocks.iter().map(|b| b.ncols).sum();
    let mut g = 0;
    while g + GROUP <= total {
        update_tile_group::<S, GROUP, TW>(blocks, coeffs, planes, rows, c0, g);
        g += GROUP;
    }
    for g in g..total {
        update_tile_group::<S, 1, TW>(blocks, coeffs, planes, rows, c0, g);
    }
    from_planes::<S, TW>(planes, w, rows, c0);
}

/// Source columns `g..g + N` of [`update_tile`]: per row, `N` times
/// `x ⟵ x − c_s·b_s` with the coefficients `c_s` in the lanes — lane by
/// lane where a coefficient is an exact zero, which skips its column as
/// [`update_group`] does.
#[inline(always)]
fn update_tile_group<S: Scalar, const N: usize, const TW: usize>(
    blocks: &[ColsRef<'_, S>],
    coeffs: &[DMat<S>],
    planes: &mut [f64],
    (k0, k1): (usize, usize),
    c0: usize,
    g: usize,
) {
    let rl = Lanes::<S, TW>::row_len();
    let at: [(usize, usize); N] = std::array::from_fn(|t| locate(blocks, g + t));
    let src = at.map(|(b, i)| &blocks[b].col(i)[k0..k1]);
    let c = at.map(|(b, i)| {
        let row: [S; TW] = std::array::from_fn(|l| coeffs[b][(i, c0 + l)]);
        Lanes::<S, TW>::split(&row)
    });
    let dense = c.iter().all(|cs| (0..TW).all(|l| cs.nonzero(l)));
    for (k, row) in planes.chunks_exact_mut(rl).enumerate() {
        let mut x = Lanes::<S, TW>::load(row);
        for s in 0..N {
            let next = x.sub_mul_lanes(&c[s], &Lanes::splat(src[s][k]));
            x = if dense {
                next
            } else {
                x.where_zero(&c[s], next)
            };
        }
        x.store(row);
    }
}

/// One sweep over the rows of `W`.
enum Sweep<'x, S> {
    Gram {
        w: &'x DMat<S>,
        outs: &'x mut [DMat<S>],
    },
    Update {
        coeffs: &'x [DMat<S>],
        w: &'x mut DMat<S>,
    },
    UpdateGram {
        coeffs: &'x [DMat<S>],
        w: &'x mut DMat<S>,
        outs: &'x mut [DMat<S>],
    },
}

#[inline(always)]
fn sweep_body<S: Scalar>(blocks: &[ColsRef<'_, S>], job: Sweep<'_, S>, width: Width) {
    let (n, p) = match &job {
        Sweep::Gram { w, .. } => (w.nrows(), w.ncols()),
        Sweep::Update { w, .. } | Sweep::UpdateGram { w, .. } => (w.nrows(), w.ncols()),
    };
    if p == 0 {
        return;
    }
    // Chunks as `(k0, t0, k1)`: rows `k0..t0` in fours, `t0..k1` the rest.
    let chunks = (0..n).step_by(KB).map(|k0| {
        let k1 = (k0 + KB).min(n);
        (k0, k0 + ((k1 - k0) & !3), k1)
    });
    let panels = blocks.iter().map(|b| b.ncols).sum::<usize>();
    if on_planes::<S>(p, panels, width.tier()) {
        return sweep_planes(blocks, job, chunks);
    }
    // One set of lanes per source column and column of `W`; the sources of
    // a Gram sweep are the panels' columns, then `W`'s own when `outs` has
    // the slot for `WᴴW`.
    let lanes = |outs: &[DMat<S>]| {
        let own = if outs.len() > blocks.len() { p } else { 0 };
        vec![[S::zero(); 4]; (panels + own) * p]
    };
    match job {
        Sweep::Gram { w, outs } => {
            let mut acc = lanes(outs);
            for rows in chunks {
                gram_chunk(blocks, w, &mut acc, outs, rows);
            }
        }
        Sweep::Update { coeffs, w } => {
            for (k0, _, k1) in chunks {
                update_rows(blocks, coeffs, w, (k0, k1));
            }
        }
        Sweep::UpdateGram { coeffs, w, outs } => {
            let mut acc = lanes(outs);
            for rows in chunks {
                update_rows(blocks, coeffs, w, (rows.0, rows.2));
                gram_chunk(blocks, w, &mut acc, outs, rows);
            }
        }
    }
}

/// [`sweep_body`] for a complex `W` of two or more columns, on planes: per
/// chunk of rows, the update (with `coeffs`), then the Gram product (with
/// `outs`). One call site each keeps one copy of each body per tier.
#[inline(always)]
fn sweep_planes<S: Scalar>(
    blocks: &[ColsRef<'_, S>],
    job: Sweep<'_, S>,
    chunks: impl Iterator<Item = (usize, usize, usize)>,
) {
    let (coeffs, mut w, mut outs) = match job {
        Sweep::Gram { w, outs } => (None, WRef::Shared(w), Some(outs)),
        Sweep::Update { coeffs, w } => (Some(coeffs), WRef::Mut(w), None),
        Sweep::UpdateGram { coeffs, w, outs } => (Some(coeffs), WRef::Mut(w), Some(outs)),
    };
    let mut planes = [0.0; PLANES];
    // The sources of a Gram sweep: the panels' columns, then `W`'s own when
    // `outs` has the slot for `WᴴW`.
    let panels: usize = blocks.iter().map(|b| b.ncols).sum();
    let own = outs.as_ref().is_some_and(|o| o.len() > blocks.len());
    let srcs = panels + if own { w.get().ncols() } else { 0 };
    for (k0, t0, k1) in chunks {
        if let (Some(coeffs), WRef::Mut(w)) = (coeffs, &mut w) {
            let rows = (k0, k1);
            for (c0, tw) in tiles(w.ncols()) {
                by_tile_width!(tw, update_tile, blocks, coeffs, w, &mut planes, rows, c0);
            }
        }
        if let Some(outs) = outs.as_deref_mut() {
            let (w, rows) = (w.get(), (k0, t0, k1));
            for (c0, tw) in tiles(w.ncols()) {
                by_tile_width!(tw, gram_tile, blocks, w, &mut planes, outs, rows, srcs, c0);
            }
        }
    }
}

/// The `W` of a sweep on planes: read only by a Gram sweep, updated by the
/// others.
enum WRef<'x, S> {
    Shared(&'x DMat<S>),
    Mut(&'x mut DMat<S>),
}

impl<S> WRef<'_, S> {
    #[inline(always)]
    fn get(&self) -> &DMat<S> {
        match self {
            WRef::Shared(w) => w,
            WRef::Mut(w) => w,
        }
    }
}

/// The tier the kernels of this module take: 512-bit vectors for a complex
/// scalar; a real one stops at AVX2 (see the module documentation).
fn widest<S: Scalar>() -> Tier {
    if S::is_complex() {
        Tier::Avx512
    } else {
        Tier::Avx2
    }
}

/// The tier the sweeps and vector passes of this module run at for `S` on
/// this CPU.
pub fn tier<S: Scalar>() -> Tier {
    simd::capped(widest::<S>())
}

/// Whether the sweeps run on planes ([`sweep_planes`]) for a `W` of `p`
/// columns of `S` against `panels` source columns at `tier`: a complex `W`
/// of two or more columns does at AVX2 and AVX-512F, against at least one
/// panel column. A real `W`, a single complex column (a pseudo-block lane),
/// the baseline tier and the Gram of `W` alone (CholQR's, where the copy
/// into planes is not paid back) keep the interleaved body.
#[inline(always)]
fn on_planes<S: Scalar>(p: usize, panels: usize, tier: Tier) -> bool {
    S::is_complex() && p >= 2 && panels > 0 && tier >= Tier::Avx2
}

/// The body the sweeps of this module run on this CPU for a `W` of `p`
/// columns of `S` against at least one panel column, for bench headers:
/// `"planes"` (the block's columns in the vector lanes) or `"columns"`
/// (interleaved scalars, one column of `W` at a time).
pub fn body<S: Scalar>(p: usize) -> &'static str {
    if on_planes::<S>(p, 1, tier::<S>()) {
        "planes"
    } else {
        "columns"
    }
}

/// [`sweep_body`] as a [`Kernel`].
struct SweepKernel<'b, 'x, S>(&'b [ColsRef<'b, S>], Sweep<'x, S>);

impl<S: Scalar> Kernel for SweepKernel<'_, '_, S> {
    type Out = ();

    fn widest(&self) -> Tier {
        widest::<S>()
    }

    #[inline(always)]
    fn body(self, width: Width) {
        sweep_body(self.0, self.1, width)
    }
}

fn sweep<S: Scalar>(blocks: &[ColsRef<'_, S>], job: Sweep<'_, S>) {
    simd::run(SweepKernel(blocks, job))
}

/// Shape checks shared by the three entry points: every panel as tall as
/// `W`, and one `ncols_b × p` matrix per panel in `mats` (for the Gram
/// output, a trailing `p × p` one for `WᴴW` as well).
fn check<S: Scalar>(blocks: &[ColsRef<'_, S>], w: &DMat<S>, mats: &[DMat<S>], with_self: bool) {
    assert_eq!(mats.len(), blocks.len() + usize::from(with_self));
    for (b, m) in blocks.iter().zip(mats) {
        assert!(
            b.ncols == 0 || b.nrows == w.nrows(),
            "panel row count must match W"
        );
        assert_eq!(
            (m.nrows(), m.ncols()),
            (b.ncols, w.ncols()),
            "one ncols × p matrix per panel"
        );
    }
    if with_self {
        let g = &mats[blocks.len()];
        assert_eq!((g.nrows(), g.ncols()), (w.ncols(), w.ncols()));
    }
}

/// Stacked adjoint product `[B₀ B₁ … W]ᴴ·W` in one sweep: `outs[b]` receives
/// `B_bᴴ·W` (`ncols_b × p`) and the last entry of `outs` the Gram matrix
/// `WᴴW` (`p × p`). All panels must share `W`'s row count.
pub fn fused_gram<S: Scalar>(blocks: &[ColsRef<'_, S>], w: &DMat<S>, outs: &mut [DMat<S>]) {
    check(blocks, w, outs, true);
    outs.iter_mut().for_each(DMat::set_zero);
    sweep(blocks, Sweep::Gram { w, outs });
}

/// The projections of [`fused_gram`] without the Gram matrix: `outs[b]`
/// receives `B_bᴴ·W`, one entry per panel — for a `W` that is not about to
/// be orthonormalised (a residual against the recycle space, `[C V]ᴴ·U`).
pub fn fused_adjoint_times<S: Scalar>(
    blocks: &[ColsRef<'_, S>],
    w: &DMat<S>,
    outs: &mut [DMat<S>],
) {
    check(blocks, w, outs, false);
    outs.iter_mut().for_each(DMat::set_zero);
    sweep(blocks, Sweep::Gram { w, outs });
}

/// [`fused_adjoint_times`] for a single panel: `Bᴴ·W` as a new matrix.
pub fn adjoint_times<S: Scalar>(b: ColsRef<'_, S>, w: &DMat<S>) -> DMat<S> {
    let mut out = DMat::zeros(b.ncols, w.ncols());
    fused_adjoint_times(&[b], w, std::slice::from_mut(&mut out));
    out
}

/// Fused projection update `W ⟵ W − Σ_b B_b·C_b`, one sweep of `W` for all
/// panels. `coeffs[b]` must be `blocks[b].ncols × p`.
pub fn fused_update<S: Scalar>(blocks: &[ColsRef<'_, S>], coeffs: &[DMat<S>], w: &mut DMat<S>) {
    check(blocks, w, coeffs, false);
    sweep(blocks, Sweep::Update { coeffs, w });
}

/// `W ⟵ W + Σ_b B_b·C_b`: [`fused_update`] with the coefficients negated,
/// which is exact. Into a zeroed `W` this is the product `[B₀ B₁ …]·C`.
pub fn fused_accumulate<S: Scalar>(blocks: &[ColsRef<'_, S>], coeffs: &[DMat<S>], w: &mut DMat<S>) {
    let neg: Vec<DMat<S>> = coeffs
        .iter()
        .map(|c| DMat::from_fn(c.nrows(), c.ncols(), |i, j| -c[(i, j)]))
        .collect();
    fused_update(blocks, &neg, w);
}

/// [`fused_update`] followed by [`fused_gram`] of the updated `W`, row chunk
/// by row chunk: each chunk of the panels is read once for both.
pub fn fused_update_gram<S: Scalar>(
    blocks: &[ColsRef<'_, S>],
    coeffs: &[DMat<S>],
    w: &mut DMat<S>,
    outs: &mut [DMat<S>],
) {
    check(blocks, w, coeffs, false);
    check(blocks, w, outs, true);
    outs.iter_mut().for_each(DMat::set_zero);
    sweep(blocks, Sweep::UpdateGram { coeffs, w, outs });
}

/// `uᴴ·w` over one chunk of at most [`KB`] rows, as [`gram_chunk`] forms
/// each entry: the rows in fours through one set of lanes, the lanes combined
/// as `(a0 + a1) + (a2 + a3)`, then the last `len % 4` rows in order.
#[inline(always)]
fn chunk_dot<S: Scalar>(u: &[S], w: &[S]) -> S {
    let t = w.len() & !3;
    let mut lanes = [[S::zero(); 4]];
    dots(&mut lanes, [&u[..t]], &w[..t]);
    let [a] = lanes;
    let mut sum = (a[0] + a[1]) + (a[2] + a[3]);
    for (x, y) in u[t..].iter().zip(&w[t..]) {
        sum += x.conj() * *y;
    }
    sum
}

#[inline(always)]
fn dot_body<S: Scalar>(u: &[S], w: &[S]) -> S {
    assert_eq!(u.len(), w.len());
    let mut sum = S::zero();
    for (uc, wc) in u.chunks(KB).zip(w.chunks(KB)) {
        sum += chunk_dot(uc, wc);
    }
    sum
}

/// `w ⟵ w − c·v` and `uᴴ·w` of the updated `w` (`wᴴ·w` without a `u`) in
/// one pass: each entry joins its lane as it is stored, and the chunk sums
/// are [`chunk_dot`]'s.
#[inline(always)]
fn axpy_dot_body<S: Scalar>(w: &mut [S], c: S, v: &[S], u: Option<&[S]>) -> S {
    assert_eq!(v.len(), w.len());
    assert!(u.is_none_or(|u| u.len() == w.len()));
    let entry = |wk: &mut S, vk: S, uk: Option<S>, acc: &mut S| {
        *wk -= c * vk;
        *acc += uk.unwrap_or(*wk).conj() * *wk;
    };
    let mut total = S::zero();
    for (k, wc) in w.chunks_mut(KB).enumerate() {
        let rows = k * KB..k * KB + wc.len();
        let (wq, wt) = wc.as_chunks_mut::<4>();
        let (vq, vt) = v[rows.clone()].as_chunks::<4>();
        let (uq, ut) = u.map(|u| u[rows].as_chunks::<4>()).unzip();
        let mut a = [S::zero(); 4];
        for (i, (wv, vv)) in wq.iter_mut().zip(vq).enumerate() {
            let uv = uq.map(|q| q[i]);
            for t in 0..4 {
                entry(&mut wv[t], vv[t], uv.map(|x| x[t]), &mut a[t]);
            }
        }
        let mut sum = (a[0] + a[1]) + (a[2] + a[3]);
        for (i, (wk, &vk)) in wt.iter_mut().zip(vt).enumerate() {
            entry(wk, vk, ut.map(|x| x[i]), &mut sum);
        }
        total += sum;
    }
    total
}

/// [`dot_body`] as a [`Kernel`].
struct DotKernel<'a, S>(&'a [S], &'a [S]);

impl<S: Scalar> Kernel for DotKernel<'_, S> {
    type Out = S;

    fn widest(&self) -> Tier {
        widest::<S>()
    }

    #[inline(always)]
    fn body(self, _: Width) -> S {
        dot_body(self.0, self.1)
    }
}

/// [`axpy_dot_body`] as a [`Kernel`].
struct AxpyDotKernel<'a, S>(&'a mut [S], S, &'a [S], Option<&'a [S]>);

impl<S: Scalar> Kernel for AxpyDotKernel<'_, S> {
    type Out = S;

    fn widest(&self) -> Tier {
        widest::<S>()
    }

    #[inline(always)]
    fn body(self, _: Width) -> S {
        axpy_dot_body(self.0, self.1, self.2, self.3)
    }
}

/// `uᴴ·w` of two vectors in the summation order of [`fused_gram`] (its
/// `1 × 1` case, bit for bit), without a panel view or an allocation — for
/// callers that hold plain vectors, such as the multigrid smoothers.
///
/// [`DMat::col_dot`], [`DMat::col_norm`] and [`DMat::fro_norm`] sum in plain
/// index order and are deliberately *not* routed through here: a solve calls
/// them once per cycle, not once per row sweep, and every golden trace pins
/// their rounding.
pub fn dot<S: Scalar>(u: &[S], w: &[S]) -> S {
    simd::run(DotKernel(u, w))
}

/// `‖w‖²`: the real part of [`dot`]`(w, w)`, whose imaginary part is an
/// exact zero.
pub fn nrm2_sqr<S: Scalar>(w: &[S]) -> f64 {
    dot(w, w).re()
}

/// `w ⟵ w − c·v` (no coefficient is skipped), returning `uᴴ·w` of the
/// updated `w` as [`dot`] would, in the same pass: a Gram–Schmidt projection
/// and the next one's coefficient.
pub fn axpy_dot<S: Scalar>(w: &mut [S], c: S, v: &[S], u: &[S]) -> S {
    simd::run(AxpyDotKernel(w, c, v, Some(u)))
}

/// `w ⟵ w − c·v`, returning `‖w‖²` of the updated `w` as [`nrm2_sqr`] would,
/// in the same pass.
pub fn axpy_nrm2_sqr<S: Scalar>(w: &mut [S], c: S, v: &[S]) -> f64 {
    simd::run(AxpyDotKernel(w, c, v, None)).re()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blas::{self, Op};
    use crate::mat::bits;
    use kryst_scalar::C64;

    /// The scalar dot the module started with: four accumulators, a tail.
    fn dot_conj_ref<S: Scalar>(a: &[S], b: &[S]) -> S {
        let n = a.len();
        let n4 = n & !3;
        let mut acc = [S::zero(); 4];
        let mut i = 0;
        while i < n4 {
            acc[0] += a[i].conj() * b[i];
            acc[1] += a[i + 1].conj() * b[i + 1];
            acc[2] += a[i + 2].conj() * b[i + 2];
            acc[3] += a[i + 3].conj() * b[i + 3];
            i += 4;
        }
        let mut s = (acc[0] + acc[1]) + (acc[2] + acc[3]);
        while i < n {
            s += a[i].conj() * b[i];
            i += 1;
        }
        s
    }

    /// Reference Gram sweep: one dot per (column, rhs) pair per row chunk.
    fn gram_ref<S: Scalar>(blocks: &[ColsRef<'_, S>], w: &DMat<S>) -> Vec<DMat<S>> {
        let (n, p) = (w.nrows(), w.ncols());
        let mut srcs = blocks.to_vec();
        srcs.push(ColsRef::whole(w));
        let mut outs: Vec<DMat<S>> = srcs.iter().map(|b| DMat::zeros(b.ncols, p)).collect();
        let mut k0 = 0;
        while k0 < n {
            let k1 = (k0 + KB).min(n);
            for (b, out) in srcs.iter().zip(&mut outs) {
                for i in 0..b.ncols {
                    for l in 0..p {
                        out[(i, l)] += dot_conj_ref(&b.col(i)[k0..k1], &w.col(l)[k0..k1]);
                    }
                }
            }
            k0 = k1;
        }
        outs
    }

    /// Reference update: one axpy per source column, zero coefficients
    /// skipped.
    fn update_ref<S: Scalar>(blocks: &[ColsRef<'_, S>], coeffs: &[DMat<S>], w: &mut DMat<S>) {
        for l in 0..w.ncols() {
            let wl = w.col_mut(l);
            for (b, c) in blocks.iter().zip(coeffs) {
                for i in 0..b.ncols {
                    let cil = c[(i, l)];
                    if cil == S::zero() {
                        continue;
                    }
                    for (wk, bk) in wl.iter_mut().zip(b.col(i)) {
                        *wk -= cil * *bk;
                    }
                }
            }
        }
    }

    fn rnd(i: usize, j: usize, salt: usize) -> f64 {
        let h = (i.wrapping_mul(2654435761) ^ j.wrapping_mul(40503) ^ salt.wrapping_mul(69069))
            .wrapping_mul(0x9E37_79B9_7F4A_7C15);
        ((h >> 11) % 20011) as f64 / 10005.5 - 1.0
    }

    fn mat<S: Scalar>(n: usize, k: usize, salt: usize) -> DMat<S> {
        DMat::from_fn(n, k, |i, j| {
            S::from_parts(rnd(i, j, salt), rnd(i, j, salt + 7))
        })
    }

    /// The sweep at `tier`.
    fn sweep_at<S: Scalar>(tier: Tier, blocks: &[ColsRef<'_, S>], job: Sweep<'_, S>) {
        simd::run_at(tier, SweepKernel(blocks, job))
    }

    /// Reference vector dot: [`dot_conj_ref`] per row chunk, chunks in order.
    fn dot_ref<S: Scalar>(u: &[S], w: &[S]) -> S {
        let mut sum = S::zero();
        for (uc, wc) in u.chunks(KB).zip(w.chunks(KB)) {
            sum += dot_conj_ref(uc, wc);
        }
        sum
    }

    /// The vector passes against the scalar loops, and against the `1 × 1`
    /// Gram sweep they stand in for.
    fn vector_case<S: Scalar>(tiers: &[Tier], n: usize) {
        let cols: DMat<S> = mat(n, 3, 53);
        let (u, v, w0) = (cols.col(0), cols.col(1), cols.col(2));
        let c = S::from_parts(rnd(n, 1, 59), rnd(n, 2, 61));
        let mut want_w = w0.to_vec();
        for (wk, &vk) in want_w.iter_mut().zip(v) {
            *wk -= c * vk;
        }
        let vbits = |x: &[S]| bits(&DMat::from_col_major(x.len(), 1, x.to_vec()));
        let (want_dot, want_nrm) = (dot_ref(u, &want_w), dot_ref(&want_w, &want_w));
        for &tier in tiers {
            let case = format!("n={n} tier {} of {}", tier.name(), simd::names(tiers));
            let dot = |u, w| simd::run_at(tier, DotKernel(u, w));
            assert_eq!(vbits(&[dot(u, w0)]), vbits(&[dot_ref(u, w0)]), "dot {case}");
            assert_eq!(vbits(&[dot(w0, w0)]), vbits(&[dot_ref(w0, w0)]), "{case}");
            for (with_u, want) in [(Some(u), want_dot), (None, want_nrm)] {
                let mut w = w0.to_vec();
                let got = simd::run_at(tier, AxpyDotKernel(&mut w, c, v, with_u));
                assert_eq!(vbits(&[got]), vbits(&[want]), "axpy_dot {case}");
                assert_eq!(vbits(&w), vbits(&want_w), "axpy_dot w {case}");
            }
        }
        // The public names dispatch to one of those bodies.
        let mut gram = [DMat::zeros(1, 1)];
        fused_adjoint_times(&[ColsRef::new(u, n, 1)], &cols.cols(2, 1), &mut gram);
        assert_eq!(bits(&gram[0]), vbits(&[dot(u, w0)]), "1 × 1 gram n={n}");
        assert_eq!(nrm2_sqr(w0), dot_ref(w0, w0).re());
        let (mut wa, mut wb) = (w0.to_vec(), w0.to_vec());
        assert_eq!(vbits(&[axpy_dot(&mut wa, c, v, u)]), vbits(&[want_dot]));
        assert_eq!(axpy_nrm2_sqr(&mut wb, c, v), want_nrm.re());
    }

    fn property<S: Scalar>() {
        let tiers = simd::suite_tiers("fused sweeps");
        for n in [1usize, 3, 4, 511, 512, 513, 1100, 4099] {
            vector_case::<S>(&tiers, n);
        }
        for n in [1usize, 3, 511, 512, 513, 4099] {
            for k in [0usize, 1, 3, 4, 5, 17] {
                for p in [1usize, 2, 3, 8, 9] {
                    for with_c in [false, true] {
                        one_case::<S>(&tiers, n, k, p, with_c);
                    }
                }
            }
        }
        // The shape of the repository benchmark's complex workload.
        if S::is_complex() {
            one_case::<S>(&tiers, 1176, 400, 8, false);
            // The tile widths of the complex block sweeps (8/4/2/1 lanes of
            // `W`'s columns, the extraction products' 80) against a
            // recycled panel and a basis kept one matrix per block.
            for (p, nb) in [(4, 5), (5, 3), (16, 2), (80, 1)] {
                one_case_with::<S>(&tiers, 1176, nb * p, p, true, Some(nb));
            }
        }
    }

    fn one_case<S: Scalar>(tiers: &[Tier], n: usize, k: usize, p: usize, with_c: bool) {
        one_case_with::<S>(tiers, n, k, p, with_c, None);
    }

    /// Every sweep at every tier against the references, on `W` (`n × p`)
    /// and a basis of `k` columns — one flat matrix, or with `list = Some(nb)`
    /// `nb` blocks of `n × p` viewed through [`ColsRef::blocks`] — after a
    /// recycled panel of three columns when `with_c`.
    fn one_case_with<S: Scalar>(
        tiers: &[Tier],
        n: usize,
        k: usize,
        p: usize,
        with_c: bool,
        list: Option<usize>,
    ) {
        let cm: DMat<S> = mat(n, 3, 11);
        let mut vm: DMat<S> = mat(n, k, 23);
        if k >= 3 {
            // A non-finite source column: `0·NaN` must stay skipped.
            vm.col_mut(2)[n / 2] = S::from_parts(f64::NAN, 0.0);
        }
        let vlist: Vec<DMat<S>> = (0..list.unwrap_or(0)).map(|b| vm.cols(b * p, p)).collect();
        let w0: DMat<S> = mat(n, p, 37);
        let mut blocks = Vec::new();
        if with_c {
            blocks.push(ColsRef::whole(&cm));
        }
        blocks.push(match list {
            Some(_) => ColsRef::blocks(&vlist),
            None => ColsRef::whole(&vm),
        });
        // Coefficients with exact zeros of both signs in every position of
        // a group of four, and in the remainder columns.
        let coeffs: Vec<DMat<S>> = blocks
            .iter()
            .map(|b| {
                DMat::from_fn(b.ncols, p, |i, l| match (i + 2 * l) % 7 {
                    2 if k >= 3 && i == 2 => S::zero(),
                    3 => S::zero(),
                    5 => S::from_parts(-0.0, 0.0),
                    _ => S::from_parts(rnd(i, l, 41), rnd(i, l, 43)),
                })
            })
            .collect();
        let want_gram = gram_ref(&blocks, &w0);
        let mut want_w = w0.clone();
        update_ref(&blocks, &coeffs, &mut want_w);
        let want_gram2 = gram_ref(&blocks, &want_w);

        for &tier in tiers {
            let case = format!(
                "n={n} k={k} p={p} c={with_c} blocks={list:?} tier {} of {}",
                tier.name(),
                simd::names(tiers)
            );
            let mut outs: Vec<DMat<S>> = want_gram
                .iter()
                .map(|m| DMat::zeros(m.nrows(), p))
                .collect();
            sweep_at(
                tier,
                &blocks,
                Sweep::Gram {
                    w: &w0,
                    outs: &mut outs,
                },
            );
            for (got, want) in outs.iter().zip(&want_gram) {
                assert_eq!(bits(got), bits(want), "gram {case}");
            }
            let mut w = w0.clone();
            sweep_at(
                tier,
                &blocks,
                Sweep::Update {
                    coeffs: &coeffs,
                    w: &mut w,
                },
            );
            assert_eq!(bits(&w), bits(&want_w), "update {case}");
            let mut w = w0.clone();
            outs.iter_mut().for_each(DMat::set_zero);
            sweep_at(
                tier,
                &blocks,
                Sweep::UpdateGram {
                    coeffs: &coeffs,
                    w: &mut w,
                    outs: &mut outs,
                },
            );
            assert_eq!(bits(&w), bits(&want_w), "update+gram W {case}");
            for (got, want) in outs.iter().zip(&want_gram2) {
                assert_eq!(bits(got), bits(want), "update+gram S {case}");
            }
        }
    }

    #[test]
    fn kernels_match_reference_bitwise_f64() {
        property::<f64>();
    }

    #[test]
    fn kernels_match_reference_bitwise_c64() {
        property::<C64>();
    }

    #[test]
    fn block_list_view_equals_flat_view() {
        // A basis kept one matrix per block gives the same bits as the same
        // columns in one matrix.
        let (n, p, nb) = (700, 2, 5);
        let flat: DMat<f64> = mat(n, nb * p, 3);
        let list: Vec<DMat<f64>> = (0..nb).map(|b| flat.cols(b * p, p)).collect();
        let w: DMat<f64> = mat(n, p, 5);
        let run = |blocks: &[ColsRef<'_, f64>]| {
            let mut outs = vec![DMat::zeros(nb * p, p), DMat::zeros(p, p)];
            fused_gram(blocks, &w, &mut outs);
            let mut w2 = w.clone();
            fused_update(blocks, &outs[..1], &mut w2);
            (bits(&outs[0]), bits(&outs[1]), bits(&w2))
        };
        assert!(run(&[ColsRef::whole(&flat)]) == run(&[ColsRef::blocks(&list)]));
        assert_eq!(ColsRef::<f64>::blocks(&[]).ncols(), 0);
    }

    #[test]
    fn projections_and_accumulation_are_the_same_sweeps() {
        // `fused_adjoint_times` is `fused_gram` less its last output, and
        // `fused_accumulate` undoes `fused_update`, bit for bit.
        let (n, p) = (1100, 3);
        let a: DMat<C64> = mat(n, 2, 3);
        let list: Vec<DMat<C64>> = (0..4).map(|b| mat(n, p, 5 + b)).collect();
        let w: DMat<C64> = mat(n, p, 11);
        let blocks = [ColsRef::whole(&a), ColsRef::blocks(&list)];
        let mut with_gram = vec![DMat::zeros(2, p), DMat::zeros(4 * p, p), DMat::zeros(p, p)];
        fused_gram(&blocks, &w, &mut with_gram);
        let mut without = vec![DMat::zeros(2, p), DMat::zeros(4 * p, p)];
        fused_adjoint_times(&blocks, &w, &mut without);
        assert!(bits(&without[0]) == bits(&with_gram[0]));
        assert!(bits(&without[1]) == bits(&with_gram[1]));
        assert!(bits(&adjoint_times(blocks[1], &w)) == bits(&with_gram[1]));

        let coeffs = [mat::<C64>(2, p, 13), mat::<C64>(4 * p, p, 17)];
        let neg: Vec<DMat<C64>> = coeffs
            .iter()
            .map(|c| DMat::from_fn(c.nrows(), c.ncols(), |i, j| -c[(i, j)]))
            .collect();
        let (mut plus, mut minus) = (w.clone(), w.clone());
        fused_accumulate(&blocks, &coeffs, &mut plus);
        fused_update(&blocks, &neg, &mut minus);
        assert!(bits(&plus) == bits(&minus));
        // Into a zeroed panel: the product itself.
        let mut prod = DMat::zeros(n, p);
        fused_accumulate(&blocks[..1], &coeffs[..1], &mut prod);
        let want = blas::matmul(&a, Op::None, &coeffs[0], Op::None);
        for (got, want) in prod.as_slice().iter().zip(want.as_slice()) {
            assert!((*got - *want).abs() < 1e-12);
        }
    }

    #[test]
    fn fused_gram_matches_separate_products() {
        let n = 1100; // crosses the KB boundary
        let a = DMat::from_fn(n, 3, |i, j| ((i * 3 + j * 7) % 11) as f64 - 5.0);
        let v = DMat::from_fn(n, 5, |i, j| ((i + j * 13) % 17) as f64 - 8.0);
        let w = DMat::from_fn(n, 2, |i, j| ((i * 2 + j) % 9) as f64 - 4.0);
        let mut s = vec![DMat::zeros(3, 2), DMat::zeros(5, 2), DMat::zeros(2, 2)];
        fused_gram(&[ColsRef::whole(&a), ColsRef::whole(&v)], &w, &mut s);
        let want = [
            blas::adjoint_times(&a, &w),
            blas::adjoint_times(&v, &w),
            blas::adjoint_times(&w, &w),
        ];
        for (got, want) in s.iter().zip(&want) {
            for l in 0..2 {
                for i in 0..want.nrows() {
                    let tol = 1e-9 * want[(i, l)].abs().max(1.0);
                    assert!((got[(i, l)] - want[(i, l)]).abs() < tol);
                }
            }
        }
    }

    #[test]
    fn leading_view_borrows_prefix_columns() {
        let v = DMat::from_fn(40, 6, |i, j| (i * 6 + j) as f64);
        let w = DMat::from_fn(40, 2, |i, j| ((i + j) % 5) as f64 - 2.0);
        let mut s = vec![DMat::zeros(4, 2), DMat::zeros(2, 2)];
        fused_gram(&[ColsRef::leading(&v, 4)], &w, &mut s);
        let vlead = v.cols(0, 4);
        let want = blas::adjoint_times(&vlead, &w);
        for i in 0..4 {
            for l in 0..2 {
                assert!((s[0][(i, l)] - want[(i, l)]).abs() < 1e-10);
            }
        }
    }

    #[test]
    fn fused_update_matches_gemm() {
        let n = 700;
        let v = DMat::from_fn(n, 4, |i, j| ((i * 5 + j) % 13) as f64 - 6.0);
        let c = DMat::from_fn(4, 3, |i, j| (i as f64 - j as f64) * 0.5);
        let w0 = DMat::from_fn(n, 3, |i, j| ((i + 2 * j) % 7) as f64 - 3.0);
        let mut w = w0.clone();
        fused_update(&[ColsRef::whole(&v)], std::slice::from_ref(&c), &mut w);
        let mut want = w0.clone();
        blas::gemm(-1.0, &v, Op::None, &c, Op::None, 1.0, &mut want);
        for i in 0..n {
            for l in 0..3 {
                assert!((w[(i, l)] - want[(i, l)]).abs() < 1e-10, "({i},{l})");
            }
        }
    }

    #[test]
    fn complex_fused_gram_conjugates() {
        let n = 50;
        let a = DMat::<C64>::from_fn(n, 2, |i, j| {
            C64::from_parts((i % 5) as f64, (j + 1) as f64 * 0.5)
        });
        let w = DMat::<C64>::from_fn(n, 2, |i, j| {
            C64::from_parts(((i + j) % 3) as f64 - 1.0, (i % 4) as f64)
        });
        let mut s = vec![DMat::zeros(2, 2), DMat::zeros(2, 2)];
        fused_gram(&[ColsRef::whole(&a)], &w, &mut s);
        let want = blas::adjoint_times(&a, &w);
        for i in 0..2 {
            for l in 0..2 {
                assert!((s[0][(i, l)] - want[(i, l)]).abs() < 1e-10);
            }
        }
    }
}
