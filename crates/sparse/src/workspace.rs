//! Reusable multivector buffers for allocation-free solver iterations and
//! preconditioner applies.
//!
//! Every per-iteration kernel call used to allocate its `n × p` output
//! (`apply_new`, cloned column blocks, fused batch buffers). With the SpMM
//! and GEMM kernels overwriting their output in place, a small buffer pool
//! threaded through the solver iteration state (and through each
//! preconditioner) removes those allocations after the first iteration:
//! [`Workspace::take`] hands out a zeroed `DMat` backed by a recycled
//! allocation ([`Workspace::take_stale`] one that is not filled, for outputs
//! that are overwritten whole) and [`Workspace::put`] returns it once the
//! caller is done with it.

use kryst_dense::DMat;
use kryst_scalar::Scalar;

/// A best-fit pool of reusable column-major buffers.
///
/// `take` picks the *smallest* free buffer whose capacity fits the request
/// (best fit); only when nothing fits does it grow the largest free buffer
/// (or allocate). A solver serves a few fixed `n × p` shapes, a
/// preconditioner apply cycles through many sizes at once (one pair of
/// vectors per AMG level, smoother scratch); best fit pairs each request
/// with its own buffer, so after one warm-up the pool holds one buffer per
/// distinct request and steady-state calls allocate nothing. Buffers are
/// zero-filled on `take`, preserving the exact semantics of a freshly
/// allocated `DMat::zeros`.
#[derive(Debug, Default)]
pub struct Workspace<S> {
    free: Vec<Vec<S>>,
}

impl<S: Scalar> Workspace<S> {
    /// An empty workspace (no buffers held).
    pub fn new() -> Self {
        Self { free: Vec::new() }
    }

    /// The best-fitting pooled buffer for `len` entries (or a new, empty
    /// one), contents as they were left.
    fn pick(&mut self, len: usize) -> Vec<S> {
        // Best fit: smallest capacity that still holds `len`; among equal
        // capacities the buffer returned last, as a pool of one fixed shape
        // hands back the buffer it was just given.
        let pick = self
            .free
            .iter()
            .enumerate()
            .rev()
            .filter(|(_, v)| v.capacity() >= len)
            .min_by_key(|(_, v)| v.capacity())
            .map(|(i, _)| i)
            .or_else(|| {
                // Nothing fits: grow the largest free buffer instead of
                // leaving it stranded below every future request.
                self.free
                    .iter()
                    .enumerate()
                    .max_by_key(|(_, v)| v.capacity())
                    .map(|(i, _)| i)
            });
        match pick {
            Some(i) => self.free.swap_remove(i),
            None => Vec::with_capacity(len),
        }
    }

    /// A zeroed `nrows × ncols` matrix, reusing the best-fitting pooled
    /// allocation when one is available.
    pub fn take(&mut self, nrows: usize, ncols: usize) -> DMat<S> {
        let mut data = self.pick(nrows * ncols);
        data.clear();
        data.resize(nrows * ncols, S::zero());
        DMat::from_col_major(nrows, ncols, data)
    }

    /// [`Self::take`] without the fill, for a matrix whose every entry the
    /// caller writes before reading any (an operator or preconditioner
    /// apply, a residual, a copy): the entries hold whatever the buffer's
    /// last user left, or zeros where it grows.
    pub fn take_stale(&mut self, nrows: usize, ncols: usize) -> DMat<S> {
        let mut data = self.pick(nrows * ncols);
        data.resize(nrows * ncols, S::zero());
        DMat::from_col_major(nrows, ncols, data)
    }

    /// Return a matrix's backing buffer to the pool for reuse.
    pub fn put(&mut self, m: DMat<S>) {
        self.free.push(m.into_vec());
    }

    /// Number of pooled free buffers (diagnostics/tests).
    pub fn pooled(&self) -> usize {
        self.free.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn take_reuses_capacity() {
        let mut ws = Workspace::<f64>::new();
        let a = ws.take(100, 4);
        let cap_ptr = a.as_slice().as_ptr();
        ws.put(a);
        assert_eq!(ws.pooled(), 1);
        let b = ws.take(100, 4);
        assert_eq!(b.as_slice().as_ptr(), cap_ptr, "allocation must be reused");
        assert!(b.as_slice().iter().all(|&x| x == 0.0), "buffer zeroed");
        assert_eq!(ws.pooled(), 0);
        let c = ws.take(100, 4);
        let last = c.as_slice().as_ptr();
        ws.put(b);
        ws.put(c);
        let d = ws.take(100, 4);
        assert_eq!(
            d.as_slice().as_ptr(),
            last,
            "a tie goes to the last buffer returned"
        );
    }

    #[test]
    fn take_is_zeroed_after_dirty_use() {
        let mut ws = Workspace::<f64>::new();
        let mut a = ws.take(8, 2);
        a.fill(3.5);
        ws.put(a);
        let b = ws.take(8, 2);
        assert!(b.as_slice().iter().all(|&x| x == 0.0));
    }

    #[test]
    fn take_stale_keeps_contents_and_zeroes_growth() {
        let mut ws = Workspace::<f64>::new();
        let mut a = ws.take_stale(4, 2);
        assert!(a.as_slice().iter().all(|&x| x == 0.0), "new memory is zero");
        a.fill(3.5);
        let ptr = a.as_slice().as_ptr();
        ws.put(a);
        let b = ws.take_stale(3, 2); // shrinks: stale entries, same buffer
        assert_eq!(b.as_slice().as_ptr(), ptr);
        assert_eq!(b.as_slice(), &[3.5; 6]);
        ws.put(b);
        let c = ws.take_stale(5, 2); // grows past the stale length
        assert_eq!(&c.as_slice()[..6], &[3.5; 6]);
        assert_eq!(&c.as_slice()[6..], &[0.0; 4]);
    }

    #[test]
    fn shape_changes_reuse_when_capacity_fits() {
        let mut ws = Workspace::<f64>::new();
        let a = ws.take(64, 8); // 512 elements
        ws.put(a);
        let b = ws.take(32, 4); // 128 elements — fits in the pooled buffer
        assert_eq!((b.nrows(), b.ncols()), (32, 4));
        ws.put(b);
        let c = ws.take(128, 8); // grows the (single) pooled buffer
        assert_eq!((c.nrows(), c.ncols()), (128, 8));
    }

    #[test]
    fn precond_best_fit_keeps_multi_size_pool_stable() {
        // Simulate a 3-level V-cycle: requests of 1000, 250, 60 elements.
        let mut ws = Workspace::<f64>::new();
        let sizes = [(1000usize, 1usize), (250, 1), (60, 1)];
        // Warm-up: each take allocates; put everything back.
        let warm: Vec<_> = sizes.iter().map(|&(n, p)| ws.take(n, p)).collect();
        let ptrs: Vec<_> = warm.iter().map(|m| m.as_slice().as_ptr()).collect();
        for m in warm {
            ws.put(m);
        }
        assert_eq!(ws.pooled(), 3);
        // Steady state: the same sizes must come back from the same three
        // allocations (best fit pairs each request with its own buffer).
        let again: Vec<_> = sizes.iter().map(|&(n, p)| ws.take(n, p)).collect();
        let mut got: Vec<_> = again.iter().map(|m| m.as_slice().as_ptr()).collect();
        let mut want = ptrs.clone();
        got.sort();
        want.sort();
        assert_eq!(got, want, "steady-state takes must reuse pooled buffers");
        // And best fit specifically: the 60-element request must NOT have
        // been served by the 1000-element buffer.
        assert_eq!(again[0].as_slice().as_ptr(), ptrs[0]);
        assert_eq!(again[2].as_slice().as_ptr(), ptrs[2]);
        for m in again {
            ws.put(m);
        }
    }

    #[test]
    fn precond_grows_largest_when_nothing_fits() {
        let mut ws = Workspace::<f64>::new();
        ws.put(ws_mat(16));
        ws.put(ws_mat(64));
        let big = ws.take(256, 1); // grows the 64-element buffer
        assert_eq!(ws.pooled(), 1);
        assert_eq!(ws.free[0].capacity(), 16);
        ws.put(big);
    }

    fn ws_mat(len: usize) -> DMat<f64> {
        DMat::from_col_major(len, 1, vec![0.0; len])
    }
}
