//! Shared skewed SPMD workload for the distributed-tracing demos.
//!
//! `kryst_trace run` and the `kryst_prof` measured-imbalance section both
//! need a small workload that (a) touches both collective span kinds — halo
//! exchange and butterfly all-reduce — and (b) has a *deliberate*
//! straggler, so the merged timeline's wait-behind-slowest attribution has
//! something real to find. This module is that workload: per step, each
//! rank burns an amount of local compute proportional to its rank index
//! (rank `P-1` is always the critical rank), then joins the collectives.

use kryst_obs::timeline::Timeline;
use kryst_par::collective::all_reduce_sum;
use kryst_par::{gather_timeline, HaloPlan, Layout, Transport, TransportError};
use kryst_sparse::{Coo, Csr};

/// Unknowns of the demo operator (1-D Laplacian: chain halo topology).
pub const DEMO_N: usize = 256;

/// The demo operator: 1-D Laplacian, so every interior rank has exactly two
/// halo neighbors.
pub fn laplace1d(n: usize) -> Csr<f64> {
    let mut c = Coo::new(n, n);
    for i in 0..n {
        c.push(i, i, 2.0);
        if i > 0 {
            c.push(i, i - 1, -1.0);
        }
        if i + 1 < n {
            c.push(i, i + 1, -1.0);
        }
    }
    c.to_csr()
}

/// Burn `units` of un-optimizable floating-point work.
fn busy(units: usize) {
    let mut acc = 0.0f64;
    for i in 0..units * 50 {
        acc += (i as f64).sqrt();
    }
    std::hint::black_box(acc);
}

/// Run `steps` of the skewed workload as the calling endpoint's rank, then
/// gather the merged timeline onto rank 0 ([`gather_timeline`]): returns
/// `Ok(Some(timeline))` there, `Ok(None)` on every other rank. Each step is
/// rank-proportional busy work before each of one halo exchange and one
/// 8-double all-reduce.
pub fn skewed_workload<T: Transport + ?Sized>(
    t: &T,
    steps: usize,
) -> Result<Option<Timeline>, TransportError> {
    let rank = t.rank();
    let nranks = t.nranks();
    let a = laplace1d(DEMO_N);
    let layout = Layout::even(DEMO_N, nranks);
    let plan = HaloPlan::build(&a, &layout);
    let mut red = vec![rank as f64; 8];
    let mut scratch = Vec::new();
    for _ in 0..steps {
        // The straggler: rank r computes r units before every collective.
        busy(rank * 400);
        plan.execute(t, 1, 1.0)?;
        busy(rank * 400);
        red.truncate(8);
        all_reduce_sum(t, &mut red, &mut scratch)?;
    }
    gather_timeline(t)
}
