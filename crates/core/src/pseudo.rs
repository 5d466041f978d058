//! Pseudo-block methods: fuse `p` independent single-RHS solves.
//!
//! The paper (§V-B1, after Langou / Belos): pseudo-block methods keep one
//! Krylov process *per right-hand side* (no block coupling, no breakdown
//! concerns) but **fuse the kernel invocations** — the `p` sparse
//! matrix–vector products of an iteration become one sparse matrix–block
//! product, and the `p` dot-product rounds become one fused reduction —
//! trading synchronization count for message volume.
//!
//! Implementation: each right-hand side runs the *unmodified* single-RHS
//! solver (`gmres::solve` / `gcrodr::solve`) on its own thread against a
//! `BatchGroup`-wrapped operator. The group blocks every member at its
//! next operator/preconditioner application until all live members have
//! submitted, then the last arrival executes the batched kernels
//! (leader-executes) and distributes the columns. Solves that converge
//! early deregister, shrinking the batch — exactly the fused execution
//! model whose efficiency Fig. 6 / §V-B2 measures, with genuinely batched
//! SpMM calls.

use crate::gcrodr::{self, SolverContext};
use crate::gmres;
use crate::opts::{SolveOpts, SolveResult};
use crate::trace::SolveTracer;
use kryst_dense::gs::OrthScheme;
use kryst_dense::DMat;
use kryst_par::{LinOp, PrecondOp};
use kryst_scalar::Scalar;
use kryst_sparse::SpmmWorkspace;
use std::sync::{Condvar, Mutex};

/// Which single-RHS method the pseudo-block driver fuses.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum PseudoMethod {
    /// Pseudo-block GMRES.
    Gmres,
    /// Pseudo-block GCRO-DR.
    GcroDr,
}

/// Result of a pseudo-block solve.
#[derive(Debug)]
pub struct PseudoResult {
    /// Per-RHS solve results (individual convergence histories).
    pub per_rhs: Vec<SolveResult>,
    /// Fused iteration count: the maximum over the right-hand sides (the
    /// batch advances while any member is live).
    pub iterations: usize,
    /// All right-hand sides converged.
    pub converged: bool,
}

/// Tags for the two batched kernels.
const TAG_OP: u8 = 0;
const TAG_PC: u8 = 1;

struct BatchState<S: Scalar> {
    pending: Vec<Option<(u8, DMat<S>)>>,
    results: Vec<Option<DMat<S>>>,
    active: Vec<bool>,
    waiting: usize,
    live: usize,
    /// Pool for the fused/pending/result column blocks — the batch barrier
    /// allocates nothing once every buffer size has been seen.
    ws: SpmmWorkspace<S>,
}

/// The fused kernel a [`BatchGroup`] leader executes on behalf of all
/// members: `(kind, fused columns, zeroed fused output)`.
type BatchExec<'a, S> = Box<dyn Fn(u8, &DMat<S>, &mut DMat<S>) + Send + Sync + 'a>;

/// Leader-executes batching barrier over the operator and preconditioner.
struct BatchGroup<'a, S: Scalar> {
    state: Mutex<BatchState<S>>,
    cv: Condvar,
    exec: BatchExec<'a, S>,
}

impl<'a, S: Scalar> BatchGroup<'a, S> {
    /// A group of `p` members over the given kernel executor.
    fn new(p: usize, exec: BatchExec<'a, S>) -> Self {
        Self {
            state: Mutex::new(BatchState {
                pending: (0..p).map(|_| None).collect(),
                results: (0..p).map(|_| None).collect(),
                active: vec![true; p],
                waiting: 0,
                live: p,
                ws: SpmmWorkspace::new(),
            }),
            cv: Condvar::new(),
            exec,
        }
    }

    fn run_batch(&self, st: &mut BatchState<S>) {
        for tag in [TAG_OP, TAG_PC] {
            // Gather members with this tag.
            let members: Vec<usize> = st
                .pending
                .iter()
                .enumerate()
                .filter(|(_, p)| matches!(p, Some((t, _)) if *t == tag))
                .map(|(i, _)| i)
                .collect();
            if members.is_empty() {
                continue;
            }
            // Concatenate the column blocks.
            let n = st.pending[members[0]].as_ref().unwrap().1.nrows();
            let total: usize = members
                .iter()
                .map(|&m| st.pending[m].as_ref().unwrap().1.ncols())
                .sum();
            let mut big = st.ws.take(n, total);
            let mut off = 0;
            for &m in &members {
                let (_, blk) = st.pending[m].as_ref().unwrap();
                big.set_block(0, off, blk);
                off += blk.ncols();
            }
            // One fused kernel call (the point of pseudo-block methods).
            let mut out = st.ws.take(n, total);
            (self.exec)(tag, &big, &mut out);
            st.ws.put(big);
            let mut off = 0;
            for &m in &members {
                let (_, blk) = st.pending[m].take().unwrap();
                let w = blk.ncols();
                st.ws.put(blk);
                let mut res = st.ws.take(n, w);
                res.as_mut_slice()
                    .copy_from_slice(&out.as_slice()[off * n..(off + w) * n]);
                st.results[m] = Some(res);
                off += w;
            }
            st.ws.put(out);
        }
        st.waiting = 0;
    }

    /// Submit a kernel request and block until the batch executes.
    fn submit(&self, me: usize, tag: u8, block: &DMat<S>) -> DMat<S> {
        let mut st = self.state.lock().unwrap();
        debug_assert!(st.active[me]);
        let mut buf = st.ws.take(block.nrows(), block.ncols());
        buf.copy_from(block);
        st.pending[me] = Some((tag, buf));
        st.waiting += 1;
        if st.waiting == st.live {
            self.run_batch(&mut st);
            self.cv.notify_all();
        } else {
            while st.results[me].is_none() {
                st = self.cv.wait(st).unwrap();
            }
        }
        st.results[me].take().expect("batched result present")
    }

    /// Return a result buffer obtained from [`Self::submit`] to the pool.
    fn recycle(&self, buf: DMat<S>) {
        self.state.lock().unwrap().ws.put(buf);
    }

    /// Leave the group (the member's solve has finished).
    fn deregister(&self, me: usize) {
        let mut st = self.state.lock().unwrap();
        if !st.active[me] {
            return;
        }
        st.active[me] = false;
        st.live -= 1;
        if st.live > 0 && st.waiting == st.live {
            self.run_batch(&mut st);
        }
        self.cv.notify_all();
    }
}

/// The per-member operator view.
struct BatchedOp<'g, 'a, S: Scalar> {
    group: &'g BatchGroup<'a, S>,
    me: usize,
    tag: u8,
    n: usize,
}

impl<S: Scalar> LinOp<S> for BatchedOp<'_, '_, S> {
    fn nrows(&self) -> usize {
        self.n
    }
    fn apply(&self, x: &DMat<S>, y: &mut DMat<S>) {
        let out = self.group.submit(self.me, self.tag, x);
        y.copy_from(&out);
        self.group.recycle(out);
    }
}

impl<S: Scalar> PrecondOp<S> for BatchedOp<'_, '_, S> {
    fn nrows(&self) -> usize {
        self.n
    }
    fn apply(&self, r: &DMat<S>, z: &mut DMat<S>) {
        let out = self.group.submit(self.me, self.tag, r);
        z.copy_from(&out);
        self.group.recycle(out);
    }
}

/// Pseudo-block solve of `A·X = B`: `p` fused single-RHS instances.
///
/// `ctxs` supplies one persistent [`SolverContext`] per right-hand side for
/// GCRO-DR recycling across a sequence of calls (ignored for GMRES).
pub fn solve<S: Scalar>(
    a: &dyn LinOp<S>,
    pc: &dyn PrecondOp<S>,
    b: &DMat<S>,
    x: &mut DMat<S>,
    opts: &SolveOpts,
    method: PseudoMethod,
    ctxs: Option<&mut Vec<SolverContext<S>>>,
) -> PseudoResult {
    let n = a.nrows();
    let p = b.ncols();
    assert_eq!(x.ncols(), p);
    let name = match method {
        PseudoMethod::Gmres => "pseudo-gmres",
        PseudoMethod::GcroDr => "pseudo-gcrodr",
    };
    let mut tracer = SolveTracer::begin(opts, name, 0, n, p);
    let group = BatchGroup::new(
        p,
        Box::new(move |tag, block: &DMat<S>, out: &mut DMat<S>| {
            if tag == TAG_OP {
                a.apply(block, out)
            } else {
                pc.apply(block, out)
            }
        }),
    );
    // Per-member contexts (fresh ones when none are supplied).
    let mut local_ctxs: Vec<SolverContext<S>>;
    let ctx_slice: &mut [SolverContext<S>] = match ctxs {
        Some(v) => {
            while v.len() < p {
                v.push(SolverContext::new());
            }
            &mut v[..p]
        }
        None => {
            local_ctxs = (0..p).map(|_| SolverContext::new()).collect();
            &mut local_ctxs
        }
    };
    // Fused reductions: individual threads would overcount, so silence the
    // per-thread stats (and recorders — the fused driver emits one event
    // stream for the whole batch) and account at the end.
    let thread_opts = SolveOpts {
        stats: None,
        recorder: None,
        ..opts.clone()
    };

    let mut per_rhs: Vec<Option<(Vec<S>, SolveResult)>> = (0..p).map(|_| None).collect();
    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(p);
        for (l, ctx) in ctx_slice.iter_mut().enumerate() {
            let group = &group;
            let topts = &thread_opts;
            let bl = DMat::from_col_major(n, 1, b.col(l).to_vec());
            let mut xl = DMat::from_col_major(n, 1, x.col(l).to_vec());
            handles.push(scope.spawn(move || {
                let aop = BatchedOp {
                    group,
                    me: l,
                    tag: TAG_OP,
                    n,
                };
                let mop = BatchedOp {
                    group,
                    me: l,
                    tag: TAG_PC,
                    n,
                };
                let res = match method {
                    PseudoMethod::Gmres => gmres::solve(&aop, &mop, &bl, &mut xl, topts),
                    PseudoMethod::GcroDr => gcrodr::solve(&aop, &mop, &bl, &mut xl, topts, ctx),
                };
                group.deregister(l);
                (xl.col(0).to_vec(), res)
            }));
        }
        for (l, h) in handles.into_iter().enumerate() {
            per_rhs[l] = Some(h.join().expect("pseudo-block worker panicked"));
        }
    });

    let mut iterations = 0;
    let mut converged = true;
    let mut results = Vec::with_capacity(p);
    for (l, slot) in per_rhs.into_iter().enumerate() {
        let (xl, res) = slot.unwrap();
        x.col_mut(l).copy_from_slice(&xl);
        iterations = iterations.max(res.iterations);
        converged &= res.converged;
        results.push(res);
    }
    // Fused accounting: one reduction round per fused iteration (batched
    // norms/orthogonalization), as §V-B1 describes ("the required number of
    // dot products is lowered to m instead"). Recorded per iteration so the
    // synthesized iteration events below tile the solve total exactly.
    let orth_name = opts.orth.name();
    let m = opts.restart.max(1);
    let fused = matches!(opts.orth, OrthScheme::Cgs | OrthScheme::CholQr);
    for it in 0..iterations {
        if let Some(st) = &opts.stats {
            if fused {
                // The batch's projection + Gram parts ship in a single
                // reduction round (one latency charge).
                st.record_fused_reductions(1, 3, 3 * p * std::mem::size_of::<S>());
            } else {
                st.record_reductions(3, 3 * p * std::mem::size_of::<S>());
            }
        }
        // Per-RHS residual at this fused step; converged members hold their
        // final value.
        let row: Vec<f64> = results
            .iter()
            .map(|r| {
                r.history
                    .get(it)
                    .and_then(|h| h.first().copied())
                    .unwrap_or_else(|| r.final_relres.first().copied().unwrap_or(0.0))
            })
            .collect();
        tracer.iteration(it / m, it, row, orth_name, None);
    }
    let final_relres: Vec<f64> = results
        .iter()
        .map(|r| r.final_relres.first().copied().unwrap_or(0.0))
        .collect();
    let _ = tracer.finish(converged, &final_relres);
    PseudoResult {
        per_rhs: results,
        iterations,
        converged,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kryst_par::IdentityPrecond;
    use kryst_pde::poisson::{paper_rhs_block, poisson2d};
    use kryst_sparse::Csr;

    fn check_true_residual(a: &Csr<f64>, b: &DMat<f64>, x: &DMat<f64>, rtol: f64) {
        let mut r = a.apply(x);
        r.axpy(-1.0, b);
        for l in 0..b.ncols() {
            let rel = r.col_norm(l) / b.col_norm(l);
            assert!(rel <= rtol * 50.0, "column {l}: {rel}");
        }
    }

    #[test]
    fn pseudo_gmres_matches_sequential_iteration_counts() {
        let prob = poisson2d::<f64>(12, 12);
        let n = prob.a.nrows();
        let id = IdentityPrecond::new(n);
        let b = paper_rhs_block::<f64>(12, 12);
        let opts = SolveOpts {
            rtol: 1e-8,
            restart: 20,
            ..Default::default()
        };
        let mut xp = DMat::zeros(n, 4);
        let pres = solve(&prob.a, &id, &b, &mut xp, &opts, PseudoMethod::Gmres, None);
        assert!(pres.converged);
        check_true_residual(&prob.a, &b, &xp, 1e-8);
        // Sequential single-RHS solves must see identical iteration counts —
        // the fusion changes scheduling, not numerics.
        for l in 0..4 {
            let bl = DMat::from_col_major(n, 1, b.col(l).to_vec());
            let mut xl = DMat::zeros(n, 1);
            let r = crate::gmres::solve(&prob.a, &id, &bl, &mut xl, &opts);
            assert_eq!(
                r.iterations, pres.per_rhs[l].iterations,
                "RHS {l}: fused {} vs sequential {}",
                pres.per_rhs[l].iterations, r.iterations
            );
        }
    }

    #[test]
    fn pseudo_gcrodr_recycles_per_rhs() {
        let prob = poisson2d::<f64>(14, 14);
        let n = prob.a.nrows();
        let id = IdentityPrecond::new(n);
        let b = paper_rhs_block::<f64>(14, 14);
        let opts = SolveOpts {
            rtol: 1e-8,
            restart: 15,
            recycle: 5,
            same_system: true,
            ..Default::default()
        };
        let mut ctxs: Vec<SolverContext<f64>> = Vec::new();
        let mut x1 = DMat::zeros(n, 4);
        let r1 = solve(
            &prob.a,
            &id,
            &b,
            &mut x1,
            &opts,
            PseudoMethod::GcroDr,
            Some(&mut ctxs),
        );
        assert!(r1.converged);
        check_true_residual(&prob.a, &b, &x1, 1e-8);
        // Second solve of the same systems: recycling must cut iterations.
        let mut x2 = DMat::zeros(n, 4);
        let r2 = solve(
            &prob.a,
            &id,
            &b,
            &mut x2,
            &opts,
            PseudoMethod::GcroDr,
            Some(&mut ctxs),
        );
        assert!(r2.converged);
        check_true_residual(&prob.a, &b, &x2, 1e-8);
        assert!(
            r2.iterations < r1.iterations,
            "pseudo-BGCRO-DR recycling: {} !< {}",
            r2.iterations,
            r1.iterations
        );
    }

    #[test]
    fn early_convergence_shrinks_batch_without_deadlock() {
        let prob = poisson2d::<f64>(10, 10);
        let n = prob.a.nrows();
        let id = IdentityPrecond::new(n);
        // Column 0 trivial (zero RHS → converges immediately), column 1 hard.
        let mut b = DMat::zeros(n, 2);
        for i in 0..n {
            b[(i, 1)] = 1.0 + ((i * 3) % 7) as f64;
        }
        let opts = SolveOpts {
            rtol: 1e-9,
            restart: 10,
            ..Default::default()
        };
        let mut x = DMat::zeros(n, 2);
        let res = solve(&prob.a, &id, &b, &mut x, &opts, PseudoMethod::Gmres, None);
        assert!(res.converged);
        assert_eq!(res.per_rhs[0].iterations, 0);
        assert!(res.per_rhs[1].iterations > 0);
    }

    #[test]
    fn single_member_group_degenerates_gracefully() {
        let prob = poisson2d::<f64>(8, 8);
        let n = prob.a.nrows();
        let id = IdentityPrecond::new(n);
        let b = DMat::from_fn(n, 1, |i, _| (i % 3) as f64);
        let mut x = DMat::zeros(n, 1);
        let res = solve(
            &prob.a,
            &id,
            &b,
            &mut x,
            &SolveOpts::default(),
            PseudoMethod::Gmres,
            None,
        );
        assert!(res.converged);
    }
}
