//! The restarted solve: the one loop under GMRES, LGMRES and GCRO-DR, and
//! under their pseudo-block forms.
//!
//! A restarted method is a sequence of Arnoldi cycles, each followed by a
//! least-squares correction and a look at the true residual. The three
//! methods differ in what a cycle is *augmented* with and in what it leaves
//! for the next one — an [`Augmentation`]:
//!
//! | method  | a cycle is                                  | the correction adds       | carried over                     |
//! |---------|---------------------------------------------|---------------------------|----------------------------------|
//! | GMRES   | `m` Arnoldi steps                           | —                         | —                                |
//! | LGMRES  | `m − k` steps, then one per stored `A·z_i`  | the stored `z_i`'s share  | the correction as the newest pair |
//! | GCRO-DR | steps kept orthogonal to `C`                | `U·(CᴴR − E·y)`           | `(U, C)`, extracted or refreshed |
//!
//! [`solve_lanes`] owns everything else: the initial residual and the early
//! exit, the [`BlockArnoldi`] of a cycle and its steps, the iteration and
//! diagnostic events, the `max_iters` cap, the spans, and the verdict. The
//! policy is consulted per cycle, never inside a step.
//!
//! # Lanes
//!
//! A solve runs *lanes*: right-hand-side blocks, each with its own policy,
//! cycle storage, residual and iteration count. A block solve is one lane
//! of width `p`; a pseudo-block solve (§V-B1) is `p` lanes of width 1. The
//! lanes share each cycle in lock-step: the ones that can still step hand in
//! their `V_j`, one preconditioner and one operator apply run over those
//! columns side by side (in place for one lane), and each lane
//! orthogonalizes its own slice. A lane whose estimate is met, or whose plan
//! is used up, waits for the end of the cycle; the true residuals are one
//! batched apply, and converged lanes leave. Each lane does exactly the
//! arithmetic of its single-RHS solve.
//!
//! Reductions are counted as they happen: one lane into the solve's
//! counters, several into their own, merged at every lock-step (`ship`).
//! Each lock-step is one iteration event with every column's residual.

use crate::cycle::{any_above, rhs_norms, BlockArnoldi, CycleBuffers, PrecondMode};
use crate::opts::{SolveOpts, SolveResult};
use crate::trace::SolveTracer;
use kryst_dense::fused::{self, ColsRef};
use kryst_dense::DMat;
use kryst_obs::{DiagKind, SpanKind};
use kryst_par::{CommStats, LinOp, PrecondOp};
use kryst_scalar::Scalar;
use kryst_sparse::Workspace;
use std::slice::{from_ref, ChunksExact};
use std::sync::Arc;

/// The solve as a policy sees it at one of its hooks.
pub(crate) struct Cx<'c, S: Scalar> {
    pub a: &'c dyn LinOp<S>,
    pub mode: &'c PrecondMode<'c, S>,
    /// The lane's options: the solve's, with the lane's own counters when
    /// it shares the solve with other lanes.
    pub opts: &'c SolveOpts,
    pub tracer: &'c SolveTracer,
    /// The cycle the hook belongs to.
    pub cycle: usize,
}

/// What a policy asks of the next cycle.
pub(crate) struct Plan<'p, S: Scalar> {
    /// The block the basis must stay orthogonal to.
    pub c: Option<&'p DMat<S>>,
    /// Arnoldi steps through the operator.
    pub steps: usize,
    /// Stored operator images, `n × p` each: one further step per image,
    /// which costs no operator apply ([`BlockArnoldi::step_with_image`]).
    pub images: ChunksExact<'p, S>,
    /// Whether the work between the cycle and the true residual is reported
    /// as a `Restart` span. The cold first cycle of GCRO-DR reports its
    /// extraction (`Eigensolve`) and nothing else.
    pub restart_span: bool,
}

impl<'p, S: Scalar> Plan<'p, S> {
    /// A cycle of `steps` Arnoldi steps and no stored image, kept orthogonal
    /// to `c`, with its restart reported.
    pub fn arnoldi(c: Option<&'p DMat<S>>, steps: usize) -> Self {
        let none: &[S] = &[];
        Plan {
            c,
            steps,
            images: none.chunks_exact(1),
            restart_span: true,
        }
    }
}

/// How a cycle ended.
pub(crate) struct CycleEnd<S: Scalar> {
    /// The cycle's storage: `V`, `Z`, `H̄` and `E` where it left them.
    pub bufs: CycleBuffers<S>,
    /// Steps taken, at least one.
    pub j: usize,
    /// How many of them went through the operator (they come first, and
    /// their directions are [`CycleBuffers::directions`]).
    pub own: usize,
    /// Least-squares coefficients of the `j` steps.
    pub y: DMat<S>,
    /// Whether the least-squares estimates met the tolerance.
    pub estimate_met: bool,
}

impl<S: Scalar> CycleEnd<S> {
    /// `x += Z·y` over the directions of the cycle's own steps.
    pub fn add_own_directions(&self, x: &mut DMat<S>) {
        let z = ColsRef::blocks(self.bufs.directions(self.own));
        fused::fused_accumulate(&[z], from_ref(&self.y), x);
    }
}

/// What a restarted method adds to a cycle and keeps from it.
pub(crate) trait Augmentation<S: Scalar> {
    /// Once, when the initial residual is above the tolerance; may move a
    /// part of the residual `r` into `x`.
    fn prologue(&mut self, _cx: &Cx<'_, S>, _x: &mut DMat<S>, _r: &mut DMat<S>) {}

    /// Plans the next cycle, which starts from `r`.
    fn prepare<'p>(&'p mut self, cx: &Cx<'_, S>, r: &mut DMat<S>) -> Plan<'p, S>;

    /// `x += ` the cycle's correction: its own directions and the policy's
    /// share.
    fn correct(&mut self, _cx: &Cx<'_, S>, end: &mut CycleEnd<S>, x: &mut DMat<S>) {
        end.add_own_directions(x);
    }

    /// After the true residual of the corrected `x`, when it is finite:
    /// what the next cycle, or the next solve, gets from this one.
    fn carry_over(&mut self, _cx: &Cx<'_, S>, _end: &CycleEnd<S>, _converged: bool) {}
}

/// A right-hand-side block of a solve and the policy that runs it; `x`
/// holds the initial guess on entry and the solution on exit.
pub(crate) struct Lane<'l, S: Scalar> {
    pub b: &'l DMat<S>,
    pub x: &'l mut DMat<S>,
    pub policy: &'l mut dyn Augmentation<S>,
}

/// A lane as the loop runs it, but for its policy.
struct Track<'l, S: Scalar> {
    b: &'l DMat<S>,
    x: &'l mut DMat<S>,
    /// The solve's options, with the lane's own counters when it shares the
    /// solve with other lanes.
    opts: SolveOpts,
    bnorms: Vec<f64>,
    /// The lane's first column on the solve's iteration events.
    col0: usize,
    /// Storage handed from cycle to cycle.
    bufs: CycleBuffers<S>,
    /// Residual of the current `x`, its norms and what they say. A
    /// non-finite norm is above no tolerance, so `any_above` alone would let
    /// the finite columns of a block keep the loop going: the lane stops on
    /// the first one that is not a number.
    r: DMat<S>,
    rn: Vec<f64>,
    converged: bool,
    finite: bool,
    iters: usize,
    history: Vec<Vec<f64>>,
}

impl<S: Scalar> Track<'_, S> {
    fn live(&self, max_iters: usize) -> bool {
        !self.converged && self.finite && self.iters < max_iters
    }

    /// The norms of `r`, shown in `row`, and what they say; the tolerance
    /// test only with `rtol`.
    fn judge(&mut self, rtol: Option<f64>, row: &mut [f64]) {
        self.rn = self.r.col_norms();
        if let Some(rtol) = rtol {
            self.converged = !any_above(&self.rn, &self.bnorms, rtol);
        }
        self.finite = self.rn.iter().all(|v| v.is_finite());
        let rel = relative(&self.rn, &self.bnorms);
        row[self.col0..][..rel.len()].copy_from_slice(&rel);
    }
}

/// One lane's share of a cycle.
struct Run<'r, 'l, S: Scalar> {
    track: &'r mut Track<'l, S>,
    plan: Plan<'r, S>,
    arn: BlockArnoldi<'r, S>,
    /// Cleared when the least-squares estimates meet the tolerance.
    stepping: bool,
}

impl<S: Scalar> Run<'_, '_, S> {
    fn can_step(&self, max_iters: usize) -> bool {
        self.stepping && self.arn.can_step() && self.track.iters < max_iters
    }

    /// Whether the next step goes through the operator, not a stored image.
    fn on_operator(&self) -> bool {
        self.arn.iterations() < self.plan.steps
    }

    /// Counts a step with estimates `res`, in the lane's history and `row`;
    /// the lane stops stepping once they meet the tolerance (the true
    /// residual decides afterwards: wide blocks with rank-revealing fixups
    /// can make the estimates optimistic). Returns the rank the step left.
    fn count(&mut self, res: &[f64], rtol: f64, row: &mut [f64]) -> usize {
        let t = &mut *self.track;
        let rel = relative(res, &t.bnorms);
        row[t.col0..][..rel.len()].copy_from_slice(&rel);
        t.history.push(rel);
        t.iters += 1;
        self.stepping = any_above(res, &t.bnorms, rtol);
        let first = self.arn.iterations() == 1;
        self.arn.breakdown_rank(first).unwrap_or(res.len())
    }

    /// The cycle's end, and whether its restart is reported.
    fn end(self) -> (CycleEnd<S>, bool) {
        let j = self.arn.iterations();
        let end = CycleEnd {
            j,
            own: j.min(self.plan.steps),
            y: self.arn.solve_y(),
            estimate_met: !self.stepping,
            bufs: self.arn.into_buffers(),
        };
        (end, self.plan.restart_span)
    }
}

/// Residual norms relative to the right-hand sides'.
fn relative(rn: &[f64], bnorms: &[f64]) -> Vec<f64> {
    rn.iter().zip(bnorms).map(|(r, b)| r / b).collect()
}

/// The blocks side by side in `out`.
fn gather<'b, S: Scalar + 'b>(blocks: impl Iterator<Item = &'b DMat<S>>, out: &mut DMat<S>) {
    let mut off = 0;
    for blk in blocks {
        let len = blk.as_slice().len();
        out.as_mut_slice()[off..off + len].copy_from_slice(blk.as_slice());
        off += len;
    }
}

/// What the lanes reduced since the last call, shipped as the messages of
/// one schedule: the `k`-th reduction of every lane is one message, so the
/// count is the maximum over the lanes, and parts and bytes add up.
fn ship(own: &[Arc<CommStats>], to: Option<&CommStats>) {
    let (mut count, mut parts, mut bytes) = (0, 0, 0);
    for lane in own {
        let d = lane.snapshot();
        lane.reset();
        count = count.max(d.reductions);
        parts += d.fused_parts;
        bytes += d.reduction_bytes;
    }
    if let Some(to) = to.filter(|_| count > 0) {
        to.record_fused_reductions(count as usize, parts as usize, bytes as usize);
    }
}

/// The true residuals of the lanes' `x`, each into the lane's `r`: in place
/// for one lane (its old `r` goes back to `ws`), else one batched apply over
/// the columns of all of them.
fn true_residuals<S: Scalar>(
    (a, mode): (&dyn LinOp<S>, &PrecondMode<'_, S>),
    lanes: &mut [&mut Track<'_, S>],
    ws: &mut Workspace<S>,
) {
    if let [t] = lanes {
        ws.put(std::mem::replace(&mut t.r, DMat::zeros(0, 0)));
        t.r = mode.residual_ws(a, t.b, t.x, ws);
        return;
    }
    let n = a.nrows();
    let q = lanes.iter().map(|t| t.b.ncols()).sum();
    let (mut b, mut x) = (ws.take_stale(n, q), ws.take_stale(n, q));
    gather(lanes.iter().map(|t| t.b), &mut b);
    gather(lanes.iter().map(|t| &*t.x), &mut x);
    let r = mode.residual_ws(a, &b, &x, ws);
    let mut off = 0;
    for t in lanes.iter_mut() {
        let len = t.r.as_slice().len();
        t.r.as_mut_slice()
            .copy_from_slice(&r.as_slice()[off..off + len]);
        off += len;
    }
    for m in [b, x, r] {
        ws.put(m);
    }
}

/// What the lanes of a solve share: its events, their counters, the row
/// of residuals the events show, the storage of the batched applies.
struct Shared<S: Scalar> {
    tracer: SolveTracer,
    /// The lanes' own counters, when several lanes are counted (see
    /// [`ship`]).
    own: Vec<Arc<CommStats>>,
    /// Every column's latest residual.
    row: Vec<f64>,
    pool: Workspace<S>,
    cycle: usize,
}

impl<S: Scalar> Shared<S> {
    /// The steps of a cycle, in lock-step, until no lane can step: per
    /// lock-step, one operator (and preconditioner) apply over the columns
    /// of the lanes that step through it, in place when one does, then one
    /// iteration event. Steps on stored images take no apply.
    fn lock_steps(
        &mut self,
        runs: &mut [Run<'_, '_, S>],
        (a, mode): (&dyn LinOp<S>, &PrecondMode<'_, S>),
        opts: &SolveOpts,
    ) {
        let (n, row) = (a.nrows(), &mut self.row[..]);
        loop {
            let stepping: Vec<usize> = (0..runs.len())
                .filter(|&i| runs[i].can_step(opts.max_iters))
                .collect();
            if stepping.is_empty() {
                return;
            }
            let mut rank = row.len();
            let (ops, images): (Vec<usize>, Vec<usize>) =
                stepping.iter().partition(|&&i| runs[i].on_operator());
            if let [i] = ops[..] {
                let res = runs[i].arn.step();
                rank -= res.len() - runs[i].count(&res, opts.rtol, row);
            } else if !ops.is_empty() {
                let q = ops.iter().map(|&i| runs[i].arn.step_input().ncols()).sum();
                let mut v = self.pool.take_stale(n, q);
                gather(ops.iter().map(|&i| runs[i].arn.step_input()), &mut v);
                let right = matches!(mode, PrecondMode::Right(_));
                let mut z = right.then(|| self.pool.take_stale(n, q));
                let mut w = self.pool.take_stale(n, q);
                mode.step_images(a, &v, z.as_mut(), &mut w, &mut self.pool);
                let mut off = 0;
                for &i in &ops {
                    let cols = off..off + runs[i].arn.step_input().as_slice().len();
                    let zi = z.as_ref().map_or(&[][..], |z| &z.as_slice()[cols.clone()]);
                    let res = runs[i].arn.finish_step(zi, &w.as_slice()[cols.clone()]);
                    rank -= res.len() - runs[i].count(&res, opts.rtol, row);
                    off = cols.end;
                }
                for m in [Some(v), Some(w), z].into_iter().flatten() {
                    self.pool.put(m);
                }
            }
            for i in images {
                let run = &mut runs[i];
                let image = run.plan.images.next().expect("one image per further step");
                let res = run.arn.step_with_image(image);
                rank -= res.len() - run.count(&res, opts.rtol, row);
            }
            ship(&self.own, opts.stats.as_deref());
            let iter = self.tracer.iterations();
            let breakdown = (rank < row.len()).then_some(rank);
            (self.tracer).iteration(self.cycle, iter, row.to_vec(), breakdown);
            for arn in stepping.iter().map(|&i| &runs[i].arn) {
                if arn.last_orth_passes() > 1 || arn.last_orth_refreshed() {
                    // The fused path's amp² budget forced a second pass (or a
                    // rank-revealing refresh): surface the running loss.
                    let (loss, passes) = (arn.fused_loss(), arn.last_orth_passes());
                    (self.tracer).diag(self.cycle, iter, DiagKind::OrthLoss, loss, passes);
                }
            }
        }
    }
}

/// Solve `A·X = B` with one lane under `policy`; see [`solve_lanes`].
pub(crate) fn solve<S: Scalar>(
    a: &dyn LinOp<S>,
    pc: &dyn PrecondOp<S>,
    b: &DMat<S>,
    x: &mut DMat<S>,
    opts: &SolveOpts,
    name: (&'static str, usize),
    policy: &mut dyn Augmentation<S>,
) -> SolveResult {
    let lane = Lane { b, x, policy };
    let mut res = solve_lanes(a, pc, opts, name, vec![lane]);
    res.pop().expect("one lane")
}

/// Solve `A·X = B` for every lane by restarted cycles under its policy; the
/// events carry the solver's name and the system's index in its sequence.
pub(crate) fn solve_lanes<S: Scalar>(
    a: &dyn LinOp<S>,
    pc: &dyn PrecondOp<S>,
    opts: &SolveOpts,
    (solver, system_index): (&'static str, usize),
    lanes: Vec<Lane<'_, S>>,
) -> Vec<SolveResult> {
    let mode = PrecondMode::new(pc, opts.side);
    let op = (a, &mode);
    let width = lanes.iter().map(|l| l.b.ncols()).sum();
    let mut sh = Shared {
        tracer: SolveTracer::begin(opts, solver, system_index, a.nrows(), width),
        own: match opts.stats {
            Some(_) if lanes.len() > 1 => lanes.iter().map(|_| CommStats::new_shared()).collect(),
            _ => Vec::new(),
        },
        row: vec![0.0; width],
        pool: Workspace::new(),
        cycle: 0,
    };
    let mut col0 = 0;
    let (mut tracks, mut policies): (Vec<Track<'_, S>>, Vec<_>) = (lanes.into_iter())
        .enumerate()
        .map(|(l, Lane { b, x, policy })| {
            let stats = sh.own.get(l).cloned().or_else(|| opts.stats.clone());
            col0 += b.ncols();
            let track = Track {
                opts: SolveOpts {
                    stats,
                    ..opts.clone()
                },
                bnorms: rhs_norms(b),
                col0: col0 - b.ncols(),
                bufs: CycleBuffers::default(),
                r: DMat::zeros(b.nrows(), b.ncols()),
                rn: Vec::new(),
                converged: false,
                finite: true,
                iters: 0,
                history: Vec::new(),
                b,
                x,
            };
            (track, policy)
        })
        .unzip();
    macro_rules! cx {
        ($t:expr) => {
            &Cx {
                a,
                mode: &mode,
                opts: &$t.opts,
                tracer: &sh.tracer,
                cycle: sh.cycle,
            }
        };
    }

    true_residuals(op, &mut tracks.iter_mut().collect::<Vec<_>>(), &mut sh.pool);
    for (t, policy) in tracks.iter_mut().zip(&mut policies) {
        t.judge(Some(opts.rtol), &mut sh.row);
        if !t.converged && t.finite {
            policy.prologue(cx!(t), t.x, &mut t.r);
            // It may have moved a part of `r` into `x`; should `max_iters`
            // allow no cycle, these are the norms the verdict reports.
            t.judge(None, &mut sh.row);
        }
    }
    while tracks.iter().any(|t| t.live(opts.max_iters)) {
        let cyc = sh.tracer.span_start(SpanKind::Cycle, opts.stats.as_ref());
        let mut lanes: Vec<_> = (tracks.iter_mut().zip(&mut policies))
            .filter(|(t, _)| t.live(opts.max_iters))
            .collect();
        let mut runs: Vec<Run<'_, '_, S>> = (lanes.iter_mut())
            .map(|(t, policy)| {
                let plan = policy.prepare(cx!(t), &mut t.r);
                let (length, p) = (plan.steps + plan.images.len(), t.r.ncols());
                let stats = t.opts.stats.clone();
                let mut arn = BlockArnoldi::new(a, &mode, length, p, plan.c, stats)
                    .with_buffers(std::mem::take(&mut t.bufs));
                arn.start(&t.r);
                Run {
                    track: t,
                    plan,
                    arn,
                    stepping: true,
                }
            })
            .collect();
        sh.lock_steps(&mut runs, op, opts);
        let mut ends: Vec<(CycleEnd<S>, bool)> = runs.into_iter().map(Run::end).collect();
        sh.tracer.span_end(cyc, sh.cycle);

        // Apply the corrections, recompute the true residuals.
        for ((t, policy), (end, restart_span)) in lanes.iter_mut().zip(&mut ends) {
            let restart = restart_span.then(|| {
                sh.tracer
                    .span_start(SpanKind::Restart, t.opts.stats.as_ref())
            });
            policy.correct(cx!(t), end, t.x);
            if let Some(probe) = restart {
                sh.tracer.span_end(probe, sh.cycle);
            }
        }
        let ws = match &mut ends[..] {
            [(end, _)] => &mut end.bufs.ws,
            _ => &mut sh.pool,
        };
        true_residuals(
            op,
            &mut lanes.iter_mut().map(|l| &mut *l.0).collect::<Vec<_>>(),
            ws,
        );
        // Convergence is decided on the TRUE residual; the in-cycle
        // estimate only ends the cycle early.
        for ((t, policy), (end, _)) in lanes.into_iter().zip(ends) {
            t.judge(Some(opts.rtol), &mut sh.row);
            // A lane whose residual is not a number stops here, and its
            // policy keeps what it had before this cycle.
            if t.finite {
                policy.carry_over(cx!(t), &end, t.converged);
            }
            t.bufs = end.bufs;
        }
        sh.cycle += 1;
    }

    // The verdict, on the true residual: a non-finite norm is above no
    // tolerance in the tests that ended the loop, and passes none here.
    ship(&sh.own, opts.stats.as_deref());
    let results: Vec<SolveResult> = (tracks.into_iter())
        .map(|t| {
            let final_relres = relative(&t.rn, &t.bnorms);
            SolveResult {
                iterations: t.iters,
                converged: t.converged && final_relres.iter().all(|&v| v <= opts.rtol * 10.0),
                history: t.history,
                final_relres,
            }
        })
        .collect();
    let final_relres: Vec<f64> = (results.iter())
        .flat_map(|r| r.final_relres.iter().copied())
        .collect();
    (sh.tracer).finish(results.iter().all(|r| r.converged), &final_relres);
    results
}

#[cfg(test)]
mod tests {
    use crate::{gcrodr, gmres, lgmres, SolveOpts, SolveResult, SolverContext};
    use kryst_dense::DMat;
    use kryst_obs::{diags_of, DiagKind, Recorder, RingRecorder};
    use kryst_par::IdentityPrecond;
    use kryst_pde::poisson::poisson2d;
    use std::sync::Arc;

    /// The cap falls inside a cycle of every method (none has cycles that
    /// end at 17, 29 or 41 iterations with `restart = 12`, `recycle = 3`),
    /// and a zero right-hand side needs no cycle at all. The steps come from
    /// one loop, so every method reports the second orthogonalization passes
    /// this tolerance forces.
    #[test]
    fn max_iters_cuts_a_cycle_short_and_a_zero_rhs_needs_none() {
        let prob = poisson2d::<f64>(24, 24);
        let n = prob.a.nrows();
        let id = IdentityPrecond::new(n);
        let b = DMat::from_fn(n, 1, |i, _| (((i * 7) % 11) as f64) - 5.0);
        let zero = DMat::zeros(n, 1);
        let ring = Arc::new(RingRecorder::new(4096));
        let opts = |max_iters| SolveOpts {
            rtol: 1e-14,
            restart: 12,
            recycle: 3,
            max_iters,
            recorder: Some(ring.clone() as Arc<dyn Recorder>),
            ..Default::default()
        };
        // A warm context: the pair one uncapped cycle leaves behind.
        let warm = || {
            let mut ctx = SolverContext::new();
            let unrecorded = SolveOpts {
                recorder: None,
                ..opts(12)
            };
            gcrodr::solve(
                &prob.a,
                &id,
                &b,
                &mut DMat::zeros(n, 1),
                &unrecorded,
                &mut ctx,
            );
            assert!(ctx.recycle.is_some());
            ctx
        };
        type Method<'a> = &'a dyn Fn(&DMat<f64>, &mut DMat<f64>, &SolveOpts) -> SolveResult;
        let methods: [(&str, Method<'_>); 4] = [
            ("gmres", &|b, x, o| gmres::solve(&prob.a, &id, b, x, o)),
            ("lgmres", &|b, x, o| lgmres::solve(&prob.a, &id, b, x, o)),
            ("cold gcrodr", &|b, x, o| {
                gcrodr::solve(&prob.a, &id, b, x, o, &mut SolverContext::new())
            }),
            ("warm gcrodr", &|b, x, o| {
                gcrodr::solve(&prob.a, &id, b, x, o, &mut warm())
            }),
        ];
        for (name, method) in methods {
            for cap in [17, 29, 41] {
                let mut x = DMat::zeros(n, 1);
                ring.clear();
                let res = method(&b, &mut x, &opts(cap));
                let orth_loss = diags_of(&ring.events(), DiagKind::OrthLoss).len();
                assert!(orth_loss > 0, "{name}, cap {cap}: no OrthLoss reported");
                assert!(!res.converged, "{name}, cap {cap}");
                assert_eq!(res.iterations, cap, "{name}");
                assert_eq!(res.history.len(), cap, "{name}");
                // The cycle the cap cut short still applied its correction.
                let mut r = prob.a.apply(&x);
                r.axpy(-1.0, &b);
                let true_relres = r.fro_norm() / b.fro_norm();
                assert!(
                    (true_relres - res.final_relres[0]).abs() < 1e-12,
                    "{name}, cap {cap}: reported {:e}, true {true_relres:e}",
                    res.final_relres[0]
                );
                assert!(res.final_relres[0] < res.history[cap - 3][0], "{name}");
            }
            let mut x = DMat::zeros(n, 1);
            let res = method(&zero, &mut x, &opts(41));
            assert!(res.converged, "{name}: zero right-hand side");
            assert_eq!(res.iterations, 0, "{name}");
            assert!(res.history.is_empty(), "{name}");
        }
    }

    /// A NaN in one right-hand side ends the solve before its first cycle at
    /// every block width: no iteration, `x` as it came in, not converged.
    /// At `p = 2` the finite column alone must not keep the loop going.
    #[test]
    fn a_nan_right_hand_side_stops_before_the_first_cycle() {
        let prob = poisson2d::<f64>(16, 16);
        let n = prob.a.nrows();
        let id = IdentityPrecond::new(n);
        let opts = SolveOpts {
            max_iters: 60,
            ..Default::default()
        };
        let bits =
            |m: &DMat<f64>| -> Vec<u64> { m.as_slice().iter().map(|v| v.to_bits()).collect() };
        type Method<'a> = &'a dyn Fn(&DMat<f64>, &mut DMat<f64>) -> SolveResult;
        let methods: [(&str, Method<'_>); 3] = [
            ("gmres", &|b, x| gmres::solve(&prob.a, &id, b, x, &opts)),
            ("lgmres", &|b, x| lgmres::solve(&prob.a, &id, b, x, &opts)),
            ("cold gcrodr", &|b, x| {
                gcrodr::solve(&prob.a, &id, b, x, &opts, &mut SolverContext::new())
            }),
        ];
        for p in [1, 2] {
            let mut b = DMat::from_fn(n, p, |i, j| (((i * 7 + j) % 11) as f64) - 5.0);
            b[(n / 2, p - 1)] = f64::NAN;
            let x0 = DMat::from_fn(n, p, |i, j| ((i + 3 * j) % 5) as f64 * 0.25);
            // LGMRES is a single right-hand-side method.
            for (name, method) in methods.iter().filter(|m| p == 1 || m.0 != "lgmres") {
                let mut x = x0.clone();
                let res = method(&b, &mut x);
                assert!(!res.converged, "{name}, p = {p}");
                assert_eq!(res.iterations, 0, "{name}, p = {p}");
                assert_eq!(bits(&x), bits(&x0), "{name}, p = {p}: x was written");
            }
        }
    }
}
