//! The restarted solve: the one loop under GMRES, LGMRES and GCRO-DR.
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
//! [`solve`] owns everything else: the initial residual and the early exit,
//! the one [`BlockArnoldi`] of a cycle and its steps, the iteration and
//! diagnostic events, the `max_iters` cap, the spans, and the verdict. The
//! policy is consulted per cycle, never inside a step.

use crate::cycle::{any_above, rhs_norms, BlockArnoldi, CycleBuffers, PrecondMode};
use crate::opts::{SolveOpts, SolveResult};
use crate::trace::SolveTracer;
use kryst_dense::fused::{self, ColsRef};
use kryst_dense::DMat;
use kryst_obs::{DiagKind, SpanKind};
use kryst_par::{LinOp, PrecondOp};
use kryst_scalar::{Real, Scalar};
use std::slice::{from_ref, ChunksExact};

/// The solve as a policy sees it at one of its hooks.
pub(crate) struct Cx<'c, S: Scalar> {
    pub a: &'c dyn LinOp<S>,
    pub mode: &'c PrecondMode<'c, S>,
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

    /// After the true residual of the corrected `x`: what the next cycle,
    /// or the next solve, gets from this one.
    fn carry_over(&mut self, _cx: &Cx<'_, S>, _end: &CycleEnd<S>, _converged: bool) {}
}

/// Column norms of a residual block.
fn norms<S: Scalar>(r: &DMat<S>) -> Vec<f64> {
    r.col_norms().iter().map(|v| v.to_f64()).collect()
}

/// Whether every residual norm is a number: the restarted loop stops on the
/// first one that is not.
fn all_finite(rn: &[f64]) -> bool {
    rn.iter().all(|v| v.is_finite())
}

/// Residual norms relative to the right-hand sides'.
fn relative(rn: &[f64], bnorms: &[f64]) -> Vec<f64> {
    rn.iter().zip(bnorms).map(|(r, b)| r / b).collect()
}

/// Steps the cycle `arn` was started on — through the operator, then on the
/// plan's stored images — until it is full or `max_iters` is reached.
/// Returns early, with `true`, when the least-squares estimates meet the
/// tolerance: the true residual decides afterwards (wide blocks with
/// rank-revealing fixups can make the estimates optimistic).
fn run_cycle<S: Scalar>(
    arn: &mut BlockArnoldi<'_, S>,
    plan: &mut Plan<'_, S>,
    tracer: &mut SolveTracer,
    iters: &mut usize,
    cycle: usize,
    bnorms: &[f64],
    opts: &SolveOpts,
) -> bool {
    while arn.can_step() && *iters < opts.max_iters {
        let first = arn.iterations() == 0;
        let res = if arn.iterations() < plan.steps {
            arn.step()
        } else {
            arn.step_with_image(plan.images.next().expect("one image per further step"))
        };
        *iters += 1;
        tracer.iteration(
            cycle,
            *iters - 1,
            relative(&res, bnorms),
            opts.orth.name(),
            arn.breakdown_rank(first),
        );
        if arn.last_orth_passes() > 1 || arn.last_orth_refreshed() {
            // The fused path's amp² budget forced a second pass (or a
            // rank-revealing refresh): surface the running loss estimate.
            tracer.diag(
                cycle,
                *iters - 1,
                DiagKind::OrthLoss,
                arn.fused_loss(),
                arn.last_orth_passes(),
            );
        }
        if !any_above(&res, bnorms, opts.rtol) {
            return true;
        }
    }
    false
}

/// Solve `A·X = B` by restarted cycles under `policy`; the events carry the
/// solver's name and the system's index in its sequence. `x` holds the
/// initial guess on entry and the solution on exit.
pub(crate) fn solve<S: Scalar>(
    a: &dyn LinOp<S>,
    pc: &dyn PrecondOp<S>,
    b: &DMat<S>,
    x: &mut DMat<S>,
    opts: &SolveOpts,
    (solver, system_index): (&'static str, usize),
    policy: &mut dyn Augmentation<S>,
) -> SolveResult {
    let (n, p) = (a.nrows(), b.ncols());
    let mode = PrecondMode::new(pc, opts.side);
    let bnorms = rhs_norms(b);
    let mut tracer = SolveTracer::begin(opts, solver, system_index, n, p);

    // Storage shared by every cycle: basis, directions, Hessenberg matrix
    // and the n × p temporaries are allocated once per solve.
    let mut bufs = CycleBuffers::default();
    let mut r = mode.residual_ws(a, b, x, &mut bufs.ws);
    // Norms of the true residual of the current `x`, and what they say. A
    // non-finite norm is above no tolerance, so `any_above` alone would let
    // the finite columns of a block keep the loop going: it stops on one.
    let mut rn = norms(&r);
    let mut converged = !any_above(&rn, &bnorms, opts.rtol);
    let mut finite = all_finite(&rn);
    let (mut iters, mut cycle) = (0usize, 0usize);
    macro_rules! cx {
        () => {
            &Cx {
                a,
                mode: &mode,
                opts,
                tracer: &tracer,
                cycle,
            }
        };
    }

    if !converged && finite {
        policy.prologue(cx!(), x, &mut r);
        // It may have moved a part of `r` into `x`; should `max_iters` allow
        // no cycle, these are the norms the verdict reports.
        rn = norms(&r);
        finite = all_finite(&rn);
    }
    while !converged && finite && iters < opts.max_iters {
        let cyc = tracer.span_start(SpanKind::Cycle);
        let mut plan = policy.prepare(cx!(), &mut r);
        let length = plan.steps + plan.images.len();
        let stats = opts.stats.as_deref();
        let mut arn = BlockArnoldi::new(a, &mode, length, p, opts.orth, plan.c, stats)
            .with_buffers(std::mem::take(&mut bufs));
        arn.start(&r);
        let estimate_met = run_cycle(
            &mut arn,
            &mut plan,
            &mut tracer,
            &mut iters,
            cycle,
            &bnorms,
            opts,
        );
        tracer.span_end(cyc, cycle);

        // Apply the correction, recompute the true residual.
        let restart = plan
            .restart_span
            .then(|| tracer.span_start(SpanKind::Restart));
        let j = arn.iterations();
        // Handing the buffers over ends the cycle's borrow of the policy.
        let mut end = CycleEnd {
            j,
            own: j.min(plan.steps),
            y: arn.solve_y(),
            estimate_met,
            bufs: arn.into_buffers(),
        };
        policy.correct(cx!(), &mut end, x);
        if let Some(probe) = restart {
            tracer.span_end(probe, cycle);
        }
        end.bufs.ws.put(r);
        r = mode.residual_ws(a, b, x, &mut end.bufs.ws);
        // Convergence is decided on the TRUE residual; the in-cycle estimate
        // only ends the cycle early.
        rn = norms(&r);
        converged = !any_above(&rn, &bnorms, opts.rtol);
        finite = all_finite(&rn);
        policy.carry_over(cx!(), &end, converged);
        bufs = end.bufs;
        cycle += 1;
    }

    // The verdict, on the true residual: a non-finite norm is above no
    // tolerance in the tests that ended the loop, and passes none here.
    let final_relres = relative(&rn, &bnorms);
    let converged = converged && final_relres.iter().all(|&v| v <= opts.rtol * 10.0);
    let history = tracer.finish(converged, &final_relres);
    SolveResult {
        iterations: iters,
        converged,
        history,
        final_relres,
    }
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
