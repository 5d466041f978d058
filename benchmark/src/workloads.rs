//! The four workloads: inputs from a seed, and one repetition of each.
//!
//! A repetition is the full cycle a user pays for: assemble the matrices,
//! set the preconditioners up, then run the workload's whole sequence of
//! solves. The program receives only the generated matrices and right-hand
//! sides; every answer is checked by `check::residual` outside the timed
//! region.

use crate::api::{self, AmgSmoother, CommCounts, Config, Counters, Csr, DMat, EventRing};
use crate::api::{Inclusion, Json, LinOp, Outcome, PrecondOp, Scalar, Side};
use crate::check::{self, RawCsr};
use crate::trace::{Layer, Tracer, REPETITION, SOLVE};
use std::time::Instant;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    PoissonAmgSeq,
    PoissonJacobiLong,
    MaxwellBlockRhs32,
    ElasticityVaryingSeq,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::PoissonAmgSeq,
        Workload::PoissonJacobiLong,
        Workload::MaxwellBlockRhs32,
        Workload::ElasticityVaryingSeq,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::PoissonAmgSeq => "poisson_amg_seq",
            Workload::PoissonJacobiLong => "poisson_jacobi_long",
            Workload::MaxwellBlockRhs32 => "maxwell_block_rhs32",
            Workload::ElasticityVaryingSeq => "elasticity_varying_seq",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Problem sizes: the measured ones, or toy ones for `--smoke`.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    pub poisson_amg_nx: usize,
    pub poisson_jacobi_nx: usize,
    pub maxwell_nc: usize,
    pub maxwell_subdomains: usize,
    pub elasticity_ne: usize,
}

impl Sizes {
    pub const FULL: Sizes = Sizes {
        poisson_amg_nx: 384,
        poisson_jacobi_nx: 64,
        maxwell_nc: 8,
        maxwell_subdomains: 16,
        elasticity_ne: 14,
    };
    pub const SMOKE: Sizes = Sizes {
        poisson_amg_nx: 48,
        poisson_jacobi_nx: 24,
        maxwell_nc: 4,
        maxwell_subdomains: 4,
        elasticity_ne: 4,
    };
}

/// What a seed generates. Seed 0 gives the paper's exact parameters; any
/// other seed moves them a little, so that the work stays comparable from
/// seed to seed while the inputs differ.
#[derive(Debug, Clone)]
pub enum Inputs {
    PoissonAmg {
        nx: usize,
        nus: Vec<f64>,
    },
    PoissonJacobi {
        nx: usize,
        nus: Vec<f64>,
    },
    Maxwell {
        nc: usize,
        subdomains: usize,
        ring_r: f64,
        ring_z: f64,
    },
    Elasticity {
        ne: usize,
        inclusions: [Inclusion; 4],
    },
}

/// SplitMix64: the benchmark's own generator, so that a seed means the same
/// inputs whatever happens to the program's.
pub struct SplitMix(pub u64);

impl SplitMix {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in [-1, 1).
    pub fn signed_unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 52) as f64 - 1.0
    }
}

/// Relative size of the seeded perturbation of the paper's parameters: large
/// enough that the inputs differ, small enough that the work does not (over
/// twenty seeds the iteration counts moved by at most 0.4 %).
const JITTER: f64 = 0.02;
/// The antennas snap to the nearest mesh edge, so the ring has to move by
/// more than that before a seed changes any right-hand side.
const RING_JITTER: f64 = 0.1;

pub fn inputs(w: Workload, seed: u64, sizes: &Sizes) -> Inputs {
    let mut rng = SplitMix(seed);
    // A deviate in [-1, 1); seed 0 is the paper's exact input, so always 0.
    let mut jitter = move || {
        if seed == 0 {
            0.0
        } else {
            rng.signed_unit()
        }
    };
    let paper_nus = |jitter: &mut dyn FnMut() -> f64| -> Vec<f64> {
        api::PAPER_NUS
            .iter()
            .map(|nu| nu * (1.0 + JITTER * jitter()))
            .collect()
    };
    match w {
        Workload::PoissonAmgSeq => Inputs::PoissonAmg {
            nx: sizes.poisson_amg_nx,
            nus: paper_nus(&mut jitter),
        },
        Workload::PoissonJacobiLong => {
            let mut nus = paper_nus(&mut jitter);
            // Twelve more ν, log-uniform over [1e-3, 1e2] and stratified: one
            // per twelfth of the range, placed inside it by the seed. The
            // iteration count depends on ν, so an unstratified draw would
            // change the amount of work from seed to seed.
            for j in 0..12 {
                let cell = (j as f64 + 0.5 + 0.1 * jitter()) / 12.0;
                nus.push(10f64.powf(-3.0 + 5.0 * cell));
            }
            Inputs::PoissonJacobi {
                nx: sizes.poisson_jacobi_nx,
                nus,
            }
        }
        Workload::MaxwellBlockRhs32 => Inputs::Maxwell {
            nc: sizes.maxwell_nc,
            subdomains: sizes.maxwell_subdomains,
            ring_r: 0.3 * (1.0 + RING_JITTER * jitter()),
            ring_z: 0.55 * (1.0 + RING_JITTER * jitter()),
        },
        Workload::ElasticityVaryingSeq => {
            // The stiffness ratios move, not the centres: an inclusion that
            // moves by 0.02 % of the cube already flips elements in or out,
            // and the iteration count jumps from 1 941 to anything up to
            // 3 200 with the seed.
            let mut inclusions = api::paper_inclusions();
            for inc in &mut inclusions {
                inc.stiffness_ratio *= 1.0 + JITTER * jitter();
            }
            Inputs::Elasticity {
                ne: sizes.elasticity_ne,
                inclusions,
            }
        }
    }
}

impl Inputs {
    pub fn describe(&self) -> Json {
        match self {
            Inputs::PoissonAmg { nx, nus } | Inputs::PoissonJacobi { nx, nus } => Json::obj(vec![
                ("nx", Json::Num(*nx as f64)),
                ("nus", Json::nums(nus.iter().copied())),
            ]),
            Inputs::Maxwell {
                nc,
                subdomains,
                ring_r,
                ring_z,
            } => Json::obj(vec![
                ("nc", Json::Num(*nc as f64)),
                ("subdomains", Json::Num(*subdomains as f64)),
                ("nrhs", Json::Num(32.0)),
                ("ring_r", Json::Num(*ring_r)),
                ("ring_z", Json::Num(*ring_z)),
            ]),
            Inputs::Elasticity { ne, inclusions } => Json::obj(vec![
                ("ne", Json::Num(*ne as f64)),
                (
                    "stiffness_ratios",
                    Json::nums(inclusions.iter().map(|i| i.stiffness_ratio)),
                ),
            ]),
        }
    }
}

/// Which driver ran a solve; the per-driver times of the `core` layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Driver {
    Gmres,
    GcroDr,
    BlockGcroDr,
    PseudoGcroDr,
    Lgmres,
}

/// A solve's part in the workload's recycling comparison: the same systems
/// solved with the same preconditioner, without and with recycling.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Compare {
    No,
    Baseline,
    Recycled,
}

#[derive(Debug, Clone)]
pub struct SolveRec {
    pub driver: Driver,
    pub compare: Compare,
    /// First solve on a fresh recycle space (it has nothing to reuse).
    pub cold: bool,
    pub secs: f64,
    pub iterations: usize,
    pub max_relres: f64,
    pub passed: bool,
}

/// Sizes of the workload's first system, for the per-layer rates and probes.
#[derive(Debug, Clone, Default)]
pub struct Shape {
    pub n: usize,
    pub nnz: usize,
    pub block_width: usize,
    pub restart: usize,
    pub scalar_bytes: usize,
    pub levels: usize,
    pub op_complexity: f64,
}

/// Everything one repetition measured.
#[derive(Debug, Clone, Default)]
pub struct Rep {
    /// Of the set-up whose products the solves used, with its two parts.
    pub setup_s: f64,
    pub assemble_s: f64,
    pub precond_setup_s: f64,
    /// `setup_s` of every set-up the repetition made: that one last, before
    /// it the ones `Instruments::setup_budget_s` paid for.
    pub setup_samples: Vec<f64>,
    pub solves: Vec<SolveRec>,
    pub shape: Shape,
    pub comm: CommCounts,
    /// The resolved solver configurations, one per distinct sequence.
    pub configs: Vec<Json>,
}

impl Rep {
    pub fn solve_s(&self) -> f64 {
        self.solves.iter().map(|s| s.secs).sum()
    }

    pub fn iterations(&self) -> Vec<usize> {
        self.solves.iter().map(|s| s.iterations).collect()
    }

    pub fn failed(&self) -> usize {
        self.solves.iter().filter(|s| !s.passed).count()
    }
}

/// What is attached to the repetition: nothing in an end-to-end run.
#[derive(Clone, Copy, Default)]
pub struct Instruments<'a> {
    pub tracer: Option<&'a Tracer>,
    pub counters: Option<&'a Counters>,
    pub events: Option<&'a EventRing>,
    /// Seconds of a repetition that may go into making its set-up more than
    /// once, for more samples of `setup_s`: 0 in a traced repetition.
    pub setup_budget_s: f64,
}

struct Run<'a> {
    ins: Instruments<'a>,
    rep: Rep,
}

const ASSEMBLE: &str = "assemble";
const PARTITION: &str = "partition";
const PRECOND_SETUP: &str = "precond_setup";

impl Run<'_> {
    /// The workload's whole set-up, `make`, made until `setup_budget_s` went
    /// into it (once, when it takes longer than that); every one is a sample
    /// of `setup_s` and all but the last are dropped. A set-up of half a
    /// millisecond gets hundreds of samples this way and one of a second no
    /// more than the one it needs; none is alive while the next is made, so
    /// peak memory is that of a single set-up.
    fn setup<T>(&mut self, make: impl Fn(&mut Self) -> T) -> T {
        loop {
            (
                self.rep.setup_s,
                self.rep.assemble_s,
                self.rep.precond_setup_s,
            ) = (0.0, 0.0, 0.0);
            let made = make(self);
            self.rep.setup_samples.push(self.rep.setup_s);
            if self.rep.setup_samples.iter().sum::<f64>() >= self.ins.setup_budget_s {
                return made;
            }
        }
    }

    /// A timed set-up stage; its time is part of `setup_s`.
    fn stage<T>(&mut self, name: &'static str, layer: Layer, f: impl FnOnce() -> T) -> T {
        let span = self.ins.tracer.map(|t| t.open(name, layer));
        let t0 = Instant::now();
        let out = f();
        let secs = t0.elapsed().as_secs_f64();
        if let (Some(t), Some(span)) = (self.ins.tracer, span) {
            t.close(span);
        }
        self.rep.setup_s += secs;
        match name {
            ASSEMBLE => self.rep.assemble_s += secs,
            PRECOND_SETUP => self.rep.precond_setup_s += secs,
            _ => {}
        }
        out
    }

    fn config(
        &mut self,
        side: Side,
        rtol: f64,
        restart: usize,
        max_iters: usize,
        same_system: bool,
    ) -> api::Opts {
        let opts = Config {
            rtol,
            restart,
            recycle: 10,
            max_iters,
            side,
            same_system,
            counters: self.ins.counters.cloned(),
            events: self.ins.events.cloned(),
        }
        .resolve();
        self.rep.configs.push(opts.describe());
        opts
    }

    /// One solve from a zero initial guess: timed, then checked.
    #[allow(clippy::too_many_arguments)]
    fn solve<S: Scalar>(
        &mut self,
        driver: Driver,
        compare: Compare,
        cold: bool,
        system: &System<'_, S>,
        pc: &dyn PrecondOp<S>,
        b: &DMat<S>,
        rtol: f64,
        run: impl FnOnce(&dyn LinOp<S>, &dyn PrecondOp<S>, &mut DMat<S>) -> Outcome,
    ) {
        let mut x = DMat::zeros(b.nrows(), b.ncols());
        let (out, secs) = match self.ins.tracer {
            Some(tracer) => {
                let a = api::TracedOp {
                    inner: system.a,
                    tracer,
                };
                let m = api::TracedPc { inner: pc, tracer };
                let span = tracer.open(SOLVE, Layer::Core);
                let t0 = Instant::now();
                let out = run(&a, &m, &mut x);
                let secs = t0.elapsed().as_secs_f64();
                tracer.close(span);
                (out, secs)
            }
            None => {
                let t0 = Instant::now();
                let out = run(system.a, pc, &mut x);
                (out, t0.elapsed().as_secs_f64())
            }
        };
        let checked = check::residual(&system.raw, &api::raw_cols(b), &api::raw_cols(&x));
        self.rep.solves.push(SolveRec {
            driver,
            compare,
            cold,
            secs,
            iterations: out.iterations,
            max_relres: checked.max_relres,
            passed: checked.passes(out.converged, rtol),
        });
    }
}

/// A matrix and its raw arrays for the residual check.
struct System<'a, S> {
    a: &'a Csr<S>,
    raw: RawCsr,
}

impl<'a, S: Scalar> System<'a, S> {
    fn new(a: &'a Csr<S>) -> Self {
        System {
            a,
            raw: api::raw_csr(a),
        }
    }
}

fn shape_of<S: Scalar>(a: &Csr<S>, block_width: usize, restart: usize) -> Shape {
    Shape {
        n: a.nrows(),
        nnz: a.nnz(),
        block_width,
        restart,
        scalar_bytes: std::mem::size_of::<S>(),
        levels: 1,
        op_complexity: 1.0,
    }
}

/// Run one repetition of the workload `inputs` belongs to.
pub fn run_rep(inputs: &Inputs, ins: Instruments<'_>) -> Rep {
    let before = ins.counters.map(Counters::read).unwrap_or_default();
    let span = ins.tracer.map(|t| t.open(REPETITION, Layer::Harness));
    let mut run = Run {
        ins,
        rep: Rep::default(),
    };
    match inputs {
        Inputs::PoissonAmg { nx, nus } => poisson_amg_seq(&mut run, *nx, nus),
        Inputs::PoissonJacobi { nx, nus } => poisson_jacobi_long(&mut run, *nx, nus),
        Inputs::Maxwell {
            nc,
            subdomains,
            ring_r,
            ring_z,
        } => maxwell_block_rhs32(&mut run, *nc, *subdomains, *ring_r, *ring_z),
        Inputs::Elasticity { ne, inclusions } => elasticity_varying_seq(&mut run, *ne, inclusions),
    }
    if let (Some(t), Some(span)) = (ins.tracer, span) {
        t.close(span);
    }
    let after = ins.counters.map(Counters::read).unwrap_or_default();
    run.rep.comm = CommCounts {
        reductions: after.reductions - before.reductions,
        reduce_bytes: after.reduce_bytes - before.reduce_bytes,
        fused_parts: after.fused_parts - before.fused_parts,
    };
    run.rep
}

/// The same right-hand sides through a baseline GMRES and then through
/// GCRO-DR with one recycle space: the shape of both Poisson workloads.
fn gmres_then_gcrodr(
    run: &mut Run<'_>,
    a: &Csr<f64>,
    pc: &dyn PrecondOp<f64>,
    rhs: &[DMat<f64>],
    opts: &api::Opts,
    rtol: f64,
) {
    let system = System::new(a);
    for b in rhs {
        run.solve(
            Driver::Gmres,
            Compare::Baseline,
            false,
            &system,
            pc,
            b,
            rtol,
            |a, m, x| api::gmres(a, m, b, x, opts),
        );
    }
    let mut ctx = api::recycle();
    for (i, b) in rhs.iter().enumerate() {
        run.solve(
            Driver::GcroDr,
            Compare::Recycled,
            i == 0,
            &system,
            pc,
            b,
            rtol,
            |a, m, x| api::gcrodr(a, m, b, x, opts, &mut ctx),
        );
    }
}

/// Fig. 2a/b: Poisson, AMG with a GMRES(3) smoother, FGMRES(30) against
/// FGCRO-DR(30,10) over the paper's four right-hand sides.
fn poisson_amg_seq(run: &mut Run<'_>, nx: usize, nus: &[f64]) {
    let rtol = 1e-8;
    let (prob, amg) = run.setup(|run| {
        let prob = run.stage(ASSEMBLE, Layer::Pde, || api::poisson(nx));
        let amg = run.stage(PRECOND_SETUP, Layer::Precond, || {
            api::amg(&prob, AmgSmoother::Gmres(3))
        });
        (prob, amg)
    });
    let rhs: Vec<DMat<f64>> = nus.iter().map(|&nu| api::poisson_rhs(nx, nu)).collect();
    run.rep.shape = shape_of(&prob.a, 1, 30);
    (run.rep.shape.levels, run.rep.shape.op_complexity) = api::amg_levels(&amg);
    let opts = run.config(Side::Flexible, rtol, 30, 1000, true);
    gmres_then_gcrodr(run, &prob.a, &amg, &rhs, &opts, rtol);
}

/// The artifact regime of Fig. 2: a small Poisson grid under Jacobi, where
/// thousands of cheap iterations make the solver core the cost.
fn poisson_jacobi_long(run: &mut Run<'_>, nx: usize, nus: &[f64]) {
    let rtol = 1e-6;
    let (prob, jac) = run.setup(|run| {
        let prob = run.stage(ASSEMBLE, Layer::Pde, || api::poisson(nx));
        let jac = run.stage(PRECOND_SETUP, Layer::Precond, || api::jacobi(&prob.a));
        (prob, jac)
    });
    let rhs: Vec<DMat<f64>> = nus.iter().map(|&nu| api::poisson_rhs(nx, nu)).collect();
    run.rep.shape = shape_of(&prob.a, 1, 30);
    let opts = run.config(Side::Right, rtol, 30, 20000, true);
    gmres_then_gcrodr(run, &prob.a, &jac, &rhs, &opts, rtol);
}

/// Fig. 8, alternatives 7 and 5: 32 antenna right-hand sides in four blocks
/// of eight, through block GCRO-DR(50,10) and then pseudo-block GCRO-DR.
fn maxwell_block_rhs32(run: &mut Run<'_>, nc: usize, subdomains: usize, ring_r: f64, ring_z: f64) {
    const NRHS: usize = 32;
    const P: usize = 8;
    let rtol = 1e-8;
    let (m, oras) = run.setup(|run| {
        let m = run.stage(ASSEMBLE, Layer::Pde, || api::maxwell(nc));
        let part = run.stage(PARTITION, Layer::Sparse, || {
            api::partition(&m.problem.coords, subdomains)
        });
        let oras = run.stage(PRECOND_SETUP, Layer::Precond, || api::oras(&m, &part, 2));
        (m, oras)
    });
    let rhs = m.antenna_rhs(NRHS, ring_r, ring_z);
    run.rep.shape = shape_of(&m.problem.a, P, 50);
    let opts = run.config(Side::Right, rtol, 50, 5000, true);
    let system = System::new(&m.problem.a);
    let blocks: Vec<DMat<api::C64>> = (0..NRHS / P).map(|k| rhs.cols(k * P, P)).collect();
    let mut ctx = api::recycle();
    for (k, b) in blocks.iter().enumerate() {
        run.solve(
            Driver::BlockGcroDr,
            Compare::No,
            k == 0,
            &system,
            &oras,
            b,
            rtol,
            |a, m, x| api::gcrodr(a, m, b, x, &opts, &mut ctx),
        );
    }
    let mut ctxs = Vec::new();
    for (k, b) in blocks.iter().enumerate() {
        run.solve(
            Driver::PseudoGcroDr,
            Compare::No,
            k == 0,
            &system,
            &oras,
            b,
            rtol,
            |a, m, x| api::pseudo_gcrodr(a, m, b, x, &opts, &mut ctxs),
        );
    }
}

/// Fig. 3: four elasticity systems with a moving inclusion. FGCRO-DR(30,10)
/// under AMG with a CG(4) smoother, then LGMRES(30,10) against GCRO-DR(30,10)
/// under Jacobi; the operator changes, so every GCRO-DR solve refreshes its
/// recycle space.
fn elasticity_varying_seq(run: &mut Run<'_>, ne: usize, inclusions: &[Inclusion; 4]) {
    let rtol = 1e-8;
    let (systems, amgs, jacobis) = run.setup(|run| {
        let systems: Vec<_> = inclusions
            .iter()
            .map(|inc| run.stage(ASSEMBLE, Layer::Pde, || api::elasticity(ne, inc)))
            .collect();
        let amgs: Vec<_> = systems
            .iter()
            .map(|(prob, _)| {
                run.stage(PRECOND_SETUP, Layer::Precond, || {
                    api::amg(prob, AmgSmoother::Cg(4))
                })
            })
            .collect();
        let jacobis: Vec<_> = systems
            .iter()
            .map(|(prob, _)| run.stage(PRECOND_SETUP, Layer::Precond, || api::jacobi(&prob.a)))
            .collect();
        (systems, amgs, jacobis)
    });
    run.rep.shape = shape_of(&systems[0].0.a, 1, 30);
    (run.rep.shape.levels, run.rep.shape.op_complexity) = api::amg_levels(&amgs[0]);
    let checked: Vec<System<'_, f64>> = systems.iter().map(|(p, _)| System::new(&p.a)).collect();

    let flexible = run.config(Side::Flexible, rtol, 30, 1000, false);
    let mut ctx = api::recycle();
    for (i, (_, b)) in systems.iter().enumerate() {
        run.solve(
            Driver::GcroDr,
            Compare::No,
            i == 0,
            &checked[i],
            &amgs[i],
            b,
            rtol,
            |a, m, x| api::gcrodr(a, m, b, x, &flexible, &mut ctx),
        );
    }
    let right = run.config(Side::Right, rtol, 30, 20000, false);
    for (i, (_, b)) in systems.iter().enumerate() {
        run.solve(
            Driver::Lgmres,
            Compare::Baseline,
            false,
            &checked[i],
            &jacobis[i],
            b,
            rtol,
            |a, m, x| api::lgmres(a, m, b, x, &right),
        );
    }
    let mut ctx = api::recycle();
    for (i, (_, b)) in systems.iter().enumerate() {
        run.solve(
            Driver::GcroDr,
            Compare::Recycled,
            i == 0,
            &checked[i],
            &jacobis[i],
            b,
            rtol,
            |a, m, x| api::gcrodr(a, m, b, x, &right, &mut ctx),
        );
    }
}

/// The workload's first system again, for the kernel probes of a traced run.
pub enum Subject {
    Real(api::Problem<f64>),
    Complex(api::Problem<api::C64>),
}

pub fn subject(inputs: &Inputs) -> Subject {
    match inputs {
        Inputs::PoissonAmg { nx, .. } | Inputs::PoissonJacobi { nx, .. } => {
            Subject::Real(api::poisson(*nx))
        }
        Inputs::Maxwell { nc, .. } => Subject::Complex(api::maxwell(*nc).problem),
        Inputs::Elasticity { ne, inclusions } => {
            Subject::Real(api::elasticity(*ne, &inclusions[0]).0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_and_seed_zero_is_the_paper() {
        for w in Workload::ALL {
            let a = format!("{:?}", inputs(w, 7, &Sizes::FULL));
            let b = format!("{:?}", inputs(w, 7, &Sizes::FULL));
            let c = format!("{:?}", inputs(w, 8, &Sizes::FULL));
            assert_eq!(a, b, "{}", w.name());
            assert_ne!(a, c, "{}", w.name());
        }
        match inputs(Workload::PoissonAmgSeq, 0, &Sizes::FULL) {
            Inputs::PoissonAmg { nx: 384, nus } => assert_eq!(nus, api::PAPER_NUS),
            other => panic!("{other:?}"),
        }
        match inputs(Workload::MaxwellBlockRhs32, 0, &Sizes::FULL) {
            Inputs::Maxwell {
                nc: 8,
                subdomains: 16,
                ring_r,
                ring_z,
            } => assert_eq!((ring_r, ring_z), (0.3, 0.55)),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn seeded_nus_stay_in_range_and_stratified() {
        for seed in 0..50 {
            let Inputs::PoissonJacobi { nus, .. } =
                inputs(Workload::PoissonJacobiLong, seed, &Sizes::FULL)
            else {
                panic!("wrong inputs");
            };
            assert_eq!(nus.len(), 16);
            for (j, nu) in nus[4..].iter().enumerate() {
                let cell = (nu.log10() + 3.0) / 5.0 * 12.0;
                assert!(
                    cell > j as f64 && cell < (j + 1) as f64,
                    "seed {seed}: ν {nu}"
                );
            }
        }
    }

    /// The `--smoke` sizes through every workload, untraced and traced: a
    /// change of the program's API or arithmetic shows here first.
    #[test]
    fn every_workload_solves_its_toy_problem_traced_or_not() {
        for w in Workload::ALL {
            let inputs = inputs(w, 3, &Sizes::SMOKE);
            let plain = run_rep(&inputs, Instruments::default());
            assert_eq!(plain.failed(), 0, "{}: {:?}", w.name(), plain.solves);
            assert!(plain.setup_s > 0.0 && plain.solve_s() > 0.0 && plain.shape.n > 0);
            assert_eq!(plain.setup_samples, [plain.setup_s]);
            assert_eq!(plain.comm, CommCounts::default());

            let tracer = Tracer::new();
            let counters = Counters::new();
            let traced = run_rep(
                &inputs,
                Instruments {
                    tracer: Some(&tracer),
                    counters: Some(&counters),
                    ..Instruments::default()
                },
            );
            // Tracing wraps the operators; it must not change the arithmetic.
            assert_eq!(traced.iterations(), plain.iterations(), "{}", w.name());
            assert!(traced.comm.reductions > 0 && traced.comm.fused_parts > 0);
            let layers = crate::trace::layers_by_repetition(&tracer.spans());
            assert_eq!(layers.len(), 1);
            let l = &layers[0];
            assert!(l.spmm_calls > 0 && l.precond_apply_calls > 0 && l.core_self_s > 0.0);
            let tiled = l.spmm_s + l.precond_apply_s + l.core_self_s;
            assert!(
                (tiled - l.solve_s).abs() <= 1e-9 * l.solve_s,
                "{}: {tiled} vs {}",
                w.name(),
                l.solve_s
            );
            // The spans cover the solver calls the repetition timed itself.
            assert!((l.solve_s - traced.solve_s()).abs() <= 0.02 * traced.solve_s());
        }
    }

    #[test]
    fn a_set_up_budget_buys_more_samples_of_a_short_set_up() {
        let inputs = inputs(Workload::PoissonJacobiLong, 3, &Sizes::SMOKE);
        let rep = run_rep(
            &inputs,
            Instruments {
                setup_budget_s: 0.02,
                ..Instruments::default()
            },
        );
        assert!(rep.setup_samples.len() > 1);
        assert_eq!(rep.setup_samples.last(), Some(&rep.setup_s));
        assert!(rep.setup_samples.iter().sum::<f64>() >= 0.02);
        assert_eq!(rep.failed(), 0);
    }

    #[test]
    fn names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::from_name(w.name()), Some(w));
        }
        assert_eq!(Workload::from_name("nope"), None);
    }
}
