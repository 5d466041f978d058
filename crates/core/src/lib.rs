#![warn(missing_docs)]
//! `kryst-core` — the paper's contribution: a uniform implementation of
//! **(pseudo-)block GMRES** and **(pseudo-)block GCRO-DR** with right, left,
//! or variable (flexible) preconditioning, Krylov-subspace recycling across
//! sequences of linear systems, a fast path for non-variable sequences
//! (`same_system`), and the two deflation eigenproblem formulations
//! (strategies A/B, eqs. (3a)/(3b)).
//!
//! Baselines for the paper's comparisons are included: restarted GMRES /
//! FGMRES and LGMRES(m,k) ("Loose GMRES", the PETSc augmented method of
//! §IV-C).
//!
//! # One restarted driver, three policies
//!
//! [`gmres::solve`], [`lgmres::solve`] and [`gcrodr::solve`] are entry
//! points into one loop (the private `restart` module): initial residual and
//! early exit, then per cycle one [`cycle::BlockArnoldi`] process, the
//! least-squares correction, the true residual, and at the end one verdict.
//! What a method adds is an *augmentation policy*, consulted once per
//! cycle: GMRES adds nothing; LGMRES steps on the stored images `A·z_i` of
//! its last `k` corrections and keeps the newest; GCRO-DR keeps the basis
//! orthogonal to `C`, corrects with `U`, and extracts or refreshes the pair
//! `(U, C)` it hands to the next cycle and the next solve. Iteration and
//! diagnostic events, the `max_iters` cap and the convergence tests are the
//! loop's and therefore the same for all three. [`pseudo::solve`] runs the
//! same loop with one lane per right-hand side: the lanes step in
//! lock-step and share one operator and preconditioner apply per step.
//!
//! Every option is a field of [`SolveOpts`] with a constant default
//! (CholQR, right preconditioning, …); the crate reads nothing from the
//! environment. The block orthogonalization has one path: CholQR/CGS take
//! one fused reduction per pass, MGS/IMGS their per-column sweep.
//!
//! # Quick start
//!
//! ```
//! use kryst_core::{gmres, gcrodr, SolveOpts, SolverContext};
//! use kryst_dense::DMat;
//! use kryst_par::IdentityPrecond;
//! use kryst_pde::poisson::poisson2d;
//!
//! let p = poisson2d::<f64>(16, 16);
//! let n = p.a.nrows();
//! let b = DMat::from_fn(n, 1, |i, _| (i % 5) as f64);
//! let m = IdentityPrecond::new(n);
//! let opts = SolveOpts { rtol: 1e-8, ..Default::default() };
//!
//! // One-shot GMRES.
//! let mut x = DMat::zeros(n, 1);
//! let res = gmres::solve(&p.a, &m, &b, &mut x, &opts);
//! assert!(res.converged);
//!
//! // GCRO-DR recycles Krylov information across solves through a context.
//! let mut ctx = SolverContext::new();
//! let mut x1 = DMat::zeros(n, 1);
//! let r1 = gcrodr::solve(&p.a, &m, &b, &mut x1, &opts, &mut ctx);
//! let mut x2 = DMat::zeros(n, 1);
//! let r2 = gcrodr::solve(&p.a, &m, &b, &mut x2, &opts, &mut ctx);
//! assert!(r2.iterations < r1.iterations); // recycling pays off
//! ```

pub mod cycle;
pub mod gcrodr;
pub mod gmres;
pub mod lgmres;
pub mod opts;
pub mod pseudo;
mod restart;
pub mod trace;

pub use cycle::PrecondMode;
pub use gcrodr::{RecycleSpace, SolverContext};
pub use opts::{OrthPath, PrecondSide, RecycleStrategy, SolveOpts, SolveResult};
pub use trace::SolveTracer;

pub use kryst_dense::gs::OrthScheme;
