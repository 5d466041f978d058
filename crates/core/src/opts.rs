//! Solver options and results.

use kryst_dense::gs::OrthScheme;
use kryst_obs::Recorder;
use kryst_par::CommStats;
use std::sync::Arc;

/// Which side the preconditioner enters on.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum PrecondSide {
    /// `M⁻¹·A·x = M⁻¹·b` — residuals (and convergence tests) are
    /// preconditioned.
    Left,
    /// `A·M⁻¹·u = b`, `x = M⁻¹·u` — residuals are the true ones.
    Right,
    /// Flexible right preconditioning: the preconditioner may change from
    /// application to application (inner Krylov smoothers, §III-C); the
    /// preconditioned directions `Z_m` are stored explicitly.
    Flexible,
}

/// Right-hand-side formulation of the deflation generalized eigenproblem
/// (paper eq. (3), artifact option `-hpddm_recycle_strategy`). The best
/// choice is problem-dependent (paper §III-C); on the SPD model problems of
/// this workspace, A refines the deflation space markedly better, so it is
/// the default.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum RecycleStrategy {
    /// Eq. (3a): the exact projected matrix — costs one extra fused global
    /// reduction per restart.
    A,
    /// Eq. (3b): assumes basis orthogonality — no extra communication.
    B,
}

/// The orthogonalization path of the Arnoldi cycles. There is one: the
/// fused CholQR step, one `[CᴴW; VᴴW; WᴴW]` reduction per pass (see
/// [`crate::cycle::BlockArnoldi`]).
///
/// This enum, the single-valued [`OrthScheme`] and their fields
/// [`SolveOpts::ortho`] and [`SolveOpts::orth`] survive only because the
/// repository benchmark names them (it checks and reports them); nothing in
/// the library branches on them.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Default)]
pub enum OrthPath {
    /// One fused reduction per iteration (two when re-orthogonalized), the
    /// CholQR factor from a Gram downdate at zero extra reductions.
    #[default]
    Fused,
}

impl OrthPath {
    /// Stable lowercase name used in traces and benchmarks.
    pub fn name(self) -> &'static str {
        match self {
            OrthPath::Fused => "fused",
        }
    }
}

/// Options shared by every solver in the crate.
#[derive(Clone)]
pub struct SolveOpts {
    /// Relative residual tolerance, per right-hand side (paper: `EPS`).
    pub rtol: f64,
    /// Total iteration cap (block iterations).
    pub max_iters: usize,
    /// Restart length `m` (maximum Krylov block columns per cycle).
    pub restart: usize,
    /// Recycled subspace dimension `k` (in block units; GCRO-DR only).
    pub recycle: usize,
    /// Preconditioner side / flexibility.
    pub side: PrecondSide,
    /// Orthogonalization scheme; [`OrthScheme::CholQr`] is the only one.
    pub orth: OrthScheme,
    /// Orthogonalization path; [`OrthPath::Fused`] is the only one.
    pub ortho: OrthPath,
    /// Deflation eigenproblem formulation.
    pub recycle_strategy: RecycleStrategy,
    /// The operator is identical to the previous solve's
    /// (`-hpddm_recycle_same_system`): skip the recycle-space refresh work
    /// (Fig. 1 lines 3–7 and 31–38).
    pub same_system: bool,
    /// Optional communication counters (the §III-D accounting).
    pub stats: Option<Arc<CommStats>>,
    /// Optional event sink: every solver emits typed per-iteration events,
    /// solve spans, and begin/end markers through it (`kryst-obs`). `None`
    /// is the off switch — no events are constructed. The
    /// `comm` deltas on the events are sampled from [`SolveOpts::stats`]; to
    /// get non-zero communication attribution, attach a `CommStats` too.
    pub recorder: Option<Arc<dyn Recorder>>,
}

impl Default for SolveOpts {
    fn default() -> Self {
        Self {
            rtol: 1e-8,
            max_iters: 1000,
            restart: 30,
            recycle: 10,
            side: PrecondSide::Right,
            orth: OrthScheme::CholQr,
            ortho: OrthPath::Fused,
            recycle_strategy: RecycleStrategy::A,
            same_system: false,
            stats: None,
            recorder: None,
        }
    }
}

/// Outcome of a solve.
#[derive(Debug, Clone)]
pub struct SolveResult {
    /// Block iterations performed (for `p` fused right-hand sides one block
    /// iteration advances all of them).
    pub iterations: usize,
    /// All right-hand sides reached `rtol`.
    pub converged: bool,
    /// Per-iteration, per-RHS relative residual estimates (the convergence
    /// curves of Figs. 2–4).
    pub history: Vec<Vec<f64>>,
    /// Final relative residuals (true residuals, recomputed).
    pub final_relres: Vec<f64>,
}

impl SolveResult {
    /// Iterations each RHS needed to first dip below `rtol` (for per-RHS
    /// reporting à la the artifact tables). Falls back to the total count.
    pub fn iters_to_converge(&self, rtol: f64) -> Vec<usize> {
        let p = self.history.first().map(Vec::len).unwrap_or(0);
        (0..p)
            .map(|l| {
                self.history
                    .iter()
                    .position(|row| row[l] <= rtol)
                    .map(|i| i + 1)
                    .unwrap_or(self.iterations)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_conventions() {
        let o = SolveOpts::default();
        assert_eq!(o.restart, 30); // PETSc default the paper adopts
        assert_eq!(o.recycle, 10); // paper's GCRO-DR(30, 10)
        assert_eq!(o.rtol, 1e-8);
        assert_eq!(o.orth, OrthScheme::CholQr);
    }

    #[test]
    fn iters_to_converge_scans_history() {
        let r = SolveResult {
            iterations: 4,
            converged: true,
            history: vec![
                vec![1.0, 1.0],
                vec![0.5, 1e-9],
                vec![1e-9, 1e-10],
                vec![1e-12, 1e-12],
            ],
            final_relres: vec![1e-12, 1e-12],
        };
        assert_eq!(r.iters_to_converge(1e-8), vec![3, 2]);
    }
}
