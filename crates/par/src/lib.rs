#![warn(missing_docs)]
//! Simulated distributed runtime for the `kryst` workspace.
//!
//! The paper's experiments ran on up to 8,192 MPI ranks; the Rust MPI
//! ecosystem is thin, so this crate provides the faithful laptop-scale
//! substitute described in `DESIGN.md`:
//!
//! * [`layout::Layout`] — contiguous row distributions over `N` ranks,
//! * [`halo`] — halo-exchange plans derived from the matrix sparsity, giving
//!   exact per-SpMM message and byte counts,
//! * [`comm::CommStats`] — atomic counters every solver kernel reports its
//!   collectives to (the quantities §III-D of the paper reasons about),
//! * [`cost::CostModel`] — an α–β–γ (latency–bandwidth–compute) model that
//!   converts those counts into modeled times for any rank count,
//! * [`op`] — the operator/preconditioner abstraction shared by `kryst-core`
//!   and `kryst-precond`, including the instrumented distributed operator
//!   [`op::DistOp`],
//! * [`transport`] — the [`transport::Transport`] trait with two backends:
//!   the in-process channel mesh (default) and a socket mesh between real OS
//!   worker processes ([`TransportKind::Socket`]), both reporting wire-level
//!   counters,
//! * [`collective`] — butterfly all-reduce, split-phase and fused variants,
//!   and layout redistribution, written once against the trait,
//! * [`spmd`] — the SPMD runners: closure mode ([`spmd::run_spmd`]) and the
//!   persistent primitive-worker world ([`spmd::SpmdWorld`]) driving the
//!   microbenchmarks and cost-model calibration ([`calibrate`]).
//!
//! The arithmetic of a "distributed" run is bit-identical to the sequential
//! sharded execution — and, because both transport backends execute the
//! identical collective schedule, bit-identical across backends too — so
//! convergence histories are exactly what a real MPI run with the same
//! reduction order would produce.

pub mod calibrate;
pub mod collective;
pub mod comm;
pub mod cost;
pub mod halo;
pub mod layout;
pub mod op;
pub mod report;
pub mod spmd;
pub mod trace;
pub mod transport;

pub use calibrate::Calibration;
pub use comm::{CommInterval, CommSnapshot, CommStats};
pub use cost::{CostModel, ModeledTime};
pub use halo::HaloPlan;
pub use layout::Layout;
pub use op::{DistOp, IdentityPrecond, LinOp, PrecondOp, PrecondPrecision, ProjectedOp};
pub use report::{
    calibration_table, comm_from_json, comm_to_json, per_rank_comm, phase_report, validation_table,
    ModeledRow, PhaseReport, PhaseRow, ValidationRow,
};
pub use spmd::{maybe_primitive_worker, reduce_stages, run_spmd, SpmdRun, SpmdWorld};
pub use trace::{gather_timeline, SPLIT_PHASE_BIT};
pub use transport::{ChannelTransport, SocketTransport, Transport, TransportError, TransportKind};
