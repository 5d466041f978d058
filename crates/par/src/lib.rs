#![warn(missing_docs)]
//! Distributed runtime for the `kryst` workspace.
//!
//! The paper's experiments ran on up to 8,192 MPI ranks; the Rust MPI
//! ecosystem is thin, so this crate provides the laptop-scale substitute
//! described in `DESIGN.md` — real collectives between threads or OS
//! processes, plus a cost model for the rank counts beyond them:
//!
//! * [`layout::Layout`] — contiguous row distributions over `N` ranks,
//! * [`halo`] — halo-exchange plans derived from the matrix sparsity, giving
//!   exact per-SpMM message and byte counts, executed on a live world by
//!   [`halo::HaloPlan::execute`],
//! * [`comm::CommStats`] — atomic counters every solver kernel reports its
//!   global reductions to (the quantity §III-D of the paper reasons about),
//! * [`cost::CostModel`] — an α–β (latency–bandwidth) model that converts
//!   reduction counts into modeled times for any rank count,
//! * [`op`] — the operator/preconditioner abstraction shared by `kryst-core`
//!   and `kryst-precond`,
//! * [`transport`] — the [`transport::Transport`] trait with two backends:
//!   the in-process channel mesh (default) and a socket mesh between real OS
//!   worker processes ([`TransportKind::Socket`]), both reporting wire-level
//!   counters,
//! * [`collective`] — butterfly all-reduce and its fused variant,
//!   written once against the trait,
//! * [`spmd`] — the SPMD runners: closure mode ([`spmd::run_spmd`]) and the
//!   persistent primitive-worker world ([`spmd::SpmdWorld`]) driving the
//!   transport microbenchmarks.
//!
//! The arithmetic of a "distributed" run is bit-identical to the sequential
//! sharded execution — and, because both transport backends execute the
//! identical collective schedule, bit-identical across backends too — so
//! convergence histories are exactly what a real MPI run with the same
//! reduction order would produce.

pub mod collective;
pub mod comm;
pub mod cost;
pub mod halo;
pub mod layout;
pub mod op;
pub mod report;
pub mod spmd;
pub mod transport;

pub use comm::{CommInterval, CommSnapshot, CommStats};
pub use cost::CostModel;
pub use halo::HaloPlan;
pub use layout::Layout;
pub use op::{IdentityPrecond, LinOp, PrecondOp, PrecondPrecision};
pub use report::{phase_report, ModeledRow, PhaseReport};
pub use spmd::{maybe_primitive_worker, reduce_stages, run_spmd, SpmdRun, SpmdWorld};
pub use transport::{ChannelTransport, SocketTransport, Transport, TransportError, TransportKind};
