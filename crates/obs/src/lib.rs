#![warn(missing_docs)]
//! `kryst-obs` — the solver observability layer.
//!
//! The paper's scalability argument (§III-D) is a *counting* argument:
//! reductions, messages, and time per phase. This crate makes those counts
//! machine-readable artifacts instead of end-of-run totals.
//!
//! **Events** describe one solve: [`event::Event`] carries one
//! [`event::IterationEvent`] per (block) iteration with exact communication
//! **deltas**, the solve-level spans, diagnostics, and begin/end markers.
//! They go to a [`recorder::Recorder`] — the [`recorder::RingRecorder`] for
//! tests, the [`recorder::JsonlRecorder`] for the bench binaries; a solve
//! with no recorder constructs none. [`view`] reads the stream back into
//! convergence histories, [`json`] is the dependency-free JSON writer and
//! parser. For a single solve the iteration deltas sum to the solve's total
//! [`CommSnapshot`]: each is measured since the previous event, and the
//! trailing work is folded into the last one. Events carry counts and
//! residuals, never time, so the same solve records the same events.
//!
//! **Time** comes from one spine, [`span`]: every timed region opens one
//! span of a [`SpanKind`] behind the one `KRYST_TRACE` gate. Closing it
//! folds it into the per-kind aggregates of [`profiler`] (the phase table,
//! [`ProfileSnapshot`]: a count and a total per kind). [`wire`] counts what
//! a transport put on the wire; [`diag`] holds the [`StagnationDetector`].

pub mod diag;
pub mod event;
pub mod json;
pub mod profiler;
pub mod recorder;
pub mod span;
pub mod view;
pub mod wire;

pub use diag::StagnationDetector;
pub use event::{
    CommSnapshot, DiagEvent, DiagKind, Event, IterationEvent, SolveEndEvent, SpanEvent,
};
pub use profiler::{Aggregates, PhaseStats, ProfileSnapshot, ThreadAggregates};
pub use recorder::{JsonlRecorder, Recorder, RingRecorder};
pub use span::{aggregates, set_trace_enabled, trace_enabled, traced, SpanKind};
pub use view::{cumulative_comm, diags_of, history, iteration_events, spans_of};
pub use wire::{WireSnapshot, WireStats};
