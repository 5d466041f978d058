#![warn(missing_docs)]
//! `kryst-rt` — runtime support for the kryst workspace.
//!
//! The build environment is fully offline (no crates-io registry), so the
//! workspace carries its own minimal replacements for the two external
//! crates the kernels used to lean on:
//!
//! * [`par`] — data-parallel helpers covering the shapes the kernels need
//!   (indexed chunked mutation, contiguous range splitting, parallel map),
//!   dispatching onto [`pool`];
//! * [`pool`] — a lazily-initialized persistent worker pool (parked threads,
//!   condvar/atomic job handoff) replacing per-call `std::thread::scope`
//!   spawn/join on every kernel invocation;
//! * [`rng`] — a deterministic SplitMix64 generator for seeded test data
//!   and benchmark inputs;
//! * [`simd`] — the run-time choice of vector width (baseline, AVX2,
//!   AVX-512F) that every hand-vectorised kernel is dispatched through.

pub mod par;
pub mod pool;
pub mod rng;
pub mod simd;
