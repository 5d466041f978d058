#![warn(missing_docs)]
//! Scalar abstraction for the `kryst` workspace.
//!
//! Every solver, preconditioner, and kernel in the workspace is generic over a
//! [`Scalar`] type, so the same GCRO-DR code runs on real Poisson/elasticity
//! systems (`f64`) and on the complex time-harmonic Maxwell systems
//! (`Complex<f64>`) from the paper's §V.
//!
//! The crate provides its own [`Complex`] type (the offline crate list does
//! not include `num-complex`) together with the [`Real`] and [`Scalar`]
//! traits.

mod complex;
mod real;
mod scalar;

pub use complex::Complex;
pub use real::Real;
pub use scalar::Scalar;

/// Complex number with `f64` components — the scalar type used by the Maxwell
/// experiments (§V of the paper).
pub type C64 = Complex<f64>;
/// Complex number with `f32` components.
pub type C32 = Complex<f32>;
