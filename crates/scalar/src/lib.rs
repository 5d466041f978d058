#![warn(missing_docs)]
//! Scalar abstraction for the `kryst` workspace.
//!
//! Every solver, preconditioner, and kernel in the workspace is generic over a
//! [`Scalar`] type, so the same GCRO-DR code runs on real Poisson/elasticity
//! systems (`f64`) and on the complex time-harmonic Maxwell systems
//! ([`C64`]) from the paper's §V. Norms, residuals and tolerances are `f64`
//! for both.
//!
//! The crate provides its own [`C64`] type (the offline crate list does not
//! include `num-complex`) together with the [`Scalar`] trait.

mod complex;
mod scalar;

pub use complex::C64;
pub use scalar::Scalar;

/// `f64`'s conversion to itself, kept only because the repository benchmark
/// calls `.to_f64()` on [`Scalar::re`] and [`Scalar::im`].
pub trait Real {
    /// The value itself.
    fn to_f64(self) -> f64;
}

impl Real for f64 {
    #[inline(always)]
    fn to_f64(self) -> f64 {
        self
    }
}
