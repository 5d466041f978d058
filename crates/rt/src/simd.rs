//! Run-time choice of the vector instruction set a kernel runs on.
//!
//! A kernel writes its loops once, as [`Kernel::body`], and [`run`] calls
//! that body through one of three wrappers: the baseline target, 256-bit
//! AVX2, or 512-bit AVX-512F. The body is always inlined, so each wrapper
//! compiles the same loops for its own vector width. The CPU is read once,
//! the first time a kernel runs.
//!
//! **No tier changes a bit.** A wrapper enables vector instruction sets and
//! nothing else: never `fma`, never a fast-math flag. Rust does not contract
//! a product and a sum into a fused multiply–add (only an explicit call to
//! one does), so every lane of every tier runs the same IEEE operations in
//! the same order as the baseline build, and the tier changes how many
//! entries move per instruction, not one bit of the result. (The AVX-512F
//! instruction set includes FMA instructions; nothing asks for them.) The
//! kernels' `to_bits` suites run every tier the CPU has through [`run_at`].
//!
//! **Which tier a kernel takes is measured, kernel by kernel.**
//! [`Kernel::widest`] caps it: the complex (`C64`) kernels that read faster
//! at 512 bits take them; the real (`f64`) ones, whose benches and
//! workloads came out mixed at 512, stop at AVX2 or below.
//!
//! **What fills the lanes.** A wider tier pays only where the body gives
//! each lane independent work. The banded solve and the complex block
//! sweeps (`p ≥ 2` columns) keep their columns in the lanes as planes of
//! reals (`kryst_dense::lanes`: the real parts of up to eight columns, then
//! their imaginary parts), so an 8-wide tile fills one 512-bit register per
//! plane and a complex product needs no shuffle. A body on interleaved
//! complex scalars (a single complex column, the `Csr` row sweep) spends
//! shuffles on every product at any width.

use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::Mutex;

/// A vector instruction set a kernel body can be compiled for, narrowest
/// first.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Tier {
    /// The build target's own instruction set (SSE2 on x86-64).
    Baseline,
    /// 256-bit vectors: AVX2.
    Avx2,
    /// 512-bit vectors: AVX-512F.
    Avx512,
}

impl Tier {
    /// Every tier, narrowest first.
    pub const ALL: [Tier; 3] = [Tier::Baseline, Tier::Avx2, Tier::Avx512];

    /// The CPU feature flag the tier stands for, as `/proc/cpuinfo` spells
    /// it (`"baseline"` for the baseline).
    pub fn name(self) -> &'static str {
        match self {
            Tier::Baseline => "baseline",
            Tier::Avx2 => "avx2",
            Tier::Avx512 => "avx512f",
        }
    }

    /// Whether the CPU this runs on has the tier.
    pub fn available(self) -> bool {
        self <= detected()
    }
}

/// The widest tier the CPU has, read from CPUID on the first call.
pub fn detected() -> Tier {
    // `Relaxed`: the byte publishes no other data, and threads that race on
    // the first call all detect, and store, the same tier.
    static TIER: AtomicU8 = AtomicU8::new(u8::MAX);
    match TIER.load(Ordering::Relaxed) {
        u8::MAX => {
            let tier = detect();
            TIER.store(tier as u8, Ordering::Relaxed);
            tier
        }
        t => Tier::ALL[usize::from(t)],
    }
}

fn detect() -> Tier {
    #[cfg(target_arch = "x86_64")]
    {
        if std::is_x86_feature_detected!("avx512f") {
            return Tier::Avx512;
        }
        if std::is_x86_feature_detected!("avx2") {
            return Tier::Avx2;
        }
    }
    Tier::Baseline
}

/// The tiers [`run_at`] can take on this CPU, narrowest first.
pub fn available() -> impl Iterator<Item = Tier> {
    Tier::ALL.into_iter().filter(|t| t.available())
}

/// The tiers a bit-identity suite named `suite` compares: every tier the CPU
/// has. Each tier it lacks is reported on standard error as skipped, once
/// per suite and process, past the test harness's output capture, so that a
/// pass on such a CPU does not read as coverage of that tier.
pub fn suite_tiers(suite: &str) -> Vec<Tier> {
    use std::io::Write;
    static REPORTED: Mutex<Vec<String>> = Mutex::new(Vec::new());
    let first = {
        let mut seen = REPORTED.lock().expect("no panic under the lock");
        let first = !seen.iter().any(|s| s == suite);
        if first {
            seen.push(suite.to_owned());
        }
        first
    };
    for t in Tier::ALL.into_iter().filter(|t| first && !t.available()) {
        // Best effort: a closed stderr must not fail the suite.
        let _ = writeln!(
            std::io::stderr(),
            "{suite}: {} body skipped, this CPU has no {}",
            t.name(),
            t.name()
        );
    }
    available().collect()
}

/// Names of `tiers`, for assertion messages.
pub fn names(tiers: &[Tier]) -> String {
    let names: Vec<&str> = tiers.iter().map(|t| t.name()).collect();
    names.join("/")
}

/// Proof that the CPU has a tier, handed to [`Kernel::body`]: a body that
/// calls intrinsics reads from it which ones it may use. Only this module
/// makes one, and only for a tier the CPU has.
#[derive(Clone, Copy, Debug)]
pub struct Width(Tier);

impl Width {
    /// The tier the body is compiled for.
    pub fn tier(self) -> Tier {
        self.0
    }
}

/// A loop nest compiled once per tier.
pub trait Kernel {
    /// What the loops return.
    type Out;

    /// The widest tier [`run`] may take for this kernel (it takes the
    /// narrower of this and the CPU's).
    fn widest(&self) -> Tier;

    /// The loops. Implementations must be `#[inline(always)]`, so that they
    /// are compiled with the target features of the wrapper that calls
    /// them; `width` is the wrapper's tier.
    fn body(self, width: Width) -> Self::Out;
}

/// The tier a kernel capped at `widest` runs at on this CPU: the narrower
/// of the two.
pub fn capped(widest: Tier) -> Tier {
    widest.min(detected())
}

/// Run `kernel` at [`capped`]`(kernel.widest())`.
pub fn run<K: Kernel>(kernel: K) -> K::Out {
    dispatch(capped(kernel.widest()), kernel)
}

/// Run `kernel` at `tier`, whatever [`Kernel::widest`] says: for the
/// suites that hold every tier to the same bits.
///
/// # Panics
///
/// If the CPU does not have `tier`.
pub fn run_at<K: Kernel>(tier: Tier, kernel: K) -> K::Out {
    assert!(tier.available(), "this CPU has no {}", tier.name());
    dispatch(tier, kernel)
}

/// `tier` must be available.
#[inline(always)]
fn dispatch<K: Kernel>(tier: Tier, kernel: K) -> K::Out {
    match tier {
        // SAFETY: the callers checked that the CPU has the tier, the one
        // instruction set each wrapper is compiled with.
        #[cfg(target_arch = "x86_64")]
        Tier::Avx512 => unsafe { avx512(kernel) },
        #[cfg(target_arch = "x86_64")]
        Tier::Avx2 => unsafe { avx2(kernel) },
        _ => kernel.body(Width(Tier::Baseline)),
    }
}

/// [`Kernel::body`] compiled with 256-bit vectors.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn avx2<K: Kernel>(kernel: K) -> K::Out {
    kernel.body(Width(Tier::Avx2))
}

/// [`Kernel::body`] compiled with 512-bit vectors.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
fn avx512<K: Kernel>(kernel: K) -> K::Out {
    kernel.body(Width(Tier::Avx512))
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Sum<'a>(&'a [f64]);

    impl Kernel for Sum<'_> {
        type Out = (f64, Tier);

        fn widest(&self) -> Tier {
            Tier::Avx2
        }

        #[inline(always)]
        fn body(self, width: Width) -> (f64, Tier) {
            (self.0.iter().sum(), width.tier())
        }
    }

    #[test]
    fn every_available_tier_runs_and_run_respects_the_cap() {
        let x: Vec<f64> = (0..1000).map(|i| 1.0 / (1.0 + i as f64)).collect();
        let tiers: Vec<Tier> = available().collect();
        assert_eq!(tiers[0], Tier::Baseline);
        assert_eq!(*tiers.last().unwrap(), detected());
        let want = run_at(Tier::Baseline, Sum(&x)).0;
        for t in tiers {
            let (got, ran) = run_at(t, Sum(&x));
            assert_eq!((got.to_bits(), ran), (want.to_bits(), t), "{}", t.name());
        }
        assert_eq!(run(Sum(&x)).1, detected().min(Tier::Avx2));
        assert_eq!(detected(), detected());
    }
}
