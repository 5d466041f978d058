//! Minimal benchmark harness with a criterion-compatible surface.
//!
//! The workspace builds offline, so the benches run on this self-contained
//! harness instead of an external crate. It keeps the familiar shape —
//! `Criterion`, `benchmark_group`, `bench_function` / `bench_with_input`,
//! `BenchmarkId`, `Throughput`, and the `criterion_group!` /
//! `criterion_main!` macros re-exported from the crate root — so a bench
//! file ports by swapping its `use` lines.
//!
//! Measurement model: one warm-up call sizes the batch so that
//! `sample_size` samples together fill roughly `measurement_time`; each
//! sample times a batch of calls and the report prints the minimum, median,
//! and mean per-call time (plus element throughput when declared).
//! `KRYST_BENCH_FAST=1` caps every bench at one sample × one iteration —
//! CI smoke mode. Arguments that do not start with `-` filter: only the
//! benchmarks whose `group/id` contains one of them run
//! (`cargo bench --bench spmm -- galerkin`); flags such as cargo's `--bench`
//! are ignored. Regressions are judged by the repository benchmark
//! (`benchmark/`, `bash benchmark/run.sh compare`), not from these numbers.

use kryst_rt::simd::{self, Tier};
use std::fmt::Display;
use std::time::{Duration, Instant};

pub use std::hint::black_box;

/// Top-level driver holding the sampling configuration and the name
/// filters of the command line.
pub struct Criterion {
    samples: usize,
    measurement: Duration,
    filters: Vec<String>,
}

impl Default for Criterion {
    fn default() -> Self {
        Self {
            samples: 10,
            measurement: Duration::from_secs(2),
            filters: filters(std::env::args().skip(1)),
        }
    }
}

/// The arguments that are not flags.
fn filters(args: impl Iterator<Item = String>) -> Vec<String> {
    args.filter(|a| !a.starts_with('-')).collect()
}

/// Whether the benchmark `name` (`group/id`) runs under `filters`: all do
/// when there is none.
fn selected(filters: &[String], name: &str) -> bool {
    filters.is_empty() || filters.iter().any(|f| name.contains(f.as_str()))
}

impl Criterion {
    /// Number of timed samples per benchmark.
    pub fn sample_size(mut self, n: usize) -> Self {
        self.samples = n.max(1);
        self
    }

    /// Target total measuring time per benchmark.
    pub fn measurement_time(mut self, d: Duration) -> Self {
        self.measurement = d;
        self
    }

    /// Start a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: impl Display) -> BenchmarkGroup {
        println!("\n== {name} ==");
        BenchmarkGroup {
            name: name.to_string(),
            samples: self.samples,
            measurement: self.measurement,
            filters: self.filters.clone(),
            throughput: None,
        }
    }

    /// Benchmark a single function outside any group.
    pub fn bench_function(&mut self, id: impl Display, mut f: impl FnMut(&mut Bencher)) {
        let id = id.to_string();
        if selected(&self.filters, &id) {
            run_one(&id, self.samples, self.measurement, None, &mut f);
        }
    }
}

/// Throughput declaration for a group — reported as elements/second.
#[derive(Copy, Clone)]
pub enum Throughput {
    /// Number of logical elements processed per iteration.
    Elements(u64),
}

/// Label for one parameterized benchmark in a group.
pub struct BenchmarkId(String);

impl BenchmarkId {
    /// Identify the case by its parameter value.
    pub fn from_parameter(p: impl Display) -> Self {
        Self(p.to_string())
    }
}

impl Display for BenchmarkId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.0.fmt(f)
    }
}

/// A group of benchmarks sharing configuration and throughput.
pub struct BenchmarkGroup {
    name: String,
    samples: usize,
    measurement: Duration,
    filters: Vec<String>,
    throughput: Option<Throughput>,
}

impl BenchmarkGroup {
    /// Declare the per-iteration throughput of subsequent benches.
    pub fn throughput(&mut self, t: Throughput) {
        self.throughput = Some(t);
    }

    /// Benchmark a closure.
    pub fn bench_function(&mut self, id: impl Display, mut f: impl FnMut(&mut Bencher)) {
        let id = id.to_string();
        if selected(&self.filters, &format!("{}/{id}", self.name)) {
            let (samples, time, tp) = (self.samples, self.measurement, self.throughput);
            run_one(&id, samples, time, tp, &mut f);
        }
    }

    /// Benchmark a closure against an explicit input.
    pub fn bench_with_input<I>(
        &mut self,
        id: BenchmarkId,
        input: &I,
        mut f: impl FnMut(&mut Bencher, &I),
    ) {
        self.bench_function(id, |b| f(b, input));
    }

    /// End the group (report separator).
    pub fn finish(self) {}
}

/// Passed to the benched closure; `iter` runs and times the workload.
pub struct Bencher {
    iters: u64,
    elapsed: Duration,
}

impl Bencher {
    /// Run the workload `self.iters` times, timing the whole batch.
    pub fn iter<T>(&mut self, mut f: impl FnMut() -> T) {
        let t0 = Instant::now();
        for _ in 0..self.iters {
            black_box(f());
        }
        self.elapsed = t0.elapsed();
    }
}

fn fast_mode() -> bool {
    std::env::var_os("KRYST_BENCH_FAST").is_some()
}

fn run_one(
    name: &str,
    samples: usize,
    measurement: Duration,
    throughput: Option<Throughput>,
    f: &mut dyn FnMut(&mut Bencher),
) {
    // Warm-up call sizes the batch.
    let mut b = Bencher {
        iters: 1,
        elapsed: Duration::ZERO,
    };
    f(&mut b);
    let per_call = b.elapsed.max(Duration::from_nanos(1));
    let (samples, iters) = if fast_mode() {
        (1usize, 1u64)
    } else {
        let budget = measurement.as_secs_f64() / samples as f64;
        let iters = (budget / per_call.as_secs_f64()).clamp(1.0, 1000.0) as u64;
        (samples, iters)
    };

    let mut per_iter: Vec<f64> = Vec::with_capacity(samples);
    for _ in 0..samples {
        let mut b = Bencher {
            iters,
            elapsed: Duration::ZERO,
        };
        f(&mut b);
        per_iter.push(b.elapsed.as_secs_f64() / iters as f64);
    }
    per_iter.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let min = per_iter[0];
    let median = per_iter[per_iter.len() / 2];
    let mean = per_iter.iter().sum::<f64>() / per_iter.len() as f64;
    let tp = match throughput {
        Some(Throughput::Elements(e)) if median > 0.0 => {
            format!("  {:>10.1} Melem/s", e as f64 / median / 1e6)
        }
        _ => String::new(),
    };
    println!(
        "{name:<32} min {:>10}  median {:>10}  mean {:>10}  ({samples} samples x {iters} iters){tp}",
        fmt_time(min),
        fmt_time(median),
        fmt_time(mean),
    );
}

fn fmt_time(s: f64) -> String {
    if s >= 1.0 {
        format!("{s:.3} s")
    } else if s >= 1e-3 {
        format!("{:.3} ms", s * 1e3)
    } else if s >= 1e-6 {
        format!("{:.3} us", s * 1e6)
    } else {
        format!("{:.1} ns", s * 1e9)
    }
}

/// Print which compiled body each kernel family runs on this CPU, as the
/// header of a kernel bench, so that a recorded median names the body it
/// timed: `kernels` pairs a name with its [`Tier`].
pub fn print_tiers(kernels: &[(&str, Tier)]) {
    let rows: Vec<String> = kernels
        .iter()
        .map(|(name, t)| format!("{name} at {}", t.name()))
        .collect();
    println!(
        "vector tiers (this CPU: {}): {}",
        simd::detected().name(),
        rows.join(", ")
    );
}

/// Criterion-style group definition: binds a config and a target list to a
/// function named after the group.
#[macro_export]
macro_rules! criterion_group {
    (name = $name:ident; config = $config:expr; targets = $($target:path),+ $(,)?) => {
        fn $name() {
            let mut c = $config;
            $( $target(&mut c); )+
        }
    };
    ($name:ident, $($target:path),+ $(,)?) => {
        fn $name() {
            let mut c = $crate::harness::Criterion::default();
            $( $target(&mut c); )+
        }
    };
}

/// Criterion-style entry point: runs each group.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $( $group(); )+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn filter_keeps_non_flag_arguments_and_matches_group_slash_id() {
        let args = ["galerkin", "--bench", "-q", "spmv_poisson"].map(String::from);
        let f = filters(args.into_iter());
        assert_eq!(f, ["galerkin", "spmv_poisson"]);
        assert!(selected(&f, "galerkin/elasticity_ap"));
        assert!(selected(&f, "spmv_poisson64/sweep"));
        assert!(!selected(&f, "spmm/8"));
        assert!(filters(["--bench".to_string()].into_iter()).is_empty());
        assert!(selected(&[], "anything/at_all"));
    }
}
