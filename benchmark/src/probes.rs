//! Machine roofs and kernel probes of a traced run.
//!
//! The roofs are measured in the same run as the rates they bound. Bytes and
//! flops of the kernels are *computed* from array sizes: there is no model of
//! cache misses behind them.

use crate::api::{self, Csr, DMat, Problem, Scalar};
use crate::stats::median;
use crate::workloads::{Shape, SplitMix};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// Median seconds of one call of `f`, over at least three calls and at least
/// `budget_s` seconds of them, after one call to warm up.
fn time_call(budget_s: f64, mut f: impl FnMut()) -> f64 {
    f();
    let mut samples = Vec::new();
    let start = Instant::now();
    while samples.len() < 3 || start.elapsed().as_secs_f64() < budget_s {
        let t0 = Instant::now();
        f();
        samples.push(t0.elapsed().as_secs_f64());
    }
    median(&samples)
}

// ---------------------------------------------------------------------------
// Machine
// ---------------------------------------------------------------------------

#[derive(Debug, Clone)]
pub struct Machine {
    pub nproc: usize,
    /// Largest cache sysfs reports for cpu0 (`llc_from_sysfs` says whether
    /// it was readable; 32 MiB is assumed when not).
    pub llc_bytes: usize,
    pub llc_from_sysfs: bool,
    /// Size of each of the three triad arrays.
    pub triad_array_bytes: usize,
    pub triad_gbps: f64,
    pub fma_gflops: f64,
}

fn parse_cache_size(s: &str) -> Option<usize> {
    let s = s.trim();
    let (digits, scale) = match s.as_bytes().last()? {
        b'K' => (&s[..s.len() - 1], 1 << 10),
        b'M' => (&s[..s.len() - 1], 1 << 20),
        b'G' => (&s[..s.len() - 1], 1 << 30),
        _ => (s, 1),
    };
    digits.parse::<usize>().ok().map(|v| v * scale)
}

fn llc_from_sysfs() -> Option<usize> {
    (0..8)
        .filter_map(|i| {
            let path = format!("/sys/devices/system/cpu/cpu0/cache/index{i}/size");
            parse_cache_size(&std::fs::read_to_string(path).ok()?)
        })
        .max()
}

fn mem_available_bytes() -> Option<usize> {
    let text = std::fs::read_to_string("/proc/meminfo").ok()?;
    let line = text.lines().find(|l| l.starts_with("MemAvailable:"))?;
    let kb: usize = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb << 10)
}

/// STREAM triad `a = b + s·c` over three arrays, each split across
/// `threads` threads; best of three passes, 24 bytes per element.
fn triad_gbps(len: usize, threads: usize) -> f64 {
    let mut a = vec![0.0f64; len];
    let b = vec![1.0f64; len];
    let c = vec![2.0f64; len];
    let chunk = len.div_ceil(threads);
    let mut best = f64::INFINITY;
    for _ in 0..3 {
        let t0 = Instant::now();
        std::thread::scope(|s| {
            for ((a, b), c) in a
                .chunks_mut(chunk)
                .zip(b.chunks(chunk))
                .zip(c.chunks(chunk))
            {
                s.spawn(move || {
                    for ((a, b), c) in a.iter_mut().zip(b).zip(c) {
                        *a = b + 3.0 * c;
                    }
                });
            }
        });
        best = best.min(t0.elapsed().as_secs_f64());
        black_box(&mut a);
    }
    (3 * 8 * len) as f64 / best * 1e-9
}

/// Multiply-add rate with every thread busy. The multiply and the add are
/// separate operations, as the build's target features compile them (there
/// is no `-C target-cpu`), so this is the roof of this build, not the chip's.
fn fma_gflops(threads: usize) -> f64 {
    const LANES: usize = 32;
    const STEPS: usize = 4_000_000;
    let t0 = Instant::now();
    std::thread::scope(|s| {
        for t in 0..threads {
            s.spawn(move || {
                let mut acc = [0.0f64; LANES];
                for (i, v) in acc.iter_mut().enumerate() {
                    *v = (i + t) as f64 * 1e-3;
                }
                let (m, a) = black_box((0.999_999f64, 1e-6f64));
                for _ in 0..STEPS {
                    for v in &mut acc {
                        *v = *v * m + a;
                    }
                }
                black_box(acc);
            });
        }
    });
    (2 * LANES * STEPS * threads) as f64 / t0.elapsed().as_secs_f64() * 1e-9
}

/// Upper limit of one triad array. A virtual machine may report its host's
/// whole last-level cache (260 MiB where this was written) and back fresh
/// memory slowly (20 s per GiB there), so four times the cache is not always
/// affordable; a traced run notes when the arrays are smaller than that.
const TRIAD_ARRAY_CAP: usize = 128 << 20;

pub fn machine(threads: usize) -> Machine {
    let sysfs = llc_from_sysfs();
    let llc_bytes = sysfs.unwrap_or(32 << 20);
    // Each array four times the last-level cache, unless that is more than
    // the cap or the three of them more than half of the memory that is free.
    let cap = mem_available_bytes().map_or(TRIAD_ARRAY_CAP, |m| TRIAD_ARRAY_CAP.min(m / 6));
    let triad_array_bytes = (4 * llc_bytes).min(cap);
    Machine {
        nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
        llc_bytes,
        llc_from_sysfs: sysfs.is_some(),
        triad_array_bytes,
        triad_gbps: triad_gbps(triad_array_bytes / 8, threads),
        fma_gflops: fma_gflops(threads),
    }
}

impl Machine {
    /// The roofline bound, in GF/s, of a kernel doing `flops` on `bytes`.
    pub fn roof_gflops(&self, flops: f64, bytes: f64) -> f64 {
        self.fma_gflops.min(self.triad_gbps * flops / bytes)
    }
}

// ---------------------------------------------------------------------------
// Kernels at the workload's own shapes
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, Default)]
pub struct Kernels {
    pub trisolve_p1_us_per_col: f64,
    pub trisolve_p8_us_per_col: f64,
    pub gram_gflops: f64,
    pub gram_roof_frac: f64,
    pub orth_step_us: f64,
    pub cholqr_us: f64,
    pub eig_us: f64,
    pub dispatch_us: f64,
}

/// An `nrows × ncols` block of deterministic filler in [-1, 1).
fn filled<S: Scalar>(rng: &mut SplitMix, nrows: usize, ncols: usize) -> DMat<S> {
    DMat::from_fn(nrows, ncols, |_, _| {
        S::from_parts(rng.signed_unit(), rng.signed_unit())
    })
}

/// Flops of one scalar multiply-add: 2 real, 8 complex.
fn madd_flops<S: Scalar>() -> f64 {
    if S::is_complex() {
        8.0
    } else {
        2.0
    }
}

/// An exactly orthonormal `n × cols` basis stored densely: column `j` lives
/// on the rows `≡ j (mod cols)`. It costs the kernels what any dense basis
/// costs and keeps the orthogonalization on its ordinary path.
fn orthonormal_basis<S: Scalar>(n: usize, cols: usize) -> DMat<S> {
    let mut v = DMat::<S>::zeros(n, cols);
    for j in 0..cols {
        let rows = (n - j).div_ceil(cols);
        let scale = S::from_f64(1.0 / (rows as f64).sqrt());
        for i in (j..n).step_by(cols) {
            v[(i, j)] = scale;
        }
    }
    v
}

/// Probe the dense, sparse and pool kernels at the shapes `shape` gives.
/// `eig` is measured only where the workload refreshes its recycle space on
/// a changing operator.
pub fn kernels<S: Scalar>(
    problem: &Problem<S>,
    shape: &Shape,
    with_eig: bool,
    machine: &Machine,
) -> Kernels {
    let mut rng = SplitMix(0x5EED);
    let (n, p) = (shape.n, shape.block_width);
    let basis_cols = (shape.restart * p).min(n);
    let mut k = Kernels::default();

    // Triangular sweeps on one subdomain-sized direct factor, for one
    // column and for eight: Fig. 6's BLAS-2 → BLAS-3 amortisation.
    let part = api::partition(&problem.coords, 16.min(n));
    if let Some(factor) = api::factor_rows(&problem.a, &api::part_rows(&part, 0)) {
        for (cols, out) in [
            (1, &mut k.trisolve_p1_us_per_col),
            (8, &mut k.trisolve_p8_us_per_col),
        ] {
            let rhs: DMat<S> = filled(&mut rng, factor.n(), cols);
            let mut b = rhs.clone();
            let mut scratch = DMat::zeros(factor.n(), cols);
            let secs = time_call(0.05, || {
                b.copy_from(&rhs);
                factor.solve(&mut b, &mut scratch);
                black_box(&b);
            });
            *out = secs * 1e6 / cols as f64;
        }
    }

    // Gram product VᴴW of the orthogonalization, V = n × (restart·p).
    let v: DMat<S> = orthonormal_basis(n, basis_cols);
    let w: DMat<S> = filled(&mut rng, n, p);
    let secs = time_call(0.1, || {
        black_box(api::gram(&v, &w));
    });
    let flops = madd_flops::<S>() * (n * basis_cols * p) as f64;
    let bytes = ((n * basis_cols + n * p) * shape.scalar_bytes) as f64;
    k.gram_gflops = flops / secs * 1e-9;
    k.gram_roof_frac = k.gram_gflops / machine.roof_gflops(flops, bytes);

    // One fused orthogonalization step against a half-full basis.
    let mut work = w.clone();
    k.orth_step_us = 1e6
        * time_call(0.1, || {
            work.copy_from(&w);
            black_box(api::orth_step(&v, basis_cols / 2, &mut work));
        });
    k.cholqr_us = 1e6
        * time_call(0.05, || {
            work.copy_from(&w);
            api::cholqr(&mut work);
            black_box(&work);
        });

    // The refresh's generalized eigenproblem has kc + (m − k)·p = restart·p
    // rows: T = GᴴG of a random G, W a perturbed identity.
    if with_eig {
        let size = shape.restart * p;
        let g: DMat<S> = filled(&mut rng, size + p, size);
        let t = api::gram(&g, &g);
        let mut wm: DMat<S> = filled(&mut rng, size, size);
        wm.scale(S::from_f64(0.01));
        for i in 0..size {
            wm[(i, i)] = S::one();
        }
        k.eig_us = 1e6
            * time_call(0.05, || {
                black_box(api::eig_generalized(&t, &wm));
            });
    }

    // An empty parallel loop over 4096 indices: the pool's dispatch cost.
    k.dispatch_us = 1e6 / 1000.0
        * time_call(0.05, || {
            for _ in 0..1000 {
                api::dispatch_empty(4096);
            }
        });
    k
}

// ---------------------------------------------------------------------------
// A live socket world of two ranks
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, Default)]
pub struct Par {
    pub allreduce_p2_us: f64,
    pub pingpong_p2_us: f64,
    pub halo_p2_us: f64,
    pub replay_comm_s: f64,
    pub wire_msgs: u64,
    pub wire_bytes: u64,
}

/// Time the transport primitives on two socket ranks, and replay the
/// reductions the workload recorded (`sizes`: payload doubles → count)
/// through the same all-reduce. At most `REPLAY_REPS` of each size are
/// played and the time scaled to the count.
pub fn par<S: Scalar>(
    a: &Csr<S>,
    cols: usize,
    sizes: &BTreeMap<usize, u64>,
) -> Result<Par, String> {
    let world = api::World::spawn_socket(2)?;
    let measured = par_on(&world, a, cols, sizes);
    // The workers are stopped and waited for whatever happened above.
    let wire = world.shutdown();
    let mut out = measured?;
    (out.wire_msgs, out.wire_bytes) = wire?;
    Ok(out)
}

fn par_on<S: Scalar>(
    world: &api::World,
    a: &Csr<S>,
    cols: usize,
    sizes: &BTreeMap<usize, u64>,
) -> Result<Par, String> {
    const REPS: usize = 1000;
    const REPLAY_REPS: u64 = 200;
    let total: u64 = sizes.values().sum();
    let mean_len = match total {
        0 => 1,
        _ => (sizes.iter().map(|(len, c)| *len as u64 * c).sum::<u64>() / total).max(1),
    };
    let mut out = Par {
        allreduce_p2_us: world.all_reduce_s(mean_len as usize, REPS)? / REPS as f64 * 1e6,
        pingpong_p2_us: world.ping_pong_s(1, REPS)? / REPS as f64 * 1e6,
        halo_p2_us: world.halo_s(a, cols, REPS)? / REPS as f64 * 1e6,
        ..Par::default()
    };
    for (&len, &count) in sizes {
        let reps = count.min(REPLAY_REPS);
        out.replay_comm_s += world.all_reduce_s(len, reps as usize)? * count as f64 / reps as f64;
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cache_sizes_parse() {
        assert_eq!(parse_cache_size("48K\n"), Some(48 << 10));
        assert_eq!(parse_cache_size("2048K"), Some(2 << 20));
        assert_eq!(parse_cache_size("32M"), Some(32 << 20));
        assert_eq!(parse_cache_size("512"), Some(512));
        assert_eq!(parse_cache_size("big"), None);
        assert_eq!(parse_cache_size(""), None);
    }

    #[test]
    fn probe_basis_is_orthonormal() {
        let v = orthonormal_basis::<f64>(23, 5);
        let g = api::gram(&v, &v);
        for i in 0..5 {
            for j in 0..5 {
                let want = if i == j { 1.0 } else { 0.0 };
                assert!(
                    (g[(i, j)] - want).abs() < 1e-14,
                    "g[{i},{j}] = {}",
                    g[(i, j)]
                );
            }
        }
    }

    #[test]
    fn roof_is_the_lower_of_compute_and_bandwidth() {
        let m = Machine {
            nproc: 2,
            llc_bytes: 1 << 20,
            llc_from_sysfs: true,
            triad_array_bytes: 4 << 20,
            triad_gbps: 10.0,
            fma_gflops: 8.0,
        };
        assert_eq!(m.roof_gflops(1.0, 4.0), 2.5);
        assert_eq!(m.roof_gflops(4.0, 1.0), 8.0);
    }
}
