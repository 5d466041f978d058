//! The benchmark's vocabulary: metric names, units and bounds, and the
//! assembly of the per-layer metrics from a traced run.

use crate::probes::{Kernels, Machine, Par};
use crate::stats::median;
use crate::trace::RepLayers;
use crate::workloads::{Compare, Driver, Rep};

/// An end-to-end metric: lower is better for all three.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    /// Share of the base median by which the metric may worsen.
    pub bound: f64,
    /// Absolute worsening below which a change is never a regression: tiny
    /// medians (1 ms of set-up, 10 MB of memory) move by more than their
    /// bound for no reason of the program's.
    pub floor: f64,
}

pub const SETUP_S: &str = "setup_s";
pub const SOLVE_S: &str = "solve_s";
pub const PEAK_RSS_MB: &str = "peak_rss_mb";

pub const END_TO_END: [EndToEnd; 3] = [
    EndToEnd {
        name: SETUP_S,
        unit: "s",
        bound: 0.25,
        floor: 0.05,
    },
    EndToEnd {
        name: SOLVE_S,
        unit: "s",
        bound: 0.25,
        floor: 0.0,
    },
    EndToEnd {
        name: PEAK_RSS_MB,
        unit: "MB",
        bound: 0.25,
        floor: 8.0,
    },
];

/// Per-layer metrics: (name, unit, which direction is better). No bounds.
pub const PER_LAYER: [(&str, &str, &str); 61] = [
    ("machine.nproc", "count", "higher"),
    ("machine.llc_bytes", "bytes", "higher"),
    ("machine.triad_array_bytes", "bytes", "higher"),
    ("machine.triad_gbps", "GB/s", "higher"),
    ("machine.fma_gflops", "GF/s", "higher"),
    ("pde.assemble_s", "s", "lower"),
    ("pde.n", "count", "lower"),
    ("pde.nnz", "count", "lower"),
    ("precond.setup_s", "s", "lower"),
    ("precond.apply_s", "s", "lower"),
    ("precond.apply_calls", "count", "lower"),
    ("precond.apply_cols", "count", "lower"),
    ("precond.apply_us_per_col", "us", "lower"),
    ("precond.apply_gbps", "GB/s", "higher"),
    ("precond.levels", "count", "lower"),
    ("precond.op_complexity", "ratio", "lower"),
    ("sparse.spmm_s", "s", "lower"),
    ("sparse.spmm_calls", "count", "lower"),
    ("sparse.spmm_cols", "count", "lower"),
    ("sparse.spmm_gbps", "GB/s", "higher"),
    ("sparse.spmm_gflops", "GF/s", "higher"),
    ("sparse.spmm_roof_frac", "ratio", "higher"),
    ("sparse.trisolve_p1_us_per_col", "us", "lower"),
    ("sparse.trisolve_p8_us_per_col", "us", "lower"),
    ("dense.gram_gflops", "GF/s", "higher"),
    ("dense.gram_roof_frac", "ratio", "higher"),
    ("dense.orth_step_us", "us", "lower"),
    ("dense.cholqr_us", "us", "lower"),
    ("dense.eig_us", "us", "lower"),
    ("core.traced_solve_s", "s", "lower"),
    ("core.self_s", "s", "lower"),
    ("core.iters", "count", "lower"),
    ("core.us_per_iter", "us", "lower"),
    ("core.baseline_s", "s", "lower"),
    ("core.recycled_s", "s", "lower"),
    ("core.block_s", "s", "lower"),
    ("core.pseudo_s", "s", "lower"),
    ("core.lgmres_s", "s", "lower"),
    ("core.cold_solve_s", "s", "lower"),
    ("core.warm_solve_s", "s", "lower"),
    ("core.baseline_iters", "count", "lower"),
    ("core.recycled_iters", "count", "lower"),
    ("core.recycle_iter_ratio", "ratio", "lower"),
    ("core.max_true_relres", "ratio", "lower"),
    ("core.iters_stable", "count", "higher"),
    ("par.reductions", "count", "lower"),
    ("par.reduce_bytes", "bytes", "lower"),
    ("par.fused_parts", "count", "lower"),
    ("par.reductions_per_iter", "ratio", "lower"),
    ("par.allreduce_p2_us", "us", "lower"),
    ("par.pingpong_p2_us", "us", "lower"),
    ("par.halo_p2_us", "us", "lower"),
    ("par.replay_comm_s", "s", "lower"),
    ("par.wire_msgs", "count", "lower"),
    ("par.wire_bytes", "bytes", "lower"),
    ("rt.threads", "count", "higher"),
    ("rt.dispatch_us", "us", "lower"),
    ("rt.solve_s_t2", "s", "lower"),
    ("rt.thread_speedup", "ratio", "higher"),
    ("obs.recorder_overhead_frac", "ratio", "lower"),
    ("obs.trace_overhead_frac", "ratio", "lower"),
];

/// Everything a traced run measured, before it is flattened into metrics.
pub struct Traced<'a> {
    /// The traced repetitions and the layer totals of their spans.
    pub reps: &'a [Rep],
    pub layers: &'a [RepLayers],
    /// `solve_s` of the untraced repetitions run between the traced ones,
    /// and of the one repetition with the program's recorder attached.
    pub untraced_solve_s: &'a [f64],
    pub recorder_solve_s: f64,
    /// `solve_s` of one repetition in a process with two threads.
    pub solve_s_t2: f64,
    pub iters_stable: bool,
    pub threads: usize,
    pub machine: &'a Machine,
    pub kernels: &'a Kernels,
    pub par: &'a Par,
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Median over the traced repetitions of a per-repetition quantity.
fn over<T>(items: &[T], f: impl Fn(&T) -> f64) -> f64 {
    // Adding 0.0 turns the -0.0 an interpolated quartile of zeros can be into 0.0.
    median(&items.iter().map(f).collect::<Vec<_>>()) + 0.0
}

fn fastest(secs: impl Iterator<Item = f64>) -> f64 {
    secs.fold(f64::INFINITY, f64::min)
}

fn secs_where(rep: &Rep, pick: impl Fn(Driver, bool) -> bool) -> (f64, usize) {
    let picked: Vec<f64> = rep
        .solves
        .iter()
        .filter(|s| pick(s.driver, s.cold))
        .map(|s| s.secs)
        .collect();
    (picked.iter().sum(), picked.len())
}

/// Flatten a traced run into one value per `PER_LAYER` name, in that order.
pub fn per_layer(t: &Traced<'_>) -> Vec<(&'static str, f64)> {
    let rep0 = &t.reps[0];
    let shape = &rep0.shape;
    let madd = if shape.scalar_bytes == 16 { 8.0 } else { 2.0 };
    let driver_s = |d: Driver| over(t.reps, |r| secs_where(r, |dr, _| dr == d).0);
    let recycling = |d: Driver| d != Driver::Gmres && d != Driver::Lgmres;
    let mean_s = |cold: bool| {
        over(t.reps, |r| {
            let (secs, count) = secs_where(r, |d, c| recycling(d) && c == cold);
            ratio(secs, count as f64)
        })
    };
    let iters_where = |c: Compare| -> f64 {
        rep0.solves
            .iter()
            .filter(|s| s.compare == c)
            .map(|s| s.iterations as f64)
            .sum::<f64>()
            + 0.0
    };
    let iters: f64 = rep0.iterations().iter().sum::<usize>() as f64;

    let spmm_s = over(t.layers, |l| l.spmm_s);
    let spmm_calls = t.layers[0].spmm_calls as f64;
    let spmm_cols = t.layers[0].spmm_cols as f64;
    // Computed: the matrix once per call, x read and y written per column.
    let spmm_bytes = t.layers[0].spmm_matrix_bytes as f64
        + spmm_cols * (2 * shape.n * shape.scalar_bytes) as f64;
    let spmm_flops = madd * shape.nnz as f64 * spmm_cols;
    let spmm_gflops = ratio(spmm_flops, spmm_s) * 1e-9;

    let apply_s = over(t.layers, |l| l.precond_apply_s);
    let apply_calls = t.layers[0].precond_apply_calls as f64;
    let apply_cols = t.layers[0].precond_apply_cols as f64;
    // Over the applies that know what they stream (Jacobi does not).
    let apply_gbps = ratio(
        t.layers[0].precond_bytes as f64,
        over(t.layers, |l| l.precond_bytes_s),
    ) * 1e-9;

    let traced_solve_s = over(t.layers, |l| l.solve_s);
    let core_self_s = over(t.layers, |l| l.core_self_s);
    let untraced = median(t.untraced_solve_s);

    let values = vec![
        ("machine.nproc", t.machine.nproc as f64),
        ("machine.llc_bytes", t.machine.llc_bytes as f64),
        (
            "machine.triad_array_bytes",
            t.machine.triad_array_bytes as f64,
        ),
        ("machine.triad_gbps", t.machine.triad_gbps),
        ("machine.fma_gflops", t.machine.fma_gflops),
        ("pde.assemble_s", over(t.reps, |r| r.assemble_s)),
        ("pde.n", shape.n as f64),
        ("pde.nnz", shape.nnz as f64),
        ("precond.setup_s", over(t.reps, |r| r.precond_setup_s)),
        ("precond.apply_s", apply_s),
        ("precond.apply_calls", apply_calls),
        ("precond.apply_cols", apply_cols),
        ("precond.apply_us_per_col", ratio(apply_s, apply_cols) * 1e6),
        ("precond.apply_gbps", apply_gbps),
        ("precond.levels", shape.levels as f64),
        ("precond.op_complexity", shape.op_complexity),
        ("sparse.spmm_s", spmm_s),
        ("sparse.spmm_calls", spmm_calls),
        ("sparse.spmm_cols", spmm_cols),
        ("sparse.spmm_gbps", ratio(spmm_bytes, spmm_s) * 1e-9),
        ("sparse.spmm_gflops", spmm_gflops),
        (
            "sparse.spmm_roof_frac",
            ratio(spmm_gflops, t.machine.roof_gflops(spmm_flops, spmm_bytes)),
        ),
        (
            "sparse.trisolve_p1_us_per_col",
            t.kernels.trisolve_p1_us_per_col,
        ),
        (
            "sparse.trisolve_p8_us_per_col",
            t.kernels.trisolve_p8_us_per_col,
        ),
        ("dense.gram_gflops", t.kernels.gram_gflops),
        ("dense.gram_roof_frac", t.kernels.gram_roof_frac),
        ("dense.orth_step_us", t.kernels.orth_step_us),
        ("dense.cholqr_us", t.kernels.cholqr_us),
        ("dense.eig_us", t.kernels.eig_us),
        ("core.traced_solve_s", traced_solve_s),
        ("core.self_s", core_self_s),
        ("core.iters", iters),
        ("core.us_per_iter", ratio(core_self_s, iters) * 1e6),
        ("core.baseline_s", driver_s(Driver::Gmres)),
        ("core.recycled_s", driver_s(Driver::GcroDr)),
        ("core.block_s", driver_s(Driver::BlockGcroDr)),
        ("core.pseudo_s", driver_s(Driver::PseudoGcroDr)),
        ("core.lgmres_s", driver_s(Driver::Lgmres)),
        ("core.cold_solve_s", mean_s(true)),
        ("core.warm_solve_s", mean_s(false)),
        ("core.baseline_iters", iters_where(Compare::Baseline)),
        ("core.recycled_iters", iters_where(Compare::Recycled)),
        (
            "core.recycle_iter_ratio",
            ratio(
                iters_where(Compare::Recycled),
                iters_where(Compare::Baseline),
            ),
        ),
        (
            "core.max_true_relres",
            t.reps
                .iter()
                .flat_map(|r| &r.solves)
                .map(|s| s.max_relres)
                .fold(0.0, f64::max),
        ),
        ("core.iters_stable", f64::from(u8::from(t.iters_stable))),
        ("par.reductions", rep0.comm.reductions as f64),
        ("par.reduce_bytes", rep0.comm.reduce_bytes as f64),
        ("par.fused_parts", rep0.comm.fused_parts as f64),
        (
            "par.reductions_per_iter",
            ratio(rep0.comm.reductions as f64, iters),
        ),
        ("par.allreduce_p2_us", t.par.allreduce_p2_us),
        ("par.pingpong_p2_us", t.par.pingpong_p2_us),
        ("par.halo_p2_us", t.par.halo_p2_us),
        ("par.replay_comm_s", t.par.replay_comm_s),
        ("par.wire_msgs", t.par.wire_msgs as f64),
        ("par.wire_bytes", t.par.wire_bytes as f64),
        ("rt.threads", t.threads as f64),
        ("rt.dispatch_us", t.kernels.dispatch_us),
        ("rt.solve_s_t2", t.solve_s_t2),
        ("rt.thread_speedup", ratio(untraced, t.solve_s_t2)),
        (
            "obs.recorder_overhead_frac",
            ratio(t.recorder_solve_s, untraced) - 1.0,
        ),
        // Fastest against fastest: the machine's noise only ever adds time,
        // and with two or three repetitions a side the medians carry it.
        (
            "obs.trace_overhead_frac",
            ratio(
                fastest(t.reps.iter().map(Rep::solve_s)),
                fastest(t.untraced_solve_s.iter().copied()),
            ) - 1.0,
        ),
    ];
    assert!(
        values.iter().map(|v| v.0).eq(PER_LAYER.iter().map(|m| m.0)),
        "per-layer values and their definitions must list the same names in the same order"
    );
    values
}

pub fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .map(|m| (m.name, m.unit))
        .chain(PER_LAYER.iter().map(|m| (m.0, m.1)))
        .find(|(n, _)| *n == name)
        .map(|(_, u)| u)
        .expect("a metric the benchmark defines")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::Json;

    /// `BENCHMARK.json` at the root of the repository must declare exactly
    /// the metrics, units and bounds this file defines.
    #[test]
    fn benchmark_json_declares_what_the_code_reports() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let doc = Json::parse(&text).expect("valid JSON");
        let field = |v: &Json, k: &str| v.get(k).and_then(Json::as_str).unwrap_or("?").to_string();
        let declared: Vec<(String, String, f64)> = doc
            .get("end_to_end")
            .and_then(Json::as_array)
            .expect("end_to_end")
            .iter()
            .map(|m| {
                assert_eq!(field(m, "better"), "lower");
                (
                    field(m, "name"),
                    field(m, "unit"),
                    m.get("bound").and_then(Json::as_f64).unwrap(),
                )
            })
            .collect();
        let defined: Vec<(String, String, f64)> = END_TO_END
            .iter()
            .map(|m| (m.name.to_string(), m.unit.to_string(), m.bound))
            .collect();
        assert_eq!(declared, defined);

        let declared: Vec<(String, String, String)> = doc
            .get("per_layer")
            .and_then(Json::as_array)
            .expect("per_layer")
            .iter()
            .map(|m| (field(m, "name"), field(m, "unit"), field(m, "better")))
            .collect();
        let defined: Vec<(String, String, String)> = PER_LAYER
            .iter()
            .map(|m| (m.0.to_string(), m.1.to_string(), m.2.to_string()))
            .collect();
        assert_eq!(declared, defined);

        let workloads: Vec<String> = doc
            .get("workloads")
            .and_then(Json::as_array)
            .expect("workloads")
            .iter()
            .map(|w| field(w, "name"))
            .collect();
        let names: Vec<&str> = crate::workloads::Workload::ALL
            .iter()
            .map(|w| w.name())
            .collect();
        assert_eq!(workloads, names);
    }
}
