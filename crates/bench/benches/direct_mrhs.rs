//! Fig. 6 kernel: banded direct solve with p right-hand sides, on the whole
//! Maxwell system and on the subdomain factors the Schwarz apply runs it on.

use kryst_bench::harness::{BenchmarkId, Criterion, Throughput};
use kryst_bench::{criterion_group, criterion_main};
use kryst_dense::DMat;
use kryst_par::PrecondOp;
use kryst_pde::maxwell::{maxwell3d, MaxwellParams};
use kryst_pde::poisson::poisson2d;
use kryst_precond::{Schwarz, SchwarzOpts, SchwarzVariant};
use kryst_scalar::{Scalar, C64};
use kryst_sparse::partition::{grow_overlap, partition_rcb};
use kryst_sparse::{Csr, SparseDirect};

fn bench_direct(c: &mut Criterion) {
    let (prob, _) = maxwell3d(&MaxwellParams::matching_solution(8));
    let n = prob.a.nrows();
    let fac = SparseDirect::factor(&prob.a).expect("nonsingular");
    let mut g = c.benchmark_group("direct_solve_mrhs");
    for p in [1usize, 4, 16, 64] {
        let b = DMat::from_fn(n, p, |i, j| {
            C64::new(((i + j) % 7) as f64 - 3.0, ((i * 3 + j) % 5) as f64 - 2.0)
        });
        g.throughput(Throughput::Elements((n * p) as u64));
        let (mut x, mut scratch) = (b.clone(), b.clone());
        g.bench_with_input(BenchmarkId::from_parameter(p), &p, |bch, _| {
            bch.iter(|| {
                x.copy_from(&b);
                fac.solve_in_place_ws(&mut x, &mut scratch, 8, 1);
            });
        });
    }
    g.finish();
}

/// The packed solve alone on every factor of `facs`, `p` right-hand sides
/// each (refilled per solve, so the values neither grow nor decay).
/// Throughput is factor entries × columns: multiply–adds per second.
fn bench_packed<S: Scalar>(c: &mut Criterion, group: &str, facs: &[SparseDirect<S>], p: usize) {
    let rhs: Vec<Vec<S>> = facs
        .iter()
        .map(|f| {
            (0..f.n() * p)
                .map(|k| S::from_parts((k % 7) as f64 - 3.25, (k % 5) as f64 - 1.75))
                .collect()
        })
        .collect();
    let mut blocks = rhs.clone();
    let entries: usize = facs.iter().map(|f| f.factor_len()).sum();
    let mut g = c.benchmark_group(group);
    g.throughput(Throughput::Elements((entries * p) as u64));
    g.bench_function(format!("{} factors", facs.len()), |bch| {
        bch.iter(|| {
            for ((f, block), rhs) in facs.iter().zip(&mut blocks).zip(&rhs) {
                block.copy_from_slice(rhs);
                f.solve_packed(block);
            }
        });
    });
    g.finish();
}

/// The shapes of the `maxwell_block_rhs32` workload: Maxwell `nc = 8` under
/// ORAS on 16 subdomains of overlap 2, the local operators built as
/// `Schwarz::new` builds them (impedance shift on the interface rows).
fn bench_subdomains(c: &mut Criterion) {
    let params = MaxwellParams::matching_solution(8);
    let (prob, _) = maxwell3d(&params);
    let part = partition_rcb(&prob.coords, 16);
    let shift = C64::from_parts(0.0, params.omega);
    let facs: Vec<SparseDirect<C64>> = grow_overlap(&prob.a, &part, 2)
        .iter()
        .map(|set| {
            let mut inset = vec![false; prob.a.nrows()];
            for &g in set {
                inset[g] = true;
            }
            let mut local: Csr<C64> = prob.a.principal_submatrix(set);
            for (li, &g) in set.iter().enumerate() {
                if prob.a.row_indices(g).iter().any(|&j| !inset[j]) {
                    let pos = local.row_indices(li).binary_search(&li).expect("diagonal");
                    local.row_values_mut(li)[pos] += shift;
                }
            }
            SparseDirect::factor(&local).expect("nonsingular")
        })
        .collect();
    bench_packed(c, "trisolve_oras_c64_p1", &facs, 1);
    bench_packed(c, "trisolve_oras_c64_p8", &facs, 8);

    let oras = Schwarz::new(
        &prob.a,
        &part,
        &SchwarzOpts {
            variant: SchwarzVariant::Oras,
            overlap: 2,
            impedance: params.omega,
        },
    );
    let n = prob.a.nrows();
    let r = DMat::from_fn(n, 8, |i, j| {
        C64::from_parts(((i + j) % 7) as f64 - 3.0, ((i * 3 + j) % 5) as f64 - 2.0)
    });
    let mut z = DMat::zeros(n, 8);
    let mut g = c.benchmark_group("oras_apply_maxwell8_p8");
    g.throughput(Throughput::Elements((n * 8) as u64));
    g.bench_function("apply", |bch| bch.iter(|| oras.apply(&r, &mut z)));
    g.finish();

    // One of 16 parts of Poisson 384², no overlap: the factor the
    // repository benchmark's `sparse.trisolve_*` probe times.
    let poisson = poisson2d::<f64>(384, 384);
    let rows = partition_rcb(&poisson.coords, 16)
        .owned_sets()
        .swap_remove(0);
    let fac = SparseDirect::factor(&poisson.a.principal_submatrix(&rows)).expect("SPD");
    let fac = [fac];
    bench_packed(c, "trisolve_f64_p1", &fac, 1);
    bench_packed(c, "trisolve_f64_p8", &fac, 8);
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10).measurement_time(std::time::Duration::from_secs(3));
    targets = bench_direct, bench_subdomains
}
criterion_main!(benches);
