//! One-level overlapping Schwarz preconditioners: ASM, RAS, ORAS.
//!
//! Implements the paper's eq. (6),
//! `M⁻¹ = Σ_i R_iᵀ·D_i·B_i⁻¹·R_i`, where the overlapping decomposition comes
//! from [`kryst_sparse::partition`] and each local operator is factored once
//! with the sparse direct solver (multi-RHS solves then amortize the factor
//! — the §V-B3 observation that motivates block methods).
//!
//! Variants:
//! * **ASM** — `B_i = R_i·A·R_iᵀ`, `D_i = I` (additive Schwarz),
//! * **RAS** — same `B_i`, restricted partition of unity (Cai & Sarkis),
//! * **ORAS** — restricted + *optimized transmission conditions*: the local
//!   operators get an impedance (Robin) modification `+i·η` on interface
//!   rows, the algebraic emulation of the optimized boundary conditions the
//!   paper uses for Maxwell (see DESIGN.md).

use kryst_dense::DMat;
use kryst_par::PrecondOp;
use kryst_rt::par::{for_each_range, map_vec};
use kryst_scalar::Scalar;
use kryst_sparse::band::{pack, unpack};
use kryst_sparse::partition::{
    grow_overlap, partition_of_unity, restricted_partition_of_unity, Partition,
};
use kryst_sparse::{Csr, SparseDirect};
use std::sync::Mutex;

/// Schwarz flavor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchwarzVariant {
    /// Additive Schwarz (symmetric, no partition of unity).
    Asm,
    /// Restricted additive Schwarz.
    Ras,
    /// Optimized restricted additive Schwarz (impedance interface
    /// conditions; intended for complex/indefinite problems).
    Oras,
}

/// Construction options.
#[derive(Debug, Clone, Copy)]
pub struct SchwarzOpts {
    /// Variant.
    pub variant: SchwarzVariant,
    /// Overlap width δ (graph layers).
    pub overlap: usize,
    /// Impedance coefficient η for ORAS interface conditions (ignored by
    /// ASM/RAS; for real scalars the imaginary part vanishes and ORAS
    /// degenerates to RAS).
    pub impedance: f64,
}

impl Default for SchwarzOpts {
    fn default() -> Self {
        Self {
            variant: SchwarzVariant::Ras,
            overlap: 1,
            impedance: 0.0,
        }
    }
}

/// One overlapping subdomain: its factored local operator and the persistent
/// packed right-hand-side block (`n_i × p` in the factor's tile layout). The
/// block grows on the first apply (and again only for a wider `p`), so
/// steady-state applies are allocation-free. One mutex per subdomain: the
/// parallel sweep assigns each subdomain to exactly one worker, so locks
/// never contend.
struct Subdomain<S: Scalar> {
    /// Global index of each row of the factor's packed block: the
    /// overlapping set composed with the factor's ordering.
    rows: Vec<usize>,
    /// Partition-of-unity weights aligned with `rows`.
    weights: Vec<f64>,
    factor: SparseDirect<S>,
    block: Mutex<Vec<S>>,
}

impl<S: Scalar> Subdomain<S> {
    /// Gather the subdomain's rows of `r` straight into the packed block and
    /// solve there.
    fn gather_solve(&self, r: &DMat<S>) {
        let mut block = self.block.lock().expect("no panic under the block lock");
        block.resize(self.rows.len() * r.ncols(), S::zero());
        pack(&mut block, &self.rows, r.as_slice(), r.nrows());
        self.factor.solve_packed(&mut block);
    }

    /// `z[rows] += weights · block`, reading the packed solution.
    fn scatter_add(&self, z: &mut DMat<S>) {
        let block = self.block.lock().expect("no panic under the block lock");
        let ld = z.nrows();
        unpack(&block, &self.rows, z.as_mut_slice(), ld, |k| {
            let weight = S::from_f64(self.weights[k]);
            move |z, v| *z += weight * v
        });
    }
}

/// The assembled Schwarz preconditioner.
pub struct Schwarz<S: Scalar> {
    subs: Vec<Subdomain<S>>,
    n: usize,
}

impl<S: Scalar> Schwarz<S> {
    /// Build from a non-overlapping partition: grows overlap, extracts and
    /// factors the local operators (in parallel). Factors are stored in `S`.
    pub fn new(a: &Csr<S>, partition: &Partition, opts: &SchwarzOpts) -> Self {
        let _t = kryst_obs::traced(kryst_obs::SpanKind::PrecondSetup);
        let n = a.nrows();
        let overlapping = grow_overlap(a, partition, opts.overlap);
        let weights = match opts.variant {
            SchwarzVariant::Asm => overlapping.iter().map(|s| vec![1.0; s.len()]).collect(),
            SchwarzVariant::Ras => restricted_partition_of_unity(partition, &overlapping),
            SchwarzVariant::Oras => {
                // ORAS uses the continuous partition of unity (multiplicity
                // weights) which pairs better with impedance conditions.
                partition_of_unity(n, &overlapping)
            }
        };
        let pieces: Vec<(Vec<usize>, Vec<f64>)> = overlapping.into_iter().zip(weights).collect();
        let subs: Vec<Subdomain<S>> = map_vec(pieces, |(set, w)| {
            let mut local = a.principal_submatrix(&set);
            if opts.variant == SchwarzVariant::Oras && opts.impedance != 0.0 {
                // Impedance (Robin) interface condition: shift the
                // diagonal of interface rows by +i·η.
                let shift = S::from_parts(0.0, opts.impedance);
                let interface = interface_rows(a, &set);
                for (li, is_if) in interface.iter().enumerate() {
                    if *is_if {
                        // Add to the stored diagonal entry.
                        let pos = local
                            .row_indices(li)
                            .binary_search(&li)
                            .expect("diagonal entry present");
                        local.row_values_mut(li)[pos] += shift;
                    }
                }
            }
            let factor = SparseDirect::factor(&local).unwrap_or_else(|| {
                // Local singular operator (can happen for ASM on pure
                // Neumann pieces): tiny diagonal regularization.
                let shift = S::from_f64(1e-12) * S::from_f64(local.inf_norm());
                SparseDirect::factor(&local.shift_diag(shift)).expect("regularized local factor")
            });
            let perm = factor.perm();
            Subdomain {
                rows: perm.iter().map(|&k| set[k]).collect(),
                weights: perm.iter().map(|&k| w[k]).collect(),
                factor,
                block: Mutex::new(Vec::new()),
            }
        });
        Self { subs, n }
    }

    /// Number of subdomains.
    pub fn nsubdomains(&self) -> usize {
        self.subs.len()
    }

    /// Size of the largest overlapping subdomain.
    pub fn max_local_size(&self) -> usize {
        self.subs.iter().map(|s| s.rows.len()).max().unwrap_or(0)
    }
}

/// For each local index: does its global row couple outside the subdomain?
fn interface_rows<S: Scalar>(a: &Csr<S>, set: &[usize]) -> Vec<bool> {
    let mut inset = vec![false; a.nrows()];
    for &g in set {
        inset[g] = true;
    }
    set.iter()
        .map(|&g| a.row_indices(g).iter().any(|&j| !inset[j]))
        .collect()
}

impl<S: Scalar> PrecondOp<S> for Schwarz<S> {
    fn nrows(&self) -> usize {
        self.n
    }

    fn apply(&self, r: &DMat<S>, z: &mut DMat<S>) {
        let _sp = kryst_obs::traced(kryst_obs::SpanKind::PrecondApply);
        // Solve every subdomain in parallel (gather into the subdomain's
        // persistent packed block, solve in place there), then apply the
        // weighted scatter-adds serially in subdomain order — the
        // accumulation order is fixed regardless of thread count, so traces
        // stay deterministic.
        for_each_range(self.subs.len(), 0, |lo, hi| {
            for sub in &self.subs[lo..hi] {
                sub.gather_solve(r);
            }
        });
        z.set_zero();
        for sub in &self.subs {
            sub.scatter_add(z);
        }
    }

    /// Factor bytes streamed by one single-column application (sum over
    /// subdomains of the stored profile); excludes gather/scatter vector
    /// traffic.
    fn bytes_per_apply(&self) -> Option<usize> {
        let entries: usize = self.subs.iter().map(|s| s.factor.factor_len()).sum();
        Some(entries * std::mem::size_of::<S>())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kryst_pde::poisson::poisson2d;
    use kryst_sparse::partition::partition_rcb;

    fn setup(nx: usize, nparts: usize, opts: &SchwarzOpts) -> (Csr<f64>, Schwarz<f64>) {
        let p = poisson2d::<f64>(nx, nx);
        let part = partition_rcb(&p.coords, nparts);
        let m = Schwarz::new(&p.a, &part, opts);
        (p.a, m)
    }

    fn richardson_converges(a: &Csr<f64>, m: &Schwarz<f64>, iters: usize) -> f64 {
        let n = a.nrows();
        let b = DMat::from_fn(n, 1, |i, _| ((i % 5) as f64) - 2.0);
        let mut x = DMat::<f64>::zeros(n, 1);
        for _ in 0..iters {
            let mut r = a.apply(&x);
            r.scale(-1.0);
            r.axpy(1.0, &b);
            let z = m.apply_new(&r);
            x.axpy(1.0, &z);
        }
        let mut r = a.apply(&x);
        r.axpy(-1.0, &b);
        r.fro_norm() / b.fro_norm()
    }

    #[test]
    fn ras_richardson_converges_on_poisson() {
        let (a, m) = setup(
            16,
            4,
            &SchwarzOpts {
                overlap: 2,
                ..Default::default()
            },
        );
        assert_eq!(m.nsubdomains(), 4);
        // SPD Poisson never pivots, so no local solve reads fill padding:
        // at most the `2·bw + 1` in-band entries per row.
        let in_band: usize = (m.subs.iter())
            .map(|s| s.factor.n() * (2 * s.factor.bandwidth() + 1))
            .sum();
        assert!(m.bytes_per_apply().unwrap() <= in_band * std::mem::size_of::<f64>());
        let rel = richardson_converges(&a, &m, 30);
        assert!(rel < 1e-3, "RAS Richardson: rel residual {rel}");
    }

    #[test]
    fn asm_is_symmetric_operator() {
        // ⟨M⁻¹u, v⟩ = ⟨u, M⁻¹v⟩ for ASM on a symmetric matrix.
        let (_, m) = setup(
            10,
            3,
            &SchwarzOpts {
                variant: SchwarzVariant::Asm,
                overlap: 1,
                impedance: 0.0,
            },
        );
        let n = 100;
        let u = DMat::from_fn(n, 1, |i, _| (i as f64 * 0.37).sin());
        let v = DMat::from_fn(n, 1, |i, _| (i as f64 * 0.11).cos());
        let mu = m.apply_new(&u);
        let mv = m.apply_new(&v);
        let a1: f64 = (0..n).map(|i| mu[(i, 0)] * v[(i, 0)]).sum();
        let a2: f64 = (0..n).map(|i| u[(i, 0)] * mv[(i, 0)]).sum();
        assert!((a1 - a2).abs() < 1e-10 * (a1.abs() + 1.0), "{a1} vs {a2}");
    }

    #[test]
    fn multi_rhs_consistent_with_single() {
        let (_, m) = setup(12, 4, &SchwarzOpts::default());
        let n = 144;
        let r = DMat::from_fn(n, 3, |i, j| ((i * (j + 2)) % 11) as f64 - 5.0);
        let z = m.apply_new(&r);
        for c in 0..3 {
            let rc = DMat::from_col_major(n, 1, r.col(c).to_vec());
            let zc = m.apply_new(&rc);
            for i in 0..n {
                assert!((z[(i, c)] - zc[(i, 0)]).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn oras_on_complex_maxwell_beats_asm() {
        use kryst_pde::maxwell::{maxwell3d, MaxwellParams};
        use kryst_scalar::C64;
        let params = MaxwellParams::matching_solution(6);
        let (prob, _geom) = maxwell3d(&params);
        let part = partition_rcb(&prob.coords, 4);
        let asm = Schwarz::<C64>::new(
            &prob.a,
            &part,
            &SchwarzOpts {
                variant: SchwarzVariant::Asm,
                overlap: 1,
                impedance: 0.0,
            },
        );
        let oras = Schwarz::<C64>::new(
            &prob.a,
            &part,
            &SchwarzOpts {
                variant: SchwarzVariant::Oras,
                overlap: 2,
                impedance: params.omega,
            },
        );
        let n = prob.a.nrows();
        let b = DMat::<C64>::from_fn(n, 1, |i, _| {
            C64::from_parts(((i % 7) as f64) - 3.0, ((i % 3) as f64) - 1.0)
        });
        let rel = |m: &Schwarz<C64>| {
            let mut x = DMat::<C64>::zeros(n, 1);
            for _ in 0..20 {
                let mut r = prob.a.apply(&x);
                r.scale(-C64::one());
                r.axpy(C64::one(), &b);
                let z = m.apply_new(&r);
                // Damped Richardson keeps ASM from diverging outright.
                x.axpy(C64::from_f64(0.5), &z);
            }
            let mut r = prob.a.apply(&x);
            r.axpy(-C64::one(), &b);
            r.fro_norm() / b.fro_norm()
        };
        let rel_asm = rel(&asm);
        let rel_oras = rel(&oras);
        assert!(
            rel_oras < rel_asm,
            "ORAS ({rel_oras:.3e}) must beat ASM ({rel_asm:.3e}) on indefinite Maxwell"
        );
    }

    #[test]
    fn traffic_counts_are_the_entries_the_kernel_reads() {
        // One subdomain on a 1-D Laplacian: the factors are bidiagonal, so a
        // solve reads n − 1 entries of L, n − 1 of U and n reciprocal pivots.
        let n = 50;
        let p = poisson2d::<f64>(n, 1);
        let part = partition_rcb(&p.coords, 1);
        let m = Schwarz::new(&p.a, &part, &SchwarzOpts::default());
        assert_eq!(m.bytes_per_apply(), Some((3 * n - 2) * 8));
    }
}
