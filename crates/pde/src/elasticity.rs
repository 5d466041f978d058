//! 3-D linear elasticity on the unit cube with Q1 (trilinear hexahedral)
//! finite elements — the `ex56` analogue (paper §IV-C).
//!
//! The paper generates a sequence of four *varying* systems by moving a small
//! spherical inclusion with modified Young modulus `E_i = E / s_i` through
//! the cube; [`PAPER_INCLUSIONS`] reproduces those parameter sets. The
//! near-nullspace (6 rigid-body modes) is provided for the smoothed
//! aggregation multigrid, exactly as `ex56` feeds GAMG.

use crate::Problem;
use kryst_dense::DMat;
use kryst_scalar::Scalar;
use kryst_sparse::Csr;

/// A spherical soft/hard inclusion: inside the sphere the Young modulus is
/// `E / stiffness_ratio`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Inclusion {
    /// `s_i` — the Young-modulus divisor.
    pub stiffness_ratio: f64,
    /// Sphere radius.
    pub r: f64,
    /// Sphere center.
    pub center: [f64; 3],
}

/// The paper's four inclusion parameter sets
/// (`{s_i}, {r_i}, {x_i}, {y_i}, {z_i}` of §IV-C).
pub const PAPER_INCLUSIONS: [Inclusion; 4] = [
    Inclusion {
        stiffness_ratio: 30.0,
        r: 0.5,
        center: [0.5, 0.5, 0.5],
    },
    Inclusion {
        stiffness_ratio: 0.1,
        r: 0.45,
        center: [0.4, 0.5, 0.45],
    },
    Inclusion {
        stiffness_ratio: 20.0,
        r: 0.4,
        center: [0.4, 0.4, 0.4],
    },
    Inclusion {
        stiffness_ratio: 10.0,
        r: 0.35,
        center: [0.4, 0.4, 0.35],
    },
];

/// Assembly options.
#[derive(Debug, Clone, Copy)]
pub struct ElasticityOpts {
    /// Elements per cube edge.
    pub ne: usize,
    /// Young modulus of the matrix material.
    pub e_modulus: f64,
    /// Poisson ratio.
    pub poisson: f64,
    /// Optional inclusion.
    pub inclusion: Option<Inclusion>,
    /// Clamp the `z = 0` face (Dirichlet). When `false` the operator is
    /// free-free (singular; used to verify the rigid-body nullspace).
    pub clamp_bottom: bool,
}

impl Default for ElasticityOpts {
    fn default() -> Self {
        Self {
            ne: 8,
            e_modulus: 1.0,
            poisson: 0.3,
            inclusion: None,
            clamp_bottom: true,
        }
    }
}

/// Generated elasticity problem plus its load vector.
pub struct ElasticityProblem<S: Scalar> {
    /// Matrix, coordinates, rigid-body near-nullspace.
    pub problem: Problem<S>,
    /// Consistent gravity load (force `(0,0,−1)` per unit volume).
    pub rhs: Vec<S>,
}

/// Gauss points `±1/√3` on the reference cube, all weights 1.
const GP: f64 = 0.577_350_269_189_625_8;

/// One 24×24 Q1 element matrix (8 nodes × 3 displacement components).
type ElementMatrix = Box<[[f64; 24]; 24]>;

/// Unit-E Q1 element stiffness for edge length `h`, split into λ and μ parts
/// (24×24 each) so each element only scales two precomputed matrices.
fn element_stiffness(h: f64) -> (ElementMatrix, ElementMatrix) {
    // Reference element: 8 nodes at (±1, ±1, ±1).
    let corners: [[f64; 3]; 8] = [
        [-1.0, -1.0, -1.0],
        [1.0, -1.0, -1.0],
        [-1.0, 1.0, -1.0],
        [1.0, 1.0, -1.0],
        [-1.0, -1.0, 1.0],
        [1.0, -1.0, 1.0],
        [-1.0, 1.0, 1.0],
        [1.0, 1.0, 1.0],
    ];
    let mut k_lam = Box::new([[0.0f64; 24]; 24]);
    let mut k_mu = Box::new([[0.0f64; 24]; 24]);
    let jac = h / 2.0;
    let detj = jac * jac * jac;
    for gx in [-GP, GP] {
        for gy in [-GP, GP] {
            for gz in [-GP, GP] {
                // Shape function gradients in physical coordinates.
                let mut dn = [[0.0f64; 3]; 8]; // dN_a/dx_i
                for (a, c) in corners.iter().enumerate() {
                    let f = |s: f64, g: f64| 0.5 * (1.0 + s * g); // 1D factor /2 (total /8)
                    let df = |s: f64| 0.5 * s;
                    dn[a][0] = df(c[0]) * f(c[1], gy) * f(c[2], gz) / jac;
                    dn[a][1] = f(c[0], gx) * df(c[1]) * f(c[2], gz) / jac;
                    dn[a][2] = f(c[0], gx) * f(c[1], gy) * df(c[2]) / jac;
                }
                // K[a·3+i][b·3+j] += λ·dN_a/dx_i·dN_b/dx_j
                //                  + μ·(dN_a/dx_j·dN_b/dx_i + δ_ij Σ_k dN_a/dx_k dN_b/dx_k)
                for a in 0..8 {
                    for b in 0..8 {
                        let dot: f64 = (0..3).map(|k| dn[a][k] * dn[b][k]).sum();
                        for i in 0..3 {
                            for j in 0..3 {
                                let la = dn[a][i] * dn[b][j];
                                let mu_t = dn[a][j] * dn[b][i] + if i == j { dot } else { 0.0 };
                                k_lam[3 * a + i][3 * b + j] += la * detj;
                                k_mu[3 * a + i][3 * b + j] += mu_t * detj;
                            }
                        }
                    }
                }
            }
        }
    }
    (k_lam, k_mu)
}

/// `(λ, μ)` of every element, `ex` fastest: Lamé parameters from `(E, ν)`
/// with `E` divided by the stiffness ratio where the element's centre lies
/// inside the inclusion.
fn element_lame(opts: &ElasticityOpts) -> Vec<(f64, f64)> {
    let ne = opts.ne;
    let h = 1.0 / ne as f64;
    let nu = opts.poisson;
    let lam_unit = nu / ((1.0 + nu) * (1.0 - 2.0 * nu));
    let mu_unit = 1.0 / (2.0 * (1.0 + nu));
    let centre = |e: usize| (e as f64 + 0.5) * h;
    let mut lame = Vec::with_capacity(ne * ne * ne);
    for ez in 0..ne {
        for ey in 0..ne {
            for ex in 0..ne {
                let inside = |inc: &Inclusion| {
                    let dx = centre(ex) - inc.center[0];
                    let dy = centre(ey) - inc.center[1];
                    let dz = centre(ez) - inc.center[2];
                    dx * dx + dy * dy + dz * dz < inc.r * inc.r
                };
                let e_scale = match opts.inclusion.filter(inside) {
                    Some(inc) => opts.e_modulus / inc.stiffness_ratio,
                    None => opts.e_modulus,
                };
                lame.push((lam_unit * e_scale, mu_unit * e_scale));
            }
        }
    }
    lame
}

/// Slot of an element's corner `b` (bit 0 = x, 1 = y, 2 = z) past that of
/// its corner 0, among the 27 neighbour slots `(oz·3 + oy)·3 + ox` of a node.
const CORNER_SLOT: [usize; 8] = [0, 1, 3, 4, 9, 10, 12, 13];

/// The operator on the free dofs and the lumped gravity load, row by row.
///
/// The three rows of a free node are gathered from its ≤ 8 incident
/// elements, visited in element order, into 27 neighbour slots of 3
/// components each, and written in ascending column order straight into the
/// CSR arrays; entries that sum to exactly zero are not stored. `dofmap`
/// numbers the free dofs in node order and holds `usize::MAX` for a clamped
/// one.
fn assemble_rows<S: Scalar>(opts: &ElasticityOpts, dofmap: &[usize]) -> (Csr<S>, Vec<S>) {
    let ne = opts.ne;
    let nn = ne + 1;
    let h = 1.0 / ne as f64;
    let free = dofmap.iter().filter(|&&d| d != usize::MAX).count();
    let (k_lam, k_mu) = element_stiffness(h);
    let lame = element_lame(opts);
    let grav = S::from_f64(-(h * h * h) / 8.0); // lumped gravity load per element node

    let mut indptr = Vec::with_capacity(free + 1);
    let mut indices = Vec::with_capacity(81 * free);
    let mut data = Vec::with_capacity(81 * free);
    let mut rhs = vec![S::zero(); free];
    indptr.push(0);
    // The elements along one axis that hold node coordinate `c`.
    let around = |c: usize| c.saturating_sub(1)..(c + 1).min(ne);
    for z in 0..nn {
        for y in 0..nn {
            for x in 0..nn {
                let row0 = dofmap[3 * ((z * nn + y) * nn + x)];
                if row0 == usize::MAX {
                    continue;
                }
                // Neighbour `(x + ox − 1, y + oy − 1, z + oz − 1)` has slot
                // `(oz·3 + oy)·3 + ox`: ascending slots are ascending nodes.
                // Its first free dof, `usize::MAX` off the mesh or clamped:
                let col0: [usize; 27] = std::array::from_fn(|slot| {
                    let (nx, ny, nz) = (x + slot % 3, y + slot / 3 % 3, z + slot / 9);
                    if [nx, ny, nz].iter().any(|&c| c == 0 || c > nn) {
                        return usize::MAX;
                    }
                    dofmap[3 * (((nz - 1) * nn + ny - 1) * nn + nx - 1)]
                });
                let mut rows = [[0.0f64; 81]; 3];
                for ez in around(z) {
                    for ey in around(y) {
                        for ex in around(x) {
                            let (lam, mu) = lame[(ez * ne + ey) * ne + ex];
                            // This node is corner `a` of the element, whose
                            // corner 0 has slot `slot0`.
                            let a = (z - ez) * 4 + (y - ey) * 2 + (x - ex);
                            let slot0 = ((ez + 1 - z) * 3 + ey + 1 - y) * 3 + ex + 1 - x;
                            rhs[row0 + 2] += grav;
                            for (b, off) in CORNER_SLOT.iter().enumerate() {
                                let at = 3 * (slot0 + off);
                                for (i, row) in rows.iter_mut().enumerate() {
                                    for j in 0..3 {
                                        row[at + j] += lam * k_lam[3 * a + i][3 * b + j]
                                            + mu * k_mu[3 * a + i][3 * b + j];
                                    }
                                }
                            }
                        }
                    }
                }
                for row in &rows {
                    for (vals, &c0) in row.chunks_exact(3).zip(&col0) {
                        for (j, &v) in vals.iter().enumerate() {
                            let v = S::from_f64(v);
                            if c0 != usize::MAX && v != S::zero() {
                                indices.push(c0 + j);
                                data.push(v);
                            }
                        }
                    }
                    indptr.push(indices.len());
                }
            }
        }
    }
    // Boundary rows and cancelled sums leave a quarter of the reservation
    // unused, and the caller keeps the matrix.
    indices.shrink_to_fit();
    data.shrink_to_fit();
    (Csr::from_raw(free, free, indptr, indices, data), rhs)
}

/// Assemble the Q1 elasticity operator.
pub fn elasticity3d<S: Scalar>(opts: &ElasticityOpts) -> ElasticityProblem<S> {
    let ne = opts.ne;
    let nn = ne + 1;
    let nnodes = nn * nn * nn;
    let h = 1.0 / ne as f64;
    let node = |x: usize, y: usize, z: usize| (z * nn + y) * nn + x;

    // Free-dof numbering (eliminate clamped dofs).
    let ndof = 3 * nnodes;
    let mut dofmap = vec![usize::MAX; ndof];
    let mut coords = Vec::new();
    let mut free = 0usize;
    for z in 0..nn {
        for y in 0..nn {
            for x in 0..nn {
                let clamped = opts.clamp_bottom && z == 0;
                for c in 0..3 {
                    let gd = 3 * node(x, y, z) + c;
                    if !clamped {
                        dofmap[gd] = free;
                        free += 1;
                        coords.push(vec![x as f64 * h, y as f64 * h, z as f64 * h]);
                    }
                }
            }
        }
    }

    let (a, rhs) = assemble_rows(opts, &dofmap);

    // Rigid-body near-nullspace on the free dofs.
    let mut ns = DMat::zeros(free, 6);
    for z in 0..nn {
        for y in 0..nn {
            for x in 0..nn {
                let (px, py, pz) = (x as f64 * h, y as f64 * h, z as f64 * h);
                let base = 3 * node(x, y, z);
                let modes: [[f64; 3]; 6] = [
                    [1.0, 0.0, 0.0],
                    [0.0, 1.0, 0.0],
                    [0.0, 0.0, 1.0],
                    [0.0, -pz, py],
                    [pz, 0.0, -px],
                    [-py, px, 0.0],
                ];
                for c in 0..3 {
                    let gd = dofmap[base + c];
                    if gd == usize::MAX {
                        continue;
                    }
                    for (m, mode) in modes.iter().enumerate() {
                        ns[(gd, m)] = S::from_f64(mode[c]);
                    }
                }
            }
        }
    }

    ElasticityProblem {
        problem: Problem {
            a,
            coords,
            near_nullspace: Some(ns),
        },
        rhs,
    }
}

/// The paper's sequence of four slowly-varying systems (shared `ne`,
/// different inclusions).
pub fn paper_sequence<S: Scalar>(ne: usize) -> Vec<ElasticityProblem<S>> {
    PAPER_INCLUSIONS
        .iter()
        .map(|inc| {
            elasticity3d(&ElasticityOpts {
                ne,
                inclusion: Some(*inc),
                ..Default::default()
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use kryst_sparse::Coo;

    /// The element loop this module assembled with before the row gather:
    /// every element pushes its 24 × 24 triplets and `Coo::to_csr` counts,
    /// sorts and sums them.
    fn assemble_triplets(opts: &ElasticityOpts, dofmap: &[usize]) -> (Csr<f64>, Vec<f64>) {
        let ne = opts.ne;
        let nn = ne + 1;
        let h = 1.0 / ne as f64;
        let node = |x: usize, y: usize, z: usize| (z * nn + y) * nn + x;
        let free = dofmap.iter().filter(|&&d| d != usize::MAX).count();
        let (k_lam, k_mu) = element_stiffness(h);
        let lame = element_lame(opts);
        let mut coo = Coo::new(free, free);
        let mut rhs = vec![0.0; free];
        let grav = -(h * h * h) / 8.0;
        for ez in 0..ne {
            for ey in 0..ne {
                for ex in 0..ne {
                    let (lam, mu) = lame[(ez * ne + ey) * ne + ex];
                    // Element nodes in the same order as `corners`.
                    let nodes = [
                        node(ex, ey, ez),
                        node(ex + 1, ey, ez),
                        node(ex, ey + 1, ez),
                        node(ex + 1, ey + 1, ez),
                        node(ex, ey, ez + 1),
                        node(ex + 1, ey, ez + 1),
                        node(ex, ey + 1, ez + 1),
                        node(ex + 1, ey + 1, ez + 1),
                    ];
                    for (a, &na) in nodes.iter().enumerate() {
                        for i in 0..3 {
                            let ga = dofmap[3 * na + i];
                            if ga == usize::MAX {
                                continue;
                            }
                            if i == 2 {
                                rhs[ga] += grav;
                            }
                            for (b, &nb) in nodes.iter().enumerate() {
                                for j in 0..3 {
                                    let gb = dofmap[3 * nb + j];
                                    if gb == usize::MAX {
                                        continue;
                                    }
                                    let v = lam * k_lam[3 * a + i][3 * b + j]
                                        + mu * k_mu[3 * a + i][3 * b + j];
                                    coo.push(ga, gb, v);
                                }
                            }
                        }
                    }
                }
            }
        }
        (coo.to_csr(), rhs)
    }

    /// The row gather against the triplet loop: same shape, strictly sorted
    /// rows, the load bit for bit, entries to a few roundings of the largest
    /// one (the two sum an entry's ≤ 8 element contributions in different
    /// orders), and nearly the same pattern — a sum may cancel to exactly
    /// zero in one order and to 1e-17 in the other. Centres on and off an
    /// element boundary move which elements the inclusion claims.
    #[test]
    fn row_gather_matches_the_triplet_assembly() {
        let inclusions = [
            None,
            Some(Inclusion {
                stiffness_ratio: 30.0,
                r: 0.5,
                center: [0.5, 0.5, 0.5],
            }),
            Some(Inclusion {
                stiffness_ratio: 0.1,
                r: 0.45,
                center: [0.4, 0.5, 0.45],
            }),
        ];
        for ne in [1usize, 2, 3, 6] {
            for clamp_bottom in [true, false] {
                for inclusion in inclusions {
                    let opts = ElasticityOpts {
                        ne,
                        inclusion,
                        clamp_bottom,
                        ..Default::default()
                    };
                    let what = format!("ne {ne}, clamped {clamp_bottom}, {inclusion:?}");
                    let prob = elasticity3d::<f64>(&opts);
                    let a = &prob.problem.a;
                    let nn = ne + 1;
                    let clamped = if clamp_bottom { 3 * nn * nn } else { 0 };
                    let dofmap: Vec<usize> = (0..3 * nn * nn * nn)
                        .map(|d| d.checked_sub(clamped).unwrap_or(usize::MAX))
                        .collect();
                    let (want, want_rhs) = assemble_triplets(&opts, &dofmap);
                    assert_eq!(
                        (a.nrows(), a.ncols()),
                        (want.nrows(), want.ncols()),
                        "{what}"
                    );
                    assert_eq!(
                        prob.rhs.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                        want_rhs.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                        "{what}: rhs"
                    );
                    let largest = (0..a.nrows())
                        .flat_map(|i| want.row_values(i))
                        .fold(0.0f64, |m, v| m.max(v.abs()));
                    let tol = 4.0 * f64::EPSILON * largest;
                    for i in 0..a.nrows() {
                        let cols = a.row_indices(i);
                        assert!(cols.windows(2).all(|w| w[0] < w[1]), "{what}: row {i}");
                        for &j in cols.iter().chain(want.row_indices(i)) {
                            let d = (a.get(i, j) - want.get(i, j)).abs();
                            assert!(d <= tol, "{what}: ({i},{j}) differs by {d:e}");
                        }
                    }
                    let dn = a.nnz().abs_diff(want.nnz());
                    assert!(
                        200 * dn <= want.nnz(),
                        "{what}: nnz {} vs {}",
                        a.nnz(),
                        want.nnz()
                    );
                    if !clamp_bottom {
                        let ns = prob.problem.near_nullspace.as_ref().unwrap();
                        let r = a.apply(ns).max_abs();
                        assert!(r <= 1e-12 * a.inf_norm(), "{what}: ‖A·RBM‖∞ = {r:e}");
                    }
                }
            }
        }
    }

    #[test]
    fn matrix_is_symmetric() {
        let p = elasticity3d::<f64>(&ElasticityOpts {
            ne: 3,
            ..Default::default()
        });
        let a = &p.problem.a;
        for i in 0..a.nrows() {
            for &j in a.row_indices(i) {
                assert!(
                    (a.get(i, j) - a.get(j, i)).abs() < 1e-12 * a.inf_norm(),
                    "asymmetry at ({i},{j})"
                );
            }
        }
    }

    #[test]
    fn rigid_body_modes_are_nullspace_of_free_operator() {
        let p = elasticity3d::<f64>(&ElasticityOpts {
            ne: 3,
            clamp_bottom: false,
            ..Default::default()
        });
        let a = &p.problem.a;
        let ns = p.problem.near_nullspace.as_ref().unwrap();
        let r = a.apply(ns);
        let scale = a.inf_norm();
        assert!(
            r.max_abs() < 1e-10 * scale,
            "‖A·RBM‖ = {} (scale {scale})",
            r.max_abs()
        );
    }

    #[test]
    fn clamped_operator_is_spd() {
        let p = elasticity3d::<f64>(&ElasticityOpts {
            ne: 2,
            ..Default::default()
        });
        // SPD ⟺ Cholesky of the dense mirror succeeds.
        let n = p.problem.a.nrows();
        let d = kryst_dense::DMat::from_fn(n, n, |i, j| p.problem.a.get(i, j));
        assert!(
            kryst_dense::chol::cholesky(&d).is_some(),
            "clamped elasticity not SPD"
        );
    }

    #[test]
    fn gravity_pushes_down() {
        use kryst_sparse::SparseDirect;
        let p = elasticity3d::<f64>(&ElasticityOpts {
            ne: 4,
            ..Default::default()
        });
        let f = SparseDirect::factor(&p.problem.a).expect("SPD system");
        let u = f.solve_one(&p.rhs);
        // Mean vertical displacement must be negative (downward).
        let mut mean_z = 0.0;
        let mut count = 0;
        for (k, c) in p.problem.coords.iter().enumerate() {
            let _ = c;
            if k % 3 == 2 {
                mean_z += u[k];
                count += 1;
            }
        }
        mean_z /= count as f64;
        assert!(mean_z < 0.0, "mean w = {mean_z}");
    }

    #[test]
    fn soft_inclusion_increases_compliance() {
        use kryst_sparse::SparseDirect;
        let hard = elasticity3d::<f64>(&ElasticityOpts {
            ne: 4,
            ..Default::default()
        });
        let soft = elasticity3d::<f64>(&ElasticityOpts {
            ne: 4,
            inclusion: Some(Inclusion {
                stiffness_ratio: 30.0,
                r: 0.3,
                center: [0.5, 0.5, 0.5],
            }),
            ..Default::default()
        });
        let fh = SparseDirect::factor(&hard.problem.a).unwrap();
        let fs = SparseDirect::factor(&soft.problem.a).unwrap();
        let uh = fh.solve_one(&hard.rhs);
        let us = fs.solve_one(&soft.rhs);
        let ch: f64 = uh.iter().zip(&hard.rhs).map(|(u, f)| u * f).sum();
        let cs: f64 = us.iter().zip(&soft.rhs).map(|(u, f)| u * f).sum();
        // Compliance fᵀu grows when material is softened.
        assert!(cs > ch, "compliance {cs} !> {ch}");
    }

    #[test]
    fn paper_sequence_yields_four_distinct_systems() {
        let seq = paper_sequence::<f64>(2);
        assert_eq!(seq.len(), 4);
        let n0 = seq[0].problem.a.nrows();
        for s in &seq[1..] {
            assert_eq!(s.problem.a.nrows(), n0);
        }
        // Matrices differ (inclusions move).
        assert_ne!(seq[0].problem.a, seq[1].problem.a);
    }
}
