//! Time-harmonic Maxwell curl–curl on a staggered (Yee) edge grid.
//!
//! Discretizes the paper's eq. (5),
//! `∇×(∇×E) − (ω²ε_r + iωσ)·E = f`, on a brick domain with PEC (perfectly
//! conducting) walls — the algebraic stand-in for the metallic imaging
//! chamber of §V-A (see DESIGN.md for the substitution rationale). Edge
//! unknowns live on the staggered grid, the discrete curl `C` maps edges to
//! faces, and the assembled operator is the **complex-symmetric, indefinite,
//! ill-conditioned** matrix `A = CᵀC − diag(κ²)` that gives standard
//! preconditioners the same trouble as the paper's Nédélec systems (Fig. 4).
//!
//! Right-hand sides model the ring of transmitting antennas: each RHS is a
//! dipole source `i·ω` on the vertical edge nearest an antenna position
//! (§V-C uses one ring of 32).

use crate::Problem;
use kryst_dense::DMat;
use kryst_scalar::C64;
use kryst_sparse::{ops, Coo, Csr};

/// Medium description at a point: relative permittivity and conductivity.
pub type Medium = fn(f64, f64, f64, &MaxwellParams) -> (f64, f64);

/// Parameters of the Maxwell test problem.
#[derive(Debug, Clone, Copy)]
pub struct MaxwellParams {
    /// Grid cells per axis (unknowns ≈ `3·nc³`).
    pub nc: usize,
    /// Normalized angular frequency (wavelengths across the unit box
    /// ≈ `ω·√ε_r / 2π`).
    pub omega: f64,
    /// Background (matching solution) relative permittivity.
    pub eps_background: f64,
    /// Background conductivity (dissipative matching solution).
    pub sigma_background: f64,
    /// Optional non-dissipative cylindrical inclusion (the plastic cylinder
    /// of §V-C): `(radius, eps_r)` around the vertical axis through the
    /// domain center.
    pub cylinder: Option<(f64, f64)>,
}

impl MaxwellParams {
    /// A small, fast preset: homogeneous dissipative medium.
    pub fn matching_solution(nc: usize) -> Self {
        Self {
            nc,
            omega: 6.0,
            eps_background: 1.0,
            sigma_background: 0.3,
            cylinder: None,
        }
    }

    /// The §V-C "more difficult" case: a non-dissipative plastic cylinder
    /// immersed in the matching solution. The frequency is lowered relative
    /// to [`MaxwellParams::matching_solution`] so that *restarted* GMRES(50)
    /// (the paper's Fig. 8 reference solver) still converges on the
    /// resonant inclusion at laptop resolution.
    pub fn with_cylinder(nc: usize) -> Self {
        Self {
            cylinder: Some((0.25, 2.0)),
            omega: 4.0,
            ..Self::matching_solution(nc)
        }
    }

    /// A genuinely hard preset (higher frequency, weak dissipation) on which
    /// standard preconditioners stagnate — the Fig. 4 regime.
    pub fn chamber_hard(nc: usize) -> Self {
        Self {
            nc,
            omega: 10.0,
            eps_background: 1.0,
            sigma_background: 0.05,
            cylinder: None,
        }
    }

    /// `κ² = ω²·ε_r + i·ω·σ` at a point.
    pub fn kappa_sqr(&self, x: f64, y: f64, z: f64) -> C64 {
        let _ = z;
        let (eps, sigma) = if let Some((r, eps_cyl)) = self.cylinder {
            let dx = x - 0.5;
            let dy = y - 0.5;
            if dx * dx + dy * dy < r * r {
                (eps_cyl, 0.0)
            } else {
                (self.eps_background, self.sigma_background)
            }
        } else {
            (self.eps_background, self.sigma_background)
        };
        C64::new(self.omega * self.omega * eps, self.omega * sigma)
    }
}

/// Edge-grid geometry: interior (non-PEC) edge numbering and coordinates.
pub struct MaxwellGeom {
    /// Cells per axis.
    pub nc: usize,
    /// Mesh width.
    pub h: f64,
    /// Edge midpoints (one per unknown).
    pub edge_coords: Vec<[f64; 3]>,
    /// For each unknown: 0 = Ex, 1 = Ey, 2 = Ez.
    pub edge_dir: Vec<u8>,
    /// Lookup: `ex_id[i + nc·(j + (nc+1)·k)]` etc. (usize::MAX = PEC edge).
    ex_id: Vec<usize>,
    ey_id: Vec<usize>,
    ez_id: Vec<usize>,
}

impl MaxwellGeom {
    fn new(nc: usize) -> Self {
        let h = 1.0 / nc as f64;
        let np = nc + 1;
        let mut edge_coords = Vec::new();
        let mut edge_dir = Vec::new();
        let mut ex_id = vec![usize::MAX; nc * np * np];
        let mut ey_id = vec![usize::MAX; np * nc * np];
        let mut ez_id = vec![usize::MAX; np * np * nc];
        let mut next = 0usize;
        // Ex(i+½, j, k): PEC ⇒ j,k interior.
        for k in 0..np {
            for j in 0..np {
                for i in 0..nc {
                    if j > 0 && j < nc && k > 0 && k < nc {
                        ex_id[i + nc * (j + np * k)] = next;
                        edge_coords.push([(i as f64 + 0.5) * h, j as f64 * h, k as f64 * h]);
                        edge_dir.push(0);
                        next += 1;
                    }
                }
            }
        }
        // Ey(i, j+½, k): i,k interior.
        for k in 0..np {
            for j in 0..nc {
                for i in 0..np {
                    if i > 0 && i < nc && k > 0 && k < nc {
                        ey_id[i + np * (j + nc * k)] = next;
                        edge_coords.push([i as f64 * h, (j as f64 + 0.5) * h, k as f64 * h]);
                        edge_dir.push(1);
                        next += 1;
                    }
                }
            }
        }
        // Ez(i, j, k+½): i,j interior.
        for k in 0..nc {
            for j in 0..np {
                for i in 0..np {
                    if i > 0 && i < nc && j > 0 && j < nc {
                        ez_id[i + np * (j + np * k)] = next;
                        edge_coords.push([i as f64 * h, j as f64 * h, (k as f64 + 0.5) * h]);
                        edge_dir.push(2);
                        next += 1;
                    }
                }
            }
        }
        Self {
            nc,
            h,
            edge_coords,
            edge_dir,
            ex_id,
            ey_id,
            ez_id,
        }
    }

    /// Number of unknowns.
    pub fn nedges(&self) -> usize {
        self.edge_coords.len()
    }

    /// Interior Ex edge id (or `usize::MAX` for PEC edges).
    pub fn ex(&self, i: usize, j: usize, k: usize) -> usize {
        self.ex_id[i + self.nc * (j + (self.nc + 1) * k)]
    }

    /// Interior Ey edge id.
    pub fn ey(&self, i: usize, j: usize, k: usize) -> usize {
        self.ey_id[i + (self.nc + 1) * (j + self.nc * k)]
    }

    /// Interior Ez edge id.
    pub fn ez(&self, i: usize, j: usize, k: usize) -> usize {
        self.ez_id[i + (self.nc + 1) * (j + (self.nc + 1) * k)]
    }

    /// The discrete curl matrix `C` (faces × interior edges, entries `±1/h`).
    pub fn curl_matrix(&self) -> Csr<C64> {
        let nc = self.nc;
        let np = nc + 1;
        let nfx = np * nc * nc;
        let nfy = nc * np * nc;
        let nfz = nc * nc * np;
        let nfaces = nfx + nfy + nfz;
        let inv_h = C64::new(1.0 / self.h, 0.0);
        let mut coo = Coo::<C64>::with_capacity(nfaces, self.nedges(), 4 * nfaces);
        let mut face = 0usize;
        let add = |coo: &mut Coo<C64>, f: usize, e: usize, s: f64| {
            if e != usize::MAX {
                coo.push(f, e, inv_h.scale(s));
            }
        };
        // x-faces: (∂y Ez − ∂z Ey).
        for k in 0..nc {
            for j in 0..nc {
                for i in 0..np {
                    add(&mut coo, face, self.ez(i, j + 1, k), 1.0);
                    add(&mut coo, face, self.ez(i, j, k), -1.0);
                    add(&mut coo, face, self.ey(i, j, k + 1), -1.0);
                    add(&mut coo, face, self.ey(i, j, k), 1.0);
                    face += 1;
                }
            }
        }
        // y-faces: (∂z Ex − ∂x Ez).
        for k in 0..nc {
            for j in 0..np {
                for i in 0..nc {
                    add(&mut coo, face, self.ex(i, j, k + 1), 1.0);
                    add(&mut coo, face, self.ex(i, j, k), -1.0);
                    add(&mut coo, face, self.ez(i + 1, j, k), -1.0);
                    add(&mut coo, face, self.ez(i, j, k), 1.0);
                    face += 1;
                }
            }
        }
        // z-faces: (∂x Ey − ∂y Ex).
        for k in 0..np {
            for j in 0..nc {
                for i in 0..nc {
                    add(&mut coo, face, self.ey(i + 1, j, k), 1.0);
                    add(&mut coo, face, self.ey(i, j, k), -1.0);
                    add(&mut coo, face, self.ex(i, j + 1, k), -1.0);
                    add(&mut coo, face, self.ex(i, j, k), 1.0);
                    face += 1;
                }
            }
        }
        assert_eq!(face, nfaces);
        coo.to_csr()
    }
}

/// Assemble the Maxwell problem: operator, geometry, and edge coordinates.
pub fn maxwell3d(params: &MaxwellParams) -> (Problem<C64>, MaxwellGeom) {
    let geom = MaxwellGeom::new(params.nc);
    let c = geom.curl_matrix();
    let ct = c.transpose();
    let mut a = ops::spgemm(&ct, &c);
    // Subtract the mass term on the diagonal.
    let kappa: Vec<C64> = geom
        .edge_coords
        .iter()
        .map(|p| -params.kappa_sqr(p[0], p[1], p[2]))
        .collect();
    a = ops::add(&a, &Csr::from_diag(&kappa));
    let coords = geom.edge_coords.iter().map(|p| p.to_vec()).collect();
    (
        Problem {
            a,
            coords,
            near_nullspace: None,
        },
        geom,
    )
}

/// Right-hand sides for a ring of `p` antennas at height `ring_z`,
/// radius `ring_r` around the vertical center axis: each column is a dipole
/// source `i·ω` on the nearest interior vertical (Ez) edge.
pub fn antenna_ring_rhs(
    geom: &MaxwellGeom,
    params: &MaxwellParams,
    p: usize,
    ring_r: f64,
    ring_z: f64,
) -> DMat<C64> {
    let mut rhs = DMat::zeros(geom.nedges(), p);
    for a in 0..p {
        let theta = 2.0 * std::f64::consts::PI * a as f64 / p as f64;
        let target = [
            0.5 + ring_r * theta.cos(),
            0.5 + ring_r * theta.sin(),
            ring_z,
        ];
        // Nearest interior Ez edge.
        let mut best = usize::MAX;
        let mut best_d = f64::MAX;
        for (e, c) in geom.edge_coords.iter().enumerate() {
            if geom.edge_dir[e] != 2 {
                continue;
            }
            let d = (c[0] - target[0]).powi(2)
                + (c[1] - target[1]).powi(2)
                + (c[2] - target[2]).powi(2);
            if d < best_d {
                best_d = d;
                best = e;
            }
        }
        assert!(best != usize::MAX, "no interior Ez edge found");
        rhs[(best, a)] = C64::new(0.0, params.omega);
    }
    rhs
}

#[cfg(test)]
mod tests {
    use super::*;
    use kryst_scalar::Scalar;

    /// Discrete gradient (interior node potentials, zero on the boundary, →
    /// interior edges).
    fn grad_matrix(geom: &MaxwellGeom) -> Csr<C64> {
        let nc = geom.nc;
        let np = nc + 1;
        // Potentials vanish on the boundary: only interior nodes are columns.
        let node = |i: usize, j: usize, k: usize| -> usize {
            if i == 0 || i == nc || j == 0 || j == nc || k == 0 || k == nc {
                usize::MAX
            } else {
                (i - 1) + (nc - 1) * ((j - 1) + (nc - 1) * (k - 1))
            }
        };
        let nint = (nc - 1) * (nc - 1) * (nc - 1);
        let inv_h = C64::new(1.0 / geom.h, 0.0);
        let mut coo = Coo::<C64>::new(geom.nedges(), nint);
        for k in 0..np {
            for j in 0..np {
                for i in 0..nc {
                    let e = geom.ex(i, j, k);
                    if e != usize::MAX {
                        let (n1, n0) = (node(i + 1, j, k), node(i, j, k));
                        if n1 != usize::MAX {
                            coo.push(e, n1, inv_h);
                        }
                        if n0 != usize::MAX {
                            coo.push(e, n0, -inv_h);
                        }
                    }
                }
            }
        }
        for k in 0..np {
            for j in 0..nc {
                for i in 0..np {
                    let e = geom.ey(i, j, k);
                    if e != usize::MAX {
                        let (n1, n0) = (node(i, j + 1, k), node(i, j, k));
                        if n1 != usize::MAX {
                            coo.push(e, n1, inv_h);
                        }
                        if n0 != usize::MAX {
                            coo.push(e, n0, -inv_h);
                        }
                    }
                }
            }
        }
        for k in 0..nc {
            for j in 0..np {
                for i in 0..np {
                    let e = geom.ez(i, j, k);
                    if e != usize::MAX {
                        let (n1, n0) = (node(i, j, k + 1), node(i, j, k));
                        if n1 != usize::MAX {
                            coo.push(e, n1, inv_h);
                        }
                        if n0 != usize::MAX {
                            coo.push(e, n0, -inv_h);
                        }
                    }
                }
            }
        }
        coo.to_csr()
    }

    #[test]
    fn curl_of_gradient_vanishes() {
        let geom = MaxwellGeom::new(5);
        let c = geom.curl_matrix();
        let g = grad_matrix(&geom);
        let cg = ops::spgemm(&c, &g);
        // Every entry must cancel exactly (integer stencils scaled by 1/h²).
        let mut max = 0.0f64;
        for i in 0..cg.nrows() {
            for &v in cg.row_values(i) {
                max = max.max(v.abs());
            }
        }
        assert!(max < 1e-10, "‖C·G‖_max = {max}");
    }

    #[test]
    fn operator_is_complex_symmetric_not_hermitian() {
        let (p, _) = maxwell3d(&MaxwellParams::matching_solution(4));
        let a = &p.a;
        for i in 0..a.nrows() {
            for &j in a.row_indices(i) {
                let d = a.get(i, j) - a.get(j, i); // symmetric, NO conjugate
                assert!(d.abs() < 1e-10, "Aᵀ ≠ A at ({i},{j})");
            }
        }
        // Hermitian would require a real diagonal — σ > 0 makes it complex.
        let mut has_complex_diag = false;
        for i in 0..a.nrows() {
            if a.get(i, i).im().abs() > 1e-12 {
                has_complex_diag = true;
            }
        }
        assert!(has_complex_diag);
    }

    #[test]
    fn operator_is_indefinite() {
        // CᵀC has the gradient fields in its kernel, so any ω² > 0 shift
        // produces genuinely negative eigenvalues while the curl-carrying
        // modes stay positive — the indefiniteness the paper's §V stresses.
        let (p, _) = maxwell3d(&MaxwellParams {
            nc: 3,
            omega: 3.0,
            eps_background: 1.0,
            sigma_background: 0.0,
            cylinder: None,
        });
        let n = p.a.nrows();
        let dense = kryst_dense::DMat::from_fn(n, n, |i, j| p.a.get(i, j));
        let d = kryst_dense::eig::eig(&dense);
        let mut min_re = f64::MAX;
        let mut max_re = f64::MIN;
        for v in &d.values {
            min_re = min_re.min(v.re);
            max_re = max_re.max(v.re);
        }
        assert!(min_re < -1e-6 && max_re > 1e-6, "λ ∈ [{min_re}, {max_re}]");
    }

    #[test]
    fn pec_edge_count() {
        let geom = MaxwellGeom::new(4);
        // Interior Ex edges: nc·(nc−1)² per direction.
        let expect = 3 * 4 * 3 * 3;
        assert_eq!(geom.nedges(), expect);
    }

    #[test]
    fn antenna_rhs_hits_distinct_edges() {
        let params = MaxwellParams::matching_solution(8);
        let (_, geom) = maxwell3d(&params);
        let rhs = antenna_ring_rhs(&geom, &params, 8, 0.3, 0.5);
        let mut hit = std::collections::HashSet::new();
        for a in 0..8 {
            let col = rhs.col(a);
            let nz: Vec<usize> = (0..col.len()).filter(|&i| col[i] != C64::zero()).collect();
            assert_eq!(nz.len(), 1, "antenna {a}");
            hit.insert(nz[0]);
            assert_eq!(geom.edge_dir[nz[0]], 2);
        }
        assert_eq!(hit.len(), 8, "antennas must excite distinct edges");
    }

    #[test]
    fn direct_solver_handles_maxwell() {
        use kryst_sparse::SparseDirect;
        let params = MaxwellParams::matching_solution(4);
        let (p, geom) = maxwell3d(&params);
        let f = SparseDirect::factor(&p.a).expect("dissipative Maxwell is nonsingular");
        let rhs = antenna_ring_rhs(&geom, &params, 2, 0.3, 0.5);
        let mut x = rhs.clone();
        f.solve_in_place_ws(&mut x, &mut rhs.clone(), 2, 1);
        // Residual check.
        let ax = p.a.apply(&x);
        let mut max = 0.0f64;
        for i in 0..p.a.nrows() {
            for j in 0..2 {
                max = max.max((ax[(i, j)] - rhs[(i, j)]).abs());
            }
        }
        assert!(max < 1e-8, "residual {max}");
    }
}
