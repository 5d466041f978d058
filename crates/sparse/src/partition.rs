//! Mesh/graph partitioning and overlap growth for Schwarz methods.
//!
//! Stand-in for SCOTCH/METIS (repro note in DESIGN.md): recursive coordinate
//! bisection produces balanced, geometrically compact parts from point
//! coordinates; a BFS layer-growth routine extends each part by δ element
//! layers exactly as the paper defines the overlapping decomposition
//! `T_i^δ` (§V-A); and a multiplicity-based partition of unity provides the
//! `D_i` matrices with `Σ R_iᵀ·D_i·R_i = I`.

#![allow(clippy::needless_range_loop)] // index loops mirror the BLAS/LAPACK reference forms

use crate::Csr;
use kryst_scalar::Scalar;

/// A non-overlapping partition of `0..n` into `nparts` parts.
#[derive(Clone, Debug)]
pub struct Partition {
    /// `part[i]` = owning part of index `i`.
    pub part: Vec<usize>,
    /// Number of parts.
    pub nparts: usize,
}

impl Partition {
    /// Index sets per part (sorted).
    pub fn owned_sets(&self) -> Vec<Vec<usize>> {
        let mut sets = vec![Vec::new(); self.nparts];
        for (i, &p) in self.part.iter().enumerate() {
            sets[p].push(i);
        }
        sets
    }
}

/// Recursive coordinate bisection over point coordinates (any dimension).
///
/// Splits the widest axis at the median, recursing until `nparts` parts
/// exist. `nparts` need not be a power of two: parts are split proportionally.
pub fn partition_rcb(coords: &[Vec<f64>], nparts: usize) -> Partition {
    let n = coords.len();
    assert!(nparts >= 1);
    let mut part = vec![0usize; n];
    let mut idx: Vec<usize> = (0..n).collect();
    rcb_recurse(coords, &mut idx, 0, nparts, &mut part);
    Partition { part, nparts }
}

fn rcb_recurse(
    coords: &[Vec<f64>],
    idx: &mut [usize],
    base: usize,
    nparts: usize,
    part: &mut [usize],
) {
    if nparts == 1 {
        for &i in idx.iter() {
            part[i] = base;
        }
        return;
    }
    let dim = coords.first().map(|c| c.len()).unwrap_or(0);
    // Widest axis over this subset.
    let mut best_axis = 0;
    let mut best_spread = f64::MIN;
    for d in 0..dim {
        let mut lo = f64::MAX;
        let mut hi = f64::MIN;
        for &i in idx.iter() {
            lo = lo.min(coords[i][d]);
            hi = hi.max(coords[i][d]);
        }
        if hi - lo > best_spread {
            best_spread = hi - lo;
            best_axis = d;
        }
    }
    // Proportional split: left gets ⌊nparts/2⌋ of the parts.
    let left_parts = nparts / 2;
    let right_parts = nparts - left_parts;
    let split_at = idx.len() * left_parts / nparts;
    idx.sort_unstable_by(|&a, &b| {
        coords[a][best_axis]
            .partial_cmp(&coords[b][best_axis])
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    let (left, right) = idx.split_at_mut(split_at);
    rcb_recurse(coords, left, base, left_parts, part);
    rcb_recurse(coords, right, base + left_parts, right_parts, part);
}

/// Grow each owned set by `delta` layers of graph adjacency — the paper's
/// overlapping decomposition: layer `δ` adds every vertex adjacent to layer
/// `δ−1`. Returns, per part, the sorted overlapping index set.
pub fn grow_overlap<S: Scalar>(a: &Csr<S>, partition: &Partition, delta: usize) -> Vec<Vec<usize>> {
    let owned = partition.owned_sets();
    owned
        .into_iter()
        .map(|mut set| {
            let mut inset = vec![false; a.nrows()];
            for &i in &set {
                inset[i] = true;
            }
            let mut frontier = set.clone();
            for _ in 0..delta {
                let mut next = Vec::new();
                for &u in &frontier {
                    for &v in a.row_indices(u) {
                        if !inset[v] {
                            inset[v] = true;
                            next.push(v);
                        }
                    }
                }
                set.extend_from_slice(&next);
                frontier = next;
            }
            set.sort_unstable();
            set
        })
        .collect()
}

/// Multiplicity-based partition of unity: for each part `i` and each index in
/// its overlapping set, the weight `1/multiplicity` where multiplicity is the
/// number of overlapping sets containing that index. Guarantees
/// `Σ_i R_iᵀ·D_i·R_i = I`.
pub fn partition_of_unity(n: usize, overlapping: &[Vec<usize>]) -> Vec<Vec<f64>> {
    let mut mult = vec![0usize; n];
    for set in overlapping {
        for &i in set {
            mult[i] += 1;
        }
    }
    overlapping
        .iter()
        .map(|set| set.iter().map(|&i| 1.0 / mult[i] as f64).collect())
        .collect()
}

/// Restricted partition of unity (RAS-style): weight 1 on indices the part
/// *owns*, 0 on the rest of its overlap.
pub fn restricted_partition_of_unity(
    partition: &Partition,
    overlapping: &[Vec<usize>],
) -> Vec<Vec<f64>> {
    overlapping
        .iter()
        .enumerate()
        .map(|(p, set)| {
            set.iter()
                .map(|&i| if partition.part[i] == p { 1.0 } else { 0.0 })
                .collect()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Coo;

    fn grid(nx: usize, ny: usize) -> (Csr<f64>, Vec<Vec<f64>>) {
        let n = nx * ny;
        let id = |x: usize, y: usize| y * nx + x;
        let mut c = Coo::new(n, n);
        let mut coords = Vec::with_capacity(n);
        for y in 0..ny {
            for x in 0..nx {
                let me = id(x, y);
                c.push(me, me, 4.0);
                if x > 0 {
                    c.push(me, id(x - 1, y), -1.0);
                }
                if x + 1 < nx {
                    c.push(me, id(x + 1, y), -1.0);
                }
                if y > 0 {
                    c.push(me, id(x, y - 1), -1.0);
                }
                if y + 1 < ny {
                    c.push(me, id(x, y + 1), -1.0);
                }
            }
        }
        for y in 0..ny {
            for x in 0..nx {
                let _ = y;
                coords.push(vec![x as f64, y as f64]);
            }
        }
        (c.to_csr(), coords)
    }

    #[test]
    fn rcb_balanced() {
        let (_, coords) = grid(16, 16);
        for nparts in [2, 3, 4, 8] {
            let sizes: Vec<usize> = (partition_rcb(&coords, nparts).owned_sets())
                .iter()
                .map(Vec::len)
                .collect();
            let (max, min) = (sizes.iter().max().unwrap(), sizes.iter().min().unwrap());
            assert!(max - min <= 16, "nparts={nparts}: {min}..{max}");
            assert_eq!(sizes.iter().sum::<usize>(), 256);
        }
    }

    #[test]
    fn overlap_grows_by_layers() {
        let (a, coords) = grid(8, 8);
        let p = partition_rcb(&coords, 4);
        let o0 = grow_overlap(&a, &p, 0);
        let o1 = grow_overlap(&a, &p, 1);
        let o2 = grow_overlap(&a, &p, 2);
        for i in 0..4 {
            assert!(o0[i].len() < o1[i].len());
            assert!(o1[i].len() < o2[i].len());
        }
        // δ=0 must equal the owned sets.
        assert_eq!(o0, p.owned_sets());
    }

    #[test]
    fn partition_of_unity_sums_to_one() {
        let (a, coords) = grid(9, 9);
        let p = partition_rcb(&coords, 3);
        let ov = grow_overlap(&a, &p, 2);
        let d = partition_of_unity(81, &ov);
        let mut acc = vec![0.0; 81];
        for (set, w) in ov.iter().zip(&d) {
            for (&i, &wi) in set.iter().zip(w) {
                acc[i] += wi;
            }
        }
        for (i, v) in acc.iter().enumerate() {
            assert!((v - 1.0).abs() < 1e-14, "index {i}: {v}");
        }
        // Restricted variant also sums to one (ownership is a partition).
        let dr = restricted_partition_of_unity(&p, &ov);
        let mut acc = vec![0.0; 81];
        for (set, w) in ov.iter().zip(&dr) {
            for (&i, &wi) in set.iter().zip(w) {
                acc[i] += wi;
            }
        }
        for v in &acc {
            assert!((v - 1.0).abs() < 1e-14);
        }
    }
}
