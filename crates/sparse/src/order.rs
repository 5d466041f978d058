//! Fill-reducing orderings: reverse Cuthill–McKee.
//!
//! The banded direct solver's efficiency hinges on a small bandwidth; RCM on
//! the symmetrized pattern is the classic choice for the stencil/FEM matrices
//! this workspace generates.

use crate::Csr;
use kryst_scalar::Scalar;

/// Bandwidth of a matrix: `max |i − j|` over stored entries.
pub fn bandwidth<S: Scalar>(a: &Csr<S>) -> usize {
    let mut bw = 0usize;
    for i in 0..a.nrows() {
        for &j in a.row_indices(i) {
            bw = bw.max(i.abs_diff(j));
        }
    }
    bw
}

/// Adjacency lists of the symmetrized pattern (no self loops).
fn sym_adjacency<S: Scalar>(a: &Csr<S>) -> Vec<Vec<usize>> {
    let n = a.nrows();
    let mut adj = vec![Vec::new(); n];
    for i in 0..n {
        for &j in a.row_indices(i) {
            if i != j {
                adj[i].push(j);
                adj[j].push(i);
            }
        }
    }
    for l in &mut adj {
        l.sort_unstable();
        l.dedup();
    }
    adj
}

/// BFS levels from `start`; returns (levels, eccentricity, last-level node of
/// minimum degree).
fn bfs_levels(adj: &[Vec<usize>], start: usize) -> (Vec<i64>, usize, usize) {
    let n = adj.len();
    let mut level = vec![-1i64; n];
    let mut queue = std::collections::VecDeque::new();
    level[start] = 0;
    queue.push_back(start);
    let mut last = start;
    let mut ecc = 0usize;
    while let Some(u) = queue.pop_front() {
        for &v in &adj[u] {
            if level[v] < 0 {
                level[v] = level[u] + 1;
                ecc = ecc.max(level[v] as usize);
                queue.push_back(v);
                last = v;
            }
        }
    }
    // Prefer a minimum-degree node on the deepest level.
    let deepest = level[last];
    let mut best = last;
    for (u, &l) in level.iter().enumerate() {
        if l == deepest && adj[u].len() < adj[best].len() {
            best = u;
        }
    }
    (level, ecc, best)
}

/// George–Liu pseudo-peripheral node heuristic.
fn pseudo_peripheral(adj: &[Vec<usize>], seed: usize) -> usize {
    let mut x = seed;
    let (_, mut ecc, mut y) = bfs_levels(adj, x);
    for _ in 0..8 {
        let (_, ecc2, y2) = bfs_levels(adj, y);
        if ecc2 > ecc {
            x = y;
            y = y2;
            ecc = ecc2;
        } else {
            return y;
        }
    }
    let _ = x;
    y
}

/// Reverse Cuthill–McKee permutation.
///
/// Returns `perm` with the meaning: new index `k` holds old index `perm[k]`.
/// Disconnected components are handled by restarting from the lowest-degree
/// unvisited vertex.
pub fn rcm<S: Scalar>(a: &Csr<S>) -> Vec<usize> {
    let n = a.nrows();
    let adj = sym_adjacency(a);
    let mut visited = vec![false; n];
    let mut order = Vec::with_capacity(n);
    let mut by_degree: Vec<usize> = (0..n).collect();
    by_degree.sort_unstable_by_key(|&u| adj[u].len());
    let mut scan = 0;
    while order.len() < n {
        // Next unvisited vertex of minimum degree → pseudo-peripheral start.
        while visited[by_degree[scan]] {
            scan += 1;
        }
        let start = pseudo_peripheral(&adj, by_degree[scan]);
        let mut queue = std::collections::VecDeque::new();
        visited[start] = true;
        queue.push_back(start);
        let mut nbrs: Vec<usize> = Vec::new();
        while let Some(u) = queue.pop_front() {
            order.push(u);
            nbrs.clear();
            nbrs.extend(adj[u].iter().copied().filter(|&v| !visited[v]));
            nbrs.sort_unstable_by_key(|&v| adj[v].len());
            for &v in &nbrs {
                visited[v] = true;
                queue.push_back(v);
            }
        }
    }
    order.reverse();
    order
}

/// Apply a symmetric permutation: `B = A(perm, perm)` (B's row `k` is A's row
/// `perm[k]`).
pub fn permute_sym<S: Scalar>(a: &Csr<S>, perm: &[usize]) -> Csr<S> {
    let n = a.nrows();
    assert_eq!(perm.len(), n);
    let mut inv = vec![0usize; n];
    for (k, &p) in perm.iter().enumerate() {
        inv[p] = k;
    }
    let mut coo = crate::Coo::with_capacity(n, n, a.nnz());
    for (k, &p) in perm.iter().enumerate() {
        for (&c, &v) in a.row_indices(p).iter().zip(a.row_values(p)) {
            coo.push(k, inv[c], v);
        }
    }
    coo.to_csr()
}

/// Permute a vector: `out[k] = x[perm[k]]`.
pub fn permute_vec<S: Copy>(x: &[S], perm: &[usize]) -> Vec<S> {
    perm.iter().map(|&p| x[p]).collect()
}

/// Inverse-permute a vector: `out[perm[k]] = x[k]`.
pub fn unpermute_vec<S: Copy + Default>(x: &[S], perm: &[usize]) -> Vec<S> {
    let mut out = vec![S::default(); x.len()];
    for (k, &p) in perm.iter().enumerate() {
        out[p] = x[k];
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Coo;

    /// 2-D 5-point Laplacian with *natural* ordering scrambled so RCM has
    /// something to do.
    fn scrambled_grid(nx: usize, ny: usize) -> Csr<f64> {
        let n = nx * ny;
        // A deterministic scramble permutation.
        let mut scramble: Vec<usize> = (0..n).collect();
        for i in 0..n {
            let j = (i * 37 + 13) % n;
            scramble.swap(i, j);
        }
        let id = |x: usize, y: usize| scramble[y * nx + x];
        let mut c = Coo::new(n, n);
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
        c.to_csr()
    }

    #[test]
    fn rcm_reduces_bandwidth() {
        let a = scrambled_grid(12, 12);
        let before = bandwidth(&a);
        let perm = rcm(&a);
        let b = permute_sym(&a, &perm);
        let after = bandwidth(&b);
        assert!(after < before / 2, "bandwidth {before} → {after}");
        // For a 12-wide grid, RCM should reach O(nx) bandwidth.
        assert!(after <= 16, "after = {after}");
    }

    #[test]
    fn permutation_is_similarity() {
        let a = scrambled_grid(5, 4);
        let perm = rcm(&a);
        let b = permute_sym(&a, &perm);
        // Check entries: b[k,l] == a[perm[k], perm[l]]
        for k in 0..a.nrows() {
            for l in 0..a.nrows() {
                assert_eq!(b.get(k, l), a.get(perm[k], perm[l]));
            }
        }
    }

    #[test]
    fn vec_permutation_roundtrip() {
        let x: Vec<f64> = (0..10).map(|i| i as f64).collect();
        let perm: Vec<usize> = (0..10).rev().collect();
        let y = permute_vec(&x, &perm);
        let z = unpermute_vec(&y, &perm);
        assert_eq!(x, z);
    }

    #[test]
    fn rcm_handles_disconnected_graphs() {
        // Two disjoint 3-cliques.
        let mut c = Coo::<f64>::new(6, 6);
        for base in [0, 3] {
            for i in 0..3 {
                for j in 0..3 {
                    c.push(base + i, base + j, if i == j { 2.0 } else { -1.0 });
                }
            }
        }
        let a = c.to_csr();
        let perm = rcm(&a);
        let mut sorted = perm.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..6).collect::<Vec<_>>());
    }
}
