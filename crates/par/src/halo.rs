//! Halo-exchange plans derived from matrix sparsity.
//!
//! For a block-row distributed sparse matrix, each SpMV/SpMM requires every
//! rank to receive the off-rank vector entries its rows reference. This
//! module computes the exact communication pattern — which pairs of ranks
//! exchange, and how many entries — so the instrumented operator can report
//! exact message/byte counts to the cost model.

#![allow(clippy::needless_range_loop)] // index loops mirror the BLAS/LAPACK reference forms

use crate::transport::{Transport, TransportError};
use crate::Layout;
use kryst_scalar::Scalar;
use kryst_sparse::Csr;

/// Communication plan for one distributed operator.
#[derive(Debug, Clone)]
pub struct HaloPlan {
    /// Per rank: sorted list of (neighbor rank, number of entries received).
    pub recv: Vec<Vec<(usize, usize)>>,
    /// Total messages per exchange (sum of neighbor counts over ranks).
    pub messages_per_exchange: usize,
    /// Total scalar entries moved per exchange (one vector).
    pub entries_per_exchange: usize,
}

impl HaloPlan {
    /// Build the plan for `a` distributed by `layout`.
    pub fn build<S: Scalar>(a: &Csr<S>, layout: &Layout) -> Self {
        let nranks = layout.nranks();
        let mut recv: Vec<Vec<(usize, usize)>> = vec![Vec::new(); nranks];
        let mut messages = 0usize;
        let mut entries = 0usize;
        for r in 0..nranks {
            // Collect off-rank columns referenced by rank r's rows.
            let mut ghost: Vec<usize> = Vec::new();
            let range = layout.range(r);
            for i in range.clone() {
                for &j in a.row_indices(i) {
                    if !range.contains(&j) {
                        ghost.push(j);
                    }
                }
            }
            ghost.sort_unstable();
            ghost.dedup();
            // Group by owner.
            let mut k = 0;
            while k < ghost.len() {
                let owner = layout.rank_of(ghost[k]);
                let mut cnt = 0;
                while k < ghost.len() && layout.rank_of(ghost[k]) == owner {
                    cnt += 1;
                    k += 1;
                }
                recv[r].push((owner, cnt));
                messages += 1;
                entries += cnt;
            }
        }
        Self {
            recv,
            messages_per_exchange: messages,
            entries_per_exchange: entries,
        }
    }

    /// Bytes moved by one exchange of a `p`-wide multivector with
    /// `bytes_per_scalar`-byte entries.
    pub fn bytes_per_exchange(&self, p: usize, bytes_per_scalar: usize) -> usize {
        self.entries_per_exchange * p * bytes_per_scalar
    }

    /// Maximum number of neighbors over all ranks (network contention proxy).
    pub fn max_neighbors(&self) -> usize {
        self.recv.iter().map(Vec::len).max().unwrap_or(0)
    }

    /// Execute one exchange of this plan over a [`Transport`], as the
    /// calling endpoint's rank: post every outgoing message (the plan is
    /// receive-oriented, so rank `r` sends to each rank `d` whose `recv[d]`
    /// lists `r` as an owner), then drain the incoming ones. Payloads are
    /// synthetic (`fill`, `cols` entries per ghost row) of exactly the sizes
    /// a real multivector exchange would move — this is the *measured* side
    /// of the plan's modeled message/byte counts. Returns the number of
    /// scalar entries received.
    pub fn execute<T: Transport + ?Sized>(
        &self,
        t: &T,
        cols: usize,
        fill: f64,
    ) -> Result<usize, TransportError> {
        let r = t.rank();
        if t.nranks() != self.recv.len() {
            return Err(TransportError::Protocol {
                detail: format!(
                    "halo plan spans {} ranks, transport world is {}",
                    self.recv.len(),
                    t.nranks()
                ),
            });
        }
        let trace = crate::trace::edge_begin(t, kryst_obs::SpanKind::Halo);
        // Sends first (buffered on every backend — deadlock-free).
        for (d, wants) in self.recv.iter().enumerate() {
            for &(owner, entries) in wants {
                if owner == r {
                    t.send(d, &vec![fill; entries * cols])?;
                }
            }
        }
        let mut got = 0;
        let mut buf = Vec::new();
        for &(owner, entries) in &self.recv[r] {
            t.recv_into(owner, &mut buf)?;
            if buf.len() != entries * cols {
                return Err(TransportError::Protocol {
                    detail: format!(
                        "halo exchange: rank {r} expected {} entries from {owner}, got {}",
                        entries * cols,
                        buf.len()
                    ),
                });
            }
            got += buf.len();
        }
        crate::trace::edge_end(t, trace, got as u64);
        Ok(got)
    }

    /// Encode the plan as a flat `f64` frame so a primitive worker can
    /// rebuild it: `[nranks, then per rank: neighbor count followed by
    /// (owner, entries) pairs]`.
    pub fn encode(&self) -> Vec<f64> {
        let mut out = vec![self.recv.len() as f64];
        for wants in &self.recv {
            out.push(wants.len() as f64);
            for &(owner, entries) in wants {
                out.push(owner as f64);
                out.push(entries as f64);
            }
        }
        out
    }

    /// Rebuild a plan from its [`HaloPlan::encode`] frame (totals are
    /// recomputed). `None` on a malformed frame.
    pub fn decode(frame: &[f64]) -> Option<Self> {
        let mut it = frame.iter().copied();
        let nranks = it.next()? as usize;
        let mut recv = Vec::with_capacity(nranks);
        let mut messages = 0;
        let mut entries_total = 0;
        for _ in 0..nranks {
            let cnt = it.next()? as usize;
            let mut wants = Vec::with_capacity(cnt);
            for _ in 0..cnt {
                let owner = it.next()? as usize;
                let entries = it.next()? as usize;
                if owner >= nranks {
                    return None;
                }
                wants.push((owner, entries));
                messages += 1;
                entries_total += entries;
            }
            recv.push(wants);
        }
        if it.next().is_some() {
            return None;
        }
        Some(Self {
            recv,
            messages_per_exchange: messages,
            entries_per_exchange: entries_total,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kryst_sparse::Coo;

    fn laplace1d(n: usize) -> Csr<f64> {
        let mut c = Coo::new(n, n);
        for i in 0..n {
            c.push(i, i, 2.0);
            if i > 0 {
                c.push(i, i - 1, -1.0);
            }
            if i + 1 < n {
                c.push(i, i + 1, -1.0);
            }
        }
        c.to_csr()
    }

    #[test]
    fn tridiagonal_has_chain_topology() {
        let a = laplace1d(100);
        let layout = Layout::even(100, 4);
        let plan = HaloPlan::build(&a, &layout);
        // Interior ranks have 2 neighbors, end ranks 1 → 2+2·... messages.
        assert_eq!(plan.messages_per_exchange, 2 + 2 + 1 + 1);
        // One ghost entry per neighbor for a tridiagonal stencil.
        assert_eq!(plan.entries_per_exchange, 6);
        assert_eq!(plan.max_neighbors(), 2);
        assert_eq!(plan.bytes_per_exchange(4, 8), 6 * 4 * 8);
    }

    #[test]
    fn single_rank_has_no_communication() {
        let a = laplace1d(50);
        let plan = HaloPlan::build(&a, &Layout::even(50, 1));
        assert_eq!(plan.messages_per_exchange, 0);
        assert_eq!(plan.entries_per_exchange, 0);
    }

    #[test]
    fn encode_decode_round_trips() {
        let a = laplace1d(100);
        let plan = HaloPlan::build(&a, &Layout::even(100, 4));
        let decoded = HaloPlan::decode(&plan.encode()).expect("well-formed frame");
        assert_eq!(decoded.recv, plan.recv);
        assert_eq!(decoded.messages_per_exchange, plan.messages_per_exchange);
        assert_eq!(decoded.entries_per_exchange, plan.entries_per_exchange);
        assert!(HaloPlan::decode(&plan.encode()[1..]).is_none());
    }

    #[test]
    fn execute_moves_exactly_the_planned_traffic() {
        let a = laplace1d(64);
        let p = 4;
        let plan = HaloPlan::build(&a, &Layout::even(64, p));
        let cols = 3;
        let run = crate::spmd::run_spmd(crate::TransportKind::Channel, p, |t| {
            let got = plan.execute(t, cols, 1.0)?;
            Ok(vec![got as f64])
        })
        .expect("halo exchange runs");
        let total_entries: f64 = run.results.iter().map(|r| r[0]).sum();
        assert_eq!(total_entries, (plan.entries_per_exchange * cols) as f64);
        assert_eq!(run.messages, plan.messages_per_exchange as u64);
        let bytes: u64 = run.wire.iter().map(|w| w.bytes_sent).sum();
        assert_eq!(bytes, plan.bytes_per_exchange(cols, 8) as u64);
    }

    #[test]
    fn more_ranks_more_messages() {
        let a = laplace1d(64);
        let m4 = HaloPlan::build(&a, &Layout::even(64, 4)).messages_per_exchange;
        let m16 = HaloPlan::build(&a, &Layout::even(64, 16)).messages_per_exchange;
        assert!(m16 > m4);
    }
}
