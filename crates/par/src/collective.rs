//! Collectives generic over a [`Transport`].
//!
//! The butterfly all-reduce, its fused and split-phase variants, the layout
//! redistribution used by the agglomerated coarse solve, and a barrier — all
//! written once against the [`Transport`] trait so the identical algorithm
//! (and therefore the identical floating-point summation order) runs over
//! in-process channels and over sockets between real OS processes. Bitwise
//! cross-backend equivalence is asserted by `tests/transport_equivalence.rs`.
//!
//! Buffer discipline (the redundant-clone fix): sends borrow the local
//! buffer (`&[f64]`), receives land in one caller-provided scratch buffer
//! reused across stages, and the unfold receive overwrites the local buffer
//! in place — no per-stage payload clones anywhere on the butterfly.

use crate::spmd::reduce_stages;
use crate::trace::{edge_begin, edge_end, OpenEdge, SPLIT_PHASE_BIT};
use crate::transport::{Transport, TransportError};
use crate::Layout;
use kryst_obs::SpanKind;

/// All-reduce (sum) in place via the recursive-doubling **butterfly**:
/// `log₂ P` message stages when `P` is a power of two, `⌊log₂ P⌋ + 2`
/// otherwise ([`reduce_stages`]) — the same schedule on every backend.
/// `scratch` receives partner payloads and is reused across stages (and
/// across calls, if the caller keeps it). Returns the stage count executed.
pub fn all_reduce_sum<T: Transport + ?Sized>(
    t: &T,
    local: &mut Vec<f64>,
    scratch: &mut Vec<f64>,
) -> Result<u32, TransportError> {
    // One trace hook covers the plain, fused, and barrier flavors — they all
    // funnel through this butterfly.
    let trace = edge_begin(t, SpanKind::Reduction);
    let p = t.nranks();
    if p == 1 {
        edge_end(t, trace, 0);
        return Ok(0);
    }
    let r = t.rank();
    let pow2 = 1usize << p.ilog2();
    let extras = p - pow2;
    let mut stages = 0u32;
    // Fold-in: excess ranks collapse their contribution onto the
    // power-of-two core.
    if extras > 0 {
        if r >= pow2 {
            t.send(r - pow2, local)?;
        } else if r < extras {
            t.recv_into(r + pow2, scratch)?;
            accumulate(local, scratch)?;
        }
        stages += 1;
    }
    // Butterfly among the power-of-two core: exchange with `r ^ step`.
    // (Sends are buffered on every backend — channel sends enqueue, socket
    // sends hand the frame to a writer thread — so the symmetric
    // send-then-recv is deadlock-free.)
    let mut step = 1;
    while step < pow2 {
        if r < pow2 {
            let partner = r ^ step;
            t.send(partner, local)?;
            t.recv_into(partner, scratch)?;
            accumulate(local, scratch)?;
        }
        stages += 1;
        step <<= 1;
    }
    // Unfold: hand the finished sum back to the excess ranks. The receive
    // overwrites `local` directly — the dead buffer is reused, not cloned.
    if extras > 0 {
        if r < extras {
            t.send(r + pow2, local)?;
        } else if r >= pow2 {
            t.recv_into(r - pow2, local)?;
        }
        stages += 1;
    }
    edge_end(t, trace, u64::from(stages));
    Ok(stages)
}

/// Fused all-reduce: several logically separate contributions batched into
/// **one** butterfly — one latency charge carrying the summed payload. Each
/// part is returned reduced, in order, with the stage count of a single
/// [`all_reduce_sum`].
pub fn fused_all_reduce_sum<T: Transport + ?Sized>(
    t: &T,
    parts: &[Vec<f64>],
    scratch: &mut Vec<f64>,
) -> Result<(Vec<Vec<f64>>, u32), TransportError> {
    let mut buf = Vec::with_capacity(parts.iter().map(Vec::len).sum());
    for part in parts {
        buf.extend_from_slice(part);
    }
    let stages = all_reduce_sum(t, &mut buf, scratch)?;
    let mut out = Vec::with_capacity(parts.len());
    let mut off = 0;
    for part in parts {
        out.push(buf[off..off + part.len()].to_vec());
        off += part.len();
    }
    Ok((out, stages))
}

/// Synchronize all ranks (an empty-payload butterfly — no dedicated barrier
/// machinery, so the schedule is identical on every backend).
pub fn barrier<T: Transport + ?Sized>(t: &T) -> Result<(), TransportError> {
    let mut empty = Vec::new();
    let mut scratch = Vec::new();
    all_reduce_sum(t, &mut empty, &mut scratch)?;
    Ok(())
}

/// Start a split-phase all-reduce: post every butterfly message that does
/// **not** depend on a prior receive, then return a handle so the caller can
/// run independent local work while those messages are in flight. Complete with
/// [`PendingReduce::finish`]; result, message count, and stage count are
/// identical to a synchronous [`all_reduce_sum`] — only the *placement* of
/// the waiting changes.
pub fn ireduce_start<'a, T: Transport + ?Sized>(
    t: &'a T,
    local: Vec<f64>,
) -> Result<PendingReduce<'a, T>, TransportError> {
    // The span opens here and closes in `finish`, so its wall footprint is
    // the whole in-flight window — the overlap the skew analysis decomposes.
    let trace = edge_begin(t, SpanKind::Reduction);
    let p = t.nranks();
    let mut sent_stage1 = false;
    if p > 1 {
        let r = t.rank();
        let pow2 = 1usize << p.ilog2();
        let extras = p - pow2;
        // Fold-in sends from the excess ranks are dependency-free.
        if extras > 0 && r >= pow2 {
            t.send(r - pow2, &local)?;
        }
        // Core ranks whose stage-1 payload does not depend on a fold-in
        // receive can post their first butterfly send immediately.
        if r < pow2 && r >= extras {
            t.send(r ^ 1, &local)?;
            sent_stage1 = true;
        }
    }
    Ok(PendingReduce {
        t,
        local,
        sent_stage1,
        trace,
    })
}

/// Split-phase fused all-reduce: like [`ireduce_start`] but batching several
/// parts into the one in-flight butterfly.
pub fn ifused_reduce_start<'a, T: Transport + ?Sized>(
    t: &'a T,
    parts: &[Vec<f64>],
) -> Result<PendingFusedReduce<'a, T>, TransportError> {
    let mut buf = Vec::with_capacity(parts.iter().map(Vec::len).sum());
    let mut lens = Vec::with_capacity(parts.len());
    for part in parts {
        buf.extend_from_slice(part);
        lens.push(part.len());
    }
    Ok(PendingFusedReduce {
        inner: ireduce_start(t, buf)?,
        lens,
    })
}

/// In-flight split-phase all-reduce started by [`ireduce_start`].
///
/// Dropping the handle without calling [`PendingReduce::finish`] would leave
/// partner ranks blocked on their receives, so finishing is not optional in
/// a multi-rank run — the handle is `#[must_use]`.
#[must_use = "an in-flight reduction must be finished or partner ranks deadlock"]
pub struct PendingReduce<'a, T: Transport + ?Sized> {
    t: &'a T,
    local: Vec<f64>,
    sent_stage1: bool,
    trace: OpenEdge,
}

impl<T: Transport + ?Sized> PendingReduce<'_, T> {
    /// Complete the butterfly: receive (and where still needed, send) the
    /// remaining stages and return the fully reduced vector plus the total
    /// stage count of the whole operation. Result, message count, and stage
    /// count match [`all_reduce_sum`] exactly.
    pub fn finish(mut self, scratch: &mut Vec<f64>) -> Result<(Vec<f64>, u32), TransportError> {
        let t = self.t;
        let p = t.nranks();
        if p == 1 {
            edge_end(t, self.trace.take(), SPLIT_PHASE_BIT);
            return Ok((self.local, 0));
        }
        let r = t.rank();
        let pow2 = 1usize << p.ilog2();
        let extras = p - pow2;
        let mut stages = 0u32;
        if extras > 0 {
            if r < extras {
                t.recv_into(r + pow2, scratch)?;
                accumulate(&mut self.local, scratch)?;
            }
            stages += 1;
        }
        let mut step = 1;
        while step < pow2 {
            if r < pow2 {
                let partner = r ^ step;
                // Stage-1 sends may already be on the wire from
                // `ireduce_start`; everything else goes out now.
                if step > 1 || !self.sent_stage1 {
                    t.send(partner, &self.local)?;
                }
                t.recv_into(partner, scratch)?;
                accumulate(&mut self.local, scratch)?;
            }
            stages += 1;
            step <<= 1;
        }
        if extras > 0 {
            if r < extras {
                t.send(r + pow2, &self.local)?;
            } else if r >= pow2 {
                t.recv_into(r - pow2, &mut self.local)?;
            }
            stages += 1;
        }
        debug_assert_eq!(stages, reduce_stages(p));
        edge_end(t, self.trace.take(), u64::from(stages) | SPLIT_PHASE_BIT);
        Ok((self.local, stages))
    }
}

/// In-flight split-phase *fused* all-reduce (see [`ifused_reduce_start`]).
#[must_use = "an in-flight reduction must be finished or partner ranks deadlock"]
pub struct PendingFusedReduce<'a, T: Transport + ?Sized> {
    inner: PendingReduce<'a, T>,
    lens: Vec<usize>,
}

impl<T: Transport + ?Sized> PendingFusedReduce<'_, T> {
    /// Complete the batched butterfly and split the payload back into its
    /// parts, in order, plus the stage count.
    pub fn finish(self, scratch: &mut Vec<f64>) -> Result<(Vec<Vec<f64>>, u32), TransportError> {
        let (reduced, stages) = self.inner.finish(scratch)?;
        let mut out = Vec::with_capacity(self.lens.len());
        let mut off = 0;
        for len in self.lens {
            out.push(reduced[off..off + len].to_vec());
            off += len;
        }
        Ok((out, stages))
    }
}

/// Move block-row data from the `src` distribution to the `dst` distribution
/// over the transport's point-to-point path. Rows whose owner does not
/// change are copied locally (no message) — the same accounting the modeled
/// `CoarseAgglom` gather/scatter uses, so measured wire counters and modeled
/// message/byte counts coincide. `local` holds this rank's `src` rows;
/// `out` is resized to this rank's `dst` row count.
///
/// Both layouts must span the transport's world (ranks beyond a subset
/// simply own zero rows).
pub fn redistribute<T: Transport + ?Sized>(
    t: &T,
    src: &Layout,
    dst: &Layout,
    local: &[f64],
    out: &mut Vec<f64>,
) -> Result<(), TransportError> {
    let p = t.nranks();
    let r = t.rank();
    if src.nranks() != p || dst.nranks() != p || src.n() != dst.n() {
        return Err(TransportError::Protocol {
            detail: format!(
                "redistribute: layouts ({} / {} ranks, {} / {} rows) do not match world of {p}",
                src.nranks(),
                dst.nranks(),
                src.n(),
                dst.n()
            ),
        });
    }
    if local.len() != src.local_n(r) {
        return Err(TransportError::Protocol {
            detail: format!(
                "redistribute: rank {r} holds {} rows, src layout owns {}",
                local.len(),
                src.local_n(r)
            ),
        });
    }
    let trace = edge_begin(t, SpanKind::Redistribute);
    let my_src = src.range(r);
    let my_dst = dst.range(r);
    out.clear();
    out.resize(dst.local_n(r), 0.0);
    // Post all sends first: with buffered sends on every backend this cannot
    // deadlock, and receives can then drain in any rank order.
    for d in 0..p {
        let ov = overlap(&my_src, &dst.range(d));
        if ov.is_empty() {
            continue;
        }
        let slice = &local[ov.start - my_src.start..ov.end - my_src.start];
        if d == r {
            out[ov.start - my_dst.start..ov.end - my_dst.start].copy_from_slice(slice);
        } else {
            t.send(d, slice)?;
        }
    }
    let mut scratch = Vec::new();
    for s in 0..p {
        if s == r {
            continue;
        }
        let ov = overlap(&src.range(s), &my_dst);
        if ov.is_empty() {
            continue;
        }
        t.recv_into(s, &mut scratch)?;
        if scratch.len() != ov.len() {
            return Err(TransportError::Protocol {
                detail: format!(
                    "redistribute: rank {r} expected {} rows from {s}, got {}",
                    ov.len(),
                    scratch.len()
                ),
            });
        }
        out[ov.start - my_dst.start..ov.end - my_dst.start].copy_from_slice(&scratch);
    }
    edge_end(t, trace, out.len() as u64);
    Ok(())
}

/// Messages a [`redistribute`] between `src` and `dst` puts on the wire
/// (rows staying on their owner are free) — the check-sum the equivalence
/// tests compare against measured wire counters.
pub fn redistribute_messages(src: &Layout, dst: &Layout) -> (usize, usize) {
    let mut msgs = 0;
    let mut rows = 0;
    for s in 0..src.nranks() {
        for d in 0..dst.nranks() {
            if s == d {
                continue;
            }
            let ov = overlap(&src.range(s), &dst.range(d));
            if !ov.is_empty() {
                msgs += 1;
                rows += ov.len();
            }
        }
    }
    (msgs, rows)
}

/// Layout distributing `n` rows evenly over the first `subset` ranks of an
/// `nranks`-rank world (the remaining ranks own zero rows) — the destination
/// distribution of the agglomerated coarse solve's gather.
pub fn subset_layout(n: usize, nranks: usize, subset: usize) -> Layout {
    assert!(subset >= 1 && subset <= nranks);
    let inner = Layout::even(n, subset);
    let counts: Vec<usize> = (0..nranks)
        .map(|r| if r < subset { inner.local_n(r) } else { 0 })
        .collect();
    Layout::from_counts(&counts)
}

fn overlap(a: &std::ops::Range<usize>, b: &std::ops::Range<usize>) -> std::ops::Range<usize> {
    a.start.max(b.start)..a.end.min(b.end).max(a.start.max(b.start))
}

fn accumulate(local: &mut [f64], other: &[f64]) -> Result<(), TransportError> {
    if local.len() != other.len() {
        return Err(TransportError::Protocol {
            detail: format!(
                "payload length mismatch in reduction: {} vs {}",
                local.len(),
                other.len()
            ),
        });
    }
    for (a, b) in local.iter_mut().zip(other) {
        *a += *b;
    }
    Ok(())
}
