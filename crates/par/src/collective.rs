//! Collectives generic over a [`Transport`].
//!
//! The butterfly all-reduce and its fused variant, written once against the
//! [`Transport`] trait so the identical algorithm (and therefore the
//! identical floating-point summation order) runs over in-process channels
//! and over sockets between real OS processes. Bitwise cross-backend equivalence is asserted by
//! `tests/transport_equivalence.rs`.
//!
//! Buffer discipline (the redundant-clone fix): sends borrow the local
//! buffer (`&[f64]`), receives land in one caller-provided scratch buffer
//! reused across stages, and the unfold receive overwrites the local buffer
//! in place — no per-stage payload clones anywhere on the butterfly.

use crate::transport::{Transport, TransportError};
use kryst_obs::span;
use kryst_obs::SpanKind;

/// All-reduce (sum) in place via the recursive-doubling **butterfly**:
/// `log₂ P` message stages when `P` is a power of two, `⌊log₂ P⌋ + 2`
/// otherwise ([`reduce_stages`](crate::spmd::reduce_stages)) — the same schedule on every backend.
/// `scratch` receives partner payloads and is reused across stages (and
/// across calls, if the caller keeps it). Returns the stage count executed.
pub fn all_reduce_sum<T: Transport + ?Sized>(
    t: &T,
    local: &mut Vec<f64>,
    scratch: &mut Vec<f64>,
) -> Result<u32, TransportError> {
    // One span covers the plain and fused flavors — both funnel through
    // this butterfly.
    let _span = span::traced(SpanKind::Reduction);
    let p = t.nranks();
    if p == 1 {
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
