//! Cross-rank timeline gather and collective span instrumentation.
//!
//! The recording side lives in `kryst_obs::span` (bounded per-rank rings,
//! local + logical clocks); this module supplies the two pieces that need a
//! [`Transport`]:
//!
//! * [`edge_begin`]/[`edge_end`] — open and close a *collective-edge* span
//!   around a collective call site, attaching the wire counters the
//!   transport measured inside the span (payload bytes and messages this
//!   rank actually sent). One relaxed load and no clock read when tracing is
//!   disabled, so solver results stay bit-identical on/off.
//! * [`gather_timeline`] — at solve end (or on demand), every rank drains
//!   its ring and ships it to rank 0 **over the transport's control plane**
//!   (`send_ctl`/`recv_ctl`, excluded from wire counters so the gather never
//!   perturbs the measured traffic); rank 0 merges the streams into one
//!   [`Timeline`]. A dead peer becomes an entry in `Timeline::missing` — a
//!   partial timeline, never a panic.
//!
//! If `KRYST_TRACE_TIMELINE=path` is set, rank 0 also writes the merged
//! timeline as Chrome-trace JSON (one track per rank, flow events linking
//! matching collective spans) to `path` as part of the gather.

use crate::transport::{Transport, TransportError};
use kryst_obs::span::{self, OpenSpan};
use kryst_obs::timeline::{RankStream, Timeline};
use kryst_obs::SpanKind;
use kryst_obs::WireSnapshot;

/// `detail` bit marking a [`SpanKind::Reduction`] span as split-phase
/// (started by `ireduce_start`, finished later); the low 32 bits remain the
/// butterfly stage count.
pub const SPLIT_PHASE_BIT: u64 = 1 << 32;

/// An open collective-edge span plus the wire counters at entry; `None`
/// when tracing is disabled.
pub type OpenEdge = Option<(OpenSpan, WireSnapshot)>;

/// Open a collective-edge span (bumps this rank's logical clock) and
/// snapshot the endpoint's wire counters. Returns `None` — after one
/// relaxed load, with no clock read — when tracing is disabled.
#[inline]
pub fn edge_begin<T: Transport + ?Sized>(t: &T, kind: SpanKind) -> OpenEdge {
    let open = span::begin_edge(kind)?;
    Some((open, t.wire().snapshot()))
}

/// Close a collective-edge span, recording the payload bytes and messages
/// this rank put on the wire since [`edge_begin`]. No-op for `None`.
#[inline]
pub fn edge_end<T: Transport + ?Sized>(t: &T, open: OpenEdge, detail: u64) {
    let Some((open, at_entry)) = open else { return };
    let delta = t.wire().snapshot().since(&at_entry);
    span::end(Some(open), delta.bytes_sent, delta.msgs_sent, detail);
}

/// Gather every rank's drained span ring onto rank 0 and merge them into a
/// [`Timeline`]. Collective over the transport's control plane: every rank
/// must call it at the same point. Non-root ranks return `Ok(None)`; rank 0
/// returns the merged (possibly partial) timeline and, when
/// `KRYST_TRACE_TIMELINE` is set, writes the Chrome-trace export.
///
/// Dead peers are tolerated on the root: a failed control receive (or a
/// malformed frame) records the rank in `Timeline::missing` instead of
/// propagating the error.
pub fn gather_timeline<T: Transport + ?Sized>(t: &T) -> Result<Option<Timeline>, TransportError> {
    let (spans, dropped) = span::drain();
    let rank = t.rank();
    let nranks = t.nranks();
    let stream = RankStream {
        rank,
        dropped,
        spans,
    };
    if rank != 0 {
        t.send_ctl(0, &stream.encode())?;
        return Ok(None);
    }
    let mut streams = vec![stream];
    let mut missing = Vec::new();
    let mut buf = Vec::new();
    for r in 1..nranks {
        match t.recv_ctl(r, &mut buf) {
            Ok(()) => match RankStream::decode(&buf) {
                Some(s) if s.rank == r => streams.push(s),
                _ => missing.push(r),
            },
            Err(_) => missing.push(r),
        }
    }
    let tl = Timeline::merge(nranks, streams, missing);
    maybe_export(&tl);
    Ok(Some(tl))
}

/// Write `tl` as Chrome-trace JSON to `$KRYST_TRACE_TIMELINE` if that is
/// set (best effort — an unwritable path must not fail the solve).
pub fn maybe_export(tl: &Timeline) {
    if let Ok(path) = std::env::var("KRYST_TRACE_TIMELINE") {
        if !path.is_empty() {
            if let Err(e) = std::fs::write(&path, kryst_obs::chrome_trace(tl)) {
                eprintln!("kryst: could not write trace timeline to {path}: {e}");
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collective::all_reduce_sum;
    use crate::spmd::run_spmd;
    use crate::transport::TransportKind;

    // The trace flag is process-global; serialize the tests that flip it.
    fn with_tracing<R>(f: impl FnOnce() -> R) -> R {
        static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
        let _g = LOCK.lock().unwrap_or_else(|e| e.into_inner());
        span::set_trace_enabled(true);
        let r = f();
        span::set_trace_enabled(false);
        r
    }

    #[test]
    fn gather_merges_all_rank_streams() {
        with_tracing(|| {
            let p = 4;
            let run = run_spmd(TransportKind::Channel, p, |t| {
                let mut local = vec![t.rank() as f64];
                let mut scratch = Vec::new();
                all_reduce_sum(t, &mut local, &mut scratch)?;
                {
                    let _g = span::traced(SpanKind::PrecondApply);
                    std::hint::black_box(local[0] * 2.0);
                }
                let tl = gather_timeline(t)?;
                match tl {
                    Some(tl) => Ok(tl.encode()),
                    None => Ok(Vec::new()),
                }
            })
            .expect("traced run succeeds");
            let tl = Timeline::decode(&run.results[0]).expect("rank 0 returns a timeline");
            assert_eq!(tl.nranks, p);
            assert!(tl.missing.is_empty());
            assert_eq!(tl.streams.len(), p);
            // Every rank recorded the same collective (seq 0) plus one local
            // span.
            let groups = tl.collectives();
            assert_eq!(groups.len(), 1);
            assert_eq!(groups[0].members.len(), p);
            assert_eq!(groups[0].kind, SpanKind::Reduction);
            for s in &tl.streams {
                assert_eq!(s.spans.len(), 2);
                assert_eq!(s.spans[1].kind, SpanKind::PrecondApply);
            }
        });
    }

    #[test]
    fn gather_tolerates_a_dead_rank() {
        with_tracing(|| {
            let p = 3;
            let run = run_spmd(TransportKind::Channel, p, |t| {
                // Rank 1 dies before the gather: records a local span, then
                // returns without participating. Survivors use only local
                // spans (a collective would hang on the dead peer).
                {
                    let _g = span::traced(SpanKind::PrecondApply);
                    std::hint::black_box(t.rank());
                }
                if t.rank() == 1 {
                    return Ok(Vec::new());
                }
                let tl = gather_timeline(t)?;
                match tl {
                    Some(tl) => Ok(tl.encode()),
                    None => Ok(Vec::new()),
                }
            })
            .expect("run survives the dead rank");
            let tl = Timeline::decode(&run.results[0]).expect("partial timeline");
            assert_eq!(tl.missing, vec![1]);
            assert_eq!(tl.streams.len(), 2);
            assert_eq!(tl.stream(0).unwrap().spans.len(), 1);
            assert_eq!(tl.stream(2).unwrap().spans.len(), 1);
        });
    }

    #[test]
    fn edge_spans_carry_wire_deltas() {
        with_tracing(|| {
            let p = 2;
            let run = run_spmd(TransportKind::Channel, p, |t| {
                let mut local = vec![1.0, 2.0, 3.0];
                let mut scratch = Vec::new();
                all_reduce_sum(t, &mut local, &mut scratch)?;
                let tl = gather_timeline(t)?;
                match tl {
                    Some(tl) => Ok(tl.encode()),
                    None => Ok(Vec::new()),
                }
            })
            .expect("run succeeds");
            let tl = Timeline::decode(&run.results[0]).unwrap();
            for s in &tl.streams {
                let sp = &s.spans[0];
                assert_eq!(sp.kind, SpanKind::Reduction);
                // P = 2 butterfly: each rank sends one 3-double message.
                assert_eq!(sp.msgs, 1);
                assert_eq!(sp.bytes, 24);
                assert_eq!(sp.detail, 1); // one stage
            }
        });
    }

    #[test]
    fn disabled_tracing_gathers_empty_streams() {
        span::set_trace_enabled(false);
        let run = run_spmd(TransportKind::Channel, 2, |t| {
            let tl = gather_timeline(t)?;
            match tl {
                Some(tl) => Ok(tl.encode()),
                None => Ok(Vec::new()),
            }
        })
        .expect("run succeeds");
        let tl = Timeline::decode(&run.results[0]).unwrap();
        assert!(tl.streams.iter().all(|s| s.spans.is_empty()));
    }
}
