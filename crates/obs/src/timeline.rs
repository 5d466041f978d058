//! Merged rank×time timelines and straggler attribution.
//!
//! A [`RankStream`] is one rank's drained span ring (see [`crate::span`]);
//! a [`Timeline`] is the rank-0 merge of every reachable rank's stream. The
//! merge must survive two hostile facts of distributed tracing:
//!
//! * **Clock skew.** Each rank timestamps on its own monotonic clock with an
//!   arbitrary origin. Collective-edge spans carry a logical clock (`seq`)
//!   that is identical across ranks by construction — every rank executes
//!   the same collective schedule — so [`Timeline::merge`] estimates one
//!   offset per rank as the *median* difference of matched collective **end**
//!   times against a reference rank (a collective ends on every rank at
//!   nearly the same instant; its *start* spread is exactly the imbalance
//!   signal we must not absorb into the offset).
//! * **Dead ranks.** A gather may find a peer gone; the merge then carries
//!   the surviving streams plus the `missing` rank list — a *partial*
//!   timeline, never a panic.
//!
//! On top of the merged timeline sit the analyses the paper's scalability
//! argument needs: per-collective critical-rank attribution
//! ([`Timeline::imbalance`]), wait-behind-slowest histograms, and the skew
//! decomposition of exposed reductions into "slowest rank compute" vs
//! "wire" using calibrated machine constants ([`Timeline::skew`]).

use crate::json::JsonValue;
use crate::span::{SpanKind, TraceSpan, NO_SEQ, NUM_KINDS, SPAN_FIELDS};
use std::fmt::Write as _;

/// Log2 buckets in the wait-time histograms (bucket `i` holds waits with
/// `ilog2(ns) == i`; zero waits land in bucket 0).
pub const WAIT_BUCKETS: usize = 32;

/// One rank's drained span ring.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RankStream {
    /// Rank that recorded the spans.
    pub rank: usize,
    /// Spans the bounded ring had to drop (overflow count).
    pub dropped: u64,
    /// Recorded spans, in record order.
    pub spans: Vec<TraceSpan>,
}

impl RankStream {
    /// Flat `f64` frame: `[rank, dropped, nspans, span fields…]` — what a
    /// rank ships to rank 0 over the transport's control plane.
    pub fn encode(&self) -> Vec<f64> {
        let mut out = Vec::with_capacity(3 + self.spans.len() * SPAN_FIELDS);
        out.push(self.rank as f64);
        out.push(self.dropped as f64);
        out.push(self.spans.len() as f64);
        for s in &self.spans {
            s.encode_into(&mut out);
        }
        out
    }

    /// Rebuild from an [`RankStream::encode`] frame; `None` if malformed.
    pub fn decode(v: &[f64]) -> Option<RankStream> {
        if v.len() < 3 {
            return None;
        }
        let rank = v[0] as usize;
        let dropped = v[1] as u64;
        let n = v[2] as usize;
        if Some(v.len()) != n.checked_mul(SPAN_FIELDS).and_then(|w| w.checked_add(3)) {
            return None;
        }
        let mut spans = Vec::with_capacity(n);
        for i in 0..n {
            spans.push(TraceSpan::decode(
                &v[3 + i * SPAN_FIELDS..3 + (i + 1) * SPAN_FIELDS],
            )?);
        }
        Some(RankStream {
            rank,
            dropped,
            spans,
        })
    }
}

/// One collective observed across ranks: the spans sharing a logical-clock
/// value, with clock-aligned times.
#[derive(Debug, Clone)]
pub struct CollectiveGroup {
    /// Span kind (identical on every member by construction).
    pub kind: SpanKind,
    /// Logical-clock value identifying this collective.
    pub seq: u64,
    /// Per member: `(rank, aligned start ns, aligned end ns, bytes, msgs,
    /// detail)`, in rank order.
    pub members: Vec<(usize, i64, i64, u64, u64, u64)>,
}

impl CollectiveGroup {
    /// Rank whose arrival was latest — the rank every other member waited
    /// behind.
    pub fn critical_rank(&self) -> usize {
        self.members
            .iter()
            .max_by_key(|m| m.1)
            .map(|m| m.0)
            .unwrap_or(0)
    }
}

/// A merged rank×time timeline (possibly partial — see `missing`).
#[derive(Debug, Clone)]
pub struct Timeline {
    /// World size of the traced run.
    pub nranks: usize,
    /// Surviving streams, sorted by rank.
    pub streams: Vec<RankStream>,
    /// Ranks whose stream could not be gathered (dead peers).
    pub missing: Vec<usize>,
    /// Per-stream clock offset (ns, added to that stream's local times to
    /// land on the reference rank's clock), parallel to `streams`.
    pub offsets_ns: Vec<i64>,
}

fn median(mut v: Vec<i64>) -> i64 {
    if v.is_empty() {
        return 0;
    }
    v.sort_unstable();
    v[v.len() / 2]
}

impl Timeline {
    /// Merge gathered streams into one timeline, estimating per-rank clock
    /// offsets from matched collective-edge end times.
    pub fn merge(nranks: usize, mut streams: Vec<RankStream>, mut missing: Vec<usize>) -> Timeline {
        streams.sort_by_key(|s| s.rank);
        streams.dedup_by_key(|s| s.rank);
        missing.sort_unstable();
        missing.dedup();
        let offsets_ns = match streams.split_first() {
            None => Vec::new(),
            Some((reference, rest)) => {
                let ref_ends: std::collections::HashMap<u64, u64> = reference
                    .spans
                    .iter()
                    .filter(|s| s.seq != NO_SEQ)
                    .map(|s| (s.seq, s.end_ns))
                    .collect();
                let mut offsets = vec![0i64];
                for s in rest {
                    let diffs: Vec<i64> = s
                        .spans
                        .iter()
                        .filter(|sp| sp.seq != NO_SEQ)
                        .filter_map(|sp| {
                            ref_ends
                                .get(&sp.seq)
                                .map(|&re| re as i64 - sp.end_ns as i64)
                        })
                        .collect();
                    offsets.push(median(diffs));
                }
                offsets
            }
        };
        Timeline {
            nranks,
            streams,
            missing,
            offsets_ns,
        }
    }

    /// The stream recorded by `rank`, if it survived the gather.
    pub fn stream(&self, rank: usize) -> Option<&RankStream> {
        self.streams.iter().find(|s| s.rank == rank)
    }

    /// Collective-edge spans grouped by logical-clock value, in `seq` order.
    /// Every group's members are in rank order; a group holds one member per
    /// *surviving* rank that recorded the collective.
    pub fn collectives(&self) -> Vec<CollectiveGroup> {
        let mut by_seq: std::collections::BTreeMap<u64, CollectiveGroup> =
            std::collections::BTreeMap::new();
        for (idx, s) in self.streams.iter().enumerate() {
            let off = self.offsets_ns.get(idx).copied().unwrap_or(0);
            for sp in &s.spans {
                if sp.seq == NO_SEQ {
                    continue;
                }
                let g = by_seq.entry(sp.seq).or_insert_with(|| CollectiveGroup {
                    kind: sp.kind,
                    seq: sp.seq,
                    members: Vec::new(),
                });
                g.members.push((
                    s.rank,
                    sp.start_ns as i64 + off,
                    sp.end_ns as i64 + off,
                    sp.bytes,
                    sp.msgs,
                    sp.detail,
                ));
            }
        }
        by_seq.into_values().collect()
    }

    /// Straggler attribution over every collective: who was critical, how
    /// long everyone else waited behind them.
    pub fn imbalance(&self) -> ImbalanceReport {
        let mut wait_ns = vec![0u64; self.nranks];
        let mut critical_hits = vec![0u64; self.nranks];
        let mut hist = vec![[0u64; WAIT_BUCKETS]; self.nranks];
        let groups = self.collectives();
        let mut counted = 0usize;
        for g in &groups {
            if g.members.len() < 2 {
                continue;
            }
            counted += 1;
            let latest_start = g.members.iter().map(|m| m.1).max().unwrap_or(0);
            let earliest_start = g.members.iter().map(|m| m.1).min().unwrap_or(0);
            for &(rank, start, end, ..) in &g.members {
                if rank >= self.nranks {
                    continue;
                }
                // A rank cannot have waited longer than it spent inside the
                // collective; the clamp bounds clock-alignment noise.
                let dur = (end - start).max(0) as u64;
                let w = ((latest_start - start).max(0) as u64).min(dur);
                wait_ns[rank] += w;
                let b = if w == 0 {
                    0
                } else {
                    (63 - w.leading_zeros() as usize).min(WAIT_BUCKETS - 1)
                };
                hist[rank][b] += 1;
            }
            // A dead-even arrival has no straggler; only attribute a
            // critical hit when someone actually arrived late.
            let crit = g.critical_rank();
            if latest_start > earliest_start && crit < self.nranks {
                critical_hits[crit] += 1;
            }
        }
        ImbalanceReport {
            wait_ns,
            critical_hits,
            hist,
            collectives: counted,
        }
    }

    /// Skew decomposition of each exposed reduction: the group's wall
    /// footprint splits into "slowest rank compute" (the start spread — time
    /// early ranks sat waiting for the critical rank to arrive) and "wire"
    /// (the rest), with a modeled wire time from the calibrated per-stage
    /// latency `alpha_reduce` (s) and bandwidth `beta` (bytes/s) alongside.
    pub fn skew(&self, alpha_reduce: f64, beta: f64) -> Vec<SkewRow> {
        let mut rows = Vec::new();
        for g in self.collectives() {
            if g.kind != SpanKind::Reduction || g.members.len() < 2 {
                continue;
            }
            let earliest_start = g.members.iter().map(|m| m.1).min().unwrap_or(0);
            let latest_start = g.members.iter().map(|m| m.1).max().unwrap_or(0);
            let latest_end = g.members.iter().map(|m| m.2).max().unwrap_or(0);
            let exposed_ns = (latest_end - earliest_start).max(0) as u64;
            let skew_ns = ((latest_start - earliest_start).max(0) as u64).min(exposed_ns);
            let stages = g
                .members
                .iter()
                .map(|m| m.5 & 0xffff_ffff)
                .max()
                .unwrap_or(0);
            let bytes = g.members.iter().map(|m| m.3).max().unwrap_or(0);
            let modeled_wire_ns =
                ((stages as f64 * alpha_reduce + bytes as f64 / beta) * 1e9).round() as u64;
            rows.push(SkewRow {
                seq: g.seq,
                critical_rank: g.critical_rank(),
                ranks: g.members.len(),
                exposed_ns,
                skew_ns,
                wire_ns: exposed_ns - skew_ns,
                modeled_wire_ns,
            });
        }
        rows
    }

    /// Per-rank, per-kind `(count, total_ns)` table — the paper-style local
    /// phase breakdown, one row per surviving rank.
    pub fn phase_totals(&self) -> Vec<PhaseTotalsRow> {
        self.streams
            .iter()
            .map(|s| {
                let mut count = [0u64; NUM_KINDS];
                let mut total_ns = [0u64; NUM_KINDS];
                for sp in &s.spans {
                    let k = sp.kind.code() as usize;
                    count[k] += 1;
                    total_ns[k] += sp.dur_ns();
                }
                PhaseTotalsRow {
                    rank: s.rank,
                    count,
                    total_ns,
                }
            })
            .collect()
    }

    /// Flat `f64` encoding (so rank 0 can return a timeline through an SPMD
    /// result channel): `[nranks, nmissing, missing…, nstreams, stream
    /// frames…]`, each stream frame length-prefixed.
    pub fn encode(&self) -> Vec<f64> {
        let mut out = vec![self.nranks as f64, self.missing.len() as f64];
        out.extend(self.missing.iter().map(|&r| r as f64));
        out.push(self.streams.len() as f64);
        for s in &self.streams {
            let frame = s.encode();
            out.push(frame.len() as f64);
            out.extend(frame);
        }
        out
    }

    /// Rebuild from [`Timeline::encode`] (offsets are recomputed — the merge
    /// is deterministic). `None` if malformed: every count is checked
    /// against the frame's remaining length before anything is allocated.
    pub fn decode(v: &[f64]) -> Option<Timeline> {
        let mut i = 0usize;
        let mut next = |n: usize| -> Option<&[f64]> {
            let s = v.get(i..i.checked_add(n)?)?;
            i += n;
            Some(s)
        };
        let nranks = next(1)?[0] as usize;
        let nmissing = next(1)?[0] as usize;
        let missing: Vec<usize> = next(nmissing)?.iter().map(|&x| x as usize).collect();
        let nstreams = next(1)?[0] as usize;
        // Each stream frame takes at least its length slot.
        let mut streams = Vec::with_capacity(nstreams.min(v.len()));
        for _ in 0..nstreams {
            let len = next(1)?[0] as usize;
            streams.push(RankStream::decode(next(len)?)?);
        }
        if i != v.len() {
            return None;
        }
        Some(Timeline::merge(nranks, streams, missing))
    }

    /// Serialize to a JSON document (spans as 7-number arrays:
    /// `[kind, seq, start_ns, end_ns, bytes, msgs, detail]`, `seq = -1` for
    /// local spans).
    pub fn to_json(&self) -> String {
        let streams = self
            .streams
            .iter()
            .map(|s| {
                let spans = s
                    .spans
                    .iter()
                    .map(|sp| {
                        let mut row = Vec::with_capacity(SPAN_FIELDS);
                        sp.encode_into(&mut row);
                        JsonValue::nums(row)
                    })
                    .collect();
                JsonValue::obj(vec![
                    ("rank", JsonValue::from(s.rank)),
                    ("dropped", JsonValue::Num(s.dropped as f64)),
                    ("spans", JsonValue::Arr(spans)),
                ])
            })
            .collect();
        JsonValue::obj(vec![
            ("nranks", JsonValue::from(self.nranks)),
            (
                "missing",
                JsonValue::nums(self.missing.iter().map(|&r| r as f64)),
            ),
            (
                "offsets_ns",
                JsonValue::nums(self.offsets_ns.iter().map(|&o| o as f64)),
            ),
            ("streams", JsonValue::Arr(streams)),
        ])
        .to_json()
    }

    /// Parse a [`Timeline::to_json`] document (offsets are recomputed by the
    /// deterministic merge). `None` on malformed input.
    pub fn from_json(src: &str) -> Option<Timeline> {
        let v = JsonValue::parse(src).ok()?;
        let nranks = v.get("nranks")?.as_usize()?;
        let missing = v
            .get("missing")?
            .as_array()?
            .iter()
            .map(|m| m.as_usize())
            .collect::<Option<Vec<_>>>()?;
        let mut streams = Vec::new();
        for s in v.get("streams")?.as_array()? {
            let rank = s.get("rank")?.as_usize()?;
            let dropped = s.get("dropped")?.as_f64()? as u64;
            let mut spans = Vec::new();
            for row in s.get("spans")?.as_array()? {
                let nums = row
                    .as_array()?
                    .iter()
                    .map(|x| x.as_f64())
                    .collect::<Option<Vec<f64>>>()?;
                spans.push(TraceSpan::decode(&nums)?);
            }
            streams.push(RankStream {
                rank,
                dropped,
                spans,
            });
        }
        Some(Timeline::merge(nranks, streams, missing))
    }
}

/// Per-rank, per-kind span totals (see [`Timeline::phase_totals`]); arrays
/// are indexed by [`SpanKind::code`].
#[derive(Debug, Clone)]
pub struct PhaseTotalsRow {
    /// Rank the row describes.
    pub rank: usize,
    /// Span count per kind.
    pub count: [u64; NUM_KINDS],
    /// Summed span duration per kind, nanoseconds.
    pub total_ns: [u64; NUM_KINDS],
}

/// Render the per-rank phase table for a set of [`PhaseTotalsRow`]s
/// (milliseconds; kinds nobody recorded are omitted).
pub fn phase_table(rows: &[PhaseTotalsRow]) -> String {
    let used: Vec<SpanKind> = SpanKind::all()
        .filter(|k| rows.iter().any(|r| r.count[k.code() as usize] > 0))
        .collect();
    let mut s = String::new();
    let _ = write!(s, "{:<6}", "rank");
    for k in &used {
        let _ = write!(s, " {:>15}", format!("{} (ms)", k.name()));
    }
    s.push('\n');
    for r in rows {
        let _ = write!(s, "{:<6}", r.rank);
        for k in &used {
            let _ = write!(s, " {:>15.3}", r.total_ns[k.code() as usize] as f64 / 1e6);
        }
        s.push('\n');
    }
    s
}

/// Straggler attribution over a merged timeline (see
/// [`Timeline::imbalance`]).
#[derive(Debug, Clone)]
pub struct ImbalanceReport {
    /// Per rank: total time spent waiting behind the slowest rank across
    /// every collective, nanoseconds.
    pub wait_ns: Vec<u64>,
    /// Per rank: number of collectives where this rank arrived last.
    pub critical_hits: Vec<u64>,
    /// Per rank: log2 histogram of per-collective wait times.
    pub hist: Vec<[u64; WAIT_BUCKETS]>,
    /// Collectives with at least two surviving members that were analyzed.
    pub collectives: usize,
}

impl ImbalanceReport {
    /// Sum of every rank's wait time, nanoseconds.
    pub fn total_wait_ns(&self) -> u64 {
        self.wait_ns.iter().sum()
    }

    /// Human-readable wait-behind-slowest table plus histograms.
    pub fn to_text(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(
            s,
            "{:<6} {:>18} {:>15} {:>24}",
            "rank", "wait_behind_slowest", "critical_hits", "wait histogram (log2 ns)"
        );
        for (r, &w) in self.wait_ns.iter().enumerate() {
            let hist = &self.hist[r];
            let last = hist.iter().rposition(|&c| c != 0).map_or(0, |i| i + 1);
            let buckets: Vec<String> = hist[..last].iter().map(|c| c.to_string()).collect();
            let _ = writeln!(
                s,
                "{:<6} {:>15.3} ms {:>15} [{}]",
                r,
                w as f64 / 1e6,
                self.critical_hits[r],
                buckets.join(",")
            );
        }
        let _ = writeln!(
            s,
            "collectives: {}   total wait: {:.3} ms",
            self.collectives,
            self.total_wait_ns() as f64 / 1e6
        );
        s
    }
}

/// One exposed reduction's skew decomposition (see [`Timeline::skew`]).
#[derive(Debug, Clone)]
pub struct SkewRow {
    /// Logical-clock value of the reduction.
    pub seq: u64,
    /// Rank that arrived last.
    pub critical_rank: usize,
    /// Surviving ranks that recorded the reduction.
    pub ranks: usize,
    /// Wall footprint: earliest aligned start → latest aligned end, ns.
    pub exposed_ns: u64,
    /// Start spread — "slowest rank compute" the early ranks waited out, ns.
    pub skew_ns: u64,
    /// Remainder attributed to the wire (exposed − skew), ns.
    pub wire_ns: u64,
    /// Modeled wire time from the calibrated constants, ns.
    pub modeled_wire_ns: u64,
}

/// Render the skew table for [`Timeline::skew`] rows.
pub fn skew_table(rows: &[SkewRow]) -> String {
    let mut s = String::new();
    let _ = writeln!(
        s,
        "{:<8} {:>9} {:>12} {:>12} {:>12} {:>16}",
        "seq", "critical", "exposed_us", "skew_us", "wire_us", "modeled_wire_us"
    );
    for r in rows {
        let _ = writeln!(
            s,
            "{:<8} {:>9} {:>12.2} {:>12.2} {:>12.2} {:>16.2}",
            r.seq,
            r.critical_rank,
            r.exposed_ns as f64 / 1e3,
            r.skew_ns as f64 / 1e3,
            r.wire_ns as f64 / 1e3,
            r.modeled_wire_ns as f64 / 1e3
        );
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(kind: SpanKind, seq: u64, start: u64, end: u64, bytes: u64, detail: u64) -> TraceSpan {
        TraceSpan {
            kind,
            seq,
            start_ns: start,
            end_ns: end,
            bytes,
            msgs: 1,
            detail,
        }
    }

    /// Two ranks, clocks offset by exactly 1000 ns: rank 1's clock reads
    /// 1000 ns *less* at the same instant. Two reductions end simultaneously
    /// in real time; rank 1 arrives 500 ns late at the second.
    fn skewed_timeline() -> Timeline {
        let s0 = RankStream {
            rank: 0,
            dropped: 0,
            spans: vec![
                span(SpanKind::Reduction, 0, 2000, 3000, 80, 2),
                span(SpanKind::PrecondApply, NO_SEQ, 3000, 3500, 0, 0),
                span(SpanKind::Reduction, 1, 4000, 5500, 80, 2),
            ],
        };
        let s1 = RankStream {
            rank: 1,
            dropped: 0,
            spans: vec![
                span(SpanKind::Reduction, 0, 1000, 2000, 80, 2),
                span(SpanKind::Reduction, 1, 3500, 4500, 80, 2),
            ],
        };
        Timeline::merge(2, vec![s1, s0], vec![])
    }

    #[test]
    fn merge_aligns_clocks_via_collective_ends() {
        let tl = skewed_timeline();
        assert_eq!(tl.streams[0].rank, 0);
        assert_eq!(tl.offsets_ns[0], 0);
        // Median of {3000-2000, 5500-4500} = 1000.
        assert_eq!(tl.offsets_ns[1], 1000);
        let groups = tl.collectives();
        assert_eq!(groups.len(), 2);
        // Aligned: both ranks start reduction 0 at t=2000.
        assert_eq!(groups[0].members[0].1, 2000);
        assert_eq!(groups[0].members[1].1, 2000);
        // Reduction 1: rank 1 starts at aligned 4500 vs rank 0's 4000.
        assert_eq!(groups[1].members[1].1, 4500);
        assert_eq!(groups[1].critical_rank(), 1);
    }

    #[test]
    fn imbalance_attributes_wait_behind_slowest() {
        let tl = skewed_timeline();
        let rep = tl.imbalance();
        assert_eq!(rep.collectives, 2);
        // Rank 0 waited 500 ns behind rank 1 at reduction 1; rank 1 never
        // waited.
        assert_eq!(rep.wait_ns, vec![500, 0]);
        assert_eq!(rep.critical_hits[1], 1);
        assert_eq!(rep.total_wait_ns(), 500);
        let text = rep.to_text();
        assert!(text.contains("wait_behind_slowest"));
        assert!(text.contains("collectives: 2 "));
    }

    #[test]
    fn skew_decomposes_exposed_reductions() {
        let tl = skewed_timeline();
        let rows = tl.skew(1e-7, 1e9);
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].skew_ns, 0);
        assert_eq!(rows[1].skew_ns, 500);
        assert_eq!(rows[1].critical_rank, 1);
        assert_eq!(rows[1].exposed_ns, rows[1].skew_ns + rows[1].wire_ns);
        // 2 stages · 100 ns + 80 B / 1 GB/s = 280 ns.
        assert_eq!(rows[1].modeled_wire_ns, 280);
        assert!(skew_table(&rows).contains("modeled_wire_us"));
    }

    #[test]
    fn encode_and_json_round_trip_span_for_span() {
        let tl = skewed_timeline();
        let back = Timeline::decode(&tl.encode()).expect("flat decode");
        assert_eq!(back.nranks, tl.nranks);
        assert_eq!(back.missing, tl.missing);
        assert_eq!(back.offsets_ns, tl.offsets_ns);
        for (a, b) in tl.streams.iter().zip(&back.streams) {
            assert_eq!(a, b);
        }
        let json = Timeline::from_json(&tl.to_json()).expect("json decode");
        assert_eq!(json.offsets_ns, tl.offsets_ns);
        for (a, b) in tl.streams.iter().zip(&json.streams) {
            assert_eq!(a, b);
        }
        assert!(Timeline::decode(&tl.encode()[1..]).is_none());
        assert!(Timeline::from_json("{}").is_none());
    }

    /// Frames come from other processes: a truncated frame or an absurd
    /// count is rejected, never allocated for or panicked on.
    #[test]
    fn malformed_frames_decode_to_none() {
        let good = skewed_timeline().encode();
        for cut in 0..good.len() {
            assert!(Timeline::decode(&good[..cut]).is_none(), "cut at {cut}");
        }
        for huge in [1e18, f64::MAX, f64::INFINITY] {
            assert!(Timeline::decode(&[2.0, 0.0, huge]).is_none());
            assert!(Timeline::decode(&[2.0, huge, 0.0]).is_none());
            assert!(Timeline::decode(&[2.0, 0.0, 1.0, huge, 0.0]).is_none());
            assert!(RankStream::decode(&[0.0, 0.0, huge]).is_none());
        }
    }

    #[test]
    fn partial_timeline_keeps_missing_ranks() {
        let s0 = RankStream {
            rank: 0,
            dropped: 0,
            spans: vec![span(SpanKind::PrecondApply, NO_SEQ, 0, 10, 0, 0)],
        };
        let tl = Timeline::merge(4, vec![s0], vec![2, 1]);
        assert_eq!(tl.missing, vec![1, 2]);
        assert_eq!(tl.streams.len(), 1);
        let rep = tl.imbalance();
        assert_eq!(rep.collectives, 0);
        let back = Timeline::from_json(&tl.to_json()).unwrap();
        assert_eq!(back.missing, vec![1, 2]);
    }

    #[test]
    fn phase_totals_sum_per_kind() {
        let tl = skewed_timeline();
        let rows = tl.phase_totals();
        assert_eq!(rows.len(), 2);
        let red = SpanKind::Reduction.code() as usize;
        let pa = SpanKind::PrecondApply.code() as usize;
        assert_eq!(rows[0].count[red], 2);
        assert_eq!(rows[0].total_ns[red], 1000 + 1500);
        assert_eq!(rows[0].count[pa], 1);
        assert_eq!(rows[1].count[pa], 0);
        let table = phase_table(&rows);
        assert!(table.contains("reduction (ms)"));
        assert!(!table.contains("halo (ms)"));
    }
}
