//! Chrome-trace (Perfetto-loadable) export of a merged [`Timeline`].
//!
//! The output is the Trace Event Format's JSON object form
//! (`{"traceEvents": [...]}`), loadable in `chrome://tracing` and
//! <https://ui.perfetto.dev>. One track (`tid`) per rank, named via
//! `thread_name` metadata events; every span becomes a complete (`"X"`)
//! event with clock-aligned microsecond timestamps shifted so the earliest
//! span starts at `t = 0`; every collective observed on ≥ 2 ranks gets a
//! chain of flow events (`"s"` on the first member, `"f"` on each other
//! member, one shared `id`) so the matching spans are visually linked
//! across rank tracks.

use crate::json::JsonValue;
use crate::span::NO_SEQ;
use crate::timeline::Timeline;

/// Process id used for every event (the trace models ranks as threads of
/// one logical process).
const PID: usize = 0;

fn event_base(name: &str, ph: &str, tid: usize, ts_us: f64) -> Vec<(&'static str, JsonValue)> {
    vec![
        ("name", JsonValue::Str(name.to_string())),
        ("ph", JsonValue::Str(ph.to_string())),
        ("pid", JsonValue::from(PID)),
        ("tid", JsonValue::from(tid)),
        ("ts", JsonValue::Num(ts_us)),
    ]
}

/// Render `tl` as Chrome Trace Event Format JSON.
pub fn chrome_trace(tl: &Timeline) -> String {
    let mut events: Vec<JsonValue> = Vec::new();
    // Track naming: one thread_name metadata event per surviving rank (dead
    // ranks have no spans and get no track, but are recorded in metadata).
    for s in &tl.streams {
        let mut e = event_base("thread_name", "M", s.rank, 0.0);
        e.remove(4); // metadata events carry no ts
        e.push((
            "args",
            JsonValue::obj(vec![("name", JsonValue::Str(format!("rank {}", s.rank)))]),
        ));
        events.push(JsonValue::obj(e));
    }

    // Global shift so the earliest aligned span lands at t = 0.
    let min_ns: i64 = tl
        .streams
        .iter()
        .enumerate()
        .flat_map(|(i, s)| {
            let off = tl.offsets_ns.get(i).copied().unwrap_or(0);
            s.spans.iter().map(move |sp| sp.start_ns as i64 + off)
        })
        .min()
        .unwrap_or(0);
    let us = |ns: i64| (ns - min_ns) as f64 / 1e3;

    for (i, s) in tl.streams.iter().enumerate() {
        let off = tl.offsets_ns.get(i).copied().unwrap_or(0);
        for sp in &s.spans {
            let start = sp.start_ns as i64 + off;
            let mut e = event_base(sp.kind.name(), "X", s.rank, us(start));
            e.push(("dur", JsonValue::Num(sp.dur_ns() as f64 / 1e3)));
            let mut args = vec![
                ("bytes", JsonValue::Num(sp.bytes as f64)),
                ("msgs", JsonValue::Num(sp.msgs as f64)),
                ("detail", JsonValue::Num(sp.detail as f64)),
            ];
            if sp.seq != NO_SEQ {
                args.push(("seq", JsonValue::Num(sp.seq as f64)));
            }
            e.push(("args", JsonValue::obj(args)));
            events.push(JsonValue::obj(e));
        }
    }

    // Flow chains linking each collective's spans across rank tracks. The
    // flow id is the logical-clock value — unique per collective within a
    // single exported timeline.
    for g in tl.collectives() {
        if g.members.len() < 2 {
            continue;
        }
        let name = format!("{}:{}", g.kind.name(), g.seq);
        for (m, &(rank, start, end, ..)) in g.members.iter().enumerate() {
            // Anchor flow points *inside* the span so viewers bind them to
            // the X event: start-edge for the producer, end-edge for
            // consumers.
            let (ph, ts) = if m == 0 {
                ("s", start)
            } else {
                ("f", end.max(start))
            };
            let mut e = event_base(&name, ph, rank, us(ts));
            e.push(("cat", JsonValue::from("collective")));
            e.push(("id", JsonValue::Num(g.seq as f64)));
            if ph == "f" {
                // Bind to the enclosing slice rather than the next one.
                e.push(("bp", JsonValue::from("e")));
            }
            events.push(JsonValue::obj(e));
        }
    }

    JsonValue::obj(vec![
        ("traceEvents", JsonValue::Arr(events)),
        ("displayTimeUnit", JsonValue::from("ms")),
        (
            "otherData",
            JsonValue::obj(vec![
                ("nranks", JsonValue::from(tl.nranks)),
                (
                    "missing",
                    JsonValue::nums(tl.missing.iter().map(|&r| r as f64)),
                ),
            ]),
        ),
    ])
    .to_json()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::{SpanKind, TraceSpan};
    use crate::timeline::RankStream;

    fn tl() -> Timeline {
        let mk = |rank: usize, start: u64| RankStream {
            rank,
            dropped: 0,
            spans: vec![
                TraceSpan {
                    kind: SpanKind::Reduction,
                    seq: 0,
                    start_ns: start,
                    end_ns: start + 1000,
                    bytes: 64,
                    msgs: 2,
                    detail: 2,
                },
                TraceSpan {
                    kind: SpanKind::PrecondApply,
                    seq: NO_SEQ,
                    start_ns: start + 1500,
                    end_ns: start + 2000,
                    bytes: 0,
                    msgs: 0,
                    detail: 0,
                },
            ],
        };
        Timeline::merge(2, vec![mk(0, 5000), mk(1, 9000)], vec![])
    }

    #[test]
    fn export_has_one_track_per_rank_and_flow_links() {
        let text = chrome_trace(&tl());
        let doc = JsonValue::parse(&text).expect("export parses");
        let events = doc.get("traceEvents").unwrap().as_array().unwrap();
        let tracks: Vec<&JsonValue> = events
            .iter()
            .filter(|e| e.get("ph").and_then(|p| p.as_str()) == Some("M"))
            .collect();
        assert_eq!(tracks.len(), 2);
        assert_eq!(
            tracks[0].get("args").unwrap().get("name").unwrap().as_str(),
            Some("rank 0")
        );
        let xs: Vec<&JsonValue> = events
            .iter()
            .filter(|e| e.get("ph").and_then(|p| p.as_str()) == Some("X"))
            .collect();
        assert_eq!(xs.len(), 4);
        // Earliest aligned span starts at ts = 0.
        assert!(xs
            .iter()
            .any(|e| e.get("ts").unwrap().as_f64() == Some(0.0)));
        let flows: Vec<&JsonValue> = events
            .iter()
            .filter(|e| matches!(e.get("ph").and_then(|p| p.as_str()), Some("s") | Some("f")))
            .collect();
        assert_eq!(flows.len(), 2); // one s + one f for the single collective
        assert!(flows
            .iter()
            .all(|e| e.get("id").unwrap().as_usize() == Some(0)));
    }

    #[test]
    fn export_records_missing_ranks() {
        let mut t = tl();
        t.missing = vec![3];
        let doc = JsonValue::parse(&chrome_trace(&t)).unwrap();
        let missing = doc
            .get("otherData")
            .unwrap()
            .get("missing")
            .unwrap()
            .as_array()
            .unwrap();
        assert_eq!(missing[0].as_usize(), Some(3));
    }
}
