//! Cross-rank distributed tracing, end to end: per-rank span streams
//! gathered over both transport backends, merged into one rank×time
//! timeline, exported as a Chrome trace, and analyzed for stragglers.
//!
//! The trace flag is process-global, so every test that flips it serializes
//! through [`with_tracing`]. Socket runs re-exec this test binary as worker
//! processes (the `run_spmd` worker hook keys on the libtest thread name);
//! `run_socket` forwards `KRYST_TRACE=1` to workers whenever tracing was
//! enabled at runtime, so worker logical clocks agree with the parent's.

use kryst_bench::tracedemo::skewed_workload;
use kryst_core::{gmres, SolveOpts};
use kryst_dense::DMat;
use kryst_obs::json::JsonValue;
use kryst_obs::timeline::Timeline;
use kryst_obs::SpanKind;
use kryst_par::{
    gather_timeline, run_spmd, IdentityPrecond, SpmdRun, Transport, TransportError, TransportKind,
};
use kryst_rt::rng::Rng64;
use kryst_sparse::{Coo, Csr};
use std::sync::Mutex;

/// Serializes every test that touches the process-global trace flag.
static TRACE_LOCK: Mutex<()> = Mutex::new(());

/// Run `f` with tracing forced to `on`, restoring the previous state.
fn with_tracing<T>(on: bool, f: impl FnOnce() -> T) -> T {
    let _g = TRACE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let was = kryst_obs::trace_enabled();
    kryst_obs::set_trace_enabled(on);
    let out = f();
    kryst_obs::set_trace_enabled(was);
    out
}

/// The workload closure every timeline test runs: the skewed demo steps,
/// then the gather; rank 0 ships the merged timeline out as its result.
fn traced_run(kind: TransportKind, nranks: usize, steps: usize) -> Timeline {
    let run = run_spmd(kind, nranks, move |t| {
        let tl = skewed_workload(t, steps)?;
        Ok(tl.map(|tl| tl.encode()).unwrap_or_default())
    })
    .unwrap_or_else(|e| panic!("{} P={nranks} run: {e}", kind.name()));
    Timeline::decode(&run.results[0]).expect("rank 0 returns a well-formed timeline")
}

/// Satellite 3: the merged timeline is span-for-span identical between the
/// channel and socket backends — same kinds, logical clocks, wire deltas,
/// and details on every rank — with only wall-clock timestamps free to
/// differ.
#[test]
fn merged_timeline_identical_across_backends_modulo_timestamps() {
    with_tracing(true, || {
        for p in [2usize, 4, 8] {
            let chan = traced_run(TransportKind::Channel, p, 3);
            let sock = traced_run(TransportKind::Socket, p, 3);
            assert_eq!(chan.nranks, p);
            assert_eq!(sock.nranks, p);
            assert_eq!(chan.streams.len(), p, "P={p}: channel streams");
            assert_eq!(sock.streams.len(), p, "P={p}: socket streams");
            assert!(chan.missing.is_empty() && sock.missing.is_empty());
            for (cs, ss) in chan.streams.iter().zip(&sock.streams) {
                assert_eq!(cs.rank, ss.rank);
                assert_eq!(
                    cs.spans.len(),
                    ss.spans.len(),
                    "P={p} rank {}: span count",
                    cs.rank
                );
                for (i, (a, b)) in cs.spans.iter().zip(&ss.spans).enumerate() {
                    let key = |s: &kryst_obs::TraceSpan| (s.kind, s.seq, s.bytes, s.msgs, s.detail);
                    assert_eq!(key(a), key(b), "P={p} rank {} span {i}", cs.rank);
                }
            }
        }
    });
}

/// The gather rides the transport control plane, which is excluded from the
/// wire counters: a traced run reports exactly the wire traffic of an
/// untraced one.
#[test]
fn gather_does_not_perturb_wire_counters() {
    let run = |on: bool| {
        with_tracing(on, || {
            run_spmd(TransportKind::Channel, 4, |t| {
                skewed_workload(t, 2)?;
                Ok(Vec::new())
            })
            .expect("channel run")
        })
    };
    let traced = run(true);
    let bare = run(false);
    assert_eq!(traced.messages, bare.messages, "wire message totals");
    for (r, (a, b)) in traced.wire.iter().zip(&bare.wire).enumerate() {
        assert_eq!(a.bytes_sent, b.bytes_sent, "rank {r} bytes_sent");
        assert_eq!(a.msgs_sent, b.msgs_sent, "rank {r} msgs_sent");
    }
}

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

/// Golden-trace fingerprint of a pinned GMRES solve: iteration count,
/// convergence flag, and the positional bit-checksum of the full residual
/// history.
fn solve_fingerprint() -> Vec<f64> {
    let n = 400;
    let a = laplace1d(n);
    let mut rng = Rng64::seed_from_u64(42);
    let b = DMat::from_fn(n, 1, |_, _| rng.gen_range(-1.0, 1.0));
    let id = IdentityPrecond::new(n);
    let opts = SolveOpts {
        rtol: 1e-8,
        restart: 30,
        max_iters: 90,
        ..Default::default()
    };
    let mut x = DMat::zeros(n, 1);
    let res = gmres::solve(&a, &id, &b, &mut x, &opts);
    let mut acc: u64 = 0xcbf2_9ce4_8422_2325;
    for row in &res.history {
        for v in row {
            acc = acc.rotate_left(7) ^ v.to_bits();
        }
    }
    vec![
        res.iterations as f64,
        if res.converged { 1.0 } else { 0.0 },
        (acc >> 32) as f64,
        (acc & 0xffff_ffff) as f64,
    ]
}

/// Tracing must never move a float: the golden solver trace is bit-identical
/// with tracing on and off, on both backends.
#[test]
fn golden_traces_bit_identical_with_tracing_on_and_off() {
    let f = |t: &dyn Transport| -> Result<Vec<f64>, TransportError> {
        let fp = solve_fingerprint();
        // Touch the traced collective path too, so spans are actually
        // recorded when the flag is on.
        let mut sum = fp.clone();
        let mut scratch = Vec::new();
        kryst_par::collective::all_reduce_sum(t, &mut sum, &mut scratch)?;
        let _ = gather_timeline(t)?;
        Ok(fp)
    };
    let mut runs: Vec<(String, SpmdRun)> = Vec::new();
    for on in [false, true] {
        for kind in [TransportKind::Channel, TransportKind::Socket] {
            let run = with_tracing(on, || run_spmd(kind, 2, f).expect("solve run"));
            runs.push((format!("{} tracing={on}", kind.name()), run));
        }
    }
    let (base_label, base) = &runs[0];
    for (label, run) in &runs[1..] {
        for (r, (ra, rb)) in base.results.iter().zip(&run.results).enumerate() {
            assert_eq!(ra.len(), rb.len(), "{base_label} vs {label}: rank {r}");
            for (i, (x, y)) in ra.iter().zip(rb).enumerate() {
                assert_eq!(
                    x.to_bits(),
                    y.to_bits(),
                    "{base_label} vs {label}: rank {r} element {i}"
                );
            }
        }
    }
}

/// Acceptance: at socket P=4 every collective span is attributed to all
/// four participating ranks, and the Chrome export carries one track per
/// rank plus flow links tying each collective's member slices together.
#[test]
fn chrome_export_attributes_collectives_at_socket_p4() {
    let path = std::env::temp_dir().join("kryst_trace_chrome_test.json");
    let _ = std::fs::remove_file(&path);
    let tl = with_tracing(true, || {
        std::env::set_var("KRYST_TRACE_TIMELINE", &path);
        let tl = traced_run(TransportKind::Socket, 4, 3);
        std::env::remove_var("KRYST_TRACE_TIMELINE");
        tl
    });
    let groups = tl.collectives();
    assert!(!groups.is_empty(), "collectives recorded");
    for g in &groups {
        assert_eq!(
            g.members.len(),
            4,
            "collective {}:{} must have all 4 ranks",
            g.kind.name(),
            g.seq
        );
        let ranks: Vec<usize> = g.members.iter().map(|m| m.0).collect();
        assert_eq!(ranks, [0, 1, 2, 3], "members in rank order");
    }

    // The export written as a side effect of the gather (rank 0 runs in
    // this process on the socket backend).
    let text = std::fs::read_to_string(&path).expect("KRYST_TRACE_TIMELINE written");
    let v = JsonValue::parse(&text).expect("chrome trace parses");
    let events = v
        .get("traceEvents")
        .and_then(JsonValue::as_array)
        .expect("traceEvents array");
    fn ph(e: &JsonValue) -> Option<&str> {
        e.get("ph").and_then(JsonValue::as_str)
    }
    let tracks = events
        .iter()
        .filter(|e| {
            ph(e) == Some("M") && e.get("name").and_then(JsonValue::as_str) == Some("thread_name")
        })
        .count();
    assert_eq!(tracks, 4, "one thread-name track per rank");
    let flow_starts = events.iter().filter(|e| ph(e) == Some("s")).count();
    let flow_binds = events.iter().filter(|e| ph(e) == Some("f")).count();
    assert_eq!(flow_starts, groups.len(), "one flow start per collective");
    assert_eq!(
        flow_binds,
        groups.len() * 3,
        "one flow bind per non-origin member"
    );
    let _ = std::fs::remove_file(&path);
}

/// Satellite 3, dead-peer half: a socket worker dying before the gather
/// yields a *partial* timeline on rank 0 (the dead rank listed in
/// `missing`), not a panic — even though the overall run still surfaces the
/// worker death as a typed error.
#[test]
fn socket_gather_survives_injected_peer_death() {
    let out = std::env::temp_dir().join("kryst_trace_partial_test.json");
    let _ = std::fs::remove_file(&out);
    let path = out.clone();
    let err = with_tracing(true, || {
        run_spmd(TransportKind::Socket, 3, move |t| {
            {
                let _sp = kryst_obs::traced(SpanKind::PrecondApply);
                std::hint::black_box((0..500).map(|i| i as f64).sum::<f64>());
            }
            if t.rank() == 1 {
                // Dies without a word: no gather frame, no exit handshake.
                std::process::exit(3);
            }
            if let Some(tl) = gather_timeline(t)? {
                std::fs::write(&path, tl.to_json()).expect("persist partial timeline");
            }
            Ok(Vec::new())
        })
        .expect_err("worker death must surface as a typed error")
    });
    match &err {
        TransportError::RankFailed { rank, .. } => assert_eq!(*rank, 1),
        TransportError::PeerClosed { .. } => {}
        other => panic!("expected RankFailed/PeerClosed, got {other}"),
    }
    let text = std::fs::read_to_string(&out).expect("rank 0 persisted the partial timeline");
    let tl = Timeline::from_json(&text).expect("partial timeline parses");
    assert_eq!(tl.nranks, 3);
    assert_eq!(tl.missing, vec![1], "dead rank recorded as missing");
    assert_eq!(tl.streams.len(), 2, "surviving streams gathered");
    for s in &tl.streams {
        assert_eq!(s.spans.len(), 1, "rank {}: its one local span", s.rank);
        assert_eq!(s.spans[0].kind, SpanKind::PrecondApply);
    }
    let _ = std::fs::remove_file(&out);
}

/// Acceptance: the per-rank wait-behind-slowest rows the `kryst_trace`
/// analysis prints come from the report — their sum must agree with the
/// report's total within 5% (the rows are rounded to the microsecond).
#[test]
fn wait_behind_slowest_text_matches_report_within_5_percent() {
    let tl = with_tracing(true, || traced_run(TransportKind::Channel, 4, 6));
    let rep = tl.imbalance();
    assert!(rep.collectives > 0, "collectives analyzed");
    let text = rep.to_text();
    let printed_ms: f64 = text
        .lines()
        .skip(1)
        .take(4)
        .map(|row| {
            row.split_whitespace()
                .nth(1)
                .unwrap()
                .parse::<f64>()
                .unwrap()
        })
        .sum();
    let report_ms = rep.total_wait_ns() as f64 / 1e6;
    assert!(
        (printed_ms - report_ms).abs() <= 0.05 * report_ms + 4e-3,
        "printed sum {printed_ms} ms vs report sum {report_ms} ms"
    );
}

/// With tracing disabled (the default), a full workload records nothing:
/// the gathered timeline is empty on every rank.
#[test]
fn tracing_off_by_default_gathers_empty_timeline() {
    let tl = with_tracing(false, || traced_run(TransportKind::Channel, 4, 2));
    assert_eq!(tl.streams.len(), 4);
    for s in &tl.streams {
        assert!(s.spans.is_empty(), "rank {}: no spans when off", s.rank);
        assert_eq!(s.dropped, 0);
    }
}
