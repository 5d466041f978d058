//! Pluggable event sinks.

use crate::event::Event;
use crate::json::event_to_json;
use std::collections::VecDeque;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// An event sink. Implementations must be cheap to call and thread-safe —
/// one recorder may be shared by solves on several threads. A solve with no
/// recorder (`recorder: None`) constructs no events at all.
pub trait Recorder: Send + Sync {
    /// Record one event.
    fn record(&self, ev: &Event);

    /// Record a batch of events from one solver step. Sinks with internal
    /// locking should override this to take their lock once per batch
    /// instead of once per event.
    fn record_batch(&self, evs: &[Event]) {
        for ev in evs {
            self.record(ev);
        }
    }
}

/// Bounded in-memory buffer (oldest events dropped past capacity, with a
/// counter instead of silent eviction) — the test-suite sink.
pub struct RingRecorder {
    buf: Mutex<VecDeque<Event>>,
    cap: usize,
    dropped: AtomicU64,
}

impl RingRecorder {
    /// Ring holding at most `cap` events.
    pub fn new(cap: usize) -> Self {
        Self {
            buf: Mutex::new(VecDeque::with_capacity(cap.min(4096))),
            cap: cap.max(1),
            dropped: AtomicU64::new(0),
        }
    }

    /// Copy out the buffered events, oldest first.
    pub fn events(&self) -> Vec<Event> {
        self.buf.lock().unwrap().iter().cloned().collect()
    }

    /// Number of events evicted because the ring overflowed. A non-zero
    /// value means [`RingRecorder::events`] is missing the oldest part of
    /// the stream — size the ring up or switch to a streaming sink.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Drop all buffered events and reset the overflow counter.
    pub fn clear(&self) {
        self.buf.lock().unwrap().clear();
        self.dropped.store(0, Ordering::Relaxed);
    }

    fn push_locked(&self, b: &mut VecDeque<Event>, ev: &Event) {
        if b.len() == self.cap {
            b.pop_front();
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
        b.push_back(ev.clone());
    }
}

impl Recorder for RingRecorder {
    fn record(&self, ev: &Event) {
        let mut b = self.buf.lock().unwrap();
        self.push_locked(&mut b, ev);
    }

    fn record_batch(&self, evs: &[Event]) {
        // One lock acquisition per solver step instead of one per event.
        let mut b = self.buf.lock().unwrap();
        for ev in evs {
            self.push_locked(&mut b, ev);
        }
    }
}

/// Streams events as JSON-lines to a file — the bench-binary sink.
pub struct JsonlRecorder {
    w: Mutex<JsonlSink>,
}

struct JsonlSink {
    out: BufWriter<std::fs::File>,
    /// The first write error since the last `flush`; lines after it are
    /// not written until `flush` has reported it.
    err: Option<io::Error>,
}

impl JsonlSink {
    fn write(&mut self, bytes: &[u8]) {
        if self.err.is_none() {
            self.err = self.out.write_all(bytes).err();
        }
    }
}

impl JsonlRecorder {
    /// Create/truncate `path` and stream events to it.
    pub fn create(path: impl AsRef<Path>) -> io::Result<Self> {
        let f = std::fs::File::create(path)?;
        Ok(Self {
            w: Mutex::new(JsonlSink {
                out: BufWriter::new(f),
                err: None,
            }),
        })
    }

    /// Flush buffered lines to disk. Fails with the first error a write
    /// met since the last flush, so a lost trace never reports success.
    pub fn flush(&self) -> io::Result<()> {
        let mut w = self.w.lock().unwrap();
        match w.err.take() {
            Some(e) => Err(e),
            None => w.out.flush(),
        }
    }
}

impl Recorder for JsonlRecorder {
    fn record(&self, ev: &Event) {
        let mut line = event_to_json(ev);
        line.push('\n');
        self.w.lock().unwrap().write(line.as_bytes());
    }

    fn record_batch(&self, evs: &[Event]) {
        // Serialize outside the lock, then write all lines under one
        // acquisition.
        let mut chunk = String::new();
        for ev in evs {
            chunk.push_str(&event_to_json(ev));
            chunk.push('\n');
        }
        self.w.lock().unwrap().write(chunk.as_bytes());
    }
}

impl Drop for JsonlRecorder {
    fn drop(&mut self) {
        // A missed final flush() must not truncate the tail of a trace.
        if let Ok(mut w) = self.w.lock() {
            let _ = w.out.flush();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{CommSnapshot, IterationEvent};

    fn iter_ev(i: usize) -> Event {
        Event::Iteration(IterationEvent {
            solver: "gmres",
            system_index: 0,
            cycle: 0,
            iter: i,
            per_rhs_residuals: vec![1.0 / (i + 1) as f64],
            comm: CommSnapshot::default(),
            breakdown_rank: None,
            wall_ns: 0,
        })
    }

    #[test]
    fn ring_keeps_most_recent() {
        let r = RingRecorder::new(3);
        for i in 0..5 {
            r.record(&iter_ev(i));
        }
        let evs = r.events();
        assert_eq!(evs.len(), 3);
        match &evs[0] {
            Event::Iteration(it) => assert_eq!(it.iter, 2),
            other => panic!("unexpected {other:?}"),
        }
        r.clear();
        assert!(r.events().is_empty());
    }

    #[test]
    fn ring_counts_overflow_drops() {
        let r = RingRecorder::new(3);
        for i in 0..5 {
            r.record(&iter_ev(i));
        }
        assert_eq!(r.dropped(), 2);
        r.clear();
        assert_eq!(r.dropped(), 0);
    }

    #[test]
    fn ring_batch_matches_per_event_recording() {
        let batch: Vec<Event> = (0..5).map(iter_ev).collect();
        let one = RingRecorder::new(3);
        for ev in &batch {
            one.record(ev);
        }
        let many = RingRecorder::new(3);
        many.record_batch(&batch);
        assert_eq!(many.dropped(), one.dropped());
        let (a, b) = (one.events(), many.events());
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b.iter()) {
            match (x, y) {
                (Event::Iteration(ix), Event::Iteration(iy)) => assert_eq!(ix.iter, iy.iter),
                other => panic!("unexpected {other:?}"),
            }
        }
    }

    #[test]
    fn jsonl_batch_and_drop_flush() {
        let dir = std::env::temp_dir().join("kryst_obs_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("trace_batch_{}.jsonl", std::process::id()));
        {
            let r = JsonlRecorder::create(&path).unwrap();
            r.record_batch(&[iter_ev(0), iter_ev(1), iter_ev(2)]);
            // No explicit flush: Drop must persist everything.
        }
        let body = std::fs::read_to_string(&path).unwrap();
        assert_eq!(body.lines().count(), 3);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn jsonl_writes_parseable_lines() {
        let dir = std::env::temp_dir().join("kryst_obs_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("trace_{}.jsonl", std::process::id()));
        {
            let r = JsonlRecorder::create(&path).unwrap();
            r.record(&iter_ev(0));
            r.record(&iter_ev(1));
            r.flush().unwrap();
        }
        let body = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = body.lines().collect();
        assert_eq!(lines.len(), 2);
        for line in lines {
            let v = crate::json::JsonValue::parse(line).unwrap();
            assert_eq!(v.get("type").unwrap().as_str(), Some("iteration"));
        }
        let _ = std::fs::remove_file(&path);
    }

    /// A write that fails (here: a full device) is reported by `flush`,
    /// even when the batch went straight past the buffer.
    #[cfg(target_os = "linux")]
    #[test]
    fn jsonl_reports_a_lost_trace_on_flush() {
        let r = JsonlRecorder::create("/dev/full").unwrap();
        let batch: Vec<Event> = (0..200).map(iter_ev).collect();
        r.record_batch(&batch);
        let err = r.flush().expect_err("a full device must fail the flush");
        assert_eq!(err.raw_os_error(), Some(28)); // ENOSPC
    }
}
