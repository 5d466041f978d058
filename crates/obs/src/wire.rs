//! Wire-level transport counters.
//!
//! Where [`crate::event::CommSnapshot`] counts *logical* communication events
//! (global reductions) as the solvers report them, this module
//! counts what a transport backend actually put on the wire: per-endpoint
//! messages, payload bytes, and the wall time spent inside `send`/`recv`.
//! The two views bracket each other — a butterfly all-reduce on `P` ranks is
//! one logical reduction but `O(P log P)` wire messages. A rank's
//! `recv_ns` is its measured time waiting on peers.
//!
//! Counters are relaxed atomics: statistics, not synchronization.

use std::sync::atomic::{AtomicU64, Ordering};

/// Per-endpoint wire counters (one instance per rank per transport).
#[derive(Debug, Default)]
pub struct WireStats {
    msgs_sent: AtomicU64,
    bytes_sent: AtomicU64,
    msgs_recv: AtomicU64,
    bytes_recv: AtomicU64,
    send_ns: AtomicU64,
    recv_ns: AtomicU64,
}

impl WireStats {
    /// Record one sent message of `bytes` payload taking `ns` nanoseconds.
    ///
    /// For buffered backends (writer threads, channel sends) the recorded
    /// time is the *enqueue* cost, not the on-wire time — per-rank send time
    /// is a lower bound there, while `recv_ns` captures the real waiting.
    #[inline]
    pub fn record_send(&self, bytes: usize, ns: u64) {
        self.msgs_sent.fetch_add(1, Ordering::Relaxed);
        self.bytes_sent.fetch_add(bytes as u64, Ordering::Relaxed);
        self.send_ns.fetch_add(ns, Ordering::Relaxed);
    }

    /// Record one received message of `bytes` payload taking `ns`
    /// nanoseconds of blocking wait + deserialization.
    #[inline]
    pub fn record_recv(&self, bytes: usize, ns: u64) {
        self.msgs_recv.fetch_add(1, Ordering::Relaxed);
        self.bytes_recv.fetch_add(bytes as u64, Ordering::Relaxed);
        self.recv_ns.fetch_add(ns, Ordering::Relaxed);
    }

    /// Copy out the counters.
    pub fn snapshot(&self) -> WireSnapshot {
        WireSnapshot {
            msgs_sent: self.msgs_sent.load(Ordering::Relaxed),
            bytes_sent: self.bytes_sent.load(Ordering::Relaxed),
            msgs_recv: self.msgs_recv.load(Ordering::Relaxed),
            bytes_recv: self.bytes_recv.load(Ordering::Relaxed),
            send_ns: self.send_ns.load(Ordering::Relaxed),
            recv_ns: self.recv_ns.load(Ordering::Relaxed),
        }
    }
}

/// A point-in-time copy of [`WireStats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WireSnapshot {
    /// Messages sent by this endpoint.
    pub msgs_sent: u64,
    /// Payload bytes sent (frame headers excluded).
    pub bytes_sent: u64,
    /// Messages received by this endpoint.
    pub msgs_recv: u64,
    /// Payload bytes received.
    pub bytes_recv: u64,
    /// Nanoseconds spent in `send` (enqueue time on buffered backends).
    pub send_ns: u64,
    /// Nanoseconds spent blocked in `recv`.
    pub recv_ns: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_snapshot_and_reset() {
        let w = WireStats::default();
        w.record_send(64, 100);
        w.record_send(8, 50);
        w.record_recv(64, 2000);
        let s = w.snapshot();
        assert_eq!(s.msgs_sent, 2);
        assert_eq!(s.bytes_sent, 72);
        assert_eq!(s.msgs_recv, 1);
        assert_eq!(s.bytes_recv, 64);
        assert_eq!(s.send_ns, 150);
        assert_eq!(s.recv_ns, 2000);
    }
}
