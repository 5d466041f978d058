//! The [`Transport`] trait and its two backends.
//!
//! Everything above this layer — the butterfly collectives in
//! [`crate::collective`] and the halo exchange — is written once against
//! [`Transport`] and therefore runs identically over:
//!
//! * [`ChannelTransport`] — the in-process mesh (one thread per rank,
//!   `std::sync::mpsc` channels), the default backend and the bit-exact
//!   successor of the old `spmd::RankCtx`;
//! * [`SocketTransport`] — real OS worker processes connected by a full
//!   `TcpStream` mesh on loopback with length-prefixed frames. Workers are
//!   spawned by re-executing the current binary with `KRYST_RANK` /
//!   `KRYST_WORLD` in the environment (see [`crate::spmd`] for the process
//!   orchestration); pure `std`, no new dependencies.
//!
//! Both backends buffer sends (channel sends enqueue; socket sends hand the
//! encoded frame to a per-connection writer thread), which is what makes the
//! symmetric send-then-recv butterfly deadlock-free and gives split-phase
//! sends their "post and continue" semantics. Failures surface as typed
//! [`TransportError`]s instead of panics: a dead peer is [`TransportError::
//! PeerClosed`], never an abort of the whole mesh.
//!
//! Every endpoint carries [`WireStats`] counters recording what actually
//! crossed the wire.

use kryst_obs::WireStats;
use std::collections::HashMap;
use std::io::{BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::sync::Mutex;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Typed failure of a transport operation. Surfaced through solver results
/// instead of panicking the mesh (the old `expect("peer alive")` behavior).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TransportError {
    /// The peer endpoint hung up (process exited, thread returned, or the
    /// stream reached EOF) while this rank was sending to or receiving from
    /// it.
    PeerClosed {
        /// The rank that observed the failure.
        rank: usize,
        /// The peer that went away.
        peer: usize,
    },
    /// An OS-level I/O error on the socket backend (timeout, reset, …).
    Io {
        /// The rank that observed the failure.
        rank: usize,
        /// Human-readable description of the underlying error.
        detail: String,
    },
    /// Spawning or bootstrapping the worker process mesh failed.
    Spawn {
        /// Human-readable description.
        detail: String,
    },
    /// The peer spoke, but not the expected protocol (length mismatch,
    /// out-of-range rank, malformed frame).
    Protocol {
        /// Human-readable description.
        detail: String,
    },
    /// A worker rank failed (panicked, exited abnormally, or reported an
    /// error) and the run as a whole cannot produce a result.
    RankFailed {
        /// The rank that failed.
        rank: usize,
        /// Human-readable description.
        detail: String,
    },
}

impl std::fmt::Display for TransportError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TransportError::PeerClosed { rank, peer } => {
                write!(f, "transport: rank {rank} lost peer {peer} (peer closed)")
            }
            TransportError::Io { rank, detail } => {
                write!(f, "transport: i/o error on rank {rank}: {detail}")
            }
            TransportError::Spawn { detail } => write!(f, "transport: spawn failed: {detail}"),
            TransportError::Protocol { detail } => {
                write!(f, "transport: protocol error: {detail}")
            }
            TransportError::RankFailed { rank, detail } => {
                write!(f, "transport: rank {rank} failed: {detail}")
            }
        }
    }
}

impl std::error::Error for TransportError {}

/// Which transport backend an SPMD run uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TransportKind {
    /// In-process mesh: one thread per rank, `mpsc` channels (default).
    #[default]
    Channel,
    /// Real OS worker processes over a loopback `TcpStream` mesh.
    Socket,
}

impl TransportKind {
    /// Stable lowercase name used in traces, benchmarks, and reports.
    pub fn name(self) -> &'static str {
        match self {
            TransportKind::Channel => "channel",
            TransportKind::Socket => "socket",
        }
    }
}

/// One rank's endpoint into the mesh. Object-safe so orchestration code can
/// hold `Box<dyn Transport>`; the collectives are generic (`T: Transport +
/// ?Sized`) so monomorphized hot paths pay no virtual dispatch.
///
/// Contract shared by all backends: `send` is *buffered* (it enqueues and
/// returns without waiting for the matching receive), messages between a
/// fixed (sender, receiver) pair arrive in order, and a vanished peer yields
/// [`TransportError::PeerClosed`] rather than a panic.
pub trait Transport {
    /// This endpoint's rank in `0..nranks()`.
    fn rank(&self) -> usize;
    /// World size.
    fn nranks(&self) -> usize;
    /// Buffered send of `payload` to rank `dst`.
    fn send(&self, dst: usize, payload: &[f64]) -> Result<(), TransportError>;
    /// Blocking receive from rank `src` into `buf` (overwritten, resized).
    fn recv_into(&self, src: usize, buf: &mut Vec<f64>) -> Result<(), TransportError>;
    /// Wire-level counters for this endpoint.
    fn wire(&self) -> &WireStats;

    /// Blocking receive returning a fresh vector.
    fn recv(&self, src: usize) -> Result<Vec<f64>, TransportError> {
        let mut buf = Vec::new();
        self.recv_into(src, &mut buf)?;
        Ok(buf)
    }

    /// Control-plane send: identical delivery to [`Transport::send`] but
    /// excluded from the wire counters (orchestration frames — results,
    /// stats, worker commands — must not pollute the measured traffic).
    fn send_ctl(&self, dst: usize, payload: &[f64]) -> Result<(), TransportError> {
        self.send(dst, payload)
    }

    /// Control-plane receive (see [`Transport::send_ctl`]).
    fn recv_ctl(&self, src: usize, buf: &mut Vec<f64>) -> Result<(), TransportError> {
        self.recv_into(src, buf)
    }
}

// ---------------------------------------------------------------------------
// Channel backend
// ---------------------------------------------------------------------------

/// In-process backend: rank `r`'s endpoint owns a sender to and a receiver
/// from every other rank. Dropping the endpoint disconnects its channels,
/// which is how peer death propagates (peers see `PeerClosed`). A receive
/// waits at most the socket backend's read deadline (`KRYST_SPMD_TIMEOUT_MS`,
/// default 120 s), so a live peer that never sends cannot hang a rank.
pub struct ChannelTransport {
    rank: usize,
    nranks: usize,
    senders: Vec<Option<Sender<Vec<f64>>>>,
    receivers: Vec<Option<Receiver<Vec<f64>>>>,
    timeout: Duration,
    wire: WireStats,
}

impl ChannelTransport {
    fn check_peer(&self, peer: usize, verb: &str) -> Result<(), TransportError> {
        if peer >= self.nranks || peer == self.rank {
            return Err(TransportError::Protocol {
                detail: format!(
                    "rank {} cannot {verb} rank {peer} in a world of {}",
                    self.rank, self.nranks
                ),
            });
        }
        Ok(())
    }

    fn send_inner(&self, dst: usize, payload: &[f64], count: bool) -> Result<(), TransportError> {
        self.check_peer(dst, "send to")?;
        let t0 = Instant::now();
        let sent = self.senders[dst]
            .as_ref()
            .expect("sender present for valid peer")
            .send(payload.to_vec());
        if sent.is_err() {
            return Err(TransportError::PeerClosed {
                rank: self.rank,
                peer: dst,
            });
        }
        if count {
            self.wire
                .record_send(payload.len() * 8, t0.elapsed().as_nanos() as u64);
        }
        Ok(())
    }

    fn recv_inner(
        &self,
        src: usize,
        buf: &mut Vec<f64>,
        count: bool,
    ) -> Result<(), TransportError> {
        self.check_peer(src, "receive from")?;
        let t0 = Instant::now();
        match self.receivers[src]
            .as_ref()
            .expect("receiver present for valid peer")
            .recv_timeout(self.timeout)
        {
            Ok(msg) => {
                if count {
                    self.wire
                        .record_recv(msg.len() * 8, t0.elapsed().as_nanos() as u64);
                }
                *buf = msg;
                Ok(())
            }
            Err(RecvTimeoutError::Timeout) => Err(TransportError::Io {
                rank: self.rank,
                detail: format!("timed out waiting for rank {src}"),
            }),
            Err(RecvTimeoutError::Disconnected) => Err(TransportError::PeerClosed {
                rank: self.rank,
                peer: src,
            }),
        }
    }
}

impl Transport for ChannelTransport {
    fn rank(&self) -> usize {
        self.rank
    }
    fn nranks(&self) -> usize {
        self.nranks
    }
    fn send(&self, dst: usize, payload: &[f64]) -> Result<(), TransportError> {
        self.send_inner(dst, payload, true)
    }
    fn recv_into(&self, src: usize, buf: &mut Vec<f64>) -> Result<(), TransportError> {
        self.recv_inner(src, buf, true)
    }
    fn wire(&self) -> &WireStats {
        &self.wire
    }
    fn send_ctl(&self, dst: usize, payload: &[f64]) -> Result<(), TransportError> {
        self.send_inner(dst, payload, false)
    }
    fn recv_ctl(&self, src: usize, buf: &mut Vec<f64>) -> Result<(), TransportError> {
        self.recv_inner(src, buf, false)
    }
}

/// Build the full in-process mesh: one [`ChannelTransport`] endpoint per
/// rank, every ordered pair connected by its own channel.
pub fn channel_mesh(nranks: usize) -> Vec<ChannelTransport> {
    let mut senders: Vec<Vec<Option<Sender<Vec<f64>>>>> = (0..nranks)
        .map(|_| (0..nranks).map(|_| None).collect())
        .collect();
    let mut receivers: Vec<Vec<Option<Receiver<Vec<f64>>>>> = (0..nranks)
        .map(|_| (0..nranks).map(|_| None).collect())
        .collect();
    for from in 0..nranks {
        for to in 0..nranks {
            if from == to {
                continue;
            }
            let (tx, rx) = channel();
            senders[from][to] = Some(tx);
            receivers[to][from] = Some(rx);
        }
    }
    let timeout = Duration::from_millis(io_timeout_ms());
    let mut out = Vec::with_capacity(nranks);
    for (rank, (s, r)) in senders.into_iter().zip(receivers).enumerate() {
        out.push(ChannelTransport {
            rank,
            nranks,
            senders: s,
            receivers: r,
            timeout,
            wire: WireStats::default(),
        });
    }
    out
}

// ---------------------------------------------------------------------------
// Socket framing
// ---------------------------------------------------------------------------

/// Encode one length-prefixed frame: `u32` little-endian element count, then
/// `count` `f64`s little-endian. Appends to `out` so a writer thread can own
/// the allocation.
fn encode_frame(payload: &[f64], out: &mut Vec<u8>) {
    out.clear();
    out.reserve(4 + payload.len() * 8);
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    for v in payload {
        out.extend_from_slice(&v.to_le_bytes());
    }
}

fn read_exact_frame<R: Read>(
    r: &mut R,
    scratch: &mut Vec<u8>,
    out: &mut Vec<f64>,
) -> std::io::Result<()> {
    let mut hdr = [0u8; 4];
    r.read_exact(&mut hdr)?;
    let count = u32::from_le_bytes(hdr) as usize;
    scratch.clear();
    scratch.resize(count * 8, 0);
    r.read_exact(scratch)?;
    out.clear();
    out.reserve(count);
    for chunk in scratch.chunks_exact(8) {
        out.push(f64::from_le_bytes(chunk.try_into().expect("8-byte chunk")));
    }
    Ok(())
}

fn write_frame_stream(stream: &mut TcpStream, payload: &[f64]) -> std::io::Result<()> {
    let mut buf = Vec::new();
    encode_frame(payload, &mut buf);
    stream.write_all(&buf)
}

fn read_frame_stream(stream: &mut TcpStream, out: &mut Vec<f64>) -> std::io::Result<()> {
    let mut scratch = Vec::new();
    read_exact_frame(stream, &mut scratch, out)
}

fn io_timeout_ms() -> u64 {
    std::env::var("KRYST_SPMD_TIMEOUT_MS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(120_000)
}

// ---------------------------------------------------------------------------
// Socket backend
// ---------------------------------------------------------------------------

struct FrameReader {
    stream: BufReader<TcpStream>,
    scratch: Vec<u8>,
}

struct PeerConn {
    tx: Option<Sender<Vec<u8>>>,
    writer: Option<JoinHandle<()>>,
    reader: Mutex<FrameReader>,
}

impl PeerConn {
    fn new(stream: TcpStream) -> std::io::Result<Self> {
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_millis(io_timeout_ms())))?;
        let mut write_half = stream.try_clone()?;
        let (tx, rx) = channel::<Vec<u8>>();
        let writer = std::thread::spawn(move || {
            while let Ok(frame) = rx.recv() {
                if write_half.write_all(&frame).is_err() {
                    // Peer is gone; drain remaining frames so senders never
                    // block, and let the receive side surface the error.
                    break;
                }
            }
        });
        Ok(PeerConn {
            tx: Some(tx),
            writer: Some(writer),
            reader: Mutex::new(FrameReader {
                stream: BufReader::new(stream),
                scratch: Vec::new(),
            }),
        })
    }

    fn finish(&mut self) {
        drop(self.tx.take());
        if let Some(h) = self.writer.take() {
            let _ = h.join();
        }
    }
}

impl Drop for PeerConn {
    fn drop(&mut self) {
        self.finish();
    }
}

/// Socket backend endpoint: a full loopback `TcpStream` mesh between real OS
/// processes. Sends encode a length-prefixed frame and hand it to a
/// per-connection writer thread (buffered, so split-phase sends never
/// block); receives read frames under a per-connection lock. A peer whose
/// process exits closes its streams, which readers observe as EOF →
/// [`TransportError::PeerClosed`].
pub struct SocketTransport {
    rank: usize,
    nranks: usize,
    conns: Vec<Option<PeerConn>>,
    wire: WireStats,
}

impl SocketTransport {
    fn conn(&self, peer: usize, verb: &str) -> Result<&PeerConn, TransportError> {
        if peer >= self.nranks || peer == self.rank {
            return Err(TransportError::Protocol {
                detail: format!(
                    "rank {} cannot {verb} rank {peer} in a world of {}",
                    self.rank, self.nranks
                ),
            });
        }
        Ok(self.conns[peer]
            .as_ref()
            .expect("conn present for valid peer"))
    }

    fn send_inner(&self, dst: usize, payload: &[f64], count: bool) -> Result<(), TransportError> {
        let conn = self.conn(dst, "send to")?;
        let t0 = Instant::now();
        let mut frame = Vec::new();
        encode_frame(payload, &mut frame);
        let tx = conn.tx.as_ref().expect("writer tx alive until finish");
        if tx.send(frame).is_err() {
            return Err(TransportError::PeerClosed {
                rank: self.rank,
                peer: dst,
            });
        }
        if count {
            self.wire
                .record_send(payload.len() * 8, t0.elapsed().as_nanos() as u64);
        }
        Ok(())
    }

    fn recv_inner(
        &self,
        src: usize,
        buf: &mut Vec<f64>,
        count: bool,
    ) -> Result<(), TransportError> {
        let conn = self.conn(src, "receive from")?;
        let t0 = Instant::now();
        let mut rd = conn.reader.lock().unwrap_or_else(|e| e.into_inner());
        let FrameReader { stream, scratch } = &mut *rd;
        match read_exact_frame(stream, scratch, buf) {
            Ok(()) => {
                if count {
                    self.wire
                        .record_recv(buf.len() * 8, t0.elapsed().as_nanos() as u64);
                }
                Ok(())
            }
            Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => {
                Err(TransportError::PeerClosed {
                    rank: self.rank,
                    peer: src,
                })
            }
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                Err(TransportError::Io {
                    rank: self.rank,
                    detail: format!("timed out waiting for rank {src}"),
                })
            }
            Err(e) => Err(TransportError::Io {
                rank: self.rank,
                detail: format!("recv from rank {src}: {e}"),
            }),
        }
    }

    /// Flush and join every writer thread. Call before `process::exit` so
    /// frames already posted are guaranteed on the wire.
    pub fn finish(&mut self) {
        for conn in self.conns.iter_mut().flatten() {
            conn.finish();
        }
    }
}

impl Transport for SocketTransport {
    fn rank(&self) -> usize {
        self.rank
    }
    fn nranks(&self) -> usize {
        self.nranks
    }
    fn send(&self, dst: usize, payload: &[f64]) -> Result<(), TransportError> {
        self.send_inner(dst, payload, true)
    }
    fn recv_into(&self, src: usize, buf: &mut Vec<f64>) -> Result<(), TransportError> {
        self.recv_inner(src, buf, true)
    }
    fn wire(&self) -> &WireStats {
        &self.wire
    }
    fn send_ctl(&self, dst: usize, payload: &[f64]) -> Result<(), TransportError> {
        self.send_inner(dst, payload, false)
    }
    fn recv_ctl(&self, src: usize, buf: &mut Vec<f64>) -> Result<(), TransportError> {
        self.recv_inner(src, buf, false)
    }
}

fn io_err(rank: usize, what: &str, e: std::io::Error) -> TransportError {
    TransportError::Io {
        rank,
        detail: format!("{what}: {e}"),
    }
}

/// Bootstrap the parent (rank 0) side of a socket mesh: bind a rendezvous
/// listener, spawn `nranks - 1` worker processes running `exe` (the current
/// executable when `None`) with `args`, collect their hellos, broadcast the
/// port table, and return rank 0's endpoint plus the child handles.
///
/// Environment given to children: `KRYST_RANK`, `KRYST_WORLD`,
/// `KRYST_SPMD_ADDR` (the rendezvous address), `KRYST_SPMD_MODE`, plus
/// `extra_env`.
pub(crate) fn spawn_world(
    nranks: usize,
    mode: &str,
    exe: Option<&std::path::Path>,
    args: &[String],
    extra_env: &[(String, String)],
) -> Result<(SocketTransport, Vec<std::process::Child>), TransportError> {
    assert!(nranks >= 2, "socket mesh needs at least 2 ranks");
    let listener =
        TcpListener::bind("127.0.0.1:0").map_err(|e| io_err(0, "bind rendezvous listener", e))?;
    let addr = listener
        .local_addr()
        .map_err(|e| io_err(0, "rendezvous local_addr", e))?;
    listener
        .set_nonblocking(true)
        .map_err(|e| io_err(0, "set rendezvous nonblocking", e))?;

    let exe_path = match exe {
        Some(p) => p.to_path_buf(),
        None => std::env::current_exe().map_err(|e| io_err(0, "current_exe", e))?,
    };
    let verbose = matches!(std::env::var("KRYST_SPMD_VERBOSE"), Ok(v) if v == "1");
    let mut children = Vec::with_capacity(nranks - 1);
    for r in 1..nranks {
        let mut cmd = std::process::Command::new(&exe_path);
        cmd.args(args)
            .env("KRYST_RANK", r.to_string())
            .env("KRYST_WORLD", nranks.to_string())
            .env("KRYST_SPMD_ADDR", addr.to_string())
            .env("KRYST_SPMD_MODE", mode)
            .env_remove("KRYST_SPMD_CALL")
            .env_remove("KRYST_SPMD_THREAD")
            .stdin(std::process::Stdio::null());
        if verbose {
            cmd.stdout(std::process::Stdio::inherit())
                .stderr(std::process::Stdio::inherit());
        } else {
            cmd.stdout(std::process::Stdio::null())
                .stderr(std::process::Stdio::null());
        }
        for (k, v) in extra_env {
            cmd.env(k, v);
        }
        match cmd.spawn() {
            Ok(c) => children.push(c),
            Err(e) => {
                kill_children(&mut children);
                return Err(TransportError::Spawn {
                    detail: format!("spawn rank {r} ({}): {e}", exe_path.display()),
                });
            }
        }
    }

    // Accept one hello per child: frame [rank, listen_port].
    let deadline = Instant::now() + Duration::from_secs(30);
    let mut pending: HashMap<usize, (TcpStream, u16)> = HashMap::new();
    while pending.len() < nranks - 1 {
        match listener.accept() {
            Ok((mut stream, _)) => {
                stream
                    .set_nonblocking(false)
                    .map_err(|e| io_err(0, "set accepted stream blocking", e))?;
                stream
                    .set_read_timeout(Some(Duration::from_secs(10)))
                    .map_err(|e| io_err(0, "set hello timeout", e))?;
                let mut hello = Vec::new();
                read_frame_stream(&mut stream, &mut hello).map_err(|e| {
                    kill_children(&mut children);
                    io_err(0, "read hello", e)
                })?;
                if hello.len() != 2 {
                    kill_children(&mut children);
                    return Err(TransportError::Protocol {
                        detail: format!("hello frame has {} elements, expected 2", hello.len()),
                    });
                }
                let (rank, port) = (hello[0] as usize, hello[1] as u16);
                if rank == 0 || rank >= nranks || pending.contains_key(&rank) {
                    kill_children(&mut children);
                    return Err(TransportError::Protocol {
                        detail: format!("bad or duplicate hello from rank {rank}"),
                    });
                }
                pending.insert(rank, (stream, port));
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                if Instant::now() > deadline {
                    kill_children(&mut children);
                    return Err(TransportError::Spawn {
                        detail: "timed out waiting for worker hellos".into(),
                    });
                }
                // Surface a worker that died before saying hello.
                for (i, c) in children.iter_mut().enumerate() {
                    if let Ok(Some(status)) = c.try_wait() {
                        let rank = i + 1;
                        kill_children(&mut children);
                        return Err(TransportError::RankFailed {
                            rank,
                            detail: format!("worker exited during bootstrap: {status}"),
                        });
                    }
                }
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(e) => {
                kill_children(&mut children);
                return Err(io_err(0, "accept hello", e));
            }
        }
    }

    // Broadcast the port table [port_1, ..., port_{p-1}] to every child.
    let table: Vec<f64> = (1..nranks).map(|r| pending[&r].1 as f64).collect();
    for (_, (stream, _)) in pending.iter_mut() {
        write_frame_stream(stream, &table).map_err(|e| {
            let mut cs = std::mem::take(&mut children);
            kill_children(&mut cs);
            io_err(0, "send port table", e)
        })?;
    }

    let mut conns: Vec<Option<PeerConn>> = (0..nranks).map(|_| None).collect();
    for (rank, (stream, _)) in pending {
        conns[rank] = Some(PeerConn::new(stream).map_err(|e| io_err(0, "wrap peer conn", e))?);
    }
    Ok((
        SocketTransport {
            rank: 0,
            nranks,
            conns,
            wire: WireStats::default(),
        },
        children,
    ))
}

/// Kill and reap every child process (best effort; used on error paths).
pub(crate) fn kill_children(children: &mut [std::process::Child]) {
    for c in children.iter_mut() {
        let _ = c.kill();
    }
    for c in children.iter_mut() {
        let _ = c.wait();
    }
}

/// Bootstrap the child (rank ≥ 1) side of a socket mesh from the
/// `KRYST_RANK` / `KRYST_WORLD` / `KRYST_SPMD_ADDR` environment: say hello to
/// the rendezvous listener, receive the port table, connect to every lower
/// rank and accept from every higher one.
pub(crate) fn child_mesh() -> Result<SocketTransport, TransportError> {
    let rank: usize = std::env::var("KRYST_RANK")
        .ok()
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| TransportError::Protocol {
            detail: "KRYST_RANK missing or unparsable in worker".into(),
        })?;
    let nranks: usize = std::env::var("KRYST_WORLD")
        .ok()
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| TransportError::Protocol {
            detail: "KRYST_WORLD missing or unparsable in worker".into(),
        })?;
    let addr: SocketAddr = std::env::var("KRYST_SPMD_ADDR")
        .ok()
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| TransportError::Protocol {
            detail: "KRYST_SPMD_ADDR missing or unparsable in worker".into(),
        })?;

    // Own listener for connections from higher ranks.
    let listener =
        TcpListener::bind("127.0.0.1:0").map_err(|e| io_err(rank, "bind worker listener", e))?;
    let my_port = listener
        .local_addr()
        .map_err(|e| io_err(rank, "worker local_addr", e))?
        .port();

    // Connect to the rendezvous (rank 0) with retry — the parent may still
    // be spawning siblings.
    let mut parent = connect_retry(rank, addr)?;
    write_frame_stream(&mut parent, &[rank as f64, my_port as f64])
        .map_err(|e| io_err(rank, "send hello", e))?;
    parent
        .set_read_timeout(Some(Duration::from_secs(30)))
        .map_err(|e| io_err(rank, "set table timeout", e))?;
    let mut table = Vec::new();
    read_frame_stream(&mut parent, &mut table).map_err(|e| io_err(rank, "read port table", e))?;
    if table.len() != nranks - 1 {
        return Err(TransportError::Protocol {
            detail: format!(
                "port table has {} entries, expected {}",
                table.len(),
                nranks - 1
            ),
        });
    }

    let mut conns: Vec<Option<PeerConn>> = (0..nranks).map(|_| None).collect();
    conns[0] = Some(PeerConn::new(parent).map_err(|e| io_err(rank, "wrap parent conn", e))?);

    // Connect to lower ranks 1..rank (their ports are table[s-1]).
    for s in 1..rank {
        let peer_addr: SocketAddr = format!("127.0.0.1:{}", table[s - 1] as u16)
            .parse()
            .expect("loopback addr parses");
        let mut stream = connect_retry(rank, peer_addr)?;
        write_frame_stream(&mut stream, &[rank as f64])
            .map_err(|e| io_err(rank, "send peer hello", e))?;
        conns[s] = Some(PeerConn::new(stream).map_err(|e| io_err(rank, "wrap peer conn", e))?);
    }

    // Accept from higher ranks rank+1..nranks.
    for _ in rank + 1..nranks {
        let (mut stream, _) = listener
            .accept()
            .map_err(|e| io_err(rank, "accept higher-rank conn", e))?;
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .map_err(|e| io_err(rank, "set peer hello timeout", e))?;
        let mut hello = Vec::new();
        read_frame_stream(&mut stream, &mut hello)
            .map_err(|e| io_err(rank, "read peer hello", e))?;
        if hello.len() != 1 {
            return Err(TransportError::Protocol {
                detail: format!("peer hello has {} elements, expected 1", hello.len()),
            });
        }
        let peer = hello[0] as usize;
        if peer <= rank || peer >= nranks || conns[peer].is_some() {
            return Err(TransportError::Protocol {
                detail: format!("bad or duplicate peer hello from rank {peer}"),
            });
        }
        conns[peer] = Some(PeerConn::new(stream).map_err(|e| io_err(rank, "wrap peer conn", e))?);
    }

    Ok(SocketTransport {
        rank,
        nranks,
        conns,
        wire: WireStats::default(),
    })
}

fn connect_retry(rank: usize, addr: SocketAddr) -> Result<TcpStream, TransportError> {
    let deadline = Instant::now() + Duration::from_secs(20);
    loop {
        match TcpStream::connect(addr) {
            Ok(s) => return Ok(s),
            Err(e) => {
                if Instant::now() > deadline {
                    return Err(io_err(rank, "connect", e));
                }
                std::thread::sleep(Duration::from_millis(20));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_roundtrip() {
        let payload = vec![1.5, -2.25, 0.0, f64::MIN_POSITIVE, 1e300];
        let mut bytes = Vec::new();
        encode_frame(&payload, &mut bytes);
        assert_eq!(bytes.len(), 4 + payload.len() * 8);
        let mut scratch = Vec::new();
        let mut out = Vec::new();
        read_exact_frame(&mut bytes.as_slice(), &mut scratch, &mut out).unwrap();
        assert_eq!(out, payload);
    }

    #[test]
    fn channel_mesh_send_recv_and_counters() {
        let mut mesh = channel_mesh(3);
        let t2 = mesh.pop().unwrap();
        let t1 = mesh.pop().unwrap();
        let t0 = mesh.pop().unwrap();
        t0.send(1, &[1.0, 2.0]).unwrap();
        t2.send(1, &[3.0]).unwrap();
        assert_eq!(t1.recv(0).unwrap(), vec![1.0, 2.0]);
        assert_eq!(t1.recv(2).unwrap(), vec![3.0]);
        let w = t1.wire().snapshot();
        assert_eq!(w.msgs_recv, 2);
        assert_eq!(w.bytes_recv, 24);
        assert_eq!(t0.wire().snapshot().msgs_sent, 1);
        // Control-plane traffic is excluded from the counters.
        t0.send_ctl(1, &[9.0]).unwrap();
        let mut buf = Vec::new();
        t1.recv_ctl(0, &mut buf).unwrap();
        assert_eq!(buf, vec![9.0]);
        assert_eq!(t0.wire().snapshot().msgs_sent, 1);
        assert_eq!(t1.wire().snapshot().msgs_recv, 2);
    }

    #[test]
    fn channel_peer_death_is_typed() {
        let mut mesh = channel_mesh(2);
        let t1 = mesh.pop().unwrap();
        let t0 = mesh.pop().unwrap();
        drop(t1);
        assert_eq!(
            t0.recv(1),
            Err(TransportError::PeerClosed { rank: 0, peer: 1 })
        );
        assert_eq!(
            t0.send(1, &[1.0]),
            Err(TransportError::PeerClosed { rank: 0, peer: 1 })
        );
    }

    /// A live peer that never sends: the receive gives up after the read
    /// deadline instead of blocking for ever. The deadline is shortened
    /// only in a re-executed copy of this test, so no other test in the
    /// binary runs under it.
    #[test]
    fn channel_recv_times_out_on_a_silent_live_peer() {
        if std::env::var_os("KRYST_SPMD_TIMEOUT_MS").is_none() {
            let name = "transport::tests::channel_recv_times_out_on_a_silent_live_peer";
            let mut child = std::process::Command::new(std::env::current_exe().unwrap())
                .args(["--exact", name])
                .env("KRYST_SPMD_TIMEOUT_MS", "200")
                .stdout(std::process::Stdio::piped())
                .stderr(std::process::Stdio::null())
                .spawn()
                .expect("re-exec the test binary");
            let t0 = Instant::now();
            while child.try_wait().unwrap().is_none() {
                if t0.elapsed() > Duration::from_secs(30) {
                    child.kill().ok();
                    child.wait().ok();
                    panic!("channel receive still blocked 30 s past a 200 ms deadline");
                }
                std::thread::sleep(Duration::from_millis(20));
            }
            let out = child.wait_with_output().unwrap();
            let stdout = String::from_utf8_lossy(&out.stdout);
            assert!(out.status.success(), "child failed:\n{stdout}");
            assert!(stdout.contains("1 passed"), "child ran no test:\n{stdout}");
            return;
        }
        let mut mesh = channel_mesh(2);
        let _silent = mesh.pop().unwrap();
        let t0 = mesh.pop().unwrap();
        let start = Instant::now();
        assert_eq!(
            t0.recv(1),
            Err(TransportError::Io {
                rank: 0,
                detail: "timed out waiting for rank 1".into(),
            })
        );
        assert!(start.elapsed() >= t0.timeout);
    }

    #[test]
    fn out_of_range_peer_is_protocol_error() {
        let mut mesh = channel_mesh(2);
        let t0 = mesh.remove(0);
        assert!(matches!(
            t0.send(5, &[1.0]),
            Err(TransportError::Protocol { .. })
        ));
        assert!(matches!(t0.recv(0), Err(TransportError::Protocol { .. })));
    }
}
