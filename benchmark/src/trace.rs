//! The benchmark's own span recorder.
//!
//! Spans are recorded from outside the program, around the calls into each
//! crate: the in-tree `KRYST_PROF`/`KRYST_TRACE` probes are not used, so a
//! metric cannot move because a probe inside the program did. Structural
//! spans (repetition, set-up stage, solve) are opened by the one driver
//! thread; leaf spans (operator and preconditioner applies) may arrive from
//! any thread, because the pseudo-block driver runs one thread per
//! right-hand side.

use std::cell::Cell;
use std::io::Write;
use std::sync::atomic::{AtomicU32, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// The crate a span's time is charged to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    Harness,
    Pde,
    Precond,
    Sparse,
    Core,
}

impl Layer {
    pub fn name(self) -> &'static str {
        match self {
            Layer::Harness => "harness",
            Layer::Pde => "pde",
            Layer::Precond => "precond",
            Layer::Sparse => "sparse",
            Layer::Core => "core",
        }
    }
}

pub const REPETITION: &str = "repetition";
pub const SOLVE: &str = "solve";
pub const SPMM: &str = "spmm";
pub const PRECOND_APPLY: &str = "precond_apply";

/// One timed interval. `parent` and `solve_id` are 0 for "none".
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u32,
    pub parent: u32,
    pub solve_id: u32,
    pub name: &'static str,
    pub layer: Layer,
    pub t0_ns: u64,
    pub t1_ns: u64,
    /// Columns of the multivector an apply worked on.
    pub cols: u32,
    /// Computed bytes of matrix or preconditioner data the call streamed;
    /// 0 when the callee cannot say.
    pub bytes: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.t1_ns - self.t0_ns
    }
}

/// A structural span that has been opened and not yet closed.
pub struct Open {
    id: u32,
    parent: u32,
    solve_id: u32,
    name: &'static str,
    layer: Layer,
    t0_ns: u64,
}

const SHARDS: usize = 8;
const SHARD_CAPACITY: usize = 1 << 18;

/// In-memory span store: one pre-allocated buffer per thread slot, written
/// out only when the run ends.
pub struct Tracer {
    epoch: Instant,
    next_id: AtomicU32,
    /// Innermost open structural span: the parent of whatever starts next.
    current: AtomicU32,
    /// The open solve span, shared by every span of that solve.
    solve: AtomicU32,
    shards: Vec<Mutex<Vec<Span>>>,
}

thread_local! {
    static SHARD: Cell<usize> = const { Cell::new(usize::MAX) };
}
static NEXT_SHARD: AtomicUsize = AtomicUsize::new(0);

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            next_id: AtomicU32::new(1),
            current: AtomicU32::new(0),
            solve: AtomicU32::new(0),
            shards: (0..SHARDS)
                .map(|_| Mutex::new(Vec::with_capacity(SHARD_CAPACITY)))
                .collect(),
        }
    }

    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn push(&self, span: Span) {
        let shard = SHARD.with(|s| {
            if s.get() == usize::MAX {
                s.set(NEXT_SHARD.fetch_add(1, Ordering::Relaxed) % SHARDS);
            }
            s.get()
        });
        self.shards[shard]
            .lock()
            .expect("no thread panics while pushing a span")
            .push(span);
    }

    /// Open a structural span under the innermost open one. Only the driver
    /// thread opens and closes structural spans, so a swap is enough.
    pub fn open(&self, name: &'static str, layer: Layer) -> Open {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let parent = self.current.swap(id, Ordering::SeqCst);
        if name == SOLVE {
            self.solve.store(id, Ordering::SeqCst);
        }
        Open {
            id,
            parent,
            solve_id: self.solve.load(Ordering::SeqCst),
            name,
            layer,
            t0_ns: self.now_ns(),
        }
    }

    pub fn close(&self, open: Open) {
        let t1_ns = self.now_ns();
        self.current.store(open.parent, Ordering::SeqCst);
        if open.name == SOLVE {
            self.solve.store(0, Ordering::SeqCst);
        }
        self.push(Span {
            id: open.id,
            parent: open.parent,
            solve_id: open.solve_id,
            name: open.name,
            layer: open.layer,
            t0_ns: open.t0_ns,
            t1_ns,
            cols: 0,
            bytes: 0,
        });
    }

    /// Record a finished call into a layer, from any thread.
    pub fn leaf(
        &self,
        name: &'static str,
        layer: Layer,
        cols: usize,
        bytes: usize,
        t0_ns: u64,
        t1_ns: u64,
    ) {
        self.push(Span {
            id: self.next_id.fetch_add(1, Ordering::Relaxed),
            parent: self.current.load(Ordering::SeqCst),
            solve_id: self.solve.load(Ordering::SeqCst),
            name,
            layer,
            t0_ns,
            t1_ns,
            cols: cols as u32,
            bytes: bytes as u64,
        });
    }

    /// Every span recorded so far, in order of start.
    pub fn spans(&self) -> Vec<Span> {
        let mut all: Vec<Span> = self
            .shards
            .iter()
            .flat_map(|s| s.lock().expect("span shard").clone())
            .collect();
        all.sort_by_key(|s| (s.t0_ns, s.id));
        all
    }
}

/// Write spans as JSON lines.
pub fn write_jsonl(spans: &[Span], mut w: impl Write) -> std::io::Result<()> {
    for s in spans {
        writeln!(
            w,
            "{{\"id\":{},\"parent\":{},\"solve_id\":{},\"name\":\"{}\",\"layer\":\"{}\",\
             \"t0_ns\":{},\"t1_ns\":{},\"cols\":{},\"bytes\":{}}}",
            s.id,
            s.parent,
            s.solve_id,
            s.name,
            s.layer.name(),
            s.t0_ns,
            s.t1_ns,
            s.cols,
            s.bytes
        )?;
    }
    w.flush()
}

/// A span's self time: its duration minus the part of it that its direct
/// children cover. Children running on several threads may overlap, so the
/// cover is the union of their intervals, clipped to the parent.
pub fn self_ns(parent: &Span, children: &[&Span]) -> u64 {
    let mut ivs: Vec<(u64, u64)> = children
        .iter()
        .map(|c| (c.t0_ns.max(parent.t0_ns), c.t1_ns.min(parent.t1_ns)))
        .filter(|(a, b)| b > a)
        .collect();
    ivs.sort_unstable();
    let mut covered = 0;
    let mut end = 0;
    for (a, b) in ivs {
        let a = a.max(end);
        if b > a {
            covered += b - a;
            end = b;
        }
    }
    parent.dur_ns() - covered
}

/// Where the traced time of one repetition went.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RepLayers {
    /// Sum of the repetition's solve spans: the traced `solve_s`.
    pub solve_s: f64,
    pub spmm_s: f64,
    pub spmm_calls: u64,
    pub spmm_cols: u64,
    /// Matrix bytes the applies streamed, without the multivectors.
    pub spmm_matrix_bytes: u64,
    pub precond_apply_s: f64,
    pub precond_apply_calls: u64,
    pub precond_apply_cols: u64,
    /// Bytes of the preconditioner applies that know theirs, and their time.
    pub precond_bytes: u64,
    pub precond_bytes_s: f64,
    /// Solve spans minus the operator and preconditioner applies they cover.
    pub core_self_s: f64,
}

/// Per-layer totals of each repetition span found in `spans`.
pub fn layers_by_repetition(spans: &[Span]) -> Vec<RepLayers> {
    let mut out = Vec::new();
    for rep in spans.iter().filter(|s| s.name == REPETITION) {
        let mut l = RepLayers::default();
        let inside = |s: &&Span| s.t0_ns >= rep.t0_ns && s.t1_ns <= rep.t1_ns;
        for solve in spans.iter().filter(inside).filter(|s| s.name == SOLVE) {
            let children: Vec<&Span> = spans
                .iter()
                .filter(|s| s.parent == solve.id && s.id != solve.id)
                .collect();
            l.solve_s += solve.dur_ns() as f64 * 1e-9;
            l.core_self_s += self_ns(solve, &children) as f64 * 1e-9;
            for c in children {
                let d = c.dur_ns() as f64 * 1e-9;
                if c.name == SPMM {
                    l.spmm_s += d;
                    l.spmm_calls += 1;
                    l.spmm_cols += u64::from(c.cols);
                    l.spmm_matrix_bytes += c.bytes;
                } else if c.name == PRECOND_APPLY {
                    l.precond_apply_s += d;
                    l.precond_apply_calls += 1;
                    l.precond_apply_cols += u64::from(c.cols);
                    if c.bytes > 0 {
                        l.precond_bytes += c.bytes;
                        l.precond_bytes_s += d;
                    }
                }
            }
        }
        out.push(l);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: u32, name: &'static str, layer: Layer, t0: u64, t1: u64) -> Span {
        Span {
            id,
            parent,
            solve_id: 0,
            name,
            layer,
            t0_ns: t0,
            t1_ns: t1,
            cols: 1,
            bytes: 0,
        }
    }

    #[test]
    fn self_time_subtracts_nested_children_once() {
        let p = span(1, 0, SOLVE, Layer::Core, 100, 1100);
        let a = span(2, 1, SPMM, Layer::Sparse, 200, 500);
        let b = span(3, 1, PRECOND_APPLY, Layer::Precond, 500, 900);
        assert_eq!(self_ns(&p, &[&a, &b]), 1000 - 300 - 400);
        assert_eq!(self_ns(&p, &[]), 1000);
    }

    #[test]
    fn self_time_counts_overlapping_threads_by_their_union() {
        // Two threads inside one solve: [200,600) and [400,900) cover 700 ns.
        let p = span(1, 0, SOLVE, Layer::Core, 100, 1100);
        let a = span(2, 1, SPMM, Layer::Sparse, 200, 600);
        let b = span(3, 1, SPMM, Layer::Sparse, 400, 900);
        // A child that sticks out of the parent is clipped to it.
        let c = span(4, 1, SPMM, Layer::Sparse, 1000, 1500);
        assert_eq!(self_ns(&p, &[&a, &b]), 1000 - 700);
        assert_eq!(self_ns(&p, &[&b, &a, &c]), 1000 - 700 - 100);
    }

    #[test]
    fn layers_tile_the_traced_solve_time() {
        let t = Tracer::new();
        let rep = t.open(REPETITION, Layer::Harness);
        let setup = t.open("precond_setup", Layer::Precond);
        t.close(setup);
        for _ in 0..3 {
            let solve = t.open(SOLVE, Layer::Core);
            for k in 0..50 {
                let t0 = t.now_ns();
                std::hint::black_box((0..200 * (k % 3 + 1)).sum::<u64>());
                let t1 = t.now_ns();
                t.leaf(SPMM, Layer::Sparse, 8, 100, t0, t1);
                let t2 = t.now_ns();
                // A leaf recorded by another thread of the same solve.
                std::thread::scope(|s| {
                    s.spawn(|| t.leaf(PRECOND_APPLY, Layer::Precond, 8, 0, t2, t.now_ns()));
                });
            }
            t.close(solve);
        }
        t.close(rep);
        let spans = t.spans();
        let layers = layers_by_repetition(&spans);
        assert_eq!(layers.len(), 1);
        let l = &layers[0];
        assert_eq!((l.spmm_calls, l.precond_apply_calls), (150, 150));
        assert_eq!((l.spmm_cols, l.precond_apply_cols), (1200, 1200));
        // Applies that cannot say what they streamed count for no bytes and no time.
        assert_eq!(
            (l.spmm_matrix_bytes, l.precond_bytes, l.precond_bytes_s),
            (15000, 0, 0.0)
        );
        let tiled = l.spmm_s + l.precond_apply_s + l.core_self_s;
        assert!(
            (tiled - l.solve_s).abs() <= 1e-9 * l.solve_s.max(1e-6),
            "{tiled} vs {}",
            l.solve_s
        );
        assert!(l.core_self_s >= 0.0 && l.solve_s > 0.0);
        // Leaves carry the solve they belong to; the set-up stage carries none.
        let solve_ids: Vec<u32> = spans
            .iter()
            .filter(|s| s.name == SOLVE)
            .map(|s| s.id)
            .collect();
        assert!(spans
            .iter()
            .filter(|s| s.name == SPMM || s.name == PRECOND_APPLY)
            .all(|s| solve_ids.contains(&s.solve_id) && s.parent == s.solve_id));
        assert!(spans
            .iter()
            .filter(|s| s.name == "precond_setup")
            .all(|s| s.solve_id == 0));
    }

    #[test]
    fn spans_are_written_one_json_object_per_line() {
        let spans = [span(7, 3, SPMM, Layer::Sparse, 10, 25)];
        let mut text = Vec::new();
        write_jsonl(&spans, &mut text).unwrap();
        let text = String::from_utf8(text).unwrap();
        assert!(text.ends_with('\n') && text.lines().count() == 1);
        let v = crate::api::Json::parse(text.trim()).unwrap();
        assert_eq!(v.get("id").and_then(|x| x.as_usize()), Some(7));
        assert_eq!(v.get("layer").and_then(|x| x.as_str()), Some("sparse"));
        assert_eq!(v.get("t1_ns").and_then(|x| x.as_usize()), Some(25));
    }
}
