//! Outside-in tracing: an in-memory span recorder plus delegating
//! wrappers around the three trait seams the program exposes —
//! [`qd_nn::Module`], [`qd_net::Transport`] and [`qd_core::Vfs`].
//!
//! Every wrapper forwards each call unchanged to the wrapped value and
//! only observes it (timestamps, counts, byte sizes), so a traced run
//! computes bit-for-bit what an untraced one does; the workloads check
//! that through their fingerprints.

use qd_autograd::{Tape, Var};
use qd_core::{StdFs, StorageError, Vfs};
use qd_net::{Delivery, LoopbackTransport, NetStats, Transport};
use qd_nn::Module;
use qd_tensor::rng::Rng;
use qd_tensor::Tensor;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

/// One closed span. Times are nanoseconds since the recorder's epoch.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    /// Enclosing span (0 at the top level).
    pub parent: u64,
    pub name: &'static str,
    /// The workload request the span belongs to (0 outside requests).
    pub request: u64,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Bytes moved by the call (storage and forward spans), else 0.
    pub bytes: u64,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Per-round exchange timestamps seen by [`TracedTransport`].
#[derive(Debug, Clone, Default)]
pub struct RoundMarks {
    pub start_ns: u64,
    pub end_ns: u64,
    pub participants: usize,
    pub last_download_ns: u64,
    pub first_upload_ns: Option<u64>,
}

#[derive(Debug, Default)]
struct Store {
    spans: Vec<Span>,
    rounds: Vec<RoundMarks>,
    /// Open round: (span id, marks).
    open_round: Option<(u64, RoundMarks)>,
    exchange_calls: u64,
    forward_nodes: u64,
    forward_bytes: u64,
}

/// Collects spans and counters from every thread of the process.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    next_id: AtomicU64,
    request: AtomicU64,
    store: Mutex<Store>,
}

thread_local! {
    /// Open spans on this thread, innermost last.
    static STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
    /// Set on client worker threads at their first forward call; its
    /// drop at thread exit closes the thread's `fed.client` span.
    static CLIENT: RefCell<Option<ClientLife>> = const { RefCell::new(None) };
}

impl Recorder {
    pub fn new() -> Arc<Recorder> {
        Arc::new(Recorder {
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            request: AtomicU64::new(0),
            store: Mutex::new(Store::default()),
        })
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    fn store(&self) -> MutexGuard<'_, Store> {
        self.store.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Tags every span opened from now on with request `id`.
    pub fn set_request(&self, id: u64) {
        self.request.store(id, Ordering::Relaxed);
    }

    /// The innermost open span on this thread, or else the open
    /// federation round (worker threads have no stack of their own).
    fn current_parent(&self) -> u64 {
        let top = STACK.with(|s| s.borrow().last().copied());
        match top {
            Some(id) => id,
            None => self.store().open_round.as_ref().map_or(0, |(id, _)| *id),
        }
    }

    /// Opens a span closed when the guard drops.
    pub fn span(self: &Arc<Self>, name: &'static str) -> SpanGuard {
        let parent = self.current_parent();
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        STACK.with(|s| s.borrow_mut().push(id));
        SpanGuard {
            rec: Arc::clone(self),
            id,
            parent,
            name,
            request: self.request.load(Ordering::Relaxed),
            start_ns: self.now_ns(),
            bytes: 0,
        }
    }

    /// Times `f` as span `name`.
    pub fn time<T>(self: &Arc<Self>, name: &'static str, f: impl FnOnce() -> T) -> T {
        let _guard = self.span(name);
        f()
    }

    fn push(&self, span: Span) {
        self.store().spans.push(span);
    }

    fn begin_round(&self, participants: usize) {
        let now = self.now_ns();
        self.close_round(now);
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let marks = RoundMarks {
            start_ns: now,
            participants,
            ..RoundMarks::default()
        };
        self.store().open_round = Some((id, marks));
    }

    /// Ends the open round (if any) at `now`: a round lasts from its
    /// `begin_round` to the next one or to the phase's `take_stats`, so
    /// it covers aggregation, the guard and the observer as well.
    fn close_round(&self, now: u64) {
        let parent = STACK.with(|s| s.borrow().last().copied()).unwrap_or(0);
        let request = self.request.load(Ordering::Relaxed);
        let mut store = self.store();
        if let Some((id, mut marks)) = store.open_round.take() {
            marks.end_ns = now;
            store.spans.push(Span {
                id,
                parent,
                name: "fed.round",
                request,
                start_ns: marks.start_ns,
                end_ns: now,
                bytes: 0,
            });
            store.rounds.push(marks);
        }
    }

    fn mark_download(&self) {
        let now = self.now_ns();
        let mut store = self.store();
        store.exchange_calls += 1;
        if let Some((_, marks)) = store.open_round.as_mut() {
            marks.last_download_ns = now;
        }
    }

    fn mark_upload(&self) {
        let now = self.now_ns();
        let mut store = self.store();
        store.exchange_calls += 1;
        if let Some((_, marks)) = store.open_round.as_mut() {
            marks.first_upload_ns.get_or_insert(now);
        }
    }

    /// Closes any open round and returns everything recorded.
    pub fn finish(&self) -> Trace {
        self.close_round(self.now_ns());
        let mut store = self.store();
        let mut spans = std::mem::take(&mut store.spans);
        spans.sort_by_key(|s| (s.start_ns, s.id));
        Trace {
            spans,
            rounds: std::mem::take(&mut store.rounds),
            exchange_calls: store.exchange_calls,
            forward_nodes: store.forward_nodes,
            forward_bytes: store.forward_bytes,
        }
    }
}

/// An open span; records itself when dropped.
pub struct SpanGuard {
    rec: Arc<Recorder>,
    id: u64,
    parent: u64,
    name: &'static str,
    request: u64,
    start_ns: u64,
    bytes: u64,
}

impl SpanGuard {
    pub fn add_bytes(&mut self, n: u64) {
        self.bytes += n;
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        STACK.with(|s| {
            let mut s = s.borrow_mut();
            if s.last() == Some(&self.id) {
                s.pop();
            }
        });
        self.rec.push(Span {
            id: self.id,
            parent: self.parent,
            name: self.name,
            request: self.request,
            start_ns: self.start_ns,
            end_ns: self.rec.now_ns(),
            bytes: self.bytes,
        });
    }
}

/// Lifetime of one client worker thread, from its first forward call to
/// thread exit (which follows the client's last local update).
struct ClientLife {
    rec: Arc<Recorder>,
    parent: u64,
    request: u64,
    start_ns: u64,
    id: u64,
}

impl Drop for ClientLife {
    fn drop(&mut self) {
        self.rec.push(Span {
            id: self.id,
            parent: self.parent,
            name: "fed.client",
            request: self.request,
            start_ns: self.start_ns,
            end_ns: self.rec.now_ns(),
            bytes: 0,
        });
    }
}

/// Everything a traced pass recorded.
#[derive(Debug, Default)]
pub struct Trace {
    pub spans: Vec<Span>,
    pub rounds: Vec<RoundMarks>,
    pub exchange_calls: u64,
    pub forward_nodes: u64,
    pub forward_bytes: u64,
}

fn tensor_bytes(t: &Tensor) -> u64 {
    (t.len() * std::mem::size_of::<f32>()) as u64
}

/// Delegating [`Module`]: counts and times every forward pass, the
/// tape nodes it records and the activation bytes it sees.
pub struct TracedModule {
    inner: Arc<dyn Module>,
    rec: Arc<Recorder>,
}

impl TracedModule {
    pub fn wrap(inner: Arc<dyn Module>, rec: &Arc<Recorder>) -> Arc<dyn Module> {
        Arc::new(TracedModule {
            inner,
            rec: Arc::clone(rec),
        })
    }

    /// Opens this thread's `fed.client` span on its first forward call
    /// if the caller is a client worker thread.
    fn note_client_thread(&self) {
        if std::thread::current().name() == Some("main") {
            return;
        }
        CLIENT.with(|c| {
            let mut c = c.borrow_mut();
            if c.is_none() {
                let id = self.rec.next_id.fetch_add(1, Ordering::Relaxed);
                *c = Some(ClientLife {
                    rec: Arc::clone(&self.rec),
                    parent: self.rec.current_parent(),
                    request: self.rec.request.load(Ordering::Relaxed),
                    start_ns: self.rec.now_ns(),
                    id,
                });
                // Forward spans on this thread nest under the client.
                STACK.with(|s| s.borrow_mut().push(id));
            }
        });
    }
}

impl Module for TracedModule {
    fn forward(&self, tape: &mut Tape, params: &[Var], x: Var) -> Var {
        self.note_client_thread();
        let nodes_before = tape.len();
        let mut span = self.rec.span("nn.forward");
        let y = self.inner.forward(tape, params, x);
        let bytes = tensor_bytes(tape.value(x)) + tensor_bytes(tape.value(y));
        span.add_bytes(bytes);
        drop(span);
        let nodes = tape.len().saturating_sub(nodes_before) as u64;
        let mut store = self.rec.store();
        store.forward_nodes += nodes;
        store.forward_bytes += bytes;
        y
    }

    fn param_shapes(&self) -> Vec<Vec<usize>> {
        self.inner.param_shapes()
    }

    fn init(&self, rng: &mut Rng) -> Vec<Tensor> {
        self.inner.init(rng)
    }

    fn param_count(&self) -> usize {
        self.inner.param_count()
    }

    fn num_scalars(&self) -> usize {
        self.inner.num_scalars()
    }
}

/// Delegating [`LoopbackTransport`]: marks round boundaries and the
/// download/upload exchanges of every round.
pub struct TracedTransport {
    inner: LoopbackTransport,
    rec: Arc<Recorder>,
}

impl TracedTransport {
    pub fn boxed(rec: &Arc<Recorder>) -> Box<dyn Transport> {
        Box::new(TracedTransport {
            inner: LoopbackTransport::new(),
            rec: Arc::clone(rec),
        })
    }
}

impl Transport for TracedTransport {
    fn begin_round(&mut self, participants: &[usize]) {
        self.rec.begin_round(participants.len());
        self.inner.begin_round(participants);
    }

    fn download(&mut self, client: usize, params: &[Tensor]) -> Delivery {
        let d = self.inner.download(client, params);
        self.rec.mark_download();
        d
    }

    fn upload(&mut self, client: usize, params: Vec<Tensor>) -> Delivery {
        self.rec.mark_upload();
        self.inner.upload(client, params)
    }

    fn end_round(&mut self) {
        self.inner.end_round();
    }

    fn take_stats(&mut self) -> NetStats {
        self.rec.close_round(self.rec.now_ns());
        self.inner.take_stats()
    }
}

/// Delegating [`StdFs`]: one span per storage call, with its bytes.
#[derive(Debug)]
pub struct TracedFs {
    inner: StdFs,
    rec: Arc<Recorder>,
}

impl TracedFs {
    pub fn shared(rec: &Arc<Recorder>) -> Arc<dyn Vfs> {
        Arc::new(TracedFs {
            inner: StdFs,
            rec: Arc::clone(rec),
        })
    }
}

impl Vfs for TracedFs {
    fn read(&self, path: &Path) -> Result<Vec<u8>, StorageError> {
        let mut span = self.rec.span("vfs.read");
        let out = self.inner.read(path);
        if let Ok(bytes) = &out {
            span.add_bytes(bytes.len() as u64);
        }
        out
    }

    fn write(&self, path: &Path, bytes: &[u8]) -> Result<(), StorageError> {
        let mut span = self.rec.span("vfs.write");
        span.add_bytes(bytes.len() as u64);
        self.inner.write(path, bytes)
    }

    fn append(&self, path: &Path, bytes: &[u8]) -> Result<(), StorageError> {
        let mut span = self.rec.span("vfs.append");
        span.add_bytes(bytes.len() as u64);
        self.inner.append(path, bytes)
    }

    fn fsync(&self, path: &Path) -> Result<(), StorageError> {
        let _span = self.rec.span("vfs.fsync");
        self.inner.fsync(path)
    }

    fn rename(&self, from: &Path, to: &Path) -> Result<(), StorageError> {
        let _span = self.rec.span("vfs.rename");
        self.inner.rename(from, to)
    }

    fn remove(&self, path: &Path) -> Result<(), StorageError> {
        let _span = self.rec.span("vfs.remove");
        self.inner.remove(path)
    }

    fn exists(&self, path: &Path) -> Result<bool, StorageError> {
        let _span = self.rec.span("vfs.exists");
        self.inner.exists(path)
    }

    fn list(&self, dir: &Path) -> Result<Vec<PathBuf>, StorageError> {
        let _span = self.rec.span("vfs.list");
        self.inner.list(dir)
    }
}

/// Per-name totals over a trace: calls, total time, self time (total
/// minus the children recorded on the same thread) and bytes.
#[derive(Debug, Clone, Default)]
pub struct LayerRow {
    pub calls: u64,
    pub total_ns: u64,
    pub self_ns: u64,
    pub bytes: u64,
}

impl Trace {
    /// Spans with `name`.
    pub fn named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Span> + 'a {
        self.spans.iter().filter(move |s| s.name == name)
    }

    pub fn calls(&self, name: &str) -> u64 {
        self.named(name).count() as u64
    }

    pub fn total_ns(&self, name: &str) -> u64 {
        self.named(name).map(Span::ns).sum()
    }

    pub fn bytes(&self, name: &str) -> u64 {
        self.named(name).map(|s| s.bytes).sum()
    }

    /// The self/total table. Client threads run in parallel under one
    /// round, so a round's self time (total minus its children) is
    /// clamped at zero.
    pub fn table(&self) -> BTreeMap<&'static str, LayerRow> {
        let mut child_ns: BTreeMap<u64, u64> = BTreeMap::new();
        for s in &self.spans {
            if s.parent != 0 {
                *child_ns.entry(s.parent).or_default() += s.ns();
            }
        }
        let mut rows: BTreeMap<&'static str, LayerRow> = BTreeMap::new();
        for s in &self.spans {
            let row = rows.entry(s.name).or_default();
            row.calls += 1;
            row.total_ns += s.ns();
            row.self_ns += s
                .ns()
                .saturating_sub(child_ns.get(&s.id).copied().unwrap_or(0));
            row.bytes += s.bytes;
        }
        rows
    }

    /// JSON lines, one span each, in start order.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for s in &self.spans {
            out.push_str(&format!(
                "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"request\":{},\"start_ns\":{},\"end_ns\":{},\"bytes\":{}}}\n",
                s.id, s.parent, s.name, s.request, s.start_ns, s.end_ns, s.bytes
            ));
        }
        out
    }
}
