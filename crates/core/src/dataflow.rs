//! Everything that happens after an LFTA emits, defined once.
//!
//! [`wire`] turns an instantiated [`Graph`] into the run-time dataflow:
//! one ready-queue per HFTA node and per subscription, an [`OutputEdge`]
//! (batcher, plain fan-out, partition routers) behind every producer —
//! the capture point holds its LFTAs' — and a [`NodeRunner`] per node. A runner's [`pump`](NodeRunner::pump) is
//! the whole per-node step — consume a batch, run the operators, feed the
//! output edge, close or quarantine — and [`Collector::drain`] is the
//! same for a subscription. The two schedulers differ only in who calls
//! them: [`crate::manager`] gives every runner a thread that pumps with a
//! blocking `recv`, [`crate::engine`] pumps all of them inline with
//! `try_recv` after each packet that shipped something. The receive
//! closure is a generic parameter, so each scheduler gets its own
//! monomorphic copy of the loop and nothing in it asks who is calling.
//!
//! Fan-in without `select`: every node owns ONE ready-queue; each
//! upstream producer holds a clone of its sender and tags messages with
//! the destination port, so a node multiplexes by tag. End-of-stream is
//! an explicit `Close(port)` message (disconnect only fires when *all*
//! senders drop, which a shared queue can't use per-port). Per-producer
//! FIFO order is preserved — shedding removes items but never reorders
//! survivors — which is all the merge/join watermark logic requires.
//!
//! Transport is batched, in columns: producers accumulate up to
//! [`Gigascope::batch_size`] rows per [`Batcher`] and ship them as one
//! [`ColumnBatch`] per queue message — the only thing that ever crosses
//! a queue. Punctuation, heartbeats, and stream close flush partial
//! batches immediately, so ordering progress is never delayed behind a
//! filling batch (see DESIGN.md on batched transport).
//!
//! Fault containment is in-band: a panicking node is caught at the
//! [`pump`](NodeRunner::pump) boundary, recorded on the [`HealthBoard`],
//! and replaced downstream by a `Fault` marker that quarantines every
//! consumer in turn; a quarantined node keeps consuming and discarding
//! until its ports close, so its producers never wedge on its queue.

use crate::graph::{CaptureFront, Graph, GraphNode};
use crate::health::{FaultReason, HealthBoard, NodeFault};
use crate::manager::SubscriptionTap;
use crate::transport::{self, Admission, Channel};
use crate::Gigascope;
use gs_runtime::batch::{ColBuilder, ColumnBatch};
use gs_runtime::faults::NodeInjector;
use gs_runtime::ops::build::HftaNode;
use gs_runtime::ops::router::KeyRouter;
use gs_runtime::punct::Punct;
use gs_runtime::snapshot::SnapWriter;
use gs_runtime::stats::{Counter, StatSource, StatsRegistry};
use gs_runtime::tuple::{StreamItem, Tuple};
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

/// What a run does with its operators at end of input.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum End {
    /// End of the stream: flush every open window downstream.
    Flush,
    /// End of a chunk: keep the windows open in the live operators.
    Hold,
    /// End of a chunk at a cut: keep them open and seal them into bytes.
    Seal,
}

/// A tagged message on a node's shared ready-queue.
pub(crate) enum Msg {
    /// A columnar (SoA) batch for one input port with its at-most-one
    /// trailing punctuation rider — the batcher flushes on every
    /// punctuation, so a shipped batch never holds more than one, always
    /// last. Batching amortizes the per-message queue cost — mutex,
    /// condvar wakeup, cache traffic — over [`Gigascope::batch_size`]
    /// rows instead of paying it per tuple; at batch size 1 a tuple is a
    /// one-row batch and a punctuation an empty batch with a rider.
    Cols(usize, ColumnBatch, Option<Punct>),
    /// The producer feeding this port is done; no more items will come.
    Close(usize),
    /// The producer feeding this port faulted. The port is closed (no
    /// more items will come, like [`Msg::Close`]) and the receiver's
    /// whole query chain is quarantined, attributing the failure to the
    /// named origin node.
    Fault(usize, NodeFault),
}

/// One consumer endpoint: the consumer's shared queue plus the input
/// port this producer feeds, tagged with the producing stream's
/// processing depth (its level in the query chain) so
/// least-processed-first shedding knows what the messages are worth.
#[derive(Clone)]
struct PortSender {
    tx: transport::Sender<Msg>,
    port: usize,
    depth: u32,
}

impl PortSender {
    fn send_cols(&self, cb: ColumnBatch, punct: Option<Punct>) {
        // Shedding weighs a message by its item count: rows plus rider.
        let weight = cb.n_rows() as u64 + u64::from(punct.is_some());
        self.tx.send(self.depth, weight, Msg::Cols(self.port, cb, punct));
    }

    fn close(&self) {
        // Close markers ride past capacity and policy: shedding one
        // would leave the consumer waiting forever on an open port.
        self.tx.send_control(Msg::Close(self.port));
    }

    fn fault(&self, f: NodeFault) {
        // Fault markers are control traffic for the same reason Close
        // is: dropping one would leave the consumer waiting forever.
        self.tx.send_control(Msg::Fault(self.port, f));
    }
}

/// Counters of one producer edge (the [`Batcher`] in front of a stream's
/// consumers), reported as `edge:<stream>` stats rows. The flush-cause
/// tags say *why* batches shipped: by filling up, or early with no signal
/// attached — ahead of a columnar pass-through, or when the inline
/// scheduler needs the consumers current (`flush_size`); by an
/// ordering token that must not wait (`flush_punct`), by a heartbeat
/// liveness bound (`flush_heartbeat`), or by end-of-stream
/// (`flush_close`).
#[derive(Debug, Default)]
struct EdgeStats {
    batches: Counter,
    items: Counter,
    flush_size: Counter,
    flush_punct: Counter,
    flush_heartbeat: Counter,
    flush_close: Counter,
    /// Flushes that found no consumer endpoint: the buffered items were
    /// discarded, not shipped. They still count toward `items` so the
    /// loss is visible in `GS_STATS` instead of silently vanishing.
    flush_noconsumer: Counter,
}

impl StatSource for EdgeStats {
    fn counters(&self) -> Vec<(&'static str, u64)> {
        vec![
            ("batches", self.batches.get()),
            ("items", self.items.get()),
            ("flush_size", self.flush_size.get()),
            ("flush_punct", self.flush_punct.get()),
            ("flush_heartbeat", self.flush_heartbeat.get()),
            ("flush_close", self.flush_close.get()),
            ("flush_noconsumer", self.flush_noconsumer.get()),
        ]
    }
}

/// Why a batch left the buffer (see [`EdgeStats`]).
#[derive(Clone, Copy)]
enum FlushCause {
    Size,
    Punct,
    Heartbeat,
    Close,
}

/// Per-producer output buffer: transposes row items into a columnar
/// builder and hands back one [`ColumnBatch`] per flush.
///
/// Flush policy (each bounds a different kind of latency):
/// - **size** — the batch reaches its capacity;
/// - **punctuation** — an ordering-update token arrived; flushing
///   immediately (the token rides the batch as its trailing rider) means
///   downstream watermark progress (merge release, agg window close) is
///   never delayed behind a partially-filled batch;
/// - **heartbeat** — a liveness signal bounds downstream latency by the
///   heartbeat interval;
/// - **close** — the stream ends; whatever is buffered goes out before the
///   `Close` marker.
///
/// Fan-out clones at batch granularity: the last consumer takes the
/// batch, each extra consumer costs one batch clone — not one clone per
/// item per consumer.
struct Batcher {
    col: ColBuilder,
    cap: usize,
    stats: Arc<EdgeStats>,
}

impl Batcher {
    fn new(cap: usize) -> Batcher {
        Batcher { col: ColBuilder::new(), cap: cap.max(1), stats: Arc::new(EdgeStats::default()) }
    }

    /// Absorb one produced item; returns the batch to ship when the size
    /// or punctuation rule fires. With `cap == 1` every item ships by
    /// itself, in order.
    fn absorb(&mut self, item: StreamItem) -> Option<(ColumnBatch, Option<Punct>, FlushCause)> {
        match item {
            StreamItem::Tuple(t) => {
                self.col.push_tuple(&t);
                (self.col.len() >= self.cap).then(|| (self.col.finish(), None, FlushCause::Size))
            }
            StreamItem::Punct(p) => Some((self.col.finish(), Some(p), FlushCause::Punct)),
        }
    }

    /// Ship a batch downstream (zero-copy on the last consumer). An
    /// empty batch still ships when it carries a rider — ordering tokens
    /// are never dropped. Callers must flush any builder content first
    /// so per-producer FIFO order holds.
    fn ship(
        &mut self,
        cb: ColumnBatch,
        punct: Option<Punct>,
        senders: &[PortSender],
        cause: FlushCause,
    ) {
        if cb.is_empty() && punct.is_none() {
            return;
        }
        let n = cb.n_rows() as u64 + u64::from(punct.is_some());
        self.stats.items.add(n);
        if senders.is_empty() {
            // Nobody subscribed to or consumes this stream: the batch is
            // dropped here, but the edge accounts it (`items` +
            // `flush_noconsumer`) so the loss shows up in GS_STATS.
            self.stats.flush_noconsumer.inc();
            return;
        }
        self.stats.batches.inc();
        match cause {
            FlushCause::Size => self.stats.flush_size.inc(),
            FlushCause::Punct => self.stats.flush_punct.inc(),
            FlushCause::Heartbeat => self.stats.flush_heartbeat.inc(),
            FlushCause::Close => self.stats.flush_close.inc(),
        }
        for (i, tx) in senders.iter().enumerate() {
            if i + 1 == senders.len() {
                tx.send_cols(cb, punct);
                break;
            }
            tx.send_cols(cb.clone(), punct.clone());
        }
    }
}

/// Partitioning router edge: splits one produced stream across the K
/// partition instances of a rewritten HFTA. Rows are hashed on the
/// group key and buffered in the partition's own input edge (registered
/// as `edge:<partition>:in`), so routed transport batches exactly like
/// any other edge; punctuation — like heartbeat flushes, close and fault
/// — is broadcast to every partition, since each shard's watermark must
/// keep advancing for the reunifying merge to release output.
struct RouterEdge {
    router: KeyRouter,
    /// One plain (router-free) edge into each partition's queue, in
    /// partition order.
    parts: Vec<OutputEdge>,
    /// Reused per-row partition buffer for the scatter.
    scratch: Vec<u32>,
}

impl RouterEdge {
    /// Scatter one batch: partitions for every live row are computed in
    /// one vectorized pass straight off the columns, then each row is
    /// copied (typed) into its partition's builder. The punctuation
    /// rider broadcasts to every partition, flushing each. Returns
    /// whether a batch left a partition's edge.
    fn scatter(&mut self, cb: &ColumnBatch, punct: Option<Punct>) -> bool {
        let mut shipped = false;
        let mut parts = std::mem::take(&mut self.scratch);
        self.router.route_batch(cb, &mut parts);
        for (row, &k) in parts.iter().enumerate() {
            let part = &mut self.parts[k as usize];
            part.batcher.col.push_row(cb, row);
            if part.batcher.col.len() >= part.batcher.cap {
                shipped |= part.flush(FlushCause::Size, None);
            }
        }
        self.scratch = parts;
        if let Some(p) = punct {
            for part in &mut self.parts {
                shipped |= part.flush(FlushCause::Punct, Some(p.clone()));
            }
        }
        shipped
    }
}

/// Everything one producer's output feeds: the plain fan-out to ordinary
/// consumers plus any partitioning routers installed on the stream. One
/// batcher accumulates for both; each flushed batch is scattered through
/// the routers and shipped to the plain consumers.
pub(crate) struct OutputEdge {
    batcher: Batcher,
    senders: Vec<PortSender>,
    routers: Vec<RouterEdge>,
}

impl OutputEdge {
    /// Absorb produced items; returns whether a batch left the edge (the
    /// inline scheduler pumps only after a packet that shipped).
    pub fn extend(&mut self, items: impl Iterator<Item = StreamItem>) -> bool {
        let mut shipped = false;
        for item in items {
            if let Some((cb, punct, cause)) = self.batcher.absorb(item) {
                shipped |= self.deliver(cb, punct, cause);
            }
        }
        shipped
    }

    /// Absorb a batch that is still columnar at the top of a node's
    /// chain: it goes out as is (zero-copy to the last plain consumer)
    /// after any transposed row content flushes, keeping FIFO order.
    fn extend_cols(&mut self, cb: ColumnBatch, punct: Option<Punct>) {
        self.flush(FlushCause::Size, None);
        self.deliver(cb, punct, FlushCause::Size);
    }

    /// Ship whatever the builder holds with `punct` as its trailing
    /// rider.
    fn flush(&mut self, cause: FlushCause, punct: Option<Punct>) -> bool {
        let cb = self.batcher.col.finish();
        self.deliver(cb, punct, cause)
    }

    /// The input edges of every partition this stream is routed to.
    fn parts(&mut self) -> impl Iterator<Item = &mut OutputEdge> {
        self.routers.iter_mut().flat_map(|r| &mut r.parts)
    }

    /// Returns whether a message entered a consumer's queue.
    fn deliver(&mut self, cb: ColumnBatch, punct: Option<Punct>, cause: FlushCause) -> bool {
        if cb.is_empty() && punct.is_none() {
            return false;
        }
        let mut shipped = false;
        for r in &mut self.routers {
            shipped |= r.scatter(&cb, punct.clone());
        }
        // A router-only stream has no plain edge to account: its whole
        // output must not read as `flush_noconsumer` drops.
        if self.senders.is_empty() && !self.routers.is_empty() {
            return shipped;
        }
        self.batcher.ship(cb, punct, &self.senders, cause);
        shipped | !self.senders.is_empty()
    }

    /// Ship the partial batch here and in every routed partition.
    fn flush_through(&mut self, cause: FlushCause) -> bool {
        let mut shipped = self.flush(cause, None);
        for part in self.parts() {
            shipped |= part.flush_through(cause);
        }
        shipped
    }

    /// Ship a partial batch on a heartbeat: a liveness signal, so
    /// downstream latency is bounded by the heartbeat interval.
    pub fn flush_heartbeat(&mut self) {
        self.flush_through(FlushCause::Heartbeat);
    }

    /// Ship a partial batch because the scheduler must observe its
    /// consumers now (the on-demand heartbeat trigger); returns whether
    /// a batch left the edge. Accounted like the other early flush that
    /// is no ordering or liveness signal, [`extend_cols`](Self::extend_cols)'s.
    pub fn flush_now(&mut self) -> bool {
        self.flush_through(FlushCause::Size)
    }

    /// Flush the tail and close every consumer port and routed
    /// partition.
    pub fn close(&mut self) {
        self.flush(FlushCause::Close, None);
        for tx in &self.senders {
            tx.close();
        }
        for part in self.parts() {
            part.close();
        }
    }

    /// Quarantine this producer's output: discard whatever sits in the
    /// batch buffers (a faulted node's partial output may be mid-fault
    /// garbage) and replace the Close handshake with an in-band fault
    /// marker on every consumer port and every routed partition.
    fn fault(&mut self, f: &NodeFault) {
        let _ = self.batcher.col.finish();
        for tx in &self.senders {
            tx.fault(f.clone());
        }
        for part in self.parts() {
            part.fault(f);
        }
    }
}

/// One HFTA node ready to be scheduled: its operators, armed fault
/// injector, output edge, and the state of its input ports.
pub(crate) struct NodeRunner {
    name: String,
    node: HftaNode,
    injector: Option<NodeInjector>,
    edge: OutputEdge,
    /// Port state lives outside the containment boundary, so the
    /// post-fault discard loop knows which ports are still open.
    open: Vec<bool>,
    open_count: usize,
    /// Quarantined — by an upstream `Fault`, or by this node's own panic
    /// (then `node` is mid-panic state and is never touched again).
    failed: bool,
    out: Vec<StreamItem>,
    board: Arc<HealthBoard>,
    stats_enabled: bool,
    end: End,
    /// The sealed state, when `end` is [`End::Seal`] and the node
    /// reached it healthy.
    snapshot: Option<Vec<u8>>,
}

impl NodeRunner {
    /// The node's output stream name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The operators, for end-of-run diagnostics.
    pub fn node(&self) -> &HftaNode {
        &self.node
    }

    /// Every input port has closed: the node finished (or was
    /// quarantined) and will consume nothing more.
    pub fn done(&self) -> bool {
        self.open_count == 0
    }

    /// Ship whatever this node's output edge is holding back (see
    /// [`OutputEdge::flush_now`]).
    pub fn flush_output(&mut self) {
        self.edge.flush_now();
    }

    /// The operators, still holding their open windows, with the state
    /// sealed at end of input when the run sealed it (held runs only; a
    /// faulted node has neither — its state is mid-panic garbage, and
    /// keeping it in either form would resurrect the fault).
    pub fn into_capture(self) -> Option<(Option<Vec<u8>>, HftaNode)> {
        (!self.failed && self.end != End::Flush).then_some((self.snapshot, self.node))
    }

    /// Consume messages until `recv` runs dry or the last port closes,
    /// inside the containment boundary: a panic (injected or organic)
    /// quarantines this node's query instead of unwinding into the
    /// scheduler, and the node goes on discarding its input.
    pub fn pump(&mut self, mut recv: impl FnMut() -> Option<Msg>) {
        if let Err(payload) = catch_unwind(AssertUnwindSafe(|| self.consume(&mut recv))) {
            self.board.stats.faults_contained.inc();
            let reason = FaultReason::Panic(panic_message(payload.as_ref()));
            self.board.record(&self.name, reason.clone());
            self.edge.fault(&NodeFault { node: self.name.clone(), reason });
            self.failed = true;
            self.consume(&mut recv);
        }
    }

    /// End every still-open port as if its producer had closed it: the
    /// queue ended without a `Close` on every port (a producer died
    /// outside containment, or the watchdog force-closed the queue).
    pub fn hang_up(&mut self) {
        let mut ports = 0..self.open.len();
        self.pump(|| ports.next().map(Msg::Close));
    }

    fn shut(&mut self, port: usize) -> bool {
        let was_open = std::mem::take(&mut self.open[port]);
        self.open_count -= usize::from(was_open);
        was_open
    }

    fn consume(&mut self, mut recv: impl FnMut() -> Option<Msg>) {
        if self.done() {
            return;
        }
        while !self.failed && self.open_count > 0 {
            let Some(msg) = recv() else { return };
            match msg {
                Msg::Cols(p, cb, punct) => {
                    self.out.clear();
                    if let Some(inj) = self.injector.as_mut() {
                        // Fault injection hooks the row stream: rows
                        // materialize here, inside the boundary, so an
                        // injected panic exercises the real containment
                        // path.
                        let mut items = cb.into_items(punct);
                        inj.on_batch(&mut items);
                        self.node.push_batch(p, items, &mut self.out);
                        self.edge.extend(self.out.drain(..));
                    } else if let Some((cb, rider)) =
                        self.node.push_cols(p, cb, punct, &mut self.out)
                    {
                        self.edge.extend_cols(cb, rider);
                    } else {
                        self.edge.extend(self.out.drain(..));
                    }
                    if self.stats_enabled {
                        // Per-message publish keeps registry snapshots at
                        // most one batch stale.
                        self.node.publish_stats();
                    }
                }
                Msg::Close(p) => {
                    if self.shut(p) && self.end == End::Flush {
                        self.out.clear();
                        self.node.finish_input(p, &mut self.out);
                        self.edge.extend(self.out.drain(..));
                    }
                }
                Msg::Fault(p, f) => {
                    // An upstream chain member died: this node's query is
                    // collateral (a no-op on the board if the root cause
                    // already named it). The marker closes the port and
                    // goes on downstream in place of our own Close.
                    self.shut(p);
                    self.board.record(&self.name, FaultReason::Upstream(f.node.clone()));
                    self.edge.fault(&f);
                    self.failed = true;
                    self.node.publish_stats();
                }
            }
        }
        if !self.failed {
            match self.end {
                End::Seal => {
                    let mut w = SnapWriter::new();
                    self.node.snapshot_state(&mut w);
                    self.snapshot = Some(w.seal());
                }
                End::Hold => {}
                End::Flush => {
                    self.out.clear();
                    self.node.finish(&mut self.out);
                    self.edge.extend(self.out.drain(..));
                }
            }
            // Flush the tail batch, close every consumer port and routed
            // partition, and publish so the post-run snapshot is exact.
            self.edge.close();
            self.node.publish_stats();
        }
        // Quarantined: keep consuming (and discarding) until every port
        // closes, or upstream producers under `Admission::Block` would
        // wedge forever on the abandoned queue.
        while self.open_count > 0 {
            match recv() {
                Some(Msg::Close(p) | Msg::Fault(p, _)) => {
                    self.shut(p);
                }
                Some(Msg::Cols(..)) => {}
                None => return,
            }
        }
    }
}

/// Best-effort text of a caught panic payload (`panic!` with a string
/// literal or a formatted message covers everything we raise).
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&'static str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_string()
    }
}

/// The consumer end of one subscription: materializes rows into the
/// stream's bucket and shows each arrival to the live tap.
pub(crate) struct Collector {
    /// The subscribed stream.
    pub name: String,
    /// Everything collected so far, in stream order.
    pub bucket: Vec<Tuple>,
    tap: Option<SubscriptionTap>,
    board: Arc<HealthBoard>,
    done: bool,
}

impl Collector {
    /// Drain messages until `recv` runs dry or the stream ends.
    pub fn drain(&mut self, mut recv: impl FnMut() -> Option<Msg>) {
        while !self.done {
            let Some(msg) = recv() else { return };
            let start = self.bucket.len();
            match msg {
                Msg::Cols(_, cb, _) => {
                    self.bucket.extend((0..cb.n_rows()).map(|r| cb.row_tuple(r)));
                }
                Msg::Close(_) => self.done = true,
                Msg::Fault(_, f) => {
                    // The producing chain faulted: keep the clean prefix
                    // collected so far and report the root.
                    self.board.record(&self.name, FaultReason::Upstream(f.node));
                    self.done = true;
                }
            }
            if self.bucket.len() > start {
                if let Some(tap) = &self.tap {
                    tap(&self.bucket[start..]);
                }
            }
        }
    }
}

/// A graph wired for execution. Every runner and collector comes with
/// the receiving end of its queue; what calls `pump`/`drain` on them,
/// and with which receive, is the scheduler's business.
pub(crate) struct Dataflow {
    /// The capture point, holding the edge behind every LFTA and behind
    /// the `GS_STATS` stream it produces.
    pub front: CaptureFront,
    /// Topological (submission) order.
    pub runners: Vec<(NodeRunner, transport::Receiver<Msg>)>,
    pub collectors: Vec<(Collector, transport::Receiver<Msg>)>,
    /// Every queue by consumer name, for liveness supervision.
    pub queues: Vec<(String, Arc<Channel<Msg>>)>,
    pub registry: Arc<StatsRegistry>,
    pub board: Arc<HealthBoard>,
}

/// Wire an instantiated graph: one queue of `capacity` messages under
/// `admission` per node and per subscription, an output edge behind
/// every producer, router members, `edge:*`/`queue:*`/`hfta:*` stats
/// registration, fault-injector arming, and the graph's restore notes.
/// `end` says what nodes do at end of input; `taps` are the live
/// subscription observers.
pub(crate) fn wire(
    gs: &Gigascope,
    graph: Graph,
    subscriptions: &[&str],
    capacity: usize,
    admission: Admission,
    end: End,
    taps: &[(String, SubscriptionTap)],
) -> Dataflow {
    let Graph { lftas, nodes, routers, restore_notes, .. } = graph;

    // Processing depth per stream, for least-processed-first shedding:
    // LFTA outputs are level 0 (barely processed), each node's output is
    // one past its deepest input. Streams with no known producer (the
    // built-in GS_STATS monitoring stream) count as level 0.
    let mut levels: HashMap<&str, u32> = HashMap::new();
    for spec in &nodes {
        let deepest = spec.node.inputs.iter().filter_map(|i| levels.get(i.as_str())).max();
        levels.insert(&spec.name, 1 + deepest.copied().unwrap_or(0));
    }
    let depth_of = |stream: &str| levels.get(stream).copied().unwrap_or(0);

    let registry = Arc::new(StatsRegistry::new());
    // The shared health board every containment decision lands on. The
    // `faults` stats node only registers when fault injection or the
    // watchdog is configured, so a default run's GS_STATS row set (and
    // the stats-overhead gate) is unchanged.
    let board = Arc::new(HealthBoard::new());
    for (name, msg) in restore_notes {
        board.note(&name, msg);
    }
    if gs.faults.is_some() || gs.watchdog.is_some() {
        registry.register("faults".to_string(), board.stats.clone());
    }

    let mut queues = Vec::new();
    let mut queue = |consumer: &str, stats_node: String| {
        let (tx, rx, chan) = transport::channel::<Msg>(capacity, admission);
        registry.register(stats_node, chan.clone());
        queues.push((consumer.to_string(), chan));
        (tx, rx)
    };
    // Consumer endpoints per stream name (fan-out to every consumer).
    let mut producers: HashMap<&str, Vec<PortSender>> = HashMap::new();
    // Per router group: its partitions' queue endpoints, in order.
    let mut members: Vec<Vec<(&str, PortSender)>> = routers.iter().map(|_| Vec::new()).collect();
    // One shared ready-queue per node; every input port sends into it.
    let mut node_rx = Vec::new();
    for spec in &nodes {
        let (tx, rx) = queue(&spec.name, format!("queue:{}", spec.name));
        node_rx.push(rx);
        let inputs = &spec.node.inputs;
        if let Some(g) = spec.routed {
            let endpoint = PortSender { tx, port: 0, depth: depth_of(&inputs[0]) };
            members[g].push((&spec.name, endpoint));
        } else {
            for (port, input) in inputs.iter().enumerate() {
                let endpoint = PortSender { tx: tx.clone(), port, depth: depth_of(input) };
                producers.entry(input).or_default().push(endpoint);
            }
        }
    }
    // Subscription collectors (single-port queues).
    let collectors = subscriptions
        .iter()
        .map(|&name| {
            let (tx, rx) = queue(name, format!("queue:sub:{name}"));
            let endpoint = PortSender { tx, port: 0, depth: depth_of(name) };
            producers.entry(name).or_default().push(endpoint);
            let collector = Collector {
                name: name.to_string(),
                bucket: Vec::new(),
                tap: taps.iter().find(|(n, _)| n == name).map(|(_, t)| t.clone()),
                board: board.clone(),
                done: false,
            };
            (collector, rx)
        })
        .collect();

    // Partitioning router edges, keyed by the stream they split. Each
    // partition's input-side batcher registers as `edge:<partition>:in`
    // so routed transport is accounted per shard.
    let mut router_edges: HashMap<String, Vec<RouterEdge>> = HashMap::new();
    for (group, members) in routers.into_iter().zip(members) {
        let parts = members
            .into_iter()
            .map(|(pname, endpoint)| {
                let batcher = Batcher::new(gs.batch_size);
                registry.register(format!("edge:{pname}:in"), batcher.stats.clone());
                OutputEdge { batcher, senders: vec![endpoint], routers: Vec::new() }
            })
            .collect();
        router_edges.entry(group.input).or_default().push(RouterEdge {
            router: group.router,
            parts,
            scratch: Vec::new(),
        });
    }
    // The edge behind the producer of `stream`, registered as
    // `edge:<stream>`: its plain consumers plus the routers splitting it.
    let mut edge = |stream: &str| {
        let batcher = Batcher::new(gs.batch_size);
        registry.register(format!("edge:{stream}"), batcher.stats.clone());
        OutputEdge {
            batcher,
            senders: producers.get(stream).cloned().unwrap_or_default(),
            routers: router_edges.remove(stream).unwrap_or_default(),
        }
    };
    let lfta_edges = lftas.iter().map(|(l, _)| edge(&l.name)).collect();
    let node_edges: Vec<OutputEdge> = nodes.iter().map(|spec| edge(&spec.name)).collect();
    debug_assert!(router_edges.is_empty(), "every routed stream has a producer");
    // The monitoring edge has no size bound, so a round ships as one
    // batch when its trailing punctuation arrives, and registers no
    // `edge:` stats node.
    let gs_stats_edge = OutputEdge {
        batcher: Batcher::new(usize::MAX),
        senders: producers.remove("GS_STATS").unwrap_or_default(),
        routers: Vec::new(),
    };
    // `producers` ends here, so each edge holds the only senders into
    // its consumers' queues.

    let runners = nodes
        .into_iter()
        .zip(node_edges)
        .zip(node_rx)
        .map(|((GraphNode { name, node, .. }, edge), rx)| {
            node.register_stats(&registry, &name);
            let n_ports = node.inputs.len();
            let runner = NodeRunner {
                injector: gs.faults.as_ref().and_then(|p| p.armed(&name, &board.stats)),
                name,
                node,
                edge,
                open: vec![true; n_ports],
                open_count: n_ports,
                failed: false,
                out: Vec::new(),
                board: board.clone(),
                stats_enabled: gs.stats_enabled,
                end,
                snapshot: None,
            };
            (runner, rx)
        })
        .collect();

    let stats_wanted = gs.stats_enabled && !gs_stats_edge.senders.is_empty();
    let front = CaptureFront::new(
        lftas,
        lfta_edges,
        gs_stats_edge,
        stats_wanted,
        gs.heartbeat,
        registry.clone(),
    );
    Dataflow { front, runners, collectors, queues, registry, board }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::manager::CHANNEL_CAPACITY;

    fn tuple_item(v: u64) -> StreamItem {
        StreamItem::Tuple(Tuple::new(vec![gs_runtime::value::Value::UInt(v)]))
    }

    fn punct_item(v: u64) -> StreamItem {
        StreamItem::Punct(gs_runtime::punct::Punct::new(0, gs_runtime::value::Value::UInt(v)))
    }

    /// A plain (router-free) output edge into one fresh queue on `port`.
    fn test_edge(cap: usize, port: usize) -> (OutputEdge, transport::Receiver<Msg>) {
        let (tx, rx, _) = transport::channel::<Msg>(CHANNEL_CAPACITY, Admission::Block);
        let senders = vec![PortSender { tx, port, depth: 0 }];
        (OutputEdge { batcher: Batcher::new(cap), senders, routers: Vec::new() }, rx)
    }

    /// `(port, rows, has rider)` of the next queued message, if it is a
    /// batch.
    fn next_batch(rx: &transport::Receiver<Msg>) -> Option<(usize, Vec<Tuple>, bool)> {
        match rx.try_recv()? {
            Msg::Cols(p, cb, rider) => {
                Some((p, (0..cb.n_rows()).map(|r| cb.row_tuple(r)).collect(), rider.is_some()))
            }
            _ => None,
        }
    }

    /// Regression: punctuation must never wait for a batch to fill. A
    /// partially-filled batch flushes the moment an ordering token is
    /// appended — the flush bound for watermark progress is zero items.
    #[test]
    fn batcher_flushes_partial_batch_on_punct() {
        let (mut e, rx) = test_edge(256, 3);
        e.extend((0..3).map(tuple_item));
        assert!(rx.try_recv().is_none(), "3 tuples must sit in the 256-batch");
        e.extend(std::iter::once(punct_item(9)));
        let (port, rows, rider) = next_batch(&rx).expect("an immediate batch");
        assert_eq!((port, rows.len()), (3, 3));
        assert!(rider, "the punct ships WITH the buffered tuples, as their rider");
        assert!(rx.try_recv().is_none());
        let stats = &e.batcher.stats;
        assert_eq!(stats.flush_punct.get(), 1, "the flush is tagged with its cause");
        assert_eq!(stats.flush_size.get(), 0);
        assert_eq!(stats.items.get(), 4);
    }

    #[test]
    fn batcher_flushes_on_size_and_close() {
        let (mut e, rx) = test_edge(4, 0);
        e.extend((0..9).map(tuple_item));
        let mut sizes = Vec::new();
        while let Some((_, rows, _)) = next_batch(&rx) {
            sizes.push(rows.len());
        }
        assert_eq!(sizes, vec![4, 4], "full batches ship, the 9th tuple waits");
        e.close();
        assert!(matches!(next_batch(&rx), Some((_, ref rows, false)) if rows.len() == 1));
        assert!(matches!(rx.try_recv(), Some(Msg::Close(0))));
        let stats = &e.batcher.stats;
        assert_eq!(stats.flush_size.get(), 2);
        assert_eq!(stats.flush_close.get(), 1);
        assert_eq!(stats.batches.get(), 3);
        assert_eq!(stats.items.get(), 9, "no tuple lost or double-counted across flushes");
    }

    /// `batch_size == 1` is item-at-a-time transport: one message per
    /// item, in order — a tuple as a one-row batch, a punctuation as an
    /// empty batch carrying the rider.
    #[test]
    fn batcher_size_one_is_item_at_a_time() {
        let (mut e, rx) = test_edge(1, 0);
        e.extend([tuple_item(1), punct_item(1), tuple_item(2)].into_iter());
        let (_, rows, rider) = next_batch(&rx).expect("first tuple");
        assert_eq!((rows[0].get(0).as_uint(), rows.len(), rider), (Some(1), 1, false));
        let (_, rows, rider) = next_batch(&rx).expect("the punctuation");
        assert!(rows.is_empty() && rider, "a punct alone is an empty batch plus rider");
        let (_, rows, rider) = next_batch(&rx).expect("second tuple");
        assert_eq!((rows[0].get(0).as_uint(), rows.len(), rider), (Some(2), 1, false));
        assert!(rx.try_recv().is_none());
    }

    /// Regression: a flush with no consumer endpoints used to clear the
    /// buffer with zero counter movement, so the dropped items were
    /// invisible to GS_STATS. They now count as `items` under a
    /// `flush_noconsumer` cause (and never as shipped `batches`).
    #[test]
    fn batcher_accounts_flushes_with_no_consumer() {
        let (mut e, _) = test_edge(4, 0);
        e.senders.clear();
        e.extend((0..9).map(tuple_item));
        e.close();
        let stats = &e.batcher.stats;
        assert_eq!(stats.items.get(), 9, "every dropped item is accounted");
        assert_eq!(stats.flush_noconsumer.get(), 3, "two size flushes plus the close tail");
        assert_eq!(stats.batches.get(), 0, "nothing was actually shipped");
        assert_eq!(stats.flush_size.get(), 0);
        assert_eq!(stats.flush_close.get(), 0);
    }

    /// Fan-out clones per batch, not per item: both consumers see the
    /// identical batch.
    #[test]
    fn batcher_fan_out_delivers_full_batch_to_every_consumer() {
        let (mut e, rx_a) = test_edge(3, 0);
        let (other, rx_b) = test_edge(3, 1);
        e.senders.extend(other.senders);
        e.extend((0..3).map(tuple_item));
        for rx in [&rx_a, &rx_b] {
            let (_, rows, _) = next_batch(rx).expect("both consumers must receive the batch");
            assert_eq!(rows.len(), 3);
        }
        assert_eq!(e.batcher.stats.batches.get(), 1, "one edge batch, not one per consumer");
    }
}
