//! The stream manager: the deployment (threaded) configuration.
//!
//! "The central component of Gigascope is a stream manager which tracks
//! the query nodes that can be activated. Query nodes ... are processes.
//! When they are started, they register themselves with the registry of
//! the stream manager. When a user application or query node needs to
//! subscribe to the output of a query, it submits the query name to the
//! registry and receives a query handle in return." (paper §3)
//!
//! Here query nodes are threads and the shared-memory channels are the
//! bounded, shed-aware queues of [`crate::transport`]. LFTAs run inline
//! in the capture thread, exactly as the paper links them into the run
//! time system; each HFTA runs on its own thread. This is the
//! configuration the deployment-throughput experiment (E2) measures; the
//! deterministic single-threaded engine is [`crate::engine`].
//!
//! Fan-in without `select`: every node owns ONE bounded ready-queue; each
//! upstream producer holds a clone of its sender and tags messages with
//! the destination port, so a node just blocks on `recv()` and
//! multiplexes by tag. End-of-stream is an explicit `Close(port)` message
//! (disconnect only fires when *all* senders drop, which a shared queue
//! can't use per-port). Per-producer FIFO order is preserved — shedding
//! removes items but never reorders survivors — which is all the
//! merge/join watermark logic requires.
//!
//! Transport is batched, in columns: producers accumulate up to
//! [`Gigascope::batch_size`] rows per [`Batcher`] and ship them as one
//! [`ColumnBatch`] per queue message — the only thing that ever crosses
//! a queue — amortizing the mutex/condvar cost of the bounded channel
//! over the whole run. Punctuation, heartbeats, and stream close flush
//! partial batches immediately, so ordering progress is never delayed
//! behind a filling batch (see DESIGN.md on batched transport).
//!
//! Building the graph and the capture-point loop body are shared with
//! the synchronous engine ([`crate::graph`]); this module owns what is
//! particular to the deployment configuration: batchers, queues,
//! threads, and the watchdog.
//!
//! Self-monitoring (paper §4): every LFTA, operator, edge batcher, and
//! queue registers its counters with a [`StatsRegistry`]; on each
//! heartbeat round the capture thread snapshots the registry and emits
//! the rows on the built-in `GS_STATS` stream, so ordinary GSQL queries
//! observe the system's own behavior — including what overload shedding
//! ([`Gigascope::shedding`]) drops when a consumer stalls.

use crate::health::{FaultReason, HealthBoard, NodeFault, RunHealth};
use crate::transport::{self, Admission, Channel};
use crate::watchdog::{Watchdog, WatchdogStats};
use crate::graph::{self, CaptureFront, Graph, GraphNode};
use crate::{Error, Gigascope};
use gs_packet::CapPacket;
use gs_runtime::batch::{ColBuilder, ColumnBatch};
use gs_runtime::ops::router::KeyRouter;
use gs_runtime::punct::{HeartbeatMode, Punct};
use gs_runtime::snapshot::SnapWriter;
use gs_runtime::stats::{Counter, StatRow, StatSource, StatsRegistry};
use gs_runtime::tuple::{StreamItem, Tuple};
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread;

/// Ready-queue capacity per query node ("communication through shared
/// memory"); a bounded ring like the paper's buffers.
pub const CHANNEL_CAPACITY: usize = 8_192;

/// A tagged message on a node's shared ready-queue.
enum Msg {
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
/// tags say *why* batches shipped: by filling up (`flush_size`), by an
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

    /// Append one live row of another batch (the routed scatter path),
    /// flushing on size.
    fn push_row_from(&mut self, src: &ColumnBatch, row: usize, senders: &[PortSender]) {
        self.col.push_row(src, row);
        if self.col.len() >= self.cap {
            self.flush(senders, FlushCause::Size, None);
        }
    }

    /// Ship whatever the builder holds with `punct` as its trailing
    /// rider.
    fn flush(&mut self, senders: &[PortSender], cause: FlushCause, punct: Option<Punct>) {
        let cb = self.col.finish();
        self.ship(cb, punct, senders, cause);
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

    /// Discard buffered content without shipping (quarantine path).
    fn clear(&mut self) {
        let _ = self.col.finish();
    }
}

/// Partitioning router edge: splits one produced stream across the K
/// partition instances of a rewritten HFTA. Rows are hashed on the
/// group key and buffered in a per-partition [`Batcher`] (registered as
/// `edge:<partition>:in`), so routed transport batches exactly like any
/// other edge; punctuation — and [`close`](RouterEdge::close) — is
/// broadcast to every partition, since each shard's watermark must keep
/// advancing for the reunifying merge to release output.
struct RouterEdge {
    router: KeyRouter,
    /// One `(input batcher, queue endpoint)` per partition, in order.
    parts: Vec<(Batcher, PortSender)>,
    /// Reused per-row partition buffer for the scatter.
    scratch: Vec<u32>,
}

impl RouterEdge {
    /// Scatter one batch: partitions for every live row are computed in
    /// one vectorized pass straight off the columns, then each row is
    /// copied (typed) into its partition's builder. The punctuation
    /// rider broadcasts to every partition, flushing each.
    fn scatter(&mut self, cb: &ColumnBatch, punct: Option<Punct>) {
        let mut parts = std::mem::take(&mut self.scratch);
        self.router.route_batch(cb, &mut parts);
        for (row, &k) in parts.iter().enumerate() {
            let (b, s) = &mut self.parts[k as usize];
            b.push_row_from(cb, row, std::slice::from_ref(s));
        }
        self.scratch = parts;
        if let Some(p) = punct {
            for (b, s) in &mut self.parts {
                b.flush(std::slice::from_ref(s), FlushCause::Punct, Some(p.clone()));
            }
        }
    }

    fn flush_heartbeat(&mut self) {
        for (b, s) in &mut self.parts {
            b.flush(std::slice::from_ref(s), FlushCause::Heartbeat, None);
        }
    }

    fn close(&mut self) {
        for (b, s) in &mut self.parts {
            b.flush(std::slice::from_ref(s), FlushCause::Close, None);
            s.close();
        }
    }

    fn fault(&mut self, f: &NodeFault) {
        for (b, s) in &mut self.parts {
            b.clear();
            s.fault(f.clone());
        }
    }
}

/// Everything one producer's output feeds: the plain fan-out to ordinary
/// consumers plus any partitioning routers installed on the stream. One
/// batcher accumulates for both; each flushed batch is scattered through
/// the routers and shipped to the plain consumers.
struct OutputEdge {
    batcher: Batcher,
    senders: Vec<PortSender>,
    routers: Vec<RouterEdge>,
}

impl OutputEdge {
    fn extend(&mut self, items: impl Iterator<Item = StreamItem>) {
        for item in items {
            if let Some((cb, punct, cause)) = self.batcher.absorb(item) {
                self.deliver(cb, punct, cause);
            }
        }
    }

    /// Absorb a batch that is still columnar at the top of a node's
    /// chain: it goes out as is (zero-copy to the last plain consumer)
    /// after any transposed row content flushes, keeping FIFO order.
    fn extend_cols(&mut self, cb: ColumnBatch, punct: Option<Punct>) {
        self.flush(FlushCause::Size);
        self.deliver(cb, punct, FlushCause::Size);
    }

    fn flush(&mut self, cause: FlushCause) {
        let cb = self.batcher.col.finish();
        self.deliver(cb, None, cause);
    }

    fn deliver(&mut self, cb: ColumnBatch, punct: Option<Punct>, cause: FlushCause) {
        if cb.is_empty() && punct.is_none() {
            return;
        }
        for r in &mut self.routers {
            r.scatter(&cb, punct.clone());
        }
        // A router-only stream has no plain edge to account: its whole
        // output must not read as `flush_noconsumer` drops.
        if self.senders.is_empty() && !self.routers.is_empty() {
            return;
        }
        self.batcher.ship(cb, punct, &self.senders, cause);
    }

    /// Ship a partial batch on a heartbeat: a liveness signal, so
    /// downstream latency is bounded by the heartbeat interval.
    fn flush_heartbeat(&mut self) {
        self.flush(FlushCause::Heartbeat);
        for r in &mut self.routers {
            r.flush_heartbeat();
        }
    }

    /// Flush the tail and close every consumer port and routed
    /// partition.
    fn close(&mut self) {
        self.flush(FlushCause::Close);
        for tx in &self.senders {
            tx.close();
        }
        for r in &mut self.routers {
            r.close();
        }
    }

    /// Quarantine this producer's output: discard whatever sits in the
    /// batch buffers (a faulted node's partial output may be mid-fault
    /// garbage) and replace the Close handshake with an in-band fault
    /// marker on every consumer port and every routed partition.
    fn fault(&mut self, f: &NodeFault) {
        self.batcher.clear();
        for tx in &self.senders {
            tx.fault(f.clone());
        }
        for r in &mut self.routers {
            r.fault(f);
        }
    }
}

/// Result of a threaded run.
#[derive(Debug, Default)]
pub struct ThreadedOutput {
    /// Collected tuples per subscribed stream.
    pub streams: HashMap<String, Vec<Tuple>>,
    /// Packets consumed by the capture loop.
    pub packets: u64,
    /// Final stats-registry snapshot, taken after every node drained:
    /// `lfta:*`, `hfta:*`, `edge:*`, and `queue:*` counters.
    pub counters: Vec<StatRow>,
    /// Which queries ran clean and which were quarantined (panicked
    /// operator, upstream fault, watchdog-forced close) — a faulted
    /// query fails alone; its siblings' outputs are unaffected.
    pub health: RunHealth,
    /// Sealed operator-state snapshots captured at end of input when
    /// [`ThreadedOptions::capture`] was set, keyed `hfta:<stream>` /
    /// `lfta:<stream>`. Faulted nodes record nothing — their state is
    /// mid-panic garbage, and restoring it would resurrect the fault.
    pub snapshots: HashMap<String, Vec<u8>>,
}

impl ThreadedOutput {
    /// Tuples of one subscribed stream (empty if absent).
    pub fn stream(&self, name: &str) -> &[Tuple] {
        self.streams.get(name).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Convenience lookup of one final counter value.
    pub fn counter(&self, node: &str, counter: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|r| r.node == node && r.counter == counter)
            .map(|r| r.value)
    }
}

/// A live subscription observer: called from the subscribed stream's
/// collector thread with each drained batch of tuples, in stream order,
/// while the run is still in flight. The `gsqd` daemon's frame fan-out
/// rides on these; the tuples are also collected into
/// [`ThreadedOutput::streams`] as usual.
pub type SubscriptionTap = Arc<dyn Fn(&[Tuple]) + Send + Sync>;

/// Knobs for [`run_threaded_opts`] beyond the defaults of
/// [`run_threaded`].
#[derive(Clone, Default)]
pub struct ThreadedOptions {
    /// Subscribed streams whose collector threads hold off draining until
    /// the node graph has finished — a deterministic stand-in for a
    /// stalled consumer application. With [`Gigascope::shedding`] set the
    /// queue sheds instead of wedging the capture loop; without it this
    /// deadlocks exactly as a real stalled consumer would, so only use
    /// stalls with shedding enabled.
    pub stall: Vec<String>,
    /// Live observers per subscribed stream: `(stream name, tap)`. The
    /// stream must also appear in the run's subscription list; batches
    /// reach the tap from the stream's own collector drainer as they
    /// arrive, so the concatenation of tap calls equals the collected
    /// stream, in order.
    pub taps: Vec<(String, SubscriptionTap)>,
    /// Deployed queries to leave out of this run entirely (no LFTAs, no
    /// HFTA node, no producer for their streams). The daemon's lifecycle
    /// supervisor parks quarantined queries here while they sit out
    /// their restart backoff; consumers of an excluded query's streams
    /// simply see empty inputs.
    pub exclude: Vec<String>,
    /// Capture operator state instead of flushing it: at end of input
    /// every node skips its `finish_input`/`finish` flush (open windows
    /// stay open), serializes its state through
    /// [`gs_runtime::snapshot`], and the sealed bytes ride out on
    /// [`ThreadedOutput::snapshots`]. The capture point is a consistent
    /// cut — every edge has drained before any node serializes — so a
    /// follow-up run restoring the map continues exactly where this one
    /// stopped.
    pub capture: bool,
    /// Sealed snapshots (a previous run's [`ThreadedOutput::snapshots`])
    /// to restore before processing. Keys that match no built node are
    /// ignored; nodes with no entry start empty; a torn/corrupt/
    /// mismatched entry is rejected whole — the node is rebuilt pristine
    /// (empty windows) and the rejection is reported on
    /// [`RunHealth::notes`], never a crash, never partial state.
    pub restore: Option<Arc<HashMap<String, Vec<u8>>>>,
}

impl std::fmt::Debug for ThreadedOptions {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ThreadedOptions")
            .field("stall", &self.stall)
            .field("taps", &self.taps.iter().map(|(n, _)| n).collect::<Vec<_>>())
            .field("exclude", &self.exclude)
            .field("capture", &self.capture)
            .field("restore", &self.restore.as_ref().map(|m| m.len()))
            .finish()
    }
}

/// Run all deployed queries over `packets` with one thread per HFTA.
///
/// Packets must be time-ordered; subscriptions are collected in the
/// calling thread after all nodes drain.
pub fn run_threaded<I>(
    gs: &Gigascope,
    packets: I,
    subscriptions: &[&str],
) -> Result<ThreadedOutput, Error>
where
    I: Iterator<Item = CapPacket>,
{
    run_threaded_opts(gs, packets, subscriptions, ThreadedOptions::default())
}

/// [`run_threaded`] with explicit [`ThreadedOptions`].
pub fn run_threaded_opts<I>(
    gs: &Gigascope,
    packets: I,
    subscriptions: &[&str],
    opts: ThreadedOptions,
) -> Result<ThreadedOutput, Error>
where
    I: Iterator<Item = CapPacket>,
{
    check_heartbeat(gs.heartbeat)?;
    // ---- Wire the graph -------------------------------------------------
    let Graph { lftas, nodes, routers, restore_notes } =
        graph::build(gs, &opts.exclude, opts.restore.as_deref(), subscriptions)?;

    // Processing depth per stream, for least-processed-first shedding:
    // LFTA outputs are level 0 (barely processed), each node's output is
    // one past its deepest input. Streams with no known producer (the
    // built-in GS_STATS monitoring stream) count as level 0.
    let mut levels: HashMap<String, u32> = HashMap::new();
    for (lfta, _) in &lftas {
        levels.insert(lfta.name.clone(), 0);
    }
    for spec in &nodes {
        let lvl = 1 + spec
            .node
            .inputs
            .iter()
            .map(|i| levels.get(i).copied().unwrap_or(0))
            .max()
            .unwrap_or(0);
        levels.insert(spec.name.clone(), lvl);
    }
    let depth_of = |stream: &str| levels.get(stream).copied().unwrap_or(0);

    let (capacity, admission) = match gs.shedding {
        Some(cfg) => (cfg.capacity, Admission::Shed(cfg.policy)),
        None => (CHANNEL_CAPACITY, Admission::Block),
    };
    let stats_enabled = gs.stats_enabled;
    let registry = Arc::new(StatsRegistry::new());

    // Fault-isolation plumbing: the shared health board every
    // containment decision lands on, and the queues the watchdog
    // supervises. The `faults` and `watchdog` stat nodes only register
    // when the corresponding feature is configured, so a default run's
    // GS_STATS row set (and the stats-overhead gate) is unchanged.
    let board = Arc::new(HealthBoard::new());
    for (name, msg) in restore_notes {
        board.note(&name, msg);
    }
    if gs.faults.is_some() || gs.watchdog.is_some() {
        registry.register("faults".to_string(), board.stats.clone());
    }
    let watchdog_stats = Arc::new(WatchdogStats::default());
    if gs.watchdog.is_some() {
        registry.register("watchdog".to_string(), watchdog_stats.clone());
    }
    let mut watch_targets: Vec<(String, Arc<Channel<Msg>>)> = Vec::new();

    // Consumer endpoints per stream name (fan-out to every consumer).
    let mut producers: HashMap<String, Vec<PortSender>> = HashMap::new();
    // One shared ready-queue per node; every input port sends into it.
    let mut node_inputs: Vec<(transport::Receiver<Msg>, usize)> = Vec::new();
    // Per router group: `(partition stream, its queue endpoint)`, in
    // partition order.
    let mut members: Vec<Vec<(String, PortSender)>> = routers.iter().map(|_| Vec::new()).collect();
    for spec in &nodes {
        let (tx, rx, chan) = transport::channel(capacity, admission);
        registry.register(format!("queue:{}", spec.name), chan.clone());
        watch_targets.push((spec.name.clone(), chan));
        if let Some(g) = spec.routed {
            let input = &spec.node.inputs[0];
            let endpoint = PortSender { tx, port: 0, depth: depth_of(input) };
            members[g].push((spec.name.clone(), endpoint));
        } else {
            for (port, input) in spec.node.inputs.iter().enumerate() {
                producers
                    .entry(input.clone())
                    .or_default()
                    .push(PortSender { tx: tx.clone(), port, depth: depth_of(input) });
            }
        }
        node_inputs.push((rx, spec.node.inputs.len()));
    }
    // Subscription collectors (single-port queues). Each gets its own
    // drainer thread: a subscribed stream can emit far more than
    // CHANNEL_CAPACITY tuples while the capture loop is still feeding
    // packets, and a full collector queue would back-pressure the node
    // graph into a deadlock if nothing consumed it until after capture.
    let stall_gate = Arc::new((Mutex::new(false), Condvar::new()));
    let mut collectors: Vec<(String, thread::JoinHandle<Vec<Tuple>>)> = Vec::new();
    for name in subscriptions {
        let (tx, rx, chan) = transport::channel::<Msg>(capacity, admission);
        registry.register(format!("queue:sub:{name}"), chan.clone());
        watch_targets.push(((*name).to_string(), chan));
        producers
            .entry((*name).to_string())
            .or_default()
            .push(PortSender { tx, port: 0, depth: depth_of(name) });
        let gate = opts.stall.iter().any(|s| s == name).then(|| stall_gate.clone());
        let sub_board = board.clone();
        let sub_name = (*name).to_string();
        let tap: Option<SubscriptionTap> =
            opts.taps.iter().find(|(n, _)| n == name).map(|(_, t)| t.clone());
        let drainer = thread::spawn(move || {
            if let Some(g) = &gate {
                // A deliberately stalled consumer: hold the queue shut
                // until the graph finishes, then drain what survived.
                let (released, cv) = &**g;
                let mut open = released.lock().unwrap_or_else(PoisonError::into_inner);
                while !*open {
                    open = cv.wait(open).unwrap_or_else(PoisonError::into_inner);
                }
            }
            let mut bucket = Vec::new();
            while let Some(msg) = rx.recv() {
                let start = bucket.len();
                match msg {
                    Msg::Cols(_, cb, _) => {
                        bucket.extend((0..cb.n_rows()).map(|r| cb.row_tuple(r)));
                    }
                    Msg::Close(_) => break,
                    Msg::Fault(_, f) => {
                        // The producing chain faulted: keep the clean
                        // prefix collected so far and report the root.
                        sub_board.record(&sub_name, FaultReason::Upstream(f.node));
                        break;
                    }
                }
                if bucket.len() > start {
                    if let Some(t) = &tap {
                        t(&bucket[start..]);
                    }
                }
            }
            bucket
        });
        collectors.push(((*name).to_string(), drainer));
    }

    // The self-monitoring stream's consumers (queries over GS_STATS and
    // direct subscriptions); the capture thread is its producer. The edge
    // has no size bound, so a monitoring round ships as one batch when its
    // trailing punctuation arrives, and registers no `edge:` stats node.
    let mut gs_stats_edge = OutputEdge {
        batcher: Batcher::new(usize::MAX),
        senders: producers.remove("GS_STATS").unwrap_or_default(),
        routers: Vec::new(),
    };

    let batch_size = gs.batch_size;
    // Partitioning router edges, keyed by the stream they split. Each
    // partition's input-side batcher registers as `edge:<partition>:in`
    // so routed transport is accounted per shard.
    let mut router_edges: HashMap<String, Vec<RouterEdge>> = HashMap::new();
    for (group, members) in routers.into_iter().zip(members) {
        let parts: Vec<(Batcher, PortSender)> = members
            .into_iter()
            .map(|(pname, s)| {
                let b = Batcher::new(batch_size);
                registry.register(format!("edge:{pname}:in"), b.stats.clone());
                (b, s)
            })
            .collect();
        router_edges.entry(group.input).or_default().push(RouterEdge {
            router: group.router,
            parts,
            scratch: Vec::new(),
        });
    }

    // ---- Spawn node threads ---------------------------------------------
    // Capture plumbing: the shared map every node serializes into when
    // the run ends in capture mode. A node writes its entry exactly once,
    // after its last input closed and before it closes its own output —
    // so by the time the main thread joins the handles, the map holds a
    // consistent cut of the whole graph.
    let capture = opts.capture;
    let snap_sink: Arc<Mutex<HashMap<String, Vec<u8>>>> = Arc::new(Mutex::new(HashMap::new()));
    let mut handles: Vec<(String, thread::JoinHandle<()>)> = Vec::new();
    for (spec, (rx, n_ports)) in nodes.into_iter().zip(node_inputs) {
        let GraphNode { mut node, name: out_name, .. } = spec;
        let out_senders: Vec<PortSender> = producers.get(&out_name).cloned().unwrap_or_default();
        let batcher = Batcher::new(batch_size);
        registry.register(format!("edge:{out_name}"), batcher.stats.clone());
        node.register_stats(&registry, &out_name);
        let mut edge = OutputEdge {
            batcher,
            senders: out_senders,
            routers: router_edges.remove(&out_name).unwrap_or_default(),
        };
        let node_board = board.clone();
        let mut injector = gs.faults.as_ref().and_then(|p| p.armed(&out_name, &board.stats));
        let sink = snap_sink.clone();
        let thread_name = out_name.clone();
        handles.push((
            out_name.clone(),
            thread::spawn(move || {
                // Port state lives OUTSIDE the containment boundary so the
                // post-fault quarantine drain knows which ports are still
                // open; the boundary itself costs nothing on the hot path.
                let mut open: Vec<bool> = vec![true; n_ports];
                let mut open_count = n_ports;
                let run = catch_unwind(AssertUnwindSafe(|| -> Option<NodeFault> {
                    let mut out = Vec::new();
                    while open_count > 0 {
                        match rx.recv() {
                            Some(Msg::Cols(p, cb, punct)) => {
                                out.clear();
                                if let Some(inj) = injector.as_mut() {
                                    // Fault injection hooks the row stream:
                                    // rows materialize here, inside the
                                    // boundary, so an injected panic exercises
                                    // the real containment path.
                                    let mut items = cb.into_items(punct);
                                    inj.on_batch(&mut items);
                                    node.push_batch(p, items, &mut out);
                                    edge.extend(out.drain(..));
                                } else if let Some((cb, rider)) =
                                    node.push_cols(p, cb, punct, &mut out)
                                {
                                    edge.extend_cols(cb, rider);
                                } else {
                                    edge.extend(out.drain(..));
                                }
                                if stats_enabled {
                                    // Per-message publish keeps registry
                                    // snapshots at most one batch stale.
                                    node.publish_stats();
                                }
                            }
                            Some(Msg::Close(p)) if open[p] => {
                                open[p] = false;
                                open_count -= 1;
                                if !capture {
                                    out.clear();
                                    node.finish_input(p, &mut out);
                                    edge.extend(out.drain(..));
                                }
                            }
                            Some(Msg::Close(_)) => {}
                            Some(Msg::Fault(p, f)) => {
                                // An upstream chain member died: this node's
                                // query is collateral. The port is closed by
                                // definition of the marker.
                                if open[p] {
                                    open[p] = false;
                                    open_count -= 1;
                                }
                                return Some(f);
                            }
                            None => {
                                // Every producer dropped without a Close, or
                                // the watchdog force-closed this queue; flush
                                // what the still-open ports hold.
                                for (p, o) in open.iter_mut().enumerate() {
                                    if std::mem::take(o) && !capture {
                                        out.clear();
                                        node.finish_input(p, &mut out);
                                        edge.extend(out.drain(..));
                                    }
                                }
                                open_count = 0;
                            }
                        }
                    }
                    if capture {
                        // End of chunk, not end of stream: hold the open
                        // windows in a sealed snapshot instead of
                        // flushing them — the continuation run restores
                        // this entry and the windows finish there.
                        let mut w = SnapWriter::new();
                        node.snapshot_state(&mut w);
                        sink.lock()
                            .unwrap_or_else(PoisonError::into_inner)
                            .insert(format!("hfta:{thread_name}"), w.seal());
                    } else {
                        out.clear();
                        node.finish(&mut out);
                        edge.extend(out.drain(..));
                    }
                    None
                }));
                match run {
                    Ok(None) => {
                        // Clean end-of-stream: flush the tail batch, then
                        // close every consumer port (and routed partition).
                        edge.close();
                        // Final publish so the post-run snapshot is exact.
                        node.publish_stats();
                    }
                    Ok(Some(fault)) => {
                        // Quarantined by an upstream fault: record it (a
                        // no-op if the root cause already named this query),
                        // forward the origin downstream, then keep draining
                        // so sibling producers never wedge on our queue.
                        node_board
                            .record(&thread_name, FaultReason::Upstream(fault.node.clone()));
                        edge.fault(&fault);
                        drain_quarantined(&rx, &mut open, &mut open_count);
                        node.publish_stats();
                    }
                    Err(payload) => {
                        // The operator itself panicked (injected or organic):
                        // the containment boundary turns the abort into a
                        // quarantined query.
                        node_board.stats.faults_contained.inc();
                        let reason = FaultReason::Panic(panic_message(payload.as_ref()));
                        node_board.record(&thread_name, reason.clone());
                        edge.fault(&NodeFault { node: thread_name.clone(), reason });
                        drain_quarantined(&rx, &mut open, &mut open_count);
                        // The node is mid-panic state: don't touch it again.
                    }
                }
            }),
        ));
    }

    // ---- Capture loop (this thread) --------------------------------------
    // One output edge per LFTA: per-packet emissions accumulate in the
    // edge batcher and ship as one queue message per `batch_size` rows
    // (scattered through any partitioning routers installed on the
    // LFTA's stream).
    let mut lfta_edges: Vec<OutputEdge> = lftas
        .iter()
        .map(|(l, _)| {
            let b = Batcher::new(batch_size);
            registry.register(format!("edge:{}", l.name), b.stats.clone());
            OutputEdge {
                batcher: b,
                senders: producers.get(&l.name).cloned().unwrap_or_default(),
                routers: router_edges.remove(&l.name).unwrap_or_default(),
            }
        })
        .collect();
    debug_assert!(router_edges.is_empty(), "every routed stream has a producer");
    // Drop the producer map so node threads hold the only remaining
    // senders for their output streams.
    drop(producers);

    let mut front = CaptureFront::new(lftas, gs.heartbeat, registry.clone());

    // The liveness supervisor, once every queue exists. It watches node
    // and subscription queues for pending work with a frozen dequeue
    // counter and force-closes the wedged ones, so even a stalled
    // consumer without shedding (the PR 3 deadlock) ends as a
    // `Failed{Stalled}` query instead of a hung run.
    let watchdog = gs
        .watchdog
        .map(|cfg| Watchdog::spawn(cfg, watch_targets, board.clone(), watchdog_stats.clone()));

    // Monitoring rounds are skipped unless something consumes them.
    let stats_wanted = stats_enabled && !gs_stats_edge.senders.is_empty();
    for pkt in packets {
        front.dispatch(&pkt, |i, items| lfta_edges[i].extend(items.drain(..)));
        if front.periodic_due() {
            front.heartbeat(|i, items| {
                lfta_edges[i].extend(items.drain(..));
                lfta_edges[i].flush_heartbeat();
            });
            if stats_wanted {
                gs_stats_edge.extend(front.stats_items().into_iter());
            }
        }
    }
    // Same cut as the node threads: in capture mode the direct-mapped
    // tables' open epochs ride out in the snapshot, not downstream.
    let lfta_snapshots = front.finish(capture, |i, items| {
        lfta_edges[i].extend(items.drain(..));
        // Flush the tail batch and close this LFTA's output stream.
        lfta_edges[i].close();
    });
    snap_sink.lock().unwrap_or_else(PoisonError::into_inner).extend(lfta_snapshots);
    // Final monitoring snapshot at capture end, then close GS_STATS —
    // always, even with stats off: consumers wait on the Close marker.
    if stats_wanted {
        gs_stats_edge.extend(front.stats_items().into_iter());
    }
    gs_stats_edge.close();
    drop(gs_stats_edge);
    drop(lfta_edges);

    // ---- Drain ------------------------------------------------------------
    // Node threads first: with shedding enabled they finish even when a
    // subscriber stalls (the queue sheds instead of back-pressuring), and
    // collector drainers run concurrently regardless of join order. A
    // faulted node's thread still joins cleanly — containment converted
    // the panic into a quarantine before the thread returned — so a join
    // error here means the recovery code itself died; record it rather
    // than abort the whole run.
    for (name, h) in handles {
        if h.join().is_err() {
            board.stats.faults_contained.inc();
            board.record(&name, FaultReason::Panic("node thread aborted".to_string()));
        }
    }
    // Release any deliberately stalled collectors to drain what survived.
    {
        let (released, cv) = &*stall_gate;
        *released.lock().unwrap_or_else(PoisonError::into_inner) = true;
        cv.notify_all();
    }
    let mut streams: HashMap<String, Vec<Tuple>> = HashMap::new();
    for (name, drainer) in collectors {
        match drainer.join() {
            Ok(bucket) => {
                streams.insert(name, bucket);
            }
            Err(_) => {
                board.record(&name, FaultReason::Panic("collector thread panicked".to_string()));
                streams.insert(name, Vec::new());
            }
        }
    }
    if let Some(dog) = watchdog {
        dog.stop();
    }
    let counters = registry.snapshot();
    // Every node thread joined above, so the sink holds the complete cut
    // (faulted nodes contributed nothing — by design).
    let snapshots = std::mem::take(&mut *snap_sink.lock().unwrap_or_else(PoisonError::into_inner));
    Ok(ThreadedOutput {
        streams,
        packets: front.packets,
        counters,
        health: board.report(),
        snapshots,
    })
}

/// Post-quarantine input drain: a faulted node must keep consuming (and
/// discarding) its queue until every port closes, otherwise upstream
/// producers under [`Admission::Block`] would wedge forever on the
/// abandoned queue — the hang this layer exists to prevent.
fn drain_quarantined(rx: &transport::Receiver<Msg>, open: &mut [bool], open_count: &mut usize) {
    while *open_count > 0 {
        match rx.recv() {
            Some(Msg::Close(p)) | Some(Msg::Fault(p, _)) => {
                if open[p] {
                    open[p] = false;
                    *open_count -= 1;
                }
            }
            Some(Msg::Cols(..)) => {}
            None => *open_count = 0,
        }
    }
}

/// Best-effort text of a caught panic payload (`panic!` with a string
/// literal or a formatted message covers everything we raise).
pub(crate) fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&'static str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_string()
    }
}

/// The heartbeat policies the threaded manager implements. On-demand
/// heartbeats need a scheduler that observes a starved merge between
/// two packets, which only the synchronous engine is.
pub(crate) fn check_heartbeat(mode: HeartbeatMode) -> Result<(), Error> {
    match mode {
        HeartbeatMode::Off | HeartbeatMode::Periodic { .. } => Ok(()),
        HeartbeatMode::OnDemand => Err(Error::Config(
            "the threaded manager supports heartbeat modes `off` and periodic (`N` seconds); \
             `ondemand` is only available on the synchronous engine (run_capture)"
                .to_string(),
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gs_packet::builder::FrameBuilder;
    use gs_packet::capture::LinkType;

    fn pkt(ts_sec: u64, dport: u16, pay: &[u8]) -> CapPacket {
        let f = FrameBuilder::tcp(1, 2, 999, dport).payload(pay).build_ethernet();
        CapPacket::full(ts_sec * 1_000_000_000, 0, LinkType::Ethernet, f)
    }

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

    #[test]
    fn threaded_matches_synchronous() {
        let mut gs = Gigascope::new();
        gs.add_interface("eth0", 0, LinkType::Ethernet);
        gs.add_program(
            "DEFINE { query_name persec; } \
             Select time, count(*) From eth0.tcp Where destPort = 80 Group By time",
        )
        .unwrap();
        let mk = || {
            (0..200u64)
                .map(|i| pkt(i / 40, if i % 3 == 0 { 80 } else { 25 }, b"x"))
                .collect::<Vec<_>>()
        };
        let sync_out = gs.run_capture(mk().into_iter(), &["persec"]).unwrap();
        let thr_out = run_threaded(&gs, mk().into_iter(), &["persec"]).unwrap();
        let norm = |ts: &[Tuple]| {
            let mut v: Vec<(u64, u64)> = ts
                .iter()
                .map(|t| (t.get(0).as_uint().unwrap(), t.get(1).as_uint().unwrap()))
                .collect();
            v.sort();
            v
        };
        assert_eq!(norm(sync_out.stream("persec")), norm(thr_out.stream("persec")));
        assert_eq!(thr_out.packets, 200);
    }

    /// Partition-parallel deployment computes the same answers as the
    /// single-instance plan and registers per-shard stats.
    #[test]
    fn threaded_parallel_aggregation_matches_single_instance() {
        let program = "DEFINE { query_name raw; } \
             Select time, destPort, len From eth0.tcp; \
             DEFINE { query_name perport; } \
             Select time, destPort, count(*), sum(len) From raw Group By time, destPort";
        let mk = || {
            (0..240u64).map(|i| pkt(i / 60, 8000 + (i % 5) as u16, b"xy")).collect::<Vec<_>>()
        };
        let run = |parallelism: usize| {
            let mut gs = Gigascope::new();
            gs.add_interface("eth0", 0, LinkType::Ethernet);
            gs.parallelism = parallelism;
            gs.add_program(program).unwrap();
            run_threaded(&gs, mk().into_iter(), &["perport"]).unwrap()
        };
        let norm = |out: &ThreadedOutput| {
            let mut v: Vec<Vec<u64>> = out
                .stream("perport")
                .iter()
                .map(|t| (0..4).map(|i| t.get(i).as_uint().unwrap()).collect())
                .collect();
            v.sort();
            v
        };
        let base = run(1);
        let par = run(4);
        assert_eq!(norm(&base), norm(&par), "sharded deployment computes the same groups");
        let times: Vec<u64> =
            par.stream("perport").iter().map(|t| t.get(0).as_uint().unwrap()).collect();
        assert!(times.windows(2).all(|w| w[0] <= w[1]), "merge order preserved: {times:?}");
        // Every shard has its own queue, input edge, and operator stats;
        // the shards together saw every routed tuple exactly once.
        let routed: u64 = (0..4)
            .map(|k| par.counter(&format!("edge:perport#{k}:in"), "items").unwrap())
            .sum();
        // The single-instance run's `raw` edge shipped each tuple and
        // punct once; routing delivers tuples once and puncts per shard.
        let produced = base.counter("edge:raw", "items").unwrap();
        assert!(
            routed >= produced && produced > 0,
            "tuples route to exactly one shard, puncts to all: {routed} vs {produced}"
        );
        assert!(par.counter("queue:perport#2", "enqueued").unwrap() > 0);
        assert!(par.counter("hfta:perport#3/0:aggregate", "tuples_in").is_some());
    }

    #[test]
    fn threaded_merge_pipeline() {
        let mut gs = Gigascope::new();
        gs.add_interface("eth0", 0, LinkType::Ethernet);
        gs.add_interface("eth1", 1, LinkType::Ethernet);
        gs.add_program(
            "DEFINE { query_name a; } Select time From eth0.tcp; \
             DEFINE { query_name b; } Select time From eth1.tcp; \
             DEFINE { query_name m; } Merge a.time : b.time From a, b",
        )
        .unwrap();
        let mut pkts = Vec::new();
        for s in 0..50u64 {
            let f = FrameBuilder::tcp(1, 2, 9, 80).build_ethernet();
            pkts.push(CapPacket::full(s * 1_000_000_000, (s % 2) as u16, LinkType::Ethernet, f));
        }
        let out = run_threaded(&gs, pkts.into_iter(), &["m"]).unwrap();
        let times: Vec<u64> = out.stream("m").iter().map(|t| t.get(0).as_uint().unwrap()).collect();
        let mut sorted = times.clone();
        sorted.sort();
        assert_eq!(times, sorted, "merge output stays ordered under threading");
        assert_eq!(times.len(), 50);
    }

    /// A subscribed stream emitting far more than CHANNEL_CAPACITY tuples
    /// must not deadlock: without a live drainer per collector the node
    /// blocks on the full subscription queue, back-pressure reaches the
    /// capture loop, and the post-capture drain never starts.
    #[test]
    fn threaded_subscription_exceeding_channel_capacity() {
        let mut gs = Gigascope::new();
        gs.add_interface("eth0", 0, LinkType::Ethernet);
        gs.add_program(
            "DEFINE { query_name a; } Select time From eth0.tcp; \
             DEFINE { query_name m; } Merge a.time : a.time From a, a",
        )
        .unwrap();
        let n = (CHANNEL_CAPACITY * 2 + 100) as u64;
        let pkts = (0..n).map(|s| {
            let f = FrameBuilder::tcp(1, 2, 9, 80).build_ethernet();
            CapPacket::full(s * 1_000_000, 0, LinkType::Ethernet, f)
        });
        let out = run_threaded(&gs, pkts, &["m"]).unwrap();
        // The self-merge sees every tuple on both ports.
        assert_eq!(out.stream("m").len(), 2 * n as usize);
    }

    /// The final registry snapshot accounts every layer: LFTA counters,
    /// per-operator counters, edge batcher flushes, and queue admissions.
    #[test]
    fn threaded_output_carries_final_counters() {
        let mut gs = Gigascope::new();
        gs.add_interface("eth0", 0, LinkType::Ethernet);
        gs.add_program(
            "DEFINE { query_name persec; } \
             Select time, count(*) From eth0.tcp Where destPort = 80 Group By time",
        )
        .unwrap();
        let pkts = (0..100u64).map(|i| pkt(i / 20, if i % 2 == 0 { 80 } else { 25 }, b"x"));
        let out = run_threaded(&gs, pkts, &["persec"]).unwrap();
        assert_eq!(out.counter("lfta:persec__lfta0", "packets_in"), Some(100));
        // The port-25 half is rejected up front — by the pushed-down BPF
        // prefilter or the residual predicate, whichever got the clause.
        let rejected = out.counter("lfta:persec__lfta0", "prefiltered").unwrap()
            + out.counter("lfta:persec__lfta0", "filtered").unwrap();
        assert_eq!(rejected, 50);
        // The HFTA super-aggregate saw every LFTA partial and emitted the
        // 5 time buckets.
        assert_eq!(out.counter("hfta:persec/0:aggregate", "tuples_out"), Some(5));
        let edge_items = out.counter("edge:persec__lfta0", "items").unwrap();
        assert!(edge_items > 0, "LFTA edge shipped its partials");
        assert!(out.counter("queue:persec", "enqueued").unwrap() > 0);
        assert_eq!(out.counter("queue:persec", "shed_batches"), Some(0));
    }

    /// The tentpole invariant at unit scale: an injected operator panic
    /// neither hangs nor aborts the run — `run_threaded` returns `Ok`,
    /// the faulted query is `Failed{Panic}` with a clean-prefix output,
    /// and the sibling query's output is byte-identical to a fault-free
    /// run.
    #[test]
    fn injected_panic_quarantines_one_query_and_spares_siblings() {
        let program = "DEFINE { query_name good; } \
             Select time, count(*) From eth0.tcp Group By time; \
             DEFINE { query_name bad; } \
             Select time, sum(len) From eth0.tcp Group By time";
        let mk = || (0..200u64).map(|i| pkt(i / 40, 80, b"xy")).collect::<Vec<_>>();
        let run = |faults: Option<crate::FaultPlan>| {
            let mut gs = Gigascope::new();
            gs.add_interface("eth0", 0, LinkType::Ethernet);
            gs.batch_size = 8;
            gs.add_program(program).unwrap();
            gs.faults = faults;
            run_threaded(&gs, mk().into_iter(), &["good", "bad"]).unwrap()
        };
        let clean = run(None);
        assert!(clean.health.all_ok());
        let faulty = run(Some(crate::FaultPlan::new().panic_at("bad", 2)));
        assert!(faulty.health.failed("bad"), "the targeted query is quarantined");
        assert!(matches!(
            faulty.health.of("bad"),
            crate::QueryHealth::Failed { reason: FaultReason::Panic(_) }
        ));
        assert!(!faulty.health.failed("good"), "the sibling is untouched");
        assert_eq!(
            faulty.stream("good"),
            clean.stream("good"),
            "sibling output is byte-identical to the fault-free run"
        );
        assert!(
            faulty.stream("bad").len() <= clean.stream("bad").len(),
            "the faulted query keeps at most a clean prefix"
        );
        assert_eq!(faulty.counter("faults", "fault_injected"), Some(1));
        assert_eq!(faulty.counter("faults", "faults_contained"), Some(1));
        assert!(faulty.counter("faults", "queries_failed").unwrap() >= 1);
        assert_eq!(clean.counter("faults", "fault_injected"), None, "no plan, no stats node");
    }

    /// A stalled subscriber with shedding enabled must not wedge the
    /// pipeline: the run completes, drops happen at the stalled queue
    /// under least-processed-first, and the drops are visible in stats.
    #[test]
    fn stalled_subscription_sheds_instead_of_deadlocking() {
        let mut gs = Gigascope::new();
        gs.add_interface("eth0", 0, LinkType::Ethernet);
        gs.batch_size = 1; // many messages, so the tiny queue overflows
        gs.shedding = Some(crate::ShedConfig {
            policy: gs_runtime::qos::DropPolicy::LeastProcessedFirst,
            capacity: 4,
        });
        gs.add_program("DEFINE { query_name sel; } Select time From eth0.tcp").unwrap();
        let pkts = (0..500u64).map(|i| pkt(i / 100, 80, b"x"));
        let out = run_threaded_opts(
            &gs,
            pkts,
            &["sel"],
            ThreadedOptions { stall: vec!["sel".to_string()], ..Default::default() },
        )
        .unwrap();
        let shed = out.counter("queue:sub:sel", "shed_items").unwrap();
        assert!(shed > 0, "the stalled queue must shed");
        assert!(
            (out.stream("sel").len() as u64) + shed >= 500,
            "every tuple is either delivered or accounted as shed"
        );
        assert!(out.stream("sel").len() < 500, "something was actually dropped");
    }
}
