//! `gsqd`: the always-on query daemon.
//!
//! The paper positions Gigascope as an operational system that runs
//! continuously at the monitoring point; `gsq` is a one-shot runner.
//! This module closes the gap with a long-running daemon that remote
//! clients reconfigure at runtime over a std-only, length-prefixed
//! binary protocol ([`wire`]): REGISTER/UNREGISTER GSQL programs,
//! SUBSCRIBE to named output streams, poll HEALTH and GS_STATS, and
//! shut the daemon down — all over a plain [`std::net::TcpStream`].
//!
//! # Epochs
//!
//! The threaded manager wires its node graph once per run, so instead
//! of mutating a live graph the daemon runs back-to-back **epochs**:
//! each epoch is one [`Stepper`] step over that epoch's packets
//! ([`PacketSource::epoch_packets`], time-continuous across epochs).
//! Registrations, removals, subscription changes, and lifecycle
//! decisions all apply at epoch boundaries. A boundary is a *step*, not
//! a rebuild: the stepper hands every healthy query's operators,
//! windows open, straight to the next epoch, so a query's output over
//! its whole life equals one continuous run over the packets of the
//! epochs it ran — the invariant the protocol test battery checks. Only
//! a boundary the [`Cadence`] rule picks is a *cut* that seals the
//! operators into bytes (and, with a state directory, publishes them);
//! those bytes are read back only where no live operator exists
//! (recovery, a query reprovisioned after a fault), after catch-up
//! replayed it with its upstream closure from their cut.
//!
//! Result frames fan out from the manager's subscription drains (a
//! [`SubscriptionTap`] per subscribed stream) onto per-connection
//! outbound queues; a zero-row TUPLES frame after the run is the
//! end-of-epoch marker. Data frames ride a shed-on-overflow queue so a
//! slow client loses its own newest frames instead of wedging the
//! engine; control replies and epoch markers are never shed.
//!
//! The [`supervisor`] watches each epoch's [`RunHealth`] and
//! reprovisions quarantined queries with bounded, exponentially
//! backed-off restarts — see that module for the lifecycle state
//! machine.

pub mod client;
mod conn;
pub mod supervisor;
pub mod wire;

use crate::health::{query_of, RunHealth};
use crate::manager::{Stepper, SubscriptionTap, ThreadedOptions};
use crate::transport::lock;
use crate::{Error, Gigascope};
use gs_netgen::{MixConfig, PacketMix};
use gs_packet::capture::LinkType;
use gs_packet::CapPacket;
use gs_runtime::durable::{
    Cadence, Cursor, DiskIo, DurableStats, DurableStore, FaultyDisk, RealDisk, Recovery,
};
use gs_runtime::faults::{DiskFaultPlan, FaultPlan};
use gs_runtime::punct::HeartbeatMode;
use gs_runtime::stats::{Counter, StatRow, StatSource, StatsRegistry};
use std::borrow::Cow;
use std::collections::{HashMap, HashSet};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::ops::Range;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::thread;
use std::time::Duration;
use supervisor::Supervisor;

/// Where each epoch's packets come from. Every source is
/// time-continuous: epoch `k + 1`'s packets never precede epoch `k`'s,
/// so operator state carried across the boundary sees one ordered
/// stream.
#[derive(Debug, Clone)]
pub enum PacketSource {
    /// Deterministic synthetic traffic: epoch `k` replays the standard
    /// mix generator with seed `seed + k`, shifted forward by
    /// `k * epoch_ms`, so any epoch's packets can be regenerated
    /// independently (the equivalence tests do).
    Synthetic {
        /// Total offered load in Mbit/s (HTTP mix up to 60, the rest
        /// background).
        mbps: f64,
        /// Simulated capture duration per epoch, in milliseconds.
        epoch_ms: u64,
        /// Base seed; epoch `k` uses `seed.wrapping_add(k)`.
        seed: u64,
    },
    /// Loop one fixed trace: epoch `k` replays it shifted forward by `k`
    /// times its span (latest minus earliest timestamp), rounded up to a
    /// whole second.
    Replay(Vec<CapPacket>),
    /// Pre-sliced chunks of one continuous trace: epoch `k` replays
    /// chunk `k`; epochs past the last chunk are empty.
    Chunked(Vec<Vec<CapPacket>>),
}

impl PacketSource {
    /// The packets of epoch `epoch`, regenerable by anyone holding the
    /// same source description. A chunked source lends its chunk; the
    /// generated sources hand out owned packets.
    pub fn epoch_packets(&self, epoch: u64) -> Cow<'_, [CapPacket]> {
        match self {
            PacketSource::Synthetic { mbps, epoch_ms, seed } => PacketMix::new(MixConfig {
                seed: seed.wrapping_add(epoch),
                duration_ms: *epoch_ms,
                http_rate_mbps: mbps.min(60.0),
                background_rate_mbps: (mbps - 60.0).max(0.0),
                ..MixConfig::default()
            })
            .map(|mut p| {
                p.ts_ns += epoch * epoch_ms * 1_000_000;
                p
            })
            .collect::<Vec<_>>()
            .into(),
            PacketSource::Replay(packets) => {
                const SEC_NS: u64 = 1_000_000_000;
                // Over the timestamps, not the trace order: a capture
                // need not be sorted.
                let (lo, hi) = packets
                    .iter()
                    .fold((u64::MAX, 0), |(lo, hi), p| (lo.min(p.ts_ns), hi.max(p.ts_ns)));
                let span = hi.saturating_sub(lo);
                let shift = epoch * span.div_ceil(SEC_NS).max(1) * SEC_NS;
                packets
                    .iter()
                    .map(|p| CapPacket { ts_ns: p.ts_ns + shift, ..p.clone() })
                    .collect::<Vec<_>>()
                    .into()
            }
            PacketSource::Chunked(chunks) => {
                chunks.get(epoch as usize).map_or(&[][..], Vec::as_slice).into()
            }
        }
    }

    /// One continuous synthetic trace of `epochs * epoch_ms` virtual
    /// milliseconds, sliced into per-epoch chunks on window boundaries
    /// (chunk `k` covers `[k*epoch_ms, (k+1)*epoch_ms)`). The
    /// concatenation of every epoch's packets is exactly the continuous
    /// trace — the reference the daemon equivalence tests compare
    /// against.
    pub fn chunked_synthetic(mbps: f64, epoch_ms: u64, epochs: u64, seed: u64) -> PacketSource {
        let all: Vec<CapPacket> = PacketMix::new(MixConfig {
            seed,
            duration_ms: epoch_ms.max(1) * epochs.max(1),
            http_rate_mbps: mbps.min(60.0),
            background_rate_mbps: (mbps - 60.0).max(0.0),
            ..MixConfig::default()
        })
        .collect();
        let n = epochs.max(1) as usize;
        let mut chunks: Vec<Vec<CapPacket>> = (0..n).map(|_| Vec::new()).collect();
        for p in all {
            let k = ((p.ts_ns / 1_000_000) / epoch_ms.max(1)) as usize;
            chunks[k.min(n - 1)].push(p);
        }
        PacketSource::Chunked(chunks)
    }
}

/// Daemon-level counters, registered as the `daemon` stats node.
#[derive(Debug, Default)]
pub struct DaemonStats {
    /// Epochs completed since startup.
    pub epochs: Counter,
    /// Connections accepted.
    pub connections: Counter,
    /// Successful REGISTER operations.
    pub registers: Counter,
    /// Successful UNREGISTER operations.
    pub unregisters: Counter,
    /// Epochs whose engine build/run failed outright (not per-query
    /// quarantines — those are health rows).
    pub run_errors: Counter,
    /// Operators that entered the live dataflow from checkpoint bytes
    /// instead of being carried over or built empty: a recovered
    /// daemon's first epoch, a query reprovisioned after a fault. Zero
    /// for the whole of a fault-free session that started fresh.
    pub nodes_restored: Counter,
    /// Boundaries that sealed a cut (with a state directory,
    /// each one a CUT record in the log); `epochs - cuts` boundaries
    /// committed only their markers.
    pub cuts: Counter,
    /// Epochs a catch-up replay re-ran emitting nothing, to rebuild state
    /// from cuts that lagged the output — after a recovery or a fault.
    /// The replay debt the cut cadence traded for its saved writes.
    pub replayed_epochs: Counter,
}

impl StatSource for DaemonStats {
    fn counters(&self) -> Vec<(&'static str, u64)> {
        vec![
            ("epochs", self.epochs.get()),
            ("connections", self.connections.get()),
            ("registers", self.registers.get()),
            ("unregisters", self.unregisters.get()),
            ("run_errors", self.run_errors.get()),
            ("nodes_restored", self.nodes_restored.get()),
            ("cuts", self.cuts.get()),
            ("replayed_epochs", self.replayed_epochs.get()),
        ]
    }
}

/// Everything a `gsqd` instance needs to start.
pub struct DaemonConfig {
    /// Bind address (`127.0.0.1:0` picks a free loopback port).
    pub listen: String,
    /// Per-epoch packet supply.
    pub source: PacketSource,
    /// Interfaces to register (`eth0=0:ether` when empty).
    pub ifaces: Vec<(String, u16, LinkType)>,
    /// LFTA heartbeat policy for every epoch's run: off or periodic.
    /// [`start`] rejects `OnDemand`, which the threaded manager the
    /// daemon runs on cannot provide.
    pub heartbeat: HeartbeatMode,
    /// Engine batch size.
    pub batch_size: usize,
    /// HFTA parallelism degree.
    pub parallelism: usize,
    /// GSQL program to register before the first epoch.
    pub initial_program: Option<String>,
    /// Automatic restarts allowed per query before it goes `Dead`.
    pub restart_budget: u64,
    /// Backoff after a query's first charged failure, in epochs
    /// (doubles per failure).
    pub backoff_base: u64,
    /// Fault campaign applied during [`fault_epochs`](Self::fault_epochs)
    /// (tests and demos; `None` in production).
    pub faults: Option<FaultPlan>,
    /// Epoch ids during which [`faults`](Self::faults) is armed.
    pub fault_epochs: Range<u64>,
    /// Idle pacing between epochs, in milliseconds (tests use 0).
    pub epoch_gap_ms: u64,
    /// Compatibility only: must be `true` (the default); [`start`]
    /// rejects `false`, since every daemon boundary carries operator
    /// state. The field goes with benchmark revision 2.
    pub carry_state: bool,
    /// Per-connection outbound queue capacity, in frames; overflow
    /// sheds that connection's newest data frames.
    pub conn_queue_frames: usize,
    /// Durable checkpoint directory. When set, every epoch boundary is
    /// committed as one fsynced record of an append-only log — a cut
    /// with its markers, or the markers alone — and a restarted daemon
    /// pointed at the same directory rebuilds its windows from the
    /// newest cut plus a silent replay of the epochs the markers confirm
    /// past it — resuming mid-window, exactly once, instead of from
    /// empty state.
    pub state_dir: Option<PathBuf>,
    /// Cuts the durable log keeps when it is compacted; recovery falls
    /// back to an older one if the newest fails to decode. Clamped to at
    /// least 1, the cut recovery resumes from.
    pub retain_checkpoints: usize,
    /// Disk-fault campaign applied to the durable store's IO (tests and
    /// demos; `None` in production).
    pub disk_faults: Option<DiskFaultPlan>,
}

impl Default for DaemonConfig {
    fn default() -> DaemonConfig {
        DaemonConfig {
            listen: "127.0.0.1:0".to_string(),
            source: PacketSource::Synthetic { mbps: 100.0, epoch_ms: 100, seed: 0 },
            ifaces: Vec::new(),
            heartbeat: HeartbeatMode::Periodic { interval: 1 },
            batch_size: 256,
            parallelism: 1,
            initial_program: None,
            restart_budget: 3,
            backoff_base: 1,
            faults: None,
            fault_epochs: 0..0,
            epoch_gap_ms: 0,
            carry_state: true,
            conn_queue_frames: 1024,
            state_dir: None,
            retain_checkpoints: 3,
            disk_faults: None,
        }
    }
}

/// An operation a connection handler queued for the engine to apply at
/// the next epoch boundary. The engine always replies (or drains with
/// an error at shutdown), so handlers can block on the channel.
pub(crate) enum PendingOp {
    /// REGISTER a GSQL program; reply carries the deployed query names.
    Register {
        /// Program text.
        gsql: String,
        /// Reply channel: `Ok(info)` or `Err(message)`.
        reply: mpsc::Sender<Result<String, String>>,
    },
    /// UNREGISTER one query by name.
    Unregister {
        /// Query name.
        name: String,
        /// Reply channel.
        reply: mpsc::Sender<Result<String, String>>,
    },
}

/// One connection's interest in one stream.
pub(crate) struct SubEndpoint {
    /// Owning connection id.
    pub conn: u64,
    /// That connection's outbound frame queue.
    pub sender: crate::transport::Sender<Vec<u8>>,
}

/// Per-connection server-side state the engine and teardown paths need.
pub(crate) struct ConnState {
    /// Socket clone used to force-close the connection at shutdown.
    pub stream: TcpStream,
    /// Outbound queue shared with the connection's writer thread.
    pub chan: Arc<crate::transport::Channel<Vec<u8>>>,
}

/// Snapshot the handlers serve without touching the engine.
#[derive(Default)]
pub(crate) struct Snapshot {
    /// Number of completed epochs (epoch ids `0..epochs_done`).
    pub epochs_done: u64,
    /// Lifecycle rows as of the last boundary.
    pub health: Vec<wire::HealthRow>,
    /// The last completed epoch's engine counters.
    pub counters: Vec<StatRow>,
}

/// Mutable daemon state shared between the engine loop, the acceptor,
/// and every connection handler. One mutex; all critical sections are
/// short (the engine runs epochs outside it).
pub(crate) struct Control {
    /// Operations awaiting the next epoch boundary.
    pub pending: Vec<PendingOp>,
    /// Stream name → subscribed endpoints.
    pub subs: HashMap<String, Vec<SubEndpoint>>,
    /// Live connections by id.
    pub conns: HashMap<u64, ConnState>,
    /// Read-mostly state for HEALTH/STATS/WAIT_EPOCH.
    pub snapshot: Snapshot,
    /// Set once the engine has exited; further ops are refused.
    pub stopped: bool,
    /// Next connection id.
    pub next_conn: u64,
}

pub(crate) struct Shared {
    pub ctl: Mutex<Control>,
    /// Signaled at every epoch completion and at shutdown.
    pub epoch_cv: Condvar,
    pub shutdown: AtomicBool,
    /// Crash-simulation shutdown ([`DaemonHandle::halt`]): exit without
    /// the shutdown flush epoch or the durable clean-shutdown record,
    /// as a SIGKILL would.
    pub abandon: AtomicBool,
    /// Daemon-lifetime stats registry: `daemon`, `daemon:restart:<q>`,
    /// and `daemon:conn:<id>` nodes.
    pub registry: Arc<StatsRegistry>,
    pub stats: Arc<DaemonStats>,
    /// Our own bound address (the shutdown path pokes it to unblock
    /// `accept`).
    pub addr: SocketAddr,
    /// Per-connection outbound queue capacity.
    pub conn_queue_frames: usize,
}

impl Shared {
    /// Wake everything that might be blocked on daemon progress.
    pub(crate) fn request_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        self.epoch_cv.notify_all();
        // Unblock the acceptor's blocking `accept`.
        let _ = TcpStream::connect(self.addr);
    }
}

/// A running daemon. Dropping the handle shuts it down and joins its
/// threads.
pub struct DaemonHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    engine: Option<thread::JoinHandle<()>>,
    accept: Option<thread::JoinHandle<()>>,
}

impl DaemonHandle {
    /// The daemon's bound address (useful with `listen = "…:0"`).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The daemon-lifetime stats registry (`daemon`,
    /// `daemon:restart:<q>`, `daemon:conn:<id>` nodes) — the churn
    /// tests compare its row set against a baseline.
    pub fn registry(&self) -> Arc<StatsRegistry> {
        self.shared.registry.clone()
    }

    /// Block until the daemon stops on its own (a client's SHUTDOWN
    /// frame) — the `gsqd` binary's main loop.
    pub fn wait(&mut self) {
        if let Some(h) = self.engine.take() {
            let _ = h.join();
        }
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
    }

    /// Stop the daemon: finish the current epoch, close every
    /// connection, join the engine and acceptor threads. Idempotent.
    pub fn shutdown(&mut self) {
        self.shared.request_shutdown();
        if let Some(h) = self.engine.take() {
            let _ = h.join();
        }
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
    }

    /// Stop the daemon *as a crash would*: no shutdown flush epoch,
    /// no durable clean-shutdown record — the in-process equivalent of
    /// `kill -9` for the recovery tests. The durable state directory is
    /// left exactly as the last boundary published it.
    pub fn halt(&mut self) {
        self.shared.abandon.store(true, Ordering::SeqCst);
        self.shutdown();
    }
}

impl Drop for DaemonHandle {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Start a daemon from `config`: bind, register the initial program
/// (if any), spawn the engine loop and the acceptor.
pub fn start(config: DaemonConfig) -> Result<DaemonHandle, Error> {
    crate::manager::check_heartbeat(config.heartbeat)?;
    if !config.carry_state {
        return Err(Error::Config(
            "carry_state = false is not supported: every gsqd boundary carries operator state"
                .to_string(),
        ));
    }
    let mut gs = Gigascope::new();
    gs.heartbeat = config.heartbeat;
    gs.batch_size = config.batch_size;
    gs.parallelism = config.parallelism;
    if config.ifaces.is_empty() {
        gs.add_interface("eth0", 0, LinkType::Ethernet);
    }
    for (name, id, link) in &config.ifaces {
        gs.add_interface(name, *id, *link);
    }

    let registry = Arc::new(StatsRegistry::new());
    let stats = Arc::new(DaemonStats::default());
    registry.register("daemon", stats.clone());
    let mut supervisor = Supervisor::new(config.restart_budget, config.backoff_base, registry.clone());

    if let Some(program) = &config.initial_program {
        for info in gs.add_program(program)? {
            supervisor.track(&info.name);
        }
        stats.registers.inc();
    }

    // Durable checkpoint store: open the state directory and run
    // recovery before the first epoch, so the engine starts from the
    // last crash-consistent cut instead of from empty state.
    let mut durable: Option<DurableStore> = None;
    let mut recovery = Recovery::default();
    if let Some(dir) = &config.state_dir {
        let io: Arc<dyn DiskIo> = match &config.disk_faults {
            Some(plan) => Arc::new(FaultyDisk::new(plan.clone())),
            None => Arc::new(RealDisk),
        };
        let dstats = Arc::new(DurableStats::default());
        let (store, rec) =
            DurableStore::open(dir.clone(), io, config.retain_checkpoints, dstats.clone())
                .map_err(|e| Error::Config(format!("state dir {}: {e}", dir.display())))?;
        registry.register("durable", dstats);
        for note in &rec.notes {
            eprintln!("gsqd: recovery: {note}");
        }
        if rec.recovered {
            eprintln!(
                "gsqd: recovered durable state: resuming at epoch {} ({} carried nodes, {} durable markers)",
                rec.next_epoch,
                rec.carry.len(),
                rec.markers.len()
            );
        }
        durable = Some(store);
        recovery = rec;
    }

    let listener = TcpListener::bind(&config.listen)
        .map_err(|e| Error::Config(format!("bind {}: {e}", config.listen)))?;
    let addr = listener
        .local_addr()
        .map_err(|e| Error::Config(format!("local_addr: {e}")))?;

    let shared = Arc::new(Shared {
        ctl: Mutex::new(Control {
            pending: Vec::new(),
            subs: HashMap::new(),
            conns: HashMap::new(),
            snapshot: Snapshot { health: supervisor.rows(), ..Snapshot::default() },
            stopped: false,
            next_conn: 0,
        }),
        epoch_cv: Condvar::new(),
        shutdown: AtomicBool::new(false),
        abandon: AtomicBool::new(false),
        registry,
        stats,
        addr,
        conn_queue_frames: config.conn_queue_frames.max(8),
    });

    let engine = {
        let shared = shared.clone();
        // Moved, not cloned: a `Chunked` source is the whole trace.
        let source = config.source;
        let faults = config.faults;
        let fault_epochs = config.fault_epochs;
        let gap = config.epoch_gap_ms;
        thread::Builder::new()
            .name("gsqd-engine".to_string())
            .spawn(move || {
                engine_loop(
                    gs, supervisor, source, faults, fault_epochs, gap, durable, recovery, shared,
                )
            })
            .map_err(|e| Error::Config(format!("spawn engine: {e}")))?
    };
    let accept = {
        let shared = shared.clone();
        thread::Builder::new()
            .name("gsqd-accept".to_string())
            .spawn(move || conn::accept_loop(listener, shared))
            .map_err(|e| Error::Config(format!("spawn acceptor: {e}")))?
    };

    Ok(DaemonHandle { addr, shared, engine: Some(engine), accept: Some(accept) })
}

/// Apply one queued operation at an epoch boundary; returns the reply
/// to deliver *after* the boundary's snapshot update (so a client that
/// saw OK observes its effect in the very next HEALTH poll). A dropped
/// handler (disconnected client) makes that send a no-op, which is
/// correct — the operation still applied.
fn apply_op(
    op: PendingOp,
    gs: &mut Gigascope,
    sup: &mut Supervisor,
    stats: &DaemonStats,
) -> (mpsc::Sender<Result<String, String>>, Result<String, String>) {
    match op {
        PendingOp::Register { gsql, reply } => {
            let result = match gs.add_program(&gsql) {
                Ok(infos) => {
                    for info in &infos {
                        sup.track(&info.name);
                    }
                    stats.registers.inc();
                    let names: Vec<&str> = infos.iter().map(|i| i.name.as_str()).collect();
                    Ok(names.join(","))
                }
                Err(e) => Err(e.to_string()),
            };
            (reply, result)
        }
        PendingOp::Unregister { name, reply } => {
            let result = match gs.remove_program(&name) {
                Ok(()) => {
                    sup.untrack(&name);
                    stats.unregisters.inc();
                    Ok(name)
                }
                Err(e) => Err(e.to_string()),
            };
            (reply, result)
        }
    }
}

/// Subscription fan-out: `(stream, that stream's subscriber queues)`,
/// sorted by stream.
type Fanout = Vec<(String, Vec<crate::transport::Sender<Vec<u8>>>)>;

/// The fan-out of every subscribed stream in `streams` (deployed query
/// names), sorted for a deterministic build order regardless of
/// HashMap iteration.
fn build_fanout(ctl: &Control, streams: &[String]) -> Fanout {
    let mut fanout: Fanout = ctl
        .subs
        .iter()
        .filter(|(stream, eps)| !eps.is_empty() && streams.contains(stream))
        .map(|(stream, eps)| (stream.clone(), eps.iter().map(|e| e.sender.clone()).collect()))
        .collect();
    fanout.sort_by(|a, b| a.0.cmp(&b.0));
    fanout
}

/// The fan-out's streams, as a run's subscription list.
fn streams_of(fanout: &Fanout) -> Vec<&str> {
    fanout.iter().map(|(s, _)| s.as_str()).collect()
}

/// One live tap per fan-out entry: data frames tagged `epoch`, sent as
/// the run produces them.
fn fanout_taps(fanout: &Fanout, epoch: u64) -> Vec<(String, SubscriptionTap)> {
    fanout
        .iter()
        .map(|(stream, senders)| {
            let (name, senders) = (stream.clone(), senders.clone());
            let tap: SubscriptionTap = Arc::new(move |batch: &[crate::Tuple]| {
                if batch.is_empty() {
                    return;
                }
                let frame =
                    wire::encode_frame(wire::TUPLES, &wire::encode_tuples(&name, epoch, batch));
                for s in &senders {
                    s.send(1, batch.len() as u64, frame.clone());
                }
            });
            (stream.clone(), tap)
        })
        .collect()
}

/// Send the end-of-epoch marker (a zero-row TUPLES frame tagged
/// `epoch`) to every fan-out entry `skip` doesn't veto. Markers are
/// control frames: losing one would make the client miscount epochs
/// forever.
fn send_markers(fanout: &Fanout, epoch: u64, skip: impl Fn(&str) -> bool) {
    for (stream, senders) in fanout {
        if skip(stream) {
            continue;
        }
        let frame = wire::encode_frame(wire::TUPLES, &wire::encode_tuples(stream, epoch, &[]));
        for s in senders {
            s.send_control(frame.clone());
        }
    }
}

/// The query owning a manager snapshot key (`hfta:<stream>` /
/// `lfta:<stream>`, shard/LFTA mangling included).
fn snapshot_owner(key: &str) -> &str {
    query_of(key.split_once(':').map_or(key, |(_, s)| s))
}

/// The dead-letter note the durable layer surfaces through HEALTH:
/// `(last failure message, failures so far)`.
type DurableNote = Option<(String, u64)>;

/// Append the durable layer's dead-letter note (if any) to a health
/// report as a synthetic advisory row, so `gsq --health` surfaces a
/// failing state disk without any query being marked unhealthy.
fn with_durable_note(mut rows: Vec<wire::HealthRow>, note: &DurableNote) -> Vec<wire::HealthRow> {
    if let Some((msg, fails)) = note {
        rows.push(wire::HealthRow {
            query: "durable:store".to_string(),
            state: wire::LifeState::Running,
            restarts: *fails,
            reason: msg.clone(),
        });
    }
    rows
}

/// A cut's contents: the carry map and every query's cursor.
type CutToPublish<'a> = (&'a HashMap<String, Vec<u8>>, &'a HashMap<String, Cursor>);

/// Persist one epoch boundary before the caller sends its marker
/// frames: commit the emitted `(stream, epoch)` markers to the durable
/// log — at a cut (`cut` = the carry map and every query's cursor) in
/// the same record as the cut. A marker needs no cut at its own epoch —
/// recovery rebuilds the state from an older cut by a silent replay —
/// so a cut that cannot be written still commits its markers alone. A
/// write that still fails after the store's bounded retries is
/// dead-lettered: noted for HEALTH, counted in `durable:write_failed`,
/// and the daemon keeps running on its in-memory cut.
fn durable_commit(
    durable: &mut Option<DurableStore>,
    cut: Option<CutToPublish<'_>>,
    epoch: u64,
    streams: &[String],
    note: &mut DurableNote,
) {
    let Some(store) = durable.as_mut() else { return };
    let published = cut.map_or(Ok(()), |(carry, cursors)| {
        let cursors: HashMap<String, u64> =
            cursors.iter().map(|(q, c)| (q.clone(), c.cut)).collect();
        store.checkpoint(epoch + 1, carry, &cursors, streams)
    });
    let logged = store.log_markers(epoch, streams).inspect_err(|_| {
        // Count it with the failed cut writes, so the counter
        // reflects every dead-lettered durable write.
        store.stats().write_failed.inc();
    });
    if let Err(e) = published.and(logged) {
        let fails = note.as_ref().map_or(0, |(_, n)| *n);
        let msg = format!(
            "checkpoint dead-lettered at epoch boundary {}: {e}; running on in-memory cut",
            epoch + 1
        );
        eprintln!("gsqd: durable: {msg}");
        *note = Some((msg, fails + 1));
    }
}

/// The names of the deployed queries `pick` accepts, in catalog order.
fn names(gs: &Gigascope, pick: impl Fn(&String) -> bool) -> Vec<String> {
    gs.queries().iter().map(|d| d.name.clone()).filter(|q| pick(q)).collect()
}

/// The transitive upstream closure of `seeds` among deployed queries:
/// the seeds and every query whose output stream one of them
/// (transitively) reads through a `StreamScan`. Linear in the deployed
/// queries and their edges.
fn upstream_closure(gs: &Gigascope, seeds: impl IntoIterator<Item = String>) -> HashSet<String> {
    let mut need: Vec<String> = seeds.into_iter().collect();
    let mut closure: HashSet<String> = need.iter().cloned().collect();
    if need.is_empty() {
        return closure;
    }
    let deployed: HashMap<&str, _> = gs.queries().iter().map(|d| (d.name.as_str(), d)).collect();
    while let Some(q) = need.pop() {
        let Some(hfta) = deployed.get(q.as_str()).and_then(|d| d.hfta.as_ref()) else { continue };
        for s in hfta.upstream_streams() {
            let owner = query_of(&s);
            if deployed.contains_key(owner) && closure.insert(owner.to_string()) {
                need.push(owner.to_string());
            }
        }
    }
    closure
}

/// The deployed queries outside `seeds` that read, directly or
/// transitively, a stream of one of `seeds`: the mirror of
/// [`upstream_closure`].
fn downstream_closure(gs: &Gigascope, seeds: &HashSet<String>) -> Vec<String> {
    if seeds.is_empty() {
        return Vec::new();
    }
    names(gs, |q| {
        !seeds.contains(q) && upstream_closure(gs, [q.clone()]).iter().any(|u| seeds.contains(u))
    })
}

/// Sleep `ms` milliseconds in steps of at most 10 ms, waking early on
/// shutdown.
fn pause(shared: &Shared, ms: u64) {
    let mut slept = 0;
    while slept < ms && !shared.shutdown.load(Ordering::SeqCst) {
        let step = (ms - slept).min(10);
        thread::sleep(Duration::from_millis(step));
        slept += step;
    }
}

/// The cut rule's hold-back at a cut that seals `sealing`: an upstream's
/// cut is never past a consumer's, so every query with a cursor that
/// does not seal, and its whole upstream closure, keeps its old bytes
/// and its old `cut`. A reaped query has no cursor and holds nothing.
fn held_back(
    gs: &Gigascope,
    cursors: &HashMap<String, Cursor>,
    sealing: &HashSet<&str>,
) -> HashSet<String> {
    upstream_closure(gs, cursors.keys().filter(|q| !sealing.contains(q.as_str())).cloned())
}

/// Catch-up: bring every laggard level with `epoch` before it runs. A
/// laggard is a runnable query that holds no live operators (it
/// faulted, sat out a backoff, or the daemon recovered) and whose cut is
/// before `epoch`. Its inputs are other queries' outputs, so it replays
/// with its whole upstream closure: the live epoch's own step, run on a
/// throw-away [`Stepper`] from the closure's oldest cut, faults disarmed
/// (a replay is a retry). Each member joins at its own cut, from its
/// bytes or empty; [`held_back`] keeps every upstream's cut at or before
/// its consumers', so each member sees exactly its live input — a
/// laggard found behind its upstream's cut restarts empty instead. Only a
/// laggard is tapped and marked, from its own `next`, each owed epoch a
/// step of its own whose markers are committed before they are sent. A
/// stretch in which no member joins and nothing is emitted is one `hold`
/// (`daemon`/`replayed_epochs` counts those epochs). The last step seals
/// the laggards level with `epoch`; the replay's operators are dropped,
/// so the live epoch restores exactly the laggards from bytes — a
/// held-back laggard's only from the returned restore map.
///
/// Returns the laggards left behind — all of them, when a fault,
/// shutdown or a failed build ends the replay before its seal — to sit
/// the epoch out, and the bytes the live epoch restores from.
#[allow(clippy::too_many_arguments)]
fn catch_up(
    gs: &mut Gigascope,
    supervisor: &mut Supervisor,
    source: &PacketSource,
    carry: &mut Arc<HashMap<String, Vec<u8>>>,
    cursors: &mut HashMap<String, Cursor>,
    stepper: &Stepper,
    epoch: u64,
    excluded: &[String],
    durable: &mut Option<DurableStore>,
    durable_note: &mut DurableNote,
    shared: &Arc<Shared>,
) -> (Vec<String>, Arc<HashMap<String, Vec<u8>>>) {
    let mut laggards = names(gs, |q| {
        !excluded.contains(q) && !stepper.holds(q) && cursors.get(q).is_some_and(|c| c.cut < epoch)
    });
    // The cut invariant, checked: a laggard with an upstream whose cut is
    // past its own cannot replay exactly — that upstream's state at its
    // cut is gone. Only a recovered query re-registered after its
    // upstream sealed without it (an undeployed query's cursor holds
    // nothing back), or a state dir written without the rule, gets here.
    // It restarts empty at `epoch`, owing nothing, with a HEALTH note;
    // that can strand its own consumers, so repeat until none is left.
    let cut = |q: &str, cursors: &HashMap<String, Cursor>| cursors.get(q).map(|c| c.cut);
    while let Some(i) = laggards.iter().position(|q| {
        upstream_closure(gs, [q.clone()]).iter().any(|u| cut(u, cursors) > cut(q, cursors))
    }) {
        let q = laggards.swap_remove(i);
        let msg = format!("replay refused: `{q}` lags an upstream cut; restarts empty at {epoch}");
        eprintln!("gsqd: {msg}");
        *durable_note = Some((msg, durable_note.as_ref().map_or(0, |(_, n)| *n)));
        Arc::make_mut(carry).retain(|k, _| snapshot_owner(k) != q);
        cursors.insert(q, Cursor { cut: epoch, next: epoch });
    }
    let members: Vec<(String, u64)> = upstream_closure(gs, laggards.iter().cloned())
        .into_iter()
        .filter_map(|q| cursors.get(&q).map(|c| (q, c.cut)))
        .collect();
    let Some(mut e) = members.iter().map(|(_, cut)| *cut).min() else {
        return (Vec::new(), carry.clone());
    };
    // From the first owed epoch on, every epoch is a step of its own.
    let owed = laggards.iter().map(|q| cursors[q].next).min().unwrap_or(epoch);
    let mut replay = Stepper::default();
    let mut level_bytes: HashMap<String, Vec<u8>> = HashMap::new();
    gs.faults = None;
    while e < epoch && !shared.shutdown.load(Ordering::SeqCst) {
        let joins = members.iter().map(|(_, cut)| *cut).filter(|cut| *cut > e);
        let to = if e >= owed { e + 1 } else { joins.chain([owed, epoch]).min().unwrap_or(epoch) };
        let emitting: Vec<String> =
            laggards.iter().filter(|q| cursors[*q].next <= e).cloned().collect();
        let fanout = build_fanout(&lock(&shared.ctl), &emitting);
        let opts = ThreadedOptions {
            taps: fanout_taps(&fanout, e),
            exclude: names(gs, |q| !members.iter().any(|(m, cut)| m == q && *cut <= e)),
            capture: true,
            restore: Some(carry.clone()),
            ..ThreadedOptions::default()
        };
        // A replay spans many epochs: generate them one at a time, as
        // the step consumes them, rather than hold the whole span.
        let packets = (e..to).flat_map(|k| source.epoch_packets(k).into_owned());
        let subs = streams_of(&fanout);
        let stepped = if to == epoch {
            replay.step(gs, packets, &subs, opts)
        } else {
            replay.hold(gs, packets, &subs, opts)
        };
        let out = match stepped {
            Ok(out) => out,
            Err(_) => {
                shared.stats.run_errors.inc();
                break;
            }
        };
        supervisor.observe(epoch, &out.health);
        let marked: Vec<String> = emitting.into_iter().filter(|q| !out.health.failed(q)).collect();
        if marked.is_empty() {
            shared.stats.replayed_epochs.add(to - e);
        } else {
            for q in &marked {
                if let Some(c) = cursors.get_mut(q) {
                    c.next = to;
                }
            }
            // No cut: the durable cut keeps lagging until the next
            // cut, and recovery replays past it.
            durable_commit(durable, None, e, &marked, durable_note);
            send_markers(&fanout, e, |s| out.health.failed(s));
        }
        // Faults are disarmed, so this one is real: whatever reads the
        // faulted member's output from here on would replay wrong.
        if members.iter().any(|(q, _)| out.health.failed(q)) {
            break;
        }
        if to == epoch {
            let sealing: HashSet<&str> = laggards.iter().map(String::as_str).collect();
            let keep = held_back(gs, cursors, &sealing);
            for (k, v) in
                out.snapshots.into_iter().filter(|(k, _)| sealing.contains(snapshot_owner(k)))
            {
                let held = keep.contains(snapshot_owner(&k));
                if held { &mut level_bytes } else { Arc::make_mut(carry) }.insert(k, v);
            }
            for q in sealing.iter().filter(|q| !keep.contains(**q)) {
                if let Some(c) = cursors.get_mut(*q) {
                    c.cut = epoch;
                }
            }
        }
        e = to;
    }
    // Only a completed replay, whose last step sealed, ends at `epoch`.
    let stale = if e < epoch { laggards } else { Vec::new() };
    let mut restore = carry.clone();
    if !level_bytes.is_empty() {
        Arc::make_mut(&mut restore).extend(level_bytes);
    }
    (stale, restore)
}

#[allow(clippy::too_many_arguments)]
fn engine_loop(
    mut gs: Gigascope,
    mut supervisor: Supervisor,
    source: PacketSource,
    faults: Option<FaultPlan>,
    fault_epochs: Range<u64>,
    epoch_gap_ms: u64,
    mut durable: Option<DurableStore>,
    recovery: Recovery,
    shared: Arc<Shared>,
) {
    // Durable recovery seeds the engine state: resume past the last
    // durable marker, with the restored cut and each query's cursor —
    // catch-up replays what the cut lags — instead of epoch 0 from
    // empty state.
    let mut epoch: u64 = recovery.next_epoch;
    // The operators themselves, stepped from epoch to epoch;
    // the last good sealed snapshot of every node (the daemon's
    // checkpoint — what the durable store persists and what a query
    // without live operators is rebuilt from); each query's cursor — the
    // epoch its checkpoint bytes stand at, and the next epoch whose
    // output it has not emitted; and the cut rule's running debt.
    // The checkpoint sits in an `Arc` so an epoch can borrow it as
    // `ThreadedOptions::restore` without copying it; nothing else holds
    // a reference between epochs, so `make_mut` never clones.
    let mut stepper = Stepper::default();
    let mut cursors: HashMap<String, Cursor> =
        recovery.cursors.keys().map(|q| (q.clone(), recovery.resume(q))).collect();
    let mut carry: Arc<HashMap<String, Vec<u8>>> = Arc::new(recovery.carry);
    let mut cadence = Cadence::default();
    let mut durable_note: DurableNote = recovery
        .notes
        .first()
        .map(|n| (format!("recovery: {n}"), 0));
    // A recovered daemon pauses one epoch gap before its first
    // boundary, so subscribers racing the restart can reattach before
    // the resumed epoch's frames flow.
    if recovery.recovered && epoch > 0 {
        pause(&shared, epoch_gap_ms);
    }
    while !shared.shutdown.load(Ordering::SeqCst) {
        // ---- Epoch boundary: apply ops, wake backoffs, clone fan-out -
        let (mut exclude, mut fanout, mut running) = {
            let mut ctl = lock(&shared.ctl);
            let mut removed: Vec<String> = Vec::new();
            let replies: Vec<_> = ctl
                .pending
                .drain(..)
                .map(|op| {
                    if let PendingOp::Unregister { name, .. } = &op {
                        removed.push(name.clone());
                    }
                    apply_op(op, &mut gs, &mut supervisor, &shared.stats)
                })
                .collect();
            // A query in backoff takes its consumers out with it: run on
            // the empty input the backoff leaves them, they would emit and
            // mark epochs the query's replay later fills. Excluded, they
            // keep their cursors and replay with it, from one consistent
            // cut, when the backoff ends. A Dead query's consumers run on
            // — holding them would hold every upstream's cut forever.
            let mut excluded = supervisor.excluded(epoch);
            let dead = supervisor.dead();
            let backoff: HashSet<String> =
                excluded.iter().filter(|q| !dead.contains(q)).cloned().collect();
            excluded.extend(downstream_closure(&gs, &backoff));
            ctl.snapshot.health = with_durable_note(supervisor.rows(), &durable_note);
            for (reply, result) in replies {
                let _ = reply.send(result);
            }
            // Reap state that can never be resumed again, live and
            // sealed alike: unregistered queries (a re-REGISTER is a
            // fresh life that must start from empty windows) and Dead
            // ones (excluded until re-registered). Without this,
            // lifecycle churn would leak dead queries' carried state
            // forever.
            for q in removed.iter().chain(&dead) {
                stepper.forget(q);
                Arc::make_mut(&mut carry).retain(|k, _| snapshot_owner(k) != q);
                cursors.remove(q);
            }
            let running = names(&gs, |q| !excluded.contains(q));
            // A stream's marker is sent only when its epoch actually ran
            // — catch-up replay delivers the missed ones later, in
            // epoch order, so subscribers see exactly one marker per
            // (stream, epoch).
            let fanout = build_fanout(&ctl, &running);
            (excluded, fanout, running)
        };
        // A reaped (Dead) query gets no cursor back: it holds no
        // upstream's cut back, and never replays.
        for q in &running {
            cursors.entry(q.clone()).or_insert(Cursor { cut: epoch, next: epoch });
        }
        // Replay whatever the runnable queries missed, THEN run the
        // current epoch; a laggard catch-up could not bring level sits
        // it out — run from its bytes, it would skip what it owes.
        let (stale, restore) = catch_up(
            &mut gs,
            &mut supervisor,
            &source,
            &mut carry,
            &mut cursors,
            &stepper,
            epoch,
            &exclude,
            &mut durable,
            &mut durable_note,
            &shared,
        );
        running.retain(|q| !stale.contains(q));
        fanout.retain(|(s, _)| !stale.contains(s));
        exclude.extend(stale);

        // ---- Run the epoch (engine holds no locks) -------------------
        let active_queries = gs.queries().iter().filter(|d| !exclude.contains(&d.name)).count();
        let mut epoch_health = RunHealth::default();
        let ran = if active_queries > 0 {
            gs.faults = match (&faults, fault_epochs.contains(&epoch)) {
                (Some(plan), true) => Some(plan.clone()),
                _ => None,
            };
            let packets = source.epoch_packets(epoch);
            // A boundary seals a cut only when the cadence says the
            // traffic since the last one has paid for it; every other
            // boundary just steps the live operators on.
            let cut = cadence.boundary(packets.len() as u64);
            let opts = ThreadedOptions {
                taps: fanout_taps(&fanout, epoch),
                exclude,
                capture: true,
                restore: (!restore.is_empty()).then_some(restore),
                ..ThreadedOptions::default()
            };
            let (packets, subs) = (packets.iter(), streams_of(&fanout));
            let stepped = if cut {
                stepper.step(&gs, packets, &subs, opts)
            } else {
                stepper.hold(&gs, packets, &subs, opts)
            };
            match stepped {
                Ok(out) => {
                    supervisor.observe(epoch, &out.health);
                    shared.stats.nodes_restored.add(out.nodes_restored);
                    let completed: Vec<String> =
                        running.iter().filter(|q| !out.health.failed(q)).cloned().collect();
                    // A faulted query's cut is incomplete (its node wrote
                    // nothing); it and its upstreams keep their old bytes.
                    let keep =
                        held_back(&gs, &cursors, &completed.iter().map(String::as_str).collect());
                    for q in &completed {
                        if let Some(c) = cursors.get_mut(q) {
                            c.next = epoch + 1;
                            if cut && !keep.contains(q) {
                                c.cut = epoch + 1;
                            }
                        }
                    }
                    if cut {
                        let sealed = out.snapshots.into_iter();
                        Arc::make_mut(&mut carry)
                            .extend(sealed.filter(|(k, _)| !keep.contains(snapshot_owner(k))));
                        cadence.sealed(stepper.held());
                        shared.stats.cuts.inc();
                    }
                    // Publish the cut (if this is one) and commit the
                    // epoch's markers durably before the close block sends
                    // the marker frames.
                    durable_commit(
                        &mut durable,
                        cut.then_some((&*carry, &cursors)),
                        epoch,
                        &completed,
                        &mut durable_note,
                    );
                    let mut ctl = lock(&shared.ctl);
                    ctl.snapshot.counters = out.counters;
                    drop(ctl);
                    epoch_health = out.health;
                    true
                }
                Err(_) => {
                    shared.stats.run_errors.inc();
                    false
                }
            }
        } else {
            true // an empty epoch completes trivially
        };

        // ---- Close the epoch: markers, snapshot, wake waiters --------
        {
            let mut ctl = lock(&shared.ctl);
            if active_queries == 0 {
                // Counters describe "the last completed epoch"; an
                // empty catalog has none (the churn test's baseline).
                ctl.snapshot.counters.clear();
            }
            // A failed (or errored) epoch sends no marker for the
            // affected stream — its replay will, keeping the
            // subscriber's epoch sequence gapless and in order.
            send_markers(&fanout, epoch, |s| !ran || epoch_health.failed(s));
            ctl.snapshot.health = with_durable_note(supervisor.rows(), &durable_note);
            ctl.snapshot.epochs_done = epoch + 1;
            shared.stats.epochs.set(epoch + 1);
            shared.epoch_cv.notify_all();
        }
        epoch += 1;

        // ---- Pace ----------------------------------------------------
        let gap = if active_queries == 0 || !ran {
            // Idle (or failing) daemon: don't spin the boundary hot.
            epoch_gap_ms.max(1)
        } else {
            epoch_gap_ms
        };
        if gap == 0 {
            // Zero-gap pacing must still hand the core back between
            // epochs: without this the boundary hot-loops and starves
            // sibling threads (the `--epoch-gap 0` busy-spin bug).
            thread::yield_now();
        } else {
            pause(&shared, gap);
        }
    }

    // ---- Shutdown flush ----------------------------------------------
    // Capture mode held every open window instead of flushing it; one
    // final flushing step (no packets, capture OFF) finishes the live
    // operators — or, for a daemon stopped before its first epoch, the
    // ones rebuilt from the recovered cut — and emits those tails, so
    // the session's total output equals one continuous run over every
    // epoch's packets. Only fully caught-up queries flush — live, or
    // with bytes level with their output — since a query still in
    // backoff, or whose cut lags, holds a stale cut whose tail would be
    // wrong mid-stream.
    // An abandoned engine ([`DaemonHandle::halt`]) dies like a SIGKILL:
    // no flush epoch, no clean-shutdown record — the state directory is
    // left exactly as the last boundary published it, for recovery to
    // resume from.
    // Something is held if the checkpoint has bytes — even ones no
    // deployed query owns yet, recovered for a query not re-registered —
    // or a deployed query has live operators: the bytes alone can be
    // empty while a query registered after the last cut holds open
    // windows.
    let abandoned = shared.abandon.load(Ordering::SeqCst);
    let held = !carry.is_empty() || gs.queries().iter().any(|d| stepper.holds(&d.name));
    let mut flushed = false;
    if held && !abandoned {
        let excluded = supervisor.excluded(epoch);
        let flush = names(&gs, |q| {
            !excluded.contains(q)
                && (stepper.holds(q) || cursors.get(q).is_none_or(|c| c.cut == epoch))
        });
        if !flush.is_empty() {
            let fanout = build_fanout(&lock(&shared.ctl), &flush);
            let opts = ThreadedOptions {
                taps: fanout_taps(&fanout, epoch),
                exclude: names(&gs, |q| !flush.contains(q)),
                capture: false,
                restore: Some(std::mem::take(&mut carry)),
                ..ThreadedOptions::default()
            };
            gs.faults = None;
            if let Ok(out) =
                stepper.step(&gs, std::iter::empty::<CapPacket>(), &streams_of(&fanout), opts)
            {
                shared.stats.nodes_restored.add(out.nodes_restored);
                // The flush emitted every held tail: record the clean
                // shutdown (which retires every cut and marker before it)
                // before the final marker frames go out.
                if let Some(store) = durable.as_mut() {
                    if let Err(e) = store.log_shutdown(epoch + 1) {
                        eprintln!("gsqd: durable: shutdown record failed: {e}");
                    }
                }
                flushed = true;
                send_markers(&fanout, epoch, |s| out.health.failed(s));
                let mut ctl = lock(&shared.ctl);
                ctl.snapshot.epochs_done = epoch + 1;
                shared.stats.epochs.set(epoch + 1);
                shared.epoch_cv.notify_all();
            }
        }
    }
    // A clean exit that held nothing still records the shutdown, so the
    // next start knows nothing was lost (and keeps the epoch numbering
    // monotone across sessions). If something *was* held and the flush
    // didn't complete, no record is written — recovery must resume and
    // flush it later.
    if !abandoned && !flushed && !held {
        if let Some(store) = durable.as_mut() {
            if let Err(e) = store.log_shutdown(epoch) {
                eprintln!("gsqd: durable: shutdown record failed: {e}");
            }
        }
    }

    // ---- Teardown: refuse stragglers, close every connection ---------
    let mut ctl = lock(&shared.ctl);
    ctl.stopped = true;
    for op in ctl.pending.drain(..) {
        let reply = match op {
            PendingOp::Register { reply, .. } => reply,
            PendingOp::Unregister { reply, .. } => reply,
        };
        let _ = reply.send(Err("daemon shutting down".to_string()));
    }
    // Give writers a short grace to flush already-queued replies (a
    // final "OK shutting down" should reach its client), then close the
    // queues and cut the read side, ending the handlers: a writer exits
    // once the frame in its hands — often the flush's marker — is
    // written, so the FIN follows it. A writer still writing after a
    // second grace is stuck on a client that stopped reading; cutting
    // the write side too fails that write, so its handler can exit.
    let clone = |c: &ConnState| Some((c.stream.try_clone().ok()?, c.chan.clone()));
    let conns: Vec<_> = ctl.conns.values().filter_map(clone).collect();
    shared.epoch_cv.notify_all();
    drop(ctl);
    let grace = |done: fn(&crate::transport::Channel<Vec<u8>>) -> bool| {
        let deadline = std::time::Instant::now() + Duration::from_millis(200);
        while !conns.iter().all(|(_, c)| done(c)) && std::time::Instant::now() < deadline {
            thread::sleep(Duration::from_millis(2));
        }
    };
    grace(|c| c.progress().1 == 0);
    for (stream, chan) in &conns {
        let _ = stream.shutdown(Shutdown::Read);
        chan.force_close();
    }
    grace(|c| !c.receiver_alive());
    for (stream, _) in conns.iter().filter(|(_, c)| c.receiver_alive()) {
        let _ = stream.shutdown(Shutdown::Both);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gs_packet::builder::FrameBuilder;

    /// Every source hands out one ordered stream, however it is sliced:
    /// epoch `k + 1` never starts before epoch `k` ends, and an epoch's
    /// packets regenerate identically.
    #[test]
    fn every_source_is_time_continuous_and_regenerable() {
        let frame = FrameBuilder::tcp(0x0a00_0001, 0xc0a8_0001, 1024, 80).build_ethernet();
        // 1.2 s of trace from t = 5 s, its latest packet out of order (the
        // first and last in trace order are only 0.9 s apart): each loop
        // shifts by 2 s.
        let at = |ts_ns: u64| CapPacket::full(ts_ns, 0, LinkType::Ethernet, frame.clone());
        let trace: Vec<CapPacket> =
            [0, 3, 12, 6, 9].iter().map(|i| at(5_000_000_000 + i * 100_000_000)).collect();
        let replay = PacketSource::Replay(trace);
        assert_eq!(replay.epoch_packets(2)[0].ts_ns, 9_000_000_000);
        let synthetic = PacketSource::Synthetic { mbps: 20.0, epoch_ms: 20, seed: 3 };
        let chunked = PacketSource::chunked_synthetic(20.0, 20, 4, 3);
        for (name, source) in [("synthetic", synthetic), ("replay", replay), ("chunked", chunked)] {
            for k in 0..3 {
                let (this, next) = (source.epoch_packets(k), source.epoch_packets(k + 1));
                let last = this.iter().map(|p| p.ts_ns).max().expect("packets");
                let first = next.iter().map(|p| p.ts_ns).min().expect("packets");
                assert!(first >= last, "{name}: epoch {} runs back in time", k + 1);
                assert!(this == source.epoch_packets(k), "{name}: epoch {k} is not regenerable");
            }
        }
    }

    /// A chunked source lends each epoch its chunk; nothing is cloned.
    #[test]
    fn chunked_epochs_are_borrowed() {
        let source = PacketSource::chunked_synthetic(20.0, 20, 2, 3);
        for k in 0..3 {
            assert!(matches!(source.epoch_packets(k), Cow::Borrowed(_)), "epoch {k}");
        }
        let PacketSource::Chunked(chunks) = &source else { unreachable!() };
        assert!(std::ptr::eq(&*source.epoch_packets(1), chunks[1].as_slice()));
    }
}
