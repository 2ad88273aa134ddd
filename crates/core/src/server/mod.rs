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
//! each epoch is one [`Stepper::step`] over that epoch's packets
//! ([`PacketSource::epoch_packets`]). Registrations, removals,
//! subscription changes, and lifecycle decisions all apply at epoch
//! boundaries, which makes the daemon's behavior exactly reproducible:
//! the frames a subscriber receives for epoch `k` equal the one-shot
//! engine's output over the same packets — the invariant the protocol
//! test battery checks. In carry mode a boundary is a *step*, not a
//! rebuild: the stepper hands every healthy query's operators, windows
//! open, straight to the next epoch. Only a boundary the [`Cadence`]
//! rule picks is a *cut* that seals the operators into bytes (and, with
//! a state directory, publishes them); those bytes are read back only
//! where no live operator exists (recovery, replay after a fault, a
//! query's first epoch), after a silent replay of whatever the cut lags.
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
use crate::manager::{run_threaded_opts, Stepper, SubscriptionTap, ThreadedOptions};
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
use std::collections::HashMap;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::ops::Range;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread;
use std::time::Duration;
use supervisor::Supervisor;

/// Where each epoch's packets come from.
#[derive(Debug, Clone)]
pub enum PacketSource {
    /// Deterministic synthetic traffic: epoch `k` replays the standard
    /// mix generator with seed `seed + k`, so any epoch's packets can
    /// be regenerated independently (the equivalence tests do).
    Synthetic {
        /// Total offered load in Mbit/s (HTTP mix up to 60, the rest
        /// background).
        mbps: f64,
        /// Simulated capture duration per epoch, in milliseconds.
        epoch_ms: u64,
        /// Base seed; epoch `k` uses `seed.wrapping_add(k)`.
        seed: u64,
    },
    /// Replay the same fixed trace every epoch.
    Replay(Vec<CapPacket>),
    /// Pre-sliced chunks of one continuous trace: epoch `k` replays
    /// chunk `k`; epochs past the last chunk are empty. Unlike
    /// [`PacketSource::Replay`]/[`PacketSource::Synthetic`], virtual
    /// time advances monotonically across epochs — the shape carried
    /// operator state ([`DaemonConfig::carry_state`]) requires, since a
    /// restored watermark must never sit ahead of the next epoch's
    /// clock.
    Chunked(Vec<Vec<CapPacket>>),
}

impl PacketSource {
    /// The packets of epoch `epoch`, regenerable by anyone holding the
    /// same source description.
    pub fn epoch_packets(&self, epoch: u64) -> Vec<CapPacket> {
        match self {
            PacketSource::Synthetic { mbps, epoch_ms, seed } => PacketMix::new(MixConfig {
                seed: seed.wrapping_add(epoch),
                duration_ms: *epoch_ms,
                http_rate_mbps: mbps.min(60.0),
                background_rate_mbps: (mbps - 60.0).max(0.0),
                ..MixConfig::default()
            })
            .collect(),
            PacketSource::Replay(packets) => packets.clone(),
            PacketSource::Chunked(chunks) => {
                chunks.get(epoch as usize).cloned().unwrap_or_default()
            }
        }
    }

    /// One continuous synthetic trace of `epochs * epoch_ms` virtual
    /// milliseconds, sliced into per-epoch chunks on window boundaries
    /// (chunk `k` covers `[k*epoch_ms, (k+1)*epoch_ms)`). The
    /// concatenation of every epoch's packets is exactly the continuous
    /// trace — the reference the carry-mode equivalence tests compare
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
    /// Carry-mode boundaries that sealed a cut (with a state directory,
    /// each one a published segment); `epochs - cuts` boundaries
    /// committed only their markers.
    pub cuts: Counter,
    /// Epochs re-run without emitting, to rebuild a query's state from
    /// a cut that lagged its output — after a recovery or a fault. The
    /// replay debt the cut cadence traded for its saved writes.
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
    /// Carry operator state across epochs: every epoch runs in capture
    /// mode (open windows stay open instead of being flushed) and the
    /// next epoch steps the same live operators on; a boundary the
    /// [`Cadence`] rule picks also seals them into a checkpoint. A
    /// reprovisioned query resumes from its last checkpoint, silently
    /// replays what that checkpoint lags, then replays the epochs it
    /// missed; shutdown runs a final flush epoch that emits the held
    /// tails. Off by
    /// default: the per-epoch equivalence invariant (epoch `k`'s frames
    /// equal the one-shot engine over epoch `k`'s packets) only holds
    /// without carry. Use with a time-continuous source
    /// ([`PacketSource::Chunked`]) — per-epoch clocks that restart at
    /// zero would trip restored watermarks.
    pub carry_state: bool,
    /// Per-connection outbound queue capacity, in frames; overflow
    /// sheds that connection's newest data frames.
    pub conn_queue_frames: usize,
    /// Durable checkpoint directory. When set (requires
    /// [`carry_state`](Self::carry_state)), every cut is persisted
    /// crash-consistently and every epoch's markers are committed to
    /// an fsynced log, and a restarted daemon pointed at the same
    /// directory rebuilds its windows from the newest cut plus a silent
    /// replay of the epochs the markers confirm past it — resuming
    /// mid-window, exactly once, instead of from empty state.
    pub state_dir: Option<PathBuf>,
    /// Checkpoints the durable store's GC retains (older segments are
    /// pruned at checkpoint boundaries). Clamped to at least 2: a crash
    /// between a cut's publish and its markers falls back to the one
    /// before.
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
            carry_state: false,
            conn_queue_frames: 1024,
            state_dir: None,
            retain_checkpoints: 3,
            disk_faults: None,
        }
    }
}

/// Poison-tolerant lock (the daemon outlives any panicking holder).
fn lock<'a, T>(m: &'a Mutex<T>) -> MutexGuard<'a, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
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
    /// the carry-mode flush epoch or the durable clean-shutdown record,
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

    /// Stop the daemon *as a crash would*: no carry-mode flush epoch,
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
        if !config.carry_state {
            return Err(Error::Config(
                "state_dir requires carry_state (a durable cut is a carried cut)".to_string(),
            ));
        }
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
        let carry = config.carry_state;
        thread::Builder::new()
            .name("gsqd-engine".to_string())
            .spawn(move || {
                engine_loop(
                    gs, supervisor, source, faults, fault_epochs, gap, carry, durable, recovery,
                    shared,
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

/// Apply one queued operation at an epoch boundary. The reply is sent
/// over the handler's channel; a dropped handler (disconnected client)
/// makes the send a no-op, which is correct — the operation still
/// applied.
/// Apply one queued operation; returns the reply to deliver *after*
/// the boundary's snapshot update (so a client that saw OK observes
/// its effect in the very next HEALTH poll).
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

/// Marker fan-out: `(stream, that stream's subscriber queues)`.
type MarkerFanout = Vec<(String, Vec<crate::transport::Sender<Vec<u8>>>)>;

/// Build the subscription fan-out for one run over `ctl.subs`: live
/// taps (data frames tagged `epoch`) for every subscribed deployed
/// stream in `tap_set`, and end-of-run marker senders for every
/// subscribed deployed stream in `marker_set`. Sorted for a
/// deterministic build order regardless of HashMap iteration.
fn build_fanout(
    ctl: &Control,
    gs: &Gigascope,
    tap_set: &[String],
    marker_set: &[String],
    epoch: u64,
) -> (Vec<(String, SubscriptionTap)>, Vec<String>, MarkerFanout) {
    let mut sub_names: Vec<String> = Vec::new();
    let mut taps: Vec<(String, SubscriptionTap)> = Vec::new();
    let mut markers: MarkerFanout = Vec::new();
    for (stream, eps) in ctl.subs.iter() {
        if eps.is_empty() || !gs.queries().iter().any(|d| &d.name == stream) {
            continue;
        }
        let senders: Vec<_> = eps.iter().map(|e| e.sender.clone()).collect();
        if marker_set.iter().any(|s| s == stream) {
            markers.push((stream.clone(), senders.clone()));
        }
        if !tap_set.iter().any(|s| s == stream) {
            continue;
        }
        sub_names.push(stream.clone());
        let name = stream.clone();
        taps.push((
            stream.clone(),
            Arc::new(move |batch: &[crate::Tuple]| {
                if batch.is_empty() {
                    return;
                }
                let frame =
                    wire::encode_frame(wire::TUPLES, &wire::encode_tuples(&name, epoch, batch));
                for s in &senders {
                    s.send(1, batch.len() as u64, frame.clone());
                }
            }) as SubscriptionTap,
        ));
    }
    sub_names.sort();
    markers.sort_by(|a, b| a.0.cmp(&b.0));
    (taps, sub_names, markers)
}

/// Send the end-of-epoch marker (a zero-row TUPLES frame tagged
/// `epoch`) to every fan-out entry `skip` doesn't veto. Markers are
/// control frames: losing one would make the client miscount epochs
/// forever.
fn send_markers(markers: &MarkerFanout, epoch: u64, skip: impl Fn(&str) -> bool) {
    for (stream, senders) in markers {
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

/// Fold one capture run's sealed snapshots into the carried checkpoint,
/// skipping every entry owned by a query the run quarantined: its cut
/// is incomplete (the faulted node wrote nothing), and restoring the
/// surviving fragments would be silently wrong. The failed query keeps
/// its previous checkpoint and replays the epoch from there.
fn merge_snapshots(
    carry: &mut HashMap<String, Vec<u8>>,
    snaps: HashMap<String, Vec<u8>>,
    health: &RunHealth,
) {
    for (k, v) in snaps {
        if !health.failed(snapshot_owner(&k)) {
            carry.insert(k, v);
        }
    }
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

/// A cut's segment contents: the carry map and every query's cursor.
type CutToPublish<'a> = (&'a HashMap<String, Vec<u8>>, &'a HashMap<String, Cursor>);

/// Persist one epoch boundary before the caller sends its marker
/// frames: at a cut (`cut` = the carry map and every query's cursor),
/// publish the segment crash-consistently first; then, at every
/// boundary, commit the emitted `(stream, epoch)` markers to the
/// durable log. A marker needs no segment at its own epoch — recovery
/// rebuilds the state from an older cut by a silent replay — so a
/// failed publish still commits the markers. A write that still fails
/// after the store's bounded retries is dead-lettered: noted for
/// HEALTH, counted in `durable:write_failed`, and the daemon keeps
/// running on its in-memory cut.
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
        // Count it with the failed segment writes, so the counter
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

/// Whether a query standing at `c` can run epoch `epoch`: it owes no
/// earlier epoch, and its state is `live` or its bytes are level with
/// its output.
fn level(c: &Cursor, epoch: u64, live: bool) -> bool {
    c.next >= epoch && (live || c.cut == c.next)
}

/// The transitive upstream closure of `parts` among deployed queries:
/// every query whose output stream a member (transitively) reads
/// through a `StreamScan`. A catch-up replay must run these as support
/// queries — without its producers a laggard would replay over empty
/// inputs and checkpoint silently wrong state.
fn upstream_closure(gs: &Gigascope, parts: &[String]) -> Vec<String> {
    let mut need: Vec<String> = parts.to_vec();
    let mut i = 0;
    while i < need.len() {
        let q = need[i].clone();
        i += 1;
        let Some(dq) = gs.queries().iter().find(|d| d.name == q) else { continue };
        let Some(h) = &dq.hfta else { continue };
        for s in h.upstream_streams() {
            let owner = query_of(&s).to_string();
            if owner != q
                && gs.queries().iter().any(|d| d.name == owner)
                && !need.contains(&owner)
            {
                need.push(owner);
            }
        }
    }
    need
}

/// Carry-mode catch-up: bring every runnable query that trails the
/// current epoch level with it, with fault injection disarmed — a
/// replay is a retry. Packets are regenerable from the source by
/// construction. Two kinds of trailing, repaired in this order:
///
/// - **A cut that lags the output** (`cut < next`, for a query that
///   holds no live operators — it faulted, or the daemon recovered,
///   between two cuts): `[cut, next)` is replayed from the query's
///   bytes as ONE run over the concatenated packets, untapped and
///   unmarked — those epochs were emitted already. Output is a function
///   of the input, never of how it is sliced into epochs, so the run
///   rebuilds exactly the state the query lost
///   (`daemon`/`replayed_epochs` counts these epochs).
/// - **Owed output** (`next < epoch`: backoff epochs, faulted epochs):
///   re-processed one epoch at a time, oldest first; the tuples and
///   markers reach subscribers tagged with the epoch they belong to,
///   before the current epoch runs, so each stream's frame sequence
///   stays in epoch order, and each epoch's markers are committed
///   durably before they are sent.
///
/// A replay is a throw-away one-shot run ([`run_threaded_opts`]), never
/// a step of the live dataflow: a laggard holds no live operators by
/// construction (a query keeps them only by completing the epoch that
/// advances its cursor), so its state comes from its checkpoint bytes,
/// and the replay's operators are dropped when it returns — the live
/// epoch that follows rebuilds the laggard from the replayed bytes.
///
/// Upstream producers of a laggard run as *support* queries: included
/// in the replay so the laggard's inputs are real, but untapped (their
/// subscribers already saw these epochs), uncheckpointed (their cursor
/// already advanced), and started from empty state — their live
/// operators, already past the replayed epochs, stay with the stepper
/// untouched. A stateless upstream (the common LFTA
/// projection/selection) reproduces its output exactly; a stateful
/// upstream makes the replay approximate — the price of losing its
/// mid-epoch history.
#[allow(clippy::too_many_arguments)]
fn catch_up(
    gs: &mut Gigascope,
    supervisor: &mut Supervisor,
    source: &PacketSource,
    carry: &mut HashMap<String, Vec<u8>>,
    cursors: &mut HashMap<String, Cursor>,
    stepper: &Stepper,
    epoch: u64,
    excluded: &[String],
    durable: &mut Option<DurableStore>,
    durable_note: &mut DurableNote,
    shared: &Arc<Shared>,
) {
    // Queries that fault *during* replay sit the rest of this catch-up
    // out (their cursor holds; the supervisor's backoff governs the
    // next attempt), so every iteration either advances a cursor or
    // shrinks the runnable set — the loop terminates.
    let mut benched: Vec<String> = Vec::new();
    loop {
        if shared.shutdown.load(Ordering::SeqCst) {
            break;
        }
        let runnable: Vec<(String, Cursor)> = gs
            .queries()
            .iter()
            .filter(|d| !excluded.contains(&d.name) && !benched.contains(&d.name))
            .filter_map(|d| cursors.get(&d.name).map(|c| (d.name.clone(), *c)))
            .collect();
        // Rebuilds first: owed epochs replay on top of the rebuilt state.
        let rebuild = runnable
            .iter()
            .filter(|(q, c)| c.cut < c.next && !stepper.holds(q))
            .map(|(_, c)| (c.cut, c.next))
            .min();
        let owed = runnable.iter().map(|(_, c)| c.next).filter(|n| *n < epoch).min();
        let (from, to, emit) = match (rebuild, owed) {
            (Some((cut, next)), _) => (cut, next, false),
            (None, Some(e)) => (e, e + 1, true),
            (None, None) => break,
        };
        let parts: Vec<String> = runnable
            .iter()
            .filter(|(q, c)| {
                if emit {
                    c.next == from
                } else {
                    (c.cut, c.next) == (from, to) && !stepper.holds(q)
                }
            })
            .map(|(q, _)| q.clone())
            .collect();
        let included = upstream_closure(gs, &parts);
        let (taps, sub_names, markers) = if emit {
            let ctl = lock(&shared.ctl);
            build_fanout(&ctl, gs, &parts, &parts, from)
        } else {
            (Vec::new(), Vec::new(), Vec::new())
        };
        // Restore only the laggards' own checkpoints: a support query
        // must not restore its *current* (post-epoch-`e`) state into a
        // replay of epoch `e`.
        let restore: HashMap<String, Vec<u8>> = carry
            .iter()
            .filter(|(k, _)| parts.iter().any(|q| q == snapshot_owner(k)))
            .map(|(k, v)| (k.clone(), v.clone()))
            .collect();
        let opts = ThreadedOptions {
            taps,
            exclude: gs
                .queries()
                .iter()
                .map(|d| d.name.clone())
                .filter(|q| !included.contains(q))
                .collect(),
            capture: true,
            restore: (!restore.is_empty()).then(|| Arc::new(restore)),
            ..ThreadedOptions::default()
        };
        gs.faults = None;
        let sub_refs: Vec<&str> = sub_names.iter().map(String::as_str).collect();
        let packets = (from..to).flat_map(|e| source.epoch_packets(e));
        match run_threaded_opts(gs, packets, &sub_refs, opts) {
            Ok(out) => {
                supervisor.observe(epoch, &out.health);
                let mut replayed: Vec<String> = Vec::new();
                for q in &parts {
                    if out.health.failed(q) {
                        benched.push(q.clone());
                    } else if let Some(c) = cursors.get_mut(q) {
                        *c = Cursor { cut: to, next: c.next.max(to) };
                        replayed.push(q.clone());
                    }
                }
                let own: HashMap<String, Vec<u8>> = out
                    .snapshots
                    .into_iter()
                    .filter(|(k, _)| parts.iter().any(|q| q == snapshot_owner(k)))
                    .collect();
                merge_snapshots(carry, own, &out.health);
                if emit {
                    // Epoch `from`'s missed frames are about to go out:
                    // commit their markers first. No segment: the
                    // durable cut keeps lagging until the next cut, and
                    // recovery replays past it.
                    durable_commit(durable, None, from, &replayed, durable_note);
                    send_markers(&markers, from, |s| out.health.failed(s));
                } else {
                    shared.stats.replayed_epochs.add(to - from);
                }
            }
            Err(_) => {
                shared.stats.run_errors.inc();
                break;
            }
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn engine_loop(
    mut gs: Gigascope,
    mut supervisor: Supervisor,
    source: PacketSource,
    faults: Option<FaultPlan>,
    fault_epochs: Range<u64>,
    epoch_gap_ms: u64,
    carry_state: bool,
    mut durable: Option<DurableStore>,
    recovery: Recovery,
    shared: Arc<Shared>,
) {
    // Durable recovery seeds the engine state: resume past the last
    // durable marker, with the restored cut and each query's cursor —
    // catch-up replays what the cut lags — instead of epoch 0 from
    // empty state.
    let mut epoch: u64 = recovery.next_epoch;
    // Carry mode: the operators themselves, stepped from epoch to epoch;
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
    if recovery.recovered && epoch > 0 && epoch_gap_ms > 0 {
        let mut slept = 0;
        while slept < epoch_gap_ms && !shared.shutdown.load(Ordering::SeqCst) {
            let step = (epoch_gap_ms - slept).min(10);
            thread::sleep(Duration::from_millis(step));
            slept += step;
        }
    }
    while !shared.shutdown.load(Ordering::SeqCst) {
        // ---- Epoch boundary: apply ops, wake backoffs, clone taps ----
        let (mut opts, sub_names, mut markers, mut running) = {
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
            let excluded = supervisor.excluded(epoch);
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
            for q in removed.iter().chain(supervisor.dead().iter()) {
                stepper.forget(q);
                Arc::make_mut(&mut carry).retain(|k, _| snapshot_owner(k) != q);
                cursors.remove(q);
            }
            let running: Vec<String> = gs
                .queries()
                .iter()
                .map(|d| d.name.clone())
                .filter(|q| !excluded.contains(q))
                .collect();
            // Marker policy: without carry, every subscribed deployed
            // stream gets a marker, excluded or not (a backoff epoch is
            // an *empty* epoch, not a missing one). With carry, a
            // stream's marker is sent only when its epoch actually ran
            // — catch-up replay delivers the missed ones later, in
            // epoch order, so subscribers still see exactly one marker
            // per (stream, epoch).
            let marker_set: Vec<String> = if carry_state {
                running.clone()
            } else {
                gs.queries().iter().map(|d| d.name.clone()).collect()
            };
            let (taps, sub_names, markers) = build_fanout(&ctl, &gs, &running, &marker_set, epoch);
            (
                ThreadedOptions { taps, exclude: excluded, ..ThreadedOptions::default() },
                sub_names,
                markers,
                running,
            )
        };
        if carry_state {
            for dq in gs.queries() {
                cursors.entry(dq.name.clone()).or_insert(Cursor { cut: epoch, next: epoch });
            }
            // Replay whatever the runnable queries missed, THEN set up
            // the current epoch to resume from the (now caught-up) cut.
            catch_up(
                &mut gs,
                &mut supervisor,
                &source,
                Arc::make_mut(&mut carry),
                &mut cursors,
                &stepper,
                epoch,
                &opts.exclude,
                &mut durable,
                &mut durable_note,
                &shared,
            );
            // A query catch-up could not bring level (it faulted again
            // mid-replay, or shutdown cut the replay short) sits this
            // epoch out: run from its bytes, it would skip what it owes.
            let stale: Vec<String> = running
                .iter()
                .filter(|q| cursors.get(*q).is_some_and(|c| !level(c, epoch, stepper.holds(q))))
                .cloned()
                .collect();
            running.retain(|q| !stale.contains(q));
            markers.retain(|(s, _)| !stale.contains(s));
            opts.exclude.extend(stale);
            opts.capture = true;
            if !carry.is_empty() {
                opts.restore = Some(carry.clone());
            }
        }

        // ---- Run the epoch (engine holds no locks) -------------------
        let active_queries =
            gs.queries().iter().filter(|d| !opts.exclude.iter().any(|e| e == &d.name)).count();
        let mut epoch_health = RunHealth::default();
        let ran = if active_queries > 0 {
            gs.faults = match (&faults, fault_epochs.contains(&epoch)) {
                (Some(plan), true) => Some(plan.clone()),
                _ => None,
            };
            let packets = source.epoch_packets(epoch);
            // A carried boundary seals a cut only when the cadence says
            // the traffic since the last one has paid for it; every
            // other boundary just steps the live operators on.
            let cut = carry_state && cadence.boundary(packets.len() as u64);
            let sub_refs: Vec<&str> = sub_names.iter().map(String::as_str).collect();
            let stepped = if carry_state && !cut {
                stepper.hold(&gs, packets.into_iter(), &sub_refs, opts)
            } else {
                stepper.step(&gs, packets.into_iter(), &sub_refs, opts)
            };
            match stepped {
                Ok(out) => {
                    supervisor.observe(epoch, &out.health);
                    shared.stats.nodes_restored.add(out.nodes_restored);
                    if carry_state {
                        let mut completed: Vec<String> = Vec::new();
                        for q in &running {
                            if let Some(c) = cursors.get_mut(q).filter(|_| !out.health.failed(q)) {
                                c.next = epoch + 1;
                                if cut {
                                    c.cut = epoch + 1;
                                }
                                completed.push(q.clone());
                            }
                        }
                        if cut {
                            merge_snapshots(Arc::make_mut(&mut carry), out.snapshots, &out.health);
                            cadence.sealed(stepper.held());
                            shared.stats.cuts.inc();
                        }
                        // Publish the cut (if this is one) and commit the
                        // epoch's markers durably before the close block
                        // sends the marker frames.
                        durable_commit(
                            &mut durable,
                            cut.then_some((&*carry, &cursors)),
                            epoch,
                            &completed,
                            &mut durable_note,
                        );
                    }
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
            // With carry, a failed (or errored) epoch sends no marker
            // for the affected stream — its replay will, keeping the
            // subscriber's epoch sequence gapless and in order.
            send_markers(&markers, epoch, |s| carry_state && (!ran || epoch_health.failed(s)));
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
            let mut slept = 0;
            while slept < gap && !shared.shutdown.load(Ordering::SeqCst) {
                let step = (gap - slept).min(10);
                thread::sleep(Duration::from_millis(step));
                slept += step;
            }
        }
    }

    // ---- Carry-mode shutdown flush -----------------------------------
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
    let abandoned = shared.abandon.load(Ordering::SeqCst);
    let had_carry = carry_state && !carry.is_empty();
    let mut flushed = false;
    if had_carry && !abandoned {
        let excluded = supervisor.excluded(epoch);
        let flush: Vec<String> = gs
            .queries()
            .iter()
            .map(|d| d.name.clone())
            .filter(|q| {
                !excluded.contains(q)
                    && cursors.get(q).is_none_or(|c| level(c, epoch, stepper.holds(q)))
            })
            .collect();
        if !flush.is_empty() {
            let (taps, sub_names, markers) = {
                let ctl = lock(&shared.ctl);
                build_fanout(&ctl, &gs, &flush, &flush, epoch)
            };
            let opts = ThreadedOptions {
                taps,
                exclude: gs
                    .queries()
                    .iter()
                    .map(|d| d.name.clone())
                    .filter(|q| !flush.contains(q))
                    .collect(),
                capture: false,
                restore: Some(std::mem::take(&mut carry)),
                ..ThreadedOptions::default()
            };
            gs.faults = None;
            let sub_refs: Vec<&str> = sub_names.iter().map(String::as_str).collect();
            if let Ok(out) = stepper.step(&gs, std::iter::empty(), &sub_refs, opts) {
                shared.stats.nodes_restored.add(out.nodes_restored);
                // The flush emitted every held tail: record the clean
                // shutdown (which retires all segments and markers)
                // before the final marker frames go out.
                if let Some(store) = durable.as_mut() {
                    if let Err(e) = store.log_shutdown(epoch + 1) {
                        eprintln!("gsqd: durable: shutdown record failed: {e}");
                    }
                }
                flushed = true;
                send_markers(&markers, epoch, |s| out.health.failed(s));
                let mut ctl = lock(&shared.ctl);
                ctl.snapshot.epochs_done = epoch + 1;
                shared.stats.epochs.set(epoch + 1);
                shared.epoch_cv.notify_all();
            }
        }
    }
    // A clean exit that never held carried state still records the
    // shutdown, so the next start knows nothing was lost (and keeps the
    // epoch numbering monotone across sessions). If there *was* carried
    // state and the flush didn't complete, no record is written —
    // recovery must resume and flush it later.
    if !abandoned && !flushed && !had_carry {
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
    // final "OK shutting down" should reach its client) before cutting
    // the sockets.
    let deadline = std::time::Instant::now() + Duration::from_millis(200);
    while ctl.conns.values().any(|c| c.chan.progress().1 > 0)
        && std::time::Instant::now() < deadline
    {
        drop(ctl);
        thread::sleep(Duration::from_millis(2));
        ctl = lock(&shared.ctl);
    }
    for conn in ctl.conns.values() {
        let _ = conn.stream.shutdown(Shutdown::Both);
        conn.chan.force_close();
    }
    shared.epoch_cv.notify_all();
}
