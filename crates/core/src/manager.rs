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
//! Everything a node does with a message — and the queues, batching
//! edges and fault markers between nodes — is [`crate::dataflow`], shared
//! with the synchronous engine, which schedules the very same runners
//! inline. This module owns what is particular to the deployment
//! configuration: one thread per runner and per subscription collector
//! blocking on its queue, bounded or shedding queues, the stall gate,
//! the watchdog, and joining it all back together.
//!
//! Self-monitoring (paper §4): every LFTA, operator, edge batcher, and
//! queue registers its counters with a
//! [`gs_runtime::stats::StatsRegistry`]; on each
//! heartbeat round the capture thread snapshots the registry and emits
//! the rows on the built-in `GS_STATS` stream, so ordinary GSQL queries
//! observe the system's own behavior — including what overload shedding
//! ([`Gigascope::shedding`]) drops when a consumer stalls.

use crate::dataflow::{self, Dataflow, End, NodeRunner};
use crate::graph::{self, LiveOps};
use crate::health::{FaultReason, RunHealth};
use crate::transport::Admission;
use crate::watchdog::{Watchdog, WatchdogStats};
use crate::{Error, Gigascope};
use gs_packet::CapPacket;
use gs_runtime::punct::HeartbeatMode;
use gs_runtime::stats::StatRow;
use gs_runtime::tuple::Tuple;
use std::collections::HashMap;
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread;

/// Ready-queue capacity per query node ("communication through shared
/// memory"); a bounded ring like the paper's buffers.
pub const CHANNEL_CAPACITY: usize = 8_192;

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
    /// Operators whose state this run read from
    /// [`ThreadedOptions::restore`] bytes — zero when every operator was
    /// either built fresh or carried over live by a [`Stepper`].
    pub nodes_restored: u64,
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
    /// [`RunHealth::notes`], never a crash, never partial state. A node a
    /// [`Stepper`] still holds live never reads its entry: bytes are for
    /// operators that do not exist yet.
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

/// [`run_threaded`] with explicit [`ThreadedOptions`]: one step of a
/// [`Stepper`] that holds nothing before and is dropped after.
pub fn run_threaded_opts<I>(
    gs: &Gigascope,
    packets: I,
    subscriptions: &[&str],
    opts: ThreadedOptions,
) -> Result<ThreadedOutput, Error>
where
    I: Iterator<Item = CapPacket>,
{
    Stepper::default().step(gs, packets, subscriptions, opts)
}

/// The owner of the operators that live across runs.
///
/// A run in capture mode ([`ThreadedOptions::capture`]) ends at a
/// consistent cut with every window still open — the state DBSP keeps on
/// a z⁻¹ edge between two ticks of a circuit. [`step`](Self::step) is
/// one such tick: the operators of every query that finished it healthy
/// stay here, and the next step wires the very same objects into its
/// graph, so a steady-state boundary compiles no operator and decodes no
/// snapshot. A capture step also seals the cut into bytes (the durable
/// cut, and what a faulted query replays from); [`hold`](Self::hold) is
/// the same tick without the seal, for a boundary that is not a cut.
/// Bytes are only *read* for an operator the stepper does not hold: a
/// first step, a recovered daemon, a query reprovisioned after a fault.
///
/// Which of the two a node gets is decided by what is held, never by a
/// setting. Nothing stale is ever held: operators of a query the step
/// quarantined, and operators the step did not run at all (excluded or
/// removed queries), are dropped — their last good bytes are the way
/// back.
#[derive(Default)]
pub struct Stepper {
    live: LiveOps,
}

impl Stepper {
    /// Drop `query`'s live operators (its LFTAs, node and shards), so its
    /// next step starts from bytes or from nothing — for when the caller
    /// discards or replaces the cut they correspond to.
    pub fn forget(&mut self, query: &str) {
        self.live.retain(|owner| owner != query);
    }

    /// Whether the stepper holds live operators of `query`.
    pub fn holds(&self, query: &str) -> bool {
        self.live.holds(query)
    }

    /// State items the held operators carry: group-table entries,
    /// buffered merge/join rows, occupied LFTA slots — what a cut of
    /// them writes, and what a replay from an older cut rebuilds.
    pub fn held(&self) -> u64 {
        self.live.held()
    }

    /// Run all deployed queries over `packets`, one thread per HFTA, on
    /// the operators held from the previous step where there are any. In
    /// capture mode the healthy queries' operators are sealed and held
    /// again afterwards; a flushing step (capture off) finishes them, and
    /// holds nothing.
    pub fn step<I>(
        &mut self,
        gs: &Gigascope,
        packets: I,
        subscriptions: &[&str],
        opts: ThreadedOptions,
    ) -> Result<ThreadedOutput, Error>
    where
        I: Iterator<Item = CapPacket>,
    {
        let end = if opts.capture { End::Seal } else { End::Flush };
        self.run(gs, packets, subscriptions, opts, end)
    }

    /// A capture step whose boundary is not a cut: the healthy queries'
    /// operators are held exactly as [`step`](Self::step) holds them,
    /// but nothing is serialized — [`ThreadedOutput::snapshots`] comes
    /// back empty, whatever `opts.capture` says.
    pub fn hold<I>(
        &mut self,
        gs: &Gigascope,
        packets: I,
        subscriptions: &[&str],
        opts: ThreadedOptions,
    ) -> Result<ThreadedOutput, Error>
    where
        I: Iterator<Item = CapPacket>,
    {
        self.run(gs, packets, subscriptions, opts, End::Hold)
    }

    fn run<I>(
        &mut self,
        gs: &Gigascope,
        packets: I,
        subscriptions: &[&str],
        opts: ThreadedOptions,
        end: End,
    ) -> Result<ThreadedOutput, Error>
    where
        I: Iterator<Item = CapPacket>,
    {
        check_heartbeat(gs.heartbeat)?;
        // Taken, not borrowed: whatever the build does not adopt — and
        // everything, when it fails — is dropped with this statement.
        let graph = graph::build(
            gs,
            &opts.exclude,
            &mut std::mem::take(&mut self.live),
            opts.restore.as_deref(),
            subscriptions,
        )?;
        let nodes_restored = graph.restored;
        let (capacity, admission) = match gs.shedding {
            Some(cfg) => (cfg.capacity, Admission::Shed(cfg.policy)),
            None => (CHANNEL_CAPACITY, Admission::Block),
        };
        let Dataflow { mut front, runners, collectors, queues, registry, board } =
            dataflow::wire(gs, graph, subscriptions, capacity, admission, end, &opts.taps);

        // ---- Spawn collector and node threads ----------------------------------
        // Each subscription gets its own drainer thread: a subscribed stream
        // can emit far more than CHANNEL_CAPACITY tuples while the capture
        // loop is still feeding packets, and a full collector queue would
        // back-pressure the node graph into a deadlock if nothing consumed
        // it until after capture.
        let stall_gate = Arc::new((Mutex::new(false), Condvar::new()));
        let mut drainers: Vec<(String, thread::JoinHandle<Vec<Tuple>>)> = Vec::new();
        for (mut collector, rx) in collectors {
            let name = collector.name.clone();
            let gate = opts.stall.contains(&name).then(|| stall_gate.clone());
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
                collector.drain(|| rx.recv());
                collector.bucket
            });
            drainers.push((name, drainer));
        }
        // One thread per node, blocking on its queue. A `recv` that returns
        // `None` with ports still open means every producer dropped without
        // a Close or the watchdog force-closed the queue: hang up.
        let mut handles: Vec<(String, thread::JoinHandle<NodeRunner>)> = Vec::new();
        for (mut runner, rx) in runners {
            let name = runner.name().to_string();
            let handle = thread::spawn(move || {
                runner.pump(|| rx.recv());
                runner.hang_up();
                runner
            });
            handles.push((name, handle));
        }

        // The liveness supervisor, once every queue exists. It watches node
        // and subscription queues for pending work with a frozen dequeue
        // counter and force-closes the wedged ones, so even a stalled
        // consumer without shedding (the PR 3 deadlock) ends as a
        // `Failed{Stalled}` query instead of a hung run. Its stats node only
        // registers when configured, like `faults`.
        let watchdog = gs.watchdog.map(|cfg| {
            let stats = Arc::new(WatchdogStats::default());
            registry.register("watchdog".to_string(), stats.clone());
            Watchdog::spawn(cfg, queues, board.clone(), stats)
        });

        // ---- Capture loop (this thread) --------------------------------------
        // Per-packet LFTA emissions accumulate in the LFTA's edge batcher and
        // ship as one queue message per `batch_size` rows (scattered through
        // any partitioning routers installed on the LFTA's stream).
        for pkt in packets {
            front.dispatch(&pkt);
            if front.periodic_due() {
                front.heartbeat();
            }
        }
        // Same cut as the node threads: in capture mode the direct-mapped
        // tables' open epochs stay held (and sealed), not sent downstream.
        let mut snapshots = front.finish(end);
        front.finish_stats();

        // ---- Drain ------------------------------------------------------------
        // Node threads first: with shedding enabled they finish even when a
        // subscriber stalls (the queue sheds instead of back-pressuring), and
        // collector drainers run concurrently regardless of join order. A
        // faulted node's thread still joins cleanly — containment converted
        // the panic into a quarantine before the thread returned — so a join
        // error here means the recovery code itself died; record it rather
        // than abort the whole run. Every node writes its capture entry
        // after its last input closed and before it closes its own output,
        // so the joined runners hold a consistent cut of the whole graph
        // (faulted nodes contribute nothing — by design).
        for (name, h) in handles {
            match h.join() {
                Ok(runner) => {
                    if let Some((bytes, node)) = runner.into_capture() {
                        if let Some(bytes) = bytes {
                            snapshots.insert(format!("hfta:{name}"), bytes);
                        }
                        self.live.nodes.insert(name, node);
                    }
                }
                Err(_) => {
                    board.stats.faults_contained.inc();
                    board.record(&name, FaultReason::Panic("node thread aborted".to_string()));
                }
            }
        }
        // Release any deliberately stalled collectors to drain what survived.
        {
            let (released, cv) = &*stall_gate;
            *released.lock().unwrap_or_else(PoisonError::into_inner) = true;
            cv.notify_all();
        }
        let mut streams: HashMap<String, Vec<Tuple>> = HashMap::new();
        for (name, drainer) in drainers {
            let bucket = drainer.join().unwrap_or_else(|_| {
                board.record(&name, FaultReason::Panic("collector thread panicked".to_string()));
                Vec::new()
            });
            streams.insert(name, bucket);
        }
        if let Some(dog) = watchdog {
            dog.stop();
        }
        let health = board.report();
        let packets = front.packets;
        if end != End::Flush {
            // The cut is only a cut of the queries that reached it whole: a
            // quarantined query's surviving operators (a healthy shard beside
            // a panicked one) are as unusable live as their bytes are.
            self.live.lftas.extend(front.into_lftas().map(|lfta| (lfta.name.clone(), lfta)));
            self.live.retain(|owner| !health.failed(owner));
        }
        Ok(ThreadedOutput {
            streams,
            packets,
            counters: registry.snapshot(),
            health,
            snapshots,
            nodes_restored,
        })
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

    /// The stepper's holding rule, counted through `nodes_restored`: an
    /// operator crosses a boundary live only if its query ran the step
    /// to the cut; a query that sat a step out, or was forgotten, comes
    /// back from the bytes on offer — never from a stale object.
    #[test]
    fn stepper_holds_only_what_the_last_step_ran_to_the_cut() {
        let mut gs = Gigascope::new();
        gs.add_interface("eth0", 0, LinkType::Ethernet);
        gs.add_program(
            "DEFINE { query_name raw; } Select time, len From eth0.tcp; \
             DEFINE { query_name persec; } \
             Select time, count(*), sum(len) From raw Group By time",
        )
        .unwrap();
        let chunk = |k: u64| (0..40u64).map(move |_| pkt(k, 80, b"x"));
        let mut stepper = Stepper::default();
        let mut cut = Arc::new(HashMap::new());
        let mut counts: Vec<(u64, u64)> = Vec::new();
        // One step over 40 packets of second `k`, offering the merged
        // cut so far; returns how many operators read it.
        let mut step = |k: u64, exclude: &[&str], capture: bool| {
            let opts = ThreadedOptions {
                capture,
                restore: Some(cut.clone()),
                exclude: exclude.iter().map(|q| q.to_string()).collect(),
                ..ThreadedOptions::default()
            };
            let out = stepper.step(&gs, chunk(k), &["persec"], opts).unwrap();
            assert!(out.health.all_ok());
            counts.extend(
                out.stream("persec")
                    .iter()
                    .map(|t| (t.get(0).as_uint().unwrap(), t.get(1).as_uint().unwrap())),
            );
            let mut merged = (*cut).clone();
            merged.extend(out.snapshots);
            cut = Arc::new(merged);
            out.nodes_restored
        };
        assert_eq!(step(0, &[], true), 0, "nothing to restore, nothing held");
        assert_eq!(step(0, &[], true), 0, "both queries cross live");
        // `persec` sits a step out: its operators were not adopted, so
        // they are gone; `raw` ran and stays live.
        assert_eq!(step(0, &["persec"], true), 0);
        assert_eq!(step(0, &[], true), 1, "persec returns from its bytes, raw stays live");
        assert_eq!(step(1, &[], false), 0, "a flushing step finishes the live operators");
        assert_eq!(step(2, &[], true), 2, "and holds nothing: the next one reads bytes again");
        // Second 0 saw three chunks of `persec` (the step it sat out is
        // not in its cut); the flush emitted second 1; the last step
        // resumed the pre-flush cut (the test's doing — a daemon takes
        // the cut with it when it flushes) and so closes second 0 again.
        assert_eq!(counts, vec![(0, 120), (1, 40), (0, 120)]);
    }

    /// `forget` drops a query's live operators, shards and LFTAs included,
    /// and nothing else.
    #[test]
    fn forgetting_a_query_sends_it_back_to_its_bytes() {
        let mut gs = Gigascope::new();
        gs.add_interface("eth0", 0, LinkType::Ethernet);
        gs.parallelism = 2;
        gs.add_program(
            "DEFINE { query_name raw; } Select time, destPort, len From eth0.tcp; \
             DEFINE { query_name perport; } \
             Select time, destPort, count(*) From raw Group By time, destPort; \
             DEFINE { query_name tot; } Select time, count(*) From eth0.tcp Group By time",
        )
        .unwrap();
        let capture = || ThreadedOptions { capture: true, ..ThreadedOptions::default() };
        let mut stepper = Stepper::default();
        let pkts = (0..50u64).map(|i| pkt(0, 80 + (i % 4) as u16, b"x"));
        let first = stepper.step(&gs, pkts, &[], capture()).unwrap();
        // raw's LFTA; perport's two shards and merge; tot's LFTA, two
        // shards and merge.
        assert_eq!(first.snapshots.len(), 8, "{:?}", first.snapshots.keys());
        let cut = Arc::new(first.snapshots);
        let again = |stepper: &mut Stepper| {
            let opts = ThreadedOptions { restore: Some(cut.clone()), ..capture() };
            stepper.step(&gs, std::iter::empty(), &[], opts).unwrap().nodes_restored
        };
        assert_eq!(again(&mut stepper), 0);
        stepper.forget("perport");
        assert!(!stepper.holds("perport"));
        assert!(stepper.holds("raw") && stepper.holds("tot"), "LFTA-only and sharded queries");
        assert_eq!(again(&mut stepper), 3, "both shards and the reunifying merge");
        stepper.forget("tot");
        assert_eq!(again(&mut stepper), 4, "the aggregating LFTA, its shards and their merge");
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
