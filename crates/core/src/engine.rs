//! The synchronous execution engine.
//!
//! Runs every deployed query over a time-ordered capture stream in one
//! thread: LFTAs execute inline in the capture loop (exactly as the paper
//! links them into the run time system), and HFTA nodes execute
//! immediately when their input streams produce items. Deterministic by
//! construction, which the test suite and the experiment harnesses rely
//! on. The threaded deployment configuration lives in [`crate::manager`].
//!
//! What the two engines share — instantiating the graph and the
//! capture-point loop body — lives in [`crate::graph`]; this module owns
//! only what is particular to inline execution: propagating an LFTA's
//! output straight through its consumers, quarantining a panicked
//! operator's chain, and the on-demand heartbeat trigger (which must
//! observe a starved merge between two packets, so only an inline
//! scheduler can offer it). Operators see rows here: there is no
//! transport hop whose cost a columnar batch would amortize.

use crate::graph::{self, CaptureFront, Graph, GraphNode};
use crate::health::{FaultReason, HealthBoard, RunHealth};
use crate::{Error, Gigascope};
use gs_packet::CapPacket;
use gs_runtime::faults::NodeInjector;
use gs_runtime::ops::build::HftaNode;
use gs_runtime::ops::lfta::LftaStats;
use gs_runtime::ops::router::KeyRouter;
use gs_runtime::punct::HeartbeatMode;
use gs_runtime::stats::{StatRow, StatsRegistry};
use gs_runtime::tuple::{StreamItem, Tuple};
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

/// Per-run statistics.
#[derive(Debug, Clone, Default)]
pub struct EngineStats {
    /// Packets consumed from the capture stream.
    pub packets: u64,
    /// Heartbeat rounds issued.
    pub heartbeats: u64,
    /// Per-LFTA execution counters, keyed by stream name.
    pub lfta: HashMap<String, LftaStats>,
    /// Per-LFTA direct-mapped table statistics (aggregation LFTAs only).
    pub lfta_tables: HashMap<String, gs_runtime::ops::agg::DmStats>,
    /// Peak buffered tuples per merge/join node, keyed by query name.
    pub peak_buffered: HashMap<String, usize>,
    /// Final stats-registry snapshot: `lfta:*` and `hfta:*` counter rows
    /// (the same rows the built-in `GS_STATS` stream emits), taken after
    /// every operator finished.
    pub counters: Vec<StatRow>,
    /// Which queries ran clean and which were quarantined (a panicked
    /// operator fails its own chain; siblings are unaffected).
    pub health: RunHealth,
}

impl EngineStats {
    /// Convenience lookup of one final counter value.
    pub fn counter(&self, node: &str, counter: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|r| r.node == node && r.counter == counter)
            .map(|r| r.value)
    }
}

/// The collected output of a run.
#[derive(Debug, Default)]
pub struct RunOutput {
    /// Collected tuples per subscribed stream.
    pub streams: HashMap<String, Vec<Tuple>>,
    /// Execution statistics.
    pub stats: EngineStats,
}

impl RunOutput {
    /// Tuples of one subscribed stream (empty if absent).
    pub fn stream(&self, name: &str) -> &[Tuple] {
        self.streams.get(name).map(Vec::as_slice).unwrap_or(&[])
    }
}

struct NodeHost {
    name: String,
    node: HftaNode,
    out_sid: usize,
}

/// Hash router feeding the K partition instances of one rewritten HFTA,
/// installed on the partitioned input stream. Tuples go to exactly one
/// partition; punctuation is broadcast to all of them.
struct EngineRouter {
    router: KeyRouter,
    /// Node indices of the partition instances, in partition order.
    targets: Vec<usize>,
}

/// The HFTA side of the graph: nodes wired by stream id, executed inline
/// as their inputs produce items.
#[derive(Default)]
struct Flow {
    nodes: Vec<NodeHost>,
    /// stream id -> (node index, port) consumers.
    consumers: Vec<Vec<(usize, usize)>>,
    /// stream id -> hash routers over that stream's partition instances
    /// (one per partitioned query reading the stream).
    routers: HashMap<usize, Vec<EngineRouter>>,
    /// stream id -> collection bucket.
    collect: Vec<Option<String>>,
    stream_ids: HashMap<String, usize>,
    outputs: HashMap<String, Vec<Tuple>>,
    /// Quarantine bookkeeping: every containment decision lands here.
    board: HealthBoard,
    /// Per-node quarantine flags — a failed node (and its transitive
    /// downstream) is never pushed to or finished again; its query keeps
    /// the clean prefix collected before the fault.
    failed: Vec<bool>,
    /// Armed fault injectors by node index ([`Gigascope::faults`]).
    injectors: HashMap<usize, NodeInjector>,
}

/// The wired-up execution graph.
pub struct Engine {
    /// The capture point: LFTAs, shared prefilter, heartbeat clock.
    front: CaptureFront,
    /// Output stream id of each LFTA slot.
    lfta_sids: Vec<usize>,
    flow: Flow,
    heartbeat: HeartbeatMode,
    /// Every LFTA and operator registers its counters here; snapshots
    /// feed the `GS_STATS` stream and the final [`EngineStats::counters`].
    registry: Arc<StatsRegistry>,
    /// Stream id of the built-in `GS_STATS` monitoring stream.
    gs_stats_sid: usize,
    stats_enabled: bool,
}

impl Engine {
    /// Instantiate every deployed query of `gs`, collecting the named
    /// `subscriptions` into the run output.
    pub fn build(gs: &Gigascope, subscriptions: &[&str]) -> Result<Engine, Error> {
        let Graph { lftas, nodes, routers, .. } = graph::build(gs, &[], None, subscriptions)?;
        let registry = Arc::new(StatsRegistry::new());
        let mut flow = Flow::default();
        let lfta_sids = lftas.iter().map(|(l, _)| flow.sid(&l.name)).collect();
        let mut targets: Vec<Vec<usize>> = vec![Vec::new(); routers.len()];
        for GraphNode { name, node, routed } in nodes {
            let idx = flow.nodes.len();
            match routed {
                Some(group) => targets[group].push(idx),
                None => {
                    for (port, input) in node.inputs.iter().enumerate() {
                        let sid = flow.sid(input);
                        flow.consumers[sid].push((idx, port));
                    }
                }
            }
            node.register_stats(&registry, &name);
            let out_sid = flow.sid(&name);
            flow.nodes.push(NodeHost { name, node, out_sid });
        }
        for (group, targets) in routers.into_iter().zip(targets) {
            let sid = flow.sid(&group.input);
            flow.routers
                .entry(sid)
                .or_default()
                .push(EngineRouter { router: group.router, targets });
        }
        flow.failed = vec![false; flow.nodes.len()];
        if let Some(plan) = &gs.faults {
            // Arm the configured faults per node; the `faults` stats
            // node only exists when a plan does, so a default run's
            // GS_STATS row set is unchanged.
            registry.register("faults".to_string(), flow.board.stats.clone());
            for (idx, n) in flow.nodes.iter().enumerate() {
                if let Some(inj) = plan.armed(&n.name, &flow.board.stats) {
                    flow.injectors.insert(idx, inj);
                }
            }
        }
        for n in subscriptions {
            let sid = flow.sid(n);
            flow.collect[sid] = Some(n.to_string());
            flow.outputs.entry(n.to_string()).or_default();
        }
        // Claim the monitoring stream's id, so queries over GS_STATS
        // (and direct subscriptions to it) wire up like any other stream.
        let gs_stats_sid = flow.sid("GS_STATS");
        Ok(Engine {
            front: CaptureFront::new(lftas, gs.heartbeat, registry.clone()),
            lfta_sids,
            flow,
            heartbeat: gs.heartbeat,
            registry,
            gs_stats_sid,
            stats_enabled: gs.stats_enabled,
        })
    }

    /// One heartbeat round, then a monitoring snapshot.
    fn heartbeat_all(&mut self) {
        self.front.heartbeat(|i, items| {
            if !items.is_empty() {
                self.flow.propagate(self.lfta_sids[i], std::mem::take(items));
            }
        });
        self.emit_gs_stats();
    }

    /// Propagate one `GS_STATS` round — skipped unless something
    /// consumes the monitoring stream (a query over GS_STATS or a
    /// direct subscription).
    fn emit_gs_stats(&mut self) {
        let sid = self.gs_stats_sid;
        let wanted = self.stats_enabled
            && (self.flow.collect[sid].is_some() || !self.flow.consumers[sid].is_empty());
        if wanted {
            self.flow.publish_stats();
            let items = self.front.stats_items();
            self.flow.propagate(sid, items);
        }
    }

    /// Run to completion over a time-ordered capture stream.
    pub fn run<I>(mut self, packets: I) -> RunOutput
    where
        I: Iterator<Item = CapPacket>,
    {
        for pkt in packets {
            self.front.dispatch(&pkt, |i, items| {
                self.flow.propagate(self.lfta_sids[i], std::mem::take(items));
            });
            let due = match self.heartbeat {
                // An operator "detects that it might be blocked" (§3):
                // any starved merge triggers one round per clock advance.
                HeartbeatMode::OnDemand => self.front.clock_advanced() && self.flow.starved(),
                HeartbeatMode::Off | HeartbeatMode::Periodic { .. } => self.front.periodic_due(),
            };
            if due {
                self.heartbeat_all();
            }
        }

        // Capture over: flush LFTAs, end their streams, then finish the
        // HFTA nodes in topological (submission) order.
        self.front.finish(false, |i, items| {
            let sid = self.lfta_sids[i];
            if !items.is_empty() {
                self.flow.propagate(sid, std::mem::take(items));
            }
            self.flow.end_stream(sid);
        });
        // One final monitoring snapshot at capture close, then end the
        // GS_STATS stream so its consumers can finish. Ending it is
        // unconditional: consumers wait on end-of-stream either way.
        self.emit_gs_stats();
        self.flow.end_stream(self.gs_stats_sid);
        self.flow.finish_nodes();

        let mut stats = EngineStats {
            packets: self.front.packets,
            heartbeats: self.front.heartbeats,
            ..EngineStats::default()
        };
        for (lfta, _) in self.front.lftas() {
            stats.lfta.insert(lfta.name.clone(), lfta.stats);
            if let Some(dm) = lfta.dm_stats() {
                stats.lfta_tables.insert(lfta.name.clone(), dm);
            }
        }
        for n in &self.flow.nodes {
            if let Some((_, peak, _)) = n.node.merge_state() {
                stats.peak_buffered.insert(n.name.clone(), peak);
            }
            if let Some((_, peak)) = n.node.join_state() {
                stats.peak_buffered.insert(n.name.clone(), peak);
            }
        }
        self.flow.publish_stats();
        stats.counters = self.registry.snapshot();
        stats.health = self.flow.board.report();
        RunOutput { streams: self.flow.outputs, stats }
    }
}

impl Flow {
    fn sid(&mut self, name: &str) -> usize {
        if let Some(&s) = self.stream_ids.get(name) {
            return s;
        }
        let s = self.consumers.len();
        self.stream_ids.insert(name.to_string(), s);
        self.consumers.push(Vec::new());
        self.collect.push(None);
        s
    }

    /// Whether any merge is holding tuples back for want of progress on
    /// another input — the on-demand heartbeat trigger.
    fn starved(&self) -> bool {
        self.nodes.iter().any(|n| n.node.merge_state().is_some_and(|(_, _, s)| s))
    }

    fn publish_stats(&self) {
        for n in &self.nodes {
            n.node.publish_stats();
        }
    }

    /// Quarantine `root` after a contained fault: mark it and every
    /// transitive downstream node failed, and record each owning query
    /// on the health board (the root with its own reason, collateral as
    /// `Upstream(origin)`).
    fn quarantine(&mut self, root: usize, reason: FaultReason) {
        let origin = self.nodes[root].name.clone();
        self.board.record(&origin, reason);
        self.failed[root] = true;
        let mut stack = vec![self.nodes[root].out_sid];
        while let Some(sid) = stack.pop() {
            let mut downstream: Vec<usize> =
                self.consumers[sid].iter().map(|&(n, _)| n).collect();
            for r in self.routers.get(&sid).into_iter().flatten() {
                downstream.extend(r.targets.iter().copied());
            }
            for n in downstream {
                if !self.failed[n] {
                    self.failed[n] = true;
                    let name = self.nodes[n].name.clone();
                    self.board.record(&name, FaultReason::Upstream(origin.clone()));
                    stack.push(self.nodes[n].out_sid);
                }
            }
        }
    }

    /// Feed one batch to one node inside the containment boundary.
    /// Quarantined nodes discard their input; a panic (injected or
    /// organic) quarantines the node's chain instead of unwinding out
    /// of the run.
    fn push_node(
        &mut self,
        node_idx: usize,
        port: usize,
        mut batch: Vec<StreamItem>,
        work: &mut Vec<(usize, Vec<StreamItem>)>,
    ) {
        if self.failed[node_idx] {
            return;
        }
        let mut out = Vec::new();
        let inj = self.injectors.get_mut(&node_idx);
        let node = &mut self.nodes[node_idx].node;
        let run = catch_unwind(AssertUnwindSafe(|| {
            if let Some(inj) = inj {
                inj.on_batch(&mut batch);
            }
            node.push_batch(port, batch, &mut out);
        }));
        match run {
            Ok(()) => {
                if !out.is_empty() {
                    work.push((self.nodes[node_idx].out_sid, out));
                }
            }
            Err(payload) => {
                self.board.stats.faults_contained.inc();
                self.quarantine(
                    node_idx,
                    FaultReason::Panic(crate::manager::panic_message(payload.as_ref())),
                );
            }
        }
    }

    fn propagate(&mut self, sid: usize, items: Vec<StreamItem>) {
        let mut work = vec![(sid, items)];
        while let Some((sid, mut items)) = work.pop() {
            if let Some(name) = &self.collect[sid] {
                let bucket = self.outputs.entry(name.clone()).or_default();
                bucket.extend(items.iter().filter_map(|i| i.as_tuple().cloned()));
            }
            let has_router = self.routers.contains_key(&sid);
            let consumers = self.consumers[sid].clone();
            for (i, (node_idx, port)) in consumers.iter().copied().enumerate() {
                // Last consumer takes the item vector, earlier ones clone
                // it — the same batch-level fan-out rule as the threaded
                // manager. A router counts as one more consumer.
                let batch = if i + 1 == consumers.len() && !has_router {
                    std::mem::take(&mut items)
                } else {
                    items.clone()
                };
                self.push_node(node_idx, port, batch, &mut work);
            }
            if has_router {
                // Split the batch per partition: tuples go to their
                // hashed shard, punctuation is broadcast to every shard
                // (each shard's watermark must keep advancing or the
                // reunifying merge would hold output forever). Several
                // partitioned queries may read the same stream — each
                // gets its own router over its own shards.
                let n_routers = self.routers.get(&sid).map_or(0, Vec::len);
                for ri in 0..n_routers {
                    let router = &mut self.routers.get_mut(&sid).expect("checked above")[ri];
                    let mut parts: Vec<Vec<StreamItem>> = vec![Vec::new(); router.targets.len()];
                    let batch = if ri + 1 == n_routers {
                        std::mem::take(&mut items)
                    } else {
                        items.clone()
                    };
                    for item in batch {
                        match &item {
                            StreamItem::Tuple(t) => {
                                let b = router.router.route(t);
                                parts[b].push(item);
                            }
                            StreamItem::Punct(_) => {
                                for p in &mut parts {
                                    p.push(item.clone());
                                }
                            }
                        }
                    }
                    let targets = router.targets.clone();
                    for (batch, node_idx) in parts.into_iter().zip(targets) {
                        if batch.is_empty() {
                            continue;
                        }
                        self.push_node(node_idx, 0, batch, &mut work);
                    }
                }
            }
        }
    }

    /// Finish every live node in topological (submission) order, ending
    /// its output stream behind it.
    fn finish_nodes(&mut self) {
        for i in 0..self.nodes.len() {
            if self.failed[i] {
                // Quarantined: its downstream is quarantined too, so
                // there is nobody to flush into or close.
                continue;
            }
            let mut out = Vec::new();
            let node = &mut self.nodes[i].node;
            let run = catch_unwind(AssertUnwindSafe(|| node.finish(&mut out)));
            if run.is_err() {
                self.board.stats.faults_contained.inc();
                self.quarantine(i, FaultReason::Panic("panic while finishing".to_string()));
                continue;
            }
            let sid = self.nodes[i].out_sid;
            if !out.is_empty() {
                self.propagate(sid, out);
            }
            self.end_stream(sid);
        }
    }

    fn end_stream(&mut self, sid: usize) {
        let consumers = self.consumers[sid].clone();
        for (node_idx, port) in consumers {
            if self.failed[node_idx] {
                continue;
            }
            let mut out = Vec::new();
            let node = &mut self.nodes[node_idx].node;
            let run = catch_unwind(AssertUnwindSafe(|| node.finish_input(port, &mut out)));
            if run.is_err() {
                self.board.stats.faults_contained.inc();
                self.quarantine(node_idx, FaultReason::Panic("panic at end of input".to_string()));
                continue;
            }
            if !out.is_empty() {
                let out_sid = self.nodes[node_idx].out_sid;
                self.propagate(out_sid, out);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ParamBindings, Value};
    use gs_packet::builder::FrameBuilder;
    use gs_packet::capture::LinkType;

    fn pkt(ts_sec: u64, iface: u16, dport: u16, payload: &[u8]) -> CapPacket {
        let f = FrameBuilder::tcp(0x0a000001, 0x0a000002, 999, dport)
            .payload(payload)
            .build_ethernet();
        CapPacket::full(ts_sec * 1_000_000_000, iface, LinkType::Ethernet, f)
    }

    fn system() -> Gigascope {
        let mut gs = Gigascope::new();
        gs.add_interface("eth0", 0, LinkType::Ethernet);
        gs.add_interface("eth1", 1, LinkType::Ethernet);
        gs
    }

    #[test]
    fn simple_lfta_query_end_to_end() {
        let mut gs = system();
        gs.add_program(
            "DEFINE { query_name dest80; } \
             Select time, destPort From eth0.tcp Where destPort = 80",
        )
        .unwrap();
        let pkts =
            vec![pkt(1, 0, 80, b"a"), pkt(1, 0, 443, b"b"), pkt(2, 0, 80, b"c"), pkt(2, 1, 80, b"d")];
        let out = gs.run_capture(pkts.into_iter(), &["dest80"]).unwrap();
        let rows = out.stream("dest80");
        assert_eq!(rows.len(), 2, "only eth0 port-80 packets qualify");
        assert!(rows.iter().all(|t| t.get(1).as_uint() == Some(80)));
        assert_eq!(out.stats.packets, 4);
        let ls = out.stats.lfta.get("dest80").unwrap();
        assert_eq!(ls.packets_in, 3, "only eth0 packets reach the LFTA");
    }

    #[test]
    fn split_aggregation_equals_expected_counts() {
        let mut gs = system();
        gs.add_program(
            "DEFINE { query_name persec; } \
             Select time, count(*) From eth0.tcp Where destPort = 80 Group By time",
        )
        .unwrap();
        let mut pkts = Vec::new();
        for s in 1..=3u64 {
            for k in 0..(s as usize) {
                pkts.push(pkt(s, 0, 80, &[k as u8]));
            }
            pkts.push(pkt(s, 0, 443, b"x"));
        }
        let out = gs.run_capture(pkts.into_iter(), &["persec"]).unwrap();
        let mut rows: Vec<(u64, u64)> = out
            .stream("persec")
            .iter()
            .map(|t| (t.get(0).as_uint().unwrap(), t.get(1).as_uint().unwrap()))
            .collect();
        rows.sort();
        assert_eq!(rows, vec![(1, 1), (2, 2), (3, 3)]);
    }

    #[test]
    fn parallel_aggregation_matches_single_instance() {
        let program = "DEFINE { query_name raw; } \
             Select time, destPort, len From eth0.tcp; \
             DEFINE { query_name perport; } \
             Select time, destPort, count(*), sum(len) From raw Group By time, destPort";
        let mk = || {
            let mut pkts = Vec::new();
            for s in 1..=4u64 {
                for k in 0..6u16 {
                    pkts.push(pkt(s, 0, 8000 + (k % 3), &[k as u8]));
                }
            }
            pkts
        };
        let run = |parallelism: usize| {
            let mut gs = system();
            gs.parallelism = parallelism;
            gs.add_program(program).unwrap();
            gs.run_capture(mk().into_iter(), &["perport"]).unwrap()
        };
        let rows = |out: &RunOutput| {
            let mut v: Vec<Vec<u64>> = out
                .stream("perport")
                .iter()
                .map(|t| (0..4).map(|i| t.get(i).as_uint().unwrap()).collect())
                .collect();
            v.sort();
            v
        };
        let base = run(1);
        let par = run(3);
        assert_eq!(rows(&base), rows(&par), "sharded run computes the same groups");
        // The reunifying merge keeps the flush column nondecreasing.
        let times: Vec<u64> =
            par.stream("perport").iter().map(|t| t.get(0).as_uint().unwrap()).collect();
        assert!(times.windows(2).all(|w| w[0] <= w[1]), "merge order preserved: {times:?}");
        // Per-partition stats registered under the shard names.
        assert!(
            par.stats.counters.iter().any(|r| r.node.starts_with("hfta:perport#1")),
            "shard instances report their own counters"
        );
    }

    #[test]
    fn composed_merge_of_two_interfaces() {
        // The paper's tcpdest example: per-interface selections composed
        // into an order-preserving merge.
        let mut gs = system();
        gs.add_program(
            "DEFINE { query_name tcpdest0; } \
             Select time, destPort From eth0.tcp Where destPort = 80; \
             DEFINE { query_name tcpdest1; } \
             Select time, destPort From eth1.tcp Where destPort = 80; \
             DEFINE { query_name tcpdest; } \
             Merge tcpdest0.time : tcpdest1.time From tcpdest0, tcpdest1",
        )
        .unwrap();
        let pkts = vec![
            pkt(1, 0, 80, b"a"),
            pkt(2, 1, 80, b"b"),
            pkt(3, 0, 80, b"c"),
            pkt(4, 1, 80, b"d"),
            pkt(5, 0, 80, b"e"),
        ];
        let out = gs.run_capture(pkts.into_iter(), &["tcpdest"]).unwrap();
        let times: Vec<u64> =
            out.stream("tcpdest").iter().map(|t| t.get(0).as_uint().unwrap()).collect();
        assert_eq!(times, vec![1, 2, 3, 4, 5], "merge preserves time order");
    }

    /// Containment in the synchronous engine: an injected panic fails
    /// only the targeted query's chain; siblings and the run survive.
    #[test]
    fn injected_panic_quarantines_only_the_targeted_query() {
        let program = "DEFINE { query_name good; } \
             Select time, count(*) From eth0.tcp Group By time; \
             DEFINE { query_name bad; } \
             Select time, sum(len) From eth0.tcp Group By time";
        let mk = || (0..120u64).map(|i| pkt(i / 30, 0, 80, b"xy")).collect::<Vec<_>>();
        let run = |faults: Option<crate::FaultPlan>| {
            let mut gs = system();
            gs.add_program(program).unwrap();
            gs.faults = faults;
            gs.run_capture(mk().into_iter(), &["good", "bad"]).unwrap()
        };
        let clean = run(None);
        assert!(clean.stats.health.all_ok());
        let faulty = run(Some(crate::FaultPlan::new().panic_at("bad", 2)));
        assert!(faulty.stats.health.failed("bad"));
        assert!(!faulty.stats.health.failed("good"));
        assert_eq!(faulty.stream("good"), clean.stream("good"), "sibling is byte-identical");
        assert!(faulty.stream("bad").len() <= clean.stream("bad").len());
        assert_eq!(faulty.stats.counter("faults", "faults_contained"), Some(1));
        assert_eq!(clean.stats.counter("faults", "faults_contained"), None);
    }

    /// A dead partition shard fails only its own query; with the shard
    /// marked failed the reunifying merge is quarantined, not starved.
    #[test]
    fn shard_panic_fails_only_the_partitioned_query() {
        let program = "DEFINE { query_name raw; } \
             Select time, destPort, len From eth0.tcp; \
             DEFINE { query_name perport; } \
             Select time, destPort, count(*) From raw Group By time, destPort; \
             DEFINE { query_name persec; } \
             Select time, count(*) From raw Group By time";
        let mk = || {
            let mut pkts = Vec::new();
            for s in 1..=4u64 {
                for k in 0..6u16 {
                    pkts.push(pkt(s, 0, 8000 + (k % 3), &[k as u8]));
                }
            }
            pkts
        };
        let run = |faults: Option<crate::FaultPlan>| {
            let mut gs = system();
            gs.parallelism = 3;
            gs.add_program(program).unwrap();
            gs.faults = faults;
            gs.run_capture(mk().into_iter(), &["perport", "persec"]).unwrap()
        };
        let clean = run(None);
        let faulty = run(Some(crate::FaultPlan::new().panic_at("perport#1", 1)));
        assert!(faulty.stats.health.failed("perport"), "the shard's query fails");
        assert!(!faulty.stats.health.failed("persec"), "the sibling over the same input is fine");
        assert_eq!(faulty.stream("persec"), clean.stream("persec"));
        assert!(matches!(
            faulty.stats.health.of("perport"),
            crate::QueryHealth::Failed { reason: FaultReason::Panic(_) }
        ));
    }

    #[test]
    fn subscription_to_unknown_stream_fails() {
        let gs = system();
        let err = gs.run_capture(std::iter::empty(), &["ghost"]).unwrap_err();
        assert!(matches!(err, Error::Config(_)));
    }

    #[test]
    fn lfta_streams_are_subscribable_with_mangled_names() {
        // "If the GSQL processor splits a query ... both streams are
        // available to the application, though the LFTA query will have a
        // mangled name." (§3)
        let mut gs = system();
        gs.add_program(
            "DEFINE { query_name counts; } \
             Select time, count(*) From eth0.tcp Group By time",
        )
        .unwrap();
        let pkts = vec![pkt(1, 0, 80, b"a"), pkt(2, 0, 80, b"b")];
        let out = gs.run_capture(pkts.into_iter(), &["counts__lfta0", "counts"]).unwrap();
        assert!(!out.stream("counts__lfta0").is_empty());
        assert!(!out.stream("counts").is_empty());
    }

    #[test]
    fn parameterized_query_reinstantiates() {
        let mut gs = system();
        gs.add_program(
            "DEFINE { query_name byport; } \
             Select time From eth0.tcp Where destPort = $port",
        )
        .unwrap();
        let mk = || vec![pkt(1, 0, 80, b"a"), pkt(2, 0, 443, b"b"), pkt(3, 0, 80, b"c")];

        gs.set_params("byport", ParamBindings::new().with("port", Value::UInt(80))).unwrap();
        let out = gs.run_capture(mk().into_iter(), &["byport"]).unwrap();
        assert_eq!(out.stream("byport").len(), 2);

        // Change the parameter on the fly and rerun.
        gs.set_params("byport", ParamBindings::new().with("port", Value::UInt(443))).unwrap();
        let out = gs.run_capture(mk().into_iter(), &["byport"]).unwrap();
        assert_eq!(out.stream("byport").len(), 1);

        // Missing binding is an instantiation error.
        gs.set_params("byport", ParamBindings::new()).unwrap();
        assert!(gs.run_capture(mk().into_iter(), &["byport"]).is_err());
    }
}
