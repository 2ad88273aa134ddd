//! The synchronous execution engine.
//!
//! Runs every deployed query over a time-ordered capture stream in one
//! thread: LFTAs execute inline in the capture loop (exactly as the paper
//! links them into the run time system), and HFTA nodes execute
//! immediately when their input streams produce items. Deterministic by
//! construction, which the test suite and the experiment harnesses rely
//! on. The threaded deployment configuration lives in [`crate::manager`].
//!
//! The graph, its queues and edges, and the per-node step are shared
//! with the threaded manager ([`crate::graph`], [`crate::dataflow`]); a
//! `run_capture` is the deterministic schedule of exactly the graph
//! `run_threaded` runs. This module owns only the inline scheduler:
//! after every packet or heartbeat round that shipped a batch it pumps
//! each node and collector, in topological order, until its queue runs
//! dry — no thread, no watchdog, no shedding — plus the on-demand
//! heartbeat trigger, which must observe a starved merge between two
//! packets, so only an inline scheduler can offer it.

use crate::dataflow::{self, Collector, Dataflow, End, Msg, NodeRunner};
use crate::graph;
use crate::health::RunHealth;
use crate::transport::{Admission, Receiver};
use crate::{Error, Gigascope};
use gs_packet::CapPacket;
use gs_runtime::ops::lfta::LftaStats;
use gs_runtime::punct::HeartbeatMode;
use gs_runtime::stats::StatRow;
use gs_runtime::tuple::Tuple;
use std::collections::HashMap;

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
    /// Final stats-registry snapshot: `lfta:*`, `hfta:*`, `edge:*` and
    /// `queue:*` counter rows (the same rows the threaded manager
    /// reports and the built-in `GS_STATS` stream emits), taken after
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

/// One scheduler turn: every runner in topological (submission) order,
/// then the collectors, each until its queue runs dry. With `flush`,
/// each runner's partial output batch ships before its consumers are
/// pumped, so the turn leaves nothing waiting in any batcher.
fn pump_all(
    runners: &mut [(NodeRunner, Receiver<Msg>)],
    collectors: &mut [(Collector, Receiver<Msg>)],
    flush: bool,
) {
    for (runner, rx) in runners {
        runner.pump(|| rx.try_recv());
        if flush {
            runner.flush_output();
        }
    }
    for (collector, rx) in collectors {
        collector.drain(|| rx.try_recv());
    }
}

/// The wired-up execution graph.
pub struct Engine {
    flow: Dataflow,
    heartbeat: HeartbeatMode,
}

impl Engine {
    /// Instantiate every deployed query of `gs`, collecting the named
    /// `subscriptions` into the run output. Inline queues are unbounded
    /// and blocking: nothing sheds, and nothing can fill, because every
    /// queue is drained before the next packet is read.
    pub fn build(gs: &Gigascope, subscriptions: &[&str]) -> Result<Engine, Error> {
        let graph = graph::build(gs, &[], &mut graph::LiveOps::default(), None, subscriptions)?;
        let flow =
            dataflow::wire(gs, graph, subscriptions, usize::MAX, Admission::Block, End::Flush, &[]);
        Ok(Engine { flow, heartbeat: gs.heartbeat })
    }

    /// Run to completion over a time-ordered capture stream.
    pub fn run<I>(self, packets: I) -> RunOutput
    where
        I: Iterator<Item = CapPacket>,
    {
        let Dataflow { mut front, mut runners, mut collectors, registry, board, .. } = self.flow;
        let on_demand = self.heartbeat == HeartbeatMode::OnDemand;
        for pkt in packets {
            let mut shipped = front.dispatch(&pkt);
            if on_demand {
                // The starved-merge trigger below must observe what this
                // packet did to the merges, so nothing of it may wait in
                // a batcher between two packets: not in the LFTA's here,
                // not in a node's on the way to the merge (`pump_all`).
                shipped |= front.flush_hits();
            }
            // Most packets ship nothing (rejected, or absorbed into a
            // filling batch): those must not walk the node list.
            if shipped {
                pump_all(&mut runners, &mut collectors, on_demand);
            }
            let due = match self.heartbeat {
                // An operator "detects that it might be blocked" (§3):
                // any starved merge triggers one round per clock advance.
                HeartbeatMode::OnDemand => {
                    front.clock_advanced()
                        && runners.iter().any(|(r, _)| {
                            r.node().merge_state().is_some_and(|(_, _, starved)| starved)
                        })
                }
                HeartbeatMode::Off | HeartbeatMode::Periodic { .. } => front.periodic_due(),
            };
            if due {
                front.heartbeat();
                pump_all(&mut runners, &mut collectors, on_demand);
            }
        }

        // Capture over: flush the LFTAs and end their streams; one pass
        // in topological order finishes every node not reading GS_STATS.
        // The last monitoring round comes after it, so its `hfta:*` rows
        // cover the flush tail, and a second pass finishes the rest.
        front.finish(End::Flush);
        pump_all(&mut runners, &mut collectors, false);
        front.finish_stats();
        pump_all(&mut runners, &mut collectors, false);
        debug_assert!(runners.iter().all(|(r, _)| r.done()), "every stream has a producer");

        let mut stats = EngineStats {
            packets: front.packets,
            heartbeats: front.heartbeats,
            ..EngineStats::default()
        };
        for (lfta, _) in front.lftas() {
            stats.lfta.insert(lfta.name.clone(), lfta.stats);
            if let Some(dm) = lfta.dm_stats() {
                stats.lfta_tables.insert(lfta.name.clone(), dm);
            }
        }
        for (runner, _) in &runners {
            let node = runner.node();
            let peak = node.merge_state().map(|m| m.1).or(node.join_state().map(|j| j.1));
            if let Some(peak) = peak {
                stats.peak_buffered.insert(runner.name().to_string(), peak);
            }
        }
        stats.counters = registry.snapshot();
        stats.health = board.report();
        let streams = collectors.into_iter().map(|(c, _)| (c.name, c.bucket)).collect();
        RunOutput { streams, stats }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FaultReason, ParamBindings, Value};
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

    /// The on-demand trigger reads merge state between two packets, so
    /// under it no batcher on the way to a merge may hold a packet's
    /// output back — neither the LFTA's nor an intermediate node's. At
    /// the default batch size the schedule must look to the merge
    /// exactly like per-tuple transport.
    #[test]
    fn on_demand_trigger_sees_through_an_intermediate_node_at_any_batch_size() {
        let run = |batch_size: usize| {
            let mut gs = system();
            gs.heartbeat = HeartbeatMode::OnDemand;
            gs.batch_size = batch_size;
            gs.add_interface("eth2", 2, LinkType::Ethernet);
            gs.add_program(
                "DEFINE { query_name t0; } Select time, destPort From eth0.tcp; \
                 DEFINE { query_name t1; } Select time, destPort From eth1.tcp; \
                 DEFINE { query_name t2; } Select time, destPort From eth2.tcp; \
                 DEFINE { query_name busy; } Merge t0.time : t1.time From t0, t1; \
                 DEFINE { query_name merged; } Merge busy.time : t2.time From busy, t2",
            )
            .unwrap();
            // Two busy links through the inner merge (a row-producing
            // node, so its output does sit in a batcher), and a partner
            // that speaks once.
            let mut pkts = vec![pkt(0, 2, 80, b"s")];
            pkts.extend((0..600u64).map(|i| pkt(i / 60, (i % 2) as u16, 80, b"b")));
            gs.run_capture(pkts.into_iter(), &["merged"]).unwrap()
        };
        let (per_tuple, batched) = (run(1), run(256));
        assert!(per_tuple.stats.heartbeats > 0, "the starved merge must trigger rounds");
        assert_eq!(batched.stats.heartbeats, per_tuple.stats.heartbeats);
        assert_eq!(
            batched.stats.peak_buffered["merged"], per_tuple.stats.peak_buffered["merged"],
            "the merge buffers what it would under per-tuple transport"
        );
        assert!(batched.stats.peak_buffered["merged"] < 256, "and far less than one batch");
        assert_eq!(batched.stream("merged"), per_tuple.stream("merged"));
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
