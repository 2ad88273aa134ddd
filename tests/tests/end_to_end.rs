//! End-to-end integration: GSQL text in, packets in, correct tuples out —
//! checked against oracle computations over the same packets.

use gigascope::manager::run_threaded;
use gigascope::{Gigascope, ParamBindings, Value};
use gs_netgen::{MixConfig, PacketMix};
use gs_packet::builder::FrameBuilder;
use gs_packet::capture::{CapPacket, LinkType};
use gs_tests::{oracle_port_count_bytes, oracle_port_counts, oracle_src_counts};
use std::collections::BTreeMap;

fn system() -> Gigascope {
    let mut gs = Gigascope::new();
    gs.add_interface("eth0", 0, LinkType::Ethernet);
    gs.add_interface("eth1", 1, LinkType::Ethernet);
    gs
}

fn mix(seed: u64, ms: u64) -> Vec<CapPacket> {
    PacketMix::new(MixConfig {
        seed,
        duration_ms: ms,
        http_rate_mbps: 30.0,
        background_rate_mbps: 50.0,
        ..MixConfig::default()
    })
    .collect()
}

#[test]
fn selection_matches_oracle() {
    let mut gs = system();
    gs.add_program(
        "DEFINE { query_name q; } Select time, destPort From eth0.tcp Where destPort = 80",
    )
    .unwrap();
    let pkts = mix(1, 700);
    let expected: u64 = oracle_port_counts(&pkts, 80).values().sum();
    let out = gs.run_capture(pkts.into_iter(), &["q"]).unwrap();
    assert_eq!(out.stream("q").len() as u64, expected);
}

#[test]
fn split_aggregation_matches_oracle_exactly() {
    let mut gs = system();
    gs.add_program(
        "DEFINE { query_name q; } \
         Select time, count(*), sum(len) From eth0.tcp Where destPort = 80 Group By time",
    )
    .unwrap();
    let pkts = mix(2, 1500);
    let expected = oracle_port_count_bytes(&pkts, 80);
    let out = gs.run_capture(pkts.into_iter(), &["q"]).unwrap();
    let got: BTreeMap<u64, (u64, u64)> = out
        .stream("q")
        .iter()
        .map(|t| {
            (
                t.get(0).as_uint().unwrap(),
                (t.get(1).as_uint().unwrap(), t.get(2).as_uint().unwrap()),
            )
        })
        .collect();
    assert_eq!(got, expected, "sub/super-aggregation must be lossless");
    // The split actually happened: the LFTA emitted fewer tuples than
    // packets but more than final groups (evidence of partials).
    let dm = out.stats.lfta_tables.get("q__lfta0").expect("pre-aggregating LFTA");
    assert!(dm.inputs > dm.outputs || dm.outputs >= got.len() as u64);
}

#[test]
fn avg_split_equals_true_mean() {
    let mut gs = system();
    gs.add_program(
        "DEFINE { query_name q; } Select time, avg(len) From eth0.ip Group By time",
    )
    .unwrap();
    let pkts = mix(3, 800);
    // Oracle mean per second over all IP packets.
    let mut sums: BTreeMap<u64, (u64, u64)> = BTreeMap::new();
    for p in &pkts {
        let e = sums.entry(u64::from(p.time_sec())).or_insert((0, 0));
        e.0 += u64::from(p.wire_len);
        e.1 += 1;
    }
    let out = gs.run_capture(pkts.into_iter(), &["q"]).unwrap();
    for t in out.stream("q") {
        let sec = t.get(0).as_uint().unwrap();
        let avg = t.get(1).as_float().unwrap();
        let (s, n) = sums[&sec];
        let expected = s as f64 / n as f64;
        assert!((avg - expected).abs() < 1e-9, "sec {sec}: {avg} vs {expected}");
    }
    assert_eq!(out.stream("q").len(), sums.len());
}

#[test]
fn group_by_src_ip_matches_oracle() {
    let mut gs = system();
    gs.add_program(
        "DEFINE { query_name q; } Select time, srcIP, count(*) From eth0.ip Group By time, srcIP",
    )
    .unwrap();
    let pkts = mix(4, 400);
    let expected = oracle_src_counts(&pkts);
    let out = gs.run_capture(pkts.into_iter(), &["q"]).unwrap();
    let got: BTreeMap<(u64, u32), u64> = out
        .stream("q")
        .iter()
        .map(|t| {
            let sec = t.get(0).as_uint().unwrap();
            let Value::Ip(src) = t.get(1) else { panic!("srcIP must be an address") };
            ((sec, *src), t.get(2).as_uint().unwrap())
        })
        .collect();
    assert_eq!(got, expected);
}

#[test]
fn having_filters_groups() {
    let mut gs = system();
    gs.add_program(
        "DEFINE { query_name all_groups; } \
         Select time, count(*) From eth0.tcp Group By time; \
         DEFINE { query_name big_groups; } \
         Select time, count(*) From eth0.tcp Group By time Having count(*) > $min",
    )
    .unwrap();
    gs.set_params("big_groups", ParamBindings::new().with("min", Value::UInt(10))).unwrap();
    // Second s carries s+1 packets, s in 0..20: exactly ten groups exceed 10.
    let mut pkts = Vec::new();
    for s in 0..20u64 {
        for k in 0..=s {
            let f = FrameBuilder::tcp(1, 2, 9, 80).build_ethernet();
            pkts.push(CapPacket::full(s * 1_000_000_000 + k, 0, LinkType::Ethernet, f));
        }
    }
    let out = gs.run_capture(pkts.into_iter(), &["all_groups", "big_groups"]).unwrap();
    let all = out.stream("all_groups");
    let big = out.stream("big_groups");
    assert_eq!(all.len(), 20);
    assert_eq!(big.len(), 10);
    assert!(big.iter().all(|t| t.get(1).as_uint().unwrap() > 10));
}

#[test]
fn http_fraction_equals_ground_truth() {
    // The §4 experiment's query pair, checked against generator truth.
    let mut gs = system();
    gs.add_program(
        "DEFINE { query_name all80; } \
         Select time, count(*) From eth0.tcp Where destPort = 80 Group By time; \
         DEFINE { query_name http80; } \
         Select time, count(*) From eth0.tcp \
         Where destPort = 80 and str_match_regex(payload, '^[^\\n]*HTTP/1.*') \
         Group By time",
    )
    .unwrap();
    let mut mix = PacketMix::new(MixConfig {
        seed: 6,
        duration_ms: 1000,
        http_rate_mbps: 40.0,
        http_match_fraction: 0.6,
        near_miss_fraction: 0.3,
        background_rate_mbps: 40.0,
        ..MixConfig::default()
    });
    let pkts: Vec<CapPacket> = (&mut mix).collect();
    let truth = mix.truth();
    let out = gs.run_capture(pkts.into_iter(), &["all80", "http80"]).unwrap();
    let sum = |name: &str| -> u64 {
        out.stream(name).iter().map(|t| t.get(1).as_uint().unwrap()).sum()
    };
    assert_eq!(sum("all80"), truth.port80_pkts);
    assert_eq!(sum("http80"), truth.http_match_pkts, "anchored regex must reject near-misses");
}

#[test]
fn merge_preserves_order_across_interfaces() {
    let mut gs = system();
    gs.add_program(
        "DEFINE { query_name a; } Select time, len From eth0.tcp; \
         DEFINE { query_name b; } Select time, len From eth1.tcp; \
         DEFINE { query_name m; } Merge a.time : b.time From a, b",
    )
    .unwrap();
    // Interleaved traffic on both interfaces.
    let mut pkts = Vec::new();
    for i in 0..400u64 {
        let f = FrameBuilder::tcp(1, 2, 9, 80).payload(&[0u8; 10]).build_ethernet();
        pkts.push(CapPacket::full(i * 137_000_000, (i % 2) as u16, LinkType::Ethernet, f));
    }
    let out = gs.run_capture(pkts.into_iter(), &["m"]).unwrap();
    let times: Vec<u64> = out.stream("m").iter().map(|t| t.get(0).as_uint().unwrap()).collect();
    assert_eq!(times.len(), 400);
    assert!(times.windows(2).all(|w| w[0] <= w[1]), "merge output must stay ordered");
}

#[test]
fn composed_three_level_pipeline() {
    // selection -> merge -> aggregation, all by name composition.
    let mut gs = system();
    gs.add_program(
        "DEFINE { query_name s0; } Select time, len From eth0.tcp Where destPort = 80; \
         DEFINE { query_name s1; } Select time, len From eth1.tcp Where destPort = 80; \
         DEFINE { query_name m; } Merge s0.time : s1.time From s0, s1; \
         DEFINE { query_name agg; } Select time, count(*), sum(len) From m Group By time",
    )
    .unwrap();
    let mut pkts = Vec::new();
    for i in 0..600u64 {
        let port = if i % 3 == 0 { 80 } else { 443 };
        let f = FrameBuilder::tcp(1, 2, 9, port).payload(&[0u8; 50]).build_ethernet();
        pkts.push(CapPacket::full(i * 10_000_000, (i % 2) as u16, LinkType::Ethernet, f));
    }
    let expected = oracle_port_counts(&pkts, 80);
    let out = gs.run_capture(pkts.into_iter(), &["agg"]).unwrap();
    let got: BTreeMap<u64, u64> = out
        .stream("agg")
        .iter()
        .map(|t| (t.get(0).as_uint().unwrap(), t.get(1).as_uint().unwrap()))
        .collect();
    assert_eq!(got, expected);
}

#[test]
fn join_over_two_protocol_streams() {
    let mut gs = system();
    gs.add_program(
        "DEFINE { query_name j; } \
         Select B.time, B.srcIP FROM eth0.tcp B, eth1.tcp C \
         WHERE B.time = C.time and B.srcIP = C.srcIP and B.id = C.id",
    )
    .unwrap();
    // Build matched pairs: identical (src, id, second) on both interfaces.
    let mut pkts = Vec::new();
    let mut expected = 0u64;
    for i in 0..300u64 {
        let f0 = FrameBuilder::tcp(100 + i as u32, 2, 9, 80).ip_id(i as u16).build_ethernet();
        pkts.push(CapPacket::full(i * 100_000_000, 0, LinkType::Ethernet, f0));
        if i % 4 == 0 {
            let f1 = FrameBuilder::tcp(100 + i as u32, 2, 9, 80).ip_id(i as u16).build_ethernet();
            pkts.push(CapPacket::full(i * 100_000_000 + 1, 1, LinkType::Ethernet, f1));
            expected += 1;
        }
    }
    let out = gs.run_capture(pkts.into_iter(), &["j"]).unwrap();
    assert_eq!(out.stream("j").len() as u64, expected);
}

#[test]
fn netflow_pipeline_with_lpm() {
    let mut gs = Gigascope::new();
    gs.add_interface("nf0", 0, LinkType::NetflowRecord);
    // Generated destinations live in 192.168.{0..11}.x: a /22 nested in
    // the /16 splits them across two peers and exercises LPM.
    gs.add_file("peers.tbl", "192.168.0.0/22 1\n192.168.0.0/16 2\n");
    gs.add_program(
        "DEFINE { query_name q; } \
         Select peerid, count(*) FROM nf0.netflow \
         Group by getlpmid(destIP, 'peers.tbl') as peerid, time/60 as tb",
    )
    .unwrap();
    let records = gs_netgen::netflowgen::generate_netflow(&gs_netgen::netflowgen::NetflowGenConfig {
        seed: 7,
        flow_count: 3_000,
        ..Default::default()
    });
    let n = records.len() as u64;
    let out = gs.run_capture(records.into_iter(), &["q"]).unwrap();
    // Every record's destination is in 192.168/16, so every record lands
    // on peer 1 or 2 and nothing is discarded.
    let total: u64 = out.stream("q").iter().map(|t| t.get(1).as_uint().unwrap()).sum();
    assert_eq!(total, n);
    let peers: std::collections::HashSet<u64> =
        out.stream("q").iter().map(|t| t.get(0).as_uint().unwrap()).collect();
    assert_eq!(peers, [1u64, 2].into_iter().collect());
}

#[test]
fn bgp_counts_by_type() {
    let mut gs = Gigascope::new();
    gs.add_interface("bgp0", 0, LinkType::BgpUpdate);
    gs.add_program(
        "DEFINE { query_name q; } \
         Select msgType, count(*) From bgp0.bgp Group By time/3600 as tb, msgType",
    )
    .unwrap();
    let feed = gs_netgen::bgpgen::generate_bgp(&gs_netgen::bgpgen::BgpGenConfig {
        seed: 8,
        updates: 5_000,
        withdraw_fraction: 0.25,
        ..Default::default()
    });
    let n = feed.len() as u64;
    let out = gs.run_capture(feed.into_iter(), &["q"]).unwrap();
    let total: u64 = out.stream("q").iter().map(|t| t.get(1).as_uint().unwrap()).sum();
    assert_eq!(total, n);
}

#[test]
fn heartbeats_flush_aggregates_without_later_packets() {
    // A lone packet in the last second: without end-of-stream the group
    // would stay open; the heartbeat closes it when the clock advances.
    let mut gs = system();
    gs.heartbeat = gs_runtime::punct::HeartbeatMode::Periodic { interval: 1 };
    gs.add_program(
        "DEFINE { query_name q; } Select time, count(*) From eth0.tcp Group By time",
    )
    .unwrap();
    let f = |sec: u64| {
        CapPacket::full(
            sec * 1_000_000_000,
            0,
            LinkType::Ethernet,
            FrameBuilder::tcp(1, 2, 9, 80).build_ethernet(),
        )
    };
    let out = gs.run_capture(vec![f(1), f(1), f(5)].into_iter(), &["q"]).unwrap();
    let rows: Vec<(u64, u64)> = out
        .stream("q")
        .iter()
        .map(|t| (t.get(0).as_uint().unwrap(), t.get(1).as_uint().unwrap()))
        .collect();
    assert_eq!(rows, vec![(1, 2), (5, 1)]);
}

#[test]
fn snaplen_does_not_break_header_queries() {
    // Header-only query gets a snap length; results must be identical to
    // full capture semantics.
    let mut gs = system();
    let infos = gs
        .add_program(
            "DEFINE { query_name q; } Select time, destPort, len From eth0.tcp Where destPort = 80",
        )
        .unwrap();
    assert_eq!(infos[0].lftas, 1);
    let pkts = mix(10, 300);
    let expected: u64 = oracle_port_counts(&pkts, 80).values().sum();
    let out = gs.run_capture(pkts.into_iter(), &["q"]).unwrap();
    assert_eq!(out.stream("q").len() as u64, expected);
    // The wire length survives snapping.
    assert!(out.stream("q").iter().all(|t| t.get(2).as_uint().unwrap() >= 64));
}

#[test]
fn bursty_traffic_runs_clean() {
    let mut gs = system();
    gs.add_program(
        "DEFINE { query_name q; } Select time, count(*) From eth0.ip Group By time",
    )
    .unwrap();
    let pkts: Vec<CapPacket> = PacketMix::new(MixConfig {
        seed: 11,
        duration_ms: 1500,
        bursty_background: true,
        background_rate_mbps: 120.0,
        http_rate_mbps: 0.0,
        ..MixConfig::default()
    })
    .collect();
    let n = pkts.len() as u64;
    let out = gs.run_capture(pkts.into_iter(), &["q"]).unwrap();
    let total: u64 = out.stream("q").iter().map(|t| t.get(1).as_uint().unwrap()).sum();
    assert_eq!(total, n);
}

#[test]
fn from_clause_subquery_composes() {
    // The paper's §5 research direction, desugared by the parser into
    // named composition.
    let mut gs = system();
    gs.add_program(
        "DEFINE { query_name per_minute; } \
         Select tb, count(*) \
         FROM (Select time/60 as tb, destPort FROM eth0.tcp Where destPort = 80) S \
         Group By tb",
    )
    .unwrap();
    let pkts = mix(12, 900);
    let expected: u64 = oracle_port_counts(&pkts, 80).values().sum();
    let out = gs.run_capture(pkts.into_iter(), &["per_minute"]).unwrap();
    let total: u64 = out.stream("per_minute").iter().map(|t| t.get(1).as_uint().unwrap()).sum();
    assert_eq!(total, expected);
}

#[test]
fn analyst_sampling_is_deterministic_and_proportional() {
    let run_with = |sample: &str| {
        let mut gs = system();
        gs.add_program(&format!(
            "DEFINE {{ query_name q; {sample} }} Select time From eth0.tcp Where destPort = 80",
        ))
        .unwrap();
        let pkts = mix(13, 1500);
        gs.run_capture(pkts.into_iter(), &["q"]).unwrap()
    };
    let full = run_with("").stream("q").len() as f64;
    let out_half = run_with("sample 0.5;");
    let half = out_half.stream("q").len() as f64;
    assert!(full > 500.0, "need enough traffic for a stable ratio");
    let ratio = half / full;
    assert!((ratio - 0.5).abs() < 0.05, "sampled fraction {ratio} should be ~0.5");
    assert!(out_half.stats.lfta["q"].sampled_out > 0);
    // Deterministic: same seed, same sample -> identical output.
    let again = run_with("sample 0.5;");
    assert_eq!(out_half.stream("q").len(), again.stream("q").len());
}

#[test]
fn invalid_sample_probability_rejected() {
    let mut gs = system();
    assert!(gs
        .add_program("DEFINE { query_name q; sample 1.5; } Select time From eth0.tcp")
        .is_err());
    assert!(gs
        .add_program("DEFINE { query_name q2; sample 0; } Select time From eth0.tcp")
        .is_err());
}

// ---------------------------------------------------------------------
// Self-monitoring: stats accuracy
// ---------------------------------------------------------------------

/// A two-interface select → merge → aggregate pipeline whose per-operator
/// tuple counts are known exactly from the trace construction.
const STATS_PROGRAM: &str =
    "DEFINE { query_name s0; } Select time From eth0.tcp Where destPort = 80; \
     DEFINE { query_name s1; } Select time From eth1.tcp Where destPort = 80; \
     DEFINE { query_name m; } Merge s0.time : s1.time From s0, s1; \
     DEFINE { query_name agg; } Select time, count(*) From m Group By time";

/// 600 packets, 10 ms apart (seconds 0..=5), alternating interfaces;
/// every third packet goes to port 80. Per interface: 300 packets seen,
/// 100 to port 80, so the merge sees 200 and the aggregate emits one
/// group per second = 6.
fn stats_trace() -> Vec<CapPacket> {
    (0..600u64)
        .map(|i| {
            let dport = if i % 3 == 0 { 80 } else { 443 };
            let f = FrameBuilder::tcp(0x0a00_0000 + i as u32, 0xc0a8_0001, 1024, dport)
                .build_ethernet();
            CapPacket::full(i * 10_000_000, (i % 2) as u16, LinkType::Ethernet, f)
        })
        .collect()
}

/// `(node, counter, expected)` for `stats_trace` through `STATS_PROGRAM`,
/// required to hold on either engine at any batch size.
const EXACT_COUNTS: [(&str, &str, u64); 10] = [
    ("lfta:s0", "packets_in", 300),
    ("lfta:s0", "tuples_out", 100),
    ("lfta:s1", "packets_in", 300),
    ("lfta:s1", "tuples_out", 100),
    ("hfta:m/0:merge", "tuples_in", 200),
    ("hfta:m/0:merge", "tuples_out", 200),
    ("hfta:agg/0:aggregate", "tuples_in", 200),
    ("hfta:agg/0:aggregate", "tuples_out", 6),
    ("hfta:agg/1:select", "tuples_in", 6),
    ("hfta:agg/1:select", "tuples_out", 6),
];

/// The exact counts under both schedulers at batch sizes straddling the
/// trace's punctuation boundaries: batching must never lose or
/// double-count a tuple, and who pumps the nodes must not show.
#[test]
fn operator_counters_are_exact_under_both_schedulers_at_every_batch_size() {
    let pkts = stats_trace();
    for batch in [1usize, 3, 256] {
        let mut gs = system();
        gs.batch_size = batch;
        gs.add_program(STATS_PROGRAM).unwrap();
        let sync = gs.run_capture(pkts.iter().cloned(), &["agg"]).unwrap();
        let threaded = run_threaded(&gs, pkts.iter().cloned(), &["agg"]).unwrap();
        let runs = [
            ("run_capture", sync.stream("agg"), &sync.stats.counters),
            ("run_threaded", threaded.stream("agg"), &threaded.counters),
        ];
        for (engine, rows, counters) in runs {
            let at = format!("{engine} batch {batch}");
            let counter = |node: &str, counter: &str| {
                counters.iter().find(|r| r.node == node && r.counter == counter).map(|r| r.value)
            };
            assert_eq!(rows.len(), 6, "{at}");
            for (node, c, want) in EXACT_COUNTS {
                assert_eq!(counter(node, c), Some(want), "{at} {node}.{c}");
            }
            // The 200 non-port-80 packets per LFTA are rejected up front —
            // by the pushed-down BPF prefilter or the residual predicate,
            // whichever got the Where clause.
            for lfta in ["lfta:s0", "lfta:s1"] {
                let rejected =
                    counter(lfta, "prefiltered").unwrap() + counter(lfta, "filtered").unwrap();
                assert_eq!(rejected, 200, "{at} {lfta} rejections");
            }
            // Edge accounting closes: every flushed batch has exactly one
            // recorded cause, and each LFTA's 100 tuples all crossed its
            // edge (items also counts punctuations, so >=).
            for edge in ["edge:s0", "edge:s1"] {
                let by_cause: u64 = ["flush_size", "flush_punct", "flush_heartbeat", "flush_close"]
                    .iter()
                    .map(|c| counter(edge, c).unwrap())
                    .sum();
                assert_eq!(counter(edge, "batches"), Some(by_cause), "{at} {edge} flush causes");
                assert!(counter(edge, "items").unwrap() >= 100, "{at} {edge} items");
            }
        }
    }
}

fn node_is(v: &Value, name: &str) -> bool {
    matches!(v, Value::Str(s) if s.as_ref() == name.as_bytes())
}

/// GS_STATS is an ordinary queryable stream in the synchronous engine
/// too: snapshots are emitted at heartbeat rounds plus a final one, so a
/// GSQL query over it sees per-operator counters rising monotonically to
/// the exact final total.
#[test]
fn gs_stats_is_queryable_in_the_sync_engine() {
    let mut gs = system();
    gs.add_program(
        "DEFINE { query_name q; } Select time, count(*) From eth0.tcp Group By time; \
         DEFINE { query_name watch; } \
         Select time, node, counter, value From GS_STATS \
         Where counter = 'packets_in' Or counter = 'tuples_in'",
    )
    .unwrap();
    let out = gs.run_capture(stats_trace().into_iter(), &["q", "watch"]).unwrap();
    // The final round comes after the end-of-capture LFTA flush went
    // through the nodes, so its `hfta:*` rows are the final totals too.
    let agg = "hfta:q/0:aggregate";
    let last_in = out.stream("watch").iter().rev().find(|t| node_is(t.get(1), agg)).unwrap();
    assert_eq!(last_in.get(3).as_uint(), out.stats.counter(agg, "tuples_in"));
    let vals: Vec<u64> = out
        .stream("watch")
        .iter()
        .filter(|t| node_is(t.get(1), "lfta:q__lfta0"))
        .map(|t| t.get(3).as_uint().unwrap())
        .collect();
    assert!(vals.len() >= 2, "snapshots mid-run plus a final one; got {vals:?}");
    assert!(vals.windows(2).all(|w| w[0] <= w[1]), "counters are monotone: {vals:?}");
    assert_eq!(*vals.last().unwrap(), 300, "final snapshot has the exact packet total");
}
