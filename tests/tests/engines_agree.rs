//! Contracts both engines must answer the same way: what is validated
//! once in the shared graph builder cannot drift between `run_capture`
//! and `run_threaded`, an option one engine cannot honour is refused,
//! not silently ignored, a contained fault is reported identically by
//! whichever scheduler pumped the node, and the inline schedule is
//! deterministic.

use gigascope::manager::{run_threaded, run_threaded_opts, ThreadedOptions};
use gigascope::server::{self, DaemonConfig};
use gigascope::{Error, FaultPlan, FaultReason, Gigascope};
use gs_packet::builder::FrameBuilder;
use gs_packet::capture::{CapPacket, LinkType};
use gs_runtime::punct::HeartbeatMode;

fn system() -> Gigascope {
    let mut gs = Gigascope::new();
    gs.add_interface("eth0", 0, LinkType::Ethernet);
    gs.add_program(
        "DEFINE { query_name raw; } Select time, len From eth0.tcp; \
         DEFINE { query_name agg; } Select time, count(*) From raw Group By time; \
         DEFINE { query_name tot; } Select time, count(*) From eth0.tcp Group By time",
    )
    .unwrap();
    gs
}

fn trace() -> Vec<CapPacket> {
    (0..40u64)
        .map(|i| {
            let f = FrameBuilder::tcp(1, 2, 1024, 80).payload(b"x").build_ethernet();
            CapPacket::full(i * 250_000_000, 0, LinkType::Ethernet, f)
        })
        .collect()
}

/// Regression: `run_threaded` used to return an empty stream for a
/// subscription naming no stream, where `run_capture` returned
/// `Error::Config`. Both now refuse it; `GS_STATS` and the mangled LFTA
/// stream names stay subscribable; and the stream of an excluded
/// (backed-off) query is valid and empty, which `gsqd` relies on.
#[test]
fn unknown_subscription_is_a_config_error_on_both_engines() {
    let gs = system();
    let pkts = trace();
    let sync = gs.run_capture(pkts.iter().cloned(), &["agg", "ghost"]);
    assert!(matches!(sync, Err(Error::Config(ref m)) if m.contains("ghost")));
    let threaded = run_threaded(&gs, pkts.iter().cloned(), &["agg", "ghost"]);
    assert!(matches!(threaded, Err(Error::Config(ref m)) if m.contains("ghost")));

    let subs = ["agg", "raw", "tot", "tot__lfta0", "GS_STATS"];
    let sync = gs.run_capture(pkts.iter().cloned(), &subs).unwrap();
    let threaded = run_threaded(&gs, pkts.iter().cloned(), &subs).unwrap();
    for s in subs {
        assert!(!sync.stream(s).is_empty(), "sync `{s}`");
        assert!(!threaded.stream(s).is_empty(), "threaded `{s}`");
    }

    let opts = ThreadedOptions { exclude: vec!["agg".to_string()], ..Default::default() };
    let out = run_threaded_opts(&gs, pkts.iter().cloned(), &["agg", "raw"], opts).unwrap();
    assert!(out.stream("agg").is_empty(), "an excluded query's stream is valid and empty");
    assert_eq!(out.stream("raw").len(), pkts.len());
}

/// Regression: the threaded manager only implements periodic
/// heartbeats, so `OnDemand` used to behave as `Off` without saying so.
/// It is now refused up front, by `run_threaded` and by the daemon; the
/// synchronous engine keeps the mode.
#[test]
fn on_demand_heartbeats_are_refused_where_unsupported() {
    let mut gs = system();
    gs.heartbeat = HeartbeatMode::OnDemand;
    let pkts = trace();
    let err = run_threaded(&gs, pkts.iter().cloned(), &["agg"]).unwrap_err();
    assert!(matches!(err, Error::Config(ref m) if m.contains("periodic")), "{err}");
    let sync = gs.run_capture(pkts.iter().cloned(), &["agg"]).unwrap();
    assert!(!sync.stream("agg").is_empty(), "run_capture keeps on-demand heartbeats");

    let config = DaemonConfig {
        listen: "127.0.0.1:0".to_string(),
        heartbeat: HeartbeatMode::OnDemand,
        ..DaemonConfig::default()
    };
    assert!(matches!(server::start(config), Err(Error::Config(_))));

    for mode in [HeartbeatMode::Off, HeartbeatMode::Periodic { interval: 2 }] {
        gs.heartbeat = mode;
        assert!(run_threaded(&gs, pkts.iter().cloned(), &["agg"]).is_ok(), "{mode:?}");
    }
}

/// One containment mechanism, two call sites: a panic injected into a
/// plain node, and into shard `perport#1` of a partitioned query, must
/// produce the same health report — root cause on the faulted query,
/// `Upstream` naming the origin node on its consumer, siblings clean —
/// and exactly one contained fault, under either scheduler.
#[test]
fn contained_faults_are_reported_identically_by_both_engines() {
    let program = "DEFINE { query_name raw; } Select time, destPort, len From eth0.tcp; \
         DEFINE { query_name perport; } \
         Select time, destPort, count(*) From raw Group By time, destPort; \
         DEFINE { query_name busy; } Select time, destPort From perport; \
         DEFINE { query_name persec; } Select time, count(*) From raw Group By time";
    let subs = ["perport", "busy", "persec"];
    let pkts: Vec<CapPacket> = (0..240u64)
        .map(|i| {
            let f = FrameBuilder::tcp(1, 2, 1024, 8000 + (i % 5) as u16).build_ethernet();
            CapPacket::full(i * 25_000_000, 0, LinkType::Ethernet, f)
        })
        .collect();
    for (parallelism, target) in [(1, "perport"), (3, "perport#1")] {
        let mut gs = Gigascope::new();
        gs.add_interface("eth0", 0, LinkType::Ethernet);
        gs.parallelism = parallelism;
        gs.add_program(program).unwrap();
        gs.faults = Some(FaultPlan::new().panic_at(target, 1));
        let sync = gs.run_capture(pkts.iter().cloned(), &subs).unwrap();
        let threaded = run_threaded(&gs, pkts.iter().cloned(), &subs).unwrap();

        let failures = sync.stats.health.failures();
        assert_eq!(failures, threaded.health.failures(), "fault at `{target}`");
        assert_eq!(failures.len(), 2, "`persec` and `raw` are untouched: {failures:?}");
        assert!(matches!(failures[1], ("perport", FaultReason::Panic(_))), "{failures:?}");
        assert_eq!(failures[0], ("busy", &FaultReason::Upstream(target.to_string())));
        assert_eq!(sync.stats.counter("faults", "faults_contained"), Some(1));
        assert_eq!(threaded.counter("faults", "faults_contained"), Some(1));
        assert_eq!(sync.stream("persec"), threaded.stream("persec"), "sibling output");
        assert!(!sync.stream("persec").is_empty());
    }
}

/// `run_capture` is a deterministic schedule: two runs of a mixed
/// deployment (selection, fan-out, split aggregation, merge) over the
/// same trace emit identical tuple *sequences* on every stream.
#[test]
fn the_inline_schedule_is_deterministic() {
    let mut gs = Gigascope::new();
    gs.add_interface("eth0", 0, LinkType::Ethernet);
    gs.add_interface("eth1", 1, LinkType::Ethernet);
    gs.add_program(
        "DEFINE { query_name sel; } Select time, len From eth0.tcp Where destPort = 80; \
         DEFINE { query_name raw; } Select time, len From eth0.tcp; \
         DEFINE { query_name agg; } Select time, count(*), sum(len) From raw Group By time; \
         DEFINE { query_name a; } Select time, len From eth0.tcp; \
         DEFINE { query_name b; } Select time, len From eth1.tcp; \
         DEFINE { query_name m; } Merge a.time : b.time From a, b",
    )
    .unwrap();
    let subs = ["sel", "raw", "agg", "m"];
    let pkts: Vec<CapPacket> = (0..900u64)
        .map(|i| {
            let dport = if i % 3 == 0 { 80 } else { 443 };
            let f = FrameBuilder::tcp(1, 2, 1024, dport)
                .payload(&vec![0u8; (i % 40) as usize])
                .build_ethernet();
            CapPacket::full(i * 7_000_000, (i % 2) as u16, LinkType::Ethernet, f)
        })
        .collect();
    let first = gs.run_capture(pkts.iter().cloned(), &subs).unwrap();
    let second = gs.run_capture(pkts.iter().cloned(), &subs).unwrap();
    for s in subs {
        assert!(!first.stream(s).is_empty(), "`{s}`");
        assert_eq!(first.stream(s), second.stream(s), "`{s}` sequence differs between runs");
    }
}
