//! Configuration contracts both engines must answer the same way: what
//! is validated once in the shared graph builder cannot drift between
//! `run_capture` and `run_threaded`, and an option one engine cannot
//! honour is refused, not silently ignored.

use gigascope::manager::{run_threaded, run_threaded_opts, ThreadedOptions};
use gigascope::server::{self, DaemonConfig};
use gigascope::{Error, Gigascope};
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
