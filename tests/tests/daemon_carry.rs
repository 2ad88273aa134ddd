//! Carry-state daemon tests: with `--carry-state` the epoch scheme is a
//! *pause*, not a restart. Operator state checkpoints at every epoch
//! boundary and restores into the next, so a window spanning epoch
//! boundaries aggregates exactly as one continuous run; a faulted epoch
//! is replayed from the last good checkpoint when the query is
//! reprovisioned; and shutdown flushes the held tails. The oracle for
//! everything here is a single `run_threaded` over the concatenation of
//! every epoch's packets.
//!
//! Sources must be time-continuous across epochs for carry to make
//! sense ([`PacketSource::Chunked`]); a few empty lead-in chunks give
//! the test client time to subscribe before the first real packet, so
//! the subscriber provably observes *every* produced row.

use gigascope::manager::run_threaded;
use gigascope::server::client::Client;
use gigascope::server::wire::LifeState;
use gigascope::server::{self, DaemonConfig, PacketSource};
use gigascope::{FaultPlan, Gigascope, Tuple};
use gs_packet::capture::{CapPacket, LinkType};
use gs_tests::daemon::{lagging_source, norm, CLIENT_TIMEOUT, LAGGING_PROGRAM};
use std::collections::HashMap;

/// Shared derived stream, a multi-key aggregate (the fault target), and
/// an innocent sibling — the same topology as the restart battery, but
/// grouped on `time` so each 1-second window spans ~10 of the 100 ms
/// epochs below.
const PROGRAM: &str = "DEFINE { query_name raw; } \
     Select time, destPort, len From eth0.tcp; \
     DEFINE { query_name agg; } \
     Select time, destPort, count(*), sum(len) From raw Group By time, destPort; \
     DEFINE { query_name sib; } \
     Select time, count(*), sum(len) From raw Group By time";

/// Number of empty lead-in chunks: the subscribe margin. At 30 ms per
/// epoch the client has ~150 ms to get its SUBSCRIBEs in, which a
/// loopback connect achieves with orders of magnitude to spare.
const LEAD_IN: usize = 5;

/// A time-continuous source: `LEAD_IN` empty chunks, then 12 × 100 ms
/// of synthetic traffic (1.2 s of stream time, so the first 1-second
/// window closes mid-session and the rest flushes at shutdown).
fn carry_source(seed: u64) -> (PacketSource, Vec<CapPacket>) {
    let PacketSource::Chunked(real) = PacketSource::chunked_synthetic(20.0, 100, 12, seed) else {
        unreachable!("chunked_synthetic returns Chunked");
    };
    let all: Vec<CapPacket> = real.iter().flatten().cloned().collect();
    let mut chunks = vec![Vec::new(); LEAD_IN];
    chunks.extend(real);
    (PacketSource::Chunked(chunks), all)
}

fn carry_config(source: PacketSource) -> DaemonConfig {
    DaemonConfig {
        source,
        epoch_gap_ms: 30,
        carry_state: true,
        initial_program: Some(PROGRAM.to_string()),
        ..DaemonConfig::default()
    }
}

fn connect(addr: std::net::SocketAddr) -> Client {
    let mut c = Client::connect(addr).expect("connect");
    c.set_timeout(Some(CLIENT_TIMEOUT)).expect("timeout");
    c
}

/// The continuous-run oracle over the full concatenated trace.
fn continuous_reference(
    all: &[CapPacket],
    subs: &[&str],
    program: &str,
) -> HashMap<String, Vec<Tuple>> {
    let mut gs = Gigascope::new();
    gs.add_interface("eth0", 0, LinkType::Ethernet);
    gs.add_program(program).expect("reference program");
    run_threaded(&gs, all.iter().cloned(), subs).expect("reference run").streams
}

/// Read `stream` epoch by epoch until the marker for `last_epoch` has
/// arrived, collecting rows and asserting the markers are contiguous —
/// carry mode promises exactly one marker per (stream, epoch), in
/// order, faults and backoffs notwithstanding.
fn collect_through(client: &mut Client, stream: &str, last_epoch: u64) -> Vec<Tuple> {
    let mut rows = Vec::new();
    let mut expect: Option<u64> = None;
    loop {
        let (epoch, mut r) = client.read_epoch(stream).expect("epoch read");
        if let Some(e) = expect {
            assert_eq!(epoch, e, "stream `{stream}`: markers out of order or missing");
        }
        expect = Some(epoch + 1);
        rows.append(&mut r);
        if epoch >= last_epoch {
            return rows;
        }
    }
}

/// After SHUTDOWN: drain the flush-epoch frames (held window tails)
/// until the daemon closes the socket.
fn drain_tail(client: &mut Client, collected: &mut HashMap<String, Vec<Tuple>>) {
    while let Ok(frame) = client.next_tuples() {
        collected.entry(frame.stream).or_default().extend(frame.rows);
    }
}

#[test]
fn windows_spanning_epochs_aggregate_as_one_continuous_run() {
    let (source, all) = carry_source(0xCA221);
    let last_epoch = (LEAD_IN + 12 - 1) as u64;
    let mut daemon = server::start(carry_config(source)).expect("daemon start");
    let mut client = connect(daemon.addr());
    client.subscribe("agg").expect("subscribe agg");
    client.subscribe("sib").expect("subscribe sib");

    let mut collected = HashMap::new();
    for stream in ["agg", "sib"] {
        collected.insert(stream.to_string(), collect_through(&mut client, stream, last_epoch));
    }
    client.shutdown().expect("shutdown");
    drain_tail(&mut client, &mut collected);

    let reference = continuous_reference(&all, &["agg", "sib"], PROGRAM);
    for stream in ["agg", "sib"] {
        assert!(
            !collected[stream].is_empty(),
            "carry session produced no `{stream}` rows at all"
        );
        assert_eq!(
            norm(&collected[stream]),
            norm(&reference[stream]),
            "stream `{stream}`: carry session total diverges from the continuous run"
        );
    }
    daemon.shutdown();
    // A count, not a timing: every boundary of a fault-free session —
    // the shutdown flush included — stepped live operators; not one
    // node was rebuilt from checkpoint bytes.
    assert_eq!(daemon.registry().value("daemon", "nodes_restored"), Some(0));
}

#[test]
fn faulted_epoch_is_replayed_from_checkpoint_and_totals_match() {
    let (source, all) = carry_source(0xCA222);
    let last_epoch = (LEAD_IN + 12 - 1) as u64;
    // Panic agg's HFTA on its first batch of epoch 6 (mid-window: the
    // first 1-second group is open and must survive in the checkpoint).
    // One restart: backoff covers epoch 7, the epoch-8 boundary replays
    // epochs 6 and 7 from agg's last good cut, then the live epoch runs.
    let mut config = carry_config(source);
    config.faults = Some(FaultPlan::new().panic_at("agg", 1));
    config.fault_epochs = 6..7;
    config.restart_budget = 3;
    config.backoff_base = 1;
    let mut daemon = server::start(config).expect("daemon start");
    let mut client = connect(daemon.addr());
    client.subscribe("agg").expect("subscribe agg");
    client.subscribe("sib").expect("subscribe sib");

    // Marker contiguity inside collect_through doubles as the replay
    // check: epoch 6's marker only ever arrives via catch-up replay.
    let mut collected = HashMap::new();
    for stream in ["agg", "sib"] {
        collected.insert(stream.to_string(), collect_through(&mut client, stream, last_epoch));
    }

    // Exactly one restart charged, and the query is running again.
    let health = client.health().expect("health");
    let agg = health.iter().find(|r| r.query == "agg").expect("agg row");
    assert_eq!(agg.state, LifeState::Running, "agg must be reprovisioned");
    assert_eq!(agg.restarts, 1, "exactly one restart charged");
    assert_eq!(daemon.registry().value("daemon:restart:agg", "restarts"), Some(1));

    client.shutdown().expect("shutdown");
    drain_tail(&mut client, &mut collected);

    let reference = continuous_reference(&all, &["agg", "sib"], PROGRAM);
    for stream in ["agg", "sib"] {
        assert_eq!(
            norm(&collected[stream]),
            norm(&reference[stream]),
            "stream `{stream}`: fault + replay session diverges from the fault-free run"
        );
    }
    daemon.shutdown();
    // Exactly the faulted node came back from bytes (its last good cut,
    // advanced by the replay); `raw` and `sib` never left the live path.
    assert_eq!(daemon.registry().value("daemon", "nodes_restored"), Some(1));
}

/// A fault two epochs after the last cut: the faulted query's bytes lag
/// the epoch it faulted in, so reprovisioning first rebuilds its windows
/// by silently replaying the epochs it had already emitted, then replays
/// the faulted and backoff epochs with emission. Output equals the
/// fault-free run, and the faulted stream's markers stay gapless, each
/// arriving once.
#[test]
fn fault_between_cuts_replays_silently_then_resumes() {
    let (source, all) = lagging_source(LEAD_IN);
    let last_epoch = (LEAD_IN + 30) as u64;
    // The first real boundary, epoch LEAD_IN, is the last cut: the ~300
    // groups it holds outweigh the rest of the trace.
    let fault = LEAD_IN as u64 + 3;
    let mut config = carry_config(source);
    config.initial_program = Some(LAGGING_PROGRAM.to_string());
    config.faults = Some(FaultPlan::new().panic_at("agg", 1));
    config.fault_epochs = fault..fault + 1;
    config.restart_budget = 3;
    config.backoff_base = 1;
    let mut daemon = server::start(config).expect("daemon start");
    let mut client = connect(daemon.addr());
    client.subscribe("agg").expect("subscribe agg");
    client.subscribe("sib").expect("subscribe sib");

    // `collect_through` asserts each stream's markers arrive gapless and
    // once; the faulted epoch's only ever arrives via catch-up.
    let mut collected = HashMap::new();
    for stream in ["agg", "sib"] {
        collected.insert(stream.to_string(), collect_through(&mut client, stream, last_epoch));
    }
    let health = client.health().expect("health");
    let agg = health.iter().find(|r| r.query == "agg").expect("agg row");
    assert_eq!((agg.state, agg.restarts), (LifeState::Running, 1));
    let registry = daemon.registry();
    assert_eq!(registry.value("daemon", "cuts").map(|c| c > LEAD_IN as u64), Some(true));
    assert_eq!(
        registry.value("daemon", "replayed_epochs"),
        Some(fault - LEAD_IN as u64 - 1),
        "agg rebuilt its state by replaying, silently, the epochs between its cut and the fault"
    );

    client.shutdown().expect("shutdown");
    drain_tail(&mut client, &mut collected);
    daemon.shutdown();
    let reference = continuous_reference(&all, &["agg", "sib"], LAGGING_PROGRAM);
    for stream in ["agg", "sib"] {
        assert!(!collected[stream].is_empty(), "no `{stream}` rows");
        assert_eq!(
            norm(&collected[stream]),
            norm(&reference[stream]),
            "stream `{stream}`: fault between cuts + replay diverges from the fault-free run"
        );
    }
    assert_eq!(daemon.registry().value("daemon", "nodes_restored"), Some(1));
}
