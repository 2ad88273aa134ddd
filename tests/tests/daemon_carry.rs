//! Carried-state daemon tests: an epoch boundary is a *step*, not a
//! restart. Healthy queries' operators cross the boundary live, so a
//! window spanning epoch boundaries aggregates exactly as one
//! continuous run; a faulted epoch is replayed from the last good
//! checkpoint when the query is reprovisioned; and shutdown flushes the
//! held tails. The oracle for everything here is a single
//! `run_threaded` over the concatenation of every epoch's packets.
//!
//! A few empty lead-in chunks give the test client time to subscribe
//! before the first real packet, so the subscriber provably observes
//! *every* produced row.

use gigascope::server::wire::LifeState;
use gigascope::server::{self, DaemonConfig, PacketSource};
use gigascope::FaultPlan;
use gs_tests::daemon::{
    assert_session_total, carry_source, connect, lagging_source, Frames, CHAIN_PROGRAM,
    LAGGING_PROGRAM,
};

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

fn carry_config(source: PacketSource) -> DaemonConfig {
    DaemonConfig {
        source,
        epoch_gap_ms: 30,
        initial_program: Some(PROGRAM.to_string()),
        ..DaemonConfig::default()
    }
}

#[test]
fn windows_spanning_epochs_aggregate_as_one_continuous_run() {
    let (source, _) = carry_source(LEAD_IN, 0xCA221);
    let last_epoch = (LEAD_IN + 12 - 1) as u64;
    let mut daemon = server::start(carry_config(source.clone())).expect("daemon start");
    let mut client = connect(daemon.addr());
    client.subscribe("agg").expect("subscribe agg");
    client.subscribe("sib").expect("subscribe sib");

    let mut frames = Frames::default();
    frames.read(&mut client, &["agg", "sib"], Some(last_epoch));
    client.shutdown().expect("shutdown");
    frames.read(&mut client, &[], None);

    for stream in ["agg", "sib"] {
        assert!(!frames.rows(stream).is_empty(), "carry session produced no `{stream}` rows");
        assert_session_total(PROGRAM, &source, stream, &frames);
    }
    daemon.shutdown();
    // A count, not a timing: every boundary of a fault-free session —
    // the shutdown flush included — stepped live operators; not one
    // node was rebuilt from checkpoint bytes.
    assert_eq!(daemon.registry().value("daemon", "nodes_restored"), Some(0));
}

#[test]
fn faulted_epoch_is_replayed_from_checkpoint_and_totals_match() {
    let (source, _) = carry_source(LEAD_IN, 0xCA222);
    let last_epoch = (LEAD_IN + 12 - 1) as u64;
    // Panic agg's HFTA on its first batch of epoch 6 (mid-window: the
    // first 1-second group is open and must survive in the checkpoint).
    // One restart: backoff covers epoch 7, the epoch-8 boundary replays
    // epochs 6 and 7 from agg's last good cut, then the live epoch runs.
    let mut config = carry_config(source.clone());
    config.faults = Some(FaultPlan::new().panic_at("agg", 1));
    config.fault_epochs = 6..7;
    config.restart_budget = 3;
    config.backoff_base = 1;
    let mut daemon = server::start(config).expect("daemon start");
    let mut client = connect(daemon.addr());
    client.subscribe("agg").expect("subscribe agg");
    client.subscribe("sib").expect("subscribe sib");

    // Marker contiguity, which `Frames::read` asserts, doubles as the
    // replay check: epoch 6's marker only ever arrives via catch-up.
    let mut frames = Frames::default();
    frames.read(&mut client, &["agg", "sib"], Some(last_epoch));

    // Exactly one restart charged, and the query is running again.
    let health = client.health().expect("health");
    let agg = health.iter().find(|r| r.query == "agg").expect("agg row");
    assert_eq!(agg.state, LifeState::Running, "agg must be reprovisioned");
    assert_eq!(agg.restarts, 1, "exactly one restart charged");
    for name in ["raw", "sib"] {
        let row = health.iter().find(|r| r.query == name).expect("row");
        assert_eq!((row.state, row.restarts), (LifeState::Running, 0), "{name} untouched");
    }
    assert_eq!(daemon.registry().value("daemon:restart:agg", "restarts"), Some(1));
    assert_eq!(daemon.registry().value("daemon:restart:agg", "dead"), Some(0));

    client.shutdown().expect("shutdown");
    frames.read(&mut client, &[], None);

    for stream in ["agg", "sib"] {
        assert_session_total(PROGRAM, &source, stream, &frames);
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
    let (source, _) = lagging_source(LEAD_IN);
    let last_epoch = (LEAD_IN + 30) as u64;
    // The first real boundary, epoch LEAD_IN, is the last cut: the ~300
    // groups it holds outweigh the rest of the trace.
    let fault = LEAD_IN as u64 + 3;
    let mut config = carry_config(source.clone());
    config.initial_program = Some(LAGGING_PROGRAM.to_string());
    config.faults = Some(FaultPlan::new().panic_at("agg", 1));
    config.fault_epochs = fault..fault + 1;
    config.restart_budget = 3;
    config.backoff_base = 1;
    let mut daemon = server::start(config).expect("daemon start");
    let mut client = connect(daemon.addr());
    client.subscribe("agg").expect("subscribe agg");
    client.subscribe("sib").expect("subscribe sib");

    // `Frames::read` asserts each stream's markers arrive gapless and
    // once; the faulted epoch's only ever arrives via catch-up.
    let mut frames = Frames::default();
    frames.read(&mut client, &["agg", "sib"], Some(last_epoch));
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
    frames.read(&mut client, &[], None);
    daemon.shutdown();
    for stream in ["agg", "sib"] {
        assert!(!frames.rows(stream).is_empty(), "no `{stream}` rows");
        assert_session_total(LAGGING_PROGRAM, &source, stream, &frames);
    }
    assert_eq!(daemon.registry().value("daemon", "nodes_restored"), Some(1));
}

/// Regression: the shutdown flush must not be gated on the checkpoint
/// bytes alone. A many-group query reaches a cut whose held state sets
/// the cadence far out, then is unregistered — its bytes are reaped, so
/// the checkpoint is empty — and a per-second aggregate registered
/// after it runs only non-cut boundaries. Its open windows live only in
/// the stepper; SHUTDOWN before the next cut must still flush them.
#[test]
fn shutdown_flushes_a_query_registered_after_the_last_cut() {
    const MANY: &str = "DEFINE { query_name many; } \
         Select time, srcIP, count(*) From eth0.tcp Group By time, srcIP";
    const PERSEC: &str = "DEFINE { query_name persec; } \
         Select time, count(*), sum(len) From eth0.tcp Group By time";
    let (source, _) = lagging_source(LEAD_IN);
    let mut config = carry_config(source.clone());
    config.initial_program = Some(MANY.to_string());
    let mut daemon = server::start(config).expect("daemon start");
    let mut client = connect(daemon.addr());

    // Epoch LEAD_IN is the cut holding ~300 `many` groups.
    client.wait_epoch(LEAD_IN as u64 + 1).expect("first real boundary");
    client.unregister("many").expect("unregister many");
    // SUBSCRIBE before REGISTER: the subscriber sees persec's whole life.
    client.subscribe("persec").expect("subscribe persec");
    client.register(PERSEC).expect("register persec");
    let done = client.wait_epoch(0).expect("poll");
    client.wait_epoch(done + 2).expect("persec runs a few epochs");
    client.shutdown().expect("shutdown");
    let mut frames = Frames::default();
    frames.read(&mut client, &[], None);
    daemon.shutdown();

    assert_eq!(
        daemon.registry().value("daemon", "cuts"),
        Some(LEAD_IN as u64 + 1),
        "premise: persec never reached a cut"
    );
    assert!(!frames.rows("persec").is_empty(), "the flush emitted persec's tail");
    assert_session_total(PERSEC, &source, "persec", &frames);
}

/// A fault downstream of a *stateful* upstream: `busy` panics in the
/// epoch where `perport` closes its first 1-second window, and a cut
/// falls inside its backoff. Reprovisioning replays `busy` together
/// with `perport` and `raw` from one consistent cut — the cut rule held
/// both back while `busy` did not complete — so `perport`'s open groups
/// come back as they stood and `busy` receives exactly the window rows
/// it missed. Rebuilt from empty state, `perport` would close nothing.
#[test]
fn fault_behind_a_stateful_upstream_replays_the_chain_from_one_cut() {
    let (source, _) = carry_source(LEAD_IN, 0xCA223);
    let last_epoch = (LEAD_IN + 12 - 1) as u64;
    let fault = LEAD_IN as u64 + 10;
    let mut config = carry_config(source.clone());
    config.initial_program = Some(CHAIN_PROGRAM.to_string());
    config.faults = Some(FaultPlan::new().panic_at("busy", 1));
    config.fault_epochs = fault..fault + 1;
    config.restart_budget = 3;
    config.backoff_base = 1;
    // A wide gap: the premise below reads the cut counter between two
    // boundaries.
    config.epoch_gap_ms = 60;
    let mut daemon = server::start(config).expect("daemon start");
    let mut client = connect(daemon.addr());
    client.subscribe("perport").expect("subscribe perport");
    client.subscribe("busy").expect("subscribe busy");

    // Premise: the backoff epoch `fault + 1` is a cut, so without the
    // hold-back `perport`'s cut would pass `busy`'s.
    let registry = daemon.registry();
    client.wait_epoch(fault + 1).expect("the faulted epoch completes");
    let before = registry.value("daemon", "cuts");
    client.wait_epoch(fault + 2).expect("the backoff epoch completes");
    assert!(registry.value("daemon", "cuts") > before, "premise: a cut inside busy's backoff");

    let mut frames = Frames::default();
    frames.read(&mut client, &["perport", "busy"], Some(last_epoch));
    let health = client.health().expect("health");
    let busy = health.iter().find(|r| r.query == "busy").expect("busy row");
    assert_eq!((busy.state, busy.restarts), (LifeState::Running, 1));
    client.shutdown().expect("shutdown");
    frames.read(&mut client, &[], None);
    daemon.shutdown();

    for stream in ["perport", "busy"] {
        assert!(!frames.rows(stream).is_empty(), "no `{stream}` rows");
        assert_session_total(CHAIN_PROGRAM, &source, stream, &frames);
    }
    // Only `busy` came back from bytes; its upstreams never left the
    // live path — the replay ran copies of them.
    assert_eq!(daemon.registry().value("daemon", "nodes_restored"), Some(1));
}

/// The mirror case: the stateful upstream faults. `perport` panics
/// mid-window (no window closes before its backoff ends), taking `busy`
/// down as collateral. `busy` sits out `perport`'s backoff with it; the
/// epoch after, both replay from their common cut and come out level,
/// and the live epoch restores both from the level bytes the replay
/// handed over. Both streams equal the continuous run.
#[test]
fn fault_in_a_stateful_upstream_replays_it_behind_its_live_consumer() {
    let (source, _) = carry_source(LEAD_IN, 0xCA224);
    let last_epoch = (LEAD_IN + 12 - 1) as u64;
    let fault = LEAD_IN as u64 + 5;
    let mut config = carry_config(source.clone());
    config.initial_program = Some(CHAIN_PROGRAM.to_string());
    config.faults = Some(FaultPlan::new().panic_at("perport", 1));
    config.fault_epochs = fault..fault + 1;
    config.restart_budget = 3;
    config.backoff_base = 1;
    let mut daemon = server::start(config).expect("daemon start");
    let mut client = connect(daemon.addr());
    client.subscribe("perport").expect("subscribe perport");
    client.subscribe("busy").expect("subscribe busy");

    let mut frames = Frames::default();
    frames.read(&mut client, &["perport", "busy"], Some(last_epoch));
    let health = client.health().expect("health");
    let row = |q: &str| health.iter().find(|r| r.query == q).map(|r| (r.state, r.restarts));
    assert_eq!(row("perport"), Some((LifeState::Running, 1)));
    assert_eq!(row("busy"), Some((LifeState::Running, 0)), "collateral: nothing charged");
    client.shutdown().expect("shutdown");
    frames.read(&mut client, &[], None);
    daemon.shutdown();

    for stream in ["perport", "busy"] {
        assert!(!frames.rows(stream).is_empty(), "no `{stream}` rows");
        assert_session_total(CHAIN_PROGRAM, &source, stream, &frames);
    }
    // Both from their level bytes, the epoch after the backoff.
    assert_eq!(daemon.registry().value("daemon", "nodes_restored"), Some(2));
}

/// A consumer sits out its upstream's backoff. `perport` panics in the
/// last epoch of its first 1-second window, and its one-epoch backoff
/// covers the epoch in which that window closes. `busy`, which reads
/// `perport`'s stream, must not run on the empty input the backoff
/// leaves it: it keeps its cursor, and when the backoff ends it replays
/// with `perport` from one consistent cut, so it receives the window
/// rows `perport` emits in the replay of the closing epoch.
#[test]
fn consumer_of_a_query_in_backoff_replays_with_it() {
    let (source, _) = carry_source(LEAD_IN, 0xCA225);
    let last_epoch = (LEAD_IN + 12 - 1) as u64;
    // Real chunk 10 opens second 1, so epoch LEAD_IN + 10 closes the
    // first window; the fault one epoch earlier backs `perport` off
    // through it.
    let fault = LEAD_IN as u64 + 9;
    let mut config = carry_config(source.clone());
    config.initial_program = Some(CHAIN_PROGRAM.to_string());
    config.faults = Some(FaultPlan::new().panic_at("perport", 1));
    config.fault_epochs = fault..fault + 1;
    config.restart_budget = 3;
    config.backoff_base = 1;
    let mut daemon = server::start(config).expect("daemon start");
    let mut client = connect(daemon.addr());
    client.subscribe("perport").expect("subscribe perport");
    client.subscribe("busy").expect("subscribe busy");

    let mut frames = Frames::default();
    frames.read(&mut client, &["perport", "busy"], Some(last_epoch));
    let health = client.health().expect("health");
    let row = |q: &str| health.iter().find(|r| r.query == q).map(|r| (r.state, r.restarts));
    assert_eq!(row("perport"), Some((LifeState::Running, 1)));
    assert_eq!(row("busy"), Some((LifeState::Running, 0)), "collateral: nothing charged");
    client.shutdown().expect("shutdown");
    frames.read(&mut client, &[], None);
    daemon.shutdown();

    for stream in ["perport", "busy"] {
        assert!(!frames.rows(stream).is_empty(), "no `{stream}` rows");
        assert_session_total(CHAIN_PROGRAM, &source, stream, &frames);
    }
}
