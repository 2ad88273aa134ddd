//! Lifecycle churn: register and unregister queries repeatedly while
//! packets flow, and prove nothing leaks.
//!
//! After every unregister the daemon must return to baseline:
//!
//! - the catalog accepts the same name again (and again, and again);
//! - the daemon-lifetime `StatsRegistry` holds no `daemon:restart:<q>`
//!   node for removed queries, and disconnect removes the
//!   `daemon:conn:<id>` node;
//! - subscriptions don't duplicate across re-registration, and a
//!   re-registered query starts from empty windows: each round's
//!   subscriber output must equal the continuous run over the epochs it
//!   read (a doubled endpoint repeats markers; leftover state changes
//!   the rows).

use gigascope::manager::{run_threaded_opts, ThreadedOptions};
use gigascope::server::{self, wire::LifeState, DaemonConfig, PacketSource};
use gigascope::FaultPlan;
use gs_tests::daemon::{connect, norm, reference_system, small_source, test_config, Frames};
use std::sync::mpsc;
use std::time::{Duration, Instant};

const PROGRAM: &str = "DEFINE { query_name churn_raw; } Select time, len From eth0.tcp; \
     DEFINE { query_name churn_agg; } \
     Select time, count(*), sum(len) From churn_raw Group By time";

/// Epochs each churn round reads: 1.2 s of 20 ms epochs, so at least
/// one 1-second window closes while the subscriber watches.
const ROUND_EPOCHS: u64 = 60;

/// A distinct program the odd rounds interleave, so churn covers both
/// same-name and distinct-name reuse.
const OTHER: &str = "DEFINE { query_name churn_other; } \
     Select time, destPort From eth0.tcp Where destPort = 80";

#[test]
fn register_unregister_churn_returns_to_baseline() {
    let source = small_source(0xC0FFEE);
    let mut daemon = server::start(test_config(source.clone())).expect("daemon start");
    let registry = daemon.registry();

    let mut client = connect(daemon.addr());

    // Baseline: the daemon-lifetime registry before anything is
    // registered, minus per-connection nodes (ids grow monotonically
    // across the run by design).
    let baseline = |reg: &gs_runtime::stats::StatsRegistry| -> Vec<String> {
        let mut nodes: Vec<String> = reg
            .snapshot()
            .into_iter()
            .map(|r| r.node)
            .filter(|n| !n.starts_with("daemon:conn:"))
            .collect();
        nodes.sort();
        nodes.dedup();
        nodes
    };
    let clean = baseline(&registry);
    assert_eq!(clean, vec!["daemon".to_string()], "fresh daemon has only its own node");

    for round in 0..8 {
        // SUBSCRIBE before REGISTER, on the same connection every round:
        // it sees this life from its first epoch. Frames of an earlier
        // round still in flight are tagged with epochs completed before
        // this REGISTER and are skipped; an endpoint leaked from an
        // earlier round would repeat this round's markers.
        let mut frames = Frames::since(client.wait_epoch(0).expect("poll"));
        client.subscribe("churn_agg").expect("subscribe");
        // Register (same two names every round; a leak in the catalog
        // or the supervisor would make this fail from round 1).
        let names = client.register(PROGRAM).expect("register must succeed after unregister");
        assert_eq!(names, vec!["churn_raw".to_string(), "churn_agg".to_string()]);
        if round % 2 == 1 {
            client.register(OTHER).expect("distinct name registers alongside");
        }

        // While live: restart nodes exist, health lists the queries.
        assert_eq!(registry.value("daemon:restart:churn_agg", "restarts"), Some(0));
        let health = client.health().expect("health");
        assert!(health.iter().all(|r| r.state == LifeState::Running));

        // Packets flow to the subscriber and match what one continuous
        // run over the same epochs has emitted by their end (open
        // windows held: UNREGISTER drops them unflushed).
        frames.read(&mut client, &["churn_agg"], Some(frames.since));
        let first = frames.marks["churn_agg"][0];
        frames.read(&mut client, &["churn_agg"], Some(first + ROUND_EPOCHS - 1));
        client.unsubscribe("churn_agg").expect("unsubscribe");
        let packets =
            (first..first + ROUND_EPOCHS).flat_map(|e| source.epoch_packets(e).into_owned());
        let opts = ThreadedOptions { capture: true, ..ThreadedOptions::default() };
        let reference = run_threaded_opts(&reference_system(PROGRAM), packets, &["churn_agg"], opts)
            .expect("reference run");
        let rows = frames.rows("churn_agg");
        assert!(!rows.is_empty(), "round {round}: no churn_agg window closed");
        assert_eq!(
            norm(rows),
            norm(reference.stream("churn_agg")),
            "round {round}: epochs {first}.. diverge from the continuous run"
        );

        // Dependents first: removing the producer while a consumer
        // reads it must be refused, then succeed in dependency order.
        assert!(
            client.unregister("churn_raw").is_err(),
            "removing a stream with a live dependent must be refused"
        );
        client.unregister("churn_agg").expect("unregister consumer");
        client.unregister("churn_raw").expect("unregister producer");
        if round % 2 == 1 {
            client.unregister("churn_other").expect("unregister other");
        }

        // Back to baseline: no restart nodes, no health rows.
        assert_eq!(baseline(&registry), clean, "round {round}: leaked stats nodes");
        assert!(client.health().expect("health").is_empty(), "round {round}: leaked health rows");
    }

    // Engine counters also drain once the catalog is empty.
    let done = client.wait_epoch(0).expect("poll");
    client.wait_epoch(done + 2).expect("two empty epochs");
    let stats = client.stats().expect("stats");
    assert!(
        stats.iter().all(|(n, _, _)| n == "daemon" || n.starts_with("daemon:conn:")),
        "engine counters must clear on an empty catalog: {stats:?}"
    );

    // Disconnect removes this connection's stats node.
    let my_conns = || {
        registry
            .snapshot()
            .into_iter()
            .filter(|r| r.node.starts_with("daemon:conn:"))
            .map(|r| r.node)
            .collect::<std::collections::BTreeSet<_>>()
    };
    assert!(!my_conns().is_empty(), "live connection has a stats node");
    drop(client);
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
    while !my_conns().is_empty() && std::time::Instant::now() < deadline {
        std::thread::sleep(std::time::Duration::from_millis(5));
    }
    assert!(my_conns().is_empty(), "disconnect must remove the daemon:conn node");

    daemon.shutdown();
}

/// The Dead path of the same round-trip: a query that exhausts its
/// restart budget keeps its `daemon:restart:<q>` stats node while it
/// sits Dead (the death certificate is observable), but UNREGISTER must
/// reap the node with the catalog entry — and a re-REGISTER under the
/// same name is a fresh life with a zeroed restart count, not an heir
/// to the old one's exhausted budget.
#[test]
fn dead_query_unregister_reaps_stats_and_reregister_starts_fresh() {
    let source = small_source(0xD1ED);
    let mut config = test_config(source);
    // Every epoch panics churn_agg's HFTA on its first batch; budget 1
    // means the second charged failure retires it.
    config.faults = Some(FaultPlan::new().panic_at("churn_agg", 1));
    config.fault_epochs = 0..u64::MAX;
    config.restart_budget = 1;
    config.backoff_base = 1;
    let mut daemon = server::start(config).expect("daemon start");
    let registry = daemon.registry();
    let mut client = connect(daemon.addr());

    for round in 0..3 {
        client.register(PROGRAM).expect("register");

        // Wait out the budget: restarts burn down, then Dead.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
        loop {
            let health = client.health().expect("health");
            let agg = health.iter().find(|r| r.query == "churn_agg").expect("agg row");
            if agg.state == LifeState::Dead {
                break;
            }
            assert!(
                std::time::Instant::now() < deadline,
                "round {round}: churn_agg never went Dead: {health:?}"
            );
            std::thread::sleep(std::time::Duration::from_millis(10));
        }
        // Dead but registered: the stats node is the death certificate.
        assert_eq!(registry.value("daemon:restart:churn_agg", "dead"), Some(1));
        assert_eq!(registry.value("daemon:restart:churn_agg", "restarts"), Some(1));

        // UNREGISTER the Dead query (dependency order) and verify the
        // registry returns to baseline: no leaked restart node.
        client.unregister("churn_agg").expect("unregister dead consumer");
        client.unregister("churn_raw").expect("unregister producer");
        assert_eq!(
            registry.value("daemon:restart:churn_agg", "restarts"),
            None,
            "round {round}: a Dead query's stats node must be reaped on UNREGISTER"
        );
        assert!(
            client.health().expect("health").is_empty(),
            "round {round}: health rows must drain with the catalog"
        );
    }

    // A fresh registration after a Dead round starts at zero.
    client.register(PROGRAM).expect("re-register after death");
    let health = client.health().expect("health");
    let agg = health.iter().find(|r| r.query == "churn_agg").expect("agg row");
    assert_eq!(agg.restarts, 0, "fresh life, fresh budget");
    assert_eq!(registry.value("daemon:restart:churn_agg", "dead"), Some(0));

    daemon.shutdown();
}

/// A subscriber that stops reading loses its own frames, and must not
/// wedge SHUTDOWN either: once the socket buffers fill, its writer
/// thread blocks in a write the client will never drain, and teardown
/// has to fail that write for the daemon to exit.
#[test]
fn subscriber_that_stopped_reading_does_not_wedge_shutdown() {
    // Frames of a few MB (one per epoch, 1 kB rows): the receiver's
    // slack, once its buffers are full, can never take the rest of one.
    let source = PacketSource::Synthetic { mbps: 100.0, epoch_ms: 100, seed: 0x5704 };
    let pad = "x".repeat(1000);
    let config = DaemonConfig {
        batch_size: 1 << 16,
        initial_program: Some(format!(
            "DEFINE {{ query_name flood; }} Select time, len, '{pad}' as pad From eth0.tcp"
        )),
        ..test_config(source)
    };
    let mut daemon = server::start(config).expect("daemon start");
    let registry = daemon.registry();
    let mut stalled = connect(daemon.addr());
    stalled.subscribe("flood").expect("subscribe");
    // Never read again. Its writer is stuck once the frames it takes
    // off the queue stop while the queue sheds the ones still coming.
    let conn = |counter: &str| {
        let rows = registry.snapshot();
        let row = rows.iter().find(|r| r.node.starts_with("daemon:conn:") && r.counter == counter);
        row.map_or(0, |r| r.value)
    };
    let deadline = Instant::now() + Duration::from_secs(120);
    let mut last = (conn("dequeued"), conn("shed_batches"));
    loop {
        assert!(Instant::now() < deadline, "premise: the stalled subscriber's writer never blocks");
        std::thread::sleep(Duration::from_millis(300));
        let now = (conn("dequeued"), conn("shed_batches"));
        if now.0 == last.0 && now.1 > last.1 {
            break;
        }
        last = now;
    }
    connect(daemon.addr()).shutdown().expect("shutdown");
    let (done, finished) = mpsc::channel();
    let waiter = std::thread::spawn(move || {
        daemon.shutdown();
        let _ = done.send(());
    });
    finished
        .recv_timeout(Duration::from_secs(20))
        .expect("a subscriber that stopped reading wedged the daemon's shutdown");
    waiter.join().expect("shutdown thread");
    drop(stalled);
}
