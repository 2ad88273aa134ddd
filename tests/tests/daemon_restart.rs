//! Budget-exhaustion regression test for the daemon's lifecycle
//! supervisor.
//!
//! A seeded [`FaultPlan`] panic fires in the `agg` HFTA on every epoch
//! it runs. Restarts burn 1, 2, 3 (= budget), then the query goes
//! `Dead` with the restart count on the health board and in `GS_STATS`
//! under `daemon:restart:agg` — and the sibling's whole life still
//! equals the fault-free continuous run. (Fault-once → one restart,
//! replay, identical output lives in `daemon_carry.rs`.)

use gigascope::server::wire::LifeState;
use gigascope::server;
use gigascope::FaultPlan;
use gs_tests::daemon::{assert_session_total, connect, small_source, test_config, Frames};
use std::time::{Duration, Instant};

/// Same topology as the fault-injection gate: a shared derived stream,
/// a fault-target aggregate, and an innocent sibling.
const PROGRAM: &str = "DEFINE { query_name raw; } \
     Select time, destPort, len From eth0.tcp; \
     DEFINE { query_name agg; } \
     Select time, destPort, count(*), sum(len) From raw Group By time, destPort; \
     DEFINE { query_name sib; } \
     Select time, count(*), sum(len) From raw Group By time";

#[test]
fn restart_budget_exhaustion_ends_dead_with_count_in_stats() {
    let source = small_source(0xDEAD);
    // Fault armed on every epoch: each reprovision panics again. With
    // budget 3 the failures burn restarts 1, 2, 3 and the fourth root-
    // cause failure retires the query for good.
    let mut config = test_config(source.clone());
    config.faults = Some(FaultPlan::new().panic_at("agg", 1));
    config.fault_epochs = 0..u64::MAX;
    config.restart_budget = 3;
    config.backoff_base = 1;
    let mut daemon = server::start(config).expect("daemon start");
    let mut client = connect(daemon.addr());
    // SUBSCRIBE before REGISTER: the sibling's whole life is observed.
    client.subscribe("sib").expect("subscribe sib");
    client.register(PROGRAM).expect("register");

    // Wait for the supervisor to give up on agg.
    let deadline = Instant::now() + Duration::from_secs(30);
    let agg_dead = loop {
        let health = client.health().expect("health");
        let agg = health.iter().find(|r| r.query == "agg").expect("agg row");
        if agg.state == LifeState::Dead {
            break agg.clone();
        }
        assert!(Instant::now() < deadline, "agg never exhausted its budget: {health:?}");
        std::thread::sleep(Duration::from_millis(20));
    };
    assert_eq!(agg_dead.restarts, 3, "full budget consumed before giving up");
    assert!(!agg_dead.reason.is_empty(), "death certificate carries the fault reason");

    // GS_STATS agrees, both through the registry and over the wire.
    let registry = daemon.registry();
    assert_eq!(registry.value("daemon:restart:agg", "restarts"), Some(3));
    assert_eq!(registry.value("daemon:restart:agg", "dead"), Some(1));
    let stats = client.stats().expect("stats");
    assert!(
        stats.iter().any(|(n, c, v)| n == "daemon:restart:agg" && c == "restarts" && *v == 3),
        "restart count must be exported over STATS: {stats:?}"
    );

    // A dead query stays dead: no further restarts accrue.
    std::thread::sleep(Duration::from_millis(50));
    assert_eq!(registry.value("daemon:restart:agg", "restarts"), Some(3));

    // Sibling output unchanged through all of it: its whole life,
    // through the shutdown flush, is the fault-free continuous run.
    client.shutdown().expect("shutdown");
    let mut frames = Frames::default();
    frames.read(&mut client, &[], None);
    daemon.shutdown();
    assert_session_total(PROGRAM, &source, "sib", &frames);
}
