//! Durable-daemon tests: `--state-dir` makes a daemon *kill*, not just
//! an epoch boundary, a pause. A halted daemon (the in-process stand-in
//! for `kill -9`: no flush, no shutdown record, state dropped on the
//! floor) restarted on the same state directory resumes mid-window from
//! the recovered cut, and the combined subscriber output equals one
//! continuous run. A state disk that keeps failing dead-letters into a
//! HEALTH advisory and the `durable` stats node instead of stopping the
//! stream, and a *cleanly* shut down daemon restarts fresh — flushed
//! state is never restored twice.

use gigascope::manager::run_threaded;
use gigascope::server::client::Client;
use gigascope::server::{self, DaemonConfig, PacketSource};
use gigascope::{Gigascope, Tuple};
use gs_packet::capture::{CapPacket, LinkType};
use gs_runtime::faults::{DiskFaultPlan, DiskOp};
use gs_tests::daemon::{
    downgrade_state_dir_to_v1, lagging_source, norm, write_cut_per_boundary_state_dir,
    CLIENT_TIMEOUT, LAGGING_PROGRAM,
};
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

const PROGRAM: &str = "DEFINE { query_name raw; } \
     Select time, destPort, len From eth0.tcp; \
     DEFINE { query_name agg; } \
     Select time, destPort, count(*), sum(len) From raw Group By time, destPort; \
     DEFINE { query_name sib; } \
     Select time, count(*), sum(len) From raw Group By time";

const LEAD_IN: usize = 5;
const REAL_EPOCHS: usize = 12;

static DIR_ID: AtomicU64 = AtomicU64::new(0);

fn scratch_dir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!(
        "gs_daemon_durable_{tag}_{}_{}",
        std::process::id(),
        DIR_ID.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&d);
    d
}

/// A time-continuous source: `LEAD_IN` empty chunks (subscribe margin),
/// then 12 × 100 ms of synthetic traffic.
fn carry_source(seed: u64) -> (PacketSource, Vec<CapPacket>) {
    let PacketSource::Chunked(real) =
        PacketSource::chunked_synthetic(20.0, 100, REAL_EPOCHS as u64, seed)
    else {
        unreachable!("chunked_synthetic returns Chunked");
    };
    let all: Vec<CapPacket> = real.iter().flatten().cloned().collect();
    let mut chunks = vec![Vec::new(); LEAD_IN];
    chunks.extend(real);
    (PacketSource::Chunked(chunks), all)
}

fn durable_config(source: PacketSource, state_dir: &PathBuf) -> DaemonConfig {
    DaemonConfig {
        source,
        epoch_gap_ms: 30,
        carry_state: true,
        state_dir: Some(state_dir.clone()),
        initial_program: Some(PROGRAM.to_string()),
        ..DaemonConfig::default()
    }
}

fn connect(addr: std::net::SocketAddr) -> Client {
    let mut c = Client::connect(addr).expect("connect");
    c.set_timeout(Some(CLIENT_TIMEOUT)).expect("timeout");
    c
}

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

fn collect_through(client: &mut Client, stream: &str, last_epoch: u64) -> Vec<Tuple> {
    let mut rows = Vec::new();
    loop {
        let (epoch, mut r) = client.read_epoch(stream).expect("epoch read");
        rows.append(&mut r);
        if epoch >= last_epoch {
            return rows;
        }
    }
}

fn drain_tail(client: &mut Client, collected: &mut HashMap<String, Vec<Tuple>>) {
    while let Ok(frame) = client.next_tuples() {
        collected.entry(frame.stream).or_default().extend(frame.rows);
    }
}

/// Kill (halt, no flush) after every real epoch is confirmed, restart
/// on the same state directory, and finish the session there: the
/// still-open 1-second window's tail — state that lived *across the
/// kill* — is flushed by the restarted daemon, and the combined output
/// of both incarnations equals one uninterrupted run.
#[test]
fn killed_daemon_resumes_mid_window_from_state_dir() {
    let state = scratch_dir("resume");
    let (source, all) = carry_source(0xD0D01);
    let last_real = (LEAD_IN + REAL_EPOCHS - 1) as u64;

    // Incarnation 1: confirm every real epoch, then die without a
    // flush. `collect_through` returning proves the markers (and so the
    // covering durable cut) committed before the kill.
    let (source2, _) = carry_source(0xD0D01);
    let mut daemon = server::start(durable_config(source, &state)).expect("daemon 1");
    let mut client = connect(daemon.addr());
    client.subscribe("agg").expect("subscribe agg");
    client.subscribe("sib").expect("subscribe sib");
    let mut collected = HashMap::new();
    for stream in ["agg", "sib"] {
        collected.insert(stream.to_string(), collect_through(&mut client, stream, last_real));
    }
    assert_eq!(
        daemon.registry().value("daemon", "nodes_restored"),
        Some(0),
        "a fresh, fault-free incarnation steps its live operators: nothing is read from bytes"
    );
    daemon.halt();

    // Incarnation 2: same state dir, fresh process state.
    let mut daemon2 = server::start(durable_config(source2, &state)).expect("daemon 2");
    assert_eq!(
        daemon2.registry().value("durable", "recoveries"),
        Some(1),
        "the restart must recover durable state"
    );
    let mut client2 = connect(daemon2.addr());
    client2.subscribe("agg").expect("subscribe agg");
    client2.subscribe("sib").expect("subscribe sib");
    let (epoch, rows) = client2.read_epoch("agg").expect("resumed epoch");
    assert!(
        epoch > last_real,
        "resumption must continue the epoch numbering past {last_real}, got {epoch}"
    );
    assert!(rows.is_empty(), "the trace was fully confirmed before the kill");
    client2.shutdown().expect("shutdown");
    drain_tail(&mut client2, &mut collected);
    daemon2.shutdown();
    assert_eq!(
        daemon2.registry().value("daemon", "nodes_restored"),
        Some(3),
        "recovery rebuilds exactly the recovered cut — `lfta:raw`, `hfta:agg`, `hfta:sib` — \
         from bytes, once; every later boundary steps them live"
    );

    let reference = continuous_reference(&all, &["agg", "sib"], PROGRAM);
    for stream in ["agg", "sib"] {
        assert!(
            !collected[stream].is_empty(),
            "no `{stream}` rows across both incarnations"
        );
        assert_eq!(
            norm(&collected[stream]),
            norm(&reference[stream]),
            "stream `{stream}`: kill + resume diverges from the continuous run \
             (the held window tail must be flushed by the restarted daemon)"
        );
    }
    let _ = std::fs::remove_dir_all(&state);
}

/// Read frames until every stream in `streams` has its marker for
/// `last_epoch` — or, with `None`, until the daemon closes the
/// connection — collecting each stream's rows and the epochs its
/// markers carried, in arrival order.
fn read_marked(
    client: &mut Client,
    streams: &[&str],
    last_epoch: Option<u64>,
    rows: &mut HashMap<String, Vec<Tuple>>,
    marks: &mut HashMap<String, Vec<u64>>,
) {
    let done = |marks: &HashMap<String, Vec<u64>>| {
        last_epoch.is_some_and(|last| {
            streams.iter().all(|s| marks.get(*s).and_then(|m| m.last()).is_some_and(|e| *e >= last))
        })
    };
    while !done(marks) {
        let frame = match client.next_tuples() {
            Ok(frame) => frame,
            Err(e) if last_epoch.is_some() => panic!("epoch read: {e}"),
            Err(_) => return,
        };
        if frame.rows.is_empty() {
            marks.entry(frame.stream).or_default().push(frame.epoch);
        } else {
            rows.entry(frame.stream).or_default().extend(frame.rows);
        }
    }
}

/// Kill (halt, no flush) while the durable cut lags the committed
/// markers by several epochs: the restart restores that cut, rebuilds
/// the windows by silently replaying the epochs already confirmed past
/// it, and resumes emission at the first unconfirmed epoch — the two
/// incarnations' combined output is one continuous run, every marker
/// arrives exactly once and in order, and recovery reports nothing
/// amiss on HEALTH.
#[test]
fn killed_between_cuts_resumes_by_silent_replay() {
    let state = scratch_dir("lagging");
    let (source, all) = lagging_source(LEAD_IN);
    let (source2, _) = lagging_source(LEAD_IN);
    let config = |source| DaemonConfig {
        epoch_gap_ms: 50,
        initial_program: Some(LAGGING_PROGRAM.to_string()),
        ..durable_config(source, &state)
    };
    let streams = ["agg", "sib"];
    let (mut rows, mut marks) = (HashMap::new(), HashMap::new());

    // Incarnation 1: every lead-in boundary and the first real one are
    // cuts; the ~300 groups that one holds outweigh the rest of the
    // trace, so the boundaries after it commit markers only.
    let mut daemon = server::start(config(source)).expect("daemon 1");
    let mut client = connect(daemon.addr());
    for s in streams {
        client.subscribe(s).expect("subscribe");
    }
    let confirmed = (LEAD_IN + 6) as u64;
    read_marked(&mut client, &streams, Some(confirmed), &mut rows, &mut marks);
    let registry = daemon.registry();
    let cuts = registry.value("daemon", "cuts").expect("cuts counter");
    assert_eq!(cuts, LEAD_IN as u64 + 1, "the last cut is the first real boundary");
    assert!(
        registry.value("daemon", "epochs") >= Some(cuts + 3),
        "the kill lands 3+ epochs after the last cut"
    );
    daemon.halt();
    read_marked(&mut client, &streams, None, &mut rows, &mut marks);
    let last_marked = marks["agg"].last().copied().expect("markers before the kill");

    // Incarnation 2: same state dir, fresh process state.
    let mut daemon2 = server::start(config(source2)).expect("daemon 2");
    let mut client2 = connect(daemon2.addr());
    for s in streams {
        client2.subscribe(s).expect("subscribe");
    }
    let last_real = (LEAD_IN + 30) as u64;
    read_marked(&mut client2, &streams, Some(last_real), &mut rows, &mut marks);
    let health = client2.health().expect("health");
    assert!(
        health.iter().all(|r| r.query != "durable:store"),
        "a cut lagging its markers is the normal case, not a recovery note: {health:?}"
    );
    client2.shutdown().expect("shutdown");
    read_marked(&mut client2, &streams, None, &mut rows, &mut marks);
    daemon2.shutdown();

    let registry2 = daemon2.registry();
    assert_eq!(registry2.value("durable", "recoveries"), Some(1));
    assert!(
        registry2.value("daemon", "replayed_epochs") >= Some(last_marked - LEAD_IN as u64),
        "the restart replays every confirmed epoch past the cut: {:?} (cut at {}, marked \
         through {last_marked})",
        registry2.value("daemon", "replayed_epochs"),
        LEAD_IN + 1
    );
    assert_eq!(
        registry2.value("daemon", "nodes_restored"),
        Some(3),
        "recovery rebuilds every node — `lfta:raw`, `hfta:agg`, `hfta:sib` — from the \
         replayed bytes, once"
    );
    for s in streams {
        let m = &marks[s];
        assert!(
            m.windows(2).all(|w| w[1] == w[0] + 1),
            "stream `{s}`: markers gapless and each once across the kill: {m:?}"
        );
    }
    let reference = continuous_reference(&all, &streams, LAGGING_PROGRAM);
    for s in streams {
        assert!(!rows[s].is_empty(), "no `{s}` rows across both incarnations");
        assert_eq!(
            norm(&rows[s]),
            norm(&reference[s]),
            "stream `{s}`: kill between cuts + resume diverges from the continuous run"
        );
    }
    let _ = std::fs::remove_dir_all(&state);
}

/// A state directory with a cut at every boundary — what every build
/// before the cut cadence wrote, and the special case of the protocol
/// where each cursor is the last marker + 1 — recovers exactly: nothing
/// to replay, every node restored once, output continuous.
#[test]
fn state_dir_with_a_cut_at_every_boundary_recovers_exactly() {
    let state = scratch_dir("percut");
    let (source, all) = lagging_source(LEAD_IN);
    let written = (LEAD_IN + 8) as u64;
    let streams = ["agg", "sib"];
    let mut rows =
        write_cut_per_boundary_state_dir(&state, LAGGING_PROGRAM, &source, written, &streams);

    let config = DaemonConfig {
        epoch_gap_ms: 50,
        initial_program: Some(LAGGING_PROGRAM.to_string()),
        ..durable_config(source, &state)
    };
    let mut daemon = server::start(config).expect("daemon");
    let mut client = connect(daemon.addr());
    for s in streams {
        client.subscribe(s).expect("subscribe");
    }
    let mut marks = HashMap::new();
    read_marked(&mut client, &streams, Some((LEAD_IN + 30) as u64), &mut rows, &mut marks);
    assert!(client.health().expect("health").iter().all(|r| r.query != "durable:store"));
    client.shutdown().expect("shutdown");
    read_marked(&mut client, &streams, None, &mut rows, &mut marks);
    daemon.shutdown();

    assert_eq!(marks["agg"].first(), Some(&written), "resumes right after the last marker");
    let registry = daemon.registry();
    assert_eq!(registry.value("daemon", "replayed_epochs"), Some(0), "cursor == last marker + 1");
    assert_eq!(registry.value("daemon", "nodes_restored"), Some(3));
    let reference = continuous_reference(&all, &streams, LAGGING_PROGRAM);
    for s in streams {
        assert_eq!(norm(&rows[s]), norm(&reference[s]), "stream `{s}` diverges");
    }
    let _ = std::fs::remove_dir_all(&state);
}

/// A state directory left by a build that sealed with snapshot format
/// v1 (byte-wise FNV-1a) is refused whole, by its version byte: the
/// daemon starts — never an `Err` out of `start()` — from empty state at
/// epoch 0 with a recovery note on HEALTH, reads not one node from the
/// old cut, and its session is the continuous run of its own source.
#[test]
fn state_dir_written_by_a_v1_build_starts_fresh_with_a_recovery_note() {
    let state = scratch_dir("v1dir");
    let (source, _) = carry_source(0xD0D04);
    let last_real = (LEAD_IN + REAL_EPOCHS - 1) as u64;

    // Incarnation 1 leaves a populated directory (segments with open
    // windows in them, durable markers), then dies without a flush.
    let mut daemon = server::start(durable_config(source, &state)).expect("daemon 1");
    let mut client = connect(daemon.addr());
    client.subscribe("agg").expect("subscribe agg");
    collect_through(&mut client, "agg", last_real);
    daemon.halt();
    downgrade_state_dir_to_v1(&state);

    let (source2, all2) = carry_source(0xD0D05);
    let mut daemon2 = server::start(durable_config(source2, &state))
        .expect("a v1 state dir must not fail start()");
    let mut client2 = connect(daemon2.addr());
    client2.subscribe("agg").expect("subscribe agg");
    let health = client2.health().expect("health");
    let note = health
        .iter()
        .find(|r| r.query == "durable:store")
        .expect("refusing the old directory must surface as a durable:store advisory");
    assert!(
        note.reason.contains("recovery") && note.reason.contains("v1"),
        "the advisory names the format mismatch: {}",
        note.reason
    );
    let mut collected = HashMap::new();
    let (first, rows) = client2.read_epoch("agg").expect("first epoch");
    assert!(
        first < LEAD_IN as u64,
        "a refused directory means a fresh start at epoch 0, not a resume at {first}"
    );
    collected.insert("agg".to_string(), rows);
    collected.get_mut("agg").unwrap().extend(collect_through(&mut client2, "agg", last_real));
    client2.shutdown().expect("shutdown");
    drain_tail(&mut client2, &mut collected);
    daemon2.shutdown();
    assert_eq!(
        daemon2.registry().value("daemon", "nodes_restored"),
        Some(0),
        "not one node may be read from a cut this build cannot verify"
    );
    let reference = continuous_reference(&all2, &["agg"], PROGRAM);
    assert_eq!(
        norm(&collected["agg"]),
        norm(&reference["agg"]),
        "the fresh session is exactly the continuous run of its own trace"
    );
    let _ = std::fs::remove_dir_all(&state);
}

/// A state disk that fails every segment write dead-letters: the stream
/// keeps flowing, HEALTH grows a `durable:store` advisory row, and the
/// failures are counted in the `durable` stats node.
#[test]
fn failing_state_disk_dead_letters_into_health_not_an_outage() {
    let state = scratch_dir("enospc");
    let (source, all) = carry_source(0xD0D02);
    let last_real = (LEAD_IN + REAL_EPOCHS - 1) as u64;
    let mut config = durable_config(source, &state);
    config.disk_faults = Some(DiskFaultPlan::new().enospc(1, DiskOp::TempWrite, 9999));
    let mut daemon = server::start(config).expect("daemon start");
    let mut client = connect(daemon.addr());
    client.subscribe("agg").expect("subscribe agg");

    let mut collected = HashMap::new();
    collected.insert("agg".to_string(), collect_through(&mut client, "agg", last_real));

    let health = client.health().expect("health");
    let row = health
        .iter()
        .find(|r| r.query == "durable:store")
        .expect("a dead-lettered store must surface a durable:store advisory row");
    assert!(row.restarts >= 1, "failure count is carried in the restarts column");
    assert!(
        row.reason.contains("dead-lettered"),
        "the advisory names the dead-letter: {}",
        row.reason
    );
    assert!(
        daemon.registry().value("durable", "write_failed") >= Some(1),
        "durable:write_failed counts the exhausted retries"
    );

    client.shutdown().expect("shutdown");
    drain_tail(&mut client, &mut collected);
    daemon.shutdown();

    // The stream itself never degraded.
    let reference = continuous_reference(&all, &["agg"], PROGRAM);
    assert_eq!(
        norm(&collected["agg"]),
        norm(&reference["agg"]),
        "dead-lettered durability must not change the emitted rows"
    );
    let _ = std::fs::remove_dir_all(&state);
}

/// A clean shutdown flushes the held tails and commits a shutdown
/// record: the next daemon on the same state dir starts from *empty*
/// state (no double flush) but keeps the epoch numbering monotone.
#[test]
fn clean_shutdown_then_restart_starts_fresh_with_monotone_epochs() {
    let state = scratch_dir("clean");
    let (source, all) = carry_source(0xD0D03);
    let (source2, _) = carry_source(0xD0D03);
    let last_real = (LEAD_IN + REAL_EPOCHS - 1) as u64;

    let mut daemon = server::start(durable_config(source, &state)).expect("daemon 1");
    let mut client = connect(daemon.addr());
    client.subscribe("agg").expect("subscribe agg");
    let mut collected = HashMap::new();
    collected.insert("agg".to_string(), collect_through(&mut client, "agg", last_real));
    client.shutdown().expect("shutdown");
    drain_tail(&mut client, &mut collected);
    daemon.shutdown();

    // Session 1 alone is already complete (tails flushed).
    let reference = continuous_reference(&all, &["agg"], PROGRAM);
    assert_eq!(norm(&collected["agg"]), norm(&reference["agg"]));

    // Session 2 must not re-flush or re-emit anything.
    let mut daemon2 = server::start(durable_config(source2, &state)).expect("daemon 2");
    let mut client2 = connect(daemon2.addr());
    client2.subscribe("agg").expect("subscribe agg");
    let (epoch, rows) = client2.read_epoch("agg").expect("fresh epoch");
    assert!(
        epoch > last_real,
        "epoch numbering stays monotone across a clean restart, got {epoch}"
    );
    assert!(rows.is_empty(), "flushed state must not be restored or re-emitted");
    client2.shutdown().expect("shutdown");
    let mut tail = HashMap::new();
    drain_tail(&mut client2, &mut tail);
    assert!(
        tail.values().all(|rows: &Vec<Tuple>| rows.is_empty()),
        "a fresh daemon has no held tails to flush: {tail:?}"
    );
    daemon2.shutdown();
    let _ = std::fs::remove_dir_all(&state);
}

/// `--state-dir` without `--carry-state` is a configuration error, not
/// a silently non-durable daemon.
#[test]
fn state_dir_without_carry_state_is_rejected() {
    let state = scratch_dir("nocarry");
    let config = DaemonConfig {
        state_dir: Some(state.clone()),
        carry_state: false,
        ..DaemonConfig::default()
    };
    let err = match server::start(config) {
        Ok(_) => panic!("state_dir without carry_state must be rejected"),
        Err(e) => e,
    };
    assert!(
        err.to_string().contains("carry"),
        "the error explains the constraint: {err}"
    );
    let _ = std::fs::remove_dir_all(&state);
}

/// `Client::connect_retry` rides out a daemon that binds late, and
/// still fails (with the last error) when nothing ever listens.
#[test]
fn connect_retry_waits_out_a_late_binding_daemon() {
    // Reserve a port, release it, and bind it again only after a delay.
    let probe = std::net::TcpListener::bind("127.0.0.1:0").expect("probe bind");
    let addr = probe.local_addr().expect("probe addr");
    drop(probe);
    let binder = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(250));
        let listener = std::net::TcpListener::bind(addr).expect("late bind");
        // Hold the listener long enough for the retry loop to land.
        let _ = listener.accept();
    });
    let started = std::time::Instant::now();
    Client::connect_retry(addr, 8, Duration::from_millis(50))
        .expect("retries must outlast the late bind");
    assert!(
        started.elapsed() >= Duration::from_millis(200),
        "success can only have come from a retry, not the first attempt"
    );
    binder.join().expect("binder thread");

    // Nothing listening and one attempt: fails immediately.
    let probe = std::net::TcpListener::bind("127.0.0.1:0").expect("probe bind");
    let dead = probe.local_addr().expect("probe addr");
    drop(probe);
    assert!(
        Client::connect_retry(dead, 1, Duration::from_millis(10)).is_err(),
        "a bounded retry budget must eventually give up"
    );
}
