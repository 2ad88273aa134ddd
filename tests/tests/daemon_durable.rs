//! Durable-daemon tests: `--state-dir` makes a daemon *kill*, not just
//! an epoch boundary, a pause. A halted daemon (the in-process stand-in
//! for `kill -9`: no flush, no shutdown record, state dropped on the
//! floor) restarted on the same state directory resumes mid-window from
//! the recovered cut, and the combined subscriber output equals one
//! continuous run. A state disk that keeps failing dead-letters into a
//! HEALTH advisory and the `durable` stats node instead of stopping the
//! stream, and a *cleanly* shut down daemon restarts fresh — flushed
//! state is never restored twice.

use gigascope::server::client::Client;
use gigascope::server::wire::LifeState;
use gigascope::server::{self, DaemonConfig, PacketSource};
use gigascope::FaultPlan;
use gs_runtime::faults::{DiskFaultPlan, DiskOp};
use gs_tests::daemon::{
    assert_session_total, carry_source, connect, continuous_reference, downgrade_state_dir_to_v1,
    lagging_source, norm, write_cut_per_boundary_state_dir, Frames, CHAIN_PROGRAM, LAGGING_PROGRAM,
};
use gigascope::Tuple;
use std::collections::HashMap;
use std::path::{Path, PathBuf};
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

fn durable_config(source: PacketSource, state_dir: &Path) -> DaemonConfig {
    DaemonConfig {
        source,
        epoch_gap_ms: 30,
        state_dir: Some(state_dir.to_path_buf()),
        initial_program: Some(PROGRAM.to_string()),
        ..DaemonConfig::default()
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
    let (source, all) = carry_source(LEAD_IN, 0xD0D01);
    let last_real = (LEAD_IN + REAL_EPOCHS - 1) as u64;

    // Incarnation 1: confirm every real epoch, then die without a
    // flush. The read returning proves the markers (and so the covering
    // durable cut) committed before the kill.
    let mut daemon = server::start(durable_config(source.clone(), &state)).expect("daemon 1");
    let mut client = connect(daemon.addr());
    client.subscribe("agg").expect("subscribe agg");
    client.subscribe("sib").expect("subscribe sib");
    let mut frames = Frames::default();
    frames.read(&mut client, &["agg", "sib"], Some(last_real));
    assert_eq!(
        daemon.registry().value("daemon", "nodes_restored"),
        Some(0),
        "a fresh, fault-free incarnation steps its live operators: nothing is read from bytes"
    );
    daemon.halt();

    // Incarnation 2: same state dir, fresh process state.
    let mut daemon2 = server::start(durable_config(source, &state)).expect("daemon 2");
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
    let mut tail = Frames::default();
    tail.read(&mut client2, &[], None);
    daemon2.shutdown();
    assert_eq!(
        daemon2.registry().value("daemon", "nodes_restored"),
        Some(3),
        "recovery rebuilds exactly the recovered cut — `lfta:raw`, `hfta:agg`, `hfta:sib` — \
         from bytes, once; every later boundary steps them live"
    );

    let reference = continuous_reference(&all, &["agg", "sib"], PROGRAM);
    for stream in ["agg", "sib"] {
        let rows = [frames.rows(stream), tail.rows(stream)].concat();
        assert!(!rows.is_empty(), "no `{stream}` rows across both incarnations");
        assert_eq!(
            norm(&rows),
            norm(&reference[stream]),
            "stream `{stream}`: kill + resume diverges from the continuous run \
             (the held window tail must be flushed by the restarted daemon)"
        );
    }
    let _ = std::fs::remove_dir_all(&state);
}

/// A clean shutdown of a daemon whose recovered cut no deployed query
/// owns yet — restarted without its program — flushes nothing and so
/// must not record a clean shutdown: the recovered open windows stay on
/// disk, and the next start with the program resumes them mid-window.
#[test]
fn shutdown_before_reregister_keeps_the_recovered_windows() {
    let state = scratch_dir("unowned");
    let (source, all) = carry_source(LEAD_IN, 0xD0D06);
    let last_real = (LEAD_IN + REAL_EPOCHS - 1) as u64;

    // Incarnation 1: confirm every real epoch, then die without a flush.
    let mut daemon = server::start(durable_config(source.clone(), &state)).expect("daemon 1");
    let mut client = connect(daemon.addr());
    client.subscribe("agg").expect("subscribe agg");
    let mut frames = Frames::default();
    frames.read(&mut client, &["agg"], Some(last_real));
    daemon.halt();
    frames.read(&mut client, &[], None);

    // Incarnation 2: recovers the cut, deploys nothing, shuts down clean.
    let bare = DaemonConfig { initial_program: None, ..durable_config(source.clone(), &state) };
    let mut daemon2 = server::start(bare).expect("daemon 2");
    assert_eq!(daemon2.registry().value("durable", "recoveries"), Some(1));
    daemon2.shutdown();

    // Incarnation 3, with the program: the same cut again, stepped on
    // and flushed at shutdown.
    let mut daemon3 = server::start(durable_config(source, &state)).expect("daemon 3");
    assert_eq!(
        daemon3.registry().value("durable", "recoveries"),
        Some(1),
        "a shutdown that flushed nothing must leave the recovered cut in place"
    );
    let mut client3 = connect(daemon3.addr());
    client3.subscribe("agg").expect("subscribe agg");
    let done = client3.wait_epoch(0).expect("poll");
    client3.wait_epoch(done + 2).expect("resumed epochs");
    client3.shutdown().expect("shutdown");
    let mut tail = Frames::default();
    tail.read(&mut client3, &[], None);
    daemon3.shutdown();

    let reference = continuous_reference(&all, &["agg"], PROGRAM);
    assert!(!tail.rows("agg").is_empty(), "the resumed daemon flushes the recovered tail");
    assert_eq!(
        norm(&[frames.rows("agg"), tail.rows("agg")].concat()),
        norm(&reference["agg"]),
        "kill + bare restart + resume diverges from the continuous run"
    );
    let _ = std::fs::remove_dir_all(&state);
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
    kill_between_cuts_and_resume(&state);
    let _ = std::fs::remove_dir_all(&state);
}

/// An old-layout directory whose markers reach past every epoch the
/// fresh start runs: recovery retires them, so when the fresh start is
/// killed between cuts, its restart resumes from its own cut and
/// markers — the stale ones do not push the resume past epochs it never
/// emitted — and the two incarnations are one continuous run.
#[test]
fn killed_after_a_fresh_start_over_an_old_layout_resumes_exactly() {
    let state = scratch_dir("oldlayout_kill");
    let segment = old_layout_state_dir(&state, &["agg", "sib"], 100);
    kill_between_cuts_and_resume(&state);
    assert!(!segment.exists(), "the old segment file is gone");
    let _ = std::fs::remove_dir_all(&state);
}

/// Run [`LAGGING_PROGRAM`] on `state`, kill it several epochs past its
/// last cut, restart it there, and check the two incarnations' output
/// against one continuous run.
fn kill_between_cuts_and_resume(state: &Path) {
    let (source, all) = lagging_source(LEAD_IN);
    let (source2, _) = lagging_source(LEAD_IN);
    let config = |source| DaemonConfig {
        epoch_gap_ms: 50,
        initial_program: Some(LAGGING_PROGRAM.to_string()),
        ..durable_config(source, state)
    };
    let streams = ["agg", "sib"];
    let mut frames = Frames::default();

    // Incarnation 1: every lead-in boundary and the first real one are
    // cuts; the ~300 groups that one holds outweigh the rest of the
    // trace, so the boundaries after it commit markers only.
    let mut daemon = server::start(config(source)).expect("daemon 1");
    let mut client = connect(daemon.addr());
    for s in streams {
        client.subscribe(s).expect("subscribe");
    }
    let confirmed = (LEAD_IN + 6) as u64;
    frames.read(&mut client, &streams, Some(confirmed));
    let registry = daemon.registry();
    let cuts = registry.value("daemon", "cuts").expect("cuts counter");
    assert_eq!(cuts, LEAD_IN as u64 + 1, "the last cut is the first real boundary");
    assert!(
        registry.value("daemon", "epochs") >= Some(cuts + 3),
        "the kill lands 3+ epochs after the last cut"
    );
    daemon.halt();
    frames.read(&mut client, &streams, None);
    let last_marked = frames.marks["agg"].last().copied().expect("markers before the kill");

    // Incarnation 2: same state dir, fresh process state.
    let mut daemon2 = server::start(config(source2)).expect("daemon 2");
    let mut client2 = connect(daemon2.addr());
    for s in streams {
        client2.subscribe(s).expect("subscribe");
    }
    let last_real = (LEAD_IN + 30) as u64;
    // One `Frames` across both incarnations: its read asserts every
    // marker arrives once and in order across the kill.
    frames.read(&mut client2, &streams, Some(last_real));
    let health = client2.health().expect("health");
    assert!(
        health.iter().all(|r| r.query != "durable:store"),
        "a cut lagging its markers is the normal case, not a recovery note: {health:?}"
    );
    client2.shutdown().expect("shutdown");
    frames.read(&mut client2, &streams, None);
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
    let reference = continuous_reference(&all, &streams, LAGGING_PROGRAM);
    for s in streams {
        assert!(!frames.rows(s).is_empty(), "no `{s}` rows across both incarnations");
        assert_eq!(
            norm(frames.rows(s)),
            norm(&reference[s]),
            "stream `{s}`: kill between cuts + resume diverges from the continuous run"
        );
    }
}

/// Leave `state` as the earlier file-per-cut layout would: a log of
/// MARKERS records for `streams` at epochs `0..epochs`, and a segment
/// file beside it. Returns the segment's path.
fn old_layout_state_dir(state: &Path, streams: &[&str], epochs: u64) -> PathBuf {
    use gs_runtime::durable::{DurableStats, DurableStore, RealDisk};
    let (mut store, _) = DurableStore::open(
        state,
        std::sync::Arc::new(RealDisk),
        3,
        std::sync::Arc::new(DurableStats::default()),
    )
    .expect("open");
    let streams: Vec<String> = streams.iter().map(|s| s.to_string()).collect();
    for e in 0..epochs {
        store.log_markers(e, &streams).expect("markers");
    }
    let segment = state.join("seg-0000000000000000.gsck");
    std::fs::write(&segment, b"a cut in the old layout").expect("stray segment");
    segment
}

/// Kill while a query sits in backoff behind a *stateful* upstream:
/// `busy` panics in the epoch where `perport` closes its first window
/// and is parked far longer than the session, and the kill lands after
/// a cut inside that backoff. The cut rule held `perport` and `raw` at
/// `busy`'s cut, so the restart — every query a laggard — replays the
/// whole chain from one consistent cut: `busy` emits the epochs it owes
/// from `perport`'s windows as they stood, and both incarnations' rows
/// together are one continuous run.
#[test]
fn killed_during_a_backoff_replays_the_stateful_chain_from_one_cut() {
    let state = scratch_dir("chain");
    let (source, all) = carry_source(LEAD_IN, 0xD0D07);
    let fault = LEAD_IN as u64 + 10;
    let config = |source| DaemonConfig {
        initial_program: Some(CHAIN_PROGRAM.to_string()),
        faults: Some(FaultPlan::new().panic_at("busy", 1)),
        fault_epochs: fault..fault + 1,
        backoff_base: 1_000,
        // A wide gap: the premise reads the cut counter between two
        // boundaries.
        epoch_gap_ms: 60,
        ..durable_config(source, &state)
    };
    let streams = ["perport", "busy"];
    let mut frames = Frames::default();

    // Incarnation 1: wait out the backoff epoch — a cut, committed
    // before its markers — then die without a flush.
    let mut daemon = server::start(config(source.clone())).expect("daemon 1");
    let mut client = connect(daemon.addr());
    for s in streams {
        client.subscribe(s).expect("subscribe");
    }
    let registry = daemon.registry();
    client.wait_epoch(fault + 1).expect("the faulted epoch completes");
    let before = registry.value("daemon", "cuts");
    client.wait_epoch(fault + 2).expect("the backoff epoch completes");
    assert!(registry.value("daemon", "cuts") > before, "premise: a cut inside busy's backoff");
    let health = client.health().expect("health");
    let busy = health.iter().find(|r| r.query == "busy").expect("busy row");
    assert_eq!(busy.state, LifeState::Backoff, "premise: busy still in backoff");
    daemon.halt();
    frames.read(&mut client, &streams, None);
    assert_eq!(frames.marks["busy"].last(), Some(&(fault - 1)), "busy emitted nothing since");

    // Incarnation 2: same state dir, fresh process state.
    let (source2, _) = carry_source(LEAD_IN, 0xD0D07);
    let mut daemon2 = server::start(config(source2)).expect("daemon 2");
    let mut client2 = connect(daemon2.addr());
    for s in streams {
        client2.subscribe(s).expect("subscribe");
    }
    // One `Frames` across both incarnations: its read asserts every
    // marker arrives once and in order across the kill.
    frames.read(&mut client2, &streams, Some((LEAD_IN + REAL_EPOCHS) as u64));
    client2.shutdown().expect("shutdown");
    frames.read(&mut client2, &streams, None);
    daemon2.shutdown();

    assert_eq!(daemon2.registry().value("durable", "recoveries"), Some(1));
    assert_eq!(
        daemon2.registry().value("daemon", "nodes_restored"),
        Some(3),
        "recovery rebuilds `lfta:raw`, `hfta:perport` and `hfta:busy` from the replayed bytes, once"
    );
    let reference = continuous_reference(&all, &streams, CHAIN_PROGRAM);
    for s in streams {
        assert!(!frames.rows(s).is_empty(), "no `{s}` rows across both incarnations");
        assert_eq!(
            norm(frames.rows(s)),
            norm(&reference[s]),
            "stream `{s}`: kill in a backoff + resume diverges from the continuous run"
        );
    }
    let _ = std::fs::remove_dir_all(&state);
}

/// A recovered query re-registered after its upstream sealed without
/// it cannot replay exactly: the upstream's state at its cut is gone.
/// Restarted without a program, the daemon gets `raw` and `perport`
/// back first; they replay and seal past `busy`'s recovered cut, which
/// no deployed query holds back. When `busy` registers, it restarts
/// empty at that epoch, owing nothing, and HEALTH says so — rather than
/// replay its owed epochs on input it never saw.
#[test]
fn reregistered_behind_its_upstreams_cut_restarts_empty_with_a_note() {
    let state = scratch_dir("behind");
    let (source, _) = carry_source(LEAD_IN, 0xD0D08);
    let config = |program: Option<&str>| DaemonConfig {
        initial_program: program.map(str::to_string),
        ..durable_config(source.clone(), &state)
    };

    // Incarnation 1: the chain runs into its first second, then dies.
    let mut daemon = server::start(config(Some(CHAIN_PROGRAM))).expect("daemon 1");
    connect(daemon.addr()).wait_epoch(LEAD_IN as u64 + 5).expect("mid-window");
    daemon.halt();

    // Incarnation 2, bare: the upstream half first, `busy` later.
    let mut daemon2 = server::start(config(None)).expect("daemon 2");
    assert_eq!(daemon2.registry().value("durable", "recoveries"), Some(1));
    let mut client = connect(daemon2.addr());
    for s in ["perport", "busy"] {
        client.subscribe(s).expect("subscribe");
    }
    let at = CHAIN_PROGRAM.find("DEFINE { query_name busy; }").expect("busy's definition");
    let (upstream, busy) = CHAIN_PROGRAM.split_at(at);
    client.register(upstream).expect("register raw and perport");
    // The first boundary completes the resumed epoch (the count starts
    // at zero, not at the resumed epoch).
    let resumed = client.wait_epoch(1).expect("the resumed epoch");
    client.wait_epoch(resumed + 1).expect("perport replays and seals");
    let before_busy = client.wait_epoch(0).expect("poll");
    client.register(busy).expect("register busy");
    client.wait_epoch(before_busy + 2).expect("busy runs");
    let health = client.health().expect("health");
    let note = health
        .iter()
        .find(|r| r.query == "durable:store")
        .unwrap_or_else(|| panic!("a HEALTH note: {health:?}"));
    assert!(
        note.reason.contains("`busy`") && note.reason.contains("restarts empty"),
        "the note names the refused replay: {note:?}"
    );
    client.shutdown().expect("shutdown");

    // Each stream's rows and markers by epoch, through the drain.
    let mut rows: HashMap<(String, u64), Vec<Tuple>> = HashMap::new();
    let mut marks: HashMap<String, Vec<u64>> = HashMap::new();
    while let Ok(frame) = client.next_tuples() {
        if frame.rows.is_empty() {
            marks.entry(frame.stream).or_default().push(frame.epoch);
        } else {
            rows.entry((frame.stream, frame.epoch)).or_default().extend(frame.rows);
        }
    }
    daemon2.shutdown();

    let busy_marks = &marks["busy"];
    assert!(busy_marks[0] >= before_busy, "busy owes nothing before it registered: {busy_marks:?}");
    assert!(busy_marks.windows(2).all(|w| w[1] == w[0] + 1), "gapless: {busy_marks:?}");
    // `busy` passes `perport` through, so from its first epoch on the
    // two streams carry the same rows.
    let of = |s: &str| -> Vec<Tuple> {
        let at = |e: &u64| rows.get(&(s.to_string(), *e)).cloned().unwrap_or_default();
        busy_marks.iter().flat_map(at).collect()
    };
    assert!(!of("busy").is_empty(), "the flush closes perport's open windows through busy");
    assert_eq!(norm(&of("busy")), norm(&of("perport")), "busy restarted empty on live input");
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
    let rows =
        write_cut_per_boundary_state_dir(&state, LAGGING_PROGRAM, &source, written, &streams);
    let mut frames = Frames { rows, ..Frames::default() };

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
    frames.read(&mut client, &streams, Some((LEAD_IN + 30) as u64));
    assert!(client.health().expect("health").iter().all(|r| r.query != "durable:store"));
    client.shutdown().expect("shutdown");
    frames.read(&mut client, &streams, None);
    daemon.shutdown();

    assert_eq!(frames.marks["agg"].first(), Some(&written), "resumes right after the last marker");
    let registry = daemon.registry();
    assert_eq!(registry.value("daemon", "replayed_epochs"), Some(0), "cursor == last marker + 1");
    assert_eq!(registry.value("daemon", "nodes_restored"), Some(3));
    let reference = continuous_reference(&all, &streams, LAGGING_PROGRAM);
    for s in streams {
        assert_eq!(norm(frames.rows(s)), norm(&reference[s]), "stream `{s}` diverges");
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
    let (source, _) = carry_source(LEAD_IN, 0xD0D04);
    let last_real = (LEAD_IN + REAL_EPOCHS - 1) as u64;

    // Incarnation 1 leaves a populated directory (cuts with open
    // windows in them, durable markers), then dies without a flush.
    let mut daemon = server::start(durable_config(source, &state)).expect("daemon 1");
    let mut client = connect(daemon.addr());
    client.subscribe("agg").expect("subscribe agg");
    Frames::default().read(&mut client, &["agg"], Some(last_real));
    daemon.halt();
    downgrade_state_dir_to_v1(&state);

    let (source2, _) = carry_source(LEAD_IN, 0xD0D05);
    let mut daemon2 = server::start(durable_config(source2.clone(), &state))
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
    let mut frames = Frames::default();
    frames.read(&mut client2, &["agg"], Some(last_real));
    let first = frames.marks["agg"][0];
    assert!(
        first < LEAD_IN as u64,
        "a refused directory means a fresh start at epoch 0, not a resume at {first}"
    );
    client2.shutdown().expect("shutdown");
    frames.read(&mut client2, &[], None);
    daemon2.shutdown();
    assert_eq!(
        daemon2.registry().value("daemon", "nodes_restored"),
        Some(0),
        "not one node may be read from a cut this build cannot verify"
    );
    // The fresh session is exactly the continuous run of its own trace.
    assert_session_total(PROGRAM, &source2, "agg", &frames);
    let _ = std::fs::remove_dir_all(&state);
}

/// A state directory in the earlier file-per-cut layout — a
/// `seg-*.gsck` file beside a log of MARKERS records — is not read: the
/// segment file is removed with a recovery note on HEALTH, the markers
/// alone resume nothing, so the daemon starts from empty state at epoch
/// 0, restores not one node, and its session is the continuous run of
/// its own source.
#[test]
fn state_dir_in_the_old_segment_layout_starts_fresh_with_a_removal_note() {
    use gs_runtime::durable::LOG_FILE;
    let state = scratch_dir("oldlayout");
    let segment = old_layout_state_dir(&state, &["agg"], 4);

    let (source, _) = carry_source(LEAD_IN, 0xD0D06);
    let last_real = (LEAD_IN + REAL_EPOCHS - 1) as u64;
    let mut daemon = server::start(durable_config(source.clone(), &state))
        .expect("an old-layout state dir must not fail start()");
    let mut client = connect(daemon.addr());
    client.subscribe("agg").expect("subscribe agg");
    let health = client.health().expect("health");
    let note = health
        .iter()
        .find(|r| r.query == "durable:store")
        .expect("the removal must surface as a durable:store advisory");
    assert!(
        note.reason.contains("recovery") && note.reason.contains("segment file"),
        "the advisory names the removed segment: {}",
        note.reason
    );
    assert!(!segment.exists(), "the old segment file is gone");
    let mut frames = Frames::default();
    frames.read(&mut client, &["agg"], Some(last_real));
    let first = frames.marks["agg"][0];
    assert!(first < LEAD_IN as u64, "a fresh start at epoch 0, not a resume at {first}");
    client.shutdown().expect("shutdown");
    frames.read(&mut client, &[], None);
    daemon.shutdown();
    assert_eq!(daemon.registry().value("daemon", "nodes_restored"), Some(0));
    let left: Vec<String> = std::fs::read_dir(&state)
        .expect("state dir")
        .map(|e| e.expect("entry").file_name().to_string_lossy().into_owned())
        .collect();
    assert_eq!(left, [LOG_FILE], "the log is the directory's only file");
    assert_session_total(PROGRAM, &source, "agg", &frames);
    let _ = std::fs::remove_dir_all(&state);
}

/// A state disk that fails every log append dead-letters: the stream
/// keeps flowing, HEALTH grows a `durable:store` advisory row, and the
/// failures are counted in the `durable` stats node.
#[test]
fn failing_state_disk_dead_letters_into_health_not_an_outage() {
    let state = scratch_dir("enospc");
    let (source, _) = carry_source(LEAD_IN, 0xD0D02);
    let last_real = (LEAD_IN + REAL_EPOCHS - 1) as u64;
    let mut config = durable_config(source.clone(), &state);
    config.disk_faults = Some(DiskFaultPlan::new().enospc(1, DiskOp::LogAppend, 9999));
    let mut daemon = server::start(config).expect("daemon start");
    let mut client = connect(daemon.addr());
    client.subscribe("agg").expect("subscribe agg");

    let mut frames = Frames::default();
    frames.read(&mut client, &["agg"], Some(last_real));

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
    frames.read(&mut client, &[], None);
    daemon.shutdown();

    // The stream itself never degraded.
    assert_session_total(PROGRAM, &source, "agg", &frames);
    let _ = std::fs::remove_dir_all(&state);
}

/// A clean shutdown flushes the held tails and commits a shutdown
/// record: the next daemon on the same state dir starts from *empty*
/// state (no double flush) but keeps the epoch numbering monotone.
#[test]
fn clean_shutdown_then_restart_starts_fresh_with_monotone_epochs() {
    let state = scratch_dir("clean");
    let (source, _) = carry_source(LEAD_IN, 0xD0D03);
    let last_real = (LEAD_IN + REAL_EPOCHS - 1) as u64;

    let mut daemon = server::start(durable_config(source.clone(), &state)).expect("daemon 1");
    let mut client = connect(daemon.addr());
    client.subscribe("agg").expect("subscribe agg");
    let mut frames = Frames::default();
    frames.read(&mut client, &["agg"], Some(last_real));
    client.shutdown().expect("shutdown");
    frames.read(&mut client, &[], None);
    daemon.shutdown();

    // Session 1 alone is already complete (tails flushed).
    assert_session_total(PROGRAM, &source, "agg", &frames);

    // Session 2 must not re-flush or re-emit anything.
    let mut daemon2 = server::start(durable_config(source, &state)).expect("daemon 2");
    let mut client2 = connect(daemon2.addr());
    client2.subscribe("agg").expect("subscribe agg");
    let (epoch, rows) = client2.read_epoch("agg").expect("fresh epoch");
    assert!(
        epoch > last_real,
        "epoch numbering stays monotone across a clean restart, got {epoch}"
    );
    assert!(rows.is_empty(), "flushed state must not be restored or re-emitted");
    client2.shutdown().expect("shutdown");
    let mut tail = Frames::default();
    tail.read(&mut client2, &[], None);
    assert!(tail.rows.is_empty(), "a fresh daemon has no held tails to flush: {:?}", tail.rows);
    daemon2.shutdown();
    let _ = std::fs::remove_dir_all(&state);
}

/// `carry_state: false` — the per-epoch rebuild mode, gone — is a
/// configuration error, state directory or not, never a daemon that
/// silently flushes its windows at every boundary.
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
