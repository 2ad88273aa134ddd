//! Properties of the durable checkpoint store under injected disk
//! crashes — the storage half of `gsqd --state-dir`.
//!
//! The driver below runs the daemon's boundary protocol at the library
//! level through the production pieces of it: [`Cadence`] decides which
//! boundaries are cuts (a cut seals the live operators and `checkpoint`s
//! the segment; every other boundary only steps them on), `log_markers`
//! commits every boundary (the durable commit point), and only then are
//! the epoch's rows counted as delivered — the same accounting as a
//! marker-counting `gsq` client, whose `read_epoch` completes only on the
//! end-of-epoch marker frame sent after the commit. A crash anywhere in
//! that protocol ends the incarnation: the store is dropped (everything
//! in memory dies with the process), the same directory is reopened, and
//! the session resumes where [`Recovery::resume`] says — rebuilding the
//! state by replaying `[cut, next)` silently, as one run, from the
//! recovered cut, then emitting from `next`.
//!
//! **Exactly-once**: for every injected crash point — before and after
//! each protocol step a boundary performs (all six at a cut, the two log
//! steps at any other boundary), plus short writes to both files — the
//! total confirmed output equals the uninterrupted run (exact rows and
//! order at parallelism 1, multisets at 4), every `(stream, epoch)`
//! marker is committed exactly once, the recovered carry map is
//! byte-identical to a cut the session actually published, and a
//! durably marked epoch is never re-*emitted* (it may be re-run, silently,
//! to rebuild state from a cut that lags it). Two trace shapes: sparse
//! traces whose small state makes nearly every boundary a cut, and
//! *lagging* traces — few packets per chunk, many groups — whose cut
//! trails the markers by two epochs or more.
//!
//! **Truncation**: for *every byte prefix* of the emission log, and
//! every byte prefix of the newest segment, recovery is never fatal and
//! resuming yields exactly the reference output (recovery falls back
//! past any boundary it can no longer prove was confirmed, and re-runs
//! it).
//!
//! **Idle log growth**: thousands of packet-free epochs after a large
//! cut keep `emit.log` under `LOG_COMPACT_BYTES` plus one cut interval.
//!
//! **Dead-letter**: a checkpoint that keeps failing with ENOSPC never
//! stops the session — output continues on the in-memory cut and the
//! failures are counted in `write_failed`.

use gigascope::manager::{run_threaded, run_threaded_opts, Stepper, ThreadedOptions};
use gigascope::{Gigascope, Tuple};
use gs_packet::builder::FrameBuilder;
use gs_packet::capture::{CapPacket, LinkType};
use gs_runtime::durable::{
    Cadence, DiskIo, DurableStats, DurableStore, FaultyDisk, RealDisk, Recovery, LOG_COMPACT_BYTES,
};
use gs_runtime::faults::{DiskFaultKind, DiskFaultPlan, DiskOp};
use gs_tests::prop::{check, Gen};
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

const PROGRAM: &str = "DEFINE { query_name raw; } \
                       Select time, srcIP, destPort, len From eth0.tcp; \
                       DEFINE { query_name agg; } \
                       Select time, destPort, count(*), sum(len) From raw \
                       Group By time, destPort; \
                       DEFINE { query_name sib; } \
                       Select time, count(*), sum(len) From raw Group By time; \
                       DEFINE { query_name src; } \
                       Select time, srcIP, count(*) From raw Group By time, srcIP";
const SUBS: [&str; 4] = ["agg", "sib", "raw", "src"];

const ALL_OPS: [DiskOp; 6] = [
    DiskOp::TempWrite,
    DiskOp::TempFsync,
    DiskOp::Rename,
    DiskOp::DirFsync,
    DiskOp::LogAppend,
    DiskOp::LogFsync,
];

/// The steps a boundary that is not a cut performs.
const LOG_OPS: [DiskOp; 2] = [DiskOp::LogAppend, DiskOp::LogFsync];

static DIR_ID: AtomicU64 = AtomicU64::new(0);

fn scratch_dir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!(
        "gs_prop_durable_{tag}_{}_{}",
        std::process::id(),
        DIR_ID.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&d);
    d
}

fn system(batch: usize, parallelism: usize) -> Gigascope {
    let mut gs = Gigascope::new();
    gs.add_interface("eth0", 0, LinkType::Ethernet);
    gs.add_interface("eth1", 1, LinkType::Ethernet);
    gs.batch_size = batch;
    gs.parallelism = parallelism;
    gs.add_program(PROGRAM).unwrap();
    gs
}

fn packet(i: usize, ts_ns: u64, g: &mut Gen) -> CapPacket {
    let dport = *g.choice(&[80u16, 443, 25, 53, 8080, 993]);
    let payload = vec![0u8; g.usize(0..64)];
    let f = FrameBuilder::tcp(0x0a000000 + i as u32, 0xc0a80001, 1024, dport)
        .payload(&payload)
        .build_ethernet();
    CapPacket::full(ts_ns, 0, LinkType::Ethernet, f)
}

/// A time-ordered trace with multi-second jumps (windows close mid-epoch
/// and span boundaries) — the same shape the checkpoint properties use.
/// Little is held at any boundary, so nearly every boundary is a cut.
fn trace(g: &mut Gen) -> Vec<CapPacket> {
    let n = g.usize(30..160);
    let mut ts_ns = 0u64;
    (0..n)
        .map(|i| {
            ts_ns += g.u64(0..2_500_000_000);
            packet(i, ts_ns, g)
        })
        .collect()
}

fn split(g: &mut Gen, pkts: &[CapPacket], k: usize) -> Vec<Vec<CapPacket>> {
    let mut cuts: Vec<usize> = (0..k - 1).map(|_| g.usize(0..pkts.len() + 1)).collect();
    cuts.sort_unstable();
    let mut chunks = Vec::with_capacity(k);
    let mut at = 0;
    for c in cuts {
        chunks.push(pkts[at..c].to_vec());
        at = c;
    }
    chunks.push(pkts[at..].to_vec());
    chunks
}

/// Few packets per chunk, many groups: every packet a new source, a few
/// milliseconds apart, so `src` holds one group per packet of the
/// current second and the state sealed at a cut outweighs the traffic
/// of the next several chunks — the cut lags the markers.
fn lagging(g: &mut Gen) -> (Vec<CapPacket>, Vec<Vec<CapPacket>>) {
    let (k, per) = (g.usize(8..12), g.usize(2..5));
    let mut ts_ns = g.u64(0..400_000_000);
    let pkts: Vec<CapPacket> = (0..k * per)
        .map(|i| {
            ts_ns += g.u64(0..10_000_000);
            packet(i, ts_ns, g)
        })
        .collect();
    let chunks = pkts.chunks(per).map(<[CapPacket]>::to_vec).collect();
    (pkts, chunks)
}

/// Order-insensitive normal form of a row set.
fn norm(tuples: &[Tuple]) -> Vec<String> {
    let mut rows: Vec<String> = tuples.iter().map(|t| t.to_string()).collect();
    rows.sort();
    rows
}

fn assert_matches(
    got: &HashMap<String, Vec<Tuple>>,
    want: &HashMap<String, Vec<Tuple>>,
    parallelism: usize,
    what: &str,
) {
    static EMPTY: Vec<Tuple> = Vec::new();
    for name in SUBS {
        let g = got.get(name).unwrap_or(&EMPTY);
        let w = want.get(name).unwrap_or(&EMPTY);
        if parallelism == 1 {
            assert_eq!(g, w, "{what}: stream `{name}` diverged (exact order, parallelism 1)");
        } else {
            assert_eq!(norm(g), norm(w), "{what}: stream `{name}` diverged (multiset)");
        }
    }
}

fn add_rows(acc: &mut HashMap<String, Vec<Tuple>>, rows: HashMap<String, Vec<Tuple>>) {
    for (s, rows) in rows {
        acc.entry(s).or_default().extend(rows);
    }
}

/// What the sessions over one state directory did, for checking a later
/// resume of it: every epoch's rows, every cut published (by cursor —
/// an epoch re-run after a recovery may seal different bytes at the
/// same cursor), which boundaries cut, and how far the durable cut ever
/// lagged the committed markers.
#[derive(Clone, Default)]
struct History {
    rows: HashMap<u64, HashMap<String, Vec<Tuple>>>,
    cuts: HashMap<u64, Vec<HashMap<String, Vec<u8>>>>,
    cut_epochs: Vec<u64>,
    max_lag: u64,
}

/// What one durable session produced, in the marker-counting client's
/// accounting.
struct SessionOut {
    /// Confirmed rows per stream, in confirmation order.
    acc: HashMap<String, Vec<Tuple>>,
    /// Every `(stream, epoch)` marker durably committed, in order.
    ledger: Vec<(String, u64)>,
    /// How many times the session reopened the store after a crash.
    recoveries: u64,
}

/// Drive one full chunked session through the daemon's durable boundary
/// protocol on `dir` — resuming whatever `history` left there, and
/// surviving at most one injected crash (the plan latches). Panics if
/// the session cannot converge.
fn run_session(
    dir: &Path,
    mut plan: Option<DiskFaultPlan>,
    chunks: &[Vec<CapPacket>],
    batch: usize,
    parallelism: usize,
    history: &mut History,
) -> SessionOut {
    let k = chunks.len() as u64;
    let streams: Vec<String> = SUBS.iter().map(|s| s.to_string()).collect();
    let offered =
        |carry: &HashMap<String, Vec<u8>>| (!carry.is_empty()).then(|| Arc::new(carry.clone()));
    let mut acc: HashMap<String, Vec<Tuple>> = HashMap::new();
    let mut ledger: Vec<(String, u64)> = Vec::new();
    history.cuts.entry(0).or_default().push(HashMap::new());
    // Rows computed by an epoch whose commit crashed: confirmed
    // retroactively iff the marker turns out to be durable.
    let mut limbo: Option<(u64, HashMap<String, Vec<Tuple>>, bool)> = None;
    let mut recoveries = 0u64;

    for incarnation in 0..3 {
        let io: Arc<dyn DiskIo> = match plan.take() {
            Some(p) => Arc::new(FaultyDisk::new(p)),
            None => Arc::new(RealDisk),
        };
        let stats = Arc::new(DurableStats::default());
        let (mut store, rec): (DurableStore, Recovery) =
            DurableStore::open(dir, io, 3, stats).expect("open/recovery is never fatal");
        // The production resume computation. Every query completes every
        // boundary here, so all of them resume from one place.
        let at = rec.resume(SUBS[0]);
        for s in SUBS {
            assert_eq!(rec.resume(s), at, "`{s}` resumes from the one cut");
        }
        assert!(at.cut <= at.next && at.next <= k, "resume {at:?} outside the trace");
        if let Some(marked) = rec.markers.iter().map(|(_, e)| *e).max() {
            // Only a directory with no decodable cut left may start over
            // (the recovery note says duplicates are possible then).
            assert!(
                at.next > marked || rec.cursors.is_empty(),
                "a durably marked epoch is never re-emitted: epoch {marked} marked, resume {at:?}"
            );
        }
        assert!(
            history.cuts.get(&at.cut).is_some_and(|cuts| cuts.contains(&rec.carry)),
            "recovered carry must be byte-identical to a cut the session published at {}",
            at.cut
        );
        if incarnation > 0 {
            recoveries += 1;
        } else {
            // A directory some earlier session confirmed up to `next`.
            for e in 0..at.next {
                add_rows(&mut acc, history.rows[&e].clone());
                ledger.extend(streams.iter().map(|s| (s.clone(), e)));
            }
        }
        // Retroactive commit: the crashed epoch counts iff its marker
        // record is durable (the frames follow the marker atomically in
        // this model; a real client that never got them also never got
        // a marker to count).
        if let Some((e, rows, was_flush)) = limbo.take() {
            let durable = if was_flush {
                rec.clean_shutdown
            } else {
                rec.markers.iter().any(|(_, me)| *me == e)
            };
            if durable {
                if !was_flush {
                    assert_eq!(at.next, e + 1, "a durably marked epoch is never re-emitted");
                    for s in &streams {
                        assert!(
                            rec.markers.contains(&(s.clone(), e)),
                            "markers commit atomically per epoch"
                        );
                        ledger.push((s.clone(), e));
                    }
                }
                add_rows(&mut acc, rows);
                if was_flush {
                    return SessionOut { acc, ledger, recoveries };
                }
            } else if !was_flush {
                assert!(
                    at.next <= e,
                    "an unmarked epoch must be re-run, not skipped (resume {at:?}, epoch {e})"
                );
            }
        }

        // Rebuild: `[cut, next)` was confirmed already; replay it from
        // the cut's bytes as ONE run, discarding its output.
        let mut carry: HashMap<String, Vec<u8>> = rec.carry;
        if at.cut < at.next {
            let replayed = chunks[at.cut as usize..at.next as usize].iter().flatten().cloned();
            let opts = ThreadedOptions {
                capture: true,
                restore: offered(&carry),
                ..ThreadedOptions::default()
            };
            let out = run_threaded_opts(&system(batch, parallelism), replayed, &[], opts)
                .expect("silent replay");
            assert!(out.health.all_ok(), "the silent replay must run clean");
            carry = out.snapshots;
        }

        let mut stepper = Stepper::default();
        let mut cadence = Cadence::default();
        let mut durable_cut = at.cut;
        let mut crashed = false;
        for e in at.next..k {
            let chunk = &chunks[e as usize];
            let cut = cadence.boundary(chunk.len() as u64);
            let opts = ThreadedOptions {
                capture: true,
                restore: offered(&carry),
                ..ThreadedOptions::default()
            };
            let gs = system(batch, parallelism);
            let out = if cut {
                stepper.step(&gs, chunk.iter().cloned(), &SUBS, opts)
            } else {
                stepper.hold(&gs, chunk.iter().cloned(), &SUBS, opts)
            }
            .expect("epoch run");
            assert!(out.health.all_ok(), "epoch {e} must run clean");
            assert_eq!(out.snapshots.is_empty(), !cut, "epoch {e}: only a cut seals");
            history.rows.insert(e, out.streams.clone());
            let mut commit = Ok(());
            if cut {
                carry = out.snapshots;
                cadence.sealed(stepper.held());
                history.cuts.entry(e + 1).or_default().push(carry.clone());
                if !history.cut_epochs.contains(&e) {
                    history.cut_epochs.push(e);
                }
                let cursors: HashMap<String, u64> =
                    streams.iter().map(|q| (q.clone(), e + 1)).collect();
                commit = store.checkpoint(e + 1, &carry, &cursors, &streams);
                if commit.is_ok() {
                    durable_cut = e + 1;
                }
            }
            match commit.and_then(|()| store.log_markers(e, &streams)) {
                Ok(()) => {
                    history.max_lag = history.max_lag.max(e + 1 - durable_cut);
                    add_rows(&mut acc, out.streams);
                    ledger.extend(streams.iter().map(|s| (s.clone(), e)));
                }
                Err(err) => {
                    assert!(err.is_crash(), "only injected crashes expected here: {err}");
                    limbo = Some((e, out.streams, false));
                    crashed = true;
                    break;
                }
            }
        }
        if crashed {
            continue;
        }
        // Shutdown flush: emit the held tails; the shutdown record is
        // the flush's commit point (the daemon logs no markers for it).
        let opts = ThreadedOptions {
            capture: false,
            restore: offered(&carry),
            ..ThreadedOptions::default()
        };
        let out = stepper
            .step(&system(batch, parallelism), std::iter::empty::<CapPacket>(), &SUBS, opts)
            .expect("flush run");
        match store.log_shutdown(k + 1) {
            Ok(()) => {
                add_rows(&mut acc, out.streams);
                return SessionOut { acc, ledger, recoveries };
            }
            Err(err) => {
                assert!(err.is_crash(), "only injected crashes expected here: {err}");
                limbo = Some((k, out.streams, true));
            }
        }
    }
    panic!("session failed to converge in 3 incarnations");
}

fn reference(pkts: &[CapPacket], batch: usize, parallelism: usize) -> HashMap<String, Vec<Tuple>> {
    run_threaded(&system(batch, parallelism), pkts.iter().cloned(), &SUBS)
        .expect("continuous run")
        .streams
}

/// Every `(stream, epoch)` of a `k`-epoch session, sorted.
fn every_marker(k: usize) -> Vec<(String, u64)> {
    let mut all: Vec<(String, u64)> =
        SUBS.iter().flat_map(|s| (0..k as u64).map(move |e| (s.to_string(), e))).collect();
    all.sort();
    all
}

/// A fault-free session over `chunks`: its history says which
/// boundaries cut — the schedule an injected crash's first incarnation
/// follows up to the crash (the cadence is deterministic).
fn dry_run(chunks: &[Vec<CapPacket>], batch: usize, parallelism: usize) -> History {
    let dir = scratch_dir("dry");
    let mut history = History::default();
    run_session(&dir, None, chunks, batch, parallelism, &mut history);
    let _ = std::fs::remove_dir_all(&dir);
    history
}

/// Crash plans for boundary `b` (1-based: the commit of epoch `b - 1`):
/// before and after each step that boundary performs — all six at a
/// cut, the two log steps at any other boundary — plus short writes.
fn plans_at(b: u64, cut: bool) -> Vec<(String, DiskFaultPlan)> {
    let kind = if cut { "cut" } else { "non-cut" };
    let ops: &[DiskOp] = if cut { &ALL_OPS } else { &LOG_OPS };
    let mut plans = Vec::new();
    for &op in ops {
        plans.push((
            format!("crash_before({op:?})@{kind} {b}"),
            DiskFaultPlan::new().crash_before(b, op),
        ));
        plans.push((
            format!("crash_after({op:?})@{kind} {b}"),
            DiskFaultPlan::new().crash_after(b, op),
        ));
    }
    let short: &[DiskOp] =
        if cut { &[DiskOp::TempWrite, DiskOp::LogAppend] } else { &[DiskOp::LogAppend] };
    for &op in short {
        plans.push((
            format!("short_write({op:?})@{kind} {b}"),
            DiskFaultPlan::new().with(b, op, DiskFaultKind::ShortWrite { keep: 3 }),
        ));
    }
    plans
}

/// One crashed-and-recovered session per plan, at parallelism {1, 4} ×
/// batch {1, 256}: each takes exactly one crash, recovers, resumes, and
/// must reproduce the uninterrupted run with each `(stream, epoch)`
/// marker committed exactly once.
fn crash_matrix(pkts: &[CapPacket], chunks: &[Vec<CapPacket>], plans: &[(String, DiskFaultPlan)]) {
    for parallelism in [1usize, 4] {
        for batch in [1usize, 256] {
            let want = reference(pkts, batch, parallelism);
            for (name, plan) in plans {
                let dir = scratch_dir("matrix");
                let mut history = History::default();
                let out =
                    run_session(&dir, Some(plan.clone()), chunks, batch, parallelism, &mut history);
                let what = format!("{name}, par {parallelism} batch {batch}");
                assert_eq!(out.recoveries, 1, "{what}: the injected crash must fire");
                assert_matches(&out.acc, &want, parallelism, &what);
                let mut seen = out.ledger.clone();
                seen.sort();
                assert_eq!(
                    seen,
                    every_marker(chunks.len()),
                    "{what}: duplicated or missing (stream, epoch) markers"
                );
                let _ = std::fs::remove_dir_all(&dir);
            }
        }
    }
}

/// The crash matrix over sparse traces: a random boundary, cut or not.
#[test]
fn every_crash_point_recovers_exactly_once() {
    check("durable_crash_matrix", 2, |g| {
        let pkts = trace(g);
        let chunks = split(g, &pkts, 3);
        let cut_epochs = dry_run(&chunks, 256, 1).cut_epochs;
        let b = g.u64(1..chunks.len() as u64 + 1);
        crash_matrix(&pkts, &chunks, &plans_at(b, cut_epochs.contains(&(b - 1))));
    });
}

/// The crash matrix over lagging traces, at one cut boundary and one
/// boundary between cuts — where the durable cut trails the markers, so
/// recovery must rebuild the state by a silent replay before it emits.
#[test]
fn every_crash_point_over_a_lagging_cut_recovers_exactly_once() {
    check("durable_crash_matrix_lagging", 2, |g| {
        let (pkts, chunks) = lagging(g);
        let dry = dry_run(&chunks, 256, 1);
        assert!(
            dry.max_lag >= 2,
            "the trace must make the cut lag the markers by 2+ epochs (lagged {}, cuts at {:?})",
            dry.max_lag,
            dry.cut_epochs
        );
        let k = chunks.len() as u64;
        let (cuts, between): (Vec<u64>, Vec<u64>) =
            (0..k).partition(|e| dry.cut_epochs.contains(e));
        assert!(!between.is_empty(), "a lagging trace has boundaries between cuts");
        let mut plans = plans_at(g.choice(&cuts) + 1, true);
        plans.extend(plans_at(g.choice(&between) + 1, false));
        crash_matrix(&pkts, &chunks, &plans);
    });
}

/// A stable digest of what a recovery handed back: two damaged copies
/// that recover identically resume identically (the session is a
/// function of the recovery), so each distinct recovery resumes once.
fn recovery_key(rec: &Recovery) -> u64 {
    let mut h = DefaultHasher::new();
    (rec.next_epoch, rec.clean_shutdown, &rec.markers).hash(&mut h);
    let mut cursors: Vec<_> = rec.cursors.iter().collect();
    cursors.sort();
    cursors.hash(&mut h);
    let mut carry: Vec<_> = rec.carry.iter().collect();
    carry.sort();
    carry.hash(&mut h);
    h.finish()
}

/// Every byte prefix of the on-disk state recovers and resumes to the
/// reference output. The log prefixes model torn appends (recovery
/// falls back past boundaries it can no longer prove were confirmed);
/// the segment prefixes model a torn publish (checksum fails, recovery
/// falls back to the older cut).
fn every_prefix_resumes(pkts: &[CapPacket], chunks: &[Vec<CapPacket>]) {
    let (batch, parallelism) = (256usize, 1usize);
    let want = reference(pkts, batch, parallelism);

    // A fully-committed state dir: the whole trace confirmed, then a
    // stop before the flush, as a kill -9 would.
    let dir = scratch_dir("prefix");
    let mut history = History::default();
    {
        let streams: Vec<String> = SUBS.iter().map(|s| s.to_string()).collect();
        let (mut store, _) =
            DurableStore::open(&dir, Arc::new(RealDisk), 3, Arc::new(DurableStats::default()))
                .expect("open");
        history.cuts.entry(0).or_default().push(HashMap::new());
        let mut stepper = Stepper::default();
        let mut cadence = Cadence::default();
        for (e, chunk) in chunks.iter().enumerate() {
            let e = e as u64;
            let cut = cadence.boundary(chunk.len() as u64);
            let opts = ThreadedOptions { capture: true, ..ThreadedOptions::default() };
            let gs = system(batch, parallelism);
            let out = if cut {
                stepper.step(&gs, chunk.iter().cloned(), &SUBS, opts)
            } else {
                stepper.hold(&gs, chunk.iter().cloned(), &SUBS, opts)
            }
            .expect("epoch run");
            if cut {
                cadence.sealed(stepper.held());
                history.cuts.entry(e + 1).or_default().push(out.snapshots.clone());
                let cursors: HashMap<String, u64> =
                    streams.iter().map(|q| (q.clone(), e + 1)).collect();
                store.checkpoint(e + 1, &out.snapshots, &cursors, &streams).expect("checkpoint");
            }
            store.log_markers(e, &streams).expect("markers");
            history.rows.insert(e, out.streams);
        }
    }

    let copy_dir = |suffix: &str| -> PathBuf {
        let d = scratch_dir(suffix);
        std::fs::create_dir_all(&d).unwrap();
        for entry in std::fs::read_dir(&dir).unwrap() {
            let entry = entry.unwrap();
            std::fs::copy(entry.path(), d.join(entry.file_name())).unwrap();
        }
        d
    };
    let mut resumed: Vec<u64> = Vec::new();
    let mut resume_and_check = |damaged: PathBuf, what: &str| {
        let (_store, rec) =
            DurableStore::open(&damaged, Arc::new(RealDisk), 3, Arc::new(DurableStats::default()))
                .unwrap_or_else(|e| panic!("{what}: recovery must never be fatal: {e}"));
        let key = recovery_key(&rec);
        drop(_store);
        if !resumed.contains(&key) {
            resumed.push(key);
            let out = run_session(&damaged, None, chunks, batch, parallelism, &mut history.clone());
            assert_matches(&out.acc, &want, parallelism, what);
            let mut seen = out.ledger;
            seen.sort();
            assert_eq!(seen, every_marker(chunks.len()), "{what}: markers");
        }
        let _ = std::fs::remove_dir_all(&damaged);
    };

    // Every byte prefix of the emission log.
    let log = std::fs::read(dir.join("emit.log")).unwrap();
    for cut in 0..log.len() {
        let d = copy_dir("prefix_log");
        std::fs::write(d.join("emit.log"), &log[..cut]).unwrap();
        resume_and_check(d, &format!("log truncated to {cut}/{}", log.len()));
    }

    // Every byte prefix of the newest segment file.
    let mut segs: Vec<String> = std::fs::read_dir(&dir)
        .unwrap()
        .filter_map(|e| {
            let n = e.unwrap().file_name().into_string().unwrap();
            n.ends_with(".gsck").then_some(n)
        })
        .collect();
    segs.sort();
    let newest = segs.last().expect("segments exist").clone();
    let seg = std::fs::read(dir.join(&newest)).unwrap();
    for cut in 0..seg.len() {
        let d = copy_dir("prefix_seg");
        std::fs::write(d.join(&newest), &seg[..cut]).unwrap();
        resume_and_check(d, &format!("segment {newest} truncated to {cut}/{}", seg.len()));
    }

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn every_truncation_prefix_recovers_and_resumes() {
    check("durable_truncation_prefixes", 2, |g| {
        let pkts = trace(g);
        let chunks = split(g, &pkts, 4);
        every_prefix_resumes(&pkts, &chunks);
    });
}

#[test]
fn every_truncation_prefix_over_a_lagging_cut_recovers_and_resumes() {
    check("durable_truncation_prefixes_lagging", 2, |g| {
        let (pkts, chunks) = lagging(g);
        every_prefix_resumes(&pkts, &chunks);
    });
}

/// An idle daemon after a large cut: thousands of packet-free epochs,
/// each committing only its markers, with a cut every `held` of them —
/// the log never outgrows the compaction threshold by more than one
/// cut interval of records.
#[test]
fn idle_epochs_after_a_large_cut_keep_the_log_bounded() {
    check("durable_idle_log", 1, |g| {
        // The large cut: two thousand sources inside one second, all held.
        let pkts: Vec<CapPacket> =
            (0..2_000).map(|i| packet(i, 1_000_000 + i as u64 * 100_000, g)).collect();
        let mut stepper = Stepper::default();
        let opts = ThreadedOptions { capture: true, ..ThreadedOptions::default() };
        let out =
            stepper.step(&system(256, 1), pkts.into_iter(), &[], opts).expect("the large cut");
        let held = stepper.held();
        assert!(held >= 2_000, "every source is a held group: {held}");

        let dir = scratch_dir("idle");
        let streams: Vec<String> = SUBS.iter().map(|s| s.to_string()).collect();
        let (mut store, _) =
            DurableStore::open(&dir, Arc::new(RealDisk), 3, Arc::new(DurableStats::default()))
                .expect("open");
        let cursors = |next: u64| -> HashMap<String, u64> {
            streams.iter().map(|q| (q.clone(), next)).collect()
        };
        store.checkpoint(1, &out.snapshots, &cursors(1), &streams).expect("checkpoint");
        store.log_markers(0, &streams).expect("markers");
        let record = store.log_len();
        let mut cadence = Cadence::default();
        cadence.sealed(held);

        // A packet-free epoch changes no operator, so the cut it seals
        // is the same bytes: only the cadence and the store are driven.
        let idle = LOG_COMPACT_BYTES / record * 5 / 4 + held;
        let bound = LOG_COMPACT_BYTES + (held + 1) * record;
        let (mut cuts, mut compactions) = (0u64, 0u64);
        for e in 1..=idle {
            let before = store.log_len();
            if cadence.boundary(0) {
                cadence.sealed(held);
                cuts += 1;
                store
                    .checkpoint(e + 1, &out.snapshots, &cursors(e + 1), &streams)
                    .expect("checkpoint");
            }
            store.log_markers(e, &streams).expect("markers");
            compactions += u64::from(store.log_len() < before);
            assert!(
                store.log_len() <= bound,
                "epoch {e}: emit.log is {} bytes, over {LOG_COMPACT_BYTES} + one cut interval \
                 ({} records of {record} bytes)",
                store.log_len(),
                held + 1
            );
        }
        assert!(cuts >= idle / (held + 1), "an idle daemon still cuts once per `held` epochs");
        assert!(compactions > 0, "the log outgrew the threshold and was compacted");
        drop(store);
        let (_store, rec) =
            DurableStore::open(&dir, Arc::new(RealDisk), 3, Arc::new(DurableStats::default()))
                .expect("reopen");
        for s in SUBS {
            assert_eq!(rec.resume(s).next, idle + 1, "compaction kept `{s}`'s newest marker");
        }
        let _ = std::fs::remove_dir_all(&dir);
    });
}

/// ENOSPC on every checkpoint write from boundary 2 on: the store
/// dead-letters each failure (counted in `write_failed`), the session
/// keeps emitting on its in-memory cut, and total output is unchanged.
#[test]
fn enospc_dead_letters_and_keeps_running() {
    check("durable_enospc_dead_letter", 3, |g| {
        let pkts = trace(g);
        let k = 3usize;
        let chunks = split(g, &pkts, k);
        let (batch, parallelism) = (256usize, 1usize);
        let want = reference(&pkts, batch, parallelism);

        let dir = scratch_dir("enospc");
        let streams: Vec<String> = SUBS.iter().map(|s| s.to_string()).collect();
        let stats = Arc::new(DurableStats::default());
        let plan = DiskFaultPlan::new().enospc(2, DiskOp::TempWrite, 99);
        let (mut store, _) =
            DurableStore::open(&dir, Arc::new(FaultyDisk::new(plan)), 3, stats.clone())
                .expect("open");

        let mut acc: HashMap<String, Vec<Tuple>> = HashMap::new();
        let mut carry: HashMap<String, Vec<u8>> = HashMap::new();
        for (e, chunk) in chunks.iter().enumerate() {
            let opts = ThreadedOptions {
                capture: true,
                restore: (!carry.is_empty()).then(|| Arc::new(carry.clone())),
                ..ThreadedOptions::default()
            };
            let out =
                run_threaded_opts(&system(batch, parallelism), chunk.iter().cloned(), &SUBS, opts)
                    .expect("epoch run");
            carry = out.snapshots;
            let cursors: HashMap<String, u64> =
                streams.iter().map(|q| (q.clone(), e as u64 + 1)).collect();
            match store.checkpoint(e as u64 + 1, &carry, &cursors, &streams) {
                Ok(()) => store.log_markers(e as u64, &streams).expect("markers"),
                Err(err) => {
                    // Dead-letter: not a crash, the session keeps
                    // running on its in-memory cut and the frames still
                    // go out (the daemon does exactly this).
                    assert!(!err.is_crash(), "ENOSPC must not read as a crash: {err}");
                }
            }
            add_rows(&mut acc, out.streams);
        }
        let opts = ThreadedOptions {
            capture: false,
            restore: (!carry.is_empty()).then(|| Arc::new(carry.clone())),
            ..ThreadedOptions::default()
        };
        let out = run_threaded_opts(
            &system(batch, parallelism),
            std::iter::empty::<CapPacket>(),
            &SUBS,
            opts,
        )
        .expect("flush");
        add_rows(&mut acc, out.streams);

        assert_matches(&acc, &want, parallelism, "enospc dead-letter");
        assert!(
            stats.write_failed.get() >= (k as u64) - 1,
            "every exhausted retry loop is counted: {}",
            stats.write_failed.get()
        );
        assert_eq!(store.segment_count(), 1, "only the pre-fault checkpoint landed");
        let _ = std::fs::remove_dir_all(&dir);
    });
}
