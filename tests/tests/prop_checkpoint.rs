//! Properties of operator-state checkpoint/restore through the threaded
//! manager — the engine half of the daemon's carry-state mode.
//!
//! **Continuity**: splitting one time-ordered trace into consecutive
//! chunks and running them as capture→restore→…→flush produces exactly
//! the output of a single continuous `run_threaded` over the whole
//! trace — windows spanning chunk boundaries aggregate as if the run
//! never stopped. At parallelism 1 the comparison pins exact tuples
//! *and order*; partitioned runs compare as multisets (cross-shard tie
//! order is not pinned even without checkpoints).
//!
//! **Recovery**: a seeded fault (panic on the target's first batch)
//! killing one chunk's run, followed by a retry of the same chunk from
//! the previous checkpoint with faults disarmed, yields the same total
//! output as the uninterrupted fault-free run. The fault fires before
//! any output escapes, so discard-and-retry is exact — the same
//! contract the daemon's catch-up replay relies on.
//!
//! **Stepping**: every session runs twice — *stepped*, one
//! [`Stepper`] carrying the live operators across the chunk boundaries
//! (the daemon's steady state: the cut is written, never read), and
//! *from bytes*, a fresh one-shot run per chunk restoring the previous
//! cut (the recovery path). Stepped ≡ from bytes ≡ continuous, and the
//! continuous run ≡ [`gs_tests::oracle_hftas`]; the two sessions also
//! publish identical `lfta:*`/`hfta:*` counter rows at every cut. In
//! the fault property the stepped session keeps its healthy queries
//! live through the faulted chunk and brings only the faulted query
//! back from the bytes of the cut before it, replayed — the daemon's
//! catch-up, in miniature.
//!
//! All properties run across parallelism {1, 4} × batch {1, 256}.

use gigascope::health::query_of;
use gigascope::manager::{run_threaded, run_threaded_opts, Stepper, ThreadedOptions};
use gigascope::{FaultPlan, Gigascope, StatRow, Tuple};
use gs_packet::builder::FrameBuilder;
use gs_packet::capture::{CapPacket, LinkType};
use gs_tests::oracle_hftas;
use gs_tests::prop::{check, Gen};
use std::collections::HashMap;
use std::sync::Arc;

const PARALLELISM: [usize; 2] = [1, 4];
const BATCH_SIZES: [usize; 2] = [1, 256];

struct Template {
    program: &'static str,
    subscriptions: &'static [&'static str],
}

const TEMPLATES: [Template; 4] = [
    // Split aggregation over a shared stream: hash-agg HFTA state (and
    // at parallelism 4, per-shard state reunified by a merge), beside a
    // filter + projection HFTA whose only state is its counters.
    Template {
        program: "DEFINE { query_name raw; } \
                  Select time, destPort, len From eth0.tcp; \
                  DEFINE { query_name agg; } \
                  Select time, destPort, count(*), sum(len) From raw \
                  Group By time, destPort; \
                  DEFINE { query_name sib; } \
                  Select time, count(*), sum(len) From raw Group By time; \
                  DEFINE { query_name web; } \
                  Select time, len From raw Where destPort = 80",
        subscriptions: &["agg", "sib", "raw", "web"],
    },
    // Interface-direct aggregate: the LFTA's direct-mapped sub-agg
    // table checkpoints below a super-aggregate HFTA.
    Template {
        program: "DEFINE { query_name tot; } \
                  Select time, count(*), sum(len) From eth0.tcp Group By time",
        subscriptions: &["tot"],
    },
    // Order-preserving merge: held rows and per-input watermarks must
    // survive the boundary or the reunified order breaks.
    Template {
        program: "DEFINE { query_name a; } Select time From eth0.tcp; \
                  DEFINE { query_name b; } Select time From eth1.tcp; \
                  DEFINE { query_name m; } Merge a.time : b.time From a, b",
        subscriptions: &["m", "a", "b"],
    },
    // Window join under a group-by: rows buffered on both sides, the
    // per-side watermarks and the GC horizon they imply must survive the
    // boundary, or pairs straddling the cut are lost or doubled.
    Template {
        program: "DEFINE { query_name a; } Select time, destPort, len From eth0.tcp; \
                  DEFINE { query_name b; } Select time, destPort, len From eth1.tcp; \
                  DEFINE { query_name pairs; } \
                  Select A.time, A.destPort, A.len, B.len as blen From a A, b B \
                  Where A.time >= B.time - 1 and A.time <= B.time + 1 \
                  and A.destPort = B.destPort; \
                  DEFINE { query_name perjoin; } \
                  Select time, count(*), sum(blen) From pairs Group By time",
        subscriptions: &["pairs", "perjoin"],
    },
];

fn system(program: &str, batch: usize, parallelism: usize) -> Gigascope {
    let mut gs = Gigascope::new();
    gs.add_interface("eth0", 0, LinkType::Ethernet);
    gs.add_interface("eth1", 1, LinkType::Ethernet);
    gs.batch_size = batch;
    gs.parallelism = parallelism;
    gs.add_program(program).unwrap();
    gs
}

/// A time-ordered trace with multi-second jumps (so group windows both
/// close mid-chunk and span chunk boundaries), two interfaces, and a
/// port mix wide enough to spread partition shards.
fn trace(g: &mut Gen) -> Vec<CapPacket> {
    let n = g.usize(30..250);
    let mut ts_ns = 0u64;
    (0..n)
        .map(|i| {
            ts_ns += g.u64(0..2_500_000_000);
            let dport = *g.choice(&[80u16, 443, 25, 53, 8080, 993]);
            let iface = g.u16(0..2);
            let payload = vec![0u8; g.usize(0..64)];
            let f = FrameBuilder::tcp(0x0a000000 + i as u32, 0xc0a80001, 1024, dport)
                .payload(&payload)
                .build_ethernet();
            CapPacket::full(ts_ns, iface, LinkType::Ethernet, f)
        })
        .collect()
}

/// Split a trace into `k` consecutive chunks at random cut points
/// (empty chunks allowed: an idle epoch must be a no-op).
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

/// Multiset normalization: every tuple as its row of uints, sorted.
fn norm(tuples: &[Tuple]) -> Vec<Vec<u64>> {
    let mut rows: Vec<Vec<u64>> = tuples
        .iter()
        .map(|t| t.values().iter().filter_map(|v| v.as_uint()).collect())
        .collect();
    rows.sort();
    rows
}

fn assert_matches(
    got: &HashMap<String, Vec<Tuple>>,
    want: &HashMap<String, Vec<Tuple>>,
    subs: &[&str],
    parallelism: usize,
    what: &str,
) {
    static EMPTY: Vec<Tuple> = Vec::new();
    for name in subs {
        let g = got.get(*name).unwrap_or(&EMPTY);
        let w = want.get(*name).unwrap_or(&EMPTY);
        if parallelism == 1 {
            assert_eq!(g, w, "{what}: stream `{name}` diverged (exact order, parallelism 1)");
        } else {
            assert_eq!(norm(g), norm(w), "{what}: stream `{name}` diverged (multiset)");
        }
    }
}

/// How a chunked session gets from one chunk to the next.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Boundary {
    /// One [`Stepper`] for the whole session: operators cross live.
    Stepped,
    /// A fresh one-shot run per chunk: operators cross as bytes.
    FromBytes,
}

/// `(node, counter, value)` rows, sorted.
type OpRows = Vec<(String, &'static str, u64)>;

/// The operator counter rows of a run (`edge:*`/`queue:*` rows belong to
/// the run's wiring, which is per-chunk in both kinds of session).
fn op_rows(counters: &[StatRow]) -> OpRows {
    let mut rows: OpRows = counters
        .iter()
        .filter(|r| r.node.starts_with("lfta:") || r.node.starts_with("hfta:"))
        .map(|r| (r.node.clone(), r.counter, r.value))
        .collect();
    rows.sort();
    rows
}

/// One fault-free chunked session: capture at every boundary, flush at
/// the end. The previous cut is offered to every chunk either way; a
/// stepped session must never read it. Returns the concatenated streams
/// and the operator counter rows at each cut.
fn session(
    system: &dyn Fn() -> Gigascope,
    chunks: &[Vec<CapPacket>],
    subs: &[&str],
    boundary: Boundary,
) -> (HashMap<String, Vec<Tuple>>, Vec<OpRows>) {
    let mut acc: HashMap<String, Vec<Tuple>> = HashMap::new();
    let mut rows = Vec::new();
    let mut stepper = Stepper::default();
    let mut carry: Option<Arc<HashMap<String, Vec<u8>>>> = None;
    for (i, chunk) in chunks.iter().enumerate() {
        let last = i + 1 == chunks.len();
        if boundary == Boundary::FromBytes {
            stepper = Stepper::default();
        }
        let offered = carry.as_ref().map_or(0, |c| c.len() as u64);
        let opts =
            ThreadedOptions { capture: !last, restore: carry.take(), ..ThreadedOptions::default() };
        let out = stepper.step(&system(), chunk.iter().cloned(), subs, opts).expect("chunk run");
        assert!(out.health.all_ok(), "{boundary:?} chunk {i} must run clean");
        assert!(
            out.health.notes().is_empty(),
            "an intact checkpoint must restore without notes: {:?}",
            out.health.notes()
        );
        assert_eq!(
            out.nodes_restored,
            if boundary == Boundary::Stepped { 0 } else { offered },
            "{boundary:?} chunk {i}: bytes are read exactly where no live operator exists"
        );
        rows.push(op_rows(&out.counters));
        if !last {
            assert!(!out.snapshots.is_empty(), "capture must produce snapshots");
            carry = Some(Arc::new(out.snapshots));
        }
        for (k, v) in out.streams {
            acc.entry(k).or_default().extend(v);
        }
    }
    (acc, rows)
}

#[test]
fn chunked_capture_restore_equals_continuous_run() {
    check("checkpoint_continuity", 10, |g| {
        let t = g.choice(&TEMPLATES);
        let pkts = trace(g);
        let k = g.usize(2..5);
        let chunks = split(g, &pkts, k);
        let oracle = oracle_hftas(&system(t.program, 256, 1), &pkts);

        for parallelism in PARALLELISM {
            for batch in BATCH_SIZES {
                let what = format!("par {parallelism} batch {batch}");
                let system = || system(t.program, batch, parallelism);
                let reference = run_threaded(&system(), pkts.iter().cloned(), t.subscriptions)
                    .expect("continuous run")
                    .streams;
                for name in t.subscriptions {
                    assert_eq!(
                        norm(&reference[*name]),
                        norm(&oracle[*name]),
                        "{what}: continuous run diverged from the oracle on `{name}`"
                    );
                }

                let (stepped, stepped_rows) =
                    session(&system, &chunks, t.subscriptions, Boundary::Stepped);
                let (restored, restored_rows) =
                    session(&system, &chunks, t.subscriptions, Boundary::FromBytes);
                for (got, how) in [(&stepped, "stepped"), (&restored, "from bytes")] {
                    let what = format!("{how}, {what}");
                    assert_matches(got, &reference, t.subscriptions, parallelism, &what);
                }
                if parallelism == 1 {
                    // One producer per port: every counter is a function
                    // of the input (shards race each other into the
                    // reunifying merge's `peak_held`).
                    assert_eq!(
                        stepped_rows, restored_rows,
                        "{what}: a live operator and one rebuilt from its own snapshot \
                         must publish the same rows"
                    );
                }
            }
        }
    });
}

/// Seeded-fault recovery: the `agg` chunk run is killed on its first
/// batch (both the unpartitioned node and shard 0 are targeted so the
/// fault fires at every parallelism), the whole attempt is discarded,
/// and the chunk is retried from the prior checkpoint with faults
/// disarmed. Total output ≡ the uninterrupted fault-free run — from
/// bytes at every chunk, and stepped with only the faulted query
/// falling back to the bytes of the cut before the fault.
#[test]
fn fault_retry_from_checkpoint_equals_uninterrupted_run() {
    const PROGRAM: &str = TEMPLATES[0].program;
    const SUBS: [&str; 1] = ["agg"];
    check("checkpoint_fault_retry", 8, |g| {
        let pkts = trace(g);
        let chunks = split(g, &pkts, 3);
        let fault_chunk = g.usize(0..chunks.len());

        for parallelism in PARALLELISM {
            for batch in BATCH_SIZES {
                let reference =
                    run_threaded(&system(PROGRAM, batch, parallelism), pkts.iter().cloned(), &SUBS)
                        .expect("continuous run")
                        .streams;

                let mut acc: HashMap<String, Vec<Tuple>> = HashMap::new();
                let mut carry: Option<Arc<HashMap<String, Vec<u8>>>> = None;
                for (i, chunk) in chunks.iter().enumerate() {
                    let last = i + 1 == chunks.len();
                    let opts = ThreadedOptions {
                        capture: !last,
                        restore: carry.clone(),
                        ..ThreadedOptions::default()
                    };
                    if i == fault_chunk && !chunk.is_empty() {
                        // Faulted attempt: discarded wholesale. Panic on
                        // batch 1 means nothing escaped to subscribers.
                        let mut gs = system(PROGRAM, batch, parallelism);
                        gs.faults =
                            Some(FaultPlan::new().panic_at("agg", 1).panic_at("agg#0", 1));
                        let out = run_threaded_opts(
                            &gs,
                            chunk.iter().cloned(),
                            &SUBS,
                            opts.clone(),
                        )
                        .expect("faulted run still returns");
                        assert!(out.health.failed("agg"), "the injected fault must fire");
                        // The faulted node (and the reunifying merge
                        // downstream of it) must not checkpoint
                        // mid-panic state; healthy sibling shards may,
                        // but the whole attempt is discarded anyway.
                        assert!(
                            !out.snapshots.contains_key("hfta:agg")
                                && !out.snapshots.contains_key("hfta:agg#0"),
                            "a faulted node must not checkpoint mid-panic state"
                        );
                    }
                    // The (re)try: same chunk, same prior checkpoint,
                    // faults off.
                    let out = run_threaded_opts(
                        &system(PROGRAM, batch, parallelism),
                        chunk.iter().cloned(),
                        &SUBS,
                        opts,
                    )
                    .expect("retry run");
                    assert!(out.health.all_ok(), "retry must run clean");
                    if !last {
                        carry = Some(Arc::new(out.snapshots));
                    }
                    for (k, v) in out.streams {
                        acc.entry(k).or_default().extend(v);
                    }
                }
                assert_matches(
                    &acc,
                    &reference,
                    &SUBS,
                    parallelism,
                    &format!("fault chunk {fault_chunk}, par {parallelism} batch {batch}"),
                );

                // The same fault under a stepped session, handled the
                // way the daemon handles it: the healthy queries stay
                // live straight through the faulted chunk; `agg` loses
                // its live operators, replays the chunk alone (a
                // throw-away run) from the bytes of the cut before it,
                // and rejoins the live dataflow from the replayed cut.
                let owned_by_agg =
                    |key: &str| key.split_once(':').is_some_and(|(_, s)| query_of(s) == "agg");
                let mut acc: HashMap<String, Vec<Tuple>> = HashMap::new();
                let mut stepper = Stepper::default();
                let mut cut: HashMap<String, Vec<u8>> = HashMap::new();
                let mut rejoining = 0;
                for (i, chunk) in chunks.iter().enumerate() {
                    let last = i + 1 == chunks.len();
                    let mut gs = system(PROGRAM, batch, parallelism);
                    let faulted = i == fault_chunk && !chunk.is_empty();
                    if faulted {
                        gs.faults =
                            Some(FaultPlan::new().panic_at("agg", 1).panic_at("agg#0", 1));
                    }
                    let opts = ThreadedOptions {
                        capture: !last,
                        restore: Some(Arc::new(cut.clone())),
                        ..ThreadedOptions::default()
                    };
                    let out = stepper.step(&gs, chunk.iter().cloned(), &SUBS, opts).expect("step");
                    assert_eq!(out.health.failed("agg"), faulted, "chunk {i}");
                    assert_eq!(
                        out.nodes_restored, rejoining,
                        "chunk {i}: only a query that lost its live operators reads bytes"
                    );
                    rejoining = 0;
                    // A quarantined query's cut is not merged (its healthy
                    // shards may have written one): it keeps the cut before.
                    cut.extend(
                        out.snapshots.into_iter().filter(|(k, _)| !(faulted && owned_by_agg(k))),
                    );
                    let agg_rows = acc.entry("agg".to_string()).or_default();
                    if !faulted {
                        agg_rows.extend(out.streams["agg"].iter().cloned());
                        continue;
                    }
                    let before: HashMap<String, Vec<u8>> = cut
                        .iter()
                        .filter(|(k, _)| owned_by_agg(k))
                        .map(|(k, v)| (k.clone(), v.clone()))
                        .collect();
                    let replay = run_threaded_opts(
                        &system(PROGRAM, batch, parallelism),
                        chunk.iter().cloned(),
                        &SUBS,
                        ThreadedOptions {
                            capture: !last,
                            restore: Some(Arc::new(before)),
                            ..ThreadedOptions::default()
                        },
                    )
                    .expect("replay");
                    assert!(replay.health.all_ok(), "a replay is a retry: faults off, runs clean");
                    agg_rows.extend(replay.streams["agg"].iter().cloned());
                    let replayed: Vec<_> =
                        replay.snapshots.into_iter().filter(|(k, _)| owned_by_agg(k)).collect();
                    rejoining = replayed.len() as u64;
                    cut.extend(replayed);
                }
                assert_matches(
                    &acc,
                    &reference,
                    &SUBS,
                    parallelism,
                    &format!("stepped, fault chunk {fault_chunk}, par {parallelism} batch {batch}"),
                );
            }
        }
    });
}
