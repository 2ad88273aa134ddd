//! Property: both schedulers of the batched dataflow — the threaded
//! manager and the inline `run_capture` — compute what the HFTA oracle
//! ([`gs_tests::oracle_hftas`], which shares no scheduler or operator
//! code with them) computes, for every batch size — including 1, which
//! must reproduce item-at-a-time transport exactly.
//!
//! Randomized query mixes (selection, split aggregation, two-interface
//! merge, and all three at once) over randomized packet traces; outputs
//! are compared under normalization (multiset of rows — the threaded run
//! interleaves producers, so cross-group emission order is not pinned).
//!
//! Runs on the in-repo deterministic harness ([`gs_tests::prop`]). Case
//! counts are modest: every case spawns the node/collector threads of up
//! to three concurrent runs.

use gigascope::manager::run_threaded;
use gigascope::{Gigascope, Tuple};
use gs_packet::builder::FrameBuilder;
use gs_packet::capture::{CapPacket, LinkType};
use gs_tests::oracle_hftas;
use gs_tests::prop::{check, Gen};

/// Batch sizes under test: degenerate (item-at-a-time), tiny (forces
/// partial batches and mid-batch punctuation), and the default.
const BATCH_SIZES: [usize; 3] = [1, 3, 256];

struct Template {
    program: &'static str,
    subscriptions: &'static [&'static str],
}

const TEMPLATES: [Template; 5] = [
    // Pure selection: LFTA-only query, the capture loop is the producer.
    Template {
        program: "DEFINE { query_name sel; } \
                  Select time, len From eth0.tcp Where destPort = 80",
        subscriptions: &["sel"],
    },
    // Split aggregation over a named stream: LFTA projection feeds an
    // HFTA group-by through the batched channel.
    Template {
        program: "DEFINE { query_name raw; } Select time, len From eth0.tcp; \
                  DEFINE { query_name agg; } \
                  Select time, count(*), sum(len) From raw Group By time",
        subscriptions: &["agg"],
    },
    // Order-preserving merge of two interfaces.
    Template {
        program: "DEFINE { query_name a; } Select time From eth0.tcp; \
                  DEFINE { query_name b; } Select time From eth1.tcp; \
                  DEFINE { query_name m; } Merge a.time : b.time From a, b",
        subscriptions: &["m"],
    },
    // The mix: all of the above deployed at once, with the raw stream
    // fanned out to both its aggregate consumer and a subscription.
    Template {
        program: "DEFINE { query_name sel; } \
                  Select time, len From eth0.tcp Where destPort = 80; \
                  DEFINE { query_name raw; } Select time, len From eth0.tcp; \
                  DEFINE { query_name agg; } \
                  Select time, count(*), sum(len) From raw Group By time; \
                  DEFINE { query_name a; } Select time From eth0.tcp; \
                  DEFINE { query_name b; } Select time From eth1.tcp; \
                  DEFINE { query_name m; } Merge a.time : b.time From a, b",
        subscriptions: &["sel", "raw", "agg", "m"],
    },
    // Window join of the two interfaces — a band window plus a hash key —
    // aggregated above: both join sides hold state, the window slides by
    // watermark and punctuation, and the join's output crosses an edge.
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

/// Join keys the hash index must compare exactly as the predicate
/// does (`=` is `Value::total_cmp`): a `uint = float` conjunct, NaN keys
/// (equal to themselves) and −0.0 against +0.0 (not equal).
const FLOAT_KEYS: &str = "DEFINE { query_name a; } \
     Select time, destPort, len, (len - len) / 0.0 as nan, \
     (len - len) * (0.0 - 1.0) as negz From eth0.tcp; \
     DEFINE { query_name b; } \
     Select time, destPort * 1.0 as fport, len, (len - len) / 0.0 as nan, \
     (len - len) * 1.0 as posz From eth1.tcp; \
     DEFINE { query_name cross; } \
     Select A.time, A.len, B.len From a A, b B \
     Where A.time = B.time and A.destPort = B.fport; \
     DEFINE { query_name nans; } \
     Select A.time, B.len From a A, b B Where A.time = B.time and A.nan = B.nan; \
     DEFINE { query_name zeros; } \
     Select A.time, B.len From a A, b B Where A.time = B.time and A.negz = B.posz";

fn system(batch: usize, program: &str) -> Gigascope {
    let mut gs = Gigascope::new();
    gs.add_interface("eth0", 0, LinkType::Ethernet);
    gs.add_interface("eth1", 1, LinkType::Ethernet);
    gs.batch_size = batch;
    gs.add_program(program).unwrap();
    gs
}

/// A time-ordered trace with random inter-arrival gaps (multi-second
/// jumps exercise heartbeat flushes), interface choice, port mix, and
/// payload sizes.
fn trace(g: &mut Gen) -> Vec<CapPacket> {
    let n = g.usize(20..400);
    let mut ts_ns = 0u64;
    (0..n)
        .map(|i| {
            ts_ns += g.u64(0..3_000_000_000);
            let dport = *g.choice(&[80u16, 80, 443, 25]);
            let iface = g.u16(0..2);
            let payload = vec![0u8; g.usize(0..64)];
            let f = FrameBuilder::tcp(0x0a000000 + i as u32, 0xc0a80001, 1024, dport)
                .payload(&payload)
                .build_ethernet();
            CapPacket::full(ts_ns, iface, LinkType::Ethernet, f)
        })
        .collect()
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

#[test]
fn both_engines_match_the_hfta_oracle_at_every_batch_size() {
    check("manager_batch_equivalence", 24, |g| {
        let t = g.choice(&TEMPLATES);
        let pkts = trace(g);
        let want = oracle_hftas(&system(256, t.program), &pkts);

        for batch in BATCH_SIZES {
            let gs = system(batch, t.program);
            let sync_out = gs.run_capture(pkts.iter().cloned(), t.subscriptions).unwrap();
            let thr_out = run_threaded(&gs, pkts.iter().cloned(), t.subscriptions).unwrap();
            assert_eq!(thr_out.packets, pkts.len() as u64);
            for name in t.subscriptions {
                assert_eq!(
                    norm(&want[*name]),
                    norm(sync_out.stream(name)),
                    "run_capture diverged from the oracle on `{name}` at batch size {batch}"
                );
                assert_eq!(
                    norm(&want[*name]),
                    norm(thr_out.stream(name)),
                    "run_threaded diverged from the oracle on `{name}` at batch size {batch}"
                );
            }
        }
    });
}

/// A join whose equality conjuncts compare floats (or a uint with a
/// float) pairs exactly the rows its own predicate accepts, on both
/// schedulers and at every batch size.
#[test]
fn float_and_cross_typed_join_keys_match_the_oracle() {
    check("manager_float_join_keys", 8, |g| {
        let pkts = trace(g);
        let subs = ["cross", "nans", "zeros"];
        let want = oracle_hftas(&system(256, FLOAT_KEYS), &pkts);
        assert!(want["zeros"].is_empty(), "−0.0 never equals +0.0 under `=`");
        for batch in BATCH_SIZES {
            let gs = system(batch, FLOAT_KEYS);
            let sync_out = gs.run_capture(pkts.iter().cloned(), &subs).unwrap();
            let thr_out = run_threaded(&gs, pkts.iter().cloned(), &subs).unwrap();
            for name in subs {
                assert_eq!(
                    norm(&want[name]),
                    norm(sync_out.stream(name)),
                    "run_capture diverged from the oracle on `{name}` at batch size {batch}"
                );
                assert_eq!(
                    norm(&want[name]),
                    norm(thr_out.stream(name)),
                    "run_threaded diverged from the oracle on `{name}` at batch size {batch}"
                );
            }
        }
    });
}

/// Columnar batches are the only transport, so the degenerate batch size
/// must still be item-at-a-time: at batch size 1 every tuple crosses a
/// queue as its own one-row batch, in item order, and a threaded run of
/// a template without a group-by (whose emission order is not subject
/// to hash-table drain order) reproduces the inline schedule's exact
/// tuple *sequence*. Every template and batch size matches the oracle's
/// multiset.
#[test]
fn columnar_transport_matches_oracle_and_batch_one_keeps_item_order() {
    check("manager_columnar_equivalence", 16, |g| {
        let t = g.choice(&TEMPLATES);
        let pkts = trace(g);
        let want = oracle_hftas(&system(256, t.program), &pkts);
        let sync_out =
            system(1, t.program).run_capture(pkts.iter().cloned(), t.subscriptions).unwrap();

        for batch in BATCH_SIZES {
            let gs = system(batch, t.program);
            let out = run_threaded(&gs, pkts.iter().cloned(), t.subscriptions).unwrap();
            for name in t.subscriptions {
                assert_eq!(
                    norm(&want[*name]),
                    norm(out.stream(name)),
                    "threaded != oracle on `{name}` at batch {batch}"
                );
                if batch == 1 && !t.program.contains("Group By") {
                    assert_eq!(
                        sync_out.stream(name),
                        out.stream(name),
                        "batch size 1 must keep item order on `{name}`"
                    );
                }
            }
        }
    });
}

/// The merge template's output must stay time-ordered under threading at
/// every batch size — ordering, not just the multiset, is the contract.
#[test]
fn threaded_merge_stays_ordered_at_every_batch_size() {
    check("manager_batch_merge_order", 12, |g| {
        let pkts = trace(g);
        for batch in BATCH_SIZES {
            let gs = system(batch, TEMPLATES[2].program);
            let out = run_threaded(&gs, pkts.iter().cloned(), &["m"]).unwrap();
            let times: Vec<u64> =
                out.stream("m").iter().filter_map(|t| t.get(0).as_uint()).collect();
            assert!(
                times.windows(2).all(|w| w[0] <= w[1]),
                "merge output out of order at batch size {batch}: {times:?}"
            );
        }
    });
}
