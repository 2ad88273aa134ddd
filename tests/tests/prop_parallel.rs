//! Properties of partition-parallel HFTA execution: rewriting an
//! eligible aggregation HFTA into K hash-partitioned shards plus a
//! reunifying order-preserving merge must be invisible in the output.
//!
//! For randomized query mixes and packet traces, the threaded manager
//! and the inline scheduler at parallelism {1, 2, 8} all produce the
//! same multiset of rows as the HFTA oracle ([`gs_tests::oracle_hftas`],
//! which interprets the unpartitioned plans and shares no scheduler or
//! operator code with either), at batch sizes {1, 256}, and the merge
//! ordering contract (first column nondecreasing) survives the
//! fan-out/fan-in. With shedding enabled the run still completes, stays
//! ordered, and emits only group keys the oracle saw — under drops an
//! aggregate's *counts* change, so multiset comparison is deliberately
//! limited to the key columns.
//!
//! Runs on the in-repo deterministic harness ([`gs_tests::prop`]). Case
//! counts are modest: every case spawns the node/collector threads of
//! several concurrent runs, and parallelism 8 spawns 8 shard threads
//! plus the merge.

use gigascope::manager::run_threaded;
use gigascope::{DropPolicy, Gigascope, ShedConfig, Tuple};
use gs_packet::builder::FrameBuilder;
use gs_packet::capture::{CapPacket, LinkType};
use gs_tests::oracle_hftas;
use gs_tests::prop::{check, Gen};
use std::collections::HashSet;

/// Parallelism degrees under test: the mandated no-op, the smallest real
/// split, and more shards than the trace has busy groups.
const PARALLELISM: [usize; 3] = [1, 2, 8];

/// Batch sizes under test: item-at-a-time and the default.
const BATCH_SIZES: [usize; 2] = [1, 256];

struct Template {
    program: &'static str,
    subscriptions: &'static [&'static str],
    /// Streams whose first column must be nondecreasing in emission
    /// order — the §2.1 ordering contract the reunifying merge preserves.
    ordered: &'static [&'static str],
    /// Stream whose HFTA the rewrite is expected to split at k >= 2
    /// (checked through the shard instances' stats registrations).
    parallel_stream: Option<&'static str>,
}

const TEMPLATES: [Template; 5] = [
    // Multi-key group-by over a named stream: the canonical eligible
    // shape — flush on `time`, hash on the full (time, destPort) key.
    Template {
        program: "DEFINE { query_name raw; } \
                  Select time, destPort, len From eth0.tcp; \
                  DEFINE { query_name perport; } \
                  Select time, destPort, count(*), sum(len) From raw \
                  Group By time, destPort",
        subscriptions: &["perport"],
        ordered: &["perport"],
        parallel_stream: Some("perport"),
    },
    // Split aggregation straight off the interface: the LFTA pre-agg
    // feeds a partitioned super-aggregate HFTA, so the router sits on a
    // capture-loop output edge rather than a node output edge.
    Template {
        program: "DEFINE { query_name tot; } \
                  Select time, count(*), sum(len) From eth0.tcp Group By time",
        subscriptions: &["tot"],
        ordered: &["tot"],
        parallel_stream: Some("tot"),
    },
    // HAVING variant: a residual filter above the aggregate must peel
    // through the eligibility check and run identically in every shard.
    Template {
        program: "DEFINE { query_name raw; } \
                  Select time, destPort, len From eth0.tcp; \
                  DEFINE { query_name busy; } \
                  Select time, destPort, count(*) From raw \
                  Group By time, destPort Having count(*) > 1",
        subscriptions: &["busy"],
        ordered: &["busy"],
        parallel_stream: Some("busy"),
    },
    // Ineligible control: a two-interface merge has no group key to hash
    // on, so the knob must leave it untouched at every parallelism.
    Template {
        program: "DEFINE { query_name a; } Select time From eth0.tcp; \
                  DEFINE { query_name b; } Select time From eth1.tcp; \
                  DEFINE { query_name m; } Merge a.time : b.time From a, b",
        subscriptions: &["m"],
        ordered: &["m"],
        parallel_stream: None,
    },
    // A window join feeding an eligible group-by: the join stays one
    // node, its output stream is what the router splits.
    Template {
        program: "DEFINE { query_name a; } Select time, destPort, len From eth0.tcp; \
                  DEFINE { query_name b; } Select time, destPort, len From eth1.tcp; \
                  DEFINE { query_name pairs; } \
                  Select A.time, A.destPort, A.len, B.len as blen From a A, b B \
                  Where A.time = B.time and A.destPort = B.destPort; \
                  DEFINE { query_name perjoin; } \
                  Select time, destPort, count(*), sum(blen) From pairs \
                  Group By time, destPort",
        subscriptions: &["perjoin"],
        ordered: &["perjoin"],
        parallel_stream: Some("perjoin"),
    },
];

fn system(program: &str, batch: usize, parallelism: usize, shed: Option<ShedConfig>) -> Gigascope {
    let mut gs = Gigascope::new();
    gs.add_interface("eth0", 0, LinkType::Ethernet);
    gs.add_interface("eth1", 1, LinkType::Ethernet);
    gs.batch_size = batch;
    gs.parallelism = parallelism;
    gs.shedding = shed;
    gs.add_program(program).unwrap();
    gs
}

/// A time-ordered trace with random inter-arrival gaps (multi-second
/// jumps exercise heartbeat flushes and group closes), a wide port mix
/// (many concurrent groups so the hash actually spreads shards), and
/// random payload sizes.
fn trace(g: &mut Gen) -> Vec<CapPacket> {
    let n = g.usize(20..400);
    let mut ts_ns = 0u64;
    (0..n)
        .map(|i| {
            ts_ns += g.u64(0..3_000_000_000);
            let dport = *g.choice(&[80u16, 80, 443, 25, 53, 8080, 993, 123]);
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

fn assert_ordered(tuples: &[Tuple], what: &str) {
    let times: Vec<u64> = tuples.iter().filter_map(|t| t.get(0).as_uint()).collect();
    assert!(
        times.windows(2).all(|w| w[0] <= w[1]),
        "{what}: merge order violated: {times:?}"
    );
}

/// The partition-parallel rewrite is output-invisible: for every
/// template, the inline scheduler AND the threaded manager at
/// parallelism {1, 2, 8} x batch {1, 256} reproduce the HFTA oracle's
/// multiset (which interprets the unpartitioned plans) exactly, and
/// ordered streams stay ordered. For the eligible templates the shards
/// must actually exist (their stats nodes register as `hfta:<q>#<k>`);
/// for the control they must not.
#[test]
fn partition_parallel_runs_match_the_hfta_oracle() {
    check("parallel_equivalence", 10, |g| {
        let t = g.choice(&TEMPLATES);
        let pkts = trace(g);
        let want = oracle_hftas(&system(t.program, 256, 1, None), &pkts);

        for par in PARALLELISM {
            for batch in BATCH_SIZES {
                let gs = system(t.program, batch, par, None);
                let sync_out = gs.run_capture(pkts.iter().cloned(), t.subscriptions).unwrap();
                let thr_out =
                    run_threaded(&gs, pkts.iter().cloned(), t.subscriptions).unwrap();
                assert_eq!(thr_out.packets, pkts.len() as u64);
                let at = format!("parallelism {par}, batch {batch}");
                for name in t.subscriptions {
                    assert_eq!(
                        norm(&want[*name]),
                        norm(sync_out.stream(name)),
                        "sync stream `{name}` diverged at {at}"
                    );
                    assert_eq!(
                        norm(&want[*name]),
                        norm(thr_out.stream(name)),
                        "threaded stream `{name}` diverged at {at}"
                    );
                }
                for name in t.ordered {
                    assert_ordered(sync_out.stream(name), &format!("sync `{name}` at {at}"));
                    assert_ordered(thr_out.stream(name), &format!("threaded `{name}` at {at}"));
                }
                let shard = |k: usize| {
                    let prefix = format!("hfta:{}#{k}/", t.parallel_stream.unwrap_or("?"));
                    sync_out.stats.counters.iter().any(|r| r.node.starts_with(&prefix))
                };
                match t.parallel_stream {
                    Some(q) if par >= 2 => {
                        assert!(shard(par - 1), "no shard stats for `{q}` at {at}")
                    }
                    _ => assert!(
                        !sync_out.stats.counters.iter().any(|r| r.node.contains("#1/")),
                        "unexpected shard instances at {at}"
                    ),
                }
            }
        }
    });
}

/// Columnar transport composed with partition parallelism: the router
/// hashes group keys straight from the columns of each flushed batch,
/// so at parallelism {1, 4} x batch {1, 3, 256} both schedulers must
/// equal the HFTA oracle, and the reunifying merge must stay ordered.
#[test]
fn columnar_composes_with_partition_parallelism() {
    check("parallel_columnar", 8, |g| {
        let t = g.choice(&TEMPLATES);
        let pkts = trace(g);
        let want = oracle_hftas(&system(t.program, 256, 1, None), &pkts);

        for par in [1usize, 4] {
            for batch in [1usize, 3, 256] {
                let gs = system(t.program, batch, par, None);
                let sync_out = gs.run_capture(pkts.iter().cloned(), t.subscriptions).unwrap();
                let out = run_threaded(&gs, pkts.iter().cloned(), t.subscriptions).unwrap();
                let at = format!("parallelism {par}, batch {batch}");
                for name in t.subscriptions {
                    assert_eq!(
                        norm(&want[*name]),
                        norm(sync_out.stream(name)),
                        "sync != oracle on `{name}` at {at}"
                    );
                    assert_eq!(
                        norm(&want[*name]),
                        norm(out.stream(name)),
                        "threaded != oracle on `{name}` at {at}"
                    );
                }
                for name in t.ordered {
                    assert_ordered(out.stream(name), &format!("threaded `{name}` at {at}"));
                }
            }
        }
    });
}

/// Partition parallelism composed with overload shedding: the run must
/// complete (punctuation broadcast keeps every shard's watermark moving,
/// so the reunifying merge cannot starve), outputs stay ordered, and
/// every emitted group key is one the unshedded reference also produced.
/// Counts are NOT compared — dropping input tuples legitimately changes
/// an aggregate's counts, so only the key columns admit a subset check.
#[test]
fn shedding_composes_with_partition_parallelism() {
    check("parallel_shed", 10, |g| {
        // Eligible aggregation templates only: the control has its own
        // shedding coverage in prop_qos.
        let t = g.choice(&TEMPLATES[..3]);
        let pkts = trace(g);

        let reference = oracle_hftas(&system(t.program, 256, 1, None), &pkts);
        let par = *g.choice(&[2usize, 8]);
        let policy = *g.choice(&[DropPolicy::LeastProcessedFirst, DropPolicy::TailDrop]);
        let capacity = *g.choice(&[1usize, 2, 4, 16]);
        let batch = *g.choice(&[1usize, 3]);
        let gs = system(t.program, batch, par, Some(ShedConfig { policy, capacity }));
        let thr_out = run_threaded(&gs, pkts.iter().cloned(), t.subscriptions).unwrap();
        assert_eq!(thr_out.packets, pkts.len() as u64);

        for name in t.subscriptions {
            // Group keys lead the row: `time` alone or (time, destPort).
            let key_cols = if t.program.contains("destPort, count") { 2 } else { 1 };
            let seen: HashSet<Vec<u64>> = norm(&reference[*name])
                .into_iter()
                .map(|row| row[..key_cols].to_vec())
                .collect();
            for row in norm(thr_out.stream(name)) {
                assert!(
                    seen.contains(&row[..key_cols]),
                    "stream `{name}` invented group key {:?} under shedding \
                     (policy {policy:?}, capacity {capacity}, parallelism {par}, \
                     batch {batch})",
                    &row[..key_cols]
                );
            }
        }
        for name in t.ordered {
            assert_ordered(
                thr_out.stream(name),
                &format!("threaded `{name}` under shedding at parallelism {par}"),
            );
        }
    });
}
