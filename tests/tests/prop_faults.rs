//! Property tests for fault-isolated execution: an injected panic in one
//! HFTA operator (or one shard of a partitioned HFTA) quarantines that
//! query alone. The run always completes — `run_threaded` returns `Ok`,
//! every capture packet is consumed — the faulted query is `Failed` on
//! the [`RunHealth`] board with the quarantined prefix of its output a
//! sub-multiset of the fault-free reference, and sibling queries are
//! unaffected: byte-identical at parallelism 1, multiset-identical and
//! still ordered at parallelism 4.
//!
//! The matrix mandated by the fault-injection gate: parallelism {1, 4}
//! x shedding {on, off} x batch {1, 256}, on the deterministic seeded
//! harness ([`gs_tests::prop`]). Under shedding the comparison weakens
//! to the group-key subset check (drops legitimately change aggregate
//! counts) — the containment and liveness properties stay exact.

use gigascope::manager::run_threaded;
use gigascope::{
    DropPolicy, FaultPlan, FaultReason, Gigascope, QueryHealth, ShedConfig, Tuple,
};
use gs_packet::builder::FrameBuilder;
use gs_packet::capture::{CapPacket, LinkType};
use gs_tests::prop::{check, Gen};
use std::collections::HashMap;

const PARALLELISM: [usize; 2] = [1, 4];
const BATCH_SIZES: [usize; 2] = [1, 256];

/// Two group-by queries over one derived stream: `agg` is the fault
/// target, `sib` the sibling that must not notice. Both are
/// partition-eligible, so at parallelism 4 the router/merge fan-out and
/// the reunifying merge sit between the fault and the subscriber.
const PROGRAM: &str = "DEFINE { query_name raw; } \
     Select time, destPort, len From eth0.tcp; \
     DEFINE { query_name agg; } \
     Select time, destPort, count(*), sum(len) From raw Group By time, destPort; \
     DEFINE { query_name sib; } \
     Select time, count(*), sum(len) From raw Group By time";

const SUBS: [&str; 2] = ["agg", "sib"];

fn system(batch: usize, parallelism: usize, shed: bool) -> Gigascope {
    let mut gs = Gigascope::new();
    gs.add_interface("eth0", 0, LinkType::Ethernet);
    gs.batch_size = batch;
    gs.parallelism = parallelism;
    gs.shedding = shed.then_some(ShedConfig {
        policy: DropPolicy::LeastProcessedFirst,
        capacity: 16,
    });
    gs.add_program(PROGRAM).unwrap();
    gs
}

/// Panic on the first batch of every instance of `agg`: the single HFTA
/// node at parallelism 1, each shard at parallelism 4. Arming every
/// shard guarantees the fault fires no matter which shards the group
/// hash happens to feed.
fn plan(parallelism: usize) -> FaultPlan {
    if parallelism == 1 {
        FaultPlan::new().panic_at("agg", 1)
    } else {
        (0..parallelism).fold(FaultPlan::new(), |p, k| p.panic_at(format!("agg#{k}"), 1))
    }
}

fn trace(g: &mut Gen) -> Vec<CapPacket> {
    let n = g.usize(40..250);
    let mut ts_ns = 0u64;
    (0..n)
        .map(|i| {
            ts_ns += g.u64(0..2_000_000_000);
            let dport = *g.choice(&[80u16, 443, 25, 53, 8080, 993]);
            let payload = vec![0u8; g.usize(0..32)];
            let f = FrameBuilder::tcp(0x0a000000 + i as u32, 0xc0a80001, 1024, dport)
                .payload(&payload)
                .build_ethernet();
            CapPacket::full(ts_ns, 0, LinkType::Ethernet, f)
        })
        .collect()
}

fn norm(tuples: &[Tuple]) -> Vec<Vec<u64>> {
    let mut rows: Vec<Vec<u64>> = tuples
        .iter()
        .map(|t| t.values().iter().filter_map(|v| v.as_uint()).collect())
        .collect();
    rows.sort();
    rows
}

/// Multiset inclusion: every row of `part` appears in `whole` at least
/// as many times.
fn submultiset(part: &[Vec<u64>], whole: &[Vec<u64>]) -> bool {
    let mut counts: HashMap<&Vec<u64>, isize> = HashMap::new();
    for row in whole {
        *counts.entry(row).or_default() += 1;
    }
    part.iter().all(|row| {
        let c = counts.entry(row).or_default();
        *c -= 1;
        *c >= 0
    })
}

fn assert_ordered(tuples: &[Tuple], what: &str) {
    let times: Vec<u64> = tuples.iter().filter_map(|t| t.get(0).as_uint()).collect();
    assert!(times.windows(2).all(|w| w[0] <= w[1]), "{what}: order violated: {times:?}");
}

#[test]
fn injected_panic_fails_one_query_and_run_still_completes() {
    check("fault_matrix", 4, |g| {
        let pkts = trace(g);

        // Fault-free synchronous reference for output comparison.
        let reference = system(256, 1, false)
            .run_capture(pkts.iter().cloned(), &SUBS)
            .unwrap();
        let ref_agg = norm(reference.stream("agg"));
        let ref_sib = norm(reference.stream("sib"));
        let sib_keys: std::collections::HashSet<u64> =
            ref_sib.iter().map(|row| row[0]).collect();

        for par in PARALLELISM {
            for batch in BATCH_SIZES {
                for shed in [false, true] {
                    let ctx = format!("par {par}, batch {batch}, shed {shed}");

                    let mut gs = system(batch, par, shed);
                    gs.faults = Some(plan(par));
                    let faulty = run_threaded(&gs, pkts.iter().cloned(), &SUBS)
                        .unwrap_or_else(|e| panic!("{ctx}: run did not complete: {e}"));
                    assert_eq!(faulty.packets, pkts.len() as u64, "{ctx}: capture wedged");

                    // The targeted query is quarantined with the root cause.
                    assert!(faulty.health.failed("agg"), "{ctx}: agg not quarantined");
                    assert!(
                        matches!(
                            faulty.health.of("agg"),
                            QueryHealth::Failed {
                                reason: FaultReason::Panic(_) | FaultReason::Upstream(_)
                            }
                        ),
                        "{ctx}: wrong reason: {:?}",
                        faulty.health.of("agg")
                    );
                    assert!(!faulty.health.failed("sib"), "{ctx}: sibling infected");
                    assert!(
                        faulty.counter("faults", "fault_injected").unwrap() >= 1,
                        "{ctx}: fault never fired"
                    );
                    assert!(faulty.counter("faults", "faults_contained").unwrap() >= 1, "{ctx}");
                    assert!(faulty.counter("faults", "queries_failed").unwrap() >= 1, "{ctx}");

                    if shed {
                        // Drops change aggregate counts; the faulted and
                        // sibling outputs must still only contain group
                        // keys the reference saw, in order.
                        for row in norm(faulty.stream("sib")) {
                            assert!(sib_keys.contains(&row[0]), "{ctx}: sib invented {row:?}");
                        }
                    } else {
                        // Quarantined output is a clean prefix of the
                        // reference multiset.
                        assert!(
                            submultiset(&norm(faulty.stream("agg")), &ref_agg),
                            "{ctx}: quarantined output not within reference"
                        );
                        // The sibling is untouched. At parallelism 1 the
                        // pipeline is fully deterministic: compare the
                        // exact tuple sequence against a fault-free
                        // threaded run. At parallelism 4 the shard
                        // interleave makes tie order legitimately vary,
                        // so compare multisets and the order contract.
                        if par == 1 {
                            let clean = run_threaded(
                                &system(batch, 1, false),
                                pkts.iter().cloned(),
                                &SUBS,
                            )
                            .unwrap();
                            assert!(clean.health.all_ok(), "{ctx}: clean run failed?");
                            assert_eq!(
                                faulty.stream("sib"),
                                clean.stream("sib"),
                                "{ctx}: sibling not byte-identical"
                            );
                        } else {
                            assert_eq!(
                                norm(faulty.stream("sib")),
                                ref_sib,
                                "{ctx}: sibling multiset diverged"
                            );
                        }
                    }
                    assert_ordered(faulty.stream("sib"), &format!("{ctx}: sib"));
                }
            }
        }
    });
}

/// Fault injection composes with columnar transport: the injector sees
/// the rows materialized at the node, exactly what the synchronous
/// engine's injector sees, so at batch {1, 3, 256} a faulted threaded
/// run and a faulted synchronous run agree on which queries failed and
/// on the sibling's output multiset.
#[test]
fn faults_compose_with_columnar_transport() {
    check("fault_columnar", 4, |g| {
        let pkts = trace(g);
        let faulted = |batch: usize| {
            let mut gs = system(batch, 1, false);
            gs.faults = Some(plan(1));
            gs
        };
        let sync = faulted(256).run_capture(pkts.iter().cloned(), &SUBS).unwrap();
        assert!(sync.stats.health.failed("agg"));
        for batch in [1usize, 3, 256] {
            let out = run_threaded(&faulted(batch), pkts.iter().cloned(), &SUBS).unwrap();
            assert_eq!(out.packets, pkts.len() as u64, "batch {batch}: capture wedged under fault");
            assert_eq!(
                sync.stats.health.failures(),
                out.health.failures(),
                "batch {batch}: fault containment differs between engines"
            );
            assert!(out.counter("faults", "fault_injected").unwrap() >= 1);
            assert_eq!(
                norm(sync.stream("sib")),
                norm(out.stream("sib")),
                "batch {batch}: sibling output differs between engines under fault"
            );
        }
    });
}

/// The other injector kinds must also be contained: a poisoned shared
/// lock and a corrupt (column-truncated) batch both quarantine at most
/// the targeted query and never hang the run — and the truncation does
/// quarantine it, in its own input check.
#[test]
fn poison_and_corruption_are_contained() {
    check("fault_kinds", 4, |g| {
        let pkts = trace(g);
        for kind in [
            gigascope::FaultKind::PoisonLock { at_batch: 1 },
            gigascope::FaultKind::CorruptTuple { at_batch: 1, keep_cols: 1 },
        ] {
            let gs = || {
                let mut gs = system(1, 1, false);
                gs.faults = Some(FaultPlan::new().with("agg", kind.clone()));
                gs
            };
            let out = run_threaded(&gs(), pkts.iter().cloned(), &SUBS).unwrap();
            assert_eq!(out.packets, pkts.len() as u64, "capture wedged under {kind:?}");
            assert!(!out.health.failed("sib"), "sibling infected by {kind:?}");
            assert!(out.counter("faults", "fault_injected").unwrap() >= 1);
            if matches!(kind, gigascope::FaultKind::CorruptTuple { .. }) {
                // The truncated batch fails the chain-only `agg`'s own
                // input check: it alone is quarantined, for its own
                // panic, on both schedulers.
                let sync = gs().run_capture(pkts.iter().cloned(), &SUBS).unwrap();
                let healths = [(&sync.stats.health, "sync"), (&out.health, "threaded")];
                for (health, engine) in healths {
                    let failures = health.failures();
                    assert!(
                        matches!(failures.as_slice(), [(q, FaultReason::Panic(_))] if *q == "agg"),
                        "{engine}: expected `agg` alone to fail in itself, got {failures:?}"
                    );
                }
            }
        }
    });
}

/// A merge and a window join over the same two interfaces, beside a
/// group-by sibling. Each of `m` and `j` feeds only its subscription, so
/// a fault that escaped its node would quarantine nothing.
const ROOTS: &str = "DEFINE { query_name a; } Select time, destPort, len From eth0.tcp; \
     DEFINE { query_name b; } Select time, destPort, len From eth1.tcp; \
     DEFINE { query_name m; } Merge a.time : b.time From a, b; \
     DEFINE { query_name j; } \
     Select A.time, A.destPort, B.len From a A, b B \
     Where A.time = B.time and A.destPort = B.destPort; \
     DEFINE { query_name sib; } Select time, count(*), sum(len) From a Group By time";

const ROOT_SUBS: [&str; 3] = ["m", "j", "sib"];

/// Both interfaces in turn, interface 0 first — so a root's first
/// consumed batch holds rows, and a truncation aimed at it truncates
/// something.
fn two_link_trace(g: &mut Gen) -> Vec<CapPacket> {
    let n = g.usize(40..200);
    let mut ts_ns = 0u64;
    (0..n)
        .map(|i| {
            ts_ns += g.u64(0..1_500_000_000);
            let dport = *g.choice(&[80u16, 443, 25]);
            let f = FrameBuilder::tcp(0x0a000000 + i as u32, 0xc0a80001, 1024, dport)
                .payload(&vec![0u8; g.usize(0..32)])
                .build_ethernet();
            CapPacket::full(ts_ns, (i % 2) as u16, LinkType::Ethernet, f)
        })
        .collect()
}

/// A panic in, or a column-truncated batch fed to, a merge or a join
/// root fails inside that root: exactly its query is quarantined, for
/// its own panic, on both schedulers — a truncated row never ships on
/// to fail a consumer — and every other query's output is the
/// fault-free one.
#[test]
fn faults_at_a_merge_or_join_root_quarantine_that_query_alone() {
    check("fault_roots", 4, |g| {
        let pkts = two_link_trace(g);
        let system = |batch: usize, plan: Option<FaultPlan>| {
            let mut gs = Gigascope::new();
            gs.add_interface("eth0", 0, LinkType::Ethernet);
            gs.add_interface("eth1", 1, LinkType::Ethernet);
            gs.batch_size = batch;
            gs.faults = plan;
            gs.add_program(ROOTS).unwrap();
            gs
        };
        let clean = system(256, None).run_capture(pkts.iter().cloned(), &ROOT_SUBS).unwrap();
        for target in ["m", "j"] {
            for kind in [
                gigascope::FaultKind::PanicOnBatch { at_batch: g.u64(1..4) },
                gigascope::FaultKind::CorruptTuple { at_batch: 1, keep_cols: 1 },
            ] {
                for batch in BATCH_SIZES {
                    let ctx = format!("{kind:?} at `{target}`, batch {batch}");
                    let gs = || system(batch, Some(FaultPlan::new().with(target, kind.clone())));
                    let sync = gs().run_capture(pkts.iter().cloned(), &ROOT_SUBS).unwrap();
                    let thr = run_threaded(&gs(), pkts.iter().cloned(), &ROOT_SUBS).unwrap();
                    assert_eq!(thr.packets, pkts.len() as u64, "{ctx}: capture wedged");
                    let healths = [(&sync.stats.health, "sync"), (&thr.health, "threaded")];
                    for (health, engine) in healths {
                        let failures = health.failures();
                        let alone = matches!(failures.as_slice(),
                            [(q, FaultReason::Panic(_))] if *q == target);
                        assert!(
                            alone,
                            "{ctx}, {engine}: expected `{target}` alone to fail in itself, got \
                             {failures:?}"
                        );
                    }
                    for name in ROOT_SUBS.iter().filter(|&&q| q != target) {
                        let want = norm(clean.stream(name));
                        assert_eq!(norm(sync.stream(name)), want, "{ctx}: sync `{name}`");
                        assert_eq!(norm(thr.stream(name)), want, "{ctx}: threaded `{name}`");
                    }
                }
            }
        }
    });
}

/// A seeded plan is reproducible: the same seed yields the same targets
/// and the same run health, twice.
#[test]
fn seeded_plans_are_deterministic() {
    let pkts: Vec<CapPacket> = (0..120u64)
        .map(|i| {
            let f = FrameBuilder::tcp(10 + i as u32, 20, 1024, 80).payload(b"xy").build_ethernet();
            CapPacket::full(i * 500_000_000, 0, LinkType::Ethernet, f)
        })
        .collect();
    let run = || {
        let mut gs = system(8, 1, false);
        gs.faults = Some(FaultPlan::seeded(0xFA17, &["agg", "sib"]));
        run_threaded(&gs, pkts.iter().cloned(), &SUBS).unwrap()
    };
    let a = run();
    let b = run();
    assert_eq!(a.health.failures(), b.health.failures(), "seeded fault plan not reproducible");
    for s in SUBS {
        assert_eq!(a.stream(s), b.stream(s), "stream `{s}` diverged across seeded replays");
    }
}
