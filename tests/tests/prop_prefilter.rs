//! Property: the shared cross-query prefilter pass is invisible — for
//! every random multi-query mix, engine, parallelism and batch size,
//! every LFTA emits exactly the tuples, and ends with exactly the
//! counters, of that LFTA run privately over the trace.
//!
//! The reference is [`gs_tests::oracle_lftas`]: one `build_lfta` and one
//! `push_packet` per packet per LFTA, sharing no code with the pass
//! under test. The shared pass replays each LFTA's private decision
//! sequence (admission → BPF prefilter → protocol → predicate) off
//! memoized per-distinct verdicts, so equality must hold to the counter,
//! not just the output multiset.

use gigascope::manager::run_threaded;
use gigascope::{FaultPlan, Gigascope, QueryHealth, Tuple};
use gs_packet::builder::FrameBuilder;
use gs_packet::capture::{CapPacket, LinkType};
use gs_tests::oracle_lftas;
use gs_tests::prop::{check, Gen};

/// Random query pool. Overlapping ports across templates force atom
/// sharing; the UDP and no-filter templates exercise distinct protocols
/// and empty masks; the sampled template exercises admission ordering.
fn gen_program(g: &mut Gen) -> (String, Vec<String>) {
    let n = g.usize(2..6);
    let mut program = String::new();
    let mut names = Vec::new();
    for i in 0..n {
        let name = format!("q{i}");
        let body = match g.usize(0..6) {
            0 => format!("Select time, destPort From eth0.tcp Where destPort = {}", 80),
            1 => format!(
                "Select time From eth0.tcp Where destPort = {} and srcPort = {}",
                *g.choice(&[80u16, 443]),
                *g.choice(&[1024u16, 2048])
            ),
            2 => "Select time, len From eth0.udp Where destPort = 53".to_string(),
            3 => "Select time, len From eth0.tcp".to_string(),
            4 => format!(
                "Select time, count(*) From eth0.tcp Where destPort = {} Group By time",
                *g.choice(&[80u16, 443, 25])
            ),
            _ => format!(
                "Select time, srcIP, count(*) From eth0.ip Where Protocol = {} \
                 Group By time, srcIP",
                *g.choice(&[6u8, 17])
            ),
        };
        program.push_str(&format!("DEFINE {{ query_name {name}; }} {body};\n"));
        names.push(name);
    }
    (program, names)
}

/// A time-ordered mixed trace: TCP on the shared ports, UDP, and odd
/// near-miss ports, with payload sizes crossing the snap boundary.
fn trace(g: &mut Gen) -> Vec<CapPacket> {
    let n = g.usize(30..300);
    let mut ts_ns = 0u64;
    (0..n)
        .map(|i| {
            ts_ns += g.u64(0..2_500_000_000);
            let payload = vec![0u8; g.usize(0..180)];
            let src = 0x0a00_0000 + (i as u32 % 7);
            let f = if g.usize(0..4) == 0 {
                FrameBuilder::udp(src, 0xc0a8_0001, 5353, *g.choice(&[53u16, 5060]))
                    .payload(&payload)
                    .build_ethernet()
            } else {
                let dport = *g.choice(&[80u16, 80, 443, 25, 1024, 9999]);
                FrameBuilder::tcp(src, 0xc0a8_0001, *g.choice(&[1024u16, 2048, 3000]), dport)
                    .payload(&payload)
                    .build_ethernet()
            };
            CapPacket::full(ts_ns, 0, LinkType::Ethernet, f)
        })
        .collect()
}

fn system(program: &str, parallelism: usize, batch: usize) -> Gigascope {
    let mut gs = Gigascope::new();
    gs.add_interface("eth0", 0, LinkType::Ethernet);
    gs.parallelism = parallelism;
    gs.batch_size = batch;
    gs.add_program(program).unwrap();
    gs
}

/// Every LFTA stream of the deployed program — what the oracle covers.
/// Split queries publish theirs under a mangled name, subscribable like
/// any other stream.
fn lfta_streams(gs: &Gigascope) -> Vec<String> {
    gs.queries().iter().flat_map(|dq| dq.lftas.iter().map(|l| l.name.clone())).collect()
}

/// Lossless multiset normalization: every full row, sorted. Aggregating
/// LFTAs drain their table on flush, and heartbeats (which the oracle
/// does not issue) move a flush earlier without changing its content —
/// the multiset is the deterministic contract, and the per-LFTA counter
/// equality below pins the execution itself.
fn norm(tuples: &[Tuple]) -> Vec<String> {
    let mut rows: Vec<String> = tuples.iter().map(|t| format!("{t:?}")).collect();
    rows.sort();
    rows
}

/// Synchronous engine: every LFTA stream and every per-LFTA counter
/// block equals the private oracle's; health stays clean.
#[test]
fn shared_pass_matches_private_lftas_on_sync_engine() {
    check("prefilter_sync_equivalence", 32, |g| {
        let (program, _) = gen_program(g);
        let pkts = trace(g);
        let gs = system(&program, 1, 256);
        let streams = lfta_streams(&gs);
        let subs: Vec<&str> = streams.iter().map(String::as_str).collect();

        let oracle = oracle_lftas(&gs, &pkts);
        let out = gs.run_capture(pkts.iter().cloned(), &subs).unwrap();

        assert_eq!(out.stats.lfta.len(), oracle.len());
        for (name, (tuples, stats)) in &oracle {
            assert_eq!(norm(out.stream(name)), norm(tuples), "stream `{name}` diverged\n{program}");
            assert_eq!(out.stats.lfta[name], *stats, "`{name}` counters diverged\n{program}");
        }
        assert!(out.stats.health.all_ok());
    });
}

/// Threaded manager: the same equalities across parallelism {1, 4} ×
/// batch {1, 256}, and the user-visible query streams equal the
/// synchronous engine's.
#[test]
fn shared_pass_matches_private_lftas_on_threaded_manager() {
    check("prefilter_threaded_equivalence", 10, |g| {
        let (program, names) = gen_program(g);
        let pkts = trace(g);
        let reference = system(&program, 1, 256);
        let mut streams = lfta_streams(&reference);
        streams.extend(names.iter().filter(|n| !streams.contains(n)).cloned().collect::<Vec<_>>());
        let subs: Vec<&str> = streams.iter().map(String::as_str).collect();

        let oracle = oracle_lftas(&reference, &pkts);
        let sync_out = reference.run_capture(pkts.iter().cloned(), &subs).unwrap();

        for parallelism in [1usize, 4] {
            for batch in [1usize, 256] {
                let ctx = format!("par={parallelism} batch={batch}\n{program}");
                let out =
                    run_threaded(&system(&program, parallelism, batch), pkts.iter().cloned(), &subs)
                        .unwrap();
                for (name, (tuples, stats)) in &oracle {
                    assert_eq!(norm(out.stream(name)), norm(tuples), "stream `{name}` at {ctx}");
                    let node = format!("lfta:{name}");
                    for (counter, want) in [
                        ("packets_in", stats.packets_in),
                        ("prefiltered", stats.prefiltered),
                        ("sampled_out", stats.sampled_out),
                        ("not_protocol", stats.not_protocol),
                        ("filtered", stats.filtered),
                        ("tuples_out", stats.tuples_out),
                    ] {
                        let got = out.counter(&node, counter);
                        assert_eq!(got, Some(want), "{node}/{counter} at {ctx}");
                    }
                }
                for name in &names {
                    assert_eq!(
                        norm(sync_out.stream(name)),
                        norm(out.stream(name)),
                        "threaded != sync on `{name}` at {ctx}"
                    );
                }
            }
        }
    });
}

/// Quarantining one query must leave the shared pass intact for its
/// siblings: the faulty query's HFTA is contained, and every LFTA —
/// the faulted query's own feed included — still emits exactly its
/// private output, in order, with its private counters.
#[test]
fn quarantine_leaves_shared_pass_intact_for_siblings() {
    let program = "DEFINE { query_name raw; } Select time, len From eth0.tcp; \
                   DEFINE { query_name agg; } \
                   Select time, count(*), sum(len) From raw Group By time; \
                   DEFINE { query_name sib; } \
                   Select time, destPort From eth0.tcp Where destPort = 80";
    check("prefilter_quarantine", 12, |g| {
        let pkts = trace(g);
        let mut gs = system(program, 1, 256);
        gs.faults = Some(FaultPlan::new().panic_at("agg", 1));
        let out = gs.run_capture(pkts.iter().cloned(), &["agg", "sib", "raw"]).unwrap();
        let oracle = oracle_lftas(&gs, &pkts);
        assert!(out.stats.health.failed("agg"));
        // Siblings are untouched: projection LFTAs emit in packet
        // order, so the comparison is exact, not a multiset.
        for name in ["sib", "raw"] {
            assert_eq!(out.stream(name), oracle[name].0, "sibling `{name}` diverged");
            assert_eq!(out.stats.lfta[name], oracle[name].1, "sibling `{name}` counters");
        }
        assert!(matches!(out.stats.health.of("sib"), QueryHealth::Ok));
    });
}

/// `remove_program` unregisters a query's streams and the shared pass is
/// rebuilt from the survivors on the next run.
#[test]
fn remove_program_rebuilds_shared_pass() {
    let mut gs = Gigascope::new();
    gs.add_interface("eth0", 0, LinkType::Ethernet);
    gs.add_program(
        "DEFINE { query_name keep; } Select time, destPort From eth0.tcp Where destPort = 80; \
         DEFINE { query_name drop_me; } Select time From eth0.tcp Where srcPort = 25",
    )
    .unwrap();
    let before = gs.explain_prefilter().unwrap().unwrap();
    assert!(before.contains("lfta drop_me"));

    // A dependent query blocks removal of its upstream.
    gs.add_program("DEFINE { query_name dep; } Select time, count(*) From keep Group By time")
        .unwrap();
    assert!(gs.remove_program("keep").is_err());
    gs.remove_program("dep").unwrap();
    gs.remove_program("drop_me").unwrap();

    let after = gs.explain_prefilter().unwrap().unwrap();
    assert!(!after.contains("lfta drop_me"), "{after}");
    assert!(after.contains("lfta keep"), "{after}");

    // The survivor still runs, and its stream name is reusable.
    let pkts: Vec<CapPacket> = (0..10)
        .map(|i| {
            let f = FrameBuilder::tcp(1, 2, 999, if i % 2 == 0 { 80 } else { 25 })
                .payload(b"x")
                .build_ethernet();
            CapPacket::full(i * 1_000_000_000, 0, LinkType::Ethernet, f)
        })
        .collect();
    let out = gs.run_capture(pkts.into_iter(), &["keep"]).unwrap();
    assert_eq!(out.stream("keep").len(), 5);
    gs.add_program("DEFINE { query_name drop_me; } Select time From eth0.udp").unwrap();
}

/// Only BPF-filtered templates, over a trace of mostly rejected packets:
/// non-IPv4 frames, truncated frames and frames on a second interface no
/// query listens on. BPF runs on the raw bytes before the shared parse,
/// so most packets return before it; every LFTA must still end with its
/// private output and counters, and the pass parses at most once per
/// packet.
#[test]
fn bpf_before_parse_matches_private_lftas_on_rejected_traffic() {
    check("prefilter_bpf_first", 32, |g| {
        let mut program = String::new();
        for i in 0..g.usize(1..5) {
            let body = match g.usize(0..3) {
                0 => format!(
                    "Select time, destPort From eth0.tcp Where destPort = {}",
                    *g.choice(&[80u16, 443, 25])
                ),
                1 => "Select time, len From eth0.udp Where destPort = 53".to_string(),
                _ => format!(
                    "Select time, count(*) From eth0.tcp Where destPort = {} Group By time",
                    *g.choice(&[80u16, 443])
                ),
            };
            program.push_str(&format!("DEFINE {{ query_name q{i}; }} {body};\n"));
        }
        let mut pkts = trace(g);
        for p in &mut pkts {
            match g.usize(0..5) {
                0 => {
                    let mut f = p.data.to_vec();
                    f[12..14].copy_from_slice(*g.choice(&[&[0x08u8, 0x06], &[0x86, 0xdd]]));
                    *p = CapPacket::full(p.ts_ns, 0, LinkType::Ethernet, f.into());
                }
                1 => {
                    let cut = p.data.slice(..g.usize(0..p.data.len()));
                    *p = CapPacket::full(p.ts_ns, 0, LinkType::Ethernet, cut);
                }
                2 => p.iface = 1,
                _ => {}
            }
        }
        let gs = system(&program, 1, 256);
        let plan = gs.explain_prefilter().unwrap().unwrap();
        assert!(!plan.contains("no-bpf"), "every LFTA carries a BPF program\n{plan}");
        let streams = lfta_streams(&gs);
        let subs: Vec<&str> = streams.iter().map(String::as_str).collect();

        let oracle = oracle_lftas(&gs, &pkts);
        let out = gs.run_capture(pkts.iter().cloned(), &subs).unwrap();

        for (name, (tuples, stats)) in &oracle {
            assert_eq!(norm(out.stream(name)), norm(tuples), "stream `{name}` diverged\n{program}");
            assert_eq!(out.stats.lfta[name], *stats, "`{name}` counters diverged\n{program}");
        }
        let shared = |c| out.stats.counter("prefilter:shared", c).expect("prefilter:shared row");
        assert_eq!(shared("packets"), pkts.len() as u64);
        assert!(shared("parses") <= shared("packets"), "{program}");
        assert!(out.stats.health.all_ok());
    });
}
