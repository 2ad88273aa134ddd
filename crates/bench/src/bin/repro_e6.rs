//! E6 — the Babcock-et-al. Q3 query runs exactly, with no sampling (§2,
//! §4).
//!
//! The paper quotes query Q3 — the fraction of backbone traffic
//! attributable to a customer network:
//!
//! ```text
//! (Select Count(*) From C, B
//!   Where C.src=B.src and C.dest=B.dest and C.id=B.id) /
//! (Select Count(*) from B)
//! ```
//!
//! and §4 argues that, contrary to \[1\]'s suggestion that such queries
//! need sampling and approximation, "an efficient stream database can
//! execute complex queries over very high speed data streams". In GSQL
//! the query is expressed with precise semantics: a window join on the
//! ordered `time` attribute plus per-minute aggregates, composed by
//! name. The harness checks the computed fraction against ground truth
//! (the customer stream is constructed as every k-th backbone packet)
//! and measures real single-thread throughput.
//!
//! Run with: `cargo run --release -p gs-bench --bin repro_e6`

use gigascope::Gigascope;
use gs_netgen::{MixConfig, PacketMix};
use gs_packet::capture::LinkType;
use gs_packet::CapPacket;
use std::collections::BTreeMap;
use std::time::Instant;

/// Customer traffic = every `k`-th backbone packet, mirrored on iface 1.
fn workload(k: usize, duration_ms: u64) -> Vec<CapPacket> {
    let backbone = PacketMix::new(MixConfig {
        seed: 23,
        iface: 0,
        duration_ms,
        http_rate_mbps: 60.0,
        background_rate_mbps: 60.0,
        ..MixConfig::default()
    });
    let mut out = Vec::new();
    for (i, p) in backbone.enumerate() {
        if i % k == 0 {
            let mut c = p.clone();
            c.iface = 1;
            out.push(c);
        }
        out.push(p);
    }
    out
}

fn main() {
    let mut gs = Gigascope::new();
    gs.add_interface("eth0", 0, LinkType::Ethernet);
    gs.add_interface("eth1", 1, LinkType::Ethernet);
    gs.add_program(
        "DEFINE { query_name bb; } \
         Select time, srcIP, destIP, id From eth0.ip; \
         DEFINE { query_name cust; } \
         Select time, srcIP, destIP, id From eth1.ip; \
         DEFINE { query_name matched; } \
         Select B.time FROM bb B, cust C \
         WHERE B.time = C.time and B.srcIP = C.srcIP and B.destIP = C.destIP and B.id = C.id; \
         DEFINE { query_name matched_cnt; } \
         Select tb, count(*) From matched Group By time/60 as tb; \
         DEFINE { query_name bb_cnt; } \
         Select tb, count(*) From bb Group By time/60 as tb",
    )
    .expect("query set compiles");

    let k = 10;
    let pkts = workload(k, 3_000);
    let n = pkts.len();
    println!("E6: Babcock Q3 as a composed GSQL plan (window join + aggregates)");
    println!("workload: {n} packets; customer = every {k}th backbone packet\n");

    let start = Instant::now();
    let out = gs
        .run_capture(pkts.into_iter(), &["matched_cnt", "bb_cnt"])
        .expect("run");
    let wall = start.elapsed();

    let table = |name: &str| -> BTreeMap<u64, u64> {
        out.stream(name)
            .iter()
            .map(|t| (t.get(0).as_uint().unwrap(), t.get(1).as_uint().unwrap()))
            .collect()
    };
    let matched = table("matched_cnt");
    let backbone = table("bb_cnt");
    println!("minute   backbone   matched   fraction");
    let mut total_b = 0u64;
    let mut total_m = 0u64;
    for (tb, b) in &backbone {
        let m = matched.get(tb).copied().unwrap_or(0);
        total_b += b;
        total_m += m;
        println!("{tb:>6}  {b:>9}  {m:>8}   {:.4}", m as f64 / *b as f64);
    }
    let fraction = total_m as f64 / total_b as f64;
    println!(
        "\noverall fraction {fraction:.4} vs ground truth {:.4} (1/{k})",
        1.0 / k as f64
    );
    println!(
        "throughput: {:.2} M packets/s single-threaded, join windows and all — no sampling",
        out.stats.packets as f64 / wall.as_secs_f64() / 1e6
    );
    println!(
        "peak join buffer: {} tuples (ordered attributes bound the state)",
        out.stats.peak_buffered.get("matched").copied().unwrap_or(0)
    );

    // Each mirrored packet matches its original; flow reuse can only add
    // same-(src,dest,id,second) coincidences, so fraction >= 1/k.
    assert!(
        (fraction - 1.0 / k as f64).abs() < 0.01,
        "measured fraction {fraction} must track the constructed 1/{k}"
    );
    println!("\nexact answer produced at line rate — sampling was not required.");
}
