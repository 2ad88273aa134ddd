//! E5 — ablation: heartbeats / ordering-update tokens unblocking the
//! merge (§3, "Unblocking Operators").
//!
//! "If tcpdest0 produces 100Mbytes of data per second while tcpdest1
//! produces one tuple per minute, we are likely to overflow the merge
//! buffers... we use a mechanism of injecting ordering update tokens into
//! the query stream... we are experimenting with an on-demand system."
//!
//! The harness merges a busy link with progressively slower partners and
//! compares peak merge-buffer occupancy under three policies: no
//! punctuation, periodic injection (Tucker & Maier), and on-demand
//! injection (the paper's experiment).
//!
//! Run with: `cargo run --release -p gs-bench --bin repro_e5`

use gigascope::Gigascope;
use gs_bench::row;
use gs_netgen::{merge_sources, MixConfig, PacketMix};
use gs_packet::capture::LinkType;
use gs_packet::CapPacket;
use gs_runtime::punct::HeartbeatMode;

fn system(mode: HeartbeatMode) -> Gigascope {
    let mut gs = Gigascope::new();
    gs.heartbeat = mode;
    // Per-tuple transport, the paper's setting: at a larger batch size
    // tuples also wait in the edge batchers, and the shape assertions
    // below do not hold (EXPERIMENTS.md E5 records the numbers).
    gs.batch_size = 1;
    gs.add_interface("eth0", 0, LinkType::Ethernet);
    gs.add_interface("eth1", 1, LinkType::Ethernet);
    gs.add_program(
        "DEFINE { query_name t0; } Select time, destPort From eth0.tcp; \
         DEFINE { query_name t1; } Select time, destPort From eth1.tcp; \
         DEFINE { query_name merged; } Merge t0.time : t1.time From t0, t1",
    )
    .expect("queries compile");
    gs
}

fn traffic(slow_rate_mbps: f64) -> impl Iterator<Item = CapPacket> {
    let busy = PacketMix::new(MixConfig {
        seed: 5,
        iface: 0,
        duration_ms: 10_000,
        http_rate_mbps: 40.0,
        background_rate_mbps: 0.0,
        ..MixConfig::default()
    });
    let slow = PacketMix::new(MixConfig {
        seed: 6,
        iface: 1,
        duration_ms: 10_000,
        http_rate_mbps: slow_rate_mbps,
        background_rate_mbps: 0.0,
        ..MixConfig::default()
    });
    merge_sources(vec![
        Box::new(busy) as Box<dyn Iterator<Item = CapPacket>>,
        Box::new(slow),
    ])
}

fn main() {
    println!("E5: merge of a 40 Mbit/s link with a slow partner, 10 s of traffic");
    println!("peak merge-buffer occupancy (tuples) by heartbeat policy\n");
    let widths = [16, 12, 14, 12, 12];
    println!(
        "{}",
        row(
            &[
                "slow link".into(),
                "no punct".into(),
                "periodic 1 s".into(),
                "on-demand".into(),
                "merged".into()
            ],
            &widths
        )
    );

    let skews = [(4.0, "4 Mbit/s"), (0.04, "40 kbit/s"), (0.0004, "~1 pkt/4 s")];
    let mut no_punct_peaks = Vec::new();
    let mut periodic_peaks = Vec::new();
    for (rate, label) in skews {
        let mut peaks = Vec::new();
        let mut merged = 0usize;
        let mut heartbeats = [0u64; 3];
        for (k, mode) in [
            HeartbeatMode::Off,
            HeartbeatMode::Periodic { interval: 1 },
            HeartbeatMode::OnDemand,
        ]
        .into_iter()
        .enumerate()
        {
            let gs = system(mode);
            let out = gs.run_capture(traffic(rate), &["merged"]).expect("run");
            peaks.push(out.stats.peak_buffered.get("merged").copied().unwrap_or(0));
            merged = out.stream("merged").len();
            heartbeats[k] = out.stats.heartbeats;
        }
        no_punct_peaks.push(peaks[0]);
        periodic_peaks.push(peaks[1]);
        println!(
            "{}",
            row(
                &[
                    label.into(),
                    format!("{}", peaks[0]),
                    format!("{}", peaks[1]),
                    format!("{}", peaks[2]),
                    format!("{merged}"),
                ],
                &widths
            )
        );
    }

    println!("\nshape checks:");
    println!(
        "  without punctuation the peak grows as the slow link slows: {:?}",
        no_punct_peaks
    );
    println!("  with punctuation it stays bounded:                        {:?}", periodic_peaks);
    assert!(
        no_punct_peaks.windows(2).all(|w| w[1] >= w[0]),
        "slower partner must hold more tuples hostage without punctuation"
    );
    assert!(
        *no_punct_peaks.last().expect("non-empty") > 20_000,
        "a near-silent partner must force unbounded buffering without punctuation"
    );
    assert!(
        periodic_peaks.iter().all(|&p| p < 1_000),
        "ordering-update tokens must bound the buffer regardless of skew"
    );
    println!("\nall shape assertions hold.");
}
