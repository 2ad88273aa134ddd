//! The six workloads: GSQL program, traffic shape, chunking, and why
//! each exists. Every workload stresses a different set of layers and
//! is the bypass case for some other workload's layers (README.md has
//! the full table); later issues refer to these by name.

use gs_netgen::{MixConfig, SizeDist};
use gs_packet::capture::LinkType;

/// One benchmark workload.
pub struct Workload {
    /// Name used on the command line and in every output.
    pub name: &'static str,
    /// One-line reason the workload exists (mirrored in BENCHMARK.json).
    pub why: &'static str,
    /// GSQL program registered as `DaemonConfig::initial_program`.
    pub program: String,
    /// Interfaces to register, `(name, id)`; all Ethernet.
    pub ifaces: Vec<(&'static str, u16)>,
    /// Streams each subscriber connection subscribes to.
    pub subs: Vec<&'static str>,
    /// Number of subscriber connections.
    pub subscribers: usize,
    /// Traffic per interface (seed is overwritten from `--seed`).
    pub mixes: Vec<MixConfig>,
    /// Virtual milliseconds of traffic per epoch chunk.
    pub chunk_ms: u64,
    /// Virtual milliseconds of generated base trace (a whole number of
    /// seconds, so repetitions keep 1-second windows aligned).
    pub base_ms: u64,
    /// Run with `DaemonConfig::state_dir` set.
    pub durable: bool,
}

impl Workload {
    /// `DaemonConfig::ifaces` form of [`Workload::ifaces`].
    pub fn iface_defs(&self) -> Vec<(String, u16, LinkType)> {
        self.ifaces
            .iter()
            .map(|(n, id)| (n.to_string(), *id, LinkType::Ethernet))
            .collect()
    }
}

/// The 20-port pool of the PR 7 registration-scaling bench
/// (`crates/bench/benches/micro.rs`) with 8080 swapped for 8081: the
/// synthetic mix sends all background traffic to 8080, and with that
/// port in the pool ten LFTAs would each emit a tuple for most packets —
/// a workload about LFTA emission, not about dispatch. As it stands only
/// the five port-80 queries ever match (~2 % of packets).
const PORTS: [u16; 20] = [
    80, 443, 53, 25, 8081, 22, 123, 161, 1433, 3306, 5060, 5432, 6379, 8443, 9090, 1024, 2048,
    4096, 3128, 179,
];

/// Small frames only: per-packet cost, not payload bytes, is what every
/// layer after `packet` pays for, and it keeps base-trace generation
/// cheap at the packet rates the aggregation workloads need.
fn small_frames() -> SizeDist {
    SizeDist::new(&[(64, 0.7), (128, 0.3)])
}

const AGG_PROGRAM: &str = "DEFINE { query_name raw; } Select time, srcIP, len From eth0.tcp; \
     DEFINE { query_name persrc; } \
     Select time, srcIP, count(*), sum(len), min(len), max(len) From raw Group By time, srcIP";

/// ~42 k packets per virtual second over 14 k low-skew flows: about
/// 12 k distinct sources per 1-second group-by window, three packets
/// per group.
fn agg_mix() -> MixConfig {
    MixConfig {
        http_rate_mbps: 0.0,
        background_rate_mbps: 28.0,
        sizes: small_frames(),
        flows: 14_000,
        flow_skew: 0.2,
        ..MixConfig::default()
    }
}

/// All six workloads, in reporting order.
pub fn all() -> Vec<Workload> {
    vec![
        Workload {
            name: "filter",
            why: "LFTA-only port-80 selection, ~2% match: packet parse + prefilter/BPF early \
                  reduction do nearly all the work (paper E1)",
            program: "DEFINE { query_name web; } \
                      Select time, srcIP, destIP, len From eth0.tcp Where destPort = 80"
                .to_string(),
            ifaces: vec![("eth0", 0)],
            subs: vec!["web"],
            subscribers: 1,
            mixes: vec![MixConfig {
                http_rate_mbps: 0.6,
                background_rate_mbps: 29.4,
                sizes: small_frames(),
                ..MixConfig::default()
            }],
            chunk_ms: 500,
            base_ms: 4_000,
            durable: false,
        },
        Workload {
            name: "fanout",
            why: "accept-all selection to two subscribers: every packet becomes a row on two \
                  sockets, so server encode/fan-out/conn queues dominate; bypass for fast-reject",
            program: "DEFINE { query_name allv4; } \
                      Select time, srcIP, destIP, len From eth0.tcp Where IPVersion = 4"
                .to_string(),
            ifaces: vec![("eth0", 0)],
            subs: vec!["allv4"],
            subscribers: 2,
            mixes: vec![MixConfig {
                http_rate_mbps: 0.6,
                background_rate_mbps: 29.4,
                sizes: small_frames(),
                ..MixConfig::default()
            }],
            chunk_ms: 100,
            base_ms: 2_000,
            durable: false,
        },
        Workload {
            name: "agg",
            why: "projection LFTA -> columnar hash-agg over >=10k sources/s, 2 s chunks: \
                  transport + hfta steady state, boundaries rare; bypass for epoch_durable",
            program: AGG_PROGRAM.to_string(),
            ifaces: vec![("eth0", 0)],
            subs: vec!["persrc"],
            subscribers: 1,
            mixes: vec![agg_mix()],
            chunk_ms: 2_000,
            base_ms: 8_000,
            durable: false,
        },
        Workload {
            name: "merge_join",
            why: "two interfaces -> merge -> group-by plus window join -> group-by: the \
                  row-materialising merge/join operators dominate; agg bypasses them",
            program: "DEFINE { query_name s0; } Select time, srcIP, destIP, len From eth0.tcp; \
                      DEFINE { query_name s1; } Select time, srcIP, destIP, len From eth1.tcp; \
                      DEFINE { query_name both; } Merge s0.time : s1.time From s0, s1; \
                      DEFINE { query_name permerge; } \
                      Select time, count(*), sum(len) From both Group By time; \
                      DEFINE { query_name pairs; } \
                      Select A.time, A.srcIP, A.destIP, A.len From s0 A, s1 B \
                      Where A.time = B.time and A.srcIP = B.srcIP and A.destIP = B.destIP; \
                      DEFINE { query_name perjoin; } \
                      Select time, count(*), sum(len) From pairs Group By time"
                .to_string(),
            ifaces: vec![("eth0", 0), ("eth1", 1)],
            subs: vec!["permerge", "perjoin"],
            subscribers: 1,
            // The same flow population on both links (same seed, set in
            // trace generation) with near-uniform popularity: each flow
            // sends ~1 packet per link per second, so the join emits
            // about one row per input row instead of a quadratic blow-up.
            mixes: vec![
                MixConfig {
                    iface: 0,
                    http_rate_mbps: 0.0,
                    background_rate_mbps: 5.0,
                    sizes: small_frames(),
                    flows: 6_000,
                    flow_skew: 0.0,
                    ..MixConfig::default()
                },
                MixConfig {
                    iface: 1,
                    http_rate_mbps: 0.0,
                    background_rate_mbps: 5.0,
                    sizes: small_frames(),
                    flows: 6_000,
                    flow_skew: 0.0,
                    ..MixConfig::default()
                },
            ],
            chunk_ms: 6_000,
            base_ms: 12_000,
            durable: false,
        },
        Workload {
            name: "queries_100",
            why: "100 per-port selections over a 20-port pool, 5 subscribed: shared-prefilter \
                  dispatch and the per-epoch rebuild of 100 LFTAs dominate; filter is the bypass",
            program: (0..100)
                .map(|i| {
                    format!(
                        "DEFINE {{ query_name q{i}; }} \
                         Select time, destPort From eth0.tcp Where destPort = {};\n",
                        PORTS[i % PORTS.len()]
                    )
                })
                .collect(),
            ifaces: vec![("eth0", 0)],
            // q0, q20 and q40 select port 80 (~2 % of packets each); q1
            // (443) and q2 (53) never match.
            subs: vec!["q0", "q1", "q2", "q20", "q40"],
            subscribers: 1,
            mixes: vec![MixConfig {
                http_rate_mbps: 0.6,
                background_rate_mbps: 29.4,
                sizes: small_frames(),
                ..MixConfig::default()
            }],
            chunk_ms: 250,
            base_ms: 4_000,
            durable: false,
        },
        Workload {
            name: "epoch_durable",
            why: "the agg program in 10 ms chunks with --state-dir: thread spawn + graph build + \
                  restore + capture + segment publish + marker log per epoch dominate",
            program: AGG_PROGRAM.to_string(),
            ifaces: vec![("eth0", 0)],
            subs: vec!["persrc"],
            subscribers: 1,
            mixes: vec![agg_mix()],
            chunk_ms: 10,
            base_ms: 1_000,
            durable: true,
        },
    ]
}
