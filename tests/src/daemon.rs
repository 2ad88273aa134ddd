//! Shared helpers for the `gsqd` protocol test battery.
//!
//! The daemon's core invariant is *epoch equivalence*: the frames a
//! subscriber receives for epoch `k` must equal a one-shot
//! `run_threaded` over [`PacketSource::epoch_packets`]`(k)` with an
//! identically-configured system. These helpers build that one-shot
//! reference and normalize outputs for comparison (threaded runs
//! interleave producers, so cross-group emission order is not pinned —
//! rows compare as sorted multisets).

use gigascope::manager::{run_threaded, run_threaded_opts, ThreadedOptions};
use gigascope::server::{DaemonConfig, PacketSource};
use gigascope::{Gigascope, Tuple};
use gs_packet::builder::FrameBuilder;
use gs_packet::capture::{CapPacket, LinkType};
use gs_runtime::durable::{DurableStats, DurableStore, RealDisk};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

/// A low-rate synthetic source that keeps per-epoch runs fast: ~20 ms
/// of mixed traffic per epoch, seeded per test case.
pub fn small_source(seed: u64) -> PacketSource {
    PacketSource::Synthetic { mbps: 20.0, epoch_ms: 20, seed }
}

/// A daemon config for tests: loopback auto-port, no pacing, the given
/// source.
pub fn test_config(source: PacketSource) -> DaemonConfig {
    DaemonConfig { source, epoch_gap_ms: 0, ..DaemonConfig::default() }
}

/// The read timeout used by every test client: long enough for a busy
/// CI machine, short enough that a daemon bug can't hang the suite.
pub const CLIENT_TIMEOUT: Duration = Duration::from_secs(30);

/// One-shot reference: run `program` over epoch `epoch` of `source`
/// with the same engine knobs [`test_config`] uses (the
/// `Gigascope::new` defaults), returning each subscription's rows.
pub fn one_shot_epoch(
    program: &str,
    source: &PacketSource,
    epoch: u64,
    subscriptions: &[&str],
) -> HashMap<String, Vec<Tuple>> {
    let mut gs = Gigascope::new();
    gs.add_interface("eth0", 0, LinkType::Ethernet);
    gs.add_program(program).expect("reference program must deploy");
    let out = run_threaded(&gs, source.epoch_packets(epoch).into_iter(), subscriptions)
        .expect("reference run must succeed");
    out.streams
}

/// A carry-mode program whose state is one group per source: with
/// [`lagging_source`] the state held at a cut outweighs the traffic of
/// dozens of epochs, so the cut lags the emitted markers.
pub const LAGGING_PROGRAM: &str = "DEFINE { query_name raw; } \
     Select time, srcIP, len From eth0.tcp; \
     DEFINE { query_name agg; } \
     Select time, srcIP, count(*), sum(len) From raw Group By time, srcIP; \
     DEFINE { query_name sib; } \
     Select time, count(*), sum(len) From raw Group By time";

/// A time-continuous source for [`LAGGING_PROGRAM`]: `lead_in` empty
/// chunks (subscribe margin; with nothing held, each is a cut), then one
/// chunk of 300 distinct sources in the first 300 ms — the first real
/// boundary is a cut holding ~300 groups — then 30 chunks of 3 packets
/// each, 40 ms apart, crossing into second 1 partway (so windows close
/// mid-session and the rest flushes at shutdown). At 4 packets + epochs
/// per boundary against ~300 held items, no further boundary of the
/// trace is a cut. Returns the source and the concatenated trace.
pub fn lagging_source(lead_in: usize) -> (PacketSource, Vec<CapPacket>) {
    let pkt = |i: u32, ts_ms: u64| {
        let f = FrameBuilder::tcp(0x0a00_0000 + i, 0xc0a8_0001, 1024, 80)
            .payload(&[0u8; 16][..(i as usize % 16)])
            .build_ethernet();
        CapPacket::full(ts_ms * 1_000_000, 0, LinkType::Ethernet, f)
    };
    let mut chunks = vec![Vec::new(); lead_in];
    chunks.push((0..300).map(|i| pkt(i, u64::from(i))).collect());
    for c in 0..30u32 {
        let ts_ms = |j: u32| 300 + u64::from(c * 40 + j * 10);
        chunks.push((0..3).map(|j| pkt(300 + c * 3 + j, ts_ms(j))).collect());
    }
    let all = chunks.iter().flatten().cloned().collect();
    (PacketSource::Chunked(chunks), all)
}

/// Leave `dir` as a daemon that sealed and published a cut at *every*
/// epoch boundary left it — every build before the cut cadence did —
/// after running `program` over epochs `0..epochs` of `source`: each
/// epoch one-shot from the previous cut, each boundary's segment (every
/// query's cursor at `e + 1`, every query pending) published before its
/// markers record, and no flush, as a `kill -9` after the last boundary
/// would leave it. Returns each subscription's rows over those epochs.
pub fn write_cut_per_boundary_state_dir(
    dir: &std::path::Path,
    program: &str,
    source: &PacketSource,
    epochs: u64,
    subscriptions: &[&str],
) -> HashMap<String, Vec<Tuple>> {
    let mut gs = Gigascope::new();
    gs.add_interface("eth0", 0, LinkType::Ethernet);
    gs.add_program(program).expect("program must deploy");
    let queries: Vec<String> = gs.queries().iter().map(|d| d.name.clone()).collect();
    let (mut store, _) =
        DurableStore::open(dir, Arc::new(RealDisk), 3, Arc::new(DurableStats::default()))
            .expect("state dir opens");
    let mut carry: HashMap<String, Vec<u8>> = HashMap::new();
    let mut rows: HashMap<String, Vec<Tuple>> = HashMap::new();
    for e in 0..epochs {
        let opts = ThreadedOptions {
            capture: true,
            restore: (!carry.is_empty()).then(|| Arc::new(carry.clone())),
            ..ThreadedOptions::default()
        };
        let out = run_threaded_opts(&gs, source.epoch_packets(e).into_iter(), subscriptions, opts)
            .expect("epoch run");
        carry = out.snapshots;
        let cursors: HashMap<String, u64> = queries.iter().map(|q| (q.clone(), e + 1)).collect();
        store.checkpoint(e + 1, &carry, &cursors, &queries).expect("checkpoint");
        store.log_markers(e, &queries).expect("markers");
        for (s, r) in out.streams {
            rows.entry(s).or_default().extend(r);
        }
    }
    rows
}

/// Order-insensitive normal form of a row set.
pub fn norm(rows: &[Tuple]) -> Vec<String> {
    let mut v: Vec<String> = rows.iter().map(|t| t.to_string()).collect();
    v.sort();
    v
}

/// Re-seal a current snapshot envelope the way a format-v1 build wrote
/// it: same magic and payload, version byte 1, byte-wise FNV-1a trailer.
pub fn seal_as_v1(sealed: &[u8]) -> Vec<u8> {
    let mut v1 = sealed[..sealed.len() - 8].to_vec();
    v1[4] = 1;
    let fnv = v1.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    });
    v1.extend_from_slice(&fnv.to_be_bytes());
    v1
}

/// Rewrite a durable state directory in place as a format-v1 build would
/// have left it: every segment file and every emission-log record
/// re-sealed with [`seal_as_v1`]. Payload layouts did not change between
/// the versions, so this is byte-for-byte what the old build wrote.
pub fn downgrade_state_dir_to_v1(dir: &std::path::Path) {
    use gs_runtime::durable::{LOG_FILE, SEG_SUFFIX};
    for entry in std::fs::read_dir(dir).expect("state dir") {
        let path = entry.expect("entry").path();
        let name = path.file_name().expect("name").to_string_lossy().into_owned();
        let bytes = std::fs::read(&path).expect("read state file");
        if name.ends_with(SEG_SUFFIX) {
            std::fs::write(&path, seal_as_v1(&bytes)).expect("rewrite segment");
        } else if name == LOG_FILE {
            let mut out = Vec::with_capacity(bytes.len());
            let mut at = 0;
            while at < bytes.len() {
                let len = u32::from_be_bytes(bytes[at..at + 4].try_into().expect("len")) as usize;
                out.extend_from_slice(&bytes[at..at + 4]);
                out.extend_from_slice(&seal_as_v1(&bytes[at + 4..at + 4 + len]));
                at += 4 + len;
            }
            std::fs::write(&path, out).expect("rewrite log");
        }
    }
}
