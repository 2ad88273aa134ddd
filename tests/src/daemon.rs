//! Shared helpers for the `gsqd` protocol test battery.
//!
//! The daemon's core invariant is *epoch equivalence*: the frames a
//! subscriber receives for epoch `k` must equal a one-shot
//! `run_threaded` over [`PacketSource::epoch_packets`]`(k)` with an
//! identically-configured system. These helpers build that one-shot
//! reference and normalize outputs for comparison (threaded runs
//! interleave producers, so cross-group emission order is not pinned —
//! rows compare as sorted multisets).

use gigascope::manager::run_threaded;
use gigascope::server::{DaemonConfig, PacketSource};
use gigascope::{Gigascope, Tuple};
use gs_packet::capture::LinkType;
use std::collections::HashMap;
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
