//! Shared helpers for the `gsqd` protocol test battery.
//!
//! Every daemon test checks one oracle, the *continuous run*: a query's
//! total output over its life — each epoch's frames plus the shutdown
//! flush tail — equals one `run_threaded` over the concatenated packets
//! of the epochs it ran ([`continuous_reference`]), however the daemon
//! sliced them. Threaded runs interleave producers, so rows compare as
//! sorted multisets.

use gigascope::manager::{run_threaded, run_threaded_opts, ThreadedOptions};
use gigascope::server::client::Client;
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

/// A test client on `addr` with [`CLIENT_TIMEOUT`] set.
pub fn connect(addr: std::net::SocketAddr) -> Client {
    let mut c = Client::connect(addr).expect("connect");
    c.set_timeout(Some(CLIENT_TIMEOUT)).expect("timeout");
    c
}

/// A time-continuous source: `lead_in` empty chunks (the subscribe
/// margin), then 12 × 100 ms of synthetic traffic — 1.2 s of stream
/// time, so the first 1-second window closes mid-session and the rest
/// is flushed at shutdown. Returns the source and the concatenated
/// trace.
pub fn carry_source(lead_in: usize, seed: u64) -> (PacketSource, Vec<CapPacket>) {
    let PacketSource::Chunked(real) = PacketSource::chunked_synthetic(20.0, 100, 12, seed) else {
        unreachable!("chunked_synthetic returns Chunked");
    };
    let all: Vec<CapPacket> = real.iter().flatten().cloned().collect();
    let mut chunks = vec![Vec::new(); lead_in];
    chunks.extend(real);
    (PacketSource::Chunked(chunks), all)
}

/// A system configured the way [`test_config`] configures the daemon
/// (the `Gigascope::new` defaults, `eth0`), with `program` deployed.
pub fn reference_system(program: &str) -> Gigascope {
    let mut gs = Gigascope::new();
    gs.add_interface("eth0", 0, LinkType::Ethernet);
    gs.add_program(program).expect("reference program must deploy");
    gs
}

/// The continuous-run oracle: one flushing run of `program` over
/// `packets`, each subscription's rows.
pub fn continuous_reference(
    packets: &[CapPacket],
    subs: &[&str],
    program: &str,
) -> HashMap<String, Vec<Tuple>> {
    let gs = reference_system(program);
    run_threaded(&gs, packets.iter().cloned(), subs).expect("reference run").streams
}

/// What a subscriber connection has read: each stream's rows, and the
/// epochs its markers carried, in arrival order.
#[derive(Debug, Default)]
pub struct Frames {
    /// Frames tagged with an earlier epoch are skipped: on a connection
    /// that subscribed before, they belong to an earlier life of the
    /// stream, and every such epoch completed before this life's
    /// REGISTER.
    pub since: u64,
    pub rows: HashMap<String, Vec<Tuple>>,
    pub marks: HashMap<String, Vec<u64>>,
}

impl Frames {
    /// Nothing read yet; frames of epochs before `since` will be skipped.
    pub fn since(since: u64) -> Self {
        Frames { since, ..Frames::default() }
    }

    /// Read frames until every stream in `streams` has its marker for
    /// `last_epoch` — or, with `None`, until the daemon closes the
    /// connection. Asserts each stream's markers arrive gapless and
    /// each once: the daemon promises exactly one marker per (stream,
    /// epoch), in order, faults and backoffs notwithstanding — and a
    /// subscription endpoint duplicated on this connection would
    /// repeat them.
    pub fn read(&mut self, client: &mut Client, streams: &[&str], last_epoch: Option<u64>) {
        let done = |marks: &HashMap<String, Vec<u64>>| {
            let marked = |s: &str| marks.get(s).and_then(|m| m.last()).copied();
            last_epoch.is_some_and(|last| streams.iter().all(|s| marked(s) >= Some(last)))
        };
        while !done(&self.marks) {
            let frame = match client.next_tuples() {
                Ok(frame) => frame,
                Err(e) if last_epoch.is_some() => panic!("epoch read: {e}"),
                Err(_) => return,
            };
            if frame.epoch < self.since {
                continue;
            }
            if !frame.rows.is_empty() {
                self.rows.entry(frame.stream).or_default().extend(frame.rows);
                continue;
            }
            let m = self.marks.entry(frame.stream.clone()).or_default();
            assert!(
                m.last().is_none_or(|prev| frame.epoch == prev + 1),
                "stream `{}`: marker {} after {m:?}; markers must be gapless and each once",
                frame.stream,
                frame.epoch
            );
            m.push(frame.epoch);
        }
    }

    /// `stream`'s rows read so far.
    pub fn rows(&self, stream: &str) -> &[Tuple] {
        self.rows.get(stream).map_or(&[], Vec::as_slice)
    }
}

/// The whole-life check on the [`Frames`] read from a SUBSCRIBE made
/// before `stream`'s REGISTER through the shutdown drain: rows equal to
/// the continuous run over the epochs from its first marker up to its
/// last, the packet-less flush's.
pub fn assert_session_total(program: &str, source: &PacketSource, stream: &str, frames: &Frames) {
    let m = frames.marks.get(stream).unwrap_or_else(|| panic!("no `{stream}` markers at all"));
    let (first, flush) = (m[0], m[m.len() - 1]);
    let packets: Vec<CapPacket> =
        (first..flush).flat_map(|e| source.epoch_packets(e).into_owned()).collect();
    let reference = continuous_reference(&packets, &[stream], program);
    assert_eq!(
        norm(frames.rows(stream)),
        norm(&reference[stream]),
        "stream `{stream}`: the session total over epochs {first}..{flush} diverges from the \
         continuous run"
    );
}

/// A program whose state is one group per source: with
/// [`lagging_source`] the state held at a cut outweighs the traffic of
/// dozens of epochs, so the cut lags the emitted markers.
pub const LAGGING_PROGRAM: &str = "DEFINE { query_name raw; } \
     Select time, srcIP, len From eth0.tcp; \
     DEFINE { query_name agg; } \
     Select time, srcIP, count(*), sum(len) From raw Group By time, srcIP; \
     DEFINE { query_name sib; } \
     Select time, count(*), sum(len) From raw Group By time";

/// A chain whose middle is stateful: `perport` holds 1-second windows,
/// and `busy` keeps the counts they close with. Over [`carry_source`]
/// the first window closes in real chunk 10, the first of second 1
/// (epoch `lead_in + 10`): a replay of `busy` through that epoch needs
/// `perport`'s open groups as they stood, not empty ones.
pub const CHAIN_PROGRAM: &str = "DEFINE { query_name raw; } \
     Select time, destPort, len From eth0.tcp; \
     DEFINE { query_name perport; } \
     Select time, destPort, count(*) as cnt From raw Group By time, destPort; \
     DEFINE { query_name busy; } \
     Select time, destPort, cnt From perport";

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
/// epoch one-shot from the previous cut, each boundary one CUT record
/// (every query's cursor at `e + 1`, every query's marker), and no
/// flush, as a `kill -9` after the last boundary
/// would leave it. Returns each subscription's rows over those epochs.
pub fn write_cut_per_boundary_state_dir(
    dir: &std::path::Path,
    program: &str,
    source: &PacketSource,
    epochs: u64,
    subscriptions: &[&str],
) -> HashMap<String, Vec<Tuple>> {
    let gs = reference_system(program);
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
        let out = run_threaded_opts(
            &gs,
            source.epoch_packets(e).into_owned().into_iter(),
            subscriptions,
            opts,
        )
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

/// Rewrite a durable state directory in place as if a format-v1 build
/// had sealed it: every log record re-sealed with [`seal_as_v1`], its
/// payload unchanged.
pub fn downgrade_state_dir_to_v1(dir: &std::path::Path) {
    let path = dir.join(gs_runtime::durable::LOG_FILE);
    let bytes = std::fs::read(&path).expect("read the log");
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
