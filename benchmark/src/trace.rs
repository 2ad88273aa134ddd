//! Trace generation: a `gs_netgen` base trace built from `--seed`,
//! sliced into epoch chunks and repeated with `ts_ns` shifted forward.
//!
//! Repetitions clone the `CapPacket` records but share the payload
//! `Bytes`, so a trace of millions of packets costs ~56 bytes each, and
//! virtual time stays monotone across every chunk boundary — which
//! carried operator state (`DaemonConfig::carry_state`) requires.

use crate::workloads::Workload;
use gs_netgen::{merge_sources, MixConfig, PacketMix};
use gs_packet::CapPacket;

/// The generated base trace, already sliced into chunks.
pub struct BaseTrace {
    /// `base_ms / chunk_ms` chunks; chunk `k` covers virtual time
    /// `[k * chunk_ms, (k + 1) * chunk_ms)`.
    pub chunks: Vec<Vec<CapPacket>>,
    /// Virtual duration of the base trace, nanoseconds.
    pub span_ns: u64,
    /// Packets in the base trace.
    pub packets: u64,
    /// FNV-1a over every packet's `(ts_ns, iface, wire_len, data)`.
    pub hash: u64,
}

/// Incremental 64-bit FNV-1a.
pub struct Fnv(pub u64);

impl Fnv {
    pub fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }
}

/// Generate the workload's base trace from `seed`. The daemon only ever
/// sees the packets, never the seed.
pub fn generate_base(w: &Workload, seed: u64) -> BaseTrace {
    // Every interface draws from the same seed: the two links of
    // `merge_join` then carry the same flow population, which is what
    // gives its address-pair join something to match.
    let sources: Vec<PacketMix> = w
        .mixes
        .iter()
        .map(|m| {
            PacketMix::new(MixConfig {
                seed,
                duration_ms: w.base_ms,
                ..m.clone()
            })
        })
        .collect();
    let n_chunks = (w.base_ms / w.chunk_ms) as usize;
    let chunk_ns = w.chunk_ms * 1_000_000;
    let mut chunks: Vec<Vec<CapPacket>> = vec![Vec::new(); n_chunks];
    let mut hash = Fnv::new();
    let mut packets = 0u64;
    for p in merge_sources(sources) {
        hash.write_u64(p.ts_ns);
        hash.write_u64(u64::from(p.iface) << 32 | u64::from(p.wire_len));
        hash.write(&p.data);
        packets += 1;
        let k = ((p.ts_ns / chunk_ns) as usize).min(n_chunks - 1);
        chunks[k].push(p);
    }
    BaseTrace {
        chunks,
        span_ns: w.base_ms * 1_000_000,
        packets,
        hash: hash.0,
    }
}

impl BaseTrace {
    /// Traffic chunk `k` of the repeated trace: base chunk `k mod n`,
    /// shifted forward by one base span per completed repetition.
    pub fn chunk(&self, k: usize) -> impl Iterator<Item = CapPacket> + '_ {
        let n = self.chunks.len();
        let shift = (k / n) as u64 * self.span_ns;
        self.chunks[k % n].iter().map(move |p| CapPacket {
            ts_ns: p.ts_ns + shift,
            ..p.clone()
        })
    }

    /// The packets of traffic chunks `range`, in order.
    pub fn traffic(&self, range: std::ops::Range<usize>) -> impl Iterator<Item = CapPacket> + '_ {
        range.flat_map(move |k| self.chunk(k))
    }

    /// Packets in traffic chunks `0..n_chunks`.
    pub fn packets_in(&self, n_chunks: usize) -> u64 {
        let n = self.chunks.len();
        let partial: usize = self.chunks[..n_chunks % n].iter().map(Vec::len).sum();
        (n_chunks / n) as u64 * self.packets + partial as u64
    }

    pub fn packets_per_chunk(&self) -> f64 {
        self.packets as f64 / self.chunks.len() as f64
    }

    /// `lead_in` empty chunks (so SUBSCRIBE lands before traffic) followed
    /// by traffic chunks `0..traffic_chunks`: what the daemon is given.
    pub fn source(&self, lead_in: usize, traffic_chunks: usize) -> Vec<Vec<CapPacket>> {
        let mut out: Vec<Vec<CapPacket>> = Vec::with_capacity(lead_in + traffic_chunks);
        out.resize_with(lead_in, Vec::new);
        out.extend((0..traffic_chunks).map(|k| self.chunk(k).collect()));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads;

    fn small(name: &str) -> Workload {
        let mut w = workloads::all()
            .into_iter()
            .find(|w| w.name == name)
            .unwrap();
        // Two chunks, rounded up to whole seconds: quick to generate.
        w.base_ms = (2 * w.chunk_ms).div_ceil(1_000) * 1_000;
        w
    }

    #[test]
    fn same_seed_same_hash_different_seed_different_hash() {
        let w = small("filter");
        let a = generate_base(&w, 7);
        let b = generate_base(&w, 7);
        let c = generate_base(&w, 8);
        assert_eq!(a.hash, b.hash);
        assert_eq!(a.packets, b.packets);
        assert_ne!(a.hash, c.hash);
    }

    #[test]
    fn repetition_keeps_time_monotone_across_chunk_boundaries() {
        for name in ["filter", "merge_join", "epoch_durable"] {
            let w = small(name);
            let base = generate_base(&w, 3);
            let n = base.chunks.len();
            let chunks = base.source(4, 3 * n + 1);
            assert!(chunks[..4].iter().all(Vec::is_empty), "lead-in is empty");
            assert_eq!(chunks.len(), 4 + 3 * n + 1);
            let ts: Vec<u64> = chunks.iter().flatten().map(|p| p.ts_ns).collect();
            assert_eq!(
                ts.len() as u64,
                3 * base.packets + base.chunks[0].len() as u64
            );
            assert!(
                ts.windows(2).all(|w| w[0] <= w[1]),
                "{name}: ts_ns went backwards"
            );
            // Chunk k holds only its own slice of virtual time.
            let chunk_ns = w.chunk_ms * 1_000_000;
            for (k, c) in chunks[4..].iter().enumerate() {
                let lo = k as u64 * chunk_ns;
                assert!(c.iter().all(|p| p.ts_ns >= lo && p.ts_ns < lo + chunk_ns));
            }
        }
    }

    #[test]
    fn repetitions_share_payload_bytes() {
        let w = small("agg");
        let base = generate_base(&w, 1);
        let chunks = base.source(0, 2 * base.chunks.len());
        let first = &chunks[0][0];
        let again = &chunks[base.chunks.len()][0];
        assert_eq!(first.data.as_ptr(), again.data.as_ptr());
        assert_eq!(again.ts_ns, first.ts_ns + base.span_ns);
    }
}
