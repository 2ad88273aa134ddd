//! The LFTA executor: the low-level query node that runs inside the run
//! time system at the capture point (paper §3).
//!
//! An LFTA is "a lightweight query which performs preliminary filtering,
//! projection, and aggregation" directly over raw packets, evaluated
//! "without additional data transfers". This executor:
//!
//! 1. optionally applies the compiled BPF prefilter (what the NIC would
//!    run when offload is available) and the snap length;
//! 2. interprets the packet through the Protocol's field accessors;
//! 3. evaluates the cheap selection predicate;
//! 4. either projects output tuples or folds into the direct-mapped
//!    pre-aggregation table;
//! 5. on heartbeat, emits punctuation (and flushes closed aggregation
//!    groups) from the capture clock, the paper's ordering-update tokens.

use crate::expr::{EvalScratch, PacketFields, Program};
use crate::ops::agg::{DirectMappedAggregator, DmStats};
use crate::punct::Punct;
use crate::snapshot::{proto, SnapError, SnapReader, SnapWriter};
use crate::stats::{Counter, StatSource};
use crate::tuple::{StreamItem, Tuple};
use crate::value::Value;
use gs_gsql::pushdown::Atom;
use gs_nic::bpf::BpfProgram;
use gs_packet::interp::ProtocolDef;
use gs_packet::{CapPacket, PacketView};
use std::sync::Arc;

/// What the LFTA does after filtering.
pub enum LftaKind {
    /// Project output tuples (selection/projection LFTA).
    Project(Vec<Program>),
    /// Pre-aggregate into the direct-mapped table.
    Aggregate(Box<DirectMappedAggregator>),
}

/// Execution counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LftaStats {
    /// Packets offered to the LFTA.
    pub packets_in: u64,
    /// Packets rejected by the BPF prefilter.
    pub prefiltered: u64,
    /// Packets dropped by analyst-requested sampling.
    pub sampled_out: u64,
    /// Packets rejected by the protocol prefilter or field interpretation.
    pub not_protocol: u64,
    /// Packets rejected by the selection predicate.
    pub filtered: u64,
    /// Output tuples emitted.
    pub tuples_out: u64,
}

/// Shared (atomic) mirror of [`LftaStats`] plus the pre-aggregation
/// table's eviction count, registered in the stats registry as
/// `lfta:<stream>`. The capture thread owns the plain counters and
/// publishes here via [`Lfta::publish_stats`] — on heartbeat rounds and
/// at end of capture — so readers cost the hot path nothing.
#[derive(Debug, Default)]
pub struct LftaCounters {
    /// Packets offered.
    pub packets_in: Counter,
    /// Packets rejected by the BPF prefilter.
    pub prefiltered: Counter,
    /// Packets dropped by analyst-requested sampling.
    pub sampled_out: Counter,
    /// Malformed / wrong-protocol packets.
    pub not_protocol: Counter,
    /// Packets rejected by the selection predicate.
    pub filtered: Counter,
    /// Output tuples emitted.
    pub tuples_out: Counter,
    /// Direct-mapped table collision evictions (aggregating LFTAs).
    pub dm_evictions: Counter,
}

impl StatSource for LftaCounters {
    fn counters(&self) -> Vec<(&'static str, u64)> {
        vec![
            ("packets_in", self.packets_in.get()),
            ("prefiltered", self.prefiltered.get()),
            ("sampled_out", self.sampled_out.get()),
            ("not_protocol", self.not_protocol.get()),
            ("filtered", self.filtered.get()),
            ("tuples_out", self.tuples_out.get()),
            ("dm_evictions", self.dm_evictions.get()),
        ]
    }
}

/// The split of an LFTA's selection predicate for cross-query sharing:
/// the shareable atoms (evaluated centrally, once per packet across all
/// queries) and the private residual (evaluated by this LFTA after
/// dispatch).
pub struct SharedSplit {
    /// Shareable atomic conjuncts, keyed for cross-query deduplication,
    /// each with the program it compiled to when the LFTA was built (the
    /// shared pass keeps the first LFTA's program per key).
    pub atoms: Vec<(Atom, Arc<Program>)>,
    /// AND-fold of the non-shareable conjuncts; `None` when every
    /// conjunct atomized.
    pub residual: Option<Program>,
}

/// A compiled, instantiated LFTA.
pub struct Lfta {
    /// Registered output stream name.
    pub name: String,
    protocol: &'static ProtocolDef,
    /// Compiled BPF prefilter, shared (`Arc`) so queries with identical
    /// programs reference one compilation.
    prefilter: Option<Arc<BpfProgram>>,
    snaplen: Option<usize>,
    filter: Option<Program>,
    /// Predicate split for the shared prefilter; `None` when the build
    /// did not compute one (the full `filter` is then evaluated after
    /// shared dispatch, which is always correct).
    shared_split: Option<SharedSplit>,
    kind: LftaKind,
    /// Punctuation source: `(output column, scan field, divisor)` — the
    /// ordered output column equals `field / divisor` of the packet.
    punct_src: Option<(usize, usize, u64)>,
    /// Sampling threshold: keep the packet when its hash is below this
    /// (u64::MAX = keep everything).
    sample_threshold: u64,
    sample_seed: u64,
    scratch: EvalScratch,
    /// Execution counters.
    pub stats: LftaStats,
    shared: Arc<LftaCounters>,
}

impl Lfta {
    /// Assemble an LFTA from compiled parts.
    pub fn new(
        name: String,
        protocol: &'static ProtocolDef,
        prefilter: Option<Arc<BpfProgram>>,
        snaplen: Option<usize>,
        filter: Option<Program>,
        kind: LftaKind,
        punct_src: Option<(usize, usize, u64)>,
    ) -> Lfta {
        let sample_seed = name.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
        });
        Lfta {
            name,
            protocol,
            prefilter,
            snaplen,
            filter,
            shared_split: None,
            kind,
            punct_src,
            sample_threshold: u64::MAX,
            sample_seed,
            scratch: EvalScratch::default(),
            stats: LftaStats::default(),
            shared: Arc::new(LftaCounters::default()),
        }
    }

    /// The shared counter block for stats registration.
    pub fn stats_handle(&self) -> Arc<LftaCounters> {
        self.shared.clone()
    }

    /// Publish the plain hot-path counters into the shared block. The
    /// engines call this on heartbeat rounds and at end of capture, so
    /// registry snapshots are at most one heartbeat stale.
    pub fn publish_stats(&self) {
        self.shared.packets_in.set(self.stats.packets_in);
        self.shared.prefiltered.set(self.stats.prefiltered);
        self.shared.sampled_out.set(self.stats.sampled_out);
        self.shared.not_protocol.set(self.stats.not_protocol);
        self.shared.filtered.set(self.stats.filtered);
        self.shared.tuples_out.set(self.stats.tuples_out);
        if let Some(dm) = self.dm_stats() {
            self.shared.dm_evictions.set(dm.evictions);
        }
    }

    /// Enable analyst-requested sampling at probability `p` in (0, 1).
    /// The decision is a deterministic hash of the packet timestamp and
    /// this LFTA's name, so runs are reproducible and different queries
    /// sample independently.
    pub fn set_sample(&mut self, p: f64) {
        let p = p.clamp(0.0, 1.0);
        self.sample_threshold = if p >= 1.0 { u64::MAX } else { (p * u64::MAX as f64) as u64 };
    }

    /// Whether analyst-requested sampling is active. Sampled LFTAs need
    /// the per-packet admission hash; unsampled ones can have their
    /// admission counted in bulk by the shared dispatcher.
    #[inline]
    pub fn sampling_enabled(&self) -> bool {
        self.sample_threshold != u64::MAX
    }

    #[inline]
    fn sampled_in(&self, cap: &CapPacket) -> bool {
        if self.sample_threshold == u64::MAX {
            return true;
        }
        let mut h = self.sample_seed ^ cap.ts_ns ^ (u64::from(cap.iface) << 48);
        h ^= h >> 33;
        h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
        h ^= h >> 33;
        h < self.sample_threshold
    }

    /// Process one captured packet, appending output items.
    pub fn push_packet(&mut self, cap: &CapPacket, out: &mut Vec<StreamItem>) {
        if !self.admit(cap) {
            return;
        }
        if let Some(f) = &self.prefilter {
            if !f.accepts(&cap.data) {
                self.stats.prefiltered += 1;
                return;
            }
        }
        self.push_accepted(cap, out);
    }

    /// Shared-dispatch entry: account a packet offered to this LFTA and
    /// run the sampling decision. Returns `false` when the packet is
    /// sampled out (already counted).
    #[inline]
    pub fn admit(&mut self, cap: &CapPacket) -> bool {
        self.stats.packets_in += 1;
        if !self.sampled_in(cap) {
            self.stats.sampled_out += 1;
            return false;
        }
        true
    }

    /// Run the private stages after admission and prefiltering: snap,
    /// parse, protocol match, full predicate, then the projection or
    /// pre-aggregation tail. The shared dispatcher falls back to this
    /// when its full-packet parse cannot stand in for this LFTA's
    /// snapped parse.
    pub fn push_accepted(&mut self, cap: &CapPacket, out: &mut Vec<StreamItem>) {
        let snapped;
        let cap = match self.snaplen {
            Some(s) if cap.data.len() > s => {
                snapped = cap.snap(s);
                &snapped
            }
            _ => cap,
        };
        let view = PacketView::parse(cap.clone());
        if !(self.protocol.matches)(&view) {
            self.stats.not_protocol += 1;
            return;
        }
        let fields = PacketFields::new(&view, self.protocol.fields);
        if let Some(f) = &self.filter {
            if !f.eval_bool(&fields, &mut self.scratch) {
                self.stats.filtered += 1;
                return;
            }
        }
        self.run_tail(&fields, out);
    }

    /// Shared-dispatch tail: sampling, prefilter, protocol match and the
    /// shared atoms have already been applied and accounted centrally;
    /// evaluate the private residual predicate over the shared parse and
    /// run the projection/aggregation stage.
    pub fn push_matched(&mut self, view: &PacketView, out: &mut Vec<StreamItem>) {
        let fields = PacketFields::new(view, self.protocol.fields);
        let residual = match &self.shared_split {
            Some(split) => split.residual.as_ref(),
            // No split computed: no atoms were shared for this LFTA, so
            // the full predicate is the residual.
            None => self.filter.as_ref(),
        };
        if let Some(f) = residual {
            if !f.eval_bool(&fields, &mut self.scratch) {
                self.stats.filtered += 1;
                return;
            }
        }
        self.run_tail(&fields, out);
    }

    fn run_tail(&mut self, fields: &PacketFields<'_>, out: &mut Vec<StreamItem>) {
        let before = out.len();
        match &mut self.kind {
            LftaKind::Project(progs) => {
                let mut vals = Vec::with_capacity(progs.len());
                for p in progs.iter() {
                    match p.eval(fields, &mut self.scratch) {
                        Some(v) => vals.push(v),
                        None => {
                            self.stats.not_protocol += 1;
                            return;
                        }
                    }
                }
                out.push(StreamItem::Tuple(Tuple::new(vals)));
            }
            LftaKind::Aggregate(dm) => dm.update(fields, out),
        }
        self.stats.tuples_out += (out.len() - before) as u64;
    }

    /// Heartbeat: the capture clock has reached `field_value` (in the
    /// punctuation source field's units, normally the 1-second `time`
    /// attribute). Emits an ordering-update token and flushes closed
    /// pre-aggregation groups.
    pub fn heartbeat(&mut self, field_value: u64, out: &mut Vec<StreamItem>) {
        let Some((out_col, _, div)) = self.punct_src else { return };
        let bound = field_value / div.max(1);
        if let LftaKind::Aggregate(dm) = &mut self.kind {
            let before = out.len();
            dm.flush_below(bound, out);
            self.stats.tuples_out += (out.len() - before) as u64;
        }
        out.push(StreamItem::Punct(Punct::new(out_col, Value::UInt(bound))));
    }

    /// End of capture: flush aggregation state.
    pub fn finish(&mut self, out: &mut Vec<StreamItem>) {
        if let LftaKind::Aggregate(dm) = &mut self.kind {
            let before = out.len();
            dm.finish(out);
            self.stats.tuples_out += (out.len() - before) as u64;
        }
    }

    /// Pre-aggregation table statistics, when this LFTA aggregates.
    pub fn dm_stats(&self) -> Option<DmStats> {
        match &self.kind {
            LftaKind::Aggregate(dm) => Some(dm.stats),
            LftaKind::Project(_) => None,
        }
    }

    /// The protocol this LFTA interprets.
    pub fn protocol_name(&self) -> &'static str {
        self.protocol.name
    }

    /// The protocol definition this LFTA interprets.
    pub fn protocol_def(&self) -> &'static ProtocolDef {
        self.protocol
    }

    /// The compiled BPF prefilter, when one exists.
    pub fn prefilter_program(&self) -> Option<&Arc<BpfProgram>> {
        self.prefilter.as_ref()
    }

    /// Re-point the prefilter at a canonical shared handle — `intern`
    /// maps a program to its deduplicated `Arc` (see
    /// `ops::prefilter::PrefilterCache`), so queries with structurally
    /// equal programs share one compilation.
    pub fn intern_prefilter(&mut self, intern: &mut dyn FnMut(Arc<BpfProgram>) -> Arc<BpfProgram>) {
        if let Some(p) = self.prefilter.take() {
            self.prefilter = Some(intern(p));
        }
    }

    /// The NIC snap length, when the query allows truncation.
    pub fn snaplen(&self) -> Option<usize> {
        self.snaplen
    }

    /// The predicate split computed for the shared prefilter, if any.
    pub fn shared_split(&self) -> Option<&SharedSplit> {
        self.shared_split.as_ref()
    }

    /// Install the predicate split for shared dispatch (build time only).
    pub fn set_shared_split(&mut self, split: SharedSplit) {
        self.shared_split = Some(split);
    }

    /// Serialize the LFTA's mutable state: the direct-mapped table (for
    /// aggregating LFTAs) and the execution counters. Projection LFTAs
    /// are stateless beyond counters, recorded with a kind tag so a
    /// mismatched restore is rejected.
    pub fn snapshot_state(&self, w: &mut SnapWriter) {
        match &self.kind {
            LftaKind::Project(_) => w.put_u8(0),
            LftaKind::Aggregate(dm) => {
                w.put_u8(1);
                dm.snapshot_into(w);
            }
        }
        w.put_u64(self.stats.packets_in);
        w.put_u64(self.stats.prefiltered);
        w.put_u64(self.stats.sampled_out);
        w.put_u64(self.stats.not_protocol);
        w.put_u64(self.stats.filtered);
        w.put_u64(self.stats.tuples_out);
    }

    /// State items held right now: the occupied slots of an aggregating
    /// LFTA's direct-mapped table (0 for a projection).
    pub fn held(&self) -> usize {
        match &self.kind {
            LftaKind::Project(_) => 0,
            LftaKind::Aggregate(dm) => dm.occupancy(),
        }
    }

    /// Restore state written by [`snapshot_state`](Self::snapshot_state)
    /// into a freshly built LFTA of the same shape.
    pub fn restore_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        let tag = r.get_u8()?;
        match (&mut self.kind, tag) {
            (LftaKind::Project(_), 0) => {}
            (LftaKind::Aggregate(dm), 1) => dm.restore_from(r)?,
            (_, t) => return Err(proto(format!("lfta kind tag {t} does not match build"))),
        }
        self.stats.packets_in = r.get_u64()?;
        self.stats.prefiltered = r.get_u64()?;
        self.stats.sampled_out = r.get_u64()?;
        self.stats.not_protocol = r.get_u64()?;
        self.stats.filtered = r.get_u64()?;
        self.stats.tuples_out = r.get_u64()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::agg::AggCore;
    use crate::params::ParamBindings;
    use crate::udf::{FileStore, UdfRegistry};
    use gs_gsql::ast::{AggFunc, BinOp};
    use gs_gsql::plan::{Literal, PExpr};
    use gs_gsql::types::DataType;
    use gs_packet::builder::FrameBuilder;
    use gs_packet::capture::LinkType;

    fn prog(pe: &PExpr) -> Program {
        Program::compile(pe, &ParamBindings::new(), &UdfRegistry::with_builtins(), &FileStore::new())
            .unwrap()
    }

    fn tcp() -> &'static ProtocolDef {
        gs_packet::interp::protocol("tcp").unwrap()
    }

    fn field(name: &str) -> PExpr {
        PExpr::Col { index: tcp().field_index(name).unwrap(), ty: DataType::UInt }
    }

    fn pkt(ts_sec: u64, dport: u16, payload: &[u8]) -> CapPacket {
        let f = FrameBuilder::tcp(0x0a000001, 0x0a000002, 999, dport).payload(payload).build_ethernet();
        CapPacket::full(ts_sec * 1_000_000_000, 0, LinkType::Ethernet, f)
    }

    fn port80_filter() -> Program {
        prog(&PExpr::Binary {
            op: BinOp::Eq,
            left: Box::new(field("destPort")),
            right: Box::new(PExpr::Lit(Literal::UInt(80))),
            ty: DataType::Bool,
        })
    }

    /// A built LFTA can move to another thread: its shared atom programs
    /// sit behind an `Arc`, so they (and every UDF) must be `Sync`.
    #[test]
    fn lfta_is_send() {
        fn send<T: Send>() {}
        send::<Lfta>();
    }

    #[test]
    fn projection_lfta_filters_and_projects() {
        let mut lfta = Lfta::new(
            "t".into(),
            tcp(),
            None,
            None,
            Some(port80_filter()),
            LftaKind::Project(vec![prog(&field("time")), prog(&field("destPort"))]),
            Some((0, tcp().field_index("time").unwrap(), 1)),
        );
        let mut out = Vec::new();
        lfta.push_packet(&pkt(3, 80, b"x"), &mut out);
        lfta.push_packet(&pkt(4, 81, b"x"), &mut out);
        let udp = FrameBuilder::udp(1, 2, 9, 80).build_ethernet();
        lfta.push_packet(&CapPacket::full(0, 0, LinkType::Ethernet, udp), &mut out);
        assert_eq!(out.len(), 1);
        let t = out[0].as_tuple().unwrap();
        assert_eq!(t.get(0), &Value::UInt(3));
        assert_eq!(t.get(1), &Value::UInt(80));
        assert_eq!(lfta.stats.packets_in, 3);
        assert_eq!(lfta.stats.filtered, 1);
        assert_eq!(lfta.stats.not_protocol, 1);
        assert_eq!(lfta.stats.tuples_out, 1);
    }

    #[test]
    fn bpf_prefilter_short_circuits() {
        let mut lfta = Lfta::new(
            "t".into(),
            tcp(),
            Some(Arc::new(gs_nic::bpf::tcp_dst_port_filter(80))),
            None,
            None,
            LftaKind::Project(vec![prog(&field("destPort"))]),
            None,
        );
        let mut out = Vec::new();
        lfta.push_packet(&pkt(0, 80, b"x"), &mut out);
        lfta.push_packet(&pkt(0, 443, b"x"), &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(lfta.stats.prefiltered, 1);
    }

    #[test]
    fn snaplen_truncates_payload_but_keeps_headers() {
        let mut lfta = Lfta::new(
            "t".into(),
            tcp(),
            None,
            Some(60),
            None,
            LftaKind::Project(vec![prog(&PExpr::Call {
                udf: "str_len".into(),
                args: vec![PExpr::Col {
                    index: tcp().field_index("payload").unwrap(),
                    ty: DataType::Str,
                }],
                ret: DataType::UInt,
                partial: false,
            })]),
            None,
        );
        let mut out = Vec::new();
        lfta.push_packet(&pkt(0, 80, &[7u8; 500]), &mut out);
        // 60 bytes capture - 54 header = 6 payload bytes visible.
        assert_eq!(out[0].as_tuple().unwrap().get(0), &Value::UInt(6));
    }

    #[test]
    fn aggregation_lfta_preaggregates_and_heartbeats() {
        // Group by time (ordered), count(*).
        let core = AggCore::new(
            vec![prog(&field("time"))],
            vec![(AggFunc::Count, None, DataType::UInt)],
            Some(0),
            0,
        );
        let mut lfta = Lfta::new(
            "agg".into(),
            tcp(),
            None,
            None,
            Some(port80_filter()),
            LftaKind::Aggregate(Box::new(DirectMappedAggregator::new(core, 64))),
            Some((0, tcp().field_index("time").unwrap(), 1)),
        );
        let mut out = Vec::new();
        lfta.push_packet(&pkt(1, 80, b"a"), &mut out);
        lfta.push_packet(&pkt(1, 80, b"b"), &mut out);
        assert!(out.is_empty(), "group 1 still open");
        lfta.push_packet(&pkt(2, 80, b"c"), &mut out);
        assert_eq!(out.len(), 1, "time advance flushes the closed second");
        let t = out[0].as_tuple().unwrap();
        assert_eq!(t.values(), &[Value::UInt(1), Value::UInt(2)]);

        // Heartbeat at time 5 flushes the open group and punctuates.
        out.clear();
        lfta.heartbeat(5, &mut out);
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].as_tuple().unwrap().values(), &[Value::UInt(2), Value::UInt(1)]);
        assert!(matches!(&out[1], StreamItem::Punct(p) if p.bound(0) == Some(5)));
        assert!(lfta.dm_stats().unwrap().outputs >= 2);
    }

    #[test]
    fn heartbeat_translates_bucket_divisor() {
        let mut lfta = Lfta::new(
            "t".into(),
            tcp(),
            None,
            None,
            None,
            LftaKind::Project(vec![prog(&PExpr::Binary {
                op: BinOp::Div,
                left: Box::new(field("time")),
                right: Box::new(PExpr::Lit(Literal::UInt(60))),
                ty: DataType::UInt,
            })]),
            Some((0, tcp().field_index("time").unwrap(), 60)),
        );
        let mut out = Vec::new();
        lfta.heartbeat(180, &mut out);
        assert!(matches!(&out[0], StreamItem::Punct(p) if p.bound(0) == Some(3)));
    }

    #[test]
    fn snapshot_restore_continues_exactly() {
        // Cut an aggregating LFTA mid-window; the restored one must
        // continue the open groups (same emissions, same counters) as if
        // capture never stopped.
        let mk = || {
            let core = AggCore::new(
                vec![prog(&field("time"))],
                vec![(AggFunc::Count, None, DataType::UInt)],
                Some(0),
                0,
            );
            Lfta::new(
                "agg".into(),
                tcp(),
                None,
                None,
                Some(port80_filter()),
                LftaKind::Aggregate(Box::new(DirectMappedAggregator::new(core, 64))),
                Some((0, tcp().field_index("time").unwrap(), 1)),
            )
        };
        let packets: Vec<CapPacket> =
            (0..20).map(|i| pkt(i / 4, if i % 3 == 0 { 80 } else { 81 }, b"x")).collect();
        let (head, tail) = packets.split_at(9); // cut inside time bucket 2

        let mut cont = mk();
        let mut cont_out = Vec::new();
        for p in &packets {
            cont.push_packet(p, &mut cont_out);
        }
        cont.finish(&mut cont_out);

        let mut first = mk();
        let mut split_out = Vec::new();
        for p in head {
            first.push_packet(p, &mut split_out);
        }
        let mut w = crate::snapshot::SnapWriter::new();
        first.snapshot_state(&mut w);
        let sealed = w.seal();

        let mut second = mk();
        let mut r = crate::snapshot::SnapReader::open(&sealed).expect("open");
        second.restore_state(&mut r).expect("restore");
        r.finish().expect("payload fully consumed");
        for p in tail {
            second.push_packet(p, &mut split_out);
        }
        second.finish(&mut split_out);

        assert_eq!(cont_out, split_out);
        assert_eq!(second.stats, cont.stats);
        assert_eq!(second.dm_stats(), cont.dm_stats());

        // A projection LFTA must refuse an aggregate snapshot.
        let mut proj = Lfta::new(
            "p".into(),
            tcp(),
            None,
            None,
            None,
            LftaKind::Project(vec![prog(&field("destPort"))]),
            None,
        );
        let mut r = crate::snapshot::SnapReader::open(&sealed).expect("open");
        assert!(proj.restore_state(&mut r).is_err());
    }

    #[test]
    fn garbage_packets_are_counted_not_crashed() {
        let mut lfta = Lfta::new(
            "t".into(),
            tcp(),
            None,
            None,
            None,
            LftaKind::Project(vec![prog(&field("destPort"))]),
            None,
        );
        let mut out = Vec::new();
        let garbage = CapPacket::full(0, 0, LinkType::Ethernet, bytes::Bytes::from_static(&[1, 2, 3]));
        lfta.push_packet(&garbage, &mut out);
        assert!(out.is_empty());
        assert_eq!(lfta.stats.not_protocol, 1);
    }
}
