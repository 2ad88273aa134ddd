//! The capture-point half of the one dataflow both schedulers run.
//!
//! The paper has one dataflow — LFTAs linked into the run time system at
//! the capture point, HFTAs fed through the stream manager (§3) — and
//! this module is the first half of its single definition: [`build`]
//! instantiates the deployed queries into LFTAs, HFTA nodes and
//! partition routers — adopting the [`LiveOps`] a previous run left
//! behind before compiling or restoring anything — and
//! [`CaptureFront`] is the capture-point loop
//! body (shared prefilter dispatch, the periodic heartbeat clock,
//! `GS_STATS` rows, and the finish-or-snapshot cut), feeding each LFTA's
//! output edge. The second half — queues, edges and the per-node step —
//! is [`crate::dataflow`].

use crate::dataflow::{End, OutputEdge};
use crate::health::query_of;
use crate::{Error, Gigascope};
use bytes::Bytes;
use gs_gsql::catalog::Catalog;
use gs_gsql::split::LftaSpec;
use gs_packet::CapPacket;
use gs_runtime::ops::build::{build_hfta, build_lfta, BuildCtx, HftaNode};
use gs_runtime::ops::lfta::Lfta;
use gs_runtime::ops::prefilter::{PrefilterCache, SharedPrefilter};
use gs_runtime::ops::router::KeyRouter;
use gs_runtime::punct::{HeartbeatMode, Punct};
use gs_runtime::snapshot::{SnapError, SnapReader, SnapWriter};
use gs_runtime::stats::StatsRegistry;
use gs_runtime::tuple::{StreamItem, Tuple};
use gs_runtime::value::Value;
use gs_runtime::RuntimeError;
use std::collections::HashMap;
use std::sync::Arc;

/// One instantiated HFTA.
pub(crate) struct GraphNode {
    /// Output stream: the query name, or `<query>#<k>` for a shard.
    pub name: String,
    pub node: HftaNode,
    /// Index into [`Graph::routers`] when this node is a partition
    /// instance. Its single input port is fed by that group's hash
    /// router, not by the input stream's ordinary fan-out (which would
    /// duplicate every tuple into every shard).
    pub routed: Option<usize>,
}

/// The hash router of one partition-parallel rewrite. Its targets are
/// the nodes whose `routed` names this group, in partition order.
pub(crate) struct RouterGroup {
    /// The stream being split.
    pub input: String,
    pub router: KeyRouter,
}

/// Operators that outlived the run that built them, by output stream
/// name (`<query>__lfta<i>` for LFTAs; the query, or `<query>#<k>` for a
/// shard, for HFTA nodes). A capture-mode run ends with every operator
/// quiescent at a consistent cut and its windows still open, so the same
/// objects can simply keep going: [`build`] adopts whatever is here
/// before it compiles or restores anything.
#[derive(Default)]
pub(crate) struct LiveOps {
    pub lftas: HashMap<String, Lfta>,
    pub nodes: HashMap<String, HftaNode>,
}

impl LiveOps {
    /// Keep the operators (LFTAs, node, shards) of the queries `keep`
    /// accepts; drop the rest.
    pub fn retain(&mut self, mut keep: impl FnMut(&str) -> bool) {
        self.lftas.retain(|name, _| keep(query_of(name)));
        self.nodes.retain(|name, _| keep(query_of(name)));
    }

    /// Whether the operators of `query` are held. They are held or
    /// dropped together, and one of them is named after the query: its
    /// HFTA node (a sharded query's reunifying merge), or the single LFTA
    /// of an LFTA-only query.
    pub fn holds(&self, query: &str) -> bool {
        self.nodes.contains_key(query) || self.lftas.contains_key(query)
    }

    /// State items the held operators carry (see [`HftaNode::held`]).
    pub fn held(&self) -> u64 {
        let lftas: usize = self.lftas.values().map(Lfta::held).sum();
        let nodes: usize = self.nodes.values().map(HftaNode::held).sum();
        (lftas + nodes) as u64
    }
}

/// Every deployed query instantiated, not yet wired to a scheduler.
pub(crate) struct Graph {
    /// `(lfta, interface id)` in deployment order — the slot vector
    /// [`CaptureFront`] dispatches over.
    pub lftas: Vec<(Lfta, u16)>,
    /// Topological (submission) order; a rewrite's shards precede the
    /// merge that reunifies them.
    pub nodes: Vec<GraphNode>,
    pub routers: Vec<RouterGroup>,
    /// `(node, message)` for every offered snapshot that was rejected.
    pub restore_notes: Vec<(String, String)>,
    /// Operators whose state was read from `restore` bytes (rejected
    /// snapshots included: the bytes were read, then refused).
    pub restored: u64,
}

/// Instantiate every deployed query of `gs` except those named in
/// `exclude`. An operator `live` holds is adopted as it stands; only
/// where there is none is one compiled, and its state read from
/// `restore` (keys `lfta:<stream>` / `hfta:<stream>`) where an entry
/// matches. What `live` still holds afterwards belongs to no query of
/// this run.
///
/// `subscriptions` are validated here, once for both engines: a name
/// that is not a catalog stream is an error. Streams of excluded queries
/// stay in the catalog, so subscribing to one is valid and yields an
/// empty stream.
pub(crate) fn build(
    gs: &Gigascope,
    exclude: &[String],
    live: &mut LiveOps,
    restore: Option<&HashMap<String, Vec<u8>>>,
    subscriptions: &[&str],
) -> Result<Graph, Error> {
    for name in subscriptions {
        if gs.catalog().stream(name).is_none() {
            return Err(Error::Config(format!("no stream named `{name}` to subscribe to")));
        }
    }
    let mut g = Graph {
        lftas: Vec::new(),
        nodes: Vec::new(),
        routers: Vec::new(),
        restore_notes: Vec::new(),
        restored: 0,
    };
    for dq in gs.queries() {
        if exclude.contains(&dq.name) {
            continue;
        }
        let params = gs.params_for(&dq.name);
        params.validate(&dq.params).map_err(|e| {
            Error::Runtime(RuntimeError::msg(format!("query `{}`: {e}", dq.name)))
        })?;
        let ctx = BuildCtx {
            catalog: gs.catalog(),
            params: &params,
            registry: gs.registry(),
            resolver: gs.resolver(),
            lfta_table_size: gs.lfta_table_size,
        };
        for spec in &dq.lftas {
            let iface = lfta_iface_id(gs.catalog(), spec)?;
            let lfta = match live.lftas.remove(&spec.name) {
                Some(lfta) => lfta,
                None => {
                    let bytes = restore.and_then(|m| m.get(&format!("lfta:{}", spec.name)));
                    g.restored += u64::from(bytes.is_some());
                    restored(|| build_lfta(spec, &ctx), Lfta::restore_state, bytes, |e| {
                        g.restore_notes.push((
                            spec.name.clone(),
                            format!("lfta snapshot rejected ({e}); resuming from empty state"),
                        ));
                    })?
                }
            };
            g.lftas.push((lfta, iface));
        }
        let Some(hplan) = &dq.hfta else { continue };
        let mut hfta = |name: &str, plan, routed| -> Result<(), Error> {
            let node = match live.nodes.remove(name) {
                Some(node) => node,
                None => {
                    let bytes = restore.and_then(|m| m.get(&format!("hfta:{name}")));
                    g.restored += u64::from(bytes.is_some());
                    restored(|| build_hfta(plan, &ctx), HftaNode::restore_state, bytes, |e| {
                        g.restore_notes.push((
                            name.to_string(),
                            format!("snapshot rejected ({e}); resuming from empty windows"),
                        ));
                    })?
                }
            };
            g.nodes.push(GraphNode { name: name.to_string(), node, routed });
            Ok(())
        };
        match gs.parallel_rewrite(dq) {
            // K shards behind a hash-of-group-key router, reunified by
            // an ordinary merge node over the shard streams.
            Some(part) => {
                let progs = part
                    .hash_exprs
                    .iter()
                    .map(|e| ctx.prog(e))
                    .collect::<Result<Vec<_>, _>>()?;
                let group = g.routers.len();
                g.routers.push(RouterGroup {
                    input: part.input.clone(),
                    router: KeyRouter::new(progs, part.partitions.len()),
                });
                for (pname, pplan) in &part.partitions {
                    hfta(pname, pplan, Some(group))?;
                }
                hfta(&dq.name, &part.merge, None)?;
            }
            None => hfta(&dq.name, hplan, None)?,
        }
    }
    Ok(g)
}

/// Build an operator and, when a sealed snapshot is on offer, restore it.
/// This happens at build time, before any thread spawns, so a rejected
/// snapshot (torn, corrupt, wrong shape) falls back to a pristine
/// rebuild instead of trusting a half-applied decode; `rejected` records
/// why.
fn restored<T>(
    make: impl Fn() -> Result<T, RuntimeError>,
    restore: impl FnOnce(&mut T, &mut SnapReader<'_>) -> Result<(), SnapError>,
    bytes: Option<&Vec<u8>>,
    rejected: impl FnOnce(SnapError),
) -> Result<T, Error> {
    let mut built = make()?;
    if let Some(bytes) = bytes {
        // Integrity (magic, version, checksum) is verified before
        // `restore` sees a byte; trailing garbage after a structurally
        // valid payload is rejected like any other protocol error.
        let applied = SnapReader::open(bytes).and_then(|mut r| {
            restore(&mut built, &mut r)?;
            r.finish()
        });
        if let Err(e) = applied {
            built = make()?;
            rejected(e);
        }
    }
    Ok(built)
}

fn lfta_iface_id(catalog: &Catalog, spec: &LftaSpec) -> Result<u16, Error> {
    let mut iface_name = None;
    spec.plan.visit(&mut |p| {
        if let gs_gsql::plan::Plan::ProtocolScan { interface, .. } = p {
            iface_name = Some(interface.clone());
        }
    });
    let name = iface_name
        .ok_or_else(|| Error::Config(format!("LFTA `{}` has no protocol scan", spec.name)))?;
    catalog
        .interface(&name)
        .map(|d| d.id)
        .ok_or_else(|| Error::Config(format!("unknown interface `{name}`")))
}

/// The capture-point half of a run: every LFTA behind one shared
/// prefilter pass, each feeding its output edge, plus the clock that
/// drives heartbeats and `GS_STATS`.
pub(crate) struct CaptureFront {
    lftas: Vec<(Lfta, u16)>,
    shared: SharedPrefilter,
    /// Slot `i`'s reused output buffer, drained into `edges[i]`.
    outs: Vec<Vec<StreamItem>>,
    edges: Vec<OutputEdge>,
    /// The self-monitoring stream's edge (this front is its producer),
    /// and whether a round is worth emitting: stats are enabled and
    /// something consumes them.
    stats_edge: OutputEdge,
    stats_wanted: bool,
    registry: Arc<StatsRegistry>,
    /// Heartbeat period in seconds; `None` unless the mode is periodic.
    interval: Option<u64>,
    /// Capture time of the latest packet, in seconds.
    clock: u64,
    last_heartbeat: Option<u64>,
    /// Packets dispatched.
    pub packets: u64,
    /// Heartbeat rounds issued.
    pub heartbeats: u64,
}

impl CaptureFront {
    /// Take ownership of a graph's LFTAs and of the edge behind each
    /// (`edges[i]` for slot `i`): build the shared pass and register the
    /// `lfta:*` and `prefilter:*` counter nodes.
    pub fn new(
        mut lftas: Vec<(Lfta, u16)>,
        edges: Vec<OutputEdge>,
        stats_edge: OutputEdge,
        stats_wanted: bool,
        heartbeat: HeartbeatMode,
        registry: Arc<StatsRegistry>,
    ) -> CaptureFront {
        let shared = shared_pass(&mut lftas);
        for (lfta, _) in &lftas {
            registry.register(format!("lfta:{}", lfta.name), lfta.stats_handle());
        }
        // An LFTA-free run (queries over GS_STATS only) keeps its stats
        // row set free of an idle `prefilter:shared` node.
        if !lftas.is_empty() {
            shared.register_stats(&registry);
        }
        CaptureFront {
            outs: lftas.iter().map(|_| Vec::new()).collect(),
            lftas,
            shared,
            edges,
            stats_edge,
            stats_wanted,
            registry,
            interval: match heartbeat {
                HeartbeatMode::Periodic { interval } => Some(interval.max(1)),
                HeartbeatMode::Off | HeartbeatMode::OnDemand => None,
            },
            clock: 0,
            last_heartbeat: None,
            packets: 0,
            heartbeats: 0,
        }
    }

    /// The LFTA slots, in dispatch order.
    pub fn lftas(&self) -> &[(Lfta, u16)] {
        &self.lftas
    }

    /// The LFTAs themselves, once the run is over.
    pub fn into_lftas(self) -> impl Iterator<Item = Lfta> {
        self.lftas.into_iter().map(|(lfta, _)| lfta)
    }

    /// One packet through the shared pass: each distinct BPF program run
    /// once on the raw bytes, then — only if some LFTA survives that —
    /// one parse, each distinct protocol match and predicate atom
    /// evaluated at most once, LFTAs dispatched off the memoized
    /// verdicts. Only the slots whose tail ran can hold output, so only
    /// those feed their edges. Returns whether a batch left an edge (most
    /// packets are rejected, or absorbed into a filling batch).
    pub fn dispatch(&mut self, pkt: &CapPacket) -> bool {
        self.packets += 1;
        self.clock = u64::from(pkt.time_sec());
        self.shared.dispatch(pkt, &mut self.lftas, &mut self.outs);
        let mut shipped = false;
        for &i in self.shared.hit_slots() {
            if !self.outs[i].is_empty() {
                shipped |= self.edges[i].extend(self.outs[i].drain(..));
            }
        }
        shipped
    }

    /// Flush the edges of the slots the last packet reached, so nothing
    /// of it waits in an LFTA batcher; returns whether a batch left an
    /// edge (a slot whose LFTA filtered the packet holds nothing).
    pub fn flush_hits(&mut self) -> bool {
        let mut shipped = false;
        for &i in self.shared.hit_slots() {
            shipped |= self.edges[i].flush_now();
        }
        shipped
    }

    /// Whether the periodic heartbeat is due at the current clock.
    pub fn periodic_due(&self) -> bool {
        self.interval
            .is_some_and(|iv| self.last_heartbeat.is_none_or(|l| self.clock >= l + iv))
    }

    /// Whether the clock moved since the last heartbeat round (the
    /// once-per-clock-advance bound of an on-demand trigger).
    pub fn clock_advanced(&self) -> bool {
        self.last_heartbeat.is_none_or(|l| self.clock > l)
    }

    /// One heartbeat round at the current clock, then a monitoring
    /// round. Every LFTA's edge flushes, output or not: a heartbeat is a
    /// liveness signal that bounds downstream latency by its interval.
    pub fn heartbeat(&mut self) {
        self.heartbeats += 1;
        self.last_heartbeat = Some(self.clock);
        for (i, (lfta, _)) in self.lftas.iter_mut().enumerate() {
            lfta.heartbeat(self.clock, &mut self.outs[i]);
            self.edges[i].extend(self.outs[i].drain(..));
            self.edges[i].flush_heartbeat();
        }
        self.stats_round();
    }

    /// One `GS_STATS` round — skipped unless something consumes the
    /// monitoring stream: a registry snapshot as
    /// `(time, node, counter, value)` tuples followed by a punctuation
    /// on `time`, so downstream watermarks advance with every round —
    /// the paper's "Gigascope monitors itself" loop, riding the ordinary
    /// stream machinery. HFTA nodes publish per consumed batch, so their
    /// rows are at most one batch stale.
    fn stats_round(&mut self) {
        if !self.stats_wanted {
            return;
        }
        self.publish();
        let clock = self.clock;
        let mut items: Vec<StreamItem> = self
            .registry
            .snapshot()
            .into_iter()
            .map(|r| {
                StreamItem::Tuple(Tuple::new(vec![
                    Value::UInt(clock),
                    Value::Str(Bytes::from(r.node.into_bytes())),
                    Value::Str(Bytes::from_static(r.counter.as_bytes())),
                    Value::UInt(r.value),
                ]))
            })
            .collect();
        items.push(StreamItem::Punct(Punct::new(0, Value::UInt(clock))));
        self.stats_edge.extend(items.into_iter());
    }

    /// End of input. Flushing finishes each LFTA into its edge; holding
    /// keeps the open epochs in the LFTAs, and sealing also returns them
    /// sealed under `lfta:<stream>`. Either way every LFTA stream is
    /// closed, in order, and the final counters are published.
    /// [`finish_stats`](Self::finish_stats) must follow.
    pub fn finish(&mut self, end: End) -> HashMap<String, Vec<u8>> {
        let mut snapshots = HashMap::new();
        // The shared pass batches `packets_in`/`prefiltered`/... per LFTA;
        // they belong to the cut, so they are folded in before it is
        // taken (the restored counters would otherwise run behind the
        // live ones by one epoch's packets).
        self.shared.flush_stats(&mut self.lftas);
        for (i, (lfta, _)) in self.lftas.iter_mut().enumerate() {
            match end {
                End::Seal => {
                    let mut w = SnapWriter::new();
                    lfta.snapshot_state(&mut w);
                    snapshots.insert(format!("lfta:{}", lfta.name), w.seal());
                }
                End::Hold => {}
                End::Flush => lfta.finish(&mut self.outs[i]),
            }
            self.edges[i].extend(self.outs[i].drain(..));
            self.edges[i].close();
        }
        self.publish();
        snapshots
    }

    /// One last monitoring round, then `GS_STATS` closes — always, even
    /// with stats off: its consumers wait on the marker. Separate from
    /// [`finish`](Self::finish) so the inline scheduler can pump the LFTA
    /// flush tail through the nodes first, and the round's `hfta:*` rows
    /// cover it.
    pub fn finish_stats(&mut self) {
        self.stats_round();
        self.stats_edge.close();
    }

    /// Fold the shared pass's batched per-LFTA counter deltas in, then
    /// publish, so a registry snapshot sees exact counts.
    fn publish(&mut self) {
        self.shared.flush_stats(&mut self.lftas);
        for (lfta, _) in &self.lftas {
            lfta.publish_stats();
        }
        self.shared.publish_stats();
    }
}

/// The shared prefilter pass over `lftas`: structurally equal BPF
/// programs deduplicated, slots registered in vector order (dispatch is
/// by index).
fn shared_pass(lftas: &mut [(Lfta, u16)]) -> SharedPrefilter {
    let mut cache = PrefilterCache::new();
    let mut shared = SharedPrefilter::new();
    for (lfta, iface) in lftas {
        lfta.intern_prefilter(&mut |p| cache.intern(p));
        shared.add_lfta(lfta, *iface);
    }
    shared
}

/// Render the shared-prefilter plan (atom table + per-LFTA required atoms) of
/// a graph's LFTAs; `None` when there is no LFTA to plan for.
pub(crate) fn describe_prefilter(mut lftas: Vec<(Lfta, u16)>, catalog: &Catalog) -> Option<String> {
    if lftas.is_empty() {
        return None;
    }
    Some(shared_pass(&mut lftas).describe(&|e, proto| match catalog.protocol_schema(proto.name) {
        Some(s) => gs_gsql::explain::expr_str(e, &s),
        None => format!("{e:?}"),
    }))
}
