//! Stage replay: a slice of the workload's trace pushed, single-threaded,
//! through each layer's public functions in isolation, one span per
//! `(layer, chunk)` with counts taken at the same boundary.
//!
//! Nothing outside `benchmark/` is instrumented — spans inside the
//! program are a later issue, which must reconcile with these numbers.
//! Each stage rebuilds its own operators from the same deployed plans,
//! so stages never share mutable state and can be timed back to back.

use crate::bench::{build_system, metric, Metric};
use crate::spans::Recorder;
use crate::trace::BaseTrace;
use crate::util::median;
use crate::workloads::Workload;
use gigascope::manager::{run_threaded_opts, ThreadedOptions, CHANNEL_CAPACITY};
use gigascope::server::{wire, PacketSource};
use gigascope::transport::{self, Admission};
use gigascope::{Gigascope, StreamItem, Tuple};
use gs_nic::bpf::{BpfProgram, JeqFamily};
use gs_packet::{CapPacket, PacketView};
use gs_runtime::batch::{ColBuilder, ColumnBatch};
use gs_runtime::durable::{DurableStats, DurableStore, RealDisk};
use gs_runtime::ops::build::{build_hfta, build_lfta, BuildCtx, HftaNode};
use gs_runtime::ops::lfta::Lfta;
use gs_runtime::ops::prefilter::{PrefilterCache, SharedPrefilter};
use gs_runtime::punct::{HeartbeatMode, Punct};
use gs_runtime::snapshot::{SnapReader, SnapWriter};
use gs_runtime::stats::StatsRegistry;
use gs_runtime::udf::{FileStore, UdfRegistry};
use gs_runtime::ParamBindings;
use std::collections::{BTreeMap, HashMap};
use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// What the replay hands back to the report.
pub struct StageReport {
    pub metrics: Vec<Metric>,
    /// Median wall time of one chunk through `run_threaded_opts`.
    pub manager_run_ms: f64,
    /// Sum of every stage's CPU per packet, microseconds: what the
    /// session's `cpu_us_per_pkt` should come to if the breakdown is
    /// honest.
    pub stage_sum_us_per_pkt: f64,
}

/// Transport batch size (the daemon's `batch_size`).
const BATCH: usize = 256;

/// `(lfta, interface id)` pairs in deployment order — the slot vector
/// `SharedPrefilter::dispatch` runs over.
type Slots = Vec<(Lfta, u16)>;

/// Instantiates operators from the deployed plans the way both engines
/// do, through the public builders.
struct Builder<'a> {
    gs: &'a Gigascope,
    params: ParamBindings,
    registry: UdfRegistry,
    resolver: FileStore,
}

impl<'a> Builder<'a> {
    fn new(gs: &'a Gigascope) -> Builder<'a> {
        Builder {
            gs,
            params: ParamBindings::new(),
            registry: UdfRegistry::with_builtins(),
            resolver: FileStore::new(),
        }
    }

    fn ctx(&self) -> BuildCtx<'_> {
        BuildCtx {
            catalog: self.gs.catalog(),
            params: &self.params,
            registry: &self.registry,
            resolver: &self.resolver,
            lfta_table_size: self.gs.lfta_table_size,
        }
    }

    /// Every deployed LFTA with its interface id, prefilter programs
    /// interned so equal programs share one `Arc` (as the manager does).
    fn lftas(&self) -> Slots {
        let ctx = self.ctx();
        let mut cache = PrefilterCache::new();
        let mut slots = Slots::new();
        for dq in self.gs.queries() {
            for spec in &dq.lftas {
                let mut lfta = build_lfta(spec, &ctx).expect("deployed LFTA instantiates");
                lfta.intern_prefilter(&mut |p| cache.intern(p));
                let mut iface = None;
                spec.plan.visit(&mut |p| {
                    if let gs_gsql::plan::Plan::ProtocolScan { interface, .. } = p {
                        iface = self.gs.catalog().interface(interface).map(|d| d.id);
                    }
                });
                slots.push((lfta, iface.expect("LFTA scans a registered interface")));
            }
        }
        slots
    }

    /// One deployed HFTA, fresh.
    fn hfta(&self, plan: &gs_gsql::plan::Plan) -> HftaNode {
        build_hfta(plan, &self.ctx()).expect("deployed HFTA instantiates")
    }
}

/// The stage a node's time is charged to: its multi-input root if it has
/// one, else `hfta.agg` if any operator of its chain aggregates, else
/// `hfta.select`.
fn node_stage(node: &HftaNode, name: &str) -> &'static str {
    let registry = StatsRegistry::new();
    node.register_stats(&registry, name);
    let rows = registry.snapshot();
    let has = |kind: &str| rows.iter().any(|r| r.node.ends_with(&format!(":{kind}")));
    if has("merge") {
        "hfta.merge"
    } else if has("join") {
        "hfta.join"
    } else if has("aggregate") {
        "hfta.agg"
    } else {
        "hfta.select"
    }
}

/// The capture loop's per-LFTA heartbeat clock (`HeartbeatMode::Periodic`).
struct Heartbeat {
    interval: u64,
    last: Option<u64>,
}

impl Heartbeat {
    fn due(&mut self, pkt: &CapPacket) -> Option<u64> {
        let clock = u64::from(pkt.time_sec());
        if self.last.is_none_or(|l| clock >= l + self.interval) {
            self.last = Some(clock);
            return Some(clock);
        }
        None
    }
}

/// One LFTA set with its shared prefilter, driven like the manager's
/// capture loop.
struct CaptureSet {
    slots: Slots,
    shared: SharedPrefilter,
    outs: Vec<Vec<StreamItem>>,
    hb: Heartbeat,
}

impl CaptureSet {
    fn new(b: &Builder<'_>, interval: u64) -> CaptureSet {
        let slots = b.lftas();
        let mut shared = SharedPrefilter::new();
        for (lfta, iface) in &slots {
            shared.add_lfta(lfta, *iface);
        }
        let outs = slots.iter().map(|_| Vec::new()).collect();
        CaptureSet {
            slots,
            shared,
            outs,
            hb: Heartbeat {
                interval,
                last: None,
            },
        }
    }

    /// Dispatch one chunk. `sink(i, items)` receives slot `i`'s output
    /// as it is produced; `on_hit(packet index, slot)` sees every LFTA
    /// tail invocation.
    fn run_chunk(
        &mut self,
        pkts: &[CapPacket],
        mut sink: impl FnMut(usize, &mut Vec<StreamItem>),
        mut on_hit: impl FnMut(usize, usize),
    ) {
        for (pi, pkt) in pkts.iter().enumerate() {
            self.shared.dispatch(pkt, &mut self.slots, &mut self.outs);
            for &i in self.shared.hit_slots() {
                on_hit(pi, i);
                if !self.outs[i].is_empty() {
                    sink(i, &mut self.outs[i]);
                }
            }
            if let Some(clock) = self.hb.due(pkt) {
                for (i, (lfta, _)) in self.slots.iter_mut().enumerate() {
                    lfta.heartbeat(clock, &mut self.outs[i]);
                    sink(i, &mut self.outs[i]);
                }
            }
        }
    }
}

/// Transpose a stream's items into transport batches exactly as the
/// manager's columnar `Batcher` does: flush at `BATCH` rows, on every
/// punctuation (which rides along), and at end of chunk.
fn to_batches(items: &[StreamItem]) -> Vec<(ColumnBatch, Option<Punct>)> {
    let mut out = Vec::new();
    let mut b = ColBuilder::new();
    for item in items {
        match item {
            StreamItem::Tuple(t) => {
                b.push_tuple(t);
                if b.len() >= BATCH {
                    out.push((b.finish(), None));
                }
            }
            StreamItem::Punct(p) => out.push((b.finish(), Some(p.clone()))),
        }
    }
    if !b.is_empty() {
        out.push((b.finish(), None));
    }
    out
}

fn count_tuples(items: &[StreamItem]) -> u64 {
    items
        .iter()
        .filter(|i| matches!(i, StreamItem::Tuple(_)))
        .count() as u64
}

fn tuples_in(batches: &[(ColumnBatch, Option<Punct>)]) -> u64 {
    batches.iter().map(|(cb, _)| cb.n_rows() as u64).sum()
}

/// Accumulated time and count of one stage.
#[derive(Default, Clone, Copy)]
struct Acc {
    ns: u64,
    n: u64,
}

impl Acc {
    fn per(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.ns as f64 / self.n as f64
        }
    }
}

/// Stage clock: times a closure as one `(layer, chunk)` span and adds it
/// to the stage's accumulator.
struct Stages<'r> {
    rec: &'r mut Recorder,
    acc: BTreeMap<&'static str, Acc>,
    chunk_span: usize,
    chunk: u64,
}

impl Stages<'_> {
    fn time<T>(&mut self, stage: &'static str, count: u64, f: impl FnOnce() -> T) -> T {
        let t0 = self.rec.now();
        let out = f();
        let t1 = self.rec.now();
        self.rec
            .add(stage, t0, t1, Some(self.chunk_span), Some(self.chunk));
        let a = self.acc.entry(stage).or_default();
        a.ns += t1 - t0;
        a.n += count;
        out
    }

    fn get(&self, stage: &str) -> Acc {
        self.acc.get(stage).copied().unwrap_or_default()
    }
}

/// Run the replay over the first chunks of the workload's trace.
pub fn run(
    w: &Workload,
    base: &BaseTrace,
    quick: bool,
    out_dir: &Path,
    rec: &mut Recorder,
) -> StageReport {
    let gs = build_system(w);
    let builder = Builder::new(&gs);
    // Enough packets for per-packet costs and enough chunk boundaries
    // for per-epoch costs.
    let target_pkts = if quick { 30_000.0 } else { 150_000.0 };
    let n_chunks = ((target_pkts / base.packets_per_chunk()).ceil() as usize)
        .clamp(if quick { 3 } else { 8 }, 200);
    let HeartbeatMode::Periodic { interval } = gs.heartbeat else {
        unreachable!("build_system sets periodic heartbeats")
    };

    // ---- gsql: program compile -------------------------------------------
    let compile_us: Vec<f64> = (0..5)
        .map(|_| {
            let mut fresh = Gigascope::new();
            for (name, id) in &w.ifaces {
                fresh.add_interface(name, *id, gs_packet::capture::LinkType::Ethernet);
            }
            let t = Instant::now();
            let infos = fresh
                .add_program(black_box(&w.program))
                .expect("program compiles");
            t.elapsed().as_secs_f64() * 1e6 / infos.len() as f64
        })
        .collect();

    // ---- Operators, one private set per stage ------------------------------
    let mut timed_set = CaptureSet::new(&builder, interval);
    let mut record_set = CaptureSet::new(&builder, interval);
    let mut tail_set = builder.lftas();
    let lfta_names: Vec<String> = record_set
        .slots
        .iter()
        .map(|(l, _)| l.name.clone())
        .collect();
    let n_lftas = lfta_names.len();
    // Distinct pushed-down BPF programs, factored the way the shared pass
    // factors them (one probe per same-shape family, then per-member
    // tail tests; everything else runs whole).
    let mut progs: Vec<Arc<BpfProgram>> = Vec::new();
    for (lfta, _) in &tail_set {
        if let Some(p) = lfta.prefilter_program() {
            if !progs.iter().any(|q| Arc::ptr_eq(q, p)) {
                progs.push(p.clone());
            }
        }
    }
    let prog_refs: Vec<&BpfProgram> = progs.iter().map(|p| p.as_ref()).collect();
    let (families, loose) = JeqFamily::factor_all(&prog_refs);

    struct Node<'p> {
        name: String,
        plan: &'p gs_gsql::plan::Plan,
        node: HftaNode,
        stage: &'static str,
        tuples_in: u64,
        tuples_out: u64,
    }
    let mut nodes: Vec<Node<'_>> = gs
        .queries()
        .iter()
        .filter_map(|dq| {
            let plan = dq.hfta.as_ref()?;
            let node = builder.hfta(plan);
            let stage = node_stage(&node, &dq.name);
            Some(Node {
                name: dq.name.clone(),
                plan,
                node,
                stage,
                tuples_in: 0,
                tuples_out: 0,
            })
        })
        .collect();
    let mut peak_held = 0u64;

    // The channel stage's consumer: a thread that drains and drops, like
    // a node thread whose operator costs nothing.
    let (tx, rx, _chan) =
        transport::channel::<(ColumnBatch, Option<Punct>)>(CHANNEL_CAPACITY, Admission::Block);
    let drain = std::thread::spawn(move || {
        let mut n = 0u64;
        while let Some(msg) = rx.recv() {
            black_box(&msg);
            n += 1;
        }
        n
    });

    let state_dir = out_dir
        .join("state")
        .join(format!("replay-{}-{}", w.name, std::process::id()));
    let _ = std::fs::remove_dir_all(&state_dir);
    let dstats = Arc::new(DurableStats::default());
    let (mut store, _) =
        DurableStore::open(state_dir.clone(), Arc::new(RealDisk), 3, dstats.clone())
            .expect("replay state dir opens");
    let query_names: Vec<String> = gs.queries().iter().map(|d| d.name.clone()).collect();

    let mut st = Stages {
        rec,
        acc: BTreeMap::new(),
        chunk_span: 0,
        chunk: 0,
    };
    let mut total_pkts = 0u64;
    let mut lfta_tuples = 0u64;
    let mut snapshot_bytes = 0u64;
    let mut rows_out = 0u64;
    let mut batches_built = 0u64;
    let mut carry: HashMap<String, Vec<u8>> = HashMap::new();

    for k in 0..n_chunks {
        let pkts: Vec<CapPacket> = base.chunk(k).collect();
        let n = pkts.len() as u64;
        total_pkts += n;
        let t_chunk = st.rec.now();
        st.chunk_span = st
            .rec
            .add("replay/chunk", t_chunk, t_chunk, None, Some(k as u64));
        st.chunk = k as u64;

        // ---- server: the engine loop's per-epoch chunk clone -------------
        let source = PacketSource::Chunked(vec![pkts.clone()]);
        st.time("server.source", n, || black_box(source.epoch_packets(0)));
        drop(source);

        // ---- packet: one parse per packet ---------------------------------
        st.time("packet.parse", n, || {
            for p in &pkts {
                black_box(PacketView::parse(black_box(p.clone())));
            }
        });

        // ---- nic: the pushed-down BPF programs ----------------------------
        st.time("nic.bpf", n, || {
            let mut accepted = 0u64;
            for p in &pkts {
                for (fam, _) in &families {
                    if let Some(a) = fam.probe(black_box(&p.data)) {
                        for t in fam.tests() {
                            accepted += u64::from(t.verdict(a));
                        }
                    }
                }
                for &i in &loose {
                    accepted += u64::from(progs[i].accepts(black_box(&p.data)));
                }
            }
            black_box(accepted)
        });

        // ---- prefilter: the shared dispatch pass (includes the parse, the
        // BPF verdicts and every hit LFTA's tail) ----------------------------
        st.time("prefilter.dispatch", n, || {
            timed_set.run_chunk(
                &pkts,
                |_, items| {
                    black_box(&*items);
                    items.clear();
                },
                |_, _| {},
            )
        });

        // Untimed twin pass: record each LFTA's output and which packets
        // reached which LFTA tail.
        let mut lfta_items: Vec<Vec<StreamItem>> = vec![Vec::new(); n_lftas];
        let mut hits: Vec<(u32, u32)> = Vec::new();
        record_set.run_chunk(
            &pkts,
            |i, items| lfta_items[i].append(items),
            |pi, slot| hits.push((pi as u32, slot as u32)),
        );

        // ---- lfta: residual predicate + projection over the shared parse --
        let mut view_of: Vec<u32> = vec![u32::MAX; pkts.len()];
        let mut views: Vec<PacketView> = Vec::new();
        for &(pi, _) in &hits {
            if view_of[pi as usize] == u32::MAX {
                view_of[pi as usize] = views.len() as u32;
                views.push(PacketView::parse(pkts[pi as usize].clone()));
            }
        }
        st.time("lfta.push", n, || {
            let mut out = Vec::new();
            for &(pi, slot) in &hits {
                tail_set[slot as usize]
                    .0
                    .push_matched(&views[view_of[pi as usize] as usize], &mut out);
                if out.len() >= BATCH {
                    black_box(&out);
                    out.clear();
                }
            }
            black_box(&out);
        });
        drop(views);

        // ---- transport + hfta, stream by stream in deployment order -------
        let mut streams: HashMap<String, Vec<(ColumnBatch, Option<Punct>)>> = HashMap::new();
        // Every produced stream is transposed into batches at its edge
        // (consumed or not — an unconsumed edge discards at flush), and
        // every batch crosses a queue to its consumer's thread.
        let mut publish = |st: &mut Stages<'_>, items: Vec<StreamItem>| {
            let tuples = count_tuples(&items);
            let batches = st.time("transport.batch_build", tuples, || {
                to_batches(black_box(&items))
            });
            st.time("transport.channel", batches.len() as u64, || {
                for (cb, p) in &batches {
                    tx.send(0, cb.n_rows() as u64, (cb.clone(), p.clone()));
                }
            });
            batches_built += batches.len() as u64;
            batches
        };
        for (name, items) in lfta_names.iter().zip(lfta_items) {
            lfta_tuples += count_tuples(&items);
            let batches = publish(&mut st, items);
            streams.insert(name.clone(), batches);
        }
        for node in &mut nodes {
            // Ports alternate batch by batch, a fair stand-in for the
            // arrival order two producer threads would give.
            let inputs: Vec<Vec<(ColumnBatch, Option<Punct>)>> = node
                .node
                .inputs
                .iter()
                .map(|s| streams.get(s).cloned().unwrap_or_default())
                .collect();
            let fed: u64 = inputs.iter().map(|b| tuples_in(b)).sum();
            let rounds = inputs.iter().map(Vec::len).max().unwrap_or(0);
            let mut feed: Vec<std::vec::IntoIter<_>> =
                inputs.into_iter().map(Vec::into_iter).collect();
            let stage = node.stage;
            let items = st.time(stage, fed, || {
                let mut out: Vec<StreamItem> = Vec::new();
                for _ in 0..rounds {
                    for (port, it) in feed.iter_mut().enumerate() {
                        if let Some((cb, p)) = it.next() {
                            // A batch that survives the chain columnar is
                            // materialised in place, keeping stream order.
                            if let Some((cb, p)) = node.node.push_cols(port, cb, p, &mut out) {
                                out.extend(cb.into_items(p));
                            }
                        }
                    }
                }
                out
            });
            node.tuples_in += fed;
            node.tuples_out += count_tuples(&items);
            let batches = publish(&mut st, items);
            streams.insert(node.name.clone(), batches);
        }

        // ---- subscription edge: rows out of batches, then the wire --------
        for sub in &w.subs {
            let batches = streams.get(*sub).cloned().unwrap_or_default();
            let n_rows = tuples_in(&batches);
            rows_out += n_rows;
            let row_batches: Vec<Vec<Tuple>> = st.time("transport.materialize", n_rows, || {
                batches
                    .iter()
                    .filter(|(cb, _)| !cb.is_empty())
                    .map(|(cb, _)| (0..cb.n_rows()).map(|r| cb.row_tuple(r)).collect())
                    .collect()
            });
            let frames: Vec<Vec<u8>> = st.time("server.encode", n_rows, || {
                row_batches
                    .iter()
                    .map(|rows| {
                        wire::encode_frame(wire::TUPLES, &wire::encode_tuples(sub, k as u64, rows))
                    })
                    .collect()
            });
            st.time("server.decode", n_rows, || {
                for f in &frames {
                    black_box(wire::decode_tuples(&f[5..]).expect("own frame decodes"));
                }
            });
        }

        // ---- snapshot: the boundary's capture, then restore into fresh
        // operators (which carry on, proving the round trip) ----------------
        let mut cut: Vec<(String, Vec<u8>)> = Vec::new();
        st.time("snapshot.capture", 1, || {
            for (lfta, _) in &record_set.slots {
                let mut wr = SnapWriter::new();
                lfta.snapshot_state(&mut wr);
                cut.push((format!("lfta:{}", lfta.name), wr.seal()));
            }
            for node in &nodes {
                let mut wr = SnapWriter::new();
                node.node.snapshot_state(&mut wr);
                cut.push((format!("hfta:{}", node.name), wr.seal()));
            }
        });
        snapshot_bytes += cut.iter().map(|(_, b)| b.len() as u64).sum::<u64>();
        let held = StatsRegistry::new();
        for node in &nodes {
            node.node.register_stats(&held, &node.name);
            node.node.publish_stats();
        }
        peak_held = held
            .snapshot()
            .iter()
            .filter(|r| r.counter == "peak_held")
            .map(|r| r.value)
            .fold(peak_held, u64::max);
        let mut fresh_lftas = builder.lftas();
        let mut fresh_nodes: Vec<HftaNode> = nodes.iter().map(|n| builder.hfta(n.plan)).collect();
        st.time("snapshot.restore", 1, || {
            let sealed = |key: &str| &cut.iter().find(|(k, _)| k == key).expect("captured").1;
            for (lfta, _) in &mut fresh_lftas {
                let mut r = SnapReader::open(sealed(&format!("lfta:{}", lfta.name))).expect("seal");
                lfta.restore_state(&mut r).expect("own snapshot restores");
                r.finish().expect("fully consumed");
            }
            for (node, fresh) in nodes.iter().zip(&mut fresh_nodes) {
                let mut r = SnapReader::open(sealed(&format!("hfta:{}", node.name))).expect("seal");
                fresh.restore_state(&mut r).expect("own snapshot restores");
                r.finish().expect("fully consumed");
            }
        });
        record_set.slots = fresh_lftas;
        for (node, fresh) in nodes.iter_mut().zip(fresh_nodes) {
            node.node = fresh;
        }

        // ---- durable: segment publish + marker log -------------------------
        carry.extend(cut);
        let cursors: HashMap<String, u64> = query_names
            .iter()
            .map(|q| (q.clone(), k as u64 + 1))
            .collect();
        st.time("durable.commit", 1, || {
            store
                .checkpoint(k as u64 + 1, &carry, &cursors, &query_names)
                .and_then(|()| store.log_markers(k as u64, &query_names))
                .expect("replay durable commit")
        });

        let t_end = st.rec.now();
        let span = st.chunk_span;
        st.rec.spans[span].end_ns = t_end;
    }
    drop(tx);
    let channel_msgs = drain.join().expect("drain thread");
    debug_assert_eq!(channel_msgs, batches_built);
    let durable_bytes = dstats.bytes_fsynced.get();
    drop(store);
    let _ = std::fs::remove_dir_all(&state_dir);

    // ---- manager: whole chunks through the threaded runtime, carrying
    // state across boundaries as the daemon does, no server around it -------
    let mut run_ms = Vec::new();
    let mut manager_s = 0.0;
    let mut queue = [0u64; 3]; // enqueued, stalls, shed_items over queue:* nodes
    let mut mcarry: Option<Arc<HashMap<String, Vec<u8>>>> = None;
    let mut held: HashMap<String, Vec<u8>> = HashMap::new();
    for k in 0..n_chunks {
        let pkts: Vec<CapPacket> = base.chunk(k).collect();
        let opts = ThreadedOptions {
            capture: true,
            restore: mcarry.take(),
            ..Default::default()
        };
        let t0 = st.rec.now();
        let out = run_threaded_opts(&gs, pkts.into_iter(), &w.subs, opts).expect("manager replay");
        let t1 = st.rec.now();
        st.rec.add("manager.run", t0, t1, None, Some(k as u64));
        run_ms.push((t1 - t0) as f64 / 1e6);
        manager_s += (t1 - t0) as f64 / 1e9;
        for row in &out.counters {
            if row.node.starts_with("queue:") {
                match row.counter {
                    "enqueued" => queue[0] += row.value,
                    "stalls" => queue[1] += row.value,
                    "shed_items" => queue[2] += row.value,
                    _ => {}
                }
            }
        }
        held.extend(out.snapshots);
        mcarry = Some(Arc::new(held.clone()));
    }
    // The fixed build/spawn/teardown every epoch pays: zero packets, no
    // state to restore, capture on.
    let empty_us: Vec<f64> = (0..if quick { 8 } else { 25 })
        .map(|_| {
            let opts = ThreadedOptions {
                capture: true,
                ..Default::default()
            };
            let t0 = st.rec.now();
            black_box(
                run_threaded_opts(&gs, std::iter::empty(), &w.subs, opts).expect("empty run"),
            );
            let t1 = st.rec.now();
            st.rec.add("manager.empty_run", t0, t1, None, None);
            (t1 - t0) as f64 / 1e3
        })
        .collect();

    // ---- Metrics -------------------------------------------------------------
    let prefilter_stats = StatsRegistry::new();
    timed_set.shared.register_stats(&prefilter_stats);
    timed_set.shared.publish_stats();
    let shared = |counter: &str| {
        prefilter_stats
            .value("prefilter:shared", counter)
            .unwrap_or(0) as f64
    };
    let n = total_pkts as f64;
    let epochs = n_chunks as f64;
    let per_pkt = |stage: &str| st.get(stage).ns as f64 / n;
    let hfta_ns: f64 = ["hfta.agg", "hfta.select", "hfta.merge", "hfta.join"]
        .iter()
        .map(|s| per_pkt(s))
        .sum();
    let empty_run_us = median(&empty_us);
    let manager_run_ms = median(&run_ms);

    // Layer shares of the per-packet stage sum, nanoseconds. The dispatch
    // pass contains the parse, the BPF verdicts and the LFTA tails, so
    // the prefilter's own share is what remains of it.
    // Measured in isolation the three can come to more than the pass
    // that contains them; they are then scaled to fit it, so the stage
    // sum never counts the capture thread's inline work twice.
    let dispatch_ns = per_pkt("prefilter.dispatch");
    let inline_ns = per_pkt("packet.parse") + per_pkt("nic.bpf") + per_pkt("lfta.push");
    let fit = if inline_ns > dispatch_ns {
        dispatch_ns / inline_ns
    } else {
        1.0
    };
    let packet_ns = per_pkt("packet.parse") * fit;
    let nic_ns = per_pkt("nic.bpf") * fit;
    let lfta_ns = per_pkt("lfta.push") * fit;
    let prefilter_ns = (dispatch_ns - inline_ns).max(0.0);
    let transport_ns = per_pkt("transport.batch_build")
        + per_pkt("transport.channel")
        + per_pkt("transport.materialize");
    let snapshot_ns = per_pkt("snapshot.capture") + per_pkt("snapshot.restore");
    let durable_ns = if w.durable {
        per_pkt("durable.commit")
    } else {
        0.0
    };
    let manager_ns = empty_run_us * 1e3 * epochs / n;
    // The wire: one encode per row, one decode per row per subscriber
    // (the harness's own client, but the same process pays for it).
    let server_ns = per_pkt("server.encode") + per_pkt("server.decode") * w.subscribers as f64;
    let source_ns = per_pkt("server.source");
    let layers = [
        ("packet", packet_ns),
        ("nic", nic_ns),
        ("prefilter", prefilter_ns),
        ("lfta", lfta_ns),
        ("transport", transport_ns),
        ("hfta", hfta_ns),
        ("snapshot", snapshot_ns),
        ("durable", durable_ns),
        ("manager", manager_ns),
        ("server", server_ns),
        ("source", source_ns),
    ];
    let stage_sum_ns: f64 = layers.iter().map(|(_, v)| v).sum();

    let mut metrics = vec![
        metric("packet.parse_ns_per_pkt", per_pkt("packet.parse"), "ns/pkt"),
        metric("packet.pkts_in", n, "count"),
        metric("nic.bpf_ns_per_pkt", per_pkt("nic.bpf"), "ns/pkt"),
        metric("gsql.compile_us_per_query", median(&compile_us), "us/query"),
        metric("prefilter.dispatch_ns_per_pkt", dispatch_ns, "ns/pkt"),
        metric(
            "prefilter.atom_evals_per_pkt",
            shared("atom_evals") / n,
            "evals/pkt",
        ),
        metric(
            "prefilter.hit_ratio",
            shared("dispatch_hits") / (n * n_lftas.max(1) as f64),
            "ratio",
        ),
        metric("lfta.push_ns_per_pkt", per_pkt("lfta.push"), "ns/pkt"),
        metric(
            "lfta.tuples_out_per_pkt",
            lfta_tuples as f64 / n,
            "tuples/pkt",
        ),
        metric(
            "transport.batch_build_ns_per_tuple",
            st.get("transport.batch_build").per(),
            "ns/tuple",
        ),
        metric(
            "transport.channel_ns_per_batch",
            st.get("transport.channel").per(),
            "ns/batch",
        ),
        metric(
            "transport.materialize_ns_per_row",
            st.get("transport.materialize").per(),
            "ns/row",
        ),
        metric("transport.batches", queue[0] as f64, "count"),
        metric("transport.stalls", queue[1] as f64, "count"),
        metric("transport.shed_items", queue[2] as f64, "count"),
        metric(
            "hfta.agg_ns_per_tuple",
            st.get("hfta.agg").per(),
            "ns/tuple",
        ),
        metric(
            "hfta.select_ns_per_tuple",
            st.get("hfta.select").per(),
            "ns/tuple",
        ),
        metric(
            "hfta.merge_ns_per_tuple",
            st.get("hfta.merge").per(),
            "ns/tuple",
        ),
        metric(
            "hfta.join_ns_per_tuple",
            st.get("hfta.join").per(),
            "ns/tuple",
        ),
        metric(
            "hfta.tuples_in",
            nodes.iter().map(|n| n.tuples_in).sum::<u64>() as f64,
            "count",
        ),
        metric(
            "hfta.tuples_out",
            nodes.iter().map(|n| n.tuples_out).sum::<u64>() as f64,
            "count",
        ),
        metric("hfta.peak_held", peak_held as f64, "count"),
        metric(
            "snapshot.capture_us_per_epoch",
            st.get("snapshot.capture").per() / 1e3,
            "us/epoch",
        ),
        metric(
            "snapshot.restore_us_per_epoch",
            st.get("snapshot.restore").per() / 1e3,
            "us/epoch",
        ),
        metric(
            "snapshot.bytes_per_epoch",
            snapshot_bytes as f64 / epochs,
            "B/epoch",
        ),
        metric(
            "durable.commit_us_per_epoch",
            st.get("durable.commit").per() / 1e3,
            "us/epoch",
        ),
        metric(
            "durable.bytes_per_epoch",
            durable_bytes as f64 / epochs,
            "B/epoch",
        ),
        metric("manager.empty_run_us", empty_run_us, "us"),
        metric("manager.run_ms_per_epoch", manager_run_ms, "ms"),
        metric("manager.pkts_per_s", n / manager_s, "1/s"),
        metric(
            "server.encode_ns_per_row",
            st.get("server.encode").per(),
            "ns/row",
        ),
        metric(
            "server.decode_ns_per_row",
            st.get("server.decode").per(),
            "ns/row",
        ),
        metric(
            "server.source_ns_per_pkt",
            per_pkt("server.source"),
            "ns/pkt",
        ),
        metric("replay.rows_out_per_pkt", rows_out as f64 / n, "rows/pkt"),
        metric("replay.epochs", epochs, "count"),
    ];
    for (layer, ns) in layers {
        metrics.push(metric(
            &format!("share.{layer}_pct"),
            ns / stage_sum_ns * 100.0,
            "%",
        ));
    }
    StageReport {
        metrics,
        manager_run_ms,
        stage_sum_us_per_pkt: stage_sum_ns / 1e3,
    }
}
