//! Micro-benchmarks: per-operator and per-substrate throughputs
//! underpinning the experiment-level results. Runs on the in-repo
//! `std::time::Instant` harness ([`gs_bench::harness`]); metric names
//! (`group/function`) are unchanged from the original criterion runs.

use gs_bench::harness::{black_box, BatchSize, Criterion, Throughput};
use gs_gsql::catalog::{Catalog, InterfaceDef};
use gs_nic::bpf::tcp_dst_port_filter;
use gs_packet::builder::FrameBuilder;
use gs_packet::capture::{CapPacket, LinkType};
use gs_packet::PacketView;
use gs_runtime::batch::ColumnBatch;
use gs_runtime::expr::{EvalScratch, PacketFields, Program};
use gs_runtime::ops::agg::{AggCore, AggregateOp, DirectMappedAggregator};
use gs_runtime::ops::prefilter::SharedPrefilter;
use gs_runtime::ops::Operator;
use gs_runtime::ops::defrag::Defragmenter;
use gs_runtime::ops::join::{JoinConfig, JoinOp};
use gs_runtime::ops::merge::MergeOp;
use gs_runtime::tuple::Tuple;
use gs_runtime::udf::lpm::LpmTrie;
use gs_runtime::udf::regex::Regex;
use gs_runtime::udf::{FileStore, UdfRegistry};
use gs_runtime::{ParamBindings, Value};

fn sample_packets(n: usize) -> Vec<CapPacket> {
    (0..n)
        .map(|i| {
            let port = if i % 3 == 0 { 80 } else { 8080 + (i % 100) as u16 };
            let frame = FrameBuilder::tcp(
                0x0a000000 + i as u32,
                0xc0a80000 + (i % 256) as u32,
                1024 + (i % 1000) as u16,
                port,
            )
            .payload(if i % 2 == 0 {
                b"GET / HTTP/1.1\r\nHost: x\r\n\r\n"
            } else {
                b"tunneled binary gibberish payload here"
            })
            .ip_id(i as u16)
            .build_ethernet();
            CapPacket::full(i as u64 * 10_000, 0, LinkType::Ethernet, frame)
        })
        .collect()
}

fn compile(pe: &gs_gsql::plan::PExpr) -> Program {
    Program::compile(pe, &ParamBindings::new(), &UdfRegistry::with_builtins(), &FileStore::new())
        .unwrap()
}

fn col(i: usize) -> gs_gsql::plan::PExpr {
    gs_gsql::plan::PExpr::Col { index: i, ty: gs_gsql::types::DataType::UInt }
}

fn packet_prog(field: &str) -> Program {
    let proto = gs_packet::interp::protocol("tcp").unwrap();
    compile(&col(proto.field_index(field).unwrap()))
}

fn bench_bpf(c: &mut Criterion) {
    let prog = tcp_dst_port_filter(80);
    let pkts = sample_packets(1024);
    let mut g = c.benchmark_group("bpf");
    g.throughput(Throughput::Elements(pkts.len() as u64));
    g.bench_function("tcp_port80_filter", |b| {
        b.iter(|| {
            let mut acc = 0u64;
            for p in &pkts {
                acc += u64::from(prog.accepts(black_box(&p.data)));
            }
            acc
        })
    });
    g.finish();
}

fn bench_packet_parse(c: &mut Criterion) {
    let pkts = sample_packets(1024);
    let mut g = c.benchmark_group("packet");
    g.throughput(Throughput::Elements(pkts.len() as u64));
    g.bench_function("parse_view", |b| {
        b.iter(|| {
            let mut acc = 0u64;
            for p in &pkts {
                let v = PacketView::parse(black_box(p.clone()));
                acc += u64::from(v.tcp().map(|t| t.dst_port).unwrap_or(0));
            }
            acc
        })
    });
    g.finish();
}

fn bench_regex(c: &mut Criterion) {
    let re = Regex::compile("^[^\\n]*HTTP/1.*").unwrap();
    let hit = b"GET /index.html HTTP/1.1\r\nHost: example.com\r\n\r\n".to_vec();
    let miss: Vec<u8> = (0..512u32).map(|i| (i % 80 + 32) as u8).collect();
    let mut g = c.benchmark_group("regex");
    g.throughput(Throughput::Bytes((hit.len() + miss.len()) as u64));
    g.bench_function("paper_pattern", |b| {
        b.iter(|| {
            black_box(re.is_match(black_box(&hit)));
            black_box(re.is_match(black_box(&miss)));
        })
    });
    g.finish();
}

fn bench_lpm(c: &mut Criterion) {
    let mut trie = LpmTrie::new();
    let mut x = 0x9e3779b9u32;
    for i in 0..10_000u32 {
        x ^= x << 13;
        x ^= x >> 17;
        x ^= x << 5;
        trie.insert(x & (u32::MAX << 8), 24, i);
    }
    let addrs: Vec<u32> = (0..1024u32).map(|i| i.wrapping_mul(0x0100_0193)).collect();
    let mut g = c.benchmark_group("lpm");
    g.throughput(Throughput::Elements(addrs.len() as u64));
    g.bench_function("lookup_10k_prefixes", |b| {
        b.iter(|| {
            let mut acc = 0u64;
            for &a in &addrs {
                acc += u64::from(trie.lookup(black_box(a)).unwrap_or(0));
            }
            acc
        })
    });
    g.finish();
}

fn bench_lfta(c: &mut Criterion) {
    let pkts = sample_packets(1024);
    let mut g = c.benchmark_group("lfta");
    g.throughput(Throughput::Elements(pkts.len() as u64));
    g.bench_function("port80_select_project", |b| {
        let mut l = gs_bench::build_port80_lfta();
        let mut out = Vec::new();
        b.iter(|| {
            for p in &pkts {
                out.clear();
                l.push_packet(black_box(p), &mut out);
                black_box(&out);
            }
        })
    });
    g.finish();
}

fn agg_core() -> AggCore {
    AggCore::new(
        vec![packet_prog("time"), packet_prog("srcIP"), packet_prog("destPort")],
        vec![(gs_gsql::ast::AggFunc::Count, None, gs_gsql::types::DataType::UInt)],
        Some(0),
        0,
    )
}

fn bench_aggregation(c: &mut Criterion) {
    let pkts = sample_packets(1024);
    let views: Vec<PacketView> = pkts.iter().map(|p| PacketView::parse(p.clone())).collect();
    let proto = gs_packet::interp::protocol("tcp").unwrap();
    let mut g = c.benchmark_group("agg");
    g.throughput(Throughput::Elements(views.len() as u64));
    g.bench_function("direct_mapped_update", |b| {
        let mut dm = DirectMappedAggregator::new(agg_core(), 4096);
        let mut out = Vec::new();
        b.iter(|| {
            for v in &views {
                out.clear();
                dm.update(black_box(&PacketFields::new(v, proto.fields)), &mut out);
                black_box(&out);
            }
        })
    });
    g.bench_function("exact_push_cols", |b| {
        // The production path: the aggregate's columnar entry over one
        // batch of the same (time, srcIP, destPort) rows.
        let progs = [packet_prog("time"), packet_prog("srcIP"), packet_prog("destPort")];
        let mut scratch = EvalScratch::default();
        let rows: Vec<Tuple> = views
            .iter()
            .map(|v| {
                let f = PacketFields::new(v, proto.fields);
                Tuple::new(progs.iter().map(|p| p.eval(&f, &mut scratch).unwrap()).collect())
            })
            .collect();
        let batch = ColumnBatch::from_tuples(&rows);
        let core = AggCore::new(
            (0..3).map(|i| compile(&col(i))).collect(),
            vec![(gs_gsql::ast::AggFunc::Count, None, gs_gsql::types::DataType::UInt)],
            Some(0),
            0,
        );
        let mut op = AggregateOp::new(core, None, None);
        b.iter(|| black_box(op.push_cols(batch.clone(), None)))
    });
    g.finish();
}

fn bench_expr(c: &mut Criterion) {
    use gs_gsql::ast::BinOp;
    use gs_gsql::plan::{Literal, PExpr};
    use gs_gsql::types::DataType;
    // (c0 = 80 AND c1 > 5)
    let e = PExpr::Binary {
        op: BinOp::And,
        left: Box::new(PExpr::Binary {
            op: BinOp::Eq,
            left: Box::new(col(0)),
            right: Box::new(PExpr::Lit(Literal::UInt(80))),
            ty: DataType::Bool,
        }),
        right: Box::new(PExpr::Binary {
            op: BinOp::Gt,
            left: Box::new(col(1)),
            right: Box::new(PExpr::Lit(Literal::UInt(5))),
            ty: DataType::Bool,
        }),
        ty: DataType::Bool,
    };
    let prog = compile(&e);
    let tuples: Vec<Tuple> = (0..1024u64)
        .map(|i| {
            Tuple::new(vec![Value::UInt(if i % 2 == 0 { 80 } else { 25 }), Value::UInt(i % 64)])
        })
        .collect();
    let mut g = c.benchmark_group("expr");
    g.throughput(Throughput::Elements(tuples.len() as u64));
    g.bench_function("predicate_eval", |b| {
        let mut scratch = EvalScratch::default();
        b.iter(|| {
            let mut acc = 0u64;
            for t in &tuples {
                acc += u64::from(prog.eval_bool(black_box(t), &mut scratch));
            }
            acc
        })
    });
    g.finish();
}

fn bench_frontend(c: &mut Criterion) {
    let src = "DEFINE { query_name q; } \
               Select peerid, tb, count(*), sum(len) FROM eth0.tcp \
               Where destPort = 80 and IPVersion = 4 \
               Group by time/60 as tb, getlpmid(destIP, 'peerid.tbl') as peerid \
               Having count(*) > 100";
    let mut catalog = Catalog::with_builtins();
    catalog.add_interface(InterfaceDef { name: "eth0".into(), id: 0, link: LinkType::Ethernet });
    let mut g = c.benchmark_group("frontend");
    g.bench_function("parse", |b| b.iter(|| gs_gsql::parse_query(black_box(src)).unwrap()));
    g.bench_function("parse_analyze_split", |b| {
        b.iter(|| {
            let q = gs_gsql::parse_query(black_box(src)).unwrap();
            let aq = gs_gsql::analyze(&q, &catalog).unwrap();
            gs_gsql::split_query(&aq, &catalog).unwrap()
        })
    });
    g.finish();
}

fn bench_merge_join(c: &mut Criterion) {
    let mut g = c.benchmark_group("multiway");
    g.throughput(Throughput::Elements(2048));
    // Both benches feed what the transport ships: 256-row column batches,
    // four per input, alternating inputs.
    let batches = |row: &dyn Fn(u64) -> Vec<Value>| -> Vec<(usize, ColumnBatch)> {
        (0..4u64)
            .flat_map(|k| {
                let rows: Vec<Tuple> =
                    (k * 256..(k + 1) * 256).map(|i| Tuple::new(row(i))).collect();
                let cb = ColumnBatch::from_tuples(&rows);
                [(0, cb.clone()), (1, cb)]
            })
            .collect()
    };
    let merge_feed = batches(&|i| vec![Value::UInt(i)]);
    g.bench_function("merge_push", |b| {
        b.iter_batched(
            || (MergeOp::new(2, 0, vec![0, 0]), merge_feed.clone()),
            |(mut m, feed)| {
                for (port, cb) in feed {
                    black_box(m.push_cols(port, cb, None));
                }
                m
            },
            BatchSize::SmallInput,
        )
    });
    let join_feed = batches(&|i| vec![Value::UInt(i / 8), Value::UInt(i % 16)]);
    g.bench_function("hash_join_push", |b| {
        b.iter_batched(
            || {
                let j = JoinOp::new(
                    JoinConfig {
                        left_col: 0,
                        right_col: 0,
                        lo: 0,
                        hi: 0,
                        left_slack: 0,
                        right_slack: 0,
                        eq_keys: vec![(1, 1)],
                        emit: gs_runtime::ops::join::EmitMode::Banded,
                        sort_out_col: 0,
                    },
                    None,
                    vec![compile(&col(0))],
                );
                (j, join_feed.clone())
            },
            |(mut j, feed)| {
                for (port, cb) in feed {
                    black_box(j.push_cols(port, cb, None));
                }
                j
            },
            BatchSize::SmallInput,
        )
    });
    g.finish();
}

/// End-to-end deployment throughput: packets → inline LFTA → bounded
/// channel → HFTA aggregate thread → subscription collectors. The query
/// is a named-stream composition so the LFTA is a pure projection: one
/// tuple per packet crosses the ready-queue, making transport cost (not
/// operator cost) the measured quantity. Both streams are subscribed —
/// "both streams are available to the application" (paper §3) — so the
/// raw stream fans out to two consumers, exercising the batch-level
/// cloning rule. `threaded_per_item` is the same pipeline at batch size
/// 1 — the pre-batching transport — and the `threaded_batch_*` points
/// sweep the size knob.
fn bench_manager(c: &mut Criterion) {
    use gigascope::manager::run_threaded;
    use gigascope::Gigascope;

    const N: usize = 20_000;
    let pkts: Vec<CapPacket> = (0..N)
        .map(|i| {
            let f = FrameBuilder::tcp(0x0a000001 + (i % 7) as u32, 0xc0a80001, 1024, 80)
                .payload(b"x")
                .build_ethernet();
            // 2000 packets per second of stream time: the aggregate
            // closes a group (and the heartbeat punctuates) every 2000
            // tuples.
            CapPacket::full(i as u64 * 500_000, 0, LinkType::Ethernet, f)
        })
        .collect();
    let mk = |batch: usize| {
        let mut gs = Gigascope::new();
        gs.add_interface("eth0", 0, LinkType::Ethernet);
        gs.batch_size = batch;
        gs.add_program(
            "DEFINE { query_name raw; } Select time, len From eth0.tcp; \
             DEFINE { query_name persec; } \
             Select time, count(*), sum(len) From raw Group By time",
        )
        .unwrap();
        gs
    };
    let mut g = c.benchmark_group("manager");
    g.throughput(Throughput::Elements(N as u64));
    let gs = mk(256);
    g.bench_function("threaded_throughput", |b| {
        b.iter(|| run_threaded(&gs, pkts.iter().cloned(), &["raw", "persec"]).unwrap())
    });
    // Baseline without self-monitoring, for eyeballing the stats cost
    // (the enforced <=5% gate is `gate stats`, src/bin/gate.rs).
    let mut gs_ns = mk(256);
    gs_ns.stats_enabled = false;
    g.bench_function("threaded_nostats", |b| {
        b.iter(|| run_threaded(&gs_ns, pkts.iter().cloned(), &["raw", "persec"]).unwrap())
    });
    let gs1 = mk(1);
    g.bench_function("threaded_per_item", |b| {
        b.iter(|| run_threaded(&gs1, pkts.iter().cloned(), &["raw", "persec"]).unwrap())
    });
    for batch in [8usize, 64, 1024] {
        let gsb = mk(batch);
        g.bench_function(&format!("threaded_batch_{batch}"), |b| {
            b.iter(|| run_threaded(&gsb, pkts.iter().cloned(), &["raw", "persec"]).unwrap())
        });
    }
    // Partition-parallel HFTA execution: the same pipeline with a
    // multi-key aggregate (1024 source addresses, so the hash router
    // actually spreads groups) rewritten into K shard instances plus a
    // reunifying merge. par1 is the mandated no-op baseline; the
    // par4-not-slower gate is `gate parallel` (src/bin/gate.rs).
    let multi: Vec<CapPacket> = (0..N)
        .map(|i| {
            let f = FrameBuilder::tcp(0x0a000000 + (i % 1024) as u32, 0xc0a80001, 1024, 80)
                .payload(b"x")
                .build_ethernet();
            CapPacket::full(i as u64 * 500_000, 0, LinkType::Ethernet, f)
        })
        .collect();
    let mk_par = |par: usize| {
        let mut gs = Gigascope::new();
        gs.add_interface("eth0", 0, LinkType::Ethernet);
        gs.batch_size = 256;
        gs.parallelism = par;
        gs.add_program(
            "DEFINE { query_name raw; } Select time, srcIP, len From eth0.tcp; \
             DEFINE { query_name persrc; } \
             Select time, srcIP, count(*), sum(len) From raw Group By time, srcIP",
        )
        .unwrap();
        gs
    };
    for par in [1usize, 4] {
        let gsp = mk_par(par);
        g.bench_function(&format!("threaded_par{par}"), |b| {
            b.iter(|| run_threaded(&gsp, multi.iter().cloned(), &["persrc"]).unwrap())
        });
    }
    // Aggregation-heavy workload: a four-function multi-key aggregate
    // over bursty sources (each source emits runs of 32 packets, as flows
    // do), so the columnar run-detection loop in the hash-agg has real
    // runs to fold.
    let bursty: Vec<CapPacket> = (0..N)
        .map(|i| {
            let f = FrameBuilder::tcp(0x0a00_0000 + ((i / 32) % 256) as u32, 0xc0a8_0001, 1024, 80)
                .payload(b"x")
                .build_ethernet();
            CapPacket::full(i as u64 * 500_000, 0, LinkType::Ethernet, f)
        })
        .collect();
    let mut gsa = Gigascope::new();
    gsa.add_interface("eth0", 0, LinkType::Ethernet);
    gsa.add_program(
        "DEFINE { query_name raw; } Select time, srcIP, len From eth0.tcp; \
         DEFINE { query_name persrc; } \
         Select time, srcIP, count(*), sum(len), min(len), max(len) From raw \
         Group By time, srcIP",
    )
    .unwrap();
    g.bench_function("threaded_agg", |b| {
        b.iter(|| run_threaded(&gsa, bursty.iter().cloned(), &["persrc"]).unwrap())
    });
    g.finish();
}

/// Registration scaling of the shared cross-query prefilter (DESIGN
/// §14): N per-port selection queries drawn from a 20-port pool, so the
/// shared pass dedupes them to at most 20 distinct atoms/BPF programs
/// and dispatch cost tracks distinct *signatures*, not registrations.
/// The q1/q10/q100 series is the scaling curve; `dispatch_port80` times
/// the per-packet pass alone.
fn bench_prefilter(c: &mut Criterion) {
    use gigascope::Gigascope;
    use gs_netgen::mix::{MixConfig, PacketMix};

    const PORTS: [u16; 20] = [
        80, 443, 53, 25, 8080, 22, 123, 161, 1433, 3306, 5060, 5432, 6379, 8443, 9090, 1024, 2048,
        4096, 3128, 179,
    ];
    let program = |n: usize| -> String {
        (0..n)
            .map(|i| {
                format!(
                    "DEFINE {{ query_name q{i}; }} \
                     Select time, destPort From eth0.tcp Where destPort = {};\n",
                    PORTS[i % PORTS.len()]
                )
            })
            .collect()
    };
    let pkts: Vec<CapPacket> =
        PacketMix::new(MixConfig { seed: 7, duration_ms: 160, ..MixConfig::default() }).collect();
    let mut g = c.benchmark_group("prefilter");
    g.throughput(Throughput::Elements(pkts.len() as u64));
    for n in [1usize, 10, 100] {
        let mut gs = Gigascope::new();
        gs.add_interface("eth0", 0, LinkType::Ethernet);
        gs.add_program(&program(n)).unwrap();
        g.bench_function(&format!("registration_scaling_q{n}"), |b| {
            b.iter(|| gs.run_capture(pkts.iter().cloned(), &[]).unwrap())
        });
    }
    // `SharedPrefilter::dispatch` alone, on the end-to-end `filter`
    // shape: one `destPort = 80` LFTA over a mix in which about 2 % of
    // packets are port-80 traffic, so nearly every packet is rejected by
    // its BPF program.
    let mix = MixConfig {
        seed: 7,
        duration_ms: 500,
        http_rate_mbps: 0.6,
        background_rate_mbps: 29.4,
        ..MixConfig::default()
    };
    let pkts: Vec<CapPacket> = PacketMix::new(mix).collect();
    let mut slots = [(gs_bench::build_port80_lfta(), 0u16)];
    let mut pass = SharedPrefilter::new();
    pass.add_lfta(&slots[0].0, 0);
    let mut outs = [Vec::new()];
    g.throughput(Throughput::Elements(pkts.len() as u64));
    g.bench_function("dispatch_port80", |b| {
        b.iter(|| {
            for p in &pkts {
                pass.dispatch(black_box(p), &mut slots, &mut outs);
                outs[0].clear();
            }
        })
    });
    g.finish();
}

fn bench_defrag(c: &mut Criterion) {
    let pkts = sample_packets(512);
    let mut g = c.benchmark_group("defrag");
    g.throughput(Throughput::Elements(pkts.len() as u64));
    g.bench_function("passthrough", |b| {
        b.iter(|| {
            let mut d = Defragmenter::new();
            let mut out = Vec::new();
            for p in &pkts {
                d.push(black_box(p.clone()), &mut out);
                out.clear();
            }
        })
    });
    g.finish();
}

fn main() {
    let mut c = Criterion::new();
    bench_bpf(&mut c);
    bench_packet_parse(&mut c);
    bench_regex(&mut c);
    bench_lpm(&mut c);
    bench_lfta(&mut c);
    bench_aggregation(&mut c);
    bench_expr(&mut c);
    bench_frontend(&mut c);
    bench_merge_join(&mut c);
    bench_manager(&mut c);
    bench_prefilter(&mut c);
    bench_defrag(&mut c);
}
