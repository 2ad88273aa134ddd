//! Property tests on operator invariants: merge sortedness, LFTA/HFTA
//! aggregation equivalence, exact aggregation against the HFTA oracle,
//! LPM-vs-linear-scan agreement, and shedder conservation.
//!
//! Runs on the in-repo deterministic harness ([`gs_tests::prop`]); the
//! property assertions are unchanged from the original proptest suite.

use gs_gsql::ast::AggFunc;
use gs_runtime::batch::ColumnBatch;
use gs_gsql::plan::{AggSpec, PExpr, Plan};
use gs_gsql::types::DataType;
use gs_netgen::prefixes::{generate_prefixes, reference_lpm, render_table};
use gs_runtime::expr::Program;
use gs_runtime::batch::ColStep;
use gs_runtime::ops::agg::{AggCore, AggregateOp, DirectMappedAggregator, GroupAggregator};
use gs_runtime::ops::merge::MergeOp;
use gs_runtime::ops::Operator;
use gs_runtime::punct::Punct;
use gs_runtime::qos::{DropPolicy, Shedder};
use gs_runtime::tuple::{tuples_of, StreamItem, Tuple};
use gs_runtime::udf::lpm::LpmTrie;
use gs_runtime::udf::{FileStore, UdfRegistry};
use gs_runtime::{ParamBindings, Value};
use gs_tests::oracle_plan;
use gs_tests::prop::{check, Gen, DEFAULT_CASES};
use std::collections::BTreeMap;

fn col_prog(i: usize) -> Program {
    compile(&PExpr::Col { index: i, ty: DataType::UInt })
}

fn compile(pe: &PExpr) -> Program {
    Program::compile(pe, &ParamBindings::new(), &UdfRegistry::with_builtins(), &FileStore::new())
        .unwrap()
}

/// A one-column batch of `vals`.
fn uints(vals: &[u64]) -> ColumnBatch {
    let rows: Vec<Tuple> = vals.iter().map(|&v| Tuple::new(vec![Value::UInt(v)])).collect();
    ColumnBatch::from_tuples(&rows)
}

/// Push `vals` into merge input `port`, appending what it releases.
fn merge_push(m: &mut MergeOp, port: usize, vals: &[u64], out: &mut Vec<StreamItem>) {
    let (cb, p) = m.push_cols(port, uints(vals), None);
    out.extend(cb.into_items(p));
}

/// Sorted input stream for the merge.
fn arb_sorted(g: &mut Gen, max_len: usize) -> Vec<u64> {
    let mut v = g.vec_with(0..max_len, |g| g.u64(0..500));
    v.sort_unstable();
    v
}

#[test]
fn merge_output_is_sorted_union() {
    check("merge_output_is_sorted_union", DEFAULT_CASES, |g| {
        let a = arb_sorted(g, 60);
        let b = arb_sorted(g, 60);
        let c = arb_sorted(g, 60);
        let mut m = MergeOp::new(3, 0, vec![0, 0, 0]);
        let mut out = Vec::new();
        // Round-robin feed preserving each stream's internal order.
        let streams = [&a, &b, &c];
        let mut idx = [0usize; 3];
        loop {
            let mut progressed = false;
            for (port, s) in streams.iter().enumerate() {
                if idx[port] < s.len() {
                    merge_push(&mut m, port, &[s[idx[port]]], &mut out);
                    idx[port] += 1;
                    progressed = true;
                }
            }
            if !progressed {
                break;
            }
        }
        out.extend(m.finish().into_items(None));
        let got: Vec<u64> =
            tuples_of(out).iter().map(|t| t.get(0).as_uint().unwrap()).collect();
        let mut expected = [a.clone(), b.clone(), c.clone()].concat();
        expected.sort_unstable();
        assert_eq!(got, expected, "merge must be a sorted union");
    });
}

#[test]
fn split_aggregation_equals_exact() {
    check("split_aggregation_equals_exact", DEFAULT_CASES, |g| {
        // Input rows (bucket, key, weight), bucket nondecreasing after sort.
        let mut rows = g.vec_with(0..300, |g| (g.u64(0..20), g.u64(0..8), g.u64(1..100)));
        let table_bits = g.u32(0..6);
        rows.sort_by_key(|r| r.0);

        let mk_core = || {
            AggCore::new(
                vec![col_prog(0), col_prog(1)],
                vec![
                    (AggFunc::Count, None, DataType::UInt),
                    (AggFunc::Sum, Some(col_prog(2)), DataType::UInt),
                    (AggFunc::Min, Some(col_prog(2)), DataType::UInt),
                    (AggFunc::Max, Some(col_prog(2)), DataType::UInt),
                ],
                Some(0),
                0,
            )
        };
        // Combine partials: count->sum(col2), sum->sum(col3), min->min(col4), max->max(col5).
        let combine = AggCore::new(
            vec![col_prog(0), col_prog(1)],
            vec![
                (AggFunc::Sum, Some(col_prog(2)), DataType::UInt),
                (AggFunc::Sum, Some(col_prog(3)), DataType::UInt),
                (AggFunc::Min, Some(col_prog(4)), DataType::UInt),
                (AggFunc::Max, Some(col_prog(5)), DataType::UInt),
            ],
            Some(0),
            0,
        );

        let mut dm = DirectMappedAggregator::new(mk_core(), 1usize << table_bits);
        let mut exact = GroupAggregator::new(mk_core());
        let mut comb = GroupAggregator::new(combine);

        let mut partials = Vec::new();
        let mut direct = Vec::new();
        for &(b, k, w) in &rows {
            let t = Tuple::new(vec![Value::UInt(b), Value::UInt(k), Value::UInt(w)]);
            dm.update(&t, &mut partials);
            exact.update(&t, &mut direct);
        }
        dm.finish(&mut partials);
        exact.finish(&mut direct);
        let mut combined = Vec::new();
        for p in tuples_of(partials) {
            comb.update(&p, &mut combined);
        }
        comb.finish(&mut combined);

        let as_map = |items: Vec<StreamItem>| -> BTreeMap<(u64, u64), (u64, u64, u64, u64)> {
            tuples_of(items)
                .into_iter()
                .map(|t| {
                    (
                        (t.get(0).as_uint().unwrap(), t.get(1).as_uint().unwrap()),
                        (
                            t.get(2).as_uint().unwrap(),
                            t.get(3).as_uint().unwrap(),
                            t.get(4).as_uint().unwrap(),
                            t.get(5).as_uint().unwrap(),
                        ),
                    )
                })
                .collect()
        };
        assert_eq!(
            as_map(combined),
            as_map(direct),
            "LFTA partials + HFTA combine must equal exact aggregation"
        );
    });
}

/// Rows `(ts, u, ip, s, f, x)` of one input stream: `ts` banded within
/// `slack`, and keys from small typed domains — uints that collide in
/// the key hash (2^53 and 2^53 + 1 widen to one `f64`), addresses,
/// strings, and floats with NaN and both zeros.
fn typed_rows(g: &mut Gen, slack: u64) -> Vec<Tuple> {
    const UINTS: [u64; 4] = [0, 7, 1 << 53, (1 << 53) + 1];
    const FLOATS: [f64; 4] = [f64::NAN, -0.0, 0.0, 1.5];
    const STRS: [&str; 3] = ["", "a", "ab"];
    let mut base = 0u64;
    g.vec_with(0..300, |g| {
        base += u64::from(g.u32(0..8) == 0);
        let ts = base.saturating_sub(g.u64(0..slack + 1));
        Tuple::new(vec![
            Value::UInt(ts),
            Value::UInt(*g.choice(&UINTS)),
            Value::Ip(g.u32(0..3)),
            Value::Str(bytes::Bytes::from_static(g.choice(&STRS).as_bytes())),
            Value::Float(*g.choice(&FLOATS)),
            Value::Float(*g.choice(&[0.5, 1.25, 3.0])),
        ])
    })
}

/// Exact aggregation of typed keys equals the oracle's `BTreeMap`
/// grouping row for row — the slab's total flush order is the map's key
/// order when the flush attribute leads the key — at every batch size,
/// with punctuation mid-batch and a banded flush attribute.
#[test]
fn exact_aggregation_of_typed_keys_matches_oracle() {
    check("exact_aggregation_of_typed_keys_matches_oracle", DEFAULT_CASES, |g| {
        let slack = g.u64(0..3);
        let rows = typed_rows(g, slack);
        let tys = [DataType::UInt, DataType::UInt, DataType::Ip, DataType::Str, DataType::Float];
        let col = |i: usize, ty| PExpr::Col { index: i, ty };
        // `ts` and a random nonempty subset of the typed key columns.
        let mut keys = vec![0];
        while keys.len() == 1 {
            keys.extend((1..5).filter(|_| g.bool()));
        }
        let group: Vec<(String, PExpr)> =
            keys.iter().map(|&i| (format!("k{i}"), col(i, tys[i]))).collect();
        let spec = |func, arg: Option<PExpr>, ty| AggSpec { name: String::new(), func, arg, ty };
        let aggs = vec![
            spec(AggFunc::Count, None, DataType::UInt),
            spec(AggFunc::Sum, Some(col(1, DataType::UInt)), DataType::UInt),
            spec(AggFunc::Sum, Some(col(5, DataType::Float)), DataType::Float),
            spec(AggFunc::Min, Some(col(4, DataType::Float)), DataType::Float),
            spec(AggFunc::Max, Some(col(3, DataType::Str)), DataType::Str),
        ];
        let plan = Plan::Aggregate {
            group: group.clone(),
            aggs: aggs.clone(),
            flush_group_idx: Some(0),
            input: Box::new(Plan::StreamScan { stream: "in".into(), schema: Vec::new() }),
            schema: Vec::new(),
        };
        let want = oracle_plan(&plan, &BTreeMap::from([("in".to_string(), rows.clone())]));

        // Punctuation between rows, each bounding every row after it.
        let mut items = Vec::new();
        for (i, row) in rows.iter().enumerate() {
            if g.u32(0..16) == 0 {
                let low = rows[i..].iter().map(|r| r.get(0).as_uint().unwrap()).min().unwrap();
                items.push(StreamItem::Punct(Punct::new(0, Value::UInt(low))));
            }
            items.push(StreamItem::Tuple(row.clone()));
        }
        let canon = |rows: &[Tuple]| -> Vec<String> {
            rows.iter().map(|t| format!("{:?}", t.values())).collect()
        };
        for batch in [1, 7, 256] {
            let core = AggCore::new(
                group.iter().map(|(_, e)| compile(e)).collect(),
                aggs.iter().map(|a| (a.func, a.arg.as_ref().map(compile), a.ty)).collect(),
                Some(0),
                slack,
            );
            let mut op = AggregateOp::new(GroupAggregator::new(core), Some((0, 1)), Some(0));
            let mut out = Vec::new();
            let mut pending: Vec<Tuple> = Vec::new();
            let mut push = |op: &mut AggregateOp, pending: &mut Vec<Tuple>, p: Option<Punct>| {
                let cb = ColumnBatch::from_tuples(&std::mem::take(pending));
                let ColStep::Cols(cb, p) = op.push_cols(cb, p) else {
                    panic!("aggregation output is columnar");
                };
                out.extend(cb.into_items(p));
            };
            for item in &items {
                match item {
                    StreamItem::Tuple(t) => {
                        pending.push(t.clone());
                        if pending.len() == batch {
                            push(&mut op, &mut pending, None);
                        }
                    }
                    StreamItem::Punct(p) => push(&mut op, &mut pending, Some(p.clone())),
                }
            }
            push(&mut op, &mut pending, None);
            op.finish(&mut out);
            let got = tuples_of(out);
            assert_eq!(canon(&got), canon(&want), "batch {batch}, slack {slack}, keys {keys:?}");
        }
    });
}

#[test]
fn lpm_trie_agrees_with_linear_scan() {
    check("lpm_trie_agrees_with_linear_scan", DEFAULT_CASES, |g| {
        let seed: u64 = g.any();
        let addrs = g.vec_with(1..64, |g| g.any::<u32>());
        let entries = generate_prefixes(seed, 25);
        let trie = LpmTrie::parse_table(&render_table(&entries)).unwrap();
        for a in addrs {
            assert_eq!(trie.lookup(a), reference_lpm(&entries, a), "addr {a:#x}");
        }
    });
}

#[test]
fn shedder_conserves_items() {
    check("shedder_conserves_items", DEFAULT_CASES, |g| {
        let offers = g.vec_with(0..200, |g| (g.u32(0..6), g.any::<u8>()));
        let cap = g.usize(1..32);
        let lpf: bool = g.bool();
        let policy = if lpf { DropPolicy::LeastProcessedFirst } else { DropPolicy::TailDrop };
        let mut s: Shedder<u8> = Shedder::new(cap, policy);
        let mut popped = 0u64;
        for (i, &(d, v)) in offers.iter().enumerate() {
            s.offer(d, v);
            if i % 3 == 0
                && s.pop().is_some() {
                    popped += 1;
                }
        }
        let mut rest = 0u64;
        while s.pop().is_some() {
            rest += 1;
        }
        assert_eq!(
            popped + rest + s.total_dropped(),
            offers.len() as u64,
            "every offered item is delivered or counted dropped"
        );
    });
}

#[test]
fn banded_merge_never_out_of_band() {
    check("banded_merge_never_out_of_band", DEFAULT_CASES, |g| {
        let base = arb_sorted(g, 80);
        let jitter = g.vec_with(0..80, |g| g.u64(0..5));
        // Input 0 is banded(5): values may lag the watermark by up to 5.
        let banded: Vec<u64> = base
            .iter()
            .zip(jitter.iter().chain(std::iter::repeat(&0)))
            .map(|(&v, &j)| v.saturating_sub(j))
            .collect();
        let mut m = MergeOp::new(2, 0, vec![5, 0]);
        let mut out = Vec::new();
        for &v in &banded {
            merge_push(&mut m, 0, &[v], &mut out);
        }
        for &v in &base {
            merge_push(&mut m, 1, &[v], &mut out);
        }
        out.extend(m.finish().into_items(None));
        let got: Vec<u64> =
            tuples_of(out).iter().map(|t| t.get(0).as_uint().unwrap()).collect();
        // Output is the sorted multiset union.
        let mut expected = [banded, base].concat();
        expected.sort_unstable();
        assert_eq!(got, expected);
    });
}

use gs_runtime::ops::join::{EmitMode, JoinConfig, JoinOp};

#[test]
fn sorted_join_always_monotone_banded_join_same_multiset() {
    check("sorted_join_always_monotone_banded_join_same_multiset", 128, |g| {
        let base = g.vec_with(1..120, |g| g.u64(0..200));
        let jitter = g.vec_with(1..120, |g| g.u64(0..4));
        // Both inputs banded(4): values lag a sorted walk by up to 4.
        let mut sorted_base = base.clone();
        sorted_base.sort_unstable();
        let seq: Vec<u64> = sorted_base
            .iter()
            .zip(jitter.iter().chain(std::iter::repeat(&0)))
            .map(|(&v, &j)| v.saturating_sub(j))
            .collect();
        let mk = |emit| {
            JoinOp::new(
                JoinConfig {
                    left_col: 0,
                    right_col: 0,
                    lo: -1,
                    hi: 1,
                    left_slack: 4,
                    right_slack: 4,
                    eq_keys: vec![],
                    emit,
                    sort_out_col: 0,
                },
                None,
                vec![col_prog(0)],
            )
        };
        let run = |mut j: JoinOp| {
            let mut out = Vec::new();
            for &v in &seq {
                out.extend(j.push_cols(0, uints(&[v]), None).into_items(None));
                out.extend(j.push_cols(1, uints(&[v]), None).into_items(None));
            }
            out.extend(j.finish().into_items(None));
            tuples_of(out)
                .iter()
                .map(|t| t.get(0).as_uint().unwrap())
                .collect::<Vec<u64>>()
        };
        let banded = run(mk(EmitMode::Banded));
        let sorted = run(mk(EmitMode::Sorted));
        assert!(
            sorted.windows(2).all(|w| w[0] <= w[1]),
            "sorted emission must be monotone: {sorted:?}"
        );
        let norm = |mut v: Vec<u64>| {
            v.sort_unstable();
            v
        };
        assert_eq!(norm(banded), norm(sorted), "emit mode must not change results");
    });
}
