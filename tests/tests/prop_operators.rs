//! Property tests on operator invariants: merge sortedness, LFTA/HFTA
//! aggregation equivalence, LPM-vs-linear-scan agreement, and shedder
//! conservation.
//!
//! Runs on the in-repo deterministic harness ([`gs_tests::prop`]); the
//! property assertions are unchanged from the original proptest suite.

use gs_gsql::ast::AggFunc;
use gs_runtime::batch::ColumnBatch;
use gs_gsql::plan::PExpr;
use gs_gsql::types::DataType;
use gs_netgen::prefixes::{generate_prefixes, reference_lpm, render_table};
use gs_runtime::expr::Program;
use gs_runtime::ops::agg::{AggCore, DirectMappedAggregator, GroupAggregator};
use gs_runtime::ops::merge::MergeOp;
use gs_runtime::qos::{DropPolicy, Shedder};
use gs_runtime::tuple::{tuples_of, StreamItem, Tuple};
use gs_runtime::udf::lpm::LpmTrie;
use gs_runtime::udf::{FileStore, UdfRegistry};
use gs_runtime::{ParamBindings, Value};
use gs_tests::prop::{check, Gen, DEFAULT_CASES};
use std::collections::BTreeMap;

fn col_prog(i: usize) -> Program {
    Program::compile(
        &PExpr::Col { index: i, ty: DataType::UInt },
        &ParamBindings::new(),
        &UdfRegistry::with_builtins(),
        &FileStore::new(),
    )
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
