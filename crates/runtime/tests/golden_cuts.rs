//! Snapshot compatibility of the merge and window-join roots and of the
//! aggregate.
//!
//! The three root cuts below were sealed by the row-at-a-time operators
//! that preceded the columnar ones, mid-window, with rows buffered on
//! both inputs (and, for the sorted join, results held for release). The
//! aggregate cut was sealed by the hash-map aggregator that preceded the
//! slab, with groups open in two flush buckets. Each test restores its
//! cut into a freshly built operator, feeds the same tail the writer was
//! then fed, and expects exactly the rows the writer emitted — so a
//! `--state-dir` written before the change resumes as if nothing had
//! changed. A banded join's cut re-sealed by the new code is the golden
//! cut, byte for byte; an aggregate's cut is a function of its open
//! groups, so a restored and a continuous run re-seal the same bytes.

use gs_gsql::ast::{AggFunc, BinOp};
use gs_gsql::plan::{Literal, PExpr};
use gs_gsql::types::DataType;
use gs_runtime::batch::ColumnBatch;
use gs_runtime::expr::Program;
use gs_runtime::ops::agg::{AggCore, AggregateOp};
use gs_runtime::ops::join::{EmitMode, JoinConfig, JoinOp};
use gs_runtime::ops::merge::MergeOp;
use gs_runtime::ops::Operator;
use gs_runtime::punct::Punct;
use gs_runtime::snapshot::{SnapReader, SnapWriter};
use gs_runtime::tuple::{StreamItem, Tuple};
use gs_runtime::udf::{FileStore, UdfRegistry};
use gs_runtime::{ParamBindings, Value};

const MERGE_CUT: &str = "4753534e020000000200000001000000000000000a00000000000000020000000401000000000000000a03000000010400000004302d313002401400000000000001000000000000000a0100000000000000080000000002000000000000000900000000000000060000000401000000000000000903000000020400000003312d39024012000000000000000000000000000b00000000000000050000000401000000000000000b03000000020400000004312d313102401600000000000001000000000000000b010000000000000008000000000000000006010000000000000008000000000000000501000000000000000600000000000000030000000000000003000000000000000170e4bc676780c5e0";

const JOIN_BANDED_CUT: &str = "4753534e0200000003000000000000000100000001030000000100000004010000000000000001030000000104000000026c31023fe0000000000000000000000000000200000001030000000200000004010000000000000002030000000204000000026c32023ff0000000000000000000000000000300000001030000000100000004010000000000000003030000000104000000026c33023ff800000000000000000000000000000100000000000000030000000000000000000000000300000000000000020000000103000000010000000401000000000000000203000000010400000003723261023ff0000000000000000000000000000100000001030000000200000004010000000000000001030000000204000000027231023fe0000000000000000000000000000300000001030000000200000004010000000000000003030000000204000000027233023ff800000000000000000000000000000100000000000000030000000000000000000000000000000000000000000000000000000006000000000000000000000000000000040000000000000006000000000000000400000000000000006089ad4955afbcbf";

const JOIN_SORTED_CUT: &str = "4753534e0200000003000000000000000100000001030000000100000004010000000000000001030000000104000000026c31023fe0000000000000000000000000000200000001030000000200000004010000000000000002030000000204000000026c32023ff0000000000000000000000000000300000001030000000100000004010000000000000003030000000104000000026c33023ff800000000000000000000000000000100000000000000030000000000000000000000000300000000000000020000000103000000010000000401000000000000000203000000010400000003723261023ff0000000000000000000000000000100000001030000000200000004010000000000000001030000000204000000027231023fe0000000000000000000000000000300000001030000000200000004010000000000000003030000000204000000027233023ff80000000000000000000000000000010000000000000003000000000000000000000000030000000000000002000000000000000200000005010000000000000002030000000204000000026c3204000000027231023fe00000000000000000000000000003000000000000000300000005010000000000000003030000000104000000026c330400000003723261023ff00000000000000000000000000002000000000000000400000005010000000000000002030000000204000000026c3204000000027233023ff80000000000000000000000000004000000000000000600000000000000030000000000000004000000000000000600000000000000040000000000000000ddd634c66689ac77";

const AGG_CUT: &str = "4753534e02000000050000000201000000000000000103000000020000000600000000000000000101000000000000000103010400000001620401023fe0000000000000023fe000000000000003000000000201000000000000000203000000010000000600000000000000000101000000000000000203010400000001630401023ff0000000000000023ff000000000000003000000000201000000000000000103000000010000000600000000000000000201000000000000000203010400000001610401023fe0000000000000023ff000000000000003000000000201000000000000000203000000030000000600000000000000000101000000000000000203010400000001670401023ff0000000000000023ff000000000000003000000000201000000000000000203000000020000000600000000000000000201000000000000000403010400000001650401023ff00000000000000240000000000000000300010000000000000002000000000000000100000000000000050000000000000008000000000000000100000000000000008ed9f9c565e78c47";

fn unhex(s: &str) -> Vec<u8> {
    (0..s.len()).step_by(2).map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap()).collect()
}

/// `(ts, key, name, ts / 2)`: a row of every column type the cuts hold.
fn row(ts: u64, key: u32, name: &str) -> Vec<Value> {
    vec![
        Value::UInt(ts),
        Value::Ip(key),
        Value::Str(bytes::Bytes::copy_from_slice(name.as_bytes())),
        Value::Float(ts as f64 / 2.0),
    ]
}

fn batch(rows: &[(u64, u32, &str)]) -> ColumnBatch {
    let tuples: Vec<Tuple> = rows.iter().map(|&(ts, k, n)| Tuple::new(row(ts, k, n))).collect();
    ColumnBatch::from_tuples(&tuples)
}

fn punct(v: u64) -> Option<Punct> {
    Some(Punct::new(0, Value::UInt(v)))
}

fn t(ts: u64, key: u32, name: &str) -> StreamItem {
    StreamItem::Tuple(Tuple::new(row(ts, key, name)))
}

fn p(v: u64) -> StreamItem {
    StreamItem::Punct(Punct::new(0, Value::UInt(v)))
}

fn col(i: usize, ty: DataType) -> PExpr {
    PExpr::Col { index: i, ty }
}

fn prog(pe: &PExpr) -> Program {
    Program::compile(pe, &ParamBindings::new(), &UdfRegistry::with_builtins(), &FileStore::new())
        .unwrap()
}

/// The join the cuts were taken from: a ±1 band on `ts` with slack 1 on
/// both sides, `key` as the hash key, a string residual, and five
/// projections across both sides.
fn join(emit: EmitMode) -> JoinOp {
    let cfg = JoinConfig {
        left_col: 0,
        right_col: 0,
        lo: -1,
        hi: 1,
        left_slack: 1,
        right_slack: 1,
        eq_keys: vec![(1, 1)],
        emit,
        sort_out_col: 0,
    };
    let residual = prog(&PExpr::Binary {
        op: BinOp::Ne,
        left: Box::new(col(2, DataType::Str)),
        right: Box::new(col(6, DataType::Str)),
        ty: DataType::Bool,
    });
    let projections = vec![
        prog(&col(0, DataType::UInt)),
        prog(&col(1, DataType::Ip)),
        prog(&col(2, DataType::Str)),
        prog(&col(6, DataType::Str)),
        prog(&col(7, DataType::Float)),
    ];
    JoinOp::new(cfg, Some(residual), projections)
}

fn restored_join(emit: EmitMode, cut: &[u8]) -> JoinOp {
    let mut j = join(emit);
    let mut r = SnapReader::open(cut).expect("golden cut opens");
    j.restore(&mut r).expect("golden cut restores");
    r.finish().expect("golden cut fully consumed");
    assert_eq!(j.buffered(), 6, "three rows buffered on each side");
    j
}

/// The tail fed after the join cuts, and the rows it releases.
fn join_tail(j: &mut JoinOp) -> Vec<StreamItem> {
    let mut out = j.push_cols(0, batch(&[(4, 2, "l4"), (3, 2, "l3b")]), None).into_items(None);
    out.extend(j.push_cols(1, batch(&[(5, 1, "r5"), (4, 1, "r4")]), None).into_items(None));
    out.extend(j.push_cols(0, ColumnBatch::default(), punct(6)).into_items(None));
    out.extend(j.push_cols(1, batch(&[(6, 2, "r6")]), None).into_items(None));
    out.extend(j.finish().into_items(None));
    out
}

fn joined(l: (u64, u32, &str), r: (u64, &str)) -> StreamItem {
    StreamItem::Tuple(Tuple::new(vec![
        Value::UInt(l.0),
        Value::Ip(l.1),
        Value::Str(bytes::Bytes::copy_from_slice(l.2.as_bytes())),
        Value::Str(bytes::Bytes::copy_from_slice(r.1.as_bytes())),
        Value::Float(r.0 as f64 / 2.0),
    ]))
}

#[test]
fn merge_cut_restores_and_continues() {
    let mut m = MergeOp::new(2, 0, vec![2, 3]);
    let cut = unhex(MERGE_CUT);
    let mut r = SnapReader::open(&cut).expect("golden cut opens");
    m.restore(&mut r).expect("golden cut restores");
    r.finish().expect("golden cut fully consumed");
    assert_eq!(m.buffered(), 3);
    assert!(m.starved);

    let mut out = Vec::new();
    for (port, rows, tok) in [
        (0, vec![(12, 1, "0-12"), (11, 1, "0-11")], None),
        (1, vec![(14, 2, "1-14"), (12, 2, "1-12")], None),
        (0, vec![(16, 1, "0-16")], punct(15)),
    ] {
        let (cb, p) = m.push_cols(port, batch(&rows), tok);
        out.extend(cb.into_items(p));
    }
    out.extend(m.finish().into_items(None));
    let want = vec![
        t(9, 2, "1-9"),
        t(10, 1, "0-10"),
        p(10),
        t(11, 2, "1-11"),
        t(11, 1, "0-11"),
        p(11),
        t(12, 1, "0-12"),
        t(12, 2, "1-12"),
        t(14, 2, "1-14"),
        t(16, 1, "0-16"),
    ];
    assert_eq!(out, want);
}

#[test]
fn banded_join_cut_restores_continues_and_reseals_byte_identical() {
    let golden = unhex(JOIN_BANDED_CUT);
    let mut j = restored_join(EmitMode::Banded, &golden);
    let mut w = SnapWriter::new();
    j.snapshot(&mut w);
    assert_eq!(w.seal(), golden, "a restored cut re-seals to the same bytes");

    let want = vec![
        joined((4, 2, "l4"), (3, "r3")),
        joined((3, 2, "l3b"), (3, "r3")),
        joined((3, 1, "l3"), (4, "r4")),
    ];
    assert_eq!(join_tail(&mut j), want);
    assert_eq!(j.produced, 7);
}

#[test]
fn sorted_join_cut_restores_and_releases_in_order() {
    let mut j = restored_join(EmitMode::Sorted, &unhex(JOIN_SORTED_CUT));
    let want = vec![
        joined((2, 2, "l2"), (1, "r1")),
        joined((2, 2, "l2"), (3, "r3")),
        joined((3, 1, "l3"), (2, "r2a")),
        joined((3, 2, "l3b"), (3, "r3")),
        joined((3, 1, "l3"), (4, "r4")),
        joined((4, 2, "l4"), (3, "r3")),
    ];
    assert_eq!(join_tail(&mut j), want);
    assert_eq!(j.produced, 7);
}

/// The aggregate the cut was taken from: group by `(ts, key)`, flushing
/// on `ts` with slack 1, with `count(*)`, an integer sum, a string `min`,
/// a float `max`, a float sum, and a `min` whose argument (`ts / 0`)
/// never evaluates.
fn agg() -> AggregateOp {
    let never = prog(&PExpr::Binary {
        op: BinOp::Div,
        left: Box::new(col(0, DataType::UInt)),
        right: Box::new(PExpr::Lit(Literal::UInt(0))),
        ty: DataType::UInt,
    });
    let core = AggCore::new(
        vec![prog(&col(0, DataType::UInt)), prog(&col(1, DataType::Ip))],
        vec![
            (AggFunc::Count, None, DataType::UInt),
            (AggFunc::Sum, Some(prog(&col(0, DataType::UInt))), DataType::UInt),
            (AggFunc::Min, Some(prog(&col(2, DataType::Str))), DataType::Str),
            (AggFunc::Max, Some(prog(&col(3, DataType::Float))), DataType::Float),
            (AggFunc::Sum, Some(prog(&col(3, DataType::Float))), DataType::Float),
            (AggFunc::Min, Some(never), DataType::UInt),
        ],
        Some(0),
        1,
    );
    AggregateOp::new(core, Some((0, 1)), Some(0))
}

/// Feed row items to the aggregate, cut into batches at each
/// punctuation, appending its output rows and riders to `out`.
fn push_agg(a: &mut AggregateOp, items: Vec<StreamItem>, out: &mut Vec<StreamItem>) {
    for (cb, tok) in ColumnBatch::from_items(items) {
        let (cb, tok) = a.push_cols(cb, tok);
        out.extend(cb.into_items(tok));
    }
}

fn finish_agg(a: &mut AggregateOp, out: &mut Vec<StreamItem>) {
    out.extend(a.finish().into_items(None));
}

/// The rows the writer was fed before its cut: bucket 0 closed, then
/// five groups open across buckets 1 and 2.
fn agg_head() -> Vec<StreamItem> {
    vec![
        t(0, 1, "z"),
        t(1, 1, "a"),
        t(1, 2, "b"),
        t(2, 1, "c"),
        t(1, 1, "d"),
        t(2, 2, "f"),
        t(2, 2, "e"),
        t(2, 3, "g"),
    ]
}

fn restored_agg(cut: &[u8]) -> AggregateOp {
    let mut a = agg();
    let mut r = SnapReader::open(cut).expect("golden cut opens");
    Operator::restore(&mut a, &mut r).expect("golden cut restores");
    r.finish().expect("golden cut fully consumed");
    assert_eq!(a.held(), 5, "five groups open in two buckets");
    a
}

fn seal(a: &AggregateOp) -> Vec<u8> {
    let mut w = SnapWriter::new();
    Operator::snapshot(a, &mut w);
    w.seal()
}

/// `(ts, key)`'s output row: count, sum(ts), min(name), max(ts / 2),
/// sum(ts / 2), and the never-evaluated min as zero.
fn agg_row(ts: u64, key: u32, n: u64, min: &str, max: f64, sum: f64) -> StreamItem {
    StreamItem::Tuple(Tuple::new(vec![
        Value::UInt(ts),
        Value::Ip(key),
        Value::UInt(n),
        Value::UInt(n * ts),
        Value::Str(bytes::Bytes::copy_from_slice(min.as_bytes())),
        Value::Float(max),
        Value::Float(sum),
        Value::UInt(0),
    ]))
}

#[test]
fn aggregate_cut_restores_and_continues() {
    let mut a = restored_agg(&unhex(AGG_CUT));
    let mut out = Vec::new();
    push_agg(&mut a, vec![t(3, 1, "h"), t(2, 3, "i"), p(3)], &mut out);
    push_agg(&mut a, vec![t(4, 2, "j")], &mut out);
    finish_agg(&mut a, &mut out);
    let want = vec![
        agg_row(1, 1, 2, "a", 0.5, 1.0),
        agg_row(1, 2, 1, "b", 0.5, 0.5),
        agg_row(2, 1, 1, "c", 1.0, 1.0),
        agg_row(2, 2, 2, "e", 1.0, 2.0),
        agg_row(2, 3, 2, "g", 1.0, 2.0),
        p(3),
        agg_row(3, 1, 1, "h", 1.5, 1.5),
        agg_row(4, 2, 1, "j", 2.0, 2.0),
    ];
    assert_eq!(out, want);
    assert_eq!(a.emitted, 8);
}

/// A cut is a function of the open groups, not of how they were laid
/// out: the continuous writer and a run restored from the golden cut,
/// fed the same tail, seal the same bytes — and keep emitting the same
/// rows.
#[test]
fn aggregate_cuts_are_a_function_of_the_open_groups() {
    let mut cont = agg();
    let mut cont_out = Vec::new();
    push_agg(&mut cont, agg_head(), &mut cont_out);
    let mut restored = restored_agg(&unhex(AGG_CUT));
    let mut restored_out = Vec::new();
    let tail = vec![t(3, 1, "h"), t(2, 3, "i"), t(3, 9, "k"), t(3, 4, "m")];
    cont_out.clear();
    push_agg(&mut cont, tail.clone(), &mut cont_out);
    push_agg(&mut restored, tail, &mut restored_out);
    assert_eq!(restored.held(), 6, "buckets 2 and 3 open");
    assert_eq!(seal(&cont), seal(&restored), "re-sealed cuts are byte-identical");
    for (a, out) in [(&mut cont, &mut cont_out), (&mut restored, &mut restored_out)] {
        push_agg(a, vec![p(4), t(4, 2, "n")], out);
        finish_agg(a, out);
    }
    assert_eq!(cont_out, restored_out);
}
