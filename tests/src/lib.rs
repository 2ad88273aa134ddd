//! Shared helpers for the cross-crate integration tests: straightforward
//! *oracle* implementations the engine's output is compared against, and a
//! reference backtracking regex matcher for property tests.

use gigascope::{Gigascope, StreamItem, Tuple, Value};
use gs_gsql::ast::AggFunc;
use gs_gsql::plan::{AggSpec, PExpr, Plan};
use gs_gsql::types::DataType;
use gs_packet::{CapPacket, PacketView};
use gs_runtime::expr::{EvalScratch, Program};
use gs_runtime::ops::build::{build_lfta, BuildCtx};
use gs_runtime::ops::lfta::LftaStats;
use gs_runtime::udf::{FileStore, UdfRegistry};
use std::cmp::Ordering;
use std::collections::BTreeMap;

pub mod daemon;
pub mod prop;

/// Oracle: per-second counts of TCP packets to `port`, computed by direct
/// iteration (no query engine involved).
pub fn oracle_port_counts(pkts: &[CapPacket], port: u16) -> BTreeMap<u64, u64> {
    let mut out = BTreeMap::new();
    for p in pkts {
        let v = PacketView::parse(p.clone());
        if v.tcp().is_some_and(|t| t.dst_port == port) {
            *out.entry(u64::from(p.time_sec())).or_insert(0) += 1;
        }
    }
    out
}

/// Oracle: per-second `(count, byte sum)` of TCP packets to `port`.
pub fn oracle_port_count_bytes(pkts: &[CapPacket], port: u16) -> BTreeMap<u64, (u64, u64)> {
    let mut out: BTreeMap<u64, (u64, u64)> = BTreeMap::new();
    for p in pkts {
        let v = PacketView::parse(p.clone());
        if v.tcp().is_some_and(|t| t.dst_port == port) {
            let e = out.entry(u64::from(p.time_sec())).or_insert((0, 0));
            e.0 += 1;
            e.1 += u64::from(p.wire_len);
        }
    }
    out
}

/// Oracle: per-(second, srcIP) packet counts over IPv4 traffic.
pub fn oracle_src_counts(pkts: &[CapPacket]) -> BTreeMap<(u64, u32), u64> {
    let mut out = BTreeMap::new();
    for p in pkts {
        let v = PacketView::parse(p.clone());
        if let Some(ih) = v.ipv4() {
            *out.entry((u64::from(p.time_sec()), ih.src)).or_insert(0) += 1;
        }
    }
    out
}

/// Oracle for the capture point: every deployed LFTA of `gs` run on its
/// own over the whole trace — a private `build_lfta`, one
/// `Lfta::push_packet` per packet of its interface, `finish` at the end.
/// Deliberately naive: no prefilter interning, no shared pass, no
/// heartbeats, nothing of `gigascope::graph`. Returns, per LFTA stream,
/// its output tuples in emission order and its final counters.
pub fn oracle_lftas(
    gs: &Gigascope,
    pkts: &[CapPacket],
) -> BTreeMap<String, (Vec<Tuple>, LftaStats)> {
    let (params, registry, resolver) =
        (gigascope::ParamBindings::new(), UdfRegistry::with_builtins(), FileStore::new());
    let ctx = BuildCtx {
        catalog: gs.catalog(),
        params: &params,
        registry: &registry,
        resolver: &resolver,
        lfta_table_size: gs.lfta_table_size,
    };
    let mut out = BTreeMap::new();
    for spec in gs.queries().iter().flat_map(|dq| &dq.lftas) {
        let mut iface = None;
        spec.plan.visit(&mut |p| {
            if let gs_gsql::plan::Plan::ProtocolScan { interface, .. } = p {
                iface = gs.catalog().interface(interface).map(|d| d.id);
            }
        });
        let mut lfta = build_lfta(spec, &ctx).expect("deployed LFTA instantiates");
        let mut items = Vec::new();
        for p in pkts.iter().filter(|p| Some(p.iface) == iface) {
            lfta.push_packet(p, &mut items);
        }
        lfta.finish(&mut items);
        let tuples = items
            .into_iter()
            .filter_map(|i| match i {
                StreamItem::Tuple(t) => Some(t),
                StreamItem::Punct(_) => None,
            })
            .collect();
        out.insert(spec.name.clone(), (tuples, lfta.stats));
    }
    out
}

/// Oracle for everything above the capture point: every deployed HFTA
/// [`Plan`] of `gs` interpreted over the [`oracle_lftas`] output, one
/// whole relation at a time, in submission order (a query may read any
/// earlier one). Filter and Project evaluate their compiled expression
/// per row; Aggregate is a `BTreeMap` from group key to the group's
/// rows, folded per aggregate; Merge is a stable sort of the union on
/// the merge column; Join is a nested loop over every (left, right)
/// pair, keeping those inside the window whose *whole* residual —
/// equality conjuncts included — evaluates true. No batching, no
/// partitioning, no punctuation, no hashing, no windows, no queues —
/// nothing of `gigascope::dataflow` or `gs_runtime::ops` beyond
/// expression evaluation, so an engine bug cannot hide in both sides of
/// a comparison. Returns every stream (LFTA streams included) as its
/// tuples; HFTA streams come out in the interpreter's order, so compare
/// them as multisets.
pub fn oracle_hftas(gs: &Gigascope, pkts: &[CapPacket]) -> BTreeMap<String, Vec<Tuple>> {
    let mut streams: BTreeMap<String, Vec<Tuple>> =
        oracle_lftas(gs, pkts).into_iter().map(|(name, (rows, _))| (name, rows)).collect();
    for dq in gs.queries() {
        if let Some(plan) = &dq.hfta {
            let rows = interpret(plan, &streams);
            streams.insert(dq.name.clone(), rows);
        }
    }
    streams
}

/// [`oracle_hftas`]' interpreter for one plan over named input streams:
/// an operator test's reference for inputs no packet trace produces.
pub fn oracle_plan(plan: &Plan, streams: &BTreeMap<String, Vec<Tuple>>) -> Vec<Tuple> {
    interpret(plan, streams)
}

/// A group key ordered by `Value::total_cmp`, so it can key a `BTreeMap`.
#[derive(PartialEq, Eq)]
struct GroupKey(Vec<Value>);

impl Ord for GroupKey {
    fn cmp(&self, other: &GroupKey) -> Ordering {
        let by_col = self.0.iter().zip(&other.0).map(|(a, b)| a.total_cmp(b));
        by_col.fold(Ordering::Equal, Ordering::then).then(self.0.len().cmp(&other.0.len()))
    }
}

impl PartialOrd for GroupKey {
    fn partial_cmp(&self, other: &GroupKey) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// `expr` over `row`; `None` discards the row (a partial function that
/// had no result, a division by zero).
fn eval(expr: &PExpr, row: &Tuple) -> Option<Value> {
    let program = Program::compile(
        expr,
        &gigascope::ParamBindings::new(),
        &UdfRegistry::with_builtins(),
        &FileStore::new(),
    )
    .expect("deployed expression compiles");
    program.eval(row, &mut EvalScratch::default())
}

fn eval_all(exprs: &[(String, PExpr)], row: &Tuple) -> Option<Vec<Value>> {
    exprs.iter().map(|(_, e)| eval(e, row)).collect()
}

/// One aggregate over the rows of one group. A row whose argument has
/// no value does not contribute to that aggregate.
fn fold(agg: &AggSpec, rows: &[&Tuple]) -> Value {
    let args: Vec<Value> = match &agg.arg {
        None => return Value::UInt(rows.len() as u64),
        Some(arg) => rows.iter().filter_map(|r| eval(arg, r)).collect(),
    };
    const ZERO: Value = Value::UInt(0);
    let float_sum = || Value::Float(args.iter().filter_map(Value::as_float).sum());
    match agg.func {
        AggFunc::Count => Value::UInt(args.len() as u64),
        AggFunc::Sum if agg.ty == DataType::Float => float_sum(),
        AggFunc::Sum => {
            Value::UInt(args.iter().filter_map(Value::as_uint).fold(0, u64::wrapping_add))
        }
        // An unsplit `avg` accumulates as a float sum; the plan divides.
        AggFunc::Avg => float_sum(),
        // A group none of whose rows had a value still emits; as zero.
        AggFunc::Min => args.iter().min_by(|a, b| a.total_cmp(b)).cloned().unwrap_or(ZERO),
        AggFunc::Max => args.iter().max_by(|a, b| a.total_cmp(b)).cloned().unwrap_or(ZERO),
    }
}

fn interpret(plan: &Plan, streams: &BTreeMap<String, Vec<Tuple>>) -> Vec<Tuple> {
    match plan {
        Plan::StreamScan { stream, .. } => streams.get(stream).cloned().unwrap_or_default(),
        Plan::Filter { pred, input } => interpret(input, streams)
            .into_iter()
            .filter(|row| eval(pred, row) == Some(Value::Bool(true)))
            .collect(),
        Plan::Project { cols, input, .. } => interpret(input, streams)
            .iter()
            .filter_map(|row| eval_all(cols, row).map(Tuple::new))
            .collect(),
        Plan::Aggregate { group, aggs, input, .. } => {
            let rows = interpret(input, streams);
            let mut groups: BTreeMap<GroupKey, Vec<&Tuple>> = BTreeMap::new();
            for row in &rows {
                if let Some(key) = eval_all(group, row) {
                    groups.entry(GroupKey(key)).or_default().push(row);
                }
            }
            groups
                .into_iter()
                .map(|(GroupKey(mut vals), rows)| {
                    vals.extend(aggs.iter().map(|a| fold(a, &rows)));
                    Tuple::new(vals)
                })
                .collect()
        }
        Plan::Merge { inputs, on_col, .. } => {
            let mut rows: Vec<Tuple> = inputs.iter().flat_map(|i| interpret(i, streams)).collect();
            rows.sort_by_key(|t| t.get(*on_col).as_uint());
            rows
        }
        Plan::Join { left, right, window, residual, cols, .. } => {
            let (lefts, rights) = (interpret(left, streams), interpret(right, streams));
            let in_window = |l: &Tuple, r: &Tuple| {
                let (Some(lv), Some(rv)) =
                    (l.get(window.left_col).as_uint(), r.get(window.right_col).as_uint())
                else {
                    return false;
                };
                let d = i128::from(lv) - i128::from(rv);
                i128::from(window.lo) <= d && d <= i128::from(window.hi)
            };
            let mut rows = Vec::new();
            for l in &lefts {
                for r in rights.iter().filter(|r| in_window(l, r)) {
                    let pair = l.concat(r);
                    let accepted = |p: &PExpr| eval(p, &pair) == Some(Value::Bool(true));
                    if !residual.as_ref().is_none_or(accepted) {
                        continue;
                    }
                    rows.extend(eval_all(cols, &pair).map(Tuple::new));
                }
            }
            rows
        }
        Plan::ProtocolScan { .. } => panic!("oracle_hftas does not interpret {plan:?}"),
    }
}

/// Reference regex matcher: a transparent exponential backtracker over the
/// same restricted syntax subset used by the property tests (literals,
/// `.`, `*`, `?`, `|`, groups, `^`/`$`). Slow but obviously correct.
pub fn backtrack_match(pattern: &str, hay: &[u8]) -> bool {
    let pat: Vec<char> = pattern.chars().collect();
    let (anchored_start, pat) = match pat.split_first() {
        Some(('^', rest)) => (true, rest.to_vec()),
        _ => (false, pat),
    };
    let (anchored_end, pat) = match pat.split_last() {
        Some(('$', rest)) => (true, rest.to_vec()),
        _ => (false, pat),
    };
    let starts: Vec<usize> = if anchored_start { vec![0] } else { (0..=hay.len()).collect() };
    for s in starts {
        let mut ends = Vec::new();
        alt_ends(&pat, 0, pat.len(), hay, s, &mut ends);
        if ends.iter().any(|&e| !anchored_end || e == hay.len()) {
            return true;
        }
    }
    false
}

/// All `hay` positions reachable by matching `pat[lo..hi]` starting at `at`
/// (top-level alternation).
fn alt_ends(pat: &[char], lo: usize, hi: usize, hay: &[u8], at: usize, out: &mut Vec<usize>) {
    // Split on top-level `|`.
    let mut depth = 0usize;
    let mut start = lo;
    let mut branches = Vec::new();
    let mut i = lo;
    while i < hi {
        match pat[i] {
            '(' => depth += 1,
            ')' => depth = depth.saturating_sub(1),
            '|' if depth == 0 => {
                branches.push((start, i));
                start = i + 1;
            }
            _ => {}
        }
        i += 1;
    }
    branches.push((start, hi));
    for (blo, bhi) in branches {
        concat_ends(pat, blo, bhi, hay, at, out);
    }
}

fn concat_ends(pat: &[char], lo: usize, hi: usize, hay: &[u8], at: usize, out: &mut Vec<usize>) {
    if lo >= hi {
        out.push(at);
        return;
    }
    // Parse one atom.
    let (atom_lo, atom_hi, next) = match pat[lo] {
        '(' => {
            let mut depth = 1;
            let mut j = lo + 1;
            while j < hi && depth > 0 {
                match pat[j] {
                    '(' => depth += 1,
                    ')' => depth -= 1,
                    _ => {}
                }
                j += 1;
            }
            (lo + 1, j - 1, j)
        }
        _ => (lo, lo + 1, lo + 1),
    };
    let (op, rest) = if next < hi && (pat[next] == '*' || pat[next] == '?') {
        (Some(pat[next]), next + 1)
    } else {
        (None, next)
    };

    let one = |at: usize, out: &mut Vec<usize>| {
        if atom_hi - atom_lo == 1 && pat[atom_lo] != '(' {
            let c = pat[atom_lo];
            if at < hay.len() && (c == '.' && hay[at] != b'\n' || c as u32 == u32::from(hay[at])) {
                out.push(at + 1);
            }
        } else {
            alt_ends(pat, atom_lo, atom_hi, hay, at, out);
        }
    };

    let mut mids: Vec<usize> = Vec::new();
    match op {
        None => one(at, &mut mids),
        Some('?') => {
            mids.push(at);
            one(at, &mut mids);
        }
        Some('*') => {
            // Reachability closure: zero or more atom applications.
            let mut seen = vec![at];
            let mut frontier = vec![at];
            while let Some(p) = frontier.pop() {
                let mut next_pos = Vec::new();
                one(p, &mut next_pos);
                for n in next_pos {
                    if !seen.contains(&n) {
                        seen.push(n);
                        frontier.push(n);
                    }
                }
            }
            mids = seen;
        }
        _ => unreachable!(),
    }
    mids.sort_unstable();
    mids.dedup();
    for m in mids {
        concat_ends(pat, rest, hi, hay, m, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backtracker_basics() {
        assert!(backtrack_match("abc", b"xxabc"));
        assert!(!backtrack_match("abc", b"ab"));
        assert!(backtrack_match("^ab", b"abc"));
        assert!(!backtrack_match("^ab", b"xab"));
        assert!(backtrack_match("bc$", b"abc"));
        assert!(!backtrack_match("bc$", b"bcd"));
        assert!(backtrack_match("a*b", b"b"));
        assert!(backtrack_match("a*b", b"aaab"));
        assert!(backtrack_match("a?b", b"ab"));
        assert!(backtrack_match("(ab)*c", b"ababc"));
        assert!(backtrack_match("cat|dog", b"hotdog"));
        assert!(!backtrack_match("^(cat|dog)$", b"cow"));
        assert!(backtrack_match("a.c", b"abc"));
        assert!(!backtrack_match("^a.c$", b"a\nc"));
    }

    #[test]
    fn oracle_counts_count() {
        use gs_packet::builder::FrameBuilder;
        use gs_packet::capture::LinkType;
        let pkts: Vec<CapPacket> = (0..10u64)
            .map(|i| {
                let f = FrameBuilder::tcp(1, 2, 9, if i % 2 == 0 { 80 } else { 25 })
                    .build_ethernet();
                CapPacket::full(i * 500_000_000, 0, LinkType::Ethernet, f)
            })
            .collect();
        let counts = oracle_port_counts(&pkts, 80);
        assert_eq!(counts.values().sum::<u64>(), 5);
    }
}
