//! Group-by / aggregation.
//!
//! Two engines share one core:
//!
//! - [`GroupAggregator`]: the exact hash aggregation HFTAs run, with
//!   ordered-attribute flushing — "When a tuple arrives for aggregation
//!   whose ordered attribute is larger than that in any current group, we
//!   can deduce that all of the current groups are closed ... All of the
//!   closed groups are flushed to the output" (paper §2.1);
//! - [`DirectMappedAggregator`]: the LFTA's small direct-mapped table —
//!   "Hash table collisions result in a tuple computed from the ejected
//!   group being written to the output stream. Because of temporal
//!   locality, aggregation even with a small hash table is effective in
//!   early data reduction" (paper §3).
//!
//! Both are generic over [`FieldSource`], so the same code aggregates
//! materialized tuples (HFTA) and raw packets through the interpretation
//! library (LFTA).

use crate::batch::{ColStep, ColumnBatch};
use crate::expr::vector::VecVal;
use crate::expr::{EvalScratch, FieldSource, Program};
use crate::ops::Operator;
use crate::punct::Punct;
use crate::snapshot::{proto, SnapError, SnapReader, SnapWriter};
use crate::stats::OpCounters;
use crate::tuple::{StreamItem, Tuple};
use crate::value::Value;
use gs_gsql::ast::AggFunc;
use gs_gsql::types::DataType;
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// One aggregate accumulator.
#[derive(Debug, Clone)]
pub enum Acc {
    /// Tuple count.
    Count(u64),
    /// Integer sum (wrapping).
    SumU(u64),
    /// Float sum.
    SumF(f64),
    /// Running minimum.
    Min(Option<Value>),
    /// Running maximum.
    Max(Option<Value>),
}

impl Acc {
    /// Fresh accumulator for a spec.
    pub fn new(func: AggFunc, ty: DataType) -> Acc {
        match func {
            AggFunc::Count => Acc::Count(0),
            AggFunc::Sum => {
                if ty == DataType::Float {
                    Acc::SumF(0.0)
                } else {
                    Acc::SumU(0)
                }
            }
            AggFunc::Min => Acc::Min(None),
            AggFunc::Max => Acc::Max(None),
            // `avg` is split into sum+count by the planner; an unsplit avg
            // (pure-HFTA aggregation) accumulates as a float sum and the
            // surrounding plan divides.
            AggFunc::Avg => Acc::SumF(0.0),
        }
    }

    /// Fold one argument value (`None` only for `count(*)`).
    pub fn update(&mut self, v: Option<&Value>) {
        match self {
            Acc::Count(c) => *c += 1,
            Acc::SumU(s) => {
                if let Some(v) = v.and_then(|v| v.as_uint()) {
                    *s = s.wrapping_add(v);
                }
            }
            Acc::SumF(s) => {
                if let Some(v) = v.and_then(|v| v.as_float()) {
                    *s += v;
                }
            }
            Acc::Min(m) => {
                if let Some(v) = v {
                    let better =
                        m.as_ref().is_none_or(|cur| v.total_cmp(cur).is_lt());
                    if better {
                        *m = Some(v.clone());
                    }
                }
            }
            Acc::Max(m) => {
                if let Some(v) = v {
                    let better =
                        m.as_ref().is_none_or(|cur| v.total_cmp(cur).is_gt());
                    if better {
                        *m = Some(v.clone());
                    }
                }
            }
        }
    }

    /// The accumulated value.
    pub fn value(&self) -> Value {
        match self {
            Acc::Count(c) => Value::UInt(*c),
            Acc::SumU(s) => Value::UInt(*s),
            Acc::SumF(s) => Value::Float(*s),
            // Empty min/max can only be emitted if every contributing
            // tuple's argument failed to evaluate; emit zero.
            Acc::Min(m) | Acc::Max(m) => m.clone().unwrap_or(Value::UInt(0)),
        }
    }

    /// Serialize this accumulator (variant tag + payload).
    pub fn snapshot(&self, w: &mut SnapWriter) {
        match self {
            Acc::Count(c) => {
                w.put_u8(0);
                w.put_u64(*c);
            }
            Acc::SumU(s) => {
                w.put_u8(1);
                w.put_u64(*s);
            }
            Acc::SumF(s) => {
                w.put_u8(2);
                w.put_f64(*s);
            }
            Acc::Min(m) | Acc::Max(m) => {
                w.put_u8(if matches!(self, Acc::Min(_)) { 3 } else { 4 });
                match m {
                    Some(v) => {
                        w.put_u8(1);
                        w.put_value(v);
                    }
                    None => w.put_u8(0),
                }
            }
        }
    }

    /// Decode one accumulator.
    pub fn restore(r: &mut SnapReader<'_>) -> Result<Acc, SnapError> {
        let opt_value = |r: &mut SnapReader<'_>| -> Result<Option<Value>, SnapError> {
            match r.get_u8()? {
                0 => Ok(None),
                1 => Ok(Some(r.get_value()?)),
                b => Err(proto(format!("bad option byte {b}"))),
            }
        };
        match r.get_u8()? {
            0 => Ok(Acc::Count(r.get_u64()?)),
            1 => Ok(Acc::SumU(r.get_u64()?)),
            2 => Ok(Acc::SumF(r.get_f64()?)),
            3 => Ok(Acc::Min(opt_value(r)?)),
            4 => Ok(Acc::Max(opt_value(r)?)),
            t => Err(proto(format!("bad accumulator tag {t}"))),
        }
    }
}

/// Serialize one `(group key, accumulators)` pair.
fn snap_group(w: &mut SnapWriter, key: &[Value], accs: &[Acc]) {
    w.put_values(key);
    w.put_u32(accs.len() as u32);
    for a in accs {
        a.snapshot(w);
    }
}

/// Decode one `(group key, accumulators)` pair, validating the shape
/// against the restoring operator's core (a mismatched snapshot must be
/// rejected, not folded into a differently-shaped table).
fn read_group(
    r: &mut SnapReader<'_>,
    core: &AggCore,
) -> Result<(Box<[Value]>, Vec<Acc>), SnapError> {
    let key = r.get_values()?.into_boxed_slice();
    if key.len() != core.group_progs.len() {
        return Err(proto(format!(
            "group key arity {} != {}",
            key.len(),
            core.group_progs.len()
        )));
    }
    let n = r.get_count(2)?;
    if n != core.aggs.len() {
        return Err(proto(format!("accumulator count {n} != {}", core.aggs.len())));
    }
    let mut accs = Vec::with_capacity(n);
    for _ in 0..n {
        accs.push(Acc::restore(r)?);
    }
    Ok((key, accs))
}

/// Shared configuration: compiled group and aggregate expressions.
pub struct AggCore {
    group_progs: Vec<Program>,
    aggs: Vec<(AggFunc, Option<Program>, DataType)>,
    /// Index within the group key of the ordered (flush) attribute.
    flush_idx: Option<usize>,
    /// Banded slack of the flush attribute (0 for monotone).
    slack: u64,
}

impl AggCore {
    /// Build the core.
    pub fn new(
        group_progs: Vec<Program>,
        aggs: Vec<(AggFunc, Option<Program>, DataType)>,
        flush_idx: Option<usize>,
        slack: u64,
    ) -> AggCore {
        AggCore { group_progs, aggs, flush_idx, slack }
    }

    fn eval_key<S: FieldSource>(
        &self,
        src: &S,
        scratch: &mut EvalScratch,
    ) -> Option<Box<[Value]>> {
        let mut key = Vec::with_capacity(self.group_progs.len());
        for p in &self.group_progs {
            key.push(p.eval(src, scratch)?);
        }
        Some(key.into_boxed_slice())
    }

    /// Allocation-free variant of [`eval_key`](Self::eval_key): evaluates
    /// the group key into a reused buffer. Returns false when any group
    /// expression fails (the record is skipped, matching `eval_key`'s
    /// `None`). The batched hot path compares this buffer against the
    /// current group and only materializes a boxed key on a key change.
    fn eval_key_into<S: FieldSource>(
        &self,
        src: &S,
        scratch: &mut EvalScratch,
        buf: &mut Vec<Value>,
    ) -> bool {
        buf.clear();
        for p in &self.group_progs {
            match p.eval(src, scratch) {
                Some(v) => buf.push(v),
                None => return false,
            }
        }
        true
    }

    fn fresh_accs(&self) -> Vec<Acc> {
        self.aggs.iter().map(|(f, _, ty)| Acc::new(*f, *ty)).collect()
    }

    fn update_accs<S: FieldSource>(
        &self,
        accs: &mut [Acc],
        src: &S,
        scratch: &mut EvalScratch,
    ) {
        for (acc, (_, arg, _)) in accs.iter_mut().zip(&self.aggs) {
            match arg {
                None => acc.update(None),
                Some(p) => {
                    // A failed argument does not contribute; the tuple
                    // still counts for other aggregates.
                    let v = p.eval(src, scratch);
                    if matches!(acc, Acc::Count(_)) {
                        if v.is_some() {
                            acc.update(None);
                        }
                    } else {
                        acc.update(v.as_ref());
                    }
                }
            }
        }
    }

    fn flush_value(&self, key: &[Value]) -> Option<u64> {
        let i = self.flush_idx?;
        key.get(i).and_then(|v| v.as_uint())
    }

    fn emit(key: &[Value], accs: &[Acc], out: &mut Vec<StreamItem>) {
        let mut vals = Vec::with_capacity(key.len() + accs.len());
        vals.extend_from_slice(key);
        vals.extend(accs.iter().map(|a| a.value()));
        out.push(StreamItem::Tuple(Tuple::new(vals)));
    }
}

fn hash_key(key: &[Value]) -> u64 {
    let mut h = DefaultHasher::new();
    key.hash(&mut h);
    h.finish()
}

/// Spill the batched paths' cached hot `(key, accs)` entry back into the
/// group table.
///
/// Invariant (the hot-entry seam): while a batch is being folded, the
/// current group's accumulators live *outside* `groups`. Every
/// table-wide operation — watermark flush (`close_below`), punctuation
/// (`advance_bound`), and batch end (after which `publish_stats`, a
/// GS_STATS snapshot, eviction, or `finish` may inspect the table) —
/// MUST be preceded by a spill, or the hot group is invisible to the
/// flush: it would survive its own close, be double-emitted later, or be
/// missing from open-group accounting.
#[inline]
fn spill_hot(
    groups: &mut HashMap<Box<[Value]>, Vec<Acc>>,
    hot: &mut Option<(Box<[Value]>, Vec<Acc>)>,
) {
    if let Some((k, a)) = hot.take() {
        groups.insert(k, a);
    }
}

/// Fold rows `i..j` of a vector-evaluated argument into one accumulator.
///
/// Exactly equivalent to calling [`Acc::update`] per row in order —
/// integer sums use closed forms (wrapping arithmetic distributes mod
/// 2^64), float sums fold sequentially because float addition is not
/// associative and the result must match the row path bit-for-bit.
fn fold_run(acc: &mut Acc, argv: Option<&VecVal>, i: usize, j: usize) {
    let Some(argv) = argv else {
        // count(*): every row of the run counts.
        if let Acc::Count(c) = acc {
            *c += (j - i) as u64;
        }
        return;
    };
    match acc {
        Acc::Count(c) => {
            // count(expr): rows whose argument failed don't count.
            *c += (i..j).filter(|&r| argv.valid(r)).count() as u64;
        }
        Acc::SumU(s) => match argv {
            VecVal::Scalar(v) => {
                if let Some(x) = v.as_uint() {
                    *s = s.wrapping_add(x.wrapping_mul((j - i) as u64));
                }
            }
            _ => {
                for r in i..j {
                    if let Some(x) = argv.get(r).and_then(|v| v.as_uint()) {
                        *s = s.wrapping_add(x);
                    }
                }
            }
        },
        Acc::SumF(s) => match argv {
            VecVal::Scalar(v) => {
                if let Some(x) = v.as_float() {
                    for _ in i..j {
                        *s += x;
                    }
                }
            }
            _ => {
                for r in i..j {
                    if let Some(x) = argv.get(r).and_then(|v| v.as_float()) {
                        *s += x;
                    }
                }
            }
        },
        Acc::Min(_) | Acc::Max(_) => {
            for r in i..j {
                let v = argv.get(r);
                acc.update(v.as_ref());
            }
        }
    }
}

/// Sort closed groups so the flush attribute is nondecreasing in the
/// output (the imputed ordering property of the aggregate's output),
/// breaking flush-value ties by the full group key. The tie-break makes
/// the emission order a *total* deterministic function of the group set
/// rather than of hash-table iteration order — so a run restored from a
/// checkpoint emits byte-for-byte what the uninterrupted run emits, and
/// two runs over the same trace always agree.
fn sort_closed(closed: &mut [(Box<[Value]>, Vec<Acc>)], flush_idx: Option<usize>) {
    let key_cmp = |a: &[Value], b: &[Value]| {
        a.iter()
            .zip(b.iter())
            .map(|(x, y)| x.total_cmp(y))
            .find(|o| o.is_ne())
            .unwrap_or(std::cmp::Ordering::Equal)
    };
    closed.sort_by(|(a, _), (b, _)| {
        let primary = match flush_idx {
            Some(i) => a[i].total_cmp(&b[i]),
            None => std::cmp::Ordering::Equal,
        };
        primary.then_with(|| key_cmp(a, b))
    });
}

// ---------------------------------------------------------------------
// Exact aggregation (HFTA).
// ---------------------------------------------------------------------

/// Exact hash aggregation with ordered flushing.
pub struct GroupAggregator {
    core: AggCore,
    groups: HashMap<Box<[Value]>, Vec<Acc>>,
    watermark: Option<u64>,
    scratch: EvalScratch,
    /// Groups emitted so far.
    pub emitted: u64,
    /// Peak number of simultaneously open groups.
    pub peak_groups: usize,
}

impl GroupAggregator {
    /// Build an exact aggregator.
    pub fn new(core: AggCore) -> GroupAggregator {
        GroupAggregator {
            core,
            groups: HashMap::new(),
            watermark: None,
            scratch: EvalScratch::default(),
            emitted: 0,
            peak_groups: 0,
        }
    }

    /// Fold one input record.
    pub fn update<S: FieldSource>(&mut self, src: &S, out: &mut Vec<StreamItem>) {
        let Some(key) = self.core.eval_key(src, &mut self.scratch) else { return };
        if let Some(v) = self.core.flush_value(&key) {
            if self.watermark.is_none_or(|w| v > w) {
                self.watermark = Some(v);
                self.close_below(v.saturating_sub(self.core.slack), out);
            }
        }
        let accs = self.groups.entry(key).or_insert_with(|| self.core.fresh_accs());
        self.core.update_accs(accs, src, &mut self.scratch);
        self.peak_groups = self.peak_groups.max(self.groups.len());
    }

    /// Punctuation: future flush values are `>= bound`; close groups below.
    pub fn advance_bound(&mut self, bound: u64, out: &mut Vec<StreamItem>) {
        self.close_below(bound, out);
    }

    fn close_below(&mut self, bound: u64, out: &mut Vec<StreamItem>) {
        if self.core.flush_idx.is_none() {
            return;
        }
        let mut closed: Vec<(Box<[Value]>, Vec<Acc>)> = Vec::new();
        self.groups.retain(|key, accs| {
            let keep = self
                .core
                .flush_value(key)
                .is_none_or(|gv| gv >= bound);
            if !keep {
                closed.push((key.clone(), std::mem::take(accs)));
            }
            keep
        });
        sort_closed(&mut closed, self.core.flush_idx);
        for (key, accs) in closed {
            self.emitted += 1;
            AggCore::emit(&key, &accs, out);
        }
    }

    /// Flush everything (end of stream).
    pub fn finish(&mut self, out: &mut Vec<StreamItem>) {
        let mut closed: Vec<(Box<[Value]>, Vec<Acc>)> = self.groups.drain().collect();
        sort_closed(&mut closed, self.core.flush_idx);
        for (key, accs) in closed {
            self.emitted += 1;
            AggCore::emit(&key, &accs, out);
        }
    }

    /// Currently open groups.
    pub fn open_groups(&self) -> usize {
        self.groups.len()
    }

    /// Serialize the open-group table, watermark, and emission counters.
    /// Only called at a quiescent point, so there is no hot entry to
    /// spill (see `spill_hot`: the hot entry exists only *within* one
    /// `push_batch`/`push_cols` call).
    pub fn snapshot_into(&self, w: &mut SnapWriter) {
        w.put_u32(self.groups.len() as u32);
        for (key, accs) in &self.groups {
            snap_group(w, key, accs);
        }
        w.put_opt_u64(self.watermark);
        w.put_u64(self.emitted);
        w.put_u64(self.peak_groups as u64);
    }

    /// Restore state written by [`snapshot_into`](Self::snapshot_into).
    pub fn restore_from(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        let n = r.get_count(4)?;
        self.groups.clear();
        self.groups.reserve(n);
        for _ in 0..n {
            let (key, accs) = read_group(r, &self.core)?;
            self.groups.insert(key, accs);
        }
        self.watermark = r.get_opt_u64()?;
        self.emitted = r.get_u64()?;
        self.peak_groups = r.get_u64()? as usize;
        self.peak_groups = self.peak_groups.max(self.groups.len());
        Ok(())
    }
}

/// HFTA aggregation as an [`Operator`], with punctuation translation.
pub struct AggregateOp {
    inner: GroupAggregator,
    /// Translation of input punctuation to flush-attribute bounds:
    /// `(input col, divisor)`.
    punct_in: Option<(usize, u64)>,
    /// Output column index of the flush attribute (for forwarded puncts).
    punct_out: Option<usize>,
    tuples_in: u64,
    batches: u64,
    puncts: u64,
    stats: Arc<OpCounters>,
}

impl AggregateOp {
    /// Wrap an aggregator.
    pub fn new(
        inner: GroupAggregator,
        punct_in: Option<(usize, u64)>,
        punct_out: Option<usize>,
    ) -> AggregateOp {
        AggregateOp {
            inner,
            punct_in,
            punct_out,
            tuples_in: 0,
            batches: 0,
            puncts: 0,
            stats: Arc::new(OpCounters::default()),
        }
    }

    /// Shared-state access for diagnostics.
    pub fn aggregator(&self) -> &GroupAggregator {
        &self.inner
    }
}

impl AggregateOp {
    fn push_punct(&mut self, p: &Punct, out: &mut Vec<StreamItem>) {
        self.puncts += 1;
        if let Some((col, div)) = self.punct_in {
            if p.col == col {
                if let Some(v) = p.low.as_uint() {
                    let bound = v / div.max(1);
                    self.inner.advance_bound(bound, out);
                    if let Some(oc) = self.punct_out {
                        out.push(StreamItem::Punct(Punct::new(oc, Value::UInt(bound))));
                    }
                }
            }
        }
    }
}

impl Operator for AggregateOp {
    /// Batched aggregation holds the current group's accumulators out of
    /// the hash table between consecutive tuples: network streams have
    /// strong temporal locality (the property the paper's direct-mapped
    /// LFTA table exploits, §3), so runs of equal keys pay one table
    /// lookup instead of one per tuple.
    fn push_batch(&mut self, _port: usize, items: Vec<StreamItem>, out: &mut Vec<StreamItem>) {
        // See `spill_hot`: the hot entry is spilled back into the table
        // before anything that inspects the whole group set.
        self.batches += 1;
        let mut hot: Option<(Box<[Value]>, Vec<Acc>)> = None;
        let mut keybuf: Vec<Value> = Vec::new();
        for item in items {
            match item {
                StreamItem::Tuple(t) => {
                    self.tuples_in += 1;
                    let agg = &mut self.inner;
                    if !agg.core.eval_key_into(&t, &mut agg.scratch, &mut keybuf) {
                        continue;
                    }
                    if let Some(v) = agg.core.flush_value(&keybuf) {
                        if agg.watermark.is_none_or(|w| v > w) {
                            agg.watermark = Some(v);
                            spill_hot(&mut agg.groups, &mut hot);
                            agg.close_below(v.saturating_sub(agg.core.slack), out);
                        }
                    }
                    if hot.as_ref().is_none_or(|(k, _)| k.as_ref() != keybuf.as_slice()) {
                        spill_hot(&mut agg.groups, &mut hot);
                        let key: Box<[Value]> = keybuf.clone().into_boxed_slice();
                        let accs = agg
                            .groups
                            .remove(&key)
                            .unwrap_or_else(|| agg.core.fresh_accs());
                        hot = Some((key, accs));
                    }
                    let (_, accs) = hot.as_mut().expect("hot entry set above");
                    agg.core.update_accs(accs, &t, &mut agg.scratch);
                    agg.peak_groups = agg.peak_groups.max(agg.groups.len() + 1);
                }
                StreamItem::Punct(p) => {
                    spill_hot(&mut self.inner.groups, &mut hot);
                    self.push_punct(&p, out);
                }
            }
        }
        spill_hot(&mut self.inner.groups, &mut hot);
    }

    /// Columnar aggregation: group keys and aggregate arguments are
    /// vector-evaluated once for the whole batch, then runs of equal
    /// keys (network streams have strong temporal locality) each pay one
    /// hot-entry check and fold their argument slices with per-column
    /// loops. The hot-entry spill invariant (`spill_hot`) is identical
    /// to the row path's.
    fn push_cols(&mut self, cols: ColumnBatch, punct: Option<Punct>) -> ColStep {
        let keys: Option<Vec<VecVal>> = {
            let core = &self.inner.core;
            core.group_progs.iter().map(|p| p.eval_vec(&cols)).collect()
        };
        let args: Option<Vec<Option<VecVal>>> = {
            let core = &self.inner.core;
            core.aggs
                .iter()
                .map(|(_, arg, _)| match arg {
                    None => Some(None),
                    Some(p) => p.eval_vec(&cols).map(Some),
                })
                .collect()
        };
        let (Some(keys), Some(args)) = (keys, args) else {
            // A program without a vector kernel: whole batch via rows.
            let mut out = Vec::new();
            self.push_batch(0, cols.into_items(punct), &mut out);
            return ColStep::Rows(out);
        };
        self.batches += 1;
        let n = cols.n_rows();
        self.tuples_in += n as u64;
        let mut out = Vec::new();
        let mut hot: Option<(Box<[Value]>, Vec<Acc>)> = None;
        {
            let agg = &mut self.inner;
            let mut i = 0;
            while i < n {
                // A row whose key failed to evaluate is skipped, exactly
                // like the row path's `eval_key_into` miss.
                if !keys.iter().all(|k| k.valid(i)) {
                    i += 1;
                    continue;
                }
                // Extend the run of adjacent rows with this key.
                let mut j = i + 1;
                while j < n
                    && keys.iter().all(|k| k.valid(j))
                    && keys.iter().all(|k| k.rows_eq(i, j))
                {
                    j += 1;
                }
                // Watermark advance: every row of the run shares the
                // flush value, so one check covers the run.
                let fv = agg
                    .core
                    .flush_idx
                    .and_then(|fi| keys[fi].get(i))
                    .and_then(|v| v.as_uint());
                if let Some(v) = fv {
                    if agg.watermark.is_none_or(|w| v > w) {
                        agg.watermark = Some(v);
                        spill_hot(&mut agg.groups, &mut hot);
                        agg.close_below(v.saturating_sub(agg.core.slack), &mut out);
                    }
                }
                let differs = hot.as_ref().is_none_or(|(k, _)| {
                    k.iter().zip(&keys).any(|(kv, col)| col.get(i).as_ref() != Some(kv))
                });
                if differs {
                    spill_hot(&mut agg.groups, &mut hot);
                    let key: Box<[Value]> = keys
                        .iter()
                        .map(|k| k.get(i).expect("validity checked above"))
                        .collect::<Vec<_>>()
                        .into_boxed_slice();
                    let accs =
                        agg.groups.remove(&key).unwrap_or_else(|| agg.core.fresh_accs());
                    hot = Some((key, accs));
                }
                let (_, accs) = hot.as_mut().expect("hot entry set above");
                for (acc, argv) in accs.iter_mut().zip(&args) {
                    fold_run(acc, argv.as_ref(), i, j);
                }
                agg.peak_groups = agg.peak_groups.max(agg.groups.len() + 1);
                i = j;
            }
            spill_hot(&mut agg.groups, &mut hot);
        }
        if let Some(p) = punct {
            self.push_punct(&p, &mut out);
        }
        ColStep::Rows(out)
    }

    fn finish(&mut self, out: &mut Vec<StreamItem>) {
        self.inner.finish(out);
    }

    fn kind(&self) -> &'static str {
        "aggregate"
    }

    fn stats_handle(&self) -> Option<Arc<OpCounters>> {
        Some(self.stats.clone())
    }

    fn publish_stats(&self) {
        self.stats.tuples_in.set(self.tuples_in);
        self.stats.tuples_out.set(self.inner.emitted);
        self.stats.batches_in.set(self.batches);
        self.stats.puncts_in.set(self.puncts);
        self.stats.groups_evicted.set(self.inner.emitted);
        self.stats.peak_held.set(self.inner.peak_groups as u64);
    }

    fn snapshot(&self, w: &mut SnapWriter) {
        self.inner.snapshot_into(w);
        w.put_u64(self.tuples_in);
        w.put_u64(self.batches);
        w.put_u64(self.puncts);
    }

    fn restore(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        self.inner.restore_from(r)?;
        self.tuples_in = r.get_u64()?;
        self.batches = r.get_u64()?;
        self.puncts = r.get_u64()?;
        Ok(())
    }

    fn held(&self) -> usize {
        self.inner.open_groups()
    }
}

// ---------------------------------------------------------------------
// Direct-mapped aggregation (LFTA).
// ---------------------------------------------------------------------

/// Statistics of a direct-mapped table (experiment E3 reads these).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DmStats {
    /// Input records folded.
    pub inputs: u64,
    /// Partial tuples emitted (evictions + flushes + final drain).
    pub outputs: u64,
    /// Collision evictions specifically.
    pub evictions: u64,
}

struct Slot {
    key: Box<[Value]>,
    accs: Vec<Acc>,
}

/// The LFTA's fixed-size direct-mapped eviction hash.
pub struct DirectMappedAggregator {
    core: AggCore,
    slots: Vec<Option<Slot>>,
    mask: usize,
    watermark: Option<u64>,
    scratch: EvalScratch,
    /// Table statistics.
    pub stats: DmStats,
}

impl DirectMappedAggregator {
    /// Build a table with `size` slots (rounded up to a power of two).
    pub fn new(core: AggCore, size: usize) -> DirectMappedAggregator {
        let size = size.max(1).next_power_of_two();
        DirectMappedAggregator {
            core,
            slots: (0..size).map(|_| None).collect(),
            mask: size - 1,
            watermark: None,
            scratch: EvalScratch::default(),
            stats: DmStats::default(),
        }
    }

    /// Fold one input record, possibly emitting partials.
    pub fn update<S: FieldSource>(&mut self, src: &S, out: &mut Vec<StreamItem>) {
        let Some(key) = self.core.eval_key(src, &mut self.scratch) else { return };
        self.stats.inputs += 1;

        // Ordered-attribute advance closes every current group (§2.1).
        if let Some(v) = self.core.flush_value(&key) {
            if self.watermark.is_none_or(|w| v > w) {
                self.watermark = Some(v);
                self.flush_below(v.saturating_sub(self.core.slack), out);
            }
        }

        let idx = (hash_key(&key) as usize) & self.mask;
        match &mut self.slots[idx] {
            Some(slot) if slot.key == key => {
                self.core.update_accs(&mut slot.accs, src, &mut self.scratch);
            }
            occupied @ Some(_) => {
                // Collision: eject the resident group as a partial.
                let old = occupied.take().expect("checked occupied");
                self.stats.evictions += 1;
                self.stats.outputs += 1;
                AggCore::emit(&old.key, &old.accs, out);
                let mut accs = self.core.fresh_accs();
                self.core.update_accs(&mut accs, src, &mut self.scratch);
                *occupied = Some(Slot { key, accs });
            }
            empty @ None => {
                let mut accs = self.core.fresh_accs();
                self.core.update_accs(&mut accs, src, &mut self.scratch);
                *empty = Some(Slot { key, accs });
            }
        }
    }

    /// Close groups whose flush value is below `bound` (heartbeats call
    /// this to flush without packet arrivals).
    pub fn flush_below(&mut self, bound: u64, out: &mut Vec<StreamItem>) {
        if self.core.flush_idx.is_none() {
            return;
        }
        let mut closed: Vec<(Box<[Value]>, Vec<Acc>)> = Vec::new();
        for s in &mut self.slots {
            let close = s
                .as_ref()
                .and_then(|slot| self.core.flush_value(&slot.key))
                .is_some_and(|gv| gv < bound);
            if close {
                let slot = s.take().expect("checked some");
                closed.push((slot.key, slot.accs));
            }
        }
        sort_closed(&mut closed, self.core.flush_idx);
        for (key, accs) in closed {
            self.stats.outputs += 1;
            AggCore::emit(&key, &accs, out);
        }
    }

    /// Flush everything (end of stream).
    pub fn finish(&mut self, out: &mut Vec<StreamItem>) {
        let mut closed: Vec<(Box<[Value]>, Vec<Acc>)> = Vec::new();
        for s in &mut self.slots {
            if let Some(slot) = s.take() {
                closed.push((slot.key, slot.accs));
            }
        }
        sort_closed(&mut closed, self.core.flush_idx);
        for (key, accs) in closed {
            self.stats.outputs += 1;
            AggCore::emit(&key, &accs, out);
        }
    }

    /// Occupied slot count.
    pub fn occupancy(&self) -> usize {
        self.slots.iter().filter(|s| s.is_some()).count()
    }

    /// Table size in slots.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Serialize the occupied slots (with their indices — the table must
    /// restore bit-identically even if the hash function ever changes),
    /// the watermark, and the table statistics.
    pub fn snapshot_into(&self, w: &mut SnapWriter) {
        w.put_u32(self.slots.len() as u32);
        w.put_u32(self.occupancy() as u32);
        for (i, s) in self.slots.iter().enumerate() {
            if let Some(slot) = s {
                w.put_u32(i as u32);
                snap_group(w, &slot.key, &slot.accs);
            }
        }
        w.put_opt_u64(self.watermark);
        w.put_u64(self.stats.inputs);
        w.put_u64(self.stats.outputs);
        w.put_u64(self.stats.evictions);
    }

    /// Restore state written by [`snapshot_into`](Self::snapshot_into).
    pub fn restore_from(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        let cap = r.get_u32()? as usize;
        if cap != self.slots.len() {
            return Err(proto(format!(
                "direct-mapped capacity {cap} != {}",
                self.slots.len()
            )));
        }
        let n = r.get_count(4)?;
        if n > cap {
            return Err(proto(format!("occupancy {n} exceeds capacity {cap}")));
        }
        for s in &mut self.slots {
            *s = None;
        }
        for _ in 0..n {
            let idx = r.get_u32()? as usize;
            if idx >= self.slots.len() {
                return Err(proto(format!("slot index {idx} out of range")));
            }
            let (key, accs) = read_group(r, &self.core)?;
            if self.slots[idx].is_some() {
                return Err(proto(format!("duplicate slot index {idx}")));
            }
            self.slots[idx] = Some(Slot { key, accs });
        }
        self.watermark = r.get_opt_u64()?;
        self.stats.inputs = r.get_u64()?;
        self.stats.outputs = r.get_u64()?;
        self.stats.evictions = r.get_u64()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::ParamBindings;
    use crate::udf::{FileStore, UdfRegistry};
    use gs_gsql::plan::PExpr;

    fn prog(i: usize) -> Program {
        Program::compile(
            &PExpr::Col { index: i, ty: DataType::UInt },
            &ParamBindings::new(),
            &UdfRegistry::with_builtins(),
            &FileStore::new(),
        )
        .unwrap()
    }

    fn tup(vals: &[u64]) -> Tuple {
        Tuple::new(vals.iter().map(|&v| Value::UInt(v)).collect())
    }

    /// Core: group by col0 (ordered, slack 0), count(*) and sum(col1).
    fn core() -> AggCore {
        AggCore::new(
            vec![prog(0)],
            vec![
                (AggFunc::Count, None, DataType::UInt),
                (AggFunc::Sum, Some(prog(1)), DataType::UInt),
            ],
            Some(0),
            0,
        )
    }

    fn as_rows(out: &[StreamItem]) -> Vec<Vec<u64>> {
        out.iter()
            .filter_map(|i| i.as_tuple())
            .map(|t| t.values().iter().map(|v| v.as_uint().unwrap()).collect())
            .collect()
    }

    #[test]
    fn exact_ordered_flush() {
        let mut agg = GroupAggregator::new(core());
        let mut out = Vec::new();
        agg.update(&tup(&[1, 10]), &mut out);
        agg.update(&tup(&[1, 5]), &mut out);
        assert!(out.is_empty(), "group 1 still open");
        agg.update(&tup(&[2, 7]), &mut out);
        assert_eq!(as_rows(&out), vec![vec![1, 2, 15]], "advance closes group 1");
        out.clear();
        agg.finish(&mut out);
        assert_eq!(as_rows(&out), vec![vec![2, 1, 7]]);
        assert_eq!(agg.emitted, 2);
    }

    #[test]
    fn banded_slack_keeps_recent_groups_open() {
        let core = AggCore::new(
            vec![prog(0)],
            vec![(AggFunc::Count, None, DataType::UInt)],
            Some(0),
            2, // banded-increasing(2)
        );
        let mut agg = GroupAggregator::new(core);
        let mut out = Vec::new();
        agg.update(&tup(&[10, 0]), &mut out);
        agg.update(&tup(&[11, 0]), &mut out);
        assert!(out.is_empty(), "10 >= 11-2: still open");
        agg.update(&tup(&[13, 0]), &mut out);
        // Bound 11: closes group 10 only.
        assert_eq!(as_rows(&out), vec![vec![10, 1]]);
        // A laggard within the band is still accepted.
        agg.update(&tup(&[11, 0]), &mut out);
        out.clear();
        agg.finish(&mut out);
        assert_eq!(as_rows(&out), vec![vec![11, 2], vec![13, 1]]);
    }

    #[test]
    fn multiple_groups_flush_sorted() {
        // Group by (col0 bucket, col1), both in the key; flush on col0.
        let core = AggCore::new(
            vec![prog(0), prog(1)],
            vec![(AggFunc::Count, None, DataType::UInt)],
            Some(0),
            0,
        );
        let mut agg = GroupAggregator::new(core);
        let mut out = Vec::new();
        agg.update(&tup(&[1, 9]), &mut out);
        agg.update(&tup(&[1, 3]), &mut out);
        agg.update(&tup(&[1, 9]), &mut out);
        agg.update(&tup(&[2, 0]), &mut out);
        let rows = as_rows(&out);
        assert_eq!(rows.len(), 2);
        // Both closed rows carry bucket 1; sorted deterministically.
        assert!(rows.iter().all(|r| r[0] == 1));
        assert_eq!(rows.iter().map(|r| r[2]).sum::<u64>(), 3);
    }

    #[test]
    fn punct_closes_without_tuples() {
        let mut op = AggregateOp::new(GroupAggregator::new(core()), Some((0, 1)), Some(0));
        let mut out = Vec::new();
        op.push_batch(0, vec![StreamItem::Tuple(tup(&[5, 1]))], &mut out);
        assert!(out.is_empty());
        op.push_batch(0, vec![StreamItem::Punct(Punct::new(0, Value::UInt(6)))], &mut out);
        let rows = as_rows(&out);
        assert_eq!(rows, vec![vec![5, 1, 1]]);
        // And the punct is forwarded on the output flush column.
        assert!(out.iter().any(
            |i| matches!(i, StreamItem::Punct(p) if p.col == 0 && p.low == Value::UInt(6))
        ));
    }

    #[test]
    fn push_cols_matches_push_batch() {
        use crate::batch::ColumnBatch;
        // Runs of equal keys, key changes, flush advances, and a trailing
        // punctuation: one row batch, the same rows split in two (the
        // hot-entry spill at the seam), and a columnar batch with the
        // punctuation as its rider must all aggregate identically.
        let mk = || AggregateOp::new(GroupAggregator::new(core()), Some((0, 1)), Some(0));
        let tuples: Vec<Tuple> = [
            (1u64, 5u64),
            (1, 3),
            (1, 2), // run of key 1
            (2, 10),
            (2, 1), // advance + run of key 2
            (1, 100), // late tuple for an already-closed bucket value
            (3, 7),
        ]
        .iter()
        .map(|&(a, b)| tup(&[a, b]))
        .collect();
        let punct = Punct::new(0, Value::UInt(4));
        let items: Vec<StreamItem> = tuples
            .iter()
            .cloned()
            .map(StreamItem::Tuple)
            .chain([StreamItem::Punct(punct.clone())])
            .collect();

        let mut row_op = mk();
        let mut row_out = Vec::new();
        row_op.push_batch(0, items.clone(), &mut row_out);
        row_op.finish(&mut row_out);

        let mut split_op = mk();
        let mut split_out = Vec::new();
        let mut head = items;
        let tail = head.split_off(4);
        split_op.push_batch(0, head, &mut split_out);
        split_op.push_batch(0, tail, &mut split_out);
        split_op.finish(&mut split_out);

        let mut col_op = mk();
        let cb = ColumnBatch::from_tuples(&tuples);
        let ColStep::Rows(mut col_out) = col_op.push_cols(cb, Some(punct)) else {
            panic!("aggregation output is row-shaped");
        };
        col_op.finish(&mut col_out);

        for (what, op, out) in [("split", &split_op, &split_out), ("columnar", &col_op, &col_out)] {
            assert_eq!(as_rows(&row_out), as_rows(out), "{what}");
            assert_eq!(row_op.aggregator().emitted, op.aggregator().emitted, "{what}");
            assert_eq!(row_op.aggregator().open_groups(), op.aggregator().open_groups(), "{what}");
        }
    }

    #[test]
    fn punct_mid_batch_spills_hot_group() {
        use crate::batch::ColumnBatch;
        // The hot-entry seam (satellite regression): a punctuation token
        // lands mid-batch while a hot group's accumulators live outside
        // the table. The flush must see the full pre-punct accumulation —
        // if the hot entry is not spilled first, the group either
        // survives its own close or is emitted with missing rows.
        let mk = || AggregateOp::new(GroupAggregator::new(core()), Some((0, 1)), Some(0));

        // Key 5 is hot (a run), the punct closes bucket 5, then key 5
        // resumes — which must open a FRESH group, not resurrect state.
        let head: Vec<StreamItem> = [(5u64, 1u64), (5, 2), (5, 4)]
            .iter()
            .map(|&(a, b)| StreamItem::Tuple(tup(&[a, b])))
            .collect();
        let punct = Punct::new(0, Value::UInt(6));
        let tail: Vec<StreamItem> =
            [(5u64, 100u64), (5, 200)].iter().map(|&(a, b)| StreamItem::Tuple(tup(&[a, b]))).collect();

        // Row path: one batch interleaving punct between the runs.
        let mut op = mk();
        let mut out = Vec::new();
        let items: Vec<StreamItem> = head
            .iter()
            .cloned()
            .chain([StreamItem::Punct(punct.clone())])
            .chain(tail.iter().cloned())
            .collect();
        op.push_batch(0, items, &mut out);
        // The punct must have closed group 5 with all three head rows.
        assert_eq!(as_rows(&out), vec![vec![5, 3, 7]], "flush sees the hot run");
        assert_eq!(op.aggregator().open_groups(), 1, "resumed key 5 is a fresh group");
        out.clear();
        op.finish(&mut out);
        assert_eq!(as_rows(&out), vec![vec![5, 2, 300]]);

        // Columnar path: punct rides after the head batch, tail follows.
        let mut op = mk();
        let head_t: Vec<Tuple> = [(5u64, 1u64), (5, 2), (5, 4)].iter().map(|&(a, b)| tup(&[a, b])).collect();
        let tail_t: Vec<Tuple> =
            [(5u64, 100u64), (5, 200)].iter().map(|&(a, b)| tup(&[a, b])).collect();
        let ColStep::Rows(mut out) =
            op.push_cols(ColumnBatch::from_tuples(&head_t), Some(punct))
        else {
            panic!("row-shaped");
        };
        assert_eq!(as_rows(&out), vec![vec![5, 3, 7]], "columnar flush sees the hot run");
        let ColStep::Rows(more) = op.push_cols(ColumnBatch::from_tuples(&tail_t), None) else {
            panic!("row-shaped");
        };
        out.extend(more);
        assert_eq!(op.aggregator().open_groups(), 1);
        op.finish(&mut out);
        assert_eq!(as_rows(&out)[1..], [vec![5, 2, 300]]);
    }

    #[test]
    fn unordered_aggregation_waits_for_finish() {
        let core = AggCore::new(
            vec![prog(0)],
            vec![(AggFunc::Count, None, DataType::UInt)],
            None,
            0,
        );
        let mut agg = GroupAggregator::new(core);
        let mut out = Vec::new();
        for v in [3u64, 1, 3, 2, 1] {
            agg.update(&tup(&[v, 0]), &mut out);
        }
        assert!(out.is_empty());
        agg.finish(&mut out);
        assert_eq!(out.len(), 3);
    }

    #[test]
    fn min_max_avg_accumulators() {
        let core = AggCore::new(
            vec![prog(0)],
            vec![
                (AggFunc::Min, Some(prog(1)), DataType::UInt),
                (AggFunc::Max, Some(prog(1)), DataType::UInt),
            ],
            Some(0),
            0,
        );
        let mut agg = GroupAggregator::new(core);
        let mut out = Vec::new();
        agg.update(&tup(&[1, 5]), &mut out);
        agg.update(&tup(&[1, 2]), &mut out);
        agg.update(&tup(&[1, 9]), &mut out);
        agg.finish(&mut out);
        assert_eq!(as_rows(&out), vec![vec![1, 2, 9]]);
    }

    #[test]
    fn direct_mapped_eviction_on_collision() {
        // A 1-slot table: every distinct key evicts the previous one.
        let core = AggCore::new(
            vec![prog(1)], // group by col1 (not ordered)
            vec![(AggFunc::Count, None, DataType::UInt)],
            None,
            0,
        );
        let mut dm = DirectMappedAggregator::new(core, 1);
        let mut out = Vec::new();
        dm.update(&tup(&[0, 7]), &mut out);
        dm.update(&tup(&[0, 7]), &mut out);
        assert!(out.is_empty(), "same key aggregates in place");
        dm.update(&tup(&[0, 8]), &mut out);
        assert_eq!(dm.stats.evictions, 1);
        assert_eq!(as_rows(&out), vec![vec![7, 2]]);
        out.clear();
        dm.finish(&mut out);
        assert_eq!(as_rows(&out), vec![vec![8, 1]]);
        assert_eq!(dm.stats.inputs, 3);
        assert_eq!(dm.stats.outputs, 2);
    }

    #[test]
    fn direct_mapped_plus_exact_equals_exact() {
        // Partial aggregation through a tiny direct-mapped table, combined
        // by an exact aggregator, must equal direct exact aggregation.
        let mk_core = || {
            AggCore::new(
                vec![prog(0), prog(1)],
                vec![(AggFunc::Count, None, DataType::UInt)],
                Some(0),
                0,
            )
        };
        // Combine: group by (col0, col1), sum partial counts (col2).
        let combine_core = AggCore::new(
            vec![prog(0), prog(1)],
            vec![(AggFunc::Sum, Some(prog(2)), DataType::UInt)],
            Some(0),
            0,
        );
        let mut dm = DirectMappedAggregator::new(mk_core(), 2);
        let mut exact = GroupAggregator::new(mk_core());
        let mut combine = GroupAggregator::new(combine_core);

        // A skewed input with bucket advances.
        let data: Vec<[u64; 2]> = (0..500)
            .map(|i| [i / 100, if i % 7 == 0 { 1 } else { i % 3 }])
            .collect();
        let mut partials = Vec::new();
        let mut direct = Vec::new();
        for d in &data {
            dm.update(&tup(d), &mut partials);
            exact.update(&tup(d), &mut direct);
        }
        dm.finish(&mut partials);
        exact.finish(&mut direct);

        let mut combined = Vec::new();
        for p in crate::tuple::tuples_of(partials) {
            combine.update(&p, &mut combined);
        }
        combine.finish(&mut combined);

        let norm = |rows: Vec<Vec<u64>>| {
            let mut r = rows;
            r.sort();
            r
        };
        assert_eq!(norm(as_rows(&combined)), norm(as_rows(&direct)));
        assert!(dm.stats.evictions > 0, "tiny table must evict on this input");
    }

    #[test]
    fn occupancy_and_capacity() {
        let dm = DirectMappedAggregator::new(core(), 100);
        assert_eq!(dm.capacity(), 128, "rounded to a power of two");
        assert_eq!(dm.occupancy(), 0);
    }

    #[test]
    fn snapshot_restore_continues_exactly() {
        // Cut a stream mid-window, snapshot, restore into a freshly built
        // operator, feed the tail: concatenated output must equal the
        // uninterrupted run tuple for tuple, and the counters carry over.
        let mk = || AggregateOp::new(GroupAggregator::new(core()), Some((0, 1)), Some(0));
        let items: Vec<StreamItem> = [(1u64, 5u64), (1, 3), (2, 10), (2, 1), (3, 7), (3, 2)]
            .iter()
            .map(|&(a, b)| StreamItem::Tuple(tup(&[a, b])))
            .collect();
        let (head, tail) = items.split_at(3); // cut mid-window of bucket 2

        let mut cont = mk();
        let mut cont_out = Vec::new();
        cont.push_batch(0, items.clone(), &mut cont_out);
        cont.finish(&mut cont_out);

        let mut first = mk();
        let mut split_out = Vec::new();
        first.push_batch(0, head.to_vec(), &mut split_out);
        let mut w = SnapWriter::new();
        Operator::snapshot(&first, &mut w);
        let sealed = w.seal();

        let mut second = mk();
        let mut r = SnapReader::open(&sealed).expect("open");
        Operator::restore(&mut second, &mut r).expect("restore");
        r.finish().expect("payload fully consumed");
        second.push_batch(0, tail.to_vec(), &mut split_out);
        second.finish(&mut split_out);

        assert_eq!(as_rows(&cont_out), as_rows(&split_out));
        assert_eq!(second.aggregator().emitted, cont.aggregator().emitted);
        assert_eq!(second.aggregator().peak_groups, cont.aggregator().peak_groups);
    }

    #[test]
    fn snapshot_shape_mismatch_is_rejected() {
        // A snapshot taken from a 2-agg operator must not restore into a
        // 1-agg operator: the shape check fires a Protocol error.
        let mut donor = AggregateOp::new(GroupAggregator::new(core()), None, None);
        let mut out = Vec::new();
        donor.push_batch(0, vec![StreamItem::Tuple(tup(&[1, 5]))], &mut out);
        let mut w = SnapWriter::new();
        Operator::snapshot(&donor, &mut w);
        let sealed = w.seal();

        let slim_core = AggCore::new(
            vec![prog(0)],
            vec![(AggFunc::Count, None, DataType::UInt)],
            Some(0),
            0,
        );
        let mut slim = AggregateOp::new(GroupAggregator::new(slim_core), None, None);
        let mut r = SnapReader::open(&sealed).expect("open");
        assert!(matches!(
            Operator::restore(&mut slim, &mut r),
            Err(SnapError::Protocol(_))
        ));
    }

    #[test]
    fn direct_mapped_snapshot_restore_continues_exactly() {
        let mk = || DirectMappedAggregator::new(core(), 4);
        let data: Vec<[u64; 2]> =
            (0..40).map(|i| [i / 8, if i % 5 == 0 { 2 } else { i % 3 }]).collect();
        let (head, tail) = data.split_at(17);

        let mut cont = mk();
        let mut cont_out = Vec::new();
        for d in &data {
            cont.update(&tup(d), &mut cont_out);
        }
        cont.finish(&mut cont_out);

        let mut first = mk();
        let mut split_out = Vec::new();
        for d in head {
            first.update(&tup(d), &mut split_out);
        }
        let mut w = SnapWriter::new();
        first.snapshot_into(&mut w);
        let sealed = w.seal();

        let mut second = mk();
        let mut r = SnapReader::open(&sealed).expect("open");
        second.restore_from(&mut r).expect("restore");
        r.finish().expect("payload fully consumed");
        for d in tail {
            second.update(&tup(d), &mut split_out);
        }
        second.finish(&mut split_out);

        assert_eq!(as_rows(&cont_out), as_rows(&split_out));
        assert_eq!(second.stats, cont.stats);

        // Capacity mismatch is rejected, not silently remapped.
        let mut bigger = DirectMappedAggregator::new(core(), 8);
        let mut r = SnapReader::open(&sealed).expect("open");
        assert!(matches!(bigger.restore_from(&mut r), Err(SnapError::Protocol(_))));
    }
}
