//! Group-by / aggregation.
//!
//! Two engines share one core:
//!
//! - [`AggregateOp`]: the exact aggregation HFTAs run, with
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
//! The exact aggregator keeps its open groups in a slab of typed columns:
//! a group is a slot, found through a seeded hash of the typed key
//! columns; its key is a row of one column per group expression and its
//! accumulators a row of one column per aggregate. A close scans the
//! slab's flush-value column and emits the closed groups as one
//! [`ColumnBatch`]. The direct-mapped table keeps boxed keys and [`Acc`]
//! accumulators, generic over [`FieldSource`] so it aggregates raw
//! packets through the interpretation library.

use crate::batch::{Column, ColumnBatch};
use crate::expr::vector::VecVal;
use crate::expr::{EvalScratch, FieldSource, Program};
use crate::ops::keyhash::{self, hash_rows, key_eq, HashIndex};
use crate::ops::Operator;
use crate::punct::Punct;
use crate::snapshot::{proto, SnapError, SnapReader, SnapWriter};
use crate::stats::OpCounters;
use crate::tuple::{StreamItem, Tuple};
use crate::value::Value;
use bytes::Bytes;
use gs_gsql::ast::AggFunc;
use gs_gsql::types::DataType;
use std::cmp::Ordering;
use std::collections::hash_map::{DefaultHasher, Entry};
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
fn snap_group(
    w: &mut SnapWriter,
    key: impl ExactSizeIterator<Item = Value>,
    accs: impl ExactSizeIterator<Item = Acc>,
) {
    w.put_u32(key.len() as u32);
    for v in key {
        w.put_value(&v);
    }
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

/// Group identity: keys are equal exactly when [`Value::total_cmp`] says
/// so — one NaN group per bit pattern, −0.0 and +0.0 two groups — as in
/// the exact aggregate's slab.
fn same_key(a: &[Value], b: &[Value]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.total_cmp(y).is_eq())
}

fn hash_key(key: &[Value]) -> u64 {
    let mut h = DefaultHasher::new();
    key.hash(&mut h);
    h.finish()
}

/// Sort closed groups so the flush attribute is nondecreasing in the
/// output (the imputed ordering property of the aggregate's output),
/// breaking flush-value ties by the full group key. The tie-break makes
/// the emission order a *total* deterministic function of the group set
/// rather than of table layout — so a run restored from a checkpoint
/// emits byte-for-byte what the uninterrupted run emits, and two runs
/// over the same trace always agree. [`Slab::order`] is the same order
/// over the slab's typed columns.
fn sort_closed(closed: &mut [(Box<[Value]>, Vec<Acc>)], flush_idx: Option<usize>) {
    let key_cmp = |a: &[Value], b: &[Value]| {
        a.iter()
            .zip(b.iter())
            .map(|(x, y)| x.total_cmp(y))
            .find(|o| o.is_ne())
            .unwrap_or(Ordering::Equal)
    };
    closed.sort_by(|(a, _), (b, _)| {
        let primary = match flush_idx {
            Some(i) => a[i].total_cmp(&b[i]),
            None => Ordering::Equal,
        };
        primary.then_with(|| key_cmp(a, b))
    });
}

// ---------------------------------------------------------------------
// Exact aggregation (HFTA).
// ---------------------------------------------------------------------

/// End of a collision chain.
const NIL: u32 = u32::MAX;

/// Flush value of a slot no close below a bound reaches: a free slot, or
/// a group whose flush attribute has no integer value.
const NEVER: u64 = u64::MAX;

/// Whether `o` (a candidate against the current extreme) replaces it.
fn beyond(max: bool, o: Ordering) -> bool {
    if max {
        o.is_gt()
    } else {
        o.is_lt()
    }
}

/// Row `a` against row `b` of one column, by [`Value::total_cmp`].
fn col_cmp(c: &Column, a: usize, b: usize) -> Ordering {
    match c {
        Column::UInt(v) => v[a].cmp(&v[b]),
        Column::Ip(v) => v[a].cmp(&v[b]),
        Column::Float(v) => v[a].total_cmp(&v[b]),
        c => c.get(a).total_cmp(&c.get(b)),
    }
}

/// A word whose order never contradicts [`col_cmp`]'s on column `c`:
/// a smaller word is a smaller value, equal words may be either.
fn order_word(c: &Column, s: usize) -> u64 {
    match c {
        Column::UInt(v) => v[s],
        Column::Ip(v) => u64::from(v[s]),
        Column::Bool(v) => u64::from(v[s]),
        // `f64::total_cmp`'s order, as an unsigned word.
        Column::Float(v) => {
            let b = v[s].to_bits();
            if b >> 63 == 1 {
                !b
            } else {
                b | 1 << 63
            }
        }
        // The first eight bytes, zero-padded.
        Column::Str(v) => {
            let mut w = [0u8; 8];
            let n = v[s].len().min(8);
            w[..n].copy_from_slice(&v[s][..n]);
            u64::from_be_bytes(w)
        }
        Column::Val(_) => 0,
    }
}

/// One aggregate's accumulators, one slot per group. Folding a run of
/// rows into a slot is exactly [`Acc::update`] per row in order.
enum AccCol {
    /// `count`.
    Count(Vec<u64>),
    /// Integer sum (wrapping).
    SumU(Vec<u64>),
    /// Float sum.
    SumF(Vec<f64>),
    /// `min`, or `max` when `max` is set: the extreme so far, valid where
    /// `seen` is.
    Ext { max: bool, vals: Column, seen: Vec<bool> },
}

impl AccCol {
    fn new(func: AggFunc, ty: DataType) -> AccCol {
        let ext = |max| {
            let vals = match ty {
                DataType::Bool => Column::Bool(Vec::new()),
                DataType::UInt => Column::UInt(Vec::new()),
                DataType::Float => Column::Float(Vec::new()),
                DataType::Ip => Column::Ip(Vec::new()),
                DataType::Str => Column::Str(Vec::new()),
            };
            AccCol::Ext { max, vals, seen: Vec::new() }
        };
        match Acc::new(func, ty) {
            Acc::Count(_) => AccCol::Count(Vec::new()),
            Acc::SumU(_) => AccCol::SumU(Vec::new()),
            Acc::SumF(_) => AccCol::SumF(Vec::new()),
            Acc::Min(_) => ext(false),
            Acc::Max(_) => ext(true),
        }
    }

    /// Empty slot `s`; one past the last slot appends it.
    fn reset(&mut self, s: usize) {
        fn zero<T: Default>(v: &mut Vec<T>, s: usize) {
            if s == v.len() {
                v.push(T::default());
            } else {
                v[s] = T::default();
            }
        }
        match self {
            AccCol::Count(v) | AccCol::SumU(v) => zero(v, s),
            AccCol::SumF(v) => zero(v, s),
            AccCol::Ext { vals, seen, .. } => {
                if s == seen.len() {
                    // A placeholder of the column's own type.
                    let filler = match vals {
                        Column::Bool(_) => Value::Bool(false),
                        Column::Float(_) => Value::Float(0.0),
                        Column::Ip(_) => Value::Ip(0),
                        Column::Str(_) => Value::Str(Bytes::new()),
                        Column::UInt(_) | Column::Val(_) => Value::UInt(0),
                    };
                    vals.set(s, filler);
                }
                zero(seen, s);
            }
        }
    }

    /// Fold rows `i..j` of a vector-evaluated argument (`None` for
    /// `count(*)`) into slot `s`. Integer sums use closed forms (wrapping
    /// arithmetic distributes mod 2^64); float sums fold sequentially,
    /// because float addition is not associative and the result must be
    /// the row-at-a-time one bit for bit.
    fn fold(&mut self, s: usize, argv: Option<&VecVal>, i: usize, j: usize) {
        let Some(argv) = argv else {
            if let AccCol::Count(c) = self {
                c[s] += (j - i) as u64;
            }
            return;
        };
        match (self, argv) {
            // count(expr): rows whose argument failed don't count.
            (AccCol::Count(c), _) => c[s] += (i..j).filter(|&r| argv.valid(r)).count() as u64,
            (AccCol::SumU(v), VecVal::Scalar(x)) => {
                if let Some(x) = x.as_uint() {
                    v[s] = v[s].wrapping_add(x.wrapping_mul((j - i) as u64));
                }
            }
            (AccCol::SumU(v), VecVal::Col(Column::UInt(a), _)) => {
                for r in (i..j).filter(|&r| argv.valid(r)) {
                    v[s] = v[s].wrapping_add(a[r]);
                }
            }
            (AccCol::SumU(v), _) => {
                for x in (i..j).filter_map(|r| argv.get(r)?.as_uint()) {
                    v[s] = v[s].wrapping_add(x);
                }
            }
            (AccCol::SumF(v), VecVal::Scalar(x)) => {
                if let Some(x) = x.as_float() {
                    for _ in i..j {
                        v[s] += x;
                    }
                }
            }
            (AccCol::SumF(v), VecVal::Col(Column::Float(a), _)) => {
                for r in (i..j).filter(|&r| argv.valid(r)) {
                    v[s] += a[r];
                }
            }
            (AccCol::SumF(v), _) => {
                for x in (i..j).filter_map(|r| argv.get(r)?.as_float()) {
                    v[s] += x;
                }
            }
            // The same value on every row: one fold is all of them.
            (AccCol::Ext { max, vals, seen }, VecVal::Scalar(x)) => {
                fold_ext(*max, vals, seen, s, x.clone());
            }
            (
                AccCol::Ext { max, vals: Column::UInt(v), seen },
                VecVal::Col(Column::UInt(a), _),
            ) => {
                for r in (i..j).filter(|&r| argv.valid(r)) {
                    if !seen[s] || beyond(*max, a[r].cmp(&v[s])) {
                        v[s] = a[r];
                        seen[s] = true;
                    }
                }
            }
            (AccCol::Ext { max, vals, seen }, _) => {
                for x in (i..j).filter_map(|r| argv.get(r)) {
                    fold_ext(*max, vals, seen, s, x);
                }
            }
        }
    }

    /// Slot `s` as an [`Acc`]: what a snapshot writes.
    fn acc(&self, s: usize) -> Acc {
        match self {
            AccCol::Count(v) => Acc::Count(v[s]),
            AccCol::SumU(v) => Acc::SumU(v[s]),
            AccCol::SumF(v) => Acc::SumF(v[s]),
            AccCol::Ext { max, vals, seen } => {
                let m = seen[s].then(|| vals.get(s));
                if *max {
                    Acc::Max(m)
                } else {
                    Acc::Min(m)
                }
            }
        }
    }

    /// Set the freshly reset slot `s` from a restored accumulator, which
    /// must be of this aggregate's kind.
    fn restore(&mut self, s: usize, acc: Acc) -> Result<(), SnapError> {
        match (self, acc) {
            (AccCol::Count(v), Acc::Count(x)) | (AccCol::SumU(v), Acc::SumU(x)) => v[s] = x,
            (AccCol::SumF(v), Acc::SumF(x)) => v[s] = x,
            (AccCol::Ext { max: false, vals, seen }, Acc::Min(m))
            | (AccCol::Ext { max: true, vals, seen }, Acc::Max(m)) => {
                if let Some(x) = m {
                    vals.set(s, x);
                    seen[s] = true;
                }
            }
            (_, acc) => return Err(proto(format!("accumulator {acc:?} is not its aggregate's"))),
        }
        Ok(())
    }

    /// [`Acc::value`] of each of `slots`, in order, as one column.
    fn column(&self, slots: &[u32]) -> Column {
        let pick = |v: &[u64]| slots.iter().map(|&s| v[s as usize]).collect();
        match self {
            AccCol::Count(v) | AccCol::SumU(v) => Column::UInt(pick(v)),
            AccCol::SumF(v) => Column::Float(slots.iter().map(|&s| v[s as usize]).collect()),
            AccCol::Ext { vals, seen, .. } if slots.iter().all(|&s| seen[s as usize]) => {
                vals.gather_rows(slots)
            }
            ext => {
                let vals = slots.iter().map(|&s| Some(ext.acc(s as usize).value())).collect();
                VecVal::from_rows(vals).into_column(None, slots.len())
            }
        }
    }
}

/// Fold one value into a min/max slot: it replaces the extreme when
/// [`Value::total_cmp`] puts it strictly beyond.
fn fold_ext(max: bool, vals: &mut Column, seen: &mut [bool], s: usize, x: Value) {
    if !seen[s] || beyond(max, x.total_cmp(&vals.get(s))) {
        vals.set(s, x);
        seen[s] = true;
    }
}

/// The open groups of an exact aggregation. A group is a slot: its key
/// is row `s` of one typed column per group expression, its
/// accumulators slot `s` of one [`AccCol`] per aggregate, and a closed
/// group's slot goes to the next new group. The index maps a seeded hash
/// of the typed key to the newest slot with that hash; slots whose keys
/// share all 64 bits chain through `next`, and [`key_eq`] — equality by
/// [`Value::total_cmp`] — tells them apart.
struct Slab {
    seed: u64,
    keys: Vec<Column>,
    accs: Vec<AccCol>,
    hash: Vec<u64>,
    next: Vec<u32>,
    /// Flush value per slot: [`NEVER`] for a free slot or a group
    /// without one.
    flush: Vec<u64>,
    live: Vec<bool>,
    free: Vec<u32>,
    index: HashIndex<u32>,
    /// Groups open.
    open: usize,
    /// No open group has a smaller flush value.
    min_flush: u64,
}

impl Slab {
    fn new(core: &AggCore) -> Slab {
        Slab {
            seed: keyhash::seed(),
            keys: Vec::new(),
            accs: core.aggs.iter().map(|(f, _, ty)| AccCol::new(*f, *ty)).collect(),
            hash: Vec::new(),
            next: Vec::new(),
            flush: Vec::new(),
            live: Vec::new(),
            free: Vec::new(),
            index: HashIndex::default(),
            open: 0,
            min_flush: NEVER,
        }
    }

    /// The open group whose key is row `r` of `keys`, hashing to `h`.
    fn find(&self, h: u64, keys: &[Column], r: usize) -> Option<usize> {
        let mut s = *self.index.get(&h)? as usize;
        loop {
            if self.keys.iter().zip(keys).all(|(mine, k)| key_eq(mine, s, k, r)) {
                return Some(s);
            }
            s = match self.next[s] {
                NIL => return None,
                next => next as usize,
            };
        }
    }

    /// Open a group keyed by row `r` of `keys`, with empty accumulators,
    /// in a freed slot or else a new one past the end.
    fn insert(&mut self, h: u64, keys: &[Column], r: usize, flush: Option<u64>) -> usize {
        let s = match self.free.pop() {
            Some(s) => s as usize,
            None => {
                self.hash.push(0);
                self.next.push(NIL);
                self.flush.push(NEVER);
                self.live.push(false);
                self.hash.len() - 1
            }
        };
        if self.keys.is_empty() {
            // The key columns take the types of the first key's.
            self.keys = keys.iter().map(|k| k.gather_rows(&[])).collect();
        }
        for (mine, k) in self.keys.iter_mut().zip(keys) {
            mine.set_from(s, k, r);
        }
        self.hash[s] = h;
        self.next[s] = self.index.insert(h, s as u32).unwrap_or(NIL);
        self.flush[s] = flush.unwrap_or(NEVER);
        self.live[s] = true;
        self.open += 1;
        self.min_flush = self.min_flush.min(self.flush[s]);
        for a in &mut self.accs {
            a.reset(s);
        }
        s
    }

    /// Close the group in slot `s`: no lookup finds it again. The slot is
    /// freed once its row has been emitted.
    fn unlink(&mut self, s: usize) {
        let Entry::Occupied(mut head) = self.index.entry(self.hash[s]) else {
            unreachable!("an open group is indexed");
        };
        let after = self.next[s];
        if *head.get() as usize == s {
            if after == NIL {
                head.remove();
            } else {
                head.insert(after);
            }
        } else {
            let mut p = *head.get() as usize;
            while self.next[p] as usize != s {
                p = self.next[p] as usize;
            }
            self.next[p] = after;
        }
        self.live[s] = false;
        self.flush[s] = NEVER;
        self.open -= 1;
    }

    /// Slot `a` against slot `b` in emission order: flush value first,
    /// then the full key, by [`Value::total_cmp`] (the order
    /// [`sort_closed`] gives boxed keys).
    fn order(&self, flush_idx: Option<usize>, a: usize, b: usize) -> Ordering {
        let by = |c: &Column| col_cmp(c, a, b);
        flush_idx.map_or(Ordering::Equal, |f| by(&self.keys[f])).then_with(|| {
            self.keys.iter().map(by).find(|o| o.is_ne()).unwrap_or(Ordering::Equal)
        })
    }

    /// Put `slots` in emission order: by a two-word prefix of the order
    /// — the flush column's word, then the first other key column's —
    /// and by [`order`](Slab::order) only where the prefixes tie.
    fn sort(&self, slots: &mut [u32], flush_idx: Option<usize>) {
        let word = |c: Option<&Column>, s| c.map_or(0, |c| order_word(c, s));
        let first = flush_idx.and_then(|f| self.keys.get(f));
        let second = (0..self.keys.len()).find(|&k| Some(k) != flush_idx).map(|k| &self.keys[k]);
        let mut tagged: Vec<(u64, u64, u32)> = slots
            .iter()
            .map(|&s| (word(first, s as usize), word(second, s as usize), s))
            .collect();
        tagged.sort_unstable_by(|a, b| {
            (a.0, a.1)
                .cmp(&(b.0, b.1))
                .then_with(|| self.order(flush_idx, a.2 as usize, b.2 as usize))
        });
        for (slot, t) in slots.iter_mut().zip(tagged) {
            *slot = t.2;
        }
    }

    /// Every open group, in emission order.
    fn open_sorted(&self, flush_idx: Option<usize>) -> Vec<u32> {
        let mut slots: Vec<u32> =
            (0..self.live.len() as u32).filter(|&s| self.live[s as usize]).collect();
        self.sort(&mut slots, flush_idx);
        slots
    }
}

/// Exact aggregation with ordered flushing — the HFTA's aggregate
/// operator, with punctuation translation.
pub struct AggregateOp {
    core: AggCore,
    slab: Slab,
    watermark: Option<u64>,
    scratch: EvalScratch,
    /// Slots closed by the current call, in emission order; freed once
    /// [`take_closed`](Self::take_closed) has emitted them.
    closed: Vec<u32>,
    /// Translation of input punctuation to flush-attribute bounds:
    /// `(input col, divisor)`.
    punct_in: Option<(usize, u64)>,
    /// Output column index of the flush attribute (for forwarded puncts).
    punct_out: Option<usize>,
    /// Groups emitted so far.
    pub emitted: u64,
    /// Peak number of simultaneously open groups.
    pub peak_groups: usize,
    tuples_in: u64,
    batches: u64,
    puncts: u64,
    stats: Arc<OpCounters>,
}

impl AggregateOp {
    /// Build an exact aggregate over `core`; `punct_in` and `punct_out`
    /// translate punctuation (see the fields).
    pub fn new(
        core: AggCore,
        punct_in: Option<(usize, u64)>,
        punct_out: Option<usize>,
    ) -> AggregateOp {
        AggregateOp {
            slab: Slab::new(&core),
            core,
            watermark: None,
            scratch: EvalScratch::default(),
            closed: Vec::new(),
            punct_in,
            punct_out,
            emitted: 0,
            peak_groups: 0,
            tuples_in: 0,
            batches: 0,
            puncts: 0,
            stats: Arc::new(OpCounters::default()),
        }
    }

    /// Fold every live row of `cols`. Group keys and aggregate arguments
    /// are evaluated once for the whole batch — by vector kernel, or row
    /// by row for a program without one.
    fn fold_batch(&mut self, cols: &ColumnBatch) {
        let n = cols.n_rows();
        if n == 0 {
            return;
        }
        let scratch = &mut self.scratch;
        let keys = self.core.group_progs.iter().map(|p| p.eval_vec_or_rows(cols, scratch)).collect();
        let args: Vec<Option<VecVal>> = self
            .core
            .aggs
            .iter()
            .map(|(_, arg, _)| arg.as_ref().map(|p| p.eval_vec_or_rows(cols, scratch)))
            .collect();
        self.fold(keys, &args, n);
    }

    /// Fold `n` rows of evaluated keys and arguments. A row whose key
    /// failed to evaluate is skipped; runs of adjacent rows with equal
    /// keys — network streams have strong temporal locality — pay one
    /// group lookup and fold their argument slices in per-column loops.
    fn fold(&mut self, keys: Vec<VecVal>, args: &[Option<VecVal>], n: usize) {
        let mut valid: Option<Vec<bool>> = None;
        let keys: Vec<Column> = keys
            .into_iter()
            .map(|k| match k {
                VecVal::Scalar(v) => Column::broadcast(&v, n),
                VecVal::Col(c, mask) => {
                    if let Some(m) = mask {
                        valid = Some(match valid.take() {
                            None => m,
                            Some(v) => v.iter().zip(&m).map(|(a, b)| *a && *b).collect(),
                        });
                    }
                    c
                }
            })
            .collect();
        let ok = |r: usize| valid.as_ref().is_none_or(|v| v[r]);
        let hash = hash_rows(self.slab.seed, &keys, n, |r| r);
        let mut i = 0;
        while i < n {
            if !ok(i) {
                i += 1;
                continue;
            }
            let mut j = i + 1;
            while j < n
                && ok(j)
                && hash[j] == hash[i]
                && keys.iter().all(|k| key_eq(k, i, k, j))
            {
                j += 1;
            }
            // Every row of the run shares the flush value, so one check
            // covers the run.
            let flush = self.core.flush_idx.and_then(|f| keys[f].uint(i));
            if let Some(v) = flush {
                if self.watermark.is_none_or(|w| v > w) {
                    self.watermark = Some(v);
                    self.close_below(v.saturating_sub(self.core.slack));
                }
            }
            let s = match self.slab.find(hash[i], &keys, i) {
                Some(s) => s,
                None => self.slab.insert(hash[i], &keys, i, flush),
            };
            for (acc, argv) in self.slab.accs.iter_mut().zip(args) {
                acc.fold(s, argv.as_ref(), i, j);
            }
            self.peak_groups = self.peak_groups.max(self.slab.open);
            i = j;
        }
    }

    /// Close every group whose flush value is below `bound`: one scan of
    /// the flush-value column, skipped when no open group is below.
    fn close_below(&mut self, bound: u64) {
        if self.core.flush_idx.is_none() || self.slab.min_flush >= bound {
            return;
        }
        let mut closed = Vec::new();
        let mut min = NEVER;
        for (s, &f) in self.slab.flush.iter().enumerate() {
            if f < bound {
                closed.push(s as u32);
            } else {
                min = min.min(f);
            }
        }
        self.slab.min_flush = min;
        self.slab.sort(&mut closed, self.core.flush_idx);
        self.close(closed);
    }

    /// Close `slots`, given in emission order, queueing them for
    /// emission.
    fn close(&mut self, slots: Vec<u32>) {
        for &s in &slots {
            self.slab.unlink(s as usize);
        }
        self.emitted += slots.len() as u64;
        self.closed.extend(slots);
    }

    /// The groups closed since the last call as one batch — key columns,
    /// then one column per aggregate — and their slots freed.
    fn take_closed(&mut self) -> ColumnBatch {
        if self.closed.is_empty() {
            return ColumnBatch::default();
        }
        let slots = std::mem::take(&mut self.closed);
        let keys = self.slab.keys.iter().map(|k| k.gather_rows(&slots));
        let accs = self.slab.accs.iter().map(|a| a.column(&slots));
        let batch = ColumnBatch::from_columns(keys.chain(accs).collect());
        self.slab.free.extend(slots);
        batch
    }

    /// Punctuation: future flush values are `>= bound`, so the groups
    /// below it close, and the bound is forwarded on the output flush
    /// column.
    fn close_at(&mut self, p: &Punct) -> Option<Punct> {
        let (col, div) = self.punct_in?;
        let bound = p.bound(col)? / div.max(1);
        self.close_below(bound);
        Some(Punct::new(self.punct_out?, Value::UInt(bound)))
    }
}

impl Operator for AggregateOp {
    /// Fold a batch, then its punctuation rider. The groups both closed
    /// leave as one batch, with the rider translated to the output as
    /// its rider.
    fn push_cols(
        &mut self,
        cols: ColumnBatch,
        punct: Option<Punct>,
    ) -> (ColumnBatch, Option<Punct>) {
        self.batches += 1;
        self.tuples_in += cols.n_rows() as u64;
        self.fold_batch(&cols);
        self.puncts += u64::from(punct.is_some());
        let rider = punct.and_then(|p| self.close_at(&p));
        (self.take_closed(), rider)
    }

    /// Every open group, in emission order.
    fn finish(&mut self) -> ColumnBatch {
        let open = self.slab.open_sorted(self.core.flush_idx);
        self.slab.min_flush = NEVER;
        self.close(open);
        self.take_closed()
    }

    fn kind(&self) -> &'static str {
        "aggregate"
    }

    fn stats_handle(&self) -> Option<Arc<OpCounters>> {
        Some(self.stats.clone())
    }

    fn publish_stats(&self) {
        self.stats.tuples_in.set(self.tuples_in);
        self.stats.tuples_out.set(self.emitted);
        self.stats.batches_in.set(self.batches);
        self.stats.puncts_in.set(self.puncts);
        self.stats.groups_evicted.set(self.emitted);
        self.stats.peak_held.set(self.peak_groups as u64);
    }

    /// The open groups in emission order — so the bytes are a function
    /// of the open-group set — then the watermark and the counters. Only
    /// called at a quiescent point, with no closed group waiting to be
    /// emitted.
    fn snapshot(&self, w: &mut SnapWriter) {
        let open = self.slab.open_sorted(self.core.flush_idx);
        w.put_u32(open.len() as u32);
        for s in open {
            let s = s as usize;
            snap_group(
                w,
                self.slab.keys.iter().map(|c| c.get(s)),
                self.slab.accs.iter().map(|a| a.acc(s)),
            );
        }
        w.put_opt_u64(self.watermark);
        w.put_u64(self.emitted);
        w.put_u64(self.peak_groups as u64);
        w.put_u64(self.tuples_in);
        w.put_u64(self.batches);
        w.put_u64(self.puncts);
    }

    fn restore(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        let n = r.get_count(4)?;
        self.slab = Slab::new(&self.core);
        self.closed.clear();
        for _ in 0..n {
            let (key, accs) = read_group(r, &self.core)?;
            let keys: Vec<Column> = key.iter().map(|v| Column::broadcast(v, 1)).collect();
            let h = hash_rows(self.slab.seed, &keys, 1, |i| i)[0];
            let s = self.slab.insert(h, &keys, 0, self.core.flush_value(&key));
            for (col, acc) in self.slab.accs.iter_mut().zip(accs) {
                col.restore(s, acc)?;
            }
        }
        self.watermark = r.get_opt_u64()?;
        self.emitted = r.get_u64()?;
        self.peak_groups = (r.get_u64()? as usize).max(self.slab.open);
        self.tuples_in = r.get_u64()?;
        self.batches = r.get_u64()?;
        self.puncts = r.get_u64()?;
        Ok(())
    }

    fn held(&self) -> usize {
        self.slab.open
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
            Some(slot) if same_key(&slot.key, &key) => {
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
                snap_group(w, slot.key.iter().cloned(), slot.accs.iter().cloned());
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

    /// Push `rows` as one batch with `punct` as its rider: the closed
    /// groups, then the translated rider, as items.
    fn push(op: &mut AggregateOp, rows: &[Tuple], punct: Option<Punct>) -> Vec<StreamItem> {
        let (cb, p) = op.push_cols(ColumnBatch::from_tuples(rows), punct);
        cb.into_items(p)
    }

    fn finish(op: &mut AggregateOp) -> Vec<StreamItem> {
        op.finish().into_items(None)
    }

    #[test]
    fn exact_ordered_flush() {
        let mut agg = AggregateOp::new(core(), None, None);
        let mut out = push(&mut agg, &[tup(&[1, 10])], None);
        out.extend(push(&mut agg, &[tup(&[1, 5])], None));
        assert!(out.is_empty(), "group 1 still open");
        out.extend(push(&mut agg, &[tup(&[2, 7])], None));
        assert_eq!(as_rows(&out), vec![vec![1, 2, 15]], "advance closes group 1");
        assert_eq!(as_rows(&finish(&mut agg)), vec![vec![2, 1, 7]]);
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
        let mut agg = AggregateOp::new(core, None, None);
        let out = push(&mut agg, &[tup(&[10, 0]), tup(&[11, 0])], None);
        assert!(out.is_empty(), "10 >= 11-2: still open");
        // Bound 11: closes group 10 only.
        let out = push(&mut agg, &[tup(&[13, 0])], None);
        assert_eq!(as_rows(&out), vec![vec![10, 1]]);
        // A laggard within the band is still accepted.
        assert!(push(&mut agg, &[tup(&[11, 0])], None).is_empty());
        assert_eq!(as_rows(&finish(&mut agg)), vec![vec![11, 2], vec![13, 1]]);
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
        let mut agg = AggregateOp::new(core, None, None);
        let rows = [[1, 9], [1, 3], [1, 9], [2, 0]].map(|r| tup(&r));
        let rows = as_rows(&push(&mut agg, &rows, None));
        // Both closed rows carry bucket 1, in key order.
        assert_eq!(rows, vec![vec![1, 3, 1], vec![1, 9, 2]]);
    }

    #[test]
    fn punct_closes_without_tuples() {
        let mut op = AggregateOp::new(core(), Some((0, 1)), Some(0));
        assert!(push(&mut op, &[tup(&[5, 1])], None).is_empty());
        let out = push(&mut op, &[], Some(Punct::new(0, Value::UInt(6))));
        assert_eq!(as_rows(&out), vec![vec![5, 1, 1]]);
        // And the punct is forwarded on the output flush column.
        assert!(out.iter().any(|i| matches!(i, StreamItem::Punct(p) if p.bound(0) == Some(6))));
    }

    #[test]
    fn batch_split_is_invariant() {
        // Runs of equal keys, key changes, flush advances, and a trailing
        // punctuation: the rows as one batch, split in two at every
        // point, and one row per batch must all aggregate identically.
        let mk = || AggregateOp::new(core(), Some((0, 1)), Some(0));
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
        let run = |cuts: &[usize]| {
            let mut op = mk();
            let mut out = Vec::new();
            let mut from = 0;
            for &to in cuts.iter().chain([&tuples.len()]) {
                let rider = (to == tuples.len()).then(|| punct.clone());
                out.extend(push(&mut op, &tuples[from..to], rider));
                from = to;
            }
            out.extend(finish(&mut op));
            (out, op.emitted, op.held())
        };
        let whole = run(&[]);
        assert_eq!(as_rows(&whole.0).len(), 4, "groups 1, 2, 1 (late) and 3");
        for cut in 1..tuples.len() {
            assert_eq!(run(&[cut]), whole, "split at {cut}");
        }
        let singles: Vec<usize> = (1..tuples.len()).collect();
        assert_eq!(run(&singles), whole, "one row per batch");
    }

    #[test]
    fn punct_mid_batch_closes_the_run_before_it() {
        // A punctuation token lands right after a run of one key: the
        // flush must see the whole run, and the key's next rows must
        // open a fresh group rather than resurrect the closed one.
        let mut op = AggregateOp::new(core(), Some((0, 1)), Some(0));
        let head = [(5u64, 1u64), (5, 2), (5, 4)].map(|(a, b)| tup(&[a, b]));
        let tail = [(5u64, 100u64), (5, 200)].map(|(a, b)| tup(&[a, b]));
        let out = push(&mut op, &head, Some(Punct::new(0, Value::UInt(6))));
        assert_eq!(as_rows(&out), vec![vec![5, 3, 7]], "flush sees the whole run");
        assert!(push(&mut op, &tail, None).is_empty());
        assert_eq!(op.held(), 1, "resumed key 5 is a fresh group");
        assert_eq!(as_rows(&finish(&mut op)), vec![vec![5, 2, 300]]);
    }

    /// A group key is equal to another exactly when `Value::total_cmp`
    /// says so: every NaN of one bit pattern is one group, whether its
    /// rows come as a run or interleaved, while −0.0 and +0.0 stay two —
    /// in the exact aggregate and in a one-slot direct-mapped table,
    /// where every key shares the slot.
    #[test]
    fn nan_keys_are_one_group_and_signed_zeros_two() {
        let fprog = |i| {
            Program::compile(
                &PExpr::Col { index: i, ty: DataType::Float },
                &ParamBindings::new(),
                &UdfRegistry::with_builtins(),
                &FileStore::new(),
            )
            .unwrap()
        };
        let core = || {
            AggCore::new(vec![fprog(0)], vec![(AggFunc::Count, None, DataType::UInt)], None, 0)
        };
        let row = |k: f64| Tuple::new(vec![Value::Float(k)]);
        let groups = |out: &[StreamItem]| -> Vec<(u64, u64)> {
            out.iter()
                .filter_map(|i| i.as_tuple())
                .map(|t| (t.get(0).as_float().unwrap().to_bits(), t.get(1).as_uint().unwrap()))
                .collect()
        };
        let nan = f64::NAN;
        let (neg, pos) = ((-0.0f64).to_bits(), 0.0f64.to_bits());

        let mut op = AggregateOp::new(core(), None, None);
        let rows = [nan, nan, nan, nan, -0.0, nan, 0.0, nan].map(row);
        let mut out = push(&mut op, &rows, None);
        out.extend(finish(&mut op));
        assert_eq!(
            groups(&out),
            vec![(neg, 1), (pos, 1), (nan.to_bits(), 6)],
            "in total_cmp order: -0.0, +0.0, NaN"
        );

        let mut dm = DirectMappedAggregator::new(core(), 1);
        let mut out = Vec::new();
        for k in [nan, nan, nan] {
            dm.update(&row(k), &mut out);
        }
        assert!(out.is_empty(), "NaN rows fold into the resident NaN group");
        assert_eq!(dm.stats.evictions, 0);
        dm.finish(&mut out);
        assert_eq!(groups(&out), vec![(nan.to_bits(), 3)], "one partial");
        out.clear();
        for k in [-0.0, 0.0] {
            dm.update(&row(k), &mut out);
        }
        dm.finish(&mut out);
        assert_eq!(groups(&out), vec![(neg, 1), (pos, 1)], "the two zeros are two partials");
    }

    /// `UInt(2^53)` and `UInt(2^53 + 1)` widen to the same `f64`, so
    /// their key words — and with one key column, their hashes — are
    /// equal: a real collision, which the key compare must resolve, and
    /// closing one of the pair must leave the other findable.
    #[test]
    fn colliding_key_hashes_stay_two_groups() {
        let (a, b) = (1u64 << 53, (1u64 << 53) + 1);
        assert_eq!(a as f64, b as f64);
        // Group and flush on the colliding column, with slack 1 so both
        // stay open until the watermark passes b.
        let core = AggCore::new(
            vec![prog(0)],
            vec![
                (AggFunc::Count, None, DataType::UInt),
                (AggFunc::Sum, Some(prog(1)), DataType::UInt),
            ],
            Some(0),
            1,
        );
        let mut op = AggregateOp::new(core, None, None);
        let mut out = Vec::new();
        for (k, v) in [(b, 10), (a, 1), (b, 100), (a, 1000)] {
            out.extend(push(&mut op, &[tup(&[k, v])], None));
        }
        assert_eq!(op.held(), 2);
        // The watermark reaches b + 1: only a closes.
        out.extend(push(&mut op, &[tup(&[b + 1, 0])], None));
        assert_eq!(as_rows(&out), vec![vec![a, 2, 1001]]);
        out.extend(push(&mut op, &[tup(&[b, 5])], None));
        out.extend(finish(&mut op));
        assert_eq!(as_rows(&out), vec![vec![a, 2, 1001], vec![b, 3, 115], vec![b + 1, 1, 0]]);
    }

    #[test]
    fn unordered_aggregation_waits_for_finish() {
        let core = AggCore::new(
            vec![prog(0)],
            vec![(AggFunc::Count, None, DataType::UInt)],
            None,
            0,
        );
        let mut agg = AggregateOp::new(core, None, None);
        for v in [3u64, 1, 3, 2, 1] {
            assert!(push(&mut agg, &[tup(&[v, 0])], None).is_empty());
        }
        assert_eq!(finish(&mut agg).len(), 3);
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
        let mut agg = AggregateOp::new(core, None, None);
        assert!(push(&mut agg, &[tup(&[1, 5]), tup(&[1, 2]), tup(&[1, 9])], None).is_empty());
        assert_eq!(as_rows(&finish(&mut agg)), vec![vec![1, 2, 9]]);
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
        let mut exact = AggregateOp::new(mk_core(), None, None);
        let mut combine = AggregateOp::new(combine_core, None, None);

        // A skewed input with bucket advances.
        let data: Vec<Tuple> = (0..500)
            .map(|i| tup(&[i / 100, if i % 7 == 0 { 1 } else { i % 3 }]))
            .collect();
        let mut partials = Vec::new();
        for d in &data {
            dm.update(d, &mut partials);
        }
        dm.finish(&mut partials);
        let mut direct = push(&mut exact, &data, None);
        direct.extend(finish(&mut exact));

        let mut combined = push(&mut combine, &crate::tuple::tuples_of(partials), None);
        combined.extend(finish(&mut combine));

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
        let mk = || AggregateOp::new(core(), Some((0, 1)), Some(0));
        let rows = [[1, 5], [1, 3], [2, 10], [2, 1], [3, 7], [3, 2]].map(|r| tup(&r));
        let (head, tail) = rows.split_at(3); // cut mid-window of bucket 2

        let mut cont = mk();
        let mut cont_out = push(&mut cont, &rows, None);
        cont_out.extend(finish(&mut cont));

        let mut first = mk();
        let mut split_out = push(&mut first, head, None);
        let mut w = SnapWriter::new();
        Operator::snapshot(&first, &mut w);
        let sealed = w.seal();

        let mut second = mk();
        let mut r = SnapReader::open(&sealed).expect("open");
        Operator::restore(&mut second, &mut r).expect("restore");
        r.finish().expect("payload fully consumed");
        split_out.extend(push(&mut second, tail, None));
        split_out.extend(finish(&mut second));

        assert_eq!(as_rows(&cont_out), as_rows(&split_out));
        assert_eq!(second.emitted, cont.emitted);
        assert_eq!(second.peak_groups, cont.peak_groups);
    }

    #[test]
    fn snapshot_shape_mismatch_is_rejected() {
        // A snapshot taken from a 2-agg operator must not restore into a
        // 1-agg operator: the shape check fires a Protocol error.
        let mut donor = AggregateOp::new(core(), None, None);
        push(&mut donor, &[tup(&[1, 5])], None);
        let mut w = SnapWriter::new();
        Operator::snapshot(&donor, &mut w);
        let sealed = w.seal();

        let slim_core = AggCore::new(
            vec![prog(0)],
            vec![(AggFunc::Count, None, DataType::UInt)],
            Some(0),
            0,
        );
        let mut slim = AggregateOp::new(slim_core, None, None);
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
