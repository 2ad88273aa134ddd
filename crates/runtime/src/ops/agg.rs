//! Group-by / aggregation.
//!
//! Two tables share one core and one group store:
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
//! The store keeps the open groups in typed columns: a group is a slot,
//! its key a row of one column per group expression and its
//! accumulators a row of one column per aggregate. A close scans the
//! store's flush-value column and emits the closed groups in one total
//! order. The two tables differ only in how a key finds its slot: the
//! exact aggregate through a seeded hash index with collision chains,
//! the direct-mapped table by its key hash masked to the table size,
//! evicting the resident group on a mismatch. The direct-mapped table is
//! generic over [`FieldSource`], so it aggregates raw packets through
//! the interpretation library.

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
use std::collections::hash_map::Entry;
use std::sync::Arc;

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

    /// The flush value of the key in row `r` of `keys`.
    fn flush_value(&self, keys: &[Column], r: usize) -> Option<u64> {
        keys.get(self.flush_idx?)?.uint(r)
    }

    /// Decode a group's key, checking its arity against this core's, as
    /// one single-row column per group expression.
    fn read_key(&self, r: &mut SnapReader<'_>) -> Result<Vec<Column>, SnapError> {
        let key = r.get_values()?;
        if key.len() != self.group_progs.len() {
            return Err(proto(format!(
                "group key arity {} != {}",
                key.len(),
                self.group_progs.len()
            )));
        }
        Ok(key.iter().map(|v| Column::broadcast(v, 1)).collect())
    }
}

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
/// rows into a slot equals folding them one at a time, in order.
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
        match func {
            AggFunc::Count => AccCol::Count(Vec::new()),
            AggFunc::Sum if ty != DataType::Float => AccCol::SumU(Vec::new()),
            // `avg` is split into sum+count by the planner; an unsplit avg
            // (pure-HFTA aggregation) accumulates as a float sum and the
            // surrounding plan divides.
            AggFunc::Sum | AggFunc::Avg => AccCol::SumF(Vec::new()),
            AggFunc::Min | AggFunc::Max => {
                let vals = match ty {
                    DataType::Bool => Column::Bool(Vec::new()),
                    DataType::UInt => Column::UInt(Vec::new()),
                    DataType::Float => Column::Float(Vec::new()),
                    DataType::Ip => Column::Ip(Vec::new()),
                    DataType::Str => Column::Str(Vec::new()),
                };
                AccCol::Ext { max: func == AggFunc::Max, vals, seen: Vec::new() }
            }
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
    // Inlined into both tables' fold loops, because the exact
    // aggregate's per-run fold is its hot path and the direct-mapped
    // table's call site would otherwise keep it out of line.
    #[inline]
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

    /// The accumulated value of slot `s`.
    fn value(&self, s: usize) -> Value {
        match self {
            AccCol::Count(v) | AccCol::SumU(v) => Value::UInt(v[s]),
            AccCol::SumF(v) => Value::Float(v[s]),
            // Empty min/max can only be emitted if every contributing
            // tuple's argument failed to evaluate; emit zero.
            AccCol::Ext { vals, seen, .. } => {
                if seen[s] {
                    vals.get(s)
                } else {
                    Value::UInt(0)
                }
            }
        }
    }

    /// Serialize slot `s`: a kind tag, then its payload.
    fn put(&self, s: usize, w: &mut SnapWriter) {
        match self {
            AccCol::Count(v) | AccCol::SumU(v) => {
                w.put_u8(if matches!(self, AccCol::Count(_)) { 0 } else { 1 });
                w.put_u64(v[s]);
            }
            AccCol::SumF(v) => {
                w.put_u8(2);
                w.put_f64(v[s]);
            }
            AccCol::Ext { max, vals, seen } => {
                w.put_u8(3 + u8::from(*max));
                w.put_u8(u8::from(seen[s]));
                if seen[s] {
                    w.put_value(&vals.get(s));
                }
            }
        }
    }

    /// Decode what [`put`](AccCol::put) wrote into the freshly reset slot
    /// `s`; the tag must be this aggregate's kind.
    fn get(&mut self, s: usize, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        match (self, r.get_u8()?) {
            (AccCol::Count(v), 0) | (AccCol::SumU(v), 1) => v[s] = r.get_u64()?,
            (AccCol::SumF(v), 2) => v[s] = r.get_f64()?,
            (AccCol::Ext { max, vals, seen }, t) if t == 3 + u8::from(*max) => {
                match r.get_u8()? {
                    0 => {}
                    1 => {
                        vals.set(s, r.get_value()?);
                        seen[s] = true;
                    }
                    b => return Err(proto(format!("bad option byte {b}"))),
                }
            }
            (_, t) => return Err(proto(format!("accumulator tag {t} is not its aggregate's"))),
        }
        Ok(())
    }

    /// The value of each of `slots`, in order, as one column.
    fn column(&self, slots: &[u32]) -> Column {
        let pick = |v: &[u64]| slots.iter().map(|&s| v[s as usize]).collect();
        match self {
            AccCol::Count(v) | AccCol::SumU(v) => Column::UInt(pick(v)),
            AccCol::SumF(v) => Column::Float(slots.iter().map(|&s| v[s as usize]).collect()),
            AccCol::Ext { vals, seen, .. } if slots.iter().all(|&s| seen[s as usize]) => {
                vals.gather_rows(slots)
            }
            ext => {
                let vals = slots.iter().map(|&s| Some(ext.value(s as usize))).collect();
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

/// The groups of either table. A group is a slot: its key is row `s` of
/// one typed column per group expression, its accumulators slot `s` of
/// one [`AccCol`] per aggregate. Keys are equal exactly when [`key_eq`]
/// — equality by [`Value::total_cmp`] — says so: one NaN group per bit
/// pattern, −0.0 and +0.0 two groups. Which slot a key goes to is the
/// caller's: the store only opens, folds, closes and emits slots.
struct Store {
    keys: Vec<Column>,
    accs: Vec<AccCol>,
    /// Flush value per slot: [`NEVER`] for a free slot or a group
    /// without one.
    flush: Vec<u64>,
    live: Vec<bool>,
    /// Groups open.
    open: usize,
    /// No open group has a smaller flush value.
    min_flush: u64,
}

impl Store {
    fn new(core: &AggCore) -> Store {
        Store {
            keys: Vec::new(),
            accs: core.aggs.iter().map(|(f, _, ty)| AccCol::new(*f, *ty)).collect(),
            flush: Vec::new(),
            live: Vec::new(),
            open: 0,
            min_flush: NEVER,
        }
    }

    /// Whether slot `s`'s key is row `r` of `keys`.
    fn holds(&self, s: usize, keys: &[Column], r: usize) -> bool {
        self.keys.iter().zip(keys).all(|(mine, k)| key_eq(mine, s, k, r))
    }

    /// Open a group keyed by row `r` of `keys` in the free slot `s`, with
    /// empty accumulators.
    fn put(&mut self, s: usize, keys: &[Column], r: usize, flush: Option<u64>) {
        if self.keys.is_empty() {
            // The key columns take the types of the first key's.
            self.keys = keys.iter().map(|k| k.gather_rows(&[])).collect();
        }
        // A slot past the end grows the store to it: the slots skipped on
        // the way are free, with this key as a placeholder.
        while self.live.len() < s {
            let t = self.live.len();
            self.put(t, keys, r, None);
            self.close(t);
        }
        if s == self.live.len() {
            self.flush.push(NEVER);
            self.live.push(false);
        }
        for (mine, k) in self.keys.iter_mut().zip(keys) {
            mine.set_from(s, k, r);
        }
        for a in &mut self.accs {
            a.reset(s);
        }
        self.flush[s] = flush.unwrap_or(NEVER);
        self.live[s] = true;
        self.open += 1;
        self.min_flush = self.min_flush.min(self.flush[s]);
    }

    /// Fold rows `i..j` of the evaluated arguments into slot `s`.
    fn fold(&mut self, s: usize, args: &[Option<VecVal>], i: usize, j: usize) {
        for (acc, argv) in self.accs.iter_mut().zip(args) {
            acc.fold(s, argv.as_ref(), i, j);
        }
    }

    /// Close the group in slot `s`. Its key and accumulators stay
    /// readable until the slot is opened again.
    fn close(&mut self, s: usize) {
        self.live[s] = false;
        self.flush[s] = NEVER;
        self.open -= 1;
    }

    /// Slot `a` against slot `b` in emission order: flush value first,
    /// then the full key, by [`Value::total_cmp`]. The order is a total
    /// function of the group set, not of the slots, so a run restored
    /// from a checkpoint emits byte for byte what the uninterrupted run
    /// emits.
    fn order(&self, flush_idx: Option<usize>, a: usize, b: usize) -> Ordering {
        let by = |c: &Column| col_cmp(c, a, b);
        flush_idx.map_or(Ordering::Equal, |f| by(&self.keys[f])).then_with(|| {
            self.keys.iter().map(by).find(|o| o.is_ne()).unwrap_or(Ordering::Equal)
        })
    }

    /// Put `slots` in emission order: by a two-word prefix of the order
    /// — the flush column's word, then the first other key column's —
    /// and by [`order`](Store::order) only where the prefixes tie.
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

    /// The open groups whose flush value is below `bound`, in emission
    /// order: one scan of the flush-value column, skipped when no open
    /// group is below.
    fn below(&mut self, bound: u64, flush_idx: Option<usize>) -> Vec<u32> {
        if self.min_flush >= bound {
            return Vec::new();
        }
        let mut closed = Vec::new();
        let mut min = NEVER;
        for (s, &f) in self.flush.iter().enumerate() {
            if f < bound {
                closed.push(s as u32);
            } else {
                min = min.min(f);
            }
        }
        self.min_flush = min;
        self.sort(&mut closed, flush_idx);
        closed
    }

    /// Slot `s` as an output row: its key, then one value per aggregate.
    fn row(&self, s: usize) -> Tuple {
        let key = self.keys.iter().map(|k| k.get(s));
        Tuple::new(key.chain(self.accs.iter().map(|a| a.value(s))).collect())
    }

    /// `slots` as one output batch: key columns, then one column per
    /// aggregate.
    fn batch(&self, slots: &[u32]) -> ColumnBatch {
        let keys = self.keys.iter().map(|k| k.gather_rows(slots));
        let accs = self.accs.iter().map(|a| a.column(slots));
        ColumnBatch::from_columns(keys.chain(accs).collect())
    }

    /// Serialize the group in slot `s`: its key values, then its
    /// accumulators.
    fn snap(&self, s: usize, w: &mut SnapWriter) {
        w.put_u32(self.keys.len() as u32);
        for k in &self.keys {
            w.put_value(&k.get(s));
        }
        w.put_u32(self.accs.len() as u32);
        for a in &self.accs {
            a.put(s, w);
        }
    }

    /// Decode a group's accumulators into the freshly opened slot `s`,
    /// checking their number against this store's (a mismatched snapshot
    /// must be rejected, not folded into a differently-shaped table).
    fn read_accs(&mut self, s: usize, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        let n = r.get_count(2)?;
        if n != self.accs.len() {
            return Err(proto(format!("accumulator count {n} != {}", self.accs.len())));
        }
        self.accs.iter_mut().try_for_each(|a| a.get(s, r))
    }
}

// ---------------------------------------------------------------------
// Exact aggregation (HFTA).
// ---------------------------------------------------------------------

/// The exact aggregate's way to a key's slot. `heads` maps a seeded
/// hash of the typed key to the newest slot with that hash; slots whose
/// keys share all 64 bits chain through `next`, and the store's key
/// compare tells them apart. A closed group's slot goes to the next new
/// group.
struct Index {
    seed: u64,
    heads: HashIndex<u32>,
    hash: Vec<u64>,
    next: Vec<u32>,
    free: Vec<u32>,
}

impl Index {
    fn new() -> Index {
        Index {
            seed: keyhash::seed(),
            heads: HashIndex::default(),
            hash: Vec::new(),
            next: Vec::new(),
            free: Vec::new(),
        }
    }

    /// The open group whose key is row `r` of `keys`, hashing to `h`.
    fn find(&self, store: &Store, h: u64, keys: &[Column], r: usize) -> Option<usize> {
        let mut s = *self.heads.get(&h)? as usize;
        loop {
            if store.holds(s, keys, r) {
                return Some(s);
            }
            s = match self.next[s] {
                NIL => return None,
                next => next as usize,
            };
        }
    }

    /// A slot for a new group hashing to `h`: a freed one, or else the
    /// next past the end.
    fn insert(&mut self, h: u64) -> usize {
        let s = match self.free.pop() {
            Some(s) => s as usize,
            None => {
                self.hash.push(0);
                self.next.push(NIL);
                self.hash.len() - 1
            }
        };
        self.hash[s] = h;
        self.next[s] = self.heads.insert(h, s as u32).unwrap_or(NIL);
        s
    }

    /// Unlink slot `s`'s group: no lookup finds it again. The slot is
    /// freed once its row has been emitted.
    fn unlink(&mut self, s: usize) {
        let Entry::Occupied(mut head) = self.heads.entry(self.hash[s]) else {
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
    }
}

/// Exact aggregation with ordered flushing — the HFTA's aggregate
/// operator, with punctuation translation.
pub struct AggregateOp {
    core: AggCore,
    store: Store,
    index: Index,
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
            store: Store::new(&core),
            index: Index::new(),
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
        let hash = hash_rows(self.index.seed, &keys, n, |r| r);
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
            let flush = self.core.flush_value(&keys, i);
            if let Some(v) = flush {
                if self.watermark.is_none_or(|w| v > w) {
                    self.watermark = Some(v);
                    self.close_below(v.saturating_sub(self.core.slack));
                }
            }
            let s = match self.index.find(&self.store, hash[i], &keys, i) {
                Some(s) => s,
                None => {
                    let s = self.index.insert(hash[i]);
                    self.store.put(s, &keys, i, flush);
                    s
                }
            };
            self.store.fold(s, args, i, j);
            self.peak_groups = self.peak_groups.max(self.store.open);
            i = j;
        }
    }

    /// Close every group whose flush value is below `bound`.
    fn close_below(&mut self, bound: u64) {
        let closed = self.store.below(bound, self.core.flush_idx);
        self.close(closed);
    }

    /// Close `slots`, given in emission order, queueing them for
    /// emission.
    fn close(&mut self, slots: Vec<u32>) {
        for &s in &slots {
            self.index.unlink(s as usize);
            self.store.close(s as usize);
        }
        self.emitted += slots.len() as u64;
        self.closed.extend(slots);
    }

    /// The groups closed since the last call as one batch, and their
    /// slots freed.
    fn take_closed(&mut self) -> ColumnBatch {
        if self.closed.is_empty() {
            return ColumnBatch::default();
        }
        let slots = std::mem::take(&mut self.closed);
        let batch = self.store.batch(&slots);
        self.index.free.extend(slots);
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
        let open = self.store.open_sorted(self.core.flush_idx);
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
        let open = self.store.open_sorted(self.core.flush_idx);
        w.put_u32(open.len() as u32);
        for s in open {
            self.store.snap(s as usize, w);
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
        self.store = Store::new(&self.core);
        self.index = Index::new();
        self.closed.clear();
        for _ in 0..n {
            let keys = self.core.read_key(r)?;
            let s = self.index.insert(hash_rows(self.index.seed, &keys, 1, |i| i)[0]);
            self.store.put(s, &keys, 0, self.core.flush_value(&keys, 0));
            self.store.read_accs(s, r)?;
        }
        self.watermark = r.get_opt_u64()?;
        self.emitted = r.get_u64()?;
        self.peak_groups = (r.get_u64()? as usize).max(self.store.open);
        self.tuples_in = r.get_u64()?;
        self.batches = r.get_u64()?;
        self.puncts = r.get_u64()?;
        Ok(())
    }

    fn held(&self) -> usize {
        self.store.open
    }
}

// ---------------------------------------------------------------------
// Direct-mapped aggregation (LFTA).
// ---------------------------------------------------------------------

/// The direct-mapped table's hash seed. It is fixed, not
/// [`keyhash::seed`]: a direct-mapped collision costs one eviction —
/// data reduction, never a chain walk — so a hash traffic can collide
/// costs no CPU, and a fixed seed keeps runs, restores and experiment
/// E3 reproducible.
const DM_SEED: u64 = 0x243f_6a88_85a3_08d3;

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

/// The LFTA's fixed-size direct-mapped eviction hash: a key's slot is
/// its hash masked to the table size, and a key that finds another
/// group there evicts it.
pub struct DirectMappedAggregator {
    core: AggCore,
    store: Store,
    mask: usize,
    /// The current record's key, one single-row column per group
    /// expression.
    key: Vec<Column>,
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
            store: Store::new(&core),
            core,
            mask: size - 1,
            key: Vec::new(),
            watermark: None,
            scratch: EvalScratch::default(),
            stats: DmStats::default(),
        }
    }

    /// Fold one input record, possibly emitting partials.
    pub fn update<S: FieldSource>(&mut self, src: &S, out: &mut Vec<StreamItem>) {
        for (k, p) in self.core.group_progs.iter().enumerate() {
            let Some(v) = p.eval(src, &mut self.scratch) else { return };
            match self.key.get_mut(k) {
                Some(c) => c.set(0, v),
                None => self.key.push(Column::broadcast(&v, 1)),
            }
        }
        self.stats.inputs += 1;

        // Ordered-attribute advance closes every current group (§2.1).
        let flush = self.core.flush_value(&self.key, 0);
        if let Some(v) = flush {
            if self.watermark.is_none_or(|w| v > w) {
                self.watermark = Some(v);
                self.flush_below(v.saturating_sub(self.core.slack), out);
            }
        }

        let s = hash_rows(DM_SEED, &self.key, 1, |i| i)[0] as usize & self.mask;
        let resident = self.store.live.get(s) == Some(&true);
        if !resident || !self.store.holds(s, &self.key, 0) {
            if resident {
                // Collision: eject the resident group as a partial.
                self.stats.evictions += 1;
                self.emit(&[s as u32], out);
            }
            self.store.put(s, &self.key, 0, flush);
        }
        for (acc, (_, arg, _)) in self.store.accs.iter_mut().zip(&self.core.aggs) {
            match arg {
                None => acc.fold(s, None, 0, 1),
                // A failed argument does not contribute; the record
                // still counts for other aggregates.
                Some(p) => {
                    if let Some(v) = p.eval(src, &mut self.scratch) {
                        acc.fold(s, Some(&VecVal::Scalar(v)), 0, 1);
                    }
                }
            }
        }
    }

    /// Emit and close `slots`, given in emission order.
    fn emit(&mut self, slots: &[u32], out: &mut Vec<StreamItem>) {
        self.stats.outputs += slots.len() as u64;
        for &s in slots {
            out.push(StreamItem::Tuple(self.store.row(s as usize)));
            self.store.close(s as usize);
        }
    }

    /// Close groups whose flush value is below `bound` (heartbeats call
    /// this to flush without packet arrivals).
    pub fn flush_below(&mut self, bound: u64, out: &mut Vec<StreamItem>) {
        let closed = self.store.below(bound, self.core.flush_idx);
        self.emit(&closed, out);
    }

    /// Flush everything (end of stream).
    pub fn finish(&mut self, out: &mut Vec<StreamItem>) {
        let open = self.store.open_sorted(self.core.flush_idx);
        self.emit(&open, out);
    }

    /// Occupied slot count.
    pub fn occupancy(&self) -> usize {
        self.store.open
    }

    /// Table size in slots.
    pub fn capacity(&self) -> usize {
        self.mask + 1
    }

    /// Serialize the occupied slots (with their indices — the table must
    /// restore bit-identically even if the hash function ever changes),
    /// the watermark, and the table statistics.
    pub fn snapshot_into(&self, w: &mut SnapWriter) {
        w.put_u32(self.capacity() as u32);
        w.put_u32(self.occupancy() as u32);
        for s in (0..self.store.live.len()).filter(|&s| self.store.live[s]) {
            w.put_u32(s as u32);
            self.store.snap(s, w);
        }
        w.put_opt_u64(self.watermark);
        w.put_u64(self.stats.inputs);
        w.put_u64(self.stats.outputs);
        w.put_u64(self.stats.evictions);
    }

    /// Restore state written by [`snapshot_into`](Self::snapshot_into).
    pub fn restore_from(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        let cap = r.get_u32()? as usize;
        if cap != self.capacity() {
            return Err(proto(format!("direct-mapped capacity {cap} != {}", self.capacity())));
        }
        let n = r.get_count(4)?;
        if n > cap {
            return Err(proto(format!("occupancy {n} exceeds capacity {cap}")));
        }
        self.store = Store::new(&self.core);
        for _ in 0..n {
            let s = r.get_u32()? as usize;
            if s >= cap {
                return Err(proto(format!("slot index {s} out of range")));
            }
            let keys = self.core.read_key(r)?;
            if self.store.live.get(s) == Some(&true) {
                return Err(proto(format!("duplicate slot index {s}")));
            }
            self.store.put(s, &keys, 0, self.core.flush_value(&keys, 0));
            self.store.read_accs(s, r)?;
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
