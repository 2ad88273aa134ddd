//! The two-stream window join.
//!
//! "The join predicate must contain a constraint on an ordered attribute
//! from each table which can be used to define a join window. For example,
//! `B.ts = C.ts` or `B.ts >= C.ts - 1 and B.ts <= C.ts + 1`." (paper §2.1)
//!
//! Symmetric probe-then-insert hash join: equality conjuncts beyond the
//! window (e.g. `B.srcIP = C.srcIP`) become the hash key, so each arriving
//! tuple probes only the bucket it can match; the window constraint then
//! prunes by the ordered attribute, and whatever is left of the predicate
//! runs as a residual. Each matching pair is produced exactly once, by
//! whichever tuple arrives second. Ordered-attribute watermarks — advanced
//! by tuples and by punctuation — garbage-collect buffer entries that no
//! future tuple can match, bounding state without sliding windows.

use crate::expr::{EvalScratch, Program};
use crate::ops::Operator;
use crate::snapshot::{proto, SnapError, SnapReader, SnapWriter};
use crate::stats::OpCounters;
use crate::tuple::{StreamItem, Tuple};
use crate::value::Value;
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::sync::Arc;

/// Configuration of a window join.
pub struct JoinConfig {
    /// Ordered column index in the left schema.
    pub left_col: usize,
    /// Ordered column index in the right schema.
    pub right_col: usize,
    /// Matches require `left ∈ [right + lo, right + hi]`.
    pub lo: i64,
    /// See `lo`.
    pub hi: i64,
    /// Banded slack of the left ordered column.
    pub left_slack: u64,
    /// Banded slack of the right ordered column.
    pub right_slack: u64,
    /// Equality pairs `(left col, right col)` used as the hash key.
    pub eq_keys: Vec<(usize, usize)>,
    /// Output-ordering mode (the §5 optimization dimension: "the choice of
    /// operator implementation affects the attribute ordering properties
    /// of its output ... monotonically increasing requires more buffer
    /// space").
    pub emit: EmitMode,
    /// For [`EmitMode::Sorted`], the output column carrying the left
    /// ordered attribute (tuples are held and released in its order).
    pub sort_out_col: usize,
}

/// How join results are released.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EmitMode {
    /// Emit each match immediately: minimal buffering, output ordering is
    /// banded-increasing(window width).
    #[default]
    Banded,
    /// Hold matches and release them in nondecreasing order of the left
    /// ordered attribute: monotone output at the cost of buffer space.
    Sorted,
}

type Key = Box<[Value]>;

use crate::ops::OrderedTupleEntry as PendingEntry;

/// One side's buffer: hash buckets plus a global insertion-order queue
/// for watermark GC. Bucket deques are insertion-ordered, so the entry a
/// GC record refers to is always its bucket's front.
#[derive(Default)]
struct Side {
    buckets: HashMap<Key, VecDeque<(u64, Tuple)>>,
    order: VecDeque<(u64, Key)>,
    /// Multiset of buffered ordered values (banded inputs buffer out of
    /// insertion order, so the true minimum is not `order.front()`).
    ts_counts: BTreeMap<u64, usize>,
    /// Amortization for the straggler compaction: a full scan is allowed
    /// only when this reaches zero, then recharged to the scan's size.
    compact_countdown: usize,
    watermark: Option<u64>,
    done: bool,
    len: usize,
    /// Entries discarded by window GC (no future match possible).
    gc_dropped: u64,
}

impl Side {
    fn insert(&mut self, key: Key, ts: u64, t: Tuple) {
        self.buckets.entry(key.clone()).or_default().push_back((ts, t));
        self.order.push_back((ts, key));
        *self.ts_counts.entry(ts).or_insert(0) += 1;
        self.len += 1;
    }

    fn clear(&mut self) {
        self.buckets.clear();
        self.order.clear();
        self.ts_counts.clear();
        self.len = 0;
    }

    /// Smallest buffered ordered value.
    fn min_ts(&self) -> Option<u64> {
        self.ts_counts.keys().next().copied()
    }

    fn forget_ts(&mut self, ts: u64) {
        if let Some(c) = self.ts_counts.get_mut(&ts) {
            *c -= 1;
            if *c == 0 {
                self.ts_counts.remove(&ts);
            }
        }
    }

    /// Drop entries whose ordered value satisfies `dead`. The scan walks
    /// the insertion order from the front; with banded inputs a live entry
    /// may precede dead ones, so the walk continues past live entries up
    /// to the band (bounded work: at most the entries within one band of
    /// the front are re-examined).
    fn gc(&mut self, dead: impl Fn(u64) -> bool) {
        // Fast path: pop dead entries from the front.
        while let Some(&(ts, _)) = self.order.front() {
            if !dead(ts) {
                break;
            }
            let (ts, key) = self.order.pop_front().expect("peeked front");
            self.remove_bucket_entry(ts, &key);
        }
        // Slow path: dead stragglers parked behind a live front (possible
        // only for banded inputs). Deferred removal is safe — a dead entry
        // can never match and only costs memory — so the O(n) compaction is
        // amortized to O(1) per call by allowing one scan per n calls.
        if self.ts_counts.keys().next().is_some_and(|&min| dead(min)) {
            if self.compact_countdown > 0 {
                self.compact_countdown -= 1;
                return;
            }
            let mut order = std::mem::take(&mut self.order);
            self.compact_countdown = order.len();
            for (ts, key) in order.drain(..) {
                if dead(ts) {
                    self.remove_bucket_entry(ts, &key);
                } else {
                    self.order.push_back((ts, key));
                }
            }
        }
    }

    fn remove_bucket_entry(&mut self, ts: u64, key: &Key) {
        if let Some(bucket) = self.buckets.get_mut(key) {
            // Remove the specific (ts, _) entry: the front in FIFO death
            // order, else the first matching ts (banded stragglers).
            if let Some(pos) = bucket.iter().position(|(t, _)| *t == ts) {
                bucket.remove(pos);
            }
            if bucket.is_empty() {
                self.buckets.remove(key);
            }
        }
        self.forget_ts(ts);
        self.len -= 1;
        self.gc_dropped += 1;
    }

    /// Serialize the buffer in insertion order. The i-th occurrence of a
    /// key in `order` corresponds to the i-th entry of that key's bucket
    /// (both are insertion-ordered and kept 1:1 consistent), so pairing
    /// each order record with its tuple is a per-key cursor walk.
    fn snapshot_into(&self, w: &mut SnapWriter) {
        w.put_u32(self.order.len() as u32);
        let mut cursors: HashMap<&Key, usize> = HashMap::new();
        for (ts, key) in &self.order {
            let i = cursors.entry(key).or_insert(0);
            let (bts, tuple) =
                &self.buckets.get(key).expect("order/bucket consistency")[*i];
            debug_assert_eq!(bts, ts, "order/bucket entries pair in insertion order");
            *i += 1;
            w.put_u64(*ts);
            w.put_values(key);
            w.put_tuple(tuple);
        }
        w.put_u64(self.compact_countdown as u64);
        w.put_opt_u64(self.watermark);
        w.put_bool(self.done);
        w.put_u64(self.gc_dropped);
    }

    /// Rebuild the buffer by replaying [`insert`](Side::insert) in the
    /// serialized insertion order (restores buckets, order queue,
    /// ts-multiset, and length together).
    fn restore_from(&mut self, r: &mut SnapReader<'_>, key_arity: usize) -> Result<(), SnapError> {
        let n = r.get_count(13)?; // ts + key count + >=1-byte tuple
        self.clear();
        for _ in 0..n {
            let ts = r.get_u64()?;
            let key: Key = r.get_values()?.into_boxed_slice();
            if key.len() != key_arity {
                return Err(proto(format!(
                    "join key arity {} != {key_arity}",
                    key.len()
                )));
            }
            let tuple = r.get_tuple()?;
            self.insert(key, ts, tuple);
        }
        self.compact_countdown = r.get_u64()? as usize;
        self.watermark = r.get_opt_u64()?;
        self.done = r.get_bool()?;
        self.gc_dropped = r.get_u64()?;
        Ok(())
    }
}

/// The join operator. Residual predicate and projections run over the
/// concatenated tuple (left fields then right fields).
pub struct JoinOp {
    cfg: JoinConfig,
    residual: Option<Program>,
    projections: Vec<Program>,
    left: Side,
    right: Side,
    scratch: EvalScratch,
    /// Result tuples held back by [`EmitMode::Sorted`], keyed by the sort
    /// value (min-heap via `Reverse`).
    pending: std::collections::BinaryHeap<std::cmp::Reverse<PendingEntry>>,
    pending_seq: u64,
    /// Peak buffered tuples across both sides.
    pub peak_buffered: usize,
    /// Peak result tuples held for ordered release (Sorted mode only).
    pub peak_pending: usize,
    /// Output tuples produced.
    pub produced: u64,
    tuples_in: u64,
    batches: u64,
    puncts: u64,
    stats: Arc<OpCounters>,
}

impl JoinOp {
    /// Build a join.
    pub fn new(cfg: JoinConfig, residual: Option<Program>, projections: Vec<Program>) -> JoinOp {
        JoinOp {
            cfg,
            residual,
            projections,
            left: Side::default(),
            right: Side::default(),
            scratch: EvalScratch::default(),
            pending: std::collections::BinaryHeap::new(),
            pending_seq: 0,
            peak_buffered: 0,
            peak_pending: 0,
            produced: 0,
            tuples_in: 0,
            batches: 0,
            puncts: 0,
            stats: Arc::new(OpCounters::default()),
        }
    }

    /// Tuples currently buffered on both sides.
    pub fn buffered(&self) -> usize {
        self.left.len + self.right.len
    }

    fn key_of(&self, t: &Tuple, left: bool) -> Key {
        self.cfg
            .eq_keys
            .iter()
            .map(|&(l, r)| t.get(if left { l } else { r }).clone())
            .collect()
    }

    fn emit_match(&mut self, l: &Tuple, r: &Tuple, out: &mut Vec<StreamItem>) {
        let joined = l.concat(r);
        if let Some(res) = &self.residual {
            if !res.eval_bool(&joined, &mut self.scratch) {
                return;
            }
        }
        let mut vals = Vec::with_capacity(self.projections.len());
        for p in &self.projections {
            match p.eval(&joined, &mut self.scratch) {
                Some(v) => vals.push(v),
                None => return,
            }
        }
        self.produced += 1;
        let tuple = Tuple::new(vals);
        match self.cfg.emit {
            EmitMode::Banded => out.push(StreamItem::Tuple(tuple)),
            EmitMode::Sorted => {
                // `sort_out_col` must project the left ordered attribute;
                // a non-integer column keys everything at 0, which defers
                // release until end of stream (safe, never wrong-ordered).
                let sort_val = tuple.values().get(self.cfg.sort_out_col).and_then(|v| v.as_uint());
                debug_assert!(
                    sort_val.is_some(),
                    "EmitMode::Sorted requires sort_out_col to be an integer column"
                );
                let v = sort_val.unwrap_or(0);
                self.pending_seq += 1;
                self.pending.push(std::cmp::Reverse(PendingEntry {
                    v,
                    seq: self.pending_seq,
                    tuple,
                }));
                self.peak_pending = self.peak_pending.max(self.pending.len());
            }
        }
    }

    /// Release held results whose sort value can no longer be undercut by
    /// a future match: future left arrivals emit at `>= left_wm - slack`,
    /// and buffered left tuples may still pair at their own values.
    fn release_sorted(&mut self, out: &mut Vec<StreamItem>) {
        if self.cfg.emit != EmitMode::Sorted {
            return;
        }
        let mut bound = match (self.left.watermark, self.left.done) {
            (_, true) => u64::MAX,
            (Some(wm), false) => wm.saturating_sub(self.cfg.left_slack),
            (None, false) => return,
        };
        if let Some(min_buf) = self.left.min_ts() {
            bound = bound.min(min_buf);
        }
        while let Some(std::cmp::Reverse(e)) = self.pending.peek() {
            if e.v > bound {
                break;
            }
            let std::cmp::Reverse(e) = self.pending.pop().expect("peeked entry");
            out.push(StreamItem::Tuple(e.tuple));
        }
    }

    /// `left ∈ [right + lo, right + hi]`, in i128 to dodge overflow at
    /// the u64 edges.
    fn window_match(&self, lv: u64, rv: u64) -> bool {
        let d = i128::from(lv) - i128::from(rv);
        i128::from(self.cfg.lo) <= d && d <= i128::from(self.cfg.hi)
    }

    /// Drop buffer entries no future opposite tuple can match.
    fn gc(&mut self) {
        // Future left values are >= left_wm - left_slack =: fl. A right
        // entry r matches left values in [r+lo, r+hi]; it is dead once
        // r + hi < fl.
        if let Some(wm) = self.left.watermark {
            if !self.left.done {
                let fl = i128::from(wm.saturating_sub(self.cfg.left_slack));
                let hi = i128::from(self.cfg.hi);
                self.right.gc(|rv| i128::from(rv) + hi < fl);
            }
        }
        if self.left.done {
            self.right.clear();
        }
        // Future right values are >= right_wm - right_slack =: fr. A left
        // entry l matches right values in [l-hi, l-lo]; dead once
        // l - lo < fr.
        if let Some(wm) = self.right.watermark {
            if !self.right.done {
                let fr = i128::from(wm.saturating_sub(self.cfg.right_slack));
                let lo = i128::from(self.cfg.lo);
                self.left.gc(|lv| i128::from(lv) - lo < fr);
            }
        }
        if self.right.done {
            self.left.clear();
        }
    }

    /// Probe-and-insert for one tuple, without GC or sorted release (the
    /// callers decide whether those run per item or per batch; deferring
    /// them never changes results — GC only removes entries the window
    /// predicate already rejects, and release order comes from the heap).
    fn absorb_tuple(&mut self, is_left: bool, t: Tuple, out: &mut Vec<StreamItem>) {
        self.tuples_in += 1;
        let ord_col = if is_left { self.cfg.left_col } else { self.cfg.right_col };
        let Some(v) = t.get(ord_col).as_uint() else { return };
        let side = if is_left { &mut self.left } else { &mut self.right };
        side.watermark = Some(side.watermark.map_or(v, |w| w.max(v)));

        // Probe the opposite side's bucket.
        let key = self.key_of(&t, is_left);
        let opposite = if is_left { &self.right } else { &self.left };
        let matches: Vec<Tuple> = opposite
            .buckets
            .get(&key)
            .map(|bucket| {
                bucket
                    .iter()
                    .filter(|(ov, _)| {
                        if is_left {
                            self.window_match(v, *ov)
                        } else {
                            self.window_match(*ov, v)
                        }
                    })
                    .map(|(_, o)| o.clone())
                    .collect()
            })
            .unwrap_or_default();
        for o in &matches {
            if is_left {
                self.emit_match(&t, o, out);
            } else {
                self.emit_match(o, &t, out);
            }
        }

        let opposite_done = if is_left { self.right.done } else { self.left.done };
        if !opposite_done {
            let side = if is_left { &mut self.left } else { &mut self.right };
            side.insert(key, v, t);
        }
    }

    /// Punctuation on the window column advances the side's watermark,
    /// enabling GC of the opposite buffer even when the side is silent.
    fn absorb_punct(&mut self, port: usize, p: &crate::punct::Punct) {
        self.puncts += 1;
        let Some(low) = p.low.as_uint() else { return };
        if port == 0 && p.col == self.cfg.left_col {
            // Future left values >= low: express as watermark with the
            // slack pre-compensated.
            let wm = low.saturating_add(self.cfg.left_slack);
            self.left.watermark = Some(self.left.watermark.map_or(wm, |w| w.max(wm)));
        } else if port == 1 && p.col == self.cfg.right_col {
            let wm = low.saturating_add(self.cfg.right_slack);
            self.right.watermark = Some(self.right.watermark.map_or(wm, |w| w.max(wm)));
        }
    }

    /// Mark one side exhausted (its buffer side can then be dropped as the
    /// other side advances).
    pub fn finish_input(&mut self, port: usize) {
        if port == 0 {
            self.left.done = true;
        } else {
            self.right.done = true;
        }
        self.gc();
    }

}

impl Operator for JoinOp {
    fn n_inputs(&self) -> usize {
        2
    }

    fn push_batch(&mut self, port: usize, items: Vec<StreamItem>, out: &mut Vec<StreamItem>) {
        // Probe-and-insert every item first, then GC / sorted-release once
        // for the whole batch. Deferring GC is safe: dead buffer entries
        // always fail the window predicate, so they can never produce a
        // spurious match, they only linger until batch end.
        self.batches += 1;
        for item in items {
            match item {
                StreamItem::Tuple(t) => self.absorb_tuple(port == 0, t, out),
                StreamItem::Punct(p) => self.absorb_punct(port, &p),
            }
        }
        self.gc();
        self.release_sorted(out);
        self.peak_buffered = self.peak_buffered.max(self.buffered());
    }

    fn finish(&mut self, out: &mut Vec<StreamItem>) {
        self.left.done = true;
        self.right.done = true;
        self.left.clear();
        self.right.clear();
        self.release_sorted(out);
    }

    fn kind(&self) -> &'static str {
        "join"
    }

    fn stats_handle(&self) -> Option<Arc<OpCounters>> {
        Some(self.stats.clone())
    }

    fn publish_stats(&self) {
        self.stats.tuples_in.set(self.tuples_in);
        self.stats.tuples_out.set(self.produced);
        self.stats.batches_in.set(self.batches);
        self.stats.puncts_in.set(self.puncts);
        self.stats.gc_dropped.set(self.left.gc_dropped + self.right.gc_dropped);
        self.stats.peak_held.set(self.peak_buffered as u64);
    }

    /// Both window buffers, the sorted-release heap, and the counters.
    fn snapshot(&self, w: &mut SnapWriter) {
        self.left.snapshot_into(w);
        self.right.snapshot_into(w);
        w.put_u32(self.pending.len() as u32);
        for std::cmp::Reverse(e) in self.pending.iter() {
            w.put_u64(e.v);
            w.put_u64(e.seq);
            w.put_tuple(&e.tuple);
        }
        w.put_u64(self.pending_seq);
        w.put_u64(self.peak_buffered as u64);
        w.put_u64(self.peak_pending as u64);
        w.put_u64(self.produced);
        w.put_u64(self.tuples_in);
        w.put_u64(self.batches);
        w.put_u64(self.puncts);
    }

    fn restore(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        let arity = self.cfg.eq_keys.len();
        self.left.restore_from(r, arity)?;
        self.right.restore_from(r, arity)?;
        let k = r.get_count(17)?;
        self.pending.clear();
        for _ in 0..k {
            let v = r.get_u64()?;
            let seq = r.get_u64()?;
            let tuple = r.get_tuple()?;
            self.pending.push(std::cmp::Reverse(PendingEntry { v, seq, tuple }));
        }
        self.pending_seq = r.get_u64()?;
        self.peak_buffered = (r.get_u64()? as usize).max(self.buffered());
        self.peak_pending = (r.get_u64()? as usize).max(self.pending.len());
        self.produced = r.get_u64()?;
        self.tuples_in = r.get_u64()?;
        self.batches = r.get_u64()?;
        self.puncts = r.get_u64()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::ParamBindings;
    use crate::udf::{FileStore, UdfRegistry};
    use gs_gsql::ast::BinOp;
    use gs_gsql::plan::PExpr;
    use gs_gsql::types::DataType;

    fn prog(pe: &PExpr) -> Program {
        Program::compile(pe, &ParamBindings::new(), &UdfRegistry::with_builtins(), &FileStore::new())
            .unwrap()
    }

    fn col(i: usize) -> PExpr {
        PExpr::Col { index: i, ty: DataType::UInt }
    }

    fn config(lo: i64, hi: i64, eq_keys: Vec<(usize, usize)>) -> JoinConfig {
        JoinConfig {
            left_col: 0,
            right_col: 0,
            lo,
            hi,
            left_slack: 0,
            right_slack: 0,
            eq_keys,
            emit: EmitMode::Banded,
            sort_out_col: 0,
        }
    }

    /// Join on ts (col 0 both sides), projecting (l.ts, l.v, r.v) where
    /// tuples are (ts, v) pairs.
    fn join(lo: i64, hi: i64, residual_on_v: bool) -> JoinOp {
        let residual = residual_on_v.then(|| {
            prog(&PExpr::Binary {
                op: BinOp::Eq,
                left: Box::new(col(1)),
                right: Box::new(col(3)),
                ty: DataType::Bool,
            })
        });
        JoinOp::new(
            config(lo, hi, vec![]),
            residual,
            vec![prog(&col(0)), prog(&col(1)), prog(&col(3))],
        )
    }

    fn tup(ts: u64, v: u64) -> StreamItem {
        StreamItem::Tuple(Tuple::new(vec![Value::UInt(ts), Value::UInt(v)]))
    }

    fn rows(out: &[StreamItem]) -> Vec<(u64, u64, u64)> {
        out.iter()
            .filter_map(|i| i.as_tuple())
            .map(|t| {
                (
                    t.get(0).as_uint().unwrap(),
                    t.get(1).as_uint().unwrap(),
                    t.get(2).as_uint().unwrap(),
                )
            })
            .collect()
    }

    #[test]
    fn equality_window_matches_same_ts() {
        let mut j = join(0, 0, false);
        let mut out = Vec::new();
        j.push_batch(0, vec![tup(1, 10)], &mut out);
        j.push_batch(1, vec![tup(1, 20)], &mut out);
        j.push_batch(1, vec![tup(2, 21)], &mut out);
        j.push_batch(0, vec![tup(2, 11)], &mut out);
        assert_eq!(rows(&out), vec![(1, 10, 20), (2, 11, 21)]);
        assert_eq!(j.produced, 2);
    }

    #[test]
    fn band_window_matches_within_band() {
        let mut j = join(-1, 1, false);
        let mut out = Vec::new();
        j.push_batch(0, vec![tup(5, 1)], &mut out);
        j.push_batch(1, vec![tup(4, 2)], &mut out); // 5-4 = 1 <= 1 ✓
        j.push_batch(1, vec![tup(6, 3)], &mut out); // 5-6 = -1 ✓
        j.push_batch(1, vec![tup(7, 4)], &mut out); // 5-7 = -2 ✗
        let r = rows(&out);
        assert_eq!(r, vec![(5, 1, 2), (5, 1, 3)]);
    }

    #[test]
    fn no_duplicate_pairs() {
        let mut j = join(0, 0, false);
        let mut out = Vec::new();
        // Same-ts tuples arriving in both orders must pair exactly once.
        j.push_batch(0, vec![tup(3, 1)], &mut out);
        j.push_batch(1, vec![tup(3, 2)], &mut out);
        j.push_batch(0, vec![tup(3, 5)], &mut out); // pairs with the buffered right
        assert_eq!(rows(&out).len(), 2);
    }

    #[test]
    fn residual_predicate_filters() {
        let mut j = join(0, 0, true);
        let mut out = Vec::new();
        j.push_batch(0, vec![tup(1, 7)], &mut out);
        j.push_batch(1, vec![tup(1, 7)], &mut out);
        j.push_batch(1, vec![tup(1, 8)], &mut out);
        assert_eq!(rows(&out), vec![(1, 7, 7)], "only v-equal pairs survive");
    }

    #[test]
    fn hash_keys_prune_probes_with_same_results() {
        // The same v-equality expressed as a hash key instead of residual.
        let mk_hash = || {
            JoinOp::new(
                config(0, 0, vec![(1, 1)]),
                None,
                vec![prog(&col(0)), prog(&col(1)), prog(&col(3))],
            )
        };
        let mut hash_join = mk_hash();
        let mut residual_join = join(0, 0, true);
        let data: Vec<(usize, u64, u64)> = (0..200)
            .map(|i| ((i % 2), (i / 10) as u64, (i % 7) as u64))
            .collect();
        let mut out_h = Vec::new();
        let mut out_r = Vec::new();
        for &(port, ts, v) in &data {
            hash_join.push_batch(port, vec![tup(ts, v)], &mut out_h);
            residual_join.push_batch(port, vec![tup(ts, v)], &mut out_r);
        }
        let mut rh = rows(&out_h);
        let mut rr = rows(&out_r);
        rh.sort();
        rr.sort();
        assert_eq!(rh, rr, "hash keys must not change join semantics");
        assert!(!rh.is_empty());
    }

    #[test]
    fn watermarks_bound_buffers() {
        let mut j = join(0, 0, false);
        let mut out = Vec::new();
        for ts in 0..1000u64 {
            j.push_batch(0, vec![tup(ts, 0)], &mut out);
            j.push_batch(1, vec![tup(ts, 0)], &mut out);
        }
        // With an equality window and synchronized sides, buffers stay tiny.
        assert!(j.peak_buffered <= 4, "peak {}", j.peak_buffered);
        assert_eq!(j.produced, 1000);
    }

    #[test]
    fn punctuation_gcs_a_silent_side() {
        let mut j = join(0, 0, false);
        let mut out = Vec::new();
        for ts in 0..100u64 {
            j.push_batch(1, vec![tup(ts, 0)], &mut out);
        }
        assert_eq!(j.buffered(), 100, "right side waits for left matches");
        // The left side is silent but punctuates: everything below 1000.
        let punct = StreamItem::Punct(crate::punct::Punct::new(0, Value::UInt(1_000)));
        j.push_batch(0, vec![punct], &mut out);
        assert_eq!(j.buffered(), 0);
    }

    #[test]
    fn banded_slack_retains_window() {
        let mut j = JoinOp::new(
            JoinConfig {
                left_col: 0,
                right_col: 0,
                lo: 0,
                hi: 0,
                left_slack: 5,
                right_slack: 0,
                eq_keys: vec![],
                emit: EmitMode::Banded,
                sort_out_col: 0,
            },
            None,
            vec![prog(&col(0)), prog(&col(1)), prog(&col(3))],
        );
        let mut out = Vec::new();
        j.push_batch(1, vec![tup(10, 1)], &mut out);
        j.push_batch(0, vec![tup(14, 2)], &mut out); // no match, but left watermark = 14
        // left is banded(5): future left can still be 9 or 10 — right@10
        // must survive GC.
        j.push_batch(0, vec![tup(10, 3)], &mut out);
        assert_eq!(rows(&out), vec![(10, 3, 1)]);
    }

    #[test]
    fn finish_input_clears_opposite_buffer() {
        let mut j = join(0, 0, false);
        let mut out = Vec::new();
        j.push_batch(1, vec![tup(1, 0)], &mut out);
        j.push_batch(1, vec![tup(2, 0)], &mut out);
        j.finish_input(0);
        assert_eq!(j.buffered(), 0, "no left tuples can ever match");
    }

    #[test]
    fn sorted_emission_is_monotone_where_banded_is_not() {
        // Band window ±2 over out-of-order-within-band arrivals.
        let mk = |emit| {
            JoinOp::new(
                JoinConfig {
                    left_col: 0,
                    right_col: 0,
                    lo: -2,
                    hi: 2,
                    left_slack: 2,
                    right_slack: 0,
                    eq_keys: vec![],
                    emit,
                    sort_out_col: 0,
                },
                None,
                vec![prog(&col(0)), prog(&col(1)), prog(&col(3))],
            )
        };
        let feed = |j: &mut JoinOp| {
            let mut out = Vec::new();
            for ts in [5u64, 3, 6, 4, 8, 7, 10, 9, 14, 12, 16, 15] {
                j.push_batch(0, vec![tup(ts, 1)], &mut out);
                j.push_batch(1, vec![tup(ts, 2)], &mut out);
            }
            j.finish(&mut out);
            rows(&out).iter().map(|r| r.0).collect::<Vec<u64>>()
        };
        let mut banded = mk(EmitMode::Banded);
        let banded_vals = feed(&mut banded);
        let mut sorted = mk(EmitMode::Sorted);
        let sorted_vals = feed(&mut sorted);

        // Same multiset of results...
        let norm = |mut v: Vec<u64>| {
            v.sort_unstable();
            v
        };
        assert_eq!(norm(banded_vals.clone()), norm(sorted_vals.clone()));
        // ...but only Sorted is monotone, and it pays with buffering.
        assert!(
            banded_vals.windows(2).any(|w| w[0] > w[1]),
            "banded emission should be out of order on this input: {banded_vals:?}"
        );
        assert!(
            sorted_vals.windows(2).all(|w| w[0] <= w[1]),
            "sorted emission must be monotone: {sorted_vals:?}"
        );
        assert!(
            sorted.peak_pending > 0,
            "monotone output requires extra buffer space (the paper's trade-off)"
        );
    }

    #[test]
    fn sorted_emission_equality_window() {
        let mut j = JoinOp::new(
            JoinConfig {
                left_col: 0,
                right_col: 0,
                lo: 0,
                hi: 0,
                left_slack: 0,
                right_slack: 0,
                eq_keys: vec![],
                emit: EmitMode::Sorted,
                sort_out_col: 0,
            },
            None,
            vec![prog(&col(0)), prog(&col(1)), prog(&col(3))],
        );
        let mut out = Vec::new();
        for ts in 0..50u64 {
            j.push_batch(0, vec![tup(ts, 0)], &mut out);
            j.push_batch(1, vec![tup(ts, 0)], &mut out);
        }
        j.finish(&mut out);
        let vals: Vec<u64> = rows(&out).iter().map(|r| r.0).collect();
        assert_eq!(vals.len(), 50);
        assert!(vals.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn batch_boundaries_do_not_change_output() {
        for emit in [EmitMode::Banded, EmitMode::Sorted] {
            let mk = || {
                JoinOp::new(
                    JoinConfig {
                        left_col: 0,
                        right_col: 0,
                        lo: -1,
                        hi: 1,
                        left_slack: 1,
                        right_slack: 1,
                        eq_keys: vec![],
                        emit,
                        sort_out_col: 0,
                    },
                    None,
                    vec![prog(&col(0)), prog(&col(1)), prog(&col(3))],
                )
            };
            // Banded-within-1 arrivals on both sides, plus a punctuation
            // mid-stream on the left.
            let left: Vec<StreamItem> = [1u64, 3, 2, 4, 6, 5, 9, 8]
                .iter()
                .map(|&ts| tup(ts, 1))
                .chain([StreamItem::Punct(crate::punct::Punct::new(0, Value::UInt(8)))])
                .collect();
            let right: Vec<StreamItem> =
                [2u64, 1, 3, 5, 4, 7, 8, 10].iter().map(|&ts| tup(ts, 2)).collect();

            let mut item_j = mk();
            let mut item_out = Vec::new();
            for it in left.iter().cloned() {
                item_j.push_batch(0, vec![it], &mut item_out);
            }
            for it in right.iter().cloned() {
                item_j.push_batch(1, vec![it], &mut item_out);
            }
            item_j.finish(&mut item_out);

            let mut batch_j = mk();
            let mut batch_out = Vec::new();
            batch_j.push_batch(0, left, &mut batch_out);
            batch_j.push_batch(1, right, &mut batch_out);
            batch_j.finish(&mut batch_out);

            let norm = |out: &[StreamItem]| {
                let mut r = rows(out);
                r.sort();
                r
            };
            assert_eq!(norm(&item_out), norm(&batch_out), "emit mode {emit:?}");
            assert_eq!(item_j.produced, batch_j.produced);
            if emit == EmitMode::Sorted {
                // The batch path must preserve the sorted-release contract.
                let vals: Vec<u64> = rows(&batch_out).iter().map(|r| r.0).collect();
                assert!(vals.windows(2).all(|w| w[0] <= w[1]), "{vals:?}");
            }
        }
    }

    #[test]
    fn snapshot_restore_continues_exactly() {
        use crate::snapshot::{SnapReader, SnapWriter};
        // Both emit modes, band window, hash key: cut mid-window with
        // tuples buffered on both sides (and, in Sorted mode, results
        // held in the release heap); restore into a fresh join and feed
        // the tail — the combined output must equal the uninterrupted
        // run's, in the same order.
        for emit in [EmitMode::Banded, EmitMode::Sorted] {
            let mk = || {
                JoinOp::new(
                    JoinConfig {
                        left_col: 0,
                        right_col: 0,
                        lo: -1,
                        hi: 1,
                        left_slack: 1,
                        right_slack: 1,
                        eq_keys: vec![(1, 1)],
                        emit,
                        sort_out_col: 0,
                    },
                    None,
                    vec![prog(&col(0)), prog(&col(1)), prog(&col(3))],
                )
            };
            let feed: Vec<(usize, u64, u64)> = vec![
                (0, 1, 7),
                (1, 2, 7),
                (0, 3, 8),
                (1, 3, 8),
                (0, 2, 7),
                (1, 4, 7),
                (0, 5, 8),
                (1, 5, 8),
                (0, 6, 7),
                (1, 7, 7),
            ];
            let (head, tail) = feed.split_at(5);

            let mut cont = mk();
            let mut cont_out = Vec::new();
            for &(p, ts, v) in &feed {
                cont.push_batch(p, vec![tup(ts, v)], &mut cont_out);
            }
            cont.finish(&mut cont_out);

            let mut first = mk();
            let mut split_out = Vec::new();
            for &(p, ts, v) in head {
                first.push_batch(p, vec![tup(ts, v)], &mut split_out);
            }
            assert!(first.buffered() > 0, "cut point holds window state");
            let mut w = SnapWriter::new();
            Operator::snapshot(&first, &mut w);
            let sealed = w.seal();

            let mut second = mk();
            let mut r = SnapReader::open(&sealed).expect("open");
            Operator::restore(&mut second, &mut r).expect("restore");
            r.finish().expect("payload fully consumed");
            assert_eq!(second.buffered(), first.buffered());
            for &(p, ts, v) in tail {
                second.push_batch(p, vec![tup(ts, v)], &mut split_out);
            }
            second.finish(&mut split_out);

            assert_eq!(rows(&cont_out), rows(&split_out), "emit mode {emit:?}");
            assert_eq!(second.produced, cont.produced);
            assert_eq!(second.peak_buffered, cont.peak_buffered);
        }
    }

    #[test]
    fn gc_keeps_bucket_order_consistent() {
        // Interleave two keys, GC part of the window, and check no stale
        // matches appear.
        let mut j = JoinOp::new(
            config(0, 0, vec![(1, 1)]),
            None,
            vec![prog(&col(0)), prog(&col(1)), prog(&col(3))],
        );
        let mut out = Vec::new();
        j.push_batch(1, vec![tup(1, 7)], &mut out);
        j.push_batch(1, vec![tup(1, 8)], &mut out);
        j.push_batch(1, vec![tup(2, 7)], &mut out);
        // Left advances to 2: right entries at ts 1 die.
        j.push_batch(0, vec![tup(2, 9)], &mut out);
        assert!(rows(&out).is_empty());
        assert_eq!(j.right.len, 1, "only the ts-2 right entry survives");
        j.push_batch(0, vec![tup(2, 7)], &mut out);
        assert_eq!(rows(&out), vec![(2, 7, 7)]);
    }
}
