//! The order-preserving merge operator.
//!
//! "GSQL contains an extension to SQL, the merge operator, which is a
//! Union operator which preserves the ordering properties of an attribute.
//! ... This operator is surprisingly important — we implemented it before
//! the join operator." (paper §2.2). Optical links are simplex; seeing a
//! full duplex conversation requires merging two interfaces.
//!
//! The operator is a watermark merge: a buffered tuple is emitted once its
//! merge-attribute value is at or below every input's *future bound* (the
//! largest value below which no input can produce further tuples). The
//! future bound advances with data tuples and with punctuation — without
//! punctuation a silent input blocks the merge and buffers grow without
//! bound, exactly the failure mode of §3's 100 Mbyte/s-vs-1-tuple/minute
//! example.
//!
//! It runs on column batches end to end: every arriving batch is held as
//! one sorted *run* ([`Runs`]), and a release is a k-way merge of the runs
//! that gathers the released rows into one typed output batch.

use crate::batch::{Column, ColumnBatch};
use crate::punct::Punct;
use crate::snapshot::{proto, rows_batch, SnapError, SnapReader, SnapWriter};
use crate::stats::OpCounters;
use crate::value::Value;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::sync::Arc;

/// A release key: the ordered value, then the arrival sequence number
/// that breaks its ties.
type Key = (u64, u64);

/// One held batch: its live rows index-sorted by key, released from
/// `pos` on.
#[derive(Default)]
struct Run {
    /// Which stream the rows came from (the merge's input port).
    tag: usize,
    batch: ColumnBatch,
    /// Ascending.
    keys: Vec<Key>,
    /// Physical row of `batch` holding `keys[i]`.
    rows: Vec<u32>,
    pos: usize,
}

/// Rows held for release in key order: the merge's input buffers and the
/// window join's sorted-emission queue. Each pushed batch is one run,
/// sorted once — only when its keys are not already in order, which
/// happens only for banded inputs — and a release merges the runs' heads.
#[derive(Default)]
pub(crate) struct Runs {
    runs: VecDeque<Run>,
    /// Absolute number of `runs[0]`.
    base: u64,
    /// The head key of every run with rows left, smallest first.
    heads: BinaryHeap<Reverse<(Key, u64)>>,
    len: usize,
}

impl Runs {
    /// Rows held.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Hold the live rows of `batch`, one key per live row.
    pub(crate) fn push(&mut self, tag: usize, batch: ColumnBatch, mut keys: Vec<Key>) {
        debug_assert_eq!(keys.len(), batch.n_rows());
        if keys.is_empty() {
            return;
        }
        let mut rows: Vec<u32> = (0..keys.len()).map(|i| batch.phys(i) as u32).collect();
        if !keys.windows(2).all(|w| w[0] <= w[1]) {
            let mut order: Vec<u32> = (0..keys.len() as u32).collect();
            order.sort_unstable_by_key(|&i| keys[i as usize]);
            rows = order.iter().map(|&i| rows[i as usize]).collect();
            keys = order.iter().map(|&i| keys[i as usize]).collect();
        }
        let number = self.base + self.runs.len() as u64;
        self.heads.push(Reverse((keys[0], number)));
        self.len += keys.len();
        self.runs.push_back(Run { tag, batch, keys, rows, pos: 0 });
    }

    /// Release every held row whose value is at most `bound`, in key
    /// order, as one batch. The smallest head's run gives up rows until
    /// its next key passes the bound or the next-smallest head, so a run
    /// that is not interleaved with another leaves as one slice.
    pub(crate) fn release(&mut self, bound: u64) -> ColumnBatch {
        // (run index, first position, end position) slices, in order.
        let mut slices: Vec<(usize, usize, usize)> = Vec::new();
        while let Some(&Reverse(((v, _), number))) = self.heads.peek() {
            if v > bound {
                break;
            }
            self.heads.pop();
            let limit = self.heads.peek().map(|Reverse((k, _))| *k);
            let idx = (number - self.base) as usize;
            let run = &mut self.runs[idx];
            let start = run.pos;
            let mut end = start + 1;
            while let Some(&k) = run.keys.get(end) {
                if k.0 > bound || limit.is_some_and(|l| k > l) {
                    break;
                }
                end += 1;
            }
            run.pos = end;
            if let Some(&k) = run.keys.get(end) {
                self.heads.push(Reverse((k, number)));
            }
            match slices.last_mut() {
                Some(s) if s.0 == idx && s.2 == start => s.2 = end,
                _ => slices.push((idx, start, end)),
            }
        }
        let out = self.gather(&slices);
        self.len -= out.n_rows();
        for &(idx, ..) in &slices {
            let run = &mut self.runs[idx];
            if run.pos == run.keys.len() {
                // Free a spent run now; it leaves the deque once every
                // run before it is spent too.
                *run = Run { tag: run.tag, ..Run::default() };
            }
        }
        while self.runs.front().is_some_and(|r| r.pos == r.keys.len()) {
            self.runs.pop_front();
            self.base += 1;
        }
        out
    }

    /// The rows named by `slices`, gathered column by column.
    fn gather(&self, slices: &[(usize, usize, usize)]) -> ColumnBatch {
        let Some(&(first, ..)) = slices.first() else {
            return ColumnBatch::default();
        };
        let n_cols = self.runs[first].batch.n_cols();
        assert!(
            slices.iter().all(|&(i, ..)| self.runs[i].batch.n_cols() == n_cols),
            "held batches disagree on arity"
        );
        let cols = (0..n_cols)
            .map(|c| {
                let parts: Vec<(&Column, &[u32])> = slices
                    .iter()
                    .map(|&(i, s, e)| (self.runs[i].batch.col(c), &self.runs[i].rows[s..e]))
                    .collect();
                Column::gather_parts(&parts)
            })
            .collect();
        ColumnBatch::from_columns(cols)
    }

    /// Write the rows held under `tag` as `u32 count` + `(v, seq, tuple)`
    /// entries.
    pub(crate) fn put(&self, w: &mut SnapWriter, tag: usize) {
        let held = || {
            self.runs.iter().filter(move |r| r.tag == tag).flat_map(|r| {
                (r.pos..r.keys.len()).map(move |i| (r.keys[i], &r.batch, r.rows[i] as usize))
            })
        };
        w.put_u32(held().count() as u32);
        for ((v, seq), batch, row) in held() {
            w.put_u64(v);
            w.put_u64(seq);
            w.put_row(batch, row);
        }
    }

    /// Read entries written by [`put`](Runs::put) — in any order — into
    /// one run under `tag`.
    pub(crate) fn get(&mut self, r: &mut SnapReader<'_>, tag: usize) -> Result<(), SnapError> {
        let k = r.get_count(17)?; // v + seq + >=1-byte tuple
        let mut entries = Vec::with_capacity(k);
        for _ in 0..k {
            entries.push(((r.get_u64()?, r.get_u64()?), r.get_tuple()?));
        }
        entries.sort_unstable_by_key(|e| e.0);
        let (keys, rows): (Vec<Key>, Vec<_>) = entries.into_iter().unzip();
        self.push(tag, rows_batch(&rows)?, keys);
        Ok(())
    }
}

/// Per-input progress state.
struct Input {
    /// Largest merge-attribute value seen.
    watermark: Option<u64>,
    /// Best-known lower bound on future values.
    future_bound: Option<u64>,
    finished: bool,
}

impl Input {
    fn bound(&self) -> Option<u64> {
        if self.finished {
            return Some(u64::MAX);
        }
        self.future_bound
    }
}

/// K-way order-preserving union on one ordered attribute.
pub struct MergeOp {
    inputs: Vec<Input>,
    /// Every input's buffered rows, each run tagged with its port.
    held: Runs,
    on_col: usize,
    /// Banded slack per input (0 for monotone inputs).
    slacks: Vec<u64>,
    seq: u64,
    last_punct_bound: Option<u64>,
    /// Peak total buffered tuples (experiment E5 reads this).
    pub peak_buffered: usize,
    /// Set when the operator would benefit from a heartbeat: some input's
    /// unknown/lagging bound is holding buffered tuples back (the paper's
    /// on-demand punctuation trigger).
    pub starved: bool,
    tuples_in: u64,
    tuples_out: u64,
    batches: u64,
    puncts: u64,
    stats: Arc<OpCounters>,
}

impl MergeOp {
    /// Build a merge of `n` inputs on column `on_col`, with per-input
    /// banded slack.
    ///
    /// # Panics
    /// Panics unless `n >= 2` and `slacks.len() == n`.
    pub fn new(n: usize, on_col: usize, slacks: Vec<u64>) -> MergeOp {
        assert!(n >= 2, "merge needs at least two inputs");
        assert_eq!(slacks.len(), n, "one slack per input");
        MergeOp {
            inputs: (0..n)
                .map(|_| Input { watermark: None, future_bound: None, finished: false })
                .collect(),
            held: Runs::default(),
            on_col,
            slacks,
            seq: 0,
            last_punct_bound: None,
            peak_buffered: 0,
            starved: false,
            tuples_in: 0,
            tuples_out: 0,
            batches: 0,
            puncts: 0,
            stats: Arc::new(OpCounters::default()),
        }
    }

    /// The merge-attribute bound below which output is complete.
    fn safe_bound(&self) -> Option<u64> {
        let mut b = u64::MAX;
        for i in &self.inputs {
            b = b.min(i.bound()?);
        }
        Some(b)
    }

    /// Recompute the heartbeat-starvation flag: buffered tuples are being
    /// held back. Every release drains all rows at or below the safe
    /// bound, so whatever stays buffered waits either for a bound that
    /// does not exist yet (some input has produced nothing) or for a
    /// lagging input's bound — both mean only an out-of-band heartbeat
    /// can restore progress.
    fn update_starved(&mut self) {
        self.starved = self.held.len() > 0;
    }

    /// Release everything the safe bound allows, plus a progress token
    /// the first time each bound is reached.
    fn drain_ready(&mut self) -> (ColumnBatch, Option<Punct>) {
        let Some(bound) = self.safe_bound() else {
            self.update_starved();
            return (ColumnBatch::default(), None);
        };
        let out = self.held.release(bound);
        self.tuples_out += out.n_rows() as u64;
        self.update_starved();
        // Forward progress downstream, once per bound advance.
        let mut punct = None;
        if self.inputs.iter().all(|i| !i.finished)
            && self.last_punct_bound.is_none_or(|b| bound > b)
        {
            self.last_punct_bound = Some(bound);
            punct = Some(Punct::new(self.on_col, Value::UInt(bound)));
        }
        (out, punct)
    }

    /// Hold the rows of a batch for input `port`, advancing its
    /// watermark and future bound; returns whether any row was held. A
    /// row without an integer merge value is counted and dropped.
    fn absorb(&mut self, port: usize, cols: ColumnBatch) -> bool {
        let n = cols.n_rows();
        if n == 0 {
            return false;
        }
        let col = cols.col(self.on_col);
        let vals: Vec<Option<u64>> = (0..n).map(|i| col.uint(cols.phys(i))).collect();
        let batch = if vals.iter().all(Option::is_some) {
            cols
        } else {
            cols.narrow((0..n as u32).filter(|&i| vals[i as usize].is_some()).collect())
        };
        let keys: Vec<Key> = vals
            .into_iter()
            .flatten()
            .map(|v| {
                self.seq += 1;
                (v, self.seq)
            })
            .collect();
        let Some(top) = keys.iter().map(|k| k.0).max() else {
            return false;
        };
        let input = &mut self.inputs[port];
        let wm = input.watermark.map_or(top, |w| w.max(top));
        input.watermark = Some(wm);
        let wm_bound = wm.saturating_sub(self.slacks[port]);
        input.future_bound = Some(input.future_bound.map_or(wm_bound, |b| b.max(wm_bound)));
        self.held.push(port, batch, keys);
        self.peak_buffered = self.peak_buffered.max(self.held.len());
        true
    }

    /// Feed a batch into input `port`: its rows are held, its trailing
    /// punctuation may raise the input's bound, and whatever the merged
    /// bound now allows comes out — one batch in (value, arrival) order
    /// plus at most one progress token. The whole batch is absorbed
    /// before the runs are merged, instead of running the k-way
    /// smallest-safe-entry scan after every tuple.
    pub fn push_cols(
        &mut self,
        port: usize,
        cols: ColumnBatch,
        punct: Option<Punct>,
    ) -> (ColumnBatch, Option<Punct>) {
        self.batches += 1;
        self.tuples_in += cols.n_rows() as u64;
        let mut dirty = self.absorb(port, cols);
        if let Some(p) = punct {
            self.puncts += 1;
            if let Some(low) = p.low.as_uint().filter(|_| p.col == self.on_col) {
                let input = &mut self.inputs[port];
                input.future_bound = Some(input.future_bound.map_or(low, |b| b.max(low)));
                dirty = true;
            }
        }
        if dirty {
            self.drain_ready()
        } else {
            // Off-column punctuation (or an unmergeable batch) can't move
            // the bound, but the starvation flag must stay honest — the
            // on-demand heartbeat trigger reads it between pushes.
            self.update_starved();
            (ColumnBatch::default(), None)
        }
    }

    /// Mark one input as exhausted, releasing what it held back.
    pub fn finish_input(&mut self, port: usize) -> (ColumnBatch, Option<Punct>) {
        self.inputs[port].finished = true;
        self.drain_ready()
    }

    /// All inputs are exhausted: release everything.
    pub fn finish(&mut self) -> ColumnBatch {
        for i in &mut self.inputs {
            i.finished = true;
        }
        self.drain_ready().0
    }

    /// Tuples currently buffered.
    pub fn buffered(&self) -> usize {
        self.held.len()
    }

    /// The shared counter block.
    pub fn stats_handle(&self) -> Arc<OpCounters> {
        self.stats.clone()
    }

    /// Publish the plain counters into the shared block.
    pub fn publish_stats(&self) {
        self.stats.tuples_in.set(self.tuples_in);
        self.stats.tuples_out.set(self.tuples_out);
        self.stats.batches_in.set(self.batches);
        self.stats.puncts_in.set(self.puncts);
        self.stats.peak_held.set(self.peak_buffered as u64);
    }

    /// Per-input buffered entries + watermark/bound + finished flag, then
    /// the global sequence, the starved flag and the counters.
    pub fn snapshot(&self, w: &mut SnapWriter) {
        w.put_u32(self.inputs.len() as u32);
        for (port, input) in self.inputs.iter().enumerate() {
            self.held.put(w, port);
            w.put_opt_u64(input.watermark);
            w.put_opt_u64(input.future_bound);
            w.put_bool(input.finished);
        }
        w.put_u64(self.seq);
        w.put_opt_u64(self.last_punct_bound);
        w.put_u64(self.peak_buffered as u64);
        w.put_bool(self.starved);
        w.put_u64(self.tuples_in);
        w.put_u64(self.tuples_out);
        w.put_u64(self.batches);
        w.put_u64(self.puncts);
    }

    /// Restore state written by [`snapshot`](MergeOp::snapshot) into a
    /// freshly built merge of the same shape.
    pub fn restore(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        let n = r.get_u32()? as usize;
        if n != self.inputs.len() {
            return Err(proto(format!("merge input count {n} != {}", self.inputs.len())));
        }
        self.held = Runs::default();
        for (port, input) in self.inputs.iter_mut().enumerate() {
            self.held.get(r, port)?;
            input.watermark = r.get_opt_u64()?;
            input.future_bound = r.get_opt_u64()?;
            input.finished = r.get_bool()?;
        }
        self.seq = r.get_u64()?;
        self.last_punct_bound = r.get_opt_u64()?;
        self.peak_buffered = (r.get_u64()? as usize).max(self.held.len());
        self.starved = r.get_bool()?;
        self.tuples_in = r.get_u64()?;
        self.tuples_out = r.get_u64()?;
        self.batches = r.get_u64()?;
        self.puncts = r.get_u64()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tuple::{StreamItem, Tuple};

    fn tup(v: u64) -> StreamItem {
        StreamItem::Tuple(Tuple::new(vec![Value::UInt(v)]))
    }

    /// Feed row items as the transport would: cut into batches at each
    /// punctuation, each output batch appended as rows.
    fn push(m: &mut MergeOp, port: usize, items: Vec<StreamItem>, out: &mut Vec<StreamItem>) {
        let batches = ColumnBatch::from_items(items);
        if batches.is_empty() {
            let (cb, p) = m.push_cols(port, ColumnBatch::default(), None);
            out.extend(cb.into_items(p));
        }
        for (cb, p) in batches {
            let (cb, p) = m.push_cols(port, cb, p);
            out.extend(cb.into_items(p));
        }
    }

    fn finish(m: &mut MergeOp, out: &mut Vec<StreamItem>) {
        out.extend(m.finish().into_items(None));
    }

    fn vals(out: &[StreamItem]) -> Vec<u64> {
        out.iter().filter_map(|i| i.as_tuple()).map(|t| t.get(0).as_uint().unwrap()).collect()
    }

    #[test]
    fn interleaves_in_order() {
        let mut m = MergeOp::new(2, 0, vec![0, 0]);
        let mut out = Vec::new();
        for v in [1u64, 4, 9] {
            push(&mut m, 0, vec![tup(v)], &mut out);
        }
        for v in [2u64, 3, 10] {
            push(&mut m, 1, vec![tup(v)], &mut out);
        }
        finish(&mut m, &mut out);
        assert_eq!(vals(&out), vec![1, 2, 3, 4, 9, 10]);
    }

    #[test]
    fn holds_back_until_both_sides_progress() {
        let mut m = MergeOp::new(2, 0, vec![0, 0]);
        let mut out = Vec::new();
        push(&mut m, 0, vec![tup(5)], &mut out);
        push(&mut m, 0, vec![tup(6)], &mut out);
        assert!(vals(&out).is_empty(), "input 1 has no bound yet");
        assert!(m.starved, "the operator reports potential blockage");
        push(&mut m, 1, vec![tup(7)], &mut out);
        // Input 1's future bound is 7: both 5 and 6 are safe.
        assert_eq!(vals(&out), vec![5, 6]);
        assert_eq!(m.buffered(), 1);
    }

    #[test]
    fn punctuation_unblocks_a_silent_input() {
        let mut m = MergeOp::new(2, 0, vec![0, 0]);
        let mut out = Vec::new();
        for v in 1..=100u64 {
            push(&mut m, 0, vec![tup(v)], &mut out);
        }
        assert_eq!(m.buffered(), 100, "silent second input blocks everything");
        push(&mut m, 1, vec![StreamItem::Punct(Punct::new(0, Value::UInt(1_000)))], &mut out);
        assert_eq!(vals(&out).len(), 100);
        assert_eq!(m.buffered(), 0);
        assert!(!m.starved);
    }

    #[test]
    fn banded_input_respects_slack() {
        // Input 0 is banded-increasing(10): seeing 50 only guarantees
        // future values >= 40.
        let mut m = MergeOp::new(2, 0, vec![10, 0]);
        let mut out = Vec::new();
        push(&mut m, 0, vec![tup(50)], &mut out);
        push(&mut m, 1, vec![tup(45)], &mut out);
        // Bound = min(50-10, 45) = 40: nothing emits yet.
        assert!(vals(&out).is_empty());
        // A late in-band tuple on input 0 still merges correctly.
        push(&mut m, 0, vec![tup(42)], &mut out);
        push(&mut m, 1, vec![tup(60)], &mut out);
        // Bounds: input0 = 40, input1 = 60 -> nothing <= 40... still held.
        assert!(vals(&out).is_empty());
        push(&mut m, 0, vec![tup(70)], &mut out);
        // Input0 bound = 60; emit everything <= 60 in order.
        assert_eq!(vals(&out), vec![42, 45, 50, 60]);
        finish(&mut m, &mut out);
        assert_eq!(vals(&out), vec![42, 45, 50, 60, 70]);
    }

    #[test]
    fn peak_buffer_tracks_blockage() {
        let mut m = MergeOp::new(2, 0, vec![0, 0]);
        let mut out = Vec::new();
        for v in 1..=50u64 {
            push(&mut m, 0, vec![tup(v)], &mut out);
        }
        push(&mut m, 1, vec![tup(100)], &mut out);
        finish(&mut m, &mut out);
        assert_eq!(m.peak_buffered, 51);
        assert_eq!(vals(&out).len(), 51);
    }

    #[test]
    fn forwards_progress_punctuation() {
        let mut m = MergeOp::new(2, 0, vec![0, 0]);
        let mut out = Vec::new();
        push(&mut m, 0, vec![tup(5)], &mut out);
        push(&mut m, 1, vec![tup(8)], &mut out);
        assert!(
            out.iter().any(|i| matches!(i, StreamItem::Punct(p) if p.low == Value::UInt(5))),
            "downstream learns the merge's own bound"
        );
    }

    #[test]
    fn batch_boundaries_do_not_change_output() {
        let feed: Vec<(usize, u64)> =
            vec![(0, 1), (0, 4), (1, 2), (1, 3), (0, 9), (1, 10), (0, 12), (1, 11)];
        let mut item_m = MergeOp::new(2, 0, vec![0, 0]);
        let mut item_out = Vec::new();
        for &(p, v) in &feed {
            push(&mut item_m, p, vec![tup(v)], &mut item_out);
        }
        finish(&mut item_m, &mut item_out);

        let mut batch_m = MergeOp::new(2, 0, vec![0, 0]);
        let mut batch_out = Vec::new();
        // Per-port batches, interleaved, with a punct in the middle.
        push(&mut batch_m, 0, vec![tup(1), tup(4)], &mut batch_out);
        push(&mut batch_m, 1, vec![tup(2), tup(3)], &mut batch_out);
        push(
            &mut batch_m,
            0,
            vec![tup(9), StreamItem::Punct(Punct::new(0, Value::UInt(9)))],
            &mut batch_out,
        );
        push(&mut batch_m, 1, vec![tup(10), tup(11)], &mut batch_out);
        push(&mut batch_m, 0, vec![tup(12)], &mut batch_out);
        push(&mut batch_m, 1, Vec::new(), &mut batch_out);
        finish(&mut batch_m, &mut batch_out);

        assert_eq!(vals(&item_out), vals(&batch_out), "same tuples in the same order");
    }

    #[test]
    fn three_way_merge() {
        let mut m = MergeOp::new(3, 0, vec![0, 0, 0]);
        let mut out = Vec::new();
        push(&mut m, 0, vec![tup(1)], &mut out);
        push(&mut m, 1, vec![tup(2)], &mut out);
        push(&mut m, 2, vec![tup(3)], &mut out);
        push(&mut m, 0, vec![tup(4)], &mut out);
        push(&mut m, 1, vec![tup(5)], &mut out);
        push(&mut m, 2, vec![tup(6)], &mut out);
        finish(&mut m, &mut out);
        assert_eq!(vals(&out), vec![1, 2, 3, 4, 5, 6]);
    }

    /// Regression: a punctuated-but-slow input gives every input a bound,
    /// yet its lagging bound holds the other side's tuples back — the
    /// operator must still report starvation so the on-demand heartbeat
    /// trigger fires, and an off-column punct must not stale the flag.
    #[test]
    fn lagging_punctuated_input_reports_starvation() {
        let mut m = MergeOp::new(2, 0, vec![0, 0]);
        let mut out = Vec::new();
        // Input 1 is alive (it punctuated) but far behind: bound = 0.
        push(&mut m, 1, vec![StreamItem::Punct(Punct::new(0, Value::UInt(0)))], &mut out);
        for v in 1..=100u64 {
            push(&mut m, 0, vec![tup(v)], &mut out);
        }
        assert_eq!(m.buffered(), 100, "every input has a bound, tuples still held");
        assert!(m.starved, "held-back tuples with a lagging bound are starvation");
        // An off-column punct changes nothing and must not clear the flag.
        push(&mut m, 1, vec![StreamItem::Punct(Punct::new(5, Value::UInt(1_000)))], &mut out);
        assert!(m.starved, "off-column punctuation must not clear starvation");
        // The real punct catches input 1 up and drains everything.
        push(&mut m, 1, vec![StreamItem::Punct(Punct::new(0, Value::UInt(1_000)))], &mut out);
        assert_eq!(vals(&out).len(), 100);
        assert_eq!(m.buffered(), 0);
        assert!(!m.starved);
    }

    #[test]
    fn finish_input_releases_its_hold() {
        let mut m = MergeOp::new(2, 0, vec![0, 0]);
        let mut out = Vec::new();
        push(&mut m, 0, vec![tup(9)], &mut out);
        assert!(vals(&out).is_empty());
        let (cb, p) = m.finish_input(1);
        out.extend(cb.into_items(p));
        assert_eq!(vals(&out), vec![9]);
    }

    /// A banded batch arrives out of order and is index-sorted as one
    /// run; runs of both inputs interleave by value, ties by arrival.
    #[test]
    fn unsorted_runs_merge_by_value_then_arrival() {
        let mut m = MergeOp::new(2, 0, vec![5, 5]);
        let mut out = Vec::new();
        push(&mut m, 0, vec![tup(7), tup(3), tup(5), tup(3)], &mut out);
        push(&mut m, 1, vec![tup(4), tup(3), tup(8)], &mut out);
        finish(&mut m, &mut out);
        assert_eq!(vals(&out), vec![3, 3, 3, 4, 5, 7, 8]);
    }

    #[test]
    fn snapshot_restore_continues_exactly() {
        use crate::snapshot::{SnapReader, SnapWriter};
        // Cut a two-input feed while tuples are buffered and one side is
        // starved; restore into a fresh merge and feed the tail — output
        // must equal the uninterrupted run, and the starved flag, bounds,
        // and counters survive the trip.
        let feed: Vec<(usize, u64)> =
            vec![(0, 1), (0, 4), (1, 2), (0, 9), (1, 3), (1, 10), (0, 12), (1, 11)];
        let (head, tail) = feed.split_at(4);

        let mut cont = MergeOp::new(2, 0, vec![0, 0]);
        let mut cont_out = Vec::new();
        for &(p, v) in &feed {
            push(&mut cont, p, vec![tup(v)], &mut cont_out);
        }
        finish(&mut cont, &mut cont_out);

        let mut first = MergeOp::new(2, 0, vec![0, 0]);
        let mut split_out = Vec::new();
        for &(p, v) in head {
            push(&mut first, p, vec![tup(v)], &mut split_out);
        }
        assert!(first.buffered() > 0, "cut point holds buffered tuples");
        let mut w = SnapWriter::new();
        first.snapshot(&mut w);
        let sealed = w.seal();

        let mut second = MergeOp::new(2, 0, vec![0, 0]);
        let mut r = SnapReader::open(&sealed).expect("open");
        second.restore(&mut r).expect("restore");
        r.finish().expect("payload fully consumed");
        assert_eq!(second.buffered(), first.buffered());
        assert_eq!(second.starved, first.starved);
        for &(p, v) in tail {
            push(&mut second, p, vec![tup(v)], &mut split_out);
        }
        finish(&mut second, &mut split_out);

        assert_eq!(vals(&cont_out), vals(&split_out), "same tuples in the same order");
        assert_eq!(second.peak_buffered, cont.peak_buffered);

        // An input-count mismatch is rejected.
        let mut three = MergeOp::new(3, 0, vec![0, 0, 0]);
        let mut r = SnapReader::open(&sealed).expect("open");
        assert!(three.restore(&mut r).is_err());
    }
}
