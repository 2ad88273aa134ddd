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

use crate::ops::{Operator, OrderedTupleEntry as Entry};
use crate::punct::Punct;
use crate::snapshot::{SnapError, SnapReader, SnapWriter};
use crate::stats::OpCounters;
use crate::tuple::StreamItem;
use crate::value::Value;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::Arc;

struct Input {
    heap: BinaryHeap<Reverse<Entry>>,
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
    on_col: usize,
    /// Banded slack per input (0 for monotone inputs).
    slacks: Vec<u64>,
    seq: u64,
    last_punct_bound: Option<u64>,
    /// Total buffered tuples right now.
    buffered: usize,
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
                .map(|_| Input {
                    heap: BinaryHeap::new(),
                    watermark: None,
                    future_bound: None,
                    finished: false,
                })
                .collect(),
            on_col,
            slacks,
            seq: 0,
            last_punct_bound: None,
            buffered: 0,
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

    /// Recompute the heartbeat-starvation flag. The operator is starved
    /// whenever buffered tuples are being held back: either no safe bound
    /// exists yet (some input has produced nothing), or some input's head
    /// entry sits above the bound — every input has punctuated, but one
    /// input's bound lags the buffered minimum. Both cases mean only an
    /// out-of-band heartbeat can restore progress.
    fn update_starved(&mut self) {
        self.starved = match self.safe_bound() {
            None => self.buffered > 0,
            Some(bound) => {
                self.inputs.iter().any(|i| i.heap.peek().is_some_and(|Reverse(e)| e.v > bound))
            }
        };
    }

    fn drain_ready(&mut self, out: &mut Vec<StreamItem>) {
        let Some(bound) = self.safe_bound() else {
            self.update_starved();
            return;
        };
        loop {
            // Pop the globally smallest buffered entry if it is safe.
            let mut best: Option<(usize, u64, u64)> = None;
            for (i, input) in self.inputs.iter().enumerate() {
                if let Some(Reverse(e)) = input.heap.peek() {
                    if e.v <= bound {
                        let cand = (i, e.v, e.seq);
                        best = match best {
                            None => Some(cand),
                            Some(b) if (cand.1, cand.2) < (b.1, b.2) => Some(cand),
                            keep => keep,
                        };
                    }
                }
            }
            let Some((i, _, _)) = best else { break };
            let Reverse(e) = self.inputs[i].heap.pop().expect("peeked entry");
            self.buffered -= 1;
            self.tuples_out += 1;
            out.push(StreamItem::Tuple(e.tuple));
        }
        self.update_starved();
        // Forward progress downstream, once per bound advance.
        if self.inputs.iter().all(|i| !i.finished)
            && self.last_punct_bound.is_none_or(|b| bound > b)
        {
            self.last_punct_bound = Some(bound);
            out.push(StreamItem::Punct(Punct::new(self.on_col, Value::UInt(bound))));
        }
    }

    /// Buffer one item and update the input's bounds; returns whether the
    /// item could affect the drainable set.
    fn absorb(&mut self, port: usize, item: StreamItem) -> bool {
        match item {
            StreamItem::Tuple(t) => {
                self.tuples_in += 1;
                let Some(v) = t.get(self.on_col).as_uint() else { return false };
                let input = &mut self.inputs[port];
                input.watermark = Some(input.watermark.map_or(v, |w| w.max(v)));
                let wm_bound = input.watermark.expect("just set").saturating_sub(self.slacks[port]);
                input.future_bound =
                    Some(input.future_bound.map_or(wm_bound, |b| b.max(wm_bound)));
                self.seq += 1;
                input.heap.push(Reverse(Entry { v, seq: self.seq, tuple: t }));
                self.buffered += 1;
                self.peak_buffered = self.peak_buffered.max(self.buffered);
                true
            }
            StreamItem::Punct(p) => {
                self.puncts += 1;
                if p.col != self.on_col {
                    return false;
                }
                let Some(low) = p.low.as_uint() else { return false };
                let input = &mut self.inputs[port];
                input.future_bound = Some(input.future_bound.map_or(low, |b| b.max(low)));
                true
            }
        }
    }

    /// Mark one input as exhausted.
    pub fn finish_input(&mut self, port: usize, out: &mut Vec<StreamItem>) {
        self.inputs[port].finished = true;
        self.drain_ready(out);
    }

    /// Tuples currently buffered.
    pub fn buffered(&self) -> usize {
        self.buffered
    }
}

impl Operator for MergeOp {
    fn n_inputs(&self) -> usize {
        self.inputs.len()
    }

    /// Batched merge absorbs the whole batch into the input heap —
    /// advancing the watermark and future bound as it goes — and re-peeks
    /// the heaps once at the end, instead of running the k-way
    /// smallest-safe-entry scan after every tuple.
    fn push_batch(&mut self, port: usize, items: Vec<StreamItem>, out: &mut Vec<StreamItem>) {
        self.batches += 1;
        let mut dirty = false;
        for item in items {
            dirty |= self.absorb(port, item);
        }
        if dirty {
            self.drain_ready(out);
        } else {
            // Off-column punctuation (or an unmergeable tuple) can't move
            // the bound, but the starvation flag must stay honest — the
            // on-demand heartbeat trigger reads it between pushes.
            self.update_starved();
        }
    }

    fn finish(&mut self, out: &mut Vec<StreamItem>) {
        for i in &mut self.inputs {
            i.finished = true;
        }
        self.drain_ready(out);
    }

    fn kind(&self) -> &'static str {
        "merge"
    }

    fn stats_handle(&self) -> Option<Arc<OpCounters>> {
        Some(self.stats.clone())
    }

    fn publish_stats(&self) {
        self.stats.tuples_in.set(self.tuples_in);
        self.stats.tuples_out.set(self.tuples_out);
        self.stats.batches_in.set(self.batches);
        self.stats.puncts_in.set(self.puncts);
        self.stats.peak_held.set(self.peak_buffered as u64);
    }

    /// Per-input heads (buffered entries + watermark/bound + starved and
    /// finished flags) plus the global sequence and counters.
    fn snapshot(&self, w: &mut SnapWriter) {
        w.put_u32(self.inputs.len() as u32);
        for input in &self.inputs {
            w.put_u32(input.heap.len() as u32);
            // Heap iteration order is arbitrary; restore re-pushes, and
            // (v, seq) ordering makes the rebuilt heap equivalent.
            for Reverse(e) in input.heap.iter() {
                w.put_u64(e.v);
                w.put_u64(e.seq);
                w.put_tuple(&e.tuple);
            }
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

    fn restore(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        let n = r.get_u32()? as usize;
        if n != self.inputs.len() {
            return Err(crate::snapshot::proto(format!(
                "merge input count {n} != {}",
                self.inputs.len()
            )));
        }
        let mut buffered = 0;
        for input in &mut self.inputs {
            let k = r.get_count(17)?; // v + seq + >=1-byte tuple
            input.heap.clear();
            for _ in 0..k {
                let v = r.get_u64()?;
                let seq = r.get_u64()?;
                let tuple = r.get_tuple()?;
                input.heap.push(Reverse(Entry { v, seq, tuple }));
            }
            buffered += k;
            input.watermark = r.get_opt_u64()?;
            input.future_bound = r.get_opt_u64()?;
            input.finished = r.get_bool()?;
        }
        self.buffered = buffered;
        self.seq = r.get_u64()?;
        self.last_punct_bound = r.get_opt_u64()?;
        self.peak_buffered = (r.get_u64()? as usize).max(buffered);
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
    use crate::tuple::Tuple;

    fn tup(v: u64) -> StreamItem {
        StreamItem::Tuple(Tuple::new(vec![Value::UInt(v)]))
    }

    fn vals(out: &[StreamItem]) -> Vec<u64> {
        out.iter()
            .filter_map(|i| i.as_tuple())
            .map(|t| t.get(0).as_uint().unwrap())
            .collect()
    }

    #[test]
    fn interleaves_in_order() {
        let mut m = MergeOp::new(2, 0, vec![0, 0]);
        let mut out = Vec::new();
        for v in [1u64, 4, 9] {
            m.push_batch(0, vec![tup(v)], &mut out);
        }
        for v in [2u64, 3, 10] {
            m.push_batch(1, vec![tup(v)], &mut out);
        }
        m.finish(&mut out);
        assert_eq!(vals(&out), vec![1, 2, 3, 4, 9, 10]);
    }

    #[test]
    fn holds_back_until_both_sides_progress() {
        let mut m = MergeOp::new(2, 0, vec![0, 0]);
        let mut out = Vec::new();
        m.push_batch(0, vec![tup(5)], &mut out);
        m.push_batch(0, vec![tup(6)], &mut out);
        assert!(vals(&out).is_empty(), "input 1 has no bound yet");
        assert!(m.starved, "the operator reports potential blockage");
        m.push_batch(1, vec![tup(7)], &mut out);
        // Input 1's future bound is 7: both 5 and 6 are safe.
        assert_eq!(vals(&out), vec![5, 6]);
        assert_eq!(m.buffered(), 1);
    }

    #[test]
    fn punctuation_unblocks_a_silent_input() {
        let mut m = MergeOp::new(2, 0, vec![0, 0]);
        let mut out = Vec::new();
        for v in 1..=100u64 {
            m.push_batch(0, vec![tup(v)], &mut out);
        }
        assert_eq!(m.buffered(), 100, "silent second input blocks everything");
        m.push_batch(1, vec![StreamItem::Punct(Punct::new(0, Value::UInt(1_000)))], &mut out);
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
        m.push_batch(0, vec![tup(50)], &mut out);
        m.push_batch(1, vec![tup(45)], &mut out);
        // Bound = min(50-10, 45) = 40: nothing emits yet.
        assert!(vals(&out).is_empty());
        // A late in-band tuple on input 0 still merges correctly.
        m.push_batch(0, vec![tup(42)], &mut out);
        m.push_batch(1, vec![tup(60)], &mut out);
        // Bounds: input0 = 40, input1 = 60 -> nothing <= 40... still held.
        assert!(vals(&out).is_empty());
        m.push_batch(0, vec![tup(70)], &mut out);
        // Input0 bound = 60; emit everything <= 60 in order.
        assert_eq!(vals(&out), vec![42, 45, 50, 60]);
        m.finish(&mut out);
        assert_eq!(vals(&out), vec![42, 45, 50, 60, 70]);
    }

    #[test]
    fn peak_buffer_tracks_blockage() {
        let mut m = MergeOp::new(2, 0, vec![0, 0]);
        let mut out = Vec::new();
        for v in 1..=50u64 {
            m.push_batch(0, vec![tup(v)], &mut out);
        }
        m.push_batch(1, vec![tup(100)], &mut out);
        m.finish(&mut out);
        assert_eq!(m.peak_buffered, 51);
        assert_eq!(vals(&out).len(), 51);
    }

    #[test]
    fn forwards_progress_punctuation() {
        let mut m = MergeOp::new(2, 0, vec![0, 0]);
        let mut out = Vec::new();
        m.push_batch(0, vec![tup(5)], &mut out);
        m.push_batch(1, vec![tup(8)], &mut out);
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
            item_m.push_batch(p, vec![tup(v)], &mut item_out);
        }
        item_m.finish(&mut item_out);

        let mut batch_m = MergeOp::new(2, 0, vec![0, 0]);
        let mut batch_out = Vec::new();
        // Per-port batches, interleaved, with a punct in the middle.
        batch_m.push_batch(0, vec![tup(1), tup(4)], &mut batch_out);
        batch_m.push_batch(1, vec![tup(2), tup(3)], &mut batch_out);
        batch_m.push_batch(
            0,
            vec![tup(9), StreamItem::Punct(Punct::new(0, Value::UInt(9)))],
            &mut batch_out,
        );
        batch_m.push_batch(1, vec![tup(10), tup(11)], &mut batch_out);
        batch_m.push_batch(0, vec![tup(12)], &mut batch_out);
        batch_m.push_batch(1, Vec::new(), &mut batch_out);
        batch_m.finish(&mut batch_out);

        assert_eq!(vals(&item_out), vals(&batch_out), "same tuples in the same order");
    }

    #[test]
    fn three_way_merge() {
        let mut m = MergeOp::new(3, 0, vec![0, 0, 0]);
        let mut out = Vec::new();
        m.push_batch(0, vec![tup(1)], &mut out);
        m.push_batch(1, vec![tup(2)], &mut out);
        m.push_batch(2, vec![tup(3)], &mut out);
        m.push_batch(0, vec![tup(4)], &mut out);
        m.push_batch(1, vec![tup(5)], &mut out);
        m.push_batch(2, vec![tup(6)], &mut out);
        m.finish(&mut out);
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
        m.push_batch(1, vec![StreamItem::Punct(Punct::new(0, Value::UInt(0)))], &mut out);
        for v in 1..=100u64 {
            m.push_batch(0, vec![tup(v)], &mut out);
        }
        assert_eq!(m.buffered(), 100, "every input has a bound, tuples still held");
        assert!(m.starved, "held-back tuples with a lagging bound are starvation");
        // An off-column punct changes nothing and must not clear the flag.
        m.push_batch(1, vec![StreamItem::Punct(Punct::new(5, Value::UInt(1_000)))], &mut out);
        assert!(m.starved, "off-column punctuation must not clear starvation");
        // The real punct catches input 1 up and drains everything.
        m.push_batch(1, vec![StreamItem::Punct(Punct::new(0, Value::UInt(1_000)))], &mut out);
        assert_eq!(vals(&out).len(), 100);
        assert_eq!(m.buffered(), 0);
        assert!(!m.starved);
    }

    #[test]
    fn finish_input_releases_its_hold() {
        let mut m = MergeOp::new(2, 0, vec![0, 0]);
        let mut out = Vec::new();
        m.push_batch(0, vec![tup(9)], &mut out);
        assert!(vals(&out).is_empty());
        m.finish_input(1, &mut out);
        assert_eq!(vals(&out), vec![9]);
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
            cont.push_batch(p, vec![tup(v)], &mut cont_out);
        }
        cont.finish(&mut cont_out);

        let mut first = MergeOp::new(2, 0, vec![0, 0]);
        let mut split_out = Vec::new();
        for &(p, v) in head {
            first.push_batch(p, vec![tup(v)], &mut split_out);
        }
        assert!(first.buffered() > 0, "cut point holds buffered tuples");
        let mut w = SnapWriter::new();
        Operator::snapshot(&first, &mut w);
        let sealed = w.seal();

        let mut second = MergeOp::new(2, 0, vec![0, 0]);
        let mut r = SnapReader::open(&sealed).expect("open");
        Operator::restore(&mut second, &mut r).expect("restore");
        r.finish().expect("payload fully consumed");
        assert_eq!(second.buffered(), first.buffered());
        assert_eq!(second.starved, first.starved);
        for &(p, v) in tail {
            second.push_batch(p, vec![tup(v)], &mut split_out);
        }
        second.finish(&mut split_out);

        assert_eq!(vals(&cont_out), vals(&split_out), "same tuples in the same order");
        assert_eq!(second.peak_buffered, cont.peak_buffered);

        // An input-count mismatch is rejected.
        let mut three = MergeOp::new(3, 0, vec![0, 0, 0]);
        let mut r = SnapReader::open(&sealed).expect("open");
        assert!(Operator::restore(&mut three, &mut r).is_err());
    }
}
