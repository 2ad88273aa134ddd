//! Stream operators.
//!
//! Operators are push-based state machines: tuples (and punctuation) go
//! in, zero or more items come out. They are synchronous and scheduler
//! agnostic — the engine can run them inline in a capture loop (LFTAs),
//! single-threaded for deterministic tests, or one-per-thread connected
//! by channels (the deployment configuration).

pub mod agg;
pub mod build;
pub mod defrag;
pub mod join;
pub mod lfta;
pub mod merge;
pub mod prefilter;
pub mod router;
pub mod select;

use crate::batch::{ColStep, ColumnBatch};
use crate::punct::Punct;
use crate::snapshot::{SnapError, SnapReader, SnapWriter};
use crate::stats::OpCounters;
use crate::tuple::StreamItem;
use std::sync::Arc;

/// A push-based single-input stream operator — a stage of an HFTA's
/// chain. The two multi-input roots, [`merge::MergeOp`] and
/// [`join::JoinOp`], take a port with every batch and are driven by
/// [`build::HftaNode`] directly.
pub trait Operator: Send {
    /// Feed a batch of items (`port` is always 0); outputs are appended
    /// to `out`. The one row entry point: a single item is a batch of one.
    ///
    /// Batch boundaries carry no meaning — splitting or joining batches
    /// never changes the data tuples produced, which lets hot operators
    /// hoist per-call setup (group-table lookups for runs of equal keys)
    /// out of the inner loop. Coarser batches may emit fewer intermediate
    /// punctuation tokens (punctuation is an optimization, never required
    /// for correctness).
    fn push_batch(&mut self, port: usize, items: Vec<StreamItem>, out: &mut Vec<StreamItem>);

    /// Feed a columnar batch with its at-most-one trailing punctuation
    /// rider.
    ///
    /// Semantically identical to materializing the rows and calling
    /// [`push_batch`](Operator::push_batch) — which is exactly what the
    /// default does. Columnar overrides return [`ColStep::Cols`] when
    /// their output can stay columnar, [`ColStep::Rows`] when it is
    /// row-shaped (aggregation emissions).
    fn push_cols(&mut self, cols: ColumnBatch, punct: Option<Punct>) -> ColStep {
        let mut out = Vec::new();
        self.push_batch(0, cols.into_items(punct), &mut out);
        ColStep::Rows(out)
    }

    /// All inputs are exhausted: flush any remaining state.
    fn finish(&mut self, out: &mut Vec<StreamItem>);

    /// Short tag naming the operator kind in stats registrations
    /// (`hfta:<query>/<i>:<kind>`).
    fn kind(&self) -> &'static str {
        "op"
    }

    /// The operator's shared counter block, when it keeps one. The
    /// engine registers it in the [`StatsRegistry`](crate::stats::StatsRegistry)
    /// at build time.
    fn stats_handle(&self) -> Option<Arc<OpCounters>> {
        None
    }

    /// Publish internal plain counters into the shared block (plain
    /// stores — operators are single-writer). Called by the scheduler at
    /// batch granularity; until the first call the shared block reads
    /// zero.
    fn publish_stats(&self) {}

    /// Serialize the operator's mutable state into `w` so an identically
    /// built operator can [`restore`](Operator::restore) it and continue
    /// as if the stream had never stopped. Called only at a quiescent
    /// point (between batches, all inputs drained up to a consistent
    /// cut), so per-call transients (the hash-agg hot entry, scratch
    /// buffers) never need encoding. Stateless operators keep the no-op
    /// default.
    fn snapshot(&self, w: &mut SnapWriter) {
        let _ = w;
    }

    /// Restore state previously written by [`snapshot`](Operator::snapshot)
    /// into a freshly built operator of the same shape. On error the
    /// operator may be partially modified and must be discarded (the
    /// engine falls back to a fresh build + empty-window replay).
    fn restore(&mut self, r: &mut SnapReader) -> Result<(), SnapError> {
        let _ = r;
        Ok(())
    }

    /// State items held right now — open groups, for an aggregate: what
    /// a [`snapshot`](Operator::snapshot) would write, and what a replay
    /// would have to rebuild. Stateless operators keep the default 0.
    fn held(&self) -> usize {
        0
    }
}

/// Run a chain of single-input operators over a whole batch: each stage
/// consumes the previous stage's output vector via [`Operator::push_batch`],
/// so per-stage setup amortizes over the batch instead of repeating per
/// item.
pub fn cascade_batch(
    ops: &mut [Box<dyn Operator>],
    items: Vec<StreamItem>,
    out: &mut Vec<StreamItem>,
) {
    let mut cur = items;
    let mut next = Vec::new();
    for op in ops.iter_mut() {
        op.push_batch(0, std::mem::take(&mut cur), &mut next);
        std::mem::swap(&mut cur, &mut next);
    }
    out.extend(cur);
}

/// Finish a chain: flush each stage in order, feeding its tail output
/// through the stages after it (which have not finished yet).
pub fn cascade_finish(ops: &mut [Box<dyn Operator>], out: &mut Vec<StreamItem>) {
    for i in 0..ops.len() {
        let mut flushed = Vec::new();
        ops[i].finish(&mut flushed);
        if !flushed.is_empty() {
            cascade_batch(&mut ops[i + 1..], flushed, out);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tuple::Tuple;
    use crate::value::Value;

    /// Doubles every uint in a 1-field tuple; flushes a sentinel.
    struct Doubler;
    impl Operator for Doubler {
        fn push_batch(&mut self, _p: usize, items: Vec<StreamItem>, out: &mut Vec<StreamItem>) {
            for item in items {
                if let StreamItem::Tuple(t) = item {
                    let v = t.get(0).as_uint().unwrap();
                    out.push(StreamItem::Tuple(Tuple::new(vec![Value::UInt(v * 2)])));
                }
            }
        }
        fn finish(&mut self, out: &mut Vec<StreamItem>) {
            out.push(StreamItem::Tuple(Tuple::new(vec![Value::UInt(999)])));
        }
    }

    fn uints(out: &[StreamItem]) -> Vec<u64> {
        out.iter().filter_map(|i| i.as_tuple().map(|t| t.get(0).as_uint().unwrap())).collect()
    }

    #[test]
    fn cascade_batch_applies_stages_in_order() {
        let items: Vec<StreamItem> =
            (0..5u64).map(|v| StreamItem::Tuple(Tuple::new(vec![Value::UInt(v)]))).collect();
        let mut ops: Vec<Box<dyn Operator>> = vec![Box::new(Doubler), Box::new(Doubler)];
        let mut out = Vec::new();
        cascade_batch(&mut ops, items, &mut out);
        assert_eq!(uints(&out), vec![0, 4, 8, 12, 16]);
    }

    #[test]
    fn cascade_finish_propagates_flushes() {
        let mut ops: Vec<Box<dyn Operator>> = vec![Box::new(Doubler), Box::new(Doubler)];
        let mut out = Vec::new();
        cascade_finish(&mut ops, &mut out);
        // First stage's sentinel passes through the second (999*2), then
        // the second stage's own sentinel.
        assert_eq!(uints(&out), vec![1998, 999]);
    }
}
