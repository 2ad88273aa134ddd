//! Stream operators.
//!
//! Operators are push-based state machines: a batch (and its punctuation
//! rider) goes in, a batch and at most one rider come out. They are
//! synchronous and scheduler agnostic — the engine can run them inline in
//! a capture loop (LFTAs), single-threaded for deterministic tests, or
//! one-per-thread connected by channels (the deployment configuration).

pub mod agg;
pub mod build;
pub mod defrag;
pub mod join;
mod keyhash;
pub mod lfta;
pub mod merge;
pub mod prefilter;
pub mod router;
pub mod select;

use crate::batch::ColumnBatch;
use crate::punct::Punct;
use crate::snapshot::{SnapError, SnapReader, SnapWriter};
use crate::stats::OpCounters;
use std::sync::Arc;

/// A push-based single-input stream operator — a stage of an HFTA's
/// chain, driven by [`build::HftaNode`]. The two multi-input roots,
/// [`merge::MergeOp`] and [`join::JoinOp`], take a port with every batch
/// and are driven by the node directly.
pub trait Operator: Send {
    /// Feed a columnar batch with its at-most-one trailing punctuation
    /// rider; returns the output batch and its rider. The one way in:
    /// a single row is a batch of one.
    ///
    /// Batch boundaries carry no meaning — splitting or joining batches
    /// never changes the data tuples produced, which lets hot operators
    /// hoist per-call setup (group-table lookups for runs of equal keys)
    /// out of the inner loop. Coarser batches may emit fewer intermediate
    /// punctuation tokens (punctuation is an optimization, never required
    /// for correctness).
    fn push_cols(
        &mut self,
        cols: ColumnBatch,
        punct: Option<Punct>,
    ) -> (ColumnBatch, Option<Punct>);

    /// All inputs are exhausted: flush any remaining state as one batch.
    /// Stateless operators keep the default, which flushes nothing.
    fn finish(&mut self) -> ColumnBatch {
        ColumnBatch::default()
    }

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
    /// cut), so per-call transients (an aggregate's closed groups awaiting
    /// emission, scratch buffers) never need encoding. Stateless
    /// operators keep the no-op default.
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
