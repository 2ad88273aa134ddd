//! Self-monitoring counters (paper §4).
//!
//! Gigascope monitors itself with the same machinery it offers its
//! users: every layer keeps cheap counters, a [`StatsRegistry`]
//! snapshots them on demand (the `gsq --stats` dump), and the engines
//! periodically re-emit the snapshot as tuples on the built-in
//! `GS_STATS` stream so ordinary GSQL queries can filter and aggregate
//! them — the paper's "Gigascope monitors itself" loop.
//!
//! Counters are relaxed atomics. Operators run single-writer (one
//! thread owns an operator), so they accumulate in plain fields on the
//! hot path and *publish* into their shared [`OpCounters`] block with
//! plain stores at batch granularity; readers (the stats emitter, the
//! registry snapshot) see values at most one batch stale. Multi-writer
//! sites (edge batchers, queue admission) add directly.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// A monotone counter readable from any thread.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Zeroed counter.
    pub const fn new() -> Counter {
        Counter(AtomicU64::new(0))
    }

    /// Add `n` (relaxed; multi-writer safe).
    pub fn add(&self, n: u64) {
        if n > 0 {
            self.0.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Add one.
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Overwrite with `v` (single-writer publish).
    pub fn set(&self, v: u64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Anything that can report a fixed set of named counters.
pub trait StatSource: Send + Sync {
    /// `(counter name, current value)` pairs. The name set must be
    /// stable across calls (values move, rows don't).
    fn counters(&self) -> Vec<(&'static str, u64)>;
}

/// One snapshot row: `node` is the registered instance name
/// (`lfta:<stream>`, `hfta:<query>/<i>:<kind>`, `edge:<stream>`,
/// `queue:<consumer>`), `counter` the per-source counter name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StatRow {
    /// Registered instance name.
    pub node: String,
    /// Counter name within the instance.
    pub counter: &'static str,
    /// Counter value at snapshot time.
    pub value: u64,
}

/// Registry of every counter-bearing instance in a deployment.
#[derive(Default)]
pub struct StatsRegistry {
    sources: Mutex<Vec<(String, Arc<dyn StatSource>)>>,
}

impl StatsRegistry {
    /// Empty registry.
    pub fn new() -> StatsRegistry {
        StatsRegistry::default()
    }

    /// Register a counter source under an instance name.
    pub fn register(&self, node: impl Into<String>, source: Arc<dyn StatSource>) {
        self.sources.lock().unwrap().push((node.into(), source));
    }

    /// Remove every source registered under `node`. Long-lived registries
    /// (the `gsqd` daemon's) register per-query and per-connection nodes
    /// dynamically; without removal an UNREGISTER or a disconnect would
    /// leak its counter rows forever. Returns whether anything was removed.
    pub fn unregister(&self, node: &str) -> bool {
        let mut sources = self.sources.lock().unwrap();
        let before = sources.len();
        sources.retain(|(n, _)| n != node);
        sources.len() != before
    }

    /// Snapshot every registered counter, sorted by (node, counter).
    pub fn snapshot(&self) -> Vec<StatRow> {
        let sources = self.sources.lock().unwrap();
        let mut rows = Vec::new();
        for (node, src) in sources.iter() {
            for (counter, value) in src.counters() {
                rows.push(StatRow { node: node.clone(), counter, value });
            }
        }
        drop(sources);
        rows.sort_by(|a, b| (&a.node, a.counter).cmp(&(&b.node, b.counter)));
        rows
    }

    /// Convenience lookup of a single counter.
    pub fn value(&self, node: &str, counter: &str) -> Option<u64> {
        let sources = self.sources.lock().unwrap();
        for (n, src) in sources.iter() {
            if n == node {
                for (c, v) in src.counters() {
                    if c == counter {
                        return Some(v);
                    }
                }
            }
        }
        None
    }
}

/// The generic per-operator counter block. Kind-specific counters keep
/// their generic slot meaning:
///
/// - `groups_evicted`: aggregation groups closed and emitted;
/// - `gc_dropped`: join buffer entries discarded by window GC;
/// - `peak_held`: peak open groups (aggregate) or peak buffered tuples
///   (merge/join).
///
/// Kinds that have no use for a slot report it as zero, keeping the row
/// set per node uniform and the `GS_STATS` schema flat.
#[derive(Debug, Default)]
pub struct OpCounters {
    /// Data tuples received.
    pub tuples_in: Counter,
    /// Data tuples emitted.
    pub tuples_out: Counter,
    /// Batches received (one per `push_cols` call).
    pub batches_in: Counter,
    /// Punctuation tokens received.
    pub puncts_in: Counter,
    /// Aggregation groups closed and emitted.
    pub groups_evicted: Counter,
    /// Join buffer entries dropped by window GC.
    pub gc_dropped: Counter,
    /// Peak held state (open groups / buffered tuples).
    pub peak_held: Counter,
}

impl StatSource for OpCounters {
    fn counters(&self) -> Vec<(&'static str, u64)> {
        vec![
            ("tuples_in", self.tuples_in.get()),
            ("tuples_out", self.tuples_out.get()),
            ("batches_in", self.batches_in.get()),
            ("puncts_in", self.puncts_in.get()),
            ("groups_evicted", self.groups_evicted.get()),
            ("gc_dropped", self.gc_dropped.get()),
            ("peak_held", self.peak_held.get()),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_add_set_get() {
        let c = Counter::new();
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        c.set(2);
        assert_eq!(c.get(), 2);
        c.add(0);
        assert_eq!(c.get(), 2);
    }

    #[test]
    fn registry_snapshot_is_sorted_and_live() {
        let reg = StatsRegistry::new();
        let b = Arc::new(OpCounters::default());
        let a = Arc::new(OpCounters::default());
        reg.register("node_b", b.clone());
        reg.register("node_a", a.clone());
        a.tuples_in.set(7);
        let rows = reg.snapshot();
        assert_eq!(rows.len(), 14);
        assert!(rows.windows(2).all(|w| (&w[0].node, w[0].counter) <= (&w[1].node, w[1].counter)));
        assert_eq!(reg.value("node_a", "tuples_in"), Some(7));
        assert_eq!(reg.value("node_b", "tuples_in"), Some(0));
        assert_eq!(reg.value("node_a", "nope"), None);
        // Live: a later mutation is visible without re-registering.
        b.puncts_in.set(3);
        assert_eq!(reg.value("node_b", "puncts_in"), Some(3));
    }

    #[test]
    fn unregister_removes_all_rows_for_the_node() {
        let reg = StatsRegistry::new();
        reg.register("keep", Arc::new(OpCounters::default()));
        reg.register("gone", Arc::new(OpCounters::default()));
        reg.register("gone", Arc::new(OpCounters::default()));
        assert!(reg.unregister("gone"));
        assert!(!reg.unregister("gone"), "already removed");
        let rows = reg.snapshot();
        assert!(rows.iter().all(|r| r.node == "keep"), "only `keep` rows survive");
        assert_eq!(rows.len(), 7);
    }
}
