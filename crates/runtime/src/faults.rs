//! Deterministic fault injection.
//!
//! Gigascope runs unattended at the capture point: a single misbehaving
//! query must not take the collector down, and — following DBSP's
//! determinism-first discipline — the failure scenarios themselves must
//! be *replayable*, not flaky. A [`FaultPlan`] describes exactly which
//! node misbehaves, how, and when (counted in consumed batches), so a
//! fault run is as reproducible as a fault-free one. Plans are built
//! explicitly or drawn from a seed via the in-repo `gs-rand` shim
//! (fully offline, no wall-clock or OS randomness involved).
//!
//! The injector deliberately reuses the *real* failure paths: an
//! injected panic is an ordinary `panic!` raised inside the engine's
//! containment boundary, an injected corrupt batch is a genuinely
//! column-truncated batch handed to the node, an injected poisoned lock is
//! a mutex whose holder really panicked. Nothing is simulated at a
//! layer the production code does not exercise.
//!
//! Containment outcomes are accounted in a [`FaultStats`] block
//! (`fault_injected` / `faults_contained` / `queries_failed`) that the
//! engines register in their [`StatsRegistry`](crate::stats) under the
//! node name `faults`, so injection campaigns are observable through
//! the ordinary `GS_STATS` self-monitoring stream.

use crate::batch::ColumnBatch;
use crate::stats::{Counter, StatSource};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::sync::{Arc, Mutex, PoisonError};

/// How a targeted node misbehaves.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FaultKind {
    /// Panic while consuming the `at_batch`-th batch (1-based) — the
    /// classic operator bug. The panic unwinds into the engine's
    /// containment boundary; nothing about the panic itself is special.
    PanicOnBatch {
        /// Which consumed batch triggers the panic (1 = the first).
        at_batch: u64,
    },
    /// Poison a shared lock at the `at_batch`-th batch: a helper thread
    /// acquires the [`poison_target`](FaultPlan::poison_target) mutex
    /// and panics while holding it. Poison-tolerant callers
    /// (`unwrap_or_else(PoisonError::into_inner)`) keep running;
    /// intolerant ones would cascade the abort — which is exactly what
    /// this fault exists to catch.
    PoisonLock {
        /// Which consumed batch triggers the poisoning.
        at_batch: u64,
    },
    /// Sleep `delay_ms` before each batch from `at_batch` on — a slow
    /// consumer that backs up its input queue (and, with a watchdog
    /// armed and the delay long enough, gets force-closed).
    SlowConsumer {
        /// First affected batch (1-based).
        at_batch: u64,
        /// Per-batch processing delay, milliseconds.
        delay_ms: u64,
    },
    /// Truncate the `at_batch`-th batch to its first `keep_cols`
    /// columns — the corrupt-transport scenario. The node's input check
    /// panics on the short batch, which the containment boundary turns
    /// into a quarantined query instead of an abort.
    CorruptTuple {
        /// Which consumed batch is corrupted (1-based).
        at_batch: u64,
        /// Columns to keep; `0` keeps none.
        keep_cols: usize,
    },
}

impl FaultKind {
    /// The batch index (1-based) at which this fault first acts.
    pub fn at_batch(&self) -> u64 {
        match *self {
            FaultKind::PanicOnBatch { at_batch }
            | FaultKind::PoisonLock { at_batch }
            | FaultKind::SlowConsumer { at_batch, .. }
            | FaultKind::CorruptTuple { at_batch, .. } => at_batch,
        }
    }
}

/// One injected fault: which node, what goes wrong.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultSpec {
    /// Target node — an HFTA output stream name (`perport`, or a
    /// partition shard `perport#2`).
    pub node: String,
    /// The misbehavior.
    pub kind: FaultKind,
}

/// A deterministic fault campaign: the full description of everything
/// that will go wrong in a run. Cloneable and engine-agnostic; the
/// synchronous engine and the threaded manager both consume it.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    /// The injected faults, in declaration order.
    pub specs: Vec<FaultSpec>,
    /// Shared mutex that [`FaultKind::PoisonLock`] poisons. Engines
    /// don't use the lock for anything; it exists so poison tolerance
    /// is exercised by a *really* poisoned `std::sync::Mutex`.
    poison_target: Arc<Mutex<u64>>,
}

impl FaultPlan {
    /// An empty plan (no faults).
    pub fn new() -> FaultPlan {
        FaultPlan::default()
    }

    /// Add `kind` at `node`; builder-style.
    pub fn with(mut self, node: impl Into<String>, kind: FaultKind) -> FaultPlan {
        self.specs.push(FaultSpec { node: node.into(), kind });
        self
    }

    /// Shorthand for the common case: panic at `node` on its `n`-th
    /// consumed batch.
    pub fn panic_at(self, node: impl Into<String>, n: u64) -> FaultPlan {
        self.with(node, FaultKind::PanicOnBatch { at_batch: n })
    }

    /// Draw a random single-fault plan over `nodes` from `seed` —
    /// deterministic: the same seed and node list always produce the
    /// same plan, on any machine (the `gs-rand` shim is bit-stable).
    pub fn seeded(seed: u64, nodes: &[&str]) -> FaultPlan {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut plan = FaultPlan::new();
        if nodes.is_empty() {
            return plan;
        }
        let node = nodes[rng.gen_range(0..nodes.len())];
        let at_batch = rng.gen_range(1..16u64);
        let kind = match rng.gen_range(0..4u8) {
            0 => FaultKind::PanicOnBatch { at_batch },
            1 => FaultKind::PoisonLock { at_batch },
            2 => FaultKind::SlowConsumer { at_batch, delay_ms: rng.gen_range(1..4) },
            _ => FaultKind::CorruptTuple { at_batch, keep_cols: rng.gen_range(0..2) as usize },
        };
        plan.specs.push(FaultSpec { node: node.to_string(), kind });
        plan
    }

    /// Whether any fault targets `node`.
    pub fn targets(&self, node: &str) -> bool {
        self.specs.iter().any(|s| s.node == node)
    }

    /// Arm the faults aimed at `node`: the per-node injector the engine
    /// consults on every batch. Cheap (`None`) for untargeted nodes.
    pub fn armed(&self, node: &str, stats: &Arc<FaultStats>) -> Option<NodeInjector> {
        let kinds: Vec<FaultKind> =
            self.specs.iter().filter(|s| s.node == node).map(|s| s.kind.clone()).collect();
        if kinds.is_empty() {
            return None;
        }
        Some(NodeInjector {
            kinds,
            batches: 0,
            stats: stats.clone(),
            poison_target: self.poison_target.clone(),
        })
    }

    /// The shared lock [`FaultKind::PoisonLock`] poisons; callers that
    /// want to *observe* the poisoning (tests) can probe it here.
    pub fn poison_target(&self) -> &Arc<Mutex<u64>> {
        &self.poison_target
    }
}

/// Containment accounting, registered as GS_STATS node `faults`.
#[derive(Debug, Default)]
pub struct FaultStats {
    /// Faults the injector actually fired (a plan entry whose batch
    /// never arrives stays at zero).
    pub fault_injected: Counter,
    /// Panics caught at a containment boundary — injected or organic.
    pub faults_contained: Counter,
    /// Queries marked `Failed` in the run's health report.
    pub queries_failed: Counter,
}

impl StatSource for FaultStats {
    fn counters(&self) -> Vec<(&'static str, u64)> {
        vec![
            ("fault_injected", self.fault_injected.get()),
            ("faults_contained", self.faults_contained.get()),
            ("queries_failed", self.queries_failed.get()),
        ]
    }
}

/// The armed per-node fault state: counts consumed batches and acts
/// when a targeted batch arrives. One injector per node instance, owned
/// by whatever thread runs the node — no synchronization on the batch
/// path beyond the (untouched in the common case) counter.
pub struct NodeInjector {
    kinds: Vec<FaultKind>,
    batches: u64,
    stats: Arc<FaultStats>,
    poison_target: Arc<Mutex<u64>>,
}

impl NodeInjector {
    /// Account one consumed batch and run any fault due at it. May
    /// truncate `batch` (corruption), sleep (slow consumer), poison the
    /// plan's shared lock, or panic (the injected operator bug) —
    /// callers invoke this *inside* their containment boundary.
    pub fn on_batch(&mut self, batch: &mut ColumnBatch) {
        self.batches += 1;
        let n = self.batches;
        // Indexed loop: the panic arm must not hold a borrow of `self`
        // while unwinding through the counter bump.
        for i in 0..self.kinds.len() {
            match self.kinds[i] {
                FaultKind::PanicOnBatch { at_batch } if at_batch == n => {
                    self.stats.fault_injected.inc();
                    panic!("injected fault: panic at batch {n}");
                }
                FaultKind::PoisonLock { at_batch } if at_batch == n => {
                    self.stats.fault_injected.inc();
                    poison(&self.poison_target);
                }
                FaultKind::SlowConsumer { at_batch, delay_ms } if n >= at_batch => {
                    if n == at_batch {
                        self.stats.fault_injected.inc();
                    }
                    std::thread::sleep(std::time::Duration::from_millis(delay_ms));
                }
                FaultKind::CorruptTuple { at_batch, keep_cols } if at_batch == n => {
                    self.stats.fault_injected.inc();
                    batch.truncate_cols(keep_cols);
                }
                _ => {}
            }
        }
    }
}

// ---------------------------------------------------------------------
// Disk faults: the durable checkpoint store's injection surface.
// ---------------------------------------------------------------------

/// One step of the durable store's commit protocol: every epoch
/// boundary appends one record to the log (`LogAppend`) and fsyncs it
/// (`LogFsync`). Faults target a `(boundary, step)` coordinate, so a plan
/// names the exact interleaving point a process death interrupts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DiskOp {
    /// Append one record to the log.
    LogAppend,
    /// Fsync the log.
    LogFsync,
}

/// How a targeted disk operation misbehaves.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DiskFaultKind {
    /// The process dies *before* the step runs. An un-fsynced append is
    /// lost the way a machine crash would lose it: `CrashBefore(LogFsync)`
    /// tears the just-appended record mid-byte.
    CrashBefore(DiskOp),
    /// The step completes, then the process dies — the "lucky" crash
    /// where the unsynced data happened to reach the platter.
    CrashAfter(DiskOp),
    /// A short write: only `keep` bytes of the record land, then the
    /// process dies. Meaningful for [`DiskOp::LogAppend`].
    ShortWrite {
        /// Payload bytes that make it to disk before the crash.
        keep: usize,
    },
    /// The step fails with `ENOSPC` — no crash, the process keeps
    /// running (the dead-letter path); on [`DiskOp::LogAppend`], half the
    /// record lands first, as on a really full disk. Fires on every
    /// matching step from the spec's boundary on, up to `times` failures
    /// total.
    Enospc {
        /// How many times the error fires before the disk "recovers".
        times: u32,
    },
}

/// One injected disk fault: at which epoch boundary (1-based,
/// counted by [`begin_boundary`](crate::durable::DiskIo::begin_boundary))
/// and at which protocol step. Crash kinds match their boundary exactly;
/// [`DiskFaultKind::Enospc`] matches every boundary from `at_boundary` on
/// while it has failures left.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DiskFaultSpec {
    /// 1-based epoch boundary the fault arms at.
    pub at_boundary: u64,
    /// Protocol step the fault targets.
    pub op: DiskOp,
    /// The misbehavior.
    pub kind: DiskFaultKind,
}

/// A deterministic disk-fault campaign for the durable store. Like
/// [`FaultPlan`], a plan is data: the same plan replays the same
/// failure on any machine.
#[derive(Debug, Clone, Default)]
pub struct DiskFaultPlan {
    /// The injected faults, in declaration order.
    pub specs: Vec<DiskFaultSpec>,
}

impl DiskFaultPlan {
    /// An empty plan (healthy disk).
    pub fn new() -> DiskFaultPlan {
        DiskFaultPlan::default()
    }

    /// Add a fault; builder-style.
    pub fn with(mut self, at_boundary: u64, op: DiskOp, kind: DiskFaultKind) -> DiskFaultPlan {
        self.specs.push(DiskFaultSpec { at_boundary, op, kind });
        self
    }

    /// Crash the process just before `op` at boundary `n`.
    pub fn crash_before(self, n: u64, op: DiskOp) -> DiskFaultPlan {
        self.with(n, op, DiskFaultKind::CrashBefore(op))
    }

    /// Crash the process just after `op` at boundary `n`.
    pub fn crash_after(self, n: u64, op: DiskOp) -> DiskFaultPlan {
        self.with(n, op, DiskFaultKind::CrashAfter(op))
    }

    /// Fail `op` with ENOSPC `times` times starting at boundary `n`.
    pub fn enospc(self, n: u64, op: DiskOp, times: u32) -> DiskFaultPlan {
        self.with(n, op, DiskFaultKind::Enospc { times })
    }

    /// Whether any spec is a crash (latching) fault — the session
    /// drivers use this to decide between restart-and-recover and
    /// keep-running expectations.
    pub fn has_crash(&self) -> bool {
        self.specs.iter().any(|s| {
            matches!(
                s.kind,
                DiskFaultKind::CrashBefore(_)
                    | DiskFaultKind::CrashAfter(_)
                    | DiskFaultKind::ShortWrite { .. }
            )
        })
    }
}

/// The error every disk operation returns once a simulated crash has
/// latched (and the error crash faults surface at the faulted call).
pub fn crash_error() -> std::io::Error {
    std::io::Error::other("simulated crash: process died")
}

/// Whether `e` is the simulated-crash error (as opposed to a retryable
/// transient like the injected ENOSPC).
pub fn is_crash_error(e: &std::io::Error) -> bool {
    e.to_string().contains("simulated crash")
}

/// The injected ENOSPC error.
pub fn enospc_error() -> std::io::Error {
    std::io::Error::other("injected ENOSPC: no space left on device")
}

/// Really poison `m`: a scoped thread takes the lock and panics while
/// holding it. The panic is the helper's own (caught at its join), so
/// the calling thread keeps running with the mutex now poisoned.
fn poison(m: &Arc<Mutex<u64>>) {
    let m = m.clone();
    let _ = std::thread::spawn(move || {
        let _guard = m.lock().unwrap_or_else(PoisonError::into_inner);
        panic!("injected fault: poisoning lock");
    })
    .join();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tuple::Tuple;
    use crate::value::Value;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    fn batch(n: usize) -> ColumnBatch {
        let rows: Vec<Tuple> =
            (0..n).map(|i| Tuple::new(vec![Value::UInt(i as u64), Value::UInt(7)])).collect();
        ColumnBatch::from_tuples(&rows)
    }

    #[test]
    fn panic_fires_on_exactly_the_nth_batch() {
        let plan = FaultPlan::new().panic_at("q", 3);
        let stats = Arc::new(FaultStats::default());
        let mut inj = plan.armed("q", &stats).unwrap();
        assert!(plan.armed("other", &stats).is_none(), "untargeted nodes stay uninstrumented");
        let mut b = batch(2);
        inj.on_batch(&mut b);
        inj.on_batch(&mut b);
        assert_eq!(stats.fault_injected.get(), 0, "nothing fired before batch 3");
        let err = catch_unwind(AssertUnwindSafe(|| inj.on_batch(&mut b)));
        assert!(err.is_err(), "the injected panic is a real panic");
        assert_eq!(stats.fault_injected.get(), 1);
    }

    #[test]
    fn corruption_truncates_tuples_in_place() {
        let plan = FaultPlan::new().with("q", FaultKind::CorruptTuple { at_batch: 1, keep_cols: 1 });
        let stats = Arc::new(FaultStats::default());
        let mut inj = plan.armed("q", &stats).unwrap();
        let mut b = batch(3);
        inj.on_batch(&mut b);
        assert_eq!((b.n_cols(), b.n_rows()), (1, 3), "one column survives on every row");
        assert_eq!(stats.fault_injected.get(), 1);
        // Later batches pass through untouched.
        let mut b2 = batch(2);
        inj.on_batch(&mut b2);
        assert_eq!(b2.n_cols(), 2);
    }

    #[test]
    fn poison_lock_really_poisons_and_tolerant_callers_survive() {
        let plan = FaultPlan::new().with("q", FaultKind::PoisonLock { at_batch: 1 });
        let stats = Arc::new(FaultStats::default());
        let mut inj = plan.armed("q", &stats).unwrap();
        inj.on_batch(&mut batch(1));
        assert!(plan.poison_target().lock().is_err(), "the mutex is genuinely poisoned");
        // Poison-tolerant access keeps working — the satellite invariant.
        let v = *plan.poison_target().lock().unwrap_or_else(PoisonError::into_inner);
        assert_eq!(v, 0);
    }

    #[test]
    fn seeded_plans_are_deterministic_and_on_menu() {
        let nodes = ["a", "b", "c"];
        let p1 = FaultPlan::seeded(42, &nodes);
        let p2 = FaultPlan::seeded(42, &nodes);
        assert_eq!(p1.specs, p2.specs, "same seed, same plan");
        assert_eq!(p1.specs.len(), 1);
        assert!(nodes.contains(&p1.specs[0].node.as_str()));
        let mut distinct = std::collections::HashSet::new();
        for seed in 0..64u64 {
            let p = FaultPlan::seeded(seed, &nodes);
            distinct.insert(format!("{:?}", p.specs));
        }
        assert!(distinct.len() > 8, "seeds explore the fault space");
        assert!(FaultPlan::seeded(1, &[]).specs.is_empty(), "no nodes, no faults");
    }
}
