//! The daemon's lifecycle supervisor: the missing half of fault
//! isolation.
//!
//! The one-shot engine quarantines a faulted query for the remainder of
//! the run (its siblings keep their outputs) but never brings it back.
//! The daemon runs forever, so the supervisor closes the loop: after
//! every epoch it reads the run's [`RunHealth`], charges *root-cause*
//! failures against the query's restart budget, parks the query in
//! exponential backoff (excluded from the next epochs' steps), and
//! reprovisions it when the backoff expires: catch-up replays it with
//! its upstream closure from its last cut, emitting the epochs it owes.
//! A query failing past its budget goes `Dead` and stays excluded
//! until a client UNREGISTERs and re-REGISTERs it.
//!
//! Collateral failures (`Upstream` faults whose origin is a *different*
//! query) are not charged: the downstream query did nothing wrong, so
//! it gets no backoff of its own and catches up from its cut the next
//! epoch — unless its upstream is in backoff: the daemon excludes every
//! query downstream of one in backoff, which then replays with it.
//!
//! Restart counts surface in GS_STATS under a `daemon:restart:<query>`
//! node so the paper's "Gigascope monitors itself" loop covers the
//! supervisor too.

use crate::health::{query_of, FaultReason, RunHealth};
use crate::server::wire::{HealthRow, LifeState};
use gs_runtime::stats::{Counter, StatSource, StatsRegistry};
use std::collections::HashMap;
use std::sync::Arc;

/// Per-query restart counters, registered as `daemon:restart:<query>`.
#[derive(Debug, Default)]
pub struct RestartStats {
    /// Automatic reprovisions performed (one per charged failure that
    /// stayed within budget).
    pub restarts: Counter,
    /// 1 once the query exceeded its budget and went `Dead`.
    pub dead: Counter,
}

impl StatSource for RestartStats {
    fn counters(&self) -> Vec<(&'static str, u64)> {
        vec![("restarts", self.restarts.get()), ("dead", self.dead.get())]
    }
}

/// Lifecycle state of one tracked query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum QState {
    /// Included in every epoch's build.
    Running,
    /// Quarantined until the given epoch id starts.
    Backoff { until: u64 },
    /// Restart budget exhausted; excluded until re-registered.
    Dead,
}

struct Entry {
    state: QState,
    restarts: u64,
    reason: String,
    stats: Arc<RestartStats>,
}

/// Tracks every registered query's lifecycle across epochs.
pub struct Supervisor {
    entries: HashMap<String, Entry>,
    /// Maximum automatic restarts per query; the failure after the
    /// budget's last restart makes the query `Dead`.
    budget: u64,
    /// Backoff after the n-th charged failure is
    /// `backoff_base << (n-1)` epochs (capped), so a flapping query
    /// consumes geometrically less of the daemon's attention.
    backoff_base: u64,
    registry: Arc<StatsRegistry>,
}

impl Supervisor {
    /// Supervisor with the given restart budget and base backoff
    /// (in epochs), publishing restart counters into `registry`.
    pub fn new(budget: u64, backoff_base: u64, registry: Arc<StatsRegistry>) -> Supervisor {
        Supervisor { entries: HashMap::new(), budget, backoff_base, registry }
    }

    /// Start tracking a freshly registered query (idempotent).
    pub fn track(&mut self, query: &str) {
        if self.entries.contains_key(query) {
            return;
        }
        let stats = Arc::new(RestartStats::default());
        self.registry.register(format!("daemon:restart:{query}"), stats.clone());
        self.entries.insert(
            query.to_string(),
            Entry { state: QState::Running, restarts: 0, reason: String::new(), stats },
        );
    }

    /// Stop tracking an unregistered query and drop its stats node.
    pub fn untrack(&mut self, query: &str) {
        if self.entries.remove(query).is_some() {
            self.registry.unregister(&format!("daemon:restart:{query}"));
        }
    }

    /// Queries to leave out of the build for epoch `epoch`, waking any
    /// whose backoff has expired first. Sorted for determinism.
    pub fn excluded(&mut self, epoch: u64) -> Vec<String> {
        let mut out = Vec::new();
        for (name, e) in self.entries.iter_mut() {
            if let QState::Backoff { until } = e.state {
                if epoch >= until {
                    e.state = QState::Running;
                }
            }
            if e.state != QState::Running {
                out.push(name.clone());
            }
        }
        out.sort();
        out
    }

    /// Digest one completed epoch's health report. Root-cause failures
    /// (a panic, a stall, or an upstream fault originating inside the
    /// same query) charge the budget; collateral upstream failures are
    /// reprovisioned for free.
    pub fn observe(&mut self, epoch: u64, health: &RunHealth) {
        for (query, reason) in health.failures() {
            let charged = match reason {
                FaultReason::Panic(_) | FaultReason::Stalled => true,
                FaultReason::Upstream(origin) => query_of(origin) == query,
            };
            let Some(e) = self.entries.get_mut(query) else { continue };
            if e.state == QState::Dead {
                continue;
            }
            e.reason = match reason {
                FaultReason::Panic(msg) => format!("panic: {msg}"),
                FaultReason::Stalled => "stalled".to_string(),
                FaultReason::Upstream(origin) => format!("upstream: {origin}"),
            };
            if !charged {
                continue;
            }
            if e.restarts >= self.budget {
                e.state = QState::Dead;
                e.stats.dead.set(1);
            } else {
                e.restarts += 1;
                e.stats.restarts.set(e.restarts);
                // `backoff_base` is whatever `gsqd --backoff` was given:
                // saturate, so a huge base parks the query forever
                // instead of shifting bits out into a near-zero backoff.
                let shift = (e.restarts - 1).min(16) as u32;
                let backoff = self.backoff_base.saturating_mul(1 << shift);
                let until = epoch.saturating_add(1).saturating_add(backoff);
                e.state = QState::Backoff { until };
            }
        }
    }

    /// Queries whose restart budget is exhausted (`Dead`), sorted. The
    /// carry layer reaps their checkpoints: a Dead query never runs
    /// again until re-registered, and a re-registration is a fresh life
    /// that must start from empty windows.
    pub fn dead(&self) -> Vec<String> {
        let mut out: Vec<String> = self
            .entries
            .iter()
            .filter(|(_, e)| e.state == QState::Dead)
            .map(|(name, _)| name.clone())
            .collect();
        out.sort();
        out
    }

    /// Wire-format health rows, sorted by query name.
    pub fn rows(&self) -> Vec<HealthRow> {
        let mut rows: Vec<HealthRow> = self
            .entries
            .iter()
            .map(|(name, e)| HealthRow {
                query: name.clone(),
                state: match e.state {
                    QState::Running => LifeState::Running,
                    QState::Backoff { .. } => LifeState::Backoff,
                    QState::Dead => LifeState::Dead,
                },
                restarts: e.restarts,
                reason: e.reason.clone(),
            })
            .collect();
        rows.sort_by(|a, b| a.query.cmp(&b.query));
        rows
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn health(failures: &[(&str, FaultReason)]) -> RunHealth {
        RunHealth::from_failures(failures.iter().map(|(q, r)| (q.to_string(), r.clone())))
    }

    #[test]
    fn panic_charges_budget_and_backs_off_exponentially() {
        let reg = Arc::new(StatsRegistry::new());
        let mut sup = Supervisor::new(3, 2, reg.clone());
        sup.track("q");
        assert!(sup.excluded(0).is_empty());

        sup.observe(0, &health(&[("q", FaultReason::Panic("boom".into()))]));
        // Backoff of 2 epochs starting after epoch 0: excluded for 1, 2.
        assert_eq!(sup.excluded(1), vec!["q"]);
        assert_eq!(sup.excluded(2), vec!["q"]);
        assert!(sup.excluded(3).is_empty(), "backoff expired, reprovisioned");
        assert_eq!(reg.value("daemon:restart:q", "restarts"), Some(1));

        sup.observe(3, &health(&[("q", FaultReason::Panic("boom".into()))]));
        // Second failure doubles the backoff: excluded for 4..=7.
        assert_eq!(sup.excluded(7), vec!["q"]);
        assert!(sup.excluded(8).is_empty());
        assert_eq!(sup.rows()[0].restarts, 2);
    }

    /// Regression: the backoff was computed with plain `<<` and `+`, so
    /// a huge `--backoff` wrapped to a tiny one in release builds and
    /// overflowed the add (killing the engine thread) in debug builds.
    #[test]
    fn huge_backoff_base_saturates_instead_of_wrapping() {
        let mut sup = Supervisor::new(3, u64::MAX, Arc::new(StatsRegistry::new()));
        sup.track("q");
        for epoch in [0, 5] {
            sup.observe(epoch, &health(&[("q", FaultReason::Panic("boom".into()))]));
            assert_eq!(sup.excluded(epoch + 1), vec!["q"]);
            assert_eq!(sup.excluded(u64::MAX - 1), vec!["q"], "parked forever");
        }
        assert_eq!(sup.rows()[0].restarts, 2);
    }

    #[test]
    fn budget_exhaustion_goes_dead_and_stays_dead() {
        let reg = Arc::new(StatsRegistry::new());
        let mut sup = Supervisor::new(1, 1, reg.clone());
        sup.track("q");
        sup.observe(0, &health(&[("q", FaultReason::Panic("1".into()))]));
        assert!(sup.excluded(100).is_empty(), "one restart within budget");
        sup.observe(100, &health(&[("q", FaultReason::Panic("2".into()))]));
        assert_eq!(sup.excluded(1_000_000), vec!["q"], "dead is forever");
        assert_eq!(sup.rows()[0].state, LifeState::Dead);
        assert_eq!(reg.value("daemon:restart:q", "dead"), Some(1));
        // Re-registration after UNREGISTER starts a fresh life.
        sup.untrack("q");
        assert_eq!(reg.value("daemon:restart:q", "restarts"), None, "stats node removed");
        sup.track("q");
        assert!(sup.excluded(0).is_empty());
        assert_eq!(sup.rows()[0].restarts, 0);
    }

    #[test]
    fn collateral_upstream_failures_are_free() {
        let reg = Arc::new(StatsRegistry::new());
        let mut sup = Supervisor::new(1, 1, reg.clone());
        sup.track("down");
        sup.track("up");
        sup.observe(
            0,
            &health(&[
                ("up", FaultReason::Panic("boom".into())),
                ("down", FaultReason::Upstream("up#2".into())),
            ]),
        );
        assert_eq!(sup.excluded(1), vec!["up"], "only the root cause sits out");
        let rows = sup.rows();
        assert_eq!(rows[0].restarts, 0, "collateral failure not charged");
        assert!(rows[0].reason.starts_with("upstream:"), "but the reason is visible");
        // A query whose *own* shard faulted is a root cause.
        sup.observe(5, &health(&[("down", FaultReason::Upstream("down__lfta0".into()))]));
        assert_eq!(sup.rows()[0].restarts, 1);
    }
}
