//! Gigascope: a stream database for network applications.
//!
//! A from-scratch Rust reproduction of *Gigascope: A Stream Database for
//! Network Applications* (Cranor, Johnson, Spatscheck, Shkapenyuk —
//! SIGMOD 2003). Queries are written in GSQL, a pure stream restriction of
//! SQL; the compiler splits each query into low-level LFTAs that run at
//! the capture point (with BPF prefilters and snap lengths pushed toward
//! the NIC) and high-level HFTAs that run as ordinary stream operators,
//! and the whole plan streams without sliding windows by exploiting the
//! *ordering properties* of timestamp-like attributes.
//!
//! # Quickstart
//!
//! ```
//! use gigascope::Gigascope;
//! use gs_packet::capture::LinkType;
//! use gs_netgen::{MixConfig, PacketMix};
//!
//! let mut gs = Gigascope::new();
//! gs.add_interface("eth0", 0, LinkType::Ethernet);
//! gs.add_program(
//!     "DEFINE { query_name tcpdest; }
//!      Select destIP, destPort, time From eth0.tcp
//!      Where IPVersion = 4 and Protocol = 6",
//! ).unwrap();
//!
//! let traffic = PacketMix::new(MixConfig { duration_ms: 50, ..MixConfig::default() });
//! let out = gs.run_capture(traffic, &["tcpdest"]).unwrap();
//! assert!(!out.stream("tcpdest").is_empty());
//! ```

#![warn(missing_docs)]

mod dataflow;
pub mod engine;
mod graph;
pub mod health;
pub mod manager;
pub mod server;
pub mod transport;
pub mod watchdog;

pub use engine::{EngineStats, RunOutput};
pub use gs_gsql::split::DeployedQuery;
pub use gs_runtime::faults::{FaultKind, FaultPlan, FaultSpec};
pub use gs_runtime::qos::DropPolicy;
pub use gs_runtime::stats::StatRow;
pub use gs_runtime::{ParamBindings, StreamItem, Tuple, Value};
pub use health::{FaultReason, NodeFault, QueryHealth, RunHealth};
pub use watchdog::WatchdogConfig;

use gs_gsql::catalog::{Catalog, InterfaceDef, UdfCost, UdfSig};
use gs_gsql::plan::Schema;
use gs_gsql::split::split_query;
use gs_packet::capture::LinkType;
use gs_packet::CapPacket;
use gs_runtime::punct::HeartbeatMode;
use gs_runtime::udf::{FileStore, UdfFactory, UdfRegistry};
use std::collections::HashMap;
use std::fmt;

/// Anything that can go wrong building or running queries.
#[derive(Debug)]
pub enum Error {
    /// GSQL front-end failure (lex/parse/analyze/plan).
    Gsql(gs_gsql::GsqlError),
    /// Instantiation or execution failure.
    Runtime(gs_runtime::RuntimeError),
    /// API misuse (duplicate names, unknown queries...).
    Config(String),
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Gsql(e) => write!(f, "{e}"),
            Error::Runtime(e) => write!(f, "{e}"),
            Error::Config(m) => write!(f, "configuration error: {m}"),
        }
    }
}

impl std::error::Error for Error {}

impl From<gs_gsql::GsqlError> for Error {
    fn from(e: gs_gsql::GsqlError) -> Error {
        Error::Gsql(e)
    }
}

impl From<gs_runtime::RuntimeError> for Error {
    fn from(e: gs_runtime::RuntimeError) -> Error {
        Error::Runtime(e)
    }
}

/// Metadata about one registered query.
#[derive(Debug, Clone)]
pub struct QueryInfo {
    /// Registered name.
    pub name: String,
    /// Output schema.
    pub schema: Schema,
    /// Number of LFTAs the splitter produced.
    pub lftas: usize,
    /// Whether an HFTA part exists.
    pub has_hfta: bool,
    /// Analyzer warnings (e.g. aggregation without an ordered key).
    pub warnings: Vec<String>,
    /// Whether the parser hoisted this query out of a FROM clause
    /// (subquery plumbing rather than a user-named query).
    pub hoisted: bool,
}

/// Overload-shedding configuration for the threaded manager's bounded
/// per-edge queues (paper §4: "highly processed tuples ... are more
/// valuable than less-processed tuples").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShedConfig {
    /// What to drop when a consumer's queue is full.
    pub policy: DropPolicy,
    /// Queue capacity in messages (batches), per consumer.
    pub capacity: usize,
}

impl Default for ShedConfig {
    fn default() -> ShedConfig {
        ShedConfig {
            policy: DropPolicy::LeastProcessedFirst,
            capacity: manager::CHANNEL_CAPACITY,
        }
    }
}

/// The Gigascope system: catalog, function registry, and the set of
/// deployed queries. Build one, register interfaces and queries, then
/// [`run_capture`](Gigascope::run_capture) over a packet source.
pub struct Gigascope {
    catalog: Catalog,
    registry: UdfRegistry,
    resolver: FileStore,
    deployed: Vec<DeployedQuery>,
    params: HashMap<String, ParamBindings>,
    /// Heartbeat (ordering-update token) policy for LFTAs.
    pub heartbeat: HeartbeatMode,
    /// Direct-mapped LFTA pre-aggregation table size, in slots.
    pub lfta_table_size: usize,
    /// Transport batch size, under either scheduler: rows per columnar
    /// batch on the LFTA→HFTA and HFTA→HFTA ready-queues. Batches flush
    /// early on punctuation (so ordering tokens are never delayed) and at
    /// stream close. At `1` every tuple crosses as a one-row batch — one
    /// queue message per item, in item order.
    pub batch_size: usize,
    /// Overload policy for the threaded manager's ready-queues. `None`
    /// (the default) blocks producers when a queue fills — lossless
    /// backpressure. `Some(cfg)` never blocks the capture loop: the
    /// configured [`DropPolicy`] sheds instead, with every drop counted
    /// in the `queue:*` stats.
    pub shedding: Option<ShedConfig>,
    /// Whether to publish per-operator counters and emit the built-in
    /// `GS_STATS` stream during runs (default on; the hot-path counters
    /// themselves are always maintained).
    pub stats_enabled: bool,
    /// Partition-parallel degree for eligible aggregation HFTAs. At `1`
    /// (the default) deployment is exactly today's single-instance plans.
    /// At `K ≥ 2`, each group-by HFTA whose §2.1 ordering properties
    /// permit it is rewritten into K shards fed by a hash-of-group-key
    /// router plus an order-preserving merge reunifying the shard
    /// outputs on the temporal attribute; ineligible HFTAs deploy
    /// unchanged. Applies to both the threaded manager and the
    /// synchronous engine: they run the same graph.
    pub parallelism: usize,
    /// Liveness supervision for the threaded manager. `None` (the
    /// default) spawns no supervisor and leaves behavior exactly as
    /// before; `Some(cfg)` starts a watchdog that force-closes queues
    /// making no progress over the configured interval and reports the
    /// owning query `Failed{Stalled}` in the run's [`RunHealth`].
    pub watchdog: Option<WatchdogConfig>,
    /// Deterministic fault-injection campaign. `None` (the default)
    /// arms nothing and costs nothing on the batch path; `Some(plan)`
    /// injects the plan's faults into the targeted nodes in both
    /// engines and surfaces containment in the `faults` stats node.
    pub faults: Option<FaultPlan>,
}

impl Default for Gigascope {
    fn default() -> Self {
        Gigascope::new()
    }
}

impl Gigascope {
    /// A system with the built-in protocols and function library, no
    /// interfaces, and periodic 1-second heartbeats.
    pub fn new() -> Gigascope {
        Gigascope {
            catalog: Catalog::with_builtins(),
            registry: UdfRegistry::with_builtins(),
            resolver: FileStore::new(),
            deployed: Vec::new(),
            params: HashMap::new(),
            heartbeat: HeartbeatMode::Periodic { interval: 1 },
            lfta_table_size: 4096,
            batch_size: 256,
            shedding: None,
            stats_enabled: true,
            parallelism: 1,
            watchdog: None,
            faults: None,
        }
    }

    /// Register an interface binding a symbolic name to a packet source.
    /// The first interface registered becomes the default.
    pub fn add_interface(&mut self, name: &str, id: u16, link: LinkType) {
        self.catalog.add_interface(InterfaceDef { name: name.to_string(), id, link });
    }

    /// Register an in-memory file for pass-by-handle parameters (prefix
    /// tables etc.). Unregistered names fall back to the filesystem.
    pub fn add_file(&mut self, name: &str, contents: impl Into<Vec<u8>>) {
        self.resolver.insert(name, contents);
    }

    /// Register a user-defined function: prototype in the catalog plus the
    /// implementation factory ("adding the code for the function to the
    /// function library, and registering the function prototype in the
    /// function registry", §2.2).
    pub fn add_udf(&mut self, sig: UdfSig, factory: UdfFactory) {
        self.registry.register(sig.name.clone(), factory);
        self.catalog.add_udf(sig);
    }

    /// Mark a UDF's cost class (affects LFTA/HFTA placement).
    pub fn set_udf_cost(&mut self, name: &str, cost: UdfCost) -> Result<(), Error> {
        let mut sig = self
            .catalog
            .udf(name)
            .cloned()
            .ok_or_else(|| Error::Config(format!("unknown function `{name}`")))?;
        sig.cost = cost;
        self.catalog.add_udf(sig);
        Ok(())
    }

    /// Parse, analyze, split, and register every query in `gsql`.
    /// Later queries (and later programs) may read earlier ones by name.
    ///
    /// Registration is atomic per program: GSQL that references an
    /// undefined interface or stream, or re-defines a query name (within
    /// the program or against an earlier program), is rejected with
    /// `Err` and leaves the system exactly as it was — no query of a
    /// failed program is partially registered.
    pub fn add_program(&mut self, gsql: &str) -> Result<Vec<QueryInfo>, Error> {
        let program = gs_gsql::parse_program_full(gsql)?;
        // Validate every query against a staging catalog; commit only
        // if the whole program is well-formed.
        let mut staged = self.catalog.clone();
        for d in &program.interfaces {
            staged.add_interface(InterfaceDef { name: d.name.clone(), id: d.id, link: d.link });
        }
        let queries = program.queries;
        let mut infos = Vec::with_capacity(queries.len());
        let mut deployed = Vec::with_capacity(queries.len());
        for q in &queries {
            let aq = gs_gsql::analyze(q, &staged)?;
            if staged.stream(&aq.name).is_some() {
                return Err(Error::Config(format!("query `{}` is already registered", aq.name)));
            }
            let dq = split_query(&aq, &staged)?;
            // Register the LFTA streams and the query's own stream so
            // downstream queries can subscribe by name.
            for l in &dq.lftas {
                if l.name != dq.name {
                    staged.add_stream(&l.name, l.plan.schema().clone());
                }
            }
            staged.add_stream(&dq.name, dq.schema.clone());
            let mut warnings = aq.warnings.clone();
            if aq.sample.is_some() && dq.lftas.is_empty() {
                warnings.push(
                    concat!(
                        "DEFINE sample applies at the capture point, but this query ",
                        "reads only streams: no packets are sampled (set sample on ",
                        "the query that scans the interface)",
                    )
                    .to_string(),
                );
            }
            infos.push(QueryInfo {
                name: dq.name.clone(),
                schema: dq.schema.clone(),
                lftas: dq.lftas.len(),
                has_hfta: dq.hfta.is_some(),
                warnings,
                hoisted: q.is_hoisted(),
            });
            deployed.push(dq);
        }
        self.catalog = staged;
        self.deployed.extend(deployed);
        Ok(infos)
    }

    /// Unregister a deployed query and its streams. Fails if any other
    /// deployed query subscribes to one of its streams (remove dependents
    /// first). The shared prefilter's atom table and dispatch groups are rebuilt
    /// from the surviving query set at the start of the next run.
    pub fn remove_program(&mut self, query: &str) -> Result<(), Error> {
        let idx = self
            .deployed
            .iter()
            .position(|d| d.name == query)
            .ok_or_else(|| Error::Config(format!("unknown query `{query}`")))?;
        // Streams this query publishes: its own name plus intermediate
        // LFTA streams.
        let mut published: Vec<&str> = vec![&self.deployed[idx].name];
        for l in &self.deployed[idx].lftas {
            if l.name != self.deployed[idx].name {
                published.push(&l.name);
            }
        }
        for (i, other) in self.deployed.iter().enumerate() {
            if i == idx {
                continue;
            }
            if let Some(h) = &other.hfta {
                for up in h.upstream_streams() {
                    if published.contains(&up.as_str()) {
                        return Err(Error::Config(format!(
                            "cannot remove `{query}`: query `{}` reads its stream `{up}`",
                            other.name
                        )));
                    }
                }
            }
        }
        let published: Vec<String> = published.into_iter().map(String::from).collect();
        for name in &published {
            self.catalog.remove_stream(name);
        }
        self.params.remove(query);
        self.deployed.remove(idx);
        Ok(())
    }

    /// Bind query parameters for the next run ("specified at query
    /// instantiation time and ... changed on-the-fly", §3). Parameters are
    /// rebound by calling this again between runs.
    pub fn set_params(&mut self, query: &str, params: ParamBindings) -> Result<(), Error> {
        if !self.deployed.iter().any(|d| d.name == query) {
            return Err(Error::Config(format!("unknown query `{query}`")));
        }
        self.params.insert(query.to_string(), params);
        Ok(())
    }

    /// The deployed queries, in submission order.
    pub fn queries(&self) -> &[DeployedQuery] {
        &self.deployed
    }

    /// The catalog (for inspection).
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// Output schema of a registered stream.
    pub fn schema(&self, stream: &str) -> Option<&Schema> {
        self.catalog.stream(stream)
    }

    /// Render the deployed plan of one query (LFTA/HFTA split, pushed-down
    /// BPF prefilter, snap length, operators) — what the paper's optimizer
    /// decided.
    pub fn explain(&self, query: &str) -> Option<String> {
        self.deployed
            .iter()
            .find(|d| d.name == query)
            .map(gs_gsql::explain::explain)
    }

    /// Render the deployed plans of every registered query.
    pub fn explain_all(&self) -> String {
        self.deployed.iter().map(gs_gsql::explain::explain).collect::<Vec<_>>().join("\n")
    }

    /// Render the shared cross-query prefilter plan: the deduplicated
    /// atom table and each LFTA's required atoms.
    /// `None` when no LFTAs are deployed.
    pub fn explain_prefilter(&self) -> Result<Option<String>, Error> {
        let lftas = graph::build(self, &[], &mut graph::LiveOps::default(), None, &[])?.lftas;
        Ok(graph::describe_prefilter(lftas, &self.catalog))
    }

    /// Run all deployed queries over a time-ordered capture stream,
    /// collecting the named `subscriptions`. Packets must carry interface
    /// ids matching the registered interfaces.
    pub fn run_capture<I>(&self, packets: I, subscriptions: &[&str]) -> Result<RunOutput, Error>
    where
        I: Iterator<Item = CapPacket>,
    {
        Ok(engine::Engine::build(self, subscriptions)?.run(packets))
    }

    pub(crate) fn params_for(&self, query: &str) -> ParamBindings {
        self.params.get(query).cloned().unwrap_or_default()
    }

    pub(crate) fn registry(&self) -> &UdfRegistry {
        &self.registry
    }

    pub(crate) fn resolver(&self) -> &FileStore {
        &self.resolver
    }

    /// The partition-parallel rewrite for one deployed query, when
    /// `parallelism ≥ 2` and the HFTA is eligible. The built-in
    /// `GS_STATS` stream is produced out of band by the schedulers
    /// themselves, so aggregates over it stay on the single-instance
    /// path.
    pub(crate) fn parallel_rewrite(
        &self,
        dq: &DeployedQuery,
    ) -> Option<gs_gsql::parallel::PartitionedHfta> {
        if self.parallelism < 2 {
            return None;
        }
        let hfta = dq.hfta.as_ref()?;
        let part = gs_gsql::parallel::partition_hfta(&dq.name, hfta, self.parallelism)?;
        if part.input == "GS_STATS" {
            return None;
        }
        Some(part)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn duplicate_query_names_rejected() {
        let mut gs = Gigascope::new();
        gs.add_interface("eth0", 0, LinkType::Ethernet);
        gs.add_program("DEFINE { query_name q; } Select time From eth0.tcp").unwrap();
        let err = gs
            .add_program("DEFINE { query_name q; } Select time From eth0.tcp")
            .unwrap_err();
        assert!(matches!(err, Error::Config(_)));
    }

    #[test]
    fn undefined_interface_rejected_without_panic() {
        let mut gs = Gigascope::new();
        // No interfaces registered at all.
        let err = gs.add_program("DEFINE { query_name q; } Select time From eth9.tcp");
        assert!(err.is_err(), "undefined interface is an Err, not a panic");
        // And with one registered, referencing another still fails.
        gs.add_interface("eth0", 0, LinkType::Ethernet);
        assert!(gs.add_program("DEFINE { query_name q; } Select time From wan3.udp").is_err());
        assert!(gs.queries().is_empty(), "nothing was registered");
    }

    #[test]
    fn failed_program_registers_nothing() {
        let mut gs = Gigascope::new();
        gs.add_interface("eth0", 0, LinkType::Ethernet);
        // Second query re-defines the first's name: the whole program
        // must be rejected atomically.
        let err = gs.add_program(
            "DEFINE { query_name a; } Select time From eth0.tcp \
             DEFINE { query_name a; } Select time From eth0.udp",
        );
        assert!(err.is_err());
        assert!(gs.queries().is_empty(), "query `a` was not half-registered");
        assert!(gs.schema("a").is_none(), "its stream is not in the catalog");
        // The name is still available for a good program.
        gs.add_program("DEFINE { query_name a; } Select time From eth0.tcp").unwrap();
        assert_eq!(gs.queries().len(), 1);
    }

    #[test]
    fn set_params_requires_known_query() {
        let mut gs = Gigascope::new();
        assert!(gs.set_params("nope", ParamBindings::new()).is_err());
    }

    #[test]
    fn query_info_reports_split() {
        let mut gs = Gigascope::new();
        gs.add_interface("eth0", 0, LinkType::Ethernet);
        let infos = gs
            .add_program(
                "DEFINE { query_name simple; } Select time From eth0.tcp Where destPort = 80",
            )
            .unwrap();
        assert_eq!(infos[0].lftas, 1);
        assert!(!infos[0].has_hfta, "simple query runs entirely as an LFTA");
        let infos = gs
            .add_program(
                "DEFINE { query_name agg; } \
                 Select tb, count(*) From eth0.ip Group By time/60 as tb",
            )
            .unwrap();
        assert!(infos[0].has_hfta);
    }

    #[test]
    fn set_udf_cost_changes_placement() {
        let mut gs = Gigascope::new();
        gs.add_interface("eth0", 0, LinkType::Ethernet);
        gs.set_udf_cost("str_len", UdfCost::Expensive).unwrap();
        let infos = gs
            .add_program(
                "DEFINE { query_name q; } \
                 Select time From eth0.tcp Where str_len(payload) > 10",
            )
            .unwrap();
        assert!(infos[0].has_hfta, "expensive predicate forces an HFTA");
        assert!(gs.set_udf_cost("nosuch", UdfCost::Cheap).is_err());
    }
}
