//! The Gigascope execution runtime.
//!
//! Consumes logical plans from `gs-gsql` and executes them over packets
//! and tuple streams:
//!
//! - [`value`] / [`tuple`](mod@tuple): the runtime data representation;
//! - [`punct`]: ordering-update tokens (punctuation) that unblock
//!   multi-stream operators when one input runs dry (paper §3,
//!   "Unblocking Operators");
//! - [`batch`]: columnar (structure-of-arrays) batches with selection
//!   vectors — the hot-path representation between HFTA operators;
//! - [`expr`]: the expression compiler — GSQL's C/C++ code generation
//!   becomes flat register-machine programs evaluated without per-tuple
//!   allocation, plus vectorized kernels over columnar batches
//!   ([`expr::vector`]);
//! - [`udf`]: the function library — longest-prefix match over a loaded
//!   prefix table (`getlpmid`), a Thompson-NFA regular-expression engine
//!   (`str_match_regex`), and friends — with pass-by-handle parameter
//!   pre-processing at instantiation;
//! - [`ops`]: the stream operators: the LFTA executor (prefilter,
//!   protocol interpretation, selection/projection, direct-mapped
//!   pre-aggregation), exact HFTA aggregation with ordered flushing,
//!   the window join, the order-preserving merge, and the user-written
//!   IP-defragmentation node;
//! - [`qos`]: overload shedding policies (the paper's "highly processed
//!   tuples are more valuable" heuristic);
//! - [`faults`]: deterministic fault injection (seeded panics, poisoned
//!   locks, slow consumers, corrupt tuples) driving the engines'
//!   containment and quarantine machinery;
//! - [`snapshot`]: versioned, checksummed operator-state snapshots — the
//!   hand-rolled binary format checkpoint/restore is built on;
//! - [`durable`]: the durable checkpoint store — crash-consistent
//!   segment files plus an append-only emission log, with the recovery
//!   manager that resumes a killed daemon mid-window;
//! - [`stats`]: the self-monitoring counters every layer keeps and the
//!   registry that snapshots them (paper §4 — Gigascope monitors itself
//!   with ordinary streams);
//! - [`params`]: query-parameter bindings and handle registration.

#![warn(missing_docs)]

pub mod batch;
pub mod durable;
pub mod expr;
pub mod faults;
pub mod ops;
pub mod params;
pub mod punct;
pub mod qos;
pub mod snapshot;
pub mod stats;
pub mod tuple;
pub mod udf;
pub mod value;

pub use params::ParamBindings;
pub use punct::Punct;
pub use tuple::{StreamItem, Tuple};
pub use value::Value;

/// Errors raised while compiling plans or instantiating queries.
#[derive(Debug, Clone, PartialEq)]
pub struct RuntimeError(
    /// Human-readable message.
    pub String,
);

impl std::fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "runtime error: {}", self.0)
    }
}

impl std::error::Error for RuntimeError {}

impl RuntimeError {
    /// Build an error from anything printable.
    pub fn msg(m: impl Into<String>) -> RuntimeError {
        RuntimeError(m.into())
    }
}
