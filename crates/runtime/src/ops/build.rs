//! Compile logical plans into executable operators.
//!
//! This is the runtime half of the paper's code generator: the GSQL
//! front end produces [`Plan`]s and [`LftaSpec`]s; this module turns them
//! into instantiated [`Lfta`]s and [`HftaNode`]s with all parameters
//! bound, handles pre-processed, and BPF prefilters recompiled against
//! the bound parameter values.

use crate::batch::ColumnBatch;
use crate::expr::Program;
use crate::ops::agg::{AggCore, AggregateOp, DirectMappedAggregator};
use crate::ops::join::{EmitMode, JoinConfig, JoinOp};
use crate::ops::lfta::{Lfta, LftaKind, SharedSplit};
use crate::ops::merge::MergeOp;
use crate::ops::select::{FilterOp, SelectProject};
use crate::ops::Operator;
use crate::params::ParamBindings;
use crate::punct::Punct;
use crate::snapshot::{SnapError, SnapReader, SnapWriter};
use crate::stats::StatsRegistry;
use crate::tuple::StreamItem;
use crate::udf::{FileStore, HandleResolver, UdfRegistry};
use crate::RuntimeError;
use gs_gsql::ast::BinOp;
use gs_gsql::catalog::Catalog;
use gs_gsql::ordering::OrderProp;
use gs_gsql::plan::{and_fold, Literal, PExpr, Plan, Schema};
use gs_gsql::split::LftaSpec;
use std::sync::Arc;

/// Everything needed to instantiate compiled queries.
pub struct BuildCtx<'a> {
    /// The catalog the query was analyzed against (interfaces, UDF sigs).
    pub catalog: &'a Catalog,
    /// Bound query parameters.
    pub params: &'a ParamBindings,
    /// UDF implementations.
    pub registry: &'a UdfRegistry,
    /// Pass-by-handle file access.
    pub resolver: &'a dyn HandleResolver,
    /// Direct-mapped pre-aggregation table size (slots).
    pub lfta_table_size: usize,
}

impl<'a> BuildCtx<'a> {
    /// Compile one expression against this context's bindings. Public so
    /// deployers can compile auxiliary programs (the partition router's
    /// hash key) with exactly the plan operators' semantics.
    pub fn prog(&self, pe: &PExpr) -> Result<Program, RuntimeError> {
        Program::compile(pe, self.params, self.registry, self.resolver)
    }
}

/// Decompose `expr` as `Col(i)` or `Col(i) / k`; returns `(i, k)`.
fn col_and_divisor(pe: &PExpr) -> Option<(usize, u64)> {
    match pe {
        PExpr::Col { index, .. } => Some((*index, 1)),
        PExpr::Binary { op: BinOp::Div, left, right, .. } => match (&**left, &**right) {
            (PExpr::Col { index, .. }, PExpr::Lit(Literal::UInt(k))) if *k > 0 => {
                Some((*index, *k))
            }
            _ => None,
        },
        _ => None,
    }
}

fn order_slack(schema: &Schema, col: usize) -> u64 {
    schema.get(col).and_then(|c| c.order.slack()).unwrap_or(0)
}

/// Build the aggregation core shared by LFTA and HFTA aggregation.
fn build_agg_core(
    ctx: &BuildCtx<'_>,
    group: &[(String, PExpr)],
    aggs: &[gs_gsql::plan::AggSpec],
    flush_idx: Option<usize>,
    out_schema: &Schema,
) -> Result<(AggCore, Option<(usize, u64)>), RuntimeError> {
    let mut group_progs = Vec::with_capacity(group.len());
    for (_, e) in group {
        group_progs.push(ctx.prog(e)?);
    }
    let mut agg_specs = Vec::with_capacity(aggs.len());
    for a in aggs {
        let arg = match &a.arg {
            Some(e) => Some(ctx.prog(e)?),
            None => None,
        };
        agg_specs.push((a.func, arg, a.ty));
    }
    let slack = flush_idx.map_or(0, |i| order_slack(out_schema, i));
    // Punctuation translation: the flush group expression in terms of an
    // input column.
    let punct_in = flush_idx.and_then(|i| col_and_divisor(&group[i].1));
    Ok((AggCore::new(group_progs, agg_specs, flush_idx, slack), punct_in))
}

/// Instantiate an LFTA from its split specification.
pub fn build_lfta(spec: &LftaSpec, ctx: &BuildCtx<'_>) -> Result<Lfta, RuntimeError> {
    // Decompose the canonical LFTA plan.
    let mut node = &spec.plan;
    let mut projection: Option<&[(String, PExpr)]> = None;
    let mut aggregate = None;
    if let Plan::Project { cols, .. } = node {
        projection = Some(cols);
        let Plan::Project { input, .. } = node else { unreachable!() };
        node = input;
    }
    if let Plan::Aggregate { group, aggs, flush_group_idx, input, schema } = node {
        aggregate = Some((group, aggs, *flush_group_idx, schema));
        node = input;
    }
    let mut filter_pred = None;
    if let Plan::Filter { pred, input } = node {
        filter_pred = Some(pred);
        node = input;
    }
    let Plan::ProtocolScan { interface, protocol, schema: scan_schema } = node else {
        return Err(RuntimeError::msg(format!(
            "LFTA `{}` is not rooted at a protocol scan",
            spec.name
        )));
    };
    let proto_def = gs_packet::interp::protocol(protocol)
        .ok_or_else(|| RuntimeError::msg(format!("unknown protocol `{protocol}`")))?;

    // Recompile the BPF prefilter against the bound parameters, so
    // `destPort = $port` pushes down per instantiation (paper §3: multiple
    // instances of the same LFTA, each with different parameters).
    let prefilter = match (&spec.prefilter, filter_pred, ctx.catalog.interface(interface)) {
        (_, Some(pred), Some(ifd)) => {
            let conjuncts = pred.conjuncts_owned();
            let scan = scan_schema.clone();
            let pd = gs_gsql::pushdown::compile_prefilter(
                protocol,
                ifd.link,
                &conjuncts,
                &move |i| scan.get(i).map(|c| c.name.clone()),
                &ctx.params.as_literals(),
                spec.snaplen.map(|s| s as u32),
            );
            pd.program.or_else(|| spec.prefilter.clone())
        }
        (pf, _, _) => pf.clone(),
    };

    let filter = match filter_pred {
        Some(p) => Some(ctx.prog(p)?),
        None => None,
    };

    // Predicate split for the shared cross-query prefilter: conjuncts
    // that canonicalize to parameter-free atoms are evaluated once per
    // packet across all queries; whatever cannot be shared (UDF calls,
    // unbound parameters, atoms that fail to compile standalone) stays in
    // a per-LFTA residual program.
    let shared_split = match filter_pred {
        Some(pred) => {
            let conjuncts = pred.conjuncts_owned();
            let split =
                gs_gsql::pushdown::extract_atoms(protocol, &conjuncts, &ctx.params.as_literals());
            let mut atoms = Vec::new();
            let mut residual_exprs = split.residual;
            let udfs = UdfRegistry::with_builtins();
            let files = FileStore::new();
            for atom in split.atoms {
                // Sharing requires the atom to compile in isolation, and
                // the shared pass runs the program compiled here; on
                // failure keep the conjunct in the residual (the original
                // expression, with parameters, which `ctx.prog` can bind).
                match Program::compile(&atom.expr, &ParamBindings::new(), &udfs, &files) {
                    Ok(p) => atoms.push((atom, Arc::new(p))),
                    Err(_) => residual_exprs.push(atom.expr),
                }
            }
            let residual = match and_fold(residual_exprs) {
                Some(e) => Some(ctx.prog(&e)?),
                None => None,
            };
            Some(SharedSplit { atoms, residual })
        }
        None => None,
    };

    let (kind, punct_src) = if let Some((group, aggs, flush_idx, schema)) = aggregate {
        let (core, punct_in) = build_agg_core(ctx, group, aggs, flush_idx, schema)?;
        let punct_src = match (flush_idx, punct_in) {
            (Some(fi), Some((scan_col, div))) => Some((fi, scan_col, div)),
            _ => None,
        };
        (
            LftaKind::Aggregate(Box::new(DirectMappedAggregator::new(
                core,
                ctx.lfta_table_size,
            ))),
            punct_src,
        )
    } else {
        let cols = projection.ok_or_else(|| {
            RuntimeError::msg(format!("LFTA `{}` has neither projection nor aggregation", spec.name))
        })?;
        let mut progs = Vec::with_capacity(cols.len());
        let mut punct_src = None;
        for (j, (_, e)) in cols.iter().enumerate() {
            progs.push(ctx.prog(e)?);
            if punct_src.is_none() {
                if let Some((i, div)) = col_and_divisor(e) {
                    if scan_schema
                        .get(i)
                        .is_some_and(|c| matches!(c.order, OrderProp::Increasing { .. }))
                    {
                        punct_src = Some((j, i, div));
                    }
                }
            }
        }
        (LftaKind::Project(progs), punct_src)
    };

    let mut lfta = Lfta::new(
        spec.name.clone(),
        proto_def,
        prefilter.map(Arc::new),
        spec.snaplen,
        filter,
        kind,
        punct_src,
    );
    if let Some(split) = shared_split {
        lfta.set_shared_split(split);
    }
    if let Some(p) = spec.sample {
        lfta.set_sample(p);
    }
    Ok(lfta)
}

/// Multi-input root of an HFTA (stored concretely so the node can call
/// per-input finish methods).
pub enum Root {
    /// Order-preserving union.
    Merge(MergeOp),
    /// Two-stream window join (boxed: the hash-join state dwarfs the
    /// merge state and `Root` is embedded in every `HftaNode`).
    Join(Box<JoinOp>),
}

impl Root {
    fn push(
        &mut self,
        port: usize,
        cols: ColumnBatch,
        punct: Option<Punct>,
    ) -> (ColumnBatch, Option<Punct>) {
        match self {
            Root::Merge(m) => m.push_cols(port, cols, punct),
            Root::Join(j) => (j.push_cols(port, cols, punct), None),
        }
    }

    fn kind(&self) -> &'static str {
        match self {
            Root::Merge(_) => "merge",
            Root::Join(_) => "join",
        }
    }
}

/// An instantiated HFTA: input stream names plus the operator pipeline.
pub struct HftaNode {
    /// Upstream stream names, in port order.
    pub inputs: Vec<String>,
    /// Multi-input root (join/merge), when present.
    root: Option<Root>,
    /// Single-input chain above the root (or the whole pipeline).
    chain: Vec<Box<dyn Operator>>,
    /// Column count of each input's schema, checked on every batch, so
    /// a truncated batch fails in this node rather than in a consumer.
    arity: Vec<usize>,
}

impl HftaNode {
    /// Feed a columnar batch (with its at-most-one trailing punctuation
    /// rider) into input `port`: through the root, when there is one,
    /// then each chain operator in turn. Returns the node's output batch
    /// and rider, or `None` when the push produced neither. Every stage
    /// is columnar, so `_out` is never written; the parameter stays for
    /// callers that still pass one.
    ///
    /// # Panics
    /// Panics if the batch has the wrong number of columns for its input.
    pub fn push_cols(
        &mut self,
        port: usize,
        cols: ColumnBatch,
        punct: Option<Punct>,
        _out: &mut Vec<StreamItem>,
    ) -> Option<(ColumnBatch, Option<Punct>)> {
        assert!(
            cols.is_empty() || cols.n_cols() == self.arity[port],
            "input {port} batch has {} columns, its schema {}",
            cols.n_cols(),
            self.arity[port]
        );
        let (cols, punct) = match &mut self.root {
            Some(root) => root.push(port, cols, punct),
            None => (cols, punct),
        };
        self.run_chain(0, cols, punct)
    }

    /// Chain stages `from..` over one batch, stopping as soon as nothing
    /// is left for the stages above (an aggregate that closed no group).
    fn run_chain(
        &mut self,
        from: usize,
        mut cols: ColumnBatch,
        mut punct: Option<Punct>,
    ) -> Option<(ColumnBatch, Option<Punct>)> {
        for op in &mut self.chain[from..] {
            if cols.is_empty() && punct.is_none() {
                return None;
            }
            (cols, punct) = op.push_cols(cols, punct);
        }
        (!cols.is_empty() || punct.is_some()).then_some((cols, punct))
    }

    /// One input stream ended: multi-input roots release the holds that
    /// input maintained, through the chain; single-input nodes ignore
    /// this (use [`finish`]).
    ///
    /// [`finish`]: HftaNode::finish
    pub fn finish_input(&mut self, port: usize) -> Option<(ColumnBatch, Option<Punct>)> {
        let (cols, punct) = match &mut self.root {
            Some(Root::Merge(m)) => m.finish_input(port),
            Some(Root::Join(j)) => {
                j.finish_input(port);
                return None;
            }
            None => return None,
        };
        self.run_chain(0, cols, punct)
    }

    /// All inputs ended: flush everything. Returns, in emission order,
    /// what the root releases and each chain stage's flush, each fed
    /// through the stages above it (which have not finished yet). No
    /// token arises without one coming in, so the batches carry none.
    pub fn finish(&mut self) -> Vec<ColumnBatch> {
        let released = match &mut self.root {
            Some(Root::Merge(m)) => m.finish(),
            Some(Root::Join(j)) => j.finish(),
            None => ColumnBatch::default(),
        };
        let mut out = Vec::new();
        out.extend(self.run_chain(0, released, None).map(|(cb, _)| cb));
        for i in 0..self.chain.len() {
            let flushed = self.chain[i].finish();
            out.extend(self.run_chain(i + 1, flushed, None).map(|(cb, _)| cb));
        }
        out
    }

    /// Diagnostics: buffered tuples and starvation flag of a merge root.
    pub fn merge_state(&self) -> Option<(usize, usize, bool)> {
        match &self.root {
            Some(Root::Merge(m)) => Some((m.buffered(), m.peak_buffered, m.starved)),
            _ => None,
        }
    }

    /// Diagnostics: buffered tuples of a join root.
    pub fn join_state(&self) -> Option<(usize, usize)> {
        match &self.root {
            Some(Root::Join(j)) => Some((j.buffered(), j.peak_buffered)),
            _ => None,
        }
    }

    /// State items the node holds right now: rows buffered by its root
    /// plus every chain operator's [`held`](Operator::held).
    pub fn held(&self) -> usize {
        let root = match &self.root {
            Some(Root::Merge(m)) => m.buffered(),
            Some(Root::Join(j)) => j.buffered(),
            None => 0,
        };
        root + self.chain.iter().map(|op| op.held()).sum::<usize>()
    }

    /// Register every operator's counter block under
    /// `hfta:<query>/<i>:<kind>` — index 0 is the root when present,
    /// then the chain bottom-up.
    pub fn register_stats(&self, registry: &StatsRegistry, query: &str) {
        let mut i = 0usize;
        if let Some(root) = &self.root {
            let handle = match root {
                Root::Merge(m) => m.stats_handle(),
                Root::Join(j) => j.stats_handle(),
            };
            registry.register(format!("hfta:{query}/{i}:{}", root.kind()), handle);
            i += 1;
        }
        for op in &self.chain {
            if let Some(h) = op.stats_handle() {
                registry.register(format!("hfta:{query}/{i}:{}", op.kind()), h);
            }
            i += 1;
        }
    }

    /// Publish every operator's plain counters into its shared block.
    pub fn publish_stats(&self) {
        if let Some(root) = &self.root {
            match root {
                Root::Merge(m) => m.publish_stats(),
                Root::Join(j) => j.publish_stats(),
            }
        }
        for op in &self.chain {
            op.publish_stats();
        }
    }

    /// Serialize every operator's state in pipeline order: a structure
    /// byte (root present + chain length, so a mismatched topology is
    /// rejected on restore), the root, then the chain bottom-up. Called
    /// at a quiescent point — all inputs drained up to the capture cut.
    pub fn snapshot_state(&self, w: &mut SnapWriter) {
        w.put_bool(self.root.is_some());
        w.put_u32(self.chain.len() as u32);
        if let Some(root) = &self.root {
            match root {
                Root::Merge(m) => {
                    w.put_u8(0);
                    m.snapshot(w);
                }
                Root::Join(j) => {
                    w.put_u8(1);
                    j.snapshot(w);
                }
            }
        }
        for op in &self.chain {
            Operator::snapshot(op.as_ref(), w);
        }
    }

    /// Restore state written by [`snapshot_state`](Self::snapshot_state)
    /// into a freshly built node of the same plan.
    pub fn restore_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        let has_root = r.get_bool()?;
        let chain_len = r.get_u32()? as usize;
        if has_root != self.root.is_some() || chain_len != self.chain.len() {
            return Err(crate::snapshot::proto(format!(
                "hfta shape mismatch: snapshot root={has_root} chain={chain_len}, \
                 build root={} chain={}",
                self.root.is_some(),
                self.chain.len()
            )));
        }
        if let Some(root) = &mut self.root {
            let tag = r.get_u8()?;
            match (root, tag) {
                (Root::Merge(m), 0) => m.restore(r)?,
                (Root::Join(j), 1) => j.restore(r)?,
                (_, t) => {
                    return Err(crate::snapshot::proto(format!(
                        "hfta root tag {t} does not match build"
                    )))
                }
            }
        }
        for op in &mut self.chain {
            Operator::restore(op.as_mut(), r)?;
        }
        Ok(())
    }
}

/// Compile an HFTA plan.
pub fn build_hfta(plan: &Plan, ctx: &BuildCtx<'_>) -> Result<HftaNode, RuntimeError> {
    // Peel the single-input chain off the top.
    let mut chain_nodes: Vec<&Plan> = Vec::new();
    let mut node = plan;
    loop {
        match node {
            Plan::Project { input, .. } | Plan::Aggregate { input, .. } => {
                chain_nodes.push(node);
                node = input;
            }
            Plan::Filter { input, .. } => {
                chain_nodes.push(node);
                node = input;
            }
            _ => break,
        }
    }

    // Build chain operators bottom-up.
    let mut chain: Vec<Box<dyn Operator>> = Vec::new();
    for n in chain_nodes.iter().rev() {
        chain.push(build_chain_op(n, ctx)?);
    }

    match node {
        Plan::StreamScan { stream, schema } => Ok(HftaNode {
            inputs: vec![stream.clone()],
            root: None,
            chain,
            arity: vec![schema.len()],
        }),
        Plan::Join { left, right, window, residual, cols, .. } => {
            let (Plan::StreamScan { stream: ls, schema: lsch }, Plan::StreamScan { stream: rs, schema: rsch }) =
                (&**left, &**right)
            else {
                return Err(RuntimeError::msg(
                    "join inputs must be stream scans after splitting",
                ));
            };
            // Equality conjuncts across the two sides become the hash key
            // (the join-algorithm choice the paper's §2.1 alludes to);
            // everything else stays in the residual predicate.
            let n_left = lsch.len();
            let (eq_keys, remaining) = match residual {
                Some(r) => gs_gsql::plan::split_join_conjuncts(r, n_left),
                None => (Vec::new(), Vec::new()),
            };
            let cfg = JoinConfig {
                left_col: window.left_col,
                right_col: window.right_col,
                lo: window.lo,
                hi: window.hi,
                left_slack: order_slack(lsch, window.left_col),
                right_slack: order_slack(rsch, window.right_col),
                eq_keys,
                // The analyzer's imputation assumes immediate emission
                // (banded for band windows, already monotone for equality
                // windows over monotone inputs); sorted release is a
                // library-level option (JoinOp/EmitMode).
                emit: EmitMode::Banded,
                sort_out_col: 0,
            };
            let res = match and_fold(remaining) {
                Some(r) => Some(ctx.prog(&r)?),
                None => None,
            };
            let mut projs = Vec::with_capacity(cols.len());
            for (_, e) in cols {
                projs.push(ctx.prog(e)?);
            }
            Ok(HftaNode {
                inputs: vec![ls.clone(), rs.clone()],
                root: Some(Root::Join(Box::new(JoinOp::new(cfg, res, projs)))),
                chain,
                arity: vec![n_left, rsch.len()],
            })
        }
        Plan::Merge { inputs, on_col, .. } => {
            let mut names = Vec::with_capacity(inputs.len());
            let mut slacks = Vec::with_capacity(inputs.len());
            let mut arity = Vec::with_capacity(inputs.len());
            for i in inputs {
                let Plan::StreamScan { stream, schema } = i else {
                    return Err(RuntimeError::msg(
                        "merge inputs must be stream scans after splitting",
                    ));
                };
                names.push(stream.clone());
                slacks.push(order_slack(schema, *on_col));
                arity.push(schema.len());
            }
            Ok(HftaNode {
                inputs: names,
                root: Some(Root::Merge(MergeOp::new(inputs.len(), *on_col, slacks))),
                chain,
                arity,
            })
        }
        other => Err(RuntimeError::msg(format!(
            "HFTA plan has an unexpected leaf: {other:?}"
        ))),
    }
}

fn build_chain_op(n: &Plan, ctx: &BuildCtx<'_>) -> Result<Box<dyn Operator>, RuntimeError> {
    match n {
        Plan::Filter { pred, .. } => Ok(Box::new(FilterOp::new(ctx.prog(pred)?))),
        Plan::Project { cols, .. } => {
            let mut progs = Vec::with_capacity(cols.len());
            let mut punct_map = Vec::new();
            for (j, (_, e)) in cols.iter().enumerate() {
                progs.push(ctx.prog(e)?);
                if let Some((i, div)) = col_and_divisor(e) {
                    punct_map.push((i, j, div));
                }
            }
            Ok(Box::new(SelectProject::new(None, progs, punct_map)))
        }
        Plan::Aggregate { group, aggs, flush_group_idx, schema, .. } => {
            let (core, punct_in) = build_agg_core(ctx, group, aggs, *flush_group_idx, schema)?;
            Ok(Box::new(AggregateOp::new(core, punct_in, *flush_group_idx)))
        }
        other => Err(RuntimeError::msg(format!("not a chain operator: {other:?}"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tuple::Tuple;
    use crate::value::Value;
    use gs_gsql::analyze::analyze;
    use gs_gsql::catalog::InterfaceDef;
    use gs_gsql::parser::parse_query;
    use gs_gsql::split::split_query;
    use gs_packet::capture::LinkType;

    fn catalog() -> Catalog {
        let mut c = Catalog::with_builtins();
        c.add_interface(InterfaceDef { name: "eth0".into(), id: 0, link: LinkType::Ethernet });
        c.add_interface(InterfaceDef { name: "eth1".into(), id: 1, link: LinkType::Ethernet });
        c
    }

    fn deploy(c: &Catalog, src: &str) -> gs_gsql::split::DeployedQuery {
        let aq = analyze(&parse_query(src).unwrap(), c).unwrap();
        split_query(&aq, c).unwrap()
    }

    #[test]
    fn join_extracts_equality_conjuncts_into_hash_keys() {
        let c = catalog();
        let dq = deploy(
            &c,
            "DEFINE { query_name j; } \
             Select B.time FROM eth0.tcp B, eth1.tcp C \
             WHERE B.time = C.time and B.srcIP = C.srcIP and B.id = C.id and B.len > C.len",
        );
        let params = ParamBindings::new();
        let registry = UdfRegistry::with_builtins();
        let resolver = crate::udf::FileStore::new();
        let ctx = BuildCtx {
            catalog: &c,
            params: &params,
            registry: &registry,
            resolver: &resolver,
            lfta_table_size: 64,
        };
        let node = build_hfta(dq.hfta.as_ref().unwrap(), &ctx).unwrap();
        assert_eq!(node.inputs.len(), 2);
        // Drive it: equality keys and the residual `len >` must both bind.
        let mut node = node;
        let tup = |ts: u64, src: u64, id: u64, len: u64| {
            // LFTA identity projection emits the full tcp schema; build a
            // minimal tuple with the right arity instead.
            let schema = dq.hfta.as_ref().unwrap().upstream_streams();
            let _ = schema;
            let full = c.protocol_schema("tcp").unwrap();
            let mut vals: Vec<Value> = full
                .iter()
                .map(|col| match col.ty {
                    gs_gsql::types::DataType::Ip => Value::Ip(src as u32),
                    gs_gsql::types::DataType::Str => Value::Str(bytes::Bytes::new()),
                    gs_gsql::types::DataType::Bool => Value::Bool(false),
                    _ => Value::UInt(0),
                })
                .collect();
            let idx = |n: &str| full.iter().position(|x| x.name == n).unwrap();
            vals[idx("time")] = Value::UInt(ts);
            vals[idx("id")] = Value::UInt(id);
            vals[idx("len")] = Value::UInt(len);
            Tuple::new(vals)
        };
        let mut tuples = 0;
        for (port, row) in [
            (0, tup(1, 7, 3, 100)),
            (1, tup(1, 7, 3, 50)),  // matches: same keys, 100 > 50
            (1, tup(1, 7, 4, 50)),  // different id: no match
            (1, tup(1, 8, 3, 50)),  // different srcIP: no match
            (1, tup(1, 7, 3, 200)), // residual fails: 100 > 200 is false
        ] {
            let batch = ColumnBatch::from_tuples(&[row]);
            tuples += rows(node.push_cols(port, batch, None, &mut Vec::new()));
        }
        assert_eq!(tuples, 1, "hash keys + residual must both apply");
    }

    #[test]
    fn lfta_sample_is_wired_from_spec() {
        let c = catalog();
        let aq = analyze(
            &parse_query(
                "DEFINE { query_name s; sample 0.25; } Select time From eth0.tcp",
            )
            .unwrap(),
            &c,
        )
        .unwrap();
        let dq = split_query(&aq, &c).unwrap();
        assert_eq!(dq.lftas[0].sample, Some(0.25));
        let params = ParamBindings::new();
        let registry = UdfRegistry::with_builtins();
        let resolver = crate::udf::FileStore::new();
        let ctx = BuildCtx {
            catalog: &c,
            params: &params,
            registry: &registry,
            resolver: &resolver,
            lfta_table_size: 64,
        };
        let mut lfta = build_lfta(&dq.lftas[0], &ctx).unwrap();
        let mut out = Vec::new();
        let mut kept = 0u64;
        for i in 0..4_000u64 {
            let f = gs_packet::builder::FrameBuilder::tcp(1, 2, 9, 80).build_ethernet();
            let p = gs_packet::CapPacket::full(i * 1_000_000, 0, LinkType::Ethernet, f);
            out.clear();
            lfta.push_packet(&p, &mut out);
            kept += out.len() as u64;
        }
        let frac = kept as f64 / 4_000.0;
        assert!((frac - 0.25).abs() < 0.04, "sampled fraction {frac}");
        assert_eq!(lfta.stats.sampled_out + kept, 4_000);
    }

    #[test]
    fn param_bound_prefilter_recompiles_at_build() {
        let c = catalog();
        let dq = deploy(
            &c,
            "DEFINE { query_name p; } Select time From eth0.tcp Where destPort = $port",
        );
        // Unbound at split time: the spec's prefilter has only guards.
        let registry = UdfRegistry::with_builtins();
        let resolver = crate::udf::FileStore::new();
        let params = ParamBindings::new().with("port", Value::UInt(443));
        let ctx = BuildCtx {
            catalog: &c,
            params: &params,
            registry: &registry,
            resolver: &resolver,
            lfta_table_size: 64,
        };
        let mut lfta = build_lfta(&dq.lftas[0], &ctx).unwrap();
        let yes = gs_packet::builder::FrameBuilder::tcp(1, 2, 9, 443).build_ethernet();
        let no = gs_packet::builder::FrameBuilder::tcp(1, 2, 9, 80).build_ethernet();
        let mut out = Vec::new();
        lfta.push_packet(&gs_packet::CapPacket::full(0, 0, LinkType::Ethernet, yes), &mut out);
        lfta.push_packet(&gs_packet::CapPacket::full(1, 0, LinkType::Ethernet, no), &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(
            lfta.stats.prefiltered, 1,
            "the bound parameter must reach the recompiled BPF prefilter"
        );
    }

    /// Rows of a node step's output batch.
    fn rows(step: Option<(ColumnBatch, Option<Punct>)>) -> usize {
        step.map_or(0, |(cb, _)| cb.n_rows())
    }

    /// Doubles every uint of a 1-column batch; flushes a sentinel.
    struct Doubler;
    impl Operator for Doubler {
        fn push_cols(
            &mut self,
            cols: ColumnBatch,
            punct: Option<Punct>,
        ) -> (ColumnBatch, Option<Punct>) {
            let doubled = (0..cols.n_rows()).map(|r| cols.col(0).uint(cols.phys(r)).unwrap() * 2);
            (uints(doubled), punct)
        }
        fn finish(&mut self) -> ColumnBatch {
            uints([999])
        }
    }

    fn uints(vals: impl IntoIterator<Item = u64>) -> ColumnBatch {
        ColumnBatch::from_columns(vec![crate::batch::Column::UInt(vals.into_iter().collect())])
    }

    fn values(cb: &ColumnBatch) -> Vec<u64> {
        (0..cb.n_rows()).map(|r| cb.value_at(0, r).as_uint().unwrap()).collect()
    }

    /// A root-less node over `chain`, reading one 1-column input.
    fn chain_node(chain: Vec<Box<dyn Operator>>, arity: usize) -> HftaNode {
        HftaNode { inputs: vec!["in".into()], root: None, chain, arity: vec![arity] }
    }

    #[test]
    fn chain_applies_stages_in_order() {
        let mut node = chain_node(vec![Box::new(Doubler), Box::new(Doubler)], 1);
        let (cb, p) = node.push_cols(0, uints(0..5), None, &mut Vec::new()).unwrap();
        assert_eq!(values(&cb), vec![0, 4, 8, 12, 16]);
        assert_eq!(p, None);
    }

    #[test]
    fn finish_feeds_each_flush_through_the_stages_above() {
        let mut node = chain_node(vec![Box::new(Doubler), Box::new(Doubler)], 1);
        // First stage's sentinel passes through the second (999*2), then
        // the second stage's own sentinel.
        let out: Vec<Vec<u64>> = node.finish().iter().map(values).collect();
        assert_eq!(out, vec![vec![1998], vec![999]]);
    }

    /// A projection deriving `time` and `time / 60` from input column 0
    /// punctuates both in one rider, and that rider closes an aggregate
    /// keyed on the second — before the stream ends.
    #[test]
    fn one_rider_bounds_every_translated_column() {
        let registry = UdfRegistry::with_builtins();
        let files = crate::udf::FileStore::new();
        let params = ParamBindings::new();
        let prog = |pe: &PExpr| Program::compile(pe, &params, &registry, &files).unwrap();
        let uint = gs_gsql::types::DataType::UInt;
        let time = PExpr::Col { index: 0, ty: uint };
        let minute = PExpr::Binary {
            op: BinOp::Div,
            left: Box::new(time.clone()),
            right: Box::new(PExpr::Lit(Literal::UInt(60))),
            ty: uint,
        };
        let select =
            SelectProject::new(None, vec![prog(&time), prog(&minute)], vec![(0, 0, 1), (0, 1, 60)]);
        // Group by minute (output column 1 of the select), count(*).
        let core = AggCore::new(
            vec![prog(&PExpr::Col { index: 1, ty: uint })],
            vec![(gs_gsql::ast::AggFunc::Count, None, uint)],
            Some(0),
            0,
        );
        let agg = AggregateOp::new(core, Some((1, 1)), Some(0));
        let mut node = chain_node(vec![Box::new(select), Box::new(agg)], 1);
        let step = node.push_cols(0, uints([10, 70, 130]), None, &mut Vec::new());
        // Minute 0 closed on the arrival of minute 1, minute 1 on 2.
        assert_eq!(step.map(|(cb, _)| values(&cb)), Some(vec![0, 1]));
        let rider = Some(Punct::new(0, Value::UInt(180)));
        let (cb, p) = node
            .push_cols(0, ColumnBatch::default(), rider, &mut Vec::new())
            .expect("the rider closes minute 2");
        assert_eq!(values(&cb), vec![2]);
        assert_eq!(p.and_then(|p| p.bound(0)), Some(3), "bound forwarded on the minute column");
        assert!(node.finish().is_empty(), "nothing was left open");
    }
}
