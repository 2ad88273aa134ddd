//! LFTA/HFTA query splitting — the paper's signature optimization (§3).
//!
//! "One significant optimization technique is to push the query as far
//! down the processing stack as possible... This is accomplished in part
//! by breaking queries into high level query nodes (HFTAs) and low level
//! query nodes (LFTAs). All HFTAs accept only Stream input and exist as
//! separate processes, while LFTAs accept only Protocol input and are
//! linked into the stream manager."
//!
//! Splitting rules implemented here:
//!
//! 1. **Simple selection/projection** with only cheap predicates runs
//!    entirely as an LFTA ("a simple query can execute entirely as an
//!    LFTA").
//! 2. **Expensive predicates** (UDFs marked [`UdfCost::Expensive`], e.g.
//!    regex matching) always run in the HFTA; the LFTA keeps the cheap
//!    conjuncts and projects the columns the HFTA needs.
//! 3. **Aggregate splitting**: when every predicate and every group/agg
//!    expression is cheap, the LFTA pre-aggregates into a small
//!    direct-mapped hash (sub-aggregates) and the HFTA combines partials
//!    (super-aggregates) — "similar to that of subaggregates and
//!    superaggregates used in data cube computation algorithms".
//! 4. **Joins and merges** over Protocol scans get one trivial
//!    selection/projection LFTA per scan leaf; the join/merge itself is an
//!    HFTA.
//! 5. Each LFTA additionally gets a **BPF prefilter** compiled from its
//!    cheap conjuncts plus protocol guards, and a **snap length** when the
//!    query never reads the payload (§3's NIC optimizations).

use crate::analyze::AnalyzedQuery;
use crate::ast::{AggFunc, BinOp};
use crate::catalog::{Catalog, UdfCost};
use crate::error::GsqlError;
use crate::ordering::OrderProp;
use crate::plan::{and_fold, impute_order, AggSpec, ColumnInfo, PExpr, Plan, Schema};
use crate::pushdown::compile_prefilter;
use crate::types::DataType;
use gs_nic::bpf::BpfProgram;
use std::collections::HashMap;

/// Snap length used when the query reads only headers.
pub const HEADER_SNAPLEN: usize = 128;

/// One low-level query node: runs inside the run time system at the
/// capture point.
#[derive(Debug, Clone)]
pub struct LftaSpec {
    /// Registered stream name (mangled: `<query>__lfta<i>`, or the query's
    /// own name when the whole query is a single LFTA).
    pub name: String,
    /// The LFTA's plan (always rooted at a `ProtocolScan`).
    pub plan: Plan,
    /// Compiled NIC prefilter, when pushdown succeeded.
    pub prefilter: Option<BpfProgram>,
    /// Snap length to request from the NIC, when headers suffice.
    pub snaplen: Option<usize>,
    /// Whether this LFTA's aggregation (if any) is a *pre*-aggregation
    /// whose partials an HFTA combines: the runtime then uses the small
    /// direct-mapped eviction hash.
    pub pre_aggregated: bool,
    /// Analyst-requested sampling probability (applied at the capture
    /// point, before any other processing).
    pub sample: Option<f64>,
}

/// A query deployed as LFTAs plus an optional HFTA.
#[derive(Debug, Clone)]
pub struct DeployedQuery {
    /// The query's registered name.
    pub name: String,
    /// Low-level nodes, one per Protocol scan.
    pub lftas: Vec<LftaSpec>,
    /// The high-level plan (reads only Stream inputs). `None` when the
    /// whole query runs as a single LFTA.
    pub hfta: Option<Plan>,
    /// Query parameters.
    pub params: Vec<(String, DataType)>,
    /// Final output schema.
    pub schema: Schema,
}

impl DeployedQuery {
    /// The final output schema, whichever side produces it.
    pub fn output_plan(&self) -> &Plan {
        self.hfta.as_ref().unwrap_or(&self.lftas[0].plan)
    }
}

/// Split an analyzed query into LFTA and HFTA parts.
pub fn split_query(aq: &AnalyzedQuery, catalog: &Catalog) -> Result<DeployedQuery, GsqlError> {
    let mut splitter = Splitter { catalog, query: &aq.name, lftas: Vec::new() };
    let hfta = splitter.split(&aq.plan)?;
    for l in &mut splitter.lftas {
        l.sample = aq.sample;
    }
    let schema = match &hfta {
        Some(p) => p.schema().clone(),
        None => splitter.lftas[0].plan.schema().clone(),
    };
    Ok(DeployedQuery {
        name: aq.name.clone(),
        lftas: splitter.lftas,
        hfta,
        params: aq.params.clone(),
        schema,
    })
}

struct Splitter<'a> {
    catalog: &'a Catalog,
    query: &'a str,
    lftas: Vec<LftaSpec>,
}

impl<'a> Splitter<'a> {
    /// Split `plan`; returns the HFTA plan, or `None` if the whole query
    /// became a single LFTA.
    fn split(&mut self, plan: &Plan) -> Result<Option<Plan>, GsqlError> {
        if !plan.reads_protocol() {
            // Pure stream query: everything is HFTA.
            return Ok(Some(plan.clone()));
        }
        match plan {
            // Canonical single-source shapes produced by the analyzer:
            // Project(...(Filter?(Scan))) and
            // Project(Filter?(Aggregate(Filter?(Scan)))).
            Plan::Project { .. } | Plan::Aggregate { .. } | Plan::Filter { .. } => {
                self.split_single_source(plan, true)
            }
            Plan::Join { left, right, window, residual, cols, schema } => {
                let l = self.leaf_to_stream(left)?;
                let r = self.leaf_to_stream(right)?;
                Ok(Some(Plan::Join {
                    left: Box::new(l),
                    right: Box::new(r),
                    window: window.clone(),
                    residual: residual.clone(),
                    cols: cols.clone(),
                    schema: schema.clone(),
                }))
            }
            Plan::Merge { inputs, on_col, schema } => {
                let mut new_inputs = Vec::with_capacity(inputs.len());
                for i in inputs {
                    new_inputs.push(self.leaf_to_stream(i)?);
                }
                Ok(Some(Plan::Merge {
                    inputs: new_inputs,
                    on_col: *on_col,
                    schema: schema.clone(),
                }))
            }
            Plan::ProtocolScan { .. } => {
                // Bare scan (no projection): wrap as identity LFTA.
                Ok(Some(self.leaf_to_stream(plan)?))
            }
            Plan::StreamScan { .. } => Ok(Some(plan.clone())),
        }
    }

    /// Replace a Protocol-scan subtree used as a join/merge input with a
    /// trivial identity LFTA and a StreamScan of its output.
    fn leaf_to_stream(&mut self, plan: &Plan) -> Result<Plan, GsqlError> {
        if !plan.reads_protocol() {
            return Ok(plan.clone());
        }
        // Inputs to joins/merges are themselves canonical single-source
        // plans; split them (never claiming the whole query's name) and
        // read whichever side is outermost.
        match self.split_single_source(plan, false)? {
            Some(hfta) => Ok(hfta),
            None => {
                let last = self.lftas.last().expect("split_single_source added an LFTA");
                Ok(Plan::StreamScan {
                    stream: last.name.clone(),
                    schema: last.plan.schema().clone(),
                })
            }
        }
    }

    /// Split a canonical single-source plan over a ProtocolScan.
    ///
    /// When `whole_query` is true and the plan fits entirely in an LFTA,
    /// the LFTA takes the query's own name and `None` is returned;
    /// otherwise LFTAs get mangled names.
    fn split_single_source(
        &mut self,
        plan: &Plan,
        whole_query: bool,
    ) -> Result<Option<Plan>, GsqlError> {
        let shape = Shape::of(plan)?;
        let Plan::ProtocolScan { interface, protocol, schema: scan_schema } = shape.scan else {
            // Single-source over a stream: pure HFTA.
            return Ok(Some(plan.clone()));
        };

        // Partition WHERE conjuncts by cost.
        let mut cheap: Vec<PExpr> = Vec::new();
        let mut expensive: Vec<PExpr> = Vec::new();
        for c in &shape.where_conjuncts {
            if self.is_cheap(c) {
                cheap.push(c.clone());
            } else {
                expensive.push(c.clone());
            }
        }

        match (&shape.aggregate, expensive.is_empty()) {
            // ---- Rule 1: whole query as a single LFTA --------------------
            (None, true) => {
                // A bare scan leaf (join/merge input) projects identity.
                let identity: Vec<(String, PExpr)>;
                let cols = match shape.project {
                    Some(p) => p,
                    None => {
                        identity = scan_schema
                            .iter()
                            .enumerate()
                            .map(|(i, c)| {
                                (c.name.clone(), PExpr::Col { index: i, ty: c.ty })
                            })
                            .collect();
                        &identity[..]
                    }
                };
                let lfta_plan = build_select(interface, protocol, scan_schema, &cheap, cols);
                let name =
                    if whole_query { self.query.to_string() } else { self.mangled_name() };
                self.push_lfta(name, lfta_plan, &cheap, false);
                if whole_query {
                    Ok(None)
                } else {
                    let last = self.lftas.last().expect("just pushed");
                    Ok(Some(Plan::StreamScan {
                        stream: last.name.clone(),
                        schema: last.plan.schema().clone(),
                    }))
                }
            }
            // ---- Rule 2: cheap filter + projection LFTA, rest HFTA -------
            (None, false) => {
                let (lfta_name, lfta_schema, col_map) = self.make_projection_lfta(
                    interface,
                    protocol,
                    scan_schema,
                    &cheap,
                    // Columns the HFTA needs: expensive conjuncts + final projection.
                    expensive
                        .iter()
                        .flat_map(|e| e.columns_used())
                        .chain(
                            shape
                                .project
                                .iter()
                                .flat_map(|p| p.iter())
                                .flat_map(|(_, e)| e.columns_used()),
                        )
                        .collect(),
                    scan_schema,
                );
                let mut hfta: Plan =
                    Plan::StreamScan { stream: lfta_name, schema: lfta_schema };
                if let Some(pred) = and_fold(remap_all(&expensive, &col_map)) {
                    hfta = Plan::Filter { pred, input: Box::new(hfta) };
                }
                let project = shape.project.expect("canonical plan has a projection");
                let cols: Vec<(String, PExpr)> = project
                    .iter()
                    .map(|(n, e)| (n.clone(), e.remap_columns(&col_map)))
                    .collect();
                let schema = plan.schema().clone();
                Ok(Some(Plan::Project { cols, input: Box::new(hfta), schema }))
            }
            // ---- Rules 2+3: aggregation ---------------------------------
            (Some(agg), _) => self.split_aggregate(
                plan,
                &shape,
                agg,
                interface,
                protocol,
                scan_schema,
                cheap,
                expensive,
            ),
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn split_aggregate(
        &mut self,
        plan: &Plan,
        shape: &Shape<'_>,
        agg: &AggParts<'_>,
        interface: &str,
        protocol: &str,
        scan_schema: &Schema,
        cheap: Vec<PExpr>,
        expensive: Vec<PExpr>,
    ) -> Result<Option<Plan>, GsqlError> {
        let group_cheap = agg.group.iter().all(|(_, e)| self.is_cheap(e));
        let aggs_cheap = agg
            .aggs
            .iter()
            .all(|a| a.arg.as_ref().is_none_or(|e| self.is_cheap(e)));
        let splittable = expensive.is_empty() && group_cheap && aggs_cheap;

        if !splittable {
            // LFTA: cheap filter + project needed columns. HFTA: the rest.
            let mut needed: Vec<usize> = Vec::new();
            needed.extend(expensive.iter().flat_map(|e| e.columns_used()));
            needed.extend(agg.group.iter().flat_map(|(_, e)| e.columns_used()));
            needed.extend(
                agg.aggs.iter().filter_map(|a| a.arg.as_ref()).flat_map(|e| e.columns_used()),
            );
            let (lfta_name, lfta_schema, col_map) = self.make_projection_lfta(
                interface, protocol, scan_schema, &cheap, needed, scan_schema,
            );
            let mut hfta: Plan = Plan::StreamScan { stream: lfta_name, schema: lfta_schema };
            if let Some(pred) = and_fold(remap_all(&expensive, &col_map)) {
                hfta = Plan::Filter { pred, input: Box::new(hfta) };
            }
            let group: Vec<(String, PExpr)> = agg
                .group
                .iter()
                .map(|(n, e)| (n.clone(), e.remap_columns(&col_map)))
                .collect();
            let aggs: Vec<AggSpec> = agg
                .aggs
                .iter()
                .map(|a| AggSpec {
                    name: a.name.clone(),
                    func: a.func,
                    arg: a.arg.as_ref().map(|e| e.remap_columns(&col_map)),
                    ty: a.ty,
                })
                .collect();
            let mut out: Plan = Plan::Aggregate {
                group,
                aggs,
                flush_group_idx: agg.flush_group_idx,
                input: Box::new(hfta),
                schema: agg.schema.clone(),
            };
            out = reapply_post_agg(out, shape, plan);
            return Ok(Some(out));
        }

        // ---- Rule 3: sub-aggregate in the LFTA, super-aggregate in HFTA.
        // LFTA: same groups, partial aggregates.
        let mut partials: Vec<AggSpec> = Vec::new();
        // For each original agg, the indices of its partial columns.
        enum Combine {
            /// The original aggregate is column `i` of the partials; the
            /// super-aggregate's combining function is derived from the
            /// partial's own function (count combines by summing).
            Simple(usize),
            /// avg = sum(partial_sum) / sum(partial_count).
            Avg { sum_idx: usize, cnt_idx: usize },
        }
        let mut combines: Vec<Combine> = Vec::new();
        let add_partial = |spec: AggSpec, partials: &mut Vec<AggSpec>| -> usize {
            if let Some(i) = partials
                .iter()
                .position(|p| p.func == spec.func && p.arg == spec.arg)
            {
                i
            } else {
                partials.push(spec);
                partials.len() - 1
            }
        };
        for a in agg.aggs {
            match a.func {
                AggFunc::Count => {
                    let i = add_partial(
                        AggSpec {
                            name: a.name.clone(),
                            func: AggFunc::Count,
                            arg: a.arg.clone(),
                            ty: DataType::UInt,
                        },
                        &mut partials,
                    );
                    combines.push(Combine::Simple(i));
                }
                AggFunc::Sum | AggFunc::Min | AggFunc::Max => {
                    let i = add_partial(
                        AggSpec {
                            name: a.name.clone(),
                            func: a.func,
                            arg: a.arg.clone(),
                            ty: a.ty,
                        },
                        &mut partials,
                    );
                    combines.push(Combine::Simple(i));
                }
                AggFunc::Avg => {
                    let arg = a.arg.clone().expect("avg has an argument");
                    let sum_ty = arg.ty();
                    let sum_idx = add_partial(
                        AggSpec {
                            name: format!("{}__sum", a.name),
                            func: AggFunc::Sum,
                            arg: Some(arg.clone()),
                            ty: sum_ty,
                        },
                        &mut partials,
                    );
                    let cnt_idx = add_partial(
                        AggSpec {
                            name: format!("{}__cnt", a.name),
                            func: AggFunc::Count,
                            arg: None,
                            ty: DataType::UInt,
                        },
                        &mut partials,
                    );
                    combines.push(Combine::Avg { sum_idx, cnt_idx });
                }
            }
        }

        let n_group = agg.group.len();
        let mut lfta_schema: Schema = Vec::new();
        let input_schema = scan_schema.clone();
        for (name, e) in agg.group {
            lfta_schema.push(ColumnInfo {
                name: name.clone(),
                ty: e.ty(),
                order: impute_order(e, &input_schema),
            });
        }
        for p in &partials {
            lfta_schema.push(ColumnInfo { name: p.name.clone(), ty: p.ty, order: OrderProp::None });
        }
        let mut lfta_plan: Plan = Plan::ProtocolScan {
            interface: interface.to_string(),
            protocol: protocol.to_string(),
            schema: scan_schema.clone(),
        };
        if let Some(pred) = and_fold(cheap.clone()) {
            lfta_plan = Plan::Filter { pred, input: Box::new(lfta_plan) };
        }
        let lfta_plan = Plan::Aggregate {
            group: agg.group.to_vec(),
            aggs: partials.clone(),
            flush_group_idx: agg.flush_group_idx,
            input: Box::new(lfta_plan),
            schema: lfta_schema.clone(),
        };
        let lfta_name = self.mangled_name();
        self.push_lfta(lfta_name.clone(), lfta_plan, &cheap, true);

        // HFTA: super-aggregate over the partials, then a combine
        // projection restoring the original aggregate schema.
        let hfta_scan = Plan::StreamScan { stream: lfta_name, schema: lfta_schema.clone() };
        let group: Vec<(String, PExpr)> = agg
            .group
            .iter()
            .enumerate()
            .map(|(i, (n, e))| (n.clone(), PExpr::Col { index: i, ty: e.ty() }))
            .collect();
        let mut super_aggs: Vec<AggSpec> = Vec::new();
        for (i, p) in partials.iter().enumerate() {
            let comb_func = match p.func {
                AggFunc::Count => AggFunc::Sum,
                f => f,
            };
            super_aggs.push(AggSpec {
                name: p.name.clone(),
                func: comb_func,
                arg: Some(PExpr::Col { index: n_group + i, ty: p.ty }),
                ty: p.ty,
            });
        }
        let mut super_schema: Schema = lfta_schema.clone();
        // Flushing in the HFTA follows the same ordered group column; the
        // schema shape (groups then partials) is identical.
        let super_agg_plan = Plan::Aggregate {
            group,
            aggs: super_aggs,
            flush_group_idx: agg.flush_group_idx,
            input: Box::new(hfta_scan),
            schema: std::mem::take(&mut super_schema),
        };

        // Combine projection: original agg schema = groups ++ original aggs.
        let mut cols: Vec<(String, PExpr)> = Vec::new();
        for (i, (n, e)) in agg.group.iter().enumerate() {
            cols.push((n.clone(), PExpr::Col { index: i, ty: e.ty() }));
        }
        for (a, comb) in agg.aggs.iter().zip(&combines) {
            let e = match comb {
                Combine::Simple(i) => PExpr::Col { index: n_group + i, ty: a.ty },
                Combine::Avg { sum_idx, cnt_idx } => {
                    let sum_col = PExpr::Col {
                        index: n_group + sum_idx,
                        ty: partials[*sum_idx].ty,
                    };
                    let cnt_col =
                        PExpr::Col { index: n_group + cnt_idx, ty: DataType::UInt };
                    let to_float = |e: PExpr| PExpr::Call {
                        udf: "to_float".into(),
                        args: vec![e],
                        ret: DataType::Float,
                        partial: false,
                    };
                    let sum_f = if partials[*sum_idx].ty == DataType::Float {
                        sum_col
                    } else {
                        to_float(sum_col)
                    };
                    PExpr::Binary {
                        op: BinOp::Div,
                        left: Box::new(sum_f),
                        right: Box::new(to_float(cnt_col)),
                        ty: DataType::Float,
                    }
                }
            };
            cols.push((a.name.clone(), e));
        }
        let combined = Plan::Project {
            cols,
            input: Box::new(super_agg_plan),
            schema: agg.schema.clone(),
        };
        Ok(Some(reapply_post_agg(combined, shape, plan)))
    }

    /// Build a filter+projection LFTA emitting `needed` scan columns and
    /// register it; returns (name, schema, old→new column map).
    fn make_projection_lfta(
        &mut self,
        interface: &str,
        protocol: &str,
        scan_schema: &Schema,
        cheap: &[PExpr],
        mut needed: Vec<usize>,
        input_schema: &Schema,
    ) -> (String, Schema, HashMap<usize, usize>) {
        needed.sort_unstable();
        needed.dedup();
        let mut col_map = HashMap::new();
        let mut cols = Vec::new();
        let mut schema = Schema::new();
        for (new_i, old_i) in needed.iter().enumerate() {
            let ci = &input_schema[*old_i];
            col_map.insert(*old_i, new_i);
            cols.push((ci.name.clone(), PExpr::Col { index: *old_i, ty: ci.ty }));
            schema.push(ci.clone());
        }
        let plan = build_select(
            interface,
            protocol,
            scan_schema,
            cheap,
            &cols.iter().map(|(n, e)| (n.clone(), e.clone())).collect::<Vec<_>>(),
        );
        let name = self.mangled_name();
        self.push_lfta(name.clone(), plan, cheap, false);
        (name, schema, col_map)
    }

    fn mangled_name(&self) -> String {
        format!("{}__lfta{}", self.query, self.lftas.len())
    }

    fn push_lfta(&mut self, name: String, plan: Plan, cheap: &[PExpr], pre_aggregated: bool) {
        let (prefilter, snaplen) = self.compile_nic_parts(&plan, cheap);
        self.lftas.push(LftaSpec { name, plan, prefilter, snaplen, pre_aggregated, sample: None });
    }

    /// Compile the BPF prefilter and choose a snap length for an LFTA.
    fn compile_nic_parts(
        &self,
        plan: &Plan,
        cheap: &[PExpr],
    ) -> (Option<BpfProgram>, Option<usize>) {
        // Find the scan leaf.
        let mut scan: Option<(&str, &str, &Schema)> = None;
        plan.visit(&mut |p| {
            if let Plan::ProtocolScan { interface, protocol, schema } = p {
                scan = Some((interface, protocol, schema));
            }
        });
        let Some((interface, protocol, scan_schema)) = scan else { return (None, None) };
        let Some(ifd) = self.catalog.interface(interface) else { return (None, None) };

        // Does anything in the LFTA read the payload?
        let mut reads_payload = false;
        let check = |e: &PExpr, schema: &Schema, flag: &mut bool| {
            for i in e.columns_used() {
                if schema.get(i).is_some_and(|c| c.name == "payload") {
                    *flag = true;
                }
            }
        };
        plan.visit(&mut |p| match p {
            Plan::Filter { pred, .. } => check(pred, scan_schema, &mut reads_payload),
            Plan::Project { cols, .. } => {
                cols.iter().for_each(|(_, e)| check(e, scan_schema, &mut reads_payload))
            }
            Plan::Aggregate { group, aggs, .. } => {
                group.iter().for_each(|(_, e)| check(e, scan_schema, &mut reads_payload));
                aggs.iter()
                    .filter_map(|a| a.arg.as_ref())
                    .for_each(|e| check(e, scan_schema, &mut reads_payload));
            }
            _ => {}
        });
        let snaplen = if reads_payload { None } else { Some(HEADER_SNAPLEN) };

        let schema_for_fields = scan_schema.clone();
        let pd = compile_prefilter(
            protocol,
            ifd.link,
            cheap,
            &move |i| schema_for_fields.get(i).map(|c| c.name.clone()),
            &HashMap::new(),
            snaplen.map(|s| s as u32),
        );
        (pd.program, snaplen)
    }

    /// A predicate/expression is cheap when it calls no expensive UDFs.
    fn is_cheap(&self, e: &PExpr) -> bool {
        let mut cheap = true;
        e.walk(&mut |x| {
            if let PExpr::Call { udf, .. } = x {
                if self
                    .catalog
                    .udf(udf)
                    .is_none_or(|sig| sig.cost == UdfCost::Expensive)
                {
                    cheap = false;
                }
            }
        });
        cheap
    }
}

// ----------------------------------------------------------------------
// Canonical-shape decomposition.
// ----------------------------------------------------------------------

struct AggParts<'p> {
    group: &'p [(String, PExpr)],
    aggs: &'p [AggSpec],
    flush_group_idx: Option<usize>,
    schema: Schema,
}

/// The analyzer's canonical single-source plan, decomposed.
struct Shape<'p> {
    scan: &'p Plan,
    where_conjuncts: Vec<PExpr>,
    aggregate: Option<AggParts<'p>>,
    /// Post-aggregation HAVING predicate (over the aggregate schema).
    having: Option<&'p PExpr>,
    /// Final projection (over the aggregate schema when aggregating, else
    /// over the scan schema).
    project: Option<&'p [(String, PExpr)]>,
    project_schema: Option<&'p Schema>,
}

impl<'p> Shape<'p> {
    fn of(plan: &'p Plan) -> Result<Shape<'p>, GsqlError> {
        let mut project = None;
        let mut project_schema = None;
        let mut having = None;
        let mut aggregate = None;
        let mut node = plan;
        if let Plan::Project { cols, input, schema } = node {
            project = Some(cols.as_slice());
            project_schema = Some(schema);
            node = input;
        }
        if let Plan::Filter { pred, input } = node {
            if matches!(**input, Plan::Aggregate { .. }) {
                having = Some(pred);
                node = input;
            }
        }
        if let Plan::Aggregate { group, aggs, flush_group_idx, input, schema } = node {
            aggregate = Some(AggParts {
                group,
                aggs,
                flush_group_idx: *flush_group_idx,
                schema: schema.clone(),
            });
            node = input;
        }
        let mut where_conjuncts = Vec::new();
        if let Plan::Filter { pred, input } = node {
            where_conjuncts = pred.conjuncts_owned();
            node = input;
        }
        match node {
            Plan::ProtocolScan { .. } | Plan::StreamScan { .. } => Ok(Shape {
                scan: node,
                where_conjuncts,
                aggregate,
                having,
                project,
                project_schema,
            }),
            other => Err(GsqlError::plan(format!(
                "unexpected plan shape below aggregation: {other:?}"
            ))),
        }
    }
}

fn remap_all(exprs: &[PExpr], map: &HashMap<usize, usize>) -> Vec<PExpr> {
    exprs.iter().map(|e| e.remap_columns(map)).collect()
}

fn build_select(
    interface: &str,
    protocol: &str,
    scan_schema: &Schema,
    cheap: &[PExpr],
    cols: &[(String, PExpr)],
) -> Plan {
    let mut plan: Plan = Plan::ProtocolScan {
        interface: interface.to_string(),
        protocol: protocol.to_string(),
        schema: scan_schema.clone(),
    };
    if let Some(pred) = and_fold(cheap.to_vec()) {
        plan = Plan::Filter { pred, input: Box::new(plan) };
    }
    let schema: Schema = cols
        .iter()
        .map(|(n, e)| ColumnInfo {
            name: n.clone(),
            ty: e.ty(),
            order: impute_order(e, scan_schema),
        })
        .collect();
    Plan::Project { cols: cols.to_vec(), input: Box::new(plan), schema }
}

/// Re-apply the original plan's post-aggregation HAVING filter and final
/// projection on top of the reconstructed aggregate.
fn reapply_post_agg(mut agg_plan: Plan, shape: &Shape<'_>, original: &Plan) -> Plan {
    if let Some(h) = shape.having {
        agg_plan = Plan::Filter { pred: h.clone(), input: Box::new(agg_plan) };
    }
    if let (Some(cols), Some(schema)) = (shape.project, shape.project_schema) {
        agg_plan = Plan::Project {
            cols: cols.to_vec(),
            input: Box::new(agg_plan),
            schema: schema.clone(),
        };
    } else {
        debug_assert!(
            matches!(original, Plan::Aggregate { .. }),
            "canonical plans always project on top of aggregation"
        );
    }
    agg_plan
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyze::analyze;
    use crate::catalog::InterfaceDef;
    use crate::parser::parse_query;
    use gs_packet::capture::LinkType;

    fn catalog() -> Catalog {
        let mut c = Catalog::with_builtins();
        c.add_interface(InterfaceDef { name: "eth0".into(), id: 0, link: LinkType::Ethernet });
        c.add_interface(InterfaceDef { name: "eth1".into(), id: 1, link: LinkType::Ethernet });
        c
    }

    fn deploy(src: &str) -> DeployedQuery {
        let c = catalog();
        let aq = analyze(&parse_query(src).unwrap(), &c).unwrap();
        split_query(&aq, &c).unwrap()
    }

    #[test]
    fn simple_query_is_single_lfta() {
        let d = deploy(
            "DEFINE { query_name t0; } \
             Select destIP, destPort, time From eth0.tcp Where destPort = 80",
        );
        assert!(d.hfta.is_none(), "simple query executes entirely as an LFTA");
        assert_eq!(d.lftas.len(), 1);
        assert_eq!(d.lftas[0].name, "t0");
        assert!(!d.lftas[0].pre_aggregated);
        assert!(d.lftas[0].prefilter.is_some(), "port filter pushes down to BPF");
        assert_eq!(d.lftas[0].snaplen, Some(HEADER_SNAPLEN), "no payload read -> snap");
    }

    /// The LFTA and the registered schema impute a projected column's
    /// order with the analyzer's rule, literal-first `k + x` and `k * x`
    /// included.
    #[test]
    fn literal_first_arithmetic_keeps_time_order() {
        for expr in ["60*time", "time*60", "1+time", "time+1"] {
            let d = deploy(&format!("Select {expr} as tb, len From eth0.ip"));
            let increasing = |s: &Schema| matches!(s[0].order, OrderProp::Increasing { .. });
            assert!(increasing(d.lftas[0].plan.schema()), "{expr}: LFTA schema");
            assert!(increasing(&d.schema), "{expr}: registered schema");
        }
    }

    #[test]
    fn regex_query_splits_filter() {
        // The §4 experiment's query shape: LFTA filters port 80, HFTA does
        // the regex.
        let d = deploy(
            "DEFINE { query_name http_frac; } \
             Select time, payload From eth0.tcp \
             Where destPort = 80 and str_match_regex(payload, '^[^\\n]*HTTP/1.*') = TRUE",
        );
        assert_eq!(d.lftas.len(), 1);
        let lfta = &d.lftas[0];
        assert_eq!(lfta.name, "http_frac__lfta0");
        assert!(lfta.snaplen.is_none(), "HFTA reads the payload: no snap");
        // LFTA keeps the cheap conjunct.
        let mut lfta_has_filter = false;
        lfta.plan.visit(&mut |p| {
            if matches!(p, Plan::Filter { .. }) {
                lfta_has_filter = true;
            }
        });
        assert!(lfta_has_filter);
        // HFTA holds the expensive predicate.
        let hfta = d.hfta.as_ref().unwrap();
        let mut has_regex = false;
        hfta.visit(&mut |p| {
            if let Plan::Filter { pred, .. } = p {
                pred.walk(&mut |e| {
                    if matches!(e, PExpr::Call { udf, .. } if udf == "str_match_regex") {
                        has_regex = true;
                    }
                });
            }
        });
        assert!(has_regex);
        assert_eq!(hfta.upstream_streams(), vec!["http_frac__lfta0".to_string()]);
    }

    #[test]
    fn aggregate_splits_into_sub_and_super() {
        let d = deploy(
            "DEFINE { query_name counts; } \
             Select tb, count(*), sum(len) From eth0.ip Group By time/60 as tb",
        );
        assert_eq!(d.lftas.len(), 1);
        let lfta = &d.lftas[0];
        assert!(lfta.pre_aggregated, "cheap aggregation pre-aggregates in the LFTA");
        let Plan::Aggregate { aggs, flush_group_idx, .. } = &lfta.plan else {
            panic!("{:?}", lfta.plan)
        };
        assert_eq!(aggs.len(), 2); // partial count + partial sum
        assert_eq!(*flush_group_idx, Some(0));
        // HFTA combines: count -> sum of partial counts.
        let hfta = d.hfta.as_ref().unwrap();
        let mut super_aggs = None;
        hfta.visit(&mut |p| {
            if let Plan::Aggregate { aggs, .. } = p {
                super_aggs = Some(aggs.clone());
            }
        });
        let super_aggs = super_aggs.unwrap();
        assert!(super_aggs.iter().all(|a| matches!(a.func, AggFunc::Sum)));
        // Final schema matches the original query.
        assert_eq!(d.schema.len(), 3);
        assert_eq!(d.schema[0].name, "tb");
    }

    #[test]
    fn avg_splits_into_sum_and_count() {
        let d = deploy("Select tb, avg(len) From eth0.ip Group By time/60 as tb");
        let lfta = &d.lftas[0];
        let Plan::Aggregate { aggs, .. } = &lfta.plan else { panic!() };
        // avg -> partial sum + partial count.
        assert_eq!(aggs.len(), 2);
        assert!(matches!(aggs[0].func, AggFunc::Sum));
        assert!(matches!(aggs[1].func, AggFunc::Count));
        // The HFTA combine projection divides floats.
        assert_eq!(d.schema[1].ty, DataType::Float);
    }

    #[test]
    fn expensive_group_key_disables_preaggregation() {
        let d = deploy(
            "Select tb, count(*) From eth0.tcp \
             Where destPort = 80 \
             Group By time/60 as tb, str_find_substr(payload, 'GET') as isget",
        );
        let lfta = &d.lftas[0];
        assert!(!lfta.pre_aggregated);
        assert!(matches!(lfta.plan, Plan::Project { .. }), "LFTA reduces to filter+project");
        let hfta = d.hfta.as_ref().unwrap();
        let mut hfta_aggregates = false;
        hfta.visit(&mut |p| {
            if matches!(p, Plan::Aggregate { .. }) {
                hfta_aggregates = true;
            }
        });
        assert!(hfta_aggregates);
    }

    #[test]
    fn join_gets_one_lfta_per_leaf() {
        let d = deploy(
            "DEFINE { query_name j; } \
             Select B.time FROM eth0.tcp B, eth1.tcp C \
             WHERE B.time = C.time and B.srcIP = C.srcIP",
        );
        assert_eq!(d.lftas.len(), 2);
        let hfta = d.hfta.as_ref().unwrap();
        assert!(matches!(hfta, Plan::Join { .. }));
        assert_eq!(hfta.upstream_streams().len(), 2);
    }

    #[test]
    fn pure_stream_query_has_no_lftas() {
        let mut c = catalog();
        c.add_stream(
            "upstream",
            vec![ColumnInfo {
                name: "time".into(),
                ty: DataType::UInt,
                order: OrderProp::Increasing { strict: false },
            }],
        );
        let aq = analyze(
            &parse_query("Select time From upstream Where time > 10").unwrap(),
            &c,
        )
        .unwrap();
        let d = split_query(&aq, &c).unwrap();
        assert!(d.lftas.is_empty());
        assert!(d.hfta.is_some());
    }

    #[test]
    fn having_survives_the_split() {
        let d = deploy(
            "Select tb, count(*) From eth0.ip Group By time/60 as tb Having count(*) > 5",
        );
        let hfta = d.hfta.as_ref().unwrap();
        // Plan: Project(Filter(Project(Aggregate(...)))) — the HAVING
        // filter sits above the combine projection.
        let mut filters = 0;
        hfta.visit(&mut |p| {
            if matches!(p, Plan::Filter { .. }) {
                filters += 1;
            }
        });
        assert_eq!(filters, 1);
    }
}
