//! Semantic analysis: names, types, GSQL restrictions, window extraction,
//! and ordering-property imputation. Lowers an AST [`Query`] into a typed
//! logical [`Plan`].

use crate::ast::{AggFunc, BinOp, Expr, Query, QueryBody, SelectBody, SelectItem, TableRef, UnOp};
use crate::catalog::Catalog;
use crate::error::GsqlError;
use crate::ordering::OrderProp;
use crate::plan::{
    and_fold, impute_order, AggSpec, ColumnInfo, JoinWindow, Literal, PExpr, Plan, Schema,
};
use crate::types::DataType;
use std::collections::HashMap;

/// The result of analyzing one query.
#[derive(Debug, Clone, PartialEq)]
pub struct AnalyzedQuery {
    /// Query name (from `DEFINE { query_name ...; }`, or `_anon`).
    pub name: String,
    /// The typed logical plan.
    pub plan: Plan,
    /// Query parameters with inferred types.
    pub params: Vec<(String, DataType)>,
    /// Non-fatal diagnostics (e.g. aggregation without an ordered key).
    pub warnings: Vec<String>,
    /// Analyst-controlled sampling probability from `DEFINE { sample p; }`
    /// (the paper's §5 research direction: sampling "must be integrated
    /// into the query language under the control of the analyst").
    pub sample: Option<f64>,
}

/// Analyze `q` against `catalog`.
pub fn analyze(q: &Query, catalog: &Catalog) -> Result<AnalyzedQuery, GsqlError> {
    let name = q.name().unwrap_or("_anon").to_string();
    let sample = match q.defines.iter().find(|(k, _)| k == "sample") {
        Some((_, v)) => {
            let p: f64 = v.parse().map_err(|_| {
                GsqlError::analyze(format!("DEFINE sample must be a probability, got `{v}`"))
            })?;
            if !(0.0..=1.0).contains(&p) || p == 0.0 {
                return Err(GsqlError::analyze(format!(
                    "DEFINE sample must be in (0, 1], got {p}"
                )));
            }
            (p < 1.0).then_some(p)
        }
        None => None,
    };
    let mut cx = Context {
        catalog,
        param_types: collect_param_constraints(q, catalog),
        warnings: Vec::new(),
    };
    let plan = match &q.body {
        QueryBody::Select(body) => cx.analyze_select(body)?,
        QueryBody::Merge(body) => cx.analyze_merge(body)?,
    };
    let params = plan.params();
    Ok(AnalyzedQuery { name, plan, params, warnings: cx.warnings, sample })
}

// ----------------------------------------------------------------------
// Parameter type inference (syntactic pre-pass).
// ----------------------------------------------------------------------

/// Infer `$param` types from the contexts they appear in: comparison with a
/// column adopts the column's type; a UDF argument adopts the declared
/// argument type. Unconstrained parameters default to `uint`.
fn collect_param_constraints(q: &Query, catalog: &Catalog) -> HashMap<String, DataType> {
    let mut out = HashMap::new();
    let mut visit_expr = |e: &Expr, col_ty: &dyn Fn(&str) -> Option<DataType>| {
        e.walk(&mut |node| match node {
            Expr::Binary { op, left, right } if op.is_comparison() => {
                let pairs = [(&**left, &**right), (&**right, &**left)];
                for (a, b) in pairs {
                    if let (Expr::Param(p), Expr::Column { name, .. }) = (a, b) {
                        if let Some(ty) = col_ty(name) {
                            out.entry(p.clone()).or_insert(ty);
                        }
                    }
                }
            }
            Expr::Func { name, args } => {
                if let Some(sig) = catalog.udf(name) {
                    for (i, a) in args.iter().enumerate() {
                        if let (Expr::Param(p), Some(ty)) = (a, sig.args.get(i)) {
                            out.entry(p.clone()).or_insert(*ty);
                        }
                    }
                }
            }
            _ => {}
        });
    };

    if let QueryBody::Select(body) = &q.body {
        // Build a name→type view across all FROM sources for the pre-pass.
        let mut col_types: HashMap<String, DataType> = HashMap::new();
        for t in &body.from {
            let schema = source_schema_for(t, catalog);
            if let Some(s) = schema {
                for c in &s {
                    col_types.entry(c.name.clone()).or_insert(c.ty);
                }
            }
        }
        let lookup = |n: &str| col_types.get(n).copied();
        for item in body.projections.iter().chain(body.group_by.iter()) {
            visit_expr(&item.expr, &lookup);
        }
        if let Some(w) = &body.where_clause {
            visit_expr(w, &lookup);
        }
        if let Some(h) = &body.having {
            visit_expr(h, &lookup);
        }
    }
    out
}

fn source_schema_for(t: &TableRef, catalog: &Catalog) -> Option<Schema> {
    if t.interface.is_some() {
        catalog.protocol_schema(&t.name)
    } else if let Some(s) = catalog.stream(&t.name) {
        Some(s.clone())
    } else {
        catalog.protocol_schema(&t.name)
    }
}

// ----------------------------------------------------------------------
// Analysis context.
// ----------------------------------------------------------------------

struct Context<'a> {
    catalog: &'a Catalog,
    param_types: HashMap<String, DataType>,
    warnings: Vec<String>,
}

/// Column resolution environment: bindings over a concatenated schema.
struct Env {
    /// `(binding name, start offset, schema)` per FROM source.
    bindings: Vec<(String, usize, Schema)>,
}

impl Env {
    fn total_schema(&self) -> Schema {
        let mut s = Schema::new();
        for (_, _, sch) in &self.bindings {
            s.extend(sch.iter().cloned());
        }
        s
    }

    fn resolve_column(
        &self,
        qualifier: Option<&str>,
        name: &str,
    ) -> Result<(usize, DataType), GsqlError> {
        let mut hits = Vec::new();
        for (binding, off, schema) in &self.bindings {
            if let Some(q) = qualifier {
                if q != binding {
                    continue;
                }
            }
            if let Some(i) = schema.iter().position(|c| c.name == name) {
                hits.push((off + i, schema[i].ty));
            }
        }
        match hits.len() {
            0 => Err(GsqlError::analyze(match qualifier {
                Some(q) => format!("unknown column `{q}.{name}`"),
                None => format!("unknown column `{name}`"),
            })),
            1 => Ok(hits[0]),
            _ => Err(GsqlError::analyze(format!("ambiguous column `{name}`"))),
        }
    }
}

impl<'a> Context<'a> {
    // ---- sources -------------------------------------------------------

    fn scan_plan(&mut self, t: &TableRef) -> Result<Plan, GsqlError> {
        if let Some(iface) = &t.interface {
            let ifd = self.catalog.interface(iface).ok_or_else(|| {
                GsqlError::analyze(format!("unknown interface `{iface}`"))
            })?;
            let schema = self.catalog.protocol_schema(&t.name).ok_or_else(|| {
                GsqlError::analyze(format!("unknown protocol `{}`", t.name))
            })?;
            return Ok(Plan::ProtocolScan {
                interface: ifd.name.clone(),
                protocol: t.name.clone(),
                schema,
            });
        }
        if let Some(schema) = self.catalog.stream(&t.name) {
            return Ok(Plan::StreamScan { stream: t.name.clone(), schema: schema.clone() });
        }
        if let Some(schema) = self.catalog.protocol_schema(&t.name) {
            let ifd = self.catalog.default_interface().ok_or_else(|| {
                GsqlError::analyze(format!(
                    "protocol `{}` used without an interface and no default interface exists",
                    t.name
                ))
            })?;
            return Ok(Plan::ProtocolScan {
                interface: ifd.name.clone(),
                protocol: t.name.clone(),
                schema,
            });
        }
        Err(GsqlError::analyze(format!("unknown stream or protocol `{}`", t.name)))
    }

    // ---- expressions ---------------------------------------------------

    fn resolve_expr(&mut self, e: &Expr, env: &Env) -> Result<PExpr, GsqlError> {
        match e {
            Expr::Column { qualifier, name } => {
                let (index, ty) = env.resolve_column(qualifier.as_deref(), name)?;
                Ok(PExpr::Col { index, ty })
            }
            Expr::UIntLit(v) => Ok(PExpr::Lit(Literal::UInt(*v))),
            Expr::FloatLit(v) => Ok(PExpr::Lit(Literal::Float(*v))),
            Expr::StrLit(s) => Ok(PExpr::Lit(Literal::Str(s.clone()))),
            Expr::IpLit(v) => Ok(PExpr::Lit(Literal::Ip(*v))),
            Expr::BoolLit(b) => Ok(PExpr::Lit(Literal::Bool(*b))),
            Expr::Param(p) => Ok(PExpr::Param {
                name: p.clone(),
                ty: self.param_types.get(p).copied().unwrap_or(DataType::UInt),
            }),
            Expr::Star => Err(GsqlError::analyze("`*` is only valid inside count(*)")),
            Expr::Unary { op: UnOp::Not, arg } => {
                let arg = self.resolve_expr(arg, env)?;
                if arg.ty() != DataType::Bool {
                    return Err(GsqlError::analyze("NOT requires a boolean operand"));
                }
                Ok(PExpr::Unary { op: UnOp::Not, arg: Box::new(arg) })
            }
            Expr::Binary { op, left, right } => {
                let l = self.resolve_expr(left, env)?;
                let r = self.resolve_expr(right, env)?;
                let ty = binary_result_type(*op, l.ty(), r.ty())?;
                Ok(PExpr::Binary { op: *op, left: Box::new(l), right: Box::new(r), ty })
            }
            Expr::Func { name, args } => {
                let sig = self
                    .catalog
                    .udf(name)
                    .ok_or_else(|| GsqlError::analyze(format!("unknown function `{name}`")))?
                    .clone();
                if args.len() != sig.args.len() {
                    return Err(GsqlError::analyze(format!(
                        "function `{name}` takes {} arguments, got {}",
                        sig.args.len(),
                        args.len()
                    )));
                }
                let mut pargs = Vec::with_capacity(args.len());
                for (i, a) in args.iter().enumerate() {
                    let pa = self.resolve_expr(a, env)?;
                    if pa.ty() != sig.args[i] {
                        return Err(GsqlError::analyze(format!(
                            "argument {} of `{name}` must be {}, got {}",
                            i + 1,
                            sig.args[i],
                            pa.ty()
                        )));
                    }
                    if sig.handle_params.contains(&i)
                        && !matches!(pa, PExpr::Lit(_) | PExpr::Param { .. })
                    {
                        return Err(GsqlError::analyze(format!(
                            "argument {} of `{name}` is pass-by-handle and must be a literal \
                             or query parameter",
                            i + 1
                        )));
                    }
                    pargs.push(pa);
                }
                Ok(PExpr::Call {
                    udf: name.clone(),
                    args: pargs,
                    ret: sig.ret,
                    partial: sig.partial,
                })
            }
            Expr::Agg { .. } => Err(GsqlError::analyze(
                "aggregate used where none is allowed (WHERE / GROUP BY / join predicates)",
            )),
        }
    }

    // ---- SELECT --------------------------------------------------------

    fn analyze_select(&mut self, body: &SelectBody) -> Result<Plan, GsqlError> {
        match body.from.len() {
            0 => Err(GsqlError::analyze("FROM clause is empty")),
            1 => self.analyze_single_source(body),
            2 => self.analyze_join(body),
            n => Err(GsqlError::analyze(format!(
                "joins are restricted to two streams, got {n} (compose queries instead)"
            ))),
        }
    }

    fn analyze_single_source(&mut self, body: &SelectBody) -> Result<Plan, GsqlError> {
        let scan = self.scan_plan(&body.from[0])?;
        let env = Env {
            bindings: vec![(body.from[0].binding().to_string(), 0, scan.schema().clone())],
        };

        let mut plan = scan;
        if let Some(w) = &body.where_clause {
            if w.contains_agg() {
                return Err(GsqlError::analyze("aggregates are not allowed in WHERE"));
            }
            let pred = self.resolve_expr(w, &env)?;
            if pred.ty() != DataType::Bool {
                return Err(GsqlError::analyze("WHERE predicate must be boolean"));
            }
            plan = Plan::Filter { pred, input: Box::new(plan) };
        }

        let has_aggs = body.projections.iter().any(|p| p.expr.contains_agg())
            || !body.group_by.is_empty()
            || body.having.is_some();
        if has_aggs {
            self.analyze_aggregation(body, plan, &env)
        } else {
            let input_schema = env.total_schema();
            let mut cols = Vec::new();
            let mut schema = Schema::new();
            for (i, item) in body.projections.iter().enumerate() {
                let pe = self.resolve_expr(&item.expr, &env)?;
                let name = output_name(item, i, &input_schema, &pe);
                schema.push(ColumnInfo {
                    name: name.clone(),
                    ty: pe.ty(),
                    order: impute_order(&pe, &input_schema),
                });
                cols.push((name, pe));
            }
            Ok(Plan::Project { cols, input: Box::new(plan), schema })
        }
    }

    fn analyze_aggregation(
        &mut self,
        body: &SelectBody,
        input: Plan,
        env: &Env,
    ) -> Result<Plan, GsqlError> {
        let input_schema = env.total_schema();

        // Resolve the grouping expressions.
        let mut group: Vec<(String, PExpr)> = Vec::new();
        for (i, item) in body.group_by.iter().enumerate() {
            if item.expr.contains_agg() {
                return Err(GsqlError::analyze("aggregates are not allowed in GROUP BY"));
            }
            let pe = self.resolve_expr(&item.expr, env)?;
            let name = output_name(item, i, &input_schema, &pe);
            group.push((name, pe));
        }

        // Resolve projections/HAVING over the aggregate output, discovering
        // the aggregate specs along the way.
        let mut aggs: Vec<AggSpec> = Vec::new();
        let mut out_cols: Vec<(String, PExpr)> = Vec::new();
        for (i, item) in body.projections.iter().enumerate() {
            let pe = self.resolve_agg_output(&item.expr, env, &group, &mut aggs)?;
            let name = match &item.alias {
                Some(a) => a.clone(),
                None => agg_output_name(&item.expr, i, &input_schema, &group, &pe),
            };
            out_cols.push((name, pe));
        }
        let having = match &body.having {
            Some(h) => {
                let pred = self.resolve_agg_output(h, env, &group, &mut aggs)?;
                if pred.ty() != DataType::Bool {
                    return Err(GsqlError::analyze("HAVING predicate must be boolean"));
                }
                Some(pred)
            }
            None => None,
        };

        // Aggregate output schema: group columns then aggregate columns.
        let mut agg_schema = Schema::new();
        let mut flush_group_idx = None;
        for (i, (name, pe)) in group.iter().enumerate() {
            let order = impute_order(pe, &input_schema);
            if flush_group_idx.is_none() && order.is_progressing() {
                flush_group_idx = Some(i);
            }
            // Closed groups are flushed as the ordered attribute advances,
            // so the flush column is nondecreasing in the output; other
            // group columns have no inherited order across groups.
            agg_schema.push(ColumnInfo { name: name.clone(), ty: pe.ty(), order });
        }
        for a in &aggs {
            agg_schema.push(ColumnInfo { name: a.name.clone(), ty: a.ty, order: OrderProp::None });
        }
        if flush_group_idx.is_none() {
            self.warnings.push(
                "aggregation has no ordered group-by attribute: groups can only be \
                 flushed at end of stream (the paper warns but permits this)"
                    .to_string(),
            );
        }

        let mut plan = Plan::Aggregate {
            group,
            aggs,
            flush_group_idx,
            input: Box::new(input),
            schema: agg_schema.clone(),
        };
        if let Some(pred) = having {
            plan = Plan::Filter { pred, input: Box::new(plan) };
        }
        // Reorder/compute the final projection over the aggregate output.
        let mut schema = Schema::new();
        for (name, pe) in &out_cols {
            schema.push(ColumnInfo {
                name: name.clone(),
                ty: pe.ty(),
                order: impute_order(pe, &agg_schema),
            });
        }
        Ok(Plan::Project { cols: out_cols, input: Box::new(plan), schema })
    }

    /// Resolve an expression in the post-aggregation context: group
    /// expressions become columns `0..n_group`, aggregates become columns
    /// `n_group..`, anything else recurses; bare input columns not in the
    /// group are errors.
    fn resolve_agg_output(
        &mut self,
        e: &Expr,
        env: &Env,
        group: &[(String, PExpr)],
        aggs: &mut Vec<AggSpec>,
    ) -> Result<PExpr, GsqlError> {
        // Group alias or identical expression?
        if let Expr::Column { qualifier: None, name } = e {
            if let Some(i) = group.iter().position(|(n, _)| n == name) {
                return Ok(PExpr::Col { index: i, ty: group[i].1.ty() });
            }
        }
        if let Ok(resolved) = self.try_resolve_quiet(e, env) {
            if let Some(i) = group.iter().position(|(_, g)| *g == resolved) {
                return Ok(PExpr::Col { index: i, ty: group[i].1.ty() });
            }
        }
        match e {
            Expr::Agg { func, arg } => {
                let parg = match arg {
                    Some(a) => {
                        if a.contains_agg() {
                            return Err(GsqlError::analyze("aggregates cannot be nested"));
                        }
                        Some(self.resolve_expr(a, env)?)
                    }
                    None => None,
                };
                let ty = agg_result_type(*func, parg.as_ref())?;
                // Reuse an identical aggregate if present.
                let idx = aggs
                    .iter()
                    .position(|s| s.func == *func && s.arg == parg)
                    .unwrap_or_else(|| {
                        let name = unique_agg_name(func.name(), aggs, group);
                        aggs.push(AggSpec { name, func: *func, arg: parg, ty });
                        aggs.len() - 1
                    });
                Ok(PExpr::Col { index: group.len() + idx, ty: aggs[idx].ty })
            }
            Expr::Binary { op, left, right } => {
                let l = self.resolve_agg_output(left, env, group, aggs)?;
                let r = self.resolve_agg_output(right, env, group, aggs)?;
                let ty = binary_result_type(*op, l.ty(), r.ty())?;
                Ok(PExpr::Binary { op: *op, left: Box::new(l), right: Box::new(r), ty })
            }
            Expr::Unary { op, arg } => {
                let a = self.resolve_agg_output(arg, env, group, aggs)?;
                if a.ty() != DataType::Bool {
                    return Err(GsqlError::analyze("NOT requires a boolean operand"));
                }
                Ok(PExpr::Unary { op: *op, arg: Box::new(a) })
            }
            Expr::Func { name, args } => {
                let sig = self
                    .catalog
                    .udf(name)
                    .ok_or_else(|| GsqlError::analyze(format!("unknown function `{name}`")))?
                    .clone();
                if args.len() != sig.args.len() {
                    return Err(GsqlError::analyze(format!(
                        "function `{name}` takes {} arguments, got {}",
                        sig.args.len(),
                        args.len()
                    )));
                }
                let mut pargs = Vec::new();
                for (i, a) in args.iter().enumerate() {
                    let pa = self.resolve_agg_output(a, env, group, aggs)?;
                    if pa.ty() != sig.args[i] {
                        return Err(GsqlError::analyze(format!(
                            "argument {} of `{name}` must be {}, got {}",
                            i + 1,
                            sig.args[i],
                            pa.ty()
                        )));
                    }
                    pargs.push(pa);
                }
                Ok(PExpr::Call { udf: name.clone(), args: pargs, ret: sig.ret, partial: sig.partial })
            }
            Expr::Column { .. } => Err(GsqlError::analyze(format!(
                "column in SELECT must appear in GROUP BY or inside an aggregate: {e:?}"
            ))),
            // Literals and params resolve as usual.
            other => self.resolve_expr(other, env),
        }
    }

    fn try_resolve_quiet(&mut self, e: &Expr, env: &Env) -> Result<PExpr, GsqlError> {
        if e.contains_agg() {
            return Err(GsqlError::analyze("contains aggregate"));
        }
        self.resolve_expr(e, env)
    }

    // ---- JOIN ----------------------------------------------------------

    fn analyze_join(&mut self, body: &SelectBody) -> Result<Plan, GsqlError> {
        if !body.group_by.is_empty()
            || body.having.is_some()
            || body.projections.iter().any(|p| p.expr.contains_agg())
        {
            return Err(GsqlError::analyze(
                "aggregation over a join must be expressed as a composed query \
                 (aggregate the join's named output)",
            ));
        }
        let left = self.scan_plan(&body.from[0])?;
        let right = self.scan_plan(&body.from[1])?;
        let lb = body.from[0].binding().to_string();
        let rb = body.from[1].binding().to_string();
        if lb == rb {
            return Err(GsqlError::analyze("join sides must have distinct binding names"));
        }
        let n_left = left.schema().len();
        let env = Env {
            bindings: vec![
                (lb, 0, left.schema().clone()),
                (rb, n_left, right.schema().clone()),
            ],
        };

        let where_expr = body.where_clause.as_ref().ok_or_else(|| {
            GsqlError::analyze("join requires a WHERE clause with an ordered-attribute window")
        })?;
        if where_expr.contains_agg() {
            return Err(GsqlError::analyze("aggregates are not allowed in WHERE"));
        }
        let mut window: Option<JoinWindow> = None;
        let mut residual: Vec<PExpr> = Vec::new();
        for conj in where_expr.conjuncts() {
            let pe = self.resolve_expr(conj, &env)?;
            if pe.ty() != DataType::Bool {
                return Err(GsqlError::analyze("WHERE conjunct must be boolean"));
            }
            if !try_absorb_window(&pe, n_left, left.schema(), right.schema(), &mut window) {
                residual.push(pe);
            }
        }
        let window = window.ok_or_else(|| {
            GsqlError::analyze(
                "join predicate must constrain an ordered attribute from each stream \
                 to define a join window (paper §2.1)",
            )
        })?;
        if window.lo > window.hi {
            return Err(GsqlError::analyze(format!(
                "join window is empty: [{}, {}]",
                window.lo, window.hi
            )));
        }

        let concat_schema = env.total_schema();
        let mut cols = Vec::new();
        let mut schema = Schema::new();
        for (i, item) in body.projections.iter().enumerate() {
            let pe = self.resolve_expr(&item.expr, &env)?;
            let name = output_name(item, i, &concat_schema, &pe);
            // Join ordering imputation (§2.1): the window column stays
            // monotone for equality windows and becomes banded for band
            // windows (band = window width, the banded-emit algorithm).
            let order = match &pe {
                PExpr::Col { index, .. }
                    if *index == window.left_col || *index == n_left + window.right_col =>
                {
                    if window.lo == window.hi {
                        OrderProp::Increasing { strict: false }
                    } else {
                        OrderProp::BandedIncreasing { band: (window.hi - window.lo) as u64 }
                    }
                }
                _ => OrderProp::None,
            };
            schema.push(ColumnInfo { name: name.clone(), ty: pe.ty(), order });
            cols.push((name, pe));
        }

        Ok(Plan::Join {
            left: Box::new(left),
            right: Box::new(right),
            window,
            residual: and_fold(residual),
            cols,
            schema,
        })
    }

    // ---- MERGE ---------------------------------------------------------

    fn analyze_merge(&mut self, body: &crate::ast::MergeBody) -> Result<Plan, GsqlError> {
        if body.from.len() < 2 {
            return Err(GsqlError::analyze("MERGE requires at least two input streams"));
        }
        if body.columns.len() != body.from.len() {
            return Err(GsqlError::analyze(format!(
                "MERGE lists {} columns but has {} input streams",
                body.columns.len(),
                body.from.len()
            )));
        }
        let mut inputs = Vec::new();
        for t in &body.from {
            inputs.push(self.scan_plan(t)?);
        }
        // All schemas must agree (names and types).
        let first = inputs[0].schema().clone();
        for (i, p) in inputs.iter().enumerate().skip(1) {
            let s = p.schema();
            if s.len() != first.len()
                || s.iter()
                    .zip(first.iter())
                    .any(|(a, b)| a.name != b.name || a.ty != b.ty)
            {
                return Err(GsqlError::analyze(format!(
                    "MERGE inputs must have identical schemas; input {} differs",
                    i + 1
                )));
            }
        }
        // Resolve the merge columns: one per input, same index everywhere.
        let mut on_col = None;
        for ((stream, col), t) in body.columns.iter().zip(&body.from) {
            if stream != t.binding() {
                return Err(GsqlError::analyze(format!(
                    "MERGE column `{stream}.{col}` does not match input `{}` \
                     (columns must be listed in FROM order)",
                    t.binding()
                )));
            }
            let idx = first
                .iter()
                .position(|c| c.name == *col)
                .ok_or_else(|| GsqlError::analyze(format!("unknown MERGE column `{col}`")))?;
            match on_col {
                None => on_col = Some(idx),
                Some(prev) if prev != idx => {
                    return Err(GsqlError::analyze(
                        "MERGE columns must be the same attribute in every input",
                    ))
                }
                _ => {}
            }
        }
        let on_col = on_col.expect("at least two inputs");
        // The merge attribute must progress in every input.
        let mut order = inputs[0].schema()[on_col].order.clone();
        if !order.is_progressing() {
            return Err(GsqlError::analyze(format!(
                "MERGE attribute `{}` has no usable ordering property",
                first[on_col].name
            )));
        }
        for p in inputs.iter().skip(1) {
            let o = &p.schema()[on_col].order;
            if !o.is_progressing() {
                return Err(GsqlError::analyze(format!(
                    "MERGE attribute `{}` is not ordered in every input",
                    first[on_col].name
                )));
            }
            order = order.merge_meet(o);
        }
        let mut schema = first;
        schema[on_col].order = order;
        Ok(Plan::Merge { inputs, on_col, schema })
    }
}

// ----------------------------------------------------------------------
// Window extraction.
// ----------------------------------------------------------------------

/// Try to interpret `pe` as a window constraint between an ordered left
/// column and an ordered right column; fold it into `window` and return
/// `true` if so.
fn try_absorb_window(
    pe: &PExpr,
    n_left: usize,
    left_schema: &Schema,
    right_schema: &Schema,
    window: &mut Option<JoinWindow>,
) -> bool {
    let PExpr::Binary { op, left, right, .. } = pe else { return false };
    // Normalize each side into (col_index, constant offset).
    let Some((a_col, a_off)) = col_plus_const(left) else { return false };
    let Some((b_col, b_off)) = col_plus_const(right) else { return false };
    // One side must be a left column, the other a right column.
    let (lc, l_off, rc, r_off, op) = if a_col < n_left && b_col >= n_left {
        (a_col, a_off, b_col - n_left, b_off, *op)
    } else if b_col < n_left && a_col >= n_left {
        // Mirror the comparison.
        let m = match *op {
            BinOp::Lt => BinOp::Gt,
            BinOp::Le => BinOp::Ge,
            BinOp::Gt => BinOp::Lt,
            BinOp::Ge => BinOp::Le,
            other => other,
        };
        (b_col, b_off, a_col - n_left, a_off, m)
    } else {
        return false;
    };
    // Both columns must be ordered attributes.
    if !left_schema[lc].order.is_progressing() || !right_schema[rc].order.is_progressing() {
        return false;
    }
    // Constraint: (L + l_off) op (R + r_off)  ⇒  d = L - R  op  (r_off - l_off).
    let k = r_off - l_off;
    let (lo, hi) = match op {
        BinOp::Eq => (Some(k), Some(k)),
        BinOp::Le => (None, Some(k)),
        BinOp::Lt => (None, Some(k - 1)),
        BinOp::Ge => (Some(k), None),
        BinOp::Gt => (Some(k + 1), None),
        _ => return false,
    };
    match window {
        None => {
            *window = Some(JoinWindow {
                left_col: lc,
                right_col: rc,
                lo: lo.unwrap_or(i64::MIN),
                hi: hi.unwrap_or(i64::MAX),
            });
        }
        Some(w) => {
            if w.left_col != lc || w.right_col != rc {
                return false; // a second pair of ordered columns: leave as residual
            }
            if let Some(lo) = lo {
                w.lo = w.lo.max(lo);
            }
            if let Some(hi) = hi {
                w.hi = w.hi.min(hi);
            }
        }
    }
    true
}

/// Decompose `col`, `col + k`, `col - k` into `(index, signed offset)`.
fn col_plus_const(e: &PExpr) -> Option<(usize, i64)> {
    match e {
        PExpr::Col { index, .. } => Some((*index, 0)),
        PExpr::Binary { op, left, right, .. } => {
            let (col, lit) = match (&**left, &**right) {
                (PExpr::Col { index, .. }, PExpr::Lit(Literal::UInt(k))) => (*index, *k as i64),
                (PExpr::Lit(Literal::UInt(k)), PExpr::Col { index, .. })
                    if *op == BinOp::Add =>
                {
                    (*index, *k as i64)
                }
                _ => return None,
            };
            match op {
                BinOp::Add => Some((col, lit)),
                BinOp::Sub => Some((col, -lit)),
                _ => None,
            }
        }
        _ => None,
    }
}

// ----------------------------------------------------------------------
// Types and names.
// ----------------------------------------------------------------------

fn unify_numeric(a: DataType, b: DataType) -> Option<DataType> {
    match (a, b) {
        (DataType::UInt, DataType::UInt) => Some(DataType::UInt),
        (DataType::Float, DataType::Float)
        | (DataType::Float, DataType::UInt)
        | (DataType::UInt, DataType::Float) => Some(DataType::Float),
        _ => None,
    }
}

fn binary_result_type(op: BinOp, l: DataType, r: DataType) -> Result<DataType, GsqlError> {
    use BinOp::*;
    match op {
        Add | Sub | Mul | Div | Mod => unify_numeric(l, r).ok_or_else(|| {
            GsqlError::analyze(format!("arithmetic requires numeric operands, got {l} and {r}"))
        }),
        BitAnd | BitOr | BitXor => {
            if l == DataType::UInt && r == DataType::UInt {
                Ok(DataType::UInt)
            } else {
                Err(GsqlError::analyze("bit operations require uint operands"))
            }
        }
        And | Or => {
            if l == DataType::Bool && r == DataType::Bool {
                Ok(DataType::Bool)
            } else {
                Err(GsqlError::analyze("AND/OR require boolean operands"))
            }
        }
        Eq | Ne | Lt | Le | Gt | Ge => {
            let comparable = l == r || unify_numeric(l, r).is_some();
            if !comparable {
                return Err(GsqlError::analyze(format!("cannot compare {l} with {r}")));
            }
            if matches!(op, Lt | Le | Gt | Ge) && !l.is_ordered() && l == r {
                return Err(GsqlError::analyze(format!("{l} values are not ordered")));
            }
            Ok(DataType::Bool)
        }
    }
}

fn agg_result_type(func: AggFunc, arg: Option<&PExpr>) -> Result<DataType, GsqlError> {
    match (func, arg) {
        (AggFunc::Count, _) => Ok(DataType::UInt),
        (AggFunc::Sum, Some(a)) => {
            if a.ty().is_numeric() {
                Ok(a.ty())
            } else {
                Err(GsqlError::analyze("sum() requires a numeric argument"))
            }
        }
        (AggFunc::Avg, Some(a)) => {
            if a.ty().is_numeric() {
                Ok(DataType::Float)
            } else {
                Err(GsqlError::analyze("avg() requires a numeric argument"))
            }
        }
        (AggFunc::Min | AggFunc::Max, Some(a)) => {
            if a.ty().is_ordered() {
                Ok(a.ty())
            } else {
                Err(GsqlError::analyze("min()/max() require an ordered argument"))
            }
        }
        (f, None) => Err(GsqlError::analyze(format!("{f}() requires an argument"))),
    }
}

/// Name for a projected column: the alias, else the bare column name, else
/// a synthesized `f<i>`.
fn output_name(item: &SelectItem, i: usize, _schema: &Schema, _pe: &PExpr) -> String {
    if let Some(a) = &item.alias {
        return a.clone();
    }
    if let Expr::Column { name, .. } = &item.expr {
        return name.clone();
    }
    format!("f{i}")
}

fn agg_output_name(
    e: &Expr,
    i: usize,
    _schema: &Schema,
    _group: &[(String, PExpr)],
    _pe: &PExpr,
) -> String {
    match e {
        Expr::Column { name, .. } => name.clone(),
        Expr::Agg { func, .. } => func.name().to_string(),
        _ => format!("f{i}"),
    }
}

fn unique_agg_name(base: &str, aggs: &[AggSpec], group: &[(String, PExpr)]) -> String {
    let taken =
        |n: &str| aggs.iter().any(|a| a.name == n) || group.iter().any(|(g, _)| g == n);
    if !taken(base) {
        return base.to_string();
    }
    for k in 2.. {
        let cand = format!("{base}_{k}");
        if !taken(&cand) {
            return cand;
        }
    }
    unreachable!("some suffix is always free")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::InterfaceDef;
    use crate::parser::parse_query;
    use gs_packet::capture::LinkType;

    fn catalog() -> Catalog {
        let mut c = Catalog::with_builtins();
        c.add_interface(InterfaceDef { name: "eth0".into(), id: 0, link: LinkType::Ethernet });
        c.add_interface(InterfaceDef { name: "eth1".into(), id: 1, link: LinkType::Ethernet });
        c
    }

    fn run(src: &str) -> AnalyzedQuery {
        analyze(&parse_query(src).unwrap(), &catalog()).unwrap()
    }

    fn run_err(src: &str) -> GsqlError {
        analyze(&parse_query(src).unwrap(), &catalog()).unwrap_err()
    }

    #[test]
    fn simple_selection_projects_with_ordering() {
        let a = run(
            "DEFINE { query_name t0; } \
             Select destIP, destPort, time From eth0.tcp \
             Where IPVersion = 4 and Protocol = 6",
        );
        assert_eq!(a.name, "t0");
        let Plan::Project { schema, input, .. } = &a.plan else { panic!("{:?}", a.plan) };
        assert_eq!(schema.len(), 3);
        assert_eq!(schema[2].name, "time");
        assert_eq!(schema[2].order, OrderProp::Increasing { strict: false });
        assert_eq!(schema[0].ty, DataType::Ip);
        assert!(matches!(**input, Plan::Filter { .. }));
    }

    #[test]
    fn bucket_expression_keeps_order() {
        let a = run("Select time/60 as tb, len From eth0.ip");
        let Plan::Project { schema, .. } = &a.plan else { panic!() };
        assert_eq!(schema[0].order, OrderProp::Increasing { strict: false });
        assert_eq!(schema[1].order, OrderProp::None);
    }

    #[test]
    fn aggregation_with_flush_column() {
        let a = run(
            "Select tb, count(*), sum(len) From eth0.ip Group By time/60 as tb",
        );
        let Plan::Project { input, .. } = &a.plan else { panic!() };
        let Plan::Aggregate { group, aggs, flush_group_idx, schema, .. } = &**input else {
            panic!("{input:?}")
        };
        assert_eq!(group.len(), 1);
        assert_eq!(aggs.len(), 2);
        assert_eq!(*flush_group_idx, Some(0));
        assert_eq!(schema[0].order, OrderProp::Increasing { strict: false });
        assert!(a.warnings.is_empty());
    }

    #[test]
    fn aggregation_without_ordered_key_warns() {
        let a = run("Select srcIP, count(*) From eth0.ip Group By srcIP");
        assert!(!a.warnings.is_empty());
        let Plan::Project { input, .. } = &a.plan else { panic!() };
        let Plan::Aggregate { flush_group_idx, .. } = &**input else { panic!() };
        assert_eq!(*flush_group_idx, None);
    }

    #[test]
    fn paper_lpm_query_analyzes() {
        let mut c = catalog();
        // Register the upstream stream as the paper's tcpdest.
        c.add_stream(
            "tcpdest",
            vec![
                ColumnInfo {
                    name: "destIP".into(),
                    ty: DataType::Ip,
                    order: OrderProp::None,
                },
                ColumnInfo {
                    name: "time".into(),
                    ty: DataType::UInt,
                    order: OrderProp::Increasing { strict: false },
                },
            ],
        );
        let q = parse_query(
            "Select peerid, tb, count(*) FROM tcpdest \
             Group by time/60 as tb, getlpmid(destIP, 'peerid.tbl') as peerid",
        )
        .unwrap();
        let a = analyze(&q, &c).unwrap();
        let Plan::Project { cols, input, .. } = &a.plan else { panic!() };
        assert_eq!(cols[0].0, "peerid");
        assert_eq!(cols[1].0, "tb");
        let Plan::Aggregate { group, flush_group_idx, .. } = &**input else { panic!() };
        // tb is group 0 in GROUP BY order, and it is the flush column.
        assert_eq!(group[0].0, "tb");
        assert_eq!(*flush_group_idx, Some(0));
        assert!(group[1].1.has_partial_call());
    }

    #[test]
    fn join_window_equality() {
        let a = run(
            "Select B.time, B.srcIP FROM eth0.tcp B, eth1.tcp C \
             WHERE B.time = C.time and B.srcIP = C.srcIP",
        );
        let Plan::Join { window, residual, schema, .. } = &a.plan else { panic!("{:?}", a.plan) };
        assert_eq!((window.lo, window.hi), (0, 0));
        assert!(residual.is_some()); // srcIP equality is residual
        assert_eq!(schema[0].order, OrderProp::Increasing { strict: false });
    }

    #[test]
    fn join_window_band() {
        let a = run(
            "Select B.time FROM eth0.tcp B, eth1.tcp C \
             WHERE B.time >= C.time - 1 and B.time <= C.time + 1",
        );
        let Plan::Join { window, schema, .. } = &a.plan else { panic!() };
        assert_eq!((window.lo, window.hi), (-1, 1));
        // Banded output ordering, band = window width (paper §2.1).
        assert_eq!(schema[0].order, OrderProp::BandedIncreasing { band: 2 });
    }

    #[test]
    fn join_without_window_rejected() {
        let e = run_err(
            "Select B.srcIP FROM eth0.tcp B, eth1.tcp C WHERE B.srcIP = C.srcIP",
        );
        assert!(e.message.contains("join window"), "{}", e.message);
    }

    #[test]
    fn three_way_join_rejected() {
        let e = run_err("Select a.time FROM eth0.tcp a, eth1.tcp b, eth0.udp c WHERE a.time = b.time");
        assert!(e.message.contains("two streams"));
    }

    #[test]
    fn merge_analyzes_and_meets_order() {
        let mut c = catalog();
        let sch = vec![ColumnInfo {
            name: "time".into(),
            ty: DataType::UInt,
            order: OrderProp::Increasing { strict: false },
        }];
        c.add_stream("tcpdest0", sch.clone());
        c.add_stream("tcpdest1", sch);
        let q = parse_query(
            "DEFINE { query_name tcpdest; } \
             Merge tcpdest0.time : tcpdest1.time From tcpdest0, tcpdest1",
        )
        .unwrap();
        let a = analyze(&q, &c).unwrap();
        let Plan::Merge { on_col, schema, inputs } = &a.plan else { panic!() };
        assert_eq!(*on_col, 0);
        assert_eq!(inputs.len(), 2);
        assert_eq!(schema[0].order, OrderProp::Increasing { strict: false });
    }

    #[test]
    fn merge_schema_mismatch_rejected() {
        let mut c = catalog();
        c.add_stream(
            "a",
            vec![ColumnInfo {
                name: "t".into(),
                ty: DataType::UInt,
                order: OrderProp::Increasing { strict: false },
            }],
        );
        c.add_stream(
            "b",
            vec![ColumnInfo {
                name: "t".into(),
                ty: DataType::Float,
                order: OrderProp::Increasing { strict: false },
            }],
        );
        let q = parse_query("Merge a.t : b.t From a, b").unwrap();
        let e = analyze(&q, &c).unwrap_err();
        assert!(e.message.contains("identical schemas"));
    }

    #[test]
    fn merge_unordered_column_rejected() {
        let mut c = catalog();
        let sch = vec![ColumnInfo { name: "x".into(), ty: DataType::UInt, order: OrderProp::None }];
        c.add_stream("a", sch.clone());
        c.add_stream("b", sch);
        let q = parse_query("Merge a.x : b.x From a, b").unwrap();
        assert!(analyze(&q, &c).is_err());
    }

    #[test]
    fn param_types_inferred() {
        let a = run("Select time From eth0.tcp Where destPort = $port");
        assert_eq!(a.params, vec![("port".into(), DataType::UInt)]);
        let a = run("Select time From eth0.tcp Where srcIP = $net");
        assert_eq!(a.params, vec![("net".into(), DataType::Ip)]);
    }

    #[test]
    fn type_errors_detected() {
        assert!(run_err("Select time + srcIP From eth0.tcp").message.contains("numeric"));
        assert!(run_err("Select time From eth0.tcp Where payload = 4")
            .message
            .contains("compare"));
        assert!(run_err("Select time From eth0.tcp Where time").message.contains("boolean"));
        assert!(run_err("Select sum(payload) From eth0.tcp Group By time").message.contains("numeric"));
    }

    #[test]
    fn unknown_names_detected() {
        assert!(run_err("Select nosuch From eth0.tcp").message.contains("unknown column"));
        assert!(run_err("Select time From eth9.tcp").message.contains("unknown interface"));
        assert!(run_err("Select time From eth0.nosuch").message.contains("unknown protocol"));
        assert!(run_err("Select f(time) From eth0.tcp").message.contains("unknown function"));
    }

    #[test]
    fn unknown_stream_rejected_without_panic() {
        // A bare FROM name that is neither a registered stream nor a
        // protocol must fail analysis cleanly, not unwind.
        let e = run_err("Select time From nosuchstream");
        assert!(e.message.contains("unknown stream or protocol"), "{}", e.message);
        // Merge over an undefined stream takes the same path.
        let e = analyze(
            &parse_query("Merge a.time : b.time From nostream_a a, nostream_b b").unwrap(),
            &catalog(),
        )
        .unwrap_err();
        assert!(e.message.contains("unknown"), "{}", e.message);
    }

    #[test]
    fn protocol_without_default_interface_rejected() {
        // An interface-less catalog cannot resolve a bare protocol scan.
        let bare = Catalog::with_builtins();
        let e = analyze(&parse_query("Select time From tcp").unwrap(), &bare).unwrap_err();
        assert!(e.message.contains("no default interface"), "{}", e.message);
    }

    #[test]
    fn bare_column_outside_group_rejected() {
        let e = run_err("Select srcIP, count(*) From eth0.ip Group By destIP");
        assert!(e.message.contains("GROUP BY"), "{}", e.message);
    }

    #[test]
    fn handle_param_must_be_literal() {
        let e = run_err("Select getlpmid(destIP, payload) From eth0.tcp");
        assert!(e.message.contains("pass-by-handle"), "{}", e.message);
    }

    #[test]
    fn ratio_of_aggregates() {
        // The Babcock Q3 shape: a ratio of two aggregates over one stream.
        let a = run(
            "Select tb, to_float(sum(len)) / to_float(count(*)) as avglen \
             From eth0.ip Group By time/60 as tb",
        );
        let Plan::Project { schema, input, .. } = &a.plan else { panic!() };
        assert_eq!(schema[1].ty, DataType::Float);
        let Plan::Aggregate { aggs, .. } = &**input else { panic!() };
        assert_eq!(aggs.len(), 2);
    }

    #[test]
    fn duplicate_aggregates_are_shared() {
        let a = run("Select count(*), count(*) From eth0.ip Group By time");
        let Plan::Project { input, .. } = &a.plan else { panic!() };
        let Plan::Aggregate { aggs, .. } = &**input else { panic!() };
        assert_eq!(aggs.len(), 1);
    }

    #[test]
    fn default_interface_used_for_bare_protocol() {
        let a = run("Select time From tcp");
        let Plan::Project { input, .. } = &a.plan else { panic!() };
        let Plan::ProtocolScan { interface, .. } = &**input else { panic!("{input:?}") };
        assert_eq!(interface, "eth0");
    }

    #[test]
    fn having_filters_after_aggregate() {
        let a = run("Select tb, count(*) From eth0.ip Group By time/60 as tb Having count(*) > 10");
        let Plan::Project { input, .. } = &a.plan else { panic!() };
        assert!(matches!(**input, Plan::Filter { .. }));
    }
}
