//! Logical query plans.
//!
//! The analyzer lowers an AST into a [`Plan`] tree whose expressions
//! ([`PExpr`]) reference input columns by index and whose every node knows
//! its output [`Schema`] — column names, types, and imputed ordering
//! properties. The optimizer (split/pushdown) rewrites these trees; the
//! runtime compiles them into operators.

use crate::ast::{AggFunc, BinOp, UnOp};
use crate::ordering::OrderProp;
use crate::types::DataType;

/// One output column: name, type, and imputed ordering property.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnInfo {
    /// Column name (alias or derived).
    pub name: String,
    /// Value type.
    pub ty: DataType,
    /// Imputed ordering property within the output stream.
    pub order: OrderProp,
}

/// An output schema.
pub type Schema = Vec<ColumnInfo>;

/// A literal constant.
#[derive(Debug, Clone, PartialEq)]
pub enum Literal {
    /// Boolean.
    Bool(bool),
    /// Unsigned integer.
    UInt(u64),
    /// Float.
    Float(f64),
    /// String.
    Str(String),
    /// IPv4 address.
    Ip(u32),
}

impl Literal {
    /// The literal's type.
    pub fn ty(&self) -> DataType {
        match self {
            Literal::Bool(_) => DataType::Bool,
            Literal::UInt(_) => DataType::UInt,
            Literal::Float(_) => DataType::Float,
            Literal::Str(_) => DataType::Str,
            Literal::Ip(_) => DataType::Ip,
        }
    }
}

/// A resolved, typed expression over an input schema.
#[derive(Debug, Clone, PartialEq)]
pub enum PExpr {
    /// Input column by index.
    Col {
        /// Index into the input schema (for joins, left columns then right).
        index: usize,
        /// Type of the column.
        ty: DataType,
    },
    /// Constant.
    Lit(Literal),
    /// Query parameter, bound at instantiation.
    Param {
        /// Parameter name (without the `$`).
        name: String,
        /// Inferred type.
        ty: DataType,
    },
    /// Unary operation.
    Unary {
        /// Operator.
        op: UnOp,
        /// Operand.
        arg: Box<PExpr>,
    },
    /// Binary operation.
    Binary {
        /// Operator.
        op: BinOp,
        /// Left operand.
        left: Box<PExpr>,
        /// Right operand.
        right: Box<PExpr>,
        /// Result type.
        ty: DataType,
    },
    /// Resolved UDF call.
    Call {
        /// Function name (the runtime resolves the implementation).
        udf: String,
        /// Arguments; pass-by-handle positions hold literals/params only.
        args: Vec<PExpr>,
        /// Return type.
        ret: DataType,
        /// Whether the function is *partial*: no result discards the tuple
        /// (the paper's foreign-key-join-like semantics).
        partial: bool,
    },
}

impl PExpr {
    /// The expression's result type.
    pub fn ty(&self) -> DataType {
        match self {
            PExpr::Col { ty, .. } => *ty,
            PExpr::Lit(l) => l.ty(),
            PExpr::Param { ty, .. } => *ty,
            PExpr::Unary { .. } => DataType::Bool,
            PExpr::Binary { ty, .. } => *ty,
            PExpr::Call { ret, .. } => *ret,
        }
    }

    /// Visit all subexpressions pre-order.
    pub fn walk<'a>(&'a self, f: &mut dyn FnMut(&'a PExpr)) {
        f(self);
        match self {
            PExpr::Unary { arg, .. } => arg.walk(f),
            PExpr::Binary { left, right, .. } => {
                left.walk(f);
                right.walk(f);
            }
            PExpr::Call { args, .. } => {
                for a in args {
                    a.walk(f);
                }
            }
            _ => {}
        }
    }

    /// Indices of all input columns this expression reads.
    pub fn columns_used(&self) -> Vec<usize> {
        let mut cols = Vec::new();
        self.walk(&mut |e| {
            if let PExpr::Col { index, .. } = e {
                cols.push(*index);
            }
        });
        cols.sort_unstable();
        cols.dedup();
        cols
    }

    /// Whether any partial UDF appears (evaluation may discard the tuple).
    pub fn has_partial_call(&self) -> bool {
        let mut found = false;
        self.walk(&mut |e| {
            if matches!(e, PExpr::Call { partial: true, .. }) {
                found = true;
            }
        });
        found
    }

    /// Whether any UDF call appears at all.
    pub fn has_call(&self) -> bool {
        let mut found = false;
        self.walk(&mut |e| {
            if matches!(e, PExpr::Call { .. }) {
                found = true;
            }
        });
        found
    }

    /// Rewrite column indices through `map` (new index = `map[old]`).
    /// Panics if a used column is absent from the map — the optimizer only
    /// remaps expressions whose columns it has arranged to keep.
    pub fn remap_columns(&self, map: &std::collections::HashMap<usize, usize>) -> PExpr {
        match self {
            PExpr::Col { index, ty } => PExpr::Col {
                index: *map.get(index).expect("remap covers all used columns"),
                ty: *ty,
            },
            PExpr::Lit(l) => PExpr::Lit(l.clone()),
            PExpr::Param { name, ty } => PExpr::Param { name: name.clone(), ty: *ty },
            PExpr::Unary { op, arg } => {
                PExpr::Unary { op: *op, arg: Box::new(arg.remap_columns(map)) }
            }
            PExpr::Binary { op, left, right, ty } => PExpr::Binary {
                op: *op,
                left: Box::new(left.remap_columns(map)),
                right: Box::new(right.remap_columns(map)),
                ty: *ty,
            },
            PExpr::Call { udf, args, ret, partial } => PExpr::Call {
                udf: udf.clone(),
                args: args.iter().map(|a| a.remap_columns(map)).collect(),
                ret: *ret,
                partial: *partial,
            },
        }
    }
}

/// One aggregate computation within an Aggregate node.
#[derive(Debug, Clone, PartialEq)]
pub struct AggSpec {
    /// Output column name.
    pub name: String,
    /// The aggregate function.
    pub func: AggFunc,
    /// Aggregated input expression (`None` = `count(*)`).
    pub arg: Option<PExpr>,
    /// Output type.
    pub ty: DataType,
}

/// Split a join's residual conjuncts the way the executor does: cross-side
/// equality conjuncts `Eq(Col(left), Col(right))` over two columns of the
/// same type become hash-key pairs `(left col, right col)`, everything
/// else stays residual — a `uint = float` conjunct included, so the
/// predicate's own `=` decides it. Shared by the operator builder and
/// EXPLAIN so the two can never drift.
pub fn split_join_conjuncts(residual: &PExpr, n_left: usize) -> (Vec<(usize, usize)>, Vec<PExpr>) {
    let mut eq_keys = Vec::new();
    let mut rest = Vec::new();
    for c in residual.conjuncts_owned() {
        if let PExpr::Binary { op: crate::ast::BinOp::Eq, left: a, right: b, .. } = &c {
            if let (PExpr::Col { index: i, ty: ti }, PExpr::Col { index: j, ty: tj }) =
                (&**a, &**b)
            {
                let (i, j) = (*i, *j);
                if ti != tj {
                    rest.push(c);
                    continue;
                }
                if i < n_left && j >= n_left {
                    eq_keys.push((i, j - n_left));
                    continue;
                }
                if j < n_left && i >= n_left {
                    eq_keys.push((j, i - n_left));
                    continue;
                }
            }
        }
        rest.push(c);
    }
    (eq_keys, rest)
}

/// The time window of a two-stream join, extracted from ordered-attribute
/// constraints in the join predicate (paper §2.1: "The join predicate must
/// contain a constraint on an ordered attribute from each table which can
/// be used to define a join window").
#[derive(Debug, Clone, PartialEq)]
pub struct JoinWindow {
    /// Ordered column on the left input (index into the left schema).
    pub left_col: usize,
    /// Ordered column on the right input (index into the right schema).
    pub right_col: usize,
    /// Window low bound: tuples match only if
    /// `left ∈ [right + lo, right + hi]`.
    pub lo: i64,
    /// Window high bound (see `lo`); equality joins have `lo == hi == 0`.
    pub hi: i64,
}

/// A logical plan node. Every variant caches its output schema.
#[derive(Debug, Clone, PartialEq)]
pub enum Plan {
    /// Leaf: interpret packets from an interface as a Protocol stream.
    ProtocolScan {
        /// Interface name (e.g. `eth0`).
        interface: String,
        /// Protocol name in the interpretation registry (e.g. `tcp`).
        protocol: String,
        /// The protocol stream's schema.
        schema: Schema,
    },
    /// Leaf: subscribe to a named query's output stream.
    StreamScan {
        /// Registered query name.
        stream: String,
        /// That stream's schema.
        schema: Schema,
    },
    /// Keep tuples satisfying a predicate.
    Filter {
        /// Boolean predicate over the input schema.
        pred: PExpr,
        /// Input plan.
        input: Box<Plan>,
    },
    /// Compute output columns.
    Project {
        /// `(name, expr)` pairs in output order.
        cols: Vec<(String, PExpr)>,
        /// Input plan.
        input: Box<Plan>,
        /// Output schema (types/ordering imputed by the analyzer).
        schema: Schema,
    },
    /// Group-by / aggregation with ordered-attribute flushing.
    Aggregate {
        /// Grouping expressions `(name, expr)`; output columns come first.
        group: Vec<(String, PExpr)>,
        /// Aggregates; output columns follow the group columns.
        aggs: Vec<AggSpec>,
        /// Index within `group` of the ordered attribute whose advance
        /// closes groups, when one exists (paper §2.1: "When a tuple
        /// arrives ... whose ordered attribute is larger than that in any
        /// current group, ... all of the closed groups are flushed").
        flush_group_idx: Option<usize>,
        /// Input plan.
        input: Box<Plan>,
        /// Output schema: group columns then aggregate columns.
        schema: Schema,
    },
    /// Two-stream window join.
    Join {
        /// Left input.
        left: Box<Plan>,
        /// Right input.
        right: Box<Plan>,
        /// The extracted ordered-attribute window.
        window: JoinWindow,
        /// Residual predicate over the concatenated schema (left then
        /// right), beyond the window constraint.
        residual: Option<PExpr>,
        /// Projection over the concatenated schema.
        cols: Vec<(String, PExpr)>,
        /// Output schema.
        schema: Schema,
    },
    /// Order-preserving union of same-schema streams.
    Merge {
        /// Input plans (all schemas identical).
        inputs: Vec<Plan>,
        /// Index of the merged (ordered) column, same in every input.
        on_col: usize,
        /// Output schema.
        schema: Schema,
    },
}

impl Plan {
    /// The node's output schema.
    pub fn schema(&self) -> &Schema {
        match self {
            Plan::ProtocolScan { schema, .. }
            | Plan::StreamScan { schema, .. }
            | Plan::Project { schema, .. }
            | Plan::Aggregate { schema, .. }
            | Plan::Join { schema, .. }
            | Plan::Merge { schema, .. } => schema,
            Plan::Filter { input, .. } => input.schema(),
        }
    }

    /// Find a column index by name in this node's output schema.
    pub fn column_index(&self, name: &str) -> Option<usize> {
        self.schema().iter().position(|c| c.name == name)
    }

    /// All `StreamScan` names this plan subscribes to.
    pub fn upstream_streams(&self) -> Vec<String> {
        let mut out = Vec::new();
        self.visit(&mut |p| {
            if let Plan::StreamScan { stream, .. } = p {
                out.push(stream.clone());
            }
        });
        out
    }

    /// Whether any leaf is a `ProtocolScan` (the plan touches raw packets).
    pub fn reads_protocol(&self) -> bool {
        let mut found = false;
        self.visit(&mut |p| {
            if matches!(p, Plan::ProtocolScan { .. }) {
                found = true;
            }
        });
        found
    }

    /// Visit every node pre-order.
    pub fn visit<'a>(&'a self, f: &mut dyn FnMut(&'a Plan)) {
        f(self);
        match self {
            Plan::Filter { input, .. } => input.visit(f),
            Plan::Project { input, .. } => input.visit(f),
            Plan::Aggregate { input, .. } => input.visit(f),
            Plan::Join { left, right, .. } => {
                left.visit(f);
                right.visit(f);
            }
            Plan::Merge { inputs, .. } => {
                for i in inputs {
                    i.visit(f);
                }
            }
            Plan::ProtocolScan { .. } | Plan::StreamScan { .. } => {}
        }
    }

    /// Collect the names of all query parameters used anywhere in the plan.
    pub fn params(&self) -> Vec<(String, DataType)> {
        let mut out: Vec<(String, DataType)> = Vec::new();
        let mut add = |e: &PExpr| {
            e.walk(&mut |x| {
                if let PExpr::Param { name, ty } = x {
                    if !out.iter().any(|(n, _)| n == name) {
                        out.push((name.clone(), *ty));
                    }
                }
            });
        };
        self.visit(&mut |p| match p {
            Plan::Filter { pred, .. } => add(pred),
            Plan::Project { cols, .. } => cols.iter().for_each(|(_, e)| add(e)),
            Plan::Aggregate { group, aggs, .. } => {
                group.iter().for_each(|(_, e)| add(e));
                aggs.iter().for_each(|a| {
                    if let Some(e) = &a.arg {
                        add(e)
                    }
                });
            }
            Plan::Join { residual, cols, .. } => {
                if let Some(r) = residual {
                    add(r)
                }
                cols.iter().for_each(|(_, e)| add(e));
            }
            _ => {}
        });
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn col(i: usize) -> PExpr {
        PExpr::Col { index: i, ty: DataType::UInt }
    }

    /// Only a same-typed cross-side equality becomes a hash key; a
    /// `uint = float` one stays residual, where `=` is the evaluator's.
    #[test]
    fn join_keys_require_one_type() {
        let eq = |l: PExpr, r: PExpr| PExpr::Binary {
            op: BinOp::Eq,
            left: Box::new(l),
            right: Box::new(r),
            ty: DataType::Bool,
        };
        let float = |i| PExpr::Col { index: i, ty: DataType::Float };
        let both = PExpr::Binary {
            op: BinOp::And,
            left: Box::new(eq(col(0), col(3))),
            right: Box::new(eq(col(1), float(2))),
            ty: DataType::Bool,
        };
        let (keys, rest) = split_join_conjuncts(&both, 2);
        assert_eq!(keys, vec![(0, 1)]);
        assert_eq!(rest, vec![eq(col(1), float(2))]);
    }

    #[test]
    fn columns_used_dedups_and_sorts() {
        let e = PExpr::Binary {
            op: BinOp::Add,
            left: Box::new(col(3)),
            right: Box::new(PExpr::Binary {
                op: BinOp::Mul,
                left: Box::new(col(1)),
                right: Box::new(col(3)),
                ty: DataType::UInt,
            }),
            ty: DataType::UInt,
        };
        assert_eq!(e.columns_used(), vec![1, 3]);
    }

    #[test]
    fn remap_columns() {
        let map: std::collections::HashMap<usize, usize> = [(3, 0), (1, 1)].into();
        let e = PExpr::Binary {
            op: BinOp::Add,
            left: Box::new(col(3)),
            right: Box::new(col(1)),
            ty: DataType::UInt,
        };
        let r = e.remap_columns(&map);
        assert_eq!(r.columns_used(), vec![0, 1]);
    }

    #[test]
    fn schema_passthrough_for_filter() {
        let scan = Plan::StreamScan {
            stream: "s".into(),
            schema: vec![ColumnInfo {
                name: "x".into(),
                ty: DataType::UInt,
                order: OrderProp::None,
            }],
        };
        let f = Plan::Filter {
            pred: PExpr::Lit(Literal::Bool(true)),
            input: Box::new(scan),
        };
        assert_eq!(f.schema().len(), 1);
        assert_eq!(f.column_index("x"), Some(0));
        assert_eq!(f.column_index("y"), None);
    }

    #[test]
    fn params_collected_once() {
        let p = PExpr::Param { name: "port".into(), ty: DataType::UInt };
        let plan = Plan::Filter {
            pred: PExpr::Binary {
                op: BinOp::And,
                left: Box::new(p.clone()),
                right: Box::new(p),
                ty: DataType::Bool,
            },
            input: Box::new(Plan::StreamScan { stream: "s".into(), schema: vec![] }),
        };
        assert_eq!(plan.params(), vec![("port".into(), DataType::UInt)]);
    }

    #[test]
    fn upstream_streams_found() {
        let plan = Plan::Merge {
            inputs: vec![
                Plan::StreamScan { stream: "a".into(), schema: vec![] },
                Plan::StreamScan { stream: "b".into(), schema: vec![] },
            ],
            on_col: 0,
            schema: vec![],
        };
        assert_eq!(plan.upstream_streams(), vec!["a".to_string(), "b".to_string()]);
        assert!(!plan.reads_protocol());
    }
}
