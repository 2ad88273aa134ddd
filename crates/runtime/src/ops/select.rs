//! Selection / projection over tuple streams.
//!
//! Both operators here have native columnar paths: filtering rewrites
//! the batch's selection vector in place (no data movement), and
//! projection evaluates each output column with the vector kernels,
//! falling back to row-at-a-time evaluation for a program without a
//! kernel. The window join's residual and projections run through the
//! same two functions.

use crate::batch::ColumnBatch;
use crate::expr::vector::VecVal;
use crate::expr::{EvalScratch, Program};
use crate::ops::Operator;
use crate::punct::Punct;
use crate::snapshot::{SnapError, SnapReader, SnapWriter};
use crate::stats::OpCounters;
use crate::value::Value;
use std::sync::Arc;

/// `cb` narrowed to the live rows passing `pred`.
pub(crate) fn filter(pred: &Program, cb: ColumnBatch, scratch: &mut EvalScratch) -> ColumnBatch {
    let v = pred.eval_vec_or_rows(&cb, scratch);
    let keep: Vec<u32> = (0..cb.n_rows()).filter(|&i| v.truthy(i)).map(|i| i as u32).collect();
    if keep.len() == cb.n_rows() {
        cb
    } else {
        cb.narrow(keep)
    }
}

/// One output column per projection over the live rows of `cb`; a row
/// where any projection fails is dropped — the row path's
/// short-circuiting collect.
pub(crate) fn project(
    projections: &[Program],
    cb: &ColumnBatch,
    scratch: &mut EvalScratch,
) -> ColumnBatch {
    let m = cb.n_rows();
    let vecs: Vec<VecVal> = projections.iter().map(|p| p.eval_vec_or_rows(cb, scratch)).collect();
    let keep: Option<Vec<u32>> = vecs.iter().any(VecVal::any_invalid).then(|| {
        (0..m).filter(|&i| vecs.iter().all(|v| v.valid(i))).map(|i| i as u32).collect()
    });
    ColumnBatch::from_columns(vecs.into_iter().map(|v| v.into_column(keep.as_deref(), m)).collect())
}

/// The whole mutable state of a stateless operator is its counter block.
/// It rides in the snapshot so a node rebuilt from bytes publishes the
/// same `hfta:*` rows as the live node that wrote them.
fn put_counters(w: &mut SnapWriter, counters: [u64; 4]) {
    for c in counters {
        w.put_u64(c);
    }
}

fn get_counters(r: &mut SnapReader<'_>) -> Result<[u64; 4], SnapError> {
    Ok([r.get_u64()?, r.get_u64()?, r.get_u64()?, r.get_u64()?])
}

/// Filter + project in one pass. Punctuation is translated through the
/// projection: every output column that is an identity (or
/// divided-bucket) projection of a bounded input column is bounded in
/// the one output token; a token that bounds no output column is
/// dropped, which is always safe (punctuation is an optimization, never
/// required for correctness).
pub struct SelectProject {
    filter: Option<Program>,
    projections: Vec<Program>,
    /// `(input col, output col, divisor)` triples for punctuation
    /// translation: output value = input value / divisor.
    punct_map: Vec<(usize, usize, u64)>,
    scratch: EvalScratch,
    /// Tuples seen / kept (diagnostics).
    pub seen: u64,
    /// Tuples that passed the filter and projected successfully.
    pub kept: u64,
    batches: u64,
    puncts: u64,
    stats: Arc<OpCounters>,
}

impl SelectProject {
    /// Build from compiled programs.
    pub fn new(
        filter: Option<Program>,
        projections: Vec<Program>,
        punct_map: Vec<(usize, usize, u64)>,
    ) -> SelectProject {
        SelectProject {
            filter,
            projections,
            punct_map,
            scratch: EvalScratch::default(),
            seen: 0,
            kept: 0,
            batches: 0,
            puncts: 0,
            stats: Arc::new(OpCounters::default()),
        }
    }

    /// The input token's bounds, translated onto the output columns.
    fn translate_punct(&self, p: &Punct) -> Option<Punct> {
        let bounds = self
            .punct_map
            .iter()
            .filter_map(|&(in_col, out_col, div)| {
                Some((out_col, Value::UInt(p.bound(in_col)? / div.max(1))))
            })
            .collect();
        Punct::from_bounds(bounds)
    }
}

impl Operator for SelectProject {
    fn push_cols(
        &mut self,
        cols: ColumnBatch,
        punct: Option<Punct>,
    ) -> (ColumnBatch, Option<Punct>) {
        self.batches += 1;
        self.seen += cols.n_rows() as u64;
        let cb = match &self.filter {
            None => cols,
            Some(f) => filter(f, cols, &mut self.scratch),
        };
        let out_cb = project(&self.projections, &cb, &mut self.scratch);
        self.kept += out_cb.n_rows() as u64;
        self.puncts += u64::from(punct.is_some());
        (out_cb, punct.and_then(|p| self.translate_punct(&p)))
    }

    fn kind(&self) -> &'static str {
        "select"
    }

    fn stats_handle(&self) -> Option<Arc<OpCounters>> {
        Some(self.stats.clone())
    }

    fn publish_stats(&self) {
        self.stats.tuples_in.set(self.seen);
        self.stats.tuples_out.set(self.kept);
        self.stats.batches_in.set(self.batches);
        self.stats.puncts_in.set(self.puncts);
    }

    fn snapshot(&self, w: &mut SnapWriter) {
        put_counters(w, [self.seen, self.kept, self.batches, self.puncts]);
    }

    fn restore(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        [self.seen, self.kept, self.batches, self.puncts] = get_counters(r)?;
        Ok(())
    }
}

/// Pure filter: drops tuples failing the predicate, passes punctuation
/// through unchanged (the schema is unchanged, so bounds stay valid).
pub struct FilterOp {
    pred: Program,
    scratch: EvalScratch,
    /// Tuples seen.
    pub seen: u64,
    /// Tuples kept.
    pub kept: u64,
    batches: u64,
    puncts: u64,
    stats: Arc<OpCounters>,
}

impl FilterOp {
    /// Build from a compiled boolean program.
    pub fn new(pred: Program) -> FilterOp {
        FilterOp {
            pred,
            scratch: EvalScratch::default(),
            seen: 0,
            kept: 0,
            batches: 0,
            puncts: 0,
            stats: Arc::new(OpCounters::default()),
        }
    }
}

impl Operator for FilterOp {
    fn push_cols(
        &mut self,
        cols: ColumnBatch,
        punct: Option<Punct>,
    ) -> (ColumnBatch, Option<Punct>) {
        self.batches += 1;
        self.seen += cols.n_rows() as u64;
        self.puncts += u64::from(punct.is_some());
        let cb = filter(&self.pred, cols, &mut self.scratch);
        self.kept += cb.n_rows() as u64;
        (cb, punct)
    }

    fn kind(&self) -> &'static str {
        "filter"
    }

    fn stats_handle(&self) -> Option<Arc<OpCounters>> {
        Some(self.stats.clone())
    }

    fn publish_stats(&self) {
        self.stats.tuples_in.set(self.seen);
        self.stats.tuples_out.set(self.kept);
        self.stats.batches_in.set(self.batches);
        self.stats.puncts_in.set(self.puncts);
    }

    fn snapshot(&self, w: &mut SnapWriter) {
        put_counters(w, [self.seen, self.kept, self.batches, self.puncts]);
    }

    fn restore(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        [self.seen, self.kept, self.batches, self.puncts] = get_counters(r)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::ParamBindings;
    use crate::tuple::Tuple;
    use crate::udf::{FileStore, UdfRegistry};
    use gs_gsql::ast::BinOp;
    use gs_gsql::plan::{Literal, PExpr};
    use gs_gsql::types::DataType;

    fn prog(pe: &PExpr) -> Program {
        Program::compile(pe, &ParamBindings::new(), &UdfRegistry::with_builtins(), &FileStore::new())
            .unwrap()
    }

    fn col(i: usize) -> PExpr {
        PExpr::Col { index: i, ty: DataType::UInt }
    }

    #[test]
    fn filters_and_projects() {
        let filter = prog(&PExpr::Binary {
            op: BinOp::Gt,
            left: Box::new(col(0)),
            right: Box::new(PExpr::Lit(Literal::UInt(10))),
            ty: DataType::Bool,
        });
        let mut op = SelectProject::new(Some(filter), vec![prog(&col(1))], vec![]);
        let rows = [[11, 7], [9, 8]].map(|r| Tuple::new(r.map(Value::UInt).to_vec()));
        let (out, punct) = op.push_cols(ColumnBatch::from_tuples(&rows), None);
        assert_eq!(out.n_rows(), 1);
        assert_eq!(out.value_at(0, 0), Value::UInt(7));
        assert_eq!(punct, None);
        assert_eq!((op.seen, op.kept), (2, 1));
    }

    #[test]
    fn punct_translated_through_identity_and_bucket() {
        let mut op = SelectProject::new(None, vec![prog(&col(0))], vec![(0, 0, 60)]);
        let rider = |op: &mut SelectProject, p| op.push_cols(ColumnBatch::default(), Some(p)).1;
        let bucket = rider(&mut op, Punct::new(0, Value::UInt(120)));
        assert_eq!(bucket, Some(Punct::new(0, Value::UInt(2))));
        // Punct on an untranslated column is dropped.
        assert_eq!(rider(&mut op, Punct::new(5, Value::UInt(9))), None);
        // Two output columns punctuated from one input column — `time`
        // and `time/60` — share one rider bounding both.
        let mut op = SelectProject::new(
            None,
            vec![prog(&col(0)), prog(&col(0))],
            vec![(0, 0, 1), (0, 1, 60)],
        );
        let both = rider(&mut op, Punct::new(0, Value::UInt(120))).expect("one rider");
        assert_eq!((both.bound(0), both.bound(1)), (Some(120), Some(2)));
    }
}
