//! Columnar (structure-of-arrays) batches for the HFTA hot path.
//!
//! The batched transport (DESIGN §9) amortizes channel crossings, but a
//! batch of row [`Tuple`]s would still make every operator touch every
//! field of every tuple through a `Box<[Value]>` indirection. A
//! [`ColumnBatch`] — the one thing that crosses a manager queue — stores the
//! batch as one typed vector per schema column plus an optional *selection
//! vector*, so hot operators (filter, project, aggregate, router) run
//! tight per-column loops over primitive slices with no per-tuple `Value`
//! boxing, and filters "delete" rows by rewriting the selection vector
//! without moving data.
//!
//! Row↔column boundary rules (DESIGN §13): columns are produced at the
//! capture-loop edge and stay columns through every HFTA operator — the
//! merge and join roots and the single-input chain, aggregates included.
//! Rows remain only where something needs them: subscriptions, the fault
//! injector (which corrupts rows, then hands them back as a batch), and
//! tests. A batch of rows and the same batch converted through columns
//! are observably identical; at `batch_size == 1` a batch holds one row.
//!
//! Punctuation: the transport's batcher flushes immediately on
//! punctuation, so a shipped batch carries at most one token, always last.
//! A columnar batch therefore carries an `Option<Punct>` *rider* instead
//! of interleaving token items with rows.

use crate::expr::FieldSource;
use crate::punct::Punct;
use crate::tuple::{StreamItem, Tuple};
use crate::value::Value;
use bytes::Bytes;

/// One typed column. A stream column whose values are not uniformly typed
/// (never produced by analyzer output, but possible through UDFs)
/// degrades to the boxed `Val` representation.
#[derive(Debug, Clone)]
pub enum Column {
    /// Booleans.
    Bool(Vec<bool>),
    /// Unsigned integers.
    UInt(Vec<u64>),
    /// 64-bit floats.
    Float(Vec<f64>),
    /// IPv4 addresses.
    Ip(Vec<u32>),
    /// Byte strings (shared capture buffers; cloning bumps a refcount).
    Str(Vec<Bytes>),
    /// Mixed-type fallback.
    Val(Vec<Value>),
}

impl Column {
    /// Physical row count.
    pub fn len(&self) -> usize {
        match self {
            Column::Bool(v) => v.len(),
            Column::UInt(v) => v.len(),
            Column::Float(v) => v.len(),
            Column::Ip(v) => v.len(),
            Column::Str(v) => v.len(),
            Column::Val(v) => v.len(),
        }
    }

    /// Whether the column has no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The value at physical row `i`, boxed.
    pub fn get(&self, i: usize) -> Value {
        match self {
            Column::Bool(v) => Value::Bool(v[i]),
            Column::UInt(v) => Value::UInt(v[i]),
            Column::Float(v) => Value::Float(v[i]),
            Column::Ip(v) => Value::Ip(v[i]),
            Column::Str(v) => Value::Str(v[i].clone()),
            Column::Val(v) => v[i].clone(),
        }
    }

    /// The value at physical row `i` as an unsigned integer, with
    /// [`Value::as_uint`] semantics (an `Ip` widens; anything else has
    /// none).
    #[inline]
    pub fn uint(&self, i: usize) -> Option<u64> {
        match self {
            Column::UInt(v) => Some(v[i]),
            Column::Ip(v) => Some(u64::from(v[i])),
            Column::Val(v) => v[i].as_uint(),
            _ => None,
        }
    }

    /// An empty column of the same type as `v`.
    fn for_value(v: &Value) -> Column {
        match v {
            Value::Bool(_) => Column::Bool(Vec::new()),
            Value::UInt(_) => Column::UInt(Vec::new()),
            Value::Float(_) => Column::Float(Vec::new()),
            Value::Ip(_) => Column::Ip(Vec::new()),
            Value::Str(_) => Column::Str(Vec::new()),
        }
    }

    /// Append `v`, degrading to `Val` on a type mismatch.
    pub fn push(&mut self, v: Value) {
        match (&mut *self, v) {
            (Column::Bool(c), Value::Bool(b)) => c.push(b),
            (Column::UInt(c), Value::UInt(u)) => c.push(u),
            (Column::Float(c), Value::Float(f)) => c.push(f),
            (Column::Ip(c), Value::Ip(ip)) => c.push(ip),
            (Column::Str(c), Value::Str(s)) => c.push(s),
            (Column::Val(c), v) => c.push(v),
            (_, v) => {
                self.degrade();
                self.push(v);
            }
        }
    }

    /// Overwrite physical row `i` with `v`, or append it when `i` is the
    /// length, degrading to `Val` on a type mismatch.
    pub fn set(&mut self, i: usize, v: Value) {
        if i == self.len() {
            return self.push(v);
        }
        match (&mut *self, v) {
            (Column::Bool(c), Value::Bool(b)) => c[i] = b,
            (Column::UInt(c), Value::UInt(u)) => c[i] = u,
            (Column::Float(c), Value::Float(f)) => c[i] = f,
            (Column::Ip(c), Value::Ip(ip)) => c[i] = ip,
            (Column::Str(c), Value::Str(s)) => c[i] = s,
            (Column::Val(c), v) => c[i] = v,
            (_, v) => {
                self.degrade();
                self.set(i, v);
            }
        }
    }

    /// [`set`](Column::set) row `i` to physical row `j` of `src`, without
    /// boxing when both are integer columns.
    #[inline]
    pub fn set_from(&mut self, i: usize, src: &Column, j: usize) {
        fn put<T: Copy>(d: &mut Vec<T>, i: usize, v: T) {
            if i == d.len() {
                d.push(v);
            } else {
                d[i] = v;
            }
        }
        match (&mut *self, src) {
            (Column::UInt(d), Column::UInt(s)) => put(d, i, s[j]),
            (Column::Ip(d), Column::Ip(s)) => put(d, i, s[j]),
            (d, s) => d.set(i, s.get(j)),
        }
    }

    /// Rewrite in place as a boxed `Val` column.
    fn degrade(&mut self) {
        let vals: Vec<Value> = (0..self.len()).map(|i| self.get(i)).collect();
        *self = Column::Val(vals);
    }

    /// A column of `n` copies of `v`.
    pub fn broadcast(v: &Value, n: usize) -> Column {
        match v {
            Value::Bool(b) => Column::Bool(vec![*b; n]),
            Value::UInt(u) => Column::UInt(vec![*u; n]),
            Value::Float(f) => Column::Float(vec![*f; n]),
            Value::Ip(ip) => Column::Ip(vec![*ip; n]),
            Value::Str(s) => Column::Str(vec![s.clone(); n]),
        }
    }

    /// Gather physical rows `sel` into a new column of the same type.
    pub fn gather_rows(&self, sel: &[u32]) -> Column {
        Column::gather_parts(&[(self, sel)])
    }

    /// Concatenate physical rows of several columns, in order: part
    /// `(col, rows)` contributes `col`'s rows `rows`. Typed when every
    /// part has the first part's type, boxed `Val` otherwise.
    pub fn gather_parts(parts: &[(&Column, &[u32])]) -> Column {
        let n = parts.iter().map(|(_, rows)| rows.len()).sum();
        let Some(&(first, _)) = parts.first() else { return Column::Val(Vec::new()) };
        let mut out = match first {
            Column::Bool(_) => Column::Bool(Vec::with_capacity(n)),
            Column::UInt(_) => Column::UInt(Vec::with_capacity(n)),
            Column::Float(_) => Column::Float(Vec::with_capacity(n)),
            Column::Ip(_) => Column::Ip(Vec::with_capacity(n)),
            Column::Str(_) => Column::Str(Vec::with_capacity(n)),
            Column::Val(_) => Column::Val(Vec::with_capacity(n)),
        };
        for &(src, rows) in parts {
            let rows = rows.iter().map(|&i| i as usize);
            match (&mut out, src) {
                (Column::Bool(d), Column::Bool(s)) => d.extend(rows.map(|i| s[i])),
                (Column::UInt(d), Column::UInt(s)) => d.extend(rows.map(|i| s[i])),
                (Column::Float(d), Column::Float(s)) => d.extend(rows.map(|i| s[i])),
                (Column::Ip(d), Column::Ip(s)) => d.extend(rows.map(|i| s[i])),
                (Column::Str(d), Column::Str(s)) => d.extend(rows.map(|i| s[i].clone())),
                (Column::Val(d), Column::Val(s)) => d.extend(rows.map(|i| s[i].clone())),
                (d, s) => rows.for_each(|i| d.push(s.get(i))),
            }
        }
        out
    }
}

/// A batch of tuples in columnar layout: one [`Column`] per schema field,
/// all of equal physical length, plus an optional selection vector of
/// physical row indices (strictly increasing) naming the *live* rows.
#[derive(Debug, Clone, Default)]
pub struct ColumnBatch {
    cols: Vec<Column>,
    rows: usize,
    sel: Option<Vec<u32>>,
}

impl ColumnBatch {
    /// Build from columns of equal length (no selection).
    ///
    /// # Panics
    /// Panics if the columns' lengths differ.
    pub fn from_columns(cols: Vec<Column>) -> ColumnBatch {
        let rows = cols.first().map_or(0, Column::len);
        assert!(cols.iter().all(|c| c.len() == rows), "ragged columns");
        ColumnBatch { cols, rows, sel: None }
    }

    /// Convert a slice of row tuples (all of one schema).
    pub fn from_tuples(tuples: &[Tuple]) -> ColumnBatch {
        let mut b = ColBuilder::new();
        for t in tuples {
            b.push_tuple(t);
        }
        b.finish()
    }

    /// Number of columns.
    pub fn n_cols(&self) -> usize {
        self.cols.len()
    }

    /// Number of *live* (selected) rows.
    pub fn n_rows(&self) -> usize {
        match &self.sel {
            Some(s) => s.len(),
            None => self.rows,
        }
    }

    /// Whether no live rows remain.
    pub fn is_empty(&self) -> bool {
        self.n_rows() == 0
    }

    /// The selection vector, if any (physical indices, increasing).
    pub fn selection(&self) -> Option<&[u32]> {
        self.sel.as_deref()
    }

    /// Column `i` (physical layout — index through the selection).
    pub fn col(&self, i: usize) -> &Column {
        &self.cols[i]
    }

    /// Physical index of live row `row`.
    #[inline]
    pub fn phys(&self, row: usize) -> usize {
        match &self.sel {
            Some(s) => s[row] as usize,
            None => row,
        }
    }

    /// The value of column `col` at live row `row`, boxed.
    #[inline]
    pub fn value_at(&self, col: usize, row: usize) -> Value {
        self.cols[col].get(self.phys(row))
    }

    /// Narrow the batch to the live rows named by `keep` (indices into
    /// the current *live* view, strictly increasing) — a filter pass.
    pub fn narrow(mut self, keep: Vec<u32>) -> ColumnBatch {
        let sel = match &self.sel {
            Some(s) => keep.into_iter().map(|i| s[i as usize]).collect(),
            None => keep,
        };
        self.sel = Some(sel);
        self
    }

    /// Materialize column `i` over the live rows as an owned column.
    pub fn gather(&self, i: usize) -> Column {
        match &self.sel {
            Some(s) => self.cols[i].gather_rows(s),
            None => self.cols[i].clone(),
        }
    }

    /// Live row `row` as a row tuple.
    pub fn row_tuple(&self, row: usize) -> Tuple {
        let p = self.phys(row);
        Tuple::new((0..self.cols.len()).map(|c| self.cols[c].get(p)).collect())
    }

    /// Cut row items into batches, each closed by the punctuation that
    /// follows its rows (a trailing run of rows closes without one) —
    /// the inverse of [`into_items`](ColumnBatch::into_items).
    ///
    /// # Panics
    /// Panics if a tuple's arity differs from the rows before it in its
    /// batch: a ragged batch must fail where it is built.
    pub fn from_items(items: Vec<StreamItem>) -> Vec<(ColumnBatch, Option<Punct>)> {
        let mut out = Vec::new();
        let mut b = ColBuilder::new();
        for item in items {
            match item {
                StreamItem::Tuple(t) => b.push_tuple(&t),
                StreamItem::Punct(p) => out.push((b.finish(), Some(p))),
            }
        }
        if !b.is_empty() {
            out.push((b.finish(), None));
        }
        out
    }

    /// Convert back to row items, appending the punctuation rider last.
    pub fn into_items(self, punct: Option<Punct>) -> Vec<StreamItem> {
        let n = self.n_rows();
        let mut items = Vec::with_capacity(n + punct.is_some() as usize);
        for r in 0..n {
            items.push(StreamItem::Tuple(self.row_tuple(r)));
        }
        if let Some(p) = punct {
            items.push(StreamItem::Punct(p));
        }
        items
    }
}

/// One live row of a [`ColumnBatch`] viewed as an expression input — the
/// row-at-a-time fallback for programs the vector kernels cannot run.
pub struct RowView<'a> {
    batch: &'a ColumnBatch,
    row: usize,
}

impl<'a> RowView<'a> {
    /// View live row `row` of `batch`.
    pub fn new(batch: &'a ColumnBatch, row: usize) -> RowView<'a> {
        RowView { batch, row }
    }
}

impl FieldSource for RowView<'_> {
    #[inline]
    fn field(&self, idx: usize) -> Option<Value> {
        Some(self.batch.value_at(idx, self.row))
    }
}

/// Incremental columnar batch builder: column types latch from the first
/// row; later mismatches degrade the column to boxed values.
#[derive(Debug, Default)]
pub struct ColBuilder {
    cols: Vec<Column>,
    rows: usize,
}

impl ColBuilder {
    /// An empty builder; the first row fixes arity and column types.
    pub fn new() -> ColBuilder {
        ColBuilder::default()
    }

    /// Buffered row count.
    pub fn len(&self) -> usize {
        self.rows
    }

    /// Whether no rows are buffered.
    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    fn ensure_cols(&mut self, first: &mut dyn Iterator<Item = Value>) {
        debug_assert!(self.cols.is_empty() && self.rows == 0);
        for v in first {
            let mut c = Column::for_value(&v);
            c.push(v);
            self.cols.push(c);
        }
        self.rows = 1;
    }

    /// Append one row of values.
    ///
    /// # Panics
    /// Panics if the arity differs from the first row — streams have a
    /// fixed schema, and a ragged batch shipped on would fail in whatever
    /// consumes it instead of here.
    pub fn push_values<I: IntoIterator<Item = Value>>(&mut self, vals: I) {
        let mut it = vals.into_iter();
        if self.cols.is_empty() && self.rows == 0 {
            self.ensure_cols(&mut it);
            return;
        }
        let mut n = 0;
        for (i, v) in it.enumerate() {
            self.cols[i].push(v);
            n += 1;
        }
        assert_eq!(n, self.cols.len(), "row arity changed mid-stream");
        self.rows += 1;
    }

    /// Append a row tuple.
    pub fn push_tuple(&mut self, t: &Tuple) {
        self.push_values(t.values().iter().cloned());
    }

    /// Append live row `row` of another batch, column-typed copy.
    pub fn push_row(&mut self, src: &ColumnBatch, row: usize) {
        let p = src.phys(row);
        if self.cols.is_empty() && self.rows == 0 {
            let mut vals = (0..src.n_cols()).map(|c| src.col(c).get(p));
            self.ensure_cols(&mut vals);
            return;
        }
        debug_assert_eq!(self.cols.len(), src.n_cols(), "row arity changed mid-stream");
        for (dst, sc) in self.cols.iter_mut().zip(src.cols.iter()) {
            match (dst, sc) {
                (Column::Bool(d), Column::Bool(s)) => d.push(s[p]),
                (Column::UInt(d), Column::UInt(s)) => d.push(s[p]),
                (Column::Float(d), Column::Float(s)) => d.push(s[p]),
                (Column::Ip(d), Column::Ip(s)) => d.push(s[p]),
                (Column::Str(d), Column::Str(s)) => d.push(s[p].clone()),
                (d, s) => d.push(s.get(p)),
            }
        }
        self.rows += 1;
    }

    /// Take the buffered rows as a batch, resetting the builder (column
    /// types latch again from the next row).
    pub fn finish(&mut self) -> ColumnBatch {
        let cols = std::mem::take(&mut self.cols);
        let rows = std::mem::replace(&mut self.rows, 0);
        ColumnBatch { cols, rows, sel: None }
    }
}

/// The result of pushing a columnar batch through one operator: either a
/// columnar batch (with its punctuation rider) that can continue on the
/// columnar path, or materialized row items (the row-fallback default,
/// and a select whose one token translates to several).
#[derive(Debug)]
pub enum ColStep {
    /// Columnar output: live rows plus at most one trailing token.
    Cols(ColumnBatch, Option<Punct>),
    /// Row output, already in emission order.
    Rows(Vec<StreamItem>),
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tup(vals: Vec<Value>) -> Tuple {
        Tuple::new(vals)
    }

    #[test]
    fn round_trip_preserves_rows_and_types() {
        let rows = vec![
            tup(vec![Value::UInt(1), Value::Ip(7), Value::Str(Bytes::from_static(b"a"))]),
            tup(vec![Value::UInt(2), Value::Ip(8), Value::Str(Bytes::from_static(b"bb"))]),
        ];
        let cb = ColumnBatch::from_tuples(&rows);
        assert_eq!(cb.n_rows(), 2);
        assert_eq!(cb.n_cols(), 3);
        assert!(matches!(cb.col(1), Column::Ip(_)));
        let items = cb.into_items(Some(Punct::new(0, Value::UInt(9))));
        assert_eq!(items.len(), 3);
        assert_eq!(items[0].as_tuple().unwrap(), &rows[0]);
        assert_eq!(items[1].as_tuple().unwrap(), &rows[1]);
        assert!(items[2].is_punct());
    }

    #[test]
    fn selection_narrows_and_composes() {
        let rows: Vec<Tuple> = (0..6u64).map(|i| tup(vec![Value::UInt(i)])).collect();
        let cb = ColumnBatch::from_tuples(&rows);
        // Keep even rows, then keep the last of those.
        let cb = cb.narrow(vec![0, 2, 4]);
        assert_eq!(cb.n_rows(), 3);
        assert_eq!(cb.value_at(0, 1), Value::UInt(2));
        let cb = cb.narrow(vec![2]);
        assert_eq!(cb.n_rows(), 1);
        assert_eq!(cb.value_at(0, 0), Value::UInt(4));
        let items = cb.into_items(None);
        assert_eq!(items.len(), 1);
        assert_eq!(items[0].as_tuple().unwrap().get(0), &Value::UInt(4));
    }

    #[test]
    fn gather_respects_selection() {
        let rows: Vec<Tuple> = (0..4u64).map(|i| tup(vec![Value::UInt(i * 10)])).collect();
        let cb = ColumnBatch::from_tuples(&rows).narrow(vec![1, 3]);
        match cb.gather(0) {
            Column::UInt(v) => assert_eq!(v, vec![10, 30]),
            c => panic!("wrong column type {c:?}"),
        }
    }

    #[test]
    fn mixed_types_degrade_to_val() {
        let rows = vec![tup(vec![Value::UInt(1)]), tup(vec![Value::Float(2.5)])];
        let cb = ColumnBatch::from_tuples(&rows);
        assert!(matches!(cb.col(0), Column::Val(_)));
        assert_eq!(cb.value_at(0, 0), Value::UInt(1));
        assert_eq!(cb.value_at(0, 1), Value::Float(2.5));
    }

    #[test]
    fn builder_push_row_copies_typed() {
        let src = ColumnBatch::from_tuples(&[
            tup(vec![Value::UInt(1), Value::Str(Bytes::from_static(b"x"))]),
            tup(vec![Value::UInt(2), Value::Str(Bytes::from_static(b"y"))]),
        ])
        .narrow(vec![1]);
        let mut b = ColBuilder::new();
        b.push_row(&src, 0);
        let out = b.finish();
        assert_eq!(out.n_rows(), 1);
        assert_eq!(out.value_at(0, 0), Value::UInt(2));
        assert_eq!(out.value_at(1, 0), Value::Str(Bytes::from_static(b"y")));
    }

    #[test]
    fn row_view_reads_through_selection() {
        let cb = ColumnBatch::from_tuples(&[
            tup(vec![Value::UInt(5)]),
            tup(vec![Value::UInt(6)]),
        ])
        .narrow(vec![1]);
        use crate::expr::FieldSource;
        let rv = RowView::new(&cb, 0);
        assert_eq!(rv.field(0), Some(Value::UInt(6)));
    }

    #[test]
    fn empty_batch_is_fine() {
        let cb = ColBuilder::new().finish();
        assert!(cb.is_empty());
        assert_eq!(cb.n_cols(), 0);
        let items = cb.into_items(Some(Punct::new(0, Value::UInt(1))));
        assert_eq!(items.len(), 1);
        assert!(items[0].is_punct());
    }
}
