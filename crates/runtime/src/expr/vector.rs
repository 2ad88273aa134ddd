//! Vectorized expression kernels over columnar batches.
//!
//! [`Program::eval_vec`] runs a compiled program once per *batch* instead
//! of once per tuple: each register holds a whole column (or a broadcast
//! scalar), and each instruction is a tight loop over primitive slices —
//! no per-tuple `Value` boxing, no register-file reset per row.
//!
//! The kernels are deliberately partial: any instruction or operand-type
//! combination without a loop (UDF calls, mixed `Val` columns, exotic
//! type pairings) makes `eval_vec` return `None`, and the operator falls
//! back to row-at-a-time evaluation through
//! [`RowView`]. Falling back is always correct —
//! the kernels are an optimization with the row evaluator as the
//! semantic reference, and the equivalence property tests pin the two
//! together.
//!
//! Per-row evaluation *failure* (the row path's `None`, e.g. division by
//! zero) is a different thing from kernel *absence*: failures are carried
//! in a validity mask so one poisoned row discards only itself, exactly
//! like the row path.

use super::{eval_bin, EvalScratch, Instr, Program};
use crate::batch::{Column, ColumnBatch, RowView};
use crate::value::Value;
use bytes::Bytes;
use gs_gsql::ast::BinOp;
use std::cmp::Ordering;

/// A vector-evaluated expression over a batch's live rows.
#[derive(Debug)]
pub enum VecVal {
    /// The same value for every live row (constants, folded expressions).
    Scalar(Value),
    /// Per-row values; `false` in the validity mask marks a row whose
    /// evaluation aborted (the row path would discard that tuple).
    Col(Column, Option<Vec<bool>>),
}

impl VecVal {
    /// Whether row `row` evaluated successfully.
    #[inline]
    pub fn valid(&self, row: usize) -> bool {
        match self {
            VecVal::Scalar(_) => true,
            VecVal::Col(_, valid) => valid.as_ref().is_none_or(|v| v[row]),
        }
    }

    /// Whether any row failed to evaluate.
    pub fn any_invalid(&self) -> bool {
        match self {
            VecVal::Scalar(_) => false,
            VecVal::Col(_, valid) => valid.as_ref().is_some_and(|v| v.iter().any(|b| !b)),
        }
    }

    /// The boxed value at `row`; `None` if the row's evaluation aborted.
    #[inline]
    pub fn get(&self, row: usize) -> Option<Value> {
        match self {
            VecVal::Scalar(v) => Some(v.clone()),
            VecVal::Col(c, valid) => {
                if valid.as_ref().is_none_or(|v| v[row]) {
                    Some(c.get(row))
                } else {
                    None
                }
            }
        }
    }

    /// Predicate semantics: valid AND `Bool(true)` (anything else fails,
    /// matching [`Program::eval_bool`]).
    #[inline]
    pub fn truthy(&self, row: usize) -> bool {
        match self {
            VecVal::Scalar(v) => matches!(v, Value::Bool(true)),
            VecVal::Col(Column::Bool(c), valid) => {
                c[row] && valid.as_ref().is_none_or(|v| v[row])
            }
            VecVal::Col(..) => false,
        }
    }

    /// Hash row `row` exactly as the boxed [`Value`] would hash (the
    /// router's partition assignment must be byte-identical to the row
    /// path). Returns false if the row is invalid (hash state untouched).
    #[inline]
    pub fn hash_row<H: std::hash::Hasher>(&self, row: usize, state: &mut H) -> bool {
        use std::hash::Hash;
        match self {
            VecVal::Scalar(v) => {
                v.hash(state);
                true
            }
            VecVal::Col(c, valid) => {
                if valid.as_ref().is_some_and(|v| !v[row]) {
                    return false;
                }
                match c {
                    Column::Bool(v) => v[row].hash(state),
                    Column::UInt(v) => v[row].hash(state),
                    Column::Float(v) => v[row].to_bits().hash(state),
                    Column::Ip(v) => {
                        state.write_u8(3);
                        v[row].hash(state);
                    }
                    Column::Str(v) => v[row].hash(state),
                    Column::Val(v) => v[row].hash(state),
                }
                true
            }
        }
    }

    /// Per-row results of the row evaluator (`None`: the row aborted) as
    /// a vector value. The column type latches from the first result; an
    /// aborted row holds a copy of it, masked invalid.
    pub(crate) fn from_rows(vals: Vec<Option<Value>>) -> VecVal {
        let n = vals.len();
        let Some(fill) = vals.iter().flatten().next().cloned() else {
            return VecVal::Col(Column::Bool(vec![false; n]), Some(vec![false; n]));
        };
        let valid: Vec<bool> = vals.iter().map(Option::is_some).collect();
        let mut col = Column::broadcast(&fill, 0);
        for v in vals {
            col.push(v.unwrap_or_else(|| fill.clone()));
        }
        let all_valid = valid.iter().all(|&b| b);
        VecVal::Col(col, (!all_valid).then_some(valid))
    }

    /// Materialize as an owned column over `keep` (indices into the live
    /// rows; `None` keeps all `n` rows). Rows must be valid — callers
    /// resolve validity before materializing.
    pub fn into_column(self, keep: Option<&[u32]>, n: usize) -> Column {
        match self {
            VecVal::Scalar(v) => Column::broadcast(&v, keep.map_or(n, <[u32]>::len)),
            VecVal::Col(c, _) => match keep {
                None => c,
                Some(k) => c.gather_rows(k),
            },
        }
    }
}

impl Program {
    /// Evaluate over every live row of `batch` at once. `None` means "no
    /// vector kernel for this program" — the caller must fall back to
    /// per-row [`eval`](Program::eval); it does NOT mean the rows failed.
    pub fn eval_vec(&self, batch: &ColumnBatch) -> Option<VecVal> {
        let n = batch.n_rows();
        let mut regs: Vec<Option<VecVal>> = (0..self.n_regs.max(1)).map(|_| None).collect();
        for ins in &self.instrs {
            match ins {
                Instr::Field { src, dst } => {
                    if *src >= batch.n_cols() {
                        return None;
                    }
                    regs[*dst] = Some(VecVal::Col(batch.gather(*src), None));
                }
                Instr::Const { val, dst } => regs[*dst] = Some(VecVal::Scalar(val.clone())),
                Instr::Bin { op, a, b, dst } => {
                    let r = bin_vec(*op, regs[*a].as_ref()?, regs[*b].as_ref()?, n)?;
                    regs[*dst] = Some(r);
                }
                Instr::Not { a, dst } => {
                    let r = not_vec(regs[*a].as_ref()?)?;
                    regs[*dst] = Some(r);
                }
                // No vector kernel for UDFs: arbitrary state, partial
                // results, and handle parameters — row fallback.
                Instr::Call { .. } => return None,
            }
        }
        regs[self.out].take()
    }

    /// [`eval_vec`](Program::eval_vec), or — for a program without a
    /// kernel — the row evaluator over each live row through
    /// [`RowView`]: the same values and the same validity either way.
    pub fn eval_vec_or_rows(&self, batch: &ColumnBatch, scratch: &mut EvalScratch) -> VecVal {
        self.eval_vec(batch).unwrap_or_else(|| {
            VecVal::from_rows(
                (0..batch.n_rows()).map(|i| self.eval(&RowView::new(batch, i), scratch)).collect(),
            )
        })
    }

    /// The input columns the program reads.
    pub fn fields(&self) -> impl Iterator<Item = usize> + '_ {
        self.instrs.iter().filter_map(|ins| match ins {
            Instr::Field { src, .. } => Some(*src),
            _ => None,
        })
    }
}

/// Numeric operand view: a scalar or a whole column, int or float.
#[derive(Clone, Copy)]
enum Num<'a> {
    SU(u64),
    SF(f64),
    VU(&'a [u64]),
    VF(&'a [f64]),
}

impl Num<'_> {
    #[inline]
    fn is_int(&self) -> bool {
        matches!(self, Num::SU(_) | Num::VU(_))
    }
    #[inline]
    fn u(&self, i: usize) -> u64 {
        match self {
            Num::SU(s) => *s,
            Num::VU(v) => v[i],
            _ => unreachable!("float operand on the int path"),
        }
    }
    #[inline]
    fn f(&self, i: usize) -> f64 {
        match self {
            Num::SU(s) => *s as f64,
            Num::SF(s) => *s,
            Num::VU(v) => v[i] as f64,
            Num::VF(v) => v[i],
        }
    }
}

fn num_view<'a>(v: &'a VecVal) -> Option<(Num<'a>, Option<&'a [bool]>)> {
    match v {
        VecVal::Scalar(Value::UInt(s)) => Some((Num::SU(*s), None)),
        VecVal::Scalar(Value::Float(s)) => Some((Num::SF(*s), None)),
        VecVal::Col(Column::UInt(c), valid) => Some((Num::VU(c), valid.as_deref())),
        VecVal::Col(Column::Float(c), valid) => Some((Num::VF(c), valid.as_deref())),
        _ => None,
    }
}

/// Elementwise AND of two optional validity masks.
fn and_valid(a: Option<&[bool]>, b: Option<&[bool]>) -> Option<Vec<bool>> {
    match (a, b) {
        (None, None) => None,
        (Some(m), None) | (None, Some(m)) => Some(m.to_vec()),
        (Some(x), Some(y)) => Some(x.iter().zip(y).map(|(a, b)| *a && *b).collect()),
    }
}

/// A materialized all-true-unless mask for kernels that add invalidity.
fn valid_buf(a: Option<&[bool]>, b: Option<&[bool]>, n: usize) -> Vec<bool> {
    and_valid(a, b).unwrap_or_else(|| vec![true; n])
}

fn bin_vec(op: BinOp, a: &VecVal, b: &VecVal, n: usize) -> Option<VecVal> {
    use BinOp::*;
    // Constant folding through the row evaluator. A constant that fails
    // to evaluate (e.g. literal division by zero) has no scalar
    // representation here — fall back to the row path, which discards
    // every tuple.
    if let (VecVal::Scalar(x), VecVal::Scalar(y)) = (a, b) {
        return eval_bin(op, x, y).map(VecVal::Scalar);
    }
    match op {
        Add | Sub | Mul | Div | Mod => arith_vec(op, a, b, n),
        Eq | Ne | Lt | Le | Gt | Ge => cmp_vec(op, a, b, n),
        And | Or => bool_vec(op, a, b, n),
        BitAnd | BitOr | BitXor => bit_vec(op, a, b, n),
    }
}

fn arith_vec(op: BinOp, a: &VecVal, b: &VecVal, n: usize) -> Option<VecVal> {
    use BinOp::*;
    let (na, va) = num_view(a)?;
    let (nb, vb) = num_view(b)?;
    if na.is_int() && nb.is_int() {
        let mut out = Vec::with_capacity(n);
        match op {
            Add => (0..n).for_each(|i| out.push(na.u(i).wrapping_add(nb.u(i)))),
            Sub => (0..n).for_each(|i| out.push(na.u(i).wrapping_sub(nb.u(i)))),
            Mul => (0..n).for_each(|i| out.push(na.u(i).wrapping_mul(nb.u(i)))),
            Div | Mod => {
                // Division by zero poisons the row, not the batch.
                let mut valid = valid_buf(va, vb, n);
                for (i, ok) in valid.iter_mut().enumerate() {
                    let (x, y) = (na.u(i), nb.u(i));
                    let q = if matches!(op, Div) { x.checked_div(y) } else { x.checked_rem(y) };
                    *ok &= q.is_some();
                    out.push(q.unwrap_or(0));
                }
                return Some(VecVal::Col(Column::UInt(out), Some(valid)));
            }
            _ => unreachable!(),
        }
        return Some(VecVal::Col(Column::UInt(out), and_valid(va, vb)));
    }
    // Mixed or float operands widen to f64, as in the row path.
    let mut out = Vec::with_capacity(n);
    for i in 0..n {
        let (x, y) = (na.f(i), nb.f(i));
        out.push(match op {
            Add => x + y,
            Sub => x - y,
            Mul => x * y,
            Div => x / y,
            Mod => x % y,
            _ => unreachable!(),
        });
    }
    Some(VecVal::Col(Column::Float(out), and_valid(va, vb)))
}

/// Comparable operand view for the ordering kernels.
enum Ord2<'a> {
    Num(Num<'a>),
    SI(u32),
    VI(&'a [u32]),
    SS(&'a Bytes),
    VS(&'a [Bytes]),
    SB(bool),
    VB(&'a [bool]),
}

fn ord_view<'a>(v: &'a VecVal) -> Option<(Ord2<'a>, Option<&'a [bool]>)> {
    if let Some((n, valid)) = num_view(v) {
        return Some((Ord2::Num(n), valid));
    }
    match v {
        VecVal::Scalar(Value::Ip(s)) => Some((Ord2::SI(*s), None)),
        VecVal::Scalar(Value::Str(s)) => Some((Ord2::SS(s), None)),
        VecVal::Scalar(Value::Bool(s)) => Some((Ord2::SB(*s), None)),
        VecVal::Col(Column::Ip(c), valid) => Some((Ord2::VI(c), valid.as_deref())),
        VecVal::Col(Column::Str(c), valid) => Some((Ord2::VS(c), valid.as_deref())),
        VecVal::Col(Column::Bool(c), valid) => Some((Ord2::VB(c), valid.as_deref())),
        _ => None,
    }
}

fn cmp_vec(op: BinOp, a: &VecVal, b: &VecVal, n: usize) -> Option<VecVal> {
    use BinOp::*;
    let test: fn(Ordering) -> bool = match op {
        Eq => Ordering::is_eq,
        Ne => Ordering::is_ne,
        Lt => Ordering::is_lt,
        Le => Ordering::is_le,
        Gt => Ordering::is_gt,
        Ge => Ordering::is_ge,
        _ => unreachable!(),
    };
    let (oa, va) = ord_view(a)?;
    let (ob, vb) = ord_view(b)?;
    let mut out = Vec::with_capacity(n);
    match (&oa, &ob) {
        // Int/int compares exactly; any float operand widens both sides
        // to f64 under total order — `Value::total_cmp` semantics.
        (Ord2::Num(x), Ord2::Num(y)) => {
            if x.is_int() && y.is_int() {
                (0..n).for_each(|i| out.push(test(x.u(i).cmp(&y.u(i)))));
            } else {
                (0..n).for_each(|i| out.push(test(x.f(i).total_cmp(&y.f(i)))));
            }
        }
        (Ord2::SI(x), Ord2::VI(y)) => (0..n).for_each(|i| out.push(test(x.cmp(&y[i])))),
        (Ord2::VI(x), Ord2::SI(y)) => (0..n).for_each(|i| out.push(test(x[i].cmp(y)))),
        (Ord2::VI(x), Ord2::VI(y)) => (0..n).for_each(|i| out.push(test(x[i].cmp(&y[i])))),
        (Ord2::SS(x), Ord2::VS(y)) => (0..n).for_each(|i| out.push(test((*x).cmp(&y[i])))),
        (Ord2::VS(x), Ord2::SS(y)) => (0..n).for_each(|i| out.push(test(x[i].cmp(y)))),
        (Ord2::VS(x), Ord2::VS(y)) => (0..n).for_each(|i| out.push(test(x[i].cmp(&y[i])))),
        (Ord2::SB(x), Ord2::VB(y)) => (0..n).for_each(|i| out.push(test(x.cmp(&y[i])))),
        (Ord2::VB(x), Ord2::SB(y)) => (0..n).for_each(|i| out.push(test(x[i].cmp(y)))),
        (Ord2::VB(x), Ord2::VB(y)) => (0..n).for_each(|i| out.push(test(x[i].cmp(&y[i])))),
        // Cross-type comparisons (tag order in the row path) are not
        // worth a kernel — fall back.
        _ => return None,
    }
    Some(VecVal::Col(Column::Bool(out), and_valid(va, vb)))
}

/// Boolean operand view.
enum BIn<'a> {
    S(bool),
    V(&'a [bool]),
}

impl BIn<'_> {
    #[inline]
    fn b(&self, i: usize) -> bool {
        match self {
            BIn::S(s) => *s,
            BIn::V(v) => v[i],
        }
    }
}

fn bool_view<'a>(v: &'a VecVal) -> Option<(BIn<'a>, Option<&'a [bool]>)> {
    match v {
        VecVal::Scalar(Value::Bool(s)) => Some((BIn::S(*s), None)),
        VecVal::Col(Column::Bool(c), valid) => Some((BIn::V(c), valid.as_deref())),
        _ => None,
    }
}

fn bool_vec(op: BinOp, a: &VecVal, b: &VecVal, n: usize) -> Option<VecVal> {
    let (ba, va) = bool_view(a)?;
    let (bb, vb) = bool_view(b)?;
    // Strict, like the straight-line row program: both operand registers
    // are always evaluated before the And/Or instruction runs.
    let mut out = Vec::with_capacity(n);
    match op {
        BinOp::And => (0..n).for_each(|i| out.push(ba.b(i) && bb.b(i))),
        BinOp::Or => (0..n).for_each(|i| out.push(ba.b(i) || bb.b(i))),
        _ => unreachable!(),
    }
    Some(VecVal::Col(Column::Bool(out), and_valid(va, vb)))
}

/// Bitwise operand view: `as_uint` semantics, so `Ip` widens to `u64`.
enum UIn<'a> {
    S(u64),
    VU(&'a [u64]),
    VI(&'a [u32]),
}

impl UIn<'_> {
    #[inline]
    fn u(&self, i: usize) -> u64 {
        match self {
            UIn::S(s) => *s,
            UIn::VU(v) => v[i],
            UIn::VI(v) => u64::from(v[i]),
        }
    }
}

fn uint_view<'a>(v: &'a VecVal) -> Option<(UIn<'a>, Option<&'a [bool]>)> {
    match v {
        VecVal::Scalar(Value::UInt(s)) => Some((UIn::S(*s), None)),
        VecVal::Scalar(Value::Ip(s)) => Some((UIn::S(u64::from(*s)), None)),
        VecVal::Col(Column::UInt(c), valid) => Some((UIn::VU(c), valid.as_deref())),
        VecVal::Col(Column::Ip(c), valid) => Some((UIn::VI(c), valid.as_deref())),
        _ => None,
    }
}

fn bit_vec(op: BinOp, a: &VecVal, b: &VecVal, n: usize) -> Option<VecVal> {
    let (ua, va) = uint_view(a)?;
    let (ub, vb) = uint_view(b)?;
    let mut out = Vec::with_capacity(n);
    match op {
        BinOp::BitAnd => (0..n).for_each(|i| out.push(ua.u(i) & ub.u(i))),
        BinOp::BitOr => (0..n).for_each(|i| out.push(ua.u(i) | ub.u(i))),
        BinOp::BitXor => (0..n).for_each(|i| out.push(ua.u(i) ^ ub.u(i))),
        _ => unreachable!(),
    }
    Some(VecVal::Col(Column::UInt(out), and_valid(va, vb)))
}

fn not_vec(a: &VecVal) -> Option<VecVal> {
    match a {
        VecVal::Scalar(Value::Bool(s)) => Some(VecVal::Scalar(Value::Bool(!s))),
        VecVal::Col(Column::Bool(c), valid) => Some(VecVal::Col(
            Column::Bool(c.iter().map(|b| !b).collect()),
            valid.clone(),
        )),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::EvalScratch;
    use crate::params::ParamBindings;
    use crate::tuple::Tuple;
    use crate::udf::{FileStore, UdfRegistry};
    use gs_gsql::plan::{Literal, PExpr};
    use gs_gsql::types::DataType;

    fn compile(pe: &PExpr) -> Program {
        Program::compile(pe, &ParamBindings::new(), &UdfRegistry::with_builtins(), &FileStore::new())
            .unwrap()
    }

    fn col(i: usize) -> PExpr {
        PExpr::Col { index: i, ty: DataType::UInt }
    }

    fn bin(op: BinOp, l: PExpr, r: PExpr) -> PExpr {
        PExpr::Binary { op, left: Box::new(l), right: Box::new(r), ty: DataType::UInt }
    }

    /// Vector evaluation over a batch must agree row-for-row with the
    /// scalar evaluator over the corresponding tuples — including
    /// per-row failures (division by zero), which map to validity bits.
    fn assert_equiv(p: &Program, rows: &[Tuple]) {
        let cb = ColumnBatch::from_tuples(rows);
        let v = p.eval_vec(&cb).expect("kernel expected for this program");
        let mut s = EvalScratch::default();
        for (i, t) in rows.iter().enumerate() {
            assert_eq!(v.get(i), p.eval(t, &mut s), "row {i} diverged");
        }
    }

    #[test]
    fn arithmetic_and_div_by_zero_validity() {
        // (c0 + 7) / c1: row 2 divides by zero and must be invalid.
        let e = bin(BinOp::Div, bin(BinOp::Add, col(0), PExpr::Lit(Literal::UInt(7))), col(1));
        let p = compile(&e);
        let rows: Vec<Tuple> = [(5u64, 3u64), (9, 2), (1, 0), (100, 10)]
            .iter()
            .map(|(a, b)| Tuple::new(vec![Value::UInt(*a), Value::UInt(*b)]))
            .collect();
        assert_equiv(&p, &rows);
    }

    #[test]
    fn comparisons_across_numeric_types() {
        let e = bin(BinOp::Gt, col(0), PExpr::Lit(Literal::Float(2.5)));
        let p = compile(&e);
        let rows: Vec<Tuple> =
            (0..6u64).map(|i| Tuple::new(vec![Value::UInt(i)])).collect();
        assert_equiv(&p, &rows);
    }

    #[test]
    fn logic_and_not() {
        // NOT (c0 = 80 AND c1 < 10)
        let e = PExpr::Unary {
            op: gs_gsql::ast::UnOp::Not,
            arg: Box::new(bin(
                BinOp::And,
                bin(BinOp::Eq, col(0), PExpr::Lit(Literal::UInt(80))),
                bin(BinOp::Lt, col(1), PExpr::Lit(Literal::UInt(10))),
            )),
        };
        let p = compile(&e);
        let rows: Vec<Tuple> = [(80u64, 5u64), (80, 15), (81, 5)]
            .iter()
            .map(|(a, b)| Tuple::new(vec![Value::UInt(*a), Value::UInt(*b)]))
            .collect();
        assert_equiv(&p, &rows);
    }

    #[test]
    fn bitwise_widens_ip() {
        let e = PExpr::Binary {
            op: BinOp::BitAnd,
            left: Box::new(PExpr::Col { index: 0, ty: DataType::Ip }),
            right: Box::new(PExpr::Lit(Literal::UInt(0xffff_0000))),
            ty: DataType::UInt,
        };
        let p = compile(&e);
        let rows: Vec<Tuple> =
            [0x0a000001u32, 0xc0a80102].iter().map(|ip| Tuple::new(vec![Value::Ip(*ip)])).collect();
        assert_equiv(&p, &rows);
    }

    #[test]
    fn string_equality() {
        let e = PExpr::Binary {
            op: BinOp::Eq,
            left: Box::new(PExpr::Col { index: 0, ty: DataType::Str }),
            right: Box::new(PExpr::Lit(Literal::Str("abc".into()))),
            ty: DataType::Bool,
        };
        let p = compile(&e);
        let rows = vec![
            Tuple::new(vec![Value::Str(Bytes::from_static(b"abc"))]),
            Tuple::new(vec![Value::Str(Bytes::from_static(b"xyz"))]),
        ];
        assert_equiv(&p, &rows);
    }

    #[test]
    fn udf_has_no_kernel() {
        let mut store = FileStore::new();
        store.insert("t.tbl", b"10.0.0.0/8 7\n".to_vec());
        let e = PExpr::Call {
            udf: "getlpmid".into(),
            args: vec![
                PExpr::Col { index: 0, ty: DataType::Ip },
                PExpr::Lit(Literal::Str("t.tbl".into())),
            ],
            ret: DataType::UInt,
            partial: true,
        };
        let p =
            Program::compile(&e, &ParamBindings::new(), &UdfRegistry::with_builtins(), &store)
                .unwrap();
        let cb = ColumnBatch::from_tuples(&[Tuple::new(vec![Value::Ip(1)])]);
        assert!(p.eval_vec(&cb).is_none(), "UDF programs must fall back to rows");
    }

    #[test]
    fn selection_vector_is_honored() {
        let e = bin(BinOp::Mul, col(0), PExpr::Lit(Literal::UInt(2)));
        let p = compile(&e);
        let cb = ColumnBatch::from_tuples(
            &(0..5u64).map(|i| Tuple::new(vec![Value::UInt(i)])).collect::<Vec<_>>(),
        )
        .narrow(vec![1, 4]);
        let v = p.eval_vec(&cb).unwrap();
        assert_eq!(v.get(0), Some(Value::UInt(2)));
        assert_eq!(v.get(1), Some(Value::UInt(8)));
    }
}
