//! Hash routing of tuples to partition-parallel operator instances.
//!
//! The partition-parallel rewrite splits an aggregation HFTA into K
//! shards. A [`KeyRouter`] sits on the shards' shared input edge: it
//! evaluates the aggregate's group-key expressions against each tuple,
//! hashes the key, and picks the shard. Because the full group key is
//! hashed, a logical group lives wholly in one shard; because each shard
//! receives a subsequence of the input, every ordering property the
//! aggregate relies on still holds per shard.
//!
//! The hash is the std `DefaultHasher` with its default (zero) keys, so
//! routing is deterministic across runs, threads, and the sync/threaded
//! engines — the property tests rely on both engines splitting work
//! identically.

use crate::batch::{ColumnBatch, RowView};
use crate::expr::vector::VecVal;
use crate::expr::{EvalScratch, FieldSource, Program};
use crate::value::Value;
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

/// Routes tuples to one of `k` partitions by hash of an evaluated key.
pub struct KeyRouter {
    progs: Vec<Program>,
    scratch: EvalScratch,
    key: Vec<Value>,
    k: usize,
}

impl KeyRouter {
    /// Create a router over `k` partitions keyed by the given compiled
    /// key expressions.
    ///
    /// # Panics
    /// Panics if `k` is zero or `progs` is empty — the rewrite never
    /// produces either.
    pub fn new(progs: Vec<Program>, k: usize) -> KeyRouter {
        assert!(k > 0, "router needs at least one partition");
        assert!(!progs.is_empty(), "router needs a non-empty key");
        KeyRouter { progs, scratch: EvalScratch::default(), key: Vec::new(), k }
    }

    /// Number of partitions routed to.
    pub fn fanout(&self) -> usize {
        self.k
    }

    /// Pick the partition for one tuple — the row-at-a-time reference
    /// [`route_batch`](Self::route_batch) is checked against.
    #[cfg(test)]
    fn route(&mut self, t: &crate::tuple::Tuple) -> usize {
        self.route_src(t)
    }

    /// Pick the partition for one row. A key expression that fails to
    /// evaluate routes to partition 0 — the shard's own operators apply
    /// the same semantics (discard, or group under the same key) to the
    /// tuple, so any consistent choice is correct.
    fn route_src<S: FieldSource>(&mut self, src: &S) -> usize {
        self.key.clear();
        for p in &self.progs {
            match p.eval(src, &mut self.scratch) {
                Some(v) => self.key.push(v),
                None => return 0,
            }
        }
        let mut h = DefaultHasher::new();
        self.key.hash(&mut h);
        (h.finish() % self.k as u64) as usize
    }

    /// Pick partitions for every live row of a columnar batch, appended
    /// to `parts` (cleared first). Key expressions are vector-evaluated
    /// once and each row hashed straight from the columns; the resulting
    /// partition for every row is identical to hashing the key of the
    /// materialized tuple — `Vec<Value>` hashes as a length prefix
    /// (`write_usize`) followed by the elements, replicated here.
    pub fn route_batch(&mut self, cb: &ColumnBatch, parts: &mut Vec<u32>) {
        parts.clear();
        let n = cb.n_rows();
        parts.reserve(n);
        let keys: Option<Vec<VecVal>> = self.progs.iter().map(|p| p.eval_vec(cb)).collect();
        match keys {
            Some(keys) => {
                for row in 0..n {
                    let mut h = DefaultHasher::new();
                    h.write_usize(keys.len());
                    let mut ok = true;
                    for k in &keys {
                        if !k.hash_row(row, &mut h) {
                            ok = false;
                            break;
                        }
                    }
                    parts.push(if ok { (h.finish() % self.k as u64) as u32 } else { 0 });
                }
            }
            None => {
                for row in 0..n {
                    let rv = RowView::new(cb, row);
                    parts.push(self.route_src(&rv) as u32);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::ParamBindings;
    use crate::tuple::Tuple;
    use crate::udf::{FileStore, UdfRegistry};
    use gs_gsql::plan::PExpr;
    use gs_gsql::types::DataType;

    fn col_prog(i: usize) -> Program {
        Program::compile(
            &PExpr::Col { index: i, ty: DataType::UInt },
            &ParamBindings::new(),
            &UdfRegistry::with_builtins(),
            &FileStore::new(),
        )
        .unwrap()
    }

    fn t(vals: &[u64]) -> Tuple {
        Tuple::new(vals.iter().map(|v| Value::UInt(*v)).collect())
    }

    #[test]
    fn routing_is_deterministic_and_in_range() {
        let mut a = KeyRouter::new(vec![col_prog(0), col_prog(1)], 4);
        let mut b = KeyRouter::new(vec![col_prog(0), col_prog(1)], 4);
        for i in 0..200u64 {
            let tup = t(&[i % 13, i % 7]);
            let ra = a.route(&tup);
            assert!(ra < 4);
            assert_eq!(ra, b.route(&tup), "two routers agree on every tuple");
            assert_eq!(ra, a.route(&tup), "same tuple, same shard");
        }
    }

    #[test]
    fn route_batch_matches_per_tuple_route() {
        use crate::batch::ColumnBatch;
        use gs_gsql::ast::BinOp;

        // Mixed key types: uint, ip, float, str, bool columns.
        let tuples: Vec<Tuple> = (0..64u64)
            .map(|i| {
                Tuple::new(vec![
                    Value::UInt(i % 13),
                    Value::Ip((i % 5) as u32),
                    Value::Float(i as f64 * 0.5),
                    Value::Str(bytes::Bytes::from(format!("s{}", i % 3))),
                    Value::Bool(i % 2 == 0),
                ])
            })
            .collect();
        for key_cols in [vec![0], vec![0, 1], vec![0, 1, 2, 3, 4]] {
            let mk = || {
                KeyRouter::new(
                    key_cols
                        .iter()
                        .map(|&i| {
                            Program::compile(
                                &PExpr::Col { index: i, ty: DataType::UInt },
                                &ParamBindings::new(),
                                &UdfRegistry::with_builtins(),
                                &FileStore::new(),
                            )
                            .unwrap()
                        })
                        .collect(),
                    4,
                )
            };
            let mut row_r = mk();
            let mut col_r = mk();
            let cb = ColumnBatch::from_tuples(&tuples);
            let mut parts = Vec::new();
            col_r.route_batch(&cb, &mut parts);
            assert_eq!(parts.len(), tuples.len());
            for (t, &p) in tuples.iter().zip(&parts) {
                assert_eq!(row_r.route(t) as u32, p, "columnar routing diverged on {t:?}");
            }
        }

        // A failing key expression (division by zero) routes to 0 on
        // both paths.
        let div = Program::compile(
            &PExpr::Binary {
                op: BinOp::Div,
                left: Box::new(PExpr::Lit(gs_gsql::plan::Literal::UInt(1))),
                right: Box::new(PExpr::Col { index: 0, ty: DataType::UInt }),
                ty: DataType::UInt,
            },
            &ParamBindings::new(),
            &UdfRegistry::with_builtins(),
            &FileStore::new(),
        )
        .unwrap();
        let mut r = KeyRouter::new(vec![div], 4);
        let zero = vec![t(&[0]), t(&[7])];
        let cb = ColumnBatch::from_tuples(&zero);
        let mut parts = Vec::new();
        r.route_batch(&cb, &mut parts);
        assert_eq!(parts[0], 0, "failed key routes to partition 0");
        assert_eq!(parts[1] as usize, r.route(&zero[1]));
    }

    #[test]
    fn distinct_keys_spread_across_partitions() {
        let mut r = KeyRouter::new(vec![col_prog(0)], 4);
        let mut hit = [false; 4];
        for i in 0..64u64 {
            hit[r.route(&t(&[i]))] = true;
        }
        assert!(hit.iter().all(|h| *h), "64 distinct keys reach all 4 shards");
    }
}
