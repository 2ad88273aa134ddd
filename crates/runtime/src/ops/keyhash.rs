//! The typed key hash shared by the window join's bucket index and the
//! aggregates' group tables.
//!
//! A key is one or more typed columns. Its hash is a seeded 64-bit mix
//! of one word per key column, finished with an avalanche — randomly
//! seeded per operator for the join and the exact aggregate, whose
//! collisions cost chain walks; fixed for the LFTA's direct-mapped
//! table, whose collisions cost only evictions. An index keyed by that
//! hash takes it as is ([`PassThrough`]) and resolves collisions by
//! comparing the keys ([`key_eq`]). Equality is [`Value::total_cmp`]'s — the predicate `=`
//! of a join, the group identity of an aggregate — so two values that
//! compare equal always hash alike.

use crate::batch::Column;
use crate::value::Value;
use std::collections::hash_map::RandomState;
use std::hash::{BuildHasher, BuildHasherDefault, Hasher};

/// The key hash is mixed already; the index uses it as is.
#[derive(Default)]
pub(crate) struct PassThrough(u64);

impl Hasher for PassThrough {
    fn finish(&self) -> u64 {
        self.0
    }
    fn write(&mut self, bytes: &[u8]) {
        self.0 = bytes.iter().fold(self.0, |h, &b| mix(h, u64::from(b)));
    }
    fn write_u64(&mut self, v: u64) {
        self.0 = v;
    }
}

/// A hash map keyed by an already-mixed key hash.
pub(crate) type HashIndex<V> = std::collections::HashMap<u64, V, BuildHasherDefault<PassThrough>>;

/// A fresh random seed: keys are traffic, so the hash must not be one an
/// adversary can collide in advance.
pub(crate) fn seed() -> u64 {
    RandomState::new().hash_one(0u64)
}

pub(crate) fn mix(h: u64, w: u64) -> u64 {
    (h ^ w).wrapping_mul(0x9e37_79b9_7f4a_7c15).rotate_left(27)
}

/// Final avalanche (murmur3's fmix64): the index takes the hash as is.
pub(crate) fn fmix(mut h: u64) -> u64 {
    h ^= h >> 33;
    h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
    h ^= h >> 33;
    h = h.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    h ^ (h >> 33)
}

const IP_SALT: u64 = 0x1b87_3593_cc9e_2d51;
const BOOL_SALT: u64 = 0x2d35_8dcc_aa6c_78a5;

/// A key value as a word that is equal for any two values `=` (that is,
/// [`Value::total_cmp`]) calls equal: a number by the bits of its `f64`
/// widening — so a uint meets the float it equals, a NaN meets the same
/// NaN and −0.0 misses +0.0 — other types salted apart.
pub(crate) fn value_word(v: &Value) -> u64 {
    match v {
        Value::UInt(u) => (*u as f64).to_bits(),
        Value::Float(f) => f.to_bits(),
        Value::Ip(ip) => u64::from(*ip) ^ IP_SALT,
        Value::Bool(b) => u64::from(*b) ^ BOOL_SALT,
        Value::Str(s) => s.iter().fold(s.len() as u64, |h, &b| mix(h, u64::from(b))),
    }
}

/// [`value_word`] of row `p` of `col`, unboxed for integer columns.
pub(crate) fn key_word(col: &Column, p: usize) -> u64 {
    match col {
        Column::UInt(v) => (v[p] as f64).to_bits(),
        Column::Ip(v) => u64::from(v[p]) ^ IP_SALT,
        col => value_word(&col.get(p)),
    }
}

/// `a[i] = b[j]` exactly as the predicate's `=` decides it:
/// [`Value::total_cmp`] equality, floats by bit pattern.
pub(crate) fn key_eq(a: &Column, i: usize, b: &Column, j: usize) -> bool {
    match (a, b) {
        (Column::UInt(x), Column::UInt(y)) => x[i] == y[j],
        (Column::Ip(x), Column::Ip(y)) => x[i] == y[j],
        _ => a.get(i).total_cmp(&b.get(j)).is_eq(),
    }
}

/// The key hash of `n` rows whose key columns are `cols`, row `i` at
/// physical index `phys(i)` of each column.
pub(crate) fn hash_rows<'a>(
    seed: u64,
    cols: impl IntoIterator<Item = &'a Column>,
    n: usize,
    phys: impl Fn(usize) -> usize,
) -> Vec<u64> {
    let mut h = vec![seed; n];
    for col in cols {
        for (i, hi) in h.iter_mut().enumerate() {
            *hi = mix(*hi, key_word(col, phys(i)));
        }
    }
    h.iter_mut().for_each(|hi| *hi = fmix(*hi));
    h
}
