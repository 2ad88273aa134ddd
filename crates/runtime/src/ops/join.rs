//! The two-stream window join.
//!
//! "The join predicate must contain a constraint on an ordered attribute
//! from each table which can be used to define a join window. For example,
//! `B.ts = C.ts` or `B.ts >= C.ts - 1 and B.ts <= C.ts + 1`." (paper §2.1)
//!
//! Symmetric probe-then-insert hash join over column batches: equality
//! conjuncts beyond the window (e.g. `B.srcIP = C.srcIP`) become the key,
//! so each arriving row probes only the bucket chain its key hashes to;
//! the window constraint then prunes by the ordered attribute, and
//! whatever is left of the predicate runs as a residual over the gathered
//! pairs. Each matching pair is produced exactly once, by whichever row
//! arrives second. Ordered-attribute watermarks — advanced by tuples and
//! by punctuation — set a GC horizon below which no future row can match,
//! bounding state without sliding windows.
//!
//! Each side is a ring of the batches it was fed. A 64-bit hash of the
//! typed key columns indexes insertion-ordered chains through those
//! batches; matches become `(arriving row, buffered row)` gather pairs,
//! and the residual and projections are vector programs over the pair
//! batch.

use crate::batch::{Column, ColumnBatch};
use crate::expr::{EvalScratch, Program};
use crate::ops::merge::Runs;
use crate::ops::select::{filter, project};
use crate::punct::Punct;
use crate::snapshot::{proto, rows_batch, SnapError, SnapReader, SnapWriter};
use crate::stats::OpCounters;
use crate::value::Value;
use std::collections::hash_map::{Entry, RandomState};
use std::collections::{HashMap, VecDeque};
use std::hash::{BuildHasher, BuildHasherDefault, Hasher};
use std::sync::Arc;

/// Configuration of a window join.
pub struct JoinConfig {
    /// Ordered column index in the left schema.
    pub left_col: usize,
    /// Ordered column index in the right schema.
    pub right_col: usize,
    /// Matches require `left ∈ [right + lo, right + hi]`.
    pub lo: i64,
    /// See `lo`.
    pub hi: i64,
    /// Banded slack of the left ordered column.
    pub left_slack: u64,
    /// Banded slack of the right ordered column.
    pub right_slack: u64,
    /// Equality pairs `(left col, right col)` used as the hash key.
    pub eq_keys: Vec<(usize, usize)>,
    /// Output-ordering mode (the §5 optimization dimension: "the choice of
    /// operator implementation affects the attribute ordering properties
    /// of its output ... monotonically increasing requires more buffer
    /// space").
    pub emit: EmitMode,
    /// For [`EmitMode::Sorted`], the output column carrying the left
    /// ordered attribute (tuples are held and released in its order).
    pub sort_out_col: usize,
}

/// How join results are released.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EmitMode {
    /// Emit each match immediately: minimal buffering, output ordering is
    /// banded-increasing(window width).
    #[default]
    Banded,
    /// Hold matches and release them in nondecreasing order of the left
    /// ordered attribute: monotone output at the cost of buffer space.
    Sorted,
}

/// A buffered row: `(chunk number << 32) | live row within the chunk`.
type RowId = u64;

/// End of a bucket chain.
const NIL: RowId = u64::MAX;

/// One batch a side was fed, with per-row ordered value, key hash and
/// bucket-chain link.
struct Chunk {
    batch: ColumnBatch,
    ts: Vec<u64>,
    hash: Vec<u64>,
    /// The next-newer row with the same key hash.
    next: Vec<RowId>,
    max_ts: u64,
    /// Rows in ordered-value order, when insertion order is not already.
    by_ts: Option<Vec<u32>>,
    /// Rows counted out by window GC: the first `cut` in value order.
    cut: usize,
}

impl Chunk {
    /// The row with the smallest ordered value not yet counted out.
    fn next_out(&self) -> Option<usize> {
        match &self.by_ts {
            None => (self.cut < self.ts.len()).then_some(self.cut),
            Some(order) => order.get(self.cut).map(|&o| o as usize),
        }
    }
}

/// Oldest and newest row of one bucket chain.
struct Chain {
    head: RowId,
    tail: RowId,
}

/// The key hash is mixed already; the index uses it as is.
#[derive(Default)]
struct PassThrough(u64);

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

/// One side's buffer: a ring of fed batches plus the key-hash index over
/// their rows. A chain is insertion-ordered and only ever loses its
/// oldest rows, so links never dangle.
struct Side {
    /// This side's key columns, in `eq_keys` order.
    key_cols: Vec<usize>,
    /// Random per join, shared by its two sides: the keys are traffic, so
    /// the hash must not be one an adversary can collide in advance.
    seed: u64,
    chunks: VecDeque<Chunk>,
    /// Chunk number of `chunks[0]`.
    front: u64,
    index: HashMap<u64, Chain, BuildHasherDefault<PassThrough>>,
    /// Window GC horizon: a row whose ordered value is below it can match
    /// no future row of the other side, so probes skip it at once.
    horizon: i128,
    watermark: Option<u64>,
    done: bool,
    /// Rows buffered (not yet counted out by GC).
    len: usize,
    /// Entries discarded by window GC (no future match possible).
    gc_dropped: u64,
}

impl Side {
    fn new(key_cols: Vec<usize>, seed: u64) -> Side {
        Side {
            key_cols,
            seed,
            chunks: VecDeque::new(),
            front: 0,
            index: HashMap::default(),
            horizon: i128::MIN,
            watermark: None,
            done: false,
            len: 0,
            gc_dropped: 0,
        }
    }

    /// The key hash of every live row of `cb`.
    fn hashes(&self, cb: &ColumnBatch) -> Vec<u64> {
        let mut h = vec![self.seed; cb.n_rows()];
        for &k in &self.key_cols {
            let col = cb.col(k);
            for (i, hi) in h.iter_mut().enumerate() {
                *hi = mix(*hi, key_word(col, cb.phys(i)));
            }
        }
        h.iter_mut().for_each(|hi| *hi = fmix(*hi));
        h
    }

    /// Ring index and live row of `id`.
    fn slot(&self, id: RowId) -> (usize, usize) {
        (((id >> 32) - self.front) as usize, (id & 0xffff_ffff) as usize)
    }

    /// Whether a row with ordered value `ts` can still match.
    fn visible(&self, ts: u64) -> bool {
        i128::from(ts) >= self.horizon
    }

    /// Buffer the live rows of `batch`, each linked at the newest end of
    /// its bucket chain.
    fn insert(&mut self, batch: ColumnBatch, ts: Vec<u64>, hash: Vec<u64>) {
        let n = ts.len();
        let Some(&max_ts) = ts.iter().max() else {
            return;
        };
        let number = self.front + self.chunks.len() as u64;
        let by_ts = (!ts.windows(2).all(|w| w[0] <= w[1])).then(|| {
            let mut order: Vec<u32> = (0..n as u32).collect();
            order.sort_by_key(|&o| ts[o as usize]);
            order
        });
        self.chunks.push_back(Chunk { batch, ts, hash, next: vec![NIL; n], max_ts, by_ts, cut: 0 });
        let last = self.chunks.len() - 1;
        for o in 0..n {
            let id = number << 32 | o as u64;
            let newest = match self.index.entry(self.chunks[last].hash[o]) {
                Entry::Occupied(mut e) => Some(std::mem::replace(&mut e.get_mut().tail, id)),
                Entry::Vacant(e) => {
                    e.insert(Chain { head: id, tail: id });
                    None
                }
            };
            if let Some(prev) = newest {
                let (c, r) = self.slot(prev);
                self.chunks[c].next[r] = id;
            }
        }
        self.len += n;
    }

    /// Advance the GC horizon. Rows below it become invisible at once;
    /// counting them out walks the ring from the front and stops at the
    /// first chunk past which, by the side's slack, no row can be below
    /// the horizon. Each chain a counted-out row belongs to then starts
    /// at its oldest visible row, so probes never walk a dead prefix, and
    /// a chunk whose rows are all out is referenced by no chain and leaves
    /// from the front.
    fn gc(&mut self, horizon: i128, slack: u64) {
        self.horizon = self.horizon.max(horizon);
        let mut out = Vec::new();
        for c in &mut self.chunks {
            while let Some(o) = c.next_out() {
                if i128::from(c.ts[o]) >= self.horizon {
                    break;
                }
                c.cut += 1;
                out.push(c.hash[o]);
            }
            if i128::from(c.max_ts) - i128::from(slack) >= self.horizon {
                break;
            }
        }
        self.len -= out.len();
        self.gc_dropped += out.len() as u64;
        for h in out {
            let Entry::Occupied(mut e) = self.index.entry(h) else { continue };
            let mut head = e.get().head;
            while head != NIL {
                let c = &self.chunks[((head >> 32) - self.front) as usize];
                let o = (head & 0xffff_ffff) as usize;
                if i128::from(c.ts[o]) >= self.horizon {
                    break;
                }
                head = c.next[o];
            }
            match head {
                NIL => {
                    e.remove();
                }
                live => e.get_mut().head = live,
            }
        }
        while self.chunks.front().is_some_and(|c| c.cut == c.ts.len()) {
            self.chunks.pop_front();
            self.front += 1;
        }
    }

    fn clear(&mut self) {
        self.front += self.chunks.len() as u64;
        self.chunks.clear();
        self.index.clear();
        self.len = 0;
    }

    /// Smallest buffered ordered value (banded inputs buffer out of
    /// insertion order, so this is not the oldest row's).
    fn min_ts(&self) -> Option<u64> {
        self.chunks.iter().filter_map(|c| c.next_out().map(|o| c.ts[o])).min()
    }

    /// The visible rows in insertion order as `(ts, key, tuple)` records;
    /// then a zero where the format keeps a field this layout no longer
    /// needs (the former straggler-compaction countdown), the watermark,
    /// the done flag and the GC counter.
    fn put(&self, w: &mut SnapWriter) {
        let rows = || {
            self.chunks.iter().flat_map(|c| {
                (0..c.ts.len()).filter(|&o| self.visible(c.ts[o])).map(move |o| (c, o))
            })
        };
        w.put_u32(rows().count() as u32);
        for (c, o) in rows() {
            let p = c.batch.phys(o);
            w.put_u64(c.ts[o]);
            w.put_u32(self.key_cols.len() as u32);
            for &k in &self.key_cols {
                w.put_value(&c.batch.col(k).get(p));
            }
            w.put_row(&c.batch, p);
        }
        w.put_u64(0);
        w.put_opt_u64(self.watermark);
        w.put_bool(self.done);
        w.put_u64(self.gc_dropped);
    }

    /// Rebuild the buffer from [`put`](Side::put)'s records (one chunk,
    /// chains relinked in insertion order).
    fn get(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        let n = r.get_count(13)?; // ts + key count + >=1-byte tuple
        self.clear();
        let mut ts = Vec::with_capacity(n);
        let mut rows = Vec::with_capacity(n);
        for _ in 0..n {
            ts.push(r.get_u64()?);
            let key = r.get_values()?;
            if key.len() != self.key_cols.len() {
                return Err(proto(format!(
                    "join key arity {} != {}",
                    key.len(),
                    self.key_cols.len()
                )));
            }
            rows.push(r.get_tuple()?);
        }
        let _compaction_countdown = r.get_u64()?;
        self.watermark = r.get_opt_u64()?;
        self.done = r.get_bool()?;
        self.gc_dropped = r.get_u64()?;
        if rows.is_empty() {
            return Ok(());
        }
        let batch = rows_batch(&rows)?;
        if self.key_cols.iter().any(|&k| k >= batch.n_cols()) {
            return Err(proto("join key column beyond the restored rows"));
        }
        let hash = self.hashes(&batch);
        self.insert(batch, ts, hash);
        Ok(())
    }
}

fn mix(h: u64, w: u64) -> u64 {
    (h ^ w).wrapping_mul(0x9e37_79b9_7f4a_7c15).rotate_left(27)
}

/// Final avalanche (murmur3's fmix64): the index takes the hash as is.
fn fmix(mut h: u64) -> u64 {
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
fn key_word(col: &Column, p: usize) -> u64 {
    match col {
        Column::UInt(v) => (v[p] as f64).to_bits(),
        Column::Ip(v) => u64::from(v[p]) ^ IP_SALT,
        col => match col.get(p) {
            Value::UInt(u) => (u as f64).to_bits(),
            Value::Float(f) => f.to_bits(),
            Value::Ip(ip) => u64::from(ip) ^ IP_SALT,
            Value::Bool(b) => u64::from(b) ^ BOOL_SALT,
            Value::Str(s) => s.iter().fold(s.len() as u64, |h, &b| mix(h, u64::from(b))),
        },
    }
}

/// `a[i] = b[j]` exactly as the predicate's `=` decides it:
/// [`Value::total_cmp`] equality, floats by bit pattern.
fn key_eq(a: &Column, i: usize, b: &Column, j: usize) -> bool {
    match (a, b) {
        (Column::UInt(x), Column::UInt(y)) => x[i] == y[j],
        (Column::Ip(x), Column::Ip(y)) => x[i] == y[j],
        _ => a.get(i).total_cmp(&b.get(j)).is_eq(),
    }
}

/// The join operator. Residual predicate and projections run over the
/// concatenated tuple (left fields then right fields).
pub struct JoinOp {
    cfg: JoinConfig,
    residual: Option<Program>,
    projections: Vec<Program>,
    /// Width of the pair batch: one past the last column a program reads.
    pair_width: usize,
    /// Which pair-batch columns a program reads (the rest are not
    /// gathered).
    reads: Vec<bool>,
    left: Side,
    right: Side,
    scratch: EvalScratch,
    /// Results held back by [`EmitMode::Sorted`], released in the order
    /// of the sort value.
    pending: Runs,
    pending_seq: u64,
    /// Peak buffered tuples across both sides.
    pub peak_buffered: usize,
    /// Peak result tuples held for ordered release (Sorted mode only).
    pub peak_pending: usize,
    /// Output tuples produced.
    pub produced: u64,
    tuples_in: u64,
    batches: u64,
    puncts: u64,
    stats: Arc<OpCounters>,
}

impl JoinOp {
    /// Build a join.
    pub fn new(cfg: JoinConfig, residual: Option<Program>, projections: Vec<Program>) -> JoinOp {
        let fields: Vec<usize> =
            residual.iter().chain(&projections).flat_map(Program::fields).collect();
        // At least one column, so a pair batch always counts its rows.
        let pair_width = fields.iter().max().map_or(1, |m| m + 1);
        let mut reads = vec![false; pair_width];
        for f in fields {
            reads[f] = true;
        }
        let seed = RandomState::new().hash_one(0u64);
        JoinOp {
            left: Side::new(cfg.eq_keys.iter().map(|k| k.0).collect(), seed),
            right: Side::new(cfg.eq_keys.iter().map(|k| k.1).collect(), seed),
            cfg,
            residual,
            projections,
            pair_width,
            reads,
            scratch: EvalScratch::default(),
            pending: Runs::default(),
            pending_seq: 0,
            peak_buffered: 0,
            peak_pending: 0,
            produced: 0,
            tuples_in: 0,
            batches: 0,
            puncts: 0,
            stats: Arc::new(OpCounters::default()),
        }
    }

    /// Tuples currently buffered on both sides.
    pub fn buffered(&self) -> usize {
        self.left.len + self.right.len
    }

    /// `left ∈ [right + lo, right + hi]`, in i128 to dodge overflow at
    /// the u64 edges.
    fn window_match(&self, lv: u64, rv: u64) -> bool {
        let d = i128::from(lv) - i128::from(rv);
        i128::from(self.cfg.lo) <= d && d <= i128::from(self.cfg.hi)
    }

    /// Every match of the arriving rows of `cb` against the other side:
    /// per arriving row in order, its bucket chain in insertion order.
    fn probe(
        &self,
        is_left: bool,
        cb: &ColumnBatch,
        ts: &[Option<u64>],
        hash: &[u64],
    ) -> Vec<(u32, RowId)> {
        let (mine, other) =
            if is_left { (&self.left, &self.right) } else { (&self.right, &self.left) };
        let mut pairs = Vec::new();
        for (i, (v, h)) in ts.iter().zip(hash).enumerate() {
            let (Some(v), Some(chain)) = (v, other.index.get(h)) else {
                continue;
            };
            let p = cb.phys(i);
            let mut id = chain.head;
            while id != NIL {
                let (c, o) = other.slot(id);
                let chunk = &other.chunks[c];
                let ov = chunk.ts[o];
                let (lv, rv) = if is_left { (*v, ov) } else { (ov, *v) };
                if other.visible(ov)
                    && self.window_match(lv, rv)
                    && mine.key_cols.iter().zip(&other.key_cols).all(|(&a, &b)| {
                        key_eq(cb.col(a), p, chunk.batch.col(b), chunk.batch.phys(o))
                    })
                {
                    pairs.push((i as u32, id));
                }
                id = chunk.next[o];
            }
        }
        pairs
    }

    /// Gather the matched pairs into one batch of the concatenated
    /// schema (only the columns some program reads), keep the pairs the
    /// residual accepts, and project them.
    fn emit(
        &mut self,
        is_left: bool,
        arriving: &ColumnBatch,
        pairs: &[(u32, RowId)],
    ) -> ColumnBatch {
        let Some(&(_, first)) = pairs.first() else {
            return ColumnBatch::default();
        };
        let stored = if is_left { &self.right } else { &self.left };
        let m = pairs.len();
        let arriving_rows: Vec<u32> =
            pairs.iter().map(|&(i, _)| arriving.phys(i as usize) as u32).collect();
        // Stored rows, and the slices of them that come from one chunk.
        let mut stored_rows = Vec::with_capacity(m);
        let mut slices: Vec<(usize, usize, usize)> = Vec::new();
        for &(_, id) in pairs {
            let (c, o) = stored.slot(id);
            match slices.last_mut() {
                Some(s) if s.0 == c => s.2 += 1,
                _ => slices.push((c, stored_rows.len(), stored_rows.len() + 1)),
            }
            stored_rows.push(stored.chunks[c].batch.phys(o) as u32);
        }
        let n_stored = stored.chunks[stored.slot(first).0].batch.n_cols();
        let n_left = if is_left { arriving.n_cols() } else { n_stored };
        let cols = (0..self.pair_width)
            .map(|c| {
                let (from_arriving, k) =
                    if c < n_left { (is_left, c) } else { (!is_left, c - n_left) };
                if !self.reads[c] {
                    Column::Bool(vec![false; m])
                } else if from_arriving {
                    arriving.col(k).gather_rows(&arriving_rows)
                } else {
                    let parts: Vec<(&Column, &[u32])> = slices
                        .iter()
                        .map(|&(ci, s, e)| (stored.chunks[ci].batch.col(k), &stored_rows[s..e]))
                        .collect();
                    Column::gather_parts(&parts)
                }
            })
            .collect();
        let pairs = ColumnBatch::from_columns(cols);
        let kept = match &self.residual {
            Some(res) => filter(res, pairs, &mut self.scratch),
            None => pairs,
        };
        let out = project(&self.projections, &kept, &mut self.scratch);
        self.produced += out.n_rows() as u64;
        out
    }

    /// Hold results for sorted release, keyed by their sort value and
    /// production order.
    fn hold(&mut self, results: ColumnBatch) {
        let n = results.n_rows();
        if n == 0 {
            return;
        }
        // `sort_out_col` must project the left ordered attribute; a
        // non-integer column keys everything at 0, which defers release
        // until end of stream (safe, never wrong-ordered).
        let col =
            (self.cfg.sort_out_col < results.n_cols()).then(|| results.col(self.cfg.sort_out_col));
        let keys = (0..n)
            .map(|i| {
                let v = col.and_then(|c| c.uint(results.phys(i)));
                debug_assert!(
                    v.is_some(),
                    "EmitMode::Sorted requires sort_out_col to be an integer column"
                );
                self.pending_seq += 1;
                (v.unwrap_or(0), self.pending_seq)
            })
            .collect();
        self.pending.push(0, results, keys);
        self.peak_pending = self.peak_pending.max(self.pending.len());
    }

    /// Release held results whose sort value can no longer be undercut by
    /// a future match: future left arrivals emit at `>= left_wm - slack`,
    /// and buffered left tuples may still pair at their own values.
    fn release_sorted(&mut self) -> ColumnBatch {
        if self.cfg.emit != EmitMode::Sorted {
            return ColumnBatch::default();
        }
        let mut bound = match (self.left.watermark, self.left.done) {
            (_, true) => u64::MAX,
            (Some(wm), false) => wm.saturating_sub(self.cfg.left_slack),
            (None, false) => return ColumnBatch::default(),
        };
        if let Some(min_buf) = self.left.min_ts() {
            bound = bound.min(min_buf);
        }
        self.pending.release(bound)
    }

    /// Advance both GC horizons from the watermarks.
    fn gc(&mut self) {
        // Future left values are >= left_wm - left_slack =: fl. A right
        // entry r matches left values in [r+lo, r+hi]; it is dead once
        // r + hi < fl.
        if let Some(wm) = self.left.watermark {
            if !self.left.done {
                let fl = i128::from(wm.saturating_sub(self.cfg.left_slack));
                self.right.gc(fl - i128::from(self.cfg.hi), self.cfg.right_slack);
            }
        }
        if self.left.done {
            self.right.clear();
        }
        // Future right values are >= right_wm - right_slack =: fr. A left
        // entry l matches right values in [l-hi, l-lo]; dead once
        // l - lo < fr.
        if let Some(wm) = self.right.watermark {
            if !self.right.done {
                let fr = i128::from(wm.saturating_sub(self.cfg.right_slack));
                self.left.gc(fr + i128::from(self.cfg.lo), self.cfg.left_slack);
            }
        }
        if self.right.done {
            self.left.clear();
        }
    }

    /// Punctuation on the window column advances the side's watermark,
    /// enabling GC of the opposite buffer even when the side is silent.
    fn absorb_punct(&mut self, port: usize, p: &Punct) {
        self.puncts += 1;
        let Some(low) = p.low.as_uint() else { return };
        if port == 0 && p.col == self.cfg.left_col {
            // Future left values >= low: express as watermark with the
            // slack pre-compensated.
            let wm = low.saturating_add(self.cfg.left_slack);
            self.left.watermark = Some(self.left.watermark.map_or(wm, |w| w.max(wm)));
        } else if port == 1 && p.col == self.cfg.right_col {
            let wm = low.saturating_add(self.cfg.right_slack);
            self.right.watermark = Some(self.right.watermark.map_or(wm, |w| w.max(wm)));
        }
    }

    /// Feed a batch into input `port` (0 = left, 1 = right): every row
    /// probes the other side and is then buffered on its own, the
    /// trailing punctuation advances the watermark, and GC and sorted
    /// release run once for the whole batch. Deferring GC is safe: dead
    /// buffer entries always fail the window predicate. Returns the
    /// result rows; the join emits no punctuation.
    pub fn push_cols(
        &mut self,
        port: usize,
        cols: ColumnBatch,
        punct: Option<Punct>,
    ) -> ColumnBatch {
        self.batches += 1;
        let is_left = port == 0;
        let n = cols.n_rows();
        self.tuples_in += n as u64;
        let mut out = ColumnBatch::default();
        if n > 0 {
            let (ord_col, side) = if is_left {
                (self.cfg.left_col, &mut self.left)
            } else {
                (self.cfg.right_col, &mut self.right)
            };
            // A row without an integer ordered value is counted and
            // dropped.
            let col = cols.col(ord_col);
            let ts: Vec<Option<u64>> = (0..n).map(|i| col.uint(cols.phys(i))).collect();
            if let Some(&top) = ts.iter().flatten().max() {
                side.watermark = Some(side.watermark.map_or(top, |w| w.max(top)));
            }
            let hash = side.hashes(&cols);
            let pairs = self.probe(is_left, &cols, &ts, &hash);
            let results = self.emit(is_left, &cols, &pairs);
            match self.cfg.emit {
                EmitMode::Banded => out = results,
                EmitMode::Sorted => self.hold(results),
            }
            let (side, other_done) = if is_left {
                (&mut self.left, self.right.done)
            } else {
                (&mut self.right, self.left.done)
            };
            if !other_done {
                let (batch, hash) = if ts.iter().all(Option::is_some) {
                    (cols, hash)
                } else {
                    let keep: Vec<u32> =
                        (0..n as u32).filter(|&i| ts[i as usize].is_some()).collect();
                    let hash = keep.iter().map(|&i| hash[i as usize]).collect();
                    (cols.narrow(keep), hash)
                };
                side.insert(batch, ts.into_iter().flatten().collect(), hash);
            }
        }
        if let Some(p) = &punct {
            self.absorb_punct(port, p);
        }
        self.gc();
        if self.cfg.emit == EmitMode::Sorted {
            out = self.release_sorted();
        }
        self.peak_buffered = self.peak_buffered.max(self.buffered());
        out
    }

    /// Mark one side exhausted (its buffer side can then be dropped as the
    /// other side advances).
    pub fn finish_input(&mut self, port: usize) {
        if port == 0 {
            self.left.done = true;
        } else {
            self.right.done = true;
        }
        self.gc();
    }

    /// All inputs are exhausted: drop both buffers and release every held
    /// result.
    pub fn finish(&mut self) -> ColumnBatch {
        self.left.done = true;
        self.right.done = true;
        self.left.clear();
        self.right.clear();
        self.release_sorted()
    }

    /// The shared counter block.
    pub fn stats_handle(&self) -> Arc<OpCounters> {
        self.stats.clone()
    }

    /// Publish the plain counters into the shared block.
    pub fn publish_stats(&self) {
        self.stats.tuples_in.set(self.tuples_in);
        self.stats.tuples_out.set(self.produced);
        self.stats.batches_in.set(self.batches);
        self.stats.puncts_in.set(self.puncts);
        self.stats.gc_dropped.set(self.left.gc_dropped + self.right.gc_dropped);
        self.stats.peak_held.set(self.peak_buffered as u64);
    }

    /// Both window buffers, the sorted-release queue, and the counters.
    pub fn snapshot(&self, w: &mut SnapWriter) {
        self.left.put(w);
        self.right.put(w);
        self.pending.put(w, 0);
        w.put_u64(self.pending_seq);
        w.put_u64(self.peak_buffered as u64);
        w.put_u64(self.peak_pending as u64);
        w.put_u64(self.produced);
        w.put_u64(self.tuples_in);
        w.put_u64(self.batches);
        w.put_u64(self.puncts);
    }

    /// Restore state written by [`snapshot`](JoinOp::snapshot) into a
    /// freshly built join of the same shape.
    pub fn restore(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        self.left.get(r)?;
        self.right.get(r)?;
        self.pending = Runs::default();
        self.pending.get(r, 0)?;
        self.pending_seq = r.get_u64()?;
        self.peak_buffered = (r.get_u64()? as usize).max(self.buffered());
        self.peak_pending = (r.get_u64()? as usize).max(self.pending.len());
        self.produced = r.get_u64()?;
        self.tuples_in = r.get_u64()?;
        self.batches = r.get_u64()?;
        self.puncts = r.get_u64()?;
        // The GC horizons are a function of the watermarks.
        self.gc();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::ParamBindings;
    use crate::tuple::{StreamItem, Tuple};
    use crate::udf::{FileStore, UdfRegistry};
    use gs_gsql::ast::BinOp;
    use gs_gsql::plan::PExpr;
    use gs_gsql::types::DataType;

    fn prog(pe: &PExpr) -> Program {
        Program::compile(
            pe,
            &ParamBindings::new(),
            &UdfRegistry::with_builtins(),
            &FileStore::new(),
        )
        .unwrap()
    }

    fn col(i: usize) -> PExpr {
        PExpr::Col { index: i, ty: DataType::UInt }
    }

    fn config(lo: i64, hi: i64, eq_keys: Vec<(usize, usize)>) -> JoinConfig {
        JoinConfig {
            left_col: 0,
            right_col: 0,
            lo,
            hi,
            left_slack: 0,
            right_slack: 0,
            eq_keys,
            emit: EmitMode::Banded,
            sort_out_col: 0,
        }
    }

    /// Join on ts (col 0 both sides), projecting (l.ts, l.v, r.v) where
    /// tuples are (ts, v) pairs.
    fn join(lo: i64, hi: i64, residual_on_v: bool) -> JoinOp {
        let residual = residual_on_v.then(|| {
            prog(&PExpr::Binary {
                op: BinOp::Eq,
                left: Box::new(col(1)),
                right: Box::new(col(3)),
                ty: DataType::Bool,
            })
        });
        JoinOp::new(
            config(lo, hi, vec![]),
            residual,
            vec![prog(&col(0)), prog(&col(1)), prog(&col(3))],
        )
    }

    fn tup(ts: u64, v: u64) -> StreamItem {
        StreamItem::Tuple(Tuple::new(vec![Value::UInt(ts), Value::UInt(v)]))
    }

    /// Feed row items as the transport would: cut into batches at each
    /// punctuation, each result batch appended as rows.
    fn push(j: &mut JoinOp, port: usize, items: Vec<StreamItem>, out: &mut Vec<StreamItem>) {
        for (cb, p) in ColumnBatch::from_items(items) {
            out.extend(j.push_cols(port, cb, p).into_items(None));
        }
    }

    fn finish(j: &mut JoinOp, out: &mut Vec<StreamItem>) {
        out.extend(j.finish().into_items(None));
    }

    fn rows(out: &[StreamItem]) -> Vec<(u64, u64, u64)> {
        out.iter()
            .filter_map(|i| i.as_tuple())
            .map(|t| {
                (
                    t.get(0).as_uint().unwrap(),
                    t.get(1).as_uint().unwrap(),
                    t.get(2).as_uint().unwrap(),
                )
            })
            .collect()
    }

    #[test]
    fn equality_window_matches_same_ts() {
        let mut j = join(0, 0, false);
        let mut out = Vec::new();
        push(&mut j, 0, vec![tup(1, 10)], &mut out);
        push(&mut j, 1, vec![tup(1, 20)], &mut out);
        push(&mut j, 1, vec![tup(2, 21)], &mut out);
        push(&mut j, 0, vec![tup(2, 11)], &mut out);
        assert_eq!(rows(&out), vec![(1, 10, 20), (2, 11, 21)]);
        assert_eq!(j.produced, 2);
    }

    #[test]
    fn band_window_matches_within_band() {
        let mut j = join(-1, 1, false);
        let mut out = Vec::new();
        push(&mut j, 0, vec![tup(5, 1)], &mut out);
        push(&mut j, 1, vec![tup(4, 2)], &mut out); // 5-4 = 1 <= 1 ✓
        push(&mut j, 1, vec![tup(6, 3)], &mut out); // 5-6 = -1 ✓
        push(&mut j, 1, vec![tup(7, 4)], &mut out); // 5-7 = -2 ✗
        let r = rows(&out);
        assert_eq!(r, vec![(5, 1, 2), (5, 1, 3)]);
    }

    #[test]
    fn no_duplicate_pairs() {
        let mut j = join(0, 0, false);
        let mut out = Vec::new();
        // Same-ts tuples arriving in both orders must pair exactly once.
        push(&mut j, 0, vec![tup(3, 1)], &mut out);
        push(&mut j, 1, vec![tup(3, 2)], &mut out);
        push(&mut j, 0, vec![tup(3, 5)], &mut out); // pairs with the buffered right
        assert_eq!(rows(&out).len(), 2);
    }

    #[test]
    fn residual_predicate_filters() {
        let mut j = join(0, 0, true);
        let mut out = Vec::new();
        push(&mut j, 0, vec![tup(1, 7)], &mut out);
        push(&mut j, 1, vec![tup(1, 7)], &mut out);
        push(&mut j, 1, vec![tup(1, 8)], &mut out);
        assert_eq!(rows(&out), vec![(1, 7, 7)], "only v-equal pairs survive");
    }

    #[test]
    fn hash_keys_prune_probes_with_same_results() {
        // The same v-equality expressed as a hash key instead of residual.
        let mk_hash = || {
            JoinOp::new(
                config(0, 0, vec![(1, 1)]),
                None,
                vec![prog(&col(0)), prog(&col(1)), prog(&col(3))],
            )
        };
        let mut hash_join = mk_hash();
        let mut residual_join = join(0, 0, true);
        let data: Vec<(usize, u64, u64)> =
            (0..200).map(|i| ((i % 2), (i / 10) as u64, (i % 7) as u64)).collect();
        let mut out_h = Vec::new();
        let mut out_r = Vec::new();
        for &(port, ts, v) in &data {
            push(&mut hash_join, port, vec![tup(ts, v)], &mut out_h);
            push(&mut residual_join, port, vec![tup(ts, v)], &mut out_r);
        }
        let mut rh = rows(&out_h);
        let mut rr = rows(&out_r);
        rh.sort();
        rr.sort();
        assert_eq!(rh, rr, "hash keys must not change join semantics");
        assert!(!rh.is_empty());
    }

    /// The key compare is the predicate's `=` (`Value::total_cmp`): a
    /// uint key meets the float it equals, NaN meets NaN, −0.0 misses
    /// +0.0 — exactly the pairs a nested loop over the residual keeps.
    #[test]
    fn hash_keys_compare_like_the_predicate() {
        let key = |v: Value| StreamItem::Tuple(Tuple::new(vec![Value::UInt(1), v]));
        let left = [Value::UInt(3), Value::Float(f64::NAN), Value::Float(-0.0), Value::UInt(7)];
        let right = [
            Value::Float(3.0),
            Value::Float(f64::NAN),
            Value::Float(0.0),
            Value::Ip(7),
            Value::UInt(3),
        ];
        let mut j =
            JoinOp::new(config(0, 0, vec![(1, 1)]), None, vec![prog(&col(1)), prog(&col(3))]);
        let mut out = Vec::new();
        // One row per batch: a float and a uint key in one column would
        // degrade it to boxed values, which the compare must also handle.
        for v in &left {
            push(&mut j, 0, vec![key(v.clone())], &mut out);
        }
        for v in &right {
            push(&mut j, 1, vec![key(v.clone())], &mut out);
        }
        let got: Vec<(Value, Value)> = out
            .iter()
            .filter_map(|i| i.as_tuple())
            .map(|t| (t.get(0).clone(), t.get(1).clone()))
            .collect();
        let mut want = Vec::new();
        for r in &right {
            for l in &left {
                if l.total_cmp(r).is_eq() {
                    want.push((l.clone(), r.clone()));
                }
            }
        }
        assert_eq!(format!("{got:?}"), format!("{want:?}"));
        assert_eq!(got.len(), 3, "3 = 3.0, NaN = NaN, 3 = 3: {got:?}");
    }

    #[test]
    fn watermarks_bound_buffers() {
        let mut j = join(0, 0, false);
        let mut out = Vec::new();
        for ts in 0..1000u64 {
            push(&mut j, 0, vec![tup(ts, 0)], &mut out);
            push(&mut j, 1, vec![tup(ts, 0)], &mut out);
        }
        // With an equality window and synchronized sides, buffers stay tiny.
        assert!(j.peak_buffered <= 4, "peak {}", j.peak_buffered);
        assert_eq!(j.produced, 1000);
    }

    #[test]
    fn punctuation_gcs_a_silent_side() {
        let mut j = join(0, 0, false);
        let mut out = Vec::new();
        for ts in 0..100u64 {
            push(&mut j, 1, vec![tup(ts, 0)], &mut out);
        }
        assert_eq!(j.buffered(), 100, "right side waits for left matches");
        // The left side is silent but punctuates: everything below 1000.
        let punct = StreamItem::Punct(Punct::new(0, Value::UInt(1_000)));
        push(&mut j, 0, vec![punct], &mut out);
        assert_eq!(j.buffered(), 0);
    }

    #[test]
    fn banded_slack_retains_window() {
        let mut j = JoinOp::new(
            JoinConfig {
                left_col: 0,
                right_col: 0,
                lo: 0,
                hi: 0,
                left_slack: 5,
                right_slack: 0,
                eq_keys: vec![],
                emit: EmitMode::Banded,
                sort_out_col: 0,
            },
            None,
            vec![prog(&col(0)), prog(&col(1)), prog(&col(3))],
        );
        let mut out = Vec::new();
        push(&mut j, 1, vec![tup(10, 1)], &mut out);
        push(&mut j, 0, vec![tup(14, 2)], &mut out); // no match, but left watermark = 14
        // left is banded(5): future left can still be 9 or 10 — right@10
        // must survive GC.
        push(&mut j, 0, vec![tup(10, 3)], &mut out);
        assert_eq!(rows(&out), vec![(10, 3, 1)]);
    }

    #[test]
    fn finish_input_clears_opposite_buffer() {
        let mut j = join(0, 0, false);
        let mut out = Vec::new();
        push(&mut j, 1, vec![tup(1, 0)], &mut out);
        push(&mut j, 1, vec![tup(2, 0)], &mut out);
        j.finish_input(0);
        assert_eq!(j.buffered(), 0, "no left tuples can ever match");
    }

    #[test]
    fn sorted_emission_is_monotone_where_banded_is_not() {
        // Band window ±2 over out-of-order-within-band arrivals.
        let mk = |emit| {
            JoinOp::new(
                JoinConfig {
                    left_col: 0,
                    right_col: 0,
                    lo: -2,
                    hi: 2,
                    left_slack: 2,
                    right_slack: 0,
                    eq_keys: vec![],
                    emit,
                    sort_out_col: 0,
                },
                None,
                vec![prog(&col(0)), prog(&col(1)), prog(&col(3))],
            )
        };
        let feed = |j: &mut JoinOp| {
            let mut out = Vec::new();
            for ts in [5u64, 3, 6, 4, 8, 7, 10, 9, 14, 12, 16, 15] {
                push(j, 0, vec![tup(ts, 1)], &mut out);
                push(j, 1, vec![tup(ts, 2)], &mut out);
            }
            finish(j, &mut out);
            rows(&out).iter().map(|r| r.0).collect::<Vec<u64>>()
        };
        let mut banded = mk(EmitMode::Banded);
        let banded_vals = feed(&mut banded);
        let mut sorted = mk(EmitMode::Sorted);
        let sorted_vals = feed(&mut sorted);

        // Same multiset of results...
        let norm = |mut v: Vec<u64>| {
            v.sort_unstable();
            v
        };
        assert_eq!(norm(banded_vals.clone()), norm(sorted_vals.clone()));
        // ...but only Sorted is monotone, and it pays with buffering.
        assert!(
            banded_vals.windows(2).any(|w| w[0] > w[1]),
            "banded emission should be out of order on this input: {banded_vals:?}"
        );
        assert!(
            sorted_vals.windows(2).all(|w| w[0] <= w[1]),
            "sorted emission must be monotone: {sorted_vals:?}"
        );
        assert!(
            sorted.peak_pending > 0,
            "monotone output requires extra buffer space (the paper's trade-off)"
        );
    }

    #[test]
    fn sorted_emission_equality_window() {
        let mut j = JoinOp::new(
            JoinConfig {
                left_col: 0,
                right_col: 0,
                lo: 0,
                hi: 0,
                left_slack: 0,
                right_slack: 0,
                eq_keys: vec![],
                emit: EmitMode::Sorted,
                sort_out_col: 0,
            },
            None,
            vec![prog(&col(0)), prog(&col(1)), prog(&col(3))],
        );
        let mut out = Vec::new();
        for ts in 0..50u64 {
            push(&mut j, 0, vec![tup(ts, 0)], &mut out);
            push(&mut j, 1, vec![tup(ts, 0)], &mut out);
        }
        finish(&mut j, &mut out);
        let vals: Vec<u64> = rows(&out).iter().map(|r| r.0).collect();
        assert_eq!(vals.len(), 50);
        assert!(vals.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn batch_boundaries_do_not_change_output() {
        for emit in [EmitMode::Banded, EmitMode::Sorted] {
            let mk = || {
                JoinOp::new(
                    JoinConfig {
                        left_col: 0,
                        right_col: 0,
                        lo: -1,
                        hi: 1,
                        left_slack: 1,
                        right_slack: 1,
                        eq_keys: vec![],
                        emit,
                        sort_out_col: 0,
                    },
                    None,
                    vec![prog(&col(0)), prog(&col(1)), prog(&col(3))],
                )
            };
            // Banded-within-1 arrivals on both sides, plus a punctuation
            // mid-stream on the left.
            let left: Vec<StreamItem> = [1u64, 3, 2, 4, 6, 5, 9, 8]
                .iter()
                .map(|&ts| tup(ts, 1))
                .chain([StreamItem::Punct(Punct::new(0, Value::UInt(8)))])
                .collect();
            let right: Vec<StreamItem> =
                [2u64, 1, 3, 5, 4, 7, 8, 10].iter().map(|&ts| tup(ts, 2)).collect();

            let mut item_j = mk();
            let mut item_out = Vec::new();
            for it in left.iter().cloned() {
                push(&mut item_j, 0, vec![it], &mut item_out);
            }
            for it in right.iter().cloned() {
                push(&mut item_j, 1, vec![it], &mut item_out);
            }
            finish(&mut item_j, &mut item_out);

            let mut batch_j = mk();
            let mut batch_out = Vec::new();
            push(&mut batch_j, 0, left, &mut batch_out);
            push(&mut batch_j, 1, right, &mut batch_out);
            finish(&mut batch_j, &mut batch_out);

            let norm = |out: &[StreamItem]| {
                let mut r = rows(out);
                r.sort();
                r
            };
            assert_eq!(norm(&item_out), norm(&batch_out), "emit mode {emit:?}");
            assert_eq!(item_j.produced, batch_j.produced);
            if emit == EmitMode::Sorted {
                // The batch path must preserve the sorted-release contract.
                let vals: Vec<u64> = rows(&batch_out).iter().map(|r| r.0).collect();
                assert!(vals.windows(2).all(|w| w[0] <= w[1]), "{vals:?}");
            }
        }
    }

    #[test]
    fn snapshot_restore_continues_exactly() {
        use crate::snapshot::{SnapReader, SnapWriter};
        // Both emit modes, band window, hash key: cut mid-window with
        // tuples buffered on both sides (and, in Sorted mode, results
        // held in the release queue); restore into a fresh join and feed
        // the tail — the combined output must equal the uninterrupted
        // run's, in the same order.
        for emit in [EmitMode::Banded, EmitMode::Sorted] {
            let mk = || {
                JoinOp::new(
                    JoinConfig {
                        left_col: 0,
                        right_col: 0,
                        lo: -1,
                        hi: 1,
                        left_slack: 1,
                        right_slack: 1,
                        eq_keys: vec![(1, 1)],
                        emit,
                        sort_out_col: 0,
                    },
                    None,
                    vec![prog(&col(0)), prog(&col(1)), prog(&col(3))],
                )
            };
            let feed: Vec<(usize, u64, u64)> = vec![
                (0, 1, 7),
                (1, 2, 7),
                (0, 3, 8),
                (1, 3, 8),
                (0, 2, 7),
                (1, 4, 7),
                (0, 5, 8),
                (1, 5, 8),
                (0, 6, 7),
                (1, 7, 7),
            ];
            let (head, tail) = feed.split_at(5);

            let mut cont = mk();
            let mut cont_out = Vec::new();
            for &(p, ts, v) in &feed {
                push(&mut cont, p, vec![tup(ts, v)], &mut cont_out);
            }
            finish(&mut cont, &mut cont_out);

            let mut first = mk();
            let mut split_out = Vec::new();
            for &(p, ts, v) in head {
                push(&mut first, p, vec![tup(ts, v)], &mut split_out);
            }
            assert!(first.buffered() > 0, "cut point holds window state");
            let mut w = SnapWriter::new();
            first.snapshot(&mut w);
            let sealed = w.seal();

            let mut second = mk();
            let mut r = SnapReader::open(&sealed).expect("open");
            second.restore(&mut r).expect("restore");
            r.finish().expect("payload fully consumed");
            assert_eq!(second.buffered(), first.buffered());
            for &(p, ts, v) in tail {
                push(&mut second, p, vec![tup(ts, v)], &mut split_out);
            }
            finish(&mut second, &mut split_out);

            assert_eq!(rows(&cont_out), rows(&split_out), "emit mode {emit:?}");
            assert_eq!(second.produced, cont.produced);
            assert_eq!(second.peak_buffered, cont.peak_buffered);
        }
    }

    #[test]
    fn gc_keeps_bucket_order_consistent() {
        // Interleave two keys, GC part of the window, and check no stale
        // matches appear.
        let mut j = JoinOp::new(
            config(0, 0, vec![(1, 1)]),
            None,
            vec![prog(&col(0)), prog(&col(1)), prog(&col(3))],
        );
        let mut out = Vec::new();
        push(&mut j, 1, vec![tup(1, 7)], &mut out);
        push(&mut j, 1, vec![tup(1, 8)], &mut out);
        push(&mut j, 1, vec![tup(2, 7)], &mut out);
        // Left advances to 2: right entries at ts 1 die.
        push(&mut j, 0, vec![tup(2, 9)], &mut out);
        assert!(rows(&out).is_empty());
        assert_eq!(j.right.len, 1, "only the ts-2 right entry survives");
        push(&mut j, 0, vec![tup(2, 7)], &mut out);
        assert_eq!(rows(&out), vec![(2, 7, 7)]);
    }

    /// Window GC over banded (unsorted) batches counts every dead row out
    /// exactly once and frees whole batches, while chains stay intact
    /// for the rows that remain.
    #[test]
    fn gc_over_banded_batches_keeps_chains_exact() {
        let mut j = JoinOp::new(
            JoinConfig { left_slack: 3, right_slack: 3, ..config(0, 0, vec![(1, 1)]) },
            None,
            vec![prog(&col(0)), prog(&col(1)), prog(&col(3))],
        );
        let mut out = Vec::new();
        push(&mut j, 1, [3u64, 1, 2, 5, 4].iter().map(|&ts| tup(ts, ts % 2)).collect(), &mut out);
        push(&mut j, 1, [7u64, 6, 8].iter().map(|&ts| tup(ts, ts % 2)).collect(), &mut out);
        assert_eq!(j.buffered(), 8);
        // Left at 9 (slack 3): future left values >= 6, so right rows
        // below 6 are dead — five of them, the whole first batch.
        push(&mut j, 0, vec![tup(9, 0)], &mut out);
        assert_eq!(j.right.len, 3);
        assert_eq!(j.right.gc_dropped, 5);
        assert_eq!(j.right.chunks.len(), 1, "the all-dead batch is freed");
        // A late in-band left row still finds its match behind the GC.
        push(&mut j, 0, vec![tup(6, 0), tup(7, 1), tup(8, 0)], &mut out);
        assert_eq!(rows(&out), vec![(6, 0, 0), (7, 1, 1), (8, 0, 0)]);
    }
}
