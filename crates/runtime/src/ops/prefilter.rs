//! The cross-query shared prefilter: evaluate each packet once, dispatch
//! to N LFTAs by bitmask.
//!
//! The paper's §3 prefilter is per-LFTA: every registered query re-parses
//! the packet and re-evaluates its own BPF program and predicate, so
//! per-packet cost grows linearly with query count. This module factors
//! the distinct work across all registered LFTAs into one shared pass:
//!
//! 1. one `PacketView` parse per packet (instead of one per LFTA);
//! 2. each *distinct* compiled BPF program runs once (queries with equal
//!    programs share the verdict);
//! 3. each *distinct* protocol match runs once;
//! 4. each *distinct* predicate atom (see `gs_gsql::pushdown::extract_atoms`)
//!    evaluates once, setting a bit in a per-packet matched mask;
//! 5. LFTA `k` runs its tail only if its precomputed required-atom mask is
//!    a subset of the matched mask — its own prefilter, parse and shared
//!    conjuncts are skipped because the pass hands it the parsed view and
//!    the verdicts.
//!
//! Per-LFTA counters are replayed exactly: the pass charges `prefiltered`,
//! `not_protocol` and `filtered` from the memoized verdicts in the same
//! order [`Lfta::push_packet`] — the private path — would have, so a run
//! through the pass is output- and counter-identical to every LFTA
//! running alone (pinned against a naive per-LFTA oracle by
//! `gs-tests/prop_prefilter`).

use crate::expr::{EvalScratch, FieldSource, PacketFields, Program};
use crate::ops::lfta::Lfta;
use crate::params::ParamBindings;
use crate::stats::{Counter, StatSource, StatsRegistry};
use crate::tuple::StreamItem;
use crate::udf::{FileStore, UdfRegistry};
use crate::value::Value;
use gs_gsql::ast::BinOp;
use gs_gsql::plan::{Literal, PExpr};
use gs_gsql::types::DataType;
use gs_nic::bpf::{BpfProgram, JeqFamily};
use gs_packet::capture::LinkType;
use gs_packet::interp::ProtocolDef;
use gs_packet::view::{Network, Transport};
use gs_packet::{CapPacket, PacketView};
use std::sync::Arc;

/// Deduplication cache for compiled BPF prefilters: structurally equal
/// programs collapse to one shared `Arc`, so a hundred instantiations of
/// the same query text carry one compilation.
#[derive(Default)]
pub struct PrefilterCache {
    progs: Vec<Arc<BpfProgram>>,
}

impl PrefilterCache {
    /// Create an empty cache.
    pub fn new() -> PrefilterCache {
        PrefilterCache::default()
    }

    /// Return the canonical shared handle for `prog`.
    pub fn intern(&mut self, prog: Arc<BpfProgram>) -> Arc<BpfProgram> {
        if let Some(existing) = self.progs.iter().find(|e| ***e == *prog) {
            return existing.clone();
        }
        self.progs.push(prog.clone());
        prog
    }

    /// Number of distinct programs interned.
    pub fn len(&self) -> usize {
        self.progs.len()
    }

    /// Whether nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.progs.is_empty()
    }
}

/// Host-side slot holding an LFTA. Each engine's per-LFTA bookkeeping
/// struct implements this so [`SharedPrefilter::dispatch`] can drive the
/// executors without owning them.
pub trait LftaSlot {
    /// The LFTA in this slot.
    fn lfta_mut(&mut self) -> &mut Lfta;
}

/// The threaded manager keeps `(lfta, interface id)` pairs.
impl LftaSlot for (Lfta, u16) {
    fn lfta_mut(&mut self) -> &mut Lfta {
        &mut self.0
    }
}

/// Aggregate counters of the shared pass, registered as `prefilter:shared`.
#[derive(Debug, Default)]
pub struct SharedCounters {
    /// Packets offered to the shared pass.
    pub packets: Counter,
    /// Shared `PacketView` parses performed.
    pub parses: Counter,
    /// Total atom evaluations across all atoms.
    pub atom_evals: Counter,
    /// LFTA tails dispatched (required mask satisfied).
    pub dispatch_hits: Counter,
    /// Packets an LFTA handled privately because the shared full-packet
    /// parse could not stand in for its snapped parse.
    pub snap_fallbacks: Counter,
    /// Distinct atoms in the table (gauge).
    pub atoms: Counter,
    /// Distinct BPF programs (gauge).
    pub progs: Counter,
    /// Registered LFTAs (gauge).
    pub lftas: Counter,
}

impl StatSource for SharedCounters {
    fn counters(&self) -> Vec<(&'static str, u64)> {
        vec![
            ("packets", self.packets.get()),
            ("parses", self.parses.get()),
            ("atom_evals", self.atom_evals.get()),
            ("dispatch_hits", self.dispatch_hits.get()),
            ("snap_fallbacks", self.snap_fallbacks.get()),
            ("atoms", self.atoms.get()),
            ("progs", self.progs.get()),
            ("lftas", self.lftas.get()),
        ]
    }
}

/// Per-atom counters, registered as `prefilter:atom:<i>`.
#[derive(Debug, Default)]
pub struct AtomCounters {
    /// Evaluations — at most once per packet, and only when some LFTA
    /// that survived its earlier stages actually required the atom.
    pub evals: Counter,
    /// True verdicts.
    pub hits: Counter,
}

impl StatSource for AtomCounters {
    fn counters(&self) -> Vec<(&'static str, u64)> {
        vec![("evals", self.evals.get()), ("hits", self.hits.get())]
    }
}

/// Per-LFTA dispatch counters, registered as `prefilter:lfta:<stream>`.
#[derive(Debug, Default)]
pub struct DispatchCounters {
    /// Packets whose required-atom mask was satisfied (tail dispatched).
    pub hits: Counter,
}

impl StatSource for DispatchCounters {
    fn counters(&self) -> Vec<(&'static str, u64)> {
        vec![("hits", self.hits.get())]
    }
}

/// One deduplicated predicate atom in the shared table.
struct SharedAtom {
    /// Canonical cross-query identity (protocol-prefixed).
    key: String,
    /// The normalized expression (kept for explain output).
    expr: PExpr,
    /// Protocol whose schema the expression's columns index. Dispatch
    /// only consults an atom after its group's protocol check passed, so
    /// no per-atom protocol gate is needed.
    proto: &'static ProtocolDef,
    prog: Program,
    /// Constant-compare fast path (`col cmp uint-literal`): the field is
    /// read once per packet into a shared slot and each atom is one
    /// integer compare, instead of one interpreted program run each.
    fast: Option<FastCmp>,
    evals: u64,
    hits: u64,
    shared: Arc<AtomCounters>,
}

/// A `col cmp k` atom routed through the shared field-slot cache.
#[derive(Clone, Copy)]
struct FastCmp {
    /// Index into [`SharedPrefilter::field_slots`].
    slot: usize,
    op: BinOp,
    k: u64,
}

/// Per-packet memo of one atom's verdict: atoms evaluate lazily, on the
/// first group or entry that actually needs them (most packets fail the
/// BPF stage of most groups, so most atoms are never consulted).
#[derive(Clone, Copy, PartialEq)]
enum AtomState {
    Unset,
    True,
    False,
}

/// Per-packet memo of one field slot's value.
#[derive(Clone, Copy)]
enum SlotVal {
    /// Not read yet this packet.
    Unset,
    /// Accessor returned `None`: program evaluation would abort, so every
    /// comparison over the slot is false.
    Missing,
    UInt(u64),
    /// Non-UInt value (never produced by UInt-typed columns in practice);
    /// atoms over the slot fall back to exact program evaluation.
    Other,
}

/// Exactly `eval_bin`'s comparison on two `Value::UInt`s.
#[inline]
fn cmp_holds(op: BinOp, v: u64, k: u64) -> bool {
    match op {
        BinOp::Eq => v == k,
        BinOp::Ne => v != k,
        BinOp::Lt => v < k,
        BinOp::Le => v <= k,
        BinOp::Gt => v > k,
        BinOp::Ge => v >= k,
        _ => unreachable!("fast path admits comparisons only"),
    }
}

/// Recognize `Col(uint) cmp Lit(uint)` — the shape `extract_atoms`
/// produces for pushable conjuncts.
fn fast_cmp_shape(expr: &PExpr) -> Option<(usize, BinOp, u64)> {
    let PExpr::Binary { op, left, right, .. } = expr else { return None };
    if !matches!(op, BinOp::Eq | BinOp::Ne | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge) {
        return None;
    }
    let PExpr::Col { index, ty: DataType::UInt } = **left else { return None };
    let PExpr::Lit(Literal::UInt(k)) = **right else { return None };
    Some((index, *op, k))
}

/// Per-LFTA dispatch entry, parallel to the engine's LFTA vector.
struct Entry {
    /// LFTA stream name (stats registration and explain output).
    name: String,
    /// Interface the LFTA listens on.
    iface: u16,
    /// Index of its BPF program in the distinct-program table.
    prog: Option<usize>,
    /// Index of its protocol in the distinct-protocol table.
    proto: usize,
    snaplen: Option<usize>,
    /// Required-atom bitmask (`u64` words over the atom table).
    required: Vec<u64>,
    /// Atom indices (for explain output; `required` is derived from it).
    atom_ids: Vec<usize>,
    /// The LFTA runs fully privately after admission+prefilter (no usable
    /// predicate split) — always correct, never faster.
    private: bool,
    /// Analyst-requested sampling is on: admission must run the LFTA's
    /// own per-packet hash instead of the batched counter below.
    sampled: bool,
    // Pending per-LFTA counter deltas, accumulated contiguously here (one
    // cache-friendly row per entry instead of a scattered write into each
    // `Lfta` struct per packet) and folded into `Lfta::stats` by
    // `flush_stats` before any counter is read.
    packets_in: u64,
    prefiltered: u64,
    not_protocol: u64,
    filtered: u64,
    hits: u64,
    shared: Arc<DispatchCounters>,
}

/// Entries whose decision sequence is bitwise identical — same interface,
/// BPF program, snap length, protocol and required-atom mask — share one
/// group: the hot loop decides once per group and only walks the member
/// list on a hit (or snap fallback). With Q queries over D distinct
/// predicates the per-packet dispatch loop is O(D), not O(Q).
struct DispatchGroup {
    iface: u16,
    prog: Option<usize>,
    proto: usize,
    snaplen: Option<usize>,
    /// Required-atom mask, trailing zero words trimmed (entries
    /// registered at different times pad differently); the grouping key.
    required: Vec<u64>,
    /// The same requirement as sorted atom indices — what dispatch walks,
    /// so only the atoms a surviving group needs ever evaluate.
    required_ids: Vec<usize>,
    /// Entry indices sharing this signature.
    members: Vec<usize>,
}

/// The per-group decision row the hot loop reads — 12 packed bytes so
/// dozens of groups fit in a few cache lines (the full [`DispatchGroup`]
/// spans several lines and is only touched by surviving packets).
#[derive(Clone, Copy)]
struct GroupHot {
    /// Index into the registered-interface table.
    iface_idx: u16,
    /// Index into the distinct-protocol table.
    proto: u16,
    /// Index into the distinct-program table; `u32::MAX` = no program.
    prog: u32,
    /// Snap length; `u32::MAX` = none.
    snaplen: u32,
}

/// Batched counter deltas, parallel to the group table; each delta
/// applies to EVERY member on flush (identical signatures see identical
/// verdicts). A BPF-rejected packet writes nothing here: `packets_in`
/// is the per-interface packet count, and `prefiltered` is derived as
/// `iface packets - bpf_passed`, so the common all-reject packet costs
/// one read and one branch per group.
#[derive(Clone, Copy, Default)]
struct GroupDelta {
    /// Packets that passed the group's BPF stage (or had no program).
    bpf_passed: u64,
    not_protocol: u64,
    filtered: u64,
}

/// The shared cross-query prefilter pass. Build one per engine from the
/// registered LFTAs (in slot order), then call
/// [`dispatch`](SharedPrefilter::dispatch) once per packet.
pub struct SharedPrefilter {
    progs: Vec<Arc<BpfProgram>>,
    protos: Vec<&'static ProtocolDef>,
    atoms: Vec<SharedAtom>,
    entries: Vec<Entry>,
    /// Interfaces any entry listens on (skip everything else early).
    ifaces: Vec<u16>,
    /// Packets dispatched per interface since the last flush — the
    /// shared `packets_in` delta for every group on that interface.
    iface_packets: Vec<u64>,
    /// Same-shape distinct programs factored behind one probe each
    /// (member indices into `progs`); recomputed on registration.
    families: Vec<(JeqFamily, Vec<usize>)>,
    /// Distinct programs interpreted individually.
    loose_progs: Vec<usize>,
    /// Distinct `(proto_idx, column)` pairs read by fast-path atoms.
    field_slots: Vec<(usize, usize)>,
    /// Same-signature entries dispatched as one decision; recomputed on
    /// registration.
    groups: Vec<DispatchGroup>,
    /// Packed per-group decision rows (parallel to `groups`).
    group_hot: Vec<GroupHot>,
    /// Batched per-group counter deltas (parallel to `groups`).
    group_deltas: Vec<GroupDelta>,
    /// Entries dispatched individually (private, sampled — anything whose
    /// per-packet decision is not purely signature-determined).
    loose_entries: Vec<usize>,
    /// Registrations since the last family/group rebuild; the derived
    /// tables recompute lazily on the next dispatch (or describe), so a
    /// hundred `add_lfta` calls cost one rebuild, not a hundred.
    dirty: bool,
    // Per-packet scratch: distinct-program/protocol verdicts, memoized
    // field-slot values, and the matched-atom bitmask.
    prog_verdicts: Vec<bool>,
    proto_verdicts: Vec<bool>,
    field_vals: Vec<SlotVal>,
    atom_state: Vec<AtomState>,
    /// Slots whose tail ran this packet (so hosts visit only the
    /// handful of out-vectors that can be non-empty, not all N).
    hit_slots: Vec<usize>,
    scratch: EvalScratch,
    packets: u64,
    parses: u64,
    dispatch_hits: u64,
    snap_fallbacks: u64,
    shared: Arc<SharedCounters>,
}

impl Default for SharedPrefilter {
    fn default() -> SharedPrefilter {
        SharedPrefilter::new()
    }
}

impl SharedPrefilter {
    /// An empty pass; add LFTAs in slot order with [`add_lfta`].
    ///
    /// [`add_lfta`]: SharedPrefilter::add_lfta
    pub fn new() -> SharedPrefilter {
        SharedPrefilter {
            progs: Vec::new(),
            protos: Vec::new(),
            atoms: Vec::new(),
            entries: Vec::new(),
            ifaces: Vec::new(),
            iface_packets: Vec::new(),
            families: Vec::new(),
            loose_progs: Vec::new(),
            field_slots: Vec::new(),
            groups: Vec::new(),
            group_hot: Vec::new(),
            group_deltas: Vec::new(),
            loose_entries: Vec::new(),
            dirty: false,
            prog_verdicts: Vec::new(),
            proto_verdicts: Vec::new(),
            field_vals: Vec::new(),
            atom_state: Vec::new(),
            hit_slots: Vec::new(),
            scratch: EvalScratch::default(),
            packets: 0,
            parses: 0,
            dispatch_hits: 0,
            snap_fallbacks: 0,
            shared: Arc::new(SharedCounters::default()),
        }
    }

    /// Register one LFTA. Call in the exact order of the engine's LFTA
    /// vector — dispatch addresses slots by index.
    pub fn add_lfta(&mut self, lfta: &Lfta, iface: u16) {
        let prog = lfta.prefilter_program().map(|p| {
            match self.progs.iter().position(|e| Arc::ptr_eq(e, p) || **e == **p) {
                Some(i) => i,
                None => {
                    self.progs.push(p.clone());
                    self.progs.len() - 1
                }
            }
        });
        let proto_def = lfta.protocol_def();
        let proto = match self.protos.iter().position(|e| std::ptr::eq(*e, proto_def)) {
            Some(i) => i,
            None => {
                self.protos.push(proto_def);
                self.protos.len() - 1
            }
        };
        let mut atom_ids = Vec::new();
        let mut private = false;
        if let Some(split) = lfta.shared_split() {
            for atom in &split.atoms {
                let id = match self.atoms.iter().position(|a| a.key == atom.key) {
                    Some(i) => i,
                    None => {
                        // Atoms are UDF-free closed expressions; compile
                        // with empty bindings. A failure (should not
                        // happen) demotes the whole entry to private
                        // execution rather than dropping the conjunct.
                        let compiled = Program::compile(
                            &atom.expr,
                            &ParamBindings::new(),
                            &UdfRegistry::with_builtins(),
                            &FileStore::new(),
                        );
                        match compiled {
                            Ok(p) => {
                                let fast = fast_cmp_shape(&atom.expr).map(|(col, op, k)| {
                                    let pair = (proto, col);
                                    let slot = match self
                                        .field_slots
                                        .iter()
                                        .position(|&s| s == pair)
                                    {
                                        Some(i) => i,
                                        None => {
                                            self.field_slots.push(pair);
                                            self.field_slots.len() - 1
                                        }
                                    };
                                    FastCmp { slot, op, k }
                                });
                                self.atoms.push(SharedAtom {
                                    key: atom.key.clone(),
                                    expr: atom.expr.clone(),
                                    proto: proto_def,
                                    prog: p,
                                    fast,
                                    evals: 0,
                                    hits: 0,
                                    shared: Arc::new(AtomCounters::default()),
                                });
                                self.atoms.len() - 1
                            }
                            Err(_) => {
                                private = true;
                                break;
                            }
                        }
                    }
                };
                atom_ids.push(id);
            }
        }
        if private {
            atom_ids.clear();
        }
        let words = self.atoms.len().div_ceil(64).max(1);
        let mut required = vec![0u64; words];
        for &id in &atom_ids {
            required[id / 64] |= 1u64 << (id % 64);
        }
        if !self.ifaces.contains(&iface) {
            self.ifaces.push(iface);
            self.iface_packets.push(0);
        }
        self.entries.push(Entry {
            name: lfta.name.clone(),
            iface,
            prog,
            proto,
            snaplen: lfta.snaplen(),
            required,
            atom_ids,
            private,
            sampled: lfta.sampling_enabled(),
            packets_in: 0,
            prefiltered: 0,
            not_protocol: 0,
            filtered: 0,
            hits: 0,
            shared: Arc::new(DispatchCounters::default()),
        });
        self.dirty = true;
    }

    /// Recompute the derived dispatch tables — BPF probe families and
    /// signature groups — after registrations. Runs once per batch of
    /// `add_lfta` calls, on the next dispatch.
    fn finalize(&mut self) {
        let refs: Vec<&BpfProgram> = self.progs.iter().map(|p| p.as_ref()).collect();
        let (families, loose) = JeqFamily::factor_all(&refs);
        self.families = families;
        self.loose_progs = loose;
        self.rebuild_groups();
        self.dirty = false;
    }

    /// Recompute the signature groups over the current entry set.
    fn rebuild_groups(&mut self) {
        self.groups.clear();
        self.loose_entries.clear();
        for (i, e) in self.entries.iter().enumerate() {
            if e.private || e.sampled {
                self.loose_entries.push(i);
                continue;
            }
            let mut required = e.required.clone();
            while required.last() == Some(&0) {
                required.pop();
            }
            match self.groups.iter_mut().find(|g| {
                g.iface == e.iface
                    && g.prog == e.prog
                    && g.proto == e.proto
                    && g.snaplen == e.snaplen
                    && g.required == required
            }) {
                Some(g) => g.members.push(i),
                None => {
                    let mut required_ids = e.atom_ids.clone();
                    required_ids.sort_unstable();
                    required_ids.dedup();
                    self.groups.push(DispatchGroup {
                        iface: e.iface,
                        prog: e.prog,
                        proto: e.proto,
                        snaplen: e.snaplen,
                        required,
                        required_ids,
                        members: vec![i],
                    })
                }
            }
        }
        self.group_hot = self
            .groups
            .iter()
            .map(|g| GroupHot {
                iface_idx: {
                    let k = self.ifaces.iter().position(|&f| f == g.iface);
                    u16::try_from(k.expect("group iface is registered")).unwrap()
                },
                proto: u16::try_from(g.proto).expect("distinct protocols fit u16"),
                prog: g.prog.map_or(u32::MAX, |p| p as u32),
                snaplen: g.snaplen.map_or(u32::MAX, |s| u32::try_from(s).unwrap_or(u32::MAX - 1)),
            })
            .collect();
        // Registration happens before any dispatch, so resetting the
        // delta rows here never discards pending counts.
        self.group_deltas = vec![GroupDelta::default(); self.groups.len()];
    }

    /// Number of registered LFTAs.
    pub fn n_lftas(&self) -> usize {
        self.entries.len()
    }

    /// Number of distinct BPF programs.
    pub fn n_progs(&self) -> usize {
        self.progs.len()
    }

    /// Number of distinct predicate atoms.
    pub fn n_atoms(&self) -> usize {
        self.atoms.len()
    }

    /// Process one packet: run each distinct BPF program, protocol match
    /// and atom once, then dispatch every listening LFTA off the memoized
    /// verdicts. `slots` must be the LFTA vector this pass was built from
    /// (same order); `outs[i]` receives slot `i`'s output items.
    pub fn dispatch<S: LftaSlot>(
        &mut self,
        cap: &CapPacket,
        slots: &mut [S],
        outs: &mut [Vec<StreamItem>],
    ) {
        debug_assert_eq!(slots.len(), self.entries.len());
        debug_assert!(outs.len() >= self.entries.len());
        if self.dirty {
            self.finalize();
        }
        self.packets += 1;
        self.hit_slots.clear();
        let Some(iface_idx) = self.ifaces.iter().position(|&f| f == cap.iface) else {
            return;
        };
        self.iface_packets[iface_idx] += 1;
        self.parses += 1;
        let view = PacketView::parse(cap.clone());

        // Shared evaluation: every distinct program/protocol/atom once.
        // Same-shape programs (the pushdown-generated `field cmp const`
        // family) share one probe run of their common prefix; only the
        // final comparison is replayed per member, host-side.
        self.prog_verdicts.clear();
        self.prog_verdicts.resize(self.progs.len(), false);
        for (fam, members) in &self.families {
            if let Some(a) = fam.probe(&cap.data) {
                for (t, &pi) in fam.tests().iter().zip(members) {
                    self.prog_verdicts[pi] = t.verdict(a);
                }
            }
        }
        for &pi in &self.loose_progs {
            self.prog_verdicts[pi] = self.progs[pi].accepts(&cap.data);
        }
        self.proto_verdicts.clear();
        for p in &self.protos {
            self.proto_verdicts.push((p.matches)(&view));
        }
        self.field_vals.clear();
        self.field_vals.resize(self.field_slots.len(), SlotVal::Unset);
        self.atom_state.clear();
        self.atom_state.resize(self.atoms.len(), AtomState::Unset);

        // Dispatch: replay each LFTA's decision sequence off the verdicts.
        // Same-signature entries decide once per group; counter deltas
        // accumulate in the group (or loose entry) rows and are folded
        // back by `flush_stats`. Atoms evaluate lazily — only when a
        // group survives to its predicate stage.
        let SharedPrefilter {
            entries,
            atoms,
            protos,
            field_slots,
            groups,
            group_hot,
            group_deltas,
            loose_entries,
            prog_verdicts,
            proto_verdicts,
            field_vals,
            atom_state,
            hit_slots,
            scratch,
            dispatch_hits,
            snap_fallbacks,
            ..
        } = self;
        let mut atom_true = |j: usize| -> bool {
            match atom_state[j] {
                AtomState::True => true,
                AtomState::False => false,
                AtomState::Unset => {
                    let a = &mut atoms[j];
                    let v = match a.fast {
                        // Constant-compare fast path: read the field once
                        // per packet into its slot, then one integer
                        // compare per atom.
                        Some(fc) => {
                            if let SlotVal::Unset = field_vals[fc.slot] {
                                let (pi, col) = field_slots[fc.slot];
                                let fields = PacketFields::new(&view, protos[pi].fields);
                                field_vals[fc.slot] = match fields.field(col) {
                                    None => SlotVal::Missing,
                                    Some(Value::UInt(u)) => SlotVal::UInt(u),
                                    Some(_) => SlotVal::Other,
                                };
                            }
                            match field_vals[fc.slot] {
                                SlotVal::UInt(u) => cmp_holds(fc.op, u, fc.k),
                                // Program evaluation aborts (to false) on
                                // a missing field — identical verdict.
                                SlotVal::Missing => false,
                                _ => {
                                    let fields = PacketFields::new(&view, a.proto.fields);
                                    a.prog.eval_bool(&fields, scratch)
                                }
                            }
                        }
                        None => {
                            let fields = PacketFields::new(&view, a.proto.fields);
                            a.prog.eval_bool(&fields, scratch)
                        }
                    };
                    a.evals += 1;
                    if v {
                        a.hits += 1;
                    }
                    atom_state[j] = if v { AtomState::True } else { AtomState::False };
                    v
                }
            }
        };
        for (gi, h) in group_hot.iter().enumerate() {
            if usize::from(h.iface_idx) != iface_idx {
                continue;
            }
            // The common all-reject packet costs one verdict load and a
            // branch per group: admission and the prefiltered count are
            // reconstructed from `iface_packets` and `bpf_passed` at
            // flush time.
            if h.prog != u32::MAX && !prog_verdicts[h.prog as usize] {
                continue;
            }
            let d = &mut group_deltas[gi];
            d.bpf_passed += 1;
            if h.snaplen != u32::MAX {
                // The shared full-packet parse stands in for a snapped
                // parse only when every parsed header lies within the
                // snap length; otherwise each member replays its private
                // path exactly (snap, re-parse, full predicate).
                let s = h.snaplen as usize;
                if cap.data.len() > s && !headers_within(&view, s) {
                    let members = &groups[gi].members;
                    *snap_fallbacks += members.len() as u64;
                    for &i in members {
                        hit_slots.push(i);
                        slots[i].lfta_mut().push_accepted(cap, &mut outs[i]);
                    }
                    continue;
                }
            }
            if !proto_verdicts[usize::from(h.proto)] {
                d.not_protocol += 1;
                continue;
            }
            if !groups[gi].required_ids.iter().all(|&j| atom_true(j)) {
                d.filtered += 1;
                continue;
            }
            for &i in &groups[gi].members {
                entries[i].hits += 1;
                *dispatch_hits += 1;
                hit_slots.push(i);
                slots[i].lfta_mut().push_matched(&view, &mut outs[i]);
            }
        }
        // Private and sampled entries replay individually (their decision
        // depends on per-packet state the signature cannot capture).
        for &i in loose_entries.iter() {
            let e = &mut entries[i];
            if e.iface != cap.iface {
                continue;
            }
            let lfta = slots[i].lfta_mut();
            if e.sampled {
                if !lfta.admit(cap) {
                    continue;
                }
            } else {
                e.packets_in += 1;
            }
            if let Some(pj) = e.prog {
                if !prog_verdicts[pj] {
                    e.prefiltered += 1;
                    continue;
                }
            }
            if e.private {
                hit_slots.push(i);
                lfta.push_accepted(cap, &mut outs[i]);
                continue;
            }
            if let Some(s) = e.snaplen {
                if cap.data.len() > s && !headers_within(&view, s) {
                    *snap_fallbacks += 1;
                    hit_slots.push(i);
                    lfta.push_accepted(cap, &mut outs[i]);
                    continue;
                }
            }
            if !proto_verdicts[e.proto] {
                e.not_protocol += 1;
                continue;
            }
            if !e.atom_ids.iter().all(|&j| atom_true(j)) {
                e.filtered += 1;
                continue;
            }
            e.hits += 1;
            *dispatch_hits += 1;
            hit_slots.push(i);
            lfta.push_matched(&view, &mut outs[i]);
        }
    }

    /// Slot indices whose tail ran for the last dispatched packet — the
    /// only out-vectors that can hold output. Each index appears at most
    /// once.
    pub fn hit_slots(&self) -> &[usize] {
        &self.hit_slots
    }

    /// Fold the contiguously-accumulated per-entry counter deltas into
    /// each LFTA's `stats` block. Must run before those counters are
    /// observed (stats publication, heartbeats, the end-of-run gather);
    /// `slots` must be the LFTA vector dispatch runs over.
    pub fn flush_stats<S: LftaSlot>(&mut self, slots: &mut [S]) {
        for ((g, h), d) in
            self.groups.iter().zip(self.group_hot.iter()).zip(self.group_deltas.iter_mut())
        {
            let p = self.iface_packets[usize::from(h.iface_idx)];
            if p == 0 && d.not_protocol == 0 && d.filtered == 0 {
                continue;
            }
            // Identical signatures saw identical verdicts: the group
            // delta applies to every member. Admission and prefilter
            // counts are reconstructed from the interface packet count.
            let prefiltered = if g.prog.is_some() { p - d.bpf_passed } else { 0 };
            for &i in &g.members {
                let stats = &mut slots[i].lfta_mut().stats;
                stats.packets_in += p;
                stats.prefiltered += prefiltered;
                stats.not_protocol += d.not_protocol;
                stats.filtered += d.filtered;
            }
            *d = GroupDelta::default();
        }
        for v in self.iface_packets.iter_mut() {
            *v = 0;
        }
        for (e, slot) in self.entries.iter_mut().zip(slots.iter_mut()) {
            if e.packets_in == 0 && e.prefiltered == 0 && e.not_protocol == 0 && e.filtered == 0
            {
                continue;
            }
            let stats = &mut slot.lfta_mut().stats;
            stats.packets_in += e.packets_in;
            stats.prefiltered += e.prefiltered;
            stats.not_protocol += e.not_protocol;
            stats.filtered += e.filtered;
            e.packets_in = 0;
            e.prefiltered = 0;
            e.not_protocol = 0;
            e.filtered = 0;
        }
    }

    /// Register the pass's counter blocks: the `prefilter:shared`
    /// aggregate, one `prefilter:atom:<i>` node per distinct atom, and
    /// one `prefilter:lfta:<stream>` node per registered LFTA.
    pub fn register_stats(&self, registry: &StatsRegistry) {
        registry.register("prefilter:shared".to_string(), self.shared.clone());
        for (j, a) in self.atoms.iter().enumerate() {
            registry.register(format!("prefilter:atom:{j}"), a.shared.clone());
        }
        for e in &self.entries {
            registry.register(format!("prefilter:lfta:{}", e.name), e.shared.clone());
        }
    }

    /// Publish the plain hot-path counters into the shared blocks.
    pub fn publish_stats(&self) {
        self.shared.packets.set(self.packets);
        self.shared.parses.set(self.parses);
        self.shared.dispatch_hits.set(self.dispatch_hits);
        self.shared.snap_fallbacks.set(self.snap_fallbacks);
        self.shared.atoms.set(self.atoms.len() as u64);
        self.shared.progs.set(self.progs.len() as u64);
        self.shared.lftas.set(self.entries.len() as u64);
        let mut total_evals = 0;
        for a in &self.atoms {
            a.shared.evals.set(a.evals);
            a.shared.hits.set(a.hits);
            total_evals += a.evals;
        }
        self.shared.atom_evals.set(total_evals);
        for e in &self.entries {
            e.shared.hits.set(e.hits);
        }
    }

    /// Render the shared plan: the deduplicated atom table and each
    /// LFTA's bitmask assignment. `label` renders an atom expression
    /// (callers with catalog access pretty-print against the protocol
    /// schema; `|e, _| format!("{e:?}")` works without one).
    pub fn describe(&mut self, label: &dyn Fn(&PExpr, &'static ProtocolDef) -> String) -> String {
        use std::fmt::Write;
        if self.dirty {
            self.finalize();
        }
        let mut s = String::new();
        let _ = writeln!(
            s,
            "shared prefilter: {} LFTAs, {} distinct BPF programs, {} distinct atoms",
            self.entries.len(),
            self.progs.len(),
            self.atoms.len()
        );
        if !self.families.is_empty() {
            let covered: usize = self.families.iter().map(|(_, m)| m.len()).sum();
            let _ = writeln!(
                s,
                "  bpf probe families: {} probes cover {} programs ({} loose)",
                self.families.len(),
                covered,
                self.loose_progs.len()
            );
        }
        if !self.groups.is_empty() {
            let grouped: usize = self.groups.iter().map(|g| g.members.len()).sum();
            let _ = writeln!(
                s,
                "  dispatch groups: {} signatures over {} LFTAs ({} dispatched loose)",
                self.groups.len(),
                grouped,
                self.loose_entries.len()
            );
        }
        for (j, a) in self.atoms.iter().enumerate() {
            let _ = writeln!(s, "  atom[{j}] ({}): {}", a.proto.name, label(&a.expr, a.proto));
        }
        for e in &self.entries {
            let bits = if e.atom_ids.is_empty() {
                "-".to_string()
            } else {
                let mut ids: Vec<usize> = e.atom_ids.clone();
                ids.sort_unstable();
                let strs: Vec<String> = ids.iter().map(|i| i.to_string()).collect();
                format!("{{{}}}", strs.join(","))
            };
            let mode = if e.private { " (private)" } else { "" };
            let bpf = match e.prog {
                Some(p) => format!("bpf#{p}"),
                None => "no-bpf".to_string(),
            };
            let _ = writeln!(
                s,
                "  lfta {} iface {} {} proto {} atoms {}{}",
                e.name, e.iface, bpf, self.protos[e.proto].name, bits, mode
            );
        }
        s
    }
}

/// Whether every parsed header of `view` lies within `snaplen` bytes, so
/// a parse of the snapped packet would decode identically (snapped
/// queries never read the payload — the splitter only assigns a snap
/// length to payload-free queries). Conservative `false` falls back to
/// the exact private path.
fn headers_within(view: &PacketView, snaplen: usize) -> bool {
    match &view.transport {
        Transport::Tcp(_, off) | Transport::Udp(_, off) => return *off <= snaplen,
        Transport::Icmp(_) | Transport::Other => {}
    }
    let l2 = match view.cap.link {
        LinkType::Ethernet => 14usize,
        LinkType::RawIp => 0,
        // Record links are never snapped; be conservative.
        _ => return false,
    };
    match &view.net {
        Network::V4(h) => {
            let l4 = l2 + usize::from(h.header_len);
            let end = match &view.transport {
                Transport::Icmp(_) => l4 + 8,
                _ => l4,
            };
            end <= snaplen
        }
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::lfta::{LftaKind, SharedSplit};
    use gs_gsql::ast::BinOp;
    use gs_gsql::plan::Literal;
    use gs_gsql::pushdown::extract_atoms;
    use gs_gsql::types::DataType;
    use gs_nic::bpf::tcp_dst_port_filter;
    use gs_packet::builder::FrameBuilder;

    struct Slot(Lfta);
    impl LftaSlot for Slot {
        fn lfta_mut(&mut self) -> &mut Lfta {
            &mut self.0
        }
    }

    fn tcp() -> &'static ProtocolDef {
        gs_packet::interp::protocol("tcp").unwrap()
    }

    fn prog(pe: &PExpr) -> Program {
        Program::compile(pe, &ParamBindings::new(), &UdfRegistry::with_builtins(), &FileStore::new())
            .unwrap()
    }

    fn field(name: &str) -> PExpr {
        PExpr::Col { index: tcp().field_index(name).unwrap(), ty: DataType::UInt }
    }

    fn port_eq(port: u64) -> PExpr {
        PExpr::Binary {
            op: BinOp::Eq,
            left: Box::new(field("destPort")),
            right: Box::new(PExpr::Lit(Literal::UInt(port))),
            ty: DataType::Bool,
        }
    }

    fn pkt(ts_sec: u64, dport: u16) -> CapPacket {
        let f = FrameBuilder::tcp(0x0a000001, 0x0a000002, 999, dport)
            .payload(b"x")
            .build_ethernet();
        CapPacket::full(ts_sec * 1_000_000_000, 0, LinkType::Ethernet, f)
    }

    /// Two port-80 LFTAs share one atom and one BPF program; a port-25
    /// LFTA gets its own bit.
    fn mk_lfta(name: &str, port: u64) -> Lfta {
        let pred = port_eq(port);
        let split = extract_atoms("tcp", std::slice::from_ref(&pred), &Default::default());
        let mut l = Lfta::new(
            name.into(),
            tcp(),
            Some(Arc::new(tcp_dst_port_filter(port as u16))),
            None,
            Some(prog(&pred)),
            LftaKind::Project(vec![prog(&field("destPort"))]),
            None,
        );
        l.set_shared_split(SharedSplit { atoms: split.atoms, residual: None });
        l
    }

    #[test]
    fn atoms_and_programs_dedupe_across_lftas() {
        let mut sp = SharedPrefilter::new();
        let slots = vec![
            Slot(mk_lfta("a", 80)),
            Slot(mk_lfta("b", 80)),
            Slot(mk_lfta("c", 25)),
        ];
        for s in &slots {
            sp.add_lfta(&s.0, 0);
        }
        assert_eq!(sp.n_lftas(), 3);
        assert_eq!(sp.n_atoms(), 2, "the two port-80 atoms collapse");
        assert_eq!(sp.n_progs(), 2, "the two port-80 BPF programs collapse");
    }

    #[test]
    fn dispatch_matches_private_push_packet() {
        let mut sp = SharedPrefilter::new();
        let mut shared_slots =
            vec![Slot(mk_lfta("a", 80)), Slot(mk_lfta("b", 80)), Slot(mk_lfta("c", 25))];
        for s in &shared_slots {
            sp.add_lfta(&s.0, 0);
        }
        let mut private = [mk_lfta("a", 80), mk_lfta("b", 80), mk_lfta("c", 25)];
        let pkts: Vec<CapPacket> =
            (0..30).map(|i| pkt(i, if i % 3 == 0 { 80 } else { 25 + (i % 2) as u16 * 55 })).collect();
        let mut shared_out = vec![Vec::new(); 3];
        let mut private_out: Vec<Vec<StreamItem>> = vec![Vec::new(); 3];
        for p in &pkts {
            sp.dispatch(p, &mut shared_slots, &mut shared_out);
            for (l, o) in private.iter_mut().zip(private_out.iter_mut()) {
                l.push_packet(p, o);
            }
        }
        sp.flush_stats(&mut shared_slots);
        for i in 0..3 {
            assert_eq!(shared_out[i].len(), private_out[i].len(), "lfta {i} outputs");
            assert_eq!(shared_slots[i].0.stats, private[i].stats, "lfta {i} counters");
        }
        assert!(sp.dispatch_hits > 0);
    }

    fn port_cmp(op: BinOp, port: u64) -> PExpr {
        PExpr::Binary {
            op,
            left: Box::new(field("destPort")),
            right: Box::new(PExpr::Lit(Literal::UInt(port))),
            ty: DataType::Bool,
        }
    }

    fn mk_lfta_pred(name: &str, pred: PExpr) -> Lfta {
        let split = extract_atoms("tcp", std::slice::from_ref(&pred), &Default::default());
        let mut l = Lfta::new(
            name.into(),
            tcp(),
            None,
            None,
            Some(prog(&pred)),
            LftaKind::Project(vec![prog(&field("destPort"))]),
            None,
        );
        l.set_shared_split(SharedSplit { atoms: split.atoms, residual: None });
        l
    }

    /// Every comparison operator routes through the constant-compare fast
    /// path and stays output- and counter-identical to private execution.
    #[test]
    fn fast_path_matches_program_eval_for_all_comparisons() {
        let ops = [BinOp::Eq, BinOp::Ne, BinOp::Lt, BinOp::Le, BinOp::Gt, BinOp::Ge];
        let mut sp = SharedPrefilter::new();
        let mut slots: Vec<Slot> = ops
            .iter()
            .enumerate()
            .map(|(i, &op)| Slot(mk_lfta_pred(&format!("q{i}"), port_cmp(op, 80))))
            .collect();
        for s in &slots {
            sp.add_lfta(&s.0, 0);
        }
        assert_eq!(sp.n_atoms(), ops.len());
        assert!(sp.atoms.iter().all(|a| a.fast.is_some()), "all atoms take the fast path");
        assert_eq!(sp.field_slots.len(), 1, "six atoms share one destPort read");
        let mut private: Vec<Lfta> = ops
            .iter()
            .enumerate()
            .map(|(i, &op)| mk_lfta_pred(&format!("q{i}"), port_cmp(op, 80)))
            .collect();
        let mut shared_out = vec![Vec::new(); ops.len()];
        let mut private_out: Vec<Vec<StreamItem>> = vec![Vec::new(); ops.len()];
        for i in 0..40u64 {
            let p = pkt(i, [25u16, 79, 80, 81, 443][i as usize % 5]);
            sp.dispatch(&p, &mut slots, &mut shared_out);
            for (l, o) in private.iter_mut().zip(private_out.iter_mut()) {
                l.push_packet(&p, o);
            }
        }
        sp.flush_stats(&mut slots);
        for i in 0..ops.len() {
            assert_eq!(shared_out[i].len(), private_out[i].len(), "op {i} outputs");
            assert_eq!(slots[i].0.stats, private[i].stats, "op {i} counters");
        }
    }

    #[test]
    fn snap_fallback_preserves_exactness() {
        // An LFTA with a tiny snaplen: headers do not fit, so the shared
        // pass must replay the private snapped parse.
        let mut l = mk_lfta("s", 80);
        let mut l2 = Lfta::new(
            "s".into(),
            tcp(),
            None,
            Some(20), // cuts into the IP header
            None,
            LftaKind::Project(vec![prog(&field("time"))]),
            None,
        );
        l2.set_shared_split(SharedSplit { atoms: Vec::new(), residual: None });
        let _ = &mut l;
        let mut sp = SharedPrefilter::new();
        sp.add_lfta(&l2, 0);
        let mut slots = vec![Slot(l2)];
        let mut priv_l = Lfta::new(
            "s".into(),
            tcp(),
            None,
            Some(20),
            None,
            LftaKind::Project(vec![prog(&field("time"))]),
            None,
        );
        let mut shared_out = vec![Vec::new()];
        let mut priv_out = Vec::new();
        for i in 0..5 {
            let p = pkt(i, 80);
            sp.dispatch(&p, &mut slots, &mut shared_out);
            priv_l.push_packet(&p, &mut priv_out);
        }
        sp.flush_stats(&mut slots);
        assert_eq!(shared_out[0].len(), priv_out.len());
        assert_eq!(slots[0].0.stats, priv_l.stats);
        assert!(sp.snap_fallbacks > 0, "tiny snaplen must take the fallback");
    }

    #[test]
    fn describe_lists_atoms_and_masks() {
        let mut sp = SharedPrefilter::new();
        let slots = vec![Slot(mk_lfta("a", 80)), Slot(mk_lfta("c", 25))];
        for s in &slots {
            sp.add_lfta(&s.0, 0);
        }
        let d = sp.describe(&|e, _| format!("{e:?}"));
        assert!(d.contains("2 LFTAs"), "{d}");
        assert!(d.contains("atom[0]"), "{d}");
        assert!(d.contains("lfta a"), "{d}");
        assert!(d.contains("{0}"), "{d}");
        assert!(d.contains("{1}"), "{d}");
    }

    #[test]
    fn cache_interns_equal_programs() {
        let mut c = PrefilterCache::new();
        let a = c.intern(Arc::new(tcp_dst_port_filter(80)));
        let b = c.intern(Arc::new(tcp_dst_port_filter(80)));
        let d = c.intern(Arc::new(tcp_dst_port_filter(25)));
        assert!(Arc::ptr_eq(&a, &b));
        assert!(!Arc::ptr_eq(&a, &d));
        assert_eq!(c.len(), 2);
    }
}
