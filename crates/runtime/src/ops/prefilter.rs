//! The cross-query shared prefilter: evaluate each packet once, dispatch
//! to N LFTAs by signature group.
//!
//! The paper's §3 prefilter is per-LFTA: every registered query re-parses
//! the packet and re-evaluates its own BPF program and predicate, so
//! per-packet cost grows linearly with query count. This module factors
//! the distinct work across all registered LFTAs into one shared pass,
//! cheapest test first:
//!
//! 1. each *distinct* compiled BPF program runs once, on the raw capture
//!    bytes and before anything else (queries with equal programs share
//!    the verdict; same-shape programs share one probe);
//! 2. at most one `PacketView` parse per packet (instead of one per
//!    LFTA), and only when some dispatch group on the packet's interface
//!    survives admission and its BPF stage (a group without a program
//!    always does) — a packet every program rejects is never parsed;
//! 3. each *distinct* protocol match runs once, on that parse;
//! 4. each *distinct* predicate atom (see `gs_gsql::pushdown::extract_atoms`)
//!    evaluates at most once, lazily — on the first group that survives
//!    to its predicate stage and needs it — and its verdict is memoized
//!    for the rest of the packet;
//! 5. LFTAs with the same decision sequence form one dispatch group; a
//!    group whose BPF, protocol and required atoms all pass runs each
//!    member's tail — its own prefilter, parse and shared conjuncts are
//!    skipped because the pass hands it the parsed view and the verdicts.
//!    A sampled LFTA is a group of its own that admits each packet
//!    through its own sampling hash first.
//!
//! Per-LFTA counters are replayed exactly: the pass charges `prefiltered`,
//! `not_protocol` and `filtered` from the memoized verdicts in the same
//! order [`Lfta::push_packet`] — the private path — would have, so a run
//! through the pass is output- and counter-identical to every LFTA
//! running alone (pinned against a naive per-LFTA oracle by
//! `gs-tests/prop_prefilter`).

use crate::expr::{EvalScratch, FieldSource, PacketFields, Program};
use crate::ops::lfta::Lfta;
use crate::stats::{Counter, StatSource, StatsRegistry};
use crate::tuple::StreamItem;
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

/// Aggregate counters of the shared pass, registered as `prefilter:shared`.
#[derive(Debug, Default)]
pub struct SharedCounters {
    /// Packets offered to the shared pass.
    pub packets: Counter,
    /// Shared `PacketView` parses performed: at most one per packet, and
    /// only for a packet that some group on its interface let through
    /// admission and BPF — the rest are rejected on their raw bytes.
    pub parses: Counter,
    /// Total atom evaluations across all atoms.
    pub atom_evals: Counter,
    /// LFTA tails dispatched (required atoms all true).
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
    /// Packets whose required atoms all held (tail dispatched).
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
    /// Compiled once, when the first LFTA carrying the atom was built.
    prog: Arc<Program>,
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
/// first group that actually needs them (most packets fail the BPF stage
/// of most groups, so most atoms are never consulted).
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

/// Index of the first element of `v` that `same` accepts, pushing
/// `new()` when there is none.
fn intern<T>(v: &mut Vec<T>, same: impl Fn(&T) -> bool, new: impl FnOnce() -> T) -> usize {
    v.iter().position(same).unwrap_or_else(|| {
        v.push(new());
        v.len() - 1
    })
}

/// An LFTA's decision sequence before its tail: interface, BPF program
/// (index into the distinct-program table), snap length, protocol (index
/// into the distinct-protocol table) and required atoms (sorted indices
/// into the atom table). Unsampled LFTAs with equal signatures see equal
/// verdicts on every packet.
#[derive(Clone, PartialEq)]
struct Signature {
    iface: u16,
    prog: Option<usize>,
    snaplen: Option<usize>,
    proto: usize,
    atom_ids: Vec<usize>,
}

/// Per-LFTA dispatch entry, parallel to the engine's LFTA vector.
struct Entry {
    /// LFTA stream name (stats registration and explain output).
    name: String,
    sig: Signature,
    /// Analyst-requested sampling is on: admission runs the LFTA's own
    /// per-packet hash, so the entry never shares a group.
    sampled: bool,
    hits: u64,
    shared: Arc<DispatchCounters>,
}

/// Entries whose decision sequence is identical share one group: the hot
/// loop decides once per group and only walks the member list on a hit
/// (or snap fallback). With Q queries over D distinct predicates the
/// per-packet dispatch loop is O(D), not O(Q). A sampled entry is a
/// singleton group.
struct DispatchGroup {
    sig: Signature,
    sampled: bool,
    /// Entry indices sharing this signature.
    members: Vec<usize>,
}

/// The per-group decision row the hot loop reads — 16 bytes, so dozens
/// of groups fit in a few cache lines (the full [`DispatchGroup`] spans
/// several lines and is only touched by surviving packets).
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
    /// For a sampled group, the slot of its one LFTA, which admits each
    /// packet through its sampling hash before the BPF verdict;
    /// `u32::MAX` = unsampled.
    sampled_slot: u32,
}

/// Batched counter deltas, parallel to the group table; each delta
/// applies to EVERY member on flush (identical signatures see identical
/// verdicts). A BPF-rejected packet writes nothing here: an unsampled
/// group's admitted count is the per-interface packet count, and
/// `prefiltered` is derived as `admitted - bpf_passed`, so the common
/// all-reject packet costs one read and one branch per group.
#[derive(Clone, Copy, Default)]
struct GroupDelta {
    /// Packets a sampled group admitted (its LFTA counted the offers and
    /// the sampled-out ones itself).
    admitted: u64,
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
    /// shared `packets_in` delta for every unsampled group on that
    /// interface.
    iface_packets: Vec<u64>,
    /// Same-shape distinct programs factored behind one probe each
    /// (member indices into `progs`); recomputed on registration.
    families: Vec<(JeqFamily, Vec<usize>)>,
    /// Distinct programs interpreted individually.
    loose_progs: Vec<usize>,
    /// Distinct `(proto_idx, column)` pairs read by fast-path atoms.
    field_slots: Vec<(usize, usize)>,
    /// Dispatch groups over every entry; recomputed on registration.
    groups: Vec<DispatchGroup>,
    /// Packed per-group decision rows (parallel to `groups`).
    group_hot: Vec<GroupHot>,
    /// Batched per-group counter deltas (parallel to `groups`).
    group_deltas: Vec<GroupDelta>,
    /// Registrations since the last family/group rebuild; the derived
    /// tables recompute lazily on the next dispatch (or describe), so a
    /// hundred `add_lfta` calls cost one rebuild, not a hundred.
    dirty: bool,
    // Per-packet scratch: distinct-program/protocol verdicts, memoized
    // field-slot values and atom verdicts.
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
    /// vector — dispatch addresses slots by index. Compiles nothing: the
    /// atoms arrive compiled in the LFTA's [`SharedSplit`].
    ///
    /// [`SharedSplit`]: crate::ops::lfta::SharedSplit
    pub fn add_lfta(&mut self, lfta: &Lfta, iface: u16) {
        let prog = lfta
            .prefilter_program()
            .map(|p| intern(&mut self.progs, |e| Arc::ptr_eq(e, p) || **e == **p, || p.clone()));
        let proto_def = lfta.protocol_def();
        let proto = intern(&mut self.protos, |e| std::ptr::eq(*e, proto_def), || proto_def);
        let mut atom_ids = Vec::new();
        for (atom, prog) in lfta.shared_split().map_or(&[][..], |s| &s.atoms) {
            let field_slots = &mut self.field_slots;
            atom_ids.push(intern(
                &mut self.atoms,
                |a| a.key == atom.key,
                || SharedAtom {
                    key: atom.key.clone(),
                    expr: atom.expr.clone(),
                    proto: proto_def,
                    prog: prog.clone(),
                    fast: fast_cmp_shape(&atom.expr).map(|(col, op, k)| FastCmp {
                        slot: intern(field_slots, |&s| s == (proto, col), || (proto, col)),
                        op,
                        k,
                    }),
                    evals: 0,
                    hits: 0,
                    shared: Arc::new(AtomCounters::default()),
                },
            ));
        }
        atom_ids.sort_unstable();
        atom_ids.dedup();
        if !self.ifaces.contains(&iface) {
            self.ifaces.push(iface);
            self.iface_packets.push(0);
        }
        self.entries.push(Entry {
            name: lfta.name.clone(),
            sig: Signature { iface, prog, snaplen: lfta.snaplen(), proto, atom_ids },
            sampled: lfta.sampling_enabled(),
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
        for (i, e) in self.entries.iter().enumerate() {
            let shared = if e.sampled {
                None
            } else {
                self.groups.iter_mut().find(|g| !g.sampled && g.sig == e.sig)
            };
            match shared {
                Some(g) => g.members.push(i),
                None => self.groups.push(DispatchGroup {
                    sig: e.sig.clone(),
                    sampled: e.sampled,
                    members: vec![i],
                }),
            }
        }
        self.group_hot = self
            .groups
            .iter()
            .map(|g| GroupHot {
                iface_idx: {
                    let k = self.ifaces.iter().position(|&f| f == g.sig.iface);
                    u16::try_from(k.expect("group iface is registered")).unwrap()
                },
                proto: u16::try_from(g.sig.proto).expect("distinct protocols fit u16"),
                prog: g.sig.prog.map_or(u32::MAX, |p| p as u32),
                snaplen: g
                    .sig
                    .snaplen
                    .map_or(u32::MAX, |s| u32::try_from(s).unwrap_or(u32::MAX - 1)),
                sampled_slot: if g.sampled {
                    u32::try_from(g.members[0]).expect("slot indices fit u32")
                } else {
                    u32::MAX
                },
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

    /// Process one packet: run each distinct BPF program once on the raw
    /// bytes, parse only if some listening group survives its admission
    /// and BPF stage, then take each protocol match and atom at most once
    /// and dispatch every surviving LFTA off the memoized verdicts.
    /// `slots` must be the `(lfta, interface)` vector this pass was built
    /// from (same order); `outs[i]` receives slot `i`'s output items.
    // `#[inline]` lets the caller's crate instantiate the pass: compiled
    // only inside this crate, the per-packet loop measured ~10 % slower
    // over 100 LFTAs.
    #[inline]
    pub fn dispatch(
        &mut self,
        cap: &CapPacket,
        slots: &mut [(Lfta, u16)],
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

        // Shared BPF stage, on the raw bytes and before any parse: every
        // distinct program once. Same-shape programs (the
        // pushdown-generated `field cmp const` family) share one probe run
        // of their common prefix; only the final comparison is replayed
        // per member, host-side.
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
        self.field_vals.clear();
        self.field_vals.resize(self.field_slots.len(), SlotVal::Unset);
        self.atom_state.clear();
        self.atom_state.resize(self.atoms.len(), AtomState::Unset);

        // Dispatch: replay each group's decision sequence off the
        // verdicts, once for all its members; counter deltas accumulate
        // in the group rows and are folded back by `flush_stats`. The
        // packet is parsed, and its protocol verdicts taken, at the first
        // group that survives admission and BPF — most packets survive
        // none and are never parsed. Atoms evaluate lazily, only when a
        // group survives to its predicate stage.
        let SharedPrefilter {
            entries,
            atoms,
            protos,
            field_slots,
            groups,
            group_hot,
            group_deltas,
            prog_verdicts,
            proto_verdicts,
            field_vals,
            atom_state,
            hit_slots,
            scratch,
            parses,
            dispatch_hits,
            snap_fallbacks,
            ..
        } = self;
        let mut atom_true = |j: usize, view: &PacketView| -> bool {
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
                                let fields = PacketFields::new(view, protos[pi].fields);
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
                                    let fields = PacketFields::new(view, a.proto.fields);
                                    a.prog.eval_bool(&fields, scratch)
                                }
                            }
                        }
                        None => {
                            let fields = PacketFields::new(view, a.proto.fields);
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
        let mut parsed: Option<PacketView> = None;
        for (gi, h) in group_hot.iter().enumerate() {
            if usize::from(h.iface_idx) != iface_idx {
                continue;
            }
            if h.sampled_slot != u32::MAX {
                // The group's one LFTA counts the offer and decides
                // admission itself, exactly as `push_packet` does first.
                if !slots[h.sampled_slot as usize].0.admit(cap) {
                    continue;
                }
                group_deltas[gi].admitted += 1;
            }
            // The common all-reject packet costs one verdict load and a
            // branch per group: admission and the prefiltered count are
            // reconstructed from the admitted and `bpf_passed` counts at
            // flush time.
            if h.prog != u32::MAX && !prog_verdicts[h.prog as usize] {
                continue;
            }
            let d = &mut group_deltas[gi];
            d.bpf_passed += 1;
            let view = parsed.get_or_insert_with(|| {
                *parses += 1;
                let view = PacketView::parse(cap.clone());
                proto_verdicts.clear();
                proto_verdicts.extend(protos.iter().map(|p| (p.matches)(&view)));
                view
            });
            if h.snaplen != u32::MAX {
                // The shared full-packet parse stands in for a snapped
                // parse only when every parsed header lies within the
                // snap length; otherwise each member replays its private
                // path exactly (snap, re-parse, full predicate).
                let s = h.snaplen as usize;
                if cap.data.len() > s && !headers_within(view, s) {
                    let members = &groups[gi].members;
                    *snap_fallbacks += members.len() as u64;
                    for &i in members {
                        hit_slots.push(i);
                        slots[i].0.push_accepted(cap, &mut outs[i]);
                    }
                    continue;
                }
            }
            if !proto_verdicts[usize::from(h.proto)] {
                d.not_protocol += 1;
                continue;
            }
            if !groups[gi].sig.atom_ids.iter().all(|&j| atom_true(j, view)) {
                d.filtered += 1;
                continue;
            }
            for &i in &groups[gi].members {
                entries[i].hits += 1;
                *dispatch_hits += 1;
                hit_slots.push(i);
                slots[i].0.push_matched(view, &mut outs[i]);
            }
        }
    }

    /// Slot indices whose tail ran for the last dispatched packet — the
    /// only out-vectors that can hold output. Each index appears at most
    /// once.
    pub fn hit_slots(&self) -> &[usize] {
        &self.hit_slots
    }

    /// Fold the batched per-group counter deltas into each member LFTA's
    /// `stats` block. Must run before those counters are observed (stats
    /// publication, heartbeats, the end-of-run gather); `slots` must be
    /// the LFTA vector dispatch runs over.
    pub fn flush_stats(&mut self, slots: &mut [(Lfta, u16)]) {
        for ((g, h), d) in
            self.groups.iter().zip(self.group_hot.iter()).zip(self.group_deltas.iter_mut())
        {
            // An unsampled group was offered, and admitted, every packet
            // on its interface; a sampled group's LFTA counted its own
            // offers in `admit`.
            let (offered, admitted) = if g.sampled {
                (0, d.admitted)
            } else {
                let p = self.iface_packets[usize::from(h.iface_idx)];
                (p, p)
            };
            if admitted == 0 {
                continue;
            }
            // Identical signatures saw identical verdicts: the group
            // delta applies to every member.
            let prefiltered = if g.sig.prog.is_some() { admitted - d.bpf_passed } else { 0 };
            for &i in &g.members {
                let stats = &mut slots[i].0.stats;
                stats.packets_in += offered;
                stats.prefiltered += prefiltered;
                stats.not_protocol += d.not_protocol;
                stats.filtered += d.filtered;
            }
            *d = GroupDelta::default();
        }
        for v in self.iface_packets.iter_mut() {
            *v = 0;
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
    /// LFTA's required atoms. `label` renders an atom expression
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
            let _ = writeln!(
                s,
                "  dispatch groups: {} signatures over {} LFTAs",
                self.groups.len(),
                self.entries.len()
            );
        }
        for (j, a) in self.atoms.iter().enumerate() {
            let _ = writeln!(s, "  atom[{j}] ({}): {}", a.proto.name, label(&a.expr, a.proto));
        }
        for e in &self.entries {
            let bits = if e.sig.atom_ids.is_empty() {
                "-".to_string()
            } else {
                let strs: Vec<String> = e.sig.atom_ids.iter().map(|i| i.to_string()).collect();
                format!("{{{}}}", strs.join(","))
            };
            let bpf = match e.sig.prog {
                Some(p) => format!("bpf#{p}"),
                None => "no-bpf".to_string(),
            };
            let _ = writeln!(
                s,
                "  lfta {} iface {} {} proto {} atoms {}",
                e.name, e.sig.iface, bpf, self.protos[e.sig.proto].name, bits
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
    use crate::ops::lfta::{LftaKind, LftaStats, SharedSplit};
    use crate::params::ParamBindings;
    use crate::udf::{FileStore, UdfRegistry};
    use gs_gsql::ast::BinOp;
    use gs_gsql::plan::Literal;
    use gs_gsql::pushdown::{extract_atoms, Atom};
    use gs_gsql::types::DataType;
    use gs_nic::bpf::tcp_dst_port_filter;
    use gs_packet::builder::FrameBuilder;

    /// An `(lfta, interface)` slot on interface 0.
    fn slot(l: Lfta) -> (Lfta, u16) {
        (l, 0)
    }

    /// The split `build_lfta` installs: every atom shared, compiled once.
    fn split_of(atoms: Vec<Atom>) -> SharedSplit {
        let atoms = atoms.into_iter().map(|a| {
            let p = Arc::new(prog(&a.expr));
            (a, p)
        });
        SharedSplit { atoms: atoms.collect(), residual: None }
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
        l.set_shared_split(split_of(split.atoms));
        l
    }

    #[test]
    fn atoms_and_programs_dedupe_across_lftas() {
        let mut sp = SharedPrefilter::new();
        let slots = vec![
            slot(mk_lfta("a", 80)),
            slot(mk_lfta("b", 80)),
            slot(mk_lfta("c", 25)),
        ];
        for s in &slots {
            sp.add_lfta(&s.0, 0);
        }
        assert_eq!(sp.n_lftas(), 3);
        assert_eq!(sp.n_atoms(), 2, "the two port-80 atoms collapse");
        assert_eq!(sp.n_progs(), 2, "the two port-80 BPF programs collapse");
    }

    /// `d` is `a` sampled: same interface, BPF program, protocol, snap
    /// length and atoms, but its own admission hash.
    fn mk_sampled(name: &str, port: u64) -> Lfta {
        let mut l = mk_lfta(name, port);
        l.set_sample(0.5);
        l
    }

    #[test]
    fn dispatch_matches_private_push_packet() {
        let mut sp = SharedPrefilter::new();
        let mut shared_slots = vec![
            slot(mk_lfta("a", 80)),
            slot(mk_lfta("b", 80)),
            slot(mk_lfta("c", 25)),
            slot(mk_sampled("d", 80)),
        ];
        for s in &shared_slots {
            sp.add_lfta(&s.0, 0);
        }
        let mut private =
            [mk_lfta("a", 80), mk_lfta("b", 80), mk_lfta("c", 25), mk_sampled("d", 80)];
        let pkts: Vec<CapPacket> =
            (0..30).map(|i| pkt(i, if i % 3 == 0 { 80 } else { 25 + (i % 2) as u16 * 55 })).collect();
        let mut shared_out = vec![Vec::new(); 4];
        let mut private_out: Vec<Vec<StreamItem>> = vec![Vec::new(); 4];
        for p in &pkts {
            sp.dispatch(p, &mut shared_slots, &mut shared_out);
            for (l, o) in private.iter_mut().zip(private_out.iter_mut()) {
                l.push_packet(p, o);
            }
        }
        sp.flush_stats(&mut shared_slots);
        for i in 0..4 {
            assert_eq!(shared_out[i].len(), private_out[i].len(), "lfta {i} outputs");
            assert_eq!(shared_slots[i].0.stats, private[i].stats, "lfta {i} counters");
        }
        assert!(sp.dispatch_hits > 0);
        let d = &private[3].stats;
        assert!(d.sampled_out > 0 && d.tuples_out > 0, "sampling both drops and keeps: {d:?}");
        let plan = sp.describe(&|e, _| format!("{e:?}"));
        assert!(plan.contains("dispatch groups: 3 signatures over 4 LFTAs"), "{plan}");
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
        l.set_shared_split(split_of(split.atoms));
        l
    }

    /// Every comparison operator routes through the constant-compare fast
    /// path and stays output- and counter-identical to private execution.
    #[test]
    fn fast_path_matches_program_eval_for_all_comparisons() {
        let ops = [BinOp::Eq, BinOp::Ne, BinOp::Lt, BinOp::Le, BinOp::Gt, BinOp::Ge];
        let mut sp = SharedPrefilter::new();
        let mut slots: Vec<(Lfta, u16)> = ops
            .iter()
            .enumerate()
            .map(|(i, &op)| slot(mk_lfta_pred(&format!("q{i}"), port_cmp(op, 80))))
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
        l2.set_shared_split(split_of(Vec::new()));
        let _ = &mut l;
        let mut sp = SharedPrefilter::new();
        sp.add_lfta(&l2, 0);
        let mut slots = vec![slot(l2)];
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
        let slots = vec![slot(mk_lfta("a", 80)), slot(mk_lfta("c", 25))];
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

    /// Dispatch `p` over `slots` and against each slot's private twin;
    /// returns how many parses the shared pass spent on it.
    fn parses_for(
        sp: &mut SharedPrefilter,
        slots: &mut [(Lfta, u16)],
        private: &mut [Lfta],
        p: &CapPacket,
    ) -> u64 {
        let before = sp.parses;
        let mut outs = vec![Vec::new(); slots.len()];
        sp.dispatch(p, slots, &mut outs);
        for (l, o) in private.iter_mut().zip(outs.iter()) {
            let mut private_out = Vec::new();
            l.push_packet(p, &mut private_out);
            assert_eq!(o.len(), private_out.len(), "{} outputs", l.name);
        }
        sp.parses - before
    }

    fn registered(lftas: Vec<Lfta>) -> (SharedPrefilter, Vec<(Lfta, u16)>) {
        let mut sp = SharedPrefilter::new();
        for l in &lftas {
            sp.add_lfta(l, 0);
        }
        (sp, lftas.into_iter().map(slot).collect())
    }

    /// BPF runs on the raw bytes before the parse: a packet that every
    /// group's program rejects is counted and never parsed, and its
    /// counters are the private path's. A packet that passes is parsed
    /// once, however many groups it reaches.
    #[test]
    fn bpf_rejected_packets_are_never_parsed() {
        let mk = || vec![mk_lfta("a", 80), mk_lfta("b", 80), mk_lfta("c", 25)];
        let ((mut sp, mut slots), mut private) = (registered(mk()), mk());
        for i in 0..10 {
            assert_eq!(parses_for(&mut sp, &mut slots, &mut private, &pkt(i, 443)), 0);
        }
        assert_eq!((sp.packets, sp.parses), (10, 0));
        sp.flush_stats(&mut slots);
        for (s, l) in slots.iter().zip(&private) {
            assert_eq!(s.0.stats, l.stats, "{} counters", l.name);
            assert_eq!((s.0.stats.packets_in, s.0.stats.prefiltered), (10, 10));
        }
        assert_eq!(parses_for(&mut sp, &mut slots, &mut private, &pkt(10, 80)), 1);
        assert_eq!(sp.dispatch_hits, 2, "one parse served both port-80 LFTAs");
    }

    /// A group without a BPF program always survives to the parse, so
    /// it parses every packet on its interface.
    #[test]
    fn group_without_program_parses_every_packet() {
        let mk = || vec![mk_lfta("a", 80), mk_lfta_pred("n", port_eq(80))];
        let ((mut sp, mut slots), mut private) = (registered(mk()), mk());
        for i in 0..6 {
            let p = pkt(i, [80, 443][i as usize % 2]);
            assert_eq!(parses_for(&mut sp, &mut slots, &mut private, &p), 1, "packet {i}");
        }
        sp.flush_stats(&mut slots);
        for (s, l) in slots.iter().zip(&private) {
            assert_eq!(s.0.stats, l.stats, "{} counters", l.name);
        }
    }

    /// A sampled group parses a packet only when its admission hash
    /// takes the packet and its BPF program passes it; one that rejects
    /// at admission parses nothing.
    #[test]
    fn sampled_group_parses_only_what_it_admits() {
        let shut = || {
            let mut l = mk_sampled("z", 80);
            l.set_sample(0.0);
            l
        };
        let ((mut sp, mut slots), mut private) = (registered(vec![shut()]), vec![shut()]);
        for i in 0..10 {
            assert_eq!(parses_for(&mut sp, &mut slots, &mut private, &pkt(i, 80)), 0);
        }
        sp.flush_stats(&mut slots);
        assert_eq!(slots[0].0.stats, private[0].stats);
        assert_eq!(slots[0].0.stats.sampled_out, 10);

        let mk = || vec![mk_sampled("d", 80)];
        let ((mut sp, mut slots), mut private) = (registered(mk()), mk());
        let mut admitted = 0;
        for i in 0..40 {
            let p = pkt(i, [80, 443][i as usize % 2]);
            let sampled_out = private[0].stats.sampled_out;
            let parses = parses_for(&mut sp, &mut slots, &mut private, &p);
            let admits = private[0].stats.sampled_out == sampled_out;
            assert_eq!(parses, u64::from(admits && i % 2 == 0), "packet {i}");
            admitted += u64::from(admits);
        }
        assert!(admitted > 0 && admitted < 40, "sampling both admits and drops: {admitted}");
        sp.flush_stats(&mut slots);
        assert_eq!(slots[0].0.stats, private[0].stats);
    }

    /// A packet on an interface no LFTA listens on is counted by the
    /// pass and neither parsed nor offered to any LFTA.
    #[test]
    fn unlistened_interface_parses_nothing() {
        let (mut sp, mut slots) = registered(vec![mk_lfta_pred("n", port_eq(80))]);
        let mut p = pkt(0, 80);
        p.iface = 1;
        assert_eq!(parses_for(&mut sp, &mut slots, &mut [], &p), 0);
        assert_eq!((sp.packets, sp.parses), (1, 0));
        sp.flush_stats(&mut slots);
        assert_eq!(slots[0].0.stats, LftaStats::default());
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
