//! A classic-BPF-style packet filter machine.
//!
//! The paper (§3): "Other NICs allow us to specify a bpf (berkeley packet
//! filter) preliminary filter, and to specify the number of bytes of
//! qualifying packets (the snap length) to be returned (that is, we can
//! push a simple selection/projection operator into the NIC)."
//!
//! This module defines the instruction set, a verifier enforcing the
//! classic safety rules (forward-only jumps, in-bounds targets, terminating
//! programs), and an interpreter over raw frame bytes. The GSQL optimizer
//! compiles pushable predicates to these programs (`gs-gsql::pushdown`).

use std::fmt;

/// Maximum instructions a program may contain (classic BPF limit).
pub const MAX_INSNS: usize = 4096;

/// One filter instruction. `A` is the accumulator, `X` the index register.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Insn {
    /// `A = pkt[k]` (byte), reject packet if out of bounds.
    LdB(u32),
    /// `A = be16(pkt[k..])`, reject if out of bounds.
    LdH(u32),
    /// `A = be32(pkt[k..])`, reject if out of bounds.
    LdW(u32),
    /// `A = pkt[X + k]` (byte), reject if out of bounds.
    LdIndB(u32),
    /// `A = be16(pkt[X + k..])`, reject if out of bounds.
    LdIndH(u32),
    /// `A = be32(pkt[X + k..])`, reject if out of bounds.
    LdIndW(u32),
    /// `A = k`.
    LdImm(u32),
    /// `X = 4 * (pkt[k] & 0x0f)` — the classic IP-header-length idiom.
    LdxMshB(u32),
    /// `X = k`.
    LdxImm(u32),
    /// `X = A`.
    Tax,
    /// `A = X`.
    Txa,
    /// `A = A + k` (wrapping).
    Add(u32),
    /// `A = A - k` (wrapping).
    Sub(u32),
    /// `A = A & k`.
    And(u32),
    /// `A = A | k`.
    Or(u32),
    /// `A = A << k` (masked shift).
    Lsh(u32),
    /// `A = A >> k` (masked shift).
    Rsh(u32),
    /// If `A == k` jump forward `jt` insns, else `jf`.
    Jeq(u32, u8, u8),
    /// If `A > k` jump forward `jt` insns, else `jf`.
    Jgt(u32, u8, u8),
    /// If `A >= k` jump forward `jt` insns, else `jf`.
    Jge(u32, u8, u8),
    /// If `A & k != 0` jump forward `jt` insns, else `jf`.
    Jset(u32, u8, u8),
    /// Unconditional forward jump by `k` insns.
    Ja(u32),
    /// Accept the packet (classic BPF returns a snap length; we treat any
    /// nonzero return as accept and expose the value).
    RetImm(u32),
    /// Return `A`.
    RetA,
}

/// Errors from [`BpfProgram::new`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BpfError {
    /// Program is empty.
    Empty,
    /// Program exceeds [`MAX_INSNS`].
    TooLong(usize),
    /// A jump at `pc` lands at or beyond the end of the program.
    JumpOutOfBounds {
        /// Instruction index of the offending jump.
        pc: usize,
    },
    /// The instruction at `pc` can fall through past the end of the
    /// program (the last instruction must be a return or jump past-end is
    /// caught above).
    FallsOffEnd {
        /// Instruction index that falls through.
        pc: usize,
    },
}

impl fmt::Display for BpfError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BpfError::Empty => write!(f, "empty program"),
            BpfError::TooLong(n) => write!(f, "program has {n} insns (max {MAX_INSNS})"),
            BpfError::JumpOutOfBounds { pc } => write!(f, "jump at insn {pc} out of bounds"),
            BpfError::FallsOffEnd { pc } => write!(f, "insn {pc} can fall off the end"),
        }
    }
}

impl std::error::Error for BpfError {}

/// A verified filter program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BpfProgram {
    insns: Vec<Insn>,
}

impl BpfProgram {
    /// Verify and wrap a program.
    ///
    /// The verifier enforces the classic BPF safety conditions: bounded
    /// length, forward-only jumps with in-bounds targets, and no
    /// fall-through past the end — together these guarantee termination in
    /// at most `len` steps.
    pub fn new(insns: Vec<Insn>) -> Result<BpfProgram, BpfError> {
        if insns.is_empty() {
            return Err(BpfError::Empty);
        }
        if insns.len() > MAX_INSNS {
            return Err(BpfError::TooLong(insns.len()));
        }
        let n = insns.len();
        for (pc, insn) in insns.iter().enumerate() {
            match *insn {
                Insn::Jeq(_, jt, jf)
                | Insn::Jgt(_, jt, jf)
                | Insn::Jge(_, jt, jf)
                | Insn::Jset(_, jt, jf) => {
                    // Both successor targets must be real instructions.
                    if pc + 1 + jt as usize >= n || pc + 1 + jf as usize >= n {
                        return Err(BpfError::JumpOutOfBounds { pc });
                    }
                }
                Insn::Ja(k) => {
                    if pc + 1 + k as usize >= n {
                        return Err(BpfError::JumpOutOfBounds { pc });
                    }
                }
                Insn::RetImm(_) | Insn::RetA => {}
                _ => {
                    // Straight-line instruction: must not fall off the end.
                    if pc + 1 >= n {
                        return Err(BpfError::FallsOffEnd { pc });
                    }
                }
            }
        }
        Ok(BpfProgram { insns })
    }

    /// The verified instructions.
    pub fn insns(&self) -> &[Insn] {
        &self.insns
    }

    /// Run the filter over `pkt`. Returns the accept value (0 = reject;
    /// nonzero = accept, conventionally the snap length to keep).
    ///
    /// Out-of-bounds loads reject the packet, as in classic BPF.
    pub fn run(&self, pkt: &[u8]) -> u32 {
        let mut a: u32 = 0;
        let mut x: u32 = 0;
        let mut pc = 0usize;
        // The verifier guarantees forward progress; the loop bound is a
        // defensive backstop.
        for _ in 0..=self.insns.len() {
            let Some(insn) = self.insns.get(pc) else { return 0 };
            pc += 1;
            match *insn {
                Insn::LdB(k) => match pkt.get(k as usize) {
                    Some(&b) => a = u32::from(b),
                    None => return 0,
                },
                Insn::LdH(k) => match load16(pkt, k as usize) {
                    Some(v) => a = v,
                    None => return 0,
                },
                Insn::LdW(k) => match load32(pkt, k as usize) {
                    Some(v) => a = v,
                    None => return 0,
                },
                Insn::LdIndB(k) => match pkt.get((x as usize).wrapping_add(k as usize)) {
                    Some(&b) => a = u32::from(b),
                    None => return 0,
                },
                Insn::LdIndH(k) => match load16(pkt, (x as usize).wrapping_add(k as usize)) {
                    Some(v) => a = v,
                    None => return 0,
                },
                Insn::LdIndW(k) => match load32(pkt, (x as usize).wrapping_add(k as usize)) {
                    Some(v) => a = v,
                    None => return 0,
                },
                Insn::LdImm(k) => a = k,
                Insn::LdxMshB(k) => match pkt.get(k as usize) {
                    Some(&b) => x = 4 * u32::from(b & 0x0f),
                    None => return 0,
                },
                Insn::LdxImm(k) => x = k,
                Insn::Tax => x = a,
                Insn::Txa => a = x,
                Insn::Add(k) => a = a.wrapping_add(k),
                Insn::Sub(k) => a = a.wrapping_sub(k),
                Insn::And(k) => a &= k,
                Insn::Or(k) => a |= k,
                Insn::Lsh(k) => a = a.wrapping_shl(k),
                Insn::Rsh(k) => a = a.wrapping_shr(k),
                Insn::Jeq(k, jt, jf) => pc += if a == k { jt as usize } else { jf as usize },
                Insn::Jgt(k, jt, jf) => pc += if a > k { jt as usize } else { jf as usize },
                Insn::Jge(k, jt, jf) => pc += if a >= k { jt as usize } else { jf as usize },
                Insn::Jset(k, jt, jf) => pc += if a & k != 0 { jt as usize } else { jf as usize },
                Insn::Ja(k) => pc += k as usize,
                Insn::RetImm(k) => return k,
                Insn::RetA => return a,
            }
        }
        0
    }

    /// Whether the program accepts `pkt`.
    #[inline]
    pub fn accepts(&self, pkt: &[u8]) -> bool {
        self.run(pkt) != 0
    }

    /// Concatenate several verified programs into one that accepts (with
    /// value `accept`) iff ANY member accepts, and rejects only when every
    /// member rejects.
    ///
    /// Members run in order: a non-last member's reject (`RetImm(0)`)
    /// becomes a jump to the start of the next member, and every accept
    /// becomes `RetImm(accept)`; the last member keeps its rejects. This is
    /// the merged cross-query capture-point filter — the union rejects a
    /// packet exactly when every per-LFTA prefilter would have, so the
    /// fast-reject path can charge `prefiltered` to every query at once.
    ///
    /// Returns `None` when `members` is empty, when a member uses `RetA`
    /// (its accept/reject split is data-dependent and cannot be rewritten
    /// statically), or when the concatenation would exceed [`MAX_INSNS`].
    ///
    /// Classic-BPF caveat: an out-of-bounds load rejects the whole run, so
    /// a packet too short for an early member's loads is rejected even if a
    /// later member would accept it. The union is exact on packets long
    /// enough for every member's loads — the same behavior a real NIC BPF
    /// engine gives a concatenated filter. In-process dispatch therefore
    /// never drops through this program; it memoizes each member's own
    /// verdict instead (`gs_runtime::ops::prefilter`).
    pub fn union(members: &[&BpfProgram], accept: u32) -> Option<BpfProgram> {
        debug_assert!(accept != 0, "union accept value must be nonzero");
        if members.is_empty() {
            return None;
        }
        let total: usize = members.iter().map(|p| p.insns.len()).sum();
        if total > MAX_INSNS {
            return None;
        }
        if members.iter().any(|p| p.insns.iter().any(|i| matches!(i, Insn::RetA))) {
            return None;
        }
        let mut out = Vec::with_capacity(total);
        let last = members.len() - 1;
        let mut start = 0usize;
        for (mi, prog) in members.iter().enumerate() {
            let next_start = start + prog.insns.len();
            for (pc, insn) in prog.insns.iter().enumerate() {
                let abs = start + pc;
                out.push(match *insn {
                    Insn::RetImm(0) if mi != last => Insn::Ja((next_start - abs - 1) as u32),
                    Insn::RetImm(0) => Insn::RetImm(0),
                    Insn::RetImm(_) => Insn::RetImm(accept),
                    other => other,
                });
            }
            start = next_start;
        }
        BpfProgram::new(out).ok()
    }
}

/// Marker bit ORed into the accumulator by a family probe so an accept
/// return is distinguishable from the reject value 0 even when `A == 0`.
/// Sound because family prefixes end in a byte/halfword load (`A <=
/// 0xffff`).
const PROBE_MARK: u32 = 0x0001_0000;

/// The recovered final comparison of a factored family member: the
/// member accepts iff `A cmp k` (xor `invert`) where `A` is the probed
/// accumulator value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TailTest {
    cmp: TailCmp,
    k: u32,
    invert: bool,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TailCmp {
    Eq,
    Gt,
    Ge,
}

impl TailTest {
    /// The member's verdict given the probed comparison value.
    #[inline]
    pub fn verdict(&self, a: u32) -> bool {
        let hit = match self.cmp {
            TailCmp::Eq => a == self.k,
            TailCmp::Gt => a > self.k,
            TailCmp::Ge => a >= self.k,
        };
        hit != self.invert
    }
}

/// A family of programs identical except for the constant of their final
/// comparison — the shape `gs-gsql`'s prefilter compiler emits for
/// `field cmp const` predicates (`... load; Jcmp(k); RetImm(acc);
/// RetImm(0)`). The shared prefix runs once per packet via a probe
/// program; each member's verdict is then one host-side integer compare,
/// so N same-shape filters cost one interpretation instead of N.
pub struct JeqFamily {
    probe: BpfProgram,
    tests: Vec<TailTest>,
}

impl JeqFamily {
    /// Partition `progs` into factored families (with member indices into
    /// `progs`, parallel to each family's [`tests`](JeqFamily::tests))
    /// and the left-over indices that must be interpreted individually.
    pub fn factor_all(progs: &[&BpfProgram]) -> (Vec<(JeqFamily, Vec<usize>)>, Vec<usize>) {
        // Each shared prefix with its members' indices and tail tests.
        type Members = Vec<(usize, TailTest)>;
        let mut groups: Vec<(&[Insn], Members)> = Vec::new();
        let mut loose = Vec::new();
        for (i, p) in progs.iter().enumerate() {
            match family_shape(p.insns()) {
                Some((prefix, test)) => match groups.iter_mut().find(|(g, _)| *g == prefix) {
                    Some((_, members)) => members.push((i, test)),
                    None => groups.push((prefix, vec![(i, test)])),
                },
                None => loose.push(i),
            }
        }
        let mut families = Vec::new();
        for (prefix, members) in groups {
            if members.len() < 2 {
                // A family of one saves nothing over direct interpretation.
                loose.extend(members.iter().map(|&(i, _)| i));
                continue;
            }
            let mut insns = prefix.to_vec();
            insns.push(Insn::Or(PROBE_MARK));
            insns.push(Insn::RetA);
            insns.push(Insn::RetImm(0));
            let Ok(probe) = BpfProgram::new(insns) else {
                loose.extend(members.iter().map(|&(i, _)| i));
                continue;
            };
            families.push((
                JeqFamily { probe, tests: members.iter().map(|&(_, t)| t).collect() },
                members.iter().map(|&(i, _)| i).collect(),
            ));
        }
        (families, loose)
    }

    /// Run the shared prefix over `pkt`. `None` means the prefix rejected
    /// (every member rejects); `Some(a)` is the accumulator value each
    /// member's [`TailTest`] compares against.
    #[inline]
    pub fn probe(&self, pkt: &[u8]) -> Option<u32> {
        match self.probe.run(pkt) {
            0 => None,
            r => Some(r & 0xffff),
        }
    }

    /// Per-member tail comparisons, parallel to the member index list
    /// returned by [`factor_all`](JeqFamily::factor_all).
    pub fn tests(&self) -> &[TailTest] {
        &self.tests
    }
}

/// Match `[prefix.., Jcmp(k, 0, 1) | Jcmp(k, 1, 0), RetImm(acc != 0),
/// RetImm(0)]` under the conditions that make the probe rewrite exact:
/// the prefix ends in a byte/halfword load (so `A <= 0xffff` at the
/// comparison and [`PROBE_MARK`] is unambiguous), never returns accept
/// itself, and no prefix jump lands on the comparison or the accept (a
/// jump to the final reject is fine — the probe keeps that insn).
fn family_shape(insns: &[Insn]) -> Option<(&[Insn], TailTest)> {
    let n = insns.len();
    if n < 4 {
        return None;
    }
    let (cmp, k, invert) = match insns[n - 3] {
        Insn::Jeq(k, 0, 1) => (TailCmp::Eq, k, false),
        Insn::Jeq(k, 1, 0) => (TailCmp::Eq, k, true),
        Insn::Jgt(k, 0, 1) => (TailCmp::Gt, k, false),
        Insn::Jgt(k, 1, 0) => (TailCmp::Gt, k, true),
        Insn::Jge(k, 0, 1) => (TailCmp::Ge, k, false),
        Insn::Jge(k, 1, 0) => (TailCmp::Ge, k, true),
        _ => return None,
    };
    match insns[n - 2] {
        Insn::RetImm(a) if a != 0 => {}
        _ => return None,
    }
    if insns[n - 1] != Insn::RetImm(0) {
        return None;
    }
    let prefix = &insns[..n - 3];
    match prefix.last()? {
        Insn::LdB(_) | Insn::LdH(_) | Insn::LdIndB(_) | Insn::LdIndH(_) => {}
        _ => return None,
    }
    for (pc, insn) in prefix.iter().enumerate() {
        let targets: [usize; 2] = match *insn {
            Insn::Jeq(_, jt, jf)
            | Insn::Jgt(_, jt, jf)
            | Insn::Jge(_, jt, jf)
            | Insn::Jset(_, jt, jf) => [pc + 1 + jt as usize, pc + 1 + jf as usize],
            Insn::Ja(j) => [pc + 1 + j as usize; 2],
            Insn::RetA => return None,
            Insn::RetImm(v) if v != 0 => return None,
            _ => continue,
        };
        if targets.iter().any(|&t| t == n - 2 || t == n - 3) {
            return None;
        }
    }
    Some((prefix, TailTest { cmp, k, invert }))
}

#[inline]
fn load16(pkt: &[u8], k: usize) -> Option<u32> {
    pkt.get(k..k.checked_add(2)?)
        .map(|s| u32::from(u16::from_be_bytes([s[0], s[1]])))
}

#[inline]
fn load32(pkt: &[u8], k: usize) -> Option<u32> {
    pkt.get(k..k.checked_add(4)?)
        .map(|s| u32::from_be_bytes([s[0], s[1], s[2], s[3]]))
}

/// Build the canonical "IPv4 TCP to port `port` over Ethernet" filter —
///
/// ```
/// use gs_nic::bpf::tcp_dst_port_filter;
/// use gs_packet::builder::FrameBuilder;
///
/// let f = tcp_dst_port_filter(80);
/// assert!(f.accepts(&FrameBuilder::tcp(1, 2, 999, 80).build_ethernet()));
/// assert!(!f.accepts(&FrameBuilder::udp(1, 2, 999, 80).build_ethernet()));
/// ```
///
/// the LFTA prefilter of the paper's §4 experiment — handling variable IP
/// header lengths and skipping fragments with nonzero offsets (their bytes
/// are not a TCP header).
pub fn tcp_dst_port_filter(port: u16) -> BpfProgram {
    use Insn::*;
    BpfProgram::new(vec![
        LdH(12),                        // 0: ethertype
        Jeq(0x0800, 0, 8),              // 1: not IPv4 -> reject (insn 10)
        LdB(23),                        // 2: IP protocol
        Jeq(6, 0, 6),                   // 3: not TCP -> reject
        LdH(20),                        // 4: flags+frag
        Jset(0x1fff, 4, 0),             // 5: nonzero frag offset -> reject
        LdxMshB(14),                    // 6: X = IP header length
        LdIndH(16),                     // 7: dst port at 14 + X + 2
        Jeq(u32::from(port), 0, 1),     // 8: not the port -> reject
        RetImm(u32::MAX),               // 9: accept whole packet
        RetImm(0),                      // 10: reject
    ])
    .expect("static filter verifies")
}

/// Build an "accept everything, snap to `snaplen`" program.
pub fn accept_all(snaplen: u32) -> BpfProgram {
    BpfProgram::new(vec![Insn::RetImm(snaplen)]).expect("single ret verifies")
}

#[cfg(test)]
mod tests {
    use super::*;
    use gs_packet::builder::FrameBuilder;

    #[test]
    fn verifier_rejects_empty_and_overlong() {
        assert_eq!(BpfProgram::new(vec![]).unwrap_err(), BpfError::Empty);
        let long = vec![Insn::LdImm(0); MAX_INSNS + 1];
        assert!(matches!(BpfProgram::new(long), Err(BpfError::TooLong(_))));
    }

    #[test]
    fn verifier_rejects_fall_off_end() {
        let p = BpfProgram::new(vec![Insn::LdImm(1)]);
        assert!(matches!(p, Err(BpfError::FallsOffEnd { pc: 0 })));
    }

    #[test]
    fn verifier_rejects_oob_jump() {
        let p = BpfProgram::new(vec![Insn::Jeq(0, 5, 0), Insn::RetImm(0)]);
        assert!(matches!(p, Err(BpfError::JumpOutOfBounds { pc: 0 })));
        let p = BpfProgram::new(vec![Insn::Ja(1), Insn::RetImm(0)]);
        assert!(matches!(p, Err(BpfError::JumpOutOfBounds { pc: 0 })));
    }

    #[test]
    fn port_filter_matches_only_tcp_port() {
        let f = tcp_dst_port_filter(80);
        let yes = FrameBuilder::tcp(1, 2, 1000, 80).payload(b"x").build_ethernet();
        let no_port = FrameBuilder::tcp(1, 2, 1000, 81).payload(b"x").build_ethernet();
        let no_udp = FrameBuilder::udp(1, 2, 1000, 80).payload(b"x").build_ethernet();
        assert!(f.accepts(&yes));
        assert!(!f.accepts(&no_port));
        assert!(!f.accepts(&no_udp));
    }

    #[test]
    fn port_filter_rejects_fragments_and_garbage() {
        let f = tcp_dst_port_filter(80);
        let frag = FrameBuilder::tcp(1, 2, 1000, 80)
            .payload(&[0u8; 32])
            .fragment(4, false)
            .build_ethernet();
        assert!(!f.accepts(&frag));
        assert!(!f.accepts(&[0u8; 6]));
        assert!(!f.accepts(&[]));
    }

    #[test]
    fn ldxmsh_handles_ip_options() {
        // Hand-build an Ethernet+IPv4 frame with IHL=6 (24-byte header).
        let mut frame = vec![0u8; 14 + 24 + 20];
        frame[12] = 0x08; // IPv4 ethertype
        frame[14] = 0x46; // version 4, IHL 6
        frame[23] = 6; // TCP
        // dst port at 14 + 24 + 2 = 40
        frame[40] = 0;
        frame[41] = 80;
        assert!(tcp_dst_port_filter(80).accepts(&frame));
        assert!(!tcp_dst_port_filter(79).accepts(&frame));
    }

    #[test]
    fn alu_and_ret_a() {
        use Insn::*;
        let p = BpfProgram::new(vec![
            LdImm(0b1100),
            And(0b1010),
            Or(1),
            Lsh(2),
            Rsh(1),
            Add(5),
            Sub(2),
            RetA,
        ])
        .unwrap();
        // ((0b1100 & 0b1010) | 1) = 0b1001 = 9; <<2 = 36; >>1 = 18; +5-2 = 21
        assert_eq!(p.run(&[]), 21);
    }

    #[test]
    fn tax_txa_and_indexed_loads() {
        use Insn::*;
        let p = BpfProgram::new(vec![LdImm(2), Tax, LdIndB(1), RetA]).unwrap();
        assert_eq!(p.run(&[10, 20, 30, 40]), 40);
        // Out-of-bounds indexed load rejects.
        assert_eq!(p.run(&[10, 20, 30]), 0);
        let p = BpfProgram::new(vec![LdxImm(7), Txa, RetA]).unwrap();
        assert_eq!(p.run(&[]), 7);
    }

    #[test]
    fn accept_all_returns_snaplen() {
        assert_eq!(accept_all(96).run(&[1, 2, 3]), 96);
    }

    #[test]
    fn union_accepts_iff_any_member_accepts() {
        let f80 = tcp_dst_port_filter(80);
        let f25 = tcp_dst_port_filter(25);
        let u = BpfProgram::union(&[&f80, &f25], u32::MAX).unwrap();
        let p80 = FrameBuilder::tcp(1, 2, 999, 80).payload(b"x").build_ethernet();
        let p25 = FrameBuilder::tcp(1, 2, 999, 25).payload(b"x").build_ethernet();
        let p53 = FrameBuilder::tcp(1, 2, 999, 53).payload(b"x").build_ethernet();
        assert!(u.accepts(&p80));
        assert!(u.accepts(&p25));
        assert!(!u.accepts(&p53));
        // Equivalence over a spread of frames, including non-TCP and short ones.
        let udp = FrameBuilder::udp(1, 2, 999, 80).payload(b"x").build_ethernet();
        for pkt in [&p80[..], &p25, &p53, &udp, &[0u8; 6], &[]] {
            assert_eq!(u.accepts(pkt), f80.accepts(pkt) || f25.accepts(pkt));
        }
    }

    #[test]
    fn union_returns_uniform_accept_value() {
        let f80 = tcp_dst_port_filter(80);
        let u = BpfProgram::union(&[&f80, &accept_all(60)], 96).unwrap();
        let p80 = FrameBuilder::tcp(1, 2, 999, 80).payload(b"x").build_ethernet();
        assert_eq!(u.run(&p80), 96);
        // The accept-all member catches packets the port filter rejects...
        let p25 = FrameBuilder::tcp(1, 2, 999, 25).payload(b"x").build_ethernet();
        assert_eq!(u.run(&p25), 96);
        // ...but a packet too short for the first member's loads hits the
        // classic-BPF out-of-bounds reject before reaching it.
        assert_eq!(u.run(&[0u8; 6]), 0);
    }

    #[test]
    fn union_rejects_ret_a_and_empty() {
        let ra = BpfProgram::new(vec![Insn::LdImm(1), Insn::RetA]).unwrap();
        assert!(BpfProgram::union(&[&ra], 1).is_none());
        assert!(BpfProgram::union(&[], 1).is_none());
    }

    #[test]
    fn union_of_single_program_preserves_verdicts() {
        let f = tcp_dst_port_filter(80);
        let u = BpfProgram::union(&[&f], u32::MAX).unwrap();
        let yes = FrameBuilder::tcp(1, 2, 999, 80).payload(b"x").build_ethernet();
        let no = FrameBuilder::tcp(1, 2, 999, 81).payload(b"x").build_ethernet();
        assert!(u.accepts(&yes) && !u.accepts(&no));
    }

    /// A corpus of frames exercising every branch of the port filters:
    /// matching/near-miss TCP, UDP, fragments, garbage, and empty.
    fn frame_corpus() -> Vec<Vec<u8>> {
        let mut c: Vec<Vec<u8>> = [80u16, 443, 25, 53, 8080, 0, 65535]
            .iter()
            .map(|&p| FrameBuilder::tcp(1, 2, 999, p).payload(b"x").build_ethernet().to_vec())
            .collect();
        c.push(FrameBuilder::udp(1, 2, 999, 80).payload(b"x").build_ethernet().to_vec());
        c.push(
            FrameBuilder::tcp(1, 2, 999, 80)
                .payload(&[0u8; 32])
                .fragment(4, false)
                .build_ethernet()
                .to_vec(),
        );
        c.push(vec![0u8; 6]);
        c.push(Vec::new());
        c
    }

    #[test]
    fn family_factors_same_shape_port_filters() {
        let progs = [tcp_dst_port_filter(80), tcp_dst_port_filter(443), tcp_dst_port_filter(25)];
        let refs: Vec<&BpfProgram> = progs.iter().collect();
        let (families, loose) = JeqFamily::factor_all(&refs);
        assert_eq!(families.len(), 1);
        assert!(loose.is_empty());
        let (fam, members) = &families[0];
        assert_eq!(members, &[0, 1, 2]);
        for pkt in frame_corpus() {
            let probed = fam.probe(&pkt);
            for (t, &mi) in fam.tests().iter().zip(members) {
                let fast = probed.is_some_and(|a| t.verdict(a));
                assert_eq!(
                    fast,
                    progs[mi].accepts(&pkt),
                    "member {mi} diverged on {} bytes",
                    pkt.len()
                );
            }
        }
    }

    #[test]
    fn family_leaves_foreign_shapes_loose() {
        let port = tcp_dst_port_filter(80);
        let all = accept_all(96);
        let ra = BpfProgram::new(vec![Insn::LdImm(1), Insn::RetA]).unwrap();
        let refs: Vec<&BpfProgram> = vec![&port, &all, &ra];
        let (families, mut loose) = JeqFamily::factor_all(&refs);
        // One port filter alone is not worth a probe; everything is loose.
        assert!(families.is_empty());
        loose.sort_unstable();
        assert_eq!(loose, vec![0, 1, 2]);
    }

    #[test]
    fn jgt_jge_branches() {
        use Insn::*;
        let gt = |v| {
            BpfProgram::new(vec![LdImm(v), Jgt(5, 0, 1), RetImm(1), RetImm(0)]).unwrap().run(&[])
        };
        assert_eq!(gt(6), 1);
        assert_eq!(gt(5), 0);
        let ge = |v| {
            BpfProgram::new(vec![LdImm(v), Jge(5, 0, 1), RetImm(1), RetImm(0)]).unwrap().run(&[])
        };
        assert_eq!(ge(5), 1);
        assert_eq!(ge(4), 0);
    }
}
