//! The durable checkpoint store: crash-consistent persistence of the
//! daemon's carry-state cuts, plus the recovery manager that rebuilds
//! them after a process death.
//!
//! # On-disk layout
//!
//! A state directory holds:
//!
//! - **Segment files** `seg-<seq>.gsck`: one sealed
//!   ([`snapshot::seal`]) envelope per checkpoint containing the epoch
//!   to resume at, every query's replay cursor, and the full carry map
//!   (node key → that node's own sealed snapshot). `<seq>` is a
//!   zero-padded hex sequence number — monotone, so lexicographic file
//!   order is write order. Segments are immutable once named: they are
//!   written to `<name>.tmp`, fsynced, renamed into place, and the
//!   directory is fsynced — the classic crash-consistent publish.
//! - **The emission log** `emit.log`: an append-only sequence of
//!   `u32 BE length` + sealed records. A *markers* record commits "the
//!   output of epoch `e` for streams `s…` has been handed to
//!   subscribers"; a *shutdown* record commits a clean flush. Each
//!   record is individually checksummed, so a torn tail is detected and
//!   truncated (advisory, never fatal).
//!
//! Both are envelopes of the current [`snapshot::VERSION`]. A directory
//! written under another version is refused whole by the version byte —
//! segments skipped and removed, the log truncated at its first record,
//! each with a note — so recovery reports a fresh start rather than an
//! error, and never reads a cut it cannot verify.
//!
//! # Cadence, recovery and the exactly-once argument
//!
//! Not every epoch boundary is a *cut*. The [`Cadence`] rule seals and
//! publishes a segment only once the traffic since the last one
//! outweighs the state it would write; every boundary in between
//! commits just its markers record. So the two files answer different
//! questions, and may disagree by up to one cut interval: a segment's
//! cursors say where each query's *bytes* are, the marker log says what
//! was *emitted*.
//!
//! The write order at a cut is: (1) segment published
//! crash-consistently, (2) markers appended + fsynced, (3) marker
//! frames sent to subscribers; any other boundary does (2) and (3). A
//! crash between (1) and (2) leaves a segment whose boundary was never
//! confirmed to anyone, so each segment also records the streams that
//! completed its boundary (`pending`), and recovery refuses any segment
//! whose pending cursors run past the durable markers, falling back to
//! the previous cut (retention keeps at least two for exactly this
//! reason). Recovery scans the log (truncating any torn tail) and
//! restores the newest decodable, marker-consistent segment; each query
//! then resumes as [`Recovery::resume`] says: its state is rebuilt by
//! replaying `[cursor, next unmarked epoch)` from the restored bytes
//! with its output discarded — those epochs were confirmed already —
//! and emission resumes at the next unmarked epoch. Output is a
//! function of the input, never of where the cuts fell, so the silent
//! replay rebuilds exactly the state the dead process held; nothing is
//! emitted twice and nothing is skipped. The next unmarked epoch only
//! needs each stream's *newest* marker, which is why falling back to an
//! older cut costs replay time, never correctness. The one unprovable
//! interleaving — the log record reached the platter but the fsync
//! acknowledgment didn't reach the process — loses only that epoch's
//! *marker frame* on the already-dead connection; the injected crash
//! matrix models the conservative outcome (torn record → replay).
//!
//! # GC
//!
//! Retention keeps the last `retain` segments; older ones are pruned at
//! checkpoint boundaries, and the log is compacted (rewritten via the
//! same temp + rename publish) once it outgrows a threshold, dropping
//! markers below the newest segment's replay floor — every stream's
//! newest marker sits at or above it, so every retained cut still
//! resumes exactly. Between two cuts the log grows by one markers record
//! per boundary, so it stays under [`LOG_COMPACT_BYTES`] plus one cut
//! interval of records — and the cadence bounds an idle interval by the
//! state held at its cut.
//!
//! All IO goes through the injectable [`DiskIo`] layer so the fault
//! plans in [`faults`](crate::faults) can interrupt any step of the
//! protocol and the property tests can prove recovery lands on an
//! epoch boundary byte-for-byte.

use crate::faults::{
    crash_error, enospc_error, is_crash_error, DiskFaultKind, DiskFaultPlan, DiskOp,
};
use crate::snapshot::{self, SnapReader, SnapWriter};
use crate::stats::{Counter, StatSource};
use std::collections::HashMap;
use std::fs;
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, PoisonError};

/// Segment file prefix.
pub const SEG_PREFIX: &str = "seg-";
/// Segment file suffix.
pub const SEG_SUFFIX: &str = ".gsck";
/// Emission log file name.
pub const LOG_FILE: &str = "emit.log";
/// Largest segment file recovery will read (a corrupt length field must
/// not balloon into an allocation).
pub const MAX_SEGMENT_BYTES: u64 = 1 << 30;
/// Largest single carry entry inside a segment; checked against the
/// declared length *before* any allocation.
pub const MAX_ENTRY_BYTES: usize = 256 << 20;
/// Log size that triggers compaction at the next checkpoint boundary.
pub const LOG_COMPACT_BYTES: u64 = 1 << 20;

const REC_MARKERS: u8 = 1;
const REC_SHUTDOWN: u8 = 2;

/// Everything a durable-store operation can fail with.
#[derive(Debug)]
pub enum StoreError {
    /// An IO failure (including injected crashes and ENOSPC).
    Io(io::Error),
    /// Structurally invalid on-disk state that could not be skipped.
    Corrupt(String),
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "io: {e}"),
            StoreError::Corrupt(m) => write!(f, "corrupt state: {m}"),
        }
    }
}

impl std::error::Error for StoreError {}

impl From<io::Error> for StoreError {
    fn from(e: io::Error) -> StoreError {
        StoreError::Io(e)
    }
}

impl StoreError {
    /// Whether this failure is a simulated process death (the session
    /// drivers restart-and-recover on these, dead-letter the rest).
    pub fn is_crash(&self) -> bool {
        matches!(self, StoreError::Io(e) if is_crash_error(e))
    }
}

/// The injectable IO layer every durable-store write routes through.
/// Steps of the crash-consistent protocol carry their [`DiskOp`] tag so
/// a fault plan can target an exact interleaving point; maintenance
/// operations (recovery reads, GC, log truncation) are untagged but
/// still honor a latched crash.
pub trait DiskIo: Send + Sync {
    /// Create the state directory (and parents).
    fn create_dir_all(&self, p: &Path) -> io::Result<()>;
    /// Write `bytes` as the full contents of `p` (protocol step).
    fn write(&self, op: DiskOp, p: &Path, bytes: &[u8]) -> io::Result<()>;
    /// Fsync the file at `p` (protocol step).
    fn fsync_file(&self, op: DiskOp, p: &Path) -> io::Result<()>;
    /// Rename `from` to `to` (protocol step).
    fn rename(&self, op: DiskOp, from: &Path, to: &Path) -> io::Result<()>;
    /// Fsync the directory at `p` (protocol step).
    fn fsync_dir(&self, op: DiskOp, p: &Path) -> io::Result<()>;
    /// Append `bytes` to `p`, creating it if absent (protocol step).
    fn append(&self, op: DiskOp, p: &Path, bytes: &[u8]) -> io::Result<()>;
    /// Read the full contents of `p`.
    fn read(&self, p: &Path) -> io::Result<Vec<u8>>;
    /// File names (not paths) in directory `p`.
    fn list(&self, p: &Path) -> io::Result<Vec<String>>;
    /// Remove the file at `p`.
    fn remove(&self, p: &Path) -> io::Result<()>;
    /// Truncate `p` to `len` bytes.
    fn truncate(&self, p: &Path, len: u64) -> io::Result<()>;
    /// Atomically replace `p`'s contents (temp + fsync + rename +
    /// dir fsync), for log compaction.
    fn replace(&self, p: &Path, bytes: &[u8]) -> io::Result<()>;
    /// Mark the start of one checkpoint boundary (fault plans count
    /// these).
    fn begin_boundary(&self) {}
}

/// The real filesystem, std-only.
#[derive(Debug, Default, Clone, Copy)]
pub struct RealDisk;

fn fsync_path(p: &Path) -> io::Result<()> {
    fs::File::open(p)?.sync_all()
}

impl DiskIo for RealDisk {
    fn create_dir_all(&self, p: &Path) -> io::Result<()> {
        fs::create_dir_all(p)
    }
    fn write(&self, _op: DiskOp, p: &Path, bytes: &[u8]) -> io::Result<()> {
        fs::write(p, bytes)
    }
    fn fsync_file(&self, _op: DiskOp, p: &Path) -> io::Result<()> {
        fsync_path(p)
    }
    fn rename(&self, _op: DiskOp, from: &Path, to: &Path) -> io::Result<()> {
        fs::rename(from, to)
    }
    fn fsync_dir(&self, _op: DiskOp, p: &Path) -> io::Result<()> {
        // Directory fsync is how a rename becomes durable on POSIX; on
        // platforms where opening a directory fails, the rename is the
        // best available publish and the error is not fatal.
        match fsync_path(p) {
            Ok(()) => Ok(()),
            Err(e) if e.kind() == io::ErrorKind::PermissionDenied => Ok(()),
            Err(e) => Err(e),
        }
    }
    fn append(&self, _op: DiskOp, p: &Path, bytes: &[u8]) -> io::Result<()> {
        fs::OpenOptions::new().create(true).append(true).open(p)?.write_all(bytes)
    }
    fn read(&self, p: &Path) -> io::Result<Vec<u8>> {
        fs::read(p)
    }
    fn list(&self, p: &Path) -> io::Result<Vec<String>> {
        let mut names = Vec::new();
        for entry in fs::read_dir(p)? {
            names.push(entry?.file_name().to_string_lossy().into_owned());
        }
        Ok(names)
    }
    fn remove(&self, p: &Path) -> io::Result<()> {
        fs::remove_file(p)
    }
    fn truncate(&self, p: &Path, len: u64) -> io::Result<()> {
        fs::OpenOptions::new().write(true).open(p)?.set_len(len)
    }
    fn replace(&self, p: &Path, bytes: &[u8]) -> io::Result<()> {
        let tmp = p.with_extension("rewrite.tmp");
        fs::write(&tmp, bytes)?;
        fsync_path(&tmp)?;
        fs::rename(&tmp, p)?;
        if let Some(dir) = p.parent() {
            let _ = fsync_path(dir);
        }
        Ok(())
    }
}

/// Write `bytes` to `path` atomically: temp file in the same directory,
/// fsync, rename over the target, fsync the directory. A concurrent
/// reader sees either the old contents or the new — never a prefix.
/// (The `gsqd --port-file` satellite; also the log-compaction publish.)
pub fn atomic_write_file(path: impl AsRef<Path>, bytes: &[u8]) -> io::Result<()> {
    let path = path.as_ref();
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(&format!(".{}.tmp", std::process::id()));
    let tmp = PathBuf::from(tmp);
    fs::write(&tmp, bytes)?;
    fsync_path(&tmp)?;
    fs::rename(&tmp, path)?;
    if let Some(dir) = path.parent() {
        if !dir.as_os_str().is_empty() {
            let _ = fsync_path(dir);
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------
// FaultyDisk: the crash-simulating DiskIo for the property tests.
// ---------------------------------------------------------------------

struct FaultyState {
    /// 1-based checkpoint boundary counter.
    boundary: u64,
    /// Latched once a crash fault fires; every later op fails.
    crashed: bool,
    /// Remaining failures per Enospc spec (parallel to plan.specs).
    enospc_left: Vec<u32>,
    /// Last protocol-step write: `(path, bytes written)` — the rollback
    /// target for `CrashBefore(TempFsync)`.
    last_write: Option<(PathBuf, u64)>,
    /// Last protocol-step rename — the rollback target for
    /// `CrashBefore(DirFsync)`.
    last_rename: Option<(PathBuf, PathBuf)>,
    /// Last protocol-step append: `(path, length before, appended)` —
    /// the rollback target for `CrashBefore(LogFsync)`.
    last_append: Option<(PathBuf, u64, u64)>,
}

/// A [`DiskIo`] that executes a [`DiskFaultPlan`] over the real
/// filesystem. A *crash* fault latches the disk dead (every later call
/// fails with [`crash_error`]) and mutates the directory into a state
/// some real machine crash could have left: un-fsynced writes are torn
/// to half their bytes, un-fsynced renames are reverted, un-fsynced log
/// appends are cut mid-record. Recovery then runs over the directory
/// with a fresh [`RealDisk`], exactly as a restarted process would.
pub struct FaultyDisk {
    plan: DiskFaultPlan,
    real: RealDisk,
    state: Mutex<FaultyState>,
}

impl FaultyDisk {
    /// Arm `plan` over the real filesystem.
    pub fn new(plan: DiskFaultPlan) -> FaultyDisk {
        let enospc_left = plan
            .specs
            .iter()
            .map(|s| match s.kind {
                DiskFaultKind::Enospc { times } => times,
                _ => 0,
            })
            .collect();
        FaultyDisk {
            plan,
            real: RealDisk,
            state: Mutex::new(FaultyState {
                boundary: 0,
                crashed: false,
                enospc_left,
                last_write: None,
                last_rename: None,
                last_append: None,
            }),
        }
    }

    /// Whether a crash fault has latched.
    pub fn crashed(&self) -> bool {
        self.lock().crashed
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, FaultyState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The fault due at `(boundary, op)`, if any: crash kinds match
    /// their boundary exactly, ENOSPC matches from its boundary on
    /// while it has failures left.
    fn due(&self, st: &mut FaultyState, op: DiskOp) -> Option<DiskFaultKind> {
        for (i, spec) in self.plan.specs.iter().enumerate() {
            if spec.op != op {
                continue;
            }
            match spec.kind {
                DiskFaultKind::Enospc { .. } => {
                    if st.boundary >= spec.at_boundary && st.enospc_left[i] > 0 {
                        st.enospc_left[i] -= 1;
                        return Some(DiskFaultKind::Enospc { times: 0 });
                    }
                }
                ref kind if st.boundary == spec.at_boundary => return Some(kind.clone()),
                _ => {}
            }
        }
        None
    }

    /// Roll back the un-fsynced effects a crash at `op` would lose.
    fn lose_unsynced(&self, st: &mut FaultyState, op: DiskOp) {
        match op {
            DiskOp::TempFsync => {
                if let Some((path, len)) = st.last_write.take() {
                    let _ = self.real.truncate(&path, len / 2);
                }
            }
            DiskOp::DirFsync => {
                if let Some((from, to)) = st.last_rename.take() {
                    let _ = fs::rename(&to, &from);
                }
            }
            DiskOp::LogFsync => {
                if let Some((path, old_len, appended)) = st.last_append.take() {
                    let _ = self.real.truncate(&path, old_len + appended / 2);
                }
            }
            _ => {}
        }
    }
}

/// Shared fault gate: fail fast once crashed, surface ENOSPC, execute
/// a crash-before (rollback + latch). `CrashAfter`/`ShortWrite` pass
/// through to the caller's arm, which must run the real operation
/// first.
macro_rules! faulty_gate {
    ($self:ident, $st:ident, $op:expr) => {{
        if $st.crashed {
            return Err(crash_error());
        }
        match $self.due(&mut $st, $op) {
            Some(DiskFaultKind::Enospc { .. }) => return Err(enospc_error()),
            Some(DiskFaultKind::CrashBefore(_)) => {
                $self.lose_unsynced(&mut $st, $op);
                $st.crashed = true;
                return Err(crash_error());
            }
            other => other,
        }
    }};
}

impl DiskIo for FaultyDisk {
    fn create_dir_all(&self, p: &Path) -> io::Result<()> {
        if self.lock().crashed {
            return Err(crash_error());
        }
        self.real.create_dir_all(p)
    }

    fn write(&self, op: DiskOp, p: &Path, bytes: &[u8]) -> io::Result<()> {
        let mut st = self.lock();
        let due = { faulty_gate!(self, st, op) };
        match due {
            Some(DiskFaultKind::ShortWrite { keep }) => {
                let _ = self.real.write(op, p, &bytes[..keep.min(bytes.len())]);
                st.crashed = true;
                Err(crash_error())
            }
            Some(DiskFaultKind::CrashAfter(_)) => {
                self.real.write(op, p, bytes)?;
                st.crashed = true;
                Err(crash_error())
            }
            _ => {
                self.real.write(op, p, bytes)?;
                st.last_write = Some((p.to_path_buf(), bytes.len() as u64));
                Ok(())
            }
        }
    }

    fn fsync_file(&self, op: DiskOp, p: &Path) -> io::Result<()> {
        let mut st = self.lock();
        let due = { faulty_gate!(self, st, op) };
        match due {
            Some(DiskFaultKind::CrashAfter(_)) => {
                self.real.fsync_file(op, p)?;
                st.crashed = true;
                Err(crash_error())
            }
            _ => {
                self.real.fsync_file(op, p)?;
                // The sync made the pending write/append durable.
                match op {
                    DiskOp::TempFsync => st.last_write = None,
                    DiskOp::LogFsync => st.last_append = None,
                    _ => {}
                }
                Ok(())
            }
        }
    }

    fn rename(&self, op: DiskOp, from: &Path, to: &Path) -> io::Result<()> {
        let mut st = self.lock();
        let due = { faulty_gate!(self, st, op) };
        match due {
            Some(DiskFaultKind::CrashAfter(_)) => {
                self.real.rename(op, from, to)?;
                st.crashed = true;
                Err(crash_error())
            }
            _ => {
                self.real.rename(op, from, to)?;
                st.last_rename = Some((from.to_path_buf(), to.to_path_buf()));
                Ok(())
            }
        }
    }

    fn fsync_dir(&self, op: DiskOp, p: &Path) -> io::Result<()> {
        let mut st = self.lock();
        let due = { faulty_gate!(self, st, op) };
        match due {
            Some(DiskFaultKind::CrashAfter(_)) => {
                self.real.fsync_dir(op, p)?;
                st.crashed = true;
                Err(crash_error())
            }
            _ => {
                self.real.fsync_dir(op, p)?;
                st.last_rename = None;
                Ok(())
            }
        }
    }

    fn append(&self, op: DiskOp, p: &Path, bytes: &[u8]) -> io::Result<()> {
        let mut st = self.lock();
        let due = { faulty_gate!(self, st, op) };
        let old_len = fs::metadata(p).map(|m| m.len()).unwrap_or(0);
        match due {
            Some(DiskFaultKind::ShortWrite { keep }) => {
                let _ = self.real.append(op, p, &bytes[..keep.min(bytes.len())]);
                st.crashed = true;
                Err(crash_error())
            }
            Some(DiskFaultKind::CrashAfter(_)) => {
                self.real.append(op, p, bytes)?;
                st.crashed = true;
                Err(crash_error())
            }
            _ => {
                self.real.append(op, p, bytes)?;
                st.last_append = Some((p.to_path_buf(), old_len, bytes.len() as u64));
                Ok(())
            }
        }
    }

    fn read(&self, p: &Path) -> io::Result<Vec<u8>> {
        if self.lock().crashed {
            return Err(crash_error());
        }
        self.real.read(p)
    }
    fn list(&self, p: &Path) -> io::Result<Vec<String>> {
        if self.lock().crashed {
            return Err(crash_error());
        }
        self.real.list(p)
    }
    fn remove(&self, p: &Path) -> io::Result<()> {
        if self.lock().crashed {
            return Err(crash_error());
        }
        self.real.remove(p)
    }
    fn truncate(&self, p: &Path, len: u64) -> io::Result<()> {
        if self.lock().crashed {
            return Err(crash_error());
        }
        self.real.truncate(p, len)
    }
    fn replace(&self, p: &Path, bytes: &[u8]) -> io::Result<()> {
        if self.lock().crashed {
            return Err(crash_error());
        }
        self.real.replace(p, bytes)
    }
    fn begin_boundary(&self) {
        self.lock().boundary += 1;
    }
}

// ---------------------------------------------------------------------
// Stats
// ---------------------------------------------------------------------

/// Durable-store accounting, registered as GS_STATS node `durable`.
#[derive(Debug, Default)]
pub struct DurableStats {
    /// Segments published crash-consistently.
    pub segments_written: Counter,
    /// Bytes that went through an fsync (segments + log records).
    pub bytes_fsynced: Counter,
    /// Startups that rebuilt state from a non-empty directory.
    pub recoveries: Counter,
    /// Torn/partial tails truncated or unreadable segments skipped
    /// during recovery.
    pub torn_truncated: Counter,
    /// Segments pruned and log records dropped by retention/GC.
    pub gc_pruned: Counter,
    /// Checkpoint writes dead-lettered after retries (e.g. ENOSPC).
    pub write_failed: Counter,
}

impl StatSource for DurableStats {
    fn counters(&self) -> Vec<(&'static str, u64)> {
        vec![
            ("segments_written", self.segments_written.get()),
            ("bytes_fsynced", self.bytes_fsynced.get()),
            ("recoveries", self.recoveries.get()),
            ("torn_truncated", self.torn_truncated.get()),
            ("gc_pruned", self.gc_pruned.get()),
            ("write_failed", self.write_failed.get()),
        ]
    }
}

// ---------------------------------------------------------------------
// Store
// ---------------------------------------------------------------------

/// The cut rule: when an epoch boundary seals and publishes a cut.
///
/// A boundary is a cut once `packets + epochs` since the last cut reach
/// `max(1, state items held at that cut)` — group-table entries,
/// buffered merge/join rows, occupied LFTA slots. The rule is fixed and
/// knob-free, and it depends only on what the input did: the same trace
/// cuts at the same boundaries in every run. It bounds what a cut
/// lagging the emission can cost: replaying from the last cut touches
/// fewer packets (plus idle epochs) than the cut holds items, so replay
/// after a crash or a fault is O(state); every cut is paid for by at
/// least one packet per item it writes; and an idle daemon still cuts
/// once per `held` epochs, which bounds the marker log between cuts.
#[derive(Debug, Default, Clone)]
pub struct Cadence {
    /// Packets consumed and boundaries passed since the last cut.
    packets: u64,
    epochs: u64,
    /// State items the last cut held.
    held: u64,
}

impl Cadence {
    /// Count one boundary that consumed `packets`, and say whether it is
    /// a cut. A boundary that should have cut but could not (its run
    /// failed) leaves the debt standing, so the next one cuts.
    pub fn boundary(&mut self, packets: u64) -> bool {
        self.packets += packets;
        self.epochs += 1;
        self.packets + self.epochs >= self.held.max(1)
    }

    /// A cut holding `held` state items was sealed: the debt starts over.
    pub fn sealed(&mut self, held: u64) {
        *self = Cadence { held, ..Cadence::default() };
    }
}

/// Where one query stands between cuts (see [`Recovery::resume`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Cursor {
    /// The epoch its bytes in the cut stand at: they hold its state
    /// after every epoch below `cut`.
    pub cut: u64,
    /// Its next unmarked epoch: its output for every epoch below `next`
    /// was emitted. `cut <= next`; rebuilding its state from the bytes
    /// replays `[cut, next)` with the output discarded, and emission
    /// resumes at `next`.
    pub next: u64,
}

/// What recovery rebuilt from the state directory.
#[derive(Debug, Default)]
pub struct Recovery {
    /// Epoch the engine should resume at: past the restored cut and
    /// every durable marker. A query can trail it (see
    /// [`Recovery::resume`]); none is ahead of it.
    pub next_epoch: u64,
    /// The restored carry map (node key → sealed snapshot).
    pub carry: HashMap<String, Vec<u8>>,
    /// Restored cut cursors (query → the epoch its bytes in `carry`
    /// stand at).
    pub cursors: HashMap<String, u64>,
    /// Durably committed `(stream, epoch)` markers since the last clean
    /// shutdown (the exactly-once ledger).
    pub markers: Vec<(String, u64)>,
    /// True when the directory ended with a clean-shutdown record (the
    /// engine starts fresh but keeps epoch numbering).
    pub clean_shutdown: bool,
    /// True when anything durable was found at all.
    pub recovered: bool,
    /// Advisory notes (torn tails truncated, segments skipped,
    /// regressions) — the `RunHealth::notes` style report.
    pub notes: Vec<String>,
}

impl Recovery {
    /// Where `query` resumes: from its cut cursor, replaying silently up
    /// to the epoch after its newest durable marker. A cut written at
    /// every boundary (every cut a build without the cadence wrote) has
    /// `cut == next`. A query the restored cut does not know resumes
    /// fresh at [`next_epoch`](Self::next_epoch).
    pub fn resume(&self, query: &str) -> Cursor {
        let Some(&cut) = self.cursors.get(query) else {
            return Cursor { cut: self.next_epoch, next: self.next_epoch };
        };
        let marked = self
            .markers
            .iter()
            .filter(|(s, _)| s == query)
            .map(|(_, e)| e + 1)
            .max()
            .unwrap_or(0);
        Cursor { cut, next: cut.max(marked) }
    }
}

#[derive(Debug, Clone)]
struct SegMeta {
    seq: u64,
    /// The segment's replay floor: no stream it covers has its newest
    /// marker below `floor - 1`, so markers under that are compactable
    /// once this is the newest segment.
    floor: u64,
}

/// The durable checkpoint store. One instance owns a state directory;
/// the engine calls [`checkpoint`](DurableStore::checkpoint) at every
/// cut, [`log_markers`](DurableStore::log_markers) at every epoch
/// boundary (after the checkpoint, at a cut), and
/// [`log_shutdown`](DurableStore::log_shutdown) after a clean flush.
pub struct DurableStore {
    dir: PathBuf,
    io: Arc<dyn DiskIo>,
    retain: usize,
    stats: Arc<DurableStats>,
    /// Bounded retries for transient checkpoint failures (ENOSPC).
    write_retries: u32,
    next_seq: u64,
    segments: Vec<SegMeta>,
    log_len: u64,
    /// In-memory copy of live marker records, for compaction.
    records: Vec<(u64, Vec<String>)>,
    /// A checkpoint opened the current boundary; its markers record
    /// closes it rather than opening another.
    mid_boundary: bool,
}

fn seg_name(seq: u64) -> String {
    format!("{SEG_PREFIX}{seq:016x}{SEG_SUFFIX}")
}

fn parse_seg_name(name: &str) -> Option<u64> {
    let hex = name.strip_prefix(SEG_PREFIX)?.strip_suffix(SEG_SUFFIX)?;
    u64::from_str_radix(hex, 16).ok()
}

/// Decoded segment payload.
#[derive(Debug)]
struct Segment {
    seq: u64,
    next_epoch: u64,
    cursors: HashMap<String, u64>,
    /// Streams that completed the boundary this segment was written at.
    /// Their marker records (`(s, cursors[s] - 1)`) are appended right
    /// after the segment publishes; recovery uses this list to tell a
    /// fully-committed boundary from one that crashed between the two
    /// durable steps.
    pending: Vec<String>,
    carry: HashMap<String, Vec<u8>>,
}

fn encode_segment(
    seq: u64,
    next_epoch: u64,
    carry: &HashMap<String, Vec<u8>>,
    cursors: &HashMap<String, u64>,
    pending: &[String],
) -> Vec<u8> {
    let mut w = SnapWriter::new();
    w.put_u64(seq);
    w.put_u64(next_epoch);
    let mut cur: Vec<(&String, &u64)> = cursors.iter().collect();
    cur.sort();
    w.put_u32(cur.len() as u32);
    for (q, e) in cur {
        w.put_str(q);
        w.put_u64(*e);
    }
    let mut pend: Vec<&String> = pending.iter().collect();
    pend.sort();
    w.put_u32(pend.len() as u32);
    for s in pend {
        w.put_str(s);
    }
    let mut entries: Vec<(&String, &Vec<u8>)> = carry.iter().collect();
    entries.sort();
    w.put_u32(entries.len() as u32);
    for (k, v) in entries {
        w.put_str(k);
        w.put_bytes(v);
    }
    w.seal()
}

fn decode_segment(sealed: &[u8]) -> Result<Segment, snapshot::SnapError> {
    let mut r = SnapReader::open(sealed)?;
    let seq = r.get_u64()?;
    let next_epoch = r.get_u64()?;
    let n = r.get_count(9)?; // str len prefix (4) + at least 1 byte name... u64 follows
    let mut cursors = HashMap::with_capacity(n);
    for _ in 0..n {
        let q = r.get_str()?;
        cursors.insert(q, r.get_u64()?);
    }
    let n = r.get_count(4)?;
    let mut pending = Vec::with_capacity(n);
    for _ in 0..n {
        pending.push(r.get_str()?);
    }
    let n = r.get_count(8)?;
    let mut carry = HashMap::with_capacity(n);
    for _ in 0..n {
        let k = r.get_str()?;
        // Entry size cap: a corrupt length that slipped past the
        // checksum (or a future oversized cut) is refused before any
        // allocation, not after.
        let declared = r.peek_u32().ok_or(snapshot::SnapError::Truncated)? as usize;
        if declared > MAX_ENTRY_BYTES {
            return Err(snapshot::proto(format!(
                "carry entry `{k}` declares {declared} bytes (cap {MAX_ENTRY_BYTES})"
            )));
        }
        carry.insert(k, r.get_bytes()?);
    }
    r.finish()?;
    Ok(Segment { seq, next_epoch, cursors, pending, carry })
}

fn encode_markers(epoch: u64, streams: &[String]) -> Vec<u8> {
    let mut w = SnapWriter::new();
    w.put_u8(REC_MARKERS);
    w.put_u64(epoch);
    let mut sorted: Vec<&String> = streams.iter().collect();
    sorted.sort();
    w.put_u32(sorted.len() as u32);
    for s in sorted {
        w.put_str(s);
    }
    w.seal()
}

fn encode_shutdown(next_epoch: u64, barrier_seq: u64) -> Vec<u8> {
    let mut w = SnapWriter::new();
    w.put_u8(REC_SHUTDOWN);
    w.put_u64(next_epoch);
    w.put_u64(barrier_seq);
    w.seal()
}

fn frame_record(sealed: Vec<u8>) -> Vec<u8> {
    let mut rec = Vec::with_capacity(4 + sealed.len());
    rec.extend_from_slice(&(sealed.len() as u32).to_be_bytes());
    rec.extend_from_slice(&sealed);
    rec
}

impl DurableStore {
    /// Open (or create) the store at `dir` and run recovery: scan the
    /// directory, truncate any torn log tail, restore the newest
    /// decodable segment consistent with the durable markers, and
    /// report what the engine should resume with.
    pub fn open(
        dir: impl Into<PathBuf>,
        io: Arc<dyn DiskIo>,
        retain: usize,
        stats: Arc<DurableStats>,
    ) -> Result<(DurableStore, Recovery), StoreError> {
        let dir = dir.into();
        io.create_dir_all(&dir)?;
        let mut store = DurableStore {
            dir,
            io,
            // At least two cuts: when a crash lands between a segment
            // publish and its marker commit, recovery falls back to the
            // previous cut — which must still be on disk.
            retain: retain.max(2),
            stats,
            write_retries: 2,
            next_seq: 0,
            segments: Vec::new(),
            log_len: 0,
            records: Vec::new(),
            mid_boundary: false,
        };
        let recovery = store.recover()?;
        Ok((store, recovery))
    }

    fn seg_path(&self, seq: u64) -> PathBuf {
        self.dir.join(seg_name(seq))
    }

    fn log_path(&self) -> PathBuf {
        self.dir.join(LOG_FILE)
    }

    fn recover(&mut self) -> Result<Recovery, StoreError> {
        let mut rec = Recovery::default();
        let names = self.io.list(&self.dir)?;
        let mut seg_seqs: Vec<u64> = Vec::new();
        let mut saw_log = false;
        for name in &names {
            if let Some(seq) = parse_seg_name(name) {
                seg_seqs.push(seq);
            } else if name == LOG_FILE {
                saw_log = true;
            } else if name.ends_with(".tmp") {
                // Uncommitted temp from an interrupted publish: garbage
                // by construction (never renamed), silently removable.
                let _ = self.io.remove(&self.dir.join(name));
            }
        }
        seg_seqs.sort_unstable();
        self.next_seq = seg_seqs.last().map_or(0, |s| s + 1);
        rec.recovered = saw_log || !seg_seqs.is_empty();

        // --- Replay the emission log, truncating any torn tail. ------
        let mut barrier_seq: Option<u64> = None;
        let mut shutdown_next: Option<u64> = None;
        if saw_log {
            let bytes = self.io.read(&self.log_path())?;
            let mut at = 0usize;
            loop {
                if at == bytes.len() {
                    break;
                }
                let parsed = (|| -> Result<Vec<u8>, snapshot::SnapError> {
                    let torn = snapshot::SnapError::Truncated;
                    let len = bytes.get(at..at + 4).ok_or(torn.clone())?;
                    let len = u32::from_be_bytes(len.try_into().expect("a 4-byte slice")) as usize;
                    let sealed = bytes.get(at + 4..at + 4 + len).ok_or(torn)?;
                    snapshot::open(sealed)?;
                    Ok(sealed.to_vec())
                })();
                let sealed = match parsed {
                    Ok(sealed) => sealed,
                    Err(e) => {
                        // Torn tail — or a log written under another
                        // snapshot format version, which reads as torn
                        // from its first record: truncate at the last
                        // whole record this build can verify.
                        self.io.truncate(&self.log_path(), at as u64)?;
                        self.stats.torn_truncated.inc();
                        let what = match e {
                            snapshot::SnapError::Version(v) => format!(
                                "record of snapshot format v{v} (this build reads v{}); log",
                                snapshot::VERSION
                            ),
                            _ => "torn tail".to_string(),
                        };
                        rec.notes.push(format!(
                            "emission log: {what} truncated at byte {at} (of {})",
                            bytes.len()
                        ));
                        break;
                    }
                };
                let ok = (|| -> Option<()> {
                    let mut r = SnapReader::open(&sealed).ok()?;
                    match r.get_u8().ok()? {
                        REC_MARKERS => {
                            let epoch = r.get_u64().ok()?;
                            let n = r.get_count(4).ok()?;
                            let mut streams = Vec::with_capacity(n);
                            for _ in 0..n {
                                streams.push(r.get_str().ok()?);
                            }
                            r.finish().ok()?;
                            for s in &streams {
                                rec.markers.push((s.clone(), epoch));
                            }
                            self.records.push((epoch, streams));
                        }
                        REC_SHUTDOWN => {
                            let next = r.get_u64().ok()?;
                            let barrier = r.get_u64().ok()?;
                            r.finish().ok()?;
                            shutdown_next = Some(next);
                            barrier_seq = Some(barrier);
                            // Earlier markers belong to the finished
                            // incarnation; coverage starts over.
                            rec.markers.clear();
                            self.records.clear();
                        }
                        _ => return None,
                    }
                    Some(())
                })();
                if ok.is_none() {
                    self.io.truncate(&self.log_path(), at as u64)?;
                    self.stats.torn_truncated.inc();
                    rec.notes.push(format!(
                        "emission log: malformed record truncated at byte {at}"
                    ));
                    break;
                }
                at += 4 + sealed.len();
            }
            self.log_len = std::cmp::min(at as u64, bytes.len() as u64);
        }

        // --- Prune segments retired by a clean shutdown. -------------
        if let Some(barrier) = barrier_seq {
            for &seq in seg_seqs.iter().filter(|&&s| s <= barrier) {
                let _ = self.io.remove(&self.seg_path(seq));
                self.stats.gc_pruned.inc();
            }
            seg_seqs.retain(|&s| s > barrier);
        }

        // --- Restore the newest decodable, marker-covered segment. ----
        //
        // A boundary commits in two durable steps: the segment (cursor
        // e+1) first, then the markers for epoch e. A crash between the
        // two leaves a segment whose `pending` streams run AHEAD of the
        // durable markers — resuming from it would skip an epoch no
        // client ever confirmed (the marker frame is only sent after
        // both steps). Such a segment is not corrupt, just premature:
        // skip it and fall back to the previous cut, which re-runs the
        // unconfirmed epoch. Retention keeping >= 2 cuts guarantees the
        // fallback exists.
        let mut next_unmarked: HashMap<&str, u64> = HashMap::new();
        for (s, e) in &rec.markers {
            let slot = next_unmarked.entry(s.as_str()).or_insert(0);
            *slot = (*slot).max(e + 1);
        }
        let mut restored: Option<Segment> = None;
        for &seq in seg_seqs.iter().rev() {
            let path = self.seg_path(seq);
            let result = self.io.read(&path).map_err(StoreError::Io).and_then(|bytes| {
                if bytes.len() as u64 > MAX_SEGMENT_BYTES {
                    return Err(StoreError::Corrupt(format!(
                        "segment {seq:#x} is {} bytes (cap {MAX_SEGMENT_BYTES})",
                        bytes.len()
                    )));
                }
                decode_segment(&bytes)
                    .map_err(|e| StoreError::Corrupt(e.to_string()))
                    .and_then(|seg| {
                        if seg.seq != seq {
                            Err(StoreError::Corrupt(format!(
                                "segment file {seq:#x} claims seq {:#x}",
                                seg.seq
                            )))
                        } else {
                            Ok(seg)
                        }
                    })
            });
            match result {
                Ok(seg) => {
                    self.segments.insert(0, SegMeta { seq, floor: 0 });
                    if restored.is_some() {
                        continue;
                    }
                    let ahead = seg.pending.iter().any(|s| {
                        let c = seg.cursors.get(s).copied().unwrap_or(seg.next_epoch);
                        c > next_unmarked.get(s.as_str()).copied().unwrap_or(0)
                    });
                    if ahead {
                        rec.notes.push(format!(
                            "segment {} runs ahead of the durable emission \
                             markers; falling back to the previous cut",
                            seg_name(seq)
                        ));
                        continue;
                    }
                    restored = Some(seg);
                }
                Err(StoreError::Io(e)) if is_crash_error(&e) => {
                    return Err(StoreError::Io(e));
                }
                Err(e) => {
                    // Torn/corrupt segment: skip it, fall back to the
                    // next older cut, and drop the damaged file.
                    self.stats.torn_truncated.inc();
                    rec.notes.push(format!(
                        "segment {}: {e}; falling back to an older cut",
                        seg_name(seq)
                    ));
                    let _ = self.io.remove(&path);
                }
            }
        }
        // Fix floors now the restored segment is known: a segment's
        // floor is its own lowest cursor; without decode we keep 0
        // (maximally conservative for compaction).
        if let Some(seg) = &restored {
            if let Some(meta) = self.segments.iter_mut().find(|m| m.seq == seg.seq) {
                meta.floor =
                    seg.cursors.values().copied().min().unwrap_or(seg.next_epoch);
            }
        }

        match restored {
            Some(seg) => {
                // Markers past the cut are the emission the cut lags:
                // `resume` replays them silently, so none is a
                // regression, and the engine resumes past all of them.
                let marked = next_unmarked.values().copied().max().unwrap_or(0);
                rec.next_epoch = seg.next_epoch.max(marked);
                rec.cursors = seg.cursors;
                rec.carry = seg.carry;
            }
            None => {
                if let Some(next) = shutdown_next {
                    rec.next_epoch = next;
                    rec.clean_shutdown = true;
                } else if !rec.markers.is_empty() {
                    rec.notes.push(format!(
                        "recovery regressed behind {} durable marker(s): no segment decodes; \
                         restarting from empty state (duplicate emission possible)",
                        rec.markers.len()
                    ));
                }
            }
        }

        if rec.recovered {
            self.stats.recoveries.inc();
        }
        Ok(rec)
    }

    /// Publish one cut crash-consistently: the full carry map and every
    /// query's cut cursor, resumable at `next_epoch`. `pending` names
    /// the streams that completed this boundary — the caller commits
    /// their markers (via [`DurableStore::log_markers`]) right after
    /// this returns, and recovery refuses to resume from a cut whose
    /// pending markers never landed. Retries transient failures a
    /// bounded number of times; a final failure is counted in
    /// `write_failed` and returned for the caller to dead-letter (the
    /// engine keeps running on its in-memory cut).
    pub fn checkpoint(
        &mut self,
        next_epoch: u64,
        carry: &HashMap<String, Vec<u8>>,
        cursors: &HashMap<String, u64>,
        pending: &[String],
    ) -> Result<(), StoreError> {
        self.io.begin_boundary();
        self.mid_boundary = true;
        let seq = self.next_seq;
        let sealed = encode_segment(seq, next_epoch, carry, cursors, pending);
        let tmp = self.dir.join(format!("{}.tmp", seg_name(seq)));
        let path = self.seg_path(seq);
        let mut attempt = 0;
        loop {
            let result = (|| -> io::Result<()> {
                self.io.write(DiskOp::TempWrite, &tmp, &sealed)?;
                self.io.fsync_file(DiskOp::TempFsync, &tmp)?;
                self.io.rename(DiskOp::Rename, &tmp, &path)?;
                self.io.fsync_dir(DiskOp::DirFsync, &self.dir)
            })();
            match result {
                Ok(()) => break,
                Err(e) if !is_crash_error(&e) && attempt < self.write_retries => {
                    attempt += 1;
                }
                Err(e) => {
                    self.stats.write_failed.inc();
                    return Err(StoreError::Io(e));
                }
            }
        }
        self.next_seq = seq + 1;
        // A pending stream's newest marker is still the one before this
        // boundary's (appended next): its floor is one lower.
        let floor = cursors
            .iter()
            .map(|(q, &c)| c.saturating_sub(u64::from(pending.contains(q))))
            .min()
            .unwrap_or(next_epoch);
        self.segments.push(SegMeta { seq, floor });
        self.stats.segments_written.inc();
        self.stats.bytes_fsynced.add(sealed.len() as u64);
        self.gc();
        Ok(())
    }

    /// Commit epoch `epoch`'s emission for `streams`: append one
    /// markers record and fsync the log. The caller sends the marker
    /// frames only after this returns — the commit point of the
    /// exactly-once protocol. Right after a
    /// [`checkpoint`](DurableStore::checkpoint) this completes the cut's
    /// boundary; otherwise it is a boundary of its own.
    pub fn log_markers(&mut self, epoch: u64, streams: &[String]) -> Result<(), StoreError> {
        let completes_cut = std::mem::take(&mut self.mid_boundary);
        if streams.is_empty() {
            return Ok(());
        }
        if !completes_cut {
            self.io.begin_boundary();
        }
        let rec = frame_record(encode_markers(epoch, streams));
        self.io.append(DiskOp::LogAppend, &self.log_path(), &rec)?;
        self.io.fsync_file(DiskOp::LogFsync, &self.log_path())?;
        self.log_len += rec.len() as u64;
        self.stats.bytes_fsynced.add(rec.len() as u64);
        self.records.push((epoch, streams.to_vec()));
        Ok(())
    }

    /// Commit a clean shutdown: the flush emitted every held tail, so a
    /// later restart starts from empty state at `next_epoch` and every
    /// current segment is retired.
    pub fn log_shutdown(&mut self, next_epoch: u64) -> Result<(), StoreError> {
        let barrier = self.next_seq.saturating_sub(1);
        let rec = frame_record(encode_shutdown(next_epoch, barrier));
        self.io.append(DiskOp::LogAppend, &self.log_path(), &rec)?;
        self.io.fsync_file(DiskOp::LogFsync, &self.log_path())?;
        self.log_len += rec.len() as u64;
        self.stats.bytes_fsynced.add(rec.len() as u64);
        Ok(())
    }

    /// Retention + log compaction, run after every successful
    /// checkpoint. Best-effort: a GC failure never fails the boundary.
    fn gc(&mut self) {
        while self.segments.len() > self.retain {
            let m = self.segments.remove(0);
            if self.io.remove(&self.seg_path(m.seq)).is_ok() {
                self.stats.gc_pruned.inc();
            }
        }
        if self.log_len > LOG_COMPACT_BYTES {
            // Recovery consults only each stream's newest marker (for the
            // "ahead of the markers" check and the resume point), and
            // every stream the newest segment covers has its newest
            // marker at or above that segment's floor − 1 — so older
            // cuts, if recovery has to fall back to them, resume from
            // those same markers.
            let floor = self.segments.last().map_or(0, |m| m.floor).saturating_sub(1);
            let before = self.records.len();
            self.records.retain(|(e, _)| *e >= floor);
            let mut bytes = Vec::new();
            for (epoch, streams) in &self.records {
                bytes.extend_from_slice(&frame_record(encode_markers(*epoch, streams)));
            }
            if self.io.replace(&self.log_path(), &bytes).is_ok() {
                self.stats.gc_pruned.add((before - self.records.len()) as u64);
                self.log_len = bytes.len() as u64;
            }
        }
    }

    /// The store's stats block (the same instance the daemon registers
    /// as the `durable` node).
    pub fn stats(&self) -> Arc<DurableStats> {
        self.stats.clone()
    }

    /// Live segment count (tests).
    pub fn segment_count(&self) -> usize {
        self.segments.len()
    }

    /// Current emission-log length in bytes (tests).
    pub fn log_len(&self) -> u64 {
        self.log_len
    }

    /// The state directory this store owns.
    pub fn dir(&self) -> &Path {
        &self.dir
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    static DIR_ID: AtomicU64 = AtomicU64::new(0);

    fn scratch_dir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!(
            "gs_durable_{tag}_{}_{}",
            std::process::id(),
            DIR_ID.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = fs::remove_dir_all(&d);
        d
    }

    fn open_real(dir: &Path) -> (DurableStore, Recovery) {
        DurableStore::open(dir, Arc::new(RealDisk), 3, Arc::new(DurableStats::default()))
            .expect("open")
    }

    fn sample_carry(n: usize) -> HashMap<String, Vec<u8>> {
        (0..n)
            .map(|i| {
                let mut w = SnapWriter::new();
                w.put_u64(i as u64);
                w.put_str("state");
                (format!("hfta:q{i}"), w.seal())
            })
            .collect()
    }

    #[test]
    fn checkpoint_then_recover_round_trips_state() {
        let dir = scratch_dir("roundtrip");
        let carry = sample_carry(3);
        let cursors: HashMap<String, u64> =
            (0..3).map(|i| (format!("q{i}"), 7u64)).collect();
        {
            let (mut store, rec) = open_real(&dir);
            assert!(!rec.recovered, "fresh dir recovers nothing");
            store
                .checkpoint(7, &carry, &cursors, &["q0".to_string(), "q1".to_string()])
                .expect("checkpoint");
            store
                .log_markers(6, &["q0".to_string(), "q1".to_string()])
                .expect("markers");
        }
        let (_store, rec) = open_real(&dir);
        assert!(rec.recovered);
        assert_eq!(rec.next_epoch, 7);
        assert_eq!(rec.carry, carry, "carry map is byte-identical");
        assert_eq!(rec.cursors, cursors);
        assert_eq!(
            rec.markers,
            vec![("q0".to_string(), 6), ("q1".to_string(), 6)]
        );
        assert!(rec.notes.is_empty(), "clean state recovers without notes");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn retention_keeps_last_k_segments() {
        let dir = scratch_dir("gc");
        let stats = Arc::new(DurableStats::default());
        let (mut store, _) =
            DurableStore::open(&dir, Arc::new(RealDisk), 2, stats.clone()).expect("open");
        let carry = sample_carry(1);
        for e in 0..5u64 {
            store.checkpoint(e + 1, &carry, &HashMap::new(), &[]).expect("checkpoint");
        }
        assert_eq!(store.segment_count(), 2);
        assert_eq!(stats.gc_pruned.get(), 3);
        let live: Vec<String> = RealDisk
            .list(&dir)
            .unwrap()
            .into_iter()
            .filter(|n| n.ends_with(SEG_SUFFIX))
            .collect();
        assert_eq!(live.len(), 2, "only the retained segments remain on disk");
        // Recovery restores the newest.
        let (_s, rec) = open_real(&dir);
        assert_eq!(rec.next_epoch, 5);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_log_tail_is_truncated_not_fatal() {
        let dir = scratch_dir("torntail");
        {
            let (mut store, _) = open_real(&dir);
            store.checkpoint(3, &sample_carry(1), &HashMap::new(), &[]).unwrap();
            store.log_markers(2, &["q0".to_string()]).unwrap();
        }
        // Tear the tail: append garbage that looks like a record start.
        let log = dir.join(LOG_FILE);
        let mut bytes = fs::read(&log).unwrap();
        let whole = bytes.len();
        bytes.extend_from_slice(&[0, 0, 0, 40, b'G', b'S']);
        fs::write(&log, &bytes).unwrap();
        let stats = Arc::new(DurableStats::default());
        let (_s, rec) =
            DurableStore::open(&dir, Arc::new(RealDisk), 3, stats.clone()).expect("open");
        assert_eq!(rec.markers, vec![("q0".to_string(), 2)], "whole records survive");
        assert_eq!(stats.torn_truncated.get(), 1);
        assert!(rec.notes.iter().any(|n| n.contains("torn tail")));
        assert_eq!(fs::read(&log).unwrap().len(), whole, "tail physically truncated");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_newest_segment_falls_back_to_older_cut() {
        let dir = scratch_dir("fallback");
        let old_carry = sample_carry(2);
        {
            let (mut store, _) = open_real(&dir);
            store.checkpoint(4, &old_carry, &HashMap::new(), &[]).unwrap();
            store.checkpoint(5, &sample_carry(3), &HashMap::new(), &[]).unwrap();
        }
        // Flip a byte mid-payload of the newest segment.
        let newest = dir.join(seg_name(1));
        let mut bytes = fs::read(&newest).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xff;
        fs::write(&newest, &bytes).unwrap();
        let stats = Arc::new(DurableStats::default());
        let (_s, rec) =
            DurableStore::open(&dir, Arc::new(RealDisk), 3, stats.clone()).expect("open");
        assert_eq!(rec.next_epoch, 4, "recovery fell back to the older boundary");
        assert_eq!(rec.carry, old_carry);
        assert_eq!(stats.torn_truncated.get(), 1);
        assert!(rec.notes.iter().any(|n| n.contains("falling back")));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn clean_shutdown_restarts_fresh_with_epoch_numbering() {
        let dir = scratch_dir("clean");
        {
            let (mut store, _) = open_real(&dir);
            store.checkpoint(9, &sample_carry(2), &HashMap::new(), &[]).unwrap();
            store.log_markers(8, &["q0".to_string()]).unwrap();
            store.log_shutdown(10).unwrap();
        }
        let (_s, rec) = open_real(&dir);
        assert!(rec.clean_shutdown);
        assert_eq!(rec.next_epoch, 10);
        assert!(rec.carry.is_empty(), "flushed state is not restored");
        assert!(rec.markers.is_empty(), "pre-shutdown markers are retired");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn log_compaction_drops_markers_below_the_replay_floor() {
        let dir = scratch_dir("compact");
        let stats = Arc::new(DurableStats::default());
        let (mut store, _) =
            DurableStore::open(&dir, Arc::new(RealDisk), 2, stats.clone()).expect("open");
        // Many fat marker records push the log over the threshold.
        let streams: Vec<String> = (0..64).map(|i| format!("stream-{i:04}")).collect();
        let carry = sample_carry(1);
        let mut e = 0u64;
        while store.log_len() <= LOG_COMPACT_BYTES {
            store.log_markers(e, &streams).unwrap();
            e += 1;
        }
        let cursors: HashMap<String, u64> = [("q0".to_string(), e)].into();
        store.checkpoint(e + 1, &carry, &cursors, &[]).expect("checkpoint compacts");
        assert!(store.log_len() < LOG_COMPACT_BYTES, "log shrank");
        assert!(stats.gc_pruned.get() > 0);
        // Recovery over the compacted log still works and keeps only
        // covered markers.
        let (_s, rec) = open_real(&dir);
        assert_eq!(rec.next_epoch, e + 1);
        assert!(rec.markers.iter().all(|(_, me)| *me >= e.min(*me)));
        let _ = fs::remove_dir_all(&dir);
    }

    /// Compaction runs inside a cut's checkpoint, before that boundary's
    /// markers are appended. A crash between the two must still find the
    /// markers the previous cut resumes from: the fallback restores it
    /// and replays up to the last committed epoch, re-emitting nothing.
    #[test]
    fn compaction_keeps_what_a_cut_that_never_committed_falls_back_on() {
        let dir = scratch_dir("compact_fallback");
        let streams: Vec<String> = (0..64).map(|i| format!("stream-{i:04}")).collect();
        let cursors =
            |next: u64| -> HashMap<String, u64> { streams.iter().map(|s| (s.clone(), next)).collect() };
        let carry = sample_carry(1);
        let e = {
            let (mut store, _) = open_real(&dir);
            store.checkpoint(1, &carry, &cursors(1), &streams).unwrap();
            store.log_markers(0, &streams).unwrap();
            let mut e = 1;
            while store.log_len() <= LOG_COMPACT_BYTES {
                store.log_markers(e, &streams).unwrap();
                e += 1;
            }
            store.checkpoint(e + 1, &carry, &cursors(e + 1), &streams).unwrap();
            assert!(store.log_len() < LOG_COMPACT_BYTES, "the cut compacted the log");
            e // the process dies before `log_markers(e)`
        };
        let (_s, rec) = open_real(&dir);
        assert!(rec.notes.iter().any(|n| n.contains("ahead")), "{:?}", rec.notes);
        for s in &streams {
            assert_eq!(rec.resume(s), Cursor { cut: 1, next: e }, "stream {s}");
        }
        assert_eq!(rec.next_epoch, e);
        let _ = fs::remove_dir_all(&dir);
    }

    /// The cut rule: a cut once the packets plus boundaries since the
    /// last one reach what it held (at least one boundary).
    #[test]
    fn cadence_cuts_when_the_traffic_outweighs_the_held_state() {
        let mut c = Cadence::default();
        assert!(c.boundary(0), "nothing held: every boundary is a cut");
        c.sealed(10);
        assert!(!c.boundary(3), "3 packets + 1 boundary < 10 held");
        assert!(!c.boundary(4), "8 < 10");
        assert!(c.boundary(0), "8 + 3 boundaries >= 10");
        c.sealed(0);
        assert!(c.boundary(0));
        c.sealed(1_000);
        assert!(c.boundary(5_000), "one heavy boundary pays for a large cut");
    }

    #[test]
    fn oversized_carry_entry_is_rejected_before_allocation() {
        // Hand-forge a segment whose entry declares more bytes than the
        // cap; decode must refuse on the declared length, not allocate.
        let mut w = SnapWriter::new();
        w.put_u64(0); // seq
        w.put_u64(1); // next_epoch
        w.put_u32(0); // cursors
        w.put_u32(0); // pending
        w.put_u32(1); // entries
        w.put_str("hfta:q");
        w.put_u32((MAX_ENTRY_BYTES + 1) as u32); // declared entry length
        w.put_u8(0); // one actual byte
        let sealed = w.seal();
        let err = decode_segment(&sealed).expect_err("oversized entry must be rejected");
        assert!(err.to_string().contains("cap"), "error names the cap: {err}");
    }

    #[test]
    fn atomic_write_file_replaces_whole_contents() {
        let dir = scratch_dir("atomic");
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("port");
        atomic_write_file(&path, b"127.0.0.1:5123").unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"127.0.0.1:5123");
        atomic_write_file(&path, b"127.0.0.1:49152").unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"127.0.0.1:49152");
        assert_eq!(
            RealDisk.list(&dir).unwrap(),
            vec!["port".to_string()],
            "no temp droppings"
        );
        let _ = fs::remove_dir_all(&dir);
    }
}
