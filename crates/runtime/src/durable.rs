//! The durable checkpoint store: crash-consistent persistence of the
//! daemon's cuts of carried state and of its emission markers, plus the
//! recovery manager that rebuilds them after a process death.
//!
//! # On-disk layout
//!
//! A state directory holds one file, the append-only log `emit.log`: a
//! sequence of `u32 BE length` + sealed ([`snapshot::seal`]) records.
//! Each record is individually checksummed, so a torn tail is detected
//! and truncated, and a damaged record inside the log skipped (advisory,
//! never fatal). Three kinds:
//!
//! - **CUT**: one cut of the carried state — the epoch to resume at, the
//!   streams that completed its boundary (their markers, for epoch
//!   `next_epoch - 1`), every query's replay cursor, and the full carry
//!   map (node key → that node's own sealed snapshot).
//! - **MARKERS**: a boundary that is not a cut — "the output of epoch
//!   `e` for streams `s…` has been handed to subscribers".
//! - **SHUTDOWN**: a clean flush; it retires every record before it.
//!
//! Every record is an envelope of the current [`snapshot::VERSION`]. A
//! log written under another version reads as torn from its first record
//! and is truncated there with a note, so recovery reports a fresh start
//! rather than an error, and never reads a cut it cannot verify. Segment
//! files (`seg-*`) left by the earlier file-per-cut layout are removed
//! unread, with one note.
//!
//! # Cadence, recovery and the exactly-once argument
//!
//! Not every epoch boundary is a *cut*. The [`Cadence`] rule seals a cut
//! only once the traffic since the last one outweighs the state it would
//! write. Either way a boundary is one record — a CUT at a cut, a MARKERS
//! record anywhere else — written with one append and one fsync, and the
//! marker frames go to subscribers only after that fsync. The record is
//! the boundary's commit point, so a cut and its markers commit together
//! or not at all. A cut's cursors say where each query's *bytes* are, the
//! markers say what was *emitted*; between cuts the markers run ahead by
//! up to one cut interval.
//!
//! Recovery scans the log once (truncating any torn tail) and restores
//! the newest CUT after the last SHUTDOWN that decodes. A record is
//! skipped rather than truncated when it is whole and the record after
//! it verifies, so damage inside the log costs that record alone. When
//! no cut is restored, recovery appends a SHUTDOWN at the epoch it
//! starts from: the records before it resume nothing, and left live
//! they would count against the fresh start's own cuts after its next
//! crash. Otherwise each query resumes as [`Recovery::resume`] says:
//! its state is rebuilt by replaying `[cursor, next unmarked epoch)`
//! from the restored bytes with its output discarded — those epochs
//! were confirmed already — and emission resumes at the next unmarked
//! epoch. Output is a
//! function of the input, never of where the cuts fell, so the silent
//! replay rebuilds exactly the state the dead process held; nothing is
//! emitted twice and nothing is skipped. The next unmarked epoch only
//! needs each stream's *newest* marker, which is why falling back to an
//! older cut costs replay time, never correctness. The one unprovable
//! interleaving — the record reached the platter but the fsync
//! acknowledgment didn't reach the process — loses only that epoch's
//! *marker frame* on the already-dead connection; the injected crash
//! matrix models the conservative outcome (torn record → replay).
//!
//! A failed append (ENOSPC, say) can land part of a record; the store
//! cuts it off before it appends anything else, so a later record never
//! sits behind garbage that recovery would truncate it with.
//!
//! # GC
//!
//! Compaction rewrites the log (atomic replace) to the newest `retain`
//! CUT records plus every marker at or above their lowest cursor − 1:
//! recovery reads only each stream's newest marker, and every stream
//! those cuts cover has it at or above that floor, so each kept cut —
//! the newest, or an older one should the newest fail to decode — still
//! resumes exactly. It runs after a cut, once the log exceeds
//! `max(`[`LOG_COMPACT_BYTES`]`, 2 × the bytes it keeps)`, so it never
//! rewrites more than was appended since the last compaction. Between
//! cuts the log grows by one markers record per boundary, and the
//! cadence bounds an idle interval by the state held at its cut.
//!
//! All IO goes through the injectable [`DiskIo`] layer so the fault
//! plans in [`faults`](crate::faults) can interrupt any step of the
//! protocol and the property tests can prove recovery lands on an
//! epoch boundary byte-for-byte.

use crate::faults::{
    crash_error, enospc_error, is_crash_error, DiskFaultKind, DiskFaultPlan, DiskOp,
};
use crate::snapshot::{self, SnapError, SnapReader, SnapWriter};
use crate::stats::{Counter, StatSource};
use std::collections::HashMap;
use std::fs;
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, PoisonError};

/// Emission log file name.
pub const LOG_FILE: &str = "emit.log";
/// Largest single carry entry inside a cut; checked against the
/// declared length *before* any allocation.
pub const MAX_ENTRY_BYTES: usize = 256 << 20;
/// The log size below which compaction never runs.
pub const LOG_COMPACT_BYTES: u64 = 1 << 20;

const REC_MARKERS: u8 = 1;
const REC_SHUTDOWN: u8 = 2;
const REC_CUT: u8 = 3;

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
/// The commit protocol is [`append`](DiskIo::append) then
/// [`fsync_file`](DiskIo::fsync_file) — the [`DiskOp::LogAppend`] and
/// [`DiskOp::LogFsync`] a fault plan targets; maintenance operations
/// (recovery reads, compaction, truncation) are untagged but still honor
/// a latched crash.
pub trait DiskIo: Send + Sync {
    /// Create the state directory (and parents).
    fn create_dir_all(&self, p: &Path) -> io::Result<()>;
    /// Append `bytes` to `p` (protocol step `LogAppend`).
    fn append(&self, p: &Path, bytes: &[u8]) -> io::Result<()>;
    /// Fsync the file at `p` (protocol step `LogFsync`).
    fn fsync_file(&self, p: &Path) -> io::Result<()>;
    /// Read the full contents of `p`.
    fn read(&self, p: &Path) -> io::Result<Vec<u8>>;
    /// File names (not paths) in directory `p`.
    fn list(&self, p: &Path) -> io::Result<Vec<String>>;
    /// Remove the file at `p`.
    fn remove(&self, p: &Path) -> io::Result<()>;
    /// Truncate `p` to `len` bytes.
    fn truncate(&self, p: &Path, len: u64) -> io::Result<()>;
    /// Atomically replace `p`'s contents ([`atomic_write_file`]), for
    /// creating the log and compacting it.
    fn replace(&self, p: &Path, bytes: &[u8]) -> io::Result<()>;
    /// Mark the start of one epoch boundary (fault plans count these).
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
    fn append(&self, p: &Path, bytes: &[u8]) -> io::Result<()> {
        fs::OpenOptions::new().append(true).open(p)?.write_all(bytes)
    }
    fn fsync_file(&self, p: &Path) -> io::Result<()> {
        fsync_path(p)
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
        atomic_write_file(p, bytes)
    }
}

/// Write `bytes` to `path` atomically: temp file in the same directory,
/// fsync, rename over the target, fsync the directory. A concurrent
/// reader sees either the old contents or the new — never a prefix.
/// (The `gsqd --port-file` publish; also how the store creates and
/// compacts its log.)
pub fn atomic_write_file(path: impl AsRef<Path>, bytes: &[u8]) -> io::Result<()> {
    let path = path.as_ref();
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(format!(".{}.tmp", std::process::id()));
    let tmp = PathBuf::from(tmp);
    fs::write(&tmp, bytes)?;
    fsync_path(&tmp)?;
    fs::rename(&tmp, path)?;
    // Directory fsync is how a rename becomes durable on POSIX; where a
    // directory cannot be opened, the rename is the best available
    // publish. Any other failure is the caller's to see.
    match path.parent().filter(|dir| !dir.as_os_str().is_empty()).map(fsync_path) {
        Some(Err(e)) if e.kind() != io::ErrorKind::PermissionDenied => Err(e),
        _ => Ok(()),
    }
}

// ---------------------------------------------------------------------
// FaultyDisk: the crash-simulating DiskIo for the property tests.
// ---------------------------------------------------------------------

struct FaultyState {
    /// 1-based epoch boundary counter.
    boundary: u64,
    /// Latched once a crash fault fires; every later op fails.
    crashed: bool,
    /// Remaining failures per Enospc spec (parallel to plan.specs).
    enospc_left: Vec<u32>,
    /// Last append not yet fsynced: `(path, length before, appended)` —
    /// the rollback target for `CrashBefore(LogFsync)`.
    last_append: Option<(PathBuf, u64, u64)>,
}

/// A [`DiskIo`] that executes a [`DiskFaultPlan`] over the real
/// filesystem. A *crash* fault latches the disk dead (every later call
/// fails with [`crash_error`]) and leaves the directory in a state some
/// real machine crash could have left: an un-fsynced append is cut
/// mid-record. An ENOSPC lands half the record before it fails, as a
/// really full disk can. Recovery then runs over the directory with a
/// fresh [`RealDisk`], exactly as a restarted process would.
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

    /// The fault due at `op` of the current boundary, after failing fast
    /// once crashed and executing a crash-before (rollback + latch):
    /// crash kinds match their boundary exactly, ENOSPC matches from its
    /// boundary on while it has failures left.
    fn gate(&self, st: &mut FaultyState, op: DiskOp) -> io::Result<Option<DiskFaultKind>> {
        if st.crashed {
            return Err(crash_error());
        }
        let mut due = None;
        for (i, spec) in self.plan.specs.iter().enumerate() {
            if spec.op != op {
                continue;
            }
            match spec.kind {
                DiskFaultKind::Enospc { .. }
                    if st.boundary >= spec.at_boundary && st.enospc_left[i] > 0 =>
                {
                    st.enospc_left[i] -= 1;
                    due = Some(DiskFaultKind::Enospc { times: 0 });
                    break;
                }
                DiskFaultKind::Enospc { .. } => {}
                ref kind if st.boundary == spec.at_boundary => {
                    due = Some(kind.clone());
                    break;
                }
                _ => {}
            }
        }
        if let Some(DiskFaultKind::CrashBefore(_)) = due {
            // The fsync never ran: the append it would have made durable
            // is lost mid-record.
            if let Some((path, old_len, appended)) = st.last_append.take() {
                let _ = self.real.truncate(&path, old_len + appended / 2);
            }
            st.crashed = true;
            return Err(crash_error());
        }
        Ok(due)
    }

    fn check_alive(&self) -> io::Result<()> {
        if self.lock().crashed {
            return Err(crash_error());
        }
        Ok(())
    }
}

impl DiskIo for FaultyDisk {
    fn create_dir_all(&self, p: &Path) -> io::Result<()> {
        self.check_alive()?;
        self.real.create_dir_all(p)
    }

    fn append(&self, p: &Path, bytes: &[u8]) -> io::Result<()> {
        let mut st = self.lock();
        let due = self.gate(&mut st, DiskOp::LogAppend)?;
        let old_len = fs::metadata(p).map(|m| m.len()).unwrap_or(0);
        match due {
            Some(DiskFaultKind::ShortWrite { keep }) => {
                let _ = self.real.append(p, &bytes[..keep.min(bytes.len())]);
                st.crashed = true;
                Err(crash_error())
            }
            Some(DiskFaultKind::Enospc { .. }) => {
                let _ = self.real.append(p, &bytes[..bytes.len() / 2]);
                Err(enospc_error())
            }
            Some(DiskFaultKind::CrashAfter(_)) => {
                self.real.append(p, bytes)?;
                st.crashed = true;
                Err(crash_error())
            }
            _ => {
                self.real.append(p, bytes)?;
                st.last_append = Some((p.to_path_buf(), old_len, bytes.len() as u64));
                Ok(())
            }
        }
    }

    fn fsync_file(&self, p: &Path) -> io::Result<()> {
        let mut st = self.lock();
        match self.gate(&mut st, DiskOp::LogFsync)? {
            Some(DiskFaultKind::Enospc { .. }) => Err(enospc_error()),
            Some(DiskFaultKind::CrashAfter(_)) => {
                self.real.fsync_file(p)?;
                st.crashed = true;
                Err(crash_error())
            }
            _ => {
                self.real.fsync_file(p)?;
                st.last_append = None;
                Ok(())
            }
        }
    }

    fn read(&self, p: &Path) -> io::Result<Vec<u8>> {
        self.check_alive()?;
        self.real.read(p)
    }
    fn list(&self, p: &Path) -> io::Result<Vec<String>> {
        self.check_alive()?;
        self.real.list(p)
    }
    fn remove(&self, p: &Path) -> io::Result<()> {
        self.check_alive()?;
        self.real.remove(p)
    }
    fn truncate(&self, p: &Path, len: u64) -> io::Result<()> {
        self.check_alive()?;
        self.real.truncate(p, len)
    }
    fn replace(&self, p: &Path, bytes: &[u8]) -> io::Result<()> {
        self.check_alive()?;
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
    /// CUT records committed.
    pub cuts_written: Counter,
    /// Bytes that went through an fsync (log records).
    pub bytes_fsynced: Counter,
    /// Startups that rebuilt state from a non-empty directory.
    pub recoveries: Counter,
    /// Torn tails truncated, damaged records and undecodable cuts
    /// skipped during recovery.
    pub torn_truncated: Counter,
    /// Log records dropped by compaction (a dropped cut whose markers
    /// survive as a MARKERS record counts too).
    pub gc_pruned: Counter,
    /// Checkpoint writes dead-lettered after retries (e.g. ENOSPC).
    pub write_failed: Counter,
}

impl StatSource for DurableStats {
    fn counters(&self) -> Vec<(&'static str, u64)> {
        vec![
            ("cuts_written", self.cuts_written.get()),
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
    /// after every epoch below `cut`. An upstream's `cut` is never past
    /// a consumer's, which replays from its own cut (one found behind
    /// its upstream restarts empty instead).
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
    /// Advisory notes (torn tails truncated, cuts skipped, old-layout
    /// files removed, regressions) — the `RunHealth::notes` style report.
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


/// One live record of the log, as compaction sees it.
#[derive(Debug, Clone)]
struct Entry {
    /// Where its framed bytes sit in the log.
    at: u64,
    len: u64,
    /// The epoch its markers commit, and their streams.
    epoch: u64,
    streams: Vec<String>,
    /// A CUT's replay floor (its lowest cursor); `None` for MARKERS.
    floor: Option<u64>,
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
    /// Bytes of whole committed records in the log.
    log_len: u64,
    /// A failed append may have left part of a record past `log_len`;
    /// it is cut off before the next append.
    torn: bool,
    /// The live records (after the last SHUTDOWN), in log order.
    records: Vec<Entry>,
    /// `Some(committed)` between a checkpoint and its boundary's
    /// markers call: whether its CUT record (the last of `records`)
    /// committed.
    mid_boundary: Option<bool>,
}

/// A decoded CUT record.
#[derive(Debug)]
struct Cut {
    next_epoch: u64,
    cursors: HashMap<String, u64>,
    carry: HashMap<String, Vec<u8>>,
}

fn put_streams(w: &mut SnapWriter, streams: &[String]) {
    let mut sorted: Vec<&String> = streams.iter().collect();
    sorted.sort();
    w.put_u32(sorted.len() as u32);
    for s in sorted {
        w.put_str(s);
    }
}

fn encode_markers(epoch: u64, streams: &[String]) -> Vec<u8> {
    let mut w = SnapWriter::new();
    w.put_u8(REC_MARKERS);
    w.put_u64(epoch);
    put_streams(&mut w, streams);
    w.seal()
}

fn encode_cut(
    next_epoch: u64,
    streams: &[String],
    cursors: &HashMap<String, u64>,
    carry: &HashMap<String, Vec<u8>>,
) -> Vec<u8> {
    let mut w = SnapWriter::new();
    w.put_u8(REC_CUT);
    w.put_u64(next_epoch);
    put_streams(&mut w, streams);
    let mut cur: Vec<(&String, &u64)> = cursors.iter().collect();
    cur.sort();
    w.put_u32(cur.len() as u32);
    for (q, e) in cur {
        w.put_str(q);
        w.put_u64(*e);
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

fn encode_shutdown(next_epoch: u64) -> Vec<u8> {
    let mut w = SnapWriter::new();
    w.put_u8(REC_SHUTDOWN);
    w.put_u64(next_epoch);
    w.seal()
}

fn frame_record(sealed: Vec<u8>) -> Vec<u8> {
    let mut rec = Vec::with_capacity(4 + sealed.len());
    rec.extend_from_slice(&(sealed.len() as u32).to_be_bytes());
    rec.extend_from_slice(&sealed);
    rec
}

/// Where the record framed at `at` ends, if its bytes are all there.
fn frame_end(bytes: &[u8], at: usize) -> Option<usize> {
    let len = bytes.get(at..at + 4)?;
    let end = at + 4 + u32::from_be_bytes(len.try_into().expect("a 4-byte slice")) as usize;
    (end <= bytes.len()).then_some(end)
}

/// The record framed at `at`: its verified payload and where the next
/// record starts.
fn frame_at(bytes: &[u8], at: usize) -> Result<(&[u8], usize), SnapError> {
    let end = frame_end(bytes, at).ok_or(SnapError::Truncated)?;
    Ok((snapshot::open(&bytes[at + 4..end])?, end))
}

/// A record's kind, its epoch word (a CUT's is its `next_epoch`) and,
/// for MARKERS and CUT, the marker streams; a CUT's cursors and carry
/// follow in `r`.
fn read_head(r: &mut SnapReader<'_>) -> Result<(u8, u64, Vec<String>), SnapError> {
    let kind = r.get_u8()?;
    let epoch = r.get_u64()?;
    let streams = match kind {
        REC_SHUTDOWN => Vec::new(),
        REC_MARKERS | REC_CUT => {
            let n = r.get_count(4)?;
            (0..n).map(|_| r.get_str()).collect::<Result<_, _>>()?
        }
        k => return Err(snapshot::proto(format!("unknown record kind {k}"))),
    };
    Ok((kind, epoch, streams))
}

fn read_cursors(r: &mut SnapReader<'_>) -> Result<HashMap<String, u64>, SnapError> {
    let n = r.get_count(12)?; // str len prefix (4) + u64
    (0..n).map(|_| Ok((r.get_str()?, r.get_u64()?))).collect()
}

/// A whole CUT record's payload.
fn decode_cut(payload: &[u8]) -> Result<Cut, SnapError> {
    let mut r = SnapReader::new(payload);
    let (kind, next_epoch, _) = read_head(&mut r)?;
    if kind != REC_CUT {
        return Err(snapshot::proto(format!("record kind {kind} is not a cut")));
    }
    let cursors = read_cursors(&mut r)?;
    let n = r.get_count(8)?;
    let mut carry = HashMap::with_capacity(n);
    for _ in 0..n {
        let k = r.get_str()?;
        // Entry size cap: a corrupt length that slipped past the
        // checksum (or a future oversized cut) is refused before any
        // allocation, not after.
        let declared = r.peek_u32().ok_or(SnapError::Truncated)? as usize;
        if declared > MAX_ENTRY_BYTES {
            return Err(snapshot::proto(format!(
                "carry entry `{k}` declares {declared} bytes (cap {MAX_ENTRY_BYTES})"
            )));
        }
        carry.insert(k, r.get_bytes()?);
    }
    r.finish()?;
    Ok(Cut { next_epoch, cursors, carry })
}

/// The name prefix of the cut files an earlier layout wrote beside the
/// log; recovery removes them unread.
const OLD_SEGMENT_PREFIX: &str = "seg-";

impl DurableStore {
    /// Open (or create) the store at `dir` and run recovery: scan the
    /// log, truncate any torn tail, restore the newest decodable cut,
    /// and report what the engine should resume with.
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
            // Compaction must leave the cut recovery resumes from.
            retain: retain.max(1),
            stats,
            write_retries: 2,
            log_len: 0,
            torn: false,
            records: Vec::new(),
            mid_boundary: None,
        };
        let recovery = store.recover()?;
        Ok((store, recovery))
    }

    fn log_path(&self) -> PathBuf {
        self.dir.join(LOG_FILE)
    }

    fn recover(&mut self) -> Result<Recovery, StoreError> {
        let mut rec = Recovery::default();
        let mut saw_log = false;
        let mut old_segments = 0usize;
        for name in self.io.list(&self.dir)? {
            if name == LOG_FILE {
                saw_log = true;
            } else if name.ends_with(".tmp") {
                // Uncommitted temp from an interrupted compaction:
                // garbage by construction (never renamed).
                let _ = self.io.remove(&self.dir.join(&name));
            } else if name.starts_with(OLD_SEGMENT_PREFIX) {
                let _ = self.io.remove(&self.dir.join(&name));
                old_segments += 1;
            }
        }
        if old_segments > 0 {
            rec.notes.push(format!(
                "removed {old_segments} segment file(s) of the old file-per-cut layout \
                 unread; cuts now live in {LOG_FILE}"
            ));
        }
        let bytes = if saw_log {
            self.io.read(&self.log_path())?
        } else {
            // Create the log whole, directory entry included, so the
            // first boundary's append is the only write it needs.
            self.io.replace(&self.log_path(), &[])?;
            Vec::new()
        };
        rec.recovered = !bytes.is_empty() || old_segments > 0;

        // --- Scan the log, truncating any torn tail. ------------------
        let mut shutdown_next: Option<u64> = None;
        let mut cuts: Vec<(usize, &[u8])> = Vec::new();
        let mut at = 0usize;
        while at < bytes.len() {
            let parsed = frame_at(&bytes, at).and_then(|(payload, end)| {
                let mut r = SnapReader::new(payload);
                let (kind, epoch, streams) = read_head(&mut r)?;
                let floor = match kind {
                    REC_CUT => Some(read_cursors(&mut r)?.into_values().min().unwrap_or(epoch)),
                    _ => {
                        r.finish()?;
                        None
                    }
                };
                Ok((payload, end, kind, epoch, streams, floor))
            });
            let (payload, end, kind, epoch, streams, floor) = match parsed {
                Ok(record) => record,
                Err(e) => {
                    // A whole record followed by one that verifies is
                    // damage inside the log, not its tail: skip it alone,
                    // so no committed record after it is lost.
                    if let Some(end) = frame_end(&bytes, at)
                        .filter(|&end| end < bytes.len() && frame_at(&bytes, end).is_ok())
                    {
                        self.stats.torn_truncated.inc();
                        rec.notes.push(format!("emission log: record at byte {at} skipped: {e}"));
                        at = end;
                        continue;
                    }
                    // A torn tail — or a log written under another
                    // snapshot format version, which reads as torn from
                    // its first record: truncate at the last whole record
                    // this build can verify.
                    let what = match e {
                        SnapError::Version(v) => format!(
                            "record of snapshot format v{v} (this build reads v{}); log",
                            snapshot::VERSION
                        ),
                        SnapError::Protocol(m) => format!("malformed record ({m})"),
                        _ => "torn tail".to_string(),
                    };
                    let what = format!("{what} truncated at byte {at} (of {})", bytes.len());
                    self.truncate_at(at, &mut rec, what)?;
                    break;
                }
            };
            if kind == REC_SHUTDOWN {
                // Everything before belongs to the finished incarnation.
                shutdown_next = Some(epoch);
                self.records.clear();
                rec.markers.clear();
                cuts.clear();
            } else {
                let epoch = if kind == REC_CUT {
                    cuts.push((at, payload));
                    epoch.saturating_sub(1)
                } else {
                    epoch
                };
                rec.markers.extend(streams.iter().map(|s| (s.clone(), epoch)));
                self.records.push(Entry {
                    at: at as u64,
                    len: (end - at) as u64,
                    epoch,
                    streams,
                    floor,
                });
            }
            at = end;
        }
        self.log_len = at.min(bytes.len()) as u64;

        // --- Restore the newest cut that decodes. ---------------------
        let mut restored: Option<Cut> = None;
        for &(at, payload) in cuts.iter().rev() {
            match decode_cut(payload) {
                Ok(cut) => {
                    restored = Some(cut);
                    break;
                }
                Err(e) => {
                    self.stats.torn_truncated.inc();
                    rec.notes.push(format!(
                        "cut at byte {at}: {e}; falling back to an older cut"
                    ));
                }
            }
        }

        match restored {
            Some(cut) => {
                // Markers past the cut are the emission the cut lags:
                // `resume` replays them silently, so none is a
                // regression, and the engine resumes past all of them.
                let marked = rec.markers.iter().map(|(_, e)| e + 1).max().unwrap_or(0);
                rec.next_epoch = cut.next_epoch.max(marked);
                rec.cursors = cut.cursors;
                rec.carry = cut.carry;
            }
            None => {
                rec.next_epoch = shutdown_next.unwrap_or(0);
                rec.clean_shutdown = shutdown_next.is_some();
                if !rec.markers.is_empty() {
                    rec.notes.push(format!(
                        "recovery regressed behind {} durable marker(s): no cut decodes; \
                         restarting from empty state (duplicate emission possible)",
                        rec.markers.len()
                    ));
                }
                if !self.records.is_empty() {
                    // Nothing here resumes anything. Retire it as a
                    // clean shutdown would, or a later recovery would
                    // count these markers past the fresh start's own
                    // cuts and skip the epochs in between.
                    self.append(&frame_record(encode_shutdown(rec.next_epoch)))?;
                    self.records.clear();
                    rec.markers.clear();
                }
            }
        }

        if rec.recovered {
            self.stats.recoveries.inc();
        }
        Ok(rec)
    }

    /// Cut the log at byte `at` during recovery, with a note.
    fn truncate_at(&self, at: usize, rec: &mut Recovery, what: String) -> Result<(), StoreError> {
        self.io.truncate(&self.log_path(), at as u64)?;
        self.stats.torn_truncated.inc();
        rec.notes.push(format!("emission log: {what}"));
        Ok(())
    }

    /// Append one framed record and fsync the log: the commit point.
    /// Returns the offset it landed at.
    fn append(&mut self, rec: &[u8]) -> io::Result<u64> {
        let log = self.log_path();
        if self.torn {
            // Whatever a failed append left must go first, or recovery
            // would truncate this record with it.
            self.io.truncate(&log, self.log_len)?;
            self.torn = false;
        }
        self.torn = true;
        self.io.append(&log, rec)?;
        self.io.fsync_file(&log)?;
        self.torn = false;
        let at = self.log_len;
        self.log_len += rec.len() as u64;
        self.stats.bytes_fsynced.add(rec.len() as u64);
        Ok(at)
    }

    /// Commit one cut: the full carry map and every query's cut cursor,
    /// resumable at `next_epoch`, together with this boundary's markers —
    /// `(s, next_epoch - 1)` for each `s` in `pending` — as one CUT
    /// record. Retries transient failures a bounded number of times; a
    /// final failure is counted in `write_failed` and returned for the
    /// caller to dead-letter (the engine keeps running on its in-memory
    /// cut), and the boundary's [`log_markers`](DurableStore::log_markers)
    /// then commits the markers alone.
    pub fn checkpoint(
        &mut self,
        next_epoch: u64,
        carry: &HashMap<String, Vec<u8>>,
        cursors: &HashMap<String, u64>,
        pending: &[String],
    ) -> Result<(), StoreError> {
        self.io.begin_boundary();
        self.mid_boundary = Some(false);
        let rec = frame_record(encode_cut(next_epoch, pending, cursors, carry));
        let mut attempt = 0;
        let at = loop {
            match self.append(&rec) {
                Ok(at) => break at,
                Err(e) if !is_crash_error(&e) && attempt < self.write_retries => attempt += 1,
                Err(e) => {
                    self.stats.write_failed.inc();
                    return Err(StoreError::Io(e));
                }
            }
        };
        self.mid_boundary = Some(true);
        self.records.push(Entry {
            at,
            len: rec.len() as u64,
            epoch: next_epoch.saturating_sub(1),
            streams: pending.to_vec(),
            floor: Some(cursors.values().copied().min().unwrap_or(next_epoch)),
        });
        self.stats.cuts_written.inc();
        self.compact();
        Ok(())
    }

    /// Commit epoch `epoch`'s emission for `streams`: append one
    /// markers record and fsync the log. The caller sends the marker
    /// frames only after this returns — the commit point of the
    /// exactly-once protocol. Right after a successful
    /// [`checkpoint`](DurableStore::checkpoint) it commits only what the
    /// CUT record did not — nothing, when called with that cut's epoch
    /// and pending streams.
    pub fn log_markers(&mut self, epoch: u64, streams: &[String]) -> Result<(), StoreError> {
        let opened = self.mid_boundary.take();
        let streams: Vec<String> = match (opened, self.records.last()) {
            (Some(true), Some(cut)) if cut.epoch == epoch => {
                streams.iter().filter(|s| !cut.streams.contains(s)).cloned().collect()
            }
            _ => streams.to_vec(),
        };
        if streams.is_empty() {
            return Ok(());
        }
        if opened.is_none() {
            self.io.begin_boundary();
        }
        let at = self.append(&frame_record(encode_markers(epoch, &streams)))?;
        self.records.push(Entry { at, len: self.log_len - at, epoch, streams, floor: None });
        Ok(())
    }

    /// Commit a clean shutdown: the flush emitted every held tail, so a
    /// later restart starts from empty state at `next_epoch` and every
    /// record before this one is retired.
    pub fn log_shutdown(&mut self, next_epoch: u64) -> Result<(), StoreError> {
        self.append(&frame_record(encode_shutdown(next_epoch)))?;
        self.records.clear();
        Ok(())
    }

    /// Rewrite the log to what recovery can still use — the newest
    /// `retain` cuts, and every marker at or above their floor − 1 (a
    /// dropped cut's as a MARKERS record) — once it has outgrown
    /// `max(LOG_COMPACT_BYTES, 2 × that)`. Best-effort: a failure leaves
    /// the log as it was and never fails the boundary.
    fn compact(&mut self) {
        if self.log_len <= LOG_COMPACT_BYTES {
            return;
        }
        let cuts: Vec<usize> =
            (0..self.records.len()).filter(|&i| self.records[i].floor.is_some()).collect();
        let Some(&first_kept) = cuts.get(cuts.len().saturating_sub(self.retain)) else {
            return;
        };
        let floor = self.records[first_kept..]
            .iter()
            .filter_map(|e| e.floor)
            .min()
            .unwrap_or(0)
            .saturating_sub(1);
        // What survives, in log order: kept cuts and live MARKERS records
        // as they are (`None`), a dropped cut's live markers re-encoded.
        let plan: Vec<(usize, Option<Vec<u8>>)> = self
            .records
            .iter()
            .enumerate()
            .filter_map(|(i, e)| match e.floor {
                Some(_) if i >= first_kept => Some((i, None)),
                None if e.epoch >= floor => Some((i, None)),
                Some(_) if e.epoch >= floor && !e.streams.is_empty() => {
                    Some((i, Some(frame_record(encode_markers(e.epoch, &e.streams)))))
                }
                _ => None,
            })
            .collect();
        let keep: u64 = plan
            .iter()
            .map(|(i, fresh)| fresh.as_ref().map_or(self.records[*i].len, |f| f.len() as u64))
            .sum();
        if self.log_len <= LOG_COMPACT_BYTES.max(2 * keep) {
            return;
        }
        let Ok(old) = self.io.read(&self.log_path()) else { return };
        let copied = plan.iter().filter(|(_, fresh)| fresh.is_none()).count();
        let mut bytes = Vec::with_capacity(keep as usize);
        let mut records = Vec::with_capacity(plan.len());
        for (i, fresh) in &plan {
            let e = &self.records[*i];
            let (rec, floor) = match fresh {
                Some(f) => (f.as_slice(), None),
                None => match old.get(e.at as usize..(e.at + e.len) as usize) {
                    Some(b) => (b, e.floor),
                    None => return,
                },
            };
            records.push(Entry {
                at: bytes.len() as u64,
                len: rec.len() as u64,
                epoch: e.epoch,
                streams: e.streams.clone(),
                floor,
            });
            bytes.extend_from_slice(rec);
        }
        if self.io.replace(&self.log_path(), &bytes).is_ok() {
            self.stats.gc_pruned.add((self.records.len() - copied) as u64);
            self.log_len = bytes.len() as u64;
            self.records = records;
        }
    }

    /// The store's stats block (the same instance the daemon registers
    /// as the `durable` node).
    pub fn stats(&self) -> Arc<DurableStats> {
        self.stats.clone()
    }

    /// CUT records in the live log (tests).
    pub fn cut_count(&self) -> usize {
        self.records.iter().filter(|e| e.floor.is_some()).count()
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

    /// A carry map of one opaque entry of `bytes` bytes: a cut large
    /// enough that a few of them outgrow [`LOG_COMPACT_BYTES`].
    fn big_carry(tag: u8, bytes: usize) -> HashMap<String, Vec<u8>> {
        HashMap::from([("hfta:big".to_string(), vec![tag; bytes])])
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

    /// Compaction leaves the newest `retain` cuts in the log, and
    /// recovery restores the newest.
    #[test]
    fn compaction_keeps_the_last_retain_cuts() {
        let dir = scratch_dir("gc");
        let stats = Arc::new(DurableStats::default());
        let (mut store, _) =
            DurableStore::open(&dir, Arc::new(RealDisk), 2, stats.clone()).expect("open");
        for e in 0..5u64 {
            let carry = big_carry(e as u8, 300_000);
            store.checkpoint(e + 1, &carry, &HashMap::new(), &[]).expect("checkpoint");
        }
        assert_eq!(store.cut_count(), 2);
        assert_eq!(stats.gc_pruned.get(), 3);
        assert_eq!(
            RealDisk.list(&dir).unwrap(),
            vec![LOG_FILE.to_string()],
            "the log is the directory's only file"
        );
        assert_eq!(fs::metadata(dir.join(LOG_FILE)).unwrap().len(), store.log_len());
        // Recovery restores the newest.
        let (_s, rec) = open_real(&dir);
        assert_eq!(rec.next_epoch, 5);
        assert_eq!(rec.carry, big_carry(4, 300_000));
        let _ = fs::remove_dir_all(&dir);
    }

    /// A stream whose cut is held back below an epoch it completed needs
    /// that marker to resume without re-emitting it: compaction keeps it
    /// when the cut that carried it is dropped.
    #[test]
    fn compaction_keeps_a_dropped_cuts_markers_above_the_floor() {
        let dir = scratch_dir("gc_markers");
        let (q, lag) = ("q".to_string(), "lag".to_string());
        let carry = big_carry(1, 300_000);
        {
            let (mut store, _) = DurableStore::open(
                &dir,
                Arc::new(RealDisk),
                2,
                Arc::new(DurableStats::default()),
            )
            .expect("open");
            for next in 1..=5u64 {
                let cursors = HashMap::from([(q.clone(), next), (lag.clone(), 1)]);
                // `lag` completes epochs 0 and 1, but its cut stays at 1.
                let pending =
                    if next <= 2 { vec![q.clone(), lag.clone()] } else { vec![q.clone()] };
                store.checkpoint(next, &carry, &cursors, &pending).expect("checkpoint");
            }
            assert_eq!(store.cut_count(), 2, "the log was compacted");
        }
        let (_s, rec) = open_real(&dir);
        assert_eq!(rec.resume(&lag), Cursor { cut: 1, next: 2 }, "epoch 1 is not re-emitted");
        assert_eq!(rec.resume(&q), Cursor { cut: 5, next: 5 });
        assert_eq!(rec.carry, carry);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_log_tail_is_truncated_not_fatal() {
        let dir = scratch_dir("torntail");
        {
            let (mut store, _) = open_real(&dir);
            store.checkpoint(3, &sample_carry(1), &HashMap::new(), &["q0".to_string()]).unwrap();
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
    fn corrupt_newest_cut_falls_back_to_older_cut() {
        let dir = scratch_dir("fallback");
        let old_carry = sample_carry(2);
        let newest_at = {
            let (mut store, _) = open_real(&dir);
            store.checkpoint(4, &old_carry, &HashMap::new(), &[]).unwrap();
            let at = store.log_len();
            store.checkpoint(5, &sample_carry(3), &HashMap::new(), &[]).unwrap();
            at as usize
        };
        // Flip a byte mid-payload of the newest CUT record.
        let log = dir.join(LOG_FILE);
        let mut bytes = fs::read(&log).unwrap();
        let mid = (newest_at + bytes.len()) / 2;
        bytes[mid] ^= 0xff;
        fs::write(&log, &bytes).unwrap();
        let stats = Arc::new(DurableStats::default());
        let (_s, rec) =
            DurableStore::open(&dir, Arc::new(RealDisk), 3, stats.clone()).expect("open");
        assert_eq!(rec.next_epoch, 4, "recovery fell back to the older boundary");
        assert_eq!(rec.carry, old_carry);
        assert_eq!(stats.torn_truncated.get(), 1);
        assert!(
            rec.notes.iter().any(|n| n.contains(&format!("truncated at byte {newest_at}"))),
            "{:?}",
            rec.notes
        );
        let _ = fs::remove_dir_all(&dir);
    }

    /// A damaged record inside the log — whole, and followed by records
    /// that verify — is skipped alone: the markers committed after it
    /// survive, and only the cut itself falls back to the one before.
    #[test]
    fn corrupt_cut_inside_the_log_is_skipped_and_the_markers_after_it_survive() {
        let dir = scratch_dir("midcut");
        let q = vec!["q0".to_string()];
        let old_carry = sample_carry(2);
        let (bad_at, whole) = {
            let (mut store, _) = open_real(&dir);
            store.checkpoint(4, &old_carry, &HashMap::from([("q0".to_string(), 4)]), &q).unwrap();
            let at = store.log_len();
            let cursors = HashMap::from([("q0".to_string(), 5)]);
            store.checkpoint(5, &sample_carry(3), &cursors, &q).unwrap();
            for e in 5..8 {
                store.log_markers(e, &q).unwrap();
            }
            (at as usize, store.log_len())
        };
        let log = dir.join(LOG_FILE);
        let mut bytes = fs::read(&log).unwrap();
        bytes[bad_at + 40] ^= 0xff;
        fs::write(&log, &bytes).unwrap();
        let stats = Arc::new(DurableStats::default());
        let (_s, rec) =
            DurableStore::open(&dir, Arc::new(RealDisk), 3, stats.clone()).expect("open");
        assert_eq!(rec.carry, old_carry, "the older cut is restored");
        let after: Vec<(String, u64)> = (5..8).map(|e| ("q0".to_string(), e)).collect();
        assert_eq!(rec.markers[1..], after[..], "every marker after the bad cut survives");
        assert_eq!(rec.resume("q0"), Cursor { cut: 4, next: 8 });
        assert_eq!(rec.next_epoch, 8);
        assert_eq!(stats.torn_truncated.get(), 1);
        assert!(
            rec.notes.iter().any(|n| n.contains(&format!("record at byte {bad_at} skipped"))),
            "{:?}",
            rec.notes
        );
        assert_eq!(fs::metadata(&log).unwrap().len(), whole, "nothing was truncated");
        let _ = fs::remove_dir_all(&dir);
    }

    /// A CUT that verifies but does not decode (a carry entry over the
    /// cap) is passed over with a note for the cut before it.
    #[test]
    fn undecodable_cut_falls_back_to_the_one_before() {
        let dir = scratch_dir("capcut");
        let old_carry = sample_carry(2);
        {
            let (mut store, _) = open_real(&dir);
            store.checkpoint(4, &old_carry, &HashMap::new(), &[]).unwrap();
        }
        let mut w = SnapWriter::new();
        w.put_u8(REC_CUT);
        w.put_u64(5); // next_epoch
        w.put_u32(0); // marker streams
        w.put_u32(0); // cursors
        w.put_u32(1); // entries
        w.put_str("hfta:q");
        w.put_u32((MAX_ENTRY_BYTES + 1) as u32);
        RealDisk.append(&dir.join(LOG_FILE), &frame_record(w.seal())).unwrap();
        let stats = Arc::new(DurableStats::default());
        let (_s, rec) =
            DurableStore::open(&dir, Arc::new(RealDisk), 3, stats.clone()).expect("open");
        assert_eq!(rec.carry, old_carry);
        assert_eq!(rec.next_epoch, 4);
        assert_eq!(stats.torn_truncated.get(), 1);
        assert!(rec.notes.iter().any(|n| n.contains("falling back")), "{:?}", rec.notes);
        let _ = fs::remove_dir_all(&dir);
    }

    /// A recovery that can resume nothing retires what it found, so the
    /// fresh start's own crash later resumes from its own cuts — not
    /// past the stale markers of the records before it.
    #[test]
    fn a_fresh_start_over_stale_markers_retires_them() {
        let dir = scratch_dir("retire");
        let q = vec!["q0".to_string()];
        {
            let (mut store, _) = open_real(&dir);
            for e in 0..10 {
                store.log_markers(e, &q).unwrap();
            }
        }
        {
            let (mut store, rec) = open_real(&dir);
            assert_eq!(rec.next_epoch, 0);
            assert!(rec.notes.iter().any(|n| n.contains("regressed behind 10")), "{:?}", rec.notes);
            let cursors = HashMap::from([("q0".to_string(), 1)]);
            store.checkpoint(1, &sample_carry(1), &cursors, &q).unwrap();
            store.log_markers(0, &q).unwrap();
            store.log_markers(1, &q).unwrap();
            store.log_markers(2, &q).unwrap();
        }
        let (_s, rec) = open_real(&dir);
        assert!(rec.notes.is_empty(), "{:?}", rec.notes);
        assert_eq!(rec.resume("q0"), Cursor { cut: 1, next: 3 });
        assert_eq!(rec.next_epoch, 3);
        let _ = fs::remove_dir_all(&dir);
    }

    /// `log_markers` after a committed cut appends exactly the streams
    /// the CUT record did not carry.
    #[test]
    fn markers_a_cut_did_not_carry_are_still_committed() {
        let dir = scratch_dir("extra");
        {
            let (mut store, _) = open_real(&dir);
            store.checkpoint(3, &sample_carry(1), &HashMap::new(), &["a".to_string()]).unwrap();
            store.log_markers(2, &["a".to_string(), "b".to_string()]).unwrap();
        }
        let (_s, rec) = open_real(&dir);
        assert_eq!(rec.markers, vec![("a".to_string(), 2), ("b".to_string(), 2)]);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn clean_shutdown_restarts_fresh_with_epoch_numbering() {
        let dir = scratch_dir("clean");
        {
            let (mut store, _) = open_real(&dir);
            store.checkpoint(9, &sample_carry(2), &HashMap::new(), &["q0".to_string()]).unwrap();
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

    /// A failed append can land part of its record. The store cuts that
    /// off before its next append, so the markers that follow a failed
    /// cut are never stranded behind garbage recovery would truncate.
    #[test]
    fn a_cut_that_fails_mid_record_never_strands_the_markers_after_it() {
        let dir = scratch_dir("enospc_tail");
        let q = vec!["q0".to_string()];
        let cursors = |c: u64| HashMap::from([("q0".to_string(), c)]);
        let stats = Arc::new(DurableStats::default());
        // Boundary 2's CUT fails on its first try and both retries, each
        // landing half the record.
        let plan = DiskFaultPlan::new().enospc(2, DiskOp::LogAppend, 3);
        {
            let (mut store, _) =
                DurableStore::open(&dir, Arc::new(FaultyDisk::new(plan)), 3, stats.clone())
                    .expect("open");
            store.checkpoint(1, &sample_carry(1), &cursors(1), &q).expect("first cut");
            store.log_markers(0, &q).expect("no-op");
            store.checkpoint(2, &sample_carry(2), &cursors(2), &q).expect_err("the cut fails");
            store.log_markers(1, &q).expect("its markers still commit");
            store.log_markers(2, &q).expect("and so does the next boundary");
        }
        assert_eq!(stats.write_failed.get(), 1);
        let (_s, rec) = open_real(&dir);
        assert!(rec.notes.is_empty(), "no partial record is left behind: {:?}", rec.notes);
        let every: Vec<(String, u64)> = (0..3).map(|e| ("q0".to_string(), e)).collect();
        assert_eq!(rec.markers, every, "every marker, exactly once");
        assert_eq!(rec.resume("q0"), Cursor { cut: 1, next: 3 });
        let _ = fs::remove_dir_all(&dir);
    }

    /// A [`RealDisk`] that records which of its methods ran.
    #[derive(Default)]
    struct Counting(Mutex<Vec<&'static str>>);

    impl Counting {
        fn note(&self, op: &'static str) {
            self.0.lock().unwrap().push(op);
        }
        fn take(&self) -> Vec<&'static str> {
            std::mem::take(&mut *self.0.lock().unwrap())
        }
    }

    impl DiskIo for Counting {
        fn create_dir_all(&self, p: &Path) -> io::Result<()> {
            self.note("create_dir_all");
            RealDisk.create_dir_all(p)
        }
        fn append(&self, p: &Path, bytes: &[u8]) -> io::Result<()> {
            self.note("append");
            RealDisk.append(p, bytes)
        }
        fn fsync_file(&self, p: &Path) -> io::Result<()> {
            self.note("fsync_file");
            RealDisk.fsync_file(p)
        }
        fn read(&self, p: &Path) -> io::Result<Vec<u8>> {
            self.note("read");
            RealDisk.read(p)
        }
        fn list(&self, p: &Path) -> io::Result<Vec<String>> {
            self.note("list");
            RealDisk.list(p)
        }
        fn remove(&self, p: &Path) -> io::Result<()> {
            self.note("remove");
            RealDisk.remove(p)
        }
        fn truncate(&self, p: &Path, len: u64) -> io::Result<()> {
            self.note("truncate");
            RealDisk.truncate(p, len)
        }
        fn replace(&self, p: &Path, bytes: &[u8]) -> io::Result<()> {
            self.note("replace");
            RealDisk.replace(p, bytes)
        }
    }

    /// The commit protocol: a cut boundary (`checkpoint`, then its
    /// `log_markers`) and a boundary between cuts each make exactly one
    /// append and one fsync, and no other IO.
    #[test]
    fn a_boundary_is_one_append_and_one_fsync() {
        let dir = scratch_dir("protocol");
        let io = Arc::new(Counting::default());
        let (mut store, _) =
            DurableStore::open(&dir, io.clone(), 3, Arc::new(DurableStats::default()))
                .expect("open");
        assert_eq!(
            io.take(),
            ["create_dir_all", "list", "replace"],
            "a fresh directory gets its log created whole"
        );
        let q = vec!["q0".to_string()];
        store.checkpoint(1, &sample_carry(2), &HashMap::from([("q0".to_string(), 1)]), &q).unwrap();
        store.log_markers(0, &q).unwrap();
        assert_eq!(io.take(), ["append", "fsync_file"], "a cut boundary");
        store.log_markers(1, &q).unwrap();
        assert_eq!(io.take(), ["append", "fsync_file"], "a boundary between cuts");
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
        // Hand-forge a CUT whose entry declares more bytes than the cap;
        // decode must refuse on the declared length, not allocate.
        let mut w = SnapWriter::new();
        w.put_u8(REC_CUT);
        w.put_u64(1); // next_epoch
        w.put_u32(0); // marker streams
        w.put_u32(0); // cursors
        w.put_u32(1); // entries
        w.put_str("hfta:q");
        w.put_u32((MAX_ENTRY_BYTES + 1) as u32); // declared entry length
        w.put_u8(0); // one actual byte
        let payload = w.into_payload();
        let err = decode_cut(&payload).expect_err("oversized entry must be rejected");
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
