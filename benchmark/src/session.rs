//! One daemon session: `server::start` on loopback, real `Client` TCP
//! subscribers, a closed-loop chunked trace, SHUTDOWN, flush tail.
//!
//! The daemon is driven only through public API — the exact code the
//! `gsqd` binary wraps. With `epoch_gap_ms = 0` it pulls chunk `k + 1`
//! the moment epoch `k` completes, so the measured rate is the
//! saturation rate. Loopback, not a real link.

use crate::spans::Recorder;
use crate::util::process_cpu_s;
use crate::workloads::Workload;
use gigascope::server::client::Client;
use gigascope::server::wire::{self, LifeState};
use gigascope::server::{self, DaemonConfig, PacketSource};
use gigascope::Tuple;
use gs_packet::CapPacket;
use std::collections::hash_map::DefaultHasher;
use std::collections::BTreeMap;
use std::hash::{Hash, Hasher};
use std::net::{SocketAddr, TcpListener};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::thread;
use std::time::{Duration, Instant};

/// A daemon or client that stops answering must not hang the harness.
const READ_TIMEOUT: Duration = Duration::from_secs(60);

/// Per-connection outbound queue, in frames: more than any session sends.
/// The daemon's default (1024 frames, ~100 ms of `fanout` output) sheds
/// the rows of a subscriber whose thread loses its vCPU for longer than
/// that; on a shared host that happens, and it says nothing about the
/// daemon. A stalled subscriber falls behind here and catches up.
const CONN_QUEUE_FRAMES: usize = 1 << 18;

/// Before SHUTDOWN every subscriber must be within this many epochs of
/// the engine: at teardown the daemon cuts connections whose queues have
/// not drained within 200 ms.
const CAUGHT_UP_EPOCHS: u64 = 8;

/// How long a subscriber that fell behind is given to catch up.
const CATCH_UP_TIMEOUT: Duration = Duration::from_secs(20);

/// Target length of one measurement segment, seconds: long enough that
/// the 10 ms tick of `/proc/self/stat` CPU time is a few percent of it.
pub const SEGMENT_S: f64 = 0.25;

/// Order-independent fingerprint of a multiset of rows: the row count
/// plus two wrapping sums over a 64-bit hash of each row.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct RowSet {
    pub rows: u64,
    sum: u64,
    sum_sq: u64,
}

impl RowSet {
    pub fn add(&mut self, row: &Tuple) {
        let mut h = DefaultHasher::new();
        row.hash(&mut h);
        let h = h.finish();
        self.rows += 1;
        self.sum = self.sum.wrapping_add(h);
        self.sum_sq = self.sum_sq.wrapping_add(h.wrapping_mul(h | 1));
    }

    pub fn of(rows: &[Tuple]) -> RowSet {
        let mut s = RowSet::default();
        rows.iter().for_each(|r| s.add(r));
        s
    }
}

/// What one subscriber saw of one stream.
#[derive(Debug, Default, Clone)]
pub struct StreamSeen {
    pub rows: RowSet,
    /// Epoch of the first marker received.
    pub first_marker: Option<u64>,
    /// Epoch of the last marker received.
    pub last_marker: Option<u64>,
    /// Markers received.
    pub markers: u64,
    /// Markers that did not follow their predecessor by exactly one.
    pub marker_gaps: u64,
}

/// The measured window as the clock subscriber saw it.
#[derive(Debug, Clone)]
pub struct Window {
    /// `(wall s, process CPU s, traffic chunks completed)` since the
    /// window opened at the marker of the last lead-in epoch, sampled at
    /// the first epoch marker after every [`SEGMENT_S`]; the first is
    /// `(0, 0, 0)` and the last closes the window. Rates are reported as
    /// medians over these segments, so a transient stall of the host
    /// moves one segment, not the result.
    pub checkpoints: Vec<(f64, f64, usize)>,
    /// Marker-to-marker interval of every measured epoch, milliseconds.
    pub epoch_ms: Vec<f64>,
    /// The trace ran out before `--seconds` elapsed.
    pub trace_exhausted: bool,
}

impl Window {
    /// `(wall s, CPU s, traffic chunks)` of the whole window.
    pub fn total(&self) -> (f64, f64, usize) {
        self.checkpoints.last().copied().unwrap_or_default()
    }
}

/// Everything one subscriber connection observed.
#[derive(Default)]
pub struct SubscriberLog {
    pub streams: BTreeMap<String, StreamSeen>,
    pub frames: u64,
    pub bytes: u64,
    pub window: Option<Window>,
    /// When this subscriber began connecting and when its last SUBSCRIBE
    /// was acknowledged.
    pub connecting_at: Option<Instant>,
    pub subscribed_at: Option<Instant>,
    /// When the first epoch completed at this subscriber.
    pub first_epoch_at: Option<Instant>,
    pub spans: Option<Recorder>,
    /// A frame failed to decode or the stream ended mid-frame.
    pub error: Option<String>,
}

/// Outcome of one session.
pub struct SessionOutcome {
    pub subscribers: Vec<SubscriberLog>,
    /// The lead-in length the session ran with.
    pub lead_in: u64,
    /// Epochs the engine loop ran (the flush marker's epoch id): chunks
    /// `0..epochs_run` were consumed.
    pub epochs_run: u64,
    /// `server::start()` -> first marker on the clock subscriber.
    pub setup_s: f64,
    /// The latest first-marker epoch over every subscriber and stream:
    /// the epoch by which every SUBSCRIBE had landed.
    pub landed_epoch: u64,
    pub shed_items: u64,
    pub run_errors: u64,
    pub durable_write_failed: u64,
    pub unhealthy: Vec<String>,
    /// `VmHWM` after the session minus `VmRSS` before `start()`, MiB.
    pub rss_growth_mb: f64,
    pub spans: Option<Recorder>,
}

/// Why a session produced no measurement.
#[derive(Debug)]
pub enum SessionError {
    /// The first marker a subscriber saw was already past the lead-in:
    /// the window would be partial. Retry with a longer lead-in.
    SubscribeRace {
        first_marker: u64,
        lead_in: u64,
    },
    Failed(String),
}

impl std::fmt::Display for SessionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SessionError::SubscribeRace {
                first_marker,
                lead_in,
            } => write!(
                f,
                "subscribe race: first marker is epoch {first_marker}, lead-in ends at {lead_in}"
            ),
            SessionError::Failed(m) => f.write_str(m),
        }
    }
}

fn failed(what: &str, e: impl std::fmt::Display) -> SessionError {
    SessionError::Failed(format!("{what}: {e}"))
}

/// Session parameters.
pub struct SessionPlan<'a> {
    pub workload: &'a Workload,
    /// Lead-in chunks then traffic chunks; handed to the daemon.
    pub chunks: Vec<Vec<CapPacket>>,
    pub lead_in: u64,
    /// Stop once the window has lasted this long; `None` stops at the
    /// first marker (a set-up cycle).
    pub seconds: Option<f64>,
    pub state_dir: Option<PathBuf>,
    /// Start the subscribers before the daemon, against a port reserved
    /// in advance, so their SUBSCRIBEs land the moment the acceptor
    /// comes up instead of after `server::start()` returns. That call
    /// clones the packet source and drops the original — hundreds of
    /// milliseconds for a trace of millions of packets, during which the
    /// engine is already burning through the lead-in.
    pub preconnect: bool,
    /// Record harness-side spans (`--trace`).
    pub trace_base: Option<Instant>,
}

/// The daemon configuration every workload runs under: `gsqd` defaults
/// plus carry-state and closed-loop pacing.
pub fn daemon_config(
    w: &Workload,
    listen: String,
    source: PacketSource,
    state_dir: Option<PathBuf>,
) -> DaemonConfig {
    DaemonConfig {
        listen,
        source,
        ifaces: w.iface_defs(),
        initial_program: Some(w.program.clone()),
        epoch_gap_ms: 0,
        carry_state: true,
        batch_size: 256,
        parallelism: 1,
        conn_queue_frames: CONN_QUEUE_FRAMES,
        state_dir,
        ..DaemonConfig::default()
    }
}

enum Signal {
    /// The clock subscriber closed its window (or saw its first marker,
    /// in a set-up cycle).
    Done,
    Race(u64),
    Failed(String),
}

struct SubscriberTask {
    addr: SocketAddr,
    /// Set when the daemon failed to start: stop trying to connect.
    cancel: Arc<AtomicBool>,
    streams: Vec<String>,
    lead_in: u64,
    last_chunk_epoch: u64,
    seconds: Option<f64>,
    /// Only the clock subscriber (index 0) signals the main thread.
    signal: Option<mpsc::Sender<Signal>>,
    /// Epochs this subscriber has seen complete (last epoch id + 1).
    epochs_seen: Arc<AtomicU64>,
    trace_base: Option<Instant>,
}

impl SubscriberTask {
    fn run(mut self) -> SubscriberLog {
        let mut log = SubscriberLog {
            spans: self.trace_base.map(Recorder::new),
            connecting_at: Some(Instant::now()),
            ..SubscriberLog::default()
        };
        let (mut client, early) = match connect_subscribed(self.addr, &self.streams, &self.cancel) {
            Ok(c) => c,
            Err(e) => {
                if let Some(tx) = self.signal.take() {
                    let _ = tx.send(Signal::Failed(e.to_string()));
                }
                log.error = Some(e.to_string());
                return log;
            }
        };
        log.subscribed_at = Some(Instant::now());
        for s in &self.streams {
            log.streams.insert(s.clone(), StreamSeen::default());
        }
        let n_streams = self.streams.len();
        // Markers of one epoch arrive back to back, one per stream; the
        // epoch completes at the client when the last of them lands.
        let mut marking: (u64, usize) = (u64::MAX, 0);
        let mut last_complete: Option<Instant> = None;
        let mut window_start: Option<(Instant, f64)> = None;
        let mut checkpoints: Vec<(f64, f64, usize)> = Vec::new();
        let mut epoch_ms: Vec<f64> = Vec::new();
        let mut epoch_span_start: Option<u64> = None;
        let mut frame_spans: Vec<(u64, u64)> = Vec::new();
        let mut early = early.into_iter();
        loop {
            let body = match early.next() {
                Some(b) => b,
                None => match client.read_frame() {
                    Ok((wire::TUPLES, body)) => body,
                    Ok(_) => continue,
                    // The daemon closes every connection after the flush
                    // epoch: EOF here is the normal end of a session.
                    Err(_) => break,
                },
            };
            let t_frame = log.spans.as_ref().map(Recorder::now);
            log.frames += 1;
            log.bytes += body.len() as u64 + 5;
            let frame = match wire::decode_tuples(&body) {
                Ok(f) => f,
                Err(e) => {
                    log.error = Some(format!("undecodable TUPLES frame: {e}"));
                    break;
                }
            };
            let Some(seen) = log.streams.get_mut(&frame.stream) else {
                log.error = Some(format!("frame for unsubscribed stream `{}`", frame.stream));
                break;
            };
            if !frame.rows.is_empty() {
                for r in &frame.rows {
                    seen.rows.add(r);
                }
                if let (Some(rec), Some(t0)) = (log.spans.as_ref(), t_frame) {
                    frame_spans.push((t0, rec.now()));
                }
                continue;
            }
            // ---- End-of-epoch marker for one stream ---------------------
            let epoch = frame.epoch;
            if seen.first_marker.is_none() {
                seen.first_marker = Some(epoch);
                if epoch >= self.lead_in {
                    if let Some(tx) = &self.signal {
                        let _ = tx.send(Signal::Race(epoch));
                    }
                }
            } else if seen.last_marker.map(|l| l + 1) != Some(epoch) {
                seen.marker_gaps += 1;
            }
            seen.last_marker = Some(epoch);
            seen.markers += 1;
            // An epoch during which a SUBSCRIBE was still in flight
            // carries fewer markers and never completes; counting per
            // epoch id keeps later epochs aligned.
            marking = if marking.0 == epoch {
                (epoch, marking.1 + 1)
            } else {
                (epoch, 1)
            };
            if marking.1 < n_streams {
                continue;
            }
            let now = Instant::now();
            self.epochs_seen.store(epoch + 1, Ordering::Relaxed);
            if let Some(rec) = log.spans.as_mut() {
                let end = rec.at(now);
                if let Some(start) = epoch_span_start {
                    let parent = rec.add("epoch", start, end, None, Some(epoch));
                    for (s, e) in frame_spans.drain(..) {
                        rec.add("frame", s, e, Some(parent), Some(epoch));
                    }
                }
                frame_spans.clear();
                epoch_span_start = Some(end);
            }
            let interval_ms = last_complete.map(|p| (now - p).as_secs_f64() * 1e3);
            last_complete = Some(now);
            log.first_epoch_at.get_or_insert(now);
            if self.seconds.is_none() {
                // Set-up cycle: the first completed epoch is all it times.
                if let Some(tx) = self.signal.take() {
                    let _ = tx.send(Signal::Done);
                }
                continue;
            }
            if epoch + 1 == self.lead_in {
                window_start = Some((now, process_cpu_s()));
                checkpoints.push((0.0, 0.0, 0));
            } else if let (Some((t0, cpu0)), Some(tx)) = (window_start, self.signal.as_ref()) {
                epoch_ms.extend(interval_ms);
                let wall_s = (now - t0).as_secs_f64();
                let exhausted = epoch >= self.last_chunk_epoch;
                let closing = wall_s >= self.seconds.unwrap_or(0.0) || exhausted;
                let since = wall_s - checkpoints.last().map_or(0.0, |c| c.0);
                if closing || since >= SEGMENT_S {
                    if closing && since < SEGMENT_S / 2.0 && checkpoints.len() > 1 {
                        // Fold a stub of a closing segment into its
                        // predecessor: CPU ticks are too coarse for it.
                        checkpoints.pop();
                    }
                    // Traffic chunk k runs as epoch `lead_in + k`.
                    let chunks_done = (epoch + 1 - self.lead_in) as usize;
                    checkpoints.push((wall_s, process_cpu_s() - cpu0, chunks_done));
                }
                if closing {
                    log.window = Some(Window {
                        checkpoints: std::mem::take(&mut checkpoints),
                        epoch_ms: std::mem::take(&mut epoch_ms),
                        trace_exhausted: exhausted && wall_s < self.seconds.unwrap_or(0.0),
                    });
                    let _ = tx.send(Signal::Done);
                    self.signal = None;
                }
            }
        }
        log
    }
}

/// Connect (retrying while the daemon is still coming up) and SUBSCRIBE
/// to every stream; returns the client and any TUPLES frames that
/// overtook the SUBSCRIBE replies. `Client::subscribe` would park those
/// in a private inbox; driving the same frames through
/// `send_raw`/`read_frame` keeps them (and their byte counts) in the
/// subscriber's own accounting.
fn connect_subscribed(
    addr: SocketAddr,
    streams: &[String],
    cancel: &AtomicBool,
) -> Result<(Client, Vec<Vec<u8>>), SessionError> {
    let deadline = Instant::now() + READ_TIMEOUT;
    let mut c = loop {
        match Client::connect(addr) {
            Ok(c) => break c,
            Err(e) if cancel.load(Ordering::SeqCst) || Instant::now() > deadline => {
                return Err(failed("connect", e))
            }
            // Refused: the listener is not bound yet.
            Err(_) => thread::sleep(Duration::from_micros(200)),
        }
    };
    c.set_timeout(Some(READ_TIMEOUT))
        .map_err(|e| failed("set_timeout", e))?;
    let mut early = Vec::new();
    for s in streams {
        c.send_raw(wire::SUBSCRIBE, s.as_bytes())
            .map_err(|e| failed("subscribe", e))?;
        loop {
            match c.read_frame().map_err(|e| failed("subscribe", e))? {
                (wire::TUPLES, body) => early.push(body),
                (wire::OK, _) => break,
                (_, body) => {
                    return Err(failed("subscribe", String::from_utf8_lossy(&body)));
                }
            }
        }
    }
    Ok((c, early))
}

/// A loopback port that was free a moment ago.
fn reserve_port() -> Result<SocketAddr, SessionError> {
    let probe = TcpListener::bind("127.0.0.1:0").map_err(|e| failed("reserve port", e))?;
    probe.local_addr().map_err(|e| failed("reserve port", e))
}

/// Run one session to completion: start, subscribe, measure, SHUTDOWN,
/// drain the flush tail, join every thread.
pub fn run(plan: SessionPlan<'_>) -> Result<SessionOutcome, SessionError> {
    let w = plan.workload;
    let n_chunks = plan.chunks.len() as u64;
    let mut spans = plan.trace_base.map(Recorder::new);
    let rss_before = crate::util::process_mem_mb("VmRSS");
    let reserved = if plan.preconnect {
        Some(reserve_port()?)
    } else {
        None
    };
    let listen = reserved.map_or("127.0.0.1:0".to_string(), |a| a.to_string());
    let config = daemon_config(
        w,
        listen,
        PacketSource::Chunked(plan.chunks),
        plan.state_dir,
    );

    let (tx, rx) = mpsc::channel();
    let cancel = Arc::new(AtomicBool::new(false));
    let epochs_seen: Vec<Arc<AtomicU64>> = (0..w.subscribers).map(|_| Arc::default()).collect();
    let spawn_subscribers = |addr: SocketAddr| -> Vec<thread::JoinHandle<SubscriberLog>> {
        (0..w.subscribers)
            .map(|i| {
                let task = SubscriberTask {
                    addr,
                    cancel: cancel.clone(),
                    streams: w.subs.iter().map(|s| s.to_string()).collect(),
                    lead_in: plan.lead_in,
                    last_chunk_epoch: n_chunks.saturating_sub(1),
                    seconds: plan.seconds,
                    signal: (i == 0).then(|| tx.clone()),
                    epochs_seen: epochs_seen[i].clone(),
                    trace_base: plan.trace_base,
                };
                thread::spawn(move || task.run())
            })
            .collect()
    };
    let mut threads = reserved.map(&spawn_subscribers).unwrap_or_default();

    let t_start = Instant::now();
    let mut handle = match server::start(config) {
        Ok(h) => h,
        Err(e) => {
            cancel.store(true, Ordering::SeqCst);
            for t in threads {
                let _ = t.join();
            }
            return Err(failed("server::start", e));
        }
    };
    let t_started = Instant::now();
    let addr = handle.addr();
    if threads.is_empty() {
        threads = spawn_subscribers(addr);
    }
    drop(tx);
    let mut control = Client::connect(addr).map_err(|e| failed("connect control", e))?;
    control
        .set_timeout(Some(READ_TIMEOUT))
        .map_err(|e| failed("set_timeout", e))?;

    // The first signal in a measured session may be the window closing or
    // a race; in a set-up cycle it is the first marker.
    let budget = Duration::from_secs_f64(plan.seconds.unwrap_or(0.0) + 60.0);
    let signal = rx.recv_timeout(budget);

    // The window is closed; the engine runs on. A subscriber that fell
    // behind (the other one, or this one a moment ago) catches up before
    // SHUTDOWN, so the teardown grace only has a few epochs to drain.
    if plan.seconds.is_some() && matches!(signal, Ok(Signal::Done)) {
        let registry = handle.registry();
        let deadline = Instant::now() + CATCH_UP_TIMEOUT;
        loop {
            let engine = registry
                .snapshot()
                .iter()
                .find(|r| r.node == "daemon" && r.counter == "epochs")
                .map_or(0, |r| r.value);
            let slowest = epochs_seen
                .iter()
                .map(|e| e.load(Ordering::Relaxed))
                .min()
                .unwrap_or(0);
            if engine <= slowest + CAUGHT_UP_EPOCHS || Instant::now() > deadline {
                break;
            }
            thread::sleep(Duration::from_millis(1));
        }
    }

    // Connection queues must be read while the connections are still
    // registered (`daemon:conn:<id>` nodes vanish at teardown); sheds
    // during the flush tail are caught by the oracle as missing rows.
    let shed_items: u64 = handle
        .registry()
        .snapshot()
        .iter()
        .filter(|r| r.node.starts_with("daemon:conn:") && r.counter == "shed_items")
        .map(|r| r.value)
        .sum();
    let unhealthy: Vec<String> = control
        .health()
        .map(|rows| {
            rows.iter()
                .filter(|r| r.state != LifeState::Running || r.query == "durable:store")
                .map(|r| format!("{}:{:?}:{}", r.query, r.state, r.reason))
                .collect()
        })
        .unwrap_or_else(|e| vec![format!("HEALTH failed: {e}")]);
    let _ = control.shutdown();
    let logs: Vec<SubscriberLog> = threads
        .into_iter()
        .map(|t| {
            t.join().unwrap_or_else(|_| SubscriberLog {
                error: Some("subscriber thread panicked".to_string()),
                ..SubscriberLog::default()
            })
        })
        .collect();
    let registry = handle.registry();
    handle.shutdown();
    let counters = registry.snapshot();
    let sum = |node_prefix: &str, counter: &str| -> u64 {
        counters
            .iter()
            .filter(|r| r.node.starts_with(node_prefix) && r.counter == counter)
            .map(|r| r.value)
            .sum()
    };

    let first_epoch_at = logs.first().and_then(|l| l.first_epoch_at);
    let setup_s = first_epoch_at.map_or(0.0, |t| (t - t_start).as_secs_f64());
    if let (Some(rec), Some(clock), Some(t)) = (spans.as_mut(), logs.first(), first_epoch_at) {
        // The subscriber may have begun connecting before `start()` was
        // called (preconnect), so the root spans whichever came first.
        let (s0, s1, end) = (rec.at(t_start), rec.at(t_started), rec.at(t));
        let c0 = clock.connecting_at.map_or(s1, |t| rec.at(t));
        let c1 = clock.subscribed_at.map_or(s1, |t| rec.at(t));
        let root = rec.add("setup", s0.min(c0), end, None, None);
        rec.add("setup/start", s0, s1, Some(root), None);
        rec.add("setup/connect+subscribe", c0, c1, Some(root), None);
        rec.add("setup/first_marker", c1, end, Some(root), None);
    }
    match signal {
        Ok(Signal::Done) => {}
        Ok(Signal::Race(first_marker)) => {
            return Err(SessionError::SubscribeRace {
                first_marker,
                lead_in: plan.lead_in,
            })
        }
        Ok(Signal::Failed(e)) => return Err(SessionError::Failed(e)),
        Err(_) => {
            return Err(SessionError::Failed(
                "no window within the time budget".into(),
            ))
        }
    }
    let markers = |pick: fn(&StreamSeen) -> Option<u64>| {
        logs.iter()
            .flat_map(|l| l.streams.values())
            .filter_map(pick)
            .max()
            .unwrap_or(0)
    };
    // Every subscriber's every SUBSCRIBE must have landed inside the
    // lead-in (the clock subscriber reports its own race early, above).
    let landed_epoch = markers(|s| s.first_marker);
    if plan.seconds.is_some() && landed_epoch >= plan.lead_in {
        return Err(SessionError::SubscribeRace {
            first_marker: landed_epoch,
            lead_in: plan.lead_in,
        });
    }
    Ok(SessionOutcome {
        lead_in: plan.lead_in,
        // The flush epoch's marker carries the final engine epoch counter.
        epochs_run: markers(|s| s.last_marker),
        setup_s,
        landed_epoch,
        shed_items,
        run_errors: sum("daemon", "run_errors"),
        durable_write_failed: sum("durable", "write_failed"),
        unhealthy,
        rss_growth_mb: crate::util::process_mem_mb("VmHWM") - rss_before,
        spans,
        subscribers: logs,
    })
}
