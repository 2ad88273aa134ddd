//! One workload, start to finish: trace generation, set-up cycles, the
//! measured session, the oracle, and (with `--trace`) the traced session
//! and the stage replay.

use crate::replay;
use crate::session::{self, RowSet, SessionError, SessionOutcome, SessionPlan, Window};
use crate::spans::{self, NameSummary, Recorder};
use crate::trace::{self, BaseTrace};
use crate::util::{highest_supported_percentile, median, percentile, Json};
use crate::workloads::Workload;
use gigascope::manager::{run_threaded_opts, ThreadedOptions};
use gigascope::Gigascope;
use gs_packet::capture::LinkType;
use gs_runtime::punct::HeartbeatMode;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Run-wide settings from the command line.
pub struct Settings {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub quick: bool,
    /// Where results, trace files and durable state go (inside the
    /// checkout: the cargo target directory).
    pub out_dir: PathBuf,
}

/// A named measurement.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: &str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.to_string(),
        value,
        unit,
    }
}

/// Everything one workload produced.
pub struct WorkloadReport {
    pub name: &'static str,
    pub end_to_end: Vec<Metric>,
    pub per_layer: Vec<Metric>,
    pub attempted_ops: u64,
    pub failed_ops: u64,
    pub failures: Vec<String>,
    pub warnings: Vec<String>,
    /// Reproducibility record and sample counts, for the JSON output.
    pub info: BTreeMap<&'static str, String>,
    /// Per-name totals of the traced run's spans.
    pub span_summary: Vec<NameSummary>,
}

/// A `Gigascope` configured exactly as `server::start` configures the
/// daemon's, with the workload's program registered.
pub fn build_system(w: &Workload) -> Gigascope {
    let mut gs = Gigascope::new();
    gs.heartbeat = HeartbeatMode::Periodic { interval: 1 };
    gs.batch_size = 256;
    gs.parallelism = 1;
    for (name, id) in &w.ifaces {
        gs.add_interface(name, *id, LinkType::Ethernet);
    }
    gs.add_program(&w.program)
        .expect("workload program compiles");
    gs
}

struct StateDirs {
    root: PathBuf,
    next: usize,
}

impl StateDirs {
    /// A fresh, empty state directory (a recovered daemon is not a fresh
    /// start), or `None` for non-durable workloads.
    fn fresh(&mut self, w: &Workload) -> Option<PathBuf> {
        if !w.durable {
            return None;
        }
        self.next += 1;
        let dir = self
            .root
            .join(format!("{}-{}-{}", w.name, std::process::id(), self.next));
        let _ = std::fs::remove_dir_all(&dir);
        Some(dir)
    }
}

impl Drop for StateDirs {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.root);
    }
}

/// What the oracle says every subscriber must have received.
struct Oracle {
    streams: BTreeMap<String, RowSet>,
    packets: u64,
    engine_s: f64,
}

/// `Gigascope::run_capture` over the concatenation of every consumed
/// chunk — the single-threaded engine is both the reference result and
/// the baseline rate.
fn run_oracle(w: &Workload, base: &BaseTrace, traffic_chunks: usize) -> Oracle {
    let gs = build_system(w);
    let packets = base.packets_in(traffic_chunks);
    let t = Instant::now();
    let out = gs
        .run_capture(base.traffic(0..traffic_chunks), &w.subs)
        .expect("oracle run");
    let engine_s = t.elapsed().as_secs_f64();
    let streams = w
        .subs
        .iter()
        .map(|s| (s.to_string(), RowSet::of(out.stream(s))))
        .collect();
    Oracle {
        streams,
        packets,
        engine_s,
    }
}

/// Compare a session against the oracle; returns `(attempted, failed)`
/// and appends a line per discrepancy.
fn check(out: &SessionOutcome, oracle: &Oracle, failures: &mut Vec<String>) -> (u64, u64) {
    let mut attempted = 0u64;
    let mut failed = 0u64;
    let mut fail = |n: u64, msg: String| {
        failed += n.max(1);
        failures.push(msg);
    };
    for (i, sub) in out.subscribers.iter().enumerate() {
        if let Some(e) = &sub.error {
            fail(1, format!("subscriber {i}: {e}"));
        }
        for (stream, want) in &oracle.streams {
            let Some(seen) = sub.streams.get(stream) else {
                fail(
                    want.rows,
                    format!("subscriber {i}: stream {stream} never seen"),
                );
                continue;
            };
            // Markers first..=epochs_run must each arrive exactly once
            // (the last is the flush epoch's).
            let first = seen.first_marker.unwrap_or(out.epochs_run);
            let want_markers = out.epochs_run + 1 - first.min(out.epochs_run);
            attempted += want_markers + want.rows;
            if seen.markers != want_markers || seen.marker_gaps > 0 {
                fail(
                    want_markers.abs_diff(seen.markers) + seen.marker_gaps,
                    format!(
                        "subscriber {i}: stream {stream}: {} markers ({} gaps), expected {want_markers}",
                        seen.markers, seen.marker_gaps
                    ),
                );
            }
            if seen.rows != *want {
                fail(
                    want.rows.abs_diff(seen.rows.rows),
                    format!(
                        "subscriber {i}: stream {stream}: {} rows, oracle {} (multiset differs)",
                        seen.rows.rows, want.rows
                    ),
                );
            }
        }
    }
    if out.shed_items > 0 {
        fail(
            out.shed_items,
            format!("daemon:conn shed_items = {}", out.shed_items),
        );
    }
    if out.run_errors > 0 {
        fail(
            out.run_errors,
            format!("daemon run_errors = {}", out.run_errors),
        );
    }
    if out.durable_write_failed > 0 {
        fail(
            out.durable_write_failed,
            format!("durable write_failed = {}", out.durable_write_failed),
        );
    }
    for row in &out.unhealthy {
        fail(1, format!("health: {row}"));
    }
    (attempted, failed)
}

/// What the harness knows when it sizes a session.
struct Sizing {
    /// The epoch by which the last session's SUBSCRIBEs had all landed.
    /// Subscribers connect while `server::start()` is still running, so
    /// this is small whatever the trace size.
    landed_epoch: u64,
    /// The fastest empty epoch with nobody subscribed, seconds: the pace
    /// at which the engine burns through the lead-in before SUBSCRIBE.
    unsubscribed_epoch_s: f64,
    /// The daemon's packet rate on this workload, packets per second.
    rate: f64,
}

impl Sizing {
    /// Lead-in epochs: twice what the last session needed plus 10 ms of
    /// scheduling slack at the unsubscribed pace. Once somebody has
    /// subscribed, the rest of the lead-in runs several times slower
    /// (collector threads per epoch), so an oversized lead-in is paid
    /// for at the slow rate; an undersized one races (and is retried at
    /// twice the length).
    fn lead_in(&self) -> u64 {
        self.landed_epoch * 2 + ((0.01 / self.unsubscribed_epoch_s.max(2e-6)).ceil() as u64).max(32)
    }

    fn learn(&mut self, out: &SessionOutcome, observed_rate: f64) {
        self.landed_epoch = out.landed_epoch;
        self.rate = self.rate.max(observed_rate);
    }
}

/// The fastest of a few zero-packet, zero-subscription runs of the
/// threaded manager: what one lead-in epoch costs the engine before
/// anybody has subscribed.
fn unsubscribed_epoch_s(w: &Workload) -> f64 {
    let gs = build_system(w);
    (0..20)
        .map(|_| {
            let opts = ThreadedOptions {
                capture: true,
                ..ThreadedOptions::default()
            };
            let t = Instant::now();
            let _ = run_threaded_opts(&gs, std::iter::empty(), &[], opts);
            t.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min)
}

/// Packets in the calibration session's trace: enough for a stable rate
/// on the fastest workload, small enough to build and drop in ~0.3 s.
const CALIBRATION_PACKETS: f64 = 1.5e6;

/// Largest trace one session is given. A packet record is ~56 bytes and
/// `server::start()` holds a second copy, so this keeps the process
/// around half a gigabyte; a workload too fast for one such trace to
/// last `--seconds` is measured over several back-to-back sessions.
const MAX_SESSION_PACKETS: f64 = 4.0e6;

/// Head-room of the trace over `rate x seconds`, so the window closes on
/// the clock rather than on trace exhaustion.
const TRACE_HEADROOM: f64 = 1.3;

/// Retries of a session that lost the subscribe race. One is enough on a
/// quiet host; on a shared one a subscriber thread can lose its vCPU for
/// longer than a doubled lead-in lasts, twice in a row.
const RACE_RETRIES: usize = 5;

/// A pass that needs more sessions than this is not converging.
const MAX_SESSIONS: usize = 64;

/// One measurement pass (tracing off, or on): `--seconds` of saturated
/// daemon time over one or more sessions, every session oracle-checked.
#[derive(Default)]
struct Pass {
    sessions: usize,
    /// Sessions whose trace ran out before their share of the seconds.
    exhausted: usize,
    wall_s: f64,
    cpu_s: f64,
    packets: u64,
    epoch_ms: Vec<f64>,
    /// `(wall s, CPU s, packets)` of every measurement segment.
    segments: Vec<(f64, f64, u64)>,
    attempted: u64,
    failed: u64,
    engine_packets: u64,
    engine_s: f64,
    oracle_rows: u64,
    rows_out: u64,
    frames_out: u64,
    bytes_out: u64,
    shed_items: u64,
    run_errors: u64,
    write_failed: u64,
    rss_growth_mb: f64,
    lead_in_epochs: u64,
}

impl Pass {
    fn segment_median(&self, f: impl Fn(f64, f64, f64) -> f64) -> f64 {
        let per_segment: Vec<f64> = self
            .segments
            .iter()
            .map(|&(wall, cpu, pkts)| f(wall, cpu, pkts as f64))
            .collect();
        median(&per_segment)
    }

    /// Median segment rate: packets in the segment's chunks over its
    /// wall time at the client.
    fn pkts_per_s(&self) -> f64 {
        self.segment_median(|wall, _, pkts| pkts / wall)
    }

    /// Median segment CPU cost: process `utime + stime` over packets.
    fn cpu_us_per_pkt(&self) -> f64 {
        self.segment_median(|_, cpu, pkts| cpu * 1e6 / pkts)
    }

    /// Epoch intervals, ascending.
    fn sorted_epoch_ms(&self) -> Vec<f64> {
        let mut v = self.epoch_ms.clone();
        v.sort_by(f64::total_cmp);
        v
    }
}

/// One workload's run in progress: what every session needs.
struct Run<'a> {
    w: &'a Workload,
    base: &'a BaseTrace,
    sizing: Sizing,
    dirs: StateDirs,
    /// `start()` -> first marker of every set-up cycle so far, seconds.
    setup_s: Vec<f64>,
    warnings: Vec<String>,
    failures: Vec<String>,
}

impl Run<'_> {
    /// A group of fresh start -> first marker -> stop cycles. Groups run
    /// before the first session and after every session, so the samples
    /// behind `setup_s` are spread over the whole run and not bunched in
    /// its first 50 ms: a sub-millisecond latency measured in one burst
    /// reports the state of the host at that moment.
    fn setup_cycles(&mut self, cycles: usize) -> Result<(), String> {
        for _ in 0..cycles {
            let plan = SessionPlan {
                workload: self.w,
                // No chunks at all: every epoch past the end is empty.
                chunks: Vec::new(),
                lead_in: u64::MAX,
                seconds: None,
                state_dir: self.dirs.fresh(self.w),
                // The plain order a user follows: start, then connect.
                preconnect: false,
                trace_base: None,
            };
            let out = session::run(plan).map_err(|e| format!("set-up cycle: {e}"))?;
            self.setup_s.push(out.setup_s);
        }
        Ok(())
    }

    /// One session over `traffic_chunks` chunks with the subscribe-race
    /// guard: a run whose first marker is already past the lead-in is
    /// never measured; it is retried with the lead-in doubled, up to
    /// [`RACE_RETRIES`] times, then fails. Returns the outcome and its
    /// clock subscriber's window.
    fn session(
        &mut self,
        traffic_chunks: usize,
        seconds: f64,
        trace_base: Option<Instant>,
    ) -> Result<(SessionOutcome, Window), String> {
        let mut lead_in = self.sizing.lead_in();
        for attempt in 0..=RACE_RETRIES {
            let plan = SessionPlan {
                workload: self.w,
                chunks: self.base.source(lead_in as usize, traffic_chunks),
                lead_in,
                seconds: Some(seconds),
                state_dir: self.dirs.fresh(self.w),
                preconnect: true,
                trace_base,
            };
            match session::run(plan) {
                Ok(mut out) => {
                    let win = out.subscribers[0]
                        .window
                        .take()
                        .ok_or("session closed no window")?;
                    let (wall_s, _, chunks) = win.total();
                    self.sizing
                        .learn(&out, self.base.packets_in(chunks) as f64 / wall_s);
                    return Ok((out, win));
                }
                Err(SessionError::SubscribeRace { .. }) if attempt < RACE_RETRIES => {
                    self.warnings.push(format!(
                        "subscribe race with lead-in {lead_in}; retrying with {}",
                        lead_in * 2
                    ));
                    lead_in *= 2;
                }
                Err(e) => return Err(e.to_string()),
            }
        }
        unreachable!("the last attempt returns")
    }

    /// Back-to-back sessions until their windows add up to `seconds`. One
    /// is enough unless the workload is too fast for a single
    /// memory-bounded trace, or a trace ran out early because the rate
    /// estimate was low (the next one is sized from the observed rate).
    fn pass(&mut self, seconds: f64, mut rec: Option<&mut Recorder>) -> Result<Pass, String> {
        let base = self.base;
        let mut pass = Pass::default();
        while seconds - pass.wall_s > 0.05 * seconds {
            if pass.sessions >= MAX_SESSIONS {
                return Err(format!(
                    "{MAX_SESSIONS} sessions did not add up to {seconds} s"
                ));
            }
            let i = pass.sessions;
            pass.sessions += 1;
            let budget_s = MAX_SESSION_PACKETS / (self.sizing.rate * TRACE_HEADROOM);
            let session_s = (seconds - pass.wall_s).min(budget_s);
            let traffic_chunks = ((self.sizing.rate * session_s * TRACE_HEADROOM
                / base.packets_per_chunk())
            .ceil() as usize)
                .max(4);
            let trace_base = rec.as_ref().map(|r| r.base());
            let t0 = rec.as_ref().map(|r| r.now());
            let (mut out, win) = self
                .session(traffic_chunks, session_s, trace_base)
                .map_err(|e| format!("session {i}: {e}"))?;
            // Every epoch that ran past the lead-in consumed a chunk,
            // including the one or two after the window closed.
            let consumed =
                (out.epochs_run.saturating_sub(out.lead_in) as usize).min(traffic_chunks);
            let oracle = run_oracle(self.w, base, consumed);
            let (a, f) = check(&out, &oracle, &mut self.failures);
            self.setup_cycles(SETUP_GROUP)?;
            pass.attempted += a;
            pass.failed += f;
            for pair in win.checkpoints.windows(2) {
                let (a, b) = (pair[0], pair[1]);
                let pkts = base.packets_in(b.2) - base.packets_in(a.2);
                pass.segments.push((b.0 - a.0, b.1 - a.1, pkts));
            }
            let (wall_s, cpu_s, chunks) = win.total();
            pass.exhausted += usize::from(win.trace_exhausted);
            pass.wall_s += wall_s;
            pass.cpu_s += cpu_s;
            pass.packets += base.packets_in(chunks);
            pass.epoch_ms.extend(win.epoch_ms);
            pass.engine_packets += oracle.packets;
            pass.engine_s += oracle.engine_s;
            pass.oracle_rows += oracle.streams.values().map(|r| r.rows).sum::<u64>();
            let seen = || out.subscribers.iter().flat_map(|s| s.streams.values());
            pass.rows_out += seen().map(|s| s.rows.rows).sum::<u64>();
            pass.frames_out += out.subscribers.iter().map(|s| s.frames).sum::<u64>();
            pass.bytes_out += out.subscribers.iter().map(|s| s.bytes).sum::<u64>();
            pass.shed_items += out.shed_items;
            pass.run_errors += out.run_errors;
            pass.write_failed += out.durable_write_failed;
            pass.rss_growth_mb = pass.rss_growth_mb.max(out.rss_growth_mb);
            pass.lead_in_epochs = out.lead_in;
            if let (Some(rec), Some(t0)) = (rec.as_deref_mut(), t0) {
                let end = rec.now();
                rec.add("session", t0, end, None, None);
                let subscriber_spans = out.subscribers.iter_mut().filter_map(|s| s.spans.take());
                for s in out.spans.take().into_iter().chain(subscriber_spans) {
                    rec.merge(s);
                }
            }
        }
        Ok(pass)
    }
}

/// Run one workload and report.
pub fn run_workload(w: &Workload, cfg: &Settings) -> Result<WorkloadReport, String> {
    let mut info: BTreeMap<&'static str, String> = BTreeMap::new();

    // ---- Trace generation (excluded from setup_s) ------------------------
    let t = Instant::now();
    let base = trace::generate_base(w, cfg.seed);
    let tracegen_s = t.elapsed().as_secs_f64();
    info.insert("trace_hash", format!("{:016x}", base.hash));
    info.insert("base_packets", base.packets.to_string());
    let mut run = Run {
        w,
        base: &base,
        sizing: Sizing {
            landed_epoch: 0,
            unsubscribed_epoch_s: unsubscribed_epoch_s(w),
            rate: 0.0,
        },
        dirs: StateDirs {
            root: cfg.out_dir.join("state"),
            next: 0,
        },
        setup_s: Vec::new(),
        warnings: Vec::new(),
        failures: Vec::new(),
    };

    // ---- Warm-up: every run starts from the same host state ---------------
    warm_up(if cfg.quick { WARM_UP_S / 10.0 } else { WARM_UP_S });

    // ---- Set-up cycles: fresh start -> first marker ----------------------
    // The first group also warms the process up; its first cycles pay
    // for first-touch page faults and are dropped.
    run.setup_cycles(SETUP_WARMUP + SETUP_GROUP)?;
    run.setup_s.drain(..SETUP_WARMUP);

    // ---- Calibration session: the daemon's rate, and a warm-up ------------
    // The trace must outlast the window without wasting memory, so a
    // short session measures the rate first (`Sizing::learn`).
    let cal_packets = if cfg.quick {
        CALIBRATION_PACKETS / 4.0
    } else {
        CALIBRATION_PACKETS
    };
    let cal_chunks = ((cal_packets / base.packets_per_chunk()).ceil() as usize).max(4);
    run.session(cal_chunks, 0.3, None)
        .map_err(|e| format!("calibration session: {e}"))?;
    run.setup_cycles(SETUP_GROUP)?;
    info.insert("calibrated_pkts_per_s", format!("{:.0}", run.sizing.rate));

    // ---- Measured pass (tracing off) ---------------------------------------
    // With --trace the run's seconds are split between the two passes.
    let seconds = if cfg.trace {
        cfg.seconds / 2.0
    } else {
        cfg.seconds
    };
    let pass = run.pass(seconds, None)?;
    let sorted = pass.sorted_epoch_ms();
    let end_to_end = vec![
        metric("pkts_per_s", pass.pkts_per_s(), "1/s"),
        metric("epoch_ms_p50", percentile(&sorted, 50.0), "ms"),
        metric("cpu_us_per_pkt", pass.cpu_us_per_pkt(), "us/pkt"),
        metric("setup_s", median(&run.setup_s), "s"),
    ];
    let (mut attempted, mut failed) = (pass.attempted, pass.failed);
    info.insert("sessions", pass.sessions.to_string());
    info.insert("sessions_trace_exhausted", pass.exhausted.to_string());
    info.insert("measured_epochs", pass.epoch_ms.len().to_string());
    info.insert("measured_packets", pass.packets.to_string());
    info.insert("measured_window_s", format!("{:.3}", pass.wall_s));
    info.insert("measured_segments", pass.segments.len().to_string());
    info.insert(
        "window_mean_pkts_per_s",
        format!("{:.0}", pass.packets as f64 / pass.wall_s),
    );
    info.insert(
        "window_mean_cpu_us_per_pkt",
        format!("{:.4}", pass.cpu_s * 1e6 / pass.packets as f64),
    );
    info.insert("oracle_rows", pass.oracle_rows.to_string());
    info.insert("lead_in_epochs", pass.lead_in_epochs.to_string());
    info.insert("setup_cycles", run.setup_s.len().to_string());

    // ---- Traced pass and stage replay --------------------------------------
    let mut per_layer = Vec::new();
    let mut span_summary = Vec::new();
    if cfg.trace {
        let mut rec = Recorder::new(Instant::now());
        let traced = run.pass(seconds, Some(&mut rec))?;
        attempted += traced.attempted;
        failed += traced.failed;
        let tsorted = traced.sorted_epoch_ms();
        let tail = highest_supported_percentile(tsorted.len()).min(95.0);
        if tail < 95.0 {
            run.warnings.push(format!(
                "only {} traced epochs: server.epoch_ms_p95 reports p{tail}",
                tsorted.len()
            ));
        }
        let stage = replay::run(w, &base, cfg.quick, &cfg.out_dir, &mut rec);
        let ratio = stage.stage_sum_us_per_pkt / traced.cpu_us_per_pkt();
        if !(0.7..=1.3).contains(&ratio) {
            run.warnings.push(format!(
                "stage sum {:.3} us/pkt vs measured {:.3} us/pkt (ratio {ratio:.2}): the replay \
                 breakdown does not account for the session's CPU",
                stage.stage_sum_us_per_pkt,
                traced.cpu_us_per_pkt()
            ));
        }
        per_layer = stage.metrics;
        per_layer.extend([
            metric(
                "engine.pkts_per_s",
                traced.engine_packets as f64 / traced.engine_s,
                "1/s",
            ),
            metric("server.epoch_ms_p95", percentile(&tsorted, tail), "ms"),
            metric(
                "server.epoch_ms_max",
                tsorted.last().copied().unwrap_or(0.0),
                "ms",
            ),
            metric(
                "server.overhead_ms_per_epoch",
                percentile(&tsorted, 50.0) - stage.manager_run_ms,
                "ms",
            ),
            metric("server.rows_out", traced.rows_out as f64, "count"),
            metric("server.frames_out", traced.frames_out as f64, "count"),
            metric("server.bytes_out", traced.bytes_out as f64, "B"),
            metric("server.shed_items", traced.shed_items as f64, "count"),
            metric("server.run_errors", traced.run_errors as f64, "count"),
            metric("server.rss_growth_mb", traced.rss_growth_mb, "MiB"),
            metric("durable.write_failed", traced.write_failed as f64, "count"),
            metric("harness.tracegen_s", tracegen_s, "s"),
            metric(
                "harness.trace_overhead_pct",
                (pass.pkts_per_s() - traced.pkts_per_s()) / pass.pkts_per_s() * 100.0,
                "%",
            ),
            metric("harness.stage_sum_ratio", ratio, "ratio"),
            metric(
                "harness.traced_cpu_us_per_pkt",
                traced.cpu_us_per_pkt(),
                "us/pkt",
            ),
        ]);
        info.insert("traced_epochs", tsorted.len().to_string());
        info.insert("traced_packets", traced.packets.to_string());
        span_summary = spans::summarize(&rec.spans);
        write_trace_file(&cfg.out_dir, w.name, &rec, &span_summary)
            .map_err(|e| format!("trace file: {e}"))?;
    }

    Ok(WorkloadReport {
        name: w.name,
        end_to_end,
        per_layer,
        attempted_ops: attempted.max(1),
        failed_ops: failed,
        failures: run.failures,
        warnings: run.warnings,
        info,
        span_summary,
    })
}

/// Seconds every vCPU is kept busy before anything is timed.
const WARM_UP_S: f64 = 3.0;

/// Spin on every vCPU for `seconds`. On the reference host (2 vCPUs of a
/// shared machine) a VM that has just kept both vCPUs busy for ~2 s runs
/// in a slower state than one that sat idle for a minute: thread wake-ups
/// take ~65 % longer (`filter`'s `setup_s` 0.39 ms -> 0.64 ms) and the same
/// code costs ~13 % more CPU time. The state outlasts the load by tens of
/// seconds, and `filter` (one busy vCPU) neither enters nor leaves it, so
/// without this its numbers depended on what ran before it, and on how
/// long ago. Every other workload keeps both vCPUs busy by itself.
fn warm_up(seconds: f64) {
    let until = Instant::now() + std::time::Duration::from_secs_f64(seconds);
    let spinners = std::thread::available_parallelism().map_or(1, |n| n.get());
    std::thread::scope(|scope| {
        for _ in 0..spinners {
            scope.spawn(|| {
                let mut x = 0u64;
                while Instant::now() < until {
                    for i in 0..100_000u64 {
                        x = std::hint::black_box(x.wrapping_add(i * i));
                    }
                }
            });
        }
    });
}

/// Set-up cycles per group, and the first group's dropped warm-up cycles.
const SETUP_GROUP: usize = 8;
const SETUP_WARMUP: usize = 3;

/// `<out_dir>/<workload>.trace.json`: every span, plus the per-name
/// summary (self time = span minus the part its children cover).
fn write_trace_file(
    out_dir: &Path,
    workload: &str,
    rec: &Recorder,
    summary: &[NameSummary],
) -> std::io::Result<()> {
    let doc = Json::obj(vec![
        ("workload", Json::str(workload)),
        (
            "clock",
            Json::str("nanoseconds since the traced pass began"),
        ),
        (
            "summary",
            Json::Arr(
                summary
                    .iter()
                    .map(|s| {
                        Json::obj(vec![
                            ("name", Json::str(&s.name)),
                            ("count", Json::Int(s.count)),
                            ("total_ns", Json::Int(s.total_ns)),
                            ("self_ns", Json::Int(s.self_ns)),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("spans", rec.to_json()),
    ]);
    std::fs::create_dir_all(out_dir)?;
    std::fs::write(
        out_dir.join(format!("{workload}.trace.json")),
        format!("{doc}\n"),
    )
}
