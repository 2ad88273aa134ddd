//! CI perf gates: `gate <name>` runs one, `gate --all` runs every one.
//!
//! Each gate compares a measured side against a baseline on the
//! `manager/threaded_*` workloads of `benches/micro.rs`, interleaved —
//! `stats` and `snapshot` as the median of per-round ratios
//! ([`gs_bench::gate::paired_overhead`]), `durable` and `parallel` as a
//! ratio of fastest-of-N floors ([`gs_bench::gate::floors`]) — and fails
//! when the overhead passes its threshold:
//!
//! | gate       | measured vs baseline                            | bound |
//! |------------|-------------------------------------------------|-------|
//! | `stats`    | `stats_enabled` on vs off                       | 5%    |
//! | `snapshot` | stepped epoch (live resume + capture) vs plain  | 5%    |
//! | `durable`  | per-epoch durable commit vs the epoch it rides  | 10%   |
//! | `parallel` | `parallelism` 4 vs 1 (needs >= 4 logical CPUs)  | 10%   |
//!
//! A gate whose comparison needs more logical CPUs than the host has
//! still prints its numbers, then reports SKIP instead of a verdict.
//! `GS_BENCH_QUICK=1` shrinks traces for CI; the thresholds still
//! apply. Quick mode keeps round counts high on the short traces: a
//! median over many adjacent pairs holds a 5% line on a shared 2-vCPU
//! machine where longer runs (each more likely to be preempted) or a
//! ratio of minima (which latches on to one lucky run) do not.

use gigascope::manager::{run_threaded, run_threaded_opts, Stepper, ThreadedOptions};
use gigascope::Gigascope;
use gs_bench::gate::{floors, paired_overhead, timed};
use gs_packet::builder::FrameBuilder;
use gs_packet::capture::{CapPacket, LinkType};
use gs_runtime::durable::{DurableStats, DurableStore, RealDisk};
use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::Arc;

struct Gate {
    name: &'static str,
    /// Highest passing overhead, as a fraction of the baseline.
    threshold: f64,
    /// Fewest logical CPUs on which the comparison means anything.
    min_cpus: usize,
    run: fn(quick: bool) -> Vec<Measurement>,
}

/// One scenario's floors: `(label, seconds)` of the measured side and of
/// the baseline, and the overhead they amount to.
struct Measurement {
    scenario: &'static str,
    measured: (&'static str, f64),
    baseline: (&'static str, f64),
    overhead: f64,
}

const GATES: [Gate; 4] = [
    Gate { name: "stats", threshold: 0.05, min_cpus: 1, run: stats },
    Gate { name: "snapshot", threshold: 0.05, min_cpus: 1, run: snapshot },
    Gate { name: "durable", threshold: 0.10, min_cpus: 1, run: durable },
    Gate { name: "parallel", threshold: 0.10, min_cpus: 4, run: parallel },
];

/// The two transport points every single-instance gate measures.
const SCENARIOS: [(&str, usize); 2] = [("threaded_throughput", 256), ("threaded_batch_64", 64)];

const PERSEC: &str = "DEFINE { query_name raw; } Select time, len From eth0.tcp; \
     DEFINE { query_name persec; } \
     Select time, count(*), sum(len) From raw Group By time";
const PERSEC_SUBS: [&str; 2] = ["raw", "persec"];

/// `n` port-80 packets from `sources` distinct addresses at 2000
/// packets per second of stream time, as in `benches/micro.rs`.
fn trace(n: usize, sources: usize) -> Vec<CapPacket> {
    paced_trace(n, sources, 500_000)
}

/// [`trace`] with one packet every `step_ns` of stream time.
fn paced_trace(n: usize, sources: usize, step_ns: u64) -> Vec<CapPacket> {
    (0..n)
        .map(|i| {
            let f = FrameBuilder::tcp(0x0a00_0001 + (i % sources) as u32, 0xc0a8_0001, 1024, 80)
                .payload(b"x")
                .build_ethernet();
            CapPacket::full(i as u64 * step_ns, 0, LinkType::Ethernet, f)
        })
        .collect()
}

fn system(batch: usize, program: &str) -> Gigascope {
    let mut gs = Gigascope::new();
    gs.add_interface("eth0", 0, LinkType::Ethernet);
    gs.batch_size = batch;
    gs.add_program(program).unwrap();
    gs
}

/// One carry-mode epoch from bytes — restore the prior cut, process,
/// capture a new one — which is what a durable commit has to publish.
/// (With `PERSEC`'s one open group the restore is noise, so this also
/// stands in for the daemon's stepped steady state.) Returns the elapsed
/// seconds and the new cut.
fn carry_epoch(
    gs: &Gigascope,
    pkts: &[CapPacket],
    snaps: &Arc<HashMap<String, Vec<u8>>>,
) -> (f64, HashMap<String, Vec<u8>>) {
    let mut cut = HashMap::new();
    let secs = timed(|| {
        let opts = ThreadedOptions {
            capture: true,
            restore: Some(Arc::clone(snaps)),
            ..ThreadedOptions::default()
        };
        let out = run_threaded_opts(gs, pkts.iter().cloned(), &PERSEC_SUBS, opts).unwrap();
        assert!(out.health.notes().is_empty(), "checkpoint must restore clean");
        cut = out.snapshots;
    });
    (secs, cut)
}

/// A real checkpoint to restore every round: capturing over the first
/// half of the trace leaves the last 1-second window open in the cut,
/// so the decode path, table rebuild and watermark seeding are all on
/// the clock — not an empty-map fast path.
fn warm_cut(gs: &Gigascope, head: &[CapPacket]) -> Arc<HashMap<String, Vec<u8>>> {
    let warm = ThreadedOptions { capture: true, ..ThreadedOptions::default() };
    let snaps =
        run_threaded_opts(gs, head.iter().cloned(), &PERSEC_SUBS, warm).unwrap().snapshots;
    assert!(!snaps.is_empty(), "capture produced no checkpoint");
    Arc::new(snaps)
}

/// Self-monitoring must stay (nearly) free.
fn stats(quick: bool) -> Vec<Measurement> {
    let (n, rounds) = if quick { (4_000, 61) } else { (20_000, 31) };
    let pkts = trace(n, 7);
    let run =
        |gs: &Gigascope| timed(|| run_threaded(gs, pkts.iter().cloned(), &PERSEC_SUBS).unwrap());
    SCENARIOS
        .iter()
        .map(|&(scenario, batch)| {
            let on = system(batch, PERSEC);
            let mut off = system(batch, PERSEC);
            off.stats_enabled = false;
            let (on, off, overhead) = paired_overhead(rounds, || run(&on), || run(&off));
            Measurement {
                scenario,
                measured: ("stats-on", on),
                baseline: ("stats-off", off),
                overhead,
            }
        })
        .collect()
}

/// Per-source counts: one open group per source address per second, so
/// a cut over [`GROUP_SOURCES`] sources is worth guarding (`PERSEC` holds
/// one group — a cut of a few dozen bytes, whatever it costs).
const PERSRC: &str = "DEFINE { query_name raw; } Select time, srcIP, len From eth0.tcp; \
     DEFINE { query_name persrc; } \
     Select time, srcIP, count(*), sum(len) From raw Group By time, srcIP";
const PERSRC_SUBS: [&str; 1] = ["persrc"];
const GROUP_SOURCES: usize = 12_000;

/// The epoch boundary must stay cheap on the steady-state path, with a
/// cut that has something in it: 25 k packets per second of stream time
/// from 12 k sources, so the boundary before the timed part and the one
/// after it each hold more than 10 k open groups. Three ways through the
/// timed part: *stepped* — the daemon's steady state: the live operators
/// of the part before resume, and the cut is captured at the end (the
/// gate); *plain* — a run from empty state that flushes (the baseline);
/// and *from bytes* — the recovery path: a fresh run decodes the cut
/// first (printed for information; it is not on the steady-state path,
/// and pays a restore proportional to the cut).
fn snapshot(quick: bool) -> Vec<Measurement> {
    let (n, rounds) = if quick { (36_000, 21) } else { (60_000, 11) };
    let pkts = paced_trace(n, GROUP_SOURCES, 40_000);
    let (head, timed_part) = pkts.split_at(GROUP_SOURCES);
    let capture = || ThreadedOptions { capture: true, ..ThreadedOptions::default() };
    SCENARIOS
        .iter()
        .map(|&(scenario, batch)| {
            let gs = system(batch, PERSRC);
            let (stepped, plain, overhead) = paired_overhead(
                rounds,
                || {
                    // Untimed: bring a stepper to the boundary.
                    let mut stepper = Stepper::default();
                    stepper.step(&gs, head.iter().cloned(), &PERSRC_SUBS, capture()).unwrap();
                    timed(|| {
                        let out = stepper
                            .step(&gs, timed_part.iter().cloned(), &PERSRC_SUBS, capture())
                            .unwrap();
                        assert_eq!(out.nodes_restored, 0, "a stepped epoch reads no bytes");
                        out
                    })
                },
                || timed(|| run_threaded(&gs, timed_part.iter().cloned(), &PERSRC_SUBS).unwrap()),
            );
            let cut = Arc::new(
                run_threaded_opts(&gs, head.iter().cloned(), &PERSRC_SUBS, capture())
                    .unwrap()
                    .snapshots,
            );
            let from_bytes = (0..rounds.min(7))
                .map(|_| {
                    timed(|| {
                        let opts = ThreadedOptions { restore: Some(cut.clone()), ..capture() };
                        run_threaded_opts(&gs, timed_part.iter().cloned(), &PERSRC_SUBS, opts)
                            .unwrap()
                    })
                })
                .fold(f64::INFINITY, f64::min);
            println!(
                "snapshot: manager/{scenario}: {} KiB cut; from-bytes epoch {:.3} ms \
                 ({:+.2}% over plain, for information)",
                cut.values().map(Vec::len).sum::<usize>() / 1024,
                from_bytes * 1e3,
                (from_bytes / plain - 1.0) * 100.0
            );
            Measurement {
                scenario,
                measured: ("stepped", stepped),
                baseline: ("plain", plain),
                overhead,
            }
        })
        .collect()
}

/// The durable store must stay cheap per epoch. A `--state-dir` epoch
/// differs from a carry epoch in one way: after the cut is captured the
/// boundary publishes a segment (temp, fsync, rename, dir fsync) and
/// commits the epoch's emission markers to the fsynced log. That commit
/// is strictly additive, so the two parts are timed separately and
/// their floors compared (`commit / epoch`): timing the sum would
/// convolve epoch jitter with fsync's long tail, and the minimum would
/// rarely reach either floor. The epoch carries a realistic amount of
/// work — a daemon epoch spans hundreds of milliseconds of traffic,
/// which is what amortizes the fixed fsync floor in production too —
/// and round counts are higher than the CPU-only gates need, for the
/// same long tail.
fn durable(quick: bool) -> Vec<Measurement> {
    let (n, rounds) = if quick { (80_000, 14) } else { (160_000, 11) };
    let pkts = trace(n, 7);
    let (head, timed_half) = pkts.split_at(n / 2);
    let scratch = std::env::temp_dir().join(format!("gs_durable_bench_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&scratch);
    let streams: Vec<String> = PERSEC_SUBS.iter().map(|s| s.to_string()).collect();
    let out = SCENARIOS
        .iter()
        .map(|&(scenario, batch)| {
            let gs = system(batch, PERSEC);
            let snaps = warm_cut(&gs, head);
            let (mut store, recovery) = DurableStore::open(
                scratch.join(scenario),
                Arc::new(RealDisk),
                3,
                Arc::new(DurableStats::default()),
            )
            .expect("open state dir");
            assert!(!recovery.recovered, "scratch dir must start empty");
            // Each epoch hands its cut to the commit that follows it.
            let cut = RefCell::new(HashMap::new());
            let mut epoch = 0u64;
            let (epoch_secs, commit) = floors(
                rounds,
                || {
                    let (secs, new_cut) = carry_epoch(&gs, timed_half, &snaps);
                    *cut.borrow_mut() = new_cut;
                    secs
                },
                || {
                    epoch += 1;
                    let cursors: HashMap<String, u64> =
                        streams.iter().map(|s| (s.clone(), epoch + 1)).collect();
                    timed(|| {
                        store
                            .checkpoint(epoch + 1, &cut.borrow(), &cursors, &streams)
                            .and_then(|()| store.log_markers(epoch, &streams))
                            .expect("durable commit")
                    })
                },
            );
            Measurement {
                scenario,
                measured: ("commit", commit),
                baseline: ("epoch", epoch_secs),
                overhead: commit / epoch_secs,
            }
        })
        .collect();
    let _ = std::fs::remove_dir_all(&scratch);
    out
}

/// Partition-parallel HFTA execution must not cost throughput: a
/// multi-key aggregate over 1024 source addresses, so the hash router
/// actually spreads groups across shards. Only meaningful when 4 shard
/// threads can run concurrently (the >=1.5x speedup figure in DESIGN is
/// a manual measurement on such a machine, not a CI assertion).
fn parallel(quick: bool) -> Vec<Measurement> {
    let (n, rounds) = if quick { (4_000, 5) } else { (20_000, 9) };
    let pkts = trace(n, 1024);
    let system = |parallelism: usize| {
        let mut gs = Gigascope::new();
        gs.add_interface("eth0", 0, LinkType::Ethernet);
        gs.parallelism = parallelism;
        gs.add_program(
            "DEFINE { query_name raw; } Select time, srcIP, len From eth0.tcp; \
             DEFINE { query_name persrc; } \
             Select time, srcIP, count(*), sum(len) From raw Group By time, srcIP",
        )
        .unwrap();
        gs
    };
    let run =
        |gs: &Gigascope| timed(|| run_threaded(gs, pkts.iter().cloned(), &["persrc"]).unwrap());
    let (par4, par1) = (system(4), system(1));
    let (t4, t1) = floors(rounds, || run(&par4), || run(&par1));
    vec![Measurement {
        scenario: "threaded_par",
        measured: ("par4", t4),
        baseline: ("par1", t1),
        overhead: t4 / t1 - 1.0,
    }]
}

/// Run one gate; `true` unless it failed.
fn check(gate: &Gate, quick: bool, cpus: usize) -> bool {
    let mut ok = true;
    for m in (gate.run)(quick) {
        println!(
            "{}: manager/{}: {} {:.3} ms, {} {:.3} ms, overhead {:+.2}%",
            gate.name,
            m.scenario,
            m.measured.0,
            m.measured.1 * 1e3,
            m.baseline.0,
            m.baseline.1 * 1e3,
            m.overhead * 100.0
        );
        if cpus >= gate.min_cpus && m.overhead > gate.threshold {
            eprintln!(
                "FAIL: {} gate: manager/{} overhead {:.2}% exceeds {:.0}%",
                gate.name,
                m.scenario,
                m.overhead * 100.0,
                gate.threshold * 100.0
            );
            ok = false;
        }
    }
    if cpus < gate.min_cpus {
        println!(
            "SKIP: {} gate: {cpus} logical CPU(s) < {} — comparison not meaningful here",
            gate.name, gate.min_cpus
        );
    } else if ok {
        println!("OK: {} overhead within {:.0}%", gate.name, gate.threshold * 100.0);
    }
    ok
}

fn main() {
    let arg = std::env::args().nth(1).unwrap_or_default();
    let selected: Vec<&Gate> = GATES.iter().filter(|g| arg == "--all" || arg == g.name).collect();
    if selected.is_empty() {
        let names: Vec<&str> = GATES.iter().map(|g| g.name).collect();
        eprintln!("usage: gate <{}>|--all", names.join("|"));
        std::process::exit(2);
    }
    let quick = std::env::var("GS_BENCH_QUICK").is_ok_and(|v| v == "1");
    let cpus = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    // Run every selected gate even after a failure: one report, all verdicts.
    let failed = selected.iter().filter(|g| !check(g, quick, cpus)).count();
    if failed > 0 {
        std::process::exit(1);
    }
}
