//! `gsqd` — the always-on Gigascope query daemon.
//!
//! ```text
//! gsqd [options]
//!
//! options:
//!   --listen <addr>          bind address (default 127.0.0.1:5123; :0 picks a port)
//!   --program <file>         GSQL program to register at startup
//!   --iface <name=id[:link]> register an interface (default: eth0=0:ether)
//!   --trace <file>           loop a .gsc capture trace, one pass per epoch,
//!                            each pass shifted past the one before
//!   --synthetic <mbps>x<ms>  synthetic mix per epoch, epoch k starting at
//!                            k*ms of virtual time (default 100x100)
//!   --chunked <mbps>x<ms>x<n> ONE continuous synthetic trace sliced into n
//!                            per-epoch chunks
//!   --lead-in <n>            prepend n empty chunks to a --chunked source,
//!                            giving a client time to SUBSCRIBE before the
//!                            first real packet (CI equivalence checks)
//!   --seed <n>               base synthetic seed; epoch k uses seed+k
//!   --fault-panic <node>@<batch>  arm a deterministic panic injection at the
//!                            named node's n-th batch (CI/demo)
//!   --fault-epochs <lo>..<hi>  epoch ids during which the fault is armed
//!   --epoch-gap <ms>         pacing between epochs (default 100)
//!   --restart-budget <n>     automatic restarts per query (default 3)
//!   --backoff <n>            base restart backoff in epochs (default 1)
//!   --parallelism <n>        HFTA parallelism degree (default 1)
//!   --heartbeat <off|N>      LFTA heartbeat policy: off, or every N seconds
//!                            (default 1); on-demand heartbeats need the
//!                            one-shot `gsq` runner's synchronous engine
//!   --port-file <path>       write the bound address to a file, atomically
//!                            (CI uses this with --listen …:0)
//!   --state-dir <dir>        durable checkpoint directory: every epoch
//!                            boundary appends its markers, and every
//!                            cut, to an fsynced log, and a restarted
//!                            daemon pointed at the same directory resumes
//!                            mid-window instead of starting empty
//!   --retain <n>             cuts the log keeps when it is compacted
//!                            (default 3, at least 1)
//! ```
//!
//! The daemon serves the `gsqd` wire protocol until a client sends
//! SHUTDOWN (see `gsq --connect`). Clients REGISTER/UNREGISTER GSQL
//! programs, SUBSCRIBE to output streams, and poll HEALTH/STATS at
//! runtime; quarantined queries are restarted automatically with
//! bounded, backed-off retries. Operator state carries across epochs:
//! windows spanning epoch boundaries aggregate as one continuous run,
//! restarted queries resume from their last cut and replay the epochs
//! they missed, and SHUTDOWN flushes the held window tails.

use gigascope::server::{self, DaemonConfig, PacketSource};
use gs_packet::capture::LinkType;
use gs_runtime::punct::HeartbeatMode;
use std::process::exit;

fn usage(msg: &str) -> ! {
    eprintln!("gsqd: {msg}\n\nusage: gsqd [--listen addr] [--program file] [--iface name=id[:link]]");
    eprintln!("            [--trace file.gsc | --synthetic <mbps>x<ms> | --chunked <mbps>x<ms>x<n>]");
    eprintln!("            [--seed n] [--lead-in n] [--epoch-gap ms]");
    eprintln!("            [--fault-panic node@batch] [--fault-epochs lo..hi]");
    eprintln!("            [--restart-budget n] [--backoff n] [--parallelism n]");
    eprintln!("            [--heartbeat off|N] [--port-file path]");
    eprintln!("            [--state-dir dir] [--retain n (default 3, at least 1)]");
    exit(2);
}

fn parse_link(s: &str) -> LinkType {
    match s {
        "ether" | "ethernet" => LinkType::Ethernet,
        "rawip" | "ip" => LinkType::RawIp,
        "netflow" => LinkType::NetflowRecord,
        "bgp" => LinkType::BgpUpdate,
        other => usage(&format!("unknown link type `{other}`")),
    }
}

fn main() {
    let mut config = DaemonConfig {
        listen: "127.0.0.1:5123".to_string(),
        epoch_gap_ms: 100,
        ..DaemonConfig::default()
    };
    let mut synthetic = (100.0f64, 100u64);
    let mut chunked: Option<(f64, u64, u64)> = None;
    let mut seed = 0u64;
    let mut lead_in = 0usize;
    let mut trace: Option<String> = None;
    let mut port_file: Option<String> = None;

    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut val = || it.next().unwrap_or_else(|| usage(&format!("{flag} needs a value")));
        match flag.as_str() {
            "--listen" => config.listen = val(),
            "--program" => {
                let path = val();
                let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
                    eprintln!("gsqd: {path}: {e}");
                    exit(1);
                });
                config.initial_program = Some(text);
            }
            "--iface" => {
                let v = val();
                let (name, rest) =
                    v.split_once('=').unwrap_or_else(|| usage("--iface name=id[:link]"));
                let (id, link) = match rest.split_once(':') {
                    Some((id, link)) => (id, parse_link(link)),
                    None => (rest, LinkType::Ethernet),
                };
                let id: u16 = id.parse().unwrap_or_else(|_| usage("interface id must be a number"));
                config.ifaces.push((name.to_string(), id, link));
            }
            "--trace" => trace = Some(val()),
            "--synthetic" => {
                let v = val();
                let (mbps, ms) =
                    v.split_once('x').unwrap_or_else(|| usage("--synthetic <mbps>x<ms>"));
                synthetic = (
                    mbps.parse().unwrap_or_else(|_| usage("bad mbps")),
                    ms.parse().unwrap_or_else(|_| usage("bad ms")),
                );
            }
            "--chunked" => {
                let v = val();
                let mut parts = v.split('x');
                let mbps: f64 = parts
                    .next()
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage("--chunked <mbps>x<ms>x<epochs>"));
                let ms: u64 = parts
                    .next()
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage("--chunked <mbps>x<ms>x<epochs>"));
                let n: u64 = parts
                    .next()
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage("--chunked <mbps>x<ms>x<epochs>"));
                chunked = Some((mbps, ms, n));
            }
            "--seed" => seed = val().parse().unwrap_or_else(|_| usage("bad seed")),
            "--lead-in" => lead_in = val().parse().unwrap_or_else(|_| usage("bad --lead-in")),
            "--fault-panic" => {
                let v = val();
                let (node, batch) =
                    v.split_once('@').unwrap_or_else(|| usage("--fault-panic node@batch"));
                let batch: u64 =
                    batch.parse().unwrap_or_else(|_| usage("bad --fault-panic batch"));
                config.faults = Some(
                    config.faults.take().unwrap_or_default().panic_at(node.to_string(), batch),
                );
            }
            "--fault-epochs" => {
                let v = val();
                let (lo, hi) =
                    v.split_once("..").unwrap_or_else(|| usage("--fault-epochs lo..hi"));
                let lo: u64 = lo.parse().unwrap_or_else(|_| usage("bad --fault-epochs"));
                let hi: u64 = hi.parse().unwrap_or_else(|_| usage("bad --fault-epochs"));
                config.fault_epochs = lo..hi;
            }
            "--epoch-gap" => {
                config.epoch_gap_ms = val().parse().unwrap_or_else(|_| usage("bad epoch gap"))
            }
            "--restart-budget" => {
                config.restart_budget = val().parse().unwrap_or_else(|_| usage("bad budget"))
            }
            "--backoff" => {
                config.backoff_base = val().parse().unwrap_or_else(|_| usage("bad backoff"))
            }
            "--parallelism" => {
                config.parallelism = val().parse().unwrap_or_else(|_| usage("bad parallelism"))
            }
            "--heartbeat" => {
                let v = val();
                config.heartbeat = match v.as_str() {
                    "off" => HeartbeatMode::Off,
                    n => HeartbeatMode::Periodic {
                        interval: n.parse().unwrap_or_else(|_| {
                            usage("bad heartbeat: the daemon supports `off` or a period in seconds")
                        }),
                    },
                };
            }
            "--port-file" => port_file = Some(val()),
            "--state-dir" => config.state_dir = Some(val().into()),
            "--retain" => {
                config.retain_checkpoints = val().parse().unwrap_or_else(|_| usage("bad --retain"))
            }
            "--help" | "-h" => usage("help"),
            other => usage(&format!("unknown flag `{other}`")),
        }
    }

    config.source = match trace {
        Some(path) => {
            let bytes = std::fs::read(&path).unwrap_or_else(|e| {
                eprintln!("gsqd: {path}: {e}");
                exit(1);
            });
            let packets = gs_packet::capture::read_trace(&bytes).unwrap_or_else(|e| {
                eprintln!("gsqd: {path}: {e}");
                exit(1);
            });
            PacketSource::Replay(packets)
        }
        None => match chunked {
            Some((mbps, ms, n)) => PacketSource::chunked_synthetic(mbps, ms, n, seed),
            None => PacketSource::Synthetic { mbps: synthetic.0, epoch_ms: synthetic.1, seed },
        },
    };
    if lead_in > 0 {
        // Empty lead-in epochs pad a chunk list; the generated sources
        // have no list to pad.
        let PacketSource::Chunked(chunks) = &mut config.source else {
            usage("--lead-in requires --chunked");
        };
        let mut led = vec![Vec::new(); lead_in];
        led.append(chunks);
        *chunks = led;
    }

    let mut daemon = server::start(config).unwrap_or_else(|e| {
        eprintln!("gsqd: {e}");
        exit(1);
    });
    eprintln!("gsqd: listening on {}", daemon.addr());
    if let Some(path) = port_file {
        // Atomic publish (temp + fsync + rename): a reader polling the
        // file sees the whole address or nothing, never a prefix.
        if let Err(e) = gs_runtime::durable::atomic_write_file(&path, daemon.addr().to_string().as_bytes()) {
            eprintln!("gsqd: writing {path}: {e}");
            exit(1);
        }
    }
    daemon.wait();
    eprintln!("gsqd: shut down");
}
