//! `gsq` — run GSQL queries over packet traces or synthetic traffic from
//! the command line.
//!
//! ```text
//! gsq --program queries.gsql --subscribe tcpdest [options]
//!
//! options:
//!   --program <file>         GSQL program (required; `-` for stdin)
//!   --subscribe <a,b,...>    streams to print (default: every query)
//!   --iface <name=id[:link]> register an interface (default: eth0=0:ether)
//!                            links: ether | rawip | netflow | bgp
//!   --trace <file>           replay a .gsc capture trace
//!   --synthetic <mbps>x<ms>  generate a traffic mix instead (default 100x1000)
//!   --seed <n>               synthetic traffic seed (default 0)
//!   --param <q.name=value>   bind a query parameter
//!   --heartbeat <off|N|ondemand>  LFTA heartbeat policy (default 1 second)
//!   --explain                print the deployed plans and exit (no run)
//!   --stats                  print LFTA/engine statistics to stderr
//!
//! daemon client mode (`gsqd` wire protocol over TCP):
//!   --connect <addr>         talk to a running gsqd instead of running locally
//!   --connect-retries <n>    initial-connect attempts (default 5; a refused
//!                            connection retries with exponential backoff, so
//!                            scripted sessions don't race daemon startup)
//!   --connect-backoff-ms <n> base backoff between connect attempts, doubling
//!                            per retry up to 2 s (default 100)
//!   --epochs <n>             read n epochs of frames per subscribed stream
//!   --health                 poll per-query lifecycle health
//!   --unregister <name>      unregister a query
//!   --ping                   liveness probe
//!   --shutdown               stop the daemon after the other actions
//!   --drain                  after --shutdown, keep printing tuple frames
//!                            until the daemon closes the socket (collects
//!                            the shutdown flush tail)
//!
//! In connect mode `--program` registers the program with the daemon,
//! `--subscribe` subscribes to its output streams, and `--stats` polls
//! the daemon's GS_STATS counters. Actions run in order: ping,
//! register, subscribe, read epochs, health, stats, unregister,
//! shutdown.
//! ```
//!
//! Output is CSV: `stream,field1,field2,...` with a header per stream.

use gigascope::{Gigascope, ParamBindings, Value};
use gs_netgen::{MixConfig, PacketMix};
use gs_packet::capture::LinkType;
use gs_packet::CapPacket;
use gs_runtime::punct::HeartbeatMode;
use std::io::Read;
use std::process::exit;

struct Args {
    program: Option<String>,
    subscribe: Vec<String>,
    ifaces: Vec<(String, u16, LinkType)>,
    trace: Option<String>,
    synthetic: (f64, u64),
    seed: u64,
    params: Vec<(String, String, String)>,
    heartbeat: HeartbeatMode,
    explain: bool,
    stats: bool,
    connect: Option<String>,
    connect_retries: u32,
    connect_backoff_ms: u64,
    epochs: u64,
    health: bool,
    unregister: Option<String>,
    ping: bool,
    shutdown: bool,
    drain: bool,
}

fn usage(msg: &str) -> ! {
    eprintln!("gsq: {msg}\n\nusage: gsq --program <file> [--subscribe a,b] [--iface name=id[:link]]");
    eprintln!("           [--trace file.gsc | --synthetic <mbps>x<ms>] [--seed n]");
    eprintln!("           [--param q.name=value] [--heartbeat off|N|ondemand] [--stats]");
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

fn parse_args() -> Args {
    let mut args = Args {
        program: None,
        subscribe: Vec::new(),
        ifaces: Vec::new(),
        trace: None,
        synthetic: (100.0, 1000),
        seed: 0,
        params: Vec::new(),
        heartbeat: HeartbeatMode::Periodic { interval: 1 },
        explain: false,
        stats: false,
        connect: None,
        connect_retries: 5,
        connect_backoff_ms: 100,
        epochs: 0,
        health: false,
        unregister: None,
        ping: false,
        shutdown: false,
        drain: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut val = || it.next().unwrap_or_else(|| usage(&format!("{flag} needs a value")));
        match flag.as_str() {
            "--program" => args.program = Some(val()),
            "--subscribe" => {
                args.subscribe = val().split(',').map(str::to_string).collect();
            }
            "--iface" => {
                let v = val();
                let (name, rest) = v.split_once('=').unwrap_or_else(|| usage("--iface name=id[:link]"));
                let (id, link) = match rest.split_once(':') {
                    Some((id, link)) => (id, parse_link(link)),
                    None => (rest, LinkType::Ethernet),
                };
                let id: u16 = id.parse().unwrap_or_else(|_| usage("interface id must be a number"));
                args.ifaces.push((name.to_string(), id, link));
            }
            "--trace" => args.trace = Some(val()),
            "--synthetic" => {
                let v = val();
                let (mbps, ms) =
                    v.split_once('x').unwrap_or_else(|| usage("--synthetic <mbps>x<ms>"));
                args.synthetic = (
                    mbps.parse().unwrap_or_else(|_| usage("bad mbps")),
                    ms.parse().unwrap_or_else(|_| usage("bad ms")),
                );
            }
            "--seed" => args.seed = val().parse().unwrap_or_else(|_| usage("bad seed")),
            "--param" => {
                let v = val();
                let (qn, value) = v.split_once('=').unwrap_or_else(|| usage("--param q.name=value"));
                let (q, n) = qn.split_once('.').unwrap_or_else(|| usage("--param q.name=value"));
                args.params.push((q.to_string(), n.to_string(), value.to_string()));
            }
            "--heartbeat" => {
                let v = val();
                args.heartbeat = match v.as_str() {
                    "off" => HeartbeatMode::Off,
                    "ondemand" => HeartbeatMode::OnDemand,
                    n => HeartbeatMode::Periodic {
                        interval: n.parse().unwrap_or_else(|_| usage("bad heartbeat")),
                    },
                };
            }
            "--explain" => args.explain = true,
            "--stats" => args.stats = true,
            "--connect" => args.connect = Some(val()),
            "--connect-retries" => {
                args.connect_retries =
                    val().parse().unwrap_or_else(|_| usage("bad --connect-retries"))
            }
            "--connect-backoff-ms" => {
                args.connect_backoff_ms =
                    val().parse().unwrap_or_else(|_| usage("bad --connect-backoff-ms"))
            }
            "--epochs" => args.epochs = val().parse().unwrap_or_else(|_| usage("bad epochs")),
            "--health" => args.health = true,
            "--unregister" => args.unregister = Some(val()),
            "--ping" => args.ping = true,
            "--shutdown" => args.shutdown = true,
            "--drain" => args.drain = true,
            "--help" | "-h" => usage("help"),
            other => usage(&format!("unknown flag `{other}`")),
        }
    }
    args
}

fn parse_value(s: &str) -> Value {
    if let Ok(v) = s.parse::<u64>() {
        return Value::UInt(v);
    }
    if let Ok(v) = s.parse::<f64>() {
        return Value::Float(v);
    }
    if let Some(ip) = gs_packet::ip::parse_ipv4(s) {
        return Value::Ip(ip);
    }
    match s {
        "true" | "TRUE" => Value::Bool(true),
        "false" | "FALSE" => Value::Bool(false),
        other => Value::Str(bytes::Bytes::copy_from_slice(other.as_bytes())),
    }
}

/// Daemon client mode: run the requested protocol actions in order
/// against a live `gsqd`.
fn connect_mode(args: &Args, addr: &str) {
    use gigascope::server::client::Client;
    let mut client = Client::connect_retry(
        addr,
        args.connect_retries,
        std::time::Duration::from_millis(args.connect_backoff_ms),
    )
    .unwrap_or_else(|e| {
        eprintln!("gsq: connect {addr}: {e}");
        exit(1);
    });
    let _ = client.set_timeout(Some(std::time::Duration::from_secs(120)));
    let fail = |what: &str, e: &dyn std::fmt::Display| -> ! {
        eprintln!("gsq: {what}: {e}");
        exit(1);
    };

    if args.ping {
        client.ping().unwrap_or_else(|e| fail("ping", &e));
        println!("# pong");
    }
    if let Some(path) = &args.program {
        let text = if path == "-" {
            let mut s = String::new();
            std::io::stdin()
                .read_to_string(&mut s)
                .unwrap_or_else(|e| fail("reading stdin", &e));
            s
        } else {
            std::fs::read_to_string(path).unwrap_or_else(|e| fail(path, &e))
        };
        let names = client.register(&text).unwrap_or_else(|e| fail("register", &e));
        println!("# registered {}", names.join(","));
    }
    for stream in &args.subscribe {
        client.subscribe(stream).unwrap_or_else(|e| fail("subscribe", &e));
    }
    for _ in 0..args.epochs {
        for stream in &args.subscribe {
            let (epoch, rows) =
                client.read_epoch(stream).unwrap_or_else(|e| fail("read_epoch", &e));
            println!("# {stream} epoch {epoch}: {} rows", rows.len());
            for t in rows {
                let row: Vec<String> = t.values().iter().map(|v| v.to_string()).collect();
                println!("{stream},{}", row.join(","));
            }
        }
    }
    if args.health {
        let rows = client.health().unwrap_or_else(|e| fail("health", &e));
        for r in rows {
            println!("health,{},{:?},{},{}", r.query, r.state, r.restarts, r.reason);
        }
    }
    if args.stats {
        let rows = client.stats().unwrap_or_else(|e| fail("stats", &e));
        for (node, counter, value) in rows {
            eprintln!("stat,{node},{counter},{value}");
        }
    }
    if let Some(name) = &args.unregister {
        client.unregister(name).unwrap_or_else(|e| fail("unregister", &e));
        println!("# unregistered {name}");
    }
    if args.shutdown {
        client.shutdown().unwrap_or_else(|e| fail("shutdown", &e));
        println!("# daemon shutting down");
    }
    if args.drain {
        // The daemon's shutdown runs a flush epoch that emits the held
        // window tails before closing subscriber sockets; print those
        // final frames until the daemon hangs up.
        while let Ok(frame) = client.next_tuples() {
            println!("# {} flush: {} rows", frame.stream, frame.rows.len());
            for t in frame.rows {
                let row: Vec<String> = t.values().iter().map(|v| v.to_string()).collect();
                println!("{},{}", frame.stream, row.join(","));
            }
        }
    }
}

fn main() {
    let args = parse_args();
    if let Some(addr) = args.connect.clone() {
        connect_mode(&args, &addr);
        return;
    }
    let Some(program_path) = &args.program else { usage("--program is required") };
    let program = if program_path == "-" {
        let mut s = String::new();
        std::io::stdin().read_to_string(&mut s).unwrap_or_else(|e| {
            eprintln!("gsq: reading stdin: {e}");
            exit(1);
        });
        s
    } else {
        std::fs::read_to_string(program_path).unwrap_or_else(|e| {
            eprintln!("gsq: {program_path}: {e}");
            exit(1);
        })
    };

    let mut gs = Gigascope::new();
    gs.heartbeat = args.heartbeat;
    if args.ifaces.is_empty() {
        gs.add_interface("eth0", 0, LinkType::Ethernet);
    }
    for (name, id, link) in &args.ifaces {
        gs.add_interface(name, *id, *link);
    }

    let infos = gs.add_program(&program).unwrap_or_else(|e| {
        eprintln!("gsq: {e}");
        exit(1);
    });
    for i in &infos {
        for w in &i.warnings {
            eprintln!("gsq: warning: query `{}`: {w}", i.name);
        }
    }

    if args.explain {
        print!("{}", gs.explain_all());
        // The cross-query shared prefilter plan: deduplicated atom table
        // plus each LFTA's required atoms.
        match gs.explain_prefilter() {
            Ok(Some(plan)) => print!("\n{plan}"),
            Ok(None) => {}
            Err(e) => eprintln!("gsq: explain prefilter: {e}"),
        }
        return;
    }

    for (q, n, v) in &args.params {
        let mut p = gs
            .queries()
            .iter()
            .find(|d| &d.name == q)
            .map(|_| ParamBindings::new())
            .unwrap_or_else(|| {
                eprintln!("gsq: --param references unknown query `{q}`");
                exit(1);
            });
        p.set(n.clone(), parse_value(v));
        gs.set_params(q, p).unwrap();
    }

    let subscriptions: Vec<String> = if args.subscribe.is_empty() {
        // Hoisted FROM-clause subqueries are plumbing, not output the
        // user asked for.
        infos
            .iter()
            .filter(|i| !i.hoisted)
            .map(|i| i.name.clone())
            .collect()
    } else {
        args.subscribe.clone()
    };
    let sub_refs: Vec<&str> = subscriptions.iter().map(String::as_str).collect();

    let packets: Box<dyn Iterator<Item = CapPacket>> = match &args.trace {
        Some(path) => {
            let bytes = std::fs::read(path).unwrap_or_else(|e| {
                eprintln!("gsq: {path}: {e}");
                exit(1);
            });
            let pkts = gs_packet::capture::read_trace(&bytes).unwrap_or_else(|e| {
                eprintln!("gsq: {path}: {e}");
                exit(1);
            });
            Box::new(pkts.into_iter())
        }
        None => {
            let (mbps, ms) = args.synthetic;
            Box::new(PacketMix::new(MixConfig {
                seed: args.seed,
                duration_ms: ms,
                http_rate_mbps: mbps.min(60.0),
                background_rate_mbps: (mbps - 60.0).max(0.0),
                ..MixConfig::default()
            }))
        }
    };

    let out = gs.run_capture(packets, &sub_refs).unwrap_or_else(|e| {
        eprintln!("gsq: {e}");
        exit(1);
    });

    for name in &subscriptions {
        if let Some(schema) = gs.schema(name) {
            println!(
                "# {name}({})",
                schema.iter().map(|c| format!("{}:{}", c.name, c.ty)).collect::<Vec<_>>().join(",")
            );
        }
        for t in out.stream(name) {
            let row: Vec<String> = t.values().iter().map(|v| v.to_string()).collect();
            println!("{name},{}", row.join(","));
        }
    }

    if args.stats {
        eprintln!("packets: {}", out.stats.packets);
        eprintln!("heartbeat rounds: {}", out.stats.heartbeats);
        let mut names: Vec<_> = out.stats.lfta.keys().collect();
        names.sort();
        for n in names {
            let s = &out.stats.lfta[n];
            eprintln!(
                "lfta {n}: in={} bpf_rejected={} sampled_out={} not_proto={} filtered={} out={}",
                s.packets_in, s.prefiltered, s.sampled_out, s.not_protocol, s.filtered, s.tuples_out
            );
        }
        // The full self-monitoring snapshot — the same rows the built-in
        // GS_STATS stream emits, one `stat <node> <counter> = <value>`
        // line per registry entry.
        for row in &out.stats.counters {
            eprintln!("stat {} {} = {}", row.node, row.counter, row.value);
        }
    }
}
