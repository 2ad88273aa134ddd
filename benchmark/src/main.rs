//! `gsbench`: the gsqd end-to-end benchmark (see `benchmark/README.md`).
//!
//! Drives the daemon only through public API — `server::start` on
//! loopback, real `Client` TCP subscribers, `PacketSource::Chunked`
//! input — checks every session against `Gigascope::run_capture`, and
//! prints every metric by name with its unit.

mod bench;
mod manifest;
mod replay;
mod session;
mod spans;
mod trace;
mod util;
mod workloads;

use bench::{Metric, Settings, WorkloadReport};
use manifest::MetricDef;
use std::path::PathBuf;
use std::process::ExitCode;
use util::Json;

const USAGE: &str =
    "usage: gsbench [--workload NAME|all] [--seed N] [--seconds S] [--trace [0|1]] \
                     [--quick] [--out-dir DIR] [--manifest]";

struct Cli {
    workloads: Vec<String>,
    settings: Settings,
    manifest: bool,
}

fn parse_args() -> Result<Cli, String> {
    let mut args = std::env::args().skip(1).peekable();
    let mut workloads = Vec::new();
    let mut seed = 1u64;
    let mut seconds: Option<f64> = None;
    let mut trace = false;
    let mut quick = false;
    let mut manifest = false;
    let mut out_dir = PathBuf::from("target/benchmark");
    while let Some(arg) = args.next() {
        let mut value = |what: &str| args.next().ok_or(format!("{what} needs a value\n{USAGE}"));
        match arg.as_str() {
            "--workload" => workloads.push(value("--workload")?),
            "--seed" => {
                seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                let s: f64 = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_string());
                }
                seconds = Some(s);
            }
            "--out-dir" => out_dir = PathBuf::from(value("--out-dir")?),
            // `--trace` alone switches tracing on; the driver's form is
            // `--trace 0|1`.
            "--trace" => {
                trace = match args.peek().map(String::as_str) {
                    Some("0") => {
                        args.next();
                        false
                    }
                    Some("1") => {
                        args.next();
                        true
                    }
                    _ => true,
                }
            }
            "--quick" => quick = true,
            "--manifest" => manifest = true,
            "-h" | "--help" => return Err(USAGE.to_string()),
            other => return Err(format!("unknown argument `{other}`\n{USAGE}")),
        }
    }
    let known: Vec<&str> = workloads::all().iter().map(|w| w.name).collect();
    workloads.retain(|w| w != "all");
    if let Some(bad) = workloads.iter().find(|w| !known.contains(&w.as_str())) {
        return Err(format!(
            "unknown workload `{bad}` (known: {})",
            known.join(", ")
        ));
    }
    // --quick: the whole set in ~15 s; same metric names, numbers not
    // comparable with a full run.
    let seconds = seconds.unwrap_or(if quick {
        0.6
    } else {
        manifest::RUN_SECONDS as f64
    });
    Ok(Cli {
        workloads,
        settings: Settings {
            seed,
            seconds,
            trace,
            quick,
            out_dir,
        },
        manifest,
    })
}

fn metrics_json(metrics: &[Metric]) -> Json {
    Json::Obj(
        metrics
            .iter()
            .map(|m| {
                (
                    m.name.clone(),
                    Json::obj(vec![
                        ("value", Json::Num(m.value)),
                        ("unit", Json::str(m.unit)),
                    ]),
                )
            })
            .collect(),
    )
}

/// The driver's result line: exactly `correct`, `attempted`, `failed`,
/// `metrics` — end-to-end metrics untraced, per-layer metrics traced.
fn contract_line(r: &WorkloadReport, trace: bool) -> Json {
    Json::obj(vec![
        ("correct", Json::Bool(r.failed_ops == 0)),
        ("attempted", Json::Int(r.attempted_ops)),
        ("failed", Json::Int(r.failed_ops)),
        (
            "metrics",
            metrics_json(if trace { &r.per_layer } else { &r.end_to_end }),
        ),
    ])
}

/// Reported metrics must be exactly the manifest's: same names, same
/// units, same order.
fn check_against_manifest(got: &[Metric], want: &[MetricDef]) -> Result<(), String> {
    let g: Vec<(&str, &str)> = got.iter().map(|m| (m.name.as_str(), m.unit)).collect();
    let w: Vec<(&str, &str)> = want.iter().map(|m| (m.name, m.unit)).collect();
    if g != w {
        return Err(format!(
            "reported metrics differ from the manifest:\n got {g:?}\nwant {w:?}"
        ));
    }
    Ok(())
}

fn print_table(title: &str, metrics: &[Metric]) {
    println!("  {title}");
    for m in metrics {
        println!("    {:<38} {:>18.4} {}", m.name, m.value, m.unit);
    }
}

fn host_record(cfg: &Settings) -> Vec<(&'static str, Json)> {
    let read = |p: &str| std::fs::read_to_string(p).unwrap_or_default();
    let state_root = cfg.out_dir.join("state");
    let state_abs = std::fs::canonicalize(&cfg.out_dir)
        .map(|p| p.join("state"))
        .unwrap_or(state_root)
        .to_string_lossy()
        .into_owned();
    vec![
        ("seed", Json::Int(cfg.seed)),
        ("seconds", Json::Num(cfg.seconds)),
        ("mode", Json::str(if cfg.quick { "quick" } else { "full" })),
        ("trace", Json::Bool(cfg.trace)),
        (
            "git_commit",
            Json::Str(std::env::var("GSBENCH_COMMIT").unwrap_or_else(|_| "unknown".into())),
        ),
        (
            "nproc",
            Json::Int(std::thread::available_parallelism().map_or(0, |n| n.get() as u64)),
        ),
        (
            "cpu_model",
            Json::Str(
                util::parse_cpu_model(&read("/proc/cpuinfo")).unwrap_or_else(|| "unknown".into()),
            ),
        ),
        ("state_dir", Json::Str(state_abs.clone())),
        (
            "state_dir_fs",
            Json::Str(
                util::parse_fs_type(&read("/proc/mounts"), &state_abs)
                    .unwrap_or_else(|| "unknown".into()),
            ),
        ),
        ("link", Json::str("loopback (127.0.0.1), not a real link")),
        (
            "load",
            Json::str("closed loop: epoch_gap_ms=0, one harness process"),
        ),
    ]
}

fn main() -> ExitCode {
    let cli = match parse_args() {
        Ok(c) => c,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    if cli.manifest {
        println!("{}", manifest::benchmark_json());
        return ExitCode::SUCCESS;
    }
    let cfg = &cli.settings;
    if let Err(e) = std::fs::create_dir_all(&cfg.out_dir) {
        eprintln!("cannot create {}: {e}", cfg.out_dir.display());
        return ExitCode::from(2);
    }
    let record = host_record(cfg);
    println!("gsqd end-to-end benchmark — loopback, closed loop (epoch_gap_ms=0), one process");
    for (k, v) in &record {
        println!("  {k:<14} {v}");
    }

    let mut results = Vec::new();
    let mut ok = true;
    for w in workloads::all() {
        if !cli.workloads.is_empty() && !cli.workloads.iter().any(|n| n == w.name) {
            continue;
        }
        println!("\n== {} — {}", w.name, w.why);
        let report = bench::run_workload(&w, cfg).and_then(|r| {
            check_against_manifest(&r.end_to_end, &manifest::END_TO_END)?;
            if cfg.trace {
                check_against_manifest(&r.per_layer, &manifest::PER_LAYER)?;
            }
            Ok(r)
        });
        let r = match report {
            Ok(r) => r,
            Err(e) => {
                // No result line: the run measured nothing it can vouch for.
                eprintln!("{}: {e}", w.name);
                return ExitCode::FAILURE;
            }
        };
        print_table("end-to-end (tracing off)", &r.end_to_end);
        if cfg.trace {
            print_table("per-layer (traced session + stage replay)", &r.per_layer);
        }
        if !r.span_summary.is_empty() {
            println!("  spans (self = span minus its children)");
            println!(
                "    {:<38} {:>9} {:>14} {:>14}",
                "name", "count", "total ms", "self ms"
            );
            for s in &r.span_summary {
                println!(
                    "    {:<38} {:>9} {:>14.3} {:>14.3}",
                    s.name,
                    s.count,
                    s.total_ns as f64 / 1e6,
                    s.self_ns as f64 / 1e6
                );
            }
        }
        println!("  samples");
        for (k, v) in &r.info {
            println!("    {k:<38} {v}");
        }
        println!(
            "  failed_ops/attempted_ops: {}/{}",
            r.failed_ops, r.attempted_ops
        );
        for f in &r.failures {
            println!("  FAIL {f}");
        }
        for f in &r.warnings {
            println!("  WARN {f}");
        }
        ok &= r.failed_ops == 0;
        results.push(r);
    }

    let all = Json::obj(vec![
        (
            "record",
            Json::Obj(
                record
                    .into_iter()
                    .map(|(k, v)| (k.to_string(), v))
                    .collect(),
            ),
        ),
        (
            "workloads",
            Json::Arr(
                results
                    .iter()
                    .map(|r| {
                        Json::obj(vec![
                            ("name", Json::str(r.name)),
                            ("correct", Json::Bool(r.failed_ops == 0)),
                            ("attempted_ops", Json::Int(r.attempted_ops)),
                            ("failed_ops", Json::Int(r.failed_ops)),
                            ("end_to_end", metrics_json(&r.end_to_end)),
                            ("per_layer", metrics_json(&r.per_layer)),
                            (
                                "info",
                                Json::Obj(
                                    r.info
                                        .iter()
                                        .map(|(k, v)| (k.to_string(), Json::str(v)))
                                        .collect(),
                                ),
                            ),
                            (
                                "failures",
                                Json::Arr(r.failures.iter().map(Json::str).collect()),
                            ),
                            (
                                "warnings",
                                Json::Arr(r.warnings.iter().map(Json::str).collect()),
                            ),
                        ])
                    })
                    .collect(),
            ),
        ),
    ]);
    let results_path = cfg.out_dir.join("results.json");
    if let Err(e) = std::fs::write(&results_path, format!("{all}\n")) {
        eprintln!("cannot write {}: {e}", results_path.display());
        return ExitCode::FAILURE;
    }
    println!("\nresults: {}", results_path.display());
    // One result line per workload; with a single --workload it is the
    // last line of standard output, as the driver expects.
    for r in &results {
        println!("{}", contract_line(r, cfg.trace));
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
