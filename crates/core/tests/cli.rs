//! Integration tests of the `gsq` command-line front end, driving the
//! compiled binary exactly as an analyst would.

use std::io::Write;
use std::process::{Command, Stdio};

fn gsq() -> Command {
    Command::new(env!("CARGO_BIN_EXE_gsq"))
}

fn write_program(contents: &str) -> tempfile::TempPath {
    let mut f = tempfile::NamedTempFile::new().expect("temp file");
    f.write_all(contents.as_bytes()).expect("write");
    f.into_temp_path()
}

// A minimal temp-file helper so the test crate needs no extra deps.
mod tempfile {
    use std::path::{Path, PathBuf};

    pub struct NamedTempFile {
        path: PathBuf,
        file: std::fs::File,
    }

    pub struct TempPath(PathBuf);

    impl NamedTempFile {
        pub fn new() -> std::io::Result<NamedTempFile> {
            let path = std::env::temp_dir().join(format!(
                "gsq_test_{}_{:x}.gsql",
                std::process::id(),
                std::time::SystemTime::now()
                    .duration_since(std::time::UNIX_EPOCH)
                    .unwrap()
                    .as_nanos()
            ));
            Ok(NamedTempFile { file: std::fs::File::create(&path)?, path })
        }

        pub fn into_temp_path(self) -> TempPath {
            TempPath(self.path)
        }
    }

    impl std::io::Write for NamedTempFile {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.file.write(buf)
        }
        fn flush(&mut self) -> std::io::Result<()> {
            self.file.flush()
        }
    }

    impl std::ops::Deref for TempPath {
        type Target = Path;
        fn deref(&self) -> &Path {
            &self.0
        }
    }

    impl Drop for TempPath {
        fn drop(&mut self) {
            let _ = std::fs::remove_file(&self.0);
        }
    }
}

const PROGRAM: &str = "INTERFACE eth0 0 ether;\n\
    DEFINE { query_name persec; }\n\
    Select time, count(*) From eth0.tcp Where destPort = 80 Group By time\n";

#[test]
fn runs_synthetic_and_prints_csv() {
    let p = write_program(PROGRAM);
    let out = gsq()
        .args(["--program", p.to_str().unwrap(), "--synthetic", "50x300", "--seed", "3"])
        .output()
        .expect("gsq runs");
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("# persec(time:uint,count:uint)"), "{stdout}");
    assert!(stdout.lines().any(|l| l.starts_with("persec,")), "{stdout}");
}

#[test]
fn explain_shows_the_split_without_running() {
    let p = write_program(PROGRAM);
    let out = gsq().args(["--program", p.to_str().unwrap(), "--explain"]).output().unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("LFTA persec__lfta0"), "{stdout}");
    assert!(stdout.contains("NIC prefilter: BPF"), "{stdout}");
    assert!(stdout.contains("HFTA (stream operators):"), "{stdout}");
    assert!(!stdout.contains("persec,"), "explain must not execute the query");
}

#[test]
fn reads_program_from_stdin() {
    let mut child = gsq()
        .args(["--program", "-", "--synthetic", "30x200"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    child.stdin.as_mut().unwrap().write_all(PROGRAM.as_bytes()).unwrap();
    let out = child.wait_with_output().unwrap();
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    assert!(String::from_utf8_lossy(&out.stdout).contains("persec,"));
}

#[test]
fn same_seed_is_deterministic() {
    let p = write_program(PROGRAM);
    let run = || {
        let out = gsq()
            .args(["--program", p.to_str().unwrap(), "--synthetic", "40x300", "--seed", "11"])
            .output()
            .unwrap();
        assert!(out.status.success());
        out.stdout
    };
    assert_eq!(run(), run(), "same seed must reproduce byte-identical output");
}

#[test]
fn parameterized_run_binds_from_flag() {
    let p = write_program(
        "INTERFACE eth0 0 ether;\n\
         DEFINE { query_name byport; } Select time From eth0.tcp Where destPort = $port\n",
    );
    let count = |port: &str| {
        let out = gsq()
            .args([
                "--program",
                p.to_str().unwrap(),
                "--synthetic",
                "40x300",
                "--param",
                &format!("byport.port={port}"),
            ])
            .output()
            .unwrap();
        assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
        String::from_utf8_lossy(&out.stdout).lines().filter(|l| l.starts_with("byport,")).count()
    };
    assert!(count("80") > 0, "port-80 traffic exists in the default mix");
    assert_eq!(count("9"), 0, "no traffic goes to port 9");
}

#[test]
fn bad_inputs_fail_cleanly() {
    // Missing program.
    let out = gsq().output().unwrap();
    assert_eq!(out.status.code(), Some(2));
    // Program with a parse error.
    let p = write_program("Select FROM nothing");
    let out = gsq().args(["--program", p.to_str().unwrap()]).output().unwrap();
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stderr).contains("parse error"));
    // Unknown subscription.
    let p = write_program(PROGRAM);
    let out = gsq()
        .args(["--program", p.to_str().unwrap(), "--subscribe", "ghost"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
    // Unknown flag.
    let out = gsq().args(["--frobnicate"]).output().unwrap();
    assert_eq!(out.status.code(), Some(2));
}

/// The daemon runs on the threaded manager, which has no on-demand
/// heartbeat: the flag is a parse error naming what is supported, not
/// an option that silently behaves as `off`.
#[test]
fn gsqd_rejects_the_on_demand_heartbeat_flag() {
    let out = Command::new(env!("CARGO_BIN_EXE_gsqd"))
        .args(["--heartbeat", "ondemand"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("`off` or a period in seconds"), "{err}");
}

#[test]
fn trace_replay_round_trips() {
    use gs_netgen::{MixConfig, PacketMix};
    let pkts: Vec<_> = PacketMix::new(MixConfig {
        seed: 5,
        duration_ms: 300,
        ..MixConfig::default()
    })
    .collect();
    let trace = gs_packet::capture::write_trace(&pkts);
    let trace_path = std::env::temp_dir().join(format!("gsq_cli_trace_{}.gsc", std::process::id()));
    std::fs::write(&trace_path, trace).unwrap();

    let p = write_program(PROGRAM);
    let out = gsq()
        .args(["--program", p.to_str().unwrap(), "--trace", trace_path.to_str().unwrap()])
        .output()
        .unwrap();
    let _ = std::fs::remove_file(&trace_path);
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    let total: u64 = stdout
        .lines()
        .filter(|l| l.starts_with("persec,"))
        .map(|l| l.rsplit(',').next().unwrap().parse::<u64>().unwrap())
        .sum();
    let expected = pkts
        .iter()
        .filter(|p| {
            gs_packet::PacketView::parse((*p).clone())
                .tcp()
                .is_some_and(|t| t.dst_port == 80)
        })
        .count() as u64;
    assert_eq!(total, expected, "trace replay must count exactly the port-80 packets");
}
