//! Protocol robustness battery for `gsqd` (the always-on daemon).
//!
//! Two property families:
//!
//! 1. **Session equivalence** — randomized *valid* session scripts
//!    (register / unregister / subscribe / unsubscribe / health /
//!    stats / ping / wait-epoch in arbitrary interleavings) must leave
//!    the daemon coherent, and each query's subscriber total, from its
//!    first marker through the shutdown drain, must equal one continuous
//!    run over the packets of the epochs it ran
//!    ([`gs_tests::daemon::assert_session_total`]).
//!
//! 2. **Adversarial decoding** — truncated length prefixes, oversized
//!    declared lengths, mid-frame disconnects, garbage bytes, and
//!    well-framed junk opcodes must each cost at most that one
//!    connection: a clean ERR and/or a close, never a panic, and a
//!    sibling session on the same daemon keeps working.
//!
//! Runs on the in-repo deterministic harness ([`gs_tests::prop`]) with
//! modest case counts: every equivalence case boots a daemon and runs
//! real epochs.

use gigascope::server::client::ClientError;
use gigascope::server::{self, wire};
use gs_tests::daemon::{assert_session_total, connect, small_source, test_config, Frames};
use gs_tests::prop::{check, Gen};

const Q0: &str = "DEFINE { query_name q0; } \
     Select time, destPort, count(*) From eth0.tcp Group By time, destPort";
const Q1: &str = "DEFINE { query_name q1; } Select time, len From eth0.tcp Where destPort = 80";
const TEMPLATES: [(&str, &str); 2] = [("q0", Q0), ("q1", Q1)];

#[test]
fn randomized_sessions_match_one_shot_runs() {
    check("daemon_session_equivalence", 6, |g: &mut Gen| {
        let source = small_source(0xD0_0000 + g.u64(0..1_000_000));
        let mut daemon = server::start(test_config(source.clone())).expect("daemon start");
        let mut client = connect(daemon.addr());
        let mut registered = [false, false];

        // ---- The random script --------------------------------------
        for _ in 0..g.usize(4..14) {
            let i = g.usize(0..2);
            let (name, program) = TEMPLATES[i];
            match g.u8(0..8) {
                0 => match client.register(program) {
                    Ok(names) => {
                        assert!(!registered[i], "duplicate register of {name} must be refused");
                        assert_eq!(names, vec![name.to_string()]);
                        registered[i] = true;
                    }
                    Err(ClientError::Rejected(_)) => {
                        assert!(registered[i], "register of fresh {name} must succeed");
                    }
                    Err(e) => panic!("register transport error: {e}"),
                },
                1 => match client.unregister(name) {
                    Ok(()) => {
                        assert!(registered[i], "unregister of absent {name} must be refused");
                        registered[i] = false;
                    }
                    Err(ClientError::Rejected(_)) => {
                        assert!(!registered[i], "unregister of live {name} must succeed");
                    }
                    Err(e) => panic!("unregister transport error: {e}"),
                },
                2 => client.subscribe(name).expect("subscribe is always accepted"),
                3 => client.unsubscribe(name).expect("unsubscribe is always accepted"),
                4 => client.ping().expect("ping"),
                5 => {
                    let mut live: Vec<&str> = TEMPLATES
                        .iter()
                        .enumerate()
                        .filter(|(j, _)| registered[*j])
                        .map(|(_, (n, _))| *n)
                        .collect();
                    live.sort_unstable();
                    let rows = client.health().expect("health");
                    let got: Vec<&str> = rows.iter().map(|r| r.query.as_str()).collect();
                    assert_eq!(got, live, "HEALTH must list exactly the registered queries");
                }
                6 => {
                    let rows = client.stats().expect("stats");
                    assert!(
                        rows.iter().any(|(n, c, _)| n == "daemon" && c == "epochs"),
                        "STATS must include the daemon node"
                    );
                }
                _ => {
                    let done = client.wait_epoch(0).expect("wait_epoch(0) returns immediately");
                    let later = client.wait_epoch(done + 1).expect("wait one more epoch");
                    assert!(later > done);
                }
            }
        }

        // ---- Deterministic verification tail ------------------------
        // Give each template one whole, observed life on the scripted
        // connection: end the one the script left (if any), SUBSCRIBE
        // before REGISTER, run a random number of epochs, then SHUTDOWN
        // and drain. Every frame of a scripted life is tagged with an
        // epoch completed before the fresh REGISTER and is skipped; a
        // subscription the script leaked would repeat the fresh life's
        // markers and double its rows.
        for (i, (name, _)) in TEMPLATES.iter().enumerate() {
            if registered[i] {
                client.unregister(name).expect("end the scripted life");
            }
        }
        let mut frames = Frames::since(client.wait_epoch(0).expect("poll"));
        for (name, program) in TEMPLATES {
            client.subscribe(name).expect("subscribe before register");
            client.register(program).expect("register a fresh life");
        }
        let done = client.wait_epoch(0).expect("poll");
        client.wait_epoch(done + g.u64(1..60)).expect("the fresh lives run");
        client.shutdown().expect("shutdown");
        frames.read(&mut client, &[], None);
        for (name, program) in TEMPLATES {
            assert_session_total(program, &source, name, &frames);
        }
        daemon.shutdown();
    });
}

#[test]
fn adversarial_bytes_cost_at_most_one_connection() {
    // One daemon shared by every case: a wedged or crashed daemon fails
    // the *next* case's sibling check, so survival is continuously
    // re-proven. A real query keeps the engine loop busy throughout.
    let source = small_source(0xBAD);
    let mut config = test_config(source);
    config.initial_program = Some(Q1.to_string());
    let mut daemon = server::start(config).expect("daemon start");
    let addr = daemon.addr();

    check("daemon_adversarial_decoder", 24, |g: &mut Gen| {
        let mut evil = connect(addr);
        match g.u8(0..5) {
            0 => {
                // Truncated length prefix: fewer than 4 bytes, then cut.
                let n = g.usize(1..4);
                evil.send_bytes(&[0u8; 4][..n]).expect("send");
                drop(evil); // mid-prefix disconnect
            }
            1 => {
                // Oversized declared length: must draw ERR, then close,
                // without the daemon allocating the claimed body.
                let len = g.u32(wire::MAX_REQUEST + 1..u32::MAX);
                evil.send_bytes(&len.to_be_bytes()).expect("send");
                match evil.read_frame() {
                    Ok((op, _)) => assert_eq!(op, wire::ERR, "oversized length must draw ERR"),
                    Err(e) => panic!("expected ERR frame, got {e}"),
                }
                // After the ERR the daemon hangs up.
                assert!(evil.read_frame().is_err(), "connection must be closed after ERR");
            }
            2 => {
                // Mid-frame disconnect: declare an honest length, ship
                // only part of the body, vanish.
                let declared = g.u32(8..1024);
                let sent = g.usize(0..8);
                evil.send_bytes(&declared.to_be_bytes()).expect("send");
                evil.send_bytes(&vec![wire::REGISTER; sent]).expect("send");
                drop(evil);
            }
            3 => {
                // Garbage bytes: whatever framing they imply, the worst
                // case is an ERR + close on this connection.
                let junk = g.bytes(1..64);
                let _ = evil.send_bytes(&junk);
                drop(evil);
            }
            _ => {
                // Well-framed junk: an unknown opcode is a protocol
                // error but NOT framing damage — the connection lives.
                let payload = g.bytes(0..32);
                let opcode = g.u8(0x10..0x7F);
                evil.send_raw(opcode, &payload).expect("send");
                match evil.read_frame() {
                    Ok((op, body)) => {
                        assert_eq!(op, wire::ERR);
                        let msg = String::from_utf8_lossy(&body).into_owned();
                        assert!(msg.contains("unknown opcode"), "got: {msg}");
                    }
                    Err(e) => panic!("expected ERR frame, got {e}"),
                }
                evil.ping().expect("connection must survive an unknown opcode");
            }
        }

        // The sibling session — and the daemon itself — must be fine.
        let mut sibling = connect(addr);
        sibling.ping().expect("sibling ping");
        let rows = sibling.health().expect("sibling health");
        assert_eq!(rows.len(), 1, "q1 still registered");
        assert_eq!(rows[0].query, "q1");
        let done = sibling.wait_epoch(0).expect("epoch poll");
        sibling.wait_epoch(done + 1).expect("engine still making progress");
    });

    daemon.shutdown();
}

#[test]
fn malformed_requests_on_valid_frames_draw_err_not_close() {
    // Field-level damage inside a well-formed frame: bad UTF-8 in a
    // REGISTER, a short WAIT_EPOCH payload. The decoder must reject
    // each with ERR and keep the session.
    let mut daemon = server::start(test_config(small_source(7))).expect("daemon start");
    let mut client = connect(daemon.addr());

    client.send_raw(wire::REGISTER, &[0xFF, 0xFE, 0x80]).expect("send");
    let (op, body) = client.read_frame().expect("reply");
    assert_eq!(op, wire::ERR);
    assert!(String::from_utf8_lossy(&body).contains("UTF-8"));

    client.send_raw(wire::WAIT_EPOCH, &[1, 2, 3]).expect("send");
    let (op, _) = client.read_frame().expect("reply");
    assert_eq!(op, wire::ERR);

    client.ping().expect("session survives field-level damage");
    daemon.shutdown();
}
