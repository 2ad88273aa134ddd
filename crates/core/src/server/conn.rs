//! Connection handling: the acceptor, the per-connection reader
//! (request handler) and writer threads, and disconnect teardown.
//!
//! Each connection gets two threads and one bounded outbound queue:
//!
//! ```text
//! client ──reads──▶ handler thread ──PendingOp──▶ engine (epoch boundary)
//!        ◀─writes── writer  thread ◀──frames──── outbound queue
//!                                                   ▲         ▲
//!                                        control replies   TUPLES fan-out taps
//! ```
//!
//! The handler never writes the socket itself — replies go through the
//! queue (as unsheddable control frames) so they serialize correctly
//! with in-flight TUPLES frames. Data frames are admitted under
//! tail-drop shedding: a client that stops reading loses its own
//! newest frames; the engine and sibling connections never block on
//! it. The queue is registered as a `daemon:conn:<id>` stats node for
//! the lifetime of the connection, so shed counts are observable and
//! teardown is verifiable (the churn test checks the node disappears).

use super::{lock, ConnState, PendingOp, Shared, SubEndpoint};
use crate::server::wire::{self, WireError};
use crate::transport::{channel, Admission, Sender};
use gs_runtime::qos::DropPolicy;
use std::io::Write;
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::Ordering;
use std::sync::{mpsc, Arc};
use std::thread;
use std::time::{Duration, Instant};

/// Accept connections until shutdown, then join every handler so the
/// daemon exits with zero live threads.
pub(crate) fn accept_loop(listener: TcpListener, shared: Arc<Shared>) {
    let mut handlers: Vec<thread::JoinHandle<()>> = Vec::new();
    for stream in listener.incoming() {
        if shared.shutdown.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = stream else { continue };
        if let Some(h) = spawn_connection(stream, shared.clone()) {
            handlers.push(h);
        }
        // Reap finished handlers so a long churn of short connections
        // doesn't accumulate join handles.
        handlers.retain(|h| !h.is_finished());
    }
    drop(listener);
    for h in handlers {
        let _ = h.join();
    }
}

/// Wire up one accepted connection; returns the handler thread's join
/// handle (None if the daemon is already stopping or clones fail).
fn spawn_connection(stream: TcpStream, shared: Arc<Shared>) -> Option<thread::JoinHandle<()>> {
    let _ = stream.set_nodelay(true);
    let (writer_stream, registry_stream) = match (stream.try_clone(), stream.try_clone()) {
        (Ok(a), Ok(b)) => (a, b),
        _ => return None,
    };
    let (tx, rx, chan) =
        channel::<Vec<u8>>(shared.conn_queue_frames, Admission::Shed(DropPolicy::TailDrop));
    let id = {
        let mut ctl = lock(&shared.ctl);
        if ctl.stopped {
            return None;
        }
        let id = ctl.next_conn;
        ctl.next_conn += 1;
        ctl.conns.insert(id, ConnState { stream: registry_stream, chan: chan.clone() });
        id
    };
    shared.registry.register(format!("daemon:conn:{id}"), chan.clone());
    shared.stats.connections.inc();

    let writer = thread::Builder::new()
        .name(format!("gsqd-write-{id}"))
        .spawn(move || writer_loop(writer_stream, rx))
        .ok()?;
    thread::Builder::new()
        .name(format!("gsqd-conn-{id}"))
        .spawn(move || {
            handler_loop(stream, id, &tx, &shared);
            drop(tx);
            teardown(&shared, id);
            let _ = writer.join();
        })
        .ok()
}

/// Drain the outbound queue onto the socket until the queue closes or
/// the peer goes away.
fn writer_loop(mut stream: TcpStream, rx: crate::transport::Receiver<Vec<u8>>) {
    while let Some(frame) = rx.recv() {
        if stream.write_all(&frame).is_err() {
            break;
        }
    }
}

/// Remove every trace of a connection: subscription endpoints, the
/// connection table entry, the `daemon:conn:<id>` stats node, and the
/// outbound queue (after a short grace so a final ERR reply can flush).
fn teardown(shared: &Arc<Shared>, id: u64) {
    let conn = {
        let mut ctl = lock(&shared.ctl);
        for eps in ctl.subs.values_mut() {
            eps.retain(|e| e.conn != id);
        }
        ctl.subs.retain(|_, eps| !eps.is_empty());
        ctl.conns.remove(&id)
    };
    shared.registry.unregister(&format!("daemon:conn:{id}"));
    if let Some(conn) = conn {
        // Drain grace BEFORE closing: a just-queued ERR reply must
        // reach the writer thread. No explicit socket shutdown here —
        // once the queue closes the writer exits, the last clone drops,
        // and the kernel flushes what was written before the FIN. (The
        // engine's daemon-shutdown teardown cuts a stuck writer's socket.)
        let deadline = Instant::now() + Duration::from_millis(100);
        while conn.chan.progress().1 > 0 && Instant::now() < deadline {
            thread::sleep(Duration::from_millis(2));
        }
        conn.chan.force_close();
        drop(conn.stream);
    }
}

/// Queue a control reply frame (never shed, FIFO with data frames).
fn reply(tx: &Sender<Vec<u8>>, opcode: u8, payload: &[u8]) {
    tx.send_control(wire::encode_frame(opcode, payload));
}

/// Read and dispatch request frames until disconnect, framing damage,
/// or daemon shutdown.
fn handler_loop(mut stream: TcpStream, id: u64, tx: &Sender<Vec<u8>>, shared: &Arc<Shared>) {
    loop {
        match wire::read_frame(&mut stream, wire::MAX_REQUEST) {
            // Disconnect — clean close or mid-frame cut; either way the
            // conversation is over.
            Err(WireError::Io(_)) => return,
            // Framing damage (oversized declared length, zero length,
            // garbage that desynchronized the stream): report and close
            // this one connection. Siblings are untouched.
            Err(e) => {
                reply(tx, wire::ERR, e.to_string().as_bytes());
                return;
            }
            Ok((op, payload)) => {
                if !handle(op, &payload, id, tx, shared) {
                    return;
                }
            }
        }
    }
}

/// Submit an operation for the next epoch boundary and wait for the
/// engine's verdict.
fn submit(
    shared: &Arc<Shared>,
    make: impl FnOnce(mpsc::Sender<Result<String, String>>) -> PendingOp,
) -> Result<String, String> {
    let (reply_tx, reply_rx) = mpsc::channel();
    {
        let mut ctl = lock(&shared.ctl);
        if ctl.stopped || shared.shutdown.load(Ordering::SeqCst) {
            return Err("daemon shutting down".to_string());
        }
        ctl.pending.push(make(reply_tx));
    }
    // The engine replies at the next boundary or drains with an error
    // at shutdown; the timeout is a backstop against an engine that
    // died without either.
    match reply_rx.recv_timeout(Duration::from_secs(30)) {
        Ok(verdict) => verdict,
        Err(_) => Err("engine did not respond".to_string()),
    }
}

/// Dispatch one well-framed request. Returns whether the connection
/// should continue.
fn handle(op: u8, payload: &[u8], id: u64, tx: &Sender<Vec<u8>>, shared: &Arc<Shared>) -> bool {
    match op {
        wire::REGISTER => {
            let Ok(gsql) = std::str::from_utf8(payload) else {
                reply(tx, wire::ERR, b"program is not UTF-8");
                return true;
            };
            let gsql = gsql.to_string();
            match submit(shared, |r| PendingOp::Register { gsql, reply: r }) {
                Ok(names) => reply(tx, wire::OK, names.as_bytes()),
                Err(e) => reply(tx, wire::ERR, e.as_bytes()),
            }
        }
        wire::UNREGISTER => {
            let Ok(name) = std::str::from_utf8(payload) else {
                reply(tx, wire::ERR, b"name is not UTF-8");
                return true;
            };
            let name = name.to_string();
            match submit(shared, |r| PendingOp::Unregister { name, reply: r }) {
                Ok(name) => reply(tx, wire::OK, name.as_bytes()),
                Err(e) => reply(tx, wire::ERR, e.as_bytes()),
            }
        }
        wire::SUBSCRIBE => {
            let Ok(name) = std::str::from_utf8(payload) else {
                reply(tx, wire::ERR, b"name is not UTF-8");
                return true;
            };
            let mut ctl = lock(&shared.ctl);
            if ctl.stopped {
                drop(ctl);
                reply(tx, wire::ERR, b"daemon shutting down");
                return true;
            }
            let eps = ctl.subs.entry(name.to_string()).or_default();
            if !eps.iter().any(|e| e.conn == id) {
                eps.push(SubEndpoint { conn: id, sender: tx.clone() });
            }
            drop(ctl);
            // Frames begin at the next epoch boundary, so every epoch a
            // subscriber observes is complete.
            reply(tx, wire::OK, format!("subscribed {name}; frames begin next epoch").as_bytes());
        }
        wire::UNSUBSCRIBE => {
            let Ok(name) = std::str::from_utf8(payload) else {
                reply(tx, wire::ERR, b"name is not UTF-8");
                return true;
            };
            let mut ctl = lock(&shared.ctl);
            if let Some(eps) = ctl.subs.get_mut(name) {
                eps.retain(|e| e.conn != id);
                if eps.is_empty() {
                    ctl.subs.remove(name);
                }
            }
            drop(ctl);
            reply(tx, wire::OK, format!("unsubscribed {name}").as_bytes());
        }
        wire::HEALTH => {
            let rows = lock(&shared.ctl).snapshot.health.clone();
            reply(tx, wire::HEALTH_RPT, &wire::encode_health(&rows));
        }
        wire::STATS => {
            // Daemon-lifetime nodes first, then the last epoch's engine
            // counters.
            let mut rows = shared.registry.snapshot();
            rows.extend(lock(&shared.ctl).snapshot.counters.iter().cloned());
            reply(tx, wire::STATS_RPT, &wire::encode_stats(&rows));
        }
        wire::PING => reply(tx, wire::PONG, b""),
        wire::WAIT_EPOCH => {
            let mut r = wire::Reader::new(payload);
            let n = match r.u64().and_then(|n| r.finish().map(|_| n)) {
                Ok(n) => n,
                Err(e) => {
                    reply(tx, wire::ERR, e.to_string().as_bytes());
                    return true;
                }
            };
            let deadline = Instant::now() + Duration::from_secs(60);
            let mut ctl = lock(&shared.ctl);
            loop {
                if ctl.snapshot.epochs_done >= n {
                    let done = ctl.snapshot.epochs_done;
                    drop(ctl);
                    reply(tx, wire::OK, done.to_string().as_bytes());
                    break;
                }
                if ctl.stopped || shared.shutdown.load(Ordering::SeqCst) {
                    drop(ctl);
                    reply(tx, wire::ERR, b"daemon shutting down");
                    break;
                }
                if Instant::now() >= deadline {
                    drop(ctl);
                    reply(tx, wire::ERR, b"wait_epoch timed out");
                    break;
                }
                ctl = shared
                    .epoch_cv
                    .wait_timeout(ctl, Duration::from_millis(50))
                    .unwrap_or_else(std::sync::PoisonError::into_inner)
                    .0;
            }
        }
        wire::SHUTDOWN => {
            reply(tx, wire::OK, b"shutting down");
            shared.request_shutdown();
        }
        other => reply(tx, wire::ERR, format!("unknown opcode 0x{other:02x}").as_bytes()),
    }
    true
}
