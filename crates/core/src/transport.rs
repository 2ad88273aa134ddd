//! The shed-aware bounded channel the threaded manager wires between
//! query nodes.
//!
//! Replaces `std::sync::mpsc::sync_channel` so admission policy and
//! accounting live at the queue: in [`Admission::Block`] a full queue
//! back-pressures the producer exactly like a sync channel (counting the
//! stalls); in [`Admission::Shed`] the producer never blocks — the
//! configured [`DropPolicy`] picks a victim instead, implementing the
//! paper's §4 overload heuristic ("highly processed tuples ... are more
//! valuable than less-processed tuples") at every LFTA→HFTA and
//! HFTA→HFTA edge.
//!
//! Each message carries a *processing depth* (how far along the query
//! chain its stream sits) used by least-processed-first shedding, and a
//! *weight* (tuple count of the batch) so shed work is accounted in
//! items, not just messages. Control messages (`Close` markers) are sent
//! with [`Sender::send_control`]: they bypass capacity and policy,
//! because shedding one would wedge the consumer waiting on it.

use gs_runtime::qos::{DropPolicy, Offer, Shedder};
use gs_runtime::stats::StatSource;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};

/// Poison-tolerant lock: a mutex whose holder panicked (inside a
/// containment boundary) stays usable instead of cascading the abort
/// through every other thread that touches the queue.
fn lock<'a, T>(m: &'a Mutex<T>) -> MutexGuard<'a, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// What a full queue does to an arriving message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admission {
    /// Block the producer until space frees (sync-channel semantics).
    Block,
    /// Never block: the [`DropPolicy`] decides what to shed.
    Shed(DropPolicy),
}

/// Counters of one queue, reported as `queue:<consumer>` stats rows.
#[derive(Debug, Default, Clone, Copy)]
pub struct QueueStats {
    /// Messages accepted onto the queue (data and control).
    pub enqueued: u64,
    /// Messages taken off the queue by the consumer — the watchdog's
    /// progress signal: pending work with `dequeued` frozen means the
    /// consumer has wedged.
    pub dequeued: u64,
    /// Times a producer found the queue full and had to wait
    /// ([`Admission::Block`] only; one count per blocking episode).
    pub stalls: u64,
    /// Batches shed by the drop policy ([`Admission::Shed`] only).
    pub shed_batches: u64,
    /// Tuples inside those shed batches (the sum of their weights).
    pub shed_items: u64,
    /// Messages discarded by a watchdog force-close (`1+` means this
    /// queue's consumer was declared dead).
    pub forced_drops: u64,
}

struct Inner<T> {
    /// Buffered messages as `(weight, payload)`, depth-tagged by the
    /// shedder itself.
    shedder: Shedder<(u64, T)>,
    senders: usize,
    receiver_alive: bool,
    /// Set by [`Channel::force_close`]: the watchdog declared the
    /// consumer dead. Sends become no-ops, `recv` reports end-of-stream.
    closed: bool,
    stats: QueueStats,
}

/// The shared state behind one consumer's ready-queue.
pub struct Channel<T> {
    inner: Mutex<Inner<T>>,
    not_empty: Condvar,
    not_full: Condvar,
    capacity: usize,
    admission: Admission,
}

impl<T: Send> StatSource for Channel<T> {
    fn counters(&self) -> Vec<(&'static str, u64)> {
        let s = lock(&self.inner).stats;
        vec![
            ("enqueued", s.enqueued),
            ("dequeued", s.dequeued),
            ("stalls", s.stalls),
            ("shed_batches", s.shed_batches),
            ("shed_items", s.shed_items),
            ("forced_drops", s.forced_drops),
        ]
    }
}

impl<T: Send> Channel<T> {
    /// Progress probe for the watchdog: `(messages dequeued so far,
    /// messages pending right now)`.
    pub fn progress(&self) -> (u64, usize) {
        let inner = lock(&self.inner);
        (inner.stats.dequeued, inner.shedder.len())
    }

    /// Declare the consumer dead: discard everything buffered (counted
    /// as `forced_drops`), make further sends no-ops, report
    /// end-of-stream to the receiver, and wake every blocked producer.
    /// Returns the number of discarded messages. Idempotent.
    pub fn force_close(&self) -> u64 {
        let mut inner = lock(&self.inner);
        if inner.closed {
            return 0;
        }
        inner.closed = true;
        let mut dropped = 0;
        while inner.shedder.pop().is_some() {
            dropped += 1;
        }
        inner.stats.forced_drops += dropped;
        drop(inner);
        self.not_full.notify_all();
        self.not_empty.notify_all();
        dropped
    }
}

/// The producer half; clone one per upstream.
pub struct Sender<T> {
    chan: Arc<Channel<T>>,
}

/// The consumer half.
pub struct Receiver<T> {
    chan: Arc<Channel<T>>,
}

/// Create a bounded queue of `capacity` messages under `admission`.
/// Returns the two endpoints plus the shared channel for stats
/// registration.
pub fn channel<T: Send>(
    capacity: usize,
    admission: Admission,
) -> (Sender<T>, Receiver<T>, Arc<Channel<T>>) {
    let policy = match admission {
        Admission::Block => DropPolicy::TailDrop, // never consulted
        Admission::Shed(p) => p,
    };
    let chan = Arc::new(Channel {
        inner: Mutex::new(Inner {
            shedder: Shedder::new(capacity.max(1), policy),
            senders: 1,
            receiver_alive: true,
            closed: false,
            stats: QueueStats::default(),
        }),
        not_empty: Condvar::new(),
        not_full: Condvar::new(),
        capacity: capacity.max(1),
        admission,
    });
    (Sender { chan: chan.clone() }, Receiver { chan: chan.clone() }, chan)
}

impl<T> Sender<T> {
    /// Send a data message of the given processing depth and weight
    /// (tuple count). Blocks or sheds per the channel's [`Admission`];
    /// silently discards if the receiver is gone (matching the manager's
    /// former `let _ = tx.send(..)` behavior).
    pub fn send(&self, depth: u32, weight: u64, msg: T) {
        let mut inner = lock(&self.chan.inner);
        if !inner.receiver_alive || inner.closed {
            return;
        }
        match self.chan.admission {
            Admission::Block => {
                if inner.shedder.len() >= self.chan.capacity {
                    inner.stats.stalls += 1;
                    while inner.shedder.len() >= self.chan.capacity
                        && inner.receiver_alive
                        && !inner.closed
                    {
                        inner = self
                            .chan
                            .not_full
                            .wait(inner)
                            .unwrap_or_else(PoisonError::into_inner);
                    }
                    if !inner.receiver_alive || inner.closed {
                        return;
                    }
                }
                inner.shedder.force(depth, (weight, msg));
                inner.stats.enqueued += 1;
            }
            Admission::Shed(_) => match inner.shedder.offer(depth, (weight, msg)) {
                Offer::Accepted => inner.stats.enqueued += 1,
                Offer::AcceptedEvicting(_, (w, _)) => {
                    inner.stats.enqueued += 1;
                    inner.stats.shed_batches += 1;
                    inner.stats.shed_items += w;
                }
                Offer::Rejected(_, (w, _)) => {
                    inner.stats.shed_batches += 1;
                    inner.stats.shed_items += w;
                    return; // nothing new buffered, nobody to wake
                }
            },
        }
        drop(inner);
        self.chan.not_empty.notify_one();
    }

    /// Send a control message (a `Close` marker): enqueued past capacity
    /// and never shed. The transient overshoot is bounded by the number
    /// of producers, each of which closes once.
    pub fn send_control(&self, msg: T) {
        let mut inner = lock(&self.chan.inner);
        if !inner.receiver_alive || inner.closed {
            return;
        }
        inner.shedder.force(u32::MAX, (0, msg));
        inner.stats.enqueued += 1;
        drop(inner);
        self.chan.not_empty.notify_one();
    }
}

impl<T> Clone for Sender<T> {
    fn clone(&self) -> Sender<T> {
        lock(&self.chan.inner).senders += 1;
        Sender { chan: self.chan.clone() }
    }
}

impl<T> Drop for Sender<T> {
    fn drop(&mut self) {
        let mut inner = lock(&self.chan.inner);
        inner.senders -= 1;
        let last = inner.senders == 0;
        drop(inner);
        if last {
            // Wake a receiver blocked on an empty queue so it can see
            // the disconnect.
            self.chan.not_empty.notify_all();
        }
    }
}

impl<T> Receiver<T> {
    /// Take the oldest buffered message; `None` once every sender has
    /// dropped and the queue is drained (disconnect), or immediately
    /// after a watchdog [`force_close`](Channel::force_close).
    pub fn recv(&self) -> Option<T> {
        let mut inner = lock(&self.chan.inner);
        loop {
            if inner.closed {
                return None;
            }
            if let Some((_, (_, msg))) = inner.shedder.pop() {
                inner.stats.dequeued += 1;
                drop(inner);
                self.chan.not_full.notify_one();
                return Some(msg);
            }
            if inner.senders == 0 {
                return None;
            }
            inner = self
                .chan
                .not_empty
                .wait(inner)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Non-blocking [`recv`](Receiver::recv): `None` when nothing is
    /// currently buffered (whether or not senders remain).
    pub fn try_recv(&self) -> Option<T> {
        let mut inner = lock(&self.chan.inner);
        if inner.closed {
            return None;
        }
        let msg = inner.shedder.pop();
        if msg.is_some() {
            inner.stats.dequeued += 1;
        }
        drop(inner);
        msg.map(|(_, (_, m))| {
            self.chan.not_full.notify_one();
            m
        })
    }
}

impl<T> Drop for Receiver<T> {
    fn drop(&mut self) {
        lock(&self.chan.inner).receiver_alive = false;
        // Unblock producers waiting for space; their sends become no-ops.
        self.chan.not_full.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn fifo_within_capacity() {
        let (tx, rx, _) = channel(4, Admission::Block);
        for i in 0..4 {
            tx.send(0, 1, i);
        }
        drop(tx);
        let got: Vec<i32> = std::iter::from_fn(|| rx.recv()).collect();
        assert_eq!(got, vec![0, 1, 2, 3]);
        assert!(rx.recv().is_none(), "disconnect after drain");
    }

    /// Regression: queue storage used to be reserved up front, so an
    /// effectively unbounded channel (the inline scheduler's) aborted on
    /// capacity overflow before accepting a message.
    #[test]
    fn unbounded_channel_is_lazy_and_fifo() {
        let (tx, rx, chan) = channel(usize::MAX, Admission::Block);
        for i in 0..1000 {
            tx.send(0, 1, i);
        }
        tx.send_control(1000);
        assert_eq!(chan.progress(), (0, 1001));
        let got: Vec<i32> = std::iter::from_fn(|| rx.try_recv()).collect();
        assert_eq!(got, (0..=1000).collect::<Vec<_>>());
        assert_eq!(lock(&chan.inner).stats.stalls, 0, "never full, never stalls");
    }

    #[test]
    fn block_mode_stalls_then_delivers_everything() {
        let (tx, rx, chan) = channel(2, Admission::Block);
        let producer = thread::spawn(move || {
            for i in 0..100 {
                tx.send(0, 1, i);
            }
        });
        let mut got = Vec::new();
        while let Some(v) = rx.recv() {
            got.push(v);
        }
        producer.join().unwrap();
        assert_eq!(got, (0..100).collect::<Vec<_>>(), "blocking loses nothing");
        let stats = chan.inner.lock().unwrap().stats;
        assert_eq!(stats.enqueued, 100);
        assert_eq!(stats.shed_batches, 0);
    }

    #[test]
    fn shed_mode_never_blocks_and_counts_victims() {
        let (tx, rx, chan) = channel(2, Admission::Shed(DropPolicy::TailDrop));
        // No consumer running: the queue fills, the rest shed.
        for i in 0..10 {
            tx.send(0, 3, i);
        }
        let stats = chan.inner.lock().unwrap().stats;
        assert_eq!(stats.enqueued, 2);
        assert_eq!(stats.shed_batches, 8);
        assert_eq!(stats.shed_items, 24, "weights of shed batches accumulate");
        assert_eq!(stats.stalls, 0);
        drop(tx);
        assert_eq!(rx.recv(), Some(0));
        assert_eq!(rx.recv(), Some(1));
        assert_eq!(rx.recv(), None);
    }

    #[test]
    fn shed_mode_lpf_evicts_shallow_for_deep() {
        let (tx, rx, chan) = channel(1, Admission::Shed(DropPolicy::LeastProcessedFirst));
        tx.send(0, 5, "raw");
        tx.send(3, 1, "joined");
        let stats = chan.inner.lock().unwrap().stats;
        assert_eq!(stats.shed_batches, 1);
        assert_eq!(stats.shed_items, 5, "the shallow batch's weight was shed");
        drop(tx);
        assert_eq!(rx.recv(), Some("joined"));
        assert_eq!(rx.recv(), None);
    }

    #[test]
    fn control_bypasses_a_full_shed_queue() {
        let (tx, rx, _) = channel(1, Admission::Shed(DropPolicy::LeastProcessedFirst));
        tx.send(9, 1, "deep");
        tx.send_control("close");
        drop(tx);
        assert_eq!(rx.recv(), Some("deep"));
        assert_eq!(rx.recv(), Some("close"), "control is never shed");
        assert_eq!(rx.recv(), None);
    }

    #[test]
    fn dropped_receiver_unblocks_producers() {
        let (tx, rx, _) = channel(1, Admission::Block);
        tx.send(0, 1, 1);
        let producer = thread::spawn(move || {
            tx.send(0, 1, 2); // blocks on the full queue until rx drops
            tx.send(0, 1, 3); // no-op after disconnect
        });
        thread::sleep(std::time::Duration::from_millis(20));
        drop(rx);
        producer.join().unwrap();
    }

    #[test]
    fn channel_reports_queue_stats_rows() {
        let (tx, rx, chan) = channel(8, Admission::Block);
        tx.send(0, 1, ());
        rx.recv();
        let rows = chan.counters();
        assert_eq!(rows[0], ("enqueued", 1));
        assert_eq!(rows[1], ("dequeued", 1));
        assert_eq!(rows.len(), 6);
    }

    #[test]
    fn progress_tracks_dequeues_and_pending() {
        let (tx, rx, chan) = channel(8, Admission::Block);
        tx.send(0, 1, 1);
        tx.send(0, 1, 2);
        assert_eq!(chan.progress(), (0, 2));
        rx.recv();
        assert_eq!(chan.progress(), (1, 1));
    }

    #[test]
    fn force_close_drains_unblocks_and_ends_stream() {
        let (tx, rx, chan) = channel(1, Admission::Block);
        tx.send(0, 1, 1);
        let chan2 = chan.clone();
        let producer = thread::spawn(move || {
            tx.send(0, 1, 2); // blocks until the force-close below
            tx.send(0, 1, 3); // no-op afterwards
            tx.send_control(4); // also a no-op
        });
        thread::sleep(std::time::Duration::from_millis(20));
        assert_eq!(chan2.force_close(), 1, "the buffered message is discarded");
        assert_eq!(chan2.force_close(), 0, "idempotent");
        producer.join().unwrap();
        assert_eq!(rx.recv(), None, "receiver sees end-of-stream");
        assert_eq!(rx.try_recv(), None);
        let stats = lock(&chan.inner).stats;
        assert_eq!(stats.forced_drops, 1);
    }
}
