//! Overload shedding policies.
//!
//! Paper §4, closing discussion: "we use a simple heuristic which is easy
//! to understand and implement: highly processed tuples (produced further
//! in the query chain) are more valuable than less-processed tuples,
//! because of the filters and aggregations that have been applied."
//!
//! A [`Shedder`] sits in front of an overloaded consumer holding a bounded
//! buffer of work items, each tagged with its *processing depth* (how far
//! along the query chain it has come). When the buffer is full the policy
//! decides what to drop.

use std::collections::VecDeque;

/// What to drop under overload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DropPolicy {
    /// Drop the arriving item (tail drop), regardless of value.
    TailDrop,
    /// Drop the buffered item with the *lowest* processing depth; the
    /// arriving item is dropped only if nothing shallower is buffered —
    /// the paper's heuristic.
    LeastProcessedFirst,
}

/// Outcome of one [`Shedder::offer`]: what, if anything, was dropped.
///
/// Callers that account for shed work (the manager counts every dropped
/// batch and its tuples) get the victim back instead of a bare boolean.
#[derive(Debug, PartialEq, Eq)]
pub enum Offer<T> {
    /// The buffer had room; nothing was dropped.
    Accepted,
    /// The arriving item was buffered at the cost of a shallower
    /// buffered item, returned here with its depth.
    AcceptedEvicting(u32, T),
    /// The buffer was full and the policy dropped the arriving item.
    Rejected(u32, T),
}

impl<T> Offer<T> {
    /// Whether the arriving item was kept.
    pub fn kept(&self) -> bool {
        !matches!(self, Offer::Rejected(..))
    }

    /// The dropped item (arriving or evicted), if any.
    pub fn dropped(self) -> Option<(u32, T)> {
        match self {
            Offer::Accepted => None,
            Offer::AcceptedEvicting(d, t) | Offer::Rejected(d, t) => Some((d, t)),
        }
    }
}

/// A bounded buffer with value-aware shedding.
///
/// ```
/// use gs_runtime::qos::{DropPolicy, Shedder};
///
/// let mut s = Shedder::new(1, DropPolicy::LeastProcessedFirst);
/// s.offer(0, "raw packet");
/// // A highly processed tuple evicts the raw one (the paper's heuristic).
/// assert!(s.offer(3, "joined result").kept());
/// assert_eq!(s.pop().unwrap().1, "joined result");
/// ```
#[derive(Debug)]
pub struct Shedder<T> {
    buf: VecDeque<(u32, T)>,
    capacity: usize,
    policy: DropPolicy,
    /// Items dropped, by their processing depth (index = depth). Grows on
    /// demand so deep query chains are accounted at their true depth
    /// rather than saturated into the last bucket; capped at
    /// [`MAX_DEPTH_BUCKETS`] as a guard against absurd depth values.
    pub dropped_by_depth: Vec<u64>,
}

/// Upper bound on [`Shedder::dropped_by_depth`] growth: depths at or past
/// this are charged to the final bucket. No realistic query chain comes
/// anywhere near it; it only bounds allocation against corrupt depths.
pub const MAX_DEPTH_BUCKETS: usize = 1 << 16;

impl<T> Shedder<T> {
    /// Create a shedder with the given capacity and policy.
    ///
    /// # Panics
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize, policy: DropPolicy) -> Shedder<T> {
        assert!(capacity > 0, "shedder capacity must be positive");
        Shedder {
            // `capacity` is the admission bound, not a reservation: the
            // buffer starts small and grows with what is actually queued.
            buf: VecDeque::with_capacity(capacity.min(64)),
            capacity,
            policy,
            dropped_by_depth: vec![0; 8],
        }
    }

    fn count_drop(&mut self, depth: u32) {
        let i = (depth as usize).min(MAX_DEPTH_BUCKETS - 1);
        if i >= self.dropped_by_depth.len() {
            self.dropped_by_depth.resize(i + 1, 0);
        }
        self.dropped_by_depth[i] += 1;
    }

    /// Offer an item of the given processing depth. When the buffer is
    /// full the [`DropPolicy`] picks a victim, returned in the
    /// [`Offer`] so callers can account for (or inspect) what was shed.
    pub fn offer(&mut self, depth: u32, item: T) -> Offer<T> {
        if self.buf.len() < self.capacity {
            self.buf.push_back((depth, item));
            return Offer::Accepted;
        }
        match self.policy {
            DropPolicy::TailDrop => {
                self.count_drop(depth);
                Offer::Rejected(depth, item)
            }
            DropPolicy::LeastProcessedFirst => {
                // Find the shallowest buffered item.
                let (idx, &(min_depth, _)) = self
                    .buf
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, (d, _))| *d)
                    .expect("buffer is full, hence non-empty");
                if min_depth < depth {
                    let (d, evicted) = self.buf.remove(idx).expect("index from enumerate");
                    self.count_drop(d);
                    self.buf.push_back((depth, item));
                    Offer::AcceptedEvicting(d, evicted)
                } else {
                    self.count_drop(depth);
                    Offer::Rejected(depth, item)
                }
            }
        }
    }

    /// Buffer an item unconditionally, bypassing capacity and policy.
    /// For control messages (stream-close markers) that must never be
    /// shed: dropping one would wedge the consumer waiting on it. The
    /// transient overshoot is bounded by the number of producers.
    pub fn force(&mut self, depth: u32, item: T) {
        self.buf.push_back((depth, item));
    }

    /// Take the oldest buffered item.
    pub fn pop(&mut self) -> Option<(u32, T)> {
        self.buf.pop_front()
    }

    /// Buffered item count.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Total items dropped.
    pub fn total_dropped(&self) -> u64 {
        self.dropped_by_depth.iter().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The `Shedder` doc example, as a plain unit test so `cargo test`
    /// without doctests (and future refactors of the example) still
    /// cover it.
    #[test]
    fn doc_example_offer() {
        let mut s = Shedder::new(1, DropPolicy::LeastProcessedFirst);
        s.offer(0, "raw packet");
        // A highly processed tuple evicts the raw one (the paper's heuristic).
        assert!(s.offer(3, "joined result").kept());
        assert_eq!(s.pop().unwrap().1, "joined result");
    }

    #[test]
    fn tail_drop_ignores_value() {
        let mut s = Shedder::new(2, DropPolicy::TailDrop);
        assert!(s.offer(0, "a").kept());
        assert!(s.offer(0, "b").kept());
        assert_eq!(s.offer(9, "precious"), Offer::Rejected(9, "precious"));
        assert_eq!(s.total_dropped(), 1);
        assert_eq!(s.pop().unwrap().1, "a");
    }

    #[test]
    fn least_processed_first_protects_deep_tuples() {
        let mut s = Shedder::new(2, DropPolicy::LeastProcessedFirst);
        s.offer(0, "raw1");
        s.offer(3, "agg");
        // A deeper item evicts the shallow one — and the victim comes back.
        assert_eq!(s.offer(5, "joined"), Offer::AcceptedEvicting(0, "raw1"));
        assert_eq!(s.len(), 2);
        assert_eq!(s.dropped_by_depth[0], 1);
        // A shallow item cannot evict deeper ones.
        assert_eq!(s.offer(1, "raw2"), Offer::Rejected(1, "raw2"));
        assert_eq!(s.dropped_by_depth[1], 1);
        let kept: Vec<&str> = std::iter::from_fn(|| s.pop().map(|(_, v)| v)).collect();
        assert_eq!(kept, vec!["agg", "joined"]);
    }

    /// On an equal-depth tie, LeastProcessedFirst behaves as tail drop:
    /// the resident item is kept, the arriving one is rejected, and the
    /// drop is charged to the arriving item's depth.
    #[test]
    fn equal_depth_ties_tail_drop_the_arrival() {
        let mut s = Shedder::new(1, DropPolicy::LeastProcessedFirst);
        s.offer(2, "first");
        assert_eq!(
            s.offer(2, "second"),
            Offer::Rejected(2, "second"),
            "ties keep the already-buffered item"
        );
        assert_eq!(s.dropped_by_depth[2], 1, "the drop is charged at the tie depth");
        assert_eq!(s.len(), 1, "nothing was evicted");
        assert_eq!(s.pop().unwrap().1, "first");
    }

    /// Regression: depths past the initial 8 buckets used to saturate
    /// into bucket 7, conflating every deep drop. The vector now grows so
    /// each depth keeps its own bucket.
    #[test]
    fn depth_counter_grows_past_initial_buckets() {
        let mut s = Shedder::new(1, DropPolicy::TailDrop);
        s.offer(0, ());
        s.offer(8, ());
        s.offer(100, ());
        assert_eq!(s.dropped_by_depth[8], 1, "depth 8 gets its own bucket");
        assert_eq!(s.dropped_by_depth[100], 1, "depth 100 gets its own bucket");
        assert_eq!(s.dropped_by_depth.len(), 101);
        assert_eq!(s.total_dropped(), 2);
    }

    /// Growth is capped: an absurd depth charges the final bucket rather
    /// than allocating gigabytes of counters.
    #[test]
    fn depth_counter_caps_growth() {
        let mut s = Shedder::new(1, DropPolicy::TailDrop);
        s.offer(0, ());
        s.offer(u32::MAX, ());
        assert_eq!(s.dropped_by_depth.len(), MAX_DEPTH_BUCKETS);
        assert_eq!(*s.dropped_by_depth.last().unwrap(), 1);
    }

    #[test]
    fn force_bypasses_capacity_and_policy() {
        let mut s = Shedder::new(1, DropPolicy::LeastProcessedFirst);
        assert!(s.offer(5, "deep").kept());
        s.force(0, "close marker");
        assert_eq!(s.len(), 2, "force overshoots capacity");
        assert_eq!(s.total_dropped(), 0);
        assert_eq!(s.pop().unwrap().1, "deep");
        assert_eq!(s.pop().unwrap().1, "close marker");
    }
}
