//! Ordering-update tokens (punctuation).
//!
//! Paper §3, "Unblocking Operators": "the presence of a tuple allows us to
//! advance the window over which a query operates, but we do not get this
//! information in the absence of a tuple. To overcome this problem, we use
//! a mechanism similar to the one proposed by [Tucker & Maier] of
//! injecting ordering update tokens into the query stream. These tokens
//! contain lower bounds on the ordering attributes in the stream."
//!
//! A [`Punct`] promises, for each column it bounds, that no later tuple
//! on this stream will carry a value of that column below the bound.
//! Sources emit them periodically or on demand (when a downstream
//! merge/join reports that it might be blocked). One token may bound
//! several columns — a projection that derives `time` and `time/60`
//! from one input column bounds both — so a batch carries at most one
//! token whatever its operators translate.

use crate::value::Value;

/// An ordering-update token: lower bounds on one or more ordered
/// attributes.
#[derive(Debug, Clone, PartialEq)]
pub struct Punct {
    /// `(column, low)` pairs, one per bounded column: every future tuple
    /// `t` satisfies `t[column] >= low`.
    bounds: Vec<(usize, Value)>,
}

impl Punct {
    /// A token bounding column `col` below by `low`.
    pub fn new(col: usize, low: Value) -> Punct {
        Punct { bounds: vec![(col, low)] }
    }

    /// A token carrying every bound of `bounds`; `None` when there is
    /// none (a token that bounds nothing is no token).
    pub fn from_bounds(bounds: Vec<(usize, Value)>) -> Option<Punct> {
        (!bounds.is_empty()).then_some(Punct { bounds })
    }

    /// The bound on column `col` as an unsigned integer, if the token
    /// carries one.
    pub fn bound(&self, col: usize) -> Option<u64> {
        self.bounds.iter().find(|(c, _)| *c == col).and_then(|(_, low)| low.as_uint())
    }
}

/// How a source decides when to emit punctuation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HeartbeatMode {
    /// Never emit (the paper's problem case: a slow stream can block a
    /// merge indefinitely and overflow its buffers).
    Off,
    /// Emit a token every `interval` units of the ordered attribute
    /// (Tucker & Maier's periodic injection).
    Periodic {
        /// Injection interval, in units of the ordered attribute.
        interval: u64,
    },
    /// Emit only when a downstream operator signals that it might be
    /// blocked (the paper's "on-demand system" experiment).
    OnDemand,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction() {
        let p = Punct::new(2, Value::UInt(100));
        assert_eq!(p.bound(2), Some(100));
        assert_eq!(p.bound(0), None, "an unbounded column has no bound");
        let both = Punct::from_bounds(vec![(0, Value::UInt(120)), (1, Value::UInt(2))]).unwrap();
        assert_eq!((both.bound(0), both.bound(1)), (Some(120), Some(2)));
        assert_eq!(Punct::from_bounds(Vec::new()), None);
    }

    #[test]
    fn modes_compare() {
        assert_ne!(HeartbeatMode::Off, HeartbeatMode::OnDemand);
        assert_eq!(HeartbeatMode::Periodic { interval: 5 }, HeartbeatMode::Periodic { interval: 5 });
    }
}
