//! Tuples and stream items.

use crate::punct::Punct;
use crate::value::Value;
use std::fmt;

/// A tuple: the fields of one stream record, "packed in a standard
/// fashion" (paper §2.2). Cloning shares string payloads.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Tuple {
    vals: Box<[Value]>,
}

impl Tuple {
    /// Build a tuple from values.
    pub fn new(vals: Vec<Value>) -> Tuple {
        Tuple { vals: vals.into_boxed_slice() }
    }

    /// Field count.
    pub fn arity(&self) -> usize {
        self.vals.len()
    }

    /// Field by index.
    #[inline]
    pub fn get(&self, i: usize) -> &Value {
        &self.vals[i]
    }

    /// All fields.
    pub fn values(&self) -> &[Value] {
        &self.vals
    }

    /// Concatenate two tuples (join output construction). The chained
    /// slice iterators are `TrustedLen`, so the joined storage is
    /// allocated exactly once — no intermediate `Vec` growth.
    pub fn concat(&self, other: &Tuple) -> Tuple {
        Tuple { vals: self.vals.iter().chain(other.vals.iter()).cloned().collect() }
    }
}

impl FromIterator<Value> for Tuple {
    /// Build a tuple directly from a value iterator; with an exact-size
    /// source (projection program lists, slice chains) the field storage
    /// is allocated in one shot.
    fn from_iter<I: IntoIterator<Item = Value>>(iter: I) -> Tuple {
        Tuple { vals: iter.into_iter().collect() }
    }
}

impl fmt::Display for Tuple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, v) in self.vals.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v}")?;
        }
        write!(f, ")")
    }
}

impl From<Vec<Value>> for Tuple {
    fn from(v: Vec<Value>) -> Tuple {
        Tuple::new(v)
    }
}

/// What flows on a stream: data tuples interleaved with ordering-update
/// tokens.
#[derive(Debug, Clone, PartialEq)]
pub enum StreamItem {
    /// A data tuple.
    Tuple(Tuple),
    /// An ordering-update token (punctuation).
    Punct(Punct),
}

impl StreamItem {
    /// The tuple, if this is one.
    pub fn as_tuple(&self) -> Option<&Tuple> {
        match self {
            StreamItem::Tuple(t) => Some(t),
            StreamItem::Punct(_) => None,
        }
    }

    /// How a stream of items renders in tests/examples.
    pub fn is_punct(&self) -> bool {
        matches!(self, StreamItem::Punct(_))
    }
}

/// Extract only the tuples from a drained item list (test helper).
pub fn tuples_of(items: Vec<StreamItem>) -> Vec<Tuple> {
    items
        .into_iter()
        .filter_map(|i| match i {
            StreamItem::Tuple(t) => Some(t),
            StreamItem::Punct(_) => None,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn concat_and_access() {
        let a = Tuple::new(vec![Value::UInt(1), Value::UInt(2)]);
        let b = Tuple::new(vec![Value::Bool(true)]);
        let c = a.concat(&b);
        assert_eq!(c.arity(), 3);
        assert_eq!(c.get(2), &Value::Bool(true));
        assert_eq!(a.values().len(), 2);
    }

    #[test]
    fn from_iter_collects() {
        let t: Tuple = (0..3u64).map(Value::UInt).collect();
        assert_eq!(t.arity(), 3);
        assert_eq!(t.get(2), &Value::UInt(2));
        // Short-circuiting collection through Option works too (the
        // projection paths discard on a failed program).
        let some: Option<Tuple> = [Some(Value::UInt(1)), Some(Value::UInt(2))]
            .into_iter()
            .collect();
        assert_eq!(some.unwrap().arity(), 2);
        let none: Option<Tuple> =
            [Some(Value::UInt(1)), None].into_iter().collect();
        assert!(none.is_none());
    }

    #[test]
    fn display() {
        let t = Tuple::new(vec![Value::UInt(1), Value::Ip(0x01020304)]);
        assert_eq!(t.to_string(), "(1, 1.2.3.4)");
    }

    #[test]
    fn stream_item_helpers() {
        let t = StreamItem::Tuple(Tuple::new(vec![Value::UInt(1)]));
        assert!(!t.is_punct());
        assert!(t.as_tuple().is_some());
        let p = StreamItem::Punct(crate::punct::Punct::new(0, Value::UInt(5)));
        assert!(p.is_punct());
        assert!(p.as_tuple().is_none());
        assert_eq!(tuples_of(vec![t, p]).len(), 1);
    }
}
