//! In-memory spans for the traced run (choosing-metrics §4): recorded
//! from the harness's own files around the calls into each layer, kept
//! in memory, written to `<workload>.trace.json` at exit.

use crate::util::Json;
use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the recorder's clock
/// base; `parent` indexes into the same span list.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    /// Daemon epoch the span belongs to (spans of one epoch share it).
    pub epoch: Option<u64>,
}

/// A span list with a shared clock base, so recorders filled on
/// different threads can be merged into one timeline.
#[derive(Debug, Clone)]
pub struct Recorder {
    base: Instant,
    pub spans: Vec<Span>,
}

impl Recorder {
    pub fn new(base: Instant) -> Recorder {
        Recorder {
            base,
            spans: Vec::new(),
        }
    }

    pub fn base(&self) -> Instant {
        self.base
    }

    /// Nanoseconds since the clock base.
    pub fn now(&self) -> u64 {
        self.base.elapsed().as_nanos() as u64
    }

    /// `t` on the recorder's clock (0 for instants before the base).
    pub fn at(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.base).as_nanos() as u64
    }

    /// Record a completed span; returns its index for use as a parent.
    pub fn add(
        &mut self,
        name: &str,
        start_ns: u64,
        end_ns: u64,
        parent: Option<usize>,
        epoch: Option<u64>,
    ) -> usize {
        self.spans.push(Span {
            name: name.to_string(),
            start_ns,
            end_ns,
            parent,
            epoch,
        });
        self.spans.len() - 1
    }

    /// Append another recorder's spans (same clock base), remapping
    /// their parent indices.
    pub fn merge(&mut self, other: Recorder) {
        let offset = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + offset);
            s
        }));
    }

    pub fn to_json(&self) -> Json {
        Json::Arr(
            self.spans
                .iter()
                .map(|s| {
                    Json::obj(vec![
                        ("name", Json::str(&s.name)),
                        ("start_ns", Json::Int(s.start_ns)),
                        ("end_ns", Json::Int(s.end_ns)),
                        (
                            "parent",
                            s.parent.map_or(Json::Null, |p| Json::Int(p as u64)),
                        ),
                        ("epoch", s.epoch.map_or(Json::Null, Json::Int)),
                    ])
                })
                .collect(),
        )
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its direct children cover (overlapping children are counted
/// once; a child is clipped to its parent).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let (ps, pe) = (spans[p].start_ns, spans[p].end_ns);
            let (cs, ce) = (s.start_ns.max(ps), s.end_ns.min(pe));
            if ce > cs {
                children[p].push((cs, ce));
            }
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for (cs, ce) in kids {
                if ce > reach {
                    covered += ce - cs.max(reach);
                    reach = ce;
                }
            }
            (s.end_ns - s.start_ns).saturating_sub(covered)
        })
        .collect()
}

/// All spans of one name.
#[derive(Debug, Clone, PartialEq)]
pub struct NameSummary {
    pub name: String,
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// Count, total and self time per span name, sorted by name.
pub fn summarize(spans: &[Span]) -> Vec<NameSummary> {
    let mut by_name: BTreeMap<&str, (u64, u64, u64)> = BTreeMap::new();
    for (s, own) in spans.iter().zip(self_times(spans)) {
        let e = by_name.entry(&s.name).or_default();
        e.0 += 1;
        e.1 += s.end_ns - s.start_ns;
        e.2 += own;
    }
    by_name
        .into_iter()
        .map(|(name, (count, total_ns, self_ns))| NameSummary {
            name: name.to_string(),
            count,
            total_ns,
            self_ns,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name: name.to_string(),
            start_ns: start,
            end_ns: end,
            parent,
            epoch: None,
        }
    }

    #[test]
    fn self_time_subtracts_children_once() {
        let spans = vec![
            span("epoch", 0, 100, None),
            span("frame", 10, 30, Some(0)),
            // Overlaps the previous child: 20..30 must not count twice.
            span("frame", 20, 50, Some(0)),
            // Grandchild only reduces its own parent.
            span("decode", 12, 20, Some(1)),
            // Sticks out of the parent: clipped to 90..100.
            span("frame", 90, 130, Some(0)),
        ];
        let own = self_times(&spans);
        assert_eq!(own[0], 100 - (50 - 10) - 10);
        assert_eq!(own[1], 20 - 8);
        assert_eq!(own[2], 30);
        assert_eq!(own[3], 8);
        assert_eq!(own[4], 40);
    }

    #[test]
    fn summary_groups_by_name() {
        let spans = vec![
            span("epoch", 0, 10, None),
            span("epoch", 10, 30, None),
            span("frame", 12, 17, Some(1)),
        ];
        let sum = summarize(&spans);
        let row = |i: usize| {
            (
                sum[i].name.as_str(),
                sum[i].count,
                sum[i].total_ns,
                sum[i].self_ns,
            )
        };
        assert_eq!(row(0), ("epoch", 2, 30, 25));
        assert_eq!(row(1), ("frame", 1, 5, 5));
    }

    #[test]
    fn merge_remaps_parents() {
        let base = Instant::now();
        let mut a = Recorder::new(base);
        a.add("setup", 0, 5, None, None);
        let mut b = Recorder::new(base);
        let e = b.add("epoch", 5, 20, None, Some(3));
        b.add("frame", 6, 9, Some(e), Some(3));
        a.merge(b);
        assert_eq!(a.spans[2].parent, Some(1));
        assert_eq!(a.spans[1].epoch, Some(3));
        let json = a.to_json().to_string();
        assert!(json
            .contains(r#""name": "frame", "start_ns": 6, "end_ns": 9, "parent": 1, "epoch": 3"#));
    }
}
