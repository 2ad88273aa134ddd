//! The benchmark's contract: which metrics exist, their units, which
//! direction is better, and the regression bound on each end-to-end
//! metric. `gsbench --manifest` renders this as `BENCHMARK.json`; a unit
//! test keeps the checked-in file equal to it, and every run checks the
//! metrics it reports against it.

use crate::util::Json;
use crate::workloads;

/// Default `--seconds`: `run_seconds` of `BENCHMARK.json`.
pub const RUN_SECONDS: u64 = 6;

pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    /// `true` when a higher value is better.
    pub higher: bool,
    /// Share of the parent's median the metric may worsen by
    /// (end-to-end metrics only).
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, higher: bool, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        higher,
        bound,
    }
}

const fn layer(name: &'static str, unit: &'static str, higher: bool) -> MetricDef {
    MetricDef {
        name,
        unit,
        higher,
        bound: 0.0,
    }
}

/// End-to-end metrics, reported per workload. Bounds come from
/// `selfcheck.sh` and ten-seed spreads on the 2-vCPU reference host (see
/// README.md): a shared VM's CPU speed alone wanders by several percent
/// from second to second, so no bound here is below 0.15.
pub const END_TO_END: [MetricDef; 4] = [
    e2e("pkts_per_s", "1/s", true, 0.25),
    e2e("epoch_ms_p50", "ms", false, 0.25),
    e2e("cpu_us_per_pkt", "us/pkt", false, 0.25),
    e2e("setup_s", "s", false, 0.25),
];

/// Per-layer metrics of the traced run, in reporting order.
pub const PER_LAYER: [MetricDef; 61] = [
    layer("packet.parse_ns_per_pkt", "ns/pkt", false),
    layer("packet.pkts_in", "count", true),
    layer("nic.bpf_ns_per_pkt", "ns/pkt", false),
    layer("gsql.compile_us_per_query", "us/query", false),
    layer("prefilter.dispatch_ns_per_pkt", "ns/pkt", false),
    layer("prefilter.atom_evals_per_pkt", "evals/pkt", false),
    layer("prefilter.hit_ratio", "ratio", true),
    layer("lfta.push_ns_per_pkt", "ns/pkt", false),
    layer("lfta.tuples_out_per_pkt", "tuples/pkt", false),
    layer("transport.batch_build_ns_per_tuple", "ns/tuple", false),
    layer("transport.channel_ns_per_batch", "ns/batch", false),
    layer("transport.materialize_ns_per_row", "ns/row", false),
    layer("transport.batches", "count", false),
    layer("transport.stalls", "count", false),
    layer("transport.shed_items", "count", false),
    layer("hfta.agg_ns_per_tuple", "ns/tuple", false),
    layer("hfta.select_ns_per_tuple", "ns/tuple", false),
    layer("hfta.merge_ns_per_tuple", "ns/tuple", false),
    layer("hfta.join_ns_per_tuple", "ns/tuple", false),
    layer("hfta.tuples_in", "count", true),
    layer("hfta.tuples_out", "count", true),
    layer("hfta.peak_held", "count", false),
    layer("snapshot.capture_us_per_epoch", "us/epoch", false),
    layer("snapshot.restore_us_per_epoch", "us/epoch", false),
    layer("snapshot.bytes_per_epoch", "B/epoch", false),
    layer("durable.commit_us_per_epoch", "us/epoch", false),
    layer("durable.bytes_per_epoch", "B/epoch", false),
    layer("manager.empty_run_us", "us", false),
    layer("manager.run_ms_per_epoch", "ms", false),
    layer("manager.pkts_per_s", "1/s", true),
    layer("server.encode_ns_per_row", "ns/row", false),
    layer("server.decode_ns_per_row", "ns/row", false),
    layer("server.source_ns_per_pkt", "ns/pkt", false),
    layer("replay.rows_out_per_pkt", "rows/pkt", false),
    layer("replay.epochs", "count", true),
    layer("share.packet_pct", "%", false),
    layer("share.nic_pct", "%", false),
    layer("share.prefilter_pct", "%", false),
    layer("share.lfta_pct", "%", false),
    layer("share.transport_pct", "%", false),
    layer("share.hfta_pct", "%", false),
    layer("share.snapshot_pct", "%", false),
    layer("share.durable_pct", "%", false),
    layer("share.manager_pct", "%", false),
    layer("share.server_pct", "%", false),
    layer("share.source_pct", "%", false),
    layer("engine.pkts_per_s", "1/s", true),
    layer("server.epoch_ms_p95", "ms", false),
    layer("server.epoch_ms_max", "ms", false),
    layer("server.overhead_ms_per_epoch", "ms", false),
    layer("server.rows_out", "count", true),
    layer("server.frames_out", "count", false),
    layer("server.bytes_out", "B", false),
    layer("server.shed_items", "count", false),
    layer("server.run_errors", "count", false),
    layer("server.rss_growth_mb", "MiB", false),
    layer("durable.write_failed", "count", false),
    layer("harness.tracegen_s", "s", false),
    layer("harness.trace_overhead_pct", "%", false),
    layer("harness.stage_sum_ratio", "ratio", true),
    layer("harness.traced_cpu_us_per_pkt", "us/pkt", false),
];

fn metric_json(m: &MetricDef, with_bound: bool) -> Json {
    let mut pairs = vec![
        ("name", Json::str(m.name)),
        ("unit", Json::str(m.unit)),
        (
            "better",
            Json::str(if m.higher { "higher" } else { "lower" }),
        ),
    ];
    if with_bound {
        pairs.push(("bound", Json::Num(m.bound)));
    }
    Json::obj(pairs)
}

/// The content of `BENCHMARK.json`.
pub fn benchmark_json() -> Json {
    Json::obj(vec![
        (
            "command",
            Json::Arr(vec![Json::str("bash"), Json::str("benchmark/run.sh")]),
        ),
        ("paths", Json::Arr(vec![Json::str("benchmark")])),
        ("run_seconds", Json::Int(RUN_SECONDS)),
        (
            "workloads",
            Json::Arr(
                workloads::all()
                    .iter()
                    .map(|w| {
                        Json::obj(vec![("name", Json::str(w.name)), ("why", Json::str(w.why))])
                    })
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(END_TO_END.iter().map(|m| metric_json(m, true)).collect()),
        ),
        (
            "per_layer",
            Json::Arr(PER_LAYER.iter().map(|m| metric_json(m, false)).collect()),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn legal_name(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 64
            && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn manifest_obeys_the_contract_limits() {
        let mut names: Vec<&str> = Vec::new();
        for m in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(legal_name(m.name), "{}", m.name);
            assert!(
                !m.unit.is_empty()
                    && m.unit.len() <= 16
                    && m.unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "unit of {}",
                m.name
            );
            names.push(m.name);
        }
        let ws = workloads::all();
        assert!((2..=8).contains(&ws.len()));
        for w in &ws {
            assert!(legal_name(w.name));
            assert!(
                w.why.len() <= 200 && !w.why.contains('\n') && !w.why.contains("  "),
                "{}: why is {} chars",
                w.name,
                w.why.len()
            );
            names.push(w.name);
        }
        let mut unique = names.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), names.len(), "a name is used twice");
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s" && !m.higher));
        assert!(PER_LAYER.len() <= 128 && (1..=60).contains(&RUN_SECONDS));
        assert!(benchmark_json().to_string().len() < 64 * 1024);
    }

    #[test]
    fn checked_in_benchmark_json_matches_the_manifest() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let squash = |s: &str| s.split_whitespace().collect::<String>();
        assert_eq!(
            squash(&on_disk),
            squash(&benchmark_json().to_string()),
            "regenerate with `benchmark/run.sh --manifest > BENCHMARK.json`"
        );
    }
}
