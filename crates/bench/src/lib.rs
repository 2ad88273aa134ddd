//! Shared harness for the experiment-reproduction binaries.
//!
//! Every table and figure of the paper's evaluation maps to one
//! `repro_*` binary (see EXPERIMENTS.md and `src/bin/`); this library
//! holds the pieces they share: compiling the §4 experiment's query into
//! a real LFTA, the host/NIC actions that execute genuine query code
//! inside the calibrated capture-path simulator, and small table/crossing
//! helpers.

pub mod gate;
pub mod harness;

use gs_gsql::catalog::{Catalog, InterfaceDef};
use gs_gsql::split::split_query;
use gs_netgen::{MixConfig, PacketMix};
use gs_nic::bpf::BpfProgram;
use gs_nic::sim::{HostAction, NicAction, NicVerdict};
use gs_packet::capture::LinkType;
use gs_packet::CapPacket;
use gs_runtime::ops::build::{build_lfta, BuildCtx};
use gs_runtime::ops::lfta::Lfta;
use gs_runtime::tuple::StreamItem;
use gs_runtime::udf::regex::Regex;
use gs_runtime::udf::{FileStore, UdfRegistry};
use gs_runtime::ParamBindings;

/// The paper's payload regex, verbatim.
pub const HTTP_REGEX: &str = "^[^\\n]*HTTP/1.*";

/// Virtual cost charged per regex evaluation, beyond the per-byte scan.
pub const REGEX_BASE_NS: u64 = 500;
/// Virtual regex cost per payload byte (the HFTA's expensive work).
pub const REGEX_PER_BYTE_NS: f64 = 2.0;

/// Compile the §4 experiment's LFTA — `Select time, payload From eth0.tcp
/// Where destPort = 80` — through the real GSQL pipeline (parse, analyze,
/// split, instantiate), so the simulation runs genuine generated code.
pub fn build_port80_lfta() -> Lfta {
    let mut catalog = Catalog::with_builtins();
    catalog.add_interface(InterfaceDef {
        name: "eth0".into(),
        id: 0,
        link: LinkType::Ethernet,
    });
    let q = gs_gsql::parse_query(
        "DEFINE { query_name port80; } \
         Select time, payload From eth0.tcp Where destPort = 80",
    )
    .expect("static query parses");
    let aq = gs_gsql::analyze(&q, &catalog).expect("analyzes");
    let dq = split_query(&aq, &catalog).expect("splits");
    assert!(dq.hfta.is_none(), "the filter query is a single LFTA");
    let params = ParamBindings::new();
    let registry = UdfRegistry::with_builtins();
    let resolver = FileStore::new();
    let ctx = BuildCtx {
        catalog: &catalog,
        params: &params,
        registry: &registry,
        resolver: &resolver,
        lfta_table_size: 4096,
    };
    build_lfta(&dq.lftas[0], &ctx).expect("instantiates")
}

/// The host side of Gigascope option 3 (and the host half of option 4):
/// runs the real LFTA per packet and the real HFTA regex per qualifying
/// tuple, charging calibrated virtual costs.
pub struct GigascopeHost {
    lfta: Lfta,
    regex: Regex,
    lfta_eval_ns: u64,
    /// Whether the LFTA cost is charged here (false when the LFTA already
    /// ran on the NIC).
    pub charge_lfta: bool,
    /// Port-80 tuples produced.
    pub port80: u64,
    /// Tuples whose payload matched the regex.
    pub matched: u64,
    scratch: Vec<StreamItem>,
}

impl GigascopeHost {
    /// Build from the cost model.
    pub fn new(costs: &gs_nic::CostModel, charge_lfta: bool) -> GigascopeHost {
        GigascopeHost {
            lfta: build_port80_lfta(),
            regex: Regex::compile(HTTP_REGEX).expect("paper regex compiles"),
            lfta_eval_ns: costs.host_lfta_eval_ns,
            charge_lfta,
            port80: 0,
            matched: 0,
            scratch: Vec::new(),
        }
    }

    /// The measured HTTP fraction so far.
    pub fn fraction(&self) -> f64 {
        if self.port80 == 0 {
            0.0
        } else {
            self.matched as f64 / self.port80 as f64
        }
    }
}

impl HostAction for GigascopeHost {
    fn handle(&mut self, pkt: &CapPacket) -> u64 {
        self.scratch.clear();
        self.lfta.push_packet(pkt, &mut self.scratch);
        let mut cost = if self.charge_lfta { self.lfta_eval_ns } else { 0 };
        for item in self.scratch.drain(..) {
            let StreamItem::Tuple(t) = item else { continue };
            self.port80 += 1;
            // HFTA work: the real regex over the real payload.
            if let Some(payload) = t.get(1).as_bytes() {
                cost += REGEX_BASE_NS + (REGEX_PER_BYTE_NS * payload.len() as f64) as u64;
                if self.regex.is_match(payload) {
                    self.matched += 1;
                }
            }
        }
        cost
    }
}

/// The NIC side of option 4: the LFTA's filter runs in firmware; only
/// qualifying packets cross to the host.
pub struct NicLfta {
    filter: BpfProgram,
    /// Packets the firmware filtered out.
    pub rejected: u64,
}

impl Default for NicLfta {
    fn default() -> Self {
        NicLfta::new()
    }
}

impl NicLfta {
    /// Uses the same port-80 program the splitter pushes down for the
    /// LFTA's prefilter.
    pub fn new() -> NicLfta {
        NicLfta { filter: gs_nic::bpf::tcp_dst_port_filter(80), rejected: 0 }
    }
}

impl NicAction for NicLfta {
    fn handle(&mut self, pkt: &CapPacket) -> NicVerdict {
        if self.filter.accepts(&pkt.data) {
            NicVerdict::Pass { snaplen: None }
        } else {
            self.rejected += 1;
            NicVerdict::Filtered
        }
    }
}

/// The standard E1 workload at a given total offered rate: 60 Mbit/s of
/// port-80 traffic (70 % genuine HTTP) plus background to make up the
/// total, over `duration_ms` of virtual time.
pub fn e1_mix(total_mbps: f64, duration_ms: u64, seed: u64) -> PacketMix {
    let http = 60.0f64.min(total_mbps);
    PacketMix::new(MixConfig {
        seed,
        duration_ms,
        http_rate_mbps: http,
        http_match_fraction: 0.7,
        background_rate_mbps: (total_mbps - http).max(0.0),
        ..MixConfig::default()
    })
}

/// Linear interpolation of the offered rate at which `loss` first crosses
/// `threshold`; `None` if it never does.
pub fn crossing(points: &[(f64, f64)], threshold: f64) -> Option<f64> {
    for w in points.windows(2) {
        let (x0, y0) = w[0];
        let (x1, y1) = w[1];
        if y0 <= threshold && y1 > threshold {
            if (y1 - y0).abs() < f64::EPSILON {
                return Some(x1);
            }
            return Some(x0 + (threshold - y0) / (y1 - y0) * (x1 - x0));
        }
    }
    points.first().and_then(|&(x0, y0)| (y0 > threshold).then_some(x0))
}

/// Render one row of a fixed-width results table.
pub fn row(cells: &[String], widths: &[usize]) -> String {
    cells
        .iter()
        .zip(widths)
        .map(|(c, w)| format!("{c:>w$}", w = w))
        .collect::<Vec<_>>()
        .join("  ")
}

#[cfg(test)]
mod tests {
    use super::*;
    use gs_nic::{CaptureSim, CostModel};

    #[test]
    fn port80_lfta_builds_with_prefilter_and_no_snap() {
        let lfta = build_port80_lfta();
        assert_eq!(lfta.protocol_name(), "tcp");
    }

    #[test]
    fn host_action_counts_match_ground_truth() {
        let mut mix = e1_mix(100.0, 200, 9);
        let sim = CaptureSim::default();
        let mut host = GigascopeHost::new(&CostModel::default(), true);
        // Run far below capacity: nothing drops, counts are exact.
        let pkts: Vec<_> = (&mut mix).collect();
        let slowed = pkts
            .into_iter()
            .enumerate()
            .map(|(i, mut p)| {
                p.ts_ns = i as u64 * 100_000; // 10 kpps
                p
            })
            .collect::<Vec<_>>();
        let r = sim.run(slowed.into_iter(), None, &mut host);
        assert_eq!(r.loss_rate(), 0.0);
        let truth = mix.truth();
        assert_eq!(host.port80, truth.port80_pkts);
        assert_eq!(host.matched, truth.http_match_pkts);
    }

    #[test]
    fn crossing_interpolates() {
        let pts = vec![(100.0, 0.0), (200.0, 0.0), (300.0, 0.04)];
        let c = crossing(&pts, 0.02).unwrap();
        assert!((c - 250.0).abs() < 1.0, "crossing {c}");
        assert!(crossing(&[(1.0, 0.0), (2.0, 0.0)], 0.02).is_none());
        // Already above threshold at the first point.
        assert_eq!(crossing(&[(50.0, 0.5)], 0.02), Some(50.0));
    }

    #[test]
    fn nic_lfta_filters_non_port80() {
        let mut nic = NicLfta::new();
        let yes = gs_packet::builder::FrameBuilder::tcp(1, 2, 9, 80).build_ethernet();
        let no = gs_packet::builder::FrameBuilder::tcp(1, 2, 9, 25).build_ethernet();
        let mk = |d| CapPacket::full(0, 0, LinkType::Ethernet, d);
        assert!(matches!(nic.handle(&mk(yes)), NicVerdict::Pass { .. }));
        assert!(matches!(nic.handle(&mk(no)), NicVerdict::Filtered));
        assert_eq!(nic.rejected, 1);
    }
}
