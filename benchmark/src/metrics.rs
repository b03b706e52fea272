//! The metric tables: names, units, direction and bounds.
//!
//! `BENCHMARK.json` at the repository root carries the same tables for
//! the acceptance driver; a test below keeps the two from drifting.

/// An end-to-end metric: what a user of the system would see.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `"higher"` or `"lower"`.
    pub better: &'static str,
    /// Share of the baseline median by which the metric may get worse
    /// before it counts as a regression.
    pub bound: f64,
}

/// End-to-end metrics, printed with tracing off.
pub const END_TO_END: &[EndToEnd] = &[
    EndToEnd { name: "setup_s", unit: "s", better: "lower", bound: 0.25 },
    EndToEnd { name: "cells_per_s", unit: "cells/s", better: "higher", bound: 0.25 },
    EndToEnd { name: "goodput_mbps", unit: "Mb/s", better: "higher", bound: 0.25 },
    EndToEnd { name: "frame_latency_us_p50", unit: "us", better: "lower", bound: 0.25 },
    EndToEnd { name: "frame_latency_us_p90", unit: "us", better: "lower", bound: 0.25 },
    EndToEnd { name: "sim_s_per_wall_s", unit: "ratio", better: "higher", bound: 0.25 },
    EndToEnd { name: "peak_rss_mb", unit: "MB", better: "lower", bound: 0.10 },
];

/// Counts the fixed pass establishes that must repeat bit for bit for a
/// seed (simulated 40 ns cycles, allocations): every result document
/// carries them beside the snapshot digest, and `compare` holds them to
/// equality. They cannot be end-to-end metrics of the manifest — those
/// must keep a small spread across *different* seeds, and these
/// legitimately depend on the seed.
pub const EXACT: &[&str] =
    &["sim_a2f_latency_cycles_p99", "sim_f2a_latency_cycles_p99", "allocs_per_cell"];

/// A per-layer metric `(name, unit, better)`; no bound.
pub type PerLayer = (&'static str, &'static str, &'static str);

/// Per-layer metrics, printed by the traced run. Layer names are the
/// crates and modules.
pub const PER_LAYER: &[PerLayer] = &[
    ("whole.ns_per_cell", "ns", "lower"),
    ("wire.hec_ns_per_cell", "ns", "lower"),
    ("wire.crc10_ns_per_cell", "ns", "lower"),
    ("wire.crc32_ns_per_kb", "ns", "lower"),
    ("wire.pool_hit_share", "ratio", "higher"),
    ("sar.reassemble_ns_per_cell", "ns", "lower"),
    ("sar.segment_ns_per_cell", "ns", "lower"),
    ("sar.segment_allocs_per_frame", "count", "lower"),
    ("atm.gcra_ns_per_cell", "ns", "lower"),
    ("atm.network_ns_per_cell", "ns", "lower"),
    ("fddi.ring_ns_per_frame", "ns", "lower"),
    ("core.aic.receive_ns_per_cell", "ns", "lower"),
    ("core.aic.transmit_ns_per_cell", "ns", "lower"),
    ("core.spp.ingest_ns_per_cell", "ns", "lower"),
    ("core.spp.fragment_ns_per_cell", "ns", "lower"),
    ("core.spp.fragment_allocs_per_frame", "count", "lower"),
    ("core.mpp.from_spp_ns_per_frame", "ns", "lower"),
    ("core.mpp.from_fddi_ns_per_frame", "ns", "lower"),
    ("core.buffers.store_drain_ns_per_frame", "ns", "lower"),
    ("core.gateway.deliver_ns_per_cell", "ns", "lower"),
    ("core.gateway.fddi_in_ns_per_frame", "ns", "lower"),
    ("core.gateway.glue_ns_per_cell", "ns", "lower"),
    ("core.gateway.advance_idle_ns", "ns", "lower"),
    ("core.gateway.fddi_in_allocs_per_frame", "count", "lower"),
    ("core.gateway.snapshot_ms", "ms", "lower"),
    ("core.gateway.install_congram_us", "us", "lower"),
    ("core.gateway.sim_a2f_latency_cycles_p99", "cycles", "lower"),
    ("core.gateway.sim_f2a_latency_cycles_p99", "cycles", "lower"),
    ("core.per_frame_share", "ratio", "lower"),
    ("mgmt.overhead_ns_per_cell", "ns", "lower"),
    ("sim.timer_ns_per_op", "ns", "lower"),
    ("core.npe.handle_us_per_setup", "us", "lower"),
    ("phy.encap.encode_ns", "ns", "lower"),
    ("phy.encap.decode_ns", "ns", "lower"),
    ("phy.udp.cell_ns_per_cell", "ns", "lower"),
    ("phy.udp.frame_ns_per_frame", "ns", "lower"),
    ("phy.udp.datagrams_per_cell", "count", "lower"),
    ("phy.udp.allocs_per_cell", "count", "lower"),
    ("phy.udp.retransmit_share", "ratio", "lower"),
    ("phy.udp.dup_drop_share", "ratio", "lower"),
    ("phy.udp.decode_drop_share", "ratio", "lower"),
    ("phy.appliance.step_ns_per_cell", "ns", "lower"),
    ("phy.appliance.steps_per_frame", "count", "lower"),
    ("phy.appliance.frame_latency_us_p99", "us", "lower"),
    ("phy.appliance.frame_latency_us_p999", "us", "lower"),
    ("phy.self_share", "ratio", "lower"),
    ("scene.parse_ms", "ms", "lower"),
    ("testbed.build_ms", "ms", "lower"),
    ("testbed.run_ns_per_cell", "ns", "lower"),
    ("testbed.other_share", "ratio", "lower"),
    ("trace.overhead_share", "ratio", "lower"),
    ("trace.spans", "count", "lower"),
    ("allocs_per_cell", "count", "lower"),
    ("failed_share", "ratio", "lower"),
    ("lost_booked_share", "ratio", "lower"),
    ("checked_in_full_share", "ratio", "higher"),
    ("fixed_pass.frames", "count", "higher"),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::{NOT_IN_MANIFEST, WORKLOADS};
    use atm_fddi_gateway::mgmt::json::Json;

    fn manifest() -> Json {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        Json::parse(&text).expect("BENCHMARK.json parses")
    }

    fn field<'a>(o: &'a Json, key: &str) -> &'a str {
        o.get(key).and_then(Json::as_str).unwrap_or_else(|| panic!("{key} in {o:?}"))
    }

    #[test]
    fn benchmark_json_names_the_same_workloads_and_metrics() {
        let doc = manifest();
        let listed = |key: &str| doc.get(key).and_then(Json::as_arr).expect(key).to_vec();

        let workloads = listed("workloads");
        let gating = WORKLOADS.iter().filter(|w| !NOT_IN_MANIFEST.contains(&w.0));
        assert_eq!(workloads.len(), gating.clone().count());
        for (w, &(name, why)) in workloads.iter().zip(gating) {
            assert_eq!((field(w, "name"), field(w, "why")), (name, why));
            assert!(why.len() <= 200, "{name}: a why has at most 200 characters");
        }

        let e2e = listed("end_to_end");
        assert_eq!(e2e.len(), END_TO_END.len());
        for (j, m) in e2e.iter().zip(END_TO_END) {
            assert_eq!(
                (field(j, "name"), field(j, "unit"), field(j, "better")),
                (m.name, m.unit, m.better)
            );
            assert_eq!(j.get("bound").and_then(Json::as_f64), Some(m.bound), "{}", m.name);
            assert!(m.bound <= 0.25);
        }
        assert!(END_TO_END.iter().any(|m| (m.name, m.unit, m.better) == ("setup_s", "s", "lower")));

        let layers = listed("per_layer");
        assert_eq!(layers.len(), PER_LAYER.len());
        for (j, (name, unit, better)) in layers.iter().zip(PER_LAYER) {
            let listed = (field(j, "name"), field(j, "unit"), field(j, "better"));
            assert_eq!(listed, (*name, *unit, *better));
        }
    }

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut names: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
        names.extend(PER_LAYER.iter().map(|m| m.0));
        names.extend(WORKLOADS.iter().map(|w| w.0));
        let total = names.len();
        for n in &names {
            assert!(n.len() <= 64 && n.starts_with(|c: char| c.is_ascii_alphanumeric()), "{n}");
            assert!(n.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)), "{n}");
        }
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used once");
    }
}
