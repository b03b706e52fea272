//! Snapshot/export layer: one stable JSON document (plus a
//! human-readable text dump) describing the whole gateway.
//!
//! This is the management plane's external face — the equivalent of the
//! NPE answering a network-management query (§6). The document shape is
//! stable: every key is emitted on every snapshot (absent subsystems
//! export `null`), so downstream tooling can parse it blind. The
//! `examples/gwstat.rs` CLI drives this module end-to-end.

use crate::buffers::BufferMemory;
use crate::gateway::Gateway;
use gw_mgmt::Port;
use gw_sim::json::Json;
use gw_sim::{Counter, Histogram, SimTime, TimeWeighted};

/// Format tag carried in every snapshot (`"format"` key); bump on any
/// incompatible shape change.
pub const SNAPSHOT_FORMAT: &str = "gw-snapshot/1";

fn counter_json(c: &Counter) -> Json {
    let mut o = Json::obj();
    o.set("count", Json::U64(c.count()));
    o.set("octets", Json::U64(c.octets()));
    o
}

fn gauge_json(g: &TimeWeighted, now: SimTime) -> Json {
    let mut o = Json::obj();
    o.set("current", Json::F64(g.current()));
    o.set("mean", Json::F64(g.mean(now)));
    o.set("max", Json::F64(g.max()));
    o
}

fn histogram_json(h: &Histogram) -> Json {
    let mut o = Json::obj();
    o.set("count", Json::U64(h.count()));
    o.set("mean", Json::F64(h.mean()));
    o.set("min", Json::U64(h.min()));
    o.set("max", Json::U64(h.max()));
    o.set("p50", Json::U64(h.quantile(0.5)));
    o.set("p90", Json::U64(h.quantile(0.9)));
    o.set("p99", Json::U64(h.quantile(0.99)));
    o
}

fn buffer_json(b: &BufferMemory, now: SimTime) -> Json {
    let s = b.stats();
    let mut o = Json::obj();
    o.set("used_octets", Json::U64(b.used_octets() as u64));
    o.set("capacity_octets", Json::U64(b.capacity_octets() as u64));
    o.set("mean_occupancy_octets", Json::F64(b.mean_occupancy(now)));
    o.set("peak_octets", Json::U64(s.peak_octets as u64));
    o.set("shedding", Json::Bool(b.is_shedding()));
    o.set("frames_in", Json::U64(s.frames_in));
    o.set("frames_out", Json::U64(s.frames_out));
    o.set("overflow_drops", Json::U64(s.overflow_drops));
    o.set("frames_shed", Json::U64(s.frames_shed));
    o.set("octets_shed", Json::U64(s.octets_shed));
    o.set("shed_entries", Json::U64(s.shed_entries));
    o
}

fn port_health_json(p: &gw_mgmt::PortHealth) -> Json {
    let mut o = Json::obj();
    o.set("state", Json::Str(p.state.name().to_string()));
    o.set("window_errors", Json::U64(p.window_errors));
    o.set("clean_windows", Json::U64(p.clean_windows as u64));
    o.set("errors_total", Json::U64(p.errors_total));
    o.set("transitions", Json::U64(p.transitions));
    // Appliance-mode transport counters (additive fields; stay zero
    // under the co-sim testbed where the transport never fails).
    o.set("reconnects", Json::U64(p.reconnects));
    o.set("backoff_retries", Json::U64(p.backoff_retries));
    o
}

impl Gateway {
    /// A point-in-time JSON snapshot of the whole gateway at simulated
    /// time `now`.
    ///
    /// `&mut self` because taking the snapshot performs the same
    /// housekeeping a management query through the NPE would: NPE
    /// counters are mirrored into the registry and elapsed health
    /// windows are closed. The data path is not touched.
    pub fn snapshot(&mut self, now: SimTime) -> Json {
        self.sync_npe_stats();
        if let Some(m) = &mut self.mgmt {
            for transition in m.health.advance(now).into_iter().flatten() {
                m.trace.emit(gw_mgmt::GwEvent::PortHealthChanged {
                    at: now,
                    port: transition.port,
                    from: transition.from,
                    to: transition.to,
                });
            }
        }

        let mut doc = Json::obj();
        doc.set("format", Json::Str(SNAPSHOT_FORMAT.to_string()));
        doc.set("time_ns", Json::U64(now.as_ns()));

        // Per-port health (null when management is off).
        doc.set(
            "health",
            match &self.mgmt {
                Some(m) => {
                    let mut h = Json::obj();
                    h.set("atm", port_health_json(m.health.port(Port::Atm)));
                    h.set("fddi", port_health_json(m.health.port(Port::Fddi)));
                    h
                }
                None => Json::Null,
            },
        );

        // The registry, verbatim: every counter/gauge/histogram by its
        // hierarchical name.
        doc.set(
            "metrics",
            match &self.mgmt {
                Some(m) => {
                    let mut counters = Json::obj();
                    for (name, c) in m.registry.counters() {
                        counters.set(name, counter_json(c));
                    }
                    let mut gauges = Json::obj();
                    for (name, g) in m.registry.gauges() {
                        gauges.set(name, gauge_json(g, now));
                    }
                    let mut hists = Json::obj();
                    for (name, h) in m.registry.histograms() {
                        hists.set(name, histogram_json(h));
                    }
                    let mut o = Json::obj();
                    o.set("histogram_sample_every", Json::U64(m.registry.sample_every() as u64));
                    o.set("counters", counters);
                    o.set("gauges", gauges);
                    o.set("histograms", hists);
                    o
                }
                None => Json::Null,
            },
        );

        // Per-VC table: the union of registry rows and installed
        // GCRA policers, sorted by VCI. Counter fields are null when
        // management is off; `rate_control` is null when no policer is
        // installed on that VC.
        let mut vcis: Vec<u16> =
            self.vc_slots.iter().filter(|s| s.policer.is_some()).map(|s| s.vci.0).collect();
        if let Some(m) = &self.mgmt {
            vcis.extend(m.registry.vc_rows().iter().map(|&(vci, _, _)| vci));
        }
        vcis.sort_unstable();
        vcis.dedup();
        let mut vcs = Vec::with_capacity(vcis.len());
        for vci in vcis {
            let mut row = Json::obj();
            row.set("vci", Json::U64(vci as u64));
            let vc = self.mgmt.as_ref().and_then(|m| m.registry.vc(vci).map(|v| (m, v)));
            match vc {
                Some((m, v)) => {
                    let count = |id| Json::U64(m.registry.counter_value(id).0);
                    row.set("active", Json::Bool(m.registry.vc_active(vci)));
                    row.set("cells_in", count(v.cells_in));
                    row.set("reassembled_frames", count(v.reassembled));
                    row.set("discarded_frames", count(v.discarded));
                    row.set("forwarded_frames", count(v.forwarded));
                    row.set("cells_out", count(v.cells_out));
                    row.set("policed_cells", count(v.policed));
                }
                None => {
                    for key in [
                        "active",
                        "cells_in",
                        "reassembled_frames",
                        "discarded_frames",
                        "forwarded_frames",
                        "cells_out",
                        "policed_cells",
                    ] {
                        row.set(key, Json::Null);
                    }
                }
            }
            row.set(
                "rate_control",
                match self.rate_control_counts(gw_wire::atm::Vci(vci)) {
                    Some((conforming, nonconforming)) => {
                        let mut rc = Json::obj();
                        rc.set("conforming_cells", Json::U64(conforming));
                        rc.set("nonconforming_cells", Json::U64(nonconforming));
                        rc
                    }
                    None => Json::Null,
                },
            );
            vcs.push(row);
        }
        doc.set("vcs", Json::Arr(vcs));

        // SUPERNET buffer memories.
        let mut buffers = Json::obj();
        buffers.set("tx", buffer_json(&self.tx_buffer, now));
        buffers.set("rx", buffer_json(&self.rx_buffer, now));
        doc.set("buffers", buffers);

        // Per-component hardware counters (always present; these come
        // from the components themselves, not the registry).
        let mut components = Json::obj();
        let a = self.aic.stats();
        let mut aic = Json::obj();
        aic.set("cells_in", Json::U64(a.cells_in));
        aic.set("hec_discards", Json::U64(a.hec_discards));
        aic.set("hec_corrections", Json::U64(a.hec_corrections));
        aic.set("cells_out", Json::U64(a.cells_out));
        components.set("aic", aic);
        let s = self.spp.stats();
        let r = self.sar_reassembly_stats();
        let mut spp = Json::obj();
        spp.set("cells_in", Json::U64(s.cells_in));
        spp.set("frames_up", Json::U64(s.frames_up));
        spp.set("frames_down", Json::U64(s.frames_down));
        spp.set("cells_out", Json::U64(s.cells_out));
        spp.set("init_frames", Json::U64(s.init_frames));
        let mut reasm = Json::obj();
        reasm.set("cells_stored", Json::U64(r.cells_stored));
        reasm.set("frames_complete", Json::U64(r.frames_complete));
        reasm.set("crc_drops", Json::U64(r.crc_drops));
        reasm.set("seq_errors", Json::U64(r.seq_errors));
        reasm.set("seq_misinserts", Json::U64(r.seq_misinserts));
        reasm.set("frames_discarded", Json::U64(r.frames_discarded));
        reasm.set("timeouts", Json::U64(r.timeouts));
        reasm.set("no_buffer_drops", Json::U64(r.no_buffer_drops));
        reasm.set("overflow_drops", Json::U64(r.overflow_drops));
        reasm.set("unknown_vc_drops", Json::U64(r.unknown_vc_drops));
        reasm.set("cells_completed", Json::U64(r.cells_completed));
        reasm.set("cells_discarded", Json::U64(r.cells_discarded));
        reasm.set("cells_flushed", Json::U64(r.cells_flushed));
        reasm.set("cells_closed", Json::U64(r.cells_closed));
        spp.set("reassembly", reasm);
        components.set("spp", spp);
        let m = self.mpp.stats();
        let mut mpp = Json::obj();
        mpp.set("data_up", Json::U64(m.data_up));
        mpp.set("data_down", Json::U64(m.data_down));
        mpp.set("control_to_npe", Json::U64(m.control_to_npe));
        mpp.set("drops", Json::U64(m.drops));
        mpp.set("init_ops", Json::U64(m.init_ops));
        components.set("mpp", mpp);
        let n = self.npe.stats();
        let sup = self.npe.supervisor().stats();
        let mut npe = Json::obj();
        npe.set("control_frames", Json::U64(n.control_frames));
        npe.set("setups_confirmed", Json::U64(n.setups_confirmed));
        npe.set("setups_rejected", Json::U64(n.setups_rejected));
        npe.set("teardowns", Json::U64(n.teardowns));
        npe.set("smt_frames", Json::U64(n.smt_frames));
        npe.set("setup_retries", Json::U64(n.setup_retries));
        npe.set("setups_failed", Json::U64(n.setups_failed));
        npe.set("vcs_quarantined", Json::U64(n.vcs_quarantined));
        npe.set("reestablishments", Json::U64(n.reestablishments));
        npe.set("watchdog_fires", Json::U64(sup.watchdog_fires));
        npe.set("fifo_depth_peak", Json::U64(self.npe_fifo_depth_peak as u64));
        components.set("npe", npe);
        doc.set("components", components);

        // Gateway-level totals (the study's GatewayStats).
        let g = self.stats();
        let mut totals = Json::obj();
        totals.set("atm_to_fddi_ns", histogram_json(&g.atm_to_fddi_ns));
        totals.set("fddi_to_atm_ns", histogram_json(&g.fddi_to_atm_ns));
        totals.set("forward_path_ns", histogram_json(&g.forward_path_ns));
        totals.set("fddi_fcs_drops", Json::U64(g.fddi_fcs_drops));
        totals.set("tx_overflow_drops", Json::U64(g.tx_overflow_drops));
        totals.set("rx_overflow_drops", Json::U64(g.rx_overflow_drops));
        totals.set("partial_discards", Json::U64(g.partial_discards));
        totals.set("setup_retries", Json::U64(g.setup_retries));
        totals.set("setups_failed", Json::U64(g.setups_failed));
        totals.set("vcs_quarantined", Json::U64(g.vcs_quarantined));
        totals.set("reestablishments", Json::U64(g.reestablishments));
        totals.set("frames_shed", Json::U64(g.frames_shed));
        totals.set("cells_shed", Json::U64(g.cells_shed));
        totals.set("malformed_drops", Json::U64(g.malformed_drops));

        // Conservation ledger: the disposition counters plus the result
        // of checking the flow-conservation equations at this instant.
        // A violation here means the gateway lost or double-counted
        // traffic somewhere between its counters — debug builds assert.
        let c = self.conservation();
        let violations = self.check_conservation();
        debug_assert!(violations.is_empty(), "conservation invariant violated: {violations:?}");
        let mut cons = Json::obj();
        cons.set("policed_cells", Json::U64(c.policed_cells));
        cons.set("atm_frames_forwarded", Json::U64(c.atm_frames_forwarded));
        cons.set("atm_tx_shed", Json::U64(c.atm_tx_shed));
        cons.set("atm_tx_overflow", Json::U64(c.atm_tx_overflow));
        cons.set("atm_mpp_drops", Json::U64(c.atm_mpp_drops));
        cons.set("atm_malformed", Json::U64(c.atm_malformed));
        cons.set("control_delivered", Json::U64(c.control_delivered));
        cons.set("control_fifo_drops", Json::U64(c.control_fifo_drops));
        cons.set("misinserted_frames", Json::U64(c.misinserted_frames));
        cons.set("fddi_frames_in", Json::U64(c.fddi_frames_in));
        cons.set("fddi_malformed_fc", Json::U64(c.fddi_malformed_fc));
        cons.set("fddi_smt", Json::U64(c.fddi_smt));
        cons.set("fddi_tokens", Json::U64(c.fddi_tokens));
        cons.set("fddi_rx_shed", Json::U64(c.fddi_rx_shed));
        cons.set("fddi_rx_overflow", Json::U64(c.fddi_rx_overflow));
        cons.set("fddi_fragmented", Json::U64(c.fddi_fragmented));
        cons.set("fddi_fragment_errors", Json::U64(c.fddi_fragment_errors));
        cons.set("fddi_control_to_npe", Json::U64(c.fddi_control_to_npe));
        cons.set("fddi_mpp_drops", Json::U64(c.fddi_mpp_drops));
        cons.set("fddi_rx_inconsistent", Json::U64(c.fddi_rx_inconsistent));
        cons.set("mpp_staging_consumed", Json::U64(c.mpp_staging_consumed));
        cons.set("balanced", Json::Bool(violations.is_empty()));
        cons.set("violations", Json::Arr(violations.into_iter().map(Json::Str).collect()));
        totals.set("conservation", cons);
        doc.set("totals", totals);

        // Trace retention status.
        doc.set(
            "trace",
            match &self.mgmt {
                Some(m) => {
                    let mut t = Json::obj();
                    t.set("enabled", Json::Bool(m.trace.is_enabled()));
                    t.set("events_retained", Json::U64(m.trace.len() as u64));
                    t.set("events_dropped", Json::U64(m.trace.dropped()));
                    t
                }
                None => Json::Null,
            },
        );

        doc
    }

    /// The snapshot rendered as a human-readable report (see
    /// [`render_text`]).
    pub fn snapshot_text(&mut self, now: SimTime) -> String {
        render_text(&self.snapshot(now))
    }
}

fn u(doc: &Json, path: &[&str]) -> u64 {
    doc.get_path(path).and_then(Json::as_u64).unwrap_or(0)
}

fn f(doc: &Json, path: &[&str]) -> f64 {
    doc.get_path(path).and_then(Json::as_f64).unwrap_or(0.0)
}

fn push_hist_line(out: &mut String, label: &str, doc: &Json, path: &[&str]) {
    let base: Vec<&str> = path.to_vec();
    let get = |k: &str| {
        let mut p = base.clone();
        p.push(k);
        u(doc, &p)
    };
    let mut mean_path = base.clone();
    mean_path.push("mean");
    out.push_str(&format!(
        "  {label:<18} n={:<8} mean={:<10.1} p50={:<8} p99={:<8} max={}\n",
        get("count"),
        f(doc, &mean_path),
        get("p50"),
        get("p99"),
        get("max"),
    ));
}

/// Render a snapshot document as a compact operator-facing report —
/// the text half of the `gwstat` output.
pub fn render_text(doc: &Json) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "gateway snapshot at t={} ns ({})\n",
        u(doc, &["time_ns"]),
        doc.get("format").and_then(Json::as_str).unwrap_or("?"),
    ));

    out.push_str("health:\n");
    match doc.get("health") {
        Some(Json::Null) | None => out.push_str("  (management plane disabled)\n"),
        Some(h) => {
            for port in ["atm", "fddi"] {
                let state =
                    h.get_path(&[port, "state"]).and_then(Json::as_str).unwrap_or("unknown");
                out.push_str(&format!(
                    "  {port:<5} {state:<9} errors_total={} transitions={}\n",
                    u(h, &[port, "errors_total"]),
                    u(h, &[port, "transitions"]),
                ));
            }
        }
    }

    out.push_str("pipeline:\n");
    out.push_str(&format!(
        "  aic   cells_in={} hec_discards={} hec_corrections={} cells_out={}\n",
        u(doc, &["components", "aic", "cells_in"]),
        u(doc, &["components", "aic", "hec_discards"]),
        u(doc, &["components", "aic", "hec_corrections"]),
        u(doc, &["components", "aic", "cells_out"]),
    ));
    out.push_str(&format!(
        "  spp   cells_in={} frames_up={} frames_down={} cells_out={} timeouts={}\n",
        u(doc, &["components", "spp", "cells_in"]),
        u(doc, &["components", "spp", "frames_up"]),
        u(doc, &["components", "spp", "frames_down"]),
        u(doc, &["components", "spp", "cells_out"]),
        u(doc, &["components", "spp", "reassembly", "timeouts"]),
    ));
    out.push_str(&format!(
        "  mpp   data_up={} data_down={} control_to_npe={} drops={}\n",
        u(doc, &["components", "mpp", "data_up"]),
        u(doc, &["components", "mpp", "data_down"]),
        u(doc, &["components", "mpp", "control_to_npe"]),
        u(doc, &["components", "mpp", "drops"]),
    ));
    out.push_str(&format!(
        "  npe   control_frames={} setups_confirmed={} retries={} quarantined={} reestablished={}\n",
        u(doc, &["components", "npe", "control_frames"]),
        u(doc, &["components", "npe", "setups_confirmed"]),
        u(doc, &["components", "npe", "setup_retries"]),
        u(doc, &["components", "npe", "vcs_quarantined"]),
        u(doc, &["components", "npe", "reestablishments"]),
    ));

    out.push_str("buffers:\n");
    for dir in ["tx", "rx"] {
        out.push_str(&format!(
            "  {dir}    used={}/{} peak={} shed={} overflow={}{}\n",
            u(doc, &["buffers", dir, "used_octets"]),
            u(doc, &["buffers", dir, "capacity_octets"]),
            u(doc, &["buffers", dir, "peak_octets"]),
            u(doc, &["buffers", dir, "frames_shed"]),
            u(doc, &["buffers", dir, "overflow_drops"]),
            if doc.get_path(&["buffers", dir, "shedding"]) == Some(&Json::Bool(true)) {
                " [SHEDDING]"
            } else {
                ""
            },
        ));
    }

    out.push_str("latency:\n");
    push_hist_line(&mut out, "atm_to_fddi_ns", doc, &["totals", "atm_to_fddi_ns"]);
    push_hist_line(&mut out, "fddi_to_atm_ns", doc, &["totals", "fddi_to_atm_ns"]);

    out.push_str("vcs:\n");
    let rows = doc.get("vcs").and_then(Json::as_arr).unwrap_or(&[]);
    if rows.is_empty() {
        out.push_str("  (none)\n");
    }
    for row in rows {
        let vci = u(row, &["vci"]);
        let active = match row.get("active") {
            Some(Json::Bool(true)) => "active",
            Some(Json::Bool(false)) => "retired",
            _ => "-",
        };
        let rc = match row.get("rate_control") {
            Some(Json::Null) | None => String::new(),
            Some(rc) => format!(
                " gcra={}c/{}nc",
                u(rc, &["conforming_cells"]),
                u(rc, &["nonconforming_cells"]),
            ),
        };
        out.push_str(&format!(
            "  vc {vci:<5} {active:<8} in={} reasm={} disc={} fwd={} out={} policed={}{rc}\n",
            u(row, &["cells_in"]),
            u(row, &["reassembled_frames"]),
            u(row, &["discarded_frames"]),
            u(row, &["forwarded_frames"]),
            u(row, &["cells_out"]),
            u(row, &["policed_cells"]),
        ));
    }

    if let Some(t) = doc.get("trace") {
        if t != &Json::Null {
            out.push_str(&format!(
                "trace: retained={} dropped={}\n",
                u(t, &["events_retained"]),
                u(t, &["events_dropped"]),
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::GatewayConfig;
    use gw_wire::fddi::FddiAddr;

    fn managed_gateway() -> Gateway {
        let config =
            GatewayConfig { management: Some(gw_mgmt::MgmtConfig), ..GatewayConfig::default() };
        Gateway::new(config, FddiAddr([0x10; 6]), 100_000_000)
    }

    #[test]
    fn snapshot_has_every_top_level_key_and_round_trips() {
        let mut gw = managed_gateway();
        let doc = gw.snapshot(SimTime::from_us(10));
        for key in [
            "format",
            "time_ns",
            "health",
            "metrics",
            "vcs",
            "buffers",
            "components",
            "totals",
            "trace",
        ] {
            assert!(doc.get(key).is_some(), "missing key {key}");
        }
        assert_eq!(doc.get("format").and_then(Json::as_str), Some(SNAPSHOT_FORMAT));
        let reparsed = Json::parse(&doc.render()).unwrap();
        assert_eq!(reparsed, doc);
        let pretty = Json::parse(&doc.pretty()).unwrap();
        assert_eq!(pretty, doc);
    }

    #[test]
    fn unmanaged_gateway_snapshot_exports_nulls_not_errors() {
        let mut gw = Gateway::new(GatewayConfig::default(), FddiAddr([0x10; 6]), 100_000_000);
        let doc = gw.snapshot(SimTime::from_us(10));
        assert_eq!(doc.get("health"), Some(&Json::Null));
        assert_eq!(doc.get("metrics"), Some(&Json::Null));
        assert_eq!(doc.get("trace"), Some(&Json::Null));
        // Component counters still export.
        assert!(doc.get_path(&["components", "aic", "cells_in"]).is_some());
        let text = render_text(&doc);
        assert!(text.contains("management plane disabled"));
    }

    #[test]
    fn text_dump_names_the_ports_and_buffers() {
        let mut gw = managed_gateway();
        let text = gw.snapshot_text(SimTime::from_ms(1));
        assert!(text.contains("atm"), "text:\n{text}");
        assert!(text.contains("fddi"));
        assert!(text.contains("tx"));
        assert!(text.contains("latency:"));
    }
}
