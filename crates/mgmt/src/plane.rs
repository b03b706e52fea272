//! The assembled management plane: pre-resolved global metric
//! handles, and the bundle the gateway owns.

use crate::events::CausalTrace;
use crate::health::HealthReporter;
use crate::registry::{CounterId, GaugeId, HistogramId, MetricsRegistry};

/// Causal trace retention: the most recent events kept.
pub const TRACE_EVENTS: usize = 1024;
/// Histograms record 1 sample in this many offered.
pub const HISTOGRAM_SAMPLE: u32 = 8;

/// Switches the management plane on. It has nothing to set: trace
/// retention ([`TRACE_EVENTS`]), histogram sampling
/// ([`HISTOGRAM_SAMPLE`]) and the health thresholds
/// ([`crate::health::WINDOW`] and its neighbours) are constants.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MgmtConfig;

/// Pre-resolved handles for the gateway's global (non-VC) metrics.
///
/// Resolved once at gateway construction so the critical path updates
/// metrics by index, never by name.
#[derive(Debug, Clone, Copy)]
pub struct GwHandles {
    /// `gw.aic.cells_in`
    pub aic_cells_in: CounterId,
    /// `gw.aic.hec_discards`
    pub aic_hec_discards: CounterId,
    /// `gw.aic.hec_corrections`
    pub aic_hec_corrections: CounterId,
    /// `gw.gcra.policed_cells` (all VCs)
    pub gcra_policed: CounterId,
    /// `gw.spp.frames_reassembled`
    pub spp_frames_reassembled: CounterId,
    /// `gw.spp.frames_discarded`
    pub spp_frames_discarded: CounterId,
    /// `gw.spp.frames_down` (FDDI→ATM segmentations)
    pub spp_frames_down: CounterId,
    /// `gw.spp.cells_out`
    pub spp_cells_out: CounterId,
    /// `gw.mpp.frames_forwarded`
    pub mpp_frames_forwarded: CounterId,
    /// `gw.mpp.drops`
    pub mpp_drops: CounterId,
    /// `gw.npe.control_frames`
    pub npe_control_frames: CounterId,
    /// `gw.npe.fifo_drops`
    pub npe_fifo_drops: CounterId,
    /// `gw.npe.vcs_quarantined`
    pub npe_vcs_quarantined: CounterId,
    /// `gw.npe.reestablishments`
    pub npe_reestablishments: CounterId,
    /// `gw.supernet.tx.shed_sync`
    pub tx_shed_sync: CounterId,
    /// `gw.supernet.tx.shed_async`
    pub tx_shed_async: CounterId,
    /// `gw.supernet.tx.overflow_drops`
    pub tx_overflow: CounterId,
    /// `gw.supernet.rx.shed_sync`
    pub rx_shed_sync: CounterId,
    /// `gw.supernet.rx.shed_async`
    pub rx_shed_async: CounterId,
    /// `gw.supernet.rx.overflow_drops`
    pub rx_overflow: CounterId,
    /// `gw.mac.fcs_drops`
    pub mac_fcs_drops: CounterId,
    /// `gw.supernet.tx.occupancy_octets` (time-weighted)
    pub tx_occupancy: GaugeId,
    /// `gw.supernet.rx.occupancy_octets` (time-weighted)
    pub rx_occupancy: GaugeId,
    /// `gw.forward.atm_to_fddi_ns` (sampled)
    pub atm_to_fddi_ns: HistogramId,
    /// `gw.forward.fddi_to_atm_ns` (sampled)
    pub fddi_to_atm_ns: HistogramId,
}

impl GwHandles {
    /// Register the gateway's global metric names and return their
    /// handles. Latency histograms use 40 ns bins (one 25 MHz cycle).
    pub fn resolve(registry: &mut MetricsRegistry) -> GwHandles {
        GwHandles {
            aic_cells_in: registry.counter("gw.aic.cells_in"),
            aic_hec_discards: registry.counter("gw.aic.hec_discards"),
            aic_hec_corrections: registry.counter("gw.aic.hec_corrections"),
            gcra_policed: registry.counter("gw.gcra.policed_cells"),
            spp_frames_reassembled: registry.counter("gw.spp.frames_reassembled"),
            spp_frames_discarded: registry.counter("gw.spp.frames_discarded"),
            spp_frames_down: registry.counter("gw.spp.frames_down"),
            spp_cells_out: registry.counter("gw.spp.cells_out"),
            mpp_frames_forwarded: registry.counter("gw.mpp.frames_forwarded"),
            mpp_drops: registry.counter("gw.mpp.drops"),
            npe_control_frames: registry.counter("gw.npe.control_frames"),
            npe_fifo_drops: registry.counter("gw.npe.fifo_drops"),
            npe_vcs_quarantined: registry.counter("gw.npe.vcs_quarantined"),
            npe_reestablishments: registry.counter("gw.npe.reestablishments"),
            tx_shed_sync: registry.counter("gw.supernet.tx.shed_sync"),
            tx_shed_async: registry.counter("gw.supernet.tx.shed_async"),
            tx_overflow: registry.counter("gw.supernet.tx.overflow_drops"),
            rx_shed_sync: registry.counter("gw.supernet.rx.shed_sync"),
            rx_shed_async: registry.counter("gw.supernet.rx.shed_async"),
            rx_overflow: registry.counter("gw.supernet.rx.overflow_drops"),
            mac_fcs_drops: registry.counter("gw.mac.fcs_drops"),
            tx_occupancy: registry.gauge("gw.supernet.tx.occupancy_octets"),
            rx_occupancy: registry.gauge("gw.supernet.rx.occupancy_octets"),
            atm_to_fddi_ns: registry.histogram("gw.forward.atm_to_fddi_ns", 40, 4096),
            fddi_to_atm_ns: registry.histogram("gw.forward.fddi_to_atm_ns", 40, 4096),
        }
    }
}

/// The management plane a gateway owns when management is enabled.
#[derive(Debug, Clone)]
pub struct MgmtPlane {
    /// The metric store.
    pub registry: MetricsRegistry,
    /// The causal event trace.
    pub trace: CausalTrace,
    /// The per-port health state machines.
    pub health: HealthReporter,
    /// Pre-resolved global metric handles.
    pub handles: GwHandles,
}

impl Default for MgmtPlane {
    /// A plane with the global names registered, a [`TRACE_EVENTS`]
    /// trace, and both ports Up.
    fn default() -> MgmtPlane {
        let mut registry = MetricsRegistry::new(HISTOGRAM_SAMPLE);
        let handles = GwHandles::resolve(&mut registry);
        let trace = CausalTrace::bounded(TRACE_EVENTS);
        MgmtPlane { registry, trace, health: HealthReporter::default(), handles }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plane_builds_with_global_names_registered() {
        let plane = MgmtPlane::default();
        assert!(plane.registry.counter_by_name("gw.supernet.tx.shed_async").is_some());
        assert!(plane.registry.counter_by_name("gw.aic.cells_in").is_some());
        assert!(plane.trace.is_enabled());
        assert_eq!(plane.registry.sample_every(), 8);
    }

    #[test]
    fn handles_hit_the_named_counters() {
        let mut plane = MgmtPlane::default();
        let h = plane.handles;
        plane.registry.inc(h.tx_shed_async);
        plane.registry.add(h.aic_cells_in, 53);
        assert_eq!(plane.registry.counter_by_name("gw.supernet.tx.shed_async"), Some(1));
        assert_eq!(plane.registry.counter_value(h.aic_cells_in), (1, 53));
    }
}
