//! The assembled management plane: pre-resolved global metric
//! handles, and the bundle the gateway owns.

use crate::events::CausalTrace;
use crate::health::HealthReporter;
use crate::registry::{CounterId, GaugeId, HistogramId, MetricsRegistry};

/// Causal trace retention: the most recent events kept.
const TRACE_EVENTS: usize = 1024;
/// Histograms record 1 sample in this many offered.
const HISTOGRAM_SAMPLE: u32 = 8;

/// Switches the management plane on. It has nothing to set: trace
/// retention (`TRACE_EVENTS`), histogram sampling
/// (`HISTOGRAM_SAMPLE`) and the health thresholds
/// (`crate::health::WINDOW` and its neighbours) are constants.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MgmtConfig;

/// Pre-resolved handles for the gateway's global (non-VC) metrics.
///
/// Resolved once at gateway construction so the critical path updates
/// metrics by index, never by name. Only the counters whose values no
/// other book holds live here; the snapshot renders every other
/// `gw.*` counter name from the component, gateway or conservation
/// count of the same event.
#[derive(Debug, Clone, Copy)]
pub struct GwHandles {
    /// `gw.spp.frames_down`: FDDI→ATM segmentations, with the MCHIP
    /// frame octets.
    pub spp_frames_down: CounterId,
    /// `gw.spp.cells_out`: data cells segmented FDDI→ATM (control
    /// cells the NPE sends are not counted).
    pub spp_cells_out: CounterId,
    /// `gw.mpp.frames_forwarded`: data frames stored into the transmit
    /// buffer, with their octets.
    pub mpp_frames_forwarded: CounterId,
    /// `gw.mpp.drops`: ATM-side frames the MPP refused or the gateway
    /// found malformed, and NPE control frames the segmenter refused.
    pub mpp_drops: CounterId,
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
    fn resolve(registry: &mut MetricsRegistry) -> GwHandles {
        GwHandles {
            spp_frames_down: registry.counter("gw.spp.frames_down"),
            spp_cells_out: registry.counter("gw.spp.cells_out"),
            mpp_frames_forwarded: registry.counter("gw.mpp.frames_forwarded"),
            mpp_drops: registry.counter("gw.mpp.drops"),
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
    /// A plane with the global names registered, a `TRACE_EVENTS`
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
        assert!(plane.registry.counter_by_name("gw.mpp.frames_forwarded").is_some());
        assert_eq!(plane.registry.counter_by_name("gw.aic.cells_in"), None, "a snapshot view");
        for name in
            ["gw.spp.frames_down", "gw.spp.cells_out", "gw.mpp.frames_forwarded", "gw.mpp.drops"]
        {
            assert_eq!(plane.registry.counter_by_name(name), Some(0), "{name}");
        }
        assert_eq!(plane.registry.sample_every(), 8);
    }

    #[test]
    fn handles_hit_the_named_counters() {
        let mut plane = MgmtPlane::default();
        let h = plane.handles;
        plane.registry.inc(h.mpp_drops);
        plane.registry.add(h.mpp_frames_forwarded, 53);
        assert_eq!(plane.registry.counter_by_name("gw.mpp.drops"), Some(1));
        assert_eq!(plane.registry.counter_value(h.mpp_frames_forwarded), (1, 53));
    }
}
