//! Gateway configuration: what the paper fixes, and what it leaves
//! open.
//!
//! The paper fixes most of the gateway by design, so those values are
//! constants, each citing the section that fixes it: ICXT tables of
//! `N × 8` octets ([`MAX_CONGRAMS`], §6.1), the MPP→NPE FIFO, the
//! NPE's per-message latency, and 91-cell reassembly buffers
//! ([`gw_sar::reassemble::BUFFER_CELLS`], §5.3), two per VC. Signaled
//! setups are always supervised by the one policy in
//! [`crate::supervisor`].
//!
//! "The exact size of these buffers will be determined based on results
//! of an on-going simulation study" (§4.3): the SUPERNET buffer sizes
//! are exactly what that study (experiment E6) sweeps. They, and the
//! few behaviours some run or experiment sets both ways, are the
//! fields of [`GatewayConfig`].

use gw_sim::time::SimTime;

/// Maximum simultaneously open congrams `N`; each ICXT table is
/// `N × 8` octets (§6.1–§6.2).
pub const MAX_CONGRAMS: usize = 1024;

/// ICXT table memory per direction, octets: `N × 8` (§6.1).
pub const ICXT_OCTETS: usize = MAX_CONGRAMS * 8;

/// MPP→NPE FIFO capacity, frames ("primarily depends on the NPE's
/// processing latency", §6.1).
pub(crate) const NPE_FIFO_FRAMES: usize = 64;

/// NPE software processing time per control message (the
/// non-critical path, §4.2).
pub(crate) const NPE_CONTROL_LATENCY: SimTime = SimTime::from_us(200);

/// Overload-shedding watermarks as fractions of a buffer memory's
/// capacity. Above `high` the buffer sheds all asynchronous frames;
/// the state clears once occupancy falls back to `low`. CLP-tagged
/// (discard-eligible) frames are shed as soon as occupancy reaches
/// `low` — they go first, synchronous frames never shed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ShedConfig {
    /// Occupancy fraction that enters the shedding state.
    pub high_fraction: f64,
    /// Occupancy fraction that leaves it (and above which
    /// discard-eligible frames are already shed).
    pub low_fraction: f64,
}

impl Default for ShedConfig {
    fn default() -> Self {
        ShedConfig { high_fraction: 0.85, low_fraction: 0.60 }
    }
}

/// Configuration for one gateway: the settings some run or experiment
/// sets to more than one value.
#[derive(Debug, Clone)]
pub struct GatewayConfig {
    /// Default reassembly timeout (NPE-programmed, §5.3).
    pub reassembly_timeout: SimTime,
    /// Transmit buffer memory capacity, octets.
    pub tx_buffer_octets: usize,
    /// Receive buffer memory capacity, octets.
    pub rx_buffer_octets: usize,
    /// Forward reassembly-errored frames instead of discarding (§5.2's
    /// "in future, this decision will be left to the MCHIP layer").
    pub forward_errored_frames: bool,
    /// Run the AIC in ITU-T I.432 correction mode: single-bit header
    /// errors are repaired instead of discarded. Off by default to
    /// match the paper's "simply discarded" (§4.3).
    pub hec_correction: bool,
    /// Quarantine a data VC after this much inactivity: its reassembly
    /// state is freed, ICXT entries cleared, and (for congrams this
    /// gateway signaled) re-establishment begins. `None` disables the
    /// liveness monitor.
    pub vc_liveness_timeout: Option<SimTime>,
    /// Overload shedding on the SUPERNET transmit/receive buffer
    /// memories. `None` disables shedding (hard overflow only).
    pub overload_shedding: Option<ShedConfig>,
    /// Management plane (metrics registry, causal tracing, per-port
    /// health) — the NPE's "network management" role (§6). `None`
    /// leaves the critical path completely uninstrumented.
    pub management: Option<gw_mgmt::MgmtConfig>,
}

impl Default for GatewayConfig {
    fn default() -> Self {
        GatewayConfig {
            reassembly_timeout: SimTime::from_ms(10),
            tx_buffer_octets: 128 * 1024,
            rx_buffer_octets: 128 * 1024,
            forward_errored_frames: false,
            hec_correction: false,
            vc_liveness_timeout: None,
            overload_shedding: None,
            management: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gateway::Gateway;
    use crate::mpp::Mpp;
    use gw_sar::reassemble::{Reassembler, ReassemblyConfig, ReassemblyEvent, BUFFER_CELLS};
    use gw_sar::segment::segment;
    use gw_wire::atm::Vci;
    use gw_wire::fddi::FddiAddr;
    use gw_wire::sar::SAR_PAYLOAD_SIZE;

    #[test]
    fn defaults_match_paper() {
        // Two reassembly buffers per VC of 91 cells each (§5.3).
        assert_eq!(ReassemblyConfig::default().buffers_per_vc, 2);
        assert_eq!(BUFFER_CELLS, 91);
        // N = 1 024 congrams: 8 192 ICXT octets per direction (§6.1).
        assert_eq!(MAX_CONGRAMS, 1024);
        assert_eq!(ICXT_OCTETS, 8192);
        assert_eq!(NPE_FIFO_FRAMES, 64);
        // The gateway is built from exactly these.
        let gw = Gateway::new(GatewayConfig::default(), FddiAddr::station(0), 100_000_000);
        assert_eq!(gw.mpp().table_octets(), ICXT_OCTETS);
        assert_eq!(gw.npe().latency(), NPE_CONTROL_LATENCY);
        assert!(
            !GatewayConfig::default().forward_errored_frames,
            "errored frames discarded (§5.2)"
        );
    }

    #[test]
    fn icxt_is_n_by_8() {
        assert_eq!(Mpp::new(256).table_octets(), 2048);
        assert_eq!(Mpp::new(MAX_CONGRAMS).table_octets(), ICXT_OCTETS);
    }

    /// §5.3's reassembly memory is a bound of the model, not a host
    /// allocation: each VC is limited by two buffers of 91 cells
    /// through their states, and the host holds memory only for frames
    /// in progress.
    #[test]
    fn reassembly_memory_scales() {
        let t = SimTime::ZERO;
        let mut r = Reassembler::new(ReassemblyConfig::default());
        // The modelled capacity: 2 buffers of 91 cells of 45 octets.
        assert_eq!(r.config().buffers_per_vc * BUFFER_CELLS * SAR_PAYLOAD_SIZE, 2 * 91 * 45);
        let vc = Vci(1);
        r.open_vc(vc);
        let one = segment(&[1; SAR_PAYLOAD_SIZE], false).unwrap();
        for _ in 0..2 {
            let ReassemblyEvent::Complete(f) = r.push(t, vc, one[0].as_bytes()) else {
                panic!("two frames fit");
            };
            r.recycle(f.data);
        }
        assert_eq!(r.push(t, vc, one[0].as_bytes()), ReassemblyEvent::NoBuffer, "a third frame");
        r.release(vc);
        let long = segment(&vec![2; (BUFFER_CELLS + 2) * SAR_PAYLOAD_SIZE], false).unwrap();
        for c in &long[..BUFFER_CELLS] {
            assert_eq!(r.push(t, vc, c.as_bytes()), ReassemblyEvent::Stored);
        }
        assert_eq!(r.push(t, vc, long[BUFFER_CELLS].as_bytes()), ReassemblyEvent::Overflow);
        r.close_vc(vc);

        // Host residency follows the frames in progress.
        let mut r = Reassembler::new(ReassemblyConfig::default());
        for vci in 1..=10 {
            r.open_vc(Vci(vci));
        }
        assert_eq!(r.resident_buffers(), 0, "open, idle VCs hold no buffer memory");
        let frame = segment(&[3; 3 * SAR_PAYLOAD_SIZE], false).unwrap();
        for k in 1..=4 {
            r.push(t, Vci(k), frame[0].as_bytes());
            assert_eq!(r.resident_buffers(), usize::from(k), "one buffer per frame in progress");
        }
        for k in 1..=4 {
            r.push(t, Vci(k), frame[1].as_bytes());
            let ReassemblyEvent::Complete(f) = r.push(t, Vci(k), frame[2].as_bytes()) else {
                panic!("frame on VC {k} completes");
            };
            r.recycle(f.data);
            r.release(Vci(k));
        }
        assert_eq!(r.resident_buffers(), 0);
        assert_eq!(r.pool_stats().outstanding(), 0, "the pool census balances");
    }

    #[test]
    fn robustness_features_default_to_safe_values() {
        let c = GatewayConfig::default();
        assert!(c.vc_liveness_timeout.is_none(), "liveness is opt-in");
        assert!(c.overload_shedding.is_none(), "shedding is opt-in");
        assert!(c.management.is_none(), "management plane is opt-in");
        const { assert!(crate::supervisor::RETRY_BUDGET > 0, "signaled setups retry") };
        let s = ShedConfig::default();
        assert!(s.low_fraction < s.high_fraction);
    }
}
