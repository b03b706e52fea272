//! E13 — §4.2: the design philosophy itself. "The critical path
//! consists of per packet processing and is implemented in hardware…
//! The non-critical path consists of connection, resource and route
//! management, … implemented in software." Measure both through the
//! same testbed and show the separation in numbers.

use crate::report::Table;
use atm_fddi_gateway::mchip::congram::{CongramId, CongramKind, FlowSpec};
use atm_fddi_gateway::mchip::messages::ControlPayload;
use atm_fddi_gateway::sim::SimTime;
use atm_fddi_gateway::testbed::{CongramHandle, Testbed, TestbedConfig};
use atm_fddi_gateway::wire::fddi::FddiAddr;
use atm_fddi_gateway::wire::mchip::Icn;

/// Run E13.
pub fn run() {
    let mut tb = Testbed::build(TestbedConfig::default());
    tb.gw.npe_mut().add_host([3; 8], FddiAddr::station(1));

    // Non-critical path: a congram setup round trip, measured by
    // stepping the testbed in 50 us increments until the confirm lands.
    let t0 = tb.now();
    tb.send_control_from_atm_host(&ControlPayload::SetupRequest {
        congram: CongramId(1),
        kind: CongramKind::UCon,
        flow: FlowSpec::cbr(1_000_000),
        dest: [3; 8],
    });
    let mut setup_rtt = None;
    let mut t = t0;
    while setup_rtt.is_none() && t < SimTime::from_ms(100) {
        t += SimTime::from_us(50);
        tb.run_until(t);
        if tb.atm_host_control_rx.iter().any(|c| matches!(c, ControlPayload::SetupConfirm { .. })) {
            setup_rtt = Some(t - t0);
        }
    }
    let setup_rtt = setup_rtt.expect("setup must confirm");
    let assigned = tb
        .atm_host_control_rx
        .iter()
        .find_map(|c| match c {
            ControlPayload::SetupConfirm { assigned_icn, .. } => Some(*assigned_icn),
            ControlPayload::SetupRequest { .. }
            | ControlPayload::SetupReject { .. }
            | ControlPayload::Teardown { .. }
            | ControlPayload::TeardownAck { .. }
            | ControlPayload::Reconfigure { .. }
            | ControlPayload::Keepalive { .. }
            | ControlPayload::ResourceReport { .. } => None,
        })
        .unwrap();

    // Critical path: per-frame hardware latency on the now-open congram
    // (measured inside the gateway at 40 ns resolution, no slice
    // quantization).
    let handle = CongramHandle {
        vci: gw_wire::atm::Vci(64),
        atm_icn: assigned,
        fddi_icn: Icn(0),
        station: 1,
    };
    for i in 0..50u8 {
        tb.send_from_atm_host_at(t + SimTime::from_ms(1 + i as u64), handle, vec![i; 450]);
    }
    tb.run_until(t + SimTime::from_ms(100));
    assert_eq!(tb.fddi_rx(1).len(), 50);
    let hw = &tb.gw.stats().atm_to_fddi_ns;
    let forward = &tb.gw.stats().forward_path_ns;
    let spp_mpp_ns = (10 + 45 + 15) * 40; // per-cell decode+write, per-frame translate

    let mut table = Table::new(&["path", "operation", "measured cost", "implemented in"]);
    table.row(&[
        "critical".into(),
        "SPP cell pipeline + MPP translation (static)".into(),
        format!("{spp_mpp_ns} ns"),
        "hardware (cycle model)".into(),
    ]);
    table.row(&[
        "critical".into(),
        "10-cell data frame through the gateway".into(),
        format!("mean {:.0} ns, max {} ns", hw.mean(), hw.max()),
        "hardware (cycle model)".into(),
    ]);
    table.row(&[
        "critical".into(),
        "of which MPP + DMA (after reassembly)".into(),
        format!("mean {:.0} ns, max {} ns", forward.mean(), forward.max()),
        "hardware (cycle model)".into(),
    ]);
    table.row(&[
        "non-critical".into(),
        "congram setup round trip (signaling + NPE)".into(),
        format!("{setup_rtt}"),
        "software (NPE)".into(),
    ]);
    table.row(&[
        "non-critical".into(),
        "NPE per-message software latency (configured)".into(),
        format!("{}", tb.gw.npe().latency()),
        "software (NPE)".into(),
    ]);
    table.print();

    // The honest per-operation comparison is gateway work vs gateway
    // work: the static hardware cost of forwarding a frame vs the
    // software cost of one control operation. (The measured end-to-end
    // frame latency above is dominated by cell accumulation at the ATM
    // line rate, which no gateway design can remove.)
    let ratio = setup_rtt.as_ns() as f64 / spp_mpp_ns as f64;
    println!("\nseparation: one software control operation costs {ratio:.0}x the static");
    println!("hardware forwarding work — which is precisely why \"mixing of these");
    println!("paths, as is generally done in present day gateways, is not an");
    println!("efficient approach\" (§1): one control operation executed on the data");
    println!("path would stall ~{ratio:.0} frames' worth of forwarding.");
    assert!(ratio > 20.0, "paths are not separated enough: {ratio}");
}
