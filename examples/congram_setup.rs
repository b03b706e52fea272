//! The full congram life cycle through the gateway's control path.
//!
//! Exercises the non-critical path (§4.2): a SETUP control frame rides
//! C-bit cells from the ATM host through AIC → SPP (reassembly) → MPP
//! (2-cycle control route, no table lookup) → NPE FIFO → NPE software,
//! which runs admission (§2.3), programs the SPP's reassembly timers
//! and the MPP's ICXT tables with initialization frames (§5.4, §6.2),
//! and answers with a SETUP-CONFIRM carrying the assigned ICN. Data
//! then flows on the hardware path; finally a TEARDOWN releases
//! everything.
//!
//! Run with: `cargo run --example congram_setup`

use atm_fddi_gateway::mchip::congram::{CongramId, CongramKind, FlowSpec};
use atm_fddi_gateway::mchip::messages::ControlPayload;
use atm_fddi_gateway::sim::SimTime;
use atm_fddi_gateway::testbed::{CongramHandle, Testbed, TestbedConfig};
use atm_fddi_gateway::wire::fddi::FddiAddr;
use atm_fddi_gateway::wire::mchip::Icn;

fn main() {
    let mut tb = Testbed::build(TestbedConfig::default());
    // The route server's knowledge: internet destination 0x0505… lives
    // at FDDI station 2.
    let dest = [5u8; 8];
    tb.gw.npe_mut().add_host(dest, FddiAddr::station(2));

    // Phase 1 (§4.1): congram set up.
    println!("[1] sending SETUP for a 10 Mb/s UCon to {dest:02x?}");
    let setup = ControlPayload::SetupRequest {
        congram: CongramId(42),
        kind: CongramKind::UCon,
        flow: FlowSpec::cbr(10_000_000),
        dest,
    };
    let vci = tb.send_control_from_atm_host(&setup);
    tb.run_until(SimTime::from_ms(20));

    let assigned = tb
        .atm_host_control_rx
        .iter()
        .find_map(|c| match c {
            ControlPayload::SetupConfirm { congram, assigned_icn } if *congram == CongramId(42) => {
                Some(*assigned_icn)
            }
            _ => None,
        })
        .expect("SETUP must be confirmed");
    println!("    confirmed: data frames must carry {assigned} on {vci}");
    println!(
        "    resource manager: {} b/s committed of {} capacity, {} active congram(s)",
        tb.gw.npe().resource_manager().committed_bps(),
        tb.gw.npe().resource_manager().capacity_bps(),
        tb.gw.npe().resource_manager().active()
    );
    println!("    ICXT entries installed (F, A): {:?}", tb.gw.mpp().installed());

    // Phase 2: data transfer on the assigned ICN over the same VC.
    // (The NPE bound the congram to its arrival VC and programmed the
    // ICXT; we reuse the testbed's sender with a hand-built handle.)
    let handle = CongramHandle {
        vci,
        atm_icn: assigned,
        fddi_icn: Icn(0), // unused for this direction
        station: 2,
    };
    println!("[2] sending 5 data frames on the established congram");
    for i in 0..5u8 {
        tb.send_from_atm_host(handle, vec![i; 256]);
    }
    tb.run_until(SimTime::from_ms(60));
    let rx = tb.fddi_rx(2);
    println!("    station 2 received {} data frames", rx.len());
    assert_eq!(rx.len(), 5);

    // Phase 3: congram termination.
    println!("[3] sending TEARDOWN");
    let teardown = ControlPayload::Teardown { congram: CongramId(42) };
    tb.send_control_from_atm_host(&teardown);
    tb.run_until(SimTime::from_ms(100));
    let acked = tb
        .atm_host_control_rx
        .iter()
        .any(|c| matches!(c, ControlPayload::TeardownAck { congram } if *congram == CongramId(42)));
    println!(
        "    teardown acked: {acked}; resources released: {} b/s committed, {} active",
        tb.gw.npe().resource_manager().committed_bps(),
        tb.gw.npe().resource_manager().active()
    );
    assert!(acked);
    assert_eq!(tb.gw.npe().resource_manager().active(), 0);

    // After teardown the ICXT entries are cleared: further data on the
    // old ICN is dropped at the MPP.
    let drops_before = tb.gw.mpp().stats().drops;
    tb.send_from_atm_host(handle, vec![9; 64]);
    tb.run_until(SimTime::from_ms(140));
    assert!(tb.fddi_rx(2).is_empty());
    assert!(tb.gw.mpp().stats().drops > drops_before);
    println!("[4] post-teardown frame correctly dropped at the MPP (no ICXT entry)");
    println!("\ncongram_setup OK");
}
