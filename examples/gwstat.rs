//! `gwstat` — the management-plane CLI: run a small gateway scenario
//! and print the snapshot the NPE's management role would answer with.
//!
//! The scenario exercises every exported surface: two data congrams
//! (one rate-controlled), traffic in both directions, a burst of cells
//! past the GCRA contract, and enough load that the per-VC tables,
//! buffer gauges, and health reporter all have something to say.
//!
//! Run with:
//!   cargo run --example gwstat            # compact JSON on stdout
//!   cargo run --example gwstat -- pretty  # indented JSON
//!   cargo run --example gwstat -- text    # human-readable report
//!   cargo run --example gwstat -- both    # text, then pretty JSON

use atm_fddi_gateway::atm::policing::{Gcra, GcraParams, PolicingAction};
use atm_fddi_gateway::gateway::snapshot::render_text;
use atm_fddi_gateway::sim::SimTime;
use atm_fddi_gateway::testbed::{Testbed, TestbedConfig};

fn main() {
    let mode = std::env::args().nth(1).unwrap_or_else(|| "json".to_string());

    let mut cfg = TestbedConfig::default();
    cfg.gateway.management = Some(gw_mgmt::MgmtConfig);
    let mut tb = Testbed::build(cfg);

    // Two congrams; VC 2 carries a GCRA contract so the snapshot's
    // rate_control section is populated.
    let c1 = tb.install_data_congram(1);
    let c2 = tb.install_data_congram(2);
    tb.gw.install_rate_control(
        c2.vci,
        Gcra::new(
            GcraParams::for_sar_payload_bps(2_000_000, SimTime::from_us(20)),
            PolicingAction::Drop,
        ),
    );

    // Traffic: steady frames on VC 1 both ways, a burst on VC 2 fast
    // enough that the policer discards part of it.
    for i in 0..16 {
        tb.send_from_atm_host(c1, vec![0xA5; 400 + i * 16]);
        tb.send_from_fddi_station(1, c1, vec![0x5A; 300 + i * 8]);
    }
    for _ in 0..8 {
        tb.send_from_atm_host(c2, vec![0xC3; 1800]);
    }
    tb.run_until(SimTime::from_ms(60));

    let now = tb.now();
    match mode.as_str() {
        "text" => print!("{}", tb.gw.snapshot_text(now)),
        "pretty" => println!("{}", tb.gw.snapshot(now).pretty()),
        "both" => {
            let doc = tb.gw.snapshot(now);
            print!("{}", render_text(&doc));
            println!("{}", doc.pretty());
        }
        _ => println!("{}", tb.gw.snapshot(now).render()),
    }
}
