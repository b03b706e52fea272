//! E9 — §6.1/§6.2: the ICXT tables are `N × 8` octets and their lookup
//! cost does not depend on `N` (the ICN indexes the table directly).

use crate::report::Table;
use gw_gateway::mpp::{IcxtFEntry, Mpp, MppUpOutput};
use gw_sim::time::SimTime;
use gw_wire::fddi::FddiAddr;
use gw_wire::mchip::{build_data_frame, Icn};

/// Run E9.
pub fn run() {
    let mut t = Table::new(&[
        "N (max congrams)",
        "ICXT-F memory",
        "ICXT-A memory",
        "data-path delay (first entry)",
        "data-path delay (last entry)",
    ]);
    for &n in &[16usize, 64, 256, 1024, 4096] {
        let mut mpp = Mpp::new(n);
        let first = Icn(0);
        let last = Icn((n - 1) as u16);
        for icn in [first, last] {
            mpp.program_f(icn, IcxtFEntry { out_icn: Icn(1), fddi_dst: FddiAddr::station(1) })
                .unwrap();
        }
        let measure = |mpp: &mut Mpp, icn: Icn, at_ms: u64| -> u64 {
            let frame = build_data_frame(icn, b"x").unwrap();
            match mpp.from_spp(SimTime::from_ms(at_ms), &frame, false, false) {
                MppUpOutput::DataToFddi { ready, .. } => (ready - SimTime::from_ms(at_ms)).as_ns(),
                other => panic!("{other:?}"),
            }
        };
        let d_first = measure(&mut mpp, first, 1);
        let d_last = measure(&mut mpp, last, 2);
        assert_eq!(d_first, 600);
        assert_eq!(d_last, 600);
        assert_eq!(mpp.table_octets(), n * 8);
        t.row(&[
            n.to_string(),
            format!("{} octets", mpp.table_octets()),
            format!("{} octets", mpp.table_octets()),
            format!("{d_first} ns"),
            format!("{d_last} ns"),
        ]);
    }
    t.print();
    println!("\npaper §6.1: \"The size of the ICXT-F table is N x 8\"; §6.2 likewise for");
    println!("ICXT-A; §6.3's 13-cycle read is an SRAM access, independent of N — all");
    println!("reproduced by construction and measured above.");
    let default = gw_gateway::GatewayConfig::default();
    println!(
        "default GatewayConfig: N = {} -> ICXT {} octets per direction",
        default.max_congrams,
        default.icxt_octets()
    );
    println!("(wall-clock lookup cost: gw-benchmark, core.mpp.from_spp_ns_per_frame)");
}
