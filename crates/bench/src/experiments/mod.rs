//! One module per reproduced experiment (DESIGN.md §3).

pub mod e01_features;
pub mod e02_sar_header;
pub mod e03_spp_delay;
pub mod e04_mpp_delay;
pub mod e05_line_rate;
pub mod e06_buffers;
pub mod e07_efficiency;
pub mod e08_reassembly;
pub mod e09_icxt;
pub mod e10_loss;
pub mod e11_admission;
pub mod e12_token;
pub mod e13_paths;
pub mod e14_multiport;
pub mod e15_hec;
pub mod e16_survivability;
pub mod e17_rate_control;
pub mod e18_npe_fifo;
pub mod figures;

/// The experiment registry: id, one-line description, runner.
pub fn registry() -> Vec<(&'static str, &'static str, fn())> {
    vec![
        (
            "e1",
            "Figure 2: ATM vs FDDI feature summary, from implementation constants",
            e01_features::run,
        ),
        (
            "e2",
            "Figure 5 / §5.2: SAR header layout and CRC-10 error detection",
            e02_sar_header::run,
        ),
        ("e3", "§5.5: SPP worst-case static delays (measured vs paper)", e03_spp_delay::run),
        ("e4", "§6.3: MPP worst-case static delays (measured vs paper)", e04_mpp_delay::run),
        ("e5", "§7: gateway sustains the full 100 Mb/s FDDI rate", e05_line_rate::run),
        (
            "e6",
            "§4.3: buffer-sizing simulation study (the paper's announced study)",
            e06_buffers::run,
        ),
        (
            "e7",
            "§5.1: why fragmentation/reassembly — FDDI efficiency of cells vs frames",
            e07_efficiency::run,
        ),
        (
            "e8",
            "§5.3: 91-cell buffers, dual-buffer ablation, concurrent reassembly",
            e08_reassembly::run,
        ),
        ("e9", "§6.1/§6.2: ICXT tables are N x 8 octets; lookup independent of N", e09_icxt::run),
        (
            "e10",
            "§5.2: lost-cell policy — frame loss vs cell loss, discard vs forward",
            e10_loss::run,
        ),
        (
            "e11",
            "§2.3: designated-gateway resource management vs no admission control",
            e11_admission::run,
        ),
        (
            "e12",
            "§3 / refs [6,13]: timed-token properties under the gateway's ring",
            e12_token::run,
        ),
        ("e13", "§4.2: critical (hardware) vs non-critical (software) path costs", e13_paths::run),
        (
            "e14",
            "§7: multi-port scaling (work in progress in the paper, built here)",
            e14_multiport::run,
        ),
        ("e15", "extension: I.432 HEC correction mode at the AIC (ablation)", e15_hec::run),
        (
            "e16",
            "§2.4: congram survivability — reconfiguration after a fibre cut",
            e16_survivability::run,
        ),
        (
            "e17",
            "§7 future work: explicit rate control at the gateway (GCRA)",
            e17_rate_control::run,
        ),
        ("e18", "§6.1: NPE FIFO capacity vs processing latency", e18_npe_fifo::run),
        (
            "figures",
            "Figures 1/3/4/6/7: structural self-check of the component graph",
            figures::run,
        ),
    ]
}

/// Run one experiment by id (or "all").
pub fn run(id: &str) -> bool {
    let reg = registry();
    if id == "all" {
        for (eid, desc, f) in &reg {
            println!("\n############ {eid}: {desc}\n");
            f();
        }
        return true;
    }
    for (eid, desc, f) in &reg {
        if *eid == id {
            println!("\n############ {eid}: {desc}\n");
            f();
            return true;
        }
    }
    false
}
