//! E6 — §4.3: "The exact size of these buffers will be determined based
//! on results of an on-going simulation study." This is that study for
//! the transmit buffer memory, the one the token ring actually stresses:
//! frames leave it only while the gateway's station holds the token, so
//! its occupancy is set by the mismatch between ATM-side arrival bursts
//! and token-gated service.
//!
//! Service model: the SUPERNET gets the token every `rotation` and may
//! transmit `budget` octets per visit (its synchronous allocation plus
//! typical asynchronous holding time). Two ring conditions are swept:
//! a lightly loaded ring (fast rotation, generous budget) and a heavily
//! loaded one near TTRT (slow rotation, allocation-bounded budget —
//! the regime E12 characterizes). Workloads are the paper's application
//! mix; arrivals enter as real cells through the AIC/SPP/MPP pipeline.

use crate::report::Table;
use gw_gateway::gateway::Gateway;
use gw_gateway::GatewayConfig;
use gw_sar::segment::segment_cells;
use gw_sim::rng::SimRng;
use gw_sim::time::SimTime;
use gw_sim::traffic::{
    arrivals_until, CbrSource, ImagingSource, OnOffSource, PoissonSource, Source,
};
use gw_wire::atm::{AtmHeader, Vci, CELL_SIZE};
use gw_wire::fddi::FddiAddr;
use gw_wire::mchip::{build_data_frame, Icn};

struct RingService {
    /// Token inter-visit time.
    rotation: SimTime,
    /// Octets transmissible per visit.
    budget: usize,
    name: &'static str,
}

fn workloads() -> Vec<(&'static str, Vec<Box<dyn Source>>)> {
    vec![
        (
            "24 voice congrams (1.5 Mb/s)",
            (0..24)
                .map(|i| Box::new(CbrSource::voice(SimTime::from_ms(i))) as Box<dyn Source>)
                .collect(),
        ),
        (
            "6 bursty video (~12 Mb/s mean)",
            (0..6)
                .map(|i| {
                    Box::new(OnOffSource::new(
                        SimTime::from_ms(i * 2),
                        8_000_000,
                        1024,
                        SimTime::from_ms(12),
                        SimTime::from_ms(36),
                    )) as Box<dyn Source>
                })
                .collect(),
        ),
        (
            "datagrams (~30 Mb/s Poisson)",
            vec![
                Box::new(PoissonSource::new(SimTime::ZERO, 20_000_000, 2048)) as Box<dyn Source>,
                Box::new(PoissonSource::new(SimTime::ZERO, 10_000_000, 512)),
            ],
        ),
        (
            "imaging (200 KB bursts @ line rate)",
            vec![Box::new(ImagingSource::new(
                SimTime::ZERO,
                200_000,
                4000,
                SimTime::from_ms(120),
                SimTime::from_us(250), // ~128 Mb/s inside a burst
            )) as Box<dyn Source>],
        ),
    ]
}

fn run_one(
    sources: &mut [Box<dyn Source>],
    service: &RingService,
    tx_octets: usize,
) -> (usize, u64, f64, usize) {
    let cfg = GatewayConfig { tx_buffer_octets: tx_octets, ..Default::default() };
    let mut gw = Gateway::new(cfg, FddiAddr::station(0), 100_000_000);
    // One congram per source.
    for i in 0..sources.len() {
        gw.install_congram(
            Vci(100 + i as u16),
            Icn(1 + i as u16),
            Icn(200 + i as u16),
            FddiAddr::station(1),
            false,
        );
    }
    // Collect all cell arrivals (per-congram pacing at the access rate).
    let horizon = SimTime::from_ms(600);
    let mut rng = SimRng::new(0xE6);
    let cell_gap = SimTime::from_ns(53 * 8 * 1_000_000_000 / gw_atm::DEFAULT_LINK_RATE);
    let mut cell_events: Vec<(SimTime, [u8; CELL_SIZE])> = Vec::new();
    let mut offered = 0usize;
    for (i, s) in sources.iter_mut().enumerate() {
        let mut srng = rng.fork(i as u64);
        let mut free = SimTime::ZERO;
        for a in arrivals_until(s.as_mut(), &mut srng, horizon) {
            let mchip = build_data_frame(Icn(1 + i as u16), &vec![i as u8; a.octets]).unwrap();
            let header = AtmHeader::data(Default::default(), Vci(100 + i as u16));
            let mut t = if a.at > free { a.at } else { free };
            for cell in segment_cells(&header, &mchip, false).unwrap() {
                cell_events.push((t, cell.into_inner()));
                t += cell_gap;
            }
            free = t;
            offered += 1;
        }
    }
    cell_events.sort_by_key(|&(t, _)| t);

    // Interleave cell ingestion with token-gated service.
    let mut delivered = 0usize;
    let mut next_visit = service.rotation;
    let end = horizon + SimTime::from_ms(200);
    let mut idx = 0usize;
    let mut now = SimTime::ZERO;
    let mut out = Vec::new();
    while now < end {
        let next_cell = cell_events.get(idx).map(|&(t, _)| t).unwrap_or(end);
        if next_cell <= next_visit && idx < cell_events.len() {
            now = next_cell;
            out.clear();
            gw.deliver_cells(now, std::slice::from_ref(&cell_events[idx].1), &mut out);
            idx += 1;
        } else {
            now = next_visit;
            let mut sent = 0usize;
            while sent < service.budget {
                let Some((frame, _)) = gw.pop_fddi_tx(now) else { break };
                sent += frame.len();
                delivered += 1;
            }
            next_visit += service.rotation;
        }
    }
    let _ = delivered;
    let stats = gw.tx_buffer_stats();
    (offered, stats.overflow_drops, gw.tx_buffer_mean_occupancy(end), stats.peak_octets)
}

/// Run E6.
pub fn run() {
    let services = [
        RingService { rotation: SimTime::from_us(200), budget: 64 * 1024, name: "light ring" },
        RingService {
            rotation: SimTime::from_ms(4),
            budget: 25_000,
            name: "loaded ring (~50 Mb/s svc)",
        },
    ];
    let buffer_sizes = [8 * 1024usize, 32 * 1024, 128 * 1024, 512 * 1024];

    let mut t = Table::new(&[
        "workload",
        "ring condition",
        "tx buffer",
        "frames offered",
        "overflow drops",
        "mean occ (KiB)",
        "peak occ (KiB)",
    ]);
    for service in &services {
        for (name, _) in workloads() {
            for &size in &buffer_sizes {
                // Rebuild sources fresh per run (they are consumed).
                let mut sources =
                    workloads().into_iter().find(|(n, _)| *n == name).map(|(_, s)| s).unwrap();
                let (offered, overflow, mean_occ, peak_occ) = run_one(&mut sources, service, size);
                t.row(&[
                    name.into(),
                    service.name.into(),
                    format!("{} KiB", size / 1024),
                    offered.to_string(),
                    overflow.to_string(),
                    format!("{:.1}", mean_occ / 1024.0),
                    format!("{:.1}", peak_occ as f64 / 1024.0),
                ]);
            }
        }
    }
    t.print();
    println!("\nreading: smooth voice never needs more than a few frames of buffer;");
    println!("bursty video and especially line-rate imaging bursts need tens to");
    println!("hundreds of KiB when the ring is near TTRT — the transmit buffer must");
    println!("absorb (arrival rate - token-gated service) x burst length. The knee");
    println!("where overflow first reaches zero is the answer to §4.3's question.");
}
