//! A campus FDDI LAN behind an ATM backbone: mixed application traffic
//! with admission control.
//!
//! The paper's introduction frames the gateway as the junction between
//! an ATM WAN and FDDI LANs carrying "digitized voice, full motion
//! video, and interactive imaging" plus classical datagram traffic.
//! This example runs that mix through the gateway for one simulated
//! second and prints a per-application delivery report, plus the
//! resource-manager view (§2.3): voice and video congrams are admitted
//! against the ring's capacity; the datagram class takes what is left.
//!
//! Run with: `cargo run --example campus_backbone --release`

use atm_fddi_gateway::mchip::congram::FlowSpec;
use atm_fddi_gateway::mchip::resman::{AdmitDecision, ResourceManager};
use atm_fddi_gateway::sim::rng::SimRng;
use atm_fddi_gateway::sim::traffic::{
    arrivals_until, BulkSource, CbrSource, OnOffSource, PoissonSource, Source,
};
use atm_fddi_gateway::sim::SimTime;
use atm_fddi_gateway::testbed::{CongramHandle, Testbed, TestbedConfig};

struct App {
    name: &'static str,
    congram: CongramHandle,
    sent: usize,
    octets: u64,
}

fn main() {
    let horizon = SimTime::from_secs(1);
    let mut tb = Testbed::build(TestbedConfig { fddi_stations: 6, ..Default::default() });
    let mut rng = SimRng::new(2026);

    // The gateway is the ring's designated resource manager (§2.3):
    // guaranteed-class congrams are admitted against ~80 Mb/s.
    let mut resman = ResourceManager::new(80_000_000);

    // Application mix, each to its own FDDI station.
    let mut sources: Vec<(Box<dyn Source>, &'static str, usize)> = vec![
        (Box::new(CbrSource::voice(SimTime::ZERO)), "voice-1 (64 kb/s CBR)", 1),
        (Box::new(CbrSource::voice(SimTime::from_ms(3))), "voice-2 (64 kb/s CBR)", 2),
        (Box::new(OnOffSource::video(SimTime::ZERO)), "video (6 Mb/s pk on-off)", 3),
        (
            Box::new(BulkSource::new(SimTime::from_ms(100), 20_000_000, 4000, 1_500_000)),
            "bulk (1.5 MB file at 20 Mb/s)",
            4,
        ),
        (
            Box::new(PoissonSource::new(SimTime::ZERO, 2_000_000, 512)),
            "datagram (2 Mb/s Poisson)",
            5,
        ),
    ];

    let mut apps: Vec<App> = Vec::new();
    for (i, (source, name, station)) in sources.iter_mut().enumerate() {
        // Guaranteed classes pass admission; datagram traffic is not
        // admitted (it has "good multiplexing characteristics", §2.4,
        // and uses leftover capacity).
        let guaranteed = !name.starts_with("datagram");
        if guaranteed {
            let flow = FlowSpec {
                peak_bps: source.peak_bps(),
                mean_bps: source.mean_bps(),
                burst_octets: 0,
            };
            let decision = resman.admit(&flow);
            println!("admission {name:<28} peak {:>9} b/s -> {decision:?}", flow.peak_bps);
            assert_eq!(decision, AdmitDecision::Admitted);
        }
        let congram = tb.install_data_congram(*station);
        let mut stream_rng = rng.fork(i as u64);
        let arrivals = arrivals_until(source.as_mut(), &mut stream_rng, horizon);
        let mut app = App { name, congram, sent: 0, octets: 0 };
        for a in &arrivals {
            tb.send_from_atm_host_at(a.at, congram, vec![i as u8; a.octets]);
            app.sent += 1;
            app.octets += a.octets as u64;
        }
        apps.push(app);
    }
    println!(
        "\nring capacity committed to guaranteed congrams: {:.1}% ({} of {} b/s)\n",
        resman.utilization() * 100.0,
        resman.committed_bps(),
        resman.capacity_bps()
    );

    tb.run_until(horizon + SimTime::from_ms(100));

    println!("{:<30} {:>8} {:>8} {:>12}", "application", "sent", "rcvd", "goodput");
    let mut total_rx = 0u64;
    for app in &apps {
        let rx = tb.fddi_rx(app.congram.station);
        let rx_octets: u64 = rx.iter().map(|f| f.len() as u64).sum();
        total_rx += rx_octets;
        println!(
            "{:<30} {:>8} {:>8} {:>9.3} Mb/s",
            app.name,
            app.sent,
            rx.len(),
            rx_octets as f64 * 8.0 / horizon.as_secs_f64() / 1e6
        );
        assert_eq!(rx.len(), app.sent, "{}: loss through the gateway", app.name);
    }
    println!(
        "\naggregate gateway goodput: {:.2} Mb/s; SPP cells in: {}; MPP translations: {}",
        total_rx as f64 * 8.0 / horizon.as_secs_f64() / 1e6,
        tb.gw.spp().stats().cells_in,
        tb.gw.mpp().stats().data_up,
    );
    println!(
        "gateway latency (ATM->FDDI): mean {:.0} ns, p99 {} ns, max {} ns",
        tb.gw.stats().atm_to_fddi_ns.mean(),
        tb.gw.stats().atm_to_fddi_ns.quantile(0.99),
        tb.gw.stats().atm_to_fddi_ns.max()
    );
    println!("\ncampus_backbone OK");
}
