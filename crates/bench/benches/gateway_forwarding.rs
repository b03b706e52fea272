//! End-to-end gateway forwarding performance (E5's subject, wall-clock
//! side): complete frames through AIC → SPP → MPP → buffers and back.

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use gw_gateway::gateway::Gateway;
use gw_gateway::GatewayConfig;
use gw_sar::segment::segment_cells;
use gw_sim::time::SimTime;
use gw_wire::atm::{AtmHeader, Vci, CELL_SIZE};
use gw_wire::fddi::{self, FddiAddr, FrameControl, FrameRepr};
use gw_wire::mchip::{build_data_frame, Icn};

fn gateway() -> Gateway {
    let mut gw = Gateway::new(GatewayConfig::default(), FddiAddr::station(0), 100_000_000);
    gw.install_congram(Vci(100), Icn(1), Icn(2), FddiAddr::station(5), false);
    gw
}

fn managed_gateway() -> Gateway {
    let config = GatewayConfig {
        management: Some(gw_mgmt::MgmtConfig::default()),
        ..GatewayConfig::default()
    };
    let mut gw = Gateway::new(config, FddiAddr::station(0), 100_000_000);
    gw.install_congram(Vci(100), Icn(1), Icn(2), FddiAddr::station(5), false);
    gw
}

fn bench_gateway(c: &mut Criterion) {
    let mut g = c.benchmark_group("gateway");

    // ATM -> FDDI: a 10-cell data frame.
    let mchip = build_data_frame(Icn(1), &vec![0x5Au8; 440]).unwrap();
    let cells: Vec<[u8; CELL_SIZE]> =
        segment_cells(&AtmHeader::data(Default::default(), Vci(100)), &mchip, false)
            .unwrap()
            .into_iter()
            .map(|c| {
                let mut b = [0u8; CELL_SIZE];
                b.copy_from_slice(c.as_bytes());
                b
            })
            .collect();
    g.throughput(Throughput::Bytes(440));
    g.bench_function("atm_to_fddi_10cells", |b| {
        let mut gw = gateway();
        let mut out = Vec::new();
        let mut t = SimTime::ZERO;
        b.iter(|| {
            out.clear();
            for cell in &cells {
                gw.deliver_cells(t, std::slice::from_ref(cell), black_box(&mut out));
                t += SimTime::from_us(3);
            }
            gw.pop_fddi_tx(t)
        })
    });

    // Same frame with the management plane on: the guard pair for the
    // tentpole's "instrumentation stays off the critical path" claim.
    g.bench_function("atm_to_fddi_10cells_managed", |b| {
        let mut gw = managed_gateway();
        let mut out = Vec::new();
        let mut t = SimTime::ZERO;
        b.iter(|| {
            out.clear();
            for cell in &cells {
                gw.deliver_cells(t, std::slice::from_ref(cell), black_box(&mut out));
                t += SimTime::from_us(3);
            }
            gw.pop_fddi_tx(t)
        })
    });

    // FDDI -> ATM: a 1 KiB frame.
    let mchip = build_data_frame(Icn(2), &vec![0xC3u8; 1024]).unwrap();
    let mut info = fddi::llc_snap_header().to_vec();
    info.extend_from_slice(&mchip);
    let frame = FrameRepr {
        fc: FrameControl::LlcAsync { priority: 0 },
        dst: FddiAddr::station(0),
        src: FddiAddr::station(3),
        info,
    }
    .emit()
    .unwrap();
    g.throughput(Throughput::Bytes(1024));
    g.bench_function("fddi_to_atm_1KiB", |b| {
        let mut gw = gateway();
        let mut t = SimTime::ZERO;
        b.iter(|| {
            t += SimTime::from_us(100);
            black_box(gw.fddi_frame_in(t, &frame))
        })
    });

    // The tentpole pair: 1000 active VCs round-robin, single-cell entry
    // point vs the batched `deliver_cells` fast path. The machine-
    // readable companion (BENCH_forwarding.json, speedup vs the
    // recorded pre-PR baseline) is produced by `experiments e20`.
    const VCS: u16 = 1000;
    let mk_1k = || {
        let config = GatewayConfig {
            vc_liveness_timeout: Some(SimTime::from_ms(50)),
            ..GatewayConfig::default()
        };
        let mut gw = Gateway::new(config, FddiAddr::station(0), 100_000_000);
        for i in 0..VCS {
            gw.install_congram(Vci(1000 + i), Icn(i), Icn(i), FddiAddr::station(5), false);
        }
        gw
    };
    let sets: Vec<Vec<[u8; CELL_SIZE]>> = (0..VCS)
        .map(|i| {
            let mchip = build_data_frame(Icn(i), &vec![0x5Au8; 440]).unwrap();
            segment_cells(&AtmHeader::data(Default::default(), Vci(1000 + i)), &mchip, false)
                .unwrap()
                .into_iter()
                .map(|c| {
                    let mut b = [0u8; CELL_SIZE];
                    b.copy_from_slice(c.as_bytes());
                    b
                })
                .collect()
        })
        .collect();

    g.throughput(Throughput::Elements(10)); // cells per frame
    g.bench_function("1kvc_frame_single_cell", |b| {
        let mut gw = mk_1k();
        let mut out = Vec::new();
        let mut t = SimTime::ZERO;
        let mut f = 0usize;
        b.iter(|| {
            let cells = &sets[f % sets.len()];
            f += 1;
            out.clear();
            for cell in cells {
                gw.deliver_cells(t, std::slice::from_ref(cell), black_box(&mut out));
                t += SimTime::from_ns(40);
            }
            while let Some((frame, _)) = gw.pop_fddi_tx(t) {
                gw.recycle_frame(frame);
            }
            t += SimTime::from_ns(400);
        })
    });
    g.bench_function("1kvc_frame_batched", |b| {
        let mut gw = mk_1k();
        let mut t = SimTime::ZERO;
        let mut f = 0usize;
        let mut out = Vec::new();
        b.iter(|| {
            let cells = &sets[f % sets.len()];
            f += 1;
            out.clear();
            gw.deliver_cells(t, cells, &mut out);
            t += SimTime::from_ns(40 * cells.len() as u64);
            while let Some((frame, _)) = gw.pop_fddi_tx(t) {
                gw.recycle_frame(frame);
            }
            black_box(&out);
            t += SimTime::from_ns(400);
        })
    });

    g.finish();
}

criterion_group!(benches, bench_gateway);
criterion_main!(benches);
