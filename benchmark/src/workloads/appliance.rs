//! The appliance workloads: `gw_phy::Appliance` — the engine behind
//! `gwd` — between two GWP1 transports, driven from the line side.
//!
//! The gateway-side endpoints belong to the appliance; the benchmark
//! holds the line-side endpoints and is the ATM network and the ring at
//! once. Closed loop, one frame in flight per direction: a unit sends
//! one ATM→FDDI frame (its cells, one datagram each) and one FDDI→ATM
//! frame, then alternates `Appliance::step` with line-side `pump` and
//! `poll_*` until both have come back. The transports run in lockstep
//! mode over real loopback UDP sockets (`udp_cell_pair` /
//! `udp_frame_pair`), so the only I/O in the whole benchmark is these
//! four sockets.

use crate::alloc;
use crate::gen::{self, AtmFrame, CellBytes, Congram, FddiFrame, CELL_PACE_NS, FDDI_OCTET_NS};
use crate::layers::{replay, Metrics, Recorded};
use crate::oracle::{check_atm_out, check_fddi_out, CellSink};
use crate::run::{Audit, Tally, Workload};
use crate::trace::{in_span, Tracer};
use crate::workloads::core::{census, FDDI_CAPACITY_BPS};
use atm_fddi_gateway::gateway::GatewayConfig;
use atm_fddi_gateway::phy::encap;
use atm_fddi_gateway::phy::{
    loopback_cell_pair, loopback_frame_pair, udp_cell_pair, udp_frame_pair, Appliance,
    ApplianceConfig, CellPhy, CongramSpec, FramePhy, PhyStats, TransportFaultConfig,
};
use atm_fddi_gateway::sar::segment::cells_for_len;
use atm_fddi_gateway::sim::rng::SimRng;
use atm_fddi_gateway::sim::SimTime;
use std::time::Instant;

const FRAMES_PER_DIRECTION: usize = 256;
const PAYLOAD_SIZES: [usize; 4] = [200, 900, 1500, 4000];
/// Simulated time between steps while a unit waits for its frames.
const STEP_NS: u64 = 10_000;
/// Steps after which a unit gives up on its frames (the ARQ needs a
/// handful even at 2 % loss; this is the hang guard, not a tuning knob).
const MAX_STEPS_PER_UNIT: u32 = 10_000;

/// Which transport sits under the appliance's two ports.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Transport {
    /// Real loopback UDP sockets, GWP1, lockstep ARQ, optional faults.
    Udp(TransportFaultConfig),
    /// In-process queues: the appliance minus the transport (used only
    /// for the `phy.appliance.step_ns_per_cell` difference).
    Loopback,
}

/// `appliance_udp` / `appliance_udp_lossy`.
pub struct ApplianceUdp {
    /// Congram table.
    pub table: Vec<Congram>,
    /// ATM→FDDI frames of one cycle.
    pub a2f: Vec<AtmFrame>,
    /// FDDI→ATM frames of one cycle.
    pub f2a: Vec<FddiFrame>,
    /// Transport under the ports.
    pub transport: Transport,
}

impl ApplianceUdp {
    /// Inputs for `seed`; `lossy` arms the datagram fault injector with
    /// a stream derived from the same seed.
    pub fn generate(seed: u64, lossy: bool) -> ApplianceUdp {
        let mut rng = SimRng::new(seed);
        let table = gen::congrams(8, 4);
        let a2f = gen::atm_frames(&mut rng, &table, &PAYLOAD_SIZES, FRAMES_PER_DIRECTION);
        let f2a = gen::fddi_frames(&mut rng, &table, &PAYLOAD_SIZES, FRAMES_PER_DIRECTION);
        let faults = if lossy {
            TransportFaultConfig {
                drop: 0.02,
                duplicate: 0.02,
                truncate: 0.01,
                seed: rng.next_u64(),
            }
        } else {
            TransportFaultConfig::none()
        };
        ApplianceUdp { table, a2f, f2a, transport: Transport::Udp(faults) }
    }

    /// The same traffic over in-process queues.
    pub fn over_loopback(&self) -> ApplianceUdp {
        ApplianceUdp {
            table: self.table.clone(),
            a2f: self.a2f.clone(),
            f2a: self.f2a.clone(),
            transport: Transport::Loopback,
        }
    }

    /// The datagram fault mix in force.
    pub fn faults(&self) -> TransportFaultConfig {
        match self.transport {
            Transport::Udp(f) => f,
            Transport::Loopback => TransportFaultConfig::none(),
        }
    }
}

/// Gateway-side and line-side cell endpoints, gateway-side and
/// line-side frame endpoints, and whether frames pass by ownership.
type Ports = (Box<dyn CellPhy>, Box<dyn CellPhy>, Box<dyn FramePhy>, Box<dyn FramePhy>, bool);

/// The appliance plus the line-side endpoints the driver holds.
pub struct ApplianceSys {
    app: Appliance,
    cell_line: Box<dyn CellPhy>,
    frame_line: Box<dyn FramePhy>,
    /// Gateway frame buffers surface at the line side (loopback passes
    /// ownership through) and must go back to the gateway's pool.
    frames_pooled: bool,
    now: SimTime,
    cursor: usize,
    cells: Vec<(SimTime, CellBytes)>,
    frames: Vec<(SimTime, Vec<u8>, bool)>,
    spare: Vec<u8>,
    sink: CellSink,
}

impl ApplianceSys {
    fn step(&mut self, tracer: &mut Option<&mut Tracer>, tally: &mut Tally) {
        in_span(tracer, "phy.appliance.step", || self.app.step(self.now));
        tally.steps += 1;
        in_span(tracer, "phy.udp.line_pump", || {
            self.cell_line.pump(self.now).expect("line cell pump");
            self.frame_line.pump(self.now).expect("line frame pump");
        });
        in_span(tracer, "phy.udp.line_poll", || {
            self.frame_line.poll_frames(&mut self.frames).expect("line frame poll");
            self.cell_line.poll_cells(&mut self.cells).expect("line cell poll");
        });
    }

    fn line_quiet(&self) -> bool {
        self.cell_line.in_flight() == 0 && self.frame_line.in_flight() == 0
    }

    fn transport_stats(&self) -> PhyStats {
        let mut s = self.app.transport_stats();
        s.merge(&self.cell_line.stats());
        s.merge(&self.frame_line.stats());
        s
    }
}

impl Workload for ApplianceUdp {
    type Sys = ApplianceSys;

    fn build(&self, _managed: bool) -> ApplianceSys {
        let (cell_gw, cell_line, frame_gw, frame_line, frames_pooled): Ports = match self.transport
        {
            Transport::Udp(faults) => {
                let (cg, cl) = udp_cell_pair(&faults).expect("bind the UDP cell pair");
                let (fg, fl) = udp_frame_pair(&faults).expect("bind the UDP frame pair");
                (Box::new(cg), Box::new(cl), Box::new(fg), Box::new(fl), false)
            }
            Transport::Loopback => {
                let (cg, cl) = loopback_cell_pair();
                let (fg, fl) = loopback_frame_pair();
                (Box::new(cg), Box::new(cl), Box::new(fg), Box::new(fl), true)
            }
        };
        // `Appliance::new` forces the management plane on.
        let mut app =
            Appliance::new(GatewayConfig::default(), FDDI_CAPACITY_BPS, cell_gw, frame_gw);
        let config = ApplianceConfig {
            congrams: self
                .table
                .iter()
                .map(|c| CongramSpec {
                    vci: c.vci.0,
                    atm_icn: c.atm_icn.0,
                    fddi_icn: c.fddi_icn.0,
                    station: c.station,
                    synchronous: c.sync,
                })
                .collect(),
        };
        assert_eq!(app.apply_config(&config), self.table.len());
        ApplianceSys {
            app,
            cell_line,
            frame_line,
            frames_pooled,
            now: SimTime::from_us(100),
            cursor: 0,
            cells: Vec::new(),
            frames: Vec::new(),
            spare: Vec::new(),
            sink: CellSink::new(&self.table),
        }
    }

    fn units_per_cycle(&self) -> u64 {
        FRAMES_PER_DIRECTION as u64
    }

    fn unit(
        &self,
        sys: &mut ApplianceSys,
        _check_all: bool,
        tracer: &mut Option<&mut Tracer>,
        tally: &mut Tally,
    ) {
        // Per-cell cost here is a datagram and a syscall, so every frame
        // is compared in full (FCS and far-end reassembly included).
        let up = &self.a2f[sys.cursor];
        let down = &self.f2a[sys.cursor];
        sys.cursor = (sys.cursor + 1) % FRAMES_PER_DIRECTION;
        let down_cells = cells_for_len(8 + down.payload.len()) as u64;

        let up_sent = Instant::now();
        in_span(tracer, "phy.udp.line_send", || {
            for (i, cell) in up.cells.iter().enumerate() {
                let at = sys.now + SimTime::from_ns(i as u64 * CELL_PACE_NS);
                sys.cell_line.send_cell(at, cell).expect("line cell send");
            }
        });
        let down_sent = Instant::now();
        in_span(tracer, "phy.udp.line_send", || {
            let mut buf = std::mem::take(&mut sys.spare);
            buf.clear();
            buf.extend_from_slice(&down.bytes);
            if let Some(back) = sys.frame_line.send_frame(sys.now, buf, false).expect("line frame")
            {
                sys.spare = back;
            }
        });
        // Both ports are paced by their lines: cells at 2.83 µs each,
        // the ring at no more than 80 Mb/s.
        let pace = (up.cells.len() as u64).max(down_cells) * CELL_PACE_NS;
        let pace = pace.max(down.bytes.len() as u64 * FDDI_OCTET_NS);
        sys.now += SimTime::from_ns(pace);
        tally.sim_ns += pace;
        tally.attempted += 2;
        tally.cells += up.cells.len() as u64;

        let (mut up_done, mut down_done) = (false, false);
        let mut down_seen = 0u64;
        let mut steps = 0u32;
        while !(up_done && down_done) {
            if steps == MAX_STEPS_PER_UNIT {
                tally.fail_many(
                    u64::from(!up_done) + u64::from(!down_done),
                    format!("appliance: frame pair not returned in {steps} steps"),
                );
                break;
            }
            steps += 1;
            sys.step(tracer, tally);
            let arrived = Instant::now();

            for (_, bytes, _) in sys.frames.drain(..) {
                match check_fddi_out(&bytes, &self.table[up.congram], &up.payload, true) {
                    Ok(()) if !up_done => {
                        up_done = true;
                        tally.delivered += 1;
                        tally.checked_in_full += 1;
                        tally.payload_octets += up.payload.len() as u64;
                        tally.latency(up_sent, arrived);
                    }
                    Ok(()) => tally.fail("appliance: FDDI frame delivered twice".into()),
                    Err(e) => tally.fail(format!("appliance a2f: {e}")),
                }
                if sys.frames_pooled {
                    sys.app.gateway_mut().recycle_frame(bytes);
                }
            }
            for (_, cell) in sys.cells.drain(..) {
                down_seen += 1;
                tally.cells += 1;
                match sys.sink.push(&cell) {
                    Ok(None) => {}
                    Ok(Some((vci, mchip))) => {
                        let c = &self.table[down.congram];
                        let verdict = if vci != c.vci {
                            Err(format!("cells on {vci:?}, want {:?}", c.vci))
                        } else if down_seen != down_cells {
                            Err(format!("frame completed after {down_seen} of {down_cells} cells"))
                        } else {
                            check_atm_out(&mchip, c, &down.payload)
                        };
                        sys.sink.recycle(mchip);
                        match verdict {
                            Ok(()) if !down_done => {
                                down_done = true;
                                tally.delivered += 1;
                                tally.checked_in_full += 1;
                                tally.payload_octets += down.payload.len() as u64;
                                tally.latency(down_sent, arrived);
                            }
                            Ok(()) => tally.fail("appliance: ATM frame delivered twice".into()),
                            Err(e) => tally.fail(format!("appliance f2a: {e}")),
                        }
                    }
                    Err(e) => tally.fail(format!("appliance f2a: {e}")),
                }
            }
            sys.now += SimTime::from_ns(STEP_NS);
            tally.sim_ns += STEP_NS;
        }
    }

    fn finish(&self, mut sys: ApplianceSys, tally: &mut Tally) -> Audit {
        // Before the settling steps below add theirs.
        let steps_per_frame =
            if tally.attempted == 0 { 0.0 } else { tally.steps as f64 / tally.attempted as f64 };
        // Let the ARQ and the timers settle with both sides pumping, then
        // drain gracefully the way `gwd` does on SIGTERM.
        let mut settled = false;
        for round in 0..4000 {
            if round == 2000 {
                sys.app.begin_drain();
            }
            sys.now += SimTime::from_ns(STEP_NS);
            sys.step(&mut None, tally);
            if !sys.frames.is_empty() || !sys.cells.is_empty() {
                tally.fail("appliance: traffic surfaced after the last unit returned".into());
                sys.frames.clear();
                sys.cells.clear();
            }
            if sys.app.is_quiescent() && sys.line_quiet() {
                settled = true;
                break;
            }
        }
        let report = sys.app.drain(sys.now, SimTime::from_ms(1));
        let mut audit = Audit { findings: report.violations.clone(), ..Audit::default() };
        if !settled || !report.clean() || !sys.line_quiet() {
            audit.findings.push(format!(
                "drain not clean: settled {settled}, residue {:?}, {} in flight at the appliance, \
                 line quiet {}",
                report.residue,
                report.in_flight,
                sys.line_quiet()
            ));
        }
        census(sys.app.gateway_mut(), report.end, &mut audit);
        let t = sys.transport_stats();
        let share =
            |part: u64, whole: u64| if whole == 0 { 0.0 } else { part as f64 / whole as f64 };
        let offered_rx = t.datagrams_rx + t.dup_drops + t.decode_drops;
        audit.counts.insert("phy.udp.retransmit_share", share(t.retransmits, t.datagrams_tx));
        audit.counts.insert("phy.udp.dup_drop_share", share(t.dup_drops, offered_rx));
        audit.counts.insert("phy.udp.decode_drop_share", share(t.decode_drops, offered_rx));
        audit.counts.insert("phy.appliance.steps_per_frame", steps_per_frame);
        audit.boundary.insert("datagrams_tx", t.datagrams_tx);
        audit.boundary.insert("datagrams_rx", t.datagrams_rx);
        audit.boundary.insert("retransmits", t.retransmits);
        audit.boundary.insert("dup_drops", t.dup_drops);
        audit.boundary.insert("decode_drops", t.decode_drops);
        audit
    }
}

// ---------------------------------------------------------------------
// Per-layer replays: encapsulation, the transport pair alone, and the
// appliance with the transport taken out.

impl ApplianceUdp {
    /// One cycle of inputs. `Appliance::step` hands `deliver_cells` one
    /// cell at a time, so that is the batch the core replay uses.
    pub fn recorded(&self) -> Recorded<'_> {
        Recorded {
            table: &self.table,
            cells_in: self.a2f.iter().flat_map(|f| f.cells.iter().copied()).collect(),
            batch: 1,
            advance_every: 37,
            frames_in: self.f2a.iter().map(|f| f.bytes.clone()).collect(),
            policed: false,
            liveness: None,
        }
    }

    /// `phy.encap.*`, `phy.udp.*` (the pair alone, no gateway) and
    /// `phy.appliance.step_ns_per_cell` (the appliance over in-process
    /// queues: the appliance minus the transport).
    pub fn layers(&self, tracer: &mut Tracer, m: &mut Metrics) {
        let root = tracer.open("replay.phy");
        let cells: Vec<&CellBytes> = self.a2f.iter().flat_map(|f| &f.cells).collect();
        let n_cells = cells.len() as u64;
        let at = SimTime::from_us(100);

        let mut buf = Vec::with_capacity(128);
        m.insert(
            "phy.encap.encode_ns",
            replay(tracer, "phy.encap.encode", n_cells, || {
                for (seq, c) in cells.iter().enumerate() {
                    buf.clear();
                    encap::encode(encap::KIND_CELL, 0, seq as u64, at, &c[..], &mut buf)
                        .expect("a cell fits a datagram");
                    std::hint::black_box(&buf);
                }
            }),
        );
        let datagrams: Vec<Vec<u8>> = cells
            .iter()
            .enumerate()
            .map(|(seq, c)| {
                let mut d = Vec::new();
                encap::encode(encap::KIND_CELL, 0, seq as u64, at, &c[..], &mut d)
                    .expect("a cell fits a datagram");
                d
            })
            .collect();
        m.insert(
            "phy.encap.decode_ns",
            replay(tracer, "phy.encap.decode", n_cells, || {
                for d in &datagrams {
                    std::hint::black_box(encap::decode(d).expect("well-formed datagram"));
                }
            }),
        );

        // The cell pair alone: one frame's cells out, pump both ends
        // until everything is across and acknowledged, next frame.
        let faults = self.faults();
        let (mut tx, mut rx) = udp_cell_pair(&faults).expect("bind the UDP cell pair");
        let mut got = Vec::new();
        let mut sent = 0u64;
        let mut cell_pass = || {
            for f in &self.a2f {
                for c in &f.cells {
                    tx.send_cell(at, c).expect("pair cell send");
                }
                sent += f.cells.len() as u64;
                got.clear();
                let mut rounds = 0;
                while got.len() < f.cells.len() || tx.in_flight() > 0 {
                    rx.pump(at).expect("pair pump");
                    tx.pump(at).expect("pair pump");
                    rx.poll_cells(&mut got).expect("pair poll");
                    rounds += 1;
                    assert!(rounds < 10_000, "cell pair failed to quiesce");
                }
            }
        };
        m.insert(
            "phy.udp.cell_ns_per_cell",
            replay(tracer, "phy.udp.cell_pair", n_cells, &mut cell_pass),
        );
        let (allocs, ()) = alloc::counted(&mut cell_pass);
        m.insert("phy.udp.allocs_per_cell", allocs as f64 / n_cells as f64);
        let mut s = tx.stats();
        s.merge(&rx.stats());
        // Acknowledgements are not counted by `PhyStats`; this is data
        // datagrams (first transmissions and retransmissions) per cell.
        m.insert(
            "phy.udp.datagrams_per_cell",
            (s.datagrams_tx + s.retransmits) as f64 / sent as f64,
        );

        let (mut tx, mut rx) = udp_frame_pair(&faults).expect("bind the UDP frame pair");
        let mut got = Vec::new();
        let mut spare = Vec::new();
        m.insert(
            "phy.udp.frame_ns_per_frame",
            replay(tracer, "phy.udp.frame_pair", self.f2a.len() as u64, || {
                for f in &self.f2a {
                    let mut frame = std::mem::take(&mut spare);
                    frame.clear();
                    frame.extend_from_slice(&f.bytes);
                    if let Some(back) = tx.send_frame(at, frame, false).expect("pair frame send") {
                        spare = back;
                    }
                    got.clear();
                    let mut rounds = 0;
                    while got.is_empty() || tx.in_flight() > 0 {
                        rx.pump(at).expect("pair pump");
                        tx.pump(at).expect("pair pump");
                        rx.poll_frames(&mut got).expect("pair poll");
                        rounds += 1;
                        assert!(rounds < 10_000, "frame pair failed to quiesce");
                    }
                }
            }),
        );

        // The same traffic with in-process queues under the ports.
        let lo = self.over_loopback();
        let mut sys = lo.build(true);
        let mut tally = Tally::new();
        let port_cells: u64 = n_cells
            + self.f2a.iter().map(|f| cells_for_len(8 + f.payload.len()) as u64).sum::<u64>();
        m.insert(
            "phy.appliance.step_ns_per_cell",
            replay(tracer, "phy.appliance.loopback", port_cells, || {
                for _ in 0..lo.units_per_cycle() {
                    lo.unit(&mut sys, true, &mut None, &mut tally);
                }
            }),
        );
        assert_eq!(
            tally.failed, 0,
            "loopback appliance replay failed its oracle: {:?}",
            tally.failures
        );
        tracer.close(root);
    }
}
