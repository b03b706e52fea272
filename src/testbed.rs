//! Co-simulation harness: ATM network ⇄ gateway ⇄ FDDI ring.
//!
//! The three simulations (the BPN cell network, the gateway's
//! cycle-accurate hardware, and the timed-token ring) each keep their
//! own event queue; the testbed advances them in lockstep over small
//! time slices and ferries traffic across the seams:
//!
//! * cells delivered to the gateway's ATM endpoint enter the AIC;
//! * cells the gateway emits are injected into the ATM network at the
//!   next slice boundary;
//! * frames the MPP DMAs into the transmit buffer drain into the
//!   gateway's ring station queue;
//! * frames the ring delivers to the gateway station enter the receive
//!   buffer path.
//!
//! Cross-seam hand-offs are therefore quantized to the slice length
//! ([`SLICE`], 10 µs). Gateway-internal latencies (experiments E3/E4) are
//! measured inside [`gw_gateway`] at full 40 ns resolution; the slice
//! only quantizes network-to-network hand-off times.
//!
//! The default topology:
//!
//! ```text
//!  ATM host ── switch 0 ── switch 1 ── GATEWAY ── FDDI ring (station 0)
//!                                                    ├─ station 1
//!                                                    ├─ station 2 …
//! ```

use gw_atm::network::{AtmNetwork, EndpointEvent, EndpointId, LinkParams};
use gw_atm::signaling::{SignalIndication, TrafficContract};
use gw_fddi::ring::{Ring, RingConfig};
use gw_gateway::gateway::{Gateway, Output};
use gw_gateway::GatewayConfig;
use gw_mchip::congram::CongramId;
use gw_mchip::messages::ControlPayload;
use gw_phy::{
    loopback_cell_pair, loopback_frame_pair, udp_cell_pair, udp_frame_pair, CellPhy, FramePhy,
    PhyMode, PhyStats,
};
use gw_sar::reassemble::{Reassembler, ReassemblyConfig, ReassemblyEvent};
use gw_sar::segment::segment_cells;
use gw_sim::fault::{FaultConfig, FaultInjector};
use gw_sim::rng::SimRng;
use gw_sim::time::SimTime;
use gw_wire::atm::{AtmHeader, Cell, Vci, CELL_SIZE};
use gw_wire::fddi::{self, FddiAddr, Frame, FrameControl, FrameRepr};
use gw_wire::mchip::{build_data_frame, parse_frame, Icn, MchipType};
use std::collections::HashMap;

/// Co-simulation slice: the quantum of every cross-seam hand-off.
pub const SLICE: SimTime = SimTime::from_us(10);
/// Ring circumference, km.
pub const RING_KM: u64 = 10;
/// Synchronous allocation granted to the gateway's station.
pub const GATEWAY_SYNC_ALLOC: SimTime = SimTime::from_us(500);

/// The ring of `stations` stations as [`Testbed::build`] configures it:
/// [`RING_KM`] of fibre, the gateway at station 0 with
/// [`GATEWAY_SYNC_ALLOC`] and a deep asynchronous queue.
pub fn ring_config(stations: usize) -> RingConfig {
    let mut ring_cfg = RingConfig::uniform(stations, RING_KM);
    ring_cfg.stations[0].sync_alloc = GATEWAY_SYNC_ALLOC;
    ring_cfg.stations[0].async_queue_frames = 4096;
    ring_cfg
}

/// Testbed configuration.
#[derive(Debug, Clone)]
pub struct TestbedConfig {
    /// FDDI stations including the gateway (which is station 0).
    pub fddi_stations: usize,
    /// Gateway configuration.
    pub gateway: GatewayConfig,
    /// Faults applied to cells on the ATM→gateway seam (E10).
    pub atm_faults: FaultConfig,
    /// RNG seed for fault injection.
    pub seed: u64,
    /// Ring capacity the gateway's resource manager guards.
    pub fddi_capacity_bps: u64,
    /// Transport carrying traffic across the two port seams. The
    /// default in-process loopback reproduces the original direct
    /// hand-off bit for bit; [`PhyMode::Udp`] routes every cell and
    /// frame through real sockets (plus the GWP1 ARQ) instead, which
    /// must be — and is, see the chaos phy-soak — invisible above the
    /// phy layer.
    pub phy: PhyMode,
}

impl Default for TestbedConfig {
    fn default() -> Self {
        TestbedConfig {
            fddi_stations: 4,
            gateway: GatewayConfig::default(),
            atm_faults: FaultConfig::none(),
            seed: 1,
            fddi_capacity_bps: 80_000_000,
            phy: PhyMode::Loopback,
        }
    }
}

/// A data congram installed across the testbed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CongramHandle {
    /// ATM-side VC.
    pub vci: Vci,
    /// ICN on the ATM interface.
    pub atm_icn: Icn,
    /// ICN on the FDDI interface.
    pub fddi_icn: Icn,
    /// Destination FDDI station.
    pub station: usize,
}

/// The testbed.
pub struct Testbed {
    /// The ATM network.
    pub atm: AtmNetwork,
    /// The FDDI ring.
    pub ring: Ring,
    /// The gateway under test.
    pub gw: Gateway,
    /// The host endpoint on the ATM side.
    pub atm_host: EndpointId,
    gw_ep: EndpointId,
    now: SimTime,
    fault: FaultInjector,
    next_vci: u16,
    next_icn: u16,
    /// Cells awaiting injection into the ATM network (scheduled host
    /// sends), time-tagged.
    atm_outbox: std::collections::VecDeque<(SimTime, EndpointId, [u8; CELL_SIZE])>,
    /// A cell the fault injector reordered: held back until the next
    /// cell on the seam is delivered (or the slice ends with no
    /// successor, so nothing is ever silently swallowed).
    reorder_hold: Option<(SimTime, [u8; CELL_SIZE])>,
    /// Data VCs installed across the testbed, in installation order.
    /// The misinsertion fault rewrites a cell's VCI onto the next live
    /// foreign VC in this list (deterministic target selection).
    data_vcis: Vec<Vci>,
    /// True when `atm_outbox` needs re-sorting before draining.
    outbox_dirty: bool,
    /// Host-side reassembly of cells arriving at the ATM host.
    host_reasm: Reassembler,
    /// MCHIP payloads delivered to the ATM host (data frames).
    pub atm_host_rx: Vec<Vec<u8>>,
    /// Control payloads delivered to the ATM host.
    pub atm_host_control_rx: Vec<ControlPayload>,
    /// MCHIP payloads delivered per FDDI station (data frames).
    fddi_rx: Vec<Vec<Vec<u8>>>,
    /// Control payloads delivered per FDDI station.
    fddi_control_rx: Vec<Vec<ControlPayload>>,
    /// ATM connections the gateway requested, keyed by signaling conn.
    pending_atm_conns: HashMap<gw_atm::signaling::ConnId, CongramId>,
    /// Delivery latency samples for data frames reaching FDDI stations
    /// (send-time tracking is the sender's job; this collects count +
    /// octets).
    pub fddi_rx_octets: u64,
    /// Octets delivered to the ATM host.
    pub atm_rx_octets: u64,
    /// Per-VC shaping horizon at the ATM host (cells of one congram
    /// are serialized; congrams contend at the switch like independent
    /// hosts would).
    host_tx_free: HashMap<Vci, SimTime>,
    /// Reused gateway-output scratch: the per-slice cell feed and
    /// housekeeping calls write into this instead of allocating a
    /// fresh `Vec<Output>` per cell.
    gw_out: Vec<Output>,
    /// Gateway side of the ATM (cell) port seam.
    cell_gw: Box<dyn CellPhy>,
    /// Network side of the ATM (cell) port seam.
    cell_line: Box<dyn CellPhy>,
    /// Gateway side of the SUPERNET (frame) port seam.
    frame_gw: Box<dyn FramePhy>,
    /// Ring side of the SUPERNET (frame) port seam.
    frame_line: Box<dyn FramePhy>,
    /// True when the line-side frame transport passes the gateway's
    /// pool buffers through by reference (loopback): ring deliveries to
    /// host stations must then be recycled into the MPP pool. A copying
    /// transport (UDP) recycles at the send seam instead, and ring
    /// deliveries are foreign buffers that must NOT enter the pool.
    line_frames_pooled: bool,
    /// Scratch for draining cell phys without per-flush allocation.
    cell_scratch: Vec<(SimTime, [u8; CELL_SIZE])>,
    /// Scratch for draining frame phys without per-flush allocation.
    frame_scratch: Vec<(SimTime, Vec<u8>, bool)>,
}

/// The five-way transport selection: gateway-side and line-side cell
/// phys, gateway-side and line-side frame phys, and whether line-side
/// frames pass MPP pool buffers through by ownership (loopback) or
/// arrive as fresh copies (UDP).
type PhyStack = (Box<dyn CellPhy>, Box<dyn CellPhy>, Box<dyn FramePhy>, Box<dyn FramePhy>, bool);

impl Testbed {
    /// Build the default topology.
    pub fn build(config: TestbedConfig) -> Testbed {
        let mut atm = AtmNetwork::new();
        let s0 = atm.add_switch(4);
        let s1 = atm.add_switch(4);
        atm.link(s0, 0, s1, 0, LinkParams::default());
        let atm_host = atm.attach_endpoint(s0, 1);
        let gw_ep = atm.attach_endpoint(s1, 1);

        let ring = Ring::new(ring_config(config.fddi_stations));

        let gw =
            Gateway::new(config.gateway.clone(), FddiAddr::station(0), config.fddi_capacity_bps);

        let host_reasm = Reassembler::new(ReassemblyConfig::default());
        let fault = FaultInjector::new(config.atm_faults, SimRng::new(config.seed));

        let (cell_gw, cell_line, frame_gw, frame_line, line_frames_pooled): PhyStack =
            match &config.phy {
                PhyMode::Loopback => {
                    let (cg, cl) = loopback_cell_pair();
                    let (fg, fl) = loopback_frame_pair();
                    (Box::new(cg), Box::new(cl), Box::new(fg), Box::new(fl), true)
                }
                PhyMode::Udp { faults } => {
                    let (cg, cl) = udp_cell_pair(faults).expect("bind UDP cell pair");
                    let (fg, fl) = udp_frame_pair(faults).expect("bind UDP frame pair");
                    (Box::new(cg), Box::new(cl), Box::new(fg), Box::new(fl), false)
                }
            };

        Testbed {
            atm,
            ring,
            gw,
            atm_host,
            gw_ep,
            now: SimTime::ZERO,
            fault,
            next_vci: 64,
            next_icn: 1,
            atm_outbox: std::collections::VecDeque::new(),
            reorder_hold: None,
            data_vcis: Vec::new(),
            outbox_dirty: false,
            host_reasm,
            atm_host_rx: Vec::new(),
            atm_host_control_rx: Vec::new(),
            fddi_rx: vec![Vec::new(); config.fddi_stations],
            fddi_control_rx: vec![Vec::new(); config.fddi_stations],
            pending_atm_conns: HashMap::new(),
            fddi_rx_octets: 0,
            atm_rx_octets: 0,
            host_tx_free: HashMap::new(),
            gw_out: Vec::new(),
            cell_gw,
            cell_line,
            frame_gw,
            frame_line,
            line_frames_pooled,
            cell_scratch: Vec::new(),
            frame_scratch: Vec::new(),
        }
    }

    /// Transport counters summed over all four phy endpoints (loopback
    /// mode counts hand-offs; UDP mode additionally counts retransmits
    /// and injected/absorbed transport faults).
    pub fn transport_stats(&self) -> PhyStats {
        let mut s = self.cell_gw.stats();
        s.merge(&self.cell_line.stats());
        s.merge(&self.frame_gw.stats());
        s.merge(&self.frame_line.stats());
        s
    }

    /// Current testbed time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Install a bidirectional data congram from the ATM host to an
    /// FDDI station, programming the ATM VC tables and the gateway's
    /// ICXT directly (the state signaling would have left behind).
    pub fn install_data_congram(&mut self, station: usize) -> CongramHandle {
        self.install_data_congram_to(FddiAddr::station(station as u32), station, false)
    }

    /// Install a congram whose FDDI destination is a group address;
    /// `rep_station` names any member station used for bookkeeping.
    pub fn install_multicast_congram(
        &mut self,
        group: FddiAddr,
        rep_station: usize,
        synchronous: bool,
    ) -> CongramHandle {
        self.install_data_congram_to(group, rep_station, synchronous)
    }

    /// Build a testbed from a parsed `.scene` file: topology, gateway
    /// knobs, fault plan, and congram table all come from the scene.
    /// Congrams are installed in declaration order, which pins their
    /// wire identifiers to [`gw_scene::wire_ids`] — the same assignment
    /// every other consumer (chaos, bench, `gwd smoke`) uses, so one
    /// file denotes one connection table everywhere. Returns the
    /// congram handles in declaration order; the traffic schedule is
    /// played separately (see [`crate::scene_run`]).
    pub fn from_scene(scene: &gw_scene::Scene, phy: PhyMode) -> (Testbed, Vec<CongramHandle>) {
        let config = TestbedConfig {
            fddi_stations: scene.stations_or_default() as usize,
            gateway: crate::scene_run::gateway_config(scene),
            atm_faults: crate::scene_run::fault_config(&scene.faults),
            // The fault injector gets its own stream: an injective map
            // of the scene seed keeps it apart from the forks `gw-chaos`
            // draws a seed's scene from.
            seed: scene.seed_or_default().wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(7),
            phy,
            ..Default::default()
        };
        let mut tb = Testbed::build(config);
        let mut handles = Vec::with_capacity(scene.congrams.len());
        for (i, decl) in scene.congrams.iter().enumerate() {
            let handle = tb.install_data_congram_to(
                FddiAddr::station(decl.station),
                decl.station as usize,
                decl.sync,
            );
            debug_assert_eq!(
                (handle.vci.0, handle.atm_icn.0, handle.fddi_icn.0),
                gw_scene::wire_ids(i),
                "congram wire-id assignment drifted from the scene contract"
            );
            if let Some(p) = &decl.police {
                tb.gw.install_rate_control(handle.vci, crate::scene_run::policer(p));
            }
            handles.push(handle);
        }
        (tb, handles)
    }

    fn install_data_congram_to(
        &mut self,
        dst: FddiAddr,
        station: usize,
        synchronous: bool,
    ) -> CongramHandle {
        let vci = Vci(self.next_vci);
        self.next_vci += 1;
        let atm_icn = Icn(self.next_icn);
        let fddi_icn = Icn(self.next_icn + 1);
        self.next_icn += 2;
        // ATM data plane: host -> gateway and back, same VCI end to end.
        let (hs, hp) = self.atm.endpoint_attachment(self.atm_host);
        let (gs, gp) = self.atm.endpoint_attachment(self.gw_ep);
        // Host to gateway.
        self.atm.install_vc(hs, hp, vci, vec![(0, vci)]);
        self.atm.install_vc(gs, 0, vci, vec![(gp, vci)]);
        // Gateway to host.
        self.atm.install_vc(gs, gp, vci, vec![(0, vci)]);
        self.atm.install_vc(hs, 0, vci, vec![(hp, vci)]);
        // Gateway tables.
        self.gw.install_congram(vci, atm_icn, fddi_icn, dst, synchronous);
        // Host reassembly for the return direction.
        self.host_reasm.open_vc(vci);
        self.data_vcis.push(vci);
        CongramHandle { vci, atm_icn, fddi_icn, station }
    }

    /// Queue a data frame from the ATM host onto a congram (segmented
    /// into cells, injected from the host endpoint).
    pub fn send_from_atm_host(&mut self, congram: CongramHandle, payload: Vec<u8>) {
        self.send_from_atm_host_at(self.now, congram, payload)
    }

    /// Queue a data frame from the ATM host at a given time.
    pub fn send_from_atm_host_at(&mut self, at: SimTime, congram: CongramHandle, payload: Vec<u8>) {
        self.send_from_atm_host_clp_at(at, congram, payload, false)
    }

    /// Queue a data frame from the ATM host at a given time, optionally
    /// marking every cell CLP (discard-eligible — the first traffic the
    /// gateway sheds under overload, and what a `Tag`-action policer
    /// produces upstream).
    pub fn send_from_atm_host_clp_at(
        &mut self,
        at: SimTime,
        congram: CongramHandle,
        payload: Vec<u8>,
        clp: bool,
    ) {
        let mchip = build_data_frame(congram.atm_icn, &payload).expect("payload fits");
        let mut header = AtmHeader::data(Default::default(), congram.vci);
        header.clp = clp;
        // The host NIC serializes cells at its access-link rate; without
        // this pacing a burst of frames would instantaneously overrun
        // the first switch's output queue.
        let cell_time = gw_sim::time::tx_time(CELL_SIZE, gw_atm::DEFAULT_LINK_RATE);
        let free = self.host_tx_free.entry(congram.vci).or_insert(SimTime::ZERO);
        let start = if at > *free { at } else { *free };
        let mut t = start;
        for cell in segment_cells(&header, &mchip, false).expect("frame fits sequence space") {
            self.atm_outbox.push_back((t, self.atm_host, cell.into_inner()));
            self.outbox_dirty = true;
            t += cell_time;
        }
        *free = t;
    }

    /// Queue a data frame from an FDDI station toward the ATM host on a
    /// congram (FDDI-framed toward the gateway).
    pub fn send_from_fddi_station(
        &mut self,
        station: usize,
        congram: CongramHandle,
        payload: Vec<u8>,
    ) {
        let mchip = build_data_frame(congram.fddi_icn, &payload).expect("payload fits");
        let mut info = fddi::llc_snap_header().to_vec();
        info.extend_from_slice(&mchip);
        let frame = FrameRepr {
            fc: FrameControl::LlcAsync { priority: 0 },
            dst: FddiAddr::station(0), // the gateway
            src: FddiAddr::station(station as u32),
            info,
        }
        .emit()
        .expect("fits FDDI");
        let _ = self.ring.push_async(station, frame);
    }

    /// Open a control channel from the ATM host to the gateway and send
    /// an MCHIP control frame on it (C-bit cells). Returns the VCI.
    pub fn send_control_from_atm_host(&mut self, payload: &ControlPayload) -> Vci {
        let vci = Vci(self.next_vci);
        self.next_vci += 1;
        let (hs, hp) = self.atm.endpoint_attachment(self.atm_host);
        let (gs, gp) = self.atm.endpoint_attachment(self.gw_ep);
        self.atm.install_vc(hs, hp, vci, vec![(0, vci)]);
        self.atm.install_vc(gs, 0, vci, vec![(gp, vci)]);
        self.atm.install_vc(gs, gp, vci, vec![(0, vci)]);
        self.atm.install_vc(hs, 0, vci, vec![(hp, vci)]);
        self.gw.open_control_vc(vci);
        self.host_reasm.open_vc(vci);
        let frame = payload.to_frame(Icn(0));
        let header = AtmHeader::data(Default::default(), vci);
        for cell in segment_cells(&header, &frame, true).expect("control frame fits") {
            self.atm_outbox.push_back((self.now, self.atm_host, cell.into_inner()));
            self.outbox_dirty = true;
        }
        vci
    }

    /// Send an MCHIP control frame from an FDDI station to the gateway.
    pub fn send_control_from_fddi(&mut self, station: usize, payload: &ControlPayload) {
        let frame_bytes = payload.to_frame(Icn(0));
        let mut info = fddi::llc_snap_header().to_vec();
        info.extend_from_slice(&frame_bytes);
        let frame = FrameRepr {
            fc: FrameControl::LlcAsync { priority: 0 },
            dst: FddiAddr::station(0),
            src: FddiAddr::station(station as u32),
            info,
        }
        .emit()
        .expect("fits");
        let _ = self.ring.push_async(station, frame);
    }

    /// Data payloads delivered to an FDDI station so far (drains).
    pub fn fddi_rx(&mut self, station: usize) -> Vec<Vec<u8>> {
        std::mem::take(&mut self.fddi_rx[station])
    }

    /// Control payloads delivered to an FDDI station so far (drains).
    pub fn fddi_control_rx(&mut self, station: usize) -> Vec<ControlPayload> {
        std::mem::take(&mut self.fddi_control_rx[station])
    }

    /// Send one line-side cell toward the gateway's AIC, then release
    /// any cell the fault injector held back for reordering — the held
    /// cell lands directly behind its successor, which is exactly the
    /// adjacent-swap reordering the SAR sequence check must catch.
    /// The seam is flushed to quiescence before returning, so the
    /// gateway has absorbed the cell (and emitted its responses) by the
    /// time the caller proceeds — regardless of the transport carrying
    /// it.
    fn line_send_cell(&mut self, time: SimTime, cell: [u8; CELL_SIZE]) {
        self.cell_line.send_cell(time, &cell).expect("cell seam send");
        if let Some((_, held)) = self.reorder_hold.take() {
            self.cell_line.send_cell(time, &held).expect("cell seam send");
        }
        self.flush_cell_seam(time);
    }

    /// Pump the cell seam until both endpoints are quiescent: cells
    /// arriving gateway-side enter the AIC at their embedded line
    /// timestamps; cells arriving line-side are injected into the ATM
    /// network (unless the link-flap window eats them, exactly as it
    /// would any other traffic on the severed link).
    fn flush_cell_seam(&mut self, now: SimTime) {
        for _ in 0..256 {
            self.cell_gw.pump(now).expect("cell seam pump");
            self.cell_line.pump(now).expect("cell seam pump");
            let mut progress = false;

            let mut buf = std::mem::take(&mut self.cell_scratch);
            self.cell_gw.poll_cells(&mut buf).expect("cell seam poll");
            for (t, cell) in buf.drain(..) {
                progress = true;
                let mut out = std::mem::take(&mut self.gw_out);
                self.gw.deliver_cells(t, std::slice::from_ref(&cell), &mut out);
                self.handle_gateway_outputs(out);
            }

            self.cell_line.poll_cells(&mut buf).expect("cell seam poll");
            for (at, cell) in buf.drain(..) {
                progress = true;
                // The link flap severs both directions: cells the
                // gateway emits while the link is down are lost.
                if self.fault.link_down(at) {
                    continue;
                }
                // The event queue accepts future times directly.
                self.atm.inject_at(self.gw_ep, at, cell);
            }
            self.cell_scratch = buf;

            if !progress && self.cell_gw.in_flight() == 0 && self.cell_line.in_flight() == 0 {
                return;
            }
        }
        panic!("cell seam failed to quiesce in 256 rounds");
    }

    /// Pump the frame seam until both endpoints are quiescent: frames
    /// arriving line-side enter the gateway's ring station queues;
    /// frames arriving gateway-side enter the MPP receive path. Ends
    /// with a cell-seam flush because received frames emit ATM cells.
    fn flush_frame_seam(&mut self, now: SimTime) {
        let mut quiesced = false;
        for _ in 0..256 {
            self.frame_gw.pump(now).expect("frame seam pump");
            self.frame_line.pump(now).expect("frame seam pump");
            let mut progress = false;

            let mut buf = std::mem::take(&mut self.frame_scratch);
            self.frame_line.poll_frames(&mut buf).expect("frame seam poll");
            for (_, frame, sync) in buf.drain(..) {
                progress = true;
                // The slice loop's depth check guarantees room.
                let _ = if sync {
                    self.ring.push_sync(0, frame)
                } else {
                    self.ring.push_async(0, frame)
                };
            }

            self.frame_gw.poll_frames(&mut buf).expect("frame seam poll");
            for (t, frame, _) in buf.drain(..) {
                progress = true;
                let outputs = self.gw.fddi_frame_in(t, &frame);
                self.handle_gateway_outputs(outputs);
            }
            self.frame_scratch = buf;

            if !progress && self.frame_gw.in_flight() == 0 && self.frame_line.in_flight() == 0 {
                quiesced = true;
                break;
            }
        }
        if !quiesced {
            panic!("frame seam failed to quiesce in 256 rounds");
        }
        self.flush_cell_seam(now);
    }

    /// Rewrite a cell's VCI onto the next live foreign data VC in
    /// installation order, restamping the HEC — modeling the header
    /// bit-flip pattern the HEC cannot catch (a misinserted cell,
    /// ITU-T I.356 sense). With no foreign VC to land on the cell
    /// passes through unchanged.
    fn misinsert(&mut self, cell: &mut [u8; CELL_SIZE]) {
        let Ok(view) = Cell::new_checked(&cell[..]) else { return };
        let mut header = view.header();
        let target = match self.data_vcis.iter().position(|v| *v == header.vci) {
            Some(_) if self.data_vcis.len() < 2 => return,
            Some(i) => self.data_vcis[(i + 1) % self.data_vcis.len()],
            None => match self.data_vcis.first() {
                Some(v) => *v,
                None => return,
            },
        };
        header.vci = target;
        let mut view = Cell::new_unchecked(&mut cell[..]);
        let _ = view.set_header(&header);
    }

    fn handle_gateway_outputs(&mut self, mut outputs: Vec<Output>) {
        for o in outputs.drain(..) {
            match o {
                Output::AtmCell { at, cell } => {
                    // Toward the line through the cell phy; the seam
                    // flush injects it into the ATM network (or the
                    // link-flap window eats it there).
                    self.cell_gw.send_cell(at, &cell).expect("cell seam send");
                }
                Output::FddiFrameQueued { .. } => {
                    // Drained from the tx buffer in the slice loop.
                }
                Output::AtmConnectionRequest { at, congram, peak_bps, mean_bps } => {
                    // A signaling request issued into a downed link is
                    // lost like any other traffic — the NPE's setup
                    // watchdog discovers and retries it.
                    if self.fault.link_down(at) {
                        continue;
                    }
                    let conn = self.atm.connect(
                        self.gw_ep,
                        &[self.atm_host],
                        TrafficContract { peak_bps, mean_bps },
                    );
                    self.pending_atm_conns.insert(conn, congram);
                }
                Output::AtmConnectionRelease { vci, .. } => {
                    // The VC is gone network-wide: the host drops its
                    // reassembly state and shaping horizon for it.
                    self.host_reasm.close_vc(vci);
                    self.host_tx_free.remove(&vci);
                }
            }
        }
        // Hand the (now empty) scratch back for the next batch.
        outputs.clear();
        self.gw_out = outputs;
    }

    fn deliver_to_fddi_host(&mut self, station: usize, frame_bytes: &[u8]) {
        let frame = Frame::new_unchecked(frame_bytes);
        let Ok(encap) = fddi::strip_llc_snap(frame.info()) else { return };
        let Ok((header, payload)) = parse_frame(encap) else { return };
        if header.mtype == MchipType::Data {
            self.fddi_rx_octets += payload.len() as u64;
            self.fddi_rx[station].push(payload.to_vec());
        } else if let Ok(ctrl) = ControlPayload::decode(header.mtype, payload) {
            self.fddi_control_rx[station].push(ctrl);
        }
    }

    fn deliver_cell_to_atm_host(&mut self, time: SimTime, cell: [u8; CELL_SIZE]) {
        let Ok(view) = Cell::new_checked(&cell[..]) else { return };
        let vci = view.header().vci;
        if !self.host_reasm.is_open(vci) {
            self.host_reasm.open_vc(vci);
        }
        if let ReassemblyEvent::Complete(frame) = self.host_reasm.push(time, vci, view.payload()) {
            self.host_reasm.release(vci);
            let Ok((header, payload)) = parse_frame(&frame.data) else { return };
            if header.mtype == MchipType::Data {
                self.atm_rx_octets += payload.len() as u64;
                self.atm_host_rx.push(payload.to_vec());
            } else if let Ok(ctrl) = ControlPayload::decode(header.mtype, payload) {
                self.atm_host_control_rx.push(ctrl);
            }
        }
    }

    /// Advance the co-simulation to `until`.
    pub fn run_until(&mut self, until: SimTime) {
        while self.now < until {
            let next = SimTime::from_ns((self.now + SLICE).as_ns().min(until.as_ns()));

            // 1. Inject due scheduled cells into the ATM network. The
            //    outbox stays sorted; only new sends force a re-sort.
            if self.outbox_dirty {
                // Stable sort preserves per-frame cell order among
                // same-timestamp cells (sequenced delivery, §5.2).
                let mut v: Vec<_> = std::mem::take(&mut self.atm_outbox).into();
                v.sort_by_key(|&(t, _, _)| t);
                self.atm_outbox = v.into();
                self.outbox_dirty = false;
            }
            while let Some(&(t, ep, cell)) = self.atm_outbox.front() {
                if t > next {
                    break;
                }
                self.atm.inject_at(ep, t, cell);
                self.atm_outbox.pop_front();
            }

            // 2. Advance the ATM network.
            self.atm.run_until(next);

            // 3. Deliver cells/signals that reached the gateway endpoint.
            while let Some(ev) = self.atm.next_event(self.gw_ep) {
                match ev {
                    EndpointEvent::CellRx { time, mut cell } => {
                        match self.fault.apply(time, &mut cell) {
                            gw_sim::fault::FaultOutcome::Dropped => continue,
                            gw_sim::fault::FaultOutcome::Duplicated { copies, .. } => {
                                // All copies arrive back to back.
                                for _ in 0..copies {
                                    self.line_send_cell(time, cell);
                                }
                            }
                            gw_sim::fault::FaultOutcome::Reordered { .. } => {
                                // Hold the cell back; it is released
                                // right behind its successor. A second
                                // reorder before the first resolves
                                // releases the older hold first, so at
                                // most one cell is ever in flight here.
                                if let Some((_, held)) = self.reorder_hold.take() {
                                    self.line_send_cell(time, held);
                                }
                                self.reorder_hold = Some((time, cell));
                            }
                            gw_sim::fault::FaultOutcome::Misinserted { .. } => {
                                self.misinsert(&mut cell);
                                self.line_send_cell(time, cell);
                            }
                            _ => {
                                self.line_send_cell(time, cell);
                            }
                        }
                    }
                    EndpointEvent::Signal { time, signal } => match signal {
                        SignalIndication::ConnectionUp { conn, tx_vci } => {
                            if let Some(congram) = self.pending_atm_conns.remove(&conn) {
                                let outputs = self.gw.atm_connection_ready(time, congram, tx_vci);
                                self.handle_gateway_outputs(outputs);
                                self.flush_cell_seam(time);
                            }
                        }
                        SignalIndication::Rejected { conn, .. } => {
                            if let Some(congram) = self.pending_atm_conns.remove(&conn) {
                                let outputs = self.gw.atm_connection_failed(time, congram);
                                self.handle_gateway_outputs(outputs);
                                self.flush_cell_seam(time);
                            }
                        }
                        _ => {}
                    },
                }
            }

            // 4. Deliver cells that reached the ATM host.
            while let Some(ev) = self.atm.next_event(self.atm_host) {
                if let EndpointEvent::CellRx { time, cell } = ev {
                    self.deliver_cell_to_atm_host(time, cell);
                }
            }

            // 5. Gateway housekeeping (reassembly timers, NPE scans).
            let mut out = std::mem::take(&mut self.gw_out);
            self.gw.advance_into(next, &mut out);
            self.handle_gateway_outputs(out);
            self.flush_cell_seam(next);

            // 6. Drain the gateway's transmit buffer through the frame
            //    phy into its ring station queue (the SUPERNET
            //    hand-off). One frame at a time, seam flushed after
            //    each, so the depth check below always sees the ring
            //    queue the frame will actually meet.
            // Backpressure per class: stop draining as soon as either
            // ring queue is near capacity, so a popped frame can never
            // meet a full queue and be lost at the seam.
            loop {
                let (sync_q, async_q) = self.ring.queue_depths(0);
                if sync_q >= 60 || async_q >= 4000 {
                    break;
                }
                let Some((frame, sync)) = self.gw.pop_fddi_tx(next) else { break };
                // A copying transport hands the pool buffer back at the
                // send seam; a pass-through transport surfaces it at
                // the far end.
                if let Some(buf) = self.frame_gw.send_frame(next, frame, sync).expect("frame seam")
                {
                    self.gw.recycle_frame(buf);
                }
                self.flush_frame_seam(next);
            }

            // 7. Advance the ring and deliver its frames.
            self.ring.run_until(next);
            for station in 0..self.ring.len() {
                for delivery in self.ring.take_rx(station) {
                    if station == 0 {
                        // Ring traffic addressed to the gateway crosses
                        // the frame seam into the MPP receive path.
                        let sent = self
                            .frame_line
                            .send_frame(delivery.time, delivery.frame, false)
                            .expect("frame seam send");
                        drop(sent);
                        self.flush_frame_seam(next);
                    } else {
                        self.deliver_to_fddi_host(station, &delivery.frame);
                        // Every frame the ring delivers to a host came
                        // out of the gateway's MPP frame pool (stations
                        // only ever address the gateway); hand the
                        // buffer back so the pool census balances once
                        // the ring drains. (Multicast deliveries hand
                        // back one clone per member — harmless to the
                        // pool, but it skews the census, so the chaos
                        // workloads stay unicast.) Under a copying
                        // transport the buffer was already recycled at
                        // the send seam and this delivery is a foreign
                        // copy that must stay out of the pool.
                        if self.line_frames_pooled {
                            self.gw.recycle_frame(delivery.frame);
                        }
                    }
                }
            }

            self.now = next;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn atm_to_fddi_delivery() {
        let mut tb = Testbed::build(TestbedConfig::default());
        let congram = tb.install_data_congram(2);
        tb.send_from_atm_host(congram, b"across two networks".to_vec());
        tb.run_until(SimTime::from_ms(50));
        let rx = tb.fddi_rx(2);
        assert_eq!(rx.len(), 1);
        assert_eq!(rx[0], b"across two networks");
        assert!(tb.fddi_rx(1).is_empty());
    }

    #[test]
    fn fddi_to_atm_delivery() {
        let mut tb = Testbed::build(TestbedConfig::default());
        let congram = tb.install_data_congram(2);
        tb.send_from_fddi_station(2, congram, b"ring to cell".to_vec());
        tb.run_until(SimTime::from_ms(50));
        assert_eq!(tb.atm_host_rx.len(), 1);
        assert_eq!(tb.atm_host_rx[0], b"ring to cell");
    }

    #[test]
    fn bidirectional_bulk() {
        let mut tb = Testbed::build(TestbedConfig::default());
        let c1 = tb.install_data_congram(1);
        let c2 = tb.install_data_congram(3);
        for i in 0..20u8 {
            tb.send_from_atm_host(c1, vec![i; 500]);
            tb.send_from_fddi_station(3, c2, vec![i; 700]);
        }
        tb.run_until(SimTime::from_ms(200));
        assert_eq!(tb.fddi_rx(1).len(), 20);
        assert_eq!(tb.atm_host_rx.len(), 20);
        assert_eq!(tb.fddi_rx_octets, 20 * 500);
        assert_eq!(tb.atm_rx_octets, 20 * 700);
    }

    #[test]
    fn deterministic_end_to_end() {
        let run = || {
            let mut tb = Testbed::build(TestbedConfig::default());
            let c = tb.install_data_congram(2);
            for i in 0..10u8 {
                tb.send_from_atm_host(c, vec![i; 300]);
            }
            tb.run_until(SimTime::from_ms(100));
            (tb.fddi_rx(2), tb.gw.spp().stats())
        };
        let a = run();
        let b = run();
        assert_eq!(a.0, b.0);
        assert_eq!(a.1, b.1);
    }

    #[test]
    fn setup_through_control_path() {
        let mut tb = Testbed::build(TestbedConfig::default());
        tb.gw.npe_mut().add_host([5; 8], FddiAddr::station(2));
        let setup = ControlPayload::SetupRequest {
            congram: CongramId(1),
            kind: gw_mchip::congram::CongramKind::UCon,
            flow: gw_mchip::congram::FlowSpec::cbr(1_000_000),
            dest: [5; 8],
        };
        tb.send_control_from_atm_host(&setup);
        tb.run_until(SimTime::from_ms(100));
        let confirms: Vec<_> = tb
            .atm_host_control_rx
            .iter()
            .filter(|c| matches!(c, ControlPayload::SetupConfirm { .. }))
            .collect();
        assert_eq!(confirms.len(), 1, "{:?}", tb.atm_host_control_rx);
        assert_eq!(tb.gw.npe().stats().setups_confirmed, 1);
    }

    #[test]
    fn atm_cell_loss_discards_frames() {
        let cfg = TestbedConfig { atm_faults: FaultConfig::drops(0.05), ..Default::default() };
        let mut tb = Testbed::build(cfg);
        let c = tb.install_data_congram(1);
        for i in 0..100u8 {
            tb.send_from_atm_host(c, vec![i; 900]); // 21 cells each
        }
        tb.run_until(SimTime::from_ms(500));
        let delivered = tb.fddi_rx(1).len();
        let discarded = tb.gw.spp().reassembly_stats().frames_discarded as usize;
        assert!(delivered < 100, "5% cell loss must kill some 21-cell frames");
        assert!(discarded > 0);
        // Frames are either delivered intact or discarded whole — the
        // SPP never forwards corrupted data (§5.2).
        assert!(delivered + discarded <= 100);
        for f in tb.fddi_rx(1) {
            assert_eq!(f.len(), 900);
        }
    }
}
