//! Co-simulation harness: ATM network ⇄ gateway ⇄ FDDI ring.
//!
//! The three simulations (the BPN cell network, the gateway's
//! cycle-accurate hardware, and the timed-token ring) each keep their
//! own event queue; the testbed advances them in lockstep over small
//! time slices and ferries traffic across the seams. The gateway side
//! of both seams is the port driver `gwd` runs ([`PortDriver`]):
//!
//! * cells delivered to the gateway's ATM endpoint enter the AIC;
//! * cells the gateway emits are injected into the ATM network at the
//!   next slice boundary;
//! * frames the MPP DMAs into the transmit buffer drain into the
//!   gateway's ring station queue while it has room;
//! * frames the ring delivers to the gateway station enter the receive
//!   buffer path.
//!
//! Cross-seam hand-offs are therefore quantized to the slice length
//! ([`SLICE`], 10 µs). Gateway-internal latencies (experiments E3/E4) are
//! measured inside [`gw_gateway`] at full 40 ns resolution; the slice
//! only quantizes network-to-network hand-off times.
//!
//! Within a slice the cell seam is flushed once per batch: every cell
//! that reached the gateway's endpoint is sent across first, then one
//! flush has the driver admit them in arrival order, each at its
//! arrival time, and injects what the gateway emitted. A signal is
//! handled only after a flush, so the gateway sees it after every cell
//! that arrived before it; a connection request reaches the network
//! after the cells earlier calls emitted (`Testbed::drive`). The
//! network therefore sees the same pushes in the same order as with a
//! flush after every cell, but for one corner no scene or seed reaches,
//! a reordered cell's release (DESIGN.md §14, "Seam flushes: one per
//! batch of arrivals").
//!
//! A slice pays for what moves (DESIGN.md §14):
//!
//! * a flush stops on its first round that leaves nothing in flight —
//!   one round on loopback;
//! * cells reach an endpoint without an event each, and a
//!   `run_until` of the network releases those its horizon covers;
//! * the ring's station sweep is skipped when the ring delivered
//!   nothing, and its token skips empty stations' priority scans;
//! * host sends build their MCHIP frame in a reused buffer and cut its
//!   cells straight into the outbox, and a station's frame is framed
//!   in one pass;
//! * a cell crosses from the network's slab to the AIC by reference:
//!   it is written once into the endpoint's FIFO, lent from there
//!   through the fault seam into the cell phy, and admitted from the
//!   driver's buffer where it lies (DESIGN.md §15, "The co-simulation
//!   half").
//!
//! The default topology:
//!
//! ```text
//!  ATM host ── switch 0 ── switch 1 ── GATEWAY ── FDDI ring (station 0)
//!                                                    ├─ station 1
//!                                                    ├─ station 2 …
//! ```

use gw_atm::network::{AtmNetwork, EndpointEvent, EndpointId, LinkParams};
use gw_atm::signaling::{ConnId, SignalIndication, TrafficContract};
use gw_fddi::ring::{Ring, RingConfig};
use gw_gateway::gateway::{Gateway, Output};
use gw_gateway::GatewayConfig;
use gw_mchip::congram::CongramId;
use gw_mchip::messages::ControlPayload;
use gw_mgmt::Port;
use gw_phy::{
    loopback_cell_pair, loopback_frame_pair, udp_cell_pair, udp_frame_pair, CellPhy, FramePhy,
    HandBack, PhyMode, PhyStats, PortDriver,
};
use gw_sar::reassemble::{ReassembledFrame, Reassembler, ReassemblyConfig, ReassemblyEvent};
use gw_sar::segment::sar_fields;
use gw_sim::fault::{FaultConfig, FaultInjector, FaultOutcome};
use gw_sim::rng::SimRng;
use gw_sim::time::SimTime;
use gw_wire::atm::{AtmHeader, Cell, Vci, CELL_SIZE, HEADER_SIZE};
use gw_wire::crc::hec_valid;
use gw_wire::fddi::{self, FddiAddr, Frame, FrameControl};
use gw_wire::mchip::{
    build_frame_into, parse_frame, Icn, MchipHeader, MchipType, MCHIP_HEADER_SIZE,
};
use std::collections::HashMap;

/// Co-simulation slice: the quantum of every cross-seam hand-off.
pub const SLICE: SimTime = SimTime::from_us(10);
/// Ring circumference, km.
const RING_KM: u64 = 10;
/// Synchronous allocation granted to the gateway's station.
const GATEWAY_SYNC_ALLOC: SimTime = SimTime::from_us(500);

/// The ring of `stations` stations as [`Testbed::build`] configures it:
/// 10 km of fibre (`RING_KM`), the gateway at station 0 with 500 µs of
/// synchronous allocation (`GATEWAY_SYNC_ALLOC`) and a deep asynchronous
/// queue.
pub fn ring_config(stations: usize) -> RingConfig {
    let mut ring_cfg = RingConfig::uniform(stations, RING_KM);
    ring_cfg.stations[0].sync_alloc = GATEWAY_SYNC_ALLOC;
    ring_cfg.stations[0].async_queue_frames = 4096;
    ring_cfg
}

/// The MCHIP header of a data frame on `icn` carrying `payload`.
fn data_header(icn: Icn, payload: &[u8]) -> MchipHeader {
    MchipHeader::data(icn, u16::try_from(payload.len()).expect("payload fits"))
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
    /// The gateway side of both ports.
    port: PortDriver,
    /// The network side of the cell port.
    line: CellLine,
    now: SimTime,
    next_vci: u16,
    next_icn: u16,
    /// Cells awaiting injection into the ATM network (scheduled host
    /// sends), time-tagged.
    atm_outbox: std::collections::VecDeque<(SimTime, EndpointId, [u8; CELL_SIZE])>,
    /// True when a send landed behind `atm_outbox`'s tail, which then
    /// needs re-sorting before draining.
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
    /// Octets of data frames delivered to the FDDI stations.
    pub fddi_rx_octets: u64,
    /// Octets delivered to the ATM host.
    pub atm_rx_octets: u64,
    /// Per-VC shaping horizon at the ATM host (cells of one congram
    /// are serialized; congrams contend at the switch like independent
    /// hosts would).
    host_tx_free: HashMap<Vci, SimTime>,
    /// Ring side of the SUPERNET (frame) port seam.
    frame_line: Box<dyn FramePhy>,
    /// True when the line-side frame transport passes the gateway's
    /// pool buffers through by reference (loopback): ring deliveries to
    /// host stations must then be recycled into the MPP pool. A copying
    /// transport (UDP) recycles at the send seam instead, and ring
    /// deliveries are foreign buffers that must NOT enter the pool.
    line_frames_pooled: bool,
    /// Scratch for draining the frame line without per-flush allocation.
    frame_scratch: Vec<(SimTime, Vec<u8>, bool)>,
    /// The MCHIP frame of the ATM host's send in progress, reused.
    mchip_scratch: Vec<u8>,
    /// A scheduled send's payload (`crate::scene_run::play_schedule`),
    /// reused.
    pub(crate) payload_scratch: Vec<u8>,
}

/// The network side of the cell port: its phy, the fault seam between
/// it and the ATM network, the gateway's endpoint there, and the
/// connections the gateway signalled for.
struct CellLine {
    phy: Box<dyn CellPhy>,
    fault: FaultInjector,
    gw_ep: EndpointId,
    /// A cell the fault injector reordered, held back until the next
    /// cell that reaches the seam — or the next reordered one, which
    /// releases it first — and sent right behind it. Nothing else
    /// releases it: a hold still pending when the traffic stops never
    /// reaches the gateway.
    reorder_hold: Option<(SimTime, [u8; CELL_SIZE])>,
    /// Data VCs installed across the testbed, in installation order.
    /// The misinsertion fault rewrites a cell's VCI onto the next live
    /// foreign VC in this list (deterministic target selection).
    data_vcis: Vec<Vci>,
    /// ATM connections the gateway requested, keyed by signaling conn.
    pending_conns: HashMap<ConnId, (CongramId, u32)>,
    /// The connection under each VC the gateway signalled for, released
    /// when the gateway gives the VC up.
    conns: HashMap<Vci, ConnId>,
    /// Scratch for draining the phy without per-flush allocation.
    scratch: Vec<(SimTime, [u8; CELL_SIZE])>,
}

impl CellLine {
    /// Pass a cell that reached the gateway's endpoint through the
    /// fault seam toward the AIC. A fault changes the cell where the
    /// network lent it.
    fn arrive(&mut self, time: SimTime, cell: &mut [u8; CELL_SIZE]) {
        match self.fault.apply(time, cell) {
            FaultOutcome::Dropped => {}
            FaultOutcome::Duplicated { copies, .. } => {
                // All copies arrive back to back.
                for _ in 0..copies {
                    self.send(time, cell);
                }
            }
            FaultOutcome::Reordered { .. } => {
                // Hold the cell back; it is released right behind its
                // successor. A second reorder before the first resolves
                // releases the older hold first, so at most one cell is
                // ever in flight here.
                if let Some((_, held)) = self.reorder_hold.take() {
                    self.send(time, &held);
                }
                self.reorder_hold = Some((time, *cell));
            }
            FaultOutcome::Misinserted { .. } => {
                self.misinsert(cell);
                self.send(time, cell);
            }
            _ => self.send(time, cell),
        }
    }

    /// Rewrite a cell's VCI onto the next live foreign data VC in
    /// installation order, restamping the HEC — modeling the header
    /// bit-flip pattern the HEC cannot catch (a misinserted cell,
    /// ITU-T I.356 sense). With no foreign VC to land on the cell
    /// passes through unchanged.
    fn misinsert(&mut self, cell: &mut [u8; CELL_SIZE]) {
        let Ok(view) = Cell::new_checked(&cell[..]) else { return };
        let mut header = view.header();
        let Some(&first) = self.data_vcis.first() else { return };
        let target = match self.data_vcis.iter().position(|v| *v == header.vci) {
            Some(_) if self.data_vcis.len() < 2 => return,
            Some(i) => self.data_vcis[(i + 1) % self.data_vcis.len()],
            None => first,
        };
        header.vci = target;
        let mut view = Cell::new_unchecked(&mut cell[..]);
        let _ = view.set_header(&header);
    }

    /// Send one line-side cell toward the gateway's AIC, then release
    /// any cell the fault injector held back for reordering — the held
    /// cell lands directly behind its successor, which is exactly the
    /// adjacent-swap reordering the SAR sequence check must catch.
    /// Only sends: the slice loop flushes the seam once, after the
    /// slice's last arrival or before a signal.
    fn send(&mut self, time: SimTime, cell: &[u8; CELL_SIZE]) {
        self.phy.send_cell(time, cell).expect("cell seam send");
        if let Some((_, held)) = self.reorder_hold.take() {
            self.phy.send_cell(time, &held).expect("cell seam send");
        }
    }

    /// Inject every cell waiting on the line into the ATM network
    /// (unless the link-flap window eats it, exactly as it would any
    /// other traffic on the severed link); true if there was any.
    fn inject(&mut self, atm: &mut AtmNetwork) -> bool {
        let mut buf = std::mem::take(&mut self.scratch);
        self.phy.poll_cells(&mut buf).expect("cell seam poll");
        let any = !buf.is_empty();
        for &(at, ref cell) in &buf {
            // The link flap severs both directions: cells the
            // gateway emits while the link is down are lost.
            if !self.fault.link_down(at) {
                // The event queue accepts future times directly.
                atm.inject_at(self.gw_ep, at, *cell);
            }
        }
        buf.clear();
        self.scratch = buf;
        any
    }

    /// Pump the cell seam until everything the gateway sent has reached
    /// the line and been injected. The gateway side is pumped but not
    /// polled: cells still on their way to the AIC wait, in order, for
    /// the flush that called this. Stops on the first round that leaves
    /// nothing unacknowledged (see `Testbed::flush_cell_seam`).
    fn drain(&mut self, port: &mut PortDriver, gw: &mut Gateway, atm: &mut AtmNetwork, t: SimTime) {
        for _ in 0..256 {
            port.pump(gw, t, Port::Atm);
            self.phy.pump(t).expect("cell seam pump");
            self.inject(atm);
            if port.in_flight(Port::Atm) == 0 {
                return;
            }
        }
        panic!("cell seam failed to drain in 256 rounds");
    }
}

/// Offer a cell that reached the ATM host to its reassembly; the frame
/// it completed, if any. The header is read from its word, as the AIC
/// reads it (DESIGN.md §15).
fn host_reassemble(
    reasm: &mut Reassembler,
    time: SimTime,
    cell: &[u8; CELL_SIZE],
) -> Option<ReassembledFrame> {
    if !hec_valid(&cell[..HEADER_SIZE]) {
        return None;
    }
    let [b0, b1, b2, b3, ..] = *cell;
    let vci = AtmHeader::from_word(u32::from_be_bytes([b0, b1, b2, b3])).vci;
    if !reasm.is_open(vci) {
        reasm.open_vc(vci);
    }
    let ReassemblyEvent::Complete(frame) = reasm.push(time, vci, &cell[HEADER_SIZE..]) else {
        return None;
    };
    reasm.release(vci);
    Some(frame)
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
            port: PortDriver::new(cell_gw, frame_gw),
            line: CellLine {
                phy: cell_line,
                fault,
                gw_ep,
                reorder_hold: None,
                data_vcis: Vec::new(),
                pending_conns: HashMap::new(),
                conns: HashMap::new(),
                scratch: Vec::new(),
            },
            now: SimTime::ZERO,
            next_vci: 64,
            next_icn: 1,
            atm_outbox: std::collections::VecDeque::new(),
            outbox_dirty: false,
            host_reasm,
            atm_host_rx: Vec::new(),
            atm_host_control_rx: Vec::new(),
            fddi_rx: vec![Vec::new(); config.fddi_stations],
            fddi_control_rx: vec![Vec::new(); config.fddi_stations],
            fddi_rx_octets: 0,
            atm_rx_octets: 0,
            host_tx_free: HashMap::new(),
            frame_line,
            line_frames_pooled,
            frame_scratch: Vec::new(),
            mchip_scratch: Vec::new(),
            payload_scratch: Vec::new(),
        }
    }

    /// Transport counters summed over all four phy endpoints (loopback
    /// mode counts hand-offs; UDP mode additionally counts retransmits
    /// and injected/absorbed transport faults).
    pub fn transport_stats(&self) -> PhyStats {
        let mut s = self.port.stats();
        s.merge(&self.line.phy.stats());
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
        let vci = self.open_atm_vc();
        let atm_icn = Icn(self.next_icn);
        let fddi_icn = Icn(self.next_icn + 1);
        self.next_icn += 2;
        self.gw.install_congram(vci, atm_icn, fddi_icn, dst, synchronous);
        self.line.data_vcis.push(vci);
        CongramHandle { vci, atm_icn, fddi_icn, station }
    }

    /// Open the next VC between the ATM host and the gateway, both ways
    /// and the same VCI end to end, with host reassembly for the return
    /// direction.
    fn open_atm_vc(&mut self) -> Vci {
        let vci = Vci(self.next_vci);
        self.next_vci += 1;
        let (hs, hp) = self.atm.endpoint_attachment(self.atm_host);
        let (gs, gp) = self.atm.endpoint_attachment(self.line.gw_ep);
        // Host to gateway.
        self.atm.install_vc(hs, hp, vci, vec![(0, vci)]);
        self.atm.install_vc(gs, 0, vci, vec![(gp, vci)]);
        // Gateway to host.
        self.atm.install_vc(gs, gp, vci, vec![(0, vci)]);
        self.atm.install_vc(hs, 0, vci, vec![(hp, vci)]);
        self.host_reasm.open_vc(vci);
        vci
    }

    /// Queue a data frame from the ATM host onto a congram (segmented
    /// into cells, injected from the host endpoint).
    pub fn send_from_atm_host(&mut self, congram: CongramHandle, payload: Vec<u8>) {
        self.send_from_atm_host_at(self.now, congram, payload)
    }

    /// Queue a data frame from the ATM host at a given time.
    pub fn send_from_atm_host_at(&mut self, at: SimTime, congram: CongramHandle, payload: Vec<u8>) {
        self.send_from_atm_host_clp_at(at, congram, &payload, false)
    }

    /// Queue a data frame from the ATM host at a given time, optionally
    /// marking every cell CLP (discard-eligible — the first traffic the
    /// gateway sheds under overload, and what a `Tag`-action policer
    /// produces upstream).
    pub(crate) fn send_from_atm_host_clp_at(
        &mut self,
        at: SimTime,
        congram: CongramHandle,
        payload: &[u8],
        clp: bool,
    ) {
        let mut mchip = std::mem::take(&mut self.mchip_scratch);
        mchip.clear();
        build_frame_into(&data_header(congram.atm_icn, payload), payload, &mut mchip)
            .expect("payload fits");
        let mut header = AtmHeader::data(Default::default(), congram.vci);
        header.clp = clp;
        // The host NIC serializes cells at its access-link rate; without
        // this pacing a burst of frames would instantaneously overrun
        // the first switch's output queue.
        let cell_time = gw_sim::time::tx_time(CELL_SIZE, gw_atm::DEFAULT_LINK_RATE);
        let free = self.host_tx_free.get(&congram.vci).copied().unwrap_or(SimTime::ZERO);
        let end = self.queue_host_cells(at.max(free), cell_time, &header, &mchip, false);
        self.host_tx_free.insert(congram.vci, end);
        self.mchip_scratch = mchip;
    }

    /// Cut `frame` into cells under `header` straight into the ATM
    /// host's outbox, the first at `t` and each next `spacing` later;
    /// returns the time after the last. The cells go in time order, so
    /// the outbox stays sorted unless the first goes behind its tail.
    fn queue_host_cells(
        &mut self,
        mut t: SimTime,
        spacing: SimTime,
        header: &AtmHeader,
        frame: &[u8],
        control: bool,
    ) -> SimTime {
        let mut blank = [0u8; CELL_SIZE];
        header.emit(&mut blank).expect("valid header");
        self.outbox_dirty |= self.atm_outbox.back().is_some_and(|&(last, _, _)| t < last);
        for field in sar_fields(frame, control).expect("frame fits sequence space") {
            let mut cell = blank;
            cell[HEADER_SIZE..].copy_from_slice(field.as_bytes());
            self.atm_outbox.push_back((t, self.atm_host, cell));
            t += spacing;
        }
        t
    }

    /// Put the outbox in time order, if a send left it out of it. The
    /// sort is stable: cells of one timestamp keep their send order
    /// (sequenced delivery, §5.2).
    fn sort_outbox(&mut self) {
        if std::mem::take(&mut self.outbox_dirty) {
            self.atm_outbox.make_contiguous().sort_by_key(|&(t, _, _)| t);
        }
    }

    /// Queue a data frame from an FDDI station toward the ATM host on a
    /// congram (FDDI-framed toward the gateway).
    pub fn send_from_fddi_station(
        &mut self,
        station: usize,
        congram: CongramHandle,
        payload: Vec<u8>,
    ) {
        self.send_data_to_gateway(station, congram, &payload);
    }

    /// Queue a data frame on `congram` from an FDDI station to the
    /// gateway, framed in one pass from its MCHIP header and `payload`.
    pub(crate) fn send_data_to_gateway(
        &mut self,
        station: usize,
        congram: CongramHandle,
        payload: &[u8],
    ) {
        let mut mchip_header = [0u8; MCHIP_HEADER_SIZE];
        data_header(congram.fddi_icn, payload).emit(&mut mchip_header).expect("header fits");
        self.send_to_gateway(station, [&mchip_header, payload]);
    }

    /// Open a control channel from the ATM host to the gateway and send
    /// an MCHIP control frame on it (C-bit cells). Returns the VCI.
    pub fn send_control_from_atm_host(&mut self, payload: &ControlPayload) -> Vci {
        let vci = self.open_atm_vc();
        self.gw.open_control_vc(vci);
        let frame = payload.to_frame(Icn(0));
        let header = AtmHeader::data(Default::default(), vci);
        self.queue_host_cells(self.now, SimTime::ZERO, &header, &frame, true);
        vci
    }

    /// Send an MCHIP control frame from an FDDI station to the gateway.
    pub fn send_control_from_fddi(&mut self, station: usize, payload: &ControlPayload) {
        self.send_to_gateway(station, [&payload.to_frame(Icn(0)), &[]]);
    }

    /// Queue on the ring, from `station` to the gateway, the MCHIP frame
    /// made of the two parts of `mchip`, framed in one emit.
    fn send_to_gateway(&mut self, station: usize, [first, second]: [&[u8]; 2]) {
        let mut frame = Vec::new();
        fddi::emit_frame_into(
            FrameControl::LlcAsync { priority: 0 },
            FddiAddr::station(0),
            FddiAddr::station(station as u32),
            &[&fddi::llc_snap_header(), first, second],
            &mut frame,
        )
        .expect("fits FDDI");
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

    /// Run one driver call with the testbed's [`HandBack`]. A
    /// connection request or release goes into `gw-atm` signalling once
    /// the line has taken every cell earlier calls emitted, so the
    /// network sees, call by call, earlier cells, then the signal, then
    /// this call's cells. A release also frees the VC's host state.
    fn drive<R>(
        &mut self,
        now: SimTime,
        op: impl FnOnce(&mut PortDriver, &mut Gateway, &mut HandBack<'_>) -> R,
    ) -> R {
        let Testbed { port, gw, atm, line, atm_host, host_reasm, host_tx_free, .. } = self;
        op(port, gw, &mut |port, gw, o| {
            line.drain(port, gw, atm, now);
            match o {
                // A signaling request issued into a downed link is lost
                // like any other traffic — the NPE's setup watchdog
                // discovers and retries it.
                Output::AtmConnectionRequest { at, congram, attempt, peak_bps, mean_bps }
                    if !line.fault.link_down(at) =>
                {
                    let contract = TrafficContract { peak_bps, mean_bps };
                    let conn = atm.connect(at, line.gw_ep, &[*atm_host], contract);
                    line.pending_conns.insert(conn, (congram, attempt));
                }
                Output::AtmConnectionRelease { vci, .. } => {
                    if let Some(conn) = line.conns.remove(&vci) {
                        atm.release(conn);
                    }
                    host_reasm.close_vc(vci);
                    host_tx_free.remove(&vci);
                }
                _ => {}
            }
        })
    }

    /// Pump the cell seam until both ends are quiescent: the driver
    /// admits what reaches the gateway side, and what reaches the line
    /// side is injected into the ATM network.
    ///
    /// One round is enough once nothing is in flight after it. Within a
    /// round each end pumps before it polls, so a datagram its peer has
    /// acknowledged was also polled; and nothing sends toward the
    /// gateway during a flush, while what the gateway sends counts as in
    /// flight until the line has acknowledged it. Loopback delivers at
    /// once and never has anything in flight, so its flush is one round.
    fn flush_cell_seam(&mut self, now: SimTime) {
        for _ in 0..256 {
            self.port.pump(&mut self.gw, now, Port::Atm);
            self.line.phy.pump(now).expect("cell seam pump");
            self.drive(now, |port, gw, back| port.admit_cells(gw, now, back));
            self.line.inject(&mut self.atm);
            if self.port.in_flight(Port::Atm) + self.line.phy.in_flight() == 0 {
                return;
            }
        }
        panic!("cell seam failed to quiesce in 256 rounds");
    }

    /// Pump the frame seam until both ends are quiescent: frames
    /// arriving line-side enter the gateway's ring station queues, and
    /// the driver admits frames arriving gateway-side. Stops on the
    /// first round that leaves nothing in flight, as the cell seam's
    /// flush does, and ends with a cell-seam flush because received
    /// frames emit ATM cells.
    fn flush_frame_seam(&mut self, now: SimTime) {
        for _ in 0..256 {
            self.port.pump(&mut self.gw, now, Port::Fddi);
            self.frame_line.pump(now).expect("frame seam pump");
            let mut buf = std::mem::take(&mut self.frame_scratch);
            self.frame_line.poll_frames(&mut buf).expect("frame seam poll");
            for (_, frame, sync) in buf.drain(..) {
                // The slice loop's depth check guarantees room.
                let push = if sync { Ring::push_sync } else { Ring::push_async };
                let _ = push(&mut self.ring, 0, frame);
            }
            self.frame_scratch = buf;
            self.drive(now, |port, gw, back| port.admit_frames(gw, now, back));
            if self.port.in_flight(Port::Fddi) + self.frame_line.in_flight() == 0 {
                return self.flush_cell_seam(now);
            }
        }
        panic!("frame seam failed to quiesce in 256 rounds");
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

    /// Take in an MCHIP frame the ATM host reassembled.
    fn deliver_frame_to_atm_host(&mut self, frame: &[u8]) {
        let Ok((header, payload)) = parse_frame(frame) else { return };
        if header.mtype == MchipType::Data {
            self.atm_rx_octets += payload.len() as u64;
            self.atm_host_rx.push(payload.to_vec());
        } else if let Ok(ctrl) = ControlPayload::decode(header.mtype, payload) {
            self.atm_host_control_rx.push(ctrl);
        }
    }

    /// Advance the co-simulation to `until`.
    pub fn run_until(&mut self, until: SimTime) {
        while self.now < until {
            let next = SimTime::from_ns((self.now + SLICE).as_ns().min(until.as_ns()));

            // 1. Inject due scheduled cells into the ATM network. The
            //    outbox stays sorted; only a send behind its tail forces
            //    a re-sort.
            self.sort_outbox();
            while let Some(&(t, ep, ref cell)) = self.atm_outbox.front() {
                if t > next {
                    break;
                }
                self.atm.inject_at(ep, t, *cell);
                self.atm_outbox.pop_front();
            }

            // 2. Advance the ATM network.
            self.atm.run_until(next);

            // 3. Deliver cells/signals that reached the gateway endpoint.
            //    Cells cross the seam in arrival order, and the seam is
            //    flushed once: after the last of them, or before a
            //    signal, which the gateway must see after every cell
            //    that reached it first.
            let mut arrivals = false;
            while let Some(ev) = self.atm.next_event(self.line.gw_ep) {
                match ev {
                    EndpointEvent::CellRx { time, cell } => {
                        arrivals = true;
                        self.line.arrive(time, cell);
                    }
                    EndpointEvent::Signal { time, signal } => {
                        let (conn, up) = match signal {
                            SignalIndication::ConnectionUp { conn, tx_vci } => (conn, Some(tx_vci)),
                            SignalIndication::Rejected { conn, .. } => (conn, None),
                            _ => continue,
                        };
                        let Some((congram, attempt)) = self.line.pending_conns.remove(&conn) else {
                            continue;
                        };
                        let answer = |gw: &mut Gateway, out: &mut Vec<Output>| match up {
                            Some(vci) => gw.atm_connection_ready(time, congram, attempt, vci, out),
                            None => gw.atm_connection_failed(time, congram, attempt, out),
                        };
                        if let Some(vci) = up {
                            self.line.conns.insert(vci, conn);
                        }
                        self.flush_cell_seam(time);
                        self.drive(time, |port, gw, back| port.call(gw, time, answer, back));
                        self.flush_cell_seam(time);
                    }
                }
            }
            if arrivals {
                self.flush_cell_seam(next);
            }

            // 4. Deliver cells that reached the ATM host.
            while let Some(ev) = self.atm.next_event(self.atm_host) {
                let EndpointEvent::CellRx { time, cell } = ev else { continue };
                if let Some(frame) = host_reassemble(&mut self.host_reasm, time, cell) {
                    self.deliver_frame_to_atm_host(&frame.data);
                }
            }

            // 5. Gateway housekeeping (reassembly timers, NPE scans).
            //    Most slices emit nothing, and with nothing in flight
            //    either there is nothing to flush.
            let emitted = self.drive(next, |port, gw, back| port.advance(gw, next, back));
            if emitted || self.port.in_flight(Port::Atm) != 0 || self.line.phy.in_flight() != 0 {
                self.flush_cell_seam(next);
            }

            // 6. Drain the gateway's transmit buffer through the frame
            //    phy into its ring station queue (the SUPERNET
            //    hand-off). One frame at a time, seam flushed after
            //    each, so the depth check below always sees the ring
            //    queue the frame will actually meet. Backpressure per
            //    class: stop as soon as either ring queue is near
            //    capacity, so a sent frame can never meet a full queue
            //    and be lost at the seam.
            loop {
                let (sync_q, async_q) = self.ring.queue_depths(0);
                if sync_q >= 60 || async_q >= 4000 || !self.port.send_frame(&mut self.gw, next) {
                    break;
                }
                self.flush_frame_seam(next);
            }

            // 7. Advance the ring and deliver its frames, if it
            //    delivered any.
            self.ring.run_until(next);
            for station in 0..self.ring.len() {
                if self.ring.rx_pending() == 0 {
                    break;
                }
                for delivery in self.ring.take_rx(station) {
                    if station == 0 {
                        // Ring traffic addressed to the gateway crosses
                        // the frame seam into the MPP receive path.
                        let line = &mut self.frame_line;
                        line.send_frame(delivery.time, delivery.frame, false).expect("frame seam");
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

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        /// Host sends interleaved across VCs, at times before, at and
        /// after the outbox's tail, with slices draining it between
        /// them, inject in the order a full stable sort of everything
        /// sent gives: skipping the sort while the sends stay in order
        /// changes nothing.
        #[test]
        fn host_sends_inject_in_the_order_a_full_stable_sort_gives(
            sends in proptest::collection::vec((0usize..4, 0u64..400, 1usize..300, 0u8..4), 1..40),
        ) {
            let mut tb = Testbed::build(TestbedConfig::default());
            let congrams: Vec<_> = (0..4).map(|s| tb.install_data_congram(1 + s % 3)).collect();
            let horizons = (1..).map(|k| SimTime::from_us(50 * k));
            // What each send queued, and whether a slice drained after it.
            let mut sent = Vec::new();
            let mut injected = Vec::new();
            let mut slices = horizons.clone();
            for (i, &(vc, at_us, len, drain)) in sends.iter().enumerate() {
                let before = tb.atm_outbox.len();
                let at = SimTime::from_us(at_us);
                tb.send_from_atm_host_clp_at(at, congrams[vc], &vec![i as u8; len], false);
                let cells: Vec<_> = tb.atm_outbox.range(before..).map(|&(t, _, c)| (t, c)).collect();
                sent.push((cells, drain == 0));
                if drain == 0 {
                    // A slice: sort if needed, inject what is due.
                    let horizon = slices.next().unwrap();
                    tb.sort_outbox();
                    while tb.atm_outbox.front().is_some_and(|&(t, ..)| t <= horizon) {
                        let (t, _, cell) = tb.atm_outbox.pop_front().unwrap();
                        injected.push((t, cell));
                    }
                }
            }
            tb.sort_outbox();
            injected.extend(tb.atm_outbox.drain(..).map(|(t, _, cell)| (t, cell)));
            // The reference: the same slices drain a list of everything
            // sent, stable-sorted in full every time.
            let mut reference = Vec::new();
            let mut pending = Vec::new();
            let mut slices = horizons;
            for (cells, drained) in sent {
                pending.extend(cells);
                if drained {
                    let horizon = slices.next().unwrap();
                    pending.sort_by_key(|&(t, _)| t);
                    let due = pending.partition_point(|&(t, _)| t <= horizon);
                    reference.extend(pending.drain(..due));
                }
            }
            pending.sort_by_key(|&(t, _)| t);
            reference.extend(pending);
            proptest::prop_assert_eq!(injected, reference);
        }
    }

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

    /// The reorder hold's whole rule: a held cell leaves only behind the
    /// next cell that reaches the seam. With every cell reordered, each
    /// one releases the one before it, and the last stays held however
    /// long the run goes on.
    #[test]
    fn a_reordered_cell_leaves_only_behind_the_next_cell_on_the_seam() {
        let faults = FaultConfig::builder().reordering(1.0).build();
        let mut tb = Testbed::build(TestbedConfig { atm_faults: faults, ..Default::default() });
        let c = tb.install_data_congram(2);
        let cells_in = |tb: &Testbed| tb.gw.aic().stats().cells_in;

        tb.send_from_atm_host(c, vec![7; 200]); // 5 cells
        tb.run_until(SimTime::from_ms(10));
        assert_eq!(cells_in(&tb), 4, "the last cell is still held");
        assert!(tb.line.reorder_hold.is_some());
        tb.run_until(SimTime::from_secs(1));
        assert_eq!(cells_in(&tb), 4, "time alone releases nothing");
        assert!(tb.fddi_rx(2).is_empty());

        tb.send_from_atm_host(c, vec![8; 200]);
        tb.run_until(SimTime::from_ms(1_010));
        assert_eq!(cells_in(&tb), 9, "the next cell released it; the new last cell is held");
        assert!(tb.line.reorder_hold.is_some());
    }

    /// The seam flushes stop on the first round that leaves nothing in
    /// flight. Over UDP, with datagrams dropped, duplicated and cut
    /// short, that round still comes only once every cell and frame has
    /// crossed: each slice ends with both seams acknowledged, and the
    /// run delivers what loopback delivers.
    #[test]
    fn one_round_seam_flushes_settle_over_udp() {
        use gw_phy::TransportFaultConfig;
        let run = |phy| {
            let mut tb = Testbed::build(TestbedConfig { phy, ..Default::default() });
            let (up, down) = (tb.install_data_congram(1), tb.install_data_congram(3));
            for i in 0..10u8 {
                tb.send_from_atm_host(up, vec![i; 900]);
                tb.send_from_fddi_station(3, down, vec![i; 1200]);
            }
            let mut t = SimTime::ZERO;
            while t < SimTime::from_ms(30) {
                t += SLICE;
                tb.run_until(t);
                let cells = tb.port.in_flight(Port::Atm) + tb.line.phy.in_flight();
                let frames = tb.port.in_flight(Port::Fddi) + tb.frame_line.in_flight();
                assert_eq!((cells, frames), (0, 0), "in flight at {t:?}");
            }
            let delivered = (tb.fddi_rx(1), std::mem::take(&mut tb.atm_host_rx));
            (delivered, tb.gw.spp().stats(), tb.transport_stats())
        };
        let (looped, looped_spp, _) = run(PhyMode::Loopback);
        let faults = TransportFaultConfig { drop: 0.05, duplicate: 0.05, truncate: 0.03, seed: 7 };
        let (udp, udp_spp, transport) = run(PhyMode::Udp { faults });
        assert_eq!((looped.0.len(), looped.1.len()), (10, 10));
        assert_eq!((udp, udp_spp), (looped, looped_spp));
        assert!(transport.retransmits > 0, "the faults were met: {transport:?}");
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
