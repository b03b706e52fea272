//! The appliance core: one gateway between two supervised phy ports.
//!
//! This is the engine behind `gwd`, factored out of the binary so the
//! e2e tests can drive it with loopback or UDP phys and no signals:
//!
//! * [`Appliance::step`] is one tick — pump both transports (entering
//!   backoff/reconnect through the [`TransportSupervisor`]s on I/O
//!   errors), admit arrived traffic, run the gateway's timers, drain
//!   the transmit buffer toward the frame port, and flush the cell
//!   port so everything the tick emitted has left when it returns;
//! * [`Appliance::apply_config`] installs congrams *additively* — a
//!   live reload never tears down an existing congram, so in-flight
//!   frames (partial reassemblies, staged transmissions) survive;
//! * [`Appliance::drain`] is the graceful shutdown: stop admitting,
//!   keep timers and transports moving until
//!   [`gw_gateway::gateway::Residue`] is clean and nothing is left on
//!   the wire, then report the conservation audit (C1–C7).
//!
//! Transport state feeds the mgmt port-health machine: an I/O error
//! moves the port to `Reconnecting`, every backoff attempt bumps its
//! retry counter, and recovery re-enters through `Degraded` — all
//! visible in `gw-snapshot/1`.

use crate::supervisor::{TransportEvent, TransportSupervisor};
use crate::{CellPhy, FramePhy, PhyStats};
use gw_gateway::gateway::{Output, Residue};
use gw_gateway::{Gateway, GatewayConfig, SupervisorConfig};
use gw_mgmt::Port;
use gw_sim::time::SimTime;
use gw_wire::atm::{Vci, CELL_SIZE};
use gw_wire::fddi::FddiAddr;
use gw_wire::mchip::Icn;

/// One congram the appliance should serve.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CongramSpec {
    /// ATM-side VC.
    pub vci: u16,
    /// ICN on the ATM interface.
    pub atm_icn: u16,
    /// ICN on the FDDI interface.
    pub fddi_icn: u16,
    /// Destination FDDI station.
    pub station: u32,
    /// Ring service class.
    pub synchronous: bool,
}

/// Appliance configuration (the reloadable part).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ApplianceConfig {
    /// Congrams to serve.
    pub congrams: Vec<CongramSpec>,
}

impl ApplianceConfig {
    /// Parse the `gwd` config format: one directive per line,
    /// `congram <vci> <atm_icn> <fddi_icn> <station> <sync|async>`,
    /// with `#` comments and blank lines ignored.
    pub fn parse(text: &str) -> Result<ApplianceConfig, String> {
        let mut congrams = Vec::new();
        for (lineno, raw) in text.lines().enumerate() {
            let line = raw.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            let err = |what: &str| format!("line {}: {what}: {raw:?}", lineno + 1);
            let mut parts = line.split_whitespace();
            match parts.next() {
                Some("congram") => {
                    let mut num = |name: &str| -> Result<u64, String> {
                        parts
                            .next()
                            .ok_or_else(|| err(&format!("missing {name}")))?
                            .parse::<u64>()
                            .map_err(|_| err(&format!("bad {name}")))
                    };
                    let vci = num("vci")?;
                    let atm_icn = num("atm_icn")?;
                    let fddi_icn = num("fddi_icn")?;
                    let station = num("station")?;
                    let synchronous = match parts.next() {
                        Some("sync") => true,
                        Some("async") => false,
                        _ => return Err(err("class must be sync|async")),
                    };
                    if parts.next().is_some() {
                        return Err(err("trailing tokens"));
                    }
                    congrams.push(CongramSpec {
                        vci: u16::try_from(vci).map_err(|_| err("vci out of range"))?,
                        atm_icn: u16::try_from(atm_icn).map_err(|_| err("atm_icn out of range"))?,
                        fddi_icn: u16::try_from(fddi_icn)
                            .map_err(|_| err("fddi_icn out of range"))?,
                        station: u32::try_from(station).map_err(|_| err("station out of range"))?,
                        synchronous,
                    });
                }
                Some(other) => return Err(err(&format!("unknown directive {other:?}"))),
                None => {}
            }
        }
        Ok(ApplianceConfig { congrams })
    }
}

/// Outcome of a graceful drain.
#[derive(Debug, Clone)]
pub struct DrainReport {
    /// Gateway time when the drain loop stopped.
    pub end: SimTime,
    /// What the gateway still holds (all zero on success).
    pub residue: Residue,
    /// Conservation-equation violations (empty on success).
    pub violations: Vec<String>,
    /// Transmissions still unacknowledged (or held back unsent) on the
    /// two transports.
    pub in_flight: usize,
}

impl DrainReport {
    /// True when the drain reached full quiescence with the books
    /// balanced: zero residue, C1–C7 hold, nothing left on the wire.
    pub fn clean(&self) -> bool {
        self.residue.is_clean() && self.violations.is_empty() && self.in_flight == 0
    }
}

/// The gateway plus its two supervised ports.
pub struct Appliance {
    gw: Gateway,
    cell: Box<dyn CellPhy>,
    frame: Box<dyn FramePhy>,
    atm_sup: TransportSupervisor,
    fddi_sup: TransportSupervisor,
    installed: Vec<CongramSpec>,
    draining: bool,
    cell_buf: Vec<(SimTime, [u8; CELL_SIZE])>,
    cells: Vec<[u8; CELL_SIZE]>,
    frame_buf: Vec<(SimTime, Vec<u8>, bool)>,
    out: Vec<Output>,
}

impl Appliance {
    /// Assemble the appliance. The management plane is forced on —
    /// appliance mode without port health and counters would be
    /// unobservable — and both port supervisors use the gateway's
    /// setup backoff policy, [`SupervisorConfig::default`].
    pub fn new(
        mut config: GatewayConfig,
        fddi_capacity_bps: u64,
        cell: Box<dyn CellPhy>,
        frame: Box<dyn FramePhy>,
    ) -> Appliance {
        if config.management.is_none() {
            config.management = Some(gw_mgmt::MgmtConfig);
        }
        let policy = SupervisorConfig::default();
        let gw = Gateway::new(config, FddiAddr::station(0), fddi_capacity_bps);
        Appliance {
            gw,
            cell,
            frame,
            atm_sup: TransportSupervisor::new(policy),
            fddi_sup: TransportSupervisor::new(policy),
            installed: Vec::new(),
            draining: false,
            cell_buf: Vec::new(),
            cells: Vec::new(),
            frame_buf: Vec::new(),
            out: Vec::new(),
        }
    }

    /// The gateway under the hood (snapshots, stats, residue).
    pub fn gateway(&self) -> &Gateway {
        &self.gw
    }

    /// Mutable gateway access (snapshots take `&mut`).
    pub fn gateway_mut(&mut self) -> &mut Gateway {
        &mut self.gw
    }

    /// Congrams currently installed, in installation order.
    pub fn congrams(&self) -> &[CongramSpec] {
        &self.installed
    }

    /// True once a drain has begun (no new traffic is admitted).
    pub fn is_draining(&self) -> bool {
        self.draining
    }

    /// Transport counters summed over both ports.
    pub fn transport_stats(&self) -> PhyStats {
        let mut s = self.cell.stats();
        s.merge(&self.frame.stats());
        s
    }

    /// Install every congram in `config` that is not already live.
    /// Additive by design: reload never tears down an existing congram,
    /// so partial reassemblies and staged frames are untouched.
    /// Returns how many congrams were newly installed.
    pub fn apply_config(&mut self, config: &ApplianceConfig) -> usize {
        let mut added = 0;
        for spec in &config.congrams {
            if self.installed.iter().any(|s| s.vci == spec.vci) {
                continue;
            }
            self.gw.install_congram(
                Vci(spec.vci),
                Icn(spec.atm_icn),
                Icn(spec.fddi_icn),
                FddiAddr::station(spec.station),
                spec.synchronous,
            );
            self.installed.push(*spec);
            added += 1;
        }
        added
    }

    fn pump_port(&mut self, now: SimTime, port: Port) {
        let up = match port {
            Port::Atm => self.atm_sup.is_up(),
            Port::Fddi => self.fddi_sup.is_up(),
        };
        if up {
            let res = match port {
                Port::Atm => self.cell.pump(now),
                Port::Fddi => self.frame.pump(now),
            };
            if res.is_err() {
                match port {
                    Port::Atm => self.atm_sup.error(now),
                    Port::Fddi => self.fddi_sup.error(now),
                };
                self.gw.note_transport_down(now, port);
            }
            return;
        }
        let due = match port {
            Port::Atm => self.atm_sup.poll(now),
            Port::Fddi => self.fddi_sup.poll(now),
        };
        if let Some(TransportEvent::Retry { .. }) = due {
            self.gw.note_transport_retry(now, port);
            let res = match port {
                Port::Atm => self.cell.reconnect().and_then(|()| self.cell.pump(now)),
                Port::Fddi => self.frame.reconnect().and_then(|()| self.frame.pump(now)),
            };
            if res.is_ok() {
                match port {
                    Port::Atm => self.atm_sup.recovered(),
                    Port::Fddi => self.fddi_sup.recovered(),
                }
                self.gw.note_transport_up(now, port);
            }
        }
    }

    fn route_outputs(&mut self, now: SimTime) {
        let mut out = std::mem::take(&mut self.out);
        for o in out.drain(..) {
            match o {
                Output::AtmCell { at, cell } => {
                    // A cell emitted into a downed port is lost exactly
                    // like traffic into a severed link — the ARQ only
                    // protects what reaches the transport.
                    if self.atm_sup.is_up() && self.cell.send_cell(at, &cell).is_err() {
                        self.atm_sup.error(now);
                        self.gw.note_transport_down(now, Port::Atm);
                    }
                }
                Output::FddiFrameQueued { .. } => {
                    // Drained from the tx buffer below.
                }
                // The appliance has no signaling fabric to issue
                // connection requests into; congrams are installed via
                // config. Dynamic setups would need a control peer.
                Output::AtmConnectionRequest { .. } | Output::AtmConnectionRelease { .. } => {}
            }
        }
        self.out = out;
    }

    /// One appliance tick at gateway time `now`.
    pub fn step(&mut self, now: SimTime) {
        self.pump_port(now, Port::Atm);
        self.pump_port(now, Port::Fddi);

        // Admit arrived traffic — unless draining (shutdown stops
        // admitting; peers see backpressure through unacked datagrams).
        if !self.draining {
            if self.atm_sup.is_up() {
                self.cell_buf.clear();
                if self.cell.poll_cells(&mut self.cell_buf).is_err() {
                    self.atm_sup.error(now);
                    self.gw.note_transport_down(now, Port::Atm);
                }
                // Whatever line time they were stamped with, they all
                // enter the gateway at this tick: one batch.
                self.cells.clear();
                self.cells.extend(self.cell_buf.iter().map(|(_, cell)| *cell));
                self.gw.deliver_cells(now, &self.cells, &mut self.out);
                self.route_outputs(now);
            }
            if self.fddi_sup.is_up() {
                self.frame_buf.clear();
                if self.frame.poll_frames(&mut self.frame_buf).is_err() {
                    self.fddi_sup.error(now);
                    self.gw.note_transport_down(now, Port::Fddi);
                }
                let frames = std::mem::take(&mut self.frame_buf);
                for (_, frame, _) in &frames {
                    self.out = self.gw.fddi_frame_in(now, frame);
                    self.route_outputs(now);
                }
                self.frame_buf = frames;
            }
        }

        // Timers: reassembly deadlines, NPE scans, liveness, health.
        let mut out = std::mem::take(&mut self.out);
        out.clear();
        self.gw.advance_into(now, &mut out);
        self.out = out;
        self.route_outputs(now);

        // Drain staged transmissions toward the frame port. A downed
        // port leaves frames staged; the tx buffer's own shedding and
        // overflow accounting applies, as it would against a stalled
        // ring.
        while self.fddi_sup.is_up() {
            let Some((frame, sync)) = self.gw.pop_fddi_tx(now) else { break };
            match self.frame.send_frame(now, frame, sync) {
                Ok(Some(buf)) => self.gw.recycle_frame(buf),
                Ok(None) => {}
                Err(_) => {
                    self.fddi_sup.error(now);
                    self.gw.note_transport_down(now, Port::Fddi);
                    break;
                }
            }
        }

        // What this tick emitted toward the ATM port leaves with it, not
        // with the next tick's pump.
        if self.atm_sup.is_up() && self.cell.flush().is_err() {
            self.atm_sup.error(now);
            self.gw.note_transport_down(now, Port::Atm);
        }
    }

    /// Stop admitting new traffic; subsequent [`Appliance::step`]s only
    /// run timers and flush outbound state.
    pub fn begin_drain(&mut self) {
        self.draining = true;
    }

    /// True when nothing is held anywhere: gateway residue clean, no
    /// staged transmissions, nothing unacknowledged on the transports.
    pub fn is_quiescent(&self) -> bool {
        self.gw.residue().is_clean()
            && self.gw.fddi_tx_pending() == 0
            && self.cell.in_flight() == 0
            && self.frame.in_flight() == 0
    }

    /// Graceful drain: stop admitting, then step timers forward from
    /// `now` (following the gateway's own deadlines, at most 1 ms per
    /// step) until quiescent or `budget` is exhausted. The report
    /// carries the residue and conservation audit either way.
    pub fn drain(&mut self, now: SimTime, budget: SimTime) -> DrainReport {
        self.begin_drain();
        let deadline = now + budget;
        let max_step = SimTime::from_ms(1);
        let mut t = now;
        loop {
            self.step(t);
            if self.is_quiescent() || t >= deadline {
                break;
            }
            let mut next = t + max_step;
            if let Some(d) = self.gw.next_deadline() {
                if d > t && d < next {
                    next = d.ceil_to_cycle();
                }
            }
            t = SimTime::from_ns(next.as_ns().min(deadline.as_ns()));
        }
        DrainReport {
            end: t,
            residue: self.gw.residue(),
            violations: self.gw.check_conservation(),
            in_flight: self.cell.in_flight() + self.frame.in_flight(),
        }
    }
}
