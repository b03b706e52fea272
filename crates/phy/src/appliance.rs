//! The appliance core: one gateway between two supervised phy ports.
//!
//! This is the engine behind `gwd`, factored out of the binary so the
//! e2e tests can drive it with loopback or UDP phys and no signals:
//!
//! * [`Appliance::step`] is one tick of the [`PortDriver`] — pump both
//!   transports, admit arrived traffic, run the gateway's timers, drain
//!   the transmit buffer toward the frame port, and flush the cell port
//!   so everything the tick emitted has left when it returns;
//! * [`Appliance::apply_config`] installs congrams *additively* — a
//!   live reload never tears down an existing congram, so in-flight
//!   frames (partial reassemblies, staged transmissions) survive;
//! * [`Appliance::drain`] is the graceful shutdown: stop admitting,
//!   keep timers and transports moving until
//!   [`gw_gateway::gateway::Residue`] is clean and nothing is left on
//!   the wire, then report the conservation audit (C1–C7).

use crate::driver::PortDriver;
use crate::{CellPhy, FramePhy, PhyStats};
use gw_gateway::config::MAX_CONGRAMS;
use gw_gateway::gateway::Residue;
use gw_gateway::{Gateway, GatewayConfig};
use gw_mgmt::Port;
use gw_sim::time::SimTime;
use gw_wire::atm::Vci;
use gw_wire::fddi::FddiAddr;
use gw_wire::mchip::Icn;
use std::collections::HashSet;

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

/// The VCIs and ICNs a set of congrams holds, so a clash with any of
/// them is found in O(1) per congram rather than by rescanning.
#[derive(Debug, Default)]
struct Held {
    vcis: HashSet<u16>,
    atm_icns: HashSet<u16>,
    fddi_icns: HashSet<u16>,
}

impl Held {
    /// The first of `spec`'s VCI, ATM ICN and FDDI ICN already held.
    fn clash(&self, spec: &CongramSpec) -> Option<&'static str> {
        if self.vcis.contains(&spec.vci) {
            Some("vci")
        } else if self.atm_icns.contains(&spec.atm_icn) {
            Some("atm_icn")
        } else if self.fddi_icns.contains(&spec.fddi_icn) {
            Some("fddi_icn")
        } else {
            None
        }
    }

    /// Hold `spec`'s VCI and ICNs.
    fn hold(&mut self, spec: &CongramSpec) {
        self.vcis.insert(spec.vci);
        self.atm_icns.insert(spec.atm_icn);
        self.fddi_icns.insert(spec.fddi_icn);
    }
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
    /// with `#` comments and blank lines ignored. Each ICN indexes an
    /// ICXT table of [`MAX_CONGRAMS`] entries (§6.1), so an ICN past
    /// the table, or one an earlier line already holds in the same
    /// table, is rejected; so is a VCI an earlier line already holds.
    pub fn parse(text: &str) -> Result<ApplianceConfig, String> {
        let mut congrams = Vec::new();
        let mut held = Held::default();
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
                    let icn = |v: u64, name: &str| match u16::try_from(v) {
                        Ok(icn) if usize::from(icn) < MAX_CONGRAMS => Ok(icn),
                        _ => Err(err(&format!("{name} outside the {MAX_CONGRAMS}-entry ICXT"))),
                    };
                    let spec = CongramSpec {
                        vci: u16::try_from(vci).map_err(|_| err("vci out of range"))?,
                        atm_icn: icn(atm_icn, "atm_icn")?,
                        fddi_icn: icn(fddi_icn, "fddi_icn")?,
                        station: u32::try_from(station).map_err(|_| err("station out of range"))?,
                        synchronous,
                    };
                    if let Some(key) = held.clash(&spec) {
                        return Err(err(&format!("{key} already held by an earlier congram")));
                    }
                    held.hold(&spec);
                    congrams.push(spec);
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

/// The gateway plus the driver of its two supervised ports.
pub struct Appliance {
    gw: Gateway,
    port: PortDriver,
    installed: Vec<CongramSpec>,
    held: Held,
    draining: bool,
}

impl Appliance {
    /// Assemble the appliance. The management plane is forced on —
    /// appliance mode without port health and counters would be
    /// unobservable.
    pub fn new(
        mut config: GatewayConfig,
        fddi_capacity_bps: u64,
        cell: Box<dyn CellPhy>,
        frame: Box<dyn FramePhy>,
    ) -> Appliance {
        if config.management.is_none() {
            config.management = Some(gw_mgmt::MgmtConfig);
        }
        Appliance {
            gw: Gateway::new(config, FddiAddr::station(0), fddi_capacity_bps),
            port: PortDriver::new(cell, frame),
            installed: Vec::new(),
            held: Held::default(),
            draining: false,
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
        self.port.stats()
    }

    /// Install every congram in `config` that is not already live.
    /// Additive by design: reload never tears down an existing congram,
    /// so partial reassemblies and staged frames are untouched. A spec
    /// whose VCI, ATM ICN or FDDI ICN a live congram already holds is
    /// skipped: installing it would overwrite that congram's ICXT entry.
    /// Returns how many congrams were newly installed.
    pub fn apply_config(&mut self, config: &ApplianceConfig) -> usize {
        let mut added = 0;
        for spec in &config.congrams {
            if self.held.clash(spec).is_some() {
                continue;
            }
            self.gw.install_congram(
                Vci(spec.vci),
                Icn(spec.atm_icn),
                Icn(spec.fddi_icn),
                FddiAddr::station(spec.station),
                spec.synchronous,
            );
            self.held.hold(spec);
            self.installed.push(*spec);
            added += 1;
        }
        added
    }

    /// One appliance tick at gateway time `now`.
    pub fn step(&mut self, now: SimTime) {
        // `gwd` has no signalling fabric to issue connection requests
        // into; its congrams come from config.
        let back = &mut |_: &mut PortDriver, _: &mut Gateway, _| {};
        let (gw, port) = (&mut self.gw, &mut self.port);
        port.pump(gw, now, Port::Atm);
        port.pump(gw, now, Port::Fddi);
        // Shutdown stops admitting; peers see backpressure through
        // unacked datagrams.
        if !self.draining {
            port.admit_cells(gw, now, back);
            port.admit_frames(gw, now, back);
        }
        port.advance(gw, now, back);
        while port.send_frame(gw, now) {}
        port.flush(gw, now);
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
            && self.port.in_flight(Port::Atm) == 0
            && self.port.in_flight(Port::Fddi) == 0
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
            in_flight: self.port.in_flight(Port::Atm) + self.port.in_flight(Port::Fddi),
        }
    }
}
