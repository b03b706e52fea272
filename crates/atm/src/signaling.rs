//! ATM connection management: the BPN signaling protocol (§3, §4.1;
//! paper references \[4\], \[7\]).
//!
//! "An endpoint uses a signaling protocol to set up and terminate
//! connections" (§3); the BPN adds multipoint connections with resource
//! reservations. This module implements the connection-management
//! protocol at message level:
//!
//! * **SETUP** — the caller names one or more destination endpoints and
//!   a [`TrafficContract`]; the connection manager routes a tree from
//!   the source switch (breadth-first shortest paths over the mesh),
//!   runs **connection admission control** on every tree link, and on
//!   success installs VPI/VCI translation entries switch by switch.
//! * **CONNECT / REJECT** — delivered to the endpoints after the
//!   setup's propagation-plus-processing latency.
//! * **RELEASE** — frees reserved bandwidth and tears the entries down.
//!
//! The table holds live connections only, `SetupPending` or
//! `Established`: a REJECT or a completed RELEASE removes the entry, so
//! a release that overtakes its setup leaves that setup nothing to do.
//!
//! Admission decisions are made atomically when the request enters the
//! network, then the outcome is delivered after the modeled signaling
//! latency — a documented simplification of per-hop handshaking that
//! preserves both admission behaviour and observable setup delay.

use crate::network::{AtmNetwork, EndpointId, SwitchId};
use gw_sim::time::SimTime;
use gw_wire::atm::Vci;
use std::collections::{HashMap, VecDeque};

/// Edges `(switch, out_port, next_switch)` along a routed path.
type SwitchHops = Vec<(usize, usize, usize)>;

/// Identifies a connection (congram-carrying VC) end to end.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ConnId(pub u32);

/// The resource request carried in a SETUP (paper §2.1: component
/// networks provide parametric descriptions; congrams carry
/// statistically bound resources).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TrafficContract {
    /// Peak rate in bits per second.
    pub peak_bps: u64,
    /// Sustained/mean rate in bits per second.
    pub mean_bps: u64,
}

impl TrafficContract {
    /// A constant-bit-rate contract (peak = mean).
    pub fn cbr(bps: u64) -> TrafficContract {
        TrafficContract { peak_bps: bps, mean_bps: bps }
    }
}

/// How much of the contract admission control reserves per link.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CacPolicy {
    /// Reserve the peak rate — deterministic guarantee.
    #[default]
    Peak,
    /// Reserve the mean rate — statistical multiplexing.
    Mean,
}

impl CacPolicy {
    fn demand(self, c: &TrafficContract) -> u64 {
        match self {
            CacPolicy::Peak => c.peak_bps,
            CacPolicy::Mean => c.mean_bps,
        }
    }
}

/// Signaling-layer configuration.
#[derive(Debug, Clone, Copy)]
pub struct SignalingConfig {
    /// Per-switch processing time for a signaling message (software
    /// path — this is the "non-critical path" of §4.2).
    pub hop_processing: SimTime,
    /// Admission policy.
    pub policy: CacPolicy,
    /// Fraction of each link's rate available to reserved traffic.
    pub reservable_fraction: f64,
}

impl Default for SignalingConfig {
    fn default() -> Self {
        SignalingConfig {
            hop_processing: SimTime::from_us(500),
            policy: CacPolicy::Peak,
            reservable_fraction: 0.95,
        }
    }
}

/// Connection lifecycle state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConnState {
    /// SETUP in flight.
    SetupPending,
    /// Established; cells flow.
    Established,
}

/// Why a setup was refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RejectReason {
    /// A link on the tree lacked reservable bandwidth.
    InsufficientBandwidth,
    /// No path exists to a destination.
    NoRoute,
    /// A port on the tree has every VCI in use.
    NoVci,
}

/// Indications delivered to endpoints.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SignalIndication {
    /// (To the caller) the connection is up; transmit on `tx_vci`.
    ConnectionUp {
        /// The connection.
        conn: ConnId,
        /// VCI to stamp on outgoing cells.
        tx_vci: Vci,
    },
    /// (To a callee) cells for this connection arrive on `rx_vci`.
    IncomingConnection {
        /// The connection.
        conn: ConnId,
        /// VCI cells will carry on the access link.
        rx_vci: Vci,
        /// The calling endpoint.
        from: EndpointId,
    },
    /// (To the caller) setup failed.
    Rejected {
        /// The connection.
        conn: ConnId,
        /// Why.
        reason: RejectReason,
    },
    /// (To all parties) the connection was released.
    Released {
        /// The connection.
        conn: ConnId,
    },
}

/// Internal timer/message events carried on the network event queue.
#[derive(Debug)]
pub enum SignalingEvent {
    /// Deliver the (pre-computed) outcome of a setup.
    CompleteSetup(ConnId),
    /// Finish a release.
    CompleteRelease(ConnId),
}

#[derive(Debug, Clone)]
struct Connection {
    src: EndpointId,
    contract: TrafficContract,
    state: ConnState,
    pending_reject: Option<RejectReason>,
    /// Reserved bandwidth per directed link `(switch, out_port)`.
    reserved: Vec<((usize, usize), u64)>,
    /// Installed table entries `(switch, in_port, in_vci)`.
    entries: Vec<(usize, usize, Vci)>,
    /// Caller's access VCI.
    tx_vci: Vci,
    /// Per-callee access VCI.
    rx_vcis: Vec<(EndpointId, Vci)>,
    /// Per-switch in-VCI of the tree (for grafting parties).
    tree_in_vci: HashMap<usize, (usize, Vci)>,
    /// Every VCI taken for the connection, `(switch, port, vci)`.
    vcis: Vec<(usize, usize, Vci)>,
}

/// Signaling-layer state embedded in [`AtmNetwork`].
#[derive(Debug, Default)]
pub struct SignalingState {
    config: SignalingConfig,
    conns: HashMap<ConnId, Connection>,
    committed: HashMap<(usize, usize), u64>,
    vcis: HashMap<(usize, usize), VciPool>,
    next_conn: u32,
}

/// The VCIs of one switch port: counted up from 32 (0–31 are
/// reserved), then, once the count reaches the end of the 16-bit space,
/// taken back from the ones connections gave up.
#[derive(Debug)]
struct VciPool {
    next: Option<u16>,
    free: Vec<u16>,
}

impl Default for VciPool {
    fn default() -> Self {
        VciPool { next: Some(32), free: Vec::new() }
    }
}

impl VciPool {
    /// A VCI no live connection holds on the port, if one is left.
    fn take(&mut self) -> Option<Vci> {
        match self.next {
            Some(vci) => {
                self.next = vci.checked_add(1);
                Some(Vci(vci))
            }
            None => self.free.pop().map(Vci),
        }
    }
}

impl SignalingState {
    /// Take a VCI on `(sw, port)` for `conn`.
    fn alloc_vci(
        &mut self,
        conn: &mut Connection,
        sw: usize,
        port: usize,
    ) -> Result<Vci, RejectReason> {
        let vci = self.vcis.entry((sw, port)).or_default().take().ok_or(RejectReason::NoVci)?;
        conn.vcis.push((sw, port, vci));
        Ok(vci)
    }
}

impl AtmNetwork {
    /// Request, at time `at`, a (possibly multipoint) connection from
    /// `from` to every endpoint in `to`. The outcome arrives one
    /// signaling delay after the later of `at` and the network's clock,
    /// as a [`SignalIndication`] on each party's event stream. An idle
    /// network's clock stays at its last event, so the caller's time is
    /// what dates the request.
    pub fn connect(
        &mut self,
        at: SimTime,
        from: EndpointId,
        to: &[EndpointId],
        contract: TrafficContract,
    ) -> ConnId {
        let id = ConnId(self.signaling.next_conn);
        self.signaling.next_conn += 1;

        let mut conn = Connection {
            src: from,
            contract,
            state: ConnState::SetupPending,
            pending_reject: None,
            reserved: Vec::new(),
            entries: Vec::new(),
            tx_vci: Vci(0),
            rx_vcis: Vec::new(),
            tree_in_vci: HashMap::new(),
            vcis: Vec::new(),
        };

        let outcome = self.try_build_tree(&mut conn, to);
        let hops = 1 + conn.entries.len() as u64;
        let delay = SimTime::from_ns(self.signaling.config.hop_processing.as_ns() * hops);
        if let Err(reason) = outcome {
            self.rollback(&mut conn);
            conn.pending_reject = Some(reason);
        }
        self.signaling.conns.insert(id, conn);
        self.schedule_signaling(at.max(self.now()) + delay, SignalingEvent::CompleteSetup(id));
        id
    }

    /// Release a connection; resources free after the signaling delay.
    pub fn release(&mut self, conn_id: ConnId) {
        let delay = self.signaling.config.hop_processing;
        self.schedule_signaling(self.now() + delay, SignalingEvent::CompleteRelease(conn_id));
    }

    /// The state of a live connection; `None` once it was rejected or
    /// released.
    pub fn conn_state(&self, conn: ConnId) -> Option<ConnState> {
        self.signaling.conns.get(&conn).map(|c| c.state)
    }

    /// Bandwidth currently reserved on a directed link.
    pub fn reserved_bps(&self, sw: SwitchId, port: usize) -> u64 {
        *self.signaling.committed.get(&(sw.0, port)).unwrap_or(&0)
    }

    /// Shortest switch path (BFS by hop count) between two switches.
    fn switch_path(&self, from: usize, to: usize) -> Option<SwitchHops> {
        // Returns edges (switch, out_port, next_switch) along the path.
        if from == to {
            return Some(Vec::new());
        }
        let mut prev: HashMap<usize, (usize, usize)> = HashMap::new(); // sw -> (prev_sw, out_port at prev)
        let mut q = VecDeque::from([from]);
        let mut seen = std::collections::HashSet::from([from]);
        while let Some(sw) = q.pop_front() {
            for (port, nsw, _nport) in self.switch_neighbors(sw) {
                if seen.insert(nsw) {
                    prev.insert(nsw, (sw, port));
                    if nsw == to {
                        // Reconstruct.
                        let mut edges = Vec::new();
                        let mut cur = to;
                        while cur != from {
                            let (p, port) = prev[&cur];
                            edges.push((p, port, cur));
                            cur = p;
                        }
                        edges.reverse();
                        return Some(edges);
                    }
                    q.push_back(nsw);
                }
            }
        }
        None
    }

    fn reserve(
        &mut self,
        conn: &mut Connection,
        sw: usize,
        port: usize,
    ) -> Result<(), RejectReason> {
        let demand = self.signaling.config.policy.demand(&conn.contract);
        let capacity =
            (self.port_rate(sw, port) as f64 * self.signaling.config.reservable_fraction) as u64;
        let committed = self.signaling.committed.entry((sw, port)).or_insert(0);
        if *committed + demand > capacity {
            return Err(RejectReason::InsufficientBandwidth);
        }
        *committed += demand;
        conn.reserved.push(((sw, port), demand));
        Ok(())
    }

    /// Route, admit, and install the connection tree. On error the
    /// caller rolls back partial reservations/entries.
    fn try_build_tree(
        &mut self,
        conn: &mut Connection,
        dests: &[EndpointId],
    ) -> Result<(), RejectReason> {
        let (src_sw, src_port) = self.endpoint_attachment(conn.src);
        // Caller's access VCI; the ingress switch keys its table on it.
        conn.tx_vci = self.signaling.alloc_vci(conn, src_sw.0, src_port)?;
        conn.tree_in_vci.insert(src_sw.0, (src_port, conn.tx_vci));
        // Reserve the access link (endpoint -> switch direction shares
        // the port's rate).
        self.reserve(conn, src_sw.0, src_port)?;

        for &dest in dests {
            self.graft(conn, dest)?;
        }
        // Install entries: group fan-outs per (switch, in_port, in_vci).
        Ok(())
    }

    /// Extend the tree to reach `dest`, reserving new links and
    /// installing/extending table entries.
    fn graft(&mut self, conn: &mut Connection, dest: EndpointId) -> Result<(), RejectReason> {
        let (dst_sw, dst_port) = self.endpoint_attachment(dest);
        // Find the tree node closest to dest: BFS from every on-tree
        // switch; shortest wins. (Trees are small; this is fine.)
        let mut best: Option<(usize, SwitchHops)> = None;
        let tree_switches: Vec<usize> = conn.tree_in_vci.keys().copied().collect();
        for tsw in tree_switches {
            if let Some(path) = self.switch_path(tsw, dst_sw.0) {
                let better = match &best {
                    None => true,
                    Some((_, bp)) => path.len() < bp.len(),
                };
                if better {
                    best = Some((tsw, path));
                }
            }
        }
        let Some((_start, path)) = best else { return Err(RejectReason::NoRoute) };

        // Walk the new branch: reserve each inter-switch link and give
        // each newly reached switch an in-VCI.
        for &(sw, out_port, next_sw) in &path {
            self.reserve(conn, sw, out_port)?;
            let (in_port_at_next, in_vci_at_next) = {
                // Which port on next_sw faces sw?
                let nport = self
                    .switch_neighbors(sw)
                    .into_iter()
                    .find(|&(p, n, _)| p == out_port && n == next_sw)
                    .map(|(_, _, np)| np)
                    .expect("edge came from neighbors");
                let vci = self.signaling.alloc_vci(conn, next_sw, nport)?;
                (nport, vci)
            };
            // Extend the parent's fan-out toward next_sw.
            let (pin_port, pin_vci) = conn.tree_in_vci[&sw];
            self.install_vc(SwitchId(sw), pin_port, pin_vci, vec![(out_port, in_vci_at_next)]);
            if !conn.entries.contains(&(sw, pin_port, pin_vci)) {
                conn.entries.push((sw, pin_port, pin_vci));
            }
            conn.tree_in_vci.insert(next_sw, (in_port_at_next, in_vci_at_next));
        }

        // Egress to the destination endpoint.
        self.reserve(conn, dst_sw.0, dst_port)?;
        let rx_vci = self.signaling.alloc_vci(conn, dst_sw.0, dst_port)?;
        let (din_port, din_vci) = conn.tree_in_vci[&dst_sw.0];
        self.install_vc(dst_sw, din_port, din_vci, vec![(dst_port, rx_vci)]);
        if !conn.entries.contains(&(dst_sw.0, din_port, din_vci)) {
            conn.entries.push((dst_sw.0, din_port, din_vci));
        }
        conn.rx_vcis.push((dest, rx_vci));
        Ok(())
    }

    fn rollback(&mut self, conn: &mut Connection) {
        for ((sw, port), bps) in conn.reserved.drain(..) {
            if let Some(c) = self.signaling.committed.get_mut(&(sw, port)) {
                *c = c.saturating_sub(bps);
            }
        }
        for (sw, port, vci) in conn.entries.drain(..) {
            self.remove_vc(SwitchId(sw), port, vci);
        }
        for (sw, port, vci) in conn.vcis.drain(..) {
            if let Some(pool) = self.signaling.vcis.get_mut(&(sw, port)) {
                pool.free.push(vci.0);
            }
        }
        conn.rx_vcis.clear();
    }
}

/// Handle a signaling event popped from the network queue.
pub(crate) fn handle_event(net: &mut AtmNetwork, now: SimTime, ev: SignalingEvent) {
    match ev {
        SignalingEvent::CompleteSetup(id) => {
            let Some(mut conn) = net.signaling.conns.remove(&id) else { return };
            if let Some(reason) = conn.pending_reject {
                net.deliver_signal(conn.src, now, SignalIndication::Rejected { conn: id, reason });
                return;
            }
            conn.state = ConnState::Established;
            net.deliver_signal(
                conn.src,
                now,
                SignalIndication::ConnectionUp { conn: id, tx_vci: conn.tx_vci },
            );
            for &(ep, rx_vci) in &conn.rx_vcis {
                net.deliver_signal(
                    ep,
                    now,
                    SignalIndication::IncomingConnection { conn: id, rx_vci, from: conn.src },
                );
            }
            net.signaling.conns.insert(id, conn);
        }
        SignalingEvent::CompleteRelease(id) => {
            let Some(mut conn) = net.signaling.conns.remove(&id) else { return };
            // The caller asked for the connection; a callee hears of its
            // end only if it heard of it (`IncomingConnection`), which a
            // release that overtook the setup prevented.
            let parties: Vec<EndpointId> = match conn.state {
                ConnState::Established => conn.rx_vcis.iter().map(|&(ep, _)| ep).collect(),
                ConnState::SetupPending => Vec::new(),
            };
            net.rollback(&mut conn);
            net.deliver_signal(conn.src, now, SignalIndication::Released { conn: id });
            for ep in parties {
                net.deliver_signal(ep, now, SignalIndication::Released { conn: id });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::{EndpointEvent, LinkParams};

    /// A 2x2 mesh: s0-s1, s0-s2, s1-s3, s2-s3, endpoints on s0 and s3.
    fn mesh() -> (AtmNetwork, EndpointId, EndpointId, EndpointId) {
        let mut net = AtmNetwork::new();
        let s: Vec<_> = (0..4).map(|_| net.add_switch(6)).collect();
        net.link(s[0], 0, s[1], 0, LinkParams::default());
        net.link(s[0], 1, s[2], 1, LinkParams::default());
        net.link(s[1], 1, s[3], 0, LinkParams::default());
        net.link(s[2], 0, s[3], 1, LinkParams::default());
        let e0 = net.attach_endpoint(s[0], 4);
        let e1 = net.attach_endpoint(s[3], 4);
        let e2 = net.attach_endpoint(s[1], 4);
        (net, e0, e1, e2)
    }

    fn drain_signals(net: &mut AtmNetwork, ep: EndpointId) -> Vec<SignalIndication> {
        net.poll(ep)
            .into_iter()
            .filter_map(|e| match e {
                EndpointEvent::Signal { signal, .. } => Some(signal),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn point_to_point_setup_and_data() {
        let (mut net, e0, e1, _) = mesh();
        let conn = net.connect(net.now(), e0, &[e1], TrafficContract::cbr(10_000_000));
        net.run_until(SimTime::from_ms(50));
        let up = drain_signals(&mut net, e0);
        let SignalIndication::ConnectionUp { tx_vci, .. } = up[0] else {
            panic!("expected ConnectionUp, got {up:?}")
        };
        let inc = drain_signals(&mut net, e1);
        let SignalIndication::IncomingConnection { rx_vci, from, .. } = inc[0] else {
            panic!("expected IncomingConnection")
        };
        assert_eq!(from, e0);
        assert_eq!(net.conn_state(conn), Some(ConnState::Established));

        // Data now flows end to end with translation to rx_vci.
        net.inject_on_vci(e0, tx_vci, &[9; 48]);
        net.run_until(SimTime::from_ms(60));
        let rx = net.poll(e1);
        assert_eq!(rx.len(), 1);
        let EndpointEvent::CellRx { cell, .. } = &rx[0] else { panic!() };
        assert_eq!(gw_wire::atm::Cell::new_unchecked(&cell[..]).header().vci, rx_vci);
    }

    #[test]
    fn setup_latency_reflects_software_path() {
        let (mut net, e0, e1, _) = mesh();
        net.connect(net.now(), e0, &[e1], TrafficContract::cbr(1_000_000));
        net.run_until(SimTime::from_us(100));
        assert!(drain_signals(&mut net, e0).is_empty(), "setup must not be instantaneous");
        net.run_until(SimTime::from_ms(50));
        assert!(!drain_signals(&mut net, e0).is_empty());
    }

    #[test]
    fn admission_control_rejects_over_commitment() {
        let (mut net, e0, e1, _) = mesh();
        // Each link is 155 Mb/s with 95% reservable: ~147 Mb/s. Two
        // 100 Mb/s peak connections cannot share the access link.
        let c1 = net.connect(net.now(), e0, &[e1], TrafficContract::cbr(100_000_000));
        let c2 = net.connect(net.now(), e0, &[e1], TrafficContract::cbr(100_000_000));
        net.run_until(SimTime::from_ms(100));
        assert_eq!(net.conn_state(c1), Some(ConnState::Established));
        assert_eq!(net.conn_state(c2), None, "a rejected connection leaves the table");
        let sigs = drain_signals(&mut net, e0);
        assert!(sigs.iter().any(|s| matches!(
            s,
            SignalIndication::Rejected { reason: RejectReason::InsufficientBandwidth, .. }
        )));
    }

    #[test]
    fn mean_policy_multiplexes_more() {
        let (mut net, e0, e1, _) = mesh();
        net.signaling.config =
            SignalingConfig { policy: CacPolicy::Mean, ..SignalingConfig::default() };
        // Peak 100M but mean 10M: under mean policy a dozen fit.
        let contract = TrafficContract { peak_bps: 100_000_000, mean_bps: 10_000_000 };
        let ids: Vec<_> = (0..12).map(|_| net.connect(net.now(), e0, &[e1], contract)).collect();
        net.run_until(SimTime::from_ms(200));
        for id in ids {
            assert_eq!(net.conn_state(id), Some(ConnState::Established));
        }
    }

    #[test]
    fn release_frees_bandwidth() {
        let (mut net, e0, e1, _) = mesh();
        let c1 = net.connect(net.now(), e0, &[e1], TrafficContract::cbr(100_000_000));
        net.run_until(SimTime::from_ms(50));
        assert_eq!(net.conn_state(c1), Some(ConnState::Established));
        net.release(c1);
        net.run_until(SimTime::from_ms(100));
        assert_eq!(net.conn_state(c1), None, "a released connection leaves the table");
        // The same capacity is admittable again.
        let c2 = net.connect(net.now(), e0, &[e1], TrafficContract::cbr(100_000_000));
        net.run_until(SimTime::from_ms(200));
        assert_eq!(net.conn_state(c2), Some(ConnState::Established));
    }

    #[test]
    fn released_connection_stops_data() {
        let (mut net, e0, e1, _) = mesh();
        let c1 = net.connect(net.now(), e0, &[e1], TrafficContract::cbr(1_000_000));
        net.run_until(SimTime::from_ms(50));
        let sigs = drain_signals(&mut net, e0);
        let SignalIndication::ConnectionUp { tx_vci, .. } = sigs[0] else { panic!() };
        net.release(c1);
        net.run_until(SimTime::from_ms(100));
        net.poll(e1);
        net.inject_on_vci(e0, tx_vci, &[1; 48]);
        net.run_until(SimTime::from_ms(150));
        assert!(net.poll(e1).iter().all(|e| !matches!(e, EndpointEvent::CellRx { .. })));
    }

    #[test]
    fn multipoint_connect_reaches_all_parties() {
        let (mut net, e0, e1, e2) = mesh();
        let _c = net.connect(net.now(), e0, &[e1, e2], TrafficContract::cbr(5_000_000));
        net.run_until(SimTime::from_ms(100));
        let up = drain_signals(&mut net, e0);
        let SignalIndication::ConnectionUp { tx_vci, .. } = up[0] else { panic!("{up:?}") };
        assert!(!drain_signals(&mut net, e1).is_empty());
        assert!(!drain_signals(&mut net, e2).is_empty());
        // One injected cell reaches both destinations.
        net.inject_on_vci(e0, tx_vci, &[3; 48]);
        net.run_until(SimTime::from_ms(150));
        assert_eq!(net.poll(e1).len(), 1);
        assert_eq!(net.poll(e2).len(), 1);
    }

    #[test]
    fn no_route_rejected() {
        let mut net = AtmNetwork::new();
        let s0 = net.add_switch(2);
        let s1 = net.add_switch(2); // island
        let e0 = net.attach_endpoint(s0, 0);
        let e1 = net.attach_endpoint(s1, 0);
        let c = net.connect(net.now(), e0, &[e1], TrafficContract::cbr(1_000));
        net.run_until(SimTime::from_ms(50));
        assert_eq!(net.conn_state(c), None);
        let sigs = drain_signals(&mut net, e0);
        assert!(sigs.iter().any(|s| matches!(
            s,
            SignalIndication::Rejected { reason: RejectReason::NoRoute, .. }
        )));
    }

    #[test]
    fn rejected_setup_leaves_no_state() {
        let (mut net, e0, e1, _) = mesh();
        let c1 = net.connect(net.now(), e0, &[e1], TrafficContract::cbr(140_000_000));
        let c2 = net.connect(net.now(), e0, &[e1], TrafficContract::cbr(140_000_000));
        net.run_until(SimTime::from_ms(100));
        assert_eq!(net.conn_state(c2), None);
        // Reserved bandwidth equals exactly one connection's worth on the
        // access link.
        let (sw, port) = net.endpoint_attachment(e0);
        assert_eq!(net.reserved_bps(sw, port), 140_000_000);
        let _ = c1;
    }

    #[test]
    fn a_release_that_overtakes_its_setup_ends_the_connection() {
        let (mut net, e0, e1, _) = mesh();
        let c = net.connect(net.now(), e0, &[e1], TrafficContract::cbr(10_000_000));
        net.release(c);
        net.run_until(SimTime::from_ms(100));
        assert_eq!(drain_signals(&mut net, e0), [SignalIndication::Released { conn: c }]);
        assert_eq!(net.conn_state(c), None);
        let mut links = (0..4).flat_map(|sw| (0..6).map(move |port| (SwitchId(sw), port)));
        assert!(links.all(|(sw, port)| net.reserved_bps(sw, port) == 0));
    }

    #[test]
    fn only_parties_told_of_a_connection_are_told_of_its_release() {
        // Overtaken: the callee never heard of the connection.
        let (mut net, e0, e1, _) = mesh();
        let c = net.connect(net.now(), e0, &[e1], TrafficContract::cbr(10_000_000));
        net.release(c);
        net.run_until(SimTime::from_ms(100));
        assert_eq!(drain_signals(&mut net, e0), [SignalIndication::Released { conn: c }]);
        assert_eq!(drain_signals(&mut net, e1), []);

        // Established: both ends were told, so both hear of the end.
        let c = net.connect(net.now(), e0, &[e1], TrafficContract::cbr(10_000_000));
        net.run_until(SimTime::from_ms(200));
        let incoming = drain_signals(&mut net, e1);
        assert!(matches!(incoming[..], [SignalIndication::IncomingConnection { .. }]));
        drain_signals(&mut net, e0);
        net.release(c);
        net.run_until(SimTime::from_ms(300));
        assert_eq!(drain_signals(&mut net, e0), [SignalIndication::Released { conn: c }]);
        assert_eq!(drain_signals(&mut net, e1), [SignalIndication::Released { conn: c }]);
    }

    /// e0 — s0 — s1 — e1, a hand-installed VC from e0 to e1 (VCI 100),
    /// and a signalling hop as long as a cell's hop, so that a signal
    /// and a cell can reach e1 in the same nanosecond. Returns the hop.
    fn lockstep_net() -> (AtmNetwork, EndpointId, EndpointId, SimTime) {
        let mut net = AtmNetwork::new();
        let s0 = net.add_switch(4);
        let s1 = net.add_switch(4);
        net.link(s0, 0, s1, 0, LinkParams::default());
        let e0 = net.attach_endpoint(s0, 1);
        let e1 = net.attach_endpoint(s1, 1);
        net.install_vc(s0, 1, Vci(100), vec![(0, Vci(200))]);
        net.install_vc(s1, 0, Vci(200), vec![(1, Vci(300))]);
        let hop = gw_sim::time::tx_time(gw_wire::atm::CELL_SIZE, crate::DEFAULT_LINK_RATE)
            + LinkParams::default().propagation;
        net.signaling.config.hop_processing = hop;
        (net, e0, e1, hop)
    }

    /// `(time, is a cell)` of each notification.
    fn stamps(events: impl IntoIterator<Item = EndpointEvent>) -> Vec<(SimTime, bool)> {
        events
            .into_iter()
            .map(|e| match e {
                EndpointEvent::CellRx { time, .. } => (time, true),
                EndpointEvent::Signal { time, .. } => (time, false),
            })
            .collect()
    }

    /// A signal and a cell that reach one endpoint in the same
    /// nanosecond come out in the order their events were pushed, when
    /// the cell waits at the endpoint across a `run_until` boundary and
    /// the signal is handled in the next run.
    #[test]
    fn a_signal_and_a_cell_at_one_instant_come_out_in_push_order() {
        let (mut net, e0, e1, hop) = lockstep_net();
        let hops = |n: u64| SimTime::from_ns(n * hop.as_ns());
        let one_ns = SimTime::from_ns(1);

        // Signal pushed first: a setup from e1 (three signalling hops)
        // requested as the cell leaves e0 (three cell hops).
        let start = SimTime::from_us(100);
        let conn = net.connect(start, e1, &[e0], TrafficContract::cbr(1_000_000));
        net.inject_on_vci_at(e0, start, Vci(100), &[1; 48]);
        let t = start + hops(3);
        net.run_until(t - one_ns);
        assert_eq!(net.next_event(e1), None);
        net.run_until(t);
        assert_eq!(stamps(net.drained(e1)), [(t, false), (t, true)]);

        // Cell pushed first: its arrival is keyed when s1 sends it, one
        // hop out; a release requested then answers one hop later.
        let start = t + SimTime::from_us(100);
        net.inject_on_vci_at(e0, start, Vci(100), &[2; 48]);
        net.run_until(start + hops(2));
        assert_eq!(net.now(), start + hops(2));
        net.release(conn);
        let t = start + hops(3);
        net.run_until(t - one_ns);
        assert!(net.poll(e1).is_empty());
        net.run_until(t);
        assert_eq!(stamps(net.poll(e1)), [(t, true), (t, false)]);
    }

    #[test]
    fn distinct_connections_get_distinct_vcis() {
        let (mut net, e0, e1, _) = mesh();
        net.connect(net.now(), e0, &[e1], TrafficContract::cbr(1_000_000));
        net.connect(net.now(), e0, &[e1], TrafficContract::cbr(1_000_000));
        net.run_until(SimTime::from_ms(100));
        let ups: Vec<Vci> = drain_signals(&mut net, e0)
            .into_iter()
            .filter_map(|s| match s {
                SignalIndication::ConnectionUp { tx_vci, .. } => Some(tx_vci),
                _ => None,
            })
            .collect();
        assert_eq!(ups.len(), 2);
        assert_ne!(ups[0], ups[1]);
        assert!(ups.iter().all(|v| v.0 >= 32), "VCIs 0-31 reserved");
    }

    /// A port's VCIs are reused once the count has reached the end of
    /// the 16-bit space, and a port with every VCI in use refuses a
    /// setup instead of overflowing.
    #[test]
    fn a_port_reuses_the_vcis_released_and_rejects_a_setup_when_all_are_in_use() {
        let mut net = AtmNetwork::new();
        let s0 = net.add_switch(2);
        let e0 = net.attach_endpoint(s0, 0);
        let e1 = net.attach_endpoint(s0, 1);
        let free = TrafficContract::cbr(0);
        for _ in 0..100_000 {
            let c = net.connect(net.now(), e0, &[e1], free);
            net.run_until(net.now() + SimTime::from_ms(2));
            let sigs = drain_signals(&mut net, e0);
            let [SignalIndication::ConnectionUp { tx_vci, .. }] = sigs[..] else {
                panic!("{sigs:?}")
            };
            assert!(tx_vci.0 >= 32, "VCIs 0-31 reserved");
            drain_signals(&mut net, e1);
            net.release(c);
            net.run_until(net.now() + SimTime::from_ms(2));
            net.poll(e0);
            net.poll(e1);
        }

        // Every VCI of the port held at once: the next setup is refused.
        let held: Vec<_> =
            (32..=u16::MAX).map(|_| net.connect(net.now(), e0, &[e1], free)).collect();
        let refused = net.connect(net.now(), e0, &[e1], free);
        net.run_until(net.now() + SimTime::from_ms(2));
        assert!(held.iter().all(|&c| net.conn_state(c) == Some(ConnState::Established)));
        assert_eq!(net.conn_state(refused), None);
        let rejected = SignalIndication::Rejected { conn: refused, reason: RejectReason::NoVci };
        assert!(drain_signals(&mut net, e0).contains(&rejected));
    }

    #[test]
    fn setup_requested_after_an_idle_spell_answers_a_delay_after_the_request() {
        let (mut net, e0, e1, _) = mesh();
        net.connect(net.now(), e0, &[e1], TrafficContract::cbr(1_000_000));
        net.run_until(SimTime::from_ms(50));
        net.poll(e0);
        // The network idles at its last event; the next request comes
        // well after it.
        let t0 = net.now();
        let t = t0 + SimTime::from_ms(10);
        net.connect(t, e0, &[e1], TrafficContract::cbr(1_000_000));
        net.run_until(SimTime::from_ms(100));
        let up: Vec<SimTime> = net
            .poll(e0)
            .into_iter()
            .filter_map(|e| match e {
                EndpointEvent::Signal { time, signal: SignalIndication::ConnectionUp { .. } } => {
                    Some(time)
                }
                _ => None,
            })
            .collect();
        let delay = net.signaling.config.hop_processing;
        assert_eq!(up.len(), 1);
        assert!(up[0] >= t + delay, "answered at {up:?}, requested at {t:?} (idle since {t0:?})");
    }
}
