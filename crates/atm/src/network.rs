//! The cell-switching data plane: a mesh of output-queued switches.
//!
//! Each switch holds a per-input-port VCI translation table mapping
//! `(input port, VCI)` to one **or more** `(output port, VCI)` pairs —
//! more than one makes the connection multipoint, which the BPN
//! supports natively (§3, \[14\]). Cells are serialized onto links at the
//! link rate (the paper quotes 100–600 Mb/s for ATM; the default here
//! is 155.52 Mb/s), delayed by propagation, and dropped at full output
//! queues — cells with the CLP bit set are dropped first once a queue
//! passes its discard threshold.
//!
//! Endpoints attach to switch ports; the gateway is such an endpoint
//! (through its AIC). Injected cells must carry a valid HEC — the
//! network's interfaces check it exactly as the AIC does.
//!
//! # What a cell hop costs the host
//!
//! The model is driven cell by cell from co-simulations, so a hop is
//! budgeted like a stage of the gateway itself (DESIGN.md, "The network
//! model's event budget"):
//!
//! * **Cells live in a slab** owned by the network; the event queue and
//!   the port queues carry a 4-byte slot, never the 53 octets. A slot
//!   has exactly one owner at a time — an event, a port queue, or the
//!   handler that just popped it — and every exit (delivery, any drop)
//!   hands it back: [`AtmNetwork::cells_in_flight`] is zero whenever
//!   the network is idle.
//! * **One table read per hop.** Each input port of a switch indexes
//!   its VCIs directly (a `gw_sim::SlotIndex`, no hashing) into the
//!   switch's entries; an entry holds the fan-out *and* the optional
//!   ingress policer and is borrowed in place.
//! * **One cell time per port.** A port's serialization time for one
//!   cell is computed when the port is created or linked, not per cell.
//! * **One header decode, from one word; at most one header write per
//!   output.** CLP
//!   tagging edits the parsed header; an output whose VCI or tag changes
//!   the header stamps it and the HEC once, and one that changes nothing
//!   leaves the octets the cell arrived with.
//! * **No self-addressed wake-up.** When a cell reaches an idle port
//!   the port would be woken at `now`; when that wake-up would
//!   provably be the very next event popped, the port transmits at once
//!   instead (see `offer`). Simulated behaviour — every time, drop,
//!   counter and tie-break — is identical either way.
//! * **Events skip the heap.** Three push sites schedule in time order
//!   and name an event-queue lane (`gw_sim::event`): a port's arrivals at
//!   `done + propagation`, its wake-ups, and each endpoint's injections.
//!   On equal links nearly every cell event then joins a lane's tail and
//!   pops from a lane's head; a push that would go backwards falls to the
//!   heap. Pop order is the one heap's, so this too is invisible.
//! * **An arrival at an endpoint is not an event.** A port sending
//!   toward an endpoint takes the arrival's `(time, sequence number)` key
//!   from the event queue without a push (`EventQueue::take_seq`) and
//!   files the cell in the endpoint's own FIFO, in key order; a
//!   signalling indication is filed there under the key of the event
//!   that delivers it. [`AtmNetwork::run_until`] releases what its
//!   horizon covers and moves the network's clock to the latest arrival
//!   it released, which is the clock the arrival's event would have
//!   left. The endpoint sees the cells and signals, their times and
//!   their order that one event per arrival gave.
//! * **The last switch hop is no event either.** A *private* link is
//!   one whose far switch sends every cell from it to one endpoint,
//!   through an output that no other input feeds, that is no slower than
//!   the link, and with no policer on the link's VCs. Each cell it
//!   carries finds that output idle, so its hop at the far switch
//!   touches nothing any other event reads: the link keeps the cell in
//!   a FIFO of its own under the key its `CellAtSwitch` would have
//!   taken, and [`AtmNetwork::run_until`] does the hop at its horizon
//!   (lookup, admission, restamp, transmit, filing), moving the clock to
//!   the latest hop. Links are classified at the first `run_until` after
//!   a change to a table, a link or an attachment; none is private while
//!   a signalling event is queued; and anything that could tell the
//!   difference — a change, a signalling request, a bare
//!   [`AtmNetwork::step`] — first puts the deferred hops back in the
//!   event queue under their own keys (`EventQueue::push_keyed`).

use gw_sim::event::{EventQueue, LANES};
use gw_sim::index::SlotIndex;
use gw_sim::time::{tx_time, SimTime};
use gw_wire::atm::{AtmHeader, Cell, Vci, CELL_SIZE, HEADER_SIZE};
use std::collections::VecDeque;

/// Default link rate: 155.52 Mb/s (SONET STS-3c, within the paper's
/// 100–600 Mb/s ATM range).
pub const DEFAULT_LINK_RATE: u64 = 155_520_000;

/// Identifies a switch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SwitchId(pub usize);

/// Identifies an endpoint (host or gateway attachment).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EndpointId(pub usize);

/// Link parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinkParams {
    /// Serialization rate in bits per second.
    pub rate_bps: u64,
    /// One-way propagation delay.
    pub propagation: SimTime,
    /// Output queue capacity in cells.
    pub queue_cells: usize,
    /// Queue depth above which CLP-tagged cells are discarded.
    pub clp_threshold: usize,
}

impl Default for LinkParams {
    fn default() -> Self {
        LinkParams {
            rate_bps: DEFAULT_LINK_RATE,
            propagation: SimTime::from_us(5), // ~1 km of fibre
            queue_cells: 128,
            clp_threshold: 96,
        }
    }
}

/// Per-link counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LinkStats {
    /// Cells transmitted.
    pub cells_tx: u64,
    /// Cells dropped at a full queue.
    pub full_drops: u64,
    /// CLP-tagged cells dropped above the discard threshold.
    pub clp_drops: u64,
    /// Peak queue depth observed.
    pub peak_queue: usize,
    /// Cells discarded because the link was down.
    pub down_drops: u64,
}

/// Notifications an endpoint drains from the network. [`AtmNetwork::poll`]
/// hands each cell out as its own 53 octets; [`AtmNetwork::next_event`]
/// lends it where it waits (`C` is `&mut [u8; CELL_SIZE]`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EndpointEvent<C = [u8; CELL_SIZE]> {
    /// A cell arrived.
    CellRx {
        /// Arrival (end-of-reception) time.
        time: SimTime,
        /// The 53-octet cell.
        cell: C,
    },
    /// A signaling indication (delivered by the signaling layer).
    Signal {
        /// Delivery time.
        time: SimTime,
        /// The indication.
        signal: crate::signaling::SignalIndication,
    },
}

/// A cell in flight: an index into the network's [`CellSlab`].
type Slot = u32;

/// Every cell inside the network, from injection to delivery or drop.
/// Events and port queues hold [`Slot`]s; a freed slot is the next one
/// reused, so the slab never grows past the peak number in flight.
#[derive(Debug, Default)]
struct CellSlab {
    cells: Vec<[u8; CELL_SIZE]>,
    free: Vec<Slot>,
}

impl CellSlab {
    fn insert(&mut self, cell: [u8; CELL_SIZE]) -> Slot {
        if let Some(slot) = self.free.pop() {
            self.cells[slot as usize] = cell;
            return slot;
        }
        let slot = index32(self.cells.len());
        self.cells.push(cell);
        slot
    }

    /// Hand a slot back. The caller was its only owner.
    fn release(&mut self, slot: Slot) {
        self.free.push(slot);
    }

    fn in_flight(&self) -> usize {
        self.cells.len() - self.free.len()
    }
}

/// Switch, port, endpoint and slot numbers ride in events as 32 bits.
fn index32(i: usize) -> u32 {
    u32::try_from(i).expect("network index fits in 32 bits")
}

/// Where a port leads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PortPeer {
    Unconnected,
    Switch { switch: u32, port: u32 },
    Endpoint { endpoint: u32 },
}

#[derive(Debug)]
struct OutPort {
    /// The port's own address, for the wake-ups it schedules itself.
    switch: u32,
    port: u32,
    peer: PortPeer,
    params: LinkParams,
    /// Time to serialize one cell at `params.rate_bps`.
    cell_time: SimTime,
    queue: VecDeque<Slot>,
    busy_until: SimTime,
    /// A PortReady wake-up is already in the event queue.
    ready_pending: bool,
    /// False when the attached fibre is cut.
    up: bool,
    /// The private link this port sends over, while it defers its
    /// cells' hops there (see `PrivateLinks`).
    private: Option<u32>,
    stats: LinkStats,
}

/// One translation-table entry: where cells of `(input port, VCI)` go
/// and the contract they are held to on the way in.
#[derive(Debug, Default)]
struct VcEntry {
    /// Fan-out of `(output port, VCI)`; `None` while only a policer is
    /// installed (such cells are policed, then counted unroutable).
    outputs: Option<Vec<(usize, Vci)>>,
    /// Ingress policer (usage parameter control enforcing the
    /// connection's traffic contract).
    policer: Option<crate::policing::Gcra>,
    /// The input port the entry is keyed on.
    in_port: u32,
}

impl VcEntry {
    /// Neither a route nor a policer: a freed entry.
    fn is_free(&self) -> bool {
        self.outputs.is_none() && self.policer.is_none()
    }
}

/// Write the header a cell `leaves` a switch with, unless it is the one
/// it `arrived` with. A cell in the slab always carries a valid HEC —
/// [`AtmNetwork::inject_at`] checks it and every write here restamps it —
/// and the parsed fields cover all 32 bits before the HEC, so an
/// unchanged header's octets are already the ones `to_bytes` would give.
fn restamp(cell: &mut [u8; CELL_SIZE], arrived: &AtmHeader, leaves: AtmHeader) {
    if leaves != *arrived {
        cell[..HEADER_SIZE].copy_from_slice(&leaves.to_bytes());
    }
}

/// A switch's translation table: per input port, a VCI index into one
/// vector of entries. An entry freed by `remove_vc` is reused by the
/// next VC installed.
#[derive(Debug, Default)]
struct VcTable {
    /// One index per input port.
    by_port: Vec<SlotIndex>,
    entries: Vec<VcEntry>,
    free: Vec<u32>,
}

impl VcTable {
    fn get(&self, in_port: usize, vci: Vci) -> Option<&VcEntry> {
        let slot = self.by_port.get(in_port)?.get(vci.0)?;
        Some(&self.entries[slot as usize])
    }

    #[inline]
    fn get_mut(&mut self, in_port: usize, vci: Vci) -> Option<&mut VcEntry> {
        let slot = self.by_port.get(in_port)?.get(vci.0)?;
        Some(&mut self.entries[slot as usize])
    }

    /// The entry of `(in_port, vci)`, made empty if there is none.
    ///
    /// # Panics
    /// Panics if the switch has no port `in_port`.
    fn entry(&mut self, in_port: usize, vci: Vci) -> &mut VcEntry {
        let index = &mut self.by_port[in_port];
        let slot = match index.get(vci.0) {
            Some(slot) => slot,
            None => {
                let slot = self.free.pop().unwrap_or_else(|| {
                    self.entries.push(VcEntry::default());
                    index32(self.entries.len() - 1)
                });
                index.insert(vci.0, slot);
                self.entries[slot as usize].in_port = index32(in_port);
                slot
            }
        };
        &mut self.entries[slot as usize]
    }

    fn remove(&mut self, in_port: usize, vci: Vci) {
        let Some(slot) = self.by_port.get_mut(in_port).and_then(|index| index.remove(vci.0)) else {
            return;
        };
        self.entries[slot as usize] = VcEntry::default();
        self.free.push(slot);
    }
}

#[derive(Debug)]
struct Switch {
    ports: Vec<OutPort>,
    table: VcTable,
    /// Cells that matched no table entry.
    unroutable: u64,
    /// Cells discarded by ingress policing.
    policed_drops: u64,
}

impl EndpointEvent {
    /// When the notification reached the endpoint.
    fn time(&self) -> SimTime {
        match self {
            EndpointEvent::CellRx { time, .. } | EndpointEvent::Signal { time, .. } => *time,
        }
    }
}

#[derive(Debug)]
struct Endpoint {
    switch: usize,
    port: usize,
    /// Cells on their way here and signals delivered here, each with
    /// the sequence number of its `(time, sequence number)` key, in key
    /// order after the released front.
    rx: VecDeque<(u64, EndpointEvent)>,
    /// How many entries at the front a `run_until` horizon has covered:
    /// only these are handed out.
    released: usize,
    /// The front entry is lent out by [`AtmNetwork::next_event`]; the
    /// endpoint's next drain drops it.
    lent: bool,
}

impl Endpoint {
    /// Where an entry keyed `(time, seq)` goes: behind every entry with
    /// a smaller key, and behind everything already released, which an
    /// earlier horizon handed out first. Nearly every arrival is the
    /// latest, and goes at the tail.
    #[inline]
    fn place(&self, time: SimTime, seq: u64) -> usize {
        let mut at = self.rx.len();
        while at > self.released {
            let (later_seq, later) = &self.rx[at - 1];
            if (later.time(), *later_seq) < (time, seq) {
                break;
            }
            at -= 1;
        }
        at
    }

    /// File `ev` under key `(ev.time(), seq)` (see `place`).
    fn file(&mut self, seq: u64, ev: EndpointEvent) {
        let at = self.place(ev.time(), seq);
        self.rx.insert(at, (seq, ev));
    }

    /// File a cell arriving at `time` under key `(time, seq)`, its
    /// octets copied once, from the slab into the entry. On the fast
    /// path, the tail, the entry goes in blank and the cell is copied
    /// into it where it lies: built whole first, the entry would wait on
    /// the stack for the push (DESIGN.md §15). Always inlined: a port's
    /// transmit and a private link's hop both file, and with two
    /// callers `#[inline]` alone leaves it out of line.
    #[inline(always)]
    fn file_cell(&mut self, seq: u64, time: SimTime, cell: &[u8; CELL_SIZE]) {
        let at = self.place(time, seq);
        if at < self.rx.len() {
            self.rx.insert(at, (seq, EndpointEvent::CellRx { time, cell: *cell }));
            return;
        }
        self.rx.push_back((seq, EndpointEvent::CellRx { time, cell: [0; CELL_SIZE] }));
        if let Some((_, EndpointEvent::CellRx { cell: filed, .. })) = self.rx.back_mut() {
            *filed = *cell;
        }
    }

    /// Drop the entry lent out last, if any.
    #[inline]
    fn settle(&mut self) {
        if std::mem::take(&mut self.lent) {
            self.rx.pop_front();
            self.released -= 1;
        }
    }

    /// Release every entry due by `until`; returns the latest time
    /// released.
    fn release(&mut self, until: SimTime) -> Option<SimTime> {
        let mut latest = None;
        while let Some((_, ev)) = self.rx.get(self.released) {
            if ev.time() > until {
                break;
            }
            latest = Some(ev.time());
            self.released += 1;
        }
        latest
    }
}

/// A link whose far switch hands every cell from it to one endpoint
/// (the module docs, "The last switch hop is no event either").
#[derive(Debug)]
struct PrivateLink {
    /// The sending port: switch, port.
    from: (u32, u32),
    /// The far switch, the port the link enters it by, and the output
    /// toward the endpoint.
    switch: u32,
    port: u32,
    out: u32,
    /// Cells on the link whose hop at the far switch has not been
    /// taken: `(arrival, sequence number, slot)`, in key order.
    hops: VecDeque<(SimTime, u64, Slot)>,
}

/// The private links and the hops they hold.
#[derive(Debug, Default)]
struct PrivateLinks {
    links: Vec<PrivateLink>,
    /// Hops held over all links: a horizon with none to take costs one
    /// read.
    queued: usize,
    /// Links whose sending port does not defer (its `private` is
    /// `None`).
    inactive: usize,
    /// `links` was found from the tables, links and attachments as
    /// they are.
    classified: bool,
}

impl PrivateLinks {
    /// Hold a cell sent over link `link` until its hop is taken.
    #[inline]
    fn defer(&mut self, link: u32, arrival: SimTime, seq: u64, slot: Slot) {
        self.links[link as usize].hops.push_back((arrival, seq, slot));
        self.queued += 1;
    }
}

#[derive(Debug)]
enum NetEvent {
    /// A cell finishes arriving at a switch input port.
    CellAtSwitch { switch: u32, port: u32, slot: Slot },
    /// An output port becomes free; send the next queued cell.
    PortReady { switch: u32, port: u32 },
    /// A signaling-layer timer/message (handled in `signaling.rs`).
    Signaling(crate::signaling::SignalingEvent),
}

// The event queue sifts a time, a sequence number and one of these on
// every push and pop; cells ride in the slab so that this stays small.
const _: () = assert!(std::mem::size_of::<NetEvent>() <= 16);

/// Event-queue lane of every cell a port puts on a link to a switch: it
/// arrives `tx + propagation` after the `now` it was sent at, and `now`
/// never goes backwards, so on links of equal parameters these pushes
/// come in time order.
const ARRIVALS: usize = 0;
/// Event-queue lane of every port wake-up: mostly at the end of the
/// cell on the wire, `tx` after `now`.
const WAKE_UPS: usize = 1;

/// Event-queue lane of the cells an endpoint injects: each endpoint
/// follows its own clock (the rest share a lane once there are more
/// endpoints than lanes).
fn injection_lane(endpoint: usize) -> usize {
    WAKE_UPS + 1 + endpoint % (LANES - WAKE_UPS - 1)
}

/// The ATM network: switches, links, endpoints, event queue, the cells
/// in flight, and the signaling layer's state.
#[derive(Debug)]
pub struct AtmNetwork {
    switches: Vec<Switch>,
    endpoints: Vec<Endpoint>,
    events: EventQueue<NetEvent>,
    /// The latest endpoint arrival released or private hop taken: the
    /// clock reads the later of this and the event queue's.
    released_at: SimTime,
    cells: CellSlab,
    private: PrivateLinks,
    /// Signalling events in the event queue.
    signals_queued: usize,
    /// Events popped (the work-count tests).
    #[cfg(test)]
    popped: u64,
    pub(crate) signaling: crate::signaling::SignalingState,
}

impl Default for AtmNetwork {
    fn default() -> Self {
        Self::new()
    }
}

impl AtmNetwork {
    /// An empty network.
    pub fn new() -> AtmNetwork {
        AtmNetwork {
            switches: Vec::new(),
            endpoints: Vec::new(),
            events: EventQueue::new(),
            released_at: SimTime::ZERO,
            cells: CellSlab::default(),
            private: PrivateLinks::default(),
            signals_queued: 0,
            #[cfg(test)]
            popped: 0,
            signaling: crate::signaling::SignalingState::default(),
        }
    }

    /// Add a switch with `ports` ports; returns its id.
    pub fn add_switch(&mut self, ports: usize) -> SwitchId {
        let switch = index32(self.switches.len());
        let params = LinkParams::default();
        self.switches.push(Switch {
            ports: (0..ports)
                .map(|port| OutPort {
                    switch,
                    port: index32(port),
                    peer: PortPeer::Unconnected,
                    params,
                    cell_time: tx_time(CELL_SIZE, params.rate_bps),
                    queue: VecDeque::new(),
                    busy_until: SimTime::ZERO,
                    ready_pending: false,
                    up: true,
                    private: None,
                    stats: LinkStats::default(),
                })
                .collect(),
            table: VcTable { by_port: vec![SlotIndex::default(); ports], ..Default::default() },
            unroutable: 0,
            policed_drops: 0,
        });
        SwitchId(self.switches.len() - 1)
    }

    /// Connect two switch ports bidirectionally with the same params.
    ///
    /// # Panics
    /// Panics if either port is already connected or out of range.
    pub fn link(&mut self, a: SwitchId, ap: usize, b: SwitchId, bp: usize, params: LinkParams) {
        assert!(
            matches!(self.switches[a.0].ports[ap].peer, PortPeer::Unconnected),
            "port already connected"
        );
        assert!(
            matches!(self.switches[b.0].ports[bp].peer, PortPeer::Unconnected),
            "port already connected"
        );
        self.unsettle();
        self.switches[a.0].ports[ap]
            .connect(PortPeer::Switch { switch: index32(b.0), port: index32(bp) }, params);
        self.switches[b.0].ports[bp]
            .connect(PortPeer::Switch { switch: index32(a.0), port: index32(ap) }, params);
    }

    /// Attach an endpoint to a switch port; returns its id.
    ///
    /// # Panics
    /// Panics if the port is already connected.
    pub fn attach_endpoint(&mut self, switch: SwitchId, port: usize) -> EndpointId {
        assert!(
            matches!(self.switches[switch.0].ports[port].peer, PortPeer::Unconnected),
            "port already connected"
        );
        self.unsettle();
        let id = self.endpoints.len();
        self.switches[switch.0].ports[port].peer = PortPeer::Endpoint { endpoint: index32(id) };
        self.endpoints.push(Endpoint {
            switch: switch.0,
            port,
            rx: VecDeque::new(),
            released: 0,
            lent: false,
        });
        EndpointId(id)
    }

    /// The switch and port an endpoint attaches to.
    pub fn endpoint_attachment(&self, ep: EndpointId) -> (SwitchId, usize) {
        let e = &self.endpoints[ep.0];
        (SwitchId(e.switch), e.port)
    }

    /// Current simulated time: the last event processed, or the latest
    /// endpoint arrival released, whichever is later.
    pub fn now(&self) -> SimTime {
        self.events.now().max(self.released_at)
    }

    /// Install (or extend) a VC table entry on a switch: cells arriving
    /// on `(in_port, in_vci)` are replicated to each `(out_port,
    /// out_vci)`. Normally done by the signaling layer; exposed for
    /// hand-built configurations and tests. An entry with no outputs
    /// yet adopts `outputs` as its fan-out, so a new VC costs no
    /// allocation beyond the caller's `Vec`.
    ///
    /// # Panics
    /// Panics if the switch has no port `in_port`.
    pub fn install_vc(
        &mut self,
        switch: SwitchId,
        in_port: usize,
        in_vci: Vci,
        outputs: Vec<(usize, Vci)>,
    ) {
        self.unsettle();
        let entry = self.switches[switch.0].table.entry(in_port, in_vci);
        match &mut entry.outputs {
            Some(fan_out) if !fan_out.is_empty() => fan_out.extend(outputs),
            empty => *empty = Some(outputs),
        }
    }

    /// Remove a VC table entry (and the policer installed on it).
    pub fn remove_vc(&mut self, switch: SwitchId, in_port: usize, in_vci: Vci) {
        self.unsettle();
        self.switches[switch.0].table.remove(in_port, in_vci);
    }

    /// Install an ingress policer on `(in_port, in_vci)`: cells outside
    /// the GCRA contract are dropped or CLP-tagged per the policer's
    /// action (usage parameter control for the connection's reserved
    /// resources, §3).
    ///
    /// # Panics
    /// Panics if the switch has no port `in_port`.
    pub fn install_policer(
        &mut self,
        switch: SwitchId,
        in_port: usize,
        in_vci: Vci,
        policer: crate::policing::Gcra,
    ) {
        self.unsettle();
        self.switches[switch.0].table.entry(in_port, in_vci).policer = Some(policer);
    }

    /// `(conforming, non-conforming)` counts of an installed policer.
    pub fn policer_counts(
        &self,
        switch: SwitchId,
        in_port: usize,
        in_vci: Vci,
    ) -> Option<(u64, u64)> {
        let entry = self.switches[switch.0].table.get(in_port, in_vci)?;
        entry.policer.as_ref().map(|g| g.counts())
    }

    /// Cells an ingress policer discarded at a switch.
    pub fn policed_drops(&self, switch: SwitchId) -> u64 {
        self.switches[switch.0].policed_drops
    }

    /// Cut the fibre on a switch port (both directions of the link go
    /// down). Cells already serialized keep propagating; everything
    /// subsequently transmitted into the cut is lost and counted.
    pub fn fail_link(&mut self, a: SwitchId, ap: usize) {
        self.set_link_up(a, ap, false);
    }

    /// Restore a previously failed link (both directions).
    pub fn restore_link(&mut self, a: SwitchId, ap: usize) {
        self.set_link_up(a, ap, true);
    }

    fn set_link_up(&mut self, a: SwitchId, ap: usize, up: bool) {
        self.unsettle();
        self.switches[a.0].ports[ap].up = up;
        if let PortPeer::Switch { switch, port } = self.switches[a.0].ports[ap].peer {
            self.switches[switch as usize].ports[port as usize].up = up;
        }
    }

    /// Inject a cell from an endpoint into the network, its
    /// transmission starting at `at` (clamped to the network's current
    /// time — the past is immutable). The cell's HEC must verify (the
    /// network interface discards bad headers exactly as the gateway's
    /// AIC does); returns `false` on a bad cell. Co-simulation
    /// harnesses use this so sender-side timestamps survive the seam
    /// even when the cell network has been idle.
    pub fn inject_at(&mut self, from: EndpointId, at: SimTime, cell: [u8; CELL_SIZE]) -> bool {
        if Cell::new_checked(cell).is_err() {
            return false;
        }
        let ep = &self.endpoints[from.0];
        let (sw, port) = (ep.switch, ep.port);
        // The endpoint's access link: model serialization + propagation
        // using the switch port's params (symmetric link).
        let p = &self.switches[sw].ports[port];
        let start = at.max(self.now());
        let arrival = start + p.cell_time + p.params.propagation;
        let slot = self.cells.insert(cell);
        self.events.push_lane(
            injection_lane(from.0),
            arrival,
            NetEvent::CellAtSwitch { switch: index32(sw), port: index32(port), slot },
        );
        true
    }

    /// Convenience: build and inject a cell on `vci` with `payload`.
    pub fn inject_on_vci(&mut self, from: EndpointId, vci: Vci, payload: &[u8; 48]) -> bool {
        self.inject_on_vci_at(from, self.now(), vci, payload)
    }

    /// Convenience: build and inject a cell on `vci` starting at `at`.
    pub fn inject_on_vci_at(
        &mut self,
        from: EndpointId,
        at: SimTime,
        vci: Vci,
        payload: &[u8; 48],
    ) -> bool {
        let header = AtmHeader::data(Default::default(), vci);
        let cell = gw_wire::atm::OwnedCell::build(&header, payload).expect("valid payload size");
        self.inject_at(from, at, cell.into_inner())
    }

    /// Take an endpoint's oldest pending notification that a
    /// `run_until` horizon has covered, if any. A cell is lent where it
    /// waits, not copied out: the caller may read it, or change it in
    /// place, until its next call into the network. Draining with
    /// `while let Some(ev) = net.next_event(ep)` allocates nothing.
    #[inline]
    pub fn next_event(&mut self, ep: EndpointId) -> Option<EndpointEvent<&mut [u8; CELL_SIZE]>> {
        let e = &mut self.endpoints[ep.0];
        e.settle();
        if e.released == 0 {
            return None;
        }
        e.lent = true;
        Some(match &mut e.rx.front_mut()?.1 {
            EndpointEvent::CellRx { time, cell } => EndpointEvent::CellRx { time: *time, cell },
            EndpointEvent::Signal { time, signal } => {
                EndpointEvent::Signal { time: *time, signal: signal.clone() }
            }
        })
    }

    /// [`AtmNetwork::next_event`] to exhaustion, each cell copied out.
    #[cfg(test)]
    pub(crate) fn drained(&mut self, ep: EndpointId) -> Vec<EndpointEvent> {
        let mut out = Vec::new();
        while let Some(ev) = self.next_event(ep) {
            out.push(match ev {
                EndpointEvent::CellRx { time, cell } => EndpointEvent::CellRx { time, cell: *cell },
                EndpointEvent::Signal { time, signal } => EndpointEvent::Signal { time, signal },
            });
        }
        out
    }

    /// Drain the notifications for an endpoint that a `run_until`
    /// horizon has covered.
    pub fn poll(&mut self, ep: EndpointId) -> Vec<EndpointEvent> {
        let e = &mut self.endpoints[ep.0];
        e.settle();
        let released = std::mem::take(&mut e.released);
        e.rx.drain(..released).map(|(_, ev)| ev).collect()
    }

    /// Cells currently inside the network: injected and neither sent
    /// down an endpoint's access link nor dropped. Zero whenever the
    /// network is idle — every way out hands its slab slot back.
    pub fn cells_in_flight(&self) -> usize {
        self.cells.in_flight()
    }

    /// Slots the cell slab has grown to: the most cells that were ever
    /// in flight at once.
    pub fn cell_slots(&self) -> usize {
        self.cells.cells.len()
    }

    /// File `signal` at `ep` under the key of the event being handled,
    /// which is at `time`: behind the cells that arrive before it.
    pub(crate) fn deliver_signal(
        &mut self,
        ep: EndpointId,
        time: SimTime,
        signal: crate::signaling::SignalIndication,
    ) {
        let seq = self.events.now_seq();
        self.endpoints[ep.0].file(seq, EndpointEvent::Signal { time, signal });
    }

    /// Queue a signalling event. The deferred hops go back into the
    /// event queue first, and no link defers while it is queued.
    pub(crate) fn schedule_signaling(&mut self, at: SimTime, ev: crate::signaling::SignalingEvent) {
        self.materialize();
        self.signals_queued += 1;
        self.events.push(at, NetEvent::Signaling(ev));
    }

    /// Inter-switch adjacency of one switch: `(out_port, neighbor
    /// switch, neighbor's port)` for every connected switch port.
    pub(crate) fn switch_neighbors(&self, sw: usize) -> Vec<(usize, usize, usize)> {
        self.switches[sw]
            .ports
            .iter()
            .enumerate()
            .filter_map(|(p, out)| match (out.up, out.peer) {
                (true, PortPeer::Switch { switch, port }) => {
                    Some((p, switch as usize, port as usize))
                }
                _ => None,
            })
            .collect()
    }

    /// Serialization rate of a switch output port.
    pub(crate) fn port_rate(&self, sw: usize, port: usize) -> u64 {
        self.switches[sw].ports[port].params.rate_bps
    }

    /// Statistics for a switch output port.
    pub fn link_stats(&self, switch: SwitchId, port: usize) -> LinkStats {
        self.switches[switch.0].ports[port].stats
    }

    /// Cells that arrived at a switch with no matching VC entry.
    pub fn unroutable_cells(&self, switch: SwitchId) -> u64 {
        self.switches[switch.0].unroutable
    }

    /// A cell has finished arriving at a switch input port: police it,
    /// translate it, and offer a copy to every output of its fan-out.
    /// The arriving slot travels on with the last output; earlier
    /// outputs get slots of their own, and only once admitted.
    fn cell_at_switch(&mut self, now: SimTime, sw: u32, in_port: u32, slot: Slot) {
        use crate::policing::{Conformance, PolicingAction};
        let AtmNetwork { switches, endpoints, events, cells, private, .. } = self;
        let Switch { ports, table, unroutable, policed_drops } = &mut switches[sw as usize];
        // From the header word, not through `AtmHeader::parse`'s
        // `Result`, whose narrow stack stores `restamp`'s compare would
        // reload wider (DESIGN.md §15).
        let [b0, b1, b2, b3, ..] = cells.cells[slot as usize];
        let arrived = AtmHeader::from_word(u32::from_be_bytes([b0, b1, b2, b3]));
        let mut header = arrived;
        let Some(entry) = table.get_mut(in_port as usize, header.vci) else {
            *unroutable += 1;
            cells.release(slot);
            return;
        };
        // Usage parameter control at the ingress (GCRA).
        if let Some(policer) = &mut entry.policer {
            if policer.offer(now) == Conformance::NonConforming {
                match policer.action() {
                    PolicingAction::Drop => {
                        *policed_drops += 1;
                        cells.release(slot);
                        return;
                    }
                    // The header written below carries the tag (and
                    // the HEC restamped over it).
                    PolicingAction::Tag => header.clp = true,
                }
            }
        }
        let Some(outputs) = &entry.outputs else {
            *unroutable += 1;
            cells.release(slot);
            return;
        };
        let Some((&(last_port, last_vci), earlier)) = outputs.split_last() else {
            cells.release(slot); // an empty fan-out leads nowhere
            return;
        };
        for &(out_port, out_vci) in earlier {
            let p = &mut ports[out_port];
            if p.admits(header.clp) {
                let mut copy = cells.cells[slot as usize];
                restamp(&mut copy, &arrived, AtmHeader { vci: out_vci, ..header });
                let copy = cells.insert(copy);
                p.offer(events, cells, endpoints, private, now, copy, false);
            }
        }
        let p = &mut ports[last_port];
        if p.admits(header.clp) {
            restamp(
                &mut cells.cells[slot as usize],
                &arrived,
                AtmHeader { vci: last_vci, ..header },
            );
            p.offer(events, cells, endpoints, private, now, slot, earlier.is_empty());
        } else {
            cells.release(slot);
        }
    }

    /// Process one event; returns its time, or `None` when idle. An
    /// endpoint arrival is not an event: `step` releases none. A cell
    /// held on a private link goes back into the event queue first, and
    /// its hop is then an event like any other.
    pub fn step(&mut self) -> Option<SimTime> {
        self.materialize();
        self.handle_next()
    }

    /// Pop one event and handle it.
    fn handle_next(&mut self) -> Option<SimTime> {
        let (now, event) = self.events.pop()?;
        #[cfg(test)]
        {
            self.popped += 1;
        }
        match event {
            NetEvent::CellAtSwitch { switch, port, slot } => {
                self.cell_at_switch(now, switch, port, slot)
            }
            NetEvent::PortReady { switch, port } => {
                let p = &mut self.switches[switch as usize].ports[port as usize];
                p.ready_pending = false;
                p.transmit(
                    &mut self.events,
                    &mut self.cells,
                    &mut self.endpoints,
                    &mut self.private,
                    now,
                );
            }
            NetEvent::Signaling(ev) => {
                self.signals_queued -= 1;
                crate::signaling::handle_event(self, now, ev);
            }
        }
        Some(now)
    }

    /// Release every endpoint entry due by `until`, and move the clock
    /// to the latest one.
    fn release_arrivals(&mut self, until: SimTime) {
        for e in &mut self.endpoints {
            if let Some(t) = e.release(until) {
                self.released_at = self.released_at.max(t);
            }
        }
    }

    /// When the network next has work: its earliest event, or the
    /// earliest hop a private link holds.
    pub fn next_event_time(&self) -> Option<SimTime> {
        let held =
            self.private.links.iter().filter_map(|link| link.hops.front()).map(|h| h.0).min();
        match (self.events.peek_time(), held) {
            (Some(event), Some(hop)) => Some(event.min(hop)),
            (event, hop) => event.or(hop),
        }
    }

    /// Run until simulated time reaches `until` or the network idles,
    /// take the private links' hops due by `until`, then release the
    /// endpoint arrivals due by `until`.
    pub fn run_until(&mut self, until: SimTime) {
        self.settle_private_links();
        while let Some(t) = self.events.peek_time() {
            if t > until {
                break;
            }
            self.handle_next();
        }
        self.take_private_hops(until);
        self.release_arrivals(until);
    }

    /// Run until no events remain, and release every endpoint arrival.
    pub fn run_to_idle(&mut self) {
        self.run_until(SimTime(u64::MAX));
    }

    /// Something a private link's classification reads is about to
    /// change: put the deferred hops back into the event queue, and
    /// classify again at the next `run_until`.
    fn unsettle(&mut self) {
        self.materialize();
        self.private.links.clear();
        self.private.inactive = 0;
        self.private.classified = false;
    }

    /// Put every deferred hop back into the event queue as the
    /// `CellAtSwitch` it stands for, under its own key, and stop every
    /// link deferring.
    fn materialize(&mut self) {
        let PrivateLinks { links, queued, inactive, .. } = &mut self.private;
        if *inactive == links.len() {
            return;
        }
        for link in links.iter_mut() {
            for (arrival, seq, slot) in link.hops.drain(..) {
                let (switch, port) = (link.switch, link.port);
                self.events.push_keyed(arrival, seq, NetEvent::CellAtSwitch { switch, port, slot });
            }
            let (switch, port) = link.from;
            self.switches[switch as usize].ports[port as usize].private = None;
        }
        *queued = 0;
        *inactive = links.len();
    }

    /// Before a run: classify the links if anything changed, and let
    /// every private link whose output is idle defer, unless a
    /// signalling event is queued.
    fn settle_private_links(&mut self) {
        if !self.private.classified {
            self.classify_private_links();
        }
        if self.private.inactive == 0 || self.signals_queued != 0 {
            return;
        }
        // Every cell the link has yet to bring is an event at or after
        // the clock, or a hop deferred from now on: an output idle by
        // the clock, fed by nothing else and no slower than the link,
        // finds each of them idle in turn.
        let now = self.now();
        let PrivateLinks { links, inactive, .. } = &mut self.private;
        for (i, link) in links.iter().enumerate() {
            let out = &self.switches[link.switch as usize].ports[link.out as usize];
            let idle = out.queue.is_empty() && !out.ready_pending && out.busy_until <= now;
            let (switch, port) = link.from;
            let sender = &mut self.switches[switch as usize].ports[port as usize];
            if idle && sender.private.is_none() {
                sender.private = Some(index32(i));
                *inactive -= 1;
            }
        }
    }

    /// Find the private links: for each switch port that a link enters
    /// by, whether every VC on it is unpoliced and leads to one output
    /// alone, that output leads to an endpoint, is up, is fed by no
    /// other input and serializes a cell no slower than the link.
    fn classify_private_links(&mut self) {
        /// Which inputs feed an output.
        #[derive(Clone, Copy, PartialEq)]
        enum Feed {
            Nothing,
            Only(usize),
            Several,
        }
        let mut links = Vec::new();
        for (b, sw) in self.switches.iter().enumerate() {
            let mut feeds = vec![Feed::Nothing; sw.ports.len()];
            // Per input: no VC yet, or the one output every VC on it
            // leads to alone (`None` if there is none).
            let mut sole: Vec<Option<Option<usize>>> = vec![None; sw.ports.len()];
            for entry in sw.table.entries.iter().filter(|entry| !entry.is_free()) {
                let input = entry.in_port as usize;
                let outputs = entry.outputs.as_deref().unwrap_or(&[]);
                for &(out, _) in outputs {
                    if let Some(feed) = feeds.get_mut(out) {
                        *feed = match *feed {
                            Feed::Nothing => Feed::Only(input),
                            Feed::Only(q) if q == input => Feed::Only(input),
                            _ => Feed::Several,
                        };
                    }
                }
                let this = match (outputs, &entry.policer) {
                    ([(out, _)], None) => Some(*out),
                    _ => None,
                };
                sole[input] = Some(match sole[input] {
                    Some(before) if before != this => None,
                    _ => this,
                });
            }
            for (input, port) in sw.ports.iter().enumerate() {
                let (PortPeer::Switch { switch, port: from_port }, Some(Some(out))) =
                    (port.peer, sole[input])
                else {
                    continue;
                };
                let sender = &self.switches[switch as usize].ports[from_port as usize];
                let Some(o) = sw.ports.get(out) else { continue };
                if feeds[out] == Feed::Only(input)
                    && matches!(o.peer, PortPeer::Endpoint { .. })
                    && o.up
                    && port.up
                    && sender.cell_time > SimTime::ZERO
                    && o.cell_time <= sender.cell_time
                {
                    links.push(PrivateLink {
                        from: (switch, from_port),
                        switch: index32(b),
                        port: index32(input),
                        out: index32(out),
                        hops: VecDeque::new(),
                    });
                }
            }
        }
        self.private = PrivateLinks { inactive: links.len(), links, queued: 0, classified: true };
    }

    /// Take every deferred hop due by `until`: the far switch's lookup,
    /// admission and restamp, and the output's transmit and filing at
    /// the endpoint, each at the cell's arrival, as its `CellAtSwitch`
    /// would have done them; and move the clock to the latest.
    ///
    /// The filing's key is the hop's own `(time, sequence number)`
    /// shifted to the arrival at the endpoint: the endpoint's FIFO holds
    /// only this output's cells, in arrival order, and signals filed
    /// before the link deferred (at earlier times) or after its hops
    /// were taken (under later keys), so every comparison comes out as
    /// the key its transmit would have taken gives.
    fn take_private_hops(&mut self, until: SimTime) {
        if self.private.queued == 0 {
            return;
        }
        let AtmNetwork { switches, endpoints, cells, private, released_at, .. } = self;
        let PrivateLinks { links, queued, .. } = private;
        for link in links.iter_mut() {
            let Switch { ports, table, unroutable, .. } = &mut switches[link.switch as usize];
            while let Some(&(now, seq, slot)) = link.hops.front() {
                if now > until {
                    break;
                }
                link.hops.pop_front();
                *queued -= 1;
                *released_at = (*released_at).max(now);
                let [b0, b1, b2, b3, ..] = cells.cells[slot as usize];
                let arrived = AtmHeader::from_word(u32::from_be_bytes([b0, b1, b2, b3]));
                let route = table.get(link.port as usize, arrived.vci).and_then(|entry| {
                    entry.outputs.as_deref().and_then(<[(usize, Vci)]>::first).copied()
                });
                let Some((out, vci)) = route else {
                    *unroutable += 1;
                    cells.release(slot);
                    continue;
                };
                let p = &mut ports[out];
                if p.admits(arrived.clp) {
                    restamp(
                        &mut cells.cells[slot as usize],
                        &arrived,
                        AtmHeader { vci, ..arrived },
                    );
                    p.stats.peak_queue = p.stats.peak_queue.max(1);
                    let done = now + p.cell_time;
                    p.busy_until = done;
                    p.stats.cells_tx += 1;
                    if let PortPeer::Endpoint { endpoint } = p.peer {
                        let arrival = done + p.params.propagation;
                        endpoints[endpoint as usize].file_cell(
                            seq,
                            arrival,
                            &cells.cells[slot as usize],
                        );
                    }
                }
                cells.release(slot);
            }
        }
    }
}

impl OutPort {
    /// Lead the port to `peer` over a link of `params`.
    fn connect(&mut self, peer: PortPeer, params: LinkParams) {
        self.peer = peer;
        self.params = params;
        self.cell_time = tx_time(CELL_SIZE, params.rate_bps);
    }

    /// The queueing discipline's verdict on one more cell: refused (and
    /// counted) at a full queue, and above the discard threshold when
    /// the cell carries CLP.
    fn admits(&mut self, clp: bool) -> bool {
        if self.queue.len() >= self.params.queue_cells {
            self.stats.full_drops += 1;
            return false;
        }
        if clp && self.queue.len() >= self.params.clp_threshold {
            self.stats.clp_drops += 1;
            return false;
        }
        true
    }

    /// Queue an admitted cell and see that the port gets to send it.
    ///
    /// The port is owed a wake-up when it can next transmit: at the end
    /// of the cell in flight, or — when it is idle — at `now`, as the
    /// last event pushed at `now`. Events of one timestamp pop in push
    /// order, so if nothing else is pending at `now` and the caller
    /// pushes nothing more (`sole_output`), that wake-up would be the
    /// very next event popped: transmitting here and now is the same
    /// run of the model, one heap round-trip shorter. In every other
    /// case — other events at `now` must run first, or a later output
    /// of the same fan-out still has events to push — the wake-up goes
    /// through the queue and keeps its place in the order.
    #[expect(
        clippy::too_many_arguments,
        reason = "the queue, slab, endpoints and private links are borrowed apart from the switch"
    )]
    fn offer(
        &mut self,
        events: &mut EventQueue<NetEvent>,
        cells: &mut CellSlab,
        endpoints: &mut [Endpoint],
        private: &mut PrivateLinks,
        now: SimTime,
        slot: Slot,
        sole_output: bool,
    ) {
        self.queue.push_back(slot);
        self.stats.peak_queue = self.stats.peak_queue.max(self.queue.len());
        if self.ready_pending {
            return;
        }
        if self.busy_until > now {
            self.wake_at(events, self.busy_until);
        } else if sole_output && events.peek_time() != Some(now) {
            self.transmit(events, cells, endpoints, private, now);
        } else {
            self.wake_at(events, now);
        }
    }

    fn wake_at(&mut self, events: &mut EventQueue<NetEvent>, at: SimTime) {
        self.ready_pending = true;
        events.push_lane(
            WAKE_UPS,
            at,
            NetEvent::PortReady { switch: self.switch, port: self.port },
        );
    }

    /// The port's turn to send: put the head of its queue on the link.
    /// A cell bound for an endpoint leaves the slab for the endpoint's
    /// FIFO under the key its arrival event would have had; one bound
    /// over a private link waits there under the key of its arrival at
    /// the far switch.
    fn transmit(
        &mut self,
        events: &mut EventQueue<NetEvent>,
        cells: &mut CellSlab,
        endpoints: &mut [Endpoint],
        private: &mut PrivateLinks,
        now: SimTime,
    ) {
        if self.busy_until > now {
            // Woken while a cell is still serializing: try again when
            // it finishes.
            self.wake_at(events, self.busy_until);
            return;
        }
        let Some(slot) = self.queue.pop_front() else { return };
        if !self.up {
            // The fibre is cut: the cell is lost in the failure.
            self.stats.down_drops += 1;
            cells.release(slot);
            if !self.queue.is_empty() {
                self.wake_at(events, now);
            }
            return;
        }
        let done = now + self.cell_time;
        let arrival = done + self.params.propagation;
        self.busy_until = done;
        self.stats.cells_tx += 1;
        match self.peer {
            PortPeer::Switch { switch, port } => match self.private {
                Some(link) => private.defer(link, arrival, events.take_seq(arrival), slot),
                None => events.push_lane(
                    ARRIVALS,
                    arrival,
                    NetEvent::CellAtSwitch { switch, port, slot },
                ),
            },
            PortPeer::Endpoint { endpoint } => {
                let seq = events.take_seq(arrival);
                endpoints[endpoint as usize].file_cell(seq, arrival, &cells.cells[slot as usize]);
                cells.release(slot);
            }
            PortPeer::Unconnected => cells.release(slot), // falls off the edge
        }
        if !self.queue.is_empty() {
            self.wake_at(events, done);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// ep0 — sw0 — sw1 — ep1, one VC through both switches.
    fn two_switch_net() -> (AtmNetwork, EndpointId, EndpointId) {
        let mut net = AtmNetwork::new();
        let s0 = net.add_switch(4);
        let s1 = net.add_switch(4);
        net.link(s0, 0, s1, 0, LinkParams::default());
        let e0 = net.attach_endpoint(s0, 1);
        let e1 = net.attach_endpoint(s1, 1);
        // e0 -> s0 port1 (vci 100) -> s0 port0 (vci 200) -> s1 port0 -> s1 port1 (vci 300) -> e1
        net.install_vc(s0, 1, Vci(100), vec![(0, Vci(200))]);
        net.install_vc(s1, 0, Vci(200), vec![(1, Vci(300))]);
        (net, e0, e1)
    }

    #[test]
    fn cell_traverses_two_switches_with_vci_translation() {
        let (mut net, e0, e1) = two_switch_net();
        assert!(net.inject_on_vci(e0, Vci(100), &[0x42; 48]));
        net.run_to_idle();
        let events = net.poll(e1);
        assert_eq!(events.len(), 1);
        match &events[0] {
            EndpointEvent::CellRx { cell, .. } => {
                let c = Cell::new_checked(&cell[..]).expect("HEC rewritten correctly");
                assert_eq!(c.header().vci, Vci(300), "VCI translated at each hop");
                assert_eq!(c.payload(), &[0x42; 48]);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn bad_hec_rejected_at_injection() {
        let (mut net, e0, _) = two_switch_net();
        let mut cell = [0u8; CELL_SIZE];
        AtmHeader::data(Default::default(), Vci(100)).emit(&mut cell).unwrap();
        cell[4] ^= 0xFF; // break HEC
        assert!(!net.inject_at(e0, SimTime::ZERO, cell));
    }

    #[test]
    fn unroutable_cells_counted() {
        let (mut net, e0, e1) = two_switch_net();
        net.inject_on_vci(e0, Vci(999), &[0; 48]);
        net.run_to_idle();
        assert!(net.poll(e1).is_empty());
        assert_eq!(net.unroutable_cells(SwitchId(0)), 1);
    }

    #[test]
    fn multipoint_replication() {
        let mut net = AtmNetwork::new();
        let s0 = net.add_switch(4);
        let e0 = net.attach_endpoint(s0, 0);
        let e1 = net.attach_endpoint(s0, 1);
        let e2 = net.attach_endpoint(s0, 2);
        net.install_vc(s0, 0, Vci(50), vec![(1, Vci(60)), (2, Vci(70))]);
        net.inject_on_vci(e0, Vci(50), &[7; 48]);
        net.run_to_idle();
        let r1 = net.poll(e1);
        let r2 = net.poll(e2);
        assert_eq!(r1.len(), 1);
        assert_eq!(r2.len(), 1);
        if let (EndpointEvent::CellRx { cell: c1, .. }, EndpointEvent::CellRx { cell: c2, .. }) =
            (&r1[0], &r2[0])
        {
            assert_eq!(Cell::new_unchecked(&c1[..]).header().vci, Vci(60));
            assert_eq!(Cell::new_unchecked(&c2[..]).header().vci, Vci(70));
        } else {
            panic!("expected cells");
        }
    }

    #[test]
    fn latency_includes_serialization_and_propagation() {
        let (mut net, e0, e1) = two_switch_net();
        net.inject_on_vci(e0, Vci(100), &[0; 48]);
        net.run_to_idle();
        let events = net.poll(e1);
        let EndpointEvent::CellRx { time, .. } = events[0] else { panic!() };
        // 3 serializations (access, inter-switch, egress) + 3 propagations.
        let ser = tx_time(CELL_SIZE, DEFAULT_LINK_RATE);
        let expected = SimTime::from_ns(3 * ser.as_ns() + 3 * SimTime::from_us(5).as_ns());
        assert_eq!(time, expected);
    }

    #[test]
    fn queue_overflow_drops_cells() {
        let mut net = AtmNetwork::new();
        let s0 = net.add_switch(2);
        let e0 = net.attach_endpoint(s0, 0);
        let e1 = net.attach_endpoint(s0, 1);
        // Tiny queue on the egress port.
        net.switches[0].ports[1].params.queue_cells = 4;
        net.switches[0].ports[1].params.clp_threshold = 4;
        net.install_vc(s0, 0, Vci(10), vec![(1, Vci(10))]);
        // Burst of 50 cells arrives at the egress queue.
        for _ in 0..50 {
            net.inject_on_vci(e0, Vci(10), &[1; 48]);
        }
        net.run_to_idle();
        let stats = net.link_stats(s0, 1);
        assert!(stats.full_drops > 0, "expected overflow drops");
        let delivered = net.poll(e1).len() as u64;
        assert_eq!(delivered + stats.full_drops, 50);
        assert!(stats.peak_queue <= 4);
    }

    #[test]
    fn clp_cells_dropped_preferentially() {
        let mut net = AtmNetwork::new();
        let s0 = net.add_switch(2);
        let e0 = net.attach_endpoint(s0, 0);
        let _e1 = net.attach_endpoint(s0, 1);
        net.switches[0].ports[1].params.queue_cells = 32;
        net.switches[0].ports[1].params.clp_threshold = 2;
        net.install_vc(s0, 0, Vci(10), vec![(1, Vci(10))]);
        for i in 0..20 {
            let header =
                AtmHeader { clp: i % 2 == 0, ..AtmHeader::data(Default::default(), Vci(10)) };
            let cell = gw_wire::atm::OwnedCell::build(&header, &[0; 48]).unwrap();
            net.inject_at(e0, SimTime::ZERO, cell.into_inner());
        }
        net.run_to_idle();
        let stats = net.link_stats(s0, 1);
        assert!(stats.clp_drops > 0, "CLP cells should be shed above threshold");
        assert_eq!(stats.full_drops, 0, "queue never actually filled");
    }

    #[test]
    fn fifo_order_preserved_per_vc() {
        let (mut net, e0, e1) = two_switch_net();
        for i in 0..20u8 {
            net.inject_on_vci(e0, Vci(100), &[i; 48]);
        }
        net.run_to_idle();
        let payload_firsts: Vec<u8> = net
            .poll(e1)
            .iter()
            .map(|e| match e {
                EndpointEvent::CellRx { cell, .. } => cell[5],
                _ => panic!(),
            })
            .collect();
        let expected: Vec<u8> = (0..20).collect();
        assert_eq!(payload_firsts, expected, "sequenced delivery (§5.2 assumption)");
    }

    #[test]
    fn remove_vc_stops_forwarding() {
        let (mut net, e0, e1) = two_switch_net();
        net.remove_vc(SwitchId(0), 1, Vci(100));
        net.inject_on_vci(e0, Vci(100), &[0; 48]);
        net.run_to_idle();
        assert!(net.poll(e1).is_empty());
    }

    /// Delivered cells' `(VCI, first payload octet)`, in arrival order.
    fn delivered(net: &mut AtmNetwork, ep: EndpointId) -> Vec<(u16, u8)> {
        net.drained(ep)
            .into_iter()
            .filter_map(|e| match e {
                EndpointEvent::CellRx { cell, .. } => {
                    Some((Cell::new_unchecked(cell).header().vci.0, cell[HEADER_SIZE]))
                }
                _ => None,
            })
            .collect()
    }

    #[test]
    fn switch_table_edges_vci_0_and_65535_remove_reinstall_and_policer_only() {
        use crate::policing::{Gcra, GcraParams, PolicingAction};
        let mut net = AtmNetwork::new();
        let s0 = net.add_switch(3);
        let [e0, e1, e2] = [0, 1, 2].map(|p| net.attach_endpoint(s0, p));
        // The two ends of the VCI space, from one input port, and the
        // same VCI on another input port going somewhere else.
        net.install_vc(s0, 0, Vci(0), vec![(1, Vci(u16::MAX))]);
        net.install_vc(s0, 0, Vci(u16::MAX), vec![(2, Vci(0))]);
        net.install_vc(s0, 1, Vci(0), vec![(2, Vci(5))]);
        net.inject_on_vci(e0, Vci(0), &[1; 48]);
        net.inject_on_vci(e0, Vci(u16::MAX), &[2; 48]);
        net.inject_on_vci(e1, Vci(0), &[3; 48]);
        net.run_to_idle();
        assert_eq!(delivered(&mut net, e1), [(u16::MAX, 1)]);
        assert_eq!(delivered(&mut net, e2), [(0, 2), (5, 3)]);

        // Removed: unroutable, and the other port's VCI 0 is untouched.
        // Reinstalled elsewhere: reuses the freed entry, and carries
        // none of the old fan-out.
        net.remove_vc(s0, 0, Vci(0));
        net.remove_vc(s0, 0, Vci(0));
        net.inject_on_vci(e0, Vci(0), &[4; 48]);
        net.inject_on_vci(e1, Vci(0), &[5; 48]);
        net.run_to_idle();
        assert_eq!(net.unroutable_cells(s0), 1);
        assert_eq!(delivered(&mut net, e2), [(5, 5)]);
        let entries = net.switches[0].table.entries.len();
        net.install_vc(s0, 0, Vci(0), vec![(2, Vci(9))]);
        assert_eq!(net.switches[0].table.entries.len(), entries, "the freed entry is reused");
        net.inject_on_vci(e0, Vci(0), &[6; 48]);
        net.run_to_idle();
        assert_eq!((delivered(&mut net, e1), delivered(&mut net, e2)), (vec![], vec![(9, 6)]));

        // A policer with no route: policed, then counted unroutable.
        // Removing the VC removes its policer with it.
        let strict = GcraParams { increment: SimTime::from_secs(1), tolerance: SimTime::ZERO };
        net.install_policer(s0, 2, Vci(7), Gcra::new(strict, PolicingAction::Drop));
        for _ in 0..2 {
            net.inject_on_vci(e2, Vci(7), &[7; 48]);
        }
        net.run_to_idle();
        assert_eq!(net.policer_counts(s0, 2, Vci(7)), Some((1, 1)));
        assert_eq!((net.policed_drops(s0), net.unroutable_cells(s0)), (1, 2));
        net.remove_vc(s0, 2, Vci(7));
        assert_eq!(net.policer_counts(s0, 2, Vci(7)), None);
        assert_eq!(net.policer_counts(s0, 2, Vci(8)), None, "never installed");
        assert_eq!(net.cells_in_flight(), 0);
    }

    #[test]
    #[should_panic(expected = "already connected")]
    fn double_link_panics() {
        let mut net = AtmNetwork::new();
        let s0 = net.add_switch(2);
        let s1 = net.add_switch(2);
        net.link(s0, 0, s1, 0, LinkParams::default());
        net.link(s0, 0, s1, 1, LinkParams::default());
    }

    #[test]
    fn policer_drop_enforces_contract() {
        use crate::policing::{Gcra, GcraParams, PolicingAction};
        let (mut net, e0, e1) = two_switch_net();
        // Contract: one cell per 100 us; the source sends one per 10 us.
        net.install_policer(
            SwitchId(0),
            1,
            Vci(100),
            Gcra::new(
                GcraParams { increment: SimTime::from_us(100), tolerance: SimTime::ZERO },
                PolicingAction::Drop,
            ),
        );
        for _ in 0..100 {
            net.inject_on_vci(e0, Vci(100), &[0; 48]);
            net.run_until(net.now() + SimTime::from_us(10));
        }
        net.run_to_idle();
        let delivered =
            net.poll(e1).iter().filter(|e| matches!(e, EndpointEvent::CellRx { .. })).count();
        assert!(delivered <= 12, "10x over contract must be shed: {delivered}");
        assert!(net.policed_drops(SwitchId(0)) >= 88);
        let (ok, bad) = net.policer_counts(SwitchId(0), 1, Vci(100)).unwrap();
        assert_eq!(ok as usize, delivered);
        assert_eq!(ok + bad, 100);
    }

    #[test]
    fn a_header_is_rewritten_only_where_it_changes() {
        use crate::policing::{Gcra, GcraParams, PolicingAction};
        let mut net = AtmNetwork::new();
        let s0 = net.add_switch(4);
        let e0 = net.attach_endpoint(s0, 0);
        let outs: Vec<_> = (1..4).map(|port| net.attach_endpoint(s0, port)).collect();
        // Same VCI out on ports 1 and 3 (3 is the last output, which
        // forwards the cell itself), a new one on port 2.
        net.install_vc(s0, 0, Vci(50), vec![(1, Vci(50)), (2, Vci(70)), (3, Vci(50))]);
        // Every cell after the first is over contract and gets tagged.
        let gcra = GcraParams { increment: SimTime::from_secs(1), tolerance: SimTime::ZERO };
        net.install_policer(s0, 0, Vci(50), Gcra::new(gcra, PolicingAction::Tag));
        let mut sent = [0u8; CELL_SIZE];
        AtmHeader { gfc: 5, pti: 2, ..AtmHeader::data(Default::default(), Vci(50)) }
            .emit(&mut sent)
            .unwrap();
        sent[HEADER_SIZE..].fill(0x3C);
        for _ in 0..2 {
            assert!(net.inject_at(e0, SimTime::ZERO, sent));
            net.run_to_idle();
        }
        for (out, vci) in outs.into_iter().zip([50, 70, 50]) {
            let got: Vec<_> = net
                .poll(out)
                .into_iter()
                .filter_map(|e| match e {
                    EndpointEvent::CellRx { cell, .. } => Some(cell),
                    _ => None,
                })
                .collect();
            let [untagged, tagged] = got[..] else { panic!("two cells on vci {vci}: {got:?}") };
            let header = Cell::new_unchecked(sent).header();
            for (cell, clp) in [(untagged, false), (tagged, true)] {
                let mut want = [0u8; CELL_SIZE];
                Cell::new_unchecked(&mut want[..])
                    .set_header(&AtmHeader { vci: Vci(vci), clp, ..header })
                    .unwrap();
                want[HEADER_SIZE..].fill(0x3C);
                assert_eq!(cell, want, "vci {vci} clp {clp}");
            }
            if vci == 50 {
                assert_eq!(untagged, sent, "unchanged: the octets it arrived with");
            }
        }
    }

    #[test]
    fn policer_tag_marks_clp_for_downstream_discard() {
        use crate::policing::{Gcra, GcraParams, PolicingAction};
        let (mut net, e0, e1) = two_switch_net();
        net.install_policer(
            SwitchId(0),
            1,
            Vci(100),
            Gcra::new(
                GcraParams { increment: SimTime::from_us(100), tolerance: SimTime::ZERO },
                PolicingAction::Tag,
            ),
        );
        for _ in 0..20 {
            net.inject_on_vci(e0, Vci(100), &[0; 48]);
            net.run_until(net.now() + SimTime::from_us(10));
        }
        net.run_to_idle();
        let cells: Vec<_> = net
            .poll(e1)
            .into_iter()
            .filter_map(|e| match e {
                EndpointEvent::CellRx { cell, .. } => Some(cell),
                _ => None,
            })
            .collect();
        assert_eq!(cells.len(), 20, "tagging forwards everything (no congestion here)");
        let tagged = cells.iter().filter(|c| AtmHeader::parse(&c[..]).unwrap().clp).count();
        assert!(tagged >= 17, "out-of-contract cells must carry CLP: {tagged}");
        // Tagged cells still carry a valid (restamped) HEC.
        for c in &cells {
            assert!(Cell::new_checked(&c[..]).is_ok());
        }
    }

    #[test]
    fn failed_link_loses_cells_and_counts() {
        let (mut net, e0, e1) = two_switch_net();
        net.inject_on_vci(e0, Vci(100), &[1; 48]);
        net.run_to_idle();
        assert_eq!(net.poll(e1).len(), 1);
        net.fail_link(SwitchId(0), 0);
        assert!(!net.switches[0].ports[0].up);
        assert!(!net.switches[1].ports[0].up, "both directions down");
        for _ in 0..5 {
            net.inject_on_vci(e0, Vci(100), &[2; 48]);
        }
        net.run_to_idle();
        assert!(net.poll(e1).is_empty(), "cells die in the cut");
        assert_eq!(net.link_stats(SwitchId(0), 0).down_drops, 5);
        // Restoration resumes delivery.
        net.restore_link(SwitchId(0), 0);
        net.inject_on_vci(e0, Vci(100), &[3; 48]);
        net.run_to_idle();
        assert_eq!(net.poll(e1).len(), 1);
    }

    #[test]
    fn signaling_routes_around_failed_links() {
        // A triangle: s0-s1 direct, plus s0-s2-s1 detour.
        let mut net = AtmNetwork::new();
        let s0 = net.add_switch(4);
        let s1 = net.add_switch(4);
        let s2 = net.add_switch(4);
        net.link(s0, 0, s1, 0, LinkParams::default());
        net.link(s0, 1, s2, 0, LinkParams::default());
        net.link(s2, 1, s1, 1, LinkParams::default());
        let e0 = net.attach_endpoint(s0, 3);
        let e1 = net.attach_endpoint(s1, 3);
        net.fail_link(SwitchId(0), 0); // cut the direct path
        let conn =
            net.connect(net.now(), e0, &[e1], crate::signaling::TrafficContract::cbr(1_000_000));
        net.run_until(SimTime::from_ms(50));
        assert_eq!(
            net.conn_state(conn),
            Some(crate::signaling::ConnState::Established),
            "setup must take the detour"
        );
        // The detour links carry the reservation; the cut one does not.
        assert_eq!(net.reserved_bps(s0, 0), 0);
        assert_eq!(net.reserved_bps(s0, 1), 1_000_000);
        assert_eq!(net.reserved_bps(s2, 1), 1_000_000);
    }

    /// Two parallel links s0 -> s1 (ports 0 and 1), sources on s0
    /// ports 2 and 3, one sink on s1 port 2. VCI 10 rides link 0,
    /// VCI 20 rides link 1, VCI 30 fans out over both.
    fn parallel_links_net() -> (AtmNetwork, EndpointId, EndpointId, EndpointId) {
        let mut net = AtmNetwork::new();
        let s0 = net.add_switch(4);
        let s1 = net.add_switch(4);
        net.link(s0, 0, s1, 0, LinkParams::default());
        net.link(s0, 1, s1, 1, LinkParams::default());
        let a = net.attach_endpoint(s0, 2);
        let b = net.attach_endpoint(s0, 3);
        let sink = net.attach_endpoint(s1, 2);
        net.install_vc(s0, 2, Vci(10), vec![(0, Vci(10))]);
        net.install_vc(s1, 0, Vci(10), vec![(2, Vci(10))]);
        net.install_vc(s0, 3, Vci(20), vec![(1, Vci(20))]);
        net.install_vc(s1, 1, Vci(20), vec![(2, Vci(20))]);
        net.install_vc(s0, 2, Vci(30), vec![(0, Vci(10)), (1, Vci(20))]);
        (net, a, b, sink)
    }

    fn first_payload_octets(events: Vec<EndpointEvent>) -> Vec<u8> {
        events
            .into_iter()
            .map(|e| match e {
                EndpointEvent::CellRx { cell, .. } => cell[HEADER_SIZE],
                other => panic!("{other:?}"),
            })
            .collect()
    }

    /// The tie rule, in words: events bearing the same timestamp run in
    /// the order they were pushed. A cell reaching an idle port owes
    /// that port a wake-up at `now`, pushed last; the port may transmit
    /// on the spot only when that wake-up would be the next event
    /// popped anyway.
    #[test]
    fn same_timestamp_means_push_order_and_inline_transmit_keeps_it() {
        let ser = tx_time(CELL_SIZE, DEFAULT_LINK_RATE);

        // Alone at its instant, bound for one idle port: sent at once.
        let (mut net, a, _, sink) = parallel_links_net();
        net.inject_on_vci(a, Vci(10), &[1; 48]);
        let now = net.step().unwrap();
        assert_eq!(net.link_stats(SwitchId(0), 0).cells_tx, 1, "transmitted in the arrival's step");
        assert_eq!(net.events.len(), 1, "only the arrival at s1 is pending");
        assert!(net.events.peek_time() > Some(now), "no wake-up was queued at `now`");
        net.run_to_idle();
        assert_eq!(first_payload_octets(net.poll(sink)), [1]);

        // Fan-out of two: the first output's wake-up would not be the
        // last push at `now`, so both ports are woken through the queue.
        let (mut net, a, _, sink) = parallel_links_net();
        net.inject_on_vci(a, Vci(30), &[2; 48]);
        let now = net.step().unwrap();
        assert_eq!(net.link_stats(SwitchId(0), 0).cells_tx, 0);
        assert_eq!(net.link_stats(SwitchId(0), 1).cells_tx, 0);
        assert_eq!((net.events.len(), net.events.peek_time()), (2, Some(now)), "two wake-ups");
        net.run_to_idle();
        assert_eq!(first_payload_octets(net.poll(sink)), [2, 2], "one copy over each link");

        // Another event pending at `now`: it was pushed first, so it
        // runs first. Y1 and Y2 reach s0 together; port 1 sends Y1 and
        // is woken for Y2 at t = arrival + one cell time. X is timed to
        // reach s0 at exactly t, and was injected before that wake-up
        // was pushed, so at t the order is: X arrives, port 1 wakes.
        // X's own wake-up (port 0) is pushed after port 1's, so Y2 goes
        // on its wire before X does; equal links deliver them to s1 in
        // the same nanosecond in that order, and the shared egress
        // queue keeps it. Transmitting X on arrival would put it ahead.
        let (mut net, a, b, sink) = parallel_links_net();
        net.inject_on_vci_at(b, SimTime::ZERO, Vci(20), &[11; 48]); // Y1
        net.inject_on_vci_at(b, SimTime::ZERO, Vci(20), &[12; 48]); // Y2
        net.inject_on_vci_at(a, ser, Vci(10), &[3; 48]); // X
        net.run_to_idle();
        assert_eq!(first_payload_octets(net.poll(sink)), [11, 12, 3], "push order at the tie");

        // And push order is all there is to it: swap which arrival is
        // pushed first and the tie resolves the other way.
        for (first, second) in [((a, 10, 7u8), (b, 20, 8u8)), ((b, 20, 8), (a, 10, 7))] {
            let (mut net, ..) = parallel_links_net();
            for (ep, vci, tag) in [first, second] {
                net.inject_on_vci_at(ep, SimTime::ZERO, Vci(vci), &[tag; 48]);
            }
            let now = net.step().unwrap();
            assert_eq!(net.events.peek_time(), Some(now), "the other arrival is still due");
            assert_eq!(net.link_stats(SwitchId(0), 0).cells_tx, 0, "so nothing is sent yet");
            assert_eq!(net.link_stats(SwitchId(0), 1).cells_tx, 0, "so nothing is sent yet");
            net.run_to_idle();
            assert_eq!(first_payload_octets(net.poll(sink)), [first.2, second.2]);
        }
    }

    /// Every way out of the network hands the cell's slab slot back.
    #[test]
    fn every_exit_returns_its_slab_slot() {
        use crate::policing::{Gcra, GcraParams, PolicingAction};
        let strict = GcraParams { increment: SimTime::from_ms(1), tolerance: SimTime::ZERO };
        let clp_cell = |vci| {
            let header = AtmHeader { clp: true, ..AtmHeader::data(Default::default(), vci) };
            let mut cell = [0u8; CELL_SIZE];
            cell[..HEADER_SIZE].copy_from_slice(&header.to_bytes());
            cell
        };

        // Delivery to an endpoint.
        let (mut net, e0, e1) = two_switch_net();
        net.inject_on_vci(e0, Vci(100), &[0; 48]);
        assert_eq!(net.cells_in_flight(), 1, "held from injection");
        net.run_to_idle();
        assert_eq!((net.cells_in_flight(), net.poll(e1).len()), (0, 1), "handed over on delivery");

        // CLP drop and full-queue drop: 40 tagged then 40 plain cells
        // at once into a 4-deep queue that sheds CLP above 2.
        let (mut net, e0, e1) = two_switch_net();
        net.switches[0].ports[0].params.queue_cells = 4;
        net.switches[0].ports[0].params.clp_threshold = 2;
        for _ in 0..40 {
            net.inject_at(e0, SimTime::ZERO, clp_cell(Vci(100)));
        }
        for _ in 0..40 {
            net.inject_on_vci(e0, Vci(100), &[0; 48]);
        }
        assert_eq!(net.cells_in_flight(), 80);
        net.run_to_idle();
        let stats = net.link_stats(SwitchId(0), 0);
        assert!(stats.full_drops > 0 && stats.clp_drops > 0, "{stats:?}");
        assert_eq!(net.poll(e1).len() as u64 + stats.full_drops + stats.clp_drops, 80);
        assert_eq!(net.cells_in_flight(), 0);

        // Down-link drop, with cells queued behind the one that dies.
        let (mut net, e0, _) = two_switch_net();
        net.fail_link(SwitchId(0), 0);
        for _ in 0..5 {
            net.inject_on_vci(e0, Vci(100), &[0; 48]);
        }
        net.run_to_idle();
        assert_eq!(net.link_stats(SwitchId(0), 0).down_drops, 5);
        assert_eq!(net.cells_in_flight(), 0);

        // Policed drop; unroutable with no entry at all; unroutable
        // behind a policer that has no route installed.
        let (mut net, e0, _) = two_switch_net();
        net.install_policer(SwitchId(0), 1, Vci(100), Gcra::new(strict, PolicingAction::Drop));
        net.install_policer(SwitchId(0), 1, Vci(7), Gcra::new(strict, PolicingAction::Tag));
        for vci in [100, 100, 999, 7, 7] {
            net.inject_on_vci(e0, Vci(vci), &[0; 48]);
        }
        net.run_to_idle();
        assert_eq!(net.policed_drops(SwitchId(0)), 1);
        assert_eq!(net.unroutable_cells(SwitchId(0)), 3);
        assert_eq!(net.policer_counts(SwitchId(0), 1, Vci(7)), Some((1, 1)));
        assert_eq!(net.cells_in_flight(), 0);

        // A route into a port nothing is plugged into, and an empty
        // fan-out.
        let (mut net, e0, _) = two_switch_net();
        net.install_vc(SwitchId(0), 1, Vci(50), vec![(3, Vci(50))]);
        net.install_vc(SwitchId(0), 1, Vci(51), vec![]);
        net.inject_on_vci(e0, Vci(50), &[0; 48]);
        net.inject_on_vci(e0, Vci(51), &[0; 48]);
        net.run_to_idle();
        assert_eq!(net.link_stats(SwitchId(0), 3).cells_tx, 1, "sent off the edge");
        assert_eq!(net.unroutable_cells(SwitchId(0)), 0, "an empty fan-out is a route");
        assert_eq!(net.cells_in_flight(), 0);

        // Multipoint: each admitted copy takes a slot of its own, a
        // refused earlier copy (port 1) takes none, a refused last
        // copy (port 2) frees the arriving cell's.
        for refused in [None, Some(1usize), Some(2)] {
            let mut net = AtmNetwork::new();
            let s0 = net.add_switch(3);
            let [e0, e1, e2] = [0, 1, 2].map(|p| net.attach_endpoint(s0, p));
            net.install_vc(s0, 0, Vci(50), vec![(1, Vci(60)), (2, Vci(70))]);
            if let Some(port) = refused {
                net.switches[0].ports[port].params.queue_cells = 0;
            }
            net.inject_on_vci(e0, Vci(50), &[7; 48]);
            net.step();
            let (in_flight, slots) = match refused {
                None => (2, 2),
                Some(1) => (1, 1),
                _ => (1, 2),
            };
            assert_eq!(
                (net.cells_in_flight(), net.cell_slots()),
                (in_flight, slots),
                "{refused:?}"
            );
            net.run_to_idle();
            assert_eq!(net.poll(e1).len() + net.poll(e2).len(), in_flight);
            assert_eq!(net.cells_in_flight(), 0);
        }
    }

    /// An endpoint arrival is released by the first `run_until` whose
    /// horizon reaches it — at exactly its time, not a nanosecond
    /// earlier — and leaves the clock at itself, as its event did. The
    /// clock matters: `inject_at` starts a cell no earlier than it.
    #[test]
    fn run_until_releases_arrivals_up_to_its_horizon_and_sets_the_clock_to_the_latest() {
        let hop = tx_time(CELL_SIZE, DEFAULT_LINK_RATE) + LinkParams::default().propagation;
        let hops = |n: u64| SimTime::from_ns(n * hop.as_ns());
        let (mut net, e0, e1) = two_switch_net();
        net.inject_on_vci(e0, Vci(100), &[1; 48]);
        let arrival = hops(3);

        net.run_until(arrival - SimTime::from_ns(1));
        assert_eq!(net.next_event(e1), None, "due a nanosecond after the horizon");
        assert_eq!(net.now(), hops(2), "the last event: the cell reaching s1");
        net.run_until(arrival);
        let Some(EndpointEvent::CellRx { time, .. }) = net.next_event(e1) else {
            panic!("a cell due at the horizon is released")
        };
        assert_eq!((time, net.now()), (arrival, arrival));
        net.run_until(arrival + SimTime::from_us(50));
        assert_eq!(net.now(), arrival, "the clock stands at the latest arrival, not the horizon");

        // Dated before the clock, a cell starts at the clock.
        net.inject_on_vci_at(e0, SimTime::ZERO, Vci(100), &[2; 48]);
        net.run_until(SimTime::from_ms(1));
        let Some(EndpointEvent::CellRx { time, .. }) = net.next_event(e1) else { panic!() };
        assert_eq!((time, net.now()), (arrival + hops(3), arrival + hops(3)));
        assert_eq!(net.next_event(e1), None);
    }

    /// What an endpoint handed out, by when and what: a cell's tag, or
    /// a signal's connection number.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
    enum Got {
        Cell(u32),
        Signal(u32),
    }

    fn got<C: AsRef<[u8]>>(ev: &EndpointEvent<C>) -> (SimTime, Got) {
        match ev {
            EndpointEvent::CellRx { time, cell } => {
                let tag = &cell.as_ref()[HEADER_SIZE..HEADER_SIZE + 4];
                (*time, Got::Cell(u32::from_le_bytes(tag.try_into().unwrap())))
            }
            EndpointEvent::Signal { time, signal: SignalIndication::Released { conn } } => {
                (*time, Got::Signal(conn.0))
            }
            EndpointEvent::Signal { signal, .. } => panic!("{signal:?}"),
        }
    }

    fn lent_got(net: &mut AtmNetwork, ep: EndpointId) -> Option<(SimTime, Got)> {
        net.next_event(ep).map(|ev| got(&ev))
    }

    use crate::signaling::{ConnId, SignalIndication};
    use proptest::prop_assert_eq;

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        /// An endpoint's FIFO against a reference: whatever order cells
        /// (from either of two ports) and signals are filed in, with
        /// ties in time and filings on both sides of `run_until`
        /// horizons — below an entry a horizon released but nobody
        /// drained, too — each horizon hands out the entries it covers
        /// in `(time, sequence number)` order, after everything an
        /// earlier horizon released. Two networks run the same filings;
        /// one drains with `next_event` only, the other empties with
        /// `poll`, and both match the reference.
        #[test]
        fn in_place_filing_drains_in_key_order_by_next_event_and_by_poll(
            ops in proptest::collection::vec((0u8..8, 0u64..6, 1usize..4), 1..160),
        ) {
            let ep = EndpointId(0);
            let mut nets = [0, 1].map(|_| {
                let mut net = AtmNetwork::new();
                let s0 = net.add_switch(3);
                net.attach_endpoint(s0, 2);
                net
            });
            // Unreleased entries, and what horizons released and no
            // drain took yet.
            let mut pending: Vec<(SimTime, u64, Got)> = Vec::new();
            let mut released: VecDeque<(SimTime, Got)> = VecDeque::new();
            // Signals whose events were pushed, not yet delivered.
            let mut signalled: Vec<(SimTime, u64, u32)> = Vec::new();
            let mut tag = 0u32;
            for (kind, t, n) in ops {
                let time = SimTime::from_ns(100 * t);
                match kind {
                    // A cell from port 0 or port 1, keyed as its send
                    // takes the key.
                    0..=2 => {
                        tag += 1;
                        let mut cell = [kind % 2; CELL_SIZE];
                        cell[HEADER_SIZE..HEADER_SIZE + 4].copy_from_slice(&tag.to_le_bytes());
                        let mut seq = 0;
                        for net in &mut nets {
                            seq = net.events.take_seq(time);
                            let slot = net.cells.insert(cell);
                            net.endpoints[0].file_cell(seq, time, &net.cells.cells[slot as usize]);
                            net.cells.release(slot);
                            prop_assert_eq!(net.cells_in_flight(), 0, "filed is not in flight");
                        }
                        pending.push((time, seq, Got::Cell(tag)));
                    }
                    // A signal's event is pushed now; it is delivered,
                    // under that event's key, by a later op.
                    3 => {
                        tag += 1;
                        let seqs = nets.each_mut().map(|net| net.events.take_seq(time));
                        prop_assert_eq!(seqs[0], seqs[1]);
                        signalled.push((time, seqs[0], tag));
                    }
                    4 if !signalled.is_empty() => {
                        let (time, seq, conn) = signalled.remove(n % signalled.len());
                        for net in &mut nets {
                            let signal = SignalIndication::Released { conn: ConnId(conn) };
                            net.endpoints[0].file(seq, EndpointEvent::Signal { time, signal });
                        }
                        pending.push((time, seq, Got::Signal(conn)));
                    }
                    // A horizon.
                    5 => {
                        for net in &mut nets {
                            net.release_arrivals(time);
                        }
                        pending.sort();
                        let due = pending.partition_point(|&(at, ..)| at <= time);
                        released.extend(pending.drain(..due).map(|(at, _, g)| (at, g)));
                    }
                    // Part of what is released, lent by both.
                    6 => {
                        for _ in 0..n {
                            let want = released.pop_front();
                            for net in &mut nets {
                                prop_assert_eq!(lent_got(net, ep), want);
                            }
                        }
                    }
                    // All of it: lent one by one, and as one `poll`.
                    _ => {
                        let want: Vec<_> = released.drain(..).collect();
                        let lent: Vec<_> = std::iter::from_fn(|| lent_got(&mut nets[0], ep)).collect();
                        let polled: Vec<_> = nets[1].poll(ep).iter().map(got).collect();
                        prop_assert_eq!(&lent, &want);
                        prop_assert_eq!(&polled, &want);
                    }
                }
            }
        }
    }

    /// The testbed's chain: host on s0 port 1, gateway on s1 port 1,
    /// the trunk on port 0 of each, and `vcs` VCs both ways, each with
    /// the same VCI end to end.
    fn testbed_chain(vcs: u16) -> (AtmNetwork, EndpointId, EndpointId) {
        let mut net = AtmNetwork::new();
        let s0 = net.add_switch(4);
        let s1 = net.add_switch(4);
        net.link(s0, 0, s1, 0, LinkParams::default());
        let host = net.attach_endpoint(s0, 1);
        let gw = net.attach_endpoint(s1, 1);
        for vci in (64..).take(usize::from(vcs)).map(Vci) {
            net.install_vc(s0, 1, vci, vec![(0, vci)]);
            net.install_vc(s1, 0, vci, vec![(1, vci)]);
            net.install_vc(s1, 1, vci, vec![(0, vci)]);
            net.install_vc(s0, 0, vci, vec![(1, vci)]);
        }
        (net, host, gw)
    }

    /// What the co-simulation pays per delivered cell, in events popped,
    /// on the chain it builds: eight host VCs sending frames at line
    /// rate and the gateway sending bursts back, run in 10 µs horizons.
    /// Each cell costs its injection and, when it waits behind another,
    /// a wake-up; the hop across the trunk into the far switch is no
    /// event (it was one per cell: 2.3 events per delivered cell here).
    #[test]
    fn a_delivered_cell_costs_under_two_events_on_the_testbed_chain() {
        let (mut net, host, gw) = testbed_chain(8);
        let cell_time = tx_time(CELL_SIZE, DEFAULT_LINK_RATE);
        let slice = SimTime::from_us(10);
        let mut delivered = 0usize;
        let mut t = SimTime::ZERO;
        for round in 0u64..2_000 {
            // Every 400 µs each host VC in turn, 50 µs apart, sends an
            // 18-cell frame paced at the access link's cell time; every
            // 250 µs the gateway sends a 16-cell burst back on one VC.
            if round % 40 == 0 {
                for (k, vci) in (64..72u16).enumerate() {
                    let start = t + SimTime::from_us(50 * k as u64);
                    for i in 0..18 {
                        let at = start + SimTime::from_ns(i * cell_time.as_ns());
                        net.inject_on_vci_at(host, at, Vci(vci), &[i as u8; 48]);
                    }
                }
            }
            if round % 25 == 0 {
                let vci = Vci(64 + (round / 25 % 8) as u16);
                for i in 0..16 {
                    net.inject_on_vci_at(gw, t, vci, &[i; 48]);
                }
            }
            t += slice;
            net.run_until(t);
            for ep in [host, gw] {
                delivered += net.drained(ep).len();
            }
        }
        net.run_to_idle();
        delivered += net.drained(host).len() + net.drained(gw).len();
        let sent = 2_000 / 40 * 8 * 18 + 2_000 / 25 * 16;
        let dropped: u64 = [(0, 0), (0, 1), (1, 0), (1, 1)]
            .map(|(sw, port)| net.link_stats(SwitchId(sw), port))
            .iter()
            .map(|s| s.full_drops + s.clp_drops)
            .sum();
        assert_eq!(delivered as u64 + dropped, sent, "every cell delivered or dropped");
        let per_cell = net.popped as f64 / delivered as f64;
        assert!(per_cell <= 1.7, "{per_cell:.3} events per delivered cell");
    }

    #[test]
    fn determinism() {
        let run = || {
            let (mut net, e0, e1) = two_switch_net();
            for i in 0..10u8 {
                net.inject_on_vci(e0, Vci(100), &[i; 48]);
            }
            net.run_to_idle();
            net.poll(e1)
        };
        assert_eq!(run(), run());
    }
}
