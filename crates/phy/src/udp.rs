//! Real-packet transport: GWP1 encapsulation over UDP, with a tiny
//! reliable in-order ARQ.
//!
//! The gateway core is cycle-accurate and deterministic; the property
//! the transport must preserve is *exact* in-order delivery of the
//! sender's `(timestamp, payload)` sequence. UDP gives none of that,
//! so each direction runs a minimal ARQ: every data datagram carries a
//! sequence number, the receiver holds out-of-order arrivals and
//! releases them in sequence, duplicates are discarded, truncated
//! datagrams fail the length check and are dropped, and the sender
//! retransmits everything unacknowledged when its retransmission
//! timer runs out. With that in place, injected datagram
//! drop/duplication/truncation at the seam — see
//! [`TransportFaultConfig`] — is invisible above the phy, which is
//! exactly what the chaos phy-soak proves by byte-comparing snapshots
//! against the loopback run.
//!
//! A syscall per 53-octet cell would cost fifteen times what the
//! gateway core spends on the cell, so the cell port pays per datagram
//! instead: `send_cell` appends to one staged datagram of up to 23
//! cells (each with its own stamp — see [`crate::encap`]), which leaves
//! when it is full, on the next `pump`, or on [`CellPhy::flush`]. The
//! ARQ's unit is the datagram, whatever it carries. Datagram buffers
//! cycle from the acknowledged queue back to the next send, so a warm
//! link allocates nothing.
//!
//! # When acknowledgements leave
//!
//! A bare acknowledgement is a datagram and a syscall of its own, so a
//! link that owes one lets it ride on data where it can. The debt
//! opens at the pump that receives a data datagram. Every data
//! datagram that leaves while it is open carries the cumulative ack in
//! its trailer and closes it. If none has left by the second pump after
//! the one that opened it (`ACK_WAIT`), that pump sends one bare ack.
//! Two pumps, not one, because the appliance pumps before it admits:
//! the frame or cells that answer a datagram leave after the pump that
//! follows its arrival.
//!
//! The link waits only toward a peer that has shown [`FLAG_ACK`] (on a
//! bare ack or a trailer), and only once it has shown its own: every
//! ack it sends sets the flag, and the peer gives a link whose flag it
//! has seen the longer retransmission timer below. Toward a
//! parent-format peer, which never shows the flag, the link acks at
//! the pump that receives the data and sends no trailer.
//!
//! # When data is retransmitted
//!
//! The retransmission timer starts at the first pump after the
//! unacknowledged tail's head went on the wire — after its first
//! transmission, or at the pump whose ack made it the head — and again
//! at each pump that retransmits. In wall-clock mode the tail
//! retransmits once `rto` has run from there. In lockstep mode the
//! clock is the link's own pump count: toward a peer that has shown
//! the flag the tail retransmits `LOCKSTEP_RETX_WAIT` (3) pumps after
//! the timer started; toward a parent-format peer, at that first pump
//! itself and every pump after, as GWP1 always did.
//!
//! Why two ends pumped alternately never retransmit on a loss-free
//! wire: say the timer starts at this end's pump *a*. The head went on
//! the wire before pump *a* began (or, retransmitted, during it). The
//! peer pumps once between each two of ours, so its pump after our *a*
//! has received the head at the latest and opened a debt. It closes
//! the debt by its second pump after that one, which comes before our
//! pump *a* + 3; and our pump *a* + 3 reads the ack before it looks at
//! the timer. And whenever the peer is waiting with an ack, this link
//! is on the longer timer: the peer waits only after it has sent an
//! ack, which this link reads at its next pump, before that pump looks
//! at the timer.
//!
//! Socket errors (e.g. ICMP port-unreachable surfacing as
//! `ConnectionRefused` on a connected UDP socket) are *not* masked:
//! they bubble out of [`CellPhy::pump`]/[`FramePhy::pump`] so the port
//! supervisor can start its backoff/reconnect cycle. Staged and
//! unacknowledged datagrams survive a [`CellPhy::reconnect`] and go out
//! once the transport is back — a flap loses no traffic, only time.

use crate::encap::{
    self, Datagram, DecodeError, ACK_TRAILER_LEN, FLAG_ACK, FLAG_SYNC, FULL_CELL_DATAGRAM_LEN,
    HEADER_LEN, KIND_ACK, KIND_CELL, KIND_FRAME, MAX_PAYLOAD,
};
use crate::{CellPhy, FramePhy, PhyError, PhyStats};
use gw_sim::rng::SimRng;
use gw_sim::time::SimTime;
use gw_wire::atm::CELL_SIZE;
use std::collections::{BTreeMap, VecDeque};
use std::io;
use std::net::{SocketAddr, UdpSocket};

/// Datagram-level fault injection applied at the transmit seam (both
/// first transmissions and retransmissions, acks included).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TransportFaultConfig {
    /// Probability a transmission is silently discarded.
    pub drop: f64,
    /// Probability a transmission is sent twice back to back.
    pub duplicate: f64,
    /// Probability a transmission is cut to a strict prefix.
    pub truncate: f64,
    /// Seed for the deterministic fault stream.
    pub seed: u64,
}

impl TransportFaultConfig {
    /// No faults.
    pub fn none() -> TransportFaultConfig {
        TransportFaultConfig { drop: 0.0, duplicate: 0.0, truncate: 0.0, seed: 0 }
    }

    /// True when any fault class has nonzero probability.
    pub fn is_active(&self) -> bool {
        self.drop > 0.0 || self.duplicate > 0.0 || self.truncate > 0.0
    }
}

impl Default for TransportFaultConfig {
    fn default() -> TransportFaultConfig {
        TransportFaultConfig::none()
    }
}

#[derive(Debug)]
struct FaultHook {
    config: TransportFaultConfig,
    rng: SimRng,
}

enum Verdict {
    Deliver,
    Drop,
    Duplicate,
    Truncate(usize),
}

impl FaultHook {
    fn verdict(&mut self, len: usize) -> Verdict {
        if self.rng.chance(self.config.drop) {
            Verdict::Drop
        } else if self.rng.chance(self.config.duplicate) {
            Verdict::Duplicate
        } else if len > 0 && self.rng.chance(self.config.truncate) {
            Verdict::Truncate(self.rng.below(len as u64) as usize)
        } else {
            Verdict::Deliver
        }
    }
}

/// Out-of-order datagrams are held only this far ahead of the next
/// expected sequence number; anything further is dropped (the ARQ
/// retransmits it). Bounds the hold against a pathological peer, and
/// keeps far-future forgeries from taking the room genuine reordering
/// needs.
const MAX_HOLD: u64 = 4096;

/// Pumps after the one that opened an ack debt by which the debt must be
/// settled: the second one sends a bare ack if no data has carried it.
const ACK_WAIT: u64 = 2;

/// Pumps the lockstep retransmission timer runs toward a peer that
/// delays its acks by [`ACK_WAIT`]: one for the datagram to reach the
/// peer's next pump, [`ACK_WAIT`] for its ack to leave.
const LOCKSTEP_RETX_WAIT: u64 = 1 + ACK_WAIT;

/// Buffers of acknowledged datagrams kept for the next sends. A frame's
/// worth of cell datagrams is four; the bound keeps a burst from
/// becoming resident.
const MAX_FREE: usize = 16;

/// The sequence number in an encoded datagram's header.
fn seq_of(datagram: &[u8]) -> u64 {
    u64::from_le_bytes(datagram[8..16].try_into().expect("an encoded header"))
}

/// The per-direction-pair ARQ over one connected UDP socket. A link
/// carries one kind of payload (cells or frames), so sequence numbers
/// reach the wire in the order they were taken.
#[derive(Debug)]
struct UdpLink {
    sock: Option<UdpSocket>,
    local: SocketAddr,
    peer: SocketAddr,
    next_seq: u64,
    /// The cell datagram being filled: sequence number taken, not yet on
    /// the wire. Empty when there is none.
    staged: Vec<u8>,
    /// Encoded datagrams sent and not yet acknowledged, oldest first.
    unacked: VecDeque<Vec<u8>>,
    free: Vec<Vec<u8>>,
    rx_next: u64,
    /// Whole datagrams that arrived ahead of `rx_next`, by sequence
    /// number; each decoded cleanly before it was parked.
    rx_hold: BTreeMap<u64, Vec<u8>>,
    /// The pump that opened the current ack debt, if one is open.
    ack_due: Option<u64>,
    ack_buf: Vec<u8>,
    /// The peer has shown [`FLAG_ACK`]: it reads ack trailers, and it
    /// may let its own acks wait for data once this link has shown the
    /// flag too.
    peer_piggybacks: bool,
    /// This link has sent the peer an ack, so shown it [`FLAG_ACK`].
    flag_shown: bool,
    faults: Option<FaultHook>,
    /// Lockstep (co-sim) mode counts the retransmission timer in pumps;
    /// wall-clock mode waits out `rto`.
    lockstep: bool,
    rto: SimTime,
    /// Pumps run, this one included.
    pumps: u64,
    /// Where the retransmission timer started, on [`UdpLink::tick`]'s
    /// clock. `None` from the moment the unacknowledged tail gets a new
    /// head until the next `pump`, which starts the timer.
    retx_from: Option<u64>,
    stats: PhyStats,
    recv_buf: Box<[u8]>,
}

fn bind_nonblocking(local: SocketAddr, peer: SocketAddr) -> io::Result<UdpSocket> {
    let sock = UdpSocket::bind(local)?;
    sock.set_nonblocking(true)?;
    sock.connect(peer)?;
    Ok(sock)
}

/// Keep a spent datagram's buffer for a later send.
fn recycle(free: &mut Vec<Vec<u8>>, mut bytes: Vec<u8>) {
    if free.len() < MAX_FREE {
        bytes.clear();
        free.push(bytes);
    }
}

/// Hand one in-sequence datagram to the port above the link.
fn deliver(stats: &mut PhyStats, accept: &mut impl FnMut(&Datagram<'_>) -> bool, d: &Datagram<'_>) {
    stats.datagrams_rx += 1;
    // It took its place in the sequence and is acknowledged: a payload
    // the port cannot use is the sender's fault, and retransmitting
    // would bring the same octets again.
    if !accept(d) {
        stats.decode_drops += 1;
    }
}

impl UdpLink {
    fn open(
        local: SocketAddr,
        peer: SocketAddr,
        faults: TransportFaultConfig,
        lockstep: bool,
        rto: SimTime,
    ) -> io::Result<UdpLink> {
        UdpLink::from_socket(bind_nonblocking(local, peer)?, peer, faults, lockstep, rto)
    }

    fn from_socket(
        sock: UdpSocket,
        peer: SocketAddr,
        faults: TransportFaultConfig,
        lockstep: bool,
        rto: SimTime,
    ) -> io::Result<UdpLink> {
        let local = sock.local_addr()?;
        let faults =
            faults.is_active().then(|| FaultHook { rng: SimRng::new(faults.seed), config: faults });
        Ok(UdpLink {
            sock: Some(sock),
            local,
            peer,
            next_seq: 0,
            staged: Vec::new(),
            unacked: VecDeque::new(),
            free: Vec::with_capacity(MAX_FREE),
            rx_next: 0,
            rx_hold: BTreeMap::new(),
            ack_due: None,
            ack_buf: Vec::with_capacity(HEADER_LEN),
            peer_piggybacks: false,
            flag_shown: false,
            faults,
            lockstep,
            rto,
            pumps: 0,
            retx_from: None,
            stats: PhyStats::default(),
            recv_buf: vec![0u8; HEADER_LEN + MAX_PAYLOAD + 64].into_boxed_slice(),
        })
    }

    fn put(&mut self, bytes: &[u8]) -> Result<(), PhyError> {
        let sock = self.sock.as_ref().ok_or(PhyError::Io(io::ErrorKind::NotConnected))?;
        match sock.send(bytes) {
            Ok(_) => Ok(()),
            // A full socket buffer is transient loss; the ARQ covers it.
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => Ok(()),
            Err(e) => Err(e.into()),
        }
    }

    fn transmit(&mut self, bytes: &[u8]) -> Result<(), PhyError> {
        let verdict = match &mut self.faults {
            Some(f) => f.verdict(bytes.len()),
            None => Verdict::Deliver,
        };
        match verdict {
            Verdict::Deliver => self.put(bytes),
            Verdict::Drop => {
                self.stats.faults_dropped += 1;
                Ok(())
            }
            Verdict::Duplicate => {
                self.stats.faults_duplicated += 1;
                self.put(bytes)?;
                self.put(bytes)
            }
            Verdict::Truncate(keep) => {
                self.stats.faults_truncated += 1;
                self.put(&bytes[..keep])
            }
        }
    }

    /// Start a data datagram in a recycled buffer under the next
    /// sequence number.
    fn begin(
        &mut self,
        kind: u8,
        flags: u8,
        at: SimTime,
        payload: &[u8],
    ) -> Result<Vec<u8>, PhyError> {
        let mut bytes = self.free.pop().unwrap_or_default();
        if let Err(e) = encap::encode(kind, flags, self.next_seq, at, payload, &mut bytes) {
            recycle(&mut self.free, bytes);
            return Err(e);
        }
        self.next_seq += 1;
        Ok(bytes)
    }

    /// A datagram's first transmission, carrying the ack this link owes
    /// if the peer reads trailers.
    fn launch(&mut self, mut bytes: Vec<u8>) -> Result<(), PhyError> {
        self.stats.datagrams_tx += 1;
        if self.peer_piggybacks && self.ack_due.is_some() && self.rx_next > 0 {
            encap::append_ack(&mut bytes, self.rx_next - 1);
            self.ack_due = None;
            self.stats.acks_carried += 1;
            self.flag_shown = true;
        }
        let res = self.transmit(&bytes);
        if self.unacked.is_empty() {
            self.retx_from = None;
        }
        // Queued even when the transmission failed: it retransmits once
        // the supervisor brings the transport back.
        self.unacked.push_back(bytes);
        res
    }

    fn send(&mut self, kind: u8, flags: u8, at: SimTime, payload: &[u8]) -> Result<(), PhyError> {
        let bytes = self.begin(kind, flags, at, payload)?;
        self.launch(bytes)
    }

    /// Add one cell to the staged datagram; a full one leaves at once.
    fn stage_cell(&mut self, at: SimTime, cell: &[u8; CELL_SIZE]) -> Result<(), PhyError> {
        if self.staged.is_empty() {
            self.staged = self.begin(KIND_CELL, 0, at, cell)?;
            // Room for a full one and its ack trailer at once: a
            // recycled buffer never grows again, whichever fill it
            // carried last.
            self.staged.reserve(FULL_CELL_DATAGRAM_LEN + ACK_TRAILER_LEN - self.staged.len());
        } else {
            encap::append_cell(&mut self.staged, at, cell)?;
        }
        if self.staged.len() >= FULL_CELL_DATAGRAM_LEN {
            self.flush()
        } else {
            Ok(())
        }
    }

    /// Put the staged datagram, if any, on the wire.
    fn flush(&mut self) -> Result<(), PhyError> {
        if self.staged.is_empty() {
            return Ok(());
        }
        let bytes = std::mem::take(&mut self.staged);
        self.launch(bytes)
    }

    /// Take one received datagram: its ack first, then its data.
    fn handle_datagram(&mut self, wire: &[u8], accept: &mut impl FnMut(&Datagram<'_>) -> bool) {
        let d = match encap::decode(wire) {
            Ok(d) => d,
            Err(
                DecodeError::Runt
                | DecodeError::Truncated
                | DecodeError::BadMagic
                | DecodeError::BadKind,
            ) => {
                self.stats.decode_drops += 1;
                return;
            }
        };
        if d.flags & FLAG_ACK != 0 {
            self.peer_piggybacks = true;
        }
        let ack = if d.kind == KIND_ACK { Some(d.seq) } else { d.ack };
        if let Some(ack) = ack {
            self.take_ack(ack);
        }
        if d.kind == KIND_ACK {
            return;
        }
        // Every data datagram is answered: a duplicate so the peer stops
        // retransmitting it, anything ahead so the peer learns the gap.
        self.ack_due.get_or_insert(self.pumps);
        if d.seq < self.rx_next {
            self.stats.dup_drops += 1;
        } else if d.seq == self.rx_next {
            deliver(&mut self.stats, accept, &d);
            self.rx_next += 1;
            while let Some(held) = self.rx_hold.remove(&self.rx_next) {
                let d = encap::decode(&held).expect("decoded before it was parked");
                deliver(&mut self.stats, accept, &d);
                self.rx_next += 1;
                recycle(&mut self.free, held);
            }
        } else if d.seq - self.rx_next >= MAX_HOLD {
            self.stats.window_drops += 1;
        } else if self.rx_hold.contains_key(&d.seq) {
            self.stats.dup_drops += 1;
        } else {
            // Out of order: park it until the gap fills.
            let mut held = self.free.pop().unwrap_or_default();
            held.extend_from_slice(wire);
            self.rx_hold.insert(d.seq, held);
        }
    }

    /// Release what a cumulative ack covers. An ack beyond the newest
    /// datagram this link has put on the wire is forged or garbled: it
    /// is ignored (and counted), so it cannot empty the queue of what
    /// the peer never received.
    fn take_ack(&mut self, ack: u64) {
        let launched = self.next_seq - u64::from(!self.staged.is_empty());
        if ack >= launched {
            self.stats.window_drops += 1;
            return;
        }
        let before = self.unacked.len();
        while self.unacked.front().is_some_and(|b| seq_of(b) <= ack) {
            let bytes = self.unacked.pop_front().expect("front checked above");
            recycle(&mut self.free, bytes);
        }
        if self.unacked.len() < before {
            // A new head: its timer starts at this pump.
            self.retx_from = None;
        }
    }

    /// The retransmission timer's clock: pumps in lockstep mode,
    /// nanoseconds otherwise.
    fn tick(&self, now: SimTime) -> u64 {
        if self.lockstep {
            self.pumps
        } else {
            now.as_ns()
        }
    }

    /// How long the unacknowledged tail waits on [`UdpLink::tick`]'s
    /// clock before it retransmits.
    fn retx_wait(&self) -> u64 {
        match (self.lockstep, self.peer_piggybacks) {
            (false, _) => self.rto.as_ns(),
            (true, true) => LOCKSTEP_RETX_WAIT,
            (true, false) => 0,
        }
    }

    fn pump(
        &mut self,
        now: SimTime,
        accept: &mut impl FnMut(&Datagram<'_>) -> bool,
    ) -> Result<(), PhyError> {
        self.pumps += 1;
        // Drain every pending datagram off the socket.
        loop {
            let sock = self.sock.as_ref().ok_or(PhyError::Io(io::ErrorKind::NotConnected))?;
            match sock.recv(&mut self.recv_buf) {
                Ok(n) => {
                    // Out of the link while it is read, so handling it
                    // can touch the rest of the link.
                    let buf = std::mem::take(&mut self.recv_buf);
                    self.handle_datagram(&buf[..n], accept);
                    self.recv_buf = buf;
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) => return Err(e.into()),
            }
        }
        // A bare ack for a debt no data has settled in time
        // (cumulative, only once something has arrived in sequence).
        let may_wait = self.peer_piggybacks && self.flag_shown;
        let bare_due =
            self.ack_due.is_some_and(|since| !may_wait || self.pumps >= since + ACK_WAIT);
        if bare_due {
            self.ack_due = None;
            if self.rx_next > 0 {
                let mut ack = std::mem::take(&mut self.ack_buf);
                ack.clear();
                encap::encode(KIND_ACK, FLAG_ACK, self.rx_next - 1, now, &[], &mut ack)?;
                self.stats.acks_tx += 1;
                self.flag_shown = true;
                let res = self.transmit(&ack);
                self.ack_buf = ack;
                res?;
            }
        }
        // Retransmit the unacknowledged tail, then send what is staged —
        // in that order, so no datagram goes out twice in one pump.
        let tick = self.tick(now);
        let from = *self.retx_from.get_or_insert(tick);
        if !self.unacked.is_empty() && tick >= from + self.retx_wait() {
            self.retx_from = Some(tick);
            for i in 0..self.unacked.len() {
                let bytes = std::mem::take(&mut self.unacked[i]);
                self.stats.retransmits += 1;
                let res = self.transmit(&bytes);
                self.unacked[i] = bytes;
                res?;
            }
        }
        self.flush()
    }

    fn reconnect(&mut self) -> Result<(), PhyError> {
        // Free the old socket first so the local port can be rebound.
        self.sock = None;
        let sock = bind_nonblocking(self.local, self.peer)?;
        self.sock = Some(sock);
        Ok(())
    }

    fn in_flight(&self) -> usize {
        self.unacked.len() + usize::from(!self.staged.is_empty())
    }
}

/// The cell port over UDP.
#[derive(Debug)]
pub struct UdpCellPhy {
    link: UdpLink,
    inbox: VecDeque<(SimTime, [u8; CELL_SIZE])>,
}

impl UdpCellPhy {
    /// Bind `local`, connect to `peer`. `lockstep` counts the
    /// retransmission timer in pumps (co-sim flush); otherwise `rto`
    /// paces retransmissions (wall-clock daemon mode).
    pub fn bind(
        local: SocketAddr,
        peer: SocketAddr,
        faults: TransportFaultConfig,
        lockstep: bool,
        rto: SimTime,
    ) -> io::Result<UdpCellPhy> {
        Ok(UdpCellPhy::over(UdpLink::open(local, peer, faults, lockstep, rto)?))
    }

    fn over(link: UdpLink) -> UdpCellPhy {
        UdpCellPhy { link, inbox: VecDeque::new() }
    }

    /// The bound local address (useful after binding port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.link.local
    }
}

impl CellPhy for UdpCellPhy {
    fn send_cell(&mut self, at: SimTime, cell: &[u8; CELL_SIZE]) -> Result<(), PhyError> {
        self.link.stage_cell(at, cell)
    }

    fn poll_cells(&mut self, out: &mut Vec<(SimTime, [u8; CELL_SIZE])>) -> Result<(), PhyError> {
        out.extend(self.inbox.drain(..));
        Ok(())
    }

    fn pump(&mut self, now: SimTime) -> Result<(), PhyError> {
        let inbox = &mut self.inbox;
        self.link.pump(now, &mut |d| match encap::cells(d) {
            Some(cells) => {
                inbox.extend(cells.map(|(at, cell)| (at, *cell)));
                true
            }
            None => false,
        })
    }

    fn flush(&mut self) -> Result<(), PhyError> {
        self.link.flush()
    }

    fn reconnect(&mut self) -> Result<(), PhyError> {
        self.link.reconnect()
    }

    fn in_flight(&self) -> usize {
        self.link.in_flight()
    }

    fn stats(&self) -> PhyStats {
        self.link.stats
    }
}

/// The frame port over UDP.
#[derive(Debug)]
pub struct UdpFramePhy {
    link: UdpLink,
    inbox: VecDeque<(SimTime, Vec<u8>, bool)>,
}

impl UdpFramePhy {
    /// Bind `local`, connect to `peer` (see [`UdpCellPhy::bind`]).
    pub fn bind(
        local: SocketAddr,
        peer: SocketAddr,
        faults: TransportFaultConfig,
        lockstep: bool,
        rto: SimTime,
    ) -> io::Result<UdpFramePhy> {
        Ok(UdpFramePhy::over(UdpLink::open(local, peer, faults, lockstep, rto)?))
    }

    fn over(link: UdpLink) -> UdpFramePhy {
        UdpFramePhy { link, inbox: VecDeque::new() }
    }

    /// The bound local address.
    pub fn local_addr(&self) -> SocketAddr {
        self.link.local
    }
}

impl FramePhy for UdpFramePhy {
    fn send_frame(
        &mut self,
        at: SimTime,
        frame: Vec<u8>,
        synchronous: bool,
    ) -> Result<Option<Vec<u8>>, PhyError> {
        let flags = if synchronous { FLAG_SYNC } else { 0 };
        self.link.send(KIND_FRAME, flags, at, &frame)?;
        // The encapsulation copied the frame: hand the buffer back for
        // recycling into the sender's frame pool.
        Ok(Some(frame))
    }

    fn poll_frames(&mut self, out: &mut Vec<(SimTime, Vec<u8>, bool)>) -> Result<(), PhyError> {
        out.extend(self.inbox.drain(..));
        Ok(())
    }

    fn pump(&mut self, now: SimTime) -> Result<(), PhyError> {
        let inbox = &mut self.inbox;
        self.link.pump(now, &mut |d| {
            if d.kind == KIND_FRAME {
                inbox.push_back((d.at, d.payload.to_vec(), d.flags & FLAG_SYNC != 0));
            }
            d.kind == KIND_FRAME
        })
    }

    fn reconnect(&mut self) -> Result<(), PhyError> {
        self.link.reconnect()
    }

    fn in_flight(&self) -> usize {
        self.link.in_flight()
    }

    fn stats(&self) -> PhyStats {
        self.link.stats
    }
}

fn any_local() -> SocketAddr {
    "127.0.0.1:0".parse().expect("literal address")
}

/// Two links over a pair of connected localhost sockets, each direction
/// with its own fault stream forked from `faults.seed + fork`.
fn link_pair(
    faults: &TransportFaultConfig,
    fork: u64,
    lockstep: bool,
    rto: SimTime,
) -> io::Result<(UdpLink, UdpLink)> {
    let a = UdpSocket::bind(any_local())?;
    let b = UdpSocket::bind(any_local())?;
    let (aa, ba) = (a.local_addr()?, b.local_addr()?);
    a.set_nonblocking(true)?;
    b.set_nonblocking(true)?;
    a.connect(ba)?;
    b.connect(aa)?;
    let fa = TransportFaultConfig { seed: faults.seed.wrapping_add(fork + 1), ..*faults };
    let fb = TransportFaultConfig { seed: faults.seed.wrapping_add(fork + 2), ..*faults };
    let a = UdpLink::from_socket(a, ba, fa, lockstep, rto)?;
    let b = UdpLink::from_socket(b, aa, fb, lockstep, rto)?;
    Ok((a, b))
}

/// An in-process pair of connected [`UdpCellPhy`] endpoints on
/// localhost, in lockstep mode, each direction with its own forked
/// fault stream.
pub fn udp_cell_pair(faults: &TransportFaultConfig) -> io::Result<(UdpCellPhy, UdpCellPhy)> {
    let (a, b) = link_pair(faults, 0x0C11_0000, true, SimTime::ZERO)?;
    Ok((UdpCellPhy::over(a), UdpCellPhy::over(b)))
}

/// An in-process pair of connected [`UdpFramePhy`] endpoints on
/// localhost, in lockstep mode, each direction with its own forked
/// fault stream.
pub fn udp_frame_pair(faults: &TransportFaultConfig) -> io::Result<(UdpFramePhy, UdpFramePhy)> {
    let (a, b) = link_pair(faults, 0x0F1A_0000, true, SimTime::ZERO)?;
    Ok((UdpFramePhy::over(a), UdpFramePhy::over(b)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encap::MAX_CELLS;

    fn flush(a: &mut impl CellPhy, b: &mut impl CellPhy, now: SimTime) {
        for _ in 0..256 {
            a.pump(now).unwrap();
            b.pump(now).unwrap();
            if a.in_flight() == 0 && b.in_flight() == 0 {
                return;
            }
        }
        panic!("cell pair failed to quiesce");
    }

    /// Distinct stamps that are neither ordered nor evenly spaced, so a
    /// receiver that reused a neighbour's stamp would be caught.
    fn stamp(i: usize) -> SimTime {
        SimTime::from_ns((i as u64 * 7919) % 1000 * 40 + i as u64)
    }

    fn cell(i: usize) -> [u8; CELL_SIZE] {
        let mut c = [i as u8; CELL_SIZE];
        c[1] = (i >> 8) as u8;
        c
    }

    fn polled(phy: &mut impl CellPhy) -> Vec<(SimTime, [u8; CELL_SIZE])> {
        let mut got = Vec::new();
        phy.poll_cells(&mut got).unwrap();
        got
    }

    /// A bare socket speaking GWP1 to a gateway-side cell port.
    fn raw_peer() -> (UdpCellPhy, UdpSocket) {
        let raw = UdpSocket::bind(any_local()).unwrap();
        raw.set_nonblocking(true).unwrap();
        let phy = UdpCellPhy::bind(
            any_local(),
            raw.local_addr().unwrap(),
            TransportFaultConfig::none(),
            true,
            SimTime::ZERO,
        )
        .unwrap();
        raw.connect(phy.local_addr()).unwrap();
        (phy, raw)
    }

    fn raw_send(raw: &UdpSocket, seq: u64, at: SimTime, payload: &[u8]) {
        let mut wire = Vec::new();
        encap::encode(KIND_CELL, 0, seq, at, payload, &mut wire).unwrap();
        raw.send(&wire).unwrap();
    }

    #[test]
    fn cells_cross_the_socket_in_order_at_every_batch_boundary() {
        for n in [1, 10, MAX_CELLS - 1, MAX_CELLS, MAX_CELLS + 1, 2 * MAX_CELLS, 2 * MAX_CELLS + 1]
        {
            let (mut a, mut b) = udp_cell_pair(&TransportFaultConfig::none()).unwrap();
            for i in 0..n {
                a.send_cell(stamp(i), &cell(i)).unwrap();
            }
            assert_eq!(
                a.stats().datagrams_tx as usize,
                n / MAX_CELLS,
                "{n} cells: only full datagrams leave before the pump"
            );
            assert_eq!(a.in_flight(), n.div_ceil(MAX_CELLS), "a staged datagram is in flight");
            // The receiver first, so every full datagram is acknowledged
            // by the time the sender pumps: two rounds see it all across.
            for _ in 0..2 {
                b.pump(SimTime::from_us(1)).unwrap();
                a.pump(SimTime::from_us(1)).unwrap();
            }
            assert_eq!(a.in_flight(), 0);
            assert_eq!(a.stats().datagrams_tx as usize, n.div_ceil(MAX_CELLS));
            assert_eq!(a.stats().retransmits, 0, "a flush is not retransmitted by its own pump");
            let want: Vec<_> = (0..n).map(|i| (stamp(i), cell(i))).collect();
            assert_eq!(polled(&mut b), want, "{n} cells: order and every stamp exact");
        }
    }

    #[test]
    fn flush_sends_the_staged_cells_without_a_pump() {
        let (mut a, mut b) = udp_cell_pair(&TransportFaultConfig::none()).unwrap();
        a.send_cell(stamp(0), &cell(0)).unwrap();
        a.send_cell(stamp(1), &cell(1)).unwrap();
        b.pump(SimTime::ZERO).unwrap();
        assert!(polled(&mut b).is_empty(), "two cells do not fill a datagram");
        a.flush().unwrap();
        a.flush().unwrap();
        assert_eq!(a.stats().datagrams_tx, 1, "nothing staged, nothing sent");
        b.pump(SimTime::ZERO).unwrap();
        assert_eq!(polled(&mut b), vec![(stamp(0), cell(0)), (stamp(1), cell(1))]);
    }

    #[test]
    fn heavy_faults_are_invisible_above_the_arq() {
        let faults =
            TransportFaultConfig { drop: 0.3, duplicate: 0.3, truncate: 0.2, seed: 0xFA17 };
        let (mut a, mut b) = udp_frame_pair(&faults).unwrap();
        for i in 0..20u32 {
            let frame = vec![i as u8; 100 + i as usize];
            let back = a.send_frame(SimTime::from_us(i as u64), frame, i % 2 == 0).unwrap();
            assert!(back.is_some(), "udp phy copies and returns the buffer");
        }
        for round in 0..4096 {
            a.pump(SimTime::from_ms(round)).unwrap();
            b.pump(SimTime::from_ms(round)).unwrap();
            if a.in_flight() == 0 {
                break;
            }
        }
        assert_eq!(a.in_flight(), 0, "ARQ must deliver through heavy faults");
        let mut got = Vec::new();
        b.poll_frames(&mut got).unwrap();
        assert_eq!(got.len(), 20);
        for (i, (at, frame, sync)) in got.iter().enumerate() {
            assert_eq!(*at, SimTime::from_us(i as u64));
            assert_eq!(frame.len(), 100 + i);
            assert_eq!(*sync, i % 2 == 0);
        }
        let s = a.stats();
        assert!(s.faults_dropped > 0 && s.faults_duplicated > 0 && s.faults_truncated > 0);
    }

    #[test]
    fn heavy_faults_are_invisible_above_the_arq_for_cells_too() {
        let faults =
            TransportFaultConfig { drop: 0.3, duplicate: 0.3, truncate: 0.2, seed: 0xCE11 };
        let (mut a, mut b) = udp_cell_pair(&faults).unwrap();
        // Uneven bursts, a pump between them: datagrams of every fill
        // from one cell to a full one, many in flight at once.
        let mut sent = 0;
        for burst in (1..=40).chain([2 * MAX_CELLS + 5]) {
            for _ in 0..burst {
                a.send_cell(stamp(sent), &cell(sent)).unwrap();
                sent += 1;
            }
            a.pump(SimTime::ZERO).unwrap();
            b.pump(SimTime::ZERO).unwrap();
        }
        for _ in 0..4096 {
            a.pump(SimTime::ZERO).unwrap();
            b.pump(SimTime::ZERO).unwrap();
            if a.in_flight() == 0 {
                break;
            }
        }
        assert_eq!(a.in_flight(), 0, "ARQ must deliver through heavy faults");
        let want: Vec<_> = (0..sent).map(|i| (stamp(i), cell(i))).collect();
        assert_eq!(polled(&mut b), want);
        let s = a.stats();
        assert!(s.faults_dropped > 0 && s.faults_duplicated > 0 && s.faults_truncated > 0);
        assert!(b.stats().dup_drops > 0 && b.stats().decode_drops > 0);
    }

    #[test]
    fn staged_and_unacked_cells_survive_a_reconnect() {
        let (mut a, mut b) = udp_cell_pair(&TransportFaultConfig::none()).unwrap();
        // Sever a's transport with one full datagram unacknowledged and
        // one cell staged behind it, then bring it back: all must still
        // arrive.
        a.link.sock = None;
        for i in 0..=MAX_CELLS {
            let sent = a.send_cell(stamp(i), &cell(i));
            assert_eq!(sent.is_err(), i == MAX_CELLS - 1, "only the full datagram meets the wire");
        }
        assert_eq!(a.in_flight(), 2);
        assert!(matches!(a.pump(SimTime::ZERO), Err(PhyError::Io(_))));
        assert_eq!(a.in_flight(), 2);
        a.reconnect().unwrap();
        flush(&mut a, &mut b, SimTime::from_us(1));
        let want: Vec<_> = (0..=MAX_CELLS).map(|i| (stamp(i), cell(i))).collect();
        assert_eq!(polled(&mut b), want);
    }

    #[test]
    fn wall_clock_mode_waits_out_rto_before_the_first_retransmission() {
        let rto = SimTime::from_ms(20);
        let (a, b) = link_pair(&TransportFaultConfig::none(), 0, false, rto).unwrap();
        let (mut a, mut b) = (UdpCellPhy::over(a), UdpCellPhy::over(b));
        let ms = SimTime::from_ms;
        // An idle link, pumped now and then, long past `rto`.
        a.pump(ms(0)).unwrap();
        a.pump(ms(50)).unwrap();
        // A full datagram goes out from `send_cell` itself, a short one
        // from the pump: neither may be repeated before `rto` has run.
        for i in 0..MAX_CELLS + 1 {
            a.send_cell(ms(100), &cell(i)).unwrap();
        }
        a.pump(ms(101)).unwrap();
        assert_eq!(a.stats().datagrams_tx, 2);
        a.pump(ms(120)).unwrap();
        assert_eq!(a.stats().retransmits, 0, "rto has not run since the data went out");
        a.pump(ms(121)).unwrap();
        assert_eq!(a.stats().retransmits, 2, "rto ran out unacknowledged");
        a.pump(ms(140)).unwrap();
        assert_eq!(a.stats().retransmits, 2, "one round per rto");
        b.pump(ms(140)).unwrap();
        a.pump(ms(141)).unwrap();
        assert_eq!(a.in_flight(), 0);
        assert_eq!(b.stats().dup_drops, 2, "exactly the one retransmission round");
        assert_eq!(polled(&mut b).len(), MAX_CELLS + 1);
        // Idle again, then one more cell: the timer starts afresh.
        a.pump(ms(500)).unwrap();
        a.send_cell(ms(600), &cell(0)).unwrap();
        a.pump(ms(601)).unwrap();
        a.pump(ms(620)).unwrap();
        assert_eq!(a.stats().retransmits, 2);
    }

    #[test]
    fn parent_format_single_cell_datagrams_are_served_unchanged() {
        let (mut phy, raw) = raw_peer();
        // What a sender that knows nothing of records puts on the wire:
        // one 53-octet payload per datagram, stamp in the header.
        for i in 0..5 {
            raw_send(&raw, i as u64, stamp(i), &cell(i));
        }
        phy.pump(SimTime::ZERO).unwrap();
        let want: Vec<_> = (0..5).map(|i| (stamp(i), cell(i))).collect();
        assert_eq!(polled(&mut phy), want);
        assert_eq!(phy.stats().datagrams_rx, 5);
        // And the acknowledgement is the bare cumulative header it expects.
        let mut buf = [0u8; 64];
        let n = raw.recv(&mut buf).unwrap();
        let ack = encap::decode(&buf[..n]).unwrap();
        assert_eq!((ack.kind, ack.seq, ack.payload.len()), (KIND_ACK, 4, 0));

        // Traffic both ways, the link owing an ack whenever its cells
        // leave: a peer that never showed the flag gets no trailer, an
        // ack at every pump that brought data, and a retransmission of
        // whatever it left unacknowledged at every pump.
        let mut wire = vec![0u8; HEADER_LEN + MAX_PAYLOAD];
        for round in 0..4u64 {
            raw_send(&raw, 5 + round, stamp(0), &cell(0));
            for i in 0..MAX_CELLS + 2 {
                phy.send_cell(stamp(i), &cell(i)).unwrap();
            }
            phy.pump(SimTime::ZERO).unwrap();
            let (mut acks, mut data) = (Vec::new(), 0);
            while let Ok(n) = raw.recv(&mut wire) {
                let wire = &wire[..n];
                // The parent's rule: exactly the header and `len`, and
                // no flag it does not know on data.
                let len = usize::from(u16::from_le_bytes([wire[6], wire[7]]));
                assert_eq!(n, HEADER_LEN + len, "round {round}: the parent's exact length");
                if wire[4] == KIND_ACK {
                    acks.push(seq_of(wire));
                } else {
                    assert_eq!(wire[5] & FLAG_ACK, 0, "round {round}: no trailer flag on data");
                    data += 1;
                }
            }
            assert_eq!(acks, vec![5 + round], "round {round}: acked at the pump that received");
            // The full datagram as it filled; at the pump, it and both
            // of every earlier round's again; then the staged one.
            assert_eq!(data, 1 + (2 * round + 1) + 1, "round {round}: retransmitted every pump");
        }
        assert_eq!(phy.stats().acks_carried, 0);
    }

    #[test]
    fn a_ragged_cell_payload_is_counted_and_delivers_nothing() {
        let (mut phy, raw) = raw_peer();
        let mut seq = 0;
        for len in [0, 1, CELL_SIZE - 1, CELL_SIZE + 1, CELL_SIZE + 60, CELL_SIZE + 62, 4000] {
            raw_send(&raw, seq, SimTime::ZERO, &vec![0xEE; len]);
            seq += 1;
        }
        // A frame on the cell port is no better.
        let mut wire = Vec::new();
        encap::encode(KIND_FRAME, 0, seq, SimTime::ZERO, &[0xEE; CELL_SIZE], &mut wire).unwrap();
        raw.send(&wire).unwrap();
        phy.pump(SimTime::ZERO).unwrap();
        assert!(polled(&mut phy).is_empty());
        assert_eq!(phy.stats().decode_drops, seq + 1);
        // Each took its sequence number, so the well-formed one behind
        // them is in order.
        raw_send(&raw, seq + 1, stamp(1), &cell(1));
        phy.pump(SimTime::ZERO).unwrap();
        assert_eq!(polled(&mut phy), vec![(stamp(1), cell(1))]);
    }

    #[test]
    fn far_future_sequence_numbers_cannot_squat_in_the_reorder_hold() {
        let (mut phy, raw) = raw_peer();
        // As many forgeries as the hold has room for, none within its
        // reach of the next expected sequence number.
        for i in 0..MAX_HOLD {
            raw_send(&raw, MAX_HOLD + i, SimTime::ZERO, &cell(0));
            if i % 32 == 31 {
                phy.pump(SimTime::ZERO).unwrap();
            }
        }
        assert_eq!(phy.stats().window_drops, MAX_HOLD);
        assert!(phy.link.rx_hold.is_empty());
        // Genuine reordering — the far edge of the window first — is
        // still parked, and released in order when the gap fills.
        for seq in [MAX_HOLD - 1, 2, 1, 2] {
            raw_send(&raw, seq, stamp(seq as usize), &cell(seq as usize));
        }
        phy.pump(SimTime::ZERO).unwrap();
        assert!(polled(&mut phy).is_empty());
        assert_eq!(phy.link.rx_hold.len(), 3);
        assert_eq!(phy.stats().dup_drops, 1, "the second copy of 2");
        raw_send(&raw, 0, stamp(0), &cell(0));
        phy.pump(SimTime::ZERO).unwrap();
        let want: Vec<_> = (0..3).map(|i| (stamp(i), cell(i))).collect();
        assert_eq!(polled(&mut phy), want);
        assert_eq!(phy.link.rx_hold.len(), 1, "the far edge waits for its turn");
    }

    #[test]
    fn a_forged_far_future_ack_cannot_empty_the_retransmit_queue() {
        let (mut phy, raw) = raw_peer();
        for i in 0..3 {
            phy.send_cell(stamp(i), &cell(i)).unwrap();
        }
        phy.flush().unwrap();
        // The datagram is lost: the peer reads it and throws it away.
        let mut wire = vec![0u8; HEADER_LEN + MAX_PAYLOAD];
        assert!(raw.recv(&mut wire).is_ok());
        // Then acks nobody sent: bare, and in a data datagram's trailer.
        let mut forged = Vec::new();
        encap::encode(KIND_ACK, FLAG_ACK, u64::MAX, SimTime::ZERO, &[], &mut forged).unwrap();
        raw.send(&forged).unwrap();
        forged.clear();
        encap::encode(KIND_CELL, 0, 0, stamp(9), &cell(9), &mut forged).unwrap();
        encap::append_ack(&mut forged, 1);
        raw.send(&forged).unwrap();
        phy.pump(SimTime::ZERO).unwrap();
        assert_eq!(phy.in_flight(), 1, "the lost datagram is still owed");
        assert_eq!(phy.stats().window_drops, 2, "both forgeries counted");
        assert_eq!(polled(&mut phy), vec![(stamp(9), cell(9))], "the data behind one is good");
        // So it goes out again, and arrives.
        for _ in 0..LOCKSTEP_RETX_WAIT {
            phy.pump(SimTime::ZERO).unwrap();
        }
        let mut again = None;
        while let Ok(n) = raw.recv(&mut wire) {
            let d = encap::decode(&wire[..n]).unwrap();
            if d.kind == KIND_CELL {
                again = Some(encap::cells(&d).unwrap().map(|(at, c)| (at, *c)).collect::<Vec<_>>());
            }
        }
        assert_eq!(again, Some((0..3).map(|i| (stamp(i), cell(i))).collect()));
        assert_eq!(phy.stats().retransmits, 1);
    }

    /// One lockstep round of a two-way cell exchange: each end sends
    /// `n` cells, then the ends pump in turn.
    fn cell_round(a: &mut UdpCellPhy, b: &mut UdpCellPhy, next: &mut [usize; 2], n: [usize; 2]) {
        for (phy, (next, n)) in [&mut *a, &mut *b].into_iter().zip(next.iter_mut().zip(n)) {
            for _ in 0..n {
                phy.send_cell(stamp(*next), &cell(*next)).unwrap();
                *next += 1;
            }
        }
        a.pump(SimTime::ZERO).unwrap();
        b.pump(SimTime::ZERO).unwrap();
    }

    #[test]
    fn a_warm_two_way_cell_exchange_sends_no_bare_ack_and_no_retransmission() {
        let (mut a, mut b) = udp_cell_pair(&TransportFaultConfig::none()).unwrap();
        let mut next = [0, 0];
        for round in 0..3 {
            cell_round(&mut a, &mut b, &mut next, [30 + round, 7]);
        }
        let (a0, b0) = (a.stats(), b.stats());
        for round in 0..64 {
            // Fills from a part of one datagram to several.
            cell_round(&mut a, &mut b, &mut next, [1 + round % 50, 1 + round * 7 % 60]);
        }
        for (end, (s, s0)) in [(a.stats(), a0), (b.stats(), b0)].into_iter().enumerate() {
            assert_eq!(s.acks_tx, s0.acks_tx, "end {end}: every ack rode on data");
            assert_eq!(s.acks_carried - s0.acks_carried, 64, "end {end}: one trailer a round");
            assert_eq!(s.retransmits, s0.retransmits, "end {end}: no retransmission");
        }
        // Quiet, the debts go out bare; everything arrived exactly once.
        flush(&mut a, &mut b, SimTime::ZERO);
        assert_eq!(polled(&mut a), (0..next[1]).map(|i| (stamp(i), cell(i))).collect::<Vec<_>>());
        assert_eq!(polled(&mut b), (0..next[0]).map(|i| (stamp(i), cell(i))).collect::<Vec<_>>());
    }

    /// One lockstep round of a two-way frame exchange: each end sends
    /// `n` frames, then the ends pump in turn.
    fn frame_round(a: &mut UdpFramePhy, b: &mut UdpFramePhy, next: &mut [usize; 2], n: usize) {
        for (phy, next) in [&mut *a, &mut *b].into_iter().zip(next.iter_mut()) {
            for _ in 0..n {
                phy.send_frame(stamp(*next), frame(*next), *next % 3 == 0).unwrap();
                *next += 1;
            }
        }
        a.pump(SimTime::ZERO).unwrap();
        b.pump(SimTime::ZERO).unwrap();
    }

    fn frame(i: usize) -> Vec<u8> {
        vec![i as u8; 40 + i % 200]
    }

    fn frames_polled(phy: &mut UdpFramePhy) -> Vec<(SimTime, Vec<u8>, bool)> {
        let mut got = Vec::new();
        phy.poll_frames(&mut got).unwrap();
        got
    }

    fn frames_sent(n: usize) -> Vec<(SimTime, Vec<u8>, bool)> {
        (0..n).map(|i| (stamp(i), frame(i), i % 3 == 0)).collect()
    }

    #[test]
    fn a_warm_two_way_frame_exchange_sends_no_bare_ack_and_no_retransmission() {
        let (mut a, mut b) = udp_frame_pair(&TransportFaultConfig::none()).unwrap();
        let mut next = [0, 0];
        for _ in 0..3 {
            frame_round(&mut a, &mut b, &mut next, 1);
        }
        let (a0, b0) = (a.stats(), b.stats());
        for round in 0..64 {
            frame_round(&mut a, &mut b, &mut next, 1 + round % 3);
        }
        for (end, (s, s0)) in [(a.stats(), a0), (b.stats(), b0)].into_iter().enumerate() {
            assert_eq!(s.acks_tx, s0.acks_tx, "end {end}: every ack rode on data");
            assert_eq!(s.acks_carried - s0.acks_carried, 64, "end {end}: one trailer a round");
            assert_eq!(s.retransmits, s0.retransmits, "end {end}: no retransmission");
        }
        for _ in 0..256 {
            a.pump(SimTime::ZERO).unwrap();
            b.pump(SimTime::ZERO).unwrap();
            if a.in_flight() + b.in_flight() == 0 {
                break;
            }
        }
        assert_eq!(frames_polled(&mut a), frames_sent(next[1]));
        assert_eq!(frames_polled(&mut b), frames_sent(next[0]));
    }

    #[test]
    fn heavy_faults_are_invisible_above_a_two_way_exchange() {
        let faults = TransportFaultConfig { drop: 0.3, duplicate: 0.3, truncate: 0.2, seed: 0x2A7 };
        let (mut ca, mut cb) = udp_cell_pair(&faults).unwrap();
        let (mut fa, mut fb) = udp_frame_pair(&faults).unwrap();
        let (mut cells, mut frames) = ([0, 0], [0, 0]);
        for round in 0..200 {
            cell_round(&mut ca, &mut cb, &mut cells, [round % 30, round * 7 % 50]);
            frame_round(&mut fa, &mut fb, &mut frames, round % 2);
        }
        for _ in 0..4096 {
            cell_round(&mut ca, &mut cb, &mut cells, [0, 0]);
            frame_round(&mut fa, &mut fb, &mut frames, 0);
            if ca.in_flight() + cb.in_flight() + fa.in_flight() + fb.in_flight() == 0 {
                break;
            }
        }
        let cells_sent = |n: usize| (0..n).map(|i| (stamp(i), cell(i))).collect::<Vec<_>>();
        assert_eq!(polled(&mut ca), cells_sent(cells[1]), "exactly once, in order");
        assert_eq!(polled(&mut cb), cells_sent(cells[0]), "exactly once, in order");
        assert_eq!(frames_polled(&mut fa), frames_sent(frames[1]), "exactly once, in order");
        assert_eq!(frames_polled(&mut fb), frames_sent(frames[0]), "exactly once, in order");
        let mut s = ca.stats();
        for other in [cb.stats(), fa.stats(), fb.stats()] {
            s.merge(&other);
        }
        assert!(s.faults_dropped > 0 && s.faults_duplicated > 0 && s.faults_truncated > 0);
        assert!(s.retransmits > 0 && s.acks_carried > 0 && s.window_drops == 0, "{s:?}");
    }

    #[test]
    fn a_one_way_flow_between_warm_ends_is_acknowledged_at_the_fourth_pump() {
        let (mut a, mut b) = udp_cell_pair(&TransportFaultConfig::none()).unwrap();
        let mut next = [0, 0];
        for _ in 0..3 {
            cell_round(&mut a, &mut b, &mut next, [5, 5]);
        }
        flush(&mut a, &mut b, SimTime::ZERO);
        let acks = b.stats().acks_tx;
        for n in [1, MAX_CELLS, 3 * MAX_CELLS + 1] {
            // Only `a` sends; `b` has nothing to carry its ack, so it
            // sends it bare at its second pump after the one that
            // received the data, and `a` reads it at its next.
            cell_round(&mut a, &mut b, &mut next, [n, 0]);
            for _ in 0..2 {
                cell_round(&mut a, &mut b, &mut next, [0, 0]);
                assert!(a.in_flight() > 0, "{n} cells: the ack waits for data");
            }
            a.pump(SimTime::ZERO).unwrap();
            assert_eq!(a.in_flight(), 0, "{n} cells: acknowledged at a's fourth pump");
            b.pump(SimTime::ZERO).unwrap();
        }
        assert_eq!(b.stats().acks_tx - acks, 3);
        assert_eq!(a.stats().retransmits + b.stats().retransmits, 0);
        assert_eq!(polled(&mut b).len(), next[0]);
    }

    #[test]
    fn wall_clock_mode_never_retransmits_a_flowing_link_before_rto() {
        let rto = SimTime::from_ms(20);
        let (a, b) = link_pair(&TransportFaultConfig::none(), 0, false, rto).unwrap();
        let (mut a, mut b) = (UdpCellPhy::over(a), UdpCellPhy::over(b));
        // Each millisecond both ends pump, then a full datagram leaves
        // and one more cell is staged: the queue never runs empty, but
        // every pump's ack makes progress on it.
        let mut sent = 0;
        for ms in 0..200 {
            a.pump(SimTime::from_ms(ms)).unwrap();
            b.pump(SimTime::from_ms(ms)).unwrap();
            assert!(ms == 0 || a.in_flight() > 0);
            for _ in 0..=MAX_CELLS {
                a.send_cell(SimTime::from_ms(ms), &cell(sent)).unwrap();
                sent += 1;
            }
        }
        assert_eq!(a.stats().retransmits, 0, "progress restarts the timer");
        assert_eq!(polled(&mut b).len(), sent - MAX_CELLS - 1);
    }
}
