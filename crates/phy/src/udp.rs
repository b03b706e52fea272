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
//! resends the oldest unacknowledged datagram once it has waited out
//! the retransmission timer. With that in place, injected datagram
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
//! Every datagram carries the link's cumulative ack in its header —
//! the next sequence number it expects from the peer — so a bare ack,
//! a datagram and a syscall of its own, is needed only where no data
//! leaves. An ack debt opens at the pump that receives a data datagram.
//! Every transmission of a data datagram, first or repeated, writes the
//! current ack and settles the debt. If none has by the second pump
//! after the one that opened it (`ACK_WAIT`), that pump sends one bare
//! ack. Two pumps, not one, because the appliance pumps before it
//! admits: the frame or cells that answer a datagram leave after the
//! pump that follows its arrival. A one-way flow is therefore
//! acknowledged at most once per `ACK_WAIT` pumps.
//!
//! # When data is retransmitted
//!
//! Each unacknowledged datagram's timer starts at the first pump after
//! it went on the wire, and again at each pump that resends it. In
//! wall-clock mode a timer runs `RTO`; in lockstep mode the clock is
//! the link's own pump count, and a timer runs `LOCKSTEP_RETX_WAIT`
//! (3) pumps. A pump resends only the head of the unacknowledged tail,
//! and only once the head's timer has run out: the receiver parks what
//! arrives behind a gap, so everything behind the head it may hold
//! already. That one rule covers two cases. With no ack, the head goes
//! again when its timer runs out. When an ack advances but leaves a
//! head whose timer has already run out — a second loss in the same
//! window — that head goes again at once, in the pump that read the
//! ack (the partial-ack rule of RFC 6582). So `k` losses in one window
//! cost one timer period and then a round trip each, not `k` periods.
//!
//! Why two ends pumped alternately never retransmit on a loss-free
//! wire: say a datagram's timer starts at this end's pump *a*. It went
//! on the wire before pump *a* began (or, resent, during it). The peer
//! pumps once between each two of ours, so its pump after our *a* has
//! received the datagram at the latest, and a debt covering it is open
//! from that pump or an earlier one. The peer settles the debt by its
//! second pump after the one that opened it, which comes before our
//! pump *a* + 3; and our pump *a* + 3 reads the ack before it looks at
//! the timer.
//!
//! Socket errors (e.g. ICMP port-unreachable surfacing as
//! `ConnectionRefused` on a connected UDP socket) are *not* masked:
//! they bubble out of [`CellPhy::pump`]/[`FramePhy::pump`] so the port
//! supervisor can start its backoff/reconnect cycle. Staged and
//! unacknowledged datagrams survive a [`CellPhy::reconnect`] and go out
//! once the transport is back — a flap loses no traffic, only time.

use crate::encap::{
    self, Datagram, FLAG_SYNC, FULL_CELL_DATAGRAM_LEN, HEADER_LEN, KIND_ACK, KIND_CELL, KIND_FRAME,
    MAX_PAYLOAD,
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

/// Pumps the lockstep retransmission timer runs: one for the datagram
/// to reach the peer's next pump, [`ACK_WAIT`] for its ack to leave.
const LOCKSTEP_RETX_WAIT: u64 = 1 + ACK_WAIT;

/// How long the wall-clock retransmission timer runs: a real peer
/// answers in real time.
const RTO: SimTime = SimTime::from_ms(50);

/// Buffers of acknowledged datagrams kept for the next sends. A frame's
/// worth of cell datagrams is four; the bound keeps a burst from
/// becoming resident.
const MAX_FREE: usize = 16;

/// The sequence number in an encoded datagram's header.
fn seq_of(datagram: &[u8]) -> u64 {
    u64::from_le_bytes(datagram[8..16].try_into().expect("an encoded header"))
}

/// A datagram on the wire and not yet acknowledged.
#[derive(Debug)]
struct Unacked {
    /// The encoded datagram.
    bytes: Vec<u8>,
    /// Where its retransmission timer started, on
    /// [`UdpLink::retx_clock`]: the first pump after it last went on the
    /// wire. `None` until that pump.
    since: Option<u64>,
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
    /// Datagrams sent and not yet acknowledged, oldest first.
    unacked: VecDeque<Unacked>,
    free: Vec<Vec<u8>>,
    rx_next: u64,
    /// Whole datagrams that arrived ahead of `rx_next`, by sequence
    /// number; each decoded cleanly before it was parked.
    rx_hold: BTreeMap<u64, Vec<u8>>,
    /// The pump that opened the current ack debt, if one is open.
    ack_due: Option<u64>,
    /// An encoded bare ack, rewritten with the current ack at each send.
    ack_buf: Vec<u8>,
    faults: Option<FaultHook>,
    /// Lockstep (co-sim) mode counts the retransmission timer in pumps;
    /// wall-clock mode waits out [`RTO`].
    lockstep: bool,
    /// Pumps run, this one included.
    pumps: u64,
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
    /// A wall-clock link with no fault hook, as a daemon port runs.
    fn open(local: SocketAddr, peer: SocketAddr) -> io::Result<UdpLink> {
        UdpLink::from_socket(
            bind_nonblocking(local, peer)?,
            peer,
            TransportFaultConfig::none(),
            false,
        )
    }

    fn from_socket(
        sock: UdpSocket,
        peer: SocketAddr,
        faults: TransportFaultConfig,
        lockstep: bool,
    ) -> io::Result<UdpLink> {
        let local = sock.local_addr()?;
        let faults =
            faults.is_active().then(|| FaultHook { rng: SimRng::new(faults.seed), config: faults });
        let mut ack_buf = Vec::with_capacity(HEADER_LEN);
        encap::encode(KIND_ACK, 0, 0, SimTime::ZERO, &[], &mut ack_buf)
            .expect("an empty payload fits");
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
            ack_buf,
            faults,
            lockstep,
            pumps: 0,
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

    /// Put a data datagram on the wire, first time or again, carrying
    /// the current cumulative ack, which settles any debt.
    fn transmit_data(&mut self, bytes: &mut [u8]) -> Result<(), PhyError> {
        encap::set_ack(bytes, self.rx_next);
        if self.ack_due.take().is_some() {
            self.stats.acks_carried += 1;
        }
        self.transmit(bytes)
    }

    /// A datagram's first transmission.
    fn launch(&mut self, mut bytes: Vec<u8>) -> Result<(), PhyError> {
        self.stats.datagrams_tx += 1;
        let res = self.transmit_data(&mut bytes);
        // Queued even when the transmission failed: it retransmits once
        // the supervisor brings the transport back.
        self.unacked.push_back(Unacked { bytes, since: None });
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
            // Room for a full one at once: a recycled buffer never
            // grows again, whichever fill it carried last.
            self.staged.reserve(FULL_CELL_DATAGRAM_LEN - self.staged.len());
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
        let Ok(d) = encap::decode(wire) else {
            self.stats.decode_drops += 1;
            return;
        };
        self.take_ack(d.ack);
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

    /// Release what a cumulative ack covers: every datagram below the
    /// next sequence number the peer expects. An ack past the number of
    /// datagrams this link has put on the wire is forged or garbled: it
    /// is ignored (and counted), so it cannot empty the queue of what
    /// the peer never received.
    fn take_ack(&mut self, ack: u64) {
        let launched = self.next_seq - u64::from(!self.staged.is_empty());
        if ack > launched {
            self.stats.window_drops += 1;
            return;
        }
        while self.unacked.front().is_some_and(|d| seq_of(&d.bytes) < ack) {
            let d = self.unacked.pop_front().expect("front checked above");
            recycle(&mut self.free, d.bytes);
        }
    }

    /// The retransmission timer's clock, and how long the
    /// unacknowledged tail waits on it: pumps in lockstep mode,
    /// nanoseconds otherwise.
    fn retx_clock(&self, now: SimTime) -> (u64, u64) {
        if self.lockstep {
            (self.pumps, LOCKSTEP_RETX_WAIT)
        } else {
            (now.as_ns(), RTO.as_ns())
        }
    }

    fn pump(
        &mut self,
        now: SimTime,
        accept: &mut impl FnMut(&Datagram<'_>) -> bool,
    ) -> Result<(), PhyError> {
        self.pumps += 1;
        // Start the timers of the datagrams sent since the last pump:
        // the tail of the queue, back to the first that has one.
        let (tick, wait) = self.retx_clock(now);
        for d in self.unacked.iter_mut().rev() {
            if d.since.is_some() {
                break;
            }
            d.since = Some(tick);
        }
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
        // A bare ack for a debt no data has settled in time.
        if self.ack_due.is_some_and(|since| self.pumps >= since + ACK_WAIT) {
            self.ack_due = None;
            let mut ack = std::mem::take(&mut self.ack_buf);
            encap::set_ack(&mut ack, self.rx_next);
            self.stats.acks_tx += 1;
            let res = self.transmit(&ack);
            self.ack_buf = ack;
            res?;
        }
        // Resend the head once its timer has run out, then send what is
        // staged — in that order, so no datagram goes out twice in one
        // pump. Only the head: what follows it the peer may hold already.
        if let Some(head) = self.unacked.front_mut() {
            if head.since.is_some_and(|since| tick >= since + wait) {
                head.since = Some(tick);
                let mut bytes = std::mem::take(&mut head.bytes);
                self.stats.retransmits += 1;
                let res = self.transmit_data(&mut bytes);
                self.unacked[0].bytes = bytes;
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
    /// Bind `local`, connect to `peer`: a wall-clock port, whose
    /// unacknowledged tail retransmits every 50 ms (`RTO`) of the
    /// `now` its pumps are given.
    pub fn bind(local: SocketAddr, peer: SocketAddr) -> io::Result<UdpCellPhy> {
        Ok(UdpCellPhy::over(UdpLink::open(local, peer)?))
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
        // Two block copies: extending from a drain goes cell by cell.
        let (front, back) = self.inbox.as_slices();
        out.extend_from_slice(front);
        out.extend_from_slice(back);
        self.inbox.clear();
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
    pub fn bind(local: SocketAddr, peer: SocketAddr) -> io::Result<UdpFramePhy> {
        Ok(UdpFramePhy::over(UdpLink::open(local, peer)?))
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
    let a = UdpLink::from_socket(a, ba, fa, lockstep)?;
    let b = UdpLink::from_socket(b, aa, fb, lockstep)?;
    Ok((a, b))
}

/// An in-process pair of connected [`UdpCellPhy`] endpoints on
/// localhost, in lockstep mode, each direction with its own forked
/// fault stream.
pub fn udp_cell_pair(faults: &TransportFaultConfig) -> io::Result<(UdpCellPhy, UdpCellPhy)> {
    let (a, b) = link_pair(faults, 0x0C11_0000, true)?;
    Ok((UdpCellPhy::over(a), UdpCellPhy::over(b)))
}

/// An in-process pair of connected [`UdpFramePhy`] endpoints on
/// localhost, in lockstep mode, each direction with its own forked
/// fault stream.
pub fn udp_frame_pair(faults: &TransportFaultConfig) -> io::Result<(UdpFramePhy, UdpFramePhy)> {
    let (a, b) = link_pair(faults, 0x0F1A_0000, true)?;
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

    /// A bare socket speaking GWP1 to a gateway-side cell port in
    /// lockstep mode.
    fn raw_peer() -> (UdpCellPhy, UdpSocket) {
        let raw = UdpSocket::bind(any_local()).unwrap();
        raw.set_nonblocking(true).unwrap();
        let peer = raw.local_addr().unwrap();
        let sock = bind_nonblocking(any_local(), peer).unwrap();
        let phy = UdpCellPhy::over(
            UdpLink::from_socket(sock, peer, TransportFaultConfig::none(), true).unwrap(),
        );
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
            // The receiver first. The staged datagram leaves at the
            // sender's first pump and the receiver's bare ack `ACK_WAIT`
            // pumps after the one that took it: four rounds see it all
            // across.
            for _ in 0..4 {
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
        let (a, b) = link_pair(&TransportFaultConfig::none(), 0, false).unwrap();
        let (mut a, mut b) = (UdpCellPhy::over(a), UdpCellPhy::over(b));
        let ms = SimTime::from_ms;
        // An idle link, pumped now and then, long past `RTO`.
        a.pump(ms(0)).unwrap();
        a.pump(RTO).unwrap();
        // A full datagram goes out from `send_cell` itself, a short one
        // from the pump: neither may be repeated before `RTO` has run.
        for i in 0..MAX_CELLS + 1 {
            a.send_cell(ms(100), &cell(i)).unwrap();
        }
        a.pump(ms(101)).unwrap();
        assert_eq!(a.stats().datagrams_tx, 2);
        a.pump(ms(100) + RTO).unwrap();
        assert_eq!(a.stats().retransmits, 0, "RTO has not run since the data went out");
        a.pump(ms(101) + RTO).unwrap();
        assert_eq!(a.stats().retransmits, 1, "RTO ran out unacknowledged: the head goes again");
        a.pump(ms(100) + RTO + RTO).unwrap();
        assert_eq!(a.stats().retransmits, 1, "one resend per RTO, and only the head");
        // The receiver's bare ack leaves `ACK_WAIT` pumps after the one
        // that took the data.
        for _ in 0..=ACK_WAIT {
            b.pump(ms(300)).unwrap();
        }
        a.pump(ms(301)).unwrap();
        assert_eq!(a.in_flight(), 0);
        assert_eq!(b.stats().dup_drops, 1, "exactly the one retransmission");
        assert_eq!(polled(&mut b).len(), MAX_CELLS + 1);
        // Idle again, then one more cell: the timer starts afresh.
        a.pump(ms(500)).unwrap();
        a.send_cell(ms(600), &cell(0)).unwrap();
        a.pump(ms(601)).unwrap();
        a.pump(ms(600) + RTO).unwrap();
        assert_eq!(a.stats().retransmits, 1);
    }

    /// Three losses in one window of ten. The first lost datagram goes
    /// again when its timer runs out; each ack after that leaves a head
    /// whose timer has run out too, and it goes again in the pump that
    /// read the ack. Recovery takes one timer period plus one pump per
    /// loss, and nothing the peer already holds is sent twice.
    #[test]
    fn losses_in_one_window_cost_one_timer_period_and_a_pump_each() {
        let (mut phy, raw) = raw_peer();
        let lost = [2, 5, 8];
        for i in 0..10 {
            phy.send_cell(stamp(i), &cell(i)).unwrap();
            phy.flush().unwrap();
        }
        // The peer loses the first copy of each lost datagram, parks
        // what arrives behind a gap, and acks at each of its pumps.
        let mut wire = vec![0u8; HEADER_LEN + MAX_PAYLOAD];
        let (mut next, mut parked, mut dups) = (0u64, Vec::new(), 0);
        let mut copies = [0; 10];
        let mut pumps = 0;
        while phy.in_flight() > 0 {
            assert!(pumps < 64, "no recovery");
            phy.pump(SimTime::ZERO).unwrap();
            pumps += 1;
            while let Ok(n) = raw.recv(&mut wire) {
                let d = encap::decode(&wire[..n]).unwrap();
                copies[d.seq as usize] += 1;
                if lost.contains(&d.seq) && copies[d.seq as usize] == 1 {
                    continue;
                }
                if d.seq < next || parked.contains(&d.seq) {
                    dups += 1;
                }
                parked.push(d.seq);
                while parked.contains(&next) {
                    next += 1;
                }
            }
            let mut ack = Vec::new();
            encap::encode(KIND_ACK, 0, 0, SimTime::ZERO, &[], &mut ack).unwrap();
            encap::set_ack(&mut ack, next);
            raw.send(&ack).unwrap();
        }
        assert_eq!(next, 10);
        assert!(pumps <= 1 + LOCKSTEP_RETX_WAIT as usize + lost.len(), "{pumps} pumps");
        assert_eq!(phy.stats().retransmits, lost.len() as u64, "the lost ones, once each");
        assert_eq!(dups, 0, "nothing the peer held came again: {copies:?}");
    }

    /// A datagram in the layout whose header had no `ack` field: 24
    /// octets, then the payload, then — when `trailer` is set — the
    /// acknowledgement trailer that layout announced with flag bit 1.
    fn old_layout(kind: u8, seq: u64, payload: &[u8], trailer: Option<u64>) -> Vec<u8> {
        let mut wire = b"GWP1".to_vec();
        wire.push(kind);
        wire.push(if trailer.is_some() { 0x02 } else { 0 });
        wire.extend_from_slice(&(payload.len() as u16).to_le_bytes());
        wire.extend_from_slice(&seq.to_le_bytes());
        wire.extend_from_slice(&stamp(seq as usize).as_ns().to_le_bytes());
        wire.extend_from_slice(payload);
        wire.extend(trailer.iter().flat_map(|ack| ack.to_le_bytes()));
        wire
    }

    #[test]
    fn datagrams_of_the_24_octet_header_layout_are_counted_and_deliver_nothing() {
        let (mut phy, raw) = raw_peer();
        phy.send_cell(stamp(0), &cell(0)).unwrap();
        phy.flush().unwrap();
        assert_eq!(phy.in_flight(), 1);
        // A cell, a frame, a bare ack of the datagram just sent, and a
        // cell with an ack trailer, whose length matches this layout's.
        for wire in [
            old_layout(KIND_CELL, 0, &cell(0), None),
            old_layout(KIND_FRAME, 0, &[0xEE; 100], None),
            old_layout(KIND_ACK, 0, &[], None),
            old_layout(KIND_CELL, 0, &cell(0), Some(0)),
        ] {
            raw.send(&wire).unwrap();
        }
        phy.pump(SimTime::ZERO).unwrap();
        let s = phy.stats();
        assert_eq!((s.decode_drops, s.datagrams_rx), (4, 0), "each rejected, none delivered");
        assert!(polled(&mut phy).is_empty());
        assert_eq!(phy.in_flight(), 1, "nothing acknowledged");
        // None took sequence number 0.
        raw_send(&raw, 0, stamp(1), &cell(1));
        phy.pump(SimTime::ZERO).unwrap();
        assert_eq!(polled(&mut phy), vec![(stamp(1), cell(1))]);
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
        // Then acks nobody sent: bare, and on a data datagram, the
        // second one past the one datagram launched.
        let mut forged = Vec::new();
        encap::encode(KIND_ACK, 0, 0, SimTime::ZERO, &[], &mut forged).unwrap();
        encap::set_ack(&mut forged, u64::MAX);
        raw.send(&forged).unwrap();
        forged.clear();
        encap::encode(KIND_CELL, 0, 0, stamp(9), &cell(9), &mut forged).unwrap();
        encap::set_ack(&mut forged, 2);
        raw.send(&forged).unwrap();
        phy.pump(SimTime::ZERO).unwrap();
        assert_eq!(phy.in_flight(), 1, "the lost datagram is still owed");
        assert_eq!(phy.stats().window_drops, 2, "both forgeries counted");
        assert_eq!(polled(&mut phy), vec![(stamp(9), cell(9))], "the data behind one is good");
        // So it goes out again, and arrives, acknowledging what it can.
        for _ in 0..LOCKSTEP_RETX_WAIT {
            phy.pump(SimTime::ZERO).unwrap();
        }
        let mut again = None;
        while let Ok(n) = raw.recv(&mut wire) {
            let d = encap::decode(&wire[..n]).unwrap();
            assert_eq!(d.ack, 1, "every datagram acknowledges the cell received");
            if d.kind == KIND_CELL {
                again = Some(encap::cells(&d).unwrap().map(|(at, c)| (at, *c)).collect::<Vec<_>>());
            }
        }
        assert_eq!(again, Some((0..3).map(|i| (stamp(i), cell(i))).collect()));
        assert_eq!(phy.stats().retransmits, 1);
        // An ack of exactly what was launched is genuine.
        forged.clear();
        encap::encode(KIND_ACK, 0, 0, SimTime::ZERO, &[], &mut forged).unwrap();
        encap::set_ack(&mut forged, 1);
        raw.send(&forged).unwrap();
        phy.pump(SimTime::ZERO).unwrap();
        assert_eq!(phy.in_flight(), 0, "ack == launched empties the queue");
        assert_eq!(phy.stats().window_drops, 2);
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
            assert_eq!(s.acks_carried - s0.acks_carried, 64, "end {end}: one carried a round");
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
            assert_eq!(s.acks_carried - s0.acks_carried, 64, "end {end}: one carried a round");
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
    fn a_one_way_flow_from_a_cold_start_is_acknowledged_at_the_fourth_pump() {
        let (mut a, mut b) = udp_cell_pair(&TransportFaultConfig::none()).unwrap();
        let mut next = [0, 0];
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
        assert_eq!(b.stats().acks_tx, 3);
        assert_eq!(a.stats().retransmits + b.stats().retransmits, 0);
        assert_eq!(polled(&mut b).len(), next[0]);
    }

    #[test]
    fn a_cold_one_way_cell_flow_sends_at_most_one_bare_ack_per_ack_wait_pumps() {
        let (mut a, mut b) = udp_cell_pair(&TransportFaultConfig::none()).unwrap();
        let mut next = [0, 0];
        // The pump of `b` at which each bare ack left.
        let mut acked_at = Vec::new();
        for round in 0..300 {
            // From nothing to several datagrams a round, and quiet at the end.
            let n = if round < 200 { round * 7 % 50 } else { 0 };
            let acks = b.stats().acks_tx;
            cell_round(&mut a, &mut b, &mut next, [n, 0]);
            if b.stats().acks_tx > acks {
                acked_at.push(b.link.pumps);
            }
        }
        assert_eq!(a.in_flight(), 0);
        assert!(acked_at.windows(2).all(|w| w[1] - w[0] >= ACK_WAIT), "{acked_at:?}");
        assert_eq!(b.stats().acks_tx as usize, acked_at.len(), "one bare ack a pump at most");
        assert_eq!(a.stats().retransmits, 0);
        let sent: Vec<_> = (0..next[0]).map(|i| (stamp(i), cell(i))).collect();
        assert_eq!(polled(&mut b), sent, "exactly once, in order");
    }

    #[test]
    fn wall_clock_mode_never_retransmits_a_flowing_link_before_rto() {
        let (a, b) = link_pair(&TransportFaultConfig::none(), 0, false).unwrap();
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
        assert!(b.stats().acks_tx > 0, "acknowledged well inside RTO");
        assert_eq!(polled(&mut b).len(), sent - MAX_CELLS - 1);
    }
}
