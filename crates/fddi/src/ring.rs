//! The event-driven FDDI ring: token circulation, MAC-limited
//! transmission, and frame delivery (§3; §4.3 "SUPERNET").
//!
//! Stations are arranged on a unidirectional ring. The token visits
//! them in order; at each visit the station's [`MacTimers`] decide how
//! much synchronous and asynchronous transmission is permitted. Frames
//! propagate downstream, are copied out at stations whose addresses
//! match the destination (point-to-point, group, or broadcast), and are
//! stripped when they return to their source — which the simulation
//! models by simply not forwarding past the source.
//!
//! The ring exposes SUPERNET-style statistics registers per station
//! ("it provides various registers to keep track of ring statistics",
//! §4.3) and a token-rotation histogram for experiment E12.
//!
//! An idle pass costs O(1). Each station counts the asynchronous frames
//! queued across its eight priorities, and the ring counts the
//! receptions no one has taken yet: a token visit to a station with
//! nothing queued skips the priority scan, the depth a push checks is
//! one read, and a caller can tell from [`Ring::rx_pending`] that there
//! is nothing to take.

use crate::claim::{claim_process, ClaimOutcome};
use crate::mac::MacTimers;
use crate::{FRAME_OVERHEAD_OCTETS, NS_PER_KM, NS_PER_OCTET, TOKEN_OCTETS};
use gw_sim::event::EventQueue;
use gw_sim::stats::Histogram;
use gw_sim::time::SimTime;
use gw_wire::fddi::{FddiAddr, Frame};
use std::collections::VecDeque;

/// Configuration for one station.
#[derive(Debug, Clone)]
pub struct StationConfig {
    /// TTRT bid for the claim process.
    pub t_req: SimTime,
    /// Synchronous allocation per token visit.
    pub sync_alloc: SimTime,
    /// Group addresses this station listens to (in addition to its
    /// individual address and broadcast).
    pub groups: Vec<FddiAddr>,
    /// Synchronous transmit queue capacity (frames).
    pub sync_queue_frames: usize,
    /// Asynchronous transmit queue capacity (frames, shared across
    /// priorities).
    pub async_queue_frames: usize,
    /// Asynchronous priority thresholds `T_Pri[p]` (X3.139 §8.3.4.2):
    /// a priority-`p` frame may start transmitting only while the
    /// remaining token holding time exceeds `t_pri[p]`. All zero by
    /// default (no restriction); lower priorities are typically given
    /// larger thresholds so they yield first as the ring loads up.
    pub t_pri: [SimTime; 8],
}

impl Default for StationConfig {
    fn default() -> Self {
        StationConfig {
            t_req: SimTime::from_ms(8), // X3.139 default T_Req is 8 ms
            sync_alloc: SimTime::ZERO,
            groups: Vec::new(),
            sync_queue_frames: 64,
            async_queue_frames: 256,
            t_pri: [SimTime::ZERO; 8],
        }
    }
}

/// Ring-wide configuration.
#[derive(Debug, Clone)]
pub struct RingConfig {
    /// Stations, in ring order.
    pub stations: Vec<StationConfig>,
    /// Total fibre length in kilometres (≤ 200, Figure 2).
    pub ring_km: u64,
    /// Per-station repeat latency.
    pub station_latency: SimTime,
}

impl RingConfig {
    /// A ring of `n` identical default stations over `ring_km` of fibre.
    pub fn uniform(n: usize, ring_km: u64) -> RingConfig {
        RingConfig {
            stations: vec![StationConfig::default(); n],
            ring_km,
            station_latency: SimTime::from_ns(600),
        }
    }
}

/// A frame copied off the ring at a receiving station.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Delivery {
    /// When reception completed.
    pub time: SimTime,
    /// Receiving station index.
    pub to: usize,
    /// Transmitting station index.
    pub from: usize,
    /// The complete MAC frame.
    pub frame: Vec<u8>,
}

/// Per-station statistics registers (§4.3 "SUPERNET").
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StationStats {
    /// Token visits.
    pub tokens_seen: u64,
    /// Frames transmitted (synchronous class).
    pub sync_frames_tx: u64,
    /// Frames transmitted (asynchronous class).
    pub async_frames_tx: u64,
    /// Octets transmitted.
    pub octets_tx: u64,
    /// Frames received (copied off the ring).
    pub frames_rx: u64,
    /// Octets received.
    pub octets_rx: u64,
    /// Frames dropped at enqueue because a transmit queue was full.
    pub queue_drops: u64,
}

/// Ring-wide statistics.
#[derive(Debug, Clone)]
pub struct RingStats {
    /// Negotiated TTRT.
    pub ttrt: SimTime,
    /// Claim outcome recorded at initialization.
    pub claim: ClaimOutcome,
    /// Token rotation time histogram, sampled at station 0 (µs bins).
    pub rotation_us: Histogram,
    /// Total completed token rotations (arrivals at station 0).
    pub rotations: u64,
    /// Ring recoveries: re-claims after station bypass or reinsertion.
    pub recoveries: u64,
}

#[derive(Debug)]
struct Station {
    addr: FddiAddr,
    config: StationConfig,
    mac: MacTimers,
    sync_q: VecDeque<Vec<u8>>,
    /// Asynchronous queues, one per priority (7 = highest).
    async_q: [VecDeque<Vec<u8>>; 8],
    /// Frames in `async_q`, all priorities.
    async_len: usize,
    rx: VecDeque<Delivery>,
    stats: StationStats,
    /// True when the station's optical bypass relay is engaged: the
    /// ring passes through it but it neither transmits nor receives.
    bypassed: bool,
}

impl Station {
    fn listens_to(&self, dst: FddiAddr) -> bool {
        dst == self.addr
            || dst.is_broadcast()
            || (dst.is_group() && self.config.groups.contains(&dst))
    }
}

/// Event-queue lane of the token: one token circulates, each pass
/// later than the one before, so its pushes come in time order.
const TOKEN: usize = 0;
/// Event-queue lane of frame deliveries: each frame's receptions come
/// later down the ring, and frames follow the token. A delivery that
/// would go backwards (a far reception of one frame after a near one of
/// the next) falls to the heap; the pop order is the heap's either way.
const DELIVERIES: usize = 1;

#[derive(Debug)]
enum RingEvent {
    /// The token arrives at a station.
    Token(usize),
    /// A frame finishes arriving at a station.
    Deliver { to: usize, from: usize, frame: Vec<u8> },
}

/// The FDDI ring simulation.
///
/// ```
/// use gw_fddi::ring::{Ring, RingConfig};
/// use gw_sim::time::SimTime;
/// use gw_wire::fddi::{FddiAddr, FrameControl, FrameRepr};
///
/// let mut ring = Ring::new(RingConfig::uniform(4, 10));
/// let frame = FrameRepr {
///     fc: FrameControl::LlcAsync { priority: 0 },
///     dst: FddiAddr::station(2),
///     src: FddiAddr::station(0),
///     info: b"token ring".to_vec(),
/// }
/// .emit()
/// .unwrap();
/// ring.push_async(0, frame).unwrap();
/// ring.run_until(SimTime::from_ms(5));
/// assert_eq!(ring.take_rx(2).len(), 1);
/// ```
#[derive(Debug)]
pub struct Ring {
    stations: Vec<Station>,
    /// Deliveries in the stations' `rx` queues.
    rx_len: usize,
    hop_latency: SimTime,
    events: EventQueue<RingEvent>,
    stats: RingStats,
}

impl Ring {
    /// Build the ring, run the claim process, and issue the first token
    /// from the claim winner.
    ///
    /// # Panics
    /// Panics on an empty station list or an unschedulable synchronous
    /// allocation (Σ sync + ring latency > TTRT) — a misconfiguration
    /// the claim process would beacon on in real hardware.
    pub fn new(config: RingConfig) -> Ring {
        assert!(!config.stations.is_empty(), "a ring needs at least one station");
        let n = config.stations.len();
        let hop_latency =
            SimTime::from_ns(config.ring_km * NS_PER_KM / n as u64) + config.station_latency;
        let ring_latency = SimTime::from_ns(hop_latency.as_ns() * n as u64);

        let bids: Vec<(FddiAddr, SimTime, SimTime)> = config
            .stations
            .iter()
            .enumerate()
            .map(|(i, s)| (FddiAddr::station(i as u32), s.t_req, s.sync_alloc))
            .collect();
        let claim = claim_process(&bids, ring_latency).expect("nonempty ring");
        assert!(
            claim.sync_slack.is_some(),
            "synchronous allocation unschedulable: sum(sync)+latency > TTRT"
        );
        let ttrt = claim.ttrt;

        let stations: Vec<Station> = config
            .stations
            .into_iter()
            .enumerate()
            .map(|(i, sc)| Station {
                addr: FddiAddr::station(i as u32),
                mac: MacTimers::new(SimTime::ZERO, ttrt, sc.sync_alloc),
                config: sc,
                sync_q: VecDeque::new(),
                async_q: Default::default(),
                async_len: 0,
                rx: VecDeque::new(),
                stats: StationStats::default(),
                bypassed: false,
            })
            .collect();

        let mut events = EventQueue::new();
        // The claim winner issues the token; it first arrives at the
        // winner's downstream neighbour after one hop.
        let first = (claim.winner + 1) % n;
        events.push_lane(TOKEN, hop_latency, RingEvent::Token(first));

        Ring {
            stations,
            rx_len: 0,
            hop_latency,
            events,
            stats: RingStats {
                ttrt,
                claim,
                rotation_us: Histogram::new(1, 65536),
                rotations: 0,
                recoveries: 0,
            },
        }
    }

    /// The negotiated TTRT.
    pub fn ttrt(&self) -> SimTime {
        self.stats.ttrt
    }

    /// The MAC address of station `i`.
    pub fn address(&self, station: usize) -> FddiAddr {
        self.stations[station].addr
    }

    /// Number of stations.
    pub fn len(&self) -> usize {
        self.stations.len()
    }

    /// Always false: rings have at least one station.
    pub fn is_empty(&self) -> bool {
        self.stations.is_empty()
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.events.now()
    }

    /// Enqueue a frame for synchronous transmission at `station`.
    /// Returns the frame back if the queue is full (counted as a drop).
    pub fn push_sync(&mut self, station: usize, frame: Vec<u8>) -> Result<(), Vec<u8>> {
        let s = &mut self.stations[station];
        if s.sync_q.len() >= s.config.sync_queue_frames {
            s.stats.queue_drops += 1;
            return Err(frame);
        }
        s.sync_q.push_back(frame);
        Ok(())
    }

    /// Enqueue a frame for asynchronous transmission at `station`. The
    /// priority comes from the frame's FC field (0 when absent).
    pub fn push_async(&mut self, station: usize, frame: Vec<u8>) -> Result<(), Vec<u8>> {
        let s = &mut self.stations[station];
        if s.async_len >= s.config.async_queue_frames {
            s.stats.queue_drops += 1;
            return Err(frame);
        }
        use gw_wire::fddi::FrameControl;
        let prio = match FrameControl::from_byte(frame[0]) {
            Ok(FrameControl::LlcAsync { priority }) => priority.min(7) as usize,
            // Every non-async class (and an undecodable FC octet) rides
            // the lowest queue; named so a new class is a build break.
            Ok(
                FrameControl::Token
                | FrameControl::MacClaim
                | FrameControl::MacBeacon
                | FrameControl::Smt
                | FrameControl::LlcSync,
            )
            | Err(_) => 0,
        };
        s.async_q[prio].push_back(frame);
        s.async_len += 1;
        Ok(())
    }

    /// Occupancy of a station's transmit queues `(sync, async)` in frames.
    pub fn queue_depths(&self, station: usize) -> (usize, usize) {
        let s = &self.stations[station];
        (s.sync_q.len(), s.async_len)
    }

    /// Drain frames received at `station`.
    pub fn take_rx(&mut self, station: usize) -> Vec<Delivery> {
        let rx = &mut self.stations[station].rx;
        if rx.is_empty() {
            return Vec::new();
        }
        self.rx_len -= rx.len();
        rx.drain(..).collect()
    }

    /// Frames received at any station and not yet taken.
    pub fn rx_pending(&self) -> usize {
        self.rx_len
    }

    /// Statistics registers of one station.
    pub fn station_stats(&self, station: usize) -> StationStats {
        self.stations[station].stats
    }

    /// Ring-wide statistics.
    pub fn stats(&self) -> &RingStats {
        &self.stats
    }

    /// The active station immediately upstream of `station` on the ring.
    fn upstream_of(&self, station: usize) -> FddiAddr {
        let n = self.stations.len();
        let mut i = (station + n - 1) % n;
        while self.stations[i].bypassed {
            i = (i + n - 1) % n;
        }
        self.stations[i].addr
    }

    /// Build the station's SMT neighbor-information frame (NIF): a
    /// broadcast announcing the station and its upstream neighbor.
    /// The NPE runs this part of station management in software (§4.3).
    pub fn nif_frame(&self, station: usize) -> Vec<u8> {
        let s = &self.stations[station];
        let nif = crate::smt::Nif {
            station: s.addr,
            upstream: self.upstream_of(station),
            sync_capable: s.config.sync_alloc > SimTime::ZERO,
        };
        gw_wire::fddi::FrameRepr {
            fc: gw_wire::fddi::FrameControl::Smt,
            dst: FddiAddr::BROADCAST,
            src: s.addr,
            info: nif.encode(),
        }
        .emit()
        .expect("NIF fits any frame")
    }

    /// Engage a station's optical bypass relay: it stops transmitting
    /// and receiving, its queued frames are lost, and the surviving
    /// stations re-run the claim process (station management recovery,
    /// §4.3). The gateway (station 0) and at least one other station
    /// must remain.
    ///
    /// # Panics
    /// Panics when bypassing would leave fewer than two active stations.
    pub fn bypass_station(&mut self, station: usize) {
        assert!(
            self.stations.iter().enumerate().filter(|&(i, s)| !s.bypassed && i != station).count()
                >= 2,
            "a ring needs at least two active stations"
        );
        let s = &mut self.stations[station];
        s.bypassed = true;
        s.stats.queue_drops += (s.sync_q.len() + s.async_len) as u64;
        s.sync_q.clear();
        for q in &mut s.async_q {
            q.clear();
        }
        s.async_len = 0;
        self.reclaim();
    }

    /// Disengage a station's bypass relay and re-run the claim process.
    pub fn reinsert_station(&mut self, station: usize) {
        self.stations[station].bypassed = false;
        self.reclaim();
    }

    /// True when the station participates in the ring.
    pub fn is_active(&self, station: usize) -> bool {
        !self.stations[station].bypassed
    }

    /// Re-run the claim process over active stations and restart every
    /// active MAC at the new TTRT.
    fn reclaim(&mut self) {
        let now = self.events.now();
        let n = self.stations.len();
        let ring_latency = SimTime::from_ns(self.hop_latency.as_ns() * n as u64);
        let bids: Vec<(FddiAddr, SimTime, SimTime)> = self
            .stations
            .iter()
            .filter(|s| !s.bypassed)
            .map(|s| (s.addr, s.config.t_req, s.config.sync_alloc))
            .collect();
        let claim = claim_process(&bids, ring_latency).expect("active stations remain");
        let ttrt = claim.ttrt;
        for s in self.stations.iter_mut().filter(|s| !s.bypassed) {
            s.mac = MacTimers::new(now, ttrt, s.config.sync_alloc);
        }
        self.stats.ttrt = ttrt;
        self.stats.claim = claim;
        self.stats.recoveries += 1;
    }

    fn frame_time(len: usize) -> SimTime {
        SimTime::from_ns(((len + FRAME_OVERHEAD_OCTETS) as u64) * NS_PER_OCTET)
    }

    fn token_time() -> SimTime {
        SimTime::from_ns(TOKEN_OCTETS as u64 * NS_PER_OCTET)
    }

    /// Transmit `frame` from station `src` starting at `start`; schedule
    /// deliveries at every listening station. Returns the transmission
    /// duration.
    fn transmit(&mut self, src: usize, start: SimTime, frame: Vec<u8>) -> SimTime {
        let dur = Self::frame_time(frame.len());
        let view = Frame::new_unchecked(&frame[..]);
        let dst = view.dst();
        let n = self.stations.len();
        let len = frame.len();
        // Walk downstream from src; the frame is stripped at src, so it
        // passes each other station exactly once. Each listener is
        // scheduled when the next one is found, with a copy; the last
        // gets the frame itself.
        let mut pending = None;
        for hop in 1..n {
            let idx = (src + hop) % n;
            if !self.stations[idx].bypassed && self.stations[idx].listens_to(dst) {
                let arrival = start + SimTime::from_ns(self.hop_latency.as_ns() * hop as u64) + dur;
                if let Some((at, to)) = pending.replace((arrival, idx)) {
                    let frame = frame.clone();
                    self.events.push_lane(
                        DELIVERIES,
                        at,
                        RingEvent::Deliver { to, from: src, frame },
                    );
                }
            }
        }
        if let Some((at, to)) = pending {
            self.events.push_lane(DELIVERIES, at, RingEvent::Deliver { to, from: src, frame });
        }
        let s = &mut self.stations[src];
        s.stats.octets_tx += len as u64;
        dur
    }

    /// Process a single event. Returns the time processed, or `None`
    /// when no events remain (cannot happen on a healthy ring — the
    /// token always circulates).
    pub fn step(&mut self) -> Option<SimTime> {
        let (now, event) = self.events.pop()?;
        match event {
            RingEvent::Deliver { to, from, frame } => {
                let s = &mut self.stations[to];
                if s.bypassed {
                    return Some(now);
                }
                s.stats.frames_rx += 1;
                s.stats.octets_rx += frame.len() as u64;
                s.rx.push_back(Delivery { time: now, to, from, frame });
                self.rx_len += 1;
            }
            RingEvent::Token(i) => {
                if self.stations[i].bypassed {
                    // The bypass relay repeats the token downstream.
                    let next = (i + 1) % self.stations.len();
                    let arrival = now + self.hop_latency;
                    self.events.push_lane(TOKEN, arrival, RingEvent::Token(next));
                    return Some(now);
                }
                if i == 0 {
                    if let Some(rot) = self.stations[0].mac.rotation_time(now) {
                        self.stats.rotation_us.record(rot.as_ns() / 1_000);
                        self.stats.rotations += 1;
                    }
                }
                let disposition = self.stations[i].mac.token_arrival(now);
                self.stations[i].stats.tokens_seen += 1;

                let mut t = now;
                // Synchronous transmission within the allocation: a frame
                // may start only if it completes within the allocation.
                let mut sync_used = SimTime::ZERO;
                while let Some(front_len) = self.stations[i].sync_q.front().map(|f| f.len()) {
                    let ft = Self::frame_time(front_len);
                    if sync_used + ft > disposition.sync_budget {
                        break;
                    }
                    let frame = self.stations[i].sync_q.pop_front().expect("checked front");
                    let dur = self.transmit(i, t, frame);
                    t += dur;
                    sync_used += dur;
                    self.stations[i].stats.sync_frames_tx += 1;
                }
                // Asynchronous transmission while THT has not expired: a
                // frame may *start* while budget remains and then runs to
                // completion (X3.139 THT semantics). Priorities serve
                // highest-first, and a priority-p frame may only start
                // while the remaining THT exceeds T_Pri[p]. A station
                // with nothing queued has nothing to scan.
                let mut async_used = SimTime::ZERO;
                'tht: while self.stations[i].async_len > 0 && async_used < disposition.tht_budget {
                    let remaining = disposition.tht_budget - async_used;
                    let mut sent_one = false;
                    for prio in (0..8usize).rev() {
                        if remaining.as_ns() <= self.stations[i].config.t_pri[prio].as_ns() {
                            continue; // threshold bars this priority now
                        }
                        if let Some(frame) = self.stations[i].async_q[prio].pop_front() {
                            self.stations[i].async_len -= 1;
                            let dur = self.transmit(i, t, frame);
                            t += dur;
                            async_used += dur;
                            self.stations[i].stats.async_frames_tx += 1;
                            sent_one = true;
                            break;
                        }
                    }
                    if !sent_one {
                        break 'tht;
                    }
                }
                // Release the token downstream.
                let next = (i + 1) % self.stations.len();
                let arrival = t + Self::token_time() + self.hop_latency;
                self.events.push_lane(TOKEN, arrival, RingEvent::Token(next));
            }
        }
        Some(now)
    }

    /// Run until simulated time reaches `until` (events at exactly
    /// `until` are processed).
    pub fn run_until(&mut self, until: SimTime) {
        while let Some(t) = self.events.peek_time() {
            if t > until {
                break;
            }
            self.step();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gw_wire::fddi::{FrameControl, FrameRepr};

    fn data_frame(src: usize, dst: FddiAddr, len: usize, sync: bool) -> Vec<u8> {
        FrameRepr {
            fc: if sync { FrameControl::LlcSync } else { FrameControl::LlcAsync { priority: 0 } },
            dst,
            src: FddiAddr::station(src as u32),
            info: vec![0xAB; len],
        }
        .emit()
        .unwrap()
    }

    fn small_ring(n: usize) -> Ring {
        Ring::new(RingConfig::uniform(n, 10))
    }

    #[test]
    fn token_circulates_on_idle_ring() {
        let mut ring = small_ring(4);
        ring.run_until(SimTime::from_ms(10));
        for i in 0..4 {
            assert!(ring.station_stats(i).tokens_seen > 100, "station {i}");
        }
        assert!(ring.stats().rotations > 100);
    }

    #[test]
    fn idle_rotation_time_is_ring_latency() {
        let mut ring = small_ring(4);
        ring.run_until(SimTime::from_ms(50));
        // Idle rotation = n*(hop latency + token time) — far below TTRT.
        let mean_us = ring.stats().rotation_us.mean();
        let ttrt_us = ring.ttrt().as_ns() as f64 / 1000.0;
        assert!(mean_us < ttrt_us / 10.0, "idle rotation {mean_us}us vs TTRT {ttrt_us}us");
    }

    #[test]
    fn point_to_point_delivery() {
        let mut ring = small_ring(4);
        let frame = data_frame(0, FddiAddr::station(2), 100, false);
        ring.push_async(0, frame.clone()).unwrap();
        ring.run_until(SimTime::from_ms(5));
        let rx = ring.take_rx(2);
        assert_eq!(rx.len(), 1);
        assert_eq!(rx[0].frame, frame);
        assert_eq!(rx[0].from, 0);
        // Nobody else received it.
        for i in [0usize, 1, 3] {
            assert!(ring.take_rx(i).is_empty(), "station {i}");
        }
    }

    #[test]
    fn broadcast_reaches_everyone_but_source() {
        let mut ring = small_ring(5);
        let frame = data_frame(1, FddiAddr::BROADCAST, 50, false);
        ring.push_async(1, frame.clone()).unwrap();
        ring.run_until(SimTime::from_ms(5));
        // Downstream order: each station one hop later than the last,
        // every one with the frame as sent (the last gets the original,
        // the others copies).
        let mut last = SimTime::ZERO;
        for i in [2usize, 3, 4, 0] {
            let rx = ring.take_rx(i);
            assert_eq!(rx.len(), 1, "station {i}");
            assert_eq!((rx[0].from, &rx[0].frame), (1, &frame), "station {i}");
            assert!(rx[0].time > last, "station {i} hears it after the one upstream");
            last = rx[0].time;
        }
        assert!(ring.take_rx(1).is_empty(), "source strips its own frame");
    }

    #[test]
    fn group_addressing() {
        let mut config = RingConfig::uniform(4, 10);
        let g = FddiAddr::group(9);
        config.stations[1].groups.push(g);
        config.stations[3].groups.push(g);
        let mut ring = Ring::new(config);
        ring.push_async(0, data_frame(0, g, 80, false)).unwrap();
        ring.run_until(SimTime::from_ms(5));
        assert_eq!(ring.take_rx(1).len(), 1);
        assert_eq!(ring.take_rx(3).len(), 1);
        assert!(ring.take_rx(2).is_empty());
    }

    #[test]
    fn sync_requires_allocation() {
        // Station 0 has no sync allocation: its sync frame never leaves.
        let mut config = RingConfig::uniform(3, 10);
        config.stations[1].sync_alloc = SimTime::from_us(100);
        let mut ring = Ring::new(config);
        ring.push_sync(0, data_frame(0, FddiAddr::station(2), 60, true)).unwrap();
        ring.push_sync(1, data_frame(1, FddiAddr::station(2), 60, true)).unwrap();
        ring.run_until(SimTime::from_ms(20));
        assert_eq!(ring.station_stats(0).sync_frames_tx, 0);
        assert_eq!(ring.station_stats(1).sync_frames_tx, 1);
        assert_eq!(ring.take_rx(2).len(), 1);
    }

    #[test]
    fn async_transmission_consumes_tht() {
        let mut ring = small_ring(3);
        for _ in 0..10 {
            ring.push_async(0, data_frame(0, FddiAddr::station(1), 500, false)).unwrap();
        }
        ring.run_until(SimTime::from_ms(20));
        assert_eq!(ring.station_stats(0).async_frames_tx, 10);
        assert_eq!(ring.take_rx(1).len(), 10);
    }

    #[test]
    fn queue_capacity_enforced() {
        let mut config = RingConfig::uniform(2, 1);
        config.stations[0].async_queue_frames = 2;
        let mut ring = Ring::new(config);
        let f = data_frame(0, FddiAddr::station(1), 40, false);
        assert!(ring.push_async(0, f.clone()).is_ok());
        assert!(ring.push_async(0, f.clone()).is_ok());
        assert!(ring.push_async(0, f.clone()).is_err());
        assert_eq!(ring.station_stats(0).queue_drops, 1);
    }

    #[test]
    fn health_counters_aggregate_ring_state() {
        let mut config = RingConfig::uniform(3, 1);
        config.stations[0].async_queue_frames = 1;
        let mut ring = Ring::new(config);
        let f = data_frame(0, FddiAddr::station(1), 40, false);
        ring.push_async(0, f.clone()).unwrap();
        assert!(ring.push_async(0, f).is_err());
        ring.run_until(SimTime::from_ms(2));
        ring.bypass_station(2);
        assert!(ring.stats().rotations > 0, "token circulated");
        assert_eq!(ring.stats().recoveries, 1, "bypass forced a re-claim");
        assert_eq!((0..3).filter(|&i| !ring.is_active(i)).count(), 1);
        let drops: u64 = (0..3).map(|i| ring.station_stats(i).queue_drops).sum();
        assert_eq!(drops, 1, "station 0's enqueue drop is visible ring-wide");
    }

    #[test]
    fn ttrt_is_minimum_bid() {
        let mut config = RingConfig::uniform(3, 10);
        config.stations[0].t_req = SimTime::from_ms(8);
        config.stations[1].t_req = SimTime::from_ms(4);
        config.stations[2].t_req = SimTime::from_ms(6);
        let ring = Ring::new(config);
        assert_eq!(ring.ttrt(), SimTime::from_ms(4));
        assert_eq!(ring.stats().claim.winner, 1);
    }

    #[test]
    #[should_panic(expected = "unschedulable")]
    fn oversubscribed_sync_panics() {
        let mut config = RingConfig::uniform(2, 10);
        config.stations[0].t_req = SimTime::from_us(100);
        config.stations[0].sync_alloc = SimTime::from_us(80);
        config.stations[1].sync_alloc = SimTime::from_us(80);
        let _ = Ring::new(config);
    }

    /// Johnson's bound (paper ref \[6\]): token rotation never exceeds
    /// 2×TTRT, even under full asynchronous saturation.
    #[test]
    fn rotation_bounded_by_twice_ttrt_under_saturation() {
        let mut config = RingConfig::uniform(8, 20);
        for s in &mut config.stations {
            s.t_req = SimTime::from_ms(4);
            s.async_queue_frames = 10_000;
        }
        let mut ring = Ring::new(config);
        // Saturate every station with max-size frames.
        for i in 0..8 {
            for _ in 0..200 {
                ring.push_async(
                    i,
                    data_frame(i, FddiAddr::station(((i + 1) % 8) as u32), 4400, false),
                )
                .unwrap();
            }
        }
        ring.run_until(SimTime::from_ms(200));
        let max_rot_us = ring.stats().rotation_us.max();
        let bound_us = 2 * ring.ttrt().as_ns() / 1000;
        assert!(max_rot_us <= bound_us, "max rotation {max_rot_us}us exceeds 2*TTRT {bound_us}us");
        assert!(ring.stats().rotations > 10);
    }

    /// Synchronous traffic keeps flowing (its guarantee) even when the
    /// ring is saturated with asynchronous traffic.
    #[test]
    fn sync_guarantee_survives_async_overload() {
        let mut config = RingConfig::uniform(4, 10);
        config.stations[0].sync_alloc = SimTime::from_us(400);
        config.stations[0].sync_queue_frames = 10_000;
        for s in &mut config.stations {
            s.t_req = SimTime::from_ms(4);
            s.async_queue_frames = 10_000;
        }
        let mut ring = Ring::new(config);
        for _ in 0..500 {
            ring.push_sync(0, data_frame(0, FddiAddr::station(1), 1000, true)).unwrap();
        }
        for i in 1..4 {
            for _ in 0..2000 {
                ring.push_async(i, data_frame(i, FddiAddr::station(0), 4000, false)).unwrap();
            }
        }
        ring.run_until(SimTime::from_ms(100));
        let sync_tx = ring.station_stats(0).sync_frames_tx;
        assert!(sync_tx > 100, "synchronous class starved: only {sync_tx} frames in 100ms");
    }

    #[test]
    fn bypassed_station_is_skipped_and_ring_survives() {
        let mut config = RingConfig::uniform(4, 10);
        config.stations[2].t_req = SimTime::from_ms(4); // claim winner
        let mut ring = Ring::new(config);
        assert_eq!(ring.ttrt(), SimTime::from_ms(4));
        ring.run_until(SimTime::from_ms(5));
        // Station 2 fails; its bypass relay engages.
        ring.push_async(2, data_frame(2, FddiAddr::station(1), 100, false)).unwrap();
        ring.bypass_station(2);
        assert!(!ring.is_active(2));
        assert_eq!(ring.stats().recoveries, 1);
        // TTRT re-negotiated without station 2's 4 ms bid.
        assert_eq!(ring.ttrt(), SimTime::from_ms(8));
        // Traffic between survivors flows; the bypassed station gets
        // neither tokens nor frames.
        let tokens_before = ring.station_stats(2).tokens_seen;
        ring.push_async(0, data_frame(0, FddiAddr::station(1), 200, false)).unwrap();
        ring.push_async(1, data_frame(1, FddiAddr::station(2), 200, false)).unwrap();
        ring.run_until(SimTime::from_ms(20));
        assert_eq!(ring.take_rx(1).len(), 1);
        assert!(ring.take_rx(2).is_empty(), "bypassed stations receive nothing");
        assert_eq!(ring.station_stats(2).tokens_seen, tokens_before);
        // Reinsertion restores participation and the original TTRT.
        ring.reinsert_station(2);
        assert_eq!(ring.ttrt(), SimTime::from_ms(4));
        assert_eq!(ring.stats().recoveries, 2);
        ring.push_async(0, data_frame(0, FddiAddr::station(2), 150, false)).unwrap();
        ring.run_until(SimTime::from_ms(40));
        assert_eq!(ring.take_rx(2).len(), 1);
    }

    #[test]
    #[should_panic(expected = "at least two active stations")]
    fn cannot_bypass_below_two_stations() {
        let mut ring = small_ring(2);
        ring.run_until(SimTime::from_ms(1));
        ring.bypass_station(1);
    }

    #[test]
    fn bypass_drops_queued_frames() {
        let mut ring = small_ring(4);
        // Queue frames at station 3 before any token can serve them.
        for _ in 0..3 {
            ring.push_async(3, data_frame(3, FddiAddr::station(1), 100, false)).unwrap();
        }
        ring.bypass_station(3);
        assert_eq!(ring.station_stats(3).queue_drops, 3);
        ring.run_until(SimTime::from_ms(10));
        assert!(ring.take_rx(1).is_empty());
    }

    #[test]
    fn higher_async_priority_served_first() {
        let mut ring = small_ring(3);
        // Queue a low-priority frame first, then a high-priority one.
        ring.push_async(0, data_frame_prio(0, 1, 300, 0)).unwrap();
        ring.push_async(0, data_frame_prio(0, 1, 300, 7)).unwrap();
        ring.run_until(SimTime::from_ms(5));
        let rx = ring.take_rx(1);
        assert_eq!(rx.len(), 2);
        let prio_of = |f: &[u8]| match gw_wire::fddi::FrameControl::from_byte(f[0]).unwrap() {
            FrameControl::LlcAsync { priority } => priority,
            _ => 99,
        };
        assert_eq!(prio_of(&rx[0].frame), 7, "high priority transmits first");
        assert_eq!(prio_of(&rx[1].frame), 0);
    }

    #[test]
    fn t_pri_threshold_starves_low_priority_on_loaded_ring() {
        // Low priority requires > 3.5 ms of remaining THT to start; on a
        // ring loaded near its 4 ms TTRT the THT is always below that, so
        // only the high-priority class gets through.
        let mut config = RingConfig::uniform(4, 10);
        for s in &mut config.stations {
            s.t_req = SimTime::from_ms(4);
            s.async_queue_frames = 100_000;
        }
        config.stations[0].t_pri[0] = SimTime::from_us(3500);
        let mut ring = Ring::new(config);
        // Background load from stations 1-3 keeps rotations near TTRT.
        for i in 1..4 {
            for _ in 0..1000 {
                ring.push_async(i, data_frame_prio(i, (i + 1) % 4, 4000, 3)).unwrap();
            }
        }
        for _ in 0..50 {
            ring.push_async(0, data_frame_prio(0, 1, 500, 0)).unwrap();
            ring.push_async(0, data_frame_prio(0, 1, 500, 7)).unwrap();
        }
        ring.run_until(SimTime::from_ms(100));
        let rx = ring.take_rx(1);
        let high = rx
            .iter()
            .filter(|d| {
                matches!(
                    gw_wire::fddi::FrameControl::from_byte(d.frame[0]),
                    Ok(FrameControl::LlcAsync { priority: 7 })
                )
            })
            .count();
        let low = rx.len() - high;
        assert_eq!(high, 50, "unrestricted priority all delivered");
        assert!(low < 50, "threshold must bar low priority sometimes: {low}");
    }

    fn data_frame_prio(src: usize, dst: usize, len: usize, prio: u8) -> Vec<u8> {
        FrameRepr {
            fc: FrameControl::LlcAsync { priority: prio },
            dst: FddiAddr::station(dst as u32),
            src: FddiAddr::station(src as u32),
            info: vec![0xAB; len],
        }
        .emit()
        .unwrap()
    }

    #[test]
    fn nif_round_builds_ring_map_and_tracks_bypass() {
        use crate::smt::{Nif, SmtMonitor};
        let mut config = RingConfig::uniform(5, 10);
        config.stations[0].sync_alloc = SimTime::from_us(100);
        let mut ring = Ring::new(config);
        let mut monitor = SmtMonitor::new(ring.address(0));
        let nif_round = |ring: &mut Ring, monitor: &mut SmtMonitor| {
            for i in 0..ring.len() {
                if ring.is_active(i) {
                    let f = ring.nif_frame(i);
                    let _ = ring.push_async(i, f);
                }
            }
            // The monitor's own NIF never loops back (source stripping);
            // SMT observes it locally.
            let own =
                Nif::decode(gw_wire::fddi::Frame::new_unchecked(&ring.nif_frame(0)[..]).info())
                    .unwrap();
            let now = ring.now();
            monitor.observe(now, &own);
            ring.run_until(now + SimTime::from_ms(10));
            for d in ring.take_rx(0) {
                let frame = gw_wire::fddi::Frame::new_unchecked(&d.frame[..]);
                if frame.frame_control() == Ok(FrameControl::Smt) {
                    let nif = Nif::decode(frame.info()).unwrap();
                    monitor.observe(d.time, &nif);
                }
            }
        };
        nif_round(&mut ring, &mut monitor);
        let map = monitor.ring_map().expect("full map from one NIF round");
        assert_eq!(map.len(), 5);
        assert_eq!(map[0], ring.address(0));
        assert_eq!(monitor.sync_capable(ring.address(0)), Some(true));
        assert_eq!(monitor.sync_capable(ring.address(3)), Some(false));

        // Station 2 fails; the next NIF round shows the shrunken ring.
        ring.bypass_station(2);
        monitor.freshness = SimTime::from_ms(15);
        nif_round(&mut ring, &mut monitor);
        monitor.expire(ring.now());
        let map = monitor.ring_map().expect("map after bypass");
        assert_eq!(map.len(), 4);
        assert!(!map.contains(&ring.address(2)));
        // Station 3's upstream is now station 1.
        assert_eq!(ring.upstream_of(3), ring.address(1));
    }

    #[test]
    fn determinism_same_config_same_trace() {
        let run = || {
            let mut ring = small_ring(5);
            for i in 0..5usize {
                ring.push_async(
                    i,
                    data_frame(i, FddiAddr::station(((i + 2) % 5) as u32), 300, false),
                )
                .unwrap();
            }
            ring.run_until(SimTime::from_ms(10));
            (0..5).map(|i| (ring.station_stats(i), ring.take_rx(i))).collect::<Vec<_>>()
        };
        let a = run();
        let b = run();
        assert_eq!(a, b);
    }

    #[test]
    fn utilization_approaches_line_rate() {
        // One saturated sender, large frames: goodput should approach
        // 100 Mb/s less token-passing overhead.
        let mut config = RingConfig::uniform(2, 2);
        config.stations[0].t_req = SimTime::from_ms(8);
        config.stations[0].async_queue_frames = 100_000;
        let mut ring = Ring::new(config);
        for _ in 0..4000 {
            ring.push_async(0, data_frame(0, FddiAddr::station(1), 4400, false)).unwrap();
        }
        let horizon = SimTime::from_ms(100);
        ring.run_until(horizon);
        let rx_octets = ring.station_stats(1).octets_rx;
        let goodput = rx_octets as f64 * 8.0 / horizon.as_secs_f64();
        assert!(goodput > 90.0e6, "goodput {:.1} Mb/s too far below line rate", goodput / 1e6);
    }

    /// The counters an idle pass reads against the sums they replace.
    fn check_counters(ring: &Ring) {
        for (i, s) in ring.stations.iter().enumerate() {
            let queued: usize = s.async_q.iter().map(VecDeque::len).sum();
            assert_eq!(s.async_len, queued, "station {i}");
            assert_eq!(ring.queue_depths(i), (s.sync_q.len(), queued));
        }
        let received: usize = ring.stations.iter().map(|s| s.rx.len()).sum();
        assert_eq!((ring.rx_len, ring.rx_pending()), (received, received));
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(128))]

        /// Through any mix of pushes, runs, takes, bypasses and
        /// reinsertions the queued-frame and undelivered-reception
        /// counters equal the sums they stand for: shallow queues
        /// overflow, broadcasts deliver to many, a bypass drops queues
        /// and receptions addressed to the station.
        #[test]
        fn the_idle_pass_counters_equal_the_sums_they_replace(
            ops in proptest::collection::vec(
                (0u8..7, 0usize..5, 0u8..8, 64usize..1500, 1u64..400),
                1..120,
            ),
        ) {
            let mut cfg = RingConfig::uniform(5, 10);
            cfg.stations[0].sync_alloc = SimTime::from_us(200);
            for s in &mut cfg.stations {
                s.sync_queue_frames = 3;
                s.async_queue_frames = 4;
            }
            let mut ring = Ring::new(cfg);
            for (kind, station, prio, len, us) in ops {
                let dst = if prio == 7 {
                    FddiAddr::BROADCAST
                } else {
                    FddiAddr::station(((station + 1 + prio as usize) % 5) as u32)
                };
                let fc = match kind {
                    0 => FrameControl::LlcSync,
                    _ => FrameControl::LlcAsync { priority: prio },
                };
                let frame = FrameRepr {
                    fc,
                    dst,
                    src: FddiAddr::station(station as u32),
                    info: vec![0xAB; len],
                }
                .emit()
                .unwrap();
                match kind {
                    0 => drop(ring.push_sync(station, frame)),
                    1 | 2 => drop(ring.push_async(station, frame)),
                    3 => ring.run_until(ring.now() + SimTime::from_us(us)),
                    4 => drop(ring.take_rx(station)),
                    5 if ring.is_active(station)
                        && (0..5).filter(|&i| i != station && ring.is_active(i)).count() >= 2 =>
                    {
                        ring.bypass_station(station)
                    }
                    _ => ring.reinsert_station(station),
                }
                check_counters(&ring);
            }
            ring.run_until(ring.now() + SimTime::from_ms(20));
            check_counters(&ring);
        }
    }
}
