//! Station management (SMT) neighbor notification.
//!
//! "Station and connection management are not implemented in the
//! SUPERNET chip set" (§4.3) — they run in software on the NPE. The
//! piece of SMT the gateway actually needs is **neighbor notification**
//! (the NIF protocol): every station periodically broadcasts a frame
//! naming itself and its upstream neighbor address (UNA). From the
//! collected NIFs any station can assemble a **ring map** — the ordered
//! list of active stations — and detect **duplicate addresses**, the
//! two facilities ring operators rely on for fault isolation.
//!
//! The [`crate::ring::Ring`] produces NIF frames with the true upstream
//! neighbor (it knows the physical order); the [`SmtMonitor`] consumes
//! whatever SMT frames a station's receive queue delivers.

use gw_sim::time::SimTime;
use gw_wire::fddi::FddiAddr;
use gw_wire::{Error, Result};
use std::collections::HashMap;

/// NIF payload size: station (6) + UNA (6) + flags (1).
const NIF_SIZE: usize = 13;

/// A neighbor-information announcement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Nif {
    /// The announcing station.
    pub station: FddiAddr,
    /// Its upstream neighbor address (UNA).
    pub upstream: FddiAddr,
    /// The station transmits synchronous traffic.
    pub sync_capable: bool,
}

impl Nif {
    /// Encode to the SMT frame's info field.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(NIF_SIZE);
        out.extend_from_slice(&self.station.0);
        out.extend_from_slice(&self.upstream.0);
        out.push(self.sync_capable as u8);
        out
    }

    /// Decode from an SMT frame's info field.
    pub fn decode(bytes: &[u8]) -> Result<Nif> {
        if bytes.len() < NIF_SIZE {
            return Err(Error::Truncated);
        }
        Ok(Nif {
            station: FddiAddr(bytes[0..6].try_into().expect("6 octets")),
            upstream: FddiAddr(bytes[6..12].try_into().expect("6 octets")),
            sync_capable: bytes[12] != 0,
        })
    }
}

#[derive(Debug, Clone, Copy)]
struct Entry {
    upstream: FddiAddr,
    sync_capable: bool,
    heard_at: SimTime,
}

/// Collects NIFs and answers ring-map and duplicate-address queries.
#[derive(Debug)]
pub struct SmtMonitor {
    my_addr: FddiAddr,
    entries: HashMap<FddiAddr, Entry>,
    /// Addresses announced with conflicting upstream neighbors within
    /// one freshness window — the duplicate-address signature.
    duplicates: Vec<FddiAddr>,
    /// Entries older than this are dropped by [`SmtMonitor::expire`].
    pub freshness: SimTime,
}

impl SmtMonitor {
    /// A monitor running at `my_addr`.
    pub fn new(my_addr: FddiAddr) -> SmtMonitor {
        SmtMonitor {
            my_addr,
            entries: HashMap::new(),
            duplicates: Vec::new(),
            freshness: SimTime::from_secs(30),
        }
    }

    /// Ingest one NIF heard at `now`.
    pub fn observe(&mut self, now: SimTime, nif: &Nif) {
        if let Some(prev) = self.entries.get(&nif.station) {
            // The same address claiming two different upstream neighbors
            // while both claims are fresh means two physical stations
            // share the address.
            if prev.upstream != nif.upstream
                && now.saturating_sub(prev.heard_at) < self.freshness
                && !self.duplicates.contains(&nif.station)
            {
                self.duplicates.push(nif.station);
            }
        }
        self.entries.insert(
            nif.station,
            Entry { upstream: nif.upstream, sync_capable: nif.sync_capable, heard_at: now },
        );
    }

    /// Drop entries not refreshed within the freshness window.
    pub fn expire(&mut self, now: SimTime) {
        let window = self.freshness;
        self.entries.retain(|_, e| now.saturating_sub(e.heard_at) < window);
    }

    /// The ordered ring map starting at this monitor's own station,
    /// walking upstream announcements downstream: each station's
    /// successor is the one that names it as UNA. `None` until the
    /// collected NIFs close a consistent cycle through `my_addr`.
    pub fn ring_map(&self) -> Option<Vec<FddiAddr>> {
        if !self.entries.contains_key(&self.my_addr) {
            return None;
        }
        // successor[x] = station whose UNA is x.
        let mut successor: HashMap<FddiAddr, FddiAddr> = HashMap::new();
        for (&station, entry) in &self.entries {
            if successor.insert(entry.upstream, station).is_some() {
                return None; // two stations claim the same upstream: inconsistent
            }
        }
        let mut map = vec![self.my_addr];
        let mut cur = self.my_addr;
        loop {
            let &next = successor.get(&cur)?;
            if next == self.my_addr {
                break;
            }
            if map.contains(&next) {
                return None; // inner loop that skips my_addr: inconsistent
            }
            map.push(next);
            cur = next;
            if map.len() > self.entries.len() {
                return None;
            }
        }
        (map.len() == self.entries.len()).then_some(map)
    }

    /// Stations whose address appears duplicated.
    pub fn duplicates(&self) -> &[FddiAddr] {
        &self.duplicates
    }

    /// Number of stations currently known.
    pub fn known(&self) -> usize {
        self.entries.len()
    }

    /// Whether a known station announced synchronous capability.
    pub fn sync_capable(&self, station: FddiAddr) -> Option<bool> {
        self.entries.get(&station).map(|e| e.sync_capable)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn st(i: u32) -> FddiAddr {
        FddiAddr::station(i)
    }

    fn nif(i: u32, up: u32, sync: bool) -> Nif {
        Nif { station: st(i), upstream: st(up), sync_capable: sync }
    }

    #[test]
    fn nif_codec_roundtrip() {
        let n = nif(3, 2, true);
        assert_eq!(Nif::decode(&n.encode()).unwrap(), n);
        assert_eq!(Nif::decode(&[0u8; 12]), Err(Error::Truncated));
    }

    #[test]
    fn ring_map_from_complete_nif_set() {
        // Ring order 0 -> 1 -> 2 -> 3 -> 0; upstream of i is i-1.
        let mut m = SmtMonitor::new(st(0));
        assert_eq!(m.ring_map(), None, "nothing known yet");
        for i in 0..4u32 {
            let up = (i + 3) % 4;
            m.observe(SimTime::from_secs(1), &nif(i, up, i == 0));
        }
        let map = m.ring_map().expect("complete");
        assert_eq!(map, vec![st(0), st(1), st(2), st(3)]);
        assert_eq!(m.known(), 4);
        assert_eq!(m.sync_capable(st(0)), Some(true));
        assert_eq!(m.sync_capable(st(2)), Some(false));
    }

    #[test]
    fn incomplete_set_yields_no_map() {
        let mut m = SmtMonitor::new(st(0));
        m.observe(SimTime::ZERO, &nif(0, 3, false));
        m.observe(SimTime::ZERO, &nif(1, 0, false));
        // Stations 2 and 3 silent: the cycle cannot close.
        assert_eq!(m.ring_map(), None);
    }

    #[test]
    fn map_updates_after_bypass() {
        let mut m = SmtMonitor::new(st(0));
        for i in 0..4u32 {
            m.observe(SimTime::from_secs(1), &nif(i, (i + 3) % 4, false));
        }
        assert_eq!(m.ring_map().unwrap().len(), 4);
        // Station 2 is bypassed: station 3's UNA becomes 1, and station
        // 2's entry expires.
        m.freshness = SimTime::from_secs(10);
        m.observe(SimTime::from_secs(15), &nif(3, 1, false));
        m.observe(SimTime::from_secs(15), &nif(0, 3, false));
        m.observe(SimTime::from_secs(15), &nif(1, 0, false));
        m.expire(SimTime::from_secs(16));
        let map = m.ring_map().expect("shrunken ring still closes");
        assert_eq!(map, vec![st(0), st(1), st(3)]);
    }

    #[test]
    fn duplicate_address_detected() {
        let mut m = SmtMonitor::new(st(0));
        // Two physical stations both claim address 5 with different
        // upstream neighbors, within the freshness window.
        m.observe(SimTime::from_secs(1), &nif(5, 1, false));
        m.observe(SimTime::from_secs(2), &nif(5, 3, false));
        assert_eq!(m.duplicates(), &[st(5)]);
        // A refresh from the same place is not a duplicate.
        let mut m2 = SmtMonitor::new(st(0));
        m2.observe(SimTime::from_secs(1), &nif(5, 1, false));
        m2.observe(SimTime::from_secs(2), &nif(5, 1, false));
        assert!(m2.duplicates().is_empty());
    }

    #[test]
    fn stale_entries_expire() {
        let mut m = SmtMonitor::new(st(0));
        m.freshness = SimTime::from_secs(5);
        m.observe(SimTime::ZERO, &nif(0, 1, false));
        m.observe(SimTime::from_secs(4), &nif(1, 0, false));
        m.expire(SimTime::from_secs(6));
        assert_eq!(m.known(), 1, "only the fresh entry survives");
    }
}
