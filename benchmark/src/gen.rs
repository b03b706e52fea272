//! Seeded input generation.
//!
//! Every input a workload feeds — payload bytes, frame-size sequence,
//! congram visiting order, fault-stream seeds, scene text — is drawn
//! from one `SimRng` seeded by `--seed`. The system under test only ever
//! sees the generated cells, frames and scene text, never the seed.

use atm_fddi_gateway::sar::segment::segment_cells;
use atm_fddi_gateway::sim::rng::SimRng;
use atm_fddi_gateway::wire::atm::{AtmHeader, Vci, CELL_SIZE};
use atm_fddi_gateway::wire::fddi::{self, FddiAddr, FrameControl, FrameRepr};
use atm_fddi_gateway::wire::mchip::{build_data_frame, Icn};

/// One ATM cell as it crosses the AIC seam.
pub type CellBytes = [u8; CELL_SIZE];

/// The paper's ATM line pacing: one 53-octet cell per 2.83 µs.
pub const CELL_PACE_NS: u64 = 2_830;
/// Nanoseconds per octet at the 80 Mb/s the FDDI side is offered at most.
pub const FDDI_OCTET_NS: u64 = 100;

/// One bidirectional data congram as installed in the gateway.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Congram {
    /// ATM-side VC.
    pub vci: Vci,
    /// ICN stamped on MCHIP frames on the ATM interface.
    pub atm_icn: Icn,
    /// ICN stamped on MCHIP frames on the FDDI interface.
    pub fddi_icn: Icn,
    /// Destination FDDI station (1-based; 0 is the gateway).
    pub station: u32,
    /// Ring service class.
    pub sync: bool,
}

/// `n` congrams with the scene language's wire-id assignment (VCI
/// `64+i`, ICNs `1+2i`/`2+2i`) spread round-robin over `stations`
/// host stations.
pub fn congrams(n: usize, stations: u32) -> Vec<Congram> {
    (0..n)
        .map(|i| {
            let (vci, atm_icn, fddi_icn) = atm_fddi_gateway::scene::wire_ids(i);
            Congram {
                vci: Vci(vci),
                atm_icn: Icn(atm_icn),
                fddi_icn: Icn(fddi_icn),
                station: 1 + (i as u32 % stations),
                sync: false,
            }
        })
        .collect()
}

/// `len` seeded payload octets.
pub fn payload(rng: &mut SimRng, len: usize) -> Vec<u8> {
    let mut p = vec![0u8; len];
    rng.fill_bytes(&mut p);
    p
}

/// A seeded permutation of `0..n` (Fisher–Yates).
pub fn permutation(rng: &mut SimRng, n: usize) -> Vec<usize> {
    let mut v: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        v.swap(i, rng.below(i as u64 + 1) as usize);
    }
    v
}

/// A data frame as the ATM host sends it: MCHIP-framed on the congram's
/// ATM-side ICN and segmented into cells on its VC.
#[derive(Debug, Clone)]
pub struct AtmFrame {
    /// Index into the workload's congram table.
    pub congram: usize,
    /// The MCHIP payload that must come out of the FDDI side intact.
    pub payload: Vec<u8>,
    /// The cells, in order.
    pub cells: Vec<CellBytes>,
}

/// `mchip` cut into cells under `header`, as bytes on the wire.
pub fn segment_bytes(header: &AtmHeader, mchip: &[u8]) -> Vec<CellBytes> {
    segment_cells(header, mchip, false)
        .expect("frame fits the SAR sequence space")
        .iter()
        .map(|c| {
            let mut b = [0u8; CELL_SIZE];
            b.copy_from_slice(c.as_bytes());
            b
        })
        .collect()
}

/// Segment `payload` for `congram` (index `index` in its table).
pub fn atm_frame(congram: &Congram, index: usize, payload: Vec<u8>) -> AtmFrame {
    let mchip = build_data_frame(congram.atm_icn, &payload).expect("payload fits an MCHIP frame");
    let header = AtmHeader::data(Default::default(), congram.vci);
    AtmFrame { congram: index, cells: segment_bytes(&header, &mchip), payload }
}

/// A data frame as an FDDI station sends it toward the gateway:
/// LLC/SNAP-encapsulated MCHIP on the congram's FDDI-side ICN.
#[derive(Debug, Clone)]
pub struct FddiFrame {
    /// Index into the workload's congram table.
    pub congram: usize,
    /// The MCHIP payload that must come out of the ATM side intact.
    pub payload: Vec<u8>,
    /// The complete MAC frame, FCS included.
    pub bytes: Vec<u8>,
}

/// Frame `payload` for `congram` (index `index` in its table).
pub fn fddi_frame(congram: &Congram, index: usize, payload: Vec<u8>) -> FddiFrame {
    let mchip = build_data_frame(congram.fddi_icn, &payload).expect("payload fits an MCHIP frame");
    let mut info = fddi::llc_snap_header().to_vec();
    info.extend_from_slice(&mchip);
    let bytes = FrameRepr {
        fc: FrameControl::LlcAsync { priority: 0 },
        dst: FddiAddr::station(0),
        src: FddiAddr::station(congram.station),
        info,
    }
    .emit()
    .expect("frame fits FDDI");
    FddiFrame { congram: index, payload, bytes }
}

/// Shares (in percent) of the four payload sizes of a mixed workload,
/// smallest first. Deliberately not uniform: with four equal classes the
/// median frame would sit exactly on the boundary between the second
/// and third size, and `frame_latency_us_p50` would flip between the two
/// with the seed. These put p50 inside the second class (20–60 %) and
/// p90 inside the largest (85–100 %).
pub const SIZE_SHARES: [usize; 4] = [20, 40, 25, 15];

/// `count` payload sizes: exactly [`SIZE_SHARES`] of each of `sizes`
/// (four, ascending), in seeded order. The multiset is the same for
/// every seed — so the work per cycle is, too — and only the order is
/// drawn.
pub fn mixed_sizes(rng: &mut SimRng, sizes: &[usize; 4], count: usize) -> Vec<usize> {
    let mut all = Vec::with_capacity(count);
    for (size, share) in sizes.iter().zip(SIZE_SHARES) {
        all.extend(std::iter::repeat_n(*size, count * share / 100));
    }
    // Rounding leftovers go to the most common class.
    all.resize(count, sizes[1]);
    let order = permutation(rng, count);
    order.into_iter().map(|i| all[i]).collect()
}

/// `count` ATM→FDDI frames over seeded congrams, payload sizes from
/// [`mixed_sizes`].
pub fn atm_frames(
    rng: &mut SimRng,
    table: &[Congram],
    sizes: &[usize; 4],
    count: usize,
) -> Vec<AtmFrame> {
    mixed_sizes(rng, sizes, count)
        .into_iter()
        .map(|len| {
            let c = rng.below(table.len() as u64) as usize;
            atm_frame(&table[c], c, payload(rng, len))
        })
        .collect()
}

/// `count` FDDI→ATM frames over seeded congrams, payload sizes from
/// [`mixed_sizes`].
pub fn fddi_frames(
    rng: &mut SimRng,
    table: &[Congram],
    sizes: &[usize; 4],
    count: usize,
) -> Vec<FddiFrame> {
    mixed_sizes(rng, sizes, count)
        .into_iter()
        .map(|len| {
            let c = rng.below(table.len() as u64) as usize;
            fddi_frame(&table[c], c, payload(rng, len))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(seed: u64) -> (Vec<AtmFrame>, Vec<FddiFrame>, Vec<usize>) {
        let mut rng = SimRng::new(seed);
        let table = congrams(8, 4);
        let a = atm_frames(&mut rng, &table, &[200, 900, 1500, 4000], 20);
        let f = fddi_frames(&mut rng, &table, &[64, 461, 1500, 4000], 20);
        let p = permutation(&mut rng, 32);
        (a, f, p)
    }

    #[test]
    fn one_seed_gives_byte_identical_inputs_and_another_differs() {
        let (a1, f1, p1) = sample(7);
        let (a2, f2, p2) = sample(7);
        let (a3, f3, p3) = sample(8);
        let cells = |v: &[AtmFrame]| v.iter().flat_map(|f| f.cells.clone()).collect::<Vec<_>>();
        let bytes = |v: &[FddiFrame]| v.iter().flat_map(|f| f.bytes.clone()).collect::<Vec<_>>();
        assert_eq!(cells(&a1), cells(&a2));
        assert_eq!(bytes(&f1), bytes(&f2));
        assert_eq!(p1, p2);
        assert_ne!(cells(&a1), cells(&a3));
        assert_ne!(bytes(&f1), bytes(&f3));
        assert_ne!(p1, p3);
    }

    #[test]
    fn every_seed_gets_the_same_multiset_of_sizes() {
        let sizes = [64, 461, 1500, 4000];
        let count = |v: &[usize], s: usize| v.iter().filter(|&&x| x == s).count();
        let a = mixed_sizes(&mut SimRng::new(1), &sizes, 256);
        let b = mixed_sizes(&mut SimRng::new(2), &sizes, 256);
        assert_ne!(a, b, "the order is seeded");
        for s in sizes {
            assert_eq!(count(&a, s), count(&b, s));
        }
        assert_eq!(
            [count(&a, 64), count(&a, 461), count(&a, 1500), count(&a, 4000)],
            [51, 103, 64, 38]
        );
    }

    #[test]
    fn permutation_visits_every_index_once() {
        let mut rng = SimRng::new(3);
        let mut p = permutation(&mut rng, 100);
        p.sort_unstable();
        assert_eq!(p, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn frame_sizes_are_the_ones_the_issue_names() {
        let table = congrams(1, 1);
        // 3 900 octets + 8 MCHIP header = 3 908 -> 87 cells of 45.
        assert_eq!(atm_frame(&table[0], 0, vec![0; 3900]).cells.len(), 87);
        // 60 octets + 8 = 68 -> 2 cells.
        assert_eq!(atm_frame(&table[0], 0, vec![0; 60]).cells.len(), 2);
    }
}
