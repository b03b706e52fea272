//! Typed metrics registry with hierarchical MIB-style names.
//!
//! The paper assigns "network management" to the NPE's non-critical
//! software path (§6); this registry is that role's data model. The
//! gateway-wide metrics are created by name once —
//! `gw.mpp.frames_forwarded` — and thereafter updated through
//! pre-resolved index handles ([`CounterId`], [`GaugeId`],
//! [`HistogramId`]), so the per-cell critical path never hashes a
//! string or allocates.
//!
//! Per-VC rows ([`VcRow`]) are created and retired with congram
//! lifecycle events from the supervisor. A row holds its six counts
//! itself and no name: the snapshot renders `gw.<plane>.vc.<vci>.<field>`
//! from [`VC_FIELDS`], so installing a congram formats, copies and
//! hashes nothing. Retired rows keep their final values so a snapshot
//! taken after teardown still accounts for every cell.

use gw_sim::{Counter, Histogram, SimTime, SlotIndex, TimeWeighted};

/// Pre-resolved handle to a registry counter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CounterId(usize);

/// Pre-resolved handle to a registry gauge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GaugeId(usize);

/// Pre-resolved handle to a registry histogram.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistogramId(usize);

/// The plane and field of each per-VC count, in the order
/// [`VcRow::counts`] yields them. The snapshot names a count
/// `gw.<plane>.vc.<vci>.<field>`.
pub const VC_FIELDS: [(&str, &str); 6] = [
    ("spp", "cells_in"),
    ("spp", "reassembled_frames"),
    ("spp", "discarded_frames"),
    ("mpp", "forwarded_frames"),
    ("spp", "cells_out"),
    ("npe", "policed_cells"),
];

/// One congram's management row: its lifecycle state and six counts.
#[derive(Debug, Clone)]
pub struct VcRow {
    vci: u16,
    active: bool,
    /// Cells accepted for reassembly.
    pub cells_in: Counter,
    /// Frames completing SAR.
    pub reassembled_frames: Counter,
    /// Partial/errored discards.
    pub discarded_frames: Counter,
    /// Frames leaving the MPP.
    pub forwarded_frames: Counter,
    /// Cells segmented FDDI→ATM.
    pub cells_out: Counter,
    /// GCRA non-conforming discards.
    pub policed_cells: Counter,
}

impl VcRow {
    /// The row's VCI.
    pub fn vci(&self) -> u16 {
        self.vci
    }

    /// Whether the congram is live (not retired).
    pub fn active(&self) -> bool {
        self.active
    }

    /// The six counts, in [`VC_FIELDS`] order.
    pub fn counts(&self) -> [&Counter; 6] {
        [
            &self.cells_in,
            &self.reassembled_frames,
            &self.discarded_frames,
            &self.forwarded_frames,
            &self.cells_out,
            &self.policed_cells,
        ]
    }
}

/// The management plane's metric store.
///
/// All mutation goes through index handles or a VC's row; name lookup
/// happens only when a gateway-wide metric is registered. The registry
/// never forgets a metric — retiring a VC freezes its row rather than
/// deleting it.
#[derive(Debug, Clone)]
pub struct MetricsRegistry {
    counters: Vec<(String, Counter)>,
    gauges: Vec<(String, TimeWeighted)>,
    histograms: Vec<(String, Histogram, u32)>,
    /// Direct-indexed VCI → row-slot map (grown to the largest VCI
    /// with a row), so the per-cell path reaches a VC's row without
    /// hashing.
    vc_index: SlotIndex,
    vc_rows: Vec<VcRow>,
    sample_every: u32,
    vcs_retired: u64,
}

/// The slot of `name` among `entries`, if registered. The registry
/// holds a handful of gateway-wide names, registered once, so a scan
/// is all a lookup needs.
fn position<T>(entries: &[(String, T)], name: &str) -> Option<usize> {
    entries.iter().position(|(n, _)| n == name)
}

impl MetricsRegistry {
    /// An empty registry. Histograms record one sample in
    /// `sample_every` (clamped to ≥ 1) to keep the critical path cheap.
    pub fn new(sample_every: u32) -> MetricsRegistry {
        MetricsRegistry {
            counters: Vec::new(),
            gauges: Vec::new(),
            histograms: Vec::new(),
            vc_index: SlotIndex::default(),
            vc_rows: Vec::new(),
            sample_every: sample_every.max(1),
            vcs_retired: 0,
        }
    }

    /// Register (or re-resolve) a counter by hierarchical name.
    pub(crate) fn counter(&mut self, name: &str) -> CounterId {
        CounterId(position(&self.counters, name).unwrap_or_else(|| {
            self.counters.push((name.to_string(), Counter::new()));
            self.counters.len() - 1
        }))
    }

    /// Register (or re-resolve) a gauge by hierarchical name.
    pub(crate) fn gauge(&mut self, name: &str) -> GaugeId {
        GaugeId(position(&self.gauges, name).unwrap_or_else(|| {
            self.gauges.push((name.to_string(), TimeWeighted::new()));
            self.gauges.len() - 1
        }))
    }

    /// Register (or re-resolve) a histogram by hierarchical name.
    pub(crate) fn histogram(&mut self, name: &str, bin_width: u64, bins: usize) -> HistogramId {
        let found = self.histograms.iter().position(|(n, _, _)| n == name);
        HistogramId(found.unwrap_or_else(|| {
            self.histograms.push((name.to_string(), Histogram::new(bin_width, bins), 0));
            self.histograms.len() - 1
        }))
    }

    /// Bump a counter by one event.
    #[inline]
    pub fn inc(&mut self, id: CounterId) {
        self.counters[id.0].1.tick();
    }

    /// Bump a counter by one event of `octets` size.
    #[inline]
    pub fn add(&mut self, id: CounterId, octets: usize) {
        self.counters[id.0].1.record(octets);
    }

    /// Bump a counter by `events` events totalling `octets` octets.
    #[inline]
    pub fn add_bulk(&mut self, id: CounterId, events: u64, octets: u64) {
        self.counters[id.0].1.add(events, octets);
    }

    /// Update a gauge at simulated time `now`.
    #[inline]
    pub fn set_gauge(&mut self, id: GaugeId, now: SimTime, value: f64) {
        self.gauges[id.0].1.set(now, value);
    }

    /// Offer a histogram sample; recorded 1-in-`sample_every`.
    #[inline]
    pub fn observe(&mut self, id: HistogramId, value: u64) {
        let (_, hist, skip) = &mut self.histograms[id.0];
        if *skip == 0 {
            hist.record(value);
            *skip = self.sample_every - 1;
        } else {
            *skip -= 1;
        }
    }

    /// Create (or reactivate) the per-VC row for `vci`.
    ///
    /// Called on congram install / re-establishment. Idempotent: an
    /// existing row keeps its counts (a flapping VC accumulates across
    /// re-establishments, like a MIB row surviving link resets).
    pub fn create_vc(&mut self, vci: u16) {
        if let Some(row) = self.vc_mut(vci) {
            row.active = true;
            return;
        }
        self.vc_index.insert(vci, self.vc_rows.len() as u32);
        self.vc_rows.push(VcRow {
            vci,
            active: true,
            cells_in: Counter::new(),
            reassembled_frames: Counter::new(),
            discarded_frames: Counter::new(),
            forwarded_frames: Counter::new(),
            cells_out: Counter::new(),
            policed_cells: Counter::new(),
        });
    }

    /// Retire the row for `vci` (congram release / quarantine). The
    /// row's final values remain readable; only its active flag drops.
    pub fn retire_vc(&mut self, vci: u16) {
        if let Some(row) = self.vc_mut(vci) {
            if row.active {
                row.active = false;
                self.vcs_retired += 1;
            }
        }
    }

    /// The row for `vci`, if one was ever created.
    pub fn vc(&self, vci: u16) -> Option<&VcRow> {
        self.vc_index.get(vci).map(|slot| &self.vc_rows[slot as usize])
    }

    /// The row for `vci`, mutably, if one was ever created.
    #[inline]
    pub fn vc_mut(&mut self, vci: u16) -> Option<&mut VcRow> {
        self.vc_index.get(vci).map(|slot| &mut self.vc_rows[slot as usize])
    }

    /// All VC rows ever created, in creation order.
    pub fn vc_rows(&self) -> &[VcRow] {
        &self.vc_rows
    }

    /// Lifetime row retirements.
    pub fn vcs_retired(&self) -> u64 {
        self.vcs_retired
    }

    /// A counter's `(count, octets)` by handle.
    pub fn counter_value(&self, id: CounterId) -> (u64, u64) {
        let c = &self.counters[id.0].1;
        (c.count(), c.octets())
    }

    /// A gateway-wide counter's event count by name, if registered.
    pub fn counter_by_name(&self, name: &str) -> Option<u64> {
        position(&self.counters, name).map(|idx| self.counters[idx].1.count())
    }

    /// All gauges in registration order: `(name, gauge)`.
    pub fn gauges(&self) -> impl Iterator<Item = (&str, &TimeWeighted)> {
        self.gauges.iter().map(|(n, g)| (n.as_str(), g))
    }

    /// All histograms in registration order: `(name, histogram)`.
    pub fn histograms(&self) -> impl Iterator<Item = (&str, &Histogram)> {
        self.histograms.iter().map(|(n, h, _)| (n.as_str(), h))
    }

    /// The configured 1-in-N histogram sampling factor.
    pub fn sample_every(&self) -> u32 {
        self.sample_every
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn handles_are_stable_and_names_dedup() {
        let mut r = MetricsRegistry::new(1);
        let a = r.counter("gw.aic.cells_in");
        let b = r.counter("gw.aic.cells_in");
        assert_eq!(a, b);
        r.inc(a);
        r.add(b, 53);
        assert_eq!(r.counter_value(a), (2, 53));
        assert_eq!(r.counter_by_name("gw.aic.cells_in"), Some(2));
    }

    #[test]
    fn counters_gauges_histograms_share_a_namespace_safely() {
        let mut r = MetricsRegistry::new(1);
        let c = r.counter("gw.x");
        let g = r.gauge("gw.x");
        let h = r.histogram("gw.x", 10, 4);
        r.inc(c);
        r.set_gauge(g, SimTime::from_ns(10), 2.0);
        r.observe(h, 15);
        assert_eq!(r.counter_by_name("gw.x"), Some(1));
        assert_eq!(r.gauges().count(), 1);
        assert_eq!(r.histograms().next().unwrap().1.count(), 1);
    }

    #[test]
    fn vc_lifecycle_creates_and_retires_rows() {
        let mut r = MetricsRegistry::new(1);
        r.create_vc(100);
        r.vc_mut(100).unwrap().cells_in.tick();
        assert!(r.vc(100).unwrap().active());
        r.retire_vc(100);
        assert!(!r.vc(100).unwrap().active());
        // Retired rows keep their data.
        assert_eq!(r.vc(100).unwrap().cells_in.count(), 1);
        // Re-establishment reactivates the same row.
        r.create_vc(100);
        assert_eq!(r.vc_rows().len(), 1);
        assert_eq!(r.vc(100).unwrap().cells_in.count(), 1);
        assert!(r.vc(100).unwrap().active());
        assert_eq!(r.vcs_retired(), 1);
    }

    #[test]
    fn histogram_sampling_records_one_in_n() {
        let mut r = MetricsRegistry::new(8);
        let h = r.histogram("gw.forward_ns", 40, 64);
        for i in 0..64u64 {
            r.observe(h, i);
        }
        assert_eq!(r.histograms().next().unwrap().1.count(), 8);
    }

    #[test]
    fn vc_rows_keep_creation_order() {
        let mut r = MetricsRegistry::new(1);
        r.create_vc(300);
        r.create_vc(100);
        r.create_vc(200);
        r.retire_vc(100);
        r.create_vc(100);
        let vcis: Vec<u16> = r.vc_rows().iter().map(VcRow::vci).collect();
        assert_eq!(vcis, [300, 100, 200]);
    }
}
