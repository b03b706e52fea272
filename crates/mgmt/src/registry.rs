//! Typed metrics registry with hierarchical MIB-style names.
//!
//! The paper assigns "network management" to the NPE's non-critical
//! software path (§6); this registry is that role's data model. Metrics
//! are created by name once — `gw.spp.vc.100.reassembled_frames`,
//! `gw.mpp.frames_forwarded` — and thereafter updated through
//! pre-resolved index handles ([`CounterId`], [`GaugeId`],
//! [`HistogramId`]), so the per-cell critical path never hashes a
//! string or allocates.
//!
//! Per-VC tables ([`VcMetrics`]) are created and retired with congram
//! lifecycle events from the supervisor; retired rows keep their final
//! values so a snapshot taken after teardown still accounts for every
//! cell.

use gw_sim::{Counter, Histogram, SimTime, SlotIndex, TimeWeighted};
use std::collections::HashMap;

/// Pre-resolved handle to a registry counter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CounterId(usize);

/// Pre-resolved handle to a registry gauge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GaugeId(usize);

/// Pre-resolved handle to a registry histogram.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistogramId(usize);

/// Per-VC counter handles, one row per active congram.
///
/// `Copy` by design: the gateway keeps these inline in its VC maps and
/// passes them around without borrow gymnastics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VcMetrics {
    /// `gw.spp.vc.<vci>.cells_in` — cells accepted for reassembly.
    pub cells_in: CounterId,
    /// `gw.spp.vc.<vci>.reassembled_frames` — frames completing SAR.
    pub reassembled: CounterId,
    /// `gw.spp.vc.<vci>.discarded_frames` — partial/errored discards.
    pub discarded: CounterId,
    /// `gw.mpp.vc.<vci>.forwarded_frames` — frames leaving the MPP.
    pub forwarded: CounterId,
    /// `gw.spp.vc.<vci>.cells_out` — cells segmented FDDI→ATM.
    pub cells_out: CounterId,
    /// `gw.npe.vc.<vci>.policed_cells` — GCRA non-conforming discards.
    pub policed: CounterId,
}

/// A per-VC row plus its lifecycle state.
#[derive(Debug, Clone, Copy)]
struct VcRow {
    vci: u16,
    metrics: VcMetrics,
    active: bool,
}

/// The management plane's metric store.
///
/// All mutation goes through index handles; name lookup happens only at
/// registration time. The registry never forgets a metric — retiring a
/// VC freezes its row rather than deleting it.
#[derive(Debug, Clone)]
pub struct MetricsRegistry {
    counters: Vec<(String, Counter)>,
    gauges: Vec<(String, TimeWeighted)>,
    histograms: Vec<(String, Histogram, u32)>,
    names: HashMap<String, usize>,
    /// Direct-indexed VCI → row-slot map (grown to the largest VCI
    /// with a row), so the per-cell lineage path resolves a VC's
    /// handles without hashing.
    vc_index: SlotIndex,
    vc_rows: Vec<VcRow>,
    sample_every: u32,
    vcs_created: u64,
    vcs_retired: u64,
}

impl MetricsRegistry {
    /// An empty registry. Histograms record one sample in
    /// `sample_every` (clamped to ≥ 1) to keep the critical path cheap.
    pub fn new(sample_every: u32) -> MetricsRegistry {
        MetricsRegistry {
            counters: Vec::new(),
            gauges: Vec::new(),
            histograms: Vec::new(),
            names: HashMap::new(),
            vc_index: SlotIndex::default(),
            vc_rows: Vec::new(),
            sample_every: sample_every.max(1),
            vcs_created: 0,
            vcs_retired: 0,
        }
    }

    /// Register (or re-resolve) a counter by hierarchical name.
    pub(crate) fn counter(&mut self, name: &str) -> CounterId {
        if let Some(&idx) = self.names.get(name) {
            return CounterId(idx);
        }
        let idx = self.counters.len();
        self.counters.push((name.to_string(), Counter::new()));
        self.names.insert(name.to_string(), idx);
        CounterId(idx)
    }

    /// Register (or re-resolve) a gauge by hierarchical name.
    pub(crate) fn gauge(&mut self, name: &str) -> GaugeId {
        let key = format!("g:{name}");
        if let Some(&idx) = self.names.get(&key) {
            return GaugeId(idx);
        }
        let idx = self.gauges.len();
        self.gauges.push((name.to_string(), TimeWeighted::new()));
        self.names.insert(key, idx);
        GaugeId(idx)
    }

    /// Register (or re-resolve) a histogram by hierarchical name.
    pub(crate) fn histogram(&mut self, name: &str, bin_width: u64, bins: usize) -> HistogramId {
        let key = format!("h:{name}");
        if let Some(&idx) = self.names.get(&key) {
            return HistogramId(idx);
        }
        let idx = self.histograms.len();
        self.histograms.push((name.to_string(), Histogram::new(bin_width, bins), 0));
        self.names.insert(key, idx);
        HistogramId(idx)
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

    fn vc_slot(&self, vci: u16) -> Option<usize> {
        self.vc_index.get(vci).map(|slot| slot as usize)
    }

    /// Create (or reactivate) the per-VC metric row for `vci`.
    ///
    /// Called on congram install / re-establishment. Idempotent: an
    /// existing row keeps its counters (a flapping VC accumulates
    /// across re-establishments, like a MIB row surviving link resets).
    pub fn create_vc(&mut self, vci: u16) -> VcMetrics {
        if let Some(slot) = self.vc_slot(vci) {
            let row = &mut self.vc_rows[slot];
            if !row.active {
                row.active = true;
                self.vcs_created += 1;
            }
            return row.metrics;
        }
        let metrics = VcMetrics {
            cells_in: self.counter(&format!("gw.spp.vc.{vci}.cells_in")),
            reassembled: self.counter(&format!("gw.spp.vc.{vci}.reassembled_frames")),
            discarded: self.counter(&format!("gw.spp.vc.{vci}.discarded_frames")),
            forwarded: self.counter(&format!("gw.mpp.vc.{vci}.forwarded_frames")),
            cells_out: self.counter(&format!("gw.spp.vc.{vci}.cells_out")),
            policed: self.counter(&format!("gw.npe.vc.{vci}.policed_cells")),
        };
        self.vc_index.insert(vci, self.vc_rows.len() as u32);
        self.vc_rows.push(VcRow { vci, metrics, active: true });
        self.vcs_created += 1;
        metrics
    }

    /// Retire the row for `vci` (congram release / quarantine). The
    /// row's final values remain readable; only its active flag drops.
    pub fn retire_vc(&mut self, vci: u16) {
        if let Some(slot) = self.vc_slot(vci) {
            let row = &mut self.vc_rows[slot];
            if row.active {
                row.active = false;
                self.vcs_retired += 1;
            }
        }
    }

    /// The metric row for `vci`, if one was ever created.
    pub fn vc(&self, vci: u16) -> Option<VcMetrics> {
        self.vc_slot(vci).map(|slot| self.vc_rows[slot].metrics)
    }

    /// Whether `vci` has an active (non-retired) row.
    pub fn vc_active(&self, vci: u16) -> bool {
        self.vc_slot(vci).is_some_and(|slot| self.vc_rows[slot].active)
    }

    /// All VC rows ever created, sorted by VCI: `(vci, metrics, active)`.
    pub fn vc_rows(&self) -> Vec<(u16, VcMetrics, bool)> {
        let mut rows: Vec<_> =
            self.vc_rows.iter().map(|row| (row.vci, row.metrics, row.active)).collect();
        rows.sort_by_key(|&(vci, _, _)| vci);
        rows
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

    /// A counter's event count by name, if registered.
    pub fn counter_by_name(&self, name: &str) -> Option<u64> {
        self.names.get(name).map(|&idx| self.counters[idx].1.count())
    }

    /// All counters in registration order: `(name, counter)`.
    pub fn counters(&self) -> impl Iterator<Item = (&str, &Counter)> {
        self.counters.iter().map(|(n, c)| (n.as_str(), c))
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
        let vc = r.create_vc(100);
        r.inc(vc.cells_in);
        assert!(r.vc_active(100));
        r.retire_vc(100);
        assert!(!r.vc_active(100));
        // Retired rows keep their data.
        assert_eq!(r.counter_by_name("gw.spp.vc.100.cells_in"), Some(1));
        // Re-establishment reactivates the same row.
        let again = r.create_vc(100);
        assert_eq!(again, vc);
        assert!(r.vc_active(100));
        assert_eq!(r.vcs_created, 2);
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
    fn vc_rows_sorted_by_vci() {
        let mut r = MetricsRegistry::new(1);
        r.create_vc(300);
        r.create_vc(100);
        r.create_vc(200);
        let vcis: Vec<u16> = r.vc_rows().iter().map(|&(v, _, _)| v).collect();
        assert_eq!(vcis, [100, 200, 300]);
    }
}
