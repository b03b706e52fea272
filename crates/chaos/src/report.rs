//! Run reports and the machine-readable failure artifact.

use gw_gateway::gateway::Residue;
use gw_phy::PhyStats;
use gw_sim::json::Json;
use gw_sim::time::SimTime;

/// Which adversarial paths a run actually exercised — aggregated over
/// a soak so a clean result can never silently mean "the faults never
/// fired".
#[derive(Debug, Clone, Copy, Default)]
pub struct Coverage {
    /// Cells the AIC discarded on HEC (corruption hit the header).
    pub hec_discards: u64,
    /// SAR payloads failing CRC-10 (corruption hit the payload).
    pub crc_drops: u64,
    /// Sequence discontinuities (loss, reorder, duplication,
    /// misinsertion all land here first).
    pub seq_errors: u64,
    /// Discontinuities convicted as misinsertion (backward jump plus
    /// exact resumption — the signature loss cannot produce).
    pub seq_misinserts: u64,
    /// Reassemblies abandoned by the per-VC timer.
    pub timeouts: u64,
    /// Frames shed at a buffer-memory watermark (tx + rx).
    pub shed: u64,
    /// Frames lost to buffer-memory hard overflow (tx + rx).
    pub overflow: u64,
    /// Cells shed by ingress policing.
    pub policed: u64,
    /// Delivered frames carrying an undetectable same-sequence chunk
    /// swap (misinsertion the SAR format provably cannot catch; see
    /// DESIGN.md §10).
    pub chunk_swaps: u64,
}

impl Coverage {
    /// Fold another run's coverage into this aggregate.
    pub fn absorb(&mut self, other: &Coverage) {
        self.hec_discards += other.hec_discards;
        self.crc_drops += other.crc_drops;
        self.seq_errors += other.seq_errors;
        self.seq_misinserts += other.seq_misinserts;
        self.timeouts += other.timeouts;
        self.shed += other.shed;
        self.overflow += other.overflow;
        self.policed += other.policed;
        self.chunk_swaps += other.chunk_swaps;
    }

    /// One-line soak-footer rendering.
    pub fn summary(&self) -> String {
        format!(
            "coverage: hec {} crc {} seq_err {} misinsert {} timeout {} shed {} overflow {} \
             chunk_swap {}",
            self.hec_discards,
            self.crc_drops,
            self.seq_errors,
            self.seq_misinserts,
            self.timeouts,
            self.shed,
            self.overflow,
            self.chunk_swaps
        )
    }
}

/// Which *transport* fault paths a UDP-phy run exercised — the seam
/// below the gateway, distinct from [`Coverage`]'s cell-level faults:
/// the run's phy counters, summed over a phy-soak so "all seeds
/// byte-identical" can never silently mean "the datagram faults never
/// fired".
#[derive(Debug, Clone, Copy, Default)]
pub struct TransportCoverage(pub PhyStats);

impl TransportCoverage {
    /// Fold another run's transport coverage into this aggregate.
    pub fn absorb(&mut self, other: &TransportCoverage) {
        self.0.merge(&other.0);
    }

    /// Did every injected datagram fault class actually fire (and get
    /// absorbed — drops retransmitted, dups discarded, truncations
    /// rejected by the decoder)?
    pub fn exercised(&self) -> bool {
        let s = &self.0;
        s.faults_dropped > 0
            && s.faults_duplicated > 0
            && s.faults_truncated > 0
            && s.retransmits > 0
            && s.dup_drops > 0
            && s.decode_drops > 0
    }

    /// One-line soak-footer rendering.
    pub fn summary(&self) -> String {
        let s = &self.0;
        format!(
            "transport: tx {} rx {} retx {} acks_tx {} acks_carried {} dup_drop {} decode_drop {} \
             injected drop {} dup {} trunc {}",
            s.datagrams_tx,
            s.datagrams_rx,
            s.retransmits,
            s.acks_tx,
            s.acks_carried,
            s.dup_drops,
            s.decode_drops,
            s.faults_dropped,
            s.faults_duplicated,
            s.faults_truncated
        )
    }
}

/// Everything one chaos run produced.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// The seed the scene declares (a chaos seed's scene declares it).
    pub seed: u64,
    /// Scheduled frame injections (post-minimization this shrinks).
    pub sends: usize,
    /// Frames delivered intact to either far side.
    pub delivered: usize,
    /// Conservation violations plus payload-integrity violations;
    /// empty on a clean run.
    pub violations: Vec<String>,
    /// The post-drain residue audit.
    pub residue: Residue,
    /// The rendered `gw-snapshot/1` document (byte-comparable across
    /// replays of the same seed). Empty only when a debug build skips
    /// the render on an already-violating run.
    pub snapshot: String,
    /// Causal-trace dump for the offending VC, on failure.
    pub trace_dump: Option<String>,
    /// Which fault paths the run exercised.
    pub coverage: Coverage,
    /// Transport-seam counters, when the run rode a faultable phy
    /// (`None` on the default loopback transport).
    pub transport: Option<TransportCoverage>,
    /// Canonical `gw-scene/1` text of the run, so every artifact
    /// carries a replayable, human-editable repro.
    pub scene: String,
    /// Simulation time at audit.
    pub end: SimTime,
}

impl RunReport {
    /// Did the run uphold every invariant?
    pub fn passed(&self) -> bool {
        self.violations.is_empty() && self.residue.is_clean()
    }

    /// One-line summary for soak logs.
    pub fn summary(&self) -> String {
        format!(
            "seed {:>6}  sends {:>3}  delivered {:>3}  end {:>4} ms  {}",
            self.seed,
            self.sends,
            self.delivered,
            self.end.as_ns() / 1_000_000,
            if self.passed() { "ok" } else { "FAIL" }
        )
    }
}

/// Build the failure artifact a soak job uploads: the seed, every
/// violated equation, the residue audit, the causal trace, the full
/// snapshot, and (since `gw-chaos-artifact/2`) the run's canonical
/// `.scene` text — enough to replay and fix without rerunning CI, in
/// any harness that speaks `gw-scene/1`.
pub fn artifact(report: &RunReport) -> Json {
    let mut doc = Json::obj();
    doc.set("format", Json::Str("gw-chaos-artifact/2".into()));
    doc.set("seed", Json::U64(report.seed));
    doc.set("passed", Json::Bool(report.passed()));
    doc.set("sends", Json::U64(report.sends as u64));
    doc.set("delivered", Json::U64(report.delivered as u64));
    doc.set("end_ns", Json::U64(report.end.as_ns()));
    doc.set(
        "violations",
        Json::Arr(report.violations.iter().map(|v| Json::Str(v.clone())).collect()),
    );
    let r = &report.residue;
    let mut res = Json::obj();
    res.set("clean", Json::Bool(r.is_clean()));
    res.set("reassembly_cells", Json::U64(r.reassembly_cells as u64));
    res.set("reassembly_timers_armed", Json::Bool(r.reassembly_timers_armed));
    res.set("tx_frames_pending", Json::U64(r.tx_frames_pending as u64));
    res.set("tx_octets", Json::U64(r.tx_octets as u64));
    res.set("rx_octets", Json::U64(r.rx_octets as u64));
    res.set("npe_fifo_depth", Json::U64(r.npe_fifo_depth as u64));
    res.set("liveness_timer_skew", Json::I64(r.liveness_timer_skew));
    res.set("spp_pool_leak", Json::I64(r.spp_pool_leak));
    res.set("mpp_pool_leak", Json::I64(r.mpp_pool_leak));
    doc.set("residue", res);
    if let Some(trace) = &report.trace_dump {
        doc.set("trace", Json::Str(trace.clone()));
    }
    doc.set("scene", Json::Str(report.scene.clone()));
    match Json::parse(&report.snapshot) {
        Ok(snap) => doc.set("snapshot", snap),
        Err(_) => doc.set("snapshot", Json::Null),
    };
    doc
}
