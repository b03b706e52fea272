//! The three bare-core workloads: the gateway's public cell and frame
//! entry points driven directly, no transport and no network model.
//!
//! Simulated time advances at line pacing — one cell per 2.83 µs on the
//! ATM side, at most 80 Mb/s on the FDDI side — so the SPP pipeline,
//! the buffers and every timer behave as in the model and nothing is
//! shed (E20, by contrast, offers one cell per 40 ns).

use crate::gen::{self, AtmFrame, CellBytes, Congram, FddiFrame, CELL_PACE_NS, FDDI_OCTET_NS};
use crate::host;
use crate::layers::Recorded;
use crate::oracle::{check_atm_out, check_fddi_out, CellSink};
use crate::run::{Audit, Tally, Workload};
use crate::trace::Tracer;
use atm_fddi_gateway::atm::policing::{Gcra, GcraParams, PolicingAction};
use atm_fddi_gateway::gateway::{Gateway, GatewayConfig, Output};
use atm_fddi_gateway::mgmt::MgmtConfig;
use atm_fddi_gateway::sar::segment::cells_for_len;
use atm_fddi_gateway::sim::rng::SimRng;
use atm_fddi_gateway::sim::SimTime;
use atm_fddi_gateway::wire::atm::Vci;
use atm_fddi_gateway::wire::fddi::FddiAddr;
use atm_fddi_gateway::wire::mchip::{Icn, MCHIP_HEADER_SIZE};
use std::time::Instant;

/// Ring capacity handed to the gateway's resource manager.
pub const FDDI_CAPACITY_BPS: u64 = 100_000_000;

/// A bare gateway plus the driver's cursor and scratch.
pub struct CoreSys {
    /// The gateway under test.
    pub gw: Gateway,
    t: SimTime,
    out: Vec<Output>,
    cursor: usize,
    popped: u64,
    pending_latency: Option<(u64, Instant)>,
    sink: CellSink,
}

/// The gateway configuration every workload measures: defaults plus the
/// management plane (what `Appliance::new` forces), so telemetry cost is
/// inside every end-to-end number.
pub fn gateway_config(managed: bool, liveness: Option<SimTime>) -> GatewayConfig {
    GatewayConfig {
        management: managed.then(MgmtConfig::default),
        vc_liveness_timeout: liveness,
        ..GatewayConfig::default()
    }
}

/// `Gateway::new` plus one `install_congram` per table row.
pub fn build_gateway(table: &[Congram], managed: bool, liveness: Option<SimTime>) -> Gateway {
    let mut gw =
        Gateway::new(gateway_config(managed, liveness), FddiAddr::station(0), FDDI_CAPACITY_BPS);
    for c in table {
        gw.install_congram(c.vci, c.atm_icn, c.fddi_icn, FddiAddr::station(c.station), c.sync);
    }
    gw
}

fn core_sys(gw: Gateway, table: &[Congram]) -> CoreSys {
    CoreSys {
        gw,
        // Start off zero so "first cell at" is never the epoch itself.
        t: SimTime::from_us(100),
        out: Vec::new(),
        cursor: 0,
        popped: 0,
        pending_latency: None,
        sink: CellSink::new(table),
    }
}

/// Octets of the FDDI frame the gateway builds around `payload_len`
/// payload octets (FC + DA + SA + LLC/SNAP + MCHIP header + FCS).
fn fddi_len(payload_len: usize) -> usize {
    atm_fddi_gateway::wire::fddi::FIXED_FIELDS
        + atm_fddi_gateway::wire::fddi::LLC_SNAP_SIZE
        + MCHIP_HEADER_SIZE
        + payload_len
}

/// Drain, audit and digest a bare gateway (shared by all three).
fn finish_core(mut sys: CoreSys, tally: &mut Tally) -> Audit {
    // Past the 10 ms reassembly timeout, short of the liveness timeout.
    sys.t += SimTime::from_ms(20);
    sys.out.clear();
    sys.gw.advance_into(sys.t, &mut sys.out);
    while let Some((frame, _)) = sys.gw.pop_fddi_tx(sys.t) {
        tally.fail("frame still staged in the transmit buffer at drain".into());
        sys.gw.recycle_frame(frame);
    }
    audit_gateway(&mut sys.gw, sys.t)
}

/// Conservation, residue, simulated latencies, pool census and snapshot
/// digest of a drained gateway.
pub fn audit_gateway(gw: &mut Gateway, now: SimTime) -> Audit {
    let mut audit = Audit { findings: gw.check_conservation(), ..Audit::default() };
    let residue = gw.residue();
    if !residue.is_clean() {
        audit.findings.push(format!("residue not clean after drain: {residue:?}"));
    }
    census(gw, now, &mut audit);
    audit
}

/// The part of the audit that reads and does not judge: simulated
/// latencies, pool hit share and the digest of the snapshot at `now`.
pub fn census(gw: &mut Gateway, now: SimTime, audit: &mut Audit) {
    let stats = gw.stats();
    if stats.atm_to_fddi_ns.count() > 0 {
        audit.sim_a2f_p99_ns = stats.atm_to_fddi_ns.quantile(0.99);
    }
    if stats.fddi_to_atm_ns.count() > 0 {
        audit.sim_f2a_p99_ns = stats.fddi_to_atm_ns.quantile(0.99);
    }
    let (spp, mpp) = (gw.spp_pool_stats(), gw.mpp_pool_stats());
    let gets = spp.hits + spp.misses + mpp.hits + mpp.misses;
    if gets > 0 {
        audit.counts.insert("wire.pool_hit_share", (spp.hits + mpp.hits) as f64 / gets as f64);
    }
    audit.snapshot_digest = host::fnv1a_hex(gw.snapshot(now).render().as_bytes());
}

// ---------------------------------------------------------------------
// a2f_bulk

/// `a2f_bulk`: ATM→FDDI, 16 VCs, 3 900-octet payloads (87-cell frames),
/// one frame per `deliver_cells` batch.
pub struct A2fBulk {
    /// Congram table.
    pub table: Vec<Congram>,
    /// Distinct frames, four per VC.
    pub frames: Vec<AtmFrame>,
    /// Seeded visiting order over `frames`.
    pub order: Vec<usize>,
}

impl A2fBulk {
    /// Inputs for `seed`.
    pub fn generate(seed: u64) -> A2fBulk {
        let mut rng = SimRng::new(seed);
        let table = gen::congrams(16, 4);
        let mut frames = Vec::new();
        for (i, c) in table.iter().enumerate() {
            for _ in 0..4 {
                frames.push(gen::atm_frame(c, i, gen::payload(&mut rng, 3900)));
            }
        }
        let order = gen::permutation(&mut rng, frames.len());
        A2fBulk { table, frames, order }
    }
}

impl Workload for A2fBulk {
    type Sys = CoreSys;

    fn build(&self, managed: bool) -> CoreSys {
        core_sys(build_gateway(&self.table, managed, None), &self.table)
    }

    fn units_per_cycle(&self) -> u64 {
        self.order.len() as u64
    }

    fn unit(
        &self,
        sys: &mut CoreSys,
        check_all: bool,
        _tracer: &mut Option<&mut Tracer>,
        tally: &mut Tally,
    ) {
        let f = &self.frames[self.order[sys.cursor]];
        sys.cursor = (sys.cursor + 1) % self.order.len();
        // Every frame's payload is compared (3 900 octets compare in
        // well under 1 % of a batch); the clock reads and the CRC-32 over
        // the whole frame (a fifth of a batch) run on every eighth frame.
        let timed = sys.cursor.is_multiple_of(8);
        let started = timed.then(Instant::now);

        sys.out.clear();
        sys.gw.deliver_cells(sys.t, &f.cells, &mut sys.out);
        let pace = f.cells.len() as u64 * CELL_PACE_NS;
        sys.t += SimTime::from_ns(pace);
        sys.gw.advance_into(sys.t, &mut sys.out);
        tally.sim_ns += pace;
        tally.cells += f.cells.len() as u64;
        tally.attempted += 1;

        let mut got = 0;
        while let Some((frame, _)) = sys.gw.pop_fddi_tx(sys.t) {
            got += 1;
            let fcs = check_all || timed;
            match check_fddi_out(&frame, &self.table[f.congram], &f.payload, fcs) {
                Ok(()) => {
                    tally.delivered += 1;
                    tally.checked_in_full += u64::from(fcs);
                    tally.payload_octets += f.payload.len() as u64;
                }
                Err(e) => tally.fail(format!("a2f_bulk: {e}")),
            }
            sys.gw.recycle_frame(frame);
        }
        if got != 1 {
            tally.fail(format!("a2f_bulk: {got} frames out for one frame in"));
        }
        if let Some(s) = started {
            tally.latency(s, Instant::now());
        }
    }

    fn finish(&self, sys: CoreSys, tally: &mut Tally) -> Audit {
        finish_core(sys, tally)
    }
}

// ---------------------------------------------------------------------
// a2f_small_1kvc

/// VCs in `a2f_small_1kvc`.
pub const SMALL_VCS: usize = 1000;
const SMALL_ROUNDS: usize = 4;
const SMALL_BATCH: usize = 32;
const SMALL_PAYLOAD: usize = 60;

/// `a2f_small_1kvc`: 1 000 VCs, each behind a conforming GCRA policer,
/// 60-octet payloads (2-cell frames), cells interleaved round-robin
/// across the VCs in 32-cell batches so 1 000 reassemblies are open at
/// once.
pub struct A2fSmall {
    /// Congram table (VCI `1000+i`, ICN `i` on both interfaces: the
    /// scene assignment would run past the 1 024-entry ICXT).
    pub table: Vec<Congram>,
    /// Two payload variants per VC.
    pub frames: Vec<AtmFrame>,
    /// The cell stream of one cycle: per round, every VC's first cell in
    /// seeded order, then every VC's second cell in the same order.
    pub stream: Vec<CellBytes>,
    /// Index into `frames` of each frame in completion order.
    pub expected: Vec<usize>,
    /// Frames opened (first cells carried) by each batch of the cycle.
    pub opened: Vec<u8>,
}

impl A2fSmall {
    /// Inputs for `seed`.
    pub fn generate(seed: u64) -> A2fSmall {
        let mut rng = SimRng::new(seed);
        let table: Vec<Congram> = (0..SMALL_VCS)
            .map(|i| Congram {
                vci: Vci(1000 + i as u16),
                atm_icn: Icn(i as u16),
                fddi_icn: Icn(i as u16),
                station: 1 + (i as u32 % 4),
                sync: false,
            })
            .collect();
        let mut frames = Vec::with_capacity(2 * SMALL_VCS);
        for (i, c) in table.iter().enumerate() {
            for _ in 0..2 {
                let f = gen::atm_frame(c, i, gen::payload(&mut rng, SMALL_PAYLOAD));
                assert_eq!(f.cells.len(), 2, "60-octet payloads are 2-cell frames");
                frames.push(f);
            }
        }
        let mut stream = Vec::with_capacity(SMALL_ROUNDS * 2 * SMALL_VCS);
        let mut expected = Vec::with_capacity(SMALL_ROUNDS * SMALL_VCS);
        for _ in 0..SMALL_ROUNDS {
            let visit = gen::permutation(&mut rng, SMALL_VCS);
            let picks: Vec<usize> =
                visit.iter().map(|&vc| 2 * vc + rng.below(2) as usize).collect();
            stream.extend(picks.iter().map(|&f| frames[f].cells[0]));
            stream.extend(picks.iter().map(|&f| frames[f].cells[1]));
            expected.extend(picks);
        }
        assert_eq!(stream.len() % SMALL_BATCH, 0, "a cycle is a whole number of batches");
        let opened = (0..stream.len() / SMALL_BATCH)
            .map(|b| {
                let batch = b * SMALL_BATCH..(b + 1) * SMALL_BATCH;
                batch.filter(|pos| pos % (2 * SMALL_VCS) < SMALL_VCS).count() as u8
            })
            .collect();
        A2fSmall { table, frames, stream, expected, opened }
    }

    /// A conforming contract: 353 cells/s offered per VC against a
    /// 10 000 cells/s peak, with tolerance for the back-to-back pair at
    /// a round boundary.
    pub fn policer() -> Gcra {
        Gcra::new(GcraParams::peak_rate(10_000, SimTime::from_ms(1)), PolicingAction::Drop)
    }
}

impl Workload for A2fSmall {
    type Sys = CoreSys;

    fn build(&self, managed: bool) -> CoreSys {
        let mut gw = build_gateway(&self.table, managed, Some(SimTime::from_ms(50)));
        for c in &self.table {
            gw.install_rate_control(c.vci, A2fSmall::policer());
        }
        core_sys(gw, &self.table)
    }

    fn units_per_cycle(&self) -> u64 {
        (self.stream.len() / SMALL_BATCH) as u64
    }

    fn unit(
        &self,
        sys: &mut CoreSys,
        check_all: bool,
        _tracer: &mut Option<&mut Tracer>,
        tally: &mut Tally,
    ) {
        let batch = sys.cursor;
        let pos = batch * SMALL_BATCH;
        sys.cursor = (sys.cursor + 1) % self.opened.len();
        let per_cycle = self.expected.len() as u64;

        // A frame's latency runs from the batch that carries its first
        // cell to the pop that returns it, ~1 000 cells later. One frame
        // is tracked at a time: the one whose first cell opens a batch.
        let in_round = pos % (2 * SMALL_VCS);
        if sys.pending_latency.is_none() && in_round < SMALL_VCS {
            let round = pos / (2 * SMALL_VCS);
            let k = (round * SMALL_VCS + in_round) as u64;
            // Completion index of that frame, counted over all cycles.
            let cycle_base = sys.popped - sys.popped % per_cycle;
            sys.pending_latency = Some((cycle_base + k, Instant::now()));
        }

        sys.out.clear();
        sys.gw.deliver_cells(sys.t, &self.stream[pos..pos + SMALL_BATCH], &mut sys.out);
        let pace = SMALL_BATCH as u64 * CELL_PACE_NS;
        sys.t += SimTime::from_ns(pace);
        sys.gw.advance_into(sys.t, &mut sys.out);
        tally.sim_ns += pace;
        tally.cells += SMALL_BATCH as u64;
        // Frames are attempted when their first cell goes in.
        tally.attempted += u64::from(self.opened[batch]);

        while let Some((frame, _)) = sys.gw.pop_fddi_tx(sys.t) {
            let k = sys.popped;
            sys.popped += 1;
            let f = &self.frames[self.expected[(k % per_cycle) as usize]];
            // Per-frame work is what this workload measures, so the full
            // compare runs on one frame in eight; the rest are checked
            // for order (FIFO position) and length.
            let verdict = if check_all || k.is_multiple_of(8) {
                tally.checked_in_full += 1;
                check_fddi_out(&frame, &self.table[f.congram], &f.payload, true)
            } else if frame.len() == fddi_len(f.payload.len()) {
                Ok(())
            } else {
                Err(format!("{} octets out, want {}", frame.len(), fddi_len(f.payload.len())))
            };
            match verdict {
                Ok(()) => {
                    tally.delivered += 1;
                    tally.payload_octets += f.payload.len() as u64;
                }
                Err(e) => tally.fail(format!("a2f_small_1kvc frame {k}: {e}")),
            }
            if let Some((want, started)) = sys.pending_latency {
                if want == k {
                    tally.latency(started, Instant::now());
                    sys.pending_latency = None;
                } else if want < k {
                    sys.pending_latency = None;
                }
            }
            sys.gw.recycle_frame(frame);
        }
    }

    fn finish(&self, mut sys: CoreSys, tally: &mut Tally) -> Audit {
        // A timed chunk stops wherever the clock says; run the cycle out
        // so every frame that was opened also gets its last cell.
        while sys.cursor != 0 {
            self.unit(&mut sys, false, &mut None, tally);
        }
        let policed = sys.gw.conservation().policed_cells;
        if policed != 0 {
            tally.fail(format!("{policed} cells policed under a conforming contract"));
        }
        if tally.delivered + tally.failed < tally.attempted {
            let missing = tally.attempted - tally.delivered - tally.failed;
            tally.fail_many(missing, "a2f_small_1kvc: frames never came out".into());
        }
        finish_core(sys, tally)
    }
}

// ---------------------------------------------------------------------
// f2a_mixed

const F2A_FRAMES: usize = 512;
const F2A_PER_UNIT: usize = 4;

/// `f2a_mixed`: FDDI→ATM, 64 congrams, LLC/SNAP MCHIP frames with
/// payloads drawn from {64, 461, 1 500, 4 000} octets.
pub struct F2aMixed {
    /// Congram table.
    pub table: Vec<Congram>,
    /// The frame sequence of one cycle.
    pub frames: Vec<FddiFrame>,
}

impl F2aMixed {
    /// Inputs for `seed`.
    pub fn generate(seed: u64) -> F2aMixed {
        let mut rng = SimRng::new(seed);
        let table = gen::congrams(64, 4);
        let frames = gen::fddi_frames(&mut rng, &table, &[64, 461, 1500, 4000], F2A_FRAMES);
        F2aMixed { table, frames }
    }
}

impl Workload for F2aMixed {
    type Sys = CoreSys;

    fn build(&self, managed: bool) -> CoreSys {
        core_sys(build_gateway(&self.table, managed, None), &self.table)
    }

    fn units_per_cycle(&self) -> u64 {
        (F2A_FRAMES / F2A_PER_UNIT) as u64
    }

    fn unit(
        &self,
        sys: &mut CoreSys,
        check_all: bool,
        _tracer: &mut Option<&mut Tracer>,
        tally: &mut Tally,
    ) {
        for _ in 0..F2A_PER_UNIT {
            let f = &self.frames[sys.cursor];
            sys.cursor = (sys.cursor + 1) % self.frames.len();
            // One frame in seventeen is timed and put back together by
            // the far-end reassembler; the others are counted. Seventeen
            // is coprime to the cycle, so the sample walks over every
            // frame of it instead of revisiting the same few.
            sys.popped += 1;
            let sampled = sys.popped.is_multiple_of(17);
            let started = sampled.then(Instant::now);
            let outputs = sys.gw.fddi_frame_in(sys.t, &f.bytes);
            let ended = sampled.then(Instant::now);
            tally.attempted += 1;

            let want_cells = cells_for_len(MCHIP_HEADER_SIZE + f.payload.len());
            let mut cells = 0usize;
            let mut verdict = Ok(());
            let mut completed = false;
            for o in &outputs {
                let Output::AtmCell { cell, .. } = o else { continue };
                cells += 1;
                if !(check_all || sampled) || verdict.is_err() {
                    continue;
                }
                match sys.sink.push(cell) {
                    Ok(None) => {}
                    Ok(Some((vci, mchip))) => {
                        completed = true;
                        let c = &self.table[f.congram];
                        verdict = if vci != c.vci {
                            Err(format!("cells on {vci:?}, want {:?}", c.vci))
                        } else if cells != want_cells {
                            Err(format!("frame completed after {cells} of {want_cells} cells"))
                        } else {
                            check_atm_out(&mchip, c, &f.payload)
                        };
                        sys.sink.recycle(mchip);
                    }
                    Err(e) => verdict = Err(e),
                }
            }
            if verdict.is_ok() && cells != want_cells {
                verdict = Err(format!("{cells} cells out, want {want_cells}"));
            }
            if verdict.is_ok() && (check_all || sampled) {
                if completed {
                    tally.checked_in_full += 1;
                } else {
                    verdict = Err("cells never completed a frame at the far end".into());
                }
            }
            tally.cells += cells as u64;
            match verdict {
                Ok(()) => {
                    tally.delivered += 1;
                    tally.payload_octets += f.payload.len() as u64;
                }
                Err(e) => tally.fail(format!("f2a_mixed: {e}")),
            }
            if let (Some(s), Some(e)) = (started, ended) {
                tally.latency(s, e);
            }

            // The ring delivers at most 80 Mb/s; the ATM line drains one
            // cell per 2.83 µs. Whichever is slower paces the next frame.
            let pace = (f.bytes.len() as u64 * FDDI_OCTET_NS).max(want_cells as u64 * CELL_PACE_NS);
            sys.t += SimTime::from_ns(pace);
            tally.sim_ns += pace;
            sys.out.clear();
            sys.gw.advance_into(sys.t, &mut sys.out);
        }
    }

    fn finish(&self, sys: CoreSys, tally: &mut Tally) -> Audit {
        finish_core(sys, tally)
    }
}

// ---------------------------------------------------------------------
// Recorded inputs for the per-layer replays.

impl A2fBulk {
    /// One cycle of inputs, one frame per `deliver_cells` batch.
    pub fn recorded(&self) -> Recorded<'_> {
        Recorded {
            table: &self.table,
            cells_in: self
                .order
                .iter()
                .flat_map(|&f| self.frames[f].cells.iter().copied())
                .collect(),
            batch: self.frames[0].cells.len(),
            advance_every: self.frames[0].cells.len(),
            frames_in: Vec::new(),
            policed: false,
            liveness: None,
        }
    }
}

impl A2fSmall {
    /// One cycle of inputs, in 32-cell batches behind the policers.
    pub fn recorded(&self) -> Recorded<'_> {
        Recorded {
            table: &self.table,
            cells_in: self.stream.clone(),
            batch: SMALL_BATCH,
            advance_every: SMALL_BATCH,
            frames_in: Vec::new(),
            policed: true,
            liveness: Some(SimTime::from_ms(50)),
        }
    }
}

impl F2aMixed {
    /// One cycle of inputs (the turned-around cells replay in 32s).
    pub fn recorded(&self) -> Recorded<'_> {
        Recorded {
            table: &self.table,
            cells_in: Vec::new(),
            batch: SMALL_BATCH,
            advance_every: SMALL_BATCH,
            frames_in: self.frames.iter().map(|f| f.bytes.clone()).collect(),
            policed: false,
            liveness: None,
        }
    }
}
