//! Per-layer replays for the traced run.
//!
//! Each layer is measured **from outside**: the workload's recorded
//! inputs (the cells and frames one cycle feeds) are replayed through
//! that layer's public entry point alone, inside one span per
//! repetition, and the metric is the span's duration over the calls it
//! covers. A span always brackets thousands of calls, never one cell.
//! What no replay can isolate — classify, merge, lineage — is reported
//! as the difference between the whole gateway and the sum of its stage
//! replays (`core.gateway.glue_ns_per_cell`), not hidden.

use crate::alloc;
use crate::gen::{segment_bytes, CellBytes, Congram, CELL_PACE_NS, FDDI_OCTET_NS};
use crate::trace::Tracer;
use crate::workloads::core::{build_gateway, A2fSmall, FDDI_CAPACITY_BPS};
use atm_fddi_gateway::gateway::aic::Aic;
use atm_fddi_gateway::gateway::buffers::{BufferMemory, Class, StoreOutcome};
use atm_fddi_gateway::gateway::mpp::{IcxtAEntry, IcxtFEntry, Mpp, MppDownOutput, MppUpOutput};
use atm_fddi_gateway::gateway::npe::{Npe, NpeInput};
use atm_fddi_gateway::gateway::spp::Spp;
use atm_fddi_gateway::gateway::{Gateway, Output};
use atm_fddi_gateway::mchip::congram::{CongramId, CongramKind, FlowSpec};
use atm_fddi_gateway::mchip::messages::ControlPayload;
use atm_fddi_gateway::sar::reassemble::{Reassembler, ReassemblyConfig, ReassemblyEvent};
use atm_fddi_gateway::sar::segment::segment_cells;
use atm_fddi_gateway::sim::rng::SimRng;
use atm_fddi_gateway::sim::timer::TimerWheel;
use atm_fddi_gateway::sim::SimTime;
use atm_fddi_gateway::wire::atm::{AtmHeader, Vci};
use atm_fddi_gateway::wire::crc;
use atm_fddi_gateway::wire::fddi::FddiAddr;
use atm_fddi_gateway::wire::mchip::Icn;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

/// Per-layer metric values by name.
pub type Metrics = BTreeMap<&'static str, f64>;

/// Repetitions (spans) per replay; the metric is the fastest, like the
/// best chunk of a whole run (see [`crate::run`]).
const REPS: usize = 5;
/// Calls a span must cover at least, so the two clock reads around it
/// stay under 1 % of even a nanosecond-scale call.
const MIN_CALLS: u64 = 1_000;
/// Calls a span covers when they are cheap enough to fit [`SPAN_NS`].
const WANT_CALLS: u64 = 20_000;
/// What a span may cost once [`MIN_CALLS`] is met.
const SPAN_NS: u128 = 20_000_000;

/// `--quick`: one repetition per replay and a tenth of the span budget,
/// so the smoke test still walks every replay but does not wait for
/// steady numbers. Set once, before any replay runs.
static QUICK: AtomicBool = AtomicBool::new(false);

/// Switch the replays to their `--quick` shape.
pub fn set_quick(quick: bool) {
    // Relaxed: a lone flag that publishes no other data.
    QUICK.store(quick, Ordering::Relaxed);
}

fn shape() -> (usize, u128) {
    if QUICK.load(Ordering::Relaxed) {
        (1, SPAN_NS / 10)
    } else {
        (REPS, SPAN_NS)
    }
}

/// One cycle of a workload's inputs, as fed.
///
/// A workload that drives one direction only leaves the other side
/// empty; the replay then turns the gateway's own output around (the
/// cells `f2a_mixed` emits are valid input on the same VCs, and so are
/// the frames `a2f_*` emit), so every stage is timed on every workload
/// and a stage the workload never runs still reads as a real cost — its
/// *share* of that workload is what is zero.
pub struct Recorded<'a> {
    /// Congram table.
    pub table: &'a [Congram],
    /// Cells into the ATM port, in feed order.
    pub cells_in: Vec<CellBytes>,
    /// Cells per `deliver_cells` call, as the workload (or the layer
    /// between it and the gateway) batches them.
    pub batch: usize,
    /// Cells between two `advance_into` + `pop_fddi_tx` rounds: every
    /// batch on the core workloads, every step (about a frame) under the
    /// appliance, every 10 µs slice (three or four cells) in the testbed.
    pub advance_every: usize,
    /// FDDI frames into the ring port, in feed order.
    pub frames_in: Vec<Vec<u8>>,
    /// Every VC sits behind the `a2f_small_1kvc` policer.
    pub policed: bool,
    /// VC liveness timeout in force.
    pub liveness: Option<SimTime>,
}

/// Run `pass` (which makes `calls` calls of whatever it measures) often
/// enough to cover [`WANT_CALLS`] — fewer when that would cost more than
/// [`SPAN_NS`], never fewer than [`MIN_CALLS`] — inside one span named
/// `name`, [`REPS`] times after one warm pass. Returns the fastest
/// repetition's nanoseconds per call.
pub fn replay(tracer: &mut Tracer, name: &'static str, calls: u64, mut pass: impl FnMut()) -> f64 {
    if calls == 0 {
        return 0.0;
    }
    let (reps, span_ns) = shape();
    // Warm for a pass and at least half a span: pools and per-VC buffers
    // grow to their steady state over the first few cycles.
    let warm = Instant::now();
    let mut warm_passes = 0u128;
    while warm_passes == 0 || warm.elapsed().as_nanos() < span_ns / 2 {
        pass();
        warm_passes += 1;
    }
    let per_pass = warm.elapsed().as_nanos() / warm_passes;
    let affordable = (span_ns / per_pass.max(1)) as u64;
    let passes = WANT_CALLS.div_ceil(calls).min(affordable).max(MIN_CALLS.div_ceil(calls));
    let mut per_call = Vec::with_capacity(reps);
    for _ in 0..reps {
        let id = tracer.open(name);
        let started = Instant::now();
        for _ in 0..passes {
            pass();
        }
        let ns = started.elapsed().as_nanos() as f64;
        tracer.close(id);
        per_call.push(ns / (passes * calls) as f64);
    }
    per_call.into_iter().fold(f64::INFINITY, f64::min)
}

fn vci_of(cell: &CellBytes) -> Vci {
    AtmHeader::parse(&cell[..]).map(|h| h.vci).unwrap_or_default()
}

fn programmed_mpp(table: &[Congram]) -> Mpp {
    let mut mpp = Mpp::new(1024);
    for c in table {
        let dst = FddiAddr::station(c.station);
        mpp.program_f(c.atm_icn, IcxtFEntry { out_icn: c.fddi_icn, fddi_dst: dst })
            .expect("icn within range");
        let atm_header = AtmHeader::data(Default::default(), c.vci);
        mpp.program_a(c.fddi_icn, IcxtAEntry { out_icn: c.atm_icn, atm_header })
            .expect("icn within range");
        mpp.set_synchronous(c.atm_icn, c.sync).expect("icn within range");
    }
    mpp
}

fn open_spp(table: &[Congram]) -> Spp {
    let mut spp = Spp::new(ReassemblyConfig::default());
    for c in table {
        spp.open_vc(c.vci, SimTime::from_ms(10));
    }
    spp
}

fn replay_gateway(rec: &Recorded, managed: bool) -> Gateway {
    let mut gw = build_gateway(rec.table, managed, rec.liveness);
    if rec.policed {
        for c in rec.table {
            gw.install_rate_control(c.vci, A2fSmall::policer());
        }
    }
    gw
}

/// What [`replay_core`] learned that the share-of-whole lines need.
pub struct CoreReplay {
    /// The workload feeds the ATM port itself (not turned around).
    pub native_up: bool,
    /// The workload feeds the ring port itself (not turned around).
    pub native_down: bool,
    /// Cells per replayed cycle in each direction.
    pub cells: (u64, u64),
    /// Frames per replayed cycle in each direction.
    pub frames: (u64, u64),
}

fn translate_down(table: &[Congram], frames: &[Vec<u8>]) -> Vec<(AtmHeader, Vec<u8>)> {
    let mut mpp = programmed_mpp(table);
    frames
        .iter()
        .filter_map(|bytes| match mpp.from_fddi(SimTime::ZERO, bytes) {
            MppDownOutput::DataToSpp { atm_header, frame, .. } => Some((atm_header, frame)),
            _ => None,
        })
        .collect()
}

/// Every generic replay: wire, sar, atm.gcra, core.*, sim, npe.
pub fn replay_core(rec: &Recorded, seed: u64, tracer: &mut Tracer, m: &mut Metrics) -> CoreReplay {
    let root = tracer.open("replay");
    let (native_up, native_down) = (!rec.cells_in.is_empty(), !rec.frames_in.is_empty());
    assert!(native_up || native_down, "a workload feeds at least one port");
    let pace = SimTime::from_ns(CELL_PACE_NS);

    // Untimed pre-pass: what each stage hands the next, turning the
    // gateway's output around where the workload leaves a port unfed.
    let cells_in: Vec<CellBytes> = if native_up {
        rec.cells_in.clone()
    } else {
        translate_down(rec.table, &rec.frames_in)
            .iter()
            .flat_map(|(header, mchip)| segment_bytes(header, mchip))
            .collect()
    };
    let n_in = cells_in.len() as u64;
    let vcis: Vec<Vci> = cells_in.iter().map(vci_of).collect();
    let mut reassembled: Vec<Vec<u8>> = Vec::new();
    {
        let mut spp = open_spp(rec.table);
        let mut t = SimTime::from_us(100);
        for (cell, &vci) in cells_in.iter().zip(&vcis) {
            if let ReassemblyEvent::Complete(f) = spp.ingest_cell(t, vci, &cell[5..]).event {
                spp.release(vci);
                reassembled.push(f.data.clone());
                spp.recycle(f.data);
            }
            t += pace;
        }
    }
    let mut frames_out: Vec<Vec<u8>> = Vec::new();
    {
        let mut mpp = programmed_mpp(rec.table);
        for data in &reassembled {
            if let MppUpOutput::DataToFddi { frame, .. } =
                mpp.from_spp(SimTime::ZERO, data, false, false)
            {
                frames_out.push(frame);
            }
        }
    }
    let frames_in: &[Vec<u8>] = if native_down { &rec.frames_in } else { &frames_out };
    let translated = translate_down(rec.table, frames_in);
    let cells_out: Vec<CellBytes> =
        translated.iter().flat_map(|(header, mchip)| segment_bytes(header, mchip)).collect();
    let n_out = cells_out.len() as u64;
    let n_up = frames_out.len() as u64;
    let n_down = translated.len() as u64;

    // wire: the checksums, over every cell and frame that crossed a port.
    let port_cells: Vec<&CellBytes> = cells_in.iter().chain(&cells_out).collect();
    m.insert(
        "wire.hec_ns_per_cell",
        replay(tracer, "wire.hec", port_cells.len() as u64, || {
            for c in &port_cells {
                black_box(crc::hec_valid(black_box(&c[..5])));
            }
        }),
    );
    m.insert(
        "wire.crc10_ns_per_cell",
        replay(tracer, "wire.crc10", port_cells.len() as u64, || {
            for c in &port_cells {
                black_box(crc::crc10(black_box(&c[5..])));
            }
        }),
    );
    let port_frames: Vec<&[u8]> = frames_out.iter().chain(frames_in).map(Vec::as_slice).collect();
    let kb: usize = port_frames.iter().map(|f| f.len()).sum::<usize>() / 1024;
    // One "call" per KB keeps the span above the minimum for any mix.
    m.insert(
        "wire.crc32_ns_per_kb",
        replay(tracer, "wire.crc32", kb as u64, || {
            for f in &port_frames {
                black_box(crc::crc32(black_box(&f[..f.len() - 4])));
            }
        }),
    );

    // ATM→FDDI stages, in pipeline order.
    let mut aic = Aic::new();
    let aic_rx = replay(tracer, "core.aic.receive", n_in, || {
        let mut t = SimTime::from_us(100);
        for c in &cells_in {
            let mut cell = *c;
            black_box(aic.receive(t, &mut cell));
            t += pace;
        }
    });
    m.insert("core.aic.receive_ns_per_cell", aic_rx);

    let slot: Vec<usize> = vcis
        .iter()
        .map(|v| rec.table.iter().position(|c| c.vci == *v).expect("cell on a table VC"))
        .collect();
    let mut policers: Vec<_> = rec.table.iter().map(|_| A2fSmall::policer()).collect();
    let mut t = SimTime::from_us(100);
    let gcra = replay(tracer, "atm.gcra", n_in, || {
        for &s in &slot {
            black_box(policers[s].offer(t));
            t += pace;
        }
    });
    m.insert("atm.gcra_ns_per_cell", gcra);

    let mut reasm = Reassembler::new(ReassemblyConfig::default());
    for c in rec.table {
        reasm.open_vc(c.vci);
    }
    let mut t = SimTime::from_us(100);
    m.insert(
        "sar.reassemble_ns_per_cell",
        replay(tracer, "sar.reassemble", n_in, || {
            for (cell, &vci) in cells_in.iter().zip(&vcis) {
                if let ReassemblyEvent::Complete(f) = reasm.push(t, vci, &cell[5..]) {
                    reasm.release(vci);
                    reasm.recycle(f.data);
                }
                t += pace;
            }
        }),
    );

    let mut spp = open_spp(rec.table);
    let mut t = SimTime::from_us(100);
    let spp_in = replay(tracer, "core.spp.ingest", n_in, || {
        for (cell, &vci) in cells_in.iter().zip(&vcis) {
            if let ReassemblyEvent::Complete(f) = spp.ingest_cell(t, vci, &cell[5..]).event {
                spp.release(vci);
                spp.recycle(f.data);
            }
            t += pace;
        }
    });
    m.insert("core.spp.ingest_ns_per_cell", spp_in);

    let mut mpp = programmed_mpp(rec.table);
    let mpp_up = replay(tracer, "core.mpp.from_spp", n_up, || {
        for data in &reassembled {
            if let MppUpOutput::DataToFddi { frame, .. } =
                mpp.from_spp(SimTime::ZERO, data, false, false)
            {
                mpp.recycle(frame);
            }
        }
    });
    m.insert("core.mpp.from_spp_ns_per_frame", mpp_up);

    let mut memory = BufferMemory::new(128 * 1024);
    let mut staged = frames_out.clone();
    let buffers = replay(tracer, "core.buffers.store_drain", n_up, || {
        for slot in &mut staged {
            let frame = std::mem::take(slot);
            *slot = match memory.store_tagged(SimTime::ZERO, Class::Async, frame, false) {
                StoreOutcome::Stored => {
                    memory.drain(SimTime::ZERO, Class::Async).expect("just stored")
                }
                StoreOutcome::Shed(f) | StoreOutcome::Overflow(f) => f,
            };
        }
    });
    m.insert("core.buffers.store_drain_ns_per_frame", buffers);

    // The whole gateway on the same cells, batched as the workload does,
    // with the management plane on (as measured) and off (its cost).
    let mut out: Vec<Output> = Vec::new();
    let mut t = SimTime::from_us(100);
    let (batch, round) = (rec.batch.max(1), rec.advance_every.max(1));
    let mut deliver_pass = |gw: &mut Gateway| {
        for step in cells_in.chunks(round) {
            out.clear();
            for cells in step.chunks(batch) {
                gw.deliver_cells(t, cells, &mut out);
            }
            t += SimTime::from_ns(step.len() as u64 * CELL_PACE_NS);
            gw.advance_into(t, &mut out);
            while let Some((frame, _)) = gw.pop_fddi_tx(t) {
                gw.recycle_frame(frame);
            }
        }
    };
    let mut gw = replay_gateway(rec, true);
    let deliver = replay(tracer, "core.gateway.deliver_cells", n_in, || deliver_pass(&mut gw));
    m.insert("core.gateway.deliver_ns_per_cell", deliver);
    let mut bare = replay_gateway(rec, false);
    let unmanaged = replay(tracer, "core.gateway.deliver_cells", n_in, || deliver_pass(&mut bare));
    m.insert("mgmt.overhead_ns_per_cell", deliver - unmanaged);
    let per_frame_stages = (mpp_up + buffers) * n_up as f64 / n_in as f64;
    let policing = if rec.policed { gcra } else { 0.0 };
    let glue_up = deliver - (aic_rx + policing + spp_in + per_frame_stages);

    m.insert(
        "core.gateway.advance_idle_ns",
        replay(tracer, "core.gateway.advance_into", 10_000, || {
            for _ in 0..10_000 {
                t += SimTime::from_ns(CELL_PACE_NS);
                out.clear();
                gw.advance_into(t, &mut out);
            }
        }),
    );

    // FDDI→ATM stages.
    let mut mpp = programmed_mpp(rec.table);
    let mpp_down = replay(tracer, "core.mpp.from_fddi", n_down, || {
        for bytes in frames_in {
            if let MppDownOutput::DataToSpp { frame, .. } = mpp.from_fddi(SimTime::ZERO, bytes) {
                mpp.recycle(frame);
            }
        }
    });
    m.insert("core.mpp.from_fddi_ns_per_frame", mpp_down);
    m.insert(
        "sar.segment_ns_per_cell",
        replay(tracer, "sar.segment", n_out, || {
            for (header, mchip) in &translated {
                black_box(segment_cells(header, mchip, false).expect("frame segments"));
            }
        }),
    );
    let mut spp = open_spp(rec.table);
    let mut t = SimTime::from_us(100);
    let fragment = replay(tracer, "core.spp.fragment", n_out, || {
        for (header, mchip) in &translated {
            black_box(spp.fragment(t, header, mchip, false).expect("frame fragments"));
            t += SimTime::from_ns(mchip.len() as u64 * FDDI_OCTET_NS);
        }
    });
    m.insert("core.spp.fragment_ns_per_cell", fragment);
    let mut aic = Aic::new();
    let aic_tx = replay(tracer, "core.aic.transmit", n_out, || {
        for c in &cells_out {
            let mut cell = *c;
            aic.transmit(&mut cell);
            black_box(cell);
        }
    });
    m.insert("core.aic.transmit_ns_per_cell", aic_tx);
    let mut down_gw = replay_gateway(rec, true);
    let mut t = SimTime::from_us(100);
    let mut fddi_in_pass = |gw: &mut Gateway| {
        for bytes in frames_in {
            black_box(gw.fddi_frame_in(t, bytes));
            t += SimTime::from_ns(bytes.len() as u64 * FDDI_OCTET_NS);
            out.clear();
            gw.advance_into(t, &mut out);
        }
    };
    let fddi_in =
        replay(tracer, "core.gateway.fddi_frame_in", n_down, || fddi_in_pass(&mut down_gw));
    m.insert("core.gateway.fddi_in_ns_per_frame", fddi_in);
    // Classify, merge and lineage — whatever the stage replays do not
    // cover — in the direction the workload itself drives.
    let glue_down =
        (fddi_in - mpp_down - buffers) * n_down as f64 / n_out as f64 - fragment - aic_tx;
    m.insert("core.gateway.glue_ns_per_cell", if native_up { glue_up } else { glue_down });
    {
        let per_frame = |allocs: u64| allocs as f64 / n_down as f64;
        let (a, ()) = alloc::counted(|| fddi_in_pass(&mut down_gw));
        m.insert("core.gateway.fddi_in_allocs_per_frame", per_frame(a));
        let (a, ()) = alloc::counted(|| {
            for (header, mchip) in &translated {
                black_box(segment_cells(header, mchip, false).expect("frame segments"));
            }
        });
        m.insert("sar.segment_allocs_per_frame", per_frame(a));
        let (a, ()) = alloc::counted(|| {
            for (header, mchip) in &translated {
                // `fragment` starts no earlier than its pipeline is free,
                // so any `now` in the past will do here.
                black_box(spp.fragment(SimTime::ZERO, header, mchip, false).ok());
            }
        });
        m.insert("core.spp.fragment_allocs_per_frame", per_frame(a));
    }

    // Set-up side of the gateway: snapshot and congram install.
    let busiest = if native_up { &mut gw } else { &mut down_gw };
    let at = SimTime::from_secs(7200);
    m.insert(
        "core.gateway.snapshot_ms",
        replay_few(
            tracer,
            "core.gateway.snapshot",
            10,
            || (),
            |()| {
                for _ in 0..10 {
                    black_box(busiest.snapshot(at));
                }
            },
        ) / 1e6,
    );
    m.insert(
        "core.gateway.install_congram_us",
        replay_few(
            tracer,
            "core.gateway.install_congram",
            1000,
            || build_gateway(&[], true, None),
            |mut fresh| {
                for i in 0..1000u16 {
                    let station = FddiAddr::station(1 + u32::from(i) % 4);
                    fresh.install_congram(Vci(1000 + i), Icn(i), Icn(i), station, false);
                }
                black_box(fresh);
            },
        ) / 1e3,
    );

    m.insert("sim.timer_ns_per_op", timer_replay(tracer));
    m.insert("core.npe.handle_us_per_setup", npe_replay(tracer, seed) / 1e3);
    tracer.close(root);
    CoreReplay { native_up, native_down, cells: (n_in, n_out), frames: (n_up, n_down) }
}

/// [`replay`] for calls that take micro- to milliseconds each: every
/// span times one `pass` of `calls` calls on whatever `fresh` built
/// (outside the span). Returns the fastest repetition's nanoseconds per
/// call.
pub fn replay_few<S>(
    tracer: &mut Tracer,
    name: &'static str,
    calls: u64,
    mut fresh: impl FnMut() -> S,
    mut pass: impl FnMut(S),
) -> f64 {
    let (reps, _) = shape();
    let mut per_call = Vec::with_capacity(reps);
    for _ in 0..reps {
        let state = fresh();
        let id = tracer.open(name);
        let started = Instant::now();
        pass(state);
        let ns = started.elapsed().as_nanos() as f64;
        tracer.close(id);
        per_call.push(ns / calls as f64);
    }
    per_call.into_iter().fold(f64::INFINITY, f64::min)
}

/// `TimerWheel` as the reassembler uses it: arm a deadline per frame,
/// cancel nearly all on completion, let the rest expire in a poll.
fn timer_replay(tracer: &mut Tracer) -> f64 {
    let mut wheel: TimerWheel<u32> = TimerWheel::new();
    let mut expired = Vec::new();
    let mut base = SimTime::from_ms(1);
    let mut ids = Vec::with_capacity(1000);
    replay(tracer, "sim.timer", 2000, || {
        ids.clear();
        for i in 0..1000u32 {
            let deadline =
                base + SimTime::from_ms(10) + SimTime::from_ns(u64::from(i) * CELL_PACE_NS);
            ids.push(wheel.insert(deadline, i));
        }
        for id in ids.iter().skip(100) {
            black_box(wheel.cancel(*id));
        }
        base += SimTime::from_ms(20);
        expired.clear();
        wheel.poll(base, &mut expired);
        assert_eq!(expired.len(), 100, "the uncancelled tenth expires");
    })
}

/// `Npe::handle` over a seeded set-up/teardown stream from the ATM side.
fn npe_replay(tracer: &mut Tracer, seed: u64) -> f64 {
    let mut rng = SimRng::new(seed ^ 0x6e70_6500);
    let dest = [7u8; 8];
    let mut npe = Npe::new(FddiAddr::station(0), FDDI_CAPACITY_BPS, SimTime::from_us(200));
    npe.add_host(dest, FddiAddr::station(2));
    const LIVE: u32 = 200;
    let setups: Vec<Vec<u8>> = (0..LIVE)
        .map(|i| {
            ControlPayload::SetupRequest {
                congram: CongramId(i),
                kind: CongramKind::UCon,
                flow: FlowSpec::cbr(64_000 + rng.below(64) * 1_000),
                dest,
            }
            .to_frame(Icn(0))
        })
        .collect();
    let teardowns: Vec<Vec<u8>> = (0..LIVE)
        .map(|i| ControlPayload::Teardown { congram: CongramId(i) }.to_frame(Icn(0)))
        .collect();
    let mut t = SimTime::from_ms(1);
    // One "call" is a set-up and its teardown; 200 congrams stay live
    // at a time, as many as a busy gateway would hold.
    const ROUNDS: u32 = 5;
    replay_few(
        tracer,
        "core.npe.handle",
        u64::from(LIVE * ROUNDS),
        || (),
        |()| {
            for _ in 0..ROUNDS {
                for frames in [&setups, &teardowns] {
                    for (i, frame) in frames.iter().enumerate() {
                        let input = NpeInput::ControlFromAtm {
                            frame: frame.clone(),
                            arrival_vci: Vci(2000 + i as u16),
                        };
                        black_box(npe.handle(t, input));
                        t += SimTime::from_us(250);
                    }
                }
            }
        },
    )
}
