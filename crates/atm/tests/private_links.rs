//! The last switch hop of a private link is taken at the horizon, not
//! as an event (`gw_atm::network`'s module docs, "The last switch hop
//! is no event either"). That must be the same simulation: this test
//! drives random topologies twice with the same inputs. Run 1 advances
//! with `run_until` at random horizons, so every link that classifies
//! private defers. Run 2 is the per-cell reference: it calls `step()`
//! one event at a time up to the horizon — each call first puts any
//! deferred hop back into the event queue — and then `run_until` only
//! to release the endpoint arrivals. After every horizon everything an
//! observer can see must match: each endpoint's stream, every port's
//! `LinkStats`, each switch's unroutable and policed counts, every
//! policer's counts, the cells in flight and the clock.
//!
//! The topologies merge two inputs onto one output, fan out
//! multipoint, police with `Drop` and `Tag`, tag cells CLP above small
//! discard thresholds, run links faster and slower than the access
//! links, and between horizons cut and restore links, install and
//! remove VCs, and set up and release signalled connections.

use gw_atm::network::{AtmNetwork, EndpointEvent, EndpointId, LinkParams, LinkStats, SwitchId};
use gw_atm::policing::{Gcra, GcraParams, PolicingAction};
use gw_atm::signaling::{ConnId, SignalIndication, TrafficContract};
use gw_sim::time::SimTime;
use gw_wire::atm::{AtmHeader, OwnedCell, Vci};
use proptest::prelude::*;

/// Ports per switch: 0–2 take links, 3–5 endpoints.
const PORTS: usize = 6;
const LINK_PORTS: usize = 3;
/// The VCIs routes and cells use: few, so that routes meet.
const VCIS: [u16; 4] = [40, 41, 42, 43];

/// SplitMix64: the scenario's only source of variation.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn chance(&mut self, percent: u64) -> bool {
        self.next() % 100 < percent
    }

    fn vci(&mut self) -> Vci {
        Vci(VCIS[self.below(VCIS.len())])
    }
}

/// One input to both runs.
#[derive(Debug, Clone)]
enum Op {
    Inject { ep: usize, vci: Vci, clp: bool, after_ns: u64, cells: u8 },
    InjectOnConn { conn: usize, cells: u8 },
    Fail(usize),
    Restore(usize),
    Install { sw: usize, in_port: usize, vci: Vci, out_port: usize, out_vci: Vci },
    Remove { sw: usize, in_port: usize, vci: Vci },
    Police { sw: usize, in_port: usize, vci: Vci, tag: bool, increment_ns: u64 },
    Connect { from: usize, to: Vec<usize> },
    Release(usize),
    Horizon(u64),
}

/// A scenario: the topology, then the ops.
#[derive(Debug)]
struct Scenario {
    switches: usize,
    /// `(a, port, b, port, params)`.
    links: Vec<(usize, usize, usize, usize, LinkParams)>,
    /// `(switch, port)` of each endpoint.
    endpoints: Vec<(usize, usize)>,
    setup: Vec<Op>,
    ops: Vec<Op>,
}

/// Where a route starts: the endpoint and the VCI it sends on.
type Source = (usize, Vci);

fn link_params(rng: &mut Rng) -> LinkParams {
    // Slower than, as fast as, and faster than the access links.
    let rate_bps = [100_000_000, gw_atm::DEFAULT_LINK_RATE, 622_080_000][rng.below(3)];
    let (queue_cells, clp_threshold) = [(2, 1), (4, 2), (128, 96)][rng.below(3)];
    let propagation = SimTime::from_ns([1_000, 5_000][rng.below(2)]);
    LinkParams { rate_bps, propagation, queue_cells, clp_threshold }
}

/// A route from endpoint `ep` through up to three links to an endpoint
/// port, as `Install` ops; a route that meets an entry already there
/// widens its fan-out.
fn route(rng: &mut Rng, sc: &Scenario, ep: usize, out: &mut Vec<Op>) -> Source {
    let (mut sw, mut in_port) = sc.endpoints[ep];
    let first = rng.vci();
    let mut vci = first;
    for _ in 0..rng.below(4) {
        let here: Vec<_> = sc
            .links
            .iter()
            .filter_map(|&(a, ap, b, bp, _)| {
                (a == sw).then_some((ap, b, bp)).or((b == sw).then_some((bp, a, ap)))
            })
            .collect();
        let (out_port, next, next_port) = here[rng.below(here.len())];
        let out_vci = rng.vci();
        out.push(Op::Install { sw, in_port, vci, out_port, out_vci });
        (sw, in_port, vci) = (next, next_port, out_vci);
    }
    let out_port = LINK_PORTS + rng.below(PORTS - LINK_PORTS);
    out.push(Op::Install { sw, in_port, vci, out_port, out_vci: rng.vci() });
    (ep, first)
}

/// A route from endpoint `ep` along the chain of switches to endpoint
/// port `port` of switch `to`.
fn route_to(rng: &mut Rng, sc: &Scenario, ep: usize, to: usize, port: usize) -> (Source, Vec<Op>) {
    let (mut sw, mut in_port) = sc.endpoints[ep];
    let first = rng.vci();
    let (mut vci, mut ops) = (first, Vec::new());
    while sw != to {
        // The chain's link from `b - 1` (port 0) to `b` (port 1).
        let (out_port, next, next_port) = if sw < to { (0, sw + 1, 1) } else { (1, sw - 1, 0) };
        let out_vci = rng.vci();
        ops.push(Op::Install { sw, in_port, vci, out_port, out_vci });
        (sw, in_port, vci) = (next, next_port, out_vci);
    }
    ops.push(Op::Install { sw, in_port, vci, out_port: port, out_vci: rng.vci() });
    ((ep, first), ops)
}

/// The endpoint attached at `(sw, port)`.
fn endpoint_at(sw: usize, port: usize) -> usize {
    sw * (PORTS - LINK_PORTS) + port - LINK_PORTS
}

fn scenario(seed: u64) -> Scenario {
    let mut rng = Rng(seed);
    let switches = 2 + rng.below(3);
    let mut links = Vec::new();
    // A chain, and now and then a second link closing a loop or
    // running beside the first.
    for b in 1..switches {
        links.push((b - 1, 0, b, 1, link_params(&mut rng)));
    }
    if rng.chance(50) {
        links.push((0, 2, switches - 1, 2, link_params(&mut rng)));
    }
    let endpoints =
        (0..switches).flat_map(|sw| (LINK_PORTS..PORTS).map(move |p| (sw, p))).collect();
    let mut sc = Scenario { switches, links, endpoints, setup: Vec::new(), ops: Vec::new() };
    let mut setup = Vec::new();
    let mut sources = Vec::new();
    for _ in 0..2 + rng.below(5) {
        let ep = rng.below(sc.endpoints.len());
        sources.push(route(&mut rng, &sc, ep, &mut setup));
    }
    // Two inputs merging onto one endpoint's output: from both ends of
    // the chain into a switch between them, or over the last link and
    // from beside the output.
    if rng.chance(60) {
        let to = 1 + rng.below(switches - 1);
        let port = LINK_PORTS + rng.below(PORTS - LINK_PORTS);
        let far = if to + 1 < switches { switches - 1 } else { to };
        let from = [endpoint_at(0, LINK_PORTS), endpoint_at(far, PORTS - 1)];
        for ep in from.into_iter().filter(|&ep| ep != endpoint_at(to, port)) {
            let (source, ops) = route_to(&mut rng, &sc, ep, to, port);
            sources.push(source);
            setup.extend(ops);
        }
    }
    // A route over the chain to an endpoint's output nothing else feeds.
    if rng.chance(60) {
        let to = switches - 1;
        let (source, ops) = route_to(&mut rng, &sc, endpoint_at(0, LINK_PORTS + 1), to, LINK_PORTS);
        sources.push(source);
        setup.extend(ops);
    }
    for _ in 0..rng.below(3) {
        if let Some(Op::Install { sw, in_port, vci, .. }) = setup.get(rng.below(setup.len())) {
            let (sw, in_port, vci) = (*sw, *in_port, *vci);
            let (tag, increment_ns) = (rng.chance(50), [3_000, 8_000][rng.below(2)]);
            setup.push(Op::Police { sw, in_port, vci, tag, increment_ns });
        }
    }
    let mut ops = Vec::new();
    let mut conns = 0;
    for _ in 0..40 + rng.below(40) {
        let op = match rng.below(100) {
            0..=44 => {
                // Mostly down a route, now and then anywhere.
                let (ep, vci) = match rng.chance(75) {
                    true => sources[rng.below(sources.len())],
                    false => (rng.below(sc.endpoints.len()), rng.vci()),
                };
                Op::Inject {
                    ep,
                    vci,
                    clp: rng.chance(30),
                    after_ns: rng.below(20) as u64 * 1_000,
                    cells: 1 + rng.below(12) as u8,
                }
            }
            45..=49 if conns > 0 => {
                Op::InjectOnConn { conn: rng.below(conns), cells: 1 + rng.below(8) as u8 }
            }
            50..=53 => Op::Fail(rng.below(sc.links.len())),
            54..=57 => Op::Restore(rng.below(sc.links.len())),
            58..=61 => {
                let mut more = Vec::new();
                let ep = rng.below(sc.endpoints.len());
                route(&mut rng, &sc, ep, &mut more);
                ops.extend(more);
                continue;
            }
            62..=65 => match setup.get(rng.below(setup.len())) {
                Some(Op::Install { sw, in_port, vci, .. }) => {
                    Op::Remove { sw: *sw, in_port: *in_port, vci: *vci }
                }
                _ => continue,
            },
            66..=69 => {
                let from = rng.below(sc.endpoints.len());
                let to = (0..1 + rng.below(2)).map(|_| rng.below(sc.endpoints.len())).collect();
                conns += 1;
                Op::Connect { from, to }
            }
            70..=72 if conns > 0 => Op::Release(rng.below(conns)),
            _ => Op::Horizon(match rng.below(10) {
                0 => 600_000 + rng.below(600) as u64 * 1_000,
                _ => 1_000 + rng.below(30) as u64 * 1_000,
            }),
        };
        ops.push(op);
    }
    ops.push(Op::Horizon(3_000_000));
    sc.setup = setup;
    sc.ops = ops;
    sc
}

fn build(sc: &Scenario) -> AtmNetwork {
    let mut net = AtmNetwork::new();
    for _ in 0..sc.switches {
        net.add_switch(PORTS);
    }
    for &(a, ap, b, bp, params) in &sc.links {
        net.link(SwitchId(a), ap, SwitchId(b), bp, params);
    }
    for &(sw, port) in &sc.endpoints {
        net.attach_endpoint(SwitchId(sw), port);
    }
    net
}

/// What one run learnt of its signalled connections: their ids, and
/// each one's `(caller, tx VCI)` once it is up.
#[derive(Default)]
struct Run {
    conns: Vec<ConnId>,
    up: Vec<Option<(usize, Vci)>>,
}

fn cell(vci: Vci, clp: bool, tag: u32) -> [u8; 53] {
    let header = AtmHeader { clp, ..AtmHeader::data(Default::default(), vci) };
    let mut payload = [0u8; 48];
    payload[..4].copy_from_slice(&tag.to_le_bytes());
    OwnedCell::build(&header, &payload).expect("valid cell").into_inner()
}

/// Apply one op other than a horizon.
fn apply(net: &mut AtmNetwork, run: &mut Run, sc: &Scenario, op: &Op, tag: &mut u32) {
    match *op {
        Op::Inject { ep, vci, clp, after_ns, cells } => {
            let at = net.now() + SimTime::from_ns(after_ns);
            for _ in 0..cells {
                *tag += 1;
                assert!(net.inject_at(EndpointId(ep), at, cell(vci, clp, *tag)));
            }
        }
        Op::InjectOnConn { conn, cells } => {
            if let Some(Some((ep, vci))) = run.up.get(conn) {
                for _ in 0..cells {
                    *tag += 1;
                    assert!(net.inject_at(EndpointId(*ep), net.now(), cell(*vci, false, *tag)));
                }
            }
        }
        Op::Fail(link) => {
            let (a, ap, ..) = sc.links[link];
            net.fail_link(SwitchId(a), ap);
        }
        Op::Restore(link) => {
            let (a, ap, ..) = sc.links[link];
            net.restore_link(SwitchId(a), ap);
        }
        Op::Install { sw, in_port, vci, out_port, out_vci } => {
            net.install_vc(SwitchId(sw), in_port, vci, vec![(out_port, out_vci)]);
        }
        Op::Remove { sw, in_port, vci } => net.remove_vc(SwitchId(sw), in_port, vci),
        Op::Police { sw, in_port, vci, tag, increment_ns } => {
            let params = GcraParams {
                increment: SimTime::from_ns(increment_ns),
                tolerance: SimTime::from_ns(increment_ns / 2),
            };
            let action = if tag { PolicingAction::Tag } else { PolicingAction::Drop };
            net.install_policer(SwitchId(sw), in_port, vci, Gcra::new(params, action));
        }
        Op::Connect { ref from, ref to } => {
            let to: Vec<_> = to.iter().map(|&ep| EndpointId(ep)).collect();
            let contract = TrafficContract::cbr(1_000_000);
            run.conns.push(net.connect(net.now(), EndpointId(*from), &to, contract));
            run.up.push(None);
        }
        Op::Release(conn) => net.release(run.conns[conn]),
        Op::Horizon(_) => unreachable!("horizons are the runs' own"),
    }
}

/// Everything an observer can read off a network after a horizon.
#[derive(Debug, PartialEq)]
struct Seen {
    streams: Vec<Vec<EndpointEvent>>,
    links: Vec<LinkStats>,
    unroutable: Vec<u64>,
    policed: Vec<u64>,
    policers: Vec<Option<(u64, u64)>>,
    in_flight: usize,
    now: SimTime,
}

fn seen(net: &mut AtmNetwork, sc: &Scenario, run: &mut Run) -> Seen {
    let streams: Vec<_> = (0..sc.endpoints.len()).map(|ep| net.poll(EndpointId(ep))).collect();
    for (ep, stream) in streams.iter().enumerate() {
        for ev in stream {
            if let EndpointEvent::Signal {
                signal: SignalIndication::ConnectionUp { conn, tx_vci },
                ..
            } = ev
            {
                if let Some(i) = run.conns.iter().position(|c| c == conn) {
                    run.up[i] = Some((ep, *tx_vci));
                }
            }
        }
    }
    let switches = 0..sc.switches;
    Seen {
        streams,
        links: switches
            .clone()
            .flat_map(|sw| (0..PORTS).map(move |p| (sw, p)))
            .map(|(sw, p)| net.link_stats(SwitchId(sw), p))
            .collect(),
        unroutable: switches.clone().map(|sw| net.unroutable_cells(SwitchId(sw))).collect(),
        policed: switches.clone().map(|sw| net.policed_drops(SwitchId(sw))).collect(),
        policers: switches
            .flat_map(|sw| (0..PORTS).flat_map(move |p| VCIS.map(|v| (sw, p, Vci(v)))))
            .map(|(sw, p, vci)| net.policer_counts(SwitchId(sw), p, vci))
            .collect(),
        in_flight: net.cells_in_flight(),
        now: net.now(),
    }
}

/// Run `sc` both ways, comparing after every horizon; returns the
/// number of cells delivered, so that a caller can see the scenarios
/// carry traffic.
fn both_ways(sc: &Scenario) -> Result<usize, TestCaseError> {
    let mut nets = [build(sc), build(sc)];
    let mut runs = [Run::default(), Run::default()];
    let mut tags = [0, 0];
    let mut delivered = 0;
    for op in sc.setup.iter().chain(&sc.ops) {
        if let Op::Horizon(ns) = *op {
            let until = nets[0].now() + SimTime::from_ns(ns);
            nets[0].run_until(until);
            while nets[1].next_event_time().is_some_and(|t| t <= until) {
                nets[1].step();
            }
            nets[1].run_until(until);
            let [a, b] = &mut nets;
            let [ra, rb] = &mut runs;
            let (seen_a, seen_b) = (seen(a, sc, ra), seen(b, sc, rb));
            prop_assert_eq!(&seen_a, &seen_b, "after the horizon at {:?}", until);
            delivered += seen_a
                .streams
                .iter()
                .flatten()
                .filter(|ev| matches!(ev, EndpointEvent::CellRx { .. }))
                .count();
            continue;
        }
        for ((net, run), tag) in nets.iter_mut().zip(&mut runs).zip(&mut tags) {
            apply(net, run, sc, op, tag);
        }
    }
    Ok(delivered)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn deferred_last_hops_are_the_per_cell_run(seed in any::<u64>()) {
        let run = both_ways(&scenario(seed));
        prop_assert!(run.is_ok(), "{}", run.err().map(|e| e.to_string()).unwrap_or_default());
    }
}

/// The scenarios carry traffic: a generator that stopped routing cells
/// would let the property pass without comparing any.
#[test]
fn the_scenarios_carry_traffic() {
    let delivered: usize = (0..64).map(|seed| both_ways(&scenario(seed)).unwrap()).sum();
    assert!(delivered > 2_000, "{delivered} cells delivered over 64 scenarios");
}

/// A link that becomes private while its output still holds cells from
/// the input that fed it before does not defer until that queue has
/// drained: the cells it brings meanwhile wait behind the queue, as
/// they do cell by cell.
#[test]
fn a_link_defers_only_once_its_output_has_drained() {
    let install = |sw, in_port, vci: u16, out_port| Op::Install {
        sw,
        in_port,
        vci: Vci(vci),
        out_port,
        out_vci: Vci(vci),
    };
    let sc = Scenario {
        switches: 2,
        links: vec![(0, 0, 1, 1, LinkParams::default())],
        endpoints: (0..2).flat_map(|sw| (LINK_PORTS..PORTS).map(move |p| (sw, p))).collect(),
        // Endpoint 0 (switch 0) over the link, and endpoint 3 beside
        // the output, both into endpoint 5's port.
        setup: vec![install(0, 3, 40, 0), install(1, 1, 40, 5), install(1, 3, 41, 5)],
        ops: vec![
            Op::Inject { ep: 3, vci: Vci(41), clp: false, after_ns: 0, cells: 30 },
            Op::Horizon(20_000),
            Op::Remove { sw: 1, in_port: 3, vci: Vci(41) },
            Op::Inject { ep: 0, vci: Vci(40), clp: false, after_ns: 0, cells: 5 },
            Op::Horizon(200_000),
        ],
    };
    assert_eq!(both_ways(&sc).unwrap(), 35);
}
