//! Execute a parsed `.scene`: the one lowering and the one verdict.
//!
//! A `.scene` is the only description of a run, and this module is the
//! only place that turns one into configuration or into a pass/fail:
//! [`load`] reads the file, [`gateway_config`], `fault_config` and [`policer`] lower the
//! knobs, [`play_schedule`] injects the traffic, [`drain`] runs every
//! queue and timer dry, [`judge`] rules on the `expect` directives.
//! The testbed ([`Testbed::from_scene`]), the chaos harness (a chaos
//! seed *is* a scene), the bench runner and `gwd smoke` (plain smoke is
//! a built-in scene) all call these, so a file means the same
//! experiment everywhere. What differs per harness is only what it
//! gates on top of the declared expects: [`run_scene`] adds nothing,
//! chaos and `gwd smoke` always demand conservation and a clean drain.

use crate::testbed::{CongramHandle, Testbed};
use gw_atm::policing::{Gcra, GcraParams, PolicingAction};
use gw_gateway::GatewayConfig;
use gw_phy::PhyMode;
use gw_scene::{Dir, Expect, Faults, PoliceAction, PoliceDecl, Scene, ScheduledSend};
use gw_sim::fault::{FaultConfig, GilbertElliott};
use gw_sim::time::SimTime;

/// Read and parse a `.scene` file the way every runner's CLI does:
/// diagnostics (and a read failure) go to stderr in compiler form,
/// and only an error-free file yields a scene.
pub fn load(path: &str) -> Option<Scene> {
    let src = std::fs::read_to_string(path).inspect_err(|e| eprintln!("{path}: {e}")).ok()?;
    let (scene, diags) = gw_scene::parse(&src);
    for d in &diags {
        eprintln!("{path}:{}", d.render());
    }
    scene
}

/// Lower the scene's gateway knobs. The management plane is always on
/// under scene control: the invariants every harness reads
/// (conservation, residue, the snapshot) are its counters.
pub fn gateway_config(scene: &Scene) -> GatewayConfig {
    let mut gateway = GatewayConfig {
        management: Some(gw_mgmt::MgmtConfig),
        reassembly_timeout: SimTime::from_ns(scene.reassembly_timeout_ns()),
        vc_liveness_timeout: scene.liveness_us.map(SimTime::from_us),
        ..GatewayConfig::default()
    };
    if let Some(starve) = scene.starve {
        gateway.tx_buffer_octets = starve.tx_octets as usize;
        gateway.rx_buffer_octets = starve.rx_octets as usize;
    }
    if scene.shedding {
        gateway.overload_shedding = Some(Default::default());
    }
    gateway
}

/// Lower a congram's `police` clause into its GCRA.
pub fn policer(decl: &PoliceDecl) -> Gcra {
    let action = match decl.action {
        PoliceAction::Drop => PolicingAction::Drop,
        PoliceAction::Tag => PolicingAction::Tag,
    };
    Gcra::new(
        GcraParams::for_sar_payload_bps(decl.pcr_bps, SimTime::from_us(decl.tolerance_us)),
        action,
    )
}

/// Lower the scene's fault directives into the injector configuration.
/// Only armed knobs are set, so an empty `Faults` lowers to
/// [`FaultConfig::none`] and the run is fault-free.
pub(crate) fn fault_config(faults: &Faults) -> FaultConfig {
    let mut b = FaultConfig::builder();
    if let Some(p) = faults.drops {
        b = b.drops(p);
    }
    if let Some(p) = faults.corruption {
        b = b.corruption(p);
    }
    if let Some((p, copies)) = faults.duplication {
        b = b.duplication(p).duplication_burst(copies);
    }
    if let Some(p) = faults.reordering {
        b = b.reordering(p);
    }
    if let Some(p) = faults.misinsertion {
        b = b.misinsertion(p);
    }
    if let Some((period_us, magnitude_us)) = faults.delay_skew {
        b = b.delay_skew(SimTime::from_us(period_us), SimTime::from_us(magnitude_us));
    }
    if let Some((p_gb, p_bg)) = faults.burst_loss {
        b = b.burst(GilbertElliott::bursty(p_gb, p_bg));
    }
    if let Some((down_us, up_us)) = faults.flap {
        b = b.link_flap(SimTime::from_us(down_us), SimTime::from_us(up_us));
    }
    b.build()
}

/// Play the scene's resolved schedule into the testbed: advance
/// simulated time to each injection instant and push the frame in at
/// the port its `dir` names. Returns the number of frames injected.
pub fn play_schedule(tb: &mut Testbed, handles: &[CongramHandle], scene: &Scene) -> usize {
    let plan = scene.schedule();
    let mut payload = std::mem::take(&mut tb.payload_scratch);
    for s in &plan {
        let at = SimTime::from_ns(s.at_ns);
        if at > tb.now() {
            tb.run_until(at);
        }
        let handle = handles[s.congram];
        payload.clear();
        payload.resize(s.len as usize, s.fill);
        match s.dir {
            Dir::Atm => tb.send_from_atm_host_clp_at(at, handle, &payload, s.clp),
            Dir::Fddi => tb.send_data_to_gateway(handle.station, handle, &payload),
        }
    }
    tb.payload_scratch = payload;
    plan.len()
}

/// Drain the run: advance well past the last send and the longest
/// timeout, then keep stepping while anything is still in flight (ring
/// queues, reassembly timers, staged frames). The bounded loop turns a
/// genuine leak into a stable, reportable residue instead of a hang —
/// the same discipline (and the same constants) as the chaos runner.
pub fn drain(tb: &mut Testbed) {
    let mut t = tb.now() + SimTime::from_ms(60);
    tb.run_until(t);
    for _ in 0..40 {
        if tb.gw.residue().is_clean() && tb.gw.fddi_tx_pending() == 0 {
            break;
        }
        t += SimTime::from_ms(10);
        tb.run_until(t);
    }
}

/// Rule on the scene's `expect` directives — the one verdict. Only
/// what the scene declares is judged here; a harness that gates on
/// conservation and a clean drain unconditionally (chaos, `gwd smoke`)
/// books those itself and passes them as held (`&[]`, `true`) so they
/// are not booked twice.
pub fn judge(
    scene: &Scene,
    scheduled: usize,
    delivered: usize,
    conservation: &[String],
    residue_clean: bool,
) -> Vec<String> {
    let mut violations = Vec::new();
    for expect in &scene.expects {
        match expect {
            Expect::Conservation => violations.extend_from_slice(conservation),
            Expect::ResidueClean => {
                if !residue_clean {
                    violations.push("expect residue_clean: residue after drain".to_string());
                }
            }
            Expect::DeliveredAll => {
                if delivered != scheduled {
                    violations.push(format!(
                        "expect delivered_all: {delivered} of {scheduled} frames arrived"
                    ));
                }
            }
            Expect::DeliveredAtLeast(n) => {
                if (delivered as u64) < *n {
                    violations.push(format!(
                        "expect delivered_at_least {n}: only {delivered} frames arrived"
                    ));
                }
            }
            Expect::MaxLostFrames(n) => {
                let lost = scheduled.saturating_sub(delivered) as u64;
                if lost > *n {
                    violations
                        .push(format!("expect max_lost_frames {n}: lost {lost} of {scheduled}"));
                }
            }
        }
    }
    violations
}

/// The delivery oracle for a transport that owes exactly-once,
/// in-order delivery (the appliance's GWP1 ARQ): what arrived from the
/// `dir` sends must be, in order, a subsequence of them, each frame
/// byte-exact — frames may be missing (policed, shed), never reordered,
/// duplicated, truncated or foreign. Returns the first delivery that
/// breaks this.
pub fn audit_in_order<'a>(
    plan: &[ScheduledSend],
    dir: Dir,
    deliveries: impl IntoIterator<Item = &'a [u8]>,
) -> Option<String> {
    let mut pending = plan.iter().filter(|s| s.dir == dir);
    for (i, payload) in deliveries.into_iter().enumerate() {
        let is_this = |s: &ScheduledSend| {
            payload.len() == s.len as usize && payload.iter().all(|&b| b == s.fill)
        };
        if !pending.any(is_this) {
            return Some(format!(
                "delivery {i} of the `dir {}` sends ({} octets, first byte {:#04x}) is not a \
                 later scheduled frame: corrupt, duplicated or out of order",
                dir.keyword(),
                payload.len(),
                payload.first().copied().unwrap_or(0)
            ));
        }
    }
    None
}

/// What a scene run concluded.
#[derive(Debug, Clone)]
pub struct SceneOutcome {
    /// Frames the schedule injected.
    pub scheduled: usize,
    /// Frames delivered intact to either far side.
    pub delivered: usize,
    /// Every violated `expect`, in declaration order.
    pub violations: Vec<String>,
    /// The post-drain residue audit came back clean.
    pub residue_clean: bool,
}

impl SceneOutcome {
    /// True when every declared `expect` held.
    pub fn passed(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Build, play, drain, and judge a scene end to end. The outcome's
/// `violations` only reflect invariants the scene actually declared
/// (`expect` directives) — a scene with no expects always passes,
/// which is why `gw-scene check` warns about one (`W003`).
pub fn run_scene(scene: &Scene, phy: PhyMode) -> SceneOutcome {
    let (mut tb, handles) = Testbed::from_scene(scene, phy);
    let scheduled = play_schedule(&mut tb, &handles, scene);
    drain(&mut tb);

    let mut delivered = 0usize;
    for station in 0..tb.ring.len() {
        delivered += tb.fddi_rx(station).len();
    }
    delivered += std::mem::take(&mut tb.atm_host_rx).len();

    let residue_clean = tb.gw.residue().is_clean();
    let violations = judge(scene, scheduled, delivered, &tb.gw.check_conservation(), residue_clean);
    SceneOutcome { scheduled, delivered, violations, residue_clean }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plan(dir: Dir, frames: &[(u32, u8)]) -> Vec<ScheduledSend> {
        let send =
            |&(len, fill)| ScheduledSend { at_ns: 0, congram: 0, dir, len, fill, clp: false };
        frames.iter().map(send).collect()
    }

    fn audit(plan: &[ScheduledSend], got: &[Vec<u8>]) -> Option<String> {
        audit_in_order(plan, Dir::Atm, got.iter().map(Vec::as_slice))
    }

    #[test]
    fn in_order_oracle_accepts_only_a_byte_exact_subsequence() {
        let plan = plan(Dir::Atm, &[(600, 0x40), (600, 0x41), (90, 0x42)]);
        let (a, b, c) = (vec![0x40; 600], vec![0x41; 600], vec![0x42; 90]);
        assert_eq!(audit(&plan, &[a.clone(), b.clone(), c.clone()]), None);
        assert_eq!(audit(&plan, &[a.clone(), c.clone()]), None, "a policed-away frame is no fault");
        assert_eq!(audit(&plan, &[]), None);

        assert!(audit(&plan, &[b.clone(), a.clone()]).unwrap().contains("delivery 1"), "reordered");
        assert!(
            audit(&plan, &[a.clone(), a.clone()]).unwrap().contains("delivery 1"),
            "duplicated"
        );
        assert!(audit(&plan, &[vec![0x99; 600]]).is_some(), "foreign fill");
        assert!(audit(&plan, &[vec![0x40; 599]]).is_some(), "truncated");
        let mut torn = a.clone();
        torn[599] = 0x41;
        assert!(audit(&plan, &[torn]).is_some(), "one foreign octet");
        // The weaker membership check would pass this: every frame is
        // a scheduled (len, fill), but one arrived twice.
        assert!(audit(&plan, &[a, b.clone(), b, c]).is_some());
        // The other direction's sends owe this side nothing.
        assert!(audit(&self::plan(Dir::Fddi, &[(600, 0x40)]), &[vec![0x40; 600]]).is_some());
    }

    #[test]
    fn judge_rules_only_on_what_the_scene_declares() {
        let books = ["C3 unbalanced".to_string()];
        let mut scene = Scene::default();
        assert!(judge(&scene, 10, 0, &books, false).is_empty(), "nothing declared");
        scene.expects = vec![
            Expect::Conservation,
            Expect::ResidueClean,
            Expect::DeliveredAll,
            Expect::DeliveredAtLeast(8),
            Expect::MaxLostFrames(2),
        ];
        assert!(judge(&scene, 10, 10, &[], true).is_empty());
        assert_eq!(judge(&scene, 10, 7, &books, false).len(), 5);
        assert_eq!(judge(&scene, 10, 8, &[], true).len(), 1, "only delivered_all");
    }
}
