//! The `Scene` AST — what a parsed `.scene` file denotes.
//!
//! Every field mirrors one directive of the language (see the crate
//! docs for the grammar). Optional knobs are `Option` so the canonical
//! formatter can round-trip exactly what was written: an absent
//! directive stays absent, it is never materialized as its default.
//! Consumers resolve defaults when they lower the AST into their own
//! configuration types ([`Scene::stations`] etc. provide the resolved
//! views the harnesses share, so "default stations" means the same
//! thing in the testbed, chaos, the bench harness, and `gwd smoke`).
//!
//! All times are integer **microseconds** (`*_us`): every schedule the
//! chaos generator has ever produced is whole-microsecond, and an
//! integer unit keeps round-trips byte-exact. Probabilities are `f64`
//! rendered with Rust's shortest round-trip `Display`, so a formatted
//! scene re-parses to bit-identical floats.

/// Which port a scheduled frame enters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dir {
    /// The ATM host segments the frame into cells toward the gateway.
    Atm,
    /// An FDDI station sends the frame onto the ring toward the
    /// gateway.
    Fddi,
}

impl Dir {
    /// The keyword the language uses for this direction.
    pub fn keyword(self) -> &'static str {
        match self {
            Dir::Atm => "atm",
            Dir::Fddi => "fddi",
        }
    }
}

/// GCRA policer action (`police … action <drop|tag>`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PoliceAction {
    /// Non-conforming cells are discarded at the ingress.
    Drop,
    /// Non-conforming cells are CLP-tagged (discard-eligible
    /// downstream) and forwarded.
    Tag,
}

impl PoliceAction {
    /// The keyword the language uses for this action.
    pub fn keyword(self) -> &'static str {
        match self {
            PoliceAction::Drop => "drop",
            PoliceAction::Tag => "tag",
        }
    }
}

/// A GCRA traffic contract attached to a congram.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PoliceDecl {
    /// Peak SAR-payload rate in bits per second.
    pub pcr_bps: u64,
    /// Cell-delay-variation tolerance τ, microseconds.
    pub tolerance_us: u64,
    /// What happens to non-conforming cells.
    pub action: PoliceAction,
}

/// One `congram` declaration: a bidirectional data connection between
/// the ATM host and an FDDI station.
#[derive(Debug, Clone, PartialEq)]
pub struct CongramDecl {
    /// Scene-local name sends refer to (`vc <name>`).
    pub name: String,
    /// Destination FDDI station (1-based; station 0 is the gateway).
    pub station: u32,
    /// Ring service class: `sync` reserves synchronous bandwidth,
    /// `async` rides the token's leftover time.
    pub sync: bool,
    /// GCRA policer armed on the ATM ingress of this congram.
    pub police: Option<PoliceDecl>,
}

/// One `send` directive: a single frame injection.
#[derive(Debug, Clone, PartialEq)]
pub struct SendDecl {
    /// Injection time, microseconds.
    pub at_us: u64,
    /// Index into [`Scene::congrams`] (resolved from the `vc` name).
    pub congram: usize,
    /// Which port the frame enters.
    pub dir: Dir,
    /// MCHIP payload length, octets.
    pub len: u32,
    /// Payload fill byte (cheap integrity check at the far side).
    pub fill: u8,
    /// Send the cells CLP-tagged (discard-eligible; ATM direction
    /// only — the MPP sets CLP itself on the FDDI→ATM path).
    pub clp: bool,
}

/// One `burst` directive: a periodic train of identical frames,
/// `[from_us, to_us)` every `every_us`.
#[derive(Debug, Clone, PartialEq)]
pub struct BurstDecl {
    /// First injection time, microseconds.
    pub from_us: u64,
    /// Exclusive end of the train, microseconds.
    pub to_us: u64,
    /// Injection period, microseconds (nonzero).
    pub every_us: u64,
    /// Index into [`Scene::congrams`].
    pub congram: usize,
    /// Which port the frames enter.
    pub dir: Dir,
    /// MCHIP payload length, octets.
    pub len: u32,
    /// Payload fill byte.
    pub fill: u8,
    /// Send the cells CLP-tagged (ATM direction only).
    pub clp: bool,
}

/// A traffic directive in source order (`send` and `burst` interleave
/// freely; [`Scene::schedule`] resolves them into a sorted plan).
#[derive(Debug, Clone, PartialEq)]
pub enum Traffic {
    /// A single frame.
    Send(SendDecl),
    /// A periodic train.
    Burst(BurstDecl),
}

/// The armed fault mix (`fault …` directives; all optional).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Faults {
    /// Independent per-cell drop probability.
    pub drops: Option<f64>,
    /// Single-bit corruption probability.
    pub corruption: Option<f64>,
    /// Duplication probability and the burst cap (total copies).
    pub duplication: Option<(f64, u32)>,
    /// Adjacent-swap reordering probability.
    pub reordering: Option<f64>,
    /// Misinsertion (VCI rewrite onto a live foreign VC) probability.
    pub misinsertion: Option<f64>,
    /// Deterministic sawtooth delay skew: period and peak magnitude,
    /// microseconds.
    pub delay_skew: Option<(u64, u64)>,
    /// Gilbert–Elliott burst loss: `(p_good_to_bad, p_bad_to_good)`,
    /// loss-free when Good, total when Bad.
    pub burst_loss: Option<(f64, f64)>,
    /// Link flap: every cell in `[down_us, up_us)` is lost.
    pub flap: Option<(u64, u64)>,
}

impl Faults {
    /// True when no fault directive is armed.
    pub fn is_none(&self) -> bool {
        *self == Faults::default()
    }

    /// True when misinsertion is armed with nonzero probability (the
    /// payload-integrity oracle's chunk-swap carve-out keys on this).
    pub fn misinsertion_armed(&self) -> bool {
        self.misinsertion.is_some_and(|p| p > 0.0)
    }
}

/// One `expect` directive: an invariant the run must uphold.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Expect {
    /// The C1–C7 flow-conservation equations must balance.
    Conservation,
    /// The post-drain residue audit must come back clean.
    ResidueClean,
    /// Every scheduled frame must arrive intact.
    DeliveredAll,
    /// At least this many frames must arrive intact.
    DeliveredAtLeast(u64),
    /// At most this many scheduled frames may fail to arrive.
    MaxLostFrames(u64),
}

/// `starve tx <octets> rx <octets>` — shrink the SUPERNET buffer
/// memories so pool-exhaustion paths (shed/overflow) get exercised.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Starve {
    /// Transmit buffer memory capacity, octets.
    pub tx_octets: u32,
    /// Receive buffer memory capacity, octets.
    pub rx_octets: u32,
}

/// A fully resolved injection: one row of [`Scene::schedule`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScheduledSend {
    /// Injection time, nanoseconds.
    pub at_ns: u64,
    /// Index into [`Scene::congrams`].
    pub congram: usize,
    /// Which port the frame enters.
    pub dir: Dir,
    /// MCHIP payload length, octets.
    pub len: u32,
    /// Payload fill byte.
    pub fill: u8,
    /// CLP-tagged cells (ATM direction only).
    pub clp: bool,
}

/// A parsed scene.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Scene {
    /// Scene name (`scene <name>`, the mandatory first directive).
    pub name: String,
    /// Seed feeding the fault-injector streams; the derivation matches
    /// `gw-chaos` exactly, so a chaos-emitted scene replays its seed's
    /// fault history bit for bit.
    pub seed: Option<u64>,
    /// FDDI stations including the gateway (`stations <n>`, ≥ 2).
    pub stations: Option<u32>,
    /// Per-VC reassembly timeout, microseconds.
    pub reassembly_timeout_us: Option<u64>,
    /// VC liveness-quarantine timeout, microseconds (absent = monitor
    /// disabled).
    pub liveness_us: Option<u64>,
    /// Starved SUPERNET buffer memories.
    pub starve: Option<Starve>,
    /// Arm watermark-based overload shedding.
    pub shedding: bool,
    /// Declared congrams, in declaration order.
    pub congrams: Vec<CongramDecl>,
    /// Traffic directives, in source order.
    pub traffic: Vec<Traffic>,
    /// The armed fault mix.
    pub faults: Faults,
    /// Invariants the run must uphold, in source order.
    pub expects: Vec<Expect>,
}

/// Default FDDI station count when `stations` is absent.
pub const DEFAULT_STATIONS: u32 = 4;
/// Default reassembly timeout (µs) when `reassembly_timeout_us` is
/// absent — the gateway's NPE-programmed default (§5.3).
const DEFAULT_REASSEMBLY_TIMEOUT_US: u64 = 10_000;
/// Default seed when `seed` is absent.
pub const DEFAULT_SEED: u64 = 1;

impl Scene {
    /// The resolved seed ([`DEFAULT_SEED`] when absent).
    pub fn seed_or_default(&self) -> u64 {
        self.seed.unwrap_or(DEFAULT_SEED)
    }

    /// The resolved station count ([`DEFAULT_STATIONS`] when absent).
    pub fn stations_or_default(&self) -> u32 {
        self.stations.unwrap_or(DEFAULT_STATIONS)
    }

    /// The resolved reassembly timeout in nanoseconds.
    pub fn reassembly_timeout_ns(&self) -> u64 {
        self.reassembly_timeout_us.unwrap_or(DEFAULT_REASSEMBLY_TIMEOUT_US) * 1_000
    }

    /// Expand every `send` and `burst` into a single time-sorted plan.
    /// The sort is stable, so same-instant injections keep source
    /// order — the schedule is a pure function of the file, which is
    /// what makes one `.scene` drive every harness identically.
    pub fn schedule(&self) -> Vec<ScheduledSend> {
        let mut plan = Vec::new();
        for t in &self.traffic {
            match t {
                Traffic::Send(s) => plan.push(ScheduledSend {
                    at_ns: s.at_us * 1_000,
                    congram: s.congram,
                    dir: s.dir,
                    len: s.len,
                    fill: s.fill,
                    clp: s.clp,
                }),
                Traffic::Burst(b) => {
                    let mut at = b.from_us;
                    while at < b.to_us {
                        plan.push(ScheduledSend {
                            at_ns: at * 1_000,
                            congram: b.congram,
                            dir: b.dir,
                            len: b.len,
                            fill: b.fill,
                            clp: b.clp,
                        });
                        at += b.every_us;
                    }
                }
            }
        }
        plan.sort_by_key(|s| s.at_ns);
        plan
    }

    /// Total frames the schedule injects (bursts expanded).
    pub fn scheduled_frames(&self) -> usize {
        self.traffic
            .iter()
            .map(|t| match t {
                Traffic::Send(_) => 1,
                Traffic::Burst(b) => {
                    if b.every_us == 0 {
                        0
                    } else {
                        ((b.to_us.saturating_sub(b.from_us)) as usize).div_ceil(b.every_us as usize)
                    }
                }
            })
            .sum()
    }
}
