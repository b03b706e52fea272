//! `gw-scene` — the declarative scenario language (`.scene`).
//!
//! One text file describes a complete gateway experiment — topology,
//! traffic schedule, fault plan, and the invariants the run must
//! uphold — and every harness in the repo consumes it: the co-sim
//! testbed (`Testbed::from_scene`), the chaos harness (`gw-chaos
//! run-scene`), and the real appliance daemon (`gwd smoke --scene`). The crate is deliberately
//! dependency-free (a leaf below every consumer, like `gw-lint`):
//! consumers lower the [`Scene`] AST into their own configuration
//! types; the parser never reaches up into them.
//!
//! # The language (`gw-scene/1`)
//!
//! Line-oriented; `#` starts a comment; `# gw-scene/1` is the version
//! header. One directive per line:
//!
//! ```text
//! # gw-scene/1
//! scene quickstart                    # mandatory first directive
//! seed 7                              # fault/schedule RNG seed
//! stations 4                          # FDDI ring size incl. gateway
//! congram web station 1 class async
//! congram voice station 2 class sync police pcr_bps 2000000 tolerance_us 20 action drop
//! send at_us 100 vc web dir atm len 900 fill 0x5a
//! burst from_us 1000 to_us 9000 every_us 500 vc voice dir fddi len 200 fill 0x11
//! fault drops 0.01
//! fault burst p_gb 0.05 p_bg 0.3
//! expect conservation
//! expect max_lost_frames 40
//! ```
//!
//! Congrams are declared by **name**; the wire identifiers (VCI, ICN
//! pair) are assigned deterministically by declaration order — congram
//! *i* gets VCI `64+i` and ICNs `1+2i` / `2+2i` — so the same file
//! resolves to the same connection table in every harness.
//!
//! # Diagnostics
//!
//! The parser follows the `gw-lint` scanner discipline: every
//! diagnostic carries a stable code in the `gw-scene/1` lattice
//! ([`diag`]) and the byte-exact offset of the offending token.
//! Errors reject the scene; warnings (unused congram, no expects, …)
//! still parse but fail `gw-scene check --deny-warnings`, which is
//! how CI gates the corpus.
//!
//! # Canonical form
//!
//! [`format_scene`] renders the one normative spelling of a scene;
//! `parse(format_scene(ast)) == ast` and formatting is idempotent.
//! Chaos-minimized failures are emitted in canonical form so they
//! diff cleanly as corpus files.

pub mod ast;
pub mod diag;
pub mod format;
pub mod parse;

pub use ast::{
    BurstDecl, CongramDecl, Dir, Expect, Faults, PoliceAction, PoliceDecl, Scene, ScheduledSend,
    SendDecl, Starve, Traffic,
};
pub use diag::{Diag, Severity};
pub use format::format_scene;
pub use parse::parse;

/// Most congrams one scene may declare (`E010` past it). Congram `i`
/// gets FDDI ICN `2 + 2i` from [`wire_ids`], and every ICN must index
/// the gateway's N = 1 024-entry ICXT (§6.1), so `i` stops at 510. This
/// crate is a leaf, so the bound is stated here; a root-crate test
/// holds it to `gw_gateway::config::MAX_CONGRAMS`.
pub const MAX_SCENE_CONGRAMS: usize = 511;

/// Deterministic wire identifiers for congram `index` (declaration
/// order): `(vci, atm_icn, fddi_icn)`. Every consumer uses this same
/// assignment — VCI `64+i`, ICNs `1+2i` / `2+2i` — so one `.scene`
/// file resolves to one connection table everywhere.
pub fn wire_ids(index: usize) -> (u16, u16, u16) {
    let i = index as u16;
    (64 + i, 1 + 2 * i, 2 + 2 * i)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_id_assignment_is_the_testbed_assignment() {
        assert_eq!(wire_ids(0), (64, 1, 2));
        assert_eq!(wire_ids(1), (65, 3, 4));
        assert_eq!(wire_ids(2), (66, 5, 6));
    }

    #[test]
    fn crate_doc_example_parses_clean() {
        let src = "\
# gw-scene/1
scene quickstart
seed 7
stations 4
congram web station 1 class async
congram voice station 2 class sync police pcr_bps 2000000 tolerance_us 20 action drop
send at_us 100 vc web dir atm len 900 fill 0x5a
burst from_us 1000 to_us 9000 every_us 500 vc voice dir fddi len 200 fill 0x11
fault drops 0.01
fault burst p_gb 0.05 p_bg 0.3
expect conservation
expect max_lost_frames 40
";
        let (scene, diags) = parse(src);
        assert!(diags.is_empty(), "{:?}", diags);
        let scene = scene.unwrap();
        assert_eq!(scene.congrams.len(), 2);
        assert_eq!(scene.scheduled_frames(), 1 + 16);
        // Canonical round-trip.
        let canon = format_scene(&scene);
        let (again, diags) = parse(&canon);
        assert!(diags.is_empty(), "{:?}", diags);
        assert_eq!(again.unwrap(), scene);
        assert_eq!(format_scene(&parse(&canon).0.unwrap()), canon);
    }
}
