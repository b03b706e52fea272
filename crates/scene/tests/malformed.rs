//! Panic-regression suite over malformed inputs.
//!
//! The parser must never panic: every byte sequence — truncated
//! directives, binary garbage, pathological whitespace, huge numbers —
//! yields diagnostics, not a crash — and whatever parses clean must
//! expand ([`gw_scene::Scene::schedule`]) and format without panicking
//! too, because that is the first thing every runner does with it.
//! Each named case here started life as a "what if" against the
//! scanner; the fuzz-ish sweep at the end mutates a valid scene at
//! every byte position.

use gw_scene::{format_scene, parse, Severity};

/// Hand-written nasties: each must parse without panicking, and the
/// invalid ones must be rejected with at least one error.
/// Parse, render every diagnostic, and do to an accepted scene what
/// every runner does first. None of it may panic.
fn exercise(src: &str) -> (Option<gw_scene::Scene>, Vec<gw_scene::Diag>) {
    let (scene, diags) = parse(src);
    for d in &diags {
        let _ = d.render();
    }
    if let Some(scene) = &scene {
        assert_eq!(scene.schedule().len(), scene.scheduled_frames());
        let _ = format_scene(scene);
    }
    (scene, diags)
}

const NASTY: &[&str] = &[
    "",
    "\n",
    "\n\n\n",
    "#",
    "# gw-scene/",
    "# gw-scene/999999999999999999999999",
    "# gw-scene/1",
    "scene",
    "scene ",
    "scene \t ",
    "scene x\nscene y\nscene z",
    "scene x\ncongram",
    "scene x\ncongram a",
    "scene x\ncongram a station",
    "scene x\ncongram a station 1",
    "scene x\ncongram a station 1 class",
    "scene x\ncongram a station 1 class sync police",
    "scene x\ncongram a station 1 class sync police pcr_bps",
    "scene x\ncongram a station 1 class sync police pcr_bps 1 tolerance_us 1 action",
    "scene x\nsend",
    "scene x\nsend at_us",
    "scene x\nsend at_us 18446744073709551615 vc a dir atm len 1 fill 0",
    "scene x\nsend at_us 99999999999999999999999 vc a dir atm len 1 fill 0",
    "scene x\nburst from_us 0 to_us 18446744073709551615 every_us 1 vc a dir atm len 1 fill 0",
    "scene x\nfault",
    "scene x\nfault drops",
    "scene x\nfault drops NaN",
    "scene x\nfault drops inf",
    "scene x\nfault drops -0.5",
    "scene x\nfault drops 1e-999",
    "scene x\nfault duplication 0.5 copies 99999999999999999999",
    "scene x\nexpect",
    "scene x\nexpect delivered_at_least",
    "scene x\nstarve tx rx",
    "scene x\nstarve tx 18446744073709551615 rx 1",
    "scene x\nseed 0xffffffffffffffff",
    "scene x\nseed 0x",
    "scene x\nseed 0xzz",
    "scene x\n\u{0}\u{1}\u{2}",
    "scene \u{fffd}\u{fffd}",
    "scene x\ncongram \u{301}combining station 1 class async",
    "scene x # trailing comment\nsend at_us 0 vc a dir atm len 1 fill 0 # another",
    "scene x\n   \t  congram a station 1 class async   \t",
    "scene x\r\ncongram a station 1 class async\r\n",
    "scene x\ncongram a station 1 class async\nsend at_us 18446744073709551615 vc a dir atm len 1 fill 0",
    "scene x\ncongram a station 1 class async\nsend at_us 3600000000 vc a dir atm len 1 fill 0",
    "scene x\ncongram a station 1 class async\n\
     burst from_us 0 to_us 18446744073709551615 every_us 1 vc a dir atm len 1 fill 0",
    "scene x\ncongram a station 1 class async\n\
     burst from_us 18446744073709551614 to_us 18446744073709551615 every_us 1 vc a dir atm len 1 fill 0",
    "scene x\ncongram a station 1 class async\n\
     burst from_us 5 to_us 9 every_us 18446744073709551615 vc a dir atm len 1 fill 0",
    "scene x\ncongram a station 1 class async\n\
     burst from_us 0 to_us 3600000000 every_us 3 vc a dir atm len 1 fill 0",
    "scene x\nstations 4\ncongram a station 9 class async\nsend at_us 0 vc a dir atm len 1 fill 0",
    "scene x\nliveness_us 18446744073709551615\nreassembly_timeout_us 18446744073709551615",
];

#[test]
fn nasty_corpus_never_panics() {
    for src in NASTY {
        exercise(src);
    }
}

#[test]
fn truncations_of_a_valid_scene_never_panic() {
    let src = "# gw-scene/1\nscene t\nseed 9\nstations 4\nstarve tx 2048 rx 1024\nshedding\n\
               congram a station 1 class sync police pcr_bps 2000000 tolerance_us 20 action drop\n\
               congram b station 2 class async\n\
               send at_us 100 vc a dir atm len 900 fill 0x5a clp\n\
               burst from_us 0 to_us 5000 every_us 250 vc b dir fddi len 64 fill 0x11\n\
               fault drops 0.01\nfault duplication 0.02 copies 3\n\
               fault delay_skew period_us 2000 magnitude_us 300\n\
               fault burst p_gb 0.05 p_bg 0.3\nfault flap down_us 1000 up_us 2000\n\
               expect conservation\nexpect max_lost_frames 40\n";
    // Every prefix, at byte granularity (valid UTF-8 boundaries only —
    // the source is ASCII so every boundary is valid).
    for end in 0..=src.len() {
        exercise(&src[..end]);
    }
}

#[test]
fn single_byte_mutations_never_panic() {
    let src = "scene t\ncongram a station 1 class async\n\
               send at_us 0 vc a dir atm len 64 fill 0x2a\nexpect conservation\n";
    let replacements: &[u8] = b"\0 \t\n#x9.-";
    for pos in 0..src.len() {
        for &b in replacements {
            let mut bytes = src.as_bytes().to_vec();
            bytes[pos] = b;
            // Skip mutations that break UTF-8 (source is ASCII, these
            // replacement bytes are too, so this never trips).
            let Ok(mutated) = String::from_utf8(bytes) else { continue };
            exercise(&mutated);
        }
    }
}

#[test]
fn rejected_inputs_carry_at_least_one_error() {
    for src in NASTY {
        let (scene, diags) = parse(src);
        if scene.is_none() {
            assert!(
                diags.iter().any(|d| d.severity == Severity::Error),
                "rejected without an error diagnostic: {src:?}"
            );
        }
    }
}

/// Offsets always land inside (or at the end of) the source, so
/// editor integrations can trust them blindly.
#[test]
fn offsets_are_always_in_bounds() {
    for src in NASTY {
        let (_, diags) = parse(src);
        for d in &diags {
            assert!(d.offset <= src.len(), "offset {} > len {} for {src:?}", d.offset, src.len());
            assert!(d.offset + d.len <= src.len(), "span escapes source for {src:?}");
        }
    }
}

/// Every separator `char::is_whitespace` accepts besides the space and
/// the newline: the ASCII controls VT, FF and CR, and every non-ASCII
/// White_Space char (two and three octets in UTF-8).
const SEPARATORS: &[char] = &[
    '\u{0B}', '\u{0C}', '\r', '\u{85}', '\u{A0}', '\u{1680}', '\u{2000}', '\u{2001}', '\u{2002}',
    '\u{2003}', '\u{2004}', '\u{2005}', '\u{2006}', '\u{2007}', '\u{2008}', '\u{2009}', '\u{200A}',
    '\u{2028}', '\u{2029}', '\u{202F}', '\u{205F}', '\u{3000}',
];

/// A scene whose tokens are separated — and each line led and trailed —
/// by one of [`SEPARATORS`] parses to the space-separated scene. Every
/// prefix of it, cut at each char boundary (so also just before each
/// multibyte separator), parses without panicking, and every diagnostic
/// span lies inside the source on char boundaries.
#[test]
fn white_space_separators_parse_and_cut_safely() {
    let base = "# gw-scene/1\nscene t\ncongram a station 1 class async\n\
                send at_us 0 vc a dir atm len 64 fill 0x2a\nexpect conservation\n";
    let (want, diags) = parse(base);
    assert!(diags.is_empty(), "{diags:?}");
    for &sep in SEPARATORS {
        let sep = sep.to_string();
        let src: String = base
            .lines()
            .map(|line| {
                if line.starts_with('#') {
                    format!("{line}\n")
                } else {
                    format!("{sep}{}{sep}\n", line.replace(' ', &sep))
                }
            })
            .collect();
        let (scene, diags) = exercise(&src);
        assert!(diags.is_empty(), "separator {sep:?}: {diags:?}");
        assert_eq!(scene, want, "separator {sep:?}");
        for end in (0..=src.len()).filter(|&end| src.is_char_boundary(end)) {
            let cut = &src[..end];
            for d in exercise(cut).1 {
                let span = d.offset..d.offset + d.len;
                assert!(span.end <= cut.len(), "{d:?} escapes {cut:?}");
                assert!(
                    cut.is_char_boundary(span.start) && cut.is_char_boundary(span.end),
                    "{d:?} splits a char of {cut:?}"
                );
            }
        }
    }
}
