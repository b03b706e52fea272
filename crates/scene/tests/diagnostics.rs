//! Golden tests for the `gw-scene/1` diagnostic lattice.
//!
//! Every error and warning code must fire, and must fire **at the
//! byte-exact offset of the offending token** — expected offsets are
//! computed independently with `str::find`, so a parser that anchors a
//! diagnostic one byte off fails here.

use gw_scene::diag::{self, ERROR_CODES, WARNING_CODES};
use gw_scene::{parse, Severity, MAX_SCENE_CONGRAMS};

/// Parse `src` and assert exactly one diagnostic `{code}` anchored at
/// the first occurrence of `at` (a unique needle in the source).
fn one_diag(src: &str, code: &str, at: &str) {
    let (_, diags) = parse(src);
    let expected_offset = src.find(at).unwrap_or_else(|| panic!("needle `{at}` not in src"));
    assert_eq!(diags.len(), 1, "want exactly one diagnostic, got {diags:?}");
    let d = &diags[0];
    assert_eq!(d.code, code, "wrong code: {}", d.render());
    assert_eq!(d.offset, expected_offset, "wrong offset: {}", d.render());
    // line/col must agree with the offset.
    let line = src[..d.offset].bytes().filter(|&b| b == b'\n').count() as u32 + 1;
    let col = (d.offset - src[..d.offset].rfind('\n').map_or(0, |i| i + 1)) as u32 + 1;
    assert_eq!((d.line, d.col), (line, col), "line/col disagree with offset: {}", d.render());
}

/// A minimal warning-clean prelude every snippet builds on.
const OK: &str = "scene t\ncongram a station 1 class async\n\
                  send at_us 0 vc a dir atm len 64 fill 0x2a\nexpect conservation\n";

#[test]
fn prelude_is_clean() {
    let (scene, diags) = parse(OK);
    assert!(scene.is_some());
    assert!(diags.is_empty(), "{diags:?}");
}

#[test]
fn e001_unknown_directive() {
    one_diag(&format!("{OK}frobnicate 3\n"), diag::E_UNKNOWN_DIRECTIVE, "frobnicate");
    // A removed directive gets no deprecation shim: it is simply unknown.
    for kw in ["shards", "slice_us"] {
        let removed = format!("{OK}{kw} 4\n");
        one_diag(&removed, diag::E_UNKNOWN_DIRECTIVE, kw);
        assert_eq!(parse(&removed).1[0].len, kw.len(), "spans the directive keyword");
    }
}

#[test]
fn e002_missing_arg_points_after_last_token() {
    let src = format!("{OK}seed\n");
    let (_, diags) = parse(&src);
    assert_eq!(diags.len(), 1, "{diags:?}");
    let d = &diags[0];
    assert_eq!(d.code, diag::E_MISSING_ARG);
    // Point diagnostic in the gap right after `seed`.
    assert_eq!(d.offset, src.find("seed").unwrap() + "seed".len());
    assert_eq!(d.len, 0);
}

#[test]
fn e003_bad_int() {
    one_diag(&format!("{OK}seed banana\n"), diag::E_BAD_INT, "banana");
}

#[test]
fn e004_bad_probability() {
    one_diag(&format!("{OK}fault drops 1.5\n"), diag::E_BAD_PROBABILITY, "1.5");
    one_diag(&format!("{OK}fault drops nope\n"), diag::E_BAD_PROBABILITY, "nope");
}

#[test]
fn e005_trailing_tokens() {
    one_diag(&format!("{OK}seed 9 extra\n"), diag::E_TRAILING, "extra");
}

#[test]
fn e006_duplicate_directive() {
    let src = format!("{OK}seed 7\nseed 8\n");
    let (_, diags) = parse(&src);
    assert_eq!(diags.len(), 1, "{diags:?}");
    let d = &diags[0];
    assert_eq!(d.code, diag::E_DUPLICATE_DIRECTIVE);
    assert_eq!(d.offset, src.rfind("seed").unwrap());
}

#[test]
fn e007_unknown_congram() {
    one_diag(
        &format!("{OK}send at_us 0 vc ghost dir atm len 64 fill 1\n"),
        diag::E_UNKNOWN_CONGRAM,
        "ghost",
    );
}

#[test]
fn e008_missing_header() {
    one_diag(&format!("seed 9\n{OK}"), diag::E_MISSING_HEADER, "seed");
}

#[test]
fn e009_duplicate_congram() {
    let src = format!("{OK}congram a station 2 class sync\n");
    let (_, diags) = parse(&src);
    assert_eq!(diags.len(), 1, "{diags:?}");
    let d = &diags[0];
    assert_eq!(d.code, diag::E_DUPLICATE_CONGRAM);
    assert_eq!(d.offset, src.rfind("a station").unwrap());
}

#[test]
fn e010_out_of_range() {
    one_diag(&format!("{OK}stations 640\n"), diag::E_OUT_OF_RANGE, "640");
    one_diag("scene t\nstations 1\n", diag::E_OUT_OF_RANGE, "1\n");
    one_diag("scene t\ncongram a station 0 class async\n", diag::E_OUT_OF_RANGE, "0 class");
    one_diag(
        "scene t\ncongram a station 1 class async\n\
         send at_us 0 vc a dir atm len 9999 fill 1\n",
        diag::E_OUT_OF_RANGE,
        "9999",
    );
    one_diag(
        "scene t\ncongram a station 1 class async\n\
         send at_us 0 vc a dir atm len 64 fill 300\n",
        diag::E_OUT_OF_RANGE,
        "300",
    );
    one_diag(&format!("{OK}fault duplication 0.5 copies 17\n"), diag::E_OUT_OF_RANGE, "17");
}

/// Scenes are hostile input: what `check` accepts, every runner must
/// survive. Times past the horizon (their ns form would overflow),
/// schedules that expand without bound, and congrams on stations the
/// ring does not have were all accepted once, and panicked the runners.
#[test]
fn e010_scenes_that_would_panic_a_runner() {
    let send = |at: &str| format!("{OK}send at_us {at} vc a dir atm len 64 fill 1\n");
    one_diag(&send("18446744073709551615"), diag::E_OUT_OF_RANGE, "18446744073709551615");
    one_diag(&send("3600000001"), diag::E_OUT_OF_RANGE, "3600000001");
    assert!(parse(&send("3600000000")).1.is_empty(), "the horizon itself is legal");

    let burst = |from: &str, to: &str, every: &str| {
        format!("{OK}burst from_us {from} to_us {to} every_us {every} vc a dir atm len 64 fill 1\n")
    };
    one_diag(
        &burst("18446744073709551614", "9", "1"),
        diag::E_OUT_OF_RANGE,
        "18446744073709551614",
    );
    one_diag(
        &burst("0", "18446744073709551615", "1"),
        diag::E_OUT_OF_RANGE,
        "18446744073709551615",
    );
    one_diag(
        &burst("5", "9", "18446744073709551615"),
        diag::E_OUT_OF_RANGE,
        "18446744073709551615",
    );
    // A wide burst: one line, 3.6e9 frames. Anchored on the directive.
    one_diag(&burst("0", "3600000000", "1"), diag::E_OUT_OF_RANGE, "burst");
    // The cap counts the whole scene: 1 send + 2^20 - 1 burst frames
    // fit, one more send does not.
    let full = burst("0", "1048575", "1");
    assert!(parse(&full).1.is_empty(), "{:?}", parse(&full).1);
    assert_eq!(parse(&full).0.unwrap().schedule().len(), 1 << 20);
    let over = format!("{full}send at_us 7 vc a dir fddi len 9 fill 2\n");
    let (_, diags) = parse(&over);
    assert_eq!(diags.len(), 1, "{diags:?}");
    assert_eq!(
        (diags[0].code, diags[0].offset),
        (diag::E_OUT_OF_RANGE, over.rfind("send").unwrap())
    );

    for kw in ["reassembly_timeout_us", "liveness_us"] {
        one_diag(&format!("{OK}{kw} 3600000001\n"), diag::E_OUT_OF_RANGE, "3600000001");
    }
    one_diag(
        &format!("{OK}fault flap down_us 1 up_us 18446744073709551615\n"),
        diag::E_OUT_OF_RANGE,
        "18446744073709551615",
    );

    // Station off the ring, with `stations` on either side of the
    // congram and with the default ring; anchored on the congram name.
    let tail = "send at_us 0 vc far dir atm len 64 fill 1\nexpect conservation\n";
    for src in [
        format!("scene t\nstations 4\ncongram far station 9 class async\n{tail}"),
        format!("scene t\ncongram far station 9 class async\nstations 4\n{tail}"),
        format!("scene t\ncongram far station 4 class async\n{tail}"),
    ] {
        one_diag(&src, diag::E_OUT_OF_RANGE, "far");
    }
    let fits = format!("scene t\nstations 10\ncongram far station 9 class async\n{tail}");
    assert!(parse(&fits).1.is_empty(), "{:?}", parse(&fits).1);

    // One congram more than the ICXT has ICNs for; anchored on its name.
    let mut src = String::from("scene t\n");
    for i in 0..MAX_SCENE_CONGRAMS {
        src += &format!("congram c{i} station 1 class async\n");
        src += &format!("send at_us 0 vc c{i} dir atm len 64 fill 1\n");
    }
    src += "expect conservation\n";
    assert!(parse(&src).1.is_empty(), "{:?}", parse(&src).1);
    src += "congram overflow station 1 class async\n";
    one_diag(&src, diag::E_OUT_OF_RANGE, "overflow");
}

#[test]
fn e011_expected_keyword() {
    one_diag(&format!("{OK}starve ty 64 rx 64\n"), diag::E_EXPECTED_KEYWORD, "ty");
    one_diag("scene t\ncongram a station 1 class parallel\n", diag::E_EXPECTED_KEYWORD, "parallel");
}

#[test]
fn e012_empty_burst() {
    one_diag(
        "scene t\ncongram a station 1 class async\n\
         burst from_us 100 to_us 50 every_us 10 vc a dir atm len 64 fill 1\n",
        diag::E_EMPTY_BURST,
        "50 every_us",
    );
    one_diag(
        "scene t\ncongram a station 1 class async\n\
         burst from_us 7 to_us 50 every_us 0 vc a dir atm len 64 fill 1\n",
        diag::E_EMPTY_BURST,
        "0 vc",
    );
}

#[test]
fn e013_duplicate_fault() {
    let src = format!("{OK}fault drops 0.1\nfault drops 0.2\n");
    let (_, diags) = parse(&src);
    assert_eq!(diags.len(), 1, "{diags:?}");
    let d = &diags[0];
    assert_eq!(d.code, diag::E_DUPLICATE_FAULT);
    assert_eq!(d.offset, src.rfind("drops").unwrap());
}

#[test]
fn e014_unknown_fault() {
    one_diag(&format!("{OK}fault gremlins 0.5\n"), diag::E_UNKNOWN_FAULT, "gremlins");
}

#[test]
fn e015_unknown_expect() {
    one_diag(&format!("{OK}expect miracles\n"), diag::E_UNKNOWN_EXPECT, "miracles");
}

#[test]
fn e016_bad_version_header() {
    one_diag(&format!("{OK}# gw-scene/2\n"), diag::E_BAD_VERSION, "# gw-scene/2");
}

#[test]
fn w001_no_traffic() {
    let src = "scene t\nexpect conservation\n";
    let (scene, diags) = parse(src);
    assert!(scene.is_some(), "warnings must not reject the scene");
    assert_eq!(diags.len(), 1, "{diags:?}");
    assert_eq!(diags[0].code, diag::W_NO_TRAFFIC);
    assert_eq!(diags[0].severity, Severity::Warning);
    assert_eq!(diags[0].offset, src.len());
}

#[test]
fn w002_unused_congram() {
    let src = format!("{OK}congram idle station 2 class async\n");
    let (scene, diags) = parse(&src);
    assert!(scene.is_some());
    assert_eq!(diags.len(), 1, "{diags:?}");
    assert_eq!(diags[0].code, diag::W_UNUSED_CONGRAM);
    assert_eq!(diags[0].offset, src.find("idle").unwrap());
}

#[test]
fn w003_no_expects() {
    let src = "scene t\ncongram a station 1 class async\n\
               send at_us 0 vc a dir atm len 64 fill 1\n";
    let (scene, diags) = parse(src);
    assert!(scene.is_some());
    assert_eq!(diags.len(), 1, "{diags:?}");
    assert_eq!(diags[0].code, diag::W_NO_EXPECTS);
}

#[test]
fn w004_clp_on_fddi_send() {
    let src = "scene t\ncongram a station 1 class async\n\
               send at_us 0 vc a dir fddi len 64 fill 1 clp\nexpect conservation\n";
    let (scene, diags) = parse(src);
    assert!(scene.is_some());
    assert_eq!(diags.len(), 1, "{diags:?}");
    assert_eq!(diags[0].code, diag::W_CLP_ON_FDDI);
    assert_eq!(diags[0].offset, src.find("clp").unwrap());
}

#[test]
fn w005_zero_probability_fault() {
    let src = format!("{OK}fault drops 0.0\n");
    let (scene, diags) = parse(&src);
    assert!(scene.is_some());
    assert_eq!(diags.len(), 1, "{diags:?}");
    assert_eq!(diags[0].code, diag::W_ZERO_PROBABILITY);
    assert_eq!(diags[0].offset, src.find("0.0").unwrap());
}

/// Each code above is exercised; this meta-test keeps the lists in
/// sync with the lattice so a new code cannot land untested.
#[test]
fn lattice_is_fully_exercised() {
    let covered_errors = [
        diag::E_UNKNOWN_DIRECTIVE,
        diag::E_MISSING_ARG,
        diag::E_BAD_INT,
        diag::E_BAD_PROBABILITY,
        diag::E_TRAILING,
        diag::E_DUPLICATE_DIRECTIVE,
        diag::E_UNKNOWN_CONGRAM,
        diag::E_MISSING_HEADER,
        diag::E_DUPLICATE_CONGRAM,
        diag::E_OUT_OF_RANGE,
        diag::E_EXPECTED_KEYWORD,
        diag::E_EMPTY_BURST,
        diag::E_DUPLICATE_FAULT,
        diag::E_UNKNOWN_FAULT,
        diag::E_UNKNOWN_EXPECT,
        diag::E_BAD_VERSION,
    ];
    let covered_warnings = [
        diag::W_NO_TRAFFIC,
        diag::W_UNUSED_CONGRAM,
        diag::W_NO_EXPECTS,
        diag::W_CLP_ON_FDDI,
        diag::W_ZERO_PROBABILITY,
    ];
    assert_eq!(covered_errors.as_slice(), ERROR_CODES);
    assert_eq!(covered_warnings.as_slice(), WARNING_CODES);
}

/// One diagnostic per broken line — a typo must not cascade within the
/// line, and errors suppress the advisory warnings entirely.
#[test]
fn errors_do_not_cascade() {
    let src = "scene t\nseed banana\nstations mango\n";
    let (scene, diags) = parse(src);
    assert!(scene.is_none());
    assert_eq!(diags.len(), 2, "{diags:?}");
    assert!(diags.iter().all(|d| d.code == diag::E_BAD_INT));
}

/// Diagnostics come out in source order regardless of discovery order
/// (W002 is discovered at end-of-parse but anchors mid-file).
#[test]
fn diagnostics_are_source_ordered() {
    let src = "scene t\ncongram a station 1 class async\ncongram b station 2 class async\n\
               send at_us 0 vc a dir atm len 64 fill 1\n";
    let (_, diags) = parse(src);
    assert_eq!(diags.len(), 2, "{diags:?}");
    assert_eq!(diags[0].code, diag::W_UNUSED_CONGRAM);
    assert_eq!(diags[1].code, diag::W_NO_EXPECTS);
    assert!(diags[0].offset < diags[1].offset);
}

#[test]
fn render_shape_is_stable() {
    let (_, diags) = parse("scene t\nseed banana\n");
    let line = diags[0].render();
    assert!(line.starts_with("2:6: error[gw-scene/E003]:"), "{line}");
    assert!(line.ends_with("(byte 13)"), "{line}");
}

#[test]
fn no_break_space_separates_tokens_and_anchors_what_follows() {
    // U+00A0 is White_Space: `seed\u{A0}9` reads as `seed 9`.
    let (scene, diags) = parse(&format!("{OK}seed\u{A0}9\n"));
    assert!(diags.is_empty(), "{diags:?}");
    assert_eq!(scene.expect("parses").seed, Some(9));
    // An error on the token after it anchors at that token's first
    // octet, past both octets of the separator.
    one_diag(&format!("{OK}seed\u{A0}nine\n"), diag::E_BAD_INT, "nine");
}
