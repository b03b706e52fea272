//! The `.scene` parser: line-oriented, byte-exact, cascade-free.
//!
//! Scanner discipline follows `gw-lint`: the source is tokenized into
//! whitespace-separated tokens that each remember their byte offset,
//! line, and column; every diagnostic points at the exact token (or
//! the exact gap) that caused it. A line that fails stops parsing *at
//! the failure* — the rest of the line produces no cascade, and the
//! next line parses independently, so one typo yields one diagnostic.
//! When any error is present, warnings are withheld entirely: fix the
//! errors first, then the lint pass speaks.
//!
//! Grammar (one directive per line, `#` starts a comment):
//!
//! ```text
//! scene <name>                          # mandatory first directive
//! seed <u64>
//! stations <2..=32>
//! reassembly_timeout_us <u64>
//! liveness_us <u64>
//! starve tx <octets> rx <octets>
//! shedding
//! congram <name> station <n> class <sync|async>
//!         [police pcr_bps <n> tolerance_us <n> action <drop|tag>]
//! send at_us <n> vc <name> dir <atm|fddi> len <n> fill <byte> [clp]
//! burst from_us <n> to_us <n> every_us <n> vc <name> dir <atm|fddi>
//!       len <n> fill <byte> [clp]
//! fault drops <p> | corruption <p> | duplication <p> copies <2..=16>
//!       | reordering <p> | misinsertion <p>
//!       | delay_skew period_us <n> magnitude_us <n>
//!       | burst p_gb <p> p_bg <p> | flap down_us <n> up_us <n>
//! expect conservation | residue_clean | delivered_all
//!        | delivered_at_least <n> | max_lost_frames <n>
//! ```
//!
//! A scene is hostile input to every runner, so what parses must be
//! safe to run: every `*_us` value is at most [`MAX_TIME_US`], the
//! schedule expands to at most [`MAX_SCENE_FRAMES`] frames, and every
//! congram's station is on the declared ring — `E010` otherwise.

use crate::ast::*;
use crate::diag::{self, Diag, Severity};

/// Largest MCHIP payload a send may carry: the 91-cell reassembly
/// buffer holds 37 + 90×45 payload octets minus the 8-octet MCHIP
/// header.
pub const MAX_SEND_OCTETS: u32 = 4000;

/// Largest FDDI ring the co-simulation topology supports.
pub const MAX_STATIONS: u32 = 32;

/// Latest instant, and longest interval, a scene may name: one
/// simulated hour, in microseconds. Consumers turn every `*_us` value
/// into nanoseconds and add drain time on top; under this horizon that
/// arithmetic cannot overflow `u64`.
pub const MAX_TIME_US: u64 = 3_600_000_000;

/// Most frames one scene's schedule may expand to (`send`s plus every
/// `burst` train), so a one-line burst cannot make
/// [`Scene::schedule`] allocate without bound.
pub const MAX_SCENE_FRAMES: u64 = 1 << 20;

/// One source token with its byte-exact anchor.
#[derive(Debug, Clone, Copy)]
struct Tok<'a> {
    text: &'a str,
    offset: usize,
    line: u32,
    col: u32,
}

/// Cursor over one line's tokens. Accessors push their own diagnostic
/// and return `None`, so directive parsers read linearly; the line's
/// diagnostics are merged into the parser afterwards.
struct Cursor<'a> {
    toks: Vec<Tok<'a>>,
    i: usize,
    diags: Vec<Diag>,
}

impl<'a> Cursor<'a> {
    fn err_at(&mut self, code: &'static str, tok: Tok<'_>, message: String) {
        self.diags.push(Diag {
            code,
            severity: Severity::Error,
            offset: tok.offset,
            len: tok.text.len(),
            line: tok.line,
            col: tok.col,
            message,
        });
    }

    fn warn_at(&mut self, code: &'static str, tok: Tok<'_>, message: String) {
        self.diags.push(Diag {
            code,
            severity: Severity::Warning,
            offset: tok.offset,
            len: tok.text.len(),
            line: tok.line,
            col: tok.col,
            message,
        });
    }

    /// Point diagnostic at the gap after the last consumed token.
    fn err_after_last(&mut self, code: &'static str, message: String) {
        let prev = self.toks[self.i.saturating_sub(1).min(self.toks.len() - 1)];
        self.diags.push(Diag {
            code,
            severity: Severity::Error,
            offset: prev.offset + prev.text.len(),
            len: 0,
            line: prev.line,
            col: prev.col + prev.text.len() as u32,
            message,
        });
    }

    fn next(&mut self, what: &str) -> Option<Tok<'a>> {
        match self.toks.get(self.i) {
            Some(&t) => {
                self.i += 1;
                Some(t)
            }
            None => {
                self.err_after_last(diag::E_MISSING_ARG, format!("missing {what}"));
                None
            }
        }
    }

    fn keyword(&mut self, kw: &str) -> Option<()> {
        let t = self.next(&format!("keyword `{kw}`"))?;
        if t.text == kw {
            Some(())
        } else {
            self.err_at(
                diag::E_EXPECTED_KEYWORD,
                t,
                format!("expected keyword `{kw}`, found `{}`", t.text),
            );
            None
        }
    }

    fn int(&mut self, what: &str) -> Option<(u64, Tok<'a>)> {
        let t = self.next(what)?;
        let parsed = if let Some(hex) = t.text.strip_prefix("0x") {
            u64::from_str_radix(hex, 16)
        } else {
            t.text.parse::<u64>()
        };
        match parsed {
            Ok(v) => Some((v, t)),
            Err(_) => {
                self.err_at(
                    diag::E_BAD_INT,
                    t,
                    format!("{what} must be an unsigned integer, found `{}`", t.text),
                );
                None
            }
        }
    }

    /// An integer microsecond value within [`MAX_TIME_US`].
    fn time_us(&mut self, what: &str) -> Option<(u64, Tok<'a>)> {
        let (v, t) = self.int(what)?;
        if v > MAX_TIME_US {
            self.err_at(
                diag::E_OUT_OF_RANGE,
                t,
                format!("{what} must be at most {MAX_TIME_US} us (one simulated hour), found {v}"),
            );
            return None;
        }
        Some((v, t))
    }

    fn probability(&mut self, what: &str) -> Option<(f64, Tok<'a>)> {
        let t = self.next(what)?;
        match t.text.parse::<f64>() {
            Ok(p) if (0.0..=1.0).contains(&p) => Some((p, t)),
            _ => {
                self.err_at(
                    diag::E_BAD_PROBABILITY,
                    t,
                    format!("{what} must be a probability in [0, 1], found `{}`", t.text),
                );
                None
            }
        }
    }

    /// Optional bare `clp` flag at the end of a traffic directive.
    fn clp_flag(&mut self) -> Option<Tok<'a>> {
        match self.toks.get(self.i) {
            Some(&t) if t.text == "clp" => {
                self.i += 1;
                Some(t)
            }
            _ => None,
        }
    }

    /// Fails on leftover tokens (one E005 at the first extra token).
    fn finish(&mut self) -> Option<()> {
        match self.toks.get(self.i) {
            None => Some(()),
            Some(&t) => {
                self.err_at(
                    diag::E_TRAILING,
                    t,
                    format!("trailing tokens after a complete directive, starting at `{}`", t.text),
                );
                None
            }
        }
    }
}

/// Per-parse bookkeeping that outlives a single line.
struct Parser {
    scene: Scene,
    diags: Vec<Diag>,
    saw_header: bool,
    /// Single-occurrence directives already seen, by keyword.
    seen_once: Vec<&'static str>,
    /// Fault kinds already armed, by keyword.
    seen_faults: Vec<String>,
    /// Frames the traffic directives accepted so far expand to.
    frames: u64,
    /// Congrams actually referenced by traffic, by index.
    used_congrams: Vec<bool>,
    /// `(offset, len, line, col)` of each congram's name token, for
    /// the post-parse unused-congram warnings.
    congram_spans: Vec<(usize, usize, u32, u32)>,
}

/// Parse a `.scene` source text.
///
/// Returns the scene (if and only if no **error** was diagnosed) plus
/// the diagnostics in source order. While any error is present,
/// warnings are withheld; a warning-bearing scene still parses but
/// fails `gw-scene check --deny-warnings` (the CI corpus gate).
pub fn parse(src: &str) -> (Option<Scene>, Vec<Diag>) {
    let mut p = Parser {
        scene: Scene::default(),
        diags: Vec::new(),
        saw_header: false,
        seen_once: Vec::new(),
        seen_faults: Vec::new(),
        frames: 0,
        used_congrams: Vec::new(),
        congram_spans: Vec::new(),
    };

    let mut offset = 0usize;
    for (lineno, raw) in src.split('\n').enumerate() {
        let line_no = (lineno + 1) as u32;
        parse_line(&mut p, raw, offset, line_no);
        offset += raw.len() + 1;
    }

    finish(&mut p, src);
    let has_error = p.diags.iter().any(|d| d.severity == Severity::Error);
    if has_error {
        p.diags.retain(|d| d.severity == Severity::Error);
    }
    p.diags.sort_by_key(|d| (d.offset, d.line, d.col));
    (if has_error { None } else { Some(p.scene) }, p.diags)
}

/// Post-parse checks that need the whole file: every congram's station
/// is on the ring (`stations` may come before or after the congram),
/// then the lints — unused congrams, empty schedules, missing
/// expectations.
fn finish(p: &mut Parser, src: &str) {
    let stations = p.scene.stations_or_default();
    for (i, used) in p.used_congrams.iter().enumerate() {
        let (offset, len, line, col) = p.congram_spans[i];
        let at_name =
            |code, severity, message| Diag { code, severity, offset, len, line, col, message };
        let decl = &p.scene.congrams[i];
        if decl.station >= stations {
            let message = format!(
                "congram `{}` names station {} but the ring has stations 0..={}",
                decl.name,
                decl.station,
                stations - 1
            );
            p.diags.push(at_name(diag::E_OUT_OF_RANGE, Severity::Error, message));
        }
        if !used {
            let message = format!("congram `{}` is declared but never sent on", decl.name);
            p.diags.push(at_name(diag::W_UNUSED_CONGRAM, Severity::Warning, message));
        }
    }
    if p.saw_header {
        let eof_line = src.split('\n').count() as u32;
        let eof = |code: &'static str, message: String| Diag {
            code,
            severity: Severity::Warning,
            offset: src.len(),
            len: 0,
            line: eof_line,
            col: 1,
            message,
        };
        if p.scene.traffic.is_empty() {
            p.diags.push(eof(diag::W_NO_TRAFFIC, "scene schedules no traffic".to_string()));
        }
        if p.scene.expects.is_empty() {
            p.diags.push(eof(
                diag::W_NO_EXPECTS,
                "scene declares no expectations; a run proves nothing".to_string(),
            ));
        }
    }
}

fn parse_line(p: &mut Parser, raw: &str, line_start: usize, line_no: u32) {
    // Comments run to end of line — except the version header, which
    // is validated wherever a `# gw-scene/N` comment appears.
    let code_end = raw.find('#').unwrap_or(raw.len());
    if let Some(rest) = raw[code_end..].strip_prefix("# gw-scene/") {
        let version: &str = rest.split_whitespace().next().unwrap_or("");
        if version != "1" {
            p.diags.push(Diag {
                code: diag::E_BAD_VERSION,
                severity: Severity::Error,
                offset: line_start + code_end,
                len: raw.len() - code_end,
                line: line_no,
                col: code_end as u32 + 1,
                message: format!(
                    "unsupported scene format version `{version}` (this is gw-scene/1)"
                ),
            });
        }
    }
    let code = &raw[..code_end];
    if code.trim().is_empty() {
        return;
    }

    // Tokenize with byte-exact anchors.
    let mut toks = Vec::new();
    let mut rest = code;
    let mut consumed = 0usize;
    while let Some(start) = rest.find(|c: char| !c.is_whitespace()) {
        let after = &rest[start..];
        let end = after.find(char::is_whitespace).unwrap_or(after.len());
        let abs = consumed + start;
        toks.push(Tok {
            text: &after[..end],
            offset: line_start + abs,
            line: line_no,
            col: abs as u32 + 1,
        });
        consumed += start + end;
        rest = &rest[start + end..];
    }
    let head = toks[0];
    let mut c = Cursor { toks, i: 1, diags: Vec::new() };

    // Everything before the `scene` header is an error (one per line).
    if !p.saw_header && head.text != "scene" {
        c.err_at(
            diag::E_MISSING_HEADER,
            head,
            "the first directive must be `scene <name>`".to_string(),
        );
        p.diags.append(&mut c.diags);
        return;
    }

    match head.text {
        "scene" => parse_header(p, head, &mut c),
        "seed" | "stations" | "reassembly_timeout_us" | "liveness_us" => {
            parse_scalar(p, head, &mut c)
        }
        "starve" => parse_starve(p, head, &mut c),
        "shedding" => parse_shedding(p, head, &mut c),
        "congram" => parse_congram(p, &mut c),
        "send" => parse_send(p, &mut c),
        "burst" => parse_burst(p, &mut c),
        "fault" => parse_fault(p, &mut c),
        "expect" => parse_expect(p, &mut c),
        other => {
            c.err_at(diag::E_UNKNOWN_DIRECTIVE, head, format!("unknown directive `{other}`"));
        }
    }
    p.diags.append(&mut c.diags);
}

fn parse_header(p: &mut Parser, head: Tok<'_>, c: &mut Cursor<'_>) {
    if p.saw_header {
        c.err_at(diag::E_DUPLICATE_DIRECTIVE, head, "duplicate `scene` header".to_string());
        return;
    }
    let Some(name) = c.next("scene name") else { return };
    if c.finish().is_none() {
        return;
    }
    p.scene.name = name.text.to_string();
    p.saw_header = true;
}

fn parse_scalar(p: &mut Parser, head: Tok<'_>, c: &mut Cursor<'_>) {
    let kw: &'static str = match head.text {
        "seed" => "seed",
        "stations" => "stations",
        "reassembly_timeout_us" => "reassembly_timeout_us",
        _ => "liveness_us",
    };
    if p.seen_once.contains(&kw) {
        c.err_at(diag::E_DUPLICATE_DIRECTIVE, head, format!("duplicate `{kw}` directive"));
        return;
    }
    let is_time = !matches!(kw, "seed" | "stations");
    let Some((v, vt)) = (if is_time { c.time_us(kw) } else { c.int(kw) }) else { return };
    if c.finish().is_none() {
        return;
    }
    match kw {
        "seed" => p.scene.seed = Some(v),
        "stations" => {
            if !(2..=u64::from(MAX_STATIONS)).contains(&v) {
                c.err_at(
                    diag::E_OUT_OF_RANGE,
                    vt,
                    format!("stations must be in 2..={MAX_STATIONS}, found {v}"),
                );
                return;
            }
            p.scene.stations = Some(v as u32);
        }
        _ => {
            if v == 0 {
                c.err_at(diag::E_OUT_OF_RANGE, vt, format!("{kw} must be nonzero"));
                return;
            }
            match kw {
                "reassembly_timeout_us" => p.scene.reassembly_timeout_us = Some(v),
                _ => p.scene.liveness_us = Some(v),
            }
        }
    }
    p.seen_once.push(kw);
}

fn parse_starve(p: &mut Parser, head: Tok<'_>, c: &mut Cursor<'_>) {
    if p.seen_once.contains(&"starve") {
        c.err_at(diag::E_DUPLICATE_DIRECTIVE, head, "duplicate `starve` directive".to_string());
        return;
    }
    let Some(()) = c.keyword("tx") else { return };
    let Some((tx, txt)) = c.int("tx octets") else { return };
    let Some(()) = c.keyword("rx") else { return };
    let Some((rx, rxt)) = c.int("rx octets") else { return };
    if c.finish().is_none() {
        return;
    }
    for (v, t, what) in [(tx, txt, "tx"), (rx, rxt, "rx")] {
        if v == 0 || v > u64::from(u32::MAX) {
            c.err_at(
                diag::E_OUT_OF_RANGE,
                t,
                format!("starve {what} octets must be in 1..=2^32-1, found {v}"),
            );
            return;
        }
    }
    p.scene.starve = Some(Starve { tx_octets: tx as u32, rx_octets: rx as u32 });
    p.seen_once.push("starve");
}

fn parse_shedding(p: &mut Parser, head: Tok<'_>, c: &mut Cursor<'_>) {
    if p.seen_once.contains(&"shedding") {
        c.err_at(diag::E_DUPLICATE_DIRECTIVE, head, "duplicate `shedding` directive".to_string());
        return;
    }
    if c.finish().is_none() {
        return;
    }
    p.scene.shedding = true;
    p.seen_once.push("shedding");
}

fn parse_congram(p: &mut Parser, c: &mut Cursor<'_>) {
    let Some(name) = c.next("congram name") else { return };
    let Some(()) = c.keyword("station") else { return };
    let Some((station, st)) = c.int("station") else { return };
    let Some(()) = c.keyword("class") else { return };
    let Some(class) = c.next("class (sync|async)") else { return };
    let sync = match class.text {
        "sync" => true,
        "async" => false,
        other => {
            c.err_at(
                diag::E_EXPECTED_KEYWORD,
                class,
                format!("class must be `sync` or `async`, found `{other}`"),
            );
            return;
        }
    };
    // Optional policer.
    let police = match c.toks.get(c.i) {
        Some(&t) if t.text == "police" => {
            c.i += 1;
            let Some(()) = c.keyword("pcr_bps") else { return };
            let Some((pcr, pt)) = c.int("pcr_bps") else { return };
            let Some(()) = c.keyword("tolerance_us") else { return };
            let Some((tol, _)) = c.time_us("tolerance_us") else { return };
            let Some(()) = c.keyword("action") else { return };
            let Some(action) = c.next("action (drop|tag)") else { return };
            let action = match action.text {
                "drop" => PoliceAction::Drop,
                "tag" => PoliceAction::Tag,
                other => {
                    c.err_at(
                        diag::E_EXPECTED_KEYWORD,
                        action,
                        format!("action must be `drop` or `tag`, found `{other}`"),
                    );
                    return;
                }
            };
            if pcr == 0 {
                c.err_at(diag::E_OUT_OF_RANGE, pt, "pcr_bps must be nonzero".to_string());
                return;
            }
            Some(PoliceDecl { pcr_bps: pcr, tolerance_us: tol, action })
        }
        _ => None,
    };
    if c.finish().is_none() {
        return;
    }
    if station == 0 || station > u64::from(MAX_STATIONS) - 1 {
        c.err_at(
            diag::E_OUT_OF_RANGE,
            st,
            format!("station must be in 1..={} (station 0 is the gateway)", MAX_STATIONS - 1),
        );
        return;
    }
    if p.scene.congrams.iter().any(|d| d.name == name.text) {
        c.err_at(
            diag::E_DUPLICATE_CONGRAM,
            name,
            format!("congram `{}` is already declared", name.text),
        );
        return;
    }
    p.scene.congrams.push(CongramDecl {
        name: name.text.to_string(),
        station: station as u32,
        sync,
        police,
    });
    p.used_congrams.push(false);
    p.congram_spans.push((name.offset, name.text.len(), name.line, name.col));
}

/// The `vc <name> dir <atm|fddi> len <n> fill <byte> [clp]` tail that
/// `send` and `burst` share. Returns `(congram, dir, len, fill, clp)`.
fn traffic_tail(p: &mut Parser, c: &mut Cursor<'_>) -> Option<(usize, Dir, u32, u8, bool)> {
    c.keyword("vc")?;
    let name = c.next("congram name")?;
    let congram = match p.scene.congrams.iter().position(|d| d.name == name.text) {
        Some(i) => i,
        None => {
            c.err_at(
                diag::E_UNKNOWN_CONGRAM,
                name,
                format!("`{}` names no declared congram", name.text),
            );
            return None;
        }
    };
    c.keyword("dir")?;
    let dir_tok = c.next("dir (atm|fddi)")?;
    let dir = match dir_tok.text {
        "atm" => Dir::Atm,
        "fddi" => Dir::Fddi,
        other => {
            c.err_at(
                diag::E_EXPECTED_KEYWORD,
                dir_tok,
                format!("dir must be `atm` or `fddi`, found `{other}`"),
            );
            return None;
        }
    };
    c.keyword("len")?;
    let (len, lt) = c.int("len")?;
    c.keyword("fill")?;
    let (fill, ft) = c.int("fill")?;
    let clp_tok = c.clp_flag();
    c.finish()?;
    if len == 0 || len > u64::from(MAX_SEND_OCTETS) {
        c.err_at(
            diag::E_OUT_OF_RANGE,
            lt,
            format!("len must be in 1..={MAX_SEND_OCTETS} octets, found {len}"),
        );
        return None;
    }
    if fill > 255 {
        c.err_at(diag::E_OUT_OF_RANGE, ft, format!("fill must be a byte (0..=255), found {fill}"));
        return None;
    }
    if let Some(t) = clp_tok {
        if dir == Dir::Fddi {
            c.warn_at(
                diag::W_CLP_ON_FDDI,
                t,
                "`clp` has no effect on an fddi-direction send (the MPP sets CLP itself)"
                    .to_string(),
            );
        }
    }
    p.used_congrams[congram] = true;
    Some((congram, dir, len as u32, fill as u8, clp_tok.is_some()))
}

/// Count a traffic directive's `n` frames against
/// [`MAX_SCENE_FRAMES`] — arithmetically, never by expanding — and
/// reject the directive that takes the scene over.
fn admit_frames(p: &mut Parser, c: &mut Cursor<'_>, n: u64) -> bool {
    if p.frames + n > MAX_SCENE_FRAMES {
        let head = c.toks[0];
        c.err_at(
            diag::E_OUT_OF_RANGE,
            head,
            format!(
                "this directive's {n} frames take the scene past {MAX_SCENE_FRAMES} scheduled \
                 frames"
            ),
        );
        return false;
    }
    p.frames += n;
    true
}

fn parse_send(p: &mut Parser, c: &mut Cursor<'_>) {
    let Some(()) = c.keyword("at_us") else { return };
    let Some((at, _)) = c.time_us("at_us") else { return };
    let Some((congram, dir, len, fill, clp)) = traffic_tail(p, c) else { return };
    if !admit_frames(p, c, 1) {
        return;
    }
    p.scene.traffic.push(Traffic::Send(SendDecl { at_us: at, congram, dir, len, fill, clp }));
}

fn parse_burst(p: &mut Parser, c: &mut Cursor<'_>) {
    let Some(()) = c.keyword("from_us") else { return };
    let Some((from, _)) = c.time_us("from_us") else { return };
    let Some(()) = c.keyword("to_us") else { return };
    let Some((to, tt)) = c.time_us("to_us") else { return };
    let Some(()) = c.keyword("every_us") else { return };
    let Some((every, et)) = c.time_us("every_us") else { return };
    let Some((congram, dir, len, fill, clp)) = traffic_tail(p, c) else { return };
    if every == 0 {
        c.err_at(diag::E_EMPTY_BURST, et, "every_us must be nonzero".to_string());
        return;
    }
    if to <= from {
        c.err_at(
            diag::E_EMPTY_BURST,
            tt,
            format!("burst window is empty (to_us {to} <= from_us {from})"),
        );
        return;
    }
    if !admit_frames(p, c, (to - from).div_ceil(every)) {
        return;
    }
    p.scene.traffic.push(Traffic::Burst(BurstDecl {
        from_us: from,
        to_us: to,
        every_us: every,
        congram,
        dir,
        len,
        fill,
        clp,
    }));
}

fn parse_fault(p: &mut Parser, c: &mut Cursor<'_>) {
    let Some(kind) = c.next("fault kind") else { return };
    if p.seen_faults.iter().any(|k| k == kind.text) {
        c.err_at(diag::E_DUPLICATE_FAULT, kind, format!("fault `{}` is already armed", kind.text));
        return;
    }
    let mut zero_warn: Option<Tok<'_>> = None;
    match kind.text {
        "drops" | "corruption" | "reordering" | "misinsertion" => {
            let Some((prob, pt)) = c.probability(kind.text) else { return };
            if c.finish().is_none() {
                return;
            }
            if prob == 0.0 {
                zero_warn = Some(pt);
            }
            match kind.text {
                "drops" => p.scene.faults.drops = Some(prob),
                "corruption" => p.scene.faults.corruption = Some(prob),
                "reordering" => p.scene.faults.reordering = Some(prob),
                _ => p.scene.faults.misinsertion = Some(prob),
            }
        }
        "duplication" => {
            let Some((prob, pt)) = c.probability("duplication") else { return };
            let Some(()) = c.keyword("copies") else { return };
            let Some((copies, ct)) = c.int("copies") else { return };
            if c.finish().is_none() {
                return;
            }
            if !(2..=16).contains(&copies) {
                c.err_at(
                    diag::E_OUT_OF_RANGE,
                    ct,
                    format!("copies must be in 2..=16, found {copies}"),
                );
                return;
            }
            if prob == 0.0 {
                zero_warn = Some(pt);
            }
            p.scene.faults.duplication = Some((prob, copies as u32));
        }
        "delay_skew" => {
            let Some(()) = c.keyword("period_us") else { return };
            let Some((period, pt)) = c.time_us("period_us") else { return };
            let Some(()) = c.keyword("magnitude_us") else { return };
            let Some((mag, _)) = c.time_us("magnitude_us") else { return };
            if c.finish().is_none() {
                return;
            }
            if period == 0 {
                c.err_at(diag::E_OUT_OF_RANGE, pt, "period_us must be nonzero".to_string());
                return;
            }
            p.scene.faults.delay_skew = Some((period, mag));
        }
        "burst" => {
            let Some(()) = c.keyword("p_gb") else { return };
            let Some((p_gb, gt)) = c.probability("p_gb") else { return };
            let Some(()) = c.keyword("p_bg") else { return };
            let Some((p_bg, _)) = c.probability("p_bg") else { return };
            if c.finish().is_none() {
                return;
            }
            if p_gb == 0.0 {
                zero_warn = Some(gt);
            }
            p.scene.faults.burst_loss = Some((p_gb, p_bg));
        }
        "flap" => {
            let Some(()) = c.keyword("down_us") else { return };
            let Some((down, _)) = c.time_us("down_us") else { return };
            let Some(()) = c.keyword("up_us") else { return };
            let Some((up, ut)) = c.time_us("up_us") else { return };
            if c.finish().is_none() {
                return;
            }
            if up <= down {
                c.err_at(
                    diag::E_OUT_OF_RANGE,
                    ut,
                    format!("flap window is empty (up_us {up} <= down_us {down})"),
                );
                return;
            }
            p.scene.faults.flap = Some((down, up));
        }
        other => {
            c.err_at(diag::E_UNKNOWN_FAULT, kind, format!("unknown fault kind `{other}`"));
            return;
        }
    }
    if let Some(t) = zero_warn {
        c.warn_at(
            diag::W_ZERO_PROBABILITY,
            t,
            format!("fault `{}` armed with probability 0 is a no-op", kind.text),
        );
    }
    p.seen_faults.push(kind.text.to_string());
}

fn parse_expect(p: &mut Parser, c: &mut Cursor<'_>) {
    let Some(kind) = c.next("expectation") else { return };
    let expect = match kind.text {
        "conservation" => Expect::Conservation,
        "residue_clean" => Expect::ResidueClean,
        "delivered_all" => Expect::DeliveredAll,
        "delivered_at_least" => {
            let Some((n, _)) = c.int("delivered_at_least count") else { return };
            Expect::DeliveredAtLeast(n)
        }
        "max_lost_frames" => {
            let Some((n, _)) = c.int("max_lost_frames budget") else { return };
            Expect::MaxLostFrames(n)
        }
        other => {
            c.err_at(diag::E_UNKNOWN_EXPECT, kind, format!("unknown expectation `{other}`"));
            return;
        }
    };
    if c.finish().is_none() {
        return;
    }
    p.scene.expects.push(expect);
}
