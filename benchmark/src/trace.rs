//! In-memory span recorder for the traced run.
//!
//! Spans are opened and closed only by benchmark code, around calls into
//! a layer's public entry points; nothing inside the product crates is
//! instrumented. A span covers a whole batch of calls (a chunk, an
//! `Appliance::step`, a replay of ≥ 1 000 calls), never a single cell,
//! so the two clock reads stay well under 1 % of what they bracket.
//! Everything is kept in memory and written out once, at exit.

use atm_fddi_gateway::mgmt::json::Json;
use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone)]
pub struct Span {
    /// Index of the span that was open when this one opened.
    pub parent: Option<u32>,
    /// Layer name (crate/module path, e.g. `phy.appliance.step`).
    pub name: &'static str,
    /// Nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// Nanoseconds since the tracer was created; 0 while open.
    pub end_ns: u64,
    /// Timed chunk the span belongs to, when inside one.
    pub chunk: Option<u32>,
}

/// Handle returned by [`Tracer::open`].
#[derive(Debug, Clone, Copy)]
pub struct SpanId(u32);

/// The recorder.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
    chunk: Option<u32>,
}

impl Tracer {
    /// An empty recorder; span times count from now.
    pub fn new() -> Tracer {
        Tracer { origin: Instant::now(), spans: Vec::new(), stack: Vec::new(), chunk: None }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Tag spans opened from now on with a chunk index (or none).
    pub fn set_chunk(&mut self, chunk: Option<u32>) {
        self.chunk = chunk;
    }

    /// Open a span under whichever span is currently open.
    pub fn open(&mut self, name: &'static str) -> SpanId {
        let id = self.spans.len() as u32;
        let parent = self.stack.last().copied();
        let start_ns = self.now_ns();
        self.spans.push(Span { parent, name, start_ns, end_ns: 0, chunk: self.chunk });
        self.stack.push(id);
        SpanId(id)
    }

    /// Close `id`, which must be the innermost open span.
    pub fn close(&mut self, id: SpanId) {
        let top = self.stack.pop();
        assert_eq!(top, Some(id.0), "spans close innermost-first");
        self.spans[id.0 as usize].end_ns = self.now_ns();
    }

    /// Number of spans recorded.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Total duration and self time (duration minus the part covered by
    /// direct children) per span name, in nanoseconds.
    pub fn totals_by_name(&self) -> BTreeMap<&'static str, (u64, u64, u64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p as usize] += s.end_ns.saturating_sub(s.start_ns);
            }
        }
        let mut by_name: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let dur = s.end_ns.saturating_sub(s.start_ns);
            let e = by_name.entry(s.name).or_insert((0, 0, 0));
            e.0 += 1;
            e.1 += dur;
            e.2 += dur.saturating_sub(child_ns[i]);
        }
        by_name
    }

    /// The trace document: every span plus per-name totals.
    pub fn to_json(&self, workload: &str) -> Json {
        let mut spans = Vec::with_capacity(self.spans.len());
        for (i, s) in self.spans.iter().enumerate() {
            let mut o = Json::obj();
            o.set("id", Json::U64(i as u64));
            o.set("parent", s.parent.map_or(Json::Null, |p| Json::U64(u64::from(p))));
            o.set("name", Json::Str(s.name.to_string()));
            o.set("start_ns", Json::U64(s.start_ns));
            o.set("end_ns", Json::U64(s.end_ns));
            o.set("workload", Json::Str(workload.to_string()));
            o.set("chunk", s.chunk.map_or(Json::Null, |c| Json::U64(u64::from(c))));
            spans.push(o);
        }
        let mut totals = Json::obj();
        for (name, (count, total, own)) in self.totals_by_name() {
            let mut o = Json::obj();
            o.set("spans", Json::U64(count));
            o.set("total_ns", Json::U64(total));
            o.set("self_ns", Json::U64(own));
            totals.set(name, o);
        }
        let mut doc = Json::obj();
        doc.set("format", Json::Str("gw-benchmark-trace/1".into()));
        doc.set("workload", Json::Str(workload.to_string()));
        doc.set("self_time_by_name", totals);
        doc.set("spans", Json::Arr(spans));
        doc
    }
}

/// Run `f` inside a span when a tracer is present; just run it otherwise
/// (the untraced run takes this path, with no clock read at all).
pub fn in_span<R>(
    tracer: &mut Option<&mut Tracer>,
    name: &'static str,
    f: impl FnOnce() -> R,
) -> R {
    match tracer.as_deref_mut() {
        None => f(),
        Some(t) => {
            let id = t.open(name);
            let r = f();
            t.close(id);
            r
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_duration_minus_children() {
        let mut t = Tracer::new();
        let outer = t.open("outer");
        let a = t.open("inner");
        std::thread::sleep(std::time::Duration::from_millis(2));
        t.close(a);
        let b = t.open("inner");
        t.close(b);
        t.close(outer);
        let totals = t.totals_by_name();
        let (n_outer, outer_total, outer_self) = totals["outer"];
        let (n_inner, inner_total, inner_self) = totals["inner"];
        assert_eq!((n_outer, n_inner), (1, 2));
        assert_eq!(inner_total, inner_self, "leaves keep all their time");
        assert_eq!(outer_self, outer_total - inner_total);
        assert!(inner_total >= 2_000_000);
        let doc = t.to_json("w");
        let spans = doc.get("spans").and_then(Json::as_arr).expect("spans");
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].get("parent").and_then(Json::as_u64), Some(0));
    }

    #[test]
    fn untraced_path_runs_the_closure_only() {
        let mut none: Option<&mut Tracer> = None;
        assert_eq!(in_span(&mut none, "x", || 7), 7);
        let mut t = Tracer::new();
        let mut some = Some(&mut t);
        assert_eq!(in_span(&mut some, "x", || 8), 8);
        assert_eq!(t.len(), 1);
    }
}
