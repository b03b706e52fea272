//! What a run prints and writes.
//!
//! Three outputs: a human-readable report on standard error (every
//! metric by name with unit, and its dispersion where it has one), the
//! contract line on standard output (one JSON object, last line), and a
//! result document — host fingerprint, seed, revision, snapshot digest,
//! every metric with n/q1/q3/min/max — that `compare` reads.

use crate::host;
use crate::metrics::{END_TO_END, EXACT};
use crate::run::Plan;
use crate::stats::Summary;
use crate::Options;
use atm_fddi_gateway::mgmt::json::Json;
use std::path::Path;

/// One measured metric.
#[derive(Debug, Clone)]
pub struct MetricValue {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// The value: the best chunk's rate or percentile, the fastest
    /// construction, or a count.
    pub value: f64,
    /// Dispersion of the samples behind it, where there are samples.
    pub summary: Option<Summary>,
}

/// Everything one run established.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Traced run.
    pub trace_mode: bool,
    /// Seconds per chunk and chunk count of the plan.
    pub chunk_s: f64,
    /// Timed chunks behind the rate metrics.
    pub chunks: usize,
    /// Oracle verdict: no failed frame and no audit finding.
    pub correct: bool,
    /// Frames handed to a system under test, all passes together.
    pub attempted: u64,
    /// Frames that failed the oracle.
    pub failed: u64,
    /// Frames lost to injected faults under a booked reason.
    pub lost_booked: u64,
    /// Frames compared octet for octet.
    pub checked_in_full: u64,
    /// The metrics of this kind of run, in table order.
    pub metrics: Vec<MetricValue>,
    /// First oracle failures.
    pub failures: Vec<String>,
    /// Conservation, residue and drain findings.
    pub findings: Vec<String>,
    /// FNV-1a digest of the fixed pass's final `gw-snapshot/1`.
    pub snapshot_digest: String,
    /// The fixed pass's exact counts, in [`crate::metrics::EXACT`] order.
    pub exact: Vec<f64>,
    /// The trace document of a traced run.
    pub trace: Option<Json>,
}

impl RunResult {
    /// An empty result for `name` under `options`.
    pub fn new(name: &str, options: &Options, plan: &Plan) -> RunResult {
        RunResult {
            workload: name.to_string(),
            seed: options.seed,
            trace_mode: options.trace,
            chunk_s: plan.chunk_s,
            chunks: 0,
            correct: false,
            attempted: 0,
            failed: 0,
            lost_booked: 0,
            checked_in_full: 0,
            metrics: Vec::new(),
            failures: Vec::new(),
            findings: Vec::new(),
            snapshot_digest: String::new(),
            exact: Vec::new(),
            trace: None,
        }
    }
}

/// The line the acceptance driver reads: exactly `correct`, `attempted`,
/// `failed` and `metrics`, values with all their digits.
pub fn contract_line(r: &RunResult) -> String {
    let mut metrics = Json::obj();
    for m in &r.metrics {
        let mut o = Json::obj();
        o.set("value", Json::F64(m.value));
        o.set("unit", Json::Str(m.unit.to_string()));
        metrics.set(m.name, o);
    }
    let mut doc = Json::obj();
    doc.set("correct", Json::Bool(r.correct));
    doc.set("attempted", Json::U64(r.attempted.max(1)));
    doc.set("failed", Json::U64(r.failed));
    doc.set("metrics", metrics);
    doc.render()
}

/// The report for a person, on standard error.
pub fn print_human(r: &RunResult) {
    eprintln!(
        "== {} seed {} ({}) — single process, one driving thread, closed loop; \
         {} timed chunks of {} s after warm-up; a value is the best chunk's, \
         n/q1/median/q3/min/max are over all of them",
        r.workload,
        r.seed,
        if r.trace_mode {
            "traced run: per-layer metrics"
        } else {
            "tracing off: end-to-end metrics"
        },
        r.chunks,
        r.chunk_s
    );
    if crate::workloads::NOT_IN_MANIFEST.contains(&r.workload.as_str()) {
        eprintln!(
            "  ({} is not listed in BENCHMARK.json and gates no change; src/workloads/mod.rs \
             says why)",
            r.workload
        );
    }
    for m in &r.metrics {
        let mut line = format!("  {:<40} {:>16.6} {:<8}", m.name, m.value, m.unit);
        if let Some(s) = &m.summary {
            line += &format!(
                " n={} q1={:.6} median={:.6} q3={:.6} min={:.6} max={:.6}",
                s.n, s.q1, s.median, s.q3, s.min, s.max
            );
        }
        if let Some(e) = END_TO_END.iter().find(|e| e.name == m.name) {
            line += &format!(" [{} is better; bound {}]", e.better, e.bound);
        }
        eprintln!("{line}");
    }
    for (name, value) in EXACT.iter().zip(&r.exact) {
        eprintln!("  {name:<40} {value:>16.4} (exact for a seed)");
    }
    eprintln!(
        "  oracle: {} frames attempted, {} failed, {} lost under a booked reason, {} compared \
         in full; snapshot digest {}",
        r.attempted, r.failed, r.lost_booked, r.checked_in_full, r.snapshot_digest
    );
    for f in r.failures.iter().chain(&r.findings) {
        eprintln!("  FAILED: {f}");
    }
}

fn run_json(r: &RunResult) -> Json {
    let mut metrics = Json::obj();
    for m in &r.metrics {
        let mut o = Json::obj();
        o.set("value", Json::F64(m.value));
        o.set("unit", Json::Str(m.unit.to_string()));
        if let Some(s) = &m.summary {
            o.set("n", Json::U64(s.n as u64));
            o.set("q1", Json::F64(s.q1));
            o.set("median", Json::F64(s.median));
            o.set("q3", Json::F64(s.q3));
            o.set("min", Json::F64(s.min));
            o.set("max", Json::F64(s.max));
        }
        metrics.set(m.name, o);
    }
    let mut run = Json::obj();
    run.set("workload", Json::Str(r.workload.clone()));
    run.set("seed", Json::U64(r.seed));
    run.set("trace", Json::Bool(r.trace_mode));
    run.set("loop", Json::Str("closed; single process; one driving thread".into()));
    run.set("chunks", Json::U64(r.chunks as u64));
    run.set("chunk_s", Json::F64(r.chunk_s));
    run.set("correct", Json::Bool(r.correct));
    run.set("attempted", Json::U64(r.attempted));
    run.set("failed", Json::U64(r.failed));
    run.set("lost_booked", Json::U64(r.lost_booked));
    run.set("checked_in_full", Json::U64(r.checked_in_full));
    run.set("snapshot_digest", Json::Str(r.snapshot_digest.clone()));
    let mut exact = Json::obj();
    for (name, value) in EXACT.iter().zip(&r.exact) {
        exact.set(name, Json::F64(*value));
    }
    run.set("exact", exact);
    run.set("metrics", metrics);
    run
}

/// A result document holding `runs`.
fn document(runs: Vec<Json>) -> Json {
    let mut doc = Json::obj();
    doc.set("format", Json::Str("gw-benchmark-result/1".into()));
    doc.set("host", host::fingerprint());
    doc.set("runs", Json::Arr(runs));
    doc
}

/// Write the trace (traced runs), the last result, and — with `--doc` —
/// append the run to a result document.
pub fn persist(r: &RunResult, options: &Options) -> std::io::Result<()> {
    if !options.out.is_empty() {
        let out = Path::new(&options.out);
        std::fs::create_dir_all(out)?;
        if let Some(trace) = &r.trace {
            std::fs::write(out.join(format!("trace-{}.json", r.workload)), trace.render())?;
        }
        let kind = if r.trace_mode { "layers" } else { "e2e" };
        std::fs::write(
            out.join(format!("result-{}-{kind}.json", r.workload)),
            document(vec![run_json(r)]).pretty(),
        )?;
    }
    if let Some(path) = &options.doc {
        let mut runs = match std::fs::read_to_string(path) {
            Ok(text) => Json::parse(&text)
                .ok()
                .and_then(|d| d.get("runs").and_then(Json::as_arr).map(<[Json]>::to_vec))
                .ok_or_else(|| std::io::Error::other(format!("{path} is not a result document")))?,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
            Err(e) => return Err(e),
        };
        runs.push(run_json(r));
        std::fs::write(path, document(runs).pretty())?;
    }
    Ok(())
}
