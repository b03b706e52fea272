//! `gw-benchmark compare A.json B.json` — ROADMAP item 1's comparison
//! mode.
//!
//! For every workload and end-to-end metric present in both result
//! documents it prints one verdict, by the rules of the choosing-metrics
//! guide: *worse* when B's median is worse than A's by more than the
//! metric's bound in `BENCHMARK.json`; *unresolved* when A's own
//! run-to-run spread (q1–q3 of its runs, or of its chunks when A has
//! fewer than three runs) is wider than the bound, unless every run of B
//! beats every run of A; *better* when each side has at least five runs,
//! every run of B beats every run of A and the medians differ by more
//! than that spread; *indistinguishable* otherwise. Exact metrics
//! (simulated time, counts) and the snapshot digest compare by equality
//! per seed: *identical* or *different*.

use crate::stats;
use atm_fddi_gateway::mgmt::json::Json;
use std::collections::BTreeMap;
use std::process::ExitCode;

/// Outcome of one comparison.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// B is better than A beyond A's spread, on every run.
    Better,
    /// B's median is worse than A's by more than the bound.
    Worse,
    /// Neither of the above, and A's spread is within the bound.
    Indistinguishable,
    /// A's spread is wider than the bound: the data cannot say.
    Unresolved,
    /// Exact metric: the same on every common seed.
    Identical,
    /// Exact metric: differs on some common seed.
    Different,
}

impl Verdict {
    fn word(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Worse => "worse",
            Verdict::Indistinguishable => "indistinguishable",
            Verdict::Unresolved => "unresolved",
            Verdict::Identical => "identical",
            Verdict::Different => "DIFFERENT",
        }
    }
}

/// Runs each side needs before *better* can be said at all. Three runs
/// of unchanged code all beat three earlier ones one time in twenty, and
/// on a host whose speed drifts over minutes far more often; five
/// against five do so by chance once in 252.
const RUNS_TO_CLAIM: usize = 5;

/// Judge B's runs against A's for a wall-clock metric. `chunk_spread` is
/// the q1–q3 spread inside A's runs, as a share of the median, used when
/// A has too few runs to have a spread of its own.
pub fn judge(a: &[f64], b: &[f64], higher_better: bool, bound: f64, chunk_spread: f64) -> Verdict {
    let sign = if higher_better { 1.0 } else { -1.0 };
    let (med_a, med_b) = (stats::median(a), stats::median(b));
    let spread = if a.len() >= 3 { stats::summarize(a).rel_iqr() } else { chunk_spread };
    let gain = sign * (med_b - med_a) / med_a.abs();
    let b_wins_every_pair = a.len().min(b.len()) >= RUNS_TO_CLAIM
        && b.iter().all(|y| a.iter().all(|x| sign * (y - x) > 0.0));
    if spread > bound {
        return if b_wins_every_pair { Verdict::Better } else { Verdict::Unresolved };
    }
    if gain < -bound {
        Verdict::Worse
    } else if b_wins_every_pair && gain > spread {
        Verdict::Better
    } else {
        Verdict::Indistinguishable
    }
}

/// One seed's fixed-pass results: exact metric → value, and the digest.
type ExactRun = (BTreeMap<String, f64>, String);

/// The end-to-end runs of one document, by workload.
struct Runs {
    /// workload → metric → values, one per run.
    values: BTreeMap<String, BTreeMap<String, Vec<f64>>>,
    /// workload → metric → relative chunk spread of the first run.
    chunk_spread: BTreeMap<String, BTreeMap<String, f64>>,
    /// workload → seed → (exact metric → value, digest).
    exact: BTreeMap<String, BTreeMap<u64, ExactRun>>,
    host: String,
}

fn load(path: &str) -> Result<Runs, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let doc = Json::parse(&text).map_err(|e| format!("{path}: {e:?}"))?;
    let runs = doc
        .get("runs")
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("{path}: not a gw-benchmark result document"))?;
    let mut out = Runs {
        values: BTreeMap::new(),
        chunk_spread: BTreeMap::new(),
        exact: BTreeMap::new(),
        host: doc.get("host").map(Json::render).unwrap_or_default(),
    };
    for run in runs {
        if run.get("trace") == Some(&Json::Bool(true)) {
            continue;
        }
        let workload = run.get("workload").and_then(Json::as_str).unwrap_or("?").to_string();
        let seed = run.get("seed").and_then(Json::as_u64).unwrap_or(0);
        let digest = run.get("snapshot_digest").and_then(Json::as_str).unwrap_or("").to_string();
        let Some(Json::Obj(metrics)) = run.get("metrics") else { continue };
        let per_seed = out.exact.entry(workload.clone()).or_default();
        let slot = per_seed.entry(seed).or_insert_with(|| (BTreeMap::new(), digest));
        if let Some(Json::Obj(exact)) = run.get("exact") {
            for (name, v) in exact {
                if let Some(value) = v.as_f64() {
                    slot.0.insert(name.clone(), value);
                }
            }
        }
        for (name, m) in metrics {
            let Some(value) = m.get("value").and_then(Json::as_f64) else { continue };
            out.values
                .entry(workload.clone())
                .or_default()
                .entry(name.clone())
                .or_default()
                .push(value);
            let quartile = |k: &str| m.get(k).and_then(Json::as_f64);
            if let (Some(q1), Some(q3)) = (quartile("q1"), quartile("q3")) {
                let spreads = out.chunk_spread.entry(workload.clone()).or_default();
                spreads.entry(name.clone()).or_insert((q3 - q1) / value.abs());
            }
        }
    }
    Ok(out)
}

/// `(better, bound)` of every end-to-end metric in `BENCHMARK.json`.
fn bounds() -> Result<BTreeMap<String, (bool, f64)>, String> {
    let candidates = ["BENCHMARK.json", concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json")];
    let text = candidates
        .iter()
        .find_map(|p| std::fs::read_to_string(p).ok())
        .ok_or("BENCHMARK.json not found in the current directory or beside benchmark/")?;
    let doc = Json::parse(&text).map_err(|e| format!("BENCHMARK.json: {e:?}"))?;
    let list =
        doc.get("end_to_end").and_then(Json::as_arr).ok_or("BENCHMARK.json: no end_to_end")?;
    let mut out = BTreeMap::new();
    for m in list {
        let name = m.get("name").and_then(Json::as_str).ok_or("end_to_end entry without name")?;
        let higher = m.get("better").and_then(Json::as_str) == Some("higher");
        let bound =
            m.get("bound").and_then(Json::as_f64).ok_or("end_to_end entry without bound")?;
        out.insert(name.to_string(), (higher, bound));
    }
    Ok(out)
}

/// Compare two result documents; exit 1 when anything is worse or an
/// exact metric differs, 2 when the documents cannot be read.
pub fn run(a_path: &str, b_path: &str) -> ExitCode {
    let loaded = load(a_path).and_then(|a| Ok((a, load(b_path)?, bounds()?)));
    let (a, b, bounds) = match loaded {
        Ok(x) => x,
        Err(e) => {
            eprintln!("gw-benchmark compare: {e}");
            return ExitCode::from(2);
        }
    };
    if a.host != b.host {
        println!("note: A and B were measured on different hosts or revisions:");
        println!("  A: {}\n  B: {}", a.host, b.host);
    }
    let mut bad = false;
    println!("{:<22} {:<26} {:>16} {:>16} {:>8}  verdict", "workload", "metric", "A", "B", "B/A");
    for (workload, metrics) in &a.values {
        let Some(b_metrics) = b.values.get(workload) else { continue };
        for (name, a_values) in metrics {
            let (Some(b_values), Some(&(higher, bound))) = (b_metrics.get(name), bounds.get(name))
            else {
                continue;
            };
            let chunk_spread = a
                .chunk_spread
                .get(workload)
                .and_then(|s| s.get(name))
                .copied()
                .unwrap_or(f64::INFINITY);
            let verdict = judge(a_values, b_values, higher, bound, chunk_spread);
            bad |= verdict == Verdict::Worse;
            let (ma, mb) = (stats::median(a_values), stats::median(b_values));
            println!(
                "{workload:<22} {name:<26} {ma:>16.6} {mb:>16.6} {:>8.4}  {} (n {}/{}, bound {bound})",
                mb / ma,
                verdict.word(),
                a_values.len(),
                b_values.len()
            );
        }
        let (Some(a_exact), Some(b_exact)) = (a.exact.get(workload), b.exact.get(workload)) else {
            continue;
        };
        let mut common = 0;
        let mut verdicts: BTreeMap<&str, Verdict> = BTreeMap::new();
        for (seed, (a_values, a_digest)) in a_exact {
            let Some((b_values, b_digest)) = b_exact.get(seed) else { continue };
            common += 1;
            let same = |v: &mut Verdict, equal: bool| {
                if !equal {
                    *v = Verdict::Different;
                }
            };
            same(
                verdicts.entry("snapshot_digest").or_insert(Verdict::Identical),
                a_digest == b_digest,
            );
            for (name, value) in a_values {
                let equal = b_values.get(name).is_some_and(|v| v.to_bits() == value.to_bits());
                same(verdicts.entry(name).or_insert(Verdict::Identical), equal);
            }
        }
        if common == 0 {
            println!("{workload:<22} exact metrics: unresolved (no seed in common)");
        }
        for (name, verdict) in verdicts {
            bad |= verdict == Verdict::Different;
            println!("{workload:<22} {name:<26} {:>51}  ({common} common seeds)", verdict.word());
        }
    }
    if bad {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_the_bound_and_the_spread_of_a() {
        let a = [100.0, 101.0, 99.0, 100.5, 99.5];
        // Within the bound either way: not a regression, not a gain.
        assert_eq!(judge(&a, &[97.0, 98.0, 96.5], true, 0.10, 0.0), Verdict::Indistinguishable);
        assert_eq!(judge(&a, &[100.2, 99.9, 100.4], true, 0.10, 0.0), Verdict::Indistinguishable);
        // Worse by more than the bound.
        assert_eq!(judge(&a, &[85.0, 86.0, 84.0], true, 0.10, 0.0), Verdict::Worse);
        // Every run better, by more than A's spread — with five runs a
        // side; three lucky ones claim nothing.
        let faster = [110.0, 111.0, 109.0, 112.0, 110.5];
        assert_eq!(judge(&a, &faster, true, 0.10, 0.0), Verdict::Better);
        assert_eq!(judge(&a, &faster[..3], true, 0.10, 0.0), Verdict::Indistinguishable);
        // Lower-is-better flips the sign.
        let lower = [85.0, 86.0, 84.0, 85.5, 84.5];
        assert_eq!(judge(&a, &lower, false, 0.10, 0.0), Verdict::Better);
        assert_eq!(judge(&a, &[115.0, 116.0, 114.0], false, 0.10, 0.0), Verdict::Worse);
    }

    #[test]
    fn a_noisy_baseline_is_unresolved_not_unchanged() {
        let noisy = [80.0, 100.0, 120.0, 90.0, 110.0];
        assert_eq!(judge(&noisy, &[95.0, 105.0, 100.0], true, 0.10, 0.0), Verdict::Unresolved);
        assert_eq!(judge(&noisy, &[70.0, 75.0, 72.0], true, 0.10, 0.0), Verdict::Unresolved);
        // ...unless every run of B beats every run of A.
        let clear = [130.0, 125.0, 140.0, 135.0, 128.0];
        assert_eq!(judge(&noisy, &clear, true, 0.10, 0.0), Verdict::Better);
        // One run per side: the chunk spread stands in for A's spread.
        assert_eq!(judge(&[100.0], &[99.0], true, 0.10, 0.04), Verdict::Indistinguishable);
        assert_eq!(judge(&[100.0], &[99.0], true, 0.10, 0.30), Verdict::Unresolved);
    }
}
