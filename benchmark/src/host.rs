//! What a number was measured on: host fingerprint, source revision,
//! peak memory, and the digest used to compare simulated state.

use atm_fddi_gateway::mgmt::json::Json;
use std::path::Path;

fn read_trimmed(path: &str) -> Option<String> {
    std::fs::read_to_string(path).ok().map(|s| s.trim().to_string())
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

fn rustc_version() -> String {
    // `output()` waits for the child, so no process outlives the call.
    std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// The checked-out commit, read straight from `.git` (no `git` process;
/// the acceptance driver's checkout is not a repository at all, and
/// then this is `"unknown"`).
fn git_revision(root: &Path) -> String {
    let head = match std::fs::read_to_string(root.join(".git/HEAD")) {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "unknown".into(),
    };
    match head.strip_prefix("ref: ") {
        None => head,
        Some(reference) => std::fs::read_to_string(root.join(".git").join(reference))
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|_| format!("unresolved {reference}")),
    }
}

/// Host fingerprint carried by every result document.
pub fn fingerprint() -> Json {
    let mut h = Json::obj();
    let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    h.set("cores", Json::U64(cores as u64));
    h.set("cpu_model", Json::Str(cpu_model()));
    h.set("rustc", Json::Str(rustc_version()));
    h.set(
        "governor",
        Json::Str(
            read_trimmed("/sys/devices/system/cpu/cpu0/cpufreq/scaling_governor")
                .unwrap_or_else(|| "unreadable".into()),
        ),
    );
    h.set("os", Json::Str(read_trimmed("/proc/sys/kernel/osrelease").unwrap_or_default()));
    h.set("git_revision", Json::Str(git_revision(Path::new("."))));
    h
}

/// Peak resident set size of this process so far (`VmHWM`), in MB, or
/// `None` where `/proc/self/status` does not say.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// FNV-1a (64-bit) of `bytes`, rendered as 16 hex digits: the digest of
/// a rendered `gw-snapshot/1` document. Two runs of one seed must print
/// the same digest, whatever the host code's speed.
pub fn fnv1a_hex(bytes: &[u8]) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("{h:016x}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_reference_vectors() {
        assert_eq!(fnv1a_hex(b""), "cbf29ce484222325");
        assert_eq!(fnv1a_hex(b"a"), "af63dc4c8601ec8c");
        assert_eq!(fnv1a_hex(b"foobar"), "85944171f73967e8");
    }

    #[test]
    fn fingerprint_names_the_host() {
        let f = fingerprint();
        assert!(f.get("cores").and_then(Json::as_u64).unwrap_or(0) >= 1);
        for key in ["cpu_model", "rustc", "governor", "git_revision"] {
            assert!(f.get(key).and_then(Json::as_str).is_some(), "{key} present");
        }
    }
}
