//! No-lock discipline: the cell path owns its state and never
//! arbitrates for it.
//!
//! The paper's gateway gets its concurrency from structure — each
//! engine owns its tables outright and hands work to the next through a
//! dedicated FIFO — never from arbitration. The software cell path
//! copies that: the gateway exclusively owns its slot tables, buffer
//! pools, and timer wheels. A `Mutex` appearing in that code means
//! ownership got shared, which is the design error this rule makes
//! un-mergeable. Library channels are banned for the same reason: they
//! hide an allocation and a lock (or a futex wait) inside every
//! hand-off.
//!
//! The rule covers every critical-path file (designated or marked),
//! and — unlike `hot-path` — admits no setup-path exemptions: locks
//! are not a per-connection convenience, they change the concurrency
//! model.

use crate::rules::hotpath::find_bounded;
use crate::strip;
use crate::Diagnostic;

/// Banned synchronisation constructs: `(needle, why)`, matched with
/// identifier boundaries against stripped, test-blanked source.
pub(crate) const BANNED: &[(&str, &str)] = &[
    ("Mutex", "blocking lock; the cell path owns its tables outright and never arbitrates"),
    ("RwLock", "blocking lock; the cell path owns its tables outright and never arbitrates"),
    ("Condvar", "blocking rendezvous; stages drain FIFOs, they never sleep on a lock"),
    (".lock(", "lock acquisition; the cell path shares no state to lock"),
    ("mpsc", "library channel; hides an allocation and a lock inside every hand-off"),
    ("crossbeam", "external queue; hides an allocation and a lock inside every hand-off"),
];

/// Scan one critical-path file. `prepared` is stripped, test-blanked
/// source.
pub fn check(rel: &str, prepared: &str) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    for &(needle, why) in BANNED {
        let mut from = 0usize;
        while let Some(pos) = find_bounded(prepared.as_bytes(), needle, from) {
            diags.push(Diagnostic {
                file: rel.to_string(),
                line: strip::line_of(prepared, pos),
                rule: "no-lock",
                message: format!("`{needle}` in hot-path code: {why}"),
            });
            from = pos + needle.len();
        }
    }
    diags
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::strip::{blank_cfg_test, strip};

    fn run(src: &str) -> Vec<Diagnostic> {
        check("x.rs", &blank_cfg_test(&strip(src)))
    }

    #[test]
    fn flags_each_banned_construct() {
        let diags = run(
            "use std::sync::{Mutex, RwLock, Condvar, mpsc};\nfn f(m: &Mutex<u8>) -> u8 { match m.lock() { Ok(g) => *g, Err(_) => 0 } }\n",
        );
        for needle in ["`Mutex`", "`RwLock`", "`Condvar`", "`mpsc`", "`.lock(`"] {
            assert!(
                diags.iter().any(|d| d.message.contains(needle)),
                "missing {needle}: {diags:?}"
            );
        }
    }

    #[test]
    fn decoys_and_lookalikes_stay_dark() {
        let diags = run(
            "// a Mutex in a comment\nlet s = \"RwLock\";\nstruct MutexStats; fn unlock2(x: MutexStats) {}\n#[cfg(test)]\nmod tests { use std::sync::Mutex; }\n",
        );
        assert!(diags.is_empty(), "{diags:?}");
    }
}
