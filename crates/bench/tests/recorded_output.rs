//! The paper-vs-measured record is regenerated, not typed: the fenced
//! block under "## Recorded output" in EXPERIMENTS.md is exactly what
//! `experiments all` prints. To refresh the block, paste the program's
//! output into it.

use std::process::{Command, Output};

fn experiments(arg: &str) -> Output {
    Command::new(env!("CARGO_BIN_EXE_experiments")).arg(arg).output().expect("experiments runs")
}

/// The text between "```text\n" and the closing fence of the first
/// fenced block after `heading`.
fn fenced_block<'a>(doc: &'a str, heading: &str) -> &'a str {
    let after = &doc[doc.find(heading).expect("heading present")..];
    let open = "```text\n";
    let body = &after[after.find(open).expect("fenced block opens") + open.len()..];
    &body[..body.find("\n```\n").expect("fenced block closes") + 1]
}

#[test]
fn experiments_all_prints_the_recorded_block_and_list_names_what_ran() {
    let all = experiments("all");
    assert!(all.status.success(), "experiments all: {}", all.status);
    assert!(all.stderr.is_empty(), "stderr: {}", String::from_utf8_lossy(&all.stderr));
    let printed = String::from_utf8(all.stdout).expect("utf-8 output");

    let doc = include_str!("../../../EXPERIMENTS.md");
    let recorded = fenced_block(doc, "\n## Recorded output\n");
    if printed != recorded {
        match printed.lines().zip(recorded.lines()).enumerate().find(|(_, (p, r))| p != r) {
            Some((i, (p, r))) => panic!(
                "output line {} differs from EXPERIMENTS.md\n printed: {p}\nrecorded: {r}",
                i + 1
            ),
            None => panic!(
                "one is a prefix of the other: {} lines printed, {} recorded",
                printed.lines().count(),
                recorded.lines().count()
            ),
        }
    }

    // The index cannot drift from the registry: `list` names exactly
    // the ids whose banners `all` printed, in order.
    let ran: Vec<&str> = printed
        .lines()
        .filter_map(|l| l.strip_prefix("############ "))
        .map(|l| l.split(':').next().unwrap())
        .collect();
    let list = experiments("list");
    assert!(list.status.success() && list.stderr.is_empty());
    let listed = String::from_utf8(list.stdout).expect("utf-8 output");
    let listed: Vec<&str> = listed
        .lines()
        .filter_map(|l| l.strip_prefix("  "))
        .map(|l| l.split_whitespace().next().unwrap())
        .collect();
    assert_eq!(listed, ran);
}
