//! The experiment harness: regenerates every figure and quantitative
//! claim of "Design of an ATM-FDDI Gateway" (Kapoor & Parulkar, SIGCOMM
//! '91). See DESIGN.md §3 for the experiment index and EXPERIMENTS.md
//! for recorded output.
//!
//! Usage:
//!   experiments list            — list experiments
//!   experiments all             — run everything
//!   experiments e5 e12 …        — run specific experiments

use gw_bench::experiments;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() || args[0] == "list" {
        println!("available experiments:\n");
        for (id, desc, _) in experiments::registry() {
            println!("  {id:<8} {desc}");
        }
        println!("\nrun with: experiments all  |  experiments <id> [<id>...]");
        return;
    }
    let mut failed = false;
    for id in &args {
        if !experiments::run(id) {
            eprintln!("unknown experiment: {id} (try `experiments list`)");
            failed = true;
        }
    }
    if failed {
        std::process::exit(2);
    }
}
