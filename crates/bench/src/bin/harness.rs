//! Paper-table harness: regenerates the rows of every table and figure in
//! LINVIEW's evaluation section at laptop scale.
//!
//! ```text
//! cargo run -p linview-bench --release --bin harness -- all
//! cargo run -p linview-bench --release --bin harness -- fig3a fig3e
//! cargo run -p linview-bench --release --bin harness -- --quick all
//! ```

use linview_bench::{experiments, Config};

/// Prints `problem` and the registry-generated usage, then exits 2.
fn reject(problem: &str) -> ! {
    let names: Vec<&str> = experiments::REGISTRY.iter().map(|(n, _)| *n).collect();
    eprintln!(
        "{problem}\nusage: harness [--quick] <experiment>...\nexperiments: {} all",
        names.join(" ")
    );
    std::process::exit(2);
}

fn main() {
    // Every argument is resolved before any experiment runs, so a typo
    // costs nothing and never falls back to the full-scale suite.
    let mut cfg = Config::default();
    let mut runs = Vec::new();
    for arg in std::env::args().skip(1) {
        if arg == "--quick" {
            cfg = Config::quick();
        } else if arg.starts_with('-') {
            reject(&format!("unknown flag '{arg}'"));
        } else if let Some(run) = experiments::by_name(&arg) {
            runs.push(run);
        } else {
            reject(&format!("unknown experiment '{arg}'"));
        }
    }
    if runs.is_empty() {
        reject("no experiment named");
    }

    println!(
        "LINVIEW experiment harness (n = {}, k = {}, {} updates per point, medians of {} calls)\n",
        cfg.n, cfg.k, cfg.updates, cfg.samples
    );
    for run in runs {
        for t in run(&cfg) {
            println!("{t}");
        }
    }
}
