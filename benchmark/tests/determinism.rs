//! Same seed, same counts — exactly; another seed, another stream — and
//! the same checks still pass. Drives the built binary the way the driver
//! does (one child process per run), at smoke size.

use std::process::Command;

/// Count metrics that must repeat exactly for a fixed seed and firing count.
const EXACT: [&str; 6] = [
    "runtime.engine.firings",
    "runtime.engine.fired_rank",
    "runtime.exec.flops_per_event",
    "wire_bytes_per_event",
    "wal_bytes_per_event",
    "runtime.checkpoint.rolls",
];

const WORKLOADS: [&str; 4] = [
    "powers_point",
    "ols_batch",
    "cluster_durable",
    "serve_mixed",
];

/// Runs one traced smoke run and returns `(correct, value of each EXACT metric)`.
fn traced_smoke(workload: &str, seed: u64) -> (bool, Vec<String>) {
    let output = Command::new(env!("CARGO_BIN_EXE_linview-benchmark"))
        // The package root is benchmark/; results land in benchmark/out
        // relative to the repository root, as under run.sh.
        .current_dir(concat!(env!("CARGO_MANIFEST_DIR"), "/.."))
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args([
            "--seconds",
            "60",
            "--firings",
            "12",
            "--trace",
            "1",
            "--smoke",
        ])
        .output()
        .expect("benchmark binary runs");
    let stdout = String::from_utf8(output.stdout).expect("utf-8 result line");
    let line = stdout.lines().last().expect("a result line").to_string();
    assert!(output.status.success(), "{workload} seed {seed}: {line}");
    // Pull `"name":{"value":X` out of the one-line result without a parser.
    let values = EXACT
        .iter()
        .map(|name| {
            let key = format!("\"{name}\":{{\"value\":");
            let at = line
                .find(&key)
                .unwrap_or_else(|| panic!("{name} missing from {line}"));
            let rest = &line[at + key.len()..];
            rest[..rest.find(',').expect("unit follows value")].to_string()
        })
        .collect();
    (line.contains("\"correct\":true"), values)
}

#[test]
fn same_seed_repeats_counts_exactly_and_another_seed_changes_the_stream() {
    for workload in WORKLOADS {
        let (ok_a, a) = traced_smoke(workload, 20140622);
        let (ok_b, b) = traced_smoke(workload, 20140622);
        assert!(ok_a && ok_b, "{workload}: a check failed");
        assert_eq!(
            a, b,
            "{workload}: count metrics differ between same-seed runs"
        );

        // The held-out seed: the checks pass all the same, and where the
        // Zipf rows decide how far a batch coalesces, the changed stream
        // shows in the fired rank (rank-1 workloads fold the same FLOPs
        // whatever the rows; `gen`'s unit tests cover the stream itself).
        let (ok_c, c) = traced_smoke(workload, 20140627);
        assert!(ok_c, "{workload}: a check failed on the held-out seed");
        assert_eq!(a[0], c[0], "{workload}: firing count is fixed by --firings");
        if ["ols_batch", "cluster_durable"].contains(&workload) {
            assert_ne!(
                a[1..3],
                c[1..3],
                "{workload}: a different seed left the stream unchanged"
            );
        }
    }
}
