//! The `harness` binary's argument handling: a typo anywhere on the
//! command line must exit 2 before any experiment runs.

use linview_bench::experiments::REGISTRY;
use std::process::Command;

/// Runs `harness args`, asserts exit 2 with an empty stdout, and returns
/// what it printed to stderr.
fn assert_rejected(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_harness"))
        .args(args)
        .output()
        .expect("harness binary runs");
    assert_eq!(out.status.code(), Some(2), "harness {args:?} exit code");
    assert!(
        out.stdout.is_empty(),
        "harness {args:?} printed to stdout: {}",
        String::from_utf8_lossy(&out.stdout)
    );
    String::from_utf8(out.stderr).expect("usage is UTF-8")
}

#[test]
fn no_arguments_prints_usage_listing_each_experiment_once() {
    let usage = assert_rejected(&[]);
    for name in REGISTRY.iter().map(|(name, _)| *name).chain(["all"]) {
        let mentions = usage.split_whitespace().filter(|w| *w == name).count();
        assert_eq!(mentions, 1, "usage mentions of {name}: {usage}");
    }
}

#[test]
fn unknown_flag_is_rejected_instead_of_running_full_scale() {
    let err = assert_rejected(&["--quik", "all"]);
    assert!(err.contains("unknown flag '--quik'"), "{err}");
}

#[test]
fn every_name_is_resolved_before_anything_runs() {
    let err = assert_rejected(&["fig3a", "fig9z"]);
    assert!(err.contains("unknown experiment 'fig9z'"), "{err}");
}
