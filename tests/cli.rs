//! Integration tests for the `linview` command-line compiler.

use std::process::Command;

fn linview(args: &[&str]) -> (bool, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_linview"))
        .args(args)
        .output()
        .expect("binary runs");
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn compiles_powers_program_to_trigger() {
    let (ok, stdout, _) = linview(&["--dims", "A=8x8", "--program", "B := A * A; C := B * B;"]);
    assert!(ok);
    assert!(stdout.contains("ON UPDATE A BY (dU_A, dV_A):"));
    assert!(stdout.contains("C += U_C V_C';"));
}

#[test]
fn emits_all_backends() {
    let (ok, stdout, _) = linview(&[
        "--dims",
        "A=8x8",
        "--program",
        "B := A * A;",
        "--emit",
        "all",
    ]);
    assert!(ok);
    assert!(stdout.contains("ON UPDATE A"));
    assert!(stdout.contains("function [A, B] = on_update_A"));
    assert!(stdout.contains("object LinviewTriggers {"));
    assert!(stdout.contains("flops"));
}

#[test]
fn ols_with_inverse_compiles_via_cli() {
    let (ok, stdout, _) = linview(&[
        "--dims",
        "X=16x4,Y=16x1",
        "--inputs",
        "X",
        "--program",
        "beta := inv(X' * X) * X' * Y;",
        "--emit",
        "trigger",
    ]);
    assert!(ok, "stderr: {stdout}");
    assert!(stdout.contains("sherman_morrison"));
    assert!(stdout.contains("beta += U_beta V_beta';"));
}

#[test]
fn rank_and_factor_flags_are_honored() {
    // --no-factor triples the first statement's block rank: 3 columns.
    let (ok, stdout, _) = linview(&[
        "--dims",
        "A=8x8",
        "--program",
        "B := A * A;",
        "--no-factor",
        "--no-optimize",
    ]);
    assert!(ok);
    // Unfactored U_B has three stacked blocks.
    let u_line = stdout
        .lines()
        .find(|l| l.trim_start().starts_with("U_B :="))
        .expect("U_B assignment present");
    assert_eq!(
        u_line.matches('|').count(),
        2,
        "expected 3 blocks: {u_line}"
    );
}

#[test]
fn bad_usage_fails_with_diagnostics() {
    let (ok, _, stderr) = linview(&["--program", "B := A;"]);
    assert!(!ok);
    assert!(stderr.contains("--dims is required"));

    let (ok2, _, stderr2) = linview(&["--dims", "A=8x8"]);
    assert!(!ok2);
    assert!(stderr2.contains("--program / --file"));

    let (ok3, _, stderr3) = linview(&["--dims", "A=notashape", "--program", "B := A;"]);
    assert!(!ok3);
    assert!(stderr3.contains("bad shape") || stderr3.contains("bad dim spec"));
}

#[test]
fn parse_errors_are_reported() {
    let (ok, _, stderr) = linview(&["--dims", "A=8x8", "--program", "B := A **;"]);
    assert!(!ok);
    assert!(stderr.contains("parse error"));
}

#[test]
fn help_prints_usage() {
    let (ok, stdout, _) = linview(&["--help"]);
    assert!(ok);
    assert!(stdout.contains("USAGE:"));
    // The --gemm line is built from the kernel list the parser accepts.
    assert!(
        stdout.contains("dense GEMM kernel: naive | packed | packed-fma\n"),
        "{stdout}"
    );
}

#[test]
fn analyze_flag_prints_cost_report() {
    let (ok, stdout, _) = linview(&[
        "--dims",
        "A=512x512",
        "--program",
        "B := A * A; C := B * B;",
        "--analyze",
    ]);
    assert!(ok);
    assert!(stdout.contains("REEVAL:"));
    assert!(stdout.contains("INCR:"));
    assert!(stdout.contains("predicted speedup"));
}

#[test]
fn joint_flag_emits_single_multi_input_trigger() {
    let (ok, stdout, _) = linview(&[
        "--dims",
        "A=8x8,B=8x8",
        "--program",
        "C := A * B;",
        "--joint",
    ]);
    assert!(ok);
    // Example 4.5's delta, as one trigger over both inputs.
    assert!(stdout.contains("ON UPDATE A, B BY (dU_A, dV_A), (dU_B, dV_B):"));
    assert!(stdout.contains("U_C := [ dU_A | A dU_B + dU_A (dV_A' dU_B) ];"));
    assert!(stdout.contains("C += U_C V_C';"));
    // And it is ONE trigger, not two.
    assert_eq!(stdout.matches("ON UPDATE").count(), 1);
}

#[test]
fn joint_flag_rejects_codegen_backends() {
    let (ok, _, stderr) = linview(&[
        "--dims",
        "A=8x8,B=8x8",
        "--program",
        "C := A * B;",
        "--joint",
        "--emit",
        "octave",
    ]);
    assert!(!ok);
    assert!(stderr.contains("--joint"));
}

#[test]
fn emits_numpy_backend() {
    let (ok, stdout, _) = linview(&[
        "--dims",
        "A=8x8",
        "--program",
        "B := A * A;",
        "--emit",
        "numpy",
    ]);
    assert!(ok);
    assert!(stdout.contains("import numpy as np"));
    assert!(stdout.contains("def on_update_A(A, B, dU_A, dV_A):"));
    assert!(stdout.contains("B += U_B @ V_B.T"));
}

#[test]
fn file_input_works() {
    let dir = std::env::temp_dir();
    let path = dir.join("linview_cli_test_prog.lv");
    std::fs::write(&path, "B := A * A;\n").unwrap();
    let (ok, stdout, _) = linview(&["--dims", "A=8x8", "--file", path.to_str().unwrap()]);
    assert!(ok);
    assert!(stdout.contains("ON UPDATE A"));
    let _ = std::fs::remove_file(&path);
}

#[test]
fn lint_accepts_well_formed_programs() {
    let (ok, stdout, _) = linview(&[
        "lint",
        "--dims",
        "A=16x16",
        "--program",
        "B := A * A; C := B * B;",
    ]);
    assert!(ok, "well-formed program must lint clean: {stdout}");
    assert!(stdout.contains("0 error(s)"));
    assert!(stdout.contains("verified stage(s)"));
    assert!(stdout.contains("flops/firing"));
}

#[test]
fn lint_rejects_ill_formed_program_with_structured_diagnostic() {
    // Seeded ill-formed program: dimension-inconsistent entrywise sum.
    let (ok, stdout, _) = linview(&["lint", "--dims", "A=4x4,B=5x5", "--program", "C := A + B;"]);
    assert!(!ok, "ill-formed program must exit nonzero");
    assert!(
        stdout.contains("error[shape]"),
        "missing structured diagnostic: {stdout}"
    );
    assert!(stdout.contains("1 error(s)"));
}

#[test]
fn lint_reports_parse_errors_structurally() {
    let (ok, stdout, _) = linview(&["lint", "--dims", "A=8x8", "--program", "B := A **;"]);
    assert!(!ok);
    assert!(stdout.contains("error[parse]"), "{stdout}");
}

#[test]
fn lint_runs_all_shipped_apps() {
    let (ok, stdout, _) = linview(&["lint", "--app", "all"]);
    assert!(ok, "shipped apps must lint without errors: {stdout}");
    for app in ["powers", "sums", "ols", "reach", "pagerank-step"] {
        assert!(
            stdout.contains(&format!("-- lint: {app} --")),
            "{app} missing"
        );
    }
    assert!(stdout.contains("5 program(s), 0 error(s)"));
}

#[test]
fn lint_deny_warnings_escalates() {
    // pagerank-step at n=16 legitimately prices worse than re-evaluation
    // (Table 2), which is a warning — fatal only under --deny-warnings.
    let (ok, stdout, _) = linview(&["lint", "--app", "pagerank-step"]);
    assert!(ok, "warnings alone must not fail: {stdout}");
    let (ok, stdout, _) = linview(&["lint", "--app", "pagerank-step", "--deny-warnings"]);
    assert!(!ok, "--deny-warnings must escalate: {stdout}");
    assert!(stdout.contains("warning[cost]"), "{stdout}");
}

#[test]
fn lint_rejects_unknown_flags_and_apps() {
    let (ok, _, stderr) = linview(&["lint", "--app", "nonesuch"]);
    assert!(!ok);
    assert!(stderr.contains("unknown --app"));
    let (ok, _, stderr) = linview(&["lint", "--bogus"]);
    assert!(!ok);
    assert!(stderr.contains("bogus"));
}

#[test]
fn emit_analysis_prints_analyzer_report() {
    let (ok, stdout, _) = linview(&[
        "--dims",
        "A=32x32",
        "--program",
        "B := A * A; C := B * B;",
        "--emit",
        "analysis",
    ]);
    assert!(ok, "{stdout}");
    assert!(stdout.contains("static analysis"), "{stdout}");
    assert!(stdout.contains("verified stage(s)"));
    assert!(stdout.contains("cost terms:"));
}

#[test]
fn engine_subcommand_cross_checks_every_backend_by_default() {
    let (ok, stdout, stderr) = linview(&["engine", "--n", "24", "--events", "16", "--batch", "4"]);
    assert!(ok, "engine subcommand failed: {stderr}");
    assert!(stdout.contains("backend local"));
    assert!(stdout.contains("backend threaded"));
    assert!(stdout.contains("backend socket"));
    assert!(stdout.contains("firings"));
    // Batching 16 events by 4 must fire 4 triggers per backend.
    assert!(stdout.contains("16 events -> 4 firings"));
    // Shared execution path: the backends agree exactly.
    assert!(stdout.contains("backend divergence on D (local vs threaded): 0.00e0"));
    assert!(stdout.contains("backend divergence on D (local vs socket): 0.00e0"));
}

#[test]
fn engine_subcommand_rejects_bad_flags() {
    for bad in ["quantum", "dist", "both"] {
        let (ok, _, stderr) = linview(&["engine", "--backend", bad]);
        assert!(!ok, "--backend {bad} was accepted");
        assert!(
            stderr.contains(&format!(
                "unknown --backend '{bad}' (want local|threaded|socket|all)"
            )),
            "missing diagnostic for {bad}: {stderr}"
        );
    }
    let (ok, _, stderr) = linview(&["engine", "--bogus"]);
    assert!(!ok);
    assert!(stderr.contains("bogus"));
}

/// Like [`linview`] but with extra environment variables set on the child.
fn linview_env(args: &[&str], env: &[(&str, &str)]) -> (bool, String, String) {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_linview"));
    cmd.args(args);
    for (k, v) in env {
        cmd.env(k, v);
    }
    let out = cmd.output().expect("binary runs");
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn engine_gemm_flags_pin_kernel_and_threads() {
    let (ok, stdout, stderr) = linview(&[
        "engine",
        "--n",
        "16",
        "--events",
        "4",
        "--batch",
        "2",
        "--backend",
        "local",
        "--gemm",
        "naive",
        "--threads",
        "1",
    ]);
    assert!(ok, "engine with --gemm failed: {stderr}");
    assert!(
        stdout.contains("gemm: kernel naive, 1 thread budget"),
        "missing kernel report: {stdout}"
    );
}

#[test]
fn gemm_env_overrides_select_kernel_and_threads() {
    let (ok, stdout, stderr) = linview_env(
        &["engine", "--n", "16", "--events", "4", "--backend", "local"],
        &[("LINVIEW_GEMM", "naive"), ("LINVIEW_THREADS", "2")],
    );
    assert!(ok, "engine under env overrides failed: {stderr}");
    assert!(
        stdout.contains("gemm: kernel naive, 2 thread budget"),
        "env overrides not honored: {stdout}"
    );
    // The CLI flag outranks the environment.
    let (ok, stdout, _) = linview_env(
        &[
            "engine",
            "--n",
            "16",
            "--events",
            "4",
            "--backend",
            "local",
            "--gemm",
            "packed",
        ],
        &[("LINVIEW_GEMM", "naive")],
    );
    assert!(ok);
    assert!(stdout.contains("gemm: kernel packed"), "{stdout}");
}

#[test]
fn engine_results_are_identical_across_gemm_thread_budgets() {
    // Determinism end to end: the same engine run under different thread
    // budgets prints identical reports (timings aside, D is checked
    // in-process against re-derived views on every backend).
    let run = |threads: &str| {
        let (ok, stdout, stderr) = linview(&[
            "engine",
            "--n",
            "32",
            "--events",
            "8",
            "--backend",
            "all",
            "--threads",
            threads,
        ]);
        assert!(ok, "engine --threads {threads} failed: {stderr}");
        assert!(stdout.contains("backend divergence on D (local vs threaded): 0.00e0"));
    };
    run("1");
    run("3");
}

#[test]
fn rejects_bad_gemm_flags() {
    let (ok, _, stderr) = linview(&["engine", "--gemm", "turbo"]);
    assert!(!ok);
    assert!(stderr.contains("bad --gemm"));
    // The typed parse error lists every valid spelling.
    assert!(
        stderr.contains("unknown GEMM kernel") && stderr.contains("packed-fma"),
        "error must name the kernel list: {stderr}"
    );
    // Kernels that no longer exist are typed errors listing exactly the
    // three that do.
    for removed in ["blocked", "strassen"] {
        let (ok, _, stderr) = linview(&["engine", "--gemm", removed]);
        assert!(!ok, "--gemm {removed} was accepted");
        assert!(
            stderr.contains("bad --gemm")
                && stderr.contains(&format!("unknown GEMM kernel \"{removed}\""))
                && stderr.contains("(valid: naive, packed, packed-fma)"),
            "--gemm {removed}: {stderr}"
        );
    }
    let (ok, _, stderr) = linview(&["engine", "--threads", "0"]);
    assert!(!ok);
    assert!(stderr.contains("--threads"));
    let (ok, _, stderr) = linview(&[
        "--dims",
        "A=8x8",
        "--program",
        "B := A * A;",
        "--gemm",
        "warp",
    ]);
    assert!(!ok);
    assert!(stderr.contains("bad --gemm"));
}

#[test]
fn bad_env_kernel_warns_at_startup_and_falls_back() {
    // A typo'd LINVIEW_GEMM must not silently benchmark the default
    // kernel: the run still succeeds, but says what it ignored.
    let (ok, stdout, stderr) = linview_env(
        &["engine", "--n", "16", "--events", "4", "--backend", "local"],
        &[("LINVIEW_GEMM", "turbo")],
    );
    assert!(ok, "engine under a bad LINVIEW_GEMM failed: {stderr}");
    assert!(
        stderr.contains("warning: ignoring LINVIEW_GEMM") && stderr.contains("turbo"),
        "missing startup warning: {stderr}"
    );
    assert!(
        stdout.contains("gemm: kernel packed"),
        "must fall back to the default kernel: {stdout}"
    );
    // So does a kernel that no longer exists.
    let (ok, stdout, stderr) = linview_env(
        &["engine", "--n", "16", "--events", "4", "--backend", "local"],
        &[("LINVIEW_GEMM", "strassen")],
    );
    assert!(ok, "engine under LINVIEW_GEMM=strassen failed: {stderr}");
    assert!(
        stderr.contains("warning: ignoring LINVIEW_GEMM") && stderr.contains("strassen"),
        "missing startup warning: {stderr}"
    );
    assert!(stdout.contains("gemm: kernel packed"), "{stdout}");
    // A valid value warns nothing.
    let (ok, _, stderr) = linview_env(
        &["engine", "--n", "16", "--events", "4", "--backend", "local"],
        &[("LINVIEW_GEMM", "naive")],
    );
    assert!(ok);
    assert!(
        !stderr.contains("warning: ignoring LINVIEW_GEMM"),
        "spurious warning: {stderr}"
    );
}

#[test]
fn packed_fma_is_selectable_by_flag_and_env() {
    let (ok, stdout, stderr) = linview(&[
        "engine",
        "--n",
        "16",
        "--events",
        "4",
        "--backend",
        "local",
        "--gemm",
        "packed-fma",
    ]);
    assert!(ok, "engine with --gemm packed-fma failed: {stderr}");
    assert!(
        stdout.contains("gemm: kernel packed-fma"),
        "missing kernel report: {stdout}"
    );
    let (ok, stdout, stderr) = linview_env(
        &["engine", "--n", "16", "--events", "4", "--backend", "local"],
        &[("LINVIEW_GEMM", "packed-fma")],
    );
    assert!(ok, "engine under LINVIEW_GEMM=packed-fma failed: {stderr}");
    assert!(stdout.contains("gemm: kernel packed-fma"), "{stdout}");
}

#[test]
fn compile_mode_accepts_gemm_flags() {
    let (ok, stdout, _) = linview(&[
        "--dims",
        "A=8x8",
        "--program",
        "B := A * A;",
        "--gemm",
        "packed-fma",
        "--threads",
        "2",
    ]);
    assert!(ok);
    assert!(stdout.contains("ON UPDATE A"));
}

#[test]
fn cluster_errors_render_a_caused_by_chain() {
    // 3 workers cannot form a square grid: the CLI must exit nonzero with
    // the full error chain, not panic inside the cluster constructor.
    let (ok, _, stderr) = linview(&[
        "engine",
        "--n",
        "8",
        "--events",
        "4",
        "--backend",
        "threaded",
        "--workers",
        "3",
    ]);
    assert!(!ok);
    assert!(
        stderr.contains("cluster layout error"),
        "missing top-level error: {stderr}"
    );
    assert!(
        stderr.contains("caused by:") && stderr.contains("not a perfect square"),
        "missing caused-by chain: {stderr}"
    );
}

#[test]
fn engine_recovers_a_killed_worker_with_zero_divergence() {
    // The full fault-tolerance drill through the CLI: every backend from
    // the same seed, a worker killed mid-stream on the threaded and socket
    // legs, checkpoint/replay recovery — and still bit-identical results.
    let (ok, stdout, stderr) = linview(&[
        "engine",
        "--n",
        "12",
        "--events",
        "12",
        "--batch",
        "3",
        "--workers",
        "4",
        "--backend",
        "all",
        "--checkpoint-every",
        "2",
        "--kill-worker-after",
        "6",
    ]);
    assert!(ok, "engine recovery run failed: {stderr}");
    for pair in ["local vs threaded", "local vs socket"] {
        assert!(
            stdout.contains(&format!("backend divergence on D ({pair}): 0.00e0")),
            "nonzero divergence for {pair}: {stdout}"
        );
    }
    assert!(
        stdout.contains("recovery:") && stdout.contains("1 recoveries"),
        "missing recovery report: {stdout}"
    );
}

#[test]
fn kill_injection_requires_checkpointing() {
    let (ok, _, stderr) = linview(&[
        "engine",
        "--backend",
        "threaded",
        "--kill-worker-after",
        "4",
    ]);
    assert!(!ok);
    assert!(
        stderr.contains("--checkpoint-every"),
        "missing flag diagnostic: {stderr}"
    );
}

#[test]
fn worker_subcommand_requires_a_listen_address() {
    let (ok, _, stderr) = linview(&["worker"]);
    assert!(!ok);
    assert!(stderr.contains("--listen"), "missing diagnostic: {stderr}");
}

#[test]
fn serve_cluster_rejects_non_grid_worker_counts() {
    let (ok, _, stderr) = linview(&["serve-cluster", "--workers", "5"]);
    assert!(!ok);
    assert!(
        stderr.contains("caused by:") || stderr.contains("perfect square"),
        "missing cluster diagnostic: {stderr}"
    );
}

#[test]
fn bad_env_thread_budget_warns_at_startup_and_falls_back() {
    // LINVIEW_THREADS=0 (or garbage) must not silently pick some other
    // budget: the run still succeeds, but says what it ignored — the
    // same contract as LINVIEW_GEMM hardening.
    for bad in ["0", "lots", "-3"] {
        let (ok, _, stderr) = linview_env(
            &["engine", "--n", "16", "--events", "4", "--backend", "local"],
            &[("LINVIEW_THREADS", bad)],
        );
        assert!(ok, "engine under LINVIEW_THREADS={bad} failed: {stderr}");
        assert!(
            stderr.contains("warning: ignoring LINVIEW_THREADS")
                && stderr.contains("invalid thread budget"),
            "missing startup warning for {bad:?}: {stderr}"
        );
    }
    // A valid value warns nothing.
    let (ok, _, stderr) = linview_env(
        &["engine", "--n", "16", "--events", "4", "--backend", "local"],
        &[("LINVIEW_THREADS", "2")],
    );
    assert!(ok);
    assert!(
        !stderr.contains("warning: ignoring LINVIEW_THREADS"),
        "spurious warning: {stderr}"
    );
}

#[test]
fn serve_reports_reads_staleness_latency_and_zero_divergence() {
    let (ok, stdout, stderr) = linview(&[
        "serve",
        "--n",
        "16",
        "--events",
        "48",
        "--batch",
        "4",
        "--readers",
        "2",
        "--publish-every",
        "2",
        "--pace-ms",
        "1",
    ]);
    assert!(ok, "serve failed: {stderr}");
    assert!(
        stdout.contains("serve divergence (snapshot vs live, 4 views): 0.00e0"),
        "missing zero-divergence line: {stdout}"
    );
    assert!(
        stdout.contains("read latency: p50"),
        "missing latency report: {stdout}"
    );
    assert!(
        stdout.contains("reads/s") && !stdout.contains("(s), 0 reads"),
        "readers made no progress: {stdout}"
    );
    assert!(
        stdout.contains("staleness max"),
        "missing staleness report: {stdout}"
    );
}

#[test]
fn serve_rejects_bad_flags() {
    let (ok, _, stderr) = linview(&["serve", "--backend", "dist"]);
    assert!(!ok);
    assert!(stderr.contains("--backend"), "missing diagnostic: {stderr}");
    let (ok, _, stderr) = linview(&["serve", "--readers", "0"]);
    assert!(!ok);
    assert!(stderr.contains("--readers"), "missing diagnostic: {stderr}");
    let (ok, _, stderr) = linview(&["serve", "--bogus"]);
    assert!(!ok);
    assert!(
        stderr.contains("unknown serve flag"),
        "missing diagnostic: {stderr}"
    );
}

#[test]
fn serve_recovers_from_a_torn_wal_directory() {
    let dir = std::env::temp_dir().join(format!("lv-cli-serve-wal-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let dir_flag = dir.to_str().unwrap();
    let base = &[
        "serve",
        "--n",
        "12",
        "--events",
        "24",
        "--batch",
        "4",
        "--readers",
        "1",
        "--wal-dir",
        dir_flag,
    ];
    let (ok, _, stderr) = linview(base);
    assert!(ok, "first serve run failed: {stderr}");

    // Chop 3 bytes off the newest WAL generation: a torn tail.
    let newest = std::fs::read_dir(&dir)
        .unwrap()
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("wal-") && n.ends_with(".bin"))
        })
        .max()
        .expect("a WAL file exists");
    let len = std::fs::metadata(&newest).unwrap().len();
    assert!(len > 3, "WAL too short to tear ({len} bytes)");
    std::fs::OpenOptions::new()
        .write(true)
        .open(&newest)
        .unwrap()
        .set_len(len - 3)
        .unwrap();

    let (ok, stdout, stderr) = linview(base);
    assert!(ok, "serve after torn WAL failed: {stderr}");
    assert!(
        stdout.contains("torn WAL tail byte(s) truncated") && stdout.contains("recovered from"),
        "missing torn-tail recovery report: {stdout}"
    );
    assert!(
        stdout.contains("serve divergence (snapshot vs live, 4 views): 0.00e0"),
        "post-recovery serving diverged: {stdout}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn serve_refuses_a_wal_directory_written_at_another_size() {
    let dir = std::env::temp_dir().join(format!("lv-cli-serve-n-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let dir_flag = dir.to_str().unwrap();
    let serve = |n: &str| {
        let args = [
            "serve",
            "--n",
            n,
            "--events",
            "16",
            "--batch",
            "4",
            "--readers",
            "1",
            "--wal-dir",
            dir_flag,
        ];
        let out = Command::new(env!("CARGO_BIN_EXE_linview"))
            .args(args)
            .output()
            .expect("binary runs");
        (
            out.status.code(),
            String::from_utf8_lossy(&out.stdout).into_owned(),
            String::from_utf8_lossy(&out.stderr).into_owned(),
        )
    };
    let (code, _, stderr) = serve("24");
    assert_eq!(code, Some(0), "first serve run failed: {stderr}");
    let (code, stdout, stderr) = serve("32");
    assert_eq!(code, Some(1), "{stdout}{stderr}");
    assert!(
        stderr.contains("checkpoint does not match the view: 'A' is 24x24 in the snapshot, 32x32"),
        "missing mismatch diagnostic: {stderr}"
    );
    assert!(!stdout.contains("recovered from"), "{stdout}");
    assert!(!stderr.contains("do not conform"), "{stderr}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Like [`linview`] but returns the exit code and stderr.
fn linview_code(args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_linview"))
        .args(args)
        .output()
        .expect("binary runs");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

/// Every mode word with one flag it takes a value for.
const MODES: [(&str, &str); 6] = [
    ("", "--dims"),
    ("lint", "--app"),
    ("engine", "--n"),
    ("serve", "--n"),
    ("worker", "--listen"),
    ("serve-cluster", "--workers"),
];

fn mode_args<'a>(mode: &'a str, rest: &[&'a str]) -> Vec<&'a str> {
    let mut args: Vec<&str> = if mode.is_empty() { vec![] } else { vec![mode] };
    args.extend_from_slice(rest);
    args
}

#[test]
fn every_mode_exits_2_on_unknown_flags_and_missing_values() {
    for (mode, valued) in MODES {
        let (code, stderr) = linview_code(&mode_args(mode, &["--bogus"]));
        assert_eq!(code, Some(2), "{mode} --bogus: {stderr}");
        assert!(
            stderr.contains("unknown") && stderr.contains("--bogus"),
            "{stderr}"
        );
        let (code, stderr) = linview_code(&mode_args(mode, &[valued]));
        assert_eq!(code, Some(2), "{mode} {valued} without a value: {stderr}");
        assert!(
            stderr.contains(&format!("missing value for {valued}")),
            "{stderr}"
        );
        let (code, _) = linview_code(&mode_args(mode, &["--help"]));
        assert_eq!(code, Some(0), "{mode} --help");
    }
}

#[test]
fn hostile_numbers_are_usage_errors_not_panics() {
    for args in [
        &["engine", "--n", "0"][..],
        &["serve", "--n", "0"],
        &["serve", "--publish-every", "0"],
        &["engine", "--zipf", "-1"],
        &["serve", "--zipf", "nan"],
        &[
            "--dims",
            "A=8x8",
            "--program",
            "B := A * A;",
            "--gamma",
            "1.5",
        ],
        &["lint", "--app", "powers", "--gamma", "4"],
        &[
            "--dims",
            "A=8x8",
            "--program",
            "B := A * A;",
            "--emit",
            "bogus",
        ],
    ] {
        let (code, stderr) = linview_code(args);
        assert_eq!(code, Some(2), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    }
}

#[test]
fn run_failures_exit_1() {
    let (code, _) = linview_code(&["--dims", "A=8x8", "--program", "B := A **;"]);
    assert_eq!(code, Some(1));
    let (code, _) = linview_code(&["lint", "--dims", "A=4x4,B=5x5", "--program", "C := A + B;"]);
    assert_eq!(code, Some(1));
    let (code, _) = linview_code(&["serve-cluster", "--workers", "5"]);
    assert_eq!(code, Some(1));
}

/// The `--flag` words of `text`.
fn flag_words(text: &str) -> Vec<String> {
    let mut words: Vec<String> = text
        .split(|c: char| !(c.is_ascii_alphanumeric() || c == '-'))
        .filter(|w| w.starts_with("--") && w.len() > 2)
        .map(str::to_string)
        .collect();
    words.sort();
    words.dedup();
    words
}

#[test]
fn help_and_flag_tables_do_not_drift() {
    let (_, help, _) = linview(&["--help"]);
    let documented = flag_words(&help);
    // Each mode's unknown-flag error lists its flag table: every entry is
    // documented in --help.
    let mut accepted = Vec::new();
    for (mode, _) in MODES {
        let (_, stderr) = linview_code(&mode_args(mode, &["--bogus"]));
        let table = stderr
            .lines()
            .find_map(|l| l.split_once("(accepted: "))
            .map(|(_, rest)| rest.trim_end_matches(')').to_string())
            .unwrap_or_else(|| panic!("{mode}: no flag table in {stderr}"));
        for flag in flag_words(&table) {
            assert!(
                documented.contains(&flag),
                "{mode} {flag} missing from --help"
            );
            accepted.push(flag);
        }
    }
    // And every documented flag is accepted by some mode.
    for flag in &documented {
        assert!(
            flag == "--help" || accepted.contains(flag),
            "--help documents {flag}, which no mode accepts"
        );
    }
}

#[test]
fn analyze_and_emit_analysis_price_reeval_alike() {
    let args = [
        "--dims",
        "A=512x512",
        "--program",
        "B := A * A; C := B * B;",
    ];
    let (ok, analyze, _) = linview(&[&args[..], &["--analyze"]].concat());
    assert!(ok);
    let (ok, emitted, _) = linview(&[&args[..], &["--emit", "analysis"]].concat());
    assert!(ok);
    // 2·(2n³) + 2n² for n = 512.
    assert!(
        analyze.contains("REEVAL: 5.374e8 flops/update"),
        "{analyze}"
    );
    assert!(emitted.contains("reeval 5.374e8 flops"), "{emitted}");
}
