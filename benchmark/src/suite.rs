//! One command, every metric: runs each workload in its own child process
//! with tracing off (the end-to-end numbers), then a shorter traced pass
//! (the per-layer numbers), and prints one JSON summary — every metric by
//! name with unit, direction and bound — also written to
//! `benchmark/out/BENCH_<seed>.json`.

use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

use crate::json::Json;
use crate::spec;
use crate::stats;

/// Measured firings of an untraced suite run; the traced pass runs a quarter.
const FULL_FIRINGS: u64 = 1024;
const SMOKE_FIRINGS: u64 = 12;
/// Time cap of one child; the firing count ends the run first.
const CHILD_SECONDS: u64 = 90;

fn child(
    workload: &str,
    seed: u64,
    firings: u64,
    trace: bool,
    smoke: bool,
) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", &CHILD_SECONDS.to_string()])
        .args(["--firings", &firings.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stdout(Stdio::piped());
    if smoke {
        cmd.arg("--smoke");
    }
    let output = cmd
        .spawn()
        .and_then(|c| c.wait_with_output())
        .map_err(|e| format!("spawn {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let last = stdout.lines().last().unwrap_or("");
    let line = Json::parse(last).map_err(|e| {
        format!(
            "{workload} (trace {}) exited {} without a result line: {e}",
            u8::from(trace),
            output.status
        )
    })?;
    // The child's side file repeats the line and adds the named checks.
    let path = crate::out_dir().join(format!("run-{workload}-trace{}.json", u8::from(trace)));
    let detail = std::fs::read_to_string(&path)
        .ok()
        .and_then(|text| Json::parse(&text).ok());
    Ok(detail.unwrap_or(line))
}

fn metric_value(run: &Json, name: &str) -> Option<f64> {
    run.get("metrics")?.get(name)?.get("value")?.as_f64()
}

fn host_facts() -> Json {
    let read = |path: &str| std::fs::read_to_string(path).unwrap_or_default();
    let cpu = read("/proc/cpuinfo")
        .lines()
        .find(|l| l.starts_with("model name"))
        .and_then(|l| l.split(':').nth(1))
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string());
    #[cfg(target_arch = "x86_64")]
    let avx2 = std::arch::is_x86_feature_detected!("avx2");
    #[cfg(not(target_arch = "x86_64"))]
    let avx2 = false;
    Json::obj()
        .with(
            "nproc",
            std::thread::available_parallelism().map_or(1, |n| n.get()),
        )
        .with("cpu_model", cpu)
        .with("avx2_detected", avx2)
        .with("kernel", read("/proc/sys/kernel/osrelease").trim())
}

/// Checks the committed manifest (when the command runs from the repo
/// root) against the tables it is generated from.
fn manifest_errors() -> Vec<String> {
    let mut errors = spec::validate();
    if let Ok(text) = std::fs::read_to_string("BENCHMARK.json") {
        match Json::parse(&text) {
            Ok(found) if found == spec::manifest() => {}
            Ok(_) => errors.push("BENCHMARK.json differs from `manifest` output".into()),
            Err(e) => errors.push(format!("BENCHMARK.json does not parse: {e}")),
        }
    }
    errors
}

pub fn run(seed: u64, repeat: usize, smoke: bool) -> Result<ExitCode, String> {
    let schema_errors = manifest_errors();
    for e in &schema_errors {
        eprintln!("schema: {e}");
    }
    let started = Instant::now();
    let firings = if smoke { SMOKE_FIRINGS } else { FULL_FIRINGS };
    let traced_firings = if smoke {
        SMOKE_FIRINGS
    } else {
        FULL_FIRINGS / 4
    };
    let mut all_correct = schema_errors.is_empty();
    let mut workloads = Json::obj();
    for w in &spec::WORKLOADS {
        eprintln!(
            "== {}: {} untraced run(s), then the traced pass",
            w.name,
            repeat.max(1)
        );
        let runs: Vec<Json> = (0..repeat.max(1))
            .map(|_| child(w.name, seed, firings, false, smoke))
            .collect::<Result<_, _>>()?;
        let traced = child(w.name, seed, traced_firings, true, smoke)?;

        let mut end_to_end = Json::obj();
        for m in &spec::END_TO_END {
            let values: Vec<f64> = runs
                .iter()
                .filter_map(|r| metric_value(r, m.name))
                .collect();
            end_to_end.set(
                m.name,
                Json::obj()
                    .with("value", stats::median(&values))
                    .with("unit", m.unit)
                    .with("better", m.better.label())
                    .with("bound", m.bound)
                    .with(
                        "runs",
                        values.iter().map(|&v| Json::from(v)).collect::<Vec<_>>(),
                    )
                    .with("spread", stats::spread(&values)),
            );
        }
        let mut per_layer = Json::obj();
        for m in spec::PER_LAYER {
            let strs = |xs: &[&str]| xs.iter().map(|&x| Json::from(x)).collect::<Vec<_>>();
            per_layer.set(
                m.name,
                Json::obj()
                    .with("value", metric_value(&traced, m.name))
                    .with("unit", m.unit)
                    .with("better", m.better.label())
                    .with("moves", strs(m.moves))
                    .with("on", strs(m.on)),
            );
        }
        let total = |key: &str| -> f64 {
            runs.iter()
                .chain([&traced])
                .filter_map(|r| r.get(key)?.as_f64())
                .sum()
        };
        let correct = runs
            .iter()
            .chain([&traced])
            .all(|r| r.get("correct").and_then(Json::as_bool) == Some(true));
        all_correct &= correct;
        let checks: Vec<Json> = runs
            .iter()
            .chain([&traced])
            .flat_map(|r| {
                r.get("checks")
                    .and_then(Json::as_arr)
                    .unwrap_or(&[])
                    .to_vec()
            })
            .collect();
        workloads.set(
            w.name,
            Json::obj()
                .with("why", w.why)
                .with("correct", correct)
                .with("attempted", total("attempted"))
                .with("failed", total("failed"))
                .with("checks", checks)
                .with("end_to_end", end_to_end)
                .with("per_layer", per_layer),
        );
    }
    let summary = Json::obj()
        .with("schema", 1u64)
        .with("seed", seed)
        .with("smoke", smoke)
        .with("repeat", repeat.max(1))
        .with("host", host_facts())
        .with(
            "schema_errors",
            schema_errors
                .iter()
                .map(|e| Json::from(e.as_str()))
                .collect::<Vec<_>>(),
        )
        .with("correct", all_correct)
        .with("wall_s", started.elapsed().as_secs_f64())
        .with("workloads", workloads)
        .with("claim", Json::Null);
    let out = crate::out_dir();
    std::fs::create_dir_all(&out).map_err(|e| format!("mkdir {}: {e}", out.display()))?;
    let path = out.join(format!("BENCH_{seed}.json"));
    std::fs::write(&path, summary.pretty())
        .map_err(|e| format!("write {}: {e}", path.display()))?;
    eprintln!("summary written to {}", path.display());
    print!("{}", summary.pretty());
    Ok(if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}
