//! The repo's benchmark. Four streaming-maintenance workloads measured end
//! to end (tracing off) and layer by layer (a traced pass), all from
//! outside the library. See README.md for what each number means.
//!
//! ```text
//! linview-benchmark --workload W --seed S --seconds T --trace 0|1   one run (driver contract)
//! linview-benchmark suite [--seed S] [--repeat R] [--smoke]         every workload, both passes
//! linview-benchmark compare BASE.json NEW.json                      regression gate
//! linview-benchmark manifest                                        prints BENCHMARK.json
//! linview-benchmark tables                                          prints the README tables
//! ```

mod compare;
mod gen;
mod json;
mod spec;
mod stats;
mod suite;
mod surface;
mod trace;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use json::Json;
use workloads::{Ctx, Report};

/// Removes the per-run scratch directory (WAL dirs, sockets, probe files)
/// when the run ends — on success, on error, and on unwind.
struct Scratch(PathBuf);

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// `--flag value` pairs and bare `--switch`es after the subcommand.
struct Args(Vec<String>);

impl Args {
    fn value(&self, flag: &str) -> Option<&str> {
        let at = self.0.iter().position(|a| a == flag)?;
        self.0.get(at + 1).map(String::as_str)
    }

    fn switch(&self, flag: &str) -> bool {
        self.0.iter().any(|a| a == flag)
    }

    fn parsed<T: std::str::FromStr>(&self, flag: &str, default: T) -> Result<T, String> {
        match self.value(flag) {
            None if self.switch(flag) => Err(format!("{flag} needs a value")),
            None => Ok(default),
            Some(raw) => raw
                .parse()
                .map_err(|_| format!("{flag}: cannot parse {raw:?}")),
        }
    }
}

/// Output directory, relative to the repository root the command runs from.
pub fn out_dir() -> PathBuf {
    Path::new("benchmark").join("out")
}

fn run_workload(name: &str, ctx: &Ctx) -> Result<Report, String> {
    use workloads::{
        cluster_durable::ClusterDurable, ols_batch::OlsBatch, powers_point::PowersPoint,
        serve_mixed::ServeMixed,
    };
    match name {
        "powers_point" => workloads::run::<PowersPoint>(ctx),
        "ols_batch" => workloads::run::<OlsBatch>(ctx),
        "cluster_durable" => workloads::run::<ClusterDurable>(ctx),
        "serve_mixed" => workloads::run::<ServeMixed>(ctx),
        other => Err(format!("unknown workload {other:?}")),
    }
}

/// The contract's result object: `correct`, `attempted`, `failed`, and every
/// end-to-end metric (`--trace 0`) or every per-layer metric (`--trace 1`).
fn result_line(report: &Report, trace: bool) -> Json {
    let mut metrics = Json::obj();
    if trace {
        for m in spec::PER_LAYER {
            let value = report.per_layer.get(m.name).copied().unwrap_or(0.0);
            metrics.set(
                m.name,
                Json::obj().with("value", value).with("unit", m.unit),
            );
        }
    } else {
        for m in &spec::END_TO_END {
            let value = report.end_to_end.get(m.name).copied().unwrap_or(0.0);
            metrics.set(
                m.name,
                Json::obj().with("value", value).with("unit", m.unit),
            );
        }
    }
    Json::obj()
        .with("correct", report.correct())
        .with("attempted", report.attempted.max(1))
        .with("failed", report.failed)
        .with("metrics", metrics)
}

fn one_run(args: &Args) -> Result<ExitCode, String> {
    let workload = args.value("--workload").ok_or("--workload is required")?;
    let trace = match args.parsed("--trace", 0u8)? {
        0 => false,
        1 => true,
        other => return Err(format!("--trace takes 0 or 1, not {other}")),
    };
    let out = out_dir();
    let scratch = Scratch(out.join(format!("tmp-{}", std::process::id())));
    std::fs::create_dir_all(&scratch.0)
        .map_err(|e| format!("mkdir {}: {e}", scratch.0.display()))?;
    let ctx = Ctx {
        seed: args.parsed("--seed", spec::DEFAULT_SEED)?,
        seconds: args.parsed("--seconds", spec::RUN_SECONDS as f64)?,
        max_firings: args.parsed("--firings", u64::MAX)?,
        trace,
        smoke: args.switch("--smoke"),
        out_dir: out.clone(),
        tmp: scratch.0.clone(),
    };
    let report = run_workload(workload, &ctx)?;
    drop(scratch);
    for (what, ok) in &report.checks {
        eprintln!("[{}] {what}", if *ok { "ok" } else { "FAILED" });
    }
    let line = result_line(&report, trace);
    // The suite reads the checks from this side file; the driver only
    // reads the last line of stdout.
    let checks: Vec<Json> = report
        .checks
        .iter()
        .map(|(what, ok)| Json::obj().with("check", what.as_str()).with("ok", *ok))
        .collect();
    let detail = line.clone().with("checks", checks);
    let path = out.join(format!("run-{workload}-trace{}.json", u8::from(trace)));
    std::fs::write(&path, detail.pretty()).map_err(|e| format!("write {}: {e}", path.display()))?;
    println!("{}", line.render());
    Ok(if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn dispatch() -> Result<ExitCode, String> {
    let mut argv: Vec<String> = std::env::args().skip(1).collect();
    let command = match argv.first() {
        Some(first) if !first.starts_with("--") => argv.remove(0),
        _ => String::new(),
    };
    let args = Args(argv);
    match command.as_str() {
        "" if args.switch("--workload") => one_run(&args),
        "" | "suite" => suite::run(
            args.parsed("--seed", spec::DEFAULT_SEED)?,
            args.parsed("--repeat", 1usize)?,
            args.switch("--smoke"),
        ),
        "compare" => match &args.0[..] {
            [base, new] => compare::run(Path::new(base), Path::new(new)),
            _ => Err("usage: compare BASE.json NEW.json".into()),
        },
        "manifest" => {
            print!("{}", spec::manifest().pretty());
            Ok(ExitCode::SUCCESS)
        }
        "tables" => {
            print!("{}", spec::tables_markdown());
            Ok(ExitCode::SUCCESS)
        }
        other => Err(format!("unknown command {other:?}")),
    }
}

fn main() -> ExitCode {
    match dispatch() {
        Ok(code) => code,
        Err(e) => {
            eprintln!("linview-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
