//! The LINVIEW command-line compiler.
//!
//! Mirrors the paper's Fig. 2 workflow: APL-style program in, incremental
//! trigger program out, with a choice of backends. The `engine` subcommand
//! additionally *runs* a streaming maintenance workload through the
//! pluggable execution backends.
//!
//! ```text
//! linview --dims A=64x64 --program "B := A * A; C := B * B;"
//! linview --dims X=100x10,Y=100x1 --inputs X \
//!         --program "Z := X' * X; W := inv(Z); beta := W * X' * Y;" \
//!         --emit octave
//! linview --dims A=64x64 --file prog.lv --emit plan --rank 4 --no-factor
//! linview engine --n 48 --events 64 --batch 8 --zipf 1.5 --backend all
//! ```
//!
//! Every mode declares its flags once, in [`MODES`]; one parser checks a
//! command line against that table and one exit-code mapping in `main`
//! covers every mode: 0 on success or `--help`, 1 when the run fails, 2 on
//! a usage error.

use linview::compiler::codegen::{numpy, octave, plan, spark};
use linview::compiler::optimizer::{optimize, OptimizerOptions};
use linview::compiler::parse::parse_program;
use linview::compiler::{analyze_program, compile, compile_joint, AnalyzeOptions, CompileOptions};
use linview::dist::{PeerAddr, ServeOptions, SocketConfig, WorkerServer};
use linview::expr::cost::CostModel;
use linview::expr::{Catalog, DeltaOptions};
use linview::matrix::{gemm_threads, set_default_kernel, set_gemm_threads, GemmKernel, Matrix};
use linview::runtime::{
    ExecBackend, FlushPolicy, IncrementalView, MaintenanceEngine, SocketBackend, ThreadedBackend,
    UpdateStream,
};
use std::fmt::Display;
use std::process::ExitCode;
use std::str::FromStr;

const USAGE: &str = "\
linview — incremental view maintenance compiler for linear algebra programs

USAGE:
  linview --dims NAME=RxC[,NAME=RxC...] [OPTIONS] (--program SRC | --file PATH)
  linview lint (--dims LIST (--program SRC | --file PATH) | --app NAME)
               [LINT OPTIONS]
  linview engine [ENGINE OPTIONS]
  linview serve [SERVE OPTIONS]
  linview worker --listen ADDR [--once]
  linview serve-cluster [--workers W] [--dir DIR]
  linview [MODE] --help

OPTIONS:
  --dims LIST        base matrix shapes, e.g. A=64x64,Y=64x1   (required)
  --program SRC      program text, e.g. \"B := A * A; C := B * B;\"
  --file PATH        read the program from a file
  --inputs LIST      dynamic inputs (default: every matrix in --dims)
  --emit KIND        trigger | octave | spark | numpy | plan | dag | analysis
                     | all (default: trigger; 'dag' prints each trigger's
                     staged execution plan, 'analysis' the static analyzer's
                     report: effect sets, verified stages, cost estimates)
  --rank K           update rank of the incoming deltas (default: 1)
  --analyze          print each trigger's predicted INCR and REEVAL flops
                     and their ratio (§5 as an API)
  --joint            emit ONE trigger for simultaneous updates to all
                     --inputs (§4.4 / Example 4.5) instead of one per input
  --no-factor        disable §4.3 common-factor extraction (ablation)
  --no-optimize      skip CSE / copy propagation / dead-code elimination
  --gamma G          matmul exponent of the cost model, 2 <= G <= 3
                     (default: 3.0)
  --density D        expected nonzero fraction of incoming delta factors
                     (0 < D <= 1): refines --emit analysis with nnz-aware
                     fold FLOPs and compressed-frame wire bytes
  --gemm KERNEL      dense GEMM kernel: {GEMM_KERNELS}
                     (default: packed; also settable via LINVIEW_GEMM;
                     packed-fma fuses multiply-adds — fastest and
                     differential-tested to 1e-10, but not bit-identical
                     to the exact kernels)
  --threads N        GEMM thread budget (default: all cores; also settable
                     via LINVIEW_THREADS — results are bit-identical for
                     every value)

LINT OPTIONS (run the static trigger-program analyzer, deny on errors):
  --app NAME         lint a shipped app program instead of --program/--file:
                     powers | sums | ols | reach | pagerank-step | all
  --n N              square dimension for --app programs (default: 16)
  --rank K           update rank of the incoming deltas (default: 1)
  --gamma G          matmul exponent for the cost pass (default: 3.0)
  --deny-warnings    exit nonzero on warnings too, not just errors

ENGINE OPTIONS (stream a Zipf-skewed multi-input workload):
  --n N              square input dimension (default: 48)
  --events E         rank-1 events to ingest across inputs A, B (default: 64)
  --batch K          flush threshold (default: 8; 1 = fire per event)
  --policy P         count | rank | immediate batching policy (default: count)
  --zipf S           row-skew exponent of the event stream (default: 1.5)
  --workers W        cluster size for the threaded/socket backends
                     (default: 4)
  --backend B        local | threaded | socket | all
                     (default: all; 'threaded' runs message-passing worker
                     threads, 'socket' drives out-of-process workers over
                     the same byte-frame protocol, 'all' compares every
                     backend and asserts bit-identical results)
  --connect LIST     comma-separated worker addresses for the socket leg of
                     --backend socket/all (tcp:HOST:PORT or unix:PATH,
                     row-major over the grid; default: self-hosted
                     Unix-socket workers)
  --checkpoint-every N
                     enable checkpoint/replay fault tolerance: snapshot the
                     environment every N firings and keep a delta log in
                     between; failed flushes recover and retry (default:
                     off)
  --kill-worker-after E
                     fault injection: kill one worker after event E
                     (threaded/socket backends; requires --checkpoint-every)
  --pace-ms MS       sleep MS milliseconds between events (lets an external
                     fault injector interleave; default: 0)
  --gemm KERNEL      dense GEMM kernel for the whole run (see above)
  --threads N        GEMM thread budget (see above)

SERVE OPTIONS (live maintenance with wait-free snapshot readers):
  --n N              square input dimension (default: 48)
  --events E         rank-1 events to ingest across inputs A, B
                     (default: 256)
  --batch K          flush threshold (default: 8)
  --policy P         count | rank | immediate batching policy
                     (default: count)
  --zipf S           row-skew exponent of the event stream (default: 1.5)
  --workers W        cluster size for the threaded/socket backends
                     (default: 4)
  --backend B        local | threaded | socket (default: local)
  --readers R        closed-loop reader threads hammering the published
                     snapshots while maintenance runs (default: 4)
  --publish-every P  snapshot publish cadence in flush rounds (default: 1;
                     staleness is bounded by P-1 rounds-behind)
  --pace-ms MS       sleep MS milliseconds between events (default: 0)
  --wal-dir DIR      durable checkpoint + write-ahead-log directory: if it
                     already holds a checkpoint, recover from it first
                     (a torn WAL tail is truncated to the last complete
                     record and reported), then keep checkpointing into it
  --checkpoint-every N
                     snapshot cadence for --wal-dir (default: 8)
  --gemm KERNEL      dense GEMM kernel for the whole run (see above)
  --threads N        GEMM thread budget (see above)

  The run exits nonzero if the final published snapshot is not
  bit-identical to the live engine state, or any reader observed a
  non-monotone epoch sequence.

WORKER OPTIONS (host grid partitions for a remote coordinator):
  --listen ADDR      tcp:HOST:PORT or unix:PATH to listen on (required;
                     tcp:HOST:0 picks a free port and prints it)
  --once             exit after the first coordinator session ends with a
                     protocol shutdown (default: serve forever)

SERVE-CLUSTER OPTIONS (spawn a local worker fleet in one process):
  --workers W        number of workers to host (default: 4)
  --dir DIR          directory for the Unix socket files (default: the
                     system temp dir)

EXIT STATUS (every mode): 0 on success and for --help, 1 when the run
fails (including lint findings), 2 on a usage error.
";

/// [`USAGE`] with the `--gemm` kernel list filled in from
/// [`GemmKernel::ALL`], so the help text cannot drift from the parser.
fn usage() -> String {
    let kernels = GemmKernel::ALL.map(GemmKernel::label).join(" | ");
    USAGE.replace("{GEMM_KERNELS}", &kernels)
}

/// Surfaces a set-but-unrecognized `LINVIEW_GEMM` as a startup warning
/// (the library itself silently ignores it, which once let a typo'd
/// kernel name benchmark the default kernel unnoticed).
fn warn_on_bad_env_kernel() {
    if let Some(e) = linview::matrix::env_kernel_error() {
        eprintln!(
            "warning: ignoring LINVIEW_GEMM: {e}; using kernel '{}'",
            linview::matrix::default_kernel()
        );
    }
    if let Some(e) = linview::matrix::env_threads_error() {
        eprintln!(
            "warning: ignoring LINVIEW_THREADS: {e}; using {} thread(s)",
            gemm_threads()
        );
    }
}

/// Why a mode did not finish successfully; `main` maps each to one exit
/// code.
enum Failure {
    /// `--help`: print the usage, exit 0.
    Help,
    /// A bad command line: exit 2.
    Usage(String),
    /// The run itself failed: exit 1.
    Run(String),
}

fn usage_error(msg: impl Into<String>) -> Failure {
    Failure::Usage(msg.into())
}

/// A run failure rendered with its full `source()` chain, one `caused by:`
/// line per cause, so wrapped errors (runtime → expression → analyzer)
/// surface structurally instead of as nested Debug prints.
fn fail(e: impl std::error::Error) -> Failure {
    let mut out = e.to_string();
    let mut src = e.source();
    while let Some(cause) = src {
        out.push_str(&format!("\n  caused by: {cause}"));
        src = cause.source();
    }
    Failure::Run(out)
}

/// One flag of a mode: its name and whether it takes a value.
type Flag = (&'static str, bool);

/// A subcommand: its word, the flags it accepts, and what it runs.
struct Mode {
    /// The subcommand word (`""` for the compiler, which has none).
    name: &'static str,
    flags: &'static [Flag],
    run: fn(&Flags) -> Result<(), Failure>,
}

/// Every mode of the binary; the compiler comes first and is the default.
#[rustfmt::skip]
const MODES: [Mode; 6] = [
    Mode { name: "", run: run_compile, flags: &[
        ("--dims", true), ("--program", true), ("--file", true), ("--inputs", true),
        ("--emit", true), ("--rank", true), ("--analyze", false), ("--joint", false),
        ("--no-factor", false), ("--no-optimize", false), ("--gamma", true),
        ("--density", true), ("--gemm", true), ("--threads", true),
    ]},
    Mode { name: "lint", run: run_lint, flags: &[
        ("--app", true), ("--dims", true), ("--program", true), ("--file", true),
        ("--inputs", true), ("--n", true), ("--rank", true), ("--gamma", true),
        ("--deny-warnings", false),
    ]},
    Mode { name: "engine", run: run_engine, flags: &[
        ("--n", true), ("--events", true), ("--batch", true), ("--policy", true),
        ("--zipf", true), ("--workers", true), ("--backend", true), ("--connect", true),
        ("--checkpoint-every", true), ("--kill-worker-after", true), ("--pace-ms", true),
        ("--gemm", true), ("--threads", true),
    ]},
    Mode { name: "serve", run: run_serve, flags: &[
        ("--n", true), ("--events", true), ("--batch", true), ("--policy", true),
        ("--zipf", true), ("--workers", true), ("--backend", true), ("--readers", true),
        ("--publish-every", true), ("--pace-ms", true), ("--wal-dir", true),
        ("--checkpoint-every", true), ("--gemm", true), ("--threads", true),
    ]},
    Mode { name: "worker", run: run_worker, flags: &[("--listen", true), ("--once", false)] },
    Mode { name: "serve-cluster", run: run_serve_cluster, flags: &[
        ("--workers", true), ("--dir", true),
    ]},
];

/// A mode's parsed command line: every flag given, with its value.
struct Flags(Vec<(&'static str, Option<String>)>);

/// Checks `argv` against `mode`'s flag table — unknown flags, missing
/// values and `--help` — and applies the process-wide `--gemm` /
/// `--threads` pins.
fn parse(mode: &Mode, argv: &[String]) -> Result<Flags, Failure> {
    let mut flags = Vec::new();
    let mut argv = argv.iter();
    while let Some(arg) = argv.next() {
        if arg == "--help" || arg == "-h" {
            return Err(Failure::Help);
        }
        let Some(&(name, takes_value)) = mode.flags.iter().find(|(name, _)| name == arg) else {
            let accepted: Vec<&str> = mode.flags.iter().map(|(name, _)| *name).collect();
            return Err(usage_error(format!(
                "unknown {}flag '{arg}' (accepted: {})",
                format!("{} ", mode.name).trim_start(),
                accepted.join(" ")
            )));
        };
        let value = if takes_value {
            let value = argv.next().cloned();
            Some(value.ok_or_else(|| usage_error(format!("missing value for {name}")))?)
        } else {
            None
        };
        flags.push((name, value));
    }
    let flags = Flags(flags);
    if let Some(v) = flags.value("--gemm") {
        let kernel =
            GemmKernel::from_name(v).map_err(|e| usage_error(format!("bad --gemm: {e}")))?;
        set_default_kernel(Some(kernel));
    }
    if flags.has("--threads") {
        set_gemm_threads(Some(flags.within("--threads", 1, |n| n >= 1, "N >= 1")?));
    }
    Ok(flags)
}

impl Flags {
    fn has(&self, name: &str) -> bool {
        self.0.iter().any(|(n, _)| *n == name)
    }

    /// The value of the last occurrence of `name`.
    fn value(&self, name: &str) -> Option<&str> {
        self.0
            .iter()
            .rev()
            .find(|(n, _)| *n == name)
            .and_then(|(_, v)| v.as_deref())
    }

    fn opt<T: FromStr>(&self, name: &str) -> Result<Option<T>, Failure> {
        self.value(name)
            .map(|v| {
                v.parse()
                    .map_err(|_| usage_error(format!("bad {name} value")))
            })
            .transpose()
    }

    fn get<T: FromStr>(&self, name: &str, default: T) -> Result<T, Failure> {
        Ok(self.opt(name)?.unwrap_or(default))
    }

    /// [`Flags::get`], rejecting values `ok` refuses.
    fn within<T: FromStr + Display + Copy>(
        &self,
        name: &str,
        default: T,
        ok: impl Fn(T) -> bool,
        want: &str,
    ) -> Result<T, Failure> {
        let v = self.get(name, default)?;
        if ok(v) {
            Ok(v)
        } else {
            Err(usage_error(format!(
                "{name} {v} out of range (want {want})"
            )))
        }
    }

    /// A value from a fixed set of spellings.
    fn choice<'a>(
        &'a self,
        name: &str,
        default: &'a str,
        allowed: &[&str],
    ) -> Result<&'a str, Failure> {
        let v = self.value(name).unwrap_or(default);
        if allowed.contains(&v) {
            Ok(v)
        } else {
            let want = allowed.join("|");
            Err(usage_error(format!("unknown {name} '{v}' (want {want})")))
        }
    }

    fn list(&self, name: &str) -> Option<Vec<String>> {
        self.value(name)
            .map(|v| v.split(',').map(str::to_string).collect())
    }

    /// `--gamma`, inside the range the cost model accepts.
    fn gamma(&self) -> Result<f64, Failure> {
        self.within("--gamma", 3.0, |g| (2.0..=3.0).contains(&g), "2 <= G <= 3")
    }
}

/// One program to compile or lint: name, source program, catalog, dynamic
/// inputs.
struct Target {
    name: String,
    program: linview::compiler::Program,
    cat: Catalog,
    inputs: Vec<String>,
}

/// Loads `--dims` + `--program`/`--file` + `--inputs`. A malformed flag is
/// the outer error; a program that does not parse is the inner one, which
/// the compiler and the linter report differently.
fn load(flags: &Flags) -> Result<Result<Target, String>, Failure> {
    let mut cat = Catalog::new();
    let mut names = Vec::new();
    for spec in flags
        .value("--dims")
        .unwrap_or_default()
        .split_terminator(',')
    {
        let dim = spec.split_once('=').and_then(|(name, shape)| {
            let (r, c) = shape.split_once(['x', 'X'])?;
            Some((name, r.parse().ok()?, c.parse().ok()?))
        });
        let (name, rows, cols) =
            dim.ok_or_else(|| usage_error(format!("bad dim spec '{spec}' (want NAME=RxC)")))?;
        cat.declare(name, rows, cols);
        names.push(name.to_string());
    }
    if names.is_empty() {
        return Err(usage_error("--dims is required"));
    }
    let source = match (flags.value("--program"), flags.value("--file")) {
        (Some(src), _) => src.to_string(),
        (None, Some(path)) => std::fs::read_to_string(path)
            .map_err(|e| Failure::Run(format!("cannot read {path}: {e}")))?,
        (None, None) => return Err(usage_error("one of --program / --file is required")),
    };
    Ok(parse_program(&source)
        .map(|program| Target {
            name: "program".into(),
            program,
            cat,
            inputs: flags.list("--inputs").unwrap_or(names),
        })
        .map_err(|e| e.to_string()))
}

fn run_compile(flags: &Flags) -> Result<(), Failure> {
    let emit = flags.choice(
        "--emit",
        "trigger",
        &[
            "trigger", "dag", "octave", "spark", "numpy", "plan", "analysis", "all",
        ],
    )?;
    let rank = flags.get("--rank", 1)?;
    let model = CostModel::with_gamma(flags.gamma()?);
    let density = flags.opt::<f64>("--density")?;
    if let Some(d) = density.filter(|d| !(*d > 0.0 && *d <= 1.0)) {
        return Err(usage_error(format!(
            "--density {d} out of range (want 0 < D <= 1)"
        )));
    }
    let target = load(flags)?.map_err(Failure::Run)?;
    let input_refs: Vec<&str> = target.inputs.iter().map(String::as_str).collect();
    let normalized = target.program.hoist_inverses(&input_refs);
    let opts = CompileOptions {
        update_rank: rank,
        delta: DeltaOptions {
            factor_common: !flags.has("--no-factor"),
        },
    };
    if flags.has("--joint") {
        if emit != "trigger" {
            return Err(usage_error(
                "--joint currently supports --emit trigger only",
            ));
        }
        let joint = compile_joint(&normalized, &input_refs, &target.cat, &opts).map_err(fail)?;
        print!("{joint}");
        return Ok(());
    }
    let mut tp = compile(&normalized, &input_refs, &target.cat, &opts).map_err(fail)?;
    if !flags.has("--no-optimize") {
        optimize(&mut tp, &OptimizerOptions::default()).map_err(fail)?;
    }
    let analysis = || {
        analyze_program(
            &tp,
            &AnalyzeOptions {
                program: Some(&normalized),
                model: Some(model),
                density,
            },
        )
    };
    if flags.has("--analyze") {
        for t in analysis().triggers {
            let reeval = t.cost.reeval_flops.unwrap_or(f64::NAN);
            let speedup = t.cost.speedup().unwrap_or(f64::NAN);
            println!(
                "trigger '{}': INCR: {:.3e} flops/update / REEVAL: {reeval:.3e} flops/update \
                 / predicted speedup {speedup:.1}x",
                t.input, t.cost.flops
            );
        }
        return Ok(());
    }
    let mut out = String::new();
    let wants = |kind: &str| emit == kind || emit == "all";
    if wants("trigger") {
        out.push_str(&tp.to_string());
    }
    if wants("dag") {
        for t in &tp.triggers {
            let dag = t.dag().map_err(fail)?;
            out.push_str(&format!("ON UPDATE {} staged execution plan:\n", t.input));
            out.push_str(&dag.render(t));
        }
    }
    if wants("octave") {
        out.push_str(&octave::emit_program(&tp));
    }
    if wants("spark") {
        out.push_str(&spark::emit_program(&tp));
    }
    if wants("numpy") {
        out.push_str(&numpy::emit_program(&tp));
    }
    if wants("plan") {
        out.push_str(&plan::render_program(&tp, &model).map_err(fail)?);
    }
    if wants("analysis") {
        out.push_str(&analysis().to_string());
    }
    print!("{out}");
    Ok(())
}

/// The shipped app programs `linview lint --app` knows, sized `n`; every
/// matrix each one declares is a dynamic input.
fn shipped_apps(n: usize) -> Vec<Target> {
    use linview::apps::{powers::powers_program, sums::sums_program, IterModel};
    use linview::expr::Expr;

    let target = |name: &str, program, dims: &[(&str, usize, usize)]| {
        let mut cat = Catalog::new();
        for &(m, rows, cols) in dims {
            cat.declare(m, rows, cols);
        }
        let inputs = dims.iter().map(|d| d.0.to_string()).collect();
        Target {
            name: name.into(),
            program,
            cat,
            inputs,
        }
    };
    let parsed = |src| parse_program(src).expect("shipped app parses");
    let a = [("A", n, n)];
    let (mut reach, final_sum) = sums_program(IterModel::Exponential, 4, n);
    reach.assign("R", Expr::var("A") * Expr::var(final_sum));
    vec![
        target("powers", powers_program(IterModel::Exponential, 4).0, &a),
        target("sums", sums_program(IterModel::Linear, 4, n).0, &a),
        target(
            "ols",
            parsed("beta := inv(X' * X) * X' * Y;"),
            &[("X", n, n.min(4)), ("Y", n, 1)],
        ),
        target("reach", reach, &a),
        target(
            "pagerank-step",
            parsed("R1 := M * R0; R2 := M * R1; R3 := M * R2;"),
            &[("M", n, n), ("R0", n, 1)],
        ),
    ]
}

/// Renders a compile-time denial as a lint diagnostic line, classifying
/// the error variant into the analyzer pass vocabulary.
fn render_compile_error(e: &linview::expr::ExprError) -> String {
    use linview::expr::ExprError;
    match e {
        ExprError::Analysis {
            pass,
            trigger,
            stmt,
            message,
            suggestion,
        } => {
            let mut line = format!("error[{pass}] trigger '{trigger}'");
            if let Some(i) = stmt {
                line.push_str(&format!(" stmt {i}"));
            }
            line.push_str(&format!(": {message}"));
            if let Some(s) = suggestion {
                line.push_str(&format!("\n  hint: {s}"));
            }
            line
        }
        ExprError::ScheduleCycle { .. } => format!("error[disjointness] {e}"),
        _ => format!("error[shape] {e}"),
    }
}

/// Lints one program: compile (deny-by-default), then the full analyzer
/// report. Returns the rendered output and the (errors, warnings) counts.
fn lint_one(target: &Target, rank: usize, gamma: f64) -> (String, usize, usize) {
    let input_refs: Vec<&str> = target.inputs.iter().map(String::as_str).collect();
    let normalized = target.program.hoist_inverses(&input_refs);
    let opts = CompileOptions {
        update_rank: rank,
        delta: DeltaOptions::default(),
    };
    let mut out = format!("-- lint: {} --\n", target.name);
    match compile(&normalized, &input_refs, &target.cat, &opts) {
        Err(e) => {
            out.push_str(&render_compile_error(&e));
            out.push('\n');
            (out, 1, 0)
        }
        Ok(tp) => {
            let report = analyze_program(
                &tp,
                &AnalyzeOptions {
                    program: Some(&normalized),
                    model: Some(CostModel::with_gamma(gamma)),
                    ..Default::default()
                },
            );
            let (errors, warnings) = report.counts();
            out.push_str(&report.to_string());
            (out, errors, warnings)
        }
    }
}

fn run_lint(flags: &Flags) -> Result<(), Failure> {
    let rank = flags.get("--rank", 1)?;
    let gamma = flags.gamma()?;
    let targets = if flags.has("--app") {
        let app = flags.choice(
            "--app",
            "all",
            &["powers", "sums", "ols", "reach", "pagerank-step", "all"],
        )?;
        let mut apps = shipped_apps(flags.within("--n", 16, |n| n >= 1, "N >= 1")?);
        apps.retain(|t| app == "all" || t.name == app);
        apps
    } else if !flags.has("--dims") {
        return Err(usage_error(
            "lint needs --app NAME or --dims + --program/--file",
        ));
    } else {
        match load(flags)? {
            Ok(target) => vec![target],
            Err(e) => {
                // A program that does not parse is a lint finding, reported
                // structurally like the analyzer's own.
                println!("error[parse] {e}");
                return Err(Failure::Run("lint: the program does not parse".into()));
            }
        }
    };

    let (mut errors, mut warnings) = (0, 0);
    for target in &targets {
        let (text, e, w) = lint_one(target, rank, gamma);
        print!("{text}");
        errors += e;
        warnings += w;
    }
    println!(
        "lint: {} program(s), {errors} error(s), {warnings} warning(s)",
        targets.len()
    );
    if errors > 0 || (flags.has("--deny-warnings") && warnings > 0) {
        return Err(Failure::Run(format!(
            "lint failed: {errors} error(s), {warnings} warning(s)"
        )));
    }
    Ok(())
}

/// The resolved flags of `engine` and `serve`, which stream the same
/// workload: Zipf-skewed rank-1 updates alternating between the two
/// dynamic inputs of [`WORKLOAD`].
struct Stream {
    n: usize,
    events: usize,
    batch: usize,
    policy: String,
    zipf: f64,
    workers: usize,
    pace_ms: u64,
    /// External socket workers (`engine --connect`).
    connect: Option<Vec<PeerAddr>>,
    /// In-memory checkpoint cadence for `engine` (0 = off); durable
    /// cadence for `serve --wal-dir`.
    checkpoint_every: usize,
    kill_worker_after: Option<usize>,
    /// `serve` mode: readers, publish cadence and WAL directory apply.
    serve: bool,
    readers: usize,
    publish_every: u64,
    wal_dir: Option<String>,
}

const WORKLOAD: &str = "C := A * B; D := C * C;";

fn stream(flags: &Flags, serve: bool) -> Result<Stream, Failure> {
    let connect = flags.list("--connect").map(|specs| {
        specs
            .iter()
            .map(|s| PeerAddr::parse(s))
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| usage_error(format!("bad --connect: {e}")))
    });
    Ok(Stream {
        n: flags.within("--n", 48, |n| n >= 1, "N >= 1")?,
        events: flags.get("--events", if serve { 256 } else { 64 })?,
        batch: flags.get("--batch", 8)?,
        policy: flags
            .choice("--policy", "count", &["count", "rank", "immediate"])?
            .to_string(),
        zipf: flags.within("--zipf", 1.5, |s: f64| s.is_finite() && s >= 0.0, "S >= 0")?,
        workers: flags.get("--workers", 4)?,
        pace_ms: flags.get("--pace-ms", 0)?,
        connect: connect.transpose()?,
        checkpoint_every: if serve {
            flags.within("--checkpoint-every", 8, |c| c >= 1, "N >= 1")?
        } else {
            flags.get("--checkpoint-every", 0)?
        },
        kill_worker_after: flags.opt("--kill-worker-after")?,
        serve,
        readers: flags.within("--readers", 4, |r| r >= 1, "R >= 1")?,
        publish_every: flags.within("--publish-every", 1, |p| p >= 1, "P >= 1")?,
        wal_dir: flags.value("--wal-dir").map(str::to_string),
    })
}

impl Stream {
    fn policy(&self) -> FlushPolicy {
        match self.policy.as_str() {
            "immediate" => FlushPolicy::Immediate,
            "rank" => FlushPolicy::Rank(self.batch),
            _ => FlushPolicy::Count(self.batch),
        }
    }

    /// Builds the workload view on `backend` (`local | threaded | socket`)
    /// and runs this mode over it, returning the report and the final `D`.
    ///
    /// The threaded and socket legs carry the `--kill-worker-after` fault
    /// injector: it kills the last worker before that event.
    fn run_on(&self, backend: &str) -> Result<(String, Matrix), Failure> {
        let program = parse_program(WORKLOAD).expect("workload parses");
        let mut cat = Catalog::new();
        cat.declare("A", self.n, self.n);
        cat.declare("B", self.n, self.n);
        let inputs = [
            ("A", Matrix::random_spectral(self.n, 7, 0.8)),
            ("B", Matrix::random_spectral(self.n, 8, 0.8)),
        ];
        let kill_at = self.kill_worker_after;
        match (backend, &self.connect) {
            ("threaded", _) => {
                let backend = ThreadedBackend::new(self.workers).map_err(fail)?;
                let view = IncrementalView::build_on(backend, &program, &inputs, &cat);
                self.drive(view.map_err(fail)?, |i, engine| {
                    if Some(i) == kill_at {
                        let pool = engine.view_mut().backend_mut().pool_mut();
                        pool.kill_worker(pool.workers() - 1);
                    }
                })
            }
            ("socket", Some(addrs)) => {
                let backend =
                    SocketBackend::connect(addrs.clone(), SocketConfig::default()).map_err(fail)?;
                let view = IncrementalView::build_on(backend, &program, &inputs, &cat);
                self.drive(view.map_err(fail)?, |i, engine| {
                    if Some(i) == kill_at {
                        // External workers can't be SIGKILLed from here;
                        // tear the connection instead — the same failure
                        // surface (dead peer) from the engine's point of
                        // view.
                        let pool = engine.view().backend().pool();
                        pool.transport().disconnect(pool.workers() - 1);
                    }
                })
            }
            ("socket", None) => {
                let cluster = linview::dist::Cluster::try_new(self.workers).map_err(fail)?;
                let (gr, gc) = (cluster.grid_rows(), cluster.grid_cols());
                let (mut servers, addrs) = linview::dist::spawn_local_grid(gr, gc, "cli")
                    .map_err(|e| Failure::Run(format!("cannot spawn local socket workers: {e}")))?;
                let backend =
                    SocketBackend::connect_with_cluster(cluster, addrs, SocketConfig::default())
                        .map_err(fail)?;
                let view = IncrementalView::build_on(backend, &program, &inputs, &cat);
                self.drive(view.map_err(fail)?, |i, _| {
                    if Some(i) == kill_at {
                        // Abrupt worker death: its state dies with it. A
                        // fresh (empty) worker is brought up on the same
                        // address so recovery's revive + re-install can
                        // land.
                        let victim = servers.len() - 1;
                        let old = servers.remove(victim);
                        let addr = old.addr().clone();
                        old.kill();
                        match WorkerServer::spawn(&addr) {
                            Ok(s) => servers.insert(victim, s),
                            Err(e) => eprintln!("warning: could not respawn worker {victim}: {e}"),
                        }
                    }
                })
            }
            _ => self.drive(
                IncrementalView::build(&program, &inputs, &cat).map_err(fail)?,
                |_, _| {},
            ),
        }
    }

    fn drive<B: ExecBackend>(
        &self,
        view: IncrementalView<B>,
        on_event: impl FnMut(usize, &mut MaintenanceEngine<B>),
    ) -> Result<(String, Matrix), Failure> {
        view.reset_comm();
        let mut engine = MaintenanceEngine::new(view, self.policy());
        let out = if self.serve {
            self.serve_on(&mut engine)?
        } else {
            self.engine_on(&mut engine, on_event)?
        };
        Ok((out, engine.get("D").map_err(fail)?.clone()))
    }

    /// Ingests every event, then flushes. `on_event` fires before each
    /// ingest with the event index — the fault injector's hook. With
    /// `recover` set a failed flush is recovered (checkpoint restore +
    /// delta-log replay) and retried; the retry re-fires the identical
    /// buffer, so a recovered run's views are bit-identical to an
    /// undisturbed one.
    fn feed<B: ExecBackend>(
        &self,
        engine: &mut MaintenanceEngine<B>,
        recover: bool,
        mut on_event: impl FnMut(usize, &mut MaintenanceEngine<B>),
    ) -> Result<(), Failure> {
        let mut stream = UpdateStream::new(self.n, self.n, 0.01, 42);
        for i in 0..self.events {
            on_event(i, engine);
            let input = if i % 2 == 0 { "A" } else { "B" };
            if let Err(e) = engine.ingest(input, stream.next_rank_one_zipf(self.zipf)) {
                if !recover {
                    return Err(fail(e));
                }
                // The failed flush retained its buffer: restore the last
                // checkpoint, replay the log, and retry exactly that flush
                // (NOT flush_all — batch boundaries must match the
                // undisturbed run).
                engine.recover().map_err(fail)?;
                engine.flush(input).map_err(fail)?;
            }
            if self.pace_ms > 0 {
                std::thread::sleep(std::time::Duration::from_millis(self.pace_ms));
            }
        }
        if let Err(e) = engine.flush_all() {
            if !recover {
                return Err(fail(e));
            }
            engine.recover().map_err(fail)?;
            engine.flush_all().map_err(fail)?;
        }
        Ok(())
    }

    fn engine_on<B: ExecBackend>(
        &self,
        engine: &mut MaintenanceEngine<B>,
        on_event: impl FnMut(usize, &mut MaintenanceEngine<B>),
    ) -> Result<String, Failure> {
        let fault_tolerant = self.checkpoint_every > 0;
        if fault_tolerant {
            engine
                .enable_checkpointing(self.checkpoint_every)
                .map_err(fail)?;
        }
        self.feed(engine, fault_tolerant, on_event)?;
        let stats = engine.stats();
        let comm = engine.comm();
        let mut out = format!(
            "backend {:>5}: {} events -> {} firings (fired rank {}), mean refresh {:?}, \
             {:.2e} flops/firing\n",
            engine.view().backend().name(),
            stats.events,
            stats.firings,
            stats.fired_rank,
            stats.refresh.mean_wall(),
            stats.refresh.mean_flops(),
        );
        out.push_str(&format!(
            "             comm: broadcast {} B / {} msgs, shuffle {} B\n",
            comm.broadcast_bytes, comm.broadcast_msgs, comm.shuffle_bytes
        ));
        out.push_str(&format!(
            "             joint: {} rounds, {} trigger firings saved\n",
            stats.joint_rounds, stats.triggers_saved
        ));
        out.push_str(&format!(
            "             sched: {} stmts in {} stages ({} off the critical path), \
             {} view writes, {} overlapped broadcasts\n",
            stats.stmts,
            stats.stages,
            stats.stmts_saved(),
            stats.writes,
            stats.overlapped_broadcasts,
        ));
        out.push_str(&format!(
            "             sparse: {} sparse / {} dense folds, {} compressed frames \
             ({} B saved), {} rank shed by recompression\n",
            stats.sparse.sparse_folds,
            stats.sparse.dense_folds,
            stats.sparse.compressed_frames,
            stats.sparse.bytes_saved,
            stats.sparse.rank_saved,
        ));
        if fault_tolerant {
            let rec = engine.recovery_stats();
            out.push_str(&format!(
                "             recovery: {} checkpoints, {} logged firings, {} recoveries \
                 ({} firings replayed, rank {}), overhead {} B / {} msgs\n",
                rec.checkpoints,
                rec.logged_firings,
                rec.recoveries,
                rec.replayed_firings,
                rec.replayed_rank,
                rec.overhead_bytes(),
                rec.overhead_msgs(),
            ));
        }
        Ok(out)
    }

    /// Live maintenance with a closed-loop reader population on the
    /// wait-free snapshot path, then a check that the published state is
    /// bit-identical to the live engine.
    fn serve_on<B: ExecBackend>(
        &self,
        engine: &mut MaintenanceEngine<B>,
    ) -> Result<String, Failure> {
        use linview::runtime::{percentile_ns, ReaderPool, ReaderReport};

        let mut out = format!(
            "serve: {WORKLOAD}  (n = {}, backend {}, policy {}({}), \
             {} readers, publish every {})\n",
            self.n,
            engine.view().backend().name(),
            self.policy,
            self.batch,
            self.readers,
            self.publish_every,
        );
        if let Some(dir) = &self.wal_dir {
            let dir = std::path::Path::new(dir);
            if linview::runtime::has_durable_checkpoint(dir) {
                let rec = engine
                    .recover_from_disk(self.checkpoint_every, dir)
                    .map_err(fail)?;
                out.push_str(&format!(
                    "recovered from {}: {} firing(s) replayed, {} torn WAL tail byte(s) \
                     truncated\n",
                    dir.display(),
                    rec.replayed_firings,
                    rec.torn_tail_bytes,
                ));
            } else {
                engine
                    .enable_durable_checkpointing(self.checkpoint_every, dir)
                    .map_err(fail)?;
            }
        }
        let handle = engine.enable_serving(self.publish_every);
        let pool = ReaderPool::spawn(&handle, self.readers, &[]);
        let t0 = std::time::Instant::now();
        self.feed(engine, false, |_, _| {})?;
        let maint_wall = t0.elapsed();
        // Staleness at the moment maintenance stopped, before the final
        // forced sync below zeroes it.
        let final_staleness = handle.staleness();
        engine.publish_snapshot();
        let mut total = ReaderReport {
            epochs_monotone: true,
            ..ReaderReport::default()
        };
        for r in &pool.stop() {
            total.merge(r);
        }
        let stats = engine.stats();
        out.push_str(&format!(
            "maintenance: {} events -> {} firings in {:?} (mean refresh {:?})\n",
            stats.events,
            stats.firings,
            maint_wall,
            stats.refresh.mean_wall(),
        ));
        let reads_per_sec = total.reads as f64 / maint_wall.as_secs_f64().max(1e-9);
        out.push_str(&format!(
            "readers: {} thread(s), {} reads ({:.3e} reads/s), staleness max {} \
             final {} (rounds-behind), epoch {} after {} rounds\n",
            self.readers,
            total.reads,
            reads_per_sec,
            total.max_staleness,
            final_staleness,
            handle.epoch(),
            handle.rounds(),
        ));
        let p50 = percentile_ns(&mut total.latencies_ns, 50.0);
        let p99 = percentile_ns(&mut total.latencies_ns, 99.0);
        out.push_str(&format!("read latency: p50 {p50} ns, p99 {p99} ns\n"));
        let snap = handle.snapshot();
        let mut worst = 0.0f64;
        for name in snap.names() {
            let live = engine.get(name).map_err(fail)?;
            let published = snap.get(name).map_err(fail)?;
            worst = worst.max(live.max_abs_diff(published));
        }
        out.push_str(&format!(
            "serve divergence (snapshot vs live, {} views): {worst:.2e}\n",
            snap.names().len()
        ));
        if worst != 0.0 {
            return Err(Failure::Run(format!(
                "published snapshot diverged from live state by {worst:.2e} — serving path broken"
            )));
        }
        if !total.epochs_monotone {
            return Err(Failure::Run(
                "a reader observed a non-monotone epoch sequence — serving path broken".into(),
            ));
        }
        Ok(out)
    }
}

fn run_engine(flags: &Flags) -> Result<(), Failure> {
    let s = stream(flags, false)?;
    let backend = flags.choice("--backend", "all", &["local", "threaded", "socket", "all"])?;
    if s.kill_worker_after.is_some() && s.checkpoint_every == 0 {
        return Err(usage_error(
            "--kill-worker-after needs --checkpoint-every N (recovery must be enabled)",
        ));
    }
    if s.connect.is_some() && !matches!(backend, "socket" | "all") {
        return Err(usage_error(
            "--connect only applies to --backend socket or all",
        ));
    }
    println!(
        "maintenance engine: {WORKLOAD}  (n = {}, policy = {}({}), zipf = {})\n\
         gemm: kernel {}, {} thread budget",
        s.n,
        s.policy,
        s.batch,
        s.zipf,
        linview::matrix::default_kernel(),
        gemm_threads(),
    );
    let mut results: Vec<(&str, Matrix)> = Vec::new();
    for leg in ["local", "threaded", "socket"] {
        if backend == leg || backend == "all" {
            let (report, d) = s.run_on(leg)?;
            print!("{report}");
            results.push((leg, d));
        }
    }
    let (first_name, first) = &results[0];
    for (name, d) in &results[1..] {
        let diff = first.max_abs_diff(d);
        println!("backend divergence on D ({first_name} vs {name}): {diff:.2e}");
        if diff != 0.0 {
            return Err(Failure::Run(format!(
                "{first_name} and {name} backends diverged by {diff:.2e} — shared path broken"
            )));
        }
    }
    Ok(())
}

fn run_serve(flags: &Flags) -> Result<(), Failure> {
    let s = stream(flags, true)?;
    let backend = flags.choice("--backend", "local", &["local", "threaded", "socket"])?;
    let (report, _) = s.run_on(backend)?;
    print!("{report}");
    Ok(())
}

/// Hosts one grid worker: bind, print the bound address (so scripts can
/// use `tcp:HOST:0`), and serve coordinator sessions until told to stop.
fn run_worker(flags: &Flags) -> Result<(), Failure> {
    let listen = flags
        .value("--listen")
        .ok_or_else(|| usage_error("--listen ADDR is required"))?;
    let addr = PeerAddr::parse(listen).map_err(|e| usage_error(format!("bad --listen: {e}")))?;
    let listener = linview::dist::bind(&addr)
        .map_err(|e| Failure::Run(format!("cannot listen on {addr}: {e}")))?;
    let actual = listener
        .local_addr()
        .map(|a| a.to_string())
        .unwrap_or_else(|_| addr.to_string());
    println!("linview worker listening on {actual}");
    use std::io::Write;
    let _ = std::io::stdout().flush();
    linview::dist::serve_worker(
        listener,
        ServeOptions {
            once: flags.has("--once"),
        },
    )
    .map_err(|e| Failure::Run(format!("worker on {actual} failed: {e}")))
}

/// Hosts a whole worker fleet in one process: W Unix-socket workers whose
/// addresses are printed one per line for a coordinator's `--connect`.
fn run_serve_cluster(flags: &Flags) -> Result<(), Failure> {
    let workers = flags.get("--workers", 4)?;
    // Validate the grid up front so a bad count fails loudly here instead
    // of in every coordinator that tries to connect.
    let cluster = linview::dist::Cluster::try_new(workers).map_err(fail)?;
    let base = flags
        .value("--dir")
        .map(std::path::PathBuf::from)
        .unwrap_or_else(std::env::temp_dir);
    let pid = std::process::id();
    let mut servers = Vec::with_capacity(workers);
    for idx in 0..workers {
        let path = base.join(format!("lv-cluster-{pid}-{idx}.sock"));
        let server = WorkerServer::spawn(&PeerAddr::Unix(path))
            .map_err(|e| Failure::Run(format!("cannot spawn worker {idx}: {e}")))?;
        println!("{}", server.addr());
        servers.push(server);
    }
    println!(
        "serve-cluster: {}x{} grid up ({} workers); Ctrl-C to stop",
        cluster.grid_rows(),
        cluster.grid_cols(),
        workers
    );
    use std::io::Write;
    let _ = std::io::stdout().flush();
    loop {
        std::thread::park();
    }
}

fn main() -> ExitCode {
    warn_on_bad_env_kernel();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mode, rest) = match MODES[1..]
        .iter()
        .find(|m| argv.first().map(String::as_str) == Some(m.name))
    {
        Some(mode) => (mode, &argv[1..]),
        None => (&MODES[0], &argv[..]),
    };
    match parse(mode, rest).and_then(|flags| (mode.run)(&flags)) {
        Ok(()) => ExitCode::SUCCESS,
        Err(Failure::Help) => {
            print!("{}", usage());
            ExitCode::SUCCESS
        }
        Err(Failure::Usage(msg)) => {
            eprintln!("error: {msg}\nrun 'linview --help' for usage");
            ExitCode::from(2)
        }
        Err(Failure::Run(msg)) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}
