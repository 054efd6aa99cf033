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

use linview::compiler::codegen::{numpy, octave, plan, spark};
use linview::compiler::optimizer::{optimize, OptimizerOptions};
use linview::compiler::parse::parse_program;
use linview::compiler::{
    analyze, analyze_program, compile, compile_joint, AnalyzeOptions, CompileOptions,
};
use linview::dist::{PeerAddr, ServeOptions, SocketConfig, WorkerServer};
use linview::expr::cost::CostModel;
use linview::expr::{Catalog, DeltaOptions};
use linview::matrix::{gemm_threads, set_default_kernel, set_gemm_threads, GemmKernel, Matrix};
use linview::runtime::{
    ExecBackend, FlushPolicy, IncrementalView, MaintenanceEngine, SocketBackend, ThreadedBackend,
    UpdateStream,
};
use std::process::ExitCode;

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
  --analyze          print the predicted REEVAL-vs-INCR report (§5 as an API)
  --joint            emit ONE trigger for simultaneous updates to all
                     --inputs (§4.4 / Example 4.5) instead of one per input
  --no-factor        disable §4.3 common-factor extraction (ablation)
  --no-optimize      skip CSE / copy propagation / dead-code elimination
  --gamma G          matmul exponent for the plan's cost model (default: 3.0)
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
  --no-joint         flush each input with its own trigger instead of ONE
                     joint trigger per flush round (§4.4 ablation)
  --sequential-exec  opt out of DAG-staged trigger execution: run one
                     statement per stage in program order (ablation)
  --dense            force dense folds and uncompressed broadcast frames
                     (ablation; default: sparse paths enabled, also
                     switchable via LINVIEW_SPARSE=0)
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
";

/// [`USAGE`] with the `--gemm` kernel list filled in from
/// [`GemmKernel::ALL`], so the help text cannot drift from the parser.
fn usage() -> String {
    let kernels = GemmKernel::ALL.map(GemmKernel::label).join(" | ");
    USAGE.replace("{GEMM_KERNELS}", &kernels)
}

/// Pins the process-wide GEMM kernel from a `--gemm` flag value.
fn apply_gemm_flag(value: &str) -> Result<(), String> {
    match GemmKernel::from_name(value) {
        Ok(k) => {
            set_default_kernel(Some(k));
            Ok(())
        }
        Err(e) => Err(format!("bad --gemm: {e}")),
    }
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

/// Pins the process-wide GEMM thread budget from a `--threads` flag value.
fn apply_threads_flag(value: &str) -> Result<(), String> {
    match value.parse::<usize>() {
        Ok(n) if n >= 1 => {
            set_gemm_threads(Some(n));
            Ok(())
        }
        _ => Err(format!("bad --threads '{value}' (want an integer >= 1)")),
    }
}

struct Args {
    dims: Vec<(String, usize, usize)>,
    program: Option<String>,
    file: Option<String>,
    inputs: Option<Vec<String>>,
    emit: String,
    rank: usize,
    analyze: bool,
    joint: bool,
    factor: bool,
    optimize: bool,
    gamma: f64,
    density: Option<f64>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        dims: Vec::new(),
        program: None,
        file: None,
        inputs: None,
        emit: "trigger".into(),
        rank: 1,
        analyze: false,
        joint: false,
        factor: true,
        optimize: true,
        gamma: 3.0,
        density: None,
    };
    let mut i = 0;
    let next = |i: &mut usize, what: &str| -> Result<String, String> {
        *i += 1;
        argv.get(*i)
            .cloned()
            .ok_or_else(|| format!("missing value for {what}"))
    };
    while i < argv.len() {
        match argv[i].as_str() {
            "--dims" => {
                let v = next(&mut i, "--dims")?;
                for spec in v.split(',') {
                    let (name, shape) = spec
                        .split_once('=')
                        .ok_or_else(|| format!("bad dim spec '{spec}' (want NAME=RxC)"))?;
                    let (r, c) = shape
                        .split_once(['x', 'X'])
                        .ok_or_else(|| format!("bad shape '{shape}' (want RxC)"))?;
                    let rows = r.parse().map_err(|_| format!("bad row count '{r}'"))?;
                    let cols = c.parse().map_err(|_| format!("bad col count '{c}'"))?;
                    args.dims.push((name.to_string(), rows, cols));
                }
            }
            "--program" => args.program = Some(next(&mut i, "--program")?),
            "--file" => args.file = Some(next(&mut i, "--file")?),
            "--inputs" => {
                args.inputs = Some(
                    next(&mut i, "--inputs")?
                        .split(',')
                        .map(str::to_string)
                        .collect(),
                )
            }
            "--emit" => args.emit = next(&mut i, "--emit")?,
            "--rank" => {
                args.rank = next(&mut i, "--rank")?
                    .parse()
                    .map_err(|_| "bad --rank value".to_string())?
            }
            "--analyze" => args.analyze = true,
            "--joint" => args.joint = true,
            "--no-factor" => args.factor = false,
            "--no-optimize" => args.optimize = false,
            "--gamma" => {
                args.gamma = next(&mut i, "--gamma")?
                    .parse()
                    .map_err(|_| "bad --gamma value".to_string())?
            }
            "--density" => {
                let d: f64 = next(&mut i, "--density")?
                    .parse()
                    .map_err(|_| "bad --density value".to_string())?;
                if !(d > 0.0 && d <= 1.0) {
                    return Err(format!("--density {d} out of range (want 0 < D <= 1)"));
                }
                args.density = Some(d);
            }
            "--gemm" => apply_gemm_flag(&next(&mut i, "--gemm")?)?,
            "--threads" => apply_threads_flag(&next(&mut i, "--threads")?)?,
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown flag '{other}'")),
        }
        i += 1;
    }
    if args.dims.is_empty() {
        return Err("--dims is required".into());
    }
    if args.program.is_none() && args.file.is_none() {
        return Err("one of --program / --file is required".into());
    }
    Ok(args)
}

fn run(args: &Args) -> Result<String, String> {
    let source = match (&args.program, &args.file) {
        (Some(src), _) => src.clone(),
        (None, Some(path)) => {
            std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?
        }
        _ => unreachable!("validated in parse_args"),
    };
    let program = parse_program(&source).map_err(|e| e.to_string())?;

    let mut cat = Catalog::new();
    for (name, r, c) in &args.dims {
        cat.declare(name, *r, *c);
    }
    let inputs: Vec<String> = args
        .inputs
        .clone()
        .unwrap_or_else(|| args.dims.iter().map(|(n, _, _)| n.clone()).collect());
    let input_refs: Vec<&str> = inputs.iter().map(String::as_str).collect();

    let normalized = program.hoist_inverses(&input_refs);
    let opts = CompileOptions {
        update_rank: args.rank,
        delta: DeltaOptions {
            factor_common: args.factor,
        },
    };
    if args.analyze {
        let model = CostModel::with_gamma(args.gamma);
        let report =
            analyze(&program, &input_refs, &cat, &model, &opts).map_err(|e| e.to_string())?;
        return Ok(report.to_string());
    }
    if args.joint {
        if args.emit != "trigger" {
            return Err("--joint currently supports --emit trigger only".into());
        }
        let joint =
            compile_joint(&normalized, &input_refs, &cat, &opts).map_err(|e| e.to_string())?;
        return Ok(joint.to_string());
    }
    let mut tp = compile(&normalized, &input_refs, &cat, &opts).map_err(|e| e.to_string())?;
    if args.optimize {
        optimize(&mut tp, &OptimizerOptions::default()).map_err(|e| e.to_string())?;
    }

    let mut out = String::new();
    let emit_trigger = matches!(args.emit.as_str(), "trigger" | "all");
    let emit_octave = matches!(args.emit.as_str(), "octave" | "all");
    let emit_spark = matches!(args.emit.as_str(), "spark" | "all");
    let emit_numpy = matches!(args.emit.as_str(), "numpy" | "all");
    let emit_plan = matches!(args.emit.as_str(), "plan" | "all");
    let emit_dag = matches!(args.emit.as_str(), "dag" | "all");
    let emit_analysis = matches!(args.emit.as_str(), "analysis" | "all");
    if !(emit_trigger
        || emit_octave
        || emit_spark
        || emit_numpy
        || emit_plan
        || emit_dag
        || emit_analysis)
    {
        return Err(format!(
            "unknown --emit '{}' (want trigger|octave|spark|numpy|plan|dag|analysis|all)",
            args.emit
        ));
    }
    if emit_trigger {
        out.push_str(&tp.to_string());
    }
    if emit_dag {
        for t in &tp.triggers {
            let dag = t.dag().map_err(|e| e.to_string())?;
            out.push_str(&format!("ON UPDATE {} staged execution plan:\n", t.input));
            out.push_str(&dag.render(t));
        }
    }
    if emit_octave {
        out.push_str(&octave::emit_program(&tp));
    }
    if emit_spark {
        out.push_str(&spark::emit_program(&tp));
    }
    if emit_numpy {
        out.push_str(&numpy::emit_program(&tp));
    }
    if emit_plan {
        let model = CostModel::with_gamma(args.gamma);
        out.push_str(&plan::render_program(&tp, &model).map_err(|e| e.to_string())?);
    }
    if emit_analysis {
        let report = analyze_program(
            &tp,
            &AnalyzeOptions {
                program: Some(&normalized),
                model: Some(CostModel::with_gamma(args.gamma)),
                density: args.density,
            },
        );
        out.push_str(&report.to_string());
    }
    Ok(out)
}

/// Renders an error with its full `source()` chain, one `caused by:` line
/// per cause, so wrapped errors (runtime → expression → analyzer) surface
/// structurally instead of as nested Debug prints.
fn render_error(e: impl std::error::Error) -> String {
    let mut out = e.to_string();
    let mut src = e.source();
    while let Some(cause) = src {
        out.push_str(&format!("\n  caused by: {cause}"));
        src = cause.source();
    }
    out
}

/// Options of the `lint` subcommand.
struct LintArgs {
    app: Option<String>,
    dims: Vec<(String, usize, usize)>,
    program: Option<String>,
    file: Option<String>,
    inputs: Option<Vec<String>>,
    n: usize,
    rank: usize,
    gamma: f64,
    deny_warnings: bool,
}

fn parse_lint_args(argv: &[String]) -> Result<LintArgs, String> {
    let mut args = LintArgs {
        app: None,
        dims: Vec::new(),
        program: None,
        file: None,
        inputs: None,
        n: 16,
        rank: 1,
        gamma: 3.0,
        deny_warnings: false,
    };
    let next = |i: &mut usize, what: &str| -> Result<String, String> {
        *i += 1;
        argv.get(*i)
            .cloned()
            .ok_or_else(|| format!("missing value for {what}"))
    };
    let mut i = 0;
    while i < argv.len() {
        match argv[i].as_str() {
            "--app" => args.app = Some(next(&mut i, "--app")?),
            "--dims" => {
                let v = next(&mut i, "--dims")?;
                for spec in v.split(',') {
                    let (name, shape) = spec
                        .split_once('=')
                        .ok_or_else(|| format!("bad dim spec '{spec}' (want NAME=RxC)"))?;
                    let (r, c) = shape
                        .split_once(['x', 'X'])
                        .ok_or_else(|| format!("bad shape '{shape}' (want RxC)"))?;
                    let rows = r.parse().map_err(|_| format!("bad row count '{r}'"))?;
                    let cols = c.parse().map_err(|_| format!("bad col count '{c}'"))?;
                    args.dims.push((name.to_string(), rows, cols));
                }
            }
            "--program" => args.program = Some(next(&mut i, "--program")?),
            "--file" => args.file = Some(next(&mut i, "--file")?),
            "--inputs" => {
                args.inputs = Some(
                    next(&mut i, "--inputs")?
                        .split(',')
                        .map(str::to_string)
                        .collect(),
                )
            }
            "--n" => {
                args.n = next(&mut i, "--n")?
                    .parse()
                    .map_err(|_| "bad --n value".to_string())?
            }
            "--rank" => {
                args.rank = next(&mut i, "--rank")?
                    .parse()
                    .map_err(|_| "bad --rank value".to_string())?
            }
            "--gamma" => {
                args.gamma = next(&mut i, "--gamma")?
                    .parse()
                    .map_err(|_| "bad --gamma value".to_string())?
            }
            "--deny-warnings" => args.deny_warnings = true,
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown lint flag '{other}'")),
        }
        i += 1;
    }
    if args.app.is_none() {
        if args.dims.is_empty() {
            return Err("lint needs --app NAME or --dims + --program/--file".into());
        }
        if args.program.is_none() && args.file.is_none() {
            return Err("one of --program / --file is required".into());
        }
    }
    Ok(args)
}

/// One lintable program: name, source program, catalog, dynamic inputs.
struct LintTarget {
    name: String,
    program: linview::compiler::Program,
    cat: Catalog,
    inputs: Vec<String>,
}

/// The shipped app programs `linview lint --app` knows, sized `n`.
fn shipped_apps(n: usize) -> Vec<LintTarget> {
    use linview::apps::IterModel;
    use linview::compiler::Program;
    use linview::expr::Expr;

    let square = |name: &str| {
        let mut cat = Catalog::new();
        cat.declare(name, n, n);
        cat
    };
    let mut out = Vec::new();

    let (program, _) = linview::apps::powers::powers_program(IterModel::Exponential, 4);
    out.push(LintTarget {
        name: "powers".into(),
        program,
        cat: square("A"),
        inputs: vec!["A".into()],
    });

    let (program, _) = linview::apps::sums::sums_program(IterModel::Linear, 4, n);
    out.push(LintTarget {
        name: "sums".into(),
        program,
        cat: square("A"),
        inputs: vec!["A".into()],
    });

    let mut cat = Catalog::new();
    cat.declare("X", n, n.min(4));
    cat.declare("Y", n, 1);
    out.push(LintTarget {
        name: "ols".into(),
        program: parse_program("beta := inv(X' * X) * X' * Y;").expect("shipped OLS parses"),
        cat,
        inputs: vec!["X".into(), "Y".into()],
    });

    let (sums, final_sum) = linview::apps::sums::sums_program(IterModel::Exponential, 4, n);
    let mut program = Program::new();
    for stmt in sums.statements() {
        program.assign(stmt.target.clone(), stmt.expr.clone());
    }
    program.assign("R", Expr::var("A") * Expr::var(final_sum));
    out.push(LintTarget {
        name: "reach".into(),
        program,
        cat: square("A"),
        inputs: vec!["A".into()],
    });

    let mut cat = Catalog::new();
    cat.declare("M", n, n);
    cat.declare("R0", n, 1);
    out.push(LintTarget {
        name: "pagerank-step".into(),
        program: parse_program("R1 := M * R0; R2 := M * R1; R3 := M * R2;")
            .expect("shipped pagerank parses"),
        cat,
        inputs: vec!["M".into(), "R0".into()],
    });

    out
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
fn lint_one(target: &LintTarget, rank: usize, gamma: f64) -> (String, usize, usize) {
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

fn run_lint(args: &LintArgs) -> Result<(String, bool), String> {
    let targets = match &args.app {
        Some(app) => {
            let mut apps = shipped_apps(args.n);
            if app != "all" {
                apps.retain(|t| t.name == *app);
                if apps.is_empty() {
                    return Err(format!(
                        "unknown --app '{app}' (want powers|sums|ols|reach|pagerank-step|all)"
                    ));
                }
            }
            apps
        }
        None => {
            let source = match (&args.program, &args.file) {
                (Some(src), _) => src.clone(),
                (None, Some(path)) => {
                    std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?
                }
                _ => unreachable!("validated in parse_lint_args"),
            };
            let program = match parse_program(&source) {
                Ok(p) => p,
                Err(e) => {
                    // Parse failures are lint findings, not usage errors:
                    // report structurally and exit nonzero via the caller.
                    return Ok((format!("error[parse] {e}\n"), false));
                }
            };
            let mut cat = Catalog::new();
            for (name, r, c) in &args.dims {
                cat.declare(name, *r, *c);
            }
            let inputs: Vec<String> = args
                .inputs
                .clone()
                .unwrap_or_else(|| args.dims.iter().map(|(n, _, _)| n.clone()).collect());
            vec![LintTarget {
                name: "program".into(),
                program,
                cat,
                inputs,
            }]
        }
    };

    let mut out = String::new();
    let (mut errors, mut warnings) = (0, 0);
    for target in &targets {
        let (text, e, w) = lint_one(target, args.rank, args.gamma);
        out.push_str(&text);
        errors += e;
        warnings += w;
    }
    out.push_str(&format!(
        "lint: {} program(s), {errors} error(s), {warnings} warning(s)\n",
        targets.len()
    ));
    let ok = errors == 0 && !(args.deny_warnings && warnings > 0);
    Ok((out, ok))
}

/// Options of the `engine` subcommand.
struct EngineArgs {
    n: usize,
    events: usize,
    batch: usize,
    policy: String,
    zipf: f64,
    workers: usize,
    backend: String,
    connect: Option<Vec<String>>,
    checkpoint_every: usize,
    kill_worker_after: Option<usize>,
    pace_ms: u64,
    joint: bool,
    sequential: bool,
    dense: bool,
}

fn parse_engine_args(argv: &[String]) -> Result<EngineArgs, String> {
    let mut args = EngineArgs {
        n: 48,
        events: 64,
        batch: 8,
        policy: "count".into(),
        zipf: 1.5,
        workers: 4,
        backend: "all".into(),
        connect: None,
        checkpoint_every: 0,
        kill_worker_after: None,
        pace_ms: 0,
        joint: true,
        sequential: false,
        dense: false,
    };
    let next = |i: &mut usize, what: &str| -> Result<String, String> {
        *i += 1;
        argv.get(*i)
            .cloned()
            .ok_or_else(|| format!("missing value for {what}"))
    };
    let mut i = 0;
    while i < argv.len() {
        match argv[i].as_str() {
            "--n" => {
                args.n = next(&mut i, "--n")?
                    .parse()
                    .map_err(|_| "bad --n value".to_string())?
            }
            "--events" => {
                args.events = next(&mut i, "--events")?
                    .parse()
                    .map_err(|_| "bad --events value".to_string())?
            }
            "--batch" => {
                args.batch = next(&mut i, "--batch")?
                    .parse()
                    .map_err(|_| "bad --batch value".to_string())?
            }
            "--policy" => args.policy = next(&mut i, "--policy")?,
            "--zipf" => {
                args.zipf = next(&mut i, "--zipf")?
                    .parse()
                    .map_err(|_| "bad --zipf value".to_string())?
            }
            "--workers" => {
                args.workers = next(&mut i, "--workers")?
                    .parse()
                    .map_err(|_| "bad --workers value".to_string())?
            }
            "--backend" => args.backend = next(&mut i, "--backend")?,
            "--connect" => {
                args.connect = Some(
                    next(&mut i, "--connect")?
                        .split(',')
                        .map(str::to_string)
                        .collect(),
                )
            }
            "--checkpoint-every" => {
                args.checkpoint_every = next(&mut i, "--checkpoint-every")?
                    .parse()
                    .map_err(|_| "bad --checkpoint-every value".to_string())?
            }
            "--kill-worker-after" => {
                args.kill_worker_after = Some(
                    next(&mut i, "--kill-worker-after")?
                        .parse()
                        .map_err(|_| "bad --kill-worker-after value".to_string())?,
                )
            }
            "--pace-ms" => {
                args.pace_ms = next(&mut i, "--pace-ms")?
                    .parse()
                    .map_err(|_| "bad --pace-ms value".to_string())?
            }
            "--no-joint" => args.joint = false,
            "--sequential-exec" => args.sequential = true,
            "--dense" => args.dense = true,
            "--gemm" => apply_gemm_flag(&next(&mut i, "--gemm")?)?,
            "--threads" => apply_threads_flag(&next(&mut i, "--threads")?)?,
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown engine flag '{other}'")),
        }
        i += 1;
    }
    if !matches!(
        args.backend.as_str(),
        "local" | "threaded" | "socket" | "all"
    ) {
        return Err(format!(
            "unknown --backend '{}' (want local|threaded|socket|all)",
            args.backend
        ));
    }
    if !matches!(args.policy.as_str(), "count" | "rank" | "immediate") {
        return Err(format!(
            "unknown --policy '{}' (want count|rank|immediate)",
            args.policy
        ));
    }
    if args.kill_worker_after.is_some() && args.checkpoint_every == 0 {
        return Err(
            "--kill-worker-after needs --checkpoint-every N (recovery must be enabled)".into(),
        );
    }
    if args.connect.is_some() && !matches!(args.backend.as_str(), "socket" | "all") {
        return Err("--connect only applies to --backend socket or all".into());
    }
    Ok(args)
}

/// Streams `events` Zipf-skewed rank-1 updates over the two dynamic inputs
/// of `C := A * B; D := C * C;` through a [`MaintenanceEngine`] on
/// `view`'s backend, returning the report lines and the final `D`.
///
/// `on_event` fires before each ingest with the event index — the fault
/// injector's hook (`--kill-worker-after`). With `--checkpoint-every` set
/// a failed flush is recovered (checkpoint restore + delta-log replay) and
/// retried; the retry re-fires the identical buffer, so a recovered run's
/// views are bit-identical to an undisturbed one.
fn drive_engine<B: ExecBackend>(
    mut view: IncrementalView<B>,
    args: &EngineArgs,
    mut on_event: impl FnMut(usize, &mut MaintenanceEngine<B>),
) -> Result<(String, Matrix), String> {
    let policy = match args.policy.as_str() {
        "immediate" => FlushPolicy::Immediate,
        "rank" => FlushPolicy::Rank(args.batch),
        _ => FlushPolicy::Count(args.batch),
    };
    view.set_exec_options(linview::runtime::ExecOptions {
        sequential: args.sequential,
        sparse_folds: if args.dense { Some(false) } else { None },
        ..Default::default()
    });
    view.reset_comm();
    let mut engine = MaintenanceEngine::new(view, policy);
    engine.set_joint_flush(args.joint);
    let fault_tolerant = args.checkpoint_every > 0;
    if fault_tolerant {
        engine
            .enable_checkpointing(args.checkpoint_every)
            .map_err(render_error)?;
    }
    let mut stream = UpdateStream::new(args.n, args.n, 0.01, 42);
    for i in 0..args.events {
        on_event(i, &mut engine);
        let input = if i % 2 == 0 { "A" } else { "B" };
        let upd = stream.next_rank_one_zipf(args.zipf);
        if let Err(e) = engine.ingest(input, upd) {
            if !fault_tolerant {
                return Err(render_error(e));
            }
            // The failed flush retained its buffer: restore the last
            // checkpoint, replay the log, and retry exactly that flush
            // (NOT flush_all — batch boundaries must match the
            // undisturbed run).
            engine.recover().map_err(render_error)?;
            engine.flush(input).map_err(render_error)?;
        }
        if args.pace_ms > 0 {
            std::thread::sleep(std::time::Duration::from_millis(args.pace_ms));
        }
    }
    if let Err(e) = engine.flush_all() {
        if !fault_tolerant {
            return Err(render_error(e));
        }
        engine.recover().map_err(render_error)?;
        engine.flush_all().map_err(render_error)?;
    }
    let stats = engine.stats();
    let comm = engine.comm();
    let mut out = String::new();
    out.push_str(&format!(
        "backend {:>5}: {} events -> {} firings (fired rank {}), mean refresh {:?}, \
         {:.2e} flops/firing\n",
        engine.view().backend().name(),
        stats.events,
        stats.firings,
        stats.fired_rank,
        stats.refresh.mean_wall(),
        stats.refresh.mean_flops(),
    ));
    out.push_str(&format!(
        "             comm: broadcast {} B / {} msgs, shuffle {} B\n",
        comm.broadcast_bytes, comm.broadcast_msgs, comm.shuffle_bytes
    ));
    out.push_str(&format!(
        "             joint: {} rounds, {} trigger firings saved\n",
        stats.joint_rounds, stats.triggers_saved
    ));
    out.push_str(&format!(
        "             sched: {} stmts in {} stages ({} off the critical path{}), \
         {} view writes, {} overlapped broadcasts\n",
        stats.stmts,
        stats.stages,
        stats.stmts_saved(),
        if args.sequential { ", sequential" } else { "" },
        stats.writes,
        stats.overlapped_broadcasts,
    ));
    out.push_str(&format!(
        "             sparse: {} sparse / {} dense folds, {} compressed frames \
         ({} B saved), {} rank shed by recompression{}\n",
        stats.sparse.sparse_folds,
        stats.sparse.dense_folds,
        stats.sparse.compressed_frames,
        stats.sparse.bytes_saved,
        stats.sparse.rank_saved,
        if args.dense { ", forced dense" } else { "" },
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
    let d = engine.get("D").map_err(render_error)?.clone();
    Ok((out, d))
}

/// The `--backend socket` engine leg: drives the same workload over
/// out-of-process-style workers — either external peers from `--connect`,
/// or a self-hosted Unix-socket fleet spawned for the run.
fn run_socket_engine(
    program: &linview::compiler::Program,
    inputs: &[(&str, Matrix)],
    cat: &Catalog,
    args: &EngineArgs,
) -> Result<(String, Matrix), String> {
    let kill_at = args.kill_worker_after;
    match &args.connect {
        Some(specs) => {
            let addrs = specs
                .iter()
                .map(|s| PeerAddr::parse(s))
                .collect::<Result<Vec<_>, _>>()
                .map_err(render_error)?;
            let backend =
                SocketBackend::connect(addrs, SocketConfig::default()).map_err(render_error)?;
            let view =
                IncrementalView::build_on(backend, program, inputs, cat).map_err(render_error)?;
            drive_engine(view, args, |i, engine| {
                if Some(i) == kill_at {
                    // External workers can't be SIGKILLed from here; tear
                    // the connection instead — the same failure surface
                    // (dead peer) from the engine's point of view.
                    let victim = engine.view().backend().pool().workers() - 1;
                    engine
                        .view()
                        .backend()
                        .pool()
                        .transport()
                        .disconnect(victim);
                }
            })
        }
        None => {
            let cluster = linview::dist::Cluster::try_new(args.workers).map_err(render_error)?;
            let (gr, gc) = (cluster.grid_rows(), cluster.grid_cols());
            let (mut servers, addrs) = linview::dist::spawn_local_grid(gr, gc, "cli")
                .map_err(|e| format!("cannot spawn local socket workers: {e}"))?;
            let backend =
                SocketBackend::connect_with_cluster(cluster, addrs, SocketConfig::default())
                    .map_err(render_error)?;
            let view =
                IncrementalView::build_on(backend, program, inputs, cat).map_err(render_error)?;
            drive_engine(view, args, |i, _engine| {
                if Some(i) == kill_at {
                    // Abrupt worker death: its state dies with it. A fresh
                    // (empty) worker is brought up on the same address so
                    // recovery's revive + re-install can land.
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
    }
}

fn run_engine(args: &EngineArgs) -> Result<String, String> {
    let program = parse_program("C := A * B; D := C * C;").map_err(|e| e.to_string())?;
    let mut cat = Catalog::new();
    cat.declare("A", args.n, args.n);
    cat.declare("B", args.n, args.n);
    let a = Matrix::random_spectral(args.n, 7, 0.8);
    let b = Matrix::random_spectral(args.n, 8, 0.8);
    let inputs = [("A", a), ("B", b)];

    let mut out = format!(
        "maintenance engine: C := A * B; D := C * C;  (n = {}, policy = {}({}), zipf = {})\n\
         gemm: kernel {}, {} thread budget\n",
        args.n,
        args.policy,
        args.batch,
        args.zipf,
        linview::matrix::default_kernel(),
        gemm_threads(),
    );
    let mut results: Vec<(String, Matrix)> = Vec::new();
    if matches!(args.backend.as_str(), "local" | "all") {
        let view = IncrementalView::build(&program, &inputs, &cat).map_err(render_error)?;
        let (report, d) = drive_engine(view, args, |_, _| {})?;
        out.push_str(&report);
        results.push(("local".into(), d));
    }
    if matches!(args.backend.as_str(), "threaded" | "all") {
        let backend = ThreadedBackend::new(args.workers).map_err(render_error)?;
        let view =
            IncrementalView::build_on(backend, &program, &inputs, &cat).map_err(render_error)?;
        let kill_at = args.kill_worker_after;
        let victim = args.workers - 1;
        let (report, d) = drive_engine(view, args, |i, engine| {
            if Some(i) == kill_at {
                engine
                    .view_mut()
                    .backend_mut()
                    .pool_mut()
                    .kill_worker(victim);
            }
        })?;
        out.push_str(&report);
        results.push(("threaded".into(), d));
    }
    if matches!(args.backend.as_str(), "socket" | "all") {
        let (report, d) = run_socket_engine(&program, &inputs, &cat, args)?;
        out.push_str(&report);
        results.push(("socket".into(), d));
    }
    if let Some((first_name, first)) = results.first() {
        for (name, d) in &results[1..] {
            let diff = first.max_abs_diff(d);
            out.push_str(&format!(
                "backend divergence on D ({first_name} vs {name}): {diff:.2e}\n"
            ));
            if diff != 0.0 {
                return Err(format!(
                    "{first_name} and {name} backends diverged by {diff:.2e} — shared path broken"
                ));
            }
        }
    }
    Ok(out)
}

/// Options of the `serve` subcommand.
struct ServeArgs {
    n: usize,
    events: usize,
    batch: usize,
    policy: String,
    zipf: f64,
    workers: usize,
    backend: String,
    readers: usize,
    publish_every: u64,
    pace_ms: u64,
    wal_dir: Option<String>,
    checkpoint_every: usize,
}

fn parse_serve_args(argv: &[String]) -> Result<ServeArgs, String> {
    let mut args = ServeArgs {
        n: 48,
        events: 256,
        batch: 8,
        policy: "count".into(),
        zipf: 1.5,
        workers: 4,
        backend: "local".into(),
        readers: 4,
        publish_every: 1,
        pace_ms: 0,
        wal_dir: None,
        checkpoint_every: 8,
    };
    let next = |i: &mut usize, what: &str| -> Result<String, String> {
        *i += 1;
        argv.get(*i)
            .cloned()
            .ok_or_else(|| format!("missing value for {what}"))
    };
    let mut i = 0;
    while i < argv.len() {
        match argv[i].as_str() {
            "--n" => {
                args.n = next(&mut i, "--n")?
                    .parse()
                    .map_err(|_| "bad --n value".to_string())?
            }
            "--events" => {
                args.events = next(&mut i, "--events")?
                    .parse()
                    .map_err(|_| "bad --events value".to_string())?
            }
            "--batch" => {
                args.batch = next(&mut i, "--batch")?
                    .parse()
                    .map_err(|_| "bad --batch value".to_string())?
            }
            "--policy" => args.policy = next(&mut i, "--policy")?,
            "--zipf" => {
                args.zipf = next(&mut i, "--zipf")?
                    .parse()
                    .map_err(|_| "bad --zipf value".to_string())?
            }
            "--workers" => {
                args.workers = next(&mut i, "--workers")?
                    .parse()
                    .map_err(|_| "bad --workers value".to_string())?
            }
            "--backend" => args.backend = next(&mut i, "--backend")?,
            "--readers" => {
                args.readers = next(&mut i, "--readers")?
                    .parse()
                    .map_err(|_| "bad --readers value".to_string())?
            }
            "--publish-every" => {
                args.publish_every = next(&mut i, "--publish-every")?
                    .parse()
                    .map_err(|_| "bad --publish-every value".to_string())?
            }
            "--pace-ms" => {
                args.pace_ms = next(&mut i, "--pace-ms")?
                    .parse()
                    .map_err(|_| "bad --pace-ms value".to_string())?
            }
            "--wal-dir" => args.wal_dir = Some(next(&mut i, "--wal-dir")?),
            "--checkpoint-every" => {
                args.checkpoint_every = next(&mut i, "--checkpoint-every")?
                    .parse()
                    .map_err(|_| "bad --checkpoint-every value".to_string())?
            }
            "--gemm" => apply_gemm_flag(&next(&mut i, "--gemm")?)?,
            "--threads" => apply_threads_flag(&next(&mut i, "--threads")?)?,
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown serve flag '{other}'")),
        }
        i += 1;
    }
    if !matches!(args.backend.as_str(), "local" | "threaded" | "socket") {
        return Err(format!(
            "unknown --backend '{}' (want local|threaded|socket)",
            args.backend
        ));
    }
    if !matches!(args.policy.as_str(), "count" | "rank" | "immediate") {
        return Err(format!(
            "unknown --policy '{}' (want count|rank|immediate)",
            args.policy
        ));
    }
    if args.readers == 0 {
        return Err("--readers must be >= 1".into());
    }
    if args.checkpoint_every == 0 {
        return Err("--checkpoint-every must be >= 1".into());
    }
    Ok(args)
}

/// Runs live maintenance with a closed-loop reader population on the
/// wait-free snapshot path, then verifies the published state is
/// bit-identical to the live engine.
fn run_serve(args: &ServeArgs) -> Result<String, String> {
    let program = parse_program("C := A * B; D := C * C;").map_err(|e| e.to_string())?;
    let mut cat = Catalog::new();
    cat.declare("A", args.n, args.n);
    cat.declare("B", args.n, args.n);
    let a = Matrix::random_spectral(args.n, 7, 0.8);
    let b = Matrix::random_spectral(args.n, 8, 0.8);
    let inputs = [("A", a), ("B", b)];
    match args.backend.as_str() {
        "threaded" => {
            let backend = ThreadedBackend::new(args.workers).map_err(render_error)?;
            let view = IncrementalView::build_on(backend, &program, &inputs, &cat)
                .map_err(render_error)?;
            serve_on(view, args)
        }
        "socket" => {
            let cluster = linview::dist::Cluster::try_new(args.workers).map_err(render_error)?;
            let (gr, gc) = (cluster.grid_rows(), cluster.grid_cols());
            let (servers, addrs) = linview::dist::spawn_local_grid(gr, gc, "serve")
                .map_err(|e| format!("cannot spawn local socket workers: {e}"))?;
            let backend =
                SocketBackend::connect_with_cluster(cluster, addrs, SocketConfig::default())
                    .map_err(render_error)?;
            let view = IncrementalView::build_on(backend, &program, &inputs, &cat)
                .map_err(render_error)?;
            let out = serve_on(view, args);
            drop(servers);
            out
        }
        _ => {
            let view = IncrementalView::build(&program, &inputs, &cat).map_err(render_error)?;
            serve_on(view, args)
        }
    }
}

fn serve_on<B: ExecBackend>(view: IncrementalView<B>, args: &ServeArgs) -> Result<String, String> {
    use linview::runtime::{percentile_ns, ReaderPool, ReaderReport};

    let policy = match args.policy.as_str() {
        "immediate" => FlushPolicy::Immediate,
        "rank" => FlushPolicy::Rank(args.batch),
        _ => FlushPolicy::Count(args.batch),
    };
    let mut engine = MaintenanceEngine::new(view, policy);
    let mut out = format!(
        "serve: C := A * B; D := C * C;  (n = {}, backend {}, policy {}({}), \
         {} readers, publish every {})\n",
        args.n,
        engine.view().backend().name(),
        args.policy,
        args.batch,
        args.readers,
        args.publish_every,
    );
    if let Some(dir) = &args.wal_dir {
        let dir = std::path::Path::new(dir);
        if dir.join(linview::runtime::engine::CHECKPOINT_FILE).exists() {
            let rec = engine
                .recover_from_disk(args.checkpoint_every, dir)
                .map_err(render_error)?;
            out.push_str(&format!(
                "recovered from {}: {} firing(s) replayed, {} torn WAL tail byte(s) truncated\n",
                dir.display(),
                rec.replayed_firings,
                rec.torn_tail_bytes,
            ));
        } else {
            engine
                .enable_durable_checkpointing(args.checkpoint_every, dir)
                .map_err(render_error)?;
        }
    }
    let handle = engine.enable_serving(args.publish_every);
    let pool = ReaderPool::spawn(&handle, args.readers, &[]);
    let mut stream = UpdateStream::new(args.n, args.n, 0.01, 42);
    let t0 = std::time::Instant::now();
    for i in 0..args.events {
        let input = if i % 2 == 0 { "A" } else { "B" };
        engine
            .ingest(input, stream.next_rank_one_zipf(args.zipf))
            .map_err(render_error)?;
        if args.pace_ms > 0 {
            std::thread::sleep(std::time::Duration::from_millis(args.pace_ms));
        }
    }
    engine.flush_all().map_err(render_error)?;
    let maint_wall = t0.elapsed();
    // Staleness at the moment maintenance stopped, before the final
    // forced sync below zeroes it.
    let final_staleness = handle.staleness();
    engine.publish_snapshot();
    let reports = pool.stop();
    let mut total = ReaderReport {
        epochs_monotone: true,
        ..ReaderReport::default()
    };
    for r in &reports {
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
        args.readers,
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
        let live = engine.get(name).map_err(render_error)?;
        let published = snap.get(name).map_err(render_error)?;
        worst = worst.max(live.max_abs_diff(published));
    }
    out.push_str(&format!(
        "serve divergence (snapshot vs live, {} views): {worst:.2e}\n",
        snap.names().len()
    ));
    if worst != 0.0 {
        return Err(format!(
            "published snapshot diverged from live state by {worst:.2e} — serving path broken"
        ));
    }
    if !total.epochs_monotone {
        return Err("a reader observed a non-monotone epoch sequence — serving path broken".into());
    }
    Ok(out)
}

/// Options of the `worker` subcommand.
struct WorkerArgs {
    listen: String,
    once: bool,
}

fn parse_worker_args(argv: &[String]) -> Result<WorkerArgs, String> {
    let mut listen = None;
    let mut once = false;
    let next = |i: &mut usize, what: &str| -> Result<String, String> {
        *i += 1;
        argv.get(*i)
            .cloned()
            .ok_or_else(|| format!("missing value for {what}"))
    };
    let mut i = 0;
    while i < argv.len() {
        match argv[i].as_str() {
            "--listen" => listen = Some(next(&mut i, "--listen")?),
            "--once" => once = true,
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown worker flag '{other}'")),
        }
        i += 1;
    }
    let listen = listen.ok_or_else(|| "--listen ADDR is required".to_string())?;
    Ok(WorkerArgs { listen, once })
}

/// Hosts one grid worker: bind, print the bound address (so scripts can
/// use `tcp:HOST:0`), and serve coordinator sessions until told to stop.
fn run_worker(args: &WorkerArgs) -> Result<(), String> {
    let addr = PeerAddr::parse(&args.listen).map_err(render_error)?;
    let listener =
        linview::dist::bind(&addr).map_err(|e| format!("cannot listen on {addr}: {e}"))?;
    let actual = listener
        .local_addr()
        .map(|a| a.to_string())
        .unwrap_or_else(|_| addr.to_string());
    println!("linview worker listening on {actual}");
    use std::io::Write;
    let _ = std::io::stdout().flush();
    linview::dist::serve_worker(listener, ServeOptions { once: args.once })
        .map_err(|e| format!("worker on {actual} failed: {e}"))
}

/// Hosts a whole worker fleet in one process: W Unix-socket workers whose
/// addresses are printed one per line for a coordinator's `--connect`.
fn run_serve_cluster(argv: &[String]) -> Result<(), String> {
    let mut workers = 4usize;
    let mut dir: Option<String> = None;
    let next = |i: &mut usize, what: &str| -> Result<String, String> {
        *i += 1;
        argv.get(*i)
            .cloned()
            .ok_or_else(|| format!("missing value for {what}"))
    };
    let mut i = 0;
    while i < argv.len() {
        match argv[i].as_str() {
            "--workers" => {
                workers = next(&mut i, "--workers")?
                    .parse()
                    .map_err(|_| "bad --workers value".to_string())?
            }
            "--dir" => dir = Some(next(&mut i, "--dir")?),
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown serve-cluster flag '{other}'")),
        }
        i += 1;
    }
    // Validate the grid up front so a bad count fails loudly here instead
    // of in every coordinator that tries to connect.
    let cluster = linview::dist::Cluster::try_new(workers).map_err(render_error)?;
    let base = dir
        .map(std::path::PathBuf::from)
        .unwrap_or_else(std::env::temp_dir);
    let pid = std::process::id();
    let mut servers = Vec::with_capacity(workers);
    for idx in 0..workers {
        let path = base.join(format!("lv-cluster-{pid}-{idx}.sock"));
        let server = WorkerServer::spawn(&PeerAddr::Unix(path))
            .map_err(|e| format!("cannot spawn worker {idx}: {e}"))?;
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
    if argv.first().map(String::as_str) == Some("worker") {
        return match parse_worker_args(&argv[1..]).and_then(|a| run_worker(&a)) {
            Ok(()) => ExitCode::SUCCESS,
            Err(msg) if msg.is_empty() => {
                print!("{}", usage());
                ExitCode::SUCCESS
            }
            Err(msg) => {
                eprintln!("error: {msg}");
                ExitCode::FAILURE
            }
        };
    }
    if argv.first().map(String::as_str) == Some("serve-cluster") {
        return match run_serve_cluster(&argv[1..]) {
            Ok(()) => ExitCode::SUCCESS,
            Err(msg) if msg.is_empty() => {
                print!("{}", usage());
                ExitCode::SUCCESS
            }
            Err(msg) => {
                eprintln!("error: {msg}");
                ExitCode::FAILURE
            }
        };
    }
    if argv.first().map(String::as_str) == Some("lint") {
        return match parse_lint_args(&argv[1..]).and_then(|a| run_lint(&a)) {
            Ok((output, ok)) => {
                print!("{output}");
                if ok {
                    ExitCode::SUCCESS
                } else {
                    ExitCode::FAILURE
                }
            }
            Err(msg) if msg.is_empty() => {
                print!("{}", usage());
                ExitCode::SUCCESS
            }
            Err(msg) => {
                eprintln!("error: {msg}");
                ExitCode::from(2)
            }
        };
    }
    if argv.first().map(String::as_str) == Some("serve") {
        return match parse_serve_args(&argv[1..]).and_then(|a| run_serve(&a)) {
            Ok(output) => {
                print!("{output}");
                ExitCode::SUCCESS
            }
            Err(msg) if msg.is_empty() => {
                print!("{}", usage());
                ExitCode::SUCCESS
            }
            Err(msg) => {
                eprintln!("error: {msg}");
                ExitCode::FAILURE
            }
        };
    }
    if argv.first().map(String::as_str) == Some("engine") {
        return match parse_engine_args(&argv[1..]).and_then(|a| run_engine(&a)) {
            Ok(output) => {
                print!("{output}");
                ExitCode::SUCCESS
            }
            Err(msg) if msg.is_empty() => {
                print!("{}", usage());
                ExitCode::SUCCESS
            }
            Err(msg) => {
                eprintln!("error: {msg}");
                ExitCode::FAILURE
            }
        };
    }
    match parse_args(&argv) {
        Err(msg) if msg.is_empty() => {
            print!("{}", usage());
            ExitCode::SUCCESS
        }
        Err(msg) => {
            eprintln!("error: {msg}\n\n{}", usage());
            ExitCode::from(2)
        }
        Ok(args) => match run(&args) {
            Ok(out) => {
                print!("{out}");
                ExitCode::SUCCESS
            }
            Err(msg) => {
                eprintln!("error: {msg}");
                ExitCode::FAILURE
            }
        },
    }
}
