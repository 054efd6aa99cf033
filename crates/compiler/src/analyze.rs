//! Static trigger-program analysis: shape inference, stage-disjointness
//! proofs, liveness, and cost diagnostics.
//!
//! [`compile`](crate::compile()) and [`compile_joint`](crate::compile_joint)
//! run this analyzer over every trigger program they emit and **deny by
//! default**: an error-severity [`Diagnostic`] aborts compilation before any
//! backend sees the program. Four passes run:
//!
//! 1. **Shape inference** ([`AnalyzerPass::Shape`]) — propagates
//!    `(rows, cols, rank)` through every expression with its own
//!    [`Shape`] lattice and rejects dimension-inconsistent products, sums,
//!    stacks, and update folds before execution can.
//! 2. **Stage disjointness** ([`AnalyzerPass::Disjointness`] /
//!    [`AnalyzerPass::CrossCheck`]) — an *independent* re-derivation of the
//!    per-statement def-use effect sets ([`derive_effects`]) that proves
//!    every [`StmtDag`] parallel stage writes pairwise-disjoint environment
//!    slots and reads only pre-stage state. The re-derived sets are
//!    cross-checked against [`StmtEffects::of`](crate::schedule) — any
//!    disagreement between the two implementations is a hard error, since
//!    every backend's `apply_stage` soundness rests on exactly this
//!    property.
//! 3. **Liveness** ([`AnalyzerPass::Liveness`]) — warns on delta blocks
//!    that are computed but never read and on views that are maintained but
//!    never read downstream.
//! 4. **Cost & broadcast estimation** ([`AnalyzerPass::Cost`]) — a
//!    per-trigger FLOP and wire-byte estimate with a symbolic-in-`(n, k)`
//!    term rendering, warning when a delta program is priced *worse* than
//!    re-evaluating the affected views (the paper's Table 2 criterion).
//!
//! The runtime re-uses [`derive_effects`] in debug builds to assert that
//! every observed view write lands inside the statically-proved write set
//! of its stage (see `FiringReport::writes` in `linview-runtime`). The CLI
//! surfaces the analyzer as `linview lint` and `--emit analysis`.

use std::collections::BTreeSet;

use linview_expr::cost::{low_rank_update_cost, CostModel};
use linview_expr::{Catalog, Expr, ExprError};

use crate::schedule::{StmtDag, StmtEffects};
use crate::{JointTrigger, Program, Result, Trigger, TriggerProgram, TriggerStmt};

/// How severe a [`Diagnostic`] is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Advisory: the program runs correctly but wastes work.
    Warning,
    /// The program is ill-formed; compilation denies it.
    Error,
}

impl std::fmt::Display for Severity {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Severity::Warning => write!(f, "warning"),
            Severity::Error => write!(f, "error"),
        }
    }
}

/// Which analyzer pass produced a diagnostic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AnalyzerPass {
    /// Shape/dimension inference.
    Shape,
    /// Stage-disjointness verification.
    Disjointness,
    /// Re-derived effect sets disagreeing with [`crate::schedule`].
    CrossCheck,
    /// Dead-block and unread-view detection.
    Liveness,
    /// Static cost and broadcast estimation.
    Cost,
}

impl AnalyzerPass {
    /// Stable lowercase name, used in rendered diagnostics.
    pub fn name(&self) -> &'static str {
        match self {
            AnalyzerPass::Shape => "shape",
            AnalyzerPass::Disjointness => "disjointness",
            AnalyzerPass::CrossCheck => "crosscheck",
            AnalyzerPass::Liveness => "liveness",
            AnalyzerPass::Cost => "cost",
        }
    }
}

impl std::fmt::Display for AnalyzerPass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.name())
    }
}

/// One structured analyzer finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Error (denies compilation) or warning (advisory).
    pub severity: Severity,
    /// The pass that produced the finding.
    pub pass: AnalyzerPass,
    /// The trigger (by input name) the finding is about.
    pub trigger: String,
    /// 0-based statement index inside the trigger body, when applicable.
    pub stmt: Option<usize>,
    /// What is wrong.
    pub message: String,
    /// How to fix it, when the analyzer has a concrete idea.
    pub suggestion: Option<String>,
}

impl Diagnostic {
    /// Converts an error-severity diagnostic into the compiler error that
    /// denies compilation.
    pub fn to_error(&self) -> ExprError {
        ExprError::Analysis {
            pass: self.pass.name(),
            trigger: self.trigger.clone(),
            stmt: self.stmt,
            message: self.message.clone(),
            suggestion: self.suggestion.clone(),
        }
    }
}

impl std::fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}[{}] trigger '{}'",
            self.severity, self.pass, self.trigger
        )?;
        if let Some(i) = self.stmt {
            write!(f, " stmt {i}")?;
        }
        write!(f, ": {}", self.message)?;
        if let Some(s) = &self.suggestion {
            write!(f, "\n  hint: {s}")?;
        }
        Ok(())
    }
}

/// The `(rows, cols, rank)` lattice value the shape pass propagates. The
/// rank component is an upper bound: the exact numerical rank of a block is
/// a runtime property, but the bound is what sizes every factored update.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Shape {
    /// Row count.
    pub rows: usize,
    /// Column count.
    pub cols: usize,
    /// Upper bound on the numerical rank.
    pub rank: usize,
}

impl Shape {
    fn full(rows: usize, cols: usize) -> Shape {
        Shape {
            rows,
            cols,
            rank: rows.min(cols),
        }
    }
}

type ShapeIssue = (String, String); // (message, suggestion)

/// Infers the shape of `expr` against `cat`, propagating the rank bound.
/// This is the analyzer's own inference — deliberately separate from
/// `Expr::dim` so shape errors are caught by two implementations.
pub fn infer_shape(expr: &Expr, cat: &Catalog) -> std::result::Result<Shape, ShapeIssue> {
    match expr {
        Expr::Var(v) => match cat.get(v) {
            Ok(d) => Ok(Shape::full(d.rows, d.cols)),
            Err(_) => Err((
                format!("unknown matrix variable '{v}'"),
                format!("declare '{v}' in the catalog or fix the reference"),
            )),
        },
        Expr::Add(a, b) | Expr::Sub(a, b) => {
            let sa = infer_shape(a, cat)?;
            let sb = infer_shape(b, cat)?;
            if (sa.rows, sa.cols) != (sb.rows, sb.cols) {
                return Err((
                    format!(
                        "entrywise sum of ({}x{}) and ({}x{}) operands",
                        sa.rows, sa.cols, sb.rows, sb.cols
                    ),
                    "both operands of +/- must have identical shapes".into(),
                ));
            }
            Ok(Shape {
                rank: (sa.rank + sb.rank).min(sa.rows.min(sa.cols)),
                ..sa
            })
        }
        Expr::Mul(a, b) => {
            let sa = infer_shape(a, cat)?;
            let sb = infer_shape(b, cat)?;
            if sa.cols != sb.rows {
                return Err((
                    format!(
                        "product of ({}x{}) by ({}x{}): inner dimensions differ",
                        sa.rows, sa.cols, sb.rows, sb.cols
                    ),
                    "check operand order and transposes — GEMM needs lhs.cols == rhs.rows".into(),
                ));
            }
            Ok(Shape {
                rows: sa.rows,
                cols: sb.cols,
                rank: sa.rank.min(sb.rank),
            })
        }
        Expr::Scale(_, e) => infer_shape(e, cat),
        Expr::Transpose(e) => {
            let s = infer_shape(e, cat)?;
            Ok(Shape {
                rows: s.cols,
                cols: s.rows,
                rank: s.rank,
            })
        }
        Expr::Inverse(e) => {
            let s = infer_shape(e, cat)?;
            if s.rows != s.cols {
                return Err((
                    format!("inverse of a non-square ({}x{}) expression", s.rows, s.cols),
                    "only square matrices are invertible".into(),
                ));
            }
            Ok(Shape::full(s.rows, s.cols))
        }
        Expr::Identity(n) => Ok(Shape::full(*n, *n)),
        Expr::Zero(r, c) => Ok(Shape {
            rows: *r,
            cols: *c,
            rank: 0,
        }),
        Expr::HStack(parts) => {
            if parts.is_empty() {
                return Err((
                    "empty block stack".into(),
                    "a horizontal stack needs at least one block".into(),
                ));
            }
            let first = infer_shape(&parts[0], cat)?;
            let mut cols = first.cols;
            let mut rank = first.rank;
            for p in &parts[1..] {
                let s = infer_shape(p, cat)?;
                if s.rows != first.rows {
                    return Err((
                        format!("stacked blocks of {} and {} rows", first.rows, s.rows),
                        "every block of a horizontal stack must have the same row count".into(),
                    ));
                }
                cols += s.cols;
                rank += s.rank;
            }
            Ok(Shape {
                rows: first.rows,
                cols,
                rank: rank.min(first.rows.min(cols)),
            })
        }
    }
}

/// Collects the variables `expr` reads, walking the AST directly (the
/// analyzer's independent counterpart of `Expr::variables`).
fn read_vars(expr: &Expr, out: &mut BTreeSet<String>) {
    match expr {
        Expr::Var(v) => {
            out.insert(v.clone());
        }
        Expr::Add(a, b) | Expr::Sub(a, b) | Expr::Mul(a, b) => {
            read_vars(a, out);
            read_vars(b, out);
        }
        Expr::Scale(_, e) | Expr::Transpose(e) | Expr::Inverse(e) => read_vars(e, out),
        Expr::Identity(_) | Expr::Zero(_, _) => {}
        Expr::HStack(parts) => {
            for p in parts {
                read_vars(p, out);
            }
        }
    }
}

/// Independently re-derives the def-use effect sets of a trigger body from
/// statement semantics: `Assign` defines its block from its expression's
/// reads; `ShermanMorrison` reads its factor expressions *and* the
/// materialized inverse but writes only the output blocks; `ApplyDelta` is
/// a read-modify-write of its target.
///
/// This is a second implementation of what
/// [`StmtEffects::of`](crate::schedule) computes — kept deliberately
/// separate so [`verify_stages`] can use one as a checker for the other,
/// and so the runtime can assert observed writes against it in debug
/// builds.
pub fn derive_effects(stmts: &[TriggerStmt]) -> Vec<StmtEffects> {
    stmts
        .iter()
        .map(|stmt| {
            let mut reads = BTreeSet::new();
            let mut writes = BTreeSet::new();
            match stmt {
                TriggerStmt::Assign { var, expr } => {
                    read_vars(expr, &mut reads);
                    writes.insert(var.clone());
                }
                TriggerStmt::ShermanMorrison {
                    inv_var,
                    p,
                    q,
                    out_u,
                    out_v,
                } => {
                    read_vars(p, &mut reads);
                    read_vars(q, &mut reads);
                    reads.insert(inv_var.clone());
                    writes.insert(out_u.clone());
                    writes.insert(out_v.clone());
                }
                TriggerStmt::ApplyDelta { target, u, v } => {
                    read_vars(u, &mut reads);
                    read_vars(v, &mut reads);
                    reads.insert(target.clone());
                    writes.insert(target.clone());
                }
            }
            StmtEffects { reads, writes }
        })
        .collect()
}

/// The hazard (if any) between an earlier statement's effects `a` and a
/// later statement's effects `b`, with the overlapping variables.
fn hazard_between(a: &StmtEffects, b: &StmtEffects) -> Option<(&'static str, Vec<String>)> {
    let overlap = |x: &BTreeSet<String>, y: &BTreeSet<String>| -> Vec<String> {
        x.intersection(y).cloned().collect()
    };
    let raw = overlap(&a.writes, &b.reads);
    if !raw.is_empty() {
        return Some(("read-after-write", raw));
    }
    let war = overlap(&a.reads, &b.writes);
    if !war.is_empty() {
        return Some(("write-after-read", war));
    }
    let waw = overlap(&a.writes, &b.writes);
    if !waw.is_empty() {
        return Some(("write-after-write", waw));
    }
    None
}

/// Proves every parallel stage of `dag` sound for `trigger`'s body:
/// statements are scheduled exactly once, hazardous pairs never share a
/// stage (so each stage writes pairwise-disjoint slots and reads only
/// pre-stage state), and the re-derived effect sets agree with the
/// scheduler's. Returns the (error) diagnostics found.
pub fn verify_stages(trigger: &Trigger, dag: &StmtDag) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    let name = &trigger.input;
    let n = trigger.stmts.len();
    let own = derive_effects(&trigger.stmts);

    // Cross-check: two independent effect-set derivations must agree.
    for (i, (a, b)) in own.iter().zip(dag.effects()).enumerate() {
        if a != b {
            diags.push(Diagnostic {
                severity: Severity::Error,
                pass: AnalyzerPass::CrossCheck,
                trigger: name.clone(),
                stmt: Some(i),
                message: format!(
                    "analyzer effect sets (reads {:?}, writes {:?}) disagree with the \
                     scheduler's (reads {:?}, writes {:?})",
                    a.reads, a.writes, b.reads, b.writes
                ),
                suggestion: Some(
                    "schedule::StmtEffects and analyze::derive_effects must implement the \
                     same statement semantics — one of them regressed"
                        .into(),
                ),
            });
        }
    }

    // Every statement scheduled exactly once.
    let mut stage_of = vec![usize::MAX; n];
    for (s, stage) in dag.stages().iter().enumerate() {
        for &i in stage {
            if i >= n || stage_of[i] != usize::MAX {
                diags.push(Diagnostic {
                    severity: Severity::Error,
                    pass: AnalyzerPass::Disjointness,
                    trigger: name.clone(),
                    stmt: Some(i.min(n.saturating_sub(1))),
                    message: if i >= n {
                        format!("stage {s} schedules statement {i}, past the body of {n}")
                    } else {
                        format!("statement {i} is scheduled twice (again in stage {s})")
                    },
                    suggestion: None,
                });
            } else {
                stage_of[i] = s;
            }
        }
    }
    for (i, &s) in stage_of.iter().enumerate() {
        if s == usize::MAX {
            diags.push(Diagnostic {
                severity: Severity::Error,
                pass: AnalyzerPass::Disjointness,
                trigger: name.clone(),
                stmt: Some(i),
                message: format!("statement {i} is never scheduled into any stage"),
                suggestion: None,
            });
        }
    }
    if diags
        .iter()
        .any(|d| d.severity == Severity::Error && matches!(d.pass, AnalyzerPass::Disjointness))
    {
        return diags; // stage map is unusable; hazard checks would lie
    }

    // Every hazardous pair must be strictly ordered by stages. This is the
    // property `apply_stage` soundness rests on: it implies each stage's
    // writes are pairwise disjoint and no statement reads a stage-mate's
    // output (stages evaluate against the pre-stage environment).
    for j in 0..n {
        for i in 0..j {
            if let Some((kind, vars)) = hazard_between(&own[i], &own[j]) {
                if stage_of[i] >= stage_of[j] {
                    diags.push(Diagnostic {
                        severity: Severity::Error,
                        pass: AnalyzerPass::Disjointness,
                        trigger: name.clone(),
                        stmt: Some(j),
                        message: format!(
                            "statements {i} and {j} share stage {} but have a {kind} hazard \
                             on {vars:?}",
                            stage_of[j] + 1
                        ),
                        suggestion: Some(
                            "hazardous statements must be scheduled into strictly ordered \
                             stages; rebuild the DAG with StmtDag::analyze"
                                .into(),
                        ),
                    });
                }
            }
        }
    }
    diags
}

/// Density at or below which the runtime folds a delta factor sparsely.
/// Mirrors `linview_matrix::SPARSE_FOLD_CROSSOVER` — the compiler crate
/// deliberately does not depend on the kernel crate; a root test pins the
/// two equal.
pub const SPARSE_FOLD_CROSSOVER: f64 = 0.05;

/// Per-trigger static cost and broadcast estimate (pass 4).
#[derive(Debug, Clone, PartialEq)]
pub struct CostEstimate {
    /// Modeled FLOPs of one trigger firing (delta blocks + view folds).
    pub flops: f64,
    /// Modeled FLOPs of re-evaluating the affected views instead, when the
    /// source [`Program`] was available to price it.
    pub reeval_flops: Option<f64>,
    /// Broadcast payload of one firing: the serialized factored deltas a
    /// distributed backend ships to every worker.
    pub wire_bytes: u64,
    /// Rank of the incoming update the estimate is for.
    pub update_rank: usize,
    /// Symbolic-in-`(n, k)` rendering of the dominant cost terms.
    pub terms: String,
    /// Density-refined (nnz-aware) estimate, present when the caller
    /// supplied [`AnalyzeOptions::density`].
    pub sparse: Option<SparseEstimate>,
}

/// Density-refined companion to a [`CostEstimate`]: what the same firing
/// costs when each delta factor carries only `density · len` nonzeros —
/// sparse ApplyDelta folds replay stored entries (engaged at or below the
/// runtime's crossover density) and compressed broadcast frames ship
/// 16-byte triplets instead of 8-byte dense entries whenever that is
/// strictly smaller.
#[derive(Debug, Clone, PartialEq)]
pub struct SparseEstimate {
    /// The assumed nonzero fraction per delta factor.
    pub density: f64,
    /// Predicted FLOPs of one firing with sparse-eligible folds replayed
    /// over stored entries only.
    pub flops: f64,
    /// Predicted broadcast payload of one firing under compressed
    /// (triplet-encoded) factor frames.
    pub wire_bytes: u64,
}

impl CostEstimate {
    /// Predicted REEVAL/INCR speedup, when re-evaluation could be priced.
    pub fn speedup(&self) -> Option<f64> {
        self.reeval_flops.map(|re| {
            if self.flops == 0.0 {
                f64::INFINITY
            } else {
                re / self.flops
            }
        })
    }
}

/// What the analyzer proved about one trigger.
#[derive(Debug, Clone)]
pub struct TriggerAnalysis {
    /// The trigger's input name.
    pub input: String,
    /// The independently re-derived effect sets, one per statement.
    pub effects: Vec<StmtEffects>,
    /// Stage count of the verified schedule (0 when the DAG failed).
    pub stages: usize,
    /// Widest verified stage.
    pub max_stage_width: usize,
    /// The pass-4 cost estimate.
    pub cost: CostEstimate,
}

/// Options for [`analyze_program`] / [`analyze_joint`].
#[derive(Debug, Clone, Copy, Default)]
pub struct AnalyzeOptions<'a> {
    /// The source program, when available: enables the Table 2 criterion
    /// (pricing re-evaluation of the affected views for comparison).
    pub program: Option<&'a Program>,
    /// Cost model for pass 4 (`None` → the cubic model).
    pub model: Option<CostModel>,
    /// Expected nonzero fraction of each incoming delta factor, when the
    /// workload is known (basis-row streams are `1/n` dense): refines pass
    /// 4 with nnz-aware fold FLOPs and compressed-frame wire bytes. Values
    /// outside `(0, 1]` are ignored.
    pub density: Option<f64>,
}

/// The full analyzer output: diagnostics plus per-trigger facts.
#[derive(Debug, Clone)]
pub struct AnalyzerReport {
    /// All findings, in pass order per trigger.
    pub diagnostics: Vec<Diagnostic>,
    /// Per-trigger analysis facts, in declaration order.
    pub triggers: Vec<TriggerAnalysis>,
}

impl AnalyzerReport {
    /// True when any error-severity diagnostic was produced.
    pub fn has_errors(&self) -> bool {
        self.first_error().is_some()
    }

    /// The first error-severity diagnostic, if any.
    pub fn first_error(&self) -> Option<&Diagnostic> {
        self.diagnostics
            .iter()
            .find(|d| d.severity == Severity::Error)
    }

    /// `(errors, warnings)` counts.
    pub fn counts(&self) -> (usize, usize) {
        let errors = self
            .diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Error)
            .count();
        (errors, self.diagnostics.len() - errors)
    }
}

impl std::fmt::Display for AnalyzerReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let (errors, warnings) = self.counts();
        writeln!(
            f,
            "== static analysis: {} trigger(s), {errors} error(s), {warnings} warning(s) ==",
            self.triggers.len()
        )?;
        for t in &self.triggers {
            writeln!(
                f,
                "trigger '{}': {} stmt(s) in {} verified stage(s) (max width {})",
                t.input,
                t.effects.len(),
                t.stages,
                t.max_stage_width
            )?;
            write!(
                f,
                "  est. {:.3e} flops/firing, {} wire bytes/firing (update rank {})",
                t.cost.flops, t.cost.wire_bytes, t.cost.update_rank
            )?;
            match t.cost.speedup() {
                Some(s) => writeln!(
                    f,
                    "; reeval {:.3e} flops ({s:.1}x)",
                    t.cost.reeval_flops.unwrap_or(0.0)
                )?,
                None => writeln!(f)?,
            }
            if !t.cost.terms.is_empty() {
                writeln!(f, "  cost terms: {}", t.cost.terms)?;
            }
            if let Some(sp) = &t.cost.sparse {
                writeln!(
                    f,
                    "  at density {:.4}: est. {:.3e} flops/firing, {} wire bytes/firing \
                     (compressed frames)",
                    sp.density, sp.flops, sp.wire_bytes
                )?;
            }
        }
        for d in &self.diagnostics {
            writeln!(f, "{d}")?;
        }
        Ok(())
    }
}

/// Runs all four passes over `tp`. Never fails — findings are reported as
/// [`Diagnostic`]s; use [`check_program`] for the deny-by-default form.
pub fn analyze_program(tp: &TriggerProgram, opts: &AnalyzeOptions) -> AnalyzerReport {
    let inputs: BTreeSet<String> = tp.triggers.iter().map(|t| t.input.clone()).collect();
    analyze_triggers(&tp.triggers, &tp.catalog, &inputs, opts)
}

/// Runs all four passes over a joint trigger (§4.4).
pub fn analyze_joint(joint: &JointTrigger, opts: &AnalyzeOptions) -> AnalyzerReport {
    let inputs: BTreeSet<String> = joint.inputs.iter().cloned().collect();
    analyze_triggers(
        std::slice::from_ref(&joint.trigger),
        &joint.catalog,
        &inputs,
        opts,
    )
}

/// Deny-by-default entry point used by [`compile`](crate::compile()):
/// returns the first error-severity diagnostic as an
/// [`ExprError::Analysis`].
pub fn check_program(tp: &TriggerProgram, program: Option<&Program>) -> Result<()> {
    let opts = AnalyzeOptions {
        program,
        ..Default::default()
    };
    match analyze_program(tp, &opts).first_error() {
        Some(d) => Err(d.to_error()),
        None => Ok(()),
    }
}

/// Deny-by-default entry point used by
/// [`compile_joint`](crate::compile_joint).
pub fn check_joint(joint: &JointTrigger, program: Option<&Program>) -> Result<()> {
    let opts = AnalyzeOptions {
        program,
        ..Default::default()
    };
    match analyze_joint(joint, &opts).first_error() {
        Some(d) => Err(d.to_error()),
        None => Ok(()),
    }
}

fn analyze_triggers(
    triggers: &[Trigger],
    cat: &Catalog,
    inputs: &BTreeSet<String>,
    opts: &AnalyzeOptions,
) -> AnalyzerReport {
    let model = opts.model.unwrap_or_else(CostModel::cubic);
    let mut diagnostics = Vec::new();
    let mut facts = Vec::new();

    // Program-wide read set (expression reads only — the RMW read an
    // ApplyDelta performs on its own target does not make the view "used").
    let mut read_anywhere: BTreeSet<String> = BTreeSet::new();
    for t in triggers {
        for stmt in &t.stmts {
            match stmt {
                TriggerStmt::Assign { expr, .. } => read_vars(expr, &mut read_anywhere),
                TriggerStmt::ShermanMorrison { inv_var, p, q, .. } => {
                    read_vars(p, &mut read_anywhere);
                    read_vars(q, &mut read_anywhere);
                    read_anywhere.insert(inv_var.clone());
                }
                TriggerStmt::ApplyDelta { u, v, .. } => {
                    read_vars(u, &mut read_anywhere);
                    read_vars(v, &mut read_anywhere);
                }
            }
        }
    }

    for trigger in triggers {
        let refined = shape_pass(trigger, cat, &mut diagnostics);
        let (stages, max_width) = match trigger.dag() {
            Ok(dag) => {
                diagnostics.extend(verify_stages(trigger, &dag));
                (dag.stage_count(), dag.max_stage_width())
            }
            Err(e) => {
                diagnostics.push(Diagnostic {
                    severity: Severity::Error,
                    pass: AnalyzerPass::Disjointness,
                    trigger: trigger.input.clone(),
                    stmt: None,
                    message: format!("no staged schedule exists: {e}"),
                    suggestion: None,
                });
                (0, 0)
            }
        };
        liveness_pass(trigger, inputs, &read_anywhere, &mut diagnostics);
        // Cost formulas use the flow-refined catalog so per-trigger delta
        // block ranks (which the shared catalog cannot represent) price
        // correctly.
        let cost = cost_pass(trigger, &refined, &model, inputs, opts, &mut diagnostics);
        facts.push(TriggerAnalysis {
            input: trigger.input.clone(),
            effects: derive_effects(&trigger.stmts),
            stages,
            max_stage_width: max_width,
            cost,
        });
    }
    AnalyzerReport {
        diagnostics,
        triggers: facts,
    }
}

/// Pass 1: flow-sensitive shape/dimension inference over every statement.
///
/// Delta block shapes are *per trigger*: [`crate::compile`] shares one
/// catalog across all per-input triggers, so the recorded shape of a block
/// like `U_beta` reflects whichever trigger declared it last (the update
/// rank differs per input). The pass therefore refines a local copy of the
/// catalog as it walks the body — each `Assign` / Sherman–Morrison output
/// re-declares its block with the shape its *defining expression in this
/// trigger* produces — and every downstream conformance check (GEMM inner
/// dimensions, entrywise sums, `+=` folds against the stable view shapes)
/// runs against the refined catalog. The refined catalog is returned for
/// the cost pass.
fn shape_pass(trigger: &Trigger, cat: &Catalog, diags: &mut Vec<Diagnostic>) -> Catalog {
    let name = &trigger.input;
    let mut local = cat.clone();
    for (i, stmt) in trigger.stmts.iter().enumerate() {
        let mut error = |message: String, suggestion: String| {
            diags.push(Diagnostic {
                severity: Severity::Error,
                pass: AnalyzerPass::Shape,
                trigger: name.clone(),
                stmt: Some(i),
                message,
                suggestion: Some(suggestion),
            });
        };
        match stmt {
            TriggerStmt::Assign { var, expr } => {
                if !local.contains(var) {
                    error(
                        format!("assigned block '{var}' is not declared in the catalog"),
                        format!("declare '{var}' with its block shape before use"),
                    );
                }
                match infer_shape(expr, &local) {
                    Ok(s) => local.declare(var, s.rows, s.cols),
                    Err((m, s)) => error(m, s),
                }
            }
            TriggerStmt::ShermanMorrison {
                inv_var,
                p,
                q,
                out_u,
                out_v,
            } => {
                let w = match local.get(inv_var) {
                    Ok(d) => d,
                    Err(_) => {
                        error(
                            format!("maintained inverse '{inv_var}' is not declared"),
                            format!("declare '{inv_var}' in the catalog"),
                        );
                        continue;
                    }
                };
                if w.rows != w.cols {
                    error(
                        format!(
                            "maintained inverse '{inv_var}' is ({}x{}), not square",
                            w.rows, w.cols
                        ),
                        "only square matrices have a maintained inverse".into(),
                    );
                    continue;
                }
                let (sp, sq) = match (infer_shape(p, &local), infer_shape(q, &local)) {
                    (Ok(sp), Ok(sq)) => (sp, sq),
                    (Err((m, s)), _) | (_, Err((m, s))) => {
                        error(m, s);
                        continue;
                    }
                };
                if sp.rows != w.rows || sq.rows != w.rows || sp.cols != sq.cols {
                    error(
                        format!(
                            "Sherman-Morrison factors ({}x{})·({}x{})' do not conform to \
                             the ({}x{}) inverse",
                            sp.rows, sp.cols, sq.rows, sq.cols, w.rows, w.cols
                        ),
                        "P and Q must both be n×k for an n×n inverse".into(),
                    );
                    continue;
                }
                for out in [out_u, out_v] {
                    if !local.contains(out) {
                        error(
                            format!("S-M output block '{out}' is not declared"),
                            format!("declare '{out}' as ({}x{})", w.rows, sp.cols),
                        );
                    }
                    local.declare(out, w.rows, sp.cols);
                }
            }
            TriggerStmt::ApplyDelta { target, u, v } => {
                let t = match local.get(target) {
                    Ok(d) => d,
                    Err(_) => {
                        error(
                            format!("maintained view '{target}' is not declared"),
                            format!("declare '{target}' in the catalog"),
                        );
                        continue;
                    }
                };
                let (su, sv) = match (infer_shape(u, &local), infer_shape(v, &local)) {
                    (Ok(su), Ok(sv)) => (su, sv),
                    (Err((m, s)), _) | (_, Err((m, s))) => {
                        error(m, s);
                        continue;
                    }
                };
                if su.rows != t.rows || sv.rows != t.cols || su.cols != sv.cols {
                    error(
                        format!(
                            "delta factors ({}x{})·({}x{})' do not conform to the \
                             ({}x{}) view '{target}'",
                            su.rows, su.cols, sv.rows, sv.cols, t.rows, t.cols
                        ),
                        "a low-rank update of an n×m view needs n×k and m×k factors".into(),
                    );
                }
            }
        }
    }
    local
}

/// Pass 3: dead blocks and unread maintained views.
fn liveness_pass(
    trigger: &Trigger,
    inputs: &BTreeSet<String>,
    read_anywhere: &BTreeSet<String>,
    diags: &mut Vec<Diagnostic>,
) {
    // Blocks computed but never read by any statement of the program.
    for (i, stmt) in trigger.stmts.iter().enumerate() {
        let outputs: Vec<&String> = match stmt {
            TriggerStmt::Assign { var, .. } => vec![var],
            TriggerStmt::ShermanMorrison { out_u, out_v, .. } => vec![out_u, out_v],
            TriggerStmt::ApplyDelta { .. } => continue,
        };
        for var in outputs {
            if !read_anywhere.contains(var) {
                diags.push(Diagnostic {
                    severity: Severity::Warning,
                    pass: AnalyzerPass::Liveness,
                    trigger: trigger.input.clone(),
                    stmt: Some(i),
                    message: format!("block '{var}' is computed but never read"),
                    suggestion: Some(
                        "drop the statement or run the optimizer's dead-code elimination".into(),
                    ),
                });
            }
        }
    }
    // Views maintained but never read downstream. The last update target is
    // the program's output view and implicitly queried; inputs must always
    // track their stream.
    let terminal = trigger.stmts.iter().rev().find_map(|s| match s {
        TriggerStmt::ApplyDelta { target, .. } => Some(target.clone()),
        _ => None,
    });
    for view in trigger.maintained_views() {
        if inputs.contains(view) || read_anywhere.contains(view) {
            continue;
        }
        if terminal.as_deref() == Some(view) {
            continue;
        }
        diags.push(Diagnostic {
            severity: Severity::Warning,
            pass: AnalyzerPass::Liveness,
            trigger: trigger.input.clone(),
            stmt: None,
            message: format!("view '{view}' is maintained but never read by any trigger statement"),
            suggestion: Some(format!(
                "if '{view}' is never queried, remove its statement to save every firing \
                 the fold"
            )),
        });
    }
}

/// Pass 4: static FLOP / wire-byte estimation and the Table 2 criterion.
fn cost_pass(
    trigger: &Trigger,
    cat: &Catalog,
    model: &CostModel,
    inputs: &BTreeSet<String>,
    opts: &AnalyzeOptions,
    diags: &mut Vec<Diagnostic>,
) -> CostEstimate {
    let flops = trigger.cost(cat, model).unwrap_or(0.0);
    let density = opts.density.filter(|d| *d > 0.0 && *d <= 1.0);

    // Wire bytes: each factored delta pair a distributed backend broadcasts
    // once per firing, 8 bytes per f64 entry. The density-refined variants
    // start from the dense figures and re-price only what the sparse
    // runtime paths change: ApplyDelta fold FLOPs and factor payloads.
    let mut wire_bytes = 0u64;
    let mut sparse_flops = flops;
    let mut sparse_wire = 0u64;
    let mut terms: Vec<String> = Vec::new();
    for stmt in &trigger.stmts {
        match stmt {
            TriggerStmt::ApplyDelta { target, u, v } => {
                if let (Ok(su), Ok(sv)) = (infer_shape(u, cat), infer_shape(v, cat)) {
                    wire_bytes += 8 * (su.rows * su.cols + sv.rows * sv.cols) as u64;
                    terms.push(format!(
                        "2k·nm [{target}: k={}, {}×{}]",
                        su.cols, su.rows, sv.rows
                    ));
                    if let Some(d) = density {
                        let (n, k, m) = (su.rows as f64, su.cols as f64, sv.rows as f64);
                        if d <= SPARSE_FOLD_CROSSOVER {
                            // Sparse fold: 2 flops per stored entry per view
                            // column, plus one row-gather per touched row —
                            // replaces the dense 2·k·n·m GEMM fold.
                            let nnz = d * n * k;
                            sparse_flops += (2.0 * nnz + nnz.min(n)) * m - 2.0 * k * n * m;
                        }
                        for len in [su.rows * su.cols, sv.rows * sv.cols] {
                            let nnz = (d * len as f64).ceil() as u64;
                            let len = len as u64;
                            // The codec's exact rule: 16-byte triplets win
                            // over 8-byte dense entries iff 2·nnz < len.
                            sparse_wire += if 2 * nnz < len { 16 * nnz } else { 8 * len };
                        }
                    }
                }
            }
            TriggerStmt::ShermanMorrison { inv_var, p, .. } => {
                if let (Ok(w), Ok(sp)) = (cat.get(inv_var), infer_shape(p, cat)) {
                    terms.push(format!("6k·n² [{inv_var}: k={}, n={}]", sp.cols, w.rows));
                }
            }
            TriggerStmt::Assign { var, expr } => {
                if let Ok(c) = model.expr_cost(expr, cat) {
                    terms.push(format!("eval [{var}: {c:.1e}]"));
                }
            }
        }
    }

    // Table 2 criterion: price re-evaluating the affected views when the
    // source program is available.
    let reeval_flops = opts.program.and_then(|p| {
        let maintained = trigger.maintained_views();
        let mut total = 0.0;
        for stmt in p.statements() {
            if maintained.contains(&stmt.target.as_str()) {
                total += model.expr_cost(&stmt.expr, cat).ok()?;
            }
        }
        // Folding the input update itself is part of both strategies: the
        // firing's flops price it, so re-evaluation must too.
        for view in maintained.iter().filter(|v| inputs.contains(**v)) {
            total += low_rank_update_cost(cat.get(view).ok()?, trigger.update_rank);
        }
        Some(total)
    });
    if let Some(re) = reeval_flops {
        if re > 0.0 && flops > re {
            diags.push(Diagnostic {
                severity: Severity::Warning,
                pass: AnalyzerPass::Cost,
                trigger: trigger.input.clone(),
                stmt: None,
                message: format!(
                    "incremental firing (≈{flops:.3e} flops) is priced worse than \
                     re-evaluating the affected views (≈{re:.3e} flops)"
                ),
                suggestion: Some(format!(
                    "prefer re-evaluation for input '{}' (the paper's Table 2 criterion)",
                    trigger.input
                )),
            });
        }
    }

    CostEstimate {
        flops,
        reeval_flops,
        wire_bytes,
        update_rank: trigger.update_rank,
        terms: terms.join(" + "),
        sparse: density.map(|d| SparseEstimate {
            density: d,
            flops: sparse_flops.max(0.0),
            wire_bytes: sparse_wire,
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{compile, CompileOptions};

    fn powers() -> (Program, Catalog) {
        let mut cat = Catalog::new();
        cat.declare("A", 64, 64);
        let mut p = Program::new();
        p.assign("B", Expr::var("A") * Expr::var("A"));
        p.assign("C", Expr::var("B") * Expr::var("B"));
        (p, cat)
    }

    #[test]
    fn compiler_output_is_clean() {
        let (p, cat) = powers();
        let tp = compile(&p, &["A"], &cat, &CompileOptions::default()).unwrap();
        let report = analyze_program(
            &tp,
            &AnalyzeOptions {
                program: Some(&p),
                ..Default::default()
            },
        );
        assert!(!report.has_errors(), "{report}");
        let t = &report.triggers[0];
        assert!(t.stages >= 2 && t.max_stage_width >= 2);
        assert!(t.cost.flops > 0.0 && t.cost.wire_bytes > 0);
        assert!(t.cost.speedup().unwrap() > 1.0, "INCR should win: {report}");
        assert!(t.cost.sparse.is_none(), "no density supplied");
    }

    #[test]
    fn density_refines_fold_flops_and_compressed_wire_bytes() {
        let (p, cat) = powers();
        let tp = compile(&p, &["A"], &cat, &CompileOptions::default()).unwrap();
        let at = |density: Option<f64>| {
            analyze_program(
                &tp,
                &AnalyzeOptions {
                    program: Some(&p),
                    density,
                    ..Default::default()
                },
            )
        };
        // Basis-row streams on a 64×64 input are 1/64 ≈ 0.016 dense: below
        // the fold crossover AND the triplet-encoding break-even, so both
        // refined figures must drop strictly below the dense estimates.
        let sparse = at(Some(1.0 / 64.0));
        assert!(!sparse.has_errors(), "{sparse}");
        for t in &sparse.triggers {
            let sp = t.cost.sparse.as_ref().expect("density was supplied");
            assert!(sp.flops < t.cost.flops, "{:?}", t.cost);
            assert!(sp.wire_bytes < t.cost.wire_bytes, "{:?}", t.cost);
        }
        let rendered = sparse.to_string();
        assert!(rendered.contains("at density"), "{rendered}");
        // Fully dense factors gain nothing: the refinement degenerates to
        // the dense estimate on both axes.
        let dense = at(Some(1.0));
        for t in &dense.triggers {
            let sp = t.cost.sparse.as_ref().unwrap();
            assert_eq!(sp.flops, t.cost.flops);
            assert_eq!(sp.wire_bytes, t.cost.wire_bytes);
        }
        // Out-of-range densities are ignored rather than mispriced.
        for bad in [0.0, -0.5, 1.5] {
            for t in &at(Some(bad)).triggers {
                assert!(t.cost.sparse.is_none());
            }
        }
    }

    #[test]
    fn effect_rederivation_matches_scheduler() {
        let (p, cat) = powers();
        let tp = compile(&p, &["A"], &cat, &CompileOptions::default()).unwrap();
        for t in &tp.triggers {
            let dag = t.dag().unwrap();
            assert_eq!(derive_effects(&t.stmts), dag.effects().to_vec());
        }
    }

    #[test]
    fn shape_pass_rejects_nonconforming_delta() {
        let mut cat = Catalog::new();
        cat.declare("A", 8, 8);
        cat.declare("u", 8, 1);
        cat.declare("w", 6, 1); // wrong row count
        let t = Trigger {
            input: "A".into(),
            update_rank: 1,
            stmts: vec![TriggerStmt::ApplyDelta {
                target: "A".into(),
                u: Expr::var("u"),
                v: Expr::var("w"),
            }],
        };
        let tp = TriggerProgram {
            triggers: vec![t],
            catalog: cat,
        };
        let report = analyze_program(&tp, &AnalyzeOptions::default());
        let err = report.first_error().expect("shape error");
        assert_eq!(err.pass, AnalyzerPass::Shape);
        assert!(err.message.contains("do not conform"), "{err}");
        assert!(err.suggestion.is_some());
    }

    #[test]
    fn dangling_name_is_a_shape_error() {
        let mut cat = Catalog::new();
        cat.declare("A", 4, 4);
        cat.declare("x", 4, 1);
        let t = Trigger {
            input: "A".into(),
            update_rank: 1,
            stmts: vec![TriggerStmt::Assign {
                var: "x".into(),
                expr: Expr::var("ghost") * Expr::var("A"),
            }],
        };
        let tp = TriggerProgram {
            triggers: vec![t],
            catalog: cat,
        };
        let report = analyze_program(&tp, &AnalyzeOptions::default());
        let err = report.first_error().expect("unknown-var error");
        assert!(err.message.contains("ghost"), "{err}");
    }

    #[test]
    fn injected_same_stage_hazard_is_rejected() {
        // Two += into the same view forced into one stage: WAW.
        let stmts = vec![
            TriggerStmt::ApplyDelta {
                target: "V".into(),
                u: Expr::var("u1"),
                v: Expr::var("v1"),
            },
            TriggerStmt::ApplyDelta {
                target: "V".into(),
                u: Expr::var("u2"),
                v: Expr::var("v2"),
            },
        ];
        let t = Trigger {
            input: "A".into(),
            update_rank: 1,
            stmts,
        };
        let effects = derive_effects(&t.stmts);
        // Empty predecessor lists put both statements into stage 0.
        let dag = StmtDag::from_preds(effects, vec![vec![], vec![]]).unwrap();
        let diags = verify_stages(&t, &dag);
        // The ApplyDelta RMW self-read makes the pair hazard surface as
        // read-after-write on the shared target (checked before WAW).
        assert!(
            diags.iter().any(|d| d.severity == Severity::Error
                && d.pass == AnalyzerPass::Disjointness
                && d.message.contains("hazard on [\"V\"]")),
            "{diags:?}"
        );
    }

    #[test]
    fn rank_bound_propagates() {
        let mut cat = Catalog::new();
        cat.declare("A", 8, 8);
        cat.declare("u", 8, 1);
        cat.declare("v", 8, 1);
        // [u | A u] has rank bound 2; (A u) v' has rank bound 1.
        let stack = Expr::HStack(vec![Expr::var("u"), Expr::var("A") * Expr::var("u")]);
        assert_eq!(infer_shape(&stack, &cat).unwrap().rank, 2);
        let outer = (Expr::var("A") * Expr::var("u")) * Expr::var("v").t();
        let s = infer_shape(&outer, &cat).unwrap();
        assert_eq!((s.rows, s.cols, s.rank), (8, 8, 1));
        assert_eq!(infer_shape(&Expr::zero(3, 3), &cat).unwrap().rank, 0);
    }

    #[test]
    fn liveness_warns_on_dead_block() {
        let mut cat = Catalog::new();
        cat.declare("A", 4, 4);
        cat.declare("dU_A", 4, 1);
        cat.declare("dV_A", 4, 1);
        cat.declare("dead", 4, 1);
        let t = Trigger {
            input: "A".into(),
            update_rank: 1,
            stmts: vec![
                TriggerStmt::Assign {
                    var: "dead".into(),
                    expr: Expr::var("dU_A"),
                },
                TriggerStmt::ApplyDelta {
                    target: "A".into(),
                    u: Expr::var("dU_A"),
                    v: Expr::var("dV_A"),
                },
            ],
        };
        let tp = TriggerProgram {
            triggers: vec![t],
            catalog: cat,
        };
        let report = analyze_program(&tp, &AnalyzeOptions::default());
        assert!(!report.has_errors(), "{report}");
        assert!(report
            .diagnostics
            .iter()
            .any(|d| d.pass == AnalyzerPass::Liveness && d.message.contains("'dead'")));
    }

    #[test]
    fn diagnostics_render_structured() {
        let d = Diagnostic {
            severity: Severity::Error,
            pass: AnalyzerPass::Shape,
            trigger: "A".into(),
            stmt: Some(3),
            message: "bad".into(),
            suggestion: Some("fix".into()),
        };
        let text = d.to_string();
        assert!(text.contains("error[shape]") && text.contains("stmt 3"));
        assert!(text.contains("hint: fix"));
        assert!(matches!(
            d.to_error(),
            ExprError::Analysis { stmt: Some(3), .. }
        ));
    }

    /// Pass 4's estimate for `A^(2^squarings)` by repeated squaring over an
    /// `n×n` input, with the source program supplied so REEVAL is priced.
    fn priced_powers(n: usize, squarings: usize, model: CostModel) -> AnalyzerReport {
        let mut cat = Catalog::new();
        cat.declare("A", n, n);
        let mut p = Program::new();
        let mut prev = "A".to_string();
        for i in 0..squarings {
            let name = format!("P{i}");
            p.assign(&name, Expr::var(&prev) * Expr::var(&prev));
            prev = name;
        }
        let tp = compile(&p, &["A"], &cat, &CompileOptions::default()).unwrap();
        analyze_program(
            &tp,
            &AnalyzeOptions {
                program: Some(&p),
                model: Some(model),
                density: None,
            },
        )
    }

    #[test]
    fn incremental_wins_for_matrix_powers() {
        // n³-class vs n²k-class: at n = 256 the gap is large (A⁸ here).
        let report = priced_powers(256, 3, CostModel::cubic());
        assert!(
            report.triggers[0].cost.speedup().unwrap() >= 10.0,
            "{report}"
        );
    }

    #[test]
    fn static_statements_do_not_count_toward_reeval() {
        let mut cat = Catalog::new();
        cat.declare("A", 64, 64);
        cat.declare("M", 64, 64);
        let mut p = Program::new();
        p.assign("N", Expr::var("M") * Expr::var("M")); // static
        p.assign("B", Expr::var("A") * Expr::var("A")); // dynamic
        let tp = compile(&p, &["A"], &cat, &CompileOptions::default()).unwrap();
        let report = analyze_program(
            &tp,
            &AnalyzeOptions {
                program: Some(&p),
                ..Default::default()
            },
        );
        // Only B's product + the input update are re-evaluated.
        let expected = CostModel::cubic().mul_cost(64, 64, 64) + 2.0 * 64.0 * 64.0;
        assert_eq!(report.triggers[0].cost.reeval_flops, Some(expected));
    }

    #[test]
    fn gamma_controls_the_gap() {
        // With a smaller γ, re-evaluation gets relatively cheaper and the
        // predicted speedup shrinks — §3's framing of when IVM pays off.
        let speedup = |model| priced_powers(256, 2, model).triggers[0].cost.speedup();
        let cubic = speedup(CostModel::cubic()).unwrap();
        let strassen = speedup(CostModel::with_gamma(2.807)).unwrap();
        assert!(strassen < cubic && strassen > 1.0, "{strassen} vs {cubic}");
    }

    #[test]
    fn reeval_prices_the_input_fold_and_renders() {
        // A⁴ at n = 512: two n³ products plus the rank-1 fold into A that
        // the firing's own estimate also pays.
        let report = priced_powers(512, 2, CostModel::cubic());
        let n = 512.0f64;
        let want = 2.0 * (2.0 * n.powi(3)) + 2.0 * n * n;
        assert_eq!(report.triggers[0].cost.reeval_flops, Some(want));
        let text = report.to_string();
        assert!(text.contains(&format!("reeval {want:.3e} flops")), "{text}");
        assert!(text.contains("x)"), "{text}");
    }
}
